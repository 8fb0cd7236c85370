//! The serving-performance experiments: Figures 12 and 13.
//!
//! World: the paper's testbed scaled onto one machine — 100 k images (at
//! `--scale 1`), 8 searcher partitions, 2 broker groups, 2 blenders, a
//! log-normal per-hop latency and a real (slept) query-feature-extraction
//! cost at the blender — served over TCP with 4 / 8 / 12 requests in
//! service at once per searcher / broker / blender. Clients are
//! closed-loop threads (Section 3.2).
//!
//! - **Figure 12**: with vs without real-time indexing. The "with" arm
//!   runs the paper's update mix as a concurrent background stream through
//!   every searcher's real-time indexer while queries are measured.
//! - **Figure 13(a)**: thread sweep → QPS saturation curve.
//! - **Figure 13(b)**: full response-time CDF at the saturating thread
//!   count.

use std::sync::Arc;
use std::time::Duration;

use jdvs_core::IndexConfig;
use jdvs_features::cost::CostDistribution;
use jdvs_net::{AdmissionConfig, LatencyModel};
use jdvs_search::topology::TopologyConfig;
use jdvs_search::{NetServing, NetServingConfig, RankingPolicy};
use jdvs_workload::catalog::CatalogConfig;
use jdvs_workload::client::{ClosedLoopConfig, ClosedLoopDriver};
use jdvs_workload::events::{DailyPlan, DailyPlanConfig};
use jdvs_workload::queries::QueryGenerator;
use jdvs_workload::scenario::{ExtractionCost, World, WorldConfig};

use crate::report::ExperimentResult;
use crate::row;

use super::Ctx;

const DIM: usize = 32;

/// A serving world and the TCP tiers the clients query.
struct Testbed {
    world: World,
    net: NetServing,
}

/// A tier front door that only caps how many requests are in service at
/// once; its queue holds every closed-loop client, as a server's run queue
/// would.
fn concurrency(max_concurrency: usize) -> AdmissionConfig {
    AdmissionConfig {
        max_concurrency,
        queue_capacity: 1024,
        ..AdmissionConfig::default()
    }
}

fn testbed(ctx: &Ctx, realtime: bool) -> Testbed {
    let world = serving_world(ctx, realtime);
    let net = NetServing::over(
        world.topology(),
        NetServingConfig {
            searcher_admission: concurrency(4),
            broker_admission: concurrency(8),
            blender_admission: concurrency(12),
            client_deadline: Duration::from_secs(30),
        },
    )
    .expect("binding the serving tiers");
    Testbed { world, net }
}

fn serving_world(ctx: &Ctx, realtime: bool) -> World {
    // ~100k images at scale 1 (paper: "a total of 100,000 images").
    let num_products = ctx.scaled(40_000, 2_000);
    World::build(WorldConfig {
        catalog: CatalogConfig {
            num_products,
            num_clusters: 200,
            ..Default::default()
        },
        topology: TopologyConfig {
            index: IndexConfig {
                dim: DIM,
                num_lists: 128,
                nprobe: 8,
                initial_list_capacity: 64,
                ..Default::default()
            },
            num_partitions: 8,
            replicas_per_partition: 1,
            num_broker_groups: 2,
            broker_replicas: 1,
            num_blenders: 2,
            latency: LatencyModel::LogNormal {
                median: Duration::from_micros(200),
                sigma: 0.4,
            },
            realtime_indexing: realtime,
            ranking: RankingPolicy::default(),
            ..Default::default()
        },
        // Query images are extracted at the blender with a real (slept)
        // cost — the paper's dominant response-time component.
        extraction_cost: ExtractionCost::Sleep(CostDistribution::LogNormal {
            median: Duration::from_millis(8),
            sigma: 0.3,
        }),
        ..Default::default()
    })
}

fn measure(bed: &Testbed, threads: usize, window: Duration) -> jdvs_workload::client::LoadReport {
    measure_reps(bed, threads, window, 3)
}

fn measure_reps(
    bed: &Testbed,
    threads: usize,
    window: Duration,
    reps: u64,
) -> jdvs_workload::client::LoadReport {
    // Median of several windows: closed-loop throughput on a shared (often
    // single-core) host is noisy; a single bad scheduling quantum can halve
    // one window's QPS and masquerade as indexing overhead.
    let mut reports: Vec<jdvs_workload::client::LoadReport> = (0..reps)
        .map(|rep| {
            let generator =
                QueryGenerator::new(bed.world.catalog(), 0x9E + threads as u64 + rep * 7_919);
            let client = bed.net.client();
            ClosedLoopDriver::run(
                &client,
                &generator,
                bed.world.images(),
                ClosedLoopConfig {
                    threads,
                    duration: window,
                    warmup: window.mul_f64(0.2),
                    k: 6,
                },
            )
        })
        .collect();
    reports.sort_by(|a, b| {
        a.qps()
            .partial_cmp(&b.qps())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mid = reports.len() / 2;
    reports.swap_remove(mid)
}

/// Which panel of Figure 12 to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig12Metric {
    /// Figure 12(a): normalized QPS.
    Throughput,
    /// Figure 12(b): mean response time.
    ResponseTime,
}

/// Figure 12: performance with and without real-time indexing.
///
/// Measurement design: on a shared (often single-core) host, slow machine
/// drift is larger than the effect under test, so the two arms are run as
/// **paired windows** — for each repetition, one without-RT window is
/// immediately followed by one with-RT window (update stream live only
/// during it), and the overhead is taken from the **median of paired
/// ratios**, which cancels drift common to both windows. The stream rate
/// is scaled to the paper's per-core update load: 977 M updates/day ≈
/// 11.3 k/s across a 480-core searcher fleet ≈ 24 updates/s/core; we run
/// an order of magnitude above that to make the overhead measurable at
/// all.
pub fn fig12(ctx: &Ctx, metric: Fig12Metric) -> ExperimentResult {
    let window = ctx.window(Duration::from_millis(1_200));
    let thread_counts = [50usize, 100, 200];
    const STREAM_RATE: u64 = 250;
    const REPS: usize = 5;

    let off_bed = testbed(ctx, false);
    let mut on_bed = testbed(ctx, true);
    let store = Arc::clone(on_bed.world.images());
    let plan = DailyPlan::generate(
        on_bed.world.catalog_mut(),
        &store,
        &DailyPlanConfig {
            total_events: 200_000,
            ..Default::default()
        },
    );
    let events = plan.events().to_vec();

    // Per thread count: REPS paired (off, on) windows.
    let mut off = Vec::new();
    let mut on = Vec::new();
    let mut ratios = Vec::new();
    let mut published = 0u64;
    let mut cursor = 0usize;
    for &t in &thread_counts {
        let mut pairs: Vec<(
            jdvs_workload::client::LoadReport,
            jdvs_workload::client::LoadReport,
        )> = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let off_r = measure_reps(&off_bed, t, window, 1);
            let chunk_len = events.len().saturating_sub(cursor).min(10_000);
            let chunk = events[cursor..cursor + chunk_len].to_vec();
            cursor += chunk_len;
            let stream = on_bed.world.start_update_stream(chunk, STREAM_RATE);
            let on_r = measure_reps(&on_bed, t, window, 1);
            published += stream.stop();
            pairs.push((off_r, on_r));
        }
        // Median paired throughput ratio (with-RT / without-RT).
        let mut pair_ratios: Vec<f64> = pairs
            .iter()
            .map(|(o, n)| n.qps() / o.qps().max(1e-9))
            .collect();
        pair_ratios.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median_ratio = pair_ratios[pair_ratios.len() / 2];
        // Keep the median pair (by ratio) as the representative reports.
        pairs.sort_by(|a, b| {
            let ra = a.1.qps() / a.0.qps().max(1e-9);
            let rb = b.1.qps() / b.0.qps().max(1e-9);
            ra.partial_cmp(&rb).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mid = pairs.len() / 2;
        let (off_mid, on_mid) = pairs.swap_remove(mid);
        off.push(off_mid);
        on.push(on_mid);
        ratios.push(median_ratio);
    }

    let (id, title, paper) = match metric {
        Fig12Metric::Throughput => (
            "fig12a",
            "Throughput with and without real-time indexing",
            "Figure 12(a): real-time indexing costs < 10% QPS at 50/100/200 threads",
        ),
        Fig12Metric::ResponseTime => (
            "fig12b",
            "Response time with and without real-time indexing",
            "Figure 12(b): similar response times; average < 100 ms",
        ),
    };
    let mut r = ExperimentResult::new(id, title, paper);
    for (i, &threads) in thread_counts.iter().enumerate() {
        match metric {
            Fig12Metric::Throughput => {
                r.push_row(row![
                    "threads" => threads,
                    "qps_without_rt" => format!("{:.1}", off[i].qps()),
                    "qps_with_rt" => format!("{:.1}", on[i].qps()),
                    "normalized_with_rt" => format!("{:.3}", ratios[i]),
                    "overhead_%" => format!("{:.1}", 100.0 * (1.0 - ratios[i])),
                ]);
            }
            Fig12Metric::ResponseTime => {
                r.push_row(row![
                    "threads" => threads,
                    "mean_ms_without_rt" => format!("{:.1}", off[i].mean_ms()),
                    "mean_ms_with_rt" => format!("{:.1}", on[i].mean_ms()),
                    "p99_ms_with_rt" =>
                        format!("{:.1}", on[i].histogram.percentile_us(0.99) as f64 / 1e3),
                ]);
            }
        }
    }
    r.note(format!(
        "background stream published {published} update events during the with-RT arm"
    ));
    if metric == Fig12Metric::Throughput {
        let worst = ratios.iter().map(|r| 1.0 - r).fold(f64::MIN, f64::max);
        r.note(format!(
            "worst-case real-time-indexing overhead (median of {REPS} paired ratios): {:.1}% (paper: < 10%)",
            100.0 * worst
        ));
    }
    r
}

/// Figure 13(a): QPS vs client threads.
pub fn fig13a(ctx: &Ctx) -> ExperimentResult {
    let bed = testbed(ctx, true);
    let window = ctx.window(Duration::from_millis(800));
    let mut r = ExperimentResult::new(
        "fig13a",
        "Query throughput scalability (closed-loop thread sweep)",
        "Figure 13(a): QPS rises with threads and saturates (paper: ~1800 QPS)",
    );
    let sweep = if ctx.quick {
        vec![1usize, 4, 8, 16, 24, 35]
    } else {
        vec![1usize, 2, 4, 6, 8, 12, 16, 20, 24, 28, 32, 35]
    };
    let mut best = 0.0f64;
    for threads in sweep {
        let report = measure(&bed, threads, window);
        best = best.max(report.qps());
        r.push_row(row![
            "threads" => threads,
            "qps" => format!("{:.1}", report.qps()),
            "mean_ms" => format!("{:.1}", report.mean_ms()),
            "errors" => report.errors,
        ]);
    }
    r.note(format!(
        "max observed throughput: {best:.0} QPS (paper: ~1800 on 28 servers)"
    ));
    r.note("shape target: monotone rise then plateau once blender capacity saturates");
    r
}

/// Figure 13(b): response-time CDF at max throughput.
pub fn fig13b(ctx: &Ctx) -> ExperimentResult {
    let bed = testbed(ctx, true);
    let window = ctx.window(Duration::from_secs(3));
    let report = measure(&bed, 35, window);
    let mut r = ExperimentResult::new(
        "fig13b",
        "Response-time CDF at maximum throughput (35 threads)",
        "Figure 13(b): p99 ≈ 0.3 s, max ≈ 2.1 s",
    );
    // Compact the CDF to ~40 representative points.
    let cdf = report.histogram.cdf_points();
    let step = (cdf.len() / 40).max(1);
    for (i, (us, frac)) in cdf.iter().enumerate() {
        if i % step == 0 || i + 1 == cdf.len() {
            r.push_row(row![
                "latency_ms" => format!("{:.2}", *us as f64 / 1e3),
                "cdf" => format!("{:.4}", frac),
            ]);
        }
    }
    r.note(format!(
        "mean {:.1} ms, p90 {:.1} ms, p99 {:.1} ms, max {:.1} ms over {} queries",
        report.mean_ms(),
        report.histogram.percentile_us(0.90) as f64 / 1e3,
        report.histogram.percentile_us(0.99) as f64 / 1e3,
        report.histogram.max_us() as f64 / 1e3,
        report.queries,
    ));
    r
}
