//! The serving-tier overload experiment: the three tiers on real TCP
//! sockets, driven open-loop past saturation.
//!
//! Not a paper figure: the paper reports steady-state QPS and latency
//! (Figures 12–13) but never publishes overload behavior. This experiment
//! prices the admission-control front door the reproduction adds: when
//! offered load is ~3x sustained capacity, goodput must hold (>= 80% of
//! capacity) and the excess must be answered by fast `Overloaded` sheds at
//! admission instead of queueing into collapse.
//!
//! Protocol:
//!
//! 1. **Capacity probe** — drive the blender tier open-loop at 2x its
//!    configured token rate. Admission clips the excess, so the accepted
//!    rate *is* the sustained capacity `C`.
//! 2. **Overload run** — drive at 3x `C`. Record goodput, the
//!    goodput/capacity ratio, shed latency (p50/p99) and the coverage
//!    identity (`ok + timed_out + failed + shed == total`) on every
//!    accepted response.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use jdvs_net::admission::AdmissionConfig;
use jdvs_net::rpc::RpcError;
use jdvs_search::{NetServing, NetServingConfig};
use jdvs_workload::openloop::{
    OpenLoopConfig, OpenLoopDriver, OpenLoopOutcome, OpenLoopReport, RateSweepPoint,
};
use jdvs_workload::queries::QueryGenerator;
use jdvs_workload::scenario::{World, WorldConfig};

use crate::report::ExperimentResult;
use crate::row;

use super::Ctx;

/// Token rate configured at the blender front door: the deliberate
/// bottleneck, set well below what the fan-out path can serve so the
/// capacity probe measures admission, not the host's CPU of the day.
const BLENDER_RATE: f64 = 300.0;

fn overload_world(ctx: &Ctx) -> WorldConfig {
    let mut config = WorldConfig::default();
    config.catalog.num_products = ctx.scaled(400, 60);
    config.catalog.num_clusters = 8;
    config.topology.index.dim = 16;
    config.topology.index.num_lists = 8;
    config.topology.index.nprobe = 4;
    config.topology.num_partitions = 4;
    config.topology.replicas_per_partition = 1;
    config.topology.num_broker_groups = 2;
    config.topology.broker_replicas = 1;
    // One blender so capacity has one front door to meter.
    config.topology.num_blenders = 1;
    config.topology.ranking = jdvs_search::RankingPolicy::similarity_only();
    config.seed = 0x0_5EED_10AD;
    config
}

fn drive(
    serving: &NetServing,
    world: &World,
    generator: &QueryGenerator,
    rate: f64,
    window: Duration,
    workers: usize,
    violations: &AtomicU64,
) -> OpenLoopReport {
    let client = serving.client();
    OpenLoopDriver::run(
        OpenLoopConfig {
            rate,
            duration: window,
            workers,
        },
        || {
            let (query, _) = generator.next_query(world.images(), 5);
            match client.search(query) {
                Ok(resp) => {
                    if resp.partitions_ok
                        + resp.partitions_timed_out
                        + resp.partitions_failed
                        + resp.partitions_shed
                        != resp.partitions_total
                    {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                    OpenLoopOutcome::Accepted
                }
                Err(RpcError::Overloaded) => OpenLoopOutcome::Shed,
                Err(_) => OpenLoopOutcome::Failed,
            }
        },
    )
}

fn push_phase(result: &mut ExperimentResult, phase: &str, report: &OpenLoopReport) {
    result.push_row(row![
        "phase" => phase,
        "offered_per_sec" => format!("{:.0}", report.offered_rate()),
        "goodput_per_sec" => format!("{:.0}", report.goodput()),
        "accepted" => report.accepted,
        "shed" => report.shed,
        "failed" => report.failed,
        "late_arrivals" => report.late,
        "accepted_p50_ms" => format!("{:.1}", report.accepted_latency.percentile(0.50).as_secs_f64() * 1e3),
        "accepted_p99_ms" => format!("{:.1}", report.accepted_latency.percentile(0.99).as_secs_f64() * 1e3),
        "shed_p50_ms" => format!("{:.1}", report.shed_latency.percentile(0.50).as_secs_f64() * 1e3),
        "shed_p99_ms" => format!("{:.1}", report.shed_latency.percentile(0.99).as_secs_f64() * 1e3),
    ]);
}

/// `serving`: goodput under ~3x overload through the TCP serving tier.
pub fn serving_overload(ctx: &Ctx) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "serving",
        "Serving tier under overload: admission control and graceful degradation",
        "not in paper — overload behavior of the Section 3.2 serving path",
    );

    let world = World::build(overload_world(ctx));
    let serving = NetServing::over(
        world.topology(),
        NetServingConfig {
            blender_admission: AdmissionConfig {
                rate_limit: Some(BLENDER_RATE),
                burst: 32,
                max_concurrency: 8,
                queue_capacity: 64,
                ..AdmissionConfig::default()
            },
            ..NetServingConfig::default()
        },
    )
    .expect("bind serving tiers");
    let generator = QueryGenerator::new(world.catalog(), 31);
    let violations = AtomicU64::new(0);

    // Phase 1: capacity probe at 2x the configured token rate.
    let probe = drive(
        &serving,
        &world,
        &generator,
        BLENDER_RATE * 2.0,
        ctx.window(Duration::from_secs(3)),
        16,
        &violations,
    );
    let capacity = probe.goodput();
    push_phase(&mut result, "capacity-probe", &probe);

    // Phase 1b: goodput-vs-offered curve. Sweep the offered rate from
    // well under capacity to deep overload; the curve should track the
    // offered rate up to capacity and plateau there while the shed ratio
    // climbs — the signature of graceful (not collapsing) degradation.
    let sweep_rates: Vec<f64> = [0.5, 0.8, 1.0, 1.5, 2.0, 3.0]
        .iter()
        .map(|f| (capacity * f).max(10.0))
        .collect();
    let sweep_client = serving.client();
    let sweep: Vec<RateSweepPoint> = OpenLoopDriver::sweep(
        &sweep_rates,
        OpenLoopConfig {
            rate: 1.0, // overridden per point
            duration: ctx.window(Duration::from_millis(1500)),
            workers: 24,
        },
        || {
            let (query, _) = generator.next_query(world.images(), 5);
            match sweep_client.search(query) {
                Ok(resp) => {
                    if resp.partitions_ok
                        + resp.partitions_timed_out
                        + resp.partitions_failed
                        + resp.partitions_shed
                        != resp.partitions_total
                    {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                    OpenLoopOutcome::Accepted
                }
                Err(RpcError::Overloaded) => OpenLoopOutcome::Shed,
                Err(_) => OpenLoopOutcome::Failed,
            }
        },
    );
    for point in &sweep {
        result.push_row(row![
            "phase" => "rate-sweep",
            "offered_per_sec" => format!("{:.0}", point.report.offered_rate()),
            "offered_over_capacity" => format!("{:.2}", point.rate / capacity.max(1e-9)),
            "goodput_per_sec" => format!("{:.0}", point.report.goodput()),
            "shed_ratio" => format!("{:.2}", point.report.shed_ratio()),
            "failed" => point.report.failed,
            "accepted_p50_ms" => format!("{:.1}", point.report.accepted_latency.percentile(0.50).as_secs_f64() * 1e3),
            "accepted_p99_ms" => format!("{:.1}", point.report.accepted_latency.percentile(0.99).as_secs_f64() * 1e3),
        ]);
    }

    // Phase 2: sustained ~3x overload.
    let overload = drive(
        &serving,
        &world,
        &generator,
        capacity * 3.0,
        ctx.window(Duration::from_secs(4)),
        24,
        &violations,
    );
    push_phase(&mut result, "overload-3x", &overload);

    // With hedging on (the topology's default), a late primary racing its hedge must still
    // account each partition exactly once. This is a correctness property,
    // not a measurement — fail loudly rather than record a bad row.
    assert_eq!(
        violations.load(Ordering::Relaxed),
        0,
        "hedged serving violated partitions_ok + timed_out + failed + shed == total"
    );

    let ratio = if capacity > 0.0 {
        overload.goodput() / capacity
    } else {
        0.0
    };
    result.push_row(row![
        "phase" => "verdict",
        "capacity_per_sec" => format!("{:.0}", capacity),
        "goodput_ratio" => format!("{:.2}", ratio),
        "goodput_holds_80pct" => (ratio >= 0.8).to_string(),
        "shed_ratio_at_3x" => format!("{:.2}", overload.shed_ratio()),
        "accounting_violations" => violations.load(Ordering::Relaxed),
    ]);
    result.note(format!(
        "capacity probed at 2x the {BLENDER_RATE:.0}/s token rate (admission clips, so accepted \
         rate = sustained capacity); the rate-sweep rows trace the goodput-vs-offered curve from \
         0.5x to 3x capacity; the overload phase offers 3x capacity open-loop. Goodput held \
         {:.0}% of capacity; every shed was answered at admission (p99 {:.1} ms) and {} accepted \
         responses violated the coverage identity.",
        ratio * 100.0,
        overload.shed_latency.percentile(0.99).as_secs_f64() * 1e3,
        violations.load(Ordering::Relaxed),
    ));
    result
}
