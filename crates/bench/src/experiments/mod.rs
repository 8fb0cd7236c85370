//! Experiment registry: one module per paper table/figure + ablations.
//!
//! | id | paper content | module |
//! |---|---|---|
//! | `table1` | daily update counts by type | [`day`] |
//! | `fig11a` | hourly real-time index update rates | [`day`] |
//! | `fig11b` | per-hour update latency (avg/p90/p99) | [`day`] |
//! | `fig12a` | QPS with vs without real-time indexing | [`serving`] |
//! | `fig12b` | response time with vs without real-time indexing | [`serving`] |
//! | `fig13a` | QPS vs client threads (saturation) | [`serving`] |
//! | `fig13b` | response-time CDF at max throughput | [`serving`] |
//! | `fig14` | qualitative search examples | [`examples_fig`] |
//! | `ablate-reuse` | feature-reuse on/off | [`ablations`] |
//! | `ablate-bitmap` | bitmap logical deletion vs physical rebuild | [`ablations`] |
//! | `ablate-expansion` | background vs inline list expansion | [`ablations`] |
//! | `ablate-nprobe` | recall/latency vs probe count | [`ablations`] |
//! | `ablate-pq` | raw vs product-quantized scan | [`ablations`] |
//! | `ablate-lsh` | IVF vs multi-probe LSH baseline | [`ablations`] |
//! | `ablate-cache` | blender query-feature cache on/off | [`ablations`] |
//! | `searcher-scan` | block execution engine vs per-id scalar scan | [`scan`] |
//! | `filtered` | attribute-filter pushdown vs post-filter + escalation fill | [`filtered`] |
//! | `recovery` | durable-log append throughput + crash-recovery time | [`recovery`] |
//! | `serving` | goodput under ~3x overload through the TCP tiers | [`overload`] |
//! | `lifecycle` | replica bootstrap time vs log-suffix length + split cost | [`lifecycle`] |
//! | `coarse` | hierarchical coarse quantizer vs flat centroid scan | [`coarse`] |

pub mod ablations;
pub mod coarse;
pub mod day;
pub mod examples_fig;
pub mod filtered;
pub mod lifecycle;
pub mod overload;
pub mod recovery;
pub mod scan;
pub mod serving;

use std::path::PathBuf;

use crate::report::ExperimentResult;

/// Shared experiment context (CLI flags).
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Multiplies dataset/event sizes (1.0 = paper-scaled defaults).
    pub scale: f64,
    /// Shorter measurement windows for smoke runs.
    pub quick: bool,
    /// Where JSON results are written.
    pub out_dir: PathBuf,
}

impl Default for Ctx {
    fn default() -> Self {
        Self {
            scale: 1.0,
            quick: false,
            out_dir: PathBuf::from("bench_results"),
        }
    }
}

impl Ctx {
    /// Scales a count, keeping at least `min`.
    pub fn scaled(&self, base: usize, min: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(min)
    }

    /// Measurement window: `full` normally, 40% of it under `--quick`.
    pub fn window(&self, full: std::time::Duration) -> std::time::Duration {
        if self.quick {
            full.mul_f64(0.4)
        } else {
            full
        }
    }
}

/// All experiment ids, in run order.
pub const ALL: &[&str] = &[
    "table1",
    "fig11a",
    "fig11b",
    "fig12a",
    "fig12b",
    "fig13a",
    "fig13b",
    "fig14",
    "ablate-reuse",
    "ablate-bitmap",
    "ablate-expansion",
    "ablate-nprobe",
    "ablate-pq",
    "ablate-lsh",
    "ablate-cache",
    "searcher-scan",
    "filtered",
    "recovery",
    "serving",
    "lifecycle",
    "coarse",
];

/// Runs one experiment by id.
///
/// # Panics
///
/// Panics on an unknown id (the CLI validates first).
pub fn run(id: &str, ctx: &Ctx) -> Vec<ExperimentResult> {
    match id {
        "table1" => vec![day::table1(ctx)],
        "fig11a" => vec![day::fig11a(ctx)],
        "fig11b" => vec![day::fig11b(ctx)],
        "fig12a" => vec![serving::fig12(ctx, serving::Fig12Metric::Throughput)],
        "fig12b" => vec![serving::fig12(ctx, serving::Fig12Metric::ResponseTime)],
        "fig13a" => vec![serving::fig13a(ctx)],
        "fig13b" => vec![serving::fig13b(ctx)],
        "fig14" => vec![examples_fig::fig14(ctx)],
        "ablate-reuse" => vec![ablations::reuse(ctx)],
        "ablate-bitmap" => vec![ablations::bitmap(ctx)],
        "ablate-expansion" => vec![ablations::expansion(ctx)],
        "ablate-nprobe" => vec![ablations::nprobe(ctx)],
        "ablate-pq" => vec![ablations::pq(ctx)],
        "ablate-lsh" => vec![ablations::lsh(ctx)],
        "ablate-cache" => vec![ablations::cache(ctx)],
        "searcher-scan" => vec![scan::searcher_scan(ctx)],
        "filtered" => vec![filtered::filtered(ctx)],
        "recovery" => vec![recovery::recovery(ctx)],
        "serving" => vec![overload::serving_overload(ctx)],
        "lifecycle" => vec![lifecycle::lifecycle(ctx)],
        "coarse" => vec![coarse::coarse(ctx)],
        other => panic!("unknown experiment id {other:?}"),
    }
}
