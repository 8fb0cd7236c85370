//! # jdvs-bench
//!
//! The benchmark harness: one experiment per table/figure of the paper's
//! evaluation (Section 3) plus the ablations DESIGN.md calls out. The
//! `repro` binary dispatches to [`experiments`]; the criterion benches
//! under `benches/` cover the micro-level (distance kernels, inverted-list
//! appends, forward-index updates, k-means, top-k, queue throughput).
//!
//! Run everything:
//!
//! ```sh
//! cargo run --release -p jdvs-bench --bin repro -- all
//! ```
//!
//! Results print as human-readable tables and are also dumped as JSON
//! under `bench_results/` for EXPERIMENTS.md bookkeeping.

pub mod baselines;
pub mod experiments;
pub mod report;

pub use report::{ExperimentResult, Row};
