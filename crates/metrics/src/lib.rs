//! # jdvs-metrics
//!
//! Measurement infrastructure for the jdvs visual search system: log-linear
//! latency histograms (percentiles and CDFs for Figures 11(b), 12(b) and
//! 13(b)), monotonic counters and hourly time series (Figure 11(a)).
//!
//! All shared collectors are thread-safe: the workload drivers run dozens of
//! closed-loop client threads that record into shared recorders.
//!
//! ## Example
//!
//! ```
//! use jdvs_metrics::Histogram;
//! use std::time::Duration;
//!
//! let mut h = Histogram::new();
//! for ms in [1u64, 2, 3, 100] {
//!     h.record(Duration::from_millis(ms));
//! }
//! assert_eq!(h.count(), 4);
//! assert!(h.percentile(0.5) <= h.percentile(0.99));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod counter;
pub mod durability;
pub mod gauge;
pub mod histogram;
pub mod resilience;
pub mod serving;
pub mod timeseries;

pub use counter::Counter;
pub use durability::{DurabilityMetrics, DurabilitySnapshot};
pub use gauge::Gauge;
pub use histogram::{Histogram, SharedHistogram};
pub use resilience::{ResilienceMetrics, ResilienceSnapshot};
pub use serving::{ServingMetrics, ServingSnapshot};
pub use timeseries::{HourlySeries, HOURS_PER_DAY};
