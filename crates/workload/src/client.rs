//! The closed-loop query driver (Section 3.2's client machine).
//!
//! *"The client machine emulates a different number of concurrent users by
//! sending image query requests to the visual search system."* Closed loop
//! means each emulated user issues a query, waits for the response, and
//! immediately issues the next — so offered load rises with the thread
//! count until the system saturates (the knee of Figure 13(a)).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jdvs_metrics::histogram::{Histogram, SharedHistogram};
use jdvs_search::serving::NetClient;
use jdvs_storage::ImageStore;
use serde::{Deserialize, Serialize};

use crate::queries::QueryGenerator;

/// Closed-loop run parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClosedLoopConfig {
    /// Concurrent emulated users.
    pub threads: usize,
    /// Measured run length.
    pub duration: Duration,
    /// Unmeasured warmup before the run.
    pub warmup: Duration,
    /// Results per query.
    pub k: usize,
}

impl Default for ClosedLoopConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            duration: Duration::from_secs(2),
            warmup: Duration::from_millis(200),
            k: 6,
        }
    }
}

/// The outcome of one closed-loop run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadReport {
    /// Threads used.
    pub threads: usize,
    /// Successful queries in the measured window.
    pub queries: u64,
    /// Failed queries (RPC errors / timeouts).
    pub errors: u64,
    /// Measured wall-clock window.
    pub elapsed: Duration,
    /// Latency distribution of successful queries.
    pub histogram: Histogram,
}

impl LoadReport {
    /// Queries per second over the measured window.
    pub fn qps(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.queries as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Mean response time in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.histogram.mean_us() / 1e3
    }

    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "threads={} qps={:.1} errors={} {}",
            self.threads,
            self.qps(),
            self.errors,
            self.histogram.summary()
        )
    }
}

/// Runs closed-loop load; see the module docs.
#[derive(Debug)]
pub struct ClosedLoopDriver;

impl ClosedLoopDriver {
    /// Drives `config.threads` closed-loop users against `client` with
    /// queries minted by `generator` into `store`. Returns the measured-
    /// window report (warmup excluded).
    ///
    /// # Panics
    ///
    /// Panics if `config.threads == 0` or `config.k == 0`.
    pub fn run(
        client: &NetClient,
        generator: &QueryGenerator,
        store: &ImageStore,
        config: ClosedLoopConfig,
    ) -> LoadReport {
        assert!(config.threads > 0, "threads must be positive");
        assert!(config.k > 0, "k must be positive");
        let histogram = Arc::new(SharedHistogram::new());
        let queries = Arc::new(AtomicU64::new(0));
        let errors = Arc::new(AtomicU64::new(0));
        let measuring = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));

        let measured_elapsed = std::thread::scope(|scope| {
            for _ in 0..config.threads {
                let client = client.clone();
                let histogram = Arc::clone(&histogram);
                let queries = Arc::clone(&queries);
                let errors = Arc::clone(&errors);
                let measuring = Arc::clone(&measuring);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let (query, _) = generator.next_query(store, config.k);
                        let start = Instant::now();
                        let result = client.search(query);
                        let latency = start.elapsed();
                        if !measuring.load(Ordering::Relaxed) {
                            continue;
                        }
                        match result {
                            Ok(_) => {
                                histogram.record(latency);
                                queries.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
            std::thread::sleep(config.warmup);
            measuring.store(true, Ordering::SeqCst);
            let measured_start = Instant::now();
            std::thread::sleep(config.duration);
            measuring.store(false, Ordering::SeqCst);
            let elapsed = measured_start.elapsed();
            stop.store(true, Ordering::SeqCst);
            elapsed
        });

        LoadReport {
            threads: config.threads,
            queries: queries.load(Ordering::Relaxed),
            errors: errors.load(Ordering::Relaxed),
            elapsed: measured_elapsed,
            histogram: histogram.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, CatalogConfig};
    use crate::scenario::{World, WorldConfig};

    #[test]
    fn load_report_math() {
        let mut h = Histogram::new();
        h.record_us(1_000);
        h.record_us(3_000);
        let r = LoadReport {
            threads: 2,
            queries: 100,
            errors: 1,
            elapsed: Duration::from_secs(2),
            histogram: h,
        };
        assert!((r.qps() - 50.0).abs() < 1e-9);
        assert!((r.mean_ms() - 2.0).abs() < 1e-9);
        assert!(r.summary().contains("qps=50.0"));
    }

    #[test]
    fn zero_elapsed_reports_zero_qps() {
        let r = LoadReport {
            threads: 1,
            queries: 5,
            errors: 0,
            elapsed: Duration::ZERO,
            histogram: Histogram::new(),
        };
        assert_eq!(r.qps(), 0.0);
    }

    #[test]
    fn driver_measures_a_small_world() {
        let world = World::build(WorldConfig {
            catalog: CatalogConfig {
                num_products: 60,
                num_clusters: 6,
                ..Default::default()
            },
            ..WorldConfig::fast_test()
        });
        let generator = QueryGenerator::new(world.catalog(), 9);
        let client = world.client(Duration::from_secs(5));
        let report = ClosedLoopDriver::run(
            &client,
            &generator,
            world.images(),
            ClosedLoopConfig {
                threads: 2,
                duration: Duration::from_millis(300),
                warmup: Duration::from_millis(50),
                k: 3,
            },
        );
        assert!(report.queries > 0, "some queries must complete");
        assert_eq!(report.errors, 0);
        assert!(report.qps() > 0.0);
        assert!(report.histogram.count() == report.queries);
        let _ = Catalog::generate(&CatalogConfig::default()); // silence unused import lints in some cfgs
    }

    #[test]
    #[should_panic(expected = "threads must be positive")]
    fn zero_threads_panics() {
        let world = World::build(WorldConfig::fast_test());
        let generator = QueryGenerator::new(world.catalog(), 9);
        let client = world.client(Duration::from_secs(1));
        ClosedLoopDriver::run(
            &client,
            &generator,
            world.images(),
            ClosedLoopConfig {
                threads: 0,
                ..Default::default()
            },
        );
    }
}
