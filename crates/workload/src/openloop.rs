//! The open-loop query driver (overload experiments).
//!
//! The closed-loop driver ([`crate::client`]) can never push a system past
//! saturation: each emulated user waits for a response before sending the
//! next query, so offered load self-throttles exactly when the system
//! slows down — the failure mode *coordinated omission* hides. Overload
//! experiments need the opposite: arrivals on a fixed schedule that does
//! not care how the system is doing, like real traffic. This driver
//! schedules arrival `n` at `start + n / rate` and issues it as close to
//! that instant as the worker pool allows, whether or not earlier requests
//! have completed. Driving `rate` past capacity is the whole point: a
//! well-behaved serving tier sheds the excess at admission (fast
//! `Overloaded` replies) and keeps goodput near capacity with bounded
//! latency for the requests it accepts.
//!
//! The driver is closure-driven so it can front anything callable — a
//! [`jdvs_search::SearchClient`], a bare [`jdvs_net::TcpChannel`], or a
//! stub in tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jdvs_metrics::histogram::{Histogram, SharedHistogram};
use serde::{Deserialize, Serialize};

/// How one open-loop request ended, as classified by the caller's closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenLoopOutcome {
    /// The request was admitted and answered (counts toward goodput).
    Accepted,
    /// The request was deliberately rejected by admission control
    /// (`Overloaded`) — the system protecting itself, not a fault.
    Shed,
    /// The request failed or timed out.
    Failed,
}

/// Open-loop run parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpenLoopConfig {
    /// Arrival rate in requests per second.
    pub rate: f64,
    /// Length of the arrival schedule.
    pub duration: Duration,
    /// Worker threads issuing the scheduled arrivals. Size this above
    /// `rate × worst-case latency`, or arrivals queue behind slow calls
    /// and show up in [`OpenLoopReport::late`].
    pub workers: usize,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        Self {
            rate: 200.0,
            duration: Duration::from_secs(2),
            workers: 16,
        }
    }
}

/// The outcome of one open-loop run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpenLoopReport {
    /// Arrivals the schedule offered (every one was issued).
    pub offered: u64,
    /// Requests admitted and answered.
    pub accepted: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests that failed or timed out.
    pub failed: u64,
    /// Arrivals issued more than 1 ms behind schedule (worker pool fell
    /// behind; the run is still open-loop but the offered rate sagged).
    pub late: u64,
    /// Wall clock from first scheduled arrival to last completion.
    pub elapsed: Duration,
    /// Latency distribution of accepted requests.
    pub accepted_latency: Histogram,
    /// Latency distribution of shed requests (should be fast: shedding
    /// that costs as much as serving defeats its purpose).
    pub shed_latency: Histogram,
}

impl OpenLoopReport {
    /// Accepted requests per second over the run (goodput).
    pub fn goodput(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.accepted as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Offered requests per second over the run.
    pub fn offered_rate(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.offered as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Fraction of arrivals shed, in `[0, 1]`.
    pub fn shed_ratio(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }

    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "offered={:.0}/s goodput={:.0}/s shed={} failed={} late={} accepted[{}] shed[{}]",
            self.offered_rate(),
            self.goodput(),
            self.shed,
            self.failed,
            self.late,
            self.accepted_latency.summary(),
            self.shed_latency.summary(),
        )
    }
}

/// One point of an offered-load sweep: the rate that was offered and what
/// the system under test did with it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RateSweepPoint {
    /// Offered arrival rate of this point (requests per second).
    pub rate: f64,
    /// The full open-loop report measured at that rate.
    pub report: OpenLoopReport,
}

/// Runs open-loop load; see the module docs.
#[derive(Debug)]
pub struct OpenLoopDriver;

impl OpenLoopDriver {
    /// Issues arrivals at `config.rate` for `config.duration`, calling
    /// `op` once per arrival from a pool of `config.workers` threads.
    /// `op` performs one request and classifies how it ended.
    ///
    /// # Panics
    ///
    /// Panics if `config.rate` is not positive-finite or
    /// `config.workers == 0`.
    pub fn run<F>(config: OpenLoopConfig, op: F) -> OpenLoopReport
    where
        F: Fn() -> OpenLoopOutcome + Sync,
    {
        assert!(
            config.rate.is_finite() && config.rate > 0.0,
            "rate must be positive"
        );
        assert!(config.workers > 0, "workers must be positive");
        let interval = Duration::from_secs_f64(1.0 / config.rate);
        let total = (config.duration.as_secs_f64() * config.rate).floor() as u64;
        let next = AtomicU64::new(0);
        let accepted = AtomicU64::new(0);
        let shed = AtomicU64::new(0);
        let failed = AtomicU64::new(0);
        let late = AtomicU64::new(0);
        let accepted_latency = Arc::new(SharedHistogram::new());
        let shed_latency = Arc::new(SharedHistogram::new());
        let start = Instant::now();

        std::thread::scope(|scope| {
            for _ in 0..config.workers {
                let op = &op;
                let next = &next;
                let accepted = &accepted;
                let shed = &shed;
                let failed = &failed;
                let late = &late;
                let accepted_latency = Arc::clone(&accepted_latency);
                let shed_latency = Arc::clone(&shed_latency);
                scope.spawn(move || loop {
                    // Claim the next slot of the global arrival schedule.
                    let n = next.fetch_add(1, Ordering::Relaxed);
                    if n >= total {
                        return;
                    }
                    let due = start + interval.mul_f64(n as f64);
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    } else if now - due > Duration::from_millis(1) {
                        // All workers were busy when this arrival came due:
                        // issue it anyway (open loop), but record the sag.
                        late.fetch_add(1, Ordering::Relaxed);
                    }
                    let issued = Instant::now();
                    match op() {
                        OpenLoopOutcome::Accepted => {
                            accepted_latency.record(issued.elapsed());
                            accepted.fetch_add(1, Ordering::Relaxed);
                        }
                        OpenLoopOutcome::Shed => {
                            shed_latency.record(issued.elapsed());
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        OpenLoopOutcome::Failed => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });

        OpenLoopReport {
            offered: total,
            accepted: accepted.into_inner(),
            shed: shed.into_inner(),
            failed: failed.into_inner(),
            late: late.into_inner(),
            elapsed: start.elapsed(),
            accepted_latency: accepted_latency.snapshot(),
            shed_latency: shed_latency.snapshot(),
        }
    }

    /// Sweeps the offered rate across `rates`, running one open-loop pass
    /// per point with `base`'s duration and worker pool. The resulting
    /// goodput-vs-offered curve is the standard overload picture: goodput
    /// tracks the offered rate up to capacity, then plateaus while
    /// admission control sheds the excess.
    ///
    /// Points run in ascending-rate order exactly as given; the system
    /// under test keeps its state (warmed caches, pools) across points,
    /// matching how a real load test is driven.
    ///
    /// # Panics
    ///
    /// Panics if any rate is not positive-finite or `base.workers == 0`.
    pub fn sweep<F>(rates: &[f64], base: OpenLoopConfig, op: F) -> Vec<RateSweepPoint>
    where
        F: Fn() -> OpenLoopOutcome + Sync,
    {
        rates
            .iter()
            .map(|&rate| RateSweepPoint {
                rate,
                report: Self::run(OpenLoopConfig { rate, ..base }, &op),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Calls;

    #[test]
    fn issues_every_scheduled_arrival() {
        let calls = Calls::new(0);
        let report = OpenLoopDriver::run(
            OpenLoopConfig {
                rate: 500.0,
                duration: Duration::from_millis(200),
                workers: 4,
            },
            || {
                calls.fetch_add(1, Ordering::Relaxed);
                OpenLoopOutcome::Accepted
            },
        );
        assert_eq!(report.offered, 100);
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(report.accepted, 100);
        assert_eq!(report.accepted_latency.count(), 100);
        assert_eq!(report.shed + report.failed, 0);
        assert!(report.goodput() > 0.0);
    }

    #[test]
    fn classifies_outcomes_and_keeps_offering_under_slowness() {
        // A "server" that takes 5 ms per call and sheds every third
        // request: at 400/s with 2 workers the pool saturates (capacity
        // 2/5ms = 400/s exactly, minus scheduling overhead), yet every
        // arrival must still be issued — late, not dropped.
        let calls = Calls::new(0);
        let report = OpenLoopDriver::run(
            OpenLoopConfig {
                rate: 400.0,
                duration: Duration::from_millis(250),
                workers: 2,
            },
            || {
                let n = calls.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
                if n % 3 == 2 {
                    OpenLoopOutcome::Shed
                } else {
                    OpenLoopOutcome::Failed
                }
            },
        );
        assert_eq!(report.offered, 100);
        assert_eq!(report.accepted, 0);
        assert_eq!(report.shed + report.failed, 100);
        assert!(report.shed >= 30, "roughly a third shed: {}", report.shed);
        assert_eq!(report.shed_latency.count(), report.shed);
        assert!(report.shed_ratio() > 0.25);
    }

    #[test]
    fn sweep_runs_every_rate_in_order() {
        let calls = Calls::new(0);
        let points = OpenLoopDriver::sweep(
            &[100.0, 300.0],
            OpenLoopConfig {
                duration: Duration::from_millis(100),
                workers: 4,
                ..Default::default()
            },
            || {
                calls.fetch_add(1, Ordering::Relaxed);
                OpenLoopOutcome::Accepted
            },
        );
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].rate, 100.0);
        assert_eq!(points[1].rate, 300.0);
        assert_eq!(points[0].report.offered, 10);
        assert_eq!(points[1].report.offered, 30);
        assert_eq!(calls.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn report_math() {
        let r = OpenLoopReport {
            offered: 200,
            accepted: 100,
            shed: 80,
            failed: 20,
            late: 0,
            elapsed: Duration::from_secs(2),
            accepted_latency: Histogram::new(),
            shed_latency: Histogram::new(),
        };
        assert!((r.goodput() - 50.0).abs() < 1e-9);
        assert!((r.offered_rate() - 100.0).abs() < 1e-9);
        assert!((r.shed_ratio() - 0.4).abs() < 1e-9);
        assert!(r.summary().contains("goodput=50"));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        let _ = OpenLoopDriver::run(
            OpenLoopConfig {
                rate: 0.0,
                ..Default::default()
            },
            || OpenLoopOutcome::Accepted,
        );
    }
}
