//! Load generation: a closed loop and a paced open loop, each worker a
//! closure that owns its own TCP client.
//!
//! The paced loop times every operation from the instant it was *due*, so a
//! stall charges the requests queued behind it; `OpenLoopDriver` in
//! `jdvs-workload` times from issue and hides that backlog.

use std::time::{Duration, Instant};

/// One operation: given its sequence number, does it and says whether the
/// outcome was complete and correct.
pub type Worker<'a> = Box<dyn FnMut(u64) -> bool + Send + 'a>;

/// An arrival issued more than this after it was due counts as late.
const LATE: Duration = Duration::from_millis(1);

#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    /// Paced phases only: per-operation latency from the due instant, in
    /// arrival order.
    pub latencies_ms: Vec<f64>,
    /// Paced phases only: arrivals issued late.
    pub late: u64,
    /// Closed-loop phases only: correct completions per second, per window.
    pub window_rates: Vec<f64>,
}

impl Phase {
    /// Complete and correct operations per second over the whole phase.
    pub fn rate(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed_s
    }

    /// Adds a later round of the same phase (run on a freshly built world).
    pub fn absorb(&mut self, later: Phase) {
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.elapsed_s += later.elapsed_s;
        self.late += later.late;
        self.latencies_ms.extend(later.latencies_ms);
        self.window_rates.extend(later.window_rates);
    }

    /// The rate of the upper-decile window of a closed loop (the whole
    /// phase's when it is shorter than a window).
    ///
    /// The reference machine is a shared 2-vCPU VM that flips, for seconds to
    /// tens of seconds at a time, into a mode where a query over TCP takes
    /// half as long again although the program does the same work. Such
    /// interference only ever slows the program, so the undisturbed rate is
    /// read from the best windows of all rounds; a plain mean moves by up to
    /// 40% between identical runs.
    pub fn calm_rate(&self) -> f64 {
        if self.window_rates.is_empty() {
            return self.rate();
        }
        let mut rates = self.window_rates.clone();
        rates.sort_by(f64::total_cmp);
        percentile(&rates, 1.0 - CALM)
    }

    pub fn percentile_ms(&self, q: f64) -> f64 {
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, q)
    }

    /// The median latency of the lower-decile stretch of a paced phase: its
    /// latencies are cut, in arrival order, into [`STRETCHES`] equal
    /// stretches, each gives its median, and the lower decile of those is
    /// reported. Still a median over real requests at the paced rate, from
    /// their due instants: of the calm stretches, for the reason
    /// [`Phase::calm_rate`] gives. `lat_p95_ms` and `lat_p99_ms` stay over
    /// the whole phase.
    pub fn calm_p50_ms(&self) -> f64 {
        let per_stretch = self.latencies_ms.len() / STRETCHES;
        if per_stretch < 10 {
            return self.percentile_ms(0.5);
        }
        let mut medians: Vec<f64> = self
            .latencies_ms
            .chunks_exact(per_stretch)
            .map(|stretch| median(stretch.to_vec()))
            .collect();
        medians.sort_by(f64::total_cmp);
        percentile(&medians, CALM)
    }

    pub fn late_share(&self) -> f64 {
        self.late as f64 / self.attempted.max(1) as f64
    }
}

/// Nearest-rank percentile of a sorted sample (0 for an empty one).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(&values, 0.5)
}

/// Closed-loop completions are counted per window of this length.
const WINDOW: Duration = Duration::from_millis(250);
/// Stretches a paced phase is cut into for [`Phase::calm_p50_ms`].
const STRETCHES: usize = 40;
/// The share of windows or stretches taken as undisturbed.
const CALM: f64 = 0.1;

/// Every worker issues its next operation as soon as the previous one
/// returns, until `duration` has passed. Worker `w` of `n` gets sequence
/// numbers `w, w + n, ...`.
pub fn closed_loop(name: &'static str, duration: Duration, workers: Vec<Worker<'_>>) -> Phase {
    let stride = workers.len() as u64;
    let start = Instant::now();
    let deadline = start + duration;
    let counts: Vec<(u64, u64, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(w, mut op)| {
                scope.spawn(move || {
                    let (mut attempted, mut failed) = (0u64, 0u64);
                    let mut per_window = Vec::new();
                    let mut seq = w as u64;
                    while Instant::now() < deadline {
                        attempted += 1;
                        if op(seq) {
                            let window = (start.elapsed().as_nanos() / WINDOW.as_nanos()) as usize;
                            if per_window.len() <= window {
                                per_window.resize(window + 1, 0);
                            }
                            per_window[window] += 1;
                        } else {
                            failed += 1;
                        }
                        seq += stride;
                    }
                    (attempted, failed, per_window)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop worker"))
            .collect()
    });
    // Whole windows only: the last one is cut short by the deadline.
    let windows = (duration.as_nanos() / WINDOW.as_nanos()) as usize;
    let window_rates = (0..windows)
        .map(|i| {
            let done: u64 = counts
                .iter()
                .map(|c| c.2.get(i).copied().unwrap_or(0))
                .sum();
            done as f64 / WINDOW.as_secs_f64()
        })
        .collect();
    Phase {
        name,
        attempted: counts.iter().map(|c| c.0).sum(),
        failed: counts.iter().map(|c| c.1).sum(),
        elapsed_s: start.elapsed().as_secs_f64(),
        window_rates,
        ..Phase::default()
    }
}

/// Arrival `i` is due at `start + i / rate`, whatever happened to earlier
/// ones; worker `i % n` issues it (late if it is still busy) and its latency
/// runs from the due instant. Workers sleep until due rather than spin: the
/// servers share the same two cores.
pub fn paced(name: &'static str, rate: f64, duration: Duration, workers: Vec<Worker<'_>>) -> Phase {
    let stride = workers.len() as u64;
    let arrivals = (rate * duration.as_secs_f64()) as u64;
    let start = Instant::now();
    let results: Vec<(u64, u64, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(w, mut op)| {
                scope.spawn(move || {
                    let (mut failed, mut late) = (0u64, 0u64);
                    let mut latencies = Vec::new();
                    let mut seq = w as u64;
                    while seq < arrivals {
                        let due = start + Duration::from_secs_f64(seq as f64 / rate);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        if Instant::now() > due + LATE {
                            late += 1;
                        }
                        if !op(seq) {
                            failed += 1;
                        }
                        latencies.push(due.elapsed().as_secs_f64() * 1e3);
                        seq += stride;
                    }
                    (failed, late, latencies)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("paced worker"))
            .collect()
    });
    // Back into arrival order: worker `w` issued arrivals `w, w + n, ...`.
    let longest = results.iter().map(|r| r.2.len()).max().unwrap_or(0);
    let latencies_ms: Vec<f64> = (0..longest)
        .flat_map(|j| results.iter().filter_map(move |r| r.2.get(j).copied()))
        .collect();
    Phase {
        name,
        attempted: latencies_ms.len() as u64,
        failed: results.iter().map(|r| r.0).sum(),
        elapsed_s: start.elapsed().as_secs_f64(),
        latencies_ms,
        late: results.iter().map(|r| r.1).sum(),
        window_rates: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn paced_latency_runs_from_the_due_instant() {
        // One worker, 100 arrivals/s, every operation takes 25 ms: the
        // backlog grows by 15 ms per arrival, and latency from due must
        // show it although each operation alone takes 25 ms.
        let op: Worker<'_> = Box::new(|_| {
            std::thread::sleep(Duration::from_millis(25));
            true
        });
        let phase = paced("t", 100.0, Duration::from_millis(100), vec![op]);
        assert_eq!(phase.attempted, 10);
        assert!(phase.latencies_ms[9] > 100.0, "{:?}", phase.latencies_ms);
        assert!(phase.late >= 8);
    }

    #[test]
    fn calm_statistics_set_disturbed_stretches_aside() {
        // 400 requests at 1 ms, but the third quarter of the phase at 3 ms.
        let latencies_ms = (0..400)
            .map(|i| if (200..300).contains(&i) { 3.0 } else { 1.0 })
            .collect();
        let phase = Phase {
            latencies_ms,
            window_rates: vec![100.0, 100.0, 60.0, 100.0],
            ..Phase::default()
        };
        assert_eq!(phase.calm_p50_ms(), 1.0);
        assert_eq!(phase.percentile_ms(0.8), 3.0);
        assert_eq!(phase.calm_rate(), 100.0);
    }
}
