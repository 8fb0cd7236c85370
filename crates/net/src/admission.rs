//! Admission control for a serving tier: token-bucket rate limiting, a
//! bounded admission queue with deadline-aware load shedding, and a
//! per-tier concurrency limit.
//!
//! The controller sits at the front door of a [`crate::tcp::TcpTier`] and
//! decides the fate of each request *before* its body is decoded:
//!
//! 1. **Drain check** — a draining tier sheds everything new immediately.
//! 2. **Rate limit** — a token bucket caps the sustained admission rate
//!    while allowing short bursts; requests beyond the rate are shed with
//!    [`ShedReason::RateLimited`].
//! 3. **Queue bound + deadline check** — admitted requests wait for a
//!    concurrency slot. The wait is bounded: if the queue is full the
//!    request is shed ([`ShedReason::QueueFull`]); if the request's
//!    remaining budget cannot plausibly cover the estimated queue wait
//!    (EWMA of recent service times × queue depth), it is shed *now* with
//!    [`ShedReason::DeadlineHopeless`] instead of timing out later after
//!    wasting a slot.
//!
//! Shedding is deliberate and fast — the caller gets an `Overloaded`
//! response in microseconds, keeping goodput near capacity when offered
//! load far exceeds it (the paper's Figure 12 regime is the motivating
//! scenario: 3× capacity bursts on promotion days).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use jdvs_metrics::ServingMetrics;

pub use crate::frame::ShedReason;

/// Tuning knobs for one tier's [`AdmissionController`].
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Sustained admission rate in requests/second; `None` disables rate
    /// limiting.
    pub rate_limit: Option<f64>,
    /// Token-bucket burst size (maximum tokens banked while idle).
    pub burst: u32,
    /// Maximum requests allowed to wait for a concurrency slot before new
    /// arrivals are shed with [`ShedReason::QueueFull`].
    pub queue_capacity: usize,
    /// Maximum requests being served concurrently.
    pub max_concurrency: usize,
    /// Requests arriving with less remaining budget than this are shed as
    /// hopeless without queueing.
    pub min_budget: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            rate_limit: None,
            burst: 64,
            queue_capacity: 128,
            max_concurrency: 8,
            min_budget: Duration::from_micros(200),
        }
    }
}

/// EWMA smoothing factor for the service-time estimate.
const SERVICE_EWMA_ALPHA: f64 = 0.2;

struct Slots {
    in_flight: usize,
    queued: usize,
}

/// The admission state machine guarding one tier.
///
/// Thread-safe and shared (via `Arc`) by every connection handler of the
/// tier. See the module docs for the decision sequence.
pub struct AdmissionController {
    config: AdmissionConfig,
    metrics: Arc<ServingMetrics>,
    // Token bucket: tokens scaled by 1e6 so the bucket can be refilled
    // fractionally under a mutex-free fast path is not needed — a mutex is
    // fine at the request rates the tier sees.
    bucket: Mutex<TokenBucket>,
    slots: Mutex<Slots>,
    slot_freed: Condvar,
    /// EWMA of observed service time, in nanoseconds (0 = no estimate yet).
    service_ns: AtomicU64,
    draining: AtomicBool,
    started: Instant,
}

struct TokenBucket {
    tokens: f64,
    last_refill: Duration,
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let slots = self.slots.lock();
        f.debug_struct("AdmissionController")
            .field("config", &self.config)
            .field("in_flight", &slots.in_flight)
            .field("queued", &slots.queued)
            .field("draining", &self.draining.load(Ordering::Relaxed))
            .finish()
    }
}

impl AdmissionController {
    /// Creates a controller recording into `metrics`.
    pub fn new(config: AdmissionConfig, metrics: Arc<ServingMetrics>) -> Self {
        let burst = f64::from(config.burst.max(1));
        Self {
            config,
            metrics,
            bucket: Mutex::new(TokenBucket {
                tokens: burst,
                last_refill: Duration::ZERO,
            }),
            slots: Mutex::new(Slots {
                in_flight: 0,
                queued: 0,
            }),
            slot_freed: Condvar::new(),
            service_ns: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            started: Instant::now(),
        }
    }

    /// The metrics sink this controller records into.
    pub fn metrics(&self) -> &Arc<ServingMetrics> {
        &self.metrics
    }

    /// Flips the tier into draining mode: every subsequent [`Self::admit`]
    /// sheds with [`ShedReason::Draining`]; in-flight requests finish.
    pub fn start_draining(&self) {
        self.draining.store(true, Ordering::SeqCst);
        // Wake queued waiters so they observe the drain and bail out.
        self.slot_freed.notify_all();
    }

    /// Whether the tier is draining.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Current in-flight request count.
    pub fn in_flight(&self) -> usize {
        self.slots.lock().in_flight
    }

    /// Runs the admission decision for a request carrying `budget` of
    /// remaining deadline.
    ///
    /// # Errors
    ///
    /// Returns the [`ShedReason`] when the request must be rejected; the
    /// caller answers `Overloaded` without decoding the body. On success
    /// the returned [`Permit`] holds a concurrency slot until dropped.
    pub fn admit(&self, budget: Duration) -> Result<Permit<'_>, ShedReason> {
        if self.is_draining() {
            self.metrics.shed_draining.incr();
            return Err(ShedReason::Draining);
        }
        if !self.take_token() {
            self.metrics.shed_rate_limited.incr();
            return Err(ShedReason::RateLimited);
        }
        if budget < self.config.min_budget {
            self.metrics.shed_deadline.incr();
            return Err(ShedReason::DeadlineHopeless);
        }

        let deadline = Instant::now() + budget;
        let mut slots = self.slots.lock();
        if slots.in_flight < self.config.max_concurrency {
            slots.in_flight += 1;
            self.metrics.max_in_flight.set_max(slots.in_flight as u64);
            drop(slots);
            self.metrics.admitted.incr();
            return Ok(Permit {
                controller: self,
                begun: Instant::now(),
                served: false,
            });
        }

        // Every slot is busy: the request must queue. Shed instead if the
        // queue is full or the wait estimate already eats the budget.
        if slots.queued >= self.config.queue_capacity {
            drop(slots);
            self.metrics.shed_queue_full.incr();
            return Err(ShedReason::QueueFull);
        }
        let est_wait = self.estimated_wait(slots.queued);
        if est_wait > budget {
            drop(slots);
            self.metrics.shed_deadline.incr();
            return Err(ShedReason::DeadlineHopeless);
        }

        slots.queued += 1;
        self.metrics.max_queue_depth.set_max(slots.queued as u64);
        loop {
            let now = Instant::now();
            if now >= deadline {
                slots.queued -= 1;
                drop(slots);
                self.metrics.shed_deadline.incr();
                return Err(ShedReason::DeadlineHopeless);
            }
            if self.is_draining() {
                slots.queued -= 1;
                drop(slots);
                self.metrics.shed_draining.incr();
                return Err(ShedReason::Draining);
            }
            if slots.in_flight < self.config.max_concurrency {
                slots.queued -= 1;
                slots.in_flight += 1;
                self.metrics.max_in_flight.set_max(slots.in_flight as u64);
                drop(slots);
                self.metrics.admitted.incr();
                return Ok(Permit {
                    controller: self,
                    begun: Instant::now(),
                    served: false,
                });
            }
            let remaining = deadline.saturating_duration_since(now);
            self.slot_freed.wait_for(&mut slots, remaining);
        }
    }

    /// Estimated queue wait with `queued` requests already ahead: each
    /// waiter needs a full service time to clear, all `max_concurrency`
    /// lanes drain in parallel.
    fn estimated_wait(&self, queued: usize) -> Duration {
        let service = self.service_ns.load(Ordering::Relaxed);
        if service == 0 {
            return Duration::ZERO; // no estimate yet: optimistic
        }
        let lanes = self.config.max_concurrency.max(1) as u64;
        let ahead = (queued as u64) + 1; // this request joins the back
        Duration::from_nanos(service.saturating_mul(ahead.div_ceil(lanes)))
    }

    fn take_token(&self) -> bool {
        let Some(rate) = self.config.rate_limit else {
            return true;
        };
        if rate <= 0.0 {
            return false;
        }
        let now = self.started.elapsed();
        let mut bucket = self.bucket.lock();
        let elapsed = now.saturating_sub(bucket.last_refill);
        bucket.last_refill = now;
        let burst = f64::from(self.config.burst.max(1));
        bucket.tokens = (bucket.tokens + elapsed.as_secs_f64() * rate).min(burst);
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Records one served request: its service time into the EWMA
    /// estimate, and the `completed` count.
    fn record_service(&self, began: Instant) {
        let elapsed_ns = u64::try_from(began.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // EWMA the service-time estimate; first sample seeds it directly.
        let prev = self.service_ns.load(Ordering::Relaxed);
        let next = if prev == 0 {
            elapsed_ns
        } else {
            let blended = (prev as f64) * (1.0 - SERVICE_EWMA_ALPHA)
                + (elapsed_ns as f64) * SERVICE_EWMA_ALPHA;
            blended as u64
        };
        self.service_ns.store(next.max(1), Ordering::Relaxed);
        self.metrics.completed.incr();
    }

    /// Frees one concurrency slot and wakes one queued waiter.
    fn free_slot(&self) {
        let mut slots = self.slots.lock();
        slots.in_flight -= 1;
        drop(slots);
        self.slot_freed.notify_one();
    }
}

/// RAII concurrency slot: dropping it frees the slot and wakes one queued
/// waiter, after recording the service time into the EWMA estimate unless
/// [`Permit::served`] already did.
#[derive(Debug)]
pub struct Permit<'a> {
    controller: &'a AdmissionController,
    begun: Instant,
    served: bool,
}

impl Permit<'_> {
    /// Records the request as served — its service time and the
    /// `completed` count — while the permit keeps its slot, so work that
    /// follows the service (writing the reply) still counts as in flight
    /// but not as service time.
    pub fn served(&mut self) {
        if !std::mem::replace(&mut self.served, true) {
            self.controller.record_service(self.begun);
        }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.served();
        self.controller.free_slot();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn controller(config: AdmissionConfig) -> AdmissionController {
        AdmissionController::new(config, Arc::new(ServingMetrics::new()))
    }

    #[test]
    fn admits_within_concurrency() {
        let c = controller(AdmissionConfig {
            max_concurrency: 2,
            ..AdmissionConfig::default()
        });
        let p1 = c.admit(Duration::from_secs(1)).unwrap();
        let _p2 = c.admit(Duration::from_secs(1)).unwrap();
        assert_eq!(c.in_flight(), 2);
        drop(p1);
        assert_eq!(c.in_flight(), 1);
        assert_eq!(c.metrics().admitted.get(), 2);
        assert_eq!(c.metrics().completed.get(), 1);
    }

    #[test]
    fn sheds_when_queue_full() {
        let c = controller(AdmissionConfig {
            max_concurrency: 1,
            queue_capacity: 0,
            ..AdmissionConfig::default()
        });
        let _held = c.admit(Duration::from_secs(1)).unwrap();
        assert_eq!(
            c.admit(Duration::from_secs(1)).unwrap_err(),
            ShedReason::QueueFull
        );
        assert_eq!(c.metrics().shed_queue_full.get(), 1);
    }

    #[test]
    fn sheds_tiny_budgets_immediately() {
        let c = controller(AdmissionConfig {
            min_budget: Duration::from_millis(5),
            ..AdmissionConfig::default()
        });
        assert_eq!(
            c.admit(Duration::from_millis(1)).unwrap_err(),
            ShedReason::DeadlineHopeless
        );
    }

    #[test]
    fn queued_request_gets_slot_when_freed() {
        let c = Arc::new(controller(AdmissionConfig {
            max_concurrency: 1,
            queue_capacity: 4,
            ..AdmissionConfig::default()
        }));
        let held = c.admit(Duration::from_secs(5)).unwrap();
        let c2 = Arc::clone(&c);
        let waiter = thread::spawn(move || c2.admit(Duration::from_secs(5)).map(drop));
        thread::sleep(Duration::from_millis(30));
        drop(held);
        waiter.join().unwrap().unwrap();
        assert_eq!(c.metrics().admitted.get(), 2);
    }

    #[test]
    fn queued_request_expires_with_its_budget() {
        let c = controller(AdmissionConfig {
            max_concurrency: 1,
            queue_capacity: 4,
            min_budget: Duration::ZERO,
            ..AdmissionConfig::default()
        });
        let _held = c.admit(Duration::from_secs(5)).unwrap();
        let start = Instant::now();
        assert_eq!(
            c.admit(Duration::from_millis(25)).unwrap_err(),
            ShedReason::DeadlineHopeless
        );
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn rate_limiter_sheds_beyond_burst() {
        let c = controller(AdmissionConfig {
            rate_limit: Some(1.0),
            burst: 2,
            max_concurrency: 16,
            ..AdmissionConfig::default()
        });
        let _a = c.admit(Duration::from_secs(1)).unwrap();
        let _b = c.admit(Duration::from_secs(1)).unwrap();
        assert_eq!(
            c.admit(Duration::from_secs(1)).unwrap_err(),
            ShedReason::RateLimited
        );
        assert_eq!(c.metrics().shed_rate_limited.get(), 1);
    }

    #[test]
    fn draining_sheds_everything_and_wakes_waiters() {
        let c = Arc::new(controller(AdmissionConfig {
            max_concurrency: 1,
            queue_capacity: 4,
            ..AdmissionConfig::default()
        }));
        let _held = c.admit(Duration::from_secs(5)).unwrap();
        let c2 = Arc::clone(&c);
        let waiter = thread::spawn(move || c2.admit(Duration::from_secs(5)).err());
        thread::sleep(Duration::from_millis(30));
        c.start_draining();
        assert_eq!(waiter.join().unwrap(), Some(ShedReason::Draining));
        assert_eq!(
            c.admit(Duration::from_secs(1)).unwrap_err(),
            ShedReason::Draining
        );
        assert_eq!(c.metrics().shed_draining.get(), 2);
    }
}
