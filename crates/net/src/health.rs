//! Per-node health tracking: a consecutive-failure circuit breaker.
//!
//! The paper's replicated serving tier only tolerates faults gracefully if
//! dead replicas stop being *re-tried on every rotation*. A
//! [`HealthTracker`] sits next to each [`crate::rpc::CallTarget`] inside a
//! [`crate::balancer::Balancer`] and implements the classic three-state
//! breaker:
//!
//! - **Closed** — the node is believed healthy; calls flow.
//! - **Open** — `failure_threshold` consecutive failures tripped the
//!   breaker; calls are skipped until `cooldown` elapses.
//! - **Half-open** — the cooldown expired; exactly one *probe* call is let
//!   through. Success closes the breaker, failure re-opens it for another
//!   cooldown.
//!
//! All transitions are driven by the caller reporting outcomes
//! ([`HealthTracker::record_success`] / [`HealthTracker::record_failure`]);
//! the tracker never spawns threads or timers. Methods with an `_at`
//! suffix take an explicit [`Instant`] so tests can drive the clock.

use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Tuning knobs for a [`HealthTracker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive failures that trip the breaker from closed to open.
    pub failure_threshold: u32,
    /// How long an open breaker blocks calls before allowing a half-open
    /// probe. Also bounds how long a stuck half-open probe blocks the next
    /// one (a probe whose outcome is never reported does not wedge the
    /// breaker).
    pub cooldown: Duration,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            cooldown: Duration::from_millis(200),
        }
    }
}

impl HealthPolicy {
    /// A policy that never opens (health tracking effectively disabled).
    pub fn disabled() -> Self {
        Self {
            failure_threshold: u32::MAX,
            cooldown: Duration::ZERO,
        }
    }
}

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// Node believed healthy; calls flow.
    Closed,
    /// Breaker tripped; calls are skipped until the cooldown expires.
    Open,
    /// One probe call is in flight; its outcome decides the next state.
    HalfOpen,
}

#[derive(Debug)]
struct TrackerInner {
    state: CircuitState,
    consecutive_failures: u32,
    /// When the current open/half-open window expires.
    window_ends: Option<Instant>,
}

/// A consecutive-failure circuit breaker for one node; see the module docs.
#[derive(Debug)]
pub struct HealthTracker {
    policy: HealthPolicy,
    inner: Mutex<TrackerInner>,
}

impl HealthTracker {
    /// Creates a closed tracker.
    pub fn new(policy: HealthPolicy) -> Self {
        Self {
            policy,
            inner: Mutex::new(TrackerInner {
                state: CircuitState::Closed,
                consecutive_failures: 0,
                window_ends: None,
            }),
        }
    }

    /// The policy this tracker runs.
    pub fn policy(&self) -> HealthPolicy {
        self.policy
    }

    /// Current breaker state.
    pub fn state(&self) -> CircuitState {
        self.inner.lock().state
    }

    /// Consecutive failures recorded since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.inner.lock().consecutive_failures
    }

    /// Whether a call should be attempted right now. An open breaker whose
    /// cooldown has expired transitions to half-open and admits exactly one
    /// probe (the caller that got `true`).
    pub fn allow(&self) -> bool {
        self.allow_at(Instant::now())
    }

    /// [`HealthTracker::allow`] with an explicit clock (for tests).
    pub fn allow_at(&self, now: Instant) -> bool {
        let mut g = self.inner.lock();
        match g.state {
            CircuitState::Closed => true,
            CircuitState::Open | CircuitState::HalfOpen => {
                // `window_ends` is always Some in these states; treat a
                // missing value as an expired window for robustness.
                let expired = g.window_ends.is_none_or(|end| now >= end);
                if expired {
                    g.state = CircuitState::HalfOpen;
                    // Re-arm so a probe that never reports back does not
                    // wedge the breaker in half-open forever.
                    g.window_ends = Some(now + self.policy.cooldown);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Reports a successful call: closes the breaker and resets the
    /// failure streak.
    pub fn record_success(&self) {
        let mut g = self.inner.lock();
        g.state = CircuitState::Closed;
        g.consecutive_failures = 0;
        g.window_ends = None;
    }

    /// Reports a failed call. Returns `true` when this failure transitioned
    /// the breaker from closed to open (for metrics).
    pub fn record_failure(&self) -> bool {
        self.record_failure_at(Instant::now())
    }

    /// [`HealthTracker::record_failure`] with an explicit clock.
    pub fn record_failure_at(&self, now: Instant) -> bool {
        let mut g = self.inner.lock();
        g.consecutive_failures = g.consecutive_failures.saturating_add(1);
        let should_open = g.state == CircuitState::HalfOpen
            || g.consecutive_failures >= self.policy.failure_threshold;
        if should_open {
            let newly_opened = g.state == CircuitState::Closed;
            g.state = CircuitState::Open;
            g.window_ends = Some(now + self.policy.cooldown);
            newly_opened
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(threshold: u32, cooldown_ms: u64) -> HealthPolicy {
        HealthPolicy {
            failure_threshold: threshold,
            cooldown: Duration::from_millis(cooldown_ms),
        }
    }

    #[test]
    fn starts_closed_and_allows() {
        let t = HealthTracker::new(HealthPolicy::default());
        assert_eq!(t.state(), CircuitState::Closed);
        assert!(t.allow());
        assert_eq!(t.consecutive_failures(), 0);
    }

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let t = HealthTracker::new(policy(3, 100));
        let now = Instant::now();
        assert!(!t.record_failure_at(now));
        assert!(!t.record_failure_at(now));
        assert_eq!(t.state(), CircuitState::Closed);
        assert!(t.record_failure_at(now), "third failure opens the breaker");
        assert_eq!(t.state(), CircuitState::Open);
        assert!(!t.allow_at(now), "open breaker blocks calls");
    }

    #[test]
    fn success_resets_the_streak() {
        let t = HealthTracker::new(policy(3, 100));
        let now = Instant::now();
        t.record_failure_at(now);
        t.record_failure_at(now);
        t.record_success();
        assert_eq!(t.consecutive_failures(), 0);
        t.record_failure_at(now);
        t.record_failure_at(now);
        assert_eq!(
            t.state(),
            CircuitState::Closed,
            "streak restarted after success"
        );
    }

    #[test]
    fn cooldown_admits_one_half_open_probe() {
        let t = HealthTracker::new(policy(1, 50));
        let now = Instant::now();
        t.record_failure_at(now);
        assert_eq!(t.state(), CircuitState::Open);
        assert!(!t.allow_at(now + Duration::from_millis(10)));
        let later = now + Duration::from_millis(60);
        assert!(t.allow_at(later), "expired cooldown admits a probe");
        assert_eq!(t.state(), CircuitState::HalfOpen);
        assert!(!t.allow_at(later), "only one probe at a time");
    }

    #[test]
    fn probe_success_closes_probe_failure_reopens() {
        let t = HealthTracker::new(policy(1, 50));
        let now = Instant::now();
        t.record_failure_at(now);
        let later = now + Duration::from_millis(60);
        assert!(t.allow_at(later));
        t.record_success();
        assert_eq!(t.state(), CircuitState::Closed);

        t.record_failure_at(later);
        let probe_time = later + Duration::from_millis(60);
        assert!(t.allow_at(probe_time));
        t.record_failure_at(probe_time);
        assert_eq!(t.state(), CircuitState::Open, "failed probe reopens");
        assert!(!t.allow_at(probe_time + Duration::from_millis(10)));
    }

    #[test]
    fn stuck_probe_does_not_wedge_the_breaker() {
        let t = HealthTracker::new(policy(1, 50));
        let now = Instant::now();
        t.record_failure_at(now);
        let probe1 = now + Duration::from_millis(60);
        assert!(t.allow_at(probe1));
        // The probe's outcome is never reported; after another cooldown a
        // new probe is admitted.
        let probe2 = probe1 + Duration::from_millis(60);
        assert!(t.allow_at(probe2));
    }

    #[test]
    fn disabled_policy_never_opens() {
        let t = HealthTracker::new(HealthPolicy::disabled());
        let now = Instant::now();
        for _ in 0..1_000 {
            assert!(!t.record_failure_at(now));
        }
        assert_eq!(t.state(), CircuitState::Closed);
        assert!(t.allow_at(now));
    }

    #[test]
    fn opened_transition_is_reported_once() {
        let t = HealthTracker::new(policy(2, 100));
        let now = Instant::now();
        assert!(!t.record_failure_at(now));
        assert!(t.record_failure_at(now), "closed -> open reported");
        assert!(
            !t.record_failure_at(now),
            "already open: not a new transition"
        );
    }
}
