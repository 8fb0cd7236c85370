//! Counters for a network tier's admission front door.
//!
//! One [`ServingMetrics`] instance is shared by every listener of a tier
//! (blenders, brokers, or searchers), so a snapshot answers the overload
//! questions the admission controller raises: how much load was admitted,
//! how much was shed and *why* (rate limit, full queue, hopeless deadline,
//! drain), and how deep the queue ran.

use crate::counter::Counter;
use crate::gauge::Gauge;

/// Shared admission/overload counters of one serving tier; all fields are
/// thread-safe.
#[derive(Debug, Default)]
pub struct ServingMetrics {
    /// Requests admitted past the front door.
    pub admitted: Counter,
    /// Admitted requests whose handler completed (a response was written).
    pub completed: Counter,
    /// Requests shed by the token-bucket rate limiter.
    pub shed_rate_limited: Counter,
    /// Requests shed because the admission queue was full.
    pub shed_queue_full: Counter,
    /// Requests shed because their remaining deadline budget could not
    /// cover the estimated queue wait (or ran out while queued).
    pub shed_deadline: Counter,
    /// Requests shed because the tier was draining for shutdown.
    pub shed_draining: Counter,
    /// Request frames that failed to decode (corrupt or truncated).
    pub decode_errors: Counter,
    /// High-water mark of concurrently executing handlers.
    pub max_in_flight: Gauge,
    /// High-water mark of requests waiting for a concurrency slot.
    pub max_queue_depth: Gauge,
}

impl ServingMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests shed for any reason.
    pub fn total_shed(&self) -> u64 {
        self.shed_rate_limited.get()
            + self.shed_queue_full.get()
            + self.shed_deadline.get()
            + self.shed_draining.get()
    }

    /// Plain-value snapshot of every counter.
    pub fn snapshot(&self) -> ServingSnapshot {
        ServingSnapshot {
            admitted: self.admitted.get(),
            completed: self.completed.get(),
            shed_rate_limited: self.shed_rate_limited.get(),
            shed_queue_full: self.shed_queue_full.get(),
            shed_deadline: self.shed_deadline.get(),
            shed_draining: self.shed_draining.get(),
            decode_errors: self.decode_errors.get(),
            max_in_flight: self.max_in_flight.get(),
            max_queue_depth: self.max_queue_depth.get(),
        }
    }
}

/// Point-in-time values of a [`ServingMetrics`].
#[derive(Debug, Clone, Default)]
pub struct ServingSnapshot {
    /// See [`ServingMetrics::admitted`].
    pub admitted: u64,
    /// See [`ServingMetrics::completed`].
    pub completed: u64,
    /// See [`ServingMetrics::shed_rate_limited`].
    pub shed_rate_limited: u64,
    /// See [`ServingMetrics::shed_queue_full`].
    pub shed_queue_full: u64,
    /// See [`ServingMetrics::shed_deadline`].
    pub shed_deadline: u64,
    /// See [`ServingMetrics::shed_draining`].
    pub shed_draining: u64,
    /// See [`ServingMetrics::decode_errors`].
    pub decode_errors: u64,
    /// See [`ServingMetrics::max_in_flight`].
    pub max_in_flight: u64,
    /// See [`ServingMetrics::max_queue_depth`].
    pub max_queue_depth: u64,
}

impl ServingSnapshot {
    /// Requests shed for any reason.
    pub fn total_shed(&self) -> u64 {
        self.shed_rate_limited + self.shed_queue_full + self.shed_deadline + self.shed_draining
    }

    /// Fraction of offered requests that were shed (`0.0` when nothing was
    /// offered).
    pub fn shed_ratio(&self) -> f64 {
        let offered = self.admitted + self.total_shed();
        if offered == 0 {
            0.0
        } else {
            self.total_shed() as f64 / offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let m = ServingMetrics::new();
        m.admitted.add(8);
        m.completed.add(8);
        m.shed_queue_full.add(2);
        m.shed_deadline.incr();
        m.max_in_flight.set_max(3);
        let s = m.snapshot();
        assert_eq!(s.admitted, 8);
        assert_eq!(s.total_shed(), 3);
        assert_eq!(m.total_shed(), 3);
        assert_eq!(s.max_in_flight, 3);
        assert!((s.shed_ratio() - 3.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn shed_ratio_handles_zero_offered() {
        assert_eq!(ServingSnapshot::default().shed_ratio(), 0.0);
    }
}
