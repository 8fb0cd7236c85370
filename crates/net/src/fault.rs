//! Runtime fault injection.
//!
//! The paper's availability story — *"each partition can have multiple
//! copies"*, *"each broker has multiple identical instances for load
//! balancing and fault tolerance"* — is only demonstrable if nodes can
//! fail. One [`FaultInjector`] sits in front of each TCP listener
//! ([`crate::tcp::TcpTier::faults`]) and is consulted by every
//! [`crate::tcp::TcpChannel`] dialing it, on every call. At runtime it can
//! drop a fraction of requests, report the target as down, or slow calls by
//! an extra delay (straggler simulation).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use crate::latency::NetRng;
use crate::rpc::RpcError;

/// Per-node fault controls; cheap to consult, togglable at runtime.
#[derive(Debug)]
pub struct FaultInjector {
    /// Probability in `[0, 1]` (scaled by 1e9) of dropping a request.
    drop_ppb: AtomicU64,
    /// Treat the node as crashed.
    down: AtomicBool,
    /// Extra delay added to every call, in microseconds.
    slow_us: AtomicU64,
    rng: Mutex<NetRng>,
}

impl FaultInjector {
    /// Creates an injector with all faults disabled.
    pub fn new(seed: u64) -> Self {
        Self {
            drop_ppb: AtomicU64::new(0),
            down: AtomicBool::new(false),
            slow_us: AtomicU64::new(0),
            rng: Mutex::new(NetRng::new(seed)),
        }
    }

    /// Sets the request drop probability (clamped to `[0, 1]`).
    pub fn set_drop_probability(&self, p: f64) {
        let p = p.clamp(0.0, 1.0);
        self.drop_ppb.store((p * 1e9) as u64, Ordering::Relaxed);
    }

    /// Marks the node crashed (`true`) or recovered (`false`).
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::Relaxed);
    }

    /// Whether the node is currently marked down.
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::Relaxed)
    }

    /// Adds an extra per-call delay (straggler); `Duration::ZERO` clears.
    pub fn set_slowdown(&self, extra: Duration) {
        self.slow_us.store(
            extra.as_micros().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
    }

    /// The extra per-call delay currently injected.
    pub fn slowdown(&self) -> Duration {
        Duration::from_micros(self.slow_us.load(Ordering::Relaxed))
    }

    /// Consulted per call: returns the fault to apply, or the extra delay
    /// to charge (possibly zero).
    pub fn check(&self) -> Result<Duration, RpcError> {
        if self.is_down() {
            return Err(RpcError::NodeDown);
        }
        let ppb = self.drop_ppb.load(Ordering::Relaxed);
        if ppb > 0 {
            let roll = (self.rng.lock().next_f64() * 1e9) as u64;
            if roll < ppb {
                return Err(RpcError::Dropped);
            }
        }
        Ok(self.slowdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_injects_nothing() {
        let f = FaultInjector::new(1);
        assert_eq!(f.check(), Ok(Duration::ZERO));
        assert!(!f.is_down());
    }

    #[test]
    fn down_blocks_everything() {
        let f = FaultInjector::new(1);
        f.set_down(true);
        assert_eq!(f.check(), Err(RpcError::NodeDown));
        f.set_down(false);
        assert_eq!(f.check(), Ok(Duration::ZERO));
    }

    #[test]
    fn drop_probability_is_roughly_honored() {
        let f = FaultInjector::new(2);
        f.set_drop_probability(0.3);
        let drops = (0..10_000)
            .filter(|_| f.check() == Err(RpcError::Dropped))
            .count();
        assert!(
            (2_500..3_500).contains(&drops),
            "expected ~3000 drops, got {drops}"
        );
    }

    #[test]
    fn drop_probability_one_drops_all() {
        let f = FaultInjector::new(3);
        f.set_drop_probability(1.0);
        for _ in 0..100 {
            assert_eq!(f.check(), Err(RpcError::Dropped));
        }
    }

    #[test]
    fn probability_is_clamped() {
        let f = FaultInjector::new(4);
        f.set_drop_probability(7.5); // clamped to 1.0
        assert_eq!(f.check(), Err(RpcError::Dropped));
        f.set_drop_probability(-1.0); // clamped to 0.0
        assert_eq!(f.check(), Ok(Duration::ZERO));
    }

    #[test]
    fn slowdown_is_reported() {
        let f = FaultInjector::new(5);
        f.set_slowdown(Duration::from_micros(250));
        assert_eq!(f.check(), Ok(Duration::from_micros(250)));
        f.set_slowdown(Duration::ZERO);
        assert_eq!(f.check(), Ok(Duration::ZERO));
    }
}
