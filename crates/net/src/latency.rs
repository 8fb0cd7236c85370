//! Seeded per-hop network latency models.
//!
//! Every [`crate::tcp::TcpChannel`] charges one sampled latency per call
//! (covering request + response flight time), on the **caller's** thread —
//! wire time must not occupy the serving tier. Distributions are seeded so
//! a whole-cluster experiment is reproducible.

use std::time::Duration;

use parking_lot::Mutex;

// Reuse the deterministic generator from jdvs-vector? jdvs-net is substrate-
// independent by design, so it carries its own tiny xorshift.
/// A small deterministic RNG (xorshift64*) private to latency/fault models.
#[derive(Debug, Clone)]
pub(crate) struct NetRng(u64);

impl NetRng {
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard Gaussian via Marsaglia polar.
    pub(crate) fn next_gaussian(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.next_f64() - 1.0;
            let v = 2.0 * self.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

/// A per-call latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LatencyModel {
    /// No simulated latency (loopback speed).
    #[default]
    Zero,
    /// Fixed latency per call.
    Constant(Duration),
    /// Uniform in `[min, max]`.
    Uniform {
        /// Lower bound.
        min: Duration,
        /// Upper bound.
        max: Duration,
    },
    /// `median * exp(sigma * N(0,1))` clamped at `10 * median` — a heavy
    /// right tail like real datacenter RPC.
    LogNormal {
        /// Median latency.
        median: Duration,
        /// Spread.
        sigma: f64,
    },
}

impl LatencyModel {
    /// A typical intra-datacenter hop: lognormal with 200 µs median.
    pub fn datacenter() -> Self {
        LatencyModel::LogNormal {
            median: Duration::from_micros(200),
            sigma: 0.4,
        }
    }

    pub(crate) fn sample(&self, rng: &mut NetRng) -> Duration {
        match *self {
            LatencyModel::Zero => Duration::ZERO,
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { min, max } => {
                let (lo, hi) = (min.min(max), max.max(min));
                let span = (hi - lo).as_nanos() as u64;
                if span == 0 {
                    lo
                } else {
                    lo + Duration::from_nanos(rng.next_u64() % (span + 1))
                }
            }
            LatencyModel::LogNormal { median, sigma } => {
                let factor = (sigma * rng.next_gaussian()).exp().min(10.0);
                Duration::from_nanos((median.as_nanos() as f64 * factor) as u64)
            }
        }
    }
}

/// A seeded, thread-safe sampler around a [`LatencyModel`].
#[derive(Debug)]
pub struct LatencySampler {
    model: LatencyModel,
    rng: Mutex<NetRng>,
}

impl LatencySampler {
    /// Creates a sampler.
    pub fn new(model: LatencyModel, seed: u64) -> Self {
        Self {
            model,
            rng: Mutex::new(NetRng::new(seed)),
        }
    }

    /// Samples one call's latency. The zero model answers without touching
    /// the RNG, so a stack that simulates no latency takes no lock here.
    pub fn sample(&self) -> Duration {
        match self.model {
            LatencyModel::Zero => Duration::ZERO,
            model => model.sample(&mut self.rng.lock()),
        }
    }

    /// The underlying model.
    pub fn model(&self) -> LatencyModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_is_zero() {
        let s = LatencySampler::new(LatencyModel::Zero, 1);
        assert_eq!(s.sample(), Duration::ZERO);
    }

    #[test]
    fn constant_model_is_constant() {
        let s = LatencySampler::new(LatencyModel::Constant(Duration::from_micros(5)), 1);
        for _ in 0..10 {
            assert_eq!(s.sample(), Duration::from_micros(5));
        }
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let s = LatencySampler::new(
            LatencyModel::Uniform {
                min: Duration::from_micros(100),
                max: Duration::from_micros(200),
            },
            2,
        );
        for _ in 0..1_000 {
            let d = s.sample();
            assert!(d >= Duration::from_micros(100) && d <= Duration::from_micros(200));
        }
    }

    #[test]
    fn lognormal_is_heavy_tailed_but_clamped() {
        let s = LatencySampler::new(
            LatencyModel::LogNormal {
                median: Duration::from_micros(100),
                sigma: 0.5,
            },
            3,
        );
        let samples: Vec<Duration> = (0..5_000).map(|_| s.sample()).collect();
        let max = samples.iter().max().unwrap();
        let min = samples.iter().min().unwrap();
        assert!(*max > Duration::from_micros(150), "tail exists");
        assert!(
            *max <= Duration::from_micros(1_000),
            "clamped at 10x median"
        );
        assert!(*min < Duration::from_micros(100));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = LatencyModel::Uniform {
            min: Duration::from_nanos(0),
            max: Duration::from_micros(50),
        };
        let a = LatencySampler::new(m, 7);
        let b = LatencySampler::new(m, 7);
        for _ in 0..50 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn datacenter_preset_is_lognormal() {
        assert!(matches!(
            LatencyModel::datacenter(),
            LatencyModel::LogNormal { .. }
        ));
    }
}
