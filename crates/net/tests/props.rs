//! Property-based tests for the cluster substrate, over loopback tiers.

use std::time::Duration;

use proptest::prelude::*;

use jdvs_net::balancer::Balancer;
use jdvs_net::latency::{LatencyModel, LatencySampler};
use jdvs_net::rpc::{CallTarget, Service};
use jdvs_net::{AdmissionConfig, TcpChannel, TcpTier};

struct Identity;
impl Service for Identity {
    type Request = u64;
    type Response = u64;
    fn handle(&self, r: u64) -> u64 {
        r
    }
}

struct Tagged(u64);
impl Service for Tagged {
    type Request = u64;
    type Response = u64;
    fn handle(&self, _: u64) -> u64 {
        self.0
    }
}

const DL: Duration = Duration::from_secs(5);

fn encode(v: &u64) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}
fn decode(b: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(b.try_into().ok()?))
}

fn tier<S: Service<Request = u64, Response = u64>>(name: &str, service: S) -> TcpTier<S> {
    TcpTier::spawn(name, service, decode, encode, AdmissionConfig::default()).unwrap()
}

fn tagged(n: usize) -> Vec<TcpTier<Tagged>> {
    (0..n as u64)
        .map(|i| tier(&format!("n{i}"), Tagged(i)))
        .collect()
}

fn balancer(tiers: &[TcpTier<Tagged>]) -> Balancer<TcpChannel<u64, u64>> {
    Balancer::new(tiers.iter().map(|t| t.channel(encode, decode)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every request through a healthy tier returns its own payload, on
    /// fresh and pooled connections alike.
    #[test]
    fn channel_is_lossless(payloads in prop::collection::vec(any::<u64>(), 1..40)) {
        let mut tier = tier("id", Identity);
        let channel = tier.channel(encode, decode);
        for p in payloads {
            prop_assert_eq!(channel.call(p, DL), Ok(p));
        }
        prop_assert!(tier.drain(DL));
    }

    /// Round-robin over N healthy tiers serves each once per window of N
    /// consecutive calls.
    #[test]
    fn balancer_distributes_evenly(n in 1usize..6, rounds in 1usize..5) {
        let tiers = tagged(n);
        let lb = balancer(&tiers);
        let mut counts = vec![0usize; n];
        for _ in 0..n * rounds {
            let got = lb.call(0, DL).unwrap();
            counts[got as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            prop_assert_eq!(c, rounds, "node {} served {} times", i, c);
        }
    }

    /// Failover: with any non-empty subset of tiers down, every call is
    /// served by some healthy tier (or errors when all are down).
    #[test]
    fn balancer_failover_always_finds_a_healthy_node(
        n in 2usize..6,
        down_mask in prop::collection::vec(any::<bool>(), 2..6),
    ) {
        let n = n.min(down_mask.len());
        let tiers = tagged(n);
        let lb = balancer(&tiers);
        let mut any_up = false;
        for (tier, &down) in tiers.iter().zip(&down_mask) {
            tier.faults().set_down(down);
            any_up |= !down;
        }
        for _ in 0..2 * n {
            match lb.call(0, DL) {
                Ok(tag) => {
                    prop_assert!(any_up);
                    prop_assert!(!down_mask[tag as usize], "served by a downed node");
                }
                Err(_) => prop_assert!(!any_up, "error only when all nodes are down"),
            }
        }
    }

    /// Latency samples respect distribution bounds for any seed.
    #[test]
    fn latency_samples_respect_bounds(seed in any::<u64>(), lo_us in 0u64..500, span_us in 0u64..500) {
        let model = LatencyModel::Uniform {
            min: Duration::from_micros(lo_us),
            max: Duration::from_micros(lo_us + span_us),
        };
        let sampler = LatencySampler::new(model, seed);
        for _ in 0..100 {
            let d = sampler.sample();
            prop_assert!(d >= Duration::from_micros(lo_us));
            prop_assert!(d <= Duration::from_micros(lo_us + span_us));
        }
    }

    /// Log-normal latencies are clamped at 10x the median for any seed.
    #[test]
    fn lognormal_latency_is_clamped(seed in any::<u64>(), median_us in 1u64..1_000) {
        let sampler = LatencySampler::new(
            LatencyModel::LogNormal { median: Duration::from_micros(median_us), sigma: 1.5 },
            seed,
        );
        for _ in 0..200 {
            prop_assert!(sampler.sample() <= Duration::from_micros(median_us * 10));
        }
    }
}
