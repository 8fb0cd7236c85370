//! # jdvs-net
//!
//! The cluster substrate standing in for the paper's 28-server testbed (see
//! DESIGN.md §2): every tier of the serving hierarchy is a framed TCP
//! listener on loopback, reached over pooled client channels. The
//! evaluation phenomena — fan-out/fan-in, queueing under concurrency,
//! stragglers, replica failover — are properties of the topology and
//! service times, so each listener also carries a seeded per-hop latency
//! model and runtime fault injection, applied by the channels that dial
//! it.
//!
//! - [`rpc`] — the [`rpc::Service`] trait, the split-phase
//!   [`rpc::CallTarget`] contract, call errors.
//! - [`tcp`] — [`tcp::TcpTier`], a framed TCP listener serving any
//!   [`rpc::Service`] behind admission control, and [`tcp::TcpChannel`],
//!   the pooled client stub implementing [`rpc::CallTarget`] over the
//!   tier's [`tcp::Link`] (its fault injector and latency sampler).
//! - [`frame`] — length-prefixed, CRC32C-checked wire frames plus the
//!   request/response envelopes carrying deadline budgets and overload
//!   status.
//! - [`admission`] — per-tier admission control: token-bucket rate
//!   limiting, a bounded queue with deadline-aware shedding, and a
//!   concurrency limit.
//! - [`latency`] — seeded per-hop latency distributions.
//! - [`fault`] — drop/fail/slow injection, runtime-togglable.
//! - [`balancer`] — round-robin load balancer with budgeted, health-aware
//!   failover and hedged calls (the paper's front end), generic over any
//!   [`rpc::CallTarget`]. Calls are split-phase (`start`, then `finish`),
//!   so a fan-out overlaps its branches on the calling thread.
//! - [`health`] — per-target circuit breaker consulted by the balancer.
//! - [`retry`] — jittered exponential-backoff retry policy.
//!
//! ## Example
//!
//! ```
//! use jdvs_net::latency::LatencyModel;
//! use jdvs_net::rpc::{CallTarget, RpcError, Service};
//! use jdvs_net::tcp::{Link, TcpTier};
//! use jdvs_net::AdmissionConfig;
//! use std::time::Duration;
//!
//! struct Echo;
//! impl Service for Echo {
//!     type Request = Vec<u8>;
//!     type Response = Vec<u8>;
//!     fn handle(&self, req: Vec<u8>) -> Vec<u8> { req }
//! }
//!
//! let tier = TcpTier::spawn_with(
//!     "echo-0",
//!     Echo,
//!     |b| Some(b.to_vec()),
//!     |r| r.clone(),
//!     AdmissionConfig::default(),
//!     Link::new(LatencyModel::Constant(Duration::from_millis(1)), 7),
//! )
//! .unwrap();
//! let channel = tier.channel(|r: &Vec<u8>| r.clone(), |b| Some(b.to_vec()));
//! let reply = channel.call(b"hi".to_vec(), Duration::from_secs(1)).unwrap();
//! assert_eq!(reply, b"hi");
//! tier.faults().set_down(true);
//! assert_eq!(channel.call(b"hi".to_vec(), Duration::from_secs(1)), Err(RpcError::NodeDown));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod balancer;
pub mod fault;
pub mod frame;
pub mod health;
pub mod latency;
pub mod retry;
pub mod rpc;
pub mod tcp;

pub use admission::{AdmissionConfig, AdmissionController};
pub use balancer::Balancer;
pub use fault::FaultInjector;
pub use frame::ShedReason;
pub use health::{CircuitState, HealthPolicy, HealthTracker};
pub use latency::LatencyModel;
pub use retry::RetryPolicy;
pub use rpc::{CallTarget, RpcError, Service};
pub use tcp::{Link, TcpChannel, TcpTier};
