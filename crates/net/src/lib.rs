//! # jdvs-net
//!
//! In-process cluster runtime standing in for the paper's 28-server testbed
//! (see DESIGN.md §2). The evaluation phenomena — fan-out/fan-in, queueing
//! under concurrency, stragglers, replica failover — are properties of the
//! topology and service times, not of physical NICs, so nodes here are
//! worker-pool actors reachable by RPC over channels, with a seeded
//! per-hop latency model and runtime fault injection.
//!
//! - [`rpc`] — the [`rpc::Service`] trait, call errors, deadlines.
//! - [`node`] — [`node::Node`]: a named actor with `n` worker threads;
//!   [`node::NodeHandle`]: the cloneable client stub.
//! - [`latency`] — seeded per-hop latency distributions.
//! - [`fault`] — drop/fail/slow injection, runtime-togglable.
//! - [`balancer`] — round-robin load balancer with budgeted, health-aware
//!   failover and hedged calls (the paper's front end), generic over any
//!   [`rpc::CallTarget`] (in-process handles or TCP channels). Calls are
//!   split-phase (`start`, then `finish`), so a fan-out overlaps its
//!   branches on the calling thread.
//! - [`health`] — per-node circuit breaker consulted by the balancer.
//! - [`retry`] — jittered exponential-backoff retry policy.
//!
//! The network-native serving tier layers on top:
//!
//! - [`frame`] — length-prefixed, CRC32C-checked wire frames plus the
//!   request/response envelopes carrying deadline budgets and overload
//!   status.
//! - [`admission`] — per-tier admission control: token-bucket rate
//!   limiting, a bounded queue with deadline-aware shedding, and a
//!   concurrency limit.
//! - [`tcp`] — [`tcp::TcpTier`], a framed TCP listener serving any
//!   [`rpc::Service`] behind admission control, and [`tcp::TcpChannel`],
//!   the pooled client stub implementing [`rpc::CallTarget`].
//!
//! ## Example
//!
//! ```
//! use jdvs_net::node::Node;
//! use jdvs_net::rpc::Service;
//! use std::time::Duration;
//!
//! struct Echo;
//! impl Service for Echo {
//!     type Request = String;
//!     type Response = String;
//!     fn handle(&self, req: String) -> String { req }
//! }
//!
//! let node = Node::spawn("echo-0", Echo, 2);
//! let handle = node.handle();
//! let reply = handle.call("hi".to_string(), Duration::from_secs(1)).unwrap();
//! assert_eq!(reply, "hi");
//! node.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod balancer;
pub mod fault;
pub mod frame;
pub mod health;
pub mod latency;
pub mod node;
pub mod retry;
pub mod rpc;
pub mod tcp;

pub use admission::{AdmissionConfig, AdmissionController};
pub use balancer::Balancer;
pub use fault::FaultInjector;
pub use frame::ShedReason;
pub use health::{CircuitState, HealthPolicy, HealthTracker};
pub use latency::LatencyModel;
pub use node::{Node, NodeHandle};
pub use retry::RetryPolicy;
pub use rpc::{CallTarget, RpcError, Service};
pub use tcp::{TcpChannel, TcpTier};
