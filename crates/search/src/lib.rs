//! # jdvs-search
//!
//! The distributed online-search subsystem (Sections 2.1 and 2.4,
//! Figures 1 and 10): a three-level hierarchy of
//!
//! 1. **Blenders** ([`blender`]) — receive the user query, obtain its
//!    features (extracting if the query is a raw image), fan out to every
//!    broker group, merge and **rank** the combined results by similarity
//!    and product attributes (sales, praise, price).
//! 2. **Brokers** ([`broker`]) — each group owns a subset of the index
//!    partitions; an instance fans a query out to one searcher replica per
//!    owned partition and merges the partial top-k results.
//! 3. **Searchers** ([`searcher`]) — one per partition replica; each holds
//!    a [`jdvs_core::VisualIndex`] over its partition and also consumes the
//!    message queue to keep it fresh (real-time indexing).
//!
//! [`topology::SearchTopology`] assembles the whole system — P partitions ×
//! R searcher replicas with one real-time indexing thread each, and the
//! stack serving them: B blender instances, G broker groups × R broker
//! replicas and a front-end load balancer. [`client::SearchClient`] is the
//! user-facing handle.
//!
//! [`serving::NetServing`] is that stack: the three tiers as independent
//! TCP services on loopback ([`wire`] defines the message encoding), each
//! behind its own admission controller and its own simulated link —
//! overload shedding, graceful drain, per-hop latency and fault
//! injection. A topology serves through one of its own;
//! [`serving::NetServing::over`] stands up another.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod blender;
pub mod broker;
pub mod client;
pub mod partition;
pub mod protocol;
pub mod ranking;
pub mod searcher;
pub mod serving;
pub mod topology;
pub mod wire;

pub use client::SearchClient;
pub use protocol::{QueryInput, RankedHit, SearchQuery};
pub use ranking::RankingPolicy;
pub use serving::{NetServing, NetServingConfig};
pub use topology::{CheckpointReport, DurabilityOptions, SearchTopology, TopologyConfig};
