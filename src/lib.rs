//! # jdvs — a real-time visual search system
//!
//! A full reproduction, in Rust, of the system described in *"The Design
//! and Implementation of a Real Time Visual Search System on JD E-commerce
//! Platform"* (Li et al., Middleware 2018): a distributed, hierarchical
//! image-retrieval stack whose index supports **sub-second insertion,
//! update and deletion concurrent with search**.
//!
//! This crate is the facade: it re-exports the workspace's crates under
//! stable paths. See the README for the architecture overview, DESIGN.md
//! for the system inventory, and EXPERIMENTS.md for the paper-vs-measured
//! record of every table and figure.
//!
//! ## Quick start
//!
//! ```
//! use jdvs::workload::scenario::{World, WorldConfig};
//! use jdvs::search::SearchQuery;
//! use std::time::Duration;
//!
//! // A miniature world: synthetic catalog, trained index, full
//! // blender/broker/searcher topology with real-time indexing.
//! let world = World::build(WorldConfig::fast_test());
//! let client = world.client(Duration::from_secs(5));
//!
//! // Query with one of the catalog's own images: the default ranking
//! // blends similarity with sales/praise/price, but the exact image is an
//! // exact visual match and must appear in the top results.
//! let product = &world.catalog().products()[0];
//! let resp = client.search(SearchQuery::by_image_url(product.urls[0].clone(), 3)).unwrap();
//! assert!(resp.results.iter().any(|r| r.hit.product_id == product.id));
//! ```
//!
//! ## Crate map
//!
//! | Path | Contents |
//! |---|---|
//! | [`core`] | the paper's contribution: forward index, validity bitmap, IVF inverted lists with lock-free expansion, real-time + full indexers |
//! | [`durability`] | segmented CRC-framed ingestion log, atomic checkpoints, crash recovery |
//! | [`search`] | blender / broker / searcher topology, partitioning, ranking |
//! | [`storage`] | KV store, message queue, image store, feature database |
//! | [`features`] | deterministic synthetic feature extraction + cost model |
//! | [`net`] | loopback TCP tiers and channels, RPC, latency model, fault injection, balancer |
//! | [`vector`] | vectors, distances, top-k, k-means, product quantization |
//! | [`metrics`] | histograms, percentiles, CDFs, hourly series |
//! | [`workload`] | catalogs, daily event streams, query generators, drivers |

#![warn(missing_docs)]

pub use jdvs_core as core;
pub use jdvs_durability as durability;
pub use jdvs_features as features;
pub use jdvs_metrics as metrics;
pub use jdvs_net as net;
pub use jdvs_search as search;
pub use jdvs_storage as storage;
pub use jdvs_vector as vector;
pub use jdvs_workload as workload;
