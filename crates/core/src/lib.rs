//! # jdvs-core
//!
//! The paper's primary contribution: a visual index supporting **real-time,
//! sub-second** insertion, update and deletion concurrent with search.
//!
//! Structure (one module per component of Section 2):
//!
//! - [`ids`] — newtyped index-internal identifiers.
//! - [`bitmap`] — the atomic **validity bitmap**: one bit per image; product
//!   delisting flips bits instead of rewriting indexes (Sections 2.1/2.3).
//! - [`buffer`] — the append-only **variable-length attribute buffer**:
//!   URLs live here; the forward index stores a packed `(offset, len)` word
//!   that is swapped atomically on update (Figure 7).
//! - [`forward`] — the **forward index**: a growable array of fixed-field
//!   records (product id, sales, price, praise as atomic cells + the URL
//!   reference word), updated in place with no search/update conflict.
//! - [`vectors`] — append-only store of each image's feature vector,
//!   aligned with forward-index ids (the scan path needs raw features).
//! - [`inverted`] — the **IVF inverted lists** with the paper's pre-
//!   allocated slabs, per-list atomic tail positions (the auxiliary array
//!   of Figure 5) and lock-free double-size expansion with background copy
//!   (Figure 9).
//! - [`index`] — [`index::VisualIndex`] composing all of the above behind
//!   one coherent API.
//! - [`realtime`] — the **real-time indexer** applying
//!   [`jdvs_storage::ProductEvent`]s instantly (Figures 4/6/7/8).
//! - [`full`] — the **full indexer**: end-of-day message-log replay and
//!   from-scratch index construction (Figures 2/3).
//! - [`search`] — single-partition query evaluation: probe nearest
//!   centroids, scan lists, filter by validity, rank top-k.
//!
//! ## Example
//!
//! ```
//! use jdvs_core::config::IndexConfig;
//! use jdvs_core::index::VisualIndex;
//! use jdvs_storage::{ProductAttributes, ProductId};
//! use jdvs_vector::Vector;
//!
//! let config = IndexConfig { dim: 4, num_lists: 2, ..Default::default() };
//! let index = VisualIndex::bootstrap(
//!     config,
//!     &[Vector::from(vec![0.0, 0.0, 0.0, 0.0]), Vector::from(vec![1.0, 1.0, 1.0, 1.0])],
//! );
//! let attrs = ProductAttributes::new(ProductId(1), 10, 4999, 7, "sku1/0.jpg".into());
//! let id = index.insert(Vector::from(vec![0.1, 0.0, 0.1, 0.0]), attrs).unwrap();
//! let hits = index.search(&[0.1, 0.0, 0.1, 0.0], 1, 1);
//! assert_eq!(hits[0].id, id.as_u64());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bitmap;
pub mod buffer;
pub mod config;
pub mod directory;
pub mod error;
pub mod filter;
pub mod forward;
pub mod full;
pub mod ids;
pub mod index;
pub mod inverted;
pub mod persist;
pub mod pq_store;
pub mod realtime;
pub mod search;
pub mod stats;
pub mod swap;
pub(crate) mod sync;
pub mod vectors;

pub use config::IndexConfig;
pub use error::IndexError;
pub use filter::FilterSpec;
pub use ids::{ImageId, ListId};
pub use index::VisualIndex;
pub use realtime::RealtimeIndexer;
