//! # jdvs-vector
//!
//! Dense vector primitives for the jdvs visual search system: owned feature
//! vectors, distance kernels, bounded top-k selection, k-means clustering
//! (used to train the IVF coarse quantizer of the inverted index) and
//! product quantization (the compressed-scan mode referenced by the paper's
//! related work \[19\]).
//!
//! Everything in this crate is deterministic: all randomized routines take a
//! seed or an explicit [`rng::SplitMix64`]/[`rng::Xoshiro256`] generator, so
//! index builds and experiments are reproducible run-to-run.
//!
//! ## Example
//!
//! ```
//! use jdvs_vector::{Vector, distance, topk::TopK};
//!
//! let query = Vector::from(vec![1.0, 0.0]);
//! let candidates = [
//!     Vector::from(vec![0.9, 0.1]),
//!     Vector::from(vec![-1.0, 0.0]),
//!     Vector::from(vec![1.0, 0.05]),
//! ];
//! let mut topk = TopK::new(2);
//! for (i, c) in candidates.iter().enumerate() {
//!     topk.push(i as u64, distance::squared_l2(query.as_slice(), c.as_slice()));
//! }
//! let best: Vec<u64> = topk.into_sorted_vec().into_iter().map(|n| n.id).collect();
//! assert_eq!(best, vec![2, 0]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coarse;
pub mod distance;
pub mod kmeans;
pub mod pq;
pub mod rng;
pub mod simd;
pub mod topk;
pub mod vector;

pub use coarse::CentroidGraph;
pub use distance::DistanceMetric;
pub use kmeans::{Kmeans, KmeansConfig};
pub use pq::ProductQuantizer;
pub use topk::{Neighbor, TopK};
pub use vector::Vector;
