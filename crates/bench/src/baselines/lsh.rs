//! Locality-sensitive hashing baseline.
//!
//! The paper's related work (refs \[21, 22\]: multi-probe LSH, Gionis et
//! al.) positions hashing as the classic alternative to IVF-style
//! clustering for high-dimensional similarity search. We implement
//! random-hyperplane LSH with multi-probe querying as the **comparison
//! baseline** for the `ablate-lsh` experiment: same insert/search contract
//! as the inverted index, different partitioning of the space.
//!
//! Design: `L` independent hash tables; each hashes a vector to a
//! `bits`-bit signature via signed random projections. A query probes its
//! own bucket in every table, plus (multi-probe) the buckets at Hamming
//! distance 1 in signature space, ranked by projection margin.

use std::collections::HashMap;

use parking_lot::RwLock;

use jdvs_vector::distance::{dot, squared_l2};
use jdvs_vector::rng::Xoshiro256;
use jdvs_vector::topk::{Neighbor, TopK};
use jdvs_vector::Vector;

/// Configuration for [`LshIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LshConfig {
    /// Feature dimensionality.
    pub dim: usize,
    /// Number of independent hash tables `L`.
    pub tables: usize,
    /// Signature bits per table (buckets per table = `2^bits`).
    pub bits: usize,
    /// Seed for the random hyperplanes.
    pub seed: u64,
}

impl Default for LshConfig {
    fn default() -> Self {
        Self {
            dim: 64,
            tables: 8,
            bits: 12,
            seed: 0x15A4,
        }
    }
}

struct Table {
    // One hyperplane per signature bit.
    hyperplanes: Vec<Vector>,
    buckets: RwLock<HashMap<u32, Vec<u64>>>,
}

impl Table {
    /// Signature and per-bit projection margins (for multi-probe ranking).
    fn signature(&self, v: &[f32]) -> (u32, Vec<f32>) {
        let mut sig = 0u32;
        let mut margins = Vec::with_capacity(self.hyperplanes.len());
        for (bit, h) in self.hyperplanes.iter().enumerate() {
            let p = dot(h.as_slice(), v);
            if p >= 0.0 {
                sig |= 1 << bit;
            }
            margins.push(p.abs());
        }
        (sig, margins)
    }
}

/// A multi-table, multi-probe LSH index storing `(id, vector)` pairs.
///
/// # Example
///
/// ```
/// use jdvs_bench::baselines::lsh::{LshConfig, LshIndex};
/// use jdvs_vector::Vector;
///
/// let index = LshIndex::new(LshConfig { dim: 4, tables: 4, bits: 6, seed: 1 });
/// index.insert(7, &Vector::from(vec![1.0, 0.0, 0.0, 0.0]));
/// let hits = index.search(&[1.0, 0.0, 0.0, 0.0], 1, 1);
/// assert_eq!(hits[0].id, 7);
/// ```
pub struct LshIndex {
    config: LshConfig,
    tables: Vec<Table>,
    vectors: RwLock<HashMap<u64, Vector>>,
}

impl std::fmt::Debug for LshIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LshIndex")
            .field("tables", &self.tables.len())
            .field("bits", &self.config.bits)
            .field("len", &self.vectors.read().len())
            .finish()
    }
}

impl LshIndex {
    /// Creates an index.
    ///
    /// # Panics
    ///
    /// Panics if any config field is zero or `bits > 24`.
    pub fn new(config: LshConfig) -> Self {
        assert!(config.dim > 0, "dim must be positive");
        assert!(config.tables > 0, "tables must be positive");
        assert!(
            config.bits > 0 && config.bits <= 24,
            "bits must be in 1..=24"
        );
        let mut rng = Xoshiro256::seed_from(config.seed);
        let tables = (0..config.tables)
            .map(|_| {
                let hyperplanes = (0..config.bits)
                    .map(|_| {
                        let mut data = vec![0.0f32; config.dim];
                        rng.fill_gaussian(&mut data);
                        Vector::from(data)
                    })
                    .collect();
                Table {
                    hyperplanes,
                    buckets: RwLock::new(HashMap::new()),
                }
            })
            .collect();
        Self {
            config,
            tables,
            vectors: RwLock::new(HashMap::new()),
        }
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.vectors.read().len()
    }

    /// Returns `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.vectors.read().is_empty()
    }

    /// Inserts a vector under `id` (replacing any previous vector for the
    /// same id in the raw store; old bucket entries are tombstoned by the
    /// id lookup at search time).
    ///
    /// # Panics
    ///
    /// Panics if the vector dimension differs from the config.
    pub fn insert(&self, id: u64, v: &Vector) {
        assert_eq!(v.dim(), self.config.dim, "dimension mismatch");
        for table in &self.tables {
            let (sig, _) = table.signature(v.as_slice());
            table.buckets.write().entry(sig).or_default().push(id);
        }
        self.vectors.write().insert(id, v.clone());
    }

    /// Searches for the `k` nearest neighbors, probing each table's home
    /// bucket plus the `probes - 1` best flip-one-bit buckets (multi-probe
    /// LSH, ref \[21\]).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `probes == 0`, or the query dimension differs.
    pub fn search(&self, query: &[f32], k: usize, probes: usize) -> Vec<Neighbor> {
        assert!(k > 0, "k must be positive");
        assert!(probes > 0, "probes must be positive");
        assert_eq!(query.len(), self.config.dim, "query dimension mismatch");
        let vectors = self.vectors.read();
        let mut topk = TopK::new(k);
        let mut seen = std::collections::HashSet::new();
        for table in &self.tables {
            let (sig, margins) = table.signature(query);
            // Probe sequence: the home bucket, then buckets differing in
            // the lowest-margin bits (most likely to hold near misses).
            let mut bit_order: Vec<usize> = (0..self.config.bits).collect();
            bit_order.sort_by(|&a, &b| {
                margins[a]
                    .partial_cmp(&margins[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let buckets = table.buckets.read();
            for p in 0..probes.min(self.config.bits + 1) {
                let probe_sig = if p == 0 {
                    sig
                } else {
                    sig ^ (1 << bit_order[p - 1])
                };
                if let Some(ids) = buckets.get(&probe_sig) {
                    for &id in ids {
                        if !seen.insert(id) {
                            continue;
                        }
                        if let Some(v) = vectors.get(&id) {
                            topk.push(id, squared_l2(query, v.as_slice()));
                        }
                    }
                }
            }
        }
        topk.into_sorted_vec()
    }

    /// Exact search over everything stored (ground truth for recall).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the query dimension differs.
    pub fn brute_force(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        assert!(k > 0, "k must be positive");
        assert_eq!(query.len(), self.config.dim, "query dimension mismatch");
        let vectors = self.vectors.read();
        let mut topk = TopK::new(k);
        for (&id, v) in vectors.iter() {
            topk.push(id, squared_l2(query, v.as_slice()));
        }
        topk.into_sorted_vec()
    }

    /// Total bucket entries across tables (memory/selectivity diagnostic).
    pub fn total_bucket_entries(&self) -> usize {
        self.tables
            .iter()
            .map(|t| t.buckets.read().values().map(Vec::len).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered_data(n_per: usize, centers: usize, dim: usize, seed: u64) -> Vec<(u64, Vector)> {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut out = Vec::new();
        let mut id = 0u64;
        for c in 0..centers {
            let center: Vec<f32> = (0..dim).map(|_| rng.next_gaussian() as f32 * 3.0).collect();
            for _ in 0..n_per {
                let v: Vec<f32> = center
                    .iter()
                    .map(|x| x + rng.next_gaussian() as f32 * 0.2)
                    .collect();
                out.push((id, Vector::from(v)));
                id += 1;
            }
            let _ = c;
        }
        out
    }

    #[test]
    fn exact_duplicate_is_found() {
        let index = LshIndex::new(LshConfig {
            dim: 8,
            tables: 4,
            bits: 8,
            seed: 1,
        });
        let data = clustered_data(20, 3, 8, 2);
        for (id, v) in &data {
            index.insert(*id, v);
        }
        for (id, v) in data.iter().take(10) {
            let hits = index.search(v.as_slice(), 1, 2);
            assert_eq!(hits[0].id, *id, "identical vector hashes identically");
            assert!(hits[0].distance < 1e-9);
        }
    }

    #[test]
    fn recall_improves_with_probes() {
        let index = LshIndex::new(LshConfig {
            dim: 16,
            tables: 6,
            bits: 10,
            seed: 3,
        });
        let data = clustered_data(50, 8, 16, 4);
        for (id, v) in &data {
            index.insert(*id, v);
        }
        let mut recalls = Vec::new();
        for probes in [1usize, 4, 10] {
            let mut total = 0.0;
            for (_, v) in data.iter().take(30) {
                let got = index.search(v.as_slice(), 5, probes);
                let truth = index.brute_force(v.as_slice(), 5);
                let got_ids: std::collections::HashSet<u64> = got.iter().map(|n| n.id).collect();
                let hit = truth.iter().filter(|n| got_ids.contains(&n.id)).count();
                total += hit as f64 / truth.len() as f64;
            }
            recalls.push(total / 30.0);
        }
        assert!(recalls[0] <= recalls[1] + 1e-9);
        assert!(recalls[1] <= recalls[2] + 1e-9);
        assert!(recalls[2] > 0.5, "multi-probe recall too low: {recalls:?}");
    }

    #[test]
    fn results_are_sorted_and_unique() {
        let index = LshIndex::new(LshConfig {
            dim: 8,
            tables: 8,
            bits: 6,
            seed: 5,
        });
        let data = clustered_data(30, 4, 8, 6);
        for (id, v) in &data {
            index.insert(*id, v);
        }
        let hits = index.search(data[0].1.as_slice(), 10, 4);
        for w in hits.windows(2) {
            assert!(w[0].distance <= w[1].distance);
            assert_ne!(w[0].id, w[1].id);
        }
    }

    #[test]
    fn brute_force_is_exact_ground_truth() {
        let index = LshIndex::new(LshConfig {
            dim: 4,
            tables: 2,
            bits: 4,
            seed: 7,
        });
        index.insert(1, &Vector::from(vec![0.0, 0.0, 0.0, 1.0]));
        index.insert(2, &Vector::from(vec![0.0, 0.0, 1.0, 0.0]));
        index.insert(3, &Vector::from(vec![5.0, 5.0, 5.0, 5.0]));
        let hits = index.brute_force(&[0.0, 0.0, 0.0, 0.9], 2);
        assert_eq!(hits[0].id, 1);
        assert_eq!(hits[1].id, 2);
    }

    #[test]
    fn len_and_bucket_accounting() {
        let index = LshIndex::new(LshConfig {
            dim: 4,
            tables: 3,
            bits: 4,
            seed: 9,
        });
        assert!(index.is_empty());
        for i in 0..10u64 {
            index.insert(i, &Vector::from(vec![i as f32, 0.0, 0.0, 0.0]));
        }
        assert_eq!(index.len(), 10);
        assert_eq!(
            index.total_bucket_entries(),
            30,
            "one entry per table per vector"
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_insert_panics() {
        let index = LshIndex::new(LshConfig {
            dim: 4,
            ..Default::default()
        });
        index.insert(1, &Vector::from(vec![1.0, 2.0]));
    }

    #[test]
    #[should_panic(expected = "bits must be in 1..=24")]
    fn oversized_bits_panics() {
        LshIndex::new(LshConfig {
            bits: 30,
            ..Default::default()
        });
    }
}
