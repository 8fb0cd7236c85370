//! K-means clustering: the coarse quantizer behind the inverted index.
//!
//! Section 2.2 of the paper: *"The k-mean algorithm on a set of training
//! data set (i.e., image features) is used to generate the classification"*
//! — each of the N inverted lists corresponds to one k-means centroid, and
//! an image is filed under the list of its nearest centroid.
//!
//! The implementation is standard Lloyd iteration with k-means++ seeding,
//! deterministic given the config seed, plus empty-cluster repair (an empty
//! cluster steals the point farthest from its current centroid, which keeps
//! all N inverted lists non-degenerate).

use serde::{Deserialize, Serialize};

use crate::coarse::{CentroidGraph, GraphScratch};
use crate::distance::squared_l2;
use crate::rng::Xoshiro256;
use crate::vector::Vector;

/// Configuration for [`Kmeans::train`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KmeansConfig {
    /// Number of clusters (= number of inverted lists, the paper's `N`).
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Stop early when the relative inertia improvement between iterations
    /// falls below this threshold.
    pub tolerance: f64,
    /// Seed for k-means++ initialization.
    pub seed: u64,
    /// Imbalance control: when `> 0`, each Lloyd iteration reseats the
    /// centroids of the smallest clusters onto the farthest members of
    /// clusters whose population exceeds `balance_factor ×` the mean count,
    /// splitting hot cells so no inverted list dominates tail latency at
    /// 10k+ lists. `0.0` disables rebalancing (plain Lloyd).
    #[serde(default)]
    pub balance_factor: f64,
}

impl Default for KmeansConfig {
    fn default() -> Self {
        Self {
            k: 256,
            max_iters: 25,
            tolerance: 1e-4,
            seed: 0x5EED,
            balance_factor: 0.0,
        }
    }
}

/// A trained k-means model: the centroid table used as the IVF coarse
/// quantizer.
///
/// # Example
///
/// ```
/// use jdvs_vector::{Vector, kmeans::{Kmeans, KmeansConfig}};
///
/// let data: Vec<Vector> = (0..64)
///     .map(|i| Vector::from(vec![if i % 2 == 0 { 0.0 } else { 10.0 }, i as f32 * 1e-3]))
///     .collect();
/// let model = Kmeans::train(&data, &KmeansConfig { k: 2, ..Default::default() });
/// let a = model.assign(data[0].as_slice());
/// let b = model.assign(data[2].as_slice());
/// assert_eq!(a, b, "points in the same blob share a cluster");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Kmeans {
    centroids: Vec<Vector>,
    dim: usize,
    /// Optional hierarchical coarse index over the centroids. Derived data:
    /// rebuilt deterministically from the centroid table, never required for
    /// correctness — absent, assignment falls back to the flat scan.
    #[serde(default)]
    coarse: Option<CentroidGraph>,
}

impl Kmeans {
    /// Trains a model on `data`.
    ///
    /// If `data.len() < k`, the effective `k` is reduced to `data.len()` —
    /// a tiny bootstrap catalog must still produce a valid (if degenerate)
    /// quantizer.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, if `config.k == 0`, or if vectors have
    /// inconsistent dimensions.
    pub fn train(data: &[Vector], config: &KmeansConfig) -> Self {
        assert!(!data.is_empty(), "cannot train k-means on empty data");
        assert!(config.k > 0, "k must be positive");
        let dim = data[0].dim();
        for v in data {
            assert_eq!(v.dim(), dim, "training vectors must share a dimension");
        }
        let k = config.k.min(data.len());
        let mut rng = Xoshiro256::seed_from(config.seed);
        let mut centroids = plus_plus_init(data, k, &mut rng);

        let mut assignments = vec![0usize; data.len()];
        let mut inertia = f64::INFINITY;
        for _ in 0..config.max_iters.max(1) {
            // Assignment step.
            let mut new_inertia = 0.0f64;
            for (i, v) in data.iter().enumerate() {
                let (best, d) = nearest(&centroids, v.as_slice());
                assignments[i] = best;
                new_inertia += d as f64;
            }
            // Update step.
            let mut sums = vec![Vector::zeros(dim); k];
            let mut counts = vec![0usize; k];
            for (v, &a) in data.iter().zip(&assignments) {
                sums[a].add_assign(v);
                counts[a] += 1;
            }
            for (c, (sum, count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
                if *count > 0 {
                    *c = sum.clone();
                    c.scale(1.0 / *count as f32);
                }
            }
            repair_empty_clusters(data, &assignments, &mut centroids, &counts);
            if config.balance_factor > 0.0 {
                split_oversized_clusters(
                    data,
                    &assignments,
                    &mut centroids,
                    &mut counts,
                    config.balance_factor,
                );
            }

            let improved = inertia.is_infinite()
                || inertia == 0.0
                || (inertia - new_inertia) / inertia > config.tolerance;
            inertia = new_inertia;
            if !improved {
                break;
            }
        }
        Self {
            centroids,
            dim,
            coarse: None,
        }
    }

    /// Builds a model directly from pre-computed centroids (used when a
    /// searcher receives the quantizer trained by the full indexer).
    ///
    /// # Panics
    ///
    /// Panics if `centroids` is empty or dimensions are inconsistent.
    pub fn from_centroids(centroids: Vec<Vector>) -> Self {
        assert!(!centroids.is_empty(), "centroid table cannot be empty");
        let dim = centroids[0].dim();
        for c in &centroids {
            assert_eq!(c.dim(), dim, "centroids must share a dimension");
        }
        Self {
            centroids,
            dim,
            coarse: None,
        }
    }

    /// Enables the hierarchical coarse quantizer: builds (or, if already
    /// built, re-targets to `beam`) a [`CentroidGraph`] over the centroid
    /// table. Subsequent [`Kmeans::assign`] / [`Kmeans::assign_multi`] calls
    /// route through graph beam search with an effective beam of
    /// `max(beam, nprobe)`; a beam at or above `k` degenerates to the flat
    /// scan's exact output.
    ///
    /// # Panics
    ///
    /// Panics if `beam == 0` (use [`Kmeans::without_coarse_graph`] to
    /// disable).
    pub fn with_coarse_graph(mut self, beam: usize) -> Self {
        assert!(beam > 0, "beam width must be positive");
        match &mut self.coarse {
            Some(graph) => graph.set_beam(beam),
            None => self.coarse = Some(CentroidGraph::build(&self.centroids, beam)),
        }
        self
    }

    /// Drops the centroid graph; assignment reverts to the flat scan.
    pub fn without_coarse_graph(mut self) -> Self {
        self.coarse = None;
        self
    }

    /// Borrows the centroid graph, if enabled.
    pub fn coarse_graph(&self) -> Option<&CentroidGraph> {
        self.coarse.as_ref()
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Dimensionality of the training data.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrows the centroid table.
    pub fn centroids(&self) -> &[Vector] {
        &self.centroids
    }

    /// Index of the nearest centroid to `v` — the inverted list an image
    /// with these features belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `v`'s dimension differs from the training dimension.
    pub fn assign(&self, v: &[f32]) -> usize {
        if let Some(graph) = &self.coarse {
            return graph.assign_one(&self.centroids, v);
        }
        nearest(&self.centroids, v).0
    }

    /// The `nprobe` nearest centroids to `v`, closest first. Searchers scan
    /// these lists (probing more than one list trades latency for recall).
    ///
    /// # Panics
    ///
    /// Panics if `nprobe == 0` or dimensions differ.
    pub fn assign_multi(&self, v: &[f32], nprobe: usize) -> Vec<usize> {
        let mut scratch = AssignScratch::default();
        let mut out = Vec::new();
        self.assign_multi_into(v, nprobe, &mut scratch, &mut out);
        out
    }

    /// Allocation-free [`Kmeans::assign_multi`]: writes the `nprobe` nearest
    /// centroid indices (closest first) into `out`, reusing `scratch` across
    /// calls. The serving hot path assigns once per query, so the per-call
    /// `Vec` churn of `assign_multi` is measurable at high QPS; with a
    /// warmed scratch this performs zero allocations.
    ///
    /// # Panics
    ///
    /// Panics if `nprobe == 0` or dimensions differ.
    pub fn assign_multi_into(
        &self,
        v: &[f32],
        nprobe: usize,
        scratch: &mut AssignScratch,
        out: &mut Vec<usize>,
    ) {
        assert!(nprobe > 0, "nprobe must be positive");
        if let Some(graph) = &self.coarse {
            graph.assign_into(&self.centroids, v, nprobe, &mut scratch.graph, out);
            return;
        }
        let candidates = &mut scratch.candidates;
        candidates.clear();
        for (i, c) in self.centroids.iter().enumerate() {
            candidates.push(crate::topk::Neighbor::new(
                i as u64,
                squared_l2(c.as_slice(), v),
            ));
        }
        let n = nprobe.min(candidates.len());
        // Same total order (distance, then id) as the TopK path, so the
        // selected cells and their order are identical.
        candidates.select_nth_unstable(n - 1);
        candidates.truncate(n);
        candidates.sort_unstable();
        out.clear();
        out.extend(candidates.iter().map(|c| c.id as usize));
    }
}

/// Reusable buffers for [`Kmeans::assign_multi_into`].
#[derive(Debug, Default, Clone)]
pub struct AssignScratch {
    candidates: Vec<crate::topk::Neighbor>,
    graph: GraphScratch,
}

fn nearest(centroids: &[Vector], v: &[f32]) -> (usize, f32) {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = squared_l2(c.as_slice(), v);
        if d < best_d {
            best = i;
            best_d = d;
        }
    }
    (best, best_d)
}

/// k-means++ seeding (Arthur & Vassilvitskii 2007): first centroid uniform,
/// each subsequent centroid sampled with probability proportional to the
/// squared distance to the nearest centroid chosen so far.
fn plus_plus_init(data: &[Vector], k: usize, rng: &mut Xoshiro256) -> Vec<Vector> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(data[rng.next_index(data.len())].clone());
    let mut dists: Vec<f32> = data
        .iter()
        .map(|v| squared_l2(v.as_slice(), centroids[0].as_slice()))
        .collect();
    while centroids.len() < k {
        let total: f64 = dists.iter().map(|&d| d as f64).sum();
        let chosen = if total <= 0.0 {
            // All points coincide with existing centroids; fall back to
            // uniform choice so we still emit k centroids.
            rng.next_index(data.len())
        } else {
            let mut target = rng.next_f64() * total;
            let mut idx = data.len() - 1;
            for (i, &d) in dists.iter().enumerate() {
                target -= d as f64;
                if target <= 0.0 {
                    idx = i;
                    break;
                }
            }
            idx
        };
        let c = data[chosen].clone();
        for (d, v) in dists.iter_mut().zip(data) {
            let nd = squared_l2(v.as_slice(), c.as_slice());
            if nd < *d {
                *d = nd;
            }
        }
        centroids.push(c);
    }
    centroids
}

/// Reseats empty clusters onto the point currently farthest from its own
/// centroid, so every inverted list stays usable.
fn repair_empty_clusters(
    data: &[Vector],
    assignments: &[usize],
    centroids: &mut [Vector],
    counts: &[usize],
) {
    for cluster in 0..centroids.len() {
        if counts[cluster] > 0 {
            continue;
        }
        let mut worst_idx = 0usize;
        let mut worst_d = -1.0f32;
        for (i, v) in data.iter().enumerate() {
            let d = squared_l2(v.as_slice(), centroids[assignments[i]].as_slice());
            if d > worst_d {
                worst_d = d;
                worst_idx = i;
            }
        }
        centroids[cluster] = data[worst_idx].clone();
    }
}

/// Imbalance-aware rebalancing: repeatedly reseats the centroid of the
/// smallest cluster onto the farthest member of the most oversized cluster
/// (population above `factor ×` the mean), approximately splitting the hot
/// cell in two. The next assignment step settles the real memberships; the
/// count bookkeeping here only steers which cells get split this pass.
/// Deterministic: all ties break toward the lower index.
fn split_oversized_clusters(
    data: &[Vector],
    assignments: &[usize],
    centroids: &mut [Vector],
    counts: &mut [usize],
    factor: f64,
) {
    let k = centroids.len();
    if k < 2 {
        return;
    }
    let mean = data.len() as f64 / k as f64;
    let cap = (factor * mean).ceil().max(1.0) as usize;
    for _ in 0..k {
        let (big, big_count) = counts
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(i, c)| (c, std::cmp::Reverse(i)))
            .expect("k >= 2");
        if big_count <= cap {
            break;
        }
        let (small, small_count) = counts
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(i, c)| (c, i))
            .expect("k >= 2");
        if small == big || small_count * 2 >= big_count {
            // No donor meaningfully smaller than the hot cell: splitting
            // would just move the imbalance around.
            break;
        }
        let mut far_idx = None;
        let mut far_d = -1.0f32;
        for (i, v) in data.iter().enumerate() {
            if assignments[i] != big {
                continue;
            }
            let d = squared_l2(v.as_slice(), centroids[big].as_slice());
            if d > far_d {
                far_d = d;
                far_idx = Some(i);
            }
        }
        let Some(far_idx) = far_idx else { break };
        centroids[small] = data[far_idx].clone();
        counts[small] = big_count / 2;
        counts[big] = big_count - big_count / 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn blobs(n_per: usize, centers: &[[f32; 2]], seed: u64) -> Vec<Vector> {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut out = Vec::new();
        for c in centers {
            for _ in 0..n_per {
                out.push(Vector::from(vec![
                    c[0] + rng.next_gaussian() as f32 * 0.1,
                    c[1] + rng.next_gaussian() as f32 * 0.1,
                ]));
            }
        }
        out
    }

    #[test]
    fn separates_well_separated_blobs() {
        let data = blobs(50, &[[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]], 1);
        let model = Kmeans::train(
            &data,
            &KmeansConfig {
                k: 3,
                seed: 2,
                ..Default::default()
            },
        );
        // All members of a blob should land in the same cluster.
        for blob in 0..3 {
            let first = model.assign(data[blob * 50].as_slice());
            for i in 0..50 {
                assert_eq!(model.assign(data[blob * 50 + i].as_slice()), first);
            }
        }
        // And distinct blobs in distinct clusters.
        let a = model.assign(data[0].as_slice());
        let b = model.assign(data[50].as_slice());
        let c = model.assign(data[100].as_slice());
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn training_is_deterministic() {
        let data = blobs(30, &[[0.0, 0.0], [5.0, 5.0]], 7);
        let cfg = KmeansConfig {
            k: 2,
            seed: 11,
            ..Default::default()
        };
        let m1 = Kmeans::train(&data, &cfg);
        let m2 = Kmeans::train(&data, &cfg);
        assert_eq!(m1.centroids(), m2.centroids());
    }

    #[test]
    fn k_clamped_to_data_len() {
        let data = blobs(1, &[[0.0, 0.0], [1.0, 1.0]], 3);
        let model = Kmeans::train(
            &data,
            &KmeansConfig {
                k: 100,
                ..Default::default()
            },
        );
        assert_eq!(model.k(), 2);
    }

    #[test]
    fn assign_matches_brute_force_nearest() {
        let data = blobs(40, &[[0.0, 0.0], [3.0, 3.0], [6.0, 0.0]], 9);
        let model = Kmeans::train(
            &data,
            &KmeansConfig {
                k: 5,
                seed: 4,
                ..Default::default()
            },
        );
        for v in &data {
            let assigned = model.assign(v.as_slice());
            let brute = model
                .centroids()
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    squared_l2(a.as_slice(), v.as_slice())
                        .partial_cmp(&squared_l2(b.as_slice(), v.as_slice()))
                        .unwrap()
                })
                .unwrap()
                .0;
            assert_eq!(assigned, brute);
        }
    }

    #[test]
    fn assign_multi_is_sorted_by_distance() {
        let data = blobs(40, &[[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]], 13);
        let model = Kmeans::train(
            &data,
            &KmeansConfig {
                k: 3,
                seed: 5,
                ..Default::default()
            },
        );
        let probes = model.assign_multi(&[0.0, 0.0], 3);
        assert_eq!(probes.len(), 3);
        let d = |i: usize| squared_l2(model.centroids()[i].as_slice(), &[0.0, 0.0]);
        assert!(d(probes[0]) <= d(probes[1]));
        assert!(d(probes[1]) <= d(probes[2]));
        assert_eq!(probes[0], model.assign(&[0.0, 0.0]));
    }

    #[test]
    fn assign_multi_into_matches_assign_multi() {
        let data = blobs(40, &[[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]], 17);
        let model = Kmeans::train(
            &data,
            &KmeansConfig {
                k: 6,
                seed: 3,
                ..Default::default()
            },
        );
        let mut scratch = AssignScratch::default();
        let mut out = Vec::new();
        for (i, q) in data.iter().enumerate().take(10) {
            for nprobe in [1usize, 3, 6, 99] {
                model.assign_multi_into(q.as_slice(), nprobe, &mut scratch, &mut out);
                assert_eq!(out, model.assign_multi(q.as_slice(), nprobe), "query {i}");
            }
        }
    }

    #[test]
    fn duplicate_points_still_yield_k_centroids() {
        let data = vec![Vector::from(vec![1.0, 1.0]); 20];
        let model = Kmeans::train(
            &data,
            &KmeansConfig {
                k: 4,
                ..Default::default()
            },
        );
        assert_eq!(model.k(), 4);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let data = blobs(50, &[[0.0, 0.0], [4.0, 4.0], [8.0, 0.0], [0.0, 8.0]], 21);
        let small = Kmeans::train(
            &data,
            &KmeansConfig {
                k: 1,
                seed: 1,
                ..Default::default()
            },
        );
        let large = Kmeans::train(
            &data,
            &KmeansConfig {
                k: 4,
                seed: 1,
                ..Default::default()
            },
        );
        let inertia = |model: &Kmeans| -> f64 {
            data.iter()
                .map(|v| f64::from(nearest(model.centroids(), v.as_slice()).1))
                .sum()
        };
        assert!(inertia(&large) < inertia(&small));
    }

    #[test]
    fn from_centroids_round_trip() {
        let cents = vec![Vector::from(vec![0.0, 0.0]), Vector::from(vec![1.0, 1.0])];
        let model = Kmeans::from_centroids(cents.clone());
        assert_eq!(model.k(), 2);
        assert_eq!(model.assign(&[0.9, 0.9]), 1);
        assert_eq!(model.centroids(), &cents[..]);
    }

    #[test]
    #[should_panic(expected = "empty data")]
    fn empty_data_panics() {
        Kmeans::train(&[], &KmeansConfig::default());
    }

    #[test]
    #[should_panic(expected = "nprobe must be positive")]
    fn zero_nprobe_panics() {
        let model = Kmeans::from_centroids(vec![Vector::from(vec![0.0])]);
        model.assign_multi(&[0.0], 0);
    }

    /// A skewed dataset: one dense blob plus scattered outliers, so plain
    /// Lloyd leaves one list holding almost everything.
    fn skewed(seed: u64) -> Vec<Vector> {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut out = Vec::new();
        for _ in 0..900 {
            out.push(Vector::from(vec![
                rng.next_gaussian() as f32 * 0.05,
                rng.next_gaussian() as f32 * 0.05,
            ]));
        }
        for _ in 0..100 {
            out.push(Vector::from(vec![
                rng.next_gaussian() as f32 * 20.0,
                rng.next_gaussian() as f32 * 20.0,
            ]));
        }
        out
    }

    fn max_list_population(model: &Kmeans, data: &[Vector]) -> usize {
        let mut counts = vec![0usize; model.k()];
        for v in data {
            counts[model.assign(v.as_slice())] += 1;
        }
        counts.into_iter().max().unwrap()
    }

    #[test]
    fn balance_factor_shrinks_hot_lists() {
        let data = skewed(77);
        let plain = Kmeans::train(
            &data,
            &KmeansConfig {
                k: 16,
                seed: 6,
                ..Default::default()
            },
        );
        let balanced = Kmeans::train(
            &data,
            &KmeansConfig {
                k: 16,
                seed: 6,
                balance_factor: 2.0,
                ..Default::default()
            },
        );
        let hot_plain = max_list_population(&plain, &data);
        let hot_balanced = max_list_population(&balanced, &data);
        assert!(
            hot_balanced < hot_plain,
            "balanced hot list {hot_balanced} should shrink below plain {hot_plain}"
        );
    }

    #[test]
    fn balanced_training_is_deterministic() {
        let data = skewed(78);
        let cfg = KmeansConfig {
            k: 8,
            seed: 12,
            balance_factor: 1.5,
            ..Default::default()
        };
        assert_eq!(
            Kmeans::train(&data, &cfg).centroids(),
            Kmeans::train(&data, &cfg).centroids()
        );
    }

    #[test]
    fn graph_assign_multi_exhaustive_matches_flat() {
        let data = blobs(60, &[[0.0, 0.0], [4.0, 4.0], [8.0, 0.0]], 91);
        let flat = Kmeans::train(
            &data,
            &KmeansConfig {
                k: 12,
                seed: 9,
                ..Default::default()
            },
        );
        let graphed = flat.clone().with_coarse_graph(flat.k());
        let mut scratch = AssignScratch::default();
        let mut out = Vec::new();
        for q in data.iter().take(30) {
            for nprobe in [1usize, 3, 12, 40] {
                graphed.assign_multi_into(q.as_slice(), nprobe, &mut scratch, &mut out);
                assert_eq!(out, flat.assign_multi(q.as_slice(), nprobe));
            }
            assert_eq!(graphed.assign(q.as_slice()), flat.assign(q.as_slice()));
        }
    }

    #[test]
    fn coarse_graph_round_trips_through_enable_disable() {
        let data = blobs(40, &[[0.0, 0.0], [5.0, 5.0]], 93);
        let flat = Kmeans::train(
            &data,
            &KmeansConfig {
                k: 6,
                seed: 2,
                ..Default::default()
            },
        );
        let graphed = flat.clone().with_coarse_graph(4);
        assert_eq!(graphed.coarse_graph().map(|g| g.beam()), Some(4));
        let retargeted = graphed.clone().with_coarse_graph(8);
        assert_eq!(retargeted.coarse_graph().map(|g| g.beam()), Some(8));
        let back = graphed.without_coarse_graph();
        assert!(back.coarse_graph().is_none());
        assert_eq!(back, flat);
    }
}
