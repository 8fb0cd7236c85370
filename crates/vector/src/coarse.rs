//! Hierarchical coarse quantizer: a navigable small-world graph over the
//! trained k-means centroids.
//!
//! At production scale the paper implies tens of thousands of IVF cells per
//! partition; there the flat `assign_multi` centroid scan (`O(k·dim)` per
//! query) becomes the dominant pre-kernel cost. [`CentroidGraph`] replaces it
//! with a best-first beam search over a small-world graph whose cost grows
//! roughly with `beam · degree · dim` — sub-linear in the list count — while
//! scoring candidates with the same runtime-dispatched SIMD distance kernel
//! as the flat scan.
//!
//! # Exactness contract
//!
//! The graph is built by inserting centroids in index order and keeping
//! **undirected, unpruned** links to each insertion's nearest neighbors, so
//! every node `i > 0` retains an edge to some node `j < i` and the graph is
//! connected by construction. Two consequences the rest of the engine relies
//! on:
//!
//! * At an **exhaustive beam** (`ef >= k`) the search drains the whole
//!   connected graph, computes each centroid's distance exactly once with
//!   the same kernel as the flat scan, and sorts by the same `(distance, id)`
//!   total order — the output is bit-identical to the flat scan (same lists,
//!   same order). The differential proptests in `jdvs-core` pin this.
//! * At a **bounded beam** the result is a sorted prefix of the candidates
//!   the search visited. For a fixed query and fixed effective beam the
//!   prefix is stable across `nprobe` values up to the beam width; callers
//!   that widen past the beam (nprobe escalation) deduplicate by list id
//!   rather than assuming prefix extension.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use crate::distance::squared_l2;
use crate::topk::Neighbor;
use crate::vector::Vector;

/// Number of nearest neighbors linked (undirected) when a centroid is
/// inserted into the graph. Unpruned: total edge storage is bounded by
/// `2 · k · BUILD_DEGREE` ids plus backlinks.
pub const BUILD_DEGREE: usize = 12;

/// Beam width used while *building* the graph (quality of the neighbor
/// lists, independent of the serving-time beam knob).
pub const BUILD_BEAM: usize = 48;

/// A navigable small-world graph over a centroid table, in CSR layout.
///
/// The graph is **derived data**: a deterministic function of the centroid
/// table (insertion order `0..k`, no randomness), so whoever holds the
/// centroids can rebuild it bit for bit instead of storing it. The trained
/// quantizers themselves are not derived: an index snapshot stores the
/// centroid table and the PQ codebook, and the graph is built from the
/// former.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CentroidGraph {
    /// `neighbors(i) = adjacency[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    adjacency: Vec<u32>,
    /// Search entry point: the medoid (centroid nearest the centroid mean).
    entry: u32,
    /// Serving-time beam width (`ef`). Searches use `max(beam, nprobe)`.
    beam: usize,
}

impl CentroidGraph {
    /// Builds the graph over `centroids` with serving beam width `beam`.
    ///
    /// Deterministic: identical centroid tables produce identical graphs.
    ///
    /// # Panics
    ///
    /// Panics if `centroids` is empty or `beam == 0`.
    pub fn build(centroids: &[Vector], beam: usize) -> Self {
        assert!(!centroids.is_empty(), "centroid table cannot be empty");
        assert!(beam > 0, "beam width must be positive");
        let k = centroids.len();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut scratch = GraphScratch::default();
        for i in 1..k {
            let degree = BUILD_DEGREE.min(i);
            // Search the partial graph over nodes 0..i for the new node's
            // nearest neighbors. Entry 0 is always present.
            let found = beam_search(
                centroids,
                &adj,
                |node, a| a[node].as_slice(),
                0,
                centroids[i].as_slice(),
                BUILD_BEAM.max(degree),
                false,
                &mut scratch,
            );
            for n in found.iter().take(degree) {
                let j = n.id as usize;
                adj[i].push(j as u32);
                adj[j].push(i as u32);
            }
        }
        // Entry point: medoid of the centroid table (nearest to the mean),
        // a central start that shortens average search paths.
        let dim = centroids[0].dim();
        let mut mean = Vector::zeros(dim);
        for c in centroids {
            mean.add_assign(c);
        }
        mean.scale(1.0 / k as f32);
        let mut entry = 0usize;
        let mut entry_d = f32::INFINITY;
        for (i, c) in centroids.iter().enumerate() {
            let d = squared_l2(c.as_slice(), mean.as_slice());
            if d < entry_d {
                entry = i;
                entry_d = d;
            }
        }
        // Flatten to CSR.
        let mut offsets = Vec::with_capacity(k + 1);
        let mut adjacency = Vec::with_capacity(adj.iter().map(Vec::len).sum());
        offsets.push(0u32);
        for list in &adj {
            adjacency.extend_from_slice(list);
            offsets.push(adjacency.len() as u32);
        }
        Self {
            offsets,
            adjacency,
            entry: entry as u32,
            beam,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns `true` if the graph has no nodes (never constructible via
    /// [`CentroidGraph::build`], provided for completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The serving-time beam width.
    pub fn beam(&self) -> usize {
        self.beam
    }

    /// Re-targets the serving-time beam width without rebuilding.
    ///
    /// # Panics
    ///
    /// Panics if `beam == 0`.
    pub fn set_beam(&mut self, beam: usize) {
        assert!(beam > 0, "beam width must be positive");
        self.beam = beam;
    }

    /// Bytes of adjacency structure (the memory-per-vector overhead the
    /// `repro coarse` experiment reports).
    pub fn memory_bytes(&self) -> usize {
        (self.offsets.len() + self.adjacency.len()) * std::mem::size_of::<u32>()
    }

    fn neighbors(&self, node: usize) -> &[u32] {
        &self.adjacency[self.offsets[node] as usize..self.offsets[node + 1] as usize]
    }

    /// The `nprobe` nearest centroids to `v` (closest first, `(distance, id)`
    /// order), searched with an effective beam of `max(self.beam, nprobe)`.
    /// When the effective beam reaches the node count the traversal is
    /// exhaustive and the result is bit-identical to the flat scan.
    pub fn assign_into(
        &self,
        centroids: &[Vector],
        v: &[f32],
        nprobe: usize,
        scratch: &mut GraphScratch,
        out: &mut Vec<usize>,
    ) {
        assert!(nprobe > 0, "nprobe must be positive");
        let ef = self.beam.max(nprobe);
        let exhaustive = ef >= self.len();
        let found = beam_search(
            centroids,
            self,
            |node, g| g.neighbors(node),
            self.entry as usize,
            v,
            ef,
            !exhaustive,
            scratch,
        );
        out.clear();
        out.extend(found.iter().take(nprobe).map(|n| n.id as usize));
    }

    /// Index of the (approximately, at bounded beam) nearest centroid.
    /// Allocation-free after warmup via a thread-local scratch.
    pub fn assign_one(&self, centroids: &[Vector], v: &[f32]) -> usize {
        SCRATCH.with(|cell| {
            let mut borrow = cell.borrow_mut();
            let (scratch, out) = &mut *borrow;
            self.assign_into(centroids, v, 1, scratch, out);
            out[0]
        })
    }
}

thread_local! {
    static SCRATCH: RefCell<(GraphScratch, Vec<usize>)> = RefCell::default();
}

/// Reusable buffers for [`CentroidGraph::assign_into`]; one per thread (or
/// embedded in a caller's scratch) makes searches allocation-free.
#[derive(Debug, Default, Clone)]
pub struct GraphScratch {
    /// `visited[node] == epoch` marks a node as seen this search.
    visited: Vec<u32>,
    epoch: u32,
    candidates: BinaryHeap<Reverse<Neighbor>>,
    results: BinaryHeap<Neighbor>,
    sorted: Vec<Neighbor>,
}

impl GraphScratch {
    fn begin(&mut self, nodes: usize) {
        if self.visited.len() < nodes {
            self.visited.resize(nodes, 0);
        }
        if self.epoch == u32::MAX {
            self.visited.iter_mut().for_each(|e| *e = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.candidates.clear();
        self.results.clear();
        self.sorted.clear();
    }
}

/// Best-first beam search from `entry` toward `query`, returning the `ef`
/// nearest visited nodes sorted by `(distance, id)`. With `prune == false`
/// the frontier is drained completely, visiting every node reachable from
/// `entry` (exhaustive mode). Generic over the adjacency source so the
/// builder can search its partial `Vec<Vec<u32>>` graph with the same code
/// that serves queries from the CSR layout.
#[allow(clippy::too_many_arguments)]
fn beam_search<'a, 's, A, F>(
    centroids: &[Vector],
    adjacency: &'a A,
    neighbors_of: F,
    entry: usize,
    query: &[f32],
    ef: usize,
    prune: bool,
    scratch: &'s mut GraphScratch,
) -> &'s [Neighbor]
where
    A: ?Sized,
    F: Fn(usize, &'a A) -> &'a [u32],
{
    scratch.begin(centroids.len());
    let epoch = scratch.epoch;
    scratch.visited[entry] = epoch;
    let start = Neighbor::new(entry as u64, squared_l2(centroids[entry].as_slice(), query));
    scratch.candidates.push(Reverse(start));
    scratch.results.push(start);
    while let Some(Reverse(current)) = scratch.candidates.pop() {
        if prune && scratch.results.len() >= ef {
            // The nearest unexpanded candidate is already worse than the
            // worst retained result: no closer node is reachable through it
            // (small-world heuristic), stop.
            let worst = scratch.results.peek().copied().unwrap_or(current);
            if current > worst {
                break;
            }
        }
        for &nb in neighbors_of(current.id as usize, adjacency) {
            let node = nb as usize;
            if scratch.visited[node] == epoch {
                continue;
            }
            scratch.visited[node] = epoch;
            let cand = Neighbor::new(node as u64, squared_l2(centroids[node].as_slice(), query));
            let admit = !prune
                || scratch.results.len() < ef
                || cand < *scratch.results.peek().expect("results non-empty");
            if admit {
                scratch.candidates.push(Reverse(cand));
                scratch.results.push(cand);
                if prune && scratch.results.len() > ef {
                    scratch.results.pop();
                }
            }
        }
    }
    scratch.sorted.extend(scratch.results.iter().copied());
    scratch.sorted.sort_unstable();
    scratch.sorted.truncate(ef);
    &scratch.sorted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn random_centroids(k: usize, dim: usize, seed: u64) -> Vec<Vector> {
        let mut rng = Xoshiro256::seed_from(seed);
        (0..k)
            .map(|_| {
                Vector::from(
                    (0..dim)
                        .map(|_| rng.next_gaussian() as f32)
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    fn flat_order(centroids: &[Vector], v: &[f32], nprobe: usize) -> Vec<usize> {
        let mut all: Vec<Neighbor> = centroids
            .iter()
            .enumerate()
            .map(|(i, c)| Neighbor::new(i as u64, squared_l2(c.as_slice(), v)))
            .collect();
        all.sort_unstable();
        all.truncate(nprobe);
        all.into_iter().map(|n| n.id as usize).collect()
    }

    #[test]
    fn graph_is_connected_by_construction() {
        let cents = random_centroids(300, 8, 7);
        let graph = CentroidGraph::build(&cents, 16);
        // BFS from the entry must reach every node.
        let mut seen = vec![false; graph.len()];
        let mut stack = vec![graph.entry as usize];
        seen[graph.entry as usize] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for &nb in graph.neighbors(n) {
                if !seen[nb as usize] {
                    seen[nb as usize] = true;
                    count += 1;
                    stack.push(nb as usize);
                }
            }
        }
        assert_eq!(count, graph.len());
    }

    #[test]
    fn exhaustive_beam_matches_flat_scan_exactly() {
        for (k, dim, seed) in [(1usize, 4usize, 1u64), (17, 3, 2), (96, 8, 3), (257, 16, 4)] {
            let cents = random_centroids(k, dim, seed);
            let graph = CentroidGraph::build(&cents, k.max(1));
            let mut scratch = GraphScratch::default();
            let mut out = Vec::new();
            let mut rng = Xoshiro256::seed_from(seed ^ 0xABCD);
            for _ in 0..10 {
                let q: Vec<f32> = (0..dim).map(|_| rng.next_gaussian() as f32).collect();
                for nprobe in [1usize, 2, k / 2 + 1, k, k + 5] {
                    graph.assign_into(&cents, &q, nprobe, &mut scratch, &mut out);
                    assert_eq!(out, flat_order(&cents, &q, nprobe), "k={k} nprobe={nprobe}");
                }
            }
        }
    }

    #[test]
    fn bounded_beam_has_high_top1_recall() {
        let cents = random_centroids(1000, 16, 11);
        let graph = CentroidGraph::build(&cents, 32);
        let mut scratch = GraphScratch::default();
        let mut out = Vec::new();
        let mut rng = Xoshiro256::seed_from(99);
        let mut hits = 0;
        let trials = 200;
        for _ in 0..trials {
            let q: Vec<f32> = (0..16).map(|_| rng.next_gaussian() as f32).collect();
            graph.assign_into(&cents, &q, 1, &mut scratch, &mut out);
            if out[0] == flat_order(&cents, &q, 1)[0] {
                hits += 1;
            }
        }
        assert!(
            hits >= trials * 9 / 10,
            "top-1 recall too low: {hits}/{trials}"
        );
    }

    #[test]
    fn build_is_deterministic() {
        let cents = random_centroids(128, 8, 21);
        let a = CentroidGraph::build(&cents, 8);
        let b = CentroidGraph::build(&cents, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn assign_one_matches_assign_into() {
        let cents = random_centroids(200, 8, 31);
        let graph = CentroidGraph::build(&cents, 16);
        let mut scratch = GraphScratch::default();
        let mut out = Vec::new();
        let mut rng = Xoshiro256::seed_from(5);
        for _ in 0..20 {
            let q: Vec<f32> = (0..8).map(|_| rng.next_gaussian() as f32).collect();
            graph.assign_into(&cents, &q, 1, &mut scratch, &mut out);
            assert_eq!(graph.assign_one(&cents, &q), out[0]);
        }
    }

    #[test]
    fn single_node_graph_works() {
        let cents = random_centroids(1, 4, 41);
        let graph = CentroidGraph::build(&cents, 4);
        let mut scratch = GraphScratch::default();
        let mut out = Vec::new();
        graph.assign_into(&cents, &[0.0; 4], 1, &mut scratch, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn memory_is_bounded_by_build_degree() {
        let cents = random_centroids(500, 8, 51);
        let graph = CentroidGraph::build(&cents, 16);
        // Undirected insertion edges: at most 2 · k · BUILD_DEGREE entries.
        assert!(graph.adjacency.len() <= 2 * 500 * BUILD_DEGREE);
        assert!(graph.memory_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "beam width must be positive")]
    fn zero_beam_panics() {
        CentroidGraph::build(&random_centroids(4, 2, 61), 0);
    }
}
