//! Bounded top-k selection.
//!
//! Every level of the search hierarchy keeps "the k closest so far": a
//! searcher while scanning inverted lists, a broker while merging partial
//! results from its searchers, and the blender while merging broker results.
//! [`TopK`] is a bounded max-heap over distances — `push` is `O(log k)` and
//! rejects non-improving candidates in `O(1)` once the heap is full.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

/// A candidate result: an opaque 64-bit id and its distance to the query
/// ("smaller is closer").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Neighbor {
    /// Caller-defined identifier (jdvs uses the global image id).
    pub id: u64,
    /// Distance to the query under the active metric.
    pub distance: f32,
}

impl Neighbor {
    /// Creates a neighbor.
    pub fn new(id: u64, distance: f32) -> Self {
        Self { id, distance }
    }
}

impl Eq for Neighbor {}

impl Ord for Neighbor {
    /// Orders by distance, breaking ties by id so that ordering is total and
    /// deterministic even with equal distances. NaN distances sort last
    /// (treated as farthest).
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.distance.is_nan(), other.distance.is_nan()) {
            (true, true) => self.id.cmp(&other.id),
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => self
                .distance
                .partial_cmp(&other.distance)
                .unwrap_or(Ordering::Equal)
                .then_with(|| self.id.cmp(&other.id)),
        }
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Bounded collector of the `k` nearest neighbors seen so far.
///
/// # Example
///
/// ```
/// use jdvs_vector::topk::TopK;
///
/// let mut topk = TopK::new(2);
/// topk.push(1, 5.0);
/// topk.push(2, 1.0);
/// topk.push(3, 3.0);
/// let ids: Vec<u64> = topk.into_sorted_vec().into_iter().map(|n| n.id).collect();
/// assert_eq!(ids, vec![2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    // Max-heap: the root is the *worst* of the current best-k, so an
    // improving candidate replaces the root in O(log k).
    heap: BinaryHeap<Neighbor>,
}

impl TopK {
    /// Creates a collector that retains the `k` nearest candidates.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`; an empty result budget is always a caller bug.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// The configured capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of candidates currently held (`<= k`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no candidate has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Returns `true` if the collector holds `k` candidates.
    pub fn is_full(&self) -> bool {
        self.heap.len() == self.k
    }

    /// The current k-th (worst retained) distance, or `f32::INFINITY` while
    /// fewer than `k` candidates have been accepted. Scan loops use this as
    /// a pruning threshold.
    pub fn threshold(&self) -> f32 {
        if self.is_full() {
            self.heap
                .peek()
                .map(|n| n.distance)
                .unwrap_or(f32::INFINITY)
        } else {
            f32::INFINITY
        }
    }

    /// Returns `true` if a candidate at `distance` *could* be retained —
    /// the block-scan pruning test: when it returns `false` the caller can
    /// skip building the [`Neighbor`] and touching the heap entirely. A
    /// `true` answer is conservative (an equal-distance candidate may still
    /// lose the id tie-break inside [`TopK::push`]).
    #[inline]
    pub fn would_accept(&self, distance: f32) -> bool {
        self.heap.len() < self.k
            || self
                .heap
                .peek()
                .is_none_or(|worst| distance <= worst.distance)
    }

    /// Offers a candidate; returns `true` if it was retained.
    pub fn push(&mut self, id: u64, distance: f32) -> bool {
        self.push_neighbor(Neighbor::new(id, distance))
    }

    /// Offers an existing [`Neighbor`]; returns `true` if it was retained.
    pub fn push_neighbor(&mut self, n: Neighbor) -> bool {
        if self.heap.len() < self.k {
            self.heap.push(n);
            return true;
        }
        // Full: replace the current worst only if strictly better — in
        // place, one sift down.
        match self.heap.peek_mut() {
            Some(mut worst) if n < *worst => {
                *worst = n;
                true
            }
            _ => false,
        }
    }

    /// Merges every retained candidate of `other` into `self`. Used by
    /// brokers/blenders to combine partial results.
    pub fn merge(&mut self, other: TopK) {
        for n in other.heap {
            self.push_neighbor(n);
        }
    }

    /// Consumes the collector, returning neighbors sorted nearest-first.
    pub fn into_sorted_vec(self) -> Vec<Neighbor> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }
}

impl Extend<Neighbor> for TopK {
    fn extend<I: IntoIterator<Item = Neighbor>>(&mut self, iter: I) {
        for n in iter {
            self.push_neighbor(n);
        }
    }
}

/// Convenience: selects the `k` nearest neighbors from an iterator of
/// `(id, distance)` pairs, sorted nearest-first.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn select_topk<I: IntoIterator<Item = (u64, f32)>>(k: usize, items: I) -> Vec<Neighbor> {
    let mut topk = TopK::new(k);
    for (id, d) in items {
        topk.push(id, d);
    }
    topk.into_sorted_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_smallest() {
        let got = select_topk(3, (0..100u64).map(|i| (i, (100 - i) as f32)));
        let ids: Vec<u64> = got.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![99, 98, 97]);
    }

    #[test]
    fn fewer_than_k_returns_all_sorted() {
        let got = select_topk(10, vec![(1, 3.0), (2, 1.0)]);
        let ids: Vec<u64> = got.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![2, 1]);
    }

    #[test]
    fn threshold_tracks_worst_retained() {
        let mut topk = TopK::new(2);
        assert_eq!(topk.threshold(), f32::INFINITY);
        topk.push(1, 5.0);
        assert_eq!(topk.threshold(), f32::INFINITY, "not full yet");
        topk.push(2, 3.0);
        assert_eq!(topk.threshold(), 5.0);
        topk.push(3, 1.0);
        assert_eq!(topk.threshold(), 3.0);
    }

    #[test]
    fn rejects_non_improving_when_full() {
        let mut topk = TopK::new(1);
        assert!(topk.push(1, 1.0));
        assert!(!topk.push(2, 2.0));
        assert!(!topk.push(3, 1.0), "equal distance does not evict");
        assert!(topk.push(4, 0.5));
        let got = topk.into_sorted_vec();
        assert_eq!(got[0].id, 4);
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut a = TopK::new(3);
        let mut b = TopK::new(3);
        for (i, d) in [(1u64, 9.0f32), (2, 2.0), (3, 7.0)] {
            a.push(i, d);
        }
        for (i, d) in [(4u64, 1.0f32), (5, 8.0), (6, 3.0)] {
            b.push(i, d);
        }
        a.merge(b);
        let ids: Vec<u64> = a.into_sorted_vec().into_iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![4, 2, 6]);
    }

    #[test]
    fn would_accept_agrees_with_push_when_strict() {
        let mut topk = TopK::new(2);
        assert!(
            topk.would_accept(f32::INFINITY),
            "not full: accept anything"
        );
        topk.push(1, 1.0);
        topk.push(2, 3.0);
        assert!(topk.would_accept(2.0));
        assert!(!topk.would_accept(4.0));
        // Equal distance: conservative `true`; push decides by id tie-break.
        assert!(topk.would_accept(3.0));
        assert!(topk.push(0, 3.0), "smaller id wins the tie");
        assert!(!topk.push(9, 3.0), "larger id loses the tie");
        assert!(!topk.would_accept(f32::NAN), "NaN never beats a full heap");
    }

    #[test]
    fn nan_distances_sort_last() {
        let got = select_topk(3, vec![(1, f32::NAN), (2, 1.0), (3, 2.0)]);
        let ids: Vec<u64> = got.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![2, 3, 1]);
    }

    #[test]
    fn ties_break_by_id_deterministically() {
        let got = select_topk(2, vec![(9, 1.0), (3, 1.0), (5, 1.0)]);
        let ids: Vec<u64> = got.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 5]);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        TopK::new(0);
    }

    #[test]
    fn extend_accepts_neighbors() {
        let mut topk = TopK::new(2);
        topk.extend(vec![Neighbor::new(1, 2.0), Neighbor::new(2, 1.0)]);
        assert_eq!(topk.len(), 2);
    }
}
