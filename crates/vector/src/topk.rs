//! Bounded top-k selection.
//!
//! Every level of the search hierarchy keeps "the k closest so far": a
//! searcher while scanning inverted lists, a broker while merging partial
//! results from its searchers, and the blender while merging broker results.
//! [`TopK`] is a reservoir: an unordered buffer of up to `2k` candidates. A
//! push that beats the k-th best of the last compaction is an append, one
//! that does not is rejected by one compare; when the buffer reaches `2k`,
//! a linear-time selection keeps the k best and makes the new k-th the
//! threshold. Pushes are `O(1)` amortized and touch no ordered structure —
//! the shape the fast-scan's candidate path wants (large `k`, a burst of
//! early accepts, then rejects) — and the result is the same set a heap
//! would keep: the k least of everything offered, by the total
//! (distance, id) order below.

use std::cmp::Ordering;

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

    /// The total order below as an integer pair, so that comparing two
    /// neighbors costs no float compare and no NaN branch.
    #[inline]
    fn order_key(&self) -> (u32, u64) {
        (order_bits(self.distance), self.id)
    }
}

/// A distance's bits mapped monotonically onto `u32` for [`Neighbor`]'s
/// order: negatives flipped, positives offset, `-0.0` folded into `0.0`
/// (which it equals), every NaN mapped past `+inf`.
#[inline]
fn order_bits(distance: f32) -> u32 {
    if distance.is_nan() {
        return u32::MAX;
    }
    let b = (distance + 0.0).to_bits();
    if b >> 31 == 1 {
        !b
    } else {
        b | 1 << 31
    }
}

impl Eq for Neighbor {}

impl Ord for Neighbor {
    /// Orders by distance, breaking ties by id so that ordering is total and
    /// deterministic even with equal distances. NaN distances sort last
    /// (treated as farthest).
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.order_key().cmp(&other.order_key())
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
    // Unordered, at most `2k` long, and always a superset of the k best
    // candidates offered so far: a candidate is appended only if it beats
    // `kth`, and a compaction drops only candidates k others beat.
    reservoir: Vec<Entry>,
    // The order key of the k-th best as of the last compaction — `None`
    // until k candidates were first held. Candidates not below it can
    // never be in the top k.
    kth: Option<(u32, u64)>,
    // `kth`'s distance, or `f32::INFINITY` while there is none or it is NaN.
    threshold: f32,
}

/// A reservoir slot: a neighbor with its order key worked out once, on
/// the push, so that a compaction compares integers only.
#[derive(Debug, Clone, Copy)]
struct Entry {
    id: u64,
    bits: u32,
    distance: f32,
}

impl Entry {
    #[inline]
    fn key(&self) -> (u32, u64) {
        (self.bits, self.id)
    }

    fn neighbor(self) -> Neighbor {
        Neighbor::new(self.id, self.distance)
    }
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
            reservoir: Vec::with_capacity(2 * k),
            kth: None,
            threshold: f32::INFINITY,
        }
    }

    /// The configured capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of candidates the result will hold (`<= k`).
    pub fn len(&self) -> usize {
        self.reservoir.len().min(self.k)
    }

    /// Returns `true` if no candidate has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.reservoir.is_empty()
    }

    /// Returns `true` if the collector holds `k` candidates.
    pub fn is_full(&self) -> bool {
        self.reservoir.len() >= self.k
    }

    /// Accepted pushes left before the next compaction. Until then
    /// [`TopK::threshold`] stays where it is, so a caller may hold back up
    /// to this many candidates and still prune on the bound it would have
    /// had after pushing them.
    pub fn room(&self) -> usize {
        self.compaction_at() - self.reservoir.len()
    }

    /// The reservoir length that triggers the next compaction: the first
    /// comes as soon as k are held, so pruning starts as early as with a
    /// heap; later ones every k appends.
    fn compaction_at(&self) -> usize {
        if self.kth.is_some() {
            2 * self.k
        } else {
            self.k
        }
    }

    /// The k-th distance as of the last compaction, or `f32::INFINITY`
    /// before `k` candidates were first held (or while the k-th is NaN).
    /// It never rises and is never below the true k-th distance of what
    /// was offered, so scan loops can prune on it: it lags the true k-th
    /// by at most `k` accepted candidates.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Returns `true` if a candidate at `distance` *could* be retained —
    /// the block-scan pruning test: when it returns `false` the caller can
    /// skip building the [`Neighbor`] and touching the collector entirely.
    /// A `true` answer is conservative (the candidate may still lose to
    /// the k-th on the id tie-break, or to a k-th not yet compacted).
    #[inline]
    pub fn would_accept(&self, distance: f32) -> bool {
        distance <= self.threshold || self.threshold == f32::INFINITY
    }

    /// Offers a candidate; returns `true` if it was retained.
    pub fn push(&mut self, id: u64, distance: f32) -> bool {
        let entry = Entry {
            id,
            bits: order_bits(distance),
            distance,
        };
        if self.kth.is_some_and(|kth| entry.key() >= kth) {
            return false;
        }
        self.reservoir.push(entry);
        if self.reservoir.len() == self.compaction_at() {
            self.compact();
        }
        true
    }

    /// Offers an existing [`Neighbor`]; returns `true` if it was retained.
    /// `O(1)` amortized: an append, and every `k` appends one linear-time
    /// compaction.
    pub fn push_neighbor(&mut self, n: Neighbor) -> bool {
        self.push(n.id, n.distance)
    }

    /// Keeps the k best in the reservoir and makes the k-th the threshold.
    fn compact(&mut self) {
        let (_, &mut kth, _) = self
            .reservoir
            .select_nth_unstable_by_key(self.k - 1, Entry::key);
        self.reservoir.truncate(self.k);
        self.kth = Some(kth.key());
        self.threshold = if kth.distance.is_nan() {
            f32::INFINITY
        } else {
            kth.distance
        };
    }

    /// Merges every retained candidate of `other` into `self`. Used by
    /// brokers/blenders to combine partial results.
    pub fn merge(&mut self, other: TopK) {
        self.extend(other.into_vec());
    }

    /// Consumes the collector, returning the (up to `k`) retained
    /// neighbors in no particular order.
    pub fn into_vec(mut self) -> Vec<Neighbor> {
        if self.reservoir.len() > self.k {
            self.compact();
        }
        self.reservoir.into_iter().map(Entry::neighbor).collect()
    }

    /// Consumes the collector, returning neighbors sorted nearest-first.
    pub fn into_sorted_vec(self) -> Vec<Neighbor> {
        let mut v = self.into_vec();
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

    /// The threshold is the k-th distance as of the last compaction: set
    /// when k are first held, then refreshed every k appends — in between
    /// it lags the true k-th, never undercuts it; `room` counts the
    /// appends until it moves.
    #[test]
    fn threshold_tracks_worst_retained() {
        let mut topk = TopK::new(2);
        assert_eq!((topk.threshold(), topk.room()), (f32::INFINITY, 2));
        topk.push(1, 5.0);
        assert_eq!(topk.threshold(), f32::INFINITY, "not full yet");
        assert_eq!(topk.room(), 1);
        topk.push(2, 3.0);
        assert_eq!(topk.threshold(), 5.0, "set when k are first held");
        assert_eq!(topk.room(), 2, "the next compaction is k appends away");
        assert!(topk.push(3, 1.0));
        assert_eq!(topk.threshold(), 5.0, "lags: the true k-th is 3.0");
        assert_eq!(topk.room(), 1);
        assert!(topk.push(4, 4.0), "beats the lagging threshold");
        assert_eq!(topk.threshold(), 3.0, "2k held: compacted to the k best");
        assert_eq!(topk.room(), 2);
        assert!(!topk.push(5, 4.0), "the compacted k-th rejects at once");
        assert_eq!(topk.room(), 2, "a rejected push takes no room");
        let ids: Vec<u64> = topk.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 2]);
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
        assert!(
            !topk.would_accept(f32::NAN),
            "NaN never beats a full collector"
        );
    }

    #[test]
    fn nan_distances_sort_last() {
        let got = select_topk(3, vec![(1, f32::NAN), (2, 1.0), (3, 2.0)]);
        let ids: Vec<u64> = got.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![2, 3, 1]);
    }

    /// The integer key orders exactly as distance-then-id with NaN last
    /// and `-0.0 == 0.0`, written out here by float compares.
    #[test]
    fn order_is_distance_then_id_with_nan_last() {
        let by_floats =
            |a: &Neighbor, b: &Neighbor| match (a.distance.is_nan(), b.distance.is_nan()) {
                (true, true) => a.id.cmp(&b.id),
                (true, false) => Ordering::Greater,
                (false, true) => Ordering::Less,
                (false, false) => a
                    .distance
                    .partial_cmp(&b.distance)
                    .unwrap()
                    .then(a.id.cmp(&b.id)),
            };
        let distances = [
            f32::NEG_INFINITY,
            -3.5,
            -f32::MIN_POSITIVE,
            -0.0,
            0.0,
            f32::from_bits(1),
            1.0,
            1.0 + f32::EPSILON,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        for (i, &a) in distances.iter().enumerate() {
            for (j, &b) in distances.iter().enumerate() {
                for (x, y) in [(1u64, 1u64), (1, 2), (2, 1)] {
                    let (p, q) = (Neighbor::new(x, a), Neighbor::new(y, b));
                    assert_eq!(
                        p.cmp(&q),
                        by_floats(&p, &q),
                        "{i}:{a} id {x} vs {j}:{b} id {y}"
                    );
                }
            }
        }
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
