//! The validity bitmap.
//!
//! Section 2.1: *"A bitmap is used to indicate if a product or image is
//! valid or not. When a product is removed from the market, it is marked
//! invalid and excluded from the indexing and search processes."*
//!
//! Deletion in jdvs is **logical**: flipping one bit, visible to all
//! concurrent searches immediately, with no index restructuring. Physical
//! cleanup happens at the next weekly full-index build. [`AtomicBitmap`]
//! packs 64 validity flags per `AtomicU64` word; set/clear/test are single
//! atomic ops. The word array grows amortized-doubling behind a `RwLock`
//! spine — readers pay one uncontended read-lock acquisition, writers only
//! take the write lock on (rare) growth.

use crate::sync::{AtomicU64, Ordering, RwLock, RwLockReadGuard};

/// A growable, thread-safe bitmap.
///
/// # Example
///
/// ```
/// use jdvs_core::bitmap::AtomicBitmap;
///
/// let bm = AtomicBitmap::new();
/// bm.set(100);
/// assert!(bm.test(100));
/// assert!(!bm.test(99));
/// bm.clear(100);
/// assert!(!bm.test(100));
/// ```
#[derive(Debug, Default)]
pub struct AtomicBitmap {
    words: RwLock<Vec<AtomicU64>>,
}

impl AtomicBitmap {
    /// Creates an empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bitmap pre-sized for at least `bits` flags.
    pub fn with_capacity(bits: usize) -> Self {
        let words = bits.div_ceil(64);
        Self {
            words: RwLock::new((0..words).map(|_| AtomicU64::new(0)).collect()),
        }
    }

    /// Sets bit `index` to 1 (image becomes valid), growing as needed.
    pub fn set(&self, index: usize) {
        self.ensure(index);
        let words = self.words.read();
        // Release: pairs with the Acquire loads in `test`/`for_each_valid`
        // so a scan that sees the bit flip also sees whatever the flipper
        // wrote before it (e.g. the forward-index record for a re-listing).
        words[index / 64].fetch_or(1 << (index % 64), Ordering::Release);
    }

    /// Clears bit `index` to 0 (image becomes invalid), growing as needed.
    pub fn clear(&self, index: usize) {
        self.ensure(index);
        let words = self.words.read();
        // Release: see `set`.
        words[index / 64].fetch_and(!(1 << (index % 64)), Ordering::Release);
    }

    /// Writes bit `index` to `value`.
    pub fn assign(&self, index: usize, value: bool) {
        if value {
            self.set(index);
        } else {
            self.clear(index);
        }
    }

    /// Tests bit `index`; out-of-range bits read as 0 (an image the bitmap
    /// has never covered is invalid by definition).
    pub fn test(&self, index: usize) -> bool {
        let words = self.words.read();
        match words.get(index / 64) {
            // Acquire: pairs with the Release RMWs in `set`/`clear`.
            Some(w) => w.load(Ordering::Acquire) & (1 << (index % 64)) != 0,
            None => false,
        }
    }

    /// Pins the word array once and returns a reader for repeated tests —
    /// the scan hot path: one read-lock acquisition covers a whole query
    /// instead of one per candidate. Bit flips made while the reader is
    /// live remain visible (the words themselves are atomics); only
    /// *growth* past the pinned capacity is missed, and fresh bits are
    /// invalid anyway.
    pub fn reader(&self) -> BitmapReader<'_> {
        BitmapReader {
            words: self.words.read(),
        }
    }

    /// Calls `f(index)` for every set bit below `limit`, testing 64 flags
    /// per word load and skipping all-clear words outright.
    pub fn for_each_valid(&self, limit: usize, mut f: impl FnMut(usize)) {
        let words = self.words.read();
        let last_word = limit.div_ceil(64).min(words.len());
        for (wi, word) in words[..last_word].iter().enumerate() {
            let mut bits = word.load(Ordering::Acquire);
            if (wi + 1) * 64 > limit {
                bits &= (1u64 << (limit % 64)) - 1;
            }
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                f(wi * 64 + bit);
                bits &= bits - 1;
            }
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words
            .read()
            .iter()
            .map(|w| w.load(Ordering::Acquire).count_ones() as usize)
            .sum()
    }

    /// Current capacity in bits.
    pub fn capacity(&self) -> usize {
        self.words.read().len() * 64
    }

    /// Grows the word array (amortized doubling) so `index` is addressable.
    fn ensure(&self, index: usize) {
        let needed = index / 64 + 1;
        if self.words.read().len() >= needed {
            return;
        }
        let mut words = self.words.write();
        // Re-check under the write lock; another writer may have grown.
        let target = needed.max(words.len() * 2).max(4);
        while words.len() < target {
            words.push(AtomicU64::new(0));
        }
    }
}

/// A pinned view of the bitmap for repeated lock-free tests; see
/// [`AtomicBitmap::reader`].
pub struct BitmapReader<'a> {
    words: RwLockReadGuard<'a, Vec<AtomicU64>>,
}

impl std::fmt::Debug for BitmapReader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BitmapReader")
            .field("capacity", &(self.words.len() * 64))
            .finish()
    }
}

impl BitmapReader<'_> {
    /// Tests bit `index`; bits beyond the pinned capacity read as 0.
    #[inline]
    pub fn test(&self, index: usize) -> bool {
        match self.words.get(index / 64) {
            // Acquire: pairs with the Release RMWs in set/clear — a block
            // scan sees flips made after the reader was pinned.
            Some(w) => w.load(Ordering::Acquire) & (1 << (index % 64)) != 0,
            None => false,
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fresh_bits_are_clear() {
        let bm = AtomicBitmap::new();
        assert!(!bm.test(0));
        assert!(!bm.test(1_000_000));
        assert_eq!(bm.count_ones(), 0);
    }

    #[test]
    fn set_test_clear_round_trip() {
        let bm = AtomicBitmap::new();
        bm.set(5);
        bm.set(64);
        bm.set(65);
        assert!(bm.test(5));
        assert!(bm.test(64));
        assert!(bm.test(65));
        assert!(!bm.test(6));
        assert_eq!(bm.count_ones(), 3);
        bm.clear(64);
        assert!(!bm.test(64));
        assert_eq!(bm.count_ones(), 2);
    }

    #[test]
    fn assign_maps_to_set_and_clear() {
        let bm = AtomicBitmap::new();
        bm.assign(10, true);
        assert!(bm.test(10));
        bm.assign(10, false);
        assert!(!bm.test(10));
    }

    #[test]
    fn clear_beyond_capacity_grows_but_stays_zero() {
        let bm = AtomicBitmap::new();
        bm.clear(10_000);
        assert!(!bm.test(10_000));
        assert!(bm.capacity() > 10_000);
    }

    #[test]
    fn with_capacity_presizes() {
        let bm = AtomicBitmap::with_capacity(1000);
        assert!(bm.capacity() >= 1000);
    }

    #[test]
    fn word_boundaries_are_independent() {
        let bm = AtomicBitmap::new();
        bm.set(63);
        bm.set(64);
        bm.clear(63);
        assert!(!bm.test(63));
        assert!(bm.test(64));
    }

    #[test]
    fn concurrent_disjoint_sets_are_lossless() {
        let bm = Arc::new(AtomicBitmap::new());
        let handles: Vec<_> = (0..8usize)
            .map(|t| {
                let bm = Arc::clone(&bm);
                std::thread::spawn(move || {
                    for i in 0..1_000 {
                        bm.set(t * 1_000 + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(bm.count_ones(), 8_000);
        for b in 0..8_000 {
            assert!(bm.test(b));
        }
    }

    #[test]
    fn reader_matches_test_and_sees_live_clears() {
        let bm = AtomicBitmap::new();
        for i in [0usize, 5, 63, 64, 200] {
            bm.set(i);
        }
        let r = bm.reader();
        for i in 0..256 {
            assert_eq!(r.test(i), bm.test(i), "bit {i}");
        }
        // A clear made while the reader is pinned must be visible: the
        // stage-2 rerank recheck depends on this.
        bm.clear(64);
        assert!(!r.test(64));
        assert!(!r.test(1 << 30), "beyond pinned capacity reads 0");
    }

    #[test]
    fn for_each_valid_enumerates_set_bits_within_limit() {
        let bm = AtomicBitmap::new();
        let set = [0usize, 1, 63, 64, 65, 127, 128, 300];
        for &i in &set {
            bm.set(i);
        }
        let mut seen = Vec::new();
        bm.for_each_valid(301, |i| seen.push(i));
        assert_eq!(seen, set.to_vec());
        seen.clear();
        bm.for_each_valid(65, |i| seen.push(i));
        assert_eq!(seen, vec![0, 1, 63, 64], "limit is exclusive");
        seen.clear();
        bm.for_each_valid(0, |i| seen.push(i));
        assert!(seen.is_empty());
        seen.clear();
        bm.for_each_valid((1 << 20) | 7, |i| seen.push(i));
        assert_eq!(seen, set.to_vec(), "limit beyond capacity is fine");
    }

    #[test]
    fn concurrent_growth_is_safe() {
        let bm = Arc::new(AtomicBitmap::new());
        let handles: Vec<_> = (0..4usize)
            .map(|t| {
                let bm = Arc::clone(&bm);
                std::thread::spawn(move || {
                    // Each thread forces growth at staggered offsets.
                    for i in 0..100 {
                        bm.set(t * 50_000 + i * 97);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(bm.count_ones(), 400);
    }
}
