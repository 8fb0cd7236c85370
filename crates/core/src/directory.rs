//! Never-relocating arrays, grown in doubling buckets.
//!
//! An array whose first bucket holds `first` slots keeps indexes
//! `first·(2^b − 1) .. first·(2^(b+1) − 1)` in bucket `b`, which holds
//! `first << b` slots. A bucket is one allocation, installed on the first
//! write into it and never moved or freed before the array, so a reader
//! borrows a slot with no lock and no refcount, and growth never waits for
//! a reader. Two shapes share that bucket math (`bucket_of`, also the
//! PQ code store's segment math):
//!
//! - `AtomicArray`: zeroed atomic words — the validity and filter
//!   bitmaps, the forward index's records, the attribute buffer's bytes
//!   and the row store's id map. A bucket is one `crate::sync::zeroed`
//!   allocation, so opening one costs no per-word writes, and pages
//!   nothing ever wrote stay untouched.
//! - [`Directory`]: values created once per slot — the row store's regions
//!   and each list's blocks, and the search topology's replica table.

use std::sync::OnceLock;

use crate::sync::{zeroed, Zeroed};

/// Buckets per array: `first · (2^25 − 1)` slots.
const BUCKETS: usize = 25;

/// `(bucket, offset within it)` of index `idx` in an array whose first
/// bucket holds `1 << first_log2` slots.
#[inline]
pub(crate) fn bucket_of(idx: usize, first_log2: u32) -> (usize, usize) {
    let bucket = ((idx >> first_log2) + 1).ilog2() as usize;
    (bucket, idx - (((1 << bucket) - 1) << first_log2))
}

/// The buckets of either shape; see the module docs.
struct Buckets<S> {
    first_log2: u32,
    buckets: [OnceLock<Box<[S]>>; BUCKETS],
}

impl<S> Buckets<S> {
    fn new(first_log2: u32) -> Self {
        Self {
            first_log2,
            buckets: [const { OnceLock::new() }; BUCKETS],
        }
    }

    /// The slot at `idx`, if its bucket was installed.
    #[inline]
    fn get(&self, idx: usize) -> Option<&S> {
        let (bucket, off) = bucket_of(idx, self.first_log2);
        self.buckets.get(bucket)?.get()?.get(off)
    }

    /// The slot at `idx`, installing its bucket from `alloc(slots)` if
    /// absent. Racing installers are fine: one wins, the others' buckets
    /// are dropped unseen.
    #[inline]
    fn get_or_alloc(&self, idx: usize, alloc: impl FnOnce(usize) -> Box<[S]>) -> &S {
        let (bucket, off) = bucket_of(idx, self.first_log2);
        &self.buckets[bucket].get_or_init(|| alloc(1 << self.first_log2 << bucket))[off]
    }

    /// Every installed bucket with the index of its first slot, in order.
    fn installed(&self) -> impl Iterator<Item = (usize, &[S])> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(b, bucket)| Some((((1 << b) - 1) << self.first_log2, &**bucket.get()?)))
    }
}

/// A never-relocating array of zeroed atomics; see the module docs. Slots
/// read 0 until written; a slot whose bucket was never installed reads as
/// absent. Any thread may grow it.
pub(crate) struct AtomicArray<A> {
    slots: Buckets<A>,
}

impl<A: Zeroed> AtomicArray<A> {
    /// An empty array whose first bucket holds `first` slots.
    ///
    /// # Panics
    ///
    /// Panics if `first` is not a power of two.
    pub fn new(first: usize) -> Self {
        assert!(
            first.is_power_of_two(),
            "first bucket must be a power of two"
        );
        Self {
            slots: Buckets::new(first.ilog2()),
        }
    }

    /// Slots in the first bucket.
    pub fn first(&self) -> usize {
        1 << self.slots.first_log2
    }

    /// The slot at `idx`; `None` while its bucket is not installed.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<&A> {
        self.slots.get(idx)
    }

    /// The slot at `idx`, installing its bucket if absent.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is beyond the array's `first · (2^25 − 1)` slots.
    #[inline]
    pub fn get_or_grow(&self, idx: usize) -> &A {
        self.slots.get_or_alloc(idx, zeroed)
    }

    /// The `len` slots from `idx`, if they lie in one installed bucket.
    #[inline]
    pub fn slice(&self, idx: usize, len: usize) -> Option<&[A]> {
        let (bucket, off) = bucket_of(idx, self.slots.first_log2);
        self.slots
            .buckets
            .get(bucket)?
            .get()?
            .get(off..off.checked_add(len)?)
    }

    /// The index of the first slot of the bucket after the one holding
    /// `idx`.
    pub fn next_bucket(&self, idx: usize) -> usize {
        let (bucket, _) = bucket_of(idx, self.slots.first_log2);
        ((1 << (bucket + 1)) - 1) << self.slots.first_log2
    }

    /// Every installed bucket with the index of its first slot, in order.
    pub fn installed(&self) -> impl Iterator<Item = (usize, &[A])> {
        self.slots.installed()
    }
}

/// An append-only directory of values created once per slot, in buckets
/// of `2^b` slots; see the module docs.
pub struct Directory<T> {
    slots: Buckets<OnceLock<T>>,
}

impl<T> std::fmt::Debug for Directory<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Directory")
            .field("present", &self.iter().count())
            .finish()
    }
}

impl<T> Default for Directory<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Directory<T> {
    /// An empty directory.
    pub fn new() -> Self {
        Self {
            slots: Buckets::new(0),
        }
    }

    /// The value at `idx`, if one was created.
    pub fn get(&self, idx: usize) -> Option<&T> {
        self.slots.get(idx)?.get()
    }

    /// The value at `idx`, created by `init` if absent.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is beyond the directory's `2^25 - 1` slots.
    pub fn get_or_init(&self, idx: usize, init: impl FnOnce() -> T) -> &T {
        self.slots
            .get_or_alloc(idx, |n| (0..n).map(|_| OnceLock::new()).collect())
            .get_or_init(init)
    }

    /// Every present value with its index, in index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.slots.installed().flat_map(|(start, slots)| {
            slots
                .iter()
                .enumerate()
                .filter_map(move |(i, slot)| Some((start + i, slot.get()?)))
        })
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::sync::{AtomicU64, Ordering};

    #[test]
    fn values_stay_put_across_bucket_growth() {
        let dir = Directory::new();
        let first: *const u32 = dir.get_or_init(0, || 7);
        for i in 1..100 {
            dir.get_or_init(i, || i as u32);
        }
        assert!(std::ptr::eq(first, dir.get(0).unwrap()));
        assert_eq!(dir.get_or_init(5, || 0), &5, "init runs once per slot");
        assert_eq!(dir.get(100), None);
        let indexes: Vec<usize> = dir.iter().map(|(i, _)| i).collect();
        assert_eq!(indexes, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn atomic_slots_read_zero_stay_put_and_never_straddle() {
        let words = AtomicArray::<AtomicU64>::new(4);
        assert!(words.get(0).is_none(), "nothing installed yet");
        words.get_or_grow(2).store(9, Ordering::Relaxed);
        let first: *const AtomicU64 = words.get(2).unwrap();
        words.get_or_grow(100).store(1, Ordering::Relaxed);
        assert!(
            std::ptr::eq(first, words.get(2).unwrap()),
            "growth moved a slot"
        );
        assert_eq!(words.get(3).unwrap().load(Ordering::Relaxed), 0);
        assert!(words.get(4).is_none(), "bucket 1 was never installed");
        let starts: Vec<usize> = words.installed().map(|(start, _)| start).collect();
        assert_eq!(starts, vec![0, 60]);
        assert_eq!(words.slice(0, 4).map(<[_]>::len), Some(4));
        assert!(words.slice(2, 3).is_none(), "runs past bucket 0");
        assert_eq!(words.next_bucket(2), 4);
        assert_eq!(words.next_bucket(60), 124);
        assert_eq!(words.first(), 4);
    }
}
