//! An append-only, lock-free directory of lazily created values.
//!
//! A [`Directory`] maps small indexes to values that are created once and
//! then never moved or dropped before the directory itself, so [`Directory::get`]
//! hands out plain borrows with no lock and no refcount. The row store
//! keeps its id map, its regions and each list's blocks in them; the
//! search topology keeps its live replica table in them.

use std::sync::OnceLock;

/// Bucket `b` holds the `2^b` slots of indexes `2^b - 1 .. 2^(b+1) - 1`, so
/// an empty directory is a few words per bucket and growing it never
/// relocates an existing slot.
pub struct Directory<T> {
    buckets: [OnceLock<Box<[OnceLock<T>]>>; DIRECTORY_BUCKETS],
}

/// `2^25 - 1` slots: more than every `u32` id at 4,096 ids per chunk needs
/// (the row store's id map), and a list's blocks up to 2^30 rows.
const DIRECTORY_BUCKETS: usize = 25;

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
            buckets: [const { OnceLock::new() }; DIRECTORY_BUCKETS],
        }
    }

    /// `(bucket, slot within it)` of `idx`.
    fn slot_of(idx: usize) -> (usize, usize) {
        let bucket = (idx + 1).ilog2() as usize;
        (bucket, idx + 1 - (1 << bucket))
    }

    /// The value at `idx`, if one was created.
    pub fn get(&self, idx: usize) -> Option<&T> {
        let (bucket, slot) = Self::slot_of(idx);
        self.buckets.get(bucket)?.get()?[slot].get()
    }

    /// The value at `idx`, created by `init` if absent.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is beyond the directory's `2^25 - 1` slots.
    pub fn get_or_init(&self, idx: usize, init: impl FnOnce() -> T) -> &T {
        let (bucket, slot) = Self::slot_of(idx);
        self.buckets[bucket]
            .get_or_init(|| (0..1usize << bucket).map(|_| OnceLock::new()).collect())[slot]
            .get_or_init(init)
    }

    /// Every present value with its index, in index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(b, bucket)| Some((b, bucket.get()?)))
            .flat_map(|(b, slots)| {
                slots
                    .iter()
                    .enumerate()
                    .filter_map(move |(i, slot)| Some(((1 << b) - 1 + i, slot.get()?)))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
