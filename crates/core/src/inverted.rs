//! The real-time inverted index (Figures 5, 8 and 9).
//!
//! The index is `N` inverted lists, one per k-means cluster. Each list is a
//! **pre-allocated slab** of image-id slots plus an atomic count of
//! published entries — the per-list "position of the last element" that the
//! paper keeps in an auxiliary array (Figure 5). An append writes the slot,
//! then bumps the count with release ordering; concurrent searches load the
//! count with acquire ordering and scan exactly the published prefix. No
//! locks on either path.
//!
//! **Expansion** (Figure 9): when a slab fills, a slab of **double size**
//! is allocated. New image ids are appended into the new slab while *"the
//! current inverted list continues to serve the requests until a background
//! process finishes copying all the content of the current list to the new
//! list. When the copy operation completes, the newly created inverted list
//! becomes the current one and the old one is deleted."* Exactly that
//! protocol is implemented here: searches keep reading the old slab during
//! the copy; entries appended during the window become visible at the atomic
//! swap. `background_copy: false` gives the inline-copy ablation baseline.
//!
//! **Publication liveness.** Ids appended into a migration's tail are not
//! in the served slab until the swap, so the swap must not wait for an
//! arbitrarily-later event. Three paths publish a finished copy, and each
//! lands whichever runs first:
//!
//! 1. the **copy thread itself**, right after setting `copy_done` (it
//!    re-acquires the writer lock with `try_lock`, so it can never deadlock
//!    against a writer that is simultaneously publishing);
//! 2. any **append** that observes `copy_done` — checked both before *and
//!    after* writing its tail slot, so the id just appended is published
//!    immediately when the copy raced it;
//! 3. an explicit [`InvertedList::flush`] (the real-time indexer calls it
//!    when the message queue idles).
//!
//! Without path 1, a quiet queue left tail inserts unsearchable until the
//! next append — the unbounded-staleness bug the loom/stress harness locks
//! in a regression test for (`tail_insert_publishes_without_further_help`).
//!
//! The full memory-model write-up for this structure lives in DESIGN.md
//! ("Memory model of the mutation path").

use crate::sync::{
    thread, zeroed_words, Arc, AtomicBool, AtomicU64, AtomicUsize, Mutex, Ordering, RwLock,
};

use crate::ids::{ImageId, ListId};

/// Ids per [`InvertedList::scan_blocks`] batch. Sized so a block of ids plus
/// the distances computed from it stay L1-resident while amortizing the
/// per-block bookkeeping over enough candidates to be negligible.
pub const SCAN_BLOCK: usize = 256;

/// A fixed-capacity array of image-id slots with a published-length counter.
#[derive(Debug)]
pub struct Slab {
    slots: Box<[AtomicU64]>,
    len: AtomicUsize,
}

impl Slab {
    fn new(capacity: usize) -> Self {
        Self {
            slots: zeroed_words(capacity),
            len: AtomicUsize::new(0),
        }
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Published entries.
    pub fn len(&self) -> usize {
        // Acquire: pairs with the Release stores of `len` in
        // `InvertedList::append` (same-slab publish) and
        // `ListShared::publish` (migration publish), making every slot
        // write below the loaded length visible to this thread.
        self.len.load(Ordering::Acquire)
    }

    /// Returns `true` if no entry is published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Writer-side state of an in-flight expansion.
struct Migration {
    new_slab: Arc<Slab>,
    /// Next free position in the new slab (old contents occupy `[0, base)`;
    /// the copier fills that prefix while we append at `base..`).
    next_pos: usize,
    /// Set (release) by the copier when the prefix copy is complete; also
    /// the identity token the copier uses to recognize its own migration.
    copy_done: Arc<AtomicBool>,
    /// Set (release) after the new slab is swapped in, so the copy thread's
    /// opportunistic-publish loop terminates even when it loses every
    /// `try_lock` race to a publishing writer.
    published: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Drop for Migration {
    /// Joins the background copy thread. Dropping a [`crate::VisualIndex`]
    /// (e.g. on an `IndexHandle` swap after a full rebuild) mid-expansion
    /// previously detached the thread; now the drop blocks — briefly, the
    /// copier's work is bounded and it never block-waits on a lock — until
    /// the thread exits. The copier's own self-publish path clears
    /// `handle` first, so a migration consumed by its copier never
    /// self-joins.
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// State shared between an [`InvertedList`] and its in-flight copy thread,
/// so the copier can publish a finished migration itself instead of
/// parking it until the next append.
struct ListShared {
    current: RwLock<Arc<Slab>>,
    writer: Mutex<Option<Migration>>,
}

impl ListShared {
    /// Publishes a finished migration: set the new slab's length to cover
    /// both the copied prefix and the appended tail, then atomically make
    /// it current. The old slab is dropped when its last reader releases
    /// its `Arc` — "the old one is deleted", without blocking anyone.
    ///
    /// Callers must hold (or be single-threaded owners of) the writer
    /// lock's migration slot; the migration is consumed.
    fn publish(&self, m: Migration) {
        debug_assert!(m.copy_done.load(Ordering::Acquire));
        // Release: pairs with the Acquire in `Slab::len`. Tail-slot stores
        // (relaxed, made by appenders) happened-before this store via the
        // writer-mutex hand-off; prefix-slot stores via the copy thread's
        // Release store of `copy_done` and our Acquire load of it.
        m.new_slab.len.store(m.next_pos, Ordering::Release);
        *self.current.write() = Arc::clone(&m.new_slab);
        // Release the copier's exit latch last: once observed, the copier
        // stops retrying `try_lock` and terminates, letting the `Drop`
        // join below (and any index teardown) complete promptly.
        m.published.store(true, Ordering::Release);
        // `m` drops here: joins the copy thread unless the copier itself
        // is publishing (it clears `handle` first).
    }

    /// Waits for the copy to complete (spinning through scheduler yields —
    /// never joining, which could deadlock against a copier blocked on the
    /// writer lock we hold), then publishes.
    fn wait_and_publish(&self, m: Migration) {
        // Acquire: pairs with the copier's Release store of `copy_done`;
        // after it reads true, the copied prefix is visible.
        while !m.copy_done.load(Ordering::Acquire) {
            thread::yield_now();
        }
        self.publish(m);
    }
}

/// One inverted list; see the module docs.
pub struct InvertedList {
    shared: Arc<ListShared>,
    background_copy: bool,
    expansions: AtomicU64,
}

impl std::fmt::Debug for InvertedList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let slab = self.shared.current.read();
        f.debug_struct("InvertedList")
            .field("len", &slab.len())
            .field("capacity", &slab.capacity())
            .field("expansions", &self.expansions.load(Ordering::Relaxed))
            .finish()
    }
}

impl InvertedList {
    /// Creates a list with `initial_capacity` pre-allocated slots.
    ///
    /// # Panics
    ///
    /// Panics if `initial_capacity == 0`.
    pub fn new(initial_capacity: usize, background_copy: bool) -> Self {
        assert!(initial_capacity > 0, "initial capacity must be positive");
        Self {
            shared: Arc::new(ListShared {
                current: RwLock::new(Arc::new(Slab::new(initial_capacity))),
                writer: Mutex::new(None),
            }),
            background_copy,
            expansions: AtomicU64::new(0),
        }
    }

    /// Appends an image id and returns its position in the list. Safe to
    /// call from one writer at a time per list (the owning searcher);
    /// concurrent with any number of scans.
    ///
    /// Positions are stable for the lifetime of the list: expansions copy
    /// the prefix in place (`[0, old_len)` keeps its indices) and tail
    /// appends continue from `old_len`, so the returned position keys
    /// position-indexed sidecars like the interleaved PQ store.
    pub fn append(&self, id: ImageId) -> usize {
        let mut writer = self.shared.writer.lock();
        loop {
            // Finish a completed migration first so appends land normally.
            if let Some(m) = writer.as_mut() {
                // Acquire: pairs with the copier's Release of `copy_done`,
                // so publishing here sees the fully-copied prefix.
                if m.copy_done.load(Ordering::Acquire) {
                    self.shared.publish(writer.take().expect("checked above"));
                    continue;
                }
                // Migration still copying: append into the new slab's tail.
                if m.next_pos < m.new_slab.capacity() {
                    // Relaxed: this tail slot is published by the `len`
                    // Release store in `ListShared::publish`, ordered
                    // after this store by the writer-mutex hand-off (or by
                    // program order when this thread publishes below).
                    let pos = m.next_pos;
                    m.new_slab.slots[pos].store(id.as_u64(), Ordering::Relaxed);
                    m.next_pos += 1;
                    // Re-check after the tail write: if the copy finished
                    // while we appended, the copier's try_lock lost to our
                    // lock — publish now so this id (and the migration)
                    // never waits for a later append or flush.
                    if m.copy_done.load(Ordering::Acquire) {
                        self.shared.publish(writer.take().expect("checked above"));
                    }
                    return pos;
                }
                // New slab filled before the copy finished (pathological:
                // capacity doubled, so the writer outran a whole copy).
                // Wait for the copy, publish, and retry.
                let m = writer.take().expect("checked above");
                self.shared.wait_and_publish(m);
                continue;
            }
            let slab = Arc::clone(&self.shared.current.read());
            // Relaxed: `len` is only stored by the single writer this
            // mutex serializes; the previous writer's Release store (and
            // the mutex hand-off) make the value current.
            let len = slab.len.load(Ordering::Relaxed);
            if len < slab.capacity() {
                // Relaxed slot store, published by the Release below —
                // the paper's "write the slot, then bump the position".
                slab.slots[len].store(id.as_u64(), Ordering::Relaxed);
                // Release: pairs with the Acquire in `Slab::len`; a scan
                // that observes `len + 1` also observes the slot write.
                slab.len.store(len + 1, Ordering::Release);
                return len;
            }
            // Full: start an expansion, then loop to append via migration.
            *writer = Some(self.start_migration(&slab));
        }
    }

    fn start_migration(&self, old: &Arc<Slab>) -> Migration {
        // Relaxed: statistics counter, no ordering required.
        self.expansions.fetch_add(1, Ordering::Relaxed);
        let old_len = old.len();
        let new_slab = Arc::new(Slab::new((old.capacity() * 2).max(1)));
        let copy_done = Arc::new(AtomicBool::new(false));
        let published = Arc::new(AtomicBool::new(false));
        let copy = {
            let old = Arc::clone(old);
            let new_slab = Arc::clone(&new_slab);
            let copy_done = Arc::clone(&copy_done);
            move || {
                for i in 0..old_len {
                    // Relaxed on both sides: the source slots are ordered
                    // before `old_len` by the Acquire in `old.len()` above
                    // (observed before this closure was created, and the
                    // spawn edge carries it into the thread); the
                    // destination slots are published by the Release store
                    // of `copy_done` below plus the publisher's Acquire.
                    new_slab.slots[i]
                        .store(old.slots[i].load(Ordering::Relaxed), Ordering::Relaxed);
                }
                // Release: pairs with every `copy_done` Acquire load in
                // append/publish/wait_and_publish.
                copy_done.store(true, Ordering::Release);
            }
        };
        let handle = if self.background_copy {
            let shared = Arc::clone(&self.shared);
            let copy_done = Arc::clone(&copy_done);
            let published = Arc::clone(&published);
            Some(thread::spawn(move || {
                copy();
                // Opportunistic publish (liveness path 1 in the module
                // docs): without it, a tail insert stays unsearchable
                // until the *next* append or an explicit flush — forever,
                // on a quiet queue. `try_lock` (never `lock`) so a writer
                // publishing concurrently — which then joins this thread
                // via `Migration::drop` — can never deadlock against us.
                loop {
                    // Acquire: pairs with the Release in `publish`; once
                    // true, someone else swapped the slab in and we exit.
                    if published.load(Ordering::Acquire) {
                        return;
                    }
                    match shared.writer.try_lock() {
                        Some(mut w) => {
                            let ours = w
                                .as_ref()
                                .is_some_and(|m| Arc::ptr_eq(&m.copy_done, &copy_done));
                            if ours {
                                let mut m = w.take().expect("checked above");
                                // Our own carrier: clear the handle so
                                // publish's drop doesn't self-join.
                                m.handle = None;
                                shared.publish(m);
                            }
                            // Not ours: the migration was already
                            // published (and possibly superseded by a
                            // newer expansion). Either way, done.
                            return;
                        }
                        // A writer holds the lock. Every writer path that
                        // holds it re-checks `copy_done` before releasing,
                        // so we only spin for one short critical section.
                        None => thread::yield_now(),
                    }
                }
            }))
        } else {
            copy();
            None
        };
        Migration {
            new_slab,
            next_pos: old_len,
            copy_done,
            published,
            handle,
        }
    }

    /// Completes any in-flight expansion, waiting for the background copy.
    /// The real-time indexer calls this when the message queue goes idle so
    /// recently appended ids become searchable without waiting for the next
    /// append. (The copy thread also publishes on its own once the copy
    /// completes, so flush is a determinism backstop, not the only path.)
    pub fn flush(&self) {
        let mut writer = self.shared.writer.lock();
        if let Some(m) = writer.take() {
            self.shared.wait_and_publish(m);
        }
    }

    /// Pins the list's current slab and published length — the one lock
    /// and refcount a scan of this list pays. Entries appended after the
    /// snapshot may or may not be covered by a later one; this one never
    /// changes.
    pub fn snapshot(&self) -> ListSnapshot {
        let slab = Arc::clone(&self.shared.current.read());
        let len = slab.len();
        ListSnapshot { slab, len }
    }

    /// Calls `f` with every published image id, in append order, over one
    /// [`Self::snapshot`].
    pub fn scan(&self, mut f: impl FnMut(ImageId)) {
        let ids = self.snapshot();
        for pos in 0..ids.len() {
            f(ids.id(pos));
        }
    }

    /// Calls `f` with contiguous blocks of up to [`SCAN_BLOCK`] published
    /// image ids, in append order — the batched form of [`Self::scan`].
    /// Handing the execution engine a dense `&[ImageId]` lets it test the
    /// validity bitmap, resolve vectors, and compute distances over a whole
    /// block between branch points instead of bouncing through a callback
    /// per id. Same snapshot semantics as `scan`.
    pub fn scan_blocks(&self, mut f: impl FnMut(&[ImageId])) {
        let ids = self.snapshot();
        let mut block = [ImageId(0); SCAN_BLOCK];
        for start in (0..ids.len()).step_by(SCAN_BLOCK) {
            let n = SCAN_BLOCK.min(ids.len() - start);
            ids.copy_to(start, &mut block[..n]);
            f(&block[..n]);
        }
    }

    /// Published entry count — this list's element of the paper's auxiliary
    /// last-position array.
    pub fn len(&self) -> usize {
        self.shared.current.read().len()
    }

    /// Returns `true` if no entry is published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current slab capacity.
    pub fn capacity(&self) -> usize {
        self.shared.current.read().capacity()
    }

    /// Number of expansions performed.
    pub fn expansions(&self) -> u64 {
        // Relaxed: statistics counter.
        self.expansions.load(Ordering::Relaxed)
    }
}

/// The ids one list had published when [`InvertedList::snapshot`] pinned
/// it: positions `0..len()` of one slab, each readable without further
/// synchronization.
#[derive(Debug)]
pub struct ListSnapshot {
    slab: Arc<Slab>,
    len: usize,
}

impl ListSnapshot {
    /// Ids in the snapshot.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the list had published nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The id at position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.len()`.
    #[inline]
    pub fn id(&self, pos: usize) -> ImageId {
        assert!(pos < self.len, "position past the snapshot");
        // Relaxed: slot writes below `len` happened-before the Acquire
        // `len` load in `InvertedList::snapshot`.
        ImageId(self.slab.slots[pos].load(Ordering::Relaxed) as u32)
    }

    /// Starts loading the id at `pos` into cache, for a reader that will
    /// ask for it with [`Self::id`] a little later; a no-op past the
    /// snapshot.
    #[inline]
    pub fn prefetch(&self, pos: usize) {
        if let Some(slot) = self.slab.slots[..self.len].get(pos) {
            jdvs_vector::simd::prefetch(std::slice::from_ref(slot));
        }
    }

    /// Copies the ids at positions `start..start + out.len()` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past `self.len()`.
    pub fn copy_to(&self, start: usize, out: &mut [ImageId]) {
        let slots = &self.slab.slots[..self.len][start..start + out.len()];
        for (dst, slot) in out.iter_mut().zip(slots) {
            // Relaxed: as in `id`.
            *dst = ImageId(slot.load(Ordering::Relaxed) as u32);
        }
    }
}

/// The `N`-list inverted index.
#[derive(Debug)]
pub struct InvertedIndex {
    lists: Vec<InvertedList>,
}

impl InvertedIndex {
    /// Creates `num_lists` lists with `initial_capacity` slots each.
    ///
    /// # Panics
    ///
    /// Panics if `num_lists == 0` or `initial_capacity == 0`.
    pub fn new(num_lists: usize, initial_capacity: usize, background_copy: bool) -> Self {
        assert!(num_lists > 0, "num_lists must be positive");
        Self {
            lists: (0..num_lists)
                .map(|_| InvertedList::new(initial_capacity, background_copy))
                .collect(),
        }
    }

    /// Number of lists (`N`).
    pub fn num_lists(&self) -> usize {
        self.lists.len()
    }

    /// Appends `id` to list `list`, returning its stable position in the
    /// list (see [`InvertedList::append`]).
    ///
    /// # Panics
    ///
    /// Panics if `list` is out of range.
    pub fn append(&self, list: ListId, id: ImageId) -> usize {
        self.lists[list.as_usize()].append(id)
    }

    /// Scans list `list`.
    ///
    /// # Panics
    ///
    /// Panics if `list` is out of range.
    pub fn scan(&self, list: ListId, f: impl FnMut(ImageId)) {
        self.lists[list.as_usize()].scan(f);
    }

    /// Scans list `list` in blocks; see [`InvertedList::scan_blocks`].
    ///
    /// # Panics
    ///
    /// Panics if `list` is out of range.
    pub fn scan_blocks(&self, list: ListId, f: impl FnMut(&[ImageId])) {
        self.lists[list.as_usize()].scan_blocks(f);
    }

    /// Borrow a list.
    ///
    /// # Panics
    ///
    /// Panics if `list` is out of range.
    pub fn list(&self, list: ListId) -> &InvertedList {
        &self.lists[list.as_usize()]
    }

    /// Completes all in-flight expansions.
    pub fn flush(&self) {
        for l in &self.lists {
            l.flush();
        }
    }

    /// The auxiliary array: each list's published last-element position.
    pub fn aux_positions(&self) -> Vec<usize> {
        self.lists.iter().map(InvertedList::len).collect()
    }

    /// Total entries across lists.
    pub fn total_entries(&self) -> usize {
        self.lists.iter().map(InvertedList::len).sum()
    }

    /// Total expansions across lists.
    pub fn total_expansions(&self) -> u64 {
        self.lists.iter().map(InvertedList::expansions).sum()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool as StdAtomicBool, Ordering as StdOrdering};
    use std::sync::Arc as StdArc;
    use std::time::{Duration, Instant};

    fn collect(list: &InvertedList) -> Vec<u32> {
        let mut out = Vec::new();
        list.scan(|id| out.push(id.0));
        out
    }

    #[test]
    fn append_then_scan_in_order() {
        let list = InvertedList::new(8, false);
        for i in 0..5 {
            list.append(ImageId(i));
        }
        assert_eq!(collect(&list), vec![0, 1, 2, 3, 4]);
        assert_eq!(list.len(), 5);
        assert_eq!(list.capacity(), 8);
        assert_eq!(list.expansions(), 0);
    }

    #[test]
    fn inline_expansion_doubles_capacity_and_preserves_order() {
        let list = InvertedList::new(4, false);
        for i in 0..20 {
            list.append(ImageId(i));
        }
        list.flush();
        assert_eq!(collect(&list), (0..20).collect::<Vec<_>>());
        assert!(list.capacity() >= 20);
        assert!(list.expansions() >= 2);
    }

    #[test]
    fn background_expansion_preserves_all_entries() {
        let list = InvertedList::new(4, true);
        for i in 0..1_000 {
            list.append(ImageId(i));
        }
        list.flush();
        assert_eq!(collect(&list), (0..1_000).collect::<Vec<_>>());
    }

    #[test]
    fn entries_appended_during_migration_become_visible_after_flush() {
        let list = InvertedList::new(2, true);
        list.append(ImageId(0));
        list.append(ImageId(1));
        // This append triggers expansion; the id may be invisible until the
        // swap happens.
        list.append(ImageId(2));
        list.flush();
        assert_eq!(collect(&list), vec![0, 1, 2]);
    }

    #[test]
    fn tail_insert_publishes_without_further_help() {
        // The staleness regression test: an id appended into a migration's
        // tail must become scannable through the copier's own publish path
        // — with NO subsequent append and NO flush.
        for _ in 0..50 {
            let list = InvertedList::new(2, true);
            list.append(ImageId(0));
            list.append(ImageId(1));
            list.append(ImageId(2)); // starts the expansion, lands in the tail
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                if collect(&list) == vec![0, 1, 2] {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "tail insert never became searchable without an append/flush; \
                     published view: {:?}",
                    collect(&list)
                );
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn old_slab_serves_reads_during_migration() {
        // With background copy, immediately after the expansion-triggering
        // append the *published* view must still contain the old prefix.
        let list = InvertedList::new(2, true);
        list.append(ImageId(0));
        list.append(ImageId(1));
        list.append(ImageId(2)); // starts migration
        let seen = collect(&list);
        assert!(
            seen == vec![0, 1] || seen == vec![0, 1, 2],
            "old prefix always visible: {seen:?}"
        );
        list.flush();
        assert_eq!(collect(&list), vec![0, 1, 2]);
    }

    #[test]
    fn drop_mid_migration_joins_the_copy_thread() {
        // Dropping the list right after triggering an expansion must join
        // the in-flight copy thread (Migration::drop), not detach it. The
        // loop makes the race window land on both sides of copy_done.
        for i in 0..200u32 {
            let list = InvertedList::new(2, true);
            list.append(ImageId(i));
            list.append(ImageId(i + 1));
            list.append(ImageId(i + 2)); // starts the background copy
            drop(list); // must not hang, leak, or panic
        }
    }

    #[test]
    fn scan_blocks_matches_scan_across_block_boundaries() {
        // 0, 1, SCAN_BLOCK - 1, SCAN_BLOCK, exact multiples, and a ragged
        // tail all reduce to the same id sequence as the per-id scan.
        for n in [0usize, 1, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK * 3, 1000] {
            let list = InvertedList::new(8, false);
            for i in 0..n {
                list.append(ImageId(i as u32 * 7));
            }
            list.flush();
            let per_id = collect(&list);
            let mut blocked = Vec::new();
            let mut max_block = 0;
            list.scan_blocks(|ids| {
                assert!(!ids.is_empty(), "empty blocks are never emitted");
                max_block = max_block.max(ids.len());
                blocked.extend(ids.iter().map(|id| id.0));
            });
            assert_eq!(blocked, per_id, "n = {n}");
            assert!(max_block <= SCAN_BLOCK);
        }
    }

    #[test]
    fn flush_without_migration_is_noop() {
        let list = InvertedList::new(4, true);
        list.append(ImageId(9));
        list.flush();
        assert_eq!(collect(&list), vec![9]);
    }

    #[test]
    fn concurrent_scans_during_appends_see_consistent_prefixes() {
        let list = StdArc::new(InvertedList::new(8, true));
        let stop = StdArc::new(StdAtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let list = StdArc::clone(&list);
                let stop = StdArc::clone(&stop);
                std::thread::spawn(move || {
                    let mut max_seen = 0usize;
                    while !stop.load(StdOrdering::Relaxed) {
                        let ids = {
                            let mut v = Vec::new();
                            list.scan(|id| v.push(id.0));
                            v
                        };
                        // Prefix property: entries are exactly 0..n in order.
                        for (i, &id) in ids.iter().enumerate() {
                            assert_eq!(id as usize, i, "scan must be a dense prefix");
                        }
                        // Monotonicity within one reader *between* swaps is
                        // not guaranteed mid-migration (paper semantics);
                        // but the final view must be complete.
                        max_seen = max_seen.max(ids.len());
                    }
                    max_seen
                })
            })
            .collect();
        for i in 0..50_000u32 {
            list.append(ImageId(i));
        }
        list.flush();
        stop.store(true, StdOrdering::Relaxed);
        for h in readers {
            h.join().unwrap();
        }
        assert_eq!(collect(&list), (0..50_000).collect::<Vec<_>>());
        assert!(list.expansions() > 0);
    }

    #[test]
    fn index_routes_to_lists() {
        let idx = InvertedIndex::new(4, 8, false);
        idx.append(ListId(0), ImageId(1));
        idx.append(ListId(0), ImageId(2));
        idx.append(ListId(3), ImageId(9));
        assert_eq!(idx.num_lists(), 4);
        assert_eq!(idx.aux_positions(), vec![2, 0, 0, 1]);
        assert_eq!(idx.total_entries(), 3);
        let mut seen = HashSet::new();
        idx.scan(ListId(0), |id| {
            seen.insert(id.0);
        });
        assert_eq!(seen, HashSet::from([1, 2]));
    }

    #[test]
    fn index_flush_completes_all_lists() {
        let idx = InvertedIndex::new(2, 2, true);
        for i in 0..10 {
            idx.append(ListId(0), ImageId(i));
            idx.append(ListId(1), ImageId(100 + i));
        }
        idx.flush();
        assert_eq!(idx.total_entries(), 20);
        assert!(idx.total_expansions() >= 2);
    }

    #[test]
    #[should_panic(expected = "num_lists must be positive")]
    fn zero_lists_panics() {
        InvertedIndex::new(0, 4, false);
    }

    #[test]
    #[should_panic(expected = "initial capacity must be positive")]
    fn zero_capacity_panics() {
        InvertedList::new(0, false);
    }
}
