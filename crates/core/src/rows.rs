//! Every image's raw `f32` features, stored with its inverted list.
//!
//! Computing a query's Euclidean distance to a candidate (Section 2.4)
//! needs the candidate's feature vector. As in IVFADC (ref. \[19\]), each
//! entry's payload lives **with its list**: row `pos` of list `l` holds
//! the features of the image [`crate::inverted::InvertedList::append`]
//! placed at position `pos` of `l`, so a probed list's rows stream in
//! position order, one contiguous block of [`ROW_BLOCK`] rows at a time,
//! instead of one pointer chase per candidate.
//!
//! - Positions are grouped into blocks of [`ROW_BLOCK`] rows, row-major
//!   (lane `i`'s `dim` words at `i · dim`). A list is issued a block on
//!   its first write to it, so it holds at most one partly written block
//!   ahead of its rows — the tail ([`RowStore::row_bytes`] reports the
//!   exact figure). Blocks are carved, in issue order, out of regions of
//!   about [`REGION_BYTES`]: the rows sit together instead of between the
//!   index's other allocations (scattering 8 KiB blocks among the code
//!   segments slowed the fast scan by ~13 %), and a store holds at most
//!   one region's unissued blocks beyond its lists' tails. Regions are
//!   never moved and freed only with the store, so readers borrow rows:
//!   no lock, no refcount.
//! - A PQ index keeps its codes in [`crate::pq_store::PqStore`], a
//!   parallel array keyed by the same positions; the two are never
//!   interleaved, so the code stream a fast scan reads stays dense.
//! - Readers that start from an id — the compressed re-rank,
//!   [`crate::index::VisualIndex::features`], snapshots, the reference
//!   oracles — find its row through the id → (list, position) map
//!   [`RowStore::locate`] keeps, written after the row.
//!
//! ## Concurrency
//!
//! A block is written under the claimed/published mask protocol of the
//! PQ code store (DESIGN.md, "Memory model", protocol 6):
//!
//! - `claimed`: a writer sets its lane's bit (Relaxed `fetch_or`) and backs
//!   off if it was already set, so **at most one writer ever stores a
//!   lane's words**.
//! - `published`: after its row's (Relaxed) word stores the writer sets
//!   its lane's bit with a **Release** `fetch_or`. A reader loads the word
//!   once per block with **Acquire**; every modification is an RMW, so the
//!   load synchronizes with every writer whose bit it sees, and those
//!   rows are complete. They are never written again, so a published row
//!   is read **in place**, as plain `f32`s, whatever the writers of the
//!   block's other lanes are doing to their own words.
//!
//! [`crate::index::VisualIndex::insert`] writes the row after the list
//! append returned its position and before the validity bit is set, so an
//! unpublished lane is never a valid image either.

use std::sync::OnceLock;

use jdvs_vector::Vector;

use crate::directory::{AtomicArray, Directory};
use crate::ids::{ImageId, ListId};
use crate::sync::{zeroed, AtomicU32, AtomicU64, Ordering};

/// Rows per block, and positions per publication mask.
pub const ROW_BLOCK: usize = 32;

/// Target bytes of one region of row blocks (at least one block).
pub const REGION_BYTES: usize = 512 << 10;

/// Ids in the id map's first bucket.
const FIRST_IDS: usize = 4096;

/// Set in an id-map entry once the id was put.
const ID_PRESENT: u64 = 1 << 63;

/// `ROW_BLOCK` rows of one list, plus their two mask words.
struct RowBlock {
    /// Where its `ROW_BLOCK × dim` words start: region `region`, word
    /// `start`. They hold the `f32` bit patterns of lane `i` at
    /// `start + i · dim ..`.
    region: usize,
    start: usize,
    /// Bit `i`: some writer owns lane `i`.
    claimed: AtomicU32,
    /// Bit `i`: lane `i`'s row is stored — the Release/Acquire publication
    /// point for its words.
    published: AtomicU32,
}

impl RowBlock {
    /// The block's words, in `regions`.
    #[inline]
    fn words<'a>(&self, regions: &'a Directory<Box<[AtomicU32]>>, dim: usize) -> &'a [AtomicU32] {
        let region = regions.get(self.region).expect("a block's region exists");
        &region[self.start..][..ROW_BLOCK * dim]
    }

    /// The published-lane mask.
    #[inline]
    fn published(&self) -> u32 {
        // Acquire: pairs with the Release `fetch_or` in `RowStore::put` of
        // every lane the mask admits (all modifications of the word are
        // RMWs, so each one's release sequence reaches this load) — the
        // word reads that follow see those lanes' complete rows.
        self.published.load(Ordering::Acquire)
    }
}

/// One id's slot of the id → (list, position) map, two words:
///
/// - its entry: bit 63 = present, bits 32..63 = list, bits 0..32 =
///   position. Written once per id (Release), read with Acquire;
/// - where its row's words start — region (bits 32..64) and word within
///   it (bits 0..32) — stored before the entry, so a by-id reader reaches
///   the row with one dependent load instead of a walk through the list's
///   blocks.
type IdSlot = [AtomicU64; 2];

/// Unpacks an id-map entry; `None` while the id was never put.
fn unpack_entry(entry: u64) -> Option<(ListId, usize)> {
    (entry & ID_PRESENT != 0).then_some((
        ListId(((entry >> 32) & 0x7fff_ffff) as u32),
        (entry & 0xffff_ffff) as usize,
    ))
}

/// Append-only store of every image's row, keyed by list position; see
/// the module docs.
///
/// # Example
///
/// ```
/// use jdvs_core::ids::{ImageId, ListId};
/// use jdvs_core::rows::RowStore;
///
/// let store = RowStore::new(2, 4);
/// store.put(ImageId(7), ListId(1), 0, &[1.0, 2.0]);
/// assert_eq!(store.locate(ImageId(7)), Some((ListId(1), 0)));
/// let row = store.snapshot().get(ImageId(7)).unwrap();
/// assert_eq!(row.to_vector().as_slice(), &[1.0, 2.0]);
/// assert!(store.snapshot().get(ImageId(8)).is_none());
/// ```
pub struct RowStore {
    /// Words per row.
    dim: usize,
    /// Per list: its blocks, the directory boxed on the list's first row
    /// so an index of many (mostly short) lists pays two words per list.
    lists: Box<[OnceLock<Box<Directory<RowBlock>>>]>,
    /// The row memory, one zeroed region at a time.
    regions: Directory<Box<[AtomicU32]>>,
    /// Regions created, and blocks issued from the last one. Allocation
    /// bookkeeping under a plain lock, off the `crate::sync` facade: it
    /// publishes nothing (the directories and masks do), and loom models
    /// must not schedule inside a directory slot's initialization.
    issued: parking_lot::Mutex<(usize, usize)>,
    locations: AtomicArray<IdSlot>,
}

impl std::fmt::Debug for RowStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowStore")
            .field("dim", &self.dim)
            .field("lists", &self.lists.len())
            .finish()
    }
}

impl RowStore {
    /// An empty store of `dim`-word rows over `num_lists` lists.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `num_lists == 0`.
    pub fn new(dim: usize, num_lists: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert!(num_lists > 0, "num_lists must be positive");
        Self {
            dim,
            lists: (0..num_lists).map(|_| OnceLock::new()).collect(),
            regions: Directory::new(),
            issued: parking_lot::Mutex::new((0, 0)),
            locations: AtomicArray::new(FIRST_IDS),
        }
    }

    /// Stores `row` at position `pos` of `list` (the position
    /// [`crate::inverted::InvertedIndex::append`] returned for `id`), then
    /// registers `id → (list, pos)`. Write-once: only the first `put` of a
    /// position writes it, later ones change nothing.
    ///
    /// # Panics
    ///
    /// Panics if `row`'s length is not the store's `dim` or `list` is out
    /// of range.
    pub fn put(&self, id: ImageId, list: ListId, pos: usize, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "row dimension mismatch");
        let block = self.lists[list.as_usize()]
            .get_or_init(|| Box::new(Directory::new()))
            .get_or_init(pos / ROW_BLOCK, || self.issue_block());
        let lane = pos % ROW_BLOCK;
        let lane_bit = 1u32 << lane;
        // Relaxed: the claim orders nothing, it only elects the position's
        // one writer — RMWs on one word are totally ordered, so exactly
        // one `put` sees the bit clear.
        if block.claimed.fetch_or(lane_bit, Ordering::Relaxed) & lane_bit != 0 {
            return;
        }
        let words = &block.words(&self.regions, self.dim)[lane * self.dim..][..self.dim];
        for (word, &x) in words.iter().zip(row) {
            // Relaxed: only this writer stores the lane's words; they are
            // published by the mask RMW below.
            word.store(x.to_bits(), Ordering::Relaxed);
        }
        // Release: pairs with the Acquire load in `RowBlock::published` —
        // a reader that observes the bit observes every store above.
        block.published.fetch_or(lane_bit, Ordering::Release);

        let slot = self.locations.get_or_grow(id.as_usize());
        let start = block.start + lane * self.dim;
        // Relaxed: published by the entry's Release store below.
        slot[1].store(
            (block.region as u64) << 32 | start as u64,
            Ordering::Relaxed,
        );
        let entry = ID_PRESENT | (list.as_usize() as u64) << 32 | pos as u64;
        // Release: pairs with the Acquire loads in `locate` and
        // `RowReader::get`, so an id-keyed reader that finds the entry also
        // finds the row's location and the row itself (both stored above
        // in program order).
        slot[0].store(entry, Ordering::Release);
    }

    /// Blocks per region.
    fn region_blocks(&self) -> usize {
        (REGION_BYTES / (ROW_BLOCK * self.dim * std::mem::size_of::<f32>())).max(1)
    }

    /// A fresh block: the next unissued one of the last region, or the
    /// first of a new region.
    fn issue_block(&self) -> RowBlock {
        let block_words = ROW_BLOCK * self.dim;
        let mut issued = self.issued.lock();
        let (regions, used) = &mut *issued;
        if *regions == 0 || *used == self.region_blocks() {
            self.regions
                .get_or_init(*regions, || zeroed(self.region_blocks() * block_words));
            *regions += 1;
            *used = 0;
        }
        *used += 1;
        RowBlock {
            region: *regions - 1,
            start: (*used - 1) * block_words,
            claimed: AtomicU32::new(0),
            published: AtomicU32::new(0),
        }
    }

    /// The (list, position) `id`'s row was stored under, if it was put.
    pub fn locate(&self, id: ImageId) -> Option<(ListId, usize)> {
        let slot = self.locations.get(id.as_usize())?;
        // Acquire: pairs with the Release store in `put`; see there.
        unpack_entry(slot[0].load(Ordering::Acquire))
    }

    /// A reader over one list's rows — the scan path's view. Borrows the
    /// list's blocks; costs nothing to create.
    ///
    /// # Panics
    ///
    /// Panics if `list` is out of range.
    pub fn list(&self, list: ListId) -> ListRows<'_> {
        ListRows {
            blocks: self.lists[list.as_usize()].get().map(|b| &**b),
            regions: &self.regions,
            dim: self.dim,
        }
    }

    /// A by-id reader over every row published so far or later: rows never
    /// move, so it pins nothing and may be held for a whole plan.
    pub fn snapshot(&self) -> RowReader<'_> {
        RowReader { store: self }
    }

    /// Row bytes as `(allocated, written)`: the words of every block
    /// issued to a list so far, and those of the rows published so far.
    /// Blocks are issued one at a time as a list's positions reach them,
    /// so their difference is at most one block per non-empty list. Not
    /// counted: mask words, and the unissued blocks of the last region
    /// (fewer than one region's worth, [`REGION_BYTES`]).
    pub fn row_bytes(&self) -> (usize, usize) {
        let (mut blocks, mut rows) = (0, 0);
        for (_, block) in self
            .lists
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|dir| dir.iter())
        {
            blocks += 1;
            // Relaxed: a gauge; it orders nothing.
            rows += block.published.load(Ordering::Relaxed).count_ones() as usize;
        }
        let row = self.dim * std::mem::size_of::<f32>();
        (blocks * ROW_BLOCK * row, rows * row)
    }
}

/// A reader over one list's rows; see [`RowStore::list`].
#[derive(Clone, Copy)]
pub struct ListRows<'a> {
    /// `None` until the list's first row.
    blocks: Option<&'a Directory<RowBlock>>,
    regions: &'a Directory<Box<[AtomicU32]>>,
    dim: usize,
}

impl std::fmt::Debug for ListRows<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ListRows").field("dim", &self.dim).finish()
    }
}

impl<'a> ListRows<'a> {
    /// Block `idx` (positions `idx · ROW_BLOCK ..`) with its published
    /// mask, as one Acquire load saw it; `None` if no row of it was ever
    /// put.
    #[inline]
    pub fn block(&self, idx: usize) -> Option<BlockRows<'a>> {
        let block = self.blocks?.get(idx)?;
        Some(BlockRows {
            words: block.words(self.regions, self.dim),
            mask: block.published(),
            dim: self.dim,
        })
    }
}

/// One block of a list, with the lanes an Acquire load of its mask saw
/// published; see [`ListRows::block`].
#[derive(Clone, Copy)]
pub struct BlockRows<'a> {
    words: &'a [AtomicU32],
    mask: u32,
    dim: usize,
}

impl std::fmt::Debug for BlockRows<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockRows")
            .field("mask", &format_args!("{:#x}", self.mask))
            .finish()
    }
}

impl<'a> BlockRows<'a> {
    /// Bit `i` set: lane `i` holds a complete row.
    #[inline]
    pub fn published(&self) -> u32 {
        self.mask
    }

    /// The row of `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane`'s bit is not in [`Self::published`].
    #[inline]
    pub fn row(&self, lane: usize) -> Row<'a> {
        assert!(self.mask & 1 << lane != 0, "lane {lane} is not published");
        Row {
            words: &self.words[lane * self.dim..][..self.dim],
        }
    }
}

/// One published row; see [`BlockRows::row`] and [`RowReader::get`].
#[derive(Clone, Copy)]
pub struct Row<'a> {
    /// Seen published by an Acquire mask load: complete, and never
    /// written again.
    words: &'a [AtomicU32],
}

impl std::fmt::Debug for Row<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.with(|row| f.debug_list().entries(row).finish())
    }
}

impl Row<'_> {
    /// `f` over the row's features, borrowed in place.
    #[cfg(not(loom))]
    #[inline]
    pub fn with<R>(self, f: impl FnOnce(&[f32]) -> R) -> R {
        const _: () = assert!(std::mem::size_of::<AtomicU32>() == std::mem::size_of::<f32>());
        const _: () = assert!(std::mem::align_of::<AtomicU32>() >= std::mem::align_of::<f32>());
        // SAFETY: `words` is `dim` initialized, aligned words (`AtomicU32`
        // has the size of `f32` and at least its alignment, asserted above;
        // every bit pattern is a valid `f32`) that live as long as the
        // store. The row's publication was seen by an Acquire load — of
        // its block's mask, or of its id-map entry, which `put` stores
        // after setting the mask bit — so its single writer's stores
        // happened-before this read, and no
        // store to these words can follow: a lane's words are written only
        // by the `put` that won its `claimed` bit, strictly before it set
        // the published bit. Plain reads therefore cannot race.
        let row = unsafe {
            std::slice::from_raw_parts(self.words.as_ptr().cast::<f32>(), self.words.len())
        };
        f(row)
    }

    /// Loom's instrumented atomics have no stable layout to read through;
    /// model builds copy the row out with atomic loads.
    #[cfg(loom)]
    pub fn with<R>(self, f: impl FnOnce(&[f32]) -> R) -> R {
        let row: Vec<f32> = self
            .words
            .iter()
            // Relaxed: ordered by the Acquire mask load that admitted the
            // lane.
            .map(|w| f32::from_bits(w.load(Ordering::Relaxed)))
            .collect();
        f(&row)
    }

    /// Starts loading the row into cache, for a reader that will ask for
    /// it a little later.
    #[inline]
    pub fn prefetch(self) {
        #[cfg(not(loom))]
        jdvs_vector::simd::prefetch(self.words);
    }

    /// The row as an owned vector.
    pub fn to_vector(self) -> Vector {
        self.with(|row| Vector::from(row))
    }
}

/// By-id reads over a [`RowStore`]; see [`RowStore::snapshot`].
#[derive(Clone, Copy)]
pub struct RowReader<'a> {
    store: &'a RowStore,
}

impl std::fmt::Debug for RowReader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowReader").finish_non_exhaustive()
    }
}

impl<'a> RowReader<'a> {
    /// `id`'s row, found through the id map; `None` until it is published.
    #[inline]
    pub fn get(&self, id: ImageId) -> Option<Row<'a>> {
        let slot = self.store.locations.get(id.as_usize())?;
        // Acquire: pairs with the Release store of the entry in
        // `RowStore::put`, which follows the row's words, its publish bit
        // and its location.
        unpack_entry(slot[0].load(Ordering::Acquire))?;
        // Relaxed: ordered by the Acquire load above.
        let at = slot[1].load(Ordering::Relaxed);
        let region = self.store.regions.get((at >> 32) as usize)?;
        let words = &region[(at & 0xffff_ffff) as usize..][..self.store.dim];
        Some(Row { words })
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn row_of(x: usize, dim: usize) -> Vec<f32> {
        (0..dim).map(|d| (x * dim + d) as f32).collect()
    }

    /// The published row at `pos` of `list`, read through its block.
    fn row_at(store: &RowStore, list: ListId, pos: usize) -> Option<Vec<f32>> {
        let block = store.list(list).block(pos / ROW_BLOCK)?;
        let lane = pos % ROW_BLOCK;
        (block.published() & 1 << lane != 0).then(|| block.row(lane).with(|r| r.to_vec()))
    }

    #[test]
    fn put_then_read_by_position_and_by_id() {
        let store = RowStore::new(3, 2);
        store.put(ImageId(7), ListId(1), 40, &[1.0, 2.0, 3.0]);
        assert_eq!(store.locate(ImageId(7)), Some((ListId(1), 40)));
        assert_eq!(row_at(&store, ListId(1), 40).unwrap(), vec![1.0, 2.0, 3.0]);
        let by_id = store.snapshot().get(ImageId(7)).unwrap();
        assert_eq!(by_id.with(|r| r.to_vec()), vec![1.0, 2.0, 3.0]);
        // Neighbouring lanes, other blocks, other lists, other ids: empty.
        assert!(row_at(&store, ListId(1), 41).is_none());
        assert!(row_at(&store, ListId(1), 0).is_none());
        assert!(row_at(&store, ListId(0), 40).is_none());
        assert!(store.snapshot().get(ImageId(8)).is_none());
        assert!(store.snapshot().get(ImageId(1 << 20)).is_none());
    }

    #[test]
    fn positions_are_write_once() {
        let store = RowStore::new(2, 1);
        store.put(ImageId(0), ListId(0), 0, &[1.0, 1.0]);
        store.put(ImageId(1), ListId(0), 0, &[2.0, 2.0]);
        let row = row_at(&store, ListId(0), 0).unwrap();
        assert_eq!(row, vec![1.0, 1.0], "first write wins");
        assert_eq!(
            store.locate(ImageId(1)),
            None,
            "a lost claim registers nothing"
        );
    }

    #[test]
    fn blocks_publish_lane_by_lane_and_seal() {
        let dim = 4;
        let store = RowStore::new(dim, 1);
        let list = store.list(ListId(0));
        assert!(list.block(0).is_none(), "nothing put yet");
        for pos in (0..ROW_BLOCK + 3).filter(|&pos| pos != 5) {
            store.put(ImageId(pos as u32), ListId(0), pos, &row_of(pos, dim));
        }
        let list = store.list(ListId(0));
        let block = list.block(0).unwrap();
        assert_eq!(block.published(), !(1 << 5));
        assert_eq!(list.block(1).unwrap().published(), 0b111);
        store.put(ImageId(5), ListId(0), 5, &row_of(5, dim));
        assert_eq!(block.published(), !(1 << 5), "a block view keeps its mask");
        let block = list.block(0).unwrap();
        assert_eq!(block.published(), u32::MAX);
        for lane in 0..ROW_BLOCK {
            assert_eq!(block.row(lane).with(|r| r.to_vec()), row_of(lane, dim));
        }
        assert!(list.block(2).is_none());
    }

    #[test]
    fn row_bytes_hold_at_most_one_unwritten_block_per_list() {
        let dim = 8;
        let row = dim * 4;
        let lists = 5;
        let store = RowStore::new(dim, lists);
        assert_eq!(store.row_bytes(), (0, 0));
        let mut nonempty = 0;
        let mut written = 0;
        // Lengths around the block edges; list 4 stays empty.
        for (l, len) in [1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK - 1]
            .into_iter()
            .enumerate()
        {
            for pos in 0..len {
                store.put(
                    ImageId((l * 1000 + pos) as u32),
                    ListId(l as u32),
                    pos,
                    &row_of(pos, dim),
                );
                written += 1;
                nonempty = nonempty.max(l + 1);
                let (allocated, bytes) = store.row_bytes();
                assert_eq!(bytes, written * row);
                assert!(allocated >= bytes);
                assert!(
                    allocated - bytes <= nonempty * ROW_BLOCK * row,
                    "list {l} pos {pos}: {allocated} allocated for {bytes} written"
                );
            }
        }
        let blocks = 1 + 1 + 2 + 3;
        assert_eq!(store.row_bytes(), (blocks * ROW_BLOCK * row, written * row));
    }

    #[test]
    #[should_panic(expected = "row dimension mismatch")]
    fn wrong_dimension_panics() {
        RowStore::new(3, 1).put(ImageId(0), ListId(0), 0, &[1.0]);
    }

    /// Writers fill one list's unsealed blocks while a reader walks them:
    /// every lane a mask admits must already hold its exact final row.
    #[test]
    fn concurrent_puts_into_shared_blocks_are_exact() {
        let dim = 16;
        let store = RowStore::new(dim, 1);
        let n = 10 * ROW_BLOCK;
        let writers = 4;
        std::thread::scope(|s| {
            for w in 0..writers {
                let store = &store;
                s.spawn(move || {
                    for pos in (w..n).step_by(writers) {
                        store.put(ImageId(pos as u32), ListId(0), pos, &row_of(pos, dim));
                    }
                });
            }
            s.spawn(|| {
                for _ in 0..50 {
                    let list = store.list(ListId(0));
                    for b in 0..n / ROW_BLOCK {
                        let Some(block) = list.block(b) else { continue };
                        let mut mask = block.published();
                        while mask != 0 {
                            let lane = mask.trailing_zeros() as usize;
                            mask &= mask - 1;
                            let pos = b * ROW_BLOCK + lane;
                            assert_eq!(block.row(lane).with(|r| r.to_vec()), row_of(pos, dim));
                        }
                    }
                }
            });
        });
        for pos in 0..n {
            let row = store.snapshot().get(ImageId(pos as u32)).unwrap();
            assert_eq!(row.with(|r| r.to_vec()), row_of(pos, dim));
        }
    }
}
