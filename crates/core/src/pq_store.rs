//! Compressed-vector scan mode (product quantization) — interleaved
//! fast-scan layout.
//!
//! The paper's searchers scan raw feature vectors; its related work cites
//! product quantization (Jégou et al., ref \[19\]) as the standard way to
//! shrink the scan-side memory footprint at 100 B-image scale. [`PqStore`]
//! holds every image's PQ code in the layout the scan wants:
//!
//! - Codes live **per inverted list**, keyed by the position
//!   [`crate::inverted::InvertedList::append`] assigned, so a probed list's
//!   codes are one contiguous streak of cache lines instead of a pointer
//!   chase through per-id boxes. They are a parallel array to the list's
//!   `f32` rows ([`crate::rows`]), keyed by the same positions and never
//!   interleaved with them, so the code stream stays dense; an id's
//!   position is found through [`crate::rows::RowStore::locate`].
//! - Positions are grouped into blocks of [`FASTSCAN_BLOCK`] codes,
//!   **subspace-major within the block**: byte `t` of subspace `s`'s
//!   16-byte row packs the sub-`s` code of block lane `t` (low nibble) and
//!   lane `t + 16` (high nibble) — exactly the operand shape of
//!   [`jdvs_vector::simd::KernelSet::fastscan16_run_le`], so one
//!   `pshufb`/`tbl` scores 32 candidates per subspace, and consecutive
//!   blocks are consecutive tiles.
//!
//! A list's codes live in **segments that double**: segment `i` holds
//! `FIRST_SEGMENT · 2^i` positions (256, 512, 1024, …), so a list of `n`
//! codes has `O(log n)` segments, long lists get long contiguous stretches,
//! and fewer than `n + 256` positions are allocated ahead of its codes.
//! A segment's code words are allocated zeroed: pages nobody has
//! written cost address space, not resident memory ([`PqStore::code_bytes`]
//! reports both figures). Segments are created on first write, never
//! moved and freed only with the store, so readers *borrow* them: no lock,
//! no refcount.
//!
//! ## Concurrency
//!
//! Blocks are shared by up to 32 concurrently-inserting writers (and two
//! *lanes* share each byte), so code bytes live in
//! `AtomicU64` words written with `fetch_or`: every lane's bits start
//! zero and are written exactly once, so OR-merging concurrent writers is
//! exact. Every 32 positions share two mask words:
//!
//! - `claimed`: a writer first sets its lane's bit (Relaxed `fetch_or`) and
//!   backs off if it was already set, so **at most one writer ever ORs
//!   bits into a lane**, whatever the callers do.
//! - `published`: after its code bits (Relaxed `fetch_or`s), the writer
//!   sets its lane's bit with a **Release** `fetch_or`. A reader loads the
//!   word once per block with **Acquire**. Every modification of the word
//!   is an RMW, so each writer's release sequence runs to the end of the
//!   modification order: the one load synchronizes with *every* writer
//!   whose bit it sees, and those lanes' codes are complete.
//!
//! A `published` word of `u32::MAX` means the block is **sealed**: all 32
//! lanes were claimed, written and published, so no thread will ever
//! write the block's bytes again (a later `put` fails its claim before
//! touching them). A sealed block is therefore plain immutable memory.
//! [`PqListReader::load_run`] reads a list in **runs**: up to [`RUN`]
//! consecutive blocks of one segment, each of which its own Acquire load
//! observed sealed, are lent to the kernels **in place** as one slice —
//! non-atomic reads straight out of the segment, race-free because every
//! block of the slice had its seal observed, so all writes to its bytes
//! happened-before the read and none can follow. The first block not seen
//! sealed ends the run; on its own it is copied into scratch with atomic
//! loads (at most the tail of a list, while writers still fill it), and
//! its unpublished lanes are masked out of scans — they are also never
//! bitmap-visible, because [`crate::index::VisualIndex::insert`] sets the
//! validity bit after `put` returns. The row store publishes rows under
//! the same claimed/published protocol; its lanes share no bytes, so a
//! published row is read in place even in an unsealed block.
//!
//! The `ablate-pq` experiment quantifies the trade: memory shrinks by
//! `8·d/m`, and the fast-scan path trades a bounded quantization error for
//! the register-resident kernel — which is why compressed search re-ranks.

use std::sync::OnceLock;

use crate::directory::bucket_of;
use crate::sync::{zeroed, AtomicU32, AtomicU64, Ordering};

use jdvs_vector::pq::{ProductQuantizer, QuantizedAdcTable};
use jdvs_vector::Vector;

use crate::ids::{ImageId, ListId};

/// Codes per fast-scan block (one kernel tile), and positions per
/// publication mask.
pub const FASTSCAN_BLOCK: usize = jdvs_vector::pq::FASTSCAN_BLOCK;

/// Positions in a list's first code segment; segment `i` holds
/// `FIRST_SEGMENT << i`.
pub const FIRST_SEGMENT: usize = 256;

/// Most sealed blocks one [`PqListReader::load_run`] lends: one fast-scan
/// kernel call scores up to `RUN · 32` codes against LUTs it loads once.
pub const RUN: usize = 16;

/// Segments per list: `FIRST_SEGMENT · (2^25 - 1)` positions cover every
/// `u32` position.
const SEGMENTS: usize = 25;

/// `(segment, offset within it)` of list position `pos`.
#[inline]
fn segment_of(pos: usize) -> (usize, usize) {
    bucket_of(pos, FIRST_SEGMENT.ilog2())
}

/// One segment of a list's code area: flat atomic words holding packed
/// code bytes, plus the two mask words of each 32-position block (see the
/// module docs).
struct CodeSegment {
    /// Packed code bytes, 8 per word, in **memory order**: byte `b` of the
    /// segment is byte `b % 8` of word `b / 8`'s native representation, so
    /// the words of sealed blocks read back as kernel tiles in place.
    words: Box<[AtomicU64]>,
    /// Bit `i` of word `k`: some writer owns position `32·k + i`.
    claimed: Box<[AtomicU32]>,
    /// Bit `i` of word `k`: position `32·k + i`'s full code is stored —
    /// the Release/Acquire publication point for the bits in `words`.
    published: Box<[AtomicU32]>,
}

impl CodeSegment {
    /// Segment `seg` of a list of `m`-subspace codes.
    fn new(seg: usize, m: usize) -> Self {
        let positions = FIRST_SEGMENT << seg;
        let masks = || {
            (0..positions / FASTSCAN_BLOCK)
                .map(|_| AtomicU32::new(0))
                .collect()
        };
        Self {
            // `m` nibbles per position, 16 nibbles per word.
            words: zeroed(positions * m / 16),
            claimed: masks(),
            published: masks(),
        }
    }

    /// The published-lane mask of block `block`.
    #[inline]
    fn published(&self, block: usize) -> u32 {
        // Acquire: pairs with the Release `fetch_or` in `PqStore::put` of
        // every lane the mask admits (all modifications of the word are
        // RMWs, so each one's release sequence reaches this load) — the
        // word loads that follow see those lanes' complete codes.
        self.published[block].load(Ordering::Acquire)
    }
}

/// `value` as byte `byte % 8` of a word in memory order.
#[inline]
fn byte_in_word(byte: usize, value: u8) -> u64 {
    let mut bytes = [0u8; 8];
    bytes[byte % 8] = value;
    u64::from_ne_bytes(bytes)
}

/// Byte offset (within a segment of `m`-subspace codes) of subspace `sub`
/// of position `off`, plus the in-byte nibble shift.
#[inline]
fn byte_of(m: usize, off: usize, sub: usize) -> (usize, u32) {
    let block = off / FASTSCAN_BLOCK;
    let lane = off % FASTSCAN_BLOCK;
    let byte = block * m * 16 + sub * 16 + lane % 16;
    (byte, if lane < 16 { 0 } else { 4 })
}

/// One list's code segments, each created on its first write.
type Segments = [OnceLock<Box<CodeSegment>>; SEGMENTS];

/// Append-only store of PQ codes in the interleaved fast-scan layout; see
/// the module docs.
pub struct PqStore {
    quantizer: std::sync::Arc<ProductQuantizer>,
    /// Subspaces per code (`quantizer.num_subspaces()`).
    m: usize,
    /// Per list: its segments, boxed on the list's first `put` so an index
    /// of many (mostly short) lists pays two words per list.
    lists: Box<[OnceLock<Box<Segments>>]>,
}

impl std::fmt::Debug for PqStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PqStore")
            .field("subspaces", &self.m)
            .field("lists", &self.lists.len())
            .finish()
    }
}

impl PqStore {
    /// Creates a store over a trained quantizer, with one code area per
    /// inverted list.
    ///
    /// # Panics
    ///
    /// Panics if `num_lists == 0`.
    pub fn new(quantizer: std::sync::Arc<ProductQuantizer>, num_lists: usize) -> Self {
        assert!(num_lists > 0, "num_lists must be positive");
        Self {
            m: quantizer.num_subspaces(),
            quantizer,
            lists: (0..num_lists).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The underlying quantizer.
    pub fn quantizer(&self) -> &ProductQuantizer {
        &self.quantizer
    }

    /// The shared codebook handle (for seeding sibling indexes with the
    /// same quantizers).
    pub fn quantizer_arc(&self) -> std::sync::Arc<ProductQuantizer> {
        std::sync::Arc::clone(&self.quantizer)
    }

    /// Packed storage bytes per vector (`m` nibbles, rounded up).
    pub fn bytes_per_vector(&self) -> usize {
        self.m.div_ceil(2)
    }

    /// Code bytes as `(allocated, published)`: the code words of every
    /// segment created so far, and the nibbles of the codes published so
    /// far (in bytes, rounded up). Their difference is what doubling
    /// allocates ahead of the codes; zeroed pages nobody wrote are address
    /// space, not resident memory. Mask words are not counted.
    pub fn code_bytes(&self) -> (usize, usize) {
        let (mut allocated, mut codes) = (0, 0);
        for seg in self
            .lists
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|segs| segs.iter().filter_map(OnceLock::get))
        {
            allocated += seg.words.len() * 8;
            codes += seg
                .published
                .iter()
                // Relaxed: a gauge; it orders nothing.
                .map(|mask| mask.load(Ordering::Relaxed).count_ones() as usize)
                .sum::<usize>();
        }
        (allocated, (codes * self.m).div_ceil(2))
    }

    /// Encodes and stores `vector` as the code of position `pos` of `list`
    /// (the position [`crate::inverted::InvertedIndex::append`] returned
    /// for the image `_id`). Codes are keyed by position alone: the index
    /// finds an id's position through [`crate::rows::RowStore::locate`].
    /// Write-once: only the first `put` of a position writes it, later
    /// ones change nothing.
    ///
    /// # Panics
    ///
    /// Panics if `vector`'s dimension differs from the quantizer's or
    /// `list` is out of range.
    pub fn put(&self, _id: ImageId, list: ListId, pos: usize, vector: &Vector) {
        let code = self.quantizer.encode(vector.as_slice());
        let (seg_idx, off) = segment_of(pos);
        let seg = self.lists[list.as_usize()]
            .get_or_init(|| Box::new([const { OnceLock::new() }; SEGMENTS]))[seg_idx]
            .get_or_init(|| Box::new(CodeSegment::new(seg_idx, self.m)));
        let (block, lane_bit) = (off / FASTSCAN_BLOCK, 1u32 << (off % FASTSCAN_BLOCK));
        // Relaxed: the claim orders nothing, it only elects the position's
        // one writer — RMWs on one word are totally ordered, so exactly
        // one `put` sees the bit clear. That election is what lets readers
        // treat a sealed block as immutable (see the module docs).
        if seg.claimed[block].fetch_or(lane_bit, Ordering::Relaxed) & lane_bit != 0 {
            return;
        }
        for (sub, &c) in code.iter().enumerate() {
            let (byte, nibble_shift) = byte_of(self.m, off, sub);
            debug_assert!(c < 16, "4-bit code out of range");
            // Relaxed RMW: each lane's bits are zero until its single
            // writer ORs them in, so concurrent writers to the shared
            // word (other lanes of the block) merge exactly. The bits
            // are published by the mask RMW below.
            seg.words[byte / 8].fetch_or(byte_in_word(byte, c << nibble_shift), Ordering::Relaxed);
        }
        // Release: pairs with the Acquire load in `CodeSegment::published`
        // — a reader that observes the bit observes every `fetch_or`
        // above.
        seg.published[block].fetch_or(lane_bit, Ordering::Release);
    }

    /// A reader over one list's codes — the scan path's view. Borrows the
    /// list's segments; costs nothing to create.
    ///
    /// # Panics
    ///
    /// Panics if `list` is out of range.
    pub fn list_reader(&self, list: ListId) -> PqListReader<'_> {
        PqListReader {
            segments: self.lists[list.as_usize()].get().map(|segs| &**segs),
            m: self.m,
        }
    }

    /// Builds the per-query quantized u8 LUTs for the fast-scan kernels.
    ///
    /// # Panics
    ///
    /// Panics if `query`'s dimension differs from the quantizer's.
    pub fn quantized_adc_table(&self, query: &[f32]) -> QuantizedAdcTable {
        self.quantizer.quantized_adc_table(query)
    }

    /// `f` over the unpacked code at `pos` of `list`, read into stack
    /// scratch (heap only for more subspaces than any shipped
    /// configuration uses); `None` if the position was never written.
    fn with_code<R>(&self, list: ListId, pos: usize, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let mut stack = [0u8; 64];
        let mut heap = Vec::new();
        let code = match stack.get_mut(..self.m) {
            Some(code) => code,
            None => {
                heap.resize(self.m, 0);
                &mut heap[..]
            }
        };
        self.list_reader(list).read_code(pos, code).then(|| f(code))
    }

    /// Quantized fast-scan distance of the code at `pos` of `list` — the
    /// per-position twin of the block kernels, bit-identical to a masked
    /// [`jdvs_vector::simd::KernelSet::fastscan16`] lane (`None` if the
    /// position was never written).
    pub fn quantized_distance(
        &self,
        table: &QuantizedAdcTable,
        list: ListId,
        pos: usize,
    ) -> Option<f32> {
        self.with_code(list, pos, |code| table.distance(code))
    }

    /// Reconstructs the approximate vector stored at `pos` of `list`.
    pub fn decode(&self, list: ListId, pos: usize) -> Option<Vector> {
        self.with_code(list, pos, |code| self.quantizer.decode(code))
    }
}

/// A stretch of a list's blocks, as [`PqListReader::load_run`] returns it.
#[derive(Debug)]
pub struct BlockRun<'t> {
    /// Blocks covered, at least one.
    pub blocks: usize,
    /// The **published** lanes of every covered block (bit `i` set means
    /// the block's position `i` holds a complete code): `u32::MAX` for a
    /// sealed run, the one block's mask for a copied one, 0 when nothing
    /// of that block is published.
    pub mask: u32,
    /// The covered blocks' tiles back to back (`blocks × tile_len()`
    /// bytes, kernel operand order); empty when `mask` is 0.
    pub tiles: &'t [u8],
}

/// A reader over one list's codes; see [`PqStore::list_reader`].
pub struct PqListReader<'a> {
    /// `None` until the list's first `put`.
    segments: Option<&'a Segments>,
    /// Subspaces per code.
    m: usize,
}

impl std::fmt::Debug for PqListReader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PqListReader")
            .field("subspaces", &self.m)
            .finish()
    }
}

impl<'a> PqListReader<'a> {
    /// Bytes of one fast-scan tile (`m × 16`, the `load_run` scratch).
    pub fn tile_len(&self) -> usize {
        self.m * 16
    }

    /// Segment `idx`, if it was ever allocated.
    #[inline]
    fn segment(&self, idx: usize) -> Option<&'a CodeSegment> {
        self.segments?[idx].get().map(|seg| &**seg)
    }

    /// The run of blocks starting at position `base`, covering no block
    /// past the one that holds position `end - 1` (the caller's list
    /// length). Either up to [`RUN`] blocks of one segment, **each** seen
    /// sealed by its own Acquire load of its mask, lent in place — the
    /// run ends at the first block not seen sealed, at the segment's end,
    /// at `RUN` or at `end` — or, when the block at `base` is not sealed,
    /// that one block copied into `scratch` with its published mask. A
    /// copied block's unpublished lanes' bytes are unspecified: kernel
    /// sums for them must be discarded via the mask.
    ///
    /// # Panics
    ///
    /// Panics unless `base` is block-aligned, `base < end` and
    /// `scratch.len() == self.tile_len()`.
    #[inline]
    pub fn load_run<'t>(&self, base: usize, end: usize, scratch: &'t mut [u8]) -> BlockRun<'t>
    where
        'a: 't,
    {
        assert_eq!(base % FASTSCAN_BLOCK, 0, "run base must be block-aligned");
        assert!(base < end, "empty run");
        assert_eq!(scratch.len(), self.tile_len(), "tile length mismatch");
        let (seg_idx, off) = segment_of(base);
        let empty = BlockRun {
            blocks: 1,
            mask: 0,
            tiles: &[],
        };
        let Some(seg) = self.segment(seg_idx) else {
            return empty;
        };
        let block = off / FASTSCAN_BLOCK;
        let mask = seg.published(block);
        let words_per_block = self.tile_len() / 8;
        // Loom's instrumented atomics have no stable layout to read
        // through; model builds copy every block.
        #[cfg(not(loom))]
        if mask == u32::MAX {
            let limit = RUN
                .min(seg.published.len() - block)
                .min((end - base).div_ceil(FASTSCAN_BLOCK));
            let sealed = 1
                + (block + 1..block + limit)
                    .take_while(|&b| seg.published(b) == u32::MAX)
                    .count();
            let words = &seg.words[block * words_per_block..(block + sealed) * words_per_block];
            // SAFETY: `words` is `sealed × tile_len()` bytes of initialized,
            // 8-aligned memory (`AtomicU64` has the layout of `u64`) that
            // lives as long as the store (`'a`). Every one of its blocks was
            // seen sealed, so nothing writes it any more: a position's bytes
            // are written only by the one `put` that won its `claimed` bit,
            // strictly before that `put` sets its `published` bit, and all
            // 32 published bits of each block are set. Those writes
            // happened-before the block's Acquire mask load above (release
            // sequences, see `CodeSegment::published`), so plain reads
            // cannot race them. Bytes are stored in memory order
            // (`byte_in_word`), so the words *are* the tiles.
            let tiles =
                unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), words.len() * 8) };
            return BlockRun {
                blocks: sealed,
                mask,
                tiles,
            };
        }
        if mask == 0 {
            return empty;
        }
        let words = &seg.words[block * words_per_block..][..words_per_block];
        for (word, chunk) in words.iter().zip(scratch.chunks_exact_mut(8)) {
            // Relaxed: ordered by the Acquire mask load for every lane the
            // mask admits; bits of unpublished lanes may be mid-write but
            // are never interpreted.
            chunk.copy_from_slice(&word.load(Ordering::Relaxed).to_ne_bytes());
        }
        BlockRun {
            blocks: 1,
            mask,
            tiles: scratch,
        }
    }

    /// Reads the unpacked code at `pos` into `code`; `false` if the
    /// position is unwritten (or beyond the allocated segments).
    ///
    /// # Panics
    ///
    /// Panics if `code.len()` differs from the number of subspaces.
    pub fn read_code(&self, pos: usize, code: &mut [u8]) -> bool {
        assert_eq!(code.len(), self.m, "code length mismatch");
        let (seg_idx, off) = segment_of(pos);
        let Some(seg) = self.segment(seg_idx) else {
            return false;
        };
        if seg.published(off / FASTSCAN_BLOCK) & (1 << (off % FASTSCAN_BLOCK)) == 0 {
            return false;
        }
        for (sub, out) in code.iter_mut().enumerate() {
            let (byte, nibble_shift) = byte_of(self.m, off, sub);
            // Relaxed: ordered by the Acquire mask load above.
            let b = seg.words[byte / 8].load(Ordering::Relaxed).to_ne_bytes()[byte % 8];
            *out = (b >> nibble_shift) & 0x0f;
        }
        true
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use jdvs_vector::pq::PqConfig;
    use jdvs_vector::rng::Xoshiro256;

    fn trained(dim: usize, m: usize) -> (std::sync::Arc<ProductQuantizer>, Vec<Vector>) {
        let mut rng = Xoshiro256::seed_from(4);
        let data: Vec<Vector> = (0..400)
            .map(|_| (0..dim).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let pq = ProductQuantizer::train(
            &data,
            &PqConfig {
                num_subspaces: m,
                max_iters: 6,
                seed: 1,
            },
        );
        (std::sync::Arc::new(pq), data)
    }

    #[test]
    fn put_then_distance_round_trip() {
        let (pq, data) = trained(16, 4);
        let store = PqStore::new(pq, 2);
        for (i, v) in data.iter().take(50).enumerate() {
            store.put(ImageId(i as u32), ListId(0), i, v);
        }
        let table = store.quantized_adc_table(data[0].as_slice());
        let d_self = store.quantized_distance(&table, ListId(0), 0).unwrap();
        let d_other = store.quantized_distance(&table, ListId(0), 25).unwrap();
        assert!(
            d_self < d_other,
            "self-distance {d_self} must beat {d_other}"
        );
        assert!(store.quantized_distance(&table, ListId(0), 9_999).is_none());
        assert!(store.quantized_distance(&table, ListId(1), 0).is_none());
    }

    #[test]
    fn four_bit_codes_round_trip_through_nibble_packing() {
        let (pq, data) = trained(16, 8);
        let store = PqStore::new(std::sync::Arc::clone(&pq), 2);
        // Spread across both lists and past one segment so hi/lo nibbles,
        // partial tail blocks and the segment boundary are all exercised.
        for (i, v) in data.iter().enumerate() {
            let list = ListId((i % 2) as u32);
            store.put(ImageId(i as u32), list, i / 2 + 200, v);
        }
        let mut code = vec![0u8; 8];
        for (i, v) in data.iter().enumerate() {
            let list = store.list_reader(ListId((i % 2) as u32));
            assert!(list.read_code(i / 2 + 200, &mut code));
            assert_eq!(code, pq.encode(v.as_slice()), "id {i}");
        }
    }

    /// Whether `tiles` is `scratch`'s memory (the copy path) or the
    /// segment's own (in place).
    fn in_place(tiles: &[u8], scratch: *const u8) -> bool {
        !std::ptr::eq(tiles.as_ptr(), scratch)
    }

    /// Puts `data[pos]` at every position of `positions` in list 0.
    fn fill(store: &PqStore, data: &[Vector], positions: impl Iterator<Item = usize>) {
        for pos in positions {
            store.put(ImageId(pos as u32), ListId(0), pos, &data[pos % data.len()]);
        }
    }

    #[test]
    fn positions_map_across_the_doubling_boundaries() {
        for (pos, want) in [
            (0, (0, 0)),
            (255, (0, 255)),
            (256, (1, 0)),
            (767, (1, 511)),
            (768, (2, 0)),
            (1791, (2, 1023)),
            (1792, (3, 0)),
        ] {
            assert_eq!(segment_of(pos), want, "position {pos}");
        }
        let (seg, off) = segment_of(u32::MAX as usize);
        assert!(
            seg < SEGMENTS && off < FIRST_SEGMENT << seg,
            "every u32 position fits"
        );
    }

    #[test]
    fn runs_stop_at_unsealed_blocks_segment_ends_and_run_length() {
        let (pq, data) = trained(16, 4);
        let store = PqStore::new(pq, 1);
        // Positions 0..1500 except 1400: block 43 (1376..1408) is
        // unsealed, as is the tail block 46 (1472..1500).
        fill(&store, &data, (0..1500).filter(|&pos| pos != 1400));
        let reader = store.list_reader(ListId(0));
        let mut scratch = vec![0u8; reader.tile_len()];
        let scratch_ptr = scratch.as_ptr();
        let mut runs = Vec::new();
        let mut base = 0;
        while base < 1500 {
            let run = reader.load_run(base, 1500, &mut scratch);
            assert_eq!(run.tiles.len(), run.blocks * reader.tile_len(), "at {base}");
            assert_eq!(
                in_place(run.tiles, scratch_ptr),
                run.mask == u32::MAX,
                "at {base}"
            );
            runs.push((base, run.blocks, run.mask));
            base += run.blocks * FASTSCAN_BLOCK;
        }
        let all = u32::MAX;
        assert_eq!(
            runs,
            [
                (0, 8, all),    // segment 0 ends after 8 blocks
                (256, 16, all), // segment 1: 16 blocks, also `RUN`
                (768, 16, all), // segment 2 goes on: `RUN` ends the run
                (1280, 3, all), // block 43 is not sealed
                (1376, 1, !(1 << 24)),
                (1408, 2, all),
                (1472, 1, u32::MAX >> 4),
            ]
        );
        // `end` cuts a run at the block holding `end - 1`.
        let run = reader.load_run(768, 769, &mut scratch);
        assert_eq!((run.blocks, run.mask), (1, all));
        let run = reader.load_run(768, 768 + 5 * 32 + 1, &mut scratch);
        assert_eq!(run.blocks, 6);
        // Never-written segments are empty one block at a time.
        let run = reader.load_run(FIRST_SEGMENT * 63, FIRST_SEGMENT * 64, &mut scratch);
        assert!(run.blocks == 1 && run.mask == 0 && run.tiles.is_empty());
    }

    #[test]
    fn load_run_matches_per_id_distances_bit_exactly() {
        let (pq, data) = trained(16, 8);
        let store = PqStore::new(std::sync::Arc::clone(&pq), 1);
        // 800 codes: across segments 0, 1 and 2, sealed runs in place and
        // a partial tail block copied.
        let n = 800 - 3;
        fill(&store, &data, 0..n);
        let table = store.quantized_adc_table(data[5].as_slice());
        let reader = store.list_reader(ListId(0));
        let mut scratch = vec![0u8; reader.tile_len()];
        let mut acc = [0u16; FASTSCAN_BLOCK];
        let mut base = 0;
        while base < n {
            let run = reader.load_run(base, n, &mut scratch);
            assert_eq!(
                run.mask == u32::MAX,
                base + FASTSCAN_BLOCK <= n,
                "at {base}"
            );
            for (i, tile) in run.tiles.chunks_exact(reader.tile_len()).enumerate() {
                jdvs_vector::simd::scalar().fastscan16(tile, table.luts(), &mut acc);
                for (lane, &lane_acc) in acc.iter().enumerate() {
                    let pos = base + i * FASTSCAN_BLOCK + lane;
                    assert_eq!(run.mask & (1 << lane) != 0, pos < n, "publication at {pos}");
                    if pos < n {
                        let per_id = store.quantized_distance(&table, ListId(0), pos).unwrap();
                        assert_eq!(
                            table.to_f32(lane_acc).to_bits(),
                            per_id.to_bits(),
                            "pos {pos}"
                        );
                    }
                }
            }
            base += run.blocks * FASTSCAN_BLOCK;
        }
        assert_eq!(base, n.next_multiple_of(FASTSCAN_BLOCK));
    }

    #[test]
    fn block_turns_in_place_when_its_last_lane_publishes() {
        let (pq, data) = trained(16, 8);
        let store = PqStore::new(pq, 1);
        fill(&store, &data, 0..FASTSCAN_BLOCK - 1);
        let mut scratch = vec![0u8; 8 * 16];
        let scratch_ptr = scratch.as_ptr();
        let run = store.list_reader(ListId(0)).load_run(0, 64, &mut scratch);
        assert_eq!((run.blocks, run.mask), (1, u32::MAX >> 1));
        assert!(!in_place(run.tiles, scratch_ptr), "31 lanes: copied");
        let copied = run.tiles.to_vec();

        store.put(ImageId(31), ListId(0), 31, &data[31]);
        let run = store.list_reader(ListId(0)).load_run(0, 64, &mut scratch);
        assert_eq!((run.blocks, run.mask), (1, u32::MAX));
        assert!(
            in_place(run.tiles, scratch_ptr),
            "32 lanes: sealed, in place"
        );
        // Lane 31 is the high nibble of byte 15 of every row; nothing else
        // moved.
        for (at, (&now, &before)) in run.tiles.iter().zip(&copied).enumerate() {
            let others = if at % 16 == 15 { 0x0f } else { 0xff };
            assert_eq!(now & others, before & others, "byte {at}");
        }

        // The write-once guard: a second put of a sealed block's position
        // must not touch its bytes (readers hold them as plain memory).
        let sealed = run.tiles.to_vec();
        for pos in [0, 15, 16, 31] {
            store.put(ImageId(900 + pos as u32), ListId(0), pos, &data[100 + pos]);
        }
        let run = store.list_reader(ListId(0)).load_run(0, 64, &mut scratch);
        assert_eq!((run.mask, run.tiles), (u32::MAX, &sealed[..]));
    }

    #[test]
    fn code_bytes_count_doubling_segments_exactly() {
        let (pq, data) = trained(16, 8);
        let store = PqStore::new(pq, 2);
        assert_eq!(store.code_bytes(), (0, 0));
        // m = 8: 4 bytes per code. 800 codes cross the 256 and 768
        // boundaries: segments of 256 + 512 + 1024 positions.
        fill(&store, &data, 0..800);
        assert_eq!(store.code_bytes(), (1792 * 4, 800 * 4));
        // A second list's first code allocates its first segment.
        store.put(ImageId(5000), ListId(1), 0, &data[0]);
        assert_eq!(store.code_bytes(), ((1792 + 256) * 4, 801 * 4));
        // A rejected second put publishes nothing new.
        store.put(ImageId(5001), ListId(1), 0, &data[1]);
        assert_eq!(store.code_bytes(), ((1792 + 256) * 4, 801 * 4));
    }

    #[test]
    fn decode_approximates_original() {
        let (pq, data) = trained(16, 8);
        let store = PqStore::new(pq, 1);
        store.put(ImageId(0), ListId(0), 0, &data[0]);
        let approx = store.decode(ListId(0), 0).unwrap();
        let err = jdvs_vector::distance::squared_l2(approx.as_slice(), data[0].as_slice());
        let base = data[0].squared_norm();
        assert!(err < base, "reconstruction beats the origin baseline");
        assert!(store.decode(ListId(0), 1).is_none());
    }

    #[test]
    fn positions_are_write_once() {
        let (pq, data) = trained(8, 2);
        let store = PqStore::new(pq, 1);
        store.put(ImageId(0), ListId(0), 0, &data[0]);
        store.put(ImageId(0), ListId(0), 0, &data[1]);
        let decoded = store.decode(ListId(0), 0).unwrap();
        let d0 = jdvs_vector::distance::squared_l2(decoded.as_slice(), data[0].as_slice());
        let d1 = jdvs_vector::distance::squared_l2(decoded.as_slice(), data[1].as_slice());
        assert!(d0 <= d1, "first write wins");
    }

    #[test]
    fn compression_ratio_is_as_advertised() {
        let (pq, _) = trained(32, 8);
        let store = PqStore::new(pq, 1);
        // Raw storage would be 32 * 4 = 128 bytes: 32x compression.
        assert_eq!(store.bytes_per_vector(), 4);
        let (odd, _) = trained(24, 3);
        assert_eq!(PqStore::new(odd, 1).bytes_per_vector(), 2);
    }

    #[test]
    fn spans_segments() {
        let (pq, data) = trained(8, 2);
        let store = PqStore::new(pq, 1);
        let pos = 1000; // segment 2
        store.put(ImageId(7), ListId(0), pos, &data[0]);
        assert!(store.decode(ListId(0), pos).is_some());
        // Gap segments hold nothing.
        let reader = store.list_reader(ListId(0));
        let mut code = vec![0u8; 2];
        assert!(!reader.read_code(3, &mut code));
        assert!(reader.read_code(pos, &mut code));
    }

    /// Concurrent inserters share tail blocks (and nibble bytes) while
    /// readers scan mid-write; every
    /// published lane must already read back its exact final code.
    #[test]
    fn concurrent_inserts_into_shared_tail_blocks_are_exact() {
        let (pq, data) = trained(16, 8);
        let store = std::sync::Arc::new(PqStore::new(std::sync::Arc::clone(&pq), 1));
        let n = 320usize; // 10 blocks
        let writers = 8usize;
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(writers + 1));
        std::thread::scope(|s| {
            for w in 0..writers {
                let store = std::sync::Arc::clone(&store);
                let data = &data;
                let barrier = std::sync::Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    // Interleaved positions: every writer hits every block,
                    // and adjacent writers share nibble bytes.
                    for pos in (w..n).step_by(writers) {
                        store.put(ImageId(pos as u32), ListId(0), pos, &data[pos]);
                    }
                });
            }
            let store = std::sync::Arc::clone(&store);
            let barrier = std::sync::Arc::clone(&barrier);
            let pq = std::sync::Arc::clone(&pq);
            let data = &data;
            s.spawn(move || {
                barrier.wait();
                // Race reads against the writers: any published lane must
                // already hold its final, exact code.
                let mut scratch = vec![0u8; 8 * 16];
                let mut code = vec![0u8; 8];
                for _ in 0..50 {
                    let reader = store.list_reader(ListId(0));
                    let mut base = 0;
                    while base < n {
                        let run = reader.load_run(base, n, &mut scratch);
                        let first = base;
                        base += run.blocks * FASTSCAN_BLOCK;
                        for at in (0..run.blocks * FASTSCAN_BLOCK)
                            .filter(|at| run.mask & (1 << (at % FASTSCAN_BLOCK)) != 0)
                        {
                            let (tile, lane) = (
                                &run.tiles[at / FASTSCAN_BLOCK * 8 * 16..],
                                at % FASTSCAN_BLOCK,
                            );
                            let pos = first + at;
                            // The tile (in place once the block seals) and
                            // the per-position read agree with the encoder.
                            let want = pq.encode(data[pos].as_slice());
                            for (sub, &c) in want.iter().enumerate() {
                                let byte = tile[sub * 16 + lane % 16];
                                let got = if lane < 16 { byte & 0x0f } else { byte >> 4 };
                                assert_eq!(got, c, "tile pos {pos} sub {sub}");
                            }
                            assert!(store.list_reader(ListId(0)).read_code(pos, &mut code));
                            assert_eq!(code, want, "pos {pos}");
                        }
                    }
                }
            });
        });
        // After the race: everything published and exact.
        let mut code = vec![0u8; 8];
        for (pos, v) in data.iter().enumerate().take(n) {
            assert!(store.list_reader(ListId(0)).read_code(pos, &mut code));
            assert_eq!(code, pq.encode(v.as_slice()), "pos {pos}");
        }
    }
}
