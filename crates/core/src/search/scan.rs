//! The three per-list scanners behind [`super::execute`].
//!
//! A scanner walks **one** inverted list for a set of *subscribers* (the
//! batch members whose probe set holds the list) and feeds each
//! subscriber's own [`TopK`]. The shared pass hands it the union-probe
//! subscriber sets; a member's escalation rounds hand it a one-subscriber
//! set — there is no second, single-query scan loop. What the scanners
//! share ([`Lanes`]) is pinned once per `execute`; what each needs per
//! list lives in its own scratch, allocated once per `execute`.
//!
//! Per probed list a scanner takes one
//! [`crate::inverted::InvertedList::snapshot`] (the list's one lock and
//! refcount) and, on the PQ paths, one borrowed
//! [`crate::pq_store::PqListReader`] (neither). The raw and 8-bit scanners
//! walk the snapshot in id blocks; the 4-bit scanner walks the *codes* and
//! goes back to the snapshot only for lanes that survive: an unfiltered
//! scan streams 8 code bytes per candidate (m = 16) and nothing else.

use jdvs_vector::pq::{AdcTable, QuantizedAdcTable};
use jdvs_vector::simd::{self, KernelSet};
use jdvs_vector::topk::TopK;

use crate::bitmap::BitmapReader;
use crate::filter::FilterView;
use crate::ids::{ImageId, ListId};
use crate::index::VisualIndex;
use crate::inverted::InvertedIndex;
use crate::pq_store::{PqStore, FASTSCAN_BLOCK};
use crate::vectors::VectorSnapshot;

/// What every scanner reads about the batch it serves.
pub(super) struct Lanes<'a> {
    pub inverted: &'a InvertedIndex,
    /// The validity bitmap, pinned for the whole batch.
    pub bitmap: BitmapReader<'a>,
    pub kernels: &'static KernelSet,
    /// Per member: its pinned filter, or `None` for an unconstrained
    /// member — one whose lane mask is the published mask itself.
    pub views: Vec<Option<FilterView<'a>>>,
}

impl<'a> Lanes<'a> {
    /// Pins the index-wide readers next to the members' filter `views`.
    pub fn pin(index: &'a VisualIndex, views: Vec<Option<FilterView<'a>>>) -> Self {
        Self {
            inverted: index.inverted_internal(),
            bitmap: index.bitmap().reader(),
            kernels: simd::active(),
            views,
        }
    }
}

/// One inverted list, scored for every subscriber in one walk.
pub(super) trait ListScanner {
    /// Scans `list` for the members `subs` (indexes into `topks`).
    fn scan_list(&mut self, list: usize, subs: &[usize], topks: &mut [TopK]);
}

/// Raw-vector scan: exact squared L2 over the stored `f32` features.
pub(super) struct RawScanner<'a> {
    pub lanes: &'a Lanes<'a>,
    pub vectors: &'a VectorSnapshot,
    /// Per member: its query features.
    pub queries: Vec<&'a [f32]>,
}

impl ListScanner for RawScanner<'_> {
    fn scan_list(&mut self, list: usize, subs: &[usize], topks: &mut [TopK]) {
        let lanes = self.lanes;
        lanes.inverted.scan_blocks(ListId(list as u32), |ids| {
            // Block-major: the first subscriber pulls the block's vectors
            // in from memory, the others score them out of cache — and
            // each subscriber's loop is as tight as a lone query's, its
            // filter dispatch hoisted out of the candidate loop.
            for &qi in subs {
                let (query, topk) = (self.queries[qi], &mut topks[qi]);
                match &lanes.views[qi] {
                    None => self.score_block(ids, query, topk, |_| true),
                    Some(view) => self.score_block(ids, query, topk, |id| view.admits(id)),
                }
            }
        });
    }
}

impl RawScanner<'_> {
    /// Scores one id block for one subscriber; `admits` is its filter.
    #[inline]
    fn score_block(
        &self,
        ids: &[ImageId],
        query: &[f32],
        topk: &mut TopK,
        admits: impl Fn(usize) -> bool,
    ) {
        let (bitmap, kernels) = (&self.lanes.bitmap, self.lanes.kernels);
        for &id in ids {
            // Deleted, or rejected before the vector is touched.
            if !bitmap.test(id.as_usize()) || !admits(id.as_usize()) {
                continue;
            }
            // A published id whose vector has not landed yet is *skipped*,
            // not ranked at infinity — a sentinel distance would surface
            // the phantom whenever fewer than k real candidates exist.
            let Some(v) = self.vectors.get(id) else {
                continue;
            };
            let d = kernels.squared_l2(query, v.as_slice());
            if topk.would_accept(d) {
                topk.push(id.as_u64(), d);
            }
        }
    }
}

/// Mask of a group's first `lanes` lanes. The ids a scanner holds are a
/// snapshot; the real-time indexer may since have appended to the list and
/// published the new position's code, so the published-lane mask read
/// afterwards can cover lanes the snapshot has no id for. Clipping to the
/// snapshot leaves such an image to the next query (its validity bit was
/// not set when this one began either).
fn low_lanes(lanes: usize) -> u32 {
    const _: () = assert!(FASTSCAN_BLOCK == u32::BITS as usize);
    debug_assert!((1..=FASTSCAN_BLOCK).contains(&lanes));
    u32::MAX >> (FASTSCAN_BLOCK - lanes)
}

/// A subscriber's state while one list is scanned: its quantized top-k
/// prune bound — recomputed only when its k-th distance moves
/// ([`QuantizedAdcTable::prune_bound`] is the exact `would_accept` edge, so
/// skipped lanes provably change nothing) — and its lane mask for the
/// block in flight (admitted lanes, then admitted lanes under the bound).
#[derive(Clone, Copy)]
struct FastSub {
    bound: Option<u16>,
    bound_thr: f32,
    mask: u32,
}

/// 4-bit fast-scan: each 32-code interleaved block is scored where it lies
/// in the code store — only a list's unsealed tail block is copied out —
/// for all subscribers, every subscriber against its own register-resident
/// LUTs. The scan touches code bytes and nothing else until a lane
/// survives a subscriber's prune bound: only then is the lane's id read.
pub(super) struct FastScanner<'a> {
    lanes: &'a Lanes<'a>,
    pq: &'a PqStore,
    /// Per member: its quantized LUTs.
    qts: &'a [QuantizedAdcTable],
    /// Per-list scratch, one entry per subscriber: state, accumulator row,
    /// LUT pointer; and the copy of an unsealed block.
    state: Vec<FastSub>,
    accs: Vec<[u16; FASTSCAN_BLOCK]>,
    luts: Vec<&'a [u8]>,
    tile: Vec<u8>,
}

impl<'a> FastScanner<'a> {
    pub fn new(lanes: &'a Lanes<'a>, pq: &'a PqStore, qts: &'a [QuantizedAdcTable]) -> Self {
        Self {
            lanes,
            pq,
            qts,
            state: Vec::with_capacity(qts.len()),
            accs: vec![[0; FASTSCAN_BLOCK]; qts.len()],
            luts: Vec::with_capacity(qts.len()),
            tile: Vec::new(),
        }
    }
}

impl ListScanner for FastScanner<'_> {
    fn scan_list(&mut self, list: usize, subs: &[usize], topks: &mut [TopK]) {
        let (lanes, qts) = (self.lanes, self.qts);
        let list = ListId(list as u32);
        let ids = lanes.inverted.list(list).snapshot();
        let mut reader = self.pq.list_reader(list);
        self.tile.resize(reader.tile_len(), 0);
        self.luts.clear();
        self.luts.extend(subs.iter().map(|&qi| qts[qi].luts()));
        self.state.clear();
        self.state.resize(
            subs.len(),
            FastSub {
                bound: Some(u16::MAX),
                bound_thr: f32::INFINITY,
                mask: 0,
            },
        );
        let (scratch, luts) = (&mut self.tile[..], &self.luts[..]);
        let (state, accs) = (&mut self.state[..], &mut self.accs[..subs.len()]);
        // Only a filter needs a group's ids before the kernel runs.
        let filtered = subs.iter().any(|&qi| lanes.views[qi].is_some());
        let mut group = [ImageId(0); FASTSCAN_BLOCK];
        for base in (0..ids.len()).step_by(FASTSCAN_BLOCK) {
            let n = FASTSCAN_BLOCK.min(ids.len() - base);
            let (mask, tile) = reader.load_group(base, scratch);
            let published = mask & low_lanes(n);
            if published == 0 {
                continue;
            }
            // Pushdown: every subscriber's lane mask resolves before the
            // kernel; a group no subscriber admits skips the kernel, LUT
            // accumulation and bound pruning entirely.
            if filtered {
                ids.copy_to(base, &mut group[..n]);
                let mut wanted = 0u32;
                for (s, &qi) in state.iter_mut().zip(subs) {
                    s.mask = match &lanes.views[qi] {
                        Some(view) => view.lane_mask(&group[..n], published),
                        None => published,
                    };
                    wanted |= s.mask;
                }
                if wanted == 0 {
                    continue;
                }
            } else {
                state.iter_mut().for_each(|s| s.mask = published);
            }
            for (s, &qi) in state.iter_mut().zip(subs) {
                let thr = topks[qi].threshold();
                if thr.to_bits() != s.bound_thr.to_bits() {
                    s.bound = qts[qi].prune_bound(thr);
                    s.bound_thr = thr;
                }
            }
            // Score, then prune each subscriber to its admitted lanes under
            // its bound. An unpublished lane's code is still mid-insert
            // (its validity bit is not set yet either).
            let mut hits = 0u32;
            if let ([s], [acc]) = (&mut *state, &mut *accs) {
                // One subscriber — every unbatched query: the fused kernel
                // keeps the sums in registers unless a lane survives.
                s.mask &= s
                    .bound
                    .map_or(0, |b| lanes.kernels.fastscan16_le(tile, luts[0], b, acc));
                hits = s.mask;
            } else {
                lanes.kernels.fastscan16_multi(tile, luts, accs);
                for (s, acc) in state.iter_mut().zip(accs.iter()) {
                    s.mask &= s.bound.map_or(0, |b| lanes.kernels.lanes_le16(acc, b));
                    hits |= s.mask;
                }
            }
            // Validity is a property of the candidate, not the query:
            // resolve it (and the lane's id) once, only for lanes some
            // subscriber still wants — after the bounds warm up that is
            // almost none.
            let mut valid = 0u32;
            while hits != 0 {
                let lane = hits.trailing_zeros() as usize;
                hits &= hits - 1;
                if !filtered {
                    group[lane] = ids.id(base + lane);
                }
                if lanes.bitmap.test(group[lane].as_usize()) {
                    valid |= 1 << lane;
                }
            }
            if valid == 0 {
                continue;
            }
            for ((s, acc), &qi) in state.iter().zip(accs.iter()).zip(subs) {
                let mut mine = s.mask & valid;
                while mine != 0 {
                    let lane = mine.trailing_zeros() as usize;
                    mine &= mine - 1;
                    let d = qts[qi].to_f32(acc[lane]);
                    if topks[qi].would_accept(d) {
                        topks[qi].push(group[lane].as_u64(), d);
                    }
                }
            }
        }
    }
}

/// Classic 8-bit ADC: the code read is shared, each subscriber pays only
/// its own `m` table lookups, and a candidate no subscriber admits skips
/// the code read too.
pub(super) struct AdcScanner<'a> {
    lanes: &'a Lanes<'a>,
    pq: &'a PqStore,
    /// Per member: its f32 ADC table.
    tables: &'a [AdcTable],
    code: Vec<u8>,
}

impl<'a> AdcScanner<'a> {
    pub fn new(lanes: &'a Lanes<'a>, pq: &'a PqStore, tables: &'a [AdcTable]) -> Self {
        Self {
            lanes,
            pq,
            tables,
            code: vec![0; pq.code_len()],
        }
    }
}

impl ListScanner for AdcScanner<'_> {
    fn scan_list(&mut self, list: usize, subs: &[usize], topks: &mut [TopK]) {
        let lanes = self.lanes;
        let mut reader = self.pq.list_reader(ListId(list as u32));
        let mut base = 0usize;
        lanes.inverted.scan_blocks(ListId(list as u32), |ids| {
            for (i, &id) in ids.iter().enumerate() {
                if !lanes.bitmap.test(id.as_usize()) {
                    continue;
                }
                let mut loaded = false;
                for &qi in subs {
                    let view = lanes.views[qi].as_ref();
                    if view.is_some_and(|view| !view.admits(id.as_usize())) {
                        continue;
                    }
                    if !loaded {
                        if !reader.read_code(base + i, &mut self.code) {
                            break; // unpublished for every subscriber
                        }
                        loaded = true;
                    }
                    let d = self.tables[qi].distance(&self.code);
                    if topks[qi].would_accept(d) {
                        topks[qi].push(id.as_u64(), d);
                    }
                }
            }
            base += ids.len();
        });
    }
}
