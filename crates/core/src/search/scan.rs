//! The two per-list scanners behind [`super::execute`].
//!
//! A scanner walks **one** inverted list for the plan it serves and feeds
//! the plan's [`TopK`]. The first pass over the probed lists and every
//! escalation round call the same [`ListScanner::scan_list`] — there is no
//! second scan loop. What the scanners share ([`Lanes`]) is pinned once
//! per `execute`; what each needs per list lives in its own scratch,
//! allocated once per `execute`.
//!
//! Per probed list a scanner takes one
//! [`crate::inverted::InvertedList::snapshot`] (the list's one lock and
//! refcount) and, on the PQ paths, one borrowed
//! [`crate::pq_store::PqListReader`] (neither). The raw scanner walks the
//! snapshot in id blocks; the fast-scan scanner walks the *codes* and goes
//! back to the snapshot only for lanes that survive: an unfiltered scan
//! streams 8 code bytes per candidate (m = 16) and nothing else.

use jdvs_vector::pq::QuantizedAdcTable;
use jdvs_vector::simd::{self, KernelSet, FASTSCAN_LANES};
use jdvs_vector::topk::TopK;

use crate::bitmap::BitmapReader;
use crate::filter::FilterView;
use crate::ids::{ImageId, ListId};
use crate::index::VisualIndex;
use crate::inverted::InvertedIndex;
use crate::pq_store::{PqStore, FASTSCAN_BLOCK};
use crate::vectors::VectorSnapshot;

/// What every scanner reads about the plan it serves.
pub(super) struct Lanes<'a> {
    pub inverted: &'a InvertedIndex,
    /// The validity bitmap, pinned for the whole plan.
    pub bitmap: BitmapReader<'a>,
    pub kernels: &'static KernelSet,
    /// The plan's pinned filter, or `None` for an unconstrained plan — one
    /// whose lane mask is the published mask itself.
    pub view: Option<FilterView<'a>>,
}

impl<'a> Lanes<'a> {
    /// Pins the index-wide readers next to the plan's filter `view`.
    pub fn pin(index: &'a VisualIndex, view: Option<FilterView<'a>>) -> Self {
        Self {
            inverted: index.inverted_internal(),
            bitmap: index.bitmap().reader(),
            kernels: simd::active(),
            view,
        }
    }
}

/// One inverted list, scored in one walk.
pub(super) trait ListScanner {
    /// Scans `list` into `topk`.
    fn scan_list(&mut self, list: usize, topk: &mut TopK);
}

/// Raw-vector scan: exact squared L2 over the stored `f32` features.
pub(super) struct RawScanner<'a> {
    pub lanes: &'a Lanes<'a>,
    pub vectors: &'a VectorSnapshot,
    pub query: &'a [f32],
}

impl ListScanner for RawScanner<'_> {
    fn scan_list(&mut self, list: usize, topk: &mut TopK) {
        let lanes = self.lanes;
        // The filter dispatch is hoisted out of the candidate loop.
        lanes
            .inverted
            .scan_blocks(ListId(list as u32), |ids| match &lanes.view {
                None => self.score_block(ids, topk, |_| true),
                Some(view) => self.score_block(ids, topk, |id| view.admits(id)),
            });
    }
}

impl RawScanner<'_> {
    /// Scores one id block; `admits` is the plan's filter.
    #[inline]
    fn score_block(&self, ids: &[ImageId], topk: &mut TopK, admits: impl Fn(usize) -> bool) {
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
            let d = kernels.squared_l2(self.query, v.as_slice());
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

/// 4-bit fast-scan: each 32-code interleaved block is scored where it lies
/// in the code store — only a list's unsealed tail block is copied out —
/// against the plan's register-resident LUTs by the fused score-and-prune
/// kernel. The scan touches code bytes and nothing else until a lane
/// survives the prune bound: only then is the lane's id read.
pub(super) struct FastScanner<'a> {
    lanes: &'a Lanes<'a>,
    pq: &'a PqStore,
    qt: &'a QuantizedAdcTable,
    /// The sums of the block in flight, written only when a lane survives.
    acc: [u16; FASTSCAN_LANES],
    /// The copy of an unsealed block.
    tile: Vec<u8>,
}

impl<'a> FastScanner<'a> {
    pub fn new(lanes: &'a Lanes<'a>, pq: &'a PqStore, qt: &'a QuantizedAdcTable) -> Self {
        Self {
            lanes,
            pq,
            qt,
            acc: [0; FASTSCAN_LANES],
            tile: Vec::new(),
        }
    }
}

impl ListScanner for FastScanner<'_> {
    fn scan_list(&mut self, list: usize, topk: &mut TopK) {
        let (lanes, qt) = (self.lanes, self.qt);
        let list = ListId(list as u32);
        let ids = lanes.inverted.list(list).snapshot();
        let mut reader = self.pq.list_reader(list);
        self.tile.resize(reader.tile_len(), 0);
        // The quantized top-k prune bound, recomputed only when the k-th
        // distance moves: [`QuantizedAdcTable::prune_bound`] is the exact
        // `would_accept` edge, so skipped lanes provably change nothing.
        let (mut bound, mut bound_thr) = (Some(u16::MAX), f32::INFINITY);
        let mut group = [ImageId(0); FASTSCAN_BLOCK];
        for base in (0..ids.len()).step_by(FASTSCAN_BLOCK) {
            let n = FASTSCAN_BLOCK.min(ids.len() - base);
            let (mask, tile) = reader.load_group(base, &mut self.tile);
            // An unpublished lane's code is still mid-insert (its validity
            // bit is not set yet either).
            let published = mask & low_lanes(n);
            if published == 0 {
                continue;
            }
            // Pushdown: the lane mask resolves before the kernel, and a
            // group the filter rejects skips the kernel entirely. Only a
            // filter needs a group's ids up front.
            let admitted = match &lanes.view {
                Some(view) => {
                    ids.copy_to(base, &mut group[..n]);
                    view.lane_mask(&group[..n], published)
                }
                None => published,
            };
            if admitted == 0 {
                continue;
            }
            let thr = topk.threshold();
            if thr.to_bits() != bound_thr.to_bits() {
                bound = qt.prune_bound(thr);
                bound_thr = thr;
            }
            let Some(bound) = bound else { continue };
            let mut hits = admitted
                & lanes
                    .kernels
                    .fastscan16_le(tile, qt.luts(), bound, &mut self.acc);
            // After the bound warms up almost no lane gets here.
            while hits != 0 {
                let lane = hits.trailing_zeros() as usize;
                hits &= hits - 1;
                let id = match lanes.view {
                    Some(_) => group[lane],
                    None => ids.id(base + lane),
                };
                if !lanes.bitmap.test(id.as_usize()) {
                    continue;
                }
                let d = qt.to_f32(self.acc[lane]);
                if topk.would_accept(d) {
                    topk.push(id.as_u64(), d);
                }
            }
        }
    }
}
