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
//! snapshot in id blocks; the fast-scan scanner walks the *codes* in runs
//! of up to [`RUN`] sealed blocks, one kernel call per run, and goes back
//! to the snapshot only for lanes under the prune bound: a scan streams 8
//! code bytes per candidate (m = 16) and nothing else. A filtered plan
//! scores first and filters after — the filter reads the ids of a block
//! only when one of its lanes survived the prune.

use jdvs_vector::pq::QuantizedAdcTable;
use jdvs_vector::simd::{self, KernelSet, FASTSCAN_LANES};
use jdvs_vector::topk::TopK;

use crate::bitmap::BitmapReader;
use crate::filter::FilterView;
use crate::ids::{ImageId, ListId};
use crate::index::VisualIndex;
use crate::inverted::InvertedIndex;
use crate::pq_store::{PqStore, FASTSCAN_BLOCK, RUN};
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

/// Mask of a block's first `lanes` lanes. The ids a scanner holds are a
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

/// The indexes of `bits`' set bits, lowest first.
fn set_bits(mut bits: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
        bits &= bits - 1;
        Some(bit)
    })
}

/// 4-bit fast-scan: the list's codes are read in runs
/// ([`crate::pq_store::PqListReader::load_run`]) — up to [`RUN`] sealed
/// blocks scored where they lie in the code store, or the one unsealed
/// tail block copied out — and each run is one call of the fused
/// score-and-prune kernel, which keeps the plan's LUTs in registers
/// across the run. The scan touches code bytes and nothing else until a
/// lane survives the prune bound: only then are the lane's id (and, for a
/// filtered plan, the group's ids and the filter) read.
pub(super) struct FastScanner<'a> {
    lanes: &'a Lanes<'a>,
    pq: &'a PqStore,
    qt: &'a QuantizedAdcTable,
    /// Per block of the run in flight: the lanes under the prune bound,
    /// and the sums, written only for a block with such a lane.
    masks: [u32; RUN],
    sums: [[u16; FASTSCAN_LANES]; RUN],
    /// The copy of an unsealed block.
    tile: Vec<u8>,
}

impl<'a> FastScanner<'a> {
    pub fn new(lanes: &'a Lanes<'a>, pq: &'a PqStore, qt: &'a QuantizedAdcTable) -> Self {
        Self {
            lanes,
            pq,
            qt,
            masks: [0; RUN],
            sums: [[0; FASTSCAN_LANES]; RUN],
            tile: Vec::new(),
        }
    }
}

impl ListScanner for FastScanner<'_> {
    fn scan_list(&mut self, list: usize, topk: &mut TopK) {
        let (lanes, qt) = (self.lanes, self.qt);
        let list = ListId(list as u32);
        let ids = lanes.inverted.list(list).snapshot();
        let reader = self.pq.list_reader(list);
        self.tile.resize(reader.tile_len(), 0);
        // The quantized top-k prune bound, recomputed between runs only
        // when the k-th distance moved: [`QuantizedAdcTable::prune_bound`]
        // is the exact `would_accept` edge, so skipped lanes provably
        // change nothing, and a bound gone stale within a run only sends
        // more lanes to the exact test.
        let (mut bound, mut bound_thr) = (Some(u16::MAX), f32::INFINITY);
        let mut group = [ImageId(0); FASTSCAN_BLOCK];
        let mut base = 0;
        while base < ids.len() {
            let run = reader.load_run(base, ids.len(), &mut self.tile);
            let first = base;
            base += run.blocks * FASTSCAN_BLOCK;
            // An unpublished lane's code is still mid-insert (its validity
            // bit is not set yet either).
            if run.mask == 0 {
                continue;
            }
            let thr = topk.threshold();
            if thr.to_bits() != bound_thr.to_bits() {
                bound = qt.prune_bound(thr);
                bound_thr = thr;
            }
            // The threshold never rises, so no later lane can enter either.
            let Some(bound) = bound else { break };
            let masks = &mut self.masks[..run.blocks];
            lanes
                .kernels
                .fastscan16_run_le(run.tiles, qt.luts(), bound, masks, &mut self.sums);
            // Blocks with a lane under the bound: after the bound warms up
            // almost no run has one.
            let live = masks
                .iter()
                .enumerate()
                .fold(0u32, |live, (i, &m)| live | u32::from(m != 0) << i);
            for i in set_bits(live) {
                let at = first + i * FASTSCAN_BLOCK;
                let n = FASTSCAN_BLOCK.min(ids.len() - at);
                let sums = &self.sums[i];
                // The bound is as of the run's start; lanes the threshold
                // has passed since cannot enter (it never rises), so they
                // are dropped before their ids are read.
                let mut hits = set_bits(masks[i] & run.mask & low_lanes(n))
                    .filter(|&lane| topk.would_accept(qt.to_f32(sums[lane])))
                    .fold(0u32, |hits, lane| hits | 1 << lane);
                if hits == 0 {
                    continue;
                }
                // Filter after the prune, on the surviving lanes only: the
                // two tests commute, and survivors go on in lane order.
                if let Some(view) = &lanes.view {
                    ids.copy_to(at, &mut group[..n]);
                    hits = view.lane_mask(&group[..n], hits);
                }
                for lane in set_bits(hits) {
                    let id = match lanes.view {
                        Some(_) => group[lane],
                        None => ids.id(at + lane),
                    };
                    if !lanes.bitmap.test(id.as_usize()) {
                        continue;
                    }
                    let d = qt.to_f32(sums[lane]);
                    if topk.would_accept(d) {
                        topk.push(id.as_u64(), d);
                    }
                }
            }
        }
    }
}
