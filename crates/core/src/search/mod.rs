//! Single-partition query evaluation (Section 2.4) — the block execution
//! engine.
//!
//! *"Each searcher node identifies the cluster that is most similar to the
//! queried image based on its features. It then scans the cluster's
//! inverted list and calculates the similarity as each image in the
//! inverted list. The top N most similar images are returned."*
//!
//! Every query is a [`SearchPlan`] — features, `k`, `nprobe` (probing one
//! list is the paper's letter; multi-probe is the standard recall knob),
//! an optional attribute filter, a [`Stage`] and an optional deadline —
//! and every plan runs through one entry point, [`execute`]:
//!
//! 1. **Probe.** The plan is assigned its `nprobe` nearest lists, nearest
//!    first, so the scan's prune bound tightens fastest.
//! 2. **Scan.** One of two per-list scanners (raw `f32` or 4-bit PQ
//!    fast-scan; see `scan.rs`) walks each list once over one
//!    [`crate::inverted::InvertedList::snapshot`] into the plan's
//!    [`TopK`] — a reservoir whose threshold, the k-th distance as of its
//!    last compaction, prunes the scan. Both walk the list's payload in
//!    position order, where [`crate::inverted::InvertedList::append`]
//!    put it, and go back to the snapshot only for candidates under the
//!    threshold. The raw scanner walks the list's 32-row blocks
//!    ([`crate::rows::ListRows::block`]) and scores every published row
//!    in place; the fast-scan scanner walks the code store in **runs**
//!    ([`crate::pq_store::PqListReader::load_run`]): up to 16 sealed
//!    32-code blocks scored **in place**, or a list's still-filling tail
//!    block copied out, each run one call of a fused score-and-prune
//!    kernel that holds the LUTs in registers; the prune bound is
//!    refreshed between runs. Its candidates then take two passes: the
//!    first adds every lane under the bound to a batch from the kernel's
//!    sums alone, the second reads the batch's ids back to back (their
//!    cache misses overlap), tests validity and pushes — as late as the
//!    end of the list, as long as the pushes could not have moved the
//!    bound ([`TopK::room`]). The validity bitmap, the plan's filter,
//!    rows and codes are all borrowed without a lock, so the
//!    per-candidate cost is a SIMD kernel
//!    ([`jdvs_vector::simd::active`]) over bytes that stream, and no
//!    plan ever delays an append. Invalid images — cleared validity
//!    bits — are skipped, so logically deleted products never surface.
//!    Once the top-k is full, both scanners score first and test
//!    validity and the filter **after** the prune, on the candidates
//!    under the threshold only; while it is underfull every candidate
//!    enters, so the raw scanner tests first and scores only what is
//!    admitted — the tests commute, so the answer is the same. An
//!    unfiltered plan is simply one with no filter.
//! 3. **Escalate.** A *filtered* plan whose top-k is still underfull
//!    widens its probing (doubling, scanning only lists not yet probed,
//!    through the same scanner) up to
//!    [`crate::config::IndexConfig::nprobe_escalation`] lists — and stops
//!    early when its deadline cannot pay for another round.
//! 4. **Re-rank once.** A compressed plan re-ranks its quantized
//!    shortlist (`k · rerank_factor`) with exact `f32` distances, so the
//!    over-fetch — not the u8 rounding — decides final quality. The
//!    shortlist is walked unsorted, as the reservoir holds it; each row is
//!    found by id through [`crate::rows::RowStore::locate`], and every
//!    row is requested before the first distance is computed.
//!
//! [`TopK`]'s total (distance, id) order makes the outcome independent of
//! list visit order. The sequential per-id oracles in [`reference`] share
//! no scan code with the engine; differential tests assert bit-identical
//! results against them on both kernel legs.

pub mod reference;
mod scan;

use std::time::{Duration, Instant};

use jdvs_vector::simd::{self, KernelSet};
use jdvs_vector::topk::{Neighbor, TopK};

use crate::bitmap::AtomicBitmap;
use crate::config::IndexConfig;
use crate::filter::{FilterSpec, QueryFilter};
use crate::ids::ImageId;
use crate::index::VisualIndex;
use crate::rows::{Row, RowReader};

pub use reference::{
    ann_search_reference, compressed_search_reference, filtered_ann_search_reference,
    filtered_compressed_search_reference,
};
use scan::{FastScanner, Lanes, ListScanner, RawScanner};

/// What a plan scans and whether it re-ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Exact distances over the stored raw vectors — the paper's scan.
    Raw,
    /// Two-stage PQ search: fast-scan the 4-bit codes, shortlist
    /// `k · rerank_factor` candidates, re-rank them exactly. Scan memory
    /// traffic drops by `8·dim / m` at a small recall cost. Needs
    /// [`crate::config::IndexConfig::pq_subspaces`].
    Compressed {
        /// Stage-1 over-fetch ratio; must be positive.
        rerank_factor: usize,
    },
}

/// One query, as data: what [`execute`] runs.
#[derive(Debug, Clone, Copy)]
pub struct SearchPlan<'a> {
    /// Feature vector; must match the index dimension.
    pub features: &'a [f32],
    /// Result count; must be positive.
    pub k: usize,
    /// Number of lists probed; must be positive.
    pub nprobe: usize,
    /// Attribute constraints, pushed down into the scan. `None` and a spec
    /// that admits everything are the same plan; only constrained plans
    /// escalate.
    pub filter: Option<&'a FilterSpec>,
    /// What is scanned.
    pub stage: Stage,
    /// When escalation must stop widening: a round only starts while the
    /// deadline has not passed and the remaining time covers the round's
    /// extra lists at the measured per-list cost. The result is then the
    /// current (possibly underfull) top-k, degraded but on time.
    pub deadline: Option<Instant>,
}

impl<'a> SearchPlan<'a> {
    /// An unfiltered raw-vector plan without a deadline.
    pub fn new(features: &'a [f32], k: usize, nprobe: usize) -> Self {
        Self {
            features,
            k,
            nprobe,
            filter: None,
            stage: Stage::Raw,
            deadline: None,
        }
    }

    /// Scans PQ codes and re-ranks `k · rerank_factor` candidates.
    pub fn compressed(mut self, rerank_factor: usize) -> Self {
        self.stage = Stage::Compressed { rerank_factor };
        self
    }

    /// Restricts results to images `filter` admits.
    pub fn filtered(mut self, filter: &'a FilterSpec) -> Self {
        self.filter = Some(filter);
        self
    }

    /// Bounds escalation by `deadline`.
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Capacity of the collector the scan fills: `k`, or the over-fetched
    /// shortlist of a compressed plan.
    fn scan_capacity(&self) -> usize {
        match self.stage {
            Stage::Raw => self.k,
            Stage::Compressed { rerank_factor } => self.k.saturating_mul(rerank_factor).max(self.k),
        }
    }

    fn check(&self, index: &VisualIndex) {
        assert!(self.k > 0, "k must be positive");
        assert!(self.nprobe > 0, "nprobe must be positive");
        assert_eq!(
            self.features.len(),
            index.config().dim,
            "query dimension mismatch"
        );
        if let Stage::Compressed { rerank_factor } = self.stage {
            assert!(rerank_factor > 0, "rerank_factor must be positive");
        }
    }
}

/// Runs `plan` against `index`; see the module docs.
///
/// # Panics
///
/// Panics if the plan has `k == 0`, `nprobe == 0`, `rerank_factor == 0` or
/// the wrong dimension, or is compressed on an index without PQ codes.
pub fn execute(index: &VisualIndex, plan: &SearchPlan<'_>) -> Vec<Neighbor> {
    plan.check(index);
    let filter = plan
        .filter
        .filter(|f| !f.is_unconstrained())
        .map(|f| QueryFilter::new(f, index.filters(), index.forward()));
    let lanes = Lanes::new(index, filter);
    if plan.stage == Stage::Raw {
        let scanner = RawScanner {
            lanes: &lanes,
            rows: index.vectors(),
            query: plan.features,
        };
        return scan(index, plan, &lanes, scanner).into_sorted_vec();
    }
    let pq = index
        .pq_store()
        .expect("compressed search requires config.pq_subspaces (see IndexConfig)");
    let qt = pq.quantized_adc_table(plan.features);
    let shortlist = scan(index, plan, &lanes, FastScanner::new(&lanes, pq, &qt));
    exact_rerank(
        lanes.bitmap,
        &index.vectors().snapshot(),
        lanes.kernels,
        plan.features,
        shortlist,
        plan.k,
    )
}

/// Steps 1–3 of the module docs for one scanner: probe, scan, escalate.
/// Returns the scan collector.
fn scan(
    index: &VisualIndex,
    plan: &SearchPlan<'_>,
    lanes: &Lanes<'_>,
    mut scanner: impl ListScanner,
) -> TopK {
    let probe = index.quantizer().assign_multi(plan.features, plan.nprobe);
    let mut topk = TopK::new(plan.scan_capacity());
    let start = Instant::now();
    for &list in &probe {
        scanner.scan_list(list, &mut topk);
    }
    // Unfiltered plans never escalate.
    if lanes.filter.is_some() {
        // Seeds the escalation budget: what one list of the first pass cost.
        let per_list = start.elapsed() / probe.len() as u32;
        escalate(index, plan, &probe, per_list, &mut topk, &mut scanner);
    }
    topk
}

/// The probe width of the escalation round after `width`: doubled, capped
/// at [`IndexConfig::nprobe_escalation`] and the list count; `None` once
/// the cap is reached (or escalation is off). The one piece of the engine
/// the reference oracles share — a pure schedule, no scanning.
pub(crate) fn escalation_step(config: &IndexConfig, width: usize) -> Option<usize> {
    let cap = config.nprobe_escalation.min(config.num_lists);
    (width < cap).then(|| (width * 2).min(cap))
}

/// Widens a **filtered** plan's probing while its top-k is underfull,
/// scanning only the lists not yet probed. With the flat (exact) coarse
/// quantizer those are precisely the suffix of the wider assignment — its
/// nearest-first prefix is stable — and with the hierarchical quantizer,
/// whose bounded-beam assignment may re-rank once the requested width
/// exceeds the beam, the explicit seen-set still guarantees every list is
/// scanned at most once. [`TopK`]'s total order keeps the result identical
/// to one flat scan over the union of probed lists.
///
/// `per_list` is the scan-cost estimate the deadline rule uses (see
/// [`SearchPlan::deadline`]): seeded from the first pass, refreshed from
/// every completed round.
fn escalate(
    index: &VisualIndex,
    plan: &SearchPlan<'_>,
    base: &[usize],
    mut per_list: Duration,
    topk: &mut TopK,
    scanner: &mut impl ListScanner,
) {
    let mut seen = vec![false; index.config().num_lists];
    for &list in base {
        seen[list] = true;
    }
    let mut width = base.len();
    // The fill target is k — the final result budget — not the over-fetch
    // capacity: stage 2 only drops ids deleted between stages, so k
    // shortlisted candidates fill the top-k.
    while topk.len() < plan.k {
        let Some(wider) = escalation_step(index.config(), width) else {
            break;
        };
        if let Some(deadline) = plan.deadline {
            let now = Instant::now();
            let estimate = per_list.saturating_mul((wider - width) as u32);
            if now >= deadline || deadline.duration_since(now) < estimate {
                break;
            }
        }
        let round = Instant::now();
        let mut scanned = 0u32;
        for list in index.quantizer().assign_multi(plan.features, wider) {
            if !std::mem::replace(&mut seen[list], true) {
                scanner.scan_list(list, topk);
                scanned += 1;
            }
        }
        if scanned > 0 {
            per_list = round.elapsed() / scanned;
        }
        width = wider;
    }
}

/// Stage 2 of a compressed plan: exact distances over the shortlist,
/// walked as the collector holds it — the result's total order does not
/// depend on the order of the pushes. Every row is located (through the
/// id map) and asked for before the first distance is computed: the rows
/// are scattered over the probed lists, and their loads overlap. Split
/// out so the between-stage deletion guard is directly testable.
fn exact_rerank(
    bitmap: &AtomicBitmap,
    rows: &RowReader<'_>,
    kernels: &KernelSet,
    query: &[f32],
    shortlist: TopK,
    k: usize,
) -> Vec<Neighbor> {
    let found: Vec<(u64, Row<'_>)> = shortlist
        .into_vec()
        .into_iter()
        .filter_map(|candidate| {
            let id = ImageId(candidate.id as u32);
            // Re-check validity: the bitmap words are atomics, so an image
            // deleted after the scan admitted it to the shortlist is seen
            // as invalid here and cannot be returned.
            if !bitmap.test(id.as_usize()) {
                return None;
            }
            let row = rows.get(id)?;
            row.prefetch();
            Some((candidate.id, row))
        })
        .collect();
    let mut topk = TopK::new(k);
    for (id, row) in found {
        topk.push(id, row.with(|row| kernels.squared_l2(query, row)));
    }
    topk.into_sorted_vec()
}

/// The raw scan over an explicit probe set instead of the quantizer's
/// assignment — an evaluation hook (the coarse-quantizer bench compares
/// flat-scan and graph-assigned probe sets through the identical list
/// scan), not a serving path.
///
/// # Panics
///
/// Panics if `k == 0` or any list id is out of range.
pub fn ann_search_with_probes(
    index: &VisualIndex,
    query: &[f32],
    k: usize,
    lists: &[usize],
) -> Vec<Neighbor> {
    let lanes = Lanes::new(index, None);
    let mut scanner = RawScanner {
        lanes: &lanes,
        rows: index.vectors(),
        query,
    };
    let mut topk = TopK::new(k);
    for &list in lists {
        scanner.scan_list(list, &mut topk);
    }
    topk.into_sorted_vec()
}

/// Exact top-k over every valid image (ground truth; `O(n·d)`). Walks the
/// validity bitmap a word at a time, skipping 64 deleted/unwritten images
/// per all-zero word.
///
/// # Panics
///
/// Panics if `k == 0` or `query` has the wrong dimension.
pub fn brute_force(index: &VisualIndex, query: &[f32], k: usize) -> Vec<Neighbor> {
    assert!(k > 0, "k must be positive");
    assert_eq!(query.len(), index.config().dim, "query dimension mismatch");
    let kernels = simd::active();
    let rows = index.vectors().snapshot();
    let mut topk = TopK::new(k);
    index.bitmap().for_each_valid(index.forward().len(), |raw| {
        let id = ImageId(raw as u32);
        if let Some(row) = rows.get(id) {
            let d = row.with(|row| kernels.squared_l2(query, row));
            if topk.would_accept(d) {
                topk.push(id.as_u64(), d);
            }
        }
    });
    topk.into_sorted_vec()
}

/// Recall@k of `got` against ground-truth `expected` (fraction of expected
/// ids present in got).
pub fn recall(got: &[Neighbor], expected: &[Neighbor]) -> f64 {
    if expected.is_empty() {
        return 1.0;
    }
    let got_ids: std::collections::HashSet<u64> = got.iter().map(|n| n.id).collect();
    let hit = expected.iter().filter(|n| got_ids.contains(&n.id)).count();
    hit as f64 / expected.len() as f64
}

#[cfg(test)]
mod tests {
    use super::reference::{brute_force_reference, filtered_brute_force};
    use super::*;
    use crate::config::IndexConfig;
    use crate::ids::ListId;
    use crate::pq_store::FASTSCAN_BLOCK;
    use crate::rows::ROW_BLOCK;
    use jdvs_storage::model::{ImageKey, ProductAttributes, ProductId};
    use jdvs_vector::rng::Xoshiro256;
    use jdvs_vector::Vector;

    /// Deterministic attributes: category 9 is rare (~1% of images),
    /// categories 0..5 common; about a third of images are out of stock.
    fn test_attrs(i: usize) -> ProductAttributes {
        let category = if i.is_multiple_of(97) {
            9
        } else {
            (i % 5) as u32
        };
        ProductAttributes::new(
            ProductId(i as u64),
            (i as u64) * 3,
            ((i % 100) as u64) * 50,
            (i % 7) as u64,
            format!("u{i}"),
        )
        .with_category(category)
        .with_stock(!i.is_multiple_of(3))
    }

    /// `n` gaussian 8-d images over `num_lists` lists, every `delete_step`-th
    /// deleted (0: none); `pq` selects raw-only or 4-bit PQ.
    fn build(
        n: usize,
        num_lists: usize,
        seed: u64,
        pq: bool,
        escalation: usize,
        delete_step: usize,
    ) -> (VisualIndex, Vec<Vector>) {
        let mut rng = Xoshiro256::seed_from(seed);
        let data: Vec<Vector> = (0..n)
            .map(|_| (0..8).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let config = IndexConfig {
            dim: 8,
            num_lists,
            initial_list_capacity: 8,
            pq_subspaces: pq.then_some(8),
            nprobe_escalation: escalation,
            ..Default::default()
        };
        let index = VisualIndex::bootstrap(config, &data);
        for (i, v) in data.iter().enumerate() {
            index.insert(v.clone(), test_attrs(i)).unwrap();
        }
        index.flush();
        if delete_step > 0 {
            for i in (0..n).step_by(delete_step) {
                let url = format!("u{i}");
                index.invalidate(ImageKey::from_url(&url), &url).unwrap();
            }
        }
        (index, data)
    }

    /// A 4-bit PQ world whose inverted lists have exactly the given
    /// lengths: one tight, far-apart cluster per list, populated to its
    /// length, every seventh image deleted. Returns the queries too — one
    /// near each cluster, so every list is some query's nearest.
    fn build_list_lengths(lengths: &[usize], seed: u64) -> (VisualIndex, Vec<Vector>) {
        let mut rng = Xoshiro256::seed_from(seed);
        assert!(lengths.len() <= 8, "one axis per cluster");
        let mut near = |cluster: usize| -> Vector {
            (0..8)
                .map(|d| {
                    let center = if d == cluster { 40.0 } else { 0.0 };
                    center + rng.next_gaussian() as f32
                })
                .collect()
        };
        let training: Vec<Vector> = (0..lengths.len() * 40)
            .map(|i| near(i % lengths.len()))
            .collect();
        let config = IndexConfig {
            dim: 8,
            num_lists: lengths.len(),
            initial_list_capacity: 8,
            pq_subspaces: Some(8),
            nprobe_escalation: lengths.len(),
            ..Default::default()
        };
        let index = VisualIndex::bootstrap(config, &training);
        let mut i = 0;
        for (cluster, &len) in lengths.iter().enumerate() {
            for _ in 0..len {
                index.insert(near(cluster), test_attrs(i)).unwrap();
                i += 1;
            }
        }
        index.flush();
        for i in (0..i).step_by(7) {
            let url = format!("u{i}");
            index.invalidate(ImageKey::from_url(&url), &url).unwrap();
        }
        let mut got = index.inverted().aux_positions();
        let mut want = lengths.to_vec();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "one cluster per list");
        (index, (0..lengths.len()).map(near).collect())
    }

    fn test_specs() -> Vec<FilterSpec> {
        vec![
            FilterSpec::none(),
            FilterSpec::by_category(2),
            FilterSpec::none().in_stock(),
            FilterSpec::by_category(3).in_stock(),
            FilterSpec::none().with_price_range(500, 2500),
            FilterSpec::by_category(1).with_min_sales(300),
            FilterSpec::by_category(9),  // ~1% selectivity
            FilterSpec::by_category(77), // never listed: empty result
        ]
    }

    /// The oracle for `plan`: one of the four sequential references.
    fn oracle(index: &VisualIndex, plan: &SearchPlan<'_>) -> Vec<Neighbor> {
        let (q, k, nprobe) = (plan.features, plan.k, plan.nprobe);
        match (plan.stage, plan.filter) {
            (Stage::Raw, None) => ann_search_reference(index, q, k, nprobe),
            (Stage::Raw, Some(f)) => filtered_ann_search_reference(index, q, k, nprobe, f),
            (Stage::Compressed { rerank_factor }, None) => {
                compressed_search_reference(index, q, k, nprobe, rerank_factor)
            }
            (Stage::Compressed { rerank_factor }, Some(f)) => {
                filtered_compressed_search_reference(index, q, k, nprobe, rerank_factor, f)
            }
        }
    }

    /// The differential suite: every scanner × {unfiltered, filtered} ×
    /// plans mixing k / nprobe / filters / stages / rerank factors must be
    /// bit-identical to the sequential references, deletions and
    /// escalation included.
    #[test]
    fn execute_matches_the_references() {
        for (pq, seed) in [(false, 61), (true, 67)] {
            let (index, data) = build(600, 8, seed, pq, 8, 11);
            let specs = test_specs();
            // PQ worlds serve raw plans too.
            let stage_of = |i: usize| {
                if pq && !i.is_multiple_of(3) {
                    Stage::Compressed {
                        rerank_factor: 2 + i % 3,
                    }
                } else {
                    Stage::Raw
                }
            };
            // Moduli are coprime to the spec count, so every spec meets
            // every probe width, filtered and (every sixth plan) not.
            let plans: Vec<SearchPlan<'_>> = (0..5 * specs.len())
                .map(|i| SearchPlan {
                    features: data[i].as_slice(),
                    k: 3 + i % 7,
                    nprobe: [1, 2, 3, 5, 8][i % 5],
                    filter: (i % 6 != 5).then_some(&specs[i % specs.len()]),
                    stage: stage_of(i),
                    deadline: None,
                })
                .collect();
            for plan in &plans {
                let got = execute(&index, plan);
                assert_eq!(got, oracle(&index, plan), "pq {pq}: {plan:?}");
                if let Some(spec) = plan.filter {
                    for hit in &got {
                        let n = index.forward().numeric(ImageId(hit.id as u32)).unwrap();
                        assert!(spec.matches(&n), "{spec:?} admitted id {}", hit.id);
                    }
                }
            }
        }

        // The fast-scan block boundaries: lists that are empty, one code,
        // one lane short of a sealed block, exactly sealed, one past, and
        // the same around each doubling of the code segments (256, 768,
        // 1792) — so in-place runs, the copied tail and their seams at
        // block, segment and run ends all face the oracle, unfiltered and
        // filtered.
        let specs = test_specs();
        for (lengths, seed) in [
            (&[0, 1, 31, 32, 33, 255, 256, 257][..], 89),
            (&[767, 768, 769, 1791, 1792, 1793][..], 97),
        ] {
            let (index, queries) = build_list_lengths(lengths, seed);
            let plans: Vec<SearchPlan<'_>> = (0..4 * lengths.len())
                .map(|i| SearchPlan {
                    features: queries[i % lengths.len()].as_slice(),
                    k: 4 + i % 5,
                    nprobe: [1, 2, lengths.len()][i % 3],
                    filter: (i % 2 == 1).then_some(&specs[i % specs.len()]),
                    stage: Stage::Compressed {
                        rerank_factor: 1 + i % 4,
                    },
                    deadline: None,
                })
                .collect();
            let mut nonempty = 0;
            for plan in &plans {
                let got = execute(&index, plan);
                assert_eq!(got, oracle(&index, plan), "list lengths: {plan:?}");
                nonempty += usize::from(!got.is_empty());
            }
            assert!(nonempty > plans.len() / 2, "{lengths:?}");
        }
    }

    #[test]
    fn full_probe_equals_brute_force() {
        let (index, data) = build(300, 8, 3, false, 0, 7);
        for q in data.iter().take(20) {
            let ann = execute(&index, &SearchPlan::new(q.as_slice(), 5, 8));
            let exact = brute_force(&index, q.as_slice(), 5);
            assert_eq!(recall(&ann, &exact), 1.0);
            assert_eq!(exact, brute_force_reference(&index, q.as_slice(), 5));
        }
    }

    #[test]
    fn recall_grows_with_nprobe() {
        let (index, data) = build(500, 16, 5, false, 0, 0);
        let mut totals = Vec::new();
        for nprobe in [1usize, 4, 16] {
            let mut total = 0.0;
            for q in data.iter().take(30) {
                let ann = execute(&index, &SearchPlan::new(q.as_slice(), 10, nprobe));
                let exact = brute_force(&index, q.as_slice(), 10);
                total += recall(&ann, &exact);
            }
            totals.push(total / 30.0);
        }
        assert!(totals[0] <= totals[1] + 1e-9);
        assert!(totals[1] <= totals[2] + 1e-9);
        assert!((totals[2] - 1.0).abs() < 1e-9, "full probe is exact");
    }

    #[test]
    fn results_are_sorted_by_distance() {
        let (index, data) = build(200, 4, 7, false, 0, 0);
        let hits = execute(&index, &SearchPlan::new(data[0].as_slice(), 10, 4));
        for w in hits.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn deleted_images_are_skipped_by_both_paths() {
        let (index, data) = build(50, 4, 9, false, 0, 0);
        index.invalidate(ImageKey::from_url("u0"), "u0").unwrap();
        let ann = execute(&index, &SearchPlan::new(data[0].as_slice(), 50, 4));
        let exact = brute_force(&index, data[0].as_slice(), 50);
        assert!(ann.iter().all(|n| n.id != 0));
        assert!(exact.iter().all(|n| n.id != 0));
        assert_eq!(ann.len(), 49);
    }

    #[test]
    fn missing_vector_is_skipped_not_ranked_at_infinity() {
        // Regression: an id published in an inverted list whose feature
        // vector never landed used to enter the heap at f32::INFINITY and
        // could surface whenever fewer than k real candidates existed.
        let (index, data) = build(5, 1, 17, false, 0, 0);
        let phantom = ImageId(4000);
        index.inverted_internal().append(ListId(0), phantom);
        index.bitmap().set(phantom.as_usize());
        index.inverted_internal().flush();
        for result in [
            execute(&index, &SearchPlan::new(data[0].as_slice(), 50, 1)),
            ann_search_reference(&index, data[0].as_slice(), 50, 1),
        ] {
            assert_eq!(result.len(), 5, "only real images are returned");
            assert!(result.iter().all(|n| n.id != phantom.as_u64()));
            assert!(result.iter().all(|n| n.distance.is_finite()));
        }
    }

    #[test]
    fn rerank_drops_images_deleted_between_stages() {
        let (index, data) = build(30, 2, 19, false, 0, 0);
        let kernels = simd::active();
        let bitmap = index.bitmap();
        let vectors = index.vectors().snapshot();
        // Stage 1 admitted ids 0 and 1 to the shortlist...
        let mut shortlist = TopK::new(4);
        shortlist.push(0, 0.5);
        shortlist.push(1, 0.7);
        // ...then image 0 is deleted before the rerank runs.
        index.bitmap().clear(0);
        let got = exact_rerank(bitmap, &vectors, kernels, data[0].as_slice(), shortlist, 4);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].id, 1, "the deleted image cannot resurface");
    }

    /// The re-rank contract: with full probing and a shortlist that covers
    /// everything, the 4-bit path's final top-k is *exact* — quantization
    /// error lives only in the shortlist ordering.
    #[test]
    fn four_bit_full_overfetch_is_exact() {
        let (index, data) = build(200, 2, 37, true, 0, 0);
        for q in data.iter().take(10) {
            let plan = SearchPlan::new(q.as_slice(), 5, 2).compressed(200);
            let exact = brute_force(&index, q.as_slice(), 5);
            assert_eq!(recall(&execute(&index, &plan), &exact), 1.0);
        }
    }

    /// The race the real-time indexer can set up between a scanner's two
    /// reads, staged deterministically: a code is published at position
    /// `len` of a list whose id block (as the scanner snapshots it) still
    /// ends at `len`. The fast-scan scanner must ignore that lane rather
    /// than index one past the id block — unfiltered and filtered.
    #[test]
    fn code_published_past_the_id_snapshot_is_ignored() {
        let (index, data) = build(300, 4, 47, true, 0, 9);
        let category = FilterSpec::by_category(0);
        let search_all = |q: &[f32]| {
            let plain = SearchPlan::new(q, 10, 4).compressed(3);
            let filtered = plain.filtered(&category);
            (execute(&index, &plain), execute(&index, &filtered))
        };
        let before: Vec<_> = data
            .iter()
            .take(5)
            .map(|q| search_all(q.as_slice()))
            .collect();

        // Every list gets the stray code (only ragged tails can show it; a
        // full last block's successor group is never loaded).
        let pq = index.pq_store().unwrap();
        let mut ragged = 0;
        for (l, vector) in data.iter().enumerate().take(index.config().num_lists) {
            let list = ListId(l as u32);
            let len = index.inverted().list(list).len();
            ragged += usize::from(len % FASTSCAN_BLOCK != 0);
            pq.put(ImageId(10_000 + l as u32), list, len, vector);
        }
        assert!(ragged > 0, "the world must have a ragged list tail");

        for (q, expected) in data.iter().take(5).zip(&before) {
            assert_eq!(&search_all(q.as_slice()), expected);
        }
    }

    /// The raw twin of the test above: a row is published at position
    /// `len` of a list whose id snapshot still ends at `len` — the stray
    /// row is the query itself, so a scanner that scored it would rank it
    /// first. The raw scanner must ignore that lane rather than index one
    /// past the id block — unfiltered and filtered.
    #[test]
    fn row_published_past_the_id_snapshot_is_ignored() {
        let (index, data) = build(300, 4, 53, false, 0, 9);
        let category = FilterSpec::by_category(0);
        let search_all = |q: &[f32]| {
            let plain = SearchPlan::new(q, 10, 4);
            let filtered = plain.filtered(&category);
            (execute(&index, &plain), execute(&index, &filtered))
        };
        let before: Vec<_> = data
            .iter()
            .take(5)
            .map(|q| search_all(q.as_slice()))
            .collect();

        // Every list gets the stray row (only ragged tails can show it; a
        // full last block's successor is never read).
        let mut ragged = 0;
        for (l, vector) in data.iter().enumerate().take(index.config().num_lists) {
            let list = ListId(l as u32);
            let len = index.inverted().list(list).len();
            ragged += usize::from(len % ROW_BLOCK != 0);
            let stray = ImageId(10_000 + l as u32);
            index.vectors().put(stray, list, len, vector.as_slice());
        }
        assert!(ragged > 0, "the world must have a ragged list tail");

        for (q, expected) in data.iter().take(5).zip(&before) {
            assert_eq!(&search_all(q.as_slice()), expected);
        }
    }

    #[test]
    fn recall_of_identical_sets_is_one() {
        let a = vec![Neighbor::new(1, 0.0), Neighbor::new(2, 1.0)];
        assert_eq!(recall(&a, &a), 1.0);
        assert_eq!(recall(&a, &[]), 1.0);
        let b = vec![Neighbor::new(1, 0.0), Neighbor::new(9, 1.0)];
        assert_eq!(recall(&b, &a), 0.5);
    }

    #[test]
    #[should_panic(expected = "query dimension mismatch")]
    fn wrong_query_dim_panics() {
        let (index, _) = build(10, 2, 1, false, 0, 0);
        execute(&index, &SearchPlan::new(&[0.0; 4], 1, 1));
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let (index, data) = build(10, 2, 1, false, 0, 0);
        execute(&index, &SearchPlan::new(data[0].as_slice(), 0, 1));
    }

    /// An unconstrained spec is the unfiltered plan exactly.
    #[test]
    fn unconstrained_filter_equals_unfiltered() {
        let (index, data) = build(300, 4, 73, true, 8, 11);
        let spec = FilterSpec::none();
        for q in data.iter().take(5) {
            for plan in [
                SearchPlan::new(q.as_slice(), 10, 2),
                SearchPlan::new(q.as_slice(), 10, 2).compressed(3),
            ] {
                assert_eq!(
                    execute(&index, &plan.filtered(&spec)),
                    execute(&index, &plan)
                );
            }
        }
    }

    /// With full probing the filtered engine is exact against the
    /// filtered brute force.
    #[test]
    fn filtered_full_probe_equals_filtered_brute_force() {
        let (index, data) = build(400, 8, 79, false, 0, 11);
        for spec in [FilterSpec::by_category(2), FilterSpec::none().in_stock()] {
            for q in data.iter().take(8) {
                let ann = execute(&index, &SearchPlan::new(q.as_slice(), 5, 8).filtered(&spec));
                let exact = filtered_brute_force(&index, q.as_slice(), 5, &spec);
                assert_eq!(ann, exact, "spec {spec:?}");
            }
        }
    }

    /// Selectivity-aware escalation: at ~1% selectivity a single-list
    /// probe cannot fill k, and the escalating engine must widen until it
    /// does — still bit-identical to the escalating reference.
    #[test]
    fn filtered_escalation_fills_topk() {
        let n = 2000;
        let spec = FilterSpec::by_category(9); // ~1% of images
        let matching = (0..n)
            .filter(|i| i % 97 == 0 && i % 11 != 0) // listed ∧ not deleted
            .count();
        let k = 10;
        assert!(matching >= k, "test needs at least k matching images");

        let (escalating, data) = build(n, 16, 83, false, 16, 11);
        let (capped, _) = build(n, 16, 83, false, 0, 11);
        let mut ever_underfull = false;
        for q in data.iter().take(10) {
            let plan = SearchPlan::new(q.as_slice(), k, 1).filtered(&spec);
            let wide = execute(&escalating, &plan);
            assert_eq!(wide.len(), k, "escalation must fill top-k");
            assert_eq!(wide, oracle(&escalating, &plan));
            ever_underfull |= execute(&capped, &plan).len() < k;
        }
        assert!(
            ever_underfull,
            "without escalation a 1-list probe should miss at ~1% selectivity"
        );
    }

    /// Budget-aware escalation, on the raw and the fast-scan scanner: a
    /// deadline already in the past stops the widening before its first
    /// round, so the (possibly underfull) base top-k comes back on time —
    /// exactly the escalation-disabled result — while a generous deadline
    /// escalates like no deadline at all.
    #[test]
    fn near_expired_deadline_skips_escalation() {
        let spec = FilterSpec::by_category(9); // ~1% of images
        let k = 10;
        for pq in [false, true] {
            let (index, data) = build(2000, 16, 83, pq, 16, 11);
            let (capped, _) = build(2000, 16, 83, pq, 0, 11);
            let mut ever_underfull = false;
            for q in data.iter().take(10) {
                let mut plan = SearchPlan::new(q.as_slice(), k, 1).filtered(&spec);
                if pq {
                    plan = plan.compressed(3);
                }
                let expired = plan.with_deadline(Some(Instant::now() - Duration::from_millis(5)));
                let relaxed = plan.with_deadline(Some(Instant::now() + Duration::from_secs(60)));
                let base_only = execute(&capped, &plan);
                let escalated = execute(&index, &plan);
                assert_eq!(
                    execute(&index, &expired),
                    base_only,
                    "an expired deadline must return the base-probe result unchanged"
                );
                assert_eq!(
                    execute(&index, &relaxed),
                    escalated,
                    "a generous deadline must not change the escalated result"
                );
                ever_underfull |= base_only.len() < k;
            }
            assert!(
                ever_underfull,
                "the expired deadline should have cut escalation short at ~1% selectivity"
            );
        }
    }

    #[test]
    fn explicit_probe_set_matches_the_assigned_one() {
        let (index, data) = build(300, 8, 29, false, 0, 11);
        for q in data.iter().take(5) {
            let probes = index.quantizer().assign_multi(q.as_slice(), 3);
            assert_eq!(
                ann_search_with_probes(&index, q.as_slice(), 7, &probes),
                execute(&index, &SearchPlan::new(q.as_slice(), 7, 3)),
            );
        }
    }
}
