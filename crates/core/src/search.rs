//! Single-partition query evaluation (Section 2.4) — the block execution
//! engine.
//!
//! *"Each searcher node identifies the cluster that is most similar to the
//! queried image based on its features. It then scans the cluster's
//! inverted list and calculates the similarity as each image in the
//! inverted list. The top N most similar images are returned."*
//!
//! [`ann_search`] generalizes "the cluster" to the `nprobe` nearest
//! clusters (probing one list is the paper's letter; multi-probe is the
//! standard recall knob and the `ablate-nprobe` experiment sweeps it).
//! Invalid images — cleared bits in the validity bitmap — are skipped
//! during the scan, so logically deleted products never surface.
//!
//! ## The execution engine
//!
//! The serving paths share one scan core built for throughput:
//!
//! - **Block scan.** Inverted lists yield contiguous blocks of up to
//!   [`crate::inverted::SCAN_BLOCK`] ids
//!   ([`crate::inverted::InvertedList::scan_blocks`]) instead of one
//!   callback per id.
//! - **One lock per query.** The validity bitmap is pinned once via
//!   [`crate::bitmap::AtomicBitmap::reader`] and the vector / PQ-code
//!   stores via their snapshot/reader handles, so the per-candidate cost
//!   is a pure pointer chase — the pre-engine paths re-acquired a read
//!   lock for every candidate, twice.
//! - **SIMD kernels.** Distances dispatch through
//!   [`jdvs_vector::simd::active`] (AVX2+FMA / NEON / unrolled scalar,
//!   detected once at startup).
//! - **Fast-scan PQ.** In 4-bit PQ mode, stage 1 of
//!   [`compressed_search`] scores 32 candidates per
//!   [`jdvs_vector::simd::KernelSet::fastscan16`] call straight out of
//!   [`crate::pq_store::PqStore`]'s interleaved blocks, using a
//!   register-resident quantized LUT
//!   ([`jdvs_vector::pq::QuantizedAdcTable`]) instead of `m` scattered
//!   f32 table loads per candidate. Stage 2 re-ranks the quantized
//!   shortlist with exact f32 distances, so the over-fetch
//!   (`k · rerank_factor`) — not the u8 rounding — decides final quality.
//! - **Threshold pruning.** Once the top-k heap is full,
//!   [`TopK::would_accept`] rejects non-improving candidates before a
//!   [`Neighbor`] is even built.
//! - **Intra-query parallelism.** When
//!   [`crate::config::IndexConfig::intra_query_threads`] allows it *and*
//!   the probed lists hold at least [`PARALLEL_MIN_CANDIDATES`] published
//!   ids — with at least [`PARALLEL_MIN_PER_THREAD`] of them per spawned
//!   thread — lists fan out round-robin across scoped threads with
//!   per-thread collectors merged at the end. Results are identical to
//!   the sequential scan: merging is order-insensitive under the total
//!   (distance, id) order.
//! - **Multi-query batching.** Co-arriving queries execute as one
//!   [`MultiQuery`] batch ([`multi_ann_search`] /
//!   [`multi_compressed_search`]): the batch probes the **union** of its
//!   members' nprobe lists and walks each list's blocks once, scoring
//!   every subscribed query against the single block load (one
//!   [`jdvs_vector::simd::KernelSet::fastscan16_multi`] call per
//!   interleaved PQ block, one vector fetch per raw candidate). Per-query
//!   results are bit-identical to the sequential path — same candidate
//!   sets, same kernel lanes, and [`TopK`]'s total (distance, id) order
//!   makes the outcome independent of list visit order.
//!
//! - **Filter pushdown.** Attribute-filtered queries
//!   ([`filtered_ann_search`] / [`filtered_compressed_search`], and
//!   [`MultiQuery::filter`] on the batched paths) resolve their
//!   category/stock bitmap lanes and forward-index range predicates
//!   **before** the distance kernels run: a 32-lane fast-scan group (or a
//!   raw candidate) rejected by the filter costs bitmap word loads, not
//!   kernel work. When the filtered scan cannot fill `k`, probing widens
//!   (doubling, scanning only lists not yet probed — robust to the
//!   hierarchical coarse quantizer, whose bounded-beam assignment need not
//!   extend the previous prefix exactly) up to
//!   [`crate::config::IndexConfig::nprobe_escalation`] lists, optionally
//!   stopping early when a deadline budget cannot pay for another doubling
//!   round ([`filtered_ann_search_with_budget`]). Results are
//!   bit-identical to the post-filter references
//!   ([`filtered_ann_search_reference`] /
//!   [`filtered_compressed_search_reference`]), which score every valid
//!   candidate first and discard after.
//!
//! Every engine path keeps a sequential per-id `*_reference` twin that uses
//! the same dispatched kernel — differential tests assert bit-identical
//! results — plus [`ann_search_scalar_baseline`], the pre-engine scan
//! (per-candidate locking, forced scalar kernel) kept as the benchmark
//! baseline.

use std::time::{Duration, Instant};

use jdvs_vector::distance::squared_l2;
use jdvs_vector::simd::{self, KernelSet};
use jdvs_vector::topk::{Neighbor, TopK};

use crate::bitmap::BitmapReader;
use crate::filter::{FilterSpec, FilterView, QueryFilter};
use crate::ids::{ImageId, ListId};
use crate::index::VisualIndex;
use crate::inverted::InvertedIndex;
use crate::pq_store::{PqStore, FASTSCAN_BLOCK};
use crate::vectors::VectorSnapshot;

/// Minimum total published ids across the probed lists before a query fans
/// out across threads; below this, thread spawn and merge overhead dwarfs
/// the scan itself and the query stays sequential regardless of
/// [`crate::config::IndexConfig::intra_query_threads`].
pub const PARALLEL_MIN_CANDIDATES: usize = 2048;

/// Minimum published ids **per spawned thread**: a query only fans out to
/// as many threads as leave each at least this much work. Spawning a
/// scoped thread costs tens of microseconds; a thread handed fewer than
/// ~8k candidates (~100 µs of kernel work at d = 64) spends comparable
/// time being spawned and merged as scanning, which is how the 30k-image
/// bench regressed to *slower* with 4 threads under the old
/// total-count-only gate.
pub const PARALLEL_MIN_PER_THREAD: usize = 8192;

/// IVF search over one partition; see the module docs. Uses the configured
/// [`crate::config::IndexConfig::intra_query_threads`].
///
/// # Panics
///
/// Panics if `k == 0`, `nprobe == 0`, or `query` has the wrong dimension.
pub fn ann_search(index: &VisualIndex, query: &[f32], k: usize, nprobe: usize) -> Vec<Neighbor> {
    ann_search_with_threads(index, query, k, nprobe, index.config().intra_query_threads)
}

/// [`ann_search`] with an explicit thread budget (benchmarks sweep this;
/// serving goes through the config knob).
///
/// # Panics
///
/// Panics if `k == 0`, `nprobe == 0`, or `query` has the wrong dimension.
pub fn ann_search_with_threads(
    index: &VisualIndex,
    query: &[f32],
    k: usize,
    nprobe: usize,
    threads: usize,
) -> Vec<Neighbor> {
    assert!(k > 0, "k must be positive");
    assert!(nprobe > 0, "nprobe must be positive");
    assert_eq!(query.len(), index.config().dim, "query dimension mismatch");
    let lists = index.quantizer().assign_multi(query, nprobe);
    let kernels = simd::active();
    let bitmap = index.bitmap().reader();
    let vectors = index.vectors().snapshot();
    let eval = |id: ImageId| {
        if !bitmap.test(id.as_usize()) {
            return None; // logically deleted
        }
        // A published id whose feature vector has not landed yet is
        // *skipped*, not ranked at infinity: a sentinel distance would
        // surface the phantom whenever fewer than k real candidates exist.
        let v = vectors.get(id)?;
        Some(kernels.squared_l2(query, v.as_slice()))
    };
    let inverted = index.inverted_internal();
    let scan = |list: usize, topk: &mut TopK| scan_one_list(inverted, list, &eval, topk);
    scan_probed_lists(inverted, &lists, k, threads, &scan).into_sorted_vec()
}

/// [`ann_search`] over an explicit probe set instead of the quantizer's
/// assignment — an evaluation hook (used by the coarse-quantizer bench to
/// compare flat-scan and graph-assigned probe sets through the identical
/// list scan), not a serving path.
///
/// # Panics
///
/// Panics if `k == 0`, any list id is out of range, or `query` has the
/// wrong dimension.
pub fn ann_search_with_probes(
    index: &VisualIndex,
    query: &[f32],
    k: usize,
    lists: &[usize],
) -> Vec<Neighbor> {
    assert!(k > 0, "k must be positive");
    assert_eq!(query.len(), index.config().dim, "query dimension mismatch");
    let kernels = simd::active();
    let bitmap = index.bitmap().reader();
    let vectors = index.vectors().snapshot();
    let eval = |id: ImageId| {
        if !bitmap.test(id.as_usize()) {
            return None;
        }
        let v = vectors.get(id)?;
        Some(kernels.squared_l2(query, v.as_slice()))
    };
    let inverted = index.inverted_internal();
    let scan = |list: usize, topk: &mut TopK| scan_one_list(inverted, list, &eval, topk);
    scan_probed_lists(inverted, lists, k, 1, &scan).into_sorted_vec()
}

/// Attribute-filtered IVF search with pushdown: the filter is evaluated
/// *before* the vector fetch and distance kernel, so non-matching
/// candidates cost two or three bitmap word loads instead of a `d`-wide
/// kernel call. When the filtered scan cannot fill `k`, probing widens per
/// [`crate::config::IndexConfig::nprobe_escalation`]. Results are
/// bit-identical to [`filtered_ann_search_reference`].
///
/// # Panics
///
/// Panics if `k == 0`, `nprobe == 0`, or `query` has the wrong dimension.
pub fn filtered_ann_search(
    index: &VisualIndex,
    query: &[f32],
    k: usize,
    nprobe: usize,
    filter: &FilterSpec,
) -> Vec<Neighbor> {
    filtered_ann_search_with_threads(
        index,
        query,
        k,
        nprobe,
        filter,
        index.config().intra_query_threads,
    )
}

/// [`filtered_ann_search`] with an explicit thread budget.
///
/// # Panics
///
/// Panics if `k == 0`, `nprobe == 0`, or `query` has the wrong dimension.
pub fn filtered_ann_search_with_threads(
    index: &VisualIndex,
    query: &[f32],
    k: usize,
    nprobe: usize,
    filter: &FilterSpec,
    threads: usize,
) -> Vec<Neighbor> {
    filtered_ann_search_inner(index, query, k, nprobe, filter, threads, None)
}

/// [`filtered_ann_search`] with a deadline budget: escalation rounds stop
/// as soon as the remaining time cannot pay for another doubling round
/// (estimated from the measured per-list scan cost of the base pass), so a
/// near-expired query returns its current top-k instead of blowing its
/// deadline widening. `None` behaves exactly like [`filtered_ann_search`].
///
/// # Panics
///
/// Panics if `k == 0`, `nprobe == 0`, or `query` has the wrong dimension.
pub fn filtered_ann_search_with_budget(
    index: &VisualIndex,
    query: &[f32],
    k: usize,
    nprobe: usize,
    filter: &FilterSpec,
    deadline: Option<Instant>,
) -> Vec<Neighbor> {
    filtered_ann_search_inner(
        index,
        query,
        k,
        nprobe,
        filter,
        index.config().intra_query_threads,
        deadline,
    )
}

fn filtered_ann_search_inner(
    index: &VisualIndex,
    query: &[f32],
    k: usize,
    nprobe: usize,
    filter: &FilterSpec,
    threads: usize,
    deadline: Option<Instant>,
) -> Vec<Neighbor> {
    assert!(k > 0, "k must be positive");
    assert!(nprobe > 0, "nprobe must be positive");
    assert_eq!(query.len(), index.config().dim, "query dimension mismatch");
    if filter.is_unconstrained() {
        // An empty spec is the plain scan; unfiltered searches never
        // escalate.
        return ann_search_with_threads(index, query, k, nprobe, threads);
    }
    let qf = QueryFilter::new(filter, index.filters(), index.forward());
    let view = qf.view();
    let kernels = simd::active();
    let bitmap = index.bitmap().reader();
    let vectors = index.vectors().snapshot();
    let inverted = index.inverted_internal();
    let eval = |id: ImageId| {
        // Pushdown: the filter verdict comes before the vector fetch, so a
        // rejected candidate never reaches the distance kernel.
        if !bitmap.test(id.as_usize()) || !view.admits(id.as_usize()) {
            return None;
        }
        let v = vectors.get(id)?;
        Some(kernels.squared_l2(query, v.as_slice()))
    };
    let scan = |list: usize, topk: &mut TopK| scan_one_list(inverted, list, &eval, topk);
    let lists = index.quantizer().assign_multi(query, nprobe);
    let base_start = deadline.map(|_| Instant::now());
    let mut topk = scan_probed_lists(inverted, &lists, k, threads, &scan);
    let budget = EscalationBudget::measured(deadline, base_start.map(|s| s.elapsed()), lists.len());
    escalate_filtered(index, query, k, &lists, threads, budget, &mut topk, &scan);
    topk.into_sorted_vec()
}

/// Deadline context for budget-aware escalation: the absolute deadline and
/// a per-list scan-cost estimate seeded from the measured base pass (and
/// refreshed from each completed round). `escalate_filtered` stops widening
/// when the remaining budget cannot pay for the next doubling round.
#[derive(Debug, Clone, Copy)]
struct EscalationBudget {
    deadline: Instant,
    per_list: Option<Duration>,
}

impl EscalationBudget {
    /// Builds the budget from a deadline and the measured base scan
    /// (`elapsed` over `lists` probed lists).
    fn measured(
        deadline: Option<Instant>,
        elapsed: Option<Duration>,
        lists: usize,
    ) -> Option<Self> {
        deadline.map(|deadline| EscalationBudget {
            deadline,
            per_list: elapsed.filter(|_| lists > 0).map(|e| e / lists as u32),
        })
    }
}

/// Widens a **filtered** query's probing while its top-k is underfull:
/// each round doubles the probe width (capped at
/// [`crate::config::IndexConfig::nprobe_escalation`] and the list count)
/// and scans only the lists not yet probed. With the flat (exact) coarse
/// quantizer the not-yet-probed lists are precisely the suffix of the
/// wider assignment — its nearest-first prefix is stable — and with the
/// hierarchical quantizer, whose bounded-beam assignment may re-rank once
/// the requested width exceeds the beam, the explicit seen-set still
/// guarantees every list is scanned at most once. Merging per-round
/// collectors under [`TopK`]'s total order keeps the result identical to
/// one flat scan over the union of probed lists.
///
/// When `budget` is set, a round only starts while the deadline has both
/// not passed and (once a per-list cost estimate exists — seeded from the
/// measured base pass, refreshed after every round) enough headroom to pay
/// for the round's extra lists; otherwise the current top-k is returned
/// as-is, degraded but on time.
#[allow(clippy::too_many_arguments)]
fn escalate_filtered<S>(
    index: &VisualIndex,
    query: &[f32],
    fill_target: usize,
    base_lists: &[usize],
    threads: usize,
    budget: Option<EscalationBudget>,
    topk: &mut TopK,
    scan: &S,
) where
    S: Fn(usize, &mut TopK) + Sync,
{
    let cap = index
        .config()
        .nprobe_escalation
        .min(index.config().num_lists);
    let inverted = index.inverted_internal();
    let mut seen = vec![false; index.quantizer().k()];
    for &list in base_lists {
        seen[list] = true;
    }
    let mut width = base_lists.len();
    let mut per_list = budget.and_then(|b| b.per_list);
    let mut extra: Vec<usize> = Vec::new();
    while topk.len() < fill_target && width < cap {
        let new_width = (width * 2).min(cap);
        if let Some(b) = budget {
            let now = Instant::now();
            if now >= b.deadline {
                break;
            }
            if let Some(cost) = per_list {
                let estimate = cost.saturating_mul((new_width - width) as u32);
                if b.deadline.duration_since(now) < estimate {
                    break;
                }
            }
        }
        let wider = index.quantizer().assign_multi(query, new_width);
        extra.clear();
        extra.extend(wider.into_iter().filter(|&l| !seen[l]));
        for &list in &extra {
            seen[list] = true;
        }
        let round_start = budget.map(|_| Instant::now());
        let round = scan_probed_lists(inverted, &extra, topk.k(), threads, scan);
        if let Some(start) = round_start {
            if !extra.is_empty() {
                per_list = Some(start.elapsed() / extra.len() as u32);
            }
        }
        topk.merge(round);
        width = new_width;
    }
}

/// One member of a co-executed query batch; see [`multi_ann_search`] and
/// [`multi_compressed_search`]. Each member carries its own result budget
/// and probe width, so a batch may mix queries with different `k` /
/// `nprobe` (as a serving-tier micro-batcher delivers them).
#[derive(Debug, Clone, Copy)]
pub struct MultiQuery<'a> {
    /// Feature vector; must match the index dimension.
    pub features: &'a [f32],
    /// Result count for this query.
    pub k: usize,
    /// Number of lists this query probes.
    pub nprobe: usize,
    /// Attribute constraints, pushed down into the shared block scan.
    /// Members of one batch may carry distinct filters (or none); each
    /// member's result stays bit-identical to its sequential filtered
    /// twin. Constrained members escalate probing individually after the
    /// batch pass when underfull (see
    /// [`crate::config::IndexConfig::nprobe_escalation`]).
    pub filter: Option<&'a FilterSpec>,
}

/// Maps each inverted list to the batch members whose probe set includes
/// it — the union probe. Each list appears once, paired with its
/// subscriber set; each query still scores exactly the candidates of its
/// own probed lists.
///
/// Visit order is rank-interleaved nearest-first: every member's rank-0
/// (nearest-centroid) list comes before any rank-1 list, and so on, with
/// a list emitted at the first rank any member probes it. Results are
/// order-independent ([`TopK`]'s total order), but the scan's top-k prune
/// bound tightens fastest when the closest lists are seen first — and for
/// a batch of one this is exactly the sequential path's probe order.
fn probe_union(index: &VisualIndex, queries: &[MultiQuery<'_>]) -> Vec<(usize, Vec<usize>)> {
    let num_lists = index.config().num_lists;
    let probes: Vec<Vec<usize>> = queries
        .iter()
        .map(|q| index.quantizer().assign_multi(q.features, q.nprobe))
        .collect();
    let mut subscribers: Vec<Vec<usize>> = vec![Vec::new(); num_lists];
    for (qi, probe) in probes.iter().enumerate() {
        for &list in probe {
            subscribers[list].push(qi);
        }
    }
    let mut seen = vec![false; num_lists];
    let mut union = Vec::new();
    let max_rank = probes.iter().map(Vec::len).max().unwrap_or(0);
    for rank in 0..max_rank {
        for probe in &probes {
            if let Some(&list) = probe.get(rank) {
                if !seen[list] {
                    seen[list] = true;
                    union.push((list, std::mem::take(&mut subscribers[list])));
                }
            }
        }
    }
    union
}

fn assert_multi_query(index: &VisualIndex, queries: &[MultiQuery<'_>]) {
    for q in queries {
        assert!(q.k > 0, "k must be positive");
        assert!(q.nprobe > 0, "nprobe must be positive");
        assert_eq!(
            q.features.len(),
            index.config().dim,
            "query dimension mismatch"
        );
    }
}

/// Batched IVF search: executes every member of `queries` in one pass
/// over the union of their probed lists. A candidate's validity check and
/// vector fetch happen once per list block and are shared by every
/// subscribed query, instead of once per query. Results are bit-identical
/// per member to [`ann_search_with_threads`] with `threads = 1` (same
/// kernels, same candidate sets; [`TopK`] is insensitive to visit order).
///
/// The batch itself is the parallelism — members run sequentially within
/// the calling thread, so a serving micro-batcher can invoke this from
/// one connection thread without nested fan-out.
///
/// # Panics
///
/// Panics if any member has `k == 0`, `nprobe == 0`, or the wrong
/// dimension.
pub fn multi_ann_search(index: &VisualIndex, queries: &[MultiQuery<'_>]) -> Vec<Vec<Neighbor>> {
    assert_multi_query(index, queries);
    if queries.is_empty() {
        return Vec::new();
    }
    let subscribers = probe_union(index, queries);
    let kernels = simd::active();
    let bitmap = index.bitmap().reader();
    let vectors = index.vectors().snapshot();
    let inverted = index.inverted_internal();
    let filters = member_filters(index, queries);
    let views = member_views(&filters);
    let mut topks: Vec<TopK> = queries.iter().map(|q| TopK::new(q.k)).collect();
    for &(list, ref subs) in &subscribers {
        inverted.scan_blocks(ListId(list as u32), |ids| {
            for &id in ids {
                if !bitmap.test(id.as_usize()) {
                    continue; // logically deleted
                }
                // Fetched lazily and at most once (see
                // `ann_search_with_threads` for the missing-vector rule): a
                // candidate every subscriber's filter rejects costs no
                // vector load at all.
                let mut fetched = None;
                for &qi in subs {
                    if let Some(view) = &views[qi] {
                        if !view.admits(id.as_usize()) {
                            continue;
                        }
                    }
                    let v = match fetched {
                        Some(v) => v,
                        None => match vectors.get(id) {
                            Some(v) => {
                                fetched = Some(v);
                                v
                            }
                            None => break,
                        },
                    };
                    let d = kernels.squared_l2(queries[qi].features, v.as_slice());
                    if topks[qi].would_accept(d) {
                        topks[qi].push(id.as_u64(), d);
                    }
                }
            }
        });
    }
    // Constrained members that the batch pass left underfull escalate
    // individually — same rounds, same scan predicate, hence the same
    // result as their sequential filtered twin.
    for (qi, q) in queries.iter().enumerate() {
        let Some(view) = views[qi].as_ref() else {
            continue;
        };
        let eval = |id: ImageId| {
            if !bitmap.test(id.as_usize()) || !view.admits(id.as_usize()) {
                return None;
            }
            let v = vectors.get(id)?;
            Some(kernels.squared_l2(q.features, v.as_slice()))
        };
        let scan = |list: usize, topk: &mut TopK| scan_one_list(inverted, list, &eval, topk);
        let base = index.quantizer().assign_multi(q.features, q.nprobe);
        escalate_filtered(
            index,
            q.features,
            q.k,
            &base,
            1,
            None,
            &mut topks[qi],
            &scan,
        );
    }
    topks.into_iter().map(TopK::into_sorted_vec).collect()
}

/// Resolves each batch member's filter spec against the index — `None` for
/// unconstrained members (no filter, or a spec that admits everything), so
/// the scan's per-subscriber check is a single `Option` branch.
fn member_filters<'a>(
    index: &'a VisualIndex,
    queries: &[MultiQuery<'a>],
) -> Vec<Option<QueryFilter<'a>>> {
    queries
        .iter()
        .map(|q| {
            q.filter
                .filter(|f| !f.is_unconstrained())
                .map(|f| QueryFilter::new(f, index.filters(), index.forward()))
        })
        .collect()
}

/// Pins a [`FilterView`] per constrained batch member.
fn member_views<'a>(filters: &'a [Option<QueryFilter<'a>>]) -> Vec<Option<FilterView<'a>>> {
    filters
        .iter()
        .map(|qf| qf.as_ref().map(QueryFilter::view))
        .collect()
}

/// Two-stage compressed (PQ) search; see
/// [`VisualIndex::search_compressed`]. Uses the configured
/// [`crate::config::IndexConfig::intra_query_threads`].
///
/// # Panics
///
/// Panics if PQ mode is disabled, any count is zero, or `query` has the
/// wrong dimension.
pub fn compressed_search(
    index: &VisualIndex,
    query: &[f32],
    k: usize,
    nprobe: usize,
    rerank_factor: usize,
) -> Vec<Neighbor> {
    compressed_search_with_threads(
        index,
        query,
        k,
        nprobe,
        rerank_factor,
        index.config().intra_query_threads,
    )
}

/// [`compressed_search`] with an explicit thread budget for stage 1.
///
/// # Panics
///
/// Panics if PQ mode is disabled, any count is zero, or `query` has the
/// wrong dimension.
pub fn compressed_search_with_threads(
    index: &VisualIndex,
    query: &[f32],
    k: usize,
    nprobe: usize,
    rerank_factor: usize,
    threads: usize,
) -> Vec<Neighbor> {
    assert!(k > 0, "k must be positive");
    assert!(nprobe > 0, "nprobe must be positive");
    assert!(rerank_factor > 0, "rerank_factor must be positive");
    assert_eq!(query.len(), index.config().dim, "query dimension mismatch");
    let pq = index
        .pq_store()
        .expect("compressed search requires config.pq_subspaces (see IndexConfig)");

    // Stage 1: quantized scan of the probed lists' PQ codes, shortlisting
    // k · rerank_factor candidates.
    let lists = index.quantizer().assign_multi(query, nprobe);
    let kernels = simd::active();
    let bitmap = index.bitmap().reader();
    let inverted = index.inverted_internal();
    let shortlist_k = k.saturating_mul(rerank_factor).max(k);
    let shortlist = if pq.is_four_bit() {
        // Fast-scan: one kernel call scores a whole interleaved block of
        // 32 codes against the register-resident quantized LUTs.
        let qt = pq.quantized_adc_table(query);
        let scan = |list: usize, topk: &mut TopK| {
            fastscan_one_list(inverted, pq, &bitmap, kernels, &qt, list, topk);
        };
        scan_probed_lists(inverted, &lists, shortlist_k, threads, &scan)
    } else {
        // Classic 8-bit ADC: m table lookups per candidate, codes read
        // by list position from the contiguous code area.
        let table = pq.adc_table(query);
        let scan = |list: usize, topk: &mut TopK| {
            let reader = pq.list_reader(ListId(list as u32));
            let mut code = vec![0u8; pq.code_len()];
            let mut base = 0usize;
            inverted.scan_blocks(ListId(list as u32), |ids| {
                for (i, &id) in ids.iter().enumerate() {
                    if bitmap.test(id.as_usize()) && reader.read_code(base + i, &mut code) {
                        let d = table.distance(&code);
                        if topk.would_accept(d) {
                            topk.push(id.as_u64(), d);
                        }
                    }
                }
                base += ids.len();
            });
        };
        scan_probed_lists(inverted, &lists, shortlist_k, threads, &scan)
    };

    // Stage 2: exact rerank of the shortlist over raw vectors.
    let vectors = index.vectors().snapshot();
    exact_rerank(&bitmap, &vectors, kernels, query, shortlist, k)
}

/// Attribute-filtered two-stage compressed search; the filtered twin of
/// [`compressed_search`]. In 4-bit mode the filter lane mask resolves
/// *before* the fast-scan kernel, so a 32-code group with no admitted lane
/// skips the kernel, LUT accumulation and bound pruning outright; in 8-bit
/// mode rejected candidates skip the code read and the `m` table lookups.
/// Underfull shortlists escalate probing like [`filtered_ann_search`].
/// Results are bit-identical to [`filtered_compressed_search_reference`].
///
/// # Panics
///
/// Panics if PQ mode is disabled, any count is zero, or `query` has the
/// wrong dimension.
pub fn filtered_compressed_search(
    index: &VisualIndex,
    query: &[f32],
    k: usize,
    nprobe: usize,
    rerank_factor: usize,
    filter: &FilterSpec,
) -> Vec<Neighbor> {
    filtered_compressed_search_with_threads(
        index,
        query,
        k,
        nprobe,
        rerank_factor,
        filter,
        index.config().intra_query_threads,
    )
}

/// [`filtered_compressed_search`] with an explicit thread budget for
/// stage 1.
///
/// # Panics
///
/// Panics if PQ mode is disabled, any count is zero, or `query` has the
/// wrong dimension.
pub fn filtered_compressed_search_with_threads(
    index: &VisualIndex,
    query: &[f32],
    k: usize,
    nprobe: usize,
    rerank_factor: usize,
    filter: &FilterSpec,
    threads: usize,
) -> Vec<Neighbor> {
    filtered_compressed_search_inner(
        index,
        query,
        k,
        nprobe,
        rerank_factor,
        filter,
        threads,
        None,
    )
}

/// [`filtered_compressed_search`] with a deadline budget; the compressed
/// twin of [`filtered_ann_search_with_budget`] (escalation rounds stop when
/// the remaining time cannot pay for another doubling round).
///
/// # Panics
///
/// Panics if PQ mode is disabled, any count is zero, or `query` has the
/// wrong dimension.
pub fn filtered_compressed_search_with_budget(
    index: &VisualIndex,
    query: &[f32],
    k: usize,
    nprobe: usize,
    rerank_factor: usize,
    filter: &FilterSpec,
    deadline: Option<Instant>,
) -> Vec<Neighbor> {
    filtered_compressed_search_inner(
        index,
        query,
        k,
        nprobe,
        rerank_factor,
        filter,
        index.config().intra_query_threads,
        deadline,
    )
}

#[allow(clippy::too_many_arguments)]
fn filtered_compressed_search_inner(
    index: &VisualIndex,
    query: &[f32],
    k: usize,
    nprobe: usize,
    rerank_factor: usize,
    filter: &FilterSpec,
    threads: usize,
    deadline: Option<Instant>,
) -> Vec<Neighbor> {
    assert!(k > 0, "k must be positive");
    assert!(nprobe > 0, "nprobe must be positive");
    assert!(rerank_factor > 0, "rerank_factor must be positive");
    assert_eq!(query.len(), index.config().dim, "query dimension mismatch");
    if filter.is_unconstrained() {
        return compressed_search_with_threads(index, query, k, nprobe, rerank_factor, threads);
    }
    let pq = index
        .pq_store()
        .expect("compressed search requires config.pq_subspaces (see IndexConfig)");
    let qf = QueryFilter::new(filter, index.filters(), index.forward());
    let view = qf.view();
    let lists = index.quantizer().assign_multi(query, nprobe);
    let kernels = simd::active();
    let bitmap = index.bitmap().reader();
    let inverted = index.inverted_internal();
    let shortlist_k = k.saturating_mul(rerank_factor).max(k);
    let shortlist = if pq.is_four_bit() {
        let qt = pq.quantized_adc_table(query);
        let scan = |list: usize, topk: &mut TopK| {
            filtered_fastscan_one_list(inverted, pq, &bitmap, &view, kernels, &qt, list, topk);
        };
        let base_start = deadline.map(|_| Instant::now());
        let mut topk = scan_probed_lists(inverted, &lists, shortlist_k, threads, &scan);
        let budget =
            EscalationBudget::measured(deadline, base_start.map(|s| s.elapsed()), lists.len());
        // The escalation target is k — the final result budget — not the
        // over-fetch capacity: stage 2 only drops ids deleted between
        // stages, so k shortlisted candidates fill the top-k.
        escalate_filtered(index, query, k, &lists, threads, budget, &mut topk, &scan);
        topk
    } else {
        let table = pq.adc_table(query);
        let scan = |list: usize, topk: &mut TopK| {
            filtered_adc_scan_one_list(inverted, pq, &bitmap, &view, &table, list, topk);
        };
        let base_start = deadline.map(|_| Instant::now());
        let mut topk = scan_probed_lists(inverted, &lists, shortlist_k, threads, &scan);
        let budget =
            EscalationBudget::measured(deadline, base_start.map(|s| s.elapsed()), lists.len());
        escalate_filtered(index, query, k, &lists, threads, budget, &mut topk, &scan);
        topk
    };
    let vectors = index.vectors().snapshot();
    exact_rerank(&bitmap, &vectors, kernels, query, shortlist, k)
}

/// Batched two-stage compressed (PQ) search — the `MultiQuery` engine
/// entry point the serving micro-batcher feeds. Stage 1 probes the union
/// of the batch's nprobe lists once: every interleaved 4-bit block is
/// loaded (and its validity lanes resolved) a single time and scored for
/// all subscribed queries with one
/// [`jdvs_vector::simd::KernelSet::fastscan16_multi`] call, each query
/// keeping its own register-resident [`jdvs_vector::pq::QuantizedAdcTable`]
/// LUTs and its own [`TopK`] with [`TopK::would_accept`] pruning. Stage 2
/// re-ranks each member's shortlist exactly as the sequential path does.
///
/// Per-member results are **bit-identical** to
/// [`compressed_search_with_threads`] (and hence to
/// [`compressed_search_reference`]): the batched kernel's lanes equal the
/// single-query kernel's, and [`TopK`]'s total (distance, id) order makes
/// results independent of list visit order. Differential tests pin this
/// on both the native and forced-scalar kernel sets.
///
/// # Panics
///
/// Panics if PQ mode is disabled, `rerank_factor == 0`, or any member has
/// `k == 0`, `nprobe == 0`, or the wrong dimension.
pub fn multi_compressed_search(
    index: &VisualIndex,
    queries: &[MultiQuery<'_>],
    rerank_factor: usize,
) -> Vec<Vec<Neighbor>> {
    assert!(rerank_factor > 0, "rerank_factor must be positive");
    assert_multi_query(index, queries);
    if queries.is_empty() {
        return Vec::new();
    }
    let pq = index
        .pq_store()
        .expect("compressed search requires config.pq_subspaces (see IndexConfig)");
    let subscribers = probe_union(index, queries);
    let kernels = simd::active();
    let bitmap = index.bitmap().reader();
    let inverted = index.inverted_internal();
    let filters = member_filters(index, queries);
    let views = member_views(&filters);
    let mut shortlists: Vec<TopK> = queries
        .iter()
        .map(|q| TopK::new(q.k.saturating_mul(rerank_factor).max(q.k)))
        .collect();

    if pq.is_four_bit() {
        let qts: Vec<_> = queries
            .iter()
            .map(|q| pq.quantized_adc_table(q.features))
            .collect();
        // Scratch reused across lists: one code tile per block load, one
        // accumulator row per batch member.
        let mut tile = Vec::new();
        let mut accs = vec![[0u16; FASTSCAN_BLOCK]; queries.len()];
        for &(list, ref subs) in &subscribers {
            fastscan_one_list_multi(
                inverted,
                pq,
                &bitmap,
                kernels,
                &qts,
                &views,
                subs,
                list,
                &mut shortlists,
                &mut tile,
                &mut accs,
            );
        }
        // Per-member escalation for constrained members the batch pass
        // left underfull, scanning only the suffix lists with the
        // sequential filtered scan — identical rounds, identical results.
        for (qi, q) in queries.iter().enumerate() {
            let Some(view) = views[qi].as_ref() else {
                continue;
            };
            let scan = |list: usize, topk: &mut TopK| {
                filtered_fastscan_one_list(
                    inverted, pq, &bitmap, view, kernels, &qts[qi], list, topk,
                );
            };
            let base = index.quantizer().assign_multi(q.features, q.nprobe);
            escalate_filtered(
                index,
                q.features,
                q.k,
                &base,
                1,
                None,
                &mut shortlists[qi],
                &scan,
            );
        }
    } else {
        // Classic 8-bit ADC: the code read is shared; each subscriber
        // pays only its own m table lookups. Per-member filters gate both:
        // a candidate no subscriber admits skips the code read too.
        let tables: Vec<_> = queries.iter().map(|q| pq.adc_table(q.features)).collect();
        let mut code = vec![0u8; pq.code_len()];
        for &(list, ref subs) in &subscribers {
            let reader = pq.list_reader(ListId(list as u32));
            let mut base = 0usize;
            inverted.scan_blocks(ListId(list as u32), |ids| {
                for (i, &id) in ids.iter().enumerate() {
                    if !bitmap.test(id.as_usize()) {
                        continue;
                    }
                    let mut loaded = false;
                    for &qi in subs {
                        if let Some(view) = &views[qi] {
                            if !view.admits(id.as_usize()) {
                                continue;
                            }
                        }
                        if !loaded {
                            if !reader.read_code(base + i, &mut code) {
                                break; // unpublished for every subscriber
                            }
                            loaded = true;
                        }
                        let d = tables[qi].distance(&code);
                        if shortlists[qi].would_accept(d) {
                            shortlists[qi].push(id.as_u64(), d);
                        }
                    }
                }
                base += ids.len();
            });
        }
        for (qi, q) in queries.iter().enumerate() {
            let Some(view) = views[qi].as_ref() else {
                continue;
            };
            let scan = |list: usize, topk: &mut TopK| {
                filtered_adc_scan_one_list(inverted, pq, &bitmap, view, &tables[qi], list, topk);
            };
            let base = index.quantizer().assign_multi(q.features, q.nprobe);
            escalate_filtered(
                index,
                q.features,
                q.k,
                &base,
                1,
                None,
                &mut shortlists[qi],
                &scan,
            );
        }
    }

    let vectors = index.vectors().snapshot();
    queries
        .iter()
        .zip(shortlists)
        .map(|(q, shortlist)| exact_rerank(&bitmap, &vectors, kernels, q.features, shortlist, q.k))
        .collect()
}

/// Mask of a group's first `lanes` lanes. The id block a scanner holds is a
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

/// Stage 1 of the 4-bit compressed path over one list: loads each
/// 32-code interleaved block (partial tail lanes masked), scores it with
/// one [`jdvs_vector::simd::KernelSet::fastscan16`] call, and feeds the
/// published + valid lanes to `topk` in list order — the exact candidate
/// set and f32 distances of the per-id reference twin
/// ([`jdvs_vector::pq::QuantizedAdcTable::distance`] is bit-exact with a
/// kernel lane).
fn fastscan_one_list(
    inverted: &InvertedIndex,
    pq: &PqStore,
    bitmap: &BitmapReader<'_>,
    kernels: &KernelSet,
    qt: &jdvs_vector::pq::QuantizedAdcTable,
    list: usize,
    topk: &mut TopK,
) {
    let reader = pq.list_reader(ListId(list as u32));
    let mut tile = vec![0u8; reader.tile_len()];
    let mut acc = [0u16; FASTSCAN_BLOCK];
    // Quantized top-k prune bound, recomputed only when the k-th distance
    // moves (`prune_bound` is the exact `would_accept` edge, so skipped
    // lanes provably change nothing).
    let mut bound = Some(u16::MAX);
    let mut bound_thr = f32::INFINITY;
    // scan_blocks emits full SCAN_BLOCK-sized blocks (a multiple of
    // FASTSCAN_BLOCK) with one ragged tail, so every group base below is
    // block-aligned.
    let mut base = 0usize;
    inverted.scan_blocks(ListId(list as u32), |ids| {
        let mut g = 0usize;
        while g < ids.len() {
            let lanes = (ids.len() - g).min(FASTSCAN_BLOCK);
            let mask = reader.load_group(base + g, &mut tile) & low_lanes(lanes);
            if mask != 0 {
                let thr = topk.threshold();
                if thr.to_bits() != bound_thr.to_bits() {
                    bound = qt.prune_bound(thr);
                    bound_thr = thr;
                }
                if let Some(b) = bound {
                    kernels.fastscan16(&tile, qt.luts(), &mut acc);
                    // An unpublished lane's code is still mid-insert (its
                    // bitmap bit is not set yet either); a published lane
                    // under the prune bound scores from the accumulator.
                    let mut hits = kernels.lanes_le16(&acc, b) & mask;
                    while hits != 0 {
                        let lane = hits.trailing_zeros() as usize;
                        hits &= hits - 1;
                        let id = ids[g + lane];
                        if bitmap.test(id.as_usize()) {
                            let d = qt.to_f32(acc[lane]);
                            if topk.would_accept(d) {
                                topk.push(id.as_u64(), d);
                            }
                        }
                    }
                }
            }
            g += lanes;
        }
        base += ids.len();
    });
}

/// Filtered twin of [`fastscan_one_list`]: the admitted-lane mask (filter
/// ∧ published) resolves **before** the kernel, so a group whose mask is
/// zero skips the `fastscan16` call, the LUT accumulation and the bound
/// pruning — the pushdown that makes low-selectivity filters cheap. Lanes
/// that survive score exactly as in the unfiltered scan.
#[allow(clippy::too_many_arguments)]
fn filtered_fastscan_one_list(
    inverted: &InvertedIndex,
    pq: &PqStore,
    bitmap: &BitmapReader<'_>,
    view: &FilterView<'_>,
    kernels: &KernelSet,
    qt: &jdvs_vector::pq::QuantizedAdcTable,
    list: usize,
    topk: &mut TopK,
) {
    let reader = pq.list_reader(ListId(list as u32));
    let mut tile = vec![0u8; reader.tile_len()];
    let mut acc = [0u16; FASTSCAN_BLOCK];
    let mut bound = Some(u16::MAX);
    let mut bound_thr = f32::INFINITY;
    let mut base = 0usize;
    inverted.scan_blocks(ListId(list as u32), |ids| {
        let mut g = 0usize;
        while g < ids.len() {
            let lanes = (ids.len() - g).min(FASTSCAN_BLOCK);
            let mask = reader.load_group(base + g, &mut tile) & low_lanes(lanes);
            let fmask = if mask != 0 {
                view.lane_mask(&ids[g..g + lanes], mask)
            } else {
                0
            };
            if fmask != 0 {
                let thr = topk.threshold();
                if thr.to_bits() != bound_thr.to_bits() {
                    bound = qt.prune_bound(thr);
                    bound_thr = thr;
                }
                if let Some(b) = bound {
                    kernels.fastscan16(&tile, qt.luts(), &mut acc);
                    let mut hits = kernels.lanes_le16(&acc, b) & fmask;
                    while hits != 0 {
                        let lane = hits.trailing_zeros() as usize;
                        hits &= hits - 1;
                        let id = ids[g + lane];
                        if bitmap.test(id.as_usize()) {
                            let d = qt.to_f32(acc[lane]);
                            if topk.would_accept(d) {
                                topk.push(id.as_u64(), d);
                            }
                        }
                    }
                }
            }
            g += lanes;
        }
        base += ids.len();
    });
}

/// Filtered 8-bit ADC scan of one list: rejected candidates skip the code
/// read and all `m` table lookups. Shared by the sequential filtered path
/// and the batched path's per-member escalation rounds.
fn filtered_adc_scan_one_list(
    inverted: &InvertedIndex,
    pq: &PqStore,
    bitmap: &BitmapReader<'_>,
    view: &FilterView<'_>,
    table: &jdvs_vector::pq::AdcTable,
    list: usize,
    topk: &mut TopK,
) {
    let reader = pq.list_reader(ListId(list as u32));
    let mut code = vec![0u8; pq.code_len()];
    let mut base = 0usize;
    inverted.scan_blocks(ListId(list as u32), |ids| {
        for (i, &id) in ids.iter().enumerate() {
            if bitmap.test(id.as_usize())
                && view.admits(id.as_usize())
                && reader.read_code(base + i, &mut code)
            {
                let d = table.distance(&code);
                if topk.would_accept(d) {
                    topk.push(id.as_u64(), d);
                }
            }
        }
        base += ids.len();
    });
}

/// Stage 1 of the batched 4-bit path over one list: each 32-code
/// interleaved block is loaded with a single
/// [`crate::pq_store::PqListReader::load_group`], its published lanes are
/// filtered through the validity bitmap **once**, and one batched kernel
/// call scores the block for every subscriber — per query, the exact
/// (id, f32) candidates of [`fastscan_one_list`].
#[allow(clippy::too_many_arguments)]
fn fastscan_one_list_multi(
    inverted: &InvertedIndex,
    pq: &PqStore,
    bitmap: &BitmapReader<'_>,
    kernels: &KernelSet,
    qts: &[jdvs_vector::pq::QuantizedAdcTable],
    views: &[Option<FilterView<'_>>],
    subs: &[usize],
    list: usize,
    shortlists: &mut [TopK],
    tile: &mut Vec<u8>,
    accs: &mut [[u16; FASTSCAN_BLOCK]],
) {
    let reader = pq.list_reader(ListId(list as u32));
    tile.clear();
    tile.resize(reader.tile_len(), 0);
    let luts: Vec<&[u8]> = subs.iter().map(|&qi| qts[qi].luts()).collect();
    // Per-subscriber quantized prune bounds, recomputed only when that
    // query's k-th distance moves (same exact-edge contract as the
    // sequential path), plus per-subscriber filter and hit masks for the
    // block in flight.
    let mut bounds: Vec<Option<u16>> = vec![Some(u16::MAX); subs.len()];
    let mut bound_thrs: Vec<f32> = vec![f32::INFINITY; subs.len()];
    let mut hit_masks: Vec<u32> = vec![0; subs.len()];
    let mut filter_masks: Vec<u32> = vec![0; subs.len()];
    let mut base = 0usize;
    inverted.scan_blocks(ListId(list as u32), |ids| {
        let mut g = 0usize;
        while g < ids.len() {
            let lanes = (ids.len() - g).min(FASTSCAN_BLOCK);
            let mask = reader.load_group(base + g, tile) & low_lanes(lanes);
            if mask != 0 {
                // Pushdown: per-subscriber filter lanes resolve before the
                // batched kernel; a group no subscriber admits skips the
                // kernel, LUT accumulation and bound pruning entirely.
                let mut filter_union = 0u32;
                for (si, &qi) in subs.iter().enumerate() {
                    filter_masks[si] = match &views[qi] {
                        Some(view) => view.lane_mask(&ids[g..g + lanes], mask),
                        None => mask,
                    };
                    filter_union |= filter_masks[si];
                }
                if filter_union == 0 {
                    g += lanes;
                    continue;
                }
                kernels.fastscan16_multi(tile, &luts, &mut accs[..subs.len()]);
                // Prune each subscriber to its published survivors, then
                // resolve the validity bitmap once, only for lanes some
                // subscriber still wants — after the top-k bounds warm up
                // that union is almost always empty.
                let mut union_hits = 0u32;
                for (si, &qi) in subs.iter().enumerate() {
                    let topk = &shortlists[qi];
                    let thr = topk.threshold();
                    if thr.to_bits() != bound_thrs[si].to_bits() {
                        bounds[si] = qts[qi].prune_bound(thr);
                        bound_thrs[si] = thr;
                    }
                    hit_masks[si] = match bounds[si] {
                        Some(b) => kernels.lanes_le16(&accs[si], b) & filter_masks[si],
                        None => 0,
                    };
                    union_hits |= hit_masks[si];
                }
                // Validity is a property of the candidate, not the query:
                // resolve published ∩ valid once and share it.
                let mut valid = 0u32;
                let mut probe = union_hits;
                while probe != 0 {
                    let lane = probe.trailing_zeros() as usize;
                    probe &= probe - 1;
                    if bitmap.test(ids[g + lane].as_usize()) {
                        valid |= 1 << lane;
                    }
                }
                if valid != 0 {
                    for (si, &qi) in subs.iter().enumerate() {
                        let qt = &qts[qi];
                        let topk = &mut shortlists[qi];
                        let mut hits = hit_masks[si] & valid;
                        while hits != 0 {
                            let lane = hits.trailing_zeros() as usize;
                            hits &= hits - 1;
                            let d = qt.to_f32(accs[si][lane]);
                            if topk.would_accept(d) {
                                topk.push(ids[g + lane].as_u64(), d);
                            }
                        }
                    }
                }
            }
            g += lanes;
        }
        base += ids.len();
    });
}

/// Stage 2 of the compressed path: exact distances over the shortlist.
/// Split out so the between-stage deletion guard is directly testable.
fn exact_rerank(
    bitmap: &BitmapReader<'_>,
    vectors: &VectorSnapshot,
    kernels: &KernelSet,
    query: &[f32],
    shortlist: TopK,
    k: usize,
) -> Vec<Neighbor> {
    let mut topk = TopK::new(k);
    for candidate in shortlist.into_sorted_vec() {
        let id = ImageId(candidate.id as u32);
        // Re-check validity: the bitmap words are atomics behind the pinned
        // guard, so an image deleted after the ADC scan admitted it to the
        // shortlist is seen as invalid here and cannot be returned.
        if !bitmap.test(id.as_usize()) {
            continue;
        }
        let Some(v) = vectors.get(id) else { continue };
        topk.push(candidate.id, kernels.squared_l2(query, v.as_slice()));
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
    let vectors = index.vectors().snapshot();
    let mut topk = TopK::new(k);
    index.bitmap().for_each_valid(index.forward().len(), |raw| {
        let id = ImageId(raw as u32);
        if let Some(v) = vectors.get(id) {
            let d = kernels.squared_l2(query, v.as_slice());
            if topk.would_accept(d) {
                topk.push(id.as_u64(), d);
            }
        }
    });
    topk.into_sorted_vec()
}

/// Scans the probed `lists` with the per-list `scan` closure (which feeds
/// a [`TopK`] of capacity `k`). Sequential when `threads <= 1` or the
/// lists are too small to amortize a fan-out; otherwise lists distribute
/// round-robin over scoped threads and per-thread collectors merge. Both
/// routes visit the same ids with the same scoring, so under the total
/// (distance, id) order the merged result is identical to the sequential
/// one.
fn scan_probed_lists<S>(
    inverted: &InvertedIndex,
    lists: &[usize],
    k: usize,
    threads: usize,
    scan: &S,
) -> TopK
where
    S: Fn(usize, &mut TopK) + Sync,
{
    let total: usize = lists
        .iter()
        .map(|&l| inverted.list(ListId(l as u32)).len())
        .sum();
    let threads = effective_threads(threads, lists.len(), total);
    if threads <= 1 {
        let mut topk = TopK::new(k);
        for &list in lists {
            scan(list, &mut topk);
        }
        return topk;
    }
    let mut merged = TopK::new(k);
    crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move |_| {
                    let mut topk = TopK::new(k);
                    for &list in lists.iter().skip(t).step_by(threads) {
                        scan(list, &mut topk);
                    }
                    topk
                })
            })
            .collect();
        for h in handles {
            merged.merge(h.join().expect("scan worker panicked"));
        }
    })
    .expect("scan scope");
    merged
}

/// The thread count a query actually uses: capped so each spawned thread
/// gets at least [`PARALLEL_MIN_PER_THREAD`] candidates (and by the list
/// count — distribution is per-list); see also
/// [`PARALLEL_MIN_CANDIDATES`].
fn effective_threads(configured: usize, num_lists: usize, total_candidates: usize) -> usize {
    if configured <= 1 || total_candidates < PARALLEL_MIN_CANDIDATES {
        1
    } else {
        configured
            .min(num_lists)
            .min(total_candidates / PARALLEL_MIN_PER_THREAD)
            .max(1)
    }
}

/// Block-scans one inverted list into `topk`.
#[inline]
fn scan_one_list<F: Fn(ImageId) -> Option<f32>>(
    inverted: &InvertedIndex,
    list: usize,
    eval: &F,
    topk: &mut TopK,
) {
    inverted.scan_blocks(ListId(list as u32), |ids| {
        for &id in ids {
            if let Some(d) = eval(id) {
                if topk.would_accept(d) {
                    topk.push(id.as_u64(), d);
                }
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Reference paths (differential-test twins) and the benchmark baseline.
// ---------------------------------------------------------------------------

/// Sequential per-id reference implementation of [`ann_search`]: one
/// callback and two lock acquisitions per candidate, same dispatched
/// kernel. Differential tests assert the engine matches this exactly.
///
/// # Panics
///
/// Panics if `k == 0`, `nprobe == 0`, or `query` has the wrong dimension.
pub fn ann_search_reference(
    index: &VisualIndex,
    query: &[f32],
    k: usize,
    nprobe: usize,
) -> Vec<Neighbor> {
    assert!(k > 0, "k must be positive");
    assert!(nprobe > 0, "nprobe must be positive");
    assert_eq!(query.len(), index.config().dim, "query dimension mismatch");
    let lists = index.quantizer().assign_multi(query, nprobe);
    let mut topk = TopK::new(k);
    for list in lists {
        index.inverted_internal().scan(ListId(list as u32), |id| {
            if !index.bitmap().test(id.as_usize()) {
                return; // logically deleted
            }
            if let Some(d) = index
                .vectors()
                .with(id, |v| squared_l2(query, v.as_slice()))
            {
                topk.push(id.as_u64(), d);
            }
        });
    }
    topk.into_sorted_vec()
}

/// Post-filter reference twin of [`filtered_ann_search`]: computes the
/// distance for **every** valid candidate (the full kernel cost the
/// pushdown avoids) and only then discards non-matching ones, before
/// top-k insertion. Runs the same escalation schedule — both sides hold
/// identical top-k contents at every round boundary, so they widen
/// identically — and differential tests assert bit-identical results.
///
/// # Panics
///
/// Panics if `k == 0`, `nprobe == 0`, or `query` has the wrong dimension.
pub fn filtered_ann_search_reference(
    index: &VisualIndex,
    query: &[f32],
    k: usize,
    nprobe: usize,
    filter: &FilterSpec,
) -> Vec<Neighbor> {
    assert!(k > 0, "k must be positive");
    assert!(nprobe > 0, "nprobe must be positive");
    assert_eq!(query.len(), index.config().dim, "query dimension mismatch");
    let qf = QueryFilter::new(filter, index.filters(), index.forward());
    let view = qf.view();
    let kernels = simd::active();
    let bitmap = index.bitmap().reader();
    let vectors = index.vectors().snapshot();
    let inverted = index.inverted_internal();
    let eval = |id: ImageId| {
        if !bitmap.test(id.as_usize()) {
            return None;
        }
        let v = vectors.get(id)?;
        // Post-filter: score first, discard after.
        let d = kernels.squared_l2(query, v.as_slice());
        view.admits(id.as_usize()).then_some(d)
    };
    let scan = |list: usize, topk: &mut TopK| scan_one_list(inverted, list, &eval, topk);
    let lists = index.quantizer().assign_multi(query, nprobe);
    let mut topk = scan_probed_lists(inverted, &lists, k, 1, &scan);
    if !filter.is_unconstrained() {
        escalate_filtered(index, query, k, &lists, 1, None, &mut topk, &scan);
    }
    topk.into_sorted_vec()
}

/// Post-filter reference twin of [`filtered_compressed_search`]: stage 1
/// computes the (quantized) ADC distance for every valid candidate and
/// post-filters before shortlist insertion; same escalation schedule,
/// same stage-2 rerank. Differential tests assert bit-identical results
/// on both kernel legs.
///
/// # Panics
///
/// Panics if PQ mode is disabled, any count is zero, or `query` has the
/// wrong dimension.
pub fn filtered_compressed_search_reference(
    index: &VisualIndex,
    query: &[f32],
    k: usize,
    nprobe: usize,
    rerank_factor: usize,
    filter: &FilterSpec,
) -> Vec<Neighbor> {
    assert!(k > 0, "k must be positive");
    assert!(nprobe > 0, "nprobe must be positive");
    assert!(rerank_factor > 0, "rerank_factor must be positive");
    assert_eq!(query.len(), index.config().dim, "query dimension mismatch");
    let pq = index
        .pq_store()
        .expect("compressed search requires config.pq_subspaces (see IndexConfig)");
    let qf = QueryFilter::new(filter, index.filters(), index.forward());
    let view = qf.view();
    let bitmap = index.bitmap().reader();
    let inverted = index.inverted_internal();
    let lists = index.quantizer().assign_multi(query, nprobe);
    let shortlist_k = k.saturating_mul(rerank_factor).max(k);
    let shortlist = if pq.is_four_bit() {
        let qt = pq.quantized_adc_table(query);
        let scan = |list: usize, topk: &mut TopK| {
            inverted.scan(ListId(list as u32), |id| {
                if !bitmap.test(id.as_usize()) {
                    return;
                }
                if let Some(d) = pq.quantized_distance(&qt, id) {
                    if view.admits(id.as_usize()) {
                        topk.push(id.as_u64(), d);
                    }
                }
            });
        };
        let mut topk = TopK::new(shortlist_k);
        for &list in &lists {
            scan(list, &mut topk);
        }
        if !filter.is_unconstrained() {
            escalate_filtered(index, query, k, &lists, 1, None, &mut topk, &scan);
        }
        topk
    } else {
        let table = pq.adc_table(query);
        let scan = |list: usize, topk: &mut TopK| {
            inverted.scan(ListId(list as u32), |id| {
                if !bitmap.test(id.as_usize()) {
                    return;
                }
                if let Some(d) = pq.distance(&table, id) {
                    if view.admits(id.as_usize()) {
                        topk.push(id.as_u64(), d);
                    }
                }
            });
        };
        let mut topk = TopK::new(shortlist_k);
        for &list in &lists {
            scan(list, &mut topk);
        }
        if !filter.is_unconstrained() {
            escalate_filtered(index, query, k, &lists, 1, None, &mut topk, &scan);
        }
        topk
    };
    let kernels = simd::active();
    let vectors = index.vectors().snapshot();
    exact_rerank(&bitmap, &vectors, kernels, query, shortlist, k)
}

/// Exact filtered top-k over every valid image admitted by `filter` —
/// the ground truth for the filtered latency/recall frontier.
///
/// # Panics
///
/// Panics if `k == 0` or `query` has the wrong dimension.
pub fn filtered_brute_force(
    index: &VisualIndex,
    query: &[f32],
    k: usize,
    filter: &FilterSpec,
) -> Vec<Neighbor> {
    assert!(k > 0, "k must be positive");
    assert_eq!(query.len(), index.config().dim, "query dimension mismatch");
    let qf = QueryFilter::new(filter, index.filters(), index.forward());
    let view = qf.view();
    let kernels = simd::active();
    let vectors = index.vectors().snapshot();
    let mut topk = TopK::new(k);
    index.bitmap().for_each_valid(index.forward().len(), |raw| {
        if !view.admits(raw) {
            return;
        }
        let id = ImageId(raw as u32);
        if let Some(v) = vectors.get(id) {
            let d = kernels.squared_l2(query, v.as_slice());
            if topk.would_accept(d) {
                topk.push(id.as_u64(), d);
            }
        }
    });
    topk.into_sorted_vec()
}

/// Sequential per-id reference implementation of [`compressed_search`].
///
/// # Panics
///
/// Panics if PQ mode is disabled, any count is zero, or `query` has the
/// wrong dimension.
pub fn compressed_search_reference(
    index: &VisualIndex,
    query: &[f32],
    k: usize,
    nprobe: usize,
    rerank_factor: usize,
) -> Vec<Neighbor> {
    assert!(k > 0, "k must be positive");
    assert!(nprobe > 0, "nprobe must be positive");
    assert!(rerank_factor > 0, "rerank_factor must be positive");
    assert_eq!(query.len(), index.config().dim, "query dimension mismatch");
    let pq = index
        .pq_store()
        .expect("compressed search requires config.pq_subspaces (see IndexConfig)");

    // Per-id scoring twin of stage 1: in 4-bit mode the quantized per-id
    // distance is bit-exact with a fast-scan kernel lane, so the engine
    // and this loop push identical (id, f32) sequences in identical
    // order.
    let lists = index.quantizer().assign_multi(query, nprobe);
    let mut shortlist = TopK::new(k.saturating_mul(rerank_factor).max(k));
    if pq.is_four_bit() {
        let qt = pq.quantized_adc_table(query);
        for list in lists {
            index.inverted_internal().scan(ListId(list as u32), |id| {
                if !index.bitmap().test(id.as_usize()) {
                    return;
                }
                if let Some(d) = pq.quantized_distance(&qt, id) {
                    shortlist.push(id.as_u64(), d);
                }
            });
        }
    } else {
        let table = pq.adc_table(query);
        for list in lists {
            index.inverted_internal().scan(ListId(list as u32), |id| {
                if !index.bitmap().test(id.as_usize()) {
                    return;
                }
                if let Some(d) = pq.distance(&table, id) {
                    shortlist.push(id.as_u64(), d);
                }
            });
        }
    }

    let mut topk = TopK::new(k);
    for candidate in shortlist.into_sorted_vec() {
        let id = ImageId(candidate.id as u32);
        if !index.bitmap().test(id.as_usize()) {
            continue; // deleted between stages
        }
        if let Some(d) = index
            .vectors()
            .with(id, |v| squared_l2(query, v.as_slice()))
        {
            topk.push(candidate.id, d);
        }
    }
    topk.into_sorted_vec()
}

/// Sequential per-id reference implementation of [`brute_force`].
///
/// # Panics
///
/// Panics if `k == 0` or `query` has the wrong dimension.
pub fn brute_force_reference(index: &VisualIndex, query: &[f32], k: usize) -> Vec<Neighbor> {
    assert!(k > 0, "k must be positive");
    assert_eq!(query.len(), index.config().dim, "query dimension mismatch");
    let mut topk = TopK::new(k);
    for raw in 0..index.forward().len() {
        let id = ImageId(raw as u32);
        if !index.bitmap().test(raw) {
            continue;
        }
        if let Some(d) = index
            .vectors()
            .with(id, |v| squared_l2(query, v.as_slice()))
        {
            topk.push(id.as_u64(), d);
        }
    }
    topk.into_sorted_vec()
}

/// The pre-engine scan kept as the benchmark baseline: per-id callbacks,
/// two lock acquisitions per candidate, and the forced **scalar** kernel
/// regardless of CPU features. Not a serving path — the `searcher-scan`
/// experiment measures the engine's speedup against this.
///
/// # Panics
///
/// Panics if `k == 0`, `nprobe == 0`, or `query` has the wrong dimension.
pub fn ann_search_scalar_baseline(
    index: &VisualIndex,
    query: &[f32],
    k: usize,
    nprobe: usize,
) -> Vec<Neighbor> {
    assert!(k > 0, "k must be positive");
    assert!(nprobe > 0, "nprobe must be positive");
    assert_eq!(query.len(), index.config().dim, "query dimension mismatch");
    let kernels = simd::scalar();
    let lists = index.quantizer().assign_multi(query, nprobe);
    let mut topk = TopK::new(k);
    for list in lists {
        index.inverted_internal().scan(ListId(list as u32), |id| {
            if !index.bitmap().test(id.as_usize()) {
                return;
            }
            if let Some(d) = index
                .vectors()
                .with(id, |v| kernels.squared_l2(query, v.as_slice()))
            {
                topk.push(id.as_u64(), d);
            }
        });
    }
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
    use super::*;
    use crate::config::IndexConfig;
    use jdvs_storage::model::{ProductAttributes, ProductId};
    use jdvs_vector::rng::Xoshiro256;
    use jdvs_vector::Vector;

    fn build_index(n: usize, num_lists: usize, seed: u64) -> (VisualIndex, Vec<Vector>) {
        let mut rng = Xoshiro256::seed_from(seed);
        let data: Vec<Vector> = (0..n)
            .map(|_| (0..8).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let config = IndexConfig {
            dim: 8,
            num_lists,
            initial_list_capacity: 8,
            ..Default::default()
        };
        let index = VisualIndex::bootstrap(config, &data);
        for (i, v) in data.iter().enumerate() {
            index
                .insert(
                    v.clone(),
                    ProductAttributes::new(ProductId(i as u64), 0, 0, 0, format!("u{i}")),
                )
                .unwrap();
        }
        index.flush();
        (index, data)
    }

    #[test]
    fn full_probe_equals_brute_force() {
        let (index, data) = build_index(300, 8, 3);
        for q in data.iter().take(20) {
            let ann = ann_search(&index, q.as_slice(), 5, 8);
            let exact = brute_force(&index, q.as_slice(), 5);
            assert_eq!(recall(&ann, &exact), 1.0);
        }
    }

    #[test]
    fn recall_grows_with_nprobe() {
        let (index, data) = build_index(500, 16, 5);
        let mut totals = Vec::new();
        for nprobe in [1usize, 4, 16] {
            let mut total = 0.0;
            for q in data.iter().take(30) {
                let ann = ann_search(&index, q.as_slice(), 10, nprobe);
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
        let (index, data) = build_index(200, 4, 7);
        let hits = ann_search(&index, data[0].as_slice(), 10, 4);
        for w in hits.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn deleted_images_are_skipped_by_both_paths() {
        let (index, data) = build_index(50, 4, 9);
        let key = jdvs_storage::model::ImageKey::from_url("u0");
        index.invalidate(key, "u0").unwrap();
        let ann = ann_search(&index, data[0].as_slice(), 50, 4);
        let exact = brute_force(&index, data[0].as_slice(), 50);
        assert!(ann.iter().all(|n| n.id != 0));
        assert!(exact.iter().all(|n| n.id != 0));
        assert_eq!(ann.len(), 49);
    }

    #[test]
    fn engine_matches_reference_paths_exactly() {
        let (index, data) = build_index(400, 8, 11);
        // Delete a spread of images so validity filtering is exercised.
        for i in (0..400).step_by(7) {
            let key = jdvs_storage::model::ImageKey::from_url(&format!("u{i}"));
            index.invalidate(key, &format!("u{i}")).unwrap();
        }
        for q in data.iter().take(25) {
            for nprobe in [1usize, 3, 8] {
                let engine = ann_search(&index, q.as_slice(), 10, nprobe);
                let reference = ann_search_reference(&index, q.as_slice(), 10, nprobe);
                assert_eq!(engine, reference, "nprobe = {nprobe}");
            }
            assert_eq!(
                brute_force(&index, q.as_slice(), 10),
                brute_force_reference(&index, q.as_slice(), 10)
            );
        }
    }

    #[test]
    fn parallel_scan_matches_sequential_exactly() {
        // Big enough that the per-thread work gate admits a real fan-out
        // (>= 2 * PARALLEL_MIN_PER_THREAD probed candidates).
        let (index, data) = build_index(2 * PARALLEL_MIN_PER_THREAD + 500, 4, 13);
        let total = index.inverted_internal().total_entries();
        assert!(
            effective_threads(4, 4, total) >= 2,
            "test must exercise a genuine fan-out (total = {total})"
        );
        for q in data.iter().take(5) {
            let sequential = ann_search_with_threads(&index, q.as_slice(), 10, 4, 1);
            for threads in [2usize, 3, 8] {
                let parallel = ann_search_with_threads(&index, q.as_slice(), 10, 4, threads);
                assert_eq!(sequential, parallel, "threads = {threads}");
            }
        }
    }

    #[test]
    fn small_queries_stay_sequential() {
        assert_eq!(effective_threads(4, 8, PARALLEL_MIN_CANDIDATES - 1), 1);
        // Regression guard (searcher-scan bench, 30k images): above the
        // absolute floor but with too little work to pay for even a second
        // thread, the query must stay sequential.
        assert_eq!(effective_threads(4, 8, PARALLEL_MIN_CANDIDATES), 1);
        assert_eq!(effective_threads(4, 8, 3750), 1, "bench-scale probe");
        assert_eq!(effective_threads(4, 8, 2 * PARALLEL_MIN_PER_THREAD), 2);
        assert_eq!(
            effective_threads(4, 8, 1 << 20),
            4,
            "ample work: full fan-out"
        );
        assert_eq!(effective_threads(1, 8, 1 << 20), 1, "knob off");
        assert_eq!(effective_threads(8, 3, 1 << 20), 3, "capped by lists");
    }

    #[test]
    fn missing_vector_is_skipped_not_ranked_at_infinity() {
        // Regression: an id published in an inverted list whose feature
        // vector never landed used to enter the heap at f32::INFINITY and
        // could surface whenever fewer than k real candidates existed.
        let (index, data) = build_index(5, 1, 17);
        let phantom = ImageId(4000);
        index.inverted_internal().append(ListId(0), phantom);
        index.bitmap().set(phantom.as_usize());
        index.inverted_internal().flush();
        for result in [
            ann_search(&index, data[0].as_slice(), 50, 1),
            ann_search_reference(&index, data[0].as_slice(), 50, 1),
        ] {
            assert_eq!(result.len(), 5, "only real images are returned");
            assert!(result.iter().all(|n| n.id != phantom.as_u64()));
            assert!(result.iter().all(|n| n.distance.is_finite()));
        }
    }

    #[test]
    fn rerank_drops_images_deleted_between_stages() {
        let (index, data) = build_index(30, 2, 19);
        let kernels = simd::active();
        let bitmap = index.bitmap().reader();
        let vectors = index.vectors().snapshot();
        // Stage 1 admitted ids 0 and 1 to the shortlist...
        let mut shortlist = TopK::new(4);
        shortlist.push(0, 0.5);
        shortlist.push(1, 0.7);
        // ...then image 0 is deleted before the rerank runs.
        index.bitmap().clear(0);
        let got = exact_rerank(&bitmap, &vectors, kernels, data[0].as_slice(), shortlist, 4);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].id, 1, "the deleted image cannot resurface");
    }

    #[test]
    fn compressed_engine_matches_reference() {
        let mut rng = Xoshiro256::seed_from(23);
        let data: Vec<Vector> = (0..500)
            .map(|_| (0..8).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let config = IndexConfig {
            dim: 8,
            num_lists: 4,
            initial_list_capacity: 8,
            pq_subspaces: Some(4),
            ..Default::default()
        };
        let index = VisualIndex::bootstrap(config, &data);
        for (i, v) in data.iter().enumerate() {
            index
                .insert(
                    v.clone(),
                    ProductAttributes::new(ProductId(i as u64), 0, 0, 0, format!("u{i}")),
                )
                .unwrap();
        }
        index.flush();
        for i in (0..500).step_by(9) {
            let key = jdvs_storage::model::ImageKey::from_url(&format!("u{i}"));
            index.invalidate(key, &format!("u{i}")).unwrap();
        }
        for q in data.iter().take(15) {
            let engine = compressed_search(&index, q.as_slice(), 10, 4, 3);
            let reference = compressed_search_reference(&index, q.as_slice(), 10, 4, 3);
            assert_eq!(engine, reference);
        }
    }

    /// Satellite differential: the two-stage 4-bit fast-scan engine must
    /// return top-k identical to the per-id reference at the default
    /// `rerank_factor`, deletions included.
    #[test]
    fn compressed_engine_matches_reference_four_bit() {
        let mut rng = Xoshiro256::seed_from(31);
        let data: Vec<Vector> = (0..600)
            .map(|_| (0..8).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let config = IndexConfig {
            dim: 8,
            num_lists: 4,
            initial_list_capacity: 8,
            pq_subspaces: Some(8),
            pq_bits: 4,
            ..Default::default()
        };
        let rerank = config.rerank_factor;
        let index = VisualIndex::bootstrap(config, &data);
        for (i, v) in data.iter().enumerate() {
            index
                .insert(
                    v.clone(),
                    ProductAttributes::new(ProductId(i as u64), 0, 0, 0, format!("u{i}")),
                )
                .unwrap();
        }
        index.flush();
        for i in (0..600).step_by(9) {
            let key = jdvs_storage::model::ImageKey::from_url(&format!("u{i}"));
            index.invalidate(key, &format!("u{i}")).unwrap();
        }
        for q in data.iter().take(15) {
            let engine = compressed_search(&index, q.as_slice(), 10, 4, rerank);
            let reference = compressed_search_reference(&index, q.as_slice(), 10, 4, rerank);
            assert_eq!(engine, reference);
        }
    }

    /// The re-rank contract: with full probing and a shortlist that covers
    /// everything, the 4-bit path's final top-k is *exact* — quantization
    /// error lives only in the shortlist ordering.
    #[test]
    fn four_bit_full_overfetch_is_exact() {
        let mut rng = Xoshiro256::seed_from(37);
        let data: Vec<Vector> = (0..200)
            .map(|_| (0..8).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let config = IndexConfig {
            dim: 8,
            num_lists: 2,
            initial_list_capacity: 8,
            pq_subspaces: Some(8),
            pq_bits: 4,
            ..Default::default()
        };
        let index = VisualIndex::bootstrap(config, &data);
        for (i, v) in data.iter().enumerate() {
            index
                .insert(
                    v.clone(),
                    ProductAttributes::new(ProductId(i as u64), 0, 0, 0, format!("u{i}")),
                )
                .unwrap();
        }
        index.flush();
        for q in data.iter().take(10) {
            let compressed = compressed_search(&index, q.as_slice(), 5, 2, 200);
            let exact = brute_force(&index, q.as_slice(), 5);
            assert_eq!(recall(&compressed, &exact), 1.0);
        }
    }

    fn build_pq_index(n: usize, seed: u64, pq_bits: u8) -> (VisualIndex, Vec<Vector>) {
        let mut rng = Xoshiro256::seed_from(seed);
        let data: Vec<Vector> = (0..n)
            .map(|_| (0..8).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let config = IndexConfig {
            dim: 8,
            num_lists: 4,
            initial_list_capacity: 8,
            pq_subspaces: Some(8),
            pq_bits,
            ..Default::default()
        };
        let index = VisualIndex::bootstrap(config, &data);
        for (i, v) in data.iter().enumerate() {
            index
                .insert(
                    v.clone(),
                    ProductAttributes::new(ProductId(i as u64), 0, 0, 0, format!("u{i}")),
                )
                .unwrap();
        }
        index.flush();
        for i in (0..n).step_by(9) {
            let key = jdvs_storage::model::ImageKey::from_url(&format!("u{i}"));
            index.invalidate(key, &format!("u{i}")).unwrap();
        }
        (index, data)
    }

    /// The race the real-time indexer can set up between a scanner's two
    /// reads, staged deterministically: a code is published at position
    /// `len` of a list whose id block (as the scanner snapshots it) still
    /// ends at `len`. All three block scanners must ignore that lane
    /// rather than index one past the id block.
    #[test]
    fn code_published_past_the_id_snapshot_is_ignored() {
        let (index, data) = build_pq_index(300, 47, 4);
        let category = FilterSpec::by_category(0);
        let search_all = |q: &[f32]| {
            let multi = multi_compressed_search(
                &index,
                &[MultiQuery {
                    features: q,
                    k: 10,
                    nprobe: 4,
                    filter: None,
                }],
                3,
            );
            (
                compressed_search(&index, q, 10, 4, 3),
                filtered_compressed_search(&index, q, 10, 4, 3, &category),
                multi,
            )
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

    /// The batched 4-bit engine must return, for every batch member, the
    /// exact result of the sequential per-id reference — across batch
    /// sizes and mixed per-member k/nprobe.
    #[test]
    fn multi_compressed_matches_reference_per_query() {
        let (index, data) = build_pq_index(600, 41, 4);
        for batch_size in [1usize, 2, 3, 5, 8, 12] {
            let queries: Vec<MultiQuery<'_>> = data
                .iter()
                .take(batch_size)
                .enumerate()
                .map(|(i, q)| MultiQuery {
                    features: q.as_slice(),
                    k: 3 + i % 5,
                    nprobe: 1 + i % 4,
                    filter: None,
                })
                .collect();
            let batched = multi_compressed_search(&index, &queries, 3);
            assert_eq!(batched.len(), batch_size);
            for (q, got) in queries.iter().zip(&batched) {
                let reference = compressed_search_reference(&index, q.features, q.k, q.nprobe, 3);
                assert_eq!(got, &reference, "batch_size = {batch_size}");
            }
        }
    }

    /// Same contract for the classic 8-bit ADC path.
    #[test]
    fn multi_compressed_matches_reference_eight_bit() {
        let (index, data) = build_pq_index(500, 43, 8);
        let queries: Vec<MultiQuery<'_>> = data
            .iter()
            .take(6)
            .map(|q| MultiQuery {
                features: q.as_slice(),
                k: 10,
                nprobe: 3,
                filter: None,
            })
            .collect();
        for (q, got) in queries
            .iter()
            .zip(multi_compressed_search(&index, &queries, 4))
        {
            let reference = compressed_search_reference(&index, q.features, q.k, q.nprobe, 4);
            assert_eq!(got, reference);
        }
    }

    /// The batched raw path against the per-id reference.
    #[test]
    fn multi_ann_matches_reference_per_query() {
        let (index, data) = build_index(400, 8, 47);
        for i in (0..400).step_by(7) {
            let key = jdvs_storage::model::ImageKey::from_url(&format!("u{i}"));
            index.invalidate(key, &format!("u{i}")).unwrap();
        }
        for batch_size in [1usize, 4, 9] {
            let queries: Vec<MultiQuery<'_>> = data
                .iter()
                .take(batch_size)
                .enumerate()
                .map(|(i, q)| MultiQuery {
                    features: q.as_slice(),
                    k: 5 + i % 6,
                    nprobe: 1 + i % 8,
                    filter: None,
                })
                .collect();
            for (q, got) in queries.iter().zip(multi_ann_search(&index, &queries)) {
                let reference = ann_search_reference(&index, q.features, q.k, q.nprobe);
                assert_eq!(got, reference, "batch_size = {batch_size}");
            }
        }
    }

    /// A batch of one is exactly the single-query engine call.
    #[test]
    fn multi_of_one_equals_single_query_paths() {
        let (index, data) = build_pq_index(300, 53, 4);
        let q = MultiQuery {
            features: data[0].as_slice(),
            k: 10,
            nprobe: 3,
            filter: None,
        };
        assert_eq!(
            multi_compressed_search(&index, &[q], 3),
            vec![compressed_search_with_threads(
                &index, q.features, 10, 3, 3, 1
            )]
        );
        assert_eq!(
            multi_ann_search(&index, &[q]),
            vec![ann_search_with_threads(&index, q.features, 10, 3, 1)]
        );
    }

    #[test]
    fn multi_empty_batch_is_empty() {
        let (index, _) = build_pq_index(100, 59, 4);
        assert!(multi_compressed_search(&index, &[], 3).is_empty());
        assert!(multi_ann_search(&index, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "query dimension mismatch")]
    fn multi_wrong_dim_panics() {
        let (index, _) = build_index(10, 2, 1);
        multi_ann_search(
            &index,
            &[MultiQuery {
                features: &[0.0; 4],
                k: 1,
                nprobe: 1,
                filter: None,
            }],
        );
    }

    #[test]
    fn scalar_baseline_agrees_on_ids_with_engine() {
        // Distances may differ in the last ulp between kernels, but on
        // well-separated random data the returned id set is stable.
        let (index, data) = build_index(300, 4, 29);
        for q in data.iter().take(10) {
            let engine: Vec<u64> = ann_search(&index, q.as_slice(), 5, 4)
                .into_iter()
                .map(|n| n.id)
                .collect();
            let baseline: Vec<u64> = ann_search_scalar_baseline(&index, q.as_slice(), 5, 4)
                .into_iter()
                .map(|n| n.id)
                .collect();
            assert_eq!(engine, baseline);
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
        let (index, _) = build_index(10, 2, 1);
        ann_search(&index, &[0.0; 4], 1, 1);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let (index, data) = build_index(10, 2, 1);
        ann_search(&index, data[0].as_slice(), 0, 1);
    }

    // -----------------------------------------------------------------
    // Filtered search: pushdown vs post-filter reference differentials.
    // -----------------------------------------------------------------

    /// Deterministic attribute assignment for filtered-search tests:
    /// category 9 is rare (~1% of images), categories 0..5 common;
    /// about a third of images are out of stock.
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

    fn build_attr_index(
        n: usize,
        num_lists: usize,
        seed: u64,
        pq_bits: Option<u8>,
        escalation: usize,
    ) -> (VisualIndex, Vec<Vector>) {
        let mut rng = Xoshiro256::seed_from(seed);
        let data: Vec<Vector> = (0..n)
            .map(|_| (0..8).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let config = IndexConfig {
            dim: 8,
            num_lists,
            initial_list_capacity: 8,
            pq_subspaces: pq_bits.map(|_| 8),
            pq_bits: pq_bits.unwrap_or(8),
            nprobe_escalation: escalation,
            ..Default::default()
        };
        let index = VisualIndex::bootstrap(config, &data);
        for (i, v) in data.iter().enumerate() {
            index.insert(v.clone(), test_attrs(i)).unwrap();
        }
        index.flush();
        for i in (0..n).step_by(11) {
            let key = jdvs_storage::model::ImageKey::from_url(&format!("u{i}"));
            index.invalidate(key, &format!("u{i}")).unwrap();
        }
        (index, data)
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

    /// The raw filtered engine (pushdown + escalation) must be
    /// bit-identical to the post-filter reference across specs, probe
    /// widths and deletions.
    #[test]
    fn filtered_matches_post_filter_reference() {
        let (index, data) = build_attr_index(600, 8, 61, None, 8);
        for spec in test_specs() {
            for q in data.iter().take(8) {
                for nprobe in [1usize, 3, 8] {
                    let engine = filtered_ann_search(&index, q.as_slice(), 10, nprobe, &spec);
                    let reference =
                        filtered_ann_search_reference(&index, q.as_slice(), 10, nprobe, &spec);
                    assert_eq!(engine, reference, "spec {spec:?} nprobe {nprobe}");
                    for hit in &engine {
                        let n = index
                            .forward()
                            .numeric(ImageId(hit.id as u32))
                            .expect("hit has a record");
                        assert!(spec.matches(&n), "spec {spec:?} admitted id {}", hit.id);
                    }
                }
            }
        }
    }

    /// Same contract on the 4-bit fast-scan leg: group skipping via the
    /// filter lane mask must not change the candidate set.
    #[test]
    fn filtered_compressed_matches_post_filter_reference_four_bit() {
        let (index, data) = build_attr_index(600, 8, 67, Some(4), 8);
        for spec in test_specs() {
            for q in data.iter().take(6) {
                for nprobe in [1usize, 4] {
                    let engine =
                        filtered_compressed_search(&index, q.as_slice(), 10, nprobe, 3, &spec);
                    let reference = filtered_compressed_search_reference(
                        &index,
                        q.as_slice(),
                        10,
                        nprobe,
                        3,
                        &spec,
                    );
                    assert_eq!(engine, reference, "spec {spec:?} nprobe {nprobe}");
                }
            }
        }
    }

    /// Same contract on the classic 8-bit ADC leg.
    #[test]
    fn filtered_compressed_matches_post_filter_reference_eight_bit() {
        let (index, data) = build_attr_index(500, 8, 71, Some(8), 8);
        for spec in test_specs() {
            for q in data.iter().take(6) {
                let engine = filtered_compressed_search(&index, q.as_slice(), 10, 3, 3, &spec);
                let reference =
                    filtered_compressed_search_reference(&index, q.as_slice(), 10, 3, 3, &spec);
                assert_eq!(engine, reference, "spec {spec:?}");
            }
        }
    }

    /// An unconstrained spec must take the plain unfiltered path exactly.
    #[test]
    fn filtered_unconstrained_equals_unfiltered() {
        let (index, data) = build_attr_index(300, 4, 73, Some(4), 8);
        let spec = FilterSpec::none();
        for q in data.iter().take(5) {
            assert_eq!(
                filtered_ann_search(&index, q.as_slice(), 10, 2, &spec),
                ann_search(&index, q.as_slice(), 10, 2),
            );
            assert_eq!(
                filtered_compressed_search(&index, q.as_slice(), 10, 2, 3, &spec),
                compressed_search(&index, q.as_slice(), 10, 2, 3),
            );
        }
    }

    /// With full probing the filtered engine is exact against the
    /// filtered brute force.
    #[test]
    fn filtered_full_probe_equals_filtered_brute_force() {
        let (index, data) = build_attr_index(400, 8, 79, None, 0);
        for spec in [FilterSpec::by_category(2), FilterSpec::none().in_stock()] {
            for q in data.iter().take(8) {
                let ann = filtered_ann_search(&index, q.as_slice(), 5, 8, &spec);
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

        let (escalating, data) = build_attr_index(n, 16, 83, None, 16);
        let (capped, _) = build_attr_index(n, 16, 83, None, 0);
        let mut ever_underfull = false;
        for q in data.iter().take(10) {
            let wide = filtered_ann_search(&escalating, q.as_slice(), k, 1, &spec);
            assert_eq!(wide.len(), k, "escalation must fill top-k");
            assert_eq!(
                wide,
                filtered_ann_search_reference(&escalating, q.as_slice(), k, 1, &spec),
            );
            let narrow = filtered_ann_search(&capped, q.as_slice(), k, 1, &spec);
            ever_underfull |= narrow.len() < k;
        }
        assert!(
            ever_underfull,
            "without escalation a 1-list probe should miss at ~1% selectivity"
        );
    }

    /// Budget-aware escalation: a deadline already in the past stops the
    /// widening before its first round, so the (possibly underfull) base
    /// top-k comes back on time — exactly the escalation-disabled result —
    /// while a generous deadline escalates like the unbudgeted path.
    #[test]
    fn near_expired_budget_skips_escalation() {
        let n = 2000;
        let spec = FilterSpec::by_category(9); // ~1% of images
        let k = 10;
        let (index, data) = build_attr_index(n, 16, 83, None, 16);
        let (capped, _) = build_attr_index(n, 16, 83, None, 0);
        let mut ever_underfull = false;
        for q in data.iter().take(10) {
            let expired = Some(Instant::now() - Duration::from_millis(5));
            let hurried =
                filtered_ann_search_with_budget(&index, q.as_slice(), k, 1, &spec, expired);
            assert_eq!(
                hurried,
                filtered_ann_search(&capped, q.as_slice(), k, 1, &spec),
                "expired budget must return the base-probe result unchanged"
            );
            ever_underfull |= hurried.len() < k;
            let relaxed = Some(Instant::now() + Duration::from_secs(60));
            assert_eq!(
                filtered_ann_search_with_budget(&index, q.as_slice(), k, 1, &spec, relaxed),
                filtered_ann_search(&index, q.as_slice(), k, 1, &spec),
                "a generous budget must not change the escalated result"
            );
        }
        assert!(
            ever_underfull,
            "the expired budget should have cut escalation short at ~1% selectivity"
        );
    }

    /// The compressed twin of [`near_expired_budget_skips_escalation`].
    #[test]
    fn near_expired_budget_skips_escalation_compressed() {
        let spec = FilterSpec::by_category(9);
        let k = 10;
        let (index, data) = build_attr_index(2000, 16, 83, Some(4), 16);
        let (capped, _) = build_attr_index(2000, 16, 83, Some(4), 0);
        for q in data.iter().take(5) {
            let expired = Some(Instant::now() - Duration::from_millis(5));
            assert_eq!(
                filtered_compressed_search_with_budget(
                    &index,
                    q.as_slice(),
                    k,
                    1,
                    3,
                    &spec,
                    expired
                ),
                filtered_compressed_search(&capped, q.as_slice(), k, 1, 3, &spec),
            );
            let relaxed = Some(Instant::now() + Duration::from_secs(60));
            assert_eq!(
                filtered_compressed_search_with_budget(
                    &index,
                    q.as_slice(),
                    k,
                    1,
                    3,
                    &spec,
                    relaxed
                ),
                filtered_compressed_search(&index, q.as_slice(), k, 1, 3, &spec),
            );
        }
    }

    /// Batched raw search with distinct per-member filters must match
    /// each member's sequential filtered twin bit-for-bit.
    #[test]
    fn multi_filtered_matches_reference_per_member() {
        let (index, data) = build_attr_index(600, 8, 89, None, 8);
        let specs = test_specs();
        let queries: Vec<MultiQuery<'_>> = data
            .iter()
            .take(specs.len())
            .enumerate()
            .map(|(i, q)| MultiQuery {
                features: q.as_slice(),
                k: 4 + i % 5,
                nprobe: 1 + i % 4,
                filter: (i % 3 != 0).then_some(&specs[i]),
            })
            .collect();
        for (q, got) in queries.iter().zip(multi_ann_search(&index, &queries)) {
            let spec_owned;
            let spec = match q.filter {
                Some(s) => s,
                None => {
                    spec_owned = FilterSpec::none();
                    &spec_owned
                }
            };
            let reference = filtered_ann_search_reference(&index, q.features, q.k, q.nprobe, spec);
            assert_eq!(got, reference, "spec {spec:?}");
        }
    }

    /// Batched 4-bit compressed search with distinct per-member filters.
    #[test]
    fn multi_filtered_compressed_matches_reference_four_bit() {
        let (index, data) = build_attr_index(600, 8, 97, Some(4), 8);
        let specs = test_specs();
        let queries: Vec<MultiQuery<'_>> = data
            .iter()
            .take(specs.len())
            .enumerate()
            .map(|(i, q)| MultiQuery {
                features: q.as_slice(),
                k: 4 + i % 4,
                nprobe: 1 + i % 3,
                filter: (i % 4 != 3).then_some(&specs[i]),
            })
            .collect();
        for (q, got) in queries
            .iter()
            .zip(multi_compressed_search(&index, &queries, 3))
        {
            let spec_owned;
            let spec = match q.filter {
                Some(s) => s,
                None => {
                    spec_owned = FilterSpec::none();
                    &spec_owned
                }
            };
            let reference =
                filtered_compressed_search_reference(&index, q.features, q.k, q.nprobe, 3, spec);
            assert_eq!(got, reference, "spec {spec:?}");
        }
    }

    /// Batched 8-bit compressed search with distinct per-member filters.
    #[test]
    fn multi_filtered_compressed_matches_reference_eight_bit() {
        let (index, data) = build_attr_index(500, 8, 101, Some(8), 8);
        let specs = test_specs();
        let queries: Vec<MultiQuery<'_>> = data
            .iter()
            .take(specs.len())
            .enumerate()
            .map(|(i, q)| MultiQuery {
                features: q.as_slice(),
                k: 5,
                nprobe: 2,
                filter: Some(&specs[i]),
            })
            .collect();
        for (q, got) in queries
            .iter()
            .zip(multi_compressed_search(&index, &queries, 3))
        {
            let spec = q.filter.unwrap();
            let reference =
                filtered_compressed_search_reference(&index, q.features, q.k, q.nprobe, 3, spec);
            assert_eq!(got, reference, "spec {spec:?}");
        }
    }
}
