//! Sequential per-id oracles for [`super::execute`].
//!
//! Each reference visits the probed lists one id at a time through the
//! per-id list walk, takes the validity and store locks per candidate,
//! **scores every valid candidate first and applies the filter after**
//! (the full kernel cost the engine's pushdown avoids), and pushes
//! straight into a [`TopK`] without threshold pruning. They use the same
//! dispatched kernels as the engine, so differential tests can demand
//! bit-identical results — and they call no engine code: neither
//! [`super::execute`] nor a scanner, only the pure escalation schedule
//! ([`super::escalation_step`]), so the differential suite never compares
//! the engine with itself.

use std::collections::HashSet;

use jdvs_vector::distance::squared_l2;
use jdvs_vector::topk::{Neighbor, TopK};

use super::escalation_step;
use crate::filter::{FilterSpec, QueryFilter};
use crate::ids::{ImageId, ListId};
use crate::index::VisualIndex;

/// Reference for an unfiltered raw plan.
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
    filtered_ann_search_reference(index, query, k, nprobe, &FilterSpec::none())
}

/// Reference for a filtered raw plan: post-filter, same escalation
/// schedule as the engine — both sides hold identical top-k contents at
/// every round boundary, so they widen identically.
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
    collect(index, query, k, nprobe, k, filter, |id| {
        exact(index, query, id)
    })
    .into_sorted_vec()
}

/// Reference for an unfiltered compressed plan.
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
    let none = FilterSpec::none();
    filtered_compressed_search_reference(index, query, k, nprobe, rerank_factor, &none)
}

/// Reference for a filtered compressed plan: stage 1 computes the quantized
/// ADC distance of every valid candidate and post-filters before shortlist
/// insertion; stage 2 re-ranks per id. The per-id quantized distance is
/// bit-exact with a fast-scan kernel lane.
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
    assert!(rerank_factor > 0, "rerank_factor must be positive");
    let pq = index
        .pq_store()
        .expect("compressed search requires config.pq_subspaces (see IndexConfig)");
    let capacity = k.saturating_mul(rerank_factor).max(k);
    let qt = pq.quantized_adc_table(query);
    let score = |id| pq.quantized_distance(&qt, id);
    let shortlist = collect(index, query, k, nprobe, capacity, filter, score);
    let mut topk = TopK::new(k);
    for candidate in shortlist.into_sorted_vec() {
        let id = ImageId(candidate.id as u32);
        if !index.bitmap().test(id.as_usize()) {
            continue; // deleted between stages
        }
        if let Some(d) = exact(index, query, id) {
            topk.push(candidate.id, d);
        }
    }
    topk.into_sorted_vec()
}

/// Exact distance to `id`; `None` while its vector has not landed (such an
/// id is skipped, never ranked at infinity).
fn exact(index: &VisualIndex, query: &[f32], id: ImageId) -> Option<f32> {
    index
        .vectors()
        .with(id, |v| squared_l2(query, v.as_slice()))
}

/// The sequential scan every reference shares: the `nprobe` nearest
/// lists, then — for a constrained `filter` only — doubling rounds over
/// the lists not yet visited while fewer than `k` candidates are held.
fn collect(
    index: &VisualIndex,
    query: &[f32],
    k: usize,
    nprobe: usize,
    capacity: usize,
    filter: &FilterSpec,
    mut score: impl FnMut(ImageId) -> Option<f32>,
) -> TopK {
    assert!(k > 0, "k must be positive");
    assert!(nprobe > 0, "nprobe must be positive");
    assert_eq!(query.len(), index.config().dim, "query dimension mismatch");
    let qf = QueryFilter::new(filter, index.filters(), index.forward());
    let view = qf.view();
    let mut topk = TopK::new(capacity);
    let mut visited = HashSet::new();
    let mut visit = |lists: Vec<usize>, topk: &mut TopK| {
        for list in lists {
            if !visited.insert(list) {
                continue;
            }
            index.inverted_internal().scan(ListId(list as u32), |id| {
                if !index.bitmap().test(id.as_usize()) {
                    return; // logically deleted
                }
                // Post-filter: score first, discard after.
                if let Some(d) = score(id) {
                    if view.admits(id.as_usize()) {
                        topk.push(id.as_u64(), d);
                    }
                }
            });
        }
    };
    let base = index.quantizer().assign_multi(query, nprobe);
    let mut width = base.len();
    visit(base, &mut topk);
    while !filter.is_unconstrained() && topk.len() < k {
        let Some(wider) = escalation_step(index.config(), width) else {
            break;
        };
        visit(index.quantizer().assign_multi(query, wider), &mut topk);
        width = wider;
    }
    topk
}

/// Sequential per-id reference of [`super::brute_force`].
///
/// # Panics
///
/// Panics if `k == 0` or `query` has the wrong dimension.
pub fn brute_force_reference(index: &VisualIndex, query: &[f32], k: usize) -> Vec<Neighbor> {
    filtered_brute_force(index, query, k, &FilterSpec::none())
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
    let mut topk = TopK::new(k);
    for raw in 0..index.forward().len() {
        if !index.bitmap().test(raw) || !view.admits(raw) {
            continue;
        }
        if let Some(d) = exact(index, query, ImageId(raw as u32)) {
            topk.push(raw as u64, d);
        }
    }
    topk.into_sorted_vec()
}
