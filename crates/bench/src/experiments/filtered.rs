//! The attribute-filtered search experiment: filter pushdown inside the
//! block scan vs the score-then-discard post-filter baseline, across a
//! selectivity sweep.
//!
//! Every indexed image gets `sales = i` over `i in 0..n`, so a
//! `min_sales` threshold dials the admitted fraction exactly: selectivity
//! `s` means the filter admits the top `s·n` images by sales. Both legs
//! probe the same lists and return **bit-identical** result sets (asserted
//! before timing); the only difference is *when* the filter verdict
//! lands — before the vector fetch (pushdown: a rejected candidate costs
//! bitmap word loads, and an all-rejected block skips the distance kernel
//! entirely) or after the distance kernel (post-filter baseline). The
//! baseline is the sequential per-id oracle, so its time also carries the
//! per-candidate locking the engine's pinned readers avoid.
//!
//! The second half measures selectivity-aware nprobe escalation: at 0.1%
//! selectivity a fixed `nprobe` strands top-k fill far below `k`, while
//! the escalating index widens probing until the shortlist fills.

use std::time::Instant;

use jdvs_core::search;
use jdvs_core::{FilterSpec, IndexConfig, VisualIndex};
use jdvs_storage::model::{ImageKey, ProductAttributes, ProductId};
use jdvs_vector::rng::Xoshiro256;
use jdvs_vector::simd;
use jdvs_vector::Vector;

use crate::report::ExperimentResult;
use crate::row;

use super::Ctx;

const DIM: usize = 32;
const NUM_LISTS: usize = 64;
const K: usize = 10;
const NPROBE: usize = 8;

/// The selectivity sweep, highest to lowest.
const SELECTIVITIES: &[f64] = &[0.5, 0.1, 0.01, 0.001];

/// Builds a populated index whose `sales` attribute is the insertion
/// index, giving `min_sales` filters exact selectivity control.
fn build(data: &[Vector], nprobe_escalation: usize) -> VisualIndex {
    let index = VisualIndex::bootstrap(
        IndexConfig {
            dim: DIM,
            num_lists: NUM_LISTS,
            initial_list_capacity: 64,
            kmeans_iters: 6,
            nprobe_escalation,
            ..Default::default()
        },
        data,
    );
    for (i, v) in data.iter().enumerate() {
        index
            .insert(
                v.clone(),
                ProductAttributes::new(
                    ProductId(i as u64),
                    i as u64,
                    99 + (i as u64 % 1_000),
                    i as u64 % 50,
                    format!("flt/u{i}"),
                )
                .with_category((i % 7) as u32),
            )
            .expect("insert");
    }
    index.flush();
    // 5% logical deletions so the validity mask is ANDed on the measured
    // path, exactly as in production.
    for i in (0..data.len()).step_by(20) {
        let url = format!("flt/u{i}");
        index
            .invalidate(ImageKey::from_url(&url), &url)
            .expect("invalidate");
    }
    index
}

/// The `min_sales` spec admitting ~`selectivity` of `n` images.
fn spec_for(n: usize, selectivity: f64) -> FilterSpec {
    FilterSpec::none().with_min_sales((n as f64 * (1.0 - selectivity)) as u64)
}

/// Per-query mean latency in µs of `f` over `queries`, `repeats` times.
fn measure(queries: &[Vector], repeats: usize, mut f: impl FnMut(&[f32]) -> usize) -> f64 {
    let mut sink = 0usize;
    let t0 = Instant::now();
    for _ in 0..repeats {
        for q in queries {
            sink = sink.wrapping_add(f(q.as_slice()).wrapping_add(1));
        }
    }
    let elapsed = t0.elapsed();
    assert!(sink > 0, "scan ran");
    elapsed.as_secs_f64() * 1e6 / (repeats * queries.len()) as f64
}

/// `filtered`: pushdown vs post-filter latency and the escalation fill
/// frontier across the selectivity sweep.
pub fn filtered(ctx: &Ctx) -> ExperimentResult {
    let n_images = ctx.scaled(30_000, 4_000);
    let mut rng = Xoshiro256::seed_from(0xF117);
    let data: Vec<Vector> = (0..n_images)
        .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
        .collect();
    let queries: Vec<Vector> = (0..40)
        .map(|i| data[(i * 131) % n_images].clone())
        .collect();

    let fixed = build(&data, 0); // fixed nprobe: no escalation
    let escalating = build(&data, NUM_LISTS); // may widen to every list

    let mut r = ExperimentResult::new(
        "filtered",
        "Attribute-filtered search: pushdown vs post-filter, with nprobe escalation fill",
        "Section 2.4: results are restricted by product attributes (category, stock, price, sales) before ranking",
    );

    let repeats = if ctx.quick { 5 } else { 20 };
    let mut speedup_at_low_selectivity = f64::INFINITY;
    for &s in SELECTIVITIES {
        let spec = spec_for(n_images, s);

        // Identity gate before timing: pushdown must return exactly the
        // post-filter reference's results, on both index configurations.
        for q in &queries {
            for index in [&fixed, &escalating] {
                let reference =
                    search::filtered_ann_search_reference(index, q.as_slice(), K, NPROBE, &spec);
                let engine = index.search_filtered(q.as_slice(), K, NPROBE, &spec);
                assert_eq!(engine, reference, "pushdown diverged from post-filter");
            }
        }

        let pushdown_us = measure(&queries, repeats, |q| {
            fixed.search_filtered(q, K, NPROBE, &spec).len()
        });
        let postfilter_us = measure(&queries, repeats, |q| {
            search::filtered_ann_search_reference(&fixed, q, K, NPROBE, &spec).len()
        });
        let speedup = postfilter_us / pushdown_us;
        if s <= 0.01 {
            speedup_at_low_selectivity = speedup_at_low_selectivity.min(speedup);
        }

        // Top-k fill and recall: how much of the wanted k arrives, with
        // and without escalation, and how close the escalated shortlist
        // is to the filtered ground truth.
        let mut fill_fixed = 0usize;
        let mut fill_esc = 0usize;
        let mut recall_hits = 0usize;
        let mut truth_total = 0usize;
        for q in &queries {
            fill_fixed += fixed.search_filtered(q.as_slice(), K, NPROBE, &spec).len();
            let esc = escalating.search_filtered(q.as_slice(), K, NPROBE, &spec);
            fill_esc += esc.len();
            let truth =
                search::reference::filtered_brute_force(&escalating, q.as_slice(), K, &spec);
            truth_total += truth.len();
            recall_hits += esc
                .iter()
                .filter(|n| truth.iter().any(|t| t.id == n.id))
                .count();
        }
        let denom = (queries.len() * K) as f64;
        r.push_row(row![
            "selectivity" => format!("{s}"),
            "pushdown_us" => format!("{pushdown_us:.1}"),
            "postfilter_us" => format!("{postfilter_us:.1}"),
            "speedup" => format!("{speedup:.2}"),
            "identical_results" => "true",
            "fill_fixed_nprobe" => format!("{:.3}", fill_fixed as f64 / denom),
            "fill_escalated" => format!("{:.3}", fill_esc as f64 / denom),
            "recall_vs_filtered_truth" => format!("{:.3}", recall_hits as f64 / truth_total.max(1) as f64),
        ]);

        if s <= 0.001 {
            // Gate against the *achievable* fill (the filtered ground truth
            // may hold fewer than k admitted images on scaled-down corpora);
            // at full scale truth fills every slot and this is fill >= 0.99.
            assert!(
                fill_esc as f64 >= 0.99 * truth_total as f64,
                "escalation must recover >= 99% of the achievable filtered top-k \
                 at 0.1% selectivity (got {fill_esc}/{truth_total})"
            );
        }
    }

    // Quick runs exist for correctness CI on shared VMs; the timing bar is
    // enforced on full runs, which write the bench_results artifact.
    assert!(
        ctx.quick || speedup_at_low_selectivity >= 2.0,
        "pushdown must be >= 2x the post-filter scan at <= 1% selectivity (got {speedup_at_low_selectivity:.2}x)"
    );
    r.note(format!(
        "{n_images} images, dim {DIM}, {NUM_LISTS} lists, nprobe {NPROBE}, k {K}, 5% deleted, min_sales filter over sales=i; active kernel: {}",
        simd::active().name()
    ));
    r.note(format!(
        "pushdown speedup at <= 1% selectivity: {speedup_at_low_selectivity:.2}x (acceptance bar: >= 2x, identical result sets)"
    ));
    r.note(
        "the post-filter arm is the sequential per-id oracle (per-candidate locks, no pinned \
         readers): since the one-executor refactor it no longer shares the engine's block scan, \
         so speedups recorded before it are not comparable",
    );
    r.note(format!(
        "escalation cap {NUM_LISTS} lists vs fixed nprobe {NPROBE}; both legs bit-identical to the post-filter reference before timing"
    ));
    r
}
