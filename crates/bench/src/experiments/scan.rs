//! The execution-engine experiment: per-query latency of the searcher's
//! inverted-list scan across engine generations.
//!
//! Three variants over the same populated index and query set:
//!
//! - `scalar-per-id` — the pre-engine scan: per-id callbacks, two lock
//!   acquisitions per candidate, forced scalar kernel (the baseline the
//!   issue's ≥2x acceptance bar is measured against).
//! - `dispatched-per-id` — same scan shape, SIMD-dispatched kernel
//!   (isolates the kernel win from the memory-path win).
//! - `engine` — block scan + pinned snapshots + threshold-pruned top-k
//!   (`VisualIndex::execute`).
//!
//! Every variant's results are differentially checked against the
//! reference scan before timing starts; a mismatch fails the experiment.

use std::time::Instant;

use jdvs_core::search;
use jdvs_core::{IndexConfig, VisualIndex};

use crate::baselines::ann_search_scalar_baseline;
use jdvs_storage::model::{ImageKey, ProductAttributes, ProductId};
use jdvs_vector::rng::Xoshiro256;
use jdvs_vector::simd;
use jdvs_vector::Vector;

use crate::report::ExperimentResult;
use crate::row;

use super::Ctx;

const DIM: usize = 64;
const NUM_LISTS: usize = 128;
const K: usize = 10;
const NPROBE: usize = 16;

/// Per-query mean latency of `f` over `queries`, repeated `repeats` times.
fn measure(queries: &[Vector], repeats: usize, mut f: impl FnMut(&[f32]) -> usize) -> f64 {
    let mut sink = 0usize;
    let t0 = Instant::now();
    for _ in 0..repeats {
        for q in queries {
            sink = sink.wrapping_add(f(q.as_slice()));
        }
    }
    let elapsed = t0.elapsed();
    assert!(sink > 0, "scan returned no results");
    elapsed.as_secs_f64() * 1e6 / (repeats * queries.len()) as f64
}

/// `searcher-scan`: block execution engine vs the pre-engine scalar scan.
pub fn searcher_scan(ctx: &Ctx) -> ExperimentResult {
    let n_images = ctx.scaled(30_000, 3_000);
    let mut rng = Xoshiro256::seed_from(0x5CA7);
    let data: Vec<Vector> = (0..n_images)
        .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
        .collect();
    let index = VisualIndex::bootstrap(
        IndexConfig {
            dim: DIM,
            num_lists: NUM_LISTS,
            initial_list_capacity: 64,
            kmeans_iters: 6,
            ..Default::default()
        },
        &data,
    );
    for (i, v) in data.iter().enumerate() {
        index
            .insert(
                v.clone(),
                ProductAttributes::new(ProductId(i as u64), 0, 0, 0, format!("scan/u{i}")),
            )
            .expect("insert");
    }
    index.flush();
    // 5% logical deletions so the validity filter is on the measured path.
    for i in (0..n_images).step_by(20) {
        let url = format!("scan/u{i}");
        index
            .invalidate(ImageKey::from_url(&url), &url)
            .expect("invalidate");
    }
    let queries: Vec<Vector> = (0..50)
        .map(|i| data[(i * 131) % n_images].clone())
        .collect();

    // Differential check before timing: every variant returns the
    // reference scan's ids (the engine bit-exactly; the scalar baseline's
    // kernel may differ in the last ulp, so ids only).
    for q in &queries {
        let reference = search::ann_search_reference(&index, q.as_slice(), K, NPROBE);
        let engine = index.search(q.as_slice(), K, NPROBE);
        assert_eq!(engine, reference, "engine diverged from reference");
        let baseline_ids: Vec<u64> = ann_search_scalar_baseline(&index, q.as_slice(), K, NPROBE)
            .into_iter()
            .map(|n| n.id)
            .collect();
        let reference_ids: Vec<u64> = reference.into_iter().map(|n| n.id).collect();
        assert_eq!(baseline_ids, reference_ids, "baseline diverged on ids");
    }

    let repeats = if ctx.quick { 10 } else { 40 };
    let baseline_us = measure(&queries, repeats, |q| {
        ann_search_scalar_baseline(&index, q, K, NPROBE).len()
    });
    let dispatched_us = measure(&queries, repeats, |q| {
        search::ann_search_reference(&index, q, K, NPROBE).len()
    });
    let engine_us = measure(&queries, repeats, |q| index.search(q, K, NPROBE).len());

    let mut r = ExperimentResult::new(
        "searcher-scan",
        "Inverted-list scan latency: block execution engine vs per-id scalar scan",
        "Section 2.4: the searcher scans the probed clusters' lists and ranks by Euclidean distance",
    );
    for (variant, us) in [
        ("scalar-per-id", baseline_us),
        ("dispatched-per-id", dispatched_us),
        ("engine", engine_us),
    ] {
        r.push_row(row![
            "variant" => variant,
            "mean_us_per_query" => format!("{us:.1}"),
            "speedup_vs_baseline" => format!("{:.2}", baseline_us / us),
        ]);
    }
    r.note(format!(
        "{n_images} images, dim {DIM}, {NUM_LISTS} lists, nprobe {NPROBE}, k {K}, 5% deleted; active kernel: {}",
        simd::active().name()
    ));
    r.note(format!(
        "engine speedup over pre-engine scalar scan: {:.2}x (acceptance bar: >= 2x)",
        baseline_us / engine_us
    ));
    r.note(
        "all variants differentially checked against the reference scan before timing".to_string(),
    );
    r
}
