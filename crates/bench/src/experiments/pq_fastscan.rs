//! The PQ fast-scan experiment: 4-bit interleaved blocks with
//! register-resident SIMD lookup tables vs the classic 8-bit ADC scan.
//!
//! Both variants spend the same 8 bytes per code over the same data
//! (8-bit × 8 subspaces vs 4-bit × 16 subspaces at dim 64) and run the
//! same two-stage pipeline: quantized shortlist of `k · rerank_factor`
//! candidates, then an exact f32 re-rank. What differs is stage 1's inner
//! loop — m table lookups per candidate vs one `fastscan16` kernel call
//! per 32-code block — so the latency gap is the fast-scan win and the
//! recall columns show the re-rank absorbing the coarser 4-bit codes.
//!
//! Every variant is differentially checked against its per-id reference
//! twin before timing starts; a mismatch fails the experiment.

use std::time::Instant;

use jdvs_core::search;
use jdvs_core::{IndexConfig, VisualIndex};
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
const RERANK: usize = 8;

/// Builds a populated index over `data` with the given PQ shape.
fn build(data: &[Vector], pq_bits: u8, pq_subspaces: usize) -> VisualIndex {
    let index = VisualIndex::bootstrap(
        IndexConfig {
            dim: DIM,
            num_lists: NUM_LISTS,
            initial_list_capacity: 64,
            kmeans_iters: 6,
            pq_subspaces: Some(pq_subspaces),
            pq_bits,
            rerank_factor: RERANK,
            ..Default::default()
        },
        data,
    );
    for (i, v) in data.iter().enumerate() {
        index
            .insert(
                v.clone(),
                ProductAttributes::new(ProductId(i as u64), 0, 0, 0, format!("fs/u{i}")),
            )
            .expect("insert");
    }
    index.flush();
    // 5% logical deletions so the validity filter is on the measured path.
    for i in (0..data.len()).step_by(20) {
        let url = format!("fs/u{i}");
        index
            .invalidate(ImageKey::from_url(&url), &url)
            .expect("invalidate");
    }
    index
}

/// Mean recall@K of single-thread compressed search against brute force.
fn recall(index: &VisualIndex, queries: &[Vector]) -> f64 {
    let mut hit = 0usize;
    for q in queries {
        let truth: Vec<u64> = search::brute_force(index, q.as_slice(), K)
            .into_iter()
            .map(|n| n.id)
            .collect();
        let got = index.search_compressed(q.as_slice(), K, NPROBE, RERANK);
        hit += got.iter().filter(|n| truth.contains(&n.id)).count();
    }
    hit as f64 / (queries.len() * K) as f64
}

/// Per-query mean latency in µs of `f` over `queries`, `repeats` times.
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

/// `pq-fastscan`: 4-bit interleaved fast-scan vs 8-bit ADC at equal
/// bytes per code.
pub fn pq_fastscan(ctx: &Ctx) -> ExperimentResult {
    let n_images = ctx.scaled(30_000, 3_000);
    let mut rng = Xoshiro256::seed_from(0xFA57);
    let data: Vec<Vector> = (0..n_images)
        .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
        .collect();
    let queries: Vec<Vector> = (0..50)
        .map(|i| data[(i * 131) % n_images].clone())
        .collect();

    let adc8 = build(&data, 8, 8);
    let fs4 = build(&data, 4, 16);
    for index in [&adc8, &fs4] {
        let c = index.config();
        let bytes = c.pq_subspaces.unwrap() * c.pq_bits as usize / 8;
        assert_eq!(bytes, 8, "variants must spend equal bytes per code");
    }

    // Differential check before timing: the engine (fast-scan kernels,
    // block layout, threshold-pruned top-k) must return exactly what the
    // per-id reference twin returns, for both code widths.
    for q in &queries {
        for index in [&adc8, &fs4] {
            let reference =
                search::compressed_search_reference(index, q.as_slice(), K, NPROBE, RERANK);
            let engine = index.search_compressed(q.as_slice(), K, NPROBE, RERANK);
            assert_eq!(engine, reference, "engine diverged from reference");
        }
    }

    let recall8 = recall(&adc8, &queries);
    let recall4 = recall(&fs4, &queries);

    let repeats = if ctx.quick { 10 } else { 40 };
    let adc8_us = measure(&queries, repeats, |q| {
        adc8.search_compressed(q, K, NPROBE, RERANK).len()
    });
    let fs4_us = measure(&queries, repeats, |q| {
        fs4.search_compressed(q, K, NPROBE, RERANK).len()
    });

    let mut r = ExperimentResult::new(
        "pq-fastscan",
        "PQ scan latency: 4-bit fast-scan blocks vs 8-bit ADC at equal bytes per code",
        "Section 2.4: searchers rank PQ-compressed candidates; fast-scan is the Andre et al. SIMD layout",
    );
    for (variant, us, recall) in [
        ("adc-8bit-m8", adc8_us, recall8),
        ("fastscan-4bit-m16", fs4_us, recall4),
    ] {
        r.push_row(row![
            "variant" => variant,
            "mean_us_per_query" => format!("{us:.1}"),
            "speedup_vs_adc8" => format!("{:.2}", adc8_us / us),
            "recall_at_10" => format!("{recall:.3}"),
        ]);
    }
    r.note(format!(
        "{n_images} images, dim {DIM}, {NUM_LISTS} lists, nprobe {NPROBE}, k {K}, rerank {RERANK}, 5% deleted, 8 bytes/code both; active kernel: {}",
        simd::active().name()
    ));
    r.note(format!(
        "single-thread fast-scan speedup over 8-bit ADC: {:.2}x (acceptance bar: >= 3x at equal recall)",
        adc8_us / fs4_us
    ));
    r.note("both variants differentially checked against per-id references before timing");
    r
}
