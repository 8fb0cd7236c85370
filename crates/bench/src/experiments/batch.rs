//! The multi-query batching experiment: amortized fast-scan block passes
//! across co-arriving queries.
//!
//! One engine call (`VisualIndex::execute`) probes the union of the
//! batch's nprobe lists and walks each list's interleaved code blocks
//! **once**, scoring every
//! subscribed query against the shared block with its own register-
//! resident LUT set (`fastscan16_multi`). Per-query work — centroid
//! assignment, LUT build, top-k, exact re-rank — is untouched, so the
//! speedup measures exactly what the shared list pass amortizes: the
//! block loads, the nibble expansion, and the validity resolution of
//! surviving lanes. The unbatched baseline is the same entry point called
//! with a batch of one — what the serving tier runs with the micro-batcher
//! off — so the baseline is not handicapped.
//!
//! The world is sized so the probed code blocks do **not** fit in a
//! per-core L2 (600k images ≈ 4.8 MB of interleaved codes): re-streaming
//! them once per query is the real cost co-arriving queries share, which
//! is where production batch gains come from. At cache-resident toy
//! sizes the shared pass has nothing to amortize and batching buys
//! little — that regime is visible under `--quick --scale 0.1`.
//!
//! The batched path is bit-identical to the sequential per-query
//! reference (differentially checked here before timing, and by proptests
//! on both kernel legs in CI), so recall is equal *by construction* and
//! the QPS / per-query-latency frontier is the entire story: throughput
//! rises with batch size while each member's service latency is the whole
//! batch's execution time.

use std::time::Instant;

use jdvs_core::search::{self, SearchPlan};
use jdvs_core::{IndexConfig, VisualIndex};
use jdvs_metrics::histogram::Histogram;
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
const NPROBE: usize = 64;
const RERANK: usize = 8;
/// The first arm (a batch of one) is the unbatched baseline.
const BATCH_SIZES: &[usize] = &[1, 2, 4, 8, 16, 32];

fn build(data: &[Vector]) -> VisualIndex {
    let index = VisualIndex::bootstrap(
        IndexConfig {
            dim: DIM,
            num_lists: NUM_LISTS,
            initial_list_capacity: 64,
            kmeans_iters: 6,
            pq_subspaces: Some(16),
            pq_bits: 4,
            rerank_factor: RERANK,
            ..Default::default()
        },
        data,
    );
    for (i, v) in data.iter().enumerate() {
        index
            .insert(
                v.clone(),
                ProductAttributes::new(ProductId(i as u64), 0, 0, 0, format!("mq/u{i}")),
            )
            .expect("insert");
    }
    index.flush();
    // 5% logical deletions so the validity filter is on the measured path.
    for i in (0..data.len()).step_by(20) {
        let url = format!("mq/u{i}");
        index
            .invalidate(ImageKey::from_url(&url), &url)
            .expect("invalidate");
    }
    index
}

fn plans(chunk: &[Vector]) -> Vec<SearchPlan<'_>> {
    chunk
        .iter()
        .map(|q| SearchPlan::new(q.as_slice(), K, NPROBE).compressed(RERANK))
        .collect()
}

/// One pass of the engine over `queries` chunked at `batch`.
/// Returns the pass's wall time; every member of a batch experiences the
/// whole batched call's duration in `latency`.
fn pass_batched(
    index: &VisualIndex,
    queries: &[Vector],
    batch: usize,
    latency: &mut Histogram,
) -> std::time::Duration {
    let mut sink = 0usize;
    let t0 = Instant::now();
    for chunk in queries.chunks(batch) {
        let members = plans(chunk);
        let call = Instant::now();
        let results = index.execute(&members);
        let took = call.elapsed();
        for r in &results {
            sink = sink.wrapping_add(r.len());
            latency.record(took);
        }
    }
    let elapsed = t0.elapsed();
    assert!(sink > 0, "batched scan returned no results");
    elapsed
}

/// `batch`: searcher QPS / per-query p99 frontier vs batch size.
pub fn batch_sizes(ctx: &Ctx) -> ExperimentResult {
    let n_images = ctx.scaled(600_000, 60_000);
    let mut rng = Xoshiro256::seed_from(0xBA7C);
    let data: Vec<Vector> = (0..n_images)
        .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
        .collect();
    let queries: Vec<Vector> = (0..64)
        .map(|i| data[(i * 131) % n_images].clone())
        .collect();
    let index = build(&data);

    // Differential gate before timing: every member of every batch size
    // must return exactly the sequential per-id reference's results.
    for batch in [1usize, 3, 8] {
        for chunk in queries.chunks(batch).take(2) {
            let members = plans(chunk);
            let batched = index.execute(&members);
            for (m, got) in members.iter().zip(&batched) {
                let want =
                    search::compressed_search_reference(&index, m.features, K, NPROBE, RERANK);
                assert_eq!(got, &want, "batched engine diverged from reference");
            }
        }
    }

    // Interleave the arms within every repeat (and discard a warmup pass)
    // so host noise lands on all arms evenly instead of on whichever arm
    // happened to run during a slow patch.
    let repeats = if ctx.quick { 2 } else { 6 };
    let mut scratch = Histogram::new();
    pass_batched(&index, &queries, 1, &mut scratch);
    pass_batched(&index, &queries, 8, &mut scratch);
    let mut arm_elapsed = vec![std::time::Duration::ZERO; BATCH_SIZES.len()];
    let mut arm_lat = vec![Histogram::new(); BATCH_SIZES.len()];
    for _ in 0..repeats {
        for (i, &batch) in BATCH_SIZES.iter().enumerate() {
            arm_elapsed[i] += pass_batched(&index, &queries, batch, &mut arm_lat[i]);
        }
    }
    let total = (repeats * queries.len()) as f64;
    let base_qps = total / arm_elapsed[0].as_secs_f64();

    let mut r = ExperimentResult::new(
        "batch",
        "Batched multi-query execution: QPS / per-query p99 frontier vs batch size",
        "not in paper — amortizes Section 2.4's PQ scan across co-arriving queries",
    );
    let mut at_8 = 0.0f64;
    for (i, &batch) in BATCH_SIZES.iter().enumerate() {
        let qps = total / arm_elapsed[i].as_secs_f64();
        if batch == 8 {
            at_8 = qps / base_qps;
        }
        r.push_row(row![
            "batch_size" => batch,
            "qps" => format!("{qps:.0}"),
            "speedup_vs_unbatched" => format!("{:.2}", qps / base_qps),
            "p50_us" => arm_lat[i].percentile_us(0.50),
            "p99_us" => arm_lat[i].percentile_us(0.99),
        ]);
    }
    r.push_row(row![
        "batch_size" => "verdict",
        "speedup_at_8" => format!("{at_8:.2}"),
        "meets_1_5x_bar" => (at_8 >= 1.5).to_string(),
    ]);
    r.note(format!(
        "{n_images} images, dim {DIM}, {NUM_LISTS} lists, nprobe {NPROBE}, k {K}, rerank {RERANK}, \
         4-bit PQ m=16, 5% deleted; active kernel: {}",
        simd::active().name()
    ));
    r.note(
        "recall is equal at every batch size by construction: the batched path is bit-identical \
         to the sequential reference (differentially checked above and by CI proptests on native \
         and forced-scalar kernels)",
    );
    r.note(
        "batch size 1 is the unbatched baseline (the same entry point, as the serving tier calls \
         it with the micro-batcher off); arms are interleaved within every repeat so host noise \
         cannot favor one",
    );
    r.note(format!(
        "searcher QPS at batch size 8: {at_8:.2}x unbatched (acceptance bar: >= 1.5x at equal recall)"
    ));
    r
}
