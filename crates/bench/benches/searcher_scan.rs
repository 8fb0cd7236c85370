//! End-to-end searcher scan: the block execution engine against the
//! pre-engine per-id scan, with and without SIMD dispatch. The
//! `searcher-scan` repro experiment records the same comparison into
//! `bench_results/`. The `pq4_fastscan` arm is the per-layer number of the
//! 4-bit block scan alone — nanoseconds per candidate on a world whose
//! probed codes do not fit a core's L2 — without standing any tier up.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use jdvs_bench::baselines::ann_search_scalar_baseline;
use jdvs_core::search;
use jdvs_core::{IndexConfig, ListId, VisualIndex};
use jdvs_storage::model::{ProductAttributes, ProductId};
use jdvs_vector::rng::Xoshiro256;
use jdvs_vector::Vector;

const DIM: usize = 64;
const N: usize = 10_000;
const K: usize = 10;
const NPROBE: usize = 16;

fn build_index() -> (VisualIndex, Vec<Vector>) {
    let mut rng = Xoshiro256::seed_from(0xBE7C);
    let data: Vec<Vector> = (0..N)
        .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
        .collect();
    let index = VisualIndex::bootstrap(
        IndexConfig {
            dim: DIM,
            num_lists: 64,
            initial_list_capacity: 64,
            kmeans_iters: 4,
            ..Default::default()
        },
        &data,
    );
    for (i, v) in data.iter().enumerate() {
        index
            .insert(
                v.clone(),
                ProductAttributes::new(ProductId(i as u64), 0, 0, 0, format!("b/u{i}")),
            )
            .expect("insert");
    }
    index.flush();
    (index, data)
}

fn bench_searcher_scan(c: &mut Criterion) {
    let (index, data) = build_index();
    let query = data[17].clone();
    let q = query.as_slice();

    let mut group = c.benchmark_group("searcher_scan");
    group.bench_function("scalar_per_id_baseline", |b| {
        b.iter(|| ann_search_scalar_baseline(&index, black_box(q), K, NPROBE))
    });
    group.bench_function("dispatched_per_id_reference", |b| {
        b.iter(|| search::ann_search_reference(&index, black_box(q), K, NPROBE))
    });
    group.bench_function("engine", |b| {
        b.iter(|| index.search(black_box(q), K, NPROBE))
    });
    group.finish();
}

/// 4-bit fast-scan world: 320k codes of m = 16 (2.5 MB of code bytes, past
/// any per-core L2), 112 of 128 lists probed, so one query streams ~280k
/// candidates through the block kernel.
fn bench_pq4_fastscan(_c: &mut Criterion) {
    const N: usize = 320_000;
    const LISTS: usize = 128;
    const NPROBE: usize = 112;
    const RERANK: usize = 8;
    let mut rng = Xoshiro256::seed_from(0x9A4F);
    let data: Vec<Vector> = (0..N)
        .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
        .collect();
    // Quantizers train on a sample; every image is inserted.
    let index = VisualIndex::bootstrap(
        IndexConfig {
            dim: DIM,
            num_lists: LISTS,
            initial_list_capacity: 4096,
            kmeans_iters: 4,
            pq_subspaces: Some(16),
            ..Default::default()
        },
        &data[..20_000],
    );
    for (i, v) in data.iter().enumerate() {
        index
            .insert(
                v.clone(),
                ProductAttributes::new(ProductId(i as u64), 0, 0, 0, format!("b/u{i}")),
            )
            .expect("insert");
    }
    index.flush();
    let queries = &data[..64];
    let candidates: usize = queries
        .iter()
        .flat_map(|q| index.quantizer().assign_multi(q.as_slice(), NPROBE))
        .map(|list| index.inverted().list(ListId(list as u32)).len())
        .sum();
    let pass = || {
        for q in queries {
            black_box(index.search_compressed(black_box(q.as_slice()), K, NPROBE, RERANK));
        }
    };
    pass(); // warm-up
    const PASSES: usize = 10;
    let start = Instant::now();
    (0..PASSES).for_each(|_| pass());
    let ns = start.elapsed().as_nanos() as f64 / (PASSES * candidates) as f64;
    println!(
        "searcher_scan/pq4_fastscan                       {ns:.3} ns/candidate \
         ({} candidates/query, whole query incl. assign, LUTs, re-rank)",
        candidates / queries.len()
    );
}

criterion_group!(benches, bench_searcher_scan, bench_pq4_fastscan);
criterion_main!(benches);
