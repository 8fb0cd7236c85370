//! End-to-end searcher scan: the block execution engine against the
//! pre-engine per-id scan, with and without SIMD dispatch. The
//! `searcher-scan` repro experiment records the same comparison into
//! `bench_results/`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use jdvs_bench::baselines::ann_search_scalar_baseline;
use jdvs_core::search;
use jdvs_core::{IndexConfig, VisualIndex};
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

criterion_group!(benches, bench_searcher_scan);
criterion_main!(benches);
