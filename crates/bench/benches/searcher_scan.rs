//! End-to-end searcher scan: the block execution engine against the
//! pre-engine per-id scan, with and without SIMD dispatch. The
//! `searcher-scan` repro experiment records the same comparison into
//! `bench_results/`. The `pq4_fastscan` arm is the per-layer number of the
//! 4-bit block scan alone — nanoseconds per candidate on a world whose
//! probed codes do not fit a core's L2 — without standing any tier up; the
//! `raw_rows` arm is the same figure for the raw `f32` row scan on one
//! partition of the `hop-bound` world.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use jdvs_bench::baselines::ann_search_scalar_baseline;
use jdvs_core::search;
use jdvs_core::{IndexConfig, ListId, VisualIndex};
use jdvs_features::{ExtractorConfig, FeatureExtractor};
use jdvs_storage::model::{ProductAttributes, ProductId};
use jdvs_storage::ImageStore;
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
    let (ns, per_query) = ns_per_candidate(&index, &data[..64], NPROBE, |q| {
        black_box(index.search_compressed(q, K, NPROBE, RERANK));
    });
    println!(
        "searcher_scan/pq4_fastscan                       {ns:.3} ns/candidate \
         ({per_query} candidates/query, whole query incl. assign, LUTs, re-rank)"
    );
}

/// Whole-query nanoseconds per candidate over `queries` (assignment
/// included), with the mean candidates per query.
fn ns_per_candidate(
    index: &VisualIndex,
    queries: &[Vector],
    nprobe: usize,
    search: impl Fn(&[f32]),
) -> (f64, usize) {
    let candidates: usize = queries
        .iter()
        .flat_map(|q| index.quantizer().assign_multi(q.as_slice(), nprobe))
        .map(|list| index.inverted().list(ListId(list as u32)).len())
        .sum();
    let pass = || queries.iter().for_each(|q| search(black_box(q.as_slice())));
    pass(); // warm-up
    const PASSES: usize = 10;
    let start = Instant::now();
    (0..PASSES).for_each(|_| pass());
    let ns = start.elapsed().as_nanos() as f64 / (PASSES * candidates) as f64;
    (ns, candidates / queries.len())
}

/// Raw `f32` row scan in the shape of one `hop-bound` partition: 10k
/// images from 400 visual clusters, extracted with jitter 1.0 (dim 64),
/// 128 lists, nprobe 8 — about 750 candidates per query.
fn bench_raw_rows(_c: &mut Criterion) {
    const N: usize = 10_000;
    const CLUSTERS: u64 = 400;
    const LISTS: usize = 128;
    const NPROBE: usize = 8;
    let images = ImageStore::with_blob_len(256);
    let extractor = FeatureExtractor::new(ExtractorConfig {
        dim: DIM,
        jitter: 1.0,
        ..ExtractorConfig::default()
    });
    let mut rng = Xoshiro256::seed_from(0x4A11);
    let mut extract = |url: String| {
        let key = images.put_synthetic(&url, rng.next_u64() % CLUSTERS);
        extractor.extract(&images.get(key).expect("just stored"))
    };
    let data: Vec<Vector> = (0..N).map(|i| extract(format!("sku/{i}.jpg"))).collect();
    let queries: Vec<Vector> = (0..64).map(|i| extract(format!("query/{i}.jpg"))).collect();
    let index = VisualIndex::bootstrap(
        IndexConfig {
            dim: DIM,
            num_lists: LISTS,
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
    let (ns, per_query) = ns_per_candidate(&index, &queries, NPROBE, |q| {
        black_box(index.search(q, K, NPROBE));
    });
    println!(
        "searcher_scan/raw_rows                           {ns:.3} ns/candidate \
         ({per_query} candidates/query, whole query incl. assign)"
    );
}

criterion_group!(
    benches,
    bench_searcher_scan,
    bench_pq4_fastscan,
    bench_raw_rows
);
criterion_main!(benches);
