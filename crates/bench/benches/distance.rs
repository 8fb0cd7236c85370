//! Micro-benchmarks for the distance kernels — the inner loop of every
//! inverted-list scan (Section 2.4's Euclidean-distance computation).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use jdvs_vector::distance::{cosine_similarity, dot, squared_l2};
use jdvs_vector::rng::Xoshiro256;
use jdvs_vector::simd;

fn random_vec(dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256::seed_from(seed);
    (0..dim).map(|_| rng.next_gaussian() as f32).collect()
}

fn bench_distance(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance");
    for dim in [32usize, 64, 128, 512] {
        let a = random_vec(dim, 1);
        let b = random_vec(dim, 2);
        group.bench_with_input(BenchmarkId::new("squared_l2", dim), &dim, |bench, _| {
            bench.iter(|| squared_l2(black_box(&a), black_box(&b)))
        });
        group.bench_with_input(BenchmarkId::new("dot", dim), &dim, |bench, _| {
            bench.iter(|| dot(black_box(&a), black_box(&b)))
        });
        group.bench_with_input(BenchmarkId::new("cosine", dim), &dim, |bench, _| {
            bench.iter(|| cosine_similarity(black_box(&a), black_box(&b)))
        });
    }
    group.finish();

    // Scalar vs runtime-dispatched SIMD, kernel by kernel: the raw win of
    // the vectorized path before any memory-layout changes.
    let mut group = c.benchmark_group("kernels");
    let fast = simd::detect_best();
    let scalar = simd::scalar();
    for dim in [64usize, 512] {
        let a = random_vec(dim, 7);
        let b = random_vec(dim, 8);
        group.bench_with_input(
            BenchmarkId::new("squared_l2_scalar", dim),
            &dim,
            |bench, _| bench.iter(|| scalar.squared_l2(black_box(&a), black_box(&b))),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("squared_l2_{}", fast.name()), dim),
            &dim,
            |bench, _| bench.iter(|| fast.squared_l2(black_box(&a), black_box(&b))),
        );
        group.bench_with_input(BenchmarkId::new("dot_scalar", dim), &dim, |bench, _| {
            bench.iter(|| scalar.dot(black_box(&a), black_box(&b)))
        });
        group.bench_with_input(
            BenchmarkId::new(format!("dot_{}", fast.name()), dim),
            &dim,
            |bench, _| bench.iter(|| fast.dot(black_box(&a), black_box(&b))),
        );
    }
    group.finish();

    // A full inverted-list scan: 1 000 candidates at 64-d, the typical
    // per-list work a searcher does per probed cell.
    let mut group = c.benchmark_group("list_scan");
    let query = random_vec(64, 3);
    let candidates: Vec<Vec<f32>> = (0..1_000).map(|i| random_vec(64, 100 + i)).collect();
    group.bench_function("scan_1000x64d", |bench| {
        bench.iter(|| {
            let mut best = f32::INFINITY;
            for cand in &candidates {
                best = best.min(squared_l2(black_box(&query), cand));
            }
            best
        })
    });
    group.finish();
}

criterion_group!(benches, bench_distance);
criterion_main!(benches);
