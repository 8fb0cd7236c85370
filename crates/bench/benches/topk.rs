//! Top-k selection — every merge level of the hierarchy (searcher scan,
//! broker merge, blender merge) runs one of these. The `shortlist_k80`
//! arm is the fast-scan's shortlist: a bounded heap against the reservoir
//! `TopK` on a scan-shaped stream (`bench_results/topk-shortlist.json`).

use std::collections::BinaryHeap;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use jdvs_vector::rng::Xoshiro256;
use jdvs_vector::topk::{Neighbor, TopK};

fn bench_topk(c: &mut Criterion) {
    let mut rng = Xoshiro256::seed_from(5);
    let stream: Vec<(u64, f32)> = (0..100_000u64)
        .map(|i| (i, rng.next_f32() * 1_000.0))
        .collect();

    let mut group = c.benchmark_group("topk");
    group.throughput(Throughput::Elements(stream.len() as u64));
    for k in [10usize, 100, 1_000] {
        group.bench_with_input(BenchmarkId::new("select_from_100k", k), &k, |b, &k| {
            b.iter(|| {
                let mut topk = TopK::new(k);
                for &(id, d) in black_box(&stream) {
                    topk.push(id, d);
                }
                topk.into_sorted_vec().len()
            })
        });
    }

    // Broker-style merge of 5 partial top-100 lists.
    let partials: Vec<Vec<(u64, f32)>> = (0..5)
        .map(|p| {
            let mut t = TopK::new(100);
            for &(id, d) in stream.iter().skip(p * 20_000).take(20_000) {
                t.push(id, d);
            }
            t.into_sorted_vec()
                .into_iter()
                .map(|n| (n.id, n.distance))
                .collect()
        })
        .collect();
    group.throughput(Throughput::Elements(500));
    group.bench_function("merge_5_partials_of_100", |b| {
        b.iter(|| {
            let mut merged = TopK::new(100);
            for partial in black_box(&partials) {
                for &(id, d) in partial {
                    merged.push(id, d);
                }
            }
            merged.into_sorted_vec().len()
        })
    });
    group.finish();
}

/// The shape of one fast-scan partition query on `scan-bound`: 112 lists
/// probed nearest first, ~1,400 candidates each, quantized (`u16`-step)
/// distances full of ties, a shortlist of k = 80 (k 10 × re-rank 8).
/// Every candidate goes through the scanner's `would_accept` pre-test, as
/// the kernel's prune bound does, and the survivors are pushed.
fn scan_shaped_stream() -> Vec<(u64, f32)> {
    let mut rng = Xoshiro256::seed_from(0x5CA7);
    let mut stream = Vec::with_capacity(112 * 1_400);
    for list in 0..112u64 {
        // Farther lists sit farther from the query.
        let centre = 400.0 + 2.0 * list as f32;
        for pos in 0..1_400u64 {
            let q = (centre + 60.0 * rng.next_gaussian() as f32).clamp(0.0, 65_535.0);
            stream.push((list << 32 | pos, 0.5 + 0.125 * q.round()));
        }
    }
    stream
}

/// The collector the scan used before the reservoir: a bounded max-heap
/// whose root is the worst of the best k, replaced in place (one sift).
struct HeapTopK {
    k: usize,
    heap: BinaryHeap<Neighbor>,
}

impl HeapTopK {
    fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    fn would_accept(&self, distance: f32) -> bool {
        self.heap.len() < self.k || self.heap.peek().is_none_or(|w| distance <= w.distance)
    }

    fn push(&mut self, id: u64, distance: f32) -> bool {
        let n = Neighbor::new(id, distance);
        if self.heap.len() < self.k {
            self.heap.push(n);
            return true;
        }
        match self.heap.peek_mut() {
            Some(mut worst) if n < *worst => {
                *worst = n;
                true
            }
            _ => false,
        }
    }

    fn into_sorted_vec(self) -> Vec<Neighbor> {
        self.heap.into_sorted_vec()
    }
}

/// Heap against reservoir on the scan-shaped stream, passes alternated;
/// prints the median of each and what each accepted.
fn bench_shortlist(_c: &mut Criterion) {
    const K: usize = 80;
    let stream = scan_shaped_stream();
    let heap_pass = || {
        let (mut topk, mut accepted) = (HeapTopK::new(K), 0);
        for &(id, d) in black_box(&stream) {
            if topk.would_accept(d) {
                accepted += usize::from(topk.push(id, d));
            }
        }
        (topk.into_sorted_vec(), accepted)
    };
    let reservoir_pass = || {
        let (mut topk, mut accepted) = (TopK::new(K), 0);
        for &(id, d) in black_box(&stream) {
            if topk.would_accept(d) {
                accepted += usize::from(topk.push(id, d));
            }
        }
        (topk.into_sorted_vec(), accepted)
    };
    let ((heap_top, heap_accepts), (reservoir_top, appends)) = (heap_pass(), reservoir_pass());
    assert_eq!(heap_top, reservoir_top, "both keep the same k");
    let time = |pass: &dyn Fn() -> (Vec<Neighbor>, usize)| {
        let start = Instant::now();
        black_box(pass());
        start.elapsed().as_nanos() as f64 / 1e3
    };
    let (mut heap_us, mut reservoir_us) = (Vec::new(), Vec::new());
    for round in 0..41 {
        if round % 2 == 0 {
            heap_us.push(time(&heap_pass));
            reservoir_us.push(time(&reservoir_pass));
        } else {
            reservoir_us.push(time(&reservoir_pass));
            heap_us.push(time(&heap_pass));
        }
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    println!(
        "topk/shortlist_k80: {} offered, heap {:.1} us ({heap_accepts} accepted), \
         reservoir {:.1} us ({appends} appended)",
        stream.len(),
        median(&mut heap_us),
        median(&mut reservoir_us),
    );
}

criterion_group!(benches, bench_topk, bench_shortlist);
criterion_main!(benches);
