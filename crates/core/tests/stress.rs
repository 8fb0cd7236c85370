//! Randomized multi-writer/multi-reader stress suite for the real-time
//! mutation path. Where the loom models (tests/loom.rs) exhaustively
//! interleave tiny schedules, these tests run big random workloads on real
//! OS threads — the configuration ThreadSanitizer instruments in CI:
//!
//! ```text
//! RUSTFLAGS="-Z sanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer" \
//!     cargo +nightly test -p jdvs-core --test stress
//! ```
//!
//! Workload sizes scale with `JDVS_STRESS_OPS` (default keeps the default
//! `cargo test` run fast); `JDVS_STRESS_SEED` pins the op mix for replay.
#![cfg(not(loom))]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use jdvs_core::bitmap::AtomicBitmap;
use jdvs_core::config::IndexConfig;
use jdvs_core::forward::ForwardIndex;
use jdvs_core::ids::{ImageId, ListId};
use jdvs_core::index::VisualIndex;
use jdvs_core::inverted::InvertedIndex;
use jdvs_core::pq_store::FIRST_SEGMENT;
use jdvs_core::search::{self, SearchPlan};
use jdvs_core::swap::IndexHandle;
use jdvs_core::FilterSpec;
use jdvs_storage::model::{ProductAttributes, ProductId};
use jdvs_vector::Vector;
use rand::{Rng, SmallRng};

fn stress_ops(default: u64) -> u64 {
    std::env::var("JDVS_STRESS_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn stress_seed() -> u64 {
    std::env::var("JDVS_STRESS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xadd_1c7)
}

/// One writer applying the full random event mix against a live
/// `VisualIndex` while reader threads search, resolve attributes, and test
/// validity the whole time. Readers assert structural invariants only —
/// anything they can observe must be internally consistent.
#[test]
fn random_event_mix_against_live_readers() {
    let ops = stress_ops(6_000);
    let index = Arc::new(VisualIndex::bootstrap(
        IndexConfig {
            dim: 4,
            num_lists: 4,
            initial_list_capacity: 2, // force many migrations
            ..Default::default()
        },
        &[
            Vector::from(vec![0.0, 0.0, 0.0, 0.0]),
            Vector::from(vec![1.0, 0.0, 1.0, 0.0]),
            Vector::from(vec![0.0, 1.0, 0.0, 1.0]),
            Vector::from(vec![1.0, 1.0, 1.0, 1.0]),
        ],
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|t| {
            let index = Arc::clone(&index);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(stress_seed() ^ t);
                let mut checks = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let q = [
                        (rng.gen_range(0..100) as f32) / 100.0,
                        (rng.gen_range(0..100) as f32) / 100.0,
                        (rng.gen_range(0..100) as f32) / 100.0,
                        (rng.gen_range(0..100) as f32) / 100.0,
                    ];
                    for hit in index.search(&q, 5, 2) {
                        let id = ImageId(hit.id as u32);
                        // A returned hit must have been published: its
                        // attributes and features resolve without error.
                        let attrs = index.attributes(id).expect("hit resolves");
                        assert!(attrs.url.starts_with("sku/"), "url {:?}", attrs.url);
                        assert!(index.features(id).is_some(), "hit has features");
                        checks += 1;
                    }
                    let n = index.num_images();
                    if n > 0 {
                        let id = ImageId(rng.gen_range(0..n as u64) as u32);
                        // Published ids always resolve, valid or not.
                        let _ = index.is_valid(id);
                        index.attributes(id).expect("published id resolves");
                    }
                }
                checks
            })
        })
        .collect();

    let mut rng = SmallRng::seed_from_u64(stress_seed());
    let mut inserted: Vec<ProductAttributes> = Vec::new();
    for op in 0..ops {
        match rng.gen_range(0..10) {
            // 60% inserts keep the migrations coming.
            0..=5 => {
                let v = Vector::from(vec![
                    (rng.gen_range(0..100) as f32) / 100.0,
                    (rng.gen_range(0..100) as f32) / 100.0,
                    (rng.gen_range(0..100) as f32) / 100.0,
                    (rng.gen_range(0..100) as f32) / 100.0,
                ]);
                let attrs = ProductAttributes::new(
                    ProductId(op),
                    rng.gen_range(0..1000),
                    rng.gen_range(1..100_000),
                    rng.gen_range(0..100),
                    format!("sku/{op}.jpg"),
                );
                index.insert(v, attrs.clone()).expect("insert");
                inserted.push(attrs);
            }
            6 | 7 => {
                if let Some(a) = pick(&mut rng, &inserted) {
                    index
                        .update_numeric(
                            a.image_key(),
                            &a.url,
                            Some(rng.gen_range(0..9999)),
                            None,
                            Some(rng.gen_range(0..99)),
                        )
                        .expect("update");
                }
            }
            8 => {
                if let Some(a) = pick(&mut rng, &inserted) {
                    index.invalidate(a.image_key(), &a.url).expect("invalidate");
                }
            }
            _ => index.flush(),
        }
    }
    index.flush();
    stop.store(true, Ordering::Relaxed);
    let checks: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(checks > 0, "readers observed hits while the writer ran");
    assert_eq!(index.num_images(), inserted.len());
    // Every insert is findable post-flush: total list entries match.
    assert_eq!(index.inverted().total_entries(), inserted.len());
}

/// Writers taking turns at the 4-bit PQ index (the forward index admits
/// one appender at a time, so they hand a lock around — every 32-code tail
/// block still collects lanes from all of them) while readers execute
/// compressed plans over every list. A reader scores a block in place, with
/// plain loads, the moment its mask reads sealed; the thread sanitizer
/// checks that each block's own Acquire load really orders the reads of a
/// run after all of its writers' `fetch_or`s. The lists outgrow their first
/// code segment while readers scan them, so runs and tail copies also meet
/// a segment boundary mid-race. Readers assert what must hold mid-write;
/// once the writers are done every plan must equal its sequential oracle.
#[test]
fn pq_tail_blocks_race_compressed_execute() {
    const WRITERS: u64 = 3;
    const DIM: usize = 8;
    let ops = stress_ops(3_000);
    let point = |rng: &mut SmallRng| -> Vector {
        (0..DIM)
            .map(|_| rng.gen_range(0..1000) as f32 / 500.0 - 1.0)
            .collect()
    };
    let mut rng = SmallRng::seed_from_u64(stress_seed() ^ 0x4b17);
    let training: Vec<Vector> = (0..400).map(|_| point(&mut rng)).collect();
    let index = Arc::new(VisualIndex::bootstrap(
        IndexConfig {
            dim: DIM,
            num_lists: 4,
            initial_list_capacity: 2, // migrations under the id snapshots too
            pq_subspaces: Some(4),
            ..Default::default()
        },
        &training,
    ));
    let category = FilterSpec::by_category(1);
    let stop = Arc::new(AtomicBool::new(false));
    let writing = Arc::new(AtomicBool::new(true));
    let readers: Vec<_> = (0..3u64)
        .map(|t| {
            let (index, stop, category) = (Arc::clone(&index), Arc::clone(&stop), category.clone());
            let writing = Arc::clone(&writing);
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(stress_seed() ^ (0x9e4d + t));
                let (mut hits, mut crossed) = (0u64, false);
                while !stop.load(Ordering::Relaxed) {
                    // A list past its first segment, seen while writers
                    // still append to it.
                    let longest = (0..4).map(|l| index.inverted().list(ListId(l)).len()).max();
                    crossed |= longest > Some(FIRST_SEGMENT) && writing.load(Ordering::Relaxed);
                    let q = point(&mut rng);
                    let plain = SearchPlan::new(q.as_slice(), 8, 4).compressed(3);
                    for plan in [plain, plain.filtered(&category)] {
                        let result = index.execute(&plan);
                        for pair in result.windows(2) {
                            assert!(pair[0].distance <= pair[1].distance, "sorted");
                            assert_ne!(pair[0].id, pair[1].id, "one slot per image");
                        }
                        for hit in &result {
                            assert!(hit.distance.is_finite());
                            // A hit was bitmap-visible, hence fully inserted.
                            let attrs = index.attributes(ImageId(hit.id as u32)).expect("resolves");
                            assert!(plan.filter.is_none() || attrs.category == 1);
                            hits += 1;
                        }
                    }
                }
                (hits, crossed)
            })
        })
        .collect();
    let turn = Arc::new(Mutex::new(()));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let (index, turn) = (Arc::clone(&index), Arc::clone(&turn));
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(stress_seed() ^ (w << 40));
                for op in (w..ops).step_by(WRITERS as usize) {
                    let attrs = ProductAttributes::new(ProductId(op), 1, 2, 3, format!("pq/{op}"))
                        .with_category((op % 3) as u32);
                    let v = point(&mut rng);
                    let _turn = turn.lock().unwrap();
                    index.insert(v, attrs).expect("insert");
                }
            })
        })
        .collect();
    for h in writers {
        h.join().unwrap();
    }
    writing.store(false, Ordering::Relaxed);
    index.flush();
    stop.store(true, Ordering::Relaxed);
    let (hits, crossed) = readers
        .into_iter()
        .map(|h| h.join().unwrap())
        .fold((0, false), |(hits, crossed), (h, c)| {
            (hits + h, crossed || c)
        });
    assert!(hits > 0, "readers observed hits while the writers ran");
    // From 2048 ops on, some list ends with at least 512 codes, so it
    // passed 256 with hundreds of appends still to come.
    assert!(
        crossed || ops < 8 * FIRST_SEGMENT as u64,
        "readers scanned a list across a segment boundary mid-race"
    );
    assert_eq!(index.inverted().total_entries() as u64, ops);
    for _ in 0..20 {
        let q = point(&mut rng);
        let plain = SearchPlan::new(q.as_slice(), 8, 4).compressed(3);
        assert_eq!(
            index.execute(&plain),
            search::compressed_search_reference(&index, q.as_slice(), 8, 4, 3)
        );
        assert_eq!(
            index.execute(&plain.filtered(&category)),
            search::filtered_compressed_search_reference(&index, q.as_slice(), 8, 4, 3, &category)
        );
    }
}

fn pick<'a>(rng: &mut SmallRng, v: &'a [ProductAttributes]) -> Option<&'a ProductAttributes> {
    if v.is_empty() {
        None
    } else {
        Some(&v[rng.gen_range(0..v.len() as u64) as usize])
    }
}

/// Multiple writers appending into *disjoint* lists of one `InvertedIndex`
/// (the paper's discipline: one writer per list) race readers scanning
/// every list. Each list's content is tagged with its writer, so a reader
/// can detect cross-list leakage, reordering, or a torn prefix.
#[test]
fn disjoint_writers_race_list_scans() {
    const WRITERS: u64 = 4;
    let per_writer = stress_ops(4_000);
    let idx = Arc::new(InvertedIndex::new(WRITERS as usize, 2, true));
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3u64)
        .map(|t| {
            let idx = Arc::clone(&idx);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(stress_seed() ^ (0xbeef + t));
                while !stop.load(Ordering::Relaxed) {
                    let list = rng.gen_range(0..WRITERS) as u32;
                    let mut expect = 0u32;
                    idx.scan(ListId(list), |id| {
                        // Writer w stores w * 2^24 + k for k = 0, 1, 2, …:
                        // a scan must be exactly that dense tagged prefix.
                        assert_eq!(
                            id.0,
                            list << 24 | expect,
                            "list {list} corrupt at position {expect}"
                        );
                        expect += 1;
                    });
                }
            })
        })
        .collect();
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let idx = Arc::clone(&idx);
            std::thread::spawn(move || {
                for k in 0..per_writer {
                    idx.append(ListId(w as u32), ImageId((w as u32) << 24 | k as u32));
                }
            })
        })
        .collect();
    for h in writers {
        h.join().unwrap();
    }
    idx.flush();
    stop.store(true, Ordering::Relaxed);
    for h in readers {
        h.join().unwrap();
    }
    assert_eq!(idx.total_entries(), (WRITERS * per_writer) as usize);
    assert!(idx.total_expansions() >= WRITERS, "migrations exercised");
}

/// Concurrent writers flip disjoint bit ranges while readers run pinned
/// block scans. Flips must be lossless (no RMW can eat a neighbour's bit)
/// and never leak outside the owner's range.
#[test]
fn bitmap_flips_race_block_scans() {
    const WRITERS: u64 = 4;
    const RANGE: u64 = 4_096; // bits per writer; capacity pre-sized so
                              // growth never races a pinned reader
    let flips = stress_ops(20_000);
    let bm = Arc::new(AtomicBitmap::with_capacity((WRITERS * RANGE) as usize));
    for w in 0..WRITERS {
        bm.set((w * RANGE) as usize); // each writer's permanent guard bit
    }
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let bm = Arc::clone(&bm);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let r = bm.reader();
                    // The guard bit each writer keeps permanently set must
                    // never be observed clear.
                    for w in 0..WRITERS {
                        assert!(r.test((w * RANGE) as usize), "guard bit {w} lost");
                    }
                    let mut count = 0usize;
                    bm.for_each_valid((WRITERS * RANGE) as usize, |_| count += 1);
                    assert!(count >= WRITERS as usize, "guards visible in block scan");
                }
            })
        })
        .collect();
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let bm = Arc::clone(&bm);
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(stress_seed() ^ (w << 32));
                for _ in 0..flips {
                    let bit = w * RANGE + rng.gen_range(1..RANGE);
                    bm.assign(bit as usize, rng.gen_bool(0.5));
                }
            })
        })
        .collect();
    for h in writers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in readers {
        h.join().unwrap();
    }
    for w in 0..WRITERS {
        assert!(bm.test((w * RANGE) as usize));
    }
}

/// A swap storm against in-flight queries: generations only move forward,
/// snapshots are always a single complete payload, and the final handle
/// resolves the last swap.
#[test]
fn handle_swap_storm() {
    let swaps = stress_ops(10_000);
    let handle = Arc::new(IndexHandle::<u64>::new(Arc::new(0u64)));
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let handle = Arc::clone(&handle);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_gen = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let g = handle.generation();
                    assert!(g >= last_gen, "generation went backwards");
                    last_gen = g;
                    let snap = handle.get();
                    // Payload i is published by swap i: a snapshot can lag
                    // the counter but never lead it past the next swap.
                    assert!(*snap + 1 >= g, "snapshot older than gen - 1");
                }
            })
        })
        .collect();
    for i in 1..=swaps {
        let old = handle.swap(Arc::new(i));
        assert_eq!(*old, i - 1, "swaps are serialized");
    }
    stop.store(true, Ordering::Relaxed);
    for h in readers {
        h.join().unwrap();
    }
    assert_eq!(*handle.get(), swaps);
    assert_eq!(handle.generation(), swaps);
}

/// Competing URL updates against readers: the reference swing is one
/// atomic word, so a reader must always decode one complete candidate URL,
/// never a splice of two — and never a `CorruptReference` error, since
/// every reference a reader can load was produced by a real append.
#[test]
fn url_update_storm_never_tears() {
    let updates = stress_ops(5_000);
    let fwd = Arc::new(ForwardIndex::new());
    let id = fwd
        .append(&ProductAttributes::new(
            ProductId(1),
            1,
            2,
            3,
            "candidate-0-0".into(),
        ))
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let fwd = Arc::clone(&fwd);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let url = fwd.url(id).expect("live reference never corrupt");
                    let mut parts = url.split('-');
                    assert_eq!(parts.next(), Some("candidate"), "torn url {url:?}");
                    let w: u64 = parts.next().unwrap().parse().expect("writer tag");
                    let k: u64 = parts.next().unwrap().parse().expect("sequence tag");
                    assert!(w <= 2 && k <= updates, "impossible candidate {url:?}");
                }
            })
        })
        .collect();
    let writers: Vec<_> = (1..=2u64)
        .map(|w| {
            let fwd = Arc::clone(&fwd);
            std::thread::spawn(move || {
                for k in 1..=updates {
                    fwd.update_url(id, &format!("candidate-{w}-{k}"))
                        .expect("update url");
                }
            })
        })
        .collect();
    for h in writers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in readers {
        h.join().unwrap();
    }
    let last = fwd.url(id).unwrap();
    assert!(last.starts_with("candidate-"), "final url intact: {last:?}");
}
