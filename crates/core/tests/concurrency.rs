//! Concurrency stress tests for the real-time index: the paper's central
//! claim is that search and update never conflict. These tests run
//! searcher-like reader threads against a writer applying the full event
//! mix, checking invariants the whole time.

// These tests drive real OS threads; skip them under `--cfg loom`
// model builds (crates/core/tests/loom.rs owns that configuration).
#![cfg(not(loom))]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use jdvs_core::ids::ImageId;
use jdvs_core::{IndexConfig, VisualIndex};
use jdvs_storage::model::{ImageKey, ProductAttributes, ProductId};
use jdvs_vector::rng::Xoshiro256;
use jdvs_vector::Vector;

const DIM: usize = 16;

fn fresh_index() -> Arc<VisualIndex> {
    let mut rng = Xoshiro256::seed_from(77);
    let train: Vec<Vector> = (0..128)
        .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
        .collect();
    Arc::new(VisualIndex::bootstrap(
        IndexConfig {
            dim: DIM,
            num_lists: 8,
            initial_list_capacity: 4, // force many expansions
            nprobe: 8,
            ..Default::default()
        },
        &train,
    ))
}

fn vec_for(i: u64) -> Vector {
    let mut rng = Xoshiro256::seed_from(i ^ 0xFEED);
    (0..DIM).map(|_| rng.next_gaussian() as f32).collect()
}

fn attrs_for(i: u64) -> ProductAttributes {
    ProductAttributes::new(ProductId(i), i, 100 + i, i % 7, format!("u{i}"))
}

#[test]
fn searches_stay_consistent_while_writer_inserts_through_expansions() {
    let index = fresh_index();
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|r| {
            let index = Arc::clone(&index);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let query = vec_for(r);
                let mut observed_max = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let hits = index.search(query.as_slice(), 10, 8);
                    // Results must be sorted, distinct, and reference
                    // readable records.
                    for w in hits.windows(2) {
                        assert!(w[0].distance <= w[1].distance);
                        assert_ne!(w[0].id, w[1].id);
                    }
                    for n in &hits {
                        let attrs = index
                            .attributes(ImageId(n.id as u32))
                            .expect("hit must reference a published record");
                        assert_eq!(attrs.url, format!("u{}", attrs.product_id.0));
                    }
                    observed_max = observed_max.max(hits.len());
                }
                observed_max
            })
        })
        .collect();

    for i in 0..5_000u64 {
        index.insert(vec_for(i), attrs_for(i)).unwrap();
    }
    index.flush();
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap() > 0, "readers must see results");
    }
    assert_eq!(index.num_images(), 5_000);
    assert!(
        index.inverted().total_expansions() > 0,
        "expansions must have occurred"
    );
    // Post-quiescence: every insert is searchable.
    let hits = index.search(vec_for(4_999).as_slice(), 1, 8);
    let top = index.attributes(ImageId(hits[0].id as u32)).unwrap();
    assert_eq!(top.url, "u4999");
}

#[test]
fn deletions_and_relistings_never_corrupt_reader_view() {
    let index = fresh_index();
    // Preload 2 000 images.
    for i in 0..2_000u64 {
        index.insert(vec_for(i), attrs_for(i)).unwrap();
    }
    index.flush();
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|r| {
            let index = Arc::clone(&index);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let query = vec_for(1_000 + r);
                while !stop.load(Ordering::Relaxed) {
                    for n in index.search(query.as_slice(), 20, 8) {
                        // Whatever the interleaving, a returned hit was
                        // valid at scan time and must still have coherent
                        // attributes.
                        let attrs = index.attributes(ImageId(n.id as u32)).unwrap();
                        assert!(attrs.product_id.0 < 2_000);
                    }
                }
            })
        })
        .collect();

    // Writer: delete/relist churn over the whole catalog.
    for round in 0..20 {
        for i in (0..2_000u64).filter(|i| i % 3 == round % 3) {
            let key = ImageKey::from_url(&format!("u{i}"));
            index.invalidate(key, &format!("u{i}")).unwrap();
        }
        for i in (0..2_000u64).filter(|i| i % 3 == round % 3) {
            index
                .upsert(attrs_for(i), || panic!("relist must reuse"))
                .unwrap();
        }
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    assert_eq!(index.valid_images(), 2_000, "all relisted at the end");
    assert_eq!(index.num_images(), 2_000, "no duplicate records from churn");
}

#[test]
fn attribute_updates_race_searches_without_torn_reads() {
    let index = fresh_index();
    for i in 0..500u64 {
        index.insert(vec_for(i), attrs_for(i)).unwrap();
    }
    index.flush();
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let index = Arc::clone(&index);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for i in 0..500u64 {
                        let a = index.attributes(ImageId(i as u32)).unwrap();
                        // The writer flips between two coherent states per
                        // field; any mix is fine, garbage is not.
                        assert!(
                            a.sales == i || a.sales == i + 1_000_000,
                            "torn sales {}",
                            a.sales
                        );
                        assert!(
                            a.price == 100 + i || a.price == 42,
                            "torn price {}",
                            a.price
                        );
                    }
                }
            })
        })
        .collect();
    for _ in 0..200 {
        for i in 0..500u64 {
            let key = ImageKey::from_url(&format!("u{i}"));
            index
                .update_numeric(key, &format!("u{i}"), Some(i + 1_000_000), Some(42), None)
                .unwrap();
            index
                .update_numeric(key, &format!("u{i}"), Some(i), Some(100 + i), None)
                .unwrap();
        }
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
}

#[test]
fn single_writer_many_reader_throughput_smoke() {
    // Not a benchmark — just asserts forward progress under maximum
    // read-side pressure (regression guard against accidental writer
    // blocking on the read path).
    let index = fresh_index();
    for i in 0..100u64 {
        index.insert(vec_for(i), attrs_for(i)).unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let index = Arc::clone(&index);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let q = vec_for(3);
                while !stop.load(Ordering::Relaxed) {
                    index.search(q.as_slice(), 5, 8);
                }
            })
        })
        .collect();
    let start = std::time::Instant::now();
    for i in 100..1_100u64 {
        index.insert(vec_for(i), attrs_for(i)).unwrap();
    }
    let elapsed = start.elapsed();
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    assert!(
        elapsed < std::time::Duration::from_secs(30),
        "writer starved by readers: {elapsed:?}"
    );
    assert_eq!(index.num_images(), 1_100);
}

/// The `unsafe-slab` Miri exercise (referenced from the SAFETY comment on
/// `Slab::new` in src/inverted.rs): the one `unsafe` block on the mutation
/// path casts a zeroed `Box<[u64]>` to `Box<[AtomicU64]>`. Driving an
/// `InvertedList` through allocation, expansion (which re-runs the cast
/// for the larger slab), scanning and drop validates the cast and the
/// transferred ownership under `cargo miri test`. Under a normal build it
/// doubles as a cheap smoke test.
#[test]
fn unsafe_slab_cast_round_trips() {
    use jdvs_core::inverted::InvertedList;
    // Inline copy (background_copy = false) keeps this single-threaded so
    // Miri runs it quickly and deterministically.
    let list = InvertedList::new(2, false);
    for i in 0..33u32 {
        list.append(ImageId(i));
    }
    list.flush();
    let mut got = Vec::new();
    list.scan(|id| got.push(id.0));
    assert_eq!(got, (0..33).collect::<Vec<_>>());
    assert!(list.capacity() >= 33);
    assert!(list.expansions() >= 1, "the cast re-ran for a grown slab");
}

/// The sibling of `unsafe_slab_cast_round_trips` for the never-relocating
/// word arrays: every other element type `zeroed` casts — the bitmap's
/// `AtomicU64` words, the forward index's six-word records, the attribute
/// buffer's `AtomicU8` bytes, the row store's two-word id slots and
/// `AtomicU32` row regions — allocated, grown past a bucket, read back and
/// dropped (`cargo miri test -p jdvs-core --test concurrency unsafe_slab`).
#[test]
fn unsafe_slab_cast_round_trips_in_word_arrays() {
    use jdvs_core::bitmap::AtomicBitmap;
    use jdvs_core::buffer::VarBuffer;
    use jdvs_core::forward::ForwardIndex;
    use jdvs_core::ids::ListId;
    use jdvs_core::rows::RowStore;

    let bm = AtomicBitmap::new();
    for bit in [0, 63, 5_000, 70_000] {
        bm.set(bit);
    }
    bm.clear(63);
    assert_eq!(bm.count_ones(), 3);
    assert!(bm.test(70_000) && !bm.test(69_999));

    let buf = VarBuffer::with_first_bucket(8);
    let refs: Vec<_> = (0..6u8).map(|i| buf.append(&[i; 5]).unwrap()).collect();
    for (i, r) in refs.into_iter().enumerate() {
        assert_eq!(buf.read(r).unwrap(), [i as u8; 5]);
    }

    let fwd = ForwardIndex::new();
    for i in 0..3 {
        fwd.append(&attrs_for(i)).unwrap();
    }
    assert_eq!(fwd.attributes(ImageId(2)).unwrap(), attrs_for(2));

    let rows = RowStore::new(2, 1);
    rows.put(ImageId(9_000), ListId(0), 0, &[1.0, 2.0]);
    assert_eq!(rows.locate(ImageId(9_000)), Some((ListId(0), 0)));
    let row = rows.snapshot().get(ImageId(9_000)).unwrap();
    assert_eq!(row.with(|r| r.to_vec()), vec![1.0, 2.0]);
}

/// Figure 7's "no conflict between search and update": what a plan holds
/// — the scan's borrow of the validity bitmap and its filter — must never
/// make an append wait, not even one that opens a new bucket. A reader
/// thread takes both and holds them behind a latch; an appender then grows
/// one structure past its current bucket, and its completion must arrive
/// (a bounded wait, no sleep) while the latch is still closed.
mod an_append_never_waits_for_a_pinned_reader {
    use std::sync::mpsc;
    use std::time::Duration;

    use jdvs_core::bitmap::AtomicBitmap;
    use jdvs_core::filter::{FilterIndex, FilterSpec, QueryFilter};
    use jdvs_core::forward::ForwardIndex;
    use jdvs_core::ids::ImageId;
    use jdvs_storage::model::{ProductAttributes, ProductId};

    /// Far longer than any append takes; a wait that long is a stall.
    const BOUND: Duration = Duration::from_secs(10);

    fn attrs(i: u64, url: String) -> ProductAttributes {
        ProductAttributes::new(ProductId(i), i, 100, 0, url).with_category(3)
    }

    /// Holds a plan's borrows on one thread while `append` runs on another.
    fn append_beside_a_held_plan(append: impl FnOnce(&AtomicBitmap, &ForwardIndex) + Send) {
        let (bitmap, fwd, filters) = (AtomicBitmap::new(), ForwardIndex::new(), FilterIndex::new());
        for i in 0..10 {
            let id = fwd.append(&attrs(i, format!("u{i}"))).unwrap();
            filters.note_listing(id, 3, true, None);
            bitmap.set(id.as_usize());
        }
        let spec = FilterSpec::by_category(3)
            .in_stock()
            .with_price_range(0, 1_000);
        let (held_tx, held_rx) = mpsc::channel();
        let (latch_tx, latch_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|s| {
            let (bitmap, fwd, filters, spec) = (&bitmap, &fwd, &filters, &spec);
            s.spawn(move || {
                let scan = bitmap;
                let filter = QueryFilter::new(spec, filters, fwd);
                held_tx.send(()).unwrap();
                latch_rx.recv().unwrap();
                assert!(
                    scan.test(5) && filter.admits(5),
                    "the held plan still reads"
                );
            });
            held_rx.recv().unwrap();
            s.spawn(move || {
                append(bitmap, fwd);
                done_tx.send(()).unwrap();
            });
            let waited = done_rx.recv_timeout(BOUND);
            latch_tx.send(()).unwrap();
            assert!(waited.is_ok(), "the append waited for the held plan");
        });
    }

    #[test]
    fn bitmap() {
        append_beside_a_held_plan(|bitmap, _| bitmap.set(1 << 20));
    }

    #[test]
    fn forward_index() {
        append_beside_a_held_plan(|_, fwd| {
            for i in 10..5_000 {
                fwd.append(&attrs(i, String::new())).unwrap();
            }
        });
    }

    #[test]
    fn var_buffer() {
        append_beside_a_held_plan(|_, fwd| {
            let url = "u".repeat(1 << 12);
            for _ in 0..300 {
                fwd.update_url(ImageId(0), &url).unwrap();
            }
        });
    }
}
