//! Concurrency models of the six publication protocols on the real-time
//! mutation path, executed under the `loom` shim's controlled scheduler
//! (`RUSTFLAGS="--cfg loom" cargo test -p jdvs-core --test loom`).
//!
//! Each test body runs many times; every atomic access and lock operation
//! on the `crate::sync` facade is a scheduling point, and the shim explores
//! a different pseudo-random interleaving per iteration. A failing
//! interleaving prints its seed; replay it deterministically with
//! `JDVS_LOOM_SEED=<seed>`. `JDVS_LOOM_ITERS` (default 256) scales the
//! exploration budget.
//!
//! The shim executes sequentially-consistent interleavings only, so these
//! models prove *protocol* correctness (lost publications, torn prefixes,
//! deadlocks, double-publishes) — the ThreadSanitizer leg of CI covers the
//! weak-memory axis the shim cannot.
#![cfg(loom)]

use loom::sync::Arc;
use loom::thread;

use jdvs_core::bitmap::AtomicBitmap;
use jdvs_core::forward::ForwardIndex;
use jdvs_core::ids::{ImageId, ListId};
use jdvs_core::inverted::InvertedList;
use jdvs_core::pq_store::{PqStore, FASTSCAN_BLOCK, FIRST_SEGMENT};
use jdvs_core::rows::{RowStore, ROW_BLOCK};
use jdvs_core::swap::IndexHandle;
use jdvs_storage::model::{ProductAttributes, ProductId};
use jdvs_vector::pq::{PqConfig, ProductQuantizer};
use jdvs_vector::rng::Xoshiro256;
use jdvs_vector::Vector;

fn collect(list: &InvertedList) -> Vec<u32> {
    let mut out = Vec::new();
    list.scan(|id| out.push(id.0));
    out
}

/// Protocol 1 — slab append/len pairing: the slot store (relaxed) must be
/// published by the `len` release store, so a concurrent scan sees a dense
/// prefix of the appended ids — never a zero slot below the loaded length.
#[test]
fn slab_append_len_pairing() {
    loom::model(|| {
        let list = Arc::new(InvertedList::new(4, false));
        let writer = {
            let list = Arc::clone(&list);
            thread::spawn(move || {
                list.append(ImageId(7));
                list.append(ImageId(8));
            })
        };
        let seen = collect(&list);
        assert!(
            seen.is_empty() || seen == [7] || seen == [7, 8],
            "scan saw a non-prefix view: {seen:?}"
        );
        writer.join().unwrap();
        assert_eq!(collect(&list), [7, 8]);
    });
}

/// Protocol 2 — migration copy → `copy_done` → publish: an expansion's
/// background copier, a concurrent scan, and the appending writer must
/// agree: the scan sees a prefix of the final contents at all times, the
/// tail insert eventually publishes with **no further appends** (the
/// copier's own publish path or the appender's post-store re-check), and
/// nothing deadlocks or double-publishes.
#[test]
fn migration_copy_publish_protocol() {
    loom::model(|| {
        let list = Arc::new(InvertedList::new(1, true));
        list.append(ImageId(1)); // fills the initial slab
        let reader = {
            let list = Arc::clone(&list);
            thread::spawn(move || {
                let seen = collect(&list);
                assert!(
                    seen.is_empty() || seen == [1] || seen == [1, 2],
                    "mid-migration scan saw a non-prefix view: {seen:?}"
                );
            })
        };
        list.append(ImageId(2)); // triggers expansion; id 2 is a tail insert
        reader.join().unwrap();
        // flush() waits out the copier if it has not self-published yet;
        // either way the final view must be complete and in order.
        list.flush();
        assert_eq!(collect(&list), [1, 2]);
        assert_eq!(list.expansions(), 1);
        assert!(list.capacity() >= 2);
    });
}

/// Protocol 2b — drop during migration joins the copier instead of
/// detaching it (Migration::drop), under every interleaving of the drop
/// with the copier's copy/publish steps.
#[test]
fn migration_drop_joins_copier() {
    loom::model(|| {
        let list = InvertedList::new(1, true);
        list.append(ImageId(1));
        list.append(ImageId(2)); // copier now in flight
        drop(list); // must join, not leak a model thread or deadlock
    });
}

/// Protocol 3 — `VarBuffer` byte store → `url_ref` swing → reader: a
/// reader racing a URL update must decode either the complete old URL or
/// the complete new one; the release swing of the packed word must
/// publish every byte appended before it.
#[test]
fn url_swing_publishes_bytes_before_reference() {
    loom::model(|| {
        let fwd = Arc::new(ForwardIndex::new());
        let id = fwd
            .append(&ProductAttributes::new(ProductId(1), 1, 2, 3, "old".into()))
            .unwrap();
        let updater = {
            let fwd = Arc::clone(&fwd);
            thread::spawn(move || fwd.update_url(id, "new!").unwrap())
        };
        let url = fwd.url(id).unwrap();
        assert!(
            url == "old" || url == "new!",
            "reader decoded a torn URL: {url:?}"
        );
        updater.join().unwrap();
        assert_eq!(fwd.url(id).unwrap(), "new!");
    });
}

/// Protocol 4 — bitmap flip vs. block scan: a scan's borrow of the bitmap
/// must observe flips made while it is live (the rerank recheck depends on
/// this), and a raced flip pair must leave exactly the final state. The
/// second flip lands past the first bucket, so it grows the bitmap while
/// the borrow is live: the borrow pins nothing, so the flipper never
/// waits, and a reader that sees the grown bit sees the flip before it.
#[test]
fn bitmap_flip_vs_block_scan() {
    // Past the first bucket's 4,096 flags: installs bucket 1.
    const GROWN: usize = 4_096 + 6;
    loom::model(|| {
        let bm = Arc::new(AtomicBitmap::new());
        bm.set(3);
        let flipper = {
            let bm = Arc::clone(&bm);
            thread::spawn(move || {
                bm.clear(3);
                bm.set(GROWN);
            })
        };
        let scan = &*bm;
        // Any of the four combinations is a legal snapshot, but the flips
        // land in program order,
        if scan.test(GROWN) {
            assert!(!scan.test(3), "the grown bit is set after the clear");
        }
        // and a bit the flipper never touched always reads clear.
        assert!(!scan.test(GROWN + 1), "untouched bit must read clear");
        flipper.join().unwrap();
        assert!(!scan.test(3) && scan.test(GROWN), "final state must win");
    });
}

/// Forward append vs. record read across a bucket: the append of the
/// first record past the forward index's first bucket installs bucket 1
/// while a reader reads the last record of bucket 0 and, once `len` shows
/// it, the new one. The earlier record must read back whole throughout,
/// and a record `len` admits must hold its appended fields.
#[test]
fn forward_append_opens_a_bucket_beside_a_reader() {
    // Records in the forward index's first bucket.
    const FIRST: u64 = 4_096;
    let attrs = |i: u64| ProductAttributes::new(ProductId(i), i, 2 * i, 0, String::new());
    loom::model(move || {
        let fwd = Arc::new(ForwardIndex::new());
        for i in 0..FIRST {
            fwd.append(&attrs(i)).unwrap();
        }
        let appender = {
            let fwd = Arc::clone(&fwd);
            thread::spawn(move || {
                assert_eq!(fwd.append(&attrs(FIRST)).unwrap(), ImageId(FIRST as u32));
            })
        };
        let last = ImageId(FIRST as u32 - 1);
        let n = fwd.numeric(last).unwrap();
        assert_eq!(
            (n.product_id, n.price),
            (ProductId(FIRST - 1), 2 * (FIRST - 1))
        );
        if fwd.len() > FIRST as usize {
            let n = fwd.numeric(ImageId(FIRST as u32)).unwrap();
            assert_eq!((n.product_id, n.price), (ProductId(FIRST), 2 * FIRST));
        }
        appender.join().unwrap();
        assert_eq!(fwd.numeric(last).unwrap().sales, FIRST - 1);
        assert_eq!(fwd.attributes(ImageId(FIRST as u32)).unwrap(), attrs(FIRST));
    });
}

/// Protocol 5 — `IndexHandle` swap vs. in-flight query: a snapshot taken
/// before, during, or after a swap is always one complete generation
/// (never a mix), old snapshots stay valid after the swap, and the
/// generation counter is published with the new payload.
#[test]
fn handle_swap_vs_inflight_query() {
    loom::model(|| {
        let handle = Arc::new(IndexHandle::<u64>::new(Arc::new(1u64)));
        let swapper = {
            let handle = Arc::clone(&handle);
            thread::spawn(move || {
                let old = handle.swap(Arc::new(2u64));
                assert_eq!(*old, 1, "swap must return the replaced payload");
            })
        };
        let snap = handle.get();
        assert!(*snap == 1 || *snap == 2, "snapshot mixed generations");
        if handle.generation() == 1 {
            // Generation observed ⇒ the new payload is observable too.
            assert_eq!(*handle.get(), 2);
        }
        swapper.join().unwrap();
        assert_eq!(*handle.get(), 2);
        assert_eq!(handle.generation(), 1);
        assert!(*snap == 1 || *snap == 2, "old snapshot stays valid");
    });
}

/// Protocol 6 — PQ block-mask publication, on a list that spans two code
/// segments: positions 224..288 are the last block of the first segment
/// and the first block of the second. All but three lanes are in place;
/// writers fill lanes 15 and 31 of the first block, which share every
/// nibble byte of it, and lane 15 of the second, while a reader walks the
/// two blocks in runs. Any lane a mask admits must read back its exact
/// final code — from the run's tile and through `read_code` — whatever the
/// writers' `fetch_or`s are doing to the other half of the byte, and once
/// the writers are joined both blocks are sealed.
#[test]
fn pq_block_mask_publishes_complete_codes() {
    const M: usize = 2;
    const START: usize = FIRST_SEGMENT - FASTSCAN_BLOCK;
    const END: usize = FIRST_SEGMENT + FASTSCAN_BLOCK;
    const WRITTEN_LATE: [usize; 3] = [START + 15, START + 31, FIRST_SEGMENT + 15];
    let mut rng = Xoshiro256::seed_from(6);
    let data: Vec<Vector> = (0..END)
        .map(|_| (0..4).map(|_| rng.next_gaussian() as f32).collect())
        .collect();
    let pq = std::sync::Arc::new(ProductQuantizer::train(
        &data,
        &PqConfig {
            num_subspaces: M,
            max_iters: 4,
            seed: 1,
        },
    ));
    let data = std::sync::Arc::new(data);
    loom::model(move || {
        let store = Arc::new(PqStore::new(std::sync::Arc::clone(&pq), 1));
        let put = |store: &PqStore, pos: usize| {
            store.put(ImageId(pos as u32), ListId(0), pos, &data[pos]);
        };
        for pos in (START..END).filter(|pos| !WRITTEN_LATE.contains(pos)) {
            put(&store, pos);
        }
        let writers: Vec<_> = WRITTEN_LATE
            .into_iter()
            .map(|pos| {
                let (store, data) = (Arc::clone(&store), std::sync::Arc::clone(&data));
                thread::spawn(move || store.put(ImageId(pos as u32), ListId(0), pos, &data[pos]))
            })
            .collect();

        let check = |expect_sealed: bool| {
            let reader = store.list_reader(ListId(0));
            let mut scratch = [0u8; M * 16];
            let mut code = [0u8; M];
            let mut base = START;
            while base < END {
                let run = reader.load_run(base, END, &mut scratch);
                let (blocks, mask, tiles) = (run.blocks, run.mask, run.tiles.to_vec());
                let late = WRITTEN_LATE
                    .iter()
                    .filter(|&&pos| pos / FASTSCAN_BLOCK == base / FASTSCAN_BLOCK)
                    .fold(0u32, |late, &pos| late | 1 << (pos % FASTSCAN_BLOCK));
                assert_eq!(mask | late, u32::MAX, "pre-filled lanes at {base}");
                assert!(!expect_sealed || mask == u32::MAX, "all 32 lanes are in");
                for at in 0..blocks * FASTSCAN_BLOCK {
                    let (block, lane) = (at / FASTSCAN_BLOCK, at % FASTSCAN_BLOCK);
                    if mask & (1 << lane) == 0 {
                        continue;
                    }
                    let pos = base + at;
                    let want = pq.encode(data[pos].as_slice());
                    for (sub, &c) in want.iter().enumerate() {
                        let byte = tiles[(block * M + sub) * 16 + lane % 16];
                        let got = if lane < 16 { byte & 0x0f } else { byte >> 4 };
                        assert_eq!(got, c, "tile pos {pos} sub {sub} under mask {mask:#x}");
                    }
                    assert!(reader.read_code(pos, &mut code), "admitted pos {pos}");
                    assert_eq!(code[..], want[..], "read_code pos {pos}");
                }
                base += blocks * FASTSCAN_BLOCK;
            }
        };
        check(false);
        for writer in writers {
            writer.join().unwrap();
        }
        check(true);
    });
}

/// Protocol 6, for rows — the block-mask publication of
/// [`RowStore`]: a list of two row blocks, all lanes in place but three,
/// which three writers fill while a reader walks both blocks. Any lane a
/// mask admits must read back its exact final row — in the block walk and
/// by id, through the id map — so a writer that set the published bit
/// before its row's words were stored fails the model; once the writers
/// are joined both blocks are sealed.
#[test]
fn list_row_mask_publishes_complete_rows() {
    const DIM: usize = 2;
    const END: usize = 2 * ROW_BLOCK;
    const WRITTEN_LATE: [usize; 3] = [15, 31, ROW_BLOCK + 15];
    let row = |pos: usize| [pos as f32 + 0.5, -(pos as f32) - 0.25];
    loom::model(move || {
        let store = Arc::new(RowStore::new(DIM, 1));
        for pos in (0..END).filter(|pos| !WRITTEN_LATE.contains(pos)) {
            store.put(ImageId(pos as u32), ListId(0), pos, &row(pos));
        }
        let writers: Vec<_> = WRITTEN_LATE
            .into_iter()
            .map(|pos| {
                let store = Arc::clone(&store);
                thread::spawn(move || store.put(ImageId(pos as u32), ListId(0), pos, &row(pos)))
            })
            .collect();

        let check = |expect_sealed: bool| {
            let list = store.list(ListId(0));
            for b in 0..END / ROW_BLOCK {
                let block = list.block(b).expect("every block has rows");
                let mask = block.published();
                let late = WRITTEN_LATE
                    .iter()
                    .filter(|&&pos| pos / ROW_BLOCK == b)
                    .fold(0u32, |late, &pos| late | 1 << (pos % ROW_BLOCK));
                assert_eq!(mask | late, u32::MAX, "pre-filled lanes of block {b}");
                assert!(!expect_sealed || mask == u32::MAX, "all 32 lanes are in");
                // The late lanes first, right after the mask load: a row
                // published ahead of its words is still being written.
                let lanes = (0..ROW_BLOCK).filter(|lane| late & 1 << lane != 0);
                let lanes = lanes.chain((0..ROW_BLOCK).filter(|lane| late & 1 << lane == 0));
                for lane in lanes.filter(|lane| mask & 1 << lane != 0) {
                    let pos = b * ROW_BLOCK + lane;
                    let got = block.row(lane).with(|r| r.to_vec());
                    assert_eq!(got, row(pos), "pos {pos} under mask {mask:#x}");
                }
            }
            for pos in WRITTEN_LATE {
                // The id map is written after the row's publish: an id it
                // finds has its complete row.
                if let Some(found) = store.snapshot().get(ImageId(pos as u32)) {
                    assert_eq!(found.with(|r| r.to_vec()), row(pos), "by id, pos {pos}");
                }
            }
        };
        check(false);
        for writer in writers {
            writer.join().unwrap();
        }
        check(true);
    });
}
