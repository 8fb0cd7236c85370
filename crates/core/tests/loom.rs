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

/// Protocol 4 — bitmap flip vs. block scan: a pinned `BitmapReader` must
/// observe flips made while it is live (the rerank recheck depends on
/// this), and a raced flip pair must leave exactly the final state.
/// Capacity is pre-sized so no growth happens while the reader pins the
/// word array (growth while pinned is the one forbidden interleaving —
/// the writer would spin on the write lock until the reader drops).
#[test]
fn bitmap_flip_vs_block_scan() {
    loom::model(|| {
        let bm = Arc::new(AtomicBitmap::with_capacity(256));
        bm.set(3);
        let flipper = {
            let bm = Arc::clone(&bm);
            thread::spawn(move || {
                bm.clear(3);
                bm.set(70);
            })
        };
        {
            let r = bm.reader();
            // Any of the four combinations is a legal snapshot, but a set
            // bit the flipper never touched must always read as set.
            let _ = (r.test(3), r.test(70));
            assert!(!r.test(128), "untouched bit must read clear");
        } // reader guard drops before the join: the flipper may need set()'s read lock
        flipper.join().unwrap();
        assert!(!bm.test(3) && bm.test(70), "final state must win");
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
