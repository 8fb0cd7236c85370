//! Crash-injection integration suite for the durability subsystem.
//!
//! Every test kills a live durable topology (or queue) at some point in
//! its ingestion stream, optionally mutilates the on-disk log tail the way
//! an OS crash would, reboots on the same directory, and checks the
//! recovery contract:
//!
//! - under `FsyncPolicy::Always` the recovered searchable set is
//!   **bit-identical** to the acknowledged pre-crash state (same ranked
//!   results, same float distances, same attributes);
//! - torn or corrupt log tails are CRC-detected and cleanly truncated to
//!   the last valid frame — recovery never panics and never indexes
//!   garbage, it just loses the un-fsynced suffix.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jdvs::durability::log::valid_len;
use jdvs::durability::{DurableQueue, FsyncPolicy, LogConfig};
use jdvs::metrics::DurabilityMetrics;
use jdvs::storage::model::{ProductEvent, ProductId};
use jdvs::workload::recovery::{
    run_crash_cycle, CrashCycleConfig, RecoveryConfig, RecoveryHarness,
};

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "jdvs-recovery-{}-{}-{}",
        tag,
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Killing ingestion after 1, 7, 23 or all events and rebooting from the
/// log alone reproduces the exact acknowledged searchable set: every probe
/// query answers identically down to the distance bits.
#[test]
fn kill_at_arbitrary_points_is_lossless_under_fsync_always() {
    kill_at_arbitrary_points(false);
}

/// A mid-stream checkpoint makes reboot recover from the snapshot and
/// replay only the suffix past its watermark — with identical results.
#[test]
fn checkpoint_mid_stream_recovers_from_snapshot_and_replays_only_suffix() {
    checkpoint_mid_stream(false);
}

/// The same crash cycles on the harness's PQ shape, where every probe is
/// answered by the compressed scan: a recovered life must serve the
/// codebook the killed one served.
mod pq {
    #[test]
    fn kill_at_arbitrary_points_is_lossless_under_fsync_always() {
        super::kill_at_arbitrary_points(true);
    }

    #[test]
    fn checkpoint_mid_stream_recovers_from_snapshot_and_replays_only_suffix() {
        super::checkpoint_mid_stream(true);
    }
}

fn kill_at_arbitrary_points(pq: bool) {
    let dir = scratch_dir("kill-points");
    let stream_len = RecoveryHarness::new(RecoveryConfig::fast(&dir))
        .events()
        .len();
    for crash_after in [1, 7, 23, stream_len] {
        let dir = scratch_dir("kill-point");
        let outcome = run_crash_cycle(CrashCycleConfig {
            recovery: RecoveryConfig {
                pq,
                ..RecoveryConfig::fast(&dir)
            },
            crash_after,
            checkpoint_at: None,
            tear_tail_bytes: 0,
        })
        .expect("crash cycle");
        assert_eq!(
            outcome.recovered_events, crash_after as u64,
            "every acknowledged event must survive the kill at {crash_after}"
        );
        assert!(!outcome.from_snapshot, "no checkpoint was taken");
        assert_eq!(
            outcome.replayed,
            2 * crash_after as u64,
            "both partitions cold-replay the whole log"
        );
        assert_eq!(
            outcome.divergent_probes, 0,
            "recovered results diverged after kill at {crash_after}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn checkpoint_mid_stream(pq: bool) {
    let dir = scratch_dir("ckpt");
    let recovery = RecoveryConfig {
        pq,
        ..RecoveryConfig::fast(&dir)
    };
    let stream_len = RecoveryHarness::new(recovery.clone()).events().len();
    let checkpoint_at = stream_len / 2;
    let outcome = run_crash_cycle(CrashCycleConfig {
        recovery,
        crash_after: stream_len,
        checkpoint_at: Some(checkpoint_at),
        tear_tail_bytes: 0,
    })
    .expect("crash cycle");
    assert!(outcome.from_snapshot, "reboot must use the checkpoint");
    assert_eq!(
        outcome.replayed,
        2 * (stream_len - checkpoint_at) as u64,
        "only the post-checkpoint suffix is replayed"
    );
    assert!(
        outcome.recovered_events <= stream_len as u64,
        "retention may have pruned covered segments"
    );
    assert_eq!(
        outcome.divergent_probes, 0,
        "snapshot recovery must be exact"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tearing into the final log frame loses exactly that un-fsynced record:
/// the reboot truncates the tail, recovers the remaining prefix, and keeps
/// serving queries without panicking.
#[test]
fn torn_tail_loses_only_the_final_record_and_still_serves() {
    let dir = scratch_dir("tear");
    let mut recovery = RecoveryConfig::fast(&dir);
    recovery.num_products = 20;
    let outcome = run_crash_cycle(CrashCycleConfig {
        recovery,
        crash_after: 20,
        checkpoint_at: None,
        tear_tail_bytes: 5, // strictly inside the last frame
    })
    .expect("crash cycle");
    assert_eq!(
        outcome.recovered_events, 19,
        "a 5-byte tear must cost exactly the final record"
    );
    assert_eq!(outcome.replayed, 2 * 19);
    assert!(
        outcome.divergent_probes <= outcome.probes,
        "probes must complete (no panic, no garbage) even when the tail was lost"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flipped byte in the last frame's payload fails its CRC32C: the frame
/// is discarded — never decoded into the index — and recovery proceeds
/// with the valid prefix.
#[test]
fn corrupt_tail_byte_is_detected_and_truncated_cleanly() {
    let dir = scratch_dir("corrupt");
    let mut recovery = RecoveryConfig::fast(&dir);
    recovery.num_products = 20;
    let harness = RecoveryHarness::new(recovery);

    let topology = harness.boot().expect("first boot");
    harness.publish(&topology, 0..20);
    harness.halt(topology);
    harness.corrupt_tail_byte(3).expect("flip a payload byte");

    let topology = harness.boot().expect("reboot over corrupt tail");
    let queue = topology.durable_queue().expect("durable topology");
    assert_eq!(
        queue.recovered_events(),
        19,
        "the corrupt record must be dropped, the prefix kept"
    );
    assert_eq!(queue.open_report().corrupt_records, 1);
    let probes = harness.probe(&topology);
    assert!(
        probes.iter().any(|p| !p.is_empty()),
        "recovered index must answer queries"
    );
    harness.halt(topology);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Progressively truncating the log one byte at a time hits every byte
/// offset in every tail frame. Each reopen must succeed, monotonically
/// shrink the recovered prefix, and decode only intact records.
#[test]
fn truncation_at_every_byte_offset_never_panics_and_recovers_a_valid_prefix() {
    let dir = scratch_dir("every-byte");
    let mut config = LogConfig::new(dir.join("wal"));
    config.fsync = FsyncPolicy::Always;
    config.segment_max_bytes = 1 << 20;

    let published = 12u64;
    {
        let dq = DurableQueue::open(config.clone(), Arc::new(DurabilityMetrics::new()))
            .expect("fresh open");
        for i in 0..published {
            dq.queue().publish(ProductEvent::RemoveProduct {
                product_id: ProductId(i + 1),
                urls: vec![format!("https://img.jd.test/sku/{}/img0.jpg", i + 1)],
            });
        }
    }

    let segment = {
        let mut segs: Vec<_> = std::fs::read_dir(dir.join("wal"))
            .expect("wal dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "seg"))
            .collect();
        segs.sort();
        assert_eq!(segs.len(), 1, "single-segment fixture");
        segs.remove(0)
    };

    let mut last_recovered = published;
    loop {
        let len = valid_len(&segment).expect("segment scan");
        if len == 0 {
            break;
        }
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&segment)
            .expect("open segment");
        file.set_len(len - 1).expect("truncate one byte");
        drop(file);

        let dq = DurableQueue::open(config.clone(), Arc::new(DurabilityMetrics::new()))
            .expect("reopen over torn tail");
        let recovered = dq.recovered_events();
        assert!(
            recovered <= last_recovered,
            "recovered prefix must shrink monotonically ({recovered} > {last_recovered})"
        );
        assert!(
            recovered < published,
            "a torn byte must cost at least the tail record"
        );
        // Continuation after a tear stays on absolute offsets: the next
        // publish lands exactly at the recovered prefix length.
        let offset = dq.queue().publish(ProductEvent::RemoveProduct {
            product_id: ProductId(999),
            urls: vec![],
        });
        assert_eq!(
            offset, recovered,
            "append offset must continue the valid prefix"
        );
        last_recovered = recovered;
        // Remove the probe record again so the next iteration tears into
        // the original stream, not our probe frame.
        let len = valid_len(&segment).expect("segment scan");
        drop(dq);
        let tail = {
            let mut bytes = std::fs::read(&segment).expect("read segment");
            bytes.truncate(len as usize);
            bytes.len() as u64 - frame_len_at_end(&bytes)
        };
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&segment)
            .expect("open segment");
        file.set_len(tail.min(len)).expect("drop probe frame");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Length of the final frame of `bytes` (header + payload), found by
/// walking frames from the start — mirrors the log's framing:
/// `[len:u32le][crc:u32le][payload]`.
fn frame_len_at_end(bytes: &[u8]) -> u64 {
    let mut pos = 0usize;
    let mut last = 0usize;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if pos + 8 + len > bytes.len() {
            break;
        }
        last = 8 + len;
        pos += 8 + len;
    }
    last as u64
}

/// An amortized-fsync log still reopens cleanly after an arbitrary tear:
/// the loss bound is the un-synced suffix, never a panic and never a
/// mis-decoded record.
#[test]
fn every_n_policy_survives_arbitrary_tear_with_bounded_loss() {
    let dir = scratch_dir("every-n");
    let mut recovery = RecoveryConfig::fast(&dir);
    recovery.options.fsync = FsyncPolicy::EveryN(4);
    recovery.num_products = 16;
    let outcome = run_crash_cycle(CrashCycleConfig {
        recovery,
        crash_after: 16,
        checkpoint_at: None,
        tear_tail_bytes: 37,
    })
    .expect("crash cycle");
    assert_eq!(
        outcome.recovered_events, 15,
        "the tear must cost exactly the record it landed in, nothing more"
    );
    assert_eq!(outcome.replayed, 2 * outcome.recovered_events);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Per-key log compaction must be invisible to recovery: a cold replay of
/// the compacted log reconstructs byte-for-byte the same forward-index
/// state (presence, validity, every numeric attribute and listing field,
/// per image URL) as a replay of the original log — while the log itself
/// shrinks and keeps every offset.
#[test]
fn compaction_preserves_cold_recovery_state_exactly() {
    use jdvs::core::config::IndexConfig;
    use jdvs::core::index::VisualIndex;
    use jdvs::core::realtime::RealtimeIndexer;
    use jdvs::durability::compact_log;
    use jdvs::features::cost::CostModel;
    use jdvs::features::{CachingExtractor, ExtractorConfig, FeatureExtractor};
    use jdvs::storage::model::{ImageKey, ProductAttributes};
    use jdvs::storage::{FeatureDb, ImageStore};
    use jdvs::vector::Vector;
    use std::collections::BTreeMap;

    const DIM: usize = 8;
    const URLS: u64 = 12;
    const ROUNDS: u64 = 6;
    let url_of = |i: u64| format!("https://img.jd.test/churn/{i}.jpg");

    let dir = scratch_dir("compact-equiv");
    let wal = dir.join("wal");
    let mut config = LogConfig::new(&wal);
    config.fsync = FsyncPolicy::Always;
    config.segment_max_bytes = 192; // a few events per segment: many cold segments

    let images = Arc::new(ImageStore::with_blob_len(64));
    for i in 0..URLS {
        images.put_synthetic(&url_of(i), i * 131);
    }

    // A churn stream with heavy per-URL supersession: each URL cycles
    // through add / partial update / remove / full update across rounds,
    // so later adds shadow whole earlier histories (and some updates race
    // ahead of their adds, exercising the dead-letter path identically on
    // both replays).
    {
        let dq = DurableQueue::open(config.clone(), Arc::new(DurabilityMetrics::new()))
            .expect("fresh open");
        for round in 0..ROUNDS {
            for i in 0..URLS {
                let pid = ProductId(i);
                let event = match (round + i) % 4 {
                    0 => ProductEvent::AddProduct {
                        product_id: pid,
                        images: vec![ProductAttributes::new(
                            pid,
                            round * 10 + i,
                            100 + i,
                            round,
                            url_of(i),
                        )],
                    },
                    1 => ProductEvent::UpdateAttributes {
                        product_id: pid,
                        urls: vec![url_of(i)],
                        sales: Some(round * 100 + i),
                        price: None,
                        praise: None,
                    },
                    2 => ProductEvent::RemoveProduct {
                        product_id: pid,
                        urls: vec![url_of(i)],
                    },
                    _ => ProductEvent::UpdateAttributes {
                        product_id: pid,
                        urls: vec![url_of(i)],
                        sales: Some(round),
                        price: Some(55 + i),
                        praise: Some(round + 2),
                    },
                };
                dq.queue().publish(event);
            }
        }
    }

    // Cold-replays the whole log through a fresh indexer and captures the
    // observable per-URL state.
    type UrlState = (bool, bool, u64, u64, u64, u64, u32, bool);
    let replay_state = |images: &Arc<ImageStore>| -> (u64, usize, BTreeMap<u64, UrlState>) {
        let dq =
            DurableQueue::open(config.clone(), Arc::new(DurabilityMetrics::new())).expect("reopen");
        let mut rng = jdvs::vector::rng::Xoshiro256::seed_from(5);
        let train: Vec<Vector> = (0..64)
            .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let index = Arc::new(VisualIndex::bootstrap(
            IndexConfig {
                dim: DIM,
                num_lists: 4,
                ..Default::default()
            },
            &train,
        ));
        let indexer = RealtimeIndexer::for_index(
            index,
            Arc::new(CachingExtractor::new(
                FeatureExtractor::new(ExtractorConfig {
                    dim: DIM,
                    ..Default::default()
                }),
                CostModel::free(),
            )),
            Arc::clone(images),
            Arc::new(FeatureDb::new()),
        );
        let events = dq.queue().read_range(0, usize::MAX);
        for (off, event) in events.iter().enumerate() {
            indexer.apply_at(off as u64, event);
        }
        let index = indexer.index();
        index.flush();
        let mut state = BTreeMap::new();
        for i in 0..URLS {
            let entry = match index.lookup(ImageKey::from_url(&url_of(i))) {
                Some(id) => {
                    let a = index.attributes(id).expect("resolved id has attributes");
                    (
                        true,
                        index.is_valid(id),
                        a.product_id.0,
                        a.sales,
                        a.price,
                        a.praise,
                        a.category,
                        a.in_stock,
                    )
                }
                None => (false, false, 0, 0, 0, 0, 0, false),
            };
            state.insert(i, entry);
        }
        (events.len() as u64, index.valid_images(), state)
    };

    let before = replay_state(&images);
    let log_bytes_before: u64 = std::fs::read_dir(&wal)
        .expect("wal dir")
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();

    let report = compact_log(&wal, &DurabilityMetrics::new()).expect("compaction");
    assert!(
        report.events_dropped > 0,
        "churn must leave superseded events"
    );
    assert!(report.segments_rewritten > 0);
    assert!(report.bytes_reclaimed > 0);

    let after = replay_state(&images);
    let log_bytes_after: u64 = std::fs::read_dir(&wal)
        .expect("wal dir")
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    assert_eq!(
        before, after,
        "compacted replay must reconstruct the identical index state"
    );
    assert_eq!(before.0, ROUNDS * URLS, "every offset survives compaction");
    assert!(
        log_bytes_after + report.bytes_reclaimed <= log_bytes_before,
        "reclaimed bytes must actually leave the disk"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
