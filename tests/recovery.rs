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
