//! The durability experiment: ingestion-log append throughput under each
//! fsync policy, and wall-clock recovery time of a crashed topology —
//! cold log replay vs checkpoint-snapshot + suffix.
//!
//! Not a paper figure: the paper's message queue (Section 2.3) and weekly
//! full index make crash recovery implicit. This experiment prices the
//! durable tee the reproduction adds: what `FsyncPolicy::Always` costs per
//! acknowledged event, and how much a checkpoint shortens restart.

use std::sync::Arc;
use std::time::Instant;

use jdvs_durability::log::FRAME_HEADER;
use jdvs_durability::{DurableQueue, FsyncPolicy, LogConfig};
use jdvs_metrics::DurabilityMetrics;
use jdvs_storage::model::{ProductAttributes, ProductEvent, ProductId};
use jdvs_workload::recovery::{RecoveryConfig, RecoveryHarness};

use crate::report::ExperimentResult;
use crate::row;

use super::Ctx;

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("jdvs-bench-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A realistic single-image `AddProduct` (~100-byte frame).
fn synthetic_event(i: u64) -> ProductEvent {
    ProductEvent::AddProduct {
        product_id: ProductId(i + 1),
        images: vec![ProductAttributes::new(
            ProductId(i + 1),
            i % 1_000,
            99 + i % 100_000,
            i % 500,
            format!("https://img.jd.test/sku/{}/img0.jpg", i + 1),
        )],
    }
}

/// Bytes of frames (headers + payloads) the log behind `metrics` wrote.
/// Not the directory's file sizes: the active segment is preallocated.
fn logged_bytes(metrics: &DurabilityMetrics) -> u64 {
    metrics.log_bytes.get() + metrics.log_appends.get() * FRAME_HEADER as u64
}

/// `recovery`: append throughput per fsync policy + restart wall time.
pub fn recovery(ctx: &Ctx) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "recovery",
        "Durable ingestion log: append throughput and crash-recovery time",
        "not in paper — prices durability of the Section 2.3 message queue on searcher restart",
    );

    // Part 1: log append throughput under each fsync policy.
    let n = {
        let base = ctx.scaled(8_000, 1_000);
        if ctx.quick {
            base / 4
        } else {
            base
        }
    };
    for (name, policy) in [
        ("always", FsyncPolicy::Always),
        ("every-64", FsyncPolicy::EveryN(64)),
        ("os", FsyncPolicy::Os),
    ] {
        let dir = scratch(name);
        let mut config = LogConfig::new(dir.join("wal"));
        config.fsync = policy;
        let metrics = Arc::new(DurabilityMetrics::new());
        let dq = DurableQueue::open(config, Arc::clone(&metrics)).expect("open log");
        let t0 = Instant::now();
        for i in 0..n {
            dq.queue().publish(synthetic_event(i as u64));
        }
        dq.sync().expect("final sync");
        let secs = t0.elapsed().as_secs_f64();
        let mb = logged_bytes(&metrics) as f64 / (1024.0 * 1024.0);
        result.push_row(row![
            "phase" => "append",
            "detail" => format!("fsync-{name}"),
            "events" => n,
            "wall_ms" => format!("{:.1}", secs * 1e3),
            "rate_per_sec" => format!("{:.0}", n as f64 / secs),
            "mb_per_sec" => format!("{:.1}", mb / secs),
        ]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Part 1b: group commit under concurrent publishers. `Always` with one
    // writer pays one fdatasync per event no matter what; the win shows up
    // when several ingestion threads publish at once and a single leader
    // sync retires the whole burst. Same loss bound in both rows.
    let writers = 4usize;
    let per_writer = n / writers;
    let mut sync_counts = Vec::new();
    for (name, group_commit) in [("always-4w", false), ("always-4w-group", true)] {
        let dir = scratch(name);
        let mut config = LogConfig::new(dir.join("wal"));
        config.fsync = FsyncPolicy::Always;
        config.group_commit = group_commit;
        let metrics = Arc::new(DurabilityMetrics::new());
        let dq = DurableQueue::open(config, Arc::clone(&metrics)).expect("open log");
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for w in 0..writers {
                let queue = Arc::clone(dq.queue());
                s.spawn(move || {
                    for i in 0..per_writer {
                        queue.publish(synthetic_event((w * per_writer + i) as u64));
                    }
                });
            }
        });
        dq.sync().expect("final sync");
        let secs = t0.elapsed().as_secs_f64();
        let events = writers * per_writer;
        let mb = logged_bytes(&metrics) as f64 / (1024.0 * 1024.0);
        result.push_row(row![
            "phase" => "append",
            "detail" => format!("fsync-{name}"),
            "events" => events,
            "wall_ms" => format!("{:.1}", secs * 1e3),
            "rate_per_sec" => format!("{:.0}", events as f64 / secs),
            "mb_per_sec" => format!("{:.1}", mb / secs),
        ]);
        sync_counts.push(format!("{name}: {} syncs", metrics.log_syncs.get()));
        let _ = std::fs::remove_dir_all(&dir);
    }
    result.note(format!(
        "group commit, {} events over {writers} writers — {}",
        writers * per_writer,
        sync_counts.join("; ")
    ));

    // Part 2: restart wall time over a real topology — fresh boot (no
    // state, the baseline the other rows pay on top of), cold replay of
    // the whole log, and snapshot + empty suffix after a checkpoint.
    let products = {
        let base = ctx.scaled(3_000, 120);
        if ctx.quick {
            base / 2
        } else {
            base
        }
    };
    let dir = scratch("restart");
    let mut recovery_config = RecoveryConfig::fast(&dir);
    recovery_config.num_products = products;
    recovery_config.probes = 4;
    recovery_config.options.segment_max_bytes = 256 * 1024;
    let harness = RecoveryHarness::new(recovery_config);
    let total = harness.events().len();

    let mut boot = |detail: &str| {
        let t0 = Instant::now();
        let topology = harness.boot().expect("boot");
        let secs = t0.elapsed().as_secs_f64();
        let replayed: u64 = topology
            .recovery_reports()
            .expect("durable topology")
            .iter()
            .map(|r| r.replayed)
            .sum();
        result.push_row(row![
            "phase" => "restart",
            "detail" => detail,
            "events" => replayed,
            "wall_ms" => format!("{:.1}", secs * 1e3),
            "rate_per_sec" => format!("{:.0}", replayed as f64 / secs),
            "mb_per_sec" => 0,
        ]);
        topology
    };

    let topology = boot("fresh-boot");
    let publish_start = Instant::now();
    harness.publish(&topology, 0..total);
    let ingest_secs = publish_start.elapsed().as_secs_f64();
    harness.halt(topology);

    let topology = boot("cold-replay");
    topology.checkpoint_partition(0).expect("checkpoint p0");
    topology.checkpoint_partition(1).expect("checkpoint p1");
    harness.halt(topology);

    let topology = boot("snapshot+suffix");
    harness.halt(topology);

    result.note(format!(
        "backlog: {total} events across 2 partitions; live ingest of the same stream took {:.1} ms",
        ingest_secs * 1e3
    ));
    result.note(
        "restart rows time SearchTopology::build_durable end-to-end; fresh-boot is the no-state baseline",
    );
    let _ = std::fs::remove_dir_all(&dir);
    result
}
