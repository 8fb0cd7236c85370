//! Crash-injection suite for the partition lifecycle: checkpoint-seeded
//! rebuild, replica bootstrap and online split.
//!
//! Every scenario kills a durable topology at some point in a lifecycle
//! operation (or mutilates the on-disk state the way a mid-operation crash
//! would), reboots on the same directory, and holds the recovered world to
//! one standard: its probe answers must be **bit-identical** to a cold
//! full rebuild of the same log — same ranked results, same float
//! distances, same attributes ([`RecoveryHarness::cold_reference_probe`]).
//!
//! The lifecycle operations themselves write nothing mid-flight except
//! through atomic temp-file + rename commits, so each crash point maps to
//! a concrete on-disk state the harness can produce:
//!
//! - a kill during a replica bootstrap's log-tail leaves only the
//!   pre-bootstrap checkpoints and the log (the bootstrap is memory-only);
//! - a kill between an online split's half-swaps leaves the committed
//!   durable artifacts (sibling checkpoint, layout file) with the
//!   in-memory swaps lost;
//! - a crash *before* the split's layout commit leaves an orphan sibling
//!   store the old layout must ignore;
//! - a crash right *after* it leaves the parent's pre-split checkpoint,
//!   which a restart must narrow to the committed layout;
//! - a write that fails after the commit point fails nothing: the split
//!   completes, and the running layout is the one a restart reads;
//! - a torn checkpoint write leaves a corrupt newest snapshot the
//!   manifest still names — recovery must walk the fallback chain;
//! - a crash between a checkpoint temp write and its rename strands
//!   `*.tmp` files the next boot must sweep.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use jdvs::core::{ImageId, VisualIndex};
use jdvs::search::SearchQuery;
use jdvs::storage::ProductEvent;
use jdvs::workload::recovery::{RecoveryConfig, RecoveryHarness};

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "jdvs-lifecycle-{}-{}-{}",
        tag,
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A kill while a freshly bootstrapped replica is still the only one that
/// tailed the latest events: the bootstrap wrote nothing durable, so the
/// reboot must rebuild the acknowledged set from the pre-bootstrap
/// checkpoints plus the log — and match a cold rebuild exactly.
#[test]
fn kill_during_bootstrap_tail_recovers_bit_identical() {
    kill_during_bootstrap_tail(false);
}

/// The bootstrap and restart scenarios on the harness's PQ shape, where
/// every probe is answered by the compressed scan. Split and rebuild stay
/// raw-only: they retrain per partition by design, so their compressed
/// answers need not match a cold rebuild's.
mod pq {
    #[test]
    fn kill_during_bootstrap_tail_recovers_bit_identical() {
        super::kill_during_bootstrap_tail(true);
    }

    #[test]
    fn stranded_tmp_sweep_then_immediate_bootstrap() {
        super::stranded_tmp_sweep(true);
    }
}

/// A replica bootstrapped from a checkpoint serves the codebook its
/// sibling serves: every compressed self-query of the partition answers
/// identically on both, compared index to index so the balancer's choice
/// of replica does not matter.
#[test]
fn bootstrapped_pq_replica_answers_like_its_sibling() {
    let dir = scratch_dir("pq-sibling");
    let harness = RecoveryHarness::new(RecoveryConfig {
        pq: true,
        ..RecoveryConfig::fast(&dir)
    });
    let n = harness.events().len();

    let mut topology = harness.boot().expect("first boot");
    harness.publish(&topology, 0..n / 2);
    topology.checkpoint_partition(0).expect("checkpoint p0");
    topology.checkpoint_partition(1).expect("checkpoint p1");
    harness.publish(&topology, n / 2..n);
    for p in 0..2 {
        assert!(topology.bootstrap_replica(p).from_snapshot);
        let (sibling, joined) = (topology.index(p, 0), topology.index(p, 1));
        let (nprobe, rerank_factor) = (sibling.config().nprobe, sibling.config().rerank_factor);
        let answer =
            |index: &VisualIndex, q: &[f32]| index.search_compressed(q, 5, nprobe, rerank_factor);
        let ids: Vec<ImageId> = (0..sibling.num_images() as u32)
            .map(ImageId)
            .filter(|&id| sibling.is_valid(id))
            .collect();
        let divergent = ids
            .iter()
            .filter(|&&id| {
                let q = sibling.features(id).expect("a stored image");
                answer(&sibling, q.as_slice()) != answer(&joined, q.as_slice())
            })
            .count();
        assert_eq!(
            divergent,
            0,
            "partition {p}: {divergent} of {} compressed self-queries answered differently",
            ids.len()
        );
        assert_eq!(joined.pq_quantizer(), sibling.pq_quantizer());
    }
    harness.halt(topology);
    let _ = std::fs::remove_dir_all(&dir);
}

fn kill_during_bootstrap_tail(pq: bool) {
    let dir = scratch_dir("boot-tail");
    let harness = RecoveryHarness::new(RecoveryConfig {
        pq,
        ..RecoveryConfig::fast(&dir)
    });
    let n = harness.events().len();

    let mut topology = harness.boot().expect("first boot");
    harness.publish(&topology, 0..n / 3);
    topology.checkpoint_partition(0).expect("checkpoint p0");
    topology.checkpoint_partition(1).expect("checkpoint p1");
    harness.publish(&topology, n / 3..2 * n / 3);

    let report = topology.bootstrap_replica(0);
    assert!(report.from_snapshot, "durable bootstrap seeds from disk");
    assert_eq!(report.replica, 1, "joins after the configured replica");

    // The new replica serves the rest of the stream, then the process
    // dies without checkpointing anything it tailed.
    harness.publish(&topology, 2 * n / 3..n);
    let before = harness.probe(&topology);
    harness.halt(topology);

    let topology = harness.boot().expect("reboot");
    let after = harness.probe(&topology);
    assert_eq!(after, before, "reboot diverged from the killed life");
    assert_eq!(
        after,
        harness.cold_reference_probe(n),
        "reboot diverged from a cold full rebuild of the log"
    );
    harness.halt(topology);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A kill right between an online split's half-swaps: the durable
/// artifacts (sibling checkpoint at the cut, layout file) are committed
/// but the in-memory swaps die with the process. The reboot must
/// reconstruct the three-way layout and lose nothing — including the
/// events published after the split.
#[test]
fn kill_between_split_half_swaps_recovers_bit_identical() {
    // Raw only: split and rebuild retrain per partition by design.
    let dir = scratch_dir("split-swap");
    let harness = RecoveryHarness::new(RecoveryConfig::fast(&dir));
    let n = harness.events().len();

    let mut topology = harness.boot().expect("first boot");
    harness.publish(&topology, 0..n / 3);
    topology.checkpoint_partition(0).expect("checkpoint p0");
    topology.checkpoint_partition(1).expect("checkpoint p1");
    harness.publish(&topology, n / 3..2 * n / 3);

    let report = topology.split_partition(0).expect("online split");
    assert_eq!(report.sibling, 2);
    assert!(report.from_snapshot, "split seeds from the checkpoint");

    harness.publish(&topology, 2 * n / 3..n);
    let before = harness.probe(&topology);
    harness.halt(topology);

    let topology = harness.boot().expect("reboot");
    assert_eq!(
        topology.partition_map().num_partitions(),
        3,
        "the persisted layout reconstructs the split"
    );
    assert_eq!(topology.recovery_reports().expect("durable").len(), 3);
    let after = harness.probe(&topology);
    assert_eq!(after, before, "reboot diverged from the killed life");
    assert_eq!(
        after,
        harness.cold_reference_probe(n),
        "reboot diverged from a cold full rebuild of the log"
    );

    // The post-split checkpoint chain is sound: checkpoint all three
    // halves, kill, reboot — still bit-identical.
    for p in 0..3 {
        topology.checkpoint_partition(p).expect("post-split ckpt");
    }
    harness.halt(topology);
    let topology = harness.boot().expect("third life");
    assert_eq!(
        harness.probe(&topology),
        before,
        "post-split checkpoints diverged"
    );
    harness.halt(topology);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A split that crashed after creating its sibling's checkpoint store but
/// before the layout file committed: the orphan store (with garbage
/// contents, even) must be ignored by a reboot under the old layout.
#[test]
fn orphan_sibling_store_from_aborted_split_is_ignored() {
    let dir = scratch_dir("orphan");
    let harness = RecoveryHarness::new(RecoveryConfig::fast(&dir));
    let n = harness.events().len();

    let topology = harness.boot().expect("first boot");
    harness.publish(&topology, 0..n);
    topology.checkpoint_partition(0).expect("checkpoint p0");
    topology.checkpoint_partition(1).expect("checkpoint p1");
    let before = harness.probe(&topology);
    harness.halt(topology);

    harness
        .plant_orphan_sibling_store(2)
        .expect("plant orphan store");

    let topology = harness.boot().expect("reboot");
    assert_eq!(
        topology.partition_map().num_partitions(),
        2,
        "an uncommitted split must not change the layout"
    );
    assert_eq!(harness.probe(&topology), before);
    harness.halt(topology);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn checkpoint write during a rebuild cycle: the newest snapshot is
/// corrupt but still named by the manifest. Recovery must walk down the
/// fallback chain to the older snapshot, converge bit-identically, and a
/// follow-up rebuild + checkpoint must repair the chain.
#[test]
fn torn_checkpoint_during_rebuild_falls_back_and_converges() {
    // Raw only: split and rebuild retrain per partition by design.
    let dir = scratch_dir("torn-ckpt");
    let harness = RecoveryHarness::new(RecoveryConfig::fast(&dir));
    let n = harness.events().len();

    let topology = harness.boot().expect("first boot");
    harness.publish(&topology, 0..n / 3);
    topology.checkpoint_partition(0).expect("older checkpoint");
    topology.checkpoint_partition(1).expect("checkpoint p1");
    harness.publish(&topology, n / 3..2 * n / 3);
    topology.checkpoint_partition(0).expect("newest checkpoint");
    harness.publish(&topology, 2 * n / 3..n);
    let before = harness.probe(&topology);
    harness.halt(topology);

    assert!(
        harness.corrupt_newest_checkpoint(0).expect("corrupt"),
        "there must be a snapshot to tear"
    );

    let topology = harness.boot().expect("reboot");
    let after = harness.probe(&topology);
    assert_eq!(after, before, "fallback recovery diverged");
    assert_eq!(
        after,
        harness.cold_reference_probe(n),
        "fallback recovery diverged from a cold rebuild"
    );

    // Repair: a rebuild re-seeds from the surviving snapshot and a fresh
    // checkpoint replaces the torn one at the head of the chain.
    let report = topology.rebuild_partition(0);
    assert!(report.snapshot_bytes > 0, "rebuild produced a snapshot");
    assert_eq!(harness.probe(&topology), before, "rebuild diverged");
    topology.checkpoint_partition(0).expect("repair checkpoint");
    harness.halt(topology);

    let topology = harness.boot().expect("third life");
    assert_eq!(harness.probe(&topology), before, "repaired chain diverged");
    harness.halt(topology);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Stranded `*.tmp` files from a crash between a checkpoint's temp write
/// and its rename: the next boot sweeps them, and lifecycle operations
/// (replica bootstraps on both partitions, immediately after the sweep)
/// run over the swept stores without tripping on the leftovers.
#[test]
fn stranded_tmp_sweep_then_immediate_bootstrap() {
    stranded_tmp_sweep(false);
}

fn stranded_tmp_sweep(pq: bool) {
    let dir = scratch_dir("tmp-sweep");
    let harness = RecoveryHarness::new(RecoveryConfig {
        pq,
        ..RecoveryConfig::fast(&dir)
    });
    let n = harness.events().len();

    let topology = harness.boot().expect("first boot");
    harness.publish(&topology, 0..n);
    topology.checkpoint_partition(0).expect("checkpoint p0");
    topology.checkpoint_partition(1).expect("checkpoint p1");
    let before = harness.probe(&topology);
    harness.halt(topology);

    harness.strand_checkpoint_tmp(0).expect("strand p0");
    harness.strand_checkpoint_tmp(1).expect("strand p1");

    let mut topology = harness.boot().expect("reboot sweeps");
    for p in 0..2 {
        let leftovers: Vec<_> = std::fs::read_dir(harness.checkpoint_dir(p))
            .expect("store dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "tmp files must be swept: {leftovers:?}"
        );
    }
    // Lifecycle straight after the sweep: both bootstraps read the stores
    // the sweep just cleaned, serialized on the maintenance mutex.
    for p in 0..2 {
        let report = topology.bootstrap_replica(p);
        assert!(report.from_snapshot, "bootstrap seeds from the snapshot");
    }
    assert_eq!(harness.probe(&topology), before);
    harness.halt(topology);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `(product id, url)` of every image the planned stream adds.
fn added_images(harness: &RecoveryHarness) -> Vec<(jdvs::storage::ProductId, String)> {
    harness
        .events()
        .iter()
        .filter_map(|e| match e {
            ProductEvent::AddProduct { product_id, images } => Some(
                images
                    .iter()
                    .map(|a| (*product_id, a.url.clone()))
                    .collect::<Vec<_>>(),
            ),
            _ => None,
        })
        .flatten()
        .collect()
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy");
    for entry in std::fs::read_dir(from).expect("read store") {
        let path = entry.expect("store entry").path();
        std::fs::copy(&path, to.join(path.file_name().expect("file name"))).expect("copy file");
    }
}

/// The commit rule: the rename of the partition-map file is the split's
/// one commit point, so a failure planted after it — a directory at the
/// temp path a narrowed parent checkpoint at the cut would be written
/// through, which makes `File::create` fail even for root — cannot fail
/// the split. The running layout then equals the one a restart reads, and
/// the restarted world serves every image exactly once.
#[test]
fn split_failing_after_the_layout_commit_completes() {
    // Raw only: split and rebuild retrain per partition by design.
    let dir = scratch_dir("commit-rule");
    let harness = RecoveryHarness::new(RecoveryConfig::fast(&dir));
    let adds: Vec<ProductEvent> = harness
        .events()
        .iter()
        .filter(|e| matches!(e, ProductEvent::AddProduct { .. }))
        .cloned()
        .collect();
    let urls: Vec<String> = added_images(&harness)
        .into_iter()
        .map(|(_, url)| url)
        .collect();

    let mut topology = harness.boot().expect("first boot");
    let publish = |topology: &jdvs::search::SearchTopology, events: &[ProductEvent]| {
        for event in events {
            topology.publish(event.clone());
        }
        topology.wait_for_freshness(Duration::from_secs(60));
    };
    publish(&topology, &adds[..adds.len() / 2]);
    topology.checkpoint_partition(0).expect("checkpoint p0");
    topology.checkpoint_partition(1).expect("checkpoint p1");
    publish(&topology, &adds[adds.len() / 2..]);

    let cut = topology.queue().len();
    let trap = harness
        .checkpoint_dir(0)
        .join(format!("snap-{cut:020}.ckpt.tmp"));
    std::fs::create_dir_all(&trap).expect("plant the trap");
    topology
        .split_partition(0)
        .expect("a failure after the commit point completes the split");
    assert_eq!(
        topology.partition_map().num_partitions(),
        3,
        "the running layout is the committed one"
    );
    harness.halt(topology);
    // Opening a store sweeps `*.tmp` files, which a directory is not.
    std::fs::remove_dir_all(&trap).expect("remove the trap");

    let topology = harness.boot().expect("reboot");
    assert_eq!(topology.partition_map().num_partitions(), 3);
    assert_eq!(topology.ops_report().logical_valid_images(), urls.len());
    for url in &urls {
        let response = topology
            .search(SearchQuery::by_image_url(url.clone(), 3))
            .expect("search");
        let found = response
            .results
            .iter()
            .filter(|r| &r.hit.url == url)
            .count();
        assert_eq!(found, 1, "{url} served {found} times after the restart");
    }
    harness.halt(topology);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash right after a split's layout commit leaves the parent's store
/// as it was before the split: its newest checkpoint still holds the
/// moved keys. The restart must narrow that seed to the committed layout,
/// or the parent keeps serving moved keys the sibling later deletes.
#[test]
fn crash_after_layout_commit_narrows_the_parent_seed() {
    // Raw only: split and rebuild retrain per partition by design.
    let dir = scratch_dir("narrow-seed");
    let harness = RecoveryHarness::new(RecoveryConfig::fast(&dir));
    let n = harness.events().len();

    let mut topology = harness.boot().expect("first boot");
    harness.publish(&topology, 0..n / 2);
    topology.checkpoint_partition(0).expect("checkpoint p0");
    topology.checkpoint_partition(1).expect("checkpoint p1");
    let parent_store = harness.checkpoint_dir(0);
    let pre_split = dir.join("pre-split-ckpt-p0");
    copy_dir(&parent_store, &pre_split);
    harness.publish(&topology, n / 2..n);
    let sibling = topology.split_partition(0).expect("online split").sibling;
    let layout = topology.partition_map();
    harness.halt(topology);
    std::fs::remove_dir_all(&parent_store).expect("drop the parent store");
    copy_dir(&pre_split, &parent_store);

    let topology = harness.boot().expect("reboot");
    assert_eq!(topology.partition_map().num_partitions(), 3);
    // Update some moved keys, then remove every one of them.
    let moved: Vec<_> = added_images(&harness)
        .into_iter()
        .filter(|(_, url)| layout.partition_of_url(url) == sibling)
        .collect();
    assert!(!moved.is_empty(), "the split must move some keys");
    let mut extra = Vec::new();
    for (i, (product_id, url)) in moved.iter().enumerate().step_by(2) {
        extra.push(ProductEvent::UpdateAttributes {
            product_id: *product_id,
            urls: vec![url.clone()],
            sales: Some(5_000 + i as u64),
            price: Some(7),
            praise: None,
        });
    }
    for (product_id, url) in &moved {
        extra.push(ProductEvent::RemoveProduct {
            product_id: *product_id,
            urls: vec![url.clone()],
        });
    }
    for event in &extra {
        topology.publish(event.clone());
    }
    topology.wait_for_freshness(Duration::from_secs(60));

    let served: Vec<String> = moved
        .iter()
        .filter(|(_, url)| {
            topology
                .search(SearchQuery::by_image_url(url.clone(), 3))
                .expect("search")
                .results
                .iter()
                .any(|r| &r.hit.url == url)
        })
        .map(|(_, url)| url.clone())
        .collect();
    assert!(
        served.is_empty(),
        "removed moved keys still served: {served:?}"
    );
    let mut stream = harness.events().to_vec();
    stream.extend(extra);
    assert_eq!(
        harness.probe(&topology),
        harness.cold_probe_of(&stream),
        "the restarted world diverged from a cold rebuild of the same log"
    );
    harness.halt(topology);
    let _ = std::fs::remove_dir_all(&dir);
}
