//! Partition recovery: newest valid snapshot + log-suffix replay.
//!
//! [`recover_partition`] is the startup path of a durable serving stack:
//!
//! 1. [`CheckpointStore::recover_shared_within`] loads the newest snapshot
//!    that passes its CRC (manifest first, then fallbacks) and the applied
//!    offset it covers; the recovered index is swapped into the indexer's
//!    [`IndexHandle`](jdvs_core::swap::IndexHandle).
//! 2. The queue suffix `[applied_offset ..)` — rebuilt from the durable
//!    log by [`DurableQueue::open`](crate::queue::DurableQueue) — is
//!    replayed through [`RealtimeIndexer::apply_at`], the same code path
//!    live ingestion uses, so recovery and steady state cannot diverge.
//!
//! With no usable snapshot the replay starts at the queue base (a cold
//! replay of the whole retained log). Snapshots whose watermark exceeds
//! the queue head are rejected outright — they cover events the durable
//! log no longer holds, so seeding from one would skip whatever events
//! are published at those offsets next. Either way the recovered index's
//! applied-offset watermark ends exactly at the queue head.

use std::sync::Arc;

use jdvs_core::realtime::{ApplyReport, RealtimeIndexer};
use jdvs_metrics::DurabilityMetrics;
use jdvs_storage::model::ProductEvent;
use jdvs_storage::queue::Offset;
use jdvs_storage::MessageQueue;

use crate::checkpoint::{CheckpointStore, SharedCheckpoint};

/// Replay batch size (bounds peak memory of a recovery).
const REPLAY_BATCH: usize = 1024;

/// What a partition recovery did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Whether a checkpoint snapshot seeded the index (`false` = cold
    /// replay from the queue base).
    pub from_snapshot: bool,
    /// First offset replayed.
    pub start_offset: Offset,
    /// Events replayed through the indexer.
    pub replayed: u64,
    /// Cumulative effect of the replayed events.
    pub apply: ApplyReport,
}

/// Recovers one partition replica: loads the newest valid checkpoint into
/// `indexer`'s handle, then replays `queue`'s suffix through it. Returns
/// what happened; after this the index serves queries at the same state a
/// clean shutdown would have left (modulo any un-fsynced log tail, which
/// the log already truncated away).
pub fn recover_partition(
    indexer: &RealtimeIndexer,
    checkpoints: &CheckpointStore,
    queue: &MessageQueue<ProductEvent>,
    metrics: &DurabilityMetrics,
) -> RecoveryReport {
    // Never seed from a snapshot whose watermark outruns the rebuilt
    // queue's head: the log lost (or was truncated below) events the
    // snapshot claims to cover, and new publishes will re-assign those
    // offsets — a consumer pinned past the head would skip them forever.
    // `recover_shared_within` falls back to an older snapshot or cold
    // replay.
    // The index already in the handle is the placeholder built from the
    // partition's config: the snapshot is loaded to serve under it.
    let serving = indexer.index();
    let shared = checkpoints.recover_shared_within(queue.len(), serving.config());
    recover_partition_seeded(indexer, shared.as_ref(), queue, metrics)
}

/// [`recover_partition`] with the snapshot decode hoisted out: `seed` is
/// a checkpoint the caller already recovered (and bounded by the queue
/// head), so a partition's replicas share one disk read and one
/// validating decode — each replica forks its own copy from the cached
/// bytes. `None` means cold replay from the queue base.
pub fn recover_partition_seeded(
    indexer: &RealtimeIndexer,
    seed: Option<&SharedCheckpoint>,
    queue: &MessageQueue<ProductEvent>,
    metrics: &DurabilityMetrics,
) -> RecoveryReport {
    metrics.recoveries.incr();

    let mut report = RecoveryReport {
        start_offset: queue.base(),
        ..Default::default()
    };
    if let Some(shared) = seed {
        // Retention never prunes the log past the checkpoint watermark, so
        // the max() is defensive: a manually-truncated log still recovers,
        // replaying from whatever survives.
        let index = shared.fork();
        report.from_snapshot = true;
        report.start_offset = shared.applied_offset.max(queue.base());
        index.stats().applied_offset.set_max(shared.applied_offset);
        metrics.recoveries_from_snapshot.incr();
        metrics.checkpoint_offset.set_max(shared.applied_offset);
        indexer.handle().swap(Arc::new(index));
    }

    let mut offset = report.start_offset;
    loop {
        let batch = queue.read_range(offset, REPLAY_BATCH);
        if batch.is_empty() {
            break;
        }
        for event in &batch {
            report.apply.merge(indexer.apply_at(offset, event));
            offset += 1;
        }
        metrics.events_replayed.add(batch.len() as u64);
    }
    report.replayed = offset - report.start_offset;
    // Make replayed inserts searchable before the partition serves.
    indexer.index().flush();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointConfig;
    use jdvs_core::config::IndexConfig;
    use jdvs_core::index::VisualIndex;
    use jdvs_features::cost::CostModel;
    use jdvs_features::{CachingExtractor, ExtractorConfig, FeatureExtractor};
    use jdvs_storage::model::{ProductAttributes, ProductId};
    use jdvs_storage::{FeatureDb, ImageStore};
    use jdvs_vector::Vector;
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    const DIM: usize = 8;

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("jdvs-rec-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    struct Fixture {
        indexer: RealtimeIndexer,
        images: Arc<ImageStore>,
    }

    fn fixture() -> Fixture {
        let images = Arc::new(ImageStore::with_blob_len(64));
        let feature_db = Arc::new(FeatureDb::new());
        let extractor = Arc::new(CachingExtractor::new(
            FeatureExtractor::new(ExtractorConfig {
                dim: DIM,
                ..Default::default()
            }),
            CostModel::free(),
        ));
        let mut rng = jdvs_vector::rng::Xoshiro256::seed_from(5);
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
        let indexer = RealtimeIndexer::for_index(index, extractor, Arc::clone(&images), feature_db);
        Fixture { indexer, images }
    }

    fn add(f: &Fixture, i: u64) -> ProductEvent {
        let url = format!("rec-{i}");
        f.images.put_synthetic(&url, i * 31);
        ProductEvent::AddProduct {
            product_id: ProductId(i),
            images: vec![ProductAttributes::new(ProductId(i), i, 100, 1, url)],
        }
    }

    #[test]
    fn cold_recovery_replays_whole_queue() {
        let dir = temp_dir("cold");
        let metrics = Arc::new(DurabilityMetrics::new());
        let checkpoints =
            CheckpointStore::open(CheckpointConfig::new(&dir), Arc::clone(&metrics)).unwrap();
        let f = fixture();
        let queue: MessageQueue<ProductEvent> = MessageQueue::new();
        for i in 0..20 {
            queue.publish(add(&f, i));
        }
        let report = recover_partition(&f.indexer, &checkpoints, &queue, &metrics);
        assert!(!report.from_snapshot);
        assert_eq!(report.replayed, 20);
        assert_eq!(report.apply.inserted, 20);
        assert_eq!(f.indexer.index().valid_images(), 20);
        assert_eq!(f.indexer.index().stats().applied_offset.get(), 20);
        assert_eq!(metrics.events_replayed.get(), 20);
        assert_eq!(metrics.recoveries.get(), 1);
        assert_eq!(metrics.recoveries_from_snapshot.get(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_recovery_replays_only_the_suffix() {
        let dir = temp_dir("suffix");
        let metrics = Arc::new(DurabilityMetrics::new());
        let checkpoints =
            CheckpointStore::open(CheckpointConfig::new(&dir), Arc::clone(&metrics)).unwrap();

        // First life: apply 10 events, checkpoint at the watermark, then
        // 5 more arrive after the checkpoint.
        let f = fixture();
        let queue: MessageQueue<ProductEvent> = MessageQueue::new();
        for i in 0..10 {
            let off = queue.publish(add(&f, i));
            f.indexer.apply_at(off, &queue.read_range(off, 1).remove(0));
        }
        f.indexer.index().flush();
        checkpoints.save(&f.indexer.index(), 10).unwrap();
        for i in 10..15 {
            queue.publish(add(&f, i));
        }

        // Second life: fresh indexer over the same (durable) storage.
        let f2 = Fixture {
            indexer: RealtimeIndexer::for_index(
                f.indexer.index(), // placeholder; swap() replaces it
                Arc::new(CachingExtractor::new(
                    FeatureExtractor::new(ExtractorConfig {
                        dim: DIM,
                        ..Default::default()
                    }),
                    CostModel::free(),
                )),
                Arc::clone(&f.images),
                Arc::new(FeatureDb::new()),
            ),
            images: Arc::clone(&f.images),
        };
        let report = recover_partition(&f2.indexer, &checkpoints, &queue, &metrics);
        assert!(report.from_snapshot);
        assert_eq!(report.start_offset, 10);
        assert_eq!(report.replayed, 5);
        assert_eq!(f2.indexer.index().valid_images(), 15);
        assert_eq!(f2.indexer.index().stats().applied_offset.get(), 15);
        assert_eq!(metrics.recoveries_from_snapshot.get(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watermark_past_the_log_end_falls_back_to_an_older_snapshot() {
        let dir = temp_dir("outrun");
        let metrics = Arc::new(DurabilityMetrics::new());
        let checkpoints = CheckpointStore::open(
            CheckpointConfig {
                dir: dir.clone(),
                keep: 3,
            },
            Arc::clone(&metrics),
        )
        .unwrap();

        // First life: 10 events applied; an early checkpoint at 5 and a
        // newer one at 10.
        let f = fixture();
        let queue: MessageQueue<ProductEvent> = MessageQueue::new();
        for i in 0..10 {
            let off = queue.publish(add(&f, i));
            f.indexer.apply_at(off, &queue.read_range(off, 1).remove(0));
            if off + 1 == 5 {
                f.indexer.index().flush();
                checkpoints.save(&f.indexer.index(), 5).unwrap();
            }
        }
        f.indexer.index().flush();
        checkpoints.save(&f.indexer.index(), 10).unwrap();

        // Second life, but the crash truncated the un-fsynced log tail:
        // only 7 of the 10 events survive, so the newest checkpoint's
        // watermark (10) outruns the rebuilt queue head (7).
        let survived: MessageQueue<ProductEvent> = MessageQueue::new();
        for i in 0..7 {
            survived.publish(add(&f, i));
        }
        let f2 = Fixture {
            indexer: RealtimeIndexer::for_index(
                f.indexer.index(), // placeholder; swap() replaces it
                Arc::new(CachingExtractor::new(
                    FeatureExtractor::new(ExtractorConfig {
                        dim: DIM,
                        ..Default::default()
                    }),
                    CostModel::free(),
                )),
                Arc::clone(&f.images),
                Arc::new(FeatureDb::new()),
            ),
            images: Arc::clone(&f.images),
        };
        let report = recover_partition(&f2.indexer, &checkpoints, &survived, &metrics);
        assert!(report.from_snapshot, "the offset-5 snapshot is usable");
        assert_eq!(report.start_offset, 5, "watermark-10 snapshot rejected");
        assert_eq!(report.replayed, 2, "replays 5..7");
        assert_eq!(f2.indexer.index().valid_images(), 7);
        assert_eq!(
            f2.indexer.index().stats().applied_offset.get(),
            7,
            "watermark ends at the surviving log head, never past it"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
