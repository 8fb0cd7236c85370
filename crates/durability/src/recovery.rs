//! Partition recovery: replay of the log suffix a seeded index has not
//! applied.
//!
//! [`recover_partition_seeded`] is the replay half of a durable serving
//! stack's startup. The caller seeds the replica first — with the index
//! [`CheckpointStore::recover_shared_within`](crate::checkpoint::CheckpointStore::recover_shared_within)
//! decoded from the newest valid snapshot (or a fork of it), or with an
//! empty index for a cold start — and the queue suffix past the seed's
//! watermark, rebuilt from the durable log by
//! [`DurableQueue::open`](crate::queue::DurableQueue), is then replayed
//! through [`RealtimeIndexer::consume`], the same apply loop live
//! ingestion runs, so recovery and steady state cannot diverge.
//!
//! Snapshots whose watermark exceeds the queue head are never offered as
//! seeds — they cover events the durable log no longer holds, so seeding
//! from one would skip whatever events are published at those offsets
//! next. Either way the recovered index's applied-offset watermark ends
//! exactly at the queue head.

use std::time::Duration;

use jdvs_core::realtime::{ApplyReport, RealtimeIndexer};
use jdvs_metrics::DurabilityMetrics;
use jdvs_storage::model::ProductEvent;
use jdvs_storage::queue::Offset;
use jdvs_storage::MessageQueue;

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

/// Recovers one partition replica whose `indexer` already serves its seed:
/// an index decoded from a checkpoint covering `[0, seed)`, or — `seed` is
/// `None` — an empty one. Replays `queue` from the seed's watermark (a cold
/// start: from the queue base) to its head and makes the replayed inserts
/// searchable; after this the index serves queries at the state a clean
/// shutdown would have left (modulo any un-fsynced log tail, which the log
/// already truncated away).
pub fn recover_partition_seeded(
    indexer: &RealtimeIndexer,
    seed: Option<Offset>,
    queue: &MessageQueue<ProductEvent>,
    metrics: &DurabilityMetrics,
) -> RecoveryReport {
    metrics.recoveries.incr();
    if let Some(watermark) = seed {
        metrics.recoveries_from_snapshot.incr();
        metrics.checkpoint_offset.set_max(watermark);
    }
    // Retention never prunes the log past the checkpoint watermark, so the
    // max() is defensive: a manually-truncated log still recovers,
    // replaying from whatever survives.
    let start_offset = seed.unwrap_or(0).max(queue.base());
    let mut consumer = queue.consumer_at(start_offset);
    let apply = indexer.consume(&mut consumer, queue.len(), Duration::ZERO);
    let replayed = consumer.position() - start_offset;
    metrics.events_replayed.add(replayed);
    indexer.index().flush();
    RecoveryReport {
        from_snapshot: seed.is_some(),
        start_offset,
        replayed,
        apply,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CheckpointConfig, CheckpointStore};
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
    use std::sync::Arc;

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

    fn extractor() -> Arc<CachingExtractor> {
        Arc::new(CachingExtractor::new(
            FeatureExtractor::new(ExtractorConfig {
                dim: DIM,
                ..Default::default()
            }),
            CostModel::free(),
        ))
    }

    fn fixture() -> Fixture {
        let images = Arc::new(ImageStore::with_blob_len(64));
        let feature_db = Arc::new(FeatureDb::new());
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
        let indexer =
            RealtimeIndexer::for_index(index, extractor(), Arc::clone(&images), feature_db);
        Fixture { indexer, images }
    }

    /// A second life over the same durable storage: a fresh indexer seeded
    /// with the index the newest checkpoint within `head` decoded to.
    fn second_life(f: &Fixture, checkpoints: &CheckpointStore, head: Offset) -> (Fixture, Offset) {
        let seed = checkpoints
            .recover_shared_within(head, f.indexer.index().config())
            .expect("a checkpoint within the log head");
        let indexer = RealtimeIndexer::for_index(
            Arc::new(seed.index),
            extractor(),
            Arc::clone(&f.images),
            Arc::new(FeatureDb::new()),
        );
        let images = Arc::clone(&f.images);
        (Fixture { indexer, images }, seed.applied_offset)
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
        let metrics = Arc::new(DurabilityMetrics::new());
        let f = fixture();
        let queue: MessageQueue<ProductEvent> = MessageQueue::new();
        for i in 0..20 {
            queue.publish(add(&f, i));
        }
        let report = recover_partition_seeded(&f.indexer, None, &queue, &metrics);
        assert!(!report.from_snapshot);
        assert_eq!(report.replayed, 20);
        assert_eq!(report.apply.inserted, 20);
        assert_eq!(f.indexer.index().valid_images(), 20);
        assert_eq!(f.indexer.index().stats().applied_offset.get(), 20);
        assert_eq!(metrics.events_replayed.get(), 20);
        assert_eq!(metrics.recoveries.get(), 1);
        assert_eq!(metrics.recoveries_from_snapshot.get(), 0);
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
        let (f2, watermark) = second_life(&f, &checkpoints, queue.len());
        let report = recover_partition_seeded(&f2.indexer, Some(watermark), &queue, &metrics);
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
        let (f2, watermark) = second_life(&f, &checkpoints, survived.len());
        let report = recover_partition_seeded(&f2.indexer, Some(watermark), &survived, &metrics);
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
