//! The real-time indexer (Section 2.3, Figures 4 and 6).
//!
//! *"Messages about product or image updates are received from a message
//! queue and processed instantly."* [`RealtimeIndexer`] is that consumer:
//! it applies each [`ProductEvent`] to its partition's [`VisualIndex`],
//! using the feature-reuse path whenever the image was extracted before.
//!
//! Each searcher owns one partition, so an indexer can be scoped with
//! [`RealtimeIndexer::with_filter`] to process only the images its
//! partition owns — exactly how the paper's searchers share one queue.
//!
//! An image operation that fails (an unknown URL, a missing blob) is
//! counted in [`ApplyReport::failed`] and skipped; the event stream goes on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use jdvs_features::cache::FetchOutcome;
use jdvs_features::CachingExtractor;
use jdvs_storage::model::{ImageKey, ProductEvent};
use jdvs_storage::queue::{Consumer, Offset};
use jdvs_storage::{FeatureDb, ImageStore};

use crate::full::KeyFilter;
use crate::index::VisualIndex;
use crate::swap::IndexHandle;

/// What applying one event did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ApplyReport {
    /// Images inserted fresh (feature extraction performed or reused from
    /// the feature DB).
    pub inserted: u64,
    /// Images revalidated via the in-index reuse path (bitmap flip).
    pub revalidated: u64,
    /// Images whose attributes were updated.
    pub updated: u64,
    /// Images logically deleted.
    pub deleted: u64,
    /// Images skipped because they hash to another partition.
    pub skipped: u64,
    /// Images that could not be processed (e.g. blob missing, URL unknown).
    pub failed: u64,
    /// Applied-offset watermark: the queue offset *after* the newest event
    /// covered by this report (`None` when events were applied without a
    /// source offset, e.g. direct [`RealtimeIndexer::apply`] calls).
    pub watermark: Option<Offset>,
}

impl ApplyReport {
    /// Total images this event touched on this partition.
    pub fn touched(&self) -> u64 {
        self.inserted + self.revalidated + self.updated + self.deleted
    }

    /// Accumulates another report into this one (watermark keeps the max).
    pub fn merge(&mut self, other: ApplyReport) {
        self.inserted += other.inserted;
        self.revalidated += other.revalidated;
        self.updated += other.updated;
        self.deleted += other.deleted;
        self.skipped += other.skipped;
        self.failed += other.failed;
        self.watermark = self.watermark.max(other.watermark);
    }
}

/// The per-partition real-time indexer; see the module docs.
///
/// The indexer resolves its index through an [`IndexHandle`] per event,
/// so a weekly full-index hot swap (Figure 2) redirects subsequent events
/// to the fresh index without restarting the indexer.
pub struct RealtimeIndexer {
    index: Arc<IndexHandle>,
    extractor: Arc<CachingExtractor>,
    images: Arc<ImageStore>,
    feature_db: Arc<FeatureDb>,
    /// Ownership predicate: only images it accepts are processed. `None`
    /// processes everything.
    filter: Option<KeyFilter>,
}

impl std::fmt::Debug for RealtimeIndexer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RealtimeIndexer")
            .field("filtered", &self.filter.is_some())
            .finish()
    }
}

impl RealtimeIndexer {
    /// Creates an indexer that processes every event image, writing to
    /// whichever index `handle` currently points at.
    pub fn new(
        handle: Arc<IndexHandle>,
        extractor: Arc<CachingExtractor>,
        images: Arc<ImageStore>,
        feature_db: Arc<FeatureDb>,
    ) -> Self {
        Self {
            index: handle,
            extractor,
            images,
            feature_db,
            filter: None,
        }
    }

    /// Convenience: wraps a fixed index in a fresh (never-swapped) handle.
    pub fn for_index(
        index: Arc<VisualIndex>,
        extractor: Arc<CachingExtractor>,
        images: Arc<ImageStore>,
        feature_db: Arc<FeatureDb>,
    ) -> Self {
        Self::new(
            Arc::new(IndexHandle::new(index)),
            extractor,
            images,
            feature_db,
        )
    }

    /// Scopes the indexer by an arbitrary ownership predicate (e.g. "routes
    /// to partition `p` under the live, possibly split, partition map").
    pub fn with_filter(mut self, filter: KeyFilter) -> Self {
        self.filter = Some(filter);
        self
    }

    /// Snapshot of the index this indexer currently maintains.
    pub fn index(&self) -> Arc<VisualIndex> {
        self.index.get()
    }

    /// The swappable handle (rebuilds publish through this).
    pub fn handle(&self) -> &Arc<IndexHandle> {
        &self.index
    }

    fn owns(&self, key: ImageKey) -> bool {
        match &self.filter {
            Some(filter) => filter(key),
            None => true,
        }
    }

    /// Applies one event (Figure 6's dispatch) without a source offset: the
    /// applied-offset watermark does not move.
    pub fn apply(&self, event: &ProductEvent) -> ApplyReport {
        let index = self.index.get();
        let mut report = ApplyReport::default();
        match event {
            ProductEvent::AddProduct { images, .. } => {
                for attrs in images {
                    let key = attrs.image_key();
                    if !self.owns(key) {
                        report.skipped += 1;
                        continue;
                    }
                    // Figure 8: check-if-exists → reuse, else extract+insert.
                    let outcome = index.upsert(attrs.clone(), || {
                        let (features, fetch) =
                            self.extractor
                                .features_for(attrs, &self.images, &self.feature_db);
                        debug_assert_ne!(
                            fetch,
                            FetchOutcome::Missing,
                            "catalog generated an image with no blob"
                        );
                        features
                    });
                    match outcome {
                        Ok(o) if o.reused() => report.revalidated += 1,
                        Ok(_) => report.inserted += 1,
                        Err(_) => report.failed += 1,
                    }
                }
            }
            ProductEvent::RemoveProduct { urls, .. } => {
                for url in urls {
                    let key = ImageKey::from_url(url);
                    if !self.owns(key) {
                        report.skipped += 1;
                        continue;
                    }
                    match index.invalidate(key, url) {
                        Ok(_) => report.deleted += 1,
                        Err(_) => report.failed += 1,
                    }
                }
            }
            ProductEvent::UpdateAttributes {
                urls,
                sales,
                price,
                praise,
                ..
            } => {
                for url in urls {
                    let key = ImageKey::from_url(url);
                    if !self.owns(key) {
                        report.skipped += 1;
                        continue;
                    }
                    match index.update_numeric(key, url, *sales, *price, *praise) {
                        Ok(_) => report.updated += 1,
                        Err(_) => report.failed += 1,
                    }
                }
            }
        }
        report
    }

    /// Applies one event read from queue offset `offset`, advancing the
    /// index's applied-offset watermark
    /// ([`IndexStats::applied_offset`](crate::stats::IndexStats)) to
    /// `offset + 1`.
    pub fn apply_at(&self, offset: Offset, event: &ProductEvent) -> ApplyReport {
        let mut report = self.apply(event);
        let watermark = offset + 1;
        self.index.get().stats().applied_offset.set_max(watermark);
        report.watermark = Some(watermark);
        report
    }

    /// The one apply loop every follower of the log runs — live indexer
    /// threads, recovery replay, replica bootstrap, a rebuilt replica's
    /// private tail: polls `consumer` and applies each event at its offset
    /// through [`RealtimeIndexer::apply_at`] until the consumer reaches
    /// `end` or no event arrives within `wait` (`Duration::ZERO`: none is
    /// ready). Returns the cumulative report; its watermark is `None` when
    /// nothing was applied.
    pub fn consume(
        &self,
        consumer: &mut Consumer<ProductEvent>,
        end: Offset,
        wait: Duration,
    ) -> ApplyReport {
        let mut total = ApplyReport::default();
        while consumer.position() < end {
            let offset = consumer.position();
            let Some(event) = consumer.poll(wait) else {
                break;
            };
            total.merge(self.apply_at(offset, &event));
        }
        total
    }

    /// Consumes events from `consumer` until `stop` is set, applying each
    /// instantly. When the queue idles for `idle` the in-flight inverted-
    /// list expansions are flushed (migration-window inserts become
    /// searchable) and the loop re-polls. Returns the cumulative report.
    ///
    /// Every event is applied through [`RealtimeIndexer::apply_at`] with its
    /// queue offset, so the index's applied-offset watermark advances.
    pub fn run(
        &self,
        consumer: &mut Consumer<ProductEvent>,
        stop: &AtomicBool,
        idle: Duration,
    ) -> ApplyReport {
        let mut total = ApplyReport::default();
        while !stop.load(Ordering::Relaxed) {
            let report = self.consume(consumer, consumer.position() + 1, idle);
            if report.watermark.is_none() {
                self.index.get().flush();
            }
            total.merge(report);
        }
        // Drain whatever is left so shutdown is deterministic.
        total.merge(self.consume(consumer, Offset::MAX, Duration::ZERO));
        self.index.get().flush();
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use jdvs_features::cost::CostModel;
    use jdvs_features::{ExtractorConfig, FeatureExtractor};
    use jdvs_storage::model::{ProductAttributes, ProductId};
    use jdvs_storage::MessageQueue;
    use jdvs_vector::Vector;

    const DIM: usize = 16;

    struct Fixture {
        indexer: RealtimeIndexer,
        images: Arc<ImageStore>,
    }

    fn fixture() -> Fixture {
        fixture_with_filter(None)
    }

    fn fixture_with_filter(filter: Option<KeyFilter>) -> Fixture {
        let images = Arc::new(ImageStore::with_blob_len(64));
        let feature_db = Arc::new(FeatureDb::new());
        let extractor = Arc::new(CachingExtractor::new(
            FeatureExtractor::new(ExtractorConfig {
                dim: DIM,
                ..Default::default()
            }),
            CostModel::free(),
        ));
        // Bootstrap quantizer on generic Gaussian data.
        let mut rng = jdvs_vector::rng::Xoshiro256::seed_from(5);
        let train: Vec<Vector> = (0..64)
            .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let index = Arc::new(VisualIndex::bootstrap(
            IndexConfig {
                dim: DIM,
                num_lists: 4,
                initial_list_capacity: 4,
                ..Default::default()
            },
            &train,
        ));
        let mut indexer =
            RealtimeIndexer::for_index(index, extractor, Arc::clone(&images), feature_db);
        if let Some(filter) = filter {
            indexer = indexer.with_filter(filter);
        }
        Fixture { indexer, images }
    }

    fn add_event(f: &Fixture, product: u64, urls: &[&str]) -> ProductEvent {
        let images = urls
            .iter()
            .map(|u| {
                f.images.put_synthetic(u, product * 31);
                ProductAttributes::new(ProductId(product), 1, 100, 1, u.to_string())
            })
            .collect();
        ProductEvent::AddProduct {
            product_id: ProductId(product),
            images,
        }
    }

    #[test]
    fn add_product_inserts_and_is_searchable() {
        let f = fixture();
        let ev = add_event(&f, 1, &["u1", "u2"]);
        let r = f.indexer.apply(&ev);
        assert_eq!(r.inserted, 2);
        assert_eq!(r.touched(), 2);
        let index = f.indexer.index();
        index.flush();
        assert_eq!(index.valid_images(), 2);
        let id = index.lookup(ImageKey::from_url("u1")).unwrap();
        let feats = index.features(id).unwrap();
        let hits = index.search(feats.as_slice(), 1, 4);
        assert_eq!(hits[0].id, id.as_u64());
    }

    #[test]
    fn remove_then_readd_takes_reuse_path() {
        let f = fixture();
        f.indexer.apply(&add_event(&f, 1, &["u1"]));
        let rm = ProductEvent::RemoveProduct {
            product_id: ProductId(1),
            urls: vec!["u1".into()],
        };
        let r = f.indexer.apply(&rm);
        assert_eq!(r.deleted, 1);
        assert_eq!(f.indexer.index().valid_images(), 0);
        // Re-add: must revalidate, not insert.
        let r = f.indexer.apply(&add_event(&f, 1, &["u1"]));
        assert_eq!(r.revalidated, 1);
        assert_eq!(r.inserted, 0);
        assert_eq!(f.indexer.index().valid_images(), 1);
        assert_eq!(f.indexer.index().num_images(), 1, "no duplicate record");
        // A remove naming no URL (the tombstone older builds' per-key log
        // compaction wrote) applies as nothing.
        let r = f.indexer.apply(&ProductEvent::RemoveProduct {
            product_id: ProductId(1),
            urls: vec![],
        });
        assert_eq!(r.touched() + r.failed, 0);
        assert_eq!(f.indexer.index().valid_images(), 1);
    }

    #[test]
    fn update_changes_attributes() {
        let f = fixture();
        f.indexer.apply(&add_event(&f, 1, &["u1"]));
        let up = ProductEvent::UpdateAttributes {
            product_id: ProductId(1),
            urls: vec!["u1".into()],
            sales: Some(777),
            price: None,
            praise: None,
        };
        let r = f.indexer.apply(&up);
        assert_eq!(r.updated, 1);
        let index = f.indexer.index();
        let id = index.lookup(ImageKey::from_url("u1")).unwrap();
        assert_eq!(index.attributes(id).unwrap().sales, 777);
    }

    #[test]
    fn operations_on_unknown_urls_fail_gracefully() {
        let f = fixture();
        let rm = ProductEvent::RemoveProduct {
            product_id: ProductId(9),
            urls: vec!["x".into()],
        };
        assert_eq!(f.indexer.apply(&rm).failed, 1);
        let up = ProductEvent::UpdateAttributes {
            product_id: ProductId(9),
            urls: vec!["x".into()],
            sales: Some(1),
            price: None,
            praise: None,
        };
        assert_eq!(f.indexer.apply(&up).failed, 1);
    }

    #[test]
    fn partition_scoping_skips_foreign_images() {
        let f = fixture_with_filter(Some(Arc::new(|key: ImageKey| key.partition(4) == 0)));
        // Generate many images; only ~1/4 should be owned.
        let urls: Vec<String> = (0..40).map(|i| format!("p{i}")).collect();
        let url_refs: Vec<&str> = urls.iter().map(String::as_str).collect();
        let r = f.indexer.apply(&add_event(&f, 1, &url_refs));
        assert_eq!(r.inserted + r.skipped, 40);
        assert!(r.skipped > 0, "some images belong elsewhere");
        assert!(r.inserted > 0, "some images belong here");
        // Every inserted image must actually hash to partition 0.
        for u in &urls {
            let key = ImageKey::from_url(u);
            let owned = key.partition(4) == 0;
            assert_eq!(f.indexer.index().lookup(key).is_some(), owned);
        }
    }

    #[test]
    fn run_loop_consumes_until_stopped() {
        let f = fixture();
        let queue: MessageQueue<ProductEvent> = MessageQueue::new();
        for i in 0..20u64 {
            queue.publish(add_event(&f, i, &[&format!("u{i}")]));
        }
        let mut consumer = queue.consumer();
        let stop = AtomicBool::new(true); // run drains the backlog then exits
        let report = f
            .indexer
            .run(&mut consumer, &stop, Duration::from_millis(1));
        assert_eq!(report.inserted, 20);
        assert_eq!(f.indexer.index().valid_images(), 20);
    }

    #[test]
    fn apply_at_advances_watermark_even_when_the_event_fails() {
        let f = fixture();
        let up = ProductEvent::UpdateAttributes {
            product_id: ProductId(9),
            urls: vec!["ghost".into()],
            sales: Some(1),
            price: None,
            praise: None,
        };
        let r = f.indexer.apply_at(7, &up);
        assert_eq!(r.failed, 1);
        assert_eq!(r.watermark, Some(8));
        assert_eq!(f.indexer.index().stats().applied_offset.get(), 8);

        // Plain apply does not move the watermark.
        let r = f.indexer.apply(&up);
        assert_eq!(r.watermark, None);
        assert_eq!(f.indexer.index().stats().applied_offset.get(), 8);
    }

    #[test]
    fn run_loop_stamps_queue_offsets() {
        let f = fixture();
        let queue: MessageQueue<ProductEvent> = MessageQueue::new();
        queue.publish(add_event(&f, 1, &["u1"]));
        queue.publish(ProductEvent::UpdateAttributes {
            product_id: ProductId(2),
            urls: vec!["not-yet-added".into()],
            sales: Some(1),
            price: None,
            praise: None,
        });
        let mut consumer = queue.consumer();
        let stop = AtomicBool::new(true);
        let report = f
            .indexer
            .run(&mut consumer, &stop, Duration::from_millis(1));
        assert_eq!(report.watermark, Some(2), "both offsets applied");
        assert_eq!(f.indexer.index().stats().applied_offset.get(), 2);
        assert_eq!(report.failed, 1, "the update of an unknown URL");
    }

    #[test]
    fn reuse_avoids_feature_extraction_cost() {
        let f = fixture();
        f.indexer.apply(&add_event(&f, 1, &["u1"]));
        let extractions_after_first = f.indexer.extractor.misses();
        f.indexer.apply(&ProductEvent::RemoveProduct {
            product_id: ProductId(1),
            urls: vec!["u1".into()],
        });
        f.indexer.apply(&add_event(&f, 1, &["u1"]));
        assert_eq!(
            f.indexer.extractor.misses(),
            extractions_after_first,
            "re-listing must not re-extract"
        );
    }
}
