//! The real-time indexer (Section 2.3, Figures 4 and 6).
//!
//! *"Messages about product or image updates are received from a message
//! queue and processed instantly."* [`RealtimeIndexer`] is that consumer:
//! it applies each [`ProductEvent`] to its partition's [`VisualIndex`],
//! using the feature-reuse path whenever the image was extracted before.
//!
//! Each searcher owns one partition, so an indexer can be scoped with
//! [`RealtimeIndexer::with_partition`] to process only the images that hash
//! into its partition — exactly how the paper's searchers share one queue.
//!
//! Failed images are never silently dropped: each failure is recorded in a
//! bounded **dead-letter buffer** (newest kept, oldest evicted) together
//! with the error and a retryable/permanent classification, and surfaced
//! through [`RealtimeIndexer::drain_dead_letters`] for an operator or a
//! replay job to act on.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use jdvs_features::cache::FetchOutcome;
use jdvs_features::CachingExtractor;
use jdvs_storage::model::{ImageKey, ProductEvent};
use jdvs_storage::queue::{Consumer, Offset};
use jdvs_storage::{FeatureDb, ImageStore, MessageQueue};

use crate::error::IndexError;
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

/// Default capacity of the dead-letter buffer.
pub const DEFAULT_DEAD_LETTER_CAPACITY: usize = 256;

/// One failed image operation, preserved for inspection or replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    /// URL of the image that failed.
    pub url: String,
    /// What the event was trying to do.
    pub operation: DeadLetterOp,
    /// Human-readable error.
    pub error: String,
    /// Whether a later retry could plausibly succeed (e.g. an update that
    /// raced ahead of its add in the stream) or the failure is permanent
    /// (e.g. a capacity or validation error).
    pub retryable: bool,
    /// Offset of the source event in the message queue, when the event was
    /// applied through [`RealtimeIndexer::apply_at`] or
    /// [`RealtimeIndexer::run`]. With a durable log behind the queue this
    /// makes every dead letter re-drivable: the original event can be
    /// re-read from the log ([`RealtimeIndexer::redrive`]).
    pub offset: Option<Offset>,
}

/// The operation a [`DeadLetter`] was performing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadLetterOp {
    /// Inserting or revalidating an image.
    Insert,
    /// Logically deleting an image.
    Delete,
    /// Updating numeric attributes.
    Update,
}

/// Counters over all failures the indexer has seen (dead-lettered or
/// already evicted from the bounded buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeadLetterStats {
    /// Failures a retry could plausibly fix (out-of-order stream events).
    pub retryable: u64,
    /// Failures retrying cannot fix (validation/capacity errors).
    pub permanent: u64,
    /// Dead letters evicted because the buffer was full.
    pub evicted: u64,
}

impl DeadLetterStats {
    /// Total failures observed.
    pub fn total(&self) -> u64 {
        self.retryable + self.permanent
    }
}

/// Classifies an [`IndexError`]: unknown-URL/unknown-image failures are
/// retryable (the add that defines them may simply not have arrived yet);
/// everything else is a permanent property of the data or the index.
fn is_retryable(err: &IndexError) -> bool {
    matches!(err, IndexError::UnknownUrl(_) | IndexError::UnknownImage(_))
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
    /// Bounded buffer of failed operations, newest kept.
    dead_letters: Mutex<VecDeque<DeadLetter>>,
    dead_letter_capacity: usize,
    retryable_failures: AtomicU64,
    permanent_failures: AtomicU64,
    dead_letters_evicted: AtomicU64,
}

impl std::fmt::Debug for RealtimeIndexer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RealtimeIndexer")
            .field("filtered", &self.filter.is_some())
            .field("dead_letter_capacity", &self.dead_letter_capacity)
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
            dead_letters: Mutex::new(VecDeque::new()),
            dead_letter_capacity: DEFAULT_DEAD_LETTER_CAPACITY,
            retryable_failures: AtomicU64::new(0),
            permanent_failures: AtomicU64::new(0),
            dead_letters_evicted: AtomicU64::new(0),
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

    /// Scopes the indexer to one partition of `num_partitions`.
    ///
    /// # Panics
    ///
    /// Panics if `partition >= num_partitions` or `num_partitions == 0`.
    pub fn with_partition(self, partition: usize, num_partitions: usize) -> Self {
        assert!(num_partitions > 0, "num_partitions must be positive");
        assert!(partition < num_partitions, "partition out of range");
        self.with_filter(Arc::new(move |key: ImageKey| {
            key.partition(num_partitions) == partition
        }))
    }

    /// Scopes the indexer by an arbitrary ownership predicate (e.g. "routes
    /// to partition `p` under the live, possibly split, partition map").
    pub fn with_filter(mut self, filter: KeyFilter) -> Self {
        self.filter = Some(filter);
        self
    }

    /// Overrides the dead-letter buffer capacity (`0` keeps counting
    /// failures but retains no letters).
    pub fn with_dead_letter_capacity(mut self, capacity: usize) -> Self {
        self.dead_letter_capacity = capacity;
        self
    }

    /// Takes (and clears) everything in the dead-letter buffer, oldest
    /// first. Counters in [`RealtimeIndexer::dead_letter_stats`] are
    /// lifetime totals and are *not* reset by draining.
    pub fn drain_dead_letters(&self) -> Vec<DeadLetter> {
        self.dead_letters.lock().drain(..).collect()
    }

    /// Lifetime failure counters (survive draining).
    pub fn dead_letter_stats(&self) -> DeadLetterStats {
        DeadLetterStats {
            retryable: self.retryable_failures.load(Ordering::Relaxed),
            permanent: self.permanent_failures.load(Ordering::Relaxed),
            evicted: self.dead_letters_evicted.load(Ordering::Relaxed),
        }
    }

    /// Records one failed image operation, evicting the oldest letter if
    /// the buffer is full.
    fn dead_letter(
        &self,
        url: &str,
        operation: DeadLetterOp,
        err: &IndexError,
        offset: Option<Offset>,
    ) {
        let retryable = is_retryable(err);
        if retryable {
            self.retryable_failures.fetch_add(1, Ordering::Relaxed);
        } else {
            self.permanent_failures.fetch_add(1, Ordering::Relaxed);
        }
        if self.dead_letter_capacity == 0 {
            return; // counted, nothing retained
        }
        self.requeue_dead_letter(DeadLetter {
            url: url.to_string(),
            operation,
            error: err.to_string(),
            retryable,
            offset,
        });
    }

    /// Puts a letter (back) into the bounded buffer without touching the
    /// failure counters.
    fn requeue_dead_letter(&self, letter: DeadLetter) {
        if self.dead_letter_capacity == 0 {
            return;
        }
        let mut letters = self.dead_letters.lock();
        if letters.len() == self.dead_letter_capacity {
            letters.pop_front();
            self.dead_letters_evicted.fetch_add(1, Ordering::Relaxed);
        }
        letters.push_back(letter);
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

    /// Applies one event (Figure 6's dispatch) without a source offset.
    /// Dead letters it produces cannot be re-driven from the durable log;
    /// prefer [`RealtimeIndexer::apply_at`] when the offset is known.
    pub fn apply(&self, event: &ProductEvent) -> ApplyReport {
        self.apply_inner(event, None)
    }

    /// Applies one event read from queue offset `offset`, advancing the
    /// index's applied-offset watermark
    /// ([`IndexStats::applied_offset`](crate::stats::IndexStats)) to
    /// `offset + 1` and stamping the offset on any dead letters.
    pub fn apply_at(&self, offset: Offset, event: &ProductEvent) -> ApplyReport {
        let mut report = self.apply_inner(event, Some(offset));
        let watermark = offset + 1;
        self.index.get().stats().applied_offset.set_max(watermark);
        report.watermark = Some(watermark);
        report
    }

    fn apply_inner(&self, event: &ProductEvent, offset: Option<Offset>) -> ApplyReport {
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
                        Err(err) => {
                            self.dead_letter(&attrs.url, DeadLetterOp::Insert, &err, offset);
                            report.failed += 1;
                        }
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
                        Err(err) => {
                            self.dead_letter(url, DeadLetterOp::Delete, &err, offset);
                            report.failed += 1;
                        }
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
                        Err(err) => {
                            self.dead_letter(url, DeadLetterOp::Update, &err, offset);
                            report.failed += 1;
                        }
                    }
                }
            }
        }
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
    /// queue offset, so the index's applied-offset watermark advances and
    /// dead letters stay re-drivable.
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

    /// Re-applies retryable dead letters from their source events.
    ///
    /// Each drained letter that is retryable and carries a queue [`Offset`]
    /// has its original event re-read from `queue`, narrowed to the one URL
    /// that failed, and re-applied via [`RealtimeIndexer::apply_at`]. This
    /// is how an out-of-order stream (update racing ahead of its add) heals
    /// once the missing add has landed. Letters that are permanent, carry
    /// no offset, or whose event has been pruned from the queue are put
    /// back into the buffer untouched (without re-counting the failure).
    pub fn redrive(&self, queue: &MessageQueue<ProductEvent>) -> ApplyReport {
        let mut total = ApplyReport::default();
        for letter in self.drain_dead_letters() {
            let offset = match letter.offset {
                Some(off) if letter.retryable && off >= queue.base() && off < queue.len() => off,
                _ => {
                    self.requeue_dead_letter(letter);
                    continue;
                }
            };
            let Some(event) = queue.read_range(offset, 1).into_iter().next() else {
                self.requeue_dead_letter(letter);
                continue;
            };
            let Some(narrowed) = narrow_event_to_url(&event, &letter.url) else {
                self.requeue_dead_letter(letter);
                continue;
            };
            total.merge(self.apply_at(offset, &narrowed));
        }
        total
    }
}

/// Restricts `event` to the single image `url`, for targeted re-application
/// of a dead-lettered operation. Returns `None` when the event does not
/// mention the URL.
fn narrow_event_to_url(event: &ProductEvent, url: &str) -> Option<ProductEvent> {
    match event {
        ProductEvent::AddProduct { product_id, images } => {
            let image = images.iter().find(|a| a.url == url)?.clone();
            Some(ProductEvent::AddProduct {
                product_id: *product_id,
                images: vec![image],
            })
        }
        ProductEvent::RemoveProduct { product_id, urls } => {
            urls.iter()
                .any(|u| u == url)
                .then(|| ProductEvent::RemoveProduct {
                    product_id: *product_id,
                    urls: vec![url.to_string()],
                })
        }
        ProductEvent::UpdateAttributes {
            product_id,
            urls,
            sales,
            price,
            praise,
        } => urls
            .iter()
            .any(|u| u == url)
            .then(|| ProductEvent::UpdateAttributes {
                product_id: *product_id,
                urls: vec![url.to_string()],
                sales: *sales,
                price: *price,
                praise: *praise,
            }),
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
        fixture_with_partition(None)
    }

    fn fixture_with_partition(partition: Option<(usize, usize)>) -> Fixture {
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
        if let Some((p, n)) = partition {
            indexer = indexer.with_partition(p, n);
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
        let f = fixture_with_partition(Some((0, 4)));
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
    fn failures_land_in_the_dead_letter_buffer() {
        let f = fixture();
        let rm = ProductEvent::RemoveProduct {
            product_id: ProductId(9),
            urls: vec!["x".into()],
        };
        assert_eq!(f.indexer.apply(&rm).failed, 1);
        let up = ProductEvent::UpdateAttributes {
            product_id: ProductId(9),
            urls: vec!["y".into()],
            sales: Some(1),
            price: None,
            praise: None,
        };
        assert_eq!(f.indexer.apply(&up).failed, 1);

        let letters = f.indexer.drain_dead_letters();
        assert_eq!(letters.len(), 2);
        assert_eq!(letters[0].url, "x");
        assert_eq!(letters[0].operation, DeadLetterOp::Delete);
        assert!(
            letters[0].retryable,
            "unknown URL may be an out-of-order event"
        );
        assert!(
            letters[0].error.contains("x"),
            "error names the URL: {}",
            letters[0].error
        );
        assert_eq!(letters[1].url, "y");
        assert_eq!(letters[1].operation, DeadLetterOp::Update);

        // Draining empties the buffer but keeps the lifetime counters.
        assert!(f.indexer.drain_dead_letters().is_empty());
        let stats = f.indexer.dead_letter_stats();
        assert_eq!(stats.retryable, 2);
        assert_eq!(stats.permanent, 0);
        assert_eq!(stats.total(), 2);
    }

    #[test]
    fn dead_letter_buffer_is_bounded_and_counts_evictions() {
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
        let indexer = RealtimeIndexer::for_index(index, extractor, images, feature_db)
            .with_dead_letter_capacity(3);
        for i in 0..5u64 {
            let rm = ProductEvent::RemoveProduct {
                product_id: ProductId(i),
                urls: vec![format!("missing-{i}")],
            };
            indexer.apply(&rm);
        }
        let stats = indexer.dead_letter_stats();
        assert_eq!(stats.total(), 5, "every failure is counted");
        assert_eq!(stats.evicted, 2, "two oldest letters evicted");
        let letters = indexer.drain_dead_letters();
        assert_eq!(letters.len(), 3, "buffer keeps the newest 3");
        assert_eq!(letters[0].url, "missing-2", "oldest retained letter");
        assert_eq!(letters[2].url, "missing-4", "newest letter last");
    }

    #[test]
    fn zero_capacity_counts_without_retaining() {
        let f = fixture();
        // Rebuild with zero capacity via the builder.
        let indexer = fixture().indexer.with_dead_letter_capacity(0);
        let _ = f; // keep original fixture alive for symmetry
        let rm = ProductEvent::RemoveProduct {
            product_id: ProductId(1),
            urls: vec!["z".into()],
        };
        indexer.apply(&rm);
        assert_eq!(indexer.dead_letter_stats().total(), 1);
        assert!(indexer.drain_dead_letters().is_empty());
    }

    #[test]
    fn apply_at_advances_watermark_and_stamps_dead_letters() {
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
        let letters = f.indexer.drain_dead_letters();
        assert_eq!(
            letters[0].offset,
            Some(7),
            "letter records its source offset"
        );

        // Plain apply leaves no offset and does not move the watermark.
        let r = f.indexer.apply(&up);
        assert_eq!(r.watermark, None);
        assert_eq!(f.indexer.index().stats().applied_offset.get(), 8);
        assert_eq!(f.indexer.drain_dead_letters()[0].offset, None);
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
        let letters = f.indexer.drain_dead_letters();
        assert_eq!(letters.len(), 1);
        assert_eq!(letters[0].offset, Some(1), "failure at queue offset 1");
    }

    #[test]
    fn redrive_heals_update_that_raced_ahead_of_its_add() {
        let f = fixture();
        let queue: MessageQueue<ProductEvent> = MessageQueue::new();
        // Out-of-order stream: the update arrives before the add exists.
        let off = queue.publish(ProductEvent::UpdateAttributes {
            product_id: ProductId(1),
            urls: vec!["u1".into()],
            sales: Some(777),
            price: None,
            praise: None,
        });
        let event = queue.read_range(off, 1).remove(0);
        assert_eq!(f.indexer.apply_at(off, &event).failed, 1);

        // The add lands; redrive re-reads the update from the queue.
        f.indexer.apply(&add_event(&f, 1, &["u1"]));
        let r = f.indexer.redrive(&queue);
        assert_eq!(r.updated, 1);
        assert!(f.indexer.drain_dead_letters().is_empty());
        let index = f.indexer.index();
        let id = index.lookup(ImageKey::from_url("u1")).unwrap();
        assert_eq!(index.attributes(id).unwrap().sales, 777);
    }

    #[test]
    fn redrive_requeues_offsetless_and_unavailable_letters() {
        let f = fixture();
        let queue: MessageQueue<ProductEvent> = MessageQueue::new();
        // Offsetless letter: applied outside the queue path.
        f.indexer.apply(&ProductEvent::RemoveProduct {
            product_id: ProductId(1),
            urls: vec!["never-added".into()],
        });
        // Offset below the queue base: the source event has been pruned.
        let pruned: MessageQueue<ProductEvent> = MessageQueue::with_base(10);
        f.indexer.apply_at(
            3,
            &ProductEvent::RemoveProduct {
                product_id: ProductId(2),
                urls: vec!["pruned-away".into()],
            },
        );
        assert_eq!(f.indexer.redrive(&queue).touched(), 0);
        assert_eq!(f.indexer.redrive(&pruned).touched(), 0);
        let letters = f.indexer.drain_dead_letters();
        assert_eq!(letters.len(), 2, "both letters survive for later");
        let stats = f.indexer.dead_letter_stats();
        assert_eq!(stats.total(), 2, "requeue does not double-count");
    }

    #[test]
    fn narrow_event_keeps_only_the_failed_url() {
        let ev = ProductEvent::RemoveProduct {
            product_id: ProductId(1),
            urls: vec!["a".into(), "b".into()],
        };
        match narrow_event_to_url(&ev, "b") {
            Some(ProductEvent::RemoveProduct { urls, .. }) => assert_eq!(urls, vec!["b"]),
            other => panic!("unexpected: {other:?}"),
        }
        assert!(narrow_event_to_url(&ev, "c").is_none());
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
