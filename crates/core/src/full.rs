//! Full indexing (Section 2.2, Figures 2 and 3).
//!
//! *"The full indexing is performed periodically to ensure the data
//! completeness... All product update messages of a day are buffered in a
//! message log. At the end of the day, each message in the log is processed
//! in order."*
//!
//! [`FullIndexBuilder`] replays a message log, resolves the catalog's final
//! state (which images exist, their freshest attributes, whether they are
//! valid), obtains features (reusing the feature database — only genuinely
//! new images are extracted), and bulk-loads **only the valid images** into
//! an empty [`VisualIndex`] the caller supplies — the paper's optimization
//! that keeps weekly rebuilds and subsequent searches fast. The caller builds
//! that index around the quantizers it already serves
//! ([`VisualIndex::with_quantizers`]), so a full build trains nothing.

use std::collections::HashMap;
use std::sync::Arc;

use jdvs_features::CachingExtractor;
use jdvs_storage::model::{ImageKey, ProductAttributes, ProductEvent};
use jdvs_storage::{FeatureDb, ImageStore};

use crate::index::VisualIndex;

/// Statistics from one full-index build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BuildReport {
    /// Messages replayed from the log.
    pub messages_replayed: u64,
    /// Distinct images in the final catalog state.
    pub images_seen: u64,
    /// Images valid at the end of the replay (indexed).
    pub images_indexed: u64,
    /// Images skipped because they were invalid at the end of the day.
    pub images_invalid: u64,
    /// Images skipped because they hash to another partition.
    pub images_foreign: u64,
    /// Feature extractions actually performed (the rest were reused).
    pub extractions: u64,
    /// Features reused from the feature database.
    pub reuses: u64,
}

/// Catalog state accumulated during log replay.
#[derive(Debug, Default)]
struct CatalogState {
    /// Final attributes + validity per image, in first-seen order (the
    /// paper numbers images sequentially during the build).
    images: Vec<(ImageKey, ProductAttributes, bool)>,
    by_key: HashMap<ImageKey, usize>,
}

impl CatalogState {
    fn apply(&mut self, event: &ProductEvent) {
        match event {
            ProductEvent::AddProduct { images, .. } => {
                for attrs in images {
                    let key = attrs.image_key();
                    match self.by_key.get(&key) {
                        Some(&i) => {
                            self.images[i].1 = attrs.clone();
                            self.images[i].2 = true;
                        }
                        None => {
                            self.by_key.insert(key, self.images.len());
                            self.images.push((key, attrs.clone(), true));
                        }
                    }
                }
            }
            ProductEvent::RemoveProduct { urls, .. } => {
                for url in urls {
                    if let Some(&i) = self.by_key.get(&ImageKey::from_url(url)) {
                        self.images[i].2 = false;
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
                    if let Some(&i) = self.by_key.get(&ImageKey::from_url(url)) {
                        let attrs = &mut self.images[i].1;
                        if let Some(s) = sales {
                            attrs.sales = *s;
                        }
                        if let Some(p) = price {
                            attrs.price = *p;
                        }
                        if let Some(p) = praise {
                            attrs.praise = *p;
                        }
                    }
                }
            }
        }
    }
}

/// Image-ownership predicate: which keys a scoped build keeps. `Arc`'d so
/// one routing closure (e.g. over a live, splittable partition map) can be
/// shared by builders and real-time indexers.
pub type KeyFilter = Arc<dyn Fn(ImageKey) -> bool + Send + Sync>;

/// The full indexer; see the module docs.
pub struct FullIndexBuilder {
    extractor: Arc<CachingExtractor>,
    images: Arc<ImageStore>,
    feature_db: Arc<FeatureDb>,
    /// Ownership predicate: restrict the build to images it accepts.
    filter: Option<KeyFilter>,
}

impl std::fmt::Debug for FullIndexBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FullIndexBuilder")
            .field("filtered", &self.filter.is_some())
            .finish()
    }
}

impl FullIndexBuilder {
    /// Creates a builder over the shared stores.
    pub fn new(
        extractor: Arc<CachingExtractor>,
        images: Arc<ImageStore>,
        feature_db: Arc<FeatureDb>,
    ) -> Self {
        Self {
            extractor,
            images,
            feature_db,
            filter: None,
        }
    }

    /// Restricts the build to images accepted by an arbitrary ownership
    /// predicate (e.g. "routes to partition `p` under the live, possibly
    /// split, partition map").
    pub fn with_filter(mut self, filter: KeyFilter) -> Self {
        self.filter = Some(filter);
        self
    }

    /// Replays `log` in order and fills `index`, an empty index, with the
    /// valid images. Returns the index and a build report.
    ///
    /// # Panics
    ///
    /// Panics if `index` already holds an image.
    pub fn build(&self, index: VisualIndex, log: &[ProductEvent]) -> (VisualIndex, BuildReport) {
        // Phase 1: resolve final catalog state.
        let mut state = CatalogState::default();
        for event in log {
            state.apply(event);
        }
        self.build_from_state(index, state, log.len() as u64)
    }

    /// Like [`FullIndexBuilder::build`], but seeds the catalog state from an
    /// existing index (a decoded checkpoint snapshot) and replays only the
    /// log **suffix** past the seed's watermark. Because a seed index
    /// records images in first-seen order with their final attributes and
    /// validity, reconstructing catalog state from it and applying the
    /// surviving suffix is equivalent to replaying the full log — which is
    /// what makes rebuilds work after checkpoint retention pruned the log
    /// prefix.
    ///
    /// # Panics
    ///
    /// Same contract as [`FullIndexBuilder::build`].
    pub fn build_seeded(
        &self,
        index: VisualIndex,
        seed: &VisualIndex,
        suffix: &[ProductEvent],
    ) -> (VisualIndex, BuildReport) {
        let mut state = CatalogState::default();
        // Seed indexes number images sequentially in first-seen order, so
        // iterating ids reproduces the order a full replay would have seen
        // them in.
        for raw in 0..seed.num_images() {
            let id = crate::ids::ImageId(raw as u32);
            let attrs = seed
                .attributes(id)
                .expect("seed index ids are dense; attributes cannot be missing");
            let key = attrs.image_key();
            state.by_key.insert(key, state.images.len());
            state.images.push((key, attrs, seed.is_valid(id)));
        }
        for event in suffix {
            state.apply(event);
        }
        self.build_from_state(index, state, suffix.len() as u64)
    }

    /// Phase 2, shared by [`build`](FullIndexBuilder::build) and
    /// [`build_seeded`](FullIndexBuilder::build_seeded): obtain features for
    /// the valid images (reuse-first) and bulk insert them.
    fn build_from_state(
        &self,
        index: VisualIndex,
        state: CatalogState,
        messages_replayed: u64,
    ) -> (VisualIndex, BuildReport) {
        assert_eq!(index.num_images(), 0, "a full build fills an empty index");
        let mut report = BuildReport {
            messages_replayed,
            images_seen: state.images.len() as u64,
            ..Default::default()
        };
        let extractions_before = self.extractor.misses();
        let reuses_before = self.extractor.hits();
        for (key, attrs, valid) in state.images {
            if let Some(filter) = &self.filter {
                if !filter(key) {
                    report.images_foreign += 1;
                    continue;
                }
            }
            if !valid {
                report.images_invalid += 1;
                continue;
            }
            let (features, _) = self
                .extractor
                .features_for(&attrs, &self.images, &self.feature_db);
            if let Some(features) = features {
                index
                    .insert(features, attrs)
                    .expect("bulk insert of validated records cannot fail");
                report.images_indexed += 1;
            }
        }
        report.extractions = self.extractor.misses() - extractions_before;
        report.reuses = self.extractor.hits() - reuses_before;
        index.flush();
        (index, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use crate::index::train_quantizers;
    use jdvs_features::cost::CostModel;
    use jdvs_features::{ExtractorConfig, FeatureExtractor};
    use jdvs_storage::model::ProductId;
    use jdvs_vector::{Kmeans, Vector};

    const DIM: usize = 16;

    struct Fixture {
        builder: FullIndexBuilder,
        images: Arc<ImageStore>,
        extractor: Arc<CachingExtractor>,
        config: IndexConfig,
        quantizer: Kmeans,
    }

    impl Fixture {
        /// An empty index around the fixture's one coarse quantizer.
        fn empty(&self) -> VisualIndex {
            VisualIndex::with_quantizers(self.config.clone(), self.quantizer.clone(), None)
        }
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
        let builder =
            FullIndexBuilder::new(Arc::clone(&extractor), Arc::clone(&images), feature_db);
        let config = IndexConfig {
            dim: DIM,
            num_lists: 4,
            initial_list_capacity: 8,
            ..Default::default()
        };
        let mut rng = jdvs_vector::rng::Xoshiro256::seed_from(5);
        let train: Vec<Vector> = (0..64)
            .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let (quantizer, _) = train_quantizers(&config, &train);
        Fixture {
            builder,
            images,
            extractor,
            config,
            quantizer,
        }
    }

    fn add(f: &Fixture, product: u64, url: &str) -> ProductEvent {
        f.images.put_synthetic(url, product * 17);
        ProductEvent::AddProduct {
            product_id: ProductId(product),
            images: vec![ProductAttributes::new(
                ProductId(product),
                1,
                100,
                1,
                url.into(),
            )],
        }
    }

    fn remove(product: u64, url: &str) -> ProductEvent {
        ProductEvent::RemoveProduct {
            product_id: ProductId(product),
            urls: vec![url.into()],
        }
    }

    #[test]
    fn builds_index_of_valid_images_only() {
        let f = fixture();
        let log = vec![
            add(&f, 1, "u1"),
            add(&f, 2, "u2"),
            add(&f, 3, "u3"),
            remove(2, "u2"), // delisted before end of day
        ];
        let (index, report) = f.builder.build(f.empty(), &log);
        assert_eq!(report.messages_replayed, 4);
        assert_eq!(report.images_seen, 3);
        assert_eq!(report.images_indexed, 2);
        assert_eq!(report.images_invalid, 1);
        assert_eq!(index.valid_images(), 2);
        assert!(
            index.lookup(ImageKey::from_url("u2")).is_none(),
            "invalid image not indexed"
        );
    }

    #[test]
    fn relisting_within_the_day_keeps_image_valid() {
        let f = fixture();
        let log = vec![add(&f, 1, "u1"), remove(1, "u1"), add(&f, 1, "u1")];
        let (index, report) = f.builder.build(f.empty(), &log);
        assert_eq!(report.images_indexed, 1);
        assert_eq!(index.valid_images(), 1);
    }

    #[test]
    fn update_events_shape_final_attributes() {
        let f = fixture();
        let log = vec![
            add(&f, 1, "u1"),
            ProductEvent::UpdateAttributes {
                product_id: ProductId(1),
                urls: vec!["u1".into()],
                sales: Some(5_000),
                price: Some(42),
                praise: None,
            },
        ];
        let (index, _) = f.builder.build(f.empty(), &log);
        let id = index.lookup(ImageKey::from_url("u1")).unwrap();
        let attrs = index.attributes(id).unwrap();
        assert_eq!(attrs.sales, 5_000);
        assert_eq!(attrs.price, 42);
        assert_eq!(attrs.praise, 1, "untouched field keeps the add-time value");
    }

    #[test]
    fn second_build_reuses_features() {
        let f = fixture();
        let log: Vec<ProductEvent> = (0..20).map(|i| add(&f, i, &format!("u{i}"))).collect();
        let (_, first) = f.builder.build(f.empty(), &log);
        assert_eq!(first.extractions, 20);
        assert_eq!(first.reuses, 0);
        let (_, second) = f.builder.build(f.empty(), &log);
        assert_eq!(second.extractions, 0, "second build extracts nothing");
        assert_eq!(second.reuses, 20);
        assert_eq!(f.extractor.misses(), 20);
    }

    #[test]
    fn built_index_answers_queries() {
        let f = fixture();
        let log: Vec<ProductEvent> = (0..50).map(|i| add(&f, i, &format!("u{i}"))).collect();
        let (index, _) = f.builder.build(f.empty(), &log);
        let id = index.lookup(ImageKey::from_url("u7")).unwrap();
        let feats = index.features(id).unwrap();
        let hits = index.search(feats.as_slice(), 1, index.quantizer().k());
        assert_eq!(hits[0].id, id.as_u64());
    }

    #[test]
    fn empty_log_leaves_the_supplied_index_empty() {
        let f = fixture();
        let (index, report) = f.builder.build(f.empty(), &[]);
        assert_eq!(report, BuildReport::default());
        assert_eq!(index.num_images(), 0);
    }

    #[test]
    fn seeded_build_matches_cold_build_bit_for_bit() {
        let f = fixture();
        let prefix: Vec<ProductEvent> = (0..12)
            .map(|i| add(&f, i, &format!("u{i}")))
            .chain([remove(3, "u3"), remove(7, "u7")])
            .collect();
        let suffix: Vec<ProductEvent> = (12..20)
            .map(|i| add(&f, i, &format!("u{i}")))
            .chain([
                remove(1, "u1"),
                add(&f, 7, "u7"), // relist a prefix-deleted image
                ProductEvent::UpdateAttributes {
                    product_id: ProductId(5),
                    urls: vec!["u5".into()],
                    sales: Some(9_000),
                    price: None,
                    praise: Some(77),
                },
            ])
            .collect();
        let full: Vec<ProductEvent> = prefix.iter().chain(&suffix).cloned().collect();

        // The seed is what a checkpoint snapshots: a realtime-maintained
        // index, which keeps tombstoned records in first-seen order.
        let seed = {
            let (cold_prefix, _) = f.builder.build(f.empty(), &prefix[..12]); // adds only
            let live = crate::realtime::RealtimeIndexer::for_index(
                Arc::new(cold_prefix),
                Arc::clone(&f.extractor),
                Arc::clone(&f.images),
                Arc::new(FeatureDb::new()),
            );
            for ev in &prefix[12..] {
                live.apply(ev);
            }
            live.index()
        };

        let (seeded, seeded_report) = f.builder.build_seeded(f.empty(), &seed, &suffix);
        let (cold, _) = f.builder.build(f.empty(), &full);

        assert_eq!(seeded_report.messages_replayed, suffix.len() as u64);
        assert_eq!(
            crate::persist::save(&seeded),
            crate::persist::save(&cold),
            "checkpoint-seeded build must be bit-identical to a cold full replay"
        );
    }

    #[test]
    fn filter_scoped_build_may_own_zero_images() {
        let f = fixture();
        let log = vec![add(&f, 1, "u1"), add(&f, 2, "u2")];
        let empty = f.empty();
        let (index, report) = f
            .builder
            .with_filter(Arc::new(|_key: ImageKey| false))
            .build(empty, &log);
        assert_eq!(report.images_indexed, 0);
        assert_eq!(report.images_foreign, 2);
        assert_eq!(index.valid_images(), 0, "empty index, not a panic");
    }

    #[test]
    fn update_before_add_is_ignored() {
        let f = fixture();
        let log = vec![
            ProductEvent::UpdateAttributes {
                product_id: ProductId(1),
                urls: vec!["u1".into()],
                sales: Some(1),
                price: None,
                praise: None,
            },
            remove(1, "u1"),
            add(&f, 1, "u1"),
        ];
        let (index, report) = f.builder.build(f.empty(), &log);
        assert_eq!(report.images_indexed, 1);
        assert_eq!(index.valid_images(), 1);
    }
}
