//! One-call experiment worlds.
//!
//! A [`World`] is everything an experiment needs, assembled consistently:
//! shared stores, the extraction pipeline with its cost model, a
//! materialized catalog, a trained-and-loaded [`SearchTopology`], and
//! helpers for the update-stream and freshness scenarios. Examples,
//! integration tests and the `repro` harness all build on it, so every
//! figure is regenerated against the same machinery.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use jdvs_core::IndexConfig;
use jdvs_features::cost::{CostDistribution, CostModel};
use jdvs_features::{CachingExtractor, ExtractorConfig, FeatureExtractor};
use jdvs_search::serving::NetClient;
use jdvs_search::topology::{SearchTopology, TopologyConfig};
use jdvs_storage::model::ProductId;
use jdvs_storage::{FeatureDb, ImageStore, MessageQueue};
use jdvs_vector::Vector;

use crate::catalog::{Catalog, CatalogConfig};
use crate::events::TimedEvent;

/// How the experiment charges feature-extraction cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExtractionCost {
    /// No cost (fast tests).
    Free,
    /// Really sleep per extraction (wall-clock experiments).
    Sleep(CostDistribution),
    /// Account cost without sleeping.
    Virtual(CostDistribution),
}

/// World parameters.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Catalog shape.
    pub catalog: CatalogConfig,
    /// Serving-stack shape.
    pub topology: TopologyConfig,
    /// Extraction cost model.
    pub extraction_cost: ExtractionCost,
    /// Feature extractor settings (dim is forced to `topology.index.dim`).
    pub extractor: ExtractorConfig,
    /// Master seed.
    pub seed: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            catalog: CatalogConfig::default(),
            topology: TopologyConfig::default(),
            extraction_cost: ExtractionCost::Free,
            extractor: ExtractorConfig::default(),
            seed: 0x120_D07,
        }
    }
}

impl WorldConfig {
    /// A tiny fast world for unit/integration tests: small catalog, small
    /// index, 2 partitions, no latency, free extraction.
    pub fn fast_test() -> Self {
        Self {
            catalog: CatalogConfig {
                num_products: 40,
                num_clusters: 5,
                ..Default::default()
            },
            topology: TopologyConfig {
                index: IndexConfig {
                    dim: 16,
                    num_lists: 8,
                    nprobe: 8,
                    initial_list_capacity: 16,
                    ..Default::default()
                },
                num_partitions: 2,
                replicas_per_partition: 1,
                num_broker_groups: 1,
                broker_replicas: 1,
                num_blenders: 1,
                // Deterministic assertions: pure similarity ranking, so an
                // exact image match is always the top result.
                ranking: jdvs_search::RankingPolicy::similarity_only(),
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// A running experiment world; see the module docs.
pub struct World {
    catalog: Catalog,
    images: Arc<ImageStore>,
    feature_db: Arc<FeatureDb>,
    extractor: Arc<CachingExtractor>,
    topology: SearchTopology,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("products", &self.catalog.len())
            .field("images", &self.images.len())
            .finish()
    }
}

impl World {
    /// Builds a world: generates and materializes the catalog, extracts a
    /// training sample, stands up the topology, and bulk-loads every
    /// catalog image into its partition (the state a weekly full index
    /// would have distributed).
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration.
    pub fn build(mut config: WorldConfig) -> Self {
        config.extractor.dim = config.topology.index.dim;
        let images = Arc::new(ImageStore::with_blob_len(256));
        let feature_db = Arc::new(FeatureDb::new());
        let cost = match config.extraction_cost {
            ExtractionCost::Free => CostModel::free(),
            ExtractionCost::Sleep(d) => CostModel::sleep(d, config.seed ^ 0xC057),
            ExtractionCost::Virtual(d) => CostModel::virtual_time(d, config.seed ^ 0xC057),
        };
        let extractor = Arc::new(CachingExtractor::new(
            FeatureExtractor::new(config.extractor.clone()),
            cost,
        ));

        let catalog = Catalog::generate(&config.catalog);
        catalog.materialize(&images);

        // Category detector: one prototype per visual cluster, in the same
        // normalized space as extracted features (Section 2.4's query-side
        // category identification; cluster = product family = category).
        let mut clusters: Vec<u64> = catalog.products().iter().map(|p| p.cluster).collect();
        clusters.sort_unstable();
        clusters.dedup();
        let prototypes = clusters
            .iter()
            .map(|&c| {
                let mut center = extractor.extractor().cluster_center(c);
                if config.extractor.normalize {
                    center.normalize();
                }
                (jdvs_features::category::CategoryId(c as u32), center)
            })
            .collect();
        config.topology.category_detector = Some(Arc::new(
            jdvs_features::category::CategoryDetector::new(prototypes),
        ));

        // Extract features for every catalog image once (populates the
        // feature DB — the state after the first full indexing) and use a
        // sample as quantizer training data. This bootstrap models the
        // *offline* weekly build, so it bypasses the cost model — the
        // configured extraction cost applies to query-time and real-time
        // indexing extraction only.
        let mut training: Vec<Vector> = Vec::new();
        for product in catalog.products() {
            for attrs in product.image_attributes() {
                let key = attrs.image_key();
                let blob = images.get(key).expect("catalog was materialized");
                let f = extractor.extractor().extract(&blob);
                feature_db.insert(f.clone(), attrs);
                if training.len() < config.topology.index.train_sample {
                    training.push(f);
                }
            }
        }
        assert!(
            !training.is_empty(),
            "catalog produced no trainable features"
        );

        let topology = SearchTopology::build(
            config.topology.clone(),
            Arc::clone(&extractor),
            Arc::clone(&images),
            Arc::clone(&feature_db),
            &training,
            MessageQueue::new(),
        );

        // Bulk load: every image goes straight into its partition's
        // replicas (features come from the feature DB — no re-extraction).
        let map = topology.partition_map();
        for product in catalog.products() {
            for attrs in product.image_attributes() {
                let key = attrs.image_key();
                let p = map.partition_of(key);
                let features = feature_db.features(key).expect("extracted above");
                for index in &topology.indexes()[p] {
                    index
                        .insert(features.clone(), attrs.clone())
                        .expect("bulk load insert");
                }
            }
        }
        for replicas in topology.indexes() {
            for index in replicas {
                index.flush();
            }
        }

        // The message log is the catalog's source of truth (the weekly
        // full index rebuilds from it — Figure 2), so the bootstrap state
        // must be in the log too. Real-time indexers replay these adds as
        // cheap revalidation no-ops against the bulk-loaded records.
        for event in catalog.bootstrap_events() {
            topology.publish(event);
        }
        topology.wait_for_freshness(Duration::from_secs(120));

        Self {
            catalog,
            images,
            feature_db,
            extractor,
            topology,
        }
    }

    /// The catalog (immutable view; event generation clones it).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable catalog access (the daily-event generator extends it).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// The image store.
    pub fn images(&self) -> &Arc<ImageStore> {
        &self.images
    }

    /// The feature database.
    pub fn feature_db(&self) -> &Arc<FeatureDb> {
        &self.feature_db
    }

    /// The extraction pipeline.
    pub fn extractor(&self) -> &Arc<CachingExtractor> {
        &self.extractor
    }

    /// The serving stack.
    pub fn topology(&self) -> &SearchTopology {
        &self.topology
    }

    /// Mutable serving stack access (shutdown).
    pub fn topology_mut(&mut self) -> &mut SearchTopology {
        &mut self.topology
    }

    /// A user client.
    pub fn client(&self, deadline: Duration) -> NetClient {
        self.topology.client(deadline)
    }

    /// The visual cluster of a product (ground truth for hit-rate checks).
    pub fn cluster_of(&self, product: ProductId) -> Option<u64> {
        self.catalog
            .products()
            .iter()
            .find(|p| p.id == product)
            .map(|p| p.cluster)
    }

    /// Publishes catalog events at a steady rate on a background thread;
    /// returns a handle that stops the stream. `rate_per_sec = 0` publishes
    /// as fast as possible.
    pub fn start_update_stream(
        &self,
        events: Vec<TimedEvent>,
        rate_per_sec: u64,
    ) -> UpdateStreamHandle {
        let queue = self.topology.queue().clone();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("update-stream".into())
            .spawn(move || {
                let pause = 1_000_000_000u64
                    .checked_div(rate_per_sec)
                    .map(Duration::from_nanos)
                    .unwrap_or(Duration::ZERO);
                let mut published = 0u64;
                for te in events {
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    queue.publish(te.event);
                    published += 1;
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                }
                published
            })
            .expect("spawning update stream");
        UpdateStreamHandle {
            stop,
            handle: Some(handle),
        }
    }
}

/// Controls a background update stream; join to get the publish count.
#[derive(Debug)]
pub struct UpdateStreamHandle {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<u64>>,
}

impl UpdateStreamHandle {
    /// Stops the stream and returns how many events were published.
    pub fn stop(mut self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .take()
            .map(|h| h.join().unwrap_or(0))
            .unwrap_or(0)
    }

    /// Waits for the stream to publish everything.
    pub fn join(mut self) -> u64 {
        self.handle
            .take()
            .map(|h| h.join().unwrap_or(0))
            .unwrap_or(0)
    }
}

impl Drop for UpdateStreamHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{DailyPlan, DailyPlanConfig};
    use crate::queries::QueryGenerator;
    use jdvs_search::protocol::QueryInput;
    use jdvs_search::SearchQuery;

    #[test]
    fn world_bulk_loads_catalog() {
        let world = World::build(WorldConfig::fast_test());
        let total: usize = world
            .topology()
            .indexes()
            .iter()
            .flatten()
            .map(|i| i.num_images())
            .sum();
        assert_eq!(
            total,
            world.catalog().num_images(),
            "every image in exactly one partition"
        );
    }

    #[test]
    fn fresh_photo_query_hits_its_cluster() {
        let world = World::build(WorldConfig::fast_test());
        let generator = QueryGenerator::new(world.catalog(), 5);
        let client = world.client(Duration::from_secs(5));
        let mut hits = 0;
        let mut total = 0;
        for _ in 0..10 {
            let (query, cluster) = generator.next_query(world.images(), 6);
            let resp = client.search(query).unwrap();
            for r in &resp.results {
                total += 1;
                if world.cluster_of(r.hit.product_id) == Some(cluster) {
                    hits += 1;
                }
            }
        }
        assert!(total > 0);
        let rate = hits as f64 / total as f64;
        assert!(rate > 0.7, "intra-cluster hit rate too low: {rate}");
    }

    #[test]
    fn update_stream_feeds_realtime_indexing() {
        let mut world = World::build(WorldConfig::fast_test());
        let store = Arc::clone(world.images());
        let plan = DailyPlan::generate(
            world.catalog_mut(),
            &store,
            &DailyPlanConfig {
                total_events: 200,
                seed: 3,
                ..Default::default()
            },
        );
        let before: u64 = world
            .topology()
            .indexes()
            .iter()
            .flatten()
            .map(|i| i.stats().total_mutations())
            .sum();
        let handle = world.start_update_stream(plan.events().to_vec(), 0);
        assert_eq!(handle.join(), 200);
        world.topology().wait_for_freshness(Duration::from_secs(30));
        let after: u64 = world
            .topology()
            .indexes()
            .iter()
            .flatten()
            .map(|i| i.stats().total_mutations())
            .sum();
        assert!(after > before, "events must reach the indexes");
    }

    #[test]
    fn update_stream_can_be_stopped_early() {
        let world = World::build(WorldConfig::fast_test());
        let events: Vec<TimedEvent> = (0..10_000)
            .map(|_| TimedEvent {
                hour: 0,
                event: world.catalog().products()[0].add_event(),
            })
            .collect();
        let handle = world.start_update_stream(events, 1_000); // 1k/s → 10s total
        std::thread::sleep(Duration::from_millis(100));
        let published = handle.stop();
        assert!(
            published < 10_000,
            "stream should stop early, published {published}"
        );
    }

    #[test]
    fn query_category_is_detected() {
        let world = World::build(WorldConfig::fast_test());
        let client = world.client(Duration::from_secs(5));
        let generator = QueryGenerator::new(world.catalog(), 8);
        let mut correct = 0;
        for _ in 0..10 {
            let (query, cluster) = generator.next_query(world.images(), 1);
            let resp = client.search(query).unwrap();
            if resp.detected_category == Some(cluster as u32) {
                correct += 1;
            }
        }
        assert!(
            correct >= 9,
            "category detection accuracy too low: {correct}/10"
        );
    }

    #[test]
    fn searching_an_indexed_image_url_finds_its_product() {
        let world = World::build(WorldConfig::fast_test());
        let client = world.client(Duration::from_secs(5));
        let product = &world.catalog().products()[3];
        let url = product.urls[0].clone();
        let resp = client
            .search(SearchQuery::by_image_url(url.clone(), 1))
            .unwrap();
        assert_eq!(
            resp.results[0].hit.product_id, product.id,
            "exact image match wins"
        );
        // Sanity: the query really went through the URL path.
        match SearchQuery::by_image_url(url, 1).input {
            QueryInput::ImageUrl(_) => {}
            _ => panic!(),
        }
    }
}
