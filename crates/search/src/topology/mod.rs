//! Whole-system assembly (Figure 1 / Figure 10).
//!
//! [`SearchTopology::build`] stands up the paper's serving stack in one
//! call: P×R searcher replicas (each with its partition index behind a
//! hot-swappable [`IndexHandle`] and, when enabled, a real-time indexing
//! thread following the shared message queue), then the topology's own
//! [`NetServing`] stack over them — a TCP listener per searcher replica,
//! G×R broker instances and B blenders — and the front-end load balancer.
//! The returned handle owns every listener and thread and tears the system
//! down in [`SearchTopology::shutdown`] (also on drop).
//!
//! The serving layout is one **live replica table**: a row per partition
//! (checkpoint store, pause flag, one record per searcher replica) on the
//! append-only [`Directory`] — rows only grow — read lock-free by the
//! topology, the scheduler and [`NetServing::over`]. `durable` holds the
//! durable half; `lifecycle` startup recovery and the maintenance
//! operations, the paper's weekly full indexing among them.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use jdvs_core::directory::Directory;
use jdvs_core::index::train_quantizers;
use jdvs_core::swap::IndexHandle;
use jdvs_core::VisualIndex;
use jdvs_durability::checkpoint::CheckpointStore;
use jdvs_durability::queue::DurableQueue;
use jdvs_durability::recovery::RecoveryReport;
use jdvs_features::CachingExtractor;
use jdvs_metrics::{DurabilityMetrics, DurabilitySnapshot, ResilienceMetrics, ResilienceSnapshot};
use jdvs_net::balancer::Balancer;
use jdvs_net::rpc::RpcError;
use jdvs_net::tcp::TcpChannel;
use jdvs_net::FaultInjector;
use jdvs_storage::lru::LruCache;
use jdvs_storage::model::{ImageKey, ProductEvent};
use jdvs_storage::{FeatureDb, ImageStore, MessageQueue};
use jdvs_vector::Vector;

use crate::blender::BlenderService;
use crate::client::SearchClient;
use crate::partition::PartitionMap;
use crate::protocol::{SearchQuery, SearchResponse};
use crate::serving::{FanoutChannel, NetBlender, NetClient, NetServing, NetServingConfig};

mod config;
mod durable;
mod lifecycle;

pub use config::TopologyConfig;
pub use durable::DurabilityOptions;
use durable::DurableParts;
use lifecycle::Pause;
pub use lifecycle::{BootstrapReport, CheckpointReport, RebuildReport, SplitReport};

/// Per-replica slice of an [`OpsReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionOps {
    /// Partition number.
    pub partition: usize,
    /// Replica number.
    pub replica: usize,
    /// Hot-swap generation (how many full rebuilds landed).
    pub generation: u64,
    /// Forward-index records (incl. logically deleted).
    pub records: usize,
    /// Currently valid (searchable) images.
    pub valid: usize,
    /// Lifetime insert count.
    pub inserts: u64,
    /// Lifetime reuse (revalidation) count.
    pub reuses: u64,
    /// Lifetime attribute-update count.
    pub updates: u64,
    /// Lifetime logical-deletion count.
    pub deletions: u64,
    /// Lifetime queries served by this replica's index.
    pub searches: u64,
    /// Inverted-list expansions performed.
    pub expansions: u64,
    /// Applied-offset watermark: queue offset after the newest event this
    /// replica's index has applied (0 when no event carried an offset).
    pub applied_offset: u64,
}

/// Point-in-time operational snapshot of the stack.
#[derive(Debug, Clone, PartialEq)]
pub struct OpsReport {
    /// Messages ever published to the update queue.
    pub queue_length: u64,
    /// Events the slowest real-time indexer has yet to consume.
    pub max_indexer_lag: u64,
    /// Blender query-cache statistics, when enabled.
    pub query_cache: Option<jdvs_storage::lru::LruStats>,
    /// Durability counters, when the topology was built durable.
    pub durability: Option<DurabilitySnapshot>,
    /// One entry per (partition, replica).
    pub partitions: Vec<PartitionOps>,
}

impl OpsReport {
    /// Valid images across one replica of each partition (logical corpus
    /// size).
    pub fn logical_valid_images(&self) -> usize {
        self.partitions
            .iter()
            .filter(|p| p.replica == 0)
            .map(|p| p.valid)
            .sum()
    }
}

/// How long [`SearchTopology::shutdown`] waits for each tier of its stack
/// to finish in-flight work.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(5);

/// One searcher replica: its hot-swappable index (served by a listener of
/// the topology's stack) and its real-time indexer's progress.
struct Replica {
    handle: Arc<IndexHandle>,
    /// Absolute queue position the indexer has consumed through (== the
    /// replica's applied-offset watermark).
    processed: Arc<AtomicU64>,
    /// Newest pause epoch the indexer has positively acknowledged (it is
    /// parked, no apply in flight).
    parked: Arc<AtomicU64>,
}

/// One partition's row of the replica table. A row is filled before it is
/// appended, so it always holds at least one replica.
struct Partition {
    replicas: Directory<Replica>,
    /// The partition's checkpoint store, when built durable.
    checkpoints: Option<CheckpointStore>,
    /// Raised while a lifecycle plan holds this partition still; only this
    /// row's indexer threads watch it.
    pause: Arc<Pause>,
}

impl Partition {
    fn new(checkpoints: Option<CheckpointStore>) -> Self {
        Self {
            replicas: Directory::new(),
            checkpoints,
            pause: Arc::default(),
        }
    }

    fn replicas(&self) -> impl Iterator<Item = &Replica> {
        self.replicas.iter().map(|(_, r)| r)
    }

    fn replica(&self, replica: usize) -> &Replica {
        self.replicas.get(replica).expect("replica out of range")
    }

    /// The replicas' index handles, in replica order.
    fn handles(&self) -> Vec<Arc<IndexHandle>> {
        self.replicas().map(|r| Arc::clone(&r.handle)).collect()
    }

    /// The applied-offset watermark of the newest checkpoint manifest.
    fn watermark(&self) -> Option<u64> {
        Some(self.checkpoints.as_ref()?.manifest()?.applied_offset)
    }
}

/// Appends `value` to a densely filled directory. One writer at a time:
/// assembly, or a lifecycle operation holding `&mut SearchTopology`.
fn append<T>(dir: &Directory<T>, value: T) {
    let next = dir.iter().count();
    dir.get_or_init(next, || value);
}

/// The live replica table and what every lifecycle plan runs on, shared
/// (`Arc`) by the [`SearchTopology`], every indexer thread and the
/// background scheduler, so a row a split or bootstrap appends is seen by
/// all of them.
struct Core {
    partitions: Directory<Partition>,
    /// The live partition layout, shared with every partition filter
    /// closure: an online split rewrites it in place and the parent's
    /// indexers immediately stop owning the moved keys.
    layout: Arc<RwLock<PartitionMap>>,
    /// Serializes checkpoint/rebuild/bootstrap/split. Pauses are per row,
    /// but these operations share more than a row: checkpoint store writes
    /// and reads, retention of the one log, and changes to the layout.
    maintenance: Mutex<()>,
    stop: AtomicBool,
    config: TopologyConfig,
    queue: MessageQueue<ProductEvent>,
    extractor: Arc<CachingExtractor>,
    images: Arc<ImageStore>,
    feature_db: Arc<FeatureDb>,
    durable: Option<DurableParts>,
    /// The query-feature cache every blender shares, when configured.
    query_cache: Option<Arc<LruCache<ImageKey, Vector>>>,
    /// Live per-group partition counts, shared with the coverage
    /// accounting of every blender over this table; a split bumps the
    /// parent's group.
    group_partition_counts: Arc<Vec<AtomicUsize>>,
}

impl Core {
    fn partition(&self, p: usize) -> &Partition {
        self.partitions.get(p).expect("partition out of range")
    }

    fn rows(&self) -> impl Iterator<Item = &Partition> {
        self.partitions.iter().map(|(_, row)| row)
    }

    /// A blender over `groups` the way every blender over this table is
    /// built: sharing its query-feature cache, category detector, ranking
    /// and live per-group partition counts.
    fn blender(
        &self,
        groups: Vec<Balancer<FanoutChannel>>,
        metrics: &Arc<ResilienceMetrics>,
    ) -> NetBlender {
        let config = &self.config;
        let mut service = BlenderService::new(
            groups,
            Arc::clone(&self.extractor),
            Arc::clone(&self.images),
            config.ranking,
            config.broker_deadline,
        )
        .with_shared_group_partitions(Arc::clone(&self.group_partition_counts))
        .with_metrics(Arc::clone(metrics));
        if let Some(cache) = &self.query_cache {
            service = service.with_query_cache(Arc::clone(cache));
        }
        if let Some(detector) = &config.category_detector {
            service = service.with_category_detector(Arc::clone(detector));
        }
        service
    }

    /// A stack of the three tiers over the live replica table.
    fn serve(
        &self,
        config: NetServingConfig,
        resilience: Arc<ResilienceMetrics>,
    ) -> io::Result<NetServing> {
        let rows: Vec<_> = self.rows().map(Partition::handles).collect();
        let layout = self.layout.read().clone();
        let blender = |groups, metrics: &Arc<ResilienceMetrics>| self.blender(groups, metrics);
        NetServing::wire(config, &self.config, &layout, &rows, blender, resilience)
    }
}

/// The assembled serving system.
pub struct SearchTopology {
    /// The live replica table, layout and log, shared with the indexer
    /// threads and the background scheduler.
    core: Arc<Core>,
    /// The topology's own stack of TCP tiers over the replica table;
    /// replica bootstrap and partition split grow it.
    net: NetServing,
    /// The front-end balancer over `net`'s blenders, shared by every
    /// client.
    frontend: Arc<Balancer<TcpChannel<SearchQuery, SearchResponse>>>,
    indexer_threads: Vec<JoinHandle<()>>,
    /// Background checkpoint scheduler
    /// ([`DurabilityOptions::checkpoint_exposure`]), joined in shutdown.
    checkpoint_scheduler: Option<JoinHandle<()>>,
    /// Resilience counters of `net` (every balancer, broker and blender).
    metrics: Arc<ResilienceMetrics>,
    /// What startup recovery did, one entry per (partition, replica) in
    /// partition-major order; empty unless built durable.
    recovery: Vec<RecoveryReport>,
}

impl std::fmt::Debug for SearchTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchTopology")
            .field("partitions", &self.core.rows().count())
            .field("blenders", &self.core.config.num_blenders)
            .field("realtime_indexing", &self.core.config.realtime_indexing)
            .finish()
    }
}

impl SearchTopology {
    /// Builds the full stack.
    ///
    /// The coarse quantizer and PQ codebook are trained once on `training`
    /// and shared by all partition replicas (as the weekly full index does
    /// in production);
    /// `queue` is the catalog's update stream, followed by every searcher's
    /// real-time indexing thread when `config.realtime_indexing` is set.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid or `training` is empty.
    ///
    /// Panics if a loopback listener cannot be bound.
    pub fn build(
        config: TopologyConfig,
        extractor: Arc<CachingExtractor>,
        images: Arc<ImageStore>,
        feature_db: Arc<FeatureDb>,
        training: &[Vector],
        queue: MessageQueue<ProductEvent>,
    ) -> Self {
        config.validate();
        let layout = PartitionMap::new(config.num_partitions, config.num_broker_groups);
        Self::assemble(
            config, extractor, images, feature_db, training, queue, layout, None,
        )
        .expect("binding the topology's loopback listeners")
    }

    /// Shared by build/build_durable; a durable topology brings one
    /// checkpoint store per partition of `layout`. Fails only to bind a
    /// listener.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        config: TopologyConfig,
        extractor: Arc<CachingExtractor>,
        images: Arc<ImageStore>,
        feature_db: Arc<FeatureDb>,
        training: &[Vector],
        queue: MessageQueue<ProductEvent>,
        layout: PartitionMap,
        durable: Option<(DurableParts, Vec<CheckpointStore>)>,
    ) -> io::Result<Self> {
        config.validate();
        // One metrics instance shared by every balancer/broker/blender, so
        // a single snapshot covers the whole serving path.
        let metrics = Arc::new(ResilienceMetrics::new());
        // Trained once per topology and shared by every replica: each
        // replica's `with_quantizers` below clones the centroid graph built
        // here and the same PQ codebook, and every snapshot written from
        // them carries that codebook.
        let (quantizer, pq) = train_quantizers(&config.index, training);

        // --- Searchers: the replica table, one row per partition (the
        // layout may have more than the config when a persisted map
        // recorded previous splits). --------------------------------------
        let num_partitions = layout.num_partitions();
        let (durable, stores) = durable.map_or((None, Vec::new()), |(d, s)| (Some(d), s));
        let group_partition_counts = (0..config.num_broker_groups)
            .map(|g| AtomicUsize::new(layout.partitions_of_group(g).len()))
            .collect();
        let core = Arc::new(Core {
            partitions: Directory::new(),
            layout: Arc::new(RwLock::new(layout)),
            maintenance: Mutex::new(()),
            stop: AtomicBool::new(false),
            query_cache: config
                .query_cache_capacity
                .map(|cap| Arc::new(LruCache::new(cap))),
            group_partition_counts: Arc::new(group_partition_counts),
            config,
            queue,
            extractor,
            images,
            feature_db,
            durable,
        });
        let config = &core.config;
        let cold =
            || VisualIndex::with_quantizers(config.index.clone(), quantizer.clone(), pq.clone());
        let (mut indexer_threads, mut recovery) = (Vec::new(), Vec::new());
        let mut stores = stores.into_iter();
        for p in 0..num_partitions {
            let reports = lifecycle::start_row(&core, p, stores.next(), cold, &mut indexer_threads);
            recovery.extend(reports);
        }

        // --- The serving stack over the table, and its front end. ---------
        let net = core.serve(NetServingConfig::pooled(), Arc::clone(&metrics))?;
        let frontend = Arc::new(net.frontend());

        let checkpoint_scheduler = durable::spawn_scheduler(&core);
        Ok(Self {
            core,
            net,
            frontend,
            indexer_threads,
            checkpoint_scheduler,
            metrics,
            recovery,
        })
    }

    /// Another stack of the three tiers over this topology's live replica
    /// table — the entry of [`NetServing::over`] to the one wiring.
    pub(crate) fn serve(
        &self,
        config: NetServingConfig,
        resilience: Arc<ResilienceMetrics>,
    ) -> io::Result<NetServing> {
        self.core.serve(config, resilience)
    }

    /// The shared resilience counters of the topology's own stack (every
    /// balancer, broker, and blender reports into this instance).
    pub fn resilience_metrics(&self) -> &Arc<ResilienceMetrics> {
        &self.metrics
    }

    /// Point-in-time snapshot of the resilience counters.
    pub fn resilience_snapshot(&self) -> ResilienceSnapshot {
        self.metrics.snapshot()
    }

    /// Statistics of the shared blender query-feature cache, if enabled.
    pub fn query_cache_stats(&self) -> Option<jdvs_storage::lru::LruStats> {
        self.core.query_cache.as_ref().map(|c| c.stats())
    }

    /// A point-in-time operational report across the whole stack — what a
    /// production dashboard would scrape.
    pub fn ops_report(&self) -> OpsReport {
        let mut partitions = Vec::new();
        for (p, row) in self.core.rows().enumerate() {
            for (r, replica) in row.replicas().enumerate() {
                let index = replica.handle.get();
                partitions.push(PartitionOps {
                    partition: p,
                    replica: r,
                    generation: replica.handle.generation(),
                    records: index.num_images(),
                    valid: index.valid_images(),
                    inserts: index.stats().inserts.get(),
                    reuses: index.stats().reuses.get(),
                    updates: index.stats().updates.get(),
                    deletions: index.stats().deletions.get(),
                    searches: index.stats().searches.get(),
                    expansions: index.inverted().total_expansions(),
                    applied_offset: index.stats().applied_offset.get(),
                });
            }
        }
        OpsReport {
            queue_length: self.core.queue.len(),
            max_indexer_lag: self.max_indexer_lag(),
            query_cache: self.query_cache_stats(),
            durability: self.durability_snapshot(),
            partitions,
        }
    }

    /// The durability counters, when built with
    /// [`SearchTopology::build_durable`].
    pub fn durability_metrics(&self) -> Option<&Arc<DurabilityMetrics>> {
        self.core.durable.as_ref().map(|d| &d.metrics)
    }

    /// Point-in-time durability snapshot, when built durable.
    pub fn durability_snapshot(&self) -> Option<DurabilitySnapshot> {
        self.durability_metrics().map(|m| m.snapshot())
    }

    /// What startup recovery did, one report per (partition, replica) in
    /// partition-major order; `None` when not built durable.
    pub fn recovery_reports(&self) -> Option<&[RecoveryReport]> {
        self.core.durable.as_ref().map(|_| self.recovery.as_slice())
    }

    /// The durable queue (log handle), when built durable. Useful for
    /// forcing a [`DurableQueue::sync`] in tests and operational tooling.
    pub fn durable_queue(&self) -> Option<&DurableQueue> {
        self.core.durable.as_ref().map(|d| &d.queue)
    }

    /// The applied-offset watermark of `partition`'s newest checkpoint
    /// manifest — `None` when not built durable or never checkpointed.
    /// What the background scheduler measures replay exposure against.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    pub fn checkpoint_watermark(&self, partition: usize) -> Option<u64> {
        self.core.partition(partition).watermark()
    }

    /// A snapshot of the partition layout. Splits change the live layout;
    /// take a fresh snapshot rather than caching this across maintenance
    /// operations.
    pub fn partition_map(&self) -> PartitionMap {
        self.core.layout.read().clone()
    }

    /// The stack's configuration (shape, deadlines, policies).
    pub fn config(&self) -> &TopologyConfig {
        &self.core.config
    }

    /// The shared feature extractor.
    pub fn extractor(&self) -> &Arc<CachingExtractor> {
        &self.core.extractor
    }

    /// The shared image store.
    pub fn images(&self) -> &Arc<ImageStore> {
        &self.core.images
    }

    /// The catalog update queue (publish events here).
    pub fn queue(&self) -> &MessageQueue<ProductEvent> {
        &self.core.queue
    }

    /// Publishes one catalog event.
    pub fn publish(&self, event: ProductEvent) {
        self.core.queue.publish(event);
    }

    /// A user-facing client through the front-end balancer.
    pub fn client(&self, deadline: Duration) -> NetClient {
        SearchClient::new(Arc::clone(&self.frontend), deadline)
    }

    /// Convenience: one query through the front end.
    ///
    /// # Errors
    ///
    /// Propagates RPC errors if every blender fails.
    pub fn search(&self, query: SearchQuery) -> Result<SearchResponse, RpcError> {
        self.frontend.call(query, Duration::from_secs(30))
    }

    /// Snapshot of replica `r` of partition `p`'s current index.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn index(&self, partition: usize, replica: usize) -> Arc<VisualIndex> {
        self.handle(partition, replica).get()
    }

    /// The hot-swap handle of a replica.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn handle(&self, partition: usize, replica: usize) -> &Arc<IndexHandle> {
        &self.core.partition(partition).replica(replica).handle
    }

    /// Snapshots of all current indexes, `[partition][replica]`.
    pub fn indexes(&self) -> Vec<Vec<Arc<VisualIndex>>> {
        self.core
            .rows()
            .map(|row| row.replicas().map(|r| r.handle.get()).collect())
            .collect()
    }

    /// Fault controls of a searcher replica's listener in the topology's
    /// own stack.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn searcher_faults(&self, partition: usize, replica: usize) -> &FaultInjector {
        self.net.searcher_faults(partition, replica)
    }

    /// Fault controls of a broker instance's listener in the topology's
    /// own stack.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn broker_faults(&self, group: usize, instance: usize) -> &FaultInjector {
        self.net.broker_faults(group, instance)
    }

    /// Total images across partition replicas (each image counted once per
    /// replica; divide by the replica count for logical size).
    pub fn total_indexed_images(&self) -> usize {
        self.indexes()
            .iter()
            .flatten()
            .map(|i| i.num_images())
            .sum()
    }

    /// Number of unread events the slowest real-time indexer still has to
    /// process — 0 means every partition is fully caught up (always 0
    /// without real-time indexing).
    pub fn max_indexer_lag(&self) -> u64 {
        if !self.core.config.realtime_indexing {
            return 0;
        }
        let published = self.core.queue.len();
        self.core
            .rows()
            .flat_map(Partition::replicas)
            .map(|r| published.saturating_sub(r.processed.load(Ordering::Acquire)))
            .max()
            .unwrap_or(0)
    }

    /// Blocks until every partition's indexer has consumed the whole queue
    /// (only meaningful while nothing is concurrently publishing), then
    /// flushes in-flight inverted-list expansions.
    ///
    /// # Panics
    ///
    /// Panics if indexers fail to catch up within `timeout`.
    pub fn wait_for_freshness(&self, timeout: Duration) {
        if !self.core.config.realtime_indexing {
            return;
        }
        let deadline = std::time::Instant::now() + timeout;
        while self.max_indexer_lag() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "real-time indexers failed to catch up within {timeout:?}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        for replica in self.core.rows().flat_map(Partition::replicas) {
            replica.handle.get().flush();
        }
    }

    /// Stops real-time indexers (draining the queue), then drains the
    /// topology's stack, top tier first, and closes its listeners.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.core.stop.store(true, Ordering::SeqCst);
        // Stop the checkpoint scheduler before the indexers: a checkpoint
        // cut mid-teardown would race the drain below (quiesce bails on
        // the stop flag, so this join is prompt).
        if let Some(t) = self.checkpoint_scheduler.take() {
            let _ = t.join();
        }
        for t in self.indexer_threads.drain(..) {
            let _ = t.join();
        }
        // Push any unsynced log tail to stable storage before the tiers
        // go away (clean shutdowns lose nothing even under FsyncPolicy::Os).
        if let Some(queue) = self.durable_queue() {
            let _ = queue.sync();
        }
        self.net.drain(SHUTDOWN_DRAIN);
    }
}

impl Drop for SearchTopology {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::durable::{PARTITION_MAP_FILE, PARTITION_MAP_MAGIC};
    use super::*;
    use crate::ranking::RankingPolicy;
    use jdvs_core::{persist, IndexConfig};
    use jdvs_features::cost::CostModel;
    use jdvs_features::{ExtractorConfig, FeatureExtractor};
    use jdvs_storage::model::{ImageKey, ProductAttributes, ProductId};
    use jdvs_vector::rng::Xoshiro256;
    use std::io;
    use std::path::PathBuf;

    const DIM: usize = 8;

    struct World {
        topology: SearchTopology,
        images: Arc<ImageStore>,
    }

    fn world(realtime: bool) -> World {
        let images = Arc::new(ImageStore::with_blob_len(64));
        let feature_db = Arc::new(FeatureDb::new());
        let extractor = Arc::new(CachingExtractor::new(
            FeatureExtractor::new(ExtractorConfig {
                dim: DIM,
                ..Default::default()
            }),
            CostModel::free(),
        ));
        let mut rng = Xoshiro256::seed_from(2);
        let training: Vec<Vector> = (0..64)
            .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let config = TopologyConfig {
            index: IndexConfig {
                dim: DIM,
                num_lists: 4,
                nprobe: 4,
                ..Default::default()
            },
            num_partitions: 4,
            replicas_per_partition: 2,
            num_broker_groups: 2,
            broker_replicas: 2,
            num_blenders: 2,
            realtime_indexing: realtime,
            ranking: RankingPolicy::similarity_only(),
            ..Default::default()
        };
        let topology = SearchTopology::build(
            config,
            extractor,
            Arc::clone(&images),
            feature_db,
            &training,
            MessageQueue::new(),
        );
        World { topology, images }
    }

    fn add_event(w: &World, product: u64) -> ProductEvent {
        let url = format!("u{product}");
        w.images.put_synthetic(&url, product % 5);
        ProductEvent::AddProduct {
            product_id: ProductId(product),
            images: vec![ProductAttributes::new(ProductId(product), 1, 100, 1, url)],
        }
    }

    #[test]
    fn events_flow_to_partitions_and_become_searchable() {
        let w = world(true);
        for i in 0..40u64 {
            w.topology.publish(add_event(&w, i));
        }
        w.topology.wait_for_freshness(Duration::from_secs(30));
        // Every partition replica pair must agree, and the logical total
        // must be 40.
        let mut logical_total = 0;
        for p in 0..4 {
            let a = w.topology.index(p, 0).num_images();
            let b = w.topology.index(p, 1).num_images();
            assert_eq!(a, b, "replicas of partition {p} must converge");
            logical_total += a;
        }
        assert_eq!(logical_total, 40);

        // A query for an indexed image's features must find it.
        let map = w.topology.partition_map();
        let p = map.partition_of_url("u7");
        let index = w.topology.index(p, 0);
        let id = index.lookup(ImageKey::from_url("u7")).unwrap();
        let feats = index.features(id).unwrap();
        let resp = w
            .topology
            .search(SearchQuery::by_features(feats.into_inner(), 3))
            .unwrap();
        assert_eq!(resp.results[0].hit.url, "u7");
        assert_eq!(resp.groups_answered, 2, "both broker groups answered");
        assert!(resp.is_complete(), "all 4 partitions covered");
        assert_eq!((resp.partitions_ok, resp.partitions_total), (4, 4));
    }

    #[test]
    fn searcher_replica_failure_is_transparent() {
        let w = world(true);
        for i in 0..20u64 {
            w.topology.publish(add_event(&w, i));
        }
        w.topology.wait_for_freshness(Duration::from_secs(30));
        for p in 0..4 {
            w.topology.searcher_faults(p, 0).set_down(true);
        }
        let map = w.topology.partition_map();
        let p = map.partition_of_url("u3");
        let index = w.topology.index(p, 1);
        let id = index.lookup(ImageKey::from_url("u3")).unwrap();
        let feats = index.features(id).unwrap();
        let resp = w
            .topology
            .search(SearchQuery::by_features(feats.into_inner(), 1))
            .unwrap();
        assert_eq!(
            resp.results[0].hit.url, "u3",
            "replica 1 serves after replica 0 died"
        );
    }

    #[test]
    fn broker_instance_failure_is_transparent() {
        let w = world(true);
        for i in 0..20u64 {
            w.topology.publish(add_event(&w, i));
        }
        w.topology.wait_for_freshness(Duration::from_secs(30));
        w.topology.broker_faults(0, 0).set_down(true);
        w.topology.broker_faults(1, 0).set_down(true);
        let resp = w
            .topology
            .search(SearchQuery::by_image_url("u3", 3))
            .unwrap();
        assert!(!resp.results.is_empty(), "second broker instances answer");
    }

    #[test]
    fn without_realtime_indexing_queue_is_ignored() {
        let w = world(false);
        for i in 0..10u64 {
            w.topology.publish(add_event(&w, i));
        }
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(w.topology.total_indexed_images(), 0);
        w.topology.wait_for_freshness(Duration::from_secs(1)); // no-op
    }

    #[test]
    fn shutdown_is_idempotent_and_stops_queries() {
        let mut w = world(true);
        w.topology.publish(add_event(&w, 0));
        w.topology.wait_for_freshness(Duration::from_secs(30));
        let client = w.topology.client(Duration::from_secs(5));
        w.topology.shutdown();
        w.topology.shutdown();
        let err = client
            .search(SearchQuery::by_image_url("u0", 1))
            .unwrap_err();
        assert_eq!(err, RpcError::NodeDown);
    }

    #[test]
    fn online_rebuild_drops_deleted_records_and_keeps_serving() {
        let w = world(true);
        // 30 products; delete 10 of them.
        for i in 0..30u64 {
            w.topology.publish(add_event(&w, i));
        }
        for i in 0..10u64 {
            w.topology.publish(ProductEvent::RemoveProduct {
                product_id: ProductId(i),
                urls: vec![format!("u{i}")],
            });
        }
        w.topology.wait_for_freshness(Duration::from_secs(30));
        let valid_before: usize = w
            .topology
            .indexes()
            .iter()
            .map(|row| row[0].valid_images())
            .sum();
        assert_eq!(valid_before, 20);

        // Rebuild every partition online.
        let mut records_before = 0;
        let mut records_after = 0;
        for p in 0..4 {
            let report = w.topology.rebuild_partition(p);
            assert!(report.snapshot_bytes > 0);
            records_before += report.records_before;
            records_after += report.records_after;
        }
        // Each count is doubled (2 replicas). Before: 30 records per
        // logical copy (deleted kept); after: only the 20 valid.
        assert_eq!(records_before, 30 * 2);
        assert_eq!(records_after, 20 * 2);

        // Queries still answer from the fresh indexes.
        let resp = w
            .topology
            .search(SearchQuery::by_image_url("u15", 1))
            .unwrap();
        assert_eq!(resp.results[0].hit.url, "u15");
        // Deleted products stay gone.
        let resp = w
            .topology
            .search(SearchQuery::by_image_url("u3", 5))
            .unwrap();
        assert!(resp.results.iter().all(|h| h.hit.url != "u3"));

        // Real-time indexing still works after the swap.
        w.topology.publish(add_event(&w, 999));
        w.topology.wait_for_freshness(Duration::from_secs(30));
        let resp = w
            .topology
            .search(SearchQuery::by_image_url("u999", 1))
            .unwrap();
        assert_eq!(resp.results[0].hit.url, "u999");
    }

    #[test]
    fn rebuild_bumps_handle_generation() {
        let w = world(true);
        for i in 0..8u64 {
            w.topology.publish(add_event(&w, i));
        }
        w.topology.wait_for_freshness(Duration::from_secs(30));
        assert_eq!(w.topology.handle(0, 0).generation(), 0);
        w.topology.rebuild_partition(0);
        assert_eq!(w.topology.handle(0, 0).generation(), 1);
        assert_eq!(
            w.topology.handle(1, 0).generation(),
            0,
            "other partitions untouched"
        );
    }

    #[test]
    fn ops_report_reflects_activity() {
        let w = world(true);
        for i in 0..12u64 {
            w.topology.publish(add_event(&w, i));
        }
        w.topology.wait_for_freshness(Duration::from_secs(30));
        let report = w.topology.ops_report();
        assert_eq!(report.queue_length, 12);
        assert_eq!(report.max_indexer_lag, 0);
        assert_eq!(report.partitions.len(), 8, "4 partitions x 2 replicas");
        assert_eq!(report.logical_valid_images(), 12);
        let total_inserts: u64 = report
            .partitions
            .iter()
            .filter(|p| p.replica == 0)
            .map(|p| p.inserts)
            .sum();
        assert_eq!(total_inserts, 12);
        assert!(report.partitions.iter().all(|p| p.generation == 0));
    }

    #[test]
    fn quiesce_of_one_partition_leaves_the_others_fresh() {
        let w = world(true);
        let map = w.topology.partition_map();
        let owned_by_p1: Vec<u64> = (1000..)
            .filter(|i| map.partition_of_url(&format!("u{i}")) == 1)
            .take(2)
            .collect();
        let _quiesced = w.topology.core.quiesce(0);
        for i in owned_by_p1 {
            w.topology.publish(add_event(&w, i));
            let key = ImageKey::from_url(&format!("u{i}"));
            let visible = || (0..2).all(|r| w.topology.index(1, r).lookup(key).is_some());
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            while !visible() && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(visible(), "u{i} visible on p1: {}", visible());
        }
    }

    #[test]
    fn compressed_mode_works_end_to_end() {
        let images = Arc::new(ImageStore::with_blob_len(64));
        let feature_db = Arc::new(FeatureDb::new());
        let extractor = Arc::new(CachingExtractor::new(
            FeatureExtractor::new(ExtractorConfig {
                dim: DIM,
                ..Default::default()
            }),
            CostModel::free(),
        ));
        let mut rng = Xoshiro256::seed_from(6);
        let training: Vec<Vector> = (0..128)
            .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let topology = SearchTopology::build(
            TopologyConfig {
                index: IndexConfig {
                    dim: DIM,
                    num_lists: 4,
                    nprobe: 4,
                    pq_subspaces: Some(4),
                    ..Default::default()
                },
                num_partitions: 2,
                num_broker_groups: 1,
                ranking: RankingPolicy::similarity_only(),
                ..Default::default()
            },
            extractor,
            Arc::clone(&images),
            feature_db,
            &training,
            MessageQueue::new(),
        );
        for i in 0..30u64 {
            let url = format!("u{i}");
            images.put_synthetic(&url, i % 4);
            topology.publish(ProductEvent::AddProduct {
                product_id: ProductId(i),
                images: vec![ProductAttributes::new(ProductId(i), 1, 1, 1, url)],
            });
        }
        topology.wait_for_freshness(Duration::from_secs(30));
        assert!(topology.index(0, 0).has_pq());
        // Exact-image query through the compressed path still self-matches
        // (the rerank stage restores exact distances).
        let resp = topology
            .search(SearchQuery::by_image_url("u7", 1).with_compressed())
            .unwrap();
        assert_eq!(resp.results[0].hit.url, "u7");
        assert!(resp.results[0].hit.distance < 1e-6);
        // A compressed-mode rebuild round-trips the PQ config too.
        let report = topology.rebuild_partition(0);
        assert!(report.snapshot_bytes > 0);
        assert!(topology.index(0, 0).has_pq(), "PQ survives the hot swap");
        let resp = topology
            .search(SearchQuery::by_image_url("u7", 1).with_compressed())
            .unwrap();
        assert_eq!(resp.results[0].hit.url, "u7");
    }

    #[test]
    fn shared_query_cache_serves_repeat_queries() {
        let images = Arc::new(ImageStore::with_blob_len(64));
        let feature_db = Arc::new(FeatureDb::new());
        let extractor = Arc::new(CachingExtractor::new(
            FeatureExtractor::new(ExtractorConfig {
                dim: DIM,
                ..Default::default()
            }),
            CostModel::free(),
        ));
        let mut rng = Xoshiro256::seed_from(4);
        let training: Vec<Vector> = (0..32)
            .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let topology = SearchTopology::build(
            TopologyConfig {
                index: IndexConfig {
                    dim: DIM,
                    num_lists: 2,
                    ..Default::default()
                },
                num_partitions: 2,
                num_broker_groups: 1,
                query_cache_capacity: Some(8),
                ..Default::default()
            },
            extractor,
            Arc::clone(&images),
            feature_db,
            &training,
            MessageQueue::new(),
        );
        images.put_synthetic("popular", 3);
        for _ in 0..5 {
            let _ = topology
                .search(SearchQuery::by_image_url("popular", 1))
                .unwrap();
        }
        let stats = topology.query_cache_stats().expect("cache enabled");
        assert_eq!(stats.misses, 1, "first query extracts");
        assert_eq!(stats.hits, 4, "repeats hit the cache");
    }

    fn durable_world(dir: &std::path::Path, images: &Arc<ImageStore>) -> SearchTopology {
        durable_world_with(dir, images, |_| {})
    }

    fn durable_world_with(
        dir: &std::path::Path,
        images: &Arc<ImageStore>,
        tweak: impl FnOnce(&mut DurabilityOptions),
    ) -> SearchTopology {
        let index = IndexConfig {
            dim: DIM,
            num_lists: 4,
            nprobe: 4,
            ..Default::default()
        };
        durable_world_indexed(dir, images, index, tweak)
    }

    fn durable_world_indexed(
        dir: &std::path::Path,
        images: &Arc<ImageStore>,
        index: IndexConfig,
        tweak: impl FnOnce(&mut DurabilityOptions),
    ) -> SearchTopology {
        try_durable_world(dir, images, index, tweak).unwrap()
    }

    fn try_durable_world(
        dir: &std::path::Path,
        images: &Arc<ImageStore>,
        index: IndexConfig,
        tweak: impl FnOnce(&mut DurabilityOptions),
    ) -> io::Result<SearchTopology> {
        let feature_db = Arc::new(FeatureDb::new());
        let extractor = Arc::new(CachingExtractor::new(
            FeatureExtractor::new(ExtractorConfig {
                dim: DIM,
                ..Default::default()
            }),
            CostModel::free(),
        ));
        let mut rng = Xoshiro256::seed_from(2);
        let training: Vec<Vector> = (0..64)
            .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let config = TopologyConfig {
            index,
            num_partitions: 2,
            replicas_per_partition: 1,
            num_broker_groups: 1,
            ranking: RankingPolicy::similarity_only(),
            ..Default::default()
        };
        let mut options = DurabilityOptions::new(dir);
        options.segment_max_bytes = 512; // force rotations in tests
        tweak(&mut options);
        SearchTopology::build_durable(
            config,
            extractor,
            Arc::clone(images),
            feature_db,
            &training,
            options,
        )
    }

    fn durable_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("jdvs-topo-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_topology_survives_restart_without_checkpoint() {
        let dir = durable_dir("restart");
        let images = Arc::new(ImageStore::with_blob_len(64));
        {
            let mut t = durable_world(&dir, &images);
            for i in 0..25u64 {
                t.publish(add_event_for(&images, i));
            }
            t.wait_for_freshness(Duration::from_secs(30));
            assert_eq!(t.ops_report().logical_valid_images(), 25);
            t.shutdown();
        }
        // Second life: cold recovery replays the whole log.
        let mut t = durable_world(&dir, &images);
        let reports = t.recovery_reports().unwrap();
        assert_eq!(reports.len(), 2, "one per partition replica");
        assert!(reports.iter().all(|r| !r.from_snapshot));
        assert_eq!(
            reports.iter().map(|r| r.replayed).sum::<u64>(),
            50,
            "each replica replays all 25 events (partition filter applies)"
        );
        assert_eq!(t.ops_report().logical_valid_images(), 25);
        let resp = t.search(SearchQuery::by_image_url("u7", 1)).unwrap();
        assert_eq!(resp.results[0].hit.url, "u7");
        t.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_recovery_replays_only_the_suffix_and_prunes() {
        let dir = durable_dir("ckpt");
        let images = Arc::new(ImageStore::with_blob_len(64));
        {
            let mut t = durable_world(&dir, &images);
            for i in 0..30u64 {
                t.publish(add_event_for(&images, i));
            }
            t.wait_for_freshness(Duration::from_secs(30));
            let r0 = t.checkpoint_partition(0).unwrap();
            let r1 = t.checkpoint_partition(1).unwrap();
            assert_eq!(r0.applied_offset, 30);
            assert_eq!(r1.applied_offset, 30);
            assert!(r1.snapshot_bytes > 0);
            assert!(
                r1.segments_pruned > 0,
                "both partitions checkpointed at 30; prefix reclaimable"
            );
            // 10 more events after the checkpoints.
            for i in 30..40u64 {
                t.publish(add_event_for(&images, i));
            }
            t.wait_for_freshness(Duration::from_secs(30));
            t.shutdown();
        }
        let mut t = durable_world(&dir, &images);
        let reports = t.recovery_reports().unwrap().to_vec();
        assert!(reports.iter().all(|r| r.from_snapshot));
        for r in &reports {
            assert_eq!(r.start_offset, 30, "replay starts at the watermark");
            assert_eq!(r.replayed, 10, "only the suffix replays");
        }
        assert_eq!(t.ops_report().logical_valid_images(), 40);
        let resp = t.search(SearchQuery::by_image_url("u35", 1)).unwrap();
        assert_eq!(resp.results[0].hit.url, "u35");
        // Watermarks surface in the ops report.
        let ops = t.ops_report();
        assert!(ops.partitions.iter().all(|p| p.applied_offset == 40));
        assert!(ops.durability.is_some());
        t.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_scheduler_checkpoints_on_exposure() {
        // (events published, distinct products): a fresh catalog, and
        // hot-key churn re-adding the same 3 products over and over.
        for (events, products) in [(30u64, 30u64), (40, 3)] {
            let dir = durable_dir(&format!("sched-{products}"));
            let images = Arc::new(ImageStore::with_blob_len(64));
            {
                let mut t = durable_world_with(&dir, &images, |o| {
                    *o = o.clone().with_checkpoint_exposure(5);
                });
                assert_eq!(t.checkpoint_watermark(0), None, "no checkpoint yet");
                for i in 0..events {
                    t.publish(add_event_for(&images, i % products));
                }
                t.wait_for_freshness(Duration::from_secs(30));
                // Both partitions' applied watermarks are at `events` with
                // no checkpoint — replay exposure > 5 — so the scheduler
                // must checkpoint each down to exposure ≤ 5 without any
                // checkpoint_partition call from us.
                let deadline = std::time::Instant::now() + Duration::from_secs(20);
                loop {
                    let caught_up =
                        (0..2).all(|p| t.checkpoint_watermark(p).is_some_and(|w| w >= events - 5));
                    if caught_up {
                        break;
                    }
                    assert!(
                        std::time::Instant::now() < deadline,
                        "scheduler never brought exposure under the bound: {:?}",
                        (t.checkpoint_watermark(0), t.checkpoint_watermark(1))
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
                t.shutdown();
            }
            // Recovery starts from the scheduled checkpoints, not offset 0,
            // and reproduces the catalog.
            let mut t = durable_world(&dir, &images);
            let reports = t.recovery_reports().unwrap();
            assert!(reports.iter().all(|r| r.from_snapshot));
            assert!(reports.iter().all(|r| r.start_offset >= events - 5));
            assert_eq!(t.ops_report().logical_valid_images(), products as usize);
            let resp = t.search(SearchQuery::by_image_url("u1", 1)).unwrap();
            assert_eq!(resp.results[0].hit.url, "u1");
            t.shutdown();
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn scheduler_checkpoints_split_sibling() {
        let dir = durable_dir("sched-split");
        let images = Arc::new(ImageStore::with_blob_len(64));
        let mut t = durable_world_with(&dir, &images, |o| {
            *o = o.clone().with_checkpoint_exposure(5);
        });
        for i in 0..30u64 {
            t.publish(add_event_for(&images, i));
        }
        t.wait_for_freshness(Duration::from_secs(30));
        let sibling = t.split_partition(0).unwrap().sibling;
        for i in 30..60u64 {
            t.publish(add_event_for(&images, i));
        }
        t.wait_for_freshness(Duration::from_secs(30));
        // The sibling joined after the scheduler started; its replay
        // exposure must be bounded like every other partition's.
        let watermarks = |t: &SearchTopology| -> Vec<Option<u64>> {
            (0..=sibling).map(|p| t.checkpoint_watermark(p)).collect()
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while !watermarks(&t).iter().all(|w| w.is_some_and(|w| w >= 55)) {
            assert!(
                std::time::Instant::now() < deadline,
                "scheduler left a partition behind: {:?}",
                watermarks(&t)
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        t.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_partition_map_file_is_invalid_data() {
        let images = Arc::new(ImageStore::with_blob_len(64));
        let v1 = PARTITION_MAP_MAGIC;
        let bodies = [
            "jdvs-partition-map v0\ngroups 1\nassign 0 0\ntable 0 1\n".to_string(),
            // The config has one broker group.
            format!("{v1}\ngroups 2\nassign 0 1\ntable 0 1\n"),
            format!("{v1}\ngroups 1\nassign 0 1\ntable 0 1\n"),
            format!("{v1}\ngroups 1\nassign 0 0\ntable 0 2\n"),
            format!("{v1}\ngroups 1\nassign \ntable 0\n"),
        ];
        for body in bodies {
            let dir = durable_dir("bad-map");
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(PARTITION_MAP_FILE), &body).unwrap();
            let index = IndexConfig {
                dim: DIM,
                num_lists: 4,
                ..Default::default()
            };
            let err = try_durable_world(&dir, &images, index, |_| {}).expect_err(&body);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{body}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn concurrent_checkpoints_under_load_stay_consistent() {
        let dir = durable_dir("conc");
        let images = Arc::new(ImageStore::with_blob_len(64));
        {
            let mut t = durable_world(&dir, &images);
            for i in 0..10u64 {
                t.publish(add_event_for(&images, i));
            }
            t.wait_for_freshness(Duration::from_secs(30));
            // Checkpoint both partitions from racing threads while a third
            // keeps publishing: the maintenance mutex must serialize them,
            // so neither resumes indexing under the other's snapshot.
            std::thread::scope(|s| {
                let topo = &t;
                let imgs = &images;
                s.spawn(move || {
                    for i in 10..40u64 {
                        topo.publish(add_event_for(imgs, i));
                    }
                });
                let c0 = s.spawn(move || topo.checkpoint_partition(0).unwrap());
                let c1 = s.spawn(move || topo.checkpoint_partition(1).unwrap());
                let r0 = c0.join().unwrap();
                let r1 = c1.join().unwrap();
                assert!(r0.applied_offset >= 10);
                assert!(r1.applied_offset >= 10);
            });
            t.wait_for_freshness(Duration::from_secs(30));
            t.shutdown();
        }
        // Restart: recovery from the racing checkpoints must reproduce the
        // full 40-event corpus exactly.
        let mut t = durable_world(&dir, &images);
        assert_eq!(t.ops_report().logical_valid_images(), 40);
        let resp = t.search(SearchQuery::by_image_url("u33", 1)).unwrap();
        assert_eq!(resp.results[0].hit.url, "u33");
        t.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn add_event_for(images: &Arc<ImageStore>, product: u64) -> ProductEvent {
        let url = format!("u{product}");
        images.put_synthetic(&url, product % 5);
        ProductEvent::AddProduct {
            product_id: ProductId(product),
            images: vec![ProductAttributes::new(ProductId(product), 1, 100, 1, url)],
        }
    }

    #[test]
    #[should_panic(expected = "more broker groups")]
    fn invalid_config_panics() {
        TopologyConfig {
            num_partitions: 1,
            num_broker_groups: 2,
            ..Default::default()
        }
        .validate();
    }

    /// Top-1 probe over a url set: (query url, hit url, exact distance
    /// bits) — bit-comparable across rebuilds.
    fn probe(t: &SearchTopology, urls: impl Iterator<Item = u64>) -> Vec<(String, String, u32)> {
        urls.map(|i| {
            let url = format!("u{i}");
            let resp = t.search(SearchQuery::by_image_url(&url, 1)).unwrap();
            let top = &resp.results[0].hit;
            (url, top.url.clone(), top.distance.to_bits())
        })
        .collect()
    }

    #[test]
    fn rebuild_after_checkpoint_prune_seeds_from_snapshot() {
        let dir = durable_dir("prune-rebuild");
        let images = Arc::new(ImageStore::with_blob_len(64));
        {
            let mut t = durable_world(&dir, &images);
            for i in 0..30u64 {
                t.publish(add_event_for(&images, i));
            }
            t.wait_for_freshness(Duration::from_secs(30));
            t.checkpoint_partition(0).unwrap();
            let r = t.checkpoint_partition(1).unwrap();
            assert!(r.segments_pruned > 0, "retention must reclaim the prefix");
            for i in 30..40u64 {
                t.publish(add_event_for(&images, i));
            }
            t.wait_for_freshness(Duration::from_secs(30));
            t.shutdown();
        }
        // Pruning reclaims disk segments; the surviving log only *starts*
        // above zero once the queue is rebuilt from them. Reopen to get a
        // life where the prefix is genuinely gone.
        let mut t = durable_world(&dir, &images);
        assert!(
            t.queue().base() > 0,
            "the log prefix is gone; a full-log rebuild would be impossible"
        );

        // The regression: rebuilding on a pruned log used to panic. Now it
        // seeds from the checkpoint and replays only the suffix — and the
        // search results afterwards are bit-identical.
        let before = probe(&t, 0..40);
        for p in 0..2 {
            let report = t.rebuild_partition(p);
            assert_eq!(
                report.messages_replayed, 10,
                "only the surviving suffix replays"
            );
            assert!(report.snapshot_bytes > 0);
        }
        assert_eq!(probe(&t, 0..40), before, "rebuild is bit-identical");
        // The seeded rebuild stamped the cut as the applied watermark, so a
        // follow-up checkpoint sees no phantom exposure.
        let r = t.checkpoint_partition(0).unwrap();
        assert_eq!(r.applied_offset, 40);
        t.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rebuild_of_a_fully_deleted_partition_swaps_in_an_empty_index() {
        let w = world(true);
        for i in 0..12u64 {
            w.topology.publish(add_event(&w, i));
        }
        // Fully delete one partition's key set.
        let map = w.topology.partition_map();
        let target = map.partition_of_url("u0");
        let mut deleted = Vec::new();
        for i in 0..12u64 {
            if map.partition_of_url(&format!("u{i}")) == target {
                deleted.push(i);
                w.topology.publish(ProductEvent::RemoveProduct {
                    product_id: ProductId(i),
                    urls: vec![format!("u{i}")],
                });
            }
        }
        w.topology.wait_for_freshness(Duration::from_secs(30));

        // The satellite regression: this used to panic ("no valid image
        // for this partition"); now it swaps in an empty index.
        let report = w.topology.rebuild_partition(target);
        assert_eq!(report.records_after, 0, "both replicas empty");
        assert!(report.records_before > 0, "tombstones were present before");
        let resp = w
            .topology
            .search(SearchQuery::by_image_url(format!("u{}", deleted[0]), 5))
            .unwrap();
        assert!(resp
            .results
            .iter()
            .all(|h| !deleted.contains(&h.hit.url[1..].parse().unwrap())));
        // Other partitions keep serving.
        let survivor = (0..12u64).find(|i| !deleted.contains(i)).unwrap();
        let resp = w
            .topology
            .search(SearchQuery::by_image_url(format!("u{survivor}"), 1))
            .unwrap();
        assert_eq!(resp.results[0].hit.url, format!("u{survivor}"));
    }

    #[test]
    fn bootstrap_replica_converges_and_serves() {
        let mut w = world(true);
        for i in 0..20u64 {
            w.topology.publish(add_event(&w, i));
        }
        w.topology.wait_for_freshness(Duration::from_secs(30));
        let report = w.topology.bootstrap_replica(0);
        assert_eq!(report.replica, 2, "joins after the two built-in replicas");
        assert!(!report.from_snapshot, "non-durable topologies seed cold");
        w.topology.wait_for_freshness(Duration::from_secs(30));
        // The new replica converged to the same corpus slice…
        assert_eq!(
            w.topology.index(0, 2).num_images(),
            w.topology.index(0, 0).num_images(),
            "bootstrapped replica owns the same records"
        );
        // …and actually serves once the original replicas die.
        w.topology.searcher_faults(0, 0).set_down(true);
        w.topology.searcher_faults(0, 1).set_down(true);
        let map = w.topology.partition_map();
        let owned = (0..20u64)
            .find(|i| map.partition_of_url(&format!("u{i}")) == 0)
            .expect("some url lands in partition 0");
        let resp = w
            .topology
            .search(SearchQuery::by_image_url(format!("u{owned}"), 1))
            .unwrap();
        assert_eq!(resp.results[0].hit.url, format!("u{owned}"));
        assert_eq!(
            (resp.partitions_ok, resp.partitions_total),
            (4, 4),
            "coverage identity holds with the bootstrapped replica serving"
        );
        // Live ingestion reaches the new replica too.
        w.topology.publish(add_event(&w, 777));
        w.topology.wait_for_freshness(Duration::from_secs(30));
        let resp = w
            .topology
            .search(SearchQuery::by_image_url("u777", 1))
            .unwrap();
        assert_eq!(resp.results[0].hit.url, "u777");
    }

    /// Regression: every lifecycle op ships its index through
    /// `persist::load`, and snapshots do not carry the serving knob
    /// (`nprobe_escalation`) — it used to come back as 0, so filtered
    /// queries silently stopped escalating after the first rebuild,
    /// bootstrap, split or recovery.
    #[test]
    fn serving_knob_survives_every_snapshot_load() {
        const ESCALATION: usize = 4;
        let dir = durable_dir("knob");
        let images = Arc::new(ImageStore::with_blob_len(64));
        let build = || {
            let index = IndexConfig {
                dim: DIM,
                num_lists: 4,
                nprobe: 1,
                nprobe_escalation: ESCALATION,
                ..Default::default()
            };
            durable_world_indexed(&dir, &images, index, |_| {})
        };
        let knob = |t: &SearchTopology, p, r| t.index(p, r).config().nprobe_escalation;
        let mut t = build();
        // Category 7 is spread over every synthetic cluster.
        for i in 0..60u64 {
            let url = format!("u{i}");
            images.put_synthetic(&url, i % 5);
            let attrs = ProductAttributes::new(ProductId(i), 1, 100, 1, url)
                .with_category(if i % 3 == 0 { 7 } else { 0 });
            t.publish(ProductEvent::AddProduct {
                product_id: ProductId(i),
                images: vec![attrs],
            });
        }
        t.wait_for_freshness(Duration::from_secs(30));
        assert_eq!(knob(&t, 0, 0), ESCALATION);
        // A query whose nearest list holds only some of partition 0's rare
        // images: it needs escalation to fill k.
        let rare = jdvs_core::FilterSpec::by_category(7);
        let filtered = |index: &VisualIndex, q: &Vector| {
            let k = index.filters().category_bitmap(7).unwrap().count_ones();
            index.search_filtered(q.as_slice(), k, 1, &rare)
        };
        let index = t.index(0, 0);
        let unescalated =
            persist::load(&persist::save(&index), &IndexConfig::default()).expect("round trip");
        let features = (0..index.num_images() as u32)
            .map(|id| index.features(jdvs_core::ImageId(id)).unwrap())
            .find(|q| filtered(&unescalated, q).len() < filtered(&index, q).len())
            .expect("some query needs escalation to fill k");
        let want = filtered(&index, &features);

        // Recovery from a checkpoint.
        t.checkpoint_partition(0).unwrap();
        t.checkpoint_partition(1).unwrap();
        t.shutdown();
        drop(t);
        let mut t = build();
        assert!(t
            .recovery_reports()
            .unwrap()
            .iter()
            .all(|r| r.from_snapshot));
        assert_eq!(knob(&t, 0, 0), ESCALATION, "after recover_partition");
        assert_eq!(knob(&t, 1, 0), ESCALATION, "after recover_partition");

        t.rebuild_partition(0);
        assert_eq!(knob(&t, 0, 0), ESCALATION, "after rebuild_partition");
        assert_eq!(
            filtered(&t.index(0, 0), &features),
            want,
            "still escalates after a rebuild"
        );

        assert!(t.bootstrap_replica(0).from_snapshot);
        assert_eq!(knob(&t, 0, 1), ESCALATION, "after bootstrap_replica");

        let sibling = t.split_partition(0).unwrap().sibling;
        for r in 0..2 {
            assert_eq!(knob(&t, 0, r), ESCALATION, "parent after split_partition");
            assert_eq!(
                knob(&t, sibling, r),
                ESCALATION,
                "sibling after split_partition"
            );
        }
        t.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bootstrap_replica_seeds_from_checkpoint() {
        let dir = durable_dir("boot-seed");
        let images = Arc::new(ImageStore::with_blob_len(64));
        let mut t = durable_world(&dir, &images);
        for i in 0..30u64 {
            t.publish(add_event_for(&images, i));
        }
        t.wait_for_freshness(Duration::from_secs(30));
        t.checkpoint_partition(0).unwrap();
        for i in 30..40u64 {
            t.publish(add_event_for(&images, i));
        }
        t.wait_for_freshness(Duration::from_secs(30));
        let report = t.bootstrap_replica(0);
        assert!(report.from_snapshot);
        assert_eq!(report.seed_offset, 30, "tails from the watermark");
        assert_eq!(report.tailed, 10, "only the suffix applies");
        t.searcher_faults(0, 0).set_down(true);
        let map = t.partition_map();
        let owned = (0..40u64)
            .find(|i| map.partition_of_url(&format!("u{i}")) == 0)
            .unwrap();
        let resp = t
            .search(SearchQuery::by_image_url(format!("u{owned}"), 1))
            .unwrap();
        assert_eq!(resp.results[0].hit.url, format!("u{owned}"));
        // Checkpointing after the bootstrap still works (store state is
        // consistent under the serialized lifecycle ops).
        let r = t.checkpoint_partition(0).unwrap();
        assert_eq!(r.applied_offset, 40);
        t.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn split_partition_under_ingestion_loses_nothing() {
        let mut w = world(true);
        for i in 0..30u64 {
            w.topology.publish(add_event(&w, i));
        }
        w.topology.wait_for_freshness(Duration::from_secs(30));
        // Publish 30 more from another thread while the split runs: the
        // moved keys and the in-flight events must all survive.
        for i in 30..60u64 {
            w.images.put_synthetic(&format!("u{i}"), i % 5);
        }
        let queue = w.topology.queue().clone();
        let report = std::thread::scope(|s| {
            s.spawn(move || {
                for i in 30..60u64 {
                    let url = format!("u{i}");
                    queue.publish(ProductEvent::AddProduct {
                        product_id: ProductId(i),
                        images: vec![ProductAttributes::new(ProductId(i), 1, 100, 1, url)],
                    });
                }
            });
            w.topology.split_partition(0).unwrap()
        });
        assert_eq!(report.sibling, 4);
        assert!(!report.from_snapshot);
        w.topology.wait_for_freshness(Duration::from_secs(30));
        let map = w.topology.partition_map();
        assert_eq!(map.num_partitions(), 5);
        assert_eq!(map.broker_group_of(4), map.broker_group_of(0));
        // Zero lost updates: every one of the 60 urls is searchable, and
        // fan-outs cover all five partitions.
        for i in 0..60u64 {
            let url = format!("u{i}");
            let resp = w
                .topology
                .search(SearchQuery::by_image_url(&url, 1))
                .unwrap();
            assert_eq!(resp.results[0].hit.url, url, "u{i} lost by the split");
            assert_eq!(
                (resp.partitions_ok, resp.partitions_total),
                (5, 5),
                "coverage identity after the split"
            );
        }
        assert_eq!(w.topology.ops_report().logical_valid_images(), 60);
        // The parent really shed its upper half.
        let moved: Vec<u64> = (0..60)
            .filter(|&i| map.partition_of_url(&format!("u{i}")) == 4)
            .collect();
        assert!(!moved.is_empty(), "the split must move some keys");
        let parent = w.topology.index(0, 0);
        assert!(moved.iter().all(|i| parent
            .lookup(ImageKey::from_url(&format!("u{i}")))
            .is_none()));
    }

    #[test]
    fn split_survives_restart_with_post_split_checkpoints() {
        let dir = durable_dir("split-restart");
        let images = Arc::new(ImageStore::with_blob_len(64));
        {
            let mut t = durable_world(&dir, &images);
            for i in 0..30u64 {
                t.publish(add_event_for(&images, i));
            }
            t.wait_for_freshness(Duration::from_secs(30));
            t.checkpoint_partition(0).unwrap();
            t.checkpoint_partition(1).unwrap();
            for i in 30..40u64 {
                t.publish(add_event_for(&images, i));
            }
            t.wait_for_freshness(Duration::from_secs(30));
            let report = t.split_partition(0).unwrap();
            assert!(report.from_snapshot, "halves seed from the checkpoint");
            let sibling = report.sibling;
            t.wait_for_freshness(Duration::from_secs(30));
            // Satellite regression: checkpoint-during-split lifecycle — the
            // sibling's store was opened by the split and checkpoints work
            // immediately, as does re-checkpointing the narrowed parent.
            let rs = t.checkpoint_partition(sibling).unwrap();
            assert_eq!(rs.applied_offset, 40);
            assert!(t.checkpoint_watermark(sibling).is_some());
            let rp = t.checkpoint_partition(0).unwrap();
            assert_eq!(rp.applied_offset, 40);
            t.shutdown();
        }
        // Restart: the persisted partition map reconstructs the split
        // layout, so the narrowed post-split checkpoints are safe — no
        // moved key is lost.
        let mut t = durable_world(&dir, &images);
        assert_eq!(t.partition_map().num_partitions(), 3);
        assert_eq!(t.recovery_reports().unwrap().len(), 3);
        assert_eq!(t.ops_report().logical_valid_images(), 40);
        for i in 0..40u64 {
            let url = format!("u{i}");
            let resp = t.search(SearchQuery::by_image_url(&url, 1)).unwrap();
            assert_eq!(resp.results[0].hit.url, url, "u{i} lost across restart");
        }
        t.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scheduler_checkpoints_race_lifecycle_ops() {
        let dir = durable_dir("sched-race");
        let images = Arc::new(ImageStore::with_blob_len(64));
        {
            // A background scheduler with a tiny exposure bound checkpoints
            // continuously while bootstrap and split run — everything
            // serializes on the maintenance mutex.
            let mut t = durable_world_with(&dir, &images, |o| {
                *o = o.clone().with_checkpoint_exposure(5);
            });
            for i in 0..30u64 {
                t.publish(add_event_for(&images, i));
            }
            t.wait_for_freshness(Duration::from_secs(30));
            let boot = t.bootstrap_replica(0);
            assert_eq!(boot.replica, 1);
            for i in 30..50u64 {
                t.publish(add_event_for(&images, i));
            }
            t.split_partition(0).unwrap();
            for i in 50..60u64 {
                t.publish(add_event_for(&images, i));
            }
            t.wait_for_freshness(Duration::from_secs(30));
            assert_eq!(t.ops_report().logical_valid_images(), 60);
            t.shutdown();
        }
        let mut t = durable_world(&dir, &images);
        assert_eq!(t.ops_report().logical_valid_images(), 60);
        for i in 0..60u64 {
            let url = format!("u{i}");
            let resp = t.search(SearchQuery::by_image_url(&url, 1)).unwrap();
            assert_eq!(resp.results[0].hit.url, url);
        }
        t.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
