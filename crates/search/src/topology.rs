//! Whole-system assembly (Figure 1 / Figure 10).
//!
//! [`SearchTopology::build`] stands up the paper's serving stack in one
//! call: P×R searcher nodes (each with its partition index behind a
//! hot-swappable [`IndexHandle`] and, when enabled, a real-time indexing
//! thread following the shared message queue), G×R broker instances, B
//! blenders, and the front-end load balancer. The returned handle owns
//! every node and thread and tears the system down in
//! [`SearchTopology::shutdown`] (also on drop).
//!
//! The serving layout is one **live replica table**: a row per partition
//! holding its checkpoint store and one record per searcher replica (index
//! handle, searcher node, indexer progress). Rows only grow — a split
//! appends a partition, a bootstrap a replica — so the table sits on the
//! append-only [`Directory`], and the topology, the background checkpoint
//! scheduler and [`crate::serving::NetServing::over`] all read it lock-free.
//!
//! [`SearchTopology::rebuild_partition`] performs the paper's **weekly
//! full indexing** (Figure 2) online: it replays the message log into a
//! fresh index (physically dropping logically-deleted images), serializes
//! it through the snapshot format (the "index file" production ships to
//! searcher nodes), and hot-swaps each replica while searches keep
//! flowing.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use jdvs_core::directory::Directory;
use jdvs_core::full::{FullIndexBuilder, KeyFilter};
use jdvs_core::realtime::RealtimeIndexer;
use jdvs_core::swap::IndexHandle;
use jdvs_core::{persist, IndexConfig, VisualIndex};
use jdvs_durability::checkpoint::{
    write_atomic, CheckpointConfig, CheckpointStore, SharedCheckpoint,
};
use jdvs_durability::log::{FsyncPolicy, LogConfig};
use jdvs_durability::queue::DurableQueue;
use jdvs_durability::recovery::{recover_partition_seeded, RecoveryReport};
use jdvs_features::CachingExtractor;
use jdvs_metrics::{DurabilityMetrics, DurabilitySnapshot, ResilienceMetrics, ResilienceSnapshot};
use jdvs_net::balancer::Balancer;
use jdvs_net::latency::LatencyModel;
use jdvs_net::node::{Node, NodeHandle};
use jdvs_net::rpc::{CallTarget, RpcError};
use jdvs_net::{HealthPolicy, RetryPolicy};
use jdvs_storage::lru::LruCache;
use jdvs_storage::model::{ImageKey, ProductEvent};
use jdvs_storage::queue::Consumer;
use jdvs_storage::{FeatureDb, ImageStore, MessageQueue};
use jdvs_vector::kmeans::{Kmeans, KmeansConfig};
use jdvs_vector::Vector;

use crate::blender::BlenderService;
use crate::broker::BrokerService;
use crate::client::SearchClient;
use crate::partition::PartitionMap;
use crate::protocol::{FanoutQuery, PartialResponse, SearchQuery, SearchResponse};
use crate::ranking::RankingPolicy;
use crate::searcher::SearcherService;

/// Shape and behaviour of the serving stack.
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// Per-partition index configuration.
    pub index: IndexConfig,
    /// Number of index partitions (paper testbed: 20).
    pub num_partitions: usize,
    /// Searcher replicas per partition ("each partition can have multiple
    /// copies for availability").
    pub replicas_per_partition: usize,
    /// Broker groups (each owns a partition subset).
    pub num_broker_groups: usize,
    /// Identical instances per broker group.
    pub broker_replicas: usize,
    /// Blender instances.
    pub num_blenders: usize,
    /// Worker threads per searcher node (its "cores").
    pub searcher_workers: usize,
    /// Worker threads per broker instance.
    pub broker_workers: usize,
    /// Worker threads per blender instance.
    pub blender_workers: usize,
    /// Per-hop latency model for every node.
    pub latency: LatencyModel,
    /// Deadline for broker→searcher calls.
    pub searcher_deadline: Duration,
    /// Deadline for blender→broker calls.
    pub broker_deadline: Duration,
    /// Run a real-time indexing thread per searcher.
    pub realtime_indexing: bool,
    /// Result ranking policy.
    pub ranking: RankingPolicy,
    /// Capacity of the shared blender query-feature cache (`None`
    /// disables caching; repeated query images then re-extract).
    pub query_cache_capacity: Option<usize>,
    /// Query-category detector attached to every blender (`None` disables
    /// category detection on responses).
    pub category_detector: Option<Arc<jdvs_features::category::CategoryDetector>>,
    /// Circuit-breaker policy applied by every balancer in the stack.
    pub health: HealthPolicy,
    /// Failover/backoff policy applied by every balancer in the stack.
    pub retry: RetryPolicy,
    /// When set, brokers hedge straggling searcher calls after this long.
    pub hedge_after: Option<Duration>,
    /// [`SearchTopology::bootstrap_replica`] tails the live log without
    /// pausing ingestion until the new replica is within this many events
    /// of the queue head; only the final gap is drained under the quiesce.
    /// Bounds the stop-the-partition window of a bootstrap.
    pub bootstrap_lag_bound: u64,
    /// Master seed (latency streams, fault streams).
    pub seed: u64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        Self {
            index: IndexConfig::default(),
            num_partitions: 4,
            replicas_per_partition: 1,
            num_broker_groups: 2,
            broker_replicas: 1,
            num_blenders: 2,
            searcher_workers: 2,
            broker_workers: 2,
            blender_workers: 2,
            latency: LatencyModel::Zero,
            searcher_deadline: Duration::from_secs(5),
            broker_deadline: Duration::from_secs(10),
            realtime_indexing: true,
            ranking: RankingPolicy::default(),
            query_cache_capacity: None,
            category_detector: None,
            health: HealthPolicy::default(),
            retry: RetryPolicy::default(),
            hedge_after: None,
            bootstrap_lag_bound: 64,
            seed: 0x70B0,
        }
    }
}

impl TopologyConfig {
    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics on zero counts or group/partition mismatch.
    pub fn validate(&self) {
        self.index.validate();
        assert!(self.num_partitions > 0, "num_partitions must be positive");
        assert!(
            self.replicas_per_partition > 0,
            "replicas_per_partition must be positive"
        );
        assert!(self.broker_replicas > 0, "broker_replicas must be positive");
        assert!(self.num_blenders > 0, "num_blenders must be positive");
        assert!(
            self.searcher_workers > 0,
            "searcher_workers must be positive"
        );
        // PartitionMap::new enforces the group/partition relationship.
        let _ = PartitionMap::new(self.num_partitions, self.num_broker_groups);
    }
}

/// Where and how a durable topology persists its ingestion stream.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Root data directory: the event log lives in `<dir>/wal`, partition
    /// `p`'s checkpoints in `<dir>/ckpt-p{p}`.
    pub dir: PathBuf,
    /// Fsync policy of the ingestion log.
    pub fsync: FsyncPolicy,
    /// Batch concurrent publishers into shared group-commit syncs when
    /// `fsync` is [`FsyncPolicy::Always`] (same loss bound, far fewer
    /// `fdatasync`s under concurrent ingestion). Ignored otherwise.
    pub group_commit: bool,
    /// Log segment roll size in bytes (the active segment file is
    /// preallocated, sparse, at this size).
    pub segment_max_bytes: u64,
    /// Checkpoint snapshots retained per partition.
    pub snapshots_keep: usize,
    /// When set (and real-time indexing is on), a background scheduler
    /// thread watches every partition's **replay exposure** — events its
    /// live index has applied beyond its newest checkpoint watermark, i.e.
    /// the replay a crash would have to redo — and checkpoints any
    /// partition whose exposure exceeds this bound, without an operator
    /// calling [`SearchTopology::checkpoint_partition`]. `None` (the
    /// default) disables the scheduler; checkpoints are manual-only.
    pub checkpoint_exposure: Option<u64>,
    /// When set (and real-time indexing is on), the background scheduler
    /// also watches the log's **blanked-frame estimate** — the fraction of
    /// frames a per-key compaction could rewrite into no-op tombstones
    /// (see [`DurableQueue::stale_frame_ratio`]) — and runs
    /// [`DurableQueue::compact`] under the maintenance mutex whenever the
    /// estimate crosses this threshold. Hot-key churn (the same URLs
    /// re-added over and over) then stops growing cold-recovery replay
    /// cost without an operator in the loop. `None` (the default) leaves
    /// compaction manual-only.
    pub log_compaction_ratio: Option<f64>,
}

impl DurabilityOptions {
    /// Defaults: `FsyncPolicy::Always`, no group commit, 8 MiB segments,
    /// 2 snapshots kept, no background checkpoint scheduler, no background
    /// log compaction.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            group_commit: false,
            segment_max_bytes: 8 * 1024 * 1024,
            snapshots_keep: 2,
            checkpoint_exposure: None,
            log_compaction_ratio: None,
        }
    }

    /// Enables the background checkpoint scheduler with the given replay
    /// exposure bound (see [`DurabilityOptions::checkpoint_exposure`]).
    pub fn with_checkpoint_exposure(mut self, events: u64) -> Self {
        self.checkpoint_exposure = Some(events);
        self
    }

    /// Enables scheduler-driven per-key log compaction at the given
    /// blanked-frame ratio threshold (see
    /// [`DurabilityOptions::log_compaction_ratio`]).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < ratio <= 1.0`.
    pub fn with_log_compaction(mut self, ratio: f64) -> Self {
        assert!(
            ratio > 0.0 && ratio <= 1.0,
            "log_compaction_ratio must be in (0, 1]"
        );
        self.log_compaction_ratio = Some(ratio);
        self
    }
}

/// The durable machinery of a topology built with
/// [`SearchTopology::build_durable`]. Each partition's checkpoint store
/// lives in its row of the replica table.
#[derive(Debug)]
struct DurableParts {
    /// Owns the log and the publish tee on the shared queue.
    queue: DurableQueue,
    metrics: Arc<DurabilityMetrics>,
    /// Root directory, snapshot retention and the scheduler's bounds.
    options: DurabilityOptions,
}

impl DurableParts {
    /// Opens partition `p`'s checkpoint store, `<dir>/ckpt-p{p}`.
    fn open_store(&self, partition: usize) -> io::Result<CheckpointStore> {
        CheckpointStore::open(
            CheckpointConfig {
                dir: self.options.dir.join(format!("ckpt-p{partition}")),
                keep: self.options.snapshots_keep.max(1),
            },
            Arc::clone(&self.metrics),
        )
    }
}

/// The durable partition-map file (`<dir>/partition-map`): a split changes
/// the routing table at runtime, and any checkpoint taken afterwards covers
/// only the split partition's *narrowed* key set — so a restart must
/// reconstruct the split layout or moved keys checkpointed by the sibling
/// would silently vanish. The file is written with [`write_atomic`] (temp
/// file, fsync, rename, directory fsync) before a split resumes ingestion,
/// which is also before any post-split checkpoint can exist (both
/// serialize on the maintenance mutex).
const PARTITION_MAP_FILE: &str = "partition-map";
const PARTITION_MAP_MAGIC: &str = "jdvs-partition-map v1";

fn save_partition_map(dir: &Path, map: &PartitionMap) -> io::Result<()> {
    let join = |row: &[usize]| {
        row.iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    let body = format!(
        "{PARTITION_MAP_MAGIC}\ngroups {}\nassign {}\ntable {}\n",
        map.num_broker_groups(),
        join(map.groups()),
        join(map.table()),
    );
    write_atomic(dir, PARTITION_MAP_FILE, body.as_bytes())
}

/// Loads the persisted layout, if one exists. A file that does not decode
/// to a valid layout over `num_broker_groups` groups is an `InvalidData`
/// error, not a fallback: silently reverting to the config-derived layout
/// after a split could drop every key the sibling's checkpoints own.
fn load_partition_map(dir: &Path, num_broker_groups: usize) -> io::Result<Option<PartitionMap>> {
    let path = dir.join(PARTITION_MAP_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let corrupt = || io::Error::new(io::ErrorKind::InvalidData, "corrupt partition-map file");
    let mut lines = text.lines();
    if lines.next() != Some(PARTITION_MAP_MAGIC) {
        return Err(corrupt());
    }
    let mut field = |name: &str| -> io::Result<Vec<usize>> {
        let line = lines.next().ok_or_else(corrupt)?;
        let rest = line.strip_prefix(name).ok_or_else(corrupt)?;
        rest.split_whitespace()
            .map(|v| v.parse::<usize>().map_err(|_| corrupt()))
            .collect()
    };
    let groups_count = *field("groups ")?.first().ok_or_else(corrupt)?;
    let assign = field("assign ")?;
    let table = field("table ")?;
    PartitionMap::from_parts(groups_count, assign, table)
        .filter(|map| map.num_broker_groups() == num_broker_groups)
        .map(Some)
        .ok_or_else(corrupt)
}

/// Outcome of [`SearchTopology::checkpoint_partition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Partition checkpointed.
    pub partition: usize,
    /// Applied-offset watermark the snapshot covers.
    pub applied_offset: u64,
    /// Snapshot bytes written.
    pub snapshot_bytes: u64,
    /// Log segments reclaimed by retention after this checkpoint.
    pub segments_pruned: u64,
}

/// Outcome of one partition's online full rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildReport {
    /// Partition rebuilt.
    pub partition: usize,
    /// Messages replayed from the log (max across replicas).
    pub messages_replayed: u64,
    /// Records in the old index (including logically deleted) at swap time,
    /// summed over replicas.
    pub records_before: usize,
    /// Records in the fresh index (valid images only), summed.
    pub records_after: usize,
    /// Snapshot bytes shipped per replica (last replica's size).
    pub snapshot_bytes: usize,
}

/// Outcome of [`SearchTopology::bootstrap_replica`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootstrapReport {
    /// Partition the replica joined.
    pub partition: usize,
    /// Index of the new replica within the partition's row.
    pub replica: usize,
    /// Whether a checkpoint snapshot seeded the replica (`false` = cold
    /// replay of the whole retained log through the live indexing path).
    pub from_snapshot: bool,
    /// First log offset tailed (the seed watermark, or the queue base).
    pub seed_offset: u64,
    /// Events applied before joining the serving set (both the unpaused
    /// tail and the final quiesced drain).
    pub tailed: u64,
}

/// Outcome of [`SearchTopology::split_partition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitReport {
    /// Partition that was split (keeps the lower half of its key space).
    pub partition: usize,
    /// New partition id owning the upper half.
    pub sibling: usize,
    /// Messages replayed building the halves (checkpoint seeding makes
    /// this the surviving suffix, not the whole log).
    pub messages_replayed: u64,
    /// Records in the parent's fresh half, summed over replicas.
    pub parent_records: usize,
    /// Records in the sibling's fresh half, summed over replicas.
    pub sibling_records: usize,
    /// Whether a checkpoint snapshot seeded both halves.
    pub from_snapshot: bool,
}

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

/// The balancer list a single broker instance fans out over — one
/// balancer per partition its group owns, shared with the running
/// [`BrokerService`] so lifecycle operations can grow it in place.
type BrokerFanout = Arc<RwLock<Vec<Balancer<NodeHandle<SearcherService>>>>>;

/// One searcher replica: its hot-swappable index, the in-process searcher
/// node serving it, and its real-time indexer's progress.
struct Replica {
    handle: Arc<IndexHandle>,
    node: Node<SearcherService>,
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
}

impl Partition {
    fn replicas(&self) -> impl Iterator<Item = &Replica> {
        self.replicas.iter().map(|(_, r)| r)
    }

    fn replica(&self, replica: usize) -> &Replica {
        self.replicas.get(replica).expect("replica out of range")
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

/// The live replica table and the quiesce machinery around it, shared
/// (`Arc`) by the [`SearchTopology`], every indexer thread and the
/// background scheduler: operator-initiated and scheduled checkpoints are
/// one code path over one table, serialized by one maintenance mutex, and
/// a row that a split or bootstrap appends is seen by all of them.
struct Core {
    partitions: Directory<Partition>,
    /// Serializes checkpoint/rebuild/bootstrap/split/compaction: they share
    /// the global pause flag, so one finishing must not resume indexing
    /// under another's snapshot.
    maintenance: Mutex<()>,
    stop: AtomicBool,
    pause: AtomicBool,
    /// Bumped (under `maintenance`) each time a quiesce begins; indexer
    /// threads echo it into their `parked` counter once at rest.
    pause_epoch: AtomicU64,
    durable: Option<DurableParts>,
}

impl Core {
    fn partition(&self, p: usize) -> &Partition {
        self.partitions.get(p).expect("partition out of range")
    }

    fn replica(&self, partition: usize, replica: usize) -> &Replica {
        self.partition(partition).replica(replica)
    }

    fn rows(&self) -> impl Iterator<Item = &Partition> {
        self.partitions.iter().map(|(_, row)| row)
    }

    /// Pauses real-time consumption and blocks until every indexer thread
    /// of `partition` has positively acknowledged the pause (echoed the new
    /// pause epoch after finishing its in-flight apply). Bails early on
    /// stop so a maintenance call racing teardown cannot hang. Callers must
    /// hold the maintenance mutex and [`Core::resume`] afterwards.
    fn quiesce(&self, partition: usize) {
        let epoch = self.pause_epoch.fetch_add(1, Ordering::SeqCst) + 1;
        self.pause.store(true, Ordering::Release);
        for replica in self.partition(partition).replicas() {
            while replica.parked.load(Ordering::Acquire) < epoch
                && !self.stop.load(Ordering::Relaxed)
            {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }

    fn resume(&self) {
        self.pause.store(false, Ordering::Release);
    }

    /// The full online-checkpoint sequence; see
    /// [`SearchTopology::checkpoint_partition`] for the contract.
    fn checkpoint_partition(&self, partition: usize) -> io::Result<CheckpointReport> {
        let row = self.partition(partition);
        let (Some(durable), Some(store)) = (&self.durable, &row.checkpoints) else {
            panic!("checkpoint_partition requires build_durable");
        };
        let _maintenance = self.maintenance.lock();
        self.quiesce(partition);
        let result: io::Result<(u64, u64)> = (|| {
            let index = row.replica(0).handle.get();
            index.flush();
            let applied_offset = index.stats().applied_offset.get();
            // Sync the log through the watermark first: under EveryN/Os a
            // crash right after this checkpoint could otherwise truncate
            // the log below the watermark, and recovery seeded at it would
            // skip the events re-published at those offsets forever.
            durable.queue.sync()?;
            let bytes_before = durable.metrics.checkpoint_bytes.get();
            store.save(&index, applied_offset)?;
            Ok((applied_offset, bytes_before))
        })();
        self.resume();
        let (applied_offset, bytes_before) = result?;

        // Retention: the log is shared by every partition, so only the
        // prefix below the laggiest partition's checkpoint is garbage.
        let min_watermark = self
            .rows()
            .map(|row| row.watermark().unwrap_or(0))
            .min()
            .unwrap_or(0);
        let segments_pruned = durable.queue.prune_to(min_watermark)?;

        Ok(CheckpointReport {
            partition,
            applied_offset,
            snapshot_bytes: durable.metrics.checkpoint_bytes.get() - bytes_before,
            segments_pruned,
        })
    }

    /// One scheduler pass: checkpoint every partition whose replay
    /// exposure (applied watermark minus newest checkpoint watermark)
    /// exceeds `bound`. Errors are left for the next pass to retry — the
    /// log itself is unaffected by a failed snapshot.
    fn run_exposure_pass(&self, bound: u64) {
        for (p, row) in self.partitions.iter() {
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            let applied = row.replica(0).handle.get().stats().applied_offset.get();
            if applied.saturating_sub(row.watermark().unwrap_or(0)) > bound {
                let _ = self.checkpoint_partition(p);
            }
        }
    }

    /// One scheduler pass of the log-compaction side: when the estimated
    /// blanked-frame ratio crosses `threshold` and the log has cold
    /// segments to rewrite, run per-key compaction. Serialized on the same
    /// maintenance mutex as checkpoints, rebuilds and splits, so no
    /// snapshot save or segment retention races the segment swap. Errors
    /// are left for the next pass to retry, like a failed checkpoint.
    fn run_compaction_pass(&self, threshold: f64) {
        let Some(queue) = self.durable.as_ref().map(|d| &d.queue) else {
            return;
        };
        if self.stop.load(Ordering::Relaxed)
            || queue.stale_frame_ratio() < threshold
            || queue.num_segments() < 2
        {
            return;
        }
        let _maintenance = self.maintenance.lock();
        let _ = queue.compact();
    }
}

/// The assembled serving system.
pub struct SearchTopology {
    frontend: Arc<Balancer<NodeHandle<BlenderService>>>,
    /// The live partition layout, shared with every partition filter
    /// closure: an online split rewrites it in place and the parent's
    /// indexers immediately stop owning the moved keys.
    partition_map: Arc<RwLock<PartitionMap>>,
    config: TopologyConfig,
    /// The live replica table, shared with the indexer threads and the
    /// background scheduler.
    core: Arc<Core>,
    broker_nodes: Vec<Vec<Node<BrokerService>>>,
    /// `broker_partitions[g][b]` = the balancer list broker instance `b`
    /// of group `g` fans out over, shared with the running
    /// [`BrokerService`]; replica bootstrap pushes targets into existing
    /// balancers, splits push whole new balancers.
    broker_partitions: Vec<Vec<BrokerFanout>>,
    /// Live per-group partition counts, shared with every blender's
    /// coverage accounting (in process and over TCP); a split bumps the
    /// parent's group.
    group_partition_counts: Arc<Vec<AtomicUsize>>,
    blender_nodes: Vec<Node<BlenderService>>,
    queue: MessageQueue<ProductEvent>,
    extractor: Arc<CachingExtractor>,
    images: Arc<ImageStore>,
    feature_db: Arc<FeatureDb>,
    indexer_threads: Vec<JoinHandle<()>>,
    /// Background maintenance scheduler
    /// ([`DurabilityOptions::checkpoint_exposure`],
    /// [`DurabilityOptions::log_compaction_ratio`]), joined in shutdown.
    checkpoint_scheduler: Option<JoinHandle<()>>,
    query_cache: Option<Arc<LruCache<ImageKey, Vec<f32>>>>,
    metrics: Arc<ResilienceMetrics>,
    /// What startup recovery did, one entry per (partition, replica) in
    /// partition-major order; empty unless built durable.
    recovery: Vec<RecoveryReport>,
}

/// An ownership predicate over the **live** partition layout: when a split
/// rewrites the shared map, every existing filter narrows (or widens)
/// automatically — no indexer or builder holds a stale layout.
fn partition_filter(map: &Arc<RwLock<PartitionMap>>, partition: usize) -> KeyFilter {
    let map = Arc::clone(map);
    Arc::new(move |key| map.read().partition_of(key) == partition)
}

/// Stands up replica `r` of partition `p` over `indexer`'s index: its
/// searcher node and, with real-time indexing on, the indexer thread that
/// keeps it fresh from `consumer`'s position on (pushed onto `threads`):
/// poll → `apply_at` → advance `processed`, with the positive pause
/// handshake and a drain-on-stop exit.
fn stand_up(
    core: &Arc<Core>,
    config: &TopologyConfig,
    (p, r): (usize, usize),
    indexer: RealtimeIndexer,
    mut consumer: Consumer<ProductEvent>,
    threads: &mut Vec<JoinHandle<()>>,
) -> Replica {
    let handle = Arc::clone(indexer.handle());
    let node = Node::spawn_with(
        format!("searcher-{p}-{r}"),
        SearcherService::new(p, Arc::clone(&handle)),
        config.searcher_workers,
        config.latency,
        config.seed ^ ((p as u64) << 16) ^ r as u64,
    );
    let processed = Arc::new(AtomicU64::new(consumer.position()));
    let parked = Arc::new(AtomicU64::new(0));
    let replica = Replica {
        handle,
        node,
        processed: Arc::clone(&processed),
        parked: Arc::clone(&parked),
    };
    if !config.realtime_indexing {
        return replica;
    }
    let core = Arc::clone(core);
    let thread = std::thread::Builder::new()
        .name(format!("rtidx-{p}-{r}"))
        .spawn(move || {
            while !core.stop.load(Ordering::Relaxed) {
                if core.pause.load(Ordering::Acquire) {
                    // Positive quiesce handshake: echo the pause epoch only
                    // here, after any in-flight apply completed — the
                    // coordinator waits for *its* epoch, so a stale park
                    // from an earlier pause can't satisfy it.
                    while core.pause.load(Ordering::Acquire) && !core.stop.load(Ordering::Relaxed) {
                        parked.store(core.pause_epoch.load(Ordering::Acquire), Ordering::Release);
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    continue;
                }
                let offset = consumer.position();
                match consumer.poll(Duration::from_millis(10)) {
                    Some(event) => {
                        indexer.apply_at(offset, &event);
                        processed.store(consumer.position(), Ordering::Release);
                    }
                    None => indexer.index().flush(),
                }
            }
            // Drain the backlog for deterministic shutdown (ignoring
            // pause: we are exiting).
            loop {
                let offset = consumer.position();
                match consumer.poll_now() {
                    Some(event) => {
                        indexer.apply_at(offset, &event);
                        processed.store(consumer.position(), Ordering::Release);
                    }
                    None => break,
                }
            }
            indexer.index().flush();
        })
        .expect("spawning real-time indexer thread");
    threads.push(thread);
    replica
}

/// The balancer broker instance `b` of group `g` fans out over for
/// partition `p`'s replicas.
fn searcher_balancer(
    config: &TopologyConfig,
    metrics: &Arc<ResilienceMetrics>,
    row: &Partition,
    (g, b, p): (usize, usize, usize),
) -> Balancer<NodeHandle<SearcherService>> {
    Balancer::with_policies(
        row.replicas().map(|r| r.node.handle()).collect(),
        config.health,
        config.retry,
        config.seed ^ 0xBA1 ^ ((g as u64) << 24) ^ ((b as u64) << 12) ^ p as u64,
    )
    .with_metrics(Arc::clone(metrics))
}

/// The one blender constructor of the in-process and TCP hosts: every
/// blender of a topology shares its query-feature cache, category
/// detector, ranking and live per-group partition counts.
fn blender<B>(
    config: &TopologyConfig,
    groups: Vec<Balancer<B>>,
    extractor: &Arc<CachingExtractor>,
    images: &Arc<ImageStore>,
    query_cache: Option<&Arc<LruCache<ImageKey, Vec<f32>>>>,
    group_partitions: &Arc<Vec<AtomicUsize>>,
    metrics: &Arc<ResilienceMetrics>,
) -> BlenderService<B>
where
    B: CallTarget<Request = FanoutQuery, Response = PartialResponse>,
{
    let mut service = BlenderService::new(
        groups,
        Arc::clone(extractor),
        Arc::clone(images),
        config.ranking,
        config.broker_deadline,
    )
    .with_shared_group_partitions(Arc::clone(group_partitions))
    .with_metrics(Arc::clone(metrics));
    if let Some(cache) = query_cache {
        service = service.with_query_cache(Arc::clone(cache));
    }
    if let Some(detector) = &config.category_detector {
        service = service.with_category_detector(Arc::clone(detector));
    }
    service
}

impl std::fmt::Debug for SearchTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchTopology")
            .field("partitions", &self.core.rows().count())
            .field("blenders", &self.blender_nodes.len())
            .field("realtime_indexing", &self.config.realtime_indexing)
            .finish()
    }
}

impl SearchTopology {
    /// Builds the full stack.
    ///
    /// The coarse quantizer is trained once on `training` and shared by all
    /// partition replicas (as the weekly full index does in production);
    /// `queue` is the catalog's update stream, followed by every searcher's
    /// real-time indexing thread when `config.realtime_indexing` is set.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid or `training` is empty.
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
    }

    /// Builds the full stack on top of a durable ingestion log with
    /// checkpoint recovery (the crash-safe variant of
    /// [`SearchTopology::build`]).
    ///
    /// The update queue is rebuilt from the event log in
    /// `options.dir/wal` (torn or corrupt tails are truncated, CRC-checked
    /// records replayed), every publish is teed back into the log under
    /// the configured [`FsyncPolicy`], and **before any searcher serves**,
    /// each partition replica is recovered: the newest valid checkpoint
    /// snapshot is hot-swapped in and the log suffix past its applied
    /// offset is replayed through the real-time indexing path. See
    /// [`SearchTopology::recovery_reports`] for what startup recovery did
    /// and [`SearchTopology::checkpoint_partition`] for producing new
    /// checkpoints while serving.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from opening the log or checkpoint stores,
    /// and returns `InvalidData` for a partition-map file that does not
    /// decode to a layout over `config.num_broker_groups` groups.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid or `training` is empty.
    pub fn build_durable(
        config: TopologyConfig,
        extractor: Arc<CachingExtractor>,
        images: Arc<ImageStore>,
        feature_db: Arc<FeatureDb>,
        training: &[Vector],
        options: DurabilityOptions,
    ) -> io::Result<Self> {
        config.validate();
        let metrics = Arc::new(DurabilityMetrics::new());
        let durable_queue = DurableQueue::open(
            LogConfig {
                dir: options.dir.join("wal"),
                segment_max_bytes: options.segment_max_bytes,
                fsync: options.fsync,
                group_commit: options.group_commit,
            },
            Arc::clone(&metrics),
        )?;
        // A previous life's online splits changed the layout; checkpoints
        // taken after a split cover the narrowed key sets, so the restart
        // must reconstruct the persisted layout (not the config-derived
        // one) or the moved keys would vanish.
        let layout = load_partition_map(&options.dir, config.num_broker_groups)?
            .unwrap_or_else(|| PartitionMap::new(config.num_partitions, config.num_broker_groups));
        let queue = (**durable_queue.queue()).clone();
        let durable = DurableParts {
            queue: durable_queue,
            metrics,
            options,
        };
        let stores = (0..layout.num_partitions())
            .map(|p| durable.open_store(p))
            .collect::<io::Result<_>>()?;
        Ok(Self::assemble(
            config,
            extractor,
            images,
            feature_db,
            training,
            queue,
            layout,
            Some((durable, stores)),
        ))
    }

    /// Shared by build/build_durable; a durable topology brings one
    /// checkpoint store per partition of `layout`.
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
    ) -> Self {
        config.validate();
        // The layout may have more partitions than the config when a
        // persisted map (recording previous splits) was restored.
        let num_partitions = layout.num_partitions();
        let partition_map = Arc::new(RwLock::new(layout));
        // One metrics instance shared by every balancer/broker/blender, so
        // a single snapshot covers the whole serving path.
        let metrics = Arc::new(ResilienceMetrics::new());
        let quantizer = Kmeans::train(
            training,
            &KmeansConfig {
                k: config.index.num_lists,
                max_iters: config.index.kmeans_iters,
                tolerance: 1e-4,
                seed: config.index.seed,
                balance_factor: config.index.coarse_balance_factor,
            },
        );
        // Hierarchical coarse quantizer: build the centroid graph once here
        // so every replica's `with_quantizers` below inherits it from its
        // clone instead of rebuilding per replica.
        let quantizer = if config.index.coarse_beam_width > 0 {
            quantizer.with_coarse_graph(config.index.coarse_beam_width)
        } else {
            quantizer
        };
        // PQ codebook (when compressed mode is configured) is trained once
        // and shared by all replicas, like the coarse quantizer.
        let pq_quantizer = config.index.pq_subspaces.map(|m| {
            Arc::new(jdvs_vector::pq::ProductQuantizer::train(
                training,
                &jdvs_vector::pq::PqConfig {
                    num_subspaces: m,
                    max_iters: config.index.kmeans_iters,
                    seed: config.index.seed ^ 0x90DE,
                    bits: config.index.pq_bits,
                },
            ))
        });

        // --- Searchers: the replica table, one row per partition. --------
        let (durable, stores) = durable.map_or((None, Vec::new()), |(d, s)| (Some(d), s));
        let core = Arc::new(Core {
            partitions: Directory::new(),
            maintenance: Mutex::new(()),
            stop: AtomicBool::new(false),
            pause: AtomicBool::new(false),
            pause_epoch: AtomicU64::new(0),
            durable,
        });
        let mut indexer_threads = Vec::new();
        let mut recovery = Vec::new();
        let mut stores = stores.into_iter();
        for p in 0..num_partitions {
            let row = Partition {
                replicas: Directory::new(),
                checkpoints: stores.next(),
            };
            // One disk read + one validating decode per partition, shared
            // by every replica below (each forks its copy from the cached
            // bytes instead of re-reading the snapshot).
            let shared_seed: Option<SharedCheckpoint> = row
                .checkpoints
                .as_ref()
                .and_then(|c| c.recover_shared_within(queue.len(), &config.index));
            for r in 0..config.replicas_per_partition {
                let index = Arc::new(VisualIndex::with_quantizers(
                    config.index.clone(),
                    quantizer.clone(),
                    pq_quantizer.clone(),
                ));
                let indexer = RealtimeIndexer::new(
                    Arc::new(IndexHandle::new(index)),
                    Arc::clone(&extractor),
                    Arc::clone(&images),
                    Arc::clone(&feature_db),
                )
                .with_filter(partition_filter(&partition_map, p));
                // Durable startup: recover this replica *before* any query
                // is served — newest valid checkpoint swapped in, then the
                // log suffix replayed through the live indexing path.
                let mut start = queue.base();
                if let Some(d) = &core.durable {
                    let report = recover_partition_seeded(
                        &indexer,
                        shared_seed.as_ref(),
                        &queue,
                        &d.metrics,
                    );
                    start = report.start_offset + report.replayed;
                    recovery.push(report);
                }
                let consumer = queue.consumer_at(start);
                let replica = stand_up(
                    &core,
                    &config,
                    (p, r),
                    indexer,
                    consumer,
                    &mut indexer_threads,
                );
                append(&row.replicas, replica);
            }
            append(&core.partitions, row);
        }

        // --- Brokers: G groups × broker_replicas instances. --------------
        let mut broker_nodes = Vec::with_capacity(config.num_broker_groups);
        let mut broker_partitions: Vec<Vec<BrokerFanout>> =
            Vec::with_capacity(config.num_broker_groups);
        for g in 0..config.num_broker_groups {
            let mut instances = Vec::new();
            let mut instance_partitions = Vec::new();
            for b in 0..config.broker_replicas {
                let balancers: Vec<_> = partition_map
                    .read()
                    .partitions_of_group(g)
                    .into_iter()
                    .map(|p| searcher_balancer(&config, &metrics, core.partition(p), (g, b, p)))
                    .collect();
                // The balancer list stays shared with the topology so
                // replica bootstrap and splits can grow it while this
                // broker keeps serving.
                let shared = Arc::new(RwLock::new(balancers));
                instance_partitions.push(Arc::clone(&shared));
                let mut service = BrokerService::over(g, shared, config.searcher_deadline)
                    .with_metrics(Arc::clone(&metrics));
                if let Some(hedge_after) = config.hedge_after {
                    service = service.with_hedging(hedge_after);
                }
                instances.push(Node::spawn_with(
                    format!("broker-{g}-{b}"),
                    service,
                    config.broker_workers,
                    config.latency,
                    config.seed ^ 0xB0 ^ ((g as u64) << 16) ^ b as u64,
                ));
            }
            broker_nodes.push(instances);
            broker_partitions.push(instance_partitions);
        }

        // --- Blenders. ----------------------------------------------------
        let query_cache = config
            .query_cache_capacity
            .map(|cap| Arc::new(LruCache::new(cap)));
        let group_partition_counts: Arc<Vec<AtomicUsize>> = Arc::new(
            (0..config.num_broker_groups)
                .map(|g| AtomicUsize::new(partition_map.read().partitions_of_group(g).len()))
                .collect(),
        );
        let blender_nodes: Vec<Node<BlenderService>> = (0..config.num_blenders)
            .map(|i| {
                let groups = broker_nodes
                    .iter()
                    .enumerate()
                    .map(|(g, instances)| {
                        Balancer::with_policies(
                            instances.iter().map(Node::handle).collect(),
                            config.health,
                            config.retry,
                            config.seed ^ 0xB2A ^ ((i as u64) << 24) ^ g as u64,
                        )
                        .with_metrics(Arc::clone(&metrics))
                    })
                    .collect();
                let service = blender(
                    &config,
                    groups,
                    &extractor,
                    &images,
                    query_cache.as_ref(),
                    &group_partition_counts,
                    &metrics,
                );
                Node::spawn_with(
                    format!("blender-{i}"),
                    service,
                    config.blender_workers,
                    config.latency,
                    config.seed ^ 0xB1E ^ i as u64,
                )
            })
            .collect();

        // --- Front end. ----------------------------------------------------
        let frontend = Arc::new(
            Balancer::with_policies(
                blender_nodes.iter().map(Node::handle).collect(),
                config.health,
                config.retry,
                config.seed ^ 0xF0E,
            )
            .with_metrics(Arc::clone(&metrics)),
        );

        // --- Background maintenance scheduler (durable + a bound set). ----
        // One thread drives both scheduled duties: exposure-bounded
        // checkpoints and threshold-triggered log compaction. They share
        // the maintenance mutex anyway, so a second thread would only
        // queue behind the first. It walks the live table, so partitions
        // a split appends later are covered too.
        let (exposure, compaction) = match (&core.durable, config.realtime_indexing) {
            (Some(d), true) => (
                d.options.checkpoint_exposure,
                d.options.log_compaction_ratio,
            ),
            _ => (None, None),
        };
        let checkpoint_scheduler = (exposure.is_some() || compaction.is_some()).then(|| {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("ckpt-sched".into())
                .spawn(move || {
                    while !core.stop.load(Ordering::Relaxed) {
                        if let Some(bound) = exposure {
                            core.run_exposure_pass(bound);
                        }
                        if let Some(threshold) = compaction {
                            core.run_compaction_pass(threshold);
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                })
                .expect("spawning checkpoint scheduler thread")
        });

        Self {
            frontend,
            partition_map,
            config,
            core,
            broker_nodes,
            broker_partitions,
            group_partition_counts,
            blender_nodes,
            queue,
            extractor,
            images,
            feature_db,
            indexer_threads,
            checkpoint_scheduler,
            query_cache,
            metrics,
            recovery,
        }
    }

    /// Builds a blender over `groups` the way every blender of this
    /// topology is built — the TCP host's entry to the shared constructor.
    pub(crate) fn blender<B>(
        &self,
        groups: Vec<Balancer<B>>,
        metrics: &Arc<ResilienceMetrics>,
    ) -> BlenderService<B>
    where
        B: CallTarget<Request = FanoutQuery, Response = PartialResponse>,
    {
        blender(
            &self.config,
            groups,
            &self.extractor,
            &self.images,
            self.query_cache.as_ref(),
            &self.group_partition_counts,
            metrics,
        )
    }

    /// The shared resilience counters of the serving path (every balancer,
    /// broker, and blender reports into this instance).
    pub fn resilience_metrics(&self) -> &Arc<ResilienceMetrics> {
        &self.metrics
    }

    /// Point-in-time snapshot of the resilience counters.
    pub fn resilience_snapshot(&self) -> ResilienceSnapshot {
        self.metrics.snapshot()
    }

    /// Statistics of the shared blender query-feature cache, if enabled.
    pub fn query_cache_stats(&self) -> Option<jdvs_storage::lru::LruStats> {
        self.query_cache.as_ref().map(|c| c.stats())
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
            queue_length: self.queue.len(),
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

    /// Checkpoints one partition **online**: real-time consumption is
    /// briefly paused at a quiesced cut (each indexer thread positively
    /// acknowledges the pause before the snapshot is cut), the log is
    /// synced so the watermark never exceeds the durable log end, replica
    /// 0's index is snapshotted atomically (temp file + rename + manifest)
    /// at its applied-offset watermark, indexing resumes, and log segments
    /// wholly below the *minimum* checkpoint watermark across all
    /// partitions are reclaimed (every partition replays from the shared
    /// log, so retention must respect the laggiest checkpoint).
    ///
    /// Concurrent maintenance calls (checkpoint or rebuild) serialize on
    /// an internal mutex — the pause flag is global, so one caller's
    /// resume must not unpause indexing under another's snapshot.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the log sync, snapshot or retention path.
    ///
    /// # Panics
    ///
    /// Panics if not built durable, real-time indexing is disabled, or
    /// `partition` is out of range.
    pub fn checkpoint_partition(&self, partition: usize) -> io::Result<CheckpointReport> {
        assert!(
            self.config.realtime_indexing,
            "checkpointing needs the real-time indexers' watermarks"
        );
        self.core.checkpoint_partition(partition)
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
        self.partition_map.read().clone()
    }

    /// The stack's configuration (shape, deadlines, policies).
    pub fn config(&self) -> &TopologyConfig {
        &self.config
    }

    /// The shared feature extractor.
    pub fn extractor(&self) -> &Arc<CachingExtractor> {
        &self.extractor
    }

    /// The shared image store.
    pub fn images(&self) -> &Arc<ImageStore> {
        &self.images
    }

    /// The catalog update queue (publish events here).
    pub fn queue(&self) -> &MessageQueue<ProductEvent> {
        &self.queue
    }

    /// Publishes one catalog event.
    pub fn publish(&self, event: ProductEvent) {
        self.queue.publish(event);
    }

    /// A user-facing client through the front-end balancer.
    pub fn client(&self, deadline: Duration) -> SearchClient {
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
        &self.core.replica(partition, replica).handle
    }

    /// Live replica count of `partition` (panics if out of range).
    pub(crate) fn num_replicas(&self, partition: usize) -> usize {
        self.core.partition(partition).replicas().count()
    }

    /// Snapshots of all current indexes, `[partition][replica]`.
    pub fn indexes(&self) -> Vec<Vec<Arc<VisualIndex>>> {
        self.core
            .rows()
            .map(|row| row.replicas().map(|r| r.handle.get()).collect())
            .collect()
    }

    /// Fault controls of a searcher node.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn searcher_faults(&self, partition: usize, replica: usize) -> &jdvs_net::FaultInjector {
        self.core.replica(partition, replica).node.faults()
    }

    /// Fault controls of a broker instance.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn broker_faults(&self, group: usize, instance: usize) -> &jdvs_net::FaultInjector {
        self.broker_nodes[group][instance].faults()
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
        if !self.config.realtime_indexing {
            return 0;
        }
        let published = self.queue.len();
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
        if !self.config.realtime_indexing {
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

    /// The quiesced consume positions of `partition`'s replicas. Caller
    /// must hold the maintenance mutex with the partition quiesced.
    fn quiesced_cuts(&self, partition: usize) -> Vec<u64> {
        self.core
            .partition(partition)
            .replicas()
            .map(|r| r.processed.load(Ordering::Acquire))
            .collect()
    }

    /// Builds a fresh filter-scoped index covering `[0, cut)` of the
    /// logical log: seeded from the newest checkpoint at or below `cut`
    /// (replaying only the surviving suffix) when one exists, or by cold
    /// replay of the complete log otherwise. Shared by rebuild and split.
    ///
    /// The cold path asserts the log prefix is still present. That cannot
    /// fire spuriously: retention only prunes below the *minimum*
    /// checkpoint watermark across partitions, so a pruned prefix implies
    /// this partition has a checkpoint at or above the queue base — and
    /// `cut` (an applied position) is necessarily at or above that
    /// watermark, so the seeded path is taken.
    fn build_to_cut(
        &self,
        checkpoint_partition: usize,
        filter: &KeyFilter,
        cut: u64,
    ) -> (VisualIndex, u64, bool) {
        let builder = FullIndexBuilder::new(
            self.config.index.clone(),
            Arc::clone(&self.extractor),
            Arc::clone(&self.images),
            Arc::clone(&self.feature_db),
        )
        .with_filter(Arc::clone(filter));
        let seed = self
            .core
            .partition(checkpoint_partition)
            .checkpoints
            .as_ref()
            .and_then(|c| c.recover_shared_within(cut, &self.config.index));
        let (fresh, build) = match &seed {
            Some(s) => {
                let start = s.applied_offset.max(self.queue.base());
                let suffix = self.queue.read_range(start, (cut - start) as usize);
                builder.build_seeded(&s.index, &suffix)
            }
            None => {
                assert_eq!(
                    self.queue.base(),
                    0,
                    "cold rebuild needs the complete log, but checkpoint \
                     retention already reclaimed its prefix and no usable \
                     checkpoint at or below the cut survived"
                );
                builder.build(&self.queue.read_range(0, cut as usize))
            }
        };
        // Stamp the watermark the build reached: the fresh index applied
        // everything below the cut, and post-swap checkpoints measure
        // replay exposure against this.
        fresh.stats().applied_offset.set_max(cut);
        (fresh, build.messages_replayed, seed.is_some())
    }

    /// Replays `[from, to)` of the log into `index` through the live
    /// indexing path (a replica whose quiesced cut ran past the common
    /// build cut catches its private tail up before the swap).
    fn replay_tail(
        &self,
        index: Arc<VisualIndex>,
        filter: &KeyFilter,
        from: u64,
        to: u64,
    ) -> Arc<VisualIndex> {
        let indexer = RealtimeIndexer::for_index(
            index,
            Arc::clone(&self.extractor),
            Arc::clone(&self.images),
            Arc::clone(&self.feature_db),
        )
        .with_filter(Arc::clone(filter));
        for (i, event) in self
            .queue
            .read_range(from, (to - from) as usize)
            .iter()
            .enumerate()
        {
            indexer.apply_at(from + i as u64, event);
        }
        indexer.index().flush();
        indexer.index()
    }

    /// Performs the weekly full rebuild of one partition **online**
    /// (Figure 2): real-time indexing is briefly paused at a quiesced
    /// cut point, the partition's state up to the cut is reconstructed
    /// into a fresh index (logically-deleted images are physically
    /// dropped), the index is shipped through the snapshot format and
    /// hot-swapped, and indexing resumes — all while searches keep being
    /// served (by the old index until the instant of the swap).
    ///
    /// On a durable topology the rebuild is **checkpoint-seeded**: the
    /// newest valid snapshot at or below the cut seeds the catalog state
    /// and only the surviving log suffix `[watermark, cut)` is replayed —
    /// so rebuilds keep working after checkpoint retention pruned the log
    /// prefix. One index is built at the minimum cut and decoded once per
    /// replica from the same snapshot bytes; a replica whose own cut ran
    /// further catches up through the live indexing path before its swap.
    ///
    /// A partition whose replayed state contains no valid image (empty or
    /// fully deleted) swaps in an empty index and reports
    /// `records_after: 0` — not a panic.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range, real-time indexing is
    /// disabled, or (non-durable topologies only) the log prefix was
    /// externally pruned.
    pub fn rebuild_partition(&self, partition: usize) -> RebuildReport {
        assert!(
            self.config.realtime_indexing,
            "online rebuild requires real-time indexing (otherwise just build a world)"
        );
        let row = self.core.partition(partition);
        // 1. One maintenance op at a time (the pause flag is global), then
        //    pause consumption and wait for every indexer thread of this
        //    partition to positively acknowledge the pause.
        let _maintenance = self.core.maintenance.lock();
        self.core.quiesce(partition);

        // 2. Build once at the minimum quiesced cut (replica cuts may
        //    differ — each indexer thread parked at its own position).
        let cuts = self.quiesced_cuts(partition);
        let cut0 = cuts.iter().copied().min().unwrap_or(0);
        let filter = partition_filter(&self.partition_map, partition);
        let (fresh, messages_replayed, _) = self.build_to_cut(partition, &filter, cut0);
        // Ship through the on-disk format, as production distributes
        // index files to searcher nodes.
        let bytes = persist::save(&fresh);

        // 3. Per replica: decode the shared snapshot, replay the replica's
        //    private tail [cut0, cut_r), swap it in.
        let mut report = RebuildReport {
            partition,
            messages_replayed,
            records_before: 0,
            records_after: 0,
            snapshot_bytes: bytes.len(),
        };
        let mut max_tail = 0u64;
        for (r, replica) in row.replicas().enumerate() {
            let loaded = Arc::new(
                persist::load(&bytes, &self.config.index).expect("snapshot round-trip cannot fail"),
            );
            // The snapshot format does not carry the applied-offset
            // watermark (recovery re-stamps it too); without this a
            // post-rebuild checkpoint would record watermark 0.
            loaded.stats().applied_offset.set_max(cut0);
            let loaded = if cuts[r] > cut0 {
                max_tail = max_tail.max(cuts[r] - cut0);
                self.replay_tail(loaded, &filter, cut0, cuts[r])
            } else {
                loaded
            };
            report.records_after += loaded.num_images();
            let old = replica.handle.swap(loaded);
            report.records_before += old.num_images();
        }
        report.messages_replayed += max_tail;

        // 4. Resume real-time indexing; events after each cut apply to the
        //    fresh index through the handle.
        self.core.resume();
        report
    }

    /// Adds one replica to a partition **online**: the replica is seeded
    /// from the newest checkpoint (or built cold from the retained log
    /// sharing the siblings' quantizers), tails the live log *without
    /// pausing ingestion* until within
    /// [`TopologyConfig::bootstrap_lag_bound`] events of the head, then —
    /// under the maintenance mutex and a brief quiesce — drains the final
    /// gap and atomically joins the serving set: its searcher node is
    /// pushed into every broker balancer that fans out to this partition,
    /// and its own indexing thread keeps it fresh from there on.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range or real-time indexing is
    /// disabled.
    pub fn bootstrap_replica(&mut self, partition: usize) -> BootstrapReport {
        assert!(
            self.config.realtime_indexing,
            "replica bootstrap tails the live log"
        );
        let row = self.core.partition(partition);
        // --- Phase A: build the replica off to the side. Ingestion and
        // serving continue untouched; only the checkpoint read takes the
        // maintenance mutex (lifecycle ops serialize on it, so a snapshot
        // mid-save is never observed).
        let filter = partition_filter(&self.partition_map, partition);
        let seed = {
            let _maintenance = self.core.maintenance.lock();
            row.checkpoints
                .as_ref()
                .and_then(|c| c.recover_shared_within(self.queue.len(), &self.config.index))
        };
        let from_snapshot = seed.is_some();
        let (index, start) = match seed {
            Some(seed) => {
                let start = seed.applied_offset.max(self.queue.base());
                let index = seed.fork();
                index.stats().applied_offset.set_max(seed.applied_offset);
                (index, start)
            }
            None => {
                // Cold path: an empty index sharing the siblings' trained
                // quantizers, fed from the queue base (still unpruned by
                // the same retention argument as `build_to_cut`).
                let sibling = row.replica(0).handle.get();
                assert_eq!(
                    self.queue.base(),
                    0,
                    "cold bootstrap needs the complete log, but checkpoint \
                     retention already reclaimed its prefix and no usable \
                     checkpoint survived"
                );
                let index = VisualIndex::with_quantizers(
                    self.config.index.clone(),
                    sibling.quantizer().clone(),
                    sibling.pq_quantizer(),
                );
                (index, 0)
            }
        };
        let replica = row.replicas().count();
        let indexer = RealtimeIndexer::for_index(
            Arc::new(index),
            Arc::clone(&self.extractor),
            Arc::clone(&self.images),
            Arc::clone(&self.feature_db),
        )
        .with_filter(filter);
        let mut consumer = self.queue.consumer_at(start);
        let mut tailed = 0u64;
        // Tail the live log (publishers keep running) until the replica is
        // within the configured lag bound of the head.
        while self.queue.len().saturating_sub(consumer.position()) > self.config.bootstrap_lag_bound
        {
            let offset = consumer.position();
            if let Some(event) = consumer.poll_now() {
                indexer.apply_at(offset, &event);
                tailed += 1;
            }
        }

        // --- Phase B: quiesce the partition, drain the remaining gap, and
        // atomically join the serving set.
        let _maintenance = self.core.maintenance.lock();
        self.core.quiesce(partition);
        loop {
            let offset = consumer.position();
            match consumer.poll_now() {
                Some(event) => {
                    indexer.apply_at(offset, &event);
                    tailed += 1;
                }
                None => break,
            }
        }
        indexer.index().flush();

        // Its indexer thread starts parked (the pause is still up).
        let joined = stand_up(
            &self.core,
            &self.config,
            (partition, replica),
            indexer,
            consumer,
            &mut self.indexer_threads,
        );
        // Join the fan-out: every broker instance of the owning group gets
        // this searcher as a new balancer target (fan-outs already in
        // flight took their snapshot; the next one covers the replica).
        let (group, slot) = {
            let map = self.partition_map.read();
            let group = map.broker_group_of(partition);
            let slot = map
                .partitions_of_group(group)
                .iter()
                .position(|&q| q == partition)
                .expect("a partition appears in its own group");
            (group, slot)
        };
        for instance in &self.broker_partitions[group] {
            instance.read()[slot].push_target(joined.node.handle());
        }
        append(&row.replicas, joined);
        self.core.resume();
        BootstrapReport {
            partition,
            replica,
            from_snapshot,
            seed_offset: start,
            tailed,
        }
    }

    /// Splits one partition in two **online** with zero lost updates: under
    /// the maintenance mutex and a quiesce of the parent's indexers, the
    /// routing table doubles (the upper-half aliases of the parent's key
    /// space move to a new sibling id), both halves are rebuilt from the
    /// parent's newest checkpoint plus the surviving log suffix — each
    /// through its own partition filter — and then the sibling's replica
    /// row joins the serving set before the parent's replicas swap down to
    /// their narrowed half. Sibling indexer threads start consuming at the
    /// build cut, so events published during the split land exactly once.
    ///
    /// On a durable topology the sibling gets its own checkpoint store and
    /// the new layout is persisted (atomically, before ingestion resumes),
    /// so a restart reconstructs the split topology instead of losing the
    /// moved keys to the parent's post-split checkpoints.
    ///
    /// A fan-out racing the final swaps may briefly see a moved key in
    /// both halves (the parent still serves its pre-split index while the
    /// sibling is already live); searches never miss a key.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from opening the sibling's checkpoint store
    /// or persisting the partition map (the split is aborted, layout
    /// unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range or real-time indexing is
    /// disabled.
    pub fn split_partition(&mut self, partition: usize) -> io::Result<SplitReport> {
        assert!(
            self.config.realtime_indexing,
            "online split requires real-time indexing"
        );
        let parent = self.core.partition(partition);
        let _maintenance = self.core.maintenance.lock();
        self.core.quiesce(partition);
        let cuts = self.quiesced_cuts(partition);
        let cut0 = cuts.iter().copied().min().unwrap_or(0);

        let sibling = self.core.rows().count();
        let candidate = {
            let mut map = self.partition_map.read().clone();
            let s = map.split(partition);
            debug_assert_eq!(s, sibling, "sibling id is the next partition id");
            map
        };

        // Build both halves from the same seed + suffix, each through its
        // own filter over the *candidate* layout — the live map stays
        // untouched until the durable artifacts below are safely on disk,
        // so the abort path leaves the running layout unchanged.
        let cand_map = Arc::new(RwLock::new(candidate.clone()));
        let (parent_half, messages_replayed, from_snapshot) =
            self.build_to_cut(partition, &partition_filter(&cand_map, partition), cut0);
        let (sibling_half, _, _) =
            self.build_to_cut(partition, &partition_filter(&cand_map, sibling), cut0);
        let parent_bytes = persist::save(&parent_half);
        let sibling_bytes = persist::save(&sibling_half);

        // Durable commit (fallible). Ordering is load-bearing:
        //
        //   1. the sibling's store gets its half checkpointed at the cut —
        //      without a manifest, a restart after earlier retention
        //      pruning would cold-replay the sibling from a log whose
        //      prefix is gone, losing every moved key below the base;
        //   2. the layout file commits the split on disk (if step 1's
        //      orphan store is all that survives a crash here, the old
        //      layout simply ignores it);
        //   3. the parent's *narrowed* half lands only after the layout —
        //      a narrowed parent checkpoint under the old two-way layout
        //      would drop the moved keys on restart. Until it lands, the
        //      pre-split full checkpoint is a safe superset.
        let mut checkpoints = None;
        if let (Some(d), Some(parent_store)) = (&self.core.durable, &parent.checkpoints) {
            let committed = (|| {
                let store = d.open_store(sibling)?;
                // Sync the log through the cut first: a crash after these
                // checkpoints could otherwise truncate the log below their
                // watermark (same hazard as checkpoint_partition).
                d.queue.sync()?;
                store.save(&sibling_half, cut0)?;
                save_partition_map(&d.options.dir, &candidate)?;
                parent_store.save(&parent_half, cut0)?;
                Ok(store)
            })();
            match committed {
                Ok(store) => checkpoints = Some(store),
                Err(e) => {
                    self.core.resume();
                    return Err(e);
                }
            }
        }
        // Commit the routing change. The parent's indexers are parked, so
        // no event is applied under a half-updated view; other partitions'
        // ownership is untouched by construction of the table doubling.
        *self.partition_map.write() = candidate;
        let parent_filter = partition_filter(&self.partition_map, partition);
        let sibling_filter = partition_filter(&self.partition_map, sibling);

        // Stand the sibling's row up (same replica count as the parent).
        // Its indexer threads start at the build cut and park until the
        // resume below, then consume [cut0, …) through the sibling filter
        // — nothing published during the split is lost.
        let mut report = SplitReport {
            partition,
            sibling,
            messages_replayed,
            parent_records: 0,
            sibling_records: 0,
            from_snapshot,
        };
        let row = Partition {
            replicas: Directory::new(),
            checkpoints,
        };
        for r in 0..parent.replicas().count() {
            let loaded = Arc::new(
                persist::load(&sibling_bytes, &self.config.index)
                    .expect("snapshot round-trip cannot fail"),
            );
            loaded.stats().applied_offset.set_max(cut0);
            report.sibling_records += loaded.num_images();
            let indexer = RealtimeIndexer::for_index(
                loaded,
                Arc::clone(&self.extractor),
                Arc::clone(&self.images),
                Arc::clone(&self.feature_db),
            )
            .with_filter(Arc::clone(&sibling_filter));
            let replica = stand_up(
                &self.core,
                &self.config,
                (sibling, r),
                indexer,
                self.queue.consumer_at(cut0),
                &mut self.indexer_threads,
            );
            append(&row.replicas, replica);
        }

        // Make the sibling serving-visible *before* narrowing the parent,
        // so no fan-out ever misses the moved keys: one balancer over the
        // sibling's replicas per broker instance of the owning group, then
        // the table row and the blenders' coverage count.
        let group = self.partition_map.read().broker_group_of(sibling);
        for (b, instance) in self.broker_partitions[group].iter().enumerate() {
            let balancer =
                searcher_balancer(&self.config, &self.metrics, &row, (group, b, sibling));
            instance.write().push(balancer);
        }
        append(&self.core.partitions, row);
        self.group_partition_counts[group].fetch_add(1, Ordering::Release);

        // Swap the parent's replicas down to their narrowed half, catching
        // up any replica whose quiesced cut ran past the build cut.
        for (r, replica) in parent.replicas().enumerate() {
            let loaded = Arc::new(
                persist::load(&parent_bytes, &self.config.index)
                    .expect("snapshot round-trip cannot fail"),
            );
            loaded.stats().applied_offset.set_max(cut0);
            let loaded = if cuts[r] > cut0 {
                self.replay_tail(loaded, &parent_filter, cut0, cuts[r])
            } else {
                loaded
            };
            report.parent_records += loaded.num_images();
            replica.handle.swap(loaded);
        }
        self.core.resume();
        Ok(report)
    }

    /// Stops real-time indexers (draining the queue), then shuts every node
    /// down, top of the stack first. Idempotent.
    pub fn shutdown(&mut self) {
        self.core.stop.store(true, Ordering::SeqCst);
        // Stop the checkpoint scheduler before the indexers: a checkpoint
        // cut mid-teardown would race the drain below (quiesce bails on
        // the stop flag, so this join is prompt).
        if let Some(t) = self.checkpoint_scheduler.take() {
            let _ = t.join();
        }
        // A paused indexer would never reach the drain loop.
        self.core.pause.store(false, Ordering::SeqCst);
        for t in self.indexer_threads.drain(..) {
            let _ = t.join();
        }
        // Push any unsynced log tail to stable storage before the nodes
        // go away (clean shutdowns lose nothing even under FsyncPolicy::Os).
        if let Some(queue) = self.durable_queue() {
            let _ = queue.sync();
        }
        for b in &self.blender_nodes {
            b.shutdown();
        }
        for g in &self.broker_nodes {
            for b in g {
                b.shutdown();
            }
        }
        for replica in self.core.rows().flat_map(Partition::replicas) {
            replica.node.shutdown();
        }
    }
}

impl Drop for SearchTopology {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jdvs_features::cost::CostModel;
    use jdvs_features::{ExtractorConfig, FeatureExtractor};
    use jdvs_storage::model::{ImageKey, ProductAttributes, ProductId};
    use jdvs_vector::rng::Xoshiro256;

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
        let dir = durable_dir("sched");
        let images = Arc::new(ImageStore::with_blob_len(64));
        {
            let mut t = durable_world_with(&dir, &images, |o| {
                *o = o.clone().with_checkpoint_exposure(5);
            });
            assert_eq!(t.checkpoint_watermark(0), None, "no checkpoint yet");
            for i in 0..30u64 {
                t.publish(add_event_for(&images, i));
            }
            t.wait_for_freshness(Duration::from_secs(30));
            // Both partitions' applied watermarks are at 30 with no
            // checkpoint — replay exposure 30 > 5 — so the scheduler must
            // checkpoint each down to exposure ≤ 5 without any
            // checkpoint_partition call from us.
            let deadline = std::time::Instant::now() + Duration::from_secs(20);
            loop {
                let caught_up = (0..2).all(|p| t.checkpoint_watermark(p).is_some_and(|w| w >= 25));
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
        // Recovery starts from the scheduled checkpoints, not offset 0.
        let mut t = durable_world(&dir, &images);
        let reports = t.recovery_reports().unwrap();
        assert!(reports.iter().all(|r| r.from_snapshot));
        assert!(reports.iter().all(|r| r.start_offset >= 25));
        assert_eq!(t.ops_report().logical_valid_images(), 30);
        t.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
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
    fn background_scheduler_compacts_hot_key_churn() {
        let dir = durable_dir("compact");
        let images = Arc::new(ImageStore::with_blob_len(64));
        {
            let mut t = durable_world_with(&dir, &images, |o| {
                *o = o.clone().with_log_compaction(0.5);
            });
            // Re-add the same 3 products over and over: most log frames
            // are superseded, pushing the blanked-frame estimate over the
            // threshold — the scheduler must compact without any operator
            // call.
            for i in 0..40u64 {
                t.publish(add_event_for(&images, i % 3));
            }
            t.wait_for_freshness(Duration::from_secs(30));
            let metrics = Arc::clone(t.durability_metrics().unwrap());
            let deadline = std::time::Instant::now() + Duration::from_secs(20);
            while metrics.compaction_events_dropped.get() == 0 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "scheduler never compacted the hot-key churn"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            assert!(metrics.log_compactions.get() >= 1);
            // Serving is unaffected: the catalog still has 3 live images.
            assert_eq!(t.ops_report().logical_valid_images(), 3);
            t.shutdown();
        }
        // Restart: replay over the tombstoned log reproduces the same
        // catalog (offsets preserved, superseded frames apply as no-ops).
        let mut t = durable_world(&dir, &images);
        assert_eq!(t.ops_report().logical_valid_images(), 3);
        let resp = t.search(SearchQuery::by_image_url("u1", 1)).unwrap();
        assert_eq!(resp.results[0].hit.url, "u1");
        t.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
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
