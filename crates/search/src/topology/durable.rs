//! The durable half of a topology built with
//! [`SearchTopology::build_durable`](super::SearchTopology::build_durable):
//! where it persists ([`DurabilityOptions`]), the log and counters it owns
//! ([`DurableParts`]), the partition-map file a split commits, and the
//! background scheduler's exposure-bounded checkpoints, which with log
//! retention are what bounds replay.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use jdvs_durability::checkpoint::{write_atomic, CheckpointConfig, CheckpointStore};
use jdvs_durability::log::{FsyncPolicy, LogConfig};
use jdvs_durability::queue::DurableQueue;
use jdvs_features::CachingExtractor;
use jdvs_metrics::DurabilityMetrics;
use jdvs_storage::{FeatureDb, ImageStore};
use jdvs_vector::Vector;

use super::{Core, SearchTopology, TopologyConfig};
use crate::partition::PartitionMap;

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
    ///
    /// [`SearchTopology::checkpoint_partition`]: super::SearchTopology::checkpoint_partition
    pub checkpoint_exposure: Option<u64>,
}

impl DurabilityOptions {
    /// Defaults: `FsyncPolicy::Always`, no group commit, 8 MiB segments,
    /// 2 snapshots kept, no background checkpoint scheduler.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            group_commit: false,
            segment_max_bytes: 8 * 1024 * 1024,
            snapshots_keep: 2,
            checkpoint_exposure: None,
        }
    }

    /// Enables the background checkpoint scheduler with the given replay
    /// exposure bound (see [`DurabilityOptions::checkpoint_exposure`]).
    pub fn with_checkpoint_exposure(mut self, events: u64) -> Self {
        self.checkpoint_exposure = Some(events);
        self
    }
}

/// The durable machinery of a topology built with
/// [`SearchTopology::build_durable`](super::SearchTopology::build_durable).
/// Each partition's checkpoint store lives in its row of the replica table.
#[derive(Debug)]
pub(super) struct DurableParts {
    /// Owns the log and the publish tee on the shared queue.
    pub(super) queue: DurableQueue,
    pub(super) metrics: Arc<DurabilityMetrics>,
    /// Root directory, snapshot retention and the scheduler's bounds.
    pub(super) options: DurabilityOptions,
}

impl DurableParts {
    /// Opens partition `p`'s checkpoint store, `<dir>/ckpt-p{p}`.
    pub(super) fn open_store(&self, partition: usize) -> io::Result<CheckpointStore> {
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
/// the routing table at runtime, and a checkpoint taken afterwards covers
/// only its partition's *narrowed* key set — so a restart must reconstruct
/// the split layout or moved keys checkpointed by the sibling would
/// silently vanish. The file's rename is the one commit point of a split
/// (see the lifecycle module).
pub(super) const PARTITION_MAP_FILE: &str = "partition-map";
pub(super) const PARTITION_MAP_MAGIC: &str = "jdvs-partition-map v1";

/// Writes `map` with [`write_atomic`] (temp file, fsync, rename, directory
/// fsync).
pub(super) fn save_partition_map(dir: &Path, map: &PartitionMap) -> io::Result<()> {
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

impl SearchTopology {
    /// Builds the full stack on top of a durable ingestion log with
    /// checkpoint recovery (the crash-safe variant of
    /// [`SearchTopology::build`]).
    ///
    /// The update queue is rebuilt from the event log in
    /// `options.dir/wal` (torn or corrupt tails are truncated, CRC-checked
    /// records replayed), every publish is teed back into the log under
    /// the configured [`FsyncPolicy`], and **before any searcher serves**,
    /// each partition replica is recovered: seeded from the newest valid
    /// checkpoint snapshot, then the log suffix past its applied offset is
    /// replayed through the real-time indexing path. See
    /// [`SearchTopology::recovery_reports`] for what startup recovery did
    /// and [`SearchTopology::checkpoint_partition`] for producing new
    /// checkpoints while serving.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from opening the log or checkpoint stores or
    /// binding the stack's listeners, and returns `InvalidData` for a
    /// partition-map file that does not decode to a layout over
    /// `config.num_broker_groups` groups.
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
        Self::assemble(
            config,
            extractor,
            images,
            feature_db,
            training,
            queue,
            layout,
            Some((durable, stores)),
        )
    }
}

/// Spawns the background checkpoint scheduler when the topology is
/// durable, indexes in real time and has an exposure bound set. It walks the
/// live table, so partitions a split appends later are covered too.
pub(super) fn spawn_scheduler(core: &Arc<Core>) -> Option<JoinHandle<()>> {
    let bound = core.durable.as_ref()?.options.checkpoint_exposure?;
    if !core.config.realtime_indexing {
        return None;
    }
    let core = Arc::clone(core);
    let scheduler = std::thread::Builder::new()
        .name("ckpt-sched".into())
        .spawn(move || {
            while !core.stop.load(Ordering::Relaxed) {
                core.run_exposure_pass(bound);
                std::thread::sleep(Duration::from_millis(5));
            }
        })
        .expect("spawning checkpoint scheduler thread");
    Some(scheduler)
}

impl Core {
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
}
