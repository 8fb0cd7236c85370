//! The partition lifecycle: startup recovery and the four maintenance
//! operations — checkpoint, rebuild, replica bootstrap, split — as short
//! plans over one set of steps: [`Core::quiesce`] (a guard that holds one
//! row still and resumes it on every exit path, a panic included),
//! [`Core::seed`] with [`Seed::replicas`], [`Core::build_to_cut`],
//! [`Core::install`], [`Core::commit_layout`] (whose partition-map rename
//! is a split's one commit point) and [`stand_up`], with
//! [`RealtimeIndexer::consume`] as the one apply loop.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{MutexGuard, RwLock};

use jdvs_core::full::{FullIndexBuilder, KeyFilter};
use jdvs_core::realtime::RealtimeIndexer;
use jdvs_core::{persist, ImageId, VisualIndex};
use jdvs_durability::checkpoint::{CheckpointStore, SharedCheckpoint};
use jdvs_durability::recovery::{recover_partition_seeded, RecoveryReport};
use jdvs_storage::model::ProductEvent;
use jdvs_storage::queue::{Consumer, Offset};

use super::durable::save_partition_map;
use super::{append, Core, Partition, Replica, SearchTopology};
use crate::partition::PartitionMap;

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

/// How long an idle indexer thread waits for an event before it flushes.
const POLL_WAIT: Duration = Duration::from_millis(10);

/// One row's pause flag, and the epoch (bumped at each raise) its indexer
/// threads echo into their `parked` counters once at rest.
#[derive(Debug, Default)]
pub(super) struct Pause {
    raised: AtomicBool,
    epoch: AtomicU64,
}

impl Pause {
    /// Raises the flag and returns the epoch indexer threads must echo.
    fn raise(&self) -> u64 {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        self.raised.store(true, Ordering::Release);
        epoch
    }

    fn resume(&self) {
        self.raised.store(false, Ordering::Release);
    }

    fn is_raised(&self) -> bool {
        self.raised.load(Ordering::Acquire)
    }
}

/// A row held still for a lifecycle plan; see [`Core::quiesce`].
pub(super) struct Quiesced<'a> {
    row: &'a Partition,
    /// The pauses lifted on drop: the row's and any [`Quiesced::hold`]s.
    held: Vec<Arc<Pause>>,
    /// Released after the pauses are lifted (fields drop after `drop`).
    _maintenance: MutexGuard<'a, ()>,
}

impl Quiesced<'_> {
    /// The replicas' parked consume positions — the plan's cuts (they may
    /// differ: publishers are not blocked).
    fn cuts(&self) -> Vec<u64> {
        self.row
            .replicas()
            .map(|r| r.processed.load(Ordering::Acquire))
            .collect()
    }

    /// Holds `row` — one a split has not appended yet — paused as well: its
    /// indexer threads park from their first poll until this guard drops.
    fn hold(&mut self, row: &Partition) {
        row.pause.raise();
        self.held.push(Arc::clone(&row.pause));
    }
}

impl Drop for Quiesced<'_> {
    fn drop(&mut self) {
        for pause in &self.held {
            pause.resume();
        }
    }
}

/// The state a plan starts a row from: the newest checkpoint at or below a
/// bound, or — without one — nothing, fed from offset 0.
pub(super) struct Seed {
    checkpoint: Option<SharedCheckpoint>,
    /// First log offset the seed has not applied.
    start: u64,
}

impl Seed {
    /// Watermark of the seeding checkpoint; `None` for a cold seed.
    fn watermark(&self) -> Option<u64> {
        self.checkpoint.as_ref().map(|c| c.applied_offset)
    }

    /// One index per replica of a row owning `filter`'s keys: the index the
    /// checkpoint decoded to during validation, then in-memory forks, each
    /// stamped with the watermark and **narrowed** — a checkpoint taken
    /// under an older layout (a parent's, before its split) holds keys the
    /// live layout assigns elsewhere, which would be served twice and miss
    /// their later deletes. A cold seed calls `cold` per replica.
    fn replicas(
        self,
        n: usize,
        filter: &KeyFilter,
        cold: impl Fn() -> VisualIndex,
    ) -> Vec<VisualIndex> {
        let Some(checkpoint) = self.checkpoint else {
            return (0..n).map(|_| cold()).collect();
        };
        let mut replicas: Vec<VisualIndex> = (1..n).map(|_| checkpoint.fork()).collect();
        replicas.insert(0, checkpoint.index);
        let first = &replicas[0];
        let foreign: Vec<_> = (0..first.num_images() as u32)
            .map(ImageId)
            .filter(|&id| first.is_valid(id))
            .filter_map(|id| first.attributes(id).ok())
            .filter(|attrs| !filter(attrs.image_key()))
            .collect();
        for index in &replicas {
            for attrs in &foreign {
                index
                    .invalidate(attrs.image_key(), &attrs.url)
                    .expect("a seed's own record");
            }
            // Snapshots do not carry the applied-offset watermark.
            let watermark = checkpoint.applied_offset;
            index.stats().applied_offset.set_max(watermark);
        }
        replicas
    }
}

/// An ownership predicate over the **live** partition layout: when a split
/// rewrites the shared map, every existing filter narrows (or widens)
/// automatically — no indexer or builder holds a stale layout.
pub(super) fn partition_filter(map: &Arc<RwLock<PartitionMap>>, partition: usize) -> KeyFilter {
    let map = Arc::clone(map);
    Arc::new(move |key| map.read().partition_of(key) == partition)
}

impl Core {
    /// The quiesce step: takes the maintenance mutex, raises `partition`'s
    /// pause and waits until each of the row's indexer threads has echoed
    /// the new epoch after its in-flight apply. Other rows keep indexing.
    /// Bails early on stop so a call racing teardown cannot hang.
    pub(super) fn quiesce(&self, partition: usize) -> Quiesced<'_> {
        let maintenance = self.maintenance.lock();
        let row = self.partition(partition);
        let epoch = row.pause.raise();
        for replica in row.replicas() {
            while replica.parked.load(Ordering::Acquire) < epoch
                && !self.stop.load(Ordering::Relaxed)
            {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        Quiesced {
            row,
            held: vec![Arc::clone(&row.pause)],
            _maintenance: maintenance,
        }
    }

    /// The seed step: the newest checkpoint of `row` at or below `bound`,
    /// else a cold seed from offset 0 — legal only while the log holds its
    /// prefix. That cannot fail spuriously: retention prunes only below the
    /// *minimum* checkpoint watermark across partitions, and every bound a
    /// plan passes (an applied cut, the queue head) is at or above it.
    pub(super) fn seed(&self, row: &Partition, bound: u64) -> Seed {
        let checkpoint = row
            .checkpoints
            .as_ref()
            .and_then(|c| c.recover_shared_within(bound, &self.config.index));
        let start = match &checkpoint {
            Some(c) => c.applied_offset.max(self.queue.base()),
            None => {
                assert_eq!(
                    self.queue.base(),
                    0,
                    "a cold seed needs the complete log, but checkpoint \
                     retention already reclaimed its prefix and no usable \
                     checkpoint at or below {bound} survived"
                );
                0
            }
        };
        Seed { checkpoint, start }
    }

    /// A real-time indexer over `index` owning `filter`'s keys.
    fn indexer(&self, index: Arc<VisualIndex>, filter: &KeyFilter) -> RealtimeIndexer {
        RealtimeIndexer::for_index(
            index,
            Arc::clone(&self.extractor),
            Arc::clone(&self.images),
            Arc::clone(&self.feature_db),
        )
        .with_filter(Arc::clone(filter))
    }

    /// An empty index around the codebook `row` serves (replica 0's coarse
    /// quantizer and PQ codebook): the one `assemble` trained, so no plan
    /// trains and every row of the topology shares it.
    fn empty_index(&self, row: &Partition) -> VisualIndex {
        let peer = row.replica(0).handle.get();
        let (quantizer, pq) = (peer.quantizer().clone(), peer.pq_quantizer());
        VisualIndex::with_quantizers(self.config.index.clone(), quantizer, pq)
    }

    /// A fresh index of `[0, cut)` scoped to `filter`: `seed` (at or below
    /// `cut`) plus the surviving suffix through [`FullIndexBuilder`], which
    /// narrows the seed and drops deleted images, into an
    /// [`empty_index`](Core::empty_index) of `row`. Also returns the events
    /// replayed.
    fn build_to_cut(
        &self,
        row: &Partition,
        seed: &Seed,
        filter: &KeyFilter,
        cut: u64,
    ) -> (VisualIndex, u64) {
        let builder = FullIndexBuilder::new(
            Arc::clone(&self.extractor),
            Arc::clone(&self.images),
            Arc::clone(&self.feature_db),
        )
        .with_filter(Arc::clone(filter));
        let suffix = self
            .queue
            .read_range(seed.start, (cut - seed.start) as usize);
        let empty = self.empty_index(row);
        let (fresh, build) = match &seed.checkpoint {
            Some(c) => builder.build_seeded(empty, &c.index, &suffix),
            None => builder.build(empty, &suffix),
        };
        (fresh, build.messages_replayed)
    }

    /// The install step: `bytes`, an index file built at `min(cuts)`,
    /// decoded once per replica, stamped with that cut (snapshots do not
    /// carry it; the next checkpoint would record 0) and caught up on the
    /// replica's private tail `[min(cuts), cut_r)`. Lazy, so each copy is
    /// swapped in or stood up before the next decodes.
    fn install<'a>(
        &'a self,
        bytes: &'a [u8],
        cuts: &'a [u64],
        filter: &'a KeyFilter,
    ) -> impl Iterator<Item = Arc<VisualIndex>> + 'a {
        let cut0 = cuts.iter().copied().min().unwrap_or(0);
        cuts.iter().map(move |&cut| {
            let index = Arc::new(
                persist::load(bytes, &self.config.index).expect("snapshot round-trip cannot fail"),
            );
            index.stats().applied_offset.set_max(cut0);
            let mut tail = self.queue.consumer_at(cut0);
            self.indexer(Arc::clone(&index), filter)
                .consume(&mut tail, cut, Duration::ZERO);
            index.flush();
            index
        })
    }

    /// The commit step of a split: sync the log, checkpoint the sibling's
    /// `half` at the cut in its new store (a restart after retention could
    /// not cold-replay it), then write the partition-map file. Its rename is
    /// **the** commit point: an error before it aborts the split, layout
    /// unchanged (the old layout ignores an orphan store); nothing after it
    /// can fail. The parent needs no narrowed checkpoint: a restart narrows
    /// its older seed. Returns the sibling's store (`None` if not durable).
    fn commit_layout(
        &self,
        layout: &PartitionMap,
        sibling: usize,
        half: &VisualIndex,
        cut: u64,
    ) -> io::Result<Option<CheckpointStore>> {
        let Some(d) = &self.durable else {
            return Ok(None);
        };
        let store = d.open_store(sibling)?;
        d.queue.sync()?;
        store.save(half, cut)?;
        save_partition_map(&d.options.dir, layout)?;
        Ok(Some(store))
    }

    /// The checkpoint plan; see [`SearchTopology::checkpoint_partition`].
    pub(super) fn checkpoint_partition(&self, partition: usize) -> io::Result<CheckpointReport> {
        let row = self.partition(partition);
        let (Some(durable), Some(store)) = (&self.durable, &row.checkpoints) else {
            panic!("checkpoint_partition requires build_durable");
        };
        let _quiesced = self.quiesce(partition);
        let index = row.replica(0).handle.get();
        index.flush();
        let applied_offset = index.stats().applied_offset.get();
        // Sync the log through the watermark first: under EveryN/Os a crash
        // right after this checkpoint could otherwise truncate the log
        // below the watermark, and recovery seeded at it would skip the
        // events re-published at those offsets forever.
        durable.queue.sync()?;
        let bytes_before = durable.metrics.checkpoint_bytes.get();
        store.save(&index, applied_offset)?;

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
}

/// The startup plan of row `p`: durable, each replica is recovered *before*
/// any query is served — seeded at the queue head, the log suffix replayed —
/// else it starts empty at the queue base; then it is stood up and the row
/// appended. Returns the recovery reports.
pub(super) fn start_row(
    core: &Arc<Core>,
    p: usize,
    checkpoints: Option<CheckpointStore>,
    cold: impl Fn() -> VisualIndex,
    threads: &mut Vec<JoinHandle<()>>,
) -> Vec<RecoveryReport> {
    let (queue, row) = (&core.queue, Partition::new(checkpoints));
    let filter = partition_filter(&core.layout, p);
    let seed = match &core.durable {
        Some(_) => core.seed(&row, queue.len()),
        None => Seed {
            checkpoint: None,
            start: queue.base(),
        },
    };
    let (mut resume_at, watermark) = (seed.start, seed.watermark());
    let replicas = seed.replicas(core.config.replicas_per_partition, &filter, cold);
    let mut reports = Vec::new();
    for (r, index) in replicas.into_iter().enumerate() {
        let indexer = core.indexer(Arc::new(index), &filter);
        if let Some(d) = &core.durable {
            let report = recover_partition_seeded(&indexer, watermark, queue, &d.metrics);
            resume_at = report.start_offset + report.replayed;
            reports.push(report);
        }
        let consumer = queue.consumer_at(resume_at);
        append(
            &row.replicas,
            stand_up(core, &row, (p, r), indexer, consumer, threads),
        );
    }
    append(&core.partitions, row);
    reports
}

/// Stands up replica `r` of row `p` over `indexer`'s index: its record
/// and, with real-time indexing on, the indexer thread (pushed onto
/// `threads`) that applies one event at a time from `consumer`'s position
/// on, watches only its own row's pause — handed over like `parked`, since
/// a split's sibling threads start before their row is appended — and
/// drains the backlog on stop. Serving it is the stack's business.
pub(super) fn stand_up(
    core: &Arc<Core>,
    row: &Partition,
    (p, r): (usize, usize),
    indexer: RealtimeIndexer,
    mut consumer: Consumer<ProductEvent>,
    threads: &mut Vec<JoinHandle<()>>,
) -> Replica {
    let processed = Arc::new(AtomicU64::new(consumer.position()));
    let parked = Arc::new(AtomicU64::new(0));
    let replica = Replica {
        handle: Arc::clone(indexer.handle()),
        processed: Arc::clone(&processed),
        parked: Arc::clone(&parked),
    };
    if !core.config.realtime_indexing {
        return replica;
    }
    let core = Arc::clone(core);
    let pause = Arc::clone(&row.pause);
    let thread = std::thread::Builder::new()
        .name(format!("rtidx-{p}-{r}"))
        .spawn(move || {
            let stopping = || core.stop.load(Ordering::Relaxed);
            while !stopping() {
                if pause.is_raised() {
                    // Positive quiesce handshake: echo the pause epoch only
                    // here, after any in-flight apply completed — the
                    // coordinator waits for *its* epoch, so a stale park
                    // from an earlier pause can't satisfy it.
                    while pause.is_raised() && !stopping() {
                        parked.store(pause.epoch.load(Ordering::Acquire), Ordering::Release);
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    continue;
                }
                let next = consumer.position() + 1;
                let applied = indexer.consume(&mut consumer, next, POLL_WAIT);
                processed.store(consumer.position(), Ordering::Release);
                if applied.watermark.is_none() {
                    indexer.index().flush();
                }
            }
            // Drain the backlog for deterministic shutdown (ignoring the
            // pause: we are exiting).
            indexer.consume(&mut consumer, Offset::MAX, Duration::ZERO);
            processed.store(consumer.position(), Ordering::Release);
            indexer.index().flush();
        })
        .expect("spawning real-time indexer thread");
    threads.push(thread);
    replica
}

impl SearchTopology {
    /// Checkpoints one partition **online**: its real-time consumption is
    /// briefly paused at a quiesced cut (each indexer thread positively
    /// acknowledges the pause), the log is synced so the watermark never
    /// exceeds the durable log end, replica 0's index is snapshotted
    /// atomically (temp file + rename + manifest) at its applied-offset
    /// watermark, and log segments wholly below the *minimum* checkpoint
    /// watermark across all partitions are reclaimed (the log is shared);
    /// then indexing resumes. Other partitions keep indexing throughout;
    /// maintenance calls serialize on an internal mutex.
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
            self.core.config.realtime_indexing,
            "checkpointing needs the real-time indexers' watermarks"
        );
        self.core.checkpoint_partition(partition)
    }

    /// Performs the weekly full rebuild of one partition **online**
    /// (Figure 2): the partition's real-time indexing is briefly paused at
    /// a quiesced cut point, its state up to the cut is reconstructed into
    /// a fresh index (logically-deleted images are physically dropped), the
    /// index is shipped through the snapshot format and hot-swapped, and
    /// indexing resumes — all while searches keep being served (by the old
    /// index until the instant of the swap).
    ///
    /// On a durable topology the rebuild is **checkpoint-seeded**: the
    /// newest valid snapshot at or below the cut seeds the catalog state
    /// and only the surviving log suffix `[watermark, cut)` is replayed —
    /// so rebuilds keep working after checkpoint retention pruned the log
    /// prefix. One index is built at the minimum cut and decoded once per
    /// replica from the same snapshot bytes; a replica whose own cut ran
    /// further catches up through the live indexing path before its swap.
    ///
    /// A partition whose replayed state contains no valid image swaps in an
    /// empty index (`records_after: 0`). A panic still resumes indexing.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range, real-time indexing is
    /// disabled, or (non-durable topologies only) the log prefix was
    /// externally pruned.
    pub fn rebuild_partition(&self, partition: usize) -> RebuildReport {
        let core = &self.core;
        assert!(
            core.config.realtime_indexing,
            "online rebuild requires real-time indexing (otherwise just build a world)"
        );
        let row = core.partition(partition);
        let quiesced = core.quiesce(partition);
        let cuts = quiesced.cuts();
        let cut0 = cuts.iter().copied().min().unwrap_or(0);
        let filter = partition_filter(&core.layout, partition);
        // Build once at the minimum cut and ship it through the on-disk
        // format, as production distributes index files to searcher nodes.
        let (bytes, replayed) = {
            let (fresh, replayed) = core.build_to_cut(row, &core.seed(row, cut0), &filter, cut0);
            (persist::save(&fresh), replayed)
        };
        let mut report = RebuildReport {
            partition,
            messages_replayed: replayed + cuts.iter().max().map_or(0, |&cut| cut - cut0),
            records_before: 0,
            records_after: 0,
            snapshot_bytes: bytes.len(),
        };
        for (replica, index) in row.replicas().zip(core.install(&bytes, &cuts, &filter)) {
            report.records_after += index.num_images();
            report.records_before += replica.handle.swap(index).num_images();
        }
        report
    }

    /// Adds one replica to a partition **online**: the replica is seeded
    /// from the newest checkpoint (or built cold from the retained log
    /// sharing the siblings' quantizers), tails the live log *without
    /// pausing ingestion* until within
    /// [`TopologyConfig::bootstrap_lag_bound`](super::TopologyConfig::bootstrap_lag_bound)
    /// events of the head, then — under a brief quiesce of the partition —
    /// drains the final gap and atomically joins the serving set: the
    /// topology's stack gets a searcher listener for it, pushed into every
    /// broker balancer that fans out to this partition, and its own
    /// indexing thread keeps it fresh from there on.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range, real-time indexing is
    /// disabled, or the new listener cannot be bound.
    pub fn bootstrap_replica(&mut self, partition: usize) -> BootstrapReport {
        let core = &self.core;
        assert!(
            core.config.realtime_indexing,
            "replica bootstrap tails the live log"
        );
        let row = core.partition(partition);
        let filter = partition_filter(&core.layout, partition);
        // --- Build beside, ingestion and serving untouched. Only the
        // checkpoint read takes the maintenance mutex, so a snapshot
        // mid-save is never observed.
        let seed = {
            let _maintenance = core.maintenance.lock();
            core.seed(row, core.queue.len())
        };
        let (seed_offset, from_snapshot) = (seed.start, seed.watermark().is_some());
        let index = seed
            .replicas(1, &filter, || core.empty_index(row))
            .remove(0);
        let indexer = core.indexer(Arc::new(index), &filter);
        let mut consumer = core.queue.consumer_at(seed_offset);
        // Tail the live log until within the lag bound of the head.
        loop {
            let target = core
                .queue
                .len()
                .saturating_sub(core.config.bootstrap_lag_bound);
            if consumer.position() >= target {
                break;
            }
            indexer.consume(&mut consumer, target, Duration::ZERO);
        }

        // --- Quiesce the partition, drain the remaining gap, and join the
        // serving set; the new indexer thread starts parked.
        let _quiesced = core.quiesce(partition);
        indexer.consume(&mut consumer, Offset::MAX, Duration::ZERO);
        indexer.index().flush();
        let tailed = consumer.position() - seed_offset;
        let replica = row.replicas().count();
        let joined = stand_up(
            core,
            row,
            (partition, replica),
            indexer,
            consumer,
            &mut self.indexer_threads,
        );
        // Every broker instance of the owning group gets the new listener
        // as a balancer target (fan-outs already in flight took their
        // snapshot; the next one covers the replica).
        append(&row.replicas, joined);
        let layout = core.layout.read().clone();
        self.net
            .grow(&layout, partition, &row.handles())
            .expect("binding a loopback listener");
        BootstrapReport {
            partition,
            replica,
            from_snapshot,
            seed_offset,
            tailed,
        }
    }

    /// Splits one partition in two **online** with zero lost updates: under
    /// a quiesce of the parent's indexers, the routing table doubles (the
    /// upper-half aliases of the parent's key space move to a new sibling
    /// id), both halves are rebuilt from the parent's newest checkpoint
    /// plus the surviving log suffix — each through its own partition
    /// filter — and then the sibling's replica row joins the serving set
    /// before the parent's replicas swap down to their narrowed half.
    /// Sibling indexer threads start consuming at the build cut, so events
    /// published during the split land exactly once.
    ///
    /// On a durable topology the sibling gets its own checkpoint store,
    /// seeded with its half, and the new layout is persisted; the rename of
    /// that file is the commit point, after which the split completes.
    ///
    /// A fan-out racing the final swaps may briefly see a moved key in
    /// both halves (the parent still serves its pre-split index while the
    /// sibling is already live); searches never miss a key.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from opening or seeding the sibling's
    /// checkpoint store or persisting the partition map (the split is
    /// aborted, layout unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range, real-time indexing is
    /// disabled, or the sibling's listeners cannot be bound.
    pub fn split_partition(&mut self, partition: usize) -> io::Result<SplitReport> {
        let core = &self.core;
        assert!(
            core.config.realtime_indexing,
            "online split requires real-time indexing"
        );
        let parent = core.partition(partition);
        let mut quiesced = core.quiesce(partition);
        let cuts = quiesced.cuts();
        let cut0 = cuts.iter().copied().min().unwrap_or(0);
        let mut candidate = core.layout.read().clone();
        let sibling = candidate.split(partition);
        debug_assert_eq!(sibling, core.rows().count(), "the next row id");

        // Both halves from one seed + suffix, each through its own filter
        // over the *candidate* layout: the live map stays untouched until
        // the layout commits, so an abort leaves the running layout as is.
        let candidate_map = Arc::new(RwLock::new(candidate.clone()));
        let seed = core.seed(parent, cut0);
        let from_snapshot = seed.watermark().is_some();
        let [(parent_half, messages_replayed), (sibling_half, _)] = [partition, sibling]
            .map(|p| core.build_to_cut(parent, &seed, &partition_filter(&candidate_map, p), cut0));
        drop(seed);
        let checkpoints = core.commit_layout(&candidate, sibling, &sibling_half, cut0)?;

        // Committed. The parent's indexers are parked, so no event is
        // applied under a half-updated view; other partitions' ownership
        // is untouched by construction of the table doubling.
        *core.layout.write() = candidate;
        let parent_filter = partition_filter(&core.layout, partition);
        let sibling_filter = partition_filter(&core.layout, sibling);
        let mut report = SplitReport {
            partition,
            sibling,
            messages_replayed,
            parent_records: 0,
            sibling_records: 0,
            from_snapshot,
        };

        // The sibling's row is born paused under this quiesce. Its indexer
        // threads start at the build cut and consume [cut0, …) through the
        // sibling filter once the guard drops — nothing published during
        // the split is lost.
        let row = Partition::new(checkpoints);
        quiesced.hold(&row);
        let sibling_bytes = persist::save(&sibling_half);
        drop(sibling_half);
        let sibling_cuts = vec![cut0; cuts.len()];
        for (r, index) in core
            .install(&sibling_bytes, &sibling_cuts, &sibling_filter)
            .enumerate()
        {
            report.sibling_records += index.num_images();
            let replica = stand_up(
                core,
                &row,
                (sibling, r),
                core.indexer(index, &sibling_filter),
                core.queue.consumer_at(cut0),
                &mut self.indexer_threads,
            );
            append(&row.replicas, replica);
        }

        // Make the sibling serving-visible *before* narrowing the parent,
        // so no fan-out ever misses the moved keys: its listeners, one
        // balancer over them per broker instance of the owning group, then
        // the table row and the blenders' coverage count.
        let layout = core.layout.read().clone();
        self.net
            .grow(&layout, sibling, &row.handles())
            .expect("binding a loopback listener");
        append(&core.partitions, row);
        let group = layout.broker_group_of(sibling);
        core.group_partition_counts[group].fetch_add(1, Ordering::Release);

        // Swap the parent's replicas down to their narrowed half.
        let parent_bytes = persist::save(&parent_half);
        for (replica, index) in
            parent
                .replicas()
                .zip(core.install(&parent_bytes, &cuts, &parent_filter))
        {
            report.parent_records += index.num_images();
            replica.handle.swap(index);
        }
        Ok(report)
    }
}
