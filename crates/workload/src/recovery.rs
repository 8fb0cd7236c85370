//! Crash-injection and recovery scenarios over a durable topology.
//!
//! [`RecoveryHarness`] stands up the same stores and extraction pipeline a
//! [`World`](crate::scenario::World) uses, but routes **every** catalog
//! event through the durable ingestion log ([`SearchTopology::build_durable`])
//! instead of bulk-loading, so the log is the single source of truth and a
//! rebooted topology must reconstruct the searchable set from disk alone.
//! The harness can then
//!
//! - kill ingestion at an arbitrary point in the event stream
//!   ([`RecoveryHarness::halt`]),
//! - mutilate the log tail at arbitrary byte offsets
//!   ([`RecoveryHarness::tear_tail`], [`RecoveryHarness::corrupt_tail_byte`])
//!   to model bytes an OS crash would have lost or damaged, and
//! - prove the recovered index answers queries identically
//!   ([`RecoveryHarness::probe`] captures bit-comparable result sets).
//!
//! For the partition-lifecycle suite (rebuild / replica bootstrap / online
//! split) the harness adds **lifecycle crash hooks**: corrupting the
//! newest checkpoint snapshot ([`RecoveryHarness::corrupt_newest_checkpoint`],
//! a torn write during a rebuild's checkpoint), stranding `*.tmp` files in
//! a partition's checkpoint store ([`RecoveryHarness::strand_checkpoint_tmp`],
//! a crash between a temp write and its rename), planting an orphan
//! sibling store ([`RecoveryHarness::plant_orphan_sibling_store`], a crash
//! after an online split created its sibling store but before the layout
//! committed) — and the comparator they are all judged against:
//! [`RecoveryHarness::cold_reference_probe`] rebuilds the searchable set
//! from the full event stream alone (no checkpoints, no durable state), so
//! any recovered life can be compared bit-for-bit to a cold full rebuild
//! of the same log.
//!
//! [`run_crash_cycle`] is the one-call scenario driver used by the
//! `recovery` integration suite and the recovery experiment.

use std::fs;
use std::io;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use jdvs_core::IndexConfig;
use jdvs_durability::log::valid_len;
use jdvs_durability::FsyncPolicy;
use jdvs_features::cost::CostModel;
use jdvs_features::{CachingExtractor, ExtractorConfig, FeatureExtractor};
use jdvs_search::topology::{DurabilityOptions, SearchTopology, TopologyConfig};
use jdvs_search::{RankingPolicy, SearchQuery};
use jdvs_storage::model::ProductEvent;
use jdvs_storage::queue::MessageQueue;
use jdvs_storage::{FeatureDb, ImageStore};
use jdvs_vector::Vector;

use crate::catalog::{Catalog, CatalogConfig};

/// One probe query's answer in bit-comparable form: for each ranked hit,
/// `(url, product_id, distance bits, sales, price, praise)`. Two probes
/// are equal iff the search results are identical down to the float bits
/// of the distance.
pub type Probe = Vec<(String, u64, u32, u64, u64, u64)>;

/// Shape of a recovery scenario.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Durable-topology knobs; `dir` is the state that survives the crash.
    pub options: DurabilityOptions,
    /// Catalog size; the event stream is roughly 1.2x this (adds plus
    /// interleaved attribute updates and delists).
    pub num_products: usize,
    /// Probe queries captured per [`RecoveryHarness::probe`] call.
    pub probes: usize,
    /// Results per probe query.
    pub probe_k: usize,
    /// Master seed (catalog shape and visual clusters).
    pub seed: u64,
    /// The PQ shape: 4 subspaces at dim 16, a `rerank_factor` of 1 so the
    /// codebook alone picks each shortlist, and every probe sent
    /// compressed. `false` scans raw vectors.
    pub pq: bool,
}

impl RecoveryConfig {
    /// A small, fast scenario writing under `dir` with `FsyncPolicy::Always`.
    pub fn fast(dir: impl Into<std::path::PathBuf>) -> Self {
        let mut options = DurabilityOptions::new(dir);
        options.fsync = FsyncPolicy::Always;
        // Small segments so even short streams exercise rotation,
        // multi-segment replay and retention.
        options.segment_max_bytes = 4096;
        Self {
            options,
            num_products: 36,
            probes: 18,
            probe_k: 3,
            seed: 0x00C4_A511,
            pq: false,
        }
    }
}

/// A crash/recovery test bed: shared stores that survive "reboots" plus a
/// deterministic event stream; topologies come and go via
/// [`RecoveryHarness::boot`] / [`RecoveryHarness::halt`].
///
/// The image store and feature DB are shared across lives — they model
/// the production image storage and feature KV store, which are separate
/// durable systems; only the ingestion queue and the searcher indexes die
/// with the process.
pub struct RecoveryHarness {
    config: RecoveryConfig,
    topology_config: TopologyConfig,
    images: Arc<ImageStore>,
    feature_db: Arc<FeatureDb>,
    extractor: Arc<CachingExtractor>,
    training: Vec<Vector>,
    events: Vec<ProductEvent>,
    probe_urls: Vec<String>,
}

impl std::fmt::Debug for RecoveryHarness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveryHarness")
            .field("dir", &self.config.options.dir)
            .field("events", &self.events.len())
            .field("probes", &self.probe_urls.len())
            .finish()
    }
}

impl RecoveryHarness {
    /// Builds the bed: generates and materializes a catalog, extracts every
    /// image's features into the shared feature DB, and plans the event
    /// stream. Nothing is published yet and no topology is running.
    ///
    /// # Panics
    ///
    /// Panics on a zero-product config.
    pub fn new(config: RecoveryConfig) -> Self {
        let catalog_config = CatalogConfig {
            num_products: config.num_products,
            num_clusters: (config.num_products / 6).max(2),
            seed: config.seed,
            ..Default::default()
        };
        let mut topology_config = TopologyConfig {
            index: IndexConfig {
                dim: 16,
                num_lists: 8,
                nprobe: 8,
                initial_list_capacity: 16,
                // Hierarchical coarse quantizer on (bounded beam), so
                // every crash/recovery comparison also covers the centroid
                // graph's deterministic rebuild-on-load path.
                coarse_beam_width: 4,
                coarse_balance_factor: 1.5,
                ..Default::default()
            },
            num_partitions: 2,
            replicas_per_partition: 1,
            num_broker_groups: 1,
            broker_replicas: 1,
            num_blenders: 1,
            // Pure similarity ranking keeps probe comparisons exact.
            ranking: RankingPolicy::similarity_only(),
            ..Default::default()
        };
        topology_config.seed = config.seed;
        if config.pq {
            topology_config.index.pq_subspaces = Some(4);
            topology_config.index.rerank_factor = 1;
        }

        let images = Arc::new(ImageStore::with_blob_len(256));
        let feature_db = Arc::new(FeatureDb::new());
        let extractor = Arc::new(CachingExtractor::new(
            FeatureExtractor::new(ExtractorConfig {
                dim: topology_config.index.dim,
                ..Default::default()
            }),
            CostModel::free(),
        ));

        let catalog = Catalog::generate(&catalog_config);
        catalog.materialize(&images);

        let mut training: Vec<Vector> = Vec::new();
        for product in catalog.products() {
            for attrs in product.image_attributes() {
                let blob = images.get(attrs.image_key()).expect("materialized");
                let f = extractor.extractor().extract(&blob);
                feature_db.insert(f.clone(), attrs);
                if training.len() < topology_config.index.train_sample {
                    training.push(f);
                }
            }
        }
        assert!(!training.is_empty(), "catalog produced no features");

        let events = plan_events(&catalog);
        let probe_urls: Vec<String> = catalog
            .products()
            .iter()
            .flat_map(|p| p.urls.iter().cloned())
            .step_by(2)
            .take(config.probes)
            .collect();

        Self {
            config,
            topology_config,
            images,
            feature_db,
            extractor,
            training,
            events,
            probe_urls,
        }
    }

    /// The planned event stream (adds interleaved with updates/delists).
    pub fn events(&self) -> &[ProductEvent] {
        &self.events
    }

    /// The image store shared by every life of the topology (models the
    /// production image storage, which survives searcher crashes).
    pub fn images(&self) -> &Arc<ImageStore> {
        &self.images
    }

    /// Boots a topology over the harness's durable directory. On a fresh
    /// directory this is an empty cold start; after a [`halt`] it recovers
    /// the searchable set from checkpoints + log replay before serving.
    ///
    /// [`halt`]: RecoveryHarness::halt
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from opening the log or checkpoint stores.
    pub fn boot(&self) -> io::Result<SearchTopology> {
        SearchTopology::build_durable(
            self.topology_config.clone(),
            Arc::clone(&self.extractor),
            Arc::clone(&self.images),
            Arc::clone(&self.feature_db),
            &self.training,
            self.config.options.clone(),
        )
    }

    /// Publishes `range` of the planned stream and waits until every
    /// searcher has applied it.
    ///
    /// # Panics
    ///
    /// Panics if indexers fail to catch up within a minute.
    pub fn publish(&self, topology: &SearchTopology, range: Range<usize>) {
        for event in &self.events[range] {
            topology.publish(event.clone());
        }
        topology.wait_for_freshness(Duration::from_secs(60));
    }

    /// Kills ingestion: stops the topology's threads and drops it without
    /// checkpointing. Under [`FsyncPolicy::Always`] the on-disk log already
    /// equals the acknowledged stream at every instant, so this is
    /// byte-equivalent to a `SIGKILL`; for weaker policies pair it with
    /// [`tear_tail`](RecoveryHarness::tear_tail) to model the un-fsynced
    /// suffix an OS crash would lose.
    pub fn halt(&self, mut topology: SearchTopology) {
        topology.shutdown();
    }

    /// Cuts the newest log segment up to `bytes` short of the end of its
    /// valid frames (a torn tail; the preallocated zeros behind them go
    /// too). Returns how many bytes of frames were removed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn tear_tail(&self, bytes: u64) -> io::Result<u64> {
        let path = self.last_segment()?;
        let len = valid_len(&path)?;
        let cut = bytes.min(len);
        let file = fs::OpenOptions::new().write(true).open(&path)?;
        file.set_len(len - cut)?;
        file.sync_all()?;
        Ok(cut)
    }

    /// Flips one byte `offset_from_end` bytes before the end of the newest
    /// log segment's valid frames (tail corruption). No-op on a segment
    /// without frames.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn corrupt_tail_byte(&self, offset_from_end: u64) -> io::Result<()> {
        let path = self.last_segment()?;
        let len = valid_len(&path)? as usize;
        if len == 0 {
            return Ok(());
        }
        let mut bytes = fs::read(&path)?;
        let i = len - 1 - (offset_from_end as usize).min(len - 1);
        bytes[i] ^= 0x5A;
        fs::write(&path, &bytes)?;
        Ok(())
    }

    /// Bytes of valid frames currently in the newest log segment.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn tail_len(&self) -> io::Result<u64> {
        valid_len(&self.last_segment()?)
    }

    fn last_segment(&self) -> io::Result<std::path::PathBuf> {
        let wal = self.config.options.dir.join("wal");
        let mut segments: Vec<_> = fs::read_dir(&wal)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.extension().is_some_and(|x| x == "seg")
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("wal-"))
            })
            .collect();
        segments.sort();
        segments
            .pop()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no log segments"))
    }

    /// Directory of `partition`'s checkpoint store.
    pub fn checkpoint_dir(&self, partition: usize) -> std::path::PathBuf {
        self.config.options.dir.join(format!("ckpt-p{partition}"))
    }

    /// Flips one byte in the middle of `partition`'s newest checkpoint
    /// snapshot — a torn/damaged write from a crash during the snapshot's
    /// temp-file phase. Returns `false` if the store has no snapshot yet.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn corrupt_newest_checkpoint(&self, partition: usize) -> io::Result<bool> {
        let dir = self.checkpoint_dir(partition);
        let mut snaps: Vec<_> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
            .collect();
        snaps.sort();
        let Some(newest) = snaps.pop() else {
            return Ok(false);
        };
        let mut bytes = fs::read(&newest)?;
        if bytes.is_empty() {
            return Ok(false);
        }
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5A;
        fs::write(&newest, &bytes)?;
        Ok(true)
    }

    /// Strands half-written `*.tmp` files (a snapshot and a manifest) in
    /// `partition`'s checkpoint store — the state a crash between a temp
    /// write and its rename leaves behind. [`CheckpointStore::open`] must
    /// sweep them on the next boot.
    ///
    /// [`CheckpointStore::open`]: jdvs_durability::checkpoint::CheckpointStore::open
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn strand_checkpoint_tmp(&self, partition: usize) -> io::Result<()> {
        let dir = self.checkpoint_dir(partition);
        fs::create_dir_all(&dir)?;
        fs::write(
            dir.join("snap-99999999999999999999.ckpt.tmp"),
            b"torn snapshot",
        )?;
        fs::write(dir.join("MANIFEST.tmp"), b"torn manifest")?;
        Ok(())
    }

    /// Plants an orphan sibling checkpoint store for partition id
    /// `sibling` — the on-disk state of an online split that crashed after
    /// creating (and possibly part-seeding) its sibling's store but before
    /// the partition-map file committed the new layout. A reboot under the
    /// old layout must ignore it.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn plant_orphan_sibling_store(&self, sibling: usize) -> io::Result<()> {
        let dir = self.checkpoint_dir(sibling);
        fs::create_dir_all(&dir)?;
        fs::write(dir.join("snap-00000000000000000007.ckpt"), b"half-seeded")?;
        fs::write(dir.join("MANIFEST.tmp"), b"torn manifest")?;
        Ok(())
    }

    /// Boots a **non-durable** topology over the same stores and replays
    /// `events` of the planned stream through it from scratch — a cold
    /// full rebuild of the same log, with no checkpoints or durable state
    /// involved. The returned probes are the ground truth every recovered
    /// or lifecycle-mutated life must match bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `events` exceeds the planned stream or indexing stalls.
    pub fn cold_reference_probe(&self, events: usize) -> Vec<Probe> {
        assert!(events <= self.events.len(), "beyond the planned stream");
        self.cold_probe_of(&self.events[..events])
    }

    /// [`cold_reference_probe`](RecoveryHarness::cold_reference_probe) of
    /// an arbitrary stream — the planned one followed by events a test
    /// publishes itself, say.
    ///
    /// # Panics
    ///
    /// Panics if indexing stalls.
    pub fn cold_probe_of(&self, events: &[ProductEvent]) -> Vec<Probe> {
        let mut reference = SearchTopology::build(
            self.topology_config.clone(),
            Arc::clone(&self.extractor),
            Arc::clone(&self.images),
            Arc::clone(&self.feature_db),
            &self.training,
            MessageQueue::new(),
        );
        for event in events {
            reference.publish(event.clone());
        }
        reference.wait_for_freshness(Duration::from_secs(60));
        let probes = self.probe(&reference);
        reference.shutdown();
        probes
    }

    /// Captures the answer to every probe query in bit-comparable form.
    /// Equal return values mean the two topologies rank identically down
    /// to the float bits of each hit's distance.
    ///
    /// # Panics
    ///
    /// Panics if a probe search fails outright.
    pub fn probe(&self, topology: &SearchTopology) -> Vec<Probe> {
        let client = topology.client(Duration::from_secs(5));
        self.probe_urls
            .iter()
            .map(|url| {
                let query = SearchQuery::by_image_url(url.clone(), self.config.probe_k);
                let query = if self.config.pq {
                    query.with_compressed()
                } else {
                    query
                };
                let response = client.search(query).expect("probe search");
                response
                    .results
                    .iter()
                    .map(|r| {
                        (
                            r.hit.url.clone(),
                            r.hit.product_id.0,
                            r.hit.distance.to_bits(),
                            r.hit.sales,
                            r.hit.price,
                            r.hit.praise,
                        )
                    })
                    .collect()
            })
            .collect()
    }
}

/// Interleaves every product's `AddProduct` with deterministic attribute
/// updates of earlier products and occasional delists, so replay exercises
/// all three event kinds (and their ordering) rather than a pure add
/// stream.
fn plan_events(catalog: &Catalog) -> Vec<ProductEvent> {
    let products = catalog.products();
    let mut events = Vec::with_capacity(products.len() * 2);
    for (i, product) in products.iter().enumerate() {
        events.push(product.add_event());
        if i >= 4 && i % 3 == 0 {
            let earlier = &products[i - 4];
            events.push(ProductEvent::UpdateAttributes {
                product_id: earlier.id,
                urls: earlier.urls.clone(),
                sales: Some(1_000 + i as u64),
                price: None,
                praise: Some(17 * i as u64),
            });
        }
        if i >= 6 && i % 7 == 0 {
            events.push(products[i - 6].remove_event());
        }
    }
    events
}

/// What a [`run_crash_cycle`] scenario proved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashCycleOutcome {
    /// Events published (and acknowledged) before the kill.
    pub published: usize,
    /// Events the rebooted queue recovered from the log.
    pub recovered_events: u64,
    /// Whether any replica was seeded from a checkpoint snapshot.
    pub from_snapshot: bool,
    /// Sum of events replayed through indexers across partition replicas.
    pub replayed: u64,
    /// Probe queries compared.
    pub probes: usize,
    /// Probe queries whose post-recovery answer differed from the
    /// pre-crash answer (must be 0 under `FsyncPolicy::Always` with an
    /// intact tail).
    pub divergent_probes: usize,
}

/// Shape of one [`run_crash_cycle`] run.
#[derive(Debug, Clone)]
pub struct CrashCycleConfig {
    /// Bed shape (stores, stream, probes, durable dir).
    pub recovery: RecoveryConfig,
    /// Events published before the kill.
    pub crash_after: usize,
    /// When set, checkpoint every partition after this many events.
    pub checkpoint_at: Option<usize>,
    /// Bytes torn off the newest log segment after the kill.
    pub tear_tail_bytes: u64,
}

/// Runs a complete crash cycle: boot on a fresh directory, stream events,
/// (optionally) checkpoint, capture probe answers, kill, (optionally) tear
/// the log tail, reboot on the same directory, and compare probe answers
/// bit-for-bit.
///
/// # Errors
///
/// Propagates I/O errors from the durable machinery.
///
/// # Panics
///
/// Panics if `crash_after` exceeds the planned stream or a probe fails.
pub fn run_crash_cycle(config: CrashCycleConfig) -> io::Result<CrashCycleOutcome> {
    let harness = RecoveryHarness::new(config.recovery);
    assert!(
        config.crash_after <= harness.events().len(),
        "crash_after {} exceeds planned stream {}",
        config.crash_after,
        harness.events().len()
    );

    // First life.
    let topology = harness.boot()?;
    let checkpoint_at = config.checkpoint_at.unwrap_or(usize::MAX);
    if checkpoint_at < config.crash_after {
        harness.publish(&topology, 0..checkpoint_at);
        for p in 0..2 {
            topology.checkpoint_partition(p)?;
        }
        harness.publish(&topology, checkpoint_at..config.crash_after);
    } else {
        harness.publish(&topology, 0..config.crash_after);
    }
    let before = harness.probe(&topology);
    harness.halt(topology);
    if config.tear_tail_bytes > 0 {
        harness.tear_tail(config.tear_tail_bytes)?;
    }

    // Second life.
    let topology = harness.boot()?;
    let recovered_events = topology
        .durable_queue()
        .expect("durable topology")
        .recovered_events();
    let reports = topology.recovery_reports().expect("durable topology");
    let from_snapshot = reports.iter().any(|r| r.from_snapshot);
    let replayed = reports.iter().map(|r| r.replayed).sum();
    let after = harness.probe(&topology);
    harness.halt(topology);

    let divergent_probes = before.iter().zip(&after).filter(|(b, a)| b != a).count();
    Ok(CrashCycleOutcome {
        published: config.crash_after,
        recovered_events,
        from_snapshot,
        replayed,
        probes: before.len(),
        divergent_probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "jdvs-wl-recovery-{}-{}-{}",
            tag,
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn planned_stream_mixes_all_event_kinds_deterministically() {
        let dir = scratch_dir("plan");
        let a = RecoveryHarness::new(RecoveryConfig::fast(&dir));
        let b = RecoveryHarness::new(RecoveryConfig::fast(&dir));
        assert_eq!(a.events(), b.events());
        let kinds = |h: &RecoveryHarness| {
            let mut adds = 0;
            let mut updates = 0;
            let mut removes = 0;
            for e in h.events() {
                match e {
                    ProductEvent::AddProduct { .. } => adds += 1,
                    ProductEvent::UpdateAttributes { .. } => updates += 1,
                    ProductEvent::RemoveProduct { .. } => removes += 1,
                }
            }
            (adds, updates, removes)
        };
        let (adds, updates, removes) = kinds(&a);
        assert_eq!(adds, 36);
        assert!(updates > 0, "stream has no updates");
        assert!(removes > 0, "stream has no removes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_crash_cycle_is_lossless() {
        let dir = scratch_dir("cycle");
        let mut recovery = RecoveryConfig::fast(&dir);
        recovery.num_products = 16;
        recovery.probes = 8;
        let outcome = run_crash_cycle(CrashCycleConfig {
            recovery,
            crash_after: 18,
            checkpoint_at: None,
            tear_tail_bytes: 0,
        })
        .expect("cycle runs");
        assert_eq!(outcome.recovered_events, 18);
        assert!(!outcome.from_snapshot);
        assert_eq!(outcome.replayed, 18 * 2, "both partitions replay the log");
        assert_eq!(outcome.divergent_probes, 0, "recovery must be exact");
        assert_eq!(outcome.probes, 8);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
