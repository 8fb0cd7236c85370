//! One workload's world: stores, indexes and the three TCP tiers, built from
//! the generated inputs through the program's public API, plus the oracle
//! that says what each query must answer.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use jdvs_core::search;
use jdvs_core::{FilterSpec, ImageId, IndexConfig, VisualIndex};
use jdvs_features::cost::CostModel;
use jdvs_features::{CachingExtractor, ExtractorConfig, FeatureExtractor};
use jdvs_net::LatencyModel;
use jdvs_search::protocol::SearchResponse;
use jdvs_search::serving::NetClient;
use jdvs_search::topology::{DurabilityOptions, SearchTopology, TopologyConfig};
use jdvs_search::{NetServing, NetServingConfig, RankingPolicy, SearchQuery};
use jdvs_storage::image_store::ImageBlob;
use jdvs_storage::model::{ImageKey, ProductAttributes};
use jdvs_storage::{FeatureDb, ImageStore, MessageQueue};
use jdvs_vector::{Neighbor, Vector};

use crate::inputs::{Inputs, Shape, BLOB_LEN};

pub const DIM: usize = 64;
pub const K: usize = 10;
/// Candidates re-ranked per result on the compressed path.
pub const RERANK: usize = 8;
const WARMUP_QUERIES: usize = 200;
/// Pool queries whose oracle is the program's sequential reference search.
const REFERENCE_QUERIES: usize = 32;
/// Extractor noise per dimension, against unit-variance cluster centres:
/// clusters overlap their neighbours, as real image features do, so that
/// probing fewer lists or re-ranking fewer candidates costs recall (with the
/// extractor's default of 0.15 every configuration scores 1.0).
const JITTER: f32 = 1.0;

/// What distinguishes one workload's world from another's.
#[derive(Debug, Clone)]
pub struct Spec {
    pub shape: Shape,
    pub partitions: usize,
    pub broker_groups: usize,
    pub blenders: usize,
    pub lists: usize,
    pub nprobe: usize,
    /// 4-bit PQ (m = 16, rerank 8) queried on the compressed path; otherwise
    /// raw vectors on the `ann_search` path.
    pub pq: bool,
    /// Queries carry an image URL (the blender fetches and extracts) rather
    /// than pre-extracted features.
    pub by_url: bool,
    /// `build_durable` with `DurabilityOptions::new` defaults (fsync always).
    pub durable: bool,
    /// `nprobe_escalation` for filtered queries (0: off).
    pub escalation: usize,
    /// Vectors the quantizers train on.
    pub train_sample: usize,
}

impl Spec {
    fn topology(&self) -> TopologyConfig {
        TopologyConfig {
            index: IndexConfig {
                dim: DIM,
                num_lists: self.lists,
                nprobe: self.nprobe,
                pq_subspaces: self.pq.then_some(16),
                pq_bits: 4,
                rerank_factor: RERANK,
                nprobe_escalation: self.escalation,
                train_sample: self.train_sample,
                ..IndexConfig::default()
            },
            num_partitions: self.partitions,
            replicas_per_partition: 1,
            num_broker_groups: self.broker_groups,
            broker_replicas: 1,
            num_blenders: self.blenders,
            latency: LatencyModel::Zero,
            // Pure similarity, so a TCP answer can be held against a
            // distance-ordered oracle and against brute force.
            ranking: RankingPolicy::similarity_only(),
            ..TopologyConfig::default()
        }
    }
}

/// What a query must answer: (distance bits, image key) per result, in order.
pub type Answer = Vec<(u32, u64)>;

pub fn answer_of(response: &SearchResponse) -> Answer {
    response
        .results
        .iter()
        .map(|r| (r.hit.distance.to_bits(), ImageKey::from_url(&r.hit.url).0))
        .collect()
}

/// The stores that outlive a topology (a durable world reopens over them).
struct Stores {
    images: Arc<ImageStore>,
    feature_db: Arc<FeatureDb>,
    extractor: Arc<CachingExtractor>,
}

pub struct World {
    pub spec: Spec,
    pub topology: SearchTopology,
    net: Option<NetServing>,
    stores: Stores,
    /// Extracted features of every pool query, for the oracle and for
    /// queries sent by features.
    pub query_features: Vec<Vec<f32>>,
    training: Vec<Vector>,
    dir: Option<PathBuf>,
}

pub fn blob(bytes: &[u8], cluster: u64) -> ImageBlob {
    ImageBlob {
        bytes: bytes.to_vec().into(),
        visual_seed: cluster,
    }
}

/// This process's scratch root, inside the checkout (the benchmark may write
/// nowhere else).
fn scratch_root() -> PathBuf {
    PathBuf::from(format!(".perf-tmp/{}", std::process::id()))
}

/// A fresh directory under the scratch root.
pub fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = scratch_root().join(format!("{tag}-{n}"));
    std::fs::create_dir_all(&dir).expect("creating the benchmark's scratch directory");
    dir
}

/// Removes everything this process wrote. Only at the very end of a run:
/// on ext4 mounted with `discard`, deleting a world's checkpoints and log
/// makes the next journal commit trim the freed blocks, and every fsync
/// behind that commit stalls for up to seconds — inside a later world's
/// timed phases if worlds were removed as they are torn down.
pub fn remove_scratch() {
    let _ = std::fs::remove_dir_all(scratch_root());
    // The parent too, unless another run is using it.
    let _ = std::fs::remove_dir(".perf-tmp");
}

impl World {
    /// Builds the world and brings the tiers up: what `setup_s` times.
    pub fn build(spec: &Spec, inputs: &Inputs) -> World {
        let stores = Stores {
            images: Arc::new(ImageStore::with_blob_len(BLOB_LEN)),
            feature_db: Arc::new(FeatureDb::new()),
            extractor: Arc::new(CachingExtractor::new(
                FeatureExtractor::new(ExtractorConfig {
                    dim: DIM,
                    jitter: JITTER,
                    ..ExtractorConfig::default()
                }),
                CostModel::free(),
            )),
        };

        // The offline full-index state: every catalog image extracted once
        // and recorded in the feature database.
        let config = spec.topology();
        let mut records: Vec<(Vector, ProductAttributes)> =
            Vec::with_capacity(inputs.catalog_images());
        for p in &inputs.catalog {
            for (image, attrs) in p
                .images
                .iter()
                .zip(p.attributes(p.sales, p.price, p.praise))
            {
                let features = stores
                    .extractor
                    .extractor()
                    .extract(&blob(&image.bytes, p.cluster));
                stores.feature_db.insert(features.clone(), attrs.clone());
                records.push((features, attrs));
            }
        }
        let training: Vec<Vector> = records
            .iter()
            .take(config.index.train_sample)
            .map(|(f, _)| f.clone())
            .collect();
        // Blobs the running system will have to fetch: products the event
        // stream introduces, and URL queries.
        for p in &inputs.fresh {
            for image in &p.images {
                stores
                    .images
                    .put_raw(&image.url, image.bytes.clone().into(), p.cluster);
            }
        }
        let query_features = inputs
            .queries
            .iter()
            .map(|q| {
                if spec.by_url {
                    stores
                        .images
                        .put_raw(&q.url, q.bytes.clone().into(), q.cluster);
                }
                stores
                    .extractor
                    .extractor()
                    .extract(&blob(&q.bytes, q.cluster))
                    .into_inner()
            })
            .collect();

        let dir = spec.durable.then(|| scratch_dir("world"));
        let topology = open_topology(&config, &stores, &training, dir.as_ref());

        // Bulk load, one loader per partition (an index has one writer).
        let map = topology.partition_map();
        let mut by_partition: Vec<Vec<(Vector, ProductAttributes)>> =
            (0..spec.partitions).map(|_| Vec::new()).collect();
        for (features, attrs) in records {
            by_partition[map.partition_of(attrs.image_key())].push((features, attrs));
        }
        std::thread::scope(|scope| {
            for (p, records) in by_partition.into_iter().enumerate() {
                let index = topology.index(p, 0);
                scope.spawn(move || {
                    for (features, attrs) in records {
                        index.insert(features, attrs).expect("bulk load insert");
                    }
                    index.flush();
                });
            }
        });
        for p in inputs.catalog.iter().filter(|p| p.predeleted) {
            for image in &p.images {
                let key = ImageKey::from_url(&image.url);
                topology
                    .index(map.partition_of(key), 0)
                    .invalidate(key, &image.url)
                    .expect("pre-deleting a loaded image");
            }
        }
        if spec.durable {
            // The bulk load bypassed the log, so recovery needs a snapshot
            // to start from.
            for p in 0..spec.partitions {
                topology
                    .checkpoint_partition(p)
                    .expect("checkpointing the bulk-loaded partition");
            }
        }

        let mut world = World {
            spec: spec.clone(),
            topology,
            net: None,
            stores,
            query_features,
            training,
            dir,
        };
        world.serve(inputs);
        world
    }

    /// Stands the TCP tiers up with the shipped defaults and warms them.
    fn serve(&mut self, inputs: &Inputs) {
        let net = NetServing::over(&self.topology, NetServingConfig::default())
            .expect("binding loopback listeners");
        let client = net.client();
        for i in 0..WARMUP_QUERIES.min(inputs.queries.len()) {
            client
                .search(self.query(inputs, i))
                .expect("warm-up query over TCP");
        }
        self.net = Some(net);
    }

    /// Clean shutdown, then recovery over the same directory and stores:
    /// returns how long until the reopened world serves.
    pub fn reopen(&mut self, inputs: &Inputs) -> Duration {
        self.stop_serving();
        self.topology.shutdown();
        let start = Instant::now();
        self.topology = open_topology(
            &self.spec.topology(),
            &self.stores,
            &self.training,
            self.dir.as_ref(),
        );
        self.serve(inputs);
        start.elapsed()
    }

    pub fn net(&self) -> &NetServing {
        self.net.as_ref().expect("tiers are up")
    }

    pub fn client(&self) -> NetClient {
        self.net().client()
    }

    pub fn extractor(&self) -> &FeatureExtractor {
        self.stores.extractor.extractor()
    }

    /// Pool query `i` as this workload sends it.
    pub fn query(&self, inputs: &Inputs, i: usize) -> SearchQuery {
        let query = if self.spec.by_url {
            SearchQuery::by_image_url(inputs.queries[i].url.clone(), K)
        } else {
            SearchQuery::by_features(self.query_features[i].clone(), K)
        };
        if self.spec.pq {
            query.with_compressed()
        } else {
            query
        }
    }

    /// Requests shed by any tier, and the deepest admission queue seen.
    pub fn shed_and_queue_depth(&self) -> (u64, u64) {
        let net = self.net();
        let tiers = [
            net.blender_serving(),
            net.broker_serving(),
            net.searcher_serving(),
        ];
        (
            tiers.iter().map(|s| s.total_shed()).sum(),
            tiers.iter().map(|s| s.max_queue_depth).max().unwrap_or(0),
        )
    }

    /// The unfiltered search one partition runs for this workload's queries.
    pub fn partition_search(&self, index: &VisualIndex, features: &[f32]) -> Vec<Neighbor> {
        if self.spec.pq {
            index.search_compressed(features, K, self.spec.nprobe, RERANK)
        } else {
            index.search(features, K, self.spec.nprobe)
        }
    }

    /// What the tiers must answer for `features`: each partition's search,
    /// merged per broker group in (distance, id) order, then across groups
    /// as the similarity-only ranking does (distance, then URL; one slot per
    /// product). With `reference` the partition search is the program's
    /// sequential per-id reference implementation, which the engine must
    /// match bit for bit; otherwise it is the engine itself, in-process, and
    /// the comparison covers the tiers, the wire and the merges.
    pub fn expected(
        &self,
        features: &[f32],
        filter: Option<&FilterSpec>,
        reference: bool,
    ) -> Answer {
        let map = self.topology.partition_map();
        let nprobe = self.spec.nprobe;
        let mut all = Vec::new();
        for group in 0..self.spec.broker_groups {
            let mut hits: Vec<(Neighbor, ProductAttributes)> = Vec::new();
            for p in map.partitions_of_group(group) {
                let index = self.topology.index(p, 0);
                let neighbors = match (reference, self.spec.pq, filter) {
                    (false, _, None) => self.partition_search(&index, features),
                    (false, true, Some(f)) => {
                        index.search_compressed_filtered(features, K, nprobe, RERANK, f)
                    }
                    (false, false, Some(f)) => index.search_filtered(features, K, nprobe, f),
                    (true, true, None) => {
                        search::compressed_search_reference(&index, features, K, nprobe, RERANK)
                    }
                    (true, true, Some(f)) => search::filtered_compressed_search_reference(
                        &index, features, K, nprobe, RERANK, f,
                    ),
                    (true, false, None) => {
                        search::ann_search_reference(&index, features, K, nprobe)
                    }
                    (true, false, Some(f)) => {
                        search::filtered_ann_search_reference(&index, features, K, nprobe, f)
                    }
                };
                for n in neighbors {
                    let attrs = index
                        .attributes(ImageId(n.id as u32))
                        .expect("search hit has a forward record");
                    hits.push((Neighbor::new((p as u64) << 32 | n.id, n.distance), attrs));
                }
            }
            hits.sort_by_key(|hit| hit.0);
            hits.truncate(K);
            all.extend(hits);
        }
        all.sort_by(|a, b| {
            a.0.distance
                .total_cmp(&b.0.distance)
                .then_with(|| a.1.url.cmp(&b.1.url))
        });
        let mut seen = std::collections::HashSet::new();
        all.retain(|(_, attrs)| seen.insert(attrs.product_id));
        all.truncate(K);
        all.iter()
            .map(|(n, attrs)| (n.distance.to_bits(), attrs.image_key().0))
            .collect()
    }

    /// The oracle for the first `pool` queries, computed on both cores. The
    /// sequential reference costs ~300 ns per candidate, so it answers the
    /// first [`REFERENCE_QUERIES`] and the in-process engine the rest.
    pub fn oracle(&self, pool: usize, filter: Option<&FilterSpec>) -> Vec<Answer> {
        let features = &self.query_features[..pool.min(self.query_features.len())];
        let answer = |i: usize| self.expected(&features[i], filter, i < REFERENCE_QUERIES);
        std::thread::scope(|scope| {
            // Interleaved, so both workers share the slow reference queries.
            let workers: Vec<_> = (0..2)
                .map(|w| {
                    scope.spawn(move || {
                        (w..features.len())
                            .step_by(2)
                            .map(|i| (i, answer(i)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut answers: Vec<(usize, Answer)> = workers
                .into_iter()
                .flat_map(|w| w.join().expect("oracle worker"))
                .collect();
            answers.sort_by_key(|a| a.0);
            answers.into_iter().map(|a| a.1).collect()
        })
    }

    /// Mean over the first `n` pool queries of the share of brute-force
    /// top-10 products (across all partitions) that the TCP answer returns.
    /// Brute force is a full pass over every vector, so both cores share it.
    pub fn recall_at_10(&self, inputs: &Inputs, n: usize) -> f64 {
        let indexes: Vec<Arc<VisualIndex>> = (0..self.spec.partitions)
            .map(|p| self.topology.index(p, 0))
            .collect();
        let n = n.min(inputs.queries.len());
        let recall_of = |client: &NetClient, i: usize| {
            let features = &self.query_features[i];
            let mut truth: Vec<(f32, u64)> = Vec::new();
            for index in &indexes {
                for hit in index.brute_force_search(features, K) {
                    let attrs = index
                        .attributes(ImageId(hit.id as u32))
                        .expect("brute-force hit has a forward record");
                    truth.push((hit.distance, attrs.product_id.0));
                }
            }
            truth.sort_by(|a, b| a.0.total_cmp(&b.0));
            truth.truncate(K);
            let truth: std::collections::HashSet<u64> = truth.iter().map(|t| t.1).collect();
            let response = client
                .search(self.query(inputs, i))
                .expect("recall query over TCP");
            let found = response
                .results
                .iter()
                .filter(|r| truth.contains(&r.hit.product_id.0))
                .count();
            found as f64 / truth.len().max(1) as f64
        };
        let sum: f64 = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|w| {
                    let recall_of = &recall_of;
                    scope.spawn(move || {
                        let client = self.client();
                        (w..n)
                            .step_by(2)
                            .map(|i| recall_of(&client, i))
                            .sum::<f64>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("recall worker"))
                .sum()
        });
        sum / n.max(1) as f64
    }

    fn stop_serving(&mut self) {
        if let Some(mut net) = self.net.take() {
            net.drain(Duration::from_secs(2));
        }
    }

    /// Stops every thread the world started. What it wrote stays until
    /// [`remove_scratch`].
    pub fn teardown(mut self) {
        self.stop_serving();
        self.topology.shutdown();
    }
}

fn open_topology(
    config: &TopologyConfig,
    stores: &Stores,
    training: &[Vector],
    dir: Option<&PathBuf>,
) -> SearchTopology {
    let (extractor, images, feature_db) = (
        Arc::clone(&stores.extractor),
        Arc::clone(&stores.images),
        Arc::clone(&stores.feature_db),
    );
    match dir {
        Some(dir) => SearchTopology::build_durable(
            config.clone(),
            extractor,
            images,
            feature_db,
            training,
            DurabilityOptions::new(dir),
        )
        .expect("opening the durable topology"),
        None => SearchTopology::build(
            config.clone(),
            extractor,
            images,
            feature_db,
            training,
            MessageQueue::new(),
        ),
    }
}

/// Resident set size of this process, in MB.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
