//! The traced pass: per-layer numbers, taken from the benchmark's side of
//! each layer boundary by timing the public call that crosses it.
//!
//! One client, sequential. For each sampled query the *same* query is
//! replayed at every boundary on the way down — blender over TCP, each broker
//! over TCP, each searcher over TCP, the searcher service in-process, the
//! index search, its assignment and LUT stages — so a layer's self time is
//! its span minus the slowest child span, per query. The ingest path is timed
//! on fixtures of its own (a log in a scratch directory, a standalone index)
//! so that every workload can report every layer.
//!
//! No span is recorded inside the program; the timed phases of an untraced
//! run execute exactly the same program code, so tracing costs them nothing.

use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

use jdvs_core::{FilterSpec, RealtimeIndexer, VisualIndex};
use jdvs_durability::{DurableQueue, FsyncPolicy, LogConfig};
use jdvs_features::cost::CostModel;
use jdvs_features::{CachingExtractor, FeatureExtractor};
use jdvs_metrics::{DurabilityMetrics, ServingMetrics};
use jdvs_net::frame::{read_frame, write_frame};
use jdvs_net::{AdmissionConfig, AdmissionController, CallTarget, Service, TcpChannel, TcpTier};
use jdvs_search::protocol::{FanoutQuery, PartialResponse};
use jdvs_search::searcher::SearcherService;
use jdvs_search::wire;
use jdvs_storage::model::{ImageKey, ProductEvent, ProductId};
use jdvs_storage::{FeatureDb, ImageStore, MessageQueue};

use crate::driver::{median, paced, Phase, Worker};
use crate::inputs::{Inputs, Kind, Product};
use crate::workloads::{metric, well_formed, Metric, Report, Workload};
use crate::world::{blob, scratch_dir, World, K, RERANK};

const CALL_DEADLINE: Duration = Duration::from_secs(5);
/// Most queries sampled, and most probes timed for `core.visible_us`.
const MAX_SAMPLES: usize = 500;
const MAX_PROBES: usize = 300;
/// Catalog products the standalone apply fixture holds.
const FIXTURE_PRODUCTS: usize = 2_000;
/// Events through the fsync'd log fixture.
const LOG_EVENTS: usize = 1_000;
/// Queries `core.candidates` is counted over (a count, so it repeats).
const CANDIDATE_QUERIES: usize = 100;

/// Microseconds a call took, and what it returned.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (start.elapsed().as_secs_f64() * 1e6, out)
}

/// Parallel children: the parent waits for the slowest.
fn slowest(spans: impl Iterator<Item = f64>) -> f64 {
    spans.fold(0.0, f64::max)
}

fn decode_partial(bytes: &[u8]) -> Option<PartialResponse> {
    wire::decode_partial_response(bytes).ok()
}

/// Named columns of per-sample timings; reports the median of each.
#[derive(Default)]
struct Columns(Vec<(&'static str, Vec<f64>)>);

impl Columns {
    fn push(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|c| c.0 == name) {
            Some(column) => column.1.push(value),
            None => self.0.push((name, vec![value])),
        }
    }

    fn median(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|c| c.0 == name)
            .map_or(0.0, |c| median(c.1.clone()))
    }
}

pub fn run(workload: Workload, inputs: &Inputs, seconds: f64, quick: bool) -> Report {
    let start = Instant::now();
    let spec = workload.spec(seconds, quick);
    let world = World::build(&spec, inputs);
    let mut out: Vec<Metric> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // --- Query path -------------------------------------------------------
    let query_budget = Duration::from_secs_f64(seconds * 0.45);
    let q = query_path(&world, inputs, query_budget);
    attempted += q.samples;
    failed += q.failed;
    let us = |name: &str| q.columns.median(name);
    for name in [
        "search.blender_hop_us",
        "search.broker_hop_us",
        "search.searcher_hop_us",
        "search.searcher_execute_us",
        "search.blender_self_us",
        "search.broker_self_us",
        "search.searcher_hop_self_us",
        "search.searcher_hydrate_us",
        "core.search_us",
        "vector.assign_us",
        "vector.lut_us",
        "core.scan_us",
        "core.filtered_search_us",
        "search.wire_codec_us",
        "search.rank_us",
        "features.extract_us",
    ] {
        out.push(metric(name, us(name), "us"));
    }
    out.push(metric(
        "search.wire_bytes",
        us("search.wire_bytes"),
        "bytes",
    ));
    let candidates = candidates_per_query(&world);
    out.push(metric("core.candidates", candidates, "count"));
    out.push(metric(
        "core.scan_ns_per_candidate",
        us("core.scan_us") * 1e3 / (candidates / spec.partitions as f64).max(1.0),
        "ns",
    ));
    let root = us("search.blender_hop_us");
    let selfs: f64 = [
        "search.blender_self_us",
        "search.broker_self_us",
        "search.searcher_hop_self_us",
        "search.searcher_hydrate_us",
        "core.search_us",
    ]
    .iter()
    .map(|n| us(n))
    .sum();
    out.push(metric(
        "trace.residual_share",
        (root - selfs).abs() / root.max(f64::MIN_POSITIVE),
        "share",
    ));

    // --- Transport floor ---------------------------------------------------
    out.extend(net_floor(q.partial_bytes));

    // --- A short paced phase: how the sequential trace relates to load ------
    let rate = match workload.query_rate() {
        r if r > 0.0 => r,
        _ => 200.0,
    };
    let workers: Vec<Worker<'_>> = (0..2)
        .map(|_| {
            let client = world.client();
            let world = &world;
            Box::new(move |seq: u64| {
                let i = seq as usize % inputs.queries.len();
                client
                    .search(world.query(inputs, i))
                    .is_ok_and(|r| r.is_complete() && well_formed(&r))
            }) as Worker<'_>
        })
        .collect();
    let span = Duration::from_secs_f64((seconds * 0.15).max(0.5));
    let phase = paced("trace-paced", rate, span, workers);
    attempted += phase.attempted;
    failed += phase.failed;
    out.push(metric(
        "trace.vs_paced_share",
        root / 1e3 / phase.calm_p50_ms().max(f64::MIN_POSITIVE),
        "share",
    ));
    out.push(metric("driver.late_share", phase.late_share(), "share"));
    out.push(metric("driver.samples", q.samples as f64, "count"));

    // --- Ingest path ---------------------------------------------------------
    out.extend(publish_path(inputs));
    out.extend(apply_path(&world, inputs));
    let (visible, probes, unseen) = visible_path(&world, inputs, seconds * 0.1);
    attempted += probes;
    failed += unseen;
    out.push(metric("core.visible_us", visible, "us"));

    let (shed, queue_depth) = world.shed_and_queue_depth();
    out.push(metric("net.shed", shed as f64, "count"));
    out.push(metric("net.max_queue_depth", queue_depth as f64, "count"));
    world.teardown();
    Report {
        metrics: out,
        phases: vec![Phase {
            name: "traced",
            attempted,
            failed,
            elapsed_s: start.elapsed().as_secs_f64(),
            ..Phase::default()
        }],
        ..Report::default()
    }
}

struct QueryPath {
    columns: Columns,
    samples: u64,
    failed: u64,
    /// An encoded searcher response of typical size, for `net.frame_us`.
    partial_bytes: Vec<u8>,
}

fn query_path(world: &World, inputs: &Inputs, budget: Duration) -> QueryPath {
    let spec = &world.spec;
    let net = world.net();
    let client = world.client();
    let channel = |name: String, addr| {
        TcpChannel::<FanoutQuery, PartialResponse>::new(
            name,
            addr,
            wire::encode_fanout_query,
            decode_partial,
        )
    };
    let brokers: Vec<_> = (0..spec.broker_groups)
        .map(|g| channel(format!("trace-broker-{g}"), net.broker_addrs(g)[0]))
        .collect();
    let searchers: Vec<_> = (0..spec.partitions)
        .map(|p| channel(format!("trace-searcher-{p}"), net.searcher_addrs(p)[0]))
        .collect();
    let services: Vec<SearcherService> = (0..spec.partitions)
        .map(|p| SearcherService::new(p, Arc::clone(world.topology.handle(p, 0))))
        .collect();
    let indexes: Vec<Arc<VisualIndex>> = (0..spec.partitions)
        .map(|p| world.topology.index(p, 0))
        .collect();
    let filter = FilterSpec::none().with_min_sales(inputs.min_sales);
    let ranking = world.topology.config().ranking;

    let mut c = Columns::default();
    let (mut samples, mut failed) = (0u64, 0u64);
    let mut partial_bytes = Vec::new();
    let start = Instant::now();
    while samples < MAX_SAMPLES as u64 && start.elapsed() < budget {
        let i = samples as usize % inputs.queries.len();
        samples += 1;
        let query = world.query(inputs, i);
        let features = &world.query_features[i];
        // What the blender sends down for this query.
        let fanout = FanoutQuery {
            features: features.clone(),
            k: K,
            nprobe: None,
            compressed: spec.pq,
            budget: Some(CALL_DEADLINE),
            filter: None,
        };

        let (blender, response) = timed(|| client.search(query.clone()));
        let Some(response) = response.ok().filter(|r| r.is_complete()) else {
            failed += 1;
            continue;
        };
        let mut broker_replies = Vec::new();
        let broker = slowest(brokers.iter().map(|ch| {
            let (t, reply) = timed(|| ch.call(fanout.clone(), CALL_DEADLINE));
            broker_replies.extend(reply.ok());
            t
        }));
        let hop = slowest(
            searchers
                .iter()
                .map(|ch| timed(|| ch.call(fanout.clone(), CALL_DEADLINE)).0),
        );
        let mut searcher_replies = Vec::new();
        let execute = slowest(services.iter().map(|s| {
            let (t, reply) = timed(|| s.execute(&fanout));
            searcher_replies.push(reply);
            t
        }));
        let searches: Vec<f64> = indexes
            .iter()
            .map(|index| timed(|| world.partition_search(index, features)).0)
            .collect();
        let search = slowest(searches.iter().copied());
        let index = &indexes[searches.iter().position(|&t| t == search).unwrap_or(0)];
        let assign = timed(|| index.quantizer().assign_multi(features, spec.nprobe)).0;
        let lut = match index.pq_quantizer() {
            Some(pq) => timed(|| pq.quantized_adc_table(features)).0,
            None => 0.0,
        };
        let filtered = timed(|| {
            if spec.pq {
                index.search_compressed_filtered(features, K, spec.nprobe, RERANK, &filter)
            } else {
                index.search_filtered(features, K, spec.nprobe, &filter)
            }
        })
        .0;

        c.push("search.blender_hop_us", blender);
        c.push("search.broker_hop_us", broker);
        c.push("search.searcher_hop_us", hop);
        c.push("search.searcher_execute_us", execute);
        c.push("search.blender_self_us", blender - broker);
        c.push("search.broker_self_us", broker - hop);
        c.push("search.searcher_hop_self_us", hop - execute);
        c.push("search.searcher_hydrate_us", execute - search);
        c.push("core.search_us", search);
        c.push("vector.assign_us", assign);
        c.push("vector.lut_us", lut);
        c.push("core.scan_us", search - assign - lut);
        c.push("core.filtered_search_us", filtered);

        // Every message of this query, encoded and decoded as often as the
        // path does: one query and one response at the front door, one
        // fan-out and one partial per broker group and per partition.
        let mut bytes = 0usize;
        let mut codec = 0.0;
        let mut both = |encode: &dyn Fn() -> Vec<u8>, decode: &dyn Fn(&[u8]) -> bool| {
            let (t, encoded) = timed(encode);
            codec += t + timed(|| assert!(decode(&encoded))).0;
            bytes += encoded.len();
        };
        both(&|| wire::encode_search_query(&query), &|b| {
            wire::decode_search_query(b).is_ok()
        });
        for _ in 0..spec.broker_groups + spec.partitions {
            both(&|| wire::encode_fanout_query(&fanout), &|b| {
                wire::decode_fanout_query(b).is_ok()
            });
        }
        for reply in searcher_replies.iter().chain(&broker_replies) {
            both(&|| wire::encode_partial_response(reply), &|b| {
                wire::decode_partial_response(b).is_ok()
            });
        }
        both(&|| wire::encode_search_response(&response), &|b| {
            wire::decode_search_response(b).is_ok()
        });
        c.push("search.wire_codec_us", codec);
        c.push("search.wire_bytes", bytes as f64);

        let merged: Vec<_> = broker_replies.into_iter().flat_map(|r| r.hits).collect();
        c.push("search.rank_us", timed(|| ranking.rank(merged, K)).0);
        let q = &inputs.queries[i];
        let image = blob(&q.bytes, q.cluster);
        c.push(
            "features.extract_us",
            timed(|| world.extractor().extract(&image)).0,
        );
        if let Some(reply) = searcher_replies.first() {
            partial_bytes = wire::encode_partial_response(reply);
        }
    }
    QueryPath {
        columns: c,
        samples,
        failed,
        partial_bytes,
    }
}

/// Mean number of list entries one query's probes cover, summed over
/// partitions: a count of the input, not a timing.
fn candidates_per_query(world: &World) -> f64 {
    let spec = &world.spec;
    let queries = &world.query_features[..CANDIDATE_QUERIES.min(world.query_features.len())];
    let mut total = 0usize;
    for p in 0..spec.partitions {
        let index = world.topology.index(p, 0);
        for features in queries {
            for list in index.quantizer().assign_multi(features, spec.nprobe) {
                total += index.inverted().list(jdvs_core::ListId(list as u32)).len();
            }
        }
    }
    total as f64 / queries.len().max(1) as f64
}

struct Echo;

impl Service for Echo {
    type Request = Vec<u8>;
    type Response = Vec<u8>;

    fn handle(&self, req: Vec<u8>) -> Vec<u8> {
        req
    }
}

/// What one hop costs before any search work: an empty echo service behind
/// the same listener, admission and channel; framing alone; admission alone.
fn net_floor(partial: Vec<u8>) -> Vec<Metric> {
    const ROUNDS: usize = 2_000;
    let tier = TcpTier::spawn(
        "trace-echo",
        Echo,
        |b| Some(b.to_vec()),
        |v| v.clone(),
        AdmissionConfig::default(),
    )
    .expect("binding the echo listener");
    let channel = TcpChannel::<Vec<u8>, Vec<u8>>::new(
        "trace-echo-ch",
        tier.local_addr(),
        |v| v.clone(),
        |b| Some(b.to_vec()),
    );
    let rtt = (0..ROUNDS)
        .map(|_| timed(|| channel.call(Vec::new(), CALL_DEADLINE).expect("echo call")).0)
        .collect();
    drop(tier);

    let frame = (0..ROUNDS)
        .map(|_| {
            timed(|| {
                let mut wire = Vec::with_capacity(partial.len() + 8);
                write_frame(&mut wire, &partial).expect("framing into memory");
                read_frame(&mut Cursor::new(wire)).expect("reading the frame back")
            })
            .0
        })
        .collect();

    let admission =
        AdmissionController::new(AdmissionConfig::default(), Arc::new(ServingMetrics::new()));
    let admit = (0..ROUNDS)
        .map(|_| timed(|| drop(admission.admit(CALL_DEADLINE))).0)
        .collect();

    vec![
        metric("net.echo_rtt_us", median(rtt), "us"),
        metric("net.frame_us", median(frame), "us"),
        metric("net.admit_us", median(admit), "us"),
    ]
}

/// `publish` on the plain queue and on the fsync-always durable queue, then
/// a reopen of that log.
fn publish_path(inputs: &Inputs) -> Vec<Metric> {
    let events: Vec<&ProductEvent> = inputs
        .events
        .iter()
        .take(LOG_EVENTS)
        .map(|e| &e.event)
        .collect();

    let plain = MessageQueue::new();
    let plain_us = events
        .iter()
        .map(|e| {
            let event = (*e).clone();
            timed(|| plain.publish(event)).0
        })
        .collect();

    let config = LogConfig {
        dir: scratch_dir("trace-wal"),
        segment_max_bytes: 8 * 1024 * 1024,
        fsync: FsyncPolicy::Always,
        group_commit: false,
    };
    let counters = Arc::new(DurabilityMetrics::new());
    let durable =
        DurableQueue::open(config.clone(), Arc::clone(&counters)).expect("opening the log fixture");
    let durable_us = events
        .iter()
        .map(|e| {
            let event = (*e).clone();
            timed(|| durable.queue().publish(event)).0
        })
        .collect();
    let written = counters.snapshot();
    drop(durable);
    let (reopen_us, reopened) =
        timed(|| DurableQueue::open(config, Arc::new(DurabilityMetrics::new())));
    let replayed = reopened
        .expect("reopening the log fixture")
        .recovered_events();

    let appends = written.log_appends.max(1) as f64;
    vec![
        metric("durability.publish_us", median(durable_us), "us"),
        metric("storage.publish_us", median(plain_us), "us"),
        metric(
            "durability.bytes_per_event",
            written.log_bytes as f64 / appends,
            "bytes",
        ),
        metric(
            "durability.fsyncs_per_event",
            written.log_syncs as f64 / appends,
            "count",
        ),
        metric(
            "durability.replay_eps",
            replayed as f64 / (reopen_us / 1e6),
            "1/s",
        ),
    ]
}

/// `RealtimeIndexer::apply` per event kind, on a standalone index with this
/// world's quantizers. A quarter of the fixture's products are known to the
/// feature database but not indexed, so re-listing them takes the
/// feature-reuse path, and brand-new ones the extraction path.
fn apply_path(world: &World, inputs: &Inputs) -> Vec<Metric> {
    let base = world.topology.index(0, 0);
    let index = Arc::new(VisualIndex::with_quantizers(
        world.topology.config().index.clone(),
        base.quantizer().clone(),
        base.pq_quantizer(),
    ));
    let images = Arc::new(ImageStore::with_blob_len(crate::inputs::BLOB_LEN));
    let feature_db = Arc::new(FeatureDb::new());
    let extractor = Arc::new(CachingExtractor::new(
        FeatureExtractor::new(world.extractor().config().clone()),
        CostModel::free(),
    ));
    let known: Vec<&Product> = inputs.catalog.iter().take(FIXTURE_PRODUCTS).collect();
    for (i, p) in known.iter().enumerate() {
        for (image, attrs) in p
            .images
            .iter()
            .zip(p.attributes(p.sales, p.price, p.praise))
        {
            let features = world.extractor().extract(&blob(&image.bytes, p.cluster));
            feature_db.insert(features.clone(), attrs.clone());
            if i % 4 != 0 {
                index.insert(features, attrs).expect("fixture insert");
            }
        }
    }
    for p in &inputs.fresh {
        for image in &p.images {
            images.put_raw(&image.url, image.bytes.clone().into(), p.cluster);
        }
    }
    let indexer = RealtimeIndexer::for_index(index, Arc::clone(&extractor), images, feature_db);
    let add = |p: &Product| ProductEvent::AddProduct {
        product_id: ProductId(p.id),
        images: p.attributes(p.sales, p.price + 1, p.praise),
    };
    let urls = |p: &Product| p.images.iter().map(|i| i.url.clone()).collect::<Vec<_>>();
    let apply_all = |events: Vec<ProductEvent>| {
        median(
            events
                .iter()
                .map(|e| {
                    let (t, report) = timed(|| indexer.apply(e));
                    assert_eq!(report.failed, 0, "fixture event failed to apply");
                    t
                })
                .collect(),
        )
    };
    let added = apply_all(inputs.fresh.iter().map(add).collect());
    let relisted = apply_all(known.iter().map(|p| add(p)).collect());
    let updated = apply_all(
        known
            .iter()
            .map(|p| ProductEvent::UpdateAttributes {
                product_id: ProductId(p.id),
                urls: urls(p),
                sales: Some(p.sales + 1),
                price: Some(p.price + 2),
                praise: None,
            })
            .collect(),
    );
    let removed = apply_all(
        known
            .iter()
            .map(|p| ProductEvent::RemoveProduct {
                product_id: ProductId(p.id),
                urls: urls(p),
            })
            .collect(),
    );
    let (hits, misses) = (extractor.hits() as f64, extractor.misses() as f64);
    vec![
        metric("core.apply_add_us", added, "us"),
        metric("core.apply_relist_us", relisted, "us"),
        metric("core.apply_update_us", updated, "us"),
        metric("core.apply_remove_us", removed, "us"),
        metric(
            "features.reuse_share",
            hits / (hits + misses).max(1.0),
            "share",
        ),
    ]
}

/// On the live world: from `publish` returning to the probe's image being
/// looked up valid in its partition's index. Returns the median in µs, the
/// probes published and those never seen.
fn visible_path(world: &World, inputs: &Inputs, seconds: f64) -> (f64, u64, u64) {
    let map = world.topology.partition_map();
    let budget = Duration::from_secs_f64(seconds.max(0.2));
    let start = Instant::now();
    let mut spans = Vec::new();
    let mut unseen = 0u64;
    for event in inputs.events.iter().filter(|e| e.kind == Kind::Probe) {
        if spans.len() + unseen as usize >= MAX_PROBES || start.elapsed() > budget {
            break;
        }
        let url = &inputs.product(event.target).images[0].url;
        let key = ImageKey::from_url(url);
        let index = world.topology.index(map.partition_of(key), 0);
        world.topology.publish(event.event.clone());
        let published = Instant::now();
        loop {
            if index.lookup(key).is_some_and(|id| index.is_valid(id)) {
                spans.push(published.elapsed().as_secs_f64() * 1e6);
                break;
            }
            if published.elapsed() > CALL_DEADLINE {
                unseen += 1;
                break;
            }
            std::hint::spin_loop();
        }
    }
    let probes = spans.len() as u64 + unseen;
    (median(spans), probes, unseen)
}
