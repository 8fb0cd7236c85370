//! Network serving-tier integration tests: the three tiers over real TCP
//! sockets, driven through overload, socket faults and graceful drain.
//!
//! The degradation contract under test, end to end:
//!
//! - every response satisfies the coverage identity
//!   `ok + timed_out + failed + shed == total` — no partition is ever
//!   lost *silently*, no matter what the sockets do;
//! - overload is answered by fast `Overloaded` rejections at admission,
//!   not by queueing into collapse;
//! - a graceful drain answers in-flight work, sheds new work, then closes
//!   the listener.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use jdvs::core::{IndexConfig, VisualIndex};
use jdvs::metrics::ResilienceMetrics;
use jdvs::net::admission::AdmissionConfig;
use jdvs::net::balancer::Balancer;
use jdvs::net::rpc::RpcError;
use jdvs::net::tcp::{TcpChannel, TcpTier};
use jdvs::net::LatencyModel;
use jdvs::search::broker::BrokerService;
use jdvs::search::protocol::{FanoutQuery, PartialResponse, SearchQuery, SearchResponse};
use jdvs::search::searcher::SearcherService;
use jdvs::search::topology::TopologyConfig;
use jdvs::search::{wire, NetServing, NetServingConfig, SearchClient};
use jdvs::storage::{ProductAttributes, ProductEvent, ProductId};
use jdvs::vector::rng::Xoshiro256;
use jdvs::vector::Vector;
use jdvs::workload::catalog::CatalogConfig;
use jdvs::workload::openloop::{OpenLoopConfig, OpenLoopDriver, OpenLoopOutcome};
use jdvs::workload::queries::{FilteredQueryGenerator, QueryGenerator};
use jdvs::workload::scenario::{World, WorldConfig};
use jdvs::workload::FaultProxy;

/// The overload test saturates every core on purpose; the fault-injection
/// and drain tests assert wall-clock bounds on healthy calls. Running them
/// concurrently lets the saturator starve a healthy fan-out past its
/// deadline, which fails the timing assertions for reasons that have
/// nothing to do with the serving tier. Tests that either saturate the
/// machine or depend on it being responsive take this lock.
fn timing_sensitive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn serving_world() -> World {
    World::build(WorldConfig {
        catalog: CatalogConfig {
            num_products: 60,
            num_clusters: 6,
            ..Default::default()
        },
        topology: TopologyConfig {
            index: IndexConfig {
                dim: 16,
                num_lists: 4,
                nprobe: 4,
                initial_list_capacity: 16,
                ..Default::default()
            },
            num_partitions: 4,
            replicas_per_partition: 1,
            num_broker_groups: 2,
            broker_replicas: 1,
            num_blenders: 2,
            ranking: jdvs::search::RankingPolicy::similarity_only(),
            ..Default::default()
        },
        seed: 0x5E17,
        ..Default::default()
    })
}

/// Every successful response must satisfy the coverage identity.
fn assert_identity(resp: &SearchResponse) {
    assert_eq!(
        resp.partitions_ok
            + resp.partitions_timed_out
            + resp.partitions_failed
            + resp.partitions_shed,
        resp.partitions_total,
        "accounting identity violated: {resp:?}"
    );
}

#[test]
fn network_tiers_answer_like_the_in_process_stack() {
    let world = serving_world();
    let serving = NetServing::over(world.topology(), NetServingConfig::default()).unwrap();
    let net_client = serving.client();
    let generator = QueryGenerator::new(world.catalog(), 11);

    for _ in 0..20 {
        let (query, _) = generator.next_query(world.images(), 5);
        let resp = net_client.search(query.clone()).unwrap();
        assert_identity(&resp);
        assert!(
            resp.is_complete(),
            "healthy stack must cover all partitions"
        );
        assert!(!resp.results.is_empty());
        // Same query through the topology's own stack ranks the same top
        // hit.
        let local = world.topology().search(query).unwrap();
        assert_eq!(
            resp.results[0].hit.product_id, local.results[0].hit.product_id,
            "both stacks serve the same index"
        );
    }
}

#[test]
fn realtime_updates_become_visible_over_the_network() {
    let world = serving_world();
    let serving = NetServing::over(world.topology(), NetServingConfig::default()).unwrap();
    let client = serving.client();

    // Publish a brand-new image through the topology's queue; the network
    // tiers serve the same hot-swappable handles, so it must become
    // searchable without touching the TCP stack.
    let url = "fresh/over/tcp.jpg".to_string();
    world.images().put_synthetic(&url, 3);
    world.topology().publish(ProductEvent::AddProduct {
        product_id: ProductId(500_000),
        images: vec![ProductAttributes::new(
            ProductId(500_000),
            1,
            100,
            1,
            url.clone(),
        )],
    });
    world.topology().wait_for_freshness(Duration::from_secs(30));

    let resp = client.search(SearchQuery::by_image_url(url, 3)).unwrap();
    assert_identity(&resp);
    assert_eq!(
        resp.results[0].hit.product_id,
        ProductId(500_000),
        "freshly indexed image must be its own nearest neighbor over TCP"
    );
}

#[test]
fn overload_sheds_fast_with_exact_accounting() {
    let _serial = timing_sensitive();
    let world = serving_world();
    // A deliberately tiny front door so a modest burst overloads it:
    // 1 worker, queue of 2, and a 200/s rate limit at the blender tier.
    let serving = NetServing::over(
        world.topology(),
        NetServingConfig {
            blender_admission: AdmissionConfig {
                rate_limit: Some(200.0),
                burst: 8,
                max_concurrency: 1,
                queue_capacity: 2,
                ..AdmissionConfig::default()
            },
            ..NetServingConfig::default()
        },
    )
    .unwrap();
    let client = serving.client();
    let generator = QueryGenerator::new(world.catalog(), 13);
    let violations = AtomicU64::new(0);

    let report = OpenLoopDriver::run(
        OpenLoopConfig {
            rate: 800.0,
            duration: Duration::from_millis(1500),
            workers: 24,
        },
        || {
            let (query, _) = generator.next_query(world.images(), 4);
            match client.search(query) {
                Ok(resp) => {
                    if resp.partitions_ok
                        + resp.partitions_timed_out
                        + resp.partitions_failed
                        + resp.partitions_shed
                        != resp.partitions_total
                    {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                    OpenLoopOutcome::Accepted
                }
                Err(RpcError::Overloaded) => OpenLoopOutcome::Shed,
                Err(_) => OpenLoopOutcome::Failed,
            }
        },
    );

    assert_eq!(violations.load(Ordering::Relaxed), 0, "accounting violated");
    assert!(
        report.shed > 0,
        "4x the rate limit must shed: {}",
        report.summary()
    );
    assert!(
        report.accepted > 0,
        "shedding must not starve admitted work"
    );
    // Sheds are answered at admission, before any fan-out. The typical
    // shed is near-instant; the tail bound is loose because the observed
    // latency includes connects and scheduler jitter from 24 saturating
    // load workers, but even the tail must sit far inside the 5s client
    // deadline — a shed never rides the queue.
    let shed_p50 = report.shed_latency.percentile(0.50);
    let shed_p99 = report.shed_latency.percentile(0.99);
    assert!(
        shed_p50 < Duration::from_millis(100),
        "typical shed must be fast, p50 was {shed_p50:?}"
    );
    assert!(
        shed_p99 < Duration::from_millis(1000),
        "sheds must not queue, p99 was {shed_p99:?}"
    );
    // The blender tier's own counters saw the sheds.
    let front = serving.blender_serving();
    assert!(front.total_shed() > 0, "tier counters must record sheds");
    assert_eq!(front.admitted, front.completed, "no request leaked a slot");
}

#[test]
fn searcher_crash_degrades_with_partition_accounting() {
    let world = serving_world();
    let mut serving = NetServing::over(world.topology(), NetServingConfig::default()).unwrap();
    let client = serving.client();
    let generator = QueryGenerator::new(world.catalog(), 17);

    // Healthy first.
    let (q, _) = generator.next_query(world.images(), 4);
    assert!(client.search(q).unwrap().is_complete());

    // Kill partition 2's only searcher listener: its connections are
    // severed and new connects refused, while the other partitions (and
    // the wrapped topology) keep serving.
    serving.crash_searcher(2, 0);

    let mut degraded = 0;
    for _ in 0..10 {
        let (q, _) = generator.next_query(world.images(), 4);
        let resp = client.search(q).unwrap();
        assert_identity(&resp);
        if !resp.is_complete() {
            degraded += 1;
            assert!(
                resp.partitions_failed + resp.partitions_timed_out >= 1,
                "the lost partition must be accounted as failed/timed out: {resp:?}"
            );
            assert!(
                resp.results.iter().all(|r| r.hit.partition != 2),
                "no hit may claim to come from the dead partition"
            );
        }
    }
    assert!(
        degraded > 0,
        "losing 1 of 4 partitions must show in coverage"
    );
}

#[test]
fn socket_faults_never_violate_accounting() {
    let _serial = timing_sensitive();
    let world = serving_world();
    let serving = NetServing::over(world.topology(), NetServingConfig::default()).unwrap();
    let generator = QueryGenerator::new(world.catalog(), 19);

    // Dial the blender tier through a fault-injecting proxy.
    let blender = serving.blender_addrs()[0];
    let proxy = FaultProxy::spawn(blender).unwrap();
    fn enc(q: &SearchQuery) -> Vec<u8> {
        wire::encode_search_query(q)
    }
    fn dec(b: &[u8]) -> Option<SearchResponse> {
        wire::decode_search_response(b).ok()
    }
    let channel = TcpChannel::new("proxied", proxy.addr(), enc, dec);
    let client = SearchClient::new(
        Arc::new(Balancer::new(vec![channel])),
        Duration::from_millis(2000),
    );

    let check = |expect_ok: bool| {
        let (q, _) = generator.next_query(world.images(), 3);
        match client.search(q) {
            Ok(resp) => {
                assert_identity(&resp);
                true
            }
            Err(e) => {
                assert!(
                    expect_ok || e != RpcError::Overloaded,
                    "faults are not sheds: {e}"
                );
                false
            }
        }
    };

    // Recovery checks tolerate a transient timeout from scheduling jitter
    // elsewhere in the test process; a real fault fails all attempts.
    let recovers = || (0..3).any(|_| check(true));

    // Healthy through the proxy.
    assert!(check(true), "healthy proxy must pass queries");

    // Stall: bytes held, the client's deadline expires, no partial junk.
    proxy.set_stall(true);
    assert!(!check(false), "stalled proxy must fail the call");
    proxy.clear();
    assert!(recovers(), "recovery after stall");

    // Mid-frame cut: the connection dies partway through a frame; the
    // CRC-checked framing must turn that into a clean error, never a
    // misparse.
    proxy.set_cut_after(9);
    assert!(!check(false), "mid-frame cut must fail the call");
    proxy.clear();
    assert!(recovers(), "recovery after cut");

    // Refusal hits *new* connections: a fresh client (empty connection
    // pool) cannot get through, while the established client's pooled
    // connection keeps working — refusing connects is not a reset.
    proxy.set_refuse(true);
    let fresh = SearchClient::new(
        Arc::new(Balancer::new(vec![TcpChannel::new(
            "refused",
            proxy.addr(),
            enc,
            dec,
        )])),
        Duration::from_millis(2000),
    );
    let (q, _) = generator.next_query(world.images(), 3);
    assert!(
        fresh.search(q).is_err(),
        "refused connection must fail the call"
    );
    assert!(recovers(), "pooled connection survives a refusal fault");
    proxy.clear();
    assert!(recovers(), "recovery after refusal");
}

/// Panics in any tier's connection thread (named `<listener>-conn`) since
/// the process started counting, through a hook chained to the default.
fn connection_thread_panics() -> u64 {
    static PANICS: AtomicU64 = AtomicU64::new(0);
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if std::thread::current()
                .name()
                .is_some_and(|name| name.ends_with("-conn"))
            {
                PANICS.fetch_add(1, Ordering::SeqCst);
            }
            default(info);
        }));
    });
    PANICS.load(Ordering::SeqCst)
}

/// A malformed query is answered, not panicked on in a connection thread:
/// `nprobe` 0 counts as 1, and a feature vector of the wrong dimension
/// comes back as failed partitions with no results — accounted, on time,
/// and the client's next query is served in full.
#[test]
fn malformed_queries_are_answered_not_panicked() {
    let panics_before = connection_thread_panics();
    let world = serving_world();
    let serving = NetServing::over(world.topology(), NetServingConfig::default()).unwrap();
    let client = serving.client();
    let url = catalog_urls(&world).remove(0);

    let zero = client
        .search(SearchQuery::by_image_url(&url, 5).with_nprobe(0))
        .expect("nprobe 0 is answered");
    assert_identity(&zero);
    assert_eq!(zero.partitions_ok, zero.partitions_total, "{zero:?}");
    let one = client
        .search(SearchQuery::by_image_url(&url, 5).with_nprobe(1))
        .unwrap();
    assert_eq!(zero.results, one.results, "nprobe 0 probes like nprobe 1");

    let short = client
        .search(SearchQuery::by_features(vec![0.5; 3], 5))
        .expect("a wrong-dimension query is answered");
    assert_identity(&short);
    assert!(short.partitions_total > 0);
    assert_eq!(short.partitions_failed, short.partitions_total, "{short:?}");
    assert!(short.results.is_empty());

    let after = client.search(SearchQuery::by_image_url(&url, 5)).unwrap();
    assert!(after.is_complete(), "{after:?}");
    assert_eq!(after.results[0].hit.url, url);
    assert_eq!(
        connection_thread_panics(),
        panics_before,
        "no connection thread may panic"
    );
}

#[test]
fn hedged_broker_over_tcp_beats_stalled_searcher() {
    let _serial = timing_sensitive();
    // One partition, two searcher replicas over the same index; replica 0
    // sits behind a fault proxy. A fresh balancer tries target 0 first, so
    // stalling the proxy forces the broker's hedge to win via replica 1.
    const DIM: usize = 8;
    let mut rng = Xoshiro256::seed_from(41);
    let data: Vec<Vector> = (0..80)
        .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
        .collect();
    let index = Arc::new(VisualIndex::bootstrap(
        IndexConfig {
            dim: DIM,
            num_lists: 4,
            nprobe: 4,
            ..Default::default()
        },
        &data,
    ));
    for (i, v) in data.iter().enumerate() {
        index
            .insert(
                v.clone(),
                ProductAttributes::new(ProductId(i as u64), 1, 1, 1, format!("hedge/u{i}")),
            )
            .unwrap();
    }
    index.flush();

    fn enc(q: &FanoutQuery) -> Vec<u8> {
        wire::encode_fanout_query(q)
    }
    fn dec(b: &[u8]) -> Option<PartialResponse> {
        wire::decode_partial_response(b).ok()
    }
    let replica0 = TcpTier::spawn(
        "hedge-s0",
        SearcherService::for_index(0, Arc::clone(&index)),
        |b| wire::decode_fanout_query(b).ok(),
        wire::encode_partial_response,
        AdmissionConfig::default(),
    )
    .unwrap();
    let replica1 = TcpTier::spawn(
        "hedge-s1",
        SearcherService::for_index(0, Arc::clone(&index)),
        |b| wire::decode_fanout_query(b).ok(),
        wire::encode_partial_response,
        AdmissionConfig::default(),
    )
    .unwrap();
    let proxy = FaultProxy::spawn(replica0.local_addr()).unwrap();

    let resilience = Arc::new(ResilienceMetrics::new());
    let balancer = Balancer::new(vec![
        TcpChannel::new("proxied-r0", proxy.addr(), enc, dec),
        TcpChannel::new("healthy-r1", replica1.local_addr(), enc, dec),
    ])
    .with_metrics(Arc::clone(&resilience));
    let broker = BrokerService::new(0, vec![balancer], Duration::from_secs(3))
        .with_metrics(Arc::clone(&resilience))
        .with_hedging(Duration::from_millis(100));

    let query = FanoutQuery {
        features: data[5].as_slice().to_vec(),
        k: 5,
        nprobe: Some(4),
        compressed: false,
        budget: None,
        filter: None,
    };

    // Stall the proxy: bytes are read but never answered, so the primary
    // call hangs against its full 3s deadline while the hedge completes.
    proxy.set_stall(true);
    let start = Instant::now();
    let resp = broker.execute(&query);
    let elapsed = start.elapsed();

    assert_eq!(
        resp.partitions_ok
            + resp.partitions_timed_out
            + resp.partitions_failed
            + resp.partitions_shed,
        resp.partitions_total,
        "accounting identity violated: {resp:?}"
    );
    assert!(
        resp.is_complete(),
        "the hedge must deliver full coverage around the stalled replica: {resp:?}"
    );
    assert_eq!(resp.hits.len(), 5);
    assert!(
        elapsed < Duration::from_millis(2500),
        "hedged call took {elapsed:?}; it must not ride out the primary's 3s deadline"
    );
    let r = resilience.snapshot();
    assert!(r.hedges_launched >= 1, "no hedge launched: {r:?}");
    assert!(r.hedges_won >= 1, "the hedge must have won: {r:?}");
    proxy.clear();
}

#[test]
fn graceful_drain_finishes_work_sheds_new_and_closes() {
    let _serial = timing_sensitive();
    let world = serving_world();
    let mut serving = NetServing::over(world.topology(), NetServingConfig::default()).unwrap();
    let client = serving.client();
    let generator = QueryGenerator::new(world.catalog(), 23);

    // Background load while the stack drains: every query either
    // completes with exact accounting, is shed, or fails cleanly because
    // the listener closed under it — never a bogus response.
    let stop = Arc::new(AtomicBool::new(false));
    let bogus = Arc::new(AtomicU64::new(0));
    let answered = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let client = client.clone();
            let stop = Arc::clone(&stop);
            let bogus = Arc::clone(&bogus);
            let answered = Arc::clone(&answered);
            let (q, _) = generator.next_query(world.images(), 3);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(resp) = client.search(q.clone()) {
                        answered.fetch_add(1, Ordering::Relaxed);
                        if resp.partitions_ok
                            + resp.partitions_timed_out
                            + resp.partitions_failed
                            + resp.partitions_shed
                            != resp.partitions_total
                        {
                            bogus.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(100));
    assert!(
        serving.drain(Duration::from_secs(5)),
        "every tier must go idle within the drain timeout"
    );
    stop.store(true, Ordering::SeqCst);
    for t in threads {
        t.join().unwrap();
    }
    assert!(
        answered.load(Ordering::Relaxed) > 0,
        "some queries completed"
    );
    assert_eq!(bogus.load(Ordering::Relaxed), 0, "accounting violated");

    // Drained means *closed*: a fresh client cannot connect.
    let fresh = serving.client();
    let (q, _) = generator.next_query(world.images(), 3);
    assert!(
        fresh.search(q).is_err(),
        "a drained stack must not accept new work"
    );
}

/// Filtered-search satellite: a sales update published through the
/// realtime queue must re-rank *blended* results served over live TCP —
/// the blend stage reads sales from the forward index at response time,
/// so freshness needs no index rebuild and no restart.
#[test]
fn sales_update_over_tcp_reranks_blended_results_without_rebuild() {
    let world = World::build(WorldConfig {
        catalog: CatalogConfig {
            num_products: 60,
            num_clusters: 6,
            ..Default::default()
        },
        topology: TopologyConfig {
            index: IndexConfig {
                dim: 16,
                num_lists: 4,
                nprobe: 4,
                initial_list_capacity: 16,
                ..Default::default()
            },
            num_partitions: 4,
            replicas_per_partition: 1,
            num_broker_groups: 2,
            broker_replicas: 1,
            num_blenders: 2,
            // Normalized-distance blend: similarity ties let sales decide.
            ranking: jdvs::search::RankingPolicy::blend(1.0, 0.05, 0.0, 0.0)
                .with_normalized_distance(),
            ..Default::default()
        },
        seed: 0x5E17,
        ..Default::default()
    });
    let serving = NetServing::over(world.topology(), NetServingConfig::default()).unwrap();
    let client = serving.client();

    // Two distinct products with visually identical images (same synthetic
    // seed): both sit at distance zero from the probe, so only the blend's
    // attribute terms can separate them.
    world.images().put_synthetic("rerank/a.jpg", 777);
    world.images().put_synthetic("rerank/b.jpg", 777);
    for (pid, url) in [(910_000, "rerank/a.jpg"), (910_001, "rerank/b.jpg")] {
        world.topology().publish(ProductEvent::AddProduct {
            product_id: ProductId(pid),
            images: vec![ProductAttributes::new(
                ProductId(pid),
                5,
                100,
                1,
                url.to_string(),
            )],
        });
    }
    world.topology().wait_for_freshness(Duration::from_secs(30));

    let query = SearchQuery::by_image_url("rerank/a.jpg", 5);
    let resp = client.search(query.clone()).unwrap();
    assert_identity(&resp);
    let top2: Vec<ProductId> = resp
        .results
        .iter()
        .take(2)
        .map(|r| r.hit.product_id)
        .collect();
    assert_eq!(
        top2,
        vec![ProductId(910_000), ProductId(910_001)],
        "equal sales: deterministic URL tiebreak puts product a first"
    );

    let records_before: usize = world
        .topology()
        .indexes()
        .iter()
        .flatten()
        .map(|i| i.num_images())
        .sum();

    // One realtime sales tick for product b, straight through the queue.
    world.topology().publish(ProductEvent::UpdateAttributes {
        product_id: ProductId(910_001),
        urls: vec!["rerank/b.jpg".to_string()],
        sales: Some(9_000_000),
        price: None,
        praise: None,
    });
    world.topology().wait_for_freshness(Duration::from_secs(30));

    let resp = client.search(query).unwrap();
    assert_identity(&resp);
    assert_eq!(
        resp.results[0].hit.product_id,
        ProductId(910_001),
        "the sales bump must flip the blended order over TCP"
    );
    assert_eq!(
        resp.results[0].hit.sales, 9_000_000,
        "the blend stage must see the fresh forward-index value"
    );
    let records_after: usize = world
        .topology()
        .indexes()
        .iter()
        .flatten()
        .map(|i| i.num_images())
        .sum();
    assert_eq!(
        records_before, records_after,
        "re-ranking must come from the forward index, not a rebuild"
    );
}

/// Filtered-search smoke for CI: a low-selectivity attribute filter rides
/// the full TCP tier — blender encodes the [`FilterSpec`] into the wire
/// envelope, brokers fan it out, searchers push it down into the block
/// scan — and every hit that comes back satisfies the filter.
#[test]
fn low_selectivity_filtered_query_over_tcp() {
    let world = serving_world();
    let serving = NetServing::over(world.topology(), NetServingConfig::default()).unwrap();
    let client = serving.client();
    let generator = FilteredQueryGenerator::new(world.catalog(), 21);

    // ~5% of the catalog's images admitted; with nprobe == num_lists the
    // searchers scan everything, so the admitted survivors must surface.
    let selectivity = 0.05;
    let threshold = generator.min_sales_for_selectivity(selectivity);
    assert!(
        generator.achieved_selectivity(threshold) <= 0.25,
        "threshold must actually be selective on this catalog"
    );

    for _ in 0..10 {
        let (query, _, spec) = generator.next_filtered_query(world.images(), 5, selectivity);
        assert_eq!(spec.min_sales, Some(threshold));
        let resp = client.search(query).unwrap();
        assert_identity(&resp);
        assert!(
            resp.is_complete(),
            "healthy stack must cover all partitions"
        );
        assert!(
            !resp.results.is_empty(),
            "admitted products exist and every list is probed"
        );
        for r in &resp.results {
            assert!(
                r.hit.sales >= threshold,
                "hit {:?} (sales {}) violates min_sales {threshold}",
                r.hit.product_id,
                r.hit.sales
            );
        }
    }
}

/// Every image URL of the world's catalog.
fn catalog_urls(world: &World) -> Vec<String> {
    world
        .catalog()
        .products()
        .iter()
        .flat_map(|p| p.image_attributes())
        .map(|a| a.url)
        .collect()
}

/// The TCP tiers stand up over the topology's live layout: a bootstrapped
/// replica gets its own listener, a split's sibling gets a row, and every
/// key is served with full coverage of the three partitions.
#[test]
fn net_serving_over_a_split_topology_covers_every_partition() {
    let mut world = World::build(WorldConfig::fast_test());
    world.topology_mut().bootstrap_replica(0);
    let sibling = world
        .topology_mut()
        .split_partition(0)
        .expect("online split")
        .sibling;
    let serving = NetServing::over(world.topology(), NetServingConfig::default()).unwrap();
    assert_eq!(
        serving.searcher_addrs(0).len(),
        2,
        "the bootstrapped replica gets a listener"
    );
    assert_eq!(serving.searcher_addrs(sibling).len(), 2);
    let client = serving.client();
    for url in catalog_urls(&world) {
        let resp = client.search(SearchQuery::by_image_url(&url, 1)).unwrap();
        assert_eq!((resp.partitions_ok, resp.partitions_total), (3, 3), "{url}");
        assert_eq!(resp.results[0].hit.url, url);
    }
}

/// TCP tiers stood up *before* a split do not serve the sibling, and say
/// so: a key they cannot return comes with missing coverage, never with a
/// full-coverage answer.
#[test]
fn stale_net_serving_reports_the_split_gap() {
    let mut world = World::build(WorldConfig::fast_test());
    let serving = NetServing::over(world.topology(), NetServingConfig::default()).unwrap();
    world
        .topology_mut()
        .split_partition(0)
        .expect("online split");
    let client = serving.client();
    let mut lost = 0;
    for url in catalog_urls(&world) {
        let resp = client.search(SearchQuery::by_image_url(&url, 1)).unwrap();
        assert_identity(&resp);
        if resp.results.first().map(|r| r.hit.url.as_str()) != Some(url.as_str()) {
            lost += 1;
            assert!(
                resp.partitions_ok < resp.partitions_total,
                "{url} missing under full coverage: {resp:?}"
            );
        }
    }
    assert!(lost > 0, "the split must move keys out of the stale tiers");
}

/// TCP blenders are built like the topology's own: they share its query
/// cache and its category detector.
#[test]
fn tcp_blenders_share_the_query_cache_and_category_detector() {
    let mut config = WorldConfig::fast_test();
    config.topology.query_cache_capacity = Some(16);
    let world = World::build(config);
    let serving = NetServing::over(world.topology(), NetServingConfig::default()).unwrap();
    let client = serving.client();
    let url = catalog_urls(&world).remove(0);
    for _ in 0..2 {
        let resp = client.search(SearchQuery::by_image_url(&url, 1)).unwrap();
        assert!(resp.detected_category.is_some(), "{resp:?}");
    }
    let stats = world.topology().query_cache_stats().expect("cache on");
    assert!(stats.hits >= 1, "repeated URL query missed: {stats:?}");
}

/// One config behaves the same on every stack: the topology's latency
/// model is charged on each of the three hops — client → blender, blender
/// → broker, broker → searcher — by a stack stood up with
/// `NetServing::over` as by the topology's own.
#[test]
fn every_stack_charges_the_topology_latency_on_each_hop() {
    let hop = Duration::from_millis(40);
    let mut config = WorldConfig::fast_test();
    config.topology.latency = LatencyModel::Constant(hop);
    let world = World::build(config);
    let serving = NetServing::over(world.topology(), NetServingConfig::default()).unwrap();
    let client = serving.client();
    let url = catalog_urls(&world).remove(0);
    let query = SearchQuery::by_image_url(&url, 1);

    let begun = Instant::now();
    let resp = client.search(query.clone()).unwrap();
    let elapsed = begun.elapsed();
    assert_eq!(resp.results[0].hit.url, url);
    assert!(
        elapsed >= hop * 3,
        "three charged hops, answered in {elapsed:?}"
    );

    let begun = Instant::now();
    let resp = world.topology().search(query).unwrap();
    let elapsed = begun.elapsed();
    assert_eq!(resp.results[0].hit.url, url);
    assert!(elapsed >= hop * 3, "the topology's own stack: {elapsed:?}");
}
