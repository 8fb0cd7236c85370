//! Scatter-gather equivalence: a broker's or blender's fan-out (start every
//! branch, finish them in order) returns bit for bit what finishing one
//! sequential `call` per branch in that order returns — hits, their order
//! and the coverage counters — including when one branch is down, one is
//! shedding and one times out. Runs over real sockets, because only a TCP
//! tier's admission control can shed.

use std::sync::Arc;
use std::time::Duration;

use jdvs_core::{IndexConfig, VisualIndex};
use jdvs_features::cost::CostModel;
use jdvs_features::{CachingExtractor, ExtractorConfig, FeatureExtractor};
use jdvs_net::rpc::{RpcError, Service};
use jdvs_net::{AdmissionConfig, Balancer, HealthPolicy, RetryPolicy, TcpChannel, TcpTier};
use jdvs_search::blender::BlenderService;
use jdvs_search::broker::BrokerService;
use jdvs_search::protocol::{FanoutQuery, PartialHit, PartialResponse, SearchQuery};
use jdvs_search::searcher::SearcherService;
use jdvs_search::{wire, RankingPolicy};
use jdvs_storage::model::{ProductAttributes, ProductId};
use jdvs_storage::ImageStore;
use jdvs_vector::rng::Xoshiro256;
use jdvs_vector::Vector;

const DIM: usize = 8;
/// Per-branch deadline; the straggling branch sleeps well past it.
const DEADLINE: Duration = Duration::from_millis(150);
const STRAGGLE: Duration = Duration::from_millis(700);

type Channel = TcpChannel<FanoutQuery, PartialResponse>;

/// A searcher that can be told to straggle.
struct Searcher {
    inner: SearcherService,
    delay: Duration,
}

impl Service for Searcher {
    type Request = FanoutQuery;
    type Response = PartialResponse;

    fn handle(&self, req: FanoutQuery) -> PartialResponse {
        std::thread::sleep(self.delay);
        self.inner.execute(&req)
    }
}

fn index(rng: &mut Xoshiro256, partition: usize, images: usize) -> Arc<VisualIndex> {
    let mut vector = || -> Vector { (0..DIM).map(|_| rng.next_gaussian() as f32).collect() };
    let train: Vec<Vector> = (0..32).map(|_| vector()).collect();
    let index = Arc::new(VisualIndex::bootstrap(
        IndexConfig {
            dim: DIM,
            num_lists: 2,
            nprobe: 2,
            ..Default::default()
        },
        &train,
    ));
    for i in 0..images {
        let id = (partition * 1000 + i) as u64;
        let attrs =
            ProductAttributes::new(ProductId(id), id % 7, 10 + id % 5, id % 3, format!("u{id}"));
        index.insert(vector(), attrs).unwrap();
    }
    index.flush();
    index
}

/// One seeded world: `branches` searcher tiers, of which (by position after
/// a seeded shuffle) one is crashed, one is draining (sheds everything),
/// one straggles past the deadline, and the rest answer.
struct World {
    _tiers: Vec<TcpTier<Searcher>>,
    /// One single-replica balancer per branch, in branch order. `Balancer`
    /// clones share state, so the service under test and the sequential
    /// reference see the same breakers.
    balancers: Vec<Balancer<Channel>>,
    query: Vec<f32>,
    k: usize,
}

fn world(seed: u64) -> World {
    let mut rng = Xoshiro256::seed_from(seed);
    let branches = 4 + (seed as usize) % 3;
    let mut roles: Vec<usize> = (0..branches).collect();
    for i in (1..branches).rev() {
        roles.swap(i, rng.next_u64() as usize % (i + 1));
    }
    let (down, shedding, straggling) = (roles[0], roles[1], roles[2]);

    let mut tiers = Vec::new();
    let mut balancers = Vec::new();
    for p in 0..branches {
        let images = 20 + rng.next_u64() as usize % 40;
        let service = Searcher {
            inner: SearcherService::for_index(p, index(&mut rng, p, images)),
            delay: if p == straggling {
                STRAGGLE
            } else {
                Duration::ZERO
            },
        };
        let tier = TcpTier::spawn(
            &format!("sg-{seed}-{p}"),
            service,
            |b| wire::decode_fanout_query(b).ok(),
            wire::encode_partial_response,
            AdmissionConfig::default(),
        )
        .unwrap();
        if p == shedding {
            tier.admission().start_draining();
        }
        let channel = TcpChannel::new(
            format!("sg-{seed}-{p}-ch"),
            tier.local_addr(),
            wire::encode_fanout_query,
            |b| wire::decode_partial_response(b).ok(),
        );
        balancers.push(Balancer::with_policies(
            vec![channel],
            HealthPolicy::disabled(),
            RetryPolicy::no_retry(),
            seed,
        ));
        tiers.push(tier);
    }
    // Crashed only once every tier is bound: a port freed earlier could be
    // handed to a later tier, and the down branch would answer as that one.
    tiers[down].crash();
    World {
        _tiers: tiers,
        balancers,
        query: (0..DIM).map(|_| rng.next_gaussian() as f32).collect(),
        k: [1, 5, 20][seed as usize % 3],
    }
}

/// One sequential `call` per branch, in branch order.
fn sequential(world: &World, fanout: &FanoutQuery) -> Vec<Result<PartialResponse, RpcError>> {
    world
        .balancers
        .iter()
        .map(|b| b.call(fanout.clone(), DEADLINE))
        .collect()
}

fn outcome_counts(results: &[Result<PartialResponse, RpcError>]) -> (usize, usize, usize, usize) {
    let count =
        |f: fn(&Result<PartialResponse, RpcError>) -> bool| results.iter().filter(|r| f(r)).count();
    (
        count(|r| r.is_ok()),
        count(|r| matches!(r, Err(RpcError::Timeout { .. }))),
        count(|r| matches!(r, Err(RpcError::Overloaded))),
        count(|r| matches!(r, Err(RpcError::NodeDown))),
    )
}

#[test]
fn broker_fanout_equals_sequential_calls_in_partition_order() {
    for seed in 0..4 {
        let w = world(seed);
        let fanout = FanoutQuery {
            features: w.query.clone(),
            k: w.k,
            nprobe: Some(2),
            compressed: false,
            budget: Some(DEADLINE),
            filter: None,
        };
        let results = sequential(&w, &fanout);
        let (ok, timed_out, shed, failed) = outcome_counts(&results);
        assert_eq!(
            (timed_out, shed, failed),
            (1, 1, 1),
            "seed {seed}: {results:?}"
        );

        // The merge, written out independently: the k nearest of all hits
        // in (distance, partition, local id) order.
        let mut hits: Vec<PartialHit> =
            results.into_iter().flatten().flat_map(|r| r.hits).collect();
        hits.sort_by(|a, b| {
            (a.distance.total_cmp(&b.distance))
                .then(a.partition.cmp(&b.partition))
                .then(a.local_id.cmp(&b.local_id))
        });
        hits.truncate(w.k);
        let expected = PartialResponse {
            hits,
            partitions_ok: ok,
            partitions_total: w.balancers.len(),
            partitions_timed_out: 1,
            partitions_failed: 1,
            partitions_shed: 1,
        };

        // Without a budget of its own the broker grants each searcher its
        // configured deadline, and stamps that as the searcher's budget.
        let mut query = fanout.clone();
        query.budget = None;
        let broker = BrokerService::new(0, w.balancers.clone(), DEADLINE);
        let begun = std::time::Instant::now();
        let got = broker.execute(&query);
        assert_eq!(got, expected, "seed {seed}");
        assert!(
            begun.elapsed() < DEADLINE * 2,
            "seed {seed}: branches did not overlap: {:?}",
            begun.elapsed()
        );
    }
}

#[test]
fn blender_fanout_equals_sequential_calls_in_group_order() {
    let extractor = Arc::new(CachingExtractor::new(
        FeatureExtractor::new(ExtractorConfig {
            dim: DIM,
            ..Default::default()
        }),
        CostModel::free(),
    ));
    for seed in 10..14 {
        // Each searcher tier stands in for a broker group of one
        // partition: it speaks the same fan-out protocol.
        let w = world(seed);
        let ranking = RankingPolicy::default();
        let query = SearchQuery::by_features(w.query.clone(), w.k).with_nprobe(2);
        let fanout = FanoutQuery {
            features: w.query.clone(),
            k: w.k,
            nprobe: Some(2),
            compressed: false,
            budget: None,
            filter: None,
        };
        let results = sequential(&w, &fanout);
        let (ok, timed_out, shed, failed) = outcome_counts(&results);
        assert_eq!(
            (timed_out, shed, failed),
            (1, 1, 1),
            "seed {seed}: {results:?}"
        );
        let hits: Vec<PartialHit> = results.into_iter().flatten().flat_map(|r| r.hits).collect();
        let expected_results = ranking.rank(hits, w.k);

        let groups = w.balancers.len();
        let blender = BlenderService::new(
            w.balancers.clone(),
            Arc::clone(&extractor),
            Arc::new(ImageStore::new()),
            ranking,
            DEADLINE,
        )
        .with_group_partitions(vec![1; groups]);
        let got = blender.execute(&query);
        assert_eq!(got.results, expected_results, "seed {seed}");
        assert_eq!(
            (got.groups_answered, got.groups_failed),
            (ok, 3),
            "seed {seed}"
        );
        assert_eq!(
            (
                got.partitions_ok,
                got.partitions_timed_out,
                got.partitions_failed,
                got.partitions_shed,
                got.partitions_total
            ),
            (ok, 1, 1, 1, groups),
            "seed {seed}"
        );
    }
}
