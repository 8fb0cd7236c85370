//! The broker service (middle of Figure 10).
//!
//! *"A broker forwards the query to all the searchers it connects to and
//! collects the partial search results from each searcher."* A broker group
//! owns a subset of partitions; each instance holds, per owned partition, a
//! replica-failover [`Balancer`] over that partition's searchers. Fan-out
//! is scatter-gather on the calling thread: the broker *starts* a call on
//! every owned partition (each request is on the wire before any reply is
//! awaited, so the searchers work concurrently), then *finishes* the calls
//! in partition order and merges the partial top-k lists into the group's
//! top-k. Finishing in partition order keeps the merged output independent
//! of which searcher happened to answer first; the fan-out takes as long
//! as its slowest partition.
//!
//! Resilience: when the incoming [`FanoutQuery`] carries a deadline
//! `budget`, each searcher call gets `min(searcher_deadline, 0.9 × budget)`
//! — a straggling blender can never grant searchers more time than the user
//! call has left — and that deadline runs from the partition's own start.
//! Partitions that fail are not silently absent: the merged
//! [`PartialResponse`] accounts for every owned partition as ok, timed out,
//! shed or failed. A failed first attempt fails over inside that
//! partition's finish, while the later partitions' calls are already in
//! flight. With hedging on, a partition still silent `hedge_after` after
//! its start gets a second call on another replica and the first success
//! wins; the fault-free path spawns no thread.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

use jdvs_metrics::ResilienceMetrics;
use jdvs_net::balancer::Balancer;
use jdvs_net::rpc::{CallTarget, RpcError, Service};
use jdvs_vector::topk::TopK;

use crate::protocol::{FanoutQuery, PartialHit, PartialResponse};

/// Fraction of the remaining budget granted to the next hop; the held-back
/// margin pays for the merge and the reply trip.
const BUDGET_MARGIN: f64 = 0.9;

/// One broker instance of a broker group, generic over its calls to the
/// searchers: [`jdvs_net::tcp::TcpChannel`]s when serving (see
/// [`crate::serving::NetBroker`]), or a test's fake.
pub struct BrokerService<T>
where
    T: CallTarget<Request = FanoutQuery, Response = PartialResponse>,
{
    group: usize,
    /// One replica set per owned partition. Growable and shared: an online
    /// partition split appends the new half's balancer here and every
    /// instance of the group picks it up on its next fan-out.
    partitions: Arc<RwLock<Vec<Balancer<T>>>>,
    searcher_deadline: Duration,
    /// When set, a hedged second searcher call is launched for any
    /// partition still unanswered after this long.
    hedge_after: Option<Duration>,
    metrics: Option<Arc<ResilienceMetrics>>,
}

impl<T> std::fmt::Debug for BrokerService<T>
where
    T: CallTarget<Request = FanoutQuery, Response = PartialResponse>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrokerService")
            .field("group", &self.group)
            .field("partitions", &self.partitions.read().len())
            .finish()
    }
}

impl<T> BrokerService<T>
where
    T: CallTarget<Request = FanoutQuery, Response = PartialResponse>,
{
    /// Creates a broker instance for `group` over its partitions' replica
    /// balancers.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is empty.
    pub fn new(group: usize, partitions: Vec<Balancer<T>>, searcher_deadline: Duration) -> Self {
        Self::over(group, Arc::new(RwLock::new(partitions)), searcher_deadline)
    }

    /// Like [`BrokerService::new`], but over an externally-held partition
    /// list. The caller keeps the `Arc` and may push new balancers into it
    /// (replica bootstrap, partition split); fan-outs that start afterwards
    /// cover the new entries.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is empty.
    pub fn over(
        group: usize,
        partitions: Arc<RwLock<Vec<Balancer<T>>>>,
        searcher_deadline: Duration,
    ) -> Self {
        assert!(
            !partitions.read().is_empty(),
            "a broker group must own at least one partition"
        );
        Self {
            group,
            partitions,
            searcher_deadline,
            hedge_after: None,
            metrics: None,
        }
    }

    /// Enables hedged searcher calls after `hedge_after` of silence.
    pub fn with_hedging(mut self, hedge_after: Duration) -> Self {
        self.hedge_after = Some(hedge_after);
        self
    }

    /// Attaches shared resilience counters.
    pub fn with_metrics(mut self, metrics: Arc<ResilienceMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// This instance's broker group.
    pub fn group(&self) -> usize {
        self.group
    }

    /// Partitions owned.
    pub fn num_partitions(&self) -> usize {
        self.partitions.read().len()
    }

    /// Fans `query` out to every owned partition (start all, then finish
    /// in partition order) and merges the partial results into this
    /// group's top-k. Partitions that fail or
    /// time out are absent from the hits but **accounted for** in the
    /// response's coverage fields — degraded never means silent.
    pub fn execute(&self, query: &FanoutQuery) -> PartialResponse {
        let per_call = match query.budget {
            Some(budget) => self.searcher_deadline.min(budget.mul_f64(BUDGET_MARGIN)),
            None => self.searcher_deadline,
        };
        let mut fan = query.clone();
        fan.budget = Some(per_call);
        let hedge_after = self.hedge_after;
        // Snapshot the partition list: a concurrent split's new balancer is
        // either fully in this fan-out or fully in the next one.
        let partitions = self.partitions.read().clone();
        // Scatter: every partition's request is sent before any reply is
        // awaited. Gather: in partition order.
        let in_flight: Vec<_> = partitions
            .iter()
            .map(|balancer| balancer.start(fan.clone(), per_call))
            .collect();
        let responses =
            partitions
                .iter()
                .zip(in_flight)
                .map(|(balancer, call)| match hedge_after {
                    Some(h) if h < per_call => balancer.finish_hedged(call, h),
                    _ => balancer.finish(call),
                });

        let mut topk = TopK::new(query.k.max(1));
        let mut by_key: std::collections::HashMap<u64, PartialHit> =
            std::collections::HashMap::new();
        let mut out = PartialResponse::default();
        for resp in responses {
            match resp {
                Ok(partial) => {
                    out.partitions_ok += partial.partitions_ok;
                    out.partitions_total += partial.partitions_total;
                    out.partitions_timed_out += partial.partitions_timed_out;
                    out.partitions_failed += partial.partitions_failed;
                    out.partitions_shed += partial.partitions_shed;
                    for hit in partial.hits {
                        // Key hits by (partition, local_id) packed into a u64
                        // so the TopK can track them.
                        let key = ((hit.partition as u64) << 32) | u64::from(hit.local_id);
                        if topk.push(key, hit.distance) {
                            by_key.insert(key, hit);
                        }
                    }
                }
                Err(err) => {
                    out.partitions_total += 1;
                    match err {
                        RpcError::Timeout { .. } => {
                            out.partitions_timed_out += 1;
                            if let Some(m) = &self.metrics {
                                m.partitions_timed_out.incr();
                            }
                        }
                        RpcError::Overloaded => {
                            out.partitions_shed += 1;
                            if let Some(m) = &self.metrics {
                                m.partitions_shed.incr();
                            }
                        }
                        _ => {
                            out.partitions_failed += 1;
                            if let Some(m) = &self.metrics {
                                m.partitions_failed.incr();
                            }
                        }
                    }
                }
            }
        }
        out.hits = topk
            .into_sorted_vec()
            .into_iter()
            .filter_map(|n| by_key.remove(&n.id))
            .collect();
        out
    }
}

impl<T> Service for BrokerService<T>
where
    T: CallTarget<Request = FanoutQuery, Response = PartialResponse>,
{
    type Request = FanoutQuery;
    type Response = PartialResponse;

    fn handle(&self, req: FanoutQuery) -> PartialResponse {
        self.execute(&req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::searcher::SearcherService;
    use crate::serving::testing::fanout_tier;
    use crate::serving::{fanout_channel, FanoutChannel};
    use jdvs_core::{IndexConfig, VisualIndex};
    use jdvs_net::tcp::TcpTier;
    use jdvs_storage::model::{ProductAttributes, ProductId};
    use jdvs_vector::rng::Xoshiro256;
    use jdvs_vector::Vector;

    const DIM: usize = 8;
    const DL: Duration = Duration::from_secs(5);

    fn fanout(features: Vec<f32>, k: usize) -> FanoutQuery {
        FanoutQuery {
            features,
            k,
            nprobe: Some(2),
            compressed: false,
            budget: None,
            filter: None,
        }
    }

    fn make_index(seed: u64, ids: std::ops::Range<u64>) -> Arc<VisualIndex> {
        let mut rng = Xoshiro256::seed_from(seed);
        let train: Vec<Vector> = (0..32)
            .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let index = Arc::new(VisualIndex::bootstrap(
            IndexConfig {
                dim: DIM,
                num_lists: 2,
                nprobe: 2,
                ..Default::default()
            },
            &train,
        ));
        for i in ids {
            let v: Vector = (0..DIM).map(|_| rng.next_gaussian() as f32).collect();
            index
                .insert(
                    v,
                    ProductAttributes::new(ProductId(i), 0, 0, 0, format!("u{i}")),
                )
                .unwrap();
        }
        index.flush();
        index
    }

    type Searcher = TcpTier<SearcherService>;

    /// A searcher listener serving `index` as partition `p`.
    fn searcher(name: &str, p: usize, index: &Arc<VisualIndex>) -> Searcher {
        fanout_tier(name, SearcherService::for_index(p, Arc::clone(index)))
    }

    /// Builds a 2-partition broker; returns (broker, partition indexes,
    /// searcher listeners kept alive).
    fn make_broker() -> (
        BrokerService<FanoutChannel>,
        Vec<Arc<VisualIndex>>,
        Vec<Searcher>,
    ) {
        let mut tiers = Vec::new();
        let mut balancers = Vec::new();
        let mut indexes = Vec::new();
        for p in 0..2usize {
            let index = make_index(p as u64 + 1, (p as u64 * 100)..(p as u64 * 100 + 50));
            let tier = searcher(&format!("searcher-{p}-0"), p, &index);
            balancers.push(Balancer::new(vec![fanout_channel(&tier)]));
            indexes.push(index);
            tiers.push(tier);
        }
        (BrokerService::new(0, balancers, DL), indexes, tiers)
    }

    #[test]
    fn merges_partial_results_across_partitions() {
        let (broker, indexes, _tiers) = make_broker();
        // Query with partition-1's image 10 → global best must come from p1.
        let feats = indexes[1].features(jdvs_core::ids::ImageId(10)).unwrap();
        let resp = broker.execute(&fanout(feats.into_inner(), 8));
        assert_eq!(resp.hits.len(), 8);
        assert_eq!(resp.hits[0].partition, 1);
        assert_eq!(resp.hits[0].local_id, 10);
        // Hits from both partitions appear (both have images).
        let partitions: std::collections::HashSet<usize> =
            resp.hits.iter().map(|h| h.partition).collect();
        assert!(!partitions.is_empty());
        for w in resp.hits.windows(2) {
            assert!(w[0].distance <= w[1].distance, "merged list stays sorted");
        }
        assert!(resp.is_complete(), "both partitions answered");
        assert_eq!((resp.partitions_ok, resp.partitions_total), (2, 2));
        assert_eq!(resp.partitions_timed_out + resp.partitions_failed, 0);
    }

    #[test]
    fn tolerates_a_dead_partition_and_accounts_for_it() {
        let (broker, indexes, tiers) = make_broker();
        tiers[0].faults().set_down(true);
        let feats = indexes[1].features(jdvs_core::ids::ImageId(0)).unwrap();
        let resp = broker.execute(&fanout(feats.into_inner(), 5));
        assert!(!resp.hits.is_empty(), "partition 1 still answers");
        assert!(resp.hits.iter().all(|h| h.partition == 1));
        assert!(
            !resp.is_complete(),
            "the dead partition must be accounted for"
        );
        assert_eq!((resp.partitions_ok, resp.partitions_total), (1, 2));
        assert_eq!(resp.partitions_failed, 1);
        assert_eq!(resp.partitions_timed_out, 0);
    }

    #[test]
    fn budget_bounds_the_searcher_deadline() {
        let (broker, indexes, tiers) = make_broker();
        // A straggling replica plus a tiny budget: the broker must cut the
        // searcher call at ~0.9 × budget, not wait the full 5 s deadline.
        tiers[0].faults().set_slowdown(Duration::from_millis(500));
        let feats = indexes[1].features(jdvs_core::ids::ImageId(0)).unwrap();
        let mut q = fanout(feats.into_inner(), 5);
        q.budget = Some(Duration::from_millis(80));
        let start = std::time::Instant::now();
        let resp = broker.execute(&q);
        let elapsed = start.elapsed();
        // The slowdown delays delivery client-side; either way the response
        // arrives near the budget, with the straggler partition accounted.
        assert!(
            elapsed < Duration::from_secs(2),
            "budget must bound the fan-out: took {elapsed:?}"
        );
        assert_eq!(resp.partitions_total, 2);
        assert!(
            resp.partitions_ok >= 1,
            "healthy partition answered: {resp:?}"
        );
    }

    #[test]
    fn metrics_count_lost_partitions() {
        let (broker, indexes, tiers) = make_broker();
        let m = Arc::new(ResilienceMetrics::new());
        let broker = broker.with_metrics(Arc::clone(&m));
        tiers[1].faults().set_down(true);
        let feats = indexes[0].features(jdvs_core::ids::ImageId(0)).unwrap();
        let _ = broker.execute(&fanout(feats.into_inner(), 3));
        assert_eq!(m.snapshot().partitions_failed, 1);
    }

    #[test]
    fn replica_failover_inside_a_partition() {
        // Partition with two replicas; kill one; broker still answers.
        let index = make_index(9, 0..30);
        let n0 = searcher("s-0-a", 0, &index);
        let n1 = searcher("s-0-b", 0, &index);
        let broker = BrokerService::new(
            0,
            vec![Balancer::new(vec![
                fanout_channel(&n0),
                fanout_channel(&n1),
            ])],
            DL,
        );
        n0.faults().set_down(true);
        let feats = index.features(jdvs_core::ids::ImageId(3)).unwrap();
        let resp = broker.execute(&fanout(feats.into_inner(), 1));
        assert_eq!(resp.hits[0].local_id, 3);
        assert!(resp.is_complete(), "failover kept the partition covered");
    }

    #[test]
    fn pushed_partition_joins_the_next_fanout() {
        let index0 = make_index(21, 0..20);
        let n0 = searcher("grow-0", 0, &index0);
        let shared = Arc::new(RwLock::new(vec![Balancer::new(vec![fanout_channel(&n0)])]));
        let broker = BrokerService::over(0, Arc::clone(&shared), DL);
        let feats = index0.features(jdvs_core::ids::ImageId(1)).unwrap();
        let resp = broker.execute(&fanout(feats.clone().into_inner(), 4));
        assert_eq!(resp.partitions_total, 1);

        // A split lands: the new half's balancer is pushed in from outside.
        let index1 = make_index(22, 100..120);
        let n1 = searcher("grow-1", 1, &index1);
        shared
            .write()
            .push(Balancer::new(vec![fanout_channel(&n1)]));
        let resp = broker.execute(&fanout(feats.into_inner(), 4));
        assert_eq!(resp.partitions_total, 2, "new partition covered");
        assert_eq!(resp.partitions_ok, 2);
    }

    #[test]
    fn hedging_recovers_a_straggling_replica() {
        let index = make_index(11, 0..30);
        let slow = searcher("s-slow", 0, &index);
        let fast = searcher("s-fast", 0, &index);
        slow.faults().set_slowdown(Duration::from_millis(400));
        let m = Arc::new(ResilienceMetrics::new());
        let balancer = Balancer::new(vec![fanout_channel(&slow), fanout_channel(&fast)])
            .with_metrics(Arc::clone(&m));
        let broker =
            BrokerService::new(0, vec![balancer], DL).with_hedging(Duration::from_millis(25));
        let feats = index.features(jdvs_core::ids::ImageId(3)).unwrap();
        let start = std::time::Instant::now();
        let resp = broker.execute(&fanout(feats.into_inner(), 1));
        let elapsed = start.elapsed();
        assert_eq!(resp.hits[0].local_id, 3);
        assert!(
            elapsed < Duration::from_millis(350),
            "hedge must beat the straggler: took {elapsed:?}"
        );
        let snap = m.snapshot();
        assert_eq!((snap.hedges_launched, snap.hedges_won), (1, 1));
    }

    #[test]
    fn slowed_branches_of_one_fanout_overlap() {
        let (broker, indexes, tiers) = make_broker();
        for tier in &tiers {
            tier.faults().set_slowdown(Duration::from_millis(100));
        }
        let feats = indexes[0].features(jdvs_core::ids::ImageId(2)).unwrap();
        let start = std::time::Instant::now();
        let resp = broker.execute(&fanout(feats.into_inner(), 4));
        let elapsed = start.elapsed();
        assert!(resp.is_complete());
        assert!(
            elapsed >= Duration::from_millis(100),
            "each branch still pays its delay: {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_millis(180),
            "two 100 ms branches must overlap, not add up: took {elapsed:?}"
        );
    }

    #[test]
    fn no_hedge_is_launched_when_every_primary_answers_in_time() {
        let index = make_index(12, 0..30);
        let replicas: Vec<_> = (0..2)
            .map(|r| searcher(&format!("calm-{r}"), 0, &index))
            .collect();
        let m = Arc::new(ResilienceMetrics::new());
        let balancer = Balancer::new(replicas.iter().map(fanout_channel).collect())
            .with_metrics(Arc::clone(&m));
        let broker = BrokerService::new(0, vec![balancer], DL)
            .with_hedging(Duration::from_millis(500))
            .with_metrics(Arc::clone(&m));
        let feats = index.features(jdvs_core::ids::ImageId(3)).unwrap();
        for _ in 0..10 {
            let resp = broker.execute(&fanout(feats.clone().into_inner(), 1));
            assert_eq!(resp.hits[0].local_id, 3);
        }
        assert_eq!(m.snapshot().hedges_launched, 0);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn empty_partitions_panics() {
        BrokerService::<FanoutChannel>::new(0, vec![], DL);
    }
}
