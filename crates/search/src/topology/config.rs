//! [`TopologyConfig`]: the shape and behaviour of the serving stack.

use std::sync::Arc;
use std::time::Duration;

use jdvs_core::IndexConfig;
use jdvs_net::latency::LatencyModel;
use jdvs_net::{HealthPolicy, RetryPolicy};

use crate::partition::PartitionMap;
use crate::ranking::RankingPolicy;

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
    /// Per-hop latency model: every channel to a listener of every stack
    /// over this topology charges one sample per call.
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
    /// Brokers hedge a partition's searcher call that has not answered
    /// after this long: a second call races it on another replica and the
    /// first answer wins. `None` disables hedging.
    ///
    /// Defaults to 150ms — comfortably above the healthy searcher tail in
    /// the simulated latency model, so hedges fire only on genuine
    /// stragglers and the duplicate-call rate stays near zero in the
    /// steady state.
    pub hedge_after: Option<Duration>,
    /// [`SearchTopology::bootstrap_replica`](super::SearchTopology::bootstrap_replica)
    /// tails the live log without pausing ingestion until the new replica
    /// is within this many events of the queue head; only the final gap is
    /// drained under the quiesce. Bounds a bootstrap's stop-the-partition
    /// window.
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
            latency: LatencyModel::Zero,
            searcher_deadline: Duration::from_secs(5),
            broker_deadline: Duration::from_secs(10),
            realtime_indexing: true,
            ranking: RankingPolicy::default(),
            query_cache_capacity: None,
            category_detector: None,
            health: HealthPolicy::default(),
            retry: RetryPolicy::default(),
            hedge_after: Some(Duration::from_millis(150)),
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
        // PartitionMap::new enforces the group/partition relationship.
        let _ = PartitionMap::new(self.num_partitions, self.num_broker_groups);
    }
}
