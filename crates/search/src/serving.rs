//! Network-native serving: the three tiers as independent TCP services.
//!
//! [`NetServing::over`] stands the Blender → Broker → Searcher hierarchy
//! up as real socket listeners ([`jdvs_net::tcp::TcpTier`]) sharing an
//! existing [`SearchTopology`]'s hot-swappable partition indexes, image
//! store and extractor — one searcher listener per replica of its live
//! replica table, blenders from its own blender constructor — so real-time
//! indexing, checkpointing and rebuild keep operating on the same data the
//! network tiers serve, and a split made after `over` shows up as missing
//! coverage rather than as a silently smaller answer.
//!
//! Every tier sits behind its own admission controller (token-bucket rate
//! limit, bounded queue with deadline-aware shedding, concurrency cap):
//! under overload the tier answers a fast `Overloaded` rejection instead
//! of queueing into collapse, and the PR 1 resilience machinery — retries
//! with jittered backoff, per-target circuit breakers, hedged broker
//! calls, degraded-result accounting — runs unchanged over the sockets
//! because [`jdvs_net::tcp::TcpChannel`] implements the same
//! [`jdvs_net::rpc::CallTarget`] contract as in-process node handles.
//!
//! Tiers are independent: each can be drained (graceful: in-flight work
//! answered, new work shed, then the listener closes) or crashed
//! (connections severed mid-frame, connects refused) without touching the
//! others — the integration tests drive exactly those scenarios.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use jdvs_metrics::{ResilienceMetrics, ServingMetrics, ServingSnapshot};
use jdvs_net::admission::AdmissionConfig;
use jdvs_net::balancer::Balancer;
use jdvs_net::rpc::Service;
use jdvs_net::tcp::{TcpChannel, TcpTier};

use crate::batch::{BatchConfig, BatchingSearcher};
use crate::blender::BlenderService;
use crate::broker::BrokerService;
use crate::client::SearchClient;
use crate::protocol::{FanoutQuery, PartialResponse, SearchQuery, SearchResponse};
use crate::searcher::SearcherService;
use crate::topology::SearchTopology;
use crate::wire;

/// A broker whose searcher calls travel over TCP.
pub type NetBroker = BrokerService<TcpChannel<FanoutQuery, PartialResponse>>;
/// A blender whose broker calls travel over TCP.
pub type NetBlender = BlenderService<TcpChannel<FanoutQuery, PartialResponse>>;
/// A user client whose blender calls travel over TCP.
pub type NetClient = SearchClient<TcpChannel<SearchQuery, SearchResponse>>;

/// Admission tuning for the three tiers plus the client deadline.
#[derive(Debug, Clone)]
pub struct NetServingConfig {
    /// Front door of every blender listener (the user-facing tier — this
    /// is where offered load first meets admission control).
    pub blender_admission: AdmissionConfig,
    /// Front door of every broker listener.
    pub broker_admission: AdmissionConfig,
    /// Front door of every searcher listener.
    pub searcher_admission: AdmissionConfig,
    /// Micro-batching policy at the searcher input (behind admission, in
    /// front of the engine). Disabled by default — see
    /// [`BatchConfig::disabled`].
    pub searcher_batch: BatchConfig,
    /// End-to-end deadline stamped by [`NetServing::client`].
    pub client_deadline: Duration,
    /// Hedge brokers' slow searcher calls: when a partition's first call
    /// has not answered after this long, a second call races it on
    /// another replica and the first answer wins. `None` disables
    /// hedging. Falls back to the wrapped topology's
    /// [`TopologyConfig::hedge_after`](crate::topology::TopologyConfig)
    /// when unset there too.
    ///
    /// Defaults to 150ms — comfortably above the healthy searcher tail in
    /// the simulated latency model, so hedges fire only on genuine
    /// stragglers and the duplicate-call rate stays near zero in the
    /// steady state.
    pub hedge_after: Option<Duration>,
}

impl Default for NetServingConfig {
    fn default() -> Self {
        Self {
            blender_admission: AdmissionConfig {
                max_concurrency: 8,
                queue_capacity: 64,
                ..AdmissionConfig::default()
            },
            broker_admission: AdmissionConfig {
                max_concurrency: 16,
                queue_capacity: 128,
                ..AdmissionConfig::default()
            },
            searcher_admission: AdmissionConfig {
                max_concurrency: 16,
                queue_capacity: 128,
                ..AdmissionConfig::default()
            },
            searcher_batch: BatchConfig::disabled(),
            client_deadline: Duration::from_secs(5),
            hedge_after: Some(Duration::from_millis(150)),
        }
    }
}

// Wire-codec adapters with the exact fn-pointer shapes the TCP layer
// takes. Decode failures surface as `None` → an error envelope (server) or
// a failed call (client), never a panic.

fn decode_fanout(b: &[u8]) -> Option<FanoutQuery> {
    wire::decode_fanout_query(b).ok()
}
fn encode_fanout(q: &FanoutQuery) -> Vec<u8> {
    wire::encode_fanout_query(q)
}
fn decode_partial(b: &[u8]) -> Option<PartialResponse> {
    wire::decode_partial_response(b).ok()
}
fn encode_partial(p: &PartialResponse) -> Vec<u8> {
    wire::encode_partial_response(p)
}
fn decode_query(b: &[u8]) -> Option<SearchQuery> {
    wire::decode_search_query(b).ok()
}
fn encode_query(q: &SearchQuery) -> Vec<u8> {
    wire::encode_search_query(q)
}
fn decode_search_resp(b: &[u8]) -> Option<SearchResponse> {
    wire::decode_search_response(b).ok()
}
fn encode_search_resp(s: &SearchResponse) -> Vec<u8> {
    wire::encode_search_response(s)
}

/// A channel dialing `tier` with the fan-out codec (broker → searcher and
/// blender → broker).
fn fanout_channel<S: Service>(tier: &TcpTier<S>) -> TcpChannel<FanoutQuery, PartialResponse> {
    let name = format!("{}-ch", tier.name());
    TcpChannel::new(name, tier.local_addr(), encode_fanout, decode_partial)
}

/// One searcher replica's listener and the micro-batcher behind it (kept
/// so a drain can flush forming batches immediately).
struct NetSearcher {
    tier: TcpTier<Arc<BatchingSearcher>>,
    batcher: Arc<BatchingSearcher>,
}

/// The three tiers running as TCP services over a topology's indexes.
pub struct NetServing {
    /// `[partition][replica]` searcher rows, laid out like the topology's
    /// replica table when the tiers were stood up.
    searchers: Vec<Vec<NetSearcher>>,
    /// `[group][instance]` broker listeners.
    brokers: Vec<Vec<TcpTier<NetBroker>>>,
    /// Blender listeners.
    blenders: Vec<TcpTier<NetBlender>>,
    /// Resilience counters shared by every balancer in the network stack
    /// (separate from the wrapped topology's in-process counters).
    resilience: Arc<ResilienceMetrics>,
    client_deadline: Duration,
}

impl std::fmt::Debug for NetServing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServing")
            .field("searcher_tiers", &self.searchers.len())
            .field("broker_tiers", &self.brokers.len())
            .field("blender_tiers", &self.blenders.len())
            .finish()
    }
}

impl NetServing {
    /// Stands the three TCP tiers up over `topology`'s partition indexes,
    /// one searcher listener per replica of its live replica table (splits
    /// and bootstraps included).
    ///
    /// The topology keeps running as built (its own in-process nodes,
    /// real-time indexers, durability); the network tiers serve the *same*
    /// hot-swappable index handles, so events published to the topology's
    /// queue become visible to network queries at indexing speed.
    ///
    /// # Errors
    ///
    /// Propagates listener bind errors.
    pub fn over(topology: &SearchTopology, config: NetServingConfig) -> io::Result<Self> {
        let tc = topology.config();
        let pmap = topology.partition_map();
        let resilience = Arc::new(ResilienceMetrics::new());

        // --- Searcher tier: one listener per (partition, replica), each
        // fronted by a micro-batcher sharing the tier's metrics so batch
        // depth/wait histograms land in the serving snapshot. ------------
        let mut searchers = Vec::new();
        for p in 0..pmap.num_partitions() {
            let mut row = Vec::new();
            for r in 0..topology.num_replicas(p) {
                let metrics = Arc::new(ServingMetrics::new());
                let batcher = Arc::new(BatchingSearcher::new(
                    SearcherService::new(p, Arc::clone(topology.handle(p, r))),
                    config.searcher_batch,
                    Arc::clone(&metrics),
                ));
                let tier = TcpTier::spawn_with_metrics(
                    &format!("net-searcher-{p}-{r}"),
                    Arc::clone(&batcher),
                    decode_fanout,
                    encode_partial,
                    config.searcher_admission.clone(),
                    metrics,
                )?;
                row.push(NetSearcher { tier, batcher });
            }
            searchers.push(row);
        }

        // --- Broker tier: instances fan out to searchers over TCP. ------
        let mut brokers: Vec<Vec<TcpTier<NetBroker>>> = Vec::new();
        for g in 0..pmap.num_broker_groups() {
            let mut instances = Vec::new();
            for b in 0..tc.broker_replicas {
                let balancers: Vec<Balancer<TcpChannel<FanoutQuery, PartialResponse>>> = pmap
                    .partitions_of_group(g)
                    .into_iter()
                    .map(|p| {
                        let channels = searchers[p].iter().map(|s| fanout_channel(&s.tier));
                        Balancer::with_policies(
                            channels.collect(),
                            tc.health,
                            tc.retry,
                            tc.seed ^ 0x7C9 ^ ((g as u64) << 24) ^ ((b as u64) << 12) ^ p as u64,
                        )
                        .with_metrics(Arc::clone(&resilience))
                    })
                    .collect();
                let mut service = BrokerService::new(g, balancers, tc.searcher_deadline)
                    .with_metrics(Arc::clone(&resilience));
                // The serving config's knob wins; the topology's is the
                // fallback (it defaults to `None`, which used to leave
                // hedging silently off for every NetServing user).
                if let Some(hedge_after) = config.hedge_after.or(tc.hedge_after) {
                    service = service.with_hedging(hedge_after);
                }
                instances.push(TcpTier::spawn(
                    &format!("net-broker-{g}-{b}"),
                    service,
                    decode_fanout,
                    encode_partial,
                    config.broker_admission.clone(),
                )?);
            }
            brokers.push(instances);
        }

        // --- Blender tier. ----------------------------------------------
        let mut blenders = Vec::new();
        for i in 0..tc.num_blenders {
            let groups = brokers
                .iter()
                .enumerate()
                .map(|(g, instances)| {
                    Balancer::with_policies(
                        instances.iter().map(fanout_channel).collect(),
                        tc.health,
                        tc.retry,
                        tc.seed ^ 0x7CA ^ ((i as u64) << 24) ^ g as u64,
                    )
                    .with_metrics(Arc::clone(&resilience))
                })
                .collect();
            blenders.push(TcpTier::spawn(
                &format!("net-blender-{i}"),
                topology.blender(groups, &resilience),
                decode_query,
                encode_search_resp,
                config.blender_admission.clone(),
            )?);
        }

        Ok(Self {
            searchers,
            brokers,
            blenders,
            resilience,
            client_deadline: config.client_deadline,
        })
    }

    /// A user client dialing the blender tier over TCP, with the same
    /// balancer policies (failover, breakers) the in-process front end
    /// uses.
    pub fn client(&self) -> NetClient {
        let channels = self
            .blenders
            .iter()
            .map(|tier| {
                TcpChannel::new(
                    format!("{}-ch", tier.name()),
                    tier.local_addr(),
                    encode_query,
                    decode_search_resp,
                )
            })
            .collect();
        let frontend = Arc::new(Balancer::new(channels).with_metrics(Arc::clone(&self.resilience)));
        SearchClient::new(frontend, self.client_deadline)
    }

    /// Resilience counters of the network serving path (balancer retries,
    /// breaker opens, shed/failed partition accounting).
    pub fn resilience_metrics(&self) -> &Arc<ResilienceMetrics> {
        &self.resilience
    }

    /// Addresses of the blender listeners (e.g. to aim a fault proxy at).
    pub fn blender_addrs(&self) -> Vec<SocketAddr> {
        self.blenders.iter().map(TcpTier::local_addr).collect()
    }

    /// Addresses of broker group `g`'s instances.
    pub fn broker_addrs(&self, g: usize) -> Vec<SocketAddr> {
        self.brokers[g].iter().map(TcpTier::local_addr).collect()
    }

    /// Addresses of partition `p`'s searcher replicas.
    pub fn searcher_addrs(&self, p: usize) -> Vec<SocketAddr> {
        self.searchers[p]
            .iter()
            .map(|s| s.tier.local_addr())
            .collect()
    }

    /// Aggregated serving snapshot of the blender tier (admissions, sheds,
    /// queue/concurrency high-water marks summed over listeners).
    pub fn blender_serving(&self) -> ServingSnapshot {
        sum_snapshots(self.blenders.iter().map(|t| t.metrics().snapshot()))
    }

    /// Aggregated serving snapshot of the broker tier.
    pub fn broker_serving(&self) -> ServingSnapshot {
        sum_snapshots(
            self.brokers
                .iter()
                .flatten()
                .map(|t| t.metrics().snapshot()),
        )
    }

    /// Aggregated serving snapshot of the searcher tier.
    pub fn searcher_serving(&self) -> ServingSnapshot {
        sum_snapshots(
            self.searchers
                .iter()
                .flatten()
                .map(|s| s.tier.metrics().snapshot()),
        )
    }

    /// Crashes one searcher replica's listener: connections severed, new
    /// connects refused. The wrapped topology (and its indexers) keep
    /// running.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn crash_searcher(&mut self, partition: usize, replica: usize) {
        self.searchers[partition][replica].tier.crash();
    }

    /// Crashes one broker instance's listener.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn crash_broker(&mut self, group: usize, instance: usize) {
        self.brokers[group][instance].crash();
    }

    /// Gracefully drains one blender listener (in-flight answered, new
    /// requests shed with `Draining`, then the listener closes).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn drain_blender(&mut self, i: usize, timeout: Duration) -> bool {
        self.blenders[i].drain(timeout)
    }

    /// Gracefully drains the whole stack top-down: blenders first (user
    /// traffic stops being admitted), then brokers, then searchers — so a
    /// lower tier never disappears under an upper tier's in-flight work.
    ///
    /// Returns `true` if every tier went idle within its `timeout`.
    pub fn drain(&mut self, timeout: Duration) -> bool {
        let mut idle = true;
        for tier in &mut self.blenders {
            idle &= tier.drain(timeout);
        }
        for tier in self.brokers.iter_mut().flatten() {
            idle &= tier.drain(timeout);
        }
        // Flush forming batches before draining the listeners, so a drain
        // never waits out a batch window.
        for searcher in self.searchers.iter().flatten() {
            searcher.batcher.drain();
        }
        for searcher in self.searchers.iter_mut().flatten() {
            idle &= searcher.tier.drain(timeout);
        }
        idle
    }
}

fn sum_snapshots(parts: impl Iterator<Item = ServingSnapshot>) -> ServingSnapshot {
    let mut out = ServingSnapshot::default();
    for s in parts {
        out.admitted += s.admitted;
        out.completed += s.completed;
        out.shed_rate_limited += s.shed_rate_limited;
        out.shed_queue_full += s.shed_queue_full;
        out.shed_deadline += s.shed_deadline;
        out.shed_draining += s.shed_draining;
        out.decode_errors += s.decode_errors;
        out.max_in_flight = out.max_in_flight.max(s.max_in_flight);
        out.max_queue_depth = out.max_queue_depth.max(s.max_queue_depth);
        out.batch_depth.merge(&s.batch_depth);
        out.batch_wait.merge(&s.batch_wait);
    }
    out
}
