//! The serving stack: the three tiers as independent TCP services.
//!
//! [`NetServing`] is the one host of the Blender → Broker → Searcher
//! hierarchy (Figure 10): real socket listeners ([`TcpTier`]) — one per
//! searcher replica of a [`SearchTopology`]'s live replica table, one per
//! broker instance, one per blender — wired by one function. Every
//! topology serves through a stack of its own, stood up at assembly and
//! grown online when a replica is bootstrapped or a partition split.
//! [`NetServing::over`] stands another one up over the same table with its
//! own admission tuning; that one stays as built, so a split made after it
//! shows up as missing coverage rather than as a silently smaller answer.
//! Either way the tiers serve the topology's hot-swappable index handles,
//! so real-time indexing, checkpointing and rebuild operate on the data
//! the network serves.
//!
//! Every tier sits behind its own admission controller (token-bucket rate
//! limit, bounded queue with deadline-aware shedding, concurrency cap):
//! under overload the tier answers a fast `Overloaded` rejection instead
//! of queueing into collapse. Past admission a searcher listener hands each
//! request straight to its [`SearcherService`]: one query, one engine
//! plan, on the connection thread that decoded it. The resilience
//! machinery — retries with jittered backoff, per-target circuit breakers,
//! hedged broker calls, degraded-result accounting — runs in the balancers
//! over the [`TcpChannel`]s. Every listener also has its own [`Link`]: the
//! topology's per-hop latency model and a fault injector, charged by every
//! channel that dials it, so one [`TopologyConfig`] behaves the same on
//! every stack.
//!
//! Tiers are independent: each can be drained (graceful: in-flight work
//! answered, new work shed, then the listener closes) or crashed
//! (connections severed mid-frame, connects refused) without touching the
//! others — the integration tests drive exactly those scenarios.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

use jdvs_core::swap::IndexHandle;
use jdvs_metrics::{ResilienceMetrics, ServingSnapshot};
use jdvs_net::admission::AdmissionConfig;
use jdvs_net::balancer::Balancer;
use jdvs_net::rpc::Service;
use jdvs_net::tcp::{Link, TcpChannel, TcpTier};
use jdvs_net::FaultInjector;

use crate::blender::BlenderService;
use crate::broker::BrokerService;
use crate::client::SearchClient;
use crate::partition::PartitionMap;
use crate::protocol::{FanoutQuery, PartialResponse, SearchQuery, SearchResponse};
use crate::searcher::SearcherService;
use crate::topology::{SearchTopology, TopologyConfig};
use crate::wire;

/// A channel over which one tier fans out to the next (broker → searcher,
/// blender → broker).
pub(crate) type FanoutChannel = TcpChannel<FanoutQuery, PartialResponse>;
/// A broker whose searcher calls travel over TCP.
pub type NetBroker = BrokerService<FanoutChannel>;
/// A blender whose broker calls travel over TCP.
pub type NetBlender = BlenderService<FanoutChannel>;
/// A user client whose blender calls travel over TCP.
pub type NetClient = SearchClient<TcpChannel<SearchQuery, SearchResponse>>;

/// The balancer list one broker instance fans out over — one balancer per
/// partition its group owns — shared with the running [`BrokerService`]
/// so a growing stack can extend it in place.
type BrokerFanout = Arc<RwLock<Vec<Balancer<FanoutChannel>>>>;

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
    /// End-to-end deadline stamped by [`NetServing::client`].
    pub client_deadline: Duration,
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
            client_deadline: Duration::from_secs(5),
        }
    }
}

impl NetServingConfig {
    /// The admission of a topology's own stack: two requests in service
    /// per listener at every tier and every other one queued, with no
    /// queue bound and no minimum budget — a server with a pool of two
    /// workers, the concurrency the facade's experiments are calibrated on.
    pub(crate) fn pooled() -> Self {
        let pool = AdmissionConfig {
            max_concurrency: 2,
            queue_capacity: usize::MAX,
            min_budget: Duration::ZERO,
            ..AdmissionConfig::default()
        };
        Self {
            blender_admission: pool.clone(),
            broker_admission: pool.clone(),
            searcher_admission: pool,
            ..Self::default()
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

/// A channel dialing `tier` through its link with the fan-out codec.
pub(crate) fn fanout_channel<S: Service>(tier: &TcpTier<S>) -> FanoutChannel {
    tier.channel(encode_fanout, decode_partial)
}

/// One broker instance's listener and the balancer list it fans out over.
struct NetBrokerInstance {
    tier: TcpTier<NetBroker>,
    fanout: BrokerFanout,
}

/// The three tiers running as TCP services over a topology's indexes.
pub struct NetServing {
    /// `[partition][replica]` searcher rows, laid out like the topology's
    /// replica table when the tiers were stood up (or last grown).
    searchers: Vec<Vec<TcpTier<SearcherService>>>,
    /// `[group][instance]` broker listeners.
    brokers: Vec<Vec<NetBrokerInstance>>,
    /// Blender listeners.
    blenders: Vec<TcpTier<NetBlender>>,
    /// Resilience counters shared by every balancer of this stack.
    resilience: Arc<ResilienceMetrics>,
    config: NetServingConfig,
    /// The topology's shape, deadlines, latency model, balancer policies
    /// and seed.
    topology: TopologyConfig,
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
    /// Stands a second stack of the three tiers up over `topology`'s live
    /// replica table (splits and bootstraps included), with its own
    /// admission tuning and resilience counters.
    ///
    /// The topology keeps running as built (its own stack, real-time
    /// indexers, durability); both stacks serve the *same* hot-swappable
    /// index handles, so events published to the topology's queue become
    /// visible to either at indexing speed.
    ///
    /// # Errors
    ///
    /// Propagates listener bind errors.
    pub fn over(topology: &SearchTopology, config: NetServingConfig) -> io::Result<Self> {
        topology.serve(config, Arc::new(ResilienceMetrics::new()))
    }

    /// The one wiring of a stack: one searcher listener per handle of
    /// `rows` (`[partition][replica]`), `broker_replicas` broker instances
    /// per group of `layout`, each fanning out over one balancer per owned
    /// partition, and `num_blenders` blenders from `blender` over one
    /// balancer per group.
    pub(crate) fn wire(
        config: NetServingConfig,
        topology: &TopologyConfig,
        layout: &PartitionMap,
        rows: &[Vec<Arc<IndexHandle>>],
        blender: impl Fn(Vec<Balancer<FanoutChannel>>, &Arc<ResilienceMetrics>) -> NetBlender,
        resilience: Arc<ResilienceMetrics>,
    ) -> io::Result<Self> {
        let mut net = NetServing {
            searchers: Vec::new(),
            brokers: Vec::new(),
            blenders: Vec::new(),
            resilience,
            config,
            topology: topology.clone(),
        };
        for (p, row) in rows.iter().enumerate() {
            let searchers = row
                .iter()
                .enumerate()
                .map(|(r, handle)| net.searcher((p, r), handle))
                .collect::<io::Result<_>>()?;
            net.searchers.push(searchers);
        }
        for g in 0..layout.num_broker_groups() {
            let instances = (0..topology.broker_replicas)
                .map(|b| {
                    let partitions = layout.partitions_of_group(g).into_iter();
                    net.broker((g, b), partitions.map(|p| net.searcher_balancer((g, b, p))))
                })
                .collect::<io::Result<_>>()?;
            net.brokers.push(instances);
        }
        for i in 0..topology.num_blenders {
            let groups = net
                .brokers
                .iter()
                .enumerate()
                .map(|(g, instances)| {
                    let channels = instances.iter().map(|b| fanout_channel(&b.tier));
                    net.balancer(channels.collect(), 0xB2A ^ ((i as u64) << 24) ^ g as u64)
                })
                .collect();
            let tier = TcpTier::spawn_with(
                &format!("blender-{i}"),
                blender(groups, &net.resilience),
                decode_query,
                encode_search_resp,
                net.config.blender_admission.clone(),
                net.link(0xB1E ^ i as u64),
            )?;
            net.blenders.push(tier);
        }
        Ok(net)
    }

    /// The link in front of one listener: the topology's latency model,
    /// streams seeded per listener.
    fn link(&self, seed: u64) -> Link {
        Link::new(self.topology.latency, self.topology.seed ^ seed)
    }

    /// A balancer with the topology's policies over `targets`.
    fn balancer<T: jdvs_net::CallTarget>(&self, targets: Vec<T>, seed: u64) -> Balancer<T> {
        let tc = &self.topology;
        Balancer::with_policies(targets, tc.health, tc.retry, tc.seed ^ seed)
            .with_metrics(Arc::clone(&self.resilience))
    }

    /// Replica `r` of partition `p`'s listener over `handle`.
    fn searcher(
        &self,
        (p, r): (usize, usize),
        handle: &Arc<IndexHandle>,
    ) -> io::Result<TcpTier<SearcherService>> {
        TcpTier::spawn_with(
            &format!("searcher-{p}-{r}"),
            SearcherService::new(p, Arc::clone(handle)),
            decode_fanout,
            encode_partial,
            self.config.searcher_admission.clone(),
            self.link(((p as u64) << 16) ^ r as u64),
        )
    }

    /// The balancer broker instance `b` of group `g` fans out over for
    /// partition `p`'s replicas.
    fn searcher_balancer(&self, (g, b, p): (usize, usize, usize)) -> Balancer<FanoutChannel> {
        let replicas = self.searchers[p].iter().map(fanout_channel);
        let seed = 0xBA1 ^ ((g as u64) << 24) ^ ((b as u64) << 12) ^ p as u64;
        self.balancer(replicas.collect(), seed)
    }

    /// Broker instance `b` of group `g`, fanning out over `partitions`.
    fn broker(
        &self,
        (g, b): (usize, usize),
        partitions: impl Iterator<Item = Balancer<FanoutChannel>>,
    ) -> io::Result<NetBrokerInstance> {
        let tc = &self.topology;
        let fanout = Arc::new(RwLock::new(partitions.collect()));
        let mut service = BrokerService::over(g, Arc::clone(&fanout), tc.searcher_deadline)
            .with_metrics(Arc::clone(&self.resilience));
        if let Some(hedge_after) = tc.hedge_after {
            service = service.with_hedging(hedge_after);
        }
        let tier = TcpTier::spawn_with(
            &format!("broker-{g}-{b}"),
            service,
            decode_fanout,
            encode_partial,
            self.config.broker_admission.clone(),
            self.link(0xB0 ^ ((g as u64) << 16) ^ b as u64),
        )?;
        Ok(NetBrokerInstance { tier, fanout })
    }

    /// Serves the replicas of partition `p`'s `row` that this stack does
    /// not serve yet — a bootstrapped replica, or a split sibling's whole
    /// row: one listener each, joined to every broker instance of the
    /// owning group as new targets of the partition's balancer, or as a new
    /// balancer. Fan-outs already in flight finish on their snapshot; the
    /// next one covers the new replicas.
    pub(crate) fn grow(
        &mut self,
        layout: &PartitionMap,
        p: usize,
        row: &[Arc<IndexHandle>],
    ) -> io::Result<()> {
        let new_partition = p == self.searchers.len();
        if new_partition {
            self.searchers.push(Vec::new());
        }
        let first = self.searchers[p].len();
        for (r, handle) in row.iter().enumerate().skip(first) {
            let searcher = self.searcher((p, r), handle)?;
            self.searchers[p].push(searcher);
        }
        let group = layout.broker_group_of(p);
        let slot = layout
            .partitions_of_group(group)
            .iter()
            .position(|&q| q == p)
            .expect("a partition is in its own group");
        for (b, broker) in self.brokers[group].iter().enumerate() {
            if new_partition {
                let mut fanout = broker.fanout.write();
                debug_assert_eq!(fanout.len(), slot, "a split's sibling is its group's last");
                fanout.push(self.searcher_balancer((group, b, p)));
            } else {
                let fanout = broker.fanout.read();
                for searcher in &self.searchers[p][first..] {
                    fanout[slot].push_target(fanout_channel(searcher));
                }
            }
        }
        Ok(())
    }

    /// A fresh front-end balancer over the blender tier, with the
    /// topology's policies.
    pub(crate) fn frontend(&self) -> Balancer<TcpChannel<SearchQuery, SearchResponse>> {
        let channels = self
            .blenders
            .iter()
            .map(|tier| tier.channel(encode_query, decode_search_resp));
        self.balancer(channels.collect(), 0xF0E)
    }

    /// A user client dialing the blender tier over TCP through a front end
    /// of its own.
    pub fn client(&self) -> NetClient {
        SearchClient::new(Arc::new(self.frontend()), self.config.client_deadline)
    }

    /// Resilience counters of this stack (balancer retries, breaker
    /// opens, shed/failed partition accounting).
    pub fn resilience_metrics(&self) -> &Arc<ResilienceMetrics> {
        &self.resilience
    }

    /// Addresses of the blender listeners (e.g. to aim a fault proxy at).
    pub fn blender_addrs(&self) -> Vec<SocketAddr> {
        self.blenders.iter().map(TcpTier::local_addr).collect()
    }

    /// Addresses of broker group `g`'s instances.
    pub fn broker_addrs(&self, g: usize) -> Vec<SocketAddr> {
        self.brokers[g]
            .iter()
            .map(|b| b.tier.local_addr())
            .collect()
    }

    /// Addresses of partition `p`'s searcher replicas.
    pub fn searcher_addrs(&self, p: usize) -> Vec<SocketAddr> {
        self.searchers[p].iter().map(TcpTier::local_addr).collect()
    }

    /// Fault controls of a searcher replica's listener, obeyed by every
    /// broker of this stack.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub(crate) fn searcher_faults(&self, partition: usize, replica: usize) -> &FaultInjector {
        self.searchers[partition][replica].faults()
    }

    /// Fault controls of a broker instance's listener, obeyed by every
    /// blender of this stack.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub(crate) fn broker_faults(&self, group: usize, instance: usize) -> &FaultInjector {
        self.brokers[group][instance].tier.faults()
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
                .map(|b| b.tier.metrics().snapshot()),
        )
    }

    /// Aggregated serving snapshot of the searcher tier.
    pub fn searcher_serving(&self) -> ServingSnapshot {
        sum_snapshots(
            self.searchers
                .iter()
                .flatten()
                .map(|s| s.metrics().snapshot()),
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
        self.searchers[partition][replica].crash();
    }

    /// Crashes one broker instance's listener.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn crash_broker(&mut self, group: usize, instance: usize) {
        self.brokers[group][instance].tier.crash();
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
        for broker in self.brokers.iter_mut().flatten() {
            idle &= broker.tier.drain(timeout);
        }
        for searcher in self.searchers.iter_mut().flatten() {
            idle &= searcher.drain(timeout);
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
    }
    out
}

#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// `service` on a loopback listener speaking the fan-out protocol, with
    /// default admission and a link that delays nothing.
    pub(crate) fn fanout_tier<S>(name: &str, service: S) -> TcpTier<S>
    where
        S: Service<Request = FanoutQuery, Response = PartialResponse>,
    {
        TcpTier::spawn(
            name,
            service,
            decode_fanout,
            encode_partial,
            AdmissionConfig::default(),
        )
        .expect("binding a loopback listener")
    }
}
