//! Micro-batching front of the searcher tier.
//!
//! Co-arriving queries on different connections are coalesced into one
//! [`SearcherService::execute_batch`] call so the PQ fast-scan walks each
//! probed block once for the whole batch instead of once per query. The
//! batcher sits *behind* admission control (an admitted request may wait
//! in a forming batch) and in front of the engine:
//!
//! - The **first** arrival becomes the batch *leader*: it opens a batch
//!   and waits up to [`BatchConfig::window`] for followers.
//! - Later arrivals join the open batch as *followers* and block until
//!   the leader executes and hands their response back.
//! - The batch executes as soon as it reaches [`BatchConfig::max_batch`]
//!   members, the window expires, or the tier starts draining —
//!   whichever comes first. The follower that fills a batch *seals* it —
//!   takes it out of the open slot there and then — so the open slot
//!   never holds a batch that cannot take members, and the next arrival
//!   leads a fresh one even if the sealed batch's leader has yet to wake.
//! - A query whose remaining deadline budget is below
//!   [`BatchConfig::min_hold_budget`] is **never held**: it bypasses the
//!   batcher and executes solo, so batching can only add latency to
//!   requests that can afford it.
//!
//! Every engine call (including bypassed singletons) records its batch
//! depth, and every held member records its hold time, into the tier's
//! shared [`ServingMetrics`] histograms — the data behind the
//! throughput-for-latency trade the window buys.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use jdvs_metrics::ServingMetrics;
use jdvs_net::rpc::Service;

use crate::protocol::{FanoutQuery, PartialResponse};
use crate::searcher::SearcherService;

/// Knobs of the searcher-input micro-batcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// How long a batch leader waits for followers before executing.
    /// `0` disables batching (every query executes solo).
    pub window: Duration,
    /// Executes the batch early once this many members joined. Values
    /// `<= 1` disable batching.
    pub max_batch: usize,
    /// Queries with a remaining deadline budget below this are executed
    /// solo instead of held — a query near its budget is never delayed by
    /// the window.
    pub min_hold_budget: Duration,
}

impl BatchConfig {
    /// A disabled batcher: every query executes solo, no histograms are
    /// recorded. This is the [`Default`].
    pub fn disabled() -> Self {
        Self {
            window: Duration::ZERO,
            max_batch: 1,
            min_hold_budget: Duration::ZERO,
        }
    }

    /// Whether this configuration actually batches.
    pub fn is_enabled(&self) -> bool {
        self.max_batch > 1 && !self.window.is_zero()
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// One forming batch, executed by its leader.
struct OpenBatch {
    id: u64,
    queries: Vec<FanoutQuery>,
    arrivals: Vec<Instant>,
}

/// An executed batch parked for follower pickup.
struct DoneBatch {
    results: Vec<Option<PartialResponse>>,
    /// Followers that have not collected their slot yet.
    remaining: usize,
}

#[derive(Default)]
struct State {
    /// The batch arrivals join; never full.
    open: Option<OpenBatch>,
    /// Batches filled to `max_batch`, waiting for their leaders to wake.
    sealed: HashMap<u64, OpenBatch>,
    done: HashMap<u64, DoneBatch>,
    next_id: u64,
    draining: bool,
}

/// [`SearcherService`] wrapped in a time/size-window micro-batcher; the
/// serving tier's connection threads call [`Service::handle`] exactly as
/// before and each gets its own response back — batching is invisible on
/// the wire.
pub struct BatchingSearcher {
    inner: SearcherService,
    config: BatchConfig,
    metrics: Arc<ServingMetrics>,
    state: Mutex<State>,
    cv: Condvar,
}

impl std::fmt::Debug for BatchingSearcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchingSearcher")
            .field("inner", &self.inner)
            .field("config", &self.config)
            .finish()
    }
}

impl BatchingSearcher {
    /// Wraps `inner` with the given batching policy, recording batch
    /// depth/wait into `metrics` (share the tier's instance so the
    /// histograms surface in its serving snapshot).
    pub fn new(inner: SearcherService, config: BatchConfig, metrics: Arc<ServingMetrics>) -> Self {
        Self {
            inner,
            config,
            metrics,
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
        }
    }

    /// The wrapped searcher.
    pub fn inner(&self) -> &SearcherService {
        &self.inner
    }

    /// The active batching policy.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Tells the batcher the tier is shutting down: the current leader
    /// flushes its partial batch immediately and later arrivals execute
    /// solo, so a drain never waits out a batch window.
    pub fn drain(&self) {
        let mut state = self.state.lock();
        state.draining = true;
        self.cv.notify_all();
    }

    /// Executes one query, possibly coalesced with co-arriving ones.
    pub fn execute(&self, query: FanoutQuery) -> PartialResponse {
        if !self.config.is_enabled() {
            return self.inner.execute(&query);
        }
        if let Some(budget) = query.budget {
            if budget < self.config.min_hold_budget {
                // Deadline-hopeless for holding: engine call of depth 1,
                // zero held time.
                self.metrics.batch_depth.record_us(1);
                return self.inner.execute(&query);
            }
        }

        let arrival = Instant::now();
        let mut state = self.state.lock();
        if state.draining {
            drop(state);
            self.metrics.batch_depth.record_us(1);
            return self.inner.execute(&query);
        }
        match &mut state.open {
            Some(open) => {
                // Join as follower.
                let id = open.id;
                let slot = open.queries.len();
                open.queries.push(query);
                open.arrivals.push(arrival);
                if open.queries.len() >= self.config.max_batch {
                    let full = state.open.take().expect("just joined");
                    state.sealed.insert(id, full);
                    self.cv.notify_all();
                }
                loop {
                    self.cv.wait(&mut state);
                    if let Some(done) = state.done.get_mut(&id) {
                        let resp = done.results[slot].take().expect("slot collected once");
                        done.remaining -= 1;
                        if done.remaining == 0 {
                            state.done.remove(&id);
                        }
                        return resp;
                    }
                }
            }
            None => {
                // Lead a fresh batch.
                let id = state.next_id;
                state.next_id += 1;
                state.open = Some(OpenBatch {
                    id,
                    queries: vec![query],
                    arrivals: vec![arrival],
                });
                let deadline = arrival + self.config.window;
                let batch = loop {
                    if let Some(full) = state.sealed.remove(&id) {
                        break full;
                    }
                    if state.draining || Instant::now() >= deadline {
                        break state.open.take().expect("an unsealed batch is still open");
                    }
                    let _ = self.cv.wait_for(
                        &mut state,
                        deadline.saturating_duration_since(Instant::now()),
                    );
                };
                debug_assert_eq!(batch.id, id);
                drop(state);

                let exec_start = Instant::now();
                let results = self.inner.execute_batch(&batch.queries);
                self.metrics
                    .batch_depth
                    .record_us(batch.queries.len() as u64);
                for held_since in &batch.arrivals {
                    self.metrics
                        .batch_wait
                        .record(exec_start.saturating_duration_since(*held_since));
                }

                let mut results: Vec<Option<PartialResponse>> =
                    results.into_iter().map(Some).collect();
                let own = results[0].take().expect("leader slot");
                let remaining = results.len() - 1;
                if remaining > 0 {
                    let mut state = self.state.lock();
                    state
                        .done
                        .insert(batch.id, DoneBatch { results, remaining });
                    self.cv.notify_all();
                }
                own
            }
        }
    }
}

impl Service for BatchingSearcher {
    type Request = FanoutQuery;
    type Response = PartialResponse;

    fn handle(&self, req: FanoutQuery) -> PartialResponse {
        self.execute(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    use jdvs_core::{IndexConfig, VisualIndex};
    use jdvs_storage::model::{ProductAttributes, ProductId};
    use jdvs_vector::rng::Xoshiro256;
    use jdvs_vector::Vector;

    const DIM: usize = 8;

    fn pq_index(n: usize) -> Arc<VisualIndex> {
        let mut rng = Xoshiro256::seed_from(11);
        let data: Vec<Vector> = (0..n)
            .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let index = Arc::new(VisualIndex::bootstrap(
            IndexConfig {
                dim: DIM,
                num_lists: 4,
                nprobe: 4,
                pq_subspaces: Some(DIM / 2),
                pq_bits: 4,
                ..Default::default()
            },
            &data,
        ));
        for (i, v) in data.iter().enumerate() {
            index
                .insert(
                    v.clone(),
                    ProductAttributes::new(ProductId(i as u64), i as u64, 9, 1, format!("b/u{i}")),
                )
                .unwrap();
        }
        index.flush();
        index
    }

    fn query(index: &VisualIndex, i: u32, budget: Option<Duration>) -> FanoutQuery {
        FanoutQuery {
            features: index
                .features(jdvs_core::ids::ImageId(i))
                .unwrap()
                .into_inner(),
            k: 5,
            nprobe: Some(3),
            compressed: true,
            budget,
            filter: None,
        }
    }

    fn batcher(index: &Arc<VisualIndex>, config: BatchConfig) -> Arc<BatchingSearcher> {
        Arc::new(BatchingSearcher::new(
            SearcherService::for_index(0, Arc::clone(index)),
            config,
            Arc::new(ServingMetrics::new()),
        ))
    }

    #[test]
    fn batch_of_one_equals_unbatched() {
        let index = pq_index(60);
        let enabled = batcher(
            &index,
            BatchConfig {
                window: Duration::from_millis(10),
                max_batch: 8,
                min_hold_budget: Duration::ZERO,
            },
        );
        let solo = SearcherService::for_index(0, Arc::clone(&index));
        for i in [0u32, 7, 23] {
            let q = query(&index, i, None);
            assert_eq!(enabled.execute(q.clone()), solo.execute(&q));
        }
        // Three engine calls, each of depth 1, each held ~the full window.
        let depth = enabled.metrics.batch_depth.snapshot();
        assert_eq!(depth.count(), 3);
        assert_eq!(depth.max_us(), 1);
        assert_eq!(enabled.metrics.batch_wait.snapshot().count(), 3);
    }

    #[test]
    fn window_expiry_bounds_trickle_latency() {
        let index = pq_index(40);
        let b = batcher(
            &index,
            BatchConfig {
                window: Duration::from_millis(20),
                max_batch: 32, // never fills from a trickle
                min_hold_budget: Duration::ZERO,
            },
        );
        let start = Instant::now();
        let resp = b.execute(query(&index, 1, None));
        let elapsed = start.elapsed();
        assert!(!resp.hits.is_empty());
        assert!(
            elapsed < Duration::from_millis(500),
            "trickle query waited {elapsed:?}, window expiry should have fired"
        );
        assert!(
            elapsed >= Duration::from_millis(15),
            "leader returned after {elapsed:?}, before the window could expire"
        );
    }

    #[test]
    fn hopeless_deadline_is_never_held() {
        let index = pq_index(40);
        let b = batcher(
            &index,
            BatchConfig {
                window: Duration::from_millis(200),
                max_batch: 32,
                min_hold_budget: Duration::from_millis(50),
            },
        );
        let start = Instant::now();
        let resp = b.execute(query(&index, 2, Some(Duration::from_millis(10))));
        assert!(!resp.hits.is_empty());
        assert!(
            start.elapsed() < Duration::from_millis(150),
            "hopeless-deadline query was held by the batch window"
        );
        // Solo bypass still shows up as a depth-1 engine call.
        assert_eq!(b.metrics.batch_depth.snapshot().max_us(), 1);
        assert_eq!(b.metrics.batch_wait.snapshot().count(), 0);
    }

    #[test]
    fn drain_flushes_partial_batch() {
        let index = pq_index(40);
        let b = batcher(
            &index,
            BatchConfig {
                window: Duration::from_secs(30), // would hang without drain
                max_batch: 32,
                min_hold_budget: Duration::ZERO,
            },
        );
        let b2 = Arc::clone(&b);
        let q = query(&index, 3, None);
        let leader = thread::spawn(move || b2.execute(q));
        // Wait for the leader to open its batch, then drain.
        let t0 = Instant::now();
        while b.state.lock().open.is_none() {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "leader never opened a batch"
            );
            thread::sleep(Duration::from_millis(1));
        }
        b.drain();
        let resp = leader.join().unwrap();
        assert!(!resp.hits.is_empty());
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "drain did not flush the partial batch"
        );
        // Post-drain arrivals execute solo immediately.
        let start = Instant::now();
        b.execute(query(&index, 4, None));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn full_batch_executes_early_and_matches_sequential() {
        let index = pq_index(80);
        let b = batcher(
            &index,
            BatchConfig {
                window: Duration::from_secs(10), // size, not time, must trigger
                max_batch: 4,
                min_hold_budget: Duration::ZERO,
            },
        );
        let solo = SearcherService::for_index(0, Arc::clone(&index));
        let queries: Vec<FanoutQuery> = (0..8u32).map(|i| query(&index, i, None)).collect();
        let start = Instant::now();
        let handles: Vec<_> = queries
            .iter()
            .map(|q| {
                let b = Arc::clone(&b);
                let q = q.clone();
                thread::spawn(move || b.execute(q))
            })
            .collect();
        let got: Vec<PartialResponse> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(
            start.elapsed() < Duration::from_secs(8),
            "full batches should execute before the window expires"
        );
        for (q, got) in queries.iter().zip(&got) {
            assert_eq!(got, &solo.execute(q), "batched response diverged from solo");
        }
        // Every member was counted in exactly one engine call.
        let depth = b.metrics.batch_depth.snapshot();
        let members = (depth.mean_us() * depth.count() as f64).round() as u64;
        assert_eq!(members, 8, "histogram must account for every batch member");
        assert!(
            depth.count() >= 2,
            "8 members with max_batch=4 need >= 2 calls"
        );
        assert!(depth.max_us() <= 4, "no engine call may exceed max_batch");
        // Every member was held in a batch: none executes solo, because a
        // full batch leaves the open slot the moment it fills.
        assert_eq!(b.metrics.batch_wait.snapshot().count(), 8);
        // All follower slots were collected; no parked batches leak.
        assert!(b.state.lock().done.is_empty());
    }
}
