//! The front-end load balancer.
//!
//! Figure 1's entry point: *"a front end (i.e., load balancer) forwards the
//! query to one of the blenders."* [`Balancer`] round-robins over a set of
//! equivalent [`CallTarget`]s and fails over — which is what makes
//! "multiple identical instances for load balancing and fault tolerance"
//! actually tolerate faults. Beyond the plain rotation, the balancer is the
//! serving path's resilience primitive:
//!
//! - **Total deadline budget** — [`Balancer::call`]'s `deadline` bounds the
//!   *whole* call including every failover attempt and backoff pause; each
//!   attempt only gets what is left of the budget, and an exhausted budget
//!   returns [`RpcError::Timeout`].
//! - **Health-aware failover** — each target has a [`HealthTracker`]
//!   circuit breaker: replicas that keep failing are skipped (instead of
//!   being re-tried every rotation) until a cooldown admits a half-open
//!   probe. If *every* replica is skipped, one forced probe keeps the
//!   balancer live.
//! - **Jittered retry rotations** — after a fully-failed pass the balancer
//!   sleeps a jittered exponential backoff ([`RetryPolicy`]) and makes
//!   another pass, while the budget lasts.
//! - **Hedged calls** — [`Balancer::finish_hedged`] launches a second
//!   attempt on another replica when the first one has been silent past a
//!   threshold since its start; the first success wins.
//!
//! Like the [`CallTarget`]s under it, a balancer call is **split-phase**:
//! [`Balancer::start`] picks the rotation's first admissible replica
//! (skipping downed and breaker-open ones, forcing one probe when none is
//! admissible) and sends the request there; [`Balancer::finish`] collects
//! that reply, records the replica's health and — only if the attempt
//! failed — carries on with the budgeted failover/retry loop over the
//! remaining replicas. [`Balancer::call`] is `start` then `finish`. A
//! broker or blender starts every partition/group before finishing any,
//! so the branches of a fan-out overlap on the calling thread; the only
//! threads this module ever spawns are the two that race a straggling
//! primary against its hedge, and only once a hedge timer has fired.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use jdvs_metrics::ResilienceMetrics;
use parking_lot::{Mutex, RwLock};

use crate::health::{CircuitState, HealthPolicy, HealthTracker};
use crate::latency::NetRng;
use crate::retry::RetryPolicy;
use crate::rpc::{CallTarget, RpcError};

/// One backend with its circuit breaker; `Arc`-shared so a call can keep
/// operating on a consistent snapshot of the target set while a lifecycle
/// operation ([`Balancer::push_target`]) grows it.
struct TargetEntry<T> {
    target: T,
    health: HealthTracker,
}

/// A balancer call whose first attempt is in flight; see
/// [`Balancer::start`].
pub struct InFlight<T: CallTarget> {
    pending: T::Pending,
    plan: Plan<T>,
}

/// What a started call needs to carry on after its first attempt.
struct Plan<T: CallTarget> {
    /// The target set as of the start; failover stays on this snapshot.
    entries: Vec<Arc<TargetEntry<T>>>,
    /// Rotation origin of this call.
    begin: usize,
    /// Rotation offset of the replica the first attempt went to.
    offset: usize,
    /// Where the first rotation carries on if that attempt fails: the
    /// offset after it, or the end of the rotation for a forced probe.
    resume_at: usize,
    /// Kept for the failover attempts.
    request: T::Request,
    start: Instant,
    /// Total budget of the call, running from `start`.
    deadline: Duration,
}

impl<T: CallTarget> Plan<T> {
    /// The `i`-th replica of this call's rotation.
    fn entry(&self, i: usize) -> &Arc<TargetEntry<T>> {
        &self.entries[(self.begin + i) % self.entries.len()]
    }

    fn primary(&self) -> &Arc<TargetEntry<T>> {
        self.entry(self.offset)
    }
}

impl<T: CallTarget> std::fmt::Debug for InFlight<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InFlight")
            .field("target", &self.plan.primary().target.target_name())
            .field("deadline", &self.plan.deadline)
            .finish()
    }
}

/// State shared between a balancer and its hedge threads.
struct Inner<T: CallTarget> {
    /// The live target set. Growable: [`Balancer::push_target`] appends
    /// under the write lock while calls work off a cheap read-locked
    /// snapshot — no lock is ever held across an RPC.
    targets: RwLock<Vec<Arc<TargetEntry<T>>>>,
    /// Policy used to build breakers for targets pushed after construction.
    health_policy: HealthPolicy,
    retry: RetryPolicy,
    next: AtomicUsize,
    rng: Mutex<NetRng>,
    metrics: Option<Arc<ResilienceMetrics>>,
}

impl<T: CallTarget> Inner<T>
where
    T::Request: Clone,
{
    /// Sends `request` to the rotation's first admissible replica; see
    /// [`Balancer::start`].
    fn start(&self, request: T::Request, deadline: Duration) -> InFlight<T> {
        let start = Instant::now();
        // A consistent snapshot of the target set for this call.
        let entries = self.targets.read().clone();
        let n = entries.len();
        let begin = self.next.fetch_add(1, Ordering::Relaxed);
        // The first replica that is neither known-down nor breaker-open (a
        // skipped one spends no budget). When there is none, force one
        // probe of the rotation's first replica, so a fully-tripped
        // balancer still recovers within a call (and callers see the real
        // error, not a stale one); a forced probe leaves nothing of the
        // first rotation to fail over to.
        let (offset, resume_at) = (0..n)
            .find(|i| {
                let entry = &entries[(begin + i) % n];
                !entry.target.is_down() && entry.health.allow()
            })
            .map_or((0, n), |i| (i, i + 1));
        let plan = Plan {
            entries,
            begin,
            offset,
            resume_at,
            request,
            start,
            deadline,
        };
        let pending = plan.primary().target.start(plan.request.clone(), deadline);
        InFlight { pending, plan }
    }

    /// Collects the first attempt and fails over if it failed; see
    /// [`Balancer::finish`].
    fn finish(&self, InFlight { pending, plan }: InFlight<T>) -> Result<T::Response, RpcError> {
        let first = plan.primary().target.finish(pending);
        self.conclude(&plan, first)
    }

    /// Books the first attempt's outcome; a failed one fails over.
    fn conclude(
        &self,
        plan: &Plan<T>,
        first: Result<T::Response, RpcError>,
    ) -> Result<T::Response, RpcError> {
        match self.record(plan.primary(), first) {
            Ok(resp) => Ok(resp),
            Err(e) => self.failover(plan, e),
        }
    }

    /// The budgeted, health-aware, retrying failover loop behind a failed
    /// first attempt (error `last_err`): the rest of the first rotation,
    /// then up to `max_rotations - 1` further rotations, each after a
    /// jittered backoff pause.
    fn failover(&self, plan: &Plan<T>, mut last_err: RpcError) -> Result<T::Response, RpcError> {
        let Plan {
            start, deadline, ..
        } = *plan;
        let n = plan.entries.len();
        let rotations = self.retry.max_rotations.max(1);
        for rotation in 0..rotations {
            if rotation > 0 {
                let unit = self.rng.lock().next_f64();
                let pause = self.retry.backoff(rotation, unit);
                let remaining = deadline.saturating_sub(start.elapsed());
                if remaining <= pause {
                    // Not worth sleeping into a dead budget: report what we
                    // know (the budget ran out retrying past `last_err`).
                    return Err(RpcError::Timeout { deadline });
                }
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
                if let Some(m) = &self.metrics {
                    m.retries.incr();
                }
            }
            // The first rotation's first attempt was the call's `start`.
            let mut attempted = rotation == 0;
            let from = if rotation == 0 { plan.resume_at } else { 0 };
            for i in from..n {
                let entry = plan.entry(i);
                if entry.target.is_down() {
                    last_err = RpcError::NodeDown;
                    continue;
                }
                if !entry.health.allow() {
                    // Breaker open: skip without spending budget.
                    continue;
                }
                attempted = true;
                match self.attempt(entry, plan)? {
                    Ok(resp) => return Ok(resp),
                    Err(e) => last_err = e,
                }
            }
            if !attempted {
                // Forced probe, as in `start`.
                match self.attempt(plan.entry(0), plan)? {
                    Ok(resp) => return Ok(resp),
                    Err(e) => last_err = e,
                }
            }
            if last_err == RpcError::Overloaded {
                // Every reachable replica shed this request. Shedding is a
                // deliberate, authoritative answer from a healthy node —
                // backoff-retrying into a system that just asked for less
                // load amplifies the overload and burns the caller's
                // budget. Propagate the shed fast instead.
                return Err(last_err);
            }
        }
        Err(last_err)
    }

    /// One attempt against `entry` with the budget's remainder.
    /// The outer `Err` is budget exhaustion (abort the whole call); the
    /// inner `Err` is this attempt's failure (keep failing over).
    #[allow(clippy::type_complexity)]
    fn attempt(
        &self,
        entry: &TargetEntry<T>,
        plan: &Plan<T>,
    ) -> Result<Result<T::Response, RpcError>, RpcError> {
        let deadline = plan.deadline;
        let remaining = deadline.saturating_sub(plan.start.elapsed());
        if remaining.is_zero() {
            return Err(RpcError::Timeout { deadline });
        }
        Ok(self.record(entry, entry.target.call(plan.request.clone(), remaining)))
    }

    /// Books one attempt's outcome into `entry`'s breaker and the metrics.
    fn record(
        &self,
        entry: &TargetEntry<T>,
        result: Result<T::Response, RpcError>,
    ) -> Result<T::Response, RpcError> {
        match &result {
            Ok(_) => entry.health.record_success(),
            Err(RpcError::Overloaded) => {
                // A shed is the admission controller doing its job, not a
                // fault: it must not push the breaker toward open (that
                // would mark a healthy-but-busy node down and concentrate
                // load on its siblings). Counted apart from failures.
                if let Some(m) = &self.metrics {
                    m.calls_overloaded.incr();
                }
            }
            Err(_) => {
                if entry.health.record_failure() {
                    if let Some(m) = &self.metrics {
                        m.breaker_opens.incr();
                    }
                }
                if let Some(m) = &self.metrics {
                    m.call_failures.incr();
                }
            }
        }
        result
    }
}

/// Runs one side of a hedge race on a thread of its own and reports its
/// result on `tx`. The thread is detached on purpose: the race's loser is
/// not waited for.
fn report_from_thread<R: Send + 'static>(
    name: String,
    tx: mpsc::SyncSender<R>,
    run: impl FnOnce() -> R + Send + 'static,
) {
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            // The caller may have returned with the other side's result.
            let _ = tx.send(run());
        })
        .expect("spawn hedge thread");
}

/// Round-robin balancer with budgeted, health-aware failover over any
/// [`CallTarget`].
pub struct Balancer<T: CallTarget> {
    inner: Arc<Inner<T>>,
}

impl<T: CallTarget> Clone for Balancer<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: CallTarget> std::fmt::Debug for Balancer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Balancer")
            .field("targets", &self.inner.targets.read().len())
            .finish()
    }
}

impl<T: CallTarget> Balancer<T> {
    /// Creates a balancer over `targets` with the default [`HealthPolicy`]
    /// and [`RetryPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty.
    pub fn new(targets: Vec<T>) -> Self {
        Self::with_policies(
            targets,
            HealthPolicy::default(),
            RetryPolicy::default(),
            0x5EED,
        )
    }

    /// Creates a balancer with explicit health/retry policies and a seed
    /// for the backoff jitter stream.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty.
    pub fn with_policies(
        targets: Vec<T>,
        health: HealthPolicy,
        retry: RetryPolicy,
        seed: u64,
    ) -> Self {
        assert!(!targets.is_empty(), "balancer needs at least one target");
        let entries = targets
            .into_iter()
            .map(|target| {
                Arc::new(TargetEntry {
                    target,
                    health: HealthTracker::new(health),
                })
            })
            .collect();
        Self {
            inner: Arc::new(Inner {
                targets: RwLock::new(entries),
                health_policy: health,
                retry,
                next: AtomicUsize::new(0),
                rng: Mutex::new(NetRng::new(seed)),
                metrics: None,
            }),
        }
    }

    /// Attaches shared resilience counters (retries, breaker opens,
    /// hedges). Must be called before the balancer starts serving.
    ///
    /// # Panics
    ///
    /// Panics if the balancer has already been shared with a hedge thread.
    pub fn with_metrics(mut self, metrics: Arc<ResilienceMetrics>) -> Self {
        Arc::get_mut(&mut self.inner)
            .expect("configure the balancer before first use")
            .metrics = Some(metrics);
        self
    }

    /// Number of backend targets.
    pub fn num_targets(&self) -> usize {
        self.inner.targets.read().len()
    }

    /// Appends a new backend to the rotation with a fresh (closed)
    /// breaker. In-flight calls finish on the snapshot they started with;
    /// every call that begins afterwards sees the new target. This is how
    /// a bootstrapped replica atomically joins the serving set.
    pub fn push_target(&self, target: T) {
        self.inner.targets.write().push(Arc::new(TargetEntry {
            target,
            health: HealthTracker::new(self.inner.health_policy),
        }));
    }

    /// The breaker state of target `idx` (for tests/metrics).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn health_state(&self, idx: usize) -> CircuitState {
        self.inner.targets.read()[idx].health.state()
    }

    /// Sends `request` to one backend without waiting for the reply: the
    /// rotation's first replica that is neither known-down nor
    /// breaker-open (or a forced probe of the rotation's first replica
    /// when none is). `deadline` is the **total budget** of the call and
    /// runs from here. The request is cloned per attempt, hence the
    /// `Clone` bound.
    pub fn start(&self, request: T::Request, deadline: Duration) -> InFlight<T>
    where
        T::Request: Clone,
    {
        self.inner.start(request, deadline)
    }

    /// Collects a started call: waits for the first attempt, records the
    /// replica's health, and on failure rotates through the remaining
    /// replicas. Every failover attempt and backoff pause is deducted from
    /// the call's budget, and an exhausted budget returns
    /// [`RpcError::Timeout`].
    ///
    /// # Errors
    ///
    /// Returns the **last** attempt error if every replica fails, or
    /// [`RpcError::Timeout`] once the budget is spent.
    pub fn finish(&self, in_flight: InFlight<T>) -> Result<T::Response, RpcError>
    where
        T::Request: Clone,
    {
        self.inner.finish(in_flight)
    }

    /// [`Balancer::start`] then [`Balancer::finish`].
    ///
    /// # Errors
    ///
    /// As [`Balancer::finish`].
    pub fn call(&self, request: T::Request, deadline: Duration) -> Result<T::Response, RpcError>
    where
        T::Request: Clone,
    {
        self.finish(self.start(request, deadline))
    }

    /// Like [`Balancer::finish`], but if the first attempt is still silent
    /// `hedge_after` after the call's start, a second (hedged) call goes to
    /// the rotation's remaining replicas and the first success wins. Until
    /// that moment everything runs on the calling thread; when the hedge
    /// fires, one helper thread keeps waiting on the straggler and one
    /// runs the hedge, and the loser's late result is discarded. An
    /// attempt that *fails* before `hedge_after` fails over at once, like
    /// a plain `finish`. Falls back to a plain `finish` when there is only
    /// one target or `hedge_after` is not below the call's deadline.
    ///
    /// # Errors
    ///
    /// [`RpcError::Timeout`] when the budget is spent, otherwise the last
    /// error once both attempts have failed.
    pub fn finish_hedged(
        &self,
        in_flight: InFlight<T>,
        hedge_after: Duration,
    ) -> Result<T::Response, RpcError>
    where
        T::Request: Clone,
    {
        let inner = &self.inner;
        let InFlight { mut pending, plan } = in_flight;
        let Plan {
            start, deadline, ..
        } = plan;
        if plan.entries.len() < 2 || hedge_after >= deadline {
            return inner.finish(InFlight { pending, plan });
        }
        let primary = Arc::clone(plan.primary());
        if let Some(first) = primary.target.wait(&mut pending, Some(start + hedge_after)) {
            return inner.conclude(&plan, first);
        }

        // The primary is straggling: race it against a hedge.
        if let Some(m) = &inner.metrics {
            m.hedges_launched.incr();
        }
        let (tx, rx) = mpsc::sync_channel(2);
        let straggler = primary.target.target_name();
        {
            let inner = Arc::clone(inner);
            report_from_thread(format!("hedge:{straggler}"), tx.clone(), move || {
                let nothing_tried = RpcError::NodeDown;
                inner.failover(&plan, nothing_tried)
            });
        }
        {
            let inner = Arc::clone(inner);
            report_from_thread(format!("straggler:{straggler}"), tx.clone(), move || {
                inner.record(&primary, primary.target.finish(pending))
            });
        }
        drop(tx);
        // Once both threads have reported, the channel disconnects and we
        // return the last error.
        let mut last_err = RpcError::NodeDown;
        loop {
            let remaining = deadline.saturating_sub(start.elapsed());
            match rx.recv_timeout(remaining) {
                Ok(Ok(resp)) => {
                    if let Some(m) = &inner.metrics {
                        m.hedges_won.incr();
                    }
                    return Ok(resp);
                }
                Ok(Err(e)) => last_err = e,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    return Err(RpcError::Timeout { deadline });
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(last_err);
                }
            }
        }
    }

    /// [`Balancer::start`] then [`Balancer::finish_hedged`].
    ///
    /// # Errors
    ///
    /// As [`Balancer::finish_hedged`].
    pub fn call_hedged(
        &self,
        request: T::Request,
        deadline: Duration,
        hedge_after: Duration,
    ) -> Result<T::Response, RpcError>
    where
        T::Request: Clone,
    {
        self.finish_hedged(self.start(request, deadline), hedge_after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::rpc::Service;
    use crate::tcp::{TcpChannel, TcpTier};
    use std::sync::atomic::AtomicU64;

    type Target = TcpChannel<(), u64>;

    fn no_body(_: &()) -> Vec<u8> {
        Vec::new()
    }
    fn unit(_: &[u8]) -> Option<()> {
        Some(())
    }
    fn encode_tag(tag: &u64) -> Vec<u8> {
        tag.to_le_bytes().to_vec()
    }
    fn decode_tag(b: &[u8]) -> Option<u64> {
        Some(u64::from_le_bytes(b.try_into().ok()?))
    }

    /// A loopback tier serving `service`.
    fn tier<S: Service<Request = (), Response = u64>>(name: &str, service: S) -> TcpTier<S> {
        TcpTier::spawn(name, service, unit, encode_tag, AdmissionConfig::default()).unwrap()
    }

    /// A channel through `tier`'s link, so the tier's faults apply.
    fn target<S: Service>(tier: &TcpTier<S>) -> Target {
        tier.channel(no_body, decode_tag)
    }

    fn targets<S: Service>(tiers: &[TcpTier<S>]) -> Vec<Target> {
        tiers.iter().map(target).collect()
    }

    struct Tagged(u64);
    impl Service for Tagged {
        type Request = ();
        type Response = u64;
        fn handle(&self, _: ()) -> u64 {
            self.0
        }
    }

    struct Counting(AtomicU64);
    impl Service for Counting {
        type Request = ();
        type Response = u64;
        fn handle(&self, _: ()) -> u64 {
            self.0.fetch_add(1, Ordering::Relaxed)
        }
    }

    struct Sleeper(Duration);
    impl Service for Sleeper {
        type Request = ();
        type Response = u64;
        fn handle(&self, _: ()) -> u64 {
            std::thread::sleep(self.0);
            7
        }
    }

    struct SlowTagged(u64, Duration);
    impl Service for SlowTagged {
        type Request = ();
        type Response = u64;
        fn handle(&self, _: ()) -> u64 {
            std::thread::sleep(self.1);
            self.0
        }
    }

    const DL: Duration = Duration::from_secs(5);

    #[test]
    fn round_robin_rotates_over_targets() {
        let nodes: Vec<_> = (0..3).map(|i| tier(&format!("n{i}"), Tagged(i))).collect();
        let lb = Balancer::new(targets(&nodes));
        let got: Vec<u64> = (0..6).map(|_| lb.call((), DL).unwrap()).collect();
        assert_eq!(got, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(lb.num_targets(), 3);
    }

    #[test]
    fn failover_skips_downed_node() {
        let nodes: Vec<_> = (0..3).map(|i| tier(&format!("n{i}"), Tagged(i))).collect();
        let lb = Balancer::new(targets(&nodes));
        nodes[1].faults().set_down(true);
        let got: Vec<u64> = (0..4).map(|_| lb.call((), DL).unwrap()).collect();
        assert!(!got.contains(&1), "downed node must be skipped: {got:?}");
    }

    #[test]
    fn all_down_returns_error() {
        let nodes: Vec<_> = (0..2).map(|i| tier(&format!("n{i}"), Tagged(i))).collect();
        let lb = Balancer::new(targets(&nodes));
        for n in &nodes {
            n.faults().set_down(true);
        }
        assert_eq!(lb.call((), DL), Err(RpcError::NodeDown));
    }

    #[test]
    fn recovery_restores_rotation() {
        let nodes: Vec<_> = (0..2).map(|i| tier(&format!("n{i}"), Tagged(i))).collect();
        let lb = Balancer::new(targets(&nodes));
        nodes[0].faults().set_down(true);
        assert_eq!(lb.call((), DL).unwrap(), 1);
        nodes[0].faults().set_down(false);
        let got: Vec<u64> = (0..4).map(|_| lb.call((), DL).unwrap()).collect();
        assert!(got.contains(&0), "recovered node serves again: {got:?}");
    }

    #[test]
    fn dropped_requests_fail_over() {
        let flaky = tier("flaky", Counting(AtomicU64::new(0)));
        let solid = tier("solid", Counting(AtomicU64::new(1000)));
        flaky.faults().set_drop_probability(1.0);
        let lb = Balancer::new(vec![target(&flaky), target(&solid)]);
        for _ in 0..5 {
            let v = lb.call((), DL).unwrap();
            assert!(v >= 1000, "only the solid node can answer: {v}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn empty_targets_panics() {
        Balancer::<Target>::new(vec![]);
    }

    #[test]
    fn deadline_is_a_total_budget_across_attempts() {
        // Two stragglers: the first attempt eats the whole 60 ms budget, so
        // the balancer must NOT grant the second attempt another 60 ms
        // (which is what the old per-attempt deadline did).
        let a = tier("a", Sleeper(Duration::from_millis(300)));
        let b = tier("b", Sleeper(Duration::from_millis(300)));
        let lb = Balancer::with_policies(
            vec![target(&a), target(&b)],
            HealthPolicy::default(),
            RetryPolicy::no_retry(),
            1,
        );
        let start = Instant::now();
        let err = lb.call((), Duration::from_millis(60)).unwrap_err();
        let elapsed = start.elapsed();
        assert!(
            matches!(err, RpcError::Timeout { .. }),
            "budget exhaustion is a timeout: {err}"
        );
        assert!(
            elapsed < Duration::from_millis(200),
            "one budget, not one per attempt: took {elapsed:?}"
        );
    }

    #[test]
    fn fast_failures_leave_budget_for_failover() {
        let flaky = tier("flaky", SlowTagged(1, Duration::ZERO));
        let solid = tier("solid", SlowTagged(7, Duration::from_millis(20)));
        flaky.faults().set_drop_probability(1.0);
        let lb = Balancer::new(vec![target(&flaky), target(&solid)]);
        // Drops cost ~no budget; the slow-but-healthy replica still fits.
        assert_eq!(lb.call((), Duration::from_millis(500)), Ok(7));
    }

    #[test]
    fn consecutive_failures_open_the_breaker() {
        let flaky = tier("flaky", Tagged(0));
        let solid = tier("solid", Tagged(1));
        flaky.faults().set_drop_probability(1.0);
        let lb = Balancer::with_policies(
            vec![target(&flaky), target(&solid)],
            HealthPolicy {
                failure_threshold: 3,
                cooldown: Duration::from_secs(60),
            },
            RetryPolicy::no_retry(),
            2,
        );
        for _ in 0..6 {
            assert_eq!(lb.call((), DL).unwrap(), 1);
        }
        assert_eq!(
            lb.health_state(0),
            CircuitState::Open,
            "flaky replica tripped its breaker"
        );
        assert_eq!(lb.health_state(1), CircuitState::Closed);
    }

    #[test]
    fn half_open_probe_recovers_a_healed_replica() {
        let flaky = tier("flaky", Tagged(0));
        let solid = tier("solid", Tagged(1));
        flaky.faults().set_drop_probability(1.0);
        let lb = Balancer::with_policies(
            vec![target(&flaky), target(&solid)],
            HealthPolicy {
                failure_threshold: 2,
                cooldown: Duration::from_millis(30),
            },
            RetryPolicy::no_retry(),
            3,
        );
        for _ in 0..4 {
            let _ = lb.call((), DL).unwrap();
        }
        assert_eq!(lb.health_state(0), CircuitState::Open);
        flaky.faults().set_drop_probability(0.0); // heal
        std::thread::sleep(Duration::from_millis(40)); // past the cooldown
        let got: Vec<u64> = (0..6).map(|_| lb.call((), DL).unwrap()).collect();
        assert!(
            got.contains(&0),
            "healed replica serves again after a probe: {got:?}"
        );
        assert_eq!(lb.health_state(0), CircuitState::Closed);
    }

    #[test]
    fn all_breakers_open_still_forces_a_probe() {
        let node = tier("only-flaky", Tagged(0));
        let lb = Balancer::with_policies(
            vec![target(&node)],
            HealthPolicy {
                failure_threshold: 1,
                cooldown: Duration::from_secs(60),
            },
            RetryPolicy::no_retry(),
            4,
        );
        node.faults().set_drop_probability(1.0);
        assert_eq!(lb.call((), DL), Err(RpcError::Dropped));
        assert_eq!(lb.health_state(0), CircuitState::Open);
        node.faults().set_drop_probability(0.0);
        // Breaker is open for a minute, but the forced probe (nothing else
        // to try) must still reach the healed node.
        assert_eq!(lb.call((), DL), Ok(0));
    }

    #[test]
    fn backoff_pause_respects_the_remaining_budget() {
        // Both replicas drop everything; with generous rotations the call
        // must still end when the budget does — never sleeping past it.
        let a = tier("a", Tagged(0));
        let b = tier("b", Tagged(1));
        a.faults().set_drop_probability(1.0);
        b.faults().set_drop_probability(1.0);
        let lb = Balancer::with_policies(
            vec![target(&a), target(&b)],
            HealthPolicy::disabled(),
            RetryPolicy {
                max_rotations: 1_000,
                base_backoff: Duration::from_millis(10),
                max_backoff: Duration::from_millis(20),
                jitter: 0.0,
            },
            5,
        );
        let start = Instant::now();
        let err = lb.call((), Duration::from_millis(80)).unwrap_err();
        let elapsed = start.elapsed();
        assert!(
            matches!(err, RpcError::Dropped | RpcError::Timeout { .. }),
            "got {err}"
        );
        assert!(
            elapsed < Duration::from_millis(300),
            "stopped near the budget: {elapsed:?}"
        );
        // After healing, the same balancer serves again.
        a.faults().set_drop_probability(0.0);
        assert_eq!(lb.call((), Duration::from_millis(500)), Ok(0));
    }

    #[test]
    fn hedged_call_beats_a_straggler() {
        let slow = tier("slow", SlowTagged(7, Duration::from_millis(300)));
        let fast = tier("fast", SlowTagged(42, Duration::ZERO));
        let lb = Balancer::new(vec![target(&slow), target(&fast)]);
        // Rotation starts at the slow node; the hedge fires after 20 ms and
        // lands on the fast one.
        let start = Instant::now();
        let got = lb
            .call_hedged((), Duration::from_secs(2), Duration::from_millis(20))
            .unwrap();
        let elapsed = start.elapsed();
        assert_eq!(got, 42);
        assert!(
            elapsed < Duration::from_millis(250),
            "hedge must win: took {elapsed:?}"
        );
    }

    /// Names of this process's live threads (Linux: `/proc/self/task`).
    #[cfg(target_os = "linux")]
    fn thread_names() -> Vec<String> {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|name| name.trim().to_string())
            .collect()
    }

    #[test]
    fn no_hedge_and_no_helper_thread_when_the_primary_answers_in_time() {
        let m = Arc::new(ResilienceMetrics::new());
        // Names unique to this test: helper threads are named after the
        // straggling target (the kernel keeps 15 bytes of a thread name).
        let a = tier("intime-a", SlowTagged(1, Duration::from_millis(5)));
        let b = tier("intime-b", SlowTagged(2, Duration::from_millis(5)));
        let lb = Balancer::new(vec![target(&a), target(&b)]).with_metrics(Arc::clone(&m));
        for _ in 0..20 {
            lb.call_hedged((), Duration::from_secs(2), Duration::from_millis(500))
                .unwrap();
            #[cfg(target_os = "linux")]
            assert!(
                !thread_names().iter().any(|n| n.contains("intime-")
                    && (n.starts_with("hedge:") || n.starts_with("straggler:"))),
                "a helper thread exists without a fired hedge: {:?}",
                thread_names()
            );
        }
        let snap = m.snapshot();
        assert_eq!((snap.hedges_launched, snap.hedges_won), (0, 0));
    }

    /// A latch a service blocks on until the test opens it.
    #[derive(Default)]
    struct Latch {
        open: std::sync::Mutex<bool>,
        opened: std::sync::Condvar,
    }

    impl Latch {
        fn open(&self) {
            *self.open.lock().expect("latch poisoned") = true;
            self.opened.notify_all();
        }

        /// Blocks until the latch is open; gives up after `limit` so a
        /// failing test cannot hang the tier it is dropping.
        fn wait(&self, limit: Duration) {
            let open = self.open.lock().expect("latch poisoned");
            let _ = self
                .opened
                .wait_timeout_while(open, limit, |open| !*open)
                .expect("latch poisoned");
        }
    }

    /// Answers `self.0` once the latch opens.
    struct Gated(u64, Arc<Latch>);
    impl Service for Gated {
        type Request = ();
        type Response = u64;
        fn handle(&self, _: ()) -> u64 {
            self.1.wait(Duration::from_secs(30));
            self.0
        }
    }

    #[test]
    fn fired_hedge_is_counted_and_raced_on_helper_threads() {
        let m = Arc::new(ResilienceMetrics::new());
        // The straggler answers only after the helper thread waiting on it
        // has been seen, however slowly this host runs.
        let latch = Arc::new(Latch::default());
        let slow = tier("fired-s", Gated(7, Arc::clone(&latch)));
        let fast = tier("fired-f", Tagged(42));
        let lb = Balancer::new(vec![target(&slow), target(&fast)]).with_metrics(Arc::clone(&m));
        // The call's deadline outlives the wait below: the helper thread
        // keeps waiting on the straggler until then.
        let got = lb.call_hedged((), Duration::from_secs(20), Duration::from_millis(20));
        assert_eq!(got, Ok(42));
        // The straggler is still being waited on, by a helper thread. It
        // names itself once it runs, which may be after the hedge won.
        #[cfg(target_os = "linux")]
        {
            let seen = Instant::now();
            while !thread_names().iter().any(|n| n == "straggler:fired") {
                assert!(
                    seen.elapsed() < Duration::from_secs(10),
                    "{:?}",
                    thread_names()
                );
                std::thread::yield_now();
            }
        }
        latch.open();
        let snap = m.snapshot();
        assert_eq!((snap.hedges_launched, snap.hedges_won), (1, 1));
    }

    #[test]
    fn primary_failing_before_the_hedge_timer_fails_over_without_a_hedge() {
        let m = Arc::new(ResilienceMetrics::new());
        let flaky = tier("flaky", Tagged(0));
        let solid = tier("solid", Tagged(1));
        flaky.faults().set_drop_probability(1.0);
        let lb = Balancer::new(vec![target(&flaky), target(&solid)]).with_metrics(Arc::clone(&m));
        for _ in 0..4 {
            assert_eq!(lb.call_hedged((), DL, Duration::from_millis(200)), Ok(1));
        }
        assert_eq!(m.snapshot().hedges_launched, 0);
    }

    /// `call` is `start` then `finish`; the first attempt goes out in
    /// `start`, failover happens in `finish`.
    #[test]
    fn start_sends_the_first_attempt_and_finish_fails_over() {
        let flaky = tier("flaky", Counting(AtomicU64::new(0)));
        let solid = tier("solid", Counting(AtomicU64::new(1000)));
        let lb = Balancer::with_policies(
            vec![target(&flaky), target(&solid)],
            HealthPolicy::disabled(),
            RetryPolicy::no_retry(),
            7,
        );
        // Healthy: the rotation's replica answers, the other is untouched.
        let first = lb.start((), DL);
        assert_eq!(lb.finish(first), Ok(0));
        let second = lb.start((), DL);
        assert_eq!(lb.finish(second), Ok(1000));
        // Two calls started back to back are both in flight before either
        // is finished, and finishing out of order is fine.
        let (x, y) = (lb.start((), DL), lb.start((), DL));
        assert_eq!(lb.finish(y), Ok(1001));
        assert_eq!(lb.finish(x), Ok(1));
        // The first attempt fails: `finish` rotates to the next replica.
        flaky.faults().set_drop_probability(1.0);
        let failing = lb.start((), DL);
        assert_eq!(lb.finish(failing), Ok(1002));
        // All replicas failing: the rotation's last error comes back
        // (this rotation ends on the dropping replica, the next one on
        // the downed one).
        solid.faults().set_down(true);
        let doomed = lb.start((), DL);
        assert_eq!(lb.finish(doomed), Err(RpcError::Dropped));
        assert_eq!(lb.call((), DL), Err(RpcError::NodeDown));
    }

    #[test]
    fn hedged_call_with_single_target_falls_back() {
        let only = tier("only", Tagged(9));
        let lb = Balancer::new(vec![target(&only)]);
        assert_eq!(lb.call_hedged((), DL, Duration::from_millis(1)), Ok(9));
    }

    #[test]
    fn hedged_call_reports_failure_when_everything_is_down() {
        let nodes: Vec<_> = (0..2).map(|i| tier(&format!("n{i}"), Tagged(i))).collect();
        let lb = Balancer::new(targets(&nodes));
        for n in &nodes {
            n.faults().set_down(true);
        }
        let err = lb.call_hedged((), Duration::from_millis(500), Duration::from_millis(10));
        assert!(err.is_err());
    }

    #[test]
    fn pushed_target_joins_the_rotation_with_a_fresh_breaker() {
        let a = tier("a", Tagged(0));
        let lb = Balancer::new(vec![target(&a)]);
        assert_eq!(lb.num_targets(), 1);
        let b = tier("b", Tagged(1));
        lb.push_target(target(&b));
        assert_eq!(lb.num_targets(), 2);
        assert_eq!(lb.health_state(1), CircuitState::Closed);
        let got: Vec<u64> = (0..6).map(|_| lb.call((), DL).unwrap()).collect();
        assert!(
            got.contains(&0) && got.contains(&1),
            "both targets serve after the push: {got:?}"
        );
        // Shared handles see the same (grown) target set.
        let shared = lb.clone();
        assert_eq!(shared.num_targets(), 2);
    }

    #[test]
    fn metrics_count_retries_and_breaker_opens() {
        let m = Arc::new(ResilienceMetrics::new());
        let flaky = tier("flaky", Tagged(0));
        let solid = tier("solid", Tagged(1));
        flaky.faults().set_drop_probability(1.0);
        let lb = Balancer::with_policies(
            vec![target(&flaky), target(&solid)],
            HealthPolicy {
                failure_threshold: 2,
                cooldown: Duration::from_secs(60),
            },
            RetryPolicy::no_retry(),
            6,
        )
        .with_metrics(Arc::clone(&m));
        for _ in 0..4 {
            let _ = lb.call((), DL).unwrap();
        }
        let snap = m.snapshot();
        assert!(snap.call_failures >= 2, "flaky failures counted: {snap:?}");
        assert_eq!(
            snap.breaker_opens, 1,
            "one closed->open transition: {snap:?}"
        );
    }
}
