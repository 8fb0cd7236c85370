//! Actor nodes and their client stubs.
//!
//! A [`Node`] is one "server" of the testbed: a name, a [`Service`]
//! instance, and `n` worker threads pulling requests from an MPMC channel
//! (crossbeam). `n` models the server's core count — at most `n` requests
//! are serviced concurrently; the rest queue, which is exactly the
//! saturation behaviour Figure 13(a) measures.
//!
//! A [`NodeHandle`] is the cloneable client stub. A call is split-phase
//! (see [`CallTarget`]). `start`:
//!
//! 1. consults the node's [`FaultInjector`] (down? dropped? slowed?);
//! 2. samples one network latency and adds the injected slowdown — the
//!    call's *wire delay*, carried in the [`NodePending`], not slept here;
//! 3. enqueues the request with a one-shot reply channel.
//!
//! `finish` waits for the reply with the caller's deadline and then
//! delivers it one wire delay after the worker completed it. Because the
//! delay runs from the reply's completion and not from whenever `finish`
//! happens to be called, the delays of a fan-out's branches overlap, and a
//! straggling branch never holds up the send to the next one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};

use crate::fault::FaultInjector;
use crate::latency::{LatencyModel, LatencySampler};
use crate::rpc::{CallTarget, RpcError, Service};

struct Envelope<Req, Resp> {
    request: Req,
    /// Carries the response and the instant the worker completed it.
    reply: Sender<(Resp, Instant)>,
}

/// Where a call's reply arrives: the response and the instant the worker
/// completed it.
type ReplyReceiver<Resp> = Receiver<(Resp, Instant)>;

/// The node's request channel sender (wrapped so shutdown can drop it).
type EnvelopeSender<S> = Sender<Envelope<<S as Service>::Request, <S as Service>::Response>>;

struct Shared<S: Service> {
    name: String,
    // `None` once the node is shut down; dropping the sender disconnects
    // the workers' receive loop so they exit.
    tx: RwLock<Option<EnvelopeSender<S>>>,
    faults: FaultInjector,
    latency: LatencySampler,
    stopped: AtomicBool,
}

/// A running node; call [`Node::shutdown`] to stop and join its workers.
pub struct Node<S: Service> {
    shared: Arc<Shared<S>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<S: Service> std::fmt::Debug for Node<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("name", &self.shared.name)
            .field("stopped", &self.shared.stopped.load(Ordering::Relaxed))
            .finish()
    }
}

impl<S: Service> Node<S> {
    /// Spawns a node with `workers` threads, no simulated latency and no
    /// faults.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn spawn(name: impl Into<String>, service: S, workers: usize) -> Self {
        Self::spawn_with(name, service, workers, LatencyModel::Zero, 0)
    }

    /// Spawns a node with an explicit latency model and seed (the seed also
    /// derives the fault injector's stream).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn spawn_with(
        name: impl Into<String>,
        service: S,
        workers: usize,
        latency: LatencyModel,
        seed: u64,
    ) -> Self {
        assert!(workers > 0, "a node needs at least one worker");
        let name = name.into();
        let (tx, rx): (EnvelopeSender<S>, Receiver<_>) = unbounded();
        let shared = Arc::new(Shared {
            name: name.clone(),
            tx: RwLock::new(Some(tx)),
            faults: FaultInjector::new(seed ^ 0xFA017),
            latency: LatencySampler::new(latency, seed ^ 0x1A7E),
            stopped: AtomicBool::new(false),
        });
        let service = Arc::new(service);
        let handles = (0..workers)
            .map(|i| {
                let rx = rx.clone();
                let service = Arc::clone(&service);
                std::thread::Builder::new()
                    .name(format!("{name}-w{i}"))
                    .spawn(move || {
                        while let Ok(env) = rx.recv() {
                            let resp = service.handle(env.request);
                            // Caller may have timed out and dropped the
                            // receiver; that is not the worker's problem.
                            let _ = env.reply.send((resp, Instant::now()));
                        }
                    })
                    .expect("spawning node worker thread")
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// The node's name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Creates a client stub.
    pub fn handle(&self) -> NodeHandle<S> {
        NodeHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// This node's fault controls.
    pub fn faults(&self) -> &FaultInjector {
        &self.shared.faults
    }

    /// Stops accepting requests, lets queued work drain, and joins the
    /// workers. Subsequent calls through any handle fail with
    /// [`RpcError::NodeDown`]. Idempotent.
    pub fn shutdown(&self) {
        if self.shared.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        // Dropping the sender disconnects the channel once in-flight
        // clones (inside `call`) are gone; workers then drain and exit.
        *self.shared.tx.write() = None;
        let mut workers = self.workers.lock();
        for h in workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl<S: Service> Drop for Node<S> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Cloneable client stub for a [`Node`].
pub struct NodeHandle<S: Service> {
    shared: Arc<Shared<S>>,
}

impl<S: Service> Clone for NodeHandle<S> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<S: Service> std::fmt::Debug for NodeHandle<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeHandle")
            .field("node", &self.shared.name)
            .finish()
    }
}

impl<S: Service> NodeHandle<S> {
    /// The target node's name.
    pub fn node_name(&self) -> &str {
        &self.shared.name
    }

    /// Whether the node has been shut down or crashed.
    pub fn is_down(&self) -> bool {
        self.shared.stopped.load(Ordering::Relaxed) || self.shared.faults.is_down()
    }

    /// Performs one call with a deadline.
    ///
    /// # Errors
    ///
    /// [`RpcError::NodeDown`] if the node is stopped/crashed,
    /// [`RpcError::Dropped`] if fault injection dropped the request,
    /// [`RpcError::Timeout`] if no reply arrived within `deadline`.
    pub fn call(&self, request: S::Request, deadline: Duration) -> Result<S::Response, RpcError> {
        CallTarget::call(self, request, deadline)
    }

    /// Fault check, wire-delay sample and enqueue of one request.
    fn enqueue(
        &self,
        request: S::Request,
    ) -> Result<(ReplyReceiver<S::Response>, Duration), RpcError> {
        if self.shared.stopped.load(Ordering::Relaxed) {
            return Err(RpcError::NodeDown);
        }
        let extra = self.shared.faults.check()?;
        let wire = self.shared.latency.sample() + extra;
        let (reply_tx, reply_rx) = crossbeam::channel::bounded(1);
        let tx = self.shared.tx.read();
        let tx = tx.as_ref().ok_or(RpcError::NodeDown)?;
        tx.send(Envelope {
            request,
            reply: reply_tx,
        })
        .map_err(|_| RpcError::NodeDown)?;
        Ok((reply_rx, wire))
    }
}

/// A call on a [`NodeHandle`] whose request has been enqueued.
pub struct NodePending<Resp> {
    state: PendingState<Resp>,
    /// Simulated network latency plus injected slowdown of this call.
    wire: Duration,
    deadline_at: Instant,
    deadline: Duration,
}

enum PendingState<Resp> {
    /// The request could not be enqueued.
    Failed(RpcError),
    /// Waiting for a worker's reply.
    Queued(ReplyReceiver<Resp>),
    /// The reply is here and is delivered at the given instant (its
    /// completion plus the wire delay).
    Replied(Resp, Instant),
    /// The result has been handed out.
    Done,
}

impl<Resp> std::fmt::Debug for NodePending<Resp> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodePending")
            .field("wire", &self.wire)
            .field("deadline", &self.deadline)
            .finish()
    }
}

impl<S: Service> CallTarget for NodeHandle<S> {
    type Request = S::Request;
    type Response = S::Response;
    type Pending = NodePending<S::Response>;

    fn start(&self, request: S::Request, deadline: Duration) -> Self::Pending {
        let (state, wire) = match self.enqueue(request) {
            Ok((rx, wire)) => (PendingState::Queued(rx), wire),
            Err(e) => (PendingState::Failed(e), Duration::ZERO),
        };
        NodePending {
            state,
            wire,
            deadline_at: Instant::now() + deadline,
            deadline,
        }
    }

    /// The deadline bounds the wait for the worker's reply (queueing plus
    /// service time); the wire delay comes on top.
    fn wait(
        &self,
        pending: &mut Self::Pending,
        until: Option<Instant>,
    ) -> Option<Result<S::Response, RpcError>> {
        if let PendingState::Queued(rx) = &pending.state {
            let give_up_at = until.filter(|u| *u < pending.deadline_at);
            let limit = give_up_at.unwrap_or(pending.deadline_at);
            match rx.recv_timeout(limit.saturating_duration_since(Instant::now())) {
                Ok((resp, completed_at)) => {
                    pending.state = PendingState::Replied(resp, completed_at + pending.wire);
                }
                Err(RecvTimeoutError::Timeout) => {
                    return match give_up_at {
                        Some(_) => None,
                        None => Some(Err(RpcError::Timeout {
                            deadline: pending.deadline,
                        })),
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return Some(Err(RpcError::NodeDown)),
            }
        }
        if let (PendingState::Replied(_, deliver_at), Some(until)) = (&pending.state, until) {
            if until < *deliver_at {
                std::thread::sleep(until.saturating_duration_since(Instant::now()));
                return None;
            }
        }
        match std::mem::replace(&mut pending.state, PendingState::Done) {
            PendingState::Failed(e) => Some(Err(e)),
            PendingState::Replied(resp, deliver_at) => {
                std::thread::sleep(deliver_at.saturating_duration_since(Instant::now()));
                Some(Ok(resp))
            }
            PendingState::Queued(_) | PendingState::Done => {
                unreachable!("a pending call resolves once")
            }
        }
    }

    fn is_down(&self) -> bool {
        NodeHandle::is_down(self)
    }

    fn target_name(&self) -> &str {
        self.node_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    struct Doubler;
    impl Service for Doubler {
        type Request = u64;
        type Response = u64;
        fn handle(&self, req: u64) -> u64 {
            req * 2
        }
    }

    struct Sleeper(Duration);
    impl Service for Sleeper {
        type Request = ();
        type Response = ();
        fn handle(&self, _req: ()) {
            std::thread::sleep(self.0);
        }
    }

    const DL: Duration = Duration::from_secs(5);

    #[test]
    fn call_round_trip() {
        let node = Node::spawn("d", Doubler, 2);
        let h = node.handle();
        assert_eq!(h.call(21, DL), Ok(42));
        assert_eq!(h.node_name(), "d");
        assert_eq!(node.name(), "d");
    }

    #[test]
    fn handles_are_cloneable_and_concurrent() {
        let node = Node::spawn("d", Doubler, 4);
        let h = node.handle();
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        assert_eq!(h.call(t * 100 + i, DL), Ok((t * 100 + i) * 2));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn worker_pool_bounds_concurrency() {
        // 1 worker + 10 ms service time: 4 serialized calls take >= 40 ms.
        let node = Node::spawn("slow", Sleeper(Duration::from_millis(10)), 1);
        let h = node.handle();
        let start = std::time::Instant::now();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || h.call((), DL).unwrap())
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(
            start.elapsed() >= Duration::from_millis(40),
            "calls must serialize"
        );
    }

    #[test]
    fn timeout_fires_on_slow_service() {
        let node = Node::spawn("slow", Sleeper(Duration::from_millis(100)), 1);
        let h = node.handle();
        let err = h.call((), Duration::from_millis(5)).unwrap_err();
        assert!(matches!(err, RpcError::Timeout { .. }));
    }

    #[test]
    fn shutdown_makes_node_down_and_joins_workers() {
        let node = Node::spawn("d", Doubler, 2);
        let h = node.handle();
        assert_eq!(h.call(1, DL), Ok(2));
        node.shutdown();
        assert_eq!(h.call(1, DL), Err(RpcError::NodeDown));
        assert!(h.is_down());
        node.shutdown(); // idempotent
    }

    #[test]
    fn injected_crash_fails_calls_until_recovery() {
        let node = Node::spawn("d", Doubler, 1);
        let h = node.handle();
        node.faults().set_down(true);
        assert_eq!(h.call(1, DL), Err(RpcError::NodeDown));
        assert!(h.is_down());
        node.faults().set_down(false);
        assert_eq!(h.call(1, DL), Ok(2));
    }

    #[test]
    fn injected_drops_surface_as_dropped() {
        let node = Node::spawn("d", Doubler, 1);
        let h = node.handle();
        node.faults().set_drop_probability(1.0);
        assert_eq!(h.call(1, DL), Err(RpcError::Dropped));
        node.faults().set_drop_probability(0.0);
        assert_eq!(h.call(1, DL), Ok(2));
    }

    #[test]
    fn latency_model_slows_calls() {
        let node = Node::spawn_with(
            "d",
            Doubler,
            1,
            LatencyModel::Constant(Duration::from_millis(5)),
            9,
        );
        let h = node.handle();
        let start = std::time::Instant::now();
        h.call(1, DL).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn slowdown_injection_adds_delay() {
        let node = Node::spawn("d", Doubler, 1);
        node.faults().set_slowdown(Duration::from_millis(5));
        let h = node.handle();
        let start = std::time::Instant::now();
        h.call(1, DL).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    /// `call` is `start` then `finish`: the two spellings agree on every
    /// outcome a node can produce.
    #[test]
    fn start_then_finish_is_call() {
        let node = Node::spawn("d", Doubler, 1);
        let h = node.handle();
        let split = |req| h.finish(h.start(req, DL));
        assert_eq!(split(4), Ok(8));
        assert_eq!(h.call(4, DL), Ok(8));
        node.faults().set_drop_probability(1.0);
        assert_eq!(split(4), Err(RpcError::Dropped));
        assert_eq!(h.call(4, DL), Err(RpcError::Dropped));
        node.faults().set_drop_probability(0.0);
        node.faults().set_down(true);
        assert_eq!(split(4), Err(RpcError::NodeDown));
        assert_eq!(h.call(4, DL), Err(RpcError::NodeDown));
        node.faults().set_down(false);
        node.shutdown();
        assert_eq!(split(4), Err(RpcError::NodeDown));
        assert_eq!(h.call(4, DL), Err(RpcError::NodeDown));

        // Timeout: the deadline runs from `start`, not from `finish`.
        let slow = Node::spawn("slow", Sleeper(Duration::from_millis(600)), 2);
        let h = slow.handle();
        let deadline = Duration::from_millis(150);
        let begun = Instant::now();
        let pending = h.start((), deadline);
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(h.finish(pending), Err(RpcError::Timeout { deadline }));
        assert!(
            begun.elapsed() < Duration::from_millis(230),
            "finish waited a full deadline of its own: {:?}",
            begun.elapsed()
        );
        assert_eq!(h.call((), deadline), Err(RpcError::Timeout { deadline }));
    }

    /// Wire delays of calls started together overlap, whatever the order
    /// and time at which they are finished.
    #[test]
    fn wire_delays_of_started_calls_overlap() {
        let wire = Duration::from_millis(100);
        let nodes: Vec<_> = (0..3)
            .map(|i| Node::spawn_with(format!("n{i}"), Doubler, 1, LatencyModel::Constant(wire), i))
            .collect();
        let handles: Vec<_> = nodes.iter().map(Node::handle).collect();
        let begun = Instant::now();
        let pending: Vec<_> = handles.iter().map(|h| h.start(1, DL)).collect();
        assert!(
            begun.elapsed() < wire / 2,
            "start must not sleep the wire delay: {:?}",
            begun.elapsed()
        );
        for (h, p) in handles.iter().zip(pending) {
            assert_eq!(h.finish(p), Ok(2));
        }
        let elapsed = begun.elapsed();
        assert!(elapsed >= wire, "the delay is still charged: {elapsed:?}");
        assert!(
            elapsed < wire * 2 - Duration::from_millis(20),
            "three delays overlapped: {elapsed:?}"
        );
    }

    #[test]
    fn bounded_wait_gives_up_and_can_be_resumed() {
        let node = Node::spawn("d", Doubler, 1);
        node.faults().set_slowdown(Duration::from_millis(120));
        let h = node.handle();
        let begun = Instant::now();
        let mut pending = h.start(21, DL);
        let early = begun + Duration::from_millis(30);
        assert_eq!(h.wait(&mut pending, Some(early)), None, "still on the wire");
        assert!(Instant::now() >= early, "gave up before the bound");
        assert!(begun.elapsed() < Duration::from_millis(100));
        assert_eq!(h.wait(&mut pending, None), Some(Ok(42)));
        assert!(begun.elapsed() >= Duration::from_millis(120));
    }

    #[test]
    fn service_state_is_shared_across_workers() {
        struct Counter(AtomicU64);
        impl Service for Counter {
            type Request = ();
            type Response = u64;
            fn handle(&self, _: ()) -> u64 {
                self.0.fetch_add(1, Ordering::Relaxed)
            }
        }
        let node = Node::spawn("c", Counter(AtomicU64::new(0)), 4);
        let h = node.handle();
        let mut seen: Vec<u64> = (0..100).map(|_| h.call((), DL).unwrap()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn drop_shuts_node_down() {
        let h = {
            let node = Node::spawn("d", Doubler, 1);
            node.handle()
        };
        assert_eq!(h.call(1, DL), Err(RpcError::NodeDown));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        Node::spawn("bad", Doubler, 0);
    }
}
