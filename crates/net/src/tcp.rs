//! Socket-backed serving: a framed TCP listener wrapping a [`Service`]
//! behind an [`AdmissionController`], and the matching pooled client
//! channel implementing [`CallTarget`].
//!
//! This is the serving stack's one transport: searchers, brokers and
//! blenders serve unmodified behind a [`TcpTier`], requests arrive as
//! CRC-checked frames over real loopback sockets and pass through the
//! tier's admission front door *before* body decode, and tiers can be
//! drained or crashed independently.
//!
//! ## The simulated hop
//!
//! Each listener has one [`Link`] — a [`FaultInjector`] and a seeded
//! [`LatencySampler`] — shared by every channel that dials it through
//! [`TcpTier::channel`], which applies it on the caller's side.
//! [`TcpChannel::start`](CallTarget::start) consults the injector (down is
//! [`RpcError::NodeDown`] and a drop is [`RpcError::Dropped`], neither
//! touching the socket) and samples the call's wire delay, to which an
//! injected slowdown is added; `wait` delivers the reply one wire delay
//! after it arrived. While a link delays calls, its listener stamps into
//! the link the instant it sent each `Ok` reply (one stamp per open
//! connection), so "arrived" is that instant and not whenever the caller
//! got round to reading: the delays of a fan-out's branches overlap. A
//! stamp older than the call reading it is ignored. A link that delays
//! nothing costs a few relaxed loads per call and takes no lock.
//!
//! ## Transport
//!
//! The design brief calls for a tokio-based transport; this build runs in
//! an offline environment where tokio is not vendored, so the transport
//! uses `std::net` blocking sockets: an accept thread blocked in
//! `accept()` (a stopping tier wakes it with a loopback connect), one
//! thread per accepted connection, and condvar-based admission queues.
//! What an async runtime would buy on the client side — many calls in
//! flight from one thread — comes from the split-phase [`CallTarget`]
//! contract instead: [`TcpChannel::start`](CallTarget::start) writes the
//! request and returns holding the connection, the reply is read in
//! `finish`, so a caller fanning out starts every branch before it reads
//! any reply and no thread is spawned per branch. A frame is written with
//! one `write` and read through the connection's
//! [`FrameReader`], so a message costs one syscall and one receiver
//! wake-up on each side. The wire format, the admission state machine and
//! the drain/crash semantics are transport agnostic.

use std::collections::HashMap;
use std::io;
use std::marker::PhantomData;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use jdvs_metrics::ServingMetrics;

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::fault::FaultInjector;
use crate::frame::{
    decode_request, decode_response, encode_request, encode_response, io_timed_out, write_frame,
    FrameError, FrameReader, ResponseEnvelope,
};
use crate::latency::{LatencyModel, LatencySampler};
use crate::rpc::{CallTarget, RpcError, Service};

/// How often a connection thread wakes from a blocked read to check the
/// stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Idle connections kept per client channel.
const POOL_CAP: usize = 8;

/// Floor for socket timeouts (`set_read_timeout(Some(0))` is an error).
const MIN_SOCKET_TIMEOUT: Duration = Duration::from_millis(1);

/// The simulated network in front of one listener: its fault injector and
/// wire-latency sampler, shared by every channel that dials it through
/// [`TcpTier::channel`]. See the module docs.
#[derive(Debug)]
pub struct Link {
    faults: FaultInjector,
    latency: LatencySampler,
    /// When the listener sent each open connection's latest `Ok` reply, by
    /// the client's address; stamped only while the link delays calls.
    sent: Mutex<HashMap<SocketAddr, Instant>>,
}

impl Link {
    /// A link charging `latency` per call, with no fault injected; `seed`
    /// derives its latency and drop streams.
    pub fn new(latency: LatencyModel, seed: u64) -> Self {
        Self {
            faults: FaultInjector::new(seed ^ 0xFA017),
            latency: LatencySampler::new(latency, seed ^ 0x1A7E),
            sent: Mutex::new(HashMap::new()),
        }
    }

    /// The fault controls every channel over this link obeys.
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// Whether calls over this link are delayed at all.
    fn delays(&self) -> bool {
        self.latency.model() != LatencyModel::Zero || !self.faults.slowdown().is_zero()
    }
}

impl Default for Link {
    /// No latency, no fault.
    fn default() -> Self {
        Self::new(LatencyModel::Zero, 0)
    }
}

/// One tier of the serving stack listening on a real TCP socket.
///
/// Accepts framed requests, runs them through admission control, and
/// serves admitted ones on per-connection threads. Supports a graceful
/// [`TcpTier::drain`] (answer in-flight work, shed new arrivals, then
/// stop) and an abrupt [`TcpTier::crash`] (sever everything mid-flight,
/// refuse new connections) for fault-injection tests.
pub struct TcpTier<S: Service> {
    name: String,
    local_addr: SocketAddr,
    admission: Arc<AdmissionController>,
    link: Arc<Link>,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    streams: Arc<Mutex<Vec<TcpStream>>>,
    stopped: bool,
    _service: PhantomData<fn() -> S>,
}

impl<S: Service> std::fmt::Debug for TcpTier<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTier")
            .field("name", &self.name)
            .field("local_addr", &self.local_addr)
            .field("stopped", &self.stopped)
            .finish()
    }
}

impl<S: Service> TcpTier<S> {
    /// Binds a listener on an OS-assigned loopback port and starts serving
    /// `service` behind admission control, over a [`Link`] that delays
    /// nothing.
    ///
    /// `decode_request_body` / `encode_response_body` bridge the wire to
    /// the service's message types; a body that fails to decode is
    /// answered with an error envelope (never a crash).
    ///
    /// # Errors
    ///
    /// Propagates listener bind errors.
    pub fn spawn(
        name: &str,
        service: S,
        decode_request_body: fn(&[u8]) -> Option<S::Request>,
        encode_response_body: fn(&S::Response) -> Vec<u8>,
        config: AdmissionConfig,
    ) -> io::Result<Self> {
        Self::spawn_with(
            name,
            service,
            decode_request_body,
            encode_response_body,
            config,
            Link::default(),
        )
    }

    /// Like [`TcpTier::spawn`], but behind `link`, the latency and faults
    /// every [`TcpTier::channel`] to the tier charges.
    ///
    /// # Errors
    ///
    /// Propagates listener bind errors.
    pub fn spawn_with(
        name: &str,
        service: S,
        decode_request_body: fn(&[u8]) -> Option<S::Request>,
        encode_response_body: fn(&S::Response) -> Vec<u8>,
        config: AdmissionConfig,
        link: Link,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))?;
        let local_addr = listener.local_addr()?;

        let admission = Arc::new(AdmissionController::new(
            config,
            Arc::new(ServingMetrics::new()),
        ));
        let link = Arc::new(link);
        let service = Arc::new(service);
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let streams: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_handle = {
            let admission = Arc::clone(&admission);
            let link = Arc::clone(&link);
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let workers = Arc::clone(&workers);
            let streams = Arc::clone(&streams);
            let name = name.to_string();
            thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || {
                    // Blocks in `accept`; `stop_threads` sets the flag and
                    // then connects once so the loop sees it.
                    while let Ok((stream, _)) = listener.accept() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
                        if let Ok(clone) = stream.try_clone() {
                            streams.lock().push(clone);
                        }
                        let admission = Arc::clone(&admission);
                        let link = Arc::clone(&link);
                        let service = Arc::clone(&service);
                        let stop = Arc::clone(&stop);
                        let handle = thread::Builder::new()
                            .name(format!("{name}-conn"))
                            .spawn(move || {
                                serve_connection(
                                    stream,
                                    &service,
                                    &admission,
                                    &link,
                                    decode_request_body,
                                    encode_response_body,
                                    &stop,
                                );
                            })
                            .expect("spawn connection thread");
                        workers.lock().push(handle);
                    }
                    // Listener drops here: further connects are refused.
                })
                .expect("spawn accept thread")
        };

        Ok(Self {
            name: name.to_string(),
            local_addr,
            admission,
            link,
            stop,
            accept_handle: Some(accept_handle),
            workers,
            streams,
            stopped: false,
            _service: PhantomData,
        })
    }

    /// The loopback address the tier listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Tier name (used in thread names and diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Serving metrics for this tier (admissions, sheds, concurrency
    /// high-water marks).
    pub fn metrics(&self) -> &Arc<ServingMetrics> {
        self.admission.metrics()
    }

    /// The tier's admission controller (for drain checks in tests).
    pub fn admission(&self) -> &Arc<AdmissionController> {
        &self.admission
    }

    /// The fault controls of the tier's [`Link`]: every
    /// [`TcpTier::channel`] dialing the tier obeys them.
    pub fn faults(&self) -> &FaultInjector {
        self.link.faults()
    }

    /// A pooled channel, named after the tier, that dials it through its
    /// [`Link`]: it charges the tier's latency and obeys its faults.
    pub fn channel<Req, Resp>(
        &self,
        encode_request_body: fn(&Req) -> Vec<u8>,
        decode_response_body: fn(&[u8]) -> Option<Resp>,
    ) -> TcpChannel<Req, Resp> {
        TcpChannel {
            name: format!("{}-ch", self.name),
            addr: self.local_addr,
            link: Arc::clone(&self.link),
            encode_request_body,
            decode_response_body,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Gracefully drains the tier: new requests are shed with a fast
    /// `Draining` rejection, in-flight requests are answered, and once the
    /// tier is idle (or `timeout` elapses) all threads are stopped and the
    /// listener is closed.
    ///
    /// Returns `true` if the tier went idle before the timeout.
    pub fn drain(&mut self, timeout: Duration) -> bool {
        self.admission.start_draining();
        let deadline = Instant::now() + timeout;
        let mut idle = false;
        while Instant::now() < deadline {
            if self.admission.in_flight() == 0 {
                idle = true;
                break;
            }
            thread::sleep(Duration::from_millis(2));
        }
        self.stop_threads(true);
        idle
    }

    /// Simulates a process crash: the listener closes (subsequent connects
    /// are refused), every open connection is severed mid-whatever, and no
    /// in-flight request receives a response.
    ///
    /// Connection threads still inside a handler are detached rather than
    /// joined (their response write fails and they exit on their own) — a
    /// crash must not wait for in-flight work.
    pub fn crash(&mut self) {
        self.stop_threads(false);
    }

    fn stop_threads(&mut self, join_workers: bool) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        self.stop.store(true, Ordering::SeqCst);
        self.admission.start_draining();
        // Sever tracked connections so blocked reads/writes fail now.
        for s in self.streams.lock().drain(..) {
            let _ = s.shutdown(Shutdown::Both);
        }
        if let Some(h) = self.accept_handle.take() {
            // Wake the accept thread out of `accept()`; it drops the
            // listener on its way out, so later connects are refused. If
            // the connect fails the backlog is full and `accept` is about
            // to return anyway.
            let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
            let _ = h.join();
        }
        let workers = std::mem::take(&mut *self.workers.lock());
        if join_workers {
            for h in workers {
                let _ = h.join();
            }
        }
    }
}

impl<S: Service> Drop for TcpTier<S> {
    fn drop(&mut self) {
        // Detach any worker still inside a handler; it exits once its
        // response write fails against the severed socket.
        self.stop_threads(false);
    }
}

/// Serves one connection until the peer closes, the stream breaks, or the
/// tier stops.
///
/// A read timeout just re-polls the stop flag: bytes of a frame that has
/// only partly arrived stay in the connection's [`FrameReader`] and the
/// next read resumes it. Only a reply a caller can deliver (`Ok`) is
/// stamped into the link, and the connection's stamp goes with it.
fn serve_connection<S: Service>(
    stream: TcpStream,
    service: &Arc<S>,
    admission: &Arc<AdmissionController>,
    link: &Link,
    decode_request_body: fn(&[u8]) -> Option<S::Request>,
    encode_response_body: fn(&S::Response) -> Vec<u8>,
    stop: &AtomicBool,
) {
    let peer = stream.peer_addr().ok();
    let mut conn = FrameReader::new(stream);
    loop {
        let envelope = match conn.read_frame() {
            Ok(payload) => decode_request(payload),
            Err(e) if e.is_timeout() => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break, // closed, torn or corrupt: drop the connection
        };
        let metrics = admission.metrics();
        let (reply, permit) = match envelope {
            Err(_) => {
                metrics.decode_errors.incr();
                (ResponseEnvelope::Error, None)
            }
            Ok(envelope) => match admission.admit(envelope.budget) {
                Err(reason) => (ResponseEnvelope::Overloaded(reason), None),
                Ok(mut permit) => {
                    let reply = match decode_request_body(&envelope.body) {
                        Some(request) => {
                            let response = service.handle(request);
                            ResponseEnvelope::Ok(encode_response_body(&response))
                        }
                        None => {
                            metrics.decode_errors.incr();
                            ResponseEnvelope::Error
                        }
                    };
                    permit.served();
                    (reply, Some(permit))
                }
            },
        };
        let delivered = matches!(reply, ResponseEnvelope::Ok(_));
        if let Some(peer) = peer.filter(|_| delivered && link.delays()) {
            link.sent.lock().insert(peer, Instant::now());
        }
        let sent = respond(conn.get_mut(), &reply);
        // An admitted request holds its slot until its reply is written:
        // `TcpTier::drain` severs connections once `in_flight()` reads 0,
        // and must not cut off a reply it admitted.
        drop(permit);
        if sent.is_err() {
            break;
        }
    }
    if let Some(peer) = peer {
        link.sent.lock().remove(&peer);
    }
}

fn respond(stream: &mut TcpStream, envelope: &ResponseEnvelope) -> io::Result<()> {
    write_frame(stream, &encode_response(envelope))
}

/// One pooled client connection; the reader keeps its buffer across calls.
type Conn = FrameReader<TcpStream>;

/// A pooled client channel to one remote tier, implementing
/// [`CallTarget`] so a [`crate::balancer::Balancer`] can spread calls,
/// trip breakers and hedge across network replicas.
pub struct TcpChannel<Req, Resp> {
    name: String,
    addr: SocketAddr,
    link: Arc<Link>,
    encode_request_body: fn(&Req) -> Vec<u8>,
    decode_response_body: fn(&[u8]) -> Option<Resp>,
    pool: Mutex<Vec<Conn>>,
}

impl<Req, Resp> std::fmt::Debug for TcpChannel<Req, Resp> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpChannel")
            .field("name", &self.name)
            .field("addr", &self.addr)
            .finish()
    }
}

/// A call on a [`TcpChannel`] whose request has been written: it holds the
/// connection the reply will arrive on, then the reply until its delivery.
#[derive(Debug)]
pub struct TcpPending<Resp> {
    /// The connection the request went out on, or why it could not be sent.
    conn: Result<Conn, RpcError>,
    /// The encoded request, kept for the retry.
    body: Vec<u8>,
    /// Queries are idempotent, so a connection the peer closed before
    /// replying (a stale pooled one, typically) is worth exactly one retry
    /// on a fresh socket before reporting the node down. Set once spent.
    retried: bool,
    deadline_at: Instant,
    deadline: Duration,
    /// The link's sampled latency plus its injected slowdown.
    wire: Duration,
    /// A delayed reply that has been read, and when it is delivered: its
    /// arrival plus the wire delay.
    reply: Option<(Resp, Instant)>,
}

enum SendFail {
    /// The connection is dead (peer closed it between calls).
    Stale,
    Rpc(RpcError),
}

impl SendFail {
    /// What the call reports when no retry is left.
    fn into_rpc(self) -> RpcError {
        match self {
            SendFail::Stale => RpcError::NodeDown,
            SendFail::Rpc(e) => e,
        }
    }
}

impl<Req, Resp> TcpChannel<Req, Resp> {
    /// Creates a channel to `addr` over a [`Link`] of its own that delays
    /// nothing and injects no fault. Connections are opened lazily on first
    /// call and reused afterwards.
    pub fn new(
        name: impl Into<String>,
        addr: SocketAddr,
        encode_request_body: fn(&Req) -> Vec<u8>,
        decode_response_body: fn(&[u8]) -> Option<Resp>,
    ) -> Self {
        Self {
            name: name.into(),
            addr,
            link: Arc::new(Link::default()),
            encode_request_body,
            decode_response_body,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// The remote address this channel dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Writes `body` as one request frame, on a pooled connection unless
    /// `fresh`, and returns the connection the reply will arrive on.
    fn send(
        &self,
        body: &[u8],
        deadline_at: Instant,
        deadline: Duration,
        fresh: bool,
    ) -> Result<Conn, SendFail> {
        let timeout = RpcError::Timeout { deadline };
        let pooled = if fresh { None } else { self.pool.lock().pop() };
        let mut conn = match pooled {
            Some(conn) => conn,
            None => {
                let remaining = deadline_at.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(SendFail::Rpc(timeout));
                }
                let stream =
                    TcpStream::connect_timeout(&self.addr, remaining.max(MIN_SOCKET_TIMEOUT))
                        .map_err(|e| {
                            SendFail::Rpc(if io_timed_out(&e) {
                                timeout
                            } else {
                                RpcError::NodeDown
                            })
                        })?;
                let _ = stream.set_nodelay(true);
                FrameReader::new(stream)
            }
        };
        let remaining = deadline_at.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(SendFail::Rpc(timeout));
        }
        let _ = conn
            .get_ref()
            .set_write_timeout(Some(remaining.max(MIN_SOCKET_TIMEOUT)));
        write_frame(conn.get_mut(), &encode_request(remaining, body)).map_err(|e| {
            if io_timed_out(&e) {
                SendFail::Rpc(timeout)
            } else {
                SendFail::Stale
            }
        })?;
        Ok(conn)
    }

    /// When the reply just read on `conn` to a call started at `started`
    /// arrived: the listener's stamp in the link, or now if it left none
    /// for this call (a stamp older than the call answered an earlier one).
    fn arrival(&self, conn: &Conn, started: Instant) -> Instant {
        let addr = conn.get_ref().local_addr().ok();
        let stamp = addr.and_then(|addr| self.link.sent.lock().remove(&addr));
        stamp
            .filter(|&sent| sent >= started)
            .unwrap_or_else(Instant::now)
    }

    /// Reads the reply of a started call (`None` while it is still in
    /// flight at `until`; see [`CallTarget::wait`] on [`TcpChannel`] for
    /// the error mapping). A delayed call also gets the instant its reply
    /// arrived.
    #[allow(clippy::type_complexity)]
    fn read_reply(
        &self,
        pending: &mut TcpPending<Resp>,
        until: Option<Instant>,
    ) -> Option<Result<(Resp, Option<Instant>), RpcError>> {
        let deadline = pending.deadline;
        let give_up_at = until.filter(|u| *u < pending.deadline_at);
        loop {
            let conn = match &mut pending.conn {
                Ok(conn) => conn,
                Err(e) => return Some(Err(*e)),
            };
            let remaining = give_up_at
                .unwrap_or(pending.deadline_at)
                .saturating_duration_since(Instant::now());
            let _ = conn
                .get_ref()
                .set_read_timeout(Some(remaining.max(MIN_SOCKET_TIMEOUT)));
            let reply = match conn.read_frame() {
                Ok(payload) => decode_response(payload),
                Err(e) if e.is_timeout() => {
                    return match give_up_at {
                        Some(_) => None,
                        None => Some(Err(RpcError::Timeout { deadline })),
                    }
                }
                Err(FrameError::Closed) if !pending.retried => {
                    pending.retried = true;
                    pending.conn = self
                        .send(&pending.body, pending.deadline_at, deadline, true)
                        .map_err(SendFail::into_rpc);
                    continue;
                }
                Err(_) => return Some(Err(RpcError::NodeDown)),
            };
            return Some(match reply {
                Ok(ResponseEnvelope::Ok(body)) => match (self.decode_response_body)(&body) {
                    Some(response) => {
                        let started = pending.deadline_at - deadline;
                        let arrived =
                            (!pending.wire.is_zero()).then(|| self.arrival(conn, started));
                        let done = std::mem::replace(&mut pending.conn, Err(RpcError::NodeDown));
                        let mut pool = self.pool.lock();
                        if pool.len() < POOL_CAP {
                            pool.extend(done);
                        }
                        Ok((response, arrived))
                    }
                    None => Err(RpcError::NodeDown),
                },
                Ok(ResponseEnvelope::Overloaded(_)) => Err(RpcError::Overloaded),
                Ok(ResponseEnvelope::Error) | Err(_) => Err(RpcError::NodeDown),
            });
        }
    }
}

impl<Req, Resp> CallTarget for TcpChannel<Req, Resp>
where
    Req: Send + Sync + 'static,
    Resp: Send + Sync + 'static,
{
    type Request = Req;
    type Response = Resp;
    type Pending = TcpPending<Resp>;

    /// Consults the link's fault injector — a down target or a dropped
    /// request fails here, without touching the socket — then samples the
    /// wire delay and writes the request.
    fn start(&self, request: Req, deadline: Duration) -> TcpPending<Resp> {
        let deadline_at = Instant::now() + deadline;
        let mut pending = TcpPending {
            conn: Err(RpcError::NodeDown),
            body: Vec::new(),
            retried: false,
            deadline_at,
            deadline,
            wire: Duration::ZERO,
            reply: None,
        };
        let slowdown = match self.link.faults.check() {
            Ok(slowdown) => slowdown,
            Err(e) => {
                pending.conn = Err(e);
                return pending;
            }
        };
        pending.wire = self.link.latency.sample() + slowdown;
        pending.body = (self.encode_request_body)(&request);
        pending.conn = match self.send(&pending.body, deadline_at, deadline, false) {
            Err(SendFail::Stale) => {
                pending.retried = true;
                self.send(&pending.body, deadline_at, deadline, true)
            }
            sent => sent,
        }
        .map_err(SendFail::into_rpc);
        pending
    }

    /// The call's deadline bounds the wait for the reply; a delayed reply
    /// is then delivered one wire delay after it arrived, on top.
    ///
    /// A read timing out at the call's deadline is [`RpcError::Timeout`];
    /// a clean close before the reply spends the call's one retry on a
    /// fresh socket; a shed reply is [`RpcError::Overloaded`]; anything
    /// else (reset, torn or corrupt frame, error envelope, undecodable
    /// body, refused connect) is [`RpcError::NodeDown`].
    fn wait(
        &self,
        pending: &mut TcpPending<Resp>,
        until: Option<Instant>,
    ) -> Option<Result<Resp, RpcError>> {
        let (response, deliver_at) = match pending.reply.take() {
            Some(reply) => reply,
            None => match self.read_reply(pending, until)? {
                Err(e) => return Some(Err(e)),
                Ok((response, None)) => return Some(Ok(response)),
                Ok((response, Some(arrived))) => (response, arrived + pending.wire),
            },
        };
        if let Some(until) = until.filter(|u| *u < deliver_at) {
            pending.reply = Some((response, deliver_at));
            thread::sleep(until.saturating_duration_since(Instant::now()));
            return None;
        }
        thread::sleep(deliver_at.saturating_duration_since(Instant::now()));
        Some(Ok(response))
    }

    fn is_down(&self) -> bool {
        self.link.faults.is_down()
    }

    fn target_name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;

    struct Echo;
    impl Service for Echo {
        type Request = Vec<u8>;
        type Response = Vec<u8>;
        fn handle(&self, req: Vec<u8>) -> Vec<u8> {
            req
        }
    }

    struct Sleeper(Duration);
    impl Service for Sleeper {
        type Request = Vec<u8>;
        type Response = Vec<u8>;
        fn handle(&self, req: Vec<u8>) -> Vec<u8> {
            thread::sleep(self.0);
            req
        }
    }

    fn bytes_decode(b: &[u8]) -> Option<Vec<u8>> {
        Some(b.to_vec())
    }
    #[allow(clippy::ptr_arg)] // must match the fn(&Req) -> Vec<u8> pointer shape
    fn bytes_encode(b: &Vec<u8>) -> Vec<u8> {
        b.clone()
    }

    fn channel_to<S: Service>(tier: &TcpTier<S>) -> TcpChannel<Vec<u8>, Vec<u8>> {
        TcpChannel::new("chan", tier.local_addr(), bytes_encode, bytes_decode)
    }

    #[test]
    fn echo_round_trip_over_tcp() {
        let tier = TcpTier::spawn(
            "echo",
            Echo,
            bytes_decode,
            bytes_encode,
            AdmissionConfig::default(),
        )
        .unwrap();
        let chan = channel_to(&tier);
        for i in 0..20u8 {
            let resp = chan.call(vec![i, i + 1], Duration::from_secs(2)).unwrap();
            assert_eq!(resp, vec![i, i + 1]);
        }
        assert_eq!(tier.metrics().admitted.get(), 20);
        assert_eq!(tier.metrics().completed.get(), 20);
    }

    #[test]
    fn overload_sheds_fast() {
        let tier = TcpTier::spawn(
            "slow",
            Sleeper(Duration::from_millis(300)),
            bytes_decode,
            bytes_encode,
            AdmissionConfig {
                max_concurrency: 1,
                queue_capacity: 0,
                ..AdmissionConfig::default()
            },
        )
        .unwrap();
        let chan = Arc::new(channel_to(&tier));
        let c2 = Arc::clone(&chan);
        let busy = thread::spawn(move || c2.call(vec![1], Duration::from_secs(3)));
        thread::sleep(Duration::from_millis(100)); // let the first call occupy the slot
        let start = Instant::now();
        let shed = chan.call(vec![2], Duration::from_secs(3));
        let shed_latency = start.elapsed();
        assert_eq!(shed.unwrap_err(), RpcError::Overloaded);
        assert!(
            shed_latency < Duration::from_millis(150),
            "shed took {shed_latency:?}, expected a fast rejection"
        );
        busy.join().unwrap().unwrap();
        assert_eq!(tier.metrics().shed_queue_full.get(), 1);
    }

    #[test]
    fn drain_answers_in_flight_then_refuses_connections() {
        let mut tier = TcpTier::spawn(
            "drainable",
            Sleeper(Duration::from_millis(150)),
            bytes_decode,
            bytes_encode,
            AdmissionConfig::default(),
        )
        .unwrap();
        let addr = tier.local_addr();
        let chan = Arc::new(channel_to(&tier));
        let c2 = Arc::clone(&chan);
        let inflight = thread::spawn(move || c2.call(vec![7], Duration::from_secs(3)));
        // Positive handshake: wait until the request is actually admitted
        // before draining — a fixed sleep races the connect under load.
        let t0 = Instant::now();
        while tier.metrics().admitted.get() == 0 {
            assert!(t0.elapsed() < Duration::from_secs(2), "call never admitted");
            thread::sleep(Duration::from_millis(2));
        }
        assert!(tier.drain(Duration::from_secs(3)), "tier should go idle");
        // The in-flight request was answered, not severed.
        assert_eq!(inflight.join().unwrap().unwrap(), vec![7]);
        // New connections are refused now.
        let fresh = TcpChannel::new("late", addr, bytes_encode, bytes_decode);
        assert_eq!(
            fresh.call(vec![9], Duration::from_millis(500)).unwrap_err(),
            RpcError::NodeDown
        );
    }

    /// Answers `reply_len` bytes, and signals `handled` as `handle`
    /// returns.
    struct SignalsHandled {
        reply_len: usize,
        handled: Mutex<std::sync::mpsc::Sender<()>>,
    }
    impl Service for SignalsHandled {
        type Request = Vec<u8>;
        type Response = Vec<u8>;
        fn handle(&self, _req: Vec<u8>) -> Vec<u8> {
            let reply = vec![0xAB; self.reply_len];
            self.handled.lock().send(()).unwrap();
            reply
        }
    }

    /// A drain that starts while an admitted request's reply is being
    /// written must wait for the write, not sever it: the reply is larger
    /// than the loopback socket buffers and the client reads it only after
    /// the drain began, so the write is still blocked when the drain first
    /// looks at `in_flight()`.
    #[test]
    fn drain_waits_for_an_admitted_reply_to_be_written() {
        const REPLY: usize = 12 << 20;
        let (handled, handled_rx) = std::sync::mpsc::channel();
        let mut tier = TcpTier::spawn(
            "big-reply",
            SignalsHandled {
                reply_len: REPLY,
                handled: Mutex::new(handled),
            },
            bytes_decode,
            bytes_encode,
            AdmissionConfig::default(),
        )
        .unwrap();
        let mut stream = TcpStream::connect(tier.local_addr()).unwrap();
        write_frame(&mut stream, &encode_request(Duration::from_secs(5), b"q")).unwrap();
        handled_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the request is handled");
        let reader = thread::spawn(move || {
            thread::sleep(Duration::from_millis(100));
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            crate::frame::read_frame(&mut stream)
        });
        assert!(tier.drain(Duration::from_secs(5)), "tier should go idle");
        let frame = reader
            .join()
            .unwrap()
            .expect("an admitted request is answered, not severed");
        match decode_response(&frame) {
            Ok(ResponseEnvelope::Ok(body)) => assert_eq!(body.len(), REPLY),
            other => panic!("expected the full reply, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn draining_tier_sheds_new_requests() {
        let tier = TcpTier::spawn(
            "shedding",
            Echo,
            bytes_decode,
            bytes_encode,
            AdmissionConfig::default(),
        )
        .unwrap();
        let chan = channel_to(&tier);
        chan.call(vec![1], Duration::from_secs(1)).unwrap();
        tier.admission().start_draining();
        assert_eq!(
            chan.call(vec![2], Duration::from_secs(1)).unwrap_err(),
            RpcError::Overloaded
        );
        assert_eq!(tier.metrics().shed_draining.get(), 1);
    }

    #[test]
    fn crash_severs_in_flight_and_refuses_new() {
        let mut tier = TcpTier::spawn(
            "crashy",
            Sleeper(Duration::from_secs(5)),
            bytes_decode,
            bytes_encode,
            AdmissionConfig::default(),
        )
        .unwrap();
        let addr = tier.local_addr();
        let chan = Arc::new(channel_to(&tier));
        let c2 = Arc::clone(&chan);
        let doomed = thread::spawn(move || c2.call(vec![1], Duration::from_millis(400)));
        thread::sleep(Duration::from_millis(50));
        tier.crash();
        // The in-flight call fails (severed or timed out), never succeeds.
        assert!(doomed.join().unwrap().is_err());
        let fresh = TcpChannel::new("late", addr, bytes_encode, bytes_decode);
        assert_eq!(
            fresh.call(vec![2], Duration::from_millis(300)).unwrap_err(),
            RpcError::NodeDown
        );
    }

    /// `call` is `start` then `finish`: the two spellings agree on every
    /// outcome a tier can produce.
    #[test]
    fn start_then_finish_is_call() {
        let split = |chan: &TcpChannel<Vec<u8>, Vec<u8>>, deadline| {
            let pending = chan.start(vec![5, 6], deadline);
            chan.finish(pending)
        };
        let spawn = |service_time, config| {
            TcpTier::spawn(
                "split",
                Sleeper(service_time),
                bytes_decode,
                bytes_encode,
                config,
            )
            .unwrap()
        };

        // Success, on a fresh and then on a pooled connection.
        let mut tier = spawn(Duration::ZERO, AdmissionConfig::default());
        let chan = channel_to(&tier);
        for _ in 0..2 {
            assert_eq!(split(&chan, Duration::from_secs(2)), Ok(vec![5, 6]));
            assert_eq!(
                chan.call(vec![5, 6], Duration::from_secs(2)),
                Ok(vec![5, 6])
            );
        }
        // Crashed tier: the pooled connection is dead and a fresh connect
        // is refused.
        tier.crash();
        assert_eq!(
            split(&chan, Duration::from_secs(1)),
            Err(RpcError::NodeDown)
        );
        assert_eq!(
            chan.call(vec![5, 6], Duration::from_secs(1)),
            Err(RpcError::NodeDown)
        );

        // Overloaded.
        let tier = spawn(
            Duration::ZERO,
            AdmissionConfig {
                min_budget: Duration::from_millis(50),
                ..AdmissionConfig::default()
            },
        );
        let chan = channel_to(&tier);
        assert_eq!(
            split(&chan, Duration::from_millis(10)),
            Err(RpcError::Overloaded)
        );
        assert_eq!(
            chan.call(vec![5, 6], Duration::from_millis(10)),
            Err(RpcError::Overloaded)
        );

        // Timeout: the deadline runs from `start`, not from `finish`.
        let tier = spawn(Duration::from_millis(600), AdmissionConfig::default());
        let chan = channel_to(&tier);
        let deadline = Duration::from_millis(150);
        let begun = Instant::now();
        let pending = chan.start(vec![1], deadline);
        thread::sleep(Duration::from_millis(100));
        assert_eq!(chan.finish(pending), Err(RpcError::Timeout { deadline }));
        assert!(
            begun.elapsed() < Duration::from_millis(230),
            "finish waited a full deadline of its own: {:?}",
            begun.elapsed()
        );
        assert_eq!(
            chan.call(vec![1], deadline),
            Err(RpcError::Timeout { deadline })
        );
    }

    /// A server that answers one request per connection and then closes
    /// it, so every pooled connection is stale by the next call.
    fn one_shot_server() -> (SocketAddr, Arc<AtomicBool>, JoinHandle<usize>) {
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let server = thread::spawn(move || {
            let mut served = 0;
            while let Ok((stream, _)) = listener.accept() {
                if stopped.load(Ordering::SeqCst) {
                    break;
                }
                let mut conn = FrameReader::new(stream);
                let Ok(request) = conn.read_frame().map(decode_request) else {
                    continue; // a connection closed unused
                };
                let reply = ResponseEnvelope::Ok(request.unwrap().body);
                respond(conn.get_mut(), &reply).unwrap();
                served += 1;
            }
            served
        });
        (addr, stop, server)
    }

    /// A pooled connection the server resets — it closed the socket with
    /// our next request unread, so the kernel answers with a reset, not a
    /// clean close — is retried on a fresh socket like a closed one.
    #[test]
    fn reset_pooled_connection_is_retried_once_on_a_fresh_socket() {
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            for _ in 0..2 {
                let (stream, _) = listener.accept().unwrap();
                let mut conn = FrameReader::new(stream);
                let request = decode_request(conn.read_frame().unwrap()).unwrap();
                respond(conn.get_mut(), &ResponseEnvelope::Ok(request.body)).unwrap();
                // Wait for the next request (or the close), then drop the
                // socket with it unread.
                let _ = conn.get_ref().peek(&mut [0u8; 1]);
            }
        });
        let chan = TcpChannel::new("reset", addr, bytes_encode, bytes_decode);
        let deadline = Duration::from_secs(2);
        assert_eq!(chan.call(vec![1], deadline), Ok(vec![1]));
        assert_eq!(chan.call(vec![2], deadline), Ok(vec![2]));
        drop(chan);
        server.join().unwrap();
    }

    #[test]
    fn stale_pooled_connection_is_retried_once_on_a_fresh_socket() {
        let (addr, stop, server) = one_shot_server();
        let chan = TcpChannel::new("stale", addr, bytes_encode, bytes_decode);
        let deadline = Duration::from_secs(2);
        // Every call after the first finds a pooled connection the server
        // has closed: the request goes out, the reply is a clean close,
        // and the retry on a fresh socket succeeds — in either spelling.
        assert_eq!(chan.call(vec![1], deadline), Ok(vec![1]));
        assert_eq!(chan.call(vec![2], deadline), Ok(vec![2]));
        let pending = chan.start(vec![3], deadline);
        assert_eq!(chan.finish(pending), Ok(vec![3]));
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        assert_eq!(server.join().unwrap(), 3);
    }

    #[test]
    fn stopping_wakes_a_blocked_accept_and_refuses_later_connects() {
        let mut tier = TcpTier::spawn(
            "idle",
            Echo,
            bytes_decode,
            bytes_encode,
            AdmissionConfig::default(),
        )
        .unwrap();
        let addr = tier.local_addr();
        // Nothing ever connected: the accept thread is parked in accept().
        let begun = Instant::now();
        assert!(tier.drain(Duration::from_secs(1)));
        assert!(
            begun.elapsed() < Duration::from_millis(500),
            "stop did not wake the accept thread: {:?}",
            begun.elapsed()
        );
        assert!(TcpStream::connect(addr).is_err(), "listener must be closed");
    }

    #[test]
    fn tiny_budget_is_shed_as_hopeless() {
        let tier = TcpTier::spawn(
            "strict",
            Echo,
            bytes_decode,
            bytes_encode,
            AdmissionConfig {
                min_budget: Duration::from_millis(50),
                ..AdmissionConfig::default()
            },
        )
        .unwrap();
        let chan = channel_to(&tier);
        assert_eq!(
            chan.call(vec![1], Duration::from_millis(10)).unwrap_err(),
            RpcError::Overloaded
        );
        assert_eq!(tier.metrics().shed_deadline.get(), 1);
    }

    const DL: Duration = Duration::from_secs(5);

    /// An echo tier behind a link of its own making.
    fn linked_tier(name: &str, latency: LatencyModel) -> TcpTier<Echo> {
        TcpTier::spawn_with(
            name,
            Echo,
            bytes_decode,
            bytes_encode,
            AdmissionConfig::default(),
            Link::new(latency, 9),
        )
        .unwrap()
    }

    fn linked<S: Service>(tier: &TcpTier<S>) -> TcpChannel<Vec<u8>, Vec<u8>> {
        tier.channel(bytes_encode, bytes_decode)
    }

    #[test]
    fn injected_down_is_node_down_until_recovery() {
        let tier = linked_tier("flapper", LatencyModel::Zero);
        let chan = linked(&tier);
        assert_eq!(chan.call(vec![1], DL), Ok(vec![1]), "healthy first");
        assert!(!chan.is_down());
        tier.faults().set_down(true);
        assert!(chan.is_down());
        assert_eq!(chan.call(vec![2], DL), Err(RpcError::NodeDown));
        let pending = chan.start(vec![2], DL);
        assert_eq!(chan.finish(pending), Err(RpcError::NodeDown));
        tier.faults().set_down(false);
        assert!(!chan.is_down());
        assert_eq!(chan.call(vec![3], DL), Ok(vec![3]), "recovery is immediate");
        assert_eq!(
            tier.metrics().admitted.get(),
            2,
            "a call to a downed target never reaches the socket"
        );
    }

    #[test]
    fn injected_drops_surface_as_dropped() {
        let tier = linked_tier("dropper", LatencyModel::Zero);
        let chan = linked(&tier);
        tier.faults().set_drop_probability(2.0); // clamps to 1
        for i in 0..20 {
            assert_eq!(chan.call(vec![i], DL), Err(RpcError::Dropped));
        }
        let pending = chan.start(vec![0], DL);
        assert_eq!(chan.finish(pending), Err(RpcError::Dropped));
        tier.faults().set_drop_probability(-1.0); // clamps to 0
        assert_eq!(chan.call(vec![7], DL), Ok(vec![7]));
        assert_eq!(tier.metrics().admitted.get(), 1);
    }

    #[test]
    fn one_link_is_shared_by_independent_channels() {
        let tier = linked_tier("shared", LatencyModel::Zero);
        let (a, b) = (linked(&tier), linked(&tier));
        tier.faults().set_drop_probability(1.0);
        assert_eq!(a.call(vec![1], DL), Err(RpcError::Dropped));
        assert_eq!(b.call(vec![2], DL), Err(RpcError::Dropped));
        tier.faults().set_drop_probability(0.0);
        assert_eq!(a.call(vec![3], DL), Ok(vec![3]));
        assert_eq!(b.call(vec![4], DL), Ok(vec![4]));
        // A channel over a link of its own does not see the tier's faults.
        let own = channel_to(&tier);
        tier.faults().set_down(true);
        assert!(b.is_down() && !own.is_down());
        assert_eq!(own.call(vec![5], DL), Ok(vec![5]));
    }

    #[test]
    fn slowdown_delays_every_call_until_cleared() {
        let tier = linked_tier("straggler", LatencyModel::Zero);
        let chan = linked(&tier);
        let penalty = Duration::from_millis(40);
        tier.faults().set_slowdown(penalty);
        for i in 0..3 {
            let start = Instant::now();
            assert_eq!(chan.call(vec![i], DL), Ok(vec![i]));
            assert!(start.elapsed() >= penalty, "{:?}", start.elapsed());
        }
        tier.faults().set_slowdown(Duration::ZERO);
        let start = Instant::now();
        assert_eq!(chan.call(vec![9], DL), Ok(vec![9]));
        assert!(
            start.elapsed() < penalty,
            "penalty cleared: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn latency_model_delays_calls() {
        let tier = linked_tier(
            "slow-link",
            LatencyModel::Constant(Duration::from_millis(5)),
        );
        let chan = linked(&tier);
        let start = Instant::now();
        assert_eq!(chan.call(vec![1], DL), Ok(vec![1]));
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    /// Wire delays of calls started together overlap, whatever the order
    /// and time at which they are finished.
    #[test]
    fn wire_delays_of_started_calls_overlap() {
        let wire = Duration::from_millis(100);
        let tiers: Vec<_> = (0..3)
            .map(|i| linked_tier(&format!("wire-{i}"), LatencyModel::Constant(wire)))
            .collect();
        let chans: Vec<_> = tiers.iter().map(linked).collect();
        let begun = Instant::now();
        let pending: Vec<_> = chans.iter().map(|c| c.start(vec![1], DL)).collect();
        assert!(
            begun.elapsed() < wire / 2,
            "start must not sleep the wire delay: {:?}",
            begun.elapsed()
        );
        for (c, p) in chans.iter().zip(pending) {
            assert_eq!(c.finish(p), Ok(vec![1]));
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
        let tier = linked_tier("bounded", LatencyModel::Zero);
        tier.faults().set_slowdown(Duration::from_millis(120));
        let chan = linked(&tier);
        let begun = Instant::now();
        let mut pending = chan.start(vec![21], DL);
        let early = begun + Duration::from_millis(30);
        assert_eq!(
            chan.wait(&mut pending, Some(early)),
            None,
            "still on the wire"
        );
        assert!(Instant::now() >= early, "gave up before the bound");
        assert!(begun.elapsed() < Duration::from_millis(100));
        assert_eq!(chan.wait(&mut pending, None), Some(Ok(vec![21])));
        assert!(begun.elapsed() >= Duration::from_millis(120));
    }

    /// Polls until the listener's link holds no reply stamp.
    fn await_no_stamps<S: Service>(tier: &TcpTier<S>) {
        let t0 = Instant::now();
        while !tier.link.sent.lock().is_empty() {
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "stamps left: {}",
                tier.link.sent.lock().len()
            );
            thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn no_reply_stamp_outlives_a_timed_out_or_shed_call() {
        let tier = TcpTier::spawn_with(
            "stamps",
            Sleeper(Duration::from_millis(150)),
            bytes_decode,
            bytes_encode,
            AdmissionConfig {
                max_concurrency: 1,
                queue_capacity: 0,
                ..AdmissionConfig::default()
            },
            Link::new(LatencyModel::Constant(Duration::from_millis(5)), 9),
        )
        .unwrap();
        let chan = Arc::new(linked(&tier));

        // The caller gives up and drops the connection; the reply the
        // listener sends afterwards is stamped and never read.
        let deadline = Duration::from_millis(40);
        assert_eq!(
            chan.call(vec![1], deadline),
            Err(RpcError::Timeout { deadline })
        );
        let t0 = Instant::now();
        while tier.metrics().completed.get() == 0 {
            assert!(t0.elapsed() < Duration::from_secs(2), "call never served");
            thread::sleep(Duration::from_millis(2));
        }
        thread::sleep(Duration::from_millis(50)); // the reply is out
        await_no_stamps(&tier);

        // A shed reply is not stamped; the answered call's stamp is read.
        let c2 = Arc::clone(&chan);
        let busy = thread::spawn(move || c2.call(vec![2], DL));
        let t0 = Instant::now();
        while tier.admission().in_flight() == 0 {
            assert!(t0.elapsed() < Duration::from_secs(2), "call never admitted");
            thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(chan.call(vec![3], DL), Err(RpcError::Overloaded));
        assert_eq!(busy.join().unwrap(), Ok(vec![2]));
        await_no_stamps(&tier);
    }

    /// A stamp left by an earlier reply on a pooled connection does not
    /// stand in for the arrival of a later one.
    #[test]
    fn a_stale_stamp_does_not_cut_a_later_delay() {
        let tier = TcpTier::spawn_with(
            "stale-stamp",
            Sleeper(Duration::from_millis(60)),
            bytes_decode,
            bytes_encode,
            AdmissionConfig::default(),
            Link::default(),
        )
        .unwrap();
        let chan = linked(&tier);
        let penalty = Duration::from_millis(80);

        // Sampled undelayed, answered while delayed: stamped, never read.
        let pending = chan.start(vec![1], DL);
        tier.faults().set_slowdown(penalty);
        assert_eq!(chan.finish(pending), Ok(vec![1]));

        // Sampled delayed, answered undelayed: no stamp of its own.
        let begun = Instant::now();
        let pending = chan.start(vec![2], DL);
        tier.faults().set_slowdown(Duration::ZERO);
        assert_eq!(chan.finish(pending), Ok(vec![2]));
        assert!(
            begun.elapsed() >= Duration::from_millis(60) + penalty,
            "the penalty was skipped: {:?}",
            begun.elapsed()
        );
    }
}
