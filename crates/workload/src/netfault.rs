//! Socket-level fault injection for the network serving tier.
//!
//! [`FaultProxy`] is a TCP proxy that sits between a client and one
//! upstream tier and injects the failures a listener's
//! [`jdvs_net::FaultInjector`] cannot: connection refusal, stalls that
//! hold bytes without closing the socket, and mid-frame cuts that sever
//! the connection after a byte budget — the torn-read case the framed
//! transport's CRC must catch. Faults are toggled at runtime, so a test
//! can run healthy traffic, flip a fault on, observe the degradation
//! accounting, and flip it off again, all against one proxy address.
//!
//! Everything is plain blocking `std::net` plus threads, consistent with
//! the transport itself (see `jdvs_net::tcp` for why).

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often pump and accept threads re-check fault flags and the stop
/// flag while idle.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// Copy-buffer size of the pump threads. Small on purpose: a `cut_after`
/// budget lands mid-frame instead of on a frame boundary.
const PUMP_BUF: usize = 512;

/// Runtime-togglable fault state shared with the proxy threads.
#[derive(Debug, Default)]
struct Faults {
    /// Sever every new connection immediately after accept (the client
    /// observes connect-then-reset, i.e. refusal).
    refuse: AtomicBool,
    /// Hold all bytes in both directions without closing anything.
    stall: AtomicBool,
    /// Per-connection client→upstream byte budget; `u64::MAX` = off.
    /// After the budget, both directions are severed mid-frame.
    cut_after: AtomicU64,
}

/// A fault-injecting TCP proxy; see the module docs.
#[derive(Debug)]
pub struct FaultProxy {
    addr: SocketAddr,
    faults: Arc<Faults>,
    stop: Arc<AtomicBool>,
    connections: Arc<AtomicU64>,
    accept_thread: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Starts a proxy on an ephemeral loopback port forwarding to
    /// `upstream`. Healthy (no faults) until told otherwise.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from binding the listener.
    pub fn spawn(upstream: SocketAddr) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let faults = Arc::new(Faults {
            cut_after: AtomicU64::new(u64::MAX),
            ..Faults::default()
        });
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(AtomicU64::new(0));
        let accept_thread = {
            let faults = Arc::clone(&faults);
            let stop = Arc::clone(&stop);
            let connections = Arc::clone(&connections);
            std::thread::Builder::new()
                .name("fault-proxy".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        match listener.accept() {
                            Ok((client, _)) => {
                                connections.fetch_add(1, Ordering::Relaxed);
                                if faults.refuse.load(Ordering::Relaxed) {
                                    // Drop without forwarding: the client
                                    // sees an immediate reset/EOF.
                                    continue;
                                }
                                let Ok(up) = TcpStream::connect(upstream) else {
                                    continue;
                                };
                                spawn_pumps(client, up, &faults, &stop);
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(POLL_INTERVAL);
                            }
                            Err(_) => break,
                        }
                    }
                })
                .expect("spawning fault-proxy accept thread")
        };
        Ok(Self {
            addr,
            faults,
            stop,
            connections,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Toggles connection refusal for new connections.
    pub fn set_refuse(&self, on: bool) {
        self.faults.refuse.store(on, Ordering::Relaxed);
    }

    /// Toggles stalling: bytes in both directions are held (sockets stay
    /// open) until unstalled.
    pub fn set_stall(&self, on: bool) {
        self.faults.stall.store(on, Ordering::Relaxed);
    }

    /// Arms a mid-frame cut: every connection forwards at most `bytes`
    /// client→upstream, then both directions are severed.
    pub fn set_cut_after(&self, bytes: u64) {
        self.faults.cut_after.store(bytes, Ordering::Relaxed);
    }

    /// Clears all faults (healthy pass-through).
    pub fn clear(&self) {
        self.set_refuse(false);
        self.set_stall(false);
        self.faults.cut_after.store(u64::MAX, Ordering::Relaxed);
    }

    /// Connections accepted so far (including refused ones).
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Stops the proxy; existing connections are severed.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts the two pump threads of one proxied connection. Threads are
/// detached: they exit on their own when either side closes, the cut
/// budget fires, or the proxy's stop flag rises.
fn spawn_pumps(
    client: TcpStream,
    upstream: TcpStream,
    faults: &Arc<Faults>,
    stop: &Arc<AtomicBool>,
) {
    // The client→upstream pump owns the cut budget; when it fires (or
    // either pump finishes) both sockets are shut down so its twin exits
    // too instead of waiting on a half-open connection.
    for (mut from, mut to, counted) in [
        (
            client.try_clone().expect("clone client stream"),
            upstream.try_clone().expect("clone upstream stream"),
            true,
        ),
        (upstream, client, false),
    ] {
        let faults = Arc::clone(faults);
        let stop = Arc::clone(stop);
        let _ = std::thread::Builder::new()
            .name("fault-pump".into())
            .spawn(move || {
                let _ = from.set_read_timeout(Some(POLL_INTERVAL));
                // Budget re-read every iteration: arming a cut must also
                // catch connections pooled before it was armed.
                let mut forwarded: u64 = 0;
                let mut buf = [0u8; PUMP_BUF];
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if faults.stall.load(Ordering::Relaxed) {
                        std::thread::sleep(POLL_INTERVAL);
                        continue;
                    }
                    let budget = if counted {
                        faults.cut_after.load(Ordering::Relaxed)
                    } else {
                        u64::MAX
                    };
                    let max = (budget.saturating_sub(forwarded)).min(PUMP_BUF as u64) as usize;
                    if max == 0 {
                        break; // cut budget exhausted: sever mid-frame
                    }
                    match from.read(&mut buf[..max]) {
                        Ok(0) => break,
                        Ok(n) => {
                            // Re-check the stall flag *after* the read: the
                            // pump was already blocked in read() when the
                            // stall was flipped on, and these bytes must be
                            // held, not leaked. Held bytes flow on release.
                            while faults.stall.load(Ordering::Relaxed)
                                && !stop.load(Ordering::Relaxed)
                            {
                                std::thread::sleep(POLL_INTERVAL);
                            }
                            forwarded += n as u64;
                            if to.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            continue;
                        }
                        Err(_) => break,
                    }
                }
                let _ = from.shutdown(Shutdown::Both);
                let _ = to.shutdown(Shutdown::Both);
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    /// A tiny echo server: reads lines of exactly 4 bytes, echoes them.
    fn echo_server() -> (SocketAddr, Arc<AtomicBool>, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let t = std::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((mut s, _)) => {
                        let _ = s.set_read_timeout(Some(Duration::from_millis(10)));
                        let mut buf = [0u8; 4];
                        loop {
                            match s.read_exact(&mut buf) {
                                Ok(()) => {
                                    if s.write_all(&buf).is_err() {
                                        break;
                                    }
                                }
                                Err(e)
                                    if e.kind() == ErrorKind::WouldBlock
                                        || e.kind() == ErrorKind::TimedOut =>
                                {
                                    if stop2.load(Ordering::Relaxed) {
                                        break;
                                    }
                                }
                                Err(_) => break,
                            }
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        });
        (addr, stop, t)
    }

    fn roundtrip(addr: SocketAddr, msg: &[u8; 4]) -> std::io::Result<[u8; 4]> {
        let mut s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_millis(500)))?;
        s.write_all(msg)?;
        let mut out = [0u8; 4];
        s.read_exact(&mut out)?;
        Ok(out)
    }

    #[test]
    fn healthy_proxy_passes_traffic_through() {
        let (addr, stop, t) = echo_server();
        let proxy = FaultProxy::spawn(addr).unwrap();
        assert_eq!(&roundtrip(proxy.addr(), b"ping").unwrap(), b"ping");
        assert_eq!(proxy.connections(), 1);
        stop.store(true, Ordering::SeqCst);
        t.join().unwrap();
    }

    #[test]
    fn refuse_severs_new_connections_and_clears() {
        let (addr, stop, t) = echo_server();
        let proxy = FaultProxy::spawn(addr).unwrap();
        proxy.set_refuse(true);
        assert!(roundtrip(proxy.addr(), b"ping").is_err());
        proxy.clear();
        assert_eq!(&roundtrip(proxy.addr(), b"ping").unwrap(), b"ping");
        stop.store(true, Ordering::SeqCst);
        t.join().unwrap();
    }

    #[test]
    fn stall_holds_bytes_until_released() {
        let (addr, stop, t) = echo_server();
        let proxy = FaultProxy::spawn(addr).unwrap();
        proxy.set_stall(true);
        let mut s = TcpStream::connect(proxy.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        s.write_all(b"ping").unwrap();
        let mut out = [0u8; 4];
        let err = s.read_exact(&mut out).unwrap_err();
        assert!(
            matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "stalled read must time out, got {err:?}"
        );
        // Released: the held bytes flow and the echo arrives.
        proxy.set_stall(false);
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        s.read_exact(&mut out).unwrap();
        assert_eq!(&out, b"ping");
        stop.store(true, Ordering::SeqCst);
        t.join().unwrap();
    }

    #[test]
    fn cut_after_severs_mid_message() {
        let (addr, stop, t) = echo_server();
        let proxy = FaultProxy::spawn(addr).unwrap();
        proxy.set_cut_after(2); // half a 4-byte message
        let mut s = TcpStream::connect(proxy.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        s.write_all(b"ping").unwrap();
        let mut out = [0u8; 4];
        assert!(
            s.read_exact(&mut out).is_err(),
            "connection must be severed after 2 bytes"
        );
        stop.store(true, Ordering::SeqCst);
        t.join().unwrap();
    }
}
