//! Length-prefixed, CRC-checked wire frames and the RPC envelopes they
//! carry.
//!
//! Every message between tiers travels as one frame:
//!
//! ```text
//! [len: u32 LE] [crc32c(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! `len` is bounded by [`MAX_FRAME_BYTES`] so a corrupt or hostile length
//! prefix cannot make the reader allocate gigabytes, and the CRC32C (the
//! same checksum guarding the durable log) rejects bit-flipped payloads at
//! read time instead of decoding them into garbage messages.
//!
//! Inside the payload, two fixed envelopes carry the RPC semantics the
//! serving tier needs *without decoding the body*:
//!
//! - **request** — `[budget_us: u64 LE] [body]`: the remaining deadline
//!   budget granted by the caller, so a listener can make its admission
//!   decision (shed or queue) before paying for body decode;
//! - **response** — `[status: u8] [body]`: `0` = success (body is the
//!   encoded response), `1` = overloaded (body is one [`ShedReason`]
//!   byte), `2` = error (the handler could not decode or serve the
//!   request).

use std::io::{self, Read, Write};
use std::time::Duration;

use jdvs_storage::checksum::crc32c;

/// Upper bound on one frame's payload (16 MiB). A search response carrying
/// a few thousand ranked hits is well under 1 MiB; anything larger is a
/// corrupt length prefix, not a message.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Why an admission controller rejected a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The token-bucket rate limiter had no token.
    RateLimited,
    /// The bounded admission queue was full.
    QueueFull,
    /// The request's remaining budget could not cover the estimated queue
    /// wait (or expired while queued) — rejecting now beats timing out
    /// downstream.
    DeadlineHopeless,
    /// The tier is draining for shutdown.
    Draining,
}

impl ShedReason {
    fn to_byte(self) -> u8 {
        match self {
            ShedReason::RateLimited => 0,
            ShedReason::QueueFull => 1,
            ShedReason::DeadlineHopeless => 2,
            ShedReason::Draining => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(ShedReason::RateLimited),
            1 => Some(ShedReason::QueueFull),
            2 => Some(ShedReason::DeadlineHopeless),
            3 => Some(ShedReason::Draining),
            _ => None,
        }
    }
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::RateLimited => f.write_str("rate limited"),
            ShedReason::QueueFull => f.write_str("admission queue full"),
            ShedReason::DeadlineHopeless => f.write_str("remaining budget below queue wait"),
            ShedReason::Draining => f.write_str("tier draining"),
        }
    }
}

/// Errors reading or parsing a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// An I/O error (including read timeouts) mid-frame.
    Io(io::Error),
    /// The length prefix exceeded [`MAX_FRAME_BYTES`].
    TooLarge(usize),
    /// The payload's CRC32C did not match the header.
    Corrupt {
        /// Checksum stated in the header.
        expected: u32,
        /// Checksum of the bytes actually read.
        actual: u32,
    },
    /// The payload was shorter than the envelope it should carry, or the
    /// envelope's fields were malformed.
    Malformed,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => f.write_str("connection closed"),
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::TooLarge(len) => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME_BYTES}")
            }
            FrameError::Corrupt { expected, actual } => {
                write!(
                    f,
                    "frame checksum mismatch: header {expected:#010x}, payload {actual:#010x}"
                )
            }
            FrameError::Malformed => f.write_str("malformed rpc envelope"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Whether an I/O error is a socket read/write/connect timing out (the
/// platform reports `WouldBlock` or `TimedOut`).
pub(crate) fn io_timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

impl FrameError {
    /// Whether the error was a socket read/write timing out.
    pub fn is_timeout(&self) -> bool {
        matches!(self, FrameError::Io(e) if io_timed_out(e))
    }
}

/// Bytes of `[len][crc]` in front of every payload.
const HEADER_BYTES: usize = 8;

/// Writes one frame with a single `write`: header and payload leave in one
/// buffer, so on a `TCP_NODELAY` socket a frame is one segment and wakes
/// the receiver once.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_BYTES`] — the sender controls
/// its own payload sizes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    assert!(
        payload.len() <= MAX_FRAME_BYTES,
        "frame payload exceeds MAX_FRAME_BYTES"
    );
    let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32c(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Splits a frame header into the payload length (bounded by
/// [`MAX_FRAME_BYTES`]) and the checksum the payload must have.
fn parse_header(header: &[u8]) -> Result<(usize, u32), FrameError> {
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    let expected = u32::from_le_bytes(header[4..HEADER_BYTES].try_into().expect("4 bytes"));
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(len));
    }
    Ok((len, expected))
}

fn verify(payload: &[u8], expected: u32) -> Result<(), FrameError> {
    let actual = crc32c(payload);
    if actual != expected {
        return Err(FrameError::Corrupt { expected, actual });
    }
    Ok(())
}

/// Reads one frame's payload, verifying length bound and checksum. Takes
/// exactly the frame's bytes from `r` (one read for the header, one for
/// the payload); a connection that reads frame after frame should own a
/// [`FrameReader`] instead.
///
/// # Errors
///
/// [`FrameError::Closed`] on clean EOF before the first header byte;
/// [`FrameError::Io`] on I/O errors (including timeouts) anywhere else;
/// [`FrameError::TooLarge`]/[`FrameError::Corrupt`] on malformed frames.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; HEADER_BYTES];
    // Distinguish clean EOF (peer closed between frames) from a torn read.
    match r.read(&mut header) {
        Ok(0) => return Err(FrameError::Closed),
        Ok(n) => {
            if n < header.len() {
                r.read_exact(&mut header[n..]).map_err(FrameError::Io)?;
            }
        }
        Err(e) => return Err(FrameError::Io(e)),
    }
    let (len, expected) = parse_header(&header)?;
    let mut payload = vec![0u8; len];
    // EOF mid-frame is an I/O error (torn frame), not a clean close.
    r.read_exact(&mut payload).map_err(FrameError::Io)?;
    verify(&payload, expected)?;
    Ok(payload)
}

/// Buffer a [`FrameReader`] starts with.
const READ_BUFFER_BYTES: usize = 8 * 1024;

/// Largest buffer a [`FrameReader`] keeps between frames; one grown past
/// this by an oversized frame is released once that frame is consumed.
const KEPT_BUFFER_BYTES: usize = 256 * 1024;

/// One connection's read side: frames are parsed out of a buffer that is
/// filled with as much as each `read` returns, so a frame the peer wrote
/// with one `write` costs one `read`, and bytes that arrive early or in
/// pieces (the next frame, half a frame before a read timeout) are kept
/// for the next call instead of desynchronizing the stream.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// `buf[pos..end]` holds bytes read from `inner` and not yet consumed.
    pos: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner`; every later read of it must go through this reader.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            buf: vec![0; READ_BUFFER_BYTES],
            pos: 0,
            end: 0,
        }
    }

    /// The wrapped stream (e.g. to write to it or set its timeouts).
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// The wrapped stream, mutably.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Reads the next frame's payload, verifying length bound and
    /// checksum. The slice is valid until the next call.
    ///
    /// # Errors
    ///
    /// [`FrameError::Closed`] on clean EOF between frames;
    /// [`FrameError::Io`] on I/O errors (including timeouts — the bytes
    /// read so far are kept, and calling again resumes the same frame);
    /// [`FrameError::TooLarge`]/[`FrameError::Corrupt`] on malformed
    /// frames.
    pub fn read_frame(&mut self) -> Result<&[u8], FrameError> {
        self.fill(HEADER_BYTES)?;
        let (len, expected) = parse_header(&self.buf[self.pos..self.pos + HEADER_BYTES])?;
        self.fill(HEADER_BYTES + len)?;
        let payload_at = self.pos + HEADER_BYTES;
        self.pos = payload_at + len;
        if self.pos == self.end {
            self.pos = 0;
            self.end = 0;
        }
        let payload = &self.buf[payload_at..payload_at + len];
        verify(payload, expected)?;
        Ok(payload)
    }

    /// Reads until at least `need` unconsumed bytes are buffered.
    fn fill(&mut self, need: usize) -> Result<(), FrameError> {
        if self.pos + need > self.buf.len() {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
            if self.buf.len() < need {
                self.buf.resize(need, 0);
            }
        } else if self.end == 0 && self.buf.len() > KEPT_BUFFER_BYTES {
            self.buf.truncate(READ_BUFFER_BYTES);
            self.buf.shrink_to_fit();
        }
        while self.end - self.pos < need {
            match self.inner.read(&mut self.buf[self.end..]) {
                Ok(0) if self.end == self.pos => return Err(FrameError::Closed),
                Ok(0) => return Err(FrameError::Io(io::ErrorKind::UnexpectedEof.into())),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        Ok(())
    }
}

/// A decoded request envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestEnvelope {
    /// Remaining deadline budget granted by the caller.
    pub budget: Duration,
    /// Encoded request body (the tier-specific wire message).
    pub body: Vec<u8>,
}

/// Encodes a request envelope (`[budget_us][body]`) into a frame payload.
pub fn encode_request(budget: Duration, body: &[u8]) -> Vec<u8> {
    let budget_us = u64::try_from(budget.as_micros()).unwrap_or(u64::MAX);
    let mut payload = Vec::with_capacity(8 + body.len());
    payload.extend_from_slice(&budget_us.to_le_bytes());
    payload.extend_from_slice(body);
    payload
}

/// Decodes a request envelope.
///
/// # Errors
///
/// [`FrameError::Malformed`] if the payload is shorter than the header.
pub fn decode_request(payload: &[u8]) -> Result<RequestEnvelope, FrameError> {
    if payload.len() < 8 {
        return Err(FrameError::Malformed);
    }
    let budget_us = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    Ok(RequestEnvelope {
        budget: Duration::from_micros(budget_us),
        body: payload[8..].to_vec(),
    })
}

/// A decoded response envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseEnvelope {
    /// Success; the body is the encoded response message.
    Ok(Vec<u8>),
    /// The admission controller shed the request.
    Overloaded(ShedReason),
    /// The handler failed (e.g. the request body did not decode).
    Error,
}

/// Encodes a response envelope into a frame payload.
pub fn encode_response(resp: &ResponseEnvelope) -> Vec<u8> {
    match resp {
        ResponseEnvelope::Ok(body) => {
            let mut payload = Vec::with_capacity(1 + body.len());
            payload.push(0);
            payload.extend_from_slice(body);
            payload
        }
        ResponseEnvelope::Overloaded(reason) => vec![1, reason.to_byte()],
        ResponseEnvelope::Error => vec![2],
    }
}

/// Decodes a response envelope.
///
/// # Errors
///
/// [`FrameError::Malformed`] on an empty payload, unknown status byte, or
/// a malformed overload reason.
pub fn decode_response(payload: &[u8]) -> Result<ResponseEnvelope, FrameError> {
    match payload.split_first() {
        Some((0, body)) => Ok(ResponseEnvelope::Ok(body.to_vec())),
        Some((1, [b])) => ShedReason::from_byte(*b)
            .map(ResponseEnvelope::Overloaded)
            .ok_or(FrameError::Malformed),
        Some((2, [])) => Ok(ResponseEnvelope::Error),
        _ => Err(FrameError::Malformed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello frames").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), b"hello frames");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn corrupt_payload_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(FrameError::Corrupt { .. })
        ));
    }

    #[test]
    fn corrupt_length_is_bounded() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        buf[3] = 0xFF; // blow up the length prefix
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn torn_frame_is_an_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"truncated-in-flight").unwrap();
        buf.truncate(buf.len() - 4);
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(FrameError::Io(_))
        ));
        // Torn header too.
        assert!(matches!(
            read_frame(&mut Cursor::new(vec![1u8, 2, 3])),
            Err(FrameError::Io(_))
        ));
    }

    /// Counts `write` calls; accepts everything it is given.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_written_with_exactly_one_write() {
        for payload in [&b""[..], b"x", &[7u8; 1200], &vec![1u8; 100_000]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes, 1, "payload of {} bytes", payload.len());
            assert_eq!(read_frame(&mut Cursor::new(w.bytes)).unwrap(), payload);
        }
    }

    /// Hands out the stream in the given piece sizes, one piece per `read`
    /// (then whatever is left), counting the reads.
    struct Pieces {
        bytes: Vec<u8>,
        at: usize,
        sizes: Vec<usize>,
        reads: usize,
    }

    impl Read for Pieces {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let left = self.bytes.len() - self.at;
            let piece = if self.reads < self.sizes.len() {
                self.sizes[self.reads]
            } else {
                left
            };
            let n = piece.min(left).min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            self.reads += 1;
            Ok(n)
        }
    }

    fn two_frames() -> (Vec<u8>, [Vec<u8>; 2]) {
        let payloads = [b"first frame".to_vec(), vec![0xA5u8; 300]];
        let mut bytes = Vec::new();
        for p in &payloads {
            write_frame(&mut bytes, p).unwrap();
        }
        (bytes, payloads)
    }

    #[test]
    fn buffered_reader_takes_back_to_back_frames_from_one_read() {
        let (bytes, payloads) = two_frames();
        let mut reader = FrameReader::new(Pieces {
            bytes,
            at: 0,
            sizes: Vec::new(),
            reads: 0,
        });
        assert_eq!(reader.read_frame().unwrap(), payloads[0]);
        assert_eq!(reader.read_frame().unwrap(), payloads[1]);
        assert_eq!(reader.get_ref().reads, 1, "both frames came in one read");
        assert!(matches!(reader.read_frame(), Err(FrameError::Closed)));
    }

    #[test]
    fn buffered_reader_reassembles_frames_split_at_every_byte() {
        let (bytes, payloads) = two_frames();
        for split in 1..bytes.len() {
            let mut reader = FrameReader::new(Pieces {
                bytes: bytes.clone(),
                at: 0,
                sizes: vec![split],
                reads: 0,
            });
            assert_eq!(reader.read_frame().unwrap(), payloads[0], "split {split}");
            assert_eq!(reader.read_frame().unwrap(), payloads[1], "split {split}");
            assert!(matches!(reader.read_frame(), Err(FrameError::Closed)));
        }
        // One byte per read.
        let mut reader = FrameReader::new(Pieces {
            sizes: vec![1; bytes.len()],
            bytes,
            at: 0,
            reads: 0,
        });
        assert_eq!(reader.read_frame().unwrap(), payloads[0]);
        assert_eq!(reader.read_frame().unwrap(), payloads[1]);
    }

    /// Times out once after handing out `first` bytes.
    struct Stalls {
        bytes: Vec<u8>,
        at: usize,
        first: usize,
        stalled: bool,
    }

    impl Read for Stalls {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.at == self.first && !self.stalled {
                self.stalled = true;
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let upto = if self.stalled {
                self.bytes.len()
            } else {
                self.first
            };
            let n = (upto - self.at).min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn buffered_reader_resumes_a_frame_after_a_read_timeout() {
        let (bytes, payloads) = two_frames();
        for first in [0, 3, 8, 12] {
            let mut reader = FrameReader::new(Stalls {
                bytes: bytes.clone(),
                at: 0,
                first,
                stalled: false,
            });
            assert!(reader.read_frame().unwrap_err().is_timeout());
            assert_eq!(
                reader.read_frame().unwrap(),
                payloads[0],
                "stall at {first}"
            );
            assert_eq!(reader.read_frame().unwrap(), payloads[1]);
        }
    }

    #[test]
    fn buffered_reader_rejects_what_read_frame_rejects() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        let mut flipped = buf.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        assert!(matches!(
            FrameReader::new(Cursor::new(flipped)).read_frame(),
            Err(FrameError::Corrupt { .. })
        ));
        let mut huge = buf.clone();
        huge[3] = 0xFF;
        assert!(matches!(
            FrameReader::new(Cursor::new(huge)).read_frame(),
            Err(FrameError::TooLarge(_))
        ));
        buf.truncate(buf.len() - 4);
        assert!(matches!(
            FrameReader::new(Cursor::new(buf)).read_frame(),
            Err(FrameError::Io(_))
        ));
        assert!(matches!(
            FrameReader::new(Cursor::new(vec![1u8, 2, 3])).read_frame(),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn buffered_reader_grows_for_a_large_frame_and_releases_it() {
        let big = vec![0x3Cu8; KEPT_BUFFER_BYTES + 1000];
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &big).unwrap();
        write_frame(&mut bytes, b"small").unwrap();
        let mut reader = FrameReader::new(Cursor::new(bytes));
        assert_eq!(reader.read_frame().unwrap(), big);
        assert_eq!(reader.read_frame().unwrap(), b"small");
        assert_eq!(reader.buf.len(), READ_BUFFER_BYTES);
    }

    #[test]
    fn request_envelope_round_trip() {
        let payload = encode_request(Duration::from_micros(12_345), b"body-bytes");
        let env = decode_request(&payload).unwrap();
        assert_eq!(env.budget, Duration::from_micros(12_345));
        assert_eq!(env.body, b"body-bytes");
        assert!(matches!(
            decode_request(&payload[..7]),
            Err(FrameError::Malformed)
        ));
    }

    #[test]
    fn response_envelope_round_trip() {
        for env in [
            ResponseEnvelope::Ok(b"resp".to_vec()),
            ResponseEnvelope::Ok(Vec::new()),
            ResponseEnvelope::Overloaded(ShedReason::RateLimited),
            ResponseEnvelope::Overloaded(ShedReason::QueueFull),
            ResponseEnvelope::Overloaded(ShedReason::DeadlineHopeless),
            ResponseEnvelope::Overloaded(ShedReason::Draining),
            ResponseEnvelope::Error,
        ] {
            assert_eq!(decode_response(&encode_response(&env)).unwrap(), env);
        }
        assert!(decode_response(&[]).is_err());
        assert!(decode_response(&[9]).is_err());
        assert!(decode_response(&[1, 77]).is_err());
        assert!(decode_response(&[2, 0]).is_err());
    }

    #[test]
    fn timeout_kinds_are_recognized() {
        let e = FrameError::Io(io::Error::new(io::ErrorKind::WouldBlock, "t"));
        assert!(e.is_timeout());
        let e = FrameError::Io(io::Error::new(io::ErrorKind::TimedOut, "t"));
        assert!(e.is_timeout());
        assert!(!FrameError::Closed.is_timeout());
    }
}
