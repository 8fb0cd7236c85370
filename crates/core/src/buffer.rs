//! The append-only variable-length attribute buffer.
//!
//! Section 2.2: *"The variable length attributes like URL are stored in an
//! additional buffer, and the offset of the attribute in the buffer is
//! recorded in the array."* Section 2.3 (update): *"For an attribute with
//! varying length, the value is added at the end of the buffer and the
//! offset value is updated in the forward index"* — so an in-place update
//! never rewrites bytes a reader might be scanning; it appends fresh bytes
//! and swings one atomic word.
//!
//! [`VarBuffer`] implements that contract:
//!
//! - storage is a never-relocating array of `AtomicU8` in doubling
//!   buckets ([`crate::directory`]); bytes are never moved or freed, so
//!   references stay valid forever, a reader borrows them with no lock
//!   and no refcount, and an append that opens a new bucket never waits
//!   for a reader;
//! - [`VarBuffer::append`] writes the bytes (relaxed stores) and returns a
//!   [`PackedRef`] — offset and length packed into one `u64` — which the
//!   caller publishes with a release store into the forward index;
//! - readers acquire the packed word, then read exactly those bytes.
//!
//! A record never straddles a bucket (appends skip to the next bucket
//! instead), so every read is a single contiguous copy.

use crate::directory::AtomicArray;
use crate::sync::{AtomicU8, Mutex, Ordering};

use crate::error::IndexError;

/// Bytes in the first bucket (1 MiB); bucket `b` holds `FIRST_BUCKET << b`.
pub const FIRST_BUCKET: usize = 1 << 20;

/// Maximum record length: 24 bits of the packed word.
pub const MAX_RECORD_LEN: usize = (1 << 24) - 1;

/// A packed buffer reference: high 40 bits global byte offset, low 24 bits
/// length. Fits in the single `AtomicU64` cell the forward index swaps on
/// update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackedRef(u64);

impl PackedRef {
    /// The empty record (offset 0, length 0).
    pub const EMPTY: PackedRef = PackedRef(0);

    fn new(offset: u64, len: usize) -> Self {
        debug_assert!(len <= MAX_RECORD_LEN);
        debug_assert!(offset < (1 << 40));
        Self((offset << 24) | len as u64)
    }

    /// Reconstructs from the raw word (as read from the forward index).
    pub fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw word to store in the forward index.
    pub fn as_raw(self) -> u64 {
        self.0
    }

    /// Global byte offset of the record.
    pub fn offset(self) -> u64 {
        self.0 >> 24
    }

    /// Record length in bytes.
    pub fn len(self) -> usize {
        (self.0 & 0xFF_FFFF) as usize
    }

    /// Returns `true` for zero-length records.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }
}

/// The append-only buffer; see the module docs.
///
/// # Example
///
/// ```
/// use jdvs_core::buffer::VarBuffer;
///
/// let buf = VarBuffer::new();
/// let r = buf.append(b"https://img.jd.com/sku/1.jpg").unwrap();
/// assert_eq!(buf.read(r).unwrap(), b"https://img.jd.com/sku/1.jpg");
/// ```
pub struct VarBuffer {
    bytes: AtomicArray<AtomicU8>,
    // Single append cursor; appends are serialized (the real-time indexer
    // is the only writer per partition), reads are lock-free w.r.t. it.
    write_pos: Mutex<usize>,
}

impl std::fmt::Debug for VarBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VarBuffer")
            .field("bytes_used", &*self.write_pos.lock())
            .finish()
    }
}

impl Default for VarBuffer {
    fn default() -> Self {
        Self::new()
    }
}

impl VarBuffer {
    /// Creates a buffer with the default first bucket.
    pub fn new() -> Self {
        Self::with_first_bucket(FIRST_BUCKET)
    }

    /// Creates a buffer whose first bucket holds `bytes`, rounded up to a
    /// power of two (tests use small buckets to exercise boundary handling
    /// cheaply). No record is longer than the first bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn with_first_bucket(bytes: usize) -> Self {
        assert!(bytes > 0, "first bucket must be positive");
        Self {
            bytes: AtomicArray::new(bytes.next_power_of_two()),
            write_pos: Mutex::new(0),
        }
    }

    /// Appends `bytes`, returning the reference to publish.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::AttributeTooLarge`] if `bytes` exceeds the
    /// record limit (or the first bucket).
    pub fn append(&self, bytes: &[u8]) -> Result<PackedRef, IndexError> {
        let max = MAX_RECORD_LEN.min(self.bytes.first());
        if bytes.len() > max {
            return Err(IndexError::AttributeTooLarge {
                len: bytes.len(),
                max,
            });
        }
        let mut pos = self.write_pos.lock();
        let mut offset = *pos;
        if !bytes.is_empty() {
            // Skip to the next bucket if the record would straddle one.
            let next = self.bytes.next_bucket(offset);
            if offset + bytes.len() > next {
                offset = next;
            }
            self.bytes.get_or_grow(offset);
            let dst = self
                .bytes
                .slice(offset, bytes.len())
                .expect("a record fits in its bucket");
            for (d, &b) in dst.iter().zip(bytes) {
                d.store(b, Ordering::Relaxed);
            }
        }
        *pos = offset + bytes.len();
        Ok(PackedRef::new(offset as u64, bytes.len()))
    }

    /// Reads the bytes behind a reference.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::CorruptReference`] if `r` does not reference
    /// bytes this buffer has allocated — the referenced bucket does not
    /// exist, or the record would run past a bucket's end (valid
    /// references never straddle buckets). A forward-index word can only
    /// decode to such a reference through corruption or cross-buffer
    /// mixing, so the serving path reports it instead of panicking the
    /// searcher.
    pub fn read(&self, r: PackedRef) -> Result<Vec<u8>, IndexError> {
        if r.is_empty() {
            return Ok(Vec::new());
        }
        let bytes =
            self.bytes
                .slice(r.offset() as usize, r.len())
                .ok_or(IndexError::CorruptReference {
                    offset: r.offset(),
                    len: r.len(),
                })?;
        Ok(bytes
            .iter()
            // Relaxed: the caller obtained `r` from an Acquire load of the
            // forward-index reference word, which pairs with the Release
            // store publishing it; the byte stores in `append` are ordered
            // before that publication.
            .map(|b| b.load(Ordering::Relaxed))
            .collect())
    }

    /// Reads a reference as UTF-8, replacing invalid sequences.
    ///
    /// # Errors
    ///
    /// Propagates [`IndexError::CorruptReference`] from [`Self::read`].
    pub fn read_string(&self, r: PackedRef) -> Result<String, IndexError> {
        Ok(String::from_utf8_lossy(&self.read(r)?).into_owned())
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    #[test]
    fn append_read_round_trip() {
        let buf = VarBuffer::new();
        let r1 = buf.append(b"hello").unwrap();
        let r2 = buf.append(b"world!").unwrap();
        assert_eq!(buf.read(r1).unwrap(), b"hello");
        assert_eq!(buf.read(r2).unwrap(), b"world!");
        assert_eq!(buf.read_string(r1).unwrap(), "hello");
    }

    #[test]
    fn empty_record_reads_empty() {
        let buf = VarBuffer::new();
        let r = buf.append(b"").unwrap();
        assert!(r.is_empty());
        assert!(buf.read(r).unwrap().is_empty());
        assert!(buf.read(PackedRef::EMPTY).unwrap().is_empty());
    }

    #[test]
    fn records_never_straddle_chunks() {
        let buf = VarBuffer::with_first_bucket(16);
        let r1 = buf.append(b"0123456789").unwrap(); // 10 bytes in bucket 0
        let r2 = buf.append(b"abcdefghij").unwrap(); // won't fit: starts bucket 1
        assert_eq!(buf.read(r1).unwrap(), b"0123456789");
        assert_eq!(buf.read(r2).unwrap(), b"abcdefghij");
        assert_eq!(
            r2.offset(),
            16,
            "second record skips to the bucket boundary"
        );
        // Bucket 1 holds 16..48: a record that would cross 48 starts there.
        buf.append(b"0123456789abcdef").unwrap(); // 26..42
        let r3 = buf.append(b"xyzxyzxy").unwrap();
        assert_eq!(buf.read(r3).unwrap(), b"xyzxyzxy");
        assert_eq!(r3.offset(), 48);
    }

    #[test]
    fn oversized_record_is_rejected() {
        let buf = VarBuffer::with_first_bucket(8);
        let err = buf.append(b"123456789").unwrap_err();
        assert!(matches!(
            err,
            IndexError::AttributeTooLarge { len: 9, max: 8 }
        ));
    }

    #[test]
    fn packed_ref_round_trips_raw() {
        let r = PackedRef::new(123456, 789);
        let r2 = PackedRef::from_raw(r.as_raw());
        assert_eq!(r, r2);
        assert_eq!(r2.offset(), 123456);
        assert_eq!(r2.len(), 789);
    }

    #[test]
    fn update_appends_new_value_old_still_readable() {
        // The paper's update protocol: old bytes remain valid while any
        // reader still holds the old reference.
        let buf = VarBuffer::new();
        let old = buf.append(b"price-9.99").unwrap();
        let new = buf.append(b"price-4.99").unwrap();
        assert_eq!(buf.read(old).unwrap(), b"price-9.99");
        assert_eq!(buf.read(new).unwrap(), b"price-4.99");
    }

    #[test]
    fn many_records_across_many_chunks() {
        let buf = VarBuffer::with_first_bucket(64);
        let refs: Vec<(PackedRef, String)> = (0..1_000)
            .map(|i| {
                let s = format!("record-{i}");
                (buf.append(s.as_bytes()).unwrap(), s)
            })
            .collect();
        for (r, expect) in refs {
            assert_eq!(buf.read_string(r).unwrap(), expect);
        }
    }

    #[test]
    fn concurrent_readers_during_appends() {
        let buf = StdArc::new(VarBuffer::with_first_bucket(256));
        let r0 = buf.append(b"stable-record").unwrap();
        let stop = StdArc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let buf = StdArc::clone(&buf);
                let stop = StdArc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        assert_eq!(buf.read(r0).unwrap(), b"stable-record");
                    }
                })
            })
            .collect();
        for i in 0..5_000 {
            let s = format!("r{i}");
            let r = buf.append(s.as_bytes()).unwrap();
            assert_eq!(buf.read(r).unwrap(), s.as_bytes());
        }
        stop.store(true, Ordering::Relaxed);
        for h in readers {
            h.join().unwrap();
        }
    }

    #[test]
    fn bogus_ref_reports_corrupt_reference() {
        // Regression: a reference into an unallocated bucket used to panic
        // the reading thread; it must surface as CorruptReference.
        let buf = VarBuffer::new();
        let r = PackedRef::new(10 * FIRST_BUCKET as u64, 4);
        assert_eq!(
            buf.read(r).unwrap_err(),
            IndexError::CorruptReference {
                offset: 10 * FIRST_BUCKET as u64,
                len: 4
            }
        );
        assert!(buf.read_string(r).is_err());
    }

    #[test]
    fn overlong_ref_reports_corrupt_reference() {
        // An in-range offset with a length running past the bucket's end
        // must also be rejected, not read out of bounds.
        let buf = VarBuffer::with_first_bucket(16);
        buf.append(b"abcd").unwrap();
        let r = PackedRef::new(2, 15); // 2 + 15 > 16
        assert!(matches!(
            buf.read(r),
            Err(IndexError::CorruptReference { offset: 2, len: 15 })
        ));
    }
}
