//! Segmented ingestion log: preallocated segments of CRC32C-framed records.
//!
//! The log is the durable twin of the in-memory
//! [`MessageQueue`](jdvs_storage::MessageQueue): record *N* of the log is
//! queue offset *N*. It is a sequence of segment files
//! (`wal-{first_offset:020}.seg`), each a run of frames:
//!
//! ```text
//! frame := len:u32le crc:u32le payload[len]      crc = crc32c(payload), len > 0
//! ```
//!
//! **On-disk layout.** The *active* (last) segment is created at its full
//! [`LogConfig::segment_max_bytes`] with one sparse `set_len` and written
//! in place: every frame goes to the log's own byte cursor with a
//! positional write, so on the per-record path the file size never changes
//! and an `fdatasync` has one data block to flush and no size update to
//! journal. Sparse rather than zero-filled or `fallocate`d: the three
//! sync equally fast, and a hole costs one `ftruncate` at creation, no
//! disk blocks, and nothing to trim when the segment is sealed. Rotation
//! **seals** the finished segment back to its valid length before it
//! creates the next one, so every *cold* segment is exactly its frames —
//! what retention and its byte accounting work on.
//!
//! **End of log.** Walking a segment (`frames`) ends at the first frame
//! that is zero-length, incomplete or CRC-invalid, and `End` names what
//! sits there: nothing (`Clean`, a sealed segment), only zeros
//! (`ZeroTail`, untouched preallocation — not damage), a frame cut short
//! by the end of the file or by a hole (`Torn`), or a complete frame that
//! fails its CRC (`Corrupt`; a write torn *inside* the preallocated region
//! reads as this, since its length is intact and its payload is not).
//! Everything after an invalid frame has ambiguous framing, so later bytes
//! *and later segments* are discarded. The log is therefore always a valid
//! prefix of what was appended; with [`FsyncPolicy::Always`] that prefix
//! provably includes every acknowledged append.
//!
//! **What `open` repairs.** It clears whatever follows the valid prefix
//! of the last segment (truncate to the prefix, re-extend, `sync_all`) —
//! under `EveryN`/`Os` a later frame can reach the disk before an earlier
//! one, and left in place it could line up behind a later, shorter append
//! and resurface as a record nobody acknowledged in that position. The
//! clearing is unconditional: the scan reads a segment only until the end
//! of its prefix can be judged (a chunk past a zero header, not the
//! megabytes of hole behind it), so an `open` costs what the records cost,
//! and a stale frame too far out to be seen is cut off all the same —
//! uncounted in [`OpenReport::torn_bytes`], which reports the damage the
//! scan met. `open` also deletes segments past the end of the prefix,
//! seals any non-last segment it finds unsealed (a crash inside rotation)
//! and syncs the directory after creating the first segment. Nothing is
//! ever truncated on `Drop`: a successor may already have opened the same
//! files.
//!
//! **Fsync policy.** [`FsyncPolicy`] trades durability for append
//! throughput: `Always` fdatasyncs every record, `EveryN(n)` amortises one
//! sync over `n` appends, `Os` leaves flushing to the page cache.
//!
//! **Retention.** Segments roll at a size threshold; whole segments whose
//! records all lie below the checkpoint watermark are deleted by
//! [`SegmentedLog::retain_from`] — the log only needs to cover what a
//! recovery would replay.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use jdvs_metrics::DurabilityMetrics;
use jdvs_storage::checksum::crc32c;
use jdvs_storage::queue::Offset;

/// Bytes of frame header (`len` + `crc`).
pub const FRAME_HEADER: usize = 8;

/// When the log writer calls `fdatasync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every append: an acknowledged record survives any crash.
    Always,
    /// Sync after every `n` appends (and on rotation/explicit sync): bounds
    /// loss to the last `n - 1` acknowledged records.
    EveryN(u64),
    /// Never sync explicitly; the OS flushes the page cache at its leisure.
    /// A process crash loses nothing, a machine crash may lose the tail.
    Os,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::EveryN(64)
    }
}

/// Configuration of a [`SegmentedLog`].
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Directory holding the segment files (created if absent).
    pub dir: PathBuf,
    /// Roll to a new segment once the current one reaches this many bytes;
    /// also the size the active segment is preallocated at.
    pub segment_max_bytes: u64,
    /// Durability/throughput trade-off for appends.
    pub fsync: FsyncPolicy,
    /// Under [`FsyncPolicy::Always`], skip the *inline* per-append sync so
    /// an external commit queue (see `jdvs-durability`'s `CommitQueue`)
    /// can batch concurrent publishers into one `fdatasync`. The caller
    /// takes over the "acknowledged ⇒ durable" obligation: it must not
    /// acknowledge an append before a sync covering it completes. No
    /// effect under the other policies.
    pub group_commit: bool,
}

impl LogConfig {
    /// Defaults: 8 MiB segments, `FsyncPolicy::EveryN(64)`, no group
    /// commit.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            segment_max_bytes: 8 * 1024 * 1024,
            fsync: FsyncPolicy::default(),
            group_commit: false,
        }
    }
}

/// One segment file's bookkeeping.
#[derive(Debug)]
struct Segment {
    /// Offset of the segment's first record.
    first_offset: Offset,
    /// Records currently in the segment.
    records: u64,
    /// Valid bytes (frames only). On the active segment this is the append
    /// position; on a cold one, its file length.
    bytes: u64,
}

impl Segment {
    fn path(&self, dir: &Path) -> PathBuf {
        segment_path(dir, self.first_offset)
    }
}

fn segment_path(dir: &Path, first_offset: Offset) -> PathBuf {
    dir.join(format!("wal-{first_offset:020}.seg"))
}

/// What [`SegmentedLog::open`] had to repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenReport {
    /// Bytes discarded (partial/corrupt frames and any segments after
    /// them), counted up to the last non-zero byte: preallocated zeros are
    /// not damage. Stale bytes behind a hole wider than the scan looks
    /// past a zero header are cleared without being counted.
    pub torn_bytes: u64,
    /// Whole frames discarded because their CRC32C failed.
    pub corrupt_records: u64,
    /// Segment files deleted because they followed an invalid frame.
    pub segments_dropped: u64,
}

/// The segmented, CRC32C-framed, fsync-policied ingestion log.
#[derive(Debug)]
pub struct SegmentedLog {
    config: LogConfig,
    metrics: Arc<DurabilityMetrics>,
    /// All live segments, oldest first; never empty after `open`.
    segments: Vec<Segment>,
    /// Write handle on the last segment (positional writes, no `O_APPEND`).
    writer: File,
    /// Header + payload of the frame being appended; reused across appends.
    frame: Vec<u8>,
    /// Offset the next append will get.
    next_offset: Offset,
    /// Appends since the last explicit sync (for `EveryN`).
    unsynced: u64,
    /// What `open` repaired (kept for callers that open then ask).
    open_report: OpenReport,
}

impl SegmentedLog {
    /// Opens (or creates) the log in `config.dir`: scans every segment,
    /// deletes unreachable ones and leaves every segment but the last
    /// sealed and the last one as its valid prefix plus a hole up to full
    /// size (see the module docs).
    pub fn open(config: LogConfig, metrics: Arc<DurabilityMetrics>) -> io::Result<Self> {
        if !config.dir.is_dir() {
            fs::create_dir_all(&config.dir)?;
            // The new directory's own entry must survive a power loss too.
            let parent = config.dir.parent().filter(|p| !p.as_os_str().is_empty());
            sync_dir(parent.unwrap_or(Path::new(".")))?;
        }
        let mut firsts = list_segments(&config.dir)?;
        firsts.sort_unstable();

        let mut report = OpenReport::default();
        let mut segments: Vec<Segment> = Vec::new();
        let mut valid_prefix_ended = false;
        for first in firsts {
            let path = segment_path(&config.dir, first);
            // Once the valid prefix has ended (invalid frame, or a gap in
            // the offset sequence), every later segment is unreachable.
            let gap = segments
                .last()
                .is_some_and(|prev| prev.first_offset + prev.records != first);
            if valid_prefix_ended || gap {
                report.torn_bytes += dirty_len(&fs::read(&path)?) as u64;
                report.segments_dropped += 1;
                fs::remove_file(&path)?;
                valid_prefix_ended = true;
                continue;
            }
            let scan = scan_segment(&path)?;
            if matches!(scan.end, End::Torn | End::Corrupt) {
                // This segment is the last one kept; its tail is cleared
                // below.
                report.torn_bytes += scan.dirty_bytes;
                report.corrupt_records += u64::from(scan.end == End::Corrupt);
                valid_prefix_ended = true;
            }
            segments.push(Segment {
                first_offset: first,
                records: scan.records,
                bytes: scan.valid_bytes,
            });
        }
        let fresh = segments.is_empty();
        if fresh {
            segments.push(Segment {
                first_offset: 0,
                records: 0,
                bytes: 0,
            });
            File::create(segments[0].path(&config.dir))?;
            metrics.segments_created.incr();
        }

        let (last, cold) = segments.split_last().expect("at least one segment");
        // Cold segments are exactly their frames; one that is not was left
        // by a crash inside `rotate`.
        for seg in cold {
            let path = seg.path(&config.dir);
            if fs::metadata(&path)?.len() != seg.bytes {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(seg.bytes)?;
                f.sync_all()?;
            }
        }
        // The active segment is its frames and then a hole up to full
        // size. Established by cutting and re-extending, not by inspecting
        // megabytes of tail: whatever sat behind the prefix — a torn
        // frame the scan saw, or a stale one it did not, beyond a hole —
        // is gone either way, durably, before the first new append.
        let writer = OpenOptions::new()
            .write(true)
            .open(last.path(&config.dir))?;
        writer.set_len(last.bytes)?;
        writer.set_len(last.bytes.max(config.segment_max_bytes))?;
        writer.sync_all()?;
        if fresh {
            // Without this the file that will hold acknowledged records may
            // not exist after a power loss (`rotate` does the same).
            sync_dir(&config.dir)?;
        }
        let next_offset = last.first_offset + last.records;

        metrics.torn_bytes_truncated.add(report.torn_bytes);
        metrics.corrupt_records_dropped.add(report.corrupt_records);
        metrics.durable_offset.set_max(next_offset);

        Ok(Self {
            config,
            metrics,
            segments,
            writer,
            frame: Vec::new(),
            next_offset,
            unsynced: 0,
            open_report: report,
        })
    }

    /// What the most recent [`SegmentedLog::open`] repaired.
    pub fn open_report(&self) -> OpenReport {
        self.open_report
    }

    /// Offset of the oldest record still in the log.
    pub fn first_offset(&self) -> Offset {
        self.segments[0].first_offset
    }

    /// Offset the next append will receive (== records ever appended,
    /// including pruned ones).
    pub fn next_offset(&self) -> Offset {
        self.next_offset
    }

    /// Live segment count.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Appends one record, returning its offset. Honors the fsync policy.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for an empty payload — a zero-length frame is how
    /// the preallocated tail reads, so it cannot also be a record — and
    /// any I/O error of the write or sync.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<Offset> {
        if payload.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "log records cannot be empty",
            ));
        }
        let last = self.segments.last().expect("at least one segment");
        if last.bytes >= self.config.segment_max_bytes && last.records > 0 {
            self.rotate()?;
        }

        self.frame.clear();
        put_frame(&mut self.frame, payload);
        let last = self.segments.last_mut().expect("at least one segment");
        write_at(&mut self.writer, &self.frame, last.bytes)?;

        let offset = self.next_offset;
        self.next_offset += 1;
        last.records += 1;
        last.bytes += self.frame.len() as u64;

        self.metrics.log_appends.incr();
        self.metrics.log_bytes.add(payload.len() as u64);

        self.unsynced += 1;
        match self.config.fsync {
            // With group commit, the sync is deferred to the commit queue
            // leader; `durable_offset` advances only when it runs.
            FsyncPolicy::Always => {
                if !self.config.group_commit {
                    self.sync()?;
                }
            }
            FsyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            FsyncPolicy::Os => {
                // Acknowledged into the page cache only; still report the
                // append so replay_exposure tracks log growth.
                self.metrics.durable_offset.set_max(self.next_offset);
            }
        }
        Ok(offset)
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.writer.sync_data()?;
        self.unsynced = 0;
        self.metrics.log_syncs.incr();
        self.metrics.durable_offset.set_max(self.next_offset);
        Ok(())
    }

    /// Rolls to a fresh preallocated segment starting at `next_offset`.
    /// The finished segment is first sealed to its valid length and synced
    /// (one sync covers its data and its size), so retention and recovery
    /// never see a dirty or padded cold segment. A crash between the steps
    /// is put right by `open`.
    fn rotate(&mut self) -> io::Result<()> {
        let last = self.segments.last().expect("at least one segment");
        self.writer.set_len(last.bytes)?;
        self.sync()?;
        let path = segment_path(&self.config.dir, self.next_offset);
        self.writer = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        self.writer.set_len(self.config.segment_max_bytes)?;
        self.segments.push(Segment {
            first_offset: self.next_offset,
            records: 0,
            bytes: 0,
        });
        self.metrics.segments_created.incr();
        sync_dir(&self.config.dir)?;
        Ok(())
    }

    /// Deletes every segment whose records *all* lie below `watermark`
    /// (the checkpoint's applied offset). The active segment is never
    /// deleted. Returns the number of segments pruned.
    pub fn retain_from(&mut self, watermark: Offset) -> io::Result<u64> {
        let mut pruned = 0;
        while self.segments.len() > 1 {
            // Safe to drop segment 0 iff segment 1 starts at or below the
            // watermark: every record of segment 0 is then < watermark.
            if self.segments[1].first_offset <= watermark {
                let seg = self.segments.remove(0);
                fs::remove_file(seg.path(&self.config.dir))?;
                pruned += 1;
            } else {
                break;
            }
        }
        if pruned > 0 {
            self.metrics.segments_pruned.add(pruned);
            sync_dir(&self.config.dir)?;
        }
        Ok(pruned)
    }

    /// Reads every record with offset `>= from`, oldest first. Reads the
    /// valid bytes of each segment only, never the preallocated tail.
    ///
    /// `open` already sanitized the files, so an invalid frame here means
    /// the disk changed underneath us — reported as `InvalidData`, never a
    /// panic or garbage payload (every returned record passed its CRC).
    pub fn replay(&self, from: Offset) -> io::Result<Vec<(Offset, Vec<u8>)>> {
        let mut out = Vec::new();
        let mut bytes = Vec::new();
        for seg in &self.segments {
            if seg.first_offset + seg.records <= from {
                continue;
            }
            bytes.clear();
            File::open(seg.path(&self.config.dir))?
                .take(seg.bytes)
                .read_to_end(&mut bytes)?;
            let mut walk = frames(&bytes);
            let mut offset = seg.first_offset;
            for payload in walk.by_ref() {
                if offset >= from {
                    out.push((offset, payload.to_vec()));
                }
                offset += 1;
            }
            if offset != seg.first_offset + seg.records || walk.finish().1 != End::Clean {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("log record {offset} failed validation on replay"),
                ));
            }
        }
        Ok(out)
    }
}

/// Appends the frame of `payload` (header, then payload) to `buf`.
fn put_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32c(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// What sits after the last valid frame of a walked byte run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    /// Nothing: the bytes are exactly their frames (a sealed segment).
    Clean,
    /// Only zeros: untouched preallocation (the active segment).
    ZeroTail,
    /// A frame cut short — by the end of the bytes, or by a hole (a
    /// zero-length header with non-zero bytes somewhere after it).
    Torn,
    /// A complete frame whose CRC32C does not match its payload.
    Corrupt,
}

/// Walks the frames of `bytes` from the start: an iterator over the
/// payloads of the valid prefix, and [`Frames::finish`] for where and how
/// that prefix ends. The one place the end-of-log rule lives.
fn frames(bytes: &[u8]) -> Frames<'_> {
    Frames { bytes, pos: 0 }
}

#[derive(Debug)]
struct Frames<'a> {
    bytes: &'a [u8],
    /// End of the valid prefix walked so far.
    pos: usize,
}

impl<'a> Frames<'a> {
    /// The frame header at `pos`, if all of it is there: `(len, crc)`.
    fn header(&self) -> Option<(usize, u32)> {
        let header = self.bytes.get(self.pos..self.pos + FRAME_HEADER)?;
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        Some((len, crc))
    }

    /// The non-empty frame at `pos` that fits in the bytes, CRC unchecked:
    /// `(payload, stored crc)`.
    fn frame_at_pos(&self) -> Option<(&'a [u8], u32)> {
        let (len, crc) = self.header()?;
        let start = self.pos + FRAME_HEADER;
        let payload = self.bytes.get(start..start.checked_add(len)?)?;
        (len > 0).then_some((payload, crc))
    }

    /// Whether more bytes behind these could not change where the valid
    /// prefix ends: the frame at `pos` is all there (and invalid, or the
    /// walk would have passed it), or its header is zero.
    fn judged(&self) -> bool {
        self.header()
            .is_some_and(|(len, _)| len == 0 || self.frame_at_pos().is_some())
    }

    /// Walks whatever is left and returns the length of the valid prefix
    /// and what follows it.
    fn finish(mut self) -> (usize, End) {
        self.by_ref().for_each(drop);
        let rest = &self.bytes[self.pos..];
        let end = if rest.is_empty() {
            End::Clean
        } else if all_zero(rest) {
            End::ZeroTail
        } else if self.frame_at_pos().is_some() {
            End::Corrupt
        } else {
            End::Torn
        };
        (self.pos, end)
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (payload, crc) = self.frame_at_pos()?;
        if crc32c(payload) != crc {
            return None;
        }
        self.pos += FRAME_HEADER + payload.len();
        Some(payload)
    }
}

/// Whether `bytes` is all zeros. OR-folds page-sized chunks rather than
/// testing byte by byte: every `open` checks up to a scan chunk of tail.
fn all_zero(bytes: &[u8]) -> bool {
    bytes
        .chunks(4096)
        .all(|chunk| chunk.iter().fold(0, |acc, &b| acc | b) == 0)
}

/// Length of `bytes` up to and including its last non-zero byte.
fn dirty_len(bytes: &[u8]) -> usize {
    bytes.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1)
}

/// How much of a segment [`scan_segment`] reads at a time.
const SCAN_CHUNK: u64 = 256 * 1024;

#[derive(Debug)]
struct SegmentScan {
    /// Whole valid frames found before the first invalid byte.
    records: u64,
    /// Bytes those frames occupy.
    valid_bytes: u64,
    /// What follows them, as far as was read: `ZeroTail` vouches for the
    /// chunk behind the zero header, not for the megabytes behind that.
    end: End,
    /// Bytes past the valid prefix up to the file's last non-zero one (0
    /// unless the end is torn or corrupt).
    dirty_bytes: u64,
}

/// Scans a segment file for its valid frame prefix, reading on only until
/// the end of that prefix can be judged — never the preallocation behind
/// a zero header, so a scan costs what the records cost.
fn scan_segment(path: &Path) -> io::Result<SegmentScan> {
    let mut file = File::open(path)?;
    let mut bytes = Vec::new();
    let (mut valid, mut records) = (0, 0);
    let end = loop {
        let got = file.by_ref().take(SCAN_CHUNK).read_to_end(&mut bytes)?;
        let mut walk = Frames {
            bytes: &bytes,
            pos: valid,
        };
        records += walk.by_ref().count() as u64;
        let judged = walk.judged();
        let end;
        (valid, end) = walk.finish();
        if got == 0 || judged {
            break end;
        }
    };
    let dirty_bytes = match end {
        End::Clean | End::ZeroTail => 0,
        End::Torn | End::Corrupt => {
            file.read_to_end(&mut bytes)?;
            (dirty_len(&bytes) - valid) as u64
        }
    };
    Ok(SegmentScan {
        records,
        valid_bytes: valid as u64,
        end,
        dirty_bytes,
    })
}

/// Length of the valid frame prefix of the segment file at `path` — where
/// the log ends inside a preallocated segment, whatever the file's size.
/// Crash injectors cut and corrupt relative to this, not to the file
/// length.
pub fn valid_len(path: &Path) -> io::Result<u64> {
    Ok(scan_segment(path)?.valid_bytes)
}

/// Writes all of `buf` at byte `pos` of `file`, leaving the rest of the
/// file and its length (if `pos + buf.len()` is inside it) untouched.
fn write_at(file: &mut File, buf: &[u8], pos: u64) -> io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::write_all_at(file, buf, pos)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Seek, SeekFrom, Write};
        file.seek(SeekFrom::Start(pos))?;
        file.write_all(buf)
    }
}

/// Lists segment first-offsets present in `dir`.
fn list_segments(dir: &Path) -> io::Result<Vec<Offset>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(digits) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".seg"))
        {
            if let Ok(first) = digits.parse::<Offset>() {
                out.push(first);
            }
        }
    }
    Ok(out)
}

/// Fsyncs a directory so renames/creates/deletes within it are durable.
/// Windows cannot open directories as files; there this is a no-op.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(test)]
    tests::SYNCED_DIRS.with(|calls| {
        let entries = fs::read_dir(dir).map_or(0, Iterator::count);
        calls.borrow_mut().push((dir.to_path_buf(), entries));
    });
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, Ordering};

    thread_local! {
        /// Every `sync_dir` call made on this thread: the directory, and
        /// how many entries it held at that moment.
        pub(super) static SYNCED_DIRS: RefCell<Vec<(PathBuf, usize)>> =
            const { RefCell::new(Vec::new()) };
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("jdvs-log-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path, fsync: FsyncPolicy, max: u64) -> SegmentedLog {
        let config = LogConfig {
            dir: dir.to_path_buf(),
            segment_max_bytes: max,
            fsync,
            group_commit: false,
        };
        SegmentedLog::open(config, Arc::new(DurabilityMetrics::new())).unwrap()
    }

    fn payload(i: u64) -> Vec<u8> {
        format!("record-{i}-{}", "x".repeat((i % 7) as usize)).into_bytes()
    }

    #[test]
    fn appends_replay_in_order_across_reopen() {
        let dir = temp_dir("reopen");
        {
            let mut log = open(&dir, FsyncPolicy::Always, 1 << 20);
            for i in 0..50 {
                assert_eq!(log.append(&payload(i)).unwrap(), i);
            }
        }
        let log = open(&dir, FsyncPolicy::Always, 1 << 20);
        assert_eq!(log.next_offset(), 50);
        let records = log.replay(0).unwrap();
        assert_eq!(records.len(), 50);
        for (i, (off, bytes)) in records.iter().enumerate() {
            assert_eq!(*off, i as u64);
            assert_eq!(*bytes, payload(i as u64));
        }
        // Suffix replay.
        let tail = log.replay(47).unwrap();
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].0, 47);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_splits_segments_and_replay_spans_them() {
        let dir = temp_dir("rotate");
        let mut log = open(&dir, FsyncPolicy::Os, 64);
        for i in 0..40 {
            log.append(&payload(i)).unwrap();
        }
        assert!(log.num_segments() > 2, "tiny segments must rotate");
        assert_eq!(log.replay(0).unwrap().len(), 40);
        let segments = log.num_segments();
        drop(log);
        // A directory an older build's interrupted segment rewrite left
        // behind holds a `wal-*.tmp` beside the segments: open must neither
        // read it as a segment nor delete it.
        let tmp = dir.join("wal-00000000000000000000.tmp");
        fs::write(&tmp, b"garbage").unwrap();
        // Reopen sees the same shape.
        let log = open(&dir, FsyncPolicy::Os, 64);
        assert_eq!(log.next_offset(), 40);
        assert_eq!(log.num_segments(), segments);
        assert_eq!(log.replay(17).unwrap().len(), 23);
        assert_eq!(fs::read(&tmp).unwrap(), b"garbage");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = temp_dir("torn");
        {
            let mut log = open(&dir, FsyncPolicy::Always, 1 << 20);
            for i in 0..10 {
                log.append(&payload(i)).unwrap();
            }
        }
        // Simulate a crash mid-append: chop bytes off the segment file.
        let seg = segment_path(&dir, 0);
        let len = valid_len(&seg).unwrap();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 3).unwrap(); // partial final frame
        drop(f);

        let log = open(&dir, FsyncPolicy::Always, 1 << 20);
        assert_eq!(log.next_offset(), 9, "final record dropped");
        assert!(log.open_report().torn_bytes > 0);
        assert_eq!(log.replay(0).unwrap().len(), 9);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_ends_the_valid_prefix() {
        let dir = temp_dir("corrupt");
        {
            let mut log = open(&dir, FsyncPolicy::Always, 1 << 20);
            for i in 0..10 {
                log.append(&payload(i)).unwrap();
            }
        }
        // Flip the last payload byte: the final frame is complete but its
        // CRC no longer matches.
        let seg = segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).unwrap();
        let last = valid_len(&seg).unwrap() as usize - 1;
        bytes[last] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();

        let log = open(&dir, FsyncPolicy::Always, 1 << 20);
        assert_eq!(log.next_offset(), 9, "the flipped record is gone");
        let report = log.open_report();
        assert!(report.torn_bytes > 0);
        assert_eq!(report.corrupt_records, 1);
        // Every surviving record is intact.
        for (off, bytes) in log.replay(0).unwrap() {
            assert_eq!(bytes, payload(off));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_in_early_segment_drops_later_segments() {
        let dir = temp_dir("cascade");
        {
            let mut log = open(&dir, FsyncPolicy::Os, 64);
            for i in 0..40 {
                log.append(&payload(i)).unwrap();
            }
            assert!(log.num_segments() >= 3);
        }
        // Corrupt the very first segment's first record.
        let seg = segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).unwrap();
        bytes[FRAME_HEADER] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();

        let log = open(&dir, FsyncPolicy::Os, 64);
        assert_eq!(log.next_offset(), 0, "nothing survives a headshot");
        assert!(log.open_report().segments_dropped >= 2);
        assert!(log.replay(0).unwrap().is_empty());
        // And the log still appends fine afterwards.
        let mut log = log;
        assert_eq!(log.append(b"fresh").unwrap(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_prunes_only_below_watermark() {
        let dir = temp_dir("retain");
        let mut log = open(&dir, FsyncPolicy::Os, 64);
        for i in 0..40 {
            log.append(&payload(i)).unwrap();
        }
        let before = log.num_segments();
        assert!(before >= 3);
        // Watermark 0: nothing prunable.
        assert_eq!(log.retain_from(0).unwrap(), 0);
        // Watermark past the second segment's start: first is prunable.
        let pruned = log.retain_from(log.next_offset()).unwrap();
        assert!(pruned >= 1);
        assert_eq!(log.num_segments(), 1, "only the active segment remains");
        assert!(log.first_offset() > 0);
        // Replay from the new first offset still works.
        let records = log.replay(log.first_offset()).unwrap();
        assert_eq!(records.len() as u64, log.next_offset() - log.first_offset());
        // Reopen after pruning: offsets are preserved.
        drop(log);
        let log = open(&dir, FsyncPolicy::Os, 64);
        assert_eq!(log.next_offset(), 40);
        assert!(log.first_offset() > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_n_policy_counts_syncs() {
        let dir = temp_dir("everyn");
        let metrics = Arc::new(DurabilityMetrics::new());
        let config = LogConfig {
            dir: dir.clone(),
            segment_max_bytes: 1 << 20,
            fsync: FsyncPolicy::EveryN(10),
            group_commit: false,
        };
        let mut log = SegmentedLog::open(config, Arc::clone(&metrics)).unwrap();
        for i in 0..25 {
            log.append(&payload(i)).unwrap();
        }
        assert_eq!(metrics.log_syncs.get(), 2, "25 appends, sync every 10");
        assert_eq!(metrics.durable_offset.get(), 20, "durable through sync");
        log.sync().unwrap();
        assert_eq!(metrics.durable_offset.get(), 25);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_at_every_byte_boundary_never_panics() {
        let dir = temp_dir("fuzztrunc");
        {
            let mut log = open(&dir, FsyncPolicy::Always, 1 << 20);
            for i in 0..6 {
                log.append(&payload(i)).unwrap();
            }
        }
        let seg = segment_path(&dir, 0);
        let mut pristine = fs::read(&seg).unwrap();
        pristine.truncate(valid_len(&seg).unwrap() as usize);
        for cut in (0..pristine.len()).rev() {
            fs::write(&seg, &pristine[..cut]).unwrap();
            let log = open(&dir, FsyncPolicy::Always, 1 << 20);
            // Valid prefix only, and all of it checks out.
            for (off, bytes) in log.replay(0).unwrap() {
                assert_eq!(bytes, payload(off));
            }
            assert!(log.next_offset() <= 6);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The frames `open` + `payload(0..n)` appends produce, as raw bytes.
    fn framed(n: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        for i in 0..n {
            put_frame(&mut bytes, &payload(i));
        }
        bytes
    }

    fn dir_bytes(dir: &Path) -> u64 {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum()
    }

    #[test]
    fn frame_walk_names_what_follows_the_valid_prefix() {
        let two = framed(2);
        let ends = |bytes: &[u8]| {
            let mut walk = frames(bytes);
            let count = walk.by_ref().count();
            (count, walk.finish())
        };
        assert_eq!(ends(&two), (2, (two.len(), End::Clean)));
        assert_eq!(ends(&[]), (0, (0, End::Clean)));

        // Preallocation: any run of zeros, shorter than a header included.
        for zeros in [1, FRAME_HEADER - 1, FRAME_HEADER, 100] {
            let mut bytes = two.clone();
            bytes.resize(two.len() + zeros, 0);
            assert_eq!(ends(&bytes), (2, (two.len(), End::ZeroTail)));
        }

        // Cut anywhere inside the second frame: incomplete, so torn.
        let first = framed(1).len();
        for cut in first + 1..two.len() {
            assert_eq!(ends(&two[..cut]), (1, (first, End::Torn)), "cut {cut}");
        }

        // A complete frame with a flipped payload bit is corrupt, not torn.
        let mut flipped = two.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert_eq!(ends(&flipped), (1, (first, End::Corrupt)));
        // So is one torn inside preallocation: its length survived, its
        // payload did not.
        let mut partial = two.clone();
        partial[first + FRAME_HEADER + 2..].fill(0);
        partial.resize(two.len() + 64, 0);
        assert_eq!(ends(&partial), (1, (first, End::Corrupt)));

        // A hole: zero-length header, something non-zero behind it.
        let mut hole = framed(1);
        hole.resize(first + 32, 0);
        hole.extend_from_slice(&two[first..]);
        assert_eq!(ends(&hole), (1, (first, End::Torn)));
    }

    #[test]
    fn active_segment_file_length_never_changes_on_append() {
        let dir = temp_dir("prealloc");
        let max = 1 << 16;
        let mut log = open(&dir, FsyncPolicy::Always, max);
        let seg = segment_path(&dir, 0);
        assert_eq!(fs::metadata(&seg).unwrap().len(), max);
        for i in 0..200 {
            log.append(&payload(i)).unwrap();
            assert_eq!(fs::metadata(&seg).unwrap().len(), max, "append {i}");
        }
        assert_eq!(log.num_segments(), 1);
        assert_eq!(valid_len(&seg).unwrap(), framed(200).len() as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_over_a_zero_tail_repairs_nothing_and_continues() {
        let dir = temp_dir("zerotail");
        {
            let mut log = open(&dir, FsyncPolicy::Always, 4096);
            for i in 0..10 {
                log.append(&payload(i)).unwrap();
            }
        }
        let metrics = Arc::new(DurabilityMetrics::new());
        let config = LogConfig {
            dir: dir.clone(),
            segment_max_bytes: 4096,
            fsync: FsyncPolicy::Always,
            group_commit: false,
        };
        let mut log = SegmentedLog::open(config, Arc::clone(&metrics)).unwrap();
        assert_eq!(log.open_report(), OpenReport::default());
        assert_eq!(metrics.torn_bytes_truncated.get(), 0);
        assert_eq!(log.next_offset(), 10);
        assert_eq!(log.append(&payload(10)).unwrap(), 10);
        assert_eq!(fs::metadata(segment_path(&dir, 0)).unwrap().len(), 4096);
        drop(log);
        let log = open(&dir, FsyncPolicy::Always, 4096);
        assert_eq!(log.replay(0).unwrap().len(), 11);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_payload_is_rejected() {
        let dir = temp_dir("empty");
        let mut log = open(&dir, FsyncPolicy::Os, 4096);
        let err = log.append(b"").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(log.append(b"x").unwrap(), 0, "nothing was consumed");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash mid-write in the new layout: the frame is partly there,
    /// zeros follow, and the file is as long as ever.
    #[test]
    fn write_torn_inside_preallocation_recovers_the_valid_prefix_at_every_byte() {
        let dir = temp_dir("torn-inside");
        let records = 6;
        {
            let mut log = open(&dir, FsyncPolicy::Always, 4096);
            for i in 0..records {
                log.append(&payload(i)).unwrap();
            }
        }
        let seg = segment_path(&dir, 0);
        let pristine = fs::read(&seg).unwrap();
        assert_eq!(pristine.len(), 4096);
        let valid = valid_len(&seg).unwrap() as usize;
        // Frame ends, to know how many records a cut leaves whole.
        let ends: Vec<usize> = (1..=records).map(|n| framed(n).len()).collect();
        for cut in (0..valid).rev() {
            let mut image = pristine.clone();
            image[cut..].fill(0);
            fs::write(&seg, &image).unwrap();
            let whole = ends.iter().filter(|&&end| end <= cut).count() as u64;

            let mut log = open(&dir, FsyncPolicy::Always, 4096);
            assert_eq!(log.next_offset(), whole, "cut {cut}");
            let at_frame_start = cut == 0 || ends.contains(&cut);
            assert_eq!(
                log.open_report().torn_bytes == 0,
                at_frame_start,
                "only a partial frame is damage (cut {cut})"
            );
            for (off, bytes) in log.replay(0).unwrap() {
                assert_eq!(bytes, payload(off));
            }
            // The log goes on from there, in place.
            assert_eq!(log.append(&payload(whole)).unwrap(), whole);
            assert_eq!(fs::metadata(&seg).unwrap().len(), 4096);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Under `EveryN`/`Os` a later frame can be persisted without an
    /// earlier one. `open` must clear it, or it lines up behind the next,
    /// shorter append and comes back as a record.
    #[test]
    fn garbage_after_a_hole_is_cleared_and_does_not_resurface() {
        let dir = temp_dir("hole");
        {
            let mut log = open(&dir, FsyncPolicy::Always, 4096);
            log.append(b"first").unwrap();
        }
        let seg = segment_path(&dir, 0);
        let prefix = valid_len(&seg).unwrap();
        // Where a stale frame would sit to follow a 2-byte record exactly.
        let short = b"ab";
        let stale_at = prefix + (FRAME_HEADER + short.len()) as u64;
        let mut stale = Vec::new();
        put_frame(&mut stale, b"a record that was never acknowledged here");
        let mut f = OpenOptions::new().write(true).open(&seg).unwrap();
        write_at(&mut f, &stale, stale_at).unwrap();
        drop(f);

        let mut log = open(&dir, FsyncPolicy::Always, 4096);
        assert_eq!(log.next_offset(), 1);
        assert_eq!(
            log.open_report().torn_bytes,
            stale_at + stale.len() as u64 - prefix
        );
        let on_disk = fs::read(&seg).unwrap();
        assert_eq!(on_disk.len(), 4096, "re-extended after the clearing");
        assert!(on_disk[prefix as usize..].iter().all(|&b| b == 0));

        assert_eq!(log.append(short).unwrap(), 1);
        drop(log);
        let log = open(&dir, FsyncPolicy::Always, 4096);
        assert_eq!(log.next_offset(), 2, "the stale frame must stay gone");
        assert_eq!(log.open_report(), OpenReport::default());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The scan reads in chunks and resumes where the last one cut a frame
    /// short, however many chunks the frame spans.
    #[test]
    fn scan_resumes_across_chunk_boundaries() {
        let dir = temp_dir("chunks");
        let max = 8 * SCAN_CHUNK;
        let sizes = [
            1000,
            SCAN_CHUNK as usize - 1008,
            7,
            2 * SCAN_CHUNK as usize + 5,
            300,
        ];
        let body = |i: usize| vec![i as u8 + 1; sizes[i]];
        {
            let mut log = open(&dir, FsyncPolicy::Os, max);
            for i in 0..sizes.len() {
                log.append(&body(i)).unwrap();
            }
        }
        let seg = segment_path(&dir, 0);
        let total: usize = sizes.iter().map(|s| s + FRAME_HEADER).sum();
        assert_eq!(valid_len(&seg).unwrap(), total as u64);
        let log = open(&dir, FsyncPolicy::Os, max);
        assert_eq!(log.open_report(), OpenReport::default());
        let records = log.replay(0).unwrap();
        assert_eq!(records.len(), sizes.len());
        for (i, (_, bytes)) in records.iter().enumerate() {
            assert_eq!(*bytes, body(i));
        }
        drop(log);

        // Cut inside the frame that spans three chunks: the two before it
        // survive, and the damage is counted to the cut.
        let cut = total - 300 - FRAME_HEADER - 10;
        let mut image = fs::read(&seg).unwrap();
        image[cut..].fill(0);
        fs::write(&seg, &image).unwrap();
        let log = open(&dir, FsyncPolicy::Os, max);
        assert_eq!(log.next_offset(), 3);
        let report = log.open_report();
        assert_eq!(report.corrupt_records, 1);
        assert_eq!(
            report.torn_bytes,
            (cut - (total - 300 - 2 * FRAME_HEADER - sizes[3])) as u64
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The scan stops a chunk behind a zero header; what lies further out
    /// is never read, and cleared all the same.
    #[test]
    fn stale_bytes_beyond_the_scanned_chunk_are_cleared_unseen() {
        let dir = temp_dir("far-hole");
        let max = 4 * SCAN_CHUNK;
        {
            let mut log = open(&dir, FsyncPolicy::Always, max);
            log.append(b"first").unwrap();
        }
        let seg = segment_path(&dir, 0);
        let prefix = valid_len(&seg).unwrap();
        let mut f = OpenOptions::new().write(true).open(&seg).unwrap();
        write_at(&mut f, &framed(3), 3 * SCAN_CHUNK).unwrap();
        drop(f);
        assert!(dirty_len(&fs::read(&seg).unwrap()) as u64 > 3 * SCAN_CHUNK);

        let log = open(&dir, FsyncPolicy::Always, max);
        assert_eq!(log.next_offset(), 1);
        assert_eq!(log.open_report(), OpenReport::default(), "never seen");
        let on_disk = fs::read(&seg).unwrap();
        assert_eq!(on_disk.len() as u64, max);
        assert_eq!(dirty_len(&on_disk) as u64, prefix, "and gone");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_seals_cold_segments_and_open_repairs_a_crash_inside_it() {
        let dir = temp_dir("seal");
        let max = 64;
        let mut log = open(&dir, FsyncPolicy::Os, max);
        for i in 0..40 {
            log.append(&payload(i)).unwrap();
        }
        // Stop on a full active segment: the next append would rotate.
        let mut n = 40;
        let last_path = loop {
            let mut firsts = list_segments(&dir).unwrap();
            firsts.sort_unstable();
            let last = segment_path(&dir, *firsts.last().unwrap());
            if valid_len(&last).unwrap() >= max {
                break last;
            }
            log.append(&payload(n)).unwrap();
            n += 1;
        };
        let segments = log.num_segments();
        drop(log);

        let mut firsts = list_segments(&dir).unwrap();
        firsts.sort_unstable();
        for &first in &firsts[..firsts.len() - 1] {
            let path = segment_path(&dir, first);
            assert_eq!(
                fs::metadata(&path).unwrap().len(),
                valid_len(&path).unwrap(),
                "cold segment {first} is exactly its frames"
            );
        }

        // Crash between seal and create: the last segment is exact-size.
        let sealed = valid_len(&last_path).unwrap();
        let f = OpenOptions::new().write(true).open(&last_path).unwrap();
        f.set_len(sealed).unwrap();
        drop(f);
        let mut log = open(&dir, FsyncPolicy::Os, max);
        assert_eq!(log.open_report(), OpenReport::default());
        assert_eq!((log.next_offset(), log.num_segments()), (n, segments));
        assert_eq!(log.append(&payload(n)).unwrap(), n);
        assert_eq!(log.num_segments(), segments + 1, "the rotation completes");
        assert_eq!(fs::metadata(&last_path).unwrap().len(), sealed);
        drop(log);

        // Crash between create and preallocation: an empty last segment.
        // And a seal that never reached the disk: a cold segment with a
        // zero tail.
        File::create(segment_path(&dir, n)).unwrap();
        let f = OpenOptions::new().write(true).open(&last_path).unwrap();
        f.set_len(sealed + 100).unwrap();
        drop(f);
        let mut log = open(&dir, FsyncPolicy::Os, max);
        assert_eq!(log.open_report(), OpenReport::default());
        assert_eq!((log.next_offset(), log.num_segments()), (n, segments + 1));
        assert_eq!(fs::metadata(&last_path).unwrap().len(), sealed, "sealed");
        assert_eq!(
            fs::metadata(segment_path(&dir, n)).unwrap().len(),
            max,
            "preallocated"
        );
        assert_eq!(log.append(&payload(n)).unwrap(), n);
        assert_eq!(log.replay(0).unwrap().len() as u64, n + 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_shrinks_a_directory_of_tiny_segments() {
        let dir = temp_dir("retain-bytes");
        let mut log = open(&dir, FsyncPolicy::Os, 1); // one record per segment
        for i in 0..20 {
            log.append(&payload(i)).unwrap();
        }
        assert_eq!(log.num_segments(), 20);
        // Nothing is padded: cold segments are sealed, and the active one
        // outgrew its 1-byte preallocation with its first record.
        assert_eq!(dir_bytes(&dir), framed(20).len() as u64);
        assert_eq!(log.retain_from(15).unwrap(), 15);
        assert_eq!(
            dir_bytes(&dir),
            (framed(20).len() - framed(15).len()) as u64
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Satellite bugfix: the first segment's directory entry (and a WAL
    /// directory `open` had to create) must be fsynced before any record
    /// in it is acknowledged — previously only `rotate` synced the
    /// directory.
    #[test]
    fn open_syncs_the_new_directory_and_then_the_first_segment_into_it() {
        let dir = temp_dir("syncdir").join("wal");
        let parent = dir.parent().unwrap().to_path_buf();
        fs::create_dir_all(&parent).unwrap();
        SYNCED_DIRS.with(|calls| calls.borrow_mut().clear());
        let log = open(&dir, FsyncPolicy::Always, 4096);
        let calls = SYNCED_DIRS.with(|calls| std::mem::take(&mut *calls.borrow_mut()));
        assert_eq!(
            calls,
            vec![
                // the parent, once it holds the new `wal` directory ...
                (parent.clone(), 1),
                // ... then `wal`, once it holds the first segment.
                (dir.clone(), 1),
            ]
        );
        drop(log);
        // An existing log creates nothing, so has nothing to sync.
        let _log = open(&dir, FsyncPolicy::Always, 4096);
        SYNCED_DIRS.with(|calls| assert!(calls.borrow().is_empty()));
        fs::remove_dir_all(&parent).unwrap();
    }
}
