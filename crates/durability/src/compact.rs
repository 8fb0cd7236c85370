//! Offline per-key log compaction.
//!
//! A long-lived ingestion log accumulates events whose effects later
//! events fully overwrite: an image re-added with fresh attributes makes
//! every earlier add/update/remove of that URL unobservable on replay, and
//! a full attribute update (all of sales/price/praise set) shadows earlier
//! partial updates of the same URL. [`compact_log`] is an offline pass
//! over the *cold* segments (every segment but the last, which the log
//! writes in place) that blanks such superseded events, shrinking the
//! bytes a cold recovery must read and decode. Cold segments are sealed
//! to exactly their frames when the log rotates off them, so a rewrite's
//! saving is the difference in frame bytes; one found still carrying its
//! preallocated zeros (a crash inside a rotation, before the next open
//! seals it) is read the same way and comes out exact-size.
//!
//! **Offset preservation.** Replay identifies records purely by position:
//! each segment's frames map 1:1 onto contiguous offsets from its
//! `first_offset`. Compaction therefore never removes a frame — a
//! superseded event is rewritten in place as a no-op tombstone
//! (`RemoveProduct` with an empty URL list, which the indexer applies as
//! nothing), so every surviving offset, checkpoint watermark and dead
//! letter keeps its meaning. The win is bytes, not record count: a bulky
//! `AddProduct` frame collapses to a ~10-byte tombstone.
//!
//! **Supersedence rules** (walking newest → oldest; an event is dropped
//! only when *every* URL it touches is covered):
//!
//! - a later `AddProduct` containing URL `u` covers `u` completely: the
//!   upsert rewrites numeric attributes, listing state and validity
//!   regardless of what came before, so earlier adds, removes and updates
//!   of `u` are unobservable;
//! - a later `UpdateAttributes` with **all** of sales/price/praise set
//!   covers earlier `UpdateAttributes` of `u` — but an intervening add or
//!   remove of `u` breaks that license (the records the two updates hit
//!   may differ), so the walk clears it at any add/remove boundary;
//! - removes are never used to drop an earlier add: "present but
//!   invalidated" and "never inserted" are distinguishable states (the
//!   forward index still resolves the key), so both events must survive.
//!
//! **Crash safety.** Each rewritten segment is written to a `.tmp`
//! sibling, fsynced, renamed over the original, and the directory synced
//! — the same swap discipline checkpoints use. A crash leaves either the
//! old file or the new one, never a mix; stale `.tmp` files are invisible
//! to [`SegmentedLog::open`] (its listing only matches `wal-*.seg`) and
//! are swept by the next compaction.
//!
//! Evidence is only taken from records an open would keep: segments are
//! scanned with the log's own scan and frame walker (`log::scan_segment`,
//! `log::frames`) and scanning stops at the first torn or corrupt end or offset gap, because
//! the frames past that point are exactly what [`SegmentedLog::open`]
//! clears away — an event must never be dropped on the word of a
//! superseder that will not survive recovery.

use std::collections::HashSet;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use jdvs_metrics::DurabilityMetrics;
use jdvs_storage::model::ProductEvent;
use jdvs_storage::queue::Offset;

use crate::codec::{decode_event, encode_event};
use crate::log::{
    frames, list_segments, put_frame, scan_segment, segment_path, sync_dir, End, SegmentedLog,
};

/// What a [`compact_log`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionReport {
    /// Cold segments rewritten (segments with nothing to drop are left
    /// untouched on disk).
    pub segments_rewritten: u64,
    /// Events blanked into no-op tombstones.
    pub events_dropped: u64,
    /// Payload + frame bytes reclaimed across rewritten segments.
    pub bytes_reclaimed: u64,
}

/// One segment loaded for compaction.
struct LoadedSegment {
    first_offset: Offset,
    path: PathBuf,
    /// Raw payloads of the valid frame prefix, in offset order.
    payloads: Vec<Vec<u8>>,
    /// Bytes those frames occupy in the file.
    valid_bytes: u64,
    /// Whether nothing but preallocation follows the valid frames (no
    /// torn or corrupt tail).
    clean: bool,
}

/// Compacts the cold segments of the log in `dir`; see the module docs
/// for the exact rules. Safe to run offline between opens, or on a live
/// log via [`crate::DurableQueue::compact`] (which holds the append lock).
/// Returns what was reclaimed.
pub fn compact_log(dir: &Path, metrics: &DurabilityMetrics) -> io::Result<CompactionReport> {
    // Sweep tmp leftovers of an interrupted pass before anything else;
    // they were never renamed, so their contents are irrelevant.
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("wal-") && name.ends_with(".tmp") {
            fs::remove_file(&path)?;
        }
    }

    let mut report = CompactionReport::default();
    let segments = load_segments(dir)?;
    if segments.len() < 2 {
        return Ok(report); // only the active segment: nothing cold.
    }

    // Decode every surviving event (cold *and* active: the active segment
    // supplies supersedence evidence even though it is never rewritten).
    let mut events: Vec<Vec<ProductEvent>> = Vec::with_capacity(segments.len());
    for seg in &segments {
        let mut decoded = Vec::with_capacity(seg.payloads.len());
        for (i, payload) in seg.payloads.iter().enumerate() {
            let event = decode_event(payload).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "log record {} does not decode: {e}",
                        seg.first_offset + i as Offset
                    ),
                )
            })?;
            decoded.push(event);
        }
        events.push(decoded);
    }

    let droppable = mark_superseded(&events);

    // Rewrite each cold segment that has something to drop. The last
    // loaded segment is the (future) active segment; never touched.
    for (seg_idx, seg) in segments.iter().enumerate().rev().skip(1) {
        if !seg.clean || !droppable[seg_idx].iter().any(|&d| d) {
            continue;
        }
        let mut dropped = 0u64;
        let mut out = Vec::new();
        for (i, payload) in seg.payloads.iter().enumerate() {
            let tomb;
            let body: &[u8] = if droppable[seg_idx][i] {
                dropped += 1;
                tomb = encode_event(&tombstone(&events[seg_idx][i]));
                &tomb
            } else {
                payload
            };
            put_frame(&mut out, body);
        }

        let tmp = seg.path.with_extension("tmp");
        let mut f = File::create(&tmp)?;
        f.write_all(&out)?;
        f.sync_all()?;
        fs::rename(&tmp, &seg.path)?;
        sync_dir(dir)?;

        report.segments_rewritten += 1;
        report.events_dropped += dropped;
        report.bytes_reclaimed += seg.valid_bytes.saturating_sub(out.len() as u64);
    }

    metrics.log_compactions.incr();
    metrics.compaction_events_dropped.add(report.events_dropped);
    metrics
        .compaction_bytes_reclaimed
        .add(report.bytes_reclaimed);
    Ok(report)
}

/// Loads the contiguous valid prefix of the log's segments — exactly the
/// records [`SegmentedLog::open`] would keep. A torn segment contributes
/// its valid frames (marked unclean) and ends the walk; segments past a
/// gap are the ones open deletes, so they are neither evidence nor
/// candidates.
fn load_segments(dir: &Path) -> io::Result<Vec<LoadedSegment>> {
    let mut firsts = list_segments(dir)?;
    firsts.sort_unstable();

    let mut out: Vec<LoadedSegment> = Vec::new();
    let mut expected: Option<Offset> = None;
    for first in firsts {
        if expected.is_some_and(|e| e != first) {
            break; // offset gap: everything from here is unreachable.
        }
        let path = segment_path(dir, first);
        let scan = scan_segment(&path)?;
        let payloads: Vec<Vec<u8>> = frames(&scan.bytes[..scan.valid_bytes as usize])
            .map(<[u8]>::to_vec)
            .collect();
        let clean = matches!(scan.end, End::Clean | End::ZeroTail);
        expected = Some(first + scan.records);
        out.push(LoadedSegment {
            first_offset: first,
            path,
            payloads,
            valid_bytes: scan.valid_bytes,
            clean,
        });
        if !clean {
            break; // open truncates here; later segments are dropped.
        }
    }
    Ok(out)
}

/// Marks events whose every touched URL is superseded by a later event,
/// per the module-level rules. Returns one bool per frame, aligned with
/// `events`.
fn mark_superseded(events: &[Vec<ProductEvent>]) -> Vec<Vec<bool>> {
    let mut droppable: Vec<Vec<bool>> = events.iter().map(|seg| vec![false; seg.len()]).collect();
    // URLs a later AddProduct rewrites from scratch.
    let mut rewritten: HashSet<&str> = HashSet::new();
    // URLs a later full UpdateAttributes refreshes, license still intact
    // (no add/remove of the URL seen since).
    let mut refreshed: HashSet<&str> = HashSet::new();

    for seg_idx in (0..events.len()).rev() {
        for (i, event) in events[seg_idx].iter().enumerate().rev() {
            let covered = |url: &str| rewritten.contains(url) || refreshed.contains(url);
            match event {
                ProductEvent::AddProduct { images, .. } => {
                    droppable[seg_idx][i] = !images.is_empty()
                        && images.iter().all(|a| rewritten.contains(a.url.as_str()));
                    for a in images {
                        rewritten.insert(a.url.as_str());
                        refreshed.remove(a.url.as_str());
                    }
                }
                ProductEvent::RemoveProduct { urls, .. } => {
                    droppable[seg_idx][i] =
                        !urls.is_empty() && urls.iter().all(|u| rewritten.contains(u.as_str()));
                    for u in urls {
                        // Add/remove boundary: earlier updates may hit a
                        // different record state than the refresher did.
                        refreshed.remove(u.as_str());
                    }
                }
                ProductEvent::UpdateAttributes {
                    urls,
                    sales,
                    price,
                    praise,
                    ..
                } => {
                    droppable[seg_idx][i] =
                        !urls.is_empty() && urls.iter().all(|u| covered(u.as_str()));
                    if sales.is_some() && price.is_some() && praise.is_some() {
                        for u in urls {
                            if !rewritten.contains(u.as_str()) {
                                refreshed.insert(u.as_str());
                            }
                        }
                    }
                }
            }
        }
    }
    droppable
}

/// The no-op an offset keeps after its event is dropped: a remove with no
/// URLs applies as nothing, decodes with the existing codec, and retains
/// the product id for debuggability.
fn tombstone(event: &ProductEvent) -> ProductEvent {
    ProductEvent::RemoveProduct {
        product_id: event.product_id(),
        urls: Vec::new(),
    }
}

impl SegmentedLog {
    /// Runs [`compact_log`] over this log's directory. Requires `&mut
    /// self` so no append or rotation races the segment swap; the active
    /// segment is untouched, and replay keys records by frame position —
    /// which compaction preserves — so the in-memory segment table stays
    /// valid (a cold segment's byte count becomes an upper bound, which
    /// is all replay asks of it).
    pub fn compact(&mut self) -> io::Result<CompactionReport> {
        compact_log(self.dir(), self.metrics())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{FsyncPolicy, LogConfig};
    use crate::queue::DurableQueue;
    use jdvs_storage::model::{ProductAttributes, ProductId};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("jdvs-cmp-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn config(dir: &Path) -> LogConfig {
        LogConfig {
            dir: dir.to_path_buf(),
            segment_max_bytes: 1, // roll after every record: 1 event/segment
            fsync: FsyncPolicy::Always,
            group_commit: false,
        }
    }

    fn add(product: u64, url: &str, sales: u64) -> ProductEvent {
        ProductEvent::AddProduct {
            product_id: ProductId(product),
            images: vec![ProductAttributes::new(
                ProductId(product),
                sales,
                100,
                1,
                url.to_string(),
            )],
        }
    }

    fn remove(product: u64, url: &str) -> ProductEvent {
        ProductEvent::RemoveProduct {
            product_id: ProductId(product),
            urls: vec![url.to_string()],
        }
    }

    fn update(product: u64, url: &str, sales: Option<u64>, full: bool) -> ProductEvent {
        ProductEvent::UpdateAttributes {
            product_id: ProductId(product),
            urls: vec![url.to_string()],
            sales,
            price: full.then_some(55),
            praise: full.then_some(7),
        }
    }

    fn replayed(dir: &Path) -> Vec<ProductEvent> {
        let dq = DurableQueue::open(config(dir), Arc::new(DurabilityMetrics::new())).unwrap();
        dq.queue().read_range(0, usize::MAX)
    }

    #[test]
    fn readd_supersedes_earlier_history_of_the_url() {
        let dir = temp_dir("readd");
        {
            let dq = DurableQueue::open(config(&dir), Arc::new(DurabilityMetrics::new())).unwrap();
            dq.queue().publish(add(1, "u1", 10)); // 0: superseded by 3
            dq.queue().publish(update(1, "u1", Some(11), false)); // 1: superseded by 3
            dq.queue().publish(add(2, "u2", 20)); // 2: live
            dq.queue().publish(add(1, "u1", 12)); // 3: live (the superseder)
            dq.queue().publish(add(3, "u3", 30)); // 4: active segment
        }
        let dir_bytes = || -> u64 {
            fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().metadata().unwrap().len())
                .sum()
        };
        let before = dir_bytes();
        let metrics = DurabilityMetrics::new();
        let report = compact_log(&dir, &metrics).unwrap();
        assert_eq!(report.events_dropped, 2);
        assert!(report.segments_rewritten >= 1);
        assert!(report.bytes_reclaimed > 0);
        assert_eq!(
            before - dir_bytes(),
            report.bytes_reclaimed,
            "cold segments are exact-size, so what was reclaimed left the disk"
        );
        assert_eq!(metrics.compaction_events_dropped.get(), 2);

        let events = replayed(&dir);
        assert_eq!(events.len(), 5, "offsets preserved");
        for off in [0usize, 1] {
            assert!(
                matches!(&events[off], ProductEvent::RemoveProduct { urls, .. } if urls.is_empty()),
                "offset {off} should be a tombstone, got {:?}",
                events[off]
            );
        }
        assert_eq!(events[2], add(2, "u2", 20));
        assert_eq!(events[3], add(1, "u1", 12));
        assert_eq!(events[4], add(3, "u3", 30));

        // A second pass finds nothing left to drop: tombstones are not
        // re-dropped and live events are not newly superseded.
        let report2 = compact_log(&dir, &metrics).unwrap();
        assert_eq!(report2.events_dropped, 0);
        assert_eq!(report2.segments_rewritten, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn full_update_supersedes_partial_update_unless_a_remove_intervenes() {
        let dir = temp_dir("update");
        {
            let dq = DurableQueue::open(config(&dir), Arc::new(DurabilityMetrics::new())).unwrap();
            dq.queue().publish(add(1, "u1", 1)); // 0: live (only add of u1)
            dq.queue().publish(update(1, "u1", Some(2), false)); // 1: superseded by 2
            dq.queue().publish(update(1, "u1", Some(3), true)); // 2: NOT superseded (remove barrier blocks 5's license)
            dq.queue().publish(update(1, "u1", Some(4), false)); // 3: NOT superseded (remove barrier)
            dq.queue().publish(remove(1, "u1")); // 4: live (removes never drop adds)
            dq.queue().publish(update(1, "u1", Some(5), true)); // 5: live
            dq.queue().publish(add(9, "pad", 0)); // 6: active segment
        }
        let report = compact_log(&dir, &DurabilityMetrics::new()).unwrap();
        assert_eq!(report.events_dropped, 1);

        let events = replayed(&dir);
        let is_tomb = |e: &ProductEvent| matches!(e, ProductEvent::RemoveProduct { urls, .. } if urls.is_empty());
        assert!(!is_tomb(&events[0]), "the add must survive");
        assert!(is_tomb(&events[1]));
        assert!(!is_tomb(&events[2]), "remove barrier keeps offset 2");
        assert!(!is_tomb(&events[3]), "remove barrier keeps offset 3");
        assert_eq!(events[4], remove(1, "u1"));
        assert_eq!(events[5], update(1, "u1", Some(5), true));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn event_with_several_urls_survives_until_every_url_is_superseded() {
        let dir = temp_dir("multi");
        {
            let dq = DurableQueue::open(config(&dir), Arc::new(DurabilityMetrics::new())).unwrap();
            dq.queue().publish(ProductEvent::AddProduct {
                product_id: ProductId(1),
                images: vec![
                    ProductAttributes::new(ProductId(1), 1, 1, 1, "a".to_string()),
                    ProductAttributes::new(ProductId(1), 1, 1, 1, "b".to_string()),
                ],
            }); // 0: only "a" re-added later — must survive
            dq.queue().publish(add(1, "a", 2)); // 1: live
            dq.queue().publish(add(9, "pad", 0)); // 2: active
        }
        let report = compact_log(&dir, &DurabilityMetrics::new()).unwrap();
        assert_eq!(report.events_dropped, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn single_segment_log_is_left_alone() {
        let dir = temp_dir("single");
        {
            let mut cfg = config(&dir);
            cfg.segment_max_bytes = 1 << 20; // everything in one segment
            let dq = DurableQueue::open(cfg, Arc::new(DurabilityMetrics::new())).unwrap();
            dq.queue().publish(add(1, "u1", 1));
            dq.queue().publish(add(1, "u1", 2));
        }
        let report = compact_log(&dir, &DurabilityMetrics::new()).unwrap();
        assert_eq!(report, CompactionReport::default());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmp_files_are_swept_and_ignored() {
        let dir = temp_dir("tmp");
        {
            let dq = DurableQueue::open(config(&dir), Arc::new(DurabilityMetrics::new())).unwrap();
            dq.queue().publish(add(1, "u1", 1));
            dq.queue().publish(add(1, "u1", 2));
            dq.queue().publish(add(2, "u2", 1));
        }
        // A crash mid-swap leaves a half-written tmp next to the segment.
        fs::write(dir.join("wal-00000000000000000000.tmp"), b"garbage").unwrap();
        let report = compact_log(&dir, &DurabilityMetrics::new()).unwrap();
        assert_eq!(report.events_dropped, 1);
        assert!(
            !fs::read_dir(&dir).unwrap().any(|e| {
                let n = e.unwrap().file_name();
                n.to_str().unwrap().ends_with(".tmp")
            }),
            "tmp leftovers swept"
        );
        assert_eq!(replayed(&dir).len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Offline compaction after a crash inside a rotation: the cold
    /// segment still carries its preallocated tail. It is evidence and
    /// candidate like any other, the tail is not "reclaimed", and the
    /// rewrite leaves it exact-size.
    #[test]
    fn unsealed_cold_segment_compacts_to_exactly_its_frames() {
        let dir = temp_dir("unsealed");
        {
            let dq = DurableQueue::open(config(&dir), Arc::new(DurabilityMetrics::new())).unwrap();
            dq.queue().publish(add(1, "u1", 1)); // 0: superseded by 1
            dq.queue().publish(add(1, "u1", 2)); // 1: live
            dq.queue().publish(add(2, "u2", 1)); // 2: active segment
        }
        let cold = segment_path(&dir, 0);
        let frames_len = fs::metadata(&cold).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&cold).unwrap();
        f.set_len(frames_len + 4096).unwrap();
        drop(f);

        let report = compact_log(&dir, &DurabilityMetrics::new()).unwrap();
        assert_eq!(report.events_dropped, 1);
        let compacted = fs::metadata(&cold).unwrap().len();
        assert_eq!(report.bytes_reclaimed, frames_len - compacted);
        assert_eq!(crate::log::valid_len(&cold).unwrap(), compacted);
        assert_eq!(replayed(&dir).len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn live_log_compaction_through_the_durable_queue() {
        let dir = temp_dir("live");
        let dq = DurableQueue::open(config(&dir), Arc::new(DurabilityMetrics::new())).unwrap();
        for i in 0..10 {
            dq.queue().publish(add(1, "hot", i));
        }
        let report = dq.compact().unwrap();
        assert!(report.events_dropped >= 8, "got {report:?}");
        // The open log keeps serving: replay sees all offsets, appends
        // continue the sequence, and a reopen agrees.
        assert_eq!(dq.queue().publish(add(2, "u2", 0)), 10);
        drop(dq);
        let events = replayed(&dir);
        assert_eq!(events.len(), 11);
        assert_eq!(events[10], add(2, "u2", 0));
        fs::remove_dir_all(&dir).unwrap();
    }
}
