//! A [`MessageQueue`] backed by the segmented log.
//!
//! [`DurableQueue::open`] replays the log into a fresh in-memory queue
//! (based at the log's first retained offset, so absolute offsets survive
//! pruning and restarts), then installs a publish tee: every
//! `publish`/`publish_batch` appends the encoded event to the log *under
//! the queue's publish lock*, so durable order is exactly offset order.
//!
//! The tee cannot return an error through the queue API; an I/O failure
//! while appending panics with context. For a write-ahead log this is the
//! correct failure mode — acknowledging a publish whose durable append
//! failed would silently break the recovery contract (etcd and friends
//! fatal on WAL write errors for the same reason).

use std::io;
use std::sync::Arc;

use parking_lot::Mutex;

use jdvs_metrics::DurabilityMetrics;
use jdvs_storage::model::ProductEvent;
use jdvs_storage::queue::Offset;
use jdvs_storage::MessageQueue;

use crate::codec::{decode_event, encode_event};
use crate::commit::CommitQueue;
use crate::log::{FsyncPolicy, LogConfig, OpenReport, SegmentedLog};

/// The durable ingestion queue for one serving stack.
#[derive(Debug)]
pub struct DurableQueue {
    queue: Arc<MessageQueue<ProductEvent>>,
    log: Arc<Mutex<SegmentedLog>>,
    /// What opening the log repaired (torn tail, corrupt records).
    open_report: OpenReport,
    /// Events replayed from the log into the in-memory queue on open.
    recovered: u64,
}

impl DurableQueue {
    /// Opens the log, rebuilds the in-memory queue from it and arms the
    /// publish tee. Records that fail CRC were already truncated away by
    /// the log's open; a record that passes CRC but does not decode means
    /// a format mismatch and fails the open (never indexed as garbage).
    pub fn open(config: LogConfig, metrics: Arc<DurabilityMetrics>) -> io::Result<Self> {
        let group_commit = config.fsync == FsyncPolicy::Always && config.group_commit;
        let log = SegmentedLog::open(config, Arc::clone(&metrics))?;
        let open_report = log.open_report();
        let base = log.first_offset();

        let mut backlog = Vec::new();
        for (offset, payload) in log.replay(base)? {
            let event = decode_event(&payload).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("log record {offset} does not decode: {e}"),
                )
            })?;
            backlog.push(event);
        }
        let recovered = backlog.len() as u64;

        let queue = Arc::new(MessageQueue::with_base(base));
        // Tee is installed after the backlog lands, so recovery does not
        // re-append what the log already holds.
        queue.publish_batch(backlog);
        debug_assert_eq!(queue.len(), log.next_offset());

        let log = Arc::new(Mutex::new(log));
        let tee_log = Arc::clone(&log);
        queue.set_tee(move |offset: Offset, event: &ProductEvent| {
            let payload = encode_event(event);
            let appended = tee_log
                .lock()
                .append(&payload)
                .unwrap_or_else(|e| panic!("durable log append failed at offset {offset}: {e}"));
            debug_assert_eq!(appended, offset, "log and queue offsets diverged");
        });

        if group_commit {
            // Under Always + group_commit the tee no longer syncs inline;
            // instead every publish blocks (after the queue lock drops) in
            // commit_wait until a shared leader sync covers its offset.
            // Same loss bound, one fdatasync per burst of publishers.
            let commit = CommitQueue::new(Arc::clone(&log));
            queue.set_after_publish(move |last: Offset| commit.commit_wait(last));
        }

        Ok(Self {
            queue,
            log,
            open_report,
            recovered,
        })
    }

    /// The in-memory queue; publish through this (the tee keeps the log in
    /// step) and hand it to consumers/indexers as usual.
    pub fn queue(&self) -> &Arc<MessageQueue<ProductEvent>> {
        &self.queue
    }

    /// What opening the log repaired.
    pub fn open_report(&self) -> OpenReport {
        self.open_report
    }

    /// Events replayed from the log into the queue on open.
    pub fn recovered_events(&self) -> u64 {
        self.recovered
    }

    /// Forces all appended records to stable storage.
    pub fn sync(&self) -> io::Result<()> {
        self.log.lock().sync()
    }

    /// Deletes whole log segments below the checkpoint `watermark`; see
    /// [`SegmentedLog::retain_from`]. Returns segments pruned.
    pub fn prune_to(&self, watermark: Offset) -> io::Result<u64> {
        self.log.lock().retain_from(watermark)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::FsyncPolicy;
    use jdvs_storage::model::{ProductAttributes, ProductId};
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("jdvs-dq-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn config(dir: &Path) -> LogConfig {
        LogConfig {
            dir: dir.to_path_buf(),
            segment_max_bytes: 256,
            fsync: FsyncPolicy::Always,
            group_commit: false,
        }
    }

    fn add(i: u64) -> ProductEvent {
        ProductEvent::AddProduct {
            product_id: ProductId(i),
            images: vec![ProductAttributes::new(
                ProductId(i),
                i,
                100,
                1,
                format!("dq-{i}"),
            )],
        }
    }

    #[test]
    fn publishes_survive_reopen_with_same_offsets() {
        let dir = temp_dir("reopen");
        let metrics = Arc::new(DurabilityMetrics::new());
        {
            let dq = DurableQueue::open(config(&dir), Arc::clone(&metrics)).unwrap();
            for i in 0..30 {
                assert_eq!(dq.queue().publish(add(i)), i);
            }
        } // no clean shutdown needed: FsyncPolicy::Always
        let dq = DurableQueue::open(config(&dir), Arc::new(DurabilityMetrics::new())).unwrap();
        assert_eq!(dq.recovered_events(), 30);
        assert_eq!(dq.queue().len(), 30);
        let events = dq.queue().read_range(0, 100);
        assert_eq!(events.len(), 30);
        assert_eq!(events[7], add(7));
        // New publishes continue the offset sequence and hit the log.
        assert_eq!(dq.queue().publish(add(30)), 30);
        drop(dq);
        let dq = DurableQueue::open(config(&dir), Arc::new(DurabilityMetrics::new())).unwrap();
        assert_eq!(dq.queue().len(), 31);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pruned_queue_keeps_absolute_offsets_across_reopen() {
        let dir = temp_dir("prune");
        let dq = DurableQueue::open(config(&dir), Arc::new(DurabilityMetrics::new())).unwrap();
        for i in 0..40 {
            dq.queue().publish(add(i));
        }
        let pruned = dq.prune_to(40).unwrap();
        assert!(pruned >= 1, "tiny segments must be reclaimable");
        drop(dq);
        let dq = DurableQueue::open(config(&dir), Arc::new(DurabilityMetrics::new())).unwrap();
        let base = dq.queue().base();
        assert!(base > 0, "pruning moved the base");
        assert_eq!(dq.queue().len(), 40, "absolute length preserved");
        let tail = dq.queue().read_range(base, usize::MAX);
        assert_eq!(tail[0], add(base), "offset identity survives");
        assert_eq!(dq.queue().publish(add(40)), 40);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_publishes_are_durable_on_ack_and_survive_reopen() {
        let dir = temp_dir("group");
        let mut cfg = config(&dir);
        cfg.group_commit = true;
        let metrics = Arc::new(DurabilityMetrics::new());
        let dq = DurableQueue::open(cfg.clone(), Arc::clone(&metrics)).unwrap();
        let writers = 4u64;
        let per_writer = 25u64;
        std::thread::scope(|s| {
            for w in 0..writers {
                let queue = Arc::clone(dq.queue());
                let metrics = Arc::clone(&metrics);
                s.spawn(move || {
                    for i in 0..per_writer {
                        let off = queue.publish(add(w * per_writer + i));
                        // The Always loss bound must hold per acknowledged
                        // publish even though syncs are shared.
                        assert!(
                            metrics.durable_offset.get() > off,
                            "publish {off} acknowledged before it was durable"
                        );
                    }
                });
            }
        });
        let total = writers * per_writer;
        assert_eq!(dq.queue().len(), total);
        // Every rotation seals the finished segment with a sync of its own,
        // and these tiny segments rotate often: when the scheduler happens
        // to serialize the writers, each append pays its own sync too.
        assert!(
            metrics.log_syncs.get() <= metrics.log_appends.get() + metrics.segments_created.get(),
            "group commit never syncs more than once per append, plus once per seal"
        );
        drop(dq); // crash: group commit already made everything durable
        let dq = DurableQueue::open(cfg, Arc::new(DurabilityMetrics::new())).unwrap();
        assert_eq!(dq.recovered_events(), total);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_surfaces_in_open_report_and_queue_shrinks() {
        let dir = temp_dir("torn");
        {
            let dq = DurableQueue::open(config(&dir), Arc::new(DurabilityMetrics::new())).unwrap();
            for i in 0..5 {
                dq.queue().publish(add(i));
            }
        }
        // Tear the newest segment's tail by a few bytes.
        let mut segs: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "seg"))
            .collect();
        segs.sort();
        let last = segs.last().unwrap();
        let len = crate::log::valid_len(last).unwrap();
        let f = fs::OpenOptions::new().write(true).open(last).unwrap();
        f.set_len(len - 2).unwrap();
        drop(f);

        let metrics = Arc::new(DurabilityMetrics::new());
        let dq = DurableQueue::open(config(&dir), Arc::clone(&metrics)).unwrap();
        assert_eq!(dq.queue().len(), 4, "torn final record dropped");
        assert!(dq.open_report().torn_bytes > 0);
        assert!(metrics.torn_bytes_truncated.get() > 0);
        // The queue still accepts and persists new events at offset 4.
        assert_eq!(dq.queue().publish(add(99)), 4);
        fs::remove_dir_all(&dir).unwrap();
    }
}
