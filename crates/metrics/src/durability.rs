//! Counters for the durable ingestion log and checkpoint/recovery path.
//!
//! One [`DurabilityMetrics`] instance is shared (via `Arc`) by the
//! segmented log writer, the checkpointer and the recovery path of a
//! serving stack, so a single snapshot answers the operational questions a
//! durable ingestion pipeline raises: how much is being written and
//! fsynced, how often checkpoints land, what recovery actually did (replay
//! volume, torn tails, corrupt records), and how much log the retention
//! policy reclaimed.

use crate::counter::Counter;
use crate::gauge::Gauge;

/// Shared durability counters; all fields are thread-safe.
#[derive(Debug, Default)]
pub struct DurabilityMetrics {
    /// Records appended to the ingestion log.
    pub log_appends: Counter,
    /// Payload bytes appended (excluding frame headers).
    pub log_bytes: Counter,
    /// Explicit `fsync`/`fdatasync` calls issued by the log writer.
    pub log_syncs: Counter,
    /// Segment files created (initial + rotations).
    pub segments_created: Counter,
    /// Segment files deleted by watermark-keyed retention.
    pub segments_pruned: Counter,
    /// Checkpoints written successfully.
    pub checkpoints_written: Counter,
    /// Snapshot bytes written across all checkpoints.
    pub checkpoint_bytes: Counter,
    /// Recoveries performed (one per partition replica per startup).
    pub recoveries: Counter,
    /// Recoveries that loaded a checkpoint snapshot (vs. cold replay).
    pub recoveries_from_snapshot: Counter,
    /// Events replayed from the log during recovery.
    pub events_replayed: Counter,
    /// Bytes of torn (partially-written) log tail truncated on open.
    pub torn_bytes_truncated: Counter,
    /// Records dropped because their CRC32C check failed.
    pub corrupt_records_dropped: Counter,
    /// Snapshots that failed their checksum/decode and were skipped in
    /// favour of an older snapshot or a cold replay.
    pub snapshots_rejected: Counter,
    /// Highest offset known durable (appended, and synced when the policy
    /// requires it).
    pub durable_offset: Gauge,
    /// Highest offset applied to an index and covered by a checkpoint.
    pub checkpoint_offset: Gauge,
}

impl DurabilityMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Plain-value snapshot of every counter.
    pub fn snapshot(&self) -> DurabilitySnapshot {
        DurabilitySnapshot {
            log_appends: self.log_appends.get(),
            log_bytes: self.log_bytes.get(),
            log_syncs: self.log_syncs.get(),
            segments_created: self.segments_created.get(),
            segments_pruned: self.segments_pruned.get(),
            checkpoints_written: self.checkpoints_written.get(),
            checkpoint_bytes: self.checkpoint_bytes.get(),
            recoveries: self.recoveries.get(),
            recoveries_from_snapshot: self.recoveries_from_snapshot.get(),
            events_replayed: self.events_replayed.get(),
            torn_bytes_truncated: self.torn_bytes_truncated.get(),
            corrupt_records_dropped: self.corrupt_records_dropped.get(),
            snapshots_rejected: self.snapshots_rejected.get(),
            durable_offset: self.durable_offset.get(),
            checkpoint_offset: self.checkpoint_offset.get(),
        }
    }
}

/// Point-in-time values of a [`DurabilityMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurabilitySnapshot {
    /// See [`DurabilityMetrics::log_appends`].
    pub log_appends: u64,
    /// See [`DurabilityMetrics::log_bytes`].
    pub log_bytes: u64,
    /// See [`DurabilityMetrics::log_syncs`].
    pub log_syncs: u64,
    /// See [`DurabilityMetrics::segments_created`].
    pub segments_created: u64,
    /// See [`DurabilityMetrics::segments_pruned`].
    pub segments_pruned: u64,
    /// See [`DurabilityMetrics::checkpoints_written`].
    pub checkpoints_written: u64,
    /// See [`DurabilityMetrics::checkpoint_bytes`].
    pub checkpoint_bytes: u64,
    /// See [`DurabilityMetrics::recoveries`].
    pub recoveries: u64,
    /// See [`DurabilityMetrics::recoveries_from_snapshot`].
    pub recoveries_from_snapshot: u64,
    /// See [`DurabilityMetrics::events_replayed`].
    pub events_replayed: u64,
    /// See [`DurabilityMetrics::torn_bytes_truncated`].
    pub torn_bytes_truncated: u64,
    /// See [`DurabilityMetrics::corrupt_records_dropped`].
    pub corrupt_records_dropped: u64,
    /// See [`DurabilityMetrics::snapshots_rejected`].
    pub snapshots_rejected: u64,
    /// See [`DurabilityMetrics::durable_offset`].
    pub durable_offset: u64,
    /// See [`DurabilityMetrics::checkpoint_offset`].
    pub checkpoint_offset: u64,
}

impl DurabilitySnapshot {
    /// Events the durable log holds beyond the newest checkpoint — the
    /// replay work a crash right now would cost.
    pub fn replay_exposure(&self) -> u64 {
        self.durable_offset.saturating_sub(self.checkpoint_offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let m = DurabilityMetrics::new();
        m.log_appends.add(5);
        m.log_bytes.add(500);
        m.log_syncs.incr();
        m.checkpoints_written.incr();
        m.durable_offset.set_max(5);
        m.checkpoint_offset.set_max(3);
        let s = m.snapshot();
        assert_eq!(s.log_appends, 5);
        assert_eq!(s.log_bytes, 500);
        assert_eq!(s.log_syncs, 1);
        assert_eq!(s.checkpoints_written, 1);
        assert_eq!(s.replay_exposure(), 2);
    }

    #[test]
    fn replay_exposure_saturates() {
        let s = DurabilitySnapshot {
            durable_offset: 3,
            checkpoint_offset: 10,
            ..Default::default()
        };
        assert_eq!(s.replay_exposure(), 0);
    }
}
