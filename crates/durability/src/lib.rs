//! # jdvs-durability
//!
//! Durability for the real-time ingestion path: the paper's message queue
//! (Section 2.3) is modelled in-memory by
//! [`MessageQueue`](jdvs_storage::MessageQueue); this crate gives it a
//! crash story so a searcher restart does not silently forget every
//! real-time update since the last weekly full build.
//!
//! Three pieces, layered:
//!
//! - [`log`] — a segmented event log. Every record is framed with a
//!   length and a CRC32C and written in place into a preallocated active
//!   segment, so a sync flushes data and never a file-size change; a
//!   configurable [`FsyncPolicy`] trades append throughput for loss
//!   bound; opening the log clears torn or corrupt tails back to the last
//!   valid frame, so the log is always a verified prefix of what was
//!   acknowledged. Under
//!   [`FsyncPolicy::Always`], [`commit`] can batch concurrent publishers
//!   into shared group-commit syncs without weakening the loss bound.
//! - [`checkpoint`] — atomic index snapshots (temp file + `fsync` +
//!   rename) with a CRC-protected manifest recording `{snapshot file,
//!   applied offset}`. Recovery loads the newest snapshot that validates
//!   and knows exactly which log suffix is still unapplied.
//! - [`queue`] / [`recovery`] — [`DurableQueue`] rebuilds the in-memory
//!   queue from the log on open and tees every publish into it;
//!   [`recover_partition_seeded`] replays the suffix a checkpoint-seeded
//!   (or empty) index has not applied through the *same*
//!   [`RealtimeIndexer`](jdvs_core::realtime::RealtimeIndexer) apply loop
//!   live ingestion runs.
//!
//! Retention ties the pieces together: once a checkpoint covers offset
//! *W*, log segments wholly below *W* are deleted
//! ([`DurableQueue::prune_to`]); the queue keeps absolute offsets across
//! pruning via its base offset. Between prunes, [`compact`] reclaims the
//! middle of the log: cold-segment events superseded per image URL by
//! later ones are blanked into no-op tombstones (offsets preserved, so
//! replay and checkpoints are oblivious) with a crash-safe segment swap.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use jdvs_durability::{DurableQueue, FsyncPolicy, LogConfig};
//! use jdvs_metrics::DurabilityMetrics;
//! use jdvs_storage::model::{ProductEvent, ProductId};
//!
//! let dir = std::env::temp_dir().join(format!("jdvs-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let mut config = LogConfig::new(&dir);
//! config.fsync = FsyncPolicy::Always;
//!
//! // First life: publish two events.
//! let dq = DurableQueue::open(config.clone(), Arc::new(DurabilityMetrics::new())).unwrap();
//! dq.queue().publish(ProductEvent::RemoveProduct { product_id: ProductId(1), urls: vec![] });
//! dq.queue().publish(ProductEvent::RemoveProduct { product_id: ProductId(2), urls: vec![] });
//! drop(dq); // crash: no clean shutdown required
//!
//! // Second life: the queue comes back with the same contents.
//! let dq = DurableQueue::open(config, Arc::new(DurabilityMetrics::new())).unwrap();
//! assert_eq!(dq.recovered_events(), 2);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod codec;
pub mod commit;
pub mod compact;
pub mod log;
pub mod queue;
pub mod recovery;

pub use checkpoint::{CheckpointConfig, CheckpointStore, Manifest, SharedCheckpoint};
pub use codec::{decode_event, encode_event, CodecError};
pub use commit::CommitQueue;
pub use compact::{compact_log, CompactionReport};
pub use log::{FsyncPolicy, LogConfig, OpenReport, SegmentedLog};
pub use queue::DurableQueue;
pub use recovery::{recover_partition_seeded, RecoveryReport};
