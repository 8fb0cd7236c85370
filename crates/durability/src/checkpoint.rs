//! Atomic index checkpoints with a manifest.
//!
//! A checkpoint is a [`persist::save`] snapshot of one partition's
//! [`VisualIndex`] plus the queue offset it covers. Writes are atomic in
//! the classic temp-file + rename way:
//!
//! 1. snapshot bytes → `snap-{offset:020}.ckpt.tmp`, `fsync`, rename to
//!    `snap-{offset:020}.ckpt`, `fsync` the directory
//! 2. manifest bytes → `MANIFEST.tmp`, `fsync`, rename to `MANIFEST`,
//!    `fsync` the directory
//!
//! A crash between any two steps leaves either the old manifest (pointing
//! at the old snapshot, still present — retention keeps every snapshot the
//! manifest might name plus the newest) or the new one; never a manifest
//! naming a half-written snapshot. A crash *before* a rename can strand a
//! `*.tmp` file; [`CheckpointStore::open`] sweeps those away.
//!
//! Recovery trusts nothing: the manifest carries its own CRC32C, the
//! snapshot carries the format-v2 trailer checked by [`persist::load`],
//! and when either fails the store falls back to the newest snapshot file
//! that *does* decode (offset parsed from its name), or to a cold replay.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use jdvs_core::config::IndexConfig;
use jdvs_core::index::VisualIndex;
use jdvs_core::persist;
use jdvs_metrics::DurabilityMetrics;
use jdvs_storage::checksum::crc32c;
use jdvs_storage::queue::Offset;

use crate::log::sync_dir;

const MANIFEST_MAGIC: &[u8; 8] = b"JDVSMANI";
const MANIFEST_VERSION: u32 = 1;
const MANIFEST: &str = "MANIFEST";

/// Configuration of a [`CheckpointStore`].
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding snapshots and the manifest (created if absent).
    pub dir: PathBuf,
    /// Snapshots retained beyond the manifest's current one (fallbacks for
    /// a corrupt newest snapshot). At least 1.
    pub keep: usize,
}

impl CheckpointConfig {
    /// Defaults: keep the manifest snapshot plus one older fallback.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            keep: 2,
        }
    }
}

/// What the manifest records about the newest checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Snapshot file name (relative to the checkpoint dir).
    pub snapshot: String,
    /// Queue offset the snapshot covers: recovery replays the log from
    /// here (`applied_offset` == "next offset to apply").
    pub applied_offset: Offset,
}

/// A checkpoint recovered once and fanned out across a partition's
/// replicas: the snapshot is read from disk and validated a single time,
/// the raw bytes are kept behind an `Arc`, and every additional replica
/// decodes its own index from memory via [`SharedCheckpoint::fork`] —
/// no per-replica disk read, no per-replica validation failure path.
#[derive(Debug)]
pub struct SharedCheckpoint {
    /// The index decoded during validation; the first consumer takes it.
    pub index: VisualIndex,
    /// The validated snapshot bytes, shared by all forks.
    bytes: Arc<Vec<u8>>,
    /// Offset recovery must replay the log from.
    pub applied_offset: Offset,
    /// Whether the manifest's snapshot was used (`false` = a fallback
    /// snapshot; the manifest was missing, corrupt or named a bad file).
    pub from_manifest: bool,
}

impl SharedCheckpoint {
    /// Decodes a fresh index from the already-validated in-memory snapshot
    /// bytes, for an additional replica of the same partition.
    pub fn fork(&self) -> VisualIndex {
        // The first decode already adopted the serving knobs of the
        // partition this checkpoint was recovered for.
        persist::load(&self.bytes, self.index.config())
            .expect("snapshot bytes were validated at recovery time")
    }

    /// Size of the shared snapshot, in bytes.
    pub fn snapshot_len(&self) -> usize {
        self.bytes.len()
    }
}

/// Atomic snapshot + manifest storage for one partition.
#[derive(Debug)]
pub struct CheckpointStore {
    config: CheckpointConfig,
    metrics: Arc<DurabilityMetrics>,
}

impl CheckpointStore {
    /// Opens (or creates) the store in `config.dir`, sweeping any `*.tmp`
    /// file stranded by a crash between a temp write and its rename.
    pub fn open(config: CheckpointConfig, metrics: Arc<DurabilityMetrics>) -> io::Result<Self> {
        fs::create_dir_all(&config.dir)?;
        for entry in fs::read_dir(&config.dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                fs::remove_file(&path)?;
            }
        }
        Ok(Self { config, metrics })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// Writes a checkpoint of `index` covering everything below
    /// `applied_offset`, atomically, then prunes old snapshots.
    pub fn save(&self, index: &VisualIndex, applied_offset: Offset) -> io::Result<()> {
        let snapshot_name = format!("snap-{applied_offset:020}.ckpt");
        let bytes = persist::save(index);

        write_atomic(&self.config.dir, &snapshot_name, &bytes)?;
        let manifest = Manifest {
            snapshot: snapshot_name,
            applied_offset,
        };
        write_atomic(&self.config.dir, MANIFEST, &encode_manifest(&manifest))?;

        self.metrics.checkpoints_written.incr();
        self.metrics.checkpoint_bytes.add(bytes.len() as u64);
        self.metrics.checkpoint_offset.set_max(applied_offset);

        self.prune(&manifest.snapshot)?;
        Ok(())
    }

    /// Reads and validates the manifest, if present.
    pub fn manifest(&self) -> Option<Manifest> {
        let bytes = fs::read(self.config.dir.join(MANIFEST)).ok()?;
        decode_manifest(&bytes)
    }

    /// Loads the newest usable checkpoint — the manifest's snapshot when it
    /// validates, else newest-first over the remaining snapshot files — to
    /// serve under `serving` (see [`persist::load`]). `None` means cold
    /// recovery (replay the whole log).
    ///
    /// Any snapshot whose applied offset exceeds `max_applied` is rejected.
    /// Recovery passes the durable log's end here: a checkpoint watermark
    /// past the log end means the log was truncated (or lost an un-fsynced
    /// tail) *after* the snapshot was taken — seeding from it would pin the
    /// consumer past events the log will re-assign those offsets to,
    /// silently skipping them forever. Such snapshots are skipped in favour
    /// of an older in-bounds one (or cold replay).
    ///
    /// The validated snapshot bytes are kept so one recovered checkpoint
    /// can seed **all** of a partition's replicas
    /// ([`SharedCheckpoint::fork`]) instead of each replica re-reading and
    /// re-validating the file.
    pub fn recover_shared_within(
        &self,
        max_applied: Offset,
        serving: &IndexConfig,
    ) -> Option<SharedCheckpoint> {
        // The manifest's snapshot first, then every snapshot file newest
        // first (offset parsed from its name).
        let mut fallbacks = self.snapshot_files().unwrap_or_default();
        fallbacks.sort_unstable_by_key(|c| std::cmp::Reverse(c.0));
        let manifest = self
            .manifest()
            .map(|m| (m.applied_offset, m.snapshot, true));
        let candidates = manifest.into_iter().chain(
            fallbacks
                .into_iter()
                .map(|(offset, name)| (offset, name, false)),
        );
        for (applied_offset, name, from_manifest) in candidates {
            if applied_offset > max_applied {
                if from_manifest {
                    self.metrics.snapshots_rejected.incr();
                }
                continue;
            }
            let Ok(bytes) = fs::read(self.config.dir.join(&name)) else {
                self.metrics.snapshots_rejected.incr();
                continue;
            };
            let Ok(index) = persist::load(&bytes, serving) else {
                self.metrics.snapshots_rejected.incr();
                continue;
            };
            return Some(SharedCheckpoint {
                index,
                bytes: Arc::new(bytes),
                applied_offset,
                from_manifest,
            });
        }
        None
    }

    /// `(applied_offset, file name)` of every snapshot on disk.
    fn snapshot_files(&self) -> io::Result<Vec<(Offset, String)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.config.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(digits) = name
                .strip_prefix("snap-")
                .and_then(|rest| rest.strip_suffix(".ckpt"))
            {
                if let Ok(offset) = digits.parse::<Offset>() {
                    out.push((offset, name.to_string()));
                }
            }
        }
        Ok(out)
    }

    /// Deletes all but the `keep` newest snapshots; `current` (the file the
    /// manifest names) is always kept regardless.
    fn prune(&self, current: &str) -> io::Result<()> {
        let mut files = self.snapshot_files()?;
        files.sort_unstable_by_key(|f| std::cmp::Reverse(f.0));
        for (_, name) in files.into_iter().skip(self.config.keep.max(1)) {
            if name != current {
                fs::remove_file(self.config.dir.join(name))?;
            }
        }
        Ok(())
    }
}

/// `magic(8) version:u32 applied_offset:u64 name_len:u32 name crc:u32`,
/// all little-endian; `crc = crc32c` of everything before it.
fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32 + m.snapshot.len());
    buf.extend_from_slice(MANIFEST_MAGIC);
    buf.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    buf.extend_from_slice(&m.applied_offset.to_le_bytes());
    buf.extend_from_slice(&(m.snapshot.len() as u32).to_le_bytes());
    buf.extend_from_slice(m.snapshot.as_bytes());
    let crc = crc32c(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

fn decode_manifest(bytes: &[u8]) -> Option<Manifest> {
    if bytes.len() < 28 || &bytes[..8] != MANIFEST_MAGIC {
        return None;
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 4);
    let crc = u32::from_le_bytes(trailer.try_into().unwrap());
    if crc32c(payload) != crc {
        return None;
    }
    let version = u32::from_le_bytes(payload[8..12].try_into().unwrap());
    if version != MANIFEST_VERSION {
        return None;
    }
    let applied_offset = u64::from_le_bytes(payload[12..20].try_into().unwrap());
    let name_len = u32::from_le_bytes(payload[20..24].try_into().unwrap()) as usize;
    let name = payload.get(24..24 + name_len)?;
    if 24 + name_len != payload.len() {
        return None;
    }
    let snapshot = String::from_utf8(name.to_vec()).ok()?;
    Some(Manifest {
        snapshot,
        applied_offset,
    })
}

/// Temp-file + fsync + rename + directory-fsync write of `name` in `dir`
/// — the rename itself is made durable here, not left to a later caller.
///
/// # Errors
///
/// Propagates I/O errors from any step; `name` is then either absent or
/// still holds its previous contents.
pub fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let target = dir.join(name);
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, &target)?;
    sync_dir(dir)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jdvs_storage::model::{ProductAttributes, ProductId};
    use jdvs_vector::Vector;
    use std::sync::atomic::{AtomicU64, Ordering};

    const DIM: usize = 8;

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("jdvs-ckpt-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn store(dir: &Path, keep: usize) -> (CheckpointStore, Arc<DurabilityMetrics>) {
        let metrics = Arc::new(DurabilityMetrics::new());
        let config = CheckpointConfig {
            dir: dir.to_path_buf(),
            keep,
        };
        (
            CheckpointStore::open(config, Arc::clone(&metrics)).unwrap(),
            metrics,
        )
    }

    fn sample_index(n: u64) -> VisualIndex {
        let mut rng = jdvs_vector::rng::Xoshiro256::seed_from(11);
        let train: Vec<Vector> = (0..32)
            .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let index = VisualIndex::bootstrap(
            IndexConfig {
                dim: DIM,
                num_lists: 2,
                ..Default::default()
            },
            &train,
        );
        for i in 0..n {
            let url = format!("ckpt-{i}");
            let attrs = ProductAttributes::new(ProductId(i), i, 100 + i, 1, url);
            let feats: Vector = (0..DIM).map(|_| rng.next_gaussian() as f32).collect();
            index.upsert(attrs, || Some(feats.clone())).unwrap();
        }
        index.flush();
        index
    }

    #[test]
    fn save_then_recover_round_trips() {
        let dir = temp_dir("roundtrip");
        let (store, metrics) = store(&dir, 2);
        let index = sample_index(5);
        store.save(&index, 17).unwrap();

        let rec = store
            .recover_shared_within(Offset::MAX, &IndexConfig::default())
            .unwrap();
        assert!(rec.from_manifest);
        assert_eq!(rec.applied_offset, 17);
        assert_eq!(rec.index.valid_images(), 5);
        assert_eq!(metrics.checkpoints_written.get(), 1);
        assert_eq!(metrics.checkpoint_offset.get(), 17);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store_recovers_to_none() {
        let dir = temp_dir("empty");
        let (store, _) = store(&dir, 2);
        assert!(store
            .recover_shared_within(Offset::MAX, &IndexConfig::default())
            .is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_older() {
        let dir = temp_dir("fallback");
        let (store, metrics) = store(&dir, 3);
        store.save(&sample_index(3), 10).unwrap();
        store.save(&sample_index(6), 20).unwrap();

        // Bit-flip the newest snapshot's payload.
        let newest = dir.join("snap-00000000000000000020.ckpt");
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        fs::write(&newest, &bytes).unwrap();

        let rec = store
            .recover_shared_within(Offset::MAX, &IndexConfig::default())
            .unwrap();
        assert!(!rec.from_manifest, "manifest snapshot was rejected");
        assert_eq!(rec.applied_offset, 10, "older snapshot wins");
        assert_eq!(rec.index.valid_images(), 3);
        assert!(metrics.snapshots_rejected.get() >= 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_falls_back_to_newest_valid_snapshot() {
        let dir = temp_dir("badmanifest");
        let (store, _) = store(&dir, 3);
        store.save(&sample_index(4), 30).unwrap();
        // Truncate the manifest mid-write (crash between fsync and rename
        // is already covered by rename atomicity; this models a corrupt
        // manifest file itself).
        let manifest = dir.join(MANIFEST);
        let bytes = fs::read(&manifest).unwrap();
        fs::write(&manifest, &bytes[..bytes.len() - 2]).unwrap();

        let rec = store
            .recover_shared_within(Offset::MAX, &IndexConfig::default())
            .unwrap();
        assert!(!rec.from_manifest);
        assert_eq!(rec.applied_offset, 30, "offset parsed from file name");
        assert_eq!(rec.index.valid_images(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_keeps_newest_and_manifest_target() {
        let dir = temp_dir("prune");
        let (store, _) = store(&dir, 2);
        for (n, off) in [(1u64, 10u64), (2, 20), (3, 30), (4, 40)] {
            store.save(&sample_index(n), off).unwrap();
        }
        let mut names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".ckpt"))
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                "snap-00000000000000000030.ckpt".to_string(),
                "snap-00000000000000000040.ckpt".to_string(),
            ],
            "keep=2 retains the two newest"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_sweeps_stranded_tmp_files() {
        let dir = temp_dir("tmpsweep");
        let (first, _) = store(&dir, 2);
        first.save(&sample_index(2), 5).unwrap();
        // A crash between fsync and rename strands temp files.
        fs::write(dir.join("snap-00000000000000000009.ckpt.tmp"), b"half").unwrap();
        fs::write(dir.join("MANIFEST.tmp"), b"half").unwrap();
        drop(first);

        let (reopened, _) = store(&dir, 2);
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "tmp files must be swept: {leftovers:?}"
        );
        // The real snapshot and manifest survive the sweep.
        let rec = reopened
            .recover_shared_within(Offset::MAX, &IndexConfig::default())
            .unwrap();
        assert!(rec.from_manifest);
        assert_eq!(rec.applied_offset, 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_within_skips_snapshots_past_the_log_end() {
        let dir = temp_dir("within");
        let (store, metrics) = store(&dir, 3);
        store.save(&sample_index(3), 10).unwrap();
        store.save(&sample_index(6), 20).unwrap();

        // Log end 20: the manifest snapshot is in bounds.
        let rec = store
            .recover_shared_within(20, &IndexConfig::default())
            .unwrap();
        assert!(rec.from_manifest);
        assert_eq!(rec.applied_offset, 20);

        // Log end 15: the manifest's watermark (20) outruns the log —
        // the older snapshot must win.
        let rec = store
            .recover_shared_within(15, &IndexConfig::default())
            .unwrap();
        assert!(!rec.from_manifest);
        assert_eq!(rec.applied_offset, 10);
        assert_eq!(rec.index.valid_images(), 3);
        assert!(metrics.snapshots_rejected.get() >= 1);

        // Log end 5: nothing usable; cold recovery.
        assert!(store
            .recover_shared_within(5, &IndexConfig::default())
            .is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shared_recovery_forks_bit_identical_replicas() {
        let dir = temp_dir("shared");
        let (store, _) = store(&dir, 2);
        let index = sample_index(7);
        store.save(&index, 42).unwrap();

        let shared = store
            .recover_shared_within(Offset::MAX, &IndexConfig::default())
            .unwrap();
        assert!(shared.from_manifest);
        assert_eq!(shared.applied_offset, 42);
        assert!(shared.snapshot_len() > 0);

        // Delete the files: forks must come from memory, not disk.
        fs::remove_dir_all(&dir).unwrap();
        let fork_a = shared.fork();
        let fork_b = shared.fork();
        let original = persist::save(&shared.index);
        assert_eq!(persist::save(&fork_a), original);
        assert_eq!(persist::save(&fork_b), original);
        assert_eq!(fork_a.valid_images(), 7);
    }

    #[test]
    fn manifest_codec_rejects_mutations() {
        let m = Manifest {
            snapshot: "snap-00000000000000000099.ckpt".into(),
            applied_offset: 99,
        };
        let bytes = encode_manifest(&m);
        assert_eq!(decode_manifest(&bytes), Some(m));
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x10;
            assert_eq!(decode_manifest(&mutated), None, "flip at byte {i}");
        }
        for len in 0..bytes.len() {
            assert_eq!(decode_manifest(&bytes[..len]), None);
        }
    }
}
