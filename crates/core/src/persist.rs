//! Index snapshots: serialize a partition's index to bytes and back.
//!
//! Production context (Figure 2/3): the weekly full indexer trains the
//! quantizers once, builds fresh indexes and *distributes* them to searcher
//! nodes. That hand-off needs a durable, self-describing on-disk format.
//! [`save`] captures everything a partition serves with — config, coarse
//! centroids, PQ codebook, every record's attributes, features and
//! validity — and [`load`] reconstructs an equivalent [`VisualIndex`]: same
//! ids, attributes, searchable set and quantizers, so the same answers, raw
//! and compressed.
//!
//! The format is a versioned little-endian binary layout (no external
//! serialization dependency on the hot path):
//!
//! ```text
//! magic "JDVS" | u32 version | config (incl. pq_subspaces, 0 = none) |
//! u32 k | centroids (k × dim f32) |
//! pq codebook (16 × dim f32, pq_subspaces > 0 only) | u64 n_images |
//! n × { attrs, valid u8, features dim × f32 } |
//! n × { category u32, in_stock u8 } | u32 crc32c
//! ```
//!
//! The trailer is a CRC32C over every preceding byte. [`load`] verifies it
//! *before* decoding, so a corrupt snapshot (bit rot, short write, bad
//! shipping) fails with [`PersistError::ChecksumMismatch`] instead of
//! decoding garbage. A matching CRC proves only that the bytes are the ones
//! written: the config must still pass [`IndexConfig::check`], the codebook
//! must be one [`ProductQuantizer::codewords`] could have written, the
//! record count must fit the remaining bytes before anything is allocated,
//! and every byte must be read, so a crafted snapshot is
//! [`PersistError::Corrupt`], never a panic.
//!
//! Quantizers are index state, not derived data: a codebook retrained from
//! another sample scores differently, so a snapshot carries the centroids
//! and codebook its replica serves, and [`load`] trains nothing. What
//! [`load`] rebuilds is what follows deterministically from those bytes:
//! the inverted lists and PQ codes (records re-inserted in id order and
//! encoded against the stored codebook), the filter bitmaps (from the
//! listing section after the record array), and the centroid graph (from
//! the centroids and `coarse_beam_width`).
//!
//! **Version 6** (current) adds the codebook section. [`load`] also accepts
//! **version 5**, whose layout is version 6 without that section, for raw
//! snapshots only: a version 5 snapshot of a PQ index holds no codebook to
//! serve with and is refused as [`PersistError::UnsupportedVersion`].
//!
//! What a snapshot does *not* carry is the serving-time knob
//! ([`IndexConfig::nprobe_escalation`]): snapshots stay portable across
//! probing policies, and [`load`] adopts the knob from the config the
//! snapshot is being loaded *for*.

use std::sync::Arc;

use jdvs_storage::checksum::crc32c;
use jdvs_storage::model::{ProductAttributes, ProductId};
use jdvs_vector::kmeans::Kmeans;
use jdvs_vector::pq::{ProductQuantizer, CODEBOOK_SIZE};
use jdvs_vector::Vector;

use crate::config::IndexConfig;
use crate::ids::ImageId;
use crate::index::VisualIndex;

/// Format magic.
const MAGIC: &[u8; 4] = b"JDVS";
/// Current format version (v6 adds the PQ codebook to v5).
const VERSION: u32 = 6;
/// Oldest version [`load`] still accepts, for raw indexes: the one before
/// the current.
const MIN_VERSION: u32 = 5;

/// Errors from snapshot encode/decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The byte stream does not start with the JDVS magic.
    BadMagic,
    /// The format version is not supported by this build.
    UnsupportedVersion(u32),
    /// The stream ended before a field was complete.
    Truncated {
        /// What was being read.
        field: &'static str,
    },
    /// A string field held invalid UTF-8.
    InvalidUtf8 {
        /// What was being read.
        field: &'static str,
    },
    /// A structural invariant failed (e.g. zero dimension).
    Corrupt {
        /// Human-readable description.
        reason: &'static str,
    },
    /// The CRC32C trailer does not match the snapshot payload.
    ChecksumMismatch {
        /// Checksum the trailer recorded.
        expected: u32,
        /// Checksum of the bytes actually read.
        actual: u32,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadMagic => f.write_str("not a jdvs index snapshot (bad magic)"),
            PersistError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            PersistError::Truncated { field } => {
                write!(f, "snapshot truncated while reading {field}")
            }
            PersistError::InvalidUtf8 { field } => write!(f, "invalid utf-8 in {field}"),
            PersistError::Corrupt { reason } => write!(f, "corrupt snapshot: {reason}"),
            PersistError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch: trailer says {expected:#010x}, \
                 payload hashes to {actual:#010x}"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Self {
            buf: Vec::with_capacity(4096),
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f32s(&mut self, vs: &[f32]) {
        for v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], PersistError> {
        if self.pos + n > self.buf.len() {
            return Err(PersistError::Truncated { field });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, PersistError> {
        Ok(self.take(1, field)?[0])
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, PersistError> {
        let b = self.take(4, field)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, PersistError> {
        let b = self.take(8, field)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f32s(&mut self, n: usize, field: &'static str) -> Result<Vec<f32>, PersistError> {
        let b = self.take(n * 4, field)?;
        Ok(b.chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn str(&mut self, field: &'static str) -> Result<String, PersistError> {
        let len = self.u32(field)? as usize;
        let b = self.take(len, field)?;
        String::from_utf8(b.to_vec()).map_err(|_| PersistError::InvalidUtf8 { field })
    }
}

/// Serializes `index` into a self-describing snapshot.
pub fn save(index: &VisualIndex) -> Vec<u8> {
    let mut w = Writer::new();
    w.buf.extend_from_slice(MAGIC);
    w.u32(VERSION);

    let c = index.config();
    w.u32(c.dim as u32);
    w.u32(c.num_lists as u32);
    w.u32(c.initial_list_capacity as u32);
    w.u32(c.nprobe as u32);
    w.u8(u8::from(c.background_expansion));
    w.u32(c.kmeans_iters as u32);
    w.u64(c.train_sample as u64);
    w.u32(c.pq_subspaces.unwrap_or(0) as u32);
    w.u64(c.seed);
    w.u8(c.pq_bits);
    w.u32(c.rerank_factor as u32);
    w.u32(c.coarse_beam_width as u32);
    w.u64(c.coarse_balance_factor.to_bits());

    let q = index.quantizer();
    w.u32(q.k() as u32);
    for centroid in q.centroids() {
        w.f32s(centroid.as_slice());
    }
    if let Some(pq) = index.pq_quantizer() {
        w.f32s(&pq.codewords());
    }

    let n = index.num_images();
    w.u64(n as u64);
    for raw in 0..n {
        let id = ImageId(raw as u32);
        let attrs = index.attributes(id).expect("record below len");
        let features = index.features(id).expect("vector below len");
        w.u64(attrs.product_id.0);
        w.u64(attrs.sales);
        w.u64(attrs.price);
        w.u64(attrs.praise);
        w.bytes(attrs.url.as_bytes());
        w.u8(u8::from(index.is_valid(id)));
        w.f32s(features.as_slice());
    }
    // Per-record listing attributes, after the record array.
    for raw in 0..n {
        let attrs = index
            .attributes(ImageId(raw as u32))
            .expect("record below len");
        w.u32(attrs.category);
        w.u8(u8::from(attrs.in_stock));
    }
    // Trailer: CRC32C over everything written so far. The checksum is
    // verified before any field is decoded, so shipping corruption is an
    // explicit error, never silently-decoded garbage.
    let crc = crc32c(&w.buf);
    w.u32(crc);
    w.buf
}

/// Reconstructs an index from a snapshot produced by [`save`], to serve
/// under `serving`.
///
/// The rebuilt index assigns the same sequential ids, attributes, features
/// and validity, and serves with the snapshot's centroids and codebook;
/// inverted lists and codes are re-derived from them, so raw and
/// compressed search results match the snapshotted index exactly.
/// Index structure comes from the snapshot; the serving-time knob it does
/// not carry ([`IndexConfig::nprobe_escalation`]) is adopted from
/// `serving` — the config of the partition the snapshot is loaded for —
/// so a rebuilt, bootstrapped, split or recovered replica keeps escalating
/// filtered queries exactly as its predecessor did.
///
/// # Errors
///
/// Returns a [`PersistError`] on malformed input.
pub fn load(bytes: &[u8], serving: &IndexConfig) -> Result<VisualIndex, PersistError> {
    let mut r = Reader::new(bytes);
    if r.take(4, "magic")? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.u32("version")?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(PersistError::UnsupportedVersion(version));
    }
    // Verify the trailer before decoding anything else; the payload the
    // reader may consume ends where the trailer begins.
    if bytes.len() < 12 {
        return Err(PersistError::Truncated { field: "checksum" });
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 4);
    let expected = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let actual = crc32c(payload);
    if expected != actual {
        return Err(PersistError::ChecksumMismatch { expected, actual });
    }
    r.buf = payload;

    let dim = r.u32("config.dim")? as usize;
    let config = IndexConfig {
        dim,
        num_lists: r.u32("config.num_lists")? as usize,
        initial_list_capacity: r.u32("config.initial_list_capacity")? as usize,
        nprobe: r.u32("config.nprobe")? as usize,
        background_expansion: r.u8("config.background_expansion")? != 0,
        kmeans_iters: r.u32("config.kmeans_iters")? as usize,
        train_sample: r.u64("config.train_sample")? as usize,
        pq_subspaces: match r.u32("config.pq_subspaces")? {
            0 => None,
            m => Some(m as usize),
        },
        // The serving-time knob, not index structure: never in the bytes,
        // always the loading partition's.
        nprobe_escalation: serving.nprobe_escalation,
        // Struct-literal fields evaluate in textual order, so the reads
        // below consume the bytes directly after `seed`.
        seed: r.u64("config.seed")?,
        pq_bits: r.u8("config.pq_bits")?,
        rerank_factor: r.u32("config.rerank_factor")? as usize,
        coarse_beam_width: r.u32("config.coarse_beam_width")? as usize,
        coarse_balance_factor: f64::from_bits(r.u64("config.coarse_balance_factor")?),
    };
    // A CRC only proves the bytes are the ones written, not that a valid
    // index wrote them: check the config before anything is allocated for
    // it, so corrupt input surfaces as an error, never a panic.
    config
        .check()
        .map_err(|reason| PersistError::Corrupt { reason })?;
    // Version 5 predates the codebook section: a raw index reads as
    // version 6, a PQ index has nothing to serve its codes with.
    if version < 6 && config.pq_subspaces.is_some() {
        return Err(PersistError::UnsupportedVersion(version));
    }

    // Fewer centroids than lists is a small training sample; more would
    // hand out list ids the config does not size for.
    let k = r.u32("quantizer.k")? as usize;
    if k == 0 || k > config.num_lists {
        return Err(PersistError::Corrupt {
            reason: "centroid count outside 1..=num_lists",
        });
    }
    let centroids: Vec<Vector> = (0..k)
        .map(|_| r.f32s(dim, "quantizer.centroid").map(Vector::from))
        .collect::<Result<_, _>>()?;
    let quantizer = Kmeans::from_centroids(centroids);
    let pq = match config.pq_subspaces {
        Some(m) => {
            let codewords = r.f32s(CODEBOOK_SIZE * dim, "pq.codebook")?;
            let pq = ProductQuantizer::from_codewords(dim, m, &codewords)
                .map_err(|reason| PersistError::Corrupt { reason })?;
            Some(Arc::new(pq))
        }
        None => None,
    };

    // Decode all records first: their listing attributes follow the record
    // array. A record is at least four u64 attributes, a u32 url length,
    // the validity byte and the features, so the remaining bytes bound the
    // count before anything is allocated for it.
    let n = r.u64("n_images")?;
    if n > (r.buf.len() - r.pos) as u64 / (37 + 4 * dim as u64) {
        return Err(PersistError::Corrupt {
            reason: "n_images exceeds the snapshot",
        });
    }
    let mut records = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let product_id = ProductId(r.u64("record.product_id")?);
        let sales = r.u64("record.sales")?;
        let price = r.u64("record.price")?;
        let praise = r.u64("record.praise")?;
        let url = r.str("record.url")?;
        let valid = r.u8("record.valid")? != 0;
        let features = Vector::from(r.f32s(dim, "record.features")?);
        records.push((
            ProductAttributes::new(product_id, sales, price, praise, url),
            valid,
            features,
        ));
    }
    for rec in records.iter_mut() {
        rec.0.category = r.u32("listing.category")?;
        rec.0.in_stock = r.u8("listing.in_stock")? != 0;
    }
    if r.pos != r.buf.len() {
        return Err(PersistError::Corrupt {
            reason: "bytes left after the listing section",
        });
    }
    let index = VisualIndex::with_quantizers(config, quantizer, pq);

    let mut invalid: Vec<(jdvs_storage::model::ImageKey, String)> = Vec::new();
    for (attrs, valid, features) in records {
        let key = attrs.image_key();
        let url = attrs.url.clone();
        index
            .insert(features, attrs)
            .map_err(|_| PersistError::Corrupt {
                reason: "record rejected on rebuild",
            })?;
        if !valid {
            invalid.push((key, url));
        }
    }
    // Insert marks records valid; restore snapshot validity afterwards.
    for (key, url) in invalid {
        index
            .invalidate(key, &url)
            .map_err(|_| PersistError::Corrupt {
                reason: "validity restore failed",
            })?;
    }
    index.flush();
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jdvs_storage::model::ImageKey;
    use jdvs_vector::rng::Xoshiro256;

    const DIM: usize = 8;

    /// [`load`] for a partition with the default serving knob.
    fn reload(bytes: &[u8]) -> Result<VisualIndex, PersistError> {
        load(bytes, &IndexConfig::default())
    }

    fn build_index(n: u64) -> VisualIndex {
        let mut rng = Xoshiro256::seed_from(21);
        let train: Vec<Vector> = (0..32)
            .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let index = VisualIndex::bootstrap(
            IndexConfig {
                dim: DIM,
                num_lists: 4,
                initial_list_capacity: 4,
                ..Default::default()
            },
            &train,
        );
        for i in 0..n {
            let v: Vector = (0..DIM).map(|_| rng.next_gaussian() as f32).collect();
            index
                .insert(
                    v,
                    ProductAttributes::new(ProductId(i), i * 2, 100 + i, i % 5, format!("u{i}"))
                        .with_category((i % 3) as u32)
                        .with_stock(i % 2 == 0),
                )
                .unwrap();
        }
        // Delete every 4th image so validity state is non-trivial.
        for i in (0..n).step_by(4) {
            index
                .invalidate(ImageKey::from_url(&format!("u{i}")), &format!("u{i}"))
                .unwrap();
        }
        index.flush();
        index
    }

    /// A PQ index (m = 4) trained on 128 vectors and holding `rows` others,
    /// as a topology partition is: its codebook's sample is disjoint from
    /// the rows it holds.
    fn build_pq_index(rows: u64) -> VisualIndex {
        let mut rng = Xoshiro256::seed_from(77);
        let mut gaussian = || -> Vector { (0..DIM).map(|_| rng.next_gaussian() as f32).collect() };
        let train: Vec<Vector> = (0..128).map(|_| gaussian()).collect();
        let index = VisualIndex::bootstrap(
            IndexConfig {
                dim: DIM,
                num_lists: 4,
                pq_subspaces: Some(4),
                ..Default::default()
            },
            &train,
        );
        for i in 0..rows {
            index
                .insert(
                    gaussian(),
                    ProductAttributes::new(ProductId(i), 0, 0, 0, format!("u{i}")),
                )
                .unwrap();
        }
        index.flush();
        index
    }

    #[test]
    fn round_trip_preserves_everything() {
        let index = build_index(100);
        let bytes = save(&index);
        let loaded = reload(&bytes).expect("load");
        assert_eq!(loaded.num_images(), index.num_images());
        assert_eq!(loaded.valid_images(), index.valid_images());
        assert_eq!(loaded.config(), index.config());
        for raw in 0..100u32 {
            let id = ImageId(raw);
            assert_eq!(
                loaded.attributes(id).unwrap(),
                index.attributes(id).unwrap()
            );
            assert_eq!(loaded.features(id), index.features(id));
            assert_eq!(loaded.is_valid(id), index.is_valid(id));
        }
    }

    #[test]
    fn load_adopts_the_serving_knob_of_its_target() {
        let index = build_index(10);
        assert_eq!(index.config().nprobe_escalation, 0);
        let serving = IndexConfig {
            nprobe_escalation: 8,
            // Structure always comes from the snapshot, never from `serving`.
            num_lists: 99,
            ..IndexConfig::default()
        };
        let loaded = load(&save(&index), &serving).expect("load");
        assert_eq!(loaded.config().nprobe_escalation, 8);
        assert_eq!(loaded.config().num_lists, index.config().num_lists);
    }

    #[test]
    fn round_trip_preserves_search_results() {
        let index = build_index(200);
        let loaded = reload(&save(&index)).expect("load");
        for probe in 0..10u32 {
            let q = index.features(ImageId(probe * 13)).unwrap();
            let a = index.search(q.as_slice(), 10, 4);
            let b = loaded.search(q.as_slice(), 10, 4);
            assert_eq!(a, b, "query {probe}");
        }
    }

    /// A reload serves the codebook the index was saved with, not one
    /// retrained from the rows it holds: compressed answers are
    /// bit-identical at every rerank factor.
    #[test]
    fn pq_index_round_trips_and_serves_compressed_search() {
        let index = build_pq_index(60);
        let restored = reload(&save(&index)).expect("round trip");
        assert!(restored.has_pq(), "PQ mode must survive the snapshot");
        assert_eq!(
            restored.pq_quantizer(),
            index.pq_quantizer(),
            "the reloaded codebook must be the saved one"
        );
        for i in 0..60u32 {
            let q = index.features(ImageId(i)).unwrap();
            let q = q.as_slice();
            assert_eq!(index.search(q, 5, 4), restored.search(q, 5, 4));
            for rerank_factor in [1, 4] {
                assert_eq!(
                    index.search_compressed(q, 5, 4, rerank_factor),
                    restored.search_compressed(q, 5, 4, rerank_factor),
                    "query {i} at rerank_factor {rerank_factor}"
                );
            }
            let hits = restored.search_compressed(q, 1, 4, 8);
            assert_eq!(hits[0].id, u64::from(i));
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = reload(b"NOPE....").unwrap_err();
        assert_eq!(err, PersistError::BadMagic);
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let index = build_index(3);
        let mut bytes = save(&index);
        // Newer than this build, and older than "current + one previous".
        for version in [99u32, 3, 4] {
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                reload(&bytes).unwrap_err(),
                PersistError::UnsupportedVersion(version)
            );
        }
        // A version 5 PQ snapshot has no codebook to serve with.
        let pq = save(&build_pq_index(10));
        let v5 = as_v5(
            pq[..CODEBOOK_AT]
                .iter()
                .chain(&pq[CODEBOOK_AT + CODEBOOK_LEN..]),
        );
        assert_eq!(
            reload(&v5).unwrap_err(),
            PersistError::UnsupportedVersion(5)
        );
    }

    #[test]
    fn truncation_is_detected_everywhere() {
        let index = build_index(5);
        let bytes = save(&index);
        // Every strict prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            let result = reload(&bytes[..cut]);
            assert!(result.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(PersistError::BadMagic.to_string().contains("magic"));
        assert!(PersistError::Truncated { field: "x" }
            .to_string()
            .contains('x'));
        assert!(PersistError::UnsupportedVersion(9)
            .to_string()
            .contains('9'));
        let mismatch = PersistError::ChecksumMismatch {
            expected: 0xDEAD_BEEF,
            actual: 0x0BAD_F00D,
        };
        assert!(mismatch.to_string().contains("0xdeadbeef"));
        assert!(mismatch.to_string().contains("0x0badf00d"));
    }

    /// Bytes before the centroid table: magic, version and the fixed-width
    /// config fields.
    const HEADER_LEN: usize = 4 + 4 + 4 + 4 + 4 + 4 + 1 + 4 + 8 + 4 + 8 + 1 + 4 + 4 + 8;
    /// Where the codebook of a [`build_pq_index`] snapshot starts (after
    /// its 4 centroids), and its length.
    const CODEBOOK_AT: usize = HEADER_LEN + 4 + 4 * DIM * 4;
    const CODEBOOK_LEN: usize = 16 * DIM * 4;

    /// `bytes` with the version of a v6 snapshot rewritten to 5: the v5
    /// layout is v6 without the codebook section.
    fn as_v5<'a>(bytes: impl IntoIterator<Item = &'a u8>) -> Vec<u8> {
        let mut bytes: Vec<u8> = bytes.into_iter().copied().collect();
        bytes[4..8].copy_from_slice(&5u32.to_le_bytes());
        reseal(bytes)
    }

    /// Recomputes the CRC trailer of an edited snapshot.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        let len = bytes.len();
        let crc = crc32c(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// A checksum proves the bytes are the ones written, not that a valid
    /// index wrote them: edited fields under a re-sealed trailer must come
    /// back as errors, never as a panic in decoding or allocation.
    #[test]
    fn crafted_snapshots_with_a_valid_crc_are_errors_not_panics() {
        let index = build_index(10);
        let bytes = save(&index);
        // Header offsets: magic, version, dim, then the config fields in
        // `save` order.
        const NUM_LISTS: usize = 12;
        const NPROBE: usize = 20;
        const PQ_SUBSPACES: usize = 37;
        const PQ_BITS: usize = 49;
        const RERANK_FACTOR: usize = 50;
        let n_images = HEADER_LEN + 4 + index.quantizer().k() * DIM * 4;
        assert_eq!(bytes[8..12], (DIM as u32).to_le_bytes());
        assert_eq!(bytes[PQ_BITS], index.config().pq_bits);
        assert_eq!(bytes[n_images..n_images + 8], 10u64.to_le_bytes());
        let cases: [(&str, usize, &[u8]); 7] = [
            ("num_lists 0", NUM_LISTS, &0u32.to_le_bytes()),
            ("nprobe 0", NPROBE, &0u32.to_le_bytes()),
            ("rerank_factor 0", RERANK_FACTOR, &0u32.to_le_bytes()),
            ("pq_subspaces 3 at dim 8", PQ_SUBSPACES, &3u32.to_le_bytes()),
            ("pq_bits 3", PQ_BITS, &[3]),
            ("pq_bits 8", PQ_BITS, &[8]),
            ("huge n_images", n_images, &(u64::MAX / 2).to_le_bytes()),
        ];
        for (case, at, patch) in cases {
            let mut crafted = bytes.clone();
            crafted[at..at + patch.len()].copy_from_slice(patch);
            match reload(&reseal(crafted)) {
                Err(PersistError::Corrupt { .. }) => {}
                other => panic!("{case}: expected Corrupt, got {other:?}"),
            }
        }

        // The codebook section of a PQ snapshot.
        let pq = save(&build_pq_index(10));
        assert_eq!(
            pq[CODEBOOK_AT + CODEBOOK_LEN..CODEBOOK_AT + CODEBOOK_LEN + 8],
            10u64.to_le_bytes()
        );
        let mut nan_word = pq.clone();
        nan_word[CODEBOOK_AT + 4..CODEBOOK_AT + 8].copy_from_slice(&f32::NAN.to_le_bytes());
        match reload(&reseal(nan_word)) {
            Err(PersistError::Corrupt { .. }) => {}
            other => panic!("NaN codeword: expected Corrupt, got {other:?}"),
        }
        for cut in [4, CODEBOOK_LEN / 2, CODEBOOK_LEN] {
            let mut short = pq.clone();
            short.drain(CODEBOOK_AT + CODEBOOK_LEN - cut..CODEBOOK_AT + CODEBOOK_LEN);
            assert!(
                reload(&reseal(short)).is_err(),
                "a codebook {cut} bytes short must not decode"
            );
        }
    }

    #[test]
    fn v5_raw_snapshots_still_load() {
        let index = build_index(20);
        let loaded = reload(&as_v5(&save(&index))).expect("raw v5 must stay loadable");
        assert_eq!(loaded.config(), index.config());
        assert_eq!(loaded.num_images(), index.num_images());
        assert_eq!(loaded.valid_images(), index.valid_images());
        for raw in 0..20u32 {
            let id = ImageId(raw);
            assert_eq!(
                loaded.attributes(id).unwrap(),
                index.attributes(id).unwrap()
            );
            let q = index.features(id).unwrap();
            assert_eq!(
                loaded.search(q.as_slice(), 5, 4),
                index.search(q.as_slice(), 5, 4)
            );
        }
    }

    #[test]
    fn coarse_graph_is_rebuilt_on_load() {
        let mut rng = Xoshiro256::seed_from(55);
        let train: Vec<Vector> = (0..256)
            .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let index = VisualIndex::bootstrap(
            IndexConfig {
                dim: DIM,
                num_lists: 32,
                nprobe: 4,
                coarse_beam_width: 8,
                coarse_balance_factor: 2.5,
                ..Default::default()
            },
            &train,
        );
        for (i, v) in train.iter().take(120).enumerate() {
            index
                .insert(
                    v.clone(),
                    ProductAttributes::new(ProductId(i as u64), 0, 0, 0, format!("u{i}")),
                )
                .unwrap();
        }
        index.flush();
        let loaded = reload(&save(&index)).expect("round trip");
        // The knobs persist and the graph (derived data, absent from the
        // snapshot bytes) is rebuilt deterministically on load.
        assert_eq!(loaded.config().coarse_beam_width, 8);
        assert_eq!(loaded.config().coarse_balance_factor, 2.5);
        assert_eq!(
            loaded.quantizer().coarse_graph(),
            index.quantizer().coarse_graph(),
            "rebuilt graph must equal the original bit for bit"
        );
        // Graph-assigned probing reproduces the original's searches exactly.
        for i in (0..120u32).step_by(17) {
            let q = index.features(ImageId(i)).unwrap();
            assert_eq!(
                index.search(q.as_slice(), 5, 4),
                loaded.search(q.as_slice(), 5, 4)
            );
        }
    }

    #[test]
    fn listing_attributes_round_trip_and_serve_filtered_search() {
        let index = build_index(60);
        let loaded = reload(&save(&index)).expect("load");
        for raw in 0..60u32 {
            let id = ImageId(raw);
            let a = loaded.attributes(id).unwrap();
            let b = index.attributes(id).unwrap();
            assert_eq!(a.category, b.category);
            assert_eq!(a.in_stock, b.in_stock);
        }
        // The rebuilt filter bitmaps serve filtered searches identically.
        let spec = crate::filter::FilterSpec::by_category(1).in_stock();
        for probe in 0..5u32 {
            let q = index.features(ImageId(probe * 7)).unwrap();
            assert_eq!(
                index.search_filtered(q.as_slice(), 5, 4, &spec),
                loaded.search_filtered(q.as_slice(), 5, 4, &spec),
            );
        }
    }

    #[test]
    fn four_bit_pq_config_round_trips() {
        let mut rng = Xoshiro256::seed_from(99);
        let train: Vec<Vector> = (0..128)
            .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let index = VisualIndex::bootstrap(
            IndexConfig {
                dim: DIM,
                num_lists: 4,
                pq_subspaces: Some(8),
                rerank_factor: 6,
                ..Default::default()
            },
            &train,
        );
        for (i, v) in train.iter().take(60).enumerate() {
            index
                .insert(
                    v.clone(),
                    ProductAttributes::new(ProductId(i as u64), 0, 0, 0, format!("u{i}")),
                )
                .unwrap();
        }
        index.flush();
        let restored = reload(&save(&index)).expect("round trip");
        assert_eq!(restored.config().pq_bits, 4);
        assert_eq!(restored.config().rerank_factor, 6);
        // The stored 4-bit codebook serves fast-scan searches.
        for i in (0..60u32).step_by(13) {
            let q = index.features(ImageId(i)).unwrap();
            let hits = restored.search_compressed(q.as_slice(), 1, 4, 8);
            assert_eq!(hits[0].id, u64::from(i));
        }
    }

    #[test]
    fn payload_bit_flip_fails_with_checksum_mismatch() {
        let index = build_index(10);
        let bytes = save(&index);
        // Any flip strictly inside the payload (past magic + version, before
        // the trailer) must surface as a checksum mismatch: the CRC runs
        // before field decoding.
        for pos in [8usize, 9, 40, bytes.len() / 2, bytes.len() - 5] {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0x10;
            match reload(&corrupted) {
                Err(PersistError::ChecksumMismatch { .. }) => {}
                other => panic!("flip at {pos}: expected checksum mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn fuzzed_mutations_never_decode_garbage() {
        let index = build_index(30);
        let bytes = save(&index);
        let mut rng = Xoshiro256::seed_from(0xF022);
        for round in 0..300 {
            let mut mutated = bytes.clone();
            match rng.next_u64() % 3 {
                0 => {
                    // Single bit flip anywhere.
                    let pos = (rng.next_u64() as usize) % mutated.len();
                    let bit = rng.next_u64() % 8;
                    mutated[pos] ^= 1 << bit;
                }
                1 => {
                    // Truncation to a random strict prefix.
                    let cut = (rng.next_u64() as usize) % mutated.len();
                    mutated.truncate(cut);
                }
                _ => {
                    // Overwrite a random run with random bytes.
                    let start = (rng.next_u64() as usize) % mutated.len();
                    let len = 1 + (rng.next_u64() as usize) % 16;
                    for b in mutated.iter_mut().skip(start).take(len) {
                        *b = rng.next_u64() as u8;
                    }
                }
            }
            if mutated == bytes {
                continue; // overwrite happened to reproduce the original
            }
            // Must error (never panic, never silently decode a different
            // index). The specific error kind depends on where the damage
            // landed; what matters is that nothing corrupt decodes.
            assert!(
                reload(&mutated).is_err(),
                "round {round}: mutated snapshot must not decode"
            );
        }
    }
}
