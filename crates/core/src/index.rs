//! The composed per-partition visual index.
//!
//! [`VisualIndex`] wires together every structure of Section 2 for one
//! index partition: the k-means coarse quantizer, the forward index and its
//! variable-length buffer, the feature-vector store, the validity bitmap,
//! the inverted lists, and the URL→id map that lets update/delete messages
//! (which carry URLs) find their records.
//!
//! Concurrency contract, matching the paper's deployment:
//!
//! - **one writer per partition** — the owning searcher applies catalog
//!   events serially;
//! - **any number of readers** — searches run concurrently with the writer
//!   and never block it (or each other).

use std::sync::Arc;

use jdvs_storage::model::{ImageKey, ProductAttributes};
use jdvs_storage::KvStore;
use jdvs_vector::kmeans::{Kmeans, KmeansConfig};
use jdvs_vector::pq::{PqConfig, ProductQuantizer};
use jdvs_vector::topk::Neighbor;
use jdvs_vector::Vector;

use crate::bitmap::AtomicBitmap;
use crate::config::IndexConfig;
use crate::error::IndexError;
use crate::filter::{FilterIndex, FilterSpec};
use crate::forward::ForwardIndex;
use crate::ids::{ImageId, ListId};
use crate::inverted::InvertedIndex;
use crate::pq_store::PqStore;
use crate::search::{self, SearchPlan};
use crate::stats::IndexStats;
use crate::vectors::VectorStore;

/// Result of an upsert: what the index actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpsertOutcome {
    /// A brand-new image was inserted under this id.
    Inserted(ImageId),
    /// The image was already indexed; its validity bit was set and its
    /// attributes refreshed (the paper's reuse path).
    Revalidated(ImageId),
}

impl UpsertOutcome {
    /// The image id in either case.
    pub fn id(self) -> ImageId {
        match self {
            UpsertOutcome::Inserted(id) | UpsertOutcome::Revalidated(id) => id,
        }
    }

    /// Returns `true` for the reuse path.
    pub fn reused(self) -> bool {
        matches!(self, UpsertOutcome::Revalidated(_))
    }
}

/// One partition's visual index; see the module docs.
#[derive(Debug)]
pub struct VisualIndex {
    config: IndexConfig,
    quantizer: Kmeans,
    forward: ForwardIndex,
    vectors: VectorStore,
    bitmap: AtomicBitmap,
    inverted: InvertedIndex,
    key_map: KvStore<ImageKey, ImageId>,
    stats: IndexStats,
    /// Compressed-code companion store (config.pq_subspaces).
    pq: Option<PqStore>,
    /// Per-attribute filter bitmaps (category, in-stock), maintained by
    /// every insert and re-listing for search-time pushdown.
    filters: FilterIndex,
}

/// Trains the quantizers an index of `config` serves with on `training`:
/// the coarse k-means (`num_lists` clamped to the sample size, with its
/// centroid graph when `coarse_beam_width` is positive) and the PQ codebook
/// when `pq_subspaces` is set. The one place quantizers are trained; a
/// snapshot load serves the ones it carries.
///
/// # Panics
///
/// Panics if `config` is invalid or `training` is empty / of the wrong
/// dimension.
pub fn train_quantizers(
    config: &IndexConfig,
    training: &[Vector],
) -> (Kmeans, Option<Arc<ProductQuantizer>>) {
    config.validate();
    assert!(
        !training.is_empty(),
        "quantizer training sample cannot be empty"
    );
    for t in training {
        assert_eq!(
            t.dim(),
            config.dim,
            "training vectors must match config.dim"
        );
    }
    let quantizer = Kmeans::train(
        training,
        &KmeansConfig {
            k: config.num_lists,
            max_iters: config.kmeans_iters,
            tolerance: 1e-4,
            seed: config.seed,
            balance_factor: config.coarse_balance_factor,
        },
    );
    let quantizer = match config.coarse_beam_width {
        0 => quantizer,
        beam => quantizer.with_coarse_graph(beam),
    };
    let pq = config.pq_subspaces.map(|m| {
        Arc::new(ProductQuantizer::train(
            training,
            &PqConfig {
                num_subspaces: m,
                max_iters: config.kmeans_iters,
                seed: config.seed ^ 0x90DE,
            },
        ))
    });
    (quantizer, pq)
}

impl VisualIndex {
    /// Builds an index around quantizers trained on `training` by
    /// [`train_quantizers`].
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid or `training` is empty / of the wrong
    /// dimension.
    pub fn bootstrap(config: IndexConfig, training: &[Vector]) -> Self {
        let (quantizer, pq) = train_quantizers(&config, training);
        Self::with_quantizers(config, quantizer, pq)
    }

    /// Builds an index around pre-trained coarse and (optionally) product
    /// quantizers.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid, any quantizer dimension mismatches,
    /// or the PQ codebook's presence/shape disagrees with
    /// `config.pq_subspaces`.
    pub fn with_quantizers(
        config: IndexConfig,
        quantizer: Kmeans,
        pq_quantizer: Option<Arc<ProductQuantizer>>,
    ) -> Self {
        config.validate();
        assert_eq!(
            quantizer.dim(),
            config.dim,
            "quantizer dimension must match config.dim"
        );
        // The config is authoritative for the hierarchical coarse index: the
        // centroid graph is derived data, rebuilt deterministically from the
        // centroid table whenever absent (e.g. a quantizer deserialized from
        // a snapshot), re-targeted when the beam knob changed, and dropped
        // when disabled. A quantizer cloned from a sibling partition carries
        // its graph along, so splits/replicas skip the rebuild.
        let quantizer = if config.coarse_beam_width > 0 {
            quantizer.with_coarse_graph(config.coarse_beam_width)
        } else {
            quantizer.without_coarse_graph()
        };
        match (config.pq_subspaces, &pq_quantizer) {
            (None, None) => {}
            (Some(m), Some(pq)) => {
                assert_eq!(pq.dim(), config.dim, "pq dimension must match config.dim");
                assert_eq!(pq.num_subspaces(), m, "pq subspaces must match config");
            }
            (Some(_), None) => panic!("config.pq_subspaces set but no codebook supplied"),
            (None, Some(_)) => panic!("codebook supplied but config.pq_subspaces unset"),
        }
        let num_lists = quantizer.k();
        let inverted = InvertedIndex::new(
            num_lists,
            config.initial_list_capacity,
            config.background_expansion,
        );
        Self {
            config,
            quantizer,
            forward: ForwardIndex::new(),
            vectors: VectorStore::new(),
            bitmap: AtomicBitmap::new(),
            inverted,
            key_map: KvStore::new(),
            stats: IndexStats::new(),
            pq: pq_quantizer.map(|q| PqStore::new(q, num_lists)),
            filters: FilterIndex::new(),
        }
    }

    /// Whether the compressed (PQ) scan mode is enabled.
    pub fn has_pq(&self) -> bool {
        self.pq.is_some()
    }

    /// The index configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// The coarse quantizer.
    pub fn quantizer(&self) -> &Kmeans {
        &self.quantizer
    }

    /// The shared PQ codebook, when compressed mode is enabled — for
    /// constructing sibling indexes with identical quantizers.
    pub fn pq_quantizer(&self) -> Option<Arc<ProductQuantizer>> {
        self.pq.as_ref().map(|s| s.quantizer_arc())
    }

    /// Operation statistics.
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// Inverted-index internals (aux positions, expansion counts).
    pub fn inverted(&self) -> &InvertedIndex {
        &self.inverted
    }

    /// Total images ever inserted (including logically deleted ones).
    pub fn num_images(&self) -> usize {
        self.forward.len()
    }

    /// Images currently valid (searchable).
    pub fn valid_images(&self) -> usize {
        self.bitmap.count_ones()
    }

    /// Looks up the id previously assigned to an image URL hash.
    pub fn lookup(&self, key: ImageKey) -> Option<ImageId> {
        self.key_map.get(&key)
    }

    /// Whether `id` is currently valid.
    pub fn is_valid(&self, id: ImageId) -> bool {
        self.bitmap.test(id.as_usize())
    }

    /// Reads the attributes of `id` from the forward index.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::UnknownImage`] for out-of-range ids.
    pub fn attributes(&self, id: ImageId) -> Result<ProductAttributes, IndexError> {
        self.forward.attributes(id)
    }

    /// Reads the feature vector of `id`.
    pub fn features(&self, id: ImageId) -> Option<Vector> {
        self.vectors.get(id)
    }

    /// Inserts a brand-new image (Figure 8): appends the forward record
    /// (fixed fields + URL into the buffer), stores the vector, assigns the
    /// nearest-centroid inverted list and appends the id to its tail, sets
    /// the validity bit, and registers the URL mapping.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::DimensionMismatch`] for wrong-dimension
    /// features, or forwards forward-index errors.
    pub fn insert(
        &self,
        features: Vector,
        attrs: ProductAttributes,
    ) -> Result<ImageId, IndexError> {
        if features.dim() != self.config.dim {
            return Err(IndexError::DimensionMismatch {
                expected: self.config.dim,
                actual: features.dim(),
            });
        }
        let key = attrs.image_key();
        let list = ListId(self.quantizer.assign(features.as_slice()) as u32);
        let id = self.forward.append(&attrs)?;
        // The list position is the PQ code's storage key, so the inverted
        // append happens first; the id stays invisible to searches (and the
        // code tile's lane stays masked) until the bitmap bit below — which
        // is Release-ordered after both — flips on.
        let pos = self.inverted.append(list, id);
        if let Some(pq) = &self.pq {
            pq.put(id, list, pos, &features);
        }
        self.vectors.put(id, features);
        // Filter bits land before the validity bit so a filtered search
        // that sees the image also sees its category / stock membership.
        self.filters
            .note_listing(id, attrs.category, attrs.in_stock, None);
        self.bitmap.set(id.as_usize());
        self.key_map.put(key, id);
        self.stats.inserts.incr();
        Ok(id)
    }

    /// Inserts if the URL is new; revalidates (bitmap set + attribute
    /// refresh) if the image is already indexed — the paper's reuse path,
    /// where `features` need not be recomputed. `features` is only
    /// consulted on the insert path, so callers pass a closure and skip
    /// extraction entirely on reuse.
    ///
    /// # Errors
    ///
    /// Forwards [`VisualIndex::insert`] errors.
    pub fn upsert(
        &self,
        attrs: ProductAttributes,
        features: impl FnOnce() -> Option<Vector>,
    ) -> Result<UpsertOutcome, IndexError> {
        let key = attrs.image_key();
        if let Some(id) = self.key_map.get(&key) {
            // Reuse: no extraction, no index append — flip the bit back on
            // and refresh the attributes in place.
            let prev_category = self.forward.numeric(id).map(|n| n.category).ok();
            self.forward.update_numeric(
                id,
                Some(attrs.sales),
                Some(attrs.price),
                Some(attrs.praise),
            )?;
            self.forward
                .update_listing(id, attrs.category, attrs.in_stock)?;
            self.filters
                .note_listing(id, attrs.category, attrs.in_stock, prev_category);
            self.bitmap.set(id.as_usize());
            self.stats.reuses.incr();
            return Ok(UpsertOutcome::Revalidated(id));
        }
        let features = features().ok_or_else(|| IndexError::UnknownUrl(attrs.url.clone()))?;
        let id = self.insert(features, attrs)?;
        Ok(UpsertOutcome::Inserted(id))
    }

    /// Logically deletes an image by URL hash: one bitmap bit flips 1→0
    /// (Section 2.3 Deletion).
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::UnknownUrl`] if the URL was never indexed.
    pub fn invalidate(&self, key: ImageKey, url: &str) -> Result<ImageId, IndexError> {
        let id = self
            .key_map
            .get(&key)
            .ok_or_else(|| IndexError::UnknownUrl(url.to_string()))?;
        self.bitmap.clear(id.as_usize());
        self.stats.deletions.incr();
        Ok(id)
    }

    /// Updates numeric attributes of the image behind `key` (Figure 7).
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::UnknownUrl`] if the URL was never indexed.
    pub fn update_numeric(
        &self,
        key: ImageKey,
        url: &str,
        sales: Option<u64>,
        price: Option<u64>,
        praise: Option<u64>,
    ) -> Result<ImageId, IndexError> {
        let id = self
            .key_map
            .get(&key)
            .ok_or_else(|| IndexError::UnknownUrl(url.to_string()))?;
        self.forward.update_numeric(id, sales, price, praise)?;
        self.stats.updates.incr();
        Ok(id)
    }

    /// Completes in-flight inverted-list expansions (call when the event
    /// stream idles so migration-window inserts become searchable).
    pub fn flush(&self) {
        self.inverted.flush();
    }

    /// Runs one query plan — the one engine entry point; see
    /// [`search::execute`].
    ///
    /// # Panics
    ///
    /// Panics if the plan has a zero count or the wrong dimension, or is
    /// compressed while PQ mode is disabled.
    pub fn execute(&self, plan: &SearchPlan<'_>) -> Vec<Neighbor> {
        self.stats.searches.incr();
        search::execute(self, plan)
    }

    /// ANN search: probes the `nprobe` nearest inverted lists and returns
    /// the `k` nearest *valid* images (Section 2.4).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `nprobe == 0`, or the query dimension is wrong.
    pub fn search(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<Neighbor> {
        self.execute(&SearchPlan::new(query, k, nprobe))
    }

    /// Two-stage compressed search (PQ mode): scans **PQ codes**,
    /// shortlists `k * rerank_factor` candidates, then re-ranks the
    /// shortlist with raw vectors (see [`search::Stage::Compressed`]; the
    /// `ablate-pq` experiment quantifies the recall cost).
    ///
    /// # Panics
    ///
    /// Panics if PQ mode is disabled, `k == 0`, `nprobe == 0`,
    /// `rerank_factor == 0`, or the query dimension is wrong.
    pub fn search_compressed(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        rerank_factor: usize,
    ) -> Vec<Neighbor> {
        self.execute(&SearchPlan::new(query, k, nprobe).compressed(rerank_factor))
    }

    /// Attribute-filtered ANN search: like [`VisualIndex::search`], but only
    /// images admitted by `filter` are returned. The constraints are pushed
    /// down into the block scan, and when the filtered scan cannot fill `k`
    /// results, probing widens up to
    /// [`crate::config::IndexConfig::nprobe_escalation`] lists. Results are
    /// bit-identical to scoring every valid candidate and post-filtering.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `nprobe == 0`, or the query dimension is wrong.
    pub fn search_filtered(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        filter: &FilterSpec,
    ) -> Vec<Neighbor> {
        self.execute(&SearchPlan::new(query, k, nprobe).filtered(filter))
    }

    /// Attribute-filtered two-stage compressed search:
    /// [`VisualIndex::search_compressed`] with the pushdown and escalation
    /// of [`VisualIndex::search_filtered`].
    ///
    /// # Panics
    ///
    /// Panics if PQ mode is disabled, `k == 0`, `nprobe == 0`,
    /// `rerank_factor == 0`, or the query dimension is wrong.
    pub fn search_compressed_filtered(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        rerank_factor: usize,
        filter: &FilterSpec,
    ) -> Vec<Neighbor> {
        let plan = SearchPlan::new(query, k, nprobe).compressed(rerank_factor);
        self.execute(&plan.filtered(filter))
    }

    /// Exhaustive exact search over all valid images (ground truth for
    /// recall measurement; not a serving path).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the query dimension is wrong.
    pub fn brute_force_search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        search::brute_force(self, query, k)
    }

    /// The per-attribute filter bitmaps (category / in-stock membership).
    pub fn filters(&self) -> &FilterIndex {
        &self.filters
    }

    pub(crate) fn bitmap(&self) -> &AtomicBitmap {
        &self.bitmap
    }

    /// The raw feature-vector store (borrowing reads, for evaluation code
    /// that must not pay [`VisualIndex::features`]' clone per candidate).
    pub fn vectors(&self) -> &VectorStore {
        &self.vectors
    }

    pub(crate) fn inverted_internal(&self) -> &InvertedIndex {
        &self.inverted
    }

    pub(crate) fn forward(&self) -> &ForwardIndex {
        &self.forward
    }

    pub(crate) fn pq_store(&self) -> Option<&PqStore> {
        self.pq.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jdvs_storage::model::ProductId;
    use jdvs_vector::rng::Xoshiro256;

    fn training(n: usize, dim: usize, seed: u64) -> Vec<Vector> {
        let mut rng = Xoshiro256::seed_from(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.next_gaussian() as f32).collect())
            .collect()
    }

    fn attrs(product: u64, url: &str) -> ProductAttributes {
        ProductAttributes::new(ProductId(product), 10, 999, 5, url.to_string())
    }

    fn small_index() -> VisualIndex {
        let config = IndexConfig {
            dim: 8,
            num_lists: 4,
            initial_list_capacity: 4,
            nprobe: 4,
            ..Default::default()
        };
        VisualIndex::bootstrap(config, &training(64, 8, 1))
    }

    fn vec_of(seed: u64) -> Vector {
        let mut rng = Xoshiro256::seed_from(seed);
        (0..8).map(|_| rng.next_gaussian() as f32).collect()
    }

    #[test]
    fn insert_then_search_finds_it() {
        let index = small_index();
        let v = vec_of(42);
        let id = index.insert(v.clone(), attrs(1, "u1")).unwrap();
        let hits = index.search(v.as_slice(), 1, 4);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, id.as_u64());
        assert!(hits[0].distance < 1e-6);
        assert_eq!(index.num_images(), 1);
        assert_eq!(index.valid_images(), 1);
    }

    #[test]
    fn wrong_dimension_is_rejected() {
        let index = small_index();
        let err = index
            .insert(Vector::from(vec![1.0; 4]), attrs(1, "u1"))
            .unwrap_err();
        assert_eq!(
            err,
            IndexError::DimensionMismatch {
                expected: 8,
                actual: 4
            }
        );
    }

    #[test]
    fn invalidate_hides_from_search() {
        let index = small_index();
        let v = vec_of(7);
        let a = attrs(1, "u1");
        let key = a.image_key();
        index.insert(v.clone(), a).unwrap();
        assert_eq!(index.search(v.as_slice(), 1, 4).len(), 1);
        index.invalidate(key, "u1").unwrap();
        assert!(index.search(v.as_slice(), 1, 4).is_empty());
        assert_eq!(index.valid_images(), 0);
        assert_eq!(index.num_images(), 1, "forward index keeps the record");
    }

    #[test]
    fn upsert_new_then_reuse() {
        let index = small_index();
        let v = vec_of(9);
        let a = attrs(1, "u1");
        let key = a.image_key();
        let first = index.upsert(a.clone(), || Some(v.clone())).unwrap();
        assert!(matches!(first, UpsertOutcome::Inserted(_)));
        assert!(!first.reused());
        index.invalidate(key, "u1").unwrap();
        // Relist with updated attributes; closure must not be called.
        let relist = ProductAttributes::new(ProductId(1), 999, 777, 1, "u1".into());
        let second = index
            .upsert(relist, || {
                panic!("features must not be recomputed on reuse")
            })
            .unwrap();
        assert!(second.reused());
        assert_eq!(second.id(), first.id());
        assert!(index.is_valid(first.id()));
        let got = index.attributes(first.id()).unwrap();
        assert_eq!(got.sales, 999);
        assert_eq!(got.price, 777);
        assert_eq!(index.stats().reuses.get(), 1);
        assert_eq!(index.stats().inserts.get(), 1);
    }

    #[test]
    fn upsert_without_features_for_new_image_errors() {
        let index = small_index();
        let err = index.upsert(attrs(1, "new"), || None).unwrap_err();
        assert!(matches!(err, IndexError::UnknownUrl(_)));
    }

    #[test]
    fn update_numeric_by_key() {
        let index = small_index();
        let a = attrs(1, "u1");
        let key = a.image_key();
        let id = index.insert(vec_of(3), a).unwrap();
        index
            .update_numeric(key, "u1", Some(1_000), None, Some(42))
            .unwrap();
        let got = index.attributes(id).unwrap();
        assert_eq!(got.sales, 1_000);
        assert_eq!(got.price, 999, "unspecified unchanged");
        assert_eq!(got.praise, 42);
        assert_eq!(index.stats().updates.get(), 1);
    }

    #[test]
    fn update_unknown_url_errors() {
        let index = small_index();
        let err = index
            .update_numeric(ImageKey::from_url("nope"), "nope", Some(1), None, None)
            .unwrap_err();
        assert_eq!(err, IndexError::UnknownUrl("nope".into()));
        let err = index
            .invalidate(ImageKey::from_url("nope"), "nope")
            .unwrap_err();
        assert_eq!(err, IndexError::UnknownUrl("nope".into()));
    }

    #[test]
    fn search_matches_brute_force_with_full_probing() {
        let index = small_index();
        let mut rng = Xoshiro256::seed_from(11);
        for i in 0..200u64 {
            let v: Vector = (0..8).map(|_| rng.next_gaussian() as f32).collect();
            index.insert(v, attrs(i, &format!("u{i}"))).unwrap();
        }
        index.flush();
        let q = vec_of(99);
        // Probing every list makes IVF exact.
        let ann = index.search(q.as_slice(), 10, 4);
        let exact = index.brute_force_search(q.as_slice(), 10);
        assert_eq!(
            ann.iter().map(|n| n.id).collect::<Vec<_>>(),
            exact.iter().map(|n| n.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn lookup_maps_urls_to_ids() {
        let index = small_index();
        let a = attrs(5, "u5");
        let key = a.image_key();
        let id = index.insert(vec_of(5), a).unwrap();
        assert_eq!(index.lookup(key), Some(id));
        assert_eq!(index.lookup(ImageKey::from_url("other")), None);
    }

    #[test]
    fn compressed_search_finds_exact_match_after_rerank() {
        let config = IndexConfig {
            dim: 8,
            num_lists: 4,
            nprobe: 4,
            pq_subspaces: Some(4),
            ..Default::default()
        };
        let index = VisualIndex::bootstrap(config, &training(256, 8, 21));
        assert!(index.has_pq());
        let mut rng = Xoshiro256::seed_from(33);
        let mut vectors = Vec::new();
        for i in 0..200u64 {
            let v: Vector = (0..8).map(|_| rng.next_gaussian() as f32).collect();
            index.insert(v.clone(), attrs(i, &format!("u{i}"))).unwrap();
            vectors.push(v);
        }
        index.flush();
        for (i, v) in vectors.iter().enumerate().step_by(23) {
            let hits = index.search_compressed(v.as_slice(), 1, 4, 8);
            assert_eq!(hits[0].id, i as u64, "rerank must surface the exact match");
            assert!(hits[0].distance < 1e-6);
        }
    }

    #[test]
    fn compressed_recall_is_high_with_rerank() {
        let config = IndexConfig {
            dim: 16,
            num_lists: 8,
            nprobe: 8,
            // 4 bytes per code: 8 nibbles.
            pq_subspaces: Some(8),
            ..Default::default()
        };
        let train = training(512, 16, 5);
        let index = VisualIndex::bootstrap(config, &train);
        for (i, v) in train.iter().enumerate() {
            index
                .insert(v.clone(), attrs(i as u64, &format!("u{i}")))
                .unwrap();
        }
        index.flush();
        let mut total = 0.0;
        for v in train.iter().step_by(37) {
            let compressed = index.search_compressed(v.as_slice(), 10, 8, 4);
            let exact = index.brute_force_search(v.as_slice(), 10);
            total += crate::search::recall(&compressed, &exact);
        }
        let queries = train.iter().step_by(37).count() as f64;
        assert!(
            total / queries > 0.8,
            "rerank recall too low: {}",
            total / queries
        );
    }

    #[test]
    fn compressed_search_skips_deleted_images() {
        let config = IndexConfig {
            dim: 8,
            num_lists: 2,
            nprobe: 2,
            pq_subspaces: Some(2),
            ..Default::default()
        };
        let index = VisualIndex::bootstrap(config, &training(64, 8, 9));
        let v = vec_of(77);
        let a = attrs(1, "u1");
        let key = a.image_key();
        index.insert(v.clone(), a).unwrap();
        index.flush();
        assert_eq!(index.search_compressed(v.as_slice(), 1, 2, 2).len(), 1);
        index.invalidate(key, "u1").unwrap();
        assert!(index.search_compressed(v.as_slice(), 1, 2, 2).is_empty());
    }

    #[test]
    #[should_panic(expected = "compressed search requires config.pq_subspaces")]
    fn compressed_search_without_pq_panics() {
        let index = small_index();
        index.search_compressed(&[0.0; 8], 1, 1, 1);
    }

    #[test]
    #[should_panic(expected = "config.pq_subspaces set but no codebook supplied")]
    fn with_quantizers_rejects_pq_config_without_a_codebook() {
        let config = IndexConfig {
            dim: 8,
            pq_subspaces: Some(4),
            ..Default::default()
        };
        let q = Kmeans::from_centroids(vec![Vector::zeros(8)]);
        VisualIndex::with_quantizers(config, q, None);
    }

    #[test]
    fn stats_track_operations() {
        let index = small_index();
        let a = attrs(1, "u1");
        let key = a.image_key();
        index.insert(vec_of(1), a).unwrap();
        index
            .update_numeric(key, "u1", Some(1), None, None)
            .unwrap();
        index.invalidate(key, "u1").unwrap();
        index.search(vec_of(1).as_slice(), 1, 1);
        let s = index.stats();
        assert_eq!(s.inserts.get(), 1);
        assert_eq!(s.updates.get(), 1);
        assert_eq!(s.deletions.get(), 1);
        assert_eq!(s.searches.get(), 1);
        assert_eq!(s.total_mutations(), 3);
    }
}
