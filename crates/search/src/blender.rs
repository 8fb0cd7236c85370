//! The blender service (top of Figure 10).
//!
//! *"When a blender receives an image query request, it extracts the
//! features and sends them to all the brokers. The blender also combines
//! and ranks the results and returns to the user."*
//!
//! [`BlenderService`] resolves the query's features (extracting from the
//! image store when handed a URL — the expensive step, charged to the cost
//! model), fans out to one instance of every broker group — scatter-gather
//! on the calling thread: a call is started on every group before any
//! reply is awaited, then the calls are finished in group order, so the
//! groups work concurrently, no thread is spawned per query, and the hits
//! reach the ranker in the same order whichever group answers first —
//! merges the group top-k lists, and applies the [`RankingPolicy`].
//!
//! Resilience: when the incoming [`SearchQuery`] carries a deadline
//! `budget`, the time spent resolving features is deducted before fan-out
//! and each broker-group call gets `min(broker_deadline, 0.9 × remaining)`,
//! running from that group's own start — the budget the user stamped
//! bounds the whole hierarchy. Broker groups
//! that fail, and brokers that answer for fewer partitions than their group
//! owns, are accounted (via [`BlenderService::with_group_partitions`]) into
//! the response's partition coverage, so a degraded result is never
//! silently incomplete.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jdvs_features::category::CategoryDetector;
use jdvs_features::CachingExtractor;
use jdvs_metrics::ResilienceMetrics;
use jdvs_net::balancer::Balancer;
use jdvs_net::rpc::{CallTarget, RpcError, Service};
use jdvs_storage::lru::LruCache;
use jdvs_storage::model::ImageKey;
use jdvs_storage::ImageStore;
use jdvs_vector::Vector;

use crate::protocol::{FanoutQuery, PartialResponse, QueryInput, SearchQuery, SearchResponse};
use crate::ranking::RankingPolicy;

/// Fraction of the remaining budget granted to the next hop; the held-back
/// margin pays for the merge, ranking, and the reply trip.
const BUDGET_MARGIN: f64 = 0.9;

/// One blender instance, generic over its calls to the broker groups:
/// [`jdvs_net::tcp::TcpChannel`]s when serving (see
/// [`crate::serving::NetBlender`]), or a test's fake.
pub struct BlenderService<B>
where
    B: CallTarget<Request = FanoutQuery, Response = PartialResponse>,
{
    /// One balancer per broker group (instances of a group are identical).
    broker_groups: Vec<Balancer<B>>,
    extractor: Arc<CachingExtractor>,
    images: Arc<ImageStore>,
    ranking: RankingPolicy,
    broker_deadline: Duration,
    /// Optional query-feature cache: repeated query images (viral photos,
    /// trending products) skip re-extraction — the most expensive step of
    /// the query path. Shared across blender instances when cloned in.
    query_cache: Option<Arc<LruCache<ImageKey, Vector>>>,
    /// Optional query-category detector (Section 2.4's "the product
    /// category of the item is identified").
    category_detector: Option<Arc<CategoryDetector>>,
    /// Partitions owned by each broker group, aligned with
    /// `broker_groups`. Lets the blender account partitions lost when a
    /// whole group call fails (the group can't report its own loss) or a
    /// broker's fan-out predates a split (it can't know what it misses).
    /// `None` = unknown; failed groups then only show in `groups_failed`.
    /// Shared and atomically updatable: an online partition split bumps
    /// the owning group's count so coverage accounting stays exact.
    group_partitions: Option<Arc<Vec<AtomicUsize>>>,
    /// Shared resilience counters, when attached.
    metrics: Option<Arc<ResilienceMetrics>>,
}

impl<B> std::fmt::Debug for BlenderService<B>
where
    B: CallTarget<Request = FanoutQuery, Response = PartialResponse>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlenderService")
            .field("broker_groups", &self.broker_groups.len())
            .finish()
    }
}

impl<B> BlenderService<B>
where
    B: CallTarget<Request = FanoutQuery, Response = PartialResponse>,
{
    /// Creates a blender over its broker-group balancers.
    ///
    /// # Panics
    ///
    /// Panics if `broker_groups` is empty.
    pub fn new(
        broker_groups: Vec<Balancer<B>>,
        extractor: Arc<CachingExtractor>,
        images: Arc<ImageStore>,
        ranking: RankingPolicy,
        broker_deadline: Duration,
    ) -> Self {
        assert!(
            !broker_groups.is_empty(),
            "a blender needs at least one broker group"
        );
        Self {
            broker_groups,
            extractor,
            images,
            ranking,
            broker_deadline,
            query_cache: None,
            category_detector: None,
            group_partitions: None,
            metrics: None,
        }
    }

    /// Declares how many partitions each broker group owns (aligned with
    /// the constructor's `broker_groups`), so partitions behind a
    /// completely-failed group call, or missing from a broker's answer,
    /// still land in the response's coverage accounting instead of
    /// vanishing.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the number of broker groups.
    pub fn with_group_partitions(self, counts: Vec<usize>) -> Self {
        self.with_shared_group_partitions(Arc::new(
            counts.into_iter().map(AtomicUsize::new).collect(),
        ))
    }

    /// Like [`BlenderService::with_group_partitions`], but over counters
    /// the caller keeps a handle to — a partition split bumps the owning
    /// group's counter and every blender sharing the `Arc` accounts for
    /// the new partition from then on.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the number of broker groups.
    pub fn with_shared_group_partitions(mut self, counts: Arc<Vec<AtomicUsize>>) -> Self {
        assert_eq!(
            counts.len(),
            self.broker_groups.len(),
            "one partition count per broker group"
        );
        self.group_partitions = Some(counts);
        self
    }

    /// Attaches shared resilience counters.
    pub fn with_metrics(mut self, metrics: Arc<ResilienceMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches a category detector; responses then carry the detected
    /// category of the query image.
    pub fn with_category_detector(mut self, detector: Arc<CategoryDetector>) -> Self {
        self.category_detector = Some(detector);
        self
    }

    /// Attaches a query-feature cache (typically shared across blenders).
    pub fn with_query_cache(mut self, cache: Arc<LruCache<ImageKey, Vector>>) -> Self {
        self.query_cache = Some(cache);
        self
    }

    /// Snapshot of the query cache's statistics, if one is attached.
    pub fn query_cache_stats(&self) -> Option<jdvs_storage::lru::LruStats> {
        self.query_cache.as_ref().map(|c| c.stats())
    }

    /// Resolves a query's features: pass-through for pre-extracted
    /// features; store-fetch + extraction (cost charged) for image URLs.
    /// Either way the features are copied once, into the buffer the
    /// fan-out sends: the cache shares the extracted vector.
    fn resolve_features(&self, input: &QueryInput) -> Option<Vec<f32>> {
        match input {
            QueryInput::Features(f) => Some(f.clone()),
            QueryInput::ImageUrl(url) => {
                let key = ImageKey::from_url(url);
                if let Some(hit) = self.query_cache.as_ref().and_then(|c| c.get(&key)) {
                    return Some(hit.into_inner());
                }
                let blob = self.images.get(key)?;
                self.extractor.cost().charge();
                let features = self.extractor.extractor().extract(&blob);
                if let Some(cache) = &self.query_cache {
                    cache.put(key, features.clone());
                }
                Some(features.into_inner())
            }
        }
    }

    /// Partitions owned by group `g`, when declared.
    fn partitions_of_group(&self, g: usize) -> Option<usize> {
        self.group_partitions
            .as_ref()
            .map(|counts| counts[g].load(Ordering::Acquire))
    }

    /// Executes one user query end-to-end.
    ///
    /// With a stamped `query.budget`, feature-resolution time is deducted
    /// and each broker group is granted `min(broker_deadline, 0.9 ×
    /// remaining)`; an already-exhausted budget skips the fan-out and
    /// returns a fully-degraded (but fully-accounted) response.
    pub fn execute(&self, query: &SearchQuery) -> SearchResponse {
        let start = Instant::now();
        if let Some(m) = &self.metrics {
            m.queries_total.incr();
        }
        let Some(features) = self.resolve_features(&query.input) else {
            return SearchResponse::default();
        };
        // A vector of the wrong length goes on to the searchers, which
        // answer it as failed partitions; the detector would panic on it.
        let detected_category = self
            .category_detector
            .as_ref()
            .filter(|d| d.dim() == features.len())
            .map(|d| d.detect(&features).0);

        // Deduct the time feature extraction just spent from the budget.
        let remaining = query.budget.map(|b| b.saturating_sub(start.elapsed()));
        if remaining.is_some_and(|r| r.is_zero()) {
            if let Some(m) = &self.metrics {
                m.queries_budget_exhausted.incr();
                m.queries_degraded.incr();
            }
            let total: usize = self
                .group_partitions
                .as_ref()
                .map(|counts| counts.iter().map(|c| c.load(Ordering::Acquire)).sum())
                .unwrap_or(0);
            return SearchResponse {
                groups_failed: self.broker_groups.len(),
                partitions_total: total,
                partitions_timed_out: total,
                detected_category,
                ..SearchResponse::default()
            };
        }
        let per_group = match remaining {
            Some(r) => self.broker_deadline.min(r.mul_f64(BUDGET_MARGIN)),
            None => self.broker_deadline,
        };
        let fanout = FanoutQuery {
            features,
            k: query.k,
            nprobe: query.nprobe,
            compressed: query.compressed,
            budget: remaining.map(|_| per_group),
            filter: query.filter.clone(),
        };
        // Scatter: every group's request is sent before any reply is
        // awaited. Gather: in group order. Declared counts are read before
        // the call: a split grows brokers' fan-outs before it bumps them.
        let in_flight: Vec<_> = self
            .broker_groups
            .iter()
            .enumerate()
            .map(|(g, group)| {
                let declared = self.partitions_of_group(g);
                (declared, group.start(fanout.clone(), per_group))
            })
            .collect();

        let mut out = SearchResponse {
            detected_category,
            ..SearchResponse::default()
        };
        let mut all_hits = Vec::new();
        for (group, (declared, call)) in self.broker_groups.iter().zip(in_flight) {
            match group.finish(call) {
                Ok(partial) => {
                    // A broker whose fan-out predates a split covers fewer
                    // partitions than its group owns: the rest are lost.
                    let missing =
                        declared.map_or(0, |d| d.saturating_sub(partial.partitions_total));
                    if let Some(m) = self.metrics.as_ref().filter(|_| missing > 0) {
                        m.partitions_failed.add(missing as u64);
                    }
                    out.groups_answered += 1;
                    out.partitions_ok += partial.partitions_ok;
                    out.partitions_total += partial.partitions_total + missing;
                    out.partitions_timed_out += partial.partitions_timed_out;
                    out.partitions_failed += partial.partitions_failed + missing;
                    out.partitions_shed += partial.partitions_shed;
                    all_hits.extend(partial.hits);
                }
                Err(err) => {
                    out.groups_failed += 1;
                    // The group couldn't account for its own partitions;
                    // do it here from the declared layout.
                    let lost = declared.unwrap_or(0);
                    out.partitions_total += lost;
                    match err {
                        RpcError::Timeout { .. } => {
                            out.partitions_timed_out += lost;
                            if let Some(m) = &self.metrics {
                                m.partitions_timed_out.add(lost as u64);
                            }
                        }
                        RpcError::Overloaded => {
                            out.partitions_shed += lost;
                            if let Some(m) = &self.metrics {
                                m.partitions_shed.add(lost as u64);
                            }
                        }
                        _ => {
                            out.partitions_failed += lost;
                            if let Some(m) = &self.metrics {
                                m.partitions_failed.add(lost as u64);
                            }
                        }
                    }
                }
            }
        }
        if let Some(m) = &self.metrics {
            if !out.is_complete() {
                m.queries_degraded.incr();
            }
        }
        out.results = self.ranking.rank(all_hits, query.k);
        out
    }
}

impl<B> Service for BlenderService<B>
where
    B: CallTarget<Request = FanoutQuery, Response = PartialResponse>,
{
    type Request = SearchQuery;
    type Response = SearchResponse;

    fn handle(&self, req: SearchQuery) -> SearchResponse {
        self.execute(&req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::BrokerService;
    use crate::searcher::SearcherService;
    use crate::serving::testing::fanout_tier;
    use crate::serving::{fanout_channel, FanoutChannel, NetBlender, NetBroker};
    use jdvs_core::{IndexConfig, VisualIndex};
    use jdvs_features::cost::CostModel;
    use jdvs_features::{ExtractorConfig, FeatureExtractor};
    use jdvs_net::tcp::TcpTier;
    use jdvs_storage::model::{ProductAttributes, ProductId};
    use jdvs_storage::FeatureDb;
    use jdvs_vector::Vector;

    const DIM: usize = 8;
    const DL: Duration = Duration::from_secs(5);

    struct World {
        blender: NetBlender,
        images: Arc<ImageStore>,
        index: Arc<VisualIndex>,
        searchers: Vec<TcpTier<SearcherService>>,
        brokers: Vec<TcpTier<NetBroker>>,
    }

    /// One partition, one broker group, populated through the real
    /// extraction pipeline so URL queries resolve to indexed neighborhoods.
    fn world() -> World {
        let images = Arc::new(ImageStore::with_blob_len(64));
        let feature_db = Arc::new(FeatureDb::new());
        let extractor = Arc::new(CachingExtractor::new(
            FeatureExtractor::new(ExtractorConfig {
                dim: DIM,
                ..Default::default()
            }),
            CostModel::free(),
        ));

        // Index 60 images across 3 visual clusters.
        let mut feats = Vec::new();
        for i in 0..60u64 {
            let url = format!("u{i}");
            images.put_synthetic(&url, i % 3);
            let attrs = ProductAttributes::new(ProductId(i), i, 100, 1, url.clone());
            let (f, _) = extractor.features_for(&attrs, &images, &feature_db);
            feats.push((f.unwrap(), attrs));
        }
        let train: Vec<Vector> = feats.iter().map(|(f, _)| f.clone()).collect();
        let index = Arc::new(VisualIndex::bootstrap(
            IndexConfig {
                dim: DIM,
                num_lists: 3,
                nprobe: 3,
                ..Default::default()
            },
            &train,
        ));
        for (f, a) in feats {
            index.insert(f, a).unwrap();
        }
        index.flush();

        let searcher = fanout_tier("s-0-0", SearcherService::for_index(0, Arc::clone(&index)));
        let broker = fanout_tier(
            "b-0-0",
            BrokerService::new(0, vec![Balancer::new(vec![fanout_channel(&searcher)])], DL),
        );
        let blender = BlenderService::new(
            vec![Balancer::new(vec![fanout_channel(&broker)])],
            extractor,
            Arc::clone(&images),
            RankingPolicy::similarity_only(),
            DL,
        );
        World {
            blender,
            images,
            index,
            searchers: vec![searcher],
            brokers: vec![broker],
        }
    }

    #[test]
    fn feature_query_returns_ranked_results() {
        let w = world();
        let feats = w.index.features(jdvs_core::ids::ImageId(5)).unwrap();
        let resp = w
            .blender
            .execute(&SearchQuery::by_features(feats.into_inner(), 6));
        assert_eq!(resp.results.len(), 6);
        assert_eq!(resp.groups_answered, 1);
        assert_eq!(resp.groups_failed, 0);
        assert!(resp.is_complete(), "single healthy partition covered");
        assert_eq!((resp.partitions_ok, resp.partitions_total), (1, 1));
        assert_eq!(resp.results[0].hit.local_id, 5, "self-match first");
        for w2 in resp.results.windows(2) {
            assert!(w2[0].score >= w2[1].score);
        }
    }

    #[test]
    fn image_url_query_extracts_then_searches() {
        let w = world();
        // Query with a *new* image from visual cluster 0: its neighbors
        // should be indexed images of the same cluster (i % 3 == 0).
        w.images.put_synthetic("query-img", 0);
        let resp = w
            .blender
            .execute(&SearchQuery::by_image_url("query-img", 6));
        assert_eq!(resp.results.len(), 6);
        let same_cluster = resp
            .results
            .iter()
            .filter(|r| r.hit.product_id.0 % 3 == 0)
            .count();
        assert!(
            same_cluster >= 5,
            "visual cluster should dominate: {same_cluster}/6"
        );
    }

    #[test]
    fn unknown_image_url_returns_empty() {
        let w = world();
        let resp = w.blender.execute(&SearchQuery::by_image_url("missing", 5));
        assert!(resp.results.is_empty());
        assert_eq!(resp.groups_answered, 0);
    }

    #[test]
    fn results_deduplicate_products() {
        let w = world();
        let feats = w.index.features(jdvs_core::ids::ImageId(0)).unwrap();
        let resp = w
            .blender
            .execute(&SearchQuery::by_features(feats.into_inner(), 20));
        let mut products: Vec<u64> = resp.results.iter().map(|r| r.hit.product_id.0).collect();
        let before = products.len();
        products.dedup();
        assert_eq!(products.len(), before, "each product at most once");
    }

    #[test]
    fn query_cache_skips_repeat_extraction() {
        let World {
            blender,
            images,
            searchers: _searchers,
            brokers: _brokers,
            ..
        } = world();
        images.put_synthetic("viral", 1);
        let cache = Arc::new(LruCache::new(16));
        // Rebuild a blender around the same backends but with a cache.
        let blender = blender.with_query_cache(Arc::clone(&cache));
        let q = SearchQuery::by_image_url("viral", 3);
        let r1 = blender.execute(&q);
        let r2 = blender.execute(&q);
        assert_eq!(
            r1.results, r2.results,
            "cached features give identical results"
        );
        let stats = blender.query_cache_stats().unwrap();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn failed_broker_group_is_accounted_not_silent() {
        // Destructure at function scope so the listeners stay alive.
        let World {
            blender,
            searchers: _searchers,
            brokers,
            ..
        } = world();
        let metrics = Arc::new(jdvs_metrics::ResilienceMetrics::new());
        brokers[0].faults().set_down(true);
        let blender = blender
            .with_group_partitions(vec![1])
            .with_metrics(Arc::clone(&metrics));
        let resp = blender.execute(&SearchQuery::by_features(vec![0.0; DIM], 3));
        assert!(resp.results.is_empty());
        assert_eq!(resp.groups_failed, 1);
        assert!(!resp.is_complete(), "lost partitions must be visible");
        assert_eq!((resp.partitions_ok, resp.partitions_total), (0, 1));
        assert_eq!(resp.partitions_failed, 1);
        let snap = metrics.snapshot();
        assert_eq!(snap.queries_total, 1);
        assert_eq!(snap.queries_degraded, 1);
        assert_eq!(snap.partitions_failed, 1);
    }

    #[test]
    fn exhausted_budget_returns_fully_accounted_degraded_response() {
        let World {
            blender,
            searchers: _searchers,
            brokers: _brokers,
            ..
        } = world();
        let metrics = Arc::new(jdvs_metrics::ResilienceMetrics::new());
        let blender = blender
            .with_group_partitions(vec![1])
            .with_metrics(Arc::clone(&metrics));
        let q = SearchQuery::by_features(vec![0.0; DIM], 3).with_budget(Duration::ZERO);
        let resp = blender.execute(&q);
        assert!(resp.results.is_empty());
        assert!(!resp.is_complete());
        assert_eq!((resp.partitions_ok, resp.partitions_total), (0, 1));
        assert_eq!(resp.partitions_timed_out, 1);
        assert_eq!(metrics.snapshot().queries_budget_exhausted, 1);
        assert_eq!(metrics.snapshot().queries_degraded, 1);
    }

    #[test]
    fn budget_bounds_the_broker_deadline() {
        // A blender with a generous configured broker deadline but a tiny
        // query budget must cut the fan-out near the budget.
        let w = world();
        w.images.put_synthetic("q", 0);
        let feats = w.index.features(jdvs_core::ids::ImageId(1)).unwrap();
        // Slow the searcher so the broker call would run long.
        w.searchers[0]
            .faults()
            .set_slowdown(Duration::from_millis(500));
        let q =
            SearchQuery::by_features(feats.into_inner(), 3).with_budget(Duration::from_millis(60));
        let start = std::time::Instant::now();
        let resp = w.blender.execute(&q);
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(400),
            "budget must bound the fan-out: took {elapsed:?}"
        );
        // Whatever was lost is accounted, never silently missing.
        assert_eq!(
            resp.partitions_ok + resp.partitions_timed_out + resp.partitions_failed,
            resp.partitions_total
        );
    }

    #[test]
    #[should_panic(expected = "one partition count per broker group")]
    fn mismatched_group_partition_counts_panic() {
        let World {
            blender,
            searchers: _searchers,
            brokers: _brokers,
            ..
        } = world();
        let _ = blender.with_group_partitions(vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one broker group")]
    fn empty_broker_groups_panics() {
        let images = Arc::new(ImageStore::new());
        let extractor = Arc::new(CachingExtractor::new(
            FeatureExtractor::new(ExtractorConfig {
                dim: DIM,
                ..Default::default()
            }),
            CostModel::free(),
        ));
        BlenderService::<FanoutChannel>::new(
            vec![],
            extractor,
            images,
            RankingPolicy::default(),
            DL,
        );
    }
}
