//! The searcher service (bottom of Figure 10).
//!
//! One searcher owns one partition replica: it serves ANN queries over its
//! [`VisualIndex`] and returns its local top-k *with attributes attached*
//! (it owns the forward index, so no second lookup round-trip is needed).
//! The same index is concurrently maintained by the partition's real-time
//! indexing thread — the whole point of the paper's lock-free structures.
//!
//! Each request is one query and one engine plan, run to completion on the
//! thread that received it: the searcher finds the nearest cells, scans
//! those lists and returns the top-k (Section 2.4).

use std::sync::Arc;
use std::time::Instant;

use jdvs_core::ids::ImageId;
use jdvs_core::search::{SearchPlan, Stage};
use jdvs_core::swap::IndexHandle;
use jdvs_core::VisualIndex;
use jdvs_net::rpc::Service;
use jdvs_vector::Neighbor;

use crate::protocol::{FanoutQuery, PartialHit, PartialResponse};

/// The per-partition query service.
///
/// The index is resolved through a hot-swappable [`IndexHandle`] per
/// query, so weekly full-index cutovers (Figure 2) are invisible to the
/// query path: a query in flight keeps its snapshot, the next query sees
/// the fresh index.
#[derive(Debug)]
pub struct SearcherService {
    partition: usize,
    handle: Arc<IndexHandle>,
}

impl SearcherService {
    /// Creates a searcher for `partition` over a swappable index handle.
    pub fn new(partition: usize, handle: Arc<IndexHandle>) -> Self {
        Self { partition, handle }
    }

    /// Convenience: a searcher over a fixed (never-swapped) index.
    pub fn for_index(partition: usize, index: Arc<VisualIndex>) -> Self {
        Self::new(partition, Arc::new(IndexHandle::new(index)))
    }

    /// This searcher's partition number.
    pub fn partition(&self) -> usize {
        self.partition
    }

    /// Snapshot of the current index (shared with the real-time indexer).
    pub fn index(&self) -> Arc<VisualIndex> {
        self.handle.get()
    }

    /// The swappable handle.
    pub fn handle(&self) -> &Arc<IndexHandle> {
        &self.handle
    }

    /// Executes a query locally (also the code path the RPC handler runs)
    /// as one [`VisualIndex::execute`] plan against the current index
    /// snapshot.
    ///
    /// The query's [`FilterSpec`](jdvs_core::FilterSpec) is pushed down
    /// into the block scan (and may escalate `nprobe` when the index allows
    /// it), a compressed query on a PQ index takes the two-stage scan with
    /// the index's configured over-fetch, and its `budget` becomes a
    /// deadline — probe escalation stops widening once the remaining time
    /// cannot pay for another round, returning the (possibly underfull)
    /// top-k on time.
    ///
    /// A malformed query is answered, not panicked on: `k` and `nprobe`
    /// count as at least 1, and a feature vector whose length is not the
    /// index dimension is answered as a failed partition with no hits.
    pub fn execute(&self, query: &FanoutQuery) -> PartialResponse {
        let index = self.handle.get();
        if query.features.len() != index.config().dim {
            return PartialResponse {
                partitions_total: 1,
                partitions_failed: 1,
                ..PartialResponse::default()
            };
        }
        let plan = SearchPlan {
            features: &query.features,
            k: query.k.max(1),
            nprobe: query.nprobe.unwrap_or(index.config().nprobe).max(1),
            filter: query.filter.as_ref(),
            stage: if query.compressed && index.has_pq() {
                Stage::Compressed {
                    rerank_factor: index.config().rerank_factor,
                }
            } else {
                Stage::Raw
            },
            deadline: query.budget.map(|b| Instant::now() + b),
        };
        let neighbors = index.execute(&plan);
        self.partial_response(&index, neighbors)
    }

    /// The records are guaranteed present: the ids come from the same
    /// index snapshot.
    fn partial_response(&self, index: &VisualIndex, neighbors: Vec<Neighbor>) -> PartialResponse {
        let hits = neighbors
            .into_iter()
            .filter_map(|n| {
                let id = ImageId(n.id as u32);
                let attrs = index.attributes(id).ok()?;
                Some(PartialHit {
                    partition: self.partition,
                    local_id: id.0,
                    distance: n.distance,
                    product_id: attrs.product_id,
                    sales: attrs.sales,
                    price: attrs.price,
                    praise: attrs.praise,
                    url: attrs.url,
                })
            })
            .collect();
        PartialResponse {
            hits,
            partitions_ok: 1,
            partitions_total: 1,
            partitions_timed_out: 0,
            partitions_failed: 0,
            partitions_shed: 0,
        }
    }
}

impl Service for SearcherService {
    type Request = FanoutQuery;
    type Response = PartialResponse;

    fn handle(&self, req: FanoutQuery) -> PartialResponse {
        self.execute(&req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jdvs_core::IndexConfig;
    use jdvs_storage::model::{ProductAttributes, ProductId};
    use jdvs_vector::rng::Xoshiro256;
    use jdvs_vector::Vector;

    const DIM: usize = 8;

    fn index_with(n: usize) -> Arc<VisualIndex> {
        let mut rng = Xoshiro256::seed_from(3);
        let train: Vec<Vector> = (0..32)
            .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let index = Arc::new(VisualIndex::bootstrap(
            IndexConfig {
                dim: DIM,
                num_lists: 4,
                nprobe: 4,
                ..Default::default()
            },
            &train,
        ));
        for i in 0..n {
            let v: Vector = (0..DIM).map(|_| rng.next_gaussian() as f32).collect();
            index
                .insert(
                    v,
                    ProductAttributes::new(ProductId(i as u64), i as u64, 100, 1, format!("u{i}"))
                        .with_category((i % 3) as u32)
                        .with_stock(i % 2 == 0),
                )
                .unwrap();
        }
        index.flush();
        index
    }

    #[test]
    fn execute_returns_hits_with_attributes() {
        let index = index_with(50);
        let searcher = SearcherService::for_index(3, Arc::clone(&index));
        assert_eq!(searcher.partition(), 3);
        let feats = index.features(jdvs_core::ids::ImageId(7)).unwrap();
        let resp = searcher.execute(&FanoutQuery {
            features: feats.into_inner(),
            k: 5,
            nprobe: Some(4),
            compressed: false,
            budget: None,
            filter: None,
        });
        assert_eq!(resp.hits.len(), 5);
        assert!(resp.is_complete());
        assert_eq!((resp.partitions_ok, resp.partitions_total), (1, 1));
        let top = &resp.hits[0];
        assert_eq!(top.local_id, 7);
        assert_eq!(top.partition, 3);
        assert_eq!(top.url, "u7");
        assert_eq!(top.product_id, ProductId(7));
        assert_eq!(top.sales, 7);
    }

    #[test]
    fn default_nprobe_comes_from_config() {
        let index = index_with(20);
        let searcher = SearcherService::for_index(0, Arc::clone(&index));
        let feats = index.features(jdvs_core::ids::ImageId(0)).unwrap();
        let resp = searcher.execute(&FanoutQuery {
            features: feats.into_inner(),
            k: 3,
            nprobe: None,
            compressed: false,
            budget: None,
            filter: None,
        });
        assert!(!resp.hits.is_empty());
    }

    #[test]
    fn execute_pushes_filter_into_scan() {
        let index = index_with(60);
        let searcher = SearcherService::for_index(0, Arc::clone(&index));
        let spec = jdvs_core::FilterSpec::by_category(1)
            .in_stock()
            .with_min_sales(10);
        let resp = searcher.execute(&FanoutQuery {
            features: vec![0.0; DIM],
            k: 8,
            nprobe: Some(4),
            compressed: false,
            budget: None,
            filter: Some(spec),
        });
        assert!(!resp.hits.is_empty());
        for hit in &resp.hits {
            let attrs = index.attributes(ImageId(hit.local_id)).unwrap();
            assert_eq!(attrs.category, 1);
            assert!(attrs.in_stock);
            assert!(attrs.sales >= 10);
        }
    }

    #[test]
    fn budget_caps_filtered_escalation() {
        fn build(escalation: usize) -> Arc<VisualIndex> {
            let mut rng = Xoshiro256::seed_from(29);
            let data: Vec<Vector> = (0..400)
                .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
                .collect();
            let index = Arc::new(VisualIndex::bootstrap(
                IndexConfig {
                    dim: DIM,
                    num_lists: 8,
                    nprobe: 1,
                    nprobe_escalation: escalation,
                    ..Default::default()
                },
                &data,
            ));
            for (i, v) in data.iter().enumerate() {
                index
                    .insert(
                        v.clone(),
                        ProductAttributes::new(ProductId(i as u64), 0, 0, 0, format!("u{i}"))
                            .with_category((i % 50) as u32),
                    )
                    .unwrap();
            }
            index.flush();
            index
        }
        let escalating = SearcherService::for_index(0, build(8));
        let capped = SearcherService::for_index(0, build(0));
        let query = |budget| FanoutQuery {
            features: vec![0.0; DIM],
            k: 8,
            nprobe: Some(1),
            compressed: false,
            budget,
            filter: Some(jdvs_core::FilterSpec::by_category(7)), // ~2% of images
        };
        // An already-expired budget stops escalation before its first
        // widening round: the response is exactly what an
        // escalation-disabled index returns from the base probe.
        let hurried = escalating.execute(&query(Some(std::time::Duration::ZERO)));
        assert_eq!(hurried, capped.execute(&query(None)));
        assert!(
            hurried.hits.len() < 8,
            "a 1-list probe at ~2% selectivity should come back underfull"
        );
        // A generous budget escalates exactly like no budget at all.
        let relaxed = escalating.execute(&query(Some(std::time::Duration::from_secs(60))));
        assert_eq!(relaxed, escalating.execute(&query(None)));
        assert_eq!(relaxed.hits.len(), 8, "escalation should fill the top-k");
    }

    #[test]
    fn hits_are_sorted_by_distance() {
        let index = index_with(100);
        let searcher = SearcherService::for_index(0, index);
        let resp = searcher.execute(&FanoutQuery {
            features: vec![0.0; DIM],
            k: 10,
            nprobe: Some(4),
            compressed: false,
            budget: None,
            filter: None,
        });
        for w in resp.hits.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn malformed_queries_are_answered() {
        let index = index_with(40);
        let searcher = SearcherService::for_index(0, Arc::clone(&index));
        let query = |features: Vec<f32>, k, nprobe| FanoutQuery {
            features,
            k,
            nprobe: Some(nprobe),
            compressed: false,
            budget: None,
            filter: None,
        };
        let feats = index.features(ImageId(5)).unwrap().into_inner();
        let zeroes = searcher.execute(&query(feats.clone(), 0, 0));
        assert!(zeroes.is_complete());
        assert_eq!(zeroes, searcher.execute(&query(feats, 1, 1)));
        let short = searcher.execute(&query(vec![0.0; DIM - 1], 5, 4));
        assert!(short.hits.is_empty());
        assert_eq!(
            (short.partitions_failed, short.partitions_total),
            (1, 1),
            "a wrong-dimension query is a failed partition"
        );
    }

    #[test]
    fn service_impl_delegates_to_execute() {
        let index = index_with(10);
        let searcher = SearcherService::for_index(0, Arc::clone(&index));
        let feats = index.features(jdvs_core::ids::ImageId(2)).unwrap();
        let q = FanoutQuery {
            features: feats.into_inner(),
            k: 1,
            nprobe: Some(4),
            compressed: false,
            budget: None,
            filter: None,
        };
        let via_service = Service::handle(&searcher, q.clone());
        let via_execute = searcher.execute(&q);
        assert_eq!(via_service, via_execute);
    }
}
