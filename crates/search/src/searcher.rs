//! The searcher service (bottom of Figure 10).
//!
//! One searcher owns one partition replica: it serves ANN queries over its
//! [`VisualIndex`] and returns its local top-k *with attributes attached*
//! (it owns the forward index, so no second lookup round-trip is needed).
//! The same index is concurrently maintained by the partition's real-time
//! indexing thread — the whole point of the paper's lock-free structures.

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

    /// Executes a query locally (also the code path the RPC handler runs):
    /// [`SearcherService::execute_batch`] for a batch of one.
    pub fn execute(&self, query: &FanoutQuery) -> PartialResponse {
        self.execute_batch(std::slice::from_ref(query))
            .pop()
            .expect("one response per query")
    }

    /// Executes a batch of co-arriving queries against **one** index
    /// snapshot as one [`VisualIndex::execute`] call, which walks each
    /// probed list once for every member that subscribes to it.
    ///
    /// Each query becomes a [`SearchPlan`]: its
    /// [`FilterSpec`](jdvs_core::FilterSpec) is pushed down into the block
    /// scan (and may escalate `nprobe` when the index allows it), a
    /// compressed query on a PQ index takes the two-stage scan with the
    /// index's configured over-fetch, and its `budget` becomes a deadline —
    /// probe escalation stops widening once the remaining time cannot pay
    /// for another round, returning the (possibly underfull) top-k on time.
    ///
    /// Results are positionally aligned with `queries`, and each member's
    /// is what it would get alone on the same snapshot: coverage accounting
    /// and hit contents do not depend on the batch — only the list walks
    /// are shared.
    pub fn execute_batch(&self, queries: &[FanoutQuery]) -> Vec<PartialResponse> {
        let index = self.handle.get();
        let now = Instant::now();
        let plans: Vec<SearchPlan<'_>> = queries
            .iter()
            .map(|q| SearchPlan {
                features: &q.features,
                k: q.k.max(1),
                nprobe: q.nprobe.unwrap_or(index.config().nprobe),
                filter: q.filter.as_ref(),
                stage: if q.compressed && index.has_pq() {
                    Stage::Compressed {
                        rerank_factor: index.config().rerank_factor,
                    }
                } else {
                    Stage::Raw
                },
                deadline: q.budget.map(|b| now + b),
            })
            .collect();
        // The records are guaranteed present (ids come from the same index
        // snapshot held across the whole batch).
        index
            .execute(&plans)
            .into_iter()
            .map(|neighbors| self.partial_response(&index, neighbors))
            .collect()
    }

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
        // Batched members keep their own budgets: the micro-batcher must
        // not turn a near-expired query into an unbounded escalation, nor
        // let it cap its neighbours.
        let batch = [
            query(Some(std::time::Duration::ZERO)),
            query(Some(std::time::Duration::from_secs(60))),
            query(None),
        ];
        assert_eq!(
            escalating.execute_batch(&batch),
            vec![hurried, relaxed.clone(), relaxed]
        );
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
    fn execute_batch_matches_execute_per_member() {
        let mut rng = Xoshiro256::seed_from(17);
        let data: Vec<Vector> = (0..120)
            .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let index = Arc::new(VisualIndex::bootstrap(
            IndexConfig {
                dim: DIM,
                num_lists: 4,
                nprobe: 4,
                pq_subspaces: Some(DIM / 2),
                pq_bits: 4,
                ..Default::default()
            },
            &data,
        ));
        for (i, v) in data.iter().enumerate() {
            index
                .insert(
                    v.clone(),
                    ProductAttributes::new(ProductId(i as u64), i as u64, 9, 1, format!("eb/u{i}"))
                        .with_category((i % 3) as u32)
                        .with_stock(i % 4 != 0),
                )
                .unwrap();
        }
        index.flush();
        let searcher = SearcherService::for_index(2, Arc::clone(&index));
        // A mixed batch: compressed and raw members, varying k, nprobe and
        // filters, must come back positionally aligned and bit-identical to
        // solo execution.
        let queries: Vec<FanoutQuery> = (0..7u32)
            .map(|i| FanoutQuery {
                features: index
                    .features(jdvs_core::ids::ImageId(i * 3))
                    .unwrap()
                    .into_inner(),
                k: 1 + i as usize % 5,
                nprobe: if i % 2 == 0 {
                    Some(1 + i as usize % 4)
                } else {
                    None
                },
                compressed: i % 3 != 0,
                budget: None,
                filter: match i % 3 {
                    0 => None,
                    1 => Some(jdvs_core::FilterSpec::by_category(i % 3).in_stock()),
                    _ => Some(jdvs_core::FilterSpec::none().with_min_sales(30)),
                },
            })
            .collect();
        let batched = searcher.execute_batch(&queries);
        assert_eq!(batched.len(), queries.len());
        for (q, got) in queries.iter().zip(&batched) {
            assert_eq!(
                got,
                &searcher.execute(q),
                "k={} compressed={}",
                q.k,
                q.compressed
            );
        }
        assert!(searcher.execute_batch(&[]).is_empty());
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
