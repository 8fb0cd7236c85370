//! Comparison baselines that only experiments call: the pre-engine scalar
//! scan `searcher-scan` measures the engine against, and the multi-probe
//! LSH index `ablate-lsh` compares IVF with.

pub mod lsh;

use jdvs_core::ids::ListId;
use jdvs_core::VisualIndex;
use jdvs_vector::simd;
use jdvs_vector::topk::{Neighbor, TopK};

/// The pre-engine scan: per-id callbacks, two lock acquisitions per
/// candidate, no threshold pruning, and the forced **scalar** kernel
/// regardless of CPU features.
///
/// # Panics
///
/// Panics if `k == 0`, `nprobe == 0`, or `query` has the wrong dimension.
pub fn ann_search_scalar_baseline(
    index: &VisualIndex,
    query: &[f32],
    k: usize,
    nprobe: usize,
) -> Vec<Neighbor> {
    assert!(nprobe > 0, "nprobe must be positive");
    assert_eq!(query.len(), index.config().dim, "query dimension mismatch");
    let kernels = simd::scalar();
    let mut topk = TopK::new(k);
    for list in index.quantizer().assign_multi(query, nprobe) {
        index.inverted().scan(ListId(list as u32), |id| {
            if !index.is_valid(id) {
                return;
            }
            if let Some(row) = index.vectors().snapshot().get(id) {
                let d = row.with(|v| kernels.squared_l2(query, v));
                topk.push(id.as_u64(), d);
            }
        });
    }
    topk.into_sorted_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jdvs_core::IndexConfig;
    use jdvs_storage::model::{ProductAttributes, ProductId};
    use jdvs_vector::rng::Xoshiro256;
    use jdvs_vector::Vector;

    #[test]
    fn scalar_baseline_agrees_on_ids_with_engine() {
        // Distances may differ in the last ulp between kernels, but on
        // well-separated random data the returned id set is stable.
        let mut rng = Xoshiro256::seed_from(29);
        let data: Vec<Vector> = (0..300)
            .map(|_| (0..8).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let config = IndexConfig {
            dim: 8,
            num_lists: 4,
            initial_list_capacity: 8,
            ..Default::default()
        };
        let index = VisualIndex::bootstrap(config, &data);
        for (i, v) in data.iter().enumerate() {
            let attrs = ProductAttributes::new(ProductId(i as u64), 0, 0, 0, format!("u{i}"));
            index.insert(v.clone(), attrs).unwrap();
        }
        index.flush();
        let ids = |hits: Vec<Neighbor>| hits.into_iter().map(|n| n.id).collect::<Vec<u64>>();
        for q in data.iter().take(10) {
            assert_eq!(
                ids(index.search(q.as_slice(), 5, 4)),
                ids(ann_search_scalar_baseline(&index, q.as_slice(), 5, 4))
            );
        }
    }
}
