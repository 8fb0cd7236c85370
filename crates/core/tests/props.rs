//! Property-based tests for jdvs-core: snapshot persistence, the PQ code
//! store, the swap handle and whole-index invariants under random event
//! sequences.

// These tests drive real OS threads; skip them under `--cfg loom`
// model builds (crates/core/tests/loom.rs owns that configuration).
#![cfg(not(loom))]

use std::sync::Arc;

use proptest::prelude::*;

use jdvs_core::ids::ImageId;
use jdvs_core::search::{self, SearchPlan, Stage};
use jdvs_core::swap::IndexHandle;
use jdvs_core::{persist, FilterSpec, IndexConfig, VisualIndex};
use jdvs_storage::model::{ImageKey, ProductAttributes, ProductId};
use jdvs_vector::rng::Xoshiro256;
use jdvs_vector::{Kmeans, KmeansConfig, Vector};

const DIM: usize = 6;

fn base_index() -> VisualIndex {
    VisualIndex::bootstrap(
        IndexConfig {
            dim: DIM,
            num_lists: 3,
            initial_list_capacity: 2,
            nprobe: 3,
            ..Default::default()
        },
        &[
            Vector::from(vec![0.0; DIM]),
            Vector::from(vec![1.0; DIM]),
            Vector::from(vec![-1.0; DIM]),
        ],
    )
}

/// A random mutation against a pool of `n` potential products.
#[derive(Debug, Clone)]
enum Op {
    Insert(u8, [i8; DIM]),
    Delete(u8),
    Update(u8, u32),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<[i8; DIM]>()).prop_map(|(p, v)| Op::Insert(p, v)),
        any::<u8>().prop_map(Op::Delete),
        (any::<u8>(), any::<u32>()).prop_map(|(p, s)| Op::Update(p, s)),
    ]
}

fn url_of(p: u8) -> String {
    format!("prop/u{p}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the mutation sequence, the index agrees with a trivial
    /// model: valid set, attributes, and searchability of valid images.
    #[test]
    fn index_matches_model_under_random_ops(ops in prop::collection::vec(op(), 1..60)) {
        let index = base_index();
        // model: product -> (sales, valid)
        let mut model: std::collections::HashMap<u8, (u64, bool)> =
            std::collections::HashMap::new();
        for op in &ops {
            match op {
                Op::Insert(p, v) => {
                    let attrs =
                        ProductAttributes::new(ProductId(u64::from(*p)), 1, 2, 3, url_of(*p));
                    let vector =
                        Vector::from(v.iter().map(|&x| f32::from(x)).collect::<Vec<_>>());
                    let outcome = index.upsert(attrs, || Some(vector)).unwrap();
                    let entry = model.entry(*p).or_insert((1, true));
                    entry.1 = true;
                    if outcome.reused() {
                        entry.0 = 1; // upsert refreshes attrs to sales=1
                    } else {
                        *entry = (1, true);
                    }
                }
                Op::Delete(p) => {
                    let key = ImageKey::from_url(&url_of(*p));
                    let result = index.invalidate(key, &url_of(*p));
                    prop_assert_eq!(result.is_ok(), model.contains_key(p));
                    if let Some(e) = model.get_mut(p) {
                        e.1 = false;
                    }
                }
                Op::Update(p, sales) => {
                    let key = ImageKey::from_url(&url_of(*p));
                    let result =
                        index.update_numeric(key, &url_of(*p), Some(u64::from(*sales)), None, None);
                    prop_assert_eq!(result.is_ok(), model.contains_key(p));
                    if let Some(e) = model.get_mut(p) {
                        e.0 = u64::from(*sales);
                    }
                }
            }
        }
        index.flush();
        let valid_expected = model.values().filter(|(_, v)| *v).count();
        prop_assert_eq!(index.valid_images(), valid_expected);
        prop_assert_eq!(index.num_images(), model.len());
        for (p, (sales, valid)) in &model {
            let id = index.lookup(ImageKey::from_url(&url_of(*p))).expect("inserted");
            prop_assert_eq!(index.is_valid(id), *valid);
            prop_assert_eq!(&index.attributes(id).unwrap().sales, sales);
        }
    }

    /// Snapshot round trip preserves the whole observable state for any
    /// mutation sequence.
    #[test]
    fn persist_round_trip_under_random_ops(ops in prop::collection::vec(op(), 1..40)) {
        let index = base_index();
        for op in &ops {
            match op {
                Op::Insert(p, v) => {
                    let attrs =
                        ProductAttributes::new(ProductId(u64::from(*p)), 1, 2, 3, url_of(*p));
                    let vector =
                        Vector::from(v.iter().map(|&x| f32::from(x)).collect::<Vec<_>>());
                    let _ = index.upsert(attrs, || Some(vector));
                }
                Op::Delete(p) => {
                    let _ = index.invalidate(ImageKey::from_url(&url_of(*p)), &url_of(*p));
                }
                Op::Update(p, sales) => {
                    let _ = index.update_numeric(
                        ImageKey::from_url(&url_of(*p)),
                        &url_of(*p),
                        Some(u64::from(*sales)),
                        None,
                        None,
                    );
                }
            }
        }
        index.flush();
        let restored = persist::load(&persist::save(&index), index.config()).expect("round trip");
        prop_assert_eq!(restored.num_images(), index.num_images());
        prop_assert_eq!(restored.valid_images(), index.valid_images());
        for raw in 0..index.num_images() {
            let id = ImageId(raw as u32);
            prop_assert_eq!(restored.attributes(id).unwrap(), index.attributes(id).unwrap());
            prop_assert_eq!(restored.is_valid(id), index.is_valid(id));
            prop_assert_eq!(restored.features(id), index.features(id));
        }
    }

    /// Swapping through an IndexHandle never tears: a reader sees either
    /// the full old state or the full new state.
    #[test]
    fn handle_swaps_are_atomic(n_swaps in 1usize..10) {
        let handle = IndexHandle::new(Arc::new(base_index()));
        for gen in 0..n_swaps {
            let fresh = base_index();
            for i in 0..=gen {
                fresh
                    .insert(
                        Vector::from(vec![i as f32; DIM]),
                        ProductAttributes::new(
                            ProductId(i as u64),
                            gen as u64,
                            0,
                            0,
                            format!("g{gen}/u{i}"),
                        ),
                    )
                    .unwrap();
            }
            fresh.flush();
            handle.swap(Arc::new(fresh));
            let snapshot = handle.get();
            // A snapshot is internally consistent: all its records belong
            // to the same generation.
            prop_assert_eq!(snapshot.num_images(), gen + 1);
            for raw in 0..snapshot.num_images() {
                let attrs = snapshot.attributes(ImageId(raw as u32)).unwrap();
                prop_assert_eq!(attrs.sales, gen as u64);
            }
        }
        prop_assert_eq!(handle.generation(), n_swaps as u64);
    }

    /// The block execution engine returns *exactly* the reference scan's
    /// results — same ids, same distances, same order — on random indexes
    /// with random deletions, for every nprobe. Both paths use the same
    /// dispatched kernel, so equality is bit-exact rather than
    /// within-tolerance.
    #[test]
    fn engine_matches_reference_on_random_indexes(
        seed in any::<u64>(),
        n in 50usize..400,
        num_lists in 2usize..9,
        nprobe in 1usize..9,
        delete_every in 2usize..10,
    ) {
        let mut rng = Xoshiro256::seed_from(seed);
        let data: Vec<Vector> = (0..n)
            .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let index = VisualIndex::bootstrap(
            IndexConfig {
                dim: DIM,
                num_lists,
                initial_list_capacity: 4,
                ..Default::default()
            },
            &data,
        );
        for (i, v) in data.iter().enumerate() {
            index
                .insert(
                    v.clone(),
                    ProductAttributes::new(ProductId(i as u64), 0, 0, 0, format!("diff/u{i}")),
                )
                .unwrap();
        }
        index.flush();
        for i in (0..n).step_by(delete_every) {
            let url = format!("diff/u{i}");
            index.invalidate(ImageKey::from_url(&url), &url).unwrap();
        }
        for q in data.iter().take(5) {
            let engine = index.search(q.as_slice(), 10, nprobe);
            let reference = search::ann_search_reference(&index, q.as_slice(), 10, nprobe);
            prop_assert_eq!(&engine, &reference, "ann nprobe={}", nprobe);
            let exhaustive = search::brute_force(&index, q.as_slice(), 10);
            let exhaustive_ref =
                search::reference::brute_force_reference(&index, q.as_slice(), 10);
            prop_assert_eq!(&exhaustive, &exhaustive_ref);
            // Deleted ids never appear in either path.
            for hit in engine.iter().chain(exhaustive.iter()) {
                prop_assert!(index.is_valid(ImageId(hit.id as u32)));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The hierarchical coarse quantizer at an **exhaustive** beam
    /// (`beam ≥ k`, so the graph search drains its whole frontier) returns
    /// *exactly* the flat centroid scan's probe order — same lists, same
    /// order — across random dims, list counts, nprobe, and training
    /// balance factors. Both paths score with the same dispatched kernel,
    /// so equality is bit-exact. Runs on the native and (in CI) the
    /// forced-scalar kernel set.
    #[test]
    fn coarse_exhaustive_beam_matches_flat_assignment(
        seed in any::<u64>(),
        dim in 2usize..12,
        k in 2usize..48,
        nprobe in 1usize..10,
        n in 60usize..220,
        balance in prop_oneof![Just(0.0f64), Just(1.5f64), Just(3.0f64)],
    ) {
        let mut rng = Xoshiro256::seed_from(seed);
        let data: Vec<Vector> = (0..n)
            .map(|_| (0..dim).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let flat = Kmeans::train(&data, &KmeansConfig {
            k,
            max_iters: 6,
            tolerance: 1e-4,
            seed,
            balance_factor: balance,
        });
        // beam ≥ trained k makes the graph search exhaustive regardless
        // of nprobe; trained k may be below the requested k on tiny data.
        let graphed = flat.clone().with_coarse_graph(flat.k());
        let nprobe = nprobe.min(flat.k());
        for q in data.iter().take(6) {
            prop_assert_eq!(
                graphed.assign_multi(q.as_slice(), nprobe),
                flat.assign_multi(q.as_slice(), nprobe),
                "dim={} k={} nprobe={}", dim, flat.k(), nprobe
            );
            prop_assert_eq!(graphed.assign(q.as_slice()), flat.assign(q.as_slice()));
        }
    }
}

/// At a realistic **bounded** beam (the serving configuration, where the
/// graph search visits a fraction of the centroids), probe sets are no
/// longer guaranteed identical — but end-to-end search recall against the
/// flat-scan index must stay at parity. Deterministic seed; runs on the
/// native and (in CI) the forced-scalar kernel set.
#[test]
fn coarse_default_beam_recall_parity() {
    const N: usize = 2000;
    const K: usize = 10;
    let mut rng = Xoshiro256::seed_from(41);
    let data: Vec<Vector> = (0..N)
        .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
        .collect();
    let build = |beam: usize| {
        let index = VisualIndex::bootstrap(
            IndexConfig {
                dim: DIM,
                num_lists: 64,
                initial_list_capacity: 8,
                nprobe: 16,
                coarse_beam_width: beam,
                ..Default::default()
            },
            &data,
        );
        for (i, v) in data.iter().enumerate() {
            index
                .insert(
                    v.clone(),
                    ProductAttributes::new(ProductId(i as u64), 0, 0, 0, format!("cr/u{i}")),
                )
                .unwrap();
        }
        index.flush();
        index
    };
    let flat = build(0);
    let graphed = build(16); // bounded: beam 16 over 64 lists
    let queries = 50;
    let mut overlap = 0usize;
    for q in data.iter().take(queries) {
        let want = flat.search(q.as_slice(), K, 16);
        let got = graphed.search(q.as_slice(), K, 16);
        let want_ids: std::collections::HashSet<u64> = want.iter().map(|h| h.id).collect();
        overlap += got.iter().filter(|h| want_ids.contains(&h.id)).count();
    }
    let recall = overlap as f64 / (queries * K) as f64;
    assert!(
        recall >= 0.95,
        "bounded-beam recall@{K} fell to {recall:.3} against the flat scan"
    );
}

/// The numeric-attribute view [`FilterSpec::matches`] checks, read back
/// through the public attributes API.
fn numeric_of(index: &VisualIndex, id: ImageId) -> jdvs_core::forward::NumericAttributes {
    let a = index.attributes(id).unwrap();
    jdvs_core::forward::NumericAttributes {
        product_id: a.product_id,
        sales: a.sales,
        price: a.price,
        praise: a.praise,
        category: a.category,
        in_stock: a.in_stock,
    }
}

/// A random filter over the attribute pattern laid down by
/// [`attr_index`]: categories 0..5, ~2/3 in stock, price/sales growing
/// with the insertion index — so generated specs span the whole
/// selectivity range from "admits everything" down to "admits nothing".
fn filter_spec() -> impl Strategy<Value = FilterSpec> {
    (
        prop_oneof![Just(None), (0u32..6).prop_map(Some)],
        any::<bool>(),
        prop_oneof![Just(None), (0u64..5_000).prop_map(Some)],
        prop_oneof![Just(None), (0u64..5_000).prop_map(Some)],
        prop_oneof![Just(None), (0u64..1_200).prop_map(Some)],
    )
        .prop_map(
            |(category, in_stock_only, price_min, price_max, min_sales)| FilterSpec {
                category,
                in_stock_only,
                price_min,
                price_max,
                min_sales,
            },
        )
}

/// Builds a random index whose products carry varied attributes, with
/// every `delete_every`-th image invalidated after insertion.
fn attr_index(
    data: &[Vector],
    num_lists: usize,
    delete_every: usize,
    pq_bits: Option<u8>,
    nprobe_escalation: usize,
) -> VisualIndex {
    let index = VisualIndex::bootstrap(
        IndexConfig {
            dim: DIM,
            num_lists,
            initial_list_capacity: 4,
            pq_subspaces: pq_bits.map(|_| DIM),
            nprobe_escalation,
            ..Default::default()
        },
        data,
    );
    for (i, v) in data.iter().enumerate() {
        index
            .insert(
                v.clone(),
                ProductAttributes::new(
                    ProductId(i as u64),
                    (i * 3) as u64,
                    ((i % 100) * 50) as u64,
                    (i % 7) as u64,
                    format!("fp/u{i}"),
                )
                .with_category((i % 5) as u32)
                .with_stock(i % 3 != 0),
            )
            .unwrap();
    }
    index.flush();
    for i in (0..data.len()).step_by(delete_every) {
        let url = format!("fp/u{i}");
        index.invalidate(ImageKey::from_url(&url), &url).unwrap();
    }
    index
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The one engine entry point against the four sequential references:
    /// a random plan (random k / nprobe / stage, a filter from across the
    /// whole selectivity range or none) over a random index (raw-only or
    /// 4-bit PQ; random deletions; with and without probe
    /// escalation) returns *exactly* its reference's result. Runs on the
    /// native and (in CI) the forced-scalar kernel set.
    #[test]
    fn execute_matches_references_per_member(
        seed in any::<u64>(),
        n in 80usize..400,
        num_lists in 2usize..9,
        query in 0usize..80,
        k in 1usize..11,
        delete_every in 2usize..10,
        pq_bits in prop_oneof![Just(None), Just(Some(4u8))],
        escalation in prop_oneof![Just(0usize), 4usize..32],
        spec in prop_oneof![Just(None), filter_spec().prop_map(Some)],
    ) {
        let mut rng = Xoshiro256::seed_from(seed);
        let data: Vec<Vector> = (0..n)
            .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let index = attr_index(&data, num_lists, delete_every, pq_bits, escalation);
        let plan = SearchPlan {
            features: data[query].as_slice(),
            k,
            nprobe: 1 + seed as usize % num_lists,
            filter: spec.as_ref(),
            stage: if pq_bits.is_some() && !(seed as usize).is_multiple_of(3) {
                Stage::Compressed { rerank_factor: 3 }
            } else {
                Stage::Raw
            },
            deadline: None,
        };
        let got = index.execute(&plan);
        let (q, nprobe) = (plan.features, plan.nprobe);
        let want = match (plan.stage, plan.filter) {
            (Stage::Raw, None) => search::ann_search_reference(&index, q, k, nprobe),
            (Stage::Raw, Some(f)) => search::filtered_ann_search_reference(&index, q, k, nprobe, f),
            (Stage::Compressed { rerank_factor }, None) => {
                search::compressed_search_reference(&index, q, k, nprobe, rerank_factor)
            }
            (Stage::Compressed { rerank_factor }, Some(f)) => {
                search::filtered_compressed_search_reference(&index, q, k, nprobe, rerank_factor, f)
            }
        };
        prop_assert_eq!(&got, &want, "pq={:?} esc={} {:?}", pq_bits, escalation, plan);
        for hit in &got {
            let id = ImageId(hit.id as u32);
            prop_assert!(index.is_valid(id));
            if let Some(spec) = plan.filter {
                prop_assert!(spec.matches(&numeric_of(&index, id)));
            }
        }
    }
}
