//! Property-based tests for jdvs-vector invariants.

use proptest::prelude::*;

use jdvs_vector::distance::{cosine_similarity, dot, l2, squared_l2};
use jdvs_vector::kmeans::{Kmeans, KmeansConfig};
use jdvs_vector::pq::{PqConfig, ProductQuantizer};
use jdvs_vector::rng::Xoshiro256;
use jdvs_vector::simd;
use jdvs_vector::topk::{Neighbor, TopK};
use jdvs_vector::Vector;

/// `dim` seeded values in roughly [-100, 100] — big enough to stress
/// accumulation order, fast to generate at dim 1024 (a proptest-generated
/// `Vec<f32>` of that length would dominate case time in the shim).
fn seeded(dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256::seed_from(seed);
    (0..dim)
        .map(|_| (rng.next_gaussian() as f32) * 50.0)
        .collect()
}

fn close(a: f32, b: f32) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= scale * 1e-4
}

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1e3f32..1e3, len..=len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Distance axioms (on finite inputs): non-negativity, identity,
    /// symmetry.
    #[test]
    fn squared_l2_axioms(a in finite_vec(16), b in finite_vec(16)) {
        let dab = squared_l2(&a, &b);
        prop_assert!(dab >= 0.0);
        prop_assert_eq!(squared_l2(&a, &a), 0.0);
        prop_assert_eq!(dab, squared_l2(&b, &a));
    }

    /// `l2` is the square root of `squared_l2`.
    #[test]
    fn l2_consistent_with_squared(a in finite_vec(8), b in finite_vec(8)) {
        let d = l2(&a, &b);
        prop_assert!((d * d - squared_l2(&a, &b)).abs() <= squared_l2(&a, &b) * 1e-5 + 1e-3);
    }

    /// Dot product is bilinear in its first argument (within float slack).
    #[test]
    fn dot_is_additive(a in finite_vec(8), b in finite_vec(8), c in finite_vec(8)) {
        let lhs = dot(&a.iter().zip(&b).map(|(x, y)| x + y).collect::<Vec<_>>(), &c);
        let rhs = dot(&a, &c) + dot(&b, &c);
        let scale = lhs.abs().max(rhs.abs()).max(1.0);
        prop_assert!((lhs - rhs).abs() / scale < 1e-3, "{lhs} vs {rhs}");
    }

    /// Cosine similarity is scale-invariant and bounded.
    #[test]
    fn cosine_bounded_and_scale_invariant(
        a in finite_vec(8),
        b in finite_vec(8),
        s in 0.1f32..100.0,
    ) {
        let c = cosine_similarity(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&c));
        let scaled: Vec<f32> = a.iter().map(|x| x * s).collect();
        let c2 = cosine_similarity(&scaled, &b);
        prop_assert!((c - c2).abs() < 1e-3, "{c} vs {c2}");
    }

    /// Normalization yields unit vectors for non-zero inputs.
    #[test]
    fn normalize_yields_unit_norm(data in finite_vec(12)) {
        let v = Vector::from(data);
        prop_assume!(v.norm() > 1e-3);
        prop_assert!((v.normalized().norm() - 1.0).abs() < 1e-4);
    }

    /// k-means assignment always returns the argmin centroid.
    #[test]
    fn kmeans_assign_is_argmin(seed in any::<u64>(), k in 2usize..8) {
        let mut rng = Xoshiro256::seed_from(seed);
        let data: Vec<Vector> = (0..60)
            .map(|_| (0..6).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let model = Kmeans::train(&data, &KmeansConfig { k, max_iters: 5, seed, ..Default::default() });
        for v in data.iter().take(10) {
            let assigned = model.assign(v.as_slice());
            let d_assigned = squared_l2(model.centroids()[assigned].as_slice(), v.as_slice());
            for c in model.centroids() {
                prop_assert!(d_assigned <= squared_l2(c.as_slice(), v.as_slice()) + 1e-6);
            }
        }
    }

    /// assign_multi returns distinct, distance-sorted cells whose first
    /// element equals assign.
    #[test]
    fn assign_multi_consistent(seed in any::<u64>(), nprobe in 1usize..6) {
        let mut rng = Xoshiro256::seed_from(seed ^ 0xA55);
        let data: Vec<Vector> = (0..40)
            .map(|_| (0..4).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let model = Kmeans::train(&data, &KmeansConfig { k: 6, max_iters: 4, seed, ..Default::default() });
        let q: Vec<f32> = (0..4).map(|_| rng.next_gaussian() as f32).collect();
        let probes = model.assign_multi(&q, nprobe);
        prop_assert_eq!(probes.len(), nprobe.min(model.k()));
        prop_assert_eq!(probes[0], model.assign(&q));
        let mut sorted = probes.clone();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), probes.len(), "no duplicate cells");
    }

    /// PQ: ADC distance equals the exact distance to the decoded vector.
    #[test]
    fn pq_adc_matches_decoded(seed in any::<u64>()) {
        let mut rng = Xoshiro256::seed_from(seed ^ 0x99);
        let data: Vec<Vector> = (0..300)
            .map(|_| (0..8).map(|_| rng.next_gaussian() as f32).collect())
            .collect();
        let pq = ProductQuantizer::train(
            &data,
            &PqConfig { num_subspaces: 2, max_iters: 4, seed },
        );
        let table = pq.adc_table(data[0].as_slice());
        for v in data.iter().take(10) {
            let code = pq.encode(v.as_slice());
            let adc = table.distance(&code);
            let exact = squared_l2(data[0].as_slice(), pq.decode(&code).as_slice());
            prop_assert!((adc - exact).abs() < 1e-2, "{adc} vs {exact}");
        }
    }

    /// PQ: the u8-quantized ADC distance stays within the table's
    /// advertised `error_bound` of the exact f32 ADC distance, for every
    /// trained quantizer shape and query the strategy produces. The bound
    /// is what makes the two-stage re-rank contract safe: stage 1's
    /// shortlist ranks by quantized distance, stage 2 re-scores exactly.
    #[test]
    fn quantized_adc_error_is_bounded(
        seed in any::<u64>(),
        m_pow in 1usize..=4, // 2, 4, 8, 16 subspaces
        scale in 0.01f32..100.0,
    ) {
        let m = 1usize << m_pow;
        let dim = m * 2;
        let mut rng = Xoshiro256::seed_from(seed ^ 0x4B17);
        let data: Vec<Vector> = (0..200)
            .map(|_| (0..dim).map(|_| rng.next_gaussian() as f32 * scale).collect())
            .collect();
        let pq = ProductQuantizer::train(
            &data,
            &PqConfig { num_subspaces: m, max_iters: 4, seed },
        );
        let query: Vec<f32> = (0..dim).map(|_| rng.next_gaussian() as f32 * scale).collect();
        let exact = pq.adc_table(&query);
        let quantized = pq.quantized_adc_table(&query);
        let bound = quantized.error_bound();
        prop_assert!(bound.is_finite() && bound >= 0.0);
        for v in data.iter().take(20) {
            let code = pq.encode(v.as_slice());
            let q = quantized.distance(&code);
            let e = exact.distance(&code);
            // One ulp-ish slack on top: bound is exact in real arithmetic,
            // the comparison happens in f32.
            let slack = bound + e.abs().max(1.0) * 1e-5;
            prop_assert!(
                (q - e).abs() <= slack,
                "m {m} scale {scale}: quantized {q} vs exact {e}, bound {bound}"
            );
        }
    }

    /// The active (possibly SIMD) kernels agree with the scalar reference
    /// within 1e-4 relative tolerance on every dimension 1..=1024,
    /// including non-multiples of the vector lane width. Under
    /// `JDVS_FORCE_SCALAR` this still passes (scalar vs scalar is exact),
    /// so the force-disabled CI job runs the same test meaningfully.
    #[test]
    fn simd_l2_and_dot_match_scalar(dim in 1usize..=1024, seed in any::<u64>()) {
        let a = seeded(dim, seed);
        let b = seeded(dim, seed ^ 0xDEAD_BEEF);
        let fast = simd::active();
        let scalar = simd::scalar();
        let (l2_fast, l2_ref) = (fast.squared_l2(&a, &b), scalar.squared_l2(&a, &b));
        prop_assert!(close(l2_fast, l2_ref), "squared_l2 dim {dim}: {l2_fast} vs {l2_ref}");
        let (dot_fast, dot_ref) = (fast.dot(&a, &b), scalar.dot(&a, &b));
        prop_assert!(close(dot_fast, dot_ref), "dot dim {dim}: {dot_fast} vs {dot_ref}");
    }

    /// TopK's threshold never decreases acceptance wrongly: any candidate
    /// strictly below the threshold is accepted when the heap is full.
    #[test]
    fn topk_threshold_contract(
        items in prop::collection::vec((any::<u64>(), 0.0f32..1e6), 10..100),
        k in 1usize..8,
    ) {
        let mut topk = TopK::new(k);
        for (i, &(id, d)) in items.iter().enumerate() {
            let threshold = topk.threshold();
            let accepted = topk.push(id.wrapping_add(i as u64), d);
            if d < threshold {
                prop_assert!(accepted, "candidate below threshold must be kept");
            }
            if topk.is_full() {
                prop_assert!(topk.threshold() <= threshold, "threshold shrinks monotonically");
            }
        }
        let sorted = topk.into_sorted_vec();
        for w in sorted.windows(2) {
            prop_assert!(w[0].distance <= w[1].distance);
        }
    }

    /// The reservoir against a sort-and-truncate oracle, on streams full of
    /// equal (u16-quantized) distances and NaNs: the same k survive, the
    /// threshold never undercuts the oracle's running k-th distance (NaN
    /// counting as +inf), never rises and moves only when `room` runs
    /// out, and a candidate `would_accept` turns away is never in the
    /// oracle's top k.
    #[test]
    fn topk_matches_sorted_oracle(
        stream in prop::collection::vec((0u16..300, 0u8..24), 1..700),
        k in 1usize..=100,
    ) {
        let mut topk = TopK::new(k);
        let mut oracle: Vec<Neighbor> = Vec::with_capacity(k + 1);
        let mut last = f32::INFINITY;
        for (i, &(q, nan)) in stream.iter().enumerate() {
            let id = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let d = if nan == 0 { f32::NAN } else { f32::from(q) * 0.25 };
            let accept = topk.would_accept(d);
            let (room, before) = (topk.room(), topk.threshold());
            if topk.push(id, d) && room == 1 {
                prop_assert_eq!(topk.room(), k, "a compaction makes room for k");
            } else {
                prop_assert_eq!(topk.threshold().to_bits(), before.to_bits(), "moved without a compaction");
            }
            let n = Neighbor::new(id, d);
            let at = oracle.partition_point(|o| *o < n);
            oracle.insert(at, n);
            oracle.truncate(k);
            if !accept {
                prop_assert!(!oracle.iter().any(|o| o.id == id), "rejected {n:?} is in the top {k}");
            }
            let kth = match oracle.get(k - 1) {
                Some(o) if !o.distance.is_nan() => o.distance,
                _ => f32::INFINITY,
            };
            let threshold = topk.threshold();
            prop_assert!(threshold >= kth, "threshold {threshold} under the k-th {kth}");
            prop_assert!(threshold <= last, "threshold rose from {last} to {threshold}");
            last = threshold;
        }
        let bits = |v: &[Neighbor]| v.iter().map(|n| (n.id, n.distance.to_bits())).collect::<Vec<_>>();
        prop_assert_eq!(bits(&topk.into_sorted_vec()), bits(&oracle));
    }
}
