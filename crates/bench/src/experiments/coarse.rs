//! The hierarchical-coarse-quantizer experiment: centroid-assignment cost
//! at catalog scale, flat scan vs graph beam search.
//!
//! Builds a 1M-vector / 10k-list world (paper scale for one searcher
//! partition), trains one imbalance-aware quantizer, and sweeps the beam
//! width of the centroid graph against the flat baseline. For each beam
//! the experiment records:
//!
//! - centroid-assignment latency (the component the hierarchy targets),
//! - end-to-end query latency through the same inverted-list scan,
//! - recall@10 parity against the flat probe set.
//!
//! Two gates run before any timing: the exhaustive-beam differential
//! check (a beam at or above `k` must reproduce the flat scan's probe
//! sets bit-exactly) and the recall gate (the default beam must hold at
//! least 0.95 recall@10 parity). The acceptance bar — at least 5x
//! assignment speedup at the recall frontier — is asserted on
//! full-scale runs.

use std::collections::HashSet;
use std::time::Instant;

use jdvs_core::index::train_quantizers;
use jdvs_core::search;
use jdvs_core::{IndexConfig, VisualIndex};
use jdvs_storage::model::{ProductAttributes, ProductId};
use jdvs_vector::rng::Xoshiro256;
use jdvs_vector::simd;
use jdvs_vector::Vector;

use crate::report::ExperimentResult;
use crate::row;

use super::Ctx;

const DIM: usize = 128;
const K: usize = 10;
const NPROBE: usize = 16;
const DEFAULT_BEAM: usize = 32;
const BALANCE: f64 = 1.5;
const NUM_QUERIES: usize = 100;

/// Per-query mean latency of `f` over `queries`, repeated `repeats` times.
fn measure(queries: &[Vector], repeats: usize, mut f: impl FnMut(&[f32]) -> usize) -> f64 {
    let mut sink = 0usize;
    let t0 = Instant::now();
    for _ in 0..repeats {
        for q in queries {
            sink = sink.wrapping_add(f(q.as_slice()));
        }
    }
    let elapsed = t0.elapsed();
    assert!(sink > 0, "measured path returned no results");
    elapsed.as_secs_f64() * 1e6 / (repeats * queries.len()) as f64
}

/// Clustered catalog features: `families` latent product families, each
/// vector a family center plus per-item noise. Matches how real visual
/// embeddings cluster (items of a family look alike) so the coarse
/// quantizer has structure to exploit, unlike iid gaussians.
fn clustered(rng: &mut Xoshiro256, centers: &[Vector], n: usize) -> Vec<Vector> {
    (0..n)
        .map(|_| {
            let c = &centers[(rng.next_u64() as usize) % centers.len()];
            c.as_slice()
                .iter()
                .map(|&x| x + 0.35 * rng.next_gaussian() as f32)
                .collect()
        })
        .collect()
}

/// Mean fraction of reference result ids recovered, per query.
fn recall_at_k(reference: &[Vec<u64>], got: &[Vec<u64>]) -> f64 {
    let mut total = 0.0;
    for (r, g) in reference.iter().zip(got) {
        if r.is_empty() {
            continue;
        }
        let want: HashSet<u64> = r.iter().copied().collect();
        total += g.iter().filter(|id| want.contains(id)).count() as f64 / r.len() as f64;
    }
    total / reference.len() as f64
}

/// `coarse`: hierarchical coarse quantizer vs flat centroid scan at
/// 1M-vector / 10k-list scale.
pub fn coarse(ctx: &Ctx) -> ExperimentResult {
    let n_vectors = ctx.scaled(1_000_000, 20_000);
    let num_lists = ctx.scaled(10_000, 256);
    let n_families = (num_lists / 4).max(32);
    let mut rng = Xoshiro256::seed_from(0xC0A5);

    let centers: Vec<Vector> = (0..n_families)
        .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
        .collect();
    let data = clustered(&mut rng, &centers, n_vectors);
    let queries = clustered(&mut rng, &centers, NUM_QUERIES);

    // One imbalance-aware training pass on a bounded sample (the full
    // indexer trains once and distributes the table); `flat` keeps the
    // linear scan, `graphed` carries the centroid graph.
    let sample_len = (3 * num_lists).min(n_vectors);
    let t0 = Instant::now();
    let (flat, _) = train_quantizers(
        &IndexConfig {
            dim: DIM,
            num_lists,
            kmeans_iters: 4,
            seed: 0xC0A5,
            coarse_balance_factor: BALANCE,
            ..Default::default()
        },
        &data[..sample_len],
    );
    let train_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let graphed = flat.clone().with_coarse_graph(DEFAULT_BEAM);
    let graph_build_s = t0.elapsed().as_secs_f64();
    let graph_bytes = graphed.coarse_graph().expect("graph built").memory_bytes();

    // Populate one searcher partition through the graph-assisted insert
    // path (this alone is what makes a 1M build tractable: every insert
    // is a centroid assignment).
    let config = IndexConfig {
        dim: DIM,
        num_lists: flat.k(),
        initial_list_capacity: 64,
        coarse_beam_width: DEFAULT_BEAM,
        coarse_balance_factor: BALANCE,
        ..Default::default()
    };
    let t0 = Instant::now();
    let index = VisualIndex::with_quantizers(config, graphed.clone(), None);
    for (i, v) in data.iter().enumerate() {
        index
            .insert(
                v.clone(),
                ProductAttributes::new(ProductId(i as u64), 0, 0, 0, format!("coarse/u{i}")),
            )
            .expect("insert");
    }
    index.flush();
    let build_s = t0.elapsed().as_secs_f64();

    // Gate 1 (differential): an exhaustive beam must reproduce the flat
    // scan's probe sets bit-exactly — order included.
    let exhaustive = flat.clone().with_coarse_graph(flat.k());
    for q in queries.iter().take(16) {
        assert_eq!(
            exhaustive.assign_multi(q.as_slice(), NPROBE),
            flat.assign_multi(q.as_slice(), NPROBE),
            "exhaustive beam diverged from flat scan"
        );
    }

    // Flat-probe reference results for every query: the parity baseline
    // every beam's recall is measured against.
    let flat_ids: Vec<Vec<u64>> = queries
        .iter()
        .map(|q| {
            let probes = flat.assign_multi(q.as_slice(), NPROBE);
            search::ann_search_with_probes(&index, q.as_slice(), K, &probes)
                .into_iter()
                .map(|n| n.id)
                .collect()
        })
        .collect();

    // Gate 2 (recall): the default beam must hold the parity bar before
    // anything is timed.
    let default_ids: Vec<Vec<u64>> = queries
        .iter()
        .map(|q| {
            let probes = graphed.assign_multi(q.as_slice(), NPROBE);
            search::ann_search_with_probes(&index, q.as_slice(), K, &probes)
                .into_iter()
                .map(|n| n.id)
                .collect()
        })
        .collect();
    let default_recall = recall_at_k(&flat_ids, &default_ids);
    assert!(
        default_recall >= 0.95,
        "default beam {DEFAULT_BEAM} recall@{K} {default_recall:.3} below the 0.95 parity bar"
    );

    let repeats = if ctx.quick { 5 } else { 20 };
    let flat_assign_us = measure(&queries, repeats, |q| flat.assign_multi(q, NPROBE).len());
    let flat_e2e_us = measure(&queries, repeats, |q| {
        let probes = flat.assign_multi(q, NPROBE);
        search::ann_search_with_probes(&index, q, K, &probes).len()
    });

    let mut r = ExperimentResult::new(
        "coarse",
        "Hierarchical coarse quantizer: centroid assignment vs flat scan at 10k lists",
        "Section 2.4: sub-linear coarse quantization keeps assignment off the critical path as the catalog and list count grow",
    );
    r.push_row(row![
        "variant" => "flat-scan",
        "assign_us_per_query" => format!("{flat_assign_us:.1}"),
        "assign_speedup" => "1.00",
        "recall_at_10" => "1.000",
        "e2e_us_per_query" => format!("{flat_e2e_us:.1}"),
        "e2e_speedup" => "1.00",
    ]);

    // The frontier sweep. Beams below nprobe clamp to nprobe (effective
    // beam is max(beam, nprobe)), so the sweep starts there.
    let mut frontier_speedup = 0.0f64;
    for beam in [NPROBE, 32, 64, 128, 256] {
        if beam > flat.k() {
            continue;
        }
        let model = flat.clone().with_coarse_graph(beam);
        let ids: Vec<Vec<u64>> = queries
            .iter()
            .map(|q| {
                let probes = model.assign_multi(q.as_slice(), NPROBE);
                search::ann_search_with_probes(&index, q.as_slice(), K, &probes)
                    .into_iter()
                    .map(|n| n.id)
                    .collect()
            })
            .collect();
        let recall = recall_at_k(&flat_ids, &ids);
        let assign_us = measure(&queries, repeats, |q| model.assign_multi(q, NPROBE).len());
        let e2e_us = measure(&queries, repeats, |q| {
            let probes = model.assign_multi(q, NPROBE);
            search::ann_search_with_probes(&index, q, K, &probes).len()
        });
        let speedup = flat_assign_us / assign_us;
        if recall >= 0.95 {
            frontier_speedup = frontier_speedup.max(speedup);
        }
        r.push_row(row![
            "variant" => format!("beam-{beam}"),
            "assign_us_per_query" => format!("{assign_us:.1}"),
            "assign_speedup" => format!("{speedup:.2}"),
            "recall_at_10" => format!("{recall:.3}"),
            "e2e_us_per_query" => format!("{e2e_us:.1}"),
            "e2e_speedup" => format!("{:.2}", flat_e2e_us / e2e_us),
        ]);
    }

    r.note(format!(
        "{n_vectors} vectors, dim {DIM}, {} lists, nprobe {NPROBE}, k {K}, {n_families} latent families; active kernel: {}",
        flat.k(),
        simd::active().name()
    ));
    r.note(format!(
        "quantizer: trained on {sample_len} samples in {train_s:.1}s (balance factor {BALANCE}); centroid graph built in {graph_build_s:.2}s; graph-assisted population of {n_vectors} vectors in {build_s:.1}s"
    ));
    r.note(format!(
        "centroid graph memory: {graph_bytes} bytes total, {:.1} bytes/centroid, {:.3} bytes per indexed vector",
        graph_bytes as f64 / flat.k() as f64,
        graph_bytes as f64 / n_vectors as f64
    ));
    r.note(format!(
        "best assignment speedup at >= 0.95 recall@{K} parity: {frontier_speedup:.2}x (acceptance bar: >= 5x at full scale)"
    ));
    r.note(
        "gated before timing: exhaustive beam bit-identical to flat scan; default beam >= 0.95 recall@10 parity"
            .to_string(),
    );
    assert!(
        ctx.quick || ctx.scale < 1.0 || frontier_speedup >= 5.0,
        "assignment speedup {frontier_speedup:.2}x at the recall frontier is below the 5x acceptance bar"
    );
    r
}
