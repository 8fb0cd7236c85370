//! Ablations of the design choices the paper motivates.
//!
//! - **reuse**: disable the "check the KV store before extracting" path
//!   and re-run the day's additions; the paper credits this optimisation
//!   with "significantly improved response time" (513 M of 521 M
//!   additions reuse features).
//! - **bitmap**: compare logical deletion (one bitmap flip) against a
//!   physical rebuild, for both the delete operation itself and the
//!   subsequent query cost.
//! - **expansion**: the Figure 9 protocol (background copy, double-size
//!   slabs) vs inline copying — append-side worst-case stalls.
//! - **nprobe**: recall@10 vs scan cost as the searcher probes more
//!   inverted lists (the accuracy/latency knob of Section 2.4).

use std::sync::Arc;
use std::time::{Duration, Instant};

use jdvs_core::ids::ImageId;
use jdvs_core::inverted::InvertedList;
use jdvs_core::realtime::RealtimeIndexer;
use jdvs_core::search::recall;
use jdvs_core::{IndexConfig, VisualIndex};
use jdvs_features::cost::{CostDistribution, CostModel};
use jdvs_features::{CachingExtractor, ExtractorConfig, FeatureExtractor};
use jdvs_storage::model::ImageKey;
use jdvs_storage::{FeatureDb, ImageStore};
use jdvs_vector::rng::Xoshiro256;
use jdvs_workload::catalog::{Catalog, CatalogConfig};
use jdvs_workload::events::{DailyPlan, DailyPlanConfig};

use crate::report::ExperimentResult;
use crate::row;

use super::Ctx;

const DIM: usize = 32;

struct DayFixture {
    images: Arc<ImageStore>,
    feature_db: Arc<FeatureDb>,
    extractor: Arc<CachingExtractor>,
    indexer: RealtimeIndexer,
    plan: DailyPlan,
    catalog: Catalog,
}

fn day_fixture(ctx: &Ctx, seed: u64) -> DayFixture {
    let total_events = ctx.scaled(10_000, 500);
    let images = Arc::new(ImageStore::with_blob_len(64));
    let feature_db = Arc::new(FeatureDb::new());
    let extractor = Arc::new(CachingExtractor::new(
        FeatureExtractor::new(ExtractorConfig {
            dim: DIM,
            ..Default::default()
        }),
        // Virtual extraction cost: the quantity the reuse ablation sums.
        CostModel::virtual_time(
            CostDistribution::LogNormal {
                median: Duration::from_millis(400),
                sigma: 0.5,
            },
            seed,
        ),
    ));
    let mut catalog = Catalog::generate(&CatalogConfig {
        num_products: total_events.max(1_000),
        num_clusters: 100,
        seed,
        ..Default::default()
    });
    catalog.materialize(&images);
    let mut training = Vec::new();
    for product in catalog.products().iter().take(1_000) {
        for attrs in product.image_attributes() {
            let (f, _) = extractor.features_for(&attrs, &images, &feature_db);
            training.push(f.expect("materialized"));
        }
    }
    let index = Arc::new(VisualIndex::bootstrap(
        IndexConfig {
            dim: DIM,
            num_lists: 64,
            ..Default::default()
        },
        &training,
    ));
    let indexer = RealtimeIndexer::for_index(
        Arc::clone(&index),
        Arc::clone(&extractor),
        Arc::clone(&images),
        Arc::clone(&feature_db),
    );
    for event in catalog.bootstrap_events() {
        indexer.apply(&event);
    }
    index.flush();
    let plan = DailyPlan::generate(
        &mut catalog,
        &images,
        &DailyPlanConfig {
            total_events,
            seed,
            ..Default::default()
        },
    );
    for pid in plan.predelisted() {
        if let Some(product) = catalog.products().iter().find(|p| p.id == *pid) {
            indexer.apply(&product.remove_event());
        }
    }
    DayFixture {
        images,
        feature_db,
        extractor,
        indexer,
        plan,
        catalog,
    }
}

/// Feature-reuse on vs off over the same day of events.
pub fn reuse(ctx: &Ctx) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "ablate-reuse",
        "Feature reuse on vs off (same daily event stream)",
        "Sections 2.1/3.1: 513 M of 521 M daily additions reuse features; reuse \"significantly improved the response time\"",
    );
    for (label, enabled) in [("reuse_on", true), ("reuse_off", false)] {
        let f = day_fixture(ctx, 0xAB1);
        f.extractor.set_reuse_enabled(enabled);
        let charged_before = f.extractor.cost().total_charged();
        let extractions_before = f.extractor.misses();
        let t0 = Instant::now();
        let mut touched = 0u64;
        for te in f.plan.events() {
            if !enabled {
                // The counterfactual system has no "previously extracted?"
                // check anywhere, so every addition pays extraction before
                // the index is updated (the index's own record map still
                // prevents duplicate entries, as any implementation must).
                if let jdvs_storage::model::ProductEvent::AddProduct { images, .. } = &te.event {
                    for attrs in images {
                        f.extractor.features_for(attrs, &f.images, &f.feature_db);
                    }
                }
            }
            touched += f.indexer.apply(&te.event).touched();
        }
        let wall = t0.elapsed();
        let extraction_cost = f.extractor.cost().total_charged() - charged_before;
        let extractions = f.extractor.misses() - extractions_before;
        r.push_row(row![
            "mode" => label,
            "events" => f.plan.events().len(),
            "images_touched" => touched,
            "extractions" => extractions,
            "virtual_extraction_cost_s" => format!("{:.1}", extraction_cost.as_secs_f64()),
            "replay_wall_ms" => format!("{:.0}", wall.as_secs_f64() * 1e3),
        ]);
        drop(f);
    }
    r.note("reuse_off forces extraction on every addition whose features the DB would have served");
    r
}

/// Logical (bitmap) deletion vs physical rebuild.
pub fn bitmap(ctx: &Ctx) -> ExperimentResult {
    let n_products = ctx.scaled(8_000, 500);
    let f = day_fixture(
        &Ctx {
            scale: n_products as f64 / 10_000.0,
            ..ctx.clone()
        },
        0xB17,
    );
    let index = f.indexer.index();
    let mut rng = Xoshiro256::seed_from(5);

    // Delete 30% of products logically; time the deletions.
    let victims: Vec<_> = f
        .catalog
        .products()
        .iter()
        .filter(|_| rng.next_bool(0.3))
        .cloned()
        .collect();
    let t0 = Instant::now();
    for v in &victims {
        f.indexer.apply(&v.remove_event());
    }
    let logical_delete = t0.elapsed();
    let deleted_images: usize = victims.iter().map(|v| v.urls.len()).sum();

    // Query cost with bitmap filtering.
    let queries: Vec<Vec<f32>> = (0..200)
        .map(|i| {
            let p = &f.catalog.products()[i % f.catalog.len()];
            f.feature_db
                .features(ImageKey::from_url(&p.urls[0]))
                .expect("extracted")
                .into_inner()
        })
        .collect();
    let t0 = Instant::now();
    for q in &queries {
        index.search(q, 10, 8);
    }
    let bitmap_query = t0.elapsed();

    // Physical rebuild: a fresh index containing only surviving images.
    let t0 = Instant::now();
    let rebuilt = Arc::new(VisualIndex::with_quantizers(
        index.config().clone(),
        index.quantizer().clone(),
        None,
    ));
    let victim_ids: std::collections::HashSet<_> = victims.iter().map(|v| v.id).collect();
    for product in f.catalog.products() {
        if victim_ids.contains(&product.id) {
            continue;
        }
        for attrs in product.image_attributes() {
            if let Some(feats) = f.feature_db.features(attrs.image_key()) {
                rebuilt.insert(feats, attrs).expect("rebuild insert");
            }
        }
    }
    rebuilt.flush();
    let physical_rebuild = t0.elapsed();
    let t0 = Instant::now();
    for q in &queries {
        rebuilt.search(q, 10, 8);
    }
    let rebuilt_query = t0.elapsed();

    let mut r = ExperimentResult::new(
        "ablate-bitmap",
        "Validity-bitmap logical deletion vs physical rebuild (30% of catalog deleted)",
        "Sections 2.1/2.3: deletion = one bitmap flip; invalid images are excluded from search; physical cleanup deferred to the weekly full index",
    );
    r.push_row(row![
        "strategy" => "bitmap_logical",
        "delete_images" => deleted_images,
        "delete_total_ms" => format!("{:.3}", logical_delete.as_secs_f64() * 1e3),
        "delete_per_image_us" =>
            format!("{:.2}", logical_delete.as_secs_f64() * 1e6 / deleted_images.max(1) as f64),
        "query_200_ms" => format!("{:.2}", bitmap_query.as_secs_f64() * 1e3),
    ]);
    r.push_row(row![
        "strategy" => "physical_rebuild",
        "delete_images" => deleted_images,
        "delete_total_ms" => format!("{:.3}", physical_rebuild.as_secs_f64() * 1e3),
        "delete_per_image_us" =>
            format!("{:.2}", physical_rebuild.as_secs_f64() * 1e6 / deleted_images.max(1) as f64),
        "query_200_ms" => format!("{:.2}", rebuilt_query.as_secs_f64() * 1e3),
    ]);
    r.note("bitmap deletion is orders of magnitude cheaper; query-side filtering overhead is the (small) gap in query_200_ms");
    r
}

/// Background vs inline inverted-list expansion: append-side stalls.
pub fn expansion(ctx: &Ctx) -> ExperimentResult {
    let n = ctx.scaled(2_000_000, 100_000) as u32;
    let mut r = ExperimentResult::new(
        "ablate-expansion",
        "Inverted-list expansion: background copy (Figure 9) vs inline copy",
        "Section 2.3 Memory Management: double-size slab + background copy keeps appends lock-free and fast",
    );
    for (label, background) in [("background_copy", true), ("inline_copy", false)] {
        let list = InvertedList::new(1_024, background);
        let mut worst = Duration::ZERO;
        let t0 = Instant::now();
        for i in 0..n {
            let s = Instant::now();
            list.append(ImageId(i));
            worst = worst.max(s.elapsed());
        }
        list.flush();
        let total = t0.elapsed();
        r.push_row(row![
            "mode" => label,
            "appends" => n,
            "total_ms" => format!("{:.1}", total.as_secs_f64() * 1e3),
            "ns_per_append" => format!("{:.0}", total.as_secs_f64() * 1e9 / f64::from(n)),
            "worst_single_append_us" => format!("{:.1}", worst.as_secs_f64() * 1e6),
            "expansions" => list.expansions(),
        ]);
    }
    r.note("the paper's protocol bounds the worst single append (no inline O(n) copy on the writer path)");
    r
}

/// Raw-vector scan vs PQ-compressed scan (paper ref \[19\]), both through
/// the engine with every list probed: exact `f32` distances against 4-bit
/// fast-scan codes, re-ranked exactly at two over-fetch ratios.
pub fn pq(ctx: &Ctx) -> ExperimentResult {
    use jdvs_vector::topk::Neighbor;

    const LISTS: usize = 16;
    // 16 nibbles: 8 bytes per code against 128 raw.
    const SUBSPACES: usize = 16;
    const K: usize = 10;
    let n_images = ctx.scaled(20_000, 2_000);
    let images = Arc::new(ImageStore::with_blob_len(64));
    let feature_db = Arc::new(FeatureDb::new());
    let extractor = Arc::new(CachingExtractor::new(
        FeatureExtractor::new(ExtractorConfig {
            dim: DIM,
            jitter: 0.8,
            ..Default::default()
        }),
        CostModel::free(),
    ));
    let catalog = Catalog::generate(&CatalogConfig {
        num_products: n_images / 2,
        num_clusters: 60,
        ..Default::default()
    });
    catalog.materialize(&images);
    let mut pairs = Vec::new();
    for product in catalog.products() {
        for attrs in product.image_attributes() {
            let (f, _) = extractor.features_for(&attrs, &images, &feature_db);
            pairs.push((f.expect("materialized"), attrs));
        }
    }
    let training: Vec<_> = pairs.iter().take(3_000).map(|(v, _)| v.clone()).collect();
    let index = VisualIndex::bootstrap(
        IndexConfig {
            dim: DIM,
            num_lists: LISTS,
            kmeans_iters: 8,
            pq_subspaces: Some(SUBSPACES),
            ..Default::default()
        },
        &training,
    );
    for (v, attrs) in &pairs {
        index.insert(v.clone(), attrs.clone()).expect("insert");
    }
    index.flush();

    let queries: Vec<&[f32]> = pairs
        .iter()
        .step_by(101)
        .take(50)
        .map(|(v, _)| v.as_slice())
        .collect();
    let truth: Vec<Vec<Neighbor>> = queries
        .iter()
        .map(|q| index.brute_force_search(q, K))
        .collect();
    let mut r = ExperimentResult::new(
        "ablate-pq",
        "Raw-vector scan vs product-quantized scan",
        "Related work [19] (Jégou et al.): PQ shrinks scan memory ~8·d/m at bounded recall loss",
    );
    let repeats = if ctx.quick { 2 } else { 10 };
    let mut arm = |mode: &str, bytes: usize, search: &dyn Fn(&[f32]) -> Vec<Neighbor>| {
        let start = Instant::now();
        for _ in 1..repeats {
            for q in &queries {
                std::hint::black_box(search(q));
            }
        }
        let results: Vec<Vec<Neighbor>> = queries.iter().map(|q| search(q)).collect();
        let us = start.elapsed().as_secs_f64() * 1e6 / (repeats * queries.len()) as f64;
        let hits: f64 = results.iter().zip(&truth).map(|(g, t)| recall(g, t)).sum();
        r.push_row(row![
            "mode" => mode,
            "bytes_per_vector" => bytes,
            "recall_at_10" => format!("{:.3}", hits / queries.len() as f64),
            "us_per_query" => format!("{us:.1}"),
        ]);
    };
    arm("raw_f32", DIM * 4, &|q| index.search(q, K, LISTS));
    for rerank in [1, 4] {
        arm(&format!("pq4_rerank{rerank}"), SUBSPACES / 2, &|q| {
            index.search_compressed(q, K, LISTS, rerank)
        });
    }
    r.note(format!(
        "compression {}x over {} vectors of dim {DIM}, all {LISTS} lists probed; rerank 1 ranks the fast-scan shortlist of k exactly",
        DIM * 4 / (SUBSPACES / 2),
        pairs.len()
    ));
    r
}

/// IVF inverted lists vs the multi-probe LSH baseline (refs \[21, 22\]).
pub fn lsh(ctx: &Ctx) -> ExperimentResult {
    use crate::baselines::lsh::{LshConfig, LshIndex};

    let n_images = ctx.scaled(20_000, 2_000);
    let images = Arc::new(ImageStore::with_blob_len(64));
    let feature_db = Arc::new(FeatureDb::new());
    let extractor = Arc::new(CachingExtractor::new(
        FeatureExtractor::new(ExtractorConfig {
            dim: DIM,
            jitter: 1.2,
            ..Default::default()
        }),
        CostModel::free(),
    ));
    let catalog = Catalog::generate(&CatalogConfig {
        num_products: n_images / 2,
        num_clusters: 40,
        ..Default::default()
    });
    catalog.materialize(&images);
    let mut pairs = Vec::new();
    for product in catalog.products() {
        for attrs in product.image_attributes() {
            let (f, _) = extractor.features_for(&attrs, &images, &feature_db);
            pairs.push((f.expect("materialized"), attrs));
        }
    }

    // IVF arm: the paper's index.
    let training: Vec<_> = pairs.iter().take(4_000).map(|(v, _)| v.clone()).collect();
    let ivf = Arc::new(VisualIndex::bootstrap(
        IndexConfig {
            dim: DIM,
            num_lists: 128,
            ..Default::default()
        },
        &training,
    ));
    for (v, attrs) in &pairs {
        ivf.insert(v.clone(), attrs.clone()).expect("insert");
    }
    ivf.flush();

    // LSH arm.
    let lsh = LshIndex::new(LshConfig {
        dim: DIM,
        tables: 8,
        bits: 12,
        seed: 3,
    });
    for (i, (v, _)) in pairs.iter().enumerate() {
        lsh.insert(i as u64, v);
    }

    let queries: Vec<Vec<f32>> = pairs
        .iter()
        .step_by(97)
        .take(60)
        .map(|(v, _)| v.as_slice().to_vec())
        .collect();
    let truths: Vec<Vec<jdvs_vector::topk::Neighbor>> = queries
        .iter()
        .map(|q| ivf.brute_force_search(q, 10))
        .collect();

    let mut r = ExperimentResult::new(
        "ablate-lsh",
        "IVF inverted lists (the paper's design) vs multi-probe LSH baseline",
        "Related work [21, 22]: LSH is the classic hashing alternative to cluster-based indexing",
    );
    for (label, probe_setting) in [("low", 1usize), ("mid", 4), ("high", 16)] {
        // IVF.
        let t0 = Instant::now();
        let mut ivf_recall = 0.0;
        for (q, truth) in queries.iter().zip(&truths) {
            ivf_recall += recall(&ivf.search(q, 10, probe_setting), truth);
        }
        let ivf_time = t0.elapsed();
        // LSH (same probe knob).
        let t0 = Instant::now();
        let mut lsh_recall = 0.0;
        for (q, truth) in queries.iter().zip(&truths) {
            let got = lsh.search(q, 10, probe_setting);
            let got_ids: std::collections::HashSet<u64> = got.iter().map(|n| n.id).collect();
            lsh_recall += truth.iter().filter(|n| got_ids.contains(&n.id)).count() as f64
                / truth.len() as f64;
        }
        let lsh_time = t0.elapsed();
        r.push_row(row![
            "probes" => format!("{label} ({probe_setting})"),
            "ivf_recall" => format!("{:.3}", ivf_recall / queries.len() as f64),
            "ivf_us_per_query" =>
                format!("{:.1}", ivf_time.as_secs_f64() * 1e6 / queries.len() as f64),
            "lsh_recall" => format!("{:.3}", lsh_recall / queries.len() as f64),
            "lsh_us_per_query" =>
                format!("{:.1}", lsh_time.as_secs_f64() * 1e6 / queries.len() as f64),
        ]);
    }
    r.note(format!(
        "{} vectors; LSH: 8 tables x 12 bits; IVF: 128 lists; probe knob = nprobe (IVF) / buckets (LSH)",
        pairs.len()
    ));
    r
}

/// Blender query-feature cache on vs off under viral (heavy-tailed)
/// query traffic.
pub fn cache(ctx: &Ctx) -> ExperimentResult {
    use jdvs_core::IndexConfig as IC;
    use jdvs_search::topology::TopologyConfig;
    use jdvs_workload::client::{ClosedLoopConfig, ClosedLoopDriver};
    use jdvs_workload::queries::QueryGenerator;
    use jdvs_workload::scenario::{ExtractionCost, World, WorldConfig};

    let mut r = ExperimentResult::new(
        "ablate-cache",
        "Blender query-feature cache on vs off (40% viral query traffic)",
        "Extension: query-time extraction dominates response time (Section 2.4); repeated viral queries can skip it",
    );
    let window = ctx.window(Duration::from_millis(1_500));
    for (label, capacity) in [("cache_off", None), ("cache_on", Some(256))] {
        let world = World::build(WorldConfig {
            catalog: jdvs_workload::catalog::CatalogConfig {
                num_products: ctx.scaled(4_000, 500),
                num_clusters: 60,
                ..Default::default()
            },
            topology: TopologyConfig {
                index: IC {
                    dim: DIM,
                    num_lists: 64,
                    ..Default::default()
                },
                num_partitions: 4,
                num_broker_groups: 2,
                query_cache_capacity: capacity,
                ..Default::default()
            },
            extraction_cost: ExtractionCost::Sleep(CostDistribution::Constant(
                Duration::from_millis(8),
            )),
            ..Default::default()
        });
        let generator =
            QueryGenerator::new(world.catalog(), 0xCAC).with_viral(world.images(), 20, 0.4);
        let client = world.client(Duration::from_secs(30));
        let report = ClosedLoopDriver::run(
            &client,
            &generator,
            world.images(),
            ClosedLoopConfig {
                threads: 8,
                duration: window,
                warmup: window.mul_f64(0.2),
                k: 6,
            },
        );
        let cache_stats = world.topology().query_cache_stats();
        r.push_row(row![
            "mode" => label,
            "qps" => format!("{:.1}", report.qps()),
            "mean_ms" => format!("{:.1}", report.mean_ms()),
            "p99_ms" => format!("{:.1}", report.histogram.percentile_us(0.99) as f64 / 1e3),
            "cache_hit_rate" => cache_stats
                .map(|s| format!("{:.2}", s.hit_rate()))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    r.note("40% of queries draw from a 20-image viral pool; extraction costs a constant 8 ms");
    r
}

/// Recall/latency vs nprobe.
///
/// Uses an *overlapping-cluster* feature space (high jitter): with tightly
/// separated families a single probed list already contains the whole
/// top-10 and the sweep degenerates to recall 1.0 everywhere; overlapping
/// neighborhoods straddle IVF cell boundaries, which is the regime the
/// probe knob exists for.
pub fn nprobe(ctx: &Ctx) -> ExperimentResult {
    let n_images = ctx.scaled(20_000, 2_000);
    let images = Arc::new(ImageStore::with_blob_len(64));
    let feature_db = Arc::new(FeatureDb::new());
    let extractor = Arc::new(CachingExtractor::new(
        FeatureExtractor::new(ExtractorConfig {
            dim: DIM,
            jitter: 1.2,
            ..Default::default()
        }),
        CostModel::free(),
    ));
    let catalog = Catalog::generate(&CatalogConfig {
        num_products: n_images / 2,
        num_clusters: 40,
        ..Default::default()
    });
    catalog.materialize(&images);
    let mut vectors = Vec::new();
    for product in catalog.products() {
        for attrs in product.image_attributes() {
            let (f, _) = extractor.features_for(&attrs, &images, &feature_db);
            vectors.push((f.expect("materialized"), attrs));
        }
    }
    let training: Vec<_> = vectors.iter().take(4_000).map(|(v, _)| v.clone()).collect();
    let index = Arc::new(VisualIndex::bootstrap(
        IndexConfig {
            dim: DIM,
            num_lists: 128,
            ..Default::default()
        },
        &training,
    ));
    for (v, attrs) in &vectors {
        index.insert(v.clone(), attrs.clone()).expect("insert");
    }
    index.flush();
    let f_catalog = catalog;
    let num_lists = index.quantizer().k();
    let queries: Vec<Vec<f32>> = (0..100)
        .map(|i| {
            let p = &f_catalog.products()[(i * 7) % f_catalog.len()];
            feature_db
                .features(ImageKey::from_url(&p.urls[0]))
                .expect("extracted")
                .into_inner()
        })
        .collect();
    let ground_truth: Vec<_> = queries
        .iter()
        .map(|q| index.brute_force_search(q, 10))
        .collect();

    let mut r = ExperimentResult::new(
        "ablate-nprobe",
        "Recall@10 and scan cost vs probed inverted lists",
        "Section 2.4: the searcher scans the nearest cluster's list; probing more lists trades latency for recall",
    );
    let mut probe = 1usize;
    while probe <= num_lists {
        let t0 = Instant::now();
        let mut total_recall = 0.0;
        for (q, truth) in queries.iter().zip(&ground_truth) {
            let got = index.search(q, 10, probe);
            total_recall += recall(&got, truth);
        }
        let elapsed = t0.elapsed();
        r.push_row(row![
            "nprobe" => probe,
            "recall_at_10" => format!("{:.3}", total_recall / queries.len() as f64),
            "us_per_query" => format!("{:.1}", elapsed.as_secs_f64() * 1e6 / queries.len() as f64),
        ]);
        probe *= 2;
    }
    r.note(format!(
        "index: {} images across {num_lists} lists",
        index.num_images()
    ));
    r
}
