//! Cross-crate integration: the weekly full-index cycle (Figure 2) and
//! index-snapshot persistence, exercised through the whole stack.

use std::sync::Arc;
use std::time::Duration;

use jdvs::core::persist;
use jdvs::search::SearchQuery;
use jdvs::storage::{ImageKey, ProductEvent, ProductId};
use jdvs::workload::catalog::CatalogConfig;
use jdvs::workload::events::{DailyPlan, DailyPlanConfig};
use jdvs::workload::queries::QueryGenerator;
use jdvs::workload::scenario::{World, WorldConfig};

fn world(products: usize) -> World {
    World::build(WorldConfig {
        catalog: CatalogConfig {
            num_products: products,
            num_clusters: 10,
            ..Default::default()
        },
        ..WorldConfig::fast_test()
    })
}

#[test]
fn online_rebuild_preserves_search_results_for_live_products() {
    let w = world(150);
    let client = w.client(Duration::from_secs(5));
    // Record pre-rebuild top-1 for 10 exact-image queries.
    let queries: Vec<String> = w
        .catalog()
        .products()
        .iter()
        .take(10)
        .map(|p| p.urls[0].clone())
        .collect();
    let before: Vec<ProductId> = queries
        .iter()
        .map(|u| {
            client
                .search(SearchQuery::by_image_url(u.clone(), 1))
                .unwrap()
                .results[0]
                .hit
                .product_id
        })
        .collect();

    for p in 0..w.topology().partition_map().num_partitions() {
        let report = w.topology().rebuild_partition(p);
        assert_eq!(report.partition, p);
        assert!(
            report.messages_replayed > 0,
            "the bootstrap log must be replayed"
        );
    }

    let after: Vec<ProductId> = queries
        .iter()
        .map(|u| {
            client
                .search(SearchQuery::by_image_url(u.clone(), 1))
                .unwrap()
                .results[0]
                .hit
                .product_id
        })
        .collect();
    assert_eq!(
        before, after,
        "rebuild must not change results for live products"
    );
}

#[test]
fn rebuild_reclaims_deleted_records_and_realtime_continues() {
    let w = world(100);
    // Delete a third of the catalog.
    let victims: Vec<_> = w.catalog().products().iter().step_by(3).cloned().collect();
    for v in &victims {
        w.topology().publish(v.remove_event());
    }
    w.topology().wait_for_freshness(Duration::from_secs(60));

    let records_before: usize = w
        .topology()
        .indexes()
        .iter()
        .map(|row| row[0].num_images())
        .sum();
    let valid_before: usize = w
        .topology()
        .indexes()
        .iter()
        .map(|row| row[0].valid_images())
        .sum();
    assert!(
        records_before > valid_before,
        "logical deletions must be pending"
    );

    for p in 0..w.topology().partition_map().num_partitions() {
        w.topology().rebuild_partition(p);
    }

    let records_after: usize = w
        .topology()
        .indexes()
        .iter()
        .map(|row| row[0].num_images())
        .sum();
    let valid_after: usize = w
        .topology()
        .indexes()
        .iter()
        .map(|row| row[0].valid_images())
        .sum();
    assert_eq!(valid_after, valid_before, "valid set unchanged");
    assert_eq!(records_after, valid_after, "all dead records reclaimed");

    // Real-time path still live: re-list a victim, then find it.
    let victim = &victims[0];
    w.topology().publish(victim.add_event());
    w.topology().wait_for_freshness(Duration::from_secs(60));
    let client = w.client(Duration::from_secs(5));
    let resp = client
        .search(SearchQuery::by_image_url(victim.urls[0].clone(), 1))
        .unwrap();
    assert_eq!(resp.results[0].hit.product_id, victim.id);
}

#[test]
fn rebuild_under_concurrent_queries_never_errors() {
    let w = Arc::new(world(120));
    let client = w.client(Duration::from_secs(10));
    let generator = QueryGenerator::new(w.catalog(), 3);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let w2 = Arc::clone(&w);
    let stop2 = Arc::clone(&stop);
    let querier = std::thread::spawn(move || {
        let mut ok = 0u64;
        while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
            let (q, _) = generator.next_query(w2.images(), 3);
            let resp = client
                .search(q)
                .expect("queries must not error during rebuild");
            if !resp.results.is_empty() {
                ok += 1;
            }
        }
        ok
    });
    for p in 0..w.topology().partition_map().num_partitions() {
        w.topology().rebuild_partition(p);
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let ok = querier.join().unwrap();
    assert!(ok > 0, "queries must keep succeeding during the rebuild");
}

#[test]
fn rebuild_after_a_day_of_churn_converges_with_the_log() {
    let mut w = world(400);
    let store = Arc::clone(w.images());
    let plan = DailyPlan::generate(
        w.catalog_mut(),
        &store,
        &DailyPlanConfig {
            total_events: 800,
            seed: 9,
            ..Default::default()
        },
    );
    w.start_update_stream(plan.events().to_vec(), 0).join();
    w.topology().wait_for_freshness(Duration::from_secs(60));

    let valid_before: usize = w
        .topology()
        .indexes()
        .iter()
        .map(|row| row[0].valid_images())
        .sum();
    for p in 0..w.topology().partition_map().num_partitions() {
        w.topology().rebuild_partition(p);
    }
    let valid_after: usize = w
        .topology()
        .indexes()
        .iter()
        .map(|row| row[0].valid_images())
        .sum();
    assert_eq!(
        valid_before, valid_after,
        "log replay reproduces the live valid set"
    );
}

#[test]
fn snapshot_of_live_partition_round_trips_through_bytes() {
    let w = world(80);
    let index = w.topology().index(0, 0);
    let bytes = persist::save(&index);
    assert!(!bytes.is_empty());
    let restored = persist::load(&bytes, index.config()).expect("round trip");
    assert_eq!(restored.num_images(), index.num_images());
    assert_eq!(restored.valid_images(), index.valid_images());
    // Same search behaviour on the restored copy.
    for product in w.catalog().products().iter().take(20) {
        let key = ImageKey::from_url(&product.urls[0]);
        if let Some(id) = index.lookup(key) {
            let feats = index.features(id).unwrap();
            assert_eq!(
                index.search(feats.as_slice(), 5, 8),
                restored.search(feats.as_slice(), 5, 8),
                "query for {}",
                product.urls[0]
            );
        }
    }
}

#[test]
fn generation_counter_tracks_rebuilds_per_partition() {
    let w = world(60);
    assert_eq!(w.topology().handle(0, 0).generation(), 0);
    w.topology().rebuild_partition(0);
    w.topology().rebuild_partition(0);
    assert_eq!(w.topology().handle(0, 0).generation(), 2);
    assert_eq!(w.topology().handle(1, 0).generation(), 0);
    let report = w.topology().ops_report();
    let gen0 = report
        .partitions
        .iter()
        .find(|p| p.partition == 0 && p.replica == 0)
        .unwrap()
        .generation;
    assert_eq!(gen0, 2);
}

#[test]
fn events_between_rebuilds_are_never_lost() {
    let w = world(60);
    // Interleave: event, rebuild, event, rebuild — both events must stick.
    let url_a = "late/a.jpg".to_string();
    let url_b = "late/b.jpg".to_string();
    w.images().put_synthetic(&url_a, 2);
    w.images().put_synthetic(&url_b, 3);
    w.topology().publish(ProductEvent::AddProduct {
        product_id: ProductId(900_001),
        images: vec![jdvs::storage::ProductAttributes::new(
            ProductId(900_001),
            1,
            1,
            1,
            url_a.clone(),
        )],
    });
    w.topology().wait_for_freshness(Duration::from_secs(60));
    for p in 0..2 {
        w.topology().rebuild_partition(p);
    }
    w.topology().publish(ProductEvent::AddProduct {
        product_id: ProductId(900_002),
        images: vec![jdvs::storage::ProductAttributes::new(
            ProductId(900_002),
            1,
            1,
            1,
            url_b.clone(),
        )],
    });
    w.topology().wait_for_freshness(Duration::from_secs(60));
    for p in 0..2 {
        w.topology().rebuild_partition(p);
    }
    let client = w.client(Duration::from_secs(5));
    for (url, pid) in [(url_a, 900_001), (url_b, 900_002)] {
        let resp = client
            .search(SearchQuery::by_image_url(url.clone(), 1))
            .unwrap();
        assert_eq!(
            resp.results[0].hit.product_id,
            ProductId(pid),
            "{url} must survive both rebuilds"
        );
    }
}

/// A panic inside a lifecycle operation must not leave ingestion paused:
/// the rebuild below hits the cold-path assert (the queue starts at offset
/// 5, nothing checkpointed its prefix), and a new event must still become
/// searchable — the quiesce guard resumes the partition while unwinding.
#[test]
fn panicking_rebuild_resumes_ingestion() {
    use jdvs::core::IndexConfig;
    use jdvs::features::cost::CostModel;
    use jdvs::features::{CachingExtractor, ExtractorConfig, FeatureExtractor};
    use jdvs::search::topology::{SearchTopology, TopologyConfig};
    use jdvs::search::RankingPolicy;
    use jdvs::storage::{FeatureDb, ImageStore, MessageQueue};
    use jdvs::vector::rng::Xoshiro256;
    use jdvs::vector::Vector;

    const DIM: usize = 8;
    let images = Arc::new(ImageStore::with_blob_len(64));
    let extractor = Arc::new(CachingExtractor::new(
        FeatureExtractor::new(ExtractorConfig {
            dim: DIM,
            ..Default::default()
        }),
        CostModel::free(),
    ));
    let mut rng = Xoshiro256::seed_from(3);
    let training: Vec<Vector> = (0..32)
        .map(|_| (0..DIM).map(|_| rng.next_gaussian() as f32).collect())
        .collect();
    let topology = SearchTopology::build(
        TopologyConfig {
            index: IndexConfig {
                dim: DIM,
                num_lists: 2,
                ..Default::default()
            },
            num_partitions: 2,
            num_broker_groups: 1,
            ranking: RankingPolicy::similarity_only(),
            ..Default::default()
        },
        extractor,
        Arc::clone(&images),
        Arc::new(FeatureDb::new()),
        &training,
        MessageQueue::with_base(5),
    );

    let rebuild = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        topology.rebuild_partition(0)
    }));
    assert!(rebuild.is_err(), "a cold rebuild over a pruned log asserts");

    let url = "after/panic.jpg".to_string();
    images.put_synthetic(&url, 1);
    topology.publish(ProductEvent::AddProduct {
        product_id: ProductId(800_001),
        images: vec![jdvs::storage::ProductAttributes::new(
            ProductId(800_001),
            1,
            1,
            1,
            url,
        )],
    });
    topology.wait_for_freshness(Duration::from_secs(3));
}
