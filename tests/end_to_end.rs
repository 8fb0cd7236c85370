//! Cross-crate integration: full pipeline correctness.
//!
//! These tests exercise catalog → extraction → full index build → search
//! across every crate, checking ANN results against brute-force ground
//! truth and the full/real-time index builds against each other.

use std::sync::Arc;
use std::time::Duration;

use jdvs::core::full::FullIndexBuilder;
use jdvs::core::realtime::RealtimeIndexer;
use jdvs::core::search::recall;
use jdvs::core::{IndexConfig, VisualIndex};
use jdvs::features::cost::CostModel;
use jdvs::features::{CachingExtractor, ExtractorConfig, FeatureExtractor};
use jdvs::storage::{FeatureDb, ImageKey, ImageStore, MessageQueue, ProductEvent};
use jdvs::vector::Vector;
use jdvs::workload::catalog::{Catalog, CatalogConfig};

const DIM: usize = 16;

struct Pipeline {
    images: Arc<ImageStore>,
    feature_db: Arc<FeatureDb>,
    extractor: Arc<CachingExtractor>,
    catalog: Catalog,
}

fn pipeline(products: usize, seed: u64) -> Pipeline {
    let images = Arc::new(ImageStore::with_blob_len(64));
    let feature_db = Arc::new(FeatureDb::new());
    let extractor = Arc::new(CachingExtractor::new(
        FeatureExtractor::new(ExtractorConfig {
            dim: DIM,
            ..Default::default()
        }),
        CostModel::free(),
    ));
    let catalog = Catalog::generate(&CatalogConfig {
        num_products: products,
        num_clusters: 10,
        seed,
        ..Default::default()
    });
    catalog.materialize(&images);
    Pipeline {
        images,
        feature_db,
        extractor,
        catalog,
    }
}

fn index_config() -> IndexConfig {
    IndexConfig {
        dim: DIM,
        num_lists: 8,
        nprobe: 8,
        initial_list_capacity: 8,
        ..Default::default()
    }
}

/// The empty index a full build fills: quantizers trained once on every
/// catalog image (extracted outside the cache, so no build's extraction
/// count sees it), as a topology trains them before any build.
fn empty_index(p: &Pipeline) -> VisualIndex {
    let training: Vec<Vector> = p
        .catalog
        .products()
        .iter()
        .flat_map(|product| product.image_attributes())
        .map(|attrs| {
            let blob = p.images.get(attrs.image_key()).expect("materialized");
            p.extractor.extractor().extract(&blob)
        })
        .collect();
    VisualIndex::bootstrap(index_config(), &training)
}

#[test]
fn full_index_build_then_ann_matches_brute_force() {
    let p = pipeline(150, 1);
    let builder = FullIndexBuilder::new(
        Arc::clone(&p.extractor),
        Arc::clone(&p.images),
        Arc::clone(&p.feature_db),
    );
    let log = p.catalog.bootstrap_events();
    let (index, report) = builder.build(empty_index(&p), &log);
    assert_eq!(report.images_indexed as usize, p.catalog.num_images());

    // Full-probe ANN must equal brute force for 20 random stored images.
    for product in p.catalog.products().iter().take(20) {
        let key = ImageKey::from_url(&product.urls[0]);
        let id = index.lookup(key).expect("indexed");
        let feats = index.features(id).unwrap();
        let ann = index.search(feats.as_slice(), 10, 8);
        let exact = index.brute_force_search(feats.as_slice(), 10);
        assert_eq!(recall(&ann, &exact), 1.0, "full probe must be exact");
        assert_eq!(ann[0].id, id.as_u64(), "self-match first");
    }
}

#[test]
fn realtime_index_converges_to_full_index_state() {
    // Apply the same day of events through (a) the full indexer's replay
    // and (b) the real-time indexer event by event; final searchable sets
    // must agree.
    let p = pipeline(80, 2);
    let mut log = p.catalog.bootstrap_events();
    // Delist every 5th product, update every 7th.
    for (i, product) in p.catalog.products().iter().enumerate() {
        if i % 5 == 0 {
            log.push(product.remove_event());
        }
        if i % 7 == 0 {
            log.push(ProductEvent::UpdateAttributes {
                product_id: product.id,
                urls: product.urls.clone(),
                sales: Some(123_456),
                price: None,
                praise: None,
            });
        }
    }

    // (a) full build.
    let builder = FullIndexBuilder::new(
        Arc::clone(&p.extractor),
        Arc::clone(&p.images),
        Arc::clone(&p.feature_db),
    );
    let (full_index, _) = builder.build(empty_index(&p), &log);

    // (b) real-time replay into an index bootstrapped with the same
    // quantizer (as production distributes the weekly centroids).
    let rt_index = Arc::new(jdvs::core::VisualIndex::with_quantizers(
        index_config(),
        full_index.quantizer().clone(),
        None,
    ));
    let indexer = RealtimeIndexer::for_index(
        Arc::clone(&rt_index),
        Arc::clone(&p.extractor),
        Arc::clone(&p.images),
        Arc::clone(&p.feature_db),
    );
    for event in &log {
        indexer.apply(event);
    }
    rt_index.flush();

    assert_eq!(full_index.valid_images(), rt_index.valid_images());
    // Every valid image of the full index is valid in the RT index with
    // identical attributes.
    for product in p.catalog.products() {
        for url in &product.urls {
            let key = ImageKey::from_url(url);
            let full_id = full_index.lookup(key);
            let rt_id = rt_index.lookup(key);
            match (full_id, rt_id) {
                (Some(f), Some(r)) => {
                    assert_eq!(
                        full_index.is_valid(f),
                        rt_index.is_valid(r),
                        "validity for {url}"
                    );
                    if full_index.is_valid(f) {
                        assert_eq!(
                            full_index.attributes(f).unwrap(),
                            rt_index.attributes(r).unwrap(),
                            "attributes for {url}"
                        );
                    }
                }
                (None, Some(r)) => {
                    // Full index drops images invalid at end of day; the RT
                    // index keeps the record but it must be invalid.
                    assert!(!rt_index.is_valid(r), "{url} must be invalid in RT index");
                }
                (f, r) => panic!("lookup disagreement for {url}: {f:?} vs {r:?}"),
            }
        }
    }
}

#[test]
fn searches_agree_between_full_and_realtime_indexes() {
    let p = pipeline(100, 3);
    let log = p.catalog.bootstrap_events();
    let builder = FullIndexBuilder::new(
        Arc::clone(&p.extractor),
        Arc::clone(&p.images),
        Arc::clone(&p.feature_db),
    );
    let (full_index, _) = builder.build(empty_index(&p), &log);
    let rt_index = Arc::new(jdvs::core::VisualIndex::with_quantizers(
        index_config(),
        full_index.quantizer().clone(),
        None,
    ));
    let indexer = RealtimeIndexer::for_index(
        Arc::clone(&rt_index),
        Arc::clone(&p.extractor),
        Arc::clone(&p.images),
        Arc::clone(&p.feature_db),
    );
    for event in &log {
        indexer.apply(event);
    }
    rt_index.flush();

    for product in p.catalog.products().iter().take(15) {
        let key = ImageKey::from_url(&product.urls[0]);
        let feats = p.feature_db.features(key).unwrap();
        let a = full_index.search(feats.as_slice(), 5, 8);
        let b = rt_index.search(feats.as_slice(), 5, 8);
        // Image ids may differ between the two indexes (insertion order),
        // so compare by URL.
        let urls_a: Vec<String> = a
            .iter()
            .map(|n| {
                full_index
                    .attributes(jdvs::core::ids::ImageId(n.id as u32))
                    .unwrap()
                    .url
            })
            .collect();
        let urls_b: Vec<String> = b
            .iter()
            .map(|n| {
                rt_index
                    .attributes(jdvs::core::ids::ImageId(n.id as u32))
                    .unwrap()
                    .url
            })
            .collect();
        assert_eq!(urls_a, urls_b, "query on {:?}", product.urls[0]);
    }
}

#[test]
fn feature_extraction_happens_exactly_once_per_image() {
    let p = pipeline(60, 4);
    let log = p.catalog.bootstrap_events();
    let builder = FullIndexBuilder::new(
        Arc::clone(&p.extractor),
        Arc::clone(&p.images),
        Arc::clone(&p.feature_db),
    );
    let (_, r1) = builder.build(empty_index(&p), &log);
    assert_eq!(r1.extractions as usize, p.catalog.num_images());
    // A second build and a full real-time replay extract nothing.
    let (full2, r2) = builder.build(empty_index(&p), &log);
    assert_eq!(r2.extractions, 0);
    let rt_index = Arc::new(jdvs::core::VisualIndex::with_quantizers(
        index_config(),
        full2.quantizer().clone(),
        None,
    ));
    let indexer = RealtimeIndexer::for_index(
        rt_index,
        Arc::clone(&p.extractor),
        Arc::clone(&p.images),
        Arc::clone(&p.feature_db),
    );
    let misses_before = p.extractor.misses();
    for event in &log {
        indexer.apply(event);
    }
    assert_eq!(
        p.extractor.misses(),
        misses_before,
        "replay reuses every feature"
    );
}

#[test]
fn realtime_indexer_applies_from_live_queue() {
    let p = pipeline(40, 5);
    let queue: MessageQueue<ProductEvent> = MessageQueue::new();
    // Train on the catalog's extracted features.
    let mut training = Vec::new();
    for product in p.catalog.products() {
        for attrs in product.image_attributes() {
            let (f, _) = p.extractor.features_for(&attrs, &p.images, &p.feature_db);
            training.push(f.unwrap());
        }
    }
    let index = Arc::new(jdvs::core::VisualIndex::bootstrap(
        index_config(),
        &training,
    ));
    let indexer = RealtimeIndexer::for_index(
        Arc::clone(&index),
        Arc::clone(&p.extractor),
        Arc::clone(&p.images),
        Arc::clone(&p.feature_db),
    );
    let mut consumer = queue.consumer();
    for e in p.catalog.bootstrap_events() {
        queue.publish(e);
    }
    let stop = std::sync::atomic::AtomicBool::new(true); // drain mode
    let report = indexer.run(&mut consumer, &stop, Duration::from_millis(1));
    assert_eq!(report.inserted as usize, p.catalog.num_images());
    assert_eq!(index.valid_images(), p.catalog.num_images());
}
