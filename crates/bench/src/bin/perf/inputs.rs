//! Everything the program is fed, generated from `--seed` alone: catalog
//! images and attributes, the query pool, the filter threshold and the
//! catalog event stream. Nothing here calls `jdvs-workload`, and the
//! `inputs_fingerprint` hashes every generated byte, so a workspace change
//! cannot move the yardstick unnoticed.
//!
//! Feature vectors are not generated here: they are what the program's own
//! extractor makes of these image bytes, at index build for the catalog and
//! at query time for URL queries.

use jdvs_storage::model::{ProductAttributes, ProductEvent, ProductId};

use crate::rng::{Fingerprint, Rng};

/// Bytes per synthetic image blob (what the blender fetches and hashes for a
/// URL query).
pub const BLOB_LEN: usize = 256;

/// How many inputs of each kind one workload needs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub products: usize,
    /// Products per visual cluster; a query's true neighbours are its
    /// cluster's images, so this sets how many near-ties the scan sees.
    pub products_per_cluster: usize,
    pub queries: usize,
    pub events: usize,
    /// Every n-th event is a probe (a brand-new product with one image).
    pub probe_every: usize,
}

#[derive(Debug, Clone)]
pub struct Image {
    pub url: String,
    pub bytes: Vec<u8>,
}

#[derive(Debug, Clone)]
pub struct Product {
    pub id: u64,
    /// Visual cluster: images of one cluster extract to nearby vectors.
    pub cluster: u64,
    pub category: u32,
    pub in_stock: bool,
    pub sales: u64,
    pub price: u64,
    pub praise: u64,
    pub images: Vec<Image>,
    /// Indexed, then logically deleted before serving starts.
    pub predeleted: bool,
}

impl Product {
    pub fn attributes(&self, sales: u64, price: u64, praise: u64) -> Vec<ProductAttributes> {
        self.images
            .iter()
            .map(|image| {
                ProductAttributes::new(ProductId(self.id), sales, price, praise, image.url.clone())
                    .with_category(self.category)
                    .with_stock(self.in_stock)
            })
            .collect()
    }

    fn urls(&self) -> Vec<String> {
        self.images.iter().map(|i| i.url.clone()).collect()
    }
}

#[derive(Debug, Clone)]
pub struct Query {
    pub url: String,
    pub cluster: u64,
    pub bytes: Vec<u8>,
}

/// Where an event's product lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    Catalog(usize),
    /// Index into [`Inputs::fresh`]: products the stream introduces.
    Fresh(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Update,
    Relist,
    New,
    Remove,
    Probe,
}

#[derive(Debug, Clone)]
pub struct Event {
    pub kind: Kind,
    pub target: Target,
    /// Attributes after the event, for the model (`None`: unchanged).
    pub price: Option<u64>,
    pub event: ProductEvent,
}

#[derive(Debug)]
pub struct Inputs {
    pub catalog: Vec<Product>,
    pub queries: Vec<Query>,
    /// `min_sales` admitting about 5% of catalog products.
    pub min_sales: u64,
    pub events: Vec<Event>,
    pub fresh: Vec<Product>,
    pub fingerprint: u64,
}

fn image(rng: &mut Rng, url: String) -> Image {
    Image {
        url,
        bytes: rng.bytes(BLOB_LEN),
    }
}

fn product(rng: &mut Rng, seed: u64, id: u64, cluster: u64, images: usize) -> Product {
    let u = rng.unit();
    Product {
        id,
        cluster,
        category: (cluster % 32) as u32,
        in_stock: rng.unit() < 0.9,
        // Heavy-tailed, as sales counts are.
        sales: (100_000.0 * u * u * u) as u64,
        price: 99 + rng.below(1_000_000),
        praise: rng.below(10_000),
        images: (0..images)
            .map(|j| {
                image(
                    rng,
                    format!("https://img.perf.test/{seed:x}/sku/{id}/{j}.jpg"),
                )
            })
            .collect(),
        predeleted: false,
    }
}

impl Inputs {
    pub fn generate(seed: u64, shape: &Shape) -> Inputs {
        let clusters = (shape.products / shape.products_per_cluster).max(1) as u64;

        let mut rng = Rng::stream(seed, 1);
        let mut catalog: Vec<Product> = (0..shape.products)
            .map(|i| {
                let cluster = rng.below(clusters);
                let images = 1 + rng.below(3) as usize;
                product(&mut rng, seed, i as u64 + 1, cluster, images)
            })
            .collect();
        for p in &mut catalog {
            p.predeleted = rng.unit() < 0.05;
        }

        let mut sales: Vec<u64> = catalog.iter().map(|p| p.sales).collect();
        sales.sort_unstable();
        let min_sales = sales[sales.len() * 95 / 100];

        let mut rng = Rng::stream(seed, 2);
        let queries: Vec<Query> = (0..shape.queries)
            .map(|i| {
                let like = &catalog[rng.below(catalog.len() as u64) as usize];
                Query {
                    url: format!("https://img.perf.test/{seed:x}/query/{i}.jpg"),
                    cluster: like.cluster,
                    bytes: rng.bytes(BLOB_LEN),
                }
            })
            .collect();

        // The paper's Table 1 mix: 32% attribute updates, 53% additions of
        // which 98.5% re-list a known product, 15% removals.
        let mut rng = Rng::stream(seed, 3);
        let mut fresh: Vec<Product> = Vec::new();
        let mut events = Vec::with_capacity(shape.events);
        for i in 0..shape.events {
            let probe = (i + 1) % shape.probe_every == 0;
            let u = rng.unit();
            let brand_new = probe || ((0.32..0.85).contains(&u) && rng.unit() < 0.015);
            if brand_new {
                let id = (shape.products + fresh.len()) as u64 + 1;
                let cluster = rng.below(clusters);
                let images = if probe { 1 } else { 1 + rng.below(3) as usize };
                let p = product(&mut rng, seed, id, cluster, images);
                events.push(Event {
                    kind: if probe { Kind::Probe } else { Kind::New },
                    target: Target::Fresh(fresh.len()),
                    price: Some(p.price),
                    event: ProductEvent::AddProduct {
                        product_id: ProductId(p.id),
                        images: p.attributes(p.sales, p.price, p.praise),
                    },
                });
                fresh.push(p);
                continue;
            }
            let at = rng.below(catalog.len() as u64) as usize;
            let p = &catalog[at];
            let (kind, price, event) = if u < 0.32 {
                let price = 99 + rng.below(1_000_000);
                let event = ProductEvent::UpdateAttributes {
                    product_id: ProductId(p.id),
                    urls: p.urls(),
                    sales: Some(p.sales + 1 + rng.below(50)),
                    price: Some(price),
                    praise: None,
                };
                (Kind::Update, Some(price), event)
            } else if u < 0.85 {
                let price = 99 + rng.below(1_000_000);
                let event = ProductEvent::AddProduct {
                    product_id: ProductId(p.id),
                    images: p.attributes(p.sales, price, p.praise),
                };
                (Kind::Relist, Some(price), event)
            } else {
                let event = ProductEvent::RemoveProduct {
                    product_id: ProductId(p.id),
                    urls: p.urls(),
                };
                (Kind::Remove, None, event)
            };
            events.push(Event {
                kind,
                target: Target::Catalog(at),
                price,
                event,
            });
        }

        let mut fp = Fingerprint::new();
        for p in catalog.iter().chain(&fresh) {
            for v in [
                p.id,
                p.cluster,
                u64::from(p.category),
                p.sales,
                p.price,
                p.praise,
            ] {
                fp.u64(v);
            }
            fp.u64(u64::from(p.in_stock) | u64::from(p.predeleted) << 1);
            for image in &p.images {
                fp.str(&image.url);
                fp.bytes(&image.bytes);
            }
        }
        for q in &queries {
            fp.str(&q.url);
            fp.u64(q.cluster);
            fp.bytes(&q.bytes);
        }
        fp.u64(min_sales);
        for e in &events {
            fp.u64(e.kind as u64);
            fp.u64(e.event.product_id().0);
            fp.u64(e.price.unwrap_or(0));
            if let ProductEvent::UpdateAttributes { sales, .. } = &e.event {
                fp.u64(sales.unwrap_or(0));
            }
        }

        Inputs {
            catalog,
            queries,
            min_sales,
            events,
            fresh,
            fingerprint: fp.value(),
        }
    }

    pub fn product(&self, target: Target) -> &Product {
        match target {
            Target::Catalog(i) => &self.catalog[i],
            Target::Fresh(i) => &self.fresh[i],
        }
    }

    pub fn catalog_images(&self) -> usize {
        self.catalog.iter().map(|p| p.images.len()).sum()
    }
}

/// The benchmark's own account of what the catalog must look like after a
/// prefix of the event stream: which products are listed, at what price.
#[derive(Debug, Clone)]
pub struct Model {
    listed: Vec<bool>,
    price: Vec<u64>,
    /// Whether the stream has touched the catalog product at all.
    touched: Vec<bool>,
    fresh_listed: Vec<bool>,
}

impl Model {
    pub fn new(inputs: &Inputs) -> Self {
        Self {
            listed: inputs.catalog.iter().map(|p| !p.predeleted).collect(),
            price: inputs.catalog.iter().map(|p| p.price).collect(),
            touched: vec![false; inputs.catalog.len()],
            fresh_listed: vec![false; inputs.fresh.len()],
        }
    }

    pub fn apply(&mut self, event: &Event) {
        match event.target {
            Target::Fresh(i) => self.fresh_listed[i] = true,
            Target::Catalog(i) => {
                self.touched[i] = true;
                match event.kind {
                    Kind::Remove => self.listed[i] = false,
                    Kind::Relist => self.listed[i] = true,
                    _ => {}
                }
                if let Some(price) = event.price {
                    self.price[i] = price;
                }
            }
        }
    }

    pub fn valid_images(&self, inputs: &Inputs) -> usize {
        let catalog = inputs.catalog.iter().zip(&self.listed);
        let fresh = inputs.fresh.iter().zip(&self.fresh_listed);
        catalog
            .chain(fresh)
            .filter(|(_, listed)| **listed)
            .map(|(p, _)| p.images.len())
            .sum()
    }

    /// Up to `n` catalog products the stream touched, with whether each must
    /// now be listed and at what price — half of them unlisted ones when
    /// there are enough.
    pub fn touched(&self, n: usize) -> Vec<(usize, bool, u64)> {
        let pick = |listed: bool| {
            (0..self.listed.len())
                .filter(move |&i| self.touched[i] && self.listed[i] == listed)
                .take(n / 2)
                .map(move |i| (i, listed, self.price[i]))
        };
        pick(false).chain(pick(true)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        products: 400,
        products_per_cluster: 20,
        queries: 50,
        events: 600,
        probe_every: 25,
    };

    #[test]
    fn same_seed_same_inputs() {
        let a = Inputs::generate(7, &SHAPE);
        let b = Inputs::generate(7, &SHAPE);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(a.fingerprint, Inputs::generate(8, &SHAPE).fingerprint);
        // Pinned: a change to the generator moves every recorded result, and
        // must say so by changing this value.
        assert_eq!(
            a.fingerprint, 0xcfac_8487_a18d_49ae,
            "{:#018x}",
            a.fingerprint
        );
    }

    #[test]
    fn event_mix_follows_table_1() {
        let inputs = Inputs::generate(7, &SHAPE);
        let count = |k: Kind| inputs.events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(Kind::Probe), 600 / 25);
        let rest = (600 - count(Kind::Probe)) as f64;
        assert!((count(Kind::Update) as f64 / rest - 0.32).abs() < 0.06);
        assert!((count(Kind::Remove) as f64 / rest - 0.15).abs() < 0.05);
        assert_eq!(inputs.fresh.len(), count(Kind::Probe) + count(Kind::New));
    }

    #[test]
    fn model_tracks_listing_and_price() {
        let inputs = Inputs::generate(7, &SHAPE);
        let mut model = Model::new(&inputs);
        let before = model.valid_images(&inputs);
        for e in &inputs.events {
            model.apply(e);
        }
        assert_ne!(model.valid_images(&inputs), before);
        let sample = model.touched(16);
        assert!(sample.iter().any(|&(_, listed, _)| listed));
        assert!(sample.iter().any(|&(_, listed, _)| !listed));
        for (i, listed, price) in sample {
            assert_eq!(model.listed[i], listed);
            assert_eq!(model.price[i], price);
        }
    }
}
