//! Attribute filters for search-time pushdown.
//!
//! Real queries carry constraints — category, price range, in-stock — and
//! the paper's serving stack applies them *during* retrieval rather than by
//! trimming an unconstrained result list. This module provides:
//!
//! - [`FilterSpec`]: the query-side constraint set (what the user asked
//!   for), carried through the wire envelope down to each searcher;
//! - [`FilterIndex`]: the index-side materialization — one
//!   [`AtomicBitmap`] per category plus one in-stock bitmap, sharing the
//!   validity bitmap's word layout so a scan tests them with the same
//!   single-word atomic loads;
//! - [`QueryFilter`]: the per-query evaluator — the spec resolved once
//!   against the index's bitmaps and forward index, exposing `admits(id)`.
//!   It borrows them and pins no lock, so holding it for a whole plan
//!   never delays an append.
//!
//! ## Pushdown contract
//!
//! While the top-k is underfull the raw scan tests the filter **before**
//! a row is scored; once it is full, it scores first and tests the filter
//! only on rows under the threshold. The fast-scan scores a run of codes
//! first and tests the filter only on the candidates under the top-k
//! prune bound, before they reach the top-k.
//! Either way the result set is bit-identical to the post-filter reference
//! (score every valid candidate, then discard non-matching ones before
//! top-k insertion): both sides evaluate the same predicate over the same
//! snapshot, only the evaluation order differs.
//!
//! Filter bitmaps are *hints about listings*, not liveness: bits are set at
//! insert/re-list time and never cleared on delisting. Every scan ANDs
//! them with the validity bitmap, so a stale set bit on an invalidated id
//! is harmless, and clearing on delisting would race re-listing for no
//! benefit.

use std::collections::HashMap;

use crate::bitmap::AtomicBitmap;
use crate::forward::{ForwardIndex, NumericAttributes};
use crate::ids::ImageId;
use crate::sync::{Arc, RwLock};

use serde::{Deserialize, Serialize};

/// A query's attribute constraints. An empty spec admits everything.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FilterSpec {
    /// Only products of this category.
    pub category: Option<u32>,
    /// Only products currently in stock.
    pub in_stock_only: bool,
    /// Minimum price, inclusive (minor currency units).
    pub price_min: Option<u64>,
    /// Maximum price, inclusive.
    pub price_max: Option<u64>,
    /// Minimum cumulative sales, inclusive.
    pub min_sales: Option<u64>,
}

impl FilterSpec {
    /// An unconstrained spec (admits everything).
    pub fn none() -> Self {
        Self::default()
    }

    /// Constrains to one category.
    pub fn by_category(category: u32) -> Self {
        Self {
            category: Some(category),
            ..Self::default()
        }
    }

    /// Requires the product to be in stock.
    pub fn in_stock(mut self) -> Self {
        self.in_stock_only = true;
        self
    }

    /// Constrains the price to `[min, max]` (inclusive).
    pub fn with_price_range(mut self, min: u64, max: u64) -> Self {
        self.price_min = Some(min);
        self.price_max = Some(max);
        self
    }

    /// Requires at least `min` cumulative sales.
    pub fn with_min_sales(mut self, min: u64) -> Self {
        self.min_sales = Some(min);
        self
    }

    /// Whether this spec constrains anything at all.
    pub fn is_unconstrained(&self) -> bool {
        self.category.is_none()
            && !self.in_stock_only
            && self.price_min.is_none()
            && self.price_max.is_none()
            && self.min_sales.is_none()
    }

    /// Whether evaluation needs the forward index (range predicates).
    pub fn needs_forward(&self) -> bool {
        self.price_min.is_some() || self.price_max.is_some() || self.min_sales.is_some()
    }

    /// Ground-truth predicate over one record's numeric attributes. The
    /// bitmap pushdown and the post-filter reference both reduce to this.
    pub fn matches(&self, n: &NumericAttributes) -> bool {
        self.category.is_none_or(|c| n.category == c)
            && (!self.in_stock_only || n.in_stock)
            && self.ranges_admit(n.sales, n.price)
    }

    #[inline]
    fn ranges_admit(&self, sales: u64, price: u64) -> bool {
        self.price_min.is_none_or(|m| price >= m)
            && self.price_max.is_none_or(|m| price <= m)
            && self.min_sales.is_none_or(|m| sales >= m)
    }
}

/// Materialized per-attribute bitmaps, maintained alongside the validity
/// bitmap by every insert and re-listing; see the module docs for the
/// staleness contract.
#[derive(Debug, Default)]
pub struct FilterIndex {
    /// Bit set ⇔ the id's last listing was in stock.
    stock: AtomicBitmap,
    /// Per-category bitmaps, created lazily on first listing.
    categories: RwLock<HashMap<u32, Arc<AtomicBitmap>>>,
}

impl FilterIndex {
    /// Creates an empty filter index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a (re-)listing of `id`: flips the stock bit to
    /// `attrs.in_stock`, sets the bit in the category's bitmap, and — when
    /// the category changed from `prev_category` — clears the old
    /// category's bit so an id is a member of exactly one category bitmap.
    pub fn note_listing(
        &self,
        id: ImageId,
        category: u32,
        in_stock: bool,
        prev_category: Option<u32>,
    ) {
        let idx = id.as_usize();
        self.stock.assign(idx, in_stock);
        if let Some(prev) = prev_category {
            if prev != category {
                if let Some(bm) = self.category_bitmap(prev) {
                    bm.clear(idx);
                }
            }
        }
        self.bitmap_for(category).set(idx);
    }

    /// The in-stock bitmap.
    pub fn stock(&self) -> &AtomicBitmap {
        &self.stock
    }

    /// The bitmap of `category`, if any listing ever used it.
    pub fn category_bitmap(&self, category: u32) -> Option<Arc<AtomicBitmap>> {
        self.categories.read().get(&category).cloned()
    }

    /// Number of materialized category bitmaps.
    pub fn num_categories(&self) -> usize {
        self.categories.read().len()
    }

    fn bitmap_for(&self, category: u32) -> Arc<AtomicBitmap> {
        if let Some(bm) = self.categories.read().get(&category) {
            return Arc::clone(bm);
        }
        let mut map = self.categories.write();
        Arc::clone(
            map.entry(category)
                .or_insert_with(|| Arc::new(AtomicBitmap::new())),
        )
    }
}

/// Per-query filter evaluator: the spec resolved against one index's
/// filter bitmaps and forward index, held for a whole plan.
#[derive(Debug)]
pub struct QueryFilter<'a> {
    spec: &'a FilterSpec,
    category: Option<Arc<AtomicBitmap>>,
    /// The spec names a category no listing ever used: nothing matches.
    category_missing: bool,
    stock: Option<&'a AtomicBitmap>,
    forward: Option<&'a ForwardIndex>,
}

impl<'a> QueryFilter<'a> {
    /// Resolves `spec` against an index's filter bitmaps and forward index.
    pub fn new(spec: &'a FilterSpec, filters: &'a FilterIndex, forward: &'a ForwardIndex) -> Self {
        let category = spec.category.and_then(|c| filters.category_bitmap(c));
        let category_missing = spec.category.is_some() && category.is_none();
        Self {
            spec,
            category,
            category_missing,
            stock: spec.in_stock_only.then(|| filters.stock()),
            forward: spec.needs_forward().then_some(forward),
        }
    }

    /// Whether the filter admits image `id`. Validity is *not* part of this
    /// predicate — every caller ANDs it with the validity bitmap, exactly
    /// as the unfiltered scan does.
    #[inline]
    pub fn admits(&self, id: usize) -> bool {
        if self.category_missing {
            return false;
        }
        if let Some(cat) = &self.category {
            if !cat.test(id) {
                return false;
            }
        }
        if let Some(stock) = self.stock {
            if !stock.test(id) {
                return false;
            }
        }
        if let Some(fwd) = self.forward {
            let Ok(n) = fwd.numeric(ImageId(id as u32)) else {
                return false;
            };
            if !self.spec.ranges_admit(n.sales, n.price) {
                return false;
            }
        }
        true
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use jdvs_storage::model::ProductId;

    fn numeric(category: u32, in_stock: bool, sales: u64, price: u64) -> NumericAttributes {
        NumericAttributes {
            product_id: ProductId(1),
            sales,
            price,
            praise: 0,
            category,
            in_stock,
        }
    }

    #[test]
    fn unconstrained_spec_admits_everything() {
        let spec = FilterSpec::none();
        assert!(spec.is_unconstrained());
        assert!(!spec.needs_forward());
        assert!(spec.matches(&numeric(7, false, 0, u64::MAX)));
    }

    #[test]
    fn spec_predicates_compose() {
        let spec = FilterSpec::by_category(3)
            .in_stock()
            .with_price_range(100, 200)
            .with_min_sales(10);
        assert!(!spec.is_unconstrained());
        assert!(spec.needs_forward());
        assert!(spec.matches(&numeric(3, true, 10, 100)));
        assert!(spec.matches(&numeric(3, true, 999, 200)));
        assert!(!spec.matches(&numeric(4, true, 10, 100)), "wrong category");
        assert!(!spec.matches(&numeric(3, false, 10, 100)), "out of stock");
        assert!(!spec.matches(&numeric(3, true, 9, 100)), "too few sales");
        assert!(!spec.matches(&numeric(3, true, 10, 99)), "under price_min");
        assert!(!spec.matches(&numeric(3, true, 10, 201)), "over price_max");
    }

    #[test]
    fn filter_index_tracks_listings_and_category_moves() {
        let fi = FilterIndex::new();
        fi.note_listing(ImageId(0), 1, true, None);
        fi.note_listing(ImageId(1), 2, false, None);
        assert_eq!(fi.num_categories(), 2);
        assert!(fi.stock().test(0));
        assert!(!fi.stock().test(1));
        assert!(fi.category_bitmap(1).unwrap().test(0));
        assert!(fi.category_bitmap(2).unwrap().test(1));
        assert!(fi.category_bitmap(9).is_none());

        // Re-listing under a new category moves the bit and flips stock.
        fi.note_listing(ImageId(0), 2, false, Some(1));
        assert!(!fi.category_bitmap(1).unwrap().test(0));
        assert!(fi.category_bitmap(2).unwrap().test(0));
        assert!(!fi.stock().test(0));
    }

    #[test]
    fn view_admits_agrees_with_ground_truth() {
        let fi = FilterIndex::new();
        let fwd = ForwardIndex::new();
        use jdvs_storage::model::ProductAttributes;
        for i in 0..20u64 {
            let attrs = ProductAttributes::new(ProductId(i), i * 10, i * 100, 0, format!("u{i}"))
                .with_category((i % 3) as u32)
                .with_stock(i % 2 == 0);
            let id = fwd.append(&attrs).unwrap();
            fi.note_listing(id, attrs.category, attrs.in_stock, None);
        }
        let specs = [
            FilterSpec::none(),
            FilterSpec::by_category(1),
            FilterSpec::by_category(2).in_stock(),
            FilterSpec::none().with_price_range(300, 900),
            FilterSpec::by_category(0).with_min_sales(60),
            FilterSpec::by_category(77), // never listed
        ];
        for spec in &specs {
            let qf = QueryFilter::new(spec, &fi, &fwd);
            for i in 0..20usize {
                let truth = spec.matches(&fwd.numeric(ImageId(i as u32)).unwrap());
                assert_eq!(qf.admits(i), truth, "spec {spec:?} id {i}");
            }
        }
    }
}
