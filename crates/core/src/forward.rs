//! The forward index.
//!
//! Section 2.2: *"Each image is numbered sequentially and the product
//! attributes of the image are stored in a forward index, which is a custom
//! array... The numeric attributes such as product ID, sales, price are
//! stored in the fixed-length fields in the array. The variable length
//! attributes like URL are stored in an additional buffer, and the offset
//! of the attribute in the buffer is recorded in the array."*
//!
//! Section 2.3 (Figure 7): *"the associated images' attributes in the
//! forward index are updated. This operation is atomic and there is no
//! conflict between search and update processes for maximum concurrency."*
//!
//! [`ForwardIndex`] realizes that design:
//!
//! - a record is six atomic words at its id's slot of a
//!   never-relocating array ([`crate::directory`]), so a record's address
//!   is stable for the life of the index, a reader borrows it with no lock
//!   and no refcount, and an append that opens a new bucket never waits
//!   for a reader;
//! - every fixed-length field is one word — updates are single-word
//!   atomic stores, reads are single-word atomic loads, and a reader can
//!   never observe a torn value;
//! - the URL is a [`PackedRef`] into the [`VarBuffer`], stored in one more
//!   word — a URL update appends the new bytes and swings this word;
//! - appended records become visible when the global `len` counter is
//!   bumped with release ordering (single appender per partition).

use crate::directory::AtomicArray;
use crate::sync::{AtomicU64, Ordering};

use jdvs_storage::model::{ProductAttributes, ProductId};

use crate::buffer::{PackedRef, VarBuffer};
use crate::error::IndexError;
use crate::ids::ImageId;

/// Words per record: product id, sales, price, praise, listing (category
/// and stock state, see [`pack_listing`]) and the URL reference.
const RECORD_WORDS: usize = 6;

/// Records in the first bucket.
const FIRST_RECORDS: usize = 4096;

/// One record's words, in the order [`RECORD_WORDS`] lists them.
type Record = [AtomicU64; RECORD_WORDS];
const PRODUCT_ID: usize = 0;
const SALES: usize = 1;
const PRICE: usize = 2;
const PRAISE: usize = 3;
const LISTING: usize = 4;
const URL_REF: usize = 5;

/// The listing word: category in bits 0..32, in-stock in bit 32. One word,
/// so a re-listing's refresh is one store and a reader sees the old or the
/// new listing, never a mix of the two.
fn pack_listing(category: u32, in_stock: bool) -> u64 {
    u64::from(category) | u64::from(in_stock) << 32
}

/// A snapshot of one record's numeric fields (read atomically field-by-
/// field; each field is internally consistent, which is the paper's
/// guarantee — it does not promise cross-field transactionality).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NumericAttributes {
    /// Owning product.
    pub product_id: ProductId,
    /// Sales count.
    pub sales: u64,
    /// Price in minor units.
    pub price: u64,
    /// Praise count.
    pub praise: u64,
    /// Product category id.
    pub category: u32,
    /// Whether the product is currently purchasable.
    pub in_stock: bool,
}

/// The forward index; see the module docs.
pub struct ForwardIndex {
    records: AtomicArray<Record>,
    len: AtomicU64,
    buffer: VarBuffer,
}

impl std::fmt::Debug for ForwardIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForwardIndex")
            .field("len", &self.len())
            .finish()
    }
}

impl Default for ForwardIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl ForwardIndex {
    /// Creates an empty forward index with its own attribute buffer.
    pub fn new() -> Self {
        Self {
            records: AtomicArray::new(FIRST_RECORDS),
            len: AtomicU64::new(0),
            buffer: VarBuffer::new(),
        }
    }

    /// Number of records (images ever appended; logical deletion does not
    /// shrink the forward index — the bitmap handles liveness).
    pub fn len(&self) -> usize {
        // Acquire: pairs with the Release store in `append`, so a reader
        // that observes `len > id` also observes record `id`'s field
        // stores (and the buffer bytes behind its url_ref).
        self.len.load(Ordering::Acquire) as usize
    }

    /// Returns `true` if no image has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a record, returning the new image's sequential id.
    ///
    /// Single-appender discipline: one thread per partition appends (the
    /// searcher that owns the partition); concurrent readers are unlimited.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::CapacityExhausted`] if the `u32` id space is
    /// full, or [`IndexError::AttributeTooLarge`] if the URL exceeds the
    /// buffer record limit.
    pub fn append(&self, attrs: &ProductAttributes) -> Result<ImageId, IndexError> {
        // Relaxed: `len` is only advanced by the single appender (this
        // thread), so the latest value is always visible to it.
        let id = self.len.load(Ordering::Relaxed);
        if id > u64::from(u32::MAX) {
            return Err(IndexError::CapacityExhausted);
        }
        let url_ref = self.buffer.append(attrs.url.as_bytes())?;
        let rec = self.records.get_or_grow(id as usize);
        // Relaxed field stores: record `id` is unreachable until the
        // Release `len` store below publishes it, which orders all six.
        for (word, value) in rec.iter().zip([
            attrs.product_id.0,
            attrs.sales,
            attrs.price,
            attrs.praise,
            pack_listing(attrs.category, attrs.in_stock),
            url_ref.as_raw(),
        ]) {
            word.store(value, Ordering::Relaxed);
        }
        // Release: pairs with the Acquire in `len()`; readers that observe
        // len > id see fully-written fields.
        self.len.store(id + 1, Ordering::Release);
        Ok(ImageId(id as u32))
    }

    /// The published record of `id`.
    #[inline]
    fn record(&self, id: ImageId) -> Result<&Record, IndexError> {
        let unknown = || IndexError::UnknownImage(id);
        if id.as_usize() >= self.len() {
            return Err(unknown());
        }
        self.records.get(id.as_usize()).ok_or_else(unknown)
    }

    /// Reads the numeric attributes of `id`. Takes no lock: the filtered
    /// scan calls it per candidate.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::UnknownImage`] for out-of-range ids.
    #[inline]
    pub fn numeric(&self, id: ImageId) -> Result<NumericAttributes, IndexError> {
        let rec = self.record(id)?;
        // Relaxed loads: the record was published by the Acquire `len`
        // check in `record()`, and later in-place updates are single-word
        // stores with no cross-field ordering promise (module docs).
        let listing = rec[LISTING].load(Ordering::Relaxed);
        Ok(NumericAttributes {
            product_id: ProductId(rec[PRODUCT_ID].load(Ordering::Relaxed)),
            sales: rec[SALES].load(Ordering::Relaxed),
            price: rec[PRICE].load(Ordering::Relaxed),
            praise: rec[PRAISE].load(Ordering::Relaxed),
            category: listing as u32,
            in_stock: listing >> 32 != 0,
        })
    }

    /// Reads the URL of `id`.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::UnknownImage`] for out-of-range ids, or
    /// [`IndexError::CorruptReference`] if the stored reference word does
    /// not decode to bytes the attribute buffer allocated.
    pub fn url(&self, id: ImageId) -> Result<String, IndexError> {
        let rec = self.record(id)?;
        // Acquire: pairs with the Release store in `update_url`, making
        // the appended URL bytes visible before the reference is decoded.
        let r = PackedRef::from_raw(rec[URL_REF].load(Ordering::Acquire));
        self.buffer.read_string(r)
    }

    /// Reads the full attribute record of `id`.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::UnknownImage`] for out-of-range ids, or
    /// [`IndexError::CorruptReference`] for a corrupt stored URL reference.
    pub fn attributes(&self, id: ImageId) -> Result<ProductAttributes, IndexError> {
        let n = self.numeric(id)?;
        let url = self.url(id)?;
        Ok(
            ProductAttributes::new(n.product_id, n.sales, n.price, n.praise, url)
                .with_category(n.category)
                .with_stock(n.in_stock),
        )
    }

    /// Atomically updates the numeric attributes present in the arguments
    /// (Figure 7: each changed field is one atomic store; concurrent
    /// searches see either the old or the new value, never garbage).
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::UnknownImage`] for out-of-range ids.
    pub fn update_numeric(
        &self,
        id: ImageId,
        sales: Option<u64>,
        price: Option<u64>,
        praise: Option<u64>,
    ) -> Result<(), IndexError> {
        let rec = self.record(id)?;
        for (field, value) in [(SALES, sales), (PRICE, price), (PRAISE, praise)] {
            if let Some(v) = value {
                rec[field].store(v, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Updates the category and stock state (a re-listing's refresh path)
    /// with one store of the listing word. One plain store suffices: the
    /// partition's single writer is the only thread that stores it, so no
    /// read-modify-write can be lost, and a reader loads the old or the
    /// new word whole.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::UnknownImage`] for out-of-range ids.
    pub fn update_listing(
        &self,
        id: ImageId,
        category: u32,
        in_stock: bool,
    ) -> Result<(), IndexError> {
        self.record(id)?[LISTING].store(pack_listing(category, in_stock), Ordering::Relaxed);
        Ok(())
    }

    /// Updates the variable-length URL: appends the new value to the buffer
    /// and swings the packed reference word (Section 2.3's varying-length
    /// update protocol). Old bytes stay readable for in-flight readers.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::UnknownImage`] for out-of-range ids or
    /// [`IndexError::AttributeTooLarge`] for oversized values.
    pub fn update_url(&self, id: ImageId, url: &str) -> Result<(), IndexError> {
        let rec = self.record(id)?;
        let new_ref = self.buffer.append(url.as_bytes())?;
        // Release: pairs with the Acquire load in `url`; a reader that
        // decodes the new reference also sees the bytes appended above.
        rec[URL_REF].store(new_ref.as_raw(), Ordering::Release);
        Ok(())
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    fn attrs(product: u64, url: &str) -> ProductAttributes {
        ProductAttributes::new(ProductId(product), 100, 1999, 50, url.to_string())
    }

    #[test]
    fn append_assigns_sequential_ids() {
        let fwd = ForwardIndex::new();
        assert_eq!(fwd.append(&attrs(1, "u1")).unwrap(), ImageId(0));
        assert_eq!(fwd.append(&attrs(2, "u2")).unwrap(), ImageId(1));
        assert_eq!(fwd.len(), 2);
        assert!(!fwd.is_empty());
    }

    #[test]
    fn round_trips_attributes() {
        let fwd = ForwardIndex::new();
        let a = attrs(7, "https://img.jd.com/7/0.jpg");
        let id = fwd.append(&a).unwrap();
        assert_eq!(fwd.attributes(id).unwrap(), a);
        let n = fwd.numeric(id).unwrap();
        assert_eq!(n.product_id, ProductId(7));
        assert_eq!(n.sales, 100);
        assert_eq!(n.price, 1999);
        assert_eq!(n.praise, 50);
        assert_eq!(fwd.url(id).unwrap(), "https://img.jd.com/7/0.jpg");
    }

    #[test]
    fn unknown_id_errors() {
        let fwd = ForwardIndex::new();
        assert_eq!(
            fwd.numeric(ImageId(0)).unwrap_err(),
            IndexError::UnknownImage(ImageId(0))
        );
        fwd.append(&attrs(1, "u")).unwrap();
        assert!(fwd.numeric(ImageId(0)).is_ok());
        assert!(fwd.numeric(ImageId(1)).is_err());
    }

    #[test]
    fn numeric_update_is_selective() {
        let fwd = ForwardIndex::new();
        let id = fwd.append(&attrs(1, "u")).unwrap();
        fwd.update_numeric(id, Some(500), None, None).unwrap();
        let n = fwd.numeric(id).unwrap();
        assert_eq!(n.sales, 500);
        assert_eq!(n.price, 1999, "unspecified fields unchanged");
        fwd.update_numeric(id, None, Some(999), Some(3)).unwrap();
        let n = fwd.numeric(id).unwrap();
        assert_eq!(n.price, 999);
        assert_eq!(n.praise, 3);
        assert_eq!(n.sales, 500);
    }

    #[test]
    fn listing_cells_round_trip_and_update() {
        let fwd = ForwardIndex::new();
        let a = attrs(1, "u").with_category(9).with_stock(false);
        let id = fwd.append(&a).unwrap();
        let n = fwd.numeric(id).unwrap();
        assert_eq!(n.category, 9);
        assert!(!n.in_stock);
        assert_eq!(fwd.attributes(id).unwrap(), a);
        fwd.update_listing(id, 12, true).unwrap();
        let n = fwd.numeric(id).unwrap();
        assert_eq!(n.category, 12);
        assert!(n.in_stock);
        assert!(fwd.update_listing(ImageId(5), 0, true).is_err());
    }

    #[test]
    fn pinned_reader_matches_numeric_and_sees_live_updates() {
        let fwd = ForwardIndex::new();
        for i in 0..10u64 {
            fwd.append(&attrs(i, &format!("u{i}"))).unwrap();
        }
        // What a filtered plan holds: a plain borrow.
        let r = &fwd;
        assert!(
            r.numeric(ImageId(10)).is_err(),
            "beyond the length reads absent"
        );
        // An in-place update, and appends that open a new bucket, made
        // while the borrow is live are visible and wait for nothing — the
        // filtered scan's freshness contract.
        fwd.update_numeric(ImageId(3), Some(777), None, None)
            .unwrap();
        for i in 10..FIRST_RECORDS as u64 + 1 {
            fwd.append(&attrs(i, "u")).unwrap();
        }
        assert_eq!(r.numeric(ImageId(3)).unwrap().sales, 777);
        let last = ImageId(FIRST_RECORDS as u32);
        assert_eq!(
            r.numeric(last).unwrap().product_id,
            ProductId(FIRST_RECORDS as u64)
        );
    }

    #[test]
    fn url_update_swings_reference() {
        let fwd = ForwardIndex::new();
        let id = fwd.append(&attrs(1, "old-url")).unwrap();
        fwd.update_url(id, "new-url").unwrap();
        assert_eq!(fwd.url(id).unwrap(), "new-url");
    }

    #[test]
    fn spans_multiple_chunks() {
        let fwd = ForwardIndex::new();
        let n = FIRST_RECORDS + 10;
        for i in 0..n {
            fwd.append(&attrs(i as u64, &format!("u{i}"))).unwrap();
        }
        assert_eq!(fwd.len(), n);
        assert_eq!(fwd.attributes(ImageId(0)).unwrap().url, "u0");
        let last = ImageId((n - 1) as u32);
        assert_eq!(fwd.attributes(last).unwrap().url, format!("u{}", n - 1));
        assert_eq!(
            fwd.numeric(last).unwrap().product_id,
            ProductId((n - 1) as u64)
        );
    }

    #[test]
    fn concurrent_readers_with_updates_never_see_torn_values() {
        let fwd = StdArc::new(ForwardIndex::new());
        let id = fwd.append(&attrs(1, "u")).unwrap();
        // Writer flips between two consistent field values; readers must
        // only ever observe one of the two per field.
        let stop = StdArc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let fwd = StdArc::clone(&fwd);
                let stop = StdArc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let n = fwd.numeric(id).unwrap();
                        assert!(
                            n.sales == 100 || n.sales == 77_777,
                            "torn sales {}",
                            n.sales
                        );
                        assert!(n.price == 1999 || n.price == 1, "torn price {}", n.price);
                    }
                })
            })
            .collect();
        for i in 0..20_000 {
            if i % 2 == 0 {
                fwd.update_numeric(id, Some(77_777), Some(1), None).unwrap();
            } else {
                fwd.update_numeric(id, Some(100), Some(1999), None).unwrap();
            }
        }
        stop.store(true, Ordering::Relaxed);
        for h in readers {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_readers_during_appends_see_only_published_records() {
        let fwd = StdArc::new(ForwardIndex::new());
        let stop = StdArc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let fwd = StdArc::clone(&fwd);
                let stop = StdArc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let len = fwd.len();
                        if len > 0 {
                            // Any published record must read back consistent.
                            let id = ImageId((len - 1) as u32);
                            let a = fwd.attributes(id).unwrap();
                            assert_eq!(a.product_id.0, u64::from(id.0));
                            assert_eq!(a.url, format!("u{}", id.0));
                        }
                    }
                })
            })
            .collect();
        for i in 0..10_000u64 {
            fwd.append(&attrs(i, &format!("u{i}"))).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for h in readers {
            h.join().unwrap();
        }
        assert_eq!(fwd.len(), 10_000);
    }
}
