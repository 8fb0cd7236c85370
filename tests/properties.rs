//! Cross-crate property-based tests (proptest).
//!
//! Invariants of the core data structures under arbitrary inputs: the
//! validity bitmap, the variable-length buffer, the forward index, the
//! inverted lists under expansion, top-k selection, histograms, queue
//! ordering and the partitioner.

use proptest::prelude::*;

use jdvs::core::bitmap::AtomicBitmap;
use jdvs::core::buffer::VarBuffer;
use jdvs::core::forward::ForwardIndex;
use jdvs::core::ids::ImageId;
use jdvs::core::inverted::InvertedList;
use jdvs::metrics::Histogram;
use jdvs::storage::{ImageKey, MessageQueue, ProductAttributes, ProductId};
use jdvs::vector::topk::select_topk;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bitmap reflects exactly the last operation applied per bit.
    #[test]
    fn bitmap_reflects_last_write(ops in prop::collection::vec((0usize..2_000, any::<bool>()), 1..200)) {
        let bm = AtomicBitmap::new();
        let mut model = std::collections::HashMap::new();
        for (bit, value) in ops {
            bm.assign(bit, value);
            model.insert(bit, value);
        }
        for (bit, value) in model {
            prop_assert_eq!(bm.test(bit), value);
        }
    }

    /// count_ones equals the model's set-bit count.
    #[test]
    fn bitmap_popcount_matches_model(bits in prop::collection::hash_set(0usize..5_000, 0..300)) {
        let bm = AtomicBitmap::new();
        for &b in &bits {
            bm.set(b);
        }
        prop_assert_eq!(bm.count_ones(), bits.len());
    }

    /// Every appended record reads back byte-identical, regardless of
    /// chunk-size-induced boundary skips.
    #[test]
    fn buffer_round_trips(
        chunk in 32usize..256,
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 1..100),
    ) {
        let buf = VarBuffer::with_chunk_size(chunk);
        let refs: Vec<_> = records.iter().map(|r| buf.append(r).unwrap()).collect();
        for (r, expected) in refs.iter().zip(&records) {
            prop_assert_eq!(&buf.read(*r).unwrap(), expected);
        }
    }

    /// The forward index is an exact map from id to the last-written
    /// attributes.
    #[test]
    fn forward_index_is_a_faithful_map(
        products in prop::collection::vec((any::<u64>(), 0u64..1_000_000, 0u64..1_000_000, ".{0,20}"), 1..60),
        updates in prop::collection::vec((0usize..60, 0u64..999), 0..40),
    ) {
        let fwd = ForwardIndex::new();
        let mut model: Vec<ProductAttributes> = Vec::new();
        for (pid, sales, price, url) in &products {
            let attrs = ProductAttributes::new(ProductId(*pid), *sales, *price, 0, url.clone());
            fwd.append(&attrs).unwrap();
            model.push(attrs);
        }
        for (slot, new_sales) in updates {
            if slot < model.len() {
                fwd.update_numeric(ImageId(slot as u32), Some(new_sales), None, None).unwrap();
                model[slot].sales = new_sales;
            }
        }
        for (i, expected) in model.iter().enumerate() {
            prop_assert_eq!(&fwd.attributes(ImageId(i as u32)).unwrap(), expected);
        }
    }

    /// Inverted lists preserve append order across arbitrary expansion
    /// schedules (any initial capacity, inline or background copy).
    #[test]
    fn inverted_list_preserves_order(
        initial in 1usize..32,
        background in any::<bool>(),
        n in 1u32..500,
    ) {
        let list = InvertedList::new(initial, background);
        for i in 0..n {
            list.append(ImageId(i));
        }
        list.flush();
        let mut got = Vec::new();
        list.scan(|id| got.push(id.0));
        prop_assert_eq!(got, (0..n).collect::<Vec<_>>());
    }

    /// Top-k equals the sorted prefix of the full candidate list.
    #[test]
    fn topk_equals_sort_prefix(
        items in prop::collection::vec((any::<u64>(), 0.0f32..1e6), 1..200),
        k in 1usize..20,
    ) {
        // Deduplicate ids to make the ground truth unambiguous.
        let mut seen = std::collections::HashSet::new();
        let items: Vec<(u64, f32)> =
            items.into_iter().filter(|(id, _)| seen.insert(*id)).collect();
        prop_assume!(!items.is_empty());
        let got = select_topk(k, items.clone());
        let mut expected = items;
        expected.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        expected.truncate(k);
        let got_ids: Vec<u64> = got.iter().map(|n| n.id).collect();
        let expected_ids: Vec<u64> = expected.iter().map(|(id, _)| *id).collect();
        prop_assert_eq!(got_ids, expected_ids);
    }

    /// Histogram percentiles are bounded by min/max and monotone in q; the
    /// relative quantization error is within the documented bound.
    #[test]
    fn histogram_quantiles_are_sane(values in prop::collection::vec(0u64..10_000_000, 1..300)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record_us(v);
        }
        let min = *values.iter().min().unwrap();
        let max = *values.iter().max().unwrap();
        let mut prev = 0u64;
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let p = h.percentile_us(q);
            prop_assert!(p >= min && p <= max, "p({}) = {} outside [{}, {}]", q, p, min, max);
            prop_assert!(p >= prev);
            prev = p;
        }
        // Exact median check against the sorted data, within quantization.
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let true_median = sorted[(values.len() - 1) / 2];
        let est = h.percentile_us(0.5) as f64;
        let tolerance = (true_median as f64 * 0.02).max(1.0);
        prop_assert!(
            (est - true_median as f64).abs() <= tolerance + f64::EPSILON,
            "median {} vs true {}", est, true_median
        );
    }

    /// Queue consumption returns exactly the published sequence.
    #[test]
    fn queue_is_fifo(messages in prop::collection::vec(any::<u32>(), 0..200)) {
        let q = MessageQueue::new();
        for &m in &messages {
            q.publish(m);
        }
        let mut c = q.consumer();
        let got: Vec<u32> = std::iter::from_fn(|| c.poll_now()).collect();
        prop_assert_eq!(got, messages);
    }

    /// The partitioner is total, stable and in-range for any URL.
    #[test]
    fn partitioner_is_total_and_stable(url in ".{0,64}", parts in 1usize..64) {
        let key = ImageKey::from_url(&url);
        let p = key.partition(parts);
        prop_assert!(p < parts);
        prop_assert_eq!(p, ImageKey::from_url(&url).partition(parts));
    }
}
