//! The synchronization facade for the real-time mutation path.
//!
//! Every structure mutated concurrently with scans — the inverted lists
//! ([`crate::inverted`]), the word arrays under the forward index, the
//! attribute buffer and the validity bitmap ([`crate::directory`]), the
//! row and code stores and the swappable index handle ([`crate::swap`]) —
//! imports its primitives from here instead of naming `std::sync` /
//! `parking_lot` directly:
//!
//! - **Normal builds** re-export `parking_lot` locks, `std` atomics and
//!   `std::thread`.
//! - **`--cfg loom` builds** (`RUSTFLAGS="--cfg loom"`) re-export the
//!   scheduler-instrumented types from the `loom` shim, so the loom model
//!   suite (`crates/core/tests/loom.rs`) can exhaustively interleave the
//!   publication protocols at every atomic access and lock operation.
//!
//! No reader on the scan path holds a lock guard: the facade exports no
//! guard type. Keep `crate::realtime` and other control-plane code off
//! this facade: only the structures the model suite actually interleaves
//! should pay the instrumentation, and the facade's API is the
//! intersection both backends support (parking_lot-style non-poisoning
//! locks).

#[cfg(loom)]
pub(crate) use loom::{
    sync::{
        atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering},
        Arc, Mutex, RwLock,
    },
    thread,
};

#[cfg(not(loom))]
pub(crate) use self::std_impl::*;

#[cfg(not(loom))]
mod std_impl {
    pub(crate) use parking_lot::{Mutex, RwLock};
    pub(crate) use std::sync::atomic::{
        AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };
    pub(crate) use std::sync::Arc;
    pub(crate) use std::thread;
}

/// An atomic integer, or an array of them, for which the all-zero bit
/// pattern is a valid value (its zero) — what [`zeroed`] may allocate.
///
/// # Safety
///
/// Implementors must be valid when every byte is zero and need no drop.
pub(crate) unsafe trait Zeroed: Sized {
    #[cfg(loom)]
    fn zero() -> Self;
}

macro_rules! zeroed_atomics {
    ($($atomic:ident),*) => {$(
        // SAFETY: the facade's atomic integers each hold one integer (the
        // loom shim's wrap a std atomic); all-zero is the value 0, and
        // they have no drop glue.
        unsafe impl Zeroed for $atomic {
            #[cfg(loom)]
            fn zero() -> Self {
                $atomic::new(0)
            }
        }
    )*};
}

zeroed_atomics!(AtomicU8, AtomicU32, AtomicU64);

// SAFETY: an array is valid all-zero and needs no drop when its element is.
unsafe impl<A: Zeroed, const N: usize> Zeroed for [A; N] {
    #[cfg(loom)]
    fn zero() -> Self {
        std::array::from_fn(|_| A::zero())
    }
}

/// `n` zeroed atomics. Normal builds allocate through the zeroing
/// allocator (`calloc`), which hands back lazily-zeroed pages in O(1):
/// element-wise `new(0)` construction would touch every word on the writer
/// path — an O(n) stall when an inverted list doubles (Figure 9's protocol
/// exists to avoid it) and resident memory for the unwritten tail of a
/// code segment or a word-array bucket.
#[cfg(not(loom))]
pub(crate) fn zeroed<A: Zeroed>(n: usize) -> Box<[A]> {
    let layout = std::alloc::Layout::array::<A>(n).expect("zeroed allocation overflows");
    if layout.size() == 0 {
        return Box::new([]);
    }
    // SAFETY: `layout` has non-zero size (checked above).
    let ptr = unsafe { std::alloc::alloc_zeroed(layout) }.cast::<A>();
    if ptr.is_null() {
        std::alloc::handle_alloc_error(layout);
    }
    // SAFETY: `ptr` is a live, exclusively owned allocation from the
    // global allocator with the layout of `[A; n]`, which is what a
    // `Box<[A]>` of length `n` frees it with; its bytes are all zero,
    // which is a valid `A` (the `Zeroed` contract).
    // The `unsafe_slab_cast_round_trips*` tests in tests/concurrency.rs
    // exercise every element type under the interpreter
    // (`cargo miri test -p jdvs-core --test concurrency unsafe_slab`).
    unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, n)) }
}

/// The loom shim's instrumented atomics are not layout-compatible with
/// plain integers, so model builds construct element-wise. Model
/// allocations are tiny; the O(n) cost is irrelevant there.
#[cfg(loom)]
pub(crate) fn zeroed<A: Zeroed>(n: usize) -> Box<[A]> {
    (0..n).map(|_| A::zero()).collect()
}
