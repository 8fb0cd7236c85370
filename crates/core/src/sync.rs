//! The synchronization facade for the real-time mutation path.
//!
//! Every structure mutated concurrently with scans — the inverted lists
//! ([`crate::inverted`]), forward index ([`crate::forward`]), attribute
//! buffer ([`crate::buffer`]), validity bitmap ([`crate::bitmap`]) and the
//! swappable index handle ([`crate::swap`]) — imports its primitives from
//! here instead of naming `std::sync` / `parking_lot` directly:
//!
//! - **Normal builds** re-export `parking_lot` locks, `std` atomics and
//!   `std::thread`, exactly what the modules used before this facade.
//! - **`--cfg loom` builds** (`RUSTFLAGS="--cfg loom"`) re-export the
//!   scheduler-instrumented types from the `loom` shim, so the loom model
//!   suite (`crates/core/tests/loom.rs`) can exhaustively interleave the
//!   publication protocols at every atomic access and lock operation.
//!
//! Keep `crate::realtime` and other control-plane code off this facade:
//! only the structures the model suite actually interleaves should pay the
//! instrumentation, and the facade's API is the intersection both backends
//! support (parking_lot-style non-poisoning locks).

#[cfg(loom)]
pub(crate) use loom::{
    sync::{
        atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering},
        Arc, Mutex, RwLock, RwLockReadGuard,
    },
    thread,
};

#[cfg(not(loom))]
pub(crate) use self::std_impl::*;

#[cfg(not(loom))]
mod std_impl {
    pub(crate) use parking_lot::{Mutex, RwLock, RwLockReadGuard};
    pub(crate) use std::sync::atomic::{
        AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };
    pub(crate) use std::sync::Arc;
    pub(crate) use std::thread;
}

/// `n` zeroed atomic words. Normal builds allocate through the zeroing
/// allocator (`vec![0u64; n]` is `calloc`), which hands back lazily-zeroed
/// pages in O(1): element-wise `AtomicU64::new(0)` construction would touch
/// every word on the writer path — an O(n) stall when an inverted list
/// doubles (Figure 9's protocol exists to avoid it) and resident memory
/// for a code segment's unwritten tail.
#[cfg(not(loom))]
pub(crate) fn zeroed_words(n: usize) -> Box<[AtomicU64]> {
    const _: () = assert!(std::mem::align_of::<AtomicU64>() == std::mem::align_of::<u64>());
    let zeroed: Box<[u64]> = vec![0u64; n].into_boxed_slice();
    // SAFETY: `AtomicU64` has the size of `u64` (guaranteed by std) and,
    // on this target, its alignment (asserted above); the all-zero bit
    // pattern is a valid `AtomicU64`. Ownership transfers through the raw
    // pointer without aliasing. `unsafe_slab_cast_round_trips` in
    // tests/concurrency.rs exercises this cast under the interpreter
    // (`cargo miri test -p jdvs-core --test concurrency unsafe_slab`).
    unsafe { Box::from_raw(Box::into_raw(zeroed) as *mut [AtomicU64]) }
}

/// The loom shim's instrumented atomics are not layout-compatible with
/// `u64`, so model builds construct element-wise. Model allocations are
/// tiny; the O(n) cost is irrelevant there.
#[cfg(loom)]
pub(crate) fn zeroed_words(n: usize) -> Box<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}
