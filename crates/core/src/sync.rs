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
