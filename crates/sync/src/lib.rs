//! Synchronization facade for the moqo workspace.
//!
//! Every concurrent module in the workspace imports its primitives from this
//! crate instead of `std::sync` (the `xtask` lint enforces it). The crate has
//! two personalities selected by `--cfg moqo_model`:
//!
//! * **Normal builds** (`cfg(not(moqo_model))`): pure re-exports of the
//!   `std` types. Zero overhead, zero behavior change — `moqo_sync::atomic::
//!   AtomicU64` *is* `std::sync::atomic::AtomicU64`, and the
//!   [`cell::UnsafeCell`] wrapper is `#[repr(transparent)]` with
//!   `#[inline(always)]` accessors, so release codegen is bit-identical to
//!   using `std` directly.
//! * **Model builds** (`RUSTFLAGS="--cfg moqo_model"`): the same paths
//!   resolve to instrumented shims that route every atomic access, lock,
//!   condvar wait, and thread spawn through a deterministic exploring
//!   scheduler (see the `model` module). The scheduler serializes threads, explores
//!   interleavings (bounded-exhaustive DFS with a preemption budget, then a
//!   seeded random walk), models relaxed-memory stale reads with per-location
//!   store histories, and detects data races with vector clocks. Failures
//!   come with a replayable decision schedule.
//!
//! The shims fall back to real `std` behavior when used outside a model run,
//! so a `moqo_model` binary can still execute ordinary code paths.
//!
//! # Facade contract
//!
//! * Import `atomic::{Atomic*, Ordering}`, `cell::UnsafeCell`,
//!   `hint::spin_loop`, `thread`, `Mutex`, `Condvar`, and `Arc` from this
//!   crate; never from `std::sync::atomic` directly.
//! * Shared mutable non-atomic state goes in [`cell::UnsafeCell`] and is
//!   accessed through `with` / `with_mut` closures so the model checker can
//!   see (and race-check) every access.
//! * [`raw`] re-exports the real `std` atomics in **both** modes. It is the
//!   audited escape hatch for code that must not be instrumented — e.g. the
//!   `cfg(moqo_model)` test knobs that steer the checker itself. Uses of
//!   `raw` are greppable and should be rare.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Audited escape hatch: the real `std` atomics, identical in both modes.
///
/// Use only where instrumentation would be circular or meaningless (model
/// steering knobs, diagnostics inside the checker). Everything else goes
/// through [`atomic`].
pub mod raw {
    pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
}

#[cfg(not(moqo_model))]
mod real;
#[cfg(not(moqo_model))]
pub use real::*;

#[cfg(moqo_model)]
pub mod model;
#[cfg(moqo_model)]
mod shim;
#[cfg(moqo_model)]
pub use shim::*;
