//! The `std::sync` types that `moqo_service` imports, re-exported
//! unchanged: `moqo_sync::Mutex` *is* `std::sync::Mutex`.
#![warn(missing_docs)]

/// Atomic types and memory orderings (`std::sync::atomic`).
pub mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

pub use std::sync::{Arc, Condvar, Mutex, MutexGuard};
