//! Deterministic fault injection: a replayable chaos plan for the service.
//!
//! A [`FaultPlan`] names the exact *request ordinals* (the 0-based
//! submission index the service assigns under its lock-free counter) whose
//! processing panics inside the worker, which is what an optimizer bug
//! produces. Because the trigger is the ordinal — not a timer or a random
//! draw — a chaos run is exactly replayable: the same trace plus the same
//! plan produces the same panics, which is what lets `tests/replay.rs` and
//! `tests/chaos.rs` pin the robustness counters (`panics_total`,
//! `failed`) exactly. A full queue needs no injection: a test fills a
//! small one for real.
//!
//! The module also owns the panic-hook silencer: injected (and any other
//! worker) panics are converted to [`ServiceError::Internal`]
//! responses by the worker's `catch_unwind` guard, so the default hook's
//! stderr spew is pure noise in chaos tests. [`guarded_catch`] installs —
//! once, lazily — a hook that suppresses output for panics unwinding
//! through a worker guard and delegates everything else to the previous
//! hook; the payload is never lost, it travels in the error variant.
//!
//! [`ServiceError::Internal`]: crate::ServiceError::Internal

use std::cell::Cell;
use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// A deterministic panic schedule keyed by request ordinal: the worker
/// panics right before processing a scheduled request, the guard converts
/// the panic to `ServiceError::Internal`, and the worker survives.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    exact: HashSet<u64>,
    /// `(period, offset)`: fires on every ordinal where
    /// `ordinal % period == offset`.
    periodic: Vec<(u64, u64)>,
}

impl FaultPlan {
    /// Starts an empty plan builder.
    #[must_use]
    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder {
            plan: FaultPlan::default(),
        }
    }

    /// Whether the plan schedules a panic for `ordinal`.
    #[must_use]
    pub fn panics_at(&self, ordinal: u64) -> bool {
        self.exact.contains(&ordinal)
            || self
                .periodic
                .iter()
                .any(|(period, offset)| ordinal % period == *offset)
    }

    /// Whether the plan schedules nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty() && self.periodic.is_empty()
    }
}

/// Incremental [`FaultPlan`] construction.
#[derive(Debug, Default)]
pub struct FaultPlanBuilder {
    plan: FaultPlan,
}

impl FaultPlanBuilder {
    /// Panic when processing request `ordinal`.
    #[must_use]
    pub fn panic_at(mut self, ordinal: u64) -> Self {
        self.plan.exact.insert(ordinal);
        self
    }

    /// Panic on every ordinal with `ordinal % period == offset`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn panic_every(mut self, period: u64, offset: u64) -> Self {
        assert!(period > 0, "period must be positive");
        self.plan.periodic.push((period, offset % period));
        self
    }

    /// Finishes the plan.
    #[must_use]
    pub fn build(self) -> FaultPlan {
        self.plan
    }
}

thread_local! {
    /// Whether the current thread is inside a worker's panic guard; the
    /// silenced hook consults it to decide between suppressing and
    /// delegating.
    static IN_WORKER_GUARD: Cell<bool> = const { Cell::new(false) };
}

fn install_silencer_once() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !IN_WORKER_GUARD.with(Cell::get) {
                previous(info);
            }
            // Guarded panics stay silent: the payload is delivered to the
            // requester as `ServiceError::Internal`, and the metrics count
            // it — stderr spew would only bury real failures in chaos runs.
        }));
    });
}

/// Runs `f`, catching any panic and returning its payload rendered to a
/// string. While `f` runs, the process-wide panic hook (installed lazily,
/// once) suppresses the default stderr report for this thread — the
/// payload is not lost, it is the `Err` value.
///
/// The `AssertUnwindSafe` is sound for the worker's use: everything the
/// job closure captures is either atomics designed for concurrent
/// observation (metrics, cache — a torn *logical* update is impossible,
/// the panic happens between atomic operations) or owned by the job
/// itself and dropped with it.
pub(crate) fn guarded_catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    install_silencer_once();
    IN_WORKER_GUARD.with(|flag| flag.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
    IN_WORKER_GUARD.with(|flag| flag.set(false));
    outcome.map_err(|payload| {
        payload
            .downcast_ref::<&'static str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let plan = FaultPlan::builder()
            .panic_at(3)
            .panic_at(7)
            .panic_every(100, 50)
            .build();
        assert!(plan.panics_at(3));
        assert!(!plan.panics_at(5));
        assert!(plan.panics_at(7));
        assert!(plan.panics_at(150));
        assert!(!plan.panics_at(151));
        assert!(!plan.panics_at(0));
        assert!(!plan.is_empty());
        assert!(FaultPlan::default().is_empty());
    }

    #[test]
    fn guarded_catch_returns_payload_and_survives() {
        assert_eq!(guarded_catch(|| 41 + 1), Ok(42));
        let caught = guarded_catch(|| -> u32 { panic!("injected fault #7") });
        assert_eq!(caught, Err("injected fault #7".to_owned()));
        let formatted = guarded_catch(|| -> u32 { panic!("ordinal {}", 9) });
        assert_eq!(formatted, Err("ordinal 9".to_owned()));
        // The guard resets: a later success is unaffected.
        assert_eq!(guarded_catch(|| "ok"), Ok("ok"));
    }
}
