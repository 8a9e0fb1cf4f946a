//! Deterministic fault injection: a replayable chaos plan for the service.
//!
//! A [`FaultPlan`] maps exact *request ordinals* (the 0-based submission
//! index the service assigns under its lock-free counter) to fault
//! actions: a panic inside the worker, which is what an optimizer bug
//! produces, or a queue-full bounce at submission. Because the trigger is
//! the ordinal — not a timer or a random draw — a chaos run is exactly
//! replayable: the same trace plus the same plan produces the same panics
//! and the same rejections, which is what lets `tests/replay.rs` and
//! `tests/chaos.rs` pin the robustness counters (`panics_total`,
//! `failed`, `queue_full`) exactly.
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
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// What to inject when a request's ordinal matches the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic inside the worker right before processing; the guard converts
    /// it to `ServiceError::Internal` and the worker survives.
    Panic,
    /// Reject at submission as if the queue were at capacity.
    QueueFull,
}

/// A deterministic fault schedule keyed by request ordinal.
///
/// Exact ordinals win over periodic rules when both match.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    exact: HashMap<u64, FaultAction>,
    /// `(period, offset, action)`: fires on every ordinal where
    /// `ordinal % period == offset`.
    periodic: Vec<(u64, u64, FaultAction)>,
}

impl FaultPlan {
    /// Starts an empty plan builder.
    #[must_use]
    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder {
            plan: FaultPlan::default(),
        }
    }

    /// The action scheduled for `ordinal`, if any.
    #[must_use]
    pub fn at(&self, ordinal: u64) -> Option<FaultAction> {
        if let Some(action) = self.exact.get(&ordinal) {
            return Some(*action);
        }
        self.periodic
            .iter()
            .find(|(period, offset, _)| ordinal % period == *offset)
            .map(|(_, _, action)| *action)
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
        self.plan.exact.insert(ordinal, FaultAction::Panic);
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
        self.plan
            .periodic
            .push((period, offset % period, FaultAction::Panic));
        self
    }

    /// Reject request `ordinal` at submission as if the queue were full.
    #[must_use]
    pub fn queue_full_at(mut self, ordinal: u64) -> Self {
        self.plan.exact.insert(ordinal, FaultAction::QueueFull);
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
/// observation (metrics, cache, learned estimates — a torn *logical*
/// update is impossible, the panic happens between atomic operations) or
/// owned by the job itself and dropped with it.
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
            .queue_full_at(7)
            .panic_every(100, 50)
            .build();
        assert_eq!(plan.at(3), Some(FaultAction::Panic));
        assert_eq!(plan.at(5), None);
        assert_eq!(plan.at(7), Some(FaultAction::QueueFull));
        assert_eq!(plan.at(150), Some(FaultAction::Panic));
        assert_eq!(plan.at(151), None);
        assert_eq!(plan.at(0), None);
        assert!(!plan.is_empty());
        assert!(FaultPlan::default().is_empty());
    }

    #[test]
    fn exact_ordinals_override_periodic_rules() {
        let plan = FaultPlan::builder()
            .panic_every(4, 0)
            .queue_full_at(8)
            .build();
        assert_eq!(plan.at(4), Some(FaultAction::Panic));
        assert_eq!(plan.at(8), Some(FaultAction::QueueFull));
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
