//! Optimization-time budgets (the paper's two-hour timeout, §5.1) and
//! cancellation.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A wall-clock deadline for one optimizer run, optionally tied to a shared
/// cancel flag. The paper's experiments use a two-hour timeout; when it
/// expires, the dynamic programming "finishes quickly by only generating one
/// plan for all table sets that have not been treated so far" (§5.1). A set
/// cancel flag expires the deadline the same way, so a caller that stops
/// waiting for a run (a serving layer whose requester went away) gets the
/// optimizer's own timeout path: DP quick-finish, the IRA's stop, RMQ's
/// incumbent front.
///
/// Checks are amortized: [`Deadline::expired`] reads the clock and the flag
/// only every few thousand calls. Without a flag an unlimited deadline
/// never reads either.
#[derive(Debug)]
pub struct Deadline {
    start: Instant,
    limit: Option<Duration>,
    cancel: Option<Arc<AtomicBool>>,
    check_counter: Cell<u32>,
    expired_flag: Cell<bool>,
}

/// How many `expired()` calls share one clock (and flag) read.
const CHECK_EVERY: u32 = 4096;

impl Deadline {
    /// A deadline `limit` from now; `None` means unlimited.
    #[must_use]
    pub fn new(limit: Option<Duration>) -> Self {
        Deadline::cancellable(limit, None)
    }

    /// A deadline `limit` from now that also expires once `cancel` is set
    /// (`None` for either means no such limit).
    #[must_use]
    #[expect(clippy::disallowed_methods, reason = "every time budget starts here")]
    pub fn cancellable(limit: Option<Duration>, cancel: Option<Arc<AtomicBool>>) -> Self {
        Deadline {
            start: Instant::now(),
            limit,
            cancel,
            check_counter: Cell::new(0),
            expired_flag: Cell::new(false),
        }
    }

    /// An unlimited deadline.
    #[must_use]
    pub fn unlimited() -> Self {
        Deadline::new(None)
    }

    /// The shared cancel flag, if any: worker threads that derive their own
    /// deadline (see [`Deadline::remaining`]) carry the same flag.
    #[must_use]
    pub fn cancel_flag(&self) -> Option<Arc<AtomicBool>> {
        self.cancel.clone()
    }

    /// Cheap amortized expiry check: the clock and the cancel flag are read
    /// on the first call and then once every 4096 calls.
    #[inline]
    pub fn expired(&self) -> bool {
        if self.expired_flag.get() {
            return true;
        }
        if self.limit.is_none() && self.cancel.is_none() {
            return false;
        }
        let n = self.check_counter.get();
        if n == 0 {
            self.check_counter.set(CHECK_EVERY);
            return self.check();
        }
        self.check_counter.set(n - 1);
        false
    }

    /// Precise expiry check (always reads the flag and the clock).
    #[must_use]
    pub fn expired_now(&self) -> bool {
        self.expired_flag.get() || self.check()
    }

    /// Reads the cancel flag, then the clock, and makes a positive answer
    /// sticky.
    fn check(&self) -> bool {
        let cancelled = self
            .cancel
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Acquire));
        let expired = cancelled
            || self
                .limit
                .is_some_and(|limit| self.start.elapsed() >= limit);
        if expired {
            self.expired_flag.set(true);
        }
        expired
    }

    /// Elapsed time since the deadline was created.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// The budget left on the clock right now: `None` for an unlimited
    /// deadline, zero once expired. Worker threads cannot share a
    /// [`Deadline`] (the amortization cells are intentionally not `Sync`),
    /// so each derives its own from the remaining budget at spawn time and
    /// the same [`Deadline::cancel_flag`].
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.limit.map(|l| l.saturating_sub(self.start.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires() {
        let d = Deadline::unlimited();
        for _ in 0..10_000 {
            assert!(!d.expired());
        }
        assert!(!d.expired_now());
    }

    #[test]
    fn zero_limit_expires_immediately() {
        let d = Deadline::new(Some(Duration::ZERO));
        assert!(d.expired_now());
        assert!(d.expired());
    }

    #[test]
    fn expiry_is_sticky() {
        let d = Deadline::new(Some(Duration::ZERO));
        assert!(d.expired_now());
        // Once expired, even amortized checks report true immediately.
        for _ in 0..10 {
            assert!(d.expired());
        }
    }

    #[test]
    fn generous_limit_does_not_expire() {
        let d = Deadline::new(Some(Duration::from_secs(3600)));
        for _ in 0..10_000 {
            assert!(!d.expired());
        }
    }

    #[test]
    fn remaining_tracks_the_budget() {
        assert_eq!(Deadline::unlimited().remaining(), None);
        let d = Deadline::new(Some(Duration::from_secs(3600)));
        let r = d.remaining().unwrap();
        assert!(r <= Duration::from_secs(3600) && r > Duration::from_secs(3500));
        let expired = Deadline::new(Some(Duration::ZERO));
        assert_eq!(expired.remaining(), Some(Duration::ZERO));
    }

    /// Calls to `expired()` until it reports true, giving up after `cap`.
    fn calls_until_expired(d: &Deadline, cap: u32) -> Option<u32> {
        (1..=cap).find(|_| d.expired())
    }

    #[test]
    fn a_set_flag_expires_within_one_check_interval() {
        for limit in [None, Some(Duration::from_secs(3600))] {
            let flag = Arc::new(AtomicBool::new(false));
            let d = Deadline::cancellable(limit, Some(Arc::clone(&flag)));
            // The first call reads the flag and starts a fresh interval:
            // the worst case for a flag set right after it.
            assert!(!d.expired());
            flag.store(true, Ordering::Release);
            let calls = calls_until_expired(&d, 10_000);
            assert!(
                calls.is_some_and(|n| n <= CHECK_EVERY + 1),
                "{limit:?}: {calls:?}"
            );
            assert!(d.expired(), "expiry is sticky");
        }
    }

    #[test]
    fn expired_now_sees_the_flag_at_once() {
        let flag = Arc::new(AtomicBool::new(false));
        let d = Deadline::cancellable(None, Some(Arc::clone(&flag)));
        assert!(!d.expired());
        assert!(!d.expired_now());
        flag.store(true, Ordering::Release);
        assert!(d.expired_now());
        assert!(d.expired(), "the precise check makes expiry sticky");
    }

    #[test]
    fn an_unset_flag_never_expires_an_unlimited_deadline() {
        let flag = Arc::new(AtomicBool::new(false));
        let d = Deadline::cancellable(None, Some(Arc::clone(&flag)));
        assert_eq!(calls_until_expired(&d, 3 * CHECK_EVERY), None);
        assert!(!d.expired_now());
        assert_eq!(d.remaining(), None);
        assert!(d.cancel_flag().is_some_and(|f| Arc::ptr_eq(&f, &flag)));
        assert!(Deadline::unlimited().cancel_flag().is_none());
    }

    #[test]
    fn elapsed_grows() {
        let d = Deadline::unlimited();
        let a = d.elapsed();
        let b = d.elapsed();
        assert!(b >= a);
    }
}
