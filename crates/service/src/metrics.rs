//! Service-level observability: request counters, a per-`ServiceError`
//! error taxonomy and the per-algorithm block mix.
//!
//! Every request counter is a projection of one table of event counts, a
//! row per [`EventKind`], bumped by the call that also writes the event to
//! the flight recorder (when tracing is on), so counters cannot disagree
//! with the trace. The cache counters are the exception: the plan cache
//! keeps its own, and a snapshot copies them in. Recording is a relaxed
//! atomic `fetch_add`: no `Mutex`, no allocation, fixed memory regardless
//! of uptime or request count. `snapshot()` cost is likewise independent
//! of how many requests completed (a `bench_snapshot` cell and a unit test
//! pin this).
//!
//! The service keeps no timing statistics. A request's time is recorded
//! twice, in its trace events' timestamps and in the response's own
//! durations (`queue_wait`, `service_time`, each block's
//! `BlockReport::elapsed`); percentiles and rates are the reader's to
//! compute from those.

use moqo_sync::atomic::{AtomicU64, Ordering};

use moqo_core::Algorithm;

use crate::cache::CacheSnapshot;
use crate::request::ServiceError;
use crate::trace::{error_code, EventKind};

/// Which algorithm family optimized a block (the service's per-algorithm
/// mix; cache-served blocks count as `cache_probe` hits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmKind {
    /// The exact algorithm.
    Exa,
    /// The representative-tradeoffs approximation scheme.
    Rta,
    /// The iterative-refinement approximation scheme.
    Ira,
    /// The anytime randomized optimizer.
    Rmq,
}

impl AlgorithmKind {
    /// Classifies an [`Algorithm`].
    #[must_use]
    pub fn of(algorithm: Algorithm) -> Self {
        match algorithm {
            Algorithm::Exhaustive => AlgorithmKind::Exa,
            Algorithm::Rta { .. } => AlgorithmKind::Rta,
            Algorithm::Ira { .. } => AlgorithmKind::Ira,
            Algorithm::Rmq { .. } => AlgorithmKind::Rmq,
        }
    }

    fn index(self) -> usize {
        match self {
            AlgorithmKind::Exa => 0,
            AlgorithmKind::Rta => 1,
            AlgorithmKind::Ira => 2,
            AlgorithmKind::Rmq => 3,
        }
    }

    /// Stable wire code, packed into trace events.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        u8::try_from(self.index()).expect("four kinds fit a byte")
    }
}

/// Counter cells per event kind (see [`event_detail`]).
const DETAILS: usize = 16;

/// The counter cell an event lands in: the part of `arg0` a snapshot
/// counter splits on — the `failed` [`error_code`], the `cache_probe`
/// outcome (0 hit), and the `block_optimized` algorithm code (cell bits
/// 0–1) and its downgraded flag (bit 2). Other kinds count in cell 0.
fn event_detail(kind: EventKind, arg0: u64) -> usize {
    let detail = match kind {
        EventKind::Failed => arg0,
        EventKind::CacheProbe => arg0 >> 32,
        EventKind::BlockOptimized => ((arg0 >> 32) & 0b11) | ((arg0 >> 39) & 0b100),
        _ => 0,
    };
    detail.min(DETAILS as u64 - 1) as usize
}

/// Live counters; cheap to update from every worker, safe to share via
/// `Arc`. Recording is lock-free.
pub struct ServiceMetrics {
    /// Lifecycle event counts: a row per [`EventKind`] wire code, a cell
    /// per [`event_detail`]. Each event bumps one cell, and every request
    /// counter of [`MetricsSnapshot`] is a sum of cells.
    events: [[AtomicU64; DETAILS]; EventKind::COUNT],
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        ServiceMetrics {
            events: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }
}

impl ServiceMetrics {
    /// Counts one lifecycle event of `kind` with first argument `arg0`
    /// (laid out as [`EventKind`] documents).
    pub fn on_event(&self, kind: EventKind, arg0: u64) {
        self.events[kind as usize][event_detail(kind, arg0)].fetch_add(1, Ordering::Relaxed);
    }

    /// Events of `kind` counted in a cell that `keep` accepts.
    fn count(&self, kind: EventKind, keep: impl Fn(usize) -> bool) -> u64 {
        self.events[kind as usize]
            .iter()
            .enumerate()
            .filter(|&(detail, _)| keep(detail))
            .map(|(_, cell)| cell.load(Ordering::Relaxed))
            .sum()
    }

    /// A consistent-enough point-in-time view: relaxed loads of the event
    /// table, whose cost does not depend on how many requests completed.
    #[must_use]
    pub fn snapshot(&self, cache: CacheSnapshot) -> MetricsSnapshot {
        let all = |_| true;
        let failed_as = |errors: &[ServiceError]| {
            self.count(EventKind::Failed, |code| {
                errors.iter().any(|e| error_code(e) == code as u64)
            })
        };
        let block = |mask: usize, value: usize| {
            self.count(EventKind::BlockOptimized, |d| d & mask == value)
        };
        let algorithm = |kind: AlgorithmKind| block(0b11, kind.index());
        // `enqueued` precedes the push and a bounce follows it.
        let queue_full = self.count(EventKind::QueueFull, all);
        MetricsSnapshot {
            submitted: self
                .count(EventKind::Enqueued, all)
                .saturating_sub(queue_full),
            completed: self.count(EventKind::Completed, all),
            rejected: self.count(EventKind::Rejected, all)
                + failed_as(&[ServiceError::Rejected(String::new())]),
            timed_out: failed_as(&[ServiceError::DeadlineExceeded]),
            failed: failed_as(&[
                ServiceError::QueueFull,
                ServiceError::ShuttingDown,
                ServiceError::internal(String::new()),
                ServiceError::WorkerLost,
            ]),
            queue_full,
            panics_total: self.count(EventKind::PanicCaught, all),
            downgraded_blocks: block(0b100, 0b100),
            blocks_exa: algorithm(AlgorithmKind::Exa),
            blocks_rta: algorithm(AlgorithmKind::Rta),
            blocks_ira: algorithm(AlgorithmKind::Ira),
            blocks_rmq: algorithm(AlgorithmKind::Rmq),
            blocks_cached: self.count(EventKind::CacheProbe, |outcome| outcome == 0),
            cache,
        }
    }
}

/// The service's counters at one point in time. Every field but `cache` is
/// a projection of the event table; latencies and rates come from the
/// responses and the trace, not from here.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests answered with a plan.
    pub completed: u64,
    /// Requests rejected at submission as sent — malformed, or with a
    /// deadline below the admission minimum — and only those; deadline
    /// expiries and internal failures have their own counters below.
    pub rejected: u64,
    /// Requests whose deadline left a block too little budget to start.
    pub timed_out: u64,
    /// Requests lost to internal errors (none of the above taxonomy).
    pub failed: u64,
    /// Submissions bounced off a full queue.
    pub queue_full: u64,
    /// Worker panics caught at the job boundary and delivered as
    /// [`ServiceError::Internal`](crate::ServiceError::Internal); every
    /// one of these also counts in `failed`.
    pub panics_total: u64,
    /// Blocks that ran a weaker algorithm than the request preferred.
    pub downgraded_blocks: u64,
    /// Blocks optimized by the exact algorithm.
    pub blocks_exa: u64,
    /// Blocks optimized by RTA.
    pub blocks_rta: u64,
    /// Blocks optimized by IRA.
    pub blocks_ira: u64,
    /// Blocks optimized by RMQ (fresh or warm-started).
    pub blocks_rmq: u64,
    /// Blocks served straight from the plan cache.
    pub blocks_cached: u64,
    /// Plan-cache counters, read from the cache itself rather than from
    /// the event table.
    pub cache: CacheSnapshot,
}

impl MetricsSnapshot {
    /// Total failed submissions across the error taxonomy — the sum of
    /// its counters, `queue_full` included — what the seed's overloaded
    /// `rejected` counter used to absorb.
    #[must_use]
    pub fn errors_total(&self) -> u64 {
        self.rejected + self.timed_out + self.failed + self.queue_full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn empty_metrics_are_zero() {
        let m = ServiceMetrics::default();
        let snap = m.snapshot(CacheSnapshot::default());
        assert_eq!(snap.completed, 0);
        assert_eq!(snap.errors_total(), 0);
    }

    /// `block_optimized`'s `arg0` for algorithm `kind` with `flags`
    /// (bit 0 is the unassigned bit 40, bit 1 downgraded, bit 2
    /// warm-started).
    fn block(kind: AlgorithmKind, flags: u64) -> u64 {
        (u64::from(kind.as_u8()) << 32) | (flags << 40)
    }

    #[test]
    fn block_mix_accumulates() {
        let m = ServiceMetrics::default();
        m.on_event(EventKind::BlockOptimized, block(AlgorithmKind::Exa, 0));
        m.on_event(EventKind::BlockOptimized, block(AlgorithmKind::Rmq, 0b110));
        m.on_event(EventKind::CacheProbe, 0); // a hit serves the block
        m.on_event(EventKind::CacheProbe, 2 << 32); // a miss does not
        let snap = m.snapshot(CacheSnapshot::default());
        assert_eq!(snap.blocks_exa, 1);
        assert_eq!(snap.blocks_rmq, 1);
        assert_eq!(snap.blocks_cached, 1);
        assert_eq!(snap.downgraded_blocks, 1);
    }

    #[test]
    fn error_taxonomy_routes_to_distinct_counters() {
        let m = ServiceMetrics::default();
        // Submit-side verdicts are event kinds of their own: one enqueue
        // kept and one bounced off the full queue.
        for kind in [EventKind::Rejected, EventKind::Enqueued] {
            m.on_event(kind, 0);
        }
        m.on_event(EventKind::Enqueued, 0);
        m.on_event(EventKind::QueueFull, 0);
        // Worker-side errors are `failed` events keyed by error code.
        for error in [
            ServiceError::Rejected("no algorithm".into()),
            ServiceError::DeadlineExceeded,
            ServiceError::DeadlineExceeded,
            ServiceError::WorkerLost,
            ServiceError::internal("boom".into()),
        ] {
            m.on_event(EventKind::Failed, error_code(&error));
        }
        m.on_event(EventKind::PanicCaught, 4);
        let snap = m.snapshot(CacheSnapshot::default());
        assert_eq!(snap.submitted, 1);
        assert_eq!(snap.rejected, 2, "submit-time and worker-side");
        assert_eq!(snap.timed_out, 2);
        assert_eq!(snap.failed, 2, "WorkerLost and Internal both fail");
        assert_eq!(snap.queue_full, 1);
        assert_eq!(snap.panics_total, 1);
        assert_eq!(snap.errors_total(), 7);
    }

    #[test]
    fn robustness_counters_accumulate() {
        let m = ServiceMetrics::default();
        m.on_event(EventKind::PanicCaught, 4);
        m.on_event(EventKind::PanicCaught, 600);
        m.on_event(
            EventKind::Failed,
            error_code(&ServiceError::internal("a".into())),
        );
        // Bit 40 is unassigned: a block carrying it counts as neither
        // downgraded nor a different algorithm.
        m.on_event(EventKind::BlockOptimized, block(AlgorithmKind::Rmq, 0b001));
        m.on_event(EventKind::BlockOptimized, block(AlgorithmKind::Rta, 0b010));
        let snap = m.snapshot(CacheSnapshot::default());
        assert_eq!(snap.panics_total, 2);
        assert_eq!(snap.failed, 1);
        assert_eq!((snap.blocks_rmq, snap.blocks_rta), (1, 1));
        assert_eq!(snap.downgraded_blocks, 1);
    }

    #[test]
    fn snapshot_cost_is_independent_of_completed_count() {
        let time_snapshot = |recordings: u64| -> Duration {
            let m = ServiceMetrics::default();
            for i in 0..recordings {
                m.on_event(EventKind::Completed, i % 100_003);
            }
            // Min of several runs: the stable floor, immune to one-off
            // scheduler noise.
            (0..5)
                .map(|_| {
                    let started = Instant::now();
                    let snap = m.snapshot(CacheSnapshot::default());
                    assert_eq!(snap.completed, recordings);
                    started.elapsed()
                })
                .min()
                .expect("five timings")
        };
        let small = time_snapshot(1_000);
        let large = time_snapshot(200_000);
        // The seed's sort-under-lock snapshot scaled O(n log n): 200× the
        // completions cost well over 200× the snapshot. The event table is
        // a fixed array; allow generous constant-factor noise only.
        assert!(
            large < small * 20 + Duration::from_millis(2),
            "snapshot() cost grew with request count: {small:?} at 1k vs \
             {large:?} at 200k completions"
        );
    }
}
