//! Service-level observability: request counters, a per-`ServiceError`
//! error taxonomy, per-algorithm block mix, and latency percentiles from
//! lock-free log-bucket histograms.
//!
//! Every request counter is a projection of one table of event counts, a
//! row per [`EventKind`], bumped by the call that also writes the event to
//! the flight recorder (when tracing is on), so counters cannot disagree
//! with the trace. The cache counters are the exception: the plan cache
//! keeps its own, and a snapshot copies them in. Recording is a relaxed
//! atomic `fetch_add`: no `Mutex`, no allocation, O(buckets) memory
//! regardless of uptime or request count.
//! `snapshot()` cost is likewise independent of how many requests
//! completed (a `bench_snapshot` cell and a unit test pin this).

use moqo_sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use moqo_core::Algorithm;

use crate::cache::CacheSnapshot;
use crate::histogram::LogHistogram;
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
/// counter splits on — the `queue_full` origin (0 genuine), the `failed`
/// [`error_code`], the `cache_probe` outcome (0 hit), and the
/// `block_optimized` algorithm code (cell bits 0–1) and its downgraded
/// flag (bit 2). Other kinds count in cell 0.
fn event_detail(kind: EventKind, arg0: u64) -> usize {
    let detail = match kind {
        EventKind::QueueFull | EventKind::Failed => arg0,
        EventKind::CacheProbe => arg0 >> 32,
        EventKind::BlockOptimized => ((arg0 >> 32) & 0b11) | ((arg0 >> 39) & 0b100),
        _ => 0,
    };
    detail.min(DETAILS as u64 - 1) as usize
}

/// Live counters; cheap to update from every worker, safe to share via
/// `Arc`. All recording methods are lock-free.
pub struct ServiceMetrics {
    started: Instant,
    /// Lifecycle event counts: a row per [`EventKind`] wire code, a cell
    /// per [`event_detail`]. Each event bumps one cell, and every request
    /// counter of [`MetricsSnapshot`] is a sum of cells.
    events: [[AtomicU64; DETAILS]; EventKind::COUNT],
    /// Submission → response, the sum of the two series below (recorded on
    /// one clock, the job's submission `Instant`, so the series agree by
    /// construction — no cross-clock `.max` papering needed).
    latency: LogHistogram,
    /// Submission → worker pickup.
    queue_wait: LogHistogram,
    /// Worker pickup → response (cache probes + optimization).
    service_time: LogHistogram,
    /// End of the last throughput window: microseconds since `started`.
    window_started_us: AtomicU64,
    /// `completed` at the end of the last throughput window.
    window_completed: AtomicU64,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        ServiceMetrics {
            started: Instant::now(),
            events: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            latency: LogHistogram::new(),
            queue_wait: LogHistogram::new(),
            service_time: LogHistogram::new(),
            window_started_us: AtomicU64::new(0),
            window_completed: AtomicU64::new(0),
        }
    }
}

impl ServiceMetrics {
    /// Counts one lifecycle event of `kind` with first argument `arg0`
    /// (laid out as [`EventKind`] documents).
    #[moqo::hot_path]
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

    /// Records one completed request: its `completed` event, queue wait and
    /// processing time to separate histogram series, their sum to the
    /// end-to-end series. All three are measured from the same submission
    /// `Instant`, so no cross-clock reconciliation is needed (or performed).
    #[moqo::hot_path]
    pub fn on_completed(&self, queue_wait: Duration, service_time: Duration) {
        self.on_event(EventKind::Completed, 0);
        self.queue_wait.record(queue_wait);
        self.service_time.record(service_time);
        self.latency.record(queue_wait + service_time);
    }

    /// A consistent-enough point-in-time view. Counters are relaxed loads;
    /// percentiles come from O(buckets) histogram walks — the cost does
    /// not depend on how many requests completed.
    ///
    /// Each call also closes the current *throughput window*:
    /// `throughput_rps` covers completions since the previous `snapshot()`
    /// (or since startup, on the first call), so a long-idle service
    /// reports its live rate instead of a lifetime average diluted by
    /// idle uptime.
    #[must_use]
    pub fn snapshot(&self, cache: CacheSnapshot) -> MetricsSnapshot {
        let latency = self.latency.snapshot();
        let queue_wait = self.queue_wait.snapshot();
        let service_time = self.service_time.snapshot();
        let all = |_| true;
        let completed = self.count(EventKind::Completed, all);
        let elapsed = self.started.elapsed();
        let now_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        // Guard against back-to-back snapshots: a window of a few
        // microseconds holding one completion used to report a
        // million-rps "spike" (or divide by ~0). Windows shorter than
        // `MIN_WINDOW_US` are *not closed* — the rate is computed over the
        // still-open window with the denominator clamped to the minimum,
        // and the next snapshot sees the full window. The close itself is
        // a CAS so two racing snapshots cannot both claim the same window.
        const MIN_WINDOW_US: u64 = 1_000;
        #[allow(clippy::cast_precision_loss)]
        let throughput_rps = {
            let window_start = self.window_started_us.load(Ordering::Relaxed);
            let window_us = now_us.saturating_sub(window_start);
            let closing = window_us >= MIN_WINDOW_US
                && self
                    .window_started_us
                    .compare_exchange(window_start, now_us, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok();
            let window_completed = if closing {
                self.window_completed.swap(completed, Ordering::Relaxed)
            } else {
                self.window_completed.load(Ordering::Relaxed)
            };
            let window_done = completed.saturating_sub(window_completed);
            window_done as f64 / (window_us.max(MIN_WINDOW_US) as f64 / 1e6)
        };
        let failed_as = |errors: &[ServiceError]| {
            self.count(EventKind::Failed, |code| {
                errors.iter().any(|e| error_code(e) == code as u64)
            })
        };
        let block = |mask: usize, value: usize| {
            self.count(EventKind::BlockOptimized, |d| d & mask == value)
        };
        let algorithm = |kind: AlgorithmKind| block(0b11, kind.index());
        // `enqueued` precedes the push and a genuine bounce follows it.
        let bounced = self.count(EventKind::QueueFull, |origin| origin == 0);
        MetricsSnapshot {
            uptime: elapsed,
            submitted: self.count(EventKind::Enqueued, all).saturating_sub(bounced),
            completed,
            rejected: self.count(EventKind::Rejected, all)
                + failed_as(&[ServiceError::Rejected(String::new())]),
            timed_out: failed_as(&[ServiceError::DeadlineExceeded]),
            failed: failed_as(&[
                ServiceError::QueueFull,
                ServiceError::ShuttingDown,
                ServiceError::internal(String::new()),
                ServiceError::WorkerLost,
            ]),
            queue_full: self.count(EventKind::QueueFull, all),
            panics_total: self.count(EventKind::PanicCaught, all),
            downgraded_blocks: block(0b100, 0b100),
            throughput_rps,
            p50: latency.quantile(0.50),
            p95: latency.quantile(0.95),
            p99: latency.quantile(0.99),
            queue_p50: queue_wait.quantile(0.50),
            queue_p95: queue_wait.quantile(0.95),
            queue_p99: queue_wait.quantile(0.99),
            service_p50: service_time.quantile(0.50),
            service_p95: service_time.quantile(0.95),
            service_p99: service_time.quantile(0.99),
            blocks_exa: algorithm(AlgorithmKind::Exa),
            blocks_rta: algorithm(AlgorithmKind::Rta),
            blocks_ira: algorithm(AlgorithmKind::Ira),
            blocks_rmq: algorithm(AlgorithmKind::Rmq),
            blocks_cached: self.count(EventKind::CacheProbe, |outcome| outcome == 0),
            cache,
        }
    }
}

/// Everything an operator dashboard would plot.
///
/// Percentiles are log-bucket quantiles: each reported value is the lower
/// bound of the histogram bucket containing the exact order statistic, so
/// it never exceeds the true percentile and undershoots by at most 12.5%
/// (one bucket; exact below 8 µs) — see the `histogram` module.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Time since the service started.
    pub uptime: Duration,
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests answered with a plan.
    pub completed: u64,
    /// Requests rejected as sent — malformed, or admitted by no algorithm
    /// for their deadline — and only those; deadline expiries and internal
    /// failures have their own counters below.
    pub rejected: u64,
    /// Requests whose deadline expired before a block could start.
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
    /// Completed requests per second over the current throughput window
    /// (since the previous snapshot; since startup on the first one).
    pub throughput_rps: f64,
    /// Median request latency (submission → response).
    pub p50: Duration,
    /// 95th-percentile latency.
    pub p95: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
    /// Median queue wait (submission → worker pickup).
    pub queue_p50: Duration,
    /// 95th-percentile queue wait.
    pub queue_p95: Duration,
    /// 99th-percentile queue wait.
    pub queue_p99: Duration,
    /// Median processing time (worker pickup → response).
    pub service_p50: Duration,
    /// 95th-percentile processing time.
    pub service_p95: Duration,
    /// 99th-percentile processing time.
    pub service_p99: Duration,
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

/// A lock-free exponentially weighted moving average of durations, new
/// samples weighted 0.2: `f64` microseconds held as bits in one
/// `AtomicU64`, where 0 bits mean "no sample yet".
#[derive(Debug, Default)]
pub(crate) struct EwmaCell(AtomicU64);

impl EwmaCell {
    const SMOOTHING: f64 = 0.2;

    /// Folds one sample in (short CAS loop; a lost race drops one sample
    /// of smoothing, never corrupts the estimate).
    #[moqo::hot_path]
    pub(crate) fn record(&self, sample: Duration) {
        let sample_us = sample.as_secs_f64() * 1e6;
        let mut current = self.0.load(Ordering::Relaxed);
        for _ in 0..4 {
            let updated = if current == 0 {
                sample_us
            } else {
                Self::SMOOTHING * sample_us + (1.0 - Self::SMOOTHING) * f64::from_bits(current)
            };
            // Exactly-0.0 bits would read as "no sample"; nudge instead.
            let bits = updated.max(f64::MIN_POSITIVE).to_bits();
            match self
                .0
                .compare_exchange_weak(current, bits, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// The current estimate, `None` before the first sample.
    pub(crate) fn get(&self) -> Option<Duration> {
        let bits = self.0.load(Ordering::Relaxed);
        (bits != 0).then(|| Duration::from_secs_f64(f64::from_bits(bits) / 1e6))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::LogHistogram;

    #[test]
    fn percentiles_over_known_latencies() {
        let m = ServiceMetrics::default();
        for ms in 1..=100u64 {
            m.on_completed(Duration::ZERO, Duration::from_millis(ms));
        }
        let snap = m.snapshot(CacheSnapshot::default());
        assert_eq!(snap.completed, 100);
        // Log-bucket quantiles: within one bucket below the exact answer.
        for (got, exact_ms) in [(snap.p50, 51u64), (snap.p95, 95), (snap.p99, 99)] {
            let exact = exact_ms * 1000;
            let got = u64::try_from(got.as_micros()).unwrap();
            let (lo, _) = LogHistogram::bucket_bounds(exact);
            assert!(
                got >= lo && got <= exact,
                "got {got} for exact {exact} (bucket lo {lo})"
            );
        }
        // Queue waits were all zero; processing carries the latency.
        assert_eq!(snap.queue_p99, Duration::ZERO);
        assert!(snap.service_p50 > Duration::ZERO);
        assert_eq!(snap.p95, snap.service_p95);
        assert!(snap.throughput_rps > 0.0);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = ServiceMetrics::default();
        let snap = m.snapshot(CacheSnapshot::default());
        assert_eq!(snap.p50, Duration::ZERO);
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
        // kept, one bounced off the full queue, one injected bounce.
        for kind in [EventKind::Rejected, EventKind::Enqueued] {
            m.on_event(kind, 0);
        }
        m.on_event(EventKind::Enqueued, 0);
        m.on_event(EventKind::QueueFull, 0);
        m.on_event(EventKind::QueueFull, 1);
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
        assert_eq!(snap.queue_full, 2);
        assert_eq!(snap.panics_total, 1);
        assert_eq!(snap.errors_total(), 8);
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
    fn back_to_back_snapshots_never_report_absurd_throughput() {
        let m = ServiceMetrics::default();
        std::thread::sleep(Duration::from_millis(2));
        let _ = m.snapshot(CacheSnapshot::default());
        // One completion, then an immediate snapshot: the old swap-based
        // window could divide 1 completion by a microsecond-scale window
        // and report ~1M rps. The clamped denominator bounds the rate to
        // completions-per-minimum-window.
        m.on_completed(Duration::ZERO, Duration::from_micros(5));
        let spike = m.snapshot(CacheSnapshot::default());
        assert!(
            spike.throughput_rps <= 1_000.0,
            "1 completion in a sub-ms window must cap at 1/1ms = 1000 rps, \
             got {}",
            spike.throughput_rps
        );
        // The short window stayed open: once it is long enough, the same
        // completion still closes a window (not lost to the guard).
        std::thread::sleep(Duration::from_millis(2));
        let settled = m.snapshot(CacheSnapshot::default());
        assert!(settled.throughput_rps > 0.0);
    }

    #[test]
    fn racing_ewma_samples_serialize() {
        // Two racing samples on a fresh cell fold in one of the two orders:
        // 10 ms then 20 ms is 0.2·20 + 0.8·10 = 12 ms, the other order
        // 18 ms. A lost CAS retries against the winner's value; anything
        // else (10, 20, a mix) means a sample was dropped or corrupted.
        fn serialized(estimate: Option<Duration>) -> bool {
            let ms = estimate.unwrap().as_secs_f64() * 1e3;
            [12.0, 18.0].iter().any(|v| (ms - v).abs() < 1e-9)
        }
        for _ in 0..1_000 {
            let cell = EwmaCell::default();
            let times = crate::policy::LearnedBlockTimes::new();
            // A spinning start line, not a `Barrier`: a thread parked in a
            // barrier wakes after the other has already recorded.
            let arrived = AtomicU64::new(0);
            std::thread::scope(|s| {
                for wait_ms in [10, 20] {
                    let (arrived, cell, times) = (&arrived, &cell, &times);
                    s.spawn(move || {
                        arrived.fetch_add(1, Ordering::SeqCst);
                        while arrived.load(Ordering::SeqCst) < 2 {
                            std::hint::spin_loop();
                        }
                        cell.record(Duration::from_millis(wait_ms));
                        times.record(3, Duration::from_millis(wait_ms));
                    });
                }
            });
            assert!(serialized(cell.get()), "{:?}", cell.get());
            assert!(serialized(times.estimate(3)), "{:?}", times.estimate(3));
            assert_eq!(times.estimate(4), None, "untouched sizes stay empty");
        }
    }

    #[test]
    fn throughput_windows_reset_per_snapshot() {
        let m = ServiceMetrics::default();
        for _ in 0..100 {
            m.on_completed(Duration::ZERO, Duration::from_micros(10));
        }
        std::thread::sleep(Duration::from_millis(5));
        let first = m.snapshot(CacheSnapshot::default());
        assert!(first.throughput_rps > 0.0, "first window covers startup");
        // An idle window right after: the live rate drops to ~0 instead of
        // reporting the diluted lifetime average.
        std::thread::sleep(Duration::from_millis(5));
        let second = m.snapshot(CacheSnapshot::default());
        assert!(
            second.throughput_rps < first.throughput_rps / 2.0,
            "idle window must not inherit lifetime throughput \
             ({} vs {})",
            second.throughput_rps,
            first.throughput_rps
        );
    }

    #[test]
    fn snapshot_cost_is_independent_of_completed_count() {
        let time_snapshot = |recordings: u64| -> Duration {
            let m = ServiceMetrics::default();
            for i in 0..recordings {
                m.on_completed(
                    Duration::from_micros(i % 997),
                    Duration::from_micros(i % 100_003),
                );
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
        // completions cost well over 200× the snapshot. The histogram walk
        // is O(buckets); allow generous constant-factor noise only.
        assert!(
            large < small * 20 + Duration::from_millis(2),
            "snapshot() cost grew with request count: {small:?} at 1k vs \
             {large:?} at 200k completions"
        );
    }
}
