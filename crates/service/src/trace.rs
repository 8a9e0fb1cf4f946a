//! The flight recorder: span-structured request tracing.
//!
//! Aggregate counters ([`crate::MetricsSnapshot`]) answer *how much*; they
//! cannot answer "why was request #417 slow / rejected / downgraded". This
//! module records the evidence trail per request as fixed-size
//! [`TraceEvent`]s — admit/reject, enqueue, pop (queue wait), cache probe
//! outcome, per-block optimization (algorithm, achieved α, report digest),
//! caught panic, completion.
//!
//! Each lifecycle transition is one call, [`RequestTrace::event`]. The
//! call always counts the event in the [`ServiceMetrics`] table that every
//! request counter of a snapshot is projected from, so counters and
//! traces come from one record and cannot disagree. When tracing is on,
//! the same call also writes the event into two sinks:
//!
//! * **Per-worker ring buffers** ([`EventRing`]): bounded, oldest
//!   overwritten, with a `dropped_events` count derived from the
//!   recorded count. A write takes the ring's mutex and copies the event
//!   into a pre-filled slot; nothing allocates. Each worker writes its
//!   own ring, and submitters share the last one.
//! * **A per-request span collector** ([`SpanCollector`]): a small
//!   buffer riding inside the job, so the *complete* trace of a request
//!   survives ring overwrite. At completion the recorder applies
//!   **tail-based exemplar retention**: every errored request (rejected,
//!   bounced, timed out, panicked, failed) is kept in full (a store of
//!   [`TraceConfig::ERROR_EXEMPLARS`], drop-oldest with its own counter).
//!   A completed request's span is dropped; its events stay in the rings.
//!
//! A [`TraceSnapshot`] reads both sinks at once.
//!
//! Timestamps come from a [`TraceClock`] seam: wall microseconds in
//! production, a logical counter under [`TraceConfig::logical_clock`] so
//! a single-worker replay's stream is byte-deterministic (pinned by
//! `tests/replay.rs`). Checksums ([`TraceEvent::digest`]) exclude the
//! timestamps, the only timing-valued field, and the error-exemplar
//! checksum folds per-trace hashes commutatively, so it is independent of
//! worker interleaving — that is what lets `tests/chaos.rs` pin a
//! 4-worker chaos run byte-stable.

use moqo_sync::atomic::{AtomicU64, Ordering};
use moqo_sync::{Mutex, MutexGuard};
use std::collections::VecDeque;
use std::time::Instant;

use crate::metrics::ServiceMetrics;
use crate::request::ServiceError;

/// FNV-1a over one `u64`, folded into `acc`.
fn fnv1a_u64(mut acc: u64, value: u64) -> u64 {
    for byte in value.to_le_bytes() {
        acc ^= u64::from(byte);
        acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
    }
    acc
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// What happened at one point of a request's lifecycle.
///
/// Wire codes are stable: a kind's code never moves, and a retired kind's
/// code is never reused. Codes 1, 3, 12 and 16 are unassigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A submission was received and a trace id (its ordinal) minted.
    /// `arg0` = block count, `arg1` = requested α bits, `arg2` = 1 when a
    /// deadline is attached.
    Submitted = 0,
    /// The request was rejected at submission: it is malformed, or the
    /// deadline is below the admission minimum.
    Rejected = 2,
    /// The submission bounced off a full queue.
    QueueFull = 4,
    /// The request took a queue slot.
    Enqueued = 5,
    /// A worker picked the request up. No argument is used: the queue
    /// wait is the time from `enqueued` to this event.
    Popped = 6,
    /// Reserved: never emitted (the service injects no delays). The
    /// variant stays because trace consumers outside this crate name it.
    FaultDelay = 7,
    /// A plan-cache probe for block `arg0 & 0xFFFF_FFFF`; bits 32.. of
    /// `arg0` carry the outcome (0 hit, 1 not-servable, 2 miss), `arg1`
    /// the resident entry's α bits (0 on a miss).
    CacheProbe = 8,
    /// One block was optimized. `arg0` packs block index (bits 0..32),
    /// [`crate::AlgorithmKind`] code (bits 32..40), and flags (bit 41
    /// downgraded, bit 42 warm-started; bit 40 is unassigned);
    /// `arg1` = achieved α bits; `arg2` = the block report's
    /// deterministic digest (`BlockReport::trace_digest`).
    BlockOptimized = 9,
    /// The deadline expired before block `arg0` could start.
    DeadlineExceeded = 10,
    /// The worker's panic guard caught a panic; `arg0` = payload byte
    /// length after capping, `arg1` = 1 when the payload was truncated.
    PanicCaught = 11,
    /// The request finished with an error; `arg0` = the
    /// [`ServiceError`] class code (see [`error_code`]).
    Failed = 13,
    /// The request completed; `arg0` is unused (the latency is the time
    /// from `submitted` to this event), `arg1` = block count, `arg2` = 1
    /// when fully cache-served.
    Completed = 14,
    /// Reserved: never emitted (workers are never respawned). The variant
    /// stays because trace consumers outside this crate name it.
    WorkerRespawned = 15,
}

impl EventKind {
    /// One past the largest wire code: the row count of a table indexed
    /// by kind.
    pub(crate) const COUNT: usize = EventKind::WorkerRespawned as usize + 1;

    /// Decodes the wire byte; `None` for a byte no kind uses.
    #[must_use]
    pub fn from_u8(value: u8) -> Option<Self> {
        use EventKind::{
            BlockOptimized, CacheProbe, Completed, DeadlineExceeded, Enqueued, Failed, FaultDelay,
            PanicCaught, Popped, QueueFull, Rejected, Submitted, WorkerRespawned,
        };
        Some(match value {
            0 => Submitted,
            2 => Rejected,
            4 => QueueFull,
            5 => Enqueued,
            6 => Popped,
            7 => FaultDelay,
            8 => CacheProbe,
            9 => BlockOptimized,
            10 => DeadlineExceeded,
            11 => PanicCaught,
            13 => Failed,
            14 => Completed,
            15 => WorkerRespawned,
            _ => return None,
        })
    }
}

/// The stable class code of a [`ServiceError`], carried by
/// [`EventKind::Failed`] events. Code 4 is unassigned (a retired class).
#[must_use]
pub fn error_code(error: &ServiceError) -> u64 {
    match error {
        ServiceError::QueueFull => 0,
        ServiceError::ShuttingDown => 1,
        ServiceError::Rejected(_) => 2,
        ServiceError::DeadlineExceeded => 3,
        ServiceError::Internal { .. } => 5,
        ServiceError::WorkerLost => 6,
    }
}

/// One fixed-size lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The request's trace id — its submission ordinal.
    pub trace_id: u64,
    /// `TraceClock` reading: wall µs since the recorder started, or a
    /// logical tick under replay. Never checksummed.
    pub ts: u64,
    /// What happened.
    pub kind: EventKind,
    /// 0-based index of this event within its trace (exactly-once
    /// ordering handle).
    pub seq: u16,
    /// First argument (meaning per [`EventKind`]).
    pub arg0: u64,
    /// Second argument.
    pub arg1: u64,
    /// Third argument.
    pub arg2: u64,
}

impl TraceEvent {
    /// Deterministic digest of the event: FNV-1a over trace id, kind,
    /// per-trace sequence number and all three arguments. The timestamp,
    /// the only timing value an event carries, is excluded, so the digest
    /// is identical across runs and machines whenever the serving
    /// behaviour is.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut acc = fnv1a_u64(FNV_OFFSET, self.trace_id);
        acc = fnv1a_u64(acc, u64::from(self.kind as u8));
        acc = fnv1a_u64(acc, u64::from(self.seq));
        acc = fnv1a_u64(acc, self.arg0);
        acc = fnv1a_u64(acc, self.arg1);
        fnv1a_u64(acc, self.arg2)
    }
}

/// The clock trace timestamps are read from — wall microseconds in
/// production, a logical counter under deterministic replay.
#[derive(Debug)]
pub enum TraceClock {
    /// Microseconds since the recorder started.
    Wall(Instant),
    /// A process-wide logical tick: every reading is distinct and the
    /// sequence is deterministic whenever event order is.
    Logical(AtomicU64),
}

impl TraceClock {
    fn now(&self) -> u64 {
        match self {
            TraceClock::Wall(started) => {
                u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
            }
            TraceClock::Logical(ticks) => ticks.fetch_add(1, Ordering::Relaxed),
        }
    }
}

/// Tuning for the flight recorder (see [`crate::ServiceBuilder::tracing`]).
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Events each ring holds before overwriting the oldest (rounded up
    /// to a power of two; default 4096).
    pub ring_capacity: usize,
    /// Use the logical clock instead of wall time — replay mode, where
    /// the trace stream must be byte-deterministic (default `false`).
    pub logical_clock: bool,
}

impl TraceConfig {
    /// Full traces retained for errored requests before the store drops
    /// its oldest.
    pub const ERROR_EXEMPLARS: usize = 256;
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_capacity: 4096,
            logical_clock: false,
        }
    }
}

/// What a ring slot holds before its first write. A snapshot reads only
/// positions that were recorded, so this value is never returned.
const EMPTY_SLOT: TraceEvent = TraceEvent {
    trace_id: 0,
    ts: 0,
    kind: EventKind::Submitted,
    seq: 0,
    arg0: 0,
    arg1: 0,
    arg2: 0,
};

/// A bounded multi-producer event ring, oldest overwritten: one mutex
/// over a slot array filled at construction and the count of events
/// recorded so far, which also names the next slot (`recorded & mask`).
///
/// Aligned to 128 bytes, so rings that sit next to each other in the
/// recorder's `Vec` never share a cache line and with it a lock word.
#[repr(align(128))]
pub(crate) struct EventRing {
    mask: u64,
    state: Mutex<RingState>,
}

struct RingState {
    slots: Vec<TraceEvent>,
    recorded: u64,
}

impl EventRing {
    /// A ring of `capacity` slots (rounded up to a power of two, min 2).
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2).next_power_of_two();
        EventRing {
            mask: capacity as u64 - 1,
            state: Mutex::new(RingState {
                slots: vec![EMPTY_SLOT; capacity],
                recorded: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().expect("trace ring lock poisoned")
    }

    /// The slot that holds stream position `pos`.
    #[allow(clippy::cast_possible_truncation)]
    fn slot(&self, pos: u64) -> usize {
        (pos & self.mask) as usize
    }

    /// Records one event, overwriting the oldest once the ring is full.
    /// Copies the event under the lock; never allocates.
    pub(crate) fn record(&self, event: &TraceEvent) {
        let mut ring = self.lock();
        let at = self.slot(ring.recorded);
        ring.slots[at] = *event;
        ring.recorded += 1;
    }

    /// Events recorded over this ring's lifetime.
    #[cfg(test)]
    fn recorded(&self) -> u64 {
        self.lock().recorded
    }

    /// The still-resident suffix of the stream in ring order, plus how
    /// many older events were overwritten, read under one lock: the two
    /// always add up to the events recorded so far.
    fn snapshot(&self) -> (Vec<TraceEvent>, u64) {
        let ring = self.lock();
        let start = ring.recorded.saturating_sub(self.mask + 1);
        let events = (start..ring.recorded)
            .map(|pos| ring.slots[self.slot(pos)])
            .collect();
        (events, start)
    }
}

/// Why a full trace was retained as an exemplar. The discriminant is
/// folded into [`Exemplar::digest`], so it never moves; 1, 5 and 7 are
/// unassigned (retired classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExemplarClass {
    /// The request was malformed, or admission control rejected it.
    Rejected = 0,
    /// The submission bounced off a full queue.
    QueueFull = 2,
    /// The deadline expired mid-request.
    DeadlineExceeded = 3,
    /// A worker panic was caught while processing the request.
    Panicked = 4,
    /// Any other error (shutdown, lost worker).
    Failed = 6,
}

impl ExemplarClass {
    /// The retention class of a terminal [`ServiceError`].
    #[must_use]
    pub fn of_error(error: &ServiceError) -> Self {
        match error {
            ServiceError::QueueFull => ExemplarClass::QueueFull,
            ServiceError::Rejected(_) => ExemplarClass::Rejected,
            ServiceError::DeadlineExceeded => ExemplarClass::DeadlineExceeded,
            ServiceError::Internal { .. } => ExemplarClass::Panicked,
            ServiceError::ShuttingDown | ServiceError::WorkerLost => ExemplarClass::Failed,
        }
    }
}

/// A fully retained trace: every event of one errored request, in order.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// The request's trace id (submission ordinal).
    pub trace_id: u64,
    /// Why it was kept.
    pub class: ExemplarClass,
    /// The span's events in per-trace order.
    pub events: Vec<TraceEvent>,
    /// Whether the span collector overflowed (events beyond its fixed
    /// capacity were recorded to the rings only).
    pub truncated: bool,
}

impl Exemplar {
    /// Deterministic digest: FNV-1a over the class and the ordered event
    /// digests. Timing-valued fields are already excluded per event.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut acc = fnv1a_u64(FNV_OFFSET, self.trace_id);
        acc = fnv1a_u64(acc, u64::from(self.class as u8));
        for event in &self.events {
            acc = fnv1a_u64(acc, event.digest());
        }
        acc
    }
}

/// Events one span collector holds inline before flagging overflow
/// (events keep flowing to the rings regardless).
const SPAN_CAPACITY: usize = 48;

/// The per-request event buffer riding inside the job: one allocation at
/// submission, then plain pushes — ring overwrite can never lose a span's
/// events, which is what makes tail-based retention exact.
#[derive(Debug)]
pub(crate) struct SpanCollector {
    events: Vec<TraceEvent>,
    overflowed: bool,
}

impl SpanCollector {
    fn new() -> Self {
        SpanCollector {
            events: Vec::with_capacity(SPAN_CAPACITY),
            overflowed: false,
        }
    }

    fn push(&mut self, event: TraceEvent) {
        if self.events.len() < SPAN_CAPACITY {
            self.events.push(event);
        } else {
            self.overflowed = true;
        }
    }

    fn next_seq(&self) -> u16 {
        u16::try_from(self.events.len()).unwrap_or(u16::MAX)
    }
}

/// The service-wide flight recorder: one [`EventRing`] per worker
/// plus one for the submit path, the error-exemplar store, and the clock.
pub(crate) struct FlightRecorder {
    clock: TraceClock,
    /// `rings[worker]` for workers; the last ring takes submit-path
    /// events.
    rings: Vec<EventRing>,
    errors: Mutex<VecDeque<Exemplar>>,
    errors_dropped: AtomicU64,
}

impl FlightRecorder {
    #[expect(clippy::disallowed_methods, reason = "the wall `TraceClock` origin")]
    pub(crate) fn new(config: &TraceConfig, workers: usize) -> Self {
        FlightRecorder {
            clock: if config.logical_clock {
                TraceClock::Logical(AtomicU64::new(0))
            } else {
                TraceClock::Wall(Instant::now())
            },
            rings: (0..=workers)
                .map(|_| EventRing::new(config.ring_capacity))
                .collect(),
            errors: Mutex::new(VecDeque::new()),
            errors_dropped: AtomicU64::new(0),
        }
    }

    /// The submit-path ring index.
    pub(crate) fn submit_ring(&self) -> usize {
        self.rings.len() - 1
    }

    fn retain(&self, exemplar: Exemplar) {
        let mut errors = self.errors.lock().expect("exemplar lock poisoned");
        if errors.len() >= TraceConfig::ERROR_EXEMPLARS {
            errors.pop_front();
            self.errors_dropped.fetch_add(1, Ordering::Relaxed);
        }
        errors.push_back(exemplar);
    }
}

/// A point-in-time view of the flight recorder: the still-resident ring
/// events, the drop accounting, and the error exemplars.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Resident ring events ordered by timestamp (ties broken by trace id
    /// and per-trace sequence number).
    pub events: Vec<TraceEvent>,
    /// Events ever recorded across all rings: always
    /// `events.len() + dropped_events`, since each ring's share of both is
    /// read under one lock.
    pub events_total: u64,
    /// Ring events overwritten before this snapshot (best-effort stream
    /// only — exemplar retention never loses error-class traces).
    pub dropped_events: u64,
    /// Full traces of every errored request still in the bounded store,
    /// oldest first.
    pub error_exemplars: Vec<Exemplar>,
    /// Error exemplars evicted (oldest first) after the store filled.
    pub error_exemplars_dropped: u64,
    /// Ordered checksum over the ring streams as captured (before the
    /// timestamp sort). Byte-deterministic only under single-worker
    /// replay; concurrent runs should gate on
    /// [`TraceSnapshot::error_checksum`] instead.
    pub stream_checksum: u64,
}

impl TraceSnapshot {
    pub(crate) fn capture(recorder: &FlightRecorder) -> Self {
        let mut events = Vec::new();
        let mut dropped_events = 0;
        for ring in &recorder.rings {
            let (mut resident, dropped) = ring.snapshot();
            events.append(&mut resident);
            dropped_events += dropped;
        }
        let stream_checksum = stream_checksum(events.iter());
        let events_total = events.len() as u64 + dropped_events;
        events.sort_by_key(|e| (e.ts, e.trace_id, e.seq));
        let error_exemplars = recorder
            .errors
            .lock()
            .expect("exemplar lock poisoned")
            .iter()
            .cloned()
            .collect();
        TraceSnapshot {
            events,
            events_total,
            dropped_events,
            error_exemplars,
            error_exemplars_dropped: recorder.errors_dropped.load(Ordering::Relaxed),
            stream_checksum,
        }
    }

    /// Interleaving-independent checksum over the retained error
    /// exemplars (see [`commutative_checksum`]): byte-stable across runs
    /// of the same deterministic fault plan even with a concurrent worker
    /// pool — the chaos gate's number.
    #[must_use]
    pub fn error_checksum(&self) -> u64 {
        commutative_checksum(self.error_exemplars.iter())
    }

    /// Exemplars of `class`, for assertions and diagnosis.
    #[must_use]
    pub fn exemplars_of(&self, class: ExemplarClass) -> Vec<&Exemplar> {
        self.error_exemplars
            .iter()
            .filter(|e| e.class == class)
            .collect()
    }
}

/// The per-request lifecycle handle threaded through submit, the worker
/// loop and `process`: every event it records is counted in `metrics`.
/// When tracing is disabled the ring and span writes are no-ops over two
/// `None`s.
pub(crate) struct RequestTrace<'a> {
    metrics: &'a ServiceMetrics,
    recorder: Option<&'a FlightRecorder>,
    ring: usize,
    trace_id: u64,
    span: Option<SpanCollector>,
}

impl<'a> RequestTrace<'a> {
    /// A fresh trace at submission time; `recorder == None` disables the
    /// ring and span writes (events are still counted).
    pub(crate) fn started(
        metrics: &'a ServiceMetrics,
        recorder: Option<&'a FlightRecorder>,
        trace_id: u64,
    ) -> Self {
        RequestTrace {
            metrics,
            ring: recorder.map_or(0, FlightRecorder::submit_ring),
            span: recorder.is_some().then(SpanCollector::new),
            recorder,
            trace_id,
        }
    }

    /// Re-attaches to the span a job carried across the queue, switching
    /// event output to the worker's ring.
    pub(crate) fn resumed(
        metrics: &'a ServiceMetrics,
        recorder: Option<&'a FlightRecorder>,
        ring: usize,
        trace_id: u64,
        span: Option<SpanCollector>,
    ) -> Self {
        RequestTrace {
            metrics,
            recorder,
            ring,
            trace_id,
            span: if recorder.is_some() { span } else { None },
        }
    }

    /// Records one lifecycle event: counts it, and when tracing is on
    /// appends it to the worker ring and the span.
    pub(crate) fn event(&mut self, kind: EventKind, arg0: u64, arg1: u64, arg2: u64) {
        self.metrics.on_event(kind, arg0);
        self.trace(kind, arg0, arg1, arg2);
    }

    /// The ring and span writes of one event; a no-op with tracing off.
    fn trace(&mut self, kind: EventKind, arg0: u64, arg1: u64, arg2: u64) {
        let (Some(recorder), Some(span)) = (self.recorder, self.span.as_mut()) else {
            return;
        };
        let event = TraceEvent {
            trace_id: self.trace_id,
            ts: recorder.clock.now(),
            kind,
            seq: span.next_seq(),
            arg0,
            arg1,
            arg2,
        };
        recorder.rings[self.ring.min(recorder.rings.len() - 1)].record(&event);
        span.push(event);
    }

    /// Detaches the span for the trip through the queue.
    pub(crate) fn into_span(self) -> Option<SpanCollector> {
        self.span
    }

    /// Terminal retention for a request that ended in `error`: its span
    /// becomes an exemplar of the error's class.
    pub(crate) fn failed(self, error: &ServiceError) {
        let (Some(recorder), Some(span)) = (self.recorder, self.span) else {
            return;
        };
        recorder.retain(Exemplar {
            trace_id: self.trace_id,
            class: ExemplarClass::of_error(error),
            events: span.events,
            truncated: span.overflowed,
        });
    }
}

/// Ordered stream checksum: FNV-1a fold of event digests in the given
/// order. Deterministic only when the event order is (single-worker
/// replay); for concurrent runs use [`commutative_checksum`].
#[must_use]
pub fn stream_checksum<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> u64 {
    let mut acc = FNV_OFFSET;
    for event in events {
        acc = fnv1a_u64(acc, event.digest());
    }
    acc
}

/// Interleaving-independent checksum over exemplars: each exemplar hashes
/// its own events in per-trace order, and the per-exemplar digests fold
/// commutatively (`wrapping_add`) — two runs retaining the same set of
/// traces in any order produce the same value.
#[must_use]
pub fn commutative_checksum<'a>(exemplars: impl IntoIterator<Item = &'a Exemplar>) -> u64 {
    exemplars
        .into_iter()
        .fold(0u64, |acc, e| acc.wrapping_add(e.digest()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheSnapshot;

    fn event(trace_id: u64, kind: EventKind, seq: u16, arg0: u64) -> TraceEvent {
        TraceEvent {
            trace_id,
            ts: 7,
            kind,
            seq,
            arg0,
            arg1: 1,
            arg2: 2,
        }
    }

    #[test]
    fn every_wire_code_has_a_counter_row() {
        let kinds: Vec<EventKind> = (0..=u8::MAX).filter_map(EventKind::from_u8).collect();
        assert_eq!(
            kinds.len(),
            EventKind::COUNT - 3,
            "codes 1, 3, 12 are unassigned"
        );
        for kind in kinds {
            assert_eq!(EventKind::from_u8(kind as u8), Some(kind));
            assert!((kind as usize) < EventKind::COUNT);
        }
        for unassigned in [1, 3, 12, 16] {
            assert_eq!(EventKind::from_u8(unassigned), None);
        }
    }

    #[test]
    fn ring_keeps_the_newest_and_counts_drops() {
        let ring = EventRing::new(4);
        for i in 0..10u64 {
            ring.record(&event(i, EventKind::Submitted, 0, 0));
        }
        let (events, dropped) = ring.snapshot();
        assert_eq!(dropped, 6, "10 writes into 4 slots drop the oldest 6");
        assert_eq!(
            events.iter().map(|e| e.trace_id).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(ring.recorded(), 10);
    }

    #[test]
    fn concurrent_writers_and_a_reader_see_only_whole_events() {
        // Every field of a patterned event carries the same nonzero value,
        // so a mix of two writes (or an unwritten slot) is visible.
        fn patterned(v: u64) -> TraceEvent {
            TraceEvent {
                trace_id: v,
                ts: v,
                kind: EventKind::Submitted,
                seq: 0,
                arg0: v,
                arg1: v,
                arg2: v,
            }
        }
        fn check(ring: &EventRing) -> u64 {
            let (events, dropped) = ring.snapshot();
            for e in &events {
                let v = e.trace_id;
                assert!(v >= 1, "an unwritten slot was returned: {e:?}");
                assert_eq!([e.ts, e.arg0, e.arg1, e.arg2], [v; 4], "torn: {e:?}");
            }
            let recorded = events.len() as u64 + dropped;
            assert!(recorded <= ring.recorded());
            recorded
        }
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 100_000;
        let ring = EventRing::new(8);
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let ring = &ring;
                    s.spawn(move || {
                        for i in 0..PER_WRITER {
                            ring.record(&patterned(w * PER_WRITER + i + 1));
                        }
                    })
                })
                .collect();
            let mut seen = 0;
            while !writers.iter().all(|w| w.is_finished()) {
                let recorded = check(&ring);
                assert!(recorded >= seen, "the recorded count never goes back");
                seen = recorded;
            }
        });
        let total = WRITERS * PER_WRITER;
        assert_eq!(check(&ring), total, "resident + dropped == total");
        assert_eq!(ring.recorded(), total);
    }

    #[test]
    fn digest_ignores_timestamps_but_hashes_every_argument() {
        let popped_a = event(1, EventKind::Popped, 2, 0);
        let popped_b = TraceEvent {
            arg0: 99_999,
            ..popped_a
        };
        assert_ne!(popped_a.digest(), popped_b.digest(), "arg0 is hashed");
        let ts_shift = TraceEvent {
            ts: 12345,
            ..popped_a
        };
        assert_eq!(popped_a.digest(), ts_shift.digest(), "timestamps masked");
        let probe_a = event(1, EventKind::CacheProbe, 2, 0);
        let probe_b = TraceEvent { arg0: 1, ..probe_a };
        assert_ne!(probe_a.digest(), probe_b.digest(), "outcomes are hashed");
    }

    #[test]
    fn commutative_checksum_is_order_independent() {
        let a = Exemplar {
            trace_id: 1,
            class: ExemplarClass::Panicked,
            events: vec![event(1, EventKind::Submitted, 0, 0)],
            truncated: false,
        };
        let b = Exemplar {
            trace_id: 2,
            class: ExemplarClass::Rejected,
            events: vec![event(2, EventKind::Rejected, 1, 0)],
            truncated: false,
        };
        assert_eq!(
            commutative_checksum([&a, &b]),
            commutative_checksum([&b, &a])
        );
        assert_ne!(commutative_checksum([&a]), commutative_checksum([&b]));
    }

    #[test]
    fn error_exemplars_survive_ring_overwrite_and_cap_drop_oldest() {
        let metrics = ServiceMetrics::default();
        let recorder = FlightRecorder::new(
            &TraceConfig {
                ring_capacity: 2, // tiny: every trace's ring events are lost
                logical_clock: true,
            },
            1,
        );
        let traces = TraceConfig::ERROR_EXEMPLARS as u64 + 2;
        for id in 0..traces {
            let mut rt = RequestTrace::started(&metrics, Some(&recorder), id);
            rt.event(EventKind::Submitted, 1, 0, 0);
            rt.event(EventKind::PanicCaught, 4, 0, 0);
            rt.failed(&ServiceError::Internal {
                payload: "boom".into(),
                payload_truncated: false,
            });
        }
        let snapshot = TraceSnapshot::capture(&recorder);
        assert_eq!(snapshot.error_exemplars_dropped, 2, "oldest two dropped");
        assert!(snapshot.dropped_events > 0, "the ring really did overwrite");
        assert_eq!(snapshot.events_total, 2 * traces);
        // The newest traces survive in full despite total ring loss.
        let errors = &snapshot.error_exemplars;
        assert_eq!(
            errors.iter().map(|e| e.trace_id).collect::<Vec<_>>(),
            (2..traces).collect::<Vec<_>>(),
            "store capped at ERROR_EXEMPLARS"
        );
        assert!(errors.iter().all(|e| e.events.len() == 2));
    }

    #[test]
    fn disabled_trace_is_a_noop() {
        let metrics = ServiceMetrics::default();
        let mut rt = RequestTrace::started(&metrics, None, 7);
        rt.event(EventKind::Enqueued, 0, 0, 0);
        assert!(rt.into_span().is_none());
        // Tracing off skips the ring and span, never the count.
        let snapshot = metrics.snapshot(CacheSnapshot::default());
        assert_eq!(snapshot.submitted, 1);
    }

    #[test]
    fn logical_clock_ticks_and_wall_clock_moves() {
        let logical = TraceClock::Logical(AtomicU64::new(0));
        assert_eq!(logical.now(), 0);
        assert_eq!(logical.now(), 1);
        let wall = TraceClock::Wall(Instant::now());
        let a = wall.now();
        let b = wall.now();
        assert!(b >= a);
    }
}
