//! The flight recorder: lock-free, span-structured request tracing.
//!
//! Aggregate counters ([`crate::MetricsSnapshot`]) answer *how much*; they
//! cannot answer "why was request #417 slow / shed / degraded". This
//! module records the evidence trail per request as fixed-size
//! [`TraceEvent`]s — admit/reject, enqueue, pop (queue wait), cache probe
//! outcome, per-block optimization (algorithm, achieved α, report digest,
//! `degraded_by_pressure`), panic/kill/shed, completion.
//!
//! Each lifecycle transition is one call, [`RequestTrace::event`]; a
//! supervisor finding is the one event of a trace with id
//! [`SYSTEM_TRACE_ID`]. The call always counts the event in the
//! [`ServiceMetrics`] table that every snapshot counter is projected from,
//! so counters and traces come from one record and cannot disagree. When
//! tracing is on, the same call also writes the event into two sinks:
//!
//! * **Per-worker ring buffers** ([`EventRing`]): bounded, oldest
//!   overwritten, with a `dropped_events` count derived from the head
//!   position (no extra hot-path atomic). A write is one `fetch_add` slot
//!   claim, six payload-word stores and a commit stamp (seqlock per slot:
//!   readers revalidate the stamp and skip torn slots; the word stores
//!   are Release — plain `mov`s on x86 — because fully relaxed payloads
//!   admit a torn read past the recheck, see [`EventRing::record`]). Zero
//!   allocation per event.
//! * **A per-request span collector** ([`SpanCollector`]): a small
//!   buffer riding inside the job, so the *complete* trace of a request
//!   survives ring overwrite. At completion the recorder applies
//!   **tail-based exemplar retention**: every errored / shed / panicked /
//!   worker-killing request is kept in full (bounded store, drop-oldest
//!   with its own counter), and completed requests compete for the
//!   rolling slowest-k by latency.
//!
//! Timestamps come from a [`TraceClock`] seam: wall microseconds in
//! production, a logical counter under [`TraceConfig::logical_clock`] so
//! a single-worker replay's stream is byte-deterministic (pinned by
//! `tests/replay.rs`). Checksums ([`TraceEvent::digest`]) exclude every
//! timing-valued field, and the error-exemplar checksum folds per-trace
//! hashes commutatively, so it is independent of worker interleaving —
//! that is what lets `tests/chaos.rs` pin a 4-worker chaos run
//! byte-stable.

use moqo_sync::atomic::{AtomicU64, Ordering};
use moqo_sync::Mutex;
use std::collections::VecDeque;
use std::time::Instant;

use crate::metrics::ServiceMetrics;
use crate::request::{OptimizationResponse, ServiceError};

/// Trace id used by events that belong to no request (supervisor respawn
/// and stall findings).
pub const SYSTEM_TRACE_ID: u64 = u64::MAX;

/// Model-checker steering knobs; compiled only under `--cfg moqo_model`.
/// Seeded-bug injection for the model suite.
///
/// `tests/model_seeded.rs` flips [`WEAKEN_COMMIT`] to demote the
/// seqlock commit stamp to `Relaxed` and asserts the checker reports
/// the resulting torn read. The knob lives on [`moqo_sync::raw`] so
/// reading it is invisible to the checker itself.
#[cfg(moqo_model)]
pub mod model_hooks {
    use moqo_sync::raw::AtomicBool;

    /// When `true`, [`super::EventRing::record`] publishes the commit
    /// stamp with `Ordering::Relaxed` instead of `Release`, so a reader
    /// can validate a slot whose payload words it never actually saw.
    pub static WEAKEN_COMMIT: AtomicBool = AtomicBool::new(false);
}

/// Payload words per ring slot (the encoded [`TraceEvent`] size).
const WORDS: usize = 6;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A submission was received and a trace id (its ordinal) minted.
    /// `arg0` = block count, `arg1` = requested α bits, `arg2` = 1 when a
    /// deadline is attached.
    Submitted = 0,
    /// The admission fast path rejected the request at submission.
    Rejected = 2,
    /// The brownout valve shed the submission before it took a queue slot.
    Shed = 3,
    /// The submission bounced off a full (or fault-injected-full) queue.
    QueueFull = 4,
    /// The request took a queue slot.
    Enqueued = 5,
    /// A worker picked the request up; `arg0` = queue wait in µs (a
    /// timing value, excluded from checksums).
    Popped = 6,
    /// An injected delay fault slept the worker; `arg0` = delay in ms
    /// (plan-determined, checksummed).
    FaultDelay = 7,
    /// A plan-cache probe for block `arg0 & 0xFFFF_FFFF`; bits 32.. of
    /// `arg0` carry the outcome (0 hit, 1 not-servable, 2 miss), `arg1`
    /// the resident entry's α bits (0 on a miss).
    CacheProbe = 8,
    /// One block was optimized. `arg0` packs block index (bits 0..32),
    /// [`crate::AlgorithmKind`] code (bits 32..40), and flags (bit 40
    /// `degraded_by_pressure`, bit 41 downgraded, bit 42 warm-started);
    /// `arg1` = achieved α bits; `arg2` = the block report's
    /// deterministic digest (`BlockReport::trace_digest`).
    BlockOptimized = 9,
    /// The deadline expired before block `arg0` could start.
    DeadlineExceeded = 10,
    /// The worker's panic guard caught a panic; `arg0` = payload byte
    /// length after capping, `arg1` = 1 when the payload was truncated.
    PanicCaught = 11,
    /// A fault killed the serving worker after it answered; `arg0` = the
    /// worker's index (scheduling-dependent, excluded from checksums).
    WorkerKilled = 12,
    /// The request finished with an error; `arg0` = the
    /// [`ServiceError`] class code (see [`error_code`]).
    Failed = 13,
    /// The request completed; `arg0` = end-to-end latency in µs (timing,
    /// excluded from checksums), `arg1` = block count, `arg2` = 1 when
    /// fully cache-served.
    Completed = 14,
    /// The supervisor respawned worker `arg0` (system-scoped: trace id
    /// `SYSTEM_TRACE_ID`).
    WorkerRespawned = 15,
    /// The supervisor detected that worker `arg0` is wedged.
    WorkerStalled = 16,
}

impl EventKind {
    /// One past the largest wire code: the row count of a table indexed
    /// by kind. Code 1 is unassigned.
    pub(crate) const COUNT: usize = EventKind::WorkerStalled as usize + 1;

    /// Decodes the wire byte; `None` for garbage (a torn ring slot).
    #[must_use]
    pub fn from_u8(value: u8) -> Option<Self> {
        use EventKind::{
            BlockOptimized, CacheProbe, Completed, DeadlineExceeded, Enqueued, Failed, FaultDelay,
            PanicCaught, Popped, QueueFull, Rejected, Shed, Submitted, WorkerKilled,
            WorkerRespawned, WorkerStalled,
        };
        Some(match value {
            0 => Submitted,
            2 => Rejected,
            3 => Shed,
            4 => QueueFull,
            5 => Enqueued,
            6 => Popped,
            7 => FaultDelay,
            8 => CacheProbe,
            9 => BlockOptimized,
            10 => DeadlineExceeded,
            11 => PanicCaught,
            12 => WorkerKilled,
            13 => Failed,
            14 => Completed,
            15 => WorkerRespawned,
            16 => WorkerStalled,
            _ => return None,
        })
    }

    /// Stable lower-snake name for export surfaces.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Submitted => "submitted",
            EventKind::Rejected => "rejected",
            EventKind::Shed => "shed",
            EventKind::QueueFull => "queue_full",
            EventKind::Enqueued => "enqueued",
            EventKind::Popped => "popped",
            EventKind::FaultDelay => "fault_delay",
            EventKind::CacheProbe => "cache_probe",
            EventKind::BlockOptimized => "block_optimized",
            EventKind::DeadlineExceeded => "deadline_exceeded",
            EventKind::PanicCaught => "panic_caught",
            EventKind::WorkerKilled => "worker_killed",
            EventKind::Failed => "failed",
            EventKind::Completed => "completed",
            EventKind::WorkerRespawned => "worker_respawned",
            EventKind::WorkerStalled => "worker_stalled",
        }
    }

    /// Whether `arg0` holds a timing or scheduling value that must stay
    /// out of checksums (queue waits, latencies, the worker a kill landed
    /// on — everything that varies run-to-run under real concurrency).
    fn arg0_is_nondeterministic(self) -> bool {
        matches!(
            self,
            EventKind::Popped | EventKind::Completed | EventKind::WorkerKilled
        )
    }
}

/// The stable class code of a [`ServiceError`], carried by
/// [`EventKind::Failed`] events.
#[must_use]
pub fn error_code(error: &ServiceError) -> u64 {
    match error {
        ServiceError::QueueFull => 0,
        ServiceError::ShuttingDown => 1,
        ServiceError::Rejected(_) => 2,
        ServiceError::DeadlineExceeded => 3,
        ServiceError::Shed => 4,
        ServiceError::Internal { .. } => 5,
        ServiceError::WorkerLost => 6,
    }
}

/// One fixed-size lifecycle event; six words on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The request's trace id — its submission ordinal
    /// (`SYSTEM_TRACE_ID` for supervisor events).
    pub trace_id: u64,
    /// `TraceClock` reading: wall µs since the recorder started, or a
    /// logical tick under replay. Never checksummed.
    pub ts: u64,
    /// What happened.
    pub kind: EventKind,
    /// 0-based index of this event within its trace (exactly-once
    /// ordering handle; 0 for system events).
    pub seq: u16,
    /// First argument (meaning per [`EventKind`]).
    pub arg0: u64,
    /// Second argument.
    pub arg1: u64,
    /// Third argument.
    pub arg2: u64,
}

impl TraceEvent {
    fn encode(&self) -> [u64; WORDS] {
        [
            self.trace_id,
            self.ts,
            u64::from(self.kind as u8) | (u64::from(self.seq) << 8),
            self.arg0,
            self.arg1,
            self.arg2,
        ]
    }

    #[allow(clippy::cast_possible_truncation)]
    fn decode(words: &[u64; WORDS]) -> Option<Self> {
        let kind = EventKind::from_u8((words[2] & 0xFF) as u8)?;
        Some(TraceEvent {
            trace_id: words[0],
            ts: words[1],
            kind,
            seq: ((words[2] >> 8) & 0xFFFF) as u16,
            arg0: words[3],
            arg1: words[4],
            arg2: words[5],
        })
    }

    /// Deterministic digest of the event: FNV-1a over trace id, kind,
    /// per-trace sequence number and the *deterministic* arguments —
    /// timestamps and timing/scheduling-valued args are excluded, so the
    /// digest is identical across runs and machines whenever the serving
    /// behaviour is.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut acc = fnv1a_u64(FNV_OFFSET, self.trace_id);
        acc = fnv1a_u64(acc, u64::from(self.kind as u8));
        acc = fnv1a_u64(acc, u64::from(self.seq));
        if !self.kind.arg0_is_nondeterministic() {
            acc = fnv1a_u64(acc, self.arg0);
        }
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
    /// Full traces retained for errored/shed/panicked/killed requests
    /// before the store drops its oldest (default 256).
    pub error_exemplars: usize,
    /// Rolling count of slowest completed requests kept in full
    /// (default 8).
    pub slowest: usize,
    /// Use the logical clock instead of wall time — replay mode, where
    /// the trace stream must be byte-deterministic (default `false`).
    pub logical_clock: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_capacity: 4096,
            error_exemplars: 256,
            slowest: 8,
            logical_clock: false,
        }
    }
}

/// One seqlock slot: a commit stamp plus the payload words.
struct Slot {
    /// `2·pos + 1` while the writer of ring position `pos` is inside,
    /// `2·pos + 2` once committed; readers accept only the committed
    /// stamp of the position they expect.
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

/// A bounded multi-producer event ring, oldest overwritten. Writers are
/// lock-free and allocation-free; readers (snapshot only) revalidate the
/// per-slot stamp and skip anything torn or overwritten mid-read.
pub struct EventRing {
    head: AtomicU64,
    mask: u64,
    slots: Box<[Slot]>,
}

impl EventRing {
    /// A ring of `capacity` slots (rounded up to a power of two, min 2).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2).next_power_of_two();
        EventRing {
            head: AtomicU64::new(0),
            mask: capacity as u64 - 1,
            slots: (0..capacity)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
        }
    }

    /// Records one event: claim (`fetch_add`), six payload stores, commit
    /// stamp. No lock, no allocation, no wait.
    ///
    /// Per-slot seqlock: the odd stamp (`2·pos + 1`, Release) opens the
    /// write, then the payload words, then the even stamp (`2·pos + 2`,
    /// Release) commits. The payload words are *Release* stores paired
    /// with the reader's Acquire loads — not the folklore Relaxed: a
    /// relaxed payload load may be satisfied by a **later** write session
    /// while the stamp recheck still observes the old committed stamp
    /// (nothing orders a relaxed data load before a subsequent load of a
    /// different location), which is the classic seqlock torn-read
    /// window. With the Release/Acquire pair, a reader that sees any
    /// word of session `k` has synchronized with it, and therefore must
    /// also see session `k`'s odd stamp at the recheck — the slot is
    /// rejected instead of returned torn. On x86-64 both compile to the
    /// same plain `mov` as Relaxed. The no-torn-read property is
    /// model-checked in `tests/model_trace.rs`, which found the original
    /// relaxed-payload window.
    #[moqo::hot_path]
    pub fn record(&self, event: &TraceEvent) {
        let pos = self.head.fetch_add(1, Ordering::Relaxed);
        #[allow(clippy::cast_possible_truncation)]
        let slot = &self.slots[(pos & self.mask) as usize];
        slot.seq
            .store(pos.wrapping_mul(2).wrapping_add(1), Ordering::Release);
        for (word, value) in slot.words.iter().zip(event.encode()) {
            word.store(value, Ordering::Release);
        }
        slot.seq
            .store(pos.wrapping_mul(2).wrapping_add(2), Self::commit_ordering());
    }

    /// Ordering for the seqlock commit stamp: `Release`, unless the model
    /// suite injects the seeded weakening bug.
    #[inline(always)]
    fn commit_ordering() -> Ordering {
        #[cfg(moqo_model)]
        if model_hooks::WEAKEN_COMMIT.load(moqo_sync::raw::Ordering::Relaxed) {
            return Ordering::Relaxed;
        }
        Ordering::Release
    }

    /// Events recorded over this ring's lifetime.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// The still-resident suffix of the stream in ring order, plus how
    /// many older events were overwritten.
    pub fn snapshot(&self) -> (Vec<TraceEvent>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let capacity = self.mask + 1;
        let start = head.saturating_sub(capacity);
        let mut events = Vec::with_capacity((head - start) as usize);
        for pos in start..head {
            #[allow(clippy::cast_possible_truncation)]
            let slot = &self.slots[(pos & self.mask) as usize];
            let committed = pos.wrapping_mul(2).wrapping_add(2);
            if slot.seq.load(Ordering::Acquire) != committed {
                continue; // mid-write or already overwritten
            }
            let mut words = [0u64; WORDS];
            for (out, word) in words.iter_mut().zip(slot.words.iter()) {
                // Acquire pairs with the writer's Release word stores: a
                // read that observes a later session's word synchronizes
                // with it and so cannot revalidate against the stale
                // stamp below (see `record` for the full argument).
                *out = word.load(Ordering::Acquire);
            }
            if slot.seq.load(Ordering::Acquire) != committed {
                continue; // overwritten while reading
            }
            if let Some(event) = TraceEvent::decode(&words) {
                events.push(event);
            }
        }
        (events, start)
    }
}

/// Why a full trace was retained as an exemplar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExemplarClass {
    /// Admission control rejected the request.
    Rejected,
    /// The brownout valve shed the submission.
    Shed,
    /// The submission bounced off a full queue.
    QueueFull,
    /// The deadline expired mid-request.
    DeadlineExceeded,
    /// A worker panic was caught while processing the request.
    Panicked,
    /// The request was answered, then a fault killed its worker.
    WorkerKilled,
    /// Any other error (shutdown drain, lost worker).
    Failed,
    /// Completed fine, but among the slowest-k by latency.
    Slow,
}

impl ExemplarClass {
    /// The retention class of a terminal [`ServiceError`].
    #[must_use]
    pub fn of_error(error: &ServiceError) -> Self {
        match error {
            ServiceError::QueueFull => ExemplarClass::QueueFull,
            ServiceError::Rejected(_) => ExemplarClass::Rejected,
            ServiceError::DeadlineExceeded => ExemplarClass::DeadlineExceeded,
            ServiceError::Shed => ExemplarClass::Shed,
            ServiceError::Internal { .. } => ExemplarClass::Panicked,
            ServiceError::ShuttingDown | ServiceError::WorkerLost => ExemplarClass::Failed,
        }
    }

    /// Stable lower-snake name for export surfaces.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ExemplarClass::Rejected => "rejected",
            ExemplarClass::Shed => "shed",
            ExemplarClass::QueueFull => "queue_full",
            ExemplarClass::DeadlineExceeded => "deadline_exceeded",
            ExemplarClass::Panicked => "panicked",
            ExemplarClass::WorkerKilled => "worker_killed",
            ExemplarClass::Failed => "failed",
            ExemplarClass::Slow => "slow",
        }
    }

    /// Whether this class is retained unconditionally (versus competing
    /// for a slowest-k slot).
    #[must_use]
    pub fn is_error(self) -> bool {
        !matches!(self, ExemplarClass::Slow)
    }
}

/// A fully retained trace: every event of one request, in order.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// The request's trace id (submission ordinal).
    pub trace_id: u64,
    /// Why it was kept.
    pub class: ExemplarClass,
    /// End-to-end latency in µs at retention time.
    pub latency_us: u64,
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

/// Aggregate recorder statistics (cheap relaxed loads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Events ever recorded across all rings.
    pub events_total: u64,
    /// Ring events overwritten before any snapshot saw them.
    pub dropped_events: u64,
    /// Error-class exemplars currently retained.
    pub error_exemplars: usize,
    /// Error-class exemplars evicted from the bounded store (oldest
    /// first) after it filled.
    pub error_exemplars_dropped: u64,
}

/// The service-wide flight recorder: one [`EventRing`] per worker
/// plus one for the submit path and the supervisor, the exemplar stores,
/// and the clock.
pub(crate) struct FlightRecorder {
    clock: TraceClock,
    /// `rings[worker]` for workers; the last ring takes submit-path and
    /// supervisor events.
    rings: Vec<EventRing>,
    error_capacity: usize,
    errors: Mutex<VecDeque<Exemplar>>,
    errors_dropped: AtomicU64,
    slowest_k: usize,
    /// Ascending by latency; index 0 is the bar to clear.
    slowest: Mutex<Vec<Exemplar>>,
    /// Fast-path filter: completions at or below this latency (µs) skip
    /// the slowest-k lock entirely.
    slow_floor_us: AtomicU64,
}

impl FlightRecorder {
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
            error_capacity: config.error_exemplars.max(1),
            errors: Mutex::new(VecDeque::new()),
            errors_dropped: AtomicU64::new(0),
            slowest_k: config.slowest,
            slowest: Mutex::new(Vec::new()),
            slow_floor_us: AtomicU64::new(0),
        }
    }

    /// The submit-path / supervisor ring index.
    pub(crate) fn system_ring(&self) -> usize {
        self.rings.len() - 1
    }

    fn retain(&self, exemplar: Exemplar) {
        if exemplar.class.is_error() {
            let mut errors = self.errors.lock().expect("exemplar lock poisoned");
            if errors.len() >= self.error_capacity {
                errors.pop_front();
                self.errors_dropped.fetch_add(1, Ordering::Relaxed);
            }
            errors.push_back(exemplar);
            return;
        }
        if self.slowest_k == 0 {
            return;
        }
        // Relaxed floor probe: the common fast completion never locks.
        if exemplar.latency_us <= self.slow_floor_us.load(Ordering::Relaxed) {
            let slowest = self.slowest.lock().expect("slowest lock poisoned");
            if slowest.len() >= self.slowest_k {
                return;
            }
            drop(slowest);
        }
        let mut slowest = self.slowest.lock().expect("slowest lock poisoned");
        let at = slowest.partition_point(|e: &Exemplar| e.latency_us <= exemplar.latency_us);
        slowest.insert(at, exemplar);
        if slowest.len() > self.slowest_k {
            slowest.remove(0);
        }
        if slowest.len() == self.slowest_k {
            self.slow_floor_us
                .store(slowest[0].latency_us, Ordering::Relaxed);
        }
    }

    pub(crate) fn stats(&self) -> TraceStats {
        TraceStats {
            events_total: self.rings.iter().map(EventRing::recorded).sum(),
            dropped_events: self.rings.iter().map(|r| r.snapshot_dropped_only()).sum(),
            error_exemplars: self.errors.lock().expect("exemplar lock poisoned").len(),
            error_exemplars_dropped: self.errors_dropped.load(Ordering::Relaxed),
        }
    }

    /// Ring-ordered resident events, total drop count, and clones of both
    /// exemplar stores — the raw material of a
    /// [`TraceSnapshot`](crate::TraceSnapshot).
    pub(crate) fn collect(&self) -> (Vec<TraceEvent>, u64, Vec<Exemplar>, u64, Vec<Exemplar>, u64) {
        let mut events = Vec::new();
        let mut dropped = 0;
        for ring in &self.rings {
            let (mut resident, ring_dropped) = ring.snapshot();
            events.append(&mut resident);
            dropped += ring_dropped;
        }
        let errors: Vec<Exemplar> = self
            .errors
            .lock()
            .expect("exemplar lock poisoned")
            .iter()
            .cloned()
            .collect();
        let mut slowest: Vec<Exemplar> =
            self.slowest.lock().expect("slowest lock poisoned").clone();
        slowest.reverse(); // slowest first
        let events_total = self.rings.iter().map(EventRing::recorded).sum();
        (
            events,
            dropped,
            errors,
            self.errors_dropped.load(Ordering::Relaxed),
            slowest,
            events_total,
        )
    }
}

impl EventRing {
    fn snapshot_dropped_only(&self) -> u64 {
        let head = self.head.load(Ordering::Relaxed);
        head.saturating_sub(self.mask + 1)
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
            ring: recorder.map_or(0, FlightRecorder::system_ring),
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

    /// Records the `completed` event of `response`, `latency_us` after
    /// submission. Besides the count it feeds the latency histograms and
    /// the pressure gauge from the response's queue wait and service time.
    pub(crate) fn completed(&mut self, response: &OptimizationResponse, latency_us: u64) {
        self.metrics
            .on_completed(response.queue_wait, response.service_time);
        self.trace(
            EventKind::Completed,
            latency_us,
            response.blocks.len() as u64,
            u64::from(response.fully_cached()),
        );
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

    /// Terminal retention: error-class spans (including answered-then-
    /// killed ones) always become exemplars; completions compete for
    /// slowest-k.
    pub(crate) fn finish(self, result: Result<(), &ServiceError>, latency_us: u64) {
        let (Some(recorder), Some(span)) = (self.recorder, self.span) else {
            return;
        };
        let class = match result {
            Err(error) => ExemplarClass::of_error(error),
            Ok(()) => {
                if span
                    .events
                    .iter()
                    .any(|e| e.kind == EventKind::WorkerKilled)
                {
                    ExemplarClass::WorkerKilled
                } else {
                    ExemplarClass::Slow
                }
            }
        };
        recorder.retain(Exemplar {
            trace_id: self.trace_id,
            class,
            latency_us,
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
    fn encode_decode_roundtrip() {
        let e = event(42, EventKind::BlockOptimized, 3, 9);
        assert_eq!(TraceEvent::decode(&e.encode()), Some(e));
        let mut torn = e.encode();
        torn[2] = 0xFF; // no such kind
        assert_eq!(TraceEvent::decode(&torn), None);
        // The per-kind counter table has a row for every wire code.
        let mut kinds = (0..=u8::MAX).filter_map(EventKind::from_u8);
        assert!(kinds.all(|kind| (kind as usize) < EventKind::COUNT));
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
    fn digest_ignores_timing_args_but_not_deterministic_ones() {
        let popped_a = event(1, EventKind::Popped, 2, 500);
        let popped_b = TraceEvent {
            arg0: 99_999,
            ..popped_a
        };
        assert_eq!(popped_a.digest(), popped_b.digest(), "queue wait masked");
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
            latency_us: 10,
            events: vec![event(1, EventKind::Submitted, 0, 0)],
            truncated: false,
        };
        let b = Exemplar {
            trace_id: 2,
            class: ExemplarClass::Shed,
            latency_us: 0,
            events: vec![event(2, EventKind::Shed, 1, 0)],
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
                error_exemplars: 3,
                slowest: 2,
                logical_clock: true,
            },
            1,
        );
        for id in 0..5u64 {
            let mut rt = RequestTrace::started(&metrics, Some(&recorder), id);
            rt.event(EventKind::Submitted, 1, 0, 0);
            rt.event(EventKind::PanicCaught, 4, 0, 0);
            rt.finish(
                Err(&ServiceError::Internal {
                    payload: "boom".into(),
                    payload_truncated: false,
                }),
                0,
            );
        }
        let stats = recorder.stats();
        assert_eq!(stats.error_exemplars, 3, "store capped at 3");
        assert_eq!(stats.error_exemplars_dropped, 2, "oldest two dropped");
        assert!(stats.dropped_events > 0, "the ring really did overwrite");
        let (_, _, errors, _, _, _) = recorder.collect();
        // The newest traces survive in full despite total ring loss.
        assert_eq!(
            errors.iter().map(|e| e.trace_id).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert!(errors.iter().all(|e| e.events.len() == 2));
    }

    #[test]
    fn slowest_k_keeps_the_k_largest_latencies() {
        let metrics = ServiceMetrics::default();
        let recorder = FlightRecorder::new(
            &TraceConfig {
                slowest: 2,
                logical_clock: true,
                ..TraceConfig::default()
            },
            1,
        );
        for (id, latency) in [(0u64, 50u64), (1, 500), (2, 5), (3, 300)] {
            let mut rt = RequestTrace::started(&metrics, Some(&recorder), id);
            rt.event(EventKind::Submitted, 1, 0, 0);
            rt.finish(Ok(()), latency);
        }
        let (_, _, _, _, slowest, _) = recorder.collect();
        let ids: Vec<u64> = slowest.iter().map(|e| e.trace_id).collect();
        assert_eq!(ids, vec![1, 3], "500µs and 300µs win, slowest first");
        assert!(slowest.iter().all(|e| e.class == ExemplarClass::Slow));
    }

    #[test]
    fn disabled_trace_is_a_noop() {
        let metrics = ServiceMetrics::default();
        let mut rt = RequestTrace::started(&metrics, None, 7);
        rt.event(EventKind::Enqueued, 0, 0, 0);
        assert!(rt.into_span().is_none());
        // Tracing off skips the ring and span, never the count.
        let snapshot = metrics.snapshot(CacheSnapshot::default(), 0);
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
