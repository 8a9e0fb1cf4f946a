//! The per-layer split of a traced run.
//!
//! The service's flight recorder stamps every lifecycle transition of a
//! request with a wall-clock timestamp. Consecutive events of one trace
//! bound the stages a request passes through, so the span from `submitted`
//! to `completed` splits exactly into:
//!
//! | interval | stage |
//! |----------|-------|
//! | submitted → enqueued | submit (admission, ordinal, span set-up) |
//! | enqueued → popped | queue wait |
//! | popped / previous block → cache_probe | cache probe (signature, lookup, copying a hit's front) |
//! | cache_probe → block_optimized | compute (admission, optimize, warm-tree extraction, insert) |
//! | last block → completed | respond (response assembly, metrics) |
//!
//! Any other transition is counted as unattributed, which is how a missing
//! clock or a new event kind shows up.

use moqo_service::{EventKind, TraceEvent};

/// Trace id of supervisor events, which belong to no request.
const SYSTEM_TRACE_ID: u64 = u64::MAX;

/// Stage totals over the measured traces of a run, in µs.
#[derive(Debug, Default)]
pub struct Stages {
    /// Completed measured traces.
    pub traces: u64,
    /// Σ submitted → completed.
    pub span_us: u64,
    /// Σ submit stage.
    pub submit_us: u64,
    /// Queue wait of every trace.
    pub queue_waits_us: Vec<u64>,
    /// Σ cache-probe stage, and the number of probes.
    pub probe_us: u64,
    /// Cache probes (one per block).
    pub probes: u64,
    /// Σ compute stage, and the number of computed blocks.
    pub compute_us: u64,
    /// Computed blocks.
    pub computed: u64,
    /// Σ respond stage.
    pub respond_us: u64,
    /// Σ intervals no stage claims.
    pub unattributed_us: u64,
    /// Traces whose event sequence has gaps (events lost to the rings).
    pub incomplete: u64,
}

/// Splits every completed trace with id ≥ `first_measured` into stages.
/// Warm-up requests hold the lower ordinals and are dropped; traces that
/// ended in an error carry no latency sample and are skipped too.
pub fn reconstruct(events: &[TraceEvent], first_measured: u64) -> Stages {
    let mut measured: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.trace_id != SYSTEM_TRACE_ID && e.trace_id >= first_measured)
        .collect();
    measured.sort_by_key(|e| (e.trace_id, e.seq));
    let mut stages = Stages::default();
    for trace in measured.chunk_by(|a, b| a.trace_id == b.trace_id) {
        let (first, last) = (trace[0], trace[trace.len() - 1]);
        if last.kind != EventKind::Completed {
            continue;
        }
        if first.kind != EventKind::Submitted
            || trace
                .iter()
                .enumerate()
                .any(|(i, e)| usize::from(e.seq) != i)
        {
            stages.incomplete += 1;
            continue;
        }
        stages.traces += 1;
        stages.span_us += last.ts.saturating_sub(first.ts);
        for pair in trace.windows(2) {
            let (from, to) = (pair[0], pair[1]);
            let dt = to.ts.saturating_sub(from.ts);
            match (from.kind, to.kind) {
                (EventKind::Submitted, EventKind::Enqueued) => stages.submit_us += dt,
                (EventKind::Enqueued, EventKind::Popped) => stages.queue_waits_us.push(dt),
                (
                    EventKind::Popped | EventKind::CacheProbe | EventKind::BlockOptimized,
                    EventKind::CacheProbe,
                ) => {
                    stages.probe_us += dt;
                    stages.probes += 1;
                }
                (EventKind::CacheProbe, EventKind::BlockOptimized) => {
                    stages.compute_us += dt;
                    stages.computed += 1;
                }
                (EventKind::CacheProbe | EventKind::BlockOptimized, EventKind::Completed) => {
                    stages.respond_us += dt;
                }
                _ => stages.unattributed_us += dt,
            }
        }
    }
    stages
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(trace_id: u64, seq: u16, kind: EventKind, ts: u64) -> TraceEvent {
        TraceEvent {
            trace_id,
            ts,
            kind,
            seq,
            arg0: 0,
            arg1: 0,
            arg2: 0,
        }
    }

    /// A hit (trace 5), a miss computed in one block (trace 6), a warm-up
    /// trace (2) and a failed trace (7).
    fn synthetic() -> Vec<TraceEvent> {
        use EventKind::*;
        vec![
            event(2, 0, Submitted, 0),
            event(2, 1, Enqueued, 1),
            event(2, 2, Popped, 2),
            event(2, 3, CacheProbe, 3),
            event(2, 4, Completed, 4),
            event(5, 0, Submitted, 100),
            event(5, 1, Enqueued, 102),
            event(5, 2, Popped, 110),
            event(5, 3, CacheProbe, 125),
            event(5, 4, Completed, 128),
            event(6, 0, Submitted, 200),
            event(6, 1, Enqueued, 201),
            event(6, 2, Popped, 205),
            event(6, 3, CacheProbe, 215),
            event(6, 4, BlockOptimized, 915),
            event(6, 5, Completed, 920),
            event(7, 0, Submitted, 300),
            event(7, 1, Enqueued, 301),
            event(7, 2, Popped, 320),
            event(7, 3, DeadlineExceeded, 321),
            event(7, 4, Failed, 322),
            event(SYSTEM_TRACE_ID, 0, WorkerRespawned, 400),
        ]
    }

    #[test]
    fn stages_rebuild_the_span_and_drop_warm_up_ordinals() {
        let mut events = synthetic();
        // Ring order is arbitrary; reconstruction must not depend on it.
        events.reverse();
        let stages = reconstruct(&events, 3);
        assert_eq!(
            stages.traces, 2,
            "warm-up trace 2 and failed trace 7 dropped"
        );
        assert_eq!(stages.span_us, 28 + 720);
        assert_eq!(stages.submit_us, 2 + 1);
        assert_eq!(stages.queue_waits_us.len(), 2);
        assert_eq!(stages.queue_waits_us.iter().sum::<u64>(), 8 + 4);
        assert_eq!((stages.probe_us, stages.probes), (15 + 10, 2));
        assert_eq!((stages.compute_us, stages.computed), (700, 1));
        assert_eq!(stages.respond_us, 3 + 5);
        assert_eq!(
            stages.unattributed_us, 0,
            "the stages rebuild the span exactly"
        );
        // Including the warm-up ordinal adds its trace.
        assert_eq!(reconstruct(&events, 0).traces, 3);
    }

    #[test]
    fn gaps_and_unknown_transitions_are_not_attributed() {
        use EventKind::*;
        let mut events = synthetic();
        // Trace 5 loses its `popped` event: a gap in the sequence.
        events.retain(|e| !(e.trace_id == 5 && e.kind == Popped));
        // Trace 6 gains a fault delay between pop and probe.
        for e in &mut events {
            if e.trace_id == 6 && e.seq >= 3 {
                e.seq += 1;
            }
        }
        events.push(event(6, 3, FaultDelay, 210));
        let stages = reconstruct(&events, 3);
        assert_eq!(stages.incomplete, 1);
        assert_eq!(stages.traces, 1);
        assert_eq!(
            stages.unattributed_us, 10,
            "popped → fault_delay → cache_probe"
        );
        assert_eq!(stages.probes, 0);
    }
}
