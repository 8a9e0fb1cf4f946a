//! Export surfaces over the flight recorder and the service metrics: a
//! [`TraceSnapshot`] with a JSON dump renderer, and a Prometheus-style
//! text exposition ([`render_prometheus`]) covering every
//! [`MetricsSnapshot`](crate::MetricsSnapshot) counter and gauge plus the
//! three latency [`LogHistogram`](crate::LogHistogram)s as cumulative
//! buckets — the future TCP frontend can serve `/metrics` verbatim.

use crate::histogram::HistogramSnapshot;
use crate::metrics::MetricsSnapshot;
use crate::trace::{
    commutative_checksum, stream_checksum, Exemplar, FlightRecorder, TraceEvent, TraceStats,
};

/// A point-in-time view of the flight recorder: the still-resident ring
/// events, the drop accounting, and both exemplar stores.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Resident ring events ordered by timestamp (ties broken by trace id
    /// and per-trace sequence number).
    pub events: Vec<TraceEvent>,
    /// Events ever recorded across all rings.
    pub events_total: u64,
    /// Ring events overwritten before this snapshot (best-effort stream
    /// only — exemplar retention never loses error-class traces).
    pub dropped_events: u64,
    /// Full traces of every errored / shed / panicked / killed request
    /// still in the bounded store, oldest first.
    pub error_exemplars: Vec<Exemplar>,
    /// Error exemplars evicted (oldest first) after the store filled.
    pub error_exemplars_dropped: u64,
    /// The rolling slowest-k completed requests, slowest first.
    pub slowest: Vec<Exemplar>,
    /// Ordered checksum over the ring streams as captured (before the
    /// timestamp sort). Byte-deterministic only under single-worker
    /// replay; concurrent runs should gate on
    /// [`TraceSnapshot::error_checksum`] instead.
    pub stream_checksum: u64,
}

impl TraceSnapshot {
    pub(crate) fn capture(recorder: &FlightRecorder) -> Self {
        let (
            mut events,
            dropped_events,
            error_exemplars,
            error_exemplars_dropped,
            slowest,
            events_total,
        ) = recorder.collect();
        let stream = stream_checksum(events.iter());
        events.sort_by_key(|e| (e.ts, e.trace_id, e.seq));
        TraceSnapshot {
            events,
            events_total,
            dropped_events,
            error_exemplars,
            error_exemplars_dropped,
            slowest,
            stream_checksum: stream,
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

    /// Exemplars of `class`, for assertions and dashboards.
    #[must_use]
    pub fn exemplars_of(&self, class: crate::trace::ExemplarClass) -> Vec<&Exemplar> {
        self.error_exemplars
            .iter()
            .filter(|e| e.class == class)
            .collect()
    }

    /// The whole snapshot as a JSON document (hand-rolled, no
    /// dependencies; schema `moqo-trace/v1`).
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(4096 + self.events.len() * 96);
        out.push_str("{\n  \"schema\": \"moqo-trace/v1\",\n");
        out.push_str(&format!("  \"events_total\": {},\n", self.events_total));
        out.push_str(&format!("  \"dropped_events\": {},\n", self.dropped_events));
        out.push_str(&format!(
            "  \"error_exemplars_dropped\": {},\n",
            self.error_exemplars_dropped
        ));
        out.push_str(&format!(
            "  \"stream_checksum\": {},\n",
            self.stream_checksum
        ));
        out.push_str(&format!(
            "  \"error_checksum\": {},\n",
            self.error_checksum()
        ));
        out.push_str("  \"recent\": [\n");
        push_events(&mut out, &self.events, "    ");
        out.push_str("  ],\n  \"error_exemplars\": [\n");
        push_exemplars(&mut out, &self.error_exemplars);
        out.push_str("  ],\n  \"slowest\": [\n");
        push_exemplars(&mut out, &self.slowest);
        out.push_str("  ]\n}\n");
        out
    }
}

fn push_events(out: &mut String, events: &[TraceEvent], indent: &str) {
    for (i, e) in events.iter().enumerate() {
        let comma = if i + 1 < events.len() { "," } else { "" };
        out.push_str(&format!(
            "{indent}{{\"trace\": {}, \"ts\": {}, \"seq\": {}, \"kind\": \"{}\", \
             \"args\": [{}, {}, {}]}}{comma}\n",
            e.trace_id,
            e.ts,
            e.seq,
            e.kind.name(),
            e.arg0,
            e.arg1,
            e.arg2,
        ));
    }
}

fn push_exemplars(out: &mut String, exemplars: &[Exemplar]) {
    for (i, ex) in exemplars.iter().enumerate() {
        let comma = if i + 1 < exemplars.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"trace\": {}, \"class\": \"{}\", \"latency_us\": {}, \
             \"truncated\": {}, \"events\": [\n",
            ex.trace_id,
            ex.class.name(),
            ex.latency_us,
            ex.truncated,
        ));
        push_events(out, &ex.events, "      ");
        out.push_str(&format!("    ]}}{comma}\n"));
    }
}

fn push_counter(out: &mut String, name: &str, help: &str, value: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
    ));
}

fn push_gauge(out: &mut String, name: &str, help: &str, value: f64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
    ));
}

#[allow(clippy::cast_precision_loss)]
fn push_histogram(out: &mut String, name: &str, help: &str, snapshot: &HistogramSnapshot) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    // Only the buckets where the cumulative count advances are emitted
    // (496 fixed buckets are mostly empty); `+Inf` always closes the
    // series, as the exposition format requires.
    let mut last = 0u64;
    for (hi_us, cumulative) in snapshot.cumulative_buckets() {
        if cumulative != last && hi_us != u64::MAX {
            out.push_str(&format!(
                "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                hi_us as f64 / 1e6
            ));
            last = cumulative;
        }
    }
    out.push_str(&format!(
        "{name}_bucket{{le=\"+Inf\"}} {}\n",
        snapshot.count()
    ));
    out.push_str(&format!("{name}_sum {}\n", snapshot.sum_us() as f64 / 1e6));
    out.push_str(&format!("{name}_count {}\n", snapshot.count()));
}

/// Renders the full metrics surface in the Prometheus text exposition
/// format: every [`MetricsSnapshot`] counter, the live gauges (pressure,
/// alive workers, queue depth, cache occupancy per shard), the three
/// latency histograms as cumulative buckets, the log-bucket quantiles,
/// and — when tracing is enabled — the flight-recorder totals.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn render_prometheus(
    metrics: &MetricsSnapshot,
    latency: &HistogramSnapshot,
    queue_wait: &HistogramSnapshot,
    service_time: &HistogramSnapshot,
    queued: usize,
    trace: Option<TraceStats>,
) -> String {
    let mut out = String::with_capacity(8192);
    push_gauge(
        &mut out,
        "moqo_uptime_seconds",
        "Time since the service started.",
        metrics.uptime.as_secs_f64(),
    );
    push_counter(
        &mut out,
        "moqo_submitted_total",
        "Requests accepted into the queue.",
        metrics.submitted,
    );
    push_counter(
        &mut out,
        "moqo_completed_total",
        "Requests answered with a plan.",
        metrics.completed,
    );
    push_counter(
        &mut out,
        "moqo_rejected_total",
        "Requests rejected by admission control.",
        metrics.rejected,
    );
    push_counter(
        &mut out,
        "moqo_timed_out_total",
        "Requests whose deadline expired mid-flight.",
        metrics.timed_out,
    );
    push_counter(
        &mut out,
        "moqo_failed_total",
        "Requests lost to internal errors.",
        metrics.failed,
    );
    push_counter(
        &mut out,
        "moqo_queue_full_total",
        "Submissions bounced off a full queue.",
        metrics.queue_full,
    );
    push_counter(
        &mut out,
        "moqo_shed_total",
        "Submissions shed by the brownout controller.",
        metrics.shed,
    );
    push_counter(
        &mut out,
        "moqo_panics_total",
        "Worker panics caught at the job boundary.",
        metrics.panics_total,
    );
    push_counter(
        &mut out,
        "moqo_respawns_total",
        "Workers respawned by the supervisor.",
        metrics.respawns,
    );
    push_counter(
        &mut out,
        "moqo_stalls_detected_total",
        "Wedged workers detected and replaced.",
        metrics.stalls_detected,
    );
    push_counter(
        &mut out,
        "moqo_degraded_blocks_total",
        "Blocks browned out under load pressure.",
        metrics.degraded_blocks,
    );
    push_counter(
        &mut out,
        "moqo_downgraded_blocks_total",
        "Blocks that ran a weaker algorithm than preferred.",
        metrics.downgraded_blocks,
    );
    push_gauge(
        &mut out,
        "moqo_throughput_rps",
        "Completed requests per second over the current window.",
        metrics.throughput_rps,
    );

    out.push_str(
        "# HELP moqo_blocks_total Blocks served, by algorithm family.\n\
         # TYPE moqo_blocks_total counter\n",
    );
    for (family, count) in [
        ("exa", metrics.blocks_exa),
        ("rta", metrics.blocks_rta),
        ("ira", metrics.blocks_ira),
        ("rmq", metrics.blocks_rmq),
        ("cached", metrics.blocks_cached),
    ] {
        out.push_str(&format!(
            "moqo_blocks_total{{algorithm=\"{family}\"}} {count}\n"
        ));
    }

    out.push_str(
        "# HELP moqo_request_latency_quantile_seconds Log-bucket latency quantiles \
         (lower bound of the bucket holding the order statistic).\n\
         # TYPE moqo_request_latency_quantile_seconds gauge\n",
    );
    for (q, value) in [
        ("0.5", metrics.p50),
        ("0.95", metrics.p95),
        ("0.99", metrics.p99),
    ] {
        out.push_str(&format!(
            "moqo_request_latency_quantile_seconds{{q=\"{q}\"}} {}\n",
            value.as_secs_f64()
        ));
    }

    push_counter(
        &mut out,
        "moqo_cache_hits_total",
        "Plan-cache direct serves.",
        metrics.cache.hits,
    );
    push_counter(
        &mut out,
        "moqo_cache_misses_total",
        "Plan-cache lookups not served directly.",
        metrics.cache.misses,
    );
    push_counter(
        &mut out,
        "moqo_cache_warm_starts_total",
        "Misses that seeded an RMQ warm start.",
        metrics.cache.warm_starts,
    );
    push_counter(
        &mut out,
        "moqo_cache_insertions_total",
        "Plan-cache entries written.",
        metrics.cache.insertions,
    );
    push_counter(
        &mut out,
        "moqo_cache_evictions_total",
        "Plan-cache LRU evictions.",
        metrics.cache.evictions,
    );
    push_gauge(
        &mut out,
        "moqo_cache_entries",
        "Plan-cache entries currently resident.",
        metrics.cache.entries as f64,
    );
    out.push_str(
        "# HELP moqo_cache_shard_entries Resident entries per cache shard.\n\
         # TYPE moqo_cache_shard_entries gauge\n",
    );
    for (shard, stats) in metrics.cache.per_shard.iter().enumerate() {
        out.push_str(&format!(
            "moqo_cache_shard_entries{{shard=\"{shard}\"}} {}\n",
            stats.entries
        ));
    }
    out.push_str(
        "# HELP moqo_cache_shard_evictions_total LRU evictions per cache shard.\n\
         # TYPE moqo_cache_shard_evictions_total counter\n",
    );
    for (shard, stats) in metrics.cache.per_shard.iter().enumerate() {
        out.push_str(&format!(
            "moqo_cache_shard_evictions_total{{shard=\"{shard}\"}} {}\n",
            stats.evictions
        ));
    }

    push_gauge(
        &mut out,
        "moqo_queue_depth",
        "Requests currently waiting in the queue.",
        queued as f64,
    );
    push_gauge(
        &mut out,
        "moqo_alive_workers",
        "Workers currently registered as live.",
        metrics.alive_workers as f64,
    );
    push_gauge(
        &mut out,
        "moqo_pressure_seconds",
        "EWMA of recent queue waits (the brownout signal); 0 before any sample.",
        metrics.pressure.map_or(0.0, |p| p.as_secs_f64()),
    );

    push_histogram(
        &mut out,
        "moqo_request_latency_seconds",
        "End-to-end latency, submission to response.",
        latency,
    );
    push_histogram(
        &mut out,
        "moqo_queue_wait_seconds",
        "Queue wait, submission to worker pickup.",
        queue_wait,
    );
    push_histogram(
        &mut out,
        "moqo_service_time_seconds",
        "Processing time, worker pickup to response.",
        service_time,
    );

    if let Some(stats) = trace {
        push_counter(
            &mut out,
            "moqo_trace_events_total",
            "Flight-recorder events ever recorded.",
            stats.events_total,
        );
        push_counter(
            &mut out,
            "moqo_trace_dropped_events_total",
            "Ring events overwritten before a snapshot saw them.",
            stats.dropped_events,
        );
        push_gauge(
            &mut out,
            "moqo_trace_error_exemplars",
            "Error-class exemplar traces currently retained.",
            stats.error_exemplars as f64,
        );
        push_counter(
            &mut out,
            "moqo_trace_error_exemplars_dropped_total",
            "Error exemplars evicted from the bounded store.",
            stats.error_exemplars_dropped,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheSnapshot;
    use crate::histogram::LogHistogram;
    use crate::metrics::ServiceMetrics;
    use crate::trace::{EventKind, ExemplarClass};
    use std::time::Duration;

    fn sample_metrics() -> MetricsSnapshot {
        let m = ServiceMetrics::default();
        m.on_event(EventKind::Enqueued, 0);
        m.on_completed(Duration::from_micros(50), Duration::from_millis(2));
        m.snapshot(CacheSnapshot::default(), 3)
    }

    #[test]
    fn prometheus_covers_every_metric_family() {
        let hist = LogHistogram::new();
        hist.record(Duration::from_millis(3));
        let snap = hist.snapshot();
        let text = render_prometheus(
            &sample_metrics(),
            &snap,
            &snap,
            &snap,
            7,
            Some(crate::trace::TraceStats {
                events_total: 11,
                dropped_events: 2,
                error_exemplars: 1,
                error_exemplars_dropped: 0,
            }),
        );
        for family in [
            "moqo_uptime_seconds",
            "moqo_submitted_total",
            "moqo_completed_total",
            "moqo_rejected_total",
            "moqo_timed_out_total",
            "moqo_failed_total",
            "moqo_queue_full_total",
            "moqo_shed_total",
            "moqo_panics_total",
            "moqo_respawns_total",
            "moqo_stalls_detected_total",
            "moqo_degraded_blocks_total",
            "moqo_downgraded_blocks_total",
            "moqo_throughput_rps",
            "moqo_blocks_total{algorithm=\"exa\"}",
            "moqo_blocks_total{algorithm=\"cached\"}",
            "moqo_request_latency_quantile_seconds{q=\"0.99\"}",
            "moqo_cache_hits_total",
            "moqo_cache_misses_total",
            "moqo_cache_warm_starts_total",
            "moqo_cache_insertions_total",
            "moqo_cache_evictions_total",
            "moqo_cache_entries",
            "moqo_queue_depth 7",
            "moqo_alive_workers 3",
            "moqo_pressure_seconds",
            "moqo_request_latency_seconds_bucket",
            "moqo_request_latency_seconds_sum",
            "moqo_request_latency_seconds_count 1",
            "moqo_queue_wait_seconds_count",
            "moqo_service_time_seconds_count",
            "moqo_trace_events_total 11",
            "moqo_trace_dropped_events_total 2",
            "moqo_trace_error_exemplars 1",
            "moqo_trace_error_exemplars_dropped_total 0",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_close_with_inf() {
        let hist = LogHistogram::new();
        for us in [5u64, 5, 100, 10_000] {
            hist.record_us(us);
        }
        let text = render_prometheus(
            &sample_metrics(),
            &hist.snapshot(),
            &LogHistogram::new().snapshot(),
            &LogHistogram::new().snapshot(),
            0,
            None,
        );
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("moqo_request_latency_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.len() >= 4, "expected distinct buckets: {text}");
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "not cumulative");
        assert_eq!(*counts.last().unwrap(), 4, "+Inf bucket holds the count");
        assert!(text.contains("moqo_request_latency_seconds_bucket{le=\"+Inf\"} 4"));
        // Exact sum: 5 + 5 + 100 + 10000 µs.
        assert!(text.contains("moqo_request_latency_seconds_sum 0.01011"));
    }

    #[test]
    fn json_dump_is_structured() {
        let ex = Exemplar {
            trace_id: 9,
            class: ExemplarClass::Panicked,
            latency_us: 42,
            events: vec![TraceEvent {
                trace_id: 9,
                ts: 1,
                kind: EventKind::Submitted,
                seq: 0,
                arg0: 1,
                arg1: 0,
                arg2: 0,
            }],
            truncated: false,
        };
        let snap = TraceSnapshot {
            events: ex.events.clone(),
            events_total: 1,
            dropped_events: 0,
            error_exemplars: vec![ex],
            error_exemplars_dropped: 0,
            slowest: Vec::new(),
            stream_checksum: 123,
        };
        let json = snap.render_json();
        assert!(json.contains("\"schema\": \"moqo-trace/v1\""));
        assert!(json.contains("\"kind\": \"submitted\""));
        assert!(json.contains("\"class\": \"panicked\""));
        assert!(json.contains("\"stream_checksum\": 123"));
        assert!(json.contains(&format!("\"error_checksum\": {}", snap.error_checksum())));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }
}
