//! The repository benchmark: four serving workloads driven through the
//! public `OptimizationService` API, end-to-end metrics from an untraced
//! run, and a per-layer split from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <cache_hot|tpch_dp|rmq_large|mixed_open> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! ```
//!
//! The report goes to standard output, one metric per line with its unit;
//! the last line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Every response is checked (see `load.rs`), a seeded
//! sample is audited against exact references, and the workload's
//! invariants are asserted; any violation makes `correct` false and the
//! exit code 1. See README.md for the workloads, metrics and bounds.

mod inputs;
mod layers;
mod load;
mod stats;

use std::hint::black_box;
use std::time::{Duration, Instant};

use moqo_catalog::{Catalog, JoinGraph};
use moqo_cost::{approx_dominates, Preference};
use moqo_costmodel::{CostModel, CostModelParams};
use moqo_plan::{ScanOp, SAMPLING_RATES_PCT};
use moqo_service::{MetricsSnapshot, OptimizationService, ServiceError, Ticket, TraceConfig};

use inputs::{Inputs, Scale, Workload};
use load::{Drive, Phase, DIGEST_PREFIX};

const USAGE: &str = "usage: moqo_benchmark --workload <cache_hot|tpch_dp|rmq_large|mixed_open> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]";

/// TPC-H scale factor of the catalog (the paper's evaluation uses SF 1).
const SCALE_FACTOR: f64 = 1.0;
/// Service worker threads: one per vCPU of the reference machine.
const WORKERS: usize = 2;
/// Queue capacity, far above any backlog the workloads build.
const QUEUE_CAPACITY: usize = 1024;
/// Set-ups timed per untraced run: at least `MIN_SETUPS`, and more (up to
/// `MAX_SETUPS`) until `SETUP_BUDGET` has been spent on the extra ones, so
/// that workloads whose set-up takes milliseconds still report a steady
/// median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Equal consecutive segments of the measured phase; throughput is the
/// median of their completion rates.
const SEGMENTS: usize = 5;
/// Largest share of the summed latency the stages may leave unexplained.
const MAX_UNATTRIBUTED_PCT: f64 = 5.0;
/// How long each per-layer micro-measurement repeats its calls.
const MICRO_BUDGET: Duration = Duration::from_millis(100);

/// Parsed command line. Configuration comes from arguments only.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut args = args.into_iter();
        let mut parsed = Args {
            workload: Workload::CacheHot,
            seed: 2024,
            seconds: 20.0,
            trace: false,
            smoke: false,
            out: None,
        };
        let mut workload = None;
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload =
                        Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
                }
                "--seed" => {
                    parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(0.1..=3600.0).contains(&seconds) {
                        return Err(format!("--seconds {seconds} is outside 0.1..=3600"));
                    }
                    parsed.seconds = seconds;
                }
                "--trace" => {
                    parsed.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    };
                }
                "--smoke" => parsed.smoke = true,
                "--out" => parsed.out = Some(value()?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        parsed.workload = workload.ok_or("--workload is required")?;
        Ok(parsed)
    }

    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::smoke()
        } else {
            Scale::full()
        }
    }
}

/// One reported metric.
#[derive(Debug)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// The run's verdict, counts, metrics and explanatory notes.
#[derive(Debug)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    fn new() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.violation(format!("{name} is not finite: {value}"));
        }
        self.metrics.push(Metric { name, value, unit });
    }

    fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    fn violation(&mut self, message: String) {
        self.correct = false;
        self.notes.push(format!("VIOLATION: {message}"));
    }

    /// Counts a phase's requests and carries over its check results.
    fn absorb(&mut self, phase: &Phase) {
        self.attempted += phase.tally.attempted;
        self.failed += phase.tally.failed;
        if phase.tally.violations > 0 {
            self.correct = false;
            self.notes.push(format!(
                "VIOLATION: {} output check(s) failed, first: {}",
                phase.tally.violations,
                phase.tally.violation_messages.join("; ")
            ));
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A built, warmed service with the inputs it will be driven with.
struct Setup {
    catalog: Catalog,
    inputs: Inputs,
    service: OptimizationService,
    elapsed: Duration,
}

/// Catalog, inputs, service and cache warm-up: everything before the first
/// measured request. The warm-up requests are submitted together, so both
/// workers fill the cache, and every one must succeed.
fn set_up(
    args: &Args,
    scale: &Scale,
    seconds: f64,
    tracing: Option<TraceConfig>,
) -> Result<Setup, ServiceError> {
    let started = Instant::now();
    let catalog = moqo_tpch::catalog(SCALE_FACTOR);
    let inputs = Inputs::generate(args.workload, args.seed, seconds, &catalog, scale);
    let mut builder = OptimizationService::builder(catalog.clone())
        .workers(WORKERS)
        .queue_capacity(QUEUE_CAPACITY)
        .cache_capacity(args.workload.cache_capacity());
    if let Some(config) = tracing {
        builder = builder.tracing(config);
    }
    let service = builder.build();
    let tickets = inputs
        .warmup
        .iter()
        .map(|&i| service.submit(inputs.requests[i as usize].clone()))
        .collect::<Result<Vec<Ticket>, ServiceError>>()?;
    for ticket in tickets {
        ticket.wait()?;
    }
    Ok(Setup {
        catalog,
        inputs,
        service,
        elapsed: started.elapsed(),
    })
}

fn run(args: &Args) -> Report {
    let mut report = Report::new();
    let outcome = if args.trace {
        traced(args, &mut report)
    } else {
        untraced(args, &mut report)
    };
    if let Err(error) = outcome {
        report.violation(format!("set-up failed: {error}"));
    }
    report
}

/// The end-to-end run: set up, measure with tracing off, read the memory
/// peak, then set up again several times for a steady `setup_s` median.
/// The extra set-ups come last so that the measured phase and its memory
/// peak see one set-up's process state, however many repetitions follow.
fn untraced(args: &Args, report: &mut Report) -> Result<(), ServiceError> {
    let scale = args.scale();
    let Setup {
        catalog,
        inputs,
        service,
        elapsed,
    } = set_up(args, &scale, args.seconds, None)?;
    let before = service.metrics();
    let cpu = stats::cpu_seconds();
    let mut phase = load::drive(
        &service,
        args.workload,
        &inputs,
        Drive {
            run_for: Duration::from_secs_f64(args.seconds),
            cap: usize::MAX,
            detailed: false,
        },
    );
    let cpu = stats::cpu_seconds() - cpu;
    let after = service.shutdown();
    // Read before the audit allocates: its exact references would
    // otherwise count toward the service's memory.
    let peak_rss_mb = stats::peak_rss_mb();

    let mut setup_seconds = vec![elapsed.as_secs_f64()];
    let started = Instant::now();
    while setup_seconds.len() < MIN_SETUPS
        || (setup_seconds.len() < MAX_SETUPS && started.elapsed() < SETUP_BUDGET)
    {
        setup_seconds.push(
            set_up(args, &scale, args.seconds, None)?
                .elapsed
                .as_secs_f64(),
        );
    }
    report.note(format!("set-up timed {} times", setup_seconds.len()));

    report.absorb(&phase);
    check_invariants(args.workload, &phase, &before, &after, report);
    let ratio = audit(&catalog, &inputs, &phase, report);

    let throughput = throughput(&phase);
    // Sorted in place: a million records need no second copy.
    phase
        .records
        .sort_unstable_by(|a, b| a.latency_us.total_cmp(&b.latency_us));
    let p50 = latency_percentile(&phase, 0.50, report);
    let p99 = latency_percentile(&phase, 0.99, report);
    report.metric("setup_s", stats::median(&setup_seconds), "s");
    report.metric("throughput_rps", throughput, "1/s");
    report.metric("latency_p50_ms", p50, "ms");
    report.metric("latency_p99_ms", p99, "ms");
    #[allow(clippy::cast_precision_loss)]
    let per_request = cpu * 1e3 / phase.records.len().max(1) as f64;
    report.metric("cpu_ms_per_req", per_request, "ms");
    report.metric("peak_rss_mb", peak_rss_mb, "MiB");
    report.metric("plan_cost_ratio", ratio, "ratio");
    describe_phase(&phase, &inputs, report);
    Ok(())
}

/// The per-layer run: a traced phase of half the time, with a flight
/// recorder sized to keep every measured event, then an untraced phase
/// over exactly the same requests as the baseline of the tracing overhead.
fn traced(args: &Args, report: &mut Report) -> Result<(), ServiceError> {
    let scale = args.scale();
    let half = args.seconds / 2.0;
    let ring_capacity = args.workload.trace_ring_capacity();
    let Setup {
        catalog,
        inputs,
        service,
        ..
    } = set_up(
        args,
        &scale,
        half,
        Some(TraceConfig {
            ring_capacity,
            logical_clock: false,
            ..TraceConfig::default()
        }),
    )?;
    // Warm-up requests hold ordinals 0..W and are dropped from the split.
    let warmup = inputs.warmup.len();
    // Worst case every event of a request lands in one worker's ring:
    // popped, a probe per block, an optimize per computed block (none on
    // `cache_hot`), completed. The phase stops early rather than let the
    // ring overwrite events.
    let max_blocks = inputs
        .requests
        .iter()
        .map(|r| r.query.blocks.len())
        .max()
        .unwrap_or(1);
    let computes = usize::from(args.workload != Workload::CacheHot);
    let per_request = 2 + (1 + computes) * max_blocks;
    let cap = ring_capacity.saturating_sub(warmup * (2 + 2 * max_blocks)) / per_request;
    let before = service.metrics();
    let cpu = stats::cpu_seconds();
    let how = Drive {
        run_for: Duration::from_secs_f64(half),
        cap,
        detailed: true,
    };
    let phase = load::drive(&service, args.workload, &inputs, how);
    let traced_cpu = stats::cpu_seconds() - cpu;
    let snapshot = service
        .trace_snapshot()
        .expect("the service was built with tracing");
    let after = service.shutdown();
    report.absorb(&phase);
    check_invariants(args.workload, &phase, &before, &after, report);
    audit(&catalog, &inputs, &phase, report);

    // The same stream positions again, untraced; the phase may take up to
    // the whole run length to get through them.
    let baseline = set_up(args, &scale, half, None)?;
    let cpu = stats::cpu_seconds();
    let how = Drive {
        run_for: Duration::from_secs_f64(args.seconds),
        cap: usize::try_from(phase.tally.attempted).expect("counts fit usize"),
        detailed: false,
    };
    let plain = load::drive(&baseline.service, args.workload, &baseline.inputs, how);
    let plain_cpu = stats::cpu_seconds() - cpu;
    drop(baseline.service.shutdown());
    report.absorb(&plain);

    if snapshot.dropped_events != 0 {
        report.violation(format!(
            "{} trace events were overwritten; the split would be partial",
            snapshot.dropped_events
        ));
    }
    let stages = layers::reconstruct(&snapshot.events, warmup as u64);
    if stages.traces != phase.records.len() as u64 || stages.incomplete != 0 {
        report.violation(format!(
            "{} complete traces ({} with gaps) for {} completed requests",
            stages.traces,
            stages.incomplete,
            phase.records.len()
        ));
    }
    if stages.computed != phase.tally.optimize_us.len() as u64 {
        report.violation(format!(
            "{} traced compute stages for {} computed blocks",
            stages.computed,
            phase.tally.optimize_us.len()
        ));
    }
    per_layer_metrics(&phase, &stages, &before, &after, report);
    #[allow(clippy::cast_precision_loss)]
    let per_request = |cpu: f64, phase: &Phase| cpu / phase.records.len().max(1) as f64;
    let (with, without) = (
        per_request(traced_cpu, &phase),
        per_request(plain_cpu, &plain),
    );
    report.metric(
        "trace.overhead_pct",
        if without > 0.0 {
            100.0 * (with / without - 1.0)
        } else {
            0.0
        },
        "%",
    );
    micro_metrics(&catalog, &inputs, report);
    report.note(format!(
        "traced phase: {} events recorded, {} dropped, {} measured traces, window {:.2} s; \
         untraced baseline: {} requests",
        snapshot.events_total,
        snapshot.dropped_events,
        stages.traces,
        phase.window.as_secs_f64(),
        plain.records.len()
    ));
    describe_phase(&phase, &inputs, report);
    Ok(())
}

/// Counter deltas over the measured phase.
struct Deltas {
    hits: u64,
    misses: u64,
    warm_starts: u64,
    evictions: u64,
    downgraded: u64,
    rejected: u64,
}

impl Deltas {
    fn between(before: &MetricsSnapshot, after: &MetricsSnapshot) -> Self {
        Deltas {
            hits: after.cache.hits - before.cache.hits,
            misses: after.cache.misses - before.cache.misses,
            warm_starts: after.cache.warm_starts - before.cache.warm_starts,
            evictions: after.cache.evictions - before.cache.evictions,
            downgraded: after.downgraded_blocks - before.downgraded_blocks,
            rejected: after.rejected - before.rejected,
        }
    }
}

/// The workload invariants: `cache_hot` never misses or evicts, every
/// `rmq_large` block warm-starts.
fn check_invariants(
    workload: Workload,
    phase: &Phase,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    report: &mut Report,
) {
    let d = Deltas::between(before, after);
    match workload {
        Workload::CacheHot if d.misses != 0 || d.evictions != 0 => report.violation(format!(
            "cache_hot missed {} times and evicted {} entries",
            d.misses, d.evictions
        )),
        Workload::RmqLarge if d.warm_starts != phase.tally.blocks => report.violation(format!(
            "rmq_large warm-started {} of {} blocks",
            d.warm_starts, phase.tally.blocks
        )),
        _ => {}
    }
}

/// The α-audit: every audited request's first served fronts must α-cover
/// the exact reference fronts block by block, at the guarantee each block
/// claims (blocks without one are counted and skipped). Returns the
/// geometric mean, over every completed request with a reference, of the
/// served plan's weighted cost over the reference plan's.
fn audit(catalog: &Catalog, inputs: &Inputs, phase: &Phase, report: &mut Report) -> f64 {
    let references = inputs::references(catalog, inputs);
    let (mut covered, mut skipped) = (0, 0);
    for (index, served) in &phase.tally.served {
        let reference = &references[index];
        let objectives = inputs.requests[*index as usize].preference.objectives;
        for (b, (exact, (front, guarantee))) in reference.fronts.iter().zip(served).enumerate() {
            let Some(alpha) = guarantee else {
                skipped += 1;
                continue;
            };
            covered += 1;
            // Relative slack for float rounding in the pruning products.
            let alpha = alpha * (1.0 + 1e-9);
            let uncovered = exact
                .iter()
                .filter(|r| {
                    !front
                        .iter()
                        .any(|s| approx_dominates(s, r, alpha, objectives))
                })
                .count();
            if uncovered > 0 {
                report.violation(format!(
                    "request {index} block {b}: {uncovered} of {} exact plans not covered at α {alpha}",
                    exact.len()
                ));
            }
        }
    }
    // Geometric mean over every positive-cost response of an audited
    // request: exp(Σ (ln cost − ln reference) / n).
    let (mut log_ratio, mut ratios) = (0.0, 0u64);
    for (index, &(log_cost, count)) in &phase.tally.log_costs {
        let reference = references[index].weighted_cost;
        if reference > 0.0 {
            #[allow(clippy::cast_precision_loss)]
            let shift = count as f64 * reference.ln();
            log_ratio += log_cost - shift;
            ratios += count;
        }
    }
    report.note(format!(
        "audit: {} of {} sampled requests served; {covered} blocks checked for α-coverage, \
         {skipped} without a guarantee; {ratios} cost ratios",
        phase.tally.served.len(),
        references.len(),
    ));
    if ratios == 0 {
        report.violation("no audited request was served".to_owned());
        return f64::NAN;
    }
    #[allow(clippy::cast_precision_loss)]
    let mean = log_ratio / ratios as f64;
    mean.exp()
}

/// A latency percentile in ms of records sorted by latency, noting the
/// sample count and how many samples lie beyond it.
fn latency_percentile(phase: &Phase, p: f64, report: &mut Report) -> f64 {
    let Some((index, beyond)) = stats::percentile_rank(phase.records.len(), p) else {
        report.violation("no request completed".to_owned());
        return f64::NAN;
    };
    report.note(format!(
        "latency p{}: {} samples, {beyond} beyond{}",
        p * 100.0,
        phase.records.len(),
        if beyond < 10 {
            " (fewer than 10: low confidence)"
        } else {
            ""
        }
    ));
    f64::from(phase.records[index].latency_us) / 1e3
}

/// Median completion rate over `SEGMENTS` equal slices of the window. A
/// slice's rate is its completions after the first, over the time from its
/// first to its last completion — a continuous reading rather than an
/// integer count per slice.
fn throughput(phase: &Phase) -> f64 {
    let window = phase.window.as_secs_f64();
    #[allow(clippy::cast_precision_loss)]
    let segment = window / SEGMENTS as f64;
    // Per segment: completions, first and last completion time.
    let mut slices = [(0u32, f64::INFINITY, f64::NEG_INFINITY); SEGMENTS];
    for record in &phase.records {
        let at = f64::from(record.done_at_s);
        if at < window {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let (n, first, last) = &mut slices[((at / segment) as usize).min(SEGMENTS - 1)];
            *n += 1;
            *first = first.min(at);
            *last = last.max(at);
        }
    }
    let rates: Vec<f64> = slices
        .iter()
        .map(|&(n, first, last)| {
            if n >= 2 && last > first {
                f64::from(n - 1) / (last - first)
            } else {
                f64::from(n) / segment
            }
        })
        .collect();
    stats::median(&rates)
}

/// Notes every run prints: counts, the output digest, zero-cost plans and
/// the generator's lateness.
fn describe_phase(phase: &Phase, inputs: &Inputs, report: &mut Report) {
    let mut prefix = phase.tally.prefix_costs.clone();
    prefix.sort_unstable();
    let digest = prefix
        .iter()
        .fold(stats::FNV_OFFSET, |acc, &(position, cost)| {
            stats::fnv(stats::fnv(acc, u64::from(position)), cost)
        });
    report.note(format!(
        "output_digest {digest:#018x} over {} of the first {DIGEST_PREFIX} stream positions; \
         input digest {:#018x}",
        prefix.len(),
        inputs.digest()
    ));
    report.note(format!(
        "{} completed, {} failed, {} zero-cost plans, window {:.2} s",
        phase.records.len(),
        phase.tally.failed,
        phase.tally.zero_cost,
        phase.window.as_secs_f64()
    ));
    if !phase.lags_ms.is_empty() {
        let mut lags = phase.lags_ms.clone();
        lags.sort_by(f64::total_cmp);
        let (p99, _) = stats::percentile(&lags, 0.99).expect("non-empty");
        report.note(format!(
            "generator lag p99 {p99:.3} ms over {} submits",
            lags.len()
        ));
    }
}

/// The per-layer metrics of the traced phase; see README.md for which
/// end-to-end metric each should move.
#[allow(clippy::cast_precision_loss)]
fn per_layer_metrics(
    phase: &Phase,
    stages: &layers::Stages,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    report: &mut Report,
) {
    let d = Deltas::between(before, after);
    let tally = &phase.tally;
    let per = |total: f64, count: u64| {
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    };
    let traces = stages.traces;
    let client_us: f64 = phase.records.iter().map(|r| f64::from(r.latency_us)).sum();
    let optimize_us = tally.optimize_us.iter().fold(0.0, |sum, us| sum + us);
    // Queue waits from the responses: nanosecond clocks, where the trace's
    // timestamps are whole microseconds.
    let mut waits: Vec<f64> = tally.queue_waits_us.iter().map(|&w| f64::from(w)).collect();
    waits.sort_by(f64::total_cmp);
    let mut optimize_ms: Vec<f64> = tally.optimize_us.iter().map(|us| us / 1e3).collect();
    optimize_ms.sort_by(f64::total_cmp);
    let pct = |sorted: &[f64], p: f64| stats::percentile(sorted, p).map_or(0.0, |(v, _)| v);

    report.metric(
        "service.submit_us",
        per(stages.submit_us as f64, traces),
        "us",
    );
    report.metric("queue.wait_us_p50", pct(&waits, 0.50), "us");
    report.metric("queue.wait_us_p99", pct(&waits, 0.99), "us");
    report.metric(
        "cache.probe_us",
        per(stages.probe_us as f64, stages.probes),
        "us",
    );
    report.metric(
        "cache.hit_front_plans",
        per(tally.hit_front_plans as f64, tally.hit_blocks),
        "plans",
    );
    report.metric(
        "cache.hit_ratio",
        per(d.hits as f64, d.hits + d.misses),
        "ratio",
    );
    report.metric("cache.warm_starts", d.warm_starts as f64, "count");
    report.metric(
        "cache.insert_us",
        per(stages.compute_us as f64 - optimize_us, stages.computed),
        "us",
    );
    report.metric("cache.evictions", d.evictions as f64, "count");
    report.metric("policy.downgraded_blocks", d.downgraded as f64, "count");
    report.metric("policy.rejected", d.rejected as f64, "count");
    report.metric("core.optimize_ms_sum", optimize_us / 1e3, "ms");
    report.metric("core.optimize_ms_p99", pct(&optimize_ms, 0.99), "ms");
    report.metric(
        "core.considered_plans",
        tally.considered_plans as f64,
        "count",
    );
    report.metric(
        "core.plans_per_ms",
        if optimize_us > 0.0 {
            tally.considered_plans as f64 / (optimize_us / 1e3)
        } else {
            0.0
        },
        "plans/ms",
    );
    report.metric("core.stored_plans", tally.stored_plans as f64, "count");
    report.metric(
        "core.peak_memory_mb",
        tally.peak_memory_bytes as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    report.metric(
        "core.front_size",
        per(tally.front_plans as f64, tally.blocks),
        "plans",
    );
    report.metric("core.ira_iterations", tally.ira_iterations as f64, "count");
    report.metric(
        "core.timed_out_blocks",
        tally.timed_out_blocks as f64,
        "count",
    );
    report.metric(
        "core.grid_hit_pct",
        per(
            100.0 * tally.grid_hits as f64,
            tally.grid_hits + tally.scan_probes,
        ),
        "%",
    );
    report.metric(
        "service.respond_us",
        per(stages.respond_us as f64, traces),
        "us",
    );
    report.metric(
        "service.delivery_us",
        per(client_us - stages.span_us as f64, traces),
        "us",
    );
    let unattributed_pct = if client_us > 0.0 {
        100.0 * stages.unattributed_us as f64 / client_us
    } else {
        0.0
    };
    if unattributed_pct > MAX_UNATTRIBUTED_PCT {
        report.violation(format!(
            "{unattributed_pct:.2}% of the summed latency is unattributed"
        ));
    }
    report.metric("service.unattributed_pct", unattributed_pct, "%");
}

/// Mean µs per block of `f` over every block of the run's requests,
/// repeated for `MICRO_BUDGET`.
fn time_per_block(inputs: &Inputs, mut f: impl FnMut(&JoinGraph, &Preference)) -> f64 {
    let blocks: Vec<(&JoinGraph, &Preference)> = inputs
        .requests
        .iter()
        .flat_map(|r| r.query.blocks.iter().map(move |g| (g, &r.preference)))
        .collect();
    let started = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || started.elapsed() < MICRO_BUDGET {
        for &(graph, preference) in &blocks {
            f(graph, preference);
        }
        calls += blocks.len() as u64;
    }
    #[allow(clippy::cast_precision_loss)]
    let per_call = started.elapsed().as_secs_f64() * 1e6 / calls as f64;
    per_call
}

/// Direct timings of two per-block costs the service pays outside the
/// optimizer: the cache key's signatures, and costing every scan leaf.
fn micro_metrics(catalog: &Catalog, inputs: &Inputs, report: &mut Report) {
    let signature_us = time_per_block(inputs, |graph, preference| {
        black_box((graph.signature(), preference.signature()));
    });
    let params = CostModelParams::default();
    let scan_cost_us = time_per_block(inputs, |graph, _| {
        let model = CostModel::new(&params, catalog, black_box(graph));
        for rel in 0..graph.n_rels() {
            black_box(model.scan_cost(rel, ScanOp::SeqScan));
            for rate_pct in SAMPLING_RATES_PCT {
                black_box(model.scan_cost(rel, ScanOp::SamplingScan { rate_pct }));
            }
        }
    });
    report.metric("catalog.signature_us", signature_us, "us");
    report.metric("costmodel.scan_cost_us", scan_cost_us, "us");
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = run(&args);
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for m in &report.metrics {
        println!("{:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let json = report.json();
    if let Some(path) = &args.out {
        if let Err(error) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("error: cannot write {path}: {error}");
            std::process::exit(2);
        }
    }
    println!("{json}");
    std::process::exit(if report.correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parsed = args("--workload tpch_dp --seed 7 --seconds 2.5 --trace 1 --smoke").unwrap();
        assert_eq!(parsed.workload, Workload::TpchDp);
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace, parsed.smoke),
            (7, 2.5, true, true)
        );
        let defaults = args("--workload cache_hot").unwrap();
        assert_eq!(
            (
                defaults.seed,
                defaults.seconds,
                defaults.trace,
                defaults.smoke
            ),
            (2024, 20.0, false, false)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload cache_hot --trace 2",
            "--workload cache_hot --seconds 0",
            "--workload cache_hot --seed",
            "--workload cache_hot --bogus",
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn same_seed_same_inputs_and_another_seed_other_inputs() {
        let catalog = moqo_tpch::catalog(SCALE_FACTOR);
        let scale = Scale::smoke();
        for workload in Workload::ALL {
            let digest = |seed| Inputs::generate(workload, seed, 1.0, &catalog, &scale).digest();
            assert_eq!(digest(11), digest(11), "{}", workload.name());
            assert_ne!(digest(11), digest(12), "{}", workload.name());
        }
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut report = Report::new();
        report.attempted = 3;
        report.metric("latency_p50_ms", 1.25, "ms");
        assert_eq!(
            report.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        report.metric("bad", f64::NAN, "ms");
        assert!(!report.correct);
        assert!(report
            .json()
            .contains("\"bad\": {\"value\": 0, \"unit\": \"ms\"}"));
    }

    /// Every workload's smoke size runs end to end, traced and untraced,
    /// and passes its own checks.
    #[test]
    fn smoke_runs_pass_their_checks() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let started = Instant::now();
                let args = Args {
                    workload,
                    seed: 5,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                    out: None,
                };
                let report = run(&args);
                assert!(
                    report.correct,
                    "{} trace={trace}: {:#?}",
                    workload.name(),
                    report.notes
                );
                assert!(report.attempted > 0);
                assert!(
                    started.elapsed() < Duration::from_secs(5),
                    "{} trace={trace} took {:?}",
                    workload.name(),
                    started.elapsed()
                );
            }
        }
    }
}
