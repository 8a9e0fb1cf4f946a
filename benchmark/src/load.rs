//! Load generation and the per-response output checks.
//!
//! Closed loops run two client threads, each with one request outstanding;
//! the open loop runs one generator thread submitting on a Poisson schedule
//! and one collector thread waiting on tickets. Every response is checked
//! as it arrives, and the numbers the per-layer split needs are summed from
//! the responses themselves.

use std::collections::BTreeMap;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use moqo_core::{Algorithm, PruneMode};
use moqo_cost::CostVector;
use moqo_service::{
    BlockOutcome, BlockSource, OptimizationRequest, OptimizationResponse, OptimizationService,
    ServiceError, Ticket,
};

use crate::inputs::{Inputs, Workload};

/// Client threads of a closed loop, each with one request outstanding.
const CLIENTS: usize = 2;

/// Stream positions whose served costs the output digest covers.
pub const DIGEST_PREFIX: u32 = 500;

/// How long before a due time the open-loop generator stops sleeping and
/// spins.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(200);

/// Records each load thread reserves up front. The reservation is address
/// space only — pages are touched as records arrive — so the record
/// vectors never reallocate mid-run and the measured peak memory grows
/// smoothly with the request count.
const RECORD_RESERVE: usize = 1 << 23;

/// One completed measured request: eight bytes, since `cache_hot`
/// completes over a million of them in a run.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Latency in µs: client-observed in closed loops, measured from the
    /// due time in the open loop.
    pub latency_us: f32,
    /// Completion time in seconds from the start of the measured phase.
    pub done_at_s: f32,
}

/// Per block of a response: the front's cost vectors and the α it must
/// cover the exact front at, `None` when the block carries no such
/// guarantee (see [`auditable_alpha`]).
pub type ServedFronts = Vec<(Vec<CostVector>, Option<f64>)>;

/// The α at which a served block's front must cover the exact front, if
/// it carries that guarantee. The anytime search carries none. Nor does a
/// front pruned cost-only while sampling is on (the service's default
/// parameters; the mode the pruning rule picks when TupleLoss is
/// selected): sampled plans' row counts then leak past the cost vector,
/// so near-optimal sub-plans do not compose into near-optimal plans, and
/// such fronts measurably miss exact plans (Q10 at α = 2 does).
fn auditable_alpha(block: &BlockOutcome) -> Option<f64> {
    let anytime = matches!(
        block.source,
        BlockSource::Computed {
            algorithm: Algorithm::Rmq { .. },
            ..
        } | BlockSource::WarmStarted {
            algorithm: Algorithm::Rmq { .. },
            ..
        }
    );
    (!anytime && block.report.prune_mode == PruneMode::PropsAware).then_some(block.achieved_alpha)
}

/// Per-response aggregates of one load thread, merged after the phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Measured requests submitted.
    pub attempted: u64,
    /// Measured requests that ended in an error.
    pub failed: u64,
    /// Output-check violations, with the first few messages.
    pub violations: u64,
    /// The first violation messages, for the report.
    pub violation_messages: Vec<String>,
    /// Blocks served.
    pub blocks: u64,
    /// Blocks served straight from the cache.
    pub hit_blocks: u64,
    /// Plans copied out of the cache over all hits.
    pub hit_front_plans: u64,
    /// Plans in every served block's front.
    pub front_plans: u64,
    /// Per computed block: the optimizer's wall time in µs.
    pub optimize_us: Vec<f64>,
    /// Plans offered to `Prune` over all computed blocks.
    pub considered_plans: u64,
    /// Plans stored for the last complete table set, over computed blocks.
    pub stored_plans: u64,
    /// Largest deterministic peak memory of a computed block, in bytes.
    pub peak_memory_bytes: usize,
    /// IRA iterations over all IRA blocks.
    pub ira_iterations: u64,
    /// Computed blocks that hit their deadline.
    pub timed_out_blocks: u64,
    /// Frontier probes answered by the grid index.
    pub grid_hits: u64,
    /// Frontier probes that fell through to a scan.
    pub scan_probes: u64,
    /// First served fronts of audited requests, by request index.
    pub served: BTreeMap<u32, ServedFronts>,
    /// Per audited request index: Σ ln(weighted cost) and the count of
    /// positive-cost responses, for the plan-cost ratio.
    pub log_costs: BTreeMap<u32, (f64, u64)>,
    /// Responses whose served plan has zero weighted cost.
    pub zero_cost: u64,
    /// Weighted-cost bits of the positions below [`DIGEST_PREFIX`].
    pub prefix_costs: Vec<(u32, u64)>,
    /// Whether to keep a queue-wait sample per response (traced runs).
    detailed: bool,
    /// Per response: its time in the queue, µs (only when `detailed`).
    pub queue_waits_us: Vec<f32>,
}

impl Tally {
    fn new(detailed: bool) -> Self {
        Tally {
            detailed,
            ..Tally::default()
        }
    }

    fn violation(&mut self, message: String) {
        self.violations += 1;
        if self.violation_messages.len() < 5 {
            self.violation_messages.push(message);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations += other.violations;
        for message in other.violation_messages {
            if self.violation_messages.len() < 5 {
                self.violation_messages.push(message);
            }
        }
        self.blocks += other.blocks;
        self.hit_blocks += other.hit_blocks;
        self.hit_front_plans += other.hit_front_plans;
        self.front_plans += other.front_plans;
        self.optimize_us.extend(other.optimize_us);
        self.queue_waits_us.extend(other.queue_waits_us);
        self.considered_plans += other.considered_plans;
        self.stored_plans += other.stored_plans;
        self.peak_memory_bytes = self.peak_memory_bytes.max(other.peak_memory_bytes);
        self.ira_iterations += other.ira_iterations;
        self.timed_out_blocks += other.timed_out_blocks;
        self.grid_hits += other.grid_hits;
        self.scan_probes += other.scan_probes;
        for (index, served) in other.served {
            self.served.entry(index).or_insert(served);
        }
        for (index, (sum, count)) in other.log_costs {
            let entry = self.log_costs.entry(index).or_default();
            entry.0 += sum;
            entry.1 += count;
        }
        self.zero_cost += other.zero_cost;
        self.prefix_costs.extend(other.prefix_costs);
    }

    /// Records an error. Closed loops must never fail, so there an error is
    /// also an output violation; the open loop's deadlines make failures a
    /// measured outcome instead.
    fn fail(&mut self, workload: Workload, index: u32, error: &ServiceError) {
        self.failed += 1;
        if workload != Workload::MixedOpen {
            self.violation(format!("request {index} failed: {error}"));
        }
    }

    /// Checks the response at stream `position` (request `index`) and
    /// folds it into the aggregates.
    fn check(
        &mut self,
        workload: Workload,
        position: u32,
        index: u32,
        request: &OptimizationRequest,
        response: &OptimizationResponse,
        audited: bool,
    ) {
        let cost = response.weighted_cost;
        if position < DIGEST_PREFIX {
            self.prefix_costs.push((position, cost.to_bits()));
        }
        if cost == 0.0 {
            self.zero_cost += 1;
        } else if audited {
            let entry = self.log_costs.entry(index).or_default();
            entry.0 += cost.ln();
            entry.1 += 1;
        }
        if response.blocks.len() != request.query.blocks.len() {
            self.violation(format!(
                "request {index}: {} blocks served for {} blocks",
                response.blocks.len(),
                request.query.blocks.len()
            ));
        }
        if self.detailed {
            self.queue_waits_us.push(micros(response.queue_wait));
        }
        if !response.weighted_cost.is_finite() || response.weighted_cost < 0.0 {
            self.violation(format!(
                "request {index}: weighted cost {}",
                response.weighted_cost
            ));
        }
        for (b, block) in response.blocks.iter().enumerate() {
            self.blocks += 1;
            self.front_plans += block.frontier.len() as u64;
            // A block carries a guarantee when a DP scheme computed it or
            // the cache served it under a certificate; the guarantee must
            // be at least as tight as the request asked for.
            let guaranteed = match &block.source {
                BlockSource::CacheHit { certificate } => {
                    self.hit_blocks += 1;
                    self.hit_front_plans += block.frontier.len() as u64;
                    if !certificate.is_valid() {
                        self.violation(format!("request {index} block {b}: invalid certificate"));
                    }
                    true
                }
                BlockSource::Computed { algorithm, .. }
                | BlockSource::WarmStarted { algorithm, .. } => {
                    let report = &block.report;
                    self.optimize_us.push(report.elapsed.as_secs_f64() * 1e6);
                    self.considered_plans += report.considered_plans;
                    self.stored_plans += report.pareto_last_complete as u64;
                    self.peak_memory_bytes = self.peak_memory_bytes.max(report.peak_memory_bytes);
                    self.grid_hits += report.frontier_grid_hits;
                    self.scan_probes += report.frontier_scan_probes;
                    if matches!(algorithm, Algorithm::Ira { .. }) {
                        self.ira_iterations += u64::from(report.iterations);
                    }
                    if report.timed_out {
                        self.timed_out_blocks += 1;
                        if workload != Workload::MixedOpen {
                            self.violation(format!("request {index} block {b}: timed out"));
                        }
                    }
                    !matches!(algorithm, Algorithm::Rmq { .. })
                }
            };
            if guaranteed && block.achieved_alpha > request.alpha {
                self.violation(format!(
                    "request {index} block {b}: achieved α {} above requested {}",
                    block.achieved_alpha, request.alpha
                ));
            }
            let expected = match workload {
                Workload::CacheHot => matches!(block.source, BlockSource::CacheHit { .. }),
                Workload::RmqLarge => matches!(block.source, BlockSource::WarmStarted { .. }),
                Workload::TpchDp | Workload::MixedOpen => true,
            };
            if !expected {
                self.violation(format!(
                    "request {index} block {b}: unexpected source {:?} for {}",
                    block.source,
                    workload.name()
                ));
            }
        }
        if audited && !self.served.contains_key(&index) {
            let fronts = response
                .blocks
                .iter()
                .map(|block| {
                    let costs = block.frontier.iter().map(|e| e.cost).collect();
                    (costs, auditable_alpha(block))
                })
                .collect();
            self.served.insert(index, fronts);
        }
    }
}

/// The outcome of one measured phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Completed measured requests.
    pub records: Vec<Record>,
    /// Aggregates and check results.
    pub tally: Tally,
    /// The measured window: the phase length, or less when the request
    /// cap or a fresh stream's end stopped the load early.
    pub window: Duration,
    /// Open loop only: how late each submit ran against its schedule, ms.
    pub lags_ms: Vec<f64>,
}

/// How one measured phase is driven.
#[derive(Debug, Clone, Copy)]
pub struct Drive {
    /// Length of the phase.
    pub run_for: Duration,
    /// Most stream positions to submit.
    pub cap: usize,
    /// Keep per-response samples for the per-layer split.
    pub detailed: bool,
}

/// Drives the workload's measured phase.
pub fn drive(
    service: &OptimizationService,
    workload: Workload,
    inputs: &Inputs,
    how: Drive,
) -> Phase {
    if inputs.due.is_empty() {
        closed_loop(service, workload, inputs, how)
    } else {
        open_loop(service, workload, inputs, how)
    }
}

fn micros(d: Duration) -> f32 {
    #[allow(clippy::cast_possible_truncation)]
    let us = (d.as_secs_f64() * 1e6) as f32;
    us
}

fn closed_loop(
    service: &OptimizationService,
    workload: Workload,
    inputs: &Inputs,
    Drive {
        run_for,
        cap,
        detailed,
    }: Drive,
) -> Phase {
    let next = Mutex::new(0usize);
    let audited: Vec<u32> = inputs.audited.clone();
    let start = Instant::now();
    let end = start + run_for;
    let client = || {
        let mut records = Vec::with_capacity(RECORD_RESERVE.min(cap));
        let mut tally = Tally::new(detailed);
        let mut early = false;
        while Instant::now() < end {
            let position = {
                let mut next = next
                    .lock()
                    .expect("no load thread panics holding the counter");
                let position = *next;
                *next += 1;
                position
            };
            let Some((index, submitted)) = inputs.submission(position).filter(|_| position < cap)
            else {
                early = true;
                break;
            };
            let request = &inputs.requests[index as usize];
            let position = u32::try_from(position).expect("streams stay below u32::MAX");
            let sent = Instant::now();
            let result = service.submit(submitted).and_then(Ticket::wait);
            let done = Instant::now();
            tally.attempted += 1;
            match result {
                Ok(response) => {
                    tally.check(
                        workload,
                        position,
                        index,
                        request,
                        &response,
                        audited.binary_search(&index).is_ok(),
                    );
                    records.push(Record {
                        latency_us: micros(done - sent),
                        #[allow(clippy::cast_possible_truncation)]
                        done_at_s: (done - start).as_secs_f64() as f32,
                    });
                }
                Err(error) => tally.fail(workload, index, &error),
            }
        }
        (records, tally, early)
    };
    let parts: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS).map(|_| s.spawn(client)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        window: run_for,
        ..Phase::default()
    };
    let mut stopped_early = false;
    for (records, tally, early) in parts {
        // The first part's reservation takes the rest without reallocating.
        if phase.records.is_empty() {
            phase.records = records;
        } else {
            phase.records.extend(records);
        }
        phase.tally.merge(tally);
        stopped_early |= early;
    }
    if stopped_early {
        // The load ended before the clock did: measure over the time the
        // last request took to complete.
        let last = phase
            .records
            .iter()
            .map(|r| r.done_at_s)
            .fold(0.0f32, f32::max);
        phase.window = run_for.min(Duration::from_secs_f64(f64::from(last)));
    }
    phase
}

fn open_loop(
    service: &OptimizationService,
    workload: Workload,
    inputs: &Inputs,
    Drive {
        run_for,
        cap,
        detailed,
    }: Drive,
) -> Phase {
    type Submitted = (usize, Duration, Result<Ticket, ServiceError>);
    let (tx, rx) = mpsc::channel::<Submitted>();
    let start = Instant::now();
    let generator = move || {
        let mut lags_ms = Vec::new();
        for (position, due) in inputs.due.iter().enumerate().take(cap) {
            let at = start + *due;
            // Sleep to just short of the due time, then spin: a sleep alone
            // overshoots by tens of µs, which would swamp a cache hit's
            // latency measured from the due time.
            let wake = at.checked_sub(SPIN_BEFORE_DUE).unwrap_or(at);
            let now = Instant::now();
            if wake > now {
                std::thread::sleep(wake - now);
            }
            while Instant::now() < at {
                std::hint::spin_loop();
            }
            let lag = Instant::now().saturating_duration_since(at);
            lags_ms.push(lag.as_secs_f64() * 1e3);
            let (_, request) = inputs
                .submission(position)
                .expect("every due time has a request");
            let sent = tx.send((position, lag, service.submit(request)));
            sent.expect("the collector outlives the generator");
        }
        lags_ms
    };
    let collector = move || {
        let mut records = Vec::with_capacity(inputs.due.len().min(cap));
        let mut tally = Tally::new(detailed);
        for (position, lag, submitted) in rx {
            let index = inputs.stream[position];
            let request = &inputs.requests[index as usize];
            tally.attempted += 1;
            match submitted.and_then(Ticket::wait) {
                Ok(response) => {
                    tally.check(
                        workload,
                        u32::try_from(position).expect("streams stay below u32::MAX"),
                        index,
                        request,
                        &response,
                        inputs.audited.binary_search(&index).is_ok(),
                    );
                    // Measured from the due time, so a stalled generator
                    // counts against every request it delayed.
                    let latency = lag + response.latency();
                    records.push(Record {
                        latency_us: micros(latency),
                        #[allow(clippy::cast_possible_truncation)]
                        done_at_s: (inputs.due[position] + latency).as_secs_f64() as f32,
                    });
                }
                Err(error) => tally.fail(workload, index, &error),
            }
        }
        (records, tally)
    };
    let (lags_ms, (records, tally)) = std::thread::scope(|s| {
        let generator = s.spawn(generator);
        let collector = s.spawn(collector);
        (
            generator.join().expect("generator thread panicked"),
            collector.join().expect("collector thread panicked"),
        )
    });
    Phase {
        records,
        tally,
        window: run_for,
        lags_ms,
    }
}
