//! The four workloads and their seeded inputs.
//!
//! Everything a run submits is generated here from `--seed`, before the
//! service sees any of it: the same seed yields the same requests, the same
//! measured stream and the same audit sample. Pools are full factorials
//! (every query at every objective count and precision, every topology at
//! every size) and streams walk them in shuffled decks, so a run's request
//! mix is the same for every seed and only objectives, weights, bounds and
//! order vary — that is what keeps the end-to-end numbers comparable across
//! seeds.

use std::collections::BTreeMap;
use std::time::Duration;

use moqo_catalog::Catalog;
use moqo_core::{Algorithm, Optimizer};
use moqo_cost::{CostVector, Objective, ObjectiveSet};
use moqo_costmodel::CostModelParams;
use moqo_service::OptimizationRequest;
use moqo_tpch::testgen::min_cost_vector;
use moqo_tpch::{large_query_with, query, weighted_test_case, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::stats::{fnv, FNV_OFFSET};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over a warmed pool: every measured request is a cache hit.
    CacheHot,
    /// Closed loop over fresh paper test cases: the DP runs on every block.
    TpchDp,
    /// Closed loop over large join graphs: warm-started anytime search.
    RmqLarge,
    /// Open loop mixing the three at a fixed Poisson rate, with deadlines.
    MixedOpen,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::CacheHot,
        Workload::TpchDp,
        Workload::RmqLarge,
        Workload::MixedOpen,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CacheHot => "cache_hot",
            Workload::TpchDp => "tpch_dp",
            Workload::RmqLarge => "rmq_large",
            Workload::MixedOpen => "mixed_open",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Plan-cache capacity: `tpch_dp` streams far more fronts than a small
    /// cache holds, so eviction runs in steady state; the other workloads'
    /// working sets fit, so their hot entries stay resident.
    pub fn cache_capacity(self) -> usize {
        match self {
            Workload::TpchDp => 256,
            _ => 1024,
        }
    }

    /// Events each flight-recorder ring holds in a traced run: enough for
    /// every event of the traced phase, so none is overwritten. Only the
    /// cache-hit stream completes enough requests to need the large ring.
    pub fn trace_ring_capacity(self) -> usize {
        match self {
            Workload::CacheHot => 1 << 20,
            _ => 1 << 16,
        }
    }
}

/// Arrival rate of the open loop, requests per second.
const OPEN_LOOP_RATE: f64 = 200.0;

/// Deadline every open-loop request carries.
const OPEN_LOOP_DEADLINE: Duration = Duration::from_secs(2);

/// Approximation factors requested from the DP schemes.
const ALPHAS: [f64; 2] = [1.5, 2.0];

/// Largest block the α-audit solves exactly.
const AUDIT_MAX_RELATIONS: usize = 4;

/// Input sizes; `--smoke` shrinks them so a run finishes in seconds even in
/// a debug build.
#[derive(Debug, Clone)]
pub struct Scale {
    /// TPC-H query numbers in the DP pools.
    pub queries: Vec<u8>,
    /// Objective counts drawn per case.
    pub objective_counts: Vec<usize>,
    /// Relation counts of the large join graphs.
    pub rmq_tables: Vec<usize>,
    /// RMQ sample budget of each large-graph request.
    pub rmq_samples: u64,
    /// Requests whose served fronts are audited against a reference.
    pub audited: usize,
}

impl Scale {
    /// The benchmark's sizes. Q8 is left out: its 8-relation block takes
    /// seconds per request at six or more objectives.
    pub fn full() -> Self {
        Scale {
            queries: (1..=22).filter(|&q| q != 8).collect(),
            objective_counts: vec![3, 6, 9],
            rmq_tables: vec![12, 16, 20],
            rmq_samples: 1000,
            audited: 16,
        }
    }

    /// Small queries and budgets for smoke runs and unit tests.
    pub fn smoke() -> Self {
        Scale {
            queries: vec![1, 3, 4, 12, 14, 19],
            objective_counts: vec![3, 6],
            rmq_tables: vec![6],
            rmq_samples: 100,
            audited: 4,
        }
    }
}

/// Everything one run submits.
#[derive(Debug)]
pub struct Inputs {
    /// Every distinct request of the run; the lists below index into it.
    pub requests: Vec<OptimizationRequest>,
    /// Requests submitted before measuring, to fill the cache.
    pub warmup: Vec<u32>,
    /// The measured stream: request index of the i-th measured request.
    /// Cyclic streams (pools) repeat; fresh streams end.
    pub stream: Vec<u32>,
    /// Whether the stream repeats once exhausted.
    pub cyclic: bool,
    /// Open loop only: when each stream entry is due, from the start of
    /// the measured phase.
    pub due: Vec<Duration>,
    /// Requests whose served fronts are checked against a reference.
    pub audited: Vec<u32>,
    /// Deadline of every measured submission (the open loop). Warm-up
    /// submissions carry none: they run back to back before measuring, and
    /// the cache key does not depend on the deadline.
    deadline: Option<Duration>,
    /// The run's seed; hinted anytime-search requests draw their search
    /// seed from it and their stream position.
    seed: u64,
}

impl Inputs {
    /// Generates a workload's inputs for a measured phase of `seconds`.
    pub fn generate(
        workload: Workload,
        seed: u64,
        seconds: f64,
        catalog: &Catalog,
        scale: &Scale,
    ) -> Self {
        // Independent sub-streams per component, so changing one
        // component's draws never reshuffles another's.
        let rng =
            |salt: u64| StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut audit_rng = rng(1);
        match workload {
            Workload::CacheHot => {
                let requests = hot_pool(&mut rng(2), catalog, scale);
                let all: Vec<u32> = index_range(0, requests.len());
                Inputs {
                    stream: decks(&mut rng(3), requests.len(), 64),
                    warmup: heaviest_first(&requests, all.clone()),
                    cyclic: true,
                    due: Vec::new(),
                    audited: audit_sample(&mut audit_rng, &requests, &all, scale.audited),
                    deadline: None,
                    requests,
                    seed,
                }
            }
            Workload::TpchDp => {
                // Sized well past the fastest plausible rate, so the stream
                // never runs dry inside the measured phase.
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let count = (seconds * 400.0).ceil() as usize + 64;
                let requests = FreshCases::new(catalog, scale).draw(&mut rng(4), count);
                let first_deck: Vec<u32> = index_range(0, scale.deck_len());
                Inputs {
                    stream: index_range(0, requests.len()),
                    warmup: Vec::new(),
                    cyclic: false,
                    due: Vec::new(),
                    audited: audit_sample(&mut audit_rng, &requests, &first_deck, scale.audited),
                    deadline: None,
                    requests,
                    seed,
                }
            }
            Workload::RmqLarge => {
                let requests = rmq_pool(catalog, scale);
                let all: Vec<u32> = index_range(0, requests.len());
                Inputs {
                    stream: decks(&mut rng(6), requests.len(), 64),
                    warmup: heaviest_first(&requests, all.clone()),
                    cyclic: true,
                    due: Vec::new(),
                    audited: all,
                    deadline: None,
                    requests,
                    seed,
                }
            }
            Workload::MixedOpen => {
                mixed_inputs(seed, &rng, &mut audit_rng, seconds, catalog, scale)
            }
        }
    }

    /// The request index at measured position `i`, or `None` past the end
    /// of a fresh stream.
    pub fn at(&self, i: usize) -> Option<u32> {
        if self.cyclic {
            Some(self.stream[i % self.stream.len()])
        } else {
            self.stream.get(i).copied()
        }
    }

    /// The request to submit at measured position `i`: a copy of its
    /// request under the measured deadline, where a hinted anytime search
    /// gets a search seed of its own drawn from the run seed and the
    /// position. Every large-graph request therefore runs a distinct search
    /// from the same cached front, and quality is averaged over many
    /// searches rather than a dozen.
    pub fn submission(&self, i: usize) -> Option<(u32, OptimizationRequest)> {
        let index = self.at(i)?;
        let mut request = self.requests[index as usize].clone();
        request.deadline = self.deadline;
        if let Some(Algorithm::Rmq {
            samples, threads, ..
        }) = request.hint
        {
            request.hint = Some(Algorithm::Rmq {
                samples,
                seed: fnv(fnv(FNV_OFFSET, self.seed), i as u64),
                threads,
            });
        }
        Some((index, request))
    }

    /// Deterministic digest of every generated input: the seed-stability
    /// check of the unit tests.
    pub fn digest(&self) -> u64 {
        let mut acc = FNV_OFFSET;
        for request in &self.requests {
            for graph in &request.query.blocks {
                acc = fnv(acc, graph.signature().0);
            }
            acc = fnv(acc, request.preference.signature().0);
            acc = fnv(acc, request.alpha.to_bits());
            acc = fnv(acc, u64::from(request.hint.is_some()));
        }
        for list in [&self.warmup, &self.stream, &self.audited] {
            acc = fnv(acc, list.len() as u64);
            for &i in list.iter() {
                acc = fnv(acc, u64::from(i));
            }
        }
        for due in &self.due {
            acc = fnv(acc, due.as_nanos() as u64);
        }
        acc = fnv(acc, self.deadline.map_or(0, |d| d.as_nanos() as u64));
        for i in 0..64 {
            if let Some((_, request)) = self.submission(i) {
                if let Some(Algorithm::Rmq { seed, .. }) = request.hint {
                    acc = fnv(acc, seed);
                }
            }
        }
        acc
    }
}

impl Scale {
    /// Requests per deck of fresh DP cases: one per query, objective
    /// count and α.
    fn deck_len(&self) -> usize {
        self.queries.len() * self.objective_counts.len() * ALPHAS.len()
    }
}

fn index_range(start: usize, end: usize) -> Vec<u32> {
    (start..end)
        .map(|i| u32::try_from(i).expect("pools stay far below u32::MAX"))
        .collect()
}

/// `count` consecutive shuffled permutations of `0..len`.
fn decks(rng: &mut StdRng, len: usize, count: usize) -> Vec<u32> {
    let mut deck = index_range(0, len);
    let mut stream = Vec::with_capacity(len * count);
    for _ in 0..count {
        deck.shuffle(rng);
        stream.extend_from_slice(&deck);
    }
    stream
}

/// The `cache_hot` pool: every query × objective count × α, each with
/// freshly drawn objectives and weights.
fn hot_pool(rng: &mut StdRng, catalog: &Catalog, scale: &Scale) -> Vec<OptimizationRequest> {
    let mut pool = Vec::new();
    for &q in &scale.queries {
        let built = query(catalog, q);
        for &k in &scale.objective_counts {
            for alpha in ALPHAS {
                let case = weighted_test_case(rng, q, k);
                pool.push(OptimizationRequest::new(
                    built.clone(),
                    case.preference,
                    alpha,
                ));
            }
        }
    }
    pool
}

/// Seed of the large-graph pool's preferences and warm-up searches.
const RMQ_POOL_SEED: u64 = 0x5EED_1A46;

/// The `rmq_large` pool: every topology × size, each hinted onto the
/// anytime search. Objective counts rotate so every size and every
/// topology sees each count. The preferences and the warm-up searches are
/// the same for every run seed: a single search's outcome varies by
/// orders of magnitude between preferences, so a dozen seeded preferences
/// would make plan quality differ more between seeds than any change to the
/// search. The run seed varies the order and every measured search instead
/// (see [`Inputs::submission`]).
fn rmq_pool(catalog: &Catalog, scale: &Scale) -> Vec<OptimizationRequest> {
    let rng = &mut StdRng::seed_from_u64(RMQ_POOL_SEED);
    let counts = [3, 6, 9];
    let hint = Algorithm::Rmq {
        samples: scale.rmq_samples,
        seed: RMQ_POOL_SEED,
        threads: 1,
    };
    let mut pool = Vec::new();
    for (t, topology) in Topology::ALL.into_iter().enumerate() {
        for (s, &n) in scale.rmq_tables.iter().enumerate() {
            let case = weighted_test_case(rng, 1, counts[(t + s) % counts.len()]);
            pool.push(
                OptimizationRequest::new(
                    large_query_with(catalog, n, topology),
                    case.preference,
                    2.0,
                )
                .with_hint(hint),
            );
        }
    }
    pool
}

/// Share of fresh cases that carry bounds (the IRA path).
const BOUNDED_SHARE: f64 = 0.1;

/// Largest block a bounded case may have. Past three relations the IRA's
/// refinement can run for minutes on some bounds (it never stops refining
/// when no plan certifies), which would wedge a worker with no deadline.
const BOUNDED_MAX_RELATIONS: usize = 3;

/// Generator of fresh paper test cases (§8): random objectives and weights,
/// and for one case in ten 1–3 bounds drawn as in `bounded_test_case` —
/// uniform over a bounded domain, else the query's minimal value × U[1, 2).
/// The per-query minima are computed once up front instead of once per
/// case.
struct FreshCases {
    /// Query number, query, and its minima when it may carry bounds.
    queries: Vec<(u8, moqo_catalog::Query, Option<CostVector>)>,
    objective_counts: Vec<usize>,
    /// Chance that a case of a boundable query is bounded, so that
    /// `BOUNDED_SHARE` of all cases are.
    bounded_probability: f64,
}

impl FreshCases {
    fn new(catalog: &Catalog, scale: &Scale) -> Self {
        let params = CostModelParams::default();
        let queries: Vec<_> = scale
            .queries
            .iter()
            .map(|&q| {
                let built = query(catalog, q);
                let minima = (built.max_block_size() <= BOUNDED_MAX_RELATIONS)
                    .then(|| min_cost_vector(catalog, &params, &built, ObjectiveSet::all()));
                (q, built, minima)
            })
            .collect();
        let boundable = queries.iter().filter(|(_, _, m)| m.is_some()).count();
        #[allow(clippy::cast_precision_loss)]
        let bounded_probability = BOUNDED_SHARE * queries.len() as f64 / boundable.max(1) as f64;
        FreshCases {
            queries,
            objective_counts: scale.objective_counts.clone(),
            bounded_probability,
        }
    }

    /// `count` cases in shuffled decks of one case per query × objective
    /// count × α. The deck fixes how often each (query, count, α) occurs,
    /// which is what sets the optimizer's cost; the seed varies the order,
    /// the objectives, the weights and the bounds.
    fn draw(&self, rng: &mut StdRng, count: usize) -> Vec<OptimizationRequest> {
        let mut deck: Vec<(usize, usize, f64)> = (0..self.queries.len())
            .flat_map(|q| {
                self.objective_counts
                    .iter()
                    .flat_map(move |&k| ALPHAS.map(|alpha| (q, k, alpha)))
            })
            .collect();
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            deck.shuffle(rng);
            for &(q, k, alpha) in deck.iter().take(count - out.len()) {
                let (query_no, built, minima) = &self.queries[q];
                let mut case = weighted_test_case(rng, *query_no, k);
                let bounded = rng.gen_range(0.0..1.0) < self.bounded_probability;
                if let (true, Some(minima)) = (bounded, minima) {
                    let mut selected: Vec<Objective> = case.preference.objectives.iter().collect();
                    selected.shuffle(rng);
                    let n_bounds = rng.gen_range(1..=3usize).min(k);
                    for &o in selected.iter().take(n_bounds) {
                        let bound = if o.has_bounded_domain() {
                            rng.gen_range(0.0..=1.0)
                        } else {
                            minima.get(o) * rng.gen_range(1.0..2.0)
                        };
                        case.preference.bounds.set(o, bound);
                    }
                }
                out.push(OptimizationRequest::new(
                    built.clone(),
                    case.preference,
                    alpha,
                ));
            }
        }
        out
    }
}

/// `mixed_open`: Poisson arrivals over the measured phase; 80% drawn from
/// the hot pool, 15% fresh DP cases, 5% from the large-graph pool, every
/// measured request under the open-loop deadline. The fresh cases come
/// from queries whose blocks have at most four relations: with the
/// 0.3–0.6 s blocks of the six-relation queries, both workers were often
/// busy at once and the tail latency swung by 35–40% between runs with the
/// machine's speed.
fn mixed_inputs(
    seed: u64,
    rng: &dyn Fn(u64) -> StdRng,
    audit_rng: &mut StdRng,
    seconds: f64,
    catalog: &Catalog,
    scale: &Scale,
) -> Inputs {
    let hot = hot_pool(&mut rng(7), catalog, scale);
    let rmq = rmq_pool(catalog, scale);
    let mut arrivals = rng(9);
    let mut hot_order = decks(&mut rng(10), hot.len(), 64).into_iter().cycle();
    let mut rmq_order = decks(&mut rng(11), rmq.len(), 64).into_iter().cycle();
    let rmq_base = hot.len();
    let fresh_base = hot.len() + rmq.len();
    let (mut stream, mut due) = (Vec::new(), Vec::new());
    let mut fresh = 0u32;
    let mut at = 0.0f64;
    loop {
        // Exponential inter-arrival gaps: 1 − U lies in (0, 1].
        at += -(1.0 - arrivals.gen_range(0.0..1.0f64)).ln() / OPEN_LOOP_RATE;
        if at >= seconds {
            break;
        }
        let kind: f64 = arrivals.gen_range(0.0..1.0);
        let index = if kind < 0.80 {
            hot_order.next().expect("cycled")
        } else if kind < 0.95 {
            fresh += 1;
            u32::try_from(fresh_base).expect("small pool") + fresh - 1
        } else {
            u32::try_from(rmq_base).expect("small pool") + rmq_order.next().expect("cycled")
        };
        stream.push(index);
        due.push(Duration::from_secs_f64(at));
    }
    let small = Scale {
        queries: scale
            .queries
            .iter()
            .copied()
            .filter(|&q| query(catalog, q).max_block_size() <= AUDIT_MAX_RELATIONS)
            .collect(),
        ..scale.clone()
    };
    let fresh_cases = FreshCases::new(catalog, &small).draw(&mut rng(12), fresh as usize);
    let mut candidates = index_range(0, hot.len());
    candidates.extend(index_range(
        fresh_base,
        fresh_base + small.deck_len().min(fresh_cases.len()),
    ));
    let requests: Vec<OptimizationRequest> =
        hot.into_iter().chain(rmq).chain(fresh_cases).collect();
    Inputs {
        audited: audit_sample(audit_rng, &requests, &candidates, scale.audited),
        warmup: heaviest_first(&requests, index_range(0, fresh_base)),
        stream,
        cyclic: false,
        due,
        deadline: Some(OPEN_LOOP_DEADLINE),
        requests,
        seed,
    }
}

/// Warm-up order: largest blocks, most objectives and tightest α first.
/// Both workers start on the two most expensive optimizations together, so
/// set-up time and the memory peak of two concurrent optimizations do not
/// depend on which requests happen to overlap.
fn heaviest_first(requests: &[OptimizationRequest], mut warmup: Vec<u32>) -> Vec<u32> {
    warmup.sort_by_key(|&i| {
        let request = &requests[i as usize];
        (
            std::cmp::Reverse(request.query.max_block_size()),
            std::cmp::Reverse(request.preference.objectives.len()),
            request.alpha.to_bits(),
            i,
        )
    });
    warmup
}

/// A seeded sample of up to `count` candidates small enough for the exact
/// reference: every block has at most four relations.
fn audit_sample(
    rng: &mut StdRng,
    requests: &[OptimizationRequest],
    candidates: &[u32],
    count: usize,
) -> Vec<u32> {
    let mut eligible: Vec<u32> = candidates
        .iter()
        .copied()
        .filter(|&i| requests[i as usize].query.max_block_size() <= AUDIT_MAX_RELATIONS)
        .collect();
    eligible.shuffle(rng);
    eligible.truncate(count);
    eligible.sort_unstable();
    eligible
}

/// What an audited request is checked against.
#[derive(Debug)]
pub struct Reference {
    /// Per block, the exact (EXA) front's cost vectors; empty for
    /// anytime-search requests, which carry no α guarantee to audit.
    pub fronts: Vec<Vec<CostVector>>,
    /// Weighted cost of the reference plan, selected and combined across
    /// blocks exactly as the service does.
    pub weighted_cost: f64,
}

/// Sample budget of the reference run for an anytime-search request, as a
/// multiple of the request's own budget.
const RMQ_REFERENCE_FACTOR: u64 = 5;

/// Computes the reference for every audited request: a no-timeout EXA run
/// for DP requests, a cold anytime search with five times the sample
/// budget (and a fixed seed of its own) for hinted RMQ requests.
pub fn references(catalog: &Catalog, inputs: &Inputs) -> BTreeMap<u32, Reference> {
    let optimizer = Optimizer::new(catalog);
    inputs
        .audited
        .iter()
        .map(|&i| {
            let request = &inputs.requests[i as usize];
            let reference = match request.hint {
                Some(Algorithm::Rmq { samples, seed, .. }) => {
                    let algorithm = Algorithm::Rmq {
                        samples: samples * RMQ_REFERENCE_FACTOR,
                        seed: seed.wrapping_add(1),
                        threads: 1,
                    };
                    let result = optimizer.optimize(&request.query, &request.preference, algorithm);
                    Reference {
                        fronts: Vec::new(),
                        weighted_cost: result.weighted_cost,
                    }
                }
                _ => {
                    let result = optimizer.optimize(
                        &request.query,
                        &request.preference,
                        Algorithm::Exhaustive,
                    );
                    Reference {
                        fronts: result
                            .block_plans
                            .iter()
                            .map(|b| b.frontier_costs())
                            .collect(),
                        weighted_cost: result.weighted_cost,
                    }
                }
            };
            (i, reference)
        })
        .collect()
}
