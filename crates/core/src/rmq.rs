//! RMQ — the anytime **r**andomized **m**ulti-objective **q**uery optimizer.
//!
//! The deterministic schemes (EXA/RTA/IRA) enumerate the full table-subset
//! lattice, which becomes infeasible beyond ~10 relations (paper Figure 7).
//! Following the approach of Trummer & Koch's follow-up work on fast
//! randomized multi-objective query optimization (arXiv:1603.00400), RMQ
//! trades the formal `α_U` guarantee for scalability: it *samples* complete
//! join trees and improves them by local plan transformations, maintaining
//! an incumbent (approximate) Pareto front in a [`PlanSet`] at all times —
//! an *anytime* algorithm that can be stopped after any iteration and still
//! return the best front discovered so far.
//!
//! The search runs a population of **walkers** — *fully independent* local
//! searches over the join-tree transformation neighbourhood, which is what
//! makes the population embarrassingly parallel. Each walker owns a private
//! [`PlanArena`], local front and RNG (seeded from the master seed and its
//! walker index), and descends its own random *scalarization* of the
//! selected objectives: the first walkers take the unit directions, so
//! every frontier extreme has a dedicated hunter; the rest take random
//! mixtures, normalized by the walker's first sampled cost so objectives of
//! wildly different magnitude contribute comparably. One iteration advances
//! one walker by either
//!
//! 1. **restarting** it on a fresh join tree sampled by a random walk over
//!    the join graph: start from one component per base relation (random
//!    scan operator), repeatedly join two random *connected* components
//!    with a random applicable join operator (falling back to Cartesian
//!    nested-loop products only when no connected pair remains — the same
//!    Postgres heuristic the DP honours),
//! 2. **jumping** it onto the local-front member that is best under the
//!    walker's own scalarization (exploitation of its elite set), or
//! 3. **mutating** its current tree with one random transformation — join
//!    commutativity, join associativity (left/right rotation), a
//!    join-operator swap, a scan-operator swap, or a coordinated rewrite
//!    towards a pipelined index-nested-loop join — re-costing the result
//!    bottom-up. The walker accepts the move when its scalarized cost does
//!    not increase, plus half of the non-dominated tradeoff moves, so it
//!    can cross valleys of its own scalarization while still converging
//!    towards its corner of the tradeoff space.
//!
//! The sample budget is dealt to the [`WALKERS`] walkers round-robin
//! (global iteration `i` belongs to walker `i mod W`), walkers advance in
//! short interleaved slices (so a wall-clock deadline starves no
//! scalarization direction) — sharded across [`RmqConfig::threads`] OS
//! threads via `std::thread::scope` — and the local fronts are merged in
//! walker-index order, re-rooting the surviving plans (and only those) into
//! one result arena ([`PlanArena::adopt`]). Because walkers
//! never communicate, the merged front is **byte-identical for a fixed seed
//! regardless of thread count**; threads only change wall-clock time. The
//! iteration budget and the wall-clock [`Deadline`] jointly bound the run
//! (an expiring deadline trades determinism for punctuality, exactly like
//! the DP's quick-finish path).
//!
//! Every join a walker costs reads the block's split index (the DP's, see
//! [`crate::dp`]): the split's predicate, selectivity and width, and the
//! neighbour masks that decide which components random tree construction
//! may join without a Cartesian product. The convergence trace is opt-in
//! ([`RmqConfig::convergence_stride`]): without one, walkers take no front
//! snapshots and the merge rebuilds nothing.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use moqo_cost::{CostVector, ObjectiveSet, Preference, Weights};
use moqo_costmodel::{CostModel, JoinKey};
use moqo_plan::{JoinOp, JoinTree, PlanArena, PlanId, PlanProps, ScanOp};

use crate::budget::Deadline;
use crate::dp::{DpStats, ScanOptions, SplitIndex};
use crate::metrics::ConvergencePoint;
use crate::pareto::{PlanEntry, PlanSet, PruneMode, PruneStrategy};
use crate::select::select_best;

/// Number of independent local searches every run deals its budget to.
/// Walker `w` warm-starts from `warm_start[w mod len]`, so a warm start
/// reads at most this many trees.
pub const WALKERS: usize = 8;

/// Per-iteration probability of restarting a walker on a fresh random join
/// tree (exploration).
const RESTART_PROBABILITY: f64 = 0.05;

/// Per-iteration probability of jumping a walker onto the member of its
/// local front that is best under the walker's own scalarization direction
/// (exploitation of the elite set).
const ELITE_PROBABILITY: f64 = 0.1;

/// Configuration of one RMQ run.
#[derive(Debug, Clone, Copy)]
pub struct RmqConfig {
    /// Iteration budget: total number of candidate plans to sample,
    /// dealt round-robin to the walker population.
    pub samples: u64,
    /// RNG seed; equal seeds yield bit-identical runs at any thread count.
    pub seed: u64,
    /// OS threads to shard the walker population over; `0` uses all
    /// available cores. Never affects the result, only wall-clock time.
    pub threads: usize,
    /// Record one [`ConvergencePoint`] every `convergence_stride`
    /// iterations, plus the final state; `0` records no trace. Tracing
    /// never changes the returned front.
    pub convergence_stride: u64,
    /// Store a snapshot of the front's cost vectors in every convergence
    /// point (needed for offline coverage analysis; off by default because
    /// snapshots are O(front) each).
    pub record_fronts: bool,
}

impl RmqConfig {
    /// A single-threaded configuration that records no convergence trace.
    #[must_use]
    pub fn new(samples: u64, seed: u64) -> Self {
        RmqConfig {
            samples,
            seed,
            threads: 1,
            convergence_stride: 0,
            record_fronts: false,
        }
    }

    /// Shards the walker population over `threads` OS threads (builder
    /// style); `0` uses all available cores.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Result of one RMQ run on a single query block.
#[derive(Debug)]
pub struct RmqResult {
    /// Arena owning the merged front's plans (walker arenas are private and
    /// dropped after the merge; only surviving plans are re-rooted here).
    pub arena: PlanArena,
    /// The incumbent Pareto front at stop time (sorted by the first
    /// selected objective).
    pub final_plans: Vec<PlanEntry>,
    /// DP-style counters: `considered_plans` counts sampled candidates,
    /// `peak_stored_plans` sums the walker-local front peaks (total
    /// concurrently resident stored plans), `stored_plans` is the merged
    /// front and `max_group_size` is the largest plan set the run held (a
    /// walker's peak or the merged front).
    pub stats: DpStats,
    /// Convergence trace, one point per stride plus the final state; empty
    /// when [`RmqConfig::convergence_stride`] is 0. Point `g` reconstructs
    /// the merged front after `g` global iterations of the round-robin
    /// schedule.
    pub convergence: Vec<ConvergencePoint>,
    /// Iterations actually executed across all walkers (may fall short of
    /// the budget on deadline expiry).
    pub iterations: u64,
}

/// Runs the anytime randomized optimizer on one query block.
///
/// Always returns at least one plan: every walker seeds itself with one
/// sampled tree before its iteration loop and random tree construction
/// cannot fail (a nested-loop join applies to every component pair).
///
/// # Panics
///
/// Panics if the preference selects no objectives or the block is empty.
#[must_use]
pub fn rmq(
    model: &CostModel<'_>,
    preference: &Preference,
    config: &RmqConfig,
    deadline: &Deadline,
) -> RmqResult {
    rmq_warm(model, preference, config, deadline, &[])
}

/// [`rmq`] with a warm start: walker `w` seeds itself from
/// `warm_start[w mod |warm_start|]` (instead of a random tree) when the
/// tree still costs under this model — the serving layer's plan cache
/// hands fronts computed for the same block back to the search, so the
/// walk begins at yesterday's frontier instead of from scratch. Only the
/// first [`WALKERS`] trees are ever read. Trees that fail to cost (or an
/// empty slice) fall back to random seeding. Results remain fully
/// deterministic in `(seed, warm_start, budget)` at any thread count.
///
/// # Panics
///
/// Panics if the preference selects no objectives, the block is empty, or
/// a warm tree references relations outside the block.
#[must_use]
pub fn rmq_warm(
    model: &CostModel<'_>,
    preference: &Preference,
    config: &RmqConfig,
    deadline: &Deadline,
    warm_start: &[JoinTree],
) -> RmqResult {
    let n = model.graph.n_rels();
    assert!(n >= 1, "query block must contain at least one relation");
    assert!(
        !preference.objectives.is_empty(),
        "preference must select at least one objective"
    );

    let objectives = preference.objectives;
    // Same soundness rule as the DP schemes: props-aware fronts whenever
    // sampling lets cardinality leak past the cost vector (the offer path,
    // the cross-walker merge and the trace reconstruction must all agree,
    // or the merged front could discard a walker's props-distinct plans).
    let strategy =
        PruneStrategy::exact().with_mode(PruneMode::auto(model.params.enable_sampling, objectives));
    let index = SplitIndex::new(model);
    let scan_opts = ScanOptions::new(model);
    let w64 = WALKERS as u64;
    // The snapshot schedule is materialized up front, so cap the trace at
    // MAX_TRACE_POINTS by coarsening the stride: anytime configs pair
    // `samples = u64::MAX` with a wall-clock deadline, and an explicit
    // stride must not make the schedule allocation proportional to the
    // (astronomical) nominal budget.
    const MAX_TRACE_POINTS: u64 = 4096;
    let traced = config.convergence_stride > 0;
    let trace_points: Vec<u64> = if traced {
        let stride = config
            .convergence_stride
            .max(config.samples.div_ceil(MAX_TRACE_POINTS));
        (1..=config.samples / stride).map(|j| j * stride).collect()
    } else {
        Vec::new()
    };

    // Round-robin schedule: global iteration i (0-based) belongs to walker
    // i mod W, so walker w's budget and its local progress after g global
    // iterations are both closed-form (saturating: a budget of u64::MAX
    // must not overflow the per-walker shares).
    let local_count = |g: u64, w: usize| g.saturating_sub(w as u64).div_ceil(w64);
    let walker_inputs: Vec<(u64, u64, Vec<u64>)> = (0..WALKERS)
        .map(|w| {
            (
                local_count(config.samples, w),
                walker_seed(config.seed, w as u64),
                trace_points.iter().map(|&g| local_count(g, w)).collect(),
            )
        })
        .collect();

    let threads = effective_threads(config.threads);
    let runs: Vec<WalkerRun> = if threads <= 1 {
        run_walkers(
            model,
            &index,
            &scan_opts,
            objectives,
            0,
            &walker_inputs,
            warm_start,
            deadline,
        )
    } else {
        let remaining = deadline.remaining();
        let chunk_size = WALKERS.div_ceil(threads);
        std::thread::scope(|s| {
            let handles: Vec<_> = walker_inputs
                .chunks(chunk_size)
                .enumerate()
                .map(|(ci, chunk)| {
                    let index = &index;
                    let scan_opts = &scan_opts;
                    let cancel = deadline.cancel_flag();
                    s.spawn(move || {
                        // Walkers cannot share the deadline (its amortization
                        // cells are not `Sync`); each thread re-derives one
                        // from the remaining budget and the same cancel flag.
                        let local_deadline = Deadline::cancellable(remaining, cancel);
                        run_walkers(
                            model,
                            index,
                            scan_opts,
                            objectives,
                            ci * chunk_size,
                            chunk,
                            warm_start,
                            &local_deadline,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("walker threads do not panic"))
                .collect()
        })
    };

    // Deterministic merge in walker-index order, on cost vectors first: the
    // survivors are only known once every walker front has been folded in,
    // and only they are re-rooted into the result arena — so it holds
    // exactly the final front's trees, nothing orphaned. Candidate indices
    // stand in as plan ids during the merge.
    let mut candidates: Vec<(usize, PlanEntry)> = Vec::new();
    let mut front = PlanSet::new();
    for (ri, run) in runs.iter().enumerate() {
        for e in run.front.iter() {
            if front.would_reject(&e.cost, &e.props, &strategy, objectives) {
                continue;
            }
            let placeholder = PlanId(u32::try_from(candidates.len()).expect("front fits in u32"));
            candidates.push((ri, *e));
            front.insert_unrejected(
                PlanEntry {
                    plan: placeholder,
                    ..*e
                },
                &strategy,
                objectives,
            );
        }
    }
    let mut arena = PlanArena::new();
    let final_plans: Vec<PlanEntry> = front
        .iter()
        .map(|e| {
            let (ri, orig) = candidates[e.plan.0 as usize];
            PlanEntry {
                plan: arena.adopt(&runs[ri].arena, orig.plan),
                ..orig
            }
        })
        .collect();

    let iterations: u64 = runs.iter().map(|r| r.iterations).sum();

    // Reconstruct the global convergence trace: the merged front after g
    // global iterations is the walker-order merge of each local front after
    // its share of the schedule.
    let mut convergence = Vec::new();
    for (j, &g) in trace_points.iter().enumerate() {
        if g > iterations {
            break;
        }
        let mut merged = PlanSet::new();
        for run in &runs {
            for e in &run.snapshots[j] {
                merged.prune_insert(*e, &strategy, objectives);
            }
        }
        convergence.push(trace_point(g, &merged, preference, config.record_fronts));
    }
    if traced && convergence.last().is_none_or(|p| p.iteration != iterations) {
        convergence.push(trace_point(
            iterations,
            &front,
            preference,
            config.record_fronts,
        ));
    }

    let peak_stored: usize = runs
        .iter()
        .map(|r| r.peak_front)
        .sum::<usize>()
        .max(front.len());
    // Probes and their scan steps: each walker's local front plus the
    // merged front.
    let frontier_scan_probes = runs.iter().map(|r| r.front.probes()).sum::<u64>() + front.probes();
    let frontier_scan_steps =
        runs.iter().map(|r| r.front.scan_steps()).sum::<u64>() + front.scan_steps();
    let stats = DpStats {
        considered_plans: runs.iter().map(|r| r.considered).sum(),
        stored_plans: front.len(),
        peak_stored_plans: peak_stored,
        peak_memory_bytes: peak_stored * DpStats::bytes_per_stored_plan(),
        pareto_last_complete: front.len(),
        max_group_size: runs
            .iter()
            .map(|r| r.peak_front)
            .max()
            .unwrap_or(0)
            .max(front.len()),
        frontier_scan_probes,
        frontier_scan_steps,
        timed_out: runs.iter().any(|r| r.timed_out),
    };

    debug_assert!(!final_plans.is_empty());
    RmqResult {
        arena,
        final_plans,
        stats,
        convergence,
        iterations,
    }
}

/// Everything one walker brings home: its private arena and front, local
/// counters, and the front snapshots for the global trace reconstruction.
struct WalkerRun {
    arena: PlanArena,
    front: PlanSet,
    considered: u64,
    peak_front: usize,
    iterations: u64,
    timed_out: bool,
    /// Front snapshots aligned with the walker's snapshot schedule.
    snapshots: Vec<Vec<PlanEntry>>,
}

/// Runs a contiguous chunk of walkers on one thread, interleaving their
/// iterations in short round-robin slices so a wall-clock deadline starves
/// no walker: every scalarization direction keeps advancing at roughly the
/// same rate until the clock (or its budget) stops it. Slicing cannot
/// affect budget-bound results — walkers share nothing, so any schedule
/// yields the same per-walker streams; only *where* an expiring deadline
/// lands is wall-clock dependent, as it always was.
#[allow(clippy::too_many_arguments)]
fn run_walkers(
    model: &CostModel<'_>,
    index: &SplitIndex,
    scan_opts: &ScanOptions,
    objectives: ObjectiveSet,
    first_index: usize,
    inputs: &[(u64, u64, Vec<u64>)],
    warm_start: &[JoinTree],
    deadline: &Deadline,
) -> Vec<WalkerRun> {
    /// Iterations one walker runs before yielding to the next in its chunk.
    const ITER_SLICE: u64 = 64;
    let mut states: Vec<WalkerState<'_>> = inputs
        .iter()
        .enumerate()
        .map(|(i, (budget, seed, snaps))| {
            let walker = first_index + i;
            let warm = if warm_start.is_empty() {
                None
            } else {
                Some(&warm_start[walker % warm_start.len()])
            };
            WalkerState::new(
                model, index, scan_opts, objectives, walker, *budget, *seed, snaps, warm,
            )
        })
        .collect();
    let mut target = 0u64;
    while states.iter().any(|s| !s.done()) {
        target = target.saturating_add(ITER_SLICE);
        for s in &mut states {
            s.advance_to(target, deadline);
        }
    }
    states.into_iter().map(WalkerState::finish).collect()
}

/// One independent local search, resumable in iteration slices.
/// Deterministic given (seed, budget): the RNG, arena and front are
/// private, so the interleaving schedule never shows in the results.
struct WalkerState<'a> {
    model: &'a CostModel<'a>,
    index: &'a SplitIndex,
    scan_opts: &'a ScanOptions,
    objectives: ObjectiveSet,
    budget: u64,
    snapshot_counts: &'a [u64],
    rng: StdRng,
    arena: PlanArena,
    front: PlanSet,
    strategy: PruneStrategy,
    considered: u64,
    peak_front: usize,
    snapshots: Vec<Vec<PlanEntry>>,
    scal: Weights,
    state: Component,
    iterations: u64,
    timed_out: bool,
    scratch: TreeScratch,
}

impl<'a> WalkerState<'a> {
    /// Seeds the walker (and thereby its front), so the anytime contract
    /// (non-empty result) holds even for a zero-sample budget or an
    /// already expired deadline. The first sampled cost normalizes the
    /// walker's scalarization: objectives of wildly different magnitudes
    /// then contribute comparably.
    #[allow(clippy::too_many_arguments)]
    fn new(
        model: &'a CostModel<'a>,
        index: &'a SplitIndex,
        scan_opts: &'a ScanOptions,
        objectives: ObjectiveSet,
        walker_index: usize,
        budget: u64,
        seed: u64,
        snapshot_counts: &'a [u64],
        warm: Option<&JoinTree>,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = TreeScratch::default();
        // A warm tree that no longer costs under this model falls back to
        // random seeding — the warm start is an accelerator, never a
        // correctness dependency.
        let (tree, cost, props) = warm
            .and_then(|t| cost_tree_with(model, index, t).map(|(c, p)| (t.clone(), c, p)))
            .unwrap_or_else(|| {
                sample_random_tree(model, index, scan_opts, &mut scratch, &mut rng)
                    .expect("a nested-loop plan always exists")
            });
        let scal = walker_scalarization(walker_index, objectives, &cost, &mut rng);
        let mut walker = WalkerState {
            model,
            index,
            scan_opts,
            objectives,
            budget,
            snapshot_counts,
            rng,
            arena: PlanArena::new(),
            front: PlanSet::new(),
            strategy: PruneStrategy::exact()
                .with_mode(PruneMode::auto(model.params.enable_sampling, objectives)),
            considered: 0,
            peak_front: 0,
            snapshots: Vec::with_capacity(snapshot_counts.len()),
            scal,
            state: Component { tree, cost, props },
            iterations: 0,
            timed_out: false,
            scratch,
        };
        let seeded = walker.state.tree.clone();
        walker.offer(&seeded, cost, props);
        walker.emit(0);
        walker
    }

    /// Offers a costed candidate to the local front. The rejection test
    /// runs before allocating arena nodes: rejected candidates (the vast
    /// majority) then leave no garbage behind, so arena growth is bounded
    /// by *accepted* plans, not the budget.
    fn offer(&mut self, tree: &JoinTree, cost: CostVector, props: PlanProps) {
        self.considered += 1;
        let strategy = self.strategy;
        if self
            .front
            .would_reject(&cost, &props, &strategy, self.objectives)
        {
            return;
        }
        let plan = self.arena.insert_tree(tree);
        self.front
            .insert_unrejected(PlanEntry { cost, props, plan }, &strategy, self.objectives);
        if self.front.len() > self.peak_front {
            self.peak_front = self.front.len();
        }
    }

    /// Pins every snapshot slot whose local count is ≤ `upto` to the
    /// current front (counts are nondecreasing, so this emits in schedule
    /// order).
    fn emit(&mut self, upto: u64) {
        while self.snapshots.len() < self.snapshot_counts.len()
            && self.snapshot_counts[self.snapshots.len()] <= upto
        {
            self.snapshots.push(self.front.iter().copied().collect());
        }
    }

    /// Whether this walker has nothing left to do.
    fn done(&self) -> bool {
        self.timed_out || self.iterations >= self.budget
    }

    /// Advances until the local iteration count reaches `target` (capped by
    /// the budget) or the deadline expires.
    fn advance_to(&mut self, target: u64, deadline: &Deadline) {
        let target = target.min(self.budget);
        while self.iterations < target && !self.timed_out {
            if deadline.expired() {
                self.timed_out = true;
                break;
            }
            self.iterations += 1;
            self.step();
            self.emit(self.iterations);
        }
        if self.done() {
            // Outstanding snapshot slots pin the front at exit (deadline
            // expiry short of the schedule); idempotent once drained.
            self.emit(u64::MAX);
        }
    }

    /// One iteration: restart, elite jump, or local mutation.
    fn step(&mut self) {
        let draw: f64 = self.rng.gen_range(0.0..1.0);
        if draw < RESTART_PROBABILITY {
            // Exploration: restart this walker on a fresh random tree.
            let (tree, cost, props) = sample_random_tree(
                self.model,
                self.index,
                self.scan_opts,
                &mut self.scratch,
                &mut self.rng,
            )
            .expect("a nested-loop plan always exists");
            self.offer(&tree, cost, props);
            self.state = Component { tree, cost, props };
        } else if draw < RESTART_PROBABILITY + ELITE_PROBABILITY {
            // Exploitation: jump onto the local-front member best under
            // this walker's own scalarization direction.
            let elite = self
                .front
                .iter()
                .min_by(|a, b| {
                    self.scal
                        .weighted_cost(&a.cost)
                        .partial_cmp(&self.scal.weighted_cost(&b.cost))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .copied();
            if let Some(elite) = elite {
                self.state = Component {
                    tree: self.arena.extract_tree(elite.plan),
                    cost: elite.cost,
                    props: elite.props,
                };
            }
            // A jump re-uses a stored plan; no candidate is sampled, so
            // `considered_plans` is not incremented.
        } else {
            // Local move: one random transformation of the walker's tree.
            match mutate_tree(
                self.model,
                self.index,
                self.scan_opts,
                &self.state.tree,
                &mut self.rng,
            ) {
                Some((tree, cost, props)) => {
                    self.offer(&tree, cost, props);
                    // Accept when the walker's scalarized cost does not
                    // increase (plateau moves keep the walk mobile); also
                    // accept a fraction of non-dominated tradeoff moves so
                    // the walk can cross valleys of its own scalarization.
                    let old = self.scal.weighted_cost(&self.state.cost);
                    let new = self.scal.weighted_cost(&cost);
                    let accept = new <= old
                        || (!moqo_cost::dominance::strictly_dominates(
                            &self.state.cost,
                            &cost,
                            self.objectives,
                        ) && self.rng.gen_range(0.0..1.0) < 0.5);
                    if accept {
                        self.state = Component { tree, cost, props };
                    }
                }
                None => {
                    // Un-costable transformation; still one budget sample.
                    self.considered += 1;
                }
            }
        }
    }

    /// Surrenders the walker's results.
    fn finish(self) -> WalkerRun {
        WalkerRun {
            arena: self.arena,
            front: self.front,
            considered: self.considered,
            peak_front: self.peak_front,
            iterations: self.iterations,
            timed_out: self.timed_out,
            snapshots: self.snapshots,
        }
    }
}

/// Derives walker `i`'s RNG seed from the master seed: SplitMix64 over the
/// golden-ratio sequence gives decorrelated per-walker streams that depend
/// only on (seed, index), never on scheduling.
fn walker_seed(master: u64, i: u64) -> u64 {
    let mut z = master.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Resolves the thread knob: `0` means all available cores; never more
/// threads than walkers.
fn effective_threads(requested: usize) -> usize {
    let t = if requested == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        requested
    };
    t.clamp(1, WALKERS)
}

fn trace_point(
    iteration: u64,
    front: &PlanSet,
    preference: &Preference,
    record_front: bool,
) -> ConvergencePoint {
    let entries: Vec<PlanEntry> = front.iter().copied().collect();
    let best_weighted = select_best(&entries, preference)
        .map_or(f64::INFINITY, |e| preference.weighted_cost(&e.cost));
    ConvergencePoint {
        iteration,
        front_size: entries.len(),
        best_weighted,
        front: if record_front {
            entries.iter().map(|e| e.cost).collect()
        } else {
            Vec::new()
        },
    }
}

/// One in-flight component of the random walk: a subtree plus its cost and
/// physical properties.
struct Component {
    tree: JoinTree,
    cost: CostVector,
    props: PlanProps,
}

/// The scalarization of walker `i`: walkers `0..l` take the unit directions
/// of the `l` selected objectives (dedicated extreme hunters), later
/// walkers take random mixtures. All directions are normalized by the
/// reference cost so each objective contributes comparably.
fn walker_scalarization(
    i: usize,
    objectives: ObjectiveSet,
    reference: &CostVector,
    rng: &mut StdRng,
) -> Weights {
    let objs: Vec<_> = objectives.iter().collect();
    let mut w = Weights::zero();
    for (k, &o) in objs.iter().enumerate() {
        let lambda = if i < objs.len() {
            f64::from(u8::from(k == i))
        } else {
            rng.gen_range(0.05..1.0)
        };
        let scale = reference.get(o).max(1e-9);
        w.set(o, lambda / scale);
    }
    w
}

/// Buffers random tree construction reuses across samples.
#[derive(Default)]
struct TreeScratch {
    /// Shuffle buffer for scan-operator draws (every relation's options are
    /// re-shuffled per sampled tree).
    scans: Vec<ScanOp>,
    /// Candidate component pairs of one construction round.
    pairs: Vec<(usize, usize)>,
}

/// Samples a complete random join tree by the random-walk construction and
/// costs it on the way up. Returns `None` only if some relation admits no
/// scan at all (impossible for well-formed catalogs).
fn sample_random_tree(
    model: &CostModel<'_>,
    index: &SplitIndex,
    scan_opts: &ScanOptions,
    scratch: &mut TreeScratch,
    rng: &mut StdRng,
) -> Option<(JoinTree, CostVector, PlanProps)> {
    let n = model.graph.n_rels();
    let mut components: Vec<Component> = Vec::with_capacity(n);
    for rel in 0..n {
        scratch.scans.clear();
        scratch.scans.extend_from_slice(scan_opts.for_rel(rel));
        scratch.scans.shuffle(rng);
        let (op, cost, props) = scratch
            .scans
            .iter()
            .find_map(|&op| model.scan_cost(rel, op).map(|(c, p)| (op, c, p)))?;
        components.push(Component {
            tree: JoinTree::scan(rel, op),
            cost,
            props,
        });
    }

    let pairs = &mut scratch.pairs;
    while components.len() > 1 {
        // Candidate pairs: connected ones if any exist (the Cartesian
        // heuristic), otherwise every pair.
        pairs.clear();
        for (i, a) in components.iter().enumerate() {
            let neighbours = index.neighbours(a.props.rels);
            for (j, b) in components.iter().enumerate() {
                if i != j && neighbours & b.props.rels != 0 {
                    pairs.push((i, j));
                }
            }
        }
        if pairs.is_empty() {
            for i in 0..components.len() {
                for j in 0..components.len() {
                    if i != j {
                        pairs.push((i, j));
                    }
                }
            }
        }
        pairs.shuffle(rng);

        let mut joined = None;
        'pairs: for &(i, j) in pairs.iter() {
            let mut ops = JoinOp::ALL;
            ops.shuffle(rng);
            let (left, right) = (&components[i], &components[j]);
            let split = index.split(left.props.rels, right.props.rels);
            let right_canonical = is_canonical_leaf(&right.tree, split.key.as_ref());
            for op in ops {
                if let Some((cost, props)) = model.join_cost(
                    op,
                    (&left.cost, &left.props),
                    (&right.cost, &right.props),
                    &split,
                    right_canonical,
                ) {
                    joined = Some((i, j, op, cost, props));
                    break 'pairs;
                }
            }
        }
        let (i, j, op, cost, props) = joined?;
        let (first, second) = (i.min(j), i.max(j));
        let right = components.swap_remove(second);
        let left = components.swap_remove(first);
        let (left, right) = if first == i {
            (left, right)
        } else {
            (right, left)
        };
        components.push(Component {
            tree: JoinTree::join(op, left.tree, right.tree),
            cost,
            props,
        });
    }

    let c = components.pop()?;
    Some((c.tree, c.cost, c.props))
}

/// Applies one random local transformation to a copy of `base` and re-costs
/// it. Returns `None` when the transformed tree cannot be costed
/// (inapplicable operator after the rewrite) or no transformation applied.
fn mutate_tree(
    model: &CostModel<'_>,
    index: &SplitIndex,
    scan_opts: &ScanOptions,
    base: &JoinTree,
    rng: &mut StdRng,
) -> Option<(JoinTree, CostVector, PlanProps)> {
    let mut tree = base.clone();
    let n_joins = tree.n_joins();
    let n_leaves = tree.n_leaves();

    // Try a handful of transformation draws: structural rewrites can be
    // inapplicable at the drawn position (e.g. rotating over a leaf).
    let mut transformed = false;
    for _ in 0..4 {
        let choice = rng.gen_range(0u32..6);
        transformed = match choice {
            0 if n_joins > 0 => tree.commute(rng.gen_range(0..n_joins)),
            1 if n_joins > 0 => tree.rotate_right(rng.gen_range(0..n_joins)),
            2 if n_joins > 0 => tree.rotate_left(rng.gen_range(0..n_joins)),
            3 if n_joins > 0 => {
                tree.set_join_op(rng.gen_range(0..n_joins), *JoinOp::ALL.choose(rng)?)
            }
            4 => {
                let leaf = rng.gen_range(0..n_leaves);
                let (rel, current) = tree.scan_at(leaf)?;
                let ops = scan_opts.for_rel(rel);
                let new_op = *ops.choose(rng)?;
                // Re-drawing the current operator would re-cost an
                // identical tree; treat it as a failed draw instead.
                new_op != current && tree.set_scan_op(leaf, new_op).is_some()
            }
            5 if n_joins > 0 => {
                // Coordinated rewrite towards a pipelined index-nested-loop
                // join: pick a join whose inner child is a leaf, switch the
                // leaf to the join key's canonical index scan and the join
                // to IdxNL in one step (the swaps rarely pay off applied
                // separately).
                let k = rng.gen_range(0..n_joins);
                match tree.join_at(k) {
                    Some(JoinTree::Join { left, right, .. }) => {
                        if let JoinTree::Scan { rel, .. } = &**right {
                            match index.split(left.rel_mask(), 1u32 << rel).key {
                                Some(key) if key.inner_indexed => {
                                    tree.make_index_nl(k, key.right_col)
                                }
                                _ => false,
                            }
                        } else {
                            false
                        }
                    }
                    _ => false,
                }
            }
            _ => false,
        };
        if transformed {
            break;
        }
    }
    if !transformed {
        return None;
    }
    let (cost, props) = cost_tree_with(model, index, &tree)?;
    Some((tree, cost, props))
}

/// Costs an owned join tree bottom-up. Returns `None` when any operator in
/// the tree is inapplicable (e.g. an index scan on an unindexed column or a
/// hash join over a predicate-free split).
#[must_use]
pub fn cost_tree(model: &CostModel<'_>, tree: &JoinTree) -> Option<(CostVector, PlanProps)> {
    cost_tree_with(model, &SplitIndex::new(model), tree)
}

/// [`cost_tree`] against a prebuilt split index — the walker hot path
/// re-costs a whole tree per mutation, so the per-run index is built once.
fn cost_tree_with(
    model: &CostModel<'_>,
    index: &SplitIndex,
    tree: &JoinTree,
) -> Option<(CostVector, PlanProps)> {
    match tree {
        JoinTree::Scan { rel, op } => model.scan_cost(*rel, *op),
        JoinTree::Join { op, left, right } => {
            let (lc, lp) = cost_tree_with(model, index, left)?;
            let (rc, rp) = cost_tree_with(model, index, right)?;
            let split = index.split(lp.rels, rp.rels);
            let right_canonical = is_canonical_leaf(right, split.key.as_ref());
            model.join_cost(*op, (&lc, &lp), (&rc, &rp), &split, right_canonical)
        }
    }
}

/// Whether `tree` is exactly the index scan on the join key's inner column
/// (precondition of index-nested-loop joins).
fn is_canonical_leaf(tree: &JoinTree, key: Option<&JoinKey>) -> bool {
    match (tree, key) {
        (
            JoinTree::Scan {
                rel,
                op: ScanOp::IndexScan { column },
            },
            Some(k),
        ) => *rel == k.right_rel && *column == k.right_col,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_catalog::{Catalog, ColumnStats, JoinGraph, JoinGraphBuilder, TableStats};
    use moqo_cost::{Objective, ObjectiveSet};
    use moqo_costmodel::CostModelParams;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn setup3() -> (CostModelParams, Catalog, JoinGraph) {
        let params = CostModelParams::default();
        let mut cat = Catalog::new();
        cat.add_table(
            TableStats::new("customer", 15_000.0, 179.0)
                .with_column(ColumnStats::new("c_custkey", 15_000.0).indexed()),
        );
        cat.add_table(
            TableStats::new("orders", 150_000.0, 121.0)
                .with_column(ColumnStats::new("o_orderkey", 150_000.0).indexed())
                .with_column(ColumnStats::new("o_custkey", 15_000.0).indexed()),
        );
        cat.add_table(
            TableStats::new("lineitem", 600_000.0, 129.0)
                .with_column(ColumnStats::new("l_orderkey", 150_000.0).indexed()),
        );
        let graph = JoinGraphBuilder::new(&cat)
            .rel("customer", 0.2)
            .rel("orders", 0.5)
            .rel("lineitem", 0.6)
            .join(("customer", "c_custkey"), ("orders", "o_custkey"))
            .join(("orders", "o_orderkey"), ("lineitem", "l_orderkey"))
            .build();
        (params, cat, graph)
    }

    fn pref() -> Preference {
        Preference::over(ObjectiveSet::from_objectives(&[
            Objective::TotalTime,
            Objective::BufferFootprint,
        ]))
        .weight(Objective::TotalTime, 1.0)
        .weight(Objective::BufferFootprint, 1e-6)
    }

    #[test]
    fn rmq_returns_full_plans_and_traces_convergence() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let config = RmqConfig {
            convergence_stride: 10,
            ..RmqConfig::new(200, 7)
        };
        let out = rmq(&model, &pref(), &config, &Deadline::unlimited());
        assert!(!out.final_plans.is_empty());
        for e in &out.final_plans {
            assert_eq!(e.props.rels, g.full_mask());
            assert_eq!(out.arena.leaf_count(e.plan), 3);
        }
        assert_eq!(out.iterations, 200);
        // Elite jumps re-use stored plans and are not counted as sampled
        // candidates; every walker seeds one extra tree.
        assert!(out.stats.considered_plans >= 150);
        assert!(out.stats.considered_plans <= 200 + 8);
        assert_eq!(out.convergence.len(), 20);
        assert_eq!(out.convergence.last().unwrap().iteration, 200);
        // Front sizes in the trace never exceed the peak.
        for pt in &out.convergence {
            assert!(pt.front_size <= out.stats.peak_stored_plans);
            assert!(pt.best_weighted.is_finite());
        }
    }

    #[test]
    fn rmq_is_deterministic_per_seed() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let cfg = RmqConfig::new(300, 42);
        let a = rmq(&model, &pref(), &cfg, &Deadline::unlimited());
        let b = rmq(&model, &pref(), &cfg, &Deadline::unlimited());
        let av: Vec<CostVector> = a.final_plans.iter().map(|e| e.cost).collect();
        let bv: Vec<CostVector> = b.final_plans.iter().map(|e| e.cost).collect();
        assert_eq!(av, bv, "same seed must reproduce the same front");
        assert_eq!(a.stats.considered_plans, b.stats.considered_plans);
    }

    #[test]
    fn rmq_front_is_identical_across_thread_counts() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let base = RmqConfig {
            convergence_stride: 25,
            ..RmqConfig::new(400, 21)
        };
        let reference = rmq(&model, &pref(), &base, &Deadline::unlimited());
        assert_eq!(reference.convergence.len(), 16);
        for threads in [2usize, 3, 4, 0] {
            let out = rmq(
                &model,
                &pref(),
                &base.with_threads(threads),
                &Deadline::unlimited(),
            );
            assert_eq!(out.iterations, reference.iterations);
            assert_eq!(
                out.stats.considered_plans, reference.stats.considered_plans,
                "threads = {threads}"
            );
            assert_eq!(
                out.final_plans.len(),
                reference.final_plans.len(),
                "threads = {threads}"
            );
            for (a, b) in out.final_plans.iter().zip(&reference.final_plans) {
                assert_eq!(a.cost, b.cost, "threads = {threads}");
                assert_eq!(
                    out.arena.extract_tree(a.plan),
                    reference.arena.extract_tree(b.plan),
                    "threads = {threads}: plans must be structurally identical"
                );
            }
            // The whole trace is reproduced too, not just the final front.
            assert_eq!(out.convergence.len(), reference.convergence.len());
            for (a, b) in out.convergence.iter().zip(&reference.convergence) {
                assert_eq!(a.iteration, b.iteration);
                assert_eq!(a.front_size, b.front_size);
                assert_eq!(a.best_weighted, b.best_weighted);
            }
        }
    }

    #[test]
    fn rmq_front_is_an_antichain() {
        // Default params enable sampling and the preference omits
        // TupleLoss, so the front is props-aware: a member may be
        // cost-dominated only by members that do NOT cover its props
        // (fewer rows / an interesting order are legitimate reasons to
        // survive).
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let preference = pref();
        let out = rmq(
            &model,
            &preference,
            &RmqConfig::new(500, 3),
            &Deadline::unlimited(),
        );
        for (i, a) in out.final_plans.iter().enumerate() {
            for (j, b) in out.final_plans.iter().enumerate() {
                if i != j {
                    assert!(
                        !(crate::pareto::props_key(&a.props)
                            .covers(&crate::pareto::props_key(&b.props))
                            && moqo_cost::dominance::strictly_dominates(
                                &a.cost,
                                &b.cost,
                                preference.objectives
                            )),
                        "front must be a props-aware antichain"
                    );
                }
            }
        }

        // With sampling disabled the mode auto-selects cost-only and the
        // plain antichain property holds.
        let no_sampling = CostModelParams {
            enable_sampling: false,
            ..CostModelParams::default()
        };
        let model = CostModel::new(&no_sampling, &cat, &g);
        let out = rmq(
            &model,
            &preference,
            &RmqConfig::new(500, 3),
            &Deadline::unlimited(),
        );
        let vectors: Vec<CostVector> = out.final_plans.iter().map(|e| e.cost).collect();
        for (i, a) in vectors.iter().enumerate() {
            for (j, b) in vectors.iter().enumerate() {
                if i != j {
                    assert!(
                        !moqo_cost::dominance::strictly_dominates(a, b, preference.objectives),
                        "cost-only front must be a plain antichain"
                    );
                }
            }
        }
    }

    #[test]
    fn rmq_zero_budget_still_returns_a_plan() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let out = rmq(
            &model,
            &pref(),
            &RmqConfig::new(0, 1),
            &Deadline::unlimited(),
        );
        assert_eq!(out.final_plans.len(), out.stats.pareto_last_complete);
        assert!(!out.final_plans.is_empty());
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn rmq_respects_deadline() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let out = rmq(
            &model,
            &pref(),
            &RmqConfig::new(u64::MAX, 5),
            &Deadline::new(Some(std::time::Duration::from_millis(20))),
        );
        assert!(out.stats.timed_out);
        assert!(!out.final_plans.is_empty());
        assert!(out.iterations < u64::MAX);
    }

    #[test]
    fn rmq_result_arena_holds_only_the_final_front() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let out = rmq(
            &model,
            &pref(),
            &RmqConfig::new(300, 11),
            &Deadline::unlimited(),
        );
        // The merge adopts survivors only, after cross-walker domination is
        // resolved: every arena node belongs to exactly one front plan.
        let front_nodes: usize = out
            .final_plans
            .iter()
            .map(|e| 2 * out.arena.leaf_count(e.plan) - 1)
            .sum();
        assert_eq!(out.arena.len(), front_nodes);
    }

    #[test]
    fn rmq_huge_budget_with_explicit_stride_stays_bounded() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        // Anytime usage: a nominal budget of u64::MAX bounded by the clock,
        // with an explicit convergence stride. The snapshot schedule must
        // be capped, not proportional to the nominal budget.
        let cfg = RmqConfig {
            convergence_stride: 10_000,
            ..RmqConfig::new(u64::MAX, 3)
        };
        let out = rmq(
            &model,
            &pref(),
            &cfg,
            &Deadline::new(Some(std::time::Duration::from_millis(10))),
        );
        assert!(out.stats.timed_out);
        assert!(!out.final_plans.is_empty());
        assert!(out.convergence.len() <= 4097);
    }

    #[test]
    fn rmq_deadline_applies_across_threads() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let out = rmq(
            &model,
            &pref(),
            &RmqConfig::new(u64::MAX, 5).with_threads(4),
            &Deadline::new(Some(std::time::Duration::from_millis(20))),
        );
        assert!(out.stats.timed_out);
        assert!(!out.final_plans.is_empty());
    }

    #[test]
    fn rmq_cancel_flag_stops_every_thread() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let cancel = Arc::new(AtomicBool::new(true));
        let started = std::time::Instant::now();
        // The minute-long limit only bounds the test should a walker
        // thread miss the flag.
        let out = rmq(
            &model,
            &pref(),
            &RmqConfig::new(u64::MAX, 5).with_threads(2),
            &Deadline::cancellable(Some(std::time::Duration::from_secs(60)), Some(cancel)),
        );
        assert!(started.elapsed() < std::time::Duration::from_secs(10));
        assert!(out.stats.timed_out);
        assert!(!out.final_plans.is_empty());
    }

    #[test]
    fn rmq_single_relation_block() {
        let params = CostModelParams::default();
        let mut cat = Catalog::new();
        cat.add_table(
            TableStats::new("t", 1000.0, 100.0)
                .with_column(ColumnStats::new("id", 1000.0).indexed()),
        );
        let graph = JoinGraphBuilder::new(&cat).rel("t", 1.0).build();
        let model = CostModel::new(&params, &cat, &graph);
        let out = rmq(
            &model,
            &pref(),
            &RmqConfig::new(50, 9),
            &Deadline::unlimited(),
        );
        assert!(!out.final_plans.is_empty());
        for e in &out.final_plans {
            assert_eq!(e.props.rels, 0b1);
        }
    }

    #[test]
    fn walker_seeds_are_decorrelated() {
        let a = walker_seed(42, 0);
        let b = walker_seed(42, 1);
        let c = walker_seed(43, 0);
        assert!(a != b && a != c && b != c);
        assert_eq!(a, walker_seed(42, 0), "pure function of (seed, index)");
    }

    #[test]
    fn cost_tree_matches_direct_costing() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        // Build (customer ⋈ orders) ⋈ lineitem with hash joins and compare
        // against the incremental costs the walk would produce.
        let tree = JoinTree::join(
            JoinOp::HashJoin { dop: 1 },
            JoinTree::join(
                JoinOp::HashJoin { dop: 1 },
                JoinTree::scan(0, ScanOp::SeqScan),
                JoinTree::scan(1, ScanOp::SeqScan),
            ),
            JoinTree::scan(2, ScanOp::SeqScan),
        );
        let (cost, props) = cost_tree(&model, &tree).expect("hash joins apply on join edges");
        assert_eq!(props.rels, 0b111);
        assert!(cost.get(Objective::TotalTime) > 0.0);
        // An index-nested-loop join over a non-canonical inner child must
        // fail to cost.
        let bad = JoinTree::join(
            JoinOp::IndexNestedLoop,
            JoinTree::scan(0, ScanOp::SeqScan),
            JoinTree::scan(1, ScanOp::SeqScan),
        );
        assert!(cost_tree(&model, &bad).is_none());
    }
}
