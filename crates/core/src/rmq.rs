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
//! searches over the join-tree transformation neighbourhood. Each walker
//! owns a private [`PlanArena`], local front and RNG (seeded from the
//! master seed and its walker index), and descends its own random
//! *scalarization* of the selected objectives: the first walkers take the
//! unit directions, so every frontier extreme has a dedicated hunter; the
//! rest take random mixtures, normalized by the walker's first sampled cost
//! so objectives of wildly different magnitude contribute comparably. One
//! iteration advances one walker by either
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
//!    towards a pipelined index-nested-loop join. The walker accepts the
//!    move when its scalarized cost does not increase, plus half of the
//!    non-dominated tradeoff moves, so it can cross valleys of its own
//!    scalarization while still converging towards its corner of the
//!    tradeoff space.
//!
//! A walker holds its current plan as a **costed tree**: each node caches
//! its subtree's cost vector, physical properties, and join and leaf
//! counts, and a transformed tree shares every subtree the transformation
//! left untouched with the tree it came from (`Rc` path copying). So a
//! transformation copies and re-costs only the path from the changed node
//! to the root, and the cached counts lead to the `k`-th join or leaf. The
//! front keeps plans in the arena only, so an elite jump re-costs the
//! chosen plan from the walker's arena. A warm start is a front in the
//! same format, a [`PlanArena`] plus the [`PlanEntry`]s that index it
//! (a cached front, say), and a walker seeded from it costs its plan from
//! that arena the same way. [`RmqResult::costings`] counts every scan and
//! join the walkers cost.
//!
//! The sample budget is dealt to the [`WALKERS`] walkers round-robin
//! (global iteration `i` belongs to walker `i mod W`). The walkers run on
//! the calling thread in short interleaved slices, so a wall-clock deadline
//! starves no scalarization direction, and their local fronts are merged in
//! walker-index order, re-rooting the surviving plans (and only those) into
//! one result arena ([`PlanArena::adopt`]). The iteration budget and the
//! wall-clock [`Deadline`] jointly bound the run (an expiring deadline
//! trades determinism for punctuality, exactly like the DP's quick-finish
//! path).
//!
//! Walkers share nothing, and a walker's front after `k` of its iterations
//! does not depend on its budget. A run with budget `g` therefore returns
//! exactly the merged front a longer run with the same seed and warm start
//! held after `g` global iterations, so re-running at increasing budgets
//! traces convergence (the `fig_rmq_convergence` binary does so).
//!
//! Every join a walker costs reads the block's split index (the DP's, see
//! [`crate::dp`]): the split's predicate, selectivity and width, and the
//! neighbour masks that decide which components random tree construction
//! may join without a Cartesian product.

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use moqo_cost::{CostVector, ObjectiveSet, Preference, Weights};
use moqo_costmodel::CostModel;
use moqo_plan::{JoinOp, PlanArena, PlanId, PlanNode, PlanProps, ScanOp};

use crate::budget::Deadline;
use crate::dp::{DpStats, ScanOptions, SplitIndex};
use crate::pareto::{PlanEntry, PlanSet, PruneMode, PruneStrategy};

/// Number of independent local searches every run deals its budget to.
/// Walker `w` warm-starts from `warm_start[w mod len]`, so a warm start
/// reads at most this many plans.
pub const WALKERS: usize = 8;

/// Per-iteration probability of restarting a walker on a fresh random join
/// tree (exploration).
const RESTART_PROBABILITY: f64 = 0.05;

/// Per-iteration probability of jumping a walker onto the member of its
/// local front that is best under the walker's own scalarization direction
/// (exploitation of the elite set).
const ELITE_PROBABILITY: f64 = 0.1;

/// Iterations one walker runs before yielding to the next.
const ITER_SLICE: u64 = 64;

/// Configuration of one RMQ run.
#[derive(Debug, Clone, Copy)]
pub struct RmqConfig {
    /// Iteration budget: total number of candidate plans to sample,
    /// dealt round-robin to the walker population.
    pub samples: u64,
    /// RNG seed; equal seeds yield bit-identical runs.
    pub seed: u64,
}

impl RmqConfig {
    /// A run of `samples` iterations seeded with `seed`.
    #[must_use]
    pub fn new(samples: u64, seed: u64) -> Self {
        RmqConfig { samples, seed }
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
    /// walker's peak or the merged front). The DP's candidate-loop
    /// counters (`costed_candidates`, `bound_decisions`,
    /// `bound_rejections`) stay 0.
    pub stats: DpStats,
    /// Iterations actually executed across all walkers (may fall short of
    /// the budget on deadline expiry).
    pub iterations: u64,
    /// Cost-model evaluations across all walkers: every
    /// [`CostModel::scan_cost`] and [`CostModel::join_cost`] call made to
    /// seed, warm-start or restart a walker, to re-cost an elite jump's
    /// plan and to cost a transformed path. Deterministic per seed, warm
    /// start and budget.
    pub costings: u64,
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
    rmq_warm(model, preference, config, deadline, &PlanArena::new(), &[])
}

/// [`rmq`] with a warm start: walker `w` seeds itself from the plan of
/// `warm_start[w mod |warm_start|]` in `warm_arena` (instead of a random
/// tree) when that plan still costs under this model — the serving layer's
/// plan cache hands fronts computed for the same block back to the search,
/// so the walk begins at yesterday's frontier instead of from scratch. A
/// walker costs its warm plan from the arena as an elite jump costs a plan
/// of its own front. Only the first [`WALKERS`] entries, and only their
/// plans, are ever read. Plans that fail to cost (an index scan on a
/// missing or unindexed column, say), or an empty slice, fall back to
/// random seeding. Results remain fully deterministic in
/// `(seed, warm plans, budget)`.
///
/// # Panics
///
/// Panics if the preference selects no objectives, the block is empty, a
/// warm entry's plan is not in `warm_arena`, or a warm plan references
/// relations outside the block.
#[must_use]
pub fn rmq_warm(
    model: &CostModel<'_>,
    preference: &Preference,
    config: &RmqConfig,
    deadline: &Deadline,
    warm_arena: &PlanArena,
    warm_start: &[PlanEntry],
) -> RmqResult {
    let n = model.graph.n_rels();
    assert!(n >= 1, "query block must contain at least one relation");
    assert!(
        !preference.objectives.is_empty(),
        "preference must select at least one objective"
    );

    let objectives = preference.objectives;
    // Same soundness rule as the DP schemes: props-aware fronts whenever
    // sampling lets cardinality leak past the cost vector (the offer path
    // and the cross-walker merge must agree, or the merged front could
    // discard a walker's props-distinct plans).
    let strategy =
        PruneStrategy::exact().with_mode(PruneMode::auto(model.params.enable_sampling, objectives));
    let index = SplitIndex::new(model);
    let scan_opts = ScanOptions::new(model);

    // Round-robin schedule: global iteration i (0-based) belongs to walker
    // i mod W, so walker w's budget is closed-form (saturating: a budget of
    // u64::MAX must not overflow the per-walker shares).
    let mut walkers: Vec<WalkerState<'_>> = (0..WALKERS)
        .map(|w| {
            let budget = config
                .samples
                .saturating_sub(w as u64)
                .div_ceil(WALKERS as u64);
            let warm = (!warm_start.is_empty())
                .then(|| (warm_arena, warm_start[w % warm_start.len()].plan));
            WalkerState::new(
                Coster::new(model, &index),
                &scan_opts,
                objectives,
                strategy,
                w,
                budget,
                walker_seed(config.seed, w as u64),
                warm,
            )
        })
        .collect();
    // Interleave the walkers in short slices, so a wall-clock deadline
    // starves no walker: every scalarization direction keeps advancing at
    // roughly the same rate until the clock (or its budget) stops it.
    // Slicing cannot affect budget-bound results: walkers share nothing,
    // so any schedule yields the same per-walker streams.
    let mut target = 0u64;
    while walkers.iter().any(|w| !w.done()) {
        target = target.saturating_add(ITER_SLICE);
        for w in &mut walkers {
            w.advance_to(target, deadline);
        }
    }

    // Deterministic merge in walker-index order, on cost vectors first: the
    // survivors are only known once every walker front has been folded in,
    // and only they are re-rooted into the result arena — so it holds
    // exactly the final front's trees, nothing orphaned. Candidate indices
    // stand in as plan ids during the merge.
    let mut candidates: Vec<(usize, PlanEntry)> = Vec::new();
    let mut front = PlanSet::new();
    for (wi, walker) in walkers.iter().enumerate() {
        for e in walker.front.iter() {
            if front.would_reject(&e.cost, &e.props, &strategy, objectives) {
                continue;
            }
            let placeholder = PlanId(u32::try_from(candidates.len()).expect("front fits in u32"));
            candidates.push((wi, *e));
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
            let (wi, orig) = candidates[e.plan.0 as usize];
            PlanEntry {
                plan: arena.adopt(&walkers[wi].arena, orig.plan),
                ..orig
            }
        })
        .collect();

    let iterations: u64 = walkers.iter().map(|w| w.iterations).sum();
    let peak_stored: usize = walkers
        .iter()
        .map(|w| w.peak_front)
        .sum::<usize>()
        .max(front.len());
    // Probes and their scan steps: each walker's local front plus the
    // merged front.
    let frontier_scan_probes =
        walkers.iter().map(|w| w.front.probes()).sum::<u64>() + front.probes();
    let frontier_scan_steps =
        walkers.iter().map(|w| w.front.scan_steps()).sum::<u64>() + front.scan_steps();
    let stats = DpStats {
        considered_plans: walkers.iter().map(|w| w.considered).sum(),
        stored_plans: front.len(),
        peak_stored_plans: peak_stored,
        peak_memory_bytes: peak_stored * DpStats::bytes_per_stored_plan(),
        pareto_last_complete: front.len(),
        max_group_size: walkers
            .iter()
            .map(|w| w.peak_front)
            .max()
            .unwrap_or(0)
            .max(front.len()),
        frontier_scan_probes,
        frontier_scan_steps,
        timed_out: walkers.iter().any(|w| w.timed_out),
        ..DpStats::default()
    };

    debug_assert!(!final_plans.is_empty());
    RmqResult {
        arena,
        final_plans,
        stats,
        iterations,
        costings: walkers.iter().map(|w| w.coster.calls).sum(),
    }
}

/// One independent local search, resumable in iteration slices.
/// Deterministic given (seed, budget): the RNG, arena and front are
/// private, so the interleaving schedule never shows in the results.
struct WalkerState<'a> {
    coster: Coster<'a>,
    scan_opts: &'a ScanOptions,
    objectives: ObjectiveSet,
    budget: u64,
    rng: StdRng,
    arena: PlanArena,
    front: PlanSet,
    strategy: PruneStrategy,
    considered: u64,
    peak_front: usize,
    scal: Weights,
    /// The walker's current plan.
    state: Rc<CostedNode>,
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
        mut coster: Coster<'a>,
        scan_opts: &'a ScanOptions,
        objectives: ObjectiveSet,
        strategy: PruneStrategy,
        walker_index: usize,
        budget: u64,
        seed: u64,
        warm: Option<(&PlanArena, PlanId)>,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = TreeScratch::default();
        // A warm plan that no longer costs under this model falls back to
        // random seeding — the warm start is an accelerator, never a
        // correctness dependency.
        let state = warm
            .and_then(|(arena, plan)| coster.cost_stored(arena, plan).ok())
            .unwrap_or_else(|| {
                sample_random_tree(&mut coster, scan_opts, &mut scratch, &mut rng)
                    .expect("a nested-loop plan always exists")
            });
        let scal = walker_scalarization(walker_index, objectives, &state.cost, &mut rng);
        let mut walker = WalkerState {
            coster,
            scan_opts,
            objectives,
            budget,
            rng,
            arena: PlanArena::new(),
            front: PlanSet::new(),
            strategy,
            considered: 0,
            peak_front: 0,
            scal,
            state: Rc::clone(&state),
            iterations: 0,
            timed_out: false,
            scratch,
        };
        walker.offer(&state);
        walker
    }

    /// Offers a costed candidate to the local front. The rejection test
    /// runs before allocating arena nodes: rejected candidates (the vast
    /// majority) then leave no garbage behind, so arena growth is bounded
    /// by *accepted* plans, not the budget.
    fn offer(&mut self, tree: &CostedNode) {
        self.considered += 1;
        let strategy = self.strategy;
        if self
            .front
            .would_reject(&tree.cost, &tree.props, &strategy, self.objectives)
        {
            return;
        }
        let entry = PlanEntry {
            cost: tree.cost,
            props: tree.props,
            plan: tree.store(&mut self.arena),
        };
        self.front
            .insert_unrejected(entry, &strategy, self.objectives);
        if self.front.len() > self.peak_front {
            self.peak_front = self.front.len();
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
        }
    }

    /// One iteration: restart, elite jump, or local mutation.
    fn step(&mut self) {
        let draw: f64 = self.rng.gen_range(0.0..1.0);
        if draw < RESTART_PROBABILITY {
            // Exploration: restart this walker on a fresh random tree.
            let tree = sample_random_tree(
                &mut self.coster,
                self.scan_opts,
                &mut self.scratch,
                &mut self.rng,
            )
            .expect("a nested-loop plan always exists");
            self.offer(&tree);
            self.state = tree;
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
                let tree = self
                    .coster
                    .cost_stored(&self.arena, elite.plan)
                    .expect("a stored plan costs as it did when it was offered");
                debug_assert!(tree.cost == elite.cost && tree.props == elite.props);
                self.state = tree;
            }
            // A jump re-uses a stored plan; no candidate is sampled, so
            // `considered_plans` is not incremented.
        } else {
            // Local move: one random transformation of the walker's tree.
            match self.mutate() {
                Some(tree) => {
                    self.offer(&tree);
                    // Accept when the walker's scalarized cost does not
                    // increase (plateau moves keep the walk mobile); also
                    // accept a fraction of non-dominated tradeoff moves so
                    // the walk can cross valleys of its own scalarization.
                    let old = self.scal.weighted_cost(&self.state.cost);
                    let new = self.scal.weighted_cost(&tree.cost);
                    let accept = new <= old
                        || (!moqo_cost::dominance::strictly_dominates(
                            &self.state.cost,
                            &tree.cost,
                            self.objectives,
                        ) && self.rng.gen_range(0.0..1.0) < 0.5);
                    if accept {
                        self.state = tree;
                    }
                }
                None => {
                    // Un-costable transformation; still one budget sample.
                    self.considered += 1;
                }
            }
        }
    }

    /// Draws one random local transformation of the walker's tree and
    /// costs its path. Returns `None` when no draw found an applicable
    /// transformation or the transformed tree cannot be costed (an
    /// operator became inapplicable).
    fn mutate(&mut self) -> Option<Rc<CostedNode>> {
        let base = Rc::clone(&self.state);
        let (n_joins, n_leaves) = (base.joins, base.leaves);
        let rng = &mut self.rng;
        // Try a handful of transformation draws: structural rewrites can be
        // inapplicable at the drawn position (e.g. rotating over a leaf).
        for _ in 0..4 {
            let (at, mv) = match rng.gen_range(0u32..6) {
                0 if n_joins > 0 => (At::Join(rng.gen_range(0..n_joins)), Move::Commute),
                1 if n_joins > 0 => (At::Join(rng.gen_range(0..n_joins)), Move::RotateRight),
                2 if n_joins > 0 => (At::Join(rng.gen_range(0..n_joins)), Move::RotateLeft),
                3 if n_joins > 0 => {
                    let at = At::Join(rng.gen_range(0..n_joins));
                    (at, Move::SetJoinOp(*JoinOp::ALL.choose(rng)?))
                }
                4 => {
                    let at = At::Leaf(rng.gen_range(0..n_leaves));
                    let Shape::Scan { rel, op } = base.find(at)?.shape else {
                        unreachable!("leaf addresses lead to scans")
                    };
                    let new_op = *self.scan_opts.for_rel(rel).choose(rng)?;
                    // Re-drawing the current operator would re-cost an
                    // identical tree; treat it as a failed draw instead.
                    if new_op == op {
                        continue;
                    }
                    (at, Move::SetScanOp(new_op))
                }
                5 if n_joins > 0 => {
                    // Towards a pipelined index-nested-loop join: only a
                    // join whose inner child is a leaf with an indexed
                    // join key qualifies.
                    let at = At::Join(rng.gen_range(0..n_joins));
                    let Some(Shape::Join { left, right, .. }) = base.find(at).map(|n| &n.shape)
                    else {
                        continue;
                    };
                    let Shape::Scan { rel, .. } = right.shape else {
                        continue;
                    };
                    match self.coster.index.split(left.props.rels, 1u32 << rel).key {
                        Some(key) if key.inner_index.is_some() => {
                            (at, Move::IndexNl(key.right_col))
                        }
                        _ => continue,
                    }
                }
                _ => continue,
            };
            match self.coster.apply(&base, at, mv) {
                Err(Miss::NotApplicable) => {}
                edit => return edit.ok(),
            }
        }
        None
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
    coster: &mut Coster<'_>,
    scan_opts: &ScanOptions,
    scratch: &mut TreeScratch,
    rng: &mut StdRng,
) -> Option<Rc<CostedNode>> {
    let n = coster.model.graph.n_rels();
    let mut components: Vec<Rc<CostedNode>> = Vec::with_capacity(n);
    for rel in 0..n {
        scratch.scans.clear();
        scratch.scans.extend_from_slice(scan_opts.for_rel(rel));
        scratch.scans.shuffle(rng);
        let scan = scratch
            .scans
            .iter()
            .find_map(|&op| coster.scan(rel, op).ok())?;
        components.push(scan);
    }

    let pairs = &mut scratch.pairs;
    while components.len() > 1 {
        // Candidate pairs: connected ones if any exist (the Cartesian
        // heuristic), otherwise every pair.
        pairs.clear();
        for (i, a) in components.iter().enumerate() {
            let neighbours = coster.index.neighbours(a.props.rels);
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
            for op in ops {
                if let Ok(tree) = coster.join(op, &components[i], &components[j]) {
                    joined = Some((i, j, tree));
                    break 'pairs;
                }
            }
        }
        let (i, j, tree) = joined?;
        // The later position first, so the earlier one is still in place.
        components.swap_remove(i.max(j));
        components.swap_remove(i.min(j));
        components.push(tree);
    }
    components.pop()
}

/// A node of a walker's costed tree: the cost vector, physical properties
/// and join and leaf counts of its subtree, computed once when the node is
/// built. Children are shared, so a transformed tree reuses every subtree
/// the transformation left untouched.
#[derive(Debug)]
struct CostedNode {
    cost: CostVector,
    props: PlanProps,
    joins: usize,
    leaves: usize,
    shape: Shape,
}

/// A scan leaf, or a join of two shared subtrees (`left` is the outer
/// input).
#[derive(Debug)]
enum Shape {
    Scan {
        rel: usize,
        op: ScanOp,
    },
    Join {
        op: JoinOp,
        left: Rc<CostedNode>,
        right: Rc<CostedNode>,
    },
}

/// The address of a node in a costed tree: the `k`-th join in preorder or
/// the `k`-th leaf from the left (both 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum At {
    Join(usize),
    Leaf(usize),
}

impl At {
    /// Where this address lies below a join whose outer child is `left`:
    /// `None` for the join itself, else whether it lies in `left` and its
    /// address there.
    fn below(self, left: &CostedNode) -> Option<(bool, At)> {
        let (k, in_left, address): (usize, usize, fn(usize) -> At) = match self {
            At::Join(0) => return None,
            At::Join(k) => (k - 1, left.joins, At::Join),
            At::Leaf(k) => (k, left.leaves, At::Leaf),
        };
        Some(if k < in_left {
            (true, address(k))
        } else {
            (false, address(k - in_left))
        })
    }
}

/// One local transformation, applied at an [`At`] address. Operators
/// travel with their position; a transformation that leaves an operator
/// inapplicable fails to cost.
#[derive(Debug, Clone, Copy)]
enum Move {
    /// Join commutativity `A ⋈ B → B ⋈ A`.
    Commute,
    /// Join associativity, right rotation `(A ⋈₂ B) ⋈₁ C → A ⋈₂ (B ⋈₁ C)`;
    /// not applicable when the outer child is a leaf.
    RotateRight,
    /// Join associativity, left rotation `A ⋈₁ (B ⋈₂ C) → (A ⋈₁ B) ⋈₂ C`;
    /// not applicable when the inner child is a leaf.
    RotateLeft,
    /// Replaces a join's operator.
    SetJoinOp(JoinOp),
    /// Replaces a leaf's scan operator.
    SetScanOp(ScanOp),
    /// The coordinated rewrite towards a pipelined index-nested-loop join:
    /// the inner leaf becomes the index scan on the given column and the
    /// join [`JoinOp::IndexNestedLoop`], in one step (the two swaps rarely
    /// survive a cost-based search separately). Not applicable when the
    /// inner child is a join.
    IndexNl(u16),
}

/// Why a transformation yields no costed tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Miss {
    /// The transformation does not apply at the address.
    NotApplicable,
    /// The transformed tree has an inapplicable operator.
    Uncostable,
}

/// A built and costed node, or why there is none.
type Edit = Result<Rc<CostedNode>, Miss>;

impl CostedNode {
    /// The node at `at`, if the tree has one there.
    fn find(&self, at: At) -> Option<&CostedNode> {
        match &self.shape {
            Shape::Scan { .. } => (at == At::Leaf(0)).then_some(self),
            Shape::Join { left, right, .. } => match at.below(left) {
                None => Some(self),
                Some((true, at)) => left.find(at),
                Some((false, at)) => right.find(at),
            },
        }
    }

    /// Stores the tree in `arena`, children before parents and the outer
    /// subtree first, and returns the root's id.
    fn store(&self, arena: &mut PlanArena) -> PlanId {
        match &self.shape {
            Shape::Scan { rel, op } => arena.scan(*rel, *op),
            Shape::Join { op, left, right } => {
                let l = left.store(arena);
                let r = right.store(arena);
                arena.join(*op, l, r)
            }
        }
    }
}

/// Builds costed nodes against one block's model and split index, and
/// counts the cost-model calls it makes.
struct Coster<'a> {
    model: &'a CostModel<'a>,
    index: &'a SplitIndex,
    /// `scan_cost` and `join_cost` calls so far.
    calls: u64,
}

impl<'a> Coster<'a> {
    fn new(model: &'a CostModel<'a>, index: &'a SplitIndex) -> Self {
        Coster {
            model,
            index,
            calls: 0,
        }
    }

    /// A scan leaf.
    fn scan(&mut self, rel: usize, op: ScanOp) -> Edit {
        self.calls += 1;
        let (cost, props) = self.model.scan_cost(rel, op).ok_or(Miss::Uncostable)?;
        Ok(Rc::new(CostedNode {
            cost,
            props,
            joins: 0,
            leaves: 1,
            shape: Shape::Scan { rel, op },
        }))
    }

    /// A join of two costed subtrees.
    fn join(&mut self, op: JoinOp, left: &Rc<CostedNode>, right: &Rc<CostedNode>) -> Edit {
        self.calls += 1;
        let split = self.index.split(left.props.rels, right.props.rels);
        let (cost, props) = self
            .model
            .join_cost(
                op,
                (&left.cost, &left.props),
                (&right.cost, &right.props),
                &split,
            )
            .ok_or(Miss::Uncostable)?;
        Ok(Rc::new(CostedNode {
            cost,
            props,
            joins: left.joins + right.joins + 1,
            leaves: left.leaves + right.leaves,
            shape: Shape::Join {
                op,
                left: Rc::clone(left),
                right: Rc::clone(right),
            },
        }))
    }

    /// Costs the plan `plan` of `arena` bottom-up (a warm start or an
    /// elite jump).
    fn cost_stored(&mut self, arena: &PlanArena, plan: PlanId) -> Edit {
        match arena.node(plan) {
            PlanNode::Scan { rel, op } => self.scan(rel, op),
            PlanNode::Join { op, left, right } => {
                let l = self.cost_stored(arena, left)?;
                let r = self.cost_stored(arena, right)?;
                self.join(op, &l, &r)
            }
        }
    }

    /// Applies `mv` at the node `at` of the tree rooted at `node`: copies
    /// and re-costs the path from that node up to the root and shares
    /// every other subtree.
    fn apply(&mut self, node: &CostedNode, at: At, mv: Move) -> Edit {
        match &node.shape {
            Shape::Scan { .. } if at != At::Leaf(0) => Err(Miss::NotApplicable),
            Shape::Scan { .. } => self.rewrite(node, mv),
            Shape::Join { op, left, right } => match at.below(left) {
                None => self.rewrite(node, mv),
                Some((true, at)) => {
                    let left = self.apply(left, at, mv)?;
                    self.join(*op, &left, right)
                }
                Some((false, at)) => {
                    let right = self.apply(right, at, mv)?;
                    self.join(*op, left, &right)
                }
            },
        }
    }

    /// Applies `mv` at `node` itself.
    fn rewrite(&mut self, node: &CostedNode, mv: Move) -> Edit {
        let Shape::Join { op, left, right } = &node.shape else {
            return match (&node.shape, mv) {
                (Shape::Scan { rel, .. }, Move::SetScanOp(op)) => self.scan(*rel, op),
                _ => Err(Miss::NotApplicable),
            };
        };
        match (mv, &left.shape, &right.shape) {
            (Move::Commute, ..) => self.join(*op, right, left),
            (
                Move::RotateRight,
                Shape::Join {
                    op: inner,
                    left: a,
                    right: b,
                },
                _,
            ) => {
                let bc = self.join(*op, b, right)?;
                self.join(*inner, a, &bc)
            }
            (
                Move::RotateLeft,
                _,
                Shape::Join {
                    op: inner,
                    left: b,
                    right: c,
                },
            ) => {
                let ab = self.join(*op, left, b)?;
                self.join(*inner, &ab, c)
            }
            (Move::SetJoinOp(new), ..) => self.join(new, left, right),
            (Move::IndexNl(column), _, &Shape::Scan { rel, .. }) => {
                let scan = self.scan(rel, ScanOp::IndexScan { column })?;
                self.join(JoinOp::IndexNestedLoop, left, &scan)
            }
            _ => Err(Miss::NotApplicable),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_catalog::{
        BaseRel, Catalog, ColumnStats, JoinEdge, JoinGraph, JoinGraphBuilder, TableId, TableStats,
    };
    use moqo_cost::{Objective, ObjectiveSet};
    use moqo_costmodel::CostModelParams;
    use moqo_plan::SAMPLING_RATES_PCT;
    use proptest::prelude::*;
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
        let preference = pref();
        let out = rmq(
            &model,
            &preference,
            &RmqConfig::new(200, 7),
            &Deadline::unlimited(),
        );
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
        // A convergence trace re-runs the search at growing budgets. Each
        // run returns the front the longer runs held at its budget, so the
        // best weighted cost never worsens, no front outgrows the full
        // run's peak, and the last point is the full run.
        let best_weighted = |plans: &[PlanEntry]| {
            crate::select::select_best(plans, &preference)
                .map_or(f64::INFINITY, |e| preference.weighted_cost(&e.cost))
        };
        let mut previous = f64::INFINITY;
        for budget in (10..=200).step_by(10) {
            let point = rmq(
                &model,
                &preference,
                &RmqConfig::new(budget, 7),
                &Deadline::unlimited(),
            );
            assert_eq!(point.iterations, budget);
            assert!(point.final_plans.len() <= out.stats.peak_stored_plans);
            let best = best_weighted(&point.final_plans);
            assert!(best.is_finite() && best <= previous, "budget {budget}");
            previous = best;
        }
        assert_eq!(previous, best_weighted(&out.final_plans));
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
        assert_eq!(a.costings, b.costings);
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
        // Each walker costs its seed tree and nothing else: at least one
        // call per node of a three-relation tree.
        assert!(out.costings >= (WALKERS * 5) as u64);

        // A warm plan that costs is costed once, node by node.
        let (arena, front) = warm_front(&[chain3()]);
        let warm = rmq_warm(
            &model,
            &pref(),
            &RmqConfig::new(0, 1),
            &Deadline::unlimited(),
            &arena,
            &front,
        );
        assert_eq!(warm.costings, (WALKERS * 5) as u64);
    }

    /// Warm plans that no longer cost seed their walkers randomly: the run
    /// is the cold run of the same seed and budget, except for the one
    /// failed scan costing each walker paid.
    #[test]
    fn uncostable_warm_plans_fall_back_to_the_cold_run() {
        let params = CostModelParams::default();
        let mut cat = Catalog::new();
        cat.add_table(
            TableStats::new("a", 5_000.0, 100.0)
                .with_column(ColumnStats::new("id", 5_000.0).indexed())
                .with_column(ColumnStats::new("note", 50.0)),
        );
        cat.add_table(
            TableStats::new("b", 20_000.0, 80.0)
                .with_column(ColumnStats::new("a_id", 5_000.0).indexed()),
        );
        let graph = JoinGraphBuilder::new(&cat)
            .rel("a", 1.0)
            .rel("b", 0.5)
            .join(("a", "id"), ("b", "a_id"))
            .build();
        let model = CostModel::new(&params, &cat, &graph);
        let config = RmqConfig::new(300, 17);
        let cold = rmq(&model, &pref(), &config, &Deadline::unlimited());
        // Column 1 exists but has no index; column 2 is past the last one.
        for column in [1, 2] {
            let plan = Tree::join(
                JoinOp::HashJoin { dop: 1 },
                Tree::scan(0, ScanOp::IndexScan { column }),
                Tree::scan(1, ScanOp::SeqScan),
            );
            let (arena, front) = warm_front(&[plan]);
            let warm = rmq_warm(
                &model,
                &pref(),
                &config,
                &Deadline::unlimited(),
                &arena,
                &front,
            );
            assert_eq!(front_bits(&warm), front_bits(&cold), "column {column}");
            assert_eq!(
                warm.stats.considered_plans, cold.stats.considered_plans,
                "column {column}"
            );
            assert_eq!(warm.iterations, cold.iterations, "column {column}");
            assert_eq!(warm.costings, cold.costings + WALKERS as u64);
        }
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
    fn rmq_cancel_flag_stops_every_thread() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let cancel = Arc::new(AtomicBool::new(true));
        let started = std::time::Instant::now();
        // The minute-long limit only bounds the test should a walker miss
        // the flag.
        let out = rmq(
            &model,
            &pref(),
            &RmqConfig::new(u64::MAX, 5),
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
        // the reference costing with the costed tree a walker builds from
        // the plan's arena.
        let tree = Tree::join(
            JoinOp::HashJoin { dop: 1 },
            Tree::join(
                JoinOp::HashJoin { dop: 1 },
                Tree::scan(0, ScanOp::SeqScan),
                Tree::scan(1, ScanOp::SeqScan),
            ),
            Tree::scan(2, ScanOp::SeqScan),
        );
        let index = SplitIndex::new(&model);
        let (cost, props) =
            cost_tree_with(&model, &index, &tree).expect("hash joins apply on join edges");
        assert_eq!(props.rels, 0b111);
        assert!(cost.get(Objective::TotalTime) > 0.0);
        let mut arena = PlanArena::new();
        let root = tree.store(&mut arena);
        let mut coster = Coster::new(&model, &index);
        let costed = coster
            .cost_stored(&arena, root)
            .expect("the costed tree costs too");
        assert_eq!(bits(&costed.cost, &costed.props), bits(&cost, &props));
        assert_eq!(coster.calls, 5, "one cost-model call per node");
        // An index-nested-loop join over a non-canonical inner child must
        // fail to cost.
        let bad = Tree::join(
            JoinOp::IndexNestedLoop,
            Tree::scan(0, ScanOp::SeqScan),
            Tree::scan(1, ScanOp::SeqScan),
        );
        assert!(cost_tree_with(&model, &index, &bad).is_none());
        let bad = bad.store(&mut arena);
        assert_eq!(
            coster.cost_stored(&arena, bad).unwrap_err(),
            Miss::Uncostable
        );
    }

    fn chain3() -> Tree {
        // ((0 ⋈ 1) ⋈ 2)
        Tree::join(
            JoinOp::HashJoin { dop: 1 },
            Tree::join(
                JoinOp::SortMergeJoin { dop: 2 },
                Tree::scan(0, ScanOp::SeqScan),
                Tree::scan(1, ScanOp::SeqScan),
            ),
            Tree::scan(2, ScanOp::IndexScan { column: 0 }),
        )
    }

    /// `trees` stored in one arena as a warm start. [`rmq_warm`] reads only
    /// the entries' plans, so their costs and props are placeholders.
    fn warm_front(trees: &[Tree]) -> (PlanArena, Vec<PlanEntry>) {
        let mut arena = PlanArena::new();
        let front = trees
            .iter()
            .map(|tree| PlanEntry {
                cost: CostVector::zero(),
                props: PlanProps {
                    rels: 0,
                    rows: 1.0,
                    width: 1.0,
                    order: moqo_plan::SortOrder::None,
                    sampling_factor: 1.0,
                },
                plan: tree.store(&mut arena),
            })
            .collect();
        (arena, front)
    }

    /// The bits of a run's front, entry by entry, with each entry's plan.
    fn front_bits(out: &RmqResult) -> Vec<(Vec<u64>, Tree)> {
        out.final_plans
            .iter()
            .map(|e| (bits(&e.cost, &e.props), Tree::of(&out.arena, e.plan)))
            .collect()
    }

    /// Runs `check` on `chain3` costed over `setup3`'s block from an
    /// arena, with the coster that built it.
    fn with_chain3(check: impl FnOnce(&mut Coster<'_>, Rc<CostedNode>)) {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let index = SplitIndex::new(&model);
        let mut coster = Coster::new(&model, &index);
        let mut arena = PlanArena::new();
        let root = chain3().store(&mut arena);
        let tree = coster.cost_stored(&arena, root).expect("chain3 costs");
        check(&mut coster, tree);
    }

    #[test]
    fn counts_and_mask() {
        with_chain3(|_, tree| {
            assert_eq!(tree.leaves, 3);
            assert_eq!(tree.joins, 2);
            assert_eq!(tree.props.rels, 0b111);
        });
    }

    #[test]
    fn commute_swaps_children() {
        with_chain3(|coster, tree| {
            let swapped = coster
                .apply(&tree, At::Join(0), Move::Commute)
                .expect("hash joins commute");
            let (Shape::Join { left, right, .. }, Shape::Join { left: old_left, .. }) =
                (&swapped.shape, &tree.shape)
            else {
                panic!("both roots are joins")
            };
            assert!(matches!(left.shape, Shape::Scan { rel: 2, .. }));
            assert_eq!(right.leaves, 2);
            assert!(
                Rc::ptr_eq(right, old_left),
                "the untouched subtree is shared"
            );
            assert_eq!(swapped.props.rels, 0b111, "commutativity preserves leaves");
            assert_eq!(
                coster.apply(&tree, At::Join(5), Move::Commute).unwrap_err(),
                Miss::NotApplicable,
                "an out-of-range index does not apply"
            );
        });
    }

    #[test]
    fn rotate_right_reassociates() {
        with_chain3(|coster, tree| {
            // ((0 ⋈ 1) ⋈ 2) → (0 ⋈ (1 ⋈ 2)).
            let rotated = coster
                .apply(&tree, At::Join(0), Move::RotateRight)
                .expect("rotates");
            let Shape::Join { left, right, .. } = &rotated.shape else {
                panic!("the root is a join")
            };
            assert!(matches!(left.shape, Shape::Scan { rel: 0, .. }));
            assert_eq!(right.props.rels, 0b110);
            assert_eq!(rotated.props.rels, 0b111);
            // The left child is now a leaf: a further right rotation does
            // not apply.
            assert_eq!(
                coster
                    .apply(&rotated, At::Join(0), Move::RotateRight)
                    .unwrap_err(),
                Miss::NotApplicable
            );
        });
    }

    #[test]
    fn rotate_left_inverts_rotate_right() {
        with_chain3(|coster, tree| {
            let rotated = coster
                .apply(&tree, At::Join(0), Move::RotateRight)
                .expect("rotates right");
            let back = coster
                .apply(&rotated, At::Join(0), Move::RotateLeft)
                .expect("rotates left");
            // Rotations also permute operator assignments; the *shape* and
            // leaf set must return, the operators may not.
            assert_eq!(back.props.rels, tree.props.rels);
            assert_eq!(back.joins, tree.joins);
            let Shape::Join { left, .. } = &back.shape else {
                panic!("the root is a join")
            };
            assert_eq!(left.props.rels, 0b011);
        });
    }

    #[test]
    fn operator_swaps() {
        with_chain3(|coster, tree| {
            let swapped = coster
                .apply(&tree, At::Join(1), Move::SetJoinOp(JoinOp::NestedLoop))
                .expect("nested loops apply everywhere");
            let Shape::Join { left, .. } = &swapped.shape else {
                panic!("the root is a join")
            };
            assert!(matches!(
                left.shape,
                Shape::Join {
                    op: JoinOp::NestedLoop,
                    ..
                }
            ));
            let rescanned = coster
                .apply(&tree, At::Leaf(2), Move::SetScanOp(ScanOp::SeqScan))
                .expect("sequential scans apply everywhere");
            assert!(matches!(
                rescanned.find(At::Leaf(2)).map(|n| &n.shape),
                Some(Shape::Scan {
                    rel: 2,
                    op: ScanOp::SeqScan
                })
            ));
            let out_of_range = [
                (At::Leaf(9), Move::SetScanOp(ScanOp::SeqScan)),
                (At::Join(7), Move::SetJoinOp(JoinOp::NestedLoop)),
            ];
            for (at, mv) in out_of_range {
                assert_eq!(
                    coster.apply(&tree, at, mv).unwrap_err(),
                    Miss::NotApplicable
                );
            }
            // An index-nested-loop join over a sequential scan applies but
            // does not cost.
            assert_eq!(
                coster
                    .apply(&tree, At::Join(1), Move::SetJoinOp(JoinOp::IndexNestedLoop))
                    .unwrap_err(),
                Miss::Uncostable
            );
        });
    }

    #[test]
    fn preorder_join_indexing_reaches_every_join() {
        let (catalog, graph) = topology_instance(0, 4, &mut StdRng::seed_from_u64(1));
        let params = CostModelParams::default();
        let model = CostModel::new(&params, &catalog, &graph);
        let index = SplitIndex::new(&model);
        let mut coster = Coster::new(&model, &index);
        // A bushy tree: (0 ⋈ 1) ⋈ (2 ⋈ 3) has joins at preorder 0, 1, 2.
        let scan = |rel| Tree::scan(rel, ScanOp::SeqScan);
        let bushy = Tree::join(
            JoinOp::NestedLoop,
            Tree::join(JoinOp::NestedLoop, scan(0), scan(1)),
            Tree::join(JoinOp::NestedLoop, scan(2), scan(3)),
        );
        let mut arena = PlanArena::new();
        let root = bushy.store(&mut arena);
        let tree = coster
            .cost_stored(&arena, root)
            .expect("nested loops always cost");
        for (k, rels) in [0b1111, 0b0011, 0b1100].into_iter().enumerate() {
            assert_eq!(tree.find(At::Join(k)).map(|n| n.props.rels), Some(rels));
            let set = Move::SetJoinOp(JoinOp::NestedLoop);
            assert!(coster.apply(&tree, At::Join(k), set).is_ok(), "join {k}");
        }
        for leaf in 0..4 {
            assert_eq!(
                tree.find(At::Leaf(leaf)).map(|n| n.props.rels),
                Some(1 << leaf)
            );
        }
        assert!(tree.find(At::Join(3)).is_none() && tree.find(At::Leaf(4)).is_none());
        assert_eq!(
            coster
                .apply(&tree, At::Join(3), Move::SetJoinOp(JoinOp::NestedLoop))
                .unwrap_err(),
            Miss::NotApplicable
        );
    }

    #[test]
    fn costed_trees_are_stored_children_first_and_re_cost_from_the_arena() {
        with_chain3(|coster, tree| {
            let mut arena = PlanArena::new();
            let root = tree.store(&mut arena);
            assert_eq!(root, PlanId(4));
            let mut order = Vec::new();
            arena.visit_postorder(root, &mut |id, _| order.push(id.0));
            assert_eq!(order, [0, 1, 2, 3, 4]);
            assert_eq!(Tree::of(&arena, root), chain3());
            let calls = coster.calls;
            let again = coster
                .cost_stored(&arena, root)
                .expect("a stored plan costs");
            assert_eq!(coster.calls - calls, 5);
            assert_eq!(
                bits(&again.cost, &again.props),
                bits(&tree.cost, &tree.props)
            );
        });
    }

    /// An owned join tree: how the tests write plans down, and the
    /// reference format every costed tree and move is held to.
    #[derive(Debug, Clone, PartialEq)]
    enum Tree {
        Scan {
            rel: usize,
            op: ScanOp,
        },
        Join {
            op: JoinOp,
            left: Box<Tree>,
            right: Box<Tree>,
        },
    }

    impl Tree {
        fn scan(rel: usize, op: ScanOp) -> Self {
            Tree::Scan { rel, op }
        }

        fn join(op: JoinOp, left: Tree, right: Tree) -> Self {
            Tree::Join {
                op,
                left: Box::new(left),
                right: Box::new(right),
            }
        }

        /// The tree of the plan `root` of `arena`.
        fn of(arena: &PlanArena, root: PlanId) -> Self {
            match arena.node(root) {
                PlanNode::Scan { rel, op } => Tree::scan(rel, op),
                PlanNode::Join { op, left, right } => {
                    Tree::join(op, Tree::of(arena, left), Tree::of(arena, right))
                }
            }
        }

        /// Stores the tree in `arena`, children before parents and the
        /// outer subtree first, and returns the root's id.
        fn store(&self, arena: &mut PlanArena) -> PlanId {
            match self {
                Tree::Scan { rel, op } => arena.scan(*rel, *op),
                Tree::Join { op, left, right } => {
                    let l = left.store(arena);
                    let r = right.store(arena);
                    arena.join(*op, l, r)
                }
            }
        }

        /// The tree of a costed one.
        fn owned(node: &CostedNode) -> Self {
            match &node.shape {
                Shape::Scan { rel, op } => Tree::scan(*rel, *op),
                Shape::Join { op, left, right } => {
                    Tree::join(*op, Tree::owned(left), Tree::owned(right))
                }
            }
        }

        fn n_leaves(&self) -> usize {
            match self {
                Tree::Scan { .. } => 1,
                Tree::Join { left, right, .. } => left.n_leaves() + right.n_leaves(),
            }
        }

        fn n_joins(&self) -> usize {
            match self {
                Tree::Scan { .. } => 0,
                Tree::Join { left, right, .. } => 1 + left.n_joins() + right.n_joins(),
            }
        }

        fn rel_mask(&self) -> u32 {
            match self {
                Tree::Scan { rel, .. } => 1u32 << rel,
                Tree::Join { left, right, .. } => left.rel_mask() | right.rel_mask(),
            }
        }

        // The owned-tree transformations walkers applied before they kept
        // costed trees.

        fn join_mut(&mut self, k: usize) -> Option<&mut Tree> {
            match self {
                Tree::Scan { .. } => None,
                Tree::Join { .. } if k == 0 => Some(self),
                Tree::Join { left, right, .. } => {
                    let k = k - 1;
                    let in_left = left.n_joins();
                    if k < in_left {
                        left.join_mut(k)
                    } else {
                        right.join_mut(k - in_left)
                    }
                }
            }
        }

        fn leaf_mut(&mut self, k: usize) -> Option<&mut Tree> {
            match self {
                Tree::Scan { .. } => (k == 0).then_some(self),
                Tree::Join { left, right, .. } => {
                    let in_left = left.n_leaves();
                    if k < in_left {
                        left.leaf_mut(k)
                    } else {
                        right.leaf_mut(k - in_left)
                    }
                }
            }
        }

        fn commute(&mut self, k: usize) -> bool {
            let Some(Tree::Join { left, right, .. }) = self.join_mut(k) else {
                return false;
            };
            std::mem::swap(left, right);
            true
        }

        fn rotate_right(&mut self, k: usize) -> bool {
            let Some(node) = self.join_mut(k) else {
                return false;
            };
            let Tree::Join {
                op: op1,
                left,
                right,
            } = node
            else {
                return false;
            };
            if !matches!(**left, Tree::Join { .. }) {
                return false;
            }
            let c = std::mem::replace(right, Box::new(Tree::scan(0, ScanOp::SeqScan)));
            let Tree::Join {
                op: op2,
                left: a,
                right: b,
            } = std::mem::replace(&mut **left, Tree::scan(0, ScanOp::SeqScan))
            else {
                unreachable!("checked above")
            };
            let inner = Tree::Join {
                op: *op1,
                left: b,
                right: c,
            };
            *node = Tree::Join {
                op: op2,
                left: a,
                right: Box::new(inner),
            };
            true
        }

        fn rotate_left(&mut self, k: usize) -> bool {
            let Some(node) = self.join_mut(k) else {
                return false;
            };
            let Tree::Join {
                op: op1,
                left,
                right,
            } = node
            else {
                return false;
            };
            if !matches!(**right, Tree::Join { .. }) {
                return false;
            }
            let a = std::mem::replace(left, Box::new(Tree::scan(0, ScanOp::SeqScan)));
            let Tree::Join {
                op: op2,
                left: b,
                right: c,
            } = std::mem::replace(&mut **right, Tree::scan(0, ScanOp::SeqScan))
            else {
                unreachable!("checked above")
            };
            let inner = Tree::Join {
                op: *op1,
                left: a,
                right: b,
            };
            *node = Tree::Join {
                op: op2,
                left: Box::new(inner),
                right: c,
            };
            true
        }

        fn set_join_op(&mut self, k: usize, new_op: JoinOp) -> bool {
            let Some(Tree::Join { op, .. }) = self.join_mut(k) else {
                return false;
            };
            *op = new_op;
            true
        }

        fn set_scan_op(&mut self, k: usize, new_op: ScanOp) -> bool {
            let Some(Tree::Scan { op, .. }) = self.leaf_mut(k) else {
                return false;
            };
            *op = new_op;
            true
        }

        fn make_index_nl(&mut self, k: usize, column: u16) -> bool {
            let Some(Tree::Join { op, right, .. }) = self.join_mut(k) else {
                return false;
            };
            let Tree::Scan { op: scan_op, .. } = &mut **right else {
                return false;
            };
            *scan_op = ScanOp::IndexScan { column };
            *op = JoinOp::IndexNestedLoop;
            true
        }
    }

    /// The bottom-up costing of an owned tree that walkers ran on every
    /// transformed tree before they kept costed trees: the reference each
    /// costed node must equal bit for bit.
    fn cost_tree_with(
        model: &CostModel<'_>,
        index: &SplitIndex,
        tree: &Tree,
    ) -> Option<(CostVector, PlanProps)> {
        match tree {
            Tree::Scan { rel, op } => model.scan_cost(*rel, *op),
            Tree::Join { op, left, right } => {
                let (lc, lp) = cost_tree_with(model, index, left)?;
                let (rc, rp) = cost_tree_with(model, index, right)?;
                model.join_cost(*op, (&lc, &lp), (&rc, &rp), &index.split(lp.rels, rp.rels))
            }
        }
    }

    /// `mv` at `at` by the owned-tree reference: the transformed tree, or
    /// `None` when the move does not apply.
    fn reference_move(tree: &Tree, at: At, mv: Move) -> Option<Tree> {
        let mut tree = tree.clone();
        let applied = match (at, mv) {
            (At::Join(k), Move::Commute) => tree.commute(k),
            (At::Join(k), Move::RotateRight) => tree.rotate_right(k),
            (At::Join(k), Move::RotateLeft) => tree.rotate_left(k),
            (At::Join(k), Move::SetJoinOp(op)) => tree.set_join_op(k, op),
            (At::Leaf(k), Move::SetScanOp(op)) => tree.set_scan_op(k, op),
            (At::Join(k), Move::IndexNl(column)) => tree.make_index_nl(k, column),
            _ => false,
        };
        applied.then_some(tree)
    }

    /// The bits of a cost vector and of the props' numbers.
    fn bits(cost: &CostVector, props: &PlanProps) -> Vec<u64> {
        let mut out: Vec<u64> = cost.as_array().iter().map(|v| v.to_bits()).collect();
        out.extend([props.rows, props.width, props.sampling_factor].map(f64::to_bits));
        out.push(u64::from(props.rels));
        out
    }

    /// Asserts that every node of the tree under `node` holds, bit for bit,
    /// the reference costing of its subtree, and its join and leaf counts.
    fn check_costs(model: &CostModel<'_>, index: &SplitIndex, node: &CostedNode) {
        let tree = Tree::owned(node);
        let (cost, props) =
            cost_tree_with(model, index, &tree).expect("every costed subtree costs from scratch");
        assert_eq!(bits(&node.cost, &node.props), bits(&cost, &props));
        assert_eq!(node.props.order, props.order);
        assert_eq!(
            (node.joins, node.leaves, node.props.rels),
            (tree.n_joins(), tree.n_leaves(), tree.rel_mask())
        );
        if let Shape::Join { left, right, .. } = &node.shape {
            check_costs(model, index, left);
            check_costs(model, index, right);
        }
    }

    /// Joins on the longest root-to-leaf path.
    fn height(node: &CostedNode) -> usize {
        match &node.shape {
            Shape::Scan { .. } => 0,
            Shape::Join { left, right, .. } => 1 + height(left).max(height(right)),
        }
    }

    /// A random catalog of `n` two-column tables (each column indexed or
    /// not), joined on random columns in one of the four shapes of
    /// `moqo_tpch::Topology`: 0 chain, 1 star, 2 cycle, 3 clique.
    fn topology_instance(topology: usize, n: usize, rng: &mut StdRng) -> (Catalog, JoinGraph) {
        let mut catalog = Catalog::new();
        let mut rels = Vec::new();
        for i in 0..n {
            let rows: f64 = rng.gen_range(100.0..200_000.0);
            let mut table = TableStats::new(format!("t{i}"), rows, rng.gen_range(8.0..400.0));
            for c in 0..2 {
                let mut column = ColumnStats::new(
                    format!("c{c}"),
                    (rows * rng.gen_range(0.01f64..1.0)).max(2.0),
                );
                if rng.gen_range(0.0..1.0) < 0.5 {
                    column = column.indexed();
                }
                table = table.with_column(column);
            }
            catalog.add_table(table);
            rels.push(BaseRel {
                table: TableId(i as u32),
                alias: format!("t{i}"),
                filter_selectivity: rng.gen_range(0.05..1.0),
            });
        }
        let pairs: Vec<(usize, usize)> = match topology {
            0 => (1..n).map(|i| (i - 1, i)).collect(),
            1 => (1..n).map(|i| (0, i)).collect(),
            2 => (1..n)
                .map(|i| (i - 1, i))
                .chain((n >= 3).then_some((n - 1, 0)))
                .collect(),
            _ => (0..n)
                .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                .collect(),
        };
        let edges = pairs
            .into_iter()
            .map(|(left_rel, right_rel)| JoinEdge {
                left_rel,
                left_col: rng.gen_range(0..2),
                right_rel,
                right_col: rng.gen_range(0..2),
                selectivity: rng.gen_range(1e-5..0.5),
            })
            .collect();
        let graph = JoinGraph { rels, edges };
        assert_eq!(graph.validate(&catalog), Ok(()));
        (catalog, graph)
    }

    /// A random move at a random address, one past the last join or leaf
    /// included. Index scans on unindexed columns, sampling with sampling
    /// off and index-nested-loop joins over other inner children make
    /// uncostable trees.
    fn random_move(tree: &CostedNode, rng: &mut StdRng) -> (At, Move) {
        let join = At::Join(rng.gen_range(0..=tree.joins));
        let column = rng.gen_range(0u16..2);
        match rng.gen_range(0u32..6) {
            0 => (join, Move::Commute),
            1 => (join, Move::RotateRight),
            2 => (join, Move::RotateLeft),
            3 => (
                join,
                Move::SetJoinOp(JoinOp::ALL[rng.gen_range(0..JoinOp::ALL.len())]),
            ),
            4 => {
                let op = match rng.gen_range(0u32..3) {
                    0 => ScanOp::SeqScan,
                    1 => ScanOp::IndexScan { column },
                    _ => ScanOp::SamplingScan {
                        rate_pct: SAMPLING_RATES_PCT[rng.gen_range(0..SAMPLING_RATES_PCT.len())],
                    },
                };
                (
                    At::Leaf(rng.gen_range(0..=tree.leaves)),
                    Move::SetScanOp(op),
                )
            }
            _ => (join, Move::IndexNl(column)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random move sequences on random graphs of every topology, with
        /// sampling on and off. After every move each costed node equals a
        /// from-scratch costing of its subtree bit for bit, the move costed
        /// no more than its path (plus the one node a rotation or an
        /// index-nested-loop rewrite adds), and its outcome — applied, not
        /// applicable or uncostable — and tree are the owned-tree
        /// reference's.
        #[test]
        fn costed_moves_match_the_owned_tree_reference(
            topology in 0usize..4,
            n in 2usize..=20,
            sampling in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (catalog, graph) = topology_instance(topology, n, &mut rng);
            let params = CostModelParams {
                enable_sampling: sampling,
                ..CostModelParams::default()
            };
            let model = CostModel::new(&params, &catalog, &graph);
            let index = SplitIndex::new(&model);
            let scan_opts = ScanOptions::new(&model);
            let mut coster = Coster::new(&model, &index);
            let mut scratch = TreeScratch::default();
            let mut tree = sample_random_tree(&mut coster, &scan_opts, &mut scratch, &mut rng)
                .expect("a nested-loop plan always exists");
            check_costs(&model, &index, &tree);
            for _ in 0..40 {
                let (at, mv) = random_move(&tree, &mut rng);
                let expected = reference_move(&Tree::owned(&tree), at, mv);
                let calls = coster.calls;
                match coster.apply(&tree, at, mv) {
                    Ok(next) => {
                        prop_assert_eq!(Some(Tree::owned(&next)), expected);
                        check_costs(&model, &index, &next);
                        prop_assert!(coster.calls - calls <= height(&tree) as u64 + 2);
                        tree = next;
                    }
                    Err(Miss::Uncostable) => {
                        let expected = expected.expect("the reference applies the move too");
                        prop_assert!(cost_tree_with(&model, &index, &expected).is_none());
                    }
                    Err(Miss::NotApplicable) => prop_assert!(expected.is_none()),
                }
            }
        }
    }
}
