//! `FindParetoPlans`: the shared bottom-up dynamic programming of
//! Algorithms 1 and 2.
//!
//! The enumeration follows the paper's pseudo-code, generating bushy plans:
//!
//! 1. plans for singleton table sets from all applicable scan operators,
//! 2. for table sets of increasing cardinality, all splits into two
//!    non-empty disjoint subsets, all join-operator configurations, and all
//!    combinations of stored sub-plans — each candidate goes through
//!    `Prune` (see [`crate::pareto`]).
//!
//! Two Postgres heuristics the paper deliberately kept (§4) are honoured:
//! Cartesian products are considered only for table sets that admit no
//! connected split, and (at the [`crate::Optimizer`] level) query blocks are
//! optimized separately.
//!
//! Plans are additionally grouped by output [`SortOrder`] — the slice of
//! Postgres path keys relevant here — and pruning happens within a group:
//! a sorted plan may be arbitrarily worse on every cost objective and still
//! be the key to a cheaper sort-merge join above, so comparing across orders
//! would break the principle of optimality.
//!
//! On deadline expiry the enumeration "finishes quickly by only generating
//! one plan for all table sets that have not been treated so far" (§5.1):
//! remaining sets get a single plan assembled greedily from the
//! best-weighted stored sub-plans.
//!
//! Everything a join derives from its two operand sets alone — the
//! equi-join predicate, the crossing selectivity and the output width — is
//! computed once per split by the block's split index and shared by every
//! plan pair and operator of that split. The same index answers the
//! Cartesian heuristic's connectivity test from per-relation neighbour
//! masks, here and in the randomized search.
//!
//! Most candidates are rejected on arrival, so the candidate loop skips
//! whole chunks of them. For each split, each right-side order group is cut
//! into chunks of up to eight consecutive plans, and each chunk gets a lower
//! bound: the component-wise minimum of its cost vectors, with its minimum
//! rows and the group's order. Every join formula is monotone in its
//! children's costs and rows (§6.1), so joining a left plan with the bound
//! costs at most what joining it with any plan of the chunk costs. When the
//! target rejects that bound join for an operator, it rejects every
//! candidate of the chunk with that operator: the incumbent that rejects the
//! bound also passes the cutoff scan, the α test and the rows cover of each
//! candidate. So those candidates are counted as considered but neither
//! costed nor probed. A decision holds only while the target table set
//! stores no new plan; after an insertion it is made again, so a skipped
//! candidate meets exactly the stored set that rejected its bound.
//!
//! For each left plan and chunk, the loop then runs as follows:
//!
//! * A chunk of one plan is its own bound: every applicable operator of the
//!   pair is costed and offered to the target.
//! * A longer chunk makes its decisions lazily, per operator, once the
//!   target stores a plan (an empty target rejects nothing). The first
//!   decision prices the bound under all ten operators in one pass
//!   ([`CostModel::join_costs`]); every decision and re-decision of the
//!   pair reads those prices and probes the target at most once. Each
//!   candidate whose decision does not reject is costed and offered.
//! * Once every operator's decision is current and rejected, no candidate
//!   left in the chunk can be offered, so no insertion can make a decision
//!   stale: the loop counts the remaining applicable (plan, operator) pairs,
//!   precomputed with the bound, as considered and leaves the chunk.
//!
//! A candidate pair is costed through one
//! [`JoinPair`](moqo_costmodel::JoinPair), built at its first costed
//! operator, so the operators of a family share their terms: a side's
//! sort, for one, is priced once for all four degrees of parallelism.
//!
//! The candidate order does not change, so fronts and `considered_plans`
//! are bit-identical to a loop that costs and probes every candidate, at
//! every α and in both prune modes. [`DpStats`] counts the work: costed
//! candidates, bound decisions and bound rejections.

use std::collections::HashMap;

use moqo_catalog::RelMask;
use moqo_cost::{CostVector, ObjectiveSet, Weights};
use moqo_costmodel::{CostModel, JoinKey, JoinSplit};
use moqo_plan::{JoinOp, PlanArena, PlanNode, PlanProps, ScanOp, SortOrder};

use crate::budget::Deadline;
use crate::pareto::{PlanSet, PruneMode, PruneStrategy};

pub use crate::pareto::PlanEntry;

/// Configuration of one `FindParetoPlans` run.
#[derive(Debug, Clone, Copy)]
pub struct DpConfig {
    /// Internal pruning precision `α_i` (1.0 = exact algorithm).
    pub alpha_internal: f64,
    /// Plan-tree shape to enumerate. The paper's Algorithm 1 is the
    /// left-deep original of Ganguly et al. "slightly extended to generate
    /// bushy plans in addition to left-deep plans" (§5); bushy is the
    /// default everywhere.
    pub tree_shape: TreeShape,
    /// Dominance relation plans are discarded under. The algorithm entry
    /// points select this via [`PruneMode::auto`]; calling
    /// `find_pareto_plans` directly with [`PruneMode::CostOnly`] while
    /// sampling scans are enabled and `TupleLoss` is unselected reproduces
    /// the unsound pruning the mode exists to fix.
    pub prune_mode: PruneMode,
}

/// Which join-tree shapes the dynamic programming enumerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TreeShape {
    /// All bushy trees (the paper's extended Algorithm 1).
    #[default]
    Bushy,
    /// Left-deep trees only: the inner (right) input of every join is a
    /// base relation (the original Ganguly et al. formulation).
    LeftDeep,
}

impl DpConfig {
    /// Exact enumeration (EXA) with cost-only pruning.
    #[must_use]
    pub fn exact() -> Self {
        DpConfig {
            alpha_internal: 1.0,
            tree_shape: TreeShape::Bushy,
            prune_mode: PruneMode::CostOnly,
        }
    }

    /// Approximate enumeration with internal precision `alpha_internal`.
    #[must_use]
    pub fn approximate(alpha_internal: f64) -> Self {
        DpConfig {
            alpha_internal,
            ..DpConfig::exact()
        }
    }

    /// Replaces the pruning mode (builder style).
    #[must_use]
    pub fn with_prune_mode(mut self, mode: PruneMode) -> Self {
        self.prune_mode = mode;
        self
    }
}

/// Counters and accounting collected during one run.
#[derive(Debug, Clone, Default)]
pub struct DpStats {
    /// Plans enumerated and pruned (the paper's "considered plans", which
    /// grow quadratically in the Pareto set sizes): every applicable
    /// candidate, whether it was costed and offered to `Prune` or skipped
    /// because the target rejected its chunk's lower bound (see the
    /// module docs).
    pub considered_plans: u64,
    /// Plans currently stored across all table sets.
    pub stored_plans: usize,
    /// Peak of [`DpStats::stored_plans`], sampled whenever a table set
    /// completes (rather than after every insertion): the stored sets at a
    /// completion boundary are determined by the candidate *set*, not the
    /// candidate *order*, so the peak is comparable across enumeration-order
    /// changes. Transient within-set spikes are deliberately not counted.
    pub peak_stored_plans: usize,
    /// Deterministic memory model: peak stored plans × bytes per stored
    /// plan (plan node + cost vector + entry bookkeeping), in bytes.
    pub peak_memory_bytes: usize,
    /// Number of stored plans for the last table set that was treated
    /// completely (the paper's "#Pareto plans" metric, Figures 5 and 9).
    pub pareto_last_complete: usize,
    /// Maximum plan-set size over all (table set, order) groups.
    pub max_group_size: usize,
    /// Every `would_reject` probe, summed over every plan set of the run
    /// (each probe tests its set's last rejector, then scans the sorted
    /// prefix up to its cutoff): one per costed candidate and at most one
    /// per chunk-bound decision. Candidates skipped by a rejected bound are
    /// not probed.
    pub frontier_scan_probes: u64,
    /// The stored plans those probes compared with their candidate, the
    /// last-rejector test included, summed over every plan set of the run
    /// (see [`PlanSet::scan_steps`]). Divided by
    /// [`DpStats::frontier_scan_probes`], it is the mean scan length: the
    /// deterministic measure of what a change to the hint, the sort order
    /// or the cutoff saves.
    pub frontier_scan_steps: u64,
    /// Candidates costed and offered to their target's plan set: every
    /// scan of phase 1, every join candidate no rejected bound skipped,
    /// and the one plan per table set of the quick-finish path.
    pub costed_candidates: u64,
    /// Chunk-bound decisions made: each is one bound join and at most one
    /// probe (none when the operator applies to no plan of the chunk or
    /// the target has no group of the bound's order). A decision is made
    /// again after every insertion into the target, so this counts the
    /// re-decisions too.
    pub bound_decisions: u64,
    /// The [`DpStats::bound_decisions`] that rejected the bound, and with
    /// it the chunk's candidates for that operator.
    pub bound_rejections: u64,
    /// Whether the deadline expired and the quick-finish path ran.
    pub timed_out: bool,
}

impl DpStats {
    /// Bytes accounted per stored plan: the O(1)-space representation of
    /// Theorem 1 (plan node + cost vector + props + id).
    #[must_use]
    pub fn bytes_per_stored_plan() -> usize {
        PlanArena::bytes_per_node() + std::mem::size_of::<PlanEntry>()
    }

    fn on_stored_delta(&mut self, inserted: bool, deleted: usize) {
        if inserted {
            self.stored_plans += 1;
        }
        self.stored_plans -= deleted;
    }

    /// Samples the peak at a table-set completion boundary (see
    /// [`DpStats::peak_stored_plans`]).
    fn on_set_completed(&mut self) {
        if self.stored_plans > self.peak_stored_plans {
            self.peak_stored_plans = self.stored_plans;
            self.peak_memory_bytes = self.peak_stored_plans * Self::bytes_per_stored_plan();
        }
    }
}

/// Result of one `FindParetoPlans` run.
#[derive(Debug)]
pub struct DpResult {
    /// Arena owning every plan generated during the run.
    pub arena: PlanArena,
    /// The (approximate) Pareto plan set for the full table set, flattened
    /// over order groups.
    pub final_plans: Vec<PlanEntry>,
    /// Run statistics.
    pub stats: DpStats,
}

/// Per-table-set state: one [`PlanSet`] per output order.
///
/// The groups are a vector kept sorted by order, so entry iteration (and
/// with it the candidate stream of every superset, the flattened final
/// front, and the stored sets under *approximate* pruning, which are
/// insertion-order dependent) is deterministic: it visits the groups in
/// the order a `BTreeMap` keyed by order would. A `HashMap`'s per-instance
/// seed made α > 1 runs irreproducible. A table set has a handful of
/// orders at most, so a lookup is a short binary search and the walk over
/// a right side's groups, once per left plan, is a slice walk.
#[derive(Debug, Default)]
struct OrderGroups {
    groups: Vec<(SortOrder, PlanSet)>,
    completed: bool,
    /// Plans stored so far, never decremented: a chunk-bound decision made
    /// at one count holds exactly while the count is unchanged.
    insertions: u64,
}

impl OrderGroups {
    fn sets(&self) -> impl Iterator<Item = &PlanSet> {
        self.groups.iter().map(|(_, set)| set)
    }

    /// The group of plans with output order `order`, if any is stored.
    fn get(&self, order: SortOrder) -> Option<&PlanSet> {
        self.position(order).map(|i| &self.groups[i].1)
    }

    /// The group of `order`, inserted empty in its sorted place if absent.
    fn get_or_insert(&mut self, order: SortOrder) -> &mut PlanSet {
        let i = self.position(order).unwrap_or_else(|| {
            let i = self.groups.partition_point(|(o, _)| *o < order);
            self.groups.insert(i, (order, PlanSet::new()));
            i
        });
        &mut self.groups[i].1
    }

    /// Where the group of `order` is: a linear scan for equality, which
    /// beats a binary search's ordered compares on a handful of groups.
    fn position(&self, order: SortOrder) -> Option<usize> {
        self.groups.iter().position(|(o, _)| *o == order)
    }

    fn total_plans(&self) -> usize {
        self.sets().map(PlanSet::len).sum()
    }

    fn iter_entries(&self) -> impl Iterator<Item = &PlanEntry> {
        self.sets().flat_map(PlanSet::iter)
    }

    fn best_weighted(&self, weights: &Weights) -> Option<PlanEntry> {
        self.iter_entries()
            .min_by(|a, b| {
                weights
                    .weighted_cost(&a.cost)
                    .partial_cmp(&weights.weighted_cost(&b.cost))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .copied()
    }
}

/// Computes the (approximate) Pareto plan set for the model's query block.
///
/// * `objectives` — the selected objective subset (dominance dimensions).
/// * `config` — pruning precision, tree shape and pruning mode.
/// * `weights` — used only by the quick-finish path after a timeout, to pick
///   the single surviving plan per remaining table set.
/// * `deadline` — wall-clock budget; see module docs for expiry semantics.
///
/// # Panics
///
/// Panics if the query block is empty or has more than 24 relations.
#[must_use]
pub fn find_pareto_plans(
    model: &CostModel<'_>,
    objectives: ObjectiveSet,
    config: &DpConfig,
    weights: &Weights,
    deadline: &Deadline,
) -> DpResult {
    let n = model.graph.n_rels();
    assert!(n >= 1, "query block must contain at least one relation");
    assert!(n <= 24, "query blocks beyond 24 relations are unsupported");

    let strategy = PruneStrategy {
        alpha_internal: config.alpha_internal,
        mode: config.prune_mode,
    };
    let full_mask: RelMask = model.graph.full_mask();
    let mut arena = PlanArena::new();
    let mut stats = DpStats::default();
    // Dense DP table indexed by mask; entry 0 unused.
    let mut table: Vec<OrderGroups> = Vec::with_capacity(1 << n);
    for _ in 0..(1usize << n) {
        table.push(OrderGroups::default());
    }

    let index = SplitIndex::new(model);
    // The right side's chunk bounds, rebuilt per split into one buffer.
    let mut bounds: Vec<ChunkBound> = Vec::new();

    // Phase 1: access paths for single tables.
    for rel in 0..n {
        let mask = 1u32 << rel;
        let target = &mut table[mask as usize];
        for op in scan_configurations(model, rel) {
            if let Some((cost, props)) = model.scan_cost(rel, op) {
                stats.considered_plans += 1;
                offer_entry(
                    target,
                    cost,
                    props,
                    |a| a.scan(rel, op),
                    &mut arena,
                    &strategy,
                    objectives,
                    &mut stats,
                );
            }
        }
        target.completed = true;
        stats.pareto_last_complete = target.total_plans();
        stats.on_set_completed();
    }

    // Phase 2: table sets of increasing cardinality.
    'outer: for mask in masks_by_cardinality(n) {
        if deadline.expired() {
            stats.timed_out = true;
            break 'outer;
        }
        let splits = enumerate_splits(&index, mask, config.tree_shape);
        // Split the borrow: take the target group out of the table, so both
        // sub-plan sides are read in place — no per-split clones of the two
        // entry sets. `mask` is a strict superset of every split side, so
        // the taken slot is never read below.
        let mut target = std::mem::take(&mut table[mask as usize]);
        'mask: for (m1, m2) in splits {
            let split = index.split(m1, m2);
            let key = split.key.as_ref();
            let rights = &table[m2 as usize];
            chunk_bounds(rights, &arena, key, &mut bounds);
            for left in table[m1 as usize].iter_entries() {
                let left_pair = (&left.cost, &left.props);
                let chunks = rights.sets().flat_map(|set| set.entries().chunks(CHUNK));
                for (chunk, bound) in chunks.zip(&bounds) {
                    let mut decisions = Decisions::default();
                    // The bound's join under every operator, computed at
                    // the pair's first decision and read by every decision
                    // after it.
                    let mut bound_joins = None;
                    for (i, (right, &right_canonical)) in
                        chunk.iter().zip(&bound.canonical).enumerate()
                    {
                        if decisions.all_rejected(target.insertions) {
                            // Nothing left in the chunk can be offered, so
                            // no insertion can make a decision stale.
                            stats.considered_plans += bound.applicable_from[i];
                            break;
                        }
                        if deadline.expired() {
                            stats.timed_out = true;
                            break 'mask;
                        }
                        let right_pair = (&right.cost, &right.props);
                        let mut pair = None;
                        for (k, op) in JoinOp::ALL.into_iter().enumerate() {
                            // A chunk of one is its own bound and makes no
                            // decision; an empty target rejects nothing.
                            let skip = chunk.len() > 1
                                && target.insertions > 0
                                && decisions.rejected(k, target.insertions, || {
                                    let joins = bound_joins.get_or_insert_with(|| {
                                        model.join_costs(
                                            left_pair,
                                            (&bound.cost, &bound.props),
                                            &split,
                                            bound.canonical.contains(&true),
                                        )
                                    });
                                    let rejected = bound_rejected(
                                        joins[k].as_ref(),
                                        &target,
                                        &strategy,
                                        objectives,
                                    );
                                    stats.bound_decisions += 1;
                                    stats.bound_rejections += u64::from(rejected);
                                    rejected
                                });
                            if skip {
                                if op_applies(op, key, right_canonical) {
                                    stats.considered_plans += 1;
                                }
                                continue;
                            }
                            let combined = pair
                                .get_or_insert_with(|| {
                                    model.join_pair(left_pair, right_pair, &split, right_canonical)
                                })
                                .cost(op);
                            debug_assert_eq!(
                                combined.is_some(),
                                op_applies(op, key, right_canonical)
                            );
                            let Some((cost, props)) = combined else {
                                continue;
                            };
                            stats.considered_plans += 1;
                            offer_entry(
                                &mut target,
                                cost,
                                props,
                                |a| a.join(op, left.plan, right.plan),
                                &mut arena,
                                &strategy,
                                objectives,
                                &mut stats,
                            );
                        }
                    }
                }
            }
        }
        target.completed = !stats.timed_out;
        let total = target.total_plans();
        table[mask as usize] = target;
        // A timed-out set is still sampled: its partial plans are resident
        // and the quick-finish pass builds on top of them.
        stats.on_set_completed();
        if stats.timed_out {
            break 'outer;
        }
        stats.pareto_last_complete = total;
    }

    if stats.timed_out {
        quick_finish(
            model,
            &index,
            &mut table,
            &mut arena,
            weights,
            objectives,
            config.prune_mode,
            &mut stats,
        );
    }

    // Roll the per-set probe counters up into the run stats — including
    // timed-out and quick-finish sets, whose probes are real work too.
    for set in table.iter().flat_map(OrderGroups::sets) {
        stats.frontier_scan_probes += set.probes();
        stats.frontier_scan_steps += set.scan_steps();
    }

    let final_plans: Vec<PlanEntry> = table[full_mask as usize].iter_entries().copied().collect();
    debug_assert!(
        !final_plans.is_empty(),
        "the DP must produce at least one plan for the full table set"
    );
    DpResult {
        arena,
        final_plans,
        stats,
    }
}

/// Scan operator configurations for one relation: sequential scan, index
/// scans on every indexed column, and the five sampling rates — streamed,
/// so per-relation callers (the DP's phase 1, random tree construction)
/// allocate nothing.
pub(crate) fn scan_configurations<'m>(
    model: &'m CostModel<'_>,
    rel: usize,
) -> impl Iterator<Item = ScanOp> + 'm {
    let table = model.catalog.table(model.graph.rels[rel].table);
    let sampling = model.params.enable_sampling;
    std::iter::once(ScanOp::SeqScan)
        .chain(
            table
                .columns
                .iter()
                .enumerate()
                .filter(|(_, col)| col.indexed)
                .map(|(ordinal, _)| ScanOp::IndexScan {
                    column: ordinal as u16,
                }),
        )
        .chain(
            sampling
                .then_some(moqo_plan::SAMPLING_RATES_PCT)
                .into_iter()
                .flatten()
                .map(|rate_pct| ScanOp::SamplingScan { rate_pct }),
        )
}

/// Per-relation scan configurations materialized once per run — the random
/// search re-draws scan operators for every sampled tree and every mutation,
/// so it indexes into this table instead of re-deriving (or re-allocating)
/// the option list per draw.
pub(crate) struct ScanOptions {
    per_rel: Vec<Vec<ScanOp>>,
}

impl ScanOptions {
    pub(crate) fn new(model: &CostModel<'_>) -> Self {
        ScanOptions {
            per_rel: (0..model.graph.n_rels())
                .map(|rel| scan_configurations(model, rel).collect())
                .collect(),
        }
    }

    /// The scan operators applicable to `rel`, in the canonical
    /// [`scan_configurations`] order.
    pub(crate) fn for_rel(&self, rel: usize) -> &[ScanOp] {
        &self.per_rel[rel]
    }
}

/// All masks with 2..=n bits, in increasing cardinality and ascending
/// numeric order within each cardinality — the exact order the eager table
/// produced (stable sort over an ascending range), but streamed: the eager
/// variant materialized and sorted all `2^n` masks (16M entries at n = 24)
/// and was built twice on every timed-out run.
pub(crate) fn masks_by_cardinality(n: usize) -> impl Iterator<Item = RelMask> {
    let n = u32::try_from(n).expect("query blocks are capped at 24 relations");
    (2..=n).flat_map(move |k| GosperMasks::new(n, k))
}

/// Iterator over all `n`-bit masks with exactly `k` bits set, ascending
/// (Gosper's hack: each step computes the next-larger integer with the same
/// population count).
struct GosperMasks {
    next: Option<u32>,
    /// Exclusive upper bound `1 << n`.
    limit: u32,
}

impl GosperMasks {
    fn new(n: u32, k: u32) -> Self {
        debug_assert!(k >= 1 && k <= n && n < 32);
        GosperMasks {
            next: Some((1u32 << k) - 1),
            limit: 1u32 << n,
        }
    }
}

impl Iterator for GosperMasks {
    type Item = RelMask;

    fn next(&mut self) -> Option<RelMask> {
        let cur = self.next.take()?;
        let c = cur & cur.wrapping_neg();
        let r = cur.wrapping_add(c);
        let succ = (((r ^ cur) >> 2) / c) | r;
        if succ < self.limit {
            self.next = Some(succ);
        }
        Some(cur)
    }
}

/// The per-block split index: what [`CostModel::join_cost`] reads from a
/// split's two relation sets, and the connectivity test of the Cartesian
/// heuristic, answered from masks resolved once per run.
///
/// [`SplitIndex::split`] makes one ascending pass over the edges' endpoint
/// masks and one over the output's relations. It performs the float
/// operations of [`JoinGraph::crossing_selectivity`] and
/// [`subset_width`] in the same order, so every split (and with it every
/// costed plan) is bit-identical to those reference definitions
/// (`test_support::check_split_index` holds it to them).
///
/// [`JoinGraph::crossing_selectivity`]: moqo_catalog::JoinGraph::crossing_selectivity
/// [`subset_width`]: moqo_catalog::subset_width
pub(crate) struct SplitIndex {
    edges: Vec<EdgeSplit>,
    /// Both key orientations of each edge, in edge order: its left endpoint
    /// on the outer side, then its right endpoint. Kept apart from `edges`,
    /// which every split scans, because a split reads only the first
    /// crossing edge's key.
    keys: Vec<[JoinKey; 2]>,
    /// Tuple width of each relation's table.
    widths: Vec<f64>,
    /// For each relation, the relations it shares a join edge with.
    adjacency: Vec<RelMask>,
}

/// One join-graph edge's endpoint masks and selectivity.
struct EdgeSplit {
    left_mask: RelMask,
    right_mask: RelMask,
    selectivity: f64,
}

impl SplitIndex {
    /// Resolves the model's join graph and catalog into the index.
    pub(crate) fn new(model: &CostModel<'_>) -> Self {
        let graph = model.graph;
        let mut adjacency = vec![0; graph.n_rels()];
        let edges = graph
            .edges
            .iter()
            .map(|e| {
                adjacency[e.left_rel] |= 1u32 << e.right_rel;
                adjacency[e.right_rel] |= 1u32 << e.left_rel;
                EdgeSplit {
                    left_mask: 1u32 << e.left_rel,
                    right_mask: 1u32 << e.right_rel,
                    selectivity: e.selectivity,
                }
            })
            .collect();
        let keys = graph
            .edges
            .iter()
            .map(|e| {
                let (left, right) = ((e.left_rel, e.left_col), (e.right_rel, e.right_col));
                [model.join_key(left, right), model.join_key(right, left)]
            })
            .collect();
        let widths = graph
            .rels
            .iter()
            .map(|rel| model.catalog.table(rel.table).tuple_bytes)
            .collect();
        SplitIndex {
            edges,
            keys,
            widths,
            adjacency,
        }
    }

    /// The split of the disjoint sets `m1` (outer) and `m2` (inner). The
    /// first crossing edge in declaration order gives the key, normalized
    /// so its left fields refer to `m1`; the selectivity multiplies every
    /// crossing edge's into 1.0 in edge order; the width sums the tuple
    /// widths of `m1 | m2` in ascending relation order, at least 1.0.
    pub(crate) fn split(&self, m1: RelMask, m2: RelMask) -> JoinSplit {
        let mut key = None;
        let mut selectivity = 1.0;
        for (e, keys) in self.edges.iter().zip(&self.keys) {
            let crosses = (e.left_mask & m1 != 0 && e.right_mask & m2 != 0)
                || (e.right_mask & m1 != 0 && e.left_mask & m2 != 0);
            if crosses {
                selectivity *= e.selectivity;
                if key.is_none() {
                    key = Some(keys[usize::from(e.left_mask & m1 == 0)]);
                }
            }
        }
        let mut width = 0.0;
        let mut rels = m1 | m2;
        while rels != 0 {
            width += self.widths[rels.trailing_zeros() as usize];
            rels &= rels - 1;
        }
        JoinSplit {
            key,
            selectivity,
            width: width.max(1.0),
        }
    }

    /// Every relation that shares a join edge with a relation of `mask`:
    /// `neighbours(a) & b != 0` iff [`JoinGraph::connects`]`(a, b)`.
    ///
    /// [`JoinGraph::connects`]: moqo_catalog::JoinGraph::connects
    pub(crate) fn neighbours(&self, mask: RelMask) -> RelMask {
        let mut out = 0;
        let mut rels = mask;
        while rels != 0 {
            out |= self.adjacency[rels.trailing_zeros() as usize];
            rels &= rels - 1;
        }
        out
    }
}

/// Ordered splits of `mask` into two non-empty disjoint subsets, honouring
/// the Cartesian-product heuristic: if any split is connected by a join
/// edge, unconnected splits are dropped. Left-deep enumeration restricts
/// the inner (right) side to singletons. Streamed — the eager version
/// allocated two `Vec`s per mask in the DP's hottest outer loop. The
/// connected-splits-exist decision is made up front from the neighbour
/// masks: `mask` admits a connected split iff some edge lies entirely
/// within it (either endpoint's singleton split is then connected, and for
/// left-deep shape the `(mask∖{v}, {v})` split qualifies), so the
/// heuristic never needs the full split list materialized.
fn enumerate_splits(index: &SplitIndex, mask: RelMask, shape: TreeShape) -> SplitIter<'_> {
    debug_assert!(mask.count_ones() >= 2, "splits need at least two relations");
    let connected_only = index.neighbours(mask) & mask != 0;
    SplitIter {
        index,
        mask,
        next_m1: (mask - 1) & mask,
        shape,
        connected_only,
    }
}

/// Streaming sub-mask enumeration behind [`enumerate_splits`]; yields the
/// exact sequence the eager version produced (descending `m1`, filtered).
struct SplitIter<'i> {
    index: &'i SplitIndex,
    mask: RelMask,
    next_m1: RelMask,
    shape: TreeShape,
    connected_only: bool,
}

impl Iterator for SplitIter<'_> {
    type Item = (RelMask, RelMask);

    fn next(&mut self) -> Option<(RelMask, RelMask)> {
        while self.next_m1 != 0 {
            let m1 = self.next_m1;
            self.next_m1 = (m1 - 1) & self.mask;
            let m2 = self.mask ^ m1;
            if self.shape == TreeShape::LeftDeep && m2.count_ones() != 1 {
                continue;
            }
            if self.connected_only && self.index.neighbours(m1) & m2 == 0 {
                continue;
            }
            return Some((m1, m2));
        }
        None
    }
}

/// Whether `entry` is exactly the canonical index-scan plan on the join
/// key's inner column (precondition of index-nested-loop joins).
fn is_canonical_index_scan(arena: &PlanArena, entry: &PlanEntry, key: Option<&JoinKey>) -> bool {
    let Some(key) = key else { return false };
    if entry.props.rels.count_ones() != 1 {
        return false;
    }
    matches!(
        arena.node(entry.plan),
        PlanNode::Scan {
            rel,
            op: ScanOp::IndexScan { column },
        } if rel == key.right_rel && column == key.right_col
    )
}

/// Whether [`CostModel::join_cost`] applies `op` to an inner plan of a split
/// with join key `key`: every operator but the nested loop needs the key,
/// and the index-nested loop also needs an indexed inner column read by its
/// canonical index scan.
fn op_applies(op: JoinOp, key: Option<&JoinKey>, right_canonical: bool) -> bool {
    match op {
        JoinOp::NestedLoop => true,
        JoinOp::HashJoin { .. } | JoinOp::SortMergeJoin { .. } => key.is_some(),
        JoinOp::IndexNestedLoop => right_canonical && key.is_some_and(|k| k.inner_index.is_some()),
    }
}

/// Right-side plans per chunk of the candidate loop: one bound join per
/// left plan and operator stands in for up to this many candidates.
const CHUNK: usize = 8;

/// A lower bound on the plans of one chunk, for the split being enumerated.
struct ChunkBound {
    /// Component-wise minimum of the chunk's cost vectors.
    cost: CostVector,
    /// The group's properties (rels, order, width) with the chunk's
    /// minimum rows.
    props: PlanProps,
    /// Per plan: whether it is the canonical index scan of the split's key.
    canonical: [bool; CHUNK],
    /// Per plan: the applicable (plan, operator) pairs of that plan and the
    /// plans after it in the chunk, which a rejected chunk skips at once.
    applicable_from: [u64; CHUNK],
}

/// Rebuilds `out` with the bound of every chunk of `rights`, in the order
/// the candidate loop visits them: order groups in map order, each cut into
/// runs of [`CHUNK`] consecutive plans.
fn chunk_bounds(
    rights: &OrderGroups,
    arena: &PlanArena,
    key: Option<&JoinKey>,
    out: &mut Vec<ChunkBound>,
) {
    out.clear();
    for set in rights.sets() {
        for chunk in set.entries().chunks(CHUNK) {
            let mut bound = ChunkBound {
                cost: chunk[0].cost,
                props: chunk[0].props,
                canonical: [false; CHUNK],
                applicable_from: [0; CHUNK],
            };
            for (entry, canonical) in chunk.iter().zip(&mut bound.canonical) {
                debug_assert!(
                    entry.props.rels == bound.props.rels
                        && entry.props.order == bound.props.order
                        && entry.props.width.to_bits() == bound.props.width.to_bits(),
                    "an order group shares its relations, order and width"
                );
                bound.cost = bound.cost.component_min(&entry.cost);
                bound.props.rows = bound.props.rows.min(entry.props.rows);
                *canonical = is_canonical_index_scan(arena, entry, key);
            }
            let mut applicable = 0;
            for i in (0..chunk.len()).rev() {
                let canonical = bound.canonical[i];
                applicable += JoinOp::ALL
                    .into_iter()
                    .filter(|&op| op_applies(op, key, canonical))
                    .count() as u64;
                bound.applicable_from[i] = applicable;
            }
            out.push(bound);
        }
    }
}

/// The skip decisions of one (left plan, chunk) pair, one per operator of
/// [`JoinOp::ALL`]: whether the bound was rejected, and the target's
/// insertion count when that was decided.
#[derive(Default)]
struct Decisions([Option<(u64, bool)>; JoinOp::ALL.len()]);

impl Decisions {
    /// Whether the bound of operator `k` is rejected at the target's
    /// insertion count `insertions`. The decision is made again with
    /// `decide` when the target stored a plan since it was last made, so
    /// a skip never rests on a stored set that has since changed.
    fn rejected(&mut self, k: usize, insertions: u64, decide: impl FnOnce() -> bool) -> bool {
        match self.0[k] {
            Some((at, rejected)) if at == insertions => rejected,
            _ => {
                let rejected = decide();
                self.0[k] = Some((insertions, rejected));
                rejected
            }
        }
    }

    /// Whether every operator's decision is current at the target's
    /// insertion count `insertions` and rejected the bound.
    fn all_rejected(&self, insertions: u64) -> bool {
        self.0.iter().all(|d| *d == Some((insertions, true)))
    }
}

/// Whether the target rejects one operator's join of a left plan with the
/// chunk's lower bound (`None` when the operator applies to no plan of the
/// chunk, which counts as rejected), and with it every candidate of the
/// chunk under that operator (see the module docs).
fn bound_rejected(
    joined: Option<&(CostVector, PlanProps)>,
    target: &OrderGroups,
    strategy: &PruneStrategy,
    objectives: ObjectiveSet,
) -> bool {
    joined.is_none_or(|(cost, props)| {
        target
            .get(props.order)
            .is_some_and(|set| set.would_reject(cost, props, strategy, objectives))
    })
}

/// Offers a costed candidate to the right order group, building its arena
/// node only when it survives the rejection probe. The vast majority of
/// considered plans are dominated on arrival, so probing before allocating
/// keeps arena growth bounded by *accepted* plans rather than the full
/// candidate stream (the caller has already counted the candidate in
/// `considered_plans`; rejected candidates never touched the stored set, so
/// every statistic is unchanged against the allocate-then-prune loop).
#[allow(clippy::too_many_arguments)]
fn offer_entry(
    groups: &mut OrderGroups,
    cost: moqo_cost::CostVector,
    props: moqo_plan::PlanProps,
    build_plan: impl FnOnce(&mut PlanArena) -> moqo_plan::PlanId,
    arena: &mut PlanArena,
    strategy: &PruneStrategy,
    objectives: ObjectiveSet,
    stats: &mut DpStats,
) {
    stats.costed_candidates += 1;
    let set = groups.get_or_insert(props.order);
    if set.would_reject(&cost, &props, strategy, objectives) {
        return;
    }
    let plan = build_plan(arena);
    let deleted = set.insert_unrejected(PlanEntry { cost, props, plan }, strategy, objectives);
    stats.on_stored_delta(true, deleted);
    if set.len() > stats.max_group_size {
        stats.max_group_size = set.len();
    }
    groups.insertions += 1;
}

/// Inserts a pre-built entry into the right order group, maintaining
/// statistics (quick-finish path: the plan node already exists because only
/// the weighted-best candidate per table set is ever materialized).
fn insert_entry(
    groups: &mut OrderGroups,
    entry: PlanEntry,
    strategy: &PruneStrategy,
    objectives: ObjectiveSet,
    stats: &mut DpStats,
) {
    stats.costed_candidates += 1;
    let set = groups.get_or_insert(entry.props.order);
    let before = set.len();
    let inserted = set.prune_insert(entry, strategy, objectives);
    let after = set.len();
    if inserted {
        groups.insertions += 1;
        // after = before + 1 − deleted.
        let deleted = before + 1 - after;
        stats.on_stored_delta(true, deleted);
        if after > stats.max_group_size {
            stats.max_group_size = after;
        }
    }
}

/// §5.1 timeout semantics: give every untreated table set exactly one plan,
/// assembled from the best-weighted stored sub-plans.
#[allow(clippy::too_many_arguments)]
fn quick_finish(
    model: &CostModel<'_>,
    index: &SplitIndex,
    table: &mut [OrderGroups],
    arena: &mut PlanArena,
    weights: &Weights,
    objectives: ObjectiveSet,
    prune_mode: PruneMode,
    stats: &mut DpStats,
) {
    let n = model.graph.n_rels();
    // A table set's best-weighted entry requires a full scan over all of its
    // order groups, and the old loop recomputed it for both sides of every
    // split. Sets probed here are always in their final state (the quick
    // pass walks masks in cardinality order, completing each before any
    // superset probes it), so one memoized scan per mask suffices.
    let mut best_cache: HashMap<RelMask, Option<PlanEntry>> = HashMap::new();
    for mask in masks_by_cardinality(n) {
        if table[mask as usize].completed {
            continue;
        }
        let splits = enumerate_splits(index, mask, TreeShape::Bushy);
        let mut best: Option<PlanEntry> = None;
        for (m1, m2) in splits {
            let mut cached_best = |m: RelMask| {
                *best_cache
                    .entry(m)
                    .or_insert_with(|| table[m as usize].best_weighted(weights))
            };
            let (Some(left), Some(right)) = (cached_best(m1), cached_best(m2)) else {
                continue;
            };
            let split = index.split(m1, m2);
            let right_canonical = is_canonical_index_scan(arena, &right, split.key.as_ref());
            for op in JoinOp::ALL {
                let Some((cost, props)) = model.join_cost(
                    op,
                    (&left.cost, &left.props),
                    (&right.cost, &right.props),
                    &split,
                    right_canonical,
                ) else {
                    continue;
                };
                let better = best
                    .as_ref()
                    .is_none_or(|b| weights.weighted_cost(&cost) < weights.weighted_cost(&b.cost));
                if better {
                    let plan = arena.join(op, left.plan, right.plan);
                    best = Some(PlanEntry { cost, props, plan });
                }
            }
            // One split suffices for the quick path once a plan exists.
            if best.is_some() {
                break;
            }
        }
        let entry = best.expect("every table set admits at least a nested-loop plan");
        let groups = &mut table[mask as usize];
        insert_entry(
            groups,
            entry,
            &PruneStrategy::exact().with_mode(prune_mode),
            objectives,
            stats,
        );
        groups.completed = true;
        stats.on_set_completed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_catalog::{Catalog, ColumnStats, JoinGraph, JoinGraphBuilder, TableStats};
    use moqo_cost::Objective;
    use moqo_costmodel::CostModelParams;
    use std::time::Duration;

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

    fn objs2() -> ObjectiveSet {
        ObjectiveSet::from_objectives(&[Objective::TotalTime, Objective::BufferFootprint])
    }

    #[test]
    fn exact_dp_produces_plans_for_full_set() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let result = find_pareto_plans(
            &model,
            objs2(),
            &DpConfig::exact(),
            &Weights::single(Objective::TotalTime),
            &Deadline::unlimited(),
        );
        assert!(!result.final_plans.is_empty());
        assert!(!result.stats.timed_out);
        assert!(result.stats.considered_plans > 0);
        for entry in &result.final_plans {
            assert_eq!(entry.props.rels, g.full_mask());
            assert_eq!(result.arena.leaf_count(entry.plan), 3);
        }
    }

    #[test]
    fn approximate_dp_stores_fewer_plans() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let w = Weights::single(Objective::TotalTime);
        let exact = find_pareto_plans(
            &model,
            objs2(),
            &DpConfig::exact(),
            &w,
            &Deadline::unlimited(),
        );
        let approx = find_pareto_plans(
            &model,
            objs2(),
            &DpConfig::approximate(2.0f64.powf(1.0 / 3.0)),
            &w,
            &Deadline::unlimited(),
        );
        assert!(approx.stats.peak_stored_plans <= exact.stats.peak_stored_plans);
        assert!(approx.stats.considered_plans <= exact.stats.considered_plans);
        assert!(!approx.final_plans.is_empty());
    }

    #[test]
    fn single_objective_keeps_one_plan_per_group() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let objs = ObjectiveSet::single(Objective::TotalTime);
        let result = find_pareto_plans(
            &model,
            objs,
            &DpConfig::exact(),
            &Weights::single(Objective::TotalTime),
            &Deadline::unlimited(),
        );
        // Per (set, order) group at most one plan survives with one objective.
        assert!(result.stats.max_group_size == 1);
    }

    #[test]
    fn timeout_still_yields_full_plan() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let result = find_pareto_plans(
            &model,
            ObjectiveSet::all(),
            &DpConfig::exact(),
            &Weights::single(Objective::TotalTime),
            &Deadline::new(Some(Duration::ZERO)),
        );
        assert!(result.stats.timed_out);
        assert!(!result.final_plans.is_empty());
        for entry in &result.final_plans {
            assert_eq!(entry.props.rels, g.full_mask());
        }
    }

    #[test]
    fn cartesian_only_without_edges() {
        let params = CostModelParams::default();
        let mut cat = Catalog::new();
        cat.add_table(TableStats::new("a", 100.0, 50.0).with_column(ColumnStats::new("id", 100.0)));
        cat.add_table(TableStats::new("b", 200.0, 50.0).with_column(ColumnStats::new("id", 200.0)));
        let graph = JoinGraphBuilder::new(&cat)
            .rel("a", 1.0)
            .rel("b", 1.0)
            .build();
        let model = CostModel::new(&params, &cat, &graph);
        let result = find_pareto_plans(
            &model,
            objs2(),
            &DpConfig::exact(),
            &Weights::single(Objective::TotalTime),
            &Deadline::unlimited(),
        );
        // All full-set plans must be nested-loop joins (the only Cartesian op).
        for entry in &result.final_plans {
            let joins = result.arena.join_ops(entry.plan);
            assert!(joins.iter().all(|op| matches!(op, JoinOp::NestedLoop)));
        }
    }

    #[test]
    fn pareto_metric_tracks_last_completed_set() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let result = find_pareto_plans(
            &model,
            objs2(),
            &DpConfig::exact(),
            &Weights::single(Objective::TotalTime),
            &Deadline::unlimited(),
        );
        assert_eq!(
            result.stats.pareto_last_complete,
            result.final_plans.len(),
            "last completed set is the full set on an untimed run"
        );
    }

    #[test]
    fn memory_accounting_is_consistent() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        let result = find_pareto_plans(
            &model,
            objs2(),
            &DpConfig::exact(),
            &Weights::single(Objective::TotalTime),
            &Deadline::unlimited(),
        );
        assert!(result.stats.peak_stored_plans >= result.stats.stored_plans);
        assert_eq!(
            result.stats.peak_memory_bytes,
            result.stats.peak_stored_plans * DpStats::bytes_per_stored_plan()
        );
    }

    #[test]
    fn skip_decisions_are_made_again_after_an_insertion() {
        let mut decisions = Decisions::default();
        let mut made = 0;
        let mut decide = |rejected: bool| {
            made += 1;
            rejected
        };
        assert!(decisions.rejected(3, 1, || decide(true)));
        assert!(decisions.rejected(3, 1, || decide(false)), "still current");
        assert!(
            !decisions.rejected(3, 2, || decide(false)),
            "stale after an insertion"
        );
        assert!(
            decisions.rejected(4, 2, || decide(true)),
            "one decision per operator"
        );
        assert_eq!(made, 3);
    }

    #[test]
    fn a_chunk_is_left_only_when_every_decision_is_current_and_rejected() {
        let mut decisions = Decisions::default();
        assert!(!decisions.all_rejected(0), "no decision made yet");
        for k in 0..JoinOp::ALL.len() {
            assert!(decisions.rejected(k, 2, || true));
        }
        assert!(decisions.all_rejected(2));
        assert!(!decisions.all_rejected(3), "stale after an insertion");
        assert!(!decisions.rejected(9, 3, || false));
        assert!(!decisions.all_rejected(3), "one operator passes");
    }

    #[test]
    fn gosper_matches_eager_enumeration() {
        for n in 1..=12usize {
            let mut eager: Vec<RelMask> =
                (1..(1u32 << n)).filter(|m| m.count_ones() >= 2).collect();
            eager.sort_by_key(|m| m.count_ones());
            let streamed: Vec<RelMask> = masks_by_cardinality(n).collect();
            assert_eq!(streamed, eager, "n = {n}: order must match the seed");
        }
    }

    #[test]
    fn join_keys_agree_with_linear_scan() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        // Every ordered pair of disjoint non-empty sets: 3³ − 2⁴ + 1.
        assert_eq!(crate::test_support::check_split_index(&model, 0, 0), 12);
        // Disjoint non-adjacent sides: no key either way.
        assert_eq!(SplitIndex::new(&model).split(0b001, 0b100).key, None);
    }

    #[test]
    fn splits_enumeration_is_exhaustive_and_ordered() {
        let (p, cat, g) = setup3();
        let model = CostModel::new(&p, &cat, &g);
        // Mask {customer, orders} = 0b011: splits (01|10) and (10|01).
        let index = SplitIndex::new(&model);
        let splits: Vec<_> = enumerate_splits(&index, 0b011, TreeShape::Bushy).collect();
        assert_eq!(splits.len(), 2);
        assert!(splits.contains(&(0b001, 0b010)));
        assert!(splits.contains(&(0b010, 0b001)));
        // Full mask: customer–lineitem is not an edge, so the connected
        // splits exclude ({customer},{lineitem}) pairs joined directly —
        // but 0b101 vs 0b010 IS connected via both edges.
        let full_splits: Vec<_> = enumerate_splits(&index, 0b111, TreeShape::Bushy).collect();
        assert!(full_splits.contains(&(0b101, 0b010)));
        assert_eq!(full_splits.len(), 6);
    }

    /// The streaming split iterator must reproduce the eager seed
    /// implementation — same splits, same order, same Cartesian fallback —
    /// on every mask of connected, partially connected and edge-free
    /// graphs, for both tree shapes.
    #[test]
    fn streaming_splits_match_eager_reference() {
        let eager = |model: &CostModel<'_>, mask: RelMask, shape: TreeShape| {
            let mut connected = Vec::new();
            let mut all = Vec::new();
            let mut m1 = (mask - 1) & mask;
            while m1 != 0 {
                let m2 = mask ^ m1;
                if shape == TreeShape::Bushy || m2.count_ones() == 1 {
                    all.push((m1, m2));
                    if model.graph.connects(m1, m2) {
                        connected.push((m1, m2));
                    }
                }
                m1 = (m1 - 1) & mask;
            }
            if connected.is_empty() {
                all
            } else {
                connected
            }
        };

        let params = CostModelParams::default();
        let mut cat = Catalog::new();
        for name in ["a", "b", "c", "d"] {
            cat.add_table(
                TableStats::new(name, 1000.0, 50.0)
                    .with_column(ColumnStats::new("id", 1000.0).indexed()),
            );
        }
        // A path a–b–c plus an isolated d: masks containing d alone with
        // others exercise the Cartesian fallback.
        let graph = JoinGraphBuilder::new(&cat)
            .rel("a", 1.0)
            .rel("b", 1.0)
            .rel("c", 1.0)
            .rel("d", 1.0)
            .join(("a", "id"), ("b", "id"))
            .join(("b", "id"), ("c", "id"))
            .build();
        let model = CostModel::new(&params, &cat, &graph);
        let index = SplitIndex::new(&model);
        for mask in 1u32..(1 << 4) {
            if mask.count_ones() < 2 {
                continue;
            }
            for shape in [TreeShape::Bushy, TreeShape::LeftDeep] {
                let streamed: Vec<_> = enumerate_splits(&index, mask, shape).collect();
                assert_eq!(
                    streamed,
                    eager(&model, mask, shape),
                    "mask {mask:b} shape {shape:?}"
                );
            }
        }
    }
}
