//! Property tests for `PlanSet::prune_insert` (the `Prune` procedure of
//! Algorithms 1 and 2), checked against the oracle frontier utilities of
//! `moqo_cost::pareto_front`:
//!
//! 1. the stored set is always an antichain under strict dominance,
//! 2. under exact pruning the surviving cost-vector set equals the true
//!    Pareto frontier of everything inserted — hence insertion order never
//!    changes it; props-aware pruning of the same streams, with mixed row
//!    counts and sort orders, leaves a props-antichain at α ∈ {1, 1.5, 2},
//! 3. under approximate pruning every vector ever offered stays
//!    α-dominated by some survivor (the invariant behind Lemma 2 /
//!    Theorem 3's base case),
//! 4. every `would_reject` answer, last-rejector hint and all, equals a
//!    linear scan of the stored entries under the per-objective
//!    definition, in both prune modes.

use moqo_core::pareto::{PlanEntry, PlanSet, PruneMode, PruneStrategy};
use moqo_core::props_key;
use moqo_cost::{pareto_front, CostVector, Objective, ObjectiveSet, NUM_OBJECTIVES};
use moqo_plan::{PlanId, PlanProps, SortOrder};
use proptest::prelude::*;

fn objs3() -> ObjectiveSet {
    ObjectiveSet::from_objectives(&[
        Objective::TotalTime,
        Objective::BufferFootprint,
        Objective::IoLoad,
    ])
}

fn entry(t: f64, b: f64, io: f64, id: u32) -> PlanEntry {
    PlanEntry {
        cost: CostVector::from_pairs(&[
            (Objective::TotalTime, t),
            (Objective::BufferFootprint, b),
            (Objective::IoLoad, io),
        ]),
        props: PlanProps {
            rels: 1,
            rows: 1.0,
            width: 1.0,
            order: SortOrder::None,
            sampling_factor: 1.0,
        },
        plan: PlanId(id),
    }
}

/// Gives an entry one of three row counts and one of three sort orders, so
/// props-aware pruning sees several mutually incomparable props classes.
fn with_props_class(mut e: PlanEntry, (rows_class, order_class): (u8, u8)) -> PlanEntry {
    e.props.rows = [1.0, 10.0, 100.0][usize::from(rows_class) % 3];
    e.props.order = match order_class % 3 {
        0 => SortOrder::None,
        1 => SortOrder::Col { rel: 0, col: 1 },
        _ => SortOrder::Col { rel: 1, col: 0 },
    };
    e
}

fn insert_all(entries: &[PlanEntry], strategy: &PruneStrategy) -> PlanSet {
    let mut set = PlanSet::new();
    for e in entries {
        set.prune_insert(*e, strategy, objs3());
    }
    set
}

/// Projects the stored vectors to sortable triples for set comparison.
fn surviving_vectors(set: &PlanSet) -> Vec<(f64, f64, f64)> {
    let mut v: Vec<(f64, f64, f64)> = set
        .iter()
        .map(|e| {
            (
                e.cost.get(Objective::TotalTime),
                e.cost.get(Objective::BufferFootprint),
                e.cost.get(Objective::IoLoad),
            )
        })
        .collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v.dedup();
    v
}

fn arb_points() -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
    prop::collection::vec((0.1f64..100.0, 0.1f64..100.0, 0.1f64..100.0), 1..=48)
}

/// One step of a probe stream: nine cost lanes drawn from a small grid
/// (so ties, dominance and the α boundaries are common), a props class,
/// and whether the step inserts the plan when no stored plan rejects it.
type StreamStep = ([u8; NUM_OBJECTIVES], (u8, u8), bool);

fn arb_stream() -> impl Strategy<Value = Vec<StreamStep>> {
    prop::collection::vec(
        (
            prop::array::uniform9(0u8..7),
            (0u8..3, 0u8..3),
            any::<bool>(),
        ),
        1..=64,
    )
}

/// The grid behind [`StreamStep`]'s lanes: 1.25 and 1.5 are α times 1, 3
/// is 1.5 times 2.
const LANE_GRID: [f64; 7] = [0.0, 1.0, 1.25, 1.5, 2.0, 3.0, f64::INFINITY];

/// The rejection test by its definition, one stored plan at a time.
fn reference_rejects(
    stored: &PlanEntry,
    candidate: &PlanEntry,
    mode: PruneMode,
    alpha: f64,
    objectives: ObjectiveSet,
) -> bool {
    let cost_cover = objectives
        .iter()
        .all(|o| stored.cost.get(o) <= alpha * candidate.cost.get(o));
    match mode {
        PruneMode::CostOnly => cost_cover,
        PruneMode::PropsAware => {
            cost_cover && props_key(&stored.props).covers(&props_key(&candidate.props))
        }
    }
}

proptest! {
    /// `would_reject` answers exactly what a linear scan of `entries()`
    /// answers, whatever its last-rejector hint holds: probes interleave
    /// with inserts that delete stored plans and shift the rest, so the
    /// hint goes stale. Both prune modes, α ∈ {1, 1.25, 1.5}, any objective
    /// subset (the empty one included); every call counts exactly one
    /// probe.
    #[test]
    fn would_reject_matches_a_linear_reference_with_a_stale_hint(
        stream in arb_stream(),
        objective_bits in 0u16..1 << NUM_OBJECTIVES,
    ) {
        let objectives: ObjectiveSet = Objective::ALL
            .into_iter()
            .filter(|o| objective_bits & (1 << o.index()) != 0)
            .collect();
        for mode in [PruneMode::CostOnly, PruneMode::PropsAware] {
            for alpha in [1.0, 1.25, 1.5] {
                let strategy = PruneStrategy::approximate(alpha).with_mode(mode);
                let mut set = PlanSet::new();
                for (step, &(lanes, class, insert)) in stream.iter().enumerate() {
                    let candidate = with_props_class(
                        PlanEntry {
                            cost: CostVector::from_array(lanes.map(|l| LANE_GRID[usize::from(l)])),
                            ..entry(0.0, 0.0, 0.0, step as u32)
                        },
                        class,
                    );
                    let expected = set
                        .entries()
                        .iter()
                        .any(|e| reference_rejects(e, &candidate, mode, alpha, objectives));
                    let probes = set.probes();
                    let rejected =
                        set.would_reject(&candidate.cost, &candidate.props, &strategy, objectives);
                    prop_assert_eq!(
                        rejected,
                        expected,
                        "step {} of {:?} at α = {} on {}",
                        step, mode, alpha, objectives
                    );
                    prop_assert_eq!(set.probes(), probes + 1);
                    if insert && !rejected {
                        set.insert_unrejected(candidate, &strategy, objectives);
                    }
                }
            }
        }
    }

    /// Exact pruning always leaves an antichain, and the surviving
    /// cost-vector set is exactly the Pareto frontier of every vector ever
    /// offered — in particular it is invariant under insertion order.
    #[test]
    fn exact_prune_matches_oracle_frontier_in_any_order(
        points in arb_points(),
        rotation in 0usize..48,
        classes in prop::collection::vec((0u8..3, 0u8..3), 48),
    ) {
        let entries: Vec<PlanEntry> = points
            .iter()
            .enumerate()
            .map(|(i, &(t, b, io))| entry(t, b, io, i as u32))
            .collect();
        let strategy = PruneStrategy::exact();

        let in_order = insert_all(&entries, &strategy);
        prop_assert!(in_order.is_antichain(objs3()));

        // Oracle: frontier of the full vector list.
        let all: Vec<CostVector> = entries.iter().map(|e| e.cost).collect();
        let mut oracle: Vec<(f64, f64, f64)> =
            pareto_front::pareto_frontier(&all, objs3())
                .iter()
                .map(|c| {
                    (
                        c.get(Objective::TotalTime),
                        c.get(Objective::BufferFootprint),
                        c.get(Objective::IoLoad),
                    )
                })
                .collect();
        oracle.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(surviving_vectors(&in_order), oracle.clone());

        // Any permutation (here: rotation of the reversal) yields the same
        // surviving cost-vector set.
        let mut permuted = entries.clone();
        permuted.reverse();
        let pivot = rotation % permuted.len();
        permuted.rotate_left(pivot);
        let shuffled = insert_all(&permuted, &strategy);
        prop_assert!(shuffled.is_antichain(objs3()));
        prop_assert_eq!(surviving_vectors(&shuffled), oracle);

        // The same two streams with mixed props classes: props-aware
        // pruning must leave no entry that dominates another in cost while
        // covering its props, at every precision.
        for stream in [&entries, &permuted] {
            let mixed: Vec<PlanEntry> = stream
                .iter()
                .map(|e| with_props_class(*e, classes[e.plan.0 as usize]))
                .collect();
            for &alpha in &[1.0f64, 1.5, 2.0] {
                let props_aware =
                    PruneStrategy::approximate(alpha).with_mode(PruneMode::PropsAware);
                let set = insert_all(&mixed, &props_aware);
                prop_assert!(set.is_props_antichain(objs3()), "alpha {}", alpha);
            }
        }
    }

    /// Approximate pruning keeps the α-dominance guarantee of Lemma 2:
    /// every vector ever offered to the set is α-dominated by a survivor
    /// (deletions stay exact, so coverage cannot drift).
    #[test]
    fn approximate_prune_preserves_alpha_coverage(
        points in arb_points(),
        alpha in 1.0f64..3.0,
    ) {
        let entries: Vec<PlanEntry> = points
            .iter()
            .enumerate()
            .map(|(i, &(t, b, io))| entry(t, b, io, i as u32))
            .collect();
        let set = insert_all(&entries, &PruneStrategy::approximate(alpha));
        prop_assert!(set.is_antichain(objs3()));

        let all: Vec<CostVector> = entries.iter().map(|e| e.cost).collect();
        let kept: Vec<CostVector> = set.iter().map(|e| e.cost).collect();
        prop_assert!(kept.len() <= all.len());
        prop_assert!(
            pareto_front::is_approx_pareto_set(&kept, &all, alpha + 1e-9, objs3()),
            "α = {} must cover every inserted vector",
            alpha
        );
    }

    /// Every plan the approximate strategy rejects would also be rejected
    /// (or deleted later) under exact pruning of the same stream: an
    /// approx-accepted plan is never exactly dominated by a *current*
    /// approx-set member.
    ///
    /// (Note the set *cardinalities* are incomparable in general: an
    /// α-rejected plan may fail to perform deletions the exact strategy
    /// performs, so the approximate set can end up larger than the exact
    /// one on adversarial streams.)
    #[test]
    fn approx_accept_implies_not_dominated(
        points in arb_points(),
        alpha in 1.0f64..3.0,
    ) {
        let entries: Vec<PlanEntry> = points
            .iter()
            .enumerate()
            .map(|(i, &(t, b, io))| entry(t, b, io, i as u32))
            .collect();
        let mut set = PlanSet::new();
        let strategy = PruneStrategy::approximate(alpha);
        for e in &entries {
            let inserted = set.prune_insert(*e, &strategy, objs3());
            if inserted {
                // The new plan must actually be in the set and no member
                // may strictly dominate another (antichain at every step).
                prop_assert!(set
                    .iter()
                    .any(|s| objs3().iter().all(|o| s.cost.get(o) == e.cost.get(o))));
                prop_assert!(set.is_antichain(objs3()));
            }
        }
    }
}
