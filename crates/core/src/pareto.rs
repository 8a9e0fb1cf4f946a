//! The `Prune` procedure of Algorithms 1 and 2: incremental (approximate)
//! Pareto plan sets.
//!
//! A [`PlanSet`] holds the plans generated so far for one `(table set,
//! output order)` group. Insertion follows the paper exactly:
//!
//! * **EXA** (Algorithm 1): insert unless an existing plan *dominates* the
//!   new one; then delete stored plans the new plan dominates.
//! * **RTA** (Algorithm 2): insert unless an existing plan *approximately
//!   dominates* the new one with internal precision `α_i`; deletions still
//!   use exact dominance. The paper's §6.2 remark explains that also
//!   deleting approximately dominated plans would let the stored set drift
//!   arbitrarily far from the frontier; a unit test below replays that
//!   counterexample by hand.
//!
//! Orthogonally to the precision, a [`PruneMode`] selects the dominance
//! relation: cost-only (the paper's rule) or props-aware, which refuses to
//! discard a plan whose physical properties (row count, sort order) are
//! better than its dominator's. Props-aware mode is what keeps pruning
//! sound when sampling scans let cardinality leak past the cost vector;
//! see [`PruneMode::auto`] for the selection rule every caller shares.

use std::cell::Cell;

use moqo_cost::dominance::{
    approx_dominates, approx_dominates_with_props, dominates, dominates_with_props, PropsKey,
};
use moqo_cost::{CostVector, Objective, ObjectiveSet};
use moqo_plan::{PlanId, PlanProps, SortOrder};

/// One stored plan: its cost vector, physical properties and arena id.
/// Equality is bitwise over cost, props and id — two entries are equal only
/// when they are the same plan in the same arena layout, which is exactly
/// the "byte-identical fronts" property the deterministic tests assert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEntry {
    /// Full nine-dimensional cost vector.
    pub cost: CostVector,
    /// Physical properties (rows, width, order, sampling factor).
    pub props: PlanProps,
    /// Plan node in the arena.
    pub plan: PlanId,
}

/// Which dominance relation `Prune` discards plans under.
///
/// Cost-only pruning is the paper's original rule; it is sound exactly when
/// the selected cost components determine every downstream cost. Sampling
/// scans break that: plan cardinality then varies within a table set, feeds
/// every parent operator's formula, and — when [`Objective::TupleLoss`] is
/// not selected — is invisible to the cost vector, so a cost-dominated plan
/// with fewer rows may still lead to the cheapest complete plan.
/// Props-aware pruning additionally requires the dominator's [`PropsKey`]
/// (row count, interest properties) to cover the discarded plan's, which
/// restores Lemma 2 / Theorem 3 in that regime at the price of larger
/// stored sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PruneMode {
    /// Discard on (approximate) cost dominance alone.
    #[default]
    CostOnly,
    /// Discard only when dominated in cost *and* covered in physical
    /// properties.
    PropsAware,
}

impl PruneMode {
    /// The mode under which pruning is sound for a given configuration:
    /// props-aware exactly when sampling scans are in the plan space and
    /// `TupleLoss` is not among the selected objectives (the only regime in
    /// which cardinality leaks past the cost vector), cost-only otherwise.
    /// Every algorithm entry point and the serving layer derive their mode
    /// through this one function so all pruning sites agree.
    #[must_use]
    pub fn auto(sampling_enabled: bool, objectives: ObjectiveSet) -> Self {
        if sampling_enabled && !objectives.contains(Objective::TupleLoss) {
            PruneMode::PropsAware
        } else {
            PruneMode::CostOnly
        }
    }
}

/// The [`PropsKey`] of a plan's physical properties: output rows plus the
/// sort order encoded as the opaque interest tag ([`SortOrder::None`] maps
/// to [`PropsKey::NO_INTEREST`], so any sorted plan covers an unsorted one
/// at equal-or-fewer rows).
#[must_use]
pub fn props_key(props: &PlanProps) -> PropsKey {
    let interest = match props.order {
        SortOrder::None => PropsKey::NO_INTEREST,
        // 1 + packed (rel, col): never collides with NO_INTEREST.
        SortOrder::Col { rel, col } => 1 + ((rel as u64) << 16 | u64::from(col)),
    };
    PropsKey {
        rows: props.rows,
        interest,
    }
}

/// Pruning configuration shared by one dynamic-programming run.
#[derive(Debug, Clone, Copy)]
pub struct PruneStrategy {
    /// Internal approximation precision `α_i ≥ 1`; `1.0` yields the exact
    /// algorithm's pruning.
    pub alpha_internal: f64,
    /// Dominance relation plans are discarded under.
    pub mode: PruneMode,
}

impl PruneStrategy {
    /// Exact cost-only pruning (EXA).
    #[must_use]
    pub fn exact() -> Self {
        PruneStrategy {
            alpha_internal: 1.0,
            mode: PruneMode::CostOnly,
        }
    }

    /// Approximate cost-only pruning with internal precision
    /// `alpha_internal` (RTA).
    #[must_use]
    pub fn approximate(alpha_internal: f64) -> Self {
        debug_assert!(alpha_internal >= 1.0);
        PruneStrategy {
            alpha_internal,
            mode: PruneMode::CostOnly,
        }
    }

    /// Replaces the pruning mode (builder style).
    #[must_use]
    pub fn with_mode(mut self, mode: PruneMode) -> Self {
        self.mode = mode;
        self
    }

    /// Whether `candidate` is discarded in favour of `incumbent` under this
    /// strategy's mode and precision. Forced inline: a probe tests the last
    /// rejector and then scans, and with two call sites the compiler would
    /// otherwise keep this as a call per compared entry.
    #[inline(always)]
    fn rejects(
        &self,
        incumbent: &PlanEntry,
        cost: &CostVector,
        key: &PropsKey,
        objectives: ObjectiveSet,
    ) -> bool {
        match self.mode {
            PruneMode::CostOnly => {
                approx_dominates(&incumbent.cost, cost, self.alpha_internal, objectives)
            }
            PruneMode::PropsAware => approx_dominates_with_props(
                &incumbent.cost,
                &props_key(&incumbent.props),
                cost,
                key,
                self.alpha_internal,
                objectives,
            ),
        }
    }

    /// Whether a stored plan is deleted by an inserted one: exact dominance
    /// at every precision (§6.2).
    #[inline]
    fn deletes(
        &self,
        inserted: &PlanEntry,
        key: &PropsKey,
        stored: &PlanEntry,
        objectives: ObjectiveSet,
    ) -> bool {
        match self.mode {
            PruneMode::CostOnly => dominates(&inserted.cost, &stored.cost, objectives),
            PruneMode::PropsAware => dominates_with_props(
                &inserted.cost,
                key,
                &stored.cost,
                &props_key(&stored.props),
                objectives,
            ),
        }
    }
}

/// An incrementally pruned plan set for one `(table set, order)` group.
///
/// Entries are kept sorted by the cost in the *first* selected objective.
/// Dominance is monotone per dimension, so the sort order yields
/// binary-search cutoffs for both `prune_insert` scans: only a prefix of
/// the set can (approximately) dominate a new plan, and only a suffix can
/// be dominated by it. The same set must always be probed with the same
/// objective set and precision (true for every dynamic-programming run,
/// which fixes both up front).
///
/// A probe tests the *last rejector* first: the entry that rejected the
/// set's last rejected probe, which tends to reject the next one too
/// (the block-nested-loops skyline heuristic). The hint changes only the
/// order in which entries are tested, never the answer: rejection is an
/// `any` over the stored set, and an entry that rejects a candidate has
/// a first cost of at most `α` times the candidate's, the same product as
/// the scan's cutoff, so it lies inside the scanned prefix anyway. A hint
/// left stale by an insertion or deletion is just another entry, or out
/// of range and skipped.
#[derive(Debug, Clone, Default)]
pub struct PlanSet {
    /// The stored plans, sorted by first-objective cost.
    entries: Vec<PlanEntry>,
    /// `would_reject` probes answered so far.
    probes: Cell<u64>,
    /// Entries compared by `would_reject` probes so far, the hint
    /// included.
    scan_steps: Cell<u64>,
    /// Index of the entry that rejected the last rejected probe.
    last_rejector: Cell<usize>,
}

impl PlanSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        PlanSet::default()
    }

    /// Number of [`PlanSet::would_reject`] probes this set has answered
    /// (including those made by [`PlanSet::prune_insert`]).
    #[must_use]
    pub fn probes(&self) -> u64 {
        self.probes.get()
    }

    /// Number of stored entries [`PlanSet::would_reject`] probes have
    /// compared with their candidate, the last-rejector hint included.
    #[must_use]
    pub fn scan_steps(&self) -> u64 {
        self.scan_steps.get()
    }

    /// The rejection test of `prune_insert` alone: does some stored plan
    /// (approximately) dominate the candidate — in props-aware mode, while
    /// also covering its physical properties? Lets callers that must
    /// allocate per-candidate resources (e.g. arena nodes) skip doomed
    /// candidates without mutating the set. A dominating plan needs
    /// `e ≤ α·key` in the first objective regardless of mode (cost
    /// dominance stays necessary), so the sorted order keeps its
    /// binary-search cutoff; props-aware mode merely partitions what the
    /// scanned prefix may reject. The last rejector is tested first (see
    /// [`PlanSet`]).
    #[must_use]
    pub fn would_reject(
        &self,
        cost: &CostVector,
        props: &PlanProps,
        strategy: &PruneStrategy,
        objectives: ObjectiveSet,
    ) -> bool {
        self.probes.set(self.probes.get() + 1);
        let (rejector, steps) = self.rejector(cost, props, strategy, objectives);
        self.scan_steps.set(self.scan_steps.get() + steps);
        if let Some(index) = rejector {
            self.last_rejector.set(index);
        }
        rejector.is_some()
    }

    /// The index of a stored plan that rejects the candidate, if any, and
    /// the number of entries compared to find it. Touches no counter and
    /// no hint, so debug assertions leave both as in release builds.
    fn rejector(
        &self,
        cost: &CostVector,
        props: &PlanProps,
        strategy: &PruneStrategy,
        objectives: ObjectiveSet,
    ) -> (Option<usize>, u64) {
        let candidate_key = props_key(props);
        let hint = self.last_rejector.get();
        let mut steps = 0;
        if let Some(e) = self.entries.get(hint) {
            steps += 1;
            if strategy.rejects(e, cost, &candidate_key, objectives) {
                return (Some(hint), steps);
            }
        }
        let first = objectives.iter().next();
        let key_of = |e: &PlanEntry| first.map_or(0.0, |o| e.cost.get(o));
        let cutoff = strategy.alpha_internal * first.map_or(0.0, |o| cost.get(o));
        for (i, e) in self.entries.iter().enumerate() {
            if key_of(e) > cutoff {
                break;
            }
            if i == hint {
                continue;
            }
            steps += 1;
            if strategy.rejects(e, cost, &candidate_key, objectives) {
                return (Some(i), steps);
            }
        }
        (None, steps)
    }

    /// The `Prune(P, pN)` procedure. Returns `true` if the new plan was
    /// inserted, `false` if it was discarded. The net change in stored-entry
    /// count is `1 − deleted` on insertion and `0` otherwise; the caller
    /// tracks memory via [`PlanSet::len`].
    pub fn prune_insert(
        &mut self,
        entry: PlanEntry,
        strategy: &PruneStrategy,
        objectives: ObjectiveSet,
    ) -> bool {
        // "Check whether new plan useful": some stored plan (approximately)
        // dominates the new one?
        if self.would_reject(&entry.cost, &entry.props, strategy, objectives) {
            return false;
        }
        self.insert_unrejected(entry, strategy, objectives);
        true
    }

    /// The insertion half of [`PlanSet::prune_insert`], for callers that
    /// already ran [`PlanSet::would_reject`] on `entry.cost` (e.g. to skip
    /// arena allocation for doomed candidates) — probing twice would double
    /// the dominant cost of the insert path. Deletes the stored plans the
    /// new plan dominates and inserts it in sorted position, returning the
    /// number of deletions.
    ///
    /// Inserting an entry that *would* have been rejected breaks the set's
    /// antichain invariant; it is the caller's contract to probe first.
    pub fn insert_unrejected(
        &mut self,
        entry: PlanEntry,
        strategy: &PruneStrategy,
        objectives: ObjectiveSet,
    ) -> usize {
        debug_assert!(self
            .rejector(&entry.cost, &entry.props, strategy, objectives)
            .0
            .is_none());
        let first = objectives.iter().next();
        let key_of = |e: &PlanEntry| first.map_or(0.0, |o| e.cost.get(o));
        let key = key_of(&entry);
        let inserted_key = props_key(&entry.props);

        // "Delete dominated plans" under exact dominance; props-aware mode
        // additionally requires the new plan to cover the victim's props. A
        // deletable plan needs a first-objective cost of at least `key` in
        // every mode, so only a sorted suffix qualifies; compact it in
        // place, preserving order.
        let delete_start = self.entries.partition_point(|e| key_of(e) < key);
        let mut kept = delete_start;
        for read in delete_start..self.entries.len() {
            let doomed = strategy.deletes(&entry, &inserted_key, &self.entries[read], objectives);
            if !doomed {
                self.entries.swap(kept, read);
                kept += 1;
            }
        }
        let deleted = self.entries.len() - kept;
        self.entries.truncate(kept);

        let pos = self.entries.partition_point(|e| key_of(e) <= key);
        self.entries.insert(pos, entry);
        deleted
    }

    /// Number of stored plans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the stored plans in first-objective sorted order.
    pub fn iter(&self) -> std::slice::Iter<'_, PlanEntry> {
        self.entries.iter()
    }

    /// The stored plans in first-objective sorted order, as a slice.
    #[must_use]
    pub fn entries(&self) -> &[PlanEntry] {
        &self.entries
    }

    /// Invariant check (test helper): with exact pruning no entry may
    /// strictly dominate another.
    #[must_use]
    pub fn is_antichain(&self, objectives: ObjectiveSet) -> bool {
        for (i, a) in self.entries.iter().enumerate() {
            for (j, b) in self.entries.iter().enumerate() {
                if i != j && moqo_cost::dominance::strictly_dominates(&a.cost, &b.cost, objectives)
                {
                    return false;
                }
            }
        }
        true
    }

    /// Invariant check (test helper) for props-aware exact pruning: no
    /// entry may strictly dominate another in cost *while also covering*
    /// its props key — plain cost domination between entries of different
    /// props classes is expected and sound.
    #[must_use]
    pub fn is_props_antichain(&self, objectives: ObjectiveSet) -> bool {
        for (i, a) in self.entries.iter().enumerate() {
            for (j, b) in self.entries.iter().enumerate() {
                if i != j
                    && props_key(&a.props).covers(&props_key(&b.props))
                    && moqo_cost::dominance::strictly_dominates(&a.cost, &b.cost, objectives)
                {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_cost::Objective;
    use moqo_plan::SortOrder;

    fn objs() -> ObjectiveSet {
        ObjectiveSet::from_objectives(&[Objective::TotalTime, Objective::BufferFootprint])
    }

    fn entry(t: f64, b: f64) -> PlanEntry {
        PlanEntry {
            cost: CostVector::from_pairs(&[
                (Objective::TotalTime, t),
                (Objective::BufferFootprint, b),
            ]),
            props: PlanProps {
                rels: 1,
                rows: 1.0,
                width: 1.0,
                order: SortOrder::None,
                sampling_factor: 1.0,
            },
            plan: PlanId(0),
        }
    }

    #[test]
    fn exact_prune_keeps_incomparable_plans() {
        let mut set = PlanSet::new();
        let s = PruneStrategy::exact();
        assert!(set.prune_insert(entry(1.0, 3.0), &s, objs()));
        assert!(set.prune_insert(entry(3.0, 1.0), &s, objs()));
        assert_eq!(set.len(), 2);
        assert!(set.is_antichain(objs()));
    }

    #[test]
    fn exact_prune_rejects_dominated_insert() {
        let mut set = PlanSet::new();
        let s = PruneStrategy::exact();
        assert!(set.prune_insert(entry(1.0, 1.0), &s, objs()));
        assert!(!set.prune_insert(entry(2.0, 2.0), &s, objs()));
        assert!(!set.prune_insert(entry(1.0, 1.0), &s, objs())); // equal ⇒ dominated
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn exact_prune_deletes_newly_dominated() {
        let mut set = PlanSet::new();
        let s = PruneStrategy::exact();
        set.prune_insert(entry(2.0, 2.0), &s, objs());
        set.prune_insert(entry(3.0, 0.5), &s, objs());
        // (1,1) dominates (2,2) but not (3,0.5) — buffer 0.5 < 1.
        assert!(set.prune_insert(entry(1.0, 1.0), &s, objs()));
        assert_eq!(set.len(), 2);
        assert!(set.iter().all(|e| e.cost.get(Objective::TotalTime) != 2.0));
    }

    #[test]
    fn insert_unrejected_reports_deletions() {
        let mut set = PlanSet::new();
        let s = PruneStrategy::exact();
        set.prune_insert(entry(2.0, 2.0), &s, objs());
        set.prune_insert(entry(3.0, 1.5), &s, objs());
        set.prune_insert(entry(4.0, 0.5), &s, objs());
        // (1,1) dominates the first two entries but not (4, 0.5).
        let probe = entry(1.0, 1.0);
        assert!(!set.would_reject(&probe.cost, &probe.props, &s, objs()));
        assert_eq!(set.insert_unrejected(probe, &s, objs()), 2);
        assert_eq!(set.len(), 2);
        assert!(set.is_antichain(objs()));
    }

    #[test]
    fn only_would_reject_counts_probes() {
        let mut set = PlanSet::new();
        let s = PruneStrategy::exact();
        let probe = entry(1.0, 1.0);
        assert!(!set.would_reject(&probe.cost, &probe.props, &s, objs()));
        set.insert_unrejected(probe, &s, objs());
        assert_eq!(set.probes(), 1, "the insert path must not count a probe");
        assert_eq!(set.scan_steps(), 0, "an empty set compares nothing");
        // The insert path's debug check compares the stored entry too, but
        // must count no step, so debug and release builds agree.
        let cheaper = entry(0.5, 2.0);
        assert!(!set.would_reject(&cheaper.cost, &cheaper.props, &s, objs()));
        assert_eq!(set.scan_steps(), 1);
        set.insert_unrejected(cheaper, &s, objs());
        assert_eq!((set.probes(), set.scan_steps()), (2, 1));
    }

    #[test]
    fn a_probe_tests_the_last_rejector_first() {
        let mut set = PlanSet::new();
        let s = PruneStrategy::exact();
        for (t, b) in [(1.0, 10.0), (2.0, 5.0), (3.0, 1.0)] {
            assert!(set.prune_insert(entry(t, b), &s, objs()));
        }
        let steps_of = |set: &PlanSet, t: f64, b: f64| {
            let probe = entry(t, b);
            let before = set.scan_steps();
            let rejected = set.would_reject(&probe.cost, &probe.props, &s, objs());
            (rejected, set.scan_steps() - before)
        };
        // Only (2, 5) rejects (4, 6): the scan compares (1, 10), then it.
        assert_eq!(steps_of(&set, 4.0, 6.0), (true, 2));
        // (2, 5) is now the hint and rejects (4.5, 7) in one step.
        assert_eq!(steps_of(&set, 4.5, 7.0), (true, 1));
        // A probe nobody rejects pays for the hint, then the cutoff stops
        // the scan before the first entry.
        assert_eq!(steps_of(&set, 0.5, 0.5), (false, 1));
        // Only (3, 1) rejects (5, 2); the scan skips the hint it already
        // compared.
        assert_eq!(steps_of(&set, 5.0, 2.0), (true, 3));
        assert_eq!(steps_of(&set, 6.0, 3.0), (true, 1));
        // Inserting a plan ahead of the hint shifts the entries: the stale
        // hint now names (2, 5), which fails, and the scan still finds
        // (3, 1).
        assert!(set.prune_insert(entry(0.1, 20.0), &s, objs()));
        assert_eq!(steps_of(&set, 7.0, 4.0), (true, 4));
        assert_eq!(set.probes(), 10);
    }

    #[test]
    fn approximate_prune_thins_the_set() {
        let mut exact = PlanSet::new();
        let mut approx = PlanSet::new();
        let se = PruneStrategy::exact();
        let sa = PruneStrategy::approximate(2.0);
        // A dense frontier: exact keeps all, 2-approximate keeps far fewer.
        for i in 0..32 {
            let t = 1.0 + f64::from(i) * 0.1;
            let b = 10.0 / t;
            exact.prune_insert(entry(t, b), &se, objs());
            approx.prune_insert(entry(t, b), &sa, objs());
        }
        assert_eq!(exact.len(), 32);
        assert!(
            approx.len() < exact.len() / 2,
            "approx kept {}",
            approx.len()
        );
    }

    #[test]
    fn approximate_prune_still_covers_frontier() {
        // Every exact-frontier point must be α-approximately dominated by a
        // kept representative (the invariant behind Theorem 3's base case).
        let alpha = 1.5;
        let mut approx = PlanSet::new();
        let sa = PruneStrategy::approximate(alpha);
        let mut all = Vec::new();
        for i in 0..64 {
            let t = 1.0 + f64::from(i) * 0.07;
            let b = 20.0 / t;
            let e = entry(t, b);
            all.push(e.cost);
            approx.prune_insert(e, &sa, objs());
        }
        let frontier = moqo_cost::pareto_front::pareto_frontier(&all, objs());
        let kept: Vec<CostVector> = approx.iter().map(|e| e.cost).collect();
        assert!(moqo_cost::pareto_front::is_approx_pareto_set(
            &kept,
            &frontier,
            alpha,
            objs()
        ));
    }

    #[test]
    fn approx_deletion_ablation_can_drift() {
        // Demonstrates the §6.2 remark: deleting approximately dominated
        // plans lets the stored set depart more and more from the frontier.
        // Chain construction: each new point is slightly worse in time
        // (×1.1 < α) and much better in buffer (÷1.3), so it is NOT rejected
        // (buffer improves beyond α) but it α-dominates and thus deletes its
        // predecessor. All chain points are mutually incomparable, hence all
        // lie on the true frontier; the single survivor ends up more than α
        // away from the early frontier points.
        let alpha = 1.2f64;
        // The unsound `Prune`, by hand: approximate rejection as in RTA, but
        // approximate deletion too.
        let mut unsound: Vec<CostVector> = Vec::new();
        let mut all = Vec::new();
        let (mut t, mut b) = (1.0f64, 1000.0f64);
        for _ in 0..12 {
            let cost = entry(t, b).cost;
            all.push(cost);
            if !unsound
                .iter()
                .any(|kept| approx_dominates(kept, &cost, alpha, objs()))
            {
                unsound.retain(|kept| !approx_dominates(&cost, kept, alpha, objs()));
                unsound.push(cost);
            }
            t *= 1.1;
            b /= 1.3;
        }
        assert_eq!(unsound.len(), 1, "chain keeps replacing its predecessor");
        let factor = moqo_cost::pareto_front::approximation_factor(&unsound, &all, objs()).unwrap();
        assert!(
            factor > alpha * 1.5,
            "unsound deletion drifted to factor {factor}, beyond α = {alpha}"
        );
        // The sound strategy on the same input keeps every chain point.
        let mut sound = PlanSet::new();
        let ss = PruneStrategy::approximate(alpha);
        let (mut t, mut b) = (1.0f64, 1000.0f64);
        let mut kept_count = 0;
        for _ in 0..12 {
            if sound.prune_insert(entry(t, b), &ss, objs()) {
                kept_count += 1;
            }
            t *= 1.1;
            b /= 1.3;
        }
        assert_eq!(kept_count, 12);
        let kept: Vec<CostVector> = sound.iter().map(|e| e.cost).collect();
        let factor = moqo_cost::pareto_front::approximation_factor(&kept, &all, objs()).unwrap();
        assert!(
            factor <= alpha,
            "sound pruning stays within α; got {factor}"
        );
    }

    fn entry_with_rows(t: f64, b: f64, rows: f64) -> PlanEntry {
        let mut e = entry(t, b);
        e.props.rows = rows;
        e
    }

    #[test]
    fn auto_mode_selects_props_aware_only_for_the_leak_regime() {
        let no_loss = objs();
        let with_loss =
            ObjectiveSet::from_objectives(&[Objective::TotalTime, Objective::TupleLoss]);
        assert_eq!(PruneMode::auto(true, no_loss), PruneMode::PropsAware);
        assert_eq!(PruneMode::auto(false, no_loss), PruneMode::CostOnly);
        assert_eq!(PruneMode::auto(true, with_loss), PruneMode::CostOnly);
        assert_eq!(PruneMode::auto(false, with_loss), PruneMode::CostOnly);
    }

    #[test]
    fn props_aware_keeps_cost_dominated_plan_with_fewer_rows() {
        let s = PruneStrategy::exact().with_mode(PruneMode::PropsAware);
        let mut set = PlanSet::new();
        assert!(set.prune_insert(entry_with_rows(1.0, 1.0, 100.0), &s, objs()));
        // Cost-dominated, but only 10 output rows: must survive, because a
        // parent operator over it can be arbitrarily cheaper.
        assert!(set.prune_insert(entry_with_rows(2.0, 2.0, 10.0), &s, objs()));
        assert_eq!(set.len(), 2);
        assert!(set.is_props_antichain(objs()));
        // The same stream under cost-only pruning discards it.
        let mut cost_only = PlanSet::new();
        let c = PruneStrategy::exact();
        assert!(cost_only.prune_insert(entry_with_rows(1.0, 1.0, 100.0), &c, objs()));
        assert!(!cost_only.prune_insert(entry_with_rows(2.0, 2.0, 10.0), &c, objs()));
    }

    #[test]
    fn props_aware_still_prunes_within_a_props_class() {
        let s = PruneStrategy::exact().with_mode(PruneMode::PropsAware);
        let mut set = PlanSet::new();
        assert!(set.prune_insert(entry_with_rows(1.0, 1.0, 50.0), &s, objs()));
        // Same rows, dominated cost: discarded exactly as in cost-only mode.
        assert!(!set.prune_insert(entry_with_rows(2.0, 2.0, 50.0), &s, objs()));
        // A dominator with *fewer* rows also prunes.
        assert!(!set.prune_insert(entry_with_rows(2.0, 2.0, 200.0), &s, objs()));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn props_aware_deletion_spares_fewer_row_incumbents() {
        let s = PruneStrategy::exact().with_mode(PruneMode::PropsAware);
        let mut set = PlanSet::new();
        set.prune_insert(entry_with_rows(2.0, 2.0, 10.0), &s, objs());
        set.prune_insert(entry_with_rows(3.0, 3.0, 100.0), &s, objs());
        // (1,1,50) cost-dominates both, but covers only the 100-row entry.
        assert!(set.prune_insert(entry_with_rows(1.0, 1.0, 50.0), &s, objs()));
        assert_eq!(set.len(), 2);
        assert!(set
            .iter()
            .any(|e| e.cost.get(Objective::TotalTime) == 2.0 && e.props.rows == 10.0));
        assert!(set.iter().all(|e| e.cost.get(Objective::TotalTime) != 3.0));
    }

    #[test]
    fn props_aware_interest_tags_partition_orders() {
        let s = PruneStrategy::exact().with_mode(PruneMode::PropsAware);
        let mut set = PlanSet::new();
        let mut sorted = entry_with_rows(2.0, 2.0, 50.0);
        sorted.props.order = SortOrder::on(0, 1);
        let unsorted = entry_with_rows(1.0, 1.0, 50.0);
        // An unsorted dominator cannot discard a sorted plan…
        assert!(set.prune_insert(unsorted, &s, objs()));
        assert!(set.prune_insert(sorted, &s, objs()));
        assert_eq!(set.len(), 2);
        // …but a sorted dominator discards an unsorted one.
        let mut set2 = PlanSet::new();
        let mut sorted_cheap = entry_with_rows(1.0, 1.0, 50.0);
        sorted_cheap.props.order = SortOrder::on(0, 1);
        assert!(set2.prune_insert(sorted_cheap, &s, objs()));
        assert!(!set2.prune_insert(entry_with_rows(2.0, 2.0, 50.0), &s, objs()));
    }

    #[test]
    fn modes_agree_when_rows_and_orders_are_uniform() {
        // Without sampling every plan of a (table set, order) group has the
        // same rows and order, so the two modes are bit-identical.
        let cost_only = PruneStrategy::approximate(1.3);
        let props = PruneStrategy::approximate(1.3).with_mode(PruneMode::PropsAware);
        let mut a = PlanSet::new();
        let mut b = PlanSet::new();
        for i in 0..64u32 {
            let t = 1.0 + f64::from(i % 17) * 0.21;
            let bcost = 40.0 / t;
            let (ra, rb) = (
                a.prune_insert(entry(t, bcost), &cost_only, objs()),
                b.prune_insert(entry(t, bcost), &props, objs()),
            );
            assert_eq!(ra, rb, "insert {i}");
        }
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
    }
}
