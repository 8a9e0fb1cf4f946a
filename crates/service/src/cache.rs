//! The α-aware Pareto-front plan cache.
//!
//! The paper's central trade — precision for speed via the approximation
//! factor α — extends naturally across requests: a front computed once at
//! factor α is, by Theorem 3 / Corollary 1, good enough for *every* later
//! request on the same block and objective set that tolerates `α′ ≥ α`,
//! whatever its weights and bounds. The cache exploits exactly that:
//!
//! * **Keys** are the block and the objective set: [`JoinGraph::signature`]
//!   (a hash of the block's plan space) paired with the request's
//!   [`ObjectiveSet`]. A front that ran to completion (EXA, RTA,
//!   or IRA's last iteration, which is RTA at its final precision) depends
//!   on nothing else than its α and its pruning mode, and the mode is
//!   [`PruneMode::auto`](moqo_core::PruneMode::auto) of the objective set
//!   under the service's fixed cost-model parameters, so each key has one
//!   mode. Weights and bounds only select: every hit picks its plan from
//!   the served front with the request's own preference. Since graph
//!   signatures are hashes, a hit additionally checks the stored block with
//!   [`JoinGraph::same_plan_space`] before anything is served. A block
//!   whose relations or edges are relabelled is another plan space: it has
//!   its own signature and is cached apart.
//! * **Entries** own their plans: on insertion the producing arena's
//!   surviving frontier plans are re-rooted into a compact cache-owned
//!   arena via [`PlanArena::adopt`], so the (much larger) optimizer arena
//!   can be dropped.
//! * **Serving** is α-aware. A request tolerating `α′ ≥ α_entry` (with the
//!   bounded-request restriction of
//!   [`AlphaCertificate`](crate::AlphaCertificate)) is answered directly by
//!   adopting the cached front into a fresh response arena. Anything else
//!   still profits: the front's first plans, adopted the same way, are
//!   handed out as an RMQ warm start.
//! * **Eviction** is sharded LRU: keys hash to one of `shards` independent
//!   mutexed maps, each evicting its least-recently-used entry beyond its
//!   capacity share, so concurrent workers rarely contend on the same lock.
//! * **Counters** are cache-wide ([`CacheSnapshot`]): hits, misses, warm
//!   starts, insertions, evictions and resident entries. Entries keep no
//!   statistics of their own.

use moqo_sync::atomic::{AtomicU64, Ordering};
use moqo_sync::Mutex;
use std::collections::HashMap;

use moqo_catalog::{GraphSignature, JoinGraph};
use moqo_core::rmq::WALKERS;
use moqo_core::PlanEntry;
use moqo_cost::ObjectiveSet;
use moqo_plan::PlanArena;

use crate::AlphaCertificate;

/// Cache key: the block's plan-space signature × the request's objective set,
/// everything a completed front depends on besides its α (see the module
/// docs). Weights and bounds are not part of it: they only select.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The join-graph fingerprint.
    pub graph: GraphSignature,
    /// The selected objectives.
    pub objectives: ObjectiveSet,
}

struct CacheEntry {
    /// The block the front was computed for: only a block of the same plan
    /// space ([`JoinGraph::same_plan_space`]) is served from it, never one
    /// whose signature merely collides.
    graph: JoinGraph,
    /// Guarantee of the stored front (`1.0` exact, `+∞` none/RMQ).
    alpha: f64,
    /// Compact arena owning exactly the frontier plans.
    arena: PlanArena,
    /// The stored front; plan ids resolve in `arena`.
    frontier: Vec<PlanEntry>,
    /// LRU stamp (global monotonic tick at last touch).
    last_used: u64,
}

type Shard = HashMap<CacheKey, CacheEntry>;

/// Aggregate cache counters (monotonic; copied into every
/// [`MetricsSnapshot`](crate::MetricsSnapshot)).
#[derive(Debug, Default)]
pub struct CacheCounters {
    /// Direct serves.
    pub hits: AtomicU64,
    /// Lookups that could not be served directly (absent entries,
    /// signature collisions, and resident-but-not-servable fronts alike).
    pub misses: AtomicU64,
    /// Misses whose resident front subsequently seeded an RMQ warm start
    /// (a subset of `misses`, counted when the warm plans are copied).
    pub warm_starts: AtomicU64,
    /// Entries written.
    pub insertions: AtomicU64,
    /// Entries evicted by LRU pressure.
    pub evictions: AtomicU64,
}

/// Point-in-time snapshot of `CacheCounters` plus occupancy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Direct serves.
    pub hits: u64,
    /// Lookups not served directly.
    pub misses: u64,
    /// Misses that seeded an RMQ warm start.
    pub warm_starts: u64,
    /// Entries written.
    pub insertions: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheSnapshot {
    /// Direct-hit ratio over all lookups (0 when none happened).
    /// `warm_starts` are already contained in `misses`.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// What a cache probe yielded.
pub enum CacheLookup {
    /// Serve directly: the cached front re-rooted into a fresh arena, with
    /// the entry's guarantee.
    Hit {
        /// Response-owned arena holding the adopted front.
        arena: PlanArena,
        /// The front; ids resolve in `arena`.
        frontier: Vec<PlanEntry>,
        /// Guarantee of the served front.
        alpha: f64,
    },
    /// An entry for the same block is resident but cannot serve this α′ or
    /// boundedness. Counted as a miss; callers that will run the
    /// randomized search can fetch its plans via
    /// [`PlanCache::warm_start`] — the copy is deferred so schemes that
    /// cannot use warm starts never pay for (or get billed as) one.
    NotServable {
        /// Guarantee of the resident front.
        alpha: f64,
    },
    /// Nothing cached for this key (or a signature collision).
    Miss,
}

/// `front`'s plans copied out of `src` into a fresh arena, with the entries
/// that index it: how the cache stores a front, serves it and hands it out
/// as a warm start.
fn adopt_front(src: &PlanArena, front: &[PlanEntry]) -> (PlanArena, Vec<PlanEntry>) {
    let mut arena = PlanArena::new();
    let front = front
        .iter()
        .map(|e| PlanEntry {
            plan: arena.adopt(src, e.plan),
            ..*e
        })
        .collect();
    (arena, front)
}

/// The sharded LRU plan cache.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    counters: CacheCounters,
    tick: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` entries across `shards` shards
    /// (each shard gets an equal share, rounded up).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `shards` is zero.
    #[must_use]
    pub fn new(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(shards > 0, "cache needs at least one shard");
        let shards = shards.min(capacity);
        PlanCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            capacity_per_shard: capacity.div_ceil(shards),
            counters: CacheCounters::default(),
            tick: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &CacheKey) -> &Mutex<Shard> {
        // The graph signature is already a uniform hash; fold the
        // objectives into its low bits.
        let h = key.graph.0 ^ u64::from(key.objectives.bits());
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Probes the cache for `key`. `requested_alpha`/`bounded` decide
    /// between a direct hit and [`CacheLookup::NotServable`] (by
    /// [`AlphaCertificate::is_valid`]); `graph` must have the stored block's
    /// plan space, which rules out collisions. Everything that is not a
    /// direct serve counts as a miss.
    #[must_use]
    pub fn lookup(
        &self,
        key: &CacheKey,
        graph: &JoinGraph,
        requested_alpha: f64,
        bounded: bool,
    ) -> CacheLookup {
        let tick = self.next_tick();
        let mut shard = self.shard_of(key).lock().expect("cache lock poisoned");
        let Some(entry) = shard.get_mut(key) else {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            return CacheLookup::Miss;
        };
        if !entry.graph.same_plan_space(graph) {
            // Signature collision: the stored plans belong to another plan
            // space, so nothing is servable.
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            return CacheLookup::Miss;
        }
        entry.last_used = tick;
        let certificate = AlphaCertificate {
            cached_alpha: entry.alpha,
            requested_alpha,
            bounded,
        };
        if certificate.is_valid() {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            let (arena, frontier) = adopt_front(&entry.arena, &entry.frontier);
            CacheLookup::Hit {
                arena,
                frontier,
                alpha: entry.alpha,
            }
        } else {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            CacheLookup::NotServable { alpha: entry.alpha }
        }
    }

    /// Copies the cached front's first plans into a fresh arena for an RMQ
    /// warm start (the follow-up to a [`CacheLookup::NotServable`] probe
    /// once the policy has actually admitted a randomized run), with the
    /// entries that index it and the front's guarantee. Counts the warm
    /// start only here, so the counter reports warm starts that happened,
    /// not warm starts that were merely possible.
    ///
    /// Copies at most [`WALKERS`] plans: walker `w` seeds from entry
    /// `w mod len`, so [`rmq_warm`](moqo_core::rmq_warm) never reads past
    /// them, and the copy runs under the shard lock.
    #[must_use]
    pub fn warm_start(
        &self,
        key: &CacheKey,
        graph: &JoinGraph,
    ) -> Option<(PlanArena, Vec<PlanEntry>, f64)> {
        let tick = self.next_tick();
        let mut shard = self.shard_of(key).lock().expect("cache lock poisoned");
        let entry = shard.get_mut(key)?;
        if !entry.graph.same_plan_space(graph) {
            return None;
        }
        entry.last_used = tick;
        self.counters.warm_starts.fetch_add(1, Ordering::Relaxed);
        let front = &entry.frontier[..entry.frontier.len().min(WALKERS)];
        let (arena, front) = adopt_front(&entry.arena, front);
        Some((arena, front, entry.alpha))
    }

    /// Inserts (or tightens) the front for `key`: the frontier's plans are
    /// adopted out of `src_arena` into a compact cache-owned arena. An
    /// existing entry is only replaced when the new front carries a
    /// strictly tighter guarantee (serving power never regresses — also
    /// across signature collisions).
    pub fn insert(
        &self,
        key: CacheKey,
        graph: &JoinGraph,
        frontier: &[PlanEntry],
        src_arena: &PlanArena,
        alpha: f64,
    ) {
        if frontier.is_empty() {
            return;
        }
        // Cheap probe before the adoption work: the common repeat path
        // (an equally-loose front for an already resident entry, e.g.
        // every recomputed RMQ block) costs one lock round-trip and no
        // arena traffic.
        if let Some(existing) = self
            .shard_of(&key)
            .lock()
            .expect("cache lock poisoned")
            .get(&key)
        {
            if existing.alpha <= alpha {
                return;
            }
        }
        let tick = self.next_tick();
        let (arena, frontier) = adopt_front(src_arena, frontier);
        let mut shard = self.shard_of(&key).lock().expect("cache lock poisoned");
        if let Some(existing) = shard.get(&key) {
            // Re-check under the lock (the probe above raced with other
            // workers): tighter-only, regardless of which graph the
            // resident entry belongs to.
            if existing.alpha <= alpha {
                return;
            }
        }
        shard.insert(
            key,
            CacheEntry {
                graph: graph.clone(),
                alpha,
                arena,
                frontier,
                last_used: tick,
            },
        );
        self.counters.insertions.fetch_add(1, Ordering::Relaxed);
        while shard.len() > self.capacity_per_shard {
            let lru = shard
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty shard has an LRU entry");
            shard.remove(&lru);
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Entries currently resident across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache lock poisoned").len())
            .sum()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter + occupancy snapshot (one short lock acquisition per shard
    /// for the occupancy).
    #[must_use]
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            warm_starts: self.counters.warm_starts.load(Ordering::Relaxed),
            insertions: self.counters.insertions.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_cost::{CostVector, Objective, ObjectiveSet, Preference};
    use moqo_plan::{PlanProps, ScanOp, SortOrder};

    fn graph() -> (moqo_catalog::Catalog, JoinGraph) {
        use moqo_catalog::{ColumnStats, JoinGraphBuilder, TableStats};
        let mut cat = moqo_catalog::Catalog::new();
        cat.add_table(
            TableStats::new("a", 100.0, 8.0)
                .with_column(ColumnStats::new("id", 100.0).indexed())
                .with_column(ColumnStats::new("b_id", 10.0)),
        );
        cat.add_table(
            TableStats::new("b", 10.0, 8.0).with_column(ColumnStats::new("id", 10.0).indexed()),
        );
        let g = JoinGraphBuilder::new(&cat)
            .rel("a", 1.0)
            .rel("b", 1.0)
            .join(("a", "b_id"), ("b", "id"))
            .build();
        (cat, g)
    }

    fn key_for(g: &JoinGraph, p: &Preference) -> CacheKey {
        CacheKey {
            graph: g.signature(),
            objectives: p.objectives,
        }
    }

    fn front_in(arena: &mut PlanArena) -> Vec<PlanEntry> {
        let scan = arena.scan(0, ScanOp::SeqScan);
        vec![PlanEntry {
            cost: CostVector::from_pairs(&[(Objective::TotalTime, 5.0)]),
            props: PlanProps {
                rels: 0b1,
                rows: 1.0,
                width: 1.0,
                order: SortOrder::None,
                sampling_factor: 1.0,
            },
            plan: scan,
        }]
    }

    fn pref() -> Preference {
        Preference::over(ObjectiveSet::single(Objective::TotalTime))
            .weight(Objective::TotalTime, 1.0)
    }

    #[test]
    fn insert_then_hit_and_warm_start() {
        let (_cat, g) = graph();
        let cache = PlanCache::new(8, 2);
        let key = key_for(&g, &pref());
        let mut src = PlanArena::new();
        let front = front_in(&mut src);
        cache.insert(key, &g, &front, &src, 1.5);

        match cache.lookup(&key, &g, 2.0, false) {
            CacheLookup::Hit {
                frontier, alpha, ..
            } => {
                assert_eq!(alpha, 1.5);
                assert_eq!(frontier.len(), 1);
                assert_eq!(frontier[0].cost, front[0].cost);
            }
            _ => panic!("α′ = 2.0 ≥ 1.5 must serve directly"),
        }
        // Tighter request: not servable, but warm-start plans are there.
        match cache.lookup(&key, &g, 1.2, false) {
            CacheLookup::NotServable { alpha } => assert_eq!(alpha, 1.5),
            _ => panic!("α′ = 1.2 < 1.5 must not serve directly"),
        }
        let (arena, warm, alpha) = cache.warm_start(&key, &g).unwrap();
        assert_eq!(alpha, 1.5);
        assert_eq!(warm.len(), 1);
        assert_eq!(warm[0].cost, front[0].cost);
        assert_eq!(arena.node(warm[0].plan), src.node(front[0].plan));
        // Bounded requests need an exact front.
        assert!(matches!(
            cache.lookup(&key, &g, 2.0, true),
            CacheLookup::NotServable { .. }
        ));
        // Only the copy counts as a warm start.
        let snap = cache.snapshot();
        assert_eq!((snap.hits, snap.misses, snap.warm_starts), (1, 2, 1));
    }

    #[test]
    fn alias_renames_share_the_entry() {
        let (_cat, g) = graph();
        let cache = PlanCache::new(8, 1);
        let key = key_for(&g, &pref());
        let mut src = PlanArena::new();
        let front = front_in(&mut src);
        cache.insert(key, &g, &front, &src, 1.0);
        // Same block, different alias spellings: signature and serving
        // both ignore aliases.
        let mut renamed = g.clone();
        for (i, r) in renamed.rels.iter_mut().enumerate() {
            r.alias = format!("other_{i}");
        }
        assert_eq!(renamed.signature(), g.signature());
        assert!(matches!(
            cache.lookup(&key, &renamed, 1.0, true),
            CacheLookup::Hit { .. }
        ));
        // And a looser re-insert from the renamed variant does not evict
        // the tighter entry.
        cache.insert(key, &renamed, &front, &src, 2.0);
        assert!(matches!(
            cache.lookup(&key, &g, 1.0, false),
            CacheLookup::Hit { .. }
        ));
    }

    #[test]
    fn tighter_fronts_replace_looser_ones_only() {
        let (_cat, g) = graph();
        let cache = PlanCache::new(8, 1);
        let key = key_for(&g, &pref());
        let mut src = PlanArena::new();
        let front = front_in(&mut src);
        cache.insert(key, &g, &front, &src, 2.0);
        // Looser insert is ignored.
        cache.insert(key, &g, &front, &src, 3.0);
        match cache.lookup(&key, &g, 2.5, false) {
            CacheLookup::Hit { alpha, .. } => assert_eq!(alpha, 2.0),
            _ => panic!("entry must still carry α = 2.0"),
        }
        // Tighter insert replaces.
        cache.insert(key, &g, &front, &src, 1.0);
        match cache.lookup(&key, &g, 1.0, true) {
            CacheLookup::Hit { alpha, .. } => assert_eq!(alpha, 1.0),
            _ => panic!("exact entry serves even bounded requests"),
        }
        assert_eq!(
            cache.snapshot().insertions,
            2,
            "the looser insert wrote nothing"
        );
    }

    #[test]
    fn graph_mismatch_is_a_miss() {
        let (_cat, g) = graph();
        let cache = PlanCache::new(8, 1);
        let key = key_for(&g, &pref());
        let mut src = PlanArena::new();
        let front = front_in(&mut src);
        cache.insert(key, &g, &front, &src, 1.0);
        let mut other = g.clone();
        other.rels[0].filter_selectivity = 0.5;
        // Same key forced on a different graph: must not serve, and must
        // not hand out warm plans either.
        assert!(matches!(
            cache.lookup(&key, &other, 10.0, false),
            CacheLookup::Miss
        ));
        assert!(cache.warm_start(&key, &other).is_none());
        // Nor may a looser colliding insert displace the tighter entry.
        let mut src2 = PlanArena::new();
        let front2 = front_in(&mut src2);
        cache.insert(key, &other, &front2, &src2, 3.0);
        match cache.lookup(&key, &g, 1.0, false) {
            CacheLookup::Hit { alpha, .. } => assert_eq!(alpha, 1.0),
            _ => panic!("collision must not regress serving power"),
        }
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let (_cat, g) = graph();
        let cache = PlanCache::new(2, 1);
        let mut src = PlanArena::new();
        let front = front_in(&mut src);
        let keys: Vec<CacheKey> = (0..3)
            .map(|i| CacheKey {
                graph: GraphSignature(i),
                objectives: pref().objectives,
            })
            .collect();
        cache.insert(keys[0], &g, &front, &src, 1.0);
        cache.insert(keys[1], &g, &front, &src, 1.0);
        // Touch key 0 so key 1 is the LRU when key 2 arrives.
        let _ = cache.lookup(&keys[0], &g, 2.0, false);
        cache.insert(keys[2], &g, &front, &src, 1.0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.snapshot().evictions, 1);
        let resident = |key| matches!(cache.lookup(key, &g, 2.0, false), CacheLookup::Hit { .. });
        assert!(resident(&keys[0]));
        assert!(!resident(&keys[1]), "LRU entry evicted");
        assert!(resident(&keys[2]));
    }

    #[test]
    fn snapshot_hit_ratio() {
        let (_cat, g) = graph();
        let cache = PlanCache::new(4, 1);
        let key = key_for(&g, &pref());
        assert!(matches!(
            cache.lookup(&key, &g, 2.0, false),
            CacheLookup::Miss
        ));
        let mut src = PlanArena::new();
        let front = front_in(&mut src);
        cache.insert(key, &g, &front, &src, 1.0);
        let _ = cache.lookup(&key, &g, 2.0, false);
        let snap = cache.snapshot();
        assert_eq!((snap.hits, snap.misses), (1, 1));
        assert!((snap.hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(snap.entries, 1);
    }
}
