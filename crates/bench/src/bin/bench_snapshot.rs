//! Perf-trajectory snapshot: runs a fixed workload matrix and writes median
//! wall-times to a JSON file (`BENCH_pr6.json` by default), so successive
//! PRs can track the optimizer hot paths with one committed artifact per
//! snapshot instead of scattered criterion reports.
//!
//! The matrix covers the three hot paths this repository optimizes:
//!
//! * **DP insert stream** — 2000 random cost vectors through
//!   `PlanSet::prune_insert` at 2/6/9 objectives,
//! * **Frontier probes** — how many dominance probes the EXA chains ran
//!   (each a sorted-prefix cutoff scan), as zero-time cells whose checksum
//!   is the counter value,
//! * **EXA** — the exact DP on 6- and 8-table chain join graphs
//!   (sampling off),
//! * **EXA, props-aware** — the same chains with sampling scans enabled,
//!   where `PruneMode::auto` switches every pruning site to props-aware
//!   dominance; the checksum gates the sound mode's fronts,
//! * **RMQ** — 1k and 10k samples on 8- and 20-table chains at 1, 2 and
//!   4 threads (the fronts are seed-deterministic, so the per-thread rows
//!   also certify the parallel merge: `front` must agree per column).
//!
//! Environment knobs:
//!
//! | variable | default | meaning |
//! |----------|---------|---------|
//! | `MOQO_SMOKE` | unset | `1`: single rep, budgets ÷10 (CI smoke mode) |
//! | `MOQO_BENCH_OUT` | `BENCH_pr6.json` | output path |
//! | `MOQO_BENCH_REPS` | 5 | repetitions per cell (median is reported) |

use std::time::Instant;

use moqo_core::pareto::{PlanEntry, PlanSet, PruneStrategy};
use moqo_core::{exa, rmq, Deadline, RmqConfig};
use moqo_cost::{CostVector, Objective, ObjectiveSet, Preference};
use moqo_costmodel::{CostModel, CostModelParams};
use moqo_plan::{PlanId, PlanProps, SortOrder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Cell {
    name: String,
    params: Vec<(&'static str, String)>,
    median_ms: f64,
    /// Workload-specific integrity value (front/set size) proving the
    /// measured runs did equivalent work across snapshots.
    checksum: usize,
}

fn median_ms(reps: usize, mut f: impl FnMut() -> usize) -> (f64, usize) {
    let mut times: Vec<f64> = Vec::with_capacity(reps);
    let mut checksum = 0;
    for _ in 0..reps {
        let started = Instant::now();
        checksum = f();
        times.push(started.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    (times[times.len() / 2], checksum)
}

fn random_entries(n: usize, objectives: usize, seed: u64) -> Vec<PlanEntry> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let mut a = [0.0; moqo_cost::NUM_OBJECTIVES];
            for v in a.iter_mut().take(objectives) {
                *v = rng.gen_range(1.0..1000.0);
            }
            PlanEntry {
                cost: CostVector::from_array(a),
                props: PlanProps {
                    rels: 1,
                    rows: 1.0,
                    width: 1.0,
                    order: SortOrder::None,
                    sampling_factor: 1.0,
                },
                plan: PlanId(i as u32),
            }
        })
        .collect()
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Emits the frontier probe counter for one EXA cell as a zero-time row:
/// the checksum IS the counter, so snapshot diffs surface any change in
/// how many dominance probes the run made. The counter is deterministic
/// per workload; the `outcome` parameter keeps the cell key the committed
/// baselines use.
fn push_probe_cell(cells: &mut Vec<Cell>, workload: &str, tables: usize, scan_probes: u64) {
    cells.push(Cell {
        name: format!("{workload}_probes"),
        params: vec![
            ("tables", tables.to_string()),
            ("outcome", "\"scan\"".to_owned()),
        ],
        median_ms: 0.0,
        checksum: usize::try_from(scan_probes).expect("probe counters fit usize"),
    });
    println!("{workload}_probes tables={tables}: scan {scan_probes}");
}

fn main() {
    let smoke = std::env::var("MOQO_SMOKE").is_ok_and(|v| v != "0");
    let reps: usize = std::env::var("MOQO_BENCH_REPS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(if smoke { 1 } else { 5 });
    let budget_div: u64 = if smoke { 10 } else { 1 };
    let out_path = std::env::var("MOQO_BENCH_OUT").unwrap_or_else(|_| "BENCH_pr6.json".to_owned());

    let preference = Preference::over(ObjectiveSet::empty())
        .weight(Objective::TotalTime, 1.0)
        .weight(Objective::BufferFootprint, 1e-6);
    let params = CostModelParams {
        enable_sampling: false,
        ..CostModelParams::default()
    };
    let catalog = moqo_tpch::catalog(0.01);
    let mut cells: Vec<Cell> = Vec::new();

    // DP insert stream: the Prune hot loop in isolation.
    for &n_objs in &[2usize, 6, 9] {
        let objs: ObjectiveSet = Objective::ALL.into_iter().take(n_objs).collect();
        let entries = random_entries(2000, n_objs, 99);
        let (ms, front) = median_ms(reps, || {
            let mut set = PlanSet::new();
            let strategy = PruneStrategy::exact();
            for e in &entries {
                set.prune_insert(*e, &strategy, objs);
            }
            set.len()
        });
        cells.push(Cell {
            name: "dp_insert_stream".into(),
            params: vec![
                ("objectives", n_objs.to_string()),
                ("vectors", "2000".into()),
            ],
            median_ms: ms,
            checksum: front,
        });
        println!("dp_insert_stream objectives={n_objs}: {ms:.3} ms (set {front})");
    }

    // EXA on chain graphs: the full DP inner loop.
    for &n in &[6usize, 8] {
        let graph = moqo_tpch::large_join_graph(&catalog, n);
        let model = CostModel::new(&params, &catalog, &graph);
        let mut probes = 0;
        let (ms, front) = median_ms(reps, || {
            let result = exa(&model, &preference, &Deadline::unlimited());
            probes = result.stats.frontier_scan_probes;
            result.final_plans.len()
        });
        cells.push(Cell {
            name: "exa_chain".into(),
            params: vec![("tables", n.to_string())],
            median_ms: ms,
            checksum: front,
        });
        println!("exa_chain tables={n}: {ms:.3} ms (front {front})");
        push_probe_cell(&mut cells, "exa_chain", n, probes);
    }

    // EXA with sampling scans enabled: the leaking regime, where the
    // entry points auto-select props-aware pruning. The front sizes gate
    // the sound mode's behaviour the same way the cost-only rows gate the
    // paper baseline.
    let sampled_params = CostModelParams::default();
    debug_assert!(sampled_params.enable_sampling);
    for &n in &[6usize, 8] {
        let graph = moqo_tpch::large_join_graph(&catalog, n);
        let model = CostModel::new(&sampled_params, &catalog, &graph);
        let mut probes = 0;
        let (ms, front) = median_ms(reps, || {
            let result = exa(&model, &preference, &Deadline::unlimited());
            probes = result.stats.frontier_scan_probes;
            result.final_plans.len()
        });
        cells.push(Cell {
            name: "exa_chain_props".into(),
            params: vec![("tables", n.to_string())],
            median_ms: ms,
            checksum: front,
        });
        println!("exa_chain_props tables={n}: {ms:.3} ms (front {front})");
        push_probe_cell(&mut cells, "exa_chain_props", n, probes);
    }

    // RMQ: samples × tables × threads. Fronts are deterministic per seed,
    // so equal checksums across the thread column certify the merge.
    for &n in &[8usize, 20] {
        let graph = moqo_tpch::large_join_graph(&catalog, n);
        let model = CostModel::new(&params, &catalog, &graph);
        for &samples in &[1_000u64, 10_000] {
            let samples = (samples / budget_div).max(1);
            for &threads in &[1usize, 2, 4] {
                let config = RmqConfig::new(samples, 42).with_threads(threads);
                let (ms, front) = median_ms(reps, || {
                    rmq(&model, &preference, &config, &Deadline::unlimited())
                        .final_plans
                        .len()
                });
                cells.push(Cell {
                    name: "rmq_chain".into(),
                    params: vec![
                        ("tables", n.to_string()),
                        ("samples", samples.to_string()),
                        ("threads", threads.to_string()),
                    ],
                    median_ms: ms,
                    checksum: front,
                });
                println!(
                    "rmq_chain tables={n} samples={samples} threads={threads}: \
                     {ms:.3} ms (front {front})"
                );
            }
        }
    }

    // Service metrics snapshot cost: the seed cloned and sorted the full
    // latency history under a lock on every snapshot, so cost grew with
    // uptime. The histogram rewrite makes it O(buckets); these cells pin
    // that — the 100× column must not cost 100× (the binary asserts a
    // generous 20× ceiling to stay robust on noisy CI machines).
    {
        use moqo_service::{EventKind, PlanCache, ServiceMetrics};
        use std::time::Duration;
        let cache = PlanCache::new(8, 1);
        let mut medians: Vec<f64> = Vec::new();
        for &completions in &[10_000u64, 1_000_000] {
            let metrics = ServiceMetrics::default();
            for i in 0..completions {
                metrics.on_event(EventKind::Enqueued, 0);
                metrics.on_completed(
                    Duration::from_micros(i % 3_000),
                    Duration::from_micros(500 + i % 20_000),
                );
            }
            // 64 snapshots per rep so the per-call cost is measurable.
            let (ms, count) = median_ms(reps.max(3), || {
                let mut completed = 0u64;
                for _ in 0..64 {
                    completed = metrics.snapshot(cache.snapshot(), 0).completed;
                }
                usize::try_from(completed).expect("counts fit usize")
            });
            medians.push(ms);
            cells.push(Cell {
                name: "metrics_snapshot_cost".into(),
                params: vec![("completions", completions.to_string())],
                median_ms: ms,
                checksum: count,
            });
            println!("metrics_snapshot_cost completions={completions}: {ms:.3} ms / 64 snapshots");
        }
        assert!(
            medians[1] < medians[0] * 20.0 + 2.0,
            "snapshot cost must be independent of completed-request count: \
             {:.3} ms at 10k vs {:.3} ms at 1M",
            medians[0],
            medians[1]
        );
    }

    // Hand-rolled JSON: the workspace is dependency-free by design.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"moqo-bench-snapshot/v1\",\n");
    json.push_str("  \"pr\": 6,\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let params: Vec<String> = c
            .params
            .iter()
            .map(|(k, v)| format!("\"{}\": {}", json_escape(k), v))
            .collect();
        json.push_str(&format!(
            "    {{\"name\": \"{}\", {}, \"median_ms\": {:.4}, \"checksum\": {}}}{}\n",
            json_escape(&c.name),
            params.join(", "),
            c.median_ms,
            c.checksum,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("snapshot file must be writable");
    println!("\nwrote {} cells to {out_path}", cells.len());
}
