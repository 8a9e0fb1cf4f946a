//! Compares two `BENCH_*.json` snapshots and exits nonzero on regressions,
//! so the perf trajectory is CI-gated instead of eyeballed.
//!
//! ```text
//! bench_diff <baseline.json> <candidate.json> [--max-regression <pct>]
//!            [--timing-cells <name-prefix>]...
//! ```
//!
//! Two gates:
//!
//! * **Checksums** (always on): cells present in both files must report the
//!   same integrity checksum — fronts and set sizes are deterministic per
//!   seed on every platform, so a mismatch means the *work* changed, not
//!   the machine. Checksums are unsigned 64-bit integers compared exactly
//!   (a hash above 2^53 has no exact `f64`).
//! * **Timings** (only with `--max-regression <pct>`): a cell whose
//!   `median_ms` grew by more than `pct` percent fails. Timing gates only
//!   make sense when both snapshots come from the same machine; CI uses
//!   the checksum gate against the committed baseline and the timing gate
//!   against a same-run snapshot. `--timing-cells` (repeatable) restricts
//!   the timing gate to cells whose name starts with one of the given
//!   prefixes — that is how CI tracks a specific watched workload (the
//!   props-aware EXA chains) against the committed baseline with a
//!   cross-machine-tolerant threshold while leaving the noisier cells to
//!   the checksum gate alone.
//!
//! Cells are matched by `name` plus all parameter fields; baseline cells
//! missing from the candidate fail (a silently dropped benchmark is a
//! regression too), extra candidate cells only warn.
//!
//! Exit codes: `0` clean, `1` regression, `2` usage or parse error (a
//! checksum that is not an unsigned integer is a parse error).

use std::collections::BTreeMap;
use std::process::ExitCode;

/// One benchmark cell: identity (name + params), timing, and checksum.
#[derive(Debug, Clone, PartialEq)]
struct Cell {
    identity: String,
    median_ms: f64,
    checksum: Option<u64>,
}

/// Minimal parser for the snapshot dialect `bench_snapshot` writes (and
/// the committed `BENCH_pr*.json` files hold): a `"results"` array of
/// flat objects with string or numeric values. Not a general JSON parser
/// on purpose — the workspace is dependency-free and the input is
/// machine-written.
fn parse_cells(text: &str) -> Result<Vec<Cell>, String> {
    let results_at = text
        .find("\"results\"")
        .ok_or_else(|| "no \"results\" array found".to_owned())?;
    let rest = &text[results_at..];
    let open = rest
        .find('[')
        .ok_or_else(|| "\"results\" is not an array".to_owned())?;
    let mut cells = Vec::new();
    let mut chars = rest[open + 1..].char_indices().peekable();
    let body = &rest[open + 1..];
    while let Some((i, c)) = chars.next() {
        match c {
            '{' => {
                let end = body[i..]
                    .find('}')
                    .map(|off| i + off)
                    .ok_or_else(|| "unterminated result object".to_owned())?;
                cells.push(parse_object(&body[i + 1..end])?);
                while let Some(&(j, _)) = chars.peek() {
                    if j <= end {
                        chars.next();
                    } else {
                        break;
                    }
                }
            }
            ']' => return Ok(cells),
            c if c.is_whitespace() || c == ',' => {}
            other => return Err(format!("unexpected character {other:?} in results array")),
        }
    }
    Err("unterminated results array".to_owned())
}

/// Parses the interior of one flat `{...}` object (no nesting).
fn parse_object(body: &str) -> Result<Cell, String> {
    let mut fields: BTreeMap<String, String> = BTreeMap::new();
    for pair in split_top_level(body) {
        let (key, value) = pair
            .split_once(':')
            .ok_or_else(|| format!("malformed field {pair:?}"))?;
        let key = key.trim().trim_matches('"').to_owned();
        let value = value.trim().trim_matches('"').to_owned();
        fields.insert(key, value);
    }
    let name = fields
        .remove("name")
        .ok_or_else(|| "cell without a name".to_owned())?;
    let median_ms = fields
        .remove("median_ms")
        .ok_or_else(|| format!("cell {name} lacks median_ms"))?
        .parse::<f64>()
        .map_err(|e| format!("cell {name}: bad median_ms: {e}"))?;
    let checksum = fields
        .remove("checksum")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|e| format!("cell {name}: bad checksum {v:?}: {e}"))
        })
        .transpose()?;
    let params: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    Ok(Cell {
        identity: if params.is_empty() {
            name
        } else {
            format!("{name}[{}]", params.join(", "))
        },
        median_ms,
        checksum,
    })
}

/// Splits `a: 1, b: "x,y"` on commas outside string literals.
fn split_top_level(body: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut current = String::new();
    let mut in_string = false;
    for c in body.chars() {
        match c {
            '"' => {
                in_string = !in_string;
                current.push(c);
            }
            ',' if !in_string => {
                if !current.trim().is_empty() {
                    parts.push(std::mem::take(&mut current));
                }
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        parts.push(current);
    }
    parts
}

fn run(args: &[String]) -> Result<Vec<String>, String> {
    let mut paths = Vec::new();
    let mut max_regression: Option<f64> = None;
    let mut timing_cells: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--max-regression" {
            let pct = it
                .next()
                .ok_or_else(|| "--max-regression needs a percentage".to_owned())?;
            max_regression = Some(
                pct.parse::<f64>()
                    .map_err(|e| format!("bad --max-regression value: {e}"))?,
            );
        } else if arg == "--timing-cells" {
            let prefix = it
                .next()
                .ok_or_else(|| "--timing-cells needs a cell-name prefix".to_owned())?;
            timing_cells.push(prefix.clone());
        } else {
            paths.push(arg.clone());
        }
    }
    let [baseline_path, candidate_path] = paths.as_slice() else {
        return Err("usage: bench_diff <baseline.json> <candidate.json> \
                    [--max-regression <pct>] [--timing-cells <name-prefix>]..."
            .to_owned());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let baseline = parse_cells(&read(baseline_path)?)?;
    let candidate = parse_cells(&read(candidate_path)?)?;
    let candidate_map: BTreeMap<&str, &Cell> =
        candidate.iter().map(|c| (c.identity.as_str(), c)).collect();

    let mut failures = Vec::new();
    for base in &baseline {
        let Some(cand) = candidate_map.get(base.identity.as_str()) else {
            failures.push(format!("cell disappeared: {}", base.identity));
            continue;
        };
        if let (Some(b), Some(c)) = (base.checksum, cand.checksum) {
            if b != c {
                failures.push(format!(
                    "checksum mismatch in {}: baseline {b} vs candidate {c}",
                    base.identity
                ));
                continue;
            }
        }
        if let Some(pct) = max_regression {
            let gated = timing_cells.is_empty()
                || timing_cells
                    .iter()
                    .any(|p| base.identity.starts_with(p.as_str()));
            let limit = base.median_ms * (1.0 + pct / 100.0);
            if gated && cand.median_ms > limit && cand.median_ms - base.median_ms > 0.01 {
                failures.push(format!(
                    "timing regression in {}: {:.3} ms → {:.3} ms (> +{pct}%)",
                    base.identity, base.median_ms, cand.median_ms
                ));
            }
        }
    }
    let known: std::collections::BTreeSet<&str> =
        baseline.iter().map(|c| c.identity.as_str()).collect();
    for cand in &candidate {
        if !known.contains(cand.identity.as_str()) {
            eprintln!("note: new cell (not gated): {}", cand.identity);
        }
    }
    println!(
        "bench_diff: {} baseline cells, {} candidate cells, {} failure(s)",
        baseline.len(),
        candidate.len(),
        failures.len()
    );
    Ok(failures)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(failures) if failures.is_empty() => ExitCode::SUCCESS,
        Ok(failures) => {
            for f in &failures {
                eprintln!("FAIL: {f}");
            }
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SNAPSHOT: &str = r#"{
  "schema": "moqo-bench-snapshot/v1",
  "pr": 4,
  "results": [
    {"name": "exa_chain", "tables": 6, "median_ms": 20.5, "checksum": 11},
    {"name": "rmq_chain", "tables": 8, "threads": 2, "median_ms": 4.0, "checksum": 7}
  ]
}"#;

    #[test]
    fn parses_cells_with_identity() {
        let cells = parse_cells(SNAPSHOT).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].identity, "exa_chain[tables=6]");
        assert_eq!(cells[0].median_ms, 20.5);
        assert_eq!(cells[0].checksum, Some(11));
        assert_eq!(cells[1].identity, "rmq_chain[tables=8, threads=2]");
    }

    #[test]
    fn self_diff_is_clean() {
        let dir = std::env::temp_dir().join("moqo_bench_diff_self");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        std::fs::write(&path, SNAPSHOT).unwrap();
        let p = path.to_string_lossy().into_owned();
        let failures = run(&[p.clone(), p, "--max-regression".into(), "0".into()]).unwrap();
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn detects_checksum_mismatch_and_timing_regression() {
        let changed = SNAPSHOT
            .replace(
                "\"median_ms\": 20.5, \"checksum\": 11",
                "\"median_ms\": 20.5, \"checksum\": 12",
            )
            .replace("\"median_ms\": 4.0", "\"median_ms\": 9.0");
        let dir = std::env::temp_dir().join("moqo_bench_diff_regress");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let cand = dir.join("cand.json");
        std::fs::write(&base, SNAPSHOT).unwrap();
        std::fs::write(&cand, changed).unwrap();
        // Checksum gate alone: one failure.
        let failures = run(&[
            base.to_string_lossy().into_owned(),
            cand.to_string_lossy().into_owned(),
        ])
        .unwrap();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("checksum mismatch"));
        // Timing gate adds the rmq regression (4 ms → 9 ms > +30%).
        let failures = run(&[
            base.to_string_lossy().into_owned(),
            cand.to_string_lossy().into_owned(),
            "--max-regression".into(),
            "30".into(),
        ])
        .unwrap();
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("timing regression")));
    }

    #[test]
    fn checksums_compare_exactly_above_2_pow_53() {
        // Both values round to the same f64; as integers they differ by 1.
        let base = r#"{"results": [
    {"name": "service_trace_replay", "counter": "stream_checksum", "median_ms": 0.0000, "checksum": 18182511501769746661}
]}"#;
        let cand = base.replace("18182511501769746661", "18182511501769746662");
        let dir = std::env::temp_dir().join("moqo_bench_diff_wide");
        std::fs::create_dir_all(&dir).unwrap();
        let (base_path, cand_path) = (dir.join("base.json"), dir.join("cand.json"));
        std::fs::write(&base_path, base).unwrap();
        std::fs::write(&cand_path, cand).unwrap();
        let failures = run(&[
            base_path.to_string_lossy().into_owned(),
            cand_path.to_string_lossy().into_owned(),
        ])
        .unwrap();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("checksum mismatch"));
        // A non-integer checksum is a parse error (exit code 2), not a pass.
        assert!(parse_cells(&base.replace("18182511501769746661", "1.5")).is_err());
        assert!(parse_cells(&base.replace("18182511501769746661", "-1")).is_err());
    }

    #[test]
    fn timing_cells_restricts_the_timing_gate() {
        // rmq_chain regresses 4 ms → 9 ms; with the gate scoped to
        // exa_chain the regression is ignored, scoped to rmq_chain it fails.
        let changed = SNAPSHOT.replace("\"median_ms\": 4.0", "\"median_ms\": 9.0");
        let dir = std::env::temp_dir().join("moqo_bench_diff_scoped");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let cand = dir.join("cand.json");
        std::fs::write(&base, SNAPSHOT).unwrap();
        std::fs::write(&cand, changed).unwrap();
        let argv = |cells: &[&str]| {
            let mut v = vec![
                base.to_string_lossy().into_owned(),
                cand.to_string_lossy().into_owned(),
                "--max-regression".into(),
                "30".into(),
            ];
            for c in cells {
                v.push("--timing-cells".into());
                v.push((*c).to_owned());
            }
            v
        };
        assert!(run(&argv(&["exa_chain"])).unwrap().is_empty());
        let failures = run(&argv(&["rmq_chain"])).unwrap();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("timing regression"));
        // No filter: gate applies everywhere (same single failure here).
        assert_eq!(run(&argv(&[])).unwrap().len(), 1);
    }

    #[test]
    fn missing_cells_fail_and_new_cells_pass() {
        let smaller = SNAPSHOT.replace(
            "    {\"name\": \"rmq_chain\", \"tables\": 8, \"threads\": 2, \"median_ms\": 4.0, \"checksum\": 7}\n",
            "",
        );
        let smaller = smaller.replace("\"checksum\": 11},", "\"checksum\": 11}");
        let dir = std::env::temp_dir().join("moqo_bench_diff_missing");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let cand = dir.join("cand.json");
        std::fs::write(&base, SNAPSHOT).unwrap();
        std::fs::write(&cand, &smaller).unwrap();
        let failures = run(&[
            base.to_string_lossy().into_owned(),
            cand.to_string_lossy().into_owned(),
        ])
        .unwrap();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("disappeared"));
        // The reverse direction (baseline smaller) is clean.
        let failures = run(&[
            cand.to_string_lossy().into_owned(),
            base.to_string_lossy().into_owned(),
        ])
        .unwrap();
        assert!(failures.is_empty());
    }

    #[test]
    fn usage_errors() {
        assert!(run(&[]).is_err());
        assert!(run(&["one".into()]).is_err());
        assert!(run(&["a".into(), "b".into(), "--max-regression".into()]).is_err());
    }
}
