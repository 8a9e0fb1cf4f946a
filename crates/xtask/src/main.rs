//! Workspace automation tasks. Currently one: the concurrency-hygiene lint
//! gate (`cargo run -p xtask -- lint`), which enforces the three rules
//! documented in [`lint`]: allowlisted Relaxed stores, lock- and
//! allocation-free `#[moqo::hot_path]` bodies, and wall-clock reads only
//! at the clock seams. Exits non-zero with `file:line` findings when a rule
//! is violated, and names every allowlist entry that waives nothing (a
//! stale entry would silently waive a future finding on a matching line);
//! CI runs it on every push (see `.github/workflows/`).
#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod lint;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(args.get(1).map(String::as_str)),
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint [workspace-root]");
            ExitCode::from(2)
        }
    }
}

/// Workspace root: explicit argument, else two levels up from this crate's
/// manifest (crates/xtask → root), else the current directory.
fn workspace_root(explicit: Option<&str>) -> PathBuf {
    if let Some(p) = explicit {
        return PathBuf::from(p);
    }
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        if let Some(root) = Path::new(&manifest).ancestors().nth(2) {
            return root.to_path_buf();
        }
    }
    PathBuf::from(".")
}

fn run_lint(root_arg: Option<&str>) -> ExitCode {
    let root = workspace_root(root_arg);

    let allow_path = root.join("crates/xtask/lint_allow.txt");
    let allow = match std::fs::read_to_string(&allow_path) {
        Ok(text) => match lint::Allowlist::parse(&text) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(_) => lint::Allowlist::default(),
    };

    let mut files = Vec::new();
    // First-party code only: the workspace crates, the root package, and
    // their tests. `vendor/` (third-party subsets) and build output are out
    // of scope.
    collect_rs(&root.join("crates"), &root, &mut files);
    collect_rs(&root.join("src"), &root, &mut files);
    collect_rs(&root.join("tests"), &root, &mut files);
    files.sort();

    let mut violations = Vec::new();
    let mut scanned = 0usize;
    for rel in &files {
        let Ok(content) = std::fs::read_to_string(root.join(rel)) else {
            continue;
        };
        scanned += 1;
        for v in lint::lint_file(rel, &content) {
            if !allow.allows(&v) {
                violations.push(v);
            }
        }
    }

    for v in &violations {
        eprintln!("{v}");
    }
    let stale = allow.unused();
    for entry in &stale {
        eprintln!("crates/xtask/lint_allow.txt: [stale-allow] entry waives nothing: {entry}");
    }
    if violations.is_empty() && stale.is_empty() {
        println!("lint: {scanned} files clean");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "lint: {} violation(s) and {} stale allowlist line(s) in {scanned} files",
            violations.len(),
            stale.len()
        );
        ExitCode::FAILURE
    }
}

/// Recursively gathers `.rs` files under `dir`, as `/`-separated paths
/// relative to `root`; skips VCS and build directories.
fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), ".git" | "target" | "vendor") {
                continue;
            }
            collect_rs(&path, root, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
}
