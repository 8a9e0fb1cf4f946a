//! End-to-end gate checks: seeded rule violations must make the lint
//! binary exit non-zero and name the offending `file:line`, and so must an
//! allowlist entry that waives nothing.

use std::path::Path;
use std::process::Command;

fn write(root: &Path, rel: &str, content: &str) {
    let p = root.join(rel);
    std::fs::create_dir_all(p.parent().expect("parent")).expect("mkdir");
    std::fs::write(p, content).expect("write fixture");
}

fn run_lint(root: &Path) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .arg(root)
        .output()
        .expect("run xtask lint");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

fn temp_root(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("moqo-lint-gate-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir temp root");
    dir
}

#[test]
fn clean_tree_passes_with_zero_exit() {
    let root = temp_root("clean");
    write(
        &root,
        "crates/app/src/lib.rs",
        "use std::sync::atomic::{AtomicUsize, Ordering};\n\npub fn f(n: &AtomicUsize) {\n    n.store(1, Ordering::Release);\n}\n",
    );
    let (ok, text) = run_lint(&root);
    assert!(ok, "clean tree must pass:\n{text}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn each_seeded_violation_fails_naming_file_and_line() {
    let cases: &[(&str, &str, &str, &str)] = &[
        (
            "relaxed-store",
            "crates/app/src/c.rs",
            "pub fn f(x: &X) {\n    x.flag.store(true, Ordering::Relaxed);\n}\n",
            "crates/app/src/c.rs:2",
        ),
        (
            "hot-path",
            "crates/app/src/d.rs",
            "#[moqo::hot_path]\npub fn f(m: &M) {\n    let _g = m.inner.lock().unwrap();\n}\n",
            "crates/app/src/d.rs:3",
        ),
        (
            "wall-clock",
            "crates/app/src/e.rs",
            "pub fn f() -> Instant {\n    Instant::now()\n}\n",
            "crates/app/src/e.rs:2",
        ),
    ];
    for (rule, rel, content, expect) in cases {
        let root = temp_root(rule);
        write(&root, rel, content);
        let (ok, text) = run_lint(&root);
        assert!(!ok, "seeded {rule} violation must fail the lint:\n{text}");
        assert!(
            text.contains(expect),
            "{rule}: output must name {expect}:\n{text}"
        );
        assert!(
            text.contains(rule),
            "{rule}: output must name the rule:\n{text}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn allowlist_waives_a_named_site() {
    let root = temp_root("allow");
    write(
        &root,
        "crates/app/src/e.rs",
        "pub fn f() -> Instant {\n    Instant::now()\n}\n",
    );
    write(
        &root,
        "crates/xtask/lint_allow.txt",
        "wall-clock crates/app/src/e.rs Instant::now()\n",
    );
    let (ok, text) = run_lint(&root);
    assert!(ok, "allowlisted site must pass:\n{text}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn stale_allowlist_entry_fails_naming_the_entry() {
    let root = temp_root("stale");
    write(
        &root,
        "crates/app/src/e.rs",
        "pub fn f() -> Instant {\n    Instant::now()\n}\n",
    );
    write(
        &root,
        "crates/xtask/lint_allow.txt",
        "wall-clock crates/app/src/e.rs Instant::now()\n\
         relaxed-store crates/app/src/gone.rs .store(0, Ordering::Relaxed);\n",
    );
    let (ok, text) = run_lint(&root);
    assert!(
        !ok,
        "an entry that waives nothing must fail the lint:\n{text}"
    );
    assert!(
        text.contains("relaxed-store crates/app/src/gone.rs .store(0, Ordering::Relaxed);"),
        "output must name the stale entry:\n{text}"
    );
    assert!(
        !text.contains("crates/app/src/e.rs:2"),
        "the used entry still waives its site:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&root);
}
