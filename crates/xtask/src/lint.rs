//! The concurrency-hygiene lint: five text-level rules that keep the
//! lock-free spine auditable and the `moqo_sync` facade authoritative.
//!
//! | rule | what it enforces |
//! |------|------------------|
//! | `raw-atomic` | no `std::sync::atomic` outside `crates/sync` — all atomics go through the `moqo_sync` facade (audited escape hatch: `moqo_sync::raw`) |
//! | `unsafe-safety` | every `unsafe` keyword carries a `// SAFETY:` comment on the same line or within the three lines above |
//! | `relaxed-store` | every `.store(…, Ordering::Relaxed)` is allowlisted — a Relaxed store must be provably not publishing data (the allowlist entry points at the justification) |
//! | `hot-path` | `#[moqo::hot_path]` function bodies contain no locking, allocation, or panicking-`unwrap` calls |
//! | `wall-clock` | no `Instant::now()` / `SystemTime::now()` outside the injected-clock seams (`TraceClock`, …) named in the allowlist |
//!
//! The rules are deliberately lexical, not syntactic: they run on a masked
//! copy of each file (comments and string literals blanked out) so they are
//! fast, dependency-free, and conservative. Anything they cannot prove
//! innocent is a finding; genuinely-fine sites go in `lint_allow.txt` next
//! to this crate, each entry naming the rule, a path suffix, and a
//! substring of the offending line.

/// One lint finding, pointing at a file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired (the short names from the table above).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.path, self.line, self.rule, self.message, self.excerpt
        )
    }
}

/// Parsed `lint_allow.txt`: lines of `<rule> <path-suffix> <substring…>`.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

#[derive(Debug)]
struct AllowEntry {
    rule: String,
    path_suffix: String,
    substring: String,
    used: std::cell::Cell<bool>,
}

impl Allowlist {
    /// Parses the allowlist text; `#` starts a comment, blank lines skip.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let (Some(rule), Some(path), Some(sub)) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "lint_allow.txt:{}: expected `<rule> <path-suffix> <substring>`, got `{line}`",
                    i + 1
                ));
            };
            entries.push(AllowEntry {
                rule: rule.to_string(),
                path_suffix: path.to_string(),
                substring: sub.trim().to_string(),
                used: std::cell::Cell::new(false),
            });
        }
        Ok(Self { entries })
    }

    /// True if some entry waives this violation (marks the entry used).
    pub fn allows(&self, v: &Violation) -> bool {
        for e in &self.entries {
            if e.rule == v.rule
                && v.path.ends_with(&e.path_suffix)
                && v.excerpt.contains(&e.substring)
            {
                e.used.set(true);
                return true;
            }
        }
        false
    }

    /// Entries that never waived anything — stale, worth pruning.
    pub fn unused(&self) -> Vec<String> {
        self.entries
            .iter()
            .filter(|e| !e.used.get())
            .map(|e| format!("{} {} {}", e.rule, e.path_suffix, e.substring))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Source masking
// ---------------------------------------------------------------------------

/// Returns the file with comments and string/char-literal *contents* blanked
/// to spaces (newlines kept), so lexical rules never fire inside prose, and a
/// parallel per-line flag for "this line is inside a `#[cfg(test)] mod`".
pub fn mask_source(content: &str) -> (String, Vec<bool>) {
    let masked = mask_comments_and_strings(content);
    let in_test = test_spans(content, &masked);
    (masked, in_test)
}

fn mask_comments_and_strings(content: &str) -> String {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let b: Vec<char> = content.chars().collect();
    let mut out = String::with_capacity(content.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        let next = b.get(i + 1).copied();
        match st {
            St::Code => match c {
                '/' if next == Some('/') => {
                    st = St::LineComment;
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                '/' if next == Some('*') => {
                    st = St::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                '"' => {
                    st = St::Str;
                    out.push('"');
                }
                'r' if next == Some('"') || next == Some('#') => {
                    // Possible raw string r"…" / r#"…"#.
                    let mut j = i + 1;
                    let mut hashes = 0u32;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&'"') {
                        st = St::RawStr(hashes);
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                        continue;
                    }
                    out.push(c);
                }
                '\'' => {
                    // Lifetime (`'a`) vs char literal (`'x'`, `'\n'`).
                    let is_lifetime = matches!(next, Some(n) if n.is_alphabetic() || n == '_')
                        && b.get(i + 2) != Some(&'\'');
                    if is_lifetime {
                        out.push(c);
                    } else {
                        st = St::Char;
                        out.push('\'');
                    }
                }
                _ => out.push(c),
            },
            St::LineComment => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            St::BlockComment(depth) => {
                if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                if c == '/' && next == Some('*') {
                    st = St::BlockComment(depth + 1);
                    out.push(' ');
                    i += 2;
                    continue;
                }
                if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    out.push(' ');
                    i += 2;
                    continue;
                }
            }
            St::Str => match c {
                '\\' => {
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                '"' => {
                    st = St::Code;
                    out.push('"');
                }
                '\n' => out.push('\n'),
                _ => out.push(' '),
            },
            St::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && b.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        st = St::Code;
                        for _ in i..j {
                            out.push(' ');
                        }
                        i = j;
                        continue;
                    }
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
            }
            St::Char => match c {
                '\\' => {
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                '\'' => {
                    st = St::Code;
                    out.push('\'');
                }
                _ => out.push(' '),
            },
        }
        i += 1;
    }
    out
}

/// Marks every line inside a `#[cfg(test)] mod … { … }` span (brace-matched
/// on the masked text, so braces in strings/comments don't confuse it).
fn test_spans(raw: &str, masked: &str) -> Vec<bool> {
    let raw_lines: Vec<&str> = raw.lines().collect();
    let masked_lines: Vec<&str> = masked.lines().collect();
    let mut flags = vec![false; raw_lines.len()];
    let mut i = 0;
    while i < raw_lines.len() {
        if raw_lines[i].trim_start().starts_with("#[cfg(test)]") {
            // Find the `mod` item this attribute decorates (skipping further
            // attributes); non-mod items are left to the line rules.
            let mut j = i + 1;
            while j < raw_lines.len() && raw_lines[j].trim_start().starts_with('#') {
                j += 1;
            }
            if j < raw_lines.len() && raw_lines[j].trim_start().starts_with("mod ") {
                let mut depth = 0i32;
                let mut opened = false;
                for (k, flag) in flags.iter_mut().enumerate().skip(j) {
                    for c in masked_lines.get(k).unwrap_or(&"").chars() {
                        match c {
                            '{' => {
                                depth += 1;
                                opened = true;
                            }
                            '}' => depth -= 1,
                            _ => {}
                        }
                    }
                    *flag = true;
                    if opened && depth <= 0 {
                        i = k;
                        break;
                    }
                }
            }
        }
        i += 1;
    }
    flags
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

fn line_of(content: &str, byte_pos: usize) -> usize {
    content[..byte_pos].chars().filter(|&c| c == '\n').count() + 1
}

fn excerpt(raw: &str, line: usize) -> String {
    raw.lines().nth(line - 1).unwrap_or("").trim().to_string()
}

/// `raw-atomic`: `std::sync::atomic` may only appear inside `crates/sync`
/// (the facade's own implementation). Everyone else uses `moqo_sync` — the
/// model build swaps it for the instrumented shims, so a raw import is a
/// blind spot the checker cannot see.
pub fn rule_raw_atomic(path: &str, raw: &str, masked: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    for (idx, line) in masked.lines().enumerate() {
        if line.contains("std::sync::atomic") {
            out.push(Violation {
                rule: "raw-atomic",
                path: path.to_string(),
                line: idx + 1,
                message: "raw std::sync::atomic bypasses the moqo_sync facade (use \
                          moqo_sync::atomic, or moqo_sync::raw for audited model-steering state)"
                    .to_string(),
                excerpt: excerpt(raw, idx + 1),
            });
        }
    }
    out
}

/// `unsafe-safety`: each `unsafe` keyword needs `// SAFETY:` on the same
/// line, or somewhere in the contiguous comment/attribute block immediately
/// above it (multi-line SAFETY comments are the norm for real invariants).
pub fn rule_unsafe_safety(path: &str, raw: &str, masked: &str) -> Vec<Violation> {
    let raw_lines: Vec<&str> = raw.lines().collect();
    let mut out = Vec::new();
    for (idx, line) in masked.lines().enumerate() {
        let Some(col) = find_word(line, "unsafe") else {
            continue;
        };
        if line.contains("unsafe_code") {
            continue; // `#![forbid(unsafe_code)]` and friends.
        }
        let same_line = raw_lines.get(idx).is_some_and(|l| {
            l.find("SAFETY:").is_some_and(|s| s < col) || l.contains("// SAFETY:")
        });
        let mut above = false;
        for k in (0..idx).rev() {
            let l = raw_lines.get(k).map_or("", |l| l.trim_start());
            if !(l.starts_with("//") || l.starts_with("#[") || l.starts_with("#!")) {
                break;
            }
            if l.contains("SAFETY:") {
                above = true;
                break;
            }
        }
        if !(same_line || above) {
            out.push(Violation {
                rule: "unsafe-safety",
                path: path.to_string(),
                line: idx + 1,
                message: "`unsafe` without a `// SAFETY:` comment in the comment block \
                          directly above — state the invariant that makes this sound"
                    .to_string(),
                excerpt: excerpt(raw, idx + 1),
            });
        }
    }
    out
}

/// Finds `word` at identifier boundaries; returns its byte column.
fn find_word(line: &str, word: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = line[from..].find(word) {
        let start = from + rel;
        let end = start + word.len();
        let ok_before = start == 0
            || !line[..start]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let ok_after = !line[end..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if ok_before && ok_after {
            return Some(start);
        }
        from = end;
    }
    None
}

/// `relaxed-store`: a `.store(…, Ordering::Relaxed)` publishes nothing —
/// which is exactly why each one must be allowlisted with a pointer to the
/// reasoning (or a model test) proving no consumer reads data "protected"
/// by it. Handles calls split across lines.
pub fn rule_relaxed_store(path: &str, raw: &str, masked: &str, in_test: &[bool]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = masked[from..].find(".store") {
        let start = from + rel;
        from = start + ".store".len();
        // Must be a call: next non-ws char is `(`.
        let rest = &masked[start + ".store".len()..];
        let Some(open_off) = rest.find(|c: char| !c.is_whitespace()) else {
            break;
        };
        if !rest[open_off..].starts_with('(') {
            continue;
        }
        // Walk to the matching close paren.
        let mut depth = 0i32;
        let mut end = None;
        for (off, c) in rest[open_off..].char_indices() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(open_off + off);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(end) = end else { break };
        let args = &rest[open_off..=end];
        if args.contains("Relaxed") {
            let line = line_of(masked, start);
            if in_test.get(line - 1).copied().unwrap_or(false) {
                continue;
            }
            out.push(Violation {
                rule: "relaxed-store",
                path: path.to_string(),
                line,
                message: "Relaxed store: if this publishes data it is a race; allowlist it in \
                          lint_allow.txt with the justification site"
                    .to_string(),
                excerpt: excerpt(raw, line),
            });
        }
    }
    out
}

/// Calls banned inside `#[moqo::hot_path]` bodies: locking, allocation, and
/// panicking unwraps all have unbounded or scheduler-dependent tails.
const HOT_PATH_BANNED: &[(&str, &str)] = &[
    (".unwrap()", "panicking unwrap"),
    (".expect(", "panicking expect"),
    (".lock(", "lock acquisition"),
    ("Mutex", "mutex use"),
    ("RwLock", "rwlock use"),
    ("vec!", "allocation"),
    ("Vec::new", "allocation"),
    ("Vec::with_capacity", "allocation"),
    ("Box::new", "allocation"),
    ("format!", "allocation"),
    ("String::new", "allocation"),
    ("String::from", "allocation"),
    (".to_string(", "allocation"),
    (".to_owned(", "allocation"),
    (".to_vec(", "allocation"),
];

/// `hot-path`: scans the brace-matched body of every function annotated
/// `#[moqo::hot_path]` for the banned constructs above.
pub fn rule_hot_path(path: &str, raw: &str, masked: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = masked[from..].find("#[moqo::hot_path]") {
        let attr_end = from + rel + "#[moqo::hot_path]".len();
        from = attr_end;
        // Body = first brace-matched block after the attribute.
        let Some(open_rel) = masked[attr_end..].find('{') else {
            break;
        };
        let body_start = attr_end + open_rel;
        let mut depth = 0i32;
        let mut body_end = masked.len();
        for (off, c) in masked[body_start..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        body_end = body_start + off;
                        break;
                    }
                }
                _ => {}
            }
        }
        let body = &masked[body_start..body_end];
        for (needle, why) in HOT_PATH_BANNED {
            let mut b = 0;
            while let Some(hit) = body[b..].find(needle) {
                let pos = body_start + b + hit;
                b += hit + needle.len();
                let line = line_of(masked, pos);
                out.push(Violation {
                    rule: "hot-path",
                    path: path.to_string(),
                    line,
                    message: format!(
                        "{why} (`{needle}`) inside a #[moqo::hot_path] function — hot paths \
                         must be lock-free, allocation-free and non-panicking"
                    ),
                    excerpt: excerpt(raw, line),
                });
            }
        }
    }
    out
}

/// `wall-clock`: `Instant::now` / `SystemTime::now` outside the injected
/// clock seams make latency decisions untestable and non-replayable; every
/// legitimate seam is named in the allowlist.
pub fn rule_wall_clock(path: &str, raw: &str, masked: &str, in_test: &[bool]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (idx, line) in masked.lines().enumerate() {
        if !(line.contains("Instant::now") || line.contains("SystemTime::now")) {
            continue;
        }
        if in_test.get(idx).copied().unwrap_or(false) {
            continue;
        }
        out.push(Violation {
            rule: "wall-clock",
            path: path.to_string(),
            line: idx + 1,
            message: "wall-clock read outside a clock seam — route through the injected \
                      clock (TraceClock) or allowlist the seam itself"
                .to_string(),
            excerpt: excerpt(raw, idx + 1),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Per-file dispatch
// ---------------------------------------------------------------------------

/// Applies every rule that is in scope for `path` (workspace-relative, `/`
/// separators) and returns the findings, allowlist not yet applied.
pub fn lint_file(path: &str, content: &str) -> Vec<Violation> {
    let (masked, in_test) = mask_source(content);
    let mut out = Vec::new();

    let in_sync = path.starts_with("crates/sync/");
    let in_bench = path.starts_with("crates/bench/");
    let is_lib_src = path.contains("/src/") && !path.contains("/bin/");

    if !in_sync {
        out.extend(rule_raw_atomic(path, content, &masked));
    }
    out.extend(rule_unsafe_safety(path, content, &masked));
    // The sync shims mirror every modeled store into a real atomic with
    // Relaxed on purpose (the model owns the ordering); everyone else
    // justifies each Relaxed store.
    if !in_sync && is_lib_src {
        out.extend(rule_relaxed_store(path, content, &masked, &in_test));
    }
    out.extend(rule_hot_path(path, content, &masked));
    // Bench binaries measure wall time — that is their job.
    if !in_bench && is_lib_src {
        out.extend(rule_wall_clock(path, content, &masked, &in_test));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(path: &str, src: &str) -> Vec<(String, usize)> {
        lint_file(path, src)
            .into_iter()
            .map(|v| (v.rule.to_string(), v.line))
            .collect()
    }

    #[test]
    fn raw_atomic_import_is_flagged_outside_sync() {
        let src = "use std::sync::atomic::AtomicUsize;\n";
        assert_eq!(
            rules("crates/service/src/queue.rs", src),
            vec![("raw-atomic".into(), 1)]
        );
        assert_eq!(rules("crates/sync/src/real.rs", src), vec![]);
    }

    #[test]
    fn facade_import_is_clean() {
        let src = "use moqo_sync::atomic::{AtomicUsize, Ordering};\n";
        assert_eq!(rules("crates/service/src/queue.rs", src), vec![]);
    }

    #[test]
    fn unsafe_without_safety_names_file_and_line() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let v = lint_file("crates/service/src/queue.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), ("unsafe-safety", 2));
    }

    #[test]
    fn unsafe_with_safety_comment_is_clean() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller upholds validity.\n    unsafe { *p }\n}\n";
        assert_eq!(rules("crates/service/src/queue.rs", src), vec![]);
        let inline = "// SAFETY: serialized by the checker.\nunsafe impl Sync for X {}\n";
        assert_eq!(rules("crates/service/src/queue.rs", inline), vec![]);
    }

    #[test]
    fn forbid_unsafe_code_attribute_is_not_an_unsafe_use() {
        assert_eq!(
            rules("crates/core/src/lib.rs", "#![forbid(unsafe_code)]\n"),
            vec![]
        );
    }

    #[test]
    fn unsafe_in_comment_or_string_is_ignored() {
        let src = "// this mentions unsafe in prose\nlet s = \"unsafe\";\n";
        assert_eq!(rules("crates/service/src/queue.rs", src), vec![]);
    }

    #[test]
    fn relaxed_store_is_flagged_even_across_lines() {
        let src =
            "fn f(a: &A) {\n    a.x.store(\n        1,\n        Ordering::Relaxed,\n    );\n}\n";
        let v = lint_file("crates/service/src/metrics.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), ("relaxed-store", 2));
    }

    #[test]
    fn release_store_and_test_module_relaxed_are_clean() {
        let src = "fn f(a: &A) { a.x.store(1, Ordering::Release); }\n";
        assert_eq!(rules("crates/service/src/metrics.rs", src), vec![]);
        let test_mod =
            "#[cfg(test)]\nmod tests {\n    fn f(a: &A) { a.x.store(1, Ordering::Relaxed); }\n}\n";
        assert_eq!(rules("crates/service/src/metrics.rs", test_mod), vec![]);
    }

    #[test]
    fn hot_path_lock_and_alloc_are_flagged() {
        let src = "#[moqo::hot_path]\nfn f(&self) {\n    let g = self.m.lock().unwrap();\n    let v = vec![1];\n}\nfn cold(&self) { let _ = self.m.lock(); }\n";
        let got = rules("crates/service/src/queue.rs", src);
        // .lock( and .unwrap() on line 3, vec! on line 4 — and nothing from
        // the un-annotated `cold`.
        assert!(got.contains(&("hot-path".into(), 3)), "{got:?}");
        assert!(got.contains(&("hot-path".into(), 4)), "{got:?}");
        assert!(got.iter().all(|(_, line)| *line != 6), "{got:?}");
    }

    #[test]
    fn hot_path_clean_body_passes() {
        let src = "#[moqo::hot_path]\nfn f(&self) -> usize {\n    self.len.fetch_add(1, Ordering::AcqRel)\n}\n";
        assert_eq!(rules("crates/service/src/queue.rs", src), vec![]);
    }

    #[test]
    fn wall_clock_flagged_in_lib_src_only() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(
            rules("crates/core/src/x.rs", src),
            vec![("wall-clock".into(), 1)]
        );
        assert_eq!(rules("crates/bench/src/bin/probe.rs", src), vec![]);
        assert_eq!(rules("crates/core/tests/x.rs", src), vec![]);
    }

    #[test]
    fn wall_clock_in_cfg_test_module_is_clean() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let t = Instant::now(); }\n}\n";
        assert_eq!(rules("crates/core/src/x.rs", src), vec![]);
    }

    #[test]
    fn allowlist_waives_and_tracks_usage() {
        let allow = Allowlist::parse(
            "# seams\nwall-clock core/src/x.rs Instant::now\nrelaxed-store never/hits.rs nope\n",
        )
        .expect("parse");
        let v = lint_file(
            "crates/core/src/x.rs",
            "fn f() { let t = Instant::now(); }\n",
        );
        assert_eq!(v.len(), 1);
        assert!(allow.allows(&v[0]));
        assert_eq!(
            allow.unused(),
            vec!["relaxed-store never/hits.rs nope".to_string()]
        );
    }

    #[test]
    fn allowlist_rejects_malformed_lines() {
        assert!(Allowlist::parse("wall-clock missing-substring\n").is_err());
    }
}
