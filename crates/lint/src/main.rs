//! `snapedge-lint` — a determinism lint over the workspace's own sources.
//!
//! The simulator's claim to reproducibility rests on four invariants that
//! `rustc` cannot check for us:
//!
//! 1. **No wall-clock time.** All time flows through the virtual
//!    [`SimClock`]; a stray `Instant::now()` makes a run depend on the host
//!    machine. Only the two wall-budget smokes
//!    (`crates/bench/src/bin/fleet_*.rs`) legitimately measure real time;
//!    the paper's figures (`crates/bench/src/figures.rs`) do not.
//! 2. **No hash-order iteration near serialized output.** Snapshot and
//!    delta scripts are byte-compared across endpoints, so any `HashMap`/
//!    `HashSet` in the files that produce them risks nondeterministic
//!    output ordering. Visited-sets that are never iterated may opt out
//!    with a `lint: allow(hash-iter)` comment on the same or preceding
//!    line.
//! 3. **No collection allocation inside hot-path loops.** A `Vec`/`String`
//!    born inside a `while`/`for` body reallocates every iteration of
//!    capture or interpretation; hoist it (or annotate
//!    `lint: allow(collect-in-loop)` when per-iteration ownership is the
//!    point).
//! 4. **No string-keyed maps on the hot path.** Identifier lookups go
//!    through interned [`Symbol`]s (`crates/webapp/src/intern.rs`); a
//!    `BTreeMap<String, _>`/`HashMap<String, _>` in hot code re-compares
//!    key bytes on every probe and usually marks a spot the interning
//!    refactor missed. Maps whose keys are genuinely arbitrary app data
//!    (object properties, DOM attributes) opt out with
//!    `lint: allow(string-keyed-map)`.
//!
//! The hot path is *derived*, not hand-listed: every `.rs` under the
//! core/net/webapp/analyze crates' `src/` is hot unless it appears in the
//! explicit [`HOT_PATH_OPT_OUT`] list, so newly added files (like the
//! effect pass) are covered by default instead of silently missed.
//!
//! Test modules (`#[cfg(test)]` regions, tracked by brace depth) are
//! exempt from rules 2–4; rule 1 applies everywhere outside the two
//! smokes, because determinism matters in tests too. Exit status is
//! non-zero when any finding is reported, so CI can gate on it.
//!
//! Panicking calls are not this lint's business: the hot crates' `lib.rs`
//! deny clippy's `unwrap_used`, `expect_used`, `panic`, `unreachable`,
//! `todo` and `unimplemented` outside tests, which the compiler checks
//! on real syntax rather than text.
//!
//! [`SimClock`]: ../snapedge_net/struct.SimClock.html

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Patterns that read the host's real clock.
const WALL_CLOCK: [&str; 2] = ["SystemTime::now", "Instant::now"];

/// Suppression comment for the hash-iter rule.
const ALLOW_HASH_ITER: &str = "lint: allow(hash-iter)";

/// Suppression comment for the collect-in-loop rule.
const ALLOW_COLLECT_IN_LOOP: &str = "lint: allow(collect-in-loop)";

/// Suppression comment for the string-keyed-map rule.
const ALLOW_STRING_KEYED_MAP: &str = "lint: allow(string-keyed-map)";

/// String-keyed map types that belong on the interned-`Symbol` path when
/// they appear in hot code.
const STRING_KEYED_MAPS: [&str; 2] = ["BTreeMap<String,", "HashMap<String,"];

/// Collection allocations that reallocate per iteration when they appear
/// inside a loop body.
const COLLECT_ALLOCS: [&str; 5] = [
    "Vec::new()",
    "String::new()",
    "vec![",
    "Vec::with_capacity",
    "String::with_capacity",
];

/// Files (or directory prefixes ending in `/`) whose output is serialized
/// and byte-compared, making hash iteration order observable.
const HASH_SENSITIVE: [&str; 5] = [
    "crates/webapp/src/snapshot.rs",
    "crates/webapp/src/delta.rs",
    "crates/webapp/src/value.rs",
    "crates/webapp/src/dom.rs",
    "crates/trace/src/",
];

/// Crates whose `src/` trees sit on (or feed) the capture → transfer →
/// restore → retry path. Every `.rs` under these prefixes is hot-path by
/// default, so new files get coverage without editing this lint.
const HOT_PATH_CRATES: [&str; 4] = [
    "crates/core/src/",
    "crates/net/src/",
    "crates/webapp/src/",
    "crates/analyze/src/",
];

/// Explicit opt-outs from the derived hot-path set: offline analysis,
/// report shaping, and config plumbing that never runs mid-offload. Keep
/// each entry justified — a new file under a hot crate is hot by default.
const HOT_PATH_OPT_OUT: [&str; 5] = [
    // Runs before any session exists (offline partition search / attack
    // evaluation), never between capture and restore.
    "crates/core/src/partition.rs",
    "crates/core/src/privacy.rs",
    "crates/core/src/energy.rs",
    // App-source literals assembled once at config time.
    "crates/core/src/apps.rs",
    // Config assembly, done before any offload starts.
    "crates/core/src/config.rs",
];

/// `true` when `rel` is on the derived hot path.
fn is_hot_path(rel: &str) -> bool {
    HOT_PATH_CRATES.iter().any(|p| rel.starts_with(p)) && !HOT_PATH_OPT_OUT.contains(&rel)
}

/// One lint hit, reported as `file:line: [rule] message`.
struct Finding {
    file: String,
    line: usize,
    rule: &'static str,
    message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

fn main() -> ExitCode {
    let root = match workspace_root() {
        Ok(root) => root,
        Err(msg) => {
            eprintln!("snapedge-lint: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let files = rust_sources(&root);
    let mut findings = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        match std::fs::read_to_string(path) {
            Ok(content) => findings.extend(lint_file(&rel, &content)),
            Err(e) => {
                eprintln!("snapedge-lint: reading {rel}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if findings.is_empty() {
        println!(
            "snapedge-lint: {} files scanned, no determinism findings",
            files.len()
        );
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            eprintln!("{f}");
        }
        eprintln!(
            "snapedge-lint: {} finding(s) in {} files scanned",
            findings.len(),
            files.len()
        );
        ExitCode::FAILURE
    }
}

/// Walks up from the current directory to the workspace root (the first
/// ancestor whose `Cargo.toml` declares `[workspace]`).
fn workspace_root() -> Result<PathBuf, String> {
    let start = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    for dir in start.ancestors() {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir.to_path_buf());
            }
        }
    }
    Err(format!(
        "no workspace Cargo.toml found above {}",
        start.display()
    ))
}

/// Collects every `.rs` file under `crates/`, `tests/` and `examples/`,
/// in sorted (deterministic) order.
fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for top in ["crates", "tests", "examples"] {
        collect_rs(&root.join(top), &mut files);
    }
    files.sort();
    files
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Marks the lines belonging to `#[cfg(test)]` items by tracking brace
/// depth from the attribute to the close of the item it gates.
fn test_region_mask(lines: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if !lines[i].trim_start().starts_with("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let mut depth = 0i64;
        let mut opened = false;
        let mut j = i;
        while j < lines.len() {
            mask[j] = true;
            for ch in lines[j].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    mask
}

/// Marks lines inside `while`/`for` bodies by tracking brace depth from
/// each loop keyword to the close of its body. Nested loops extend the
/// region; the header line itself is included (a `while` condition runs
/// per iteration too).
fn loop_region_mask(lines: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut depth = 0i64;
    // Brace depths at which an enclosing loop body opened.
    let mut loops: Vec<i64> = Vec::new();
    let mut pending_header = false;
    for (idx, line) in lines.iter().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            mask[idx] = !loops.is_empty();
            continue;
        }
        let header = trimmed.starts_with("for ")
            || trimmed.starts_with("while ")
            || trimmed.contains(" for ")
            || trimmed.contains(" while ");
        if header {
            pending_header = true;
        }
        mask[idx] = header || !loops.is_empty();
        for ch in line.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    if pending_header {
                        loops.push(depth);
                        pending_header = false;
                    }
                }
                '}' => {
                    if loops.last() == Some(&depth) {
                        loops.pop();
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        mask[idx] = mask[idx] || !loops.is_empty();
    }
    mask
}

/// Applies all four rules to one file; `rel` is the workspace-relative
/// path with forward slashes.
fn lint_file(rel: &str, content: &str) -> Vec<Finding> {
    let lines: Vec<&str> = content.lines().collect();
    let in_test = test_region_mask(&lines);
    let in_loop = loop_region_mask(&lines);
    // The fleet smokes hold the engine to a wall-clock budget; the lint's
    // own sources name the patterns they search for.
    let clock_exempt =
        rel.starts_with("crates/bench/src/bin/fleet_") || rel.starts_with("crates/lint/");
    let hash_sensitive = HASH_SENSITIVE
        .iter()
        .any(|p| rel == *p || (p.ends_with('/') && rel.starts_with(p)));
    let hot_path = is_hot_path(rel);
    let mut findings = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.trim_start().starts_with("//") {
            continue;
        }
        if !clock_exempt && WALL_CLOCK.iter().any(|p| line.contains(p)) {
            findings.push(Finding {
                file: rel.to_string(),
                line: idx + 1,
                rule: "wall-clock",
                message: "wall-clock time source outside the virtual clock (use SimClock)"
                    .to_string(),
            });
        }
        if in_test[idx] {
            continue;
        }
        if hash_sensitive && (line.contains("HashMap") || line.contains("HashSet")) {
            let allowed = line.contains(ALLOW_HASH_ITER)
                || (idx > 0 && lines[idx - 1].contains(ALLOW_HASH_ITER));
            if !allowed {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: idx + 1,
                    rule: "hash-iter",
                    message: format!(
                        "hash collection in serialization-sensitive code; use BTreeMap/BTreeSet \
                         or annotate `{ALLOW_HASH_ITER}`"
                    ),
                });
            }
        }
        if hot_path {
            if let Some(p) = STRING_KEYED_MAPS.iter().find(|p| line.contains(**p)) {
                let allowed = line.contains(ALLOW_STRING_KEYED_MAP)
                    || (idx > 0 && lines[idx - 1].contains(ALLOW_STRING_KEYED_MAP));
                if !allowed {
                    findings.push(Finding {
                        file: rel.to_string(),
                        line: idx + 1,
                        rule: "string-keyed-map",
                        message: format!(
                            "`{p}` on the hot path re-compares key bytes per probe; key by \
                             interned `Symbol` or annotate `{ALLOW_STRING_KEYED_MAP}`"
                        ),
                    });
                }
            }
            if in_loop[idx] {
                if let Some(p) = COLLECT_ALLOCS.iter().find(|p| line.contains(**p)) {
                    let allowed = line.contains(ALLOW_COLLECT_IN_LOOP)
                        || (idx > 0 && lines[idx - 1].contains(ALLOW_COLLECT_IN_LOOP));
                    if !allowed {
                        findings.push(Finding {
                            file: rel.to_string(),
                            line: idx + 1,
                            rule: "collect-in-loop",
                            message: format!(
                                "`{p}` allocates inside a loop body on the hot path; hoist it \
                                 or annotate `{ALLOW_COLLECT_IN_LOOP}`"
                            ),
                        });
                    }
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_flagged_outside_bench_and_lint() {
        let src = "fn f() { let t = Instant::now(); }\n";
        let found = lint_file("crates/core/src/device.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "wall-clock");
        assert_eq!(found[0].line, 1);
        // A figure may never read the host clock; a wall-budget smoke must.
        assert_eq!(lint_file("crates/bench/src/figures.rs", src).len(), 1);
        assert_eq!(lint_file("crates/bench/src/bin/figures.rs", src).len(), 1);
        assert!(lint_file("crates/bench/src/bin/fleet_scale.rs", src).is_empty());
        assert!(lint_file("crates/lint/src/main.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_applies_even_inside_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { SystemTime::now(); }\n}\n";
        let found = lint_file("crates/net/src/clock.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn hash_iter_respects_allow_comments() {
        let bare = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
        let found = lint_file("crates/webapp/src/snapshot.rs", bare);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "hash-iter");
        let same_line = "let v = HashSet::new(); // lint: allow(hash-iter)\n";
        assert!(lint_file("crates/webapp/src/snapshot.rs", same_line).is_empty());
        let prev_line = "// never iterated; lint: allow(hash-iter)\nlet v = HashSet::new();\n";
        assert!(lint_file("crates/webapp/src/delta.rs", prev_line).is_empty());
        // Not serialization-sensitive: no finding.
        assert!(lint_file("crates/dnn/src/zoo.rs", bare).is_empty());
    }

    #[test]
    fn comment_lines_are_ignored() {
        let src = "// mentions Instant::now and .unwrap() in prose\n";
        assert!(lint_file("crates/webapp/src/interp.rs", src).is_empty());
    }

    #[test]
    fn hot_path_is_derived_from_crate_globs() {
        // New files under hot crates are covered without editing the lint.
        assert!(is_hot_path("crates/analyze/src/effects.rs"));
        assert!(is_hot_path("crates/webapp/src/interp.rs"));
        assert!(is_hot_path("crates/net/src/link.rs"));
        assert!(is_hot_path("crates/core/src/session.rs"));
        // The balancer runs per round start on the engine's hot loop.
        assert!(is_hot_path("crates/core/src/balance.rs"));
        // Opt-outs and other crates are not.
        assert!(!is_hot_path("crates/core/src/privacy.rs"));
        assert!(!is_hot_path("crates/cli/src/main.rs"));
        assert!(!is_hot_path("crates/bench/src/lib.rs"));
        assert!(!is_hot_path("tests/effects.rs"));
    }

    #[test]
    fn collect_in_loop_is_flagged_on_hot_paths() {
        let src = "fn f() {\n    while go() {\n        let v = Vec::new();\n    }\n}\n";
        let found = lint_file("crates/webapp/src/interp.rs", src);
        assert_eq!(
            found.len(),
            1,
            "{found:?}",
            found = found.iter().map(|f| f.to_string()).collect::<Vec<_>>()
        );
        assert_eq!(found[0].rule, "collect-in-loop");
        assert_eq!(found[0].line, 3);
        // Same allocation outside any loop: fine.
        let flat = "fn f() {\n    let v = Vec::new();\n}\n";
        assert!(lint_file("crates/webapp/src/interp.rs", flat).is_empty());
        // And on a non-hot file: fine.
        assert!(lint_file("crates/cli/src/main.rs", src).is_empty());
    }

    #[test]
    fn collect_in_loop_respects_allow_comments() {
        let same_line =
            "fn f() {\n    for x in xs {\n        let v = Vec::new(); // lint: allow(collect-in-loop)\n    }\n}\n";
        assert!(lint_file("crates/webapp/src/delta.rs", same_line).is_empty());
        let prev_line = "fn f() {\n    for x in xs {\n        // per-item buffer; lint: allow(collect-in-loop)\n        let v = String::new();\n    }\n}\n";
        assert!(lint_file("crates/webapp/src/delta.rs", prev_line).is_empty());
    }

    #[test]
    fn loop_regions_cover_nested_and_multiline_headers() {
        let src = "fn f() {\n    for a in xs\n        .iter()\n    {\n        while b {\n            g();\n        }\n        h();\n    }\n    tail();\n}\n";
        let lines: Vec<&str> = src.lines().collect();
        let mask = loop_region_mask(&lines);
        assert!(mask[4] && mask[5] && mask[7], "{mask:?}");
        assert!(!mask[9], "tail() is outside the loop: {mask:?}");
        assert!(!mask[0], "fn header is outside: {mask:?}");
    }

    #[test]
    fn test_modules_are_exempt_from_collect_in_loop() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { for x in xs { let v = vec![x]; } }\n}\n";
        assert!(lint_file("crates/webapp/src/interp.rs", src).is_empty());
    }

    #[test]
    fn string_keyed_maps_are_flagged_on_hot_paths() {
        let src = "struct S { m: BTreeMap<String, u32> }\n";
        let found = lint_file("crates/webapp/src/browser.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "string-keyed-map");
        let hashed = "fn f() { let m: HashMap<String, u32> = HashMap::new(); }\n";
        let found = lint_file("crates/core/src/session.rs", hashed);
        assert_eq!(found.len(), 1, "HashMap<String, _> is flagged too");
        // Symbol-keyed maps and non-hot files are fine.
        let sym = "struct S { m: BTreeMap<Symbol, u32> }\n";
        assert!(lint_file("crates/webapp/src/browser.rs", sym).is_empty());
        assert!(lint_file("crates/cli/src/main.rs", src).is_empty());
    }

    #[test]
    fn string_keyed_map_respects_allow_comments() {
        let same_line = "struct S { m: BTreeMap<String, u32> } // lint: allow(string-keyed-map)\n";
        assert!(lint_file("crates/webapp/src/value.rs", same_line).is_empty());
        let prev_line =
            "// app-data keys; lint: allow(string-keyed-map)\nstruct S { m: BTreeMap<String, u32> }\n";
        assert!(lint_file("crates/webapp/src/value.rs", prev_line).is_empty());
        let test_mod =
            "#[cfg(test)]\nmod tests {\n    fn t() { let m: BTreeMap<String, u32> = BTreeMap::new(); }\n}\n";
        assert!(lint_file("crates/webapp/src/browser.rs", test_mod).is_empty());
    }

    #[test]
    fn findings_render_with_file_and_line() {
        let f = Finding {
            file: "crates/x.rs".into(),
            line: 12,
            rule: "wall-clock",
            message: "msg".into(),
        };
        assert_eq!(f.to_string(), "crates/x.rs:12: [wall-clock] msg");
    }
}
