//! `snapedge-lint` — the workspace's source rules, one table of rows.
//!
//! Every check this repository makes on its own sources is a row of
//! [`RULES`]: a name, the paths it covers, what it matches, where in a
//! file it looks, an optional allow comment, and the message. Two
//! families share the table, one file walk and one matcher:
//!
//! * **Determinism.** `rustc` cannot see these, and the simulator's
//!   reproducibility rests on them:
//!   1. `wall-clock`: no `Instant::now`/`SystemTime::now` outside the
//!      virtual [`SimClock`], tests included. Only the two wall-budget
//!      smokes (`crates/bench/src/bin/fleet_*.rs`) measure real time; the
//!      paper's figures (`crates/bench/src/figures.rs`) do not.
//!   2. `hash-iter`: no `HashMap`/`HashSet` in the files whose output is
//!      serialized and byte-compared across endpoints. Visited-sets that
//!      are never iterated opt out with `lint: allow(hash-iter)`.
//!   3. `string-keyed-map`: no `BTreeMap<String, _>`/`HashMap<String, _>`
//!      on the hot path, where identifiers go through interned
//!      [`Symbol`]s. Maps keyed by app data opt out with
//!      `lint: allow(string-keyed-map)`.
//!   4. `collect-in-loop`: no `Vec`/`String` born inside a hot-path loop
//!      body; hoist it or annotate `lint: allow(collect-in-loop)`.
//!   5. `one-threaded-kernel`: no `std::thread` in any crate's `src/` but
//!      `crates/webapp/src/f32text.rs`, whose list text is split across
//!      cores and joined in order, so the core count reaches no output.
//!
//!   The hot path is derived, not hand-listed: every `.rs` under the
//!   core/net/webapp/analyze crates' `src/` is hot unless
//!   [`HOT_PATH_OPT_OUT`] names it. Rules 2–4 skip `#[cfg(test)]` items,
//!   and all five skip `//` lines.
//! * **Kept deletions.** Each `simplicity` change that folded two paths
//!   into one keeps the other deleted with a row: a name that stays gone,
//!   a call counted in one file, a directory that holds only its listed
//!   entries. These rows read `//` lines too: a comment that names a
//!   deleted type is where it starts coming back.
//!
//! A row never passes on nothing: a path that matches no file (a renamed
//! or moved file) is a finding. The lint's own sources are not scanned,
//! since they spell every pattern. It takes no argument and reads no
//! environment variable; the exit status is non-zero when any finding is
//! reported, so `ci.sh` gates on it.
//!
//! Panicking calls are not this lint's business: the hot crates' `lib.rs`
//! deny clippy's `unwrap_used`, `expect_used`, `panic`, `unreachable`,
//! `todo` and `unimplemented` outside tests, which the compiler checks
//! on real syntax rather than text.
//!
//! [`SimClock`]: ../snapedge_net/struct.SimClock.html
//! [`Symbol`]: ../snapedge_webapp/intern/struct.Symbol.html

use std::path::Path;
use std::process::ExitCode;

/// One check over the sources.
struct Rule {
    /// The name a finding is reported under.
    name: &'static str,
    /// Workspace-relative globs: `*` matches within one path segment,
    /// `**` across segments. Each must match at least one file.
    paths: &'static [&'static str],
    /// Globs of files the paths cover but the rule exempts.
    skip: &'static [&'static str],
    check: Check,
    scope: Scope,
    /// Whether lines that start with `//` are read.
    comments: bool,
    /// A comment that exempts its own line and the line after it.
    allow: Option<&'static str>,
    /// Lines holding one of these never match.
    unless: &'static [&'static str],
    message: &'static str,
}

/// What a rule asks of the files it covers. A pattern is a list of
/// literal alternatives; see [`holds`] for the two markers a literal may
/// carry.
enum Check {
    /// No line matches.
    Deny(&'static [&'static str]),
    /// Exactly this many lines of each covered file match.
    Count(&'static [&'static str], usize),
    /// Each path is a directory holding only these entries.
    Only(&'static [&'static str]),
    /// No path exists.
    Absent,
}

/// Where in a file a rule looks.
enum Scope {
    Whole,
    /// Outside `#[cfg(test)]` items.
    NonTest,
    /// Inside `while`/`for` bodies, outside `#[cfg(test)]` items.
    LoopNonTest,
    /// Outside the named function: a line belongs to the last `fn NAME`
    /// declared in code at or above it, tests included.
    OutsideFn(&'static str),
}

/// The kept-deletion rows' defaults: every line of every covered file,
/// comments included, as `grep` reads them.
const GUARD: Rule = Rule {
    name: "",
    paths: &[],
    skip: &[],
    check: Check::Absent,
    scope: Scope::Whole,
    comments: true,
    allow: None,
    unless: &[],
    message: "",
};

/// Every file under a crate's `src/`.
const SRC: &[&str] = &["crates/*/src/**"];

/// The crates' sources and the workspace tests.
const SRC_AND_TESTS: &[&str] = &["crates/*/src/**", "tests/**"];

/// Every Rust source the workspace builds.
const RUST: &[&str] = &["crates/**.rs", "tests/**.rs", "examples/**.rs"];

/// Files whose output is serialized and byte-compared, making hash
/// iteration order observable.
const HASH_SENSITIVE: &[&str] = &[
    "crates/webapp/src/snapshot.rs",
    "crates/webapp/src/delta.rs",
    "crates/webapp/src/value.rs",
    "crates/webapp/src/dom.rs",
    "crates/trace/src/**.rs",
];

/// Crates whose `src/` trees sit on (or feed) the capture → transfer →
/// restore → retry path. Every `.rs` under them is hot-path by default,
/// so new files get coverage without editing this lint.
const HOT_PATH: &[&str] = &[
    "crates/core/src/**.rs",
    "crates/net/src/**.rs",
    "crates/webapp/src/**.rs",
    "crates/analyze/src/**.rs",
];

/// Explicit opt-outs from the derived hot path: offline analysis, report
/// shaping, and config plumbing that never runs mid-offload. Keep each
/// entry justified — a new file under a hot crate is hot by default.
const HOT_PATH_OPT_OUT: &[&str] = &[
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

/// The lint's own sources name every pattern they search for.
const SELF: &str = "crates/lint/**";

const RULES: &[Rule] = &[
    Rule {
        name: "wall-clock",
        paths: RUST,
        // The fleet smokes hold the engine to a wall-clock budget.
        skip: &["crates/bench/src/bin/fleet_*"],
        check: Check::Deny(&["SystemTime::now", "Instant::now"]),
        comments: false,
        message: "wall-clock time source outside the virtual clock (use SimClock)",
        ..GUARD
    },
    Rule {
        name: "hash-iter",
        paths: HASH_SENSITIVE,
        check: Check::Deny(&["HashMap", "HashSet"]),
        scope: Scope::NonTest,
        comments: false,
        allow: Some("lint: allow(hash-iter)"),
        message: "hash collection in serialization-sensitive code; use BTreeMap/BTreeSet \
                  or annotate `lint: allow(hash-iter)`",
        ..GUARD
    },
    Rule {
        name: "string-keyed-map",
        paths: HOT_PATH,
        skip: HOT_PATH_OPT_OUT,
        check: Check::Deny(&["BTreeMap<String,", "HashMap<String,"]),
        scope: Scope::NonTest,
        comments: false,
        allow: Some("lint: allow(string-keyed-map)"),
        message: "a string-keyed map on the hot path re-compares key bytes per probe; key by \
                  interned `Symbol` or annotate `lint: allow(string-keyed-map)`",
        ..GUARD
    },
    Rule {
        name: "collect-in-loop",
        paths: HOT_PATH,
        skip: HOT_PATH_OPT_OUT,
        check: Check::Deny(&[
            "Vec::new()",
            "String::new()",
            "vec![",
            "Vec::with_capacity",
            "String::with_capacity",
        ]),
        scope: Scope::LoopNonTest,
        comments: false,
        allow: Some("lint: allow(collect-in-loop)"),
        message: "allocates inside a loop body on the hot path; hoist it or annotate \
                  `lint: allow(collect-in-loop)`",
        ..GUARD
    },
    Rule {
        name: "one-threaded-kernel",
        paths: SRC,
        skip: &["crates/webapp/src/f32text.rs"],
        check: Check::Deny(&["std::thread", "thread::scope", "thread::spawn"]),
        comments: false,
        message: "a thread outside f32text.rs: the simulation is single-threaded, and only the \
                  Float32Array text kernel splits a long list across cores",
        ..GUARD
    },
    Rule {
        name: "one-offload-path",
        paths: &["crates/core/src/scenario.rs"],
        check: Check::Deny(&[
            "schedule_resilient",
            "Link::new",
            "ServerPool",
            ".capture(",
            ".restore(",
        ]),
        scope: Scope::NonTest,
        message: "scenario.rs is growing a second offload driver: route it through OffloadSession",
        ..GUARD
    },
    Rule {
        name: "one-wire-helper",
        paths: &["crates/core/src/session.rs"],
        check: Check::Count(&["schedule_resilient("], 1),
        scope: Scope::NonTest,
        message: "session.rs repeats itself: one schedule_resilient( call, in send()",
        ..GUARD
    },
    Rule {
        name: "one-attach-path",
        paths: &["crates/core/src/session.rs"],
        check: Check::Count(&["Link::new("], 2),
        scope: Scope::NonTest,
        message: "session.rs repeats itself: two Link::new( calls, one uplink and one downlink, \
                  in AttachedServer::new",
        ..GUARD
    },
    Rule {
        name: "one-client-ending",
        paths: &["crates/core/src/session.rs"],
        check: Check::Count(&["RoundReport {"], 1),
        scope: Scope::NonTest,
        unless: &["struct RoundReport"],
        message: "session.rs repeats itself: one RoundReport literal, in end_round",
        ..GUARD
    },
    Rule {
        name: "no-fabricated-link-down",
        paths: &["crates/core/src/session.rs"],
        check: Check::Deny(&["NetError::LinkDown"]),
        scope: Scope::NonTest,
        message: "session.rs reports a spent pre-send budget as a down link again: return \
                  Ok(false) and let provisioned() decide",
        ..GUARD
    },
    Rule {
        name: "one-provisioning-rule",
        paths: &["crates/core/src/scenario.rs"],
        check: Check::Deny(&["OffloadSession::build", ".provision()"]),
        scope: Scope::NonTest,
        message: "scenario.rs carries its own provisioning rule again: OffloadSession::new is \
                  the one",
        ..GUARD
    },
    Rule {
        name: "photo-for-a-click",
        paths: &["crates/core/src/session.rs"],
        check: Check::Deny(&["synthetic_image_data_url("]),
        scope: Scope::OutsideFn("round_start"),
        message: "session.rs draws a photo outside round_start: the app loads with an empty src \
                  and each round draws its own",
        ..GUARD
    },
    Rule {
        name: "two-capture-paths",
        paths: SRC,
        check: Check::Deny(&["CaptureHints", "set_capture_hints", "pruned_globals"]),
        message: "write-set-pruned delta capture is back: a delta capture compares every global",
        ..GUARD
    },
    Rule {
        name: "two-gate-effects",
        paths: SRC,
        check: Check::Deny(&[
            "round_writes",
            "EffectCache",
            "max_new_cells",
            "simulate_contention",
        ]),
        message: "effect analysis is two gates: the write sets, ceilings, cache and contention \
                  simulator stay deleted",
        ..GUARD
    },
    Rule {
        name: "no-render-cache",
        paths: SRC,
        check: Check::Deny(&["RenderCache", "render_cache", "HEAP_GENERATION"]),
        message: "float text is printed, not cached: the render cache and its heap versions \
                  stay deleted",
        ..GUARD
    },
    Rule {
        name: "one-gate-chain",
        paths: SRC,
        check: Check::Deny(&[
            "EffectVerdict",
            "BalanceDecision",
            "ProactiveLocal",
            "EventKind::Predict",
            "decide_unreachable",
            "LatencyPredictor",
            "fn migrate_down",
            "fn charge_capture_",
            "fn charge_restore_",
        ]),
        message: "one gate chain, one migration: the five gate kinds, the decide_* doors, the \
                  latency predictor and the mirrored migrate/charge helpers stay deleted",
        ..GUARD
    },
    Rule {
        name: "figures-are-rows",
        paths: &["crates/bench/src/bin"],
        check: Check::Only(&["figures.rs", "fleet_scale.rs", "fleet_balance.rs"]),
        message: "crates/bench/src/bin/ grew a binary: a figure is a function in \
                  crates/bench/src/figures.rs",
        ..GUARD
    },
    Rule {
        name: "one-table-printer",
        paths: SRC,
        check: Check::Deny(&["print_table", "mod timeline", "core::timeline"]),
        message: "the per-figure table printer and the second Gantt renderer stay deleted",
        ..GUARD
    },
    Rule {
        name: "engine-log-is-data",
        paths: &["crates/core/src/engine.rs"],
        check: Check::Deny(&["event_log.push(format!", "-> &[String]"]),
        message: "engine.rs formats its log as it runs: push an EngineEvent, render in \
                  event_lines()",
        ..GUARD
    },
    Rule {
        name: "no-policy-knobs",
        paths: &["crates/core/src/config.rs"],
        check: Check::Deny(&[
            r"pub balance\b",
            r"pub fn balance\b",
            r"pub fair_share\b",
            r"pub fn fair_share\b",
            r"pub batch_window\b",
            r"pub fn batch_window\b",
        ]),
        message: "config.rs grew a fleet policy knob: balance, fair share and batching are \
                  Engine switches",
        ..GUARD
    },
    Rule {
        name: "no-policy-reads",
        paths: SRC,
        check: Check::Deny(&["cfg.balance", "cfg.fair_share", "cfg.batch_window"]),
        message: "a fleet policy is read off a config: balance, fair share and batching are \
                  Engine switches",
        ..GUARD
    },
    Rule {
        name: "no-borrow-bundles",
        paths: &["crates/core/src/engine.rs"],
        check: Check::Deny(&[
            "struct DrainState",
            "struct GrantStats",
            "too_many_arguments",
        ]),
        message: "engine.rs is bundling borrows again: per-client and per-server state lives in \
                  RunState's slots",
        ..GUARD
    },
    Rule {
        name: "one-resilient-scheduler",
        paths: SRC,
        check: Check::Deny(&["schedule_resilient_traced"]),
        message: "the traced twin of schedule_resilient stays deleted",
        ..GUARD
    },
    Rule {
        name: "single-threaded-tracer",
        paths: &["crates/trace/src/tracer.rs"],
        check: Check::Deny(&["Mutex"]),
        message: "the tracer is single-threaded: a session never leaves its thread",
        ..GUARD
    },
    Rule {
        name: "capture-options-only",
        paths: &["crates/webapp/src/snapshot.rs"],
        check: Check::Deny(&["pub verify:", "pub effects:"]),
        message: "snapshot.rs grew a gate switch: verify and effects are OffloadConfig fields",
        ..GUARD
    },
    Rule {
        name: "gate-switches",
        paths: SRC,
        check: Check::Deny(&["snapshot.verify", "snapshot.effects", "options.verify"]),
        message: "a gate switch is read off a snapshot or capture option: the gate chain owns \
                  its switches",
        ..GUARD
    },
    Rule {
        name: "verifier-is-an-oracle",
        paths: SRC,
        check: Check::Deny(&[
            "verify_script",
            "Gate::Verify",
            "OffloadError::Verify",
            "Verdict::Reject",
            "cfg.verify",
        ]),
        message: "the verify gate, its switch, its error and its verdict stay deleted: the \
                  verifier is a test oracle",
        ..GUARD
    },
    Rule {
        name: "html-text-is-scanned",
        paths: &["crates/webapp/src/html.rs"],
        check: Check::Deny(&[".replace(\"&", ".windows("]),
        scope: Scope::NonTest,
        message: "html.rs walks its text again: scan it with find_set",
        ..GUARD
    },
    Rule {
        name: "no-doc-attrs",
        paths: SRC,
        check: Check::Deny(&["fn doc_attrs"]),
        message: "the attribute-cloning doc_attrs stays deleted",
        ..GUARD
    },
    Rule {
        name: "element-alphabet",
        paths: &["crates/webapp/src/lexer.rs"],
        check: Check::Deny(&["(0/0)", "(1/0)", "(-1/0)"]),
        scope: Scope::NonTest,
        message: "lexer.rs spells a Float32Array element again: the element reader is \
                  f32text::scan_f32_element",
        ..GUARD
    },
    Rule {
        name: "shared-string",
        paths: &["crates/webapp/src/**"],
        check: Check::Deny(&["Str(String)"]),
        message: "crates/webapp/src copies a MiniJS string again: Token::Str, Expr::Str and \
                  JsValue::Str hold Rc<str>",
        ..GUARD
    },
    Rule {
        name: "one-link-health-file",
        paths: &["crates/net/src/estimator.rs", "crates/core/src/adaptive.rs"],
        check: Check::Absent,
        message: "is back: the estimate lives in LinkHealth, the runtime decision in \
                  PartitionOptimizer::plan",
        ..GUARD
    },
    Rule {
        name: "one-link-health-record",
        paths: &["crates/**", "tests/**", "examples/**"],
        check: Check::Deny(&[
            "BandwidthEstimator",
            "AdaptiveOffloader",
            "AdaptivePolicy",
            "ServerHealth",
        ]),
        message: "the bandwidth estimator, the per-server health wrapper and the adaptive \
                  controller stay folded into LinkHealth, ServerPool and PartitionOptimizer::plan",
        ..GUARD
    },
    Rule {
        name: "one-flag-table",
        paths: &["crates/cli/src/main.rs"],
        check: Check::Deny(&[".flag(\"", "bool_flag(", "const USAGE: &str"]),
        scope: Scope::NonTest,
        message: "cli/src/main.rs reads flags by name again: declare the flag in FLAGS and read \
                  it by Flag",
        ..GUARD
    },
    Rule {
        name: "one-switch-matrix",
        paths: &["tests/**", "crates/**"],
        check: Check::Deny(&[
            "bit_identical_across_the_chaos_seed_matrix",
            "replays_bit_for_bit_across_chaos_seeds",
            "chaos_seed_matrix_is_correct_and_reproducible",
            "meter_off_session_reports_zero_usage",
            "every_verdict_satisfies_the_comparison_it_names_across_the_chaos_seed_matrix",
        ]),
        message: "a per-switch chaos-seed loop is back: make it a case of tests/combinations.rs",
        ..GUARD
    },
    Rule {
        name: "server-by-type",
        paths: SRC_AND_TESTS,
        check: Check::Deny(&["== \"client\"", "!= \"client\"", ".server, \"client\""]),
        message: "a local round reports server None: compare with None or is_some(), not a name",
        ..GUARD
    },
    Rule {
        name: "no-modeled-rotation",
        paths: &["crates/core/src/engine.rs"],
        check: Check::Deny(&["client + done"]),
        message: "engine.rs rotates modeled clients again: place them by ServerPool::select's \
                  rule",
        ..GUARD
    },
    Rule {
        name: "one-placement-rule",
        paths: SRC,
        skip: &["crates/core/src/fleet.rs", "crates/core/src/balance.rs"],
        check: Check::Deny(&["predicted_migration(", "predicted_wait("]),
        message: "a server is ranked outside fleet.rs and balance.rs: call ServerPool::select",
        ..GUARD
    },
    Rule {
        name: "one-record-per-fact",
        paths: SRC_AND_TESTS,
        check: Check::Deny(&[r"\bmodel_ready\b", r"\bset_down\b", "mark_model_"]),
        message: "a second record of a failover fact is back: read OffloadSession::ack_at, or put \
                  a down window in the link's FaultPlan",
        ..GUARD
    },
    Rule {
        name: "one-cut",
        paths: &["crates/core/src/gates.rs"],
        check: Check::Deny(&[".plan(", ".best("]),
        scope: Scope::NonTest,
        message: "gates.rs chooses a cut again: price the session's own cut with \
                  PartitionOptimizer::against_local",
        ..GUARD
    },
    Rule {
        name: "no-report-prediction",
        paths: &["crates/core/src/session.rs", "crates/core/src/scenario.rs"],
        check: Check::Deny(&[
            "^prediction:",
            "^pub prediction:",
            "^pub(crate) prediction:",
        ]),
        message: "a report carries the planner's decision again: proactive and the gate:plan \
                  reading say what the gate decided",
        ..GUARD
    },
];

/// A file (with its text) or a directory (`text: None`) under the
/// scanned roots, by workspace-relative path with forward slashes.
struct Entry {
    rel: String,
    text: Option<String>,
}

/// One lint hit, reported as `file:line: [rule] message`; line 0 stands
/// for the path as a whole.
#[derive(Debug)]
struct Finding {
    file: String,
    line: usize,
    rule: &'static str,
    message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.file, self.rule, self.message)
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.file, self.line, self.rule, self.message
            )
        }
    }
}

fn main() -> ExitCode {
    let tree = match workspace_root().and_then(|root| scan(&root)) {
        Ok(tree) => tree,
        Err(msg) => {
            eprintln!("snapedge-lint: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let files = tree.iter().filter(|e| e.text.is_some()).count();
    let findings = lint(&tree);
    if findings.is_empty() {
        println!(
            "snapedge-lint: {files} files scanned, {} rules, no findings",
            RULES.len()
        );
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            eprintln!("{f}");
        }
        eprintln!(
            "snapedge-lint: {} finding(s) in {files} files scanned",
            findings.len()
        );
        ExitCode::FAILURE
    }
}

/// Walks up from the current directory to the workspace root (the first
/// ancestor whose `Cargo.toml` declares `[workspace]`).
fn workspace_root() -> Result<std::path::PathBuf, String> {
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

/// Every file and directory under `crates/`, `tests/` and `examples/`
/// (build output in `target/` aside), sorted by path.
fn scan(root: &Path) -> Result<Vec<Entry>, String> {
    let mut tree = Vec::new();
    for top in ["crates", "tests", "examples"] {
        collect(root, &root.join(top), &mut tree)?;
    }
    tree.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(tree)
}

fn collect(root: &Path, dir: &Path, out: &mut Vec<Entry>) -> Result<(), String> {
    let rel = |path: &Path| {
        let rel = path.strip_prefix(root).unwrap_or(path);
        rel.to_string_lossy().replace('\\', "/")
    };
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", rel(dir)))?;
    out.push(Entry {
        rel: rel(dir),
        text: None,
    });
    for entry in entries {
        let path = entry
            .map_err(|e| format!("reading {}: {e}", rel(dir)))?
            .path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect(root, &path, out)?;
            }
        } else {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", rel(&path)))?;
            out.push(Entry {
                rel: rel(&path),
                text: Some(text),
            });
        }
    }
    Ok(())
}

/// Every rule over `tree`: its stale paths, then its violations.
fn lint(tree: &[Entry]) -> Vec<Finding> {
    RULES
        .iter()
        .flat_map(|rule| stale(rule, tree).into_iter().chain(violations(rule, tree)))
        .collect()
}

/// The paths of `rule` that name nothing it can check: a glob matching
/// no file, or a listed directory that does not exist.
fn stale(rule: &Rule, tree: &[Entry]) -> Vec<Finding> {
    let found = |path: &str| match rule.check {
        Check::Absent => true,
        Check::Only(_) => tree.iter().any(|e| e.text.is_none() && e.rel == path),
        Check::Deny(_) | Check::Count(..) => tree
            .iter()
            .any(|e| e.text.is_some() && glob(path.as_bytes(), e.rel.as_bytes())),
    };
    rule.paths
        .iter()
        .filter(|path| !found(path))
        .map(|path| Finding {
            file: path.to_string(),
            line: 0,
            rule: rule.name,
            message: "matches no file: was it renamed or moved? point the rule at it".to_string(),
        })
        .collect()
}

/// What `rule` finds wrong in `tree`.
fn violations(rule: &Rule, tree: &[Entry]) -> Vec<Finding> {
    let finding = |file: &str, line: usize, message: String| Finding {
        file: file.to_string(),
        line,
        rule: rule.name,
        message,
    };
    let mut findings = Vec::new();
    let files = tree
        .iter()
        .filter(|e| covers(rule, &e.rel))
        .filter_map(|e| Some((e.rel.as_str(), e.text.as_deref()?)));
    match rule.check {
        Check::Deny(pattern) => {
            for (rel, text) in files {
                for (line, lit) in hits(rule, pattern, text) {
                    findings.push(finding(rel, line, format!("`{lit}`: {}", rule.message)));
                }
            }
        }
        Check::Count(pattern, want) => {
            for (rel, text) in files {
                let lines: Vec<String> = hits(rule, pattern, text)
                    .iter()
                    .map(|(line, _)| line.to_string())
                    .collect();
                if lines.len() != want {
                    let message = format!(
                        "{} lines match {pattern:?} (at {}), want {want}: {}",
                        lines.len(),
                        lines.join(", "),
                        rule.message
                    );
                    findings.push(finding(rel, 0, message));
                }
            }
        }
        Check::Only(names) => {
            for dir in rule.paths {
                for entry in tree {
                    let name = entry
                        .rel
                        .strip_prefix(dir)
                        .and_then(|r| r.strip_prefix('/'));
                    if let Some(name) = name.filter(|n| !n.contains('/') && !names.contains(n)) {
                        findings.push(finding(
                            &entry.rel,
                            0,
                            format!("`{name}`: {}", rule.message),
                        ));
                    }
                }
            }
        }
        Check::Absent => {
            for entry in tree.iter().filter(|e| rule.paths.contains(&e.rel.as_str())) {
                findings.push(finding(&entry.rel, 0, rule.message.to_string()));
            }
        }
    }
    findings
}

/// Whether `rule` reads the file at `rel`.
fn covers(rule: &Rule, rel: &str) -> bool {
    let any = |globs: &[&str]| globs.iter().any(|g| glob(g.as_bytes(), rel.as_bytes()));
    any(rule.paths) && !any(rule.skip) && !any(&[SELF])
}

/// Whether path `s` matches glob `p`: `**` matches any run of
/// characters, `*` any run without a `/`, and every other byte itself.
fn glob(p: &[u8], s: &[u8]) -> bool {
    match p {
        [] => s.is_empty(),
        [b'*', b'*', rest @ ..] => (0..=s.len()).any(|i| glob(rest, &s[i..])),
        [b'*', rest @ ..] => (0..=s.len())
            .take_while(|&i| i == 0 || s[i - 1] != b'/')
            .any(|i| glob(rest, &s[i..])),
        [c, rest @ ..] => s.first() == Some(c) && glob(rest, &s[1..]),
    }
}

/// The lines of `text` in `rule`'s scope that hold one of `pattern`'s
/// literals, each with its 1-based number and the first literal it holds.
fn hits(rule: &Rule, pattern: &[&'static str], text: &str) -> Vec<(usize, &'static str)> {
    let lines: Vec<&str> = text.lines().collect();
    let in_scope = match rule.scope {
        Scope::Whole => vec![true; lines.len()],
        Scope::NonTest => test_region_mask(&lines).iter().map(|t| !t).collect(),
        Scope::LoopNonTest => {
            let in_test = test_region_mask(&lines);
            let in_loop = loop_region_mask(&lines);
            in_loop
                .iter()
                .zip(&in_test)
                .map(|(l, t)| *l && !t)
                .collect()
        }
        Scope::OutsideFn(name) => outside_fn(&lines, name),
    };
    let allowed = |idx: usize| {
        rule.allow.is_some_and(|allow| {
            lines[idx].contains(allow) || (idx > 0 && lines[idx - 1].contains(allow))
        })
    };
    let mut found = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if !in_scope[idx]
            || (!rule.comments && line.trim_start().starts_with("//"))
            || rule.unless.iter().any(|u| line.contains(u))
            || allowed(idx)
        {
            continue;
        }
        if let Some(lit) = pattern.iter().find(|lit| holds(line, lit)) {
            found.push((idx + 1, *lit));
        }
    }
    found
}

/// Whether `line` holds the literal `lit`. A leading `^` asks for it to
/// open the line after leading whitespace; a leading or trailing `\b`
/// asks for a word boundary there (the literal's own end is a word
/// character).
fn holds(line: &str, lit: &str) -> bool {
    let (anchored, lit) = lit.strip_prefix('^').map_or((false, lit), |l| (true, l));
    let (open, lit) = lit.strip_prefix(r"\b").map_or((false, lit), |l| (true, l));
    let (close, lit) = lit.strip_suffix(r"\b").map_or((false, lit), |l| (true, l));
    let word = |c: Option<char>| c.is_some_and(part_of_word);
    let bounded = |line: &str, at: usize| {
        let before = line[..at].chars().next_back();
        let after = line[at + lit.len()..].chars().next();
        !((open && word(before)) || (close && word(after)))
    };
    if anchored {
        let body = line.trim_start();
        body.starts_with(lit) && bounded(body, 0)
    } else {
        line.match_indices(lit).any(|(at, _)| bounded(line, at))
    }
}

/// Marks the lines outside function `name`: each line belongs to the
/// last `fn IDENT` at or above it, read from code, not comments, with
/// `fn` a word of its own.
fn outside_fn(lines: &[&str], name: &str) -> Vec<bool> {
    let mut current = "";
    lines
        .iter()
        .map(|line| {
            let code = code_of(line);
            let named = words(code, "fn").find_map(|at| {
                let rest = code[at + 2..].strip_prefix(' ')?;
                let end = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .unwrap_or(rest.len());
                (end > 0).then(|| &rest[..end])
            });
            if let Some(named) = named {
                current = named;
            }
            current != name
        })
        .collect()
}

/// Marks the lines belonging to `#[cfg(test)]` items by tracking brace
/// depth from the attribute to the close of the item it gates; an item
/// that ends in `;` before opening a brace (`use`, `mod tests;`) ends
/// there.
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
            let bodiless = !opened && lines[j].trim_end().ends_with(';');
            if bodiless || (opened && depth <= 0) {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    mask
}

/// The part of `line` before a `//` comment.
fn code_of(line: &str) -> &str {
    line.find("//").map_or(line, |at| &line[..at])
}

/// Whether `c` can be part of an identifier.
fn part_of_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Where `word` stands in `code` as a word of its own.
fn words<'a>(code: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    code.match_indices(word)
        .map(|(at, _)| at)
        .filter(move |&at| {
            !code[..at].chars().next_back().is_some_and(part_of_word)
                && !code[at + word.len()..]
                    .chars()
                    .next()
                    .is_some_and(part_of_word)
        })
}

/// Whether `code` opens a `for`, `while` or `loop`: the keyword where a
/// statement or expression starts — at the start of the line or after `{`,
/// `}`, `;`, `=`, `=>` or a closure's `|` — with an optional `'label:`
/// before it. `impl Trait for Type` and `for<'a>` bounds are no loops.
fn opens_loop(code: &str) -> bool {
    ["for", "while", "loop"].iter().any(|keyword| {
        words(code, keyword).any(|at| {
            let before = code[..at].trim_end();
            let label = before.strip_suffix(':').and_then(|b| {
                let quote = b.rfind('\'')?;
                let name = &b[quote + 1..];
                let is_name = !name.is_empty() && !name.contains(|c: char| !part_of_word(c));
                is_name.then_some(quote)
            });
            let before = label.map_or(before, |quote| code[..quote].trim_end());
            before.is_empty()
                || before.ends_with(['{', '}', ';', '=', '|'])
                || before.ends_with("=>")
        })
    })
}

/// Marks lines inside `for`/`while`/`loop` bodies by tracking brace depth
/// from each loop keyword to the close of its body. Nested loops extend
/// the region; the header line itself is included (a `while` condition
/// runs per iteration too).
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
        let header = opens_loop(code_of(line));
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

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(name: &str) -> &'static Rule {
        RULES
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("no rule named {name}"))
    }

    fn file(rel: &str, text: &str) -> Entry {
        Entry {
            rel: rel.to_string(),
            text: Some(text.to_string()),
        }
    }

    /// The deny rows' findings in one file.
    fn lint_file(rel: &str, content: &str) -> Vec<Finding> {
        let tree = [file(rel, content)];
        RULES
            .iter()
            .filter(|r| matches!(r.check, Check::Deny(_)))
            .flat_map(|r| violations(r, &tree))
            .collect()
    }

    /// Whether the derived hot path covers `rel`.
    fn is_hot_path(rel: &str) -> bool {
        covers(rule("string-keyed-map"), rel)
    }

    /// (rule, path, a fixture that must fire, its twin that must not).
    /// A line rule's fixture is the file's text; a files rule's is the
    /// entries of the directory `path`, one a line. Where a real past
    /// violation exists, it is the firing fixture.
    const FIXTURES: &[(&str, &str, &str, &str)] = &[
        (
            "wall-clock",
            "crates/core/src/device.rs",
            "fn f() { let t = Instant::now(); }",
            "// Instant::now in prose\nfn f() { let t = clock.now(); }",
        ),
        (
            "wall-clock",
            "tests/engine.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { SystemTime::now(); }\n}",
            "fn t() { SimClock::new(); }",
        ),
        (
            "hash-iter",
            "crates/trace/src/tracer.rs",
            "use std::collections::HashMap;",
            "use std::collections::BTreeMap;\nlet seen = HashSet::new(); // lint: allow(hash-iter)",
        ),
        (
            "string-keyed-map",
            "crates/webapp/src/browser.rs",
            "struct S { m: BTreeMap<String, u32> }",
            "struct S { m: BTreeMap<Symbol, u32> }",
        ),
        (
            "collect-in-loop",
            "crates/webapp/src/interp.rs",
            "fn f() {\n    while go() {\n        let v = Vec::new();\n    }\n}",
            "fn f() {\n    let v = Vec::new();\n    while go() {}\n}",
        ),
        (
            "collect-in-loop",
            "crates/core/src/fleet.rs",
            "    for x in xs { let v = Vec::new(); }",
            "impl Default for Bar { fn default() -> Self { Bar(Vec::new()) } }",
        ),
        (
            "one-threaded-kernel",
            "crates/core/src/engine.rs",
            "        let worker = std::thread::spawn(move || run(client));",
            "thread_local! {\n    static SEEN: Cell<u64> = const { Cell::new(0) };\n}",
        ),
        (
            "one-offload-path",
            "crates/core/src/scenario.rs",
            "        let outcome = schedule_resilient_traced(",
            "#[cfg(test)]\nmod tests {\n    fn t() { Link::new(spec); }\n}",
        ),
        (
            "one-wire-helper",
            "crates/core/src/session.rs",
            "        let outcome = schedule_resilient(\n        let ack_outcome = schedule_resilient(",
            "        let outcome = schedule_resilient(\n#[cfg(test)]\nmod tests {\n    fn t() { schedule_resilient(); }\n}",
        ),
        (
            "one-attach-path",
            "crates/core/src/session.rs",
            "            uplink: Link::new(spec.link.clone())\n            downlink: Link::new(spec.link.clone())\n        let probe = Link::new(spec.link.clone());",
            "            uplink: Link::new(spec.link.clone())\n            downlink: Link::new(spec.link.clone())",
        ),
        (
            "one-client-ending",
            "crates/core/src/session.rs",
            "        let mut report = RoundReport {\n        return Ok(RoundReport {",
            "pub struct RoundReport {\n        let mut report = RoundReport {",
        ),
        (
            "no-fabricated-link-down",
            "crates/core/src/session.rs",
            "            return Err(OffloadError::Net(NetError::LinkDown));",
            "            return Ok(false);",
        ),
        (
            "one-provisioning-rule",
            "crates/core/src/scenario.rs",
            "    let acked = match session.provision() {",
            "    let mut session = OffloadSession::new(cfg)?;",
        ),
        (
            "photo-for-a-click",
            "crates/core/src/session.rs",
            "    fn setup_client(&mut self, params: ParamStore) -> Result<(), OffloadError> {\n        let url = apps::synthetic_image_data_url(self.cfg.seed, self.cfg.image_bytes);",
            "    pub(crate) fn round_start(&mut self, image_seed: u64) -> Result<RoundStep, OffloadError> {\n        let url = apps::synthetic_image_data_url(image_seed, self.cfg.image_bytes);",
        ),
        (
            "photo-for-a-click",
            "crates/core/src/session.rs",
            "    fn setup_client(&mut self, params: ParamStore) -> Result<(), OffloadError> {\n        // drawn as in fn round_start\n        let url = apps::synthetic_image_data_url(self.cfg.seed, self.cfg.image_bytes);",
            "    pub(crate) fn round_start(&mut self, image_seed: u64) -> Result<RoundStep, OffloadError> {\n        // not as in fn setup_client\n        let url = apps::synthetic_image_data_url(image_seed, self.cfg.image_bytes);",
        ),
        (
            "photo-for-a-click",
            "crates/core/src/session.rs",
            "    fn setup_client(&mut self) {\n        let note = \"a refn round_start\";\n        let url = apps::synthetic_image_data_url(self.cfg.seed, self.cfg.image_bytes);",
            "    fn round_start(&mut self) {\n        let note = \"a refn setup_client\";\n        let url = apps::synthetic_image_data_url(image_seed, self.cfg.image_bytes);",
        ),
        (
            "two-capture-paths",
            "crates/bench/src/bin/capture_pruned.rs",
            "        browser.set_capture_hints(None);",
            "        browser.set_offload_trigger(None);",
        ),
        (
            "two-gate-effects",
            "crates/analyze/src/effects.rs",
            "pub struct EffectCache {",
            "pub struct EffectSummary {",
        ),
        (
            "no-render-cache",
            "crates/webapp/src/value.rs",
            "static HEAP_GENERATION: AtomicU64 = AtomicU64::new(1);",
            "static NEXT_ID: AtomicU64 = AtomicU64::new(1);",
        ),
        (
            "one-gate-chain",
            "crates/core/src/session.rs",
            "    fn charge_capture_client(&self, bytes: u64) {",
            "    fn charge(&self, lane: Lane, bytes: u64) {",
        ),
        (
            "figures-are-rows",
            "crates/bench/src/bin",
            "figures.rs\nfleet_scale.rs\nfleet_balance.rs\nfoo.rs",
            "figures.rs\nfleet_scale.rs\nfleet_balance.rs",
        ),
        (
            "one-table-printer",
            "crates/core/src/lib.rs",
            "pub mod timeline;",
            "pub mod trace_view;",
        ),
        (
            "engine-log-is-data",
            "crates/core/src/engine.rs",
            "                        self.event_log.push(format!(",
            "                        self.event_log.push(EngineEvent::Arrive { client });",
        ),
        (
            "no-policy-knobs",
            "crates/core/src/config.rs",
            "    pub fn fair_share(mut self, on: bool) -> ConfigBuilder<C> {",
            "    pub balanced_by: String,",
        ),
        (
            "no-policy-reads",
            "crates/cli/src/main.rs",
            "    cfg.balance = parse_balance_flag(args)?;",
            "    engine = engine.balance(parse_balance_flag(args)?);",
        ),
        (
            "no-borrow-bundles",
            "crates/core/src/engine.rs",
            "    #[allow(clippy::too_many_arguments)]",
            "    #[allow(clippy::cast_possible_truncation)]",
        ),
        (
            "one-resilient-scheduler",
            "crates/core/src/lib.rs",
            "    classify, schedule_resilient, schedule_resilient_traced, FaultClass, ResilienceOutcome,",
            "    classify, schedule_resilient, FaultClass, ResilienceOutcome,",
        ),
        (
            "single-threaded-tracer",
            "crates/trace/src/tracer.rs",
            "use std::sync::{Arc, Mutex};",
            "use std::cell::RefCell;",
        ),
        (
            "capture-options-only",
            "crates/webapp/src/snapshot.rs",
            "    pub effects: bool,",
            "    pub incremental: bool,",
        ),
        (
            "gate-switches",
            "crates/core/src/session.rs",
            "                    if self.cfg.snapshot.verify {",
            "                    if self.cfg.effects {",
        ),
        (
            "verifier-is-an-oracle",
            "crates/core/src/gates.rs",
            "        Gate::Verify => \"verify\",",
            "        Gate::Plan => \"plan\",",
        ),
        (
            "html-text-is-scanned",
            "crates/webapp/src/html.rs",
            "    text.replace(\"&amp;\", \"&\").replace(\"&lt;\", \"<\")",
            "    find_set(text, b\"&<\")\n#[cfg(test)]\nmod tests {\n    fn t() { bytes.windows(2); }\n}",
        ),
        (
            "no-doc-attrs",
            "crates/webapp/src/html.rs",
            "fn doc_attrs(doc: &Document, id: NodeId) -> Vec<(String, String)> {",
            "        for (k, v) in doc.attrs(id) {",
        ),
        (
            "element-alphabet",
            "crates/webapp/src/lexer.rs",
            "    for (text, numerator, depth) in [(\"(0/0)\", 0.0, 3), (\"(1/0)\", 1.0, 3), (\"(-1/0)\", -1.0, 4)] {",
            "    let (value, end) = f32text::scan_f32_element(bytes, at)?;",
        ),
        (
            "shared-string",
            "crates/webapp/src/ast.rs",
            "    Str(String),",
            "    Str(Rc<str>),",
        ),
        (
            "one-link-health-file",
            "crates/net/src",
            "estimator.rs\nlink.rs",
            "link.rs",
        ),
        (
            "one-link-health-record",
            "crates/core/src/fleet.rs",
            "pub struct ServerHealth {",
            "pub struct LinkHealth {",
        ),
        (
            "one-link-health-record",
            "crates/core/Cargo.toml",
            "# the AdaptivePolicy tables",
            "# the planner's tables",
        ),
        (
            "one-flag-table",
            "crates/cli/src/main.rs",
            "fn bool_flag(args: &Args, name: &str) -> Result<bool, String> {",
            "#[cfg(test)]\nmod tests {\n    fn t() { args.flag(\"model\"); }\n}",
        ),
        (
            "one-switch-matrix",
            "tests/metering.rs",
            "fn meter_off_session_reports_zero_usage() {",
            "fn meter_off_changes_nothing() {",
        ),
        (
            "server-by-type",
            "crates/core/src/fleet.rs",
            "    if servers.iter().any(|spec| spec.name == \"client\") {",
            "    if report.server.is_none() {",
        ),
        (
            "server-by-type",
            "tests/failover.rs",
            "        assert_eq!(report.server, \"client\", \"the round never left the client\");",
            "        assert_eq!(report.server, None, \"the round never left the client\");",
        ),
        (
            "no-modeled-rotation",
            "crates/core/src/engine.rs",
            "        let server = (client + done) % self.service.len();",
            "        let server = pool.select(client, at);",
        ),
        (
            "one-placement-rule",
            "crates/core/src/engine.rs",
            "        let wait = outlook.predicted_wait(server, at);",
            "        let server = pool.select(client, at);",
        ),
        (
            "one-record-per-fact",
            "crates/core/src/fleet.rs",
            "    model_ready: bool,",
            "    model_ready_at: Option<Duration>,",
        ),
        (
            "one-record-per-fact",
            "tests/failover.rs",
            "        link.set_down(true);",
            "        link.set_downlink(true);",
        ),
        (
            "one-cut",
            "crates/core/src/gates.rs",
            "    .plan(false, unacked, penalty)?;",
            "    .against_local(cut, unacked, penalty)?;",
        ),
        (
            "no-report-prediction",
            "crates/core/src/scenario.rs",
            "    pub prediction: Option<Decision>,",
            "    let prediction: Option<Decision> = None;\n    pub predictions: u32,",
        ),
    ];

    /// The tree a fixture stands for.
    fn fixture_tree(rule: &Rule, path: &str, fixture: &str) -> Vec<Entry> {
        match rule.check {
            Check::Only(_) | Check::Absent => fixture
                .lines()
                .map(|name| file(&format!("{path}/{name}"), ""))
                .collect(),
            Check::Deny(_) | Check::Count(..) => vec![file(path, fixture)],
        }
    }

    #[test]
    fn every_rule_fires_on_its_fixture_and_passes_its_twin() {
        for (name, path, fire, pass) in FIXTURES {
            let rule = rule(name);
            let fired = violations(rule, &fixture_tree(rule, path, fire));
            assert!(!fired.is_empty(), "{name} did not fire on {path}:\n{fire}");
            let passed = violations(rule, &fixture_tree(rule, path, pass));
            assert!(
                passed.is_empty(),
                "{name} fired on {path}:\n{pass}\n{passed:?}"
            );
        }
    }

    #[test]
    fn every_rule_has_a_fixture_and_a_name_of_its_own() {
        for (i, rule) in RULES.iter().enumerate() {
            assert!(
                FIXTURES.iter().any(|f| f.0 == rule.name),
                "rule {} has no fixture",
                rule.name
            );
            assert!(
                RULES[..i].iter().all(|r| r.name != rule.name),
                "two rules are named {}",
                rule.name
            );
        }
    }

    #[test]
    fn a_rule_whose_file_is_gone_reports_it() {
        // gates.rs renamed: the one-cut rule would otherwise pass on nothing.
        let tree = [file("crates/core/src/cut_gates.rs", "    .plan(false)?;")];
        let found = stale(rule("one-cut"), &tree);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].file, "crates/core/src/gates.rs");
        assert!(lint(&tree).iter().any(|f| f.rule == "one-cut"));
        // On an empty tree every rule but the absent-file one reports.
        for rule in RULES {
            let none = stale(rule, &[]);
            assert_eq!(
                none.is_empty(),
                matches!(rule.check, Check::Absent),
                "{}",
                rule.name
            );
        }
        // A listed directory must exist as a directory.
        let dir = Entry {
            rel: "crates/bench/src/bin".to_string(),
            text: None,
        };
        assert!(stale(rule("figures-are-rows"), &[dir]).is_empty());
    }

    #[test]
    fn skipped_files_are_not_read() {
        let src = "// CaptureHints, Instant::now, schedule_resilient_traced\n";
        assert!(lint_file("crates/lint/src/main.rs", src).is_empty());
        assert_eq!(lint_file("crates/cli/src/main.rs", src).len(), 2);
        // The one module that splits work across threads.
        let split = "        std::thread::scope(|s| {\n";
        assert!(lint_file("crates/webapp/src/f32text.rs", split).is_empty());
        assert_eq!(lint_file("crates/webapp/src/lexer.rs", split).len(), 1);
        let rank = "    pub fn predicted_wait(&self, server: usize, at: Duration) -> Duration {\n";
        assert!(lint_file("crates/core/src/balance.rs", rank).is_empty());
        assert_eq!(lint_file("crates/core/src/engine.rs", rank).len(), 1);
    }

    #[test]
    fn literals_match_with_boundaries_and_anchors() {
        assert!(holds("  x.set_down(true);", r"\bset_down\b"));
        assert!(!holds("  x.set_downlink(true);", r"\bset_down\b"));
        assert!(!holds("  x.reset_down(true);", r"\bset_down\b"));
        assert!(holds("pub balance: bool", r"pub balance\b"));
        assert!(holds("xpub balance", r"pub balance\b"));
        assert!(!holds("pub balanced: bool", r"pub balance\b"));
        assert!(holds(
            "\t pub(crate) prediction: u8",
            "^pub(crate) prediction:"
        ));
        assert!(!holds("let x = { prediction: 1 }", "^prediction:"));
    }

    #[test]
    fn glob_segments() {
        assert!(glob(b"crates/*/src/**", b"crates/core/src/a/b.rs"));
        assert!(!glob(b"crates/*/src/**", b"crates/core/tests/a.rs"));
        assert!(!glob(b"crates/*/src/**", b"crates/a/b/src/c.rs"));
        assert!(glob(b"crates/**.rs", b"crates/core/src/a.rs"));
        assert!(!glob(b"crates/**.rs", b"crates/core/Cargo.toml"));
        assert!(glob(b"crates/**", b"crates/core/Cargo.toml"));
        assert!(glob(
            b"crates/bench/src/bin/fleet_*",
            b"crates/bench/src/bin/fleet_scale.rs"
        ));
    }

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
    fn loop_headers_are_keywords_at_a_statement_start() {
        for header in [
            "for x in xs {",
            "    while let Some(x) = it.next() {",
            "    'outer: for x in xs {",
            "    'scan: loop {",
            "        let v = loop {",
            "    } else { while go() {",
            "        Some(ys) => for y in ys {",
            "    loop {",
            "    let n = 0; while n < 3 {",
            "        let _ = s.spawn(move || loop {",
        ] {
            assert!(opens_loop(header), "{header}");
        }
        for other in [
            "impl Default for Bar {",
            "    where F: for<'a> Fn(&'a u8),",
            "    handler: Box<dyn for<'a> Fn(&'a u8)>,",
            "    fn for_each_client(&self) {",
            "    let before_loop = 1;",
            "    let label = 'x'; f(y);",
            "    let s = x; // while here",
            "    // for x in xs {",
        ] {
            assert!(!opens_loop(code_of(other)), "{other}");
        }
        let labelled = "fn f() {\n    'outer: loop {\n        let v = Vec::new();\n    }\n}\n";
        assert_eq!(lint_file("crates/webapp/src/parser.rs", labelled).len(), 1);
    }

    #[test]
    fn a_bodiless_test_item_ends_at_its_semicolon() {
        let src = "#[cfg(test)]\nuse std::fmt;\nfn real() {\n    x.windows(2);\n}\n";
        let lines: Vec<&str> = src.lines().collect();
        assert_eq!(test_region_mask(&lines), [true, true, false, false, false]);
        assert_eq!(lint_file("crates/webapp/src/html.rs", src).len(), 1);
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
