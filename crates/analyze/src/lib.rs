//! # snapedge-analyze
//!
//! Static verification of MiniJS web apps and captured snapshots — the
//! pre-flight check that proves a snapshot is *self-contained* before the
//! offload layer pays for the transfer (the correctness property Section
//! III of the paper rests on).
//!
//! The analyzer parses a script (or every script in an HTML document),
//! resolves scopes and free variables, records def-use information, and
//! runs four lint families:
//!
//! * **closedness** — every identifier must resolve to the script's own
//!   declarations or the documented host/DOM API surface
//!   ([`hostapi`]); a free identifier means the snapshot relies on state
//!   it does not carry and would fail at restore time,
//! * **restore-determinism** — member accesses and method calls on host
//!   objects must stay inside the documented (deterministic) surface,
//! * **reserved-prefix hygiene** — only generated machinery may live
//!   under the `__snapedge_` prefix, and apps may not declare even the
//!   machinery names,
//! * **dead-state detection** — captured globals unreachable from any
//!   event handler are pure snapshot bloat (warning).
//!
//! # Example
//!
//! ```
//! use snapedge_analyze::{analyze_script, AnalysisOptions};
//!
//! let report = analyze_script(
//!     "var n = 1;\nfunction f() { return n + missing; }\nf();",
//!     &AnalysisOptions::app(),
//! );
//! assert!(report.has_errors());
//! assert_eq!(report.diagnostics[0].line, Some(2)); // `missing` is on line 2
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

mod analysis;
pub mod effects;
pub mod hostapi;
mod scope;

pub use effects::{
    effect_summary, effect_summary_html, AnalyzeError, CostBound, EffectOptions, EffectSummary,
    NondetSource, TOPLEVEL,
};
pub use snapedge_webapp::HostEffect;

use snapedge_webapp::lexer::{lex, Token};
use snapedge_webapp::{html, parser, WebError};
use std::collections::BTreeMap;
use std::fmt;

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: the snapshot ships, but carries avoidable weight.
    Warning,
    /// The snapshot is not self-contained — shipping it would fail (or
    /// diverge) at restore time. Pre-send verification rejects it.
    Error,
}

impl Severity {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Which lint produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// The script does not even parse (includes reserved-prefix
    /// violations the parser rejects).
    ParseError,
    /// Closedness: an identifier resolving to nothing the snapshot
    /// carries.
    FreeIdentifier,
    /// A member/method outside the documented host API surface.
    UnknownHostApi,
    /// Reserved-prefix hygiene (`__snapedge_`).
    ReservedPrefix,
    /// A captured global no event handler can ever read.
    DeadState,
}

impl Rule {
    /// Stable kebab-case name (used in rendered diagnostics).
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::ParseError => "parse-error",
            Rule::FreeIdentifier => "free-identifier",
            Rule::UnknownHostApi => "unknown-host-api",
            Rule::ReservedPrefix => "reserved-prefix",
            Rule::DeadState => "dead-state",
        }
    }
}

/// One finding, with its source span (line) when known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The lint that fired.
    pub rule: Rule,
    /// How bad it is.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// The offending identifier, when the finding is about one.
    pub name: Option<String>,
    /// 1-based source line (of the identifier's first occurrence, or the
    /// parser's error position).
    pub line: Option<usize>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "line {line}: ")?,
            None => write!(f, "<unknown line>: ")?,
        }
        write!(
            f,
            "{}[{}]: {}",
            self.severity.as_str(),
            self.rule.as_str(),
            self.message
        )
    }
}

/// What kind of program is being analyzed. The modes differ only in what
/// reserved-prefix names are legitimate and whether dead-state detection
/// is meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// A user-authored app: machinery names are forbidden too.
    App,
    /// A generated full snapshot: `__snapedge_restore` is expected.
    Snapshot,
    /// A generated delta script: restores *on top of* an agreed base, so
    /// the base's declarations are ambient and dead-state is skipped.
    Delta,
}

/// Options for one analysis run.
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// What kind of program this is.
    pub mode: Mode,
    /// Registered host object names beyond the built-in
    /// `document`/`console`/`Math` (e.g. the paper's `model`).
    pub hosts: Vec<String>,
    /// Delta mode: globals and functions already declared at the agreed
    /// base state.
    pub ambient: Vec<String>,
}

impl AnalysisOptions {
    /// Options for a user-authored app.
    pub fn app() -> AnalysisOptions {
        AnalysisOptions {
            mode: Mode::App,
            hosts: Vec::new(),
            ambient: Vec::new(),
        }
    }

    /// Options for a generated full snapshot.
    pub fn snapshot() -> AnalysisOptions {
        AnalysisOptions {
            mode: Mode::Snapshot,
            hosts: Vec::new(),
            ambient: Vec::new(),
        }
    }

    /// Options for a generated delta script restoring on top of a base
    /// with the given declared names.
    pub fn delta(ambient: Vec<String>) -> AnalysisOptions {
        AnalysisOptions {
            mode: Mode::Delta,
            hosts: Vec::new(),
            ambient,
        }
    }

    /// Adds registered host object names to the allowlist.
    pub fn with_hosts(mut self, hosts: Vec<String>) -> AnalysisOptions {
        self.hosts = hosts;
        self
    }
}

/// Structural counts from an analysis run (def-use summary).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Declared functions (nested ones included).
    pub functions: usize,
    /// Global variables (top-level `var`s + runtime-created globals).
    pub globals: usize,
    /// Distinct functions installed as event handlers.
    pub handlers: usize,
    /// Functions reachable from handlers or top-level code.
    pub reachable_functions: usize,
}

/// The outcome of verifying one script or document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    /// All findings, in source order where spans are known.
    pub diagnostics: Vec<Diagnostic>,
    /// Def-use / reachability summary.
    pub stats: AnalysisStats,
}

impl AnalysisReport {
    /// `true` when nothing at all was flagged.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` when any error-severity finding would make the snapshot
    /// unshippable.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// One-line summary, e.g. `2 errors, 1 warning`.
    pub fn summary(&self) -> String {
        let errors = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let warnings = self.diagnostics.len() - errors;
        let plural = |n: usize| if n == 1 { "" } else { "s" };
        format!(
            "{errors} error{}, {warnings} warning{}",
            plural(errors),
            plural(warnings)
        )
    }

    /// Renders every diagnostic, one per line.
    pub fn render(&self) -> String {
        self.diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Analyzes one MiniJS script.
///
/// Never fails: unparseable input becomes [`Rule::ParseError`] /
/// [`Rule::ReservedPrefix`] diagnostics with the parser's line.
pub fn analyze_script(src: &str, opts: &AnalysisOptions) -> AnalysisReport {
    let program = match parser::parse_program(src) {
        Ok(p) => p,
        Err(err) => {
            return AnalysisReport {
                diagnostics: vec![parse_error_diagnostic(err)],
                stats: AnalysisStats::default(),
            }
        }
    };
    let (mut diagnostics, stats) = analysis::Analysis::run(&program, opts);
    attach_spans(src, &mut diagnostics);
    sort_diagnostics(&mut diagnostics);
    AnalysisReport { diagnostics, stats }
}

/// Analyzes a full HTML document (an app page or a captured snapshot):
/// every `<script>` is analyzed as one program, in document order, with
/// line numbers relative to the concatenated script text.
///
/// Never fails: an unparseable document becomes a single
/// [`Rule::ParseError`] diagnostic.
pub fn analyze_html(html_src: &str, opts: &AnalysisOptions) -> AnalysisReport {
    let doc = match html::parse_document(html_src) {
        Ok(doc) => doc,
        Err(err) => {
            return AnalysisReport {
                diagnostics: vec![parse_error_diagnostic(err)],
                stats: AnalysisStats::default(),
            }
        }
    };
    // Scripts share one global scope and run in order; analyzing the
    // concatenation models exactly that.
    let combined = doc.scripts.join("\n");
    analyze_script(&combined, opts)
}

/// Converts a lex/parse failure into a diagnostic, classifying the
/// parser's reserved-prefix rejections under their own rule.
fn parse_error_diagnostic(err: WebError) -> Diagnostic {
    let (line, message) = match &err {
        WebError::Lex { line, message } | WebError::Parse { line, message } => {
            (Some(*line), message.clone())
        }
        other => (None, other.to_string()),
    };
    let rule = if message.contains("reserved snapshot prefix") {
        Rule::ReservedPrefix
    } else {
        Rule::ParseError
    };
    Diagnostic {
        rule,
        severity: Severity::Error,
        message,
        name: None,
        line,
    }
}

/// Fills in each diagnostic's line from the first token occurrence of its
/// offending identifier. Exact whenever the name occurs once (the common
/// case for an accidentally free identifier); the first mention otherwise.
fn attach_spans(src: &str, diagnostics: &mut [Diagnostic]) {
    if diagnostics.iter().all(|d| d.line.is_some()) {
        return;
    }
    let Ok(tokens) = lex(src) else { return };
    let mut first_line: BTreeMap<&str, usize> = BTreeMap::new();
    for t in &tokens {
        if let Token::Ident(name) = &t.token {
            first_line.entry(name.as_str()).or_insert(t.line);
        }
    }
    for d in diagnostics.iter_mut() {
        if d.line.is_none() {
            if let Some(name) = &d.name {
                d.line = first_line.get(name.as_str()).copied();
            }
        }
    }
}

/// Orders findings by severity (errors first), then source position.
fn sort_diagnostics(diagnostics: &mut [Diagnostic]) {
    diagnostics.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| {
                a.line
                    .unwrap_or(usize::MAX)
                    .cmp(&b.line.unwrap_or(usize::MAX))
            })
            .then_with(|| a.rule.cmp(&b.rule))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(src: &str) -> AnalysisReport {
        analyze_script(src, &AnalysisOptions::app())
    }

    #[test]
    fn clean_app_is_clean() {
        let report = app("var count = 0;\n\
             var btn = document.getElementById(\"b\");\n\
             function onClick() { count = count + 1; btn.textContent = count; }\n\
             btn.addEventListener(\"click\", onClick);");
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.stats.functions, 1);
        assert_eq!(report.stats.handlers, 1);
        assert_eq!(report.stats.reachable_functions, 1);
    }

    #[test]
    fn free_identifier_has_correct_span() {
        let report = app("var a = 1;\nfunction f() { return a + ghost; }\nf();");
        assert!(report.has_errors());
        let d = &report.diagnostics[0];
        assert_eq!(d.rule, Rule::FreeIdentifier);
        assert_eq!(d.name.as_deref(), Some("ghost"));
        assert_eq!(d.line, Some(2));
    }

    #[test]
    fn runtime_created_globals_are_definitions() {
        // `g` is only ever created by assignment inside a function — the
        // way restore scripts create every global.
        let report =
            app("function init() { g = 41; }\nfunction use() { return g; }\ninit();\nuse();");
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn locals_do_not_leak_between_functions() {
        // MiniJS has no closures: `x` is local to `f` only.
        let report =
            app("function f() { var x = 1; return x; }\nfunction g() { return x; }\nf();\ng();");
        assert!(report.has_errors());
        assert_eq!(report.diagnostics[0].name.as_deref(), Some("x"));
    }

    #[test]
    fn unknown_host_api_is_flagged() {
        let report = app("var t = Math.random();");
        assert!(report.has_errors(), "{}", report.render());
        assert_eq!(report.diagnostics[0].rule, Rule::UnknownHostApi);

        let report = app("document.getElementById(\"x\").innerHTML = \"hi\";");
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.rule == Rule::UnknownHostApi && d.name.as_deref() == Some("innerHTML")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn registered_hosts_are_allowed() {
        let opts = AnalysisOptions::app().with_hosts(vec!["model".to_string()]);
        let report = analyze_script("var r = model.inference(3);\nconsole.log(r);", &opts);
        assert!(report.is_clean(), "{}", report.render());
        // Without registration the same code is not closed.
        let report = app("var r = model.inference(3);\nconsole.log(r);");
        assert!(report.has_errors());
    }

    #[test]
    fn reserved_prefix_is_rejected_with_span() {
        let report = app("var ok = 1;\nvar __snapedge_shadow = 2;");
        assert!(report.has_errors());
        let d = &report.diagnostics[0];
        assert_eq!(d.rule, Rule::ReservedPrefix);
        assert_eq!(d.line, Some(2));
    }

    #[test]
    fn apps_may_not_declare_machinery_names() {
        let report = app("function __snapedge_restore() { g = 1; }\n__snapedge_restore();");
        assert!(report.has_errors(), "{}", report.render());
        assert_eq!(report.diagnostics[0].rule, Rule::ReservedPrefix);
        // The same program is legitimate as a snapshot.
        let report = analyze_script(
            "function __snapedge_restore() { g = 1; }\n__snapedge_restore();",
            &AnalysisOptions::snapshot(),
        );
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn dead_state_is_a_warning() {
        let report = app("var used = 1;\nvar baggage = 2;\n\
             function h() { return used; }\n\
             document.body.addEventListener(\"go\", h);");
        assert!(!report.has_errors(), "{}", report.render());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.rule == Rule::DeadState)
            .expect("dead-state warning");
        assert_eq!(d.name.as_deref(), Some("baggage"));
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.line, Some(2));
    }

    #[test]
    fn unreachable_function_reads_do_not_keep_state_alive() {
        // `orphan` reads `baggage` but nothing ever installs or calls
        // `orphan`, so the state is still dead.
        let report = app("var baggage = 1;\nfunction orphan() { return baggage; }");
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.rule == Rule::DeadState && d.name.as_deref() == Some("baggage")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn delta_mode_uses_ambient_base_names() {
        let delta =
            "function __snapedge_apply_delta() { counter = 3; show(); }\n__snapedge_apply_delta();";
        let report = analyze_script(
            delta,
            &AnalysisOptions::delta(vec!["counter".to_string(), "show".to_string()]),
        );
        assert!(report.is_clean(), "{}", report.render());
        // Without the ambient names, `show` is free.
        let report = analyze_script(delta, &AnalysisOptions::delta(Vec::new()));
        assert!(report.has_errors());
    }

    #[test]
    fn analyze_html_covers_all_scripts() {
        let page = "<html><body><div id=\"out\"></div></body>\
                    <script>var a = 1;</script>\
                    <script>function f() { return a + nope; }\nf();</script></html>";
        let report = analyze_html(page, &AnalysisOptions::app());
        assert!(report.has_errors());
        assert_eq!(report.diagnostics[0].name.as_deref(), Some("nope"));
        // Line 2 of the concatenation: script one is line 1.
        assert_eq!(report.diagnostics[0].line, Some(2));
    }

    #[test]
    fn report_renders_with_spans() {
        let report = app("var a = mystery;");
        let text = report.render();
        assert!(text.contains("line 1"), "{text}");
        assert!(text.contains("free-identifier"), "{text}");
        // `mystery` is free (error); `a` is never read (dead-state warning).
        assert_eq!(report.summary(), "1 error, 1 warning");
    }
}
