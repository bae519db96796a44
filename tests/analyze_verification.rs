//! Static snapshot verification, end to end.
//!
//! The analyzer proves a snapshot self-contained: MiniJS source that
//! restores on any browser, naming nothing its receiver lacks. These
//! tests check both directions of that contract at workspace level:
//!
//! - every script the product's capture path puts on the wire — the full
//!   snapshot and the deltas of three rounds each way, for the three
//!   paper models, without a cut and at every Fig. 8 cut — verifies with
//!   no error (the oracle: a serializer bug that ships an undeclared
//!   name fails here, naming it);
//! - seeded random corruptions (a free identifier, a reserved-prefix
//!   declaration) injected into otherwise-valid snapshot sources are
//!   caught, with spans pointing at the injected line (no false
//!   negatives).

use snapedge_analyze::{analyze_html, analyze_script, AnalysisOptions, Rule, Severity};
use snapedge_core::SessionConfig;
use snapedge_dnn::zoo;
use snapedge_integration::{Leg, Replay};
use snapedge_rng::Rng;
use snapedge_webapp::{html, Browser, SnapshotOptions};

/// A small self-contained app used when we need a snapshot to corrupt.
const MINI_APP: &str = r#"<html><body><div id="out"></div><script>
var count = 1;
var label = "runs";
function bump(n) { count = count + n; }
function show() { document.getElementById("out").textContent = count; }
bump(2);
show();
console.log(label);
</script></body></html>"#;

/// Captures MINI_APP's snapshot HTML via the real capture path.
fn captured_snapshot_html() -> String {
    let mut browser = Browser::new();
    browser.load_html(MINI_APP).expect("load");
    browser.run_until_idle().expect("run");
    let snapshot = browser
        .capture_snapshot(&SnapshotOptions::default())
        .expect("capture");
    snapshot.html().to_string()
}

/// Newline offsets inside the first `<script>` body where a whole
/// statement can be inserted (the previous non-space character closed a
/// statement or block).
fn insertion_points(html_src: &str) -> Vec<usize> {
    let open = html_src.find("<script>").expect("script open") + "<script>".len();
    let close = html_src.find("</script>").expect("script close");
    let mut points = Vec::new();
    for (i, b) in html_src.as_bytes().iter().enumerate() {
        if *b != b'\n' || i <= open || i >= close {
            continue;
        }
        let prev = html_src[..i].trim_end().as_bytes().last().copied();
        if matches!(prev, Some(b';') | Some(b'{') | Some(b'}')) {
            points.push(i + 1);
        }
    }
    points
}

/// The 1-based line of `needle` in the analyzer's coordinate system (all
/// script bodies joined with newlines), computed independently of the
/// analyzer's own span attachment.
fn expected_line(html_src: &str, needle: &str) -> usize {
    let doc = html::parse_document(html_src).expect("corrupted html still parses as a document");
    let joined = doc.scripts.join("\n");
    joined
        .lines()
        .position(|l| l.contains(needle))
        .expect("injected line present")
        + 1
}

/// The error-severity findings on one migration's wire text: a full
/// snapshot as a snapshot document, a delta as a script on top of its
/// base's declarations; hosts are the sending browser's.
fn wire_errors(leg: &Leg, hosts: Vec<String>) -> Vec<String> {
    let report = match &leg.base {
        Some(base) => {
            let opts = AnalysisOptions::delta(base.declared_names()).with_hosts(hosts);
            analyze_script(&leg.script, &opts)
        }
        None => analyze_html(&leg.script, &AnalysisOptions::snapshot().with_hosts(hosts)),
    };
    (report.diagnostics.iter())
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.to_string())
        .collect()
}

#[test]
fn paper_apps_full_and_delta_snapshots_verify_clean() {
    // Any analyzer false positive on our own capture output, or any
    // capture that names what its receiver lacks, fails here.
    let mut configs = 0;
    for model in ["googlenet", "agenet", "gendernet"] {
        let cuts = zoo::fig8_cuts(model).into_iter().map(Some);
        for cut in std::iter::once(None).chain(cuts) {
            let mut builder = SessionConfig::paper_builder(model);
            if let Some(cut) = cut {
                builder = builder.cut(cut);
            }
            let name = format!("{model}@{}", cut.unwrap_or("full"));
            let mut replay = Replay::new(builder.build()).expect("replay");
            for round in 1..=3 {
                let at = |dir: &str| format!("{name} round {round} {dir}");
                let legs = replay
                    .round(round)
                    .unwrap_or_else(|e| panic!("{name} round {round}: {e}"));
                for (dir, leg, hosts) in [
                    ("up", &legs.up, replay.client.browser.host_names()),
                    ("down", &legs.down, replay.server.browser.host_names()),
                ] {
                    assert_eq!(leg.base.is_some(), round > 1, "{}: delta", at(dir));
                    let errors = wire_errors(leg, hosts);
                    assert!(errors.is_empty(), "{}: {}", at(dir), errors.join("; "));
                }
            }
            configs += 1;
        }
    }
    assert_eq!(configs, 22);
}

#[test]
fn captured_snapshot_passes_closedness_directly() {
    let html_src = captured_snapshot_html();
    let report = analyze_html(&html_src, &AnalysisOptions::snapshot());
    assert!(
        !report.has_errors(),
        "clean snapshot rejected:\n{}",
        report.render()
    );
}

#[test]
fn injected_free_identifiers_are_caught_with_exact_spans() {
    let base = captured_snapshot_html();
    let points = insertion_points(&base);
    assert!(points.len() > 3, "need several insertion points");
    let mut rng = Rng::seed_from_u64(0xC0FFEE);
    for trial in 0..12 {
        let ghost = format!("ghost{}{}", trial, rng.next_u32() % 1000);
        let at = points[rng.gen_range_usize(0, points.len())];
        let mut corrupted = base.clone();
        corrupted.insert_str(at, &format!("var probe{trial} = {ghost};\n"));
        let report = analyze_html(&corrupted, &AnalysisOptions::snapshot());
        assert!(report.has_errors(), "corruption {ghost} not caught");
        let diag = report
            .diagnostics
            .iter()
            .find(|d| d.rule == Rule::FreeIdentifier)
            .unwrap_or_else(|| panic!("no free-identifier diagnostic:\n{}", report.render()));
        assert_eq!(diag.severity, Severity::Error);
        assert_eq!(diag.name.as_deref(), Some(ghost.as_str()));
        assert_eq!(
            diag.line,
            Some(expected_line(&corrupted, &ghost)),
            "span should point at the injected line:\n{}",
            report.render()
        );
    }
}

#[test]
fn injected_reserved_prefix_names_are_caught_with_exact_spans() {
    let base = captured_snapshot_html();
    let points = insertion_points(&base);
    let mut rng = Rng::seed_from_u64(0xBADC0DE);
    for trial in 0..12 {
        let evil = format!("__snapedge_evil{}{}", trial, rng.next_u32() % 1000);
        let at = points[rng.gen_range_usize(0, points.len())];
        let mut corrupted = base.clone();
        corrupted.insert_str(at, &format!("var {evil} = 1;\n"));
        let report = analyze_html(&corrupted, &AnalysisOptions::snapshot());
        let diag = report
            .diagnostics
            .iter()
            .find(|d| d.rule == Rule::ReservedPrefix)
            .unwrap_or_else(|| panic!("no reserved-prefix diagnostic:\n{}", report.render()));
        assert_eq!(diag.severity, Severity::Error);
        assert_eq!(
            diag.line,
            Some(expected_line(&corrupted, &evil)),
            "span should point at the injected line:\n{}",
            report.render()
        );
    }
}
