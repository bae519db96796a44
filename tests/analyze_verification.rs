//! Static snapshot verification, end to end.
//!
//! The analyzer's job is to prove a captured snapshot self-contained
//! *before* it costs link traffic or retry budget. These tests check both
//! directions of that contract at workspace level:
//!
//! - every snapshot our own capture path produces — full and post-delta,
//!   for all three paper apps — passes verification (no false positives);
//! - seeded random corruptions (a free identifier, a reserved-prefix
//!   declaration) injected into otherwise-valid snapshot sources are
//!   caught, with spans pointing at the injected line (no false
//!   negatives);
//! - a rejected snapshot never reaches the link: the verify gate raises
//!   [`OffloadError::Verify`], records a `verify` trace event, and the
//!   uplink sees zero transfers and zero bytes.

use snapedge_analyze::{analyze_html, AnalysisOptions, Mode, Rule, Severity};
use snapedge_core::{odroid_xu4, Endpoint, OffloadError, OffloadSession, SessionConfig};
use snapedge_net::{Link, LinkConfig, SimClock};
use snapedge_rng::Rng;
use snapedge_trace::{EventKind, Lane, Tracer};
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

#[test]
fn paper_apps_full_and_delta_snapshots_verify_clean() {
    // With `verify` on, the session statically checks the full snapshot
    // (round 1) and both delta scripts (rounds 2-3) before every transfer.
    // Any analyzer false positive on our own capture output fails here.
    for model in ["googlenet", "agenet", "gendernet"] {
        let cfg = SessionConfig::paper_builder(model).verify(true).build();
        let mut session = OffloadSession::new(cfg).expect("session");
        for round in 1..=3 {
            let report = session
                .infer(round)
                .unwrap_or_else(|e| panic!("{model} round {round}: {e}"));
            assert!(!report.fell_back, "{model} round {round} fell back");
            assert_eq!(report.delta_up && report.delta_down, round > 1);
        }
        // A migration is capture, verify, transfer, restore — the same
        // four phases in the same order whether it carries a full
        // snapshot or a delta, and whichever way it travels.
        let trace = session.trace();
        let phases: Vec<(&str, Lane)> = trace
            .events()
            .iter()
            .filter(|e| e.depth == 0)
            .filter(|e| {
                ["capture_", "gate:verify:", "transfer_", "restore_"]
                    .iter()
                    .any(|prefix| e.name.starts_with(prefix))
            })
            .map(|e| (e.name.as_str(), e.lane))
            .collect();
        let round = [
            ("capture_client", Lane::Client),
            ("gate:verify:ship:0:0", Lane::Client),
            ("transfer_up", Lane::Network),
            ("restore_server", Lane::Server),
            ("capture_server", Lane::Server),
            ("gate:verify:ship:0:0", Lane::Server),
            ("transfer_down", Lane::Network),
            ("restore_client", Lane::Client),
        ];
        assert_eq!(phases, round.repeat(3), "{model}");
    }
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

#[test]
fn clean_capture_with_verify_on_records_a_verify_event() {
    let mut session =
        OffloadSession::new(SessionConfig::tiny_builder().verify(true).build()).expect("session");
    session.infer(1).expect("clean round");
    let trace = session.trace();
    assert!(
        trace
            .events()
            .iter()
            .any(|e| e.kind == EventKind::Gate && e.name == "gate:verify:ship:0:0"),
        "verify verdict missing from trace"
    );
}

#[test]
fn free_variable_is_rejected_before_any_link_traffic() {
    let clock = SimClock::new();
    let tracer = Tracer::new();
    let mut client =
        Endpoint::new("client", odroid_xu4(), clock).with_tracer(tracer.clone(), Lane::Client);
    client.browser.load_html(MINI_APP).expect("load");
    client.browser.run_until_idle().expect("run");
    let (snapshot, _) = client
        .capture(&SnapshotOptions::default())
        .expect("capture");

    // Corrupt the snapshot the way a buggy serializer would: state that
    // references a name nothing declares.
    let mut corrupted = snapshot.html().to_string();
    let close = corrupted.find("</script>").expect("script close");
    corrupted.insert_str(close, "\nvar probe = ghostFree;\n");

    // The pre-send gate: verify, and only transfer on success.
    let mut uplink = Link::new(LinkConfig::wifi_30mbps());
    let verdict = client.verify_script(&corrupted, Mode::Snapshot, Vec::new());
    if verdict.is_ok() {
        uplink
            .schedule(client.clock().now(), corrupted.len() as u64)
            .expect("transfer");
    }

    let err = verdict.expect_err("corrupted snapshot must be rejected");
    match &err {
        OffloadError::Verify(msg) => {
            assert!(
                msg.contains("ghostFree"),
                "message names the culprit: {msg}"
            )
        }
        other => panic!("expected Verify error, got {other:?}"),
    }
    assert_eq!(uplink.transfer_count(), 0, "no transfer may be scheduled");
    assert_eq!(uplink.total_bytes(), 0, "no bytes may cross the link");
    let trace = tracer.finish();
    assert!(
        trace
            .events()
            .iter()
            .any(|e| e.kind == EventKind::Gate && e.name == "gate:verify:reject:1:0"),
        "rejection must still record a verify verdict, with its error count"
    );
}
