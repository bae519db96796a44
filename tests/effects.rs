//! Effect-analysis suite: the static effect pass and its two consumers.
//!
//! The contract under test (ISSUE 8: static-analysis tentpole):
//!
//! 1. **The analysis never touches capture** — a session with effects on
//!    produces the reports, traces and wire bytes of one with effects
//!    off, across the chaos seed matrix and on the reference walk under a
//!    meter, where any skipped comparison would show as fewer ops.
//! 2. **Gates fire before the wire** — a nondeterministic app is rejected
//!    by the analysis and forced local by the session (its unit tests
//!    cover the gate) with zero snapshot bytes, and
//!    a round whose guaranteed op floor already blows the meter budget
//!    completes locally instead of shipping state that would be killed.
//! 3. **Off means off** — effect analysis defaults to disabled, and
//!    default runs replay byte-identical traces with no effect events.

use snapedge_core::prelude::*;
use snapedge_core::Endpoint;
use snapedge_net::SimClock;
use snapedge_webapp::{FnHost, JsValue};
use std::time::Duration;

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// Runs `rounds` inferences and returns the per-round reports plus the
/// serialized trace.
fn run_rounds(cfg: SessionConfig, rounds: u64) -> (Vec<RoundReport>, String) {
    let mut session = OffloadSession::new(cfg).unwrap();
    let reports = (1..=rounds).map(|i| session.infer(i).unwrap()).collect();
    (reports, session.trace().to_jsonl())
}

/// Runs three rounds of `base` with effects off and on, asserts equal
/// reports and traces, and returns the reports.
fn assert_effects_change_nothing(
    base: impl Fn() -> SessionBuilder,
    what: &str,
) -> Vec<RoundReport> {
    let (off_reports, off_trace) = run_rounds(base().build(), 3);
    let (on_reports, on_trace) = run_rounds(base().effects(true).build(), 3);
    assert_eq!(on_reports, off_reports, "{what}: reports");
    assert_eq!(on_trace, off_trace, "{what}: traces");
    off_reports
}

#[test]
fn effects_on_is_bit_identical_to_effects_off_across_the_chaos_seed_matrix() {
    for seed in [1u64, 2, 3, 5, 8] {
        let base = || {
            SessionConfig::tiny_builder()
                .faults(FaultPlan::chaos(seed, secs(1.0)))
                .retry(RetryPolicy::default())
        };
        assert_effects_change_nothing(base, &format!("seed {seed}"));
    }
}

#[test]
fn effects_charge_the_reference_walk_the_same_ops_on_or_off() {
    // Caps far above the tiny app's reach: the meter only counts. The
    // reference walk deep-compares every global on both endpoints, so the
    // server's `ops_used` moves if the analysis lets capture skip any.
    let generous = MeterLimits::default()
        .with_ops(u64::MAX / 2)
        .with_time_slice(secs(3600.0));
    let base = || {
        SessionConfig::tiny_builder()
            .meter(generous.clone())
            .snapshot(SnapshotOptions {
                incremental: false,
                ..SnapshotOptions::default()
            })
    };
    let reports = assert_effects_change_nothing(base, "metered reference walk");
    assert!(reports.iter().all(|r| r.ops_used > 0 && !r.fell_back));
    assert!(reports[1].delta_up && reports[1].delta_down);
}

#[test]
fn effects_are_off_by_default_and_default_traces_stay_byte_identical() {
    assert!(!SnapshotOptions::default().effects);
    let trace = |_| {
        let mut session = OffloadSession::new(SessionConfig::tiny()).unwrap();
        for i in 1..=3u64 {
            session.infer(i).unwrap();
        }
        session.trace().to_jsonl()
    };
    let a = trace(());
    let b = trace(());
    assert_eq!(a, b, "default session replay must be byte-identical");
    assert!(
        !a.contains("effect_verdict"),
        "no effect events unless the analysis is enabled"
    );
}

#[test]
fn nondeterministic_app_is_rejected_statically_with_zero_link_bytes() {
    let mut endpoint = Endpoint::new("client", odroid_xu4(), SimClock::new());
    endpoint.browser.register_host_with_effect(
        "rng",
        Box::new(FnHost(|_m: &str, _a: &[JsValue], _c: &mut _| {
            Ok(JsValue::Number(4.0))
        })),
        HostEffect::Random,
    );
    let app = "<html><body>\n<div id=\"result\">waiting</div>\n<button id=\"go\">go</button>\n\
               </body>\n<script>\n\
               var out = null;\n\
               function onGo() { out = rng.next(); }\n\
               document.getElementById(\"go\").addEventListener(\"go\", onGo);\n\
               </script></html>\n";
    // The analysis a session runs over its app, against this endpoint's
    // host surface: the verdict is a typed rejection naming the host. No
    // link exists yet — the session's gate (unit-tested in `session.rs`)
    // acts on this summary before any bytes ship.
    let opts = EffectOptions::from_host_effects(endpoint.browser.host_effects());
    let summary = EffectCache::new().summary_html(app, &opts).unwrap();
    assert!(summary.is_nondeterministic());
    let err = summary
        .verdict()
        .map_err(OffloadError::Analyze)
        .unwrap_err();
    match &err {
        OffloadError::Analyze(AnalyzeError::Nondeterministic(sources)) => {
            assert!(
                sources.iter().any(|s| s.host == "rng"),
                "the offending host is named: {sources:?}"
            );
        }
        other => panic!("expected a typed nondeterminism rejection, got {other:?}"),
    }
}

#[test]
fn guaranteed_meter_exhaustion_completes_locally_before_any_bytes_ship() {
    // A zero-op budget cannot run any handler: the static floor (>= 1 op
    // per round) proves exhaustion, so the round completes locally with
    // zero snapshot bytes instead of shipping state the server would kill.
    let (reference, _) = run_rounds(SessionConfig::tiny(), 1);
    let gated = {
        let cfg = SessionConfig::tiny_builder()
            .effects(true)
            .meter(MeterLimits::default().with_ops(0))
            .build();
        let mut session = OffloadSession::new(cfg).unwrap();
        let report = session.infer(1).unwrap();
        let trace = session.trace();
        assert!(
            trace.events().iter().any(
                |e| e.kind == EventKind::EffectVerdict && e.name == "effect_verdict:exhaustion"
            ),
            "the exhaustion verdict is visible in the trace"
        );
        report
    };
    assert_eq!(gated.server, "client", "the round never left the client");
    assert_eq!(gated.up_bytes, 0, "no snapshot bytes shipped");
    assert_eq!(gated.ops_used, 0, "the server meter never charged");
    assert_eq!(
        gated.result, reference[0].result,
        "local completion computes the same bits"
    );
}
