//! Effect-analysis suite: the static effect pass and its three consumers.
//!
//! The contract under test (ISSUE 8: static-analysis tentpole):
//!
//! 1. **Pruning is invisible** — write-set-pruned delta capture emits
//!    byte-identical scripts to the full heap walk, for every app the
//!    analysis can attribute and across the chaos seed matrix; when a
//!    write escapes attribution (dynamic member writes), the analysis
//!    says so and capture falls back to the full walk.
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
use snapedge_webapp::{Browser, CaptureHints, DeltaCapture, FnHost, JsValue};
use std::time::Duration;

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// Runs `rounds` inferences and returns the per-round reports.
fn run_rounds(cfg: SessionConfig, rounds: u64) -> Vec<RoundReport> {
    let mut session = OffloadSession::new(cfg).unwrap();
    (1..=rounds).map(|i| session.infer(i).unwrap()).collect()
}

#[test]
fn pruned_capture_is_bit_identical_across_the_chaos_seed_matrix() {
    for seed in [1u64, 2, 3, 5, 8] {
        let base = || {
            SessionConfig::tiny_builder()
                .faults(FaultPlan::chaos(seed, secs(1.0)))
                .retry(RetryPolicy::default())
        };
        let plain = run_rounds(base().build(), 3);
        let pruned = run_rounds(base().effects(true).build(), 3);
        for (a, b) in plain.iter().zip(&pruned) {
            assert_eq!(a.result, b.result, "seed {seed} round {}", a.round);
            assert_eq!(a.up_bytes, b.up_bytes, "seed {seed} round {}", a.round);
            assert_eq!(a.down_bytes, b.down_bytes, "seed {seed} round {}", a.round);
            assert_eq!(a.total, b.total, "seed {seed} round {}", a.round);
            assert_eq!(a.delta_up, b.delta_up, "seed {seed} round {}", a.round);
            assert_eq!(a.fell_back, b.fell_back, "seed {seed} round {}", a.round);
            assert_eq!(a.server, b.server, "seed {seed} round {}", a.round);
        }
    }
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

/// A page whose handler writes exactly one of many held globals — the
/// pruning case — built directly on the browser substrate.
fn one_writer_app() -> String {
    "<html><body>\n<button id=\"btn\">go</button>\n</body>\n<script>\n\
     var ballast1 = [1, 2, 3, 4];\n\
     var ballast2 = [5, 6, 7, 8];\n\
     var counter = 0;\n\
     function onTick() { counter = counter + 1; }\n\
     document.getElementById(\"btn\").addEventListener(\"tick\", onTick);\n\
     </script></html>\n"
        .to_string()
}

/// Loads `app`, runs to idle, records the base, fires `tick`, then
/// captures the delta under the given hints.
fn capture_with_hints(app: &str, hints: Option<CaptureHints>) -> snapedge_webapp::DeltaScript {
    let mut browser = Browser::new();
    browser.load_html(app).unwrap();
    browser.run_until_idle().unwrap();
    let base = browser.state_base();
    browser.dispatch("btn", "tick").unwrap();
    browser.run_until_idle().unwrap();
    browser.set_capture_hints(hints);
    match browser
        .capture_delta(&base, &SnapshotOptions::default())
        .unwrap()
    {
        DeltaCapture::Delta(d) => d,
        DeltaCapture::FullRequired { reason } => panic!("delta refused: {reason}"),
    }
}

#[test]
fn pruned_delta_capture_matches_the_full_walk_byte_for_byte() {
    let app = one_writer_app();
    let summary = snapedge_core::EffectCache::new()
        .summary_html(&app, &EffectOptions::new())
        .unwrap();
    let writes = summary
        .writable_globals()
        .expect("attributable app")
        .clone();
    assert_eq!(writes.iter().collect::<Vec<_>>(), ["counter"]);

    let full = capture_with_hints(&app, None);
    let pruned = capture_with_hints(
        &app,
        Some(CaptureHints {
            writable_globals: writes,
        }),
    );
    assert_eq!(
        full.script(),
        pruned.script(),
        "pruned capture must stay bit-identical"
    );
    assert_eq!(full.stats().pruned_globals, 0);
    assert!(
        pruned.stats().pruned_globals >= 2,
        "the ballast globals were pruned: {:?}",
        pruned.stats()
    );
}

#[test]
fn dynamic_member_write_app_falls_back_to_the_full_walk() {
    // The handler writes through a local alias whose referent is decided
    // at runtime: the write set cannot be proven, so the analysis must
    // refuse to offer one (the offload layer then installs no hints and
    // capture walks everything). Note `obj[key] = v` on a *global* is
    // still attributable — the set roots at `obj` — which is why the
    // fallback needs this aliased shape.
    let app = "<html><body>\n<button id=\"btn\">go</button>\n</body>\n<script>\n\
               var a = {n: 0};\n\
               var b = {n: 0};\n\
               function pick(x) { if (x) { return a; }\nreturn b; }\n\
               function onTick() { var o = pick(1); o.n = 42; }\n\
               document.getElementById(\"btn\").addEventListener(\"tick\", onTick);\n\
               </script></html>\n"
        .to_string();
    let summary = snapedge_core::EffectCache::new()
        .summary_html(&app, &EffectOptions::new())
        .unwrap();
    assert!(
        summary.writable_globals().is_none(),
        "dynamic member write must degrade to unknown: {}",
        summary.render()
    );
    // The full walk still captures the dynamic write correctly.
    let delta = capture_with_hints(&app, None);
    assert!(
        delta.script().contains("42"),
        "the dynamically-written value ships in the delta: {}",
        delta.script()
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
    let reference = run_rounds(SessionConfig::tiny(), 1);
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
