//! Effect-analysis suite: the static effect pass and its two consumers.
//!
//! The contract under test (ISSUE 8: static-analysis tentpole):
//!
//! 1. **The analysis never touches capture** — a session with effects on
//!    produces the reports, wire bytes and (its own `gate:effects:ship`
//!    markers aside) traces of one with effects off, across the chaos
//!    seed matrix and on the reference walk under a meter, where any
//!    skipped comparison would show as fewer ops.
//! 2. **Gates fire before the wire** — a nondeterministic app is rejected
//!    by the analysis and forced local by the session (its unit tests
//!    cover the gate) with zero snapshot bytes, and
//!    a round whose guaranteed op floor already blows the meter budget
//!    completes locally instead of shipping state that would be killed.
//! 3. **Off means off** — effect analysis defaults to disabled, and
//!    default runs replay byte-identical traces with no effect events.
//! 4. **Floors are lower bounds** — the static op/allocation floors never
//!    exceed what the interpreter's meter charges, on real sessions and
//!    on generated handlers.

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
/// reports and — the gate's one `ship` marker per consulted round aside —
/// equal traces, and returns the reports.
fn assert_effects_change_nothing(
    base: impl Fn() -> SessionBuilder,
    what: &str,
) -> Vec<RoundReport> {
    let (off_reports, off_trace) = run_rounds(base().build(), 3);
    let (on_reports, on_trace) = run_rounds(base().effects(true).build(), 3);
    assert_eq!(on_reports, off_reports, "{what}: reports");
    let (gates, rest): (Vec<&str>, Vec<&str>) = on_trace
        .lines()
        .partition(|line| line.contains("\"kind\":\"gate\""));
    assert_eq!(
        rest,
        off_trace.lines().collect::<Vec<_>>(),
        "{what}: traces"
    );
    assert!(
        gates.len() <= on_reports.len(),
        "{what}: at most one a round"
    );
    for line in gates {
        assert!(
            line.contains("\"name\":\"gate:effects:ship:0:0\""),
            "{what}: {line}"
        );
    }
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
        !a.contains("\"kind\":\"gate\""),
        "no gate events unless a gate is configured"
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
    let summary = snapedge_analyze::effect_summary_html(app, &opts).unwrap();
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
            trace
                .events()
                .iter()
                .any(|e| e.kind == EventKind::Gate && e.name == "gate:effects:local:1:0"),
            "the exhaustion verdict (op floor 1 against a cap of 0) is visible in the trace"
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

// ---------------------------------------------------------------------
// Floors are lower bounds of what the meter charges
// ---------------------------------------------------------------------

/// The static round floor of the app a full or partial session loads.
fn app_floor(partial: bool) -> snapedge_core::CostBound {
    let url = snapedge_core::apps::synthetic_image_data_url(7, 256);
    let html = if partial {
        snapedge_core::apps::partial_inference_app(&url)
    } else {
        snapedge_core::apps::full_inference_app(&url)
    };
    let opts = EffectOptions::new().with_host("model", HostEffect::Deterministic);
    snapedge_analyze::effect_summary_html(&html, &opts)
        .unwrap()
        .cost
}

#[test]
fn round_floor_never_exceeds_the_ops_a_server_charges() {
    let counting = MeterLimits::default()
        .with_ops(u64::MAX / 2)
        .with_time_slice(secs(3600.0));
    let sessions = [
        ("tiny full", SessionConfig::tiny_builder(), false),
        (
            "tiny partial",
            SessionConfig::tiny_builder().cut("1st_pool"),
            true,
        ),
        ("agenet", SessionConfig::paper_builder("agenet"), false),
        (
            "googlenet",
            SessionConfig::paper_builder("googlenet"),
            false,
        ),
    ];
    for (what, builder, partial) in sessions {
        let floor = app_floor(partial);
        assert!(floor.min_ops >= 1, "{what}: a round runs some handler");
        let cfg = builder.effects(true).meter(counting.clone()).build();
        let (reports, _) = run_rounds(cfg, 3);
        for r in &reports {
            assert_ne!(r.server, "client", "{what}: round {} offloads", r.round);
            assert!(
                floor.min_ops <= r.ops_used,
                "{what} round {}: floor {} > charged {}",
                r.round,
                floor.min_ops,
                r.ops_used
            );
        }
    }
}

/// Generates MiniJS statement blocks that always run to completion:
/// numeric globals `n0..n2` only ever hold numbers, `o0`/`o1` only heap
/// values, and every loop counts a fresh counter up to a small bound.
struct HandlerGen {
    rng: snapedge_rng::Rng,
    vars: usize,
}

impl HandlerGen {
    fn fresh(&mut self) -> String {
        self.vars += 1;
        format!("v{}", self.vars)
    }

    fn num(&mut self) -> String {
        let n = self.rng.gen_range_usize(0, 3);
        let k = self.rng.gen_range_usize(0, 5);
        match self.rng.gen_range_usize(0, 5) {
            0 => k.to_string(),
            1 => format!("n{n}"),
            2 => format!("n{n} + {k}"),
            3 => format!("bump(n{n})"),
            _ => format!("[n{n}, {k}].length"),
        }
    }

    fn heap_value(&mut self) -> String {
        let n = self.num();
        match self.rng.gen_range_usize(0, 5) {
            0 => format!("[{n}, [{n}]]"),
            1 => format!("{{a: {n}, b: [1, 2]}}"),
            2 => "new Float32Array(3)".to_string(),
            // The printer's spelling: scanned into one typed-literal node.
            3 => "new Float32Array([1,0.5,(-2),(0/0)])".to_string(),
            _ => "[]".to_string(),
        }
    }

    fn cond(&mut self) -> String {
        let (a, b) = (self.num(), self.num());
        match self.rng.gen_range_usize(0, 4) {
            0 => format!("{a} < {b}"),
            1 => format!("{a} == {b}"),
            // The right operand may never run: its literal is no floor.
            2 => format!("{a} < {b} || [1, 2].length > {b}"),
            _ => format!("{a} < {b} && [{a}].length > 0"),
        }
    }

    fn block(&mut self, depth: usize) -> String {
        let len = self.rng.gen_range_usize(1, 5);
        (0..len).map(|_| self.stmt(depth)).collect()
    }

    fn stmt(&mut self, depth: usize) -> String {
        let n = self.rng.gen_range_usize(0, 3);
        let o = self.rng.gen_range_usize(0, 2);
        let kinds = if depth == 0 { 6 } else { 11 };
        match self.rng.gen_range_usize(0, kinds) {
            0 => format!("var {} = {};\n", self.fresh(), self.num()),
            1 => format!("var {} = {};\n", self.fresh(), self.heap_value()),
            2 => format!("n{n} = {};\n", self.num()),
            3 => format!("o{o} = {};\n", self.heap_value()),
            4 => format!("bump({});\n", self.num()),
            5 => format!("o{o} = [{}];\nn{n} = o{o}.length;\n", self.num()),
            6 => format!(
                "if ({}) {{\n{}}} else {{\n{}}}\n",
                self.cond(),
                self.block(depth - 1),
                self.block(depth - 1)
            ),
            7 => format!("if ({}) {{\n{}}}\n", self.cond(), self.block(depth - 1)),
            8 => format!("if ({}) {{\nreturn {};\n}}\n", self.cond(), self.num()),
            9 => {
                let c = self.fresh();
                let bound = self.rng.gen_range_usize(0, 3);
                format!(
                    "var {c} = 0;\nwhile ({c} < {bound}) {{\n{c} = {c} + 1;\n{}}}\n",
                    self.block(depth - 1)
                )
            }
            _ => {
                let c = self.fresh();
                let bound = self.rng.gen_range_usize(0, 3);
                format!(
                    "for (var {c} = 0; {c} < {bound}; {c} = {c} + 1) {{\n{}}}\n",
                    self.block(depth - 1)
                )
            }
        }
    }
}

/// Runs one generated handler in a counting-only metered browser and
/// checks both static floors against what the run really cost.
fn assert_floor_holds_for_seed(seed: u64) {
    let mut gen = HandlerGen {
        rng: snapedge_rng::Rng::seed_from_u64(seed),
        vars: 0,
    };
    let body = gen.block(3);
    let script = format!(
        "var n0 = 0;\nvar n1 = 1;\nvar n2 = 2;\nvar o0 = null;\nvar o1 = null;\n\
         function bump(x) {{ return x + 1; }}\n\
         function h() {{\n{body}}}\n\
         document.getElementById(\"b\").addEventListener(\"go\", h);"
    );
    let floor = snapedge_analyze::effect_summary(&script, &EffectOptions::new())
        .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{script}"))
        .cost;

    let mut browser = snapedge_webapp::Browser::new();
    browser.set_meter(MeterLimits::default());
    browser
        .load_html(&format!(
            "<html><body><button id=\"b\">b</button></body>\n<script>\n{script}\n</script></html>"
        ))
        .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{script}"));
    let ops_before = browser.meter().unwrap().total_ops();
    let cells_before = browser.core().heap.len();
    browser.dispatch("b", "go").unwrap();
    browser
        .run_until_idle()
        .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{script}"));
    let ops = browser.meter().unwrap().total_ops() - ops_before;
    let cells = (browser.core().heap.len() - cells_before) as u64;
    assert!(
        floor.min_ops >= 1 && floor.min_ops <= ops,
        "seed {seed}: op floor {} vs {ops} charged\n{script}",
        floor.min_ops
    );
    assert!(
        floor.min_new_cells <= cells,
        "seed {seed}: cell floor {} vs {cells} allocated\n{script}",
        floor.min_new_cells
    );
}

#[test]
fn handler_floors_never_exceed_what_a_metered_browser_charges() {
    for seed in 0..300u64 {
        assert_floor_holds_for_seed(seed);
    }
}

#[test]
fn a_typed_literal_floors_at_the_two_cells_and_one_statement_it_costs() {
    let script = "var o0 = null;\nfunction h() {\no0 = new Float32Array([1,0.5,(-2),(0/0)]);\n}\n\
                  document.getElementById(\"b\").addEventListener(\"go\", h);";
    let prog = snapedge_webapp::parser::parse_program(script).unwrap();
    assert!(
        format!("{prog:?}").contains("Float32ArrayLiteral"),
        "the handler must hold the scanned node: {prog:?}"
    );
    let floor = snapedge_analyze::effect_summary(script, &EffectOptions::new())
        .unwrap()
        .cost;
    // The typed cell and the list cell before it, as for the same text
    // read as `NewFloat32Array` over an `Array`.
    let spaced = script.replace("([", "( [");
    let general = snapedge_analyze::effect_summary(&spaced, &EffectOptions::new())
        .unwrap()
        .cost;
    assert_eq!(floor, general);
    assert_eq!(floor.min_new_cells, 2);

    let mut browser = snapedge_webapp::Browser::new();
    browser.set_meter(MeterLimits::default());
    browser
        .load_html(&format!(
            "<html><body><button id=\"b\">b</button></body>\n<script>\n{script}\n</script></html>"
        ))
        .unwrap();
    let ops_before = browser.meter().unwrap().total_ops();
    let cells_before = browser.core().heap.len();
    browser.dispatch("b", "go").unwrap();
    browser.run_until_idle().unwrap();
    assert_eq!(browser.core().heap.len() - cells_before, 2);
    assert!(floor.min_ops <= browser.meter().unwrap().total_ops() - ops_before);
}
