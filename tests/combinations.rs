//! The switch × fault × fleet matrix: transparency under every
//! combination of the switches, with seeded chaos on the primary's
//! links. A failing check names its combination, e.g. `Combo { app:
//! agenet, seed: 2, servers: 2, retry: false, deltas: true, predict:
//! false, effects: false, meter: Off, incremental: true }`. The oracles:
//!
//! 1. Construction and every round succeed, except under strict
//!    fail-fast (one server, no retry), where only a network fault may
//!    surface.
//! 2. Every round's result is the client-only [`LocalOracle`]'s.
//! 3. **Meter.** A generous meter changes no report but its usage
//!    columns and no trace line but its `meter_tick`s; a metered round
//!    that offloaded charged ops; an unmetered run charges none and
//!    traces no meter event.
//! 4. **Effects.** With no meter or a generous one, effects on changes
//!    no report; its trace adds `gate:effects:ship:0:0` lines and raises
//!    every `plan` reading's offload side by one op floor. With effects,
//!    predict and balancing off, nothing traces a gate.
//! 5. **Incremental capture.** Off changes no report and no trace byte.
//! 6. **Fleet of one.** It selects a server only to re-provision after a
//!    round that completed locally, and never hands off.
//! 7. **Determinism.** A rerun replays reports and traces byte for byte;
//!    a fleet replays its report and event log; with every policy off it
//!    grants each admit at once and batches, rejects and gates nothing.
//! 8. **Gate readings.** Every `gate:<gate>:<verdict>:<lhs>:<rhs>` line
//!    satisfies the comparison it names: `plan` goes local iff
//!    `lhs >= rhs`, `effects` iff `lhs > rhs`.
//! 9. **One provisioning in flight.** A session's model pre-sends never
//!    overlap: each `model_upload` starts no earlier than the previous
//!    one ended ([`overlapping_presends`]), in sessions, one-click
//!    scenarios and every client of a fleet.
//!
//! Each app's rows must retry and fall back at least once, and the
//! session rows must reach all four gate outcomes, so a change to the
//! chaos plans, the meters or the apps cannot quietly leave an oracle
//! nothing to check.

use snapedge_core::prelude::*;
use snapedge_integration::{
    check_log, check_report, gate_reading, generous, overlapping_presends, secs, tiny_spec,
    GateReading, LocalOracle, LONG,
};
use std::collections::BTreeSet;
use std::fmt;

/// One app of the matrix: its name, its builder, the span its chaos
/// plans scatter windows over (about a session), its chaos seeds and
/// its rounds.
struct App(
    &'static str,
    fn() -> SessionBuilder,
    f64,
    &'static [u64],
    u64,
);

impl fmt::Debug for App {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

const TINY: App = App(
    "tiny_cnn",
    SessionConfig::tiny_builder,
    1.0,
    &[0, 1, 2, 3, 4, 5, 6],
    5,
);
/// Chaos seeds whose plans corrupt a transfer: 2–4 the 12 s, 45.7 MB
/// pre-send, which retries; 40 and 101 a round's upload for longer than
/// the retry budget, so the round falls back.
const AGENET: App = App("agenet", agenet, 20.0, &[2, 3, 4, 40, 101], 5);
const THIRD_POOL: App = App("agenet@3rd_pool", third_pool, 20.0, &[2, 3], 4);

fn agenet() -> SessionBuilder {
    SessionConfig::paper_builder("agenet")
}

fn third_pool() -> SessionBuilder {
    agenet().cut("3rd_pool")
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Meter {
    Off,
    Generous,
    /// 10⁴ ops: kills every agenet@`3rd_pool` round on the server
    /// (each charges about 1.9·10⁴), no agenet or tiny_cnn one (53).
    Tight,
    /// No ops at all: dooms every offloaded round, at the effects gate
    /// when it runs and on the server when not.
    Zero,
}

#[derive(Clone, Copy, Debug)]
struct Combo {
    app: &'static App,
    seed: u64,
    servers: usize,
    retry: bool,
    deltas: bool,
    predict: bool,
    effects: bool,
    meter: Meter,
    incremental: bool,
}

impl Combo {
    /// One server, every switch at the builder's default.
    fn new(app: &'static App, seed: u64) -> Combo {
        let cfg = (app.1)().build();
        Combo {
            app,
            seed,
            servers: cfg.servers.len(),
            retry: cfg.retry.is_some(),
            deltas: cfg.use_deltas,
            predict: cfg.predict,
            effects: cfg.effects,
            meter: Meter::Off,
            incremental: cfg.snapshot.incremental,
        }
    }

    /// Chaos on the primary's links; a clean second server.
    fn config(&self) -> SessionConfig {
        let plan = FaultPlan::chaos(self.seed, secs(self.app.2));
        let mut cfg = (self.app.1)().faults(plan).build();
        cfg.servers
            .extend((self.servers == 2).then(|| tiny_spec("edge-b")));
        cfg.retry = self.retry.then(RetryPolicy::default);
        (cfg.use_deltas, cfg.predict, cfg.effects) = (self.deltas, self.predict, self.effects);
        cfg.snapshot.incremental = self.incremental;
        cfg.meter = match self.meter {
            Meter::Off => None,
            Meter::Generous => Some(generous()),
            Meter::Tight => Some(MeterLimits::default().with_ops(10_000)),
            Meter::Zero => Some(MeterLimits::default().with_ops(0)),
        };
        cfg
    }
}

/// Oracle 1 on an error.
fn check_error(tag: &str, strict: bool, e: &OffloadError) {
    assert!(strict && matches!(e, OffloadError::Net(_)), "{tag}: {e}");
}

/// A session's rounds up to its first error, and its trace.
#[derive(Debug, PartialEq)]
struct Run {
    rounds: Vec<RoundReport>,
    error: Option<OffloadError>,
    jsonl: String,
}

/// Runs `c`'s session, holding its trace to oracle 9.
fn run(c: &Combo) -> Run {
    let (mut rounds, mut jsonl) = (Vec::new(), String::new());
    let error = match OffloadSession::new(c.config()) {
        Ok(mut session) => {
            let infer = |i| session.infer(i).map(|r| rounds.push(r));
            let done = (1..=c.app.4).try_for_each(infer);
            let trace = session.trace();
            assert_eq!(overlapping_presends(&trace), None, "{c:?}");
            jsonl = trace.to_jsonl();
            done.err()
        }
        Err(e) => Some(e),
    };
    Run {
        rounds,
        error,
        jsonl,
    }
}

/// How many events of `kind` a JSONL trace holds.
fn count(jsonl: &str, kind: &str) -> usize {
    jsonl.matches(&format!("\"kind\":\"{kind}\"")).count()
}

/// A JSONL trace without its `meter_tick` lines.
fn without_ticks(jsonl: &str) -> Vec<&str> {
    let tick = "\"kind\":\"meter_tick\"";
    jsonl.lines().filter(|line| !line.contains(tick)).collect()
}

/// What an app's rows reached: retries, local fallbacks and gate
/// outcomes (`plan:ship`, …).
#[derive(Default)]
struct Seen {
    retries: usize,
    fallbacks: usize,
    gates: BTreeSet<String>,
}

/// A JSONL line's gate reading and the rest of the line after its name.
fn gate_line(line: &str) -> Option<(GateReading<'_>, &str)> {
    let (name, rest) = line.strip_prefix("{\"name\":\"")?.split_once('"')?;
    Some((gate_reading(name)?, rest))
}

/// Oracles 1–4, 6 and 8 on one run, noting what it reached in `seen`.
fn check_run(c: &Combo, run: &Run, expected: &[String], seen: &mut Seen) {
    let tag = format!("{c:?}");
    if let Some(e) = &run.error {
        check_error(&tag, c.servers == 1 && !c.retry, e);
    }
    for r in &run.rounds {
        assert_eq!(r.result, expected[r.round - 1], "{tag}: round {}", r.round);
        let charged = match c.meter {
            Meter::Off => (r.ops_used, r.peak_heap) == (0, 0),
            _ => r.server.is_none() || r.ops_used > 0,
        };
        assert!(charged, "{tag}: {r:?}");
    }
    let offloaded = run.rounds.iter().any(|r| r.server.is_some());
    let ticks = count(&run.jsonl, "meter_tick");
    let exhausted = count(&run.jsonl, "meter_exhausted");
    match c.meter {
        Meter::Off => assert_eq!(ticks + exhausted, 0, "{tag}"),
        Meter::Generous => assert!(exhausted == 0 && (ticks > 0 || !offloaded), "{tag}"),
        Meter::Tight | Meter::Zero => {}
    }
    if !c.effects && !c.predict {
        assert_eq!(count(&run.jsonl, "gate"), 0, "{tag}");
    }
    if c.servers == 1 {
        let before_last = &run.rounds[..run.rounds.len().saturating_sub(1)];
        let local = before_last.iter().filter(|r| r.server.is_none()).count();
        assert!(count(&run.jsonl, "server_select") <= local, "{tag}");
        assert_eq!(count(&run.jsonl, "handoff"), 0, "{tag}");
    }
    for line in run.jsonl.lines() {
        let Some(((gate, verdict, lhs, rhs), _)) = gate_line(line) else {
            continue;
        };
        let trips = match gate {
            "plan" => lhs >= rhs,
            _ => lhs > rhs,
        };
        assert_eq!(verdict == "local", trips, "{tag}: {line}");
        seen.gates.insert(format!("{gate}:{verdict}"));
    }
    seen.retries += count(&run.jsonl, "retry");
    seen.fallbacks += run.rounds.iter().filter(|r| r.fell_back).count();
}

/// Oracle 4 on one pair: `on` is `off` with effect analysis on.
fn check_effects(c: &Combo, off: &Run, on: &Run) {
    let tag = format!("{c:?}");
    assert_eq!((&on.rounds, &on.error), (&off.rounds, &off.error), "{tag}");
    let gate = |line: &&str| line.starts_with("{\"name\":\"gate:effects:");
    let (ships, lines): (Vec<&str>, Vec<&str>) = on.jsonl.lines().partition(gate);
    let clicks = on.rounds.len() + usize::from(on.error.is_some());
    assert!(ships.len() <= clicks, "{tag}: one a click");
    for line in ships {
        assert!(line.contains("\"gate:effects:ship:0:0\""), "{tag}: {line}");
    }
    assert_eq!(lines.len(), off.jsonl.lines().count(), "{tag}");
    let floor = |(a, b): (&str, &str)| {
        let (((ga, va, la, ra), rest_a), ((gb, vb, lb, rb), rest_b)) =
            (gate_line(a)?, gate_line(b)?);
        let same = (ga, va, ra, rest_a) == ("plan", vb, rb, rest_b) && gb == "plan";
        (same && la > lb).then_some(la - lb)
    };
    let pairs = lines.into_iter().zip(off.jsonl.lines());
    let floors: BTreeSet<_> = pairs.filter(|(a, b)| a != b).map(floor).collect();
    let one_floor = floors.len() <= 1 && !floors.contains(&None);
    assert!(one_floor, "{tag}: {floors:?}");
}

/// One row: `base` under every meter, effects off and on, each run
/// checked alone and against the runs it must agree with.
fn check_row(base: Combo, expected: &[String], seen: &mut Seen) {
    let runs = [Meter::Off, Meter::Generous, Meter::Tight].map(|meter| {
        [false, true].map(|effects| {
            let mut c = base;
            (c.meter, c.effects) = (meter, effects);
            let r = run(&c);
            check_run(&c, &r, expected, seen);
            (c, r)
        })
    });
    // Only the tiny rows pay for a meter that dooms every round.
    if base.app.0 == "tiny_cnn" {
        for effects in [false, true] {
            let mut c = base;
            (c.meter, c.effects) = (Meter::Zero, effects);
            check_run(&c, &run(&c), expected, seen);
        }
    }
    let [off, generous, tight] = &runs;
    for ((c, m), (_, r)) in generous.iter().zip(off) {
        let usage = |r: &mut RoundReport| (r.ops_used, r.peak_heap) = (0, 0);
        let mut rounds = m.rounds.clone();
        rounds.iter_mut().for_each(usage);
        assert_eq!((&rounds, &m.error), (&r.rounds, &r.error), "{c:?}");
        assert_eq!(without_ticks(&m.jsonl), without_ticks(&r.jsonl), "{c:?}");
    }
    for [(_, effects_off), (c, effects_on)] in [off, generous] {
        check_effects(c, effects_off, effects_on);
    }
    if base.deltas && !base.predict {
        for [(c, r), _] in &runs {
            let mut full = *c;
            full.incremental = false;
            assert_eq!(&run(&full), r, "{full:?}");
        }
    }
    if base.servers == 2 && base.retry && base.deltas && base.predict {
        let (c, r) = &tight[1];
        assert_eq!(&run(c), r, "{c:?}: rerun");
    }
}

/// Every row of `app`: seeds × 1–2 servers × retry × deltas × predict.
/// The rows must retry, fall back and reach each gate outcome in
/// `gates` at least once.
fn check_app(app: &'static App, gates: &[&str]) {
    let mut oracle = LocalOracle::new(&(app.1)().build()).unwrap();
    let results = (1..=app.4).map(|i| oracle.result(i).unwrap());
    let expected: Vec<String> = results.collect();
    let mut seen = Seen::default();
    for &seed in app.3 {
        for bits in 0..16 {
            let on = |bit: u32| bits >> bit & 1 == 1;
            let mut base = Combo::new(app, seed);
            (base.servers, base.retry) = (1 + usize::from(on(0)), on(1));
            (base.deltas, base.predict) = (on(2), on(3));
            check_row(base, &expected, &mut seen);
        }
    }
    let (retries, fallbacks) = (seen.retries, seen.fallbacks);
    let faulted = retries > 0 && fallbacks > 0;
    assert!(faulted, "{app:?}: {retries} retries, {fallbacks} fallbacks");
    for gate in gates {
        assert!(
            seen.gates.contains(*gate),
            "{app:?}: no {gate} in {:?}",
            seen.gates
        );
    }
}

#[test]
fn tiny_cnn_sessions_are_transparent_under_every_combination() {
    // The one-server rows spell their fleet through `.faults`.
    let plan = FaultPlan::chaos(1, secs(1.0));
    let fleet = vec![tiny_spec("edge-server-1").with_faults(plan.clone())];
    let one = SessionConfig::tiny_builder().faults(plan).build();
    assert_eq!(one, SessionConfig::tiny_builder().servers(fleet).build());
    // Local execution wins on the tiny model, and the zero-op meter
    // trips the effects gate. With agenet's `plan:ship`, the session
    // rows reach all four gate outcomes.
    check_app(&TINY, &["effects:local", "effects:ship", "plan:local"]);
}

#[test]
fn agenet_sessions_are_transparent_under_every_combination() {
    // Offloading wins on AgeNet.
    check_app(&AGENET, &["plan:ship"]);
}

#[test]
fn agenet_third_pool_sessions_are_transparent_under_every_combination() {
    // The plan gate prices the cut the session runs: offloading at
    // `3rd_pool` (~12.0 s) loses to local execution (~11.8 s), so the
    // predict-on rows complete locally; the predict-off rows carry the
    // retries and fallbacks.
    check_app(&THIRD_POOL, &["plan:local"]);
}

/// One click through `run_scenario`, after and before the pre-send's
/// ACK (the before-ACK regime has no other entry point), × seeds × 1–2
/// servers × retry × no meter or a generous one: oracles 1, 2, 3, 7 and 9.
#[test]
fn one_click_scenarios_are_transparent_under_every_combination() {
    for app in [&TINY, &AGENET] {
        let clean = (app.1)().build();
        let mut oracle = LocalOracle::new(&clean).unwrap();
        let expected = oracle.result(clean.seed).unwrap();
        for (seed, bits) in app.3.iter().flat_map(|&s| (0..8).map(move |b| (s, b))) {
            let ack = [Strategy::OffloadAfterAck, Strategy::OffloadBeforeAck];
            let strategy = &ack[bits / 4];
            let [(_, off), (tag, generous)] = [Meter::Off, Meter::Generous].map(|meter| {
                let mut c = Combo::new(app, seed);
                (c.servers, c.retry, c.meter) = (1 + bits % 2, bits & 2 != 0, meter);
                let tag = format!("{c:?} {strategy:?}");
                let mut cfg = ScenarioConfig::from(c.config().core);
                cfg.strategy = strategy.clone();
                let report = run_scenario(&cfg);
                assert_eq!(run_scenario(&cfg), report, "{tag}: rerun");
                match &report {
                    Ok(r) => {
                        assert_eq!(r.result, expected, "{tag}");
                        assert_eq!(overlapping_presends(&r.trace), None, "{tag}");
                    }
                    Err(e) => check_error(&tag, c.servers == 1 && !c.retry, e),
                }
                (tag, report)
            });
            assert_eq!(off.as_ref().err(), generous.as_ref().err(), "{tag}");
            let (Ok(off), Ok(generous)) = (off, generous) else {
                continue;
            };
            let (off_jsonl, jsonl) = (off.trace.to_jsonl(), generous.trace.to_jsonl());
            assert_eq!(count(&off_jsonl, "meter_tick"), 0, "{tag}");
            assert_eq!(count(&jsonl, "meter_exhausted"), 0, "{tag}");
            assert_eq!(without_ticks(&jsonl), without_ticks(&off_jsonl), "{tag}");
            let trace = off.trace.clone();
            assert_eq!(ScenarioReport { trace, ..generous }, off, "{tag}");
        }
    }
}

/// Real tiny sessions, three clients of three rounds each, over 1–3
/// servers that each have a chaos plan of their own × every engine
/// policy × retry × no meter or a generous one, each run twice under
/// the engine's log and report checks: oracles 1, 3, 7 and 9.
#[test]
fn real_session_fleets_hold_every_oracle_under_every_policy() {
    type Policy = fn(Engine<SessionWorkload>) -> Engine<SessionWorkload>;
    let policies: [(&str, Policy); 4] = [
        ("none", |e| e),
        ("balance", |e| e.balance(true)),
        ("fair_share", |e| e.fair_share(true)),
        ("batch_window", |e| e.batch_window(secs(0.05))),
    ];
    for row in 0..72u64 {
        let (seed, servers, retry) = (row / 24, 1 + row / 8 % 3, row / 4 % 2 == 1);
        let (policy, apply) = policies[row as usize % 4];
        let [off, generous] = [Meter::Off, Meter::Generous].map(|meter| {
            let tag =
                format!("fleet seed {seed}, {servers} servers, retry {retry}, {policy}, {meter:?}");
            let mut cfg = SessionConfig::tiny_builder().seed(seed).build();
            let plan = |i| FaultPlan::chaos(seed * 3 + i, secs(1.0));
            let spec = |i| tiny_spec(&format!("edge-{i}")).with_faults(plan(i));
            cfg.servers = (0..servers).map(spec).collect();
            cfg.retry = retry.then(RetryPolicy::default);
            cfg.meter = (meter == Meter::Generous).then(generous);
            let once = || {
                let closed = ArrivalProcess::ClosedLoop { think: secs(0.25) };
                let engine = Engine::sessions(cfg.clone(), 3)?.arrival(closed);
                let mut engine = apply(engine.duration(LONG).max_rounds(3));
                let report = engine.run()?;
                check_log(engine.event_log(), servers as usize);
                check_report(engine.event_log(), &report);
                let trace = |c| {
                    let trace = engine.workload().trace(c).unwrap();
                    assert_eq!(overlapping_presends(&trace), None, "{tag}, client {c}");
                    trace.to_jsonl()
                };
                let traces: String = (0..3).map(trace).collect();
                Ok((report, engine.event_log().to_vec(), traces))
            };
            let first = once();
            assert_eq!(once(), first, "{tag}: rerun");
            if let Err(e) = &first {
                check_error(&tag, servers == 1 && !retry, e);
            }
            (tag, first)
        });
        assert_eq!(off.1.as_ref().err(), generous.1.as_ref().err(), "{}", off.0);
        let ((_, Ok((report, log, traces))), (tag, Ok((metered, metered_log, _)))) =
            (off, generous)
        else {
            continue;
        };
        let served = report.servers.iter().any(|s| s.rounds > 0);
        if policy == "none" {
            let admit = |e: &EngineEvent| match e.kind {
                EngineEventKind::Admit { start, .. } => Some(start.is_some()),
                _ => None,
            };
            let granted: Vec<bool> = log.iter().filter_map(admit).collect();
            let ok = granted.iter().all(|&g| g) && granted.is_empty() != served;
            assert!(ok, "{tag}");
            for kind in ["gate", "admit_deferred", "batch_formed"] {
                assert_eq!(count(&traces, kind), 0, "{tag}: {kind}");
            }
            let busy = report.servers.iter().map(|s| s.rejects + s.batches);
            assert_eq!(busy.sum::<usize>() + report.max_batch, 0, "{tag}");
        }
        assert_eq!((report.total_ops, report.peak_heap), (0, 0), "{tag}");
        assert_eq!(metered.total_ops > 0, served, "{tag}");
        let mut zeroed = metered;
        (zeroed.total_ops, zeroed.peak_heap) = (0, 0);
        assert_eq!((zeroed, metered_log), (report, log), "{tag}");
    }
}
