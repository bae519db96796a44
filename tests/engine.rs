//! Megascale fleet-engine suite (ISSUE: discrete-event engine tentpole).
//!
//! The contract under test:
//!
//! 1. **Determinism** — the engine is a pure function of (config, seed,
//!    arrival process): two identical runs produce the same event
//!    schedule, the same [`FleetReport`], and byte-identical JSONL
//!    traces, for both real-session and modeled workloads.
//! 2. **One client is the legacy loop, bit for bit** — a 1-client engine
//!    run with zero think time replays `OffloadSession::infer` exactly:
//!    same [`RoundReport`]s, same trace bytes. The engine adds megascale
//!    without perturbing the paper-faithful path.
//! 3. **Queueing delay is emergent and observable** — overlapping
//!    clients on one server CPU produce positive queue waits, recorded
//!    as `enqueue`/`queue_wait`/`dequeue` trace events that survive a
//!    JSONL round trip. An uncontended run records none.
//! 4. **Megascale holds up** — 10k open-loop clients against a 3-server
//!    fleet complete deterministically with ordered percentiles and
//!    every candidate sharing the load.

use snapedge_core::prelude::*;
use snapedge_integration::run_checked;
use snapedge_webapp::intern::fnv1a;
use std::time::Duration;

fn tiny_spec(name: &str) -> ServerSpec {
    ServerSpec::new(name, edge_server_x86(), LinkConfig::wifi_30mbps())
}

/// A long-enough horizon that closed-loop round caps, not the traffic
/// horizon, end every test run.
const LONG: Duration = Duration::from_secs(100_000);

fn kind_count(trace: &Trace, kind: EventKind) -> usize {
    trace.events().iter().filter(|e| e.kind == kind).count()
}

// ---------------------------------------------------------------------
// 1. Determinism
// ---------------------------------------------------------------------

/// Same seed, same config ⇒ identical event schedule, report and traces
/// across two independent real-session engine runs.
#[test]
fn session_engine_runs_are_deterministic() {
    let run = || {
        let cfg = SessionConfig::tiny_builder()
            .add_server(tiny_spec("edge-b"))
            .build();
        let mut engine = Engine::sessions(cfg, 3)
            .unwrap()
            .arrival(ArrivalProcess::ClosedLoop {
                think: Duration::from_millis(250),
            })
            .duration(LONG)
            .max_rounds(3);
        let report = run_checked(&mut engine);
        let log = engine.event_log().to_vec();
        let traces: Vec<String> = (0..3)
            .map(|c| engine.workload().trace(c).unwrap().to_jsonl())
            .collect();
        (report, log, traces)
    };
    let (report_a, log_a, traces_a) = run();
    let (report_b, log_b, traces_b) = run();
    assert_eq!(report_a, report_b);
    assert_eq!(log_a, log_b);
    assert_eq!(traces_a, traces_b);
    assert_eq!(report_a.completed, 9, "3 clients x 3 capped rounds");
    assert!(!log_a.is_empty());
}

/// Open-loop arrival sampling is part of the deterministic state: a
/// Poisson run replays exactly, and a different seed reshuffles it.
#[test]
fn open_loop_arrivals_replay_with_the_seed() {
    let run = |seed: u64| {
        let cfg = SessionConfig::paper_builder("agenet").seed(seed).build();
        let mut engine = Engine::modeled(cfg, 40)
            .unwrap()
            .arrival(ArrivalProcess::Poisson { rate_hz: 25.0 })
            .duration(Duration::from_secs(10));
        let report = run_checked(&mut engine);
        (report, engine.event_log().to_vec())
    };
    let (report_a, log_a) = run(42);
    let (report_b, log_b) = run(42);
    let (report_c, log_c) = run(43);
    assert_eq!(report_a, report_b);
    assert_eq!(log_a, log_b);
    assert_ne!(log_a, log_c, "a different seed must reshuffle arrivals");
    assert!(report_c.completed > 0);
}

// ---------------------------------------------------------------------
// 2. One client == the legacy per-session loop
// ---------------------------------------------------------------------

/// A 1-client engine run with zero think time is the legacy
/// `OffloadSession::infer` loop, bit for bit: identical round reports
/// and a byte-identical JSONL trace.
#[test]
fn single_client_engine_run_matches_the_legacy_loop_bit_for_bit() {
    const ROUNDS: usize = 4;
    let cfg = SessionConfig::tiny_builder().build();

    // Legacy closed loop: drive the session directly, with the same
    // per-round image seeds the engine derives.
    let mut legacy = OffloadSession::new(cfg.clone()).unwrap();
    let legacy_reports: Vec<RoundReport> = (1..=ROUNDS)
        .map(|round| {
            legacy
                .infer(round_image_seed(cfg.seed, 0, round as u64))
                .unwrap()
        })
        .collect();
    let legacy_trace = legacy.trace().to_jsonl();

    // The same rounds through the global event queue.
    let mut engine = Engine::sessions(cfg, 1)
        .unwrap()
        .arrival(ArrivalProcess::ClosedLoop {
            think: Duration::ZERO,
        })
        .duration(LONG)
        .max_rounds(ROUNDS);
    let report = run_checked(&mut engine);
    let engine_reports = engine.workload().reports();
    let engine_trace = engine.workload().trace(0).unwrap().to_jsonl();

    assert_eq!(engine_reports, legacy_reports.as_slice());
    assert_eq!(engine_trace, legacy_trace);
    assert_eq!(report.completed, ROUNDS);
    assert_eq!(report.fallbacks, 0);
    // Alone on the fleet, the client never queues...
    assert_eq!(report.queue_wait.max, Duration::ZERO);
    // ...so the legacy trace vocabulary is unchanged: no queue events.
    let trace = engine.workload().trace(0).unwrap();
    assert_eq!(kind_count(&trace, EventKind::Enqueue), 0);
    assert_eq!(kind_count(&trace, EventKind::QueueWait), 0);
    assert_eq!(kind_count(&trace, EventKind::Dequeue), 0);
}

// ---------------------------------------------------------------------
// 3. Emergent queueing delay
// ---------------------------------------------------------------------

/// Two zero-think clients hammering one server CPU must collide: the
/// engine serializes the grants, the sessions record the waits as
/// `enqueue`/`queue_wait`/`dequeue` events, and those events survive a
/// JSONL round trip.
#[test]
fn contention_emerges_as_queue_wait_events() {
    let cfg = SessionConfig::tiny_builder().build();
    let mut engine = Engine::sessions(cfg, 2)
        .unwrap()
        .arrival(ArrivalProcess::ClosedLoop {
            think: Duration::ZERO,
        })
        .duration(LONG)
        .max_rounds(3);
    let report = run_checked(&mut engine);
    assert_eq!(report.completed, 6);
    assert!(
        report.queue_wait.max > Duration::ZERO,
        "two synchronized clients on one CPU must queue"
    );
    assert!(report.latency.p99 >= report.latency.p50);

    let mut queue_events = 0;
    for client in 0..2 {
        let trace = engine.workload().trace(client).unwrap();
        let enq = kind_count(&trace, EventKind::Enqueue);
        let wait = kind_count(&trace, EventKind::QueueWait);
        let deq = kind_count(&trace, EventKind::Dequeue);
        assert_eq!(enq, wait, "every enqueue pairs with a wait span");
        assert_eq!(enq, deq, "every enqueue pairs with a dequeue");
        queue_events += enq;

        // The queueing vocabulary survives serialization.
        let jsonl = trace.to_jsonl();
        let back = Trace::from_jsonl(&jsonl).unwrap();
        assert_eq!(back.events(), trace.events());
        assert_eq!(back.to_jsonl(), jsonl);
    }
    assert!(
        queue_events > 0,
        "at least one client must observe the busy CPU"
    );
}

/// The modeled workload sees the same contention physics: one server and
/// many synchronized clients produce strictly positive queue waits and a
/// near-saturated CPU; a lone client never queues; latency, queueing and
/// utilization grow with the population, and think time relieves them.
#[test]
fn modeled_contention_saturates_a_single_server() {
    let run = |model: &str, clients: usize, think: Duration, rounds: usize| {
        let mut engine = Engine::modeled(SessionConfig::paper(model), clients)
            .unwrap()
            .arrival(ArrivalProcess::ClosedLoop { think })
            .duration(LONG)
            .max_rounds(rounds);
        run_checked(&mut engine)
    };
    let report = run("agenet", 20, Duration::ZERO, 2);
    assert_eq!(report.completed, 40);
    assert!(report.queue_wait.p50 > Duration::ZERO);
    assert_eq!(report.servers.len(), 1);
    assert!(
        report.servers[0].utilization > 0.9,
        "20 synchronized clients must saturate one CPU, got {}",
        report.servers[0].utilization
    );

    let think = Duration::from_secs(2);
    let one = run("googlenet", 1, think, 4);
    assert_eq!(one.completed, 4);
    assert_eq!(one.queue_wait.max, Duration::ZERO, "a lone client queues");
    let eight = run("googlenet", 8, think, 4);
    assert!(eight.latency.mean > one.latency.mean);
    assert!(eight.queue_wait.mean > one.queue_wait.mean);
    assert!(eight.servers[0].utilization > one.servers[0].utilization);
    let busy = run("googlenet", 8, Duration::from_millis(100), 4);
    let relaxed = run("googlenet", 8, Duration::from_secs(20), 4);
    assert!(relaxed.queue_wait.mean < busy.queue_wait.mean);
}

// ---------------------------------------------------------------------
// 4. Megascale
// ---------------------------------------------------------------------

/// The ISSUE acceptance run: 10k open-loop clients, Poisson arrivals,
/// a 3-server fleet. Must complete, replay deterministically, and report
/// ordered percentiles with every candidate sharing the load.
#[test]
fn ten_thousand_clients_against_three_servers() {
    let run = || {
        let cfg = SessionConfig::paper_builder("agenet")
            .add_server(tiny_spec("edge-b"))
            .add_server(tiny_spec("edge-c"))
            .build();
        let mut engine = Engine::modeled(cfg, 10_000)
            .unwrap()
            .arrival(ArrivalProcess::Poisson { rate_hz: 120.0 })
            .duration(Duration::from_secs(30));
        let report = run_checked(&mut engine);
        (report, engine.event_log().len())
    };
    let (report, events) = run();
    let (replay, replay_events) = run();
    assert_eq!(report, replay);
    assert_eq!(events, replay_events);

    assert_eq!(report.clients, 10_000);
    assert!(report.completed > 1_000, "got {}", report.completed);
    assert!(report.throughput_rps > 0.0);
    assert!(report.latency.p50 <= report.latency.p95);
    assert!(report.latency.p95 <= report.latency.p99);
    assert!(report.queue_wait.p50 <= report.queue_wait.p99);
    assert_eq!(report.servers.len(), 3);
    for server in &report.servers {
        assert!(server.rounds > 0, "{} served nothing", server.name);
        assert!(server.utilization <= 1.0);
    }
    let granted: usize = report.servers.iter().map(|s| s.rounds).sum();
    assert_eq!(granted, report.completed, "every round got one CPU grant");
}

/// A diurnal curve is open-loop traffic too: it drains deterministically
/// and its trough/crest rates bracket a flat Poisson run's volume.
#[test]
fn diurnal_traffic_drains_deterministically() {
    let run = |arrival: ArrivalProcess| {
        let cfg = SessionConfig::paper_builder("agenet").build();
        let mut engine = Engine::modeled(cfg, 200)
            .unwrap()
            .arrival(arrival)
            .duration(Duration::from_secs(20));
        run_checked(&mut engine)
    };
    let diurnal = ArrivalProcess::Diurnal {
        base_hz: 2.0,
        peak_hz: 40.0,
        period: Duration::from_secs(10),
    };
    let a = run(diurnal.clone());
    let b = run(diurnal);
    assert_eq!(a, b);
    let trough = run(ArrivalProcess::Poisson { rate_hz: 2.0 });
    let crest = run(ArrivalProcess::Poisson { rate_hz: 40.0 });
    assert!(trough.completed <= a.completed);
    assert!(a.completed <= crest.completed);
}

/// Degenerate inputs fail loudly, not silently: zero clients and
/// zero-rate open-loop processes are configuration errors.
#[test]
fn degenerate_engine_configs_are_rejected() {
    let cfg = SessionConfig::paper_builder("agenet").build();
    let err = Engine::modeled(cfg.clone(), 0).unwrap().run().unwrap_err();
    assert!(matches!(err, OffloadError::Config(_)), "{err}");

    let err = Engine::modeled(cfg, 5)
        .unwrap()
        .arrival(ArrivalProcess::Poisson { rate_hz: 0.0 })
        .run()
        .unwrap_err();
    assert!(matches!(err, OffloadError::Config(_)), "{err}");
}

// ---------------------------------------------------------------------
// 5. The event log's rendered lines are pinned
// ---------------------------------------------------------------------

/// FNV-1a over every line plus a newline, with the line count.
fn fnv_lines(lines: &[String]) -> (usize, u64) {
    let text: String = lines.iter().flat_map(|l| [l.as_str(), "\n"]).collect();
    (lines.len(), fnv1a(text.as_bytes()))
}

fn three_servers() -> ConfigBuilder<SessionConfig> {
    SessionConfig::paper_builder("agenet")
        .add_server(tiny_spec("edge-b"))
        .add_server(tiny_spec("edge-c"))
}

fn modeled(cfg: SessionConfig, clients: usize) -> Engine<ModeledWorkload> {
    Engine::modeled(cfg, clients).unwrap()
}

fn modeled_lines(
    engine: Engine<ModeledWorkload>,
    arrival: ArrivalProcess,
    horizon: Duration,
    cap: Option<usize>,
) -> Vec<String> {
    let mut engine = engine.arrival(arrival).duration(horizon);
    if let Some(cap) = cap {
        engine = engine.max_rounds(cap);
    }
    run_checked(&mut engine);
    engine.event_lines()
}

fn sessions(cfg: SessionConfig, clients: usize) -> Engine<SessionWorkload> {
    Engine::sessions(cfg, clients).unwrap()
}

fn session_lines(engine: Engine<SessionWorkload>, think: Duration, cap: usize) -> Vec<String> {
    let mut engine = engine
        .arrival(ArrivalProcess::ClosedLoop { think })
        .duration(LONG)
        .max_rounds(cap);
    run_checked(&mut engine);
    engine.event_lines()
}

/// `(run, lines, FNV-1a)` of [`event_log_lines_are_pinned`]'s runs,
/// recorded at cef9d17 — when the engine still formatted one `String`
/// per event — and not edited since.
const PINNED_LINES: [(&str, usize, u64); 10] = [
    ("modeled_poisson", 5935, 0x905d24ccbbc3abca),
    ("modeled_diurnal", 2105, 0xfaf5027b97973e78),
    ("modeled_closed", 300, 0xd085497643096c06),
    ("modeled_fair_share", 540, 0x728ac5d18caddf9d),
    ("modeled_batch_window", 7428, 0xeb0569a8a559b591),
    ("modeled_balance", 505, 0xb479cc7c8e56902e),
    ("modeled_all_three", 7374, 0x7dcb8fe83b348a09),
    ("session_fair_batch", 111, 0xd298dc64406b8572),
    ("session_failover", 30, 0x86e7aae4344a3856),
    ("session_fallback", 16, 0x74ddb55ed904df26),
];

/// `(lines, FNV-1a of the lines, FNV-1a of the clients' JSONL)` of
/// [`a_balanced_session_fleet_is_pinned`]'s run, recorded at 47abd77,
/// when balancing a session was a config knob, and not edited since.
const PINNED_BALANCED_SESSIONS: (usize, u64, u64) = (144, 0x2c3cb697b0683459, 0x3b052409f72af5a5);

/// Twelve synchronized real sessions on one tiny server, balanced by the
/// engine alone: every session gets the queue outlook, so its `plan`
/// gate prices the wait and sheds rounds to the client. The event log
/// and every client's trace are the ones the config knob produced.
#[test]
fn a_balanced_session_fleet_is_pinned() {
    const CLIENTS: usize = 12;
    let mut engine = sessions(SessionConfig::tiny(), CLIENTS)
        .balance(true)
        .arrival(ArrivalProcess::ClosedLoop {
            think: Duration::ZERO,
        })
        .duration(LONG)
        .max_rounds(4);
    run_checked(&mut engine);
    let (count, hash) = fnv_lines(&engine.event_lines());
    let jsonl: String = (0..CLIENTS)
        .map(|c| engine.workload().trace(c).unwrap().to_jsonl())
        .collect();
    assert_eq!(
        (count, hash, fnv1a(jsonl.as_bytes())),
        PINNED_BALANCED_SESSIONS,
        "left: this run, right: pinned"
    );
}

/// The text of the log is a contract of its own: ten fleets — modeled
/// Poisson, diurnal and closed loop; fair share, a batch window and
/// balancing alone and together; real sessions batching, failing over
/// and falling back to the client — render the lines they always did.
#[test]
fn event_log_lines_are_pinned() {
    let poisson = ArrivalProcess::Poisson { rate_hz: 120.0 };
    let burst = ArrivalProcess::ClosedLoop {
        think: Duration::ZERO,
    };
    let ten = Duration::from_secs(10);
    let window = Duration::from_millis(50);
    let dies = FaultPlan::none()
        .down(Duration::from_millis(400), Duration::from_secs(3600))
        .unwrap();
    let one_try = RetryPolicy {
        max_attempts: 1,
        deadline: Duration::from_secs(2),
        ..RetryPolicy::default()
    };
    let runs: Vec<(&str, Vec<String>)> = vec![
        (
            "modeled_poisson",
            modeled_lines(
                modeled(three_servers().build(), 500),
                poisson.clone(),
                ten,
                None,
            ),
        ),
        (
            "modeled_diurnal",
            modeled_lines(
                modeled(SessionConfig::paper("agenet"), 200),
                ArrivalProcess::Diurnal {
                    base_hz: 2.0,
                    peak_hz: 40.0,
                    period: ten,
                },
                Duration::from_secs(20),
                None,
            ),
        ),
        (
            "modeled_closed",
            modeled_lines(
                modeled(SessionConfig::paper("agenet"), 20),
                ArrivalProcess::ClosedLoop {
                    think: Duration::from_millis(100),
                },
                LONG,
                Some(3),
            ),
        ),
        (
            "modeled_fair_share",
            modeled_lines(
                modeled(three_servers().build(), 30).fair_share(true),
                burst.clone(),
                LONG,
                Some(3),
            ),
        ),
        (
            "modeled_batch_window",
            modeled_lines(
                modeled(three_servers().build(), 500).batch_window(window),
                poisson.clone(),
                ten,
                None,
            ),
        ),
        (
            "modeled_balance",
            modeled_lines(
                modeled(
                    SessionConfig::paper_builder("agenet")
                        .add_server(tiny_spec("edge-b"))
                        .add_server(ServerSpec::new(
                            "edge-slow",
                            odroid_xu4(),
                            LinkConfig::mbps(3.0),
                        ))
                        .build(),
                    300,
                )
                .balance(true),
                ArrivalProcess::Poisson { rate_hz: 10.0 },
                ten,
                None,
            ),
        ),
        (
            "modeled_all_three",
            modeled_lines(
                modeled(three_servers().build(), 500)
                    .balance(true)
                    .fair_share(true)
                    .batch_window(window),
                poisson,
                ten,
                None,
            ),
        ),
        (
            "session_fair_batch",
            session_lines(
                sessions(SessionConfig::tiny(), 6)
                    .fair_share(true)
                    .batch_window(window),
                Duration::ZERO,
                3,
            ),
        ),
        (
            "session_failover",
            session_lines(
                sessions(
                    SessionConfig::tiny_builder()
                        .servers(vec![
                            tiny_spec("edge-a").with_faults(dies.clone()),
                            tiny_spec("edge-b"),
                            tiny_spec("edge-c"),
                        ])
                        .retry(one_try.clone())
                        .build(),
                    2,
                ),
                Duration::from_millis(250),
                3,
            ),
        ),
        (
            "session_fallback",
            session_lines(
                sessions(
                    SessionConfig::tiny_builder()
                        .servers(vec![
                            tiny_spec("edge-a").with_faults(dies.clone()),
                            tiny_spec("edge-b").with_faults(dies.clone()),
                            tiny_spec("edge-c").with_faults(dies.clone()),
                        ])
                        .retry(one_try)
                        .build(),
                    2,
                ),
                Duration::from_millis(250),
                2,
            ),
        ),
    ];
    let hashed: Vec<(&str, usize, u64)> = runs
        .iter()
        .map(|(name, lines)| {
            let (count, hash) = fnv_lines(lines);
            (*name, count, hash)
        })
        .collect();
    assert_eq!(hashed, PINNED_LINES, "left: this run, right: pinned");
    // The two session fleets pin what their names say.
    let has = |run: usize, needle: &str| runs[run].1.iter().any(|l| l.ends_with(needle));
    assert!(has(8, "round=2 server=edge-b"), "no failover in run 8");
    assert!(has(9, "round=2 server=client"), "no fallback in run 9");
}
