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

use snapedge_core::engine::EngineStep;
use snapedge_core::prelude::*;
use snapedge_integration::{count_kind, run_checked, tiny_spec, BACK_TO_BACK, LONG};
use snapedge_webapp::intern::fnv1a;
use std::time::Duration;

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
        .arrival(BACK_TO_BACK)
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
    assert_eq!(count_kind(&trace, EventKind::Enqueue), 0);
    assert_eq!(count_kind(&trace, EventKind::QueueWait), 0);
    assert_eq!(count_kind(&trace, EventKind::Dequeue), 0);
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
        .arrival(BACK_TO_BACK)
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
        let enq = count_kind(&trace, EventKind::Enqueue);
        let wait = count_kind(&trace, EventKind::QueueWait);
        let deq = count_kind(&trace, EventKind::Dequeue);
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

/// A workload that claims more clients than memory can hold.
struct Crowd;

impl Workload for Crowd {
    fn clients(&self) -> usize {
        usize::MAX
    }

    fn begin_round(&mut self, _: usize, _: Duration, _: u64) -> Result<EngineStep, OffloadError> {
        Err(OffloadError::Protocol(
            "a crowd never starts a round".into(),
        ))
    }

    fn compute(&mut self, _: usize, _: Duration) -> Result<Duration, OffloadError> {
        Err(OffloadError::Protocol("a crowd never computes".into()))
    }

    fn continue_round(&mut self, _: usize) -> Result<EngineStep, OffloadError> {
        Err(OffloadError::Protocol("a crowd never continues".into()))
    }
}

/// Degenerate inputs fail loudly, not silently: zero clients, more
/// clients than memory can hold and zero-rate open-loop processes are
/// configuration errors.
#[test]
fn degenerate_engine_configs_are_rejected() {
    let cfg = SessionConfig::paper_builder("agenet").build();
    let err = Engine::modeled(cfg.clone(), 0).unwrap().run().unwrap_err();
    assert!(matches!(err, OffloadError::Config(_)), "{err}");

    // Refused by name before anything is allocated: in both workloads'
    // constructors, a closed loop's up-front arrivals and the run's
    // client slots.
    let crowd = || Engine::with_workload(Crowd, vec!["edge".into()]);
    for err in [
        Engine::modeled(cfg.clone(), usize::MAX).err(),
        Engine::sessions(cfg.clone(), usize::MAX).err(),
        crowd().run().err(),
        crowd()
            .arrival(ArrivalProcess::Poisson { rate_hz: 1.0 })
            .run()
            .err(),
    ] {
        let Some(OffloadError::Config(msg)) = err else {
            panic!("want a config error, got {err:?}");
        };
        assert!(msg.contains(&format!("{} clients", usize::MAX)), "{msg}");
    }

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

/// The benchmark's modeled fleet: agenet on three identical paper
/// servers.
fn paper_fleet(seed: u64) -> SessionConfig {
    let mut cfg = SessionConfig::paper_builder("agenet").seed(seed).build();
    for name in ["edge-b", "edge-c"] {
        let mut spec = cfg.primary().clone();
        spec.name = name.to_string();
        cfg.servers.push(spec);
    }
    cfg
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
/// per event. The multi-server runs were re-pinned once, when both
/// fleets began to place client `c` on the `c % ties`-th tied server
/// and keep it there (each such line says what moved).
const PINNED_LINES: [(&str, usize, u64); 11] = [
    // Clients stay on server `c % 3` instead of rotating every round.
    ("modeled_poisson", 5935, 0x81e6989623f9ce8a),
    ("modeled_diurnal", 2105, 0xfaf5027b97973e78),
    ("modeled_closed", 300, 0xd085497643096c06),
    // Same placement move: each DRR ring keeps the same ten tenants.
    ("modeled_fair_share", 540, 0xaf5aa4f0fa3937cb),
    // Same placement move; one more batch forms (7 428 lines before).
    ("modeled_batch_window", 7429, 0xda70a33164ab5238),
    // Placed once, on the outlook at the click, not re-ranked each round.
    ("modeled_balance", 505, 0x820a8531a30853f5),
    // Both moves above; nine more batch lines (7 374 before).
    ("modeled_all_three", 7383, 0x7c57fe7d46004ad8),
    ("session_fair_batch", 111, 0xd298dc64406b8572),
    // Client 1 starts on the healthy edge-b, so only client 0 fails over;
    // a server provisioned after the click never serves that round, so
    // client 0's round 2 completes locally (no admit, no release) and its
    // round 3 is edge-b's (30 lines before, 0xf64141d388091f3c).
    ("session_failover", 28, 0x132ed8f06b42fa3d),
    // Client 1 starts on edge-b: round 1 no longer queues behind client 0.
    ("session_fallback", 16, 0x1e6e75beca067c79),
    // The benchmark's modeled fleet at full depth (10 000 clients, up to
    // ~7 000 pending events), recorded at 6523cbd, before the event
    // queue gained its sorted lane. ~0.09 s of the test in the test
    // profile (2-core x86-64).
    ("modeled_megascale", 59300, 0x3403b359f893f6e3),
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
        .arrival(BACK_TO_BACK)
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

/// The text of the log is a contract of its own: eleven fleets — modeled
/// Poisson, diurnal and closed loop; fair share, a batch window and
/// balancing alone and together; real sessions batching, failing over
/// and falling back to the client; the benchmark's 10 000-client
/// fleet — render the lines they always did.
#[test]
fn event_log_lines_are_pinned() {
    let poisson = ArrivalProcess::Poisson { rate_hz: 120.0 };
    let burst = BACK_TO_BACK;
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
        (
            "modeled_megascale",
            modeled_lines(
                modeled(paper_fleet(7), 10_000),
                ArrivalProcess::Poisson { rate_hz: 400.0 },
                Duration::from_secs(30),
                None,
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
    assert!(has(8, "round=2 server=client"), "no handoff round in run 8");
    assert!(has(8, "round=3 server=edge-b"), "no failover in run 8");
    assert!(has(9, "round=2 server=client"), "no fallback in run 9");
}

// ---------------------------------------------------------------------
// 6. Every config field, through both entry points
// ---------------------------------------------------------------------

/// One config field set away from the paper config's value.
struct FieldRow {
    /// The field, as the modeled fleet names it when it refuses it.
    field: &'static str,
    /// Whether the analytic workload prices the field.
    modeled: bool,
    /// Whether real sessions show the field at all: only the choice of
    /// delta capture path does not, by design.
    felt: bool,
    /// A setting under which real sessions feel the field.
    context: fn(&mut SessionConfig),
    /// Sets the field away from its paper value.
    set: Box<dyn Fn(&mut SessionConfig)>,
}

/// `moved` with a check that it differs from `paper`: a row that set a
/// field to its paper value would prove nothing.
fn other<T: PartialEq + std::fmt::Debug>(paper: T, moved: T) -> T {
    assert_ne!(paper, moved, "a row must move its field");
    moved
}

fn plain(_: &mut SessionConfig) {}

fn retrying(cfg: &mut SessionConfig) {
    cfg.retry = Some(RetryPolicy::default());
}

/// The primary's links go down through the model pre-send.
fn link_down() -> FaultPlan {
    FaultPlan::none()
        .down(Duration::ZERO, Duration::from_secs(50))
        .unwrap()
}

/// A primary whose links are down and a healthy second candidate.
fn failing_over(cfg: &mut SessionConfig) {
    cfg.primary_mut().up_faults = link_down();
    cfg.primary_mut().down_faults = link_down();
    cfg.servers.push(tiny_spec("edge-b"));
}

/// Partial inference: the front's feature map goes on the wire as text.
fn partial(cfg: &mut SessionConfig) {
    cfg.cut = Some("1st_pool".to_string());
}

/// A metered server: delta capture charges the heap cells it compares.
fn metered(cfg: &mut SessionConfig) {
    cfg.meter = Some(MeterLimits::default().with_ops(10_000_000));
}

fn row(
    field: &'static str,
    modeled: bool,
    context: fn(&mut SessionConfig),
    set: impl Fn(&mut SessionConfig) + 'static,
) -> FieldRow {
    FieldRow {
        field,
        modeled,
        felt: true,
        context,
        set: Box::new(set),
    }
}

/// One row per field of the four config structs, each destructured
/// without `..`: a field added to any of them does not compile until it
/// is bound here, and an unused binding fails the workspace lints.
fn field_rows() -> Vec<FieldRow> {
    let paper = SessionConfig::paper("agenet");
    let SessionConfig {
        core:
            OffloadConfig {
                model,
                servers,
                client_device,
                exec_mode,
                seed,
                image_bytes,
                snapshot:
                    SnapshotOptions {
                        inline_single_use,
                        incremental,
                    },
                retry,
                predict,
                effects,
                meter,
            },
        cut,
        use_deltas,
    } = paper.clone();
    let ServerSpec {
        name,
        device,
        link,
        up_faults,
        down_faults,
        meter: server_meter,
    } = paper.primary().clone();

    let model = other(model, "tiny_cnn".to_string());
    let extra = other(servers.len(), 2) - 1;
    let client_device = other(client_device, edge_server_x86());
    let exec_mode = other(exec_mode, ExecMode::Synthetic { seed: 1 });
    let seed = other(seed, seed + 1);
    let image_bytes = other(image_bytes, 2 * image_bytes);
    let inline_single_use = other(inline_single_use, !inline_single_use);
    let incremental = other(incremental, !incremental);
    let retry = other(retry, Some(RetryPolicy::default()));
    let predict = other(predict, !predict);
    let effects = other(effects, !effects);
    let meter = other(meter, Some(MeterLimits::default().with_ops(10)));
    let cut = other(cut, Some("1st_pool".to_string()));
    let use_deltas = other(use_deltas, !use_deltas);
    let name = other(name, "edge-x".to_string());
    let device = other(device, odroid_xu4());
    let link = other(link, LinkConfig::mbps(3.0));
    let up_faults = other(up_faults, link_down());
    let down_faults = other(down_faults, link_down());
    let server_meter = other(server_meter, Some(MeterLimits::default().with_ops(10)));

    vec![
        row("model", true, plain, move |c| c.model = model.clone()),
        row("servers", true, plain, move |c| {
            (0..extra).for_each(|_| c.servers.push(tiny_spec("edge-b")))
        }),
        row("client_device", true, plain, move |c| {
            c.client_device = client_device.clone()
        }),
        row("exec_mode", false, partial, move |c| {
            c.exec_mode = exec_mode
        }),
        row("seed", true, plain, move |c| c.seed = seed),
        row("image_bytes", false, plain, move |c| {
            c.image_bytes = image_bytes
        }),
        row("snapshot", false, partial, move |c| {
            c.snapshot.inline_single_use = inline_single_use
        }),
        // The dirty-set delta capture and the reference walk emit the
        // same bytes, and in the paper apps compare the same heap cells,
        // so even a meter cannot tell them apart.
        FieldRow {
            felt: false,
            ..row("snapshot", false, metered, move |c| {
                c.snapshot.incremental = incremental
            })
        },
        row("retry", false, failing_over, move |c| {
            c.retry = retry.clone()
        }),
        // Its row ran under a pre-send corrupted past a short retry
        // budget; there every round of this traffic now completes locally
        // before the gates, so the plan gate is felt where the model got
        // through.
        row("predict", false, plain, move |c| c.predict = predict),
        row("effects", false, metered, move |c| c.effects = effects),
        row("meter", false, plain, move |c| c.meter = meter.clone()),
        row("cut", false, plain, move |c| c.cut = cut.clone()),
        row("use_deltas", false, plain, move |c| {
            c.use_deltas = use_deltas
        }),
        row("name", true, plain, move |c| {
            c.primary_mut().name = name.clone()
        }),
        row("device", true, plain, move |c| {
            c.primary_mut().device = device.clone()
        }),
        row("link", true, plain, move |c| {
            c.primary_mut().link = link.clone()
        }),
        row("edge-server-1's up_faults", false, retrying, move |c| {
            c.primary_mut().up_faults = up_faults.clone()
        }),
        row("edge-server-1's down_faults", false, retrying, move |c| {
            c.primary_mut().down_faults = down_faults.clone()
        }),
        row("edge-server-1's meter", false, plain, move |c| {
            c.primary_mut().meter = server_meter.clone()
        }),
    ]
}

/// Open-loop traffic, whose arrivals the config's seed samples.
fn poisson_traffic<W: Workload>(engine: Engine<W>) -> Engine<W> {
    engine
        .arrival(ArrivalProcess::Poisson { rate_hz: 0.5 })
        .duration(Duration::from_secs(10))
}

/// What a real-session fleet shows of a config: its report, its event
/// log and every client's JSONL trace.
fn session_view(cfg: SessionConfig) -> (FleetReport, Vec<EngineEvent>, Vec<String>) {
    let mut engine = poisson_traffic(sessions(cfg, 2));
    let report = run_checked(&mut engine);
    let traces = (0..2)
        .map(|c| engine.workload().trace(c).unwrap().to_jsonl())
        .collect();
    (report, engine.event_log().to_vec(), traces)
}

/// What a modeled fleet shows of a config: its report and event log, or
/// the refusal.
fn modeled_view(cfg: SessionConfig) -> Result<(FleetReport, Vec<EngineEvent>), OffloadError> {
    let mut engine = poisson_traffic(Engine::modeled(cfg, 2)?);
    let report = run_checked(&mut engine);
    Ok((report, engine.event_log().to_vec()))
}

/// Every config field but the choice of delta capture path moves what
/// real sessions report, log or trace in its row's context; the modeled
/// fleet moves with every field it prices and refuses every other one by
/// name. A field the analytic workload dropped without a word would pass
/// neither way.
#[test]
fn every_config_field_moves_sessions_and_is_modeled_or_refused() {
    let paper = SessionConfig::paper("agenet");
    let modeled_paper = modeled_view(paper.clone()).unwrap();
    for (i, row) in field_rows().into_iter().enumerate() {
        let FieldRow {
            field,
            modeled,
            felt,
            context,
            set,
        } = row;
        let field_row = format!("{field} (row {i})");
        let mut base = paper.clone();
        context(&mut base);
        let mut moved = base.clone();
        set(&mut moved);
        assert_eq!(
            session_view(base) != session_view(moved),
            felt,
            "{field_row}: whether real sessions feel it"
        );

        let mut moved = paper.clone();
        set(&mut moved);
        match modeled_view(moved) {
            Ok(view) if modeled => assert!(
                view != modeled_paper,
                "{field_row}: the modeled fleet did not feel it"
            ),
            Ok(_) => panic!("{field_row}: the modeled fleet ran without it"),
            Err(err) if modeled => panic!("{field_row}: the modeled fleet refused it: {err}"),
            Err(err) => assert_eq!(
                err,
                OffloadError::Config(format!(
                    "the modeled fleet does not model {field}; real sessions do"
                )),
            ),
        }
    }
}

// ---------------------------------------------------------------------
// 7. One placement rule for both fleets
// ---------------------------------------------------------------------

/// A workload that notes `(client, round, target)` of every round its
/// inner workload completes.
struct Targets<W> {
    inner: W,
    seen: Vec<(usize, usize, usize)>,
}

impl<W: Workload> Targets<W> {
    fn note(&mut self, step: Result<EngineStep, OffloadError>) -> Result<EngineStep, OffloadError> {
        if let Ok(EngineStep::Done(outcome)) = &step {
            let RoundOutcome {
                client,
                round,
                target,
                ..
            } = *outcome;
            self.seen.push((client, round, target));
        }
        step
    }
}

impl<W: Workload> Workload for Targets<W> {
    fn clients(&self) -> usize {
        self.inner.clients()
    }

    fn begin_round(
        &mut self,
        client: usize,
        at: Duration,
        seed: u64,
    ) -> Result<EngineStep, OffloadError> {
        let step = self.inner.begin_round(client, at, seed);
        self.note(step)
    }

    fn compute(&mut self, client: usize, admitted_at: Duration) -> Result<Duration, OffloadError> {
        self.inner.compute(client, admitted_at)
    }

    fn continue_round(&mut self, client: usize) -> Result<EngineStep, OffloadError> {
        let step = self.inner.continue_round(client);
        self.note(step)
    }
}

/// `(client, round, target)` of every round `workload` completes in a
/// closed loop of two rounds a client, as `Engine::sessions` and
/// `Engine::modeled` would run it for `cfg`, in client and round order.
fn targets<W: Workload>(workload: W, cfg: &SessionConfig) -> Vec<(usize, usize, usize)> {
    let names = cfg.servers.iter().map(|s| s.name.clone()).collect();
    let inner = Targets {
        inner: workload,
        seen: Vec::new(),
    };
    let mut engine = Engine::with_workload(inner, names)
        .seed(cfg.seed)
        .duration(LONG)
        .max_rounds(2);
    run_checked(&mut engine);
    let mut seen = engine.workload().seen.clone();
    seen.sort_unstable();
    seen
}

/// The two fleets place clients by one rule: for 1, 4 and 12 closed-loop
/// clients on 1–4 uniform servers, and on a fleet whose CPUs differ while
/// three of its four links tie, every round of client `c` in the modeled
/// and the real fleet targets the same server, the `c % ties`-th of the
/// candidates tied on predicted migration time. Sojourns are not
/// compared: a real client's rounds before its pre-send's ACK run
/// locally, which the modeled fleet does not price.
#[test]
fn both_fleets_place_every_client_by_the_one_rule() {
    let uniform = |n: usize| (0..n).map(|i| tiny_spec(&format!("edge-{i}"))).collect();
    let mixed = vec![
        tiny_spec("edge-a"),
        ServerSpec::new("edge-weak", odroid_xu4(), LinkConfig::wifi_30mbps()),
        ServerSpec::new("edge-thin", edge_server_x86(), LinkConfig::mbps(10.0)),
        tiny_spec("edge-d"),
    ];
    let fleets: Vec<(Vec<ServerSpec>, Vec<usize>)> = (1..=4)
        .map(|n| (uniform(n), (0..n).collect()))
        .chain([(mixed, vec![0, 1, 3])])
        .collect();
    let mut wrong = Vec::new();
    for (servers, tied) in &fleets {
        for clients in [1, 4, 12] {
            let cfg = SessionConfig::paper_builder("agenet")
                .servers(servers.clone())
                .build();
            let modeled = targets(ModeledWorkload::new(cfg.clone(), clients).unwrap(), &cfg);
            let real = targets(SessionWorkload::new(cfg.clone(), clients).unwrap(), &cfg);
            assert_eq!(
                modeled.len(),
                2 * clients,
                "every client completes two rounds"
            );
            let by_rule = modeled.iter().all(|&(c, _, t)| t == tied[c % tied.len()]);
            if modeled != real || !by_rule {
                let names: Vec<&str> = servers.iter().map(|s| s.name.as_str()).collect();
                wrong.push(format!("{clients} clients on {names:?}"));
            }
        }
    }
    assert!(wrong.is_empty(), "placement disagrees: {wrong:#?}");
}
