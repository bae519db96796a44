//! Queue-aware balancing suite (ISSUE: load-blind selection bugfix).
//!
//! The contract under test:
//!
//! 1. **Balance off is bit-identical** — with every balancing knob at
//!    its default, session engine runs across a chaos fault seed matrix
//!    replay byte for byte (report, event schedule, JSONL traces), and
//!    none of the new trace vocabulary appears. Balancing is purely
//!    additive.
//! 2. **Balancing beats rotation under contention** — a skewed 3-server
//!    fleet under Poisson load completes with a strictly lower p99
//!    sojourn when modeled clients pick the least-predicted-sojourn
//!    server instead of rotating blindly over a slow candidate.
//! 3. **Admission control sheds load** — overloaded real sessions with
//!    balancing on degrade at least one round to local *proactively*
//!    (the queue prior erased the offload win before any bytes shipped),
//!    and the reject is attributed to the target server in the report.
//! 4. **Fair share and batching** — deficit-round-robin grants plus an
//!    opportunistic batch window form real batches, trace them
//!    (`admit_deferred`/`batch_formed` survive a JSONL round trip), and
//!    the report's Jain fairness index stays meaningful.
//! 5. **Degenerate runs read as neutral** — a zero-horizon run reports
//!    zero utilization/throughput and perfect fairness instead of NaN.

use snapedge_core::prelude::*;
use snapedge_integration::run_checked;
use std::time::Duration;

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

fn tiny_spec(name: &str) -> ServerSpec {
    ServerSpec::new(name, edge_server_x86(), LinkConfig::wifi_30mbps())
}

/// A long-enough horizon that round caps, not the traffic horizon, end
/// every closed-loop test run.
const LONG: Duration = Duration::from_secs(100_000);

fn kind_count(trace: &Trace, kind: EventKind) -> usize {
    trace.events().iter().filter(|e| e.kind == kind).count()
}

// ---------------------------------------------------------------------
// 1. Balance off: bit-identical across the chaos seed matrix
// ---------------------------------------------------------------------

/// With balancing, fair share and batching all at their defaults, two
/// session engine runs over every chaos seed produce identical reports,
/// event schedules and byte-identical JSONL traces — and the new
/// balance/defer/batch vocabulary never appears in any trace.
#[test]
fn balance_off_replays_bit_for_bit_across_chaos_seeds() {
    const CLIENTS: usize = 3;
    for seed in [1u64, 2, 3, 5, 8] {
        let run = || {
            let cfg = SessionConfig::tiny_builder()
                .add_server(tiny_spec("edge-b"))
                .faults(FaultPlan::chaos(seed, secs(1.0)))
                .retry(RetryPolicy::default())
                .seed(seed)
                .build();
            // Belt and braces: the explicit-off spelling is the default.
            let mut engine = Engine::sessions(cfg, CLIENTS)
                .unwrap()
                .balance(false)
                .fair_share(false)
                .arrival(ArrivalProcess::ClosedLoop {
                    think: Duration::from_millis(250),
                })
                .duration(LONG)
                .max_rounds(3);
            let report = run_checked(&mut engine);
            let log = engine.event_log().to_vec();
            let traces: Vec<String> = (0..CLIENTS)
                .map(|c| engine.workload().trace(c).unwrap().to_jsonl())
                .collect();
            (report, log, traces)
        };
        let (report_a, log_a, traces_a) = run();
        let (report_b, log_b, traces_b) = run();
        assert_eq!(report_a, report_b, "seed {seed}: report diverged");
        assert_eq!(log_a, log_b, "seed {seed}: event schedule diverged");
        assert_eq!(traces_a, traces_b, "seed {seed}: traces diverged");
        // Off means *off*: the legacy admit lines and zero new events.
        assert!(
            log_a
                .iter()
                .any(|e| matches!(e.kind, EngineEventKind::Admit { start: Some(_), .. })),
            "seed {seed}: legacy admit lines missing"
        );
        assert!(
            !log_a
                .iter()
                .any(|e| matches!(e.kind, EngineEventKind::Admit { start: None, .. })),
            "seed {seed}: deferred grants leaked into an off run"
        );
        for jsonl in &traces_a {
            for needle in ["\"kind\":\"gate\"", "admit_deferred", "batch_formed"] {
                assert!(
                    !jsonl.contains(needle),
                    "seed {seed}: {needle} leaked into an off trace"
                );
            }
        }
        // Per-server balance counters stay neutral when off.
        for server in &report_a.servers {
            assert_eq!(server.rejects, 0, "seed {seed}");
            assert_eq!(server.batches, 0, "seed {seed}");
        }
        assert_eq!(report_a.max_batch, 0, "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// 2. Balancing beats rotation under contention
// ---------------------------------------------------------------------

/// The acceptance run: a 3-server fleet with one slow candidate (weak
/// device behind a thin link), 1 000 open-loop clients. Static rotation
/// routes every third round through the slow server and its queue
/// explodes; least-predicted-sojourn selection prices that queue and
/// sends the slow server only the trickle it can absorb, so the
/// balanced p99 sojourn is strictly lower and the slow server carries
/// strictly fewer rounds.
#[test]
fn balancing_beats_rotation_on_a_skewed_fleet() {
    let run = |balance: bool| {
        let cfg = SessionConfig::paper_builder("agenet")
            .add_server(tiny_spec("edge-b"))
            .add_server(ServerSpec::new(
                "edge-slow",
                odroid_xu4(),
                LinkConfig::mbps(3.0),
            ))
            .build();
        let mut engine = Engine::modeled(cfg, 1_000)
            .unwrap()
            .balance(balance)
            .arrival(ArrivalProcess::Poisson { rate_hz: 10.0 })
            .duration(Duration::from_secs(30));
        let report = run_checked(&mut engine);
        assert_eq!(report.servers.len(), 3);
        report
    };
    let rotation = run(false);
    let balanced = run(true);
    // Both regimes complete the same traffic (same seed, same arrivals).
    assert!(rotation.completed > 100, "got {}", rotation.completed);
    assert_eq!(rotation.completed, balanced.completed);
    assert!(
        balanced.latency.p99 < rotation.latency.p99,
        "balanced p99 {:?} must beat rotation p99 {:?}",
        balanced.latency.p99,
        rotation.latency.p99
    );
    assert!(
        balanced.servers[2].rounds < rotation.servers[2].rounds,
        "the slow server must shed load: balanced {} vs rotation {}",
        balanced.servers[2].rounds,
        rotation.servers[2].rounds
    );
    // Balanced runs replay deterministically too.
    assert_eq!(run(true), balanced);
}

// ---------------------------------------------------------------------
// 3. Admission control sheds load
// ---------------------------------------------------------------------

/// Overload one tiny server with synchronized zero-think clients: with
/// balancing on, the predicted queueing delay must erase the offload win
/// for at least one round, which completes locally *proactively* (no
/// retries burned, no bytes shipped) and is charged to the target server
/// as an admission reject.
#[test]
fn admission_control_degrades_overloaded_rounds_to_local() {
    let clients = 12;
    let mut engine = Engine::sessions(SessionConfig::tiny(), clients)
        .unwrap()
        .balance(true)
        .arrival(ArrivalProcess::ClosedLoop {
            think: Duration::ZERO,
        })
        .duration(LONG)
        .max_rounds(4);
    let report = run_checked(&mut engine);
    assert_eq!(report.completed, clients * 4);

    let proactive = engine
        .workload()
        .reports()
        .iter()
        .filter(|r| r.proactive)
        .count();
    assert!(
        proactive > 0,
        "12 synchronized clients on one tiny CPU must trip the admission gate"
    );
    let rejects: usize = report.servers.iter().map(|s| s.rejects).sum();
    assert_eq!(rejects, proactive, "every proactive degrade is attributed");
    // Proactive degrades never burn the reactive fallback path.
    assert!(report.fallbacks + proactive <= report.completed);

    // Balancing alone (prediction is off) still consults the plan gate:
    // every round logged one verdict, a `local` one per proactive round,
    // and the vocabulary survives a JSONL round trip.
    let (mut plan_events, mut local_events) = (0, 0);
    for client in 0..clients {
        let trace = engine.workload().trace(client).unwrap();
        assert_eq!(kind_count(&trace, EventKind::Gate), 4, "client {client}");
        for event in trace.events().iter().filter(|e| e.kind == EventKind::Gate) {
            plan_events += usize::from(event.name.starts_with("gate:plan:"));
            local_events += usize::from(event.name.starts_with("gate:plan:local:"));
        }
        let jsonl = trace.to_jsonl();
        let back = Trace::from_jsonl(&jsonl).unwrap();
        assert_eq!(back.events(), trace.events());
    }
    assert_eq!(plan_events, report.completed, "one plan verdict per round");
    assert_eq!(
        local_events, proactive,
        "every proactive round names its gate"
    );
}

// ---------------------------------------------------------------------
// 4. Fair share + opportunistic batching
// ---------------------------------------------------------------------

/// Deficit-round-robin grants with a batch window: co-queued admissions
/// behind the busy CPU form real batches (traced as `admit_deferred` /
/// `batch_formed`, surviving JSONL), and the report's fairness index
/// stays in its bracket with every client completing its rounds.
#[test]
fn fair_share_batches_co_queued_grants_and_reports_fairness() {
    let clients = 6;
    let mut engine = Engine::sessions(SessionConfig::tiny(), clients)
        .unwrap()
        .fair_share(true)
        .batch_window(Duration::from_millis(50))
        .arrival(ArrivalProcess::ClosedLoop {
            think: Duration::ZERO,
        })
        .duration(LONG)
        .max_rounds(3);
    let report = run_checked(&mut engine);
    assert_eq!(report.completed, clients * 3);

    let batches: usize = report.servers.iter().map(|s| s.batches).sum();
    assert!(
        batches > 0,
        "synchronized clients must co-queue into batches"
    );
    assert!(report.max_batch >= 2, "got max_batch {}", report.max_batch);
    let admits: usize = report.servers.iter().map(|s| s.admits).sum();
    assert!(admits >= report.completed - report.fallbacks);

    // Closed-loop equals: every client finishes its 3 rounds, so the
    // fairness index is exactly 1; the index is always in (0, 1].
    assert!(report.fairness > 0.0 && report.fairness <= 1.0);
    assert!((report.fairness - 1.0).abs() < 1e-12, "{}", report.fairness);

    let mut deferred = 0;
    let mut batched = 0;
    for client in 0..clients {
        let trace = engine.workload().trace(client).unwrap();
        deferred += kind_count(&trace, EventKind::AdmitDeferred);
        batched += kind_count(&trace, EventKind::BatchFormed);
        let jsonl = trace.to_jsonl();
        let back = Trace::from_jsonl(&jsonl).unwrap();
        assert_eq!(back.events(), trace.events());
        assert_eq!(back.to_jsonl(), jsonl);
    }
    assert!(deferred > 0, "parked admissions must be traced");
    assert!(batched >= 2, "each batch member records batch_formed");

    // The deferred path is deterministic, like everything else.
    let rerun = {
        let mut engine = Engine::sessions(SessionConfig::tiny(), clients)
            .unwrap()
            .fair_share(true)
            .batch_window(Duration::from_millis(50))
            .arrival(ArrivalProcess::ClosedLoop {
                think: Duration::ZERO,
            })
            .duration(LONG)
            .max_rounds(3);
        run_checked(&mut engine)
    };
    assert_eq!(rerun, report);
}

/// Fair share without a batch window still defers grants (DRR ordering)
/// but never forms a batch: the two knobs are independent.
#[test]
fn fair_share_alone_never_batches() {
    let mut engine = Engine::sessions(SessionConfig::tiny(), 4)
        .unwrap()
        .fair_share(true)
        .arrival(ArrivalProcess::ClosedLoop {
            think: Duration::ZERO,
        })
        .duration(LONG)
        .max_rounds(2);
    let report = run_checked(&mut engine);
    assert_eq!(report.completed, 8);
    assert_eq!(report.max_batch, 0);
    assert!(report.servers.iter().all(|s| s.batches == 0));
}

// ---------------------------------------------------------------------
// 5. Degenerate runs
// ---------------------------------------------------------------------

/// A zero-horizon open-loop run completes nothing: utilization and
/// throughput read zero (no division by a zero makespan) and fairness
/// reads perfectly fair, not NaN.
#[test]
fn zero_horizon_run_reports_neutral_statistics() {
    let cfg = SessionConfig::paper_builder("agenet").build();
    let mut engine = Engine::modeled(cfg, 5)
        .unwrap()
        .arrival(ArrivalProcess::Poisson { rate_hz: 10.0 })
        .duration(Duration::ZERO);
    let report = run_checked(&mut engine);
    assert_eq!(report.completed, 0);
    assert_eq!(report.throughput_rps, 0.0);
    assert_eq!(report.fairness, 1.0);
    assert_eq!(report.max_batch, 0);
    for server in &report.servers {
        assert_eq!(server.utilization, 0.0);
        assert_eq!(server.busy, Duration::ZERO);
    }
    // The latency/queue summaries are explicit zeros, not garbage.
    assert_eq!(report.latency.p99, Duration::ZERO);
    assert_eq!(report.queue_wait.p99, Duration::ZERO);
}
