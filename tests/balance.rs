//! Queue-aware balancing suite (ISSUE: load-blind selection bugfix).
//!
//! The contract under test:
//!
//! 1. **Balance off is bit-identical** — with every balancing knob at
//!    its default, session fleets replay byte for byte and none of the
//!    new trace vocabulary appears: `tests/combinations.rs` checks it
//!    across the chaos matrix (its oracle 7).
//! 2. **Balancing beats unbalanced placement under contention** — on a
//!    3-server fleet whose best link leads to the weakest CPU, unbalanced
//!    placement (predicted migration time alone) puts every modeled
//!    client on that server; placing by predicted sojourn moves clients
//!    off it and completes the same Poisson load with a strictly lower
//!    p99 sojourn.
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
use snapedge_integration::{count_kind, run_checked, tiny_spec, BACK_TO_BACK, LONG};
use std::time::Duration;

// ---------------------------------------------------------------------
// 2. Balancing beats unbalanced placement under contention
// ---------------------------------------------------------------------

/// The acceptance run: two x86 servers behind 30 Mbps links and the
/// weak `odroid_xu4` behind a 100 Mbps one, 1 000 open-loop clients.
/// Unbalanced placement ranks by predicted migration time alone, so
/// every client takes the fast link and the weak CPU's queue explodes;
/// placing by predicted sojourn prices that queue and moves clients to
/// the x86 servers, so the balanced p99 sojourn is strictly lower.
#[test]
fn balancing_beats_unbalanced_placement_on_a_skewed_fleet() {
    let run = |balance: bool| {
        let cfg = SessionConfig::paper_builder("agenet")
            .servers(vec![
                tiny_spec("edge-a"),
                tiny_spec("edge-b"),
                ServerSpec::new("edge-near", odroid_xu4(), LinkConfig::mbps(100.0)),
            ])
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
    let unbalanced = run(false);
    let balanced = run(true);
    // Both regimes complete the same traffic (same seed, same arrivals).
    assert!(unbalanced.completed > 100, "got {}", unbalanced.completed);
    assert_eq!(unbalanced.completed, balanced.completed);
    let near = |report: &FleetReport| report.servers[2].rounds;
    assert_eq!(
        near(&unbalanced),
        unbalanced.completed,
        "unbalanced placement must put every client on the link-best server"
    );
    assert!(
        near(&balanced) < near(&unbalanced),
        "balanced placement must move clients off the weak CPU: {} rounds stayed",
        near(&balanced)
    );
    assert!(
        balanced.latency.p99 < unbalanced.latency.p99,
        "balanced p99 {:?} must beat unbalanced p99 {:?}",
        balanced.latency.p99,
        unbalanced.latency.p99
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
        .arrival(BACK_TO_BACK)
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
        assert_eq!(count_kind(&trace, EventKind::Gate), 4, "client {client}");
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
        .arrival(BACK_TO_BACK)
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
        deferred += count_kind(&trace, EventKind::AdmitDeferred);
        batched += count_kind(&trace, EventKind::BatchFormed);
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
            .arrival(BACK_TO_BACK)
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
        .arrival(BACK_TO_BACK)
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
