//! Chaos suite: fault injection across scenarios, sessions and handoffs.
//!
//! The contract under test (ISSUE: robustness tentpole):
//!
//! 1. **Correctness is fault-transparent** — the inference result under any
//!    injected fault schedule is identical to the fault-free run (retries
//!    retransmit, and when the retry budget is exhausted the client falls
//!    back to local execution, which computes the same bits).
//! 2. **Degradation is accountable** — for outage and corruption plans the
//!    completion time degrades by exactly the injected stall plus the
//!    recorded backoff (up to `f64 -> Duration` rounding), never by an
//!    unexplained amount.
//! 3. **Everything is reproducible** — the same seed/plan yields the same
//!    timeline, fault for fault (across seeded chaos plans, with every
//!    other switch, in `tests/combinations.rs`).

use snapedge_core::prelude::*;
use snapedge_integration::{attempts, count_kind, secs, snapshot_up_window, uplink_transfers};
use snapedge_net::NetError;
use std::time::Duration;

/// Exact up to the rounding of piecewise f64 serialization arithmetic.
fn assert_approx(actual: Duration, expected: Duration, what: &str) {
    let delta = (actual.as_secs_f64() - expected.as_secs_f64()).abs();
    assert!(
        delta < 1e-6,
        "{what}: expected {expected:?}, got {actual:?} (off by {delta:.3e}s)"
    );
}

/// When the run gave up on offloading (its one `fallback_local` marker).
fn fallback_instant(trace: &Trace) -> Duration {
    trace
        .events()
        .iter()
        .find(|e| e.kind == EventKind::Fallback)
        .expect("the run fell back")
        .start
}

fn clean_run() -> ScenarioReport {
    run_scenario(&ScenarioConfig::tiny(Strategy::OffloadAfterAck)).unwrap()
}

// --- Scenario-level chaos -------------------------------------------------

#[test]
fn mid_transfer_outage_costs_exactly_the_stall() {
    let clean = clean_run();
    let (s, _) = snapshot_up_window(&clean.trace);
    // The link dies while the snapshot is on the wire (0.2 ms into
    // serialization, well before the propagation tail): serialization
    // stalls for the window and resumes. No retransmit is needed.
    let hit = s + secs(0.0002);
    let plan = FaultPlan::none().down(hit, hit + secs(0.05)).unwrap();
    let faulty = run_scenario(&ScenarioConfig::tiny_builder().up_faults(plan).build()).unwrap();
    assert_eq!(
        faulty.result, clean.result,
        "result must be fault-transparent"
    );
    assert!(!faulty.fell_back);
    assert_eq!(faulty.retry_count(), 0, "a stall is not a retransmit");
    assert_approx(faulty.fault_time(), secs(0.05), "recorded stall");
    assert_approx(
        faulty.total,
        clean.total + faulty.fault_time() + faulty.backoff_time(),
        "total = clean + stall + backoff",
    );
}

#[test]
fn refused_transfer_retries_exactly_at_the_window_edge() {
    let clean = clean_run();
    let (s, _) = snapshot_up_window(&clean.trace);
    // The link is already down when the upload is attempted: the attempt
    // is refused instantly and the retry waits out the known outage. With
    // a 1 ms backoff base the retry lands exactly on the window edge.
    let window_end = s + secs(0.02);
    let plan = FaultPlan::none().down(s - secs(0.001), window_end).unwrap();
    let faulty = run_scenario(
        &ScenarioConfig::tiny_builder()
            .up_faults(plan)
            .retry(RetryPolicy {
                backoff_base: secs(0.001),
                ..RetryPolicy::default()
            })
            .build(),
    )
    .unwrap();
    assert_eq!(faulty.result, clean.result);
    assert_eq!(faulty.retry_count(), 1);
    assert_approx(
        faulty.backoff_time(),
        secs(0.02),
        "wait = refusal to window edge",
    );
    assert_approx(faulty.fault_time(), Duration::ZERO, "refusals are instant");
    assert_approx(
        faulty.total,
        clean.total + faulty.backoff_time(),
        "total = clean + backoff",
    );
}

#[test]
fn corrupted_snapshot_is_retransmitted_and_accounted() {
    let clean = clean_run();
    let (s, f) = snapshot_up_window(&clean.trace);
    // The whole first upload lands inside a corrupt window: the payload
    // arrives unusable, the wasted wire time is recorded as fault time,
    // and the retransmit (after backoff) carries the same bytes again.
    let plan = FaultPlan::none()
        .corrupt(s - secs(0.001), f + secs(0.001))
        .unwrap();
    let faulty = run_scenario(
        &ScenarioConfig::tiny_builder()
            .up_faults(plan)
            .retry(RetryPolicy::default())
            .build(),
    )
    .unwrap();
    assert_eq!(faulty.result, clean.result);
    assert_eq!(faulty.retry_count(), 1);
    assert_approx(
        faulty.fault_time(),
        f - s,
        "wasted wire time of the bad copy",
    );
    assert_approx(
        faulty.total,
        clean.total + faulty.fault_time() + faulty.backoff_time(),
        "total = clean + wasted copy + backoff",
    );
}

#[test]
fn degraded_windows_slow_the_run_but_never_change_the_result() {
    let clean = clean_run();
    let (s, _) = snapshot_up_window(&clean.trace);
    let plan = FaultPlan::none().degraded(s, s + secs(10.0), 0.25).unwrap();
    let cfg = ScenarioConfig::tiny_builder().up_faults(plan).build();
    let faulty = run_scenario(&cfg).unwrap();
    assert_eq!(faulty.result, clean.result);
    assert!(faulty.total > clean.total, "a degraded link must cost time");
    assert_eq!(faulty.retry_count(), 0, "degradation needs no retransmit");
    assert!(
        faulty.fault_time() > Duration::ZERO,
        "degradation is visible in the trace"
    );
    // Deterministic: the same plan replays to the same nanosecond.
    let replay = run_scenario(&cfg).unwrap();
    assert_eq!(replay.total, faulty.total);
}

#[test]
fn retry_budget_exhaustion_falls_back_to_local_execution() {
    let clean = clean_run();
    // The edge is unreachable for an hour; the budget gives up quickly.
    let plan = FaultPlan::none()
        .down(Duration::ZERO, secs(3600.0))
        .unwrap();
    let faulty = run_scenario(
        &ScenarioConfig::tiny_builder()
            .up_faults(plan)
            .retry(RetryPolicy {
                max_attempts: 2,
                deadline: secs(5.0),
                ..RetryPolicy::default()
            })
            .build(),
    )
    .unwrap();
    assert!(faulty.fell_back);
    assert_eq!(
        faulty.result, clean.result,
        "local fallback computes the same bits"
    );
    assert_eq!(faulty.snapshot_up_bytes, 0, "nothing was migrated");
    assert_eq!(count_kind(&faulty.trace, EventKind::Fallback), 1);
}

/// What the give-up path owes the "degradation is accountable"
/// invariant: the run sat through every corrupted copy and every backoff
/// before it could know the upload had failed, so the fallback starts
/// after the last of them and the total covers them.
fn assert_give_up_is_accounted(trace: &Trace, total: Duration, who: &str) {
    let wasted = trace.duration_of_kind(EventKind::Fault, None)
        + trace.duration_of_kind(EventKind::Backoff, None);
    assert!(wasted > secs(0.3), "{who}: the plan must cost real time");
    assert!(
        total >= wasted,
        "{who}: total {total:?} < fault + backoff {wasted:?}"
    );
    let last_corrupt_end = trace
        .events()
        .iter()
        .filter(|e| e.name == "uplink_corrupt")
        .map(|e| e.end)
        .max()
        .expect("corrupted copies are recorded");
    let fallback = fallback_instant(trace);
    assert!(
        fallback >= last_corrupt_end,
        "{who}: fell back at {fallback:?}, before the last corrupted copy ended at {last_corrupt_end:?}"
    );
}

/// Every copy of the snapshot upload arrives corrupted: three attempts,
/// 100 + 200 ms of backoff between them, then the budget is gone.
fn corrupt_every_upload() -> (FaultPlan, RetryPolicy) {
    let (s, _) = snapshot_up_window(&clean_run().trace);
    let plan = FaultPlan::none()
        .corrupt(s - secs(0.001), s + secs(100.0))
        .unwrap();
    (plan, attempts(3))
}

#[test]
fn scenario_giving_up_on_corrupted_uploads_advances_the_clock_past_them() {
    let (plan, policy) = corrupt_every_upload();
    let faulty = run_scenario(
        &ScenarioConfig::tiny_builder()
            .up_faults(plan)
            .retry(policy)
            .build(),
    )
    .unwrap();
    assert!(faulty.fell_back);
    assert_eq!(faulty.result, clean_run().result);
    assert_give_up_is_accounted(&faulty.trace, faulty.total, "scenario");
}

#[test]
fn session_giving_up_on_corrupted_uploads_advances_the_clock_past_them() {
    let (plan, policy) = corrupt_every_upload();
    let mut session = OffloadSession::new(
        SessionConfig::tiny_builder()
            .up_faults(plan)
            .retry(policy)
            .build(),
    )
    .unwrap();
    let round = session.infer(1).unwrap();
    assert!(round.fell_back);
    assert_give_up_is_accounted(&session.trace(), round.total, "session");
}

#[test]
fn instantly_refused_uploads_give_up_without_moving_the_clock() {
    let clean = clean_run();
    let (s, _) = snapshot_up_window(&clean.trace);
    // The link is down for an hour: every attempt is refused on the spot
    // and the next retry would overrun the deadline, so giving up costs
    // no time at all — the fallback starts where the upload would have.
    let plan = FaultPlan::none()
        .down(s - secs(0.001), s + secs(3600.0))
        .unwrap();
    let faulty = run_scenario(
        &ScenarioConfig::tiny_builder()
            .up_faults(plan)
            .retry(RetryPolicy::default())
            .build(),
    )
    .unwrap();
    assert!(faulty.fell_back);
    assert_eq!(
        fallback_instant(&faulty.trace),
        s,
        "an instant refusal must not move"
    );
}

#[test]
fn without_a_retry_policy_plan_outages_still_fail_fast() {
    // The pre-PR contract: no policy means the first transient network
    // fault surfaces as an error instead of being retried.
    let clean = clean_run();
    let (s, f) = snapshot_up_window(&clean.trace);
    let plan = FaultPlan::none().down(s - secs(0.001), f).unwrap();
    let err = run_scenario(&ScenarioConfig::tiny_builder().up_faults(plan).build()).unwrap_err();
    assert!(
        matches!(err, OffloadError::Net(NetError::LinkDown)),
        "{err:?}"
    );
}

// --- Session-level chaos (multi-round, deltas, handoff) -------------------

fn session_cfg() -> SessionBuilder {
    SessionConfig::tiny_builder()
}

/// A fault-free probe session: returns the per-round reports and the
/// chronological uplink transfers, so tests can aim windows at exact
/// virtual instants.
fn probe_rounds(n: u64) -> (Vec<RoundReport>, Vec<(Duration, Duration, u64)>) {
    let mut session = OffloadSession::new(session_cfg().build()).unwrap();
    let reports: Vec<RoundReport> = (1..=n).map(|i| session.infer(i).unwrap()).collect();
    let transfers = uplink_transfers(&session.trace());
    (reports, transfers)
}

#[test]
fn session_retries_a_refused_delta_and_still_ships_it_as_a_delta() {
    let (probe, transfers) = probe_rounds(2);
    // transfers: model pre-send, round-1 full snapshot, round-2 delta.
    assert_eq!(transfers.len(), 3);
    let (u2, _, _) = transfers[2];
    let plan = FaultPlan::none()
        .down(u2 - secs(0.001), u2 + secs(0.001))
        .unwrap();
    let mut session = OffloadSession::new(
        session_cfg()
            .up_faults(plan)
            .retry(RetryPolicy::default())
            .build(),
    )
    .unwrap();
    let r1 = session.infer(1).unwrap();
    let r2 = session.infer(2).unwrap();
    assert_eq!(r1.result, probe[0].result);
    assert_eq!(r2.result, probe[1].result);
    assert!(r2.delta_up, "the retried payload is still the delta");
    assert!(!r2.fell_back);
    let trace = session.trace();
    assert!(
        trace.events().iter().any(|e| e.kind == EventKind::Retry),
        "the retry must be visible in the trace"
    );
}

#[test]
fn failed_delta_forces_a_full_snapshot_resend_in_the_same_round() {
    let (probe, transfers) = probe_rounds(3);
    let (u2, _, _) = transfers[2];
    // A one-attempt budget and a 2 ms outage around the delta upload: the
    // delta gives up, the agreement is dropped, and the full-snapshot
    // re-capture (which takes real time) ships after the window closes —
    // the round still completes, as a full migration.
    let plan = FaultPlan::none()
        .down(u2 - secs(0.001), u2 + secs(0.001))
        .unwrap();
    let mut session =
        OffloadSession::new(session_cfg().up_faults(plan).retry(attempts(1)).build()).unwrap();
    let rounds: Vec<RoundReport> = (1..=3).map(|i| session.infer(i).unwrap()).collect();
    for (r, p) in rounds.iter().zip(&probe) {
        assert_eq!(r.result, p.result, "round {} result drifted", r.round);
    }
    assert!(probe[1].delta_up, "the probe's round 2 went up as a delta");
    assert!(!rounds[1].fell_back, "the full re-send rescued the round");
    assert!(!rounds[1].delta_up, "stale base forces a full re-send");
    assert!(
        rounds[1].up_bytes > probe[1].up_bytes,
        "full snapshot > delta"
    );
    assert!(rounds[2].delta_up, "agreement re-established next round");
}

#[test]
fn session_falls_back_locally_while_the_edge_stays_unreachable() {
    let (probe, transfers) = probe_rounds(3);
    let (u2, _, _) = transfers[2];
    // The link dies just before round 2's upload and never comes back:
    // the delta gives up, the full re-send gives up, and every remaining
    // round completes locally with the correct result.
    let plan = FaultPlan::none()
        .down(u2 - secs(0.001), u2 + secs(3600.0))
        .unwrap();
    let mut session =
        OffloadSession::new(session_cfg().up_faults(plan).retry(attempts(1)).build()).unwrap();
    let rounds: Vec<RoundReport> = (1..=3).map(|i| session.infer(i).unwrap()).collect();
    for (r, p) in rounds.iter().zip(&probe) {
        assert_eq!(r.result, p.result, "round {} result drifted", r.round);
    }
    assert!(!rounds[0].fell_back);
    assert!(rounds[1].fell_back, "round 2 must complete locally");
    assert!(rounds[2].fell_back, "round 3 must complete locally");
    assert_eq!(rounds[1].up_bytes, 0);
    assert_eq!(count_kind(&session.trace(), EventKind::Fallback), 2);
}

// --- Handoff under faults (satellite: handoff error paths) ----------------

/// Virtual time at which a probe session hands off after `n` rounds.
fn handoff_instant(n: u64) -> Duration {
    let mut session = OffloadSession::new(session_cfg().build()).unwrap();
    for i in 1..=n {
        session.infer(i).unwrap();
    }
    session.now()
}

#[test]
fn handoff_to_an_unreachable_server_is_a_net_error() {
    let t1 = handoff_instant(1);
    let plan = FaultPlan::none().down(t1, t1 + secs(3600.0)).unwrap();
    let mut session = OffloadSession::new(session_cfg().up_faults(plan).build()).unwrap();
    session.infer(1).unwrap();
    // No retry policy: the refused pre-send surfaces immediately.
    let err = session.handoff().unwrap_err();
    assert!(
        matches!(err, OffloadError::Net(NetError::LinkDown)),
        "{err:?}"
    );
}

#[test]
fn handoff_retries_through_an_outage_then_resends_a_full_snapshot() {
    let (probe, _) = probe_rounds(1);
    let t1 = handoff_instant(1);
    let plan = FaultPlan::none().down(t1, t1 + secs(0.2)).unwrap();
    let mut session = OffloadSession::new(
        session_cfg()
            .up_faults(plan)
            .retry(RetryPolicy::default())
            .build(),
    )
    .unwrap();
    let r1 = session.infer(1).unwrap();
    assert_eq!(r1.result, probe[0].result);
    session.handoff().unwrap();
    assert!(
        session.ack_at() >= Some(t1 + secs(0.2)),
        "pre-send waited out the outage"
    );
    let r2 = session.infer(2).unwrap();
    assert!(!r2.delta_up, "a new server has no base: full snapshot");
    assert!(!r2.fell_back);
    let r3 = session.infer(3).unwrap();
    assert!(r3.delta_up, "deltas resume once the new server has a base");
}

#[test]
fn handoff_to_a_degraded_server_costs_time_but_still_works() {
    let t1 = handoff_instant(1);
    // Clean reference: ACK time of a fault-free handoff.
    let mut clean = OffloadSession::new(session_cfg().build()).unwrap();
    clean.infer(1).unwrap();
    clean.handoff().unwrap();
    let clean_ack = clean.ack_at().expect("the clean handoff is acknowledged");
    let clean_r2 = clean.infer(2).unwrap();

    let plan = FaultPlan::none()
        .degraded(t1, t1 + secs(10.0), 0.25)
        .unwrap();
    let mut session = OffloadSession::new(session_cfg().up_faults(plan).build()).unwrap();
    session.infer(1).unwrap();
    session.handoff().unwrap();
    assert!(
        session.ack_at() > Some(clean_ack),
        "the degraded pre-send is slower"
    );
    let r2 = session.infer(2).unwrap();
    assert_eq!(r2.result, clean_r2.result);
    assert!(!r2.fell_back);
}
