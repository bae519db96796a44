//! Edge-fleet failover suite (ISSUE: fleet tentpole).
//!
//! The contract under test:
//!
//! 1. **Failover is automatic and result-transparent** — when the retry
//!    budget against the serving edge server exhausts, the session hands
//!    off to the next-best candidate (re-pre-send, full-snapshot resend)
//!    and the inference results stay bit-identical to the fault-free run,
//!    with `fell_back` false as long as any candidate is reachable.
//! 2. **Handoffs are observable** — every switch is marked with
//!    `server_select:*` / `handoff:*->*` events in the trace, and reports
//!    name the endpoint that served each inference.
//! 3. **A fleet of one is the old single-server path, bit for bit** —
//!    same rounds, same virtual times, same trace, across the chaos seed
//!    matrix.

use snapedge_core::prelude::*;
use std::time::Duration;

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

fn tiny_spec(name: &str) -> ServerSpec {
    ServerSpec::new(name, edge_server_x86(), LinkConfig::wifi_30mbps())
}

/// Chronological starts of the primary uplink's wire transfers.
fn uplink_transfer_starts(trace: &Trace) -> Vec<Duration> {
    let mut v: Vec<_> = trace
        .events()
        .iter()
        .filter(|e| e.name == "uplink" && e.kind == EventKind::Transfer)
        .map(|e| e.start)
        .collect();
    v.sort();
    v
}

fn names_of_kind(trace: &Trace, kind: EventKind) -> Vec<String> {
    trace
        .events()
        .iter()
        .filter(|e| e.kind == kind)
        .map(|e| e.name.clone())
        .collect()
}

/// The acceptance scenario from the ISSUE: a 3-server fleet whose primary
/// goes down mid-run. The session must hand off automatically (visible
/// `ServerSelect`/`Handoff` events), every inference must stay
/// bit-identical to the fault-free run, and nothing may fall back local.
#[test]
fn session_hands_off_automatically_when_the_primary_dies_mid_run() {
    // Fault-free single-server probe: reference results and the virtual
    // instant of round 2's delta upload.
    let mut probe = OffloadSession::new(SessionConfig::tiny_builder().build()).unwrap();
    let probe_rounds: Vec<RoundReport> = (1..=3).map(|i| probe.infer(i).unwrap()).collect();
    let starts = uplink_transfer_starts(&probe.trace());
    // Transfers: model pre-send, round-1 full snapshot, round-2 delta.
    assert!(starts.len() >= 3);
    let u2 = starts[2];

    // The primary dies just before round 2's upload and never recovers.
    let outage = FaultPlan::none()
        .down(u2 - secs(0.001), u2 + secs(3600.0))
        .unwrap();
    let mut session = OffloadSession::new(
        SessionConfig::tiny_builder()
            .servers(vec![
                tiny_spec("edge-a").with_faults(outage),
                tiny_spec("edge-b"),
                tiny_spec("edge-c"),
            ])
            .retry(RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            })
            .build(),
    )
    .unwrap();
    let rounds: Vec<RoundReport> = (1..=3).map(|i| session.infer(i).unwrap()).collect();

    for (r, p) in rounds.iter().zip(&probe_rounds) {
        assert_eq!(r.result, p.result, "round {} result drifted", r.round);
        assert!(!r.fell_back, "round {} must not fall back", r.round);
    }
    assert_eq!(rounds[0].server, "edge-a");
    assert_eq!(rounds[1].server, "edge-b", "round 2 was served by failover");
    assert_eq!(
        rounds[2].server, "edge-b",
        "the fleet sticks with a healthy server"
    );

    let trace = session.trace();
    assert_eq!(
        names_of_kind(&trace, EventKind::Handoff),
        vec!["handoff:edge-a->edge-b".to_string()]
    );
    assert!(
        names_of_kind(&trace, EventKind::ServerSelect)
            .contains(&"server_select:edge-b".to_string()),
        "the selection must be visible in the trace"
    );
    // The new server has no delta base: full snapshot, then deltas resume.
    assert!(
        !rounds[1].delta_up,
        "handoff forces a full snapshot re-send"
    );
    assert!(rounds[2].delta_up, "deltas resume once edge-b has a base");
}

#[test]
fn scenario_fails_over_during_presend_and_reports_the_serving_server() {
    let clean = run_scenario(&ScenarioConfig::tiny(Strategy::OffloadAfterAck)).unwrap();
    let dead = FaultPlan::none()
        .down(Duration::ZERO, secs(3600.0))
        .unwrap();
    let report = run_scenario(
        &ScenarioConfig::tiny_builder()
            .strategy(Strategy::OffloadAfterAck)
            .servers(vec![
                tiny_spec("edge-a").with_faults(dead),
                tiny_spec("edge-b"),
            ])
            .retry(RetryPolicy {
                max_attempts: 2,
                deadline: secs(5.0),
                ..RetryPolicy::default()
            })
            .build(),
    )
    .unwrap();
    assert_eq!(report.result, clean.result);
    assert!(!report.fell_back, "edge-b rescued the run");
    assert_eq!(report.server.as_deref(), Some("edge-b"));
    assert_eq!(report.handoff_count(), 1);
    assert!(report.ack_at.is_some(), "the model reached a server");
}

#[test]
fn scenario_hands_off_mid_migration_and_resends_the_full_snapshot() {
    let clean = run_scenario(&ScenarioConfig::tiny(Strategy::OffloadAfterAck)).unwrap();
    // Kill the primary's uplink while the snapshot is on the wire; the
    // pre-send (which happens earlier) is untouched.
    let starts = uplink_transfer_starts(&clean.trace);
    let snap_up = *starts.last().unwrap();
    let outage = FaultPlan::none()
        .down(snap_up - secs(0.001), snap_up + secs(3600.0))
        .unwrap();
    let report = run_scenario(
        &ScenarioConfig::tiny_builder()
            .strategy(Strategy::OffloadAfterAck)
            .servers(vec![
                tiny_spec("edge-a").with_up_faults(outage),
                tiny_spec("edge-b"),
            ])
            .retry(RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            })
            .build(),
    )
    .unwrap();
    assert_eq!(report.result, clean.result);
    assert!(!report.fell_back);
    assert_eq!(report.server.as_deref(), Some("edge-b"));
    assert_eq!(report.handoff_count(), 1);
    assert_eq!(
        report.snapshot_up_bytes, clean.snapshot_up_bytes,
        "the same full snapshot reaches the new server"
    );
}

#[test]
fn a_fully_dead_fleet_falls_back_locally() {
    let clean = run_scenario(&ScenarioConfig::tiny(Strategy::OffloadAfterAck)).unwrap();
    let dead = FaultPlan::none()
        .down(Duration::ZERO, secs(3600.0))
        .unwrap();
    let report = run_scenario(
        &ScenarioConfig::tiny_builder()
            .strategy(Strategy::OffloadAfterAck)
            .servers(vec![
                tiny_spec("edge-a").with_faults(dead.clone()),
                tiny_spec("edge-b").with_faults(dead),
            ])
            .retry(RetryPolicy {
                max_attempts: 1,
                deadline: secs(2.0),
                ..RetryPolicy::default()
            })
            .build(),
    )
    .unwrap();
    assert!(report.fell_back, "no candidate was reachable");
    assert_eq!(report.server, None);
    assert_eq!(
        report.result, clean.result,
        "local fallback computes the same bits"
    );
}

/// Satellite property: a fleet of size 1 routed through the new
/// `ServerPool` produces `RoundReport`s *bit-identical* to the legacy
/// single-server builder path, under every plan of the chaos seed matrix
/// — totals, byte counts, results and the full event trace.
#[test]
fn fleet_of_one_is_bit_identical_across_the_chaos_seed_matrix() {
    for seed in [1u64, 2, 3, 5, 8] {
        let plan = FaultPlan::chaos(seed, secs(1.0));
        let legacy = SessionConfig::tiny_builder()
            .faults(plan.clone())
            .retry(RetryPolicy::default())
            .build();
        let explicit = SessionConfig::tiny_builder()
            .servers(vec![tiny_spec("edge-server-1").with_faults(plan)])
            .retry(RetryPolicy::default())
            .build();
        assert_eq!(legacy, explicit, "seed {seed}: the configs must agree");

        let run = |cfg: SessionConfig| {
            let mut session = OffloadSession::new(cfg).unwrap();
            let rounds: Vec<RoundReport> = (1..=3).map(|i| session.infer(i).unwrap()).collect();
            (rounds, session.trace())
        };
        let (legacy_rounds, legacy_trace) = run(legacy);
        let (fleet_rounds, fleet_trace) = run(explicit);
        assert_eq!(legacy_rounds, fleet_rounds, "seed {seed}: rounds diverged");
        assert_eq!(
            legacy_trace, fleet_trace,
            "seed {seed}: the event traces diverged"
        );
        assert!(
            names_of_kind(&fleet_trace, EventKind::Handoff).is_empty(),
            "seed {seed}: a fleet of one never hands off"
        );
    }
}

/// Pool health bookkeeping steers reselection: after the primary soaks up
/// fault observations, a later round prefers the candidate the estimator
/// has seen succeed.
#[test]
fn estimator_penalties_steer_rounds_away_from_a_flaky_primary() {
    // The primary is down across rounds 2-3's migration window; round 2
    // hands off to edge-b and round 3 stays there (its estimator has real
    // samples, the primary's record carries the penalties).
    let mut probe = OffloadSession::new(SessionConfig::tiny_builder().build()).unwrap();
    let probe_rounds: Vec<RoundReport> = (1..=4).map(|i| probe.infer(i).unwrap()).collect();
    let starts = uplink_transfer_starts(&probe.trace());
    let u2 = starts[2];
    let outage = FaultPlan::none()
        .down(u2 - secs(0.001), u2 + secs(3600.0))
        .unwrap();
    let mut session = OffloadSession::new(
        SessionConfig::tiny_builder()
            .servers(vec![
                tiny_spec("edge-a").with_faults(outage),
                tiny_spec("edge-b"),
            ])
            .retry(RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            })
            .build(),
    )
    .unwrap();
    let rounds: Vec<RoundReport> = (1..=4).map(|i| session.infer(i).unwrap()).collect();
    for (r, p) in rounds.iter().zip(&probe_rounds) {
        assert_eq!(r.result, p.result, "round {} result drifted", r.round);
        assert!(!r.fell_back);
    }
    assert_eq!(rounds[1].server, "edge-b");
    assert_eq!(
        rounds[2].server, "edge-b",
        "no flapping back to the dead primary"
    );
    assert_eq!(rounds[3].server, "edge-b");
    // Exactly one handoff for the whole session.
    assert_eq!(names_of_kind(&session.trace(), EventKind::Handoff).len(), 1);
}

/// A fleet that went dark for one round is re-provisioned in the next:
/// the failover that ran out of candidates leaves the session pointing at
/// a server that never acknowledged its pre-send, and the following
/// round treats that server as exhausted instead of shipping it a
/// snapshot it has no model for.
#[test]
fn a_fleet_that_went_dark_for_a_round_is_reprovisioned_in_the_next() {
    let mut probe = OffloadSession::new(SessionConfig::tiny_builder().build()).unwrap();
    let probe_rounds: Vec<RoundReport> = (1..=3).map(|i| probe.infer(i).unwrap()).collect();
    let u2 = uplink_transfer_starts(&probe.trace())[2];
    // Both candidates go dark just before round 2's upload, until `until`.
    let dark_fleet = |until: Duration| {
        let blackout = FaultPlan::none().down(u2 - secs(0.001), until).unwrap();
        OffloadSession::new(
            SessionConfig::tiny_builder()
                .servers(vec![
                    tiny_spec("edge-a").with_faults(blackout.clone()),
                    tiny_spec("edge-b").with_faults(blackout),
                ])
                .retry(RetryPolicy {
                    max_attempts: 1,
                    ..RetryPolicy::default()
                })
                .build(),
        )
        .unwrap()
    };
    // With one attempt per transfer nothing waits on the window's end, so
    // an hour-long blackout tells when round 2 is over; the real run's
    // blackout lifts exactly then.
    let mut forever = dark_fleet(u2 + secs(3600.0));
    forever.infer(1).unwrap();
    assert!(forever.infer(2).unwrap().fell_back);
    let mut session = dark_fleet(forever.now());

    let rounds: Vec<RoundReport> = (1..=3).map(|i| session.infer(i).unwrap()).collect();
    for (r, p) in rounds.iter().zip(&probe_rounds) {
        assert_eq!(r.result, p.result, "round {} result drifted", r.round);
    }
    assert!(rounds[1].fell_back, "nobody was reachable in round 2");
    assert!(!rounds[2].fell_back, "round 3 found a server again");
    assert_ne!(rounds[2].server, "client");
}
