//! Edge-fleet failover suite (ISSUE: fleet tentpole).
//!
//! The contract under test:
//!
//! 1. **Failover is automatic and result-transparent** — when the retry
//!    budget against the serving edge server exhausts, the session hands
//!    off to the next-best candidate (re-pre-send, full-snapshot resend)
//!    and the inference results stay bit-identical to the fault-free run.
//! 2. **A pre-send never holds a clicked round** — a server chosen after
//!    the click never serves that round: it completes locally, one client
//!    execution from its last handoff, and the new server serves from the
//!    next click on, which waits for its ACK as at build. A session keeps
//!    one provisioning in flight: a round that finds one unresolved
//!    completes locally and pre-sends nothing.
//! 3. **Handoffs are observable** — every switch is marked with
//!    `server_select:*` / `handoff:*->*` events in the trace, and reports
//!    name the endpoint that served each inference.
//! 4. **A fleet of one never hands off** — `tests/combinations.rs`
//!    checks it across the switch and chaos matrix (its oracle 6).

use snapedge_core::prelude::*;
use snapedge_integration::{
    assert_local_after_last_handoff, attempts, names_of_kind, overlapping_presends, run_checked,
    secs, tiny_spec, uplink_transfer_starts, BACK_TO_BACK,
};
use std::collections::BTreeMap;
use std::time::Duration;

/// A 3-server fleet whose primary goes down mid-run. The session must
/// hand off automatically (visible `ServerSelect`/`Handoff` events) and
/// every inference must stay bit-identical to the fault-free run. The
/// handoff round completes locally — edge-b acknowledges after its
/// click — and edge-b serves the next rounds, full and then delta.
#[test]
fn session_hands_off_automatically_when_the_primary_dies_mid_run() {
    // Fault-free single-server probe: reference results and the virtual
    // instant of round 2's delta upload.
    let mut probe = OffloadSession::new(SessionConfig::tiny_builder().build()).unwrap();
    let probe_rounds: Vec<RoundReport> = (1..=4).map(|i| probe.infer(i).unwrap()).collect();
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
            .retry(attempts(1))
            .build(),
    )
    .unwrap();
    let mut rounds = Vec::new();
    for i in 1..=4 {
        rounds.push(session.infer(i).unwrap());
        if i == 2 {
            assert_local_after_last_handoff(&session.trace(), session.now());
        }
    }

    for (r, p) in rounds.iter().zip(&probe_rounds) {
        assert_eq!(r.result, p.result, "round {} result drifted", r.round);
        assert_eq!(r.fell_back, r.round == 2, "round {}", r.round);
    }
    let served: Vec<_> = rounds.iter().map(|r| r.server.as_deref()).collect();
    assert_eq!(
        served,
        [Some("edge-a"), None, Some("edge-b"), Some("edge-b")],
        "round 2 hands off and completes locally; edge-b serves from round 3"
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
        !rounds[2].delta_up,
        "handoff forces a full snapshot re-send"
    );
    assert!(rounds[3].delta_up, "deltas resume once edge-b has a base");
}

#[test]
fn scenario_fails_over_during_presend_and_reports_the_serving_server() {
    let clean = run_scenario(&ScenarioConfig::tiny(Strategy::OffloadAfterAck)).unwrap();
    let dead = FaultPlan::none()
        .down(Duration::ZERO, secs(3600.0))
        .unwrap();
    let report = run_scenario(
        &ScenarioConfig::tiny_builder()
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

/// The click's round hands off and completes locally; the next click
/// re-sends the full snapshot to the new server.
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
    let cfg = ScenarioConfig::tiny_builder()
        .servers(vec![
            tiny_spec("edge-a").with_up_faults(outage),
            tiny_spec("edge-b"),
        ])
        .retry(attempts(1))
        .build();
    let report = run_scenario(&cfg).unwrap();
    assert_eq!(report.result, clean.result);
    assert!(report.fell_back, "edge-b acknowledged after the click");
    assert_eq!(report.server, None);
    assert_eq!(report.handoff_count(), 1);
    assert_local_after_last_handoff(&report.trace, report.clicked_at + report.total);

    // The same click in a session, then one more: edge-b gets the full
    // snapshot the dead uplink never delivered, byte for byte the second
    // round's snapshot of a fault-free session that ships no deltas.
    let mut session = OffloadSession::new(SessionConfig::from(cfg.core.clone())).unwrap();
    let handed_off = session.infer(cfg.seed).unwrap();
    assert_eq!(handed_off.result, clean.result);
    assert_eq!(handed_off.server, None);
    let resent = session.infer(cfg.seed).unwrap();
    assert_eq!(resent.result, clean.result);
    assert_eq!(resent.server.as_deref(), Some("edge-b"));
    let mut full_only = SessionConfig::from(ScenarioConfig::tiny(Strategy::OffloadAfterAck).core);
    full_only.use_deltas = false;
    let mut fault_free = OffloadSession::new(full_only).unwrap();
    fault_free.infer(cfg.seed).unwrap();
    let full = fault_free.infer(cfg.seed).unwrap();
    assert!(!full.delta_up && full.up_bytes > 0, "{full:?}");
    assert_eq!((resent.delta_up, resent.up_bytes), (false, full.up_bytes));
}

#[test]
fn a_fully_dead_fleet_falls_back_locally() {
    let clean = run_scenario(&ScenarioConfig::tiny(Strategy::OffloadAfterAck)).unwrap();
    let dead = FaultPlan::none()
        .down(Duration::ZERO, secs(3600.0))
        .unwrap();
    let report = run_scenario(
        &ScenarioConfig::tiny_builder()
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

/// Pool health bookkeeping steers reselection: after the primary soaks up
/// fault observations, a later round prefers the candidate the estimator
/// has seen succeed.
#[test]
fn estimator_penalties_steer_rounds_away_from_a_flaky_primary() {
    // The primary is down across rounds 2-4's migration window; round 2
    // hands off to edge-b and completes locally, and rounds 3-4 stay there
    // (its estimator has real samples, the primary's record carries the
    // penalties).
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
            .retry(attempts(1))
            .build(),
    )
    .unwrap();
    let mut rounds = Vec::new();
    for i in 1..=4 {
        rounds.push(session.infer(i).unwrap());
        if i == 2 {
            assert_local_after_last_handoff(&session.trace(), session.now());
        }
    }
    for (r, p) in rounds.iter().zip(&probe_rounds) {
        assert_eq!(r.result, p.result, "round {} result drifted", r.round);
        assert_eq!(r.fell_back, r.round == 2, "round {}", r.round);
    }
    assert_eq!(rounds[1].server, None, "the handoff round runs locally");
    assert_eq!(
        rounds[2].server.as_deref(),
        Some("edge-b"),
        "no flapping back to the dead primary"
    );
    assert_eq!(rounds[3].server.as_deref(), Some("edge-b"));
    // Exactly one handoff for the whole session.
    assert_eq!(names_of_kind(&session.trace(), EventKind::Handoff).len(), 1);
}

/// Failover prices the model upload the new server still needs, as well
/// as the migration: every candidate a session fails over to holds
/// nothing of its, and the next click waits on that server's ACK. When
/// the primary's uplink dies before round 2, the far server behind a fat
/// link (200 Mbps, 200 ms) beats the near one behind a thin link
/// (20 Mbps, 0.5 ms). Round 2 completes locally either way (11.92 s).
/// far-fat acknowledges at 7.33 s, before round 3's click at 16.92 s,
/// and serves it in 1.74 s; near-thin would acknowledge at 23.37 s,
/// holding that click 6.45 s, and serve it in 1.39 s. Build prices no
/// model bytes; which horizon placement should optimise stays open until
/// session lengths are measured.
#[test]
fn failover_prices_the_model_upload_the_new_server_needs() {
    let server = |name: &str, mbps: f64, latency: f64| {
        let link = LinkConfig {
            latency: secs(latency),
            ..LinkConfig::mbps(mbps)
        };
        ServerSpec::new(name, edge_server_x86(), link)
    };
    let edge_a = server("edge-a", 100.0, 0.0001);
    let agenet = || SessionConfig::paper_builder("agenet");
    let mut probe = OffloadSession::new(agenet().servers(vec![edge_a.clone()]).build()).unwrap();
    let probe_rounds: Vec<RoundReport> = (1..=3).map(|i| probe.infer(i).unwrap()).collect();
    // Transfers: model pre-send, round-1 full snapshot, round-2 upload.
    let u2 = uplink_transfer_starts(&probe.trace())[2];
    let outage = FaultPlan::none()
        .down(u2 - secs(0.001), u2 + secs(3600.0))
        .unwrap();
    let mut session = OffloadSession::new(
        agenet()
            .servers(vec![
                edge_a.with_up_faults(outage),
                server("near-thin", 20.0, 0.0005),
                server("far-fat", 200.0, 0.2),
            ])
            .retry(attempts(1))
            .build(),
    )
    .unwrap();
    let mut rounds: Vec<RoundReport> = (1..=2).map(|i| session.infer(i).unwrap()).collect();
    assert_local_after_last_handoff(&session.trace(), session.now());
    // far-fat's pre-send is over before the next click, which never waits.
    let third_click = session.now();
    rounds.push(session.infer(3).unwrap());
    assert!(session.ack_at().is_some_and(|ack| ack <= third_click));
    for (r, p) in rounds.iter().zip(&probe_rounds) {
        assert_eq!(r.result, p.result, "round {} result drifted", r.round);
        assert_eq!(r.fell_back, r.round == 2, "round {}", r.round);
    }
    let served: Vec<_> = rounds.iter().map(|r| r.server.as_deref()).collect();
    assert_eq!(served, [Some("edge-a"), None, Some("far-fat")]);
}

/// A fleet that went dark for one round is re-provisioned in the next:
/// the failover that ran out of candidates leaves the session pointing at
/// a server that never acknowledged its pre-send, and the following
/// round treats that server as exhausted instead of shipping it a
/// snapshot it has no model for. That round re-provisions after its
/// click, so it completes locally too; the round after it offloads.
#[test]
fn a_fleet_that_went_dark_for_a_round_is_reprovisioned_in_the_next() {
    let mut probe = OffloadSession::new(SessionConfig::tiny_builder().build()).unwrap();
    let probe_rounds: Vec<RoundReport> = (1..=4).map(|i| probe.infer(i).unwrap()).collect();
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
                .retry(attempts(1))
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

    let mut rounds: Vec<RoundReport> = (1..=2).map(|i| session.infer(i).unwrap()).collect();
    assert_eq!(session.ack_at(), None, "nobody acknowledged in round 2");
    rounds.push(session.infer(3).unwrap());
    assert!(session.ack_at().is_some(), "round 3 re-provisioned");
    assert_local_after_last_handoff(&session.trace(), session.now());
    rounds.push(session.infer(4).unwrap());
    for (r, p) in rounds.iter().zip(&probe_rounds) {
        assert_eq!(r.result, p.result, "round {} result drifted", r.round);
    }
    assert!(rounds[1].fell_back, "nobody was reachable in round 2");
    assert!(
        rounds[2].fell_back,
        "round 3 re-provisioned after its click"
    );
    assert!(!rounds[3].fell_back, "round 4 found a server again");
    assert!(rounds[3].server.is_some() && !rounds[3].delta_up);
}

/// A `kind` window (`"down"` or `"corrupt"`) on both links of every
/// candidate of a `servers`-strong tiny fleet from app start to `until`,
/// with one attempt per transfer when `retry` is set and strict
/// fail-fast otherwise. The links are LAN-grade (300 Mbps, 0.1 ms), so
/// even two failed pre-sends in a row are over within the first
/// round's local execution, and a window that closes when that round
/// ends has closed for the second round's re-provision.
fn presend_window(kind: &str, until: Duration, servers: usize, retry: bool) -> SessionConfig {
    let plan = match kind {
        "down" => FaultPlan::none().down(Duration::ZERO, until),
        _ => FaultPlan::none().corrupt(Duration::ZERO, until),
    };
    let plan = plan.unwrap();
    let lan = LinkConfig {
        latency: Duration::from_micros(100),
        ..LinkConfig::mbps(300.0)
    };
    let fleet = ["edge-a", "edge-b"][..servers]
        .iter()
        .map(|&name| {
            ServerSpec::new(name, edge_server_x86(), lan.clone()).with_faults(plan.clone())
        })
        .collect();
    let cfg = SessionConfig::tiny_builder().servers(fleet);
    if retry { cfg.retry(attempts(1)) } else { cfg }.build()
}

/// The one provisioning rule: a pre-send that does not get through —
/// it gives up under a retry policy, or meets a transient fault in a
/// fleet of two — starts the session unprovisioned instead of failing
/// it. Round 1 completes locally; round 2, once the window has closed,
/// re-provisions after its click and completes locally too; round 3
/// offloads; a fleet of one included.
#[test]
fn a_failed_presend_starts_the_session_unprovisioned() {
    let mut probe = OffloadSession::new(SessionConfig::tiny_builder().build()).unwrap();
    let probe_rounds: Vec<RoundReport> = (1..=3).map(|i| probe.infer(i).unwrap()).collect();
    for kind in ["down", "corrupt"] {
        for (servers, retry) in [(1, true), (2, false), (2, true)] {
            let tag = format!("{kind} window, {servers} server(s), retry {retry}");
            let start = |until: Duration| {
                OffloadSession::new(presend_window(kind, until, servers, retry))
                    .unwrap_or_else(|e| panic!("{tag}: the session must start: {e}"))
            };
            // With one attempt per transfer nothing waits on the window's
            // end, so an hour-long window tells when round 1 is over; the
            // real run's window closes exactly then.
            let mut forever = start(secs(3600.0));
            forever.infer(1).unwrap();
            let until = forever.now();
            let trace = forever.trace();
            let mut presends = trace.events().iter().filter(|e| e.name == "model_upload");
            assert!(
                presends.all(|e| e.start < until),
                "{tag}: inside the window"
            );
            let mut session = start(until);
            assert_eq!(session.ack_at(), None, "{tag}: nobody acknowledged");

            let mut rounds: Vec<RoundReport> = (1..=2).map(|i| session.infer(i).unwrap()).collect();
            assert!(session.ack_at().is_some(), "{tag}: round 2 re-provisions");
            assert_local_after_last_handoff(&session.trace(), session.now());
            rounds.push(session.infer(3).unwrap());
            for r in &rounds[..2] {
                assert!(r.fell_back, "{tag}: round {} completes locally", r.round);
                assert_eq!(r.server, None, "{tag}");
            }
            assert!(!rounds[2].fell_back, "{tag}: round 3 offloads");
            assert!(rounds[2].server.is_some(), "{tag}");
            assert!(
                !rounds[2].delta_up,
                "{tag}: the new server needs a full snapshot"
            );
            for (r, p) in rounds.iter().zip(&probe_rounds) {
                assert_eq!(r.result, p.result, "{tag}: round {} drifted", r.round);
            }
            assert!(session.ack_at().is_some(), "{tag}");
        }
    }
}

/// A fleet of clients that all start unprovisioned runs to completion
/// under the engine's checks: every client's first two rounds complete
/// locally — the first finds no provisioned server, the second
/// re-provisions after its click, the window having closed — and every
/// result equals the fault-free fleet's.
#[test]
fn a_fleet_survives_clients_whose_presend_failed() {
    const CLIENTS: usize = 3;
    let run = |cfg: SessionConfig| {
        let mut engine = Engine::sessions(cfg, CLIENTS)
            .unwrap()
            .arrival(ArrivalProcess::ClosedLoop { think: secs(2.0) })
            .max_rounds(3);
        let report = run_checked(&mut engine);
        let done = engine.event_log().iter().filter_map(|e| match e.kind {
            EngineEventKind::Done { round, served_by } => Some((e.client, round, served_by)),
            _ => None,
        });
        // Reports are pushed in the order the engine logs `Done`.
        let rounds: BTreeMap<(usize, u32), (Option<u32>, String)> = done
            .zip(engine.workload().reports())
            .map(|((client, round, by), r)| ((client, round), (by, r.result.clone())))
            .collect();
        (report, rounds)
    };
    let (_, clean) = run(SessionConfig::tiny());
    for servers in [1, 2] {
        let (report, rounds) = run(presend_window("down", secs(1.0), servers, true));
        assert_eq!(rounds.len(), CLIENTS * 3, "{servers} server(s)");
        for (key, (served_by, result)) in &rounds {
            assert_eq!(*result, clean[key].1, "{servers} server(s), {key:?}");
            assert_eq!(
                served_by.is_none(),
                key.1 <= 2,
                "{servers} server(s), {key:?}"
            );
        }
        assert_eq!(report.fallbacks, CLIENTS * 2, "{servers} server(s)");
    }
}

/// Two servers whose links corrupt everything for 100 s, three attempts
/// a transfer: build's provisioning runs edge-a's pre-send, then edge-b's,
/// well past round 4. No round waits on it or starts another: each takes
/// exactly a local round, and the pre-sends never overlap.
#[test]
fn an_unresolved_provisioning_holds_no_round_and_starts_no_other() {
    let local = run_scenario(&ScenarioConfig::tiny(Strategy::ClientOnly)).unwrap();
    let corrupt = FaultPlan::none()
        .corrupt(Duration::ZERO, secs(100.0))
        .unwrap();
    let mut session = OffloadSession::new(
        SessionConfig::tiny_builder()
            .servers(vec![
                tiny_spec("a").with_faults(corrupt.clone()),
                tiny_spec("b").with_faults(corrupt),
            ])
            .retry(attempts(3))
            .build(),
    )
    .unwrap();
    for i in 1..=4 {
        let r = session.infer(i).unwrap();
        assert_eq!(r.total, local.total, "round {i}: {r:?}");
        assert_eq!(r.server, None, "round {i}");
    }
    let trace = session.trace();
    assert_eq!(overlapping_presends(&trace), None);
    assert_eq!(names_of_kind(&trace, EventKind::Handoff).len(), 1);
}

/// An empty fleet has nowhere to offload: every entry point refuses
/// it with a config error.
#[test]
fn an_empty_fleet_is_refused_by_every_entry_point() {
    let cfg = SessionConfig::tiny_builder().servers(vec![]).build();
    let refusals = [
        OffloadSession::new(cfg.clone()).err(),
        run_scenario(&ScenarioConfig::from(cfg.core.clone())).err(),
        Engine::sessions(cfg.clone(), 1).err(),
        Engine::modeled(cfg, 1).err(),
    ];
    let config =
        |e: &OffloadError| matches!(e, OffloadError::Config(m) if m.contains("at least one"));
    for refusal in refusals {
        assert!(refusal.as_ref().is_some_and(config), "{refusal:?}");
    }
}

/// A round that ran on the client reports no server, so `client` is a
/// server name like any other: a fleet whose only server takes it
/// offloads, and every entry point says that server served.
#[test]
fn a_server_named_client_serves_like_any_other() {
    let cfg = SessionConfig::tiny_builder()
        .servers(vec![tiny_spec("client")])
        .build();
    let mut session = OffloadSession::new(cfg.clone()).unwrap();
    for i in 1..=3 {
        let r = session.infer(i).unwrap();
        assert!(!r.fell_back && r.up_bytes > 0, "round {i} offloads: {r:?}");
        assert_eq!(r.server.as_deref(), Some("client"), "round {i}");
    }
    let report = run_scenario(&ScenarioConfig::from(cfg.core.clone())).unwrap();
    assert!(report.snapshot_up_bytes > 0 && !report.fell_back);
    assert_eq!(report.server.as_deref(), Some("client"));
    let mut engine = Engine::sessions(cfg, 2)
        .unwrap()
        .arrival(BACK_TO_BACK)
        .max_rounds(2);
    run_checked(&mut engine);
    let served: Vec<Option<u32>> = engine
        .event_log()
        .iter()
        .filter_map(|e| match e.kind {
            EngineEventKind::Done { served_by, .. } => Some(served_by),
            _ => None,
        })
        .collect();
    assert_eq!(served, [Some(0); 4]);
}
