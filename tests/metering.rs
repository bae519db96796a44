//! Metering suite (ISSUE: runtime sandboxing tentpole).
//!
//! The contract under test:
//!
//! 1. **Metering off is free** — with no `MeterLimits` configured (the
//!    default) rounds report no usage and traces carry no meter event.
//! 2. **Generous caps only observe** — caps the workload never reaches
//!    change no result and no virtual timestamp; they only add
//!    `MeterTick` accounting events and per-round usage numbers.
//!
//! `tests/combinations.rs` holds 1 and 2 for sessions, scenarios and
//! fleets across the switch and chaos matrix (its oracle 3).
//! 3. **Exhaustion is fatal-for-this-server** — a tripped cap never
//!    burns the retry budget: the session fails over to the next fleet
//!    candidate, or completes locally when every candidate is capped,
//!    and the inference result stays bit-identical either way.

use snapedge_core::prelude::*;
use snapedge_integration::{count_kind, generous, names_of_kind, secs, tiny_spec};

// --- 2. Generous caps only observe ----------------------------------------

#[test]
fn generous_caps_surface_per_round_usage_in_session_reports() {
    let mut probe = OffloadSession::new(SessionConfig::tiny_builder().build()).unwrap();
    let mut metered =
        OffloadSession::new(SessionConfig::tiny_builder().meter(generous()).build()).unwrap();
    for round in 1..=3 {
        let p = probe.infer(round).unwrap();
        let m = metered.infer(round).unwrap();
        assert_eq!(m.result, p.result);
        assert_eq!(m.total, p.total, "round {round} timing drifted");
        assert!(m.ops_used > 0, "round {round} charged no ops");
        // The benchmark apps hold their state in strings and the DOM, not
        // heap cells, so the observed peak is legitimately zero here (the
        // heap cap itself is exercised by the interpreter's unit tests).
        assert_eq!(m.peak_heap, 0);
    }
}

// --- 3. Exhaustion is fatal-for-this-server -------------------------------

#[test]
fn ops_exhaustion_fails_over_without_burning_retries() {
    let mut probe = OffloadSession::new(SessionConfig::tiny_builder().build()).unwrap();
    let probe_rounds: Vec<RoundReport> = (1..=3).map(|i| probe.infer(i).unwrap()).collect();

    // edge-a admits one op and kills the tenant during restore; edge-b is
    // unmetered. No retry policy: exhaustion must not need one.
    let mut session = OffloadSession::new(
        SessionConfig::tiny_builder()
            .servers(vec![
                tiny_spec("edge-a").with_meter(MeterLimits::default().with_ops(1)),
                tiny_spec("edge-b"),
            ])
            .build(),
    )
    .unwrap();
    let rounds: Vec<RoundReport> = (1..=3).map(|i| session.infer(i).unwrap()).collect();
    for (r, p) in rounds.iter().zip(&probe_rounds) {
        assert_eq!(r.result, p.result, "round {} result drifted", r.round);
        assert!(!r.fell_back, "round {} must not fall back", r.round);
        assert_eq!(
            r.server.as_deref(),
            Some("edge-b"),
            "round {} served by failover",
            r.round
        );
    }
    let trace = session.trace();
    assert!(
        names_of_kind(&trace, EventKind::MeterExhausted)
            .iter()
            .any(|n| n == "meter_exhausted:ops"),
        "the tripped cap names its resource"
    );
    assert_eq!(
        names_of_kind(&trace, EventKind::Handoff),
        vec!["handoff:edge-a->edge-b".to_string()]
    );
    assert_eq!(
        count_kind(&trace, EventKind::Retry),
        0,
        "exhaustion must never burn retries"
    );
}

#[test]
fn slice_kill_mid_compute_fails_over_in_a_scenario() {
    let clean = run_scenario(&ScenarioConfig::tiny(Strategy::OffloadAfterAck)).unwrap();
    let report = run_scenario(
        &ScenarioConfig::tiny_builder()
            .servers(vec![
                tiny_spec("edge-a")
                    .with_meter(MeterLimits::default().with_time_slice(secs(0.000001))),
                tiny_spec("edge-b"),
            ])
            .build(),
    )
    .unwrap();
    assert_eq!(report.result, clean.result);
    assert!(!report.fell_back);
    assert_eq!(report.server.as_deref(), Some("edge-b"));
    assert!(
        names_of_kind(&report.trace, EventKind::MeterExhausted)
            .iter()
            .any(|n| n == "meter_exhausted:slice"),
        "the slice kill names its resource"
    );
}

#[test]
fn every_server_capped_falls_back_locally_with_the_same_result() {
    let mut probe = OffloadSession::new(SessionConfig::tiny_builder().build()).unwrap();
    let probe_rounds: Vec<RoundReport> = (1..=2).map(|i| probe.infer(i).unwrap()).collect();

    let tight = MeterLimits::default().with_ops(1);
    let mut session = OffloadSession::new(
        SessionConfig::tiny_builder()
            .servers(vec![
                tiny_spec("edge-a").with_meter(tight.clone()),
                tiny_spec("edge-b").with_meter(tight),
            ])
            .build(),
    )
    .unwrap();
    for (i, p) in probe_rounds.iter().enumerate() {
        let r = session.infer(i as u64 + 1).unwrap();
        assert_eq!(r.result, p.result, "local fallback computes the same bits");
        assert!(r.fell_back, "round {} must complete locally", r.round);
    }
}

#[test]
fn fleet_wide_meter_is_overridden_per_server() {
    // Fleet-wide cap is unreachable; the primary's own cap is one op.
    // The override must win on the primary only, so the round fails over
    // to the secondary, which inherits the generous fleet-wide limits.
    let report = run_scenario(
        &ScenarioConfig::tiny_builder()
            .meter(generous())
            .servers(vec![
                tiny_spec("edge-a").with_meter(MeterLimits::default().with_ops(1)),
                tiny_spec("edge-b"),
            ])
            .build(),
    )
    .unwrap();
    assert_eq!(report.server.as_deref(), Some("edge-b"));
    assert!(!report.fell_back);
    assert!(count_kind(&report.trace, EventKind::MeterTick) > 0);
}

// --- Fleet engine ---------------------------------------------------------

fn engine_cfg(meter: Option<MeterLimits>) -> SessionConfig {
    let mut builder = SessionConfig::tiny_builder();
    if let Some(limits) = meter {
        builder = builder.meter(limits);
    }
    builder.build()
}

fn run_engine(cfg: SessionConfig) -> FleetReport {
    Engine::sessions(cfg, 3)
        .unwrap()
        .arrival(ArrivalProcess::ClosedLoop { think: secs(0.5) })
        .duration(secs(30.0))
        .max_rounds(9)
        .run()
        .unwrap()
}

#[test]
fn engine_with_a_tight_slice_is_deterministic_and_completes() {
    let cfg = engine_cfg(Some(MeterLimits::default().with_time_slice(secs(0.000001))));
    let a = run_engine(cfg.clone());
    let b = run_engine(cfg);
    // max_rounds is per client: 3 clients x 9 rounds.
    assert_eq!(a.completed, 27, "every capped round still completes");
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.makespan, b.makespan, "tight-slice runs must replay");
    assert_eq!(a.latency.p50, b.latency.p50);
    assert_eq!(a.fallbacks, b.fallbacks);
    assert!(
        a.fallbacks > 0,
        "a single capped server forces local completion"
    );
}
