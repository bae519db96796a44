//! Proactive link-health prediction suite (ISSUE 5 tentpole).
//!
//! The contract under test:
//!
//! 1. **Prediction off (the default) is the reactive path, bit for bit** —
//!    every scenario and session replays the PR-4 behaviour exactly,
//!    traces included.
//! 2. **Prediction on with a healthy link changes nothing but markers** —
//!    instant `gate:plan:ship:*` events appear, and every timing, byte
//!    count and result stays identical to the reactive run.
//! 3. **Prediction on with a degrading link goes local *before* paying**
//!    — once the windowed fault rate and collapsed bandwidth estimate say
//!    the offload loses after its expected backoff penalty, the round
//!    completes locally proactively: no retry budget burns, and the total
//!    fault + backoff time strictly drops against the reactive run.
//! 4. **Predictions are deterministic and serializable** — identical fault
//!    schedules yield identical `LinkPrediction`s, floored estimators
//!    yield finite monotone migration predictions, and `gate:plan:*`
//!    events survive the JSONL round trip.

use snapedge_core::prelude::*;
use snapedge_core::Decision;
use snapedge_net::BandwidthEstimator;
use snapedge_rng::Rng;
use std::time::Duration;

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
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

/// `(gate, verdict, lhs, rhs)` of every gate event, in order.
fn gate_verdicts(trace: &Trace) -> Vec<(String, String, u64, u64)> {
    trace
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Gate)
        .map(|e| {
            let parts: Vec<&str> = e.name.split(':').collect();
            assert!(parts.len() == 5 && parts[0] == "gate", "{}", e.name);
            let number = |s: &str| s.parse().unwrap_or_else(|_| panic!("{}", e.name));
            (
                parts[1].to_string(),
                parts[2].to_string(),
                number(parts[3]),
                number(parts[4]),
            )
        })
        .collect()
}

/// The `(verdict, lhs, rhs)` of every `gate:plan:*` event, in order:
/// predicted offload against predicted local time, in microseconds.
fn plan_verdicts(trace: &Trace) -> Vec<(String, u64, u64)> {
    gate_verdicts(trace)
        .into_iter()
        .filter(|(gate, ..)| gate == "plan")
        .map(|(_, verdict, lhs, rhs)| (verdict, lhs, rhs))
        .collect()
}

/// How many of `trace`'s plan verdicts were `verdict`.
fn plan_count(trace: &Trace, verdict: &str) -> usize {
    plan_verdicts(trace)
        .iter()
        .filter(|(v, _, _)| v == verdict)
        .count()
}

/// Everything in `trace` except the instant gate markers — the only
/// thing a correct-but-agreeing predictor is allowed to add to a run.
fn without_gate_events(trace: &Trace) -> Vec<Event> {
    trace
        .events()
        .iter()
        .filter(|e| e.kind != EventKind::Gate)
        .cloned()
        .collect()
}

/// A lenient retry policy whose backoff is expensive enough that the
/// predicted failed-attempt penalty flips GoogLeNet's 23.7 s offload
/// advantage, and whose deadline never expires inside a test.
fn heavy_backoff_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        deadline: secs(600.0),
        backoff_base: secs(10.0),
        backoff_max: secs(40.0),
    }
}

/// The acceptance scenario: a session whose link starts corrupting
/// mid-run. The reactive path burns its retry budget (and its backoff
/// schedule) every round from then on; the predictive path pays once,
/// learns, and goes local proactively — strictly cheaper.
#[test]
fn session_predicts_local_before_retry_budget_exhaustion() {
    // Fault-free probe: the virtual instant of round 2's delta upload.
    let mut probe = OffloadSession::new(SessionConfig::paper_builder("googlenet").build()).unwrap();
    let _probe_rounds: Vec<RoundReport> = (1..=3).map(|i| probe.infer(i).unwrap()).collect();
    let starts = uplink_transfer_starts(&probe.trace());
    // Transfers: model pre-send, round-1 full snapshot, round-2 delta, ...
    assert!(starts.len() >= 3);
    let u2 = starts[2];

    // The link corrupts every payload from just before round 2's upload,
    // forever. Round 2 must burn its budget either way (no faults have
    // been *observed* at its click); the runs may only diverge at round 3.
    let plan = FaultPlan::none()
        .corrupt(u2 - secs(0.001), u2 + secs(3600.0))
        .unwrap();
    let run = |predict: bool| {
        let mut session = OffloadSession::new(
            SessionConfig::paper_builder("googlenet")
                .faults(plan.clone())
                .retry(heavy_backoff_policy())
                .predict(predict)
                .build(),
        )
        .unwrap();
        let rounds: Vec<RoundReport> = (1..=3).map(|i| session.infer(i).unwrap()).collect();
        (rounds, session.trace())
    };
    let (reactive, reactive_trace) = run(false);
    let (predictive, predictive_trace) = run(true);

    // Rounds 1-2 are identical in every observable: the round-2 gate saw a
    // clean window (the faults had not happened yet) and agreed with the
    // offload, so both runs burn the same round-2 budget.
    for i in 0..2 {
        assert_eq!(predictive[i].total, reactive[i].total, "round {}", i + 1);
        assert_eq!(predictive[i].up_bytes, reactive[i].up_bytes);
        assert_eq!(predictive[i].result, reactive[i].result);
        assert_eq!(predictive[i].fell_back, reactive[i].fell_back);
    }
    assert!(reactive[1].fell_back, "round 2 exhausts the budget");
    assert!(!reactive[1].proactive);

    // Round 3 reactive: the pool re-qualifies the server, re-burns the
    // whole budget, and falls back again. Round 3 predictive: the window
    // now holds round 2's fault observations and the halved estimate —
    // the gate goes local before a single byte (or backoff) is spent.
    assert!(reactive[2].fell_back);
    assert!(predictive[2].proactive, "round 3 must be proactive");
    assert!(!predictive[2].fell_back, "proactive is not a fallback");
    assert_eq!(predictive[2].prediction, Some(Decision::Local));
    assert_eq!(predictive[2].server, "client");
    assert_eq!(predictive[2].result, reactive[2].result);
    assert!(
        predictive[2].total < reactive[2].total,
        "proactive round must be cheaper: {:?} vs {:?}",
        predictive[2].total,
        reactive[2].total
    );

    // The whole point: total fault + backoff time strictly drops.
    let cost = |t: &Trace| {
        t.duration_of_kind(EventKind::Fault, None) + t.duration_of_kind(EventKind::Backoff, None)
    };
    assert!(
        cost(&predictive_trace) < cost(&reactive_trace),
        "predictive fault+backoff {:?} must beat reactive {:?}",
        cost(&predictive_trace),
        cost(&reactive_trace)
    );

    // The decisions are observable in the trace: rounds 1-2 shipped,
    // round 3 went local, each with the numbers it compared.
    let verdicts = plan_verdicts(&predictive_trace);
    let outcomes: Vec<&str> = verdicts.iter().map(|(v, _, _)| v.as_str()).collect();
    assert_eq!(outcomes, ["ship", "ship", "local"]);
    for (verdict, offload_us, local_us) in &verdicts {
        assert_eq!(verdict == "local", offload_us >= local_us, "{verdicts:?}");
    }
    assert!(plan_verdicts(&reactive_trace).is_empty());
}

/// The scenario runner honours the same gate: presend-time corruption
/// seeds the health window, and the predictive run goes local at the
/// click — before the reactive run's doomed migration attempts.
#[test]
fn scenario_with_degraded_presend_goes_proactively_local() {
    let policy = RetryPolicy {
        max_attempts: 4,
        deadline: secs(600.0),
        backoff_base: secs(30.0),
        backoff_max: secs(60.0),
    };
    // Corruption covers the model pre-send's first attempts; it clears in
    // time for a late attempt to get the model (and its ACK) through.
    let presend_corrupt = FaultPlan::none()
        .corrupt(Duration::ZERO, secs(20.0))
        .unwrap();
    let probe = run_scenario(
        &ScenarioConfig::paper_builder("googlenet")
            .up_faults(presend_corrupt.clone())
            .retry(policy.clone())
            .build(),
    )
    .unwrap();
    assert!(probe.retry_count() > 0, "the pre-send must have struggled");
    assert!(!probe.fell_back);
    // The snapshot upload is the last uplink transfer of the clean run.
    let snap_up = *uplink_transfer_starts(&probe.trace).last().unwrap();

    // Final plan: the same presend corruption, plus corruption forever
    // from just before the snapshot would ship.
    let plan = presend_corrupt
        .corrupt(snap_up - secs(0.001), snap_up + secs(3600.0))
        .unwrap();
    let run = |predict: bool| {
        run_scenario(
            &ScenarioConfig::paper_builder("googlenet")
                .up_faults(plan.clone())
                .retry(policy.clone())
                .predict(predict)
                .build(),
        )
        .unwrap()
    };
    let reactive = run(false);
    let predictive = run(true);

    assert!(reactive.fell_back, "reactive exhausts the snapshot budget");
    assert!(!reactive.proactive);
    assert!(predictive.proactive, "the gate must fire at the click");
    assert!(!predictive.fell_back);
    assert_eq!(predictive.prediction, Some(Decision::Local));
    assert_eq!(predictive.result, reactive.result);

    let cost = |r: &ScenarioReport| r.fault_time() + r.backoff_time();
    assert!(
        cost(&predictive) < cost(&reactive),
        "predictive fault+backoff {:?} must beat reactive {:?}",
        cost(&predictive),
        cost(&reactive)
    );
    assert!(predictive.total < reactive.total);
    assert_eq!(plan_count(&predictive.trace, "local"), 1);
    assert!(plan_verdicts(&reactive.trace).is_empty());
}

/// A predictor that agrees with the offload must change *nothing* but the
/// instant `gate:plan:*` markers: same rounds, same bytes, same virtual
/// times, same trace minus those markers.
#[test]
fn healthy_link_prediction_is_marker_only() {
    let run = |predict: bool| {
        let mut session = OffloadSession::new(
            SessionConfig::paper_builder("googlenet")
                .predict(predict)
                .build(),
        )
        .unwrap();
        let rounds: Vec<RoundReport> = (1..=3).map(|i| session.infer(i).unwrap()).collect();
        (rounds, session.trace())
    };
    let (reactive, reactive_trace) = run(false);
    let (predictive, predictive_trace) = run(true);

    for (p, r) in predictive.iter().zip(&reactive) {
        assert_eq!(p.total, r.total, "round {}", r.round);
        assert_eq!(p.up_bytes, r.up_bytes);
        assert_eq!(p.down_bytes, r.down_bytes);
        assert_eq!(p.delta_up, r.delta_up);
        assert_eq!(p.result, r.result);
        assert_eq!(p.server, r.server);
        assert!(!p.fell_back && !p.proactive);
        // GoogLeNet on a healthy 30 Mbps link: the gate agrees with the
        // offload every round.
        assert_eq!(p.prediction, Some(Decision::FullOffload));
        assert_eq!(r.prediction, None);
    }
    assert_eq!(
        without_gate_events(&predictive_trace),
        reactive_trace.events().to_vec(),
        "the predictor may only add instant gate markers"
    );
    assert_eq!(
        plan_count(&predictive_trace, "ship"),
        3,
        "one marker per round"
    );
    assert_eq!(plan_count(&predictive_trace, "local"), 0);
}

/// Prediction off is not merely similar to the pre-predictor path — it is
/// the same configuration value, and the chaos matrix replays identically
/// whether the knob is spelled out or left at its default.
#[test]
fn predict_off_is_bit_identical_across_the_chaos_seed_matrix() {
    for seed in [1u64, 3, 8] {
        let plan = FaultPlan::chaos(seed, secs(1.0));
        let implicit = SessionConfig::tiny_builder()
            .faults(plan.clone())
            .retry(RetryPolicy::default())
            .build();
        let explicit = SessionConfig::tiny_builder()
            .faults(plan)
            .retry(RetryPolicy::default())
            .predict(false)
            .build();
        assert_eq!(implicit, explicit, "seed {seed}: predict defaults off");

        let run = |cfg: SessionConfig| {
            let mut session = OffloadSession::new(cfg).unwrap();
            let rounds: Vec<RoundReport> = (1..=3).map(|i| session.infer(i).unwrap()).collect();
            (rounds, session.trace())
        };
        let (a_rounds, a_trace) = run(implicit);
        let (b_rounds, b_trace) = run(explicit);
        assert_eq!(a_rounds, b_rounds, "seed {seed}: rounds diverged");
        assert_eq!(a_trace, b_trace, "seed {seed}: traces diverged");
        assert_eq!(
            plan_verdicts(&a_trace),
            [],
            "seed {seed}: no gate configured"
        );
    }
}

/// Every verdict's numbers satisfy the comparison its gate names — the
/// plan gate goes local when predicted offload >= predicted local, the
/// effects gate when sources (or a cost floor) exceed what is allowed,
/// the verify gate rejects on any error — and every `ship` the converse,
/// with all the gates on across the chaos seed matrix.
#[test]
fn every_verdict_satisfies_the_comparison_it_names_across_the_chaos_seed_matrix() {
    let mut seen = std::collections::BTreeSet::new();
    for seed in [1u64, 2, 3, 5, 8] {
        let gated = |builder: SessionBuilder| {
            builder
                .faults(FaultPlan::chaos(seed, secs(1.0)))
                .retry(RetryPolicy::default())
                .predict(true)
                .snapshot(SnapshotOptions {
                    verify: true,
                    effects: true,
                    ..SnapshotOptions::default()
                })
        };
        for cfg in [
            // Local execution wins on the tiny model, offloading on AgeNet,
            // and a zero-op meter dooms every round before the planner runs.
            gated(SessionConfig::tiny_builder()).build(),
            gated(SessionConfig::paper_builder("agenet")).build(),
            gated(SessionConfig::tiny_builder())
                .meter(MeterLimits::default().with_ops(0))
                .build(),
        ] {
            let mut session = OffloadSession::new(cfg).unwrap();
            for i in 1..=3 {
                session.infer(i).unwrap();
            }
            for (gate, verdict, lhs, rhs) in gate_verdicts(&session.trace()) {
                let trips = if gate == "plan" {
                    lhs >= rhs
                } else {
                    lhs > rhs
                };
                assert_eq!(
                    verdict != "ship",
                    trips,
                    "seed {seed}: gate:{gate}:{verdict}:{lhs}:{rhs}"
                );
                seen.insert(format!("{gate}:{verdict}"));
            }
        }
    }
    let seen: Vec<&str> = seen.iter().map(String::as_str).collect();
    assert_eq!(
        seen,
        [
            "effects:local",
            "effects:ship",
            "plan:local",
            "plan:ship",
            "verify:ship"
        ]
    );
}

/// `gate:plan:*` events from a *real* predictive run survive the JSONL
/// export/import round trip.
#[test]
fn predictive_run_trace_round_trips_through_jsonl() {
    let mut probe = OffloadSession::new(SessionConfig::paper_builder("googlenet").build()).unwrap();
    let _r: Vec<RoundReport> = (1..=2).map(|i| probe.infer(i).unwrap()).collect();
    let u2 = uplink_transfer_starts(&probe.trace())[2];
    let plan = FaultPlan::none()
        .corrupt(u2 - secs(0.001), u2 + secs(3600.0))
        .unwrap();
    let mut session = OffloadSession::new(
        SessionConfig::paper_builder("googlenet")
            .faults(plan)
            .retry(heavy_backoff_policy())
            .predict(true)
            .build(),
    )
    .unwrap();
    let rounds: Vec<RoundReport> = (1..=3).map(|i| session.infer(i).unwrap()).collect();
    assert!(rounds.iter().any(|r| r.proactive), "need a proactive round");

    let trace = session.trace();
    let jsonl = trace.to_jsonl();
    assert!(jsonl.contains("\"name\":\"gate:plan:ship:"));
    assert!(jsonl.contains("\"name\":\"gate:plan:local:"));
    assert!(jsonl.contains("\"kind\":\"gate\""));
    let parsed = Trace::from_jsonl(&jsonl).unwrap();
    assert_eq!(parsed, trace, "JSONL round trip must be lossless");
}

/// Property: however hard a server's estimator has been penalized, the
/// floor keeps `predicted_migration` finite, and predictions stay
/// monotone in the payload size.
#[test]
fn floored_estimator_keeps_migration_predictions_finite_and_monotone() {
    let mut rng = Rng::seed_from_u64(0x5EED_CAFE);
    for trial in 0..16u32 {
        let spec = ServerSpec::new("edge", edge_server_x86(), LinkConfig::wifi_30mbps());
        let mut pool = ServerPool::new(vec![spec]);
        // One real sample so penalties have something to chew on, then a
        // random (seeded) storm of fault observations drives the estimate
        // into the floor.
        let mut link = Link::new(LinkConfig::wifi_30mbps());
        let xfer = link.schedule(Duration::ZERO, 500_000).unwrap();
        pool.observe_transfer(0, &xfer);
        let storms = rng.gen_range_usize(50, 800);
        let mut at = xfer.finish;
        for _ in 0..storms {
            let burst = rng.gen_range_usize(1, 5);
            at += Duration::from_millis(rng.gen_range_u64(1, 250));
            pool.observe_faults(0, burst, at);
        }
        let estimate = pool
            .health(0)
            .unwrap()
            .estimator()
            .estimate_bps()
            .expect("the sample survives any number of penalties");
        assert!(estimate.is_finite() && estimate > 0.0, "trial {trial}");

        let mut last = Duration::ZERO;
        for pending in [0u64, 1_000, 50_000, 1_000_000, 50_000_000] {
            let t = pool.predicted_migration(0, pending, 0);
            assert!(t < Duration::MAX, "trial {trial}: pending {pending}");
            assert!(
                t >= last,
                "trial {trial}: prediction must grow with payload ({t:?} < {last:?})"
            );
            last = t;
        }
    }
}

/// Property: identical fault schedules produce identical predictions —
/// the predictor is a pure function of its observation history.
#[test]
fn link_health_predictions_are_deterministic_across_identical_schedules() {
    for seed in [7u64, 99, 0xDEAD] {
        let schedule = |seed: u64| {
            let mut rng = Rng::seed_from_u64(seed);
            let mut health = LinkHealth::new(BandwidthEstimator::new(0.3));
            let mut now = Duration::ZERO;
            for _ in 0..200 {
                now += Duration::from_millis(rng.gen_range_u64(5, 2_000));
                if rng.next_bool() {
                    let bytes = rng.gen_range_u64(1_000, 2_000_000);
                    let elapsed = Duration::from_millis(rng.gen_range_u64(1, 500));
                    health.observe_success(now, bytes, elapsed);
                } else {
                    health.observe_faults(rng.gen_range_usize(1, 4), now);
                }
            }
            (health.predict(now), health.predict(now + secs(10.0)))
        };
        let (a_now, a_later) = schedule(seed);
        let (b_now, b_later) = schedule(seed);
        assert_eq!(a_now, b_now, "seed {seed}");
        assert_eq!(a_later, b_later, "seed {seed}");
        assert!(a_now.fault_rate >= 0.0 && a_now.fault_rate <= 1.0);
        assert!(a_now.predicted_retries <= 8, "retries are capped");
    }
}
