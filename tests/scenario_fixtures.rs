//! One offload path (ISSUE 13): `run_scenario` became a one-round
//! `OffloadSession`, and nothing a scenario reports may notice.
//!
//! The fixtures were generated at commit a230663, when `scenario.rs`
//! still carried its own pre-send / ship / failover / local-fallback
//! code: FNV-1a of the `{:?}` rendering of the `ScenarioReport` with its
//! trace emptied (or of the error), and of the JSONL trace on its own.
//! Nine rows were regenerated on the one-driver code, each with a
//! comment naming the decided delta that moved it: the give-up clock fix,
//! the re-capture after a mid-round handoff, no instant
//! `effect_verdict:ok`, and the session's initial fleet selection.
//!
//! The third column (ISSUE 21, one gate chain) is the hash of the JSONL
//! with every gate event's line dropped. It was generated at c032b35 —
//! there by dropping the five kinds the chain replaced (`predict`,
//! `proactive_local`, `effect_verdict`, `balance_decision`, `verify`),
//! here by dropping `gate` — so it proves the 33 rows whose trace column
//! moved with that change moved in their gate events and nowhere else.
//! To regenerate a row, run the test: its failure message prints the row.

use snapedge_core::prelude::*;
use snapedge_webapp::intern::fnv1a;
use std::time::Duration;

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

fn tiny() -> ScenarioBuilder {
    ScenarioConfig::tiny_builder()
}

fn tiny_spec(name: &str) -> ServerSpec {
    ServerSpec::new(name, edge_server_x86(), LinkConfig::wifi_30mbps())
}

fn few_attempts(max_attempts: u32, deadline: f64) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        deadline: secs(deadline),
        ..RetryPolicy::default()
    }
}

/// The `[start, end]` window of the snapshot upload in a clean run: the
/// last transfer the uplink carried.
fn snapshot_up_window(trace: &Trace) -> (Duration, Duration) {
    trace
        .events()
        .iter()
        .filter(|e| e.name == "uplink" && e.kind == EventKind::Transfer)
        .map(|e| (e.start, e.end))
        .max()
        .expect("clean run carries a snapshot upload")
}

/// Every scenario configuration the fixtures pin, by name.
fn configs() -> Vec<(String, ScenarioConfig)> {
    let mut rows: Vec<(String, ScenarioConfig)> = Vec::new();
    let mut add = |name: String, cfg: ScenarioConfig| rows.push((name, cfg));
    let cut = |label: &str| Strategy::Partial { cut: label.into() };

    // The paper's matrix (Figs. 6-8) plus the tiny real-arithmetic model.
    for model in ["agenet", "gendernet", "googlenet"] {
        for (label, strategy) in [
            ("client", Strategy::ClientOnly),
            ("server", Strategy::ServerOnly),
            ("before_ack", Strategy::OffloadBeforeAck),
            ("after_ack", Strategy::OffloadAfterAck),
            ("1st_pool", cut("1st_pool")),
            ("3rd_pool", cut("3rd_pool")),
        ] {
            add(
                format!("{model}/{label}"),
                ScenarioConfig::paper(model, strategy),
            );
        }
    }
    for (label, strategy) in [
        ("client", Strategy::ClientOnly),
        ("server", Strategy::ServerOnly),
        ("before_ack", Strategy::OffloadBeforeAck),
        ("after_ack", Strategy::OffloadAfterAck),
        ("1st_pool", cut("1st_pool")),
    ] {
        add(format!("tiny/{label}"), ScenarioConfig::tiny(strategy));
    }

    // The chaos seed matrix, at the suites' 1 s horizon and at one that
    // lands inside a tiny run.
    for (when, strategy) in [
        ("after_ack", Strategy::OffloadAfterAck),
        ("before_ack", Strategy::OffloadBeforeAck),
        ("1st_pool", cut("1st_pool")),
    ] {
        for seed in [1u64, 2, 3, 5, 8] {
            for (span, horizon) in [("1s", 1.0), ("100ms", 0.1)] {
                let plan = FaultPlan::chaos(seed, secs(horizon));
                let base = || {
                    tiny()
                        .strategy(strategy.clone())
                        .retry(RetryPolicy::default())
                };
                add(
                    format!("chaos/{when}/{span}/seed{seed}/retry"),
                    base().faults(plan.clone()).build(),
                );
                add(
                    format!("chaos/{when}/{span}/seed{seed}/retry+predict"),
                    base().faults(plan.clone()).predict(true).build(),
                );
                add(
                    format!("chaos/{when}/{span}/seed{seed}/fleet"),
                    base()
                        .servers(vec![
                            tiny_spec("edge-a").with_faults(plan.clone()),
                            tiny_spec("edge-b"),
                        ])
                        .build(),
                );
                add(
                    format!("chaos/{when}/{span}/seed{seed}/compress"),
                    base().faults(plan).compress(true).build(),
                );
            }
        }
    }

    // Windows aimed at the snapshot upload of the clean tiny run.
    let clean = run_scenario(&ScenarioConfig::tiny(Strategy::OffloadAfterAck)).unwrap();
    let (s, f) = snapshot_up_window(&clean.trace);
    let ms = secs(0.001);
    let hour = secs(3600.0);
    let down = |from: Duration, to: Duration| FaultPlan::none().down(from, to).unwrap();
    let corrupt = |from: Duration, to: Duration| FaultPlan::none().corrupt(from, to).unwrap();
    let hit = s + secs(0.0002);
    add(
        "aimed/mid_transfer_outage".into(),
        tiny().up_faults(down(hit, hit + secs(0.05))).build(),
    );
    add(
        "aimed/refused_upload".into(),
        tiny()
            .up_faults(down(s - ms, s + secs(0.02)))
            .retry(RetryPolicy {
                backoff_base: ms,
                ..RetryPolicy::default()
            })
            .build(),
    );
    add(
        "aimed/corrupt_and_retransmit".into(),
        tiny()
            .up_faults(corrupt(s - ms, f + ms))
            .retry(RetryPolicy::default())
            .build(),
    );
    add(
        "aimed/outage_without_policy".into(),
        tiny().up_faults(down(s - ms, f)).build(),
    );
    add(
        "aimed/budget_exhausted_at_snapshot".into(),
        tiny()
            .up_faults(down(s - ms, s + hour))
            .retry(few_attempts(2, 5.0))
            .build(),
    );
    add(
        "aimed/corrupt_uploads_give_up".into(),
        tiny()
            .up_faults(corrupt(s - ms, s + secs(100.0)))
            .retry(few_attempts(3, 60.0))
            .build(),
    );
    add(
        "aimed/corrupt_downloads_give_up".into(),
        tiny()
            .down_faults(corrupt(s, s + secs(100.0)))
            .retry(few_attempts(3, 60.0))
            .build(),
    );
    add(
        "aimed/mid_migration_handoff".into(),
        tiny()
            .servers(vec![
                tiny_spec("edge-a").with_up_faults(down(s - ms, s + hour)),
                tiny_spec("edge-b"),
            ])
            .retry(few_attempts(1, 60.0))
            .build(),
    );
    add(
        "aimed/downlink_dies_mid_round_handoff".into(),
        tiny()
            .servers(vec![
                tiny_spec("edge-a").with_down_faults(down(s, s + hour)),
                tiny_spec("edge-b"),
            ])
            .retry(few_attempts(1, 60.0))
            .build(),
    );

    // Fleets that never acknowledge the pre-send, or only late.
    let dead = down(Duration::ZERO, hour);
    add(
        "presend/failover_to_edge_b".into(),
        tiny()
            .servers(vec![
                tiny_spec("edge-a").with_faults(dead.clone()),
                tiny_spec("edge-b"),
            ])
            .retry(few_attempts(2, 5.0))
            .build(),
    );
    add(
        "presend/failover_without_policy".into(),
        tiny()
            .servers(vec![
                tiny_spec("edge-a").with_faults(dead.clone()),
                tiny_spec("edge-b"),
            ])
            .build(),
    );
    add(
        "presend/corrupt_primary_fails_over_late".into(),
        tiny()
            .servers(vec![
                tiny_spec("edge-a").with_up_faults(corrupt(Duration::ZERO, hour)),
                tiny_spec("edge-b"),
            ])
            .retry(few_attempts(2, 60.0))
            .build(),
    );
    add(
        "presend/corrupt_primary_fails_over_late/before_ack".into(),
        tiny()
            .strategy(Strategy::OffloadBeforeAck)
            .servers(vec![
                tiny_spec("edge-a").with_up_faults(corrupt(Duration::ZERO, hour)),
                tiny_spec("edge-b"),
            ])
            .retry(few_attempts(2, 60.0))
            .build(),
    );
    for (when, strategy) in [
        ("after_ack", Strategy::OffloadAfterAck),
        ("before_ack", Strategy::OffloadBeforeAck),
    ] {
        add(
            format!("unacked/{when}/fleet_of_one_down_for_an_hour"),
            tiny()
                .strategy(strategy.clone())
                .up_faults(dead.clone())
                .retry(few_attempts(2, 5.0))
                .build(),
        );
        add(
            format!("unacked/{when}/two_dead_servers"),
            tiny()
                .strategy(strategy.clone())
                .servers(vec![
                    tiny_spec("edge-a").with_faults(dead.clone()),
                    tiny_spec("edge-b").with_faults(dead.clone()),
                ])
                .retry(few_attempts(1, 2.0))
                .build(),
        );
        add(
            format!("unacked/{when}/two_dead_servers_without_policy"),
            tiny()
                .strategy(strategy.clone())
                .servers(vec![
                    tiny_spec("edge-a").with_faults(dead.clone()),
                    tiny_spec("edge-b").with_faults(dead.clone()),
                ])
                .build(),
        );
        add(
            format!("unacked/{when}/fleet_of_one_without_policy"),
            tiny().strategy(strategy).up_faults(dead.clone()).build(),
        );
    }

    // Gates and meters.
    add(
        "gates/verify".into(),
        tiny()
            .snapshot(SnapshotOptions {
                verify: true,
                ..SnapshotOptions::default()
            })
            .build(),
    );
    add("gates/effects".into(), tiny().effects(true).build());
    let generous = MeterLimits::default()
        .with_ops(u64::MAX / 2)
        .with_heap_cells(usize::MAX / 2)
        .with_string_len(usize::MAX / 2)
        .with_call_depth(usize::MAX / 2)
        .with_time_slice(hour);
    add(
        "meter/generous".into(),
        tiny().meter(generous.clone()).build(),
    );
    add(
        "meter/ops10_goes_local".into(),
        tiny().meter(MeterLimits::default().with_ops(10)).build(),
    );
    add(
        "meter/slice_kill_fails_over".into(),
        tiny()
            .servers(vec![
                tiny_spec("edge-a")
                    .with_meter(MeterLimits::default().with_time_slice(secs(0.000001))),
                tiny_spec("edge-b"),
            ])
            .build(),
    );
    add(
        "meter/fleet_wide_overridden_per_server".into(),
        tiny()
            .meter(generous)
            .servers(vec![
                tiny_spec("edge-a").with_meter(MeterLimits::default().with_ops(1)),
                tiny_spec("edge-b"),
            ])
            .build(),
    );

    // Heterogeneous fleets: one candidate strictly better, and one where
    // the ranking depends on how many bytes are priced (low latency and
    // low bandwidth against high latency and high bandwidth).
    add(
        "fleet/strictly_better_secondary".into(),
        tiny()
            .servers(vec![
                tiny_spec("edge-a").with_link(LinkConfig::mbps(5.0)),
                tiny_spec("edge-b"),
            ])
            .build(),
    );
    add(
        "fleet/ranking_depends_on_priced_bytes".into(),
        ScenarioConfig::paper_builder("agenet")
            .servers(vec![
                ServerSpec::new(
                    "near-thin",
                    edge_server_x86(),
                    LinkConfig {
                        latency: secs(0.0005),
                        ..LinkConfig::mbps(20.0)
                    },
                ),
                ServerSpec::new(
                    "far-fat",
                    edge_server_x86(),
                    LinkConfig {
                        latency: secs(0.2),
                        ..LinkConfig::mbps(200.0)
                    },
                ),
            ])
            .build(),
    );

    // Compression (the `compression` bench's two regimes).
    for on in [false, true] {
        add(
            format!("compress/tiny_after_ack/{on}"),
            tiny().compress(on).build(),
        );
        add(
            format!("compress/googlenet_1st_pool_5mbps/{on}"),
            ScenarioConfig::paper_builder("googlenet")
                .cut("1st_pool")
                .link(LinkConfig::mbps(5.0))
                .compress(on)
                .build(),
        );
    }

    // The predictor's acceptance scenario: pre-send corruption seeds the
    // health window, then the snapshot upload corrupts forever.
    let policy = RetryPolicy {
        max_attempts: 4,
        deadline: secs(600.0),
        backoff_base: secs(30.0),
        backoff_max: secs(60.0),
    };
    let presend_corrupt = corrupt(Duration::ZERO, secs(20.0));
    let probe = run_scenario(
        &ScenarioConfig::paper_builder("googlenet")
            .up_faults(presend_corrupt.clone())
            .retry(policy.clone())
            .build(),
    )
    .unwrap();
    let (snap_up, _) = snapshot_up_window(&probe.trace);
    let plan = presend_corrupt
        .corrupt(snap_up - ms, snap_up + hour)
        .unwrap();
    for predict in [false, true] {
        add(
            format!("predict/googlenet_corrupting_uplink/{predict}"),
            ScenarioConfig::paper_builder("googlenet")
                .up_faults(plan.clone())
                .retry(policy.clone())
                .predict(predict)
                .build(),
        );
    }
    rows
}

/// The JSONL with every pre-ship gate event dropped — one event per
/// line, so a line filter.
fn gate_stripped(jsonl: &str) -> String {
    jsonl
        .lines()
        .filter(|line| !line.contains("\"kind\":\"gate\""))
        .flat_map(|line| [line, "\n"])
        .collect()
}

/// `(report hash, JSONL trace hash, gate-stripped JSONL hash)` of one
/// run; an error hashes its `{:?}` rendering and an empty trace.
fn fingerprint(cfg: &ScenarioConfig) -> (u64, u64, u64) {
    match run_scenario(cfg) {
        Ok(mut report) => {
            let jsonl = std::mem::take(&mut report.trace).to_jsonl();
            (
                fnv1a(format!("{report:?}").as_bytes()),
                fnv1a(jsonl.as_bytes()),
                fnv1a(gate_stripped(&jsonl).as_bytes()),
            )
        }
        Err(e) => (fnv1a(format!("{e:?}").as_bytes()), fnv1a(b""), fnv1a(b"")),
    }
}

#[test]
fn scenarios_match_the_two_driver_fixtures() {
    let configs = configs();
    let mut moved = Vec::new();
    for (i, (name, cfg)) in configs.iter().enumerate() {
        let want = FIXTURES.get(i).filter(|f| f.0 == name);
        let want = want.map_or((0, 0, 0), |f| (f.1, f.2, f.3));
        let got = fingerprint(cfg);
        if got != want {
            let note = |moved: bool, what: &'static str| if moved { what } else { "" };
            moved.push(format!(
                "    (\"{name}\", {:#018x}, {:#018x}, {:#018x}),{}{}{}",
                got.0,
                got.1,
                got.2,
                note(got.0 != want.0, " // report moved"),
                note(got.1 != want.1, " // trace moved"),
                note(got.2 != want.2, " // gate-stripped trace moved"),
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "{} of {} scenarios moved:\n{}",
        moved.len(),
        configs.len(),
        moved.join("\n")
    );
    assert_eq!(FIXTURES.len(), configs.len(), "one fixture per config");
}

#[rustfmt::skip]
const FIXTURES: &[(&str, u64, u64, u64)] = &[
    ("agenet/client", 0x364637bbf16864b2, 0xf2914f497264df9d, 0xf2914f497264df9d),
    ("agenet/server", 0xe4fcbc83af95a770, 0x4c87db0348db6f77, 0x4c87db0348db6f77),
    ("agenet/before_ack", 0x32dffae4104995df, 0xaaa49493a31ff250, 0xaaa49493a31ff250),
    ("agenet/after_ack", 0x179a29391146ad34, 0x7eee67c56f594a23, 0x7eee67c56f594a23),
    ("agenet/1st_pool", 0x5d71afe5b792fe4d, 0x43c3510b62b63272, 0x43c3510b62b63272),
    ("agenet/3rd_pool", 0xea1b585751d6d839, 0x764491cf157d0620, 0x764491cf157d0620),
    ("gendernet/client", 0xfb2abed38640e4b7, 0x38d66781131fe9c7, 0x38d66781131fe9c7),
    ("gendernet/server", 0x7de58954f685e05d, 0x2e0e8ed2b0beec35, 0x2e0e8ed2b0beec35),
    ("gendernet/before_ack", 0x35cafcdc527c5810, 0xcdeffbbc7a3f1639, 0xcdeffbbc7a3f1639),
    ("gendernet/after_ack", 0x2ad5f34686208461, 0x64388aa9c971a40c, 0x64388aa9c971a40c),
    ("gendernet/1st_pool", 0x1c843bda55b19479, 0x1b4d1b2be5558e76, 0x1b4d1b2be5558e76),
    ("gendernet/3rd_pool", 0x78909f788f072131, 0xcc7ab44b9f8ae080, 0xcc7ab44b9f8ae080),
    ("googlenet/client", 0xe97751195d1ec34b, 0xa364b95778e0b10f, 0xa364b95778e0b10f),
    ("googlenet/server", 0x95a291ca865b5f1f, 0x9cd2f441b1afe285, 0x9cd2f441b1afe285),
    ("googlenet/before_ack", 0x9d8efe0e3747235f, 0x4bb995f97b624e75, 0x4bb995f97b624e75),
    ("googlenet/after_ack", 0xea00bf8a65123c74, 0x93d53e76fad890e6, 0x93d53e76fad890e6),
    ("googlenet/1st_pool", 0x1fd781414c1c8083, 0x2a867a7d83745490, 0x2a867a7d83745490),
    ("googlenet/3rd_pool", 0x2a6a6aa613de5ddb, 0x9c6c8c8730ea89a1, 0x9c6c8c8730ea89a1),
    ("tiny/client", 0xb59e24f87c543afc, 0x1a36cc5712935782, 0x1a36cc5712935782),
    ("tiny/server", 0x639b3c3f09ae69c2, 0xf59d5279d39ed4da, 0xf59d5279d39ed4da),
    ("tiny/before_ack", 0x012c8254e08774e9, 0xb923f5371a6d14dc, 0xb923f5371a6d14dc),
    ("tiny/after_ack", 0x568e57c201b32aa4, 0xacaa83d2b139e4dd, 0xacaa83d2b139e4dd),
    ("tiny/1st_pool", 0x45092451a594a149, 0xe9e62a468689e161, 0xe9e62a468689e161),
    ("chaos/after_ack/1s/seed1/retry", 0x568e57c201b32aa4, 0xacaa83d2b139e4dd, 0xacaa83d2b139e4dd),
    ("chaos/after_ack/1s/seed1/retry+predict", 0x9f82e7637197da44, 0xc45f9e7253c9d4d6, 0x5fad1dff49e63d8a), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/after_ack/1s/seed1/fleet", 0x16868835fc3bed8e, 0x7b92936cd0f4c15a, 0x7b92936cd0f4c15a),
    ("chaos/after_ack/1s/seed1/compress", 0xb8470fc822ed11f4, 0xc27878dae34dc219, 0xc27878dae34dc219),
    ("chaos/after_ack/100ms/seed1/retry", 0xb31a8429e0f68629, 0xd26386d39232a57c, 0xd26386d39232a57c),
    ("chaos/after_ack/100ms/seed1/retry+predict", 0x9f82e7637197da44, 0xc45f9e7253c9d4d6, 0x5fad1dff49e63d8a), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/after_ack/100ms/seed1/fleet", 0xc95be75a37c8a06d, 0xc97f214c9c5ebe05, 0xc97f214c9c5ebe05),
    ("chaos/after_ack/100ms/seed1/compress", 0x1dad53665fe31acb, 0x730fbe0c9cff01a1, 0x730fbe0c9cff01a1),
    ("chaos/after_ack/1s/seed2/retry", 0x568e57c201b32aa4, 0xacaa83d2b139e4dd, 0xacaa83d2b139e4dd),
    ("chaos/after_ack/1s/seed2/retry+predict", 0x9f82e7637197da44, 0xc45f9e7253c9d4d6, 0x5fad1dff49e63d8a), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/after_ack/1s/seed2/fleet", 0x16868835fc3bed8e, 0x7b92936cd0f4c15a, 0x7b92936cd0f4c15a),
    ("chaos/after_ack/1s/seed2/compress", 0xb8470fc822ed11f4, 0xc27878dae34dc219, 0xc27878dae34dc219),
    ("chaos/after_ack/100ms/seed2/retry", 0x568e57c201b32aa4, 0xacaa83d2b139e4dd, 0xacaa83d2b139e4dd),
    ("chaos/after_ack/100ms/seed2/retry+predict", 0x9f82e7637197da44, 0xc45f9e7253c9d4d6, 0x5fad1dff49e63d8a), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/after_ack/100ms/seed2/fleet", 0x16868835fc3bed8e, 0x7b92936cd0f4c15a, 0x7b92936cd0f4c15a),
    ("chaos/after_ack/100ms/seed2/compress", 0xb8470fc822ed11f4, 0xc27878dae34dc219, 0xc27878dae34dc219),
    ("chaos/after_ack/1s/seed3/retry", 0x568e57c201b32aa4, 0xacaa83d2b139e4dd, 0xacaa83d2b139e4dd),
    ("chaos/after_ack/1s/seed3/retry+predict", 0x9f82e7637197da44, 0xc45f9e7253c9d4d6, 0x5fad1dff49e63d8a), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/after_ack/1s/seed3/fleet", 0x16868835fc3bed8e, 0x7b92936cd0f4c15a, 0x7b92936cd0f4c15a),
    ("chaos/after_ack/1s/seed3/compress", 0xb8470fc822ed11f4, 0xc27878dae34dc219, 0xc27878dae34dc219),
    ("chaos/after_ack/100ms/seed3/retry", 0x568e57c201b32aa4, 0xacaa83d2b139e4dd, 0xacaa83d2b139e4dd),
    ("chaos/after_ack/100ms/seed3/retry+predict", 0x9f82e7637197da44, 0xc45f9e7253c9d4d6, 0x5fad1dff49e63d8a), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/after_ack/100ms/seed3/fleet", 0x16868835fc3bed8e, 0x7b92936cd0f4c15a, 0x7b92936cd0f4c15a),
    ("chaos/after_ack/100ms/seed3/compress", 0xb8470fc822ed11f4, 0xc27878dae34dc219, 0xc27878dae34dc219),
    ("chaos/after_ack/1s/seed5/retry", 0x5e0e148d554676b8, 0x15f4922e71770c56, 0x15f4922e71770c56),
    ("chaos/after_ack/1s/seed5/retry+predict", 0x9f82e7637197da44, 0xc45f9e7253c9d4d6, 0x5fad1dff49e63d8a), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/after_ack/1s/seed5/fleet", 0xd29ad6d86e833c62, 0xafe27e2efba7fccf, 0xafe27e2efba7fccf),
    ("chaos/after_ack/1s/seed5/compress", 0x4ff01677b3d204bb, 0x79fadebac7227122, 0x79fadebac7227122),
    ("chaos/after_ack/100ms/seed5/retry", 0x568e57c201b32aa4, 0xacaa83d2b139e4dd, 0xacaa83d2b139e4dd),
    ("chaos/after_ack/100ms/seed5/retry+predict", 0x9f82e7637197da44, 0xc45f9e7253c9d4d6, 0x5fad1dff49e63d8a), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/after_ack/100ms/seed5/fleet", 0x16868835fc3bed8e, 0x7b92936cd0f4c15a, 0x7b92936cd0f4c15a),
    ("chaos/after_ack/100ms/seed5/compress", 0xb8470fc822ed11f4, 0xc27878dae34dc219, 0xc27878dae34dc219),
    ("chaos/after_ack/1s/seed8/retry", 0x25c9c7a110037fd2, 0x613fc34d9d210ec3, 0x613fc34d9d210ec3),
    ("chaos/after_ack/1s/seed8/retry+predict", 0x9f82e7637197da44, 0xc45f9e7253c9d4d6, 0x5fad1dff49e63d8a), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/after_ack/1s/seed8/fleet", 0xda608ad6e6929878, 0x0b3f2dbb713d69da, 0x0b3f2dbb713d69da),
    ("chaos/after_ack/1s/seed8/compress", 0x2a5c5a451133fbc2, 0xbe2fabe4f7b018af, 0xbe2fabe4f7b018af),
    ("chaos/after_ack/100ms/seed8/retry", 0x568e57c201b32aa4, 0xacaa83d2b139e4dd, 0xacaa83d2b139e4dd),
    ("chaos/after_ack/100ms/seed8/retry+predict", 0x9f82e7637197da44, 0xc45f9e7253c9d4d6, 0x5fad1dff49e63d8a), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/after_ack/100ms/seed8/fleet", 0x16868835fc3bed8e, 0x7b92936cd0f4c15a, 0x7b92936cd0f4c15a),
    ("chaos/after_ack/100ms/seed8/compress", 0xb8470fc822ed11f4, 0xc27878dae34dc219, 0xc27878dae34dc219),
    ("chaos/before_ack/1s/seed1/retry", 0x012c8254e08774e9, 0xb923f5371a6d14dc, 0xb923f5371a6d14dc),
    ("chaos/before_ack/1s/seed1/retry+predict", 0x0057386dde350df7, 0x4f9d4518f0c4a487, 0x1edfdb2c034ddb2c), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/before_ack/1s/seed1/fleet", 0x29e95766cf523b2d, 0xb4ca4a94e48cfbaf, 0xb4ca4a94e48cfbaf),
    ("chaos/before_ack/1s/seed1/compress", 0x79e13ac38d51064d, 0xdf3caf73f4ab05cb, 0xdf3caf73f4ab05cb),
    ("chaos/before_ack/100ms/seed1/retry", 0x012c8254e08774e9, 0xb923f5371a6d14dc, 0xb923f5371a6d14dc),
    ("chaos/before_ack/100ms/seed1/retry+predict", 0x0057386dde350df7, 0x4f9d4518f0c4a487, 0x1edfdb2c034ddb2c), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/before_ack/100ms/seed1/fleet", 0x29e95766cf523b2d, 0xb4ca4a94e48cfbaf, 0xb4ca4a94e48cfbaf),
    ("chaos/before_ack/100ms/seed1/compress", 0x79e13ac38d51064d, 0xdf3caf73f4ab05cb, 0xdf3caf73f4ab05cb),
    ("chaos/before_ack/1s/seed2/retry", 0x012c8254e08774e9, 0xb923f5371a6d14dc, 0xb923f5371a6d14dc),
    ("chaos/before_ack/1s/seed2/retry+predict", 0x0057386dde350df7, 0x4f9d4518f0c4a487, 0x1edfdb2c034ddb2c), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/before_ack/1s/seed2/fleet", 0x29e95766cf523b2d, 0xb4ca4a94e48cfbaf, 0xb4ca4a94e48cfbaf),
    ("chaos/before_ack/1s/seed2/compress", 0x79e13ac38d51064d, 0xdf3caf73f4ab05cb, 0xdf3caf73f4ab05cb),
    ("chaos/before_ack/100ms/seed2/retry", 0xb1f1b6ee7de84d9f, 0x9ed2c59430739da3, 0x9ed2c59430739da3),
    ("chaos/before_ack/100ms/seed2/retry+predict", 0x0057386dde350df7, 0x4f9d4518f0c4a487, 0x1edfdb2c034ddb2c), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/before_ack/100ms/seed2/fleet", 0x96c1780950b3ebf7, 0x2574d358ff1cf936, 0x2574d358ff1cf936),
    ("chaos/before_ack/100ms/seed2/compress", 0x7d91434add4c4629, 0xdc0c40c3ba7bc6d6, 0xdc0c40c3ba7bc6d6),
    ("chaos/before_ack/1s/seed3/retry", 0x012c8254e08774e9, 0xb923f5371a6d14dc, 0xb923f5371a6d14dc),
    ("chaos/before_ack/1s/seed3/retry+predict", 0x0057386dde350df7, 0x4f9d4518f0c4a487, 0x1edfdb2c034ddb2c), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/before_ack/1s/seed3/fleet", 0x29e95766cf523b2d, 0xb4ca4a94e48cfbaf, 0xb4ca4a94e48cfbaf),
    ("chaos/before_ack/1s/seed3/compress", 0x79e13ac38d51064d, 0xdf3caf73f4ab05cb, 0xdf3caf73f4ab05cb),
    ("chaos/before_ack/100ms/seed3/retry", 0x012c8254e08774e9, 0xb923f5371a6d14dc, 0xb923f5371a6d14dc),
    ("chaos/before_ack/100ms/seed3/retry+predict", 0x0057386dde350df7, 0x4f9d4518f0c4a487, 0x1edfdb2c034ddb2c), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/before_ack/100ms/seed3/fleet", 0x29e95766cf523b2d, 0xb4ca4a94e48cfbaf, 0xb4ca4a94e48cfbaf),
    ("chaos/before_ack/100ms/seed3/compress", 0x79e13ac38d51064d, 0xdf3caf73f4ab05cb, 0xdf3caf73f4ab05cb),
    ("chaos/before_ack/1s/seed5/retry", 0xdd6d2c3868b1bf29, 0x6ed38861ecbed351, 0x6ed38861ecbed351),
    ("chaos/before_ack/1s/seed5/retry+predict", 0x0057386dde350df7, 0x4f9d4518f0c4a487, 0x1edfdb2c034ddb2c), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/before_ack/1s/seed5/fleet", 0xf5610e3db991536d, 0xc1e5086d693a61c2, 0xc1e5086d693a61c2),
    ("chaos/before_ack/1s/seed5/compress", 0x944bced581c44fdc, 0xc62e3b31b537b52c, 0xc62e3b31b537b52c),
    ("chaos/before_ack/100ms/seed5/retry", 0x32705f32933faa46, 0x473f875706906edc, 0x473f875706906edc),
    ("chaos/before_ack/100ms/seed5/retry+predict", 0x0057386dde350df7, 0x4f9d4518f0c4a487, 0x1edfdb2c034ddb2c), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/before_ack/100ms/seed5/fleet", 0x8001f0d5aedfd26c, 0x8ae7e09f21a01a61, 0x8ae7e09f21a01a61),
    ("chaos/before_ack/100ms/seed5/compress", 0xc2c29da4232a9ccd, 0xfcd7bcc21dce92bb, 0xfcd7bcc21dce92bb),
    ("chaos/before_ack/1s/seed8/retry", 0xb2aeba15fedde73b, 0x27c5cbce33921dca, 0x27c5cbce33921dca),
    ("chaos/before_ack/1s/seed8/retry+predict", 0x0057386dde350df7, 0x4f9d4518f0c4a487, 0x1edfdb2c034ddb2c), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/before_ack/1s/seed8/fleet", 0xc49460f548033dd3, 0xfd0d4f2513cfaea1, 0xfd0d4f2513cfaea1),
    ("chaos/before_ack/1s/seed8/compress", 0x643bd908d38cc773, 0xe327976dfba7bd06, 0xe327976dfba7bd06),
    ("chaos/before_ack/100ms/seed8/retry", 0x965820ae57329749, 0xb8d50357dc7efdab, 0xb8d50357dc7efdab),
    ("chaos/before_ack/100ms/seed8/retry+predict", 0x0057386dde350df7, 0x4f9d4518f0c4a487, 0x1edfdb2c034ddb2c), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/before_ack/100ms/seed8/fleet", 0x5b80c90f2514a30d, 0x3e595d8d413dd888, 0x3e595d8d413dd888),
    ("chaos/before_ack/100ms/seed8/compress", 0x1dd2de40e1afd832, 0xb6ea9c7e63946dd8, 0xb6ea9c7e63946dd8),
    ("chaos/1st_pool/1s/seed1/retry", 0x45092451a594a149, 0xe9e62a468689e161, 0xe9e62a468689e161),
    ("chaos/1st_pool/1s/seed1/retry+predict", 0xd3f932c38879444e, 0xf5279e2747c24c37, 0xab38003c529c69d2), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/1st_pool/1s/seed1/fleet", 0xb48728f7d1d3910d, 0x51ab66260970b0f6, 0x51ab66260970b0f6),
    ("chaos/1st_pool/1s/seed1/compress", 0xf8f34f1f6055ab31, 0xf56ff7e4e46236a3, 0xf56ff7e4e46236a3),
    ("chaos/1st_pool/100ms/seed1/retry", 0xd1ba0f8d16f5a805, 0xb2766af94b627664, 0xb2766af94b627664),
    ("chaos/1st_pool/100ms/seed1/retry+predict", 0xd3f932c38879444e, 0xf5279e2747c24c37, 0xab38003c529c69d2), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/1st_pool/100ms/seed1/fleet", 0xebfa41160edff889, 0x6df3829f35c8c155, 0x6df3829f35c8c155),
    ("chaos/1st_pool/100ms/seed1/compress", 0x58ef1154e63117f7, 0x23313251b296b343, 0x23313251b296b343),
    ("chaos/1st_pool/1s/seed2/retry", 0x45092451a594a149, 0xe9e62a468689e161, 0xe9e62a468689e161),
    ("chaos/1st_pool/1s/seed2/retry+predict", 0xd3f932c38879444e, 0xf5279e2747c24c37, 0xab38003c529c69d2), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/1st_pool/1s/seed2/fleet", 0xb48728f7d1d3910d, 0x51ab66260970b0f6, 0x51ab66260970b0f6),
    ("chaos/1st_pool/1s/seed2/compress", 0xf8f34f1f6055ab31, 0xf56ff7e4e46236a3, 0xf56ff7e4e46236a3),
    ("chaos/1st_pool/100ms/seed2/retry", 0x45092451a594a149, 0xe9e62a468689e161, 0xe9e62a468689e161),
    ("chaos/1st_pool/100ms/seed2/retry+predict", 0xd3f932c38879444e, 0xf5279e2747c24c37, 0xab38003c529c69d2), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/1st_pool/100ms/seed2/fleet", 0xb48728f7d1d3910d, 0x51ab66260970b0f6, 0x51ab66260970b0f6),
    ("chaos/1st_pool/100ms/seed2/compress", 0xf8f34f1f6055ab31, 0xf56ff7e4e46236a3, 0xf56ff7e4e46236a3),
    ("chaos/1st_pool/1s/seed3/retry", 0x45092451a594a149, 0xe9e62a468689e161, 0xe9e62a468689e161),
    ("chaos/1st_pool/1s/seed3/retry+predict", 0xd3f932c38879444e, 0xf5279e2747c24c37, 0xab38003c529c69d2), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/1st_pool/1s/seed3/fleet", 0xb48728f7d1d3910d, 0x51ab66260970b0f6, 0x51ab66260970b0f6),
    ("chaos/1st_pool/1s/seed3/compress", 0xf8f34f1f6055ab31, 0xf56ff7e4e46236a3, 0xf56ff7e4e46236a3),
    ("chaos/1st_pool/100ms/seed3/retry", 0x10a713f66e3372b2, 0x80e3069f06fd3413, 0x80e3069f06fd3413),
    ("chaos/1st_pool/100ms/seed3/retry+predict", 0xd3f932c38879444e, 0xf5279e2747c24c37, 0xab38003c529c69d2), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/1st_pool/100ms/seed3/fleet", 0x600052e5891d0158, 0x14e44d2dcbccd4c0, 0x14e44d2dcbccd4c0),
    ("chaos/1st_pool/100ms/seed3/compress", 0x60d30ca3440a8814, 0xbb6ff5c0ceff936b, 0xbb6ff5c0ceff936b),
    ("chaos/1st_pool/1s/seed5/retry", 0x743dd08049b39985, 0x78b1c7d1e2412342, 0x78b1c7d1e2412342),
    ("chaos/1st_pool/1s/seed5/retry+predict", 0xd3f932c38879444e, 0xf5279e2747c24c37, 0xab38003c529c69d2), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/1st_pool/1s/seed5/fleet", 0x706399c6cfb03909, 0xd594e156f2e4e14f, 0xd594e156f2e4e14f),
    ("chaos/1st_pool/1s/seed5/compress", 0xe0587cfcfa8408eb, 0xa9be9a0722b58e8d, 0xa9be9a0722b58e8d),
    ("chaos/1st_pool/100ms/seed5/retry", 0x45092451a594a149, 0xe9e62a468689e161, 0xe9e62a468689e161),
    ("chaos/1st_pool/100ms/seed5/retry+predict", 0xd3f932c38879444e, 0xf5279e2747c24c37, 0xab38003c529c69d2), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/1st_pool/100ms/seed5/fleet", 0xb48728f7d1d3910d, 0x51ab66260970b0f6, 0x51ab66260970b0f6),
    ("chaos/1st_pool/100ms/seed5/compress", 0xf8f34f1f6055ab31, 0xf56ff7e4e46236a3, 0xf56ff7e4e46236a3),
    ("chaos/1st_pool/1s/seed8/retry", 0x19351cf4c8c85b85, 0x39fd8e3252389163, 0x39fd8e3252389163),
    ("chaos/1st_pool/1s/seed8/retry+predict", 0xd3f932c38879444e, 0xf5279e2747c24c37, 0xab38003c529c69d2), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/1st_pool/1s/seed8/fleet", 0x3be85a7a58d30f09, 0x11bd4e060c27b5f6, 0x11bd4e060c27b5f6),
    ("chaos/1st_pool/1s/seed8/compress", 0x362039e572b07ebd, 0xd3f2055e2843a333, 0xd3f2055e2843a333),
    ("chaos/1st_pool/100ms/seed8/retry", 0x45092451a594a149, 0xe9e62a468689e161, 0xe9e62a468689e161),
    ("chaos/1st_pool/100ms/seed8/retry+predict", 0xd3f932c38879444e, 0xf5279e2747c24c37, 0xab38003c529c69d2), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:…`
    ("chaos/1st_pool/100ms/seed8/fleet", 0xb48728f7d1d3910d, 0x51ab66260970b0f6, 0x51ab66260970b0f6),
    ("chaos/1st_pool/100ms/seed8/compress", 0xf8f34f1f6055ab31, 0xf56ff7e4e46236a3, 0xf56ff7e4e46236a3),
    ("aimed/mid_transfer_outage", 0x9f361935b4e18923, 0xa6fdd85245a7b5ea, 0xa6fdd85245a7b5ea),
    ("aimed/refused_upload", 0xe3fa137f8a95fdfa, 0x21e7392eff1526db, 0x21e7392eff1526db),
    ("aimed/corrupt_and_retransmit", 0xfb8895df43be7832, 0x8437ee4343baa6ef, 0x8437ee4343baa6ef),
    ("aimed/outage_without_policy", 0x98d820888a0fb67f, 0xcbf29ce484222325, 0xcbf29ce484222325),
    ("aimed/budget_exhausted_at_snapshot", 0x8a505e0b35c25171, 0x87067a1642863192, 0x87067a1642863192),
    ("aimed/corrupt_uploads_give_up", 0xc408bb0927aca893, 0x2a94ae876778ad4e, 0x2a94ae876778ad4e), // give-up clock fix: the fallback starts after the last corrupted copy
    ("aimed/corrupt_downloads_give_up", 0xdd15d0ef7bb68978, 0x4621ca075d527dcf, 0x4621ca075d527dcf), // give-up clock fix
    ("aimed/mid_migration_handoff", 0x463b0b847a7c7705, 0xfd44b42880730d60, 0xfd44b42880730d60), // mid-migration re-capture (+1 capture_client)
    ("aimed/downlink_dies_mid_round_handoff", 0x5332f99ee236231e, 0x33ece728fb431a97, 0x33ece728fb431a97), // mid-migration re-capture
    ("presend/failover_to_edge_b", 0x5a579b92f5c1f621, 0x41b3661cf68cef52, 0x41b3661cf68cef52),
    ("presend/failover_without_policy", 0x5a579b92f5c1f621, 0x0def8e549bbe9b60, 0x0def8e549bbe9b60),
    ("presend/corrupt_primary_fails_over_late", 0xee16796f0ba8b27f, 0xba29c520b5c2dc10, 0xba29c520b5c2dc10),
    ("presend/corrupt_primary_fails_over_late/before_ack", 0x7ddd0b8d62980042, 0xd7a0a923b02b05dd, 0xd7a0a923b02b05dd),
    ("unacked/after_ack/fleet_of_one_down_for_an_hour", 0x5a9a7eb0dcc5df0c, 0xc3c8ded25c23790c, 0xc3c8ded25c23790c),
    ("unacked/after_ack/two_dead_servers", 0x5a9a7eb0dcc5df0c, 0x6dbb305dc9ab1a05, 0x6dbb305dc9ab1a05),
    ("unacked/after_ack/two_dead_servers_without_policy", 0x5a9a7eb0dcc5df0c, 0x845a52be7af8f28e, 0x845a52be7af8f28e),
    ("unacked/after_ack/fleet_of_one_without_policy", 0x98d820888a0fb67f, 0xcbf29ce484222325, 0xcbf29ce484222325),
    ("unacked/before_ack/fleet_of_one_down_for_an_hour", 0xcb248ab398447b47, 0xc3c8ded25c23790c, 0xc3c8ded25c23790c),
    ("unacked/before_ack/two_dead_servers", 0xcb248ab398447b47, 0x6dbb305dc9ab1a05, 0x6dbb305dc9ab1a05),
    ("unacked/before_ack/two_dead_servers_without_policy", 0xcb248ab398447b47, 0x845a52be7af8f28e, 0x845a52be7af8f28e),
    ("unacked/before_ack/fleet_of_one_without_policy", 0x98d820888a0fb67f, 0xcbf29ce484222325, 0xcbf29ce484222325),
    ("gates/verify", 0x568e57c201b32aa4, 0x26565f5bbbad2878, 0xacaa83d2b139e4dd), // ISSUE 21: `verify_client`/`verify_server` are `gate:verify:ship:0:0`
    ("gates/effects", 0x568e57c201b32aa4, 0x30468c9ddc625b9f, 0xacaa83d2b139e4dd), // ISSUE 21: a configured gate records its `ship` verdict too (`gate:effects:ship:0:0`)
    ("meter/generous", 0x568e57c201b32aa4, 0x9eb820fe4fa831bb, 0x9eb820fe4fa831bb),
    ("meter/ops10_goes_local", 0x2c4ed7d63b6d6796, 0x40fc2b9264ea272c, 0x40fc2b9264ea272c),
    ("meter/slice_kill_fails_over", 0x488b8743d6908761, 0x5e8e2bce38f2fc6e, 0x5e8e2bce38f2fc6e), // mid-migration re-capture (failover after a meter kill)
    ("meter/fleet_wide_overridden_per_server", 0x7b545e285d58b920, 0xc2caa16983598c5b, 0xc2caa16983598c5b), // mid-migration re-capture (failover after a meter kill)
    ("fleet/strictly_better_secondary", 0x5a579b92f5c1f621, 0xae3e267ca735f8fd, 0xae3e267ca735f8fd),
    ("fleet/ranking_depends_on_priced_bytes", 0xd40783e629ae2a6e, 0x2766fe08b86160ce, 0x2766fe08b86160ce), // the session's initial selection prices the image only, not the model (ISSUE 13's fourth decided divergence)
    ("compress/tiny_after_ack/false", 0x568e57c201b32aa4, 0xacaa83d2b139e4dd, 0xacaa83d2b139e4dd),
    ("compress/googlenet_1st_pool_5mbps/false", 0x2eceabd54b924e4d, 0x13925d36b6607aa6, 0x13925d36b6607aa6),
    ("compress/tiny_after_ack/true", 0xb8470fc822ed11f4, 0xc27878dae34dc219, 0xc27878dae34dc219),
    ("compress/googlenet_1st_pool_5mbps/true", 0x8b510bbebcdb2018, 0x19ee3dff3cc5c145, 0x19ee3dff3cc5c145),
    ("predict/googlenet_corrupting_uplink/false", 0xa1151b680581dba4, 0xe7c747973807b8d2, 0xe7c747973807b8d2), // give-up clock fix
    ("predict/googlenet_corrupting_uplink/true", 0x41f3e1c038450855, 0x25181660094a5240, 0x19daf239628062e0), // ISSUE 21: `predict:local` + `proactive_local` are one `gate:plan:local:<offload us>:<local us>`
];
