//! Per-layer rows of the traced run. Three sources, each timed from the
//! benchmark's own files:
//!
//! * [`session_layers`] — real sessions under spans plus checked shadow
//!   replays (see `shadow`), giving the `core.session.*`, `webapp.*`
//!   (state-dependent calls), `core.mlhost.*` and per-round `virt.*` rows;
//! * [`fleet_layers`] — engines run through `fleet::Timed`, giving the
//!   `core.engine.*`, `core.balance.*` and fleet `virt.*` rows;
//! * [`micro_rows`] — one public function per row on the workload's own
//!   bytes, minimum of N with median and quartiles.
//!
//! A traced run produces the rows of the layers its workload runs and
//! reports the others as `n/a` (see [`Owner`]); rows that depend on no
//! workload are measured once, in the `fleet_modeled` traced run.

use crate::fleet::{self, CallLog, TimedUnit};
use crate::harness::{self, sample_ns, Span, Spans, NONE};
use crate::report::Row;
use crate::shadow::{Artifacts, Shadow, ShadowRound, PROBE_FULLWALK};
use crate::spec::{self, Kind};
use crate::stats::{self, Summary};
use crate::steady::{self, SessionInsight};
use snapedge_analyze::{analyze_html, effect_summary_html, AnalysisOptions, EffectOptions};
use snapedge_core::{
    run_scenario, vm_install, FleetReport, MeterLimits, OffloadError, RoundReport, ScenarioConfig,
    SessionConfig, Strategy,
};
use snapedge_dnn::{zoo, ModelBundle, ParamStore};
use snapedge_net::{EventQueue, FaultPlan, Link, LinkConfig};
use snapedge_tensor::{ops, serialize, Tensor};
use snapedge_trace::{EventKind, Lane, Trace, Tracer};
use snapedge_vmsynth::SynthesisConfig;
use snapedge_webapp::{html, lexer, parser, Browser, DeltaCapture, HostEffect, SnapshotOptions};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Which traced runs measure a per-layer row. The others report it as
/// `n/a` with this as the reason (0 in the result line, which has to carry
/// a number for every row): the workload does not run that layer, and a
/// number borrowed from another workload would say nothing about this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owner {
    /// Every workload.
    Every,
    /// The three `steady_*` workloads: session, shadow and own-bytes rows.
    Steady,
    /// Both fleets: the engine through `fleet::Timed`.
    Fleet,
    /// No workload: fixed inputs, measured once, in the `fleet_modeled`
    /// traced run (the shortest unit leaves the most room for them).
    Shared,
}

impl Owner {
    /// Every owner.
    pub const ALL: [Owner; 4] = [Owner::Every, Owner::Steady, Owner::Fleet, Owner::Shared];

    /// Whether the traced run of `kind` measures this owner's rows.
    pub fn measured_on(self, kind: Kind) -> bool {
        match self {
            Owner::Every => true,
            Owner::Steady => matches!(kind, Kind::Steady { .. }),
            Owner::Fleet => !matches!(kind, Kind::Steady { .. }),
            Owner::Shared => kind == Kind::FleetModeled,
        }
    }

    /// Why the other traced runs report this owner's rows as `n/a`.
    pub fn reason(self) -> &'static str {
        match self {
            Owner::Every => "",
            Owner::Steady => "a fleet is not timed layer by layer; see the steady_* traced runs",
            Owner::Fleet => "no engine in a steady workload; see the fleet_* traced runs",
            Owner::Shared => "depends on no workload; measured in the fleet_modeled traced run",
        }
    }
}

/// The per-layer rows of the benchmark contract, `(name, unit, owner)`,
/// in ledger order. `BENCHMARK.json` lists exactly these (a test in
/// `spec` keeps them in step); the traced run's result line carries
/// exactly these. Two printed rows are not here: `cli.cold_start_ms`
/// needs the root workspace's `snapedge` binary, which the benchmark's
/// own build does not produce, and `core.session.shadow_virt_gap_ms` is a
/// check that reads 0, not a measurement.
#[rustfmt::skip] // one row per line
pub const CONTRACT_ROWS: [(&str, &str, Owner); 80] = [
    ("harness.trace_overhead_ratio", "ratio", Owner::Every),
    ("harness.clock_ns", "ns", Owner::Every),
    ("harness.untraced_rounds_per_s", "1/s", Owner::Every),
    ("alloc.allocs_per_round", "count", Owner::Every),
    ("alloc.bytes_per_round", "B", Owner::Every),
    ("webapp.lexer.mb_per_s", "MB/s", Owner::Steady),
    ("webapp.lexer.tokens", "count", Owner::Steady),
    ("webapp.parser.mb_per_s", "MB/s", Owner::Steady),
    ("webapp.parser.stmts", "count", Owner::Steady),
    ("webapp.html.parse_us", "us", Owner::Steady),
    ("webapp.interp.steps_per_us", "1/us", Owner::Shared),
    ("webapp.interp.client_run_us", "us", Owner::Steady),
    ("webapp.snapshot.capture_us", "us", Owner::Steady),
    ("webapp.snapshot.restore_us", "us", Owner::Steady),
    ("webapp.snapshot.bytes", "B", Owner::Steady),
    ("webapp.snapshot.heap_cells", "count", Owner::Steady),
    ("webapp.delta.state_base_us", "us", Owner::Steady),
    ("webapp.delta.capture_us", "us", Owner::Steady),
    ("webapp.delta.capture_fullwalk_us", "us", Owner::Steady),
    ("webapp.delta.apply_us", "us", Owner::Steady),
    ("webapp.delta.capture_down_us", "us", Owner::Steady),
    ("webapp.delta.apply_down_us", "us", Owner::Steady),
    ("webapp.delta.bytes_up", "B", Owner::Steady),
    ("webapp.delta.bytes_down", "B", Owner::Steady),
    ("webapp.delta.changed_globals", "count", Owner::Steady),
    ("webapp.delta.capture_held16_us", "us", Owner::Shared),
    ("webapp.delta.capture_held256_us", "us", Owner::Shared),
    ("webapp.meter.on_off_ratio", "ratio", Owner::Shared),
    ("webapp.meter.on_wins_share", "ratio", Owner::Shared),
    ("tensor.serialize.to_js_text_ns_per_float", "ns", Owner::Steady),
    ("tensor.serialize.from_js_text_ns_per_float", "ns", Owner::Steady),
    ("tensor.serialize.to_binary_ns_per_float", "ns", Owner::Steady),
    ("tensor.ops.conv2d_im2col_gflops", "GFLOP/s", Owner::Shared),
    ("tensor.ops.fc_gflops", "GFLOP/s", Owner::Shared),
    ("dnn.net.forward_real_tiny_us", "us", Owner::Shared),
    ("dnn.zoo.build_us", "us", Owner::Steady),
    ("dnn.net.forward_synthetic_us", "us", Owner::Steady),
    ("dnn.model_format.bundle_us", "us", Owner::Steady),
    ("core.mlhost.server_run_us", "us", Owner::Steady),
    ("core.mlhost.inference_self_us", "us", Owner::Steady),
    ("net.link.schedule_ns", "ns", Owner::Steady),
    ("net.link.schedule_faulted_ns", "ns", Owner::Steady),
    ("net.queue.push_pop_ns", "ns", Owner::Shared),
    ("trace.tracer.record_ns", "ns", Owner::Shared),
    ("trace.tracer.record_disabled_ns", "ns", Owner::Shared),
    ("trace.tracer.events_per_round", "count", Owner::Steady),
    ("trace.jsonl.to_jsonl_us_per_kevent", "us", Owner::Steady),
    ("trace.jsonl.from_jsonl_us_per_kevent", "us", Owner::Steady),
    ("analyze.verify_snapshot_us", "us", Owner::Steady),
    ("analyze.effects_us", "us", Owner::Steady),
    ("core.session.new_us", "us", Owner::Steady),
    ("core.session.first_round_us", "us", Owner::Steady),
    ("core.session.steady_round_us", "us", Owner::Steady),
    ("core.session.steady_round_p95_us", "us", Owner::Steady),
    ("core.session.round_drift_ratio", "ratio", Owner::Steady),
    ("core.session.shadow_gap_ratio", "ratio", Owner::Steady),
    ("core.engine.build_us_per_client", "us", Owner::Fleet),
    ("core.engine.self_us_per_event", "us", Owner::Fleet),
    ("core.engine.events", "count", Owner::Fleet),
    ("core.engine.workload_share", "ratio", Owner::Fleet),
    ("core.engine.begin_round_ns", "ns", Owner::Fleet),
    ("core.engine.compute_ns", "ns", Owner::Fleet),
    ("core.engine.continue_round_ns", "ns", Owner::Fleet),
    ("core.balance.on_ratio", "ratio", Owner::Shared),
    ("core.balance.fair_share_ratio", "ratio", Owner::Shared),
    ("core.scenario.run_us", "us", Owner::Shared),
    ("vmsynth.install_us", "us", Owner::Shared),
    ("virt.round_s_p50", "virt_s", Owner::Every),
    ("virt.round_s_p99", "virt_s", Owner::Every),
    ("virt.wire_bytes_per_round", "B", Owner::Every),
    ("virt.exec_client_ms", "virt_ms", Owner::Steady),
    ("virt.capture_client_ms", "virt_ms", Owner::Steady),
    ("virt.transfer_up_ms", "virt_ms", Owner::Steady),
    ("virt.restore_server_ms", "virt_ms", Owner::Steady),
    ("virt.exec_server_ms", "virt_ms", Owner::Steady),
    ("virt.capture_server_ms", "virt_ms", Owner::Steady),
    ("virt.transfer_down_ms", "virt_ms", Owner::Steady),
    ("virt.restore_client_ms", "virt_ms", Owner::Steady),
    ("virt.queue_wait_p99_s", "virt_s", Owner::Fleet),
    ("virt.makespan_s", "virt_s", Owner::Fleet),
];

/// Spans kept per traced run (the rest are counted as dropped).
pub const SPAN_CAP: usize = 60_000;

/// Round ids are `unit * ROUND_STRIDE + round`, unique across units.
const ROUND_STRIDE: u32 = 1024;

/// What the traced window of a workload produced.
pub struct Layers {
    /// The rows.
    pub rows: Vec<Row>,
    /// Rounds per wall second of the units under spans / under `Timed`.
    pub rounds_per_s: f64,
    /// Rounds whose check failed (shadow exactness; a fleet report under
    /// `Timed` differing from the untraced unit's fails all its rounds).
    pub failed: u64,
    /// Rounds checked.
    pub checked: u64,
}

/// Sums span durations per `(round id, name)`, then lists the per-round
/// sums of `name` over rounds accepted by `keep`.
fn per_round(spans: &[Span], name: &str, keep: impl Fn(u32) -> bool) -> Vec<f64> {
    let mut sums: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans {
        if s.name == name && s.round_id != NONE && keep(s.round_id % ROUND_STRIDE) {
            *sums.entry(s.round_id).or_default() += s.us();
        }
    }
    sums.into_values().collect()
}

fn median_row(name: &'static str, unit: &'static str, samples: &[f64], why_empty: &str) -> Row {
    match Summary::of(samples) {
        Some(s) => Row::median_of(name, unit, &s),
        None => Row::unavailable(name, unit, why_empty),
    }
}

fn check_shadow(real: &RoundReport, shade: &ShadowRound) -> bool {
    real.delta_up == shade.delta_up
        && real.up_bytes == shade.up_bytes
        && real.down_bytes == shade.down_bytes
        && real.result == shade.result
}

/// Alternates real session units under spans with checked shadow units
/// for about `budget`, tops the cold-round samples up with cold-only
/// shadows, then spends `per_row` on each micro row over the bytes those
/// rounds produced.
pub fn session_layers(
    cfg: &SessionConfig,
    steady_rounds: usize,
    budget: Duration,
    per_row: Duration,
    spans: &mut Spans,
) -> Result<Layers, OffloadError> {
    let first_span = spans.spans().len();
    let started = Instant::now();
    let (mut new_us, mut first_us, mut steady_us, mut drift) = (vec![], vec![], vec![], vec![]);
    let (mut covered_steady, mut covered_new) = (Vec::new(), Vec::new());
    let (mut real_rounds, mut real_wall_us) = (0u64, 0.0);
    let (mut shadow_failed, mut shadow_checked) = (0u64, 0u64);
    let mut virt_gap_ms: f64 = 0.0;
    let mut insight: Option<SessionInsight> = None;
    let mut artifacts = Artifacts::default();
    let mut unit_no = 0u32;
    let mut cold_samples = 0usize;

    while unit_no == 0 || started.elapsed() < budget {
        unit_no += 1;
        let (unit, seen) = steady::run_unit(cfg, steady_rounds, Some(spans))?;
        real_rounds += unit.reports.len() as u64;
        real_wall_us += unit.unit_us;
        new_us.push(unit.new_us);
        first_us.push(unit.first_us);
        steady_us.extend_from_slice(&unit.steady_us);
        drift.extend(steady::drift_ratio(&unit.steady_us));
        insight = seen.or(insight);

        let base = unit_no * ROUND_STRIDE;
        let root = spans.open("shadow.unit", NONE, NONE);
        let mut shadow = Shadow::new(cfg, spans, root, base)?;
        covered_new.push(shadow.new_covered_us);
        for real in &unit.reports {
            let shade = shadow.round(
                spec::steady_image_seed(cfg, real.round),
                spans,
                root,
                base + real.round as u32,
            )?;
            shadow_checked += 1;
            if !check_shadow(real, &shade) {
                eprintln!(
                    "shadow check: round {} session ({} B up, {} B down, {:?}) vs shadow ({} B up, {} B down, {:?})",
                    real.round, real.up_bytes, real.down_bytes, real.result,
                    shade.up_bytes, shade.down_bytes, shade.result
                );
                shadow_failed += 1;
            }
            let gap = (real.total.as_secs_f64() - shade.total.as_secs_f64()).abs() * 1e3;
            virt_gap_ms = virt_gap_ms.max(gap);
            if real.round > 1 {
                covered_steady.push(shade.covered_us);
            }
        }
        spans.close(root);
        cold_samples += 1;
        artifacts = shadow.artifacts;
    }
    // Cold rounds come one per unit; top them up so the snapshot rows
    // have at least five samples where the budget allows.
    let top_up = Instant::now();
    while cold_samples < 5 && top_up.elapsed() < budget / 4 {
        unit_no += 1;
        let base = unit_no * ROUND_STRIDE;
        let root = spans.open("shadow.cold_only", NONE, NONE);
        let mut shadow = Shadow::new(cfg, spans, root, base)?;
        shadow.round(spec::steady_image_seed(cfg, 1), spans, root, base + 1)?;
        spans.close(root);
        cold_samples += 1;
    }

    let mine = &spans.spans()[first_span.min(spans.spans().len())..];
    let steady = |r: u32| r > 1;
    let cold = |r: u32| r == 1;
    let no_delta = "no steady round shipped a delta";
    // Session and shadow units alternate, so a burst of interference can
    // hit one and miss the other; the quiet quartile of each is compared.
    let quiet = |v: &[f64]| Summary::of(v).map(|s| s.q1).unwrap_or(0.0);
    let mid = |v: &[f64]| Summary::of(v).map(|s| s.median).unwrap_or(0.0);
    let session_round = quiet(&steady_us);
    let shadow_round = quiet(&covered_steady);
    let server_run = per_round(mine, "core.mlhost.server_run", steady);

    let mut rows = vec![
        median_row("core.session.new_us", "us", &new_us, "no unit ran"),
        median_row("core.session.first_round_us", "us", &first_us, "no unit ran"),
        median_row("core.session.steady_round_us", "us", &steady_us, "no steady round ran"),
        {
            let sorted = stats::sorted(&steady_us);
            let row = Row::wall(
                "core.session.steady_round_p95_us",
                "us",
                stats::percentile(&sorted, 95.0).unwrap_or(0.0),
                sorted.len(),
            );
            match tail(&sorted) {
                Some((p, v)) => row.note(format!(
                    "{} samples beyond; highest percentile with >= 10 beyond is p{p}: {v:.1}",
                    stats::beyond(sorted.len(), 95.0)
                )),
                None => row.note("fewer than 20 samples"),
            }
        },
        median_row(
            "core.session.round_drift_ratio",
            "ratio",
            &drift,
            "needs 20 steady rounds per session",
        ),
        Row::wall(
            "core.session.shadow_gap_ratio",
            "ratio",
            if session_round > 0.0 {
                1.0 - shadow_round / session_round
            } else {
                0.0
            },
            covered_steady.len(),
        )
        .note(format!(
            "first quartiles: shadow spans cover {shadow_round:.1} us of the session's {session_round:.1} us; construction (medians): {:.1} of {:.1} us",
            mid(&covered_new),
            mid(&new_us)
        )),
        Row::exact("core.session.shadow_virt_gap_ms", "virt_ms", virt_gap_ms)
            .note(format!("{shadow_checked} shadow rounds checked, {shadow_failed} failed")),
        median_row(
            "webapp.interp.client_run_us",
            "us",
            &per_round(mine, "webapp.interp.client_run", steady),
            "no steady round ran",
        )
        .note("three client runs of a steady round"),
        median_row(
            "webapp.snapshot.capture_us",
            "us",
            &per_round(mine, "webapp.snapshot.capture", cold),
            "no cold round ran",
        ),
        median_row(
            "webapp.snapshot.restore_us",
            "us",
            &per_round(mine, "webapp.snapshot.restore", cold),
            "no cold round ran",
        ),
        median_row(
            "webapp.delta.state_base_us",
            "us",
            &per_round(mine, "webapp.delta.state_base", steady),
            "no steady round ran",
        )
        .note("server's and client's call of a steady round"),
        median_row(
            "webapp.delta.capture_us",
            "us",
            &per_round(mine, "webapp.delta.capture", steady),
            no_delta,
        ),
        median_row(
            "webapp.delta.capture_fullwalk_us",
            "us",
            &per_round(mine, PROBE_FULLWALK, steady),
            no_delta,
        )
        .note("incremental: false, same state, byte-equal script"),
        median_row(
            "webapp.delta.apply_us",
            "us",
            &per_round(mine, "webapp.delta.apply", steady),
            no_delta,
        ),
        median_row(
            "webapp.delta.capture_down_us",
            "us",
            &per_round(mine, "webapp.delta.capture_down", steady),
            no_delta,
        ),
        median_row(
            "webapp.delta.apply_down_us",
            "us",
            &per_round(mine, "webapp.delta.apply_down", steady),
            no_delta,
        ),
        median_row("core.mlhost.server_run_us", "us", &server_run, "no steady round ran"),
        Row::exact(
            "webapp.snapshot.bytes",
            "B",
            artifacts.snapshot_html.len() as f64,
        ),
        Row::exact(
            "webapp.snapshot.heap_cells",
            "count",
            artifacts.snapshot_heap_cells as f64,
        ),
        Row::exact(
            "webapp.delta.bytes_up",
            "B",
            artifacts.uplink_script.len() as f64,
        ),
        Row::exact(
            "webapp.delta.bytes_down",
            "B",
            artifacts.downlink_bytes as f64,
        ),
        Row::exact(
            "webapp.delta.changed_globals",
            "count",
            artifacts.uplink_stats.changed_globals as f64,
        ),
    ];
    if let Some(insight) = &insight {
        rows.extend(steady::phase_rows(insight));
    }
    rows.extend(own_micro_rows(
        cfg,
        &artifacts,
        insight.as_ref().map(|i| &i.trace),
        quiet(&server_run),
        per_row,
    )?);
    Ok(Layers {
        rows,
        rounds_per_s: real_rounds as f64 / (real_wall_us / 1e6).max(f64::MIN_POSITIVE),
        failed: shadow_failed,
        checked: shadow_checked,
    })
}

struct FleetSample {
    build_us: f64,
    run_us: f64,
    workload_ns: u64,
    events: usize,
    clients: usize,
    begin_ns: f64,
    compute_ns: f64,
    continue_ns: f64,
}

/// Closes the unit's span, adopts its call spans under it, and keeps the
/// numbers the rows need.
fn fleet_sample<W: snapedge_core::Workload>(
    unit: TimedUnit<W>,
    spans: &mut Spans,
    root: harness::SpanIx,
) -> (FleetSample, FleetReport) {
    spans.close(root);
    let w = unit.engine.workload();
    spans.adopt(&w.calls, root);
    let sample = FleetSample {
        build_us: unit.build_us,
        run_us: unit.run_us,
        workload_ns: w.workload_ns(),
        events: unit.engine.event_log().len(),
        clients: unit.report.clients,
        begin_ns: w.begin.mean_ns(),
        compute_ns: w.compute.mean_ns(),
        continue_ns: w.cont.mean_ns(),
    };
    (sample, unit.report)
}

/// Runs engines through `fleet::Timed` for about `budget`; the first
/// unit also records one span per wrapped call. A unit whose report is
/// not `expected` fails whole — `Timed` must be invisible to the engine.
pub fn fleet_layers(
    kind: Kind,
    cfg: &SessionConfig,
    expected: &FleetReport,
    budget: Duration,
    spans: &mut Spans,
) -> Result<Layers, OffloadError> {
    let started = Instant::now();
    let mut samples: Vec<FleetSample> = Vec::new();
    let mut failed = 0u64;
    let (mut rounds, mut wall_us) = (0u64, 0.0);
    let mut last: Option<FleetReport> = None;
    while samples.is_empty() || started.elapsed() < budget {
        // Call spans for the first unit only: a modeled unit makes ~35k.
        let log = samples.is_empty().then(|| CallLog {
            epoch: spans.epoch(),
            room: spans.room().saturating_sub(1),
        });
        let root = spans.open("unit", NONE, NONE);
        let (sample, report) = match kind {
            Kind::FleetReal => fleet_sample(fleet::timed_real(cfg, log)?, spans, root),
            _ => fleet_sample(fleet::timed_modeled(cfg, log)?, spans, root),
        };
        rounds += report.completed as u64;
        wall_us += sample.build_us + sample.run_us;
        if *expected != report {
            eprintln!("fleet check: report under Timed differs from the untraced unit's");
            failed += report.completed.max(1) as u64;
        }
        samples.push(sample);
        last = Some(report);
    }
    let Some(report) = last else {
        return Err(OffloadError::Config("no fleet unit ran".into()));
    };

    let col = |f: fn(&FleetSample) -> f64| -> Vec<f64> { samples.iter().map(f).collect() };
    let events = samples[0].events;
    let mut rows = vec![
        median_row(
            "core.engine.build_us_per_client",
            "us",
            &col(|s| s.build_us / s.clients.max(1) as f64),
            "",
        ),
        median_row(
            "core.engine.self_us_per_event",
            "us",
            &col(|s| (s.run_us - s.workload_ns as f64 / 1e3) / s.events.max(1) as f64),
            "",
        )
        .note("run() minus the wrapped calls, per event_log() entry"),
        Row::exact("core.engine.events", "count", events as f64),
        median_row(
            "core.engine.workload_share",
            "ratio",
            &col(|s| s.workload_ns as f64 / 1e3 / s.run_us),
            "",
        ),
        median_row("core.engine.begin_round_ns", "ns", &col(|s| s.begin_ns), ""),
        median_row("core.engine.compute_ns", "ns", &col(|s| s.compute_ns), ""),
        median_row(
            "core.engine.continue_round_ns",
            "ns",
            &col(|s| s.continue_ns),
            "",
        ),
    ];
    rows.extend(fleet::fleet_virtual_rows(&report));
    Ok(Layers {
        rows,
        rounds_per_s: rounds as f64 / (wall_us / 1e6).max(f64::MIN_POSITIVE),
        failed,
        checked: rounds,
    })
}

/// Wall time of a `fleet_modeled` unit with balancing / fair share on,
/// over off, as interleaved pairs.
pub fn balance_rows(cfg: &SessionConfig, pairs: usize) -> Result<Vec<Row>, OffloadError> {
    let unit = |balance: bool, fair: bool| -> Result<usize, OffloadError> {
        let mut engine = spec::build_fleet_modeled(cfg)?
            .balance(balance)
            .fair_share(fair);
        Ok(engine.run()?.completed)
    };
    let mut out = Vec::new();
    for (name, balance, fair) in [
        ("core.balance.on_ratio", true, false),
        ("core.balance.fair_share_ratio", false, true),
    ] {
        // Once outside the timing, so that an error is an error and not
        // a fast sample.
        unit(balance, fair)?;
        out.push(
            match harness::ab_pairs(pairs, 1, || unit(false, false), || unit(balance, fair)) {
                Some(ab) => Row::median_of(name, "ratio", &ab.ratio),
                None => Row::unavailable(name, "ratio", "no pair ran"),
            }
            .note("build + run() wall, option on / off, interleaved pairs"),
        );
    }
    Ok(out)
}

fn min_row(name: &'static str, unit: &'static str, ns: &[f64], scale: f64) -> Row {
    match Summary::of(ns) {
        Some(s) => Row::min_of(name, unit, &s, scale),
        None => Row::unavailable(name, unit, "no sample"),
    }
}

/// `work / time` with the sample minimum as the time (so quartiles of
/// the rate swap sides).
fn rate_row(name: &'static str, unit: &'static str, ns: &[f64], work_per_ns: f64) -> Row {
    match Summary::of(ns) {
        Some(s) => Row {
            iqr: Some((work_per_ns / s.q3, work_per_ns / s.q1)),
            ..Row::wall(name, unit, work_per_ns / s.min, s.n)
        }
        .note(format!(
            "best of {}; median {:.4}",
            s.n,
            work_per_ns / s.median
        )),
        None => Row::unavailable(name, unit, "no sample"),
    }
}

/// The `capture_incremental` page: `held` untouched array globals plus
/// one counter a handler increments.
fn ballast_app(held: usize, cells: usize) -> String {
    let mut script = String::new();
    for i in 0..held {
        script.push_str(&format!("var held{i} = ["));
        for j in 0..cells {
            if j > 0 {
                script.push(',');
            }
            script.push_str(&format!("{}", (i * cells + j) % 97));
        }
        script.push_str("];\n");
    }
    script.push_str(
        "var counter = 0;\n\
         function onTick() { counter = counter + 1; }\n\
         document.getElementById(\"btn\").addEventListener(\"tick\", onTick);\n",
    );
    format!("<html><body>\n<button id=\"btn\">go</button>\n</body>\n<script>\n{script}</script></html>\n")
}

fn held_capture(held: usize, budget: Duration) -> Result<Vec<f64>, OffloadError> {
    let mut browser = Browser::new();
    browser.load_html(&ballast_app(held, 64))?;
    browser.run_until_idle()?;
    let base = browser.state_base();
    browser.dispatch("btn", "tick")?;
    browser.run_until_idle()?;
    let opts = SnapshotOptions::default();
    Ok(sample_ns(budget, 5, 20, || {
        matches!(
            browser.capture_delta(&base, &opts),
            Ok(DeltaCapture::Delta(_))
        )
    }))
}

/// A fixed interpreter loop: locals, globals and a host call per turn.
fn interp_app() -> String {
    "<html><body></body><script>\n\
     var total = 0;\n\
     function work() {\n\
       var acc = 0;\n\
       var i = 0;\n\
       while (i < 20000) { acc = acc + Math.max(i, 1); total = total + 1; i = i + 1; }\n\
       return acc;\n\
     }\n\
     var out = work();\n\
     </script></html>"
        .to_string()
}

fn generous_meter() -> MeterLimits {
    MeterLimits::default()
        .with_ops(u64::MAX / 2)
        .with_heap_cells(usize::MAX / 2)
        .with_string_len(usize::MAX / 2)
        .with_call_depth(usize::MAX / 2)
        .with_time_slice(Duration::from_secs(3600))
}

/// The micro rows of a steady workload: one public function each, on the
/// bytes its shadow rounds produced and on its own model.
fn own_micro_rows(
    cfg: &SessionConfig,
    art: &Artifacts,
    trace: Option<&Trace>,
    server_run_us: f64,
    per_row: Duration,
) -> Result<Vec<Row>, OffloadError> {
    let mut rows = Vec::new();
    let script = art.uplink_script.as_str();
    let script_bytes = script.len() as f64;

    // webapp: lexer, parser, html.
    let tokens = lexer::lex(script)?.len();
    let stmts = parser::parse_program(script)?.len();
    let ns = sample_ns(per_row, 3, 1, || lexer::lex(script).map(|t| t.len()));
    rows.push(rate_row(
        "webapp.lexer.mb_per_s",
        "MB/s",
        &ns,
        script_bytes * 1e3,
    ));
    rows.push(Row::exact("webapp.lexer.tokens", "count", tokens as f64));
    let ns = sample_ns(per_row, 3, 1, || {
        parser::parse_program(script).map(|p| p.len())
    });
    rows.push(
        rate_row("webapp.parser.mb_per_s", "MB/s", &ns, script_bytes * 1e3)
            .note("parse_program lexes too"),
    );
    rows.push(Row::exact("webapp.parser.stmts", "count", stmts as f64));
    let ns = sample_ns(per_row, 3, 1, || {
        html::parse_document(&art.snapshot_html).map(|d| d.scripts.len())
    });
    rows.push(
        min_row("webapp.html.parse_us", "us", &ns, 1e-3).note("cold round's snapshot document"),
    );

    // dnn and tensor, on this workload's model.
    let net = zoo::by_name(&cfg.model)?;
    let empty = ParamStore::empty(net.name());
    let input = Tensor::from_fn(net.input_shape().dims(), |i| (i % 251) as f32 / 251.0)
        .map_err(snapedge_dnn::DnnError::Tensor)?;
    let ns = sample_ns(per_row, 3, 1, || {
        zoo::by_name(&cfg.model).map(|n| n.node_count())
    });
    rows.push(min_row("dnn.zoo.build_us", "us", &ns, 1e-3));
    let cut = match &cfg.cut {
        Some(label) => Some(net.cut_point(label)?.id),
        None => None,
    };
    let pool = net.cut_point("1st_pool")?.id;
    let feature = net
        .forward_until(&empty, &input, pool, cfg.exec_mode)?
        .output(pool)?
        .clone();
    // What the server's run executes: the whole net, or the rear part.
    let fwd_ns = match cut {
        Some(cut) => sample_ns(per_row, 3, 1, || {
            net.forward_from(&empty, cut, feature.clone(), cfg.exec_mode)
                .map(|f| f.final_output().len())
        }),
        None => sample_ns(per_row, 3, 1, || {
            net.forward(&empty, &input, cfg.exec_mode)
                .map(|f| f.final_output().len())
        }),
    };
    let fwd = min_row("dnn.net.forward_synthetic_us", "us", &fwd_ns, 1e-3)
        .note("the range the server's run executes");
    rows.push(
        Row::wall(
            "core.mlhost.inference_self_us",
            "us",
            server_run_us - Summary::of(&fwd_ns).map(|s| s.q1).unwrap_or(0.0) / 1e3,
            fwd.n,
        )
        .note("first quartile of the server's Endpoint::run minus first quartile of the forward"),
    );
    rows.push(fwd);
    let ns = sample_ns(per_row, 3, 1, || {
        ModelBundle::from_network(&net).total_bytes()
    });
    rows.push(min_row("dnn.model_format.bundle_us", "us", &ns, 1e-3));

    let floats = feature.len() as f64;
    let text = serialize::to_js_text(&feature);
    let note = format!("{floats} floats: this model's activation at 1st_pool");
    let ns = sample_ns(per_row, 3, 1, || serialize::to_js_text(&feature).len());
    rows.push(
        min_row(
            "tensor.serialize.to_js_text_ns_per_float",
            "ns",
            &ns,
            1.0 / floats,
        )
        .note(&note),
    );
    let ns = sample_ns(per_row, 3, 1, || {
        serialize::from_js_text(&text).map(|v| v.len())
    });
    rows.push(
        min_row(
            "tensor.serialize.from_js_text_ns_per_float",
            "ns",
            &ns,
            1.0 / floats,
        )
        .note(&note),
    );
    let ns = sample_ns(per_row, 3, 1, || serialize::to_binary(&feature).len());
    rows.push(
        min_row(
            "tensor.serialize.to_binary_ns_per_float",
            "ns",
            &ns,
            1.0 / floats,
        )
        .note(&note),
    );

    // net: link scheduling of this round's uplink.
    let bytes = art.uplink_script.len().max(1) as u64;
    let degraded = FaultPlan::none()
        .degraded(Duration::ZERO, Duration::from_secs(1 << 40), 0.5)
        .map_err(OffloadError::Net)?;
    for (name, plan, note) in [
        ("net.link.schedule_ns", FaultPlan::none(), ""),
        (
            "net.link.schedule_faulted_ns",
            degraded,
            "inside a degraded window",
        ),
    ] {
        let mut link = Link::new(LinkConfig::wifi_30mbps()).with_fault_plan(plan);
        let mut now = Duration::ZERO;
        let ns = sample_ns(per_row, 5, 1000, || {
            let x = link.schedule(now, bytes);
            if let Ok(x) = &x {
                now = x.finish;
            }
            x.is_ok()
        });
        rows.push(min_row(name, "ns", &ns, 1.0).note(note));
    }
    // trace: JSONL of the session's own trace.
    match trace {
        Some(trace) if !trace.is_empty() => {
            let kevents = trace.len() as f64 / 1e3;
            let text = trace.to_jsonl();
            let ns = sample_ns(per_row, 3, 1, || trace.to_jsonl().len());
            rows.push(
                min_row(
                    "trace.jsonl.to_jsonl_us_per_kevent",
                    "us",
                    &ns,
                    1e-3 / kevents,
                )
                .note(format!("{} events of one session", trace.len())),
            );
            let ns = sample_ns(per_row, 3, 1, || Trace::from_jsonl(&text).map(|t| t.len()));
            rows.push(min_row(
                "trace.jsonl.from_jsonl_us_per_kevent",
                "us",
                &ns,
                1e-3 / kevents,
            ));
        }
        _ => {
            for name in [
                "trace.jsonl.to_jsonl_us_per_kevent",
                "trace.jsonl.from_jsonl_us_per_kevent",
            ] {
                rows.push(Row::unavailable(name, "us", "no session trace"));
            }
        }
    }

    // analyze: both gates are off at defaults; baselines only.
    let opts = AnalysisOptions::snapshot().with_hosts(vec!["model".to_string()]);
    let ns = sample_ns(per_row, 3, 1, || {
        analyze_html(&art.snapshot_html, &opts).diagnostics.len()
    });
    rows.push(min_row("analyze.verify_snapshot_us", "us", &ns, 1e-3).note("off at defaults"));
    let opts = EffectOptions::new().with_host("model", HostEffect::Deterministic);
    let ns = sample_ns(per_row, 3, 1, || {
        effect_summary_html(&art.app_html, &opts).is_ok()
    });
    rows.push(min_row("analyze.effects_us", "us", &ns, 1e-3).note("off at defaults"));

    Ok(rows)
}

/// The micro rows that depend on no workload: fixed inputs, one public
/// function each.
pub fn shared_micro_rows(per_row: Duration) -> Result<Vec<Row>, OffloadError> {
    let mut rows = Vec::new();

    // webapp: interpreter, held-ballast capture, the meter.
    let app = interp_app();
    let mut probe = Browser::new();
    probe.load_html(&app)?;
    let steps = probe.steps() as f64;
    let ns = sample_ns(per_row, 3, 1, || {
        let mut b = Browser::new();
        b.load_html(&app).map(|()| b.steps())
    });
    rows.push(
        rate_row("webapp.interp.steps_per_us", "1/us", &ns, steps * 1e3)
            .note(format!("{steps} steps of a fixed loop")),
    );
    rows.push(min_row(
        "webapp.delta.capture_held16_us",
        "us",
        &held_capture(16, per_row)?,
        1e-3,
    ));
    rows.push(min_row(
        "webapp.delta.capture_held256_us",
        "us",
        &held_capture(256, per_row)?,
        1e-3,
    ));

    // The old `meter_overhead` micro as interleaved pairs: the earlier
    // "meter-on is 33 % faster" was run order, not the meter.
    let off = ScenarioConfig::tiny(Strategy::OffloadAfterAck);
    let on = ScenarioConfig::tiny_builder()
        .strategy(Strategy::OffloadAfterAck)
        .meter(generous_meter())
        .build();
    match harness::ab_pairs(
        20,
        5,
        || run_scenario(&off).map(|r| r.total),
        || run_scenario(&on).map(|r| r.total),
    ) {
        Some(ab) => {
            rows.push(
                Row::median_of("webapp.meter.on_off_ratio", "ratio", &ab.ratio).note(format!(
                    "tiny round: off {:.0} ns [{:.0} .. {:.0}], on {:.0} ns [{:.0} .. {:.0}]; unresolved unless the quartiles exclude 1",
                    ab.a.median, ab.a.q1, ab.a.q3, ab.b.median, ab.b.q1, ab.b.q3
                )),
            );
            rows.push(
                Row::wall(
                    "webapp.meter.on_wins_share",
                    "ratio",
                    ab.b_wins as f64 / ab.pairs.max(1) as f64,
                    ab.pairs,
                )
                .note("pairs in which meter-on was faster; 0.5 = noise"),
            );
        }
        None => {
            rows.push(Row::unavailable(
                "webapp.meter.on_off_ratio",
                "ratio",
                "no pair ran",
            ));
            rows.push(Row::unavailable(
                "webapp.meter.on_wins_share",
                "ratio",
                "no pair ran",
            ));
        }
    }

    // Real-arithmetic kernels: no end-to-end workload runs them.
    let t_err = |e| OffloadError::Dnn(snapedge_dnn::DnnError::Tensor(e));
    let conv_in = Tensor::from_fn(&[16, 32, 32], |i| (i % 97) as f32 / 97.0).map_err(t_err)?;
    let conv_w =
        Tensor::from_fn(&[16, 16, 3, 3], |i| ((i % 13) as f32 - 6.0) / 13.0).map_err(t_err)?;
    let conv_b = Tensor::zeros(&[16]).map_err(t_err)?;
    let ns = sample_ns(per_row, 3, 1, || {
        ops::conv2d_im2col(&conv_in, &conv_w, &conv_b, 1, 1, 1).map(|t| t.len())
    });
    let conv_flops = 2.0 * 16.0 * 16.0 * 9.0 * 32.0 * 32.0;
    rows.push(
        rate_row(
            "tensor.ops.conv2d_im2col_gflops",
            "GFLOP/s",
            &ns,
            conv_flops,
        )
        .note("16x32x32 input, 16 3x3 filters; no end-to-end metric"),
    );
    let fc_in = Tensor::from_fn(&[4096], |i| (i as f32).cos()).map_err(t_err)?;
    let fc_w = Tensor::from_fn(&[256, 4096], |i| ((i % 31) as f32 - 15.0) / 31.0).map_err(t_err)?;
    let fc_b = Tensor::zeros(&[256]).map_err(t_err)?;
    let ns = sample_ns(per_row, 3, 1, || {
        ops::fully_connected(&fc_in, &fc_w, &fc_b).map(|t| t.len())
    });
    rows.push(
        rate_row("tensor.ops.fc_gflops", "GFLOP/s", &ns, 2.0 * 4096.0 * 256.0)
            .note("4096 -> 256; no end-to-end metric"),
    );
    let tiny = zoo::tiny_cnn();
    let tiny_params = tiny.init_params(1)?;
    let tiny_in =
        Tensor::from_fn(tiny.input_shape().dims(), |i| (i % 7) as f32 / 7.0).map_err(t_err)?;
    let ns = sample_ns(per_row, 3, 1, || {
        tiny.forward(&tiny_params, &tiny_in, snapedge_dnn::ExecMode::Real)
            .map(|f| f.final_output().len())
    });
    rows.push(
        min_row("dnn.net.forward_real_tiny_us", "us", &ns, 1e-3).note("no end-to-end metric"),
    );

    // net: the event queue.
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut z = 1u64;
    for i in 0..10_000u64 {
        z = spec::derive(z, i);
        queue.push(Duration::from_nanos(z % 1_000_000_000), i);
    }
    let ns = sample_ns(per_row, 5, 1000, || {
        if let Some((t, e)) = queue.pop() {
            queue.push(t + Duration::from_nanos(1 + e % 1_000_000), e);
        }
        queue.len()
    });
    rows.push(
        min_row("net.queue.push_pop_ns", "ns", &ns, 1.0).note("one pop + one push, 10k deep"),
    );

    // trace: recording.
    for (name, enabled) in [
        ("trace.tracer.record_ns", true),
        ("trace.tracer.record_disabled_ns", false),
    ] {
        let mut tracer = Tracer::disabled();
        let mut at = Duration::ZERO;
        let mut left = 0u32;
        let ns = sample_ns(per_row, 5, 1000, || {
            if left == 0 {
                // A fresh buffer every 1000 events keeps memory flat; its
                // allocation is part of what a recording session pays.
                tracer = if enabled {
                    Tracer::new()
                } else {
                    Tracer::disabled()
                };
                left = 1000;
            }
            left -= 1;
            at += Duration::from_micros(10);
            tracer.record(
                "exec_server",
                Lane::Server,
                EventKind::Exec,
                at,
                at + Duration::from_micros(5),
            );
        });
        rows.push(min_row(name, "ns", &ns, 1.0));
    }

    // The second offload path and the installer: baselines, no workload.
    let scenario = ScenarioConfig::paper("agenet", Strategy::OffloadAfterAck);
    let ns = sample_ns(per_row, 2, 1, || run_scenario(&scenario).map(|r| r.total));
    rows.push(min_row("core.scenario.run_us", "us", &ns, 1e-3).note("agenet; no workload"));
    let model_bytes = ModelBundle::from_network(&zoo::by_name("agenet")?).total_bytes();
    let ns = sample_ns(per_row, 5, 10, || {
        vm_install(
            "agenet",
            model_bytes,
            &LinkConfig::wifi_30mbps(),
            &SynthesisConfig::default(),
        )
        .map(|r| r.total())
    });
    rows.push(min_row("vmsynth.install_us", "us", &ns, 1e-3).note("agenet; no workload"));
    rows.push(cli_cold_start());
    Ok(rows)
}

/// Wall time of `snapedge run --model agenet`, when the root workspace's
/// release binary has been built where this benchmark can see it.
fn cli_cold_start() -> Row {
    let name = "cli.cold_start_ms";
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let candidates = [
        std::env::var_os("CARGO_TARGET_DIR").map(std::path::PathBuf::from),
        Some(root.join("target")),
    ];
    let Some(bin) = candidates
        .into_iter()
        .flatten()
        .map(|dir| dir.join("release").join("snapedge"))
        .find(|p| p.is_file())
    else {
        return Row::unavailable(
            name,
            "ms",
            "target/release/snapedge not built (cargo build --release -p snapedge-cli)",
        );
    };
    let mut ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let status = std::process::Command::new(&bin)
            .args(["run", "--model", "agenet"])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status();
        match status {
            Ok(s) if s.success() => ms.push(t.elapsed().as_secs_f64() * 1e3),
            _ => return Row::unavailable(name, "ms", "snapedge run failed"),
        }
    }
    median_row(name, "ms", &ms, "")
        .note("spawn to exit of `snapedge run --model agenet`; no workload")
}

/// The harness's own rows.
pub fn harness_rows(traced_rps: f64, untraced_rps: f64) -> Vec<Row> {
    let clock = harness::clock_ns();
    vec![
        Row::wall(
            "harness.trace_overhead_ratio",
            "ratio",
            if untraced_rps > 0.0 {
                traced_rps / untraced_rps
            } else {
                0.0
            },
            1,
        )
        .note(format!(
            "traced {traced_rps:.2} / untraced {untraced_rps:.2} rounds per s"
        )),
        min_row("harness.clock_ns", "ns", &clock, 1.0).note("one Instant::now() pair"),
        Row::wall("harness.untraced_rounds_per_s", "1/s", untraced_rps, 1).note(
            "rounds over busy seconds of the untraced window, cold rounds and weather included",
        ),
    ]
}

/// The contract's rows in [`CONTRACT_ROWS`] order for the traced run of
/// `kind`: the measured row where this workload owns it (an owned row
/// that was not produced, or carries another unit, is a bug and an
/// error), `n/a` with the owner's reason where it does not.
pub fn contract_view(kind: Kind, rows: &[Row]) -> Result<Vec<Row>, String> {
    CONTRACT_ROWS
        .iter()
        .map(|&(name, unit, owner)| {
            if !owner.measured_on(kind) {
                return Ok(Row::unavailable(name, unit, owner.reason()));
            }
            rows.iter()
                .find(|r| r.name == name && r.unit == unit)
                .cloned()
                .ok_or_else(|| format!("layer row {name} ({unit}) was not produced"))
        })
        .collect()
}

/// The highest ladder percentile with ten samples beyond it, and its
/// value.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let p = stats::supported_tail(sorted.len())?;
    Some((p, stats::percentile(sorted, p)?))
}
