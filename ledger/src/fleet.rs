//! The fleet workloads: one unit is one engine — build, then `run()` to
//! the horizon. Arrivals (closed loop / Poisson) are *simulated* traffic
//! in virtual time; the harness load is still a closed loop of one.
//!
//! The engine is opaque from outside too, but its `Workload` trait is
//! public: [`Timed`] wraps a workload, clocks every `begin_round` /
//! `compute` / `continue_round` the engine makes, and the engine's self
//! time is `run()` minus the wrapped calls.

use crate::harness::{Span, NONE};
use crate::oracle::LocalOracle;
use crate::report::Row;
use crate::spec::{self, Kind};
use crate::{Prepared, UnitOutcome};
use snapedge_core::engine::{Engine, EngineStep};
use snapedge_core::{
    round_image_seed, Balancer, FleetReport, ModeledWorkload, OffloadError, RoundReport,
    SessionConfig, SessionWorkload, Workload,
};
use std::time::{Duration, Instant};

/// Call counts and total wall time of one wrapped method.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallStats {
    /// Calls made.
    pub calls: u64,
    /// Total wall nanoseconds inside them.
    pub ns: u64,
}

impl CallStats {
    fn add(&mut self, d: Duration) {
        self.calls += 1;
        self.ns += d.as_nanos() as u64;
    }

    /// Mean nanoseconds per call.
    pub fn mean_ns(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }
}

/// Where [`Timed`] keeps individual call spans: times count from
/// `epoch`, and at most `room` spans are kept.
#[derive(Debug, Clone, Copy)]
pub struct CallLog {
    /// The span recorder's epoch (`Spans::epoch`).
    pub epoch: Instant,
    /// Spans to keep at most (`Spans::room`).
    pub room: usize,
}

/// A [`Workload`] that clocks the engine's calls into the workload it
/// wraps. Totals are always kept; individual spans only when a
/// [`CallLog`] is given and has room. The engine hands its workload back
/// by shared reference only, so the spans wait here until the caller
/// adopts them into its recorder.
pub struct Timed<W> {
    inner: W,
    /// `begin_round` / `begin_round_balanced` calls.
    pub begin: CallStats,
    /// `compute` calls.
    pub compute: CallStats,
    /// `continue_round` calls.
    pub cont: CallStats,
    /// Client of every completed round, in completion order — the order
    /// of `SessionWorkload::reports()`.
    pub completions: Vec<usize>,
    /// Spans of individual calls (parentless; round id = client).
    pub calls: Vec<Span>,
    log: Option<CallLog>,
    /// Wall nanoseconds of every wrapped call, in call order — kept only
    /// after [`Timed::keeping_each_call`].
    pub each_ns: Vec<u64>,
    keep_each: bool,
}

impl<W: Workload> Timed<W> {
    /// Wraps `inner`; with `log`, each wrapped call also leaves a span
    /// whose round id is the client index.
    pub fn new(inner: W, log: Option<CallLog>) -> Timed<W> {
        Timed {
            inner,
            begin: CallStats::default(),
            compute: CallStats::default(),
            cont: CallStats::default(),
            completions: Vec::new(),
            calls: Vec::new(),
            log,
            each_ns: Vec::new(),
            keep_each: false,
        }
    }

    /// Also keeps every call's duration, in call order (`each_ns`). The
    /// engine is deterministic, so two units of one config make the same
    /// calls in the same order.
    pub fn keeping_each_call(mut self) -> Timed<W> {
        self.keep_each = true;
        self
    }

    /// The wrapped workload.
    pub fn inner(&self) -> &W {
        &self.inner
    }

    /// Total wall nanoseconds inside the wrapped workload.
    pub fn workload_ns(&self) -> u64 {
        self.begin.ns + self.compute.ns + self.cont.ns
    }

    /// Books one call that started at `t` and just returned.
    fn book(&mut self, name: &'static str, client: usize, t: Instant) -> Duration {
        let took = t.elapsed();
        if self.keep_each {
            self.each_ns.push(took.as_nanos() as u64);
        }
        if let Some(log) = self.log {
            if self.calls.len() < log.room {
                let start_ns = t.duration_since(log.epoch).as_nanos() as u64;
                self.calls.push(Span {
                    name,
                    start_ns,
                    end_ns: start_ns + took.as_nanos() as u64,
                    parent: NONE,
                    round_id: client as u32,
                });
            }
        }
        took
    }

    fn note(&mut self, step: &Result<EngineStep, OffloadError>) {
        if let Ok(EngineStep::Done(outcome)) = step {
            self.completions.push(outcome.client);
        }
    }
}

impl<W: Workload> Workload for Timed<W> {
    fn clients(&self) -> usize {
        self.inner.clients()
    }

    fn begin_round(
        &mut self,
        client: usize,
        at: Duration,
        image_seed: u64,
    ) -> Result<EngineStep, OffloadError> {
        let t = Instant::now();
        let step = self.inner.begin_round(client, at, image_seed);
        let took = self.book("workload.begin_round", client, t);
        self.begin.add(took);
        self.note(&step);
        step
    }

    fn compute(&mut self, client: usize, admitted_at: Duration) -> Result<Duration, OffloadError> {
        let t = Instant::now();
        let released = self.inner.compute(client, admitted_at);
        let took = self.book("workload.compute", client, t);
        self.compute.add(took);
        released
    }

    fn continue_round(&mut self, client: usize) -> Result<EngineStep, OffloadError> {
        let t = Instant::now();
        let step = self.inner.continue_round(client);
        let took = self.book("workload.continue_round", client, t);
        self.cont.add(took);
        self.note(&step);
        step
    }

    fn begin_round_balanced(
        &mut self,
        client: usize,
        at: Duration,
        image_seed: u64,
        balancer: &Balancer,
    ) -> Result<EngineStep, OffloadError> {
        let t = Instant::now();
        let step = self
            .inner
            .begin_round_balanced(client, at, image_seed, balancer);
        let took = self.book("workload.begin_round", client, t);
        self.begin.add(took);
        self.note(&step);
        step
    }

    fn note_deferred(&mut self, client: usize, server: usize, at: Duration) {
        self.inner.note_deferred(client, server, at);
    }

    fn note_batch(&mut self, clients: &[usize], server: usize, at: Duration) {
        self.inner.note_batch(clients, server, at);
    }
}

/// Wall times and outputs of one traced engine unit.
pub struct TimedUnit<W> {
    /// Engine construction, microseconds.
    pub build_us: f64,
    /// `run()`, microseconds.
    pub run_us: f64,
    /// The engine, for its report sources (`workload()`, `event_log()`).
    pub engine: Engine<Timed<W>>,
    /// What `run()` returned.
    pub report: FleetReport,
}

fn server_names(cfg: &SessionConfig) -> Vec<String> {
    cfg.servers.iter().map(|s| s.name.clone()).collect()
}

/// Runs `engine`, whose construction started at `building`.
fn run_timed<W: Workload>(
    building: Instant,
    mut engine: Engine<Timed<W>>,
) -> Result<TimedUnit<W>, OffloadError> {
    let build_us = building.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let report = engine.run()?;
    let run_us = t.elapsed().as_secs_f64() * 1e6;
    Ok(TimedUnit {
        build_us,
        run_us,
        engine,
        report,
    })
}

/// Builds and runs `fleet_real` through [`Timed`] — the same engine
/// `Engine::sessions` builds (seeded from the config, balancing off) —
/// keeping every call's duration (~300 calls).
pub fn timed_real(
    cfg: &SessionConfig,
    log: Option<CallLog>,
) -> Result<TimedUnit<SessionWorkload>, OffloadError> {
    let building = Instant::now();
    let workload = Timed::new(
        SessionWorkload::new(cfg.clone(), spec::FLEET_REAL_CLIENTS)?,
        log,
    )
    .keeping_each_call();
    let engine = Engine::with_workload(workload, server_names(cfg)).seed(cfg.seed);
    run_timed(building, spec::shape_real(engine))
}

/// Builds and runs `fleet_modeled` through [`Timed`] — the same engine
/// `Engine::modeled` builds.
pub fn timed_modeled(
    cfg: &SessionConfig,
    log: Option<CallLog>,
) -> Result<TimedUnit<ModeledWorkload>, OffloadError> {
    let building = Instant::now();
    let workload = Timed::new(
        ModeledWorkload::new(cfg.clone(), spec::FLEET_MODELED_CLIENTS)?,
        log,
    );
    let engine = Engine::with_workload(workload, server_names(cfg)).seed(cfg.seed);
    run_timed(building, spec::shape_modeled(engine))
}

/// Checks every report of a `fleet_real` run against the local oracle of
/// its client and round; returns the failures.
pub fn check_real(
    cfg: &SessionConfig,
    reports: &[RoundReport],
    completions: &[usize],
) -> Result<u64, OffloadError> {
    if reports.len() != completions.len() {
        eprintln!(
            "output check: {} reports but {} completions",
            reports.len(),
            completions.len()
        );
        return Ok(reports.len().max(1) as u64);
    }
    let mut oracles: Vec<Option<LocalOracle>> = Vec::new();
    oracles.resize_with(spec::FLEET_REAL_CLIENTS, || None);
    let mut failed = 0;
    for (report, &client) in reports.iter().zip(completions) {
        let Some(slot) = oracles.get_mut(client) else {
            failed += 1;
            continue;
        };
        let oracle = match slot {
            Some(oracle) => oracle,
            None => {
                // `SessionWorkload` seeds client c's session `cfg.seed + c`.
                let mut per_client = cfg.clone();
                per_client.seed = cfg.seed.wrapping_add(client as u64);
                slot.insert(LocalOracle::new(&per_client)?)
            }
        };
        let image_seed = round_image_seed(cfg.seed, client as u64, report.round as u64);
        let local = oracle.result(image_seed)?;
        if report.fell_back || report.result != local {
            eprintln!(
                "output check: client {client} round {} shows {:?}, local execution shows {:?}",
                report.round, report.result, local
            );
            failed += 1;
        }
    }
    Ok(failed)
}

/// A fleet workload after set-up.
pub struct FleetPrepared {
    kind: Kind,
    cfg: SessionConfig,
    /// The warm-up unit's report: what every timed unit must reproduce.
    pub expected: FleetReport,
    expected_rounds: Vec<RoundReport>,
    warmup_failed: u64,
}

impl FleetPrepared {
    /// Set-up: generate the config, run the untimed warm-up unit through
    /// [`Timed`], and check its every round against the oracle
    /// (`fleet_real`) or keep its report as the reference
    /// (`fleet_modeled`, which has no per-round output to check).
    pub fn new(kind: Kind, seed: u64) -> Result<FleetPrepared, OffloadError> {
        match kind {
            Kind::FleetReal => {
                let cfg = spec::fleet_real_config(seed);
                let unit = timed_real(&cfg, None)?;
                let timed = unit.engine.workload();
                let reports = timed.inner().reports().to_vec();
                let warmup_failed =
                    check_real(&cfg, &reports, &timed.completions)? + unit.report.fallbacks as u64;
                Ok(FleetPrepared {
                    kind,
                    cfg,
                    expected: unit.report,
                    expected_rounds: reports,
                    warmup_failed,
                })
            }
            _ => {
                let cfg = spec::fleet_modeled_config(seed);
                let unit = timed_modeled(&cfg, None)?;
                Ok(FleetPrepared {
                    kind,
                    cfg,
                    warmup_failed: unit.report.fallbacks as u64,
                    expected: unit.report,
                    expected_rounds: Vec::new(),
                })
            }
        }
    }

    /// The generated config — all the program sees of `--seed`.
    pub fn cfg(&self) -> &SessionConfig {
        &self.cfg
    }

    /// `pieces` are the wall times `run()` splits into, milliseconds.
    fn outcome(
        &self,
        build_ms: f64,
        run_ms: f64,
        pieces: Vec<f64>,
        unit_ms: f64,
        report: &FleetReport,
        bad: u64,
    ) -> UnitOutcome {
        let rounds = report.completed as u64;
        // A unit whose report differs from the reference fails whole.
        let failed = if *report == self.expected {
            bad
        } else {
            eprintln!("output check: fleet report differs from the warm-up unit's");
            rounds.max(1)
        };
        // A fleet run is a one-shot job whose clients all start cold: what
        // it pays once is all of it. (Construction alone is 46 µs for
        // `fleet_modeled`; `core.engine.build_us_per_client` is its row.)
        let mut cold_pieces_ms = vec![build_ms];
        cold_pieces_ms.extend(&pieces);
        cold_pieces_ms.push((unit_ms - build_ms - run_ms).max(0.0));
        UnitOutcome {
            unit_ms,
            round_ms: vec![run_ms / rounds.max(1) as f64],
            round_pieces_ms: pieces,
            piece_rounds: rounds,
            cold_pieces_ms,
            rounds,
            clients: report.clients as u64,
            failed,
        }
    }
}

impl Prepared for FleetPrepared {
    /// One timed unit. `fleet_modeled` goes through the program's own
    /// constructor, nothing wrapped. `fleet_real` goes through
    /// [`timed_real`]: [`Timed`] costs two
    /// clock readings per call (~300 calls of up to 5 ms in a 400 ms
    /// `run()`) and splits the `run()` into pieces short enough to fall
    /// between two spells of interference.
    fn unit(&mut self) -> Result<UnitOutcome, OffloadError> {
        let ms = |since: Instant| since.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        match self.kind {
            Kind::FleetReal => {
                let TimedUnit {
                    build_us,
                    run_us,
                    engine,
                    report,
                } = timed_real(&self.cfg, None)?;
                let timed = engine.workload();
                let bad =
                    crate::steady::count_mismatches(&self.expected_rounds, timed.inner().reports());
                let mut pieces: Vec<f64> =
                    timed.each_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
                // The engine's own share of run(): what the calls leave.
                pieces.push((run_us / 1e3 - pieces.iter().sum::<f64>()).max(0.0));
                drop(engine);
                Ok(self.outcome(build_us / 1e3, run_us / 1e3, pieces, ms(t), &report, bad))
            }
            _ => {
                let mut engine = spec::build_fleet_modeled(&self.cfg)?;
                let build_ms = ms(t);
                let report = engine.run()?;
                let run_ms = ms(t) - build_ms;
                drop(engine);
                Ok(self.outcome(build_ms, run_ms, vec![run_ms], ms(t), &report, 0))
            }
        }
    }

    fn warmup_failed(&self) -> u64 {
        self.warmup_failed
    }

    fn warmup_rounds(&self) -> u64 {
        self.expected.completed as u64
    }

    fn virtual_rows(&self) -> Vec<Row> {
        let r = &self.expected;
        let bytes: u64 = self
            .expected_rounds
            .iter()
            .map(|r| r.up_bytes + r.down_bytes)
            .sum();
        let wire = Row::exact(
            "virt.wire_bytes_per_round",
            "B",
            bytes as f64 / self.expected_rounds.len().max(1) as f64,
        );
        vec![
            Row::exact("virt.round_s_p50", "virt_s", r.latency.p50.as_secs_f64()),
            Row::exact("virt.round_s_p99", "virt_s", r.latency.p99.as_secs_f64()),
            if self.expected_rounds.is_empty() {
                wire.note("the analytic workload ships no bytes")
            } else {
                wire
            },
        ]
    }
}

/// The fleet-only exact rows of a report.
pub fn fleet_virtual_rows(r: &FleetReport) -> Vec<Row> {
    let util = r.servers.iter().map(|s| s.utilization).sum::<f64>() / r.servers.len().max(1) as f64;
    vec![
        Row::exact(
            "virt.queue_wait_p99_s",
            "virt_s",
            r.queue_wait.p99.as_secs_f64(),
        ),
        Row::exact("virt.utilization", "ratio", util),
        Row::exact("virt.fairness", "ratio", r.fairness),
        Row::exact("virt.makespan_s", "virt_s", r.makespan.as_secs_f64()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapedge_core::engine::ArrivalProcess;

    /// `Timed` must be invisible to the engine: same report, same rounds,
    /// and a completion list the oracle check can follow.
    #[test]
    fn timed_wrapper_changes_nothing_and_maps_reports_to_clients() {
        fn shape<W: Workload>(e: Engine<W>) -> Engine<W> {
            e.arrival(ArrivalProcess::ClosedLoop {
                think: Duration::from_millis(500),
            })
            .duration(Duration::from_secs(2))
        }
        let cfg = SessionConfig::tiny();
        let mut plain = shape(Engine::sessions(cfg.clone(), 3).unwrap());
        let expected = plain.run().unwrap();

        let log = CallLog {
            epoch: Instant::now(),
            room: 4,
        };
        let wrapped = Timed::new(SessionWorkload::new(cfg.clone(), 3).unwrap(), Some(log));
        let mut engine = shape(Engine::with_workload(wrapped, server_names(&cfg)).seed(cfg.seed));
        let report = engine.run().unwrap();
        assert_eq!(report, expected);
        let timed = engine.workload();
        assert_eq!(timed.inner().reports(), plain.workload().reports());
        assert_eq!(timed.completions.len(), report.completed);
        assert_eq!(timed.begin.calls, report.completed as u64);
        assert_eq!(timed.compute.calls, timed.cont.calls);
        assert!(timed.workload_ns() > 0);
        assert_eq!(timed.calls.len(), 4);
        assert_eq!(timed.calls[0].name, "workload.begin_round");
    }
}
