//! The steady workloads: one unit is one `OffloadSession` — construction,
//! one cold round (pre-send, full snapshot both ways), then N steady
//! `infer()` calls — driven and timed entirely from outside.

use crate::harness::{Spans, NONE};
use crate::oracle::LocalOracle;
use crate::report::Row;
use crate::spec;
use crate::stats;
use crate::{Prepared, UnitOutcome};
use snapedge_core::{Breakdown, OffloadError, OffloadSession, RoundReport, SessionConfig};
use snapedge_trace::Trace;
use std::time::{Duration, Instant};

/// Wall times and outputs of one session unit.
pub struct SessionUnit {
    /// `OffloadSession::new`, microseconds.
    pub new_us: f64,
    /// The first (cold) `infer()`, microseconds.
    pub first_us: f64,
    /// Each steady `infer()`, microseconds.
    pub steady_us: Vec<f64>,
    /// Construction through the session's drop, microseconds.
    pub unit_us: f64,
    /// Every round's report, in order.
    pub reports: Vec<RoundReport>,
}

/// What a traced unit additionally keeps for the virtual-time rows.
pub struct SessionInsight {
    /// The session's whole event trace.
    pub trace: Trace,
    /// Virtual `[start, end)` of the last steady round.
    pub last_round: (Duration, Duration),
}

/// Runs one unit. With `spans`, a `unit` span parents a
/// `core.session.new` span and one `core.session.infer` span per round
/// (round ids from 1), and the session's trace is read out before the
/// drop; without, nothing but `Instant` pairs surrounds the program.
pub fn run_unit(
    cfg: &SessionConfig,
    steady_rounds: usize,
    mut spans: Option<&mut Spans>,
) -> Result<(SessionUnit, Option<SessionInsight>), OffloadError> {
    let open = |spans: &mut Option<&mut Spans>, name, parent, round| match spans {
        Some(s) => s.open(name, parent, round),
        None => NONE,
    };
    let close = |spans: &mut Option<&mut Spans>, ix| {
        if let Some(s) = spans {
            s.close(ix);
        }
    };
    let unit_ix = open(&mut spans, "unit", NONE, NONE);
    let started = Instant::now();
    let ix = open(&mut spans, "core.session.new", unit_ix, NONE);
    let mut session = OffloadSession::new(cfg.clone())?;
    let new_us = started.elapsed().as_secs_f64() * 1e6;
    close(&mut spans, ix);

    let mut reports = Vec::with_capacity(steady_rounds + 1);
    let mut steady_us = Vec::with_capacity(steady_rounds);
    let mut first_us = 0.0;
    let mut last_round = (Duration::ZERO, Duration::ZERO);
    for round in 1..=steady_rounds + 1 {
        let image_seed = spec::steady_image_seed(cfg, round);
        let virt_start = session.now();
        let ix = open(&mut spans, "core.session.infer", unit_ix, round as u32);
        let t = Instant::now();
        let report = session.infer(image_seed)?;
        let us = t.elapsed().as_secs_f64() * 1e6;
        close(&mut spans, ix);
        if round == 1 {
            first_us = us;
        } else {
            steady_us.push(us);
        }
        last_round = (virt_start, session.now());
        reports.push(report);
    }
    // Reading the trace out is the harness's doing, not the unit's.
    let reading = Instant::now();
    let insight = spans.is_some().then(|| SessionInsight {
        trace: session.trace(),
        last_round,
    });
    let reading = reading.elapsed();
    drop(session);
    let unit_us = (started.elapsed() - reading).as_secs_f64() * 1e6;
    close(&mut spans, unit_ix);
    Ok((
        SessionUnit {
            new_us,
            first_us,
            steady_us,
            unit_us,
            reports,
        },
        insight,
    ))
}

/// Rounds of `got` that are missing, fell back, or differ from
/// `expected` in any reported field (bytes, virtual time, result, …).
pub fn count_mismatches(expected: &[RoundReport], got: &[RoundReport]) -> u64 {
    let differing = expected
        .iter()
        .zip(got)
        .filter(|(e, g)| e != g || g.fell_back)
        .count();
    (differing + expected.len().abs_diff(got.len())) as u64
}

/// Median of a session's last ten steady rounds over the median of its
/// first ten (rounds 2–11); `None` below twenty steady rounds.
pub fn drift_ratio(steady_us: &[f64]) -> Option<f64> {
    if steady_us.len() < 20 {
        return None;
    }
    let head = stats::median(&stats::sorted(&steady_us[..10]))?;
    let tail = stats::median(&stats::sorted(&steady_us[steady_us.len() - 10..]))?;
    (head > 0.0).then_some(tail / head)
}

/// A steady workload after set-up.
pub struct SteadyPrepared {
    /// The generated session config — all the program sees of `--seed`.
    pub cfg: SessionConfig,
    /// Steady rounds per unit.
    pub steady_rounds: usize,
    /// The warm-up unit's reports: what every timed unit must reproduce.
    pub expected: Vec<RoundReport>,
    /// Warm-up rounds whose result differed from the local oracle.
    pub warmup_failed: u64,
}

impl SteadyPrepared {
    /// Set-up: generate the config, compute the oracle, run and check the
    /// untimed warm-up unit.
    pub fn new(
        model: &str,
        cut: Option<&str>,
        steady_rounds: usize,
        seed: u64,
    ) -> Result<SteadyPrepared, OffloadError> {
        let cfg = spec::session_config(model, cut, seed);
        let mut oracle = LocalOracle::new(&cfg)?;
        let (unit, _) = run_unit(&cfg, steady_rounds, None)?;
        let mut warmup_failed = 0;
        for report in &unit.reports {
            let local = oracle.result(spec::steady_image_seed(&cfg, report.round))?;
            if report.fell_back || report.result != local {
                eprintln!(
                    "output check: round {} shows {:?}, local execution shows {:?}",
                    report.round, report.result, local
                );
                warmup_failed += 1;
            }
        }
        Ok(SteadyPrepared {
            cfg,
            steady_rounds,
            expected: unit.reports,
            warmup_failed,
        })
    }
}

impl Prepared for SteadyPrepared {
    fn unit(&mut self) -> Result<UnitOutcome, OffloadError> {
        let (unit, _) = run_unit(&self.cfg, self.steady_rounds, None)?;
        let round_ms: Vec<f64> = unit.steady_us.iter().map(|us| us / 1e3).collect();
        Ok(UnitOutcome {
            unit_ms: unit.unit_us / 1e3,
            round_pieces_ms: round_ms.clone(),
            piece_rounds: round_ms.len() as u64,
            round_ms,
            cold_pieces_ms: vec![(unit.new_us + unit.first_us) / 1e3],
            rounds: unit.reports.len() as u64,
            clients: 1,
            failed: count_mismatches(&self.expected, &unit.reports),
        })
    }

    fn warmup_failed(&self) -> u64 {
        self.warmup_failed
    }

    fn warmup_rounds(&self) -> u64 {
        self.expected.len() as u64
    }

    fn virtual_rows(&self) -> Vec<Row> {
        virtual_rows(&self.expected)
    }
}

/// The exact end-to-end numbers of one unit: virtual click-to-result
/// percentiles over all its rounds (Fig. 6) and wire bytes per round
/// (Table I).
pub fn virtual_rows(reports: &[RoundReport]) -> Vec<Row> {
    let totals = stats::sorted(
        &reports
            .iter()
            .map(|r| r.total.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let bytes: u64 = reports.iter().map(|r| r.up_bytes + r.down_bytes).sum();
    vec![
        Row::exact(
            "virt.round_s_p50",
            "virt_s",
            stats::percentile(&totals, 50.0).unwrap_or(0.0),
        ),
        Row::exact(
            "virt.round_s_p99",
            "virt_s",
            stats::percentile(&totals, 99.0).unwrap_or(0.0),
        ),
        Row::exact(
            "virt.wire_bytes_per_round",
            "B",
            bytes as f64 / reports.len().max(1) as f64,
        ),
    ]
}

/// Fig. 7's per-phase virtual breakdown of one round, in milliseconds.
pub fn phase_rows(insight: &SessionInsight) -> Vec<Row> {
    let (from, to) = insight.last_round;
    let window = insight.trace.window(from, to);
    let b = Breakdown::from_trace(&window);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    vec![
        Row::exact("virt.exec_client_ms", "virt_ms", ms(b.exec_client)),
        Row::exact("virt.capture_client_ms", "virt_ms", ms(b.capture_client)),
        Row::exact("virt.transfer_up_ms", "virt_ms", ms(b.transfer_up)),
        Row::exact("virt.restore_server_ms", "virt_ms", ms(b.restore_server)),
        Row::exact("virt.exec_server_ms", "virt_ms", ms(b.exec_server)),
        Row::exact("virt.capture_server_ms", "virt_ms", ms(b.capture_server)),
        Row::exact("virt.transfer_down_ms", "virt_ms", ms(b.transfer_down)),
        Row::exact("virt.restore_client_ms", "virt_ms", ms(b.restore_client)),
        Row::exact(
            "trace.tracer.events_per_round",
            "count",
            window.len() as f64,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_needs_twenty_rounds() {
        assert_eq!(drift_ratio(&[1.0; 19]), None);
        let mut v = vec![1.0; 10];
        v.extend([2.0; 10]);
        assert_eq!(drift_ratio(&v), Some(2.0));
    }

    #[test]
    fn a_tiny_session_unit_matches_its_oracle_and_itself() {
        let cfg = SessionConfig::tiny();
        let mut oracle = LocalOracle::new(&cfg).unwrap();
        let (a, none) = run_unit(&cfg, 2, None).unwrap();
        assert!(none.is_none());
        assert_eq!(a.reports.len(), 3);
        assert_eq!(a.steady_us.len(), 2);
        for r in &a.reports {
            let local = oracle
                .result(spec::steady_image_seed(&cfg, r.round))
                .unwrap();
            assert_eq!(r.result, local);
        }
        let mut spans = Spans::new(64);
        let (b, insight) = run_unit(&cfg, 2, Some(&mut spans)).unwrap();
        assert_eq!(count_mismatches(&a.reports, &b.reports), 0);
        assert_eq!(count_mismatches(&a.reports, &b.reports[..2]), 1);
        // unit + new + three rounds.
        assert_eq!(spans.spans().len(), 5);
        let rows = phase_rows(&insight.unwrap());
        assert!(rows
            .iter()
            .any(|r| r.name == "virt.exec_server_ms" && r.value > 0.0));
    }
}
