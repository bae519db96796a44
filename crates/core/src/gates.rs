//! The pre-ship gates: everything that can keep a round off the wire,
//! in the one order it is consulted. `effects` and `plan` run at the
//! click ([`pre_ship`], called by `OffloadSession::round_start`);
//! `verify` runs on every capture (`Endpoint`). A gate that is not
//! configured is not consulted and emits nothing; a consulted gate emits
//! exactly one [`EventKind::Gate`] event through [`record`], named
//! `gate:<gate>:<ship|local|reject>:<lhs>:<rhs>` after the two numbers
//! it compared.

use crate::adaptive::{AdaptiveOffloader, AdaptivePolicy, Decision};
use crate::config::OffloadConfig;
use crate::fleet::ServerPool;
use crate::OffloadError;
use snapedge_analyze::{AnalysisOptions, EffectSummary, Mode, Severity};
use snapedge_dnn::Network;
use snapedge_trace::{EventKind, Lane, Tracer};
use snapedge_webapp::MeterLimits;
use std::time::Duration;

/// The closed set of pre-ship gates, in consultation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Gate {
    /// Static effect analysis: replay must be deterministic and the
    /// round's guaranteed cost floor must fit the server's meter.
    Effects,
    /// The adaptive planner: offloading must be predicted to beat local
    /// execution on the link and server queue as last observed.
    Plan,
    /// Static verification of the captured source.
    Verify,
}

/// What a consulted gate compared: `lhs` against `rhs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Reading {
    pub gate: Gate,
    pub lhs: u64,
    pub rhs: u64,
}

/// What a gate (or the whole chain) decided.
#[derive(Debug)]
pub(crate) enum Verdict {
    /// Nothing objects: the bytes may commit to the wire.
    Ship,
    /// Complete the round on the client; carries the gate that said so
    /// and the numbers behind it.
    Local(Reading),
    /// The migration is refused outright with this error.
    Reject(OffloadError),
}

/// A consulted gate's comparison and what it decided.
pub(crate) type Judged = (Reading, Verdict);

/// Turns a consulted gate's verdict into its trace event — the only
/// place one is emitted — and hands the verdict back.
pub(crate) fn record(
    tracer: &Tracer,
    lane: Lane,
    at: Duration,
    (reading, verdict): Judged,
    bytes: Option<u64>,
) -> Verdict {
    let gate = match reading.gate {
        Gate::Effects => "effects",
        Gate::Plan => "plan",
        Gate::Verify => "verify",
    };
    let outcome = match verdict {
        Verdict::Ship => "ship",
        Verdict::Local(_) => "local",
        Verdict::Reject(_) => "reject",
    };
    let name = format!("gate:{gate}:{outcome}:{}:{}", reading.lhs, reading.rhs);
    tracer.record_bytes(&name, lane, EventKind::Gate, at, at, bytes);
    verdict
}

/// What the click-time gates read of the round about to ship.
pub(crate) struct Round<'a> {
    pub cfg: &'a OffloadConfig,
    pub net: &'a Network,
    pub pool: &'a ServerPool,
    /// Index of the serving candidate in `pool`.
    pub current: usize,
    /// The app's effect summary; `None` when effect analysis is off.
    pub effects: Option<&'a EffectSummary>,
    /// The serving candidate's meter limits, if it is metered.
    pub meter: Option<&'a MeterLimits>,
    /// The balancer's predicted queueing delay per candidate — empty
    /// unless the fleet engine balances this session's fleet.
    pub queue_outlook: &'a [Duration],
    pub model_bytes: u64,
    pub now: Duration,
    pub ack_at: Duration,
}

/// Walks the click-time gates in order and returns the first verdict
/// that is not `Ship`, with the planner's decision when `plan` ran.
pub(crate) fn pre_ship(
    round: &Round<'_>,
    tracer: &Tracer,
) -> Result<(Verdict, Option<Decision>), OffloadError> {
    if let Some(summary) = round.effects {
        let judged = effects(summary, round.meter);
        let verdict = record(tracer, Lane::Client, round.now, judged, None);
        if !matches!(verdict, Verdict::Ship) {
            return Ok((verdict, None));
        }
    }
    // A balanced session (one the engine handed a queue outlook) needs
    // the planner's comparison for its admission prior, so it runs the
    // gate even when prediction is off.
    if round.cfg.predict || !round.queue_outlook.is_empty() {
        if let Some((judged, decision)) = plan(round)? {
            let verdict = record(tracer, Lane::Client, round.now, judged, None);
            return Ok((verdict, Some(decision)));
        }
    }
    Ok((Verdict::Ship, None))
}

/// `Local` when `tripped`, else `Ship`.
fn local_if(tripped: bool, reading: Reading) -> Judged {
    let verdict = if tripped {
        Verdict::Local(reading)
    } else {
        Verdict::Ship
    };
    (reading, verdict)
}

/// A nondeterministic app cannot be replayed elsewhere (source count
/// against 0), and a round whose guaranteed cost floor already exceeds
/// the server's meter cap would only burn link bytes before the
/// inevitable kill (floor against cap). Trips when `lhs > rhs`.
fn effects(summary: &EffectSummary, meter: Option<&MeterLimits>) -> Judged {
    let doomed = meter.and_then(|limits| summary.cost.guaranteed_exhaustion(limits));
    let (lhs, rhs) = match (summary.nondet.len() as u64, doomed) {
        (0, Some((floor, cap))) => (floor, cap),
        (sources, _) => (sources, 0),
    };
    let gate = Gate::Effects;
    local_if(lhs > rhs, Reading { gate, lhs, rhs })
}

/// Predicted offload time against predicted local time, in microseconds,
/// on the serving candidate's windowed link health. The offload side
/// carries three additive priors: the backoff sleeps the expected
/// retries would cost, effect analysis's guaranteed op floor priced at
/// the meter's nominal microsecond per interpreter op (server-side app
/// glue the layer-time model cannot see), and the queue outlook's
/// predicted wait for the server's CPU (zero without one). Trips when
/// `lhs >= rhs`. `None` before the estimator has a sample to plan against.
fn plan(round: &Round<'_>) -> Result<Option<(Judged, Decision)>, OffloadError> {
    let (Some(spec), Some(health)) = (
        round.pool.spec(round.current),
        round.pool.health(round.current),
    ) else {
        return Ok(None);
    };
    let Some(link) = health.estimator().as_link_config(&spec.link) else {
        return Ok(None);
    };
    let retries = health.predict(round.now).predicted_retries;
    let policy = round.cfg.retry.clone().unwrap_or_default();
    let op_floor = round.effects.map_or(0, |summary| summary.cost.min_ops);
    let queue_wait = round
        .queue_outlook
        .get(round.current)
        .copied()
        .unwrap_or_default();
    let penalty = policy
        .cumulative_backoff(retries)
        .saturating_add(Duration::from_micros(op_floor))
        .saturating_add(queue_wait);
    // Before the ACK no model bytes have been confirmed; after it, all
    // of them have (the pre-send is a single acknowledged upload).
    let model_ready = round.now >= round.ack_at;
    let acked = if model_ready { round.model_bytes } else { 0 };
    let plan = AdaptiveOffloader::new(
        round.net.clone(),
        round.cfg.client_device.clone(),
        spec.device.clone(),
        round.model_bytes,
        AdaptivePolicy::default(),
    )
    .plan_with(&link, model_ready, acked, penalty)?;
    let reading = Reading {
        gate: Gate::Plan,
        lhs: plan.offload.as_micros() as u64,
        rhs: plan.local_time.as_micros() as u64,
    };
    let judged = local_if(plan.decision == Decision::Local, reading);
    Ok(Some((judged, plan.decision)))
}

/// Static verification of generated snapshot (or delta) `source` against
/// a host surface: error-severity findings against 0. A snapshot with
/// any is rejected before any link traffic and before the retry budget
/// is touched.
pub(crate) fn verify(source: &str, mode: Mode, hosts: Vec<String>, ambient: Vec<String>) -> Judged {
    let opts = AnalysisOptions {
        mode,
        hosts,
        ambient,
    };
    let report = match mode {
        Mode::Delta => snapedge_analyze::analyze_script(source, &opts),
        _ => snapedge_analyze::analyze_html(source, &opts),
    };
    let findings: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.to_string())
        .collect();
    let reading = Reading {
        gate: Gate::Verify,
        lhs: findings.len() as u64,
        rhs: 0,
    };
    let verdict = if findings.is_empty() {
        Verdict::Ship
    } else {
        Verdict::Reject(OffloadError::Verify(format!(
            "snapshot failed static verification ({}): {}",
            report.summary(),
            findings.join("; ")
        )))
    };
    (reading, verdict)
}
