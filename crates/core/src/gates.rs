//! The pre-ship gates: everything that can keep a round off the wire,
//! in the one order it is consulted. Both run at the click
//! ([`pre_ship`], called by `OffloadSession::round_start`): `effects`,
//! then `plan`. Each gate's switch is an [`OffloadConfig`] field
//! (`effects`, `predict`), read here and in the session only. A gate
//! that is not configured is not consulted and emits nothing; a
//! consulted gate emits exactly one [`EventKind::Gate`] event through
//! [`record`], named `gate:<gate>:<ship|local>:<lhs>:<rhs>` after the
//! two numbers it compared. No gate chooses a cut: the session's config
//! decides it once, and a gate only ships that round or keeps it local.

use crate::config::OffloadConfig;
use crate::fleet::ServerPool;
use crate::partition::PartitionOptimizer;
use crate::OffloadError;
use snapedge_analyze::EffectSummary;
use snapedge_dnn::{CutPoint, Network};
use snapedge_trace::{EventKind, Lane, Tracer};
use snapedge_webapp::MeterLimits;
use std::cell::OnceCell;
use std::time::Duration;

/// The closed set of pre-ship gates, in consultation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Gate {
    /// Static effect analysis: replay must be deterministic and the
    /// round's guaranteed cost floor must fit the server's meter.
    Effects,
    /// The planner's price: offloading at the session's cut must be
    /// predicted to beat local execution on the link and queue as seen.
    Plan,
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
}

/// A consulted gate's comparison and what it decided.
type Judged = (Reading, Verdict);

/// Turns a consulted gate's verdict into its trace event — the only
/// place one is emitted — and hands the verdict back.
fn record(tracer: &Tracer, at: Duration, (reading, verdict): Judged) -> Verdict {
    let gate = match reading.gate {
        Gate::Effects => "effects",
        Gate::Plan => "plan",
    };
    let outcome = match verdict {
        Verdict::Ship => "ship",
        Verdict::Local(_) => "local",
    };
    let name = format!("gate:{gate}:{outcome}:{}:{}", reading.lhs, reading.rhs);
    tracer.record(&name, Lane::Client, EventKind::Gate, at, at);
    verdict
}

/// What the click-time gates read of the round about to ship.
pub(crate) struct Round<'a> {
    pub cfg: &'a OffloadConfig,
    pub net: &'a Network,
    /// The cut the round offloads at; `None` for a full offload.
    pub cut: Option<&'a CutPoint>,
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
    /// The session's planner, built by the first round that consults
    /// the `plan` gate with a link estimate to price.
    pub planner: &'a OnceCell<PartitionOptimizer>,
    pub model_bytes: u64,
    pub now: Duration,
    pub ack_at: Option<Duration>,
}

/// Walks the click-time gates in order and returns the first verdict
/// that is not `Ship`.
pub(crate) fn pre_ship(round: &Round<'_>, tracer: &Tracer) -> Result<Verdict, OffloadError> {
    if let Some(summary) = round.effects {
        let judged = effects(summary, round.meter);
        let verdict = record(tracer, round.now, judged);
        if !matches!(verdict, Verdict::Ship) {
            return Ok(verdict);
        }
    }
    // A balanced session (one the engine handed a queue outlook) needs
    // the planner's comparison for its admission prior, so it runs the
    // gate even when prediction is off.
    if round.cfg.predict || !round.queue_outlook.is_empty() {
        if let Some(judged) = plan(round)? {
            return Ok(record(tracer, round.now, judged));
        }
    }
    Ok(Verdict::Ship)
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

/// Predicted time of offloading at the round's own cut (and no other)
/// against predicted local time, in microseconds, on the serving
/// candidate's windowed link health. The offload side carries three
/// additive priors: the backoff sleeps the expected retries would cost,
/// effect analysis's guaranteed op floor priced at the meter's nominal
/// microsecond per interpreter op (server-side app glue the layer-time
/// model cannot see), and the queue outlook's predicted wait for the
/// server's CPU (zero without one): a balanced session's admission is
/// priced at its own cut too. Trips when `lhs >= rhs`. `None` before the
/// link has a bandwidth sample to plan against.
fn plan(round: &Round<'_>) -> Result<Option<Judged>, OffloadError> {
    let (Some(spec), Some(health)) = (
        round.pool.spec(round.current),
        round.pool.link(round.current),
    ) else {
        return Ok(None);
    };
    let Some(link) = health.as_link_config(&spec.link) else {
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
    // Before the ACK the whole model still queues ahead of the snapshot;
    // after it, none of it does (the pre-send is one acknowledged upload).
    let unacked = (round.ack_at.is_some_and(|ack| round.now < ack)).then_some(round.model_bytes);
    let planner = round.planner.get_or_init(|| {
        PartitionOptimizer::new(
            round.net,
            round.cfg.client_device.clone(),
            spec.device.clone(),
            link.clone(),
        )
    });
    let (offload, local) =
        planner.against_local(&spec.device, &link, round.cut, unacked, penalty)?;
    let reading = Reading {
        gate: Gate::Plan,
        lhs: micros(offload),
        rhs: micros(local),
    };
    Ok(Some(local_if(offload >= local, reading)))
}

/// `d` in whole microseconds, saturating at `u64::MAX`: a plan priced
/// beyond 2⁶⁴ µs must still read as the larger side.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}
