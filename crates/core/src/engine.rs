//! The megascale discrete-event fleet engine.
//!
//! Everything else in this crate advances one client's private
//! [`SimClock`](snapedge_net::SimClock) in a closed loop — the regime the
//! paper measures. This module is the regime the ROADMAP's north star
//! cares about: **thousands of concurrent clients** sharing an edge
//! fleet, where queueing at the server CPU (not link bandwidth alone)
//! decides whether offloading pays.
//!
//! # How it works
//!
//! One global virtual clock drives an event queue
//! ([`snapedge_net::EventQueue`]: a binary heap behind a sorted lane,
//! ordered by `(time, seq)` so ties break deterministically by push
//! order). Each client runs a resumable round
//! state machine (a [`Workload`]) that *yields* at the moment it needs
//! the one shared resource — the server CPU — and the engine interleaves
//! those yields:
//!
//! * [`Ev::Arrive`]: a request reaches a client (open-loop arrivals may
//!   find the client busy and queue client-side).
//! * [`Ev::Admit`]: a client's uplinked snapshot asks for server CPU.
//!   The engine grants it at `max(request, busy_until[server])` — the
//!   difference **is** the queueing delay, recorded by the session as
//!   `enqueue`/`queue_wait`/`dequeue` trace events. Contention emerges
//!   from overlapping requests instead of an analytic approximation.
//! * [`Ev::Release`]: the server CPU frees; the round's downlink and
//!   completion run on the client's private timeline.
//!
//! Links, captures and restores are per-client resources and ride each
//! session's private clock; only the server CPU serializes across
//! clients. (Snapshot restore/capture on the server ride the session's
//! pipeline too — the busy window the engine serializes is the inference
//! execution, the dominant term for DNN work.)
//!
//! Every processed event leaves one [`EngineEvent`] in
//! [`Engine::event_log`] — a `Copy` record, not text; the run loop
//! formats nothing and [`Engine::event_lines`] renders on demand.
//!
//! Two workloads share the engine through one API: [`SessionWorkload`]
//! drives real [`OffloadSession`]s (real browsers, snapshots, deltas,
//! faults, failover — bit-identical to the legacy loop for one client)
//! and [`ModeledWorkload`] uses the calibrated analytic timings so 10k+
//! clients simulate in milliseconds. Both take a [`SessionConfig`] (or a
//! bare [`OffloadConfig`]), but the analytic workload prices only the
//! model, the client device, the seed and each server's name, device and
//! link: it refuses a config that sets any other field away from
//! [`SessionConfig::paper`]'s value, rather than drop it.

use crate::balance::{jain, Balancer, DrrScheduler, DEFAULT_DRR_QUANTUM};
use crate::fleet::place;
use crate::session::{OffloadSession, RoundReport, RoundStep, SessionConfig};
use crate::{OffloadConfig, OffloadError, ServerPool, ServerSpec};
use snapedge_dnn::zoo;
use snapedge_net::EventQueue;
use snapedge_rng::{splitmix64, Rng};
use snapedge_trace::{Summary, Trace};
use std::collections::VecDeque;
use std::time::Duration;

/// Snapshot size the analytic workload prices per request: the
/// calibrated full-offload app state.
const MODELED_SNAPSHOT_BYTES: u64 = 70 * 1024;

/// The most arrivals an open-loop process may expect over the horizon
/// (crest rate × duration). [`Engine::run`] samples the whole open-loop
/// stream up front, 24 bytes an arrival, so an unbounded rate would never
/// finish sampling: 4 M arrivals is ~100 MB, over 300 × the 12 000 of the
/// busiest shipped fleet (Poisson 400/s for 30 s).
const MAX_EXPECTED_ARRIVALS: f64 = 4.0e6;

/// The per-round image seed both the engine and any legacy comparison
/// loop must use: a splitmix64 hash of `(engine_seed, client, round)`,
/// so every client/round pair gets an independent, reproducible image.
/// `round` is 1-based, matching [`RoundReport::round`].
pub fn round_image_seed(engine_seed: u64, client: u64, round: u64) -> u64 {
    let mut state = engine_seed
        .wrapping_add(client.wrapping_mul(0xA24B_AED4_963E_E407))
        .wrapping_add(round.wrapping_mul(0x9FB2_1C65_1E98_DF25));
    splitmix64(&mut state)
}

/// An empty vector with room for one `T` per client, or a config error
/// when `clients` of them cannot be held (nothing is allocated then).
fn client_slots<T>(clients: usize) -> Result<Vec<T>, OffloadError> {
    let mut slots = Vec::new();
    slots.try_reserve_exact(clients).map_err(|e| {
        OffloadError::Config(format!("the fleet cannot hold {clients} clients: {e}"))
    })?;
    Ok(slots)
}

/// How requests reach the fleet over virtual time.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Closed loop: every client issues at t=0 and re-issues `think`
    /// after each completion — the paper's interactive-user model.
    ClosedLoop {
        /// Think time between a result and the next request.
        think: Duration,
    },
    /// Open-loop Poisson bursts: exponential interarrivals at `rate_hz`
    /// requests/second fleet-wide, each assigned to a uniformly random
    /// client. Requests landing on a busy client queue client-side.
    Poisson {
        /// Fleet-wide mean arrival rate, in requests per second.
        rate_hz: f64,
    },
    /// A diurnal curve: a raised-cosine rate swinging between `base_hz`
    /// (trough) and `peak_hz` (crest) once per `period`, sampled by
    /// thinning a Poisson stream at the crest rate.
    Diurnal {
        /// Trough arrival rate, in requests per second.
        base_hz: f64,
        /// Crest arrival rate, in requests per second.
        peak_hz: f64,
        /// Length of one full trough→crest→trough cycle.
        period: Duration,
    },
}

impl ArrivalProcess {
    /// Instantaneous arrival rate at virtual time `t` (open-loop shapes
    /// only; a closed loop has no free-running rate).
    fn rate_at(&self, t: Duration) -> f64 {
        match self {
            ArrivalProcess::ClosedLoop { .. } => 0.0,
            ArrivalProcess::Poisson { rate_hz } => *rate_hz,
            ArrivalProcess::Diurnal {
                base_hz,
                peak_hz,
                period,
            } => {
                let phase = t.as_secs_f64() / period.as_secs_f64();
                let swing = 0.5 * (1.0 - (2.0 * std::f64::consts::PI * phase).cos());
                base_hz + (peak_hz - base_hz) * swing
            }
        }
    }

    /// Upper bound of [`ArrivalProcess::rate_at`] over all `t` — the
    /// thinning envelope.
    fn peak_rate(&self) -> f64 {
        match self {
            ArrivalProcess::ClosedLoop { .. } => 0.0,
            ArrivalProcess::Poisson { rate_hz } => *rate_hz,
            ArrivalProcess::Diurnal {
                base_hz, peak_hz, ..
            } => base_hz.max(*peak_hz),
        }
    }

    /// Checks an open-loop process before its stream is sampled over
    /// `horizon`: finite, non-negative rates with a positive crest, a
    /// non-zero diurnal period, and at most [`MAX_EXPECTED_ARRIVALS`]
    /// expected arrivals. A closed loop always passes.
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError::Config`] naming the first problem.
    pub fn check(&self, horizon: Duration) -> Result<(), OffloadError> {
        let (rates, period) = match self {
            ArrivalProcess::ClosedLoop { .. } => return Ok(()),
            ArrivalProcess::Poisson { rate_hz } => ([*rate_hz; 2], None),
            ArrivalProcess::Diurnal {
                base_hz,
                peak_hz,
                period,
            } => ([*base_hz, *peak_hz], Some(*period)),
        };
        let peak = self.peak_rate();
        let expected = peak * horizon.as_secs_f64();
        let problem = if rates.iter().any(|r| !r.is_finite() || *r < 0.0) {
            format!("open-loop arrival rates must be finite and non-negative, got {rates:?}")
        } else if peak <= 0.0 {
            format!("open-loop arrival process needs a positive finite rate, got {peak}")
        } else if period == Some(Duration::ZERO) {
            "a diurnal arrival process needs a non-zero period".to_string()
        } else if expected > MAX_EXPECTED_ARRIVALS {
            format!(
                "open-loop arrival process expects {expected:.3e} arrivals, \
                 above the {MAX_EXPECTED_ARRIVALS:.0e} the engine samples up front"
            )
        } else {
            return Ok(());
        };
        Err(OffloadError::Config(problem))
    }
}

/// What one completed round looked like from the fleet's point of view —
/// the workload-agnostic record [`FleetReport`] aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// Which client completed the round.
    pub client: usize,
    /// The client's 1-based round number.
    pub round: usize,
    /// Global virtual time the result landed on the client's screen.
    pub finished_at: Duration,
    /// Click-to-result time as the client experienced it.
    pub total: Duration,
    /// Whether the round gave up on offloading and completed locally.
    pub fell_back: bool,
    /// Fleet index of the server that executed the inference (`None`
    /// when the client did: a fallback round, or one a gate kept local).
    pub served_by: Option<usize>,
    /// Interpreter operations the serving server's resource meter
    /// charged this round (zero when unmetered, modeled or local).
    pub ops_used: u64,
    /// Peak heap (cells) the meter observed on the serving server (zero
    /// when unmetered, modeled or local).
    pub peak_heap: usize,
    /// Whether the round was degraded to local *proactively* — the
    /// predictive/admission gate rejected the offload before any bytes
    /// committed to the wire (contrast [`RoundOutcome::fell_back`], the
    /// reactive exhaustion path).
    pub proactive: bool,
    /// Fleet index of the server the round targeted: the one that served
    /// it, or — for a round completed on the client — the candidate the
    /// session was aimed at when it degraded. Attributes per-server
    /// admit/reject counts in the [`FleetReport`].
    pub target: usize,
}

/// Where a client's round state machine paused — what a [`Workload`]
/// hands back to the engine.
#[derive(Debug)]
pub enum EngineStep {
    /// The round needs the server CPU of fleet candidate `server`, whose
    /// uplinked request is ready at global time `at`.
    NeedCompute {
        /// Fleet candidate index whose CPU is requested.
        server: usize,
        /// Global virtual time the request is ready to execute.
        at: Duration,
    },
    /// The round completed without (further) server CPU.
    Done(RoundOutcome),
}

/// A set of concurrent clients the engine can interleave: each client is
/// a resumable round state machine yielding at its server-CPU boundary.
///
/// The engine calls, per round and per client:
/// `begin_round` → (`compute` → `continue_round`)*, where the loop
/// repeats when a failover mid-round re-drives the uplink against a
/// different server.
pub trait Workload {
    /// Number of clients (fixed for the engine run).
    fn clients(&self) -> usize;

    /// Starts a round for `client`: its request was issued at global
    /// time `at` (never earlier than the client's own timeline), and the
    /// round's input image derives from `image_seed`.
    ///
    /// # Errors
    ///
    /// Propagates app/protocol/network failures from the round.
    fn begin_round(
        &mut self,
        client: usize,
        at: Duration,
        image_seed: u64,
    ) -> Result<EngineStep, OffloadError>;

    /// Grants the server CPU the client asked for, admitted at global
    /// time `admitted_at` (later than requested when the CPU was busy —
    /// the queueing delay). Returns the time the CPU frees.
    ///
    /// # Errors
    ///
    /// Propagates server-side execution failures.
    fn compute(&mut self, client: usize, admitted_at: Duration) -> Result<Duration, OffloadError>;

    /// Resumes the round after its compute grant: downlink, completion —
    /// or another [`EngineStep::NeedCompute`] when a mid-round failover
    /// re-drove the uplink against a different server.
    ///
    /// # Errors
    ///
    /// Propagates app/protocol/network failures from the round.
    fn continue_round(&mut self, client: usize) -> Result<EngineStep, OffloadError>;

    /// Like [`Workload::begin_round`], with the engine's queue-delay
    /// [`Balancer`] in hand — called instead of `begin_round` when
    /// balancing is on. Workloads that place clients (or gate
    /// admission) consult [`Balancer::outlook`]; the default ignores
    /// it and stays load-blind.
    ///
    /// # Errors
    ///
    /// Propagates app/protocol/network failures from the round.
    fn begin_round_balanced(
        &mut self,
        client: usize,
        at: Duration,
        image_seed: u64,
        balancer: &Balancer,
    ) -> Result<EngineStep, OffloadError> {
        let _ = balancer;
        self.begin_round(client, at, image_seed)
    }

    /// Notifies the workload that `client`'s compute admission was
    /// parked behind `server`'s busy CPU at time `at` under fair-share
    /// ordering (tracing hook; the default does nothing).
    fn note_deferred(&mut self, client: usize, server: usize, at: Duration) {
        let _ = (client, server, at);
    }

    /// Notifies the workload that `clients` were granted `server`'s CPU
    /// together at time `at` as one opportunistic batch (tracing hook;
    /// the default does nothing).
    fn note_batch(&mut self, clients: &[usize], server: usize, at: Duration) {
        let _ = (clients, server, at);
    }
}

/// The full-fidelity workload: one real [`OffloadSession`] per client —
/// real browsers, snapshots, deltas, faults, fleet failover. Each
/// client's session is seeded `cfg.seed + client` and placed as client
/// `client`, so client 0 of a 1-client fleet replays the legacy loop
/// bit for bit.
pub struct SessionWorkload {
    sessions: Vec<OffloadSession>,
    reports: Vec<RoundReport>,
}

impl SessionWorkload {
    /// Builds `clients` sessions from one config (anything convertible
    /// into a [`SessionConfig`], including a bare
    /// [`OffloadConfig`](crate::OffloadConfig)).
    ///
    /// # Errors
    ///
    /// Propagates session construction failures (unknown model, empty
    /// fleet, a pre-send fault under strict fail-fast), and returns
    /// [`OffloadError::Config`] for more clients than memory can hold. A
    /// client whose pre-send gave up is no failure: it starts
    /// unprovisioned, and its rounds complete locally until it
    /// re-provisions.
    pub fn new(
        cfg: impl Into<SessionConfig>,
        clients: usize,
    ) -> Result<SessionWorkload, OffloadError> {
        let cfg: SessionConfig = cfg.into();
        let mut sessions = client_slots(clients)?;
        for client in 0..clients {
            let mut per_client = cfg.clone();
            per_client.seed = cfg.seed.wrapping_add(client as u64);
            sessions.push(OffloadSession::for_client(per_client, client)?);
        }
        Ok(SessionWorkload {
            sessions,
            reports: Vec::new(),
        })
    }

    /// Every completed [`RoundReport`], in completion order.
    pub fn reports(&self) -> &[RoundReport] {
        &self.reports
    }

    /// The event trace of one client's session (all its rounds).
    pub fn trace(&self, client: usize) -> Option<Trace> {
        self.sessions.get(client).map(OffloadSession::trace)
    }

    fn session(&mut self, client: usize) -> Result<&mut OffloadSession, OffloadError> {
        self.sessions
            .get_mut(client)
            .ok_or_else(|| OffloadError::Config(format!("workload has no client {client}")))
    }

    fn step_of(&mut self, client: usize, step: RoundStep) -> EngineStep {
        match step {
            RoundStep::NeedCompute => {
                let (server, at) = (self.sessions.get(client))
                    .map(|s| (s.current_server(), s.now()))
                    .unwrap_or_default();
                EngineStep::NeedCompute { server, at }
            }
            RoundStep::Done(report) => {
                let (finished_at, target) = self
                    .sessions
                    .get(client)
                    .map(|s| (s.now(), s.current_server()))
                    .unwrap_or_default();
                let outcome = RoundOutcome {
                    client,
                    round: report.round,
                    finished_at,
                    total: report.total,
                    fell_back: report.fell_back,
                    // A remote round is reported under its server's name
                    // and leaves the session pointing at that server.
                    served_by: report.server.is_some().then_some(target),
                    ops_used: report.ops_used,
                    peak_heap: report.peak_heap,
                    proactive: report.proactive,
                    target,
                };
                self.reports.push(report);
                EngineStep::Done(outcome)
            }
        }
    }
}

impl Workload for SessionWorkload {
    fn clients(&self) -> usize {
        self.sessions.len()
    }

    fn begin_round(
        &mut self,
        client: usize,
        at: Duration,
        image_seed: u64,
    ) -> Result<EngineStep, OffloadError> {
        let session = self.session(client)?;
        session.advance_clock_to(at);
        let step = session.round_start(image_seed)?;
        Ok(self.step_of(client, step))
    }

    fn compute(&mut self, client: usize, admitted_at: Duration) -> Result<Duration, OffloadError> {
        let session = self.session(client)?;
        session.round_compute(admitted_at)?;
        Ok(session.now())
    }

    fn continue_round(&mut self, client: usize) -> Result<EngineStep, OffloadError> {
        let step = self.session(client)?.round_finish()?;
        Ok(self.step_of(client, step))
    }

    fn begin_round_balanced(
        &mut self,
        client: usize,
        at: Duration,
        image_seed: u64,
        balancer: &Balancer,
    ) -> Result<EngineStep, OffloadError> {
        // Hand the session the fleet-wide queue outlook before its round
        // starts: the current server's entry becomes the admission
        // prior, the full vector re-ranks failover candidates.
        self.session(client)?
            .set_queue_outlook(balancer.outlook(at));
        self.begin_round(client, at, image_seed)
    }

    fn note_deferred(&mut self, client: usize, _server: usize, at: Duration) {
        if let Some(session) = self.sessions.get_mut(client) {
            session.record_admit_deferred(at);
        }
    }

    fn note_batch(&mut self, clients: &[usize], _server: usize, at: Duration) {
        for &client in clients {
            if let Some(session) = self.sessions.get_mut(client) {
                session.record_batch_formed(at, clients.len());
            }
        }
    }
}

/// One client's in-flight modeled round.
#[derive(Debug, Clone, Copy)]
struct ModeledRound {
    clicked: Duration,
    service: Duration,
    released: Duration,
}

/// One modeled client: its 1-based round counter, its server and the
/// round in flight.
#[derive(Debug, Clone, Copy, Default)]
struct ModeledClient {
    round: usize,
    server: usize,
    pending: Option<ModeledRound>,
}

/// The megascale workload: per-round timings derived from the same
/// calibrated device/link models the scenarios use (restore + full
/// execution + capture at the server; capture/transfer/restore on the
/// client side). A client is placed by [`ServerPool::select`]'s rule at
/// its first round, priced as a session's build is, and keeps that
/// server. No browsers are built, so tens of thousands of clients
/// simulate in milliseconds, behind the same [`Workload`] API as real
/// sessions.
pub struct ModeledWorkload {
    migration: Vec<Duration>,
    service: Vec<Duration>,
    up: Vec<Duration>,
    down: Vec<Duration>,
    capture: Duration,
    restore: Duration,
    clients: Vec<ModeledClient>,
}

/// The first field of `cfg` the analytic workload does not model and
/// that differs from [`SessionConfig::paper`]'s value for its model, by
/// name. The model, the client device, the seed and each server's name,
/// device and link are priced; every field is named below, so a new one
/// does not compile until it is priced or refused here.
fn unmodeled_field(cfg: &SessionConfig) -> Option<String> {
    let paper = SessionConfig::paper(&cfg.model);
    let SessionConfig {
        core:
            OffloadConfig {
                model: _,
                servers,
                client_device: _,
                exec_mode,
                seed: _,
                image_bytes,
                snapshot,
                retry,
                predict,
                effects,
                meter,
            },
        cut,
        use_deltas,
    } = cfg;
    let base = paper.primary();
    for spec in servers {
        let ServerSpec {
            name,
            device: _,
            link: _,
            up_faults,
            down_faults,
            meter,
        } = spec;
        let differs = [
            ("up_faults", *up_faults != base.up_faults),
            ("down_faults", *down_faults != base.down_faults),
            ("meter", *meter != base.meter),
        ];
        if let Some(field) = differs.into_iter().find_map(|(f, d)| d.then_some(f)) {
            return Some(format!("{name}'s {field}"));
        }
    }
    let differs = [
        ("exec_mode", *exec_mode != paper.exec_mode),
        ("image_bytes", *image_bytes != paper.image_bytes),
        ("snapshot", *snapshot != paper.snapshot),
        ("retry", *retry != paper.retry),
        ("predict", *predict != paper.predict),
        ("effects", *effects != paper.effects),
        ("meter", *meter != paper.meter),
        ("cut", *cut != paper.cut),
        ("use_deltas", *use_deltas != paper.use_deltas),
    ];
    differs
        .into_iter()
        .find_map(|(f, d)| d.then(|| f.to_string()))
}

impl ModeledWorkload {
    /// Derives analytic timings for `clients` clients from one config.
    /// Only the model, the client device, the seed and each server's
    /// name, device and link are modeled; every other field must keep
    /// [`SessionConfig::paper`]'s value (real sessions take them all).
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError`] for unknown models, an empty fleet, a
    /// field set that the analytic workload does not model, or more
    /// clients than memory can hold.
    pub fn new(
        cfg: impl Into<SessionConfig>,
        clients: usize,
    ) -> Result<ModeledWorkload, OffloadError> {
        let cfg: SessionConfig = cfg.into();
        crate::fleet::check_fleet(&cfg.servers)?;
        if let Some(field) = unmodeled_field(&cfg) {
            return Err(OffloadError::Config(format!(
                "the modeled fleet does not model {field}; real sessions do"
            )));
        }
        let net = zoo::by_name(&cfg.model)?;
        let profile = net.profile();
        let bytes = MODELED_SNAPSHOT_BYTES;
        let mut service = Vec::with_capacity(cfg.servers.len());
        let mut up = Vec::with_capacity(cfg.servers.len());
        let mut down = Vec::with_capacity(cfg.servers.len());
        for spec in &cfg.servers {
            service.push(
                spec.device.restore_time(bytes)
                    + spec.device.full_exec_time(&profile)
                    + spec.device.capture_time(bytes),
            );
            up.push(spec.link.transfer_time(bytes)?);
            down.push(spec.link.transfer_time(bytes)?);
        }
        let mut slots = client_slots(clients)?;
        slots.resize(clients, ModeledClient::default());
        Ok(ModeledWorkload {
            migration: ServerPool::new(cfg.servers.clone()).migrations(cfg.image_bytes as u64, 0),
            service,
            up,
            down,
            capture: cfg.client_device.capture_time(bytes),
            restore: cfg.client_device.restore_time(bytes),
            clients: slots,
        })
    }

    fn client(&mut self, client: usize) -> Result<&mut ModeledClient, OffloadError> {
        self.clients
            .get_mut(client)
            .ok_or_else(|| OffloadError::Config(format!("workload has no client {client}")))
    }

    /// Starts `client`'s next round, placing it on its first, parks it
    /// and yields its compute request.
    fn issue(
        &mut self,
        client: usize,
        at: Duration,
        balancer: Option<&Balancer>,
    ) -> Result<EngineStep, OffloadError> {
        if self.client(client)?.round == 0 {
            let outlook = balancer.map_or_else(Vec::new, |b| b.outlook(at));
            let placed = place(client, self.migration.iter().copied().map(Some), &outlook);
            self.clients[client].server = placed.unwrap_or_default();
        }
        let slot = &mut self.clients[client];
        let server = slot.server;
        let ready = at + self.capture + self.up[server];
        slot.round += 1;
        slot.pending = Some(ModeledRound {
            clicked: at,
            service: self.service[server],
            released: ready,
        });
        Ok(EngineStep::NeedCompute { server, at: ready })
    }
}

impl Workload for ModeledWorkload {
    fn clients(&self) -> usize {
        self.clients.len()
    }

    fn begin_round(
        &mut self,
        client: usize,
        at: Duration,
        _: u64,
    ) -> Result<EngineStep, OffloadError> {
        self.issue(client, at, None)
    }

    fn begin_round_balanced(
        &mut self,
        client: usize,
        at: Duration,
        _: u64,
        balancer: &Balancer,
    ) -> Result<EngineStep, OffloadError> {
        self.issue(client, at, Some(balancer))
    }

    fn compute(&mut self, client: usize, admitted_at: Duration) -> Result<Duration, OffloadError> {
        let Some(round) = self.client(client)?.pending.as_mut() else {
            return Err(OffloadError::Protocol(
                "compute granted with no modeled round in flight".into(),
            ));
        };
        round.released = admitted_at + round.service;
        Ok(round.released)
    }

    fn continue_round(&mut self, client: usize) -> Result<EngineStep, OffloadError> {
        let slot = self.client(client)?;
        let (number, server, Some(round)) = (slot.round, slot.server, slot.pending.take()) else {
            return Err(OffloadError::Protocol(
                "round continued with no modeled round in flight".into(),
            ));
        };
        let finished = round.released + self.down[server] + self.restore;
        Ok(EngineStep::Done(RoundOutcome {
            client,
            round: number,
            finished_at: finished,
            total: finished - round.clicked,
            fell_back: false,
            served_by: Some(server),
            ops_used: 0,
            peak_heap: 0,
            proactive: false,
            target: server,
        }))
    }
}

/// Load statistics of one fleet candidate over an engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerLoad {
    /// Server name (from its [`ServerSpec`](crate::ServerSpec)).
    pub name: String,
    /// Compute grants this server's CPU served.
    pub rounds: usize,
    /// Total virtual time its CPU spent executing.
    pub busy: Duration,
    /// `busy / makespan` — the duty cycle over the run (`0` for a run
    /// that never completed a round, where the makespan is zero).
    pub utilization: f64,
    /// Compute admissions routed to this server (every [`Ev::Admit`],
    /// whether granted immediately, deferred, or batched).
    pub admits: usize,
    /// Rounds the admission gate degraded to local while this server was
    /// the round's target — the queueing delay (or predicted link
    /// health) erased the offload win before any bytes shipped.
    pub rejects: usize,
    /// Opportunistic batches (two or more co-queued grants admitted
    /// together) this server formed. Zero without a batch window.
    pub batches: usize,
}

/// What a fleet run produced: throughput, latency percentiles (sojourn
/// time: request arrival → result on screen), queueing-delay
/// percentiles, and per-server load.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Number of clients simulated.
    pub clients: usize,
    /// Rounds completed across all clients.
    pub completed: usize,
    /// Rounds that gave up on offloading and completed locally.
    pub fallbacks: usize,
    /// Virtual time of the last completion.
    pub makespan: Duration,
    /// Completed rounds per virtual second (`completed / makespan`).
    pub throughput_rps: f64,
    /// Sojourn-time statistics (p50/p90/p95/p99 are nearest-rank).
    pub latency: Summary,
    /// Server-CPU queueing-delay statistics, one sample per compute
    /// grant (zero when the CPU was free).
    pub queue_wait: Summary,
    /// Per-candidate load, in fleet order.
    pub servers: Vec<ServerLoad>,
    /// Total metered interpreter operations across every completed round
    /// (zero for unmetered or modeled runs).
    pub total_ops: u64,
    /// Largest metered heap (cells) any serving server observed (zero
    /// for unmetered or modeled runs).
    pub peak_heap: usize,
    /// Jain's fairness index over per-client completed rounds, among
    /// clients that issued at least one round: `1.0` when every active
    /// client completed the same count, approaching `1/n` when one
    /// tenant monopolized the fleet.
    pub fairness: f64,
    /// Largest opportunistic batch any server formed (zero without a
    /// batch window, one-sized grants never count).
    pub max_batch: usize,
}

/// One entry of the engine's event log: what the scheduler did, to which
/// client, at which virtual time. A `Copy` record — the run loop stores
/// it as data and [`Engine::event_lines`] renders the text on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineEvent {
    /// The engine clock when the event was processed — except for
    /// [`EngineEventKind::Done`], which carries the round's completion
    /// time on the client's own timeline (never earlier than the clock).
    pub at: Duration,
    /// The client concerned (for a [`EngineEventKind::Batch`], the
    /// batch's primary).
    pub client: usize,
    /// What happened.
    pub kind: EngineEventKind,
}

/// The kinds of [`EngineEvent`], each with what its log line prints.
/// Server indices, batch sizes and round numbers are `u32` so a record
/// stays within 48 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineEventKind {
    /// A request reached the client (which may be busy and park it).
    Arrive,
    /// The client started a round for the request that arrived at
    /// `issued`.
    Begin {
        /// When the request arrived (the sojourn clock's origin).
        issued: Duration,
    },
    /// The client's uplinked snapshot asked for `server`'s CPU: granted
    /// in arrival order at `start`, or parked (`None`) under fair share
    /// or batching until a [`EngineEventKind::Grant`].
    Admit {
        /// Fleet index of the server asked.
        server: u32,
        /// When the CPU was granted, `None` when the request was parked.
        start: Option<Duration>,
    },
    /// A parked request got `server`'s CPU at `at`.
    Grant {
        /// Fleet index of the granting server.
        server: u32,
        /// When the request was parked.
        enq: Duration,
    },
    /// The `size` grants just logged on `server` were admitted together.
    Batch {
        /// Fleet index of the batching server.
        server: u32,
        /// Members of the batch (two or more).
        size: u32,
    },
    /// The server CPU freed and the client's round resumed.
    Release,
    /// The client's round `round` completed.
    Done {
        /// The client's 1-based round number.
        round: u32,
        /// Fleet index of the server that ran the inference, `None` when
        /// the client did.
        served_by: Option<u32>,
    },
}

impl EngineEvent {
    fn new(at: Duration, client: usize, kind: EngineEventKind) -> EngineEvent {
        EngineEvent { at, client, kind }
    }

    /// The log line of this event, with `names` labelling the fleet.
    fn line(&self, names: &[String]) -> String {
        let (at, client) = (self.at, self.client);
        match self.kind {
            EngineEventKind::Arrive => format!("t={at:?}: arrive client={client}"),
            EngineEventKind::Begin { issued } => {
                format!("t={at:?}: begin client={client} issued={issued:?}")
            }
            EngineEventKind::Admit {
                server,
                start: Some(start),
            } => format!("t={at:?}: admit client={client} server={server} start={start:?}"),
            EngineEventKind::Admit {
                server,
                start: None,
            } => format!("t={at:?}: admit client={client} server={server} deferred"),
            EngineEventKind::Grant { server, enq } => {
                format!("t={at:?}: grant client={client} server={server} enq={enq:?}")
            }
            EngineEventKind::Batch { server, size } => {
                format!("t={at:?}: batch server={server} size={size}")
            }
            EngineEventKind::Release => format!("t={at:?}: release client={client}"),
            EngineEventKind::Done { round, served_by } => {
                let server = match served_by {
                    Some(idx) => names.get(idx as usize).map_or("?", String::as_str),
                    None => "client",
                };
                format!("t={at:?}: done client={client} round={round} server={server}")
            }
        }
    }
}

/// Narrows a fleet index, batch size or round number into its log field.
fn log_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// A global event on the engine's virtual clock.
#[derive(Debug)]
enum Ev {
    /// A request arrives at a client. A busy client parks it in its
    /// client-side backlog; an idle client starts a round.
    Arrive { client: usize },
    /// A client actually starts a round — immediately after an arrival
    /// found it idle, or once a backlogged request reached the front.
    /// The request's original arrival time (the sojourn clock starts
    /// there, not at the round start) waits in the client's slot.
    Begin { client: usize },
    /// A client's uplinked request asks for a server CPU (a fleet
    /// index).
    Admit { client: usize, server: u32 },
    /// A server CPU frees; the client's round resumes. `server` keys the
    /// fair-share queue the freed CPU should grant from next.
    Release { client: usize, server: u32 },
}

/// The scheduler: one global `(time, seq)`-ordered event queue
/// interleaving every client of a [`Workload`] against the shared fleet
/// CPUs. Construct with [`Engine::sessions`] (real sessions),
/// [`Engine::modeled`] (analytic megascale) or [`Engine::with_workload`]
/// (anything implementing [`Workload`]), shape the traffic with the
/// builder setters, then [`Engine::run`].
pub struct Engine<W> {
    workload: W,
    server_names: Vec<String>,
    arrival: ArrivalProcess,
    duration: Duration,
    max_rounds: Option<usize>,
    seed: u64,
    event_log: Vec<EngineEvent>,
    /// Queue-aware selection + admission control (default off: the
    /// load-blind paths replay bit for bit).
    balance: bool,
    /// Deficit-round-robin grant ordering per server (default off:
    /// arrival-order grants replay bit for bit).
    fair_share: bool,
    /// Opportunistic co-queued grant batching window (default `None`).
    batch_window: Option<Duration>,
}

impl Engine<SessionWorkload> {
    /// An engine over `clients` real [`OffloadSession`]s (see
    /// [`SessionWorkload`]).
    ///
    /// # Errors
    ///
    /// Propagates session construction failures.
    pub fn sessions(
        cfg: impl Into<SessionConfig>,
        clients: usize,
    ) -> Result<Engine<SessionWorkload>, OffloadError> {
        let cfg: SessionConfig = cfg.into();
        let names = cfg.servers.iter().map(|s| s.name.clone()).collect();
        let seed = cfg.seed;
        Ok(Engine::with_workload(SessionWorkload::new(cfg, clients)?, names).seed(seed))
    }
}

impl Engine<ModeledWorkload> {
    /// An engine over `clients` analytic clients (see
    /// [`ModeledWorkload`]) — the megascale entry point. It models the
    /// model, the client device, the seed and each server's name, device
    /// and link; [`Engine::sessions`] takes every other field.
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError`] for unknown models, an empty fleet, a
    /// field set that the analytic workload does not model, or more
    /// clients than memory can hold.
    pub fn modeled(
        cfg: impl Into<SessionConfig>,
        clients: usize,
    ) -> Result<Engine<ModeledWorkload>, OffloadError> {
        let cfg: SessionConfig = cfg.into();
        let names = cfg.servers.iter().map(|s| s.name.clone()).collect();
        let seed = cfg.seed;
        Ok(Engine::with_workload(ModeledWorkload::new(cfg, clients)?, names).seed(seed))
    }
}

impl<W: Workload> Engine<W> {
    /// An engine over a caller-built workload. `server_names` labels the
    /// fleet candidates (by index) in the report.
    pub fn with_workload(workload: W, server_names: Vec<String>) -> Engine<W> {
        Engine {
            workload,
            server_names,
            arrival: ArrivalProcess::ClosedLoop {
                think: Duration::from_secs(2),
            },
            duration: Duration::from_secs(60),
            max_rounds: None,
            seed: 42,
            event_log: Vec::new(),
            balance: false,
            fair_share: false,
            batch_window: None,
        }
    }

    /// Sets the arrival process (default: closed loop, 2 s think time).
    pub fn arrival(mut self, arrival: ArrivalProcess) -> Engine<W> {
        self.arrival = arrival;
        self
    }

    /// Sets the traffic horizon: open-loop arrivals are generated in
    /// `[0, duration)`, closed-loop clients stop re-issuing at it. Work
    /// in flight at the horizon always drains (default: 60 s).
    pub fn duration(mut self, duration: Duration) -> Engine<W> {
        self.duration = duration;
        self
    }

    /// Caps rounds per client (closed-loop traffic only; open-loop
    /// arrivals are horizon-bounded instead). Default: no cap.
    pub fn max_rounds(mut self, rounds: usize) -> Engine<W> {
        self.max_rounds = Some(rounds);
        self
    }

    /// Seeds arrival sampling and per-round image generation (the
    /// session/modeled constructors default this to the config's seed).
    pub fn seed(mut self, seed: u64) -> Engine<W> {
        self.seed = seed;
        self
    }

    /// Toggles queue-aware balancing (default off): every client's
    /// placement (a modeled first round, a session's failover) ranks by
    /// predicted sojourn, and a session's `plan` gate prices the wait
    /// (admission control). Off replays the load-blind paths bit for bit.
    pub fn balance(mut self, on: bool) -> Engine<W> {
        self.balance = on;
        self
    }

    /// Toggles per-tenant deficit-round-robin grant ordering (default
    /// off: arrival-order grants), so one chatty tenant cannot starve
    /// co-located clients of a server CPU.
    pub fn fair_share(mut self, on: bool) -> Engine<W> {
        self.fair_share = on;
        self
    }

    /// Enables opportunistic batching (default off): grants co-queued on
    /// one server within `window` are admitted together as one batch.
    pub fn batch_window(mut self, window: Duration) -> Engine<W> {
        self.batch_window = Some(window);
        self
    }

    /// The workload, for post-run inspection (reports, traces).
    pub fn workload(&self) -> &W {
        &self.workload
    }

    /// Every event the last [`Engine::run`] processed, in schedule
    /// order — the determinism witness, as data: one [`EngineEvent`] per
    /// arrival, round start, admission, deferred grant, batch, release
    /// and completion. Two runs of one config and seed log equal slices.
    pub fn event_log(&self) -> &[EngineEvent] {
        &self.event_log
    }

    /// [`Engine::event_log`] as text, one `t=…: kind client=… …` line
    /// per event, servers of `done` lines under their fleet names.
    pub fn event_lines(&self) -> Vec<String> {
        self.event_log
            .iter()
            .map(|event| event.line(&self.server_names))
            .collect()
    }

    /// Pre-samples the open-loop arrival stream over `[0, duration)`.
    fn open_loop_arrivals(&self, clients: usize) -> Result<Vec<(Duration, usize)>, OffloadError> {
        self.arrival.check(self.duration)?;
        let peak = self.arrival.peak_rate();
        let mut rng = Rng::seed_from_u64(self.seed ^ 0xA221_5EED_0DDB_A115);
        let horizon = self.duration.as_secs_f64();
        // Room for the envelope's expected count plus six standard
        // deviations: one allocation instead of a doubling chain, whose
        // freed steps would leave holes in the heap of every run.
        let expected = peak * horizon;
        let mut arrivals = Vec::with_capacity((expected + 6.0 * expected.sqrt()) as usize);
        let mut t = 0.0_f64;
        loop {
            // Exponential interarrival at the envelope rate...
            let u = rng.next_f64();
            t += -(1.0 - u).ln() / peak;
            if t >= horizon {
                break;
            }
            // ...thinned down to the instantaneous rate (a no-op for a
            // flat Poisson process, where rate_at == peak always).
            let at = Duration::from_secs_f64(t);
            let keep = rng.next_f64() < self.arrival.rate_at(at) / peak;
            let client = rng.gen_range_usize(0, clients);
            if keep {
                arrivals.push((at, client));
            }
        }
        Ok(arrivals)
    }

    /// Runs the fleet to completion: seeds the arrival stream, then
    /// drains the global event queue deterministically.
    ///
    /// Run an engine once; a second `run` on the same engine continues
    /// the workload's accumulated state (sessions keep their deltas and
    /// round counters) rather than replaying.
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError::Config`] for zero clients, more clients
    /// than memory can hold or a degenerate arrival process, and
    /// propagates workload failures.
    pub fn run(&mut self) -> Result<FleetReport, OffloadError> {
        let clients = self.workload.clients();
        if clients == 0 {
            return Err(OffloadError::Config(
                "fleet engine needs at least one client".into(),
            ));
        }
        self.event_log.clear();
        // The arrivals known up front — every client at t=0 for a closed
        // loop, the sampled stream for an open one — are already in time
        // order, so they stay in their `Vec` and merge with the heap as
        // it drains: the heap holds in-flight events only.
        let arrivals: Vec<(Duration, usize)> = match self.arrival {
            ArrivalProcess::ClosedLoop { .. } => {
                let mut arrivals = client_slots(clients)?;
                arrivals.extend((0..clients).map(|client| (Duration::ZERO, client)));
                arrivals
            }
            _ => self.open_loop_arrivals(clients)?,
        };
        let mut run = RunState::new(self, clients, arrivals.len())?;
        let drained = run.drain(&mut self.workload, arrivals);
        self.event_log = std::mem::take(&mut run.events);
        drained?;
        Ok(run.report(&self.server_names))
    }
}

/// One client's slot in [`RunState`].
#[derive(Debug, Clone, Default)]
struct ClientSlot {
    /// Open-loop requests that arrived while the client was busy, by
    /// arrival time.
    backlog: VecDeque<Duration>,
    /// Whether a round is in flight.
    busy: bool,
    /// When the in-flight round's request arrived (its sojourn origin).
    issued: Duration,
    /// Rounds begun.
    rounds: usize,
    /// Rounds completed.
    completed: usize,
}

/// One server's slot in [`RunState`].
#[derive(Debug, Clone, Default)]
struct ServerSlot {
    /// When the CPU frees (covers every reservation already granted).
    busy_until: Duration,
    /// Total CPU time granted.
    busy: Duration,
    /// Compute grants served.
    grants: usize,
    /// Compute admissions routed here.
    admits: usize,
    /// Rounds the admission gate kept local while aimed here.
    rejects: usize,
    /// Batches of two or more grants formed.
    batches: usize,
    /// Admissions parked behind the CPU under fair share or batching,
    /// with their admission time.
    parked: VecDeque<(usize, Duration)>,
    /// The deficit-round-robin ring — present only under fair share.
    drr: Option<DrrScheduler>,
}

/// Everything one [`Engine::run`] mutates: the event queue and log, one
/// slot per client and per server, the balancer (present only while
/// balancing) and the report's running totals. Each event kind is one
/// method.
#[derive(Default)]
struct RunState {
    seed: u64,
    /// Think time of a closed loop, `None` for open-loop arrivals.
    think: Option<Duration>,
    duration: Duration,
    max_rounds: Option<usize>,
    window: Option<Duration>,
    /// Fair share and batching both *park* admissions instead of
    /// granting in strict arrival order, so they share one deferred
    /// grant path keyed by server.
    defer: bool,
    queue: EventQueue<Ev>,
    events: Vec<EngineEvent>,
    clients: Vec<ClientSlot>,
    servers: Vec<ServerSlot>,
    balancer: Option<Balancer>,
    latencies: Vec<Duration>,
    waits: Vec<Duration>,
    completed: usize,
    fallbacks: usize,
    makespan: Duration,
    total_ops: u64,
    peak_heap: usize,
    max_batch: usize,
    /// One deferred grant's batch (primary first), reused across grants.
    batch: Vec<(usize, Duration)>,
    /// Client ids of the parked set or of a batch, reused across grants.
    members: Vec<usize>,
}

impl RunState {
    /// A fresh run of `engine` over `clients` clients, expecting
    /// `arrivals` up-front arrivals; takes over the engine's log buffer.
    fn new<W>(
        engine: &mut Engine<W>,
        clients: usize,
        arrivals: usize,
    ) -> Result<RunState, OffloadError> {
        let fleet = engine.server_names.len().max(1);
        let server = ServerSlot {
            drr: engine
                .fair_share
                .then(|| DrrScheduler::new(DEFAULT_DRR_QUANTUM)),
            ..ServerSlot::default()
        };
        let mut events = std::mem::take(&mut engine.event_log);
        // Arrive, begin, admit, release, done: five events a round.
        events.reserve(arrivals.saturating_mul(5));
        let mut slots = client_slots(clients)?;
        slots.resize(clients, ClientSlot::default());
        Ok(RunState {
            seed: engine.seed,
            think: match engine.arrival {
                ArrivalProcess::ClosedLoop { think } => Some(think),
                _ => None,
            },
            duration: engine.duration,
            max_rounds: engine.max_rounds,
            window: engine.batch_window,
            defer: engine.fair_share || engine.batch_window.is_some(),
            events,
            clients: slots,
            servers: vec![server; fleet],
            balancer: engine.balance.then(|| Balancer::new(fleet)),
            // Sized up front, like the log: the queue holds the events of
            // clients with a round in flight, and each arrival completes
            // at most once.
            queue: EventQueue::with_capacity(clients.min(arrivals)),
            latencies: Vec::with_capacity(arrivals),
            waits: Vec::with_capacity(arrivals),
            ..RunState::default()
        })
    }

    /// Drains the up-front arrivals merged with the event queue. An
    /// arrival goes first on a tie, as when it was pushed ahead of the
    /// run and so held a lower sequence number than any in-flight event.
    fn drain<W: Workload>(
        &mut self,
        workload: &mut W,
        arrivals: Vec<(Duration, usize)>,
    ) -> Result<(), OffloadError> {
        let mut arrivals = arrivals.into_iter().peekable();
        loop {
            let due =
                arrivals.next_if(|&(at, _)| self.queue.peek_time().is_none_or(|next| at <= next));
            let (now, event) = match due {
                Some((at, client)) => (at, Ev::Arrive { client }),
                None => match self.queue.pop() {
                    Some(next) => next,
                    None => return Ok(()),
                },
            };
            match event {
                Ev::Arrive { client } => self.arrive(client, now),
                Ev::Begin { client } => self.begin(workload, client, now)?,
                Ev::Admit { client, server } => self.admit(workload, client, server, now)?,
                Ev::Release { client, server } => {
                    self.release(workload, client, server as usize, now)?;
                }
            }
        }
    }

    /// A request reached `client`: a busy client parks it in its
    /// backlog, an idle one starts a round.
    fn arrive(&mut self, client: usize, now: Duration) {
        self.events
            .push(EngineEvent::new(now, client, EngineEventKind::Arrive));
        let slot = &mut self.clients[client];
        if slot.busy {
            slot.backlog.push_back(now);
        } else {
            slot.busy = true;
            slot.issued = now;
            self.queue.push(now, Ev::Begin { client });
        }
    }

    /// `client` starts the round of the request that arrived at its
    /// slot's `issued`, with the balancer's outlook when balancing.
    fn begin<W: Workload>(
        &mut self,
        workload: &mut W,
        client: usize,
        now: Duration,
    ) -> Result<(), OffloadError> {
        let slot = &mut self.clients[client];
        let issued = slot.issued;
        self.events.push(EngineEvent::new(
            now,
            client,
            EngineEventKind::Begin { issued },
        ));
        slot.rounds += 1;
        let seed = round_image_seed(self.seed, client as u64, slot.rounds as u64);
        let step = match &self.balancer {
            Some(balancer) => workload.begin_round_balanced(client, now, seed, balancer)?,
            None => workload.begin_round(client, now, seed)?,
        };
        self.step(client, step);
        Ok(())
    }

    /// `client`'s uplinked snapshot asks for the CPU of server `index`:
    /// granted at `max(now, busy_until)` in arrival order, or — under
    /// fair share or batching — parked, and granted at once if the CPU
    /// is idle.
    fn admit<W: Workload>(
        &mut self,
        workload: &mut W,
        client: usize,
        index: u32,
        now: Duration,
    ) -> Result<(), OffloadError> {
        let server = index as usize;
        let start = (!self.defer).then(|| now.max(self.servers[server].busy_until));
        let kind = EngineEventKind::Admit {
            server: index,
            start,
        };
        self.events.push(EngineEvent::new(now, client, kind));
        let slot = &mut self.servers[server];
        slot.admits += 1;
        let Some(start) = start else {
            slot.parked.push_back((client, now));
            if let Some(balancer) = &mut self.balancer {
                balancer.set_queue_depth(server, slot.parked.len());
            }
            if slot.busy_until <= now {
                return self.grant_parked(workload, server, now);
            }
            workload.note_deferred(client, server, now);
            return Ok(());
        };
        self.waits.push(start - now);
        let released = workload.compute(client, start)?;
        let service = released.saturating_sub(start);
        if let Some(balancer) = &mut self.balancer {
            balancer.note_grant(server, start - now, service, released);
        }
        slot.busy_until = released;
        slot.busy += service;
        slot.grants += 1;
        let release = Ev::Release {
            client,
            server: index,
        };
        self.queue.push(released, release);
        Ok(())
    }

    /// `server`'s CPU freed `client`'s round, which resumes; under fair
    /// share or batching the freed CPU then grants the next parked
    /// request (the last member of a batch frees it).
    fn release<W: Workload>(
        &mut self,
        workload: &mut W,
        client: usize,
        server: usize,
        now: Duration,
    ) -> Result<(), OffloadError> {
        self.events
            .push(EngineEvent::new(now, client, EngineEventKind::Release));
        let step = workload.continue_round(client)?;
        self.step(client, step);
        if self.defer && self.servers[server].busy_until <= now {
            self.grant_parked(workload, server, now)?;
        }
        Ok(())
    }

    /// Grants the front of `server`'s parked queue at time `now`:
    /// the DRR ring picks the tenant under fair share (arrival order
    /// otherwise), and a batch window sweeps in every parked request
    /// enqueued within `window` of the primary. Each member gets its own
    /// compute grant and release; the CPU reservation covers the whole
    /// batch span once.
    fn grant_parked<W: Workload>(
        &mut self,
        workload: &mut W,
        server: usize,
        now: Duration,
    ) -> Result<(), OffloadError> {
        let slot = &mut self.servers[server];
        let Some(&(head, _)) = slot.parked.front() else {
            return Ok(());
        };
        let primary = match &mut slot.drr {
            Some(drr) => {
                self.members.clear();
                self.members.extend(slot.parked.iter().map(|&(c, _)| c));
                drr.pick(&self.members).unwrap_or(head)
            }
            None => head,
        };
        let pos = slot.parked.iter().position(|&(c, _)| c == primary);
        let Some(primary_enq @ (_, enq)) = slot.parked.remove(pos.unwrap_or(0)) else {
            return Ok(());
        };
        self.batch.clear();
        self.batch.push(primary_enq);
        if let Some(window) = self.window {
            // Sweep in every parked request enqueued within the window
            // of the primary (two-sided: a DRR primary may sit behind
            // older requests that are *outside* its window).
            let (lo, hi) = (enq.saturating_sub(window), enq.saturating_add(window));
            let batch = &mut self.batch;
            slot.parked.retain(|&(c, at)| {
                let swept = at >= lo && at <= hi;
                if swept {
                    batch.push((c, at));
                }
                !swept
            });
        }
        let mut span_end = now;
        let index = log_u32(server);
        for &(client, enq) in &self.batch {
            let wait = now.saturating_sub(enq);
            self.waits.push(wait);
            let kind = EngineEventKind::Grant { server: index, enq };
            self.events.push(EngineEvent::new(now, client, kind));
            let released = workload.compute(client, now)?;
            let release = Ev::Release {
                client,
                server: index,
            };
            self.queue.push(released, release);
            let service = released.saturating_sub(now);
            if let Some(drr) = &mut slot.drr {
                drr.charge(client, service);
            }
            if let Some(balancer) = &mut self.balancer {
                balancer.note_grant(server, wait, service, released);
            }
            span_end = span_end.max(released);
            slot.grants += 1;
        }
        slot.busy_until = slot.busy_until.max(span_end);
        slot.busy += span_end.saturating_sub(now);
        if self.batch.len() >= 2 {
            slot.batches += 1;
            self.max_batch = self.max_batch.max(self.batch.len());
            let kind = EngineEventKind::Batch {
                server: log_u32(server),
                size: log_u32(self.batch.len()),
            };
            self.events.push(EngineEvent::new(now, primary, kind));
            self.members.clear();
            self.members.extend(self.batch.iter().map(|&(c, _)| c));
            workload.note_batch(&self.members, server, now);
        }
        if let Some(balancer) = &mut self.balancer {
            balancer.set_queue_depth(server, slot.parked.len());
        }
        Ok(())
    }

    /// Routes a workload step: a compute request enters the queue, a
    /// completion books statistics and schedules the client's next round
    /// (closed-loop think, or the oldest backlogged open-loop arrival).
    fn step(&mut self, client: usize, step: EngineStep) {
        let outcome = match step {
            EngineStep::NeedCompute { server, at } => {
                let server = log_u32(server % self.servers.len());
                self.queue.push(at, Ev::Admit { client, server });
                return;
            }
            EngineStep::Done(outcome) => outcome,
        };
        self.events.push(EngineEvent::new(
            outcome.finished_at,
            client,
            EngineEventKind::Done {
                round: log_u32(outcome.round),
                served_by: outcome.served_by.map(log_u32),
            },
        ));
        self.completed += 1;
        if outcome.fell_back {
            self.fallbacks += 1;
        }
        if outcome.proactive {
            // Admission control turned the offload down: charge the
            // reject to the server the round was aimed at.
            if let Some(target) = self.servers.get_mut(outcome.target) {
                target.rejects += 1;
            }
        }
        self.total_ops += outcome.ops_used;
        self.peak_heap = self.peak_heap.max(outcome.peak_heap);
        self.makespan = self.makespan.max(outcome.finished_at);
        let slot = &mut self.clients[client];
        slot.completed += 1;
        slot.busy = false;
        self.latencies
            .push(outcome.finished_at.saturating_sub(slot.issued));
        match self.think {
            Some(think) => {
                let capped = self.max_rounds.is_some_and(|cap| slot.rounds >= cap);
                let next = outcome.finished_at.saturating_add(think);
                if !capped && next < self.duration {
                    self.queue.push(next, Ev::Arrive { client });
                }
            }
            None => {
                if let Some(arrived) = slot.backlog.pop_front() {
                    // The request waited client-side; it starts the
                    // moment the client frees, but its sojourn clock
                    // started at arrival.
                    slot.busy = true;
                    slot.issued = arrived;
                    let at = arrived.max(outcome.finished_at);
                    self.queue.push(at, Ev::Begin { client });
                }
            }
        }
    }

    /// The [`FleetReport`] of the finished run, servers labelled by
    /// `names`.
    fn report(self, names: &[String]) -> FleetReport {
        let secs = self.makespan.as_secs_f64();
        let per_second = |x: f64| if secs > 0.0 { x / secs } else { 0.0 };
        let servers = names
            .iter()
            .zip(&self.servers)
            .map(|(name, slot)| ServerLoad {
                name: name.clone(),
                rounds: slot.grants,
                busy: slot.busy,
                utilization: per_second(slot.busy.as_secs_f64()).min(1.0),
                admits: slot.admits,
                rejects: slot.rejects,
                batches: slot.batches,
            })
            .collect();
        // Fairness reads over clients that actually entered the run —
        // idle provisioned clients would dilute the index.
        let active: Vec<f64> = (self.clients.iter())
            .filter(|slot| slot.rounds > 0)
            .map(|slot| slot.completed as f64)
            .collect();
        FleetReport {
            clients: self.clients.len(),
            completed: self.completed,
            fallbacks: self.fallbacks,
            makespan: self.makespan,
            throughput_rps: per_second(self.completed as f64),
            latency: Summary::of(&self.latencies),
            queue_wait: Summary::of(&self.waits),
            servers,
            total_ops: self.total_ops,
            peak_heap: self.peak_heap,
            fairness: jain(&active),
            max_batch: self.max_batch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_engine_event_fits_48_bytes() {
        assert!(std::mem::size_of::<EngineEvent>() <= 48);
    }

    /// The run loop's queue entry is this plus its 16-byte key.
    #[test]
    fn an_engine_queue_event_fits_16_bytes() {
        assert!(std::mem::size_of::<Ev>() <= 16);
    }

    /// Placement moved the server from the round in flight to the
    /// client, so a 10 000-client fleet holds no more than it did.
    #[test]
    fn a_modeled_client_fits_64_bytes() {
        assert!(std::mem::size_of::<ModeledClient>() <= 64);
    }

    /// A think time no clock can hold ends the client's loop after its
    /// first round instead of overflowing `finished_at + think`.
    #[test]
    fn an_unbounded_think_time_saturates() {
        let mut engine = Engine::modeled(SessionConfig::paper("agenet"), 2)
            .unwrap()
            .arrival(ArrivalProcess::ClosedLoop {
                think: Duration::MAX,
            })
            .duration(Duration::MAX);
        let report = engine.run().unwrap();
        assert_eq!(report.completed, 2);
        assert_eq!(engine.event_log().len(), 10);
    }

    /// An open-loop process the engine cannot sample faithfully is a
    /// config error before any arrival is drawn: a rate that is not a
    /// finite non-negative number, a zero diurnal period, or more expected
    /// arrivals than the up-front stream may hold.
    #[test]
    fn degenerate_open_loop_arrivals_are_config_errors() {
        let diurnal = |base_hz, peak_hz, secs| ArrivalProcess::Diurnal {
            base_hz,
            peak_hz,
            period: Duration::from_secs(secs),
        };
        let minute = Duration::from_secs(60);
        for (arrival, horizon) in [
            (diurnal(f64::NAN, 80.0, 60), minute),
            (diurnal(5.0, f64::INFINITY, 60), minute),
            (diurnal(-50.0, 80.0, 60), minute),
            (diurnal(5.0, 80.0, 0), minute),
            (diurnal(0.0, 0.0, 60), minute),
            (ArrivalProcess::Poisson { rate_hz: 1e308 }, minute),
            (ArrivalProcess::Poisson { rate_hz: 400.0 }, Duration::MAX),
            (ArrivalProcess::Poisson { rate_hz: -1.0 }, minute),
        ] {
            let err = arrival.check(horizon).unwrap_err();
            assert!(matches!(err, OffloadError::Config(_)), "{arrival:?}: {err}");
            let mut engine = Engine::modeled(SessionConfig::paper("agenet"), 3)
                .unwrap()
                .arrival(arrival)
                .duration(horizon);
            assert_eq!(engine.run().unwrap_err(), err);
            assert!(engine.event_log().is_empty());
        }
        // The bound sits well above every shipped fleet, and a closed
        // loop has no rate to check.
        let busiest = ArrivalProcess::Poisson { rate_hz: 400.0 };
        assert!(busiest.check(Duration::from_secs(3_600)).is_ok());
        assert!(diurnal(0.0, 40.0, 10).check(minute).is_ok());
        let closed = ArrivalProcess::ClosedLoop {
            think: Duration::ZERO,
        };
        assert!(closed.check(Duration::MAX).is_ok());
    }
}
