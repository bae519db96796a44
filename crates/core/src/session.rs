//! Long-lived offloading sessions — repeated inferences against an edge
//! fleet, implementing the paper's **future work**: *"how to simplify
//! the snapshot creation/transmission/restoration for future offloading
//! using the data and code left at the server from the first offloading"*.
//!
//! The first offload of a session migrates a full snapshot. Afterwards the
//! client and server share an agreed state, so subsequent offloads send
//! [`DeltaScript`](snapedge_webapp::DeltaScript)s — typically orders of
//! magnitude smaller. A [`OffloadSession::handoff`] to a new edge server
//! (the roaming case) drops the agreement and transparently returns to a
//! full snapshot, demonstrating that snapshots keep no dependence on the
//! previous server.
//!
//! A session is configured with an **edge fleet** — an ordered set of
//! [`ServerSpec`] candidates (see [`crate::fleet`]) — rather than exactly
//! one server. The [`ServerPool`] scores candidates by predicted
//! migration time, and when the retry budget against the current server
//! exhausts mid-round, the session *automatically* hands off to the next
//! best candidate (re-pre-send, full-snapshot resend, delta-epoch reset),
//! falling back to local execution only once every candidate is
//! exhausted. A fleet of size 1 behaves bit-for-bit like the original
//! single-server session.

use crate::adaptive::Decision;
use crate::apps;
use crate::config::{ConfigBuilder, OffloadConfig};
use crate::endpoint::Endpoint;
use crate::fleet::{ServerPool, ServerSpec};
use crate::gates::{self, Gate, Verdict};
use crate::resilience::{classify, schedule_resilient, FaultClass};
use crate::OffloadError;
use snapedge_dnn::{zoo, ExecMode, ModelBundle, Network, NodeId, ParamStore};
use snapedge_net::{Link, NetError, SimClock};
use snapedge_trace::{EventKind, Lane, Trace, Tracer};
use snapedge_webapp::{DeltaCapture, MeterLimits, RunOutcome, StateBase, WebError};
use std::rc::Rc;
use std::time::Duration;

/// Configuration of a multi-inference session: the shared
/// [`OffloadConfig`] core (model, edge **fleet**, client device, seeds,
/// resilience/prediction knobs — see [`crate::config`]) plus the two
/// knobs only sessions have. Derefs to [`OffloadConfig`], so every core
/// field reads and writes as a direct field (`cfg.seed`,
/// `cfg.servers.push(..)`).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// The shared offloading core (fleet, devices, seeds, retry,
    /// predict). Usually accessed through `Deref` rather than by name.
    pub core: OffloadConfig,
    /// Partial-inference cut label, or `None` for full offloading.
    pub cut: Option<String>,
    /// Use delta snapshots after the first offload (the future-work
    /// optimization); `false` sends a full snapshot every time.
    pub use_deltas: bool,
}

impl std::ops::Deref for SessionConfig {
    type Target = OffloadConfig;
    fn deref(&self) -> &OffloadConfig {
        &self.core
    }
}

impl std::ops::DerefMut for SessionConfig {
    fn deref_mut(&mut self) -> &mut OffloadConfig {
        &mut self.core
    }
}

impl From<OffloadConfig> for SessionConfig {
    /// Wraps a bare core with the session defaults (full offloading,
    /// deltas on) — this is what lets the fleet engine accept either
    /// config shape.
    fn from(core: OffloadConfig) -> SessionConfig {
        SessionConfig {
            core,
            cut: None,
            use_deltas: true,
        }
    }
}

impl SessionConfig {
    /// Builder seeded with the paper-scale configuration (synthetic
    /// execution).
    ///
    /// ```
    /// use snapedge_core::SessionConfig;
    ///
    /// let cfg = SessionConfig::paper_builder("agenet")
    ///     .use_deltas(false)
    ///     .build();
    /// assert!(!cfg.use_deltas);
    /// ```
    pub fn paper_builder(model: &str) -> SessionBuilder {
        SessionBuilder {
            cfg: SessionConfig::from(OffloadConfig::paper(model, "edge-server-1")),
        }
    }

    /// Builder seeded with the tiny real-arithmetic test configuration.
    pub fn tiny_builder() -> SessionBuilder {
        SessionBuilder {
            cfg: SessionConfig::from(OffloadConfig::tiny("edge-server-1")),
        }
    }

    /// Paper-scale configuration (shorthand for
    /// [`SessionConfig::paper_builder`]).
    pub fn paper(model: &str) -> SessionConfig {
        Self::paper_builder(model).build()
    }

    /// Tiny real-arithmetic configuration for tests (shorthand for
    /// [`SessionConfig::tiny_builder`]).
    pub fn tiny() -> SessionConfig {
        Self::tiny_builder().build()
    }
}

/// Builder for [`SessionConfig`] — start from
/// [`SessionConfig::paper_builder`] or [`SessionConfig::tiny_builder`].
/// The fleet/device/resilience setters are the shared
/// [`ConfigBuilder`] surface; only the session-specific `cut` and
/// `use_deltas` live here.
pub type SessionBuilder = ConfigBuilder<SessionConfig>;

impl ConfigBuilder<SessionConfig> {
    /// Partial-inference cut label (`None` means full offloading).
    pub fn cut(mut self, cut: &str) -> SessionBuilder {
        self.cfg.cut = Some(cut.to_string());
        self
    }

    /// Whether to use delta snapshots after the first offload.
    pub fn use_deltas(mut self, on: bool) -> SessionBuilder {
        self.cfg.use_deltas = on;
        self
    }
}

/// Report for one inference round of a session.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// 1-based round number.
    pub round: usize,
    /// Whether the uplink migration used a delta instead of a full
    /// snapshot.
    pub delta_up: bool,
    /// Whether the downlink migration used a delta.
    pub delta_down: bool,
    /// Bytes sent client→server for this inference.
    pub up_bytes: u64,
    /// Bytes sent server→client.
    pub down_bytes: u64,
    /// Click-to-result time for this round.
    pub total: Duration,
    /// Label displayed on the client's screen.
    pub result: String,
    /// Whether this round gave up on offloading (every fleet candidate
    /// exhausted its retry budget) and completed the inference locally on
    /// the client.
    pub fell_back: bool,
    /// Name of the endpoint that executed the inference: the serving edge
    /// server, or `"client"` when the round fell back to local execution.
    pub server: String,
    /// What the link-health predictor advised for this round, when the
    /// session runs with [`SessionConfig::predict`] enabled (and the
    /// estimator had at least one sample). `None` otherwise.
    pub prediction: Option<Decision>,
    /// Whether this round ran locally *proactively* — the predictor
    /// expected the offload to lose, so no retry budget was spent.
    /// Contrast with [`RoundReport::fell_back`], the reactive path.
    pub proactive: bool,
    /// Interpreter operations the serving server's resource meter charged
    /// this round (restore + execution + capture). Zero when the round
    /// ran unmetered or completed locally.
    pub ops_used: u64,
    /// Largest heap (in cells) the meter observed on the serving server
    /// over its lifetime. Zero when unmetered or local.
    pub peak_heap: usize,
}

/// Where a resumable round paused — what [`OffloadSession::round_start`]
/// and [`OffloadSession::round_finish`] hand back to their driver (the
/// legacy [`OffloadSession::infer`] loop, or the fleet engine's global
/// event queue).
#[derive(Debug)]
pub(crate) enum RoundStep {
    /// The uplink migration landed on the current server at the
    /// session's current virtual time; the round now needs server CPU
    /// ([`OffloadSession::round_compute`]), which a fleet scheduler may
    /// delay behind other clients' in-flight work.
    NeedCompute,
    /// The round completed (offloaded, proactively local, or fallen
    /// back) — no server CPU is pending.
    Done(RoundReport),
}

/// In-flight state of a round parked between scheduler events.
struct PendingRound {
    /// When the user clicked inference (the retry deadline anchor and
    /// the origin of the round's `total`).
    clicked_at: Duration,
    /// What the link-health predictor advised (attached to the final
    /// report on every exit path).
    prediction: Option<Decision>,
    /// Set once the uplink migration landed: what the downlink later
    /// needs.
    arrived: Option<ArrivedUplink>,
    /// Set when the server's resource meter killed the tenant during the
    /// compute grant: the round must fail over (or finish locally)
    /// instead of running the downlink.
    exhausted: bool,
}

/// The uplink migration's results, carried across the compute pause.
struct ArrivedUplink {
    /// Server state base captured after restore, before execution —
    /// the base the downlink delta is computed against.
    server_base: StateBase,
    /// Bytes the uplink shipped.
    up_bytes: u64,
    /// Whether the uplink used a delta instead of a full snapshot.
    delta_up: bool,
}

/// A persistent offloading relationship between one client and its edge
/// fleet: one *current* server serves rounds, the [`ServerPool`] keeps
/// health records for every candidate, and exhaustion of the retry budget
/// triggers an automatic handoff to the next-best candidate.
pub struct OffloadSession {
    cfg: SessionConfig,
    net: Network,
    cut: Option<NodeId>,
    clock: SimClock,
    client: Endpoint,
    pool: ServerPool,
    /// Index of the current server in the pool.
    current: usize,
    server: Endpoint,
    uplink: Link,
    downlink: Link,
    /// Shared, so a round can hold it across the `&mut self` calls of the
    /// uplink without copying the DOM and the globals.
    agreed: Option<Rc<StateBase>>,
    round: usize,
    /// When the current server acknowledged the model pre-send.
    ack_at: Duration,
    tracer: Tracer,
    /// Bytes of the model bundle pre-sent to servers (fills in at the
    /// first provisioning; feeds the pool's selection metric).
    pub(crate) model_bytes: u64,
    /// When the last failed pre-send gave up. Pre-sends ride the links'
    /// own timeline, overlapping whatever the client is doing, so the
    /// shared clock does not move for them: the next candidate's
    /// pre-send starts here (or now, if that is later), and a client
    /// that is waiting on provisioning mid-round waits until here.
    presend_from: Duration,
    /// Whether a round waits out the pre-send ACK before the click (the
    /// paper's "after ACK" regime, and every long-lived session). A
    /// [`Strategy::OffloadBeforeAck`](crate::Strategy) scenario clears
    /// it: the click lands while the model is still uploading, so the
    /// snapshot queues behind it on the uplink.
    pub(crate) wait_for_ack: bool,
    /// Whether migrations go through the LZ77+Huffman codec, paying
    /// codec CPU time on both sides (`ScenarioConfig::compress`).
    pub(crate) compress: bool,
    /// Size of the last full snapshot shipped — the pending-bytes input
    /// of the selection metric (a handoff always re-sends a full
    /// snapshot). Seeded from the configured image size.
    last_full_bytes: u64,
    /// The round parked between [`OffloadSession::round_start`] and
    /// [`OffloadSession::round_finish`], when one is in flight.
    pending: Option<PendingRound>,
    /// The server meter's `total_ops` reading when the current round
    /// started — per-round `ops_used` is the delta past this mark.
    meter_mark: u64,
    /// The active app's effect summary, when `cfg.snapshot.effects` is
    /// on: what the `effects` gate judges, and the `plan` gate's
    /// compute-time prior.
    effects: Option<snapedge_analyze::EffectSummary>,
    /// Per-candidate predicted queueing delay, pushed by the fleet
    /// engine's balancer before each round when the engine balances
    /// (empty otherwise — which is what makes a session unbalanced): the
    /// current server's entry is the `plan` gate's admission prior, and
    /// the whole vector re-ranks failover candidates by predicted sojourn.
    queue_outlook: Vec<Duration>,
}

impl std::fmt::Debug for OffloadSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OffloadSession")
            .field("model", &self.cfg.model)
            .field("round", &self.round)
            .field("agreed", &self.agreed.is_some())
            .finish()
    }
}

/// Trace labels for a server's links. The primary (index 0) keeps the
/// historical bare `"uplink"`/`"downlink"` labels — a fleet of one
/// produces byte-identical traces to the original single-server session —
/// while failover candidates carry their server name.
fn link_labels(idx: usize, spec: &ServerSpec) -> (String, String) {
    if idx == 0 {
        ("uplink".to_string(), "downlink".to_string())
    } else {
        (
            format!("uplink:{}", spec.name),
            format!("downlink:{}", spec.name),
        )
    }
}

/// Which way a migration travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// Client → server.
    Up,
    /// Server → client.
    Down,
}

impl Dir {
    /// `(sender, receiver)` of a migration in this direction.
    fn ends<'a>(
        self,
        client: &'a mut Endpoint,
        server: &'a mut Endpoint,
    ) -> (&'a mut Endpoint, &'a mut Endpoint) {
        match self {
            Dir::Up => (client, server),
            Dir::Down => (server, client),
        }
    }
}

impl OffloadSession {
    /// Starts a session: builds the client endpoint, loads the app,
    /// selects the cheapest fleet candidate and pre-sends the model to
    /// it (failing over to the remaining candidates when the chosen
    /// one's pre-send exhausts its retry budget).
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError`] for unknown models/cuts or app failures,
    /// and the first candidate's network error when no candidate
    /// acknowledged the model.
    pub fn new(cfg: SessionConfig) -> Result<OffloadSession, OffloadError> {
        let mut session = OffloadSession::build(cfg)?;
        session.provision()?;
        Ok(session)
    }

    /// The first half of [`OffloadSession::new`]: client endpoint, app,
    /// first fleet candidate chosen — nothing on the wire yet.
    pub(crate) fn build(cfg: SessionConfig) -> Result<OffloadSession, OffloadError> {
        if cfg.servers.is_empty() {
            return Err(OffloadError::Config(
                "session needs at least one edge server in its fleet".into(),
            ));
        }
        let net = zoo::by_name(&cfg.model)?;
        let cut = match &cfg.cut {
            Some(label) => Some(net.cut_point(label)?.id),
            None => None,
        };
        let clock = SimClock::new();
        let tracer = Tracer::new();
        let client = Endpoint::new("client", cfg.client_device.clone(), clock.clone())
            .with_tracer(tracer.clone(), Lane::Client);
        let pool = ServerPool::new(cfg.servers.clone());
        // Initial selection: no throughput history yet, so the metric
        // ranks candidates by configured link quality. A fleet of one
        // picks its only server without ceremony (and without events).
        let first = pool.select(cfg.image_bytes as u64, 0).unwrap_or_default();
        let spec = cfg.servers[first].clone();
        if pool.len() > 1 {
            tracer.record(
                &format!("server_select:{}", spec.name),
                Lane::Client,
                EventKind::ServerSelect,
                clock.now(),
                clock.now(),
            );
        }
        let (up_label, down_label) = link_labels(first, &spec);
        let last_full_bytes = cfg.image_bytes as u64;
        let mut session = OffloadSession {
            server: Endpoint::new(&spec.name, spec.device.clone(), clock.clone())
                .with_tracer(tracer.clone(), Lane::Server),
            uplink: Link::new(spec.link.clone())
                .with_tracer(tracer.clone(), &up_label)
                .with_fault_plan(spec.up_faults.clone()),
            downlink: Link::new(spec.link.clone())
                .with_tracer(tracer.clone(), &down_label)
                .with_fault_plan(spec.down_faults.clone()),
            cfg,
            net,
            cut,
            clock,
            client,
            pool,
            current: first,
            agreed: None,
            round: 0,
            ack_at: Duration::ZERO,
            tracer,
            model_bytes: 0,
            presend_from: Duration::ZERO,
            wait_for_ack: true,
            compress: false,
            last_full_bytes,
            pending: None,
            meter_mark: 0,
            effects: None,
            queue_outlook: Vec::new(),
        };
        session.apply_meter();
        session.setup_client()?;
        Ok(session)
    }

    /// The second half of [`OffloadSession::new`]: provisions the chosen
    /// candidate; if its pre-send exhausts the retry budget and other
    /// candidates remain, tries them before giving up (single-server
    /// fleets keep the strict error). After an error no candidate holds
    /// the model, and a round started anyway completes locally.
    pub(crate) fn provision(&mut self) -> Result<(), OffloadError> {
        let Err(e) = self.setup_server() else {
            return Ok(());
        };
        if classify(&e) != FaultClass::Transient || self.pool.len() == 1 {
            return Err(e);
        }
        self.pool.mark_exhausted(self.current);
        if !self.provision_next()? {
            return Err(e);
        }
        Ok(())
    }

    fn client_params(&self) -> Result<ParamStore, OffloadError> {
        Ok(match self.cfg.exec_mode {
            ExecMode::Real => self.net.init_params(self.cfg.seed)?,
            ExecMode::Synthetic { .. } => ParamStore::empty(self.net.name()),
        })
    }

    fn setup_client(&mut self) -> Result<(), OffloadError> {
        let params = self.client_params()?;
        self.client.install_model(
            self.net.clone(),
            params,
            self.cfg.exec_mode,
            self.cut,
            self.cfg.seed,
        );
        let url = apps::synthetic_image_data_url(self.cfg.seed, self.cfg.image_bytes);
        let app = match self.cut {
            Some(_) => apps::partial_inference_app(&url),
            None => apps::full_inference_app(&url),
        };
        self.client.browser.load_html(&app)?;
        let trigger = match self.cut {
            Some(_) => apps::PARTIAL_OFFLOAD_EVENT,
            None => apps::FULL_OFFLOAD_EVENT,
        };
        self.client.browser.set_offload_trigger(Some(trigger));
        if self.cfg.snapshot.effects {
            self.analyze_app(&app)?;
        }
        Ok(())
    }

    /// Runs static effect analysis over the session's app and keeps the
    /// summary for the pre-ship gates. A nondeterministic app is *not* an
    /// error here — every round is forced local instead, since the paper's
    /// fallback (local execution) stays sound when replay does not.
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError::Analyze`] when the app does not parse.
    fn analyze_app(&mut self, app_html: &str) -> Result<(), OffloadError> {
        let opts =
            snapedge_analyze::EffectOptions::from_host_effects(self.client.browser.host_effects());
        let summary = snapedge_analyze::effect_summary_html(app_html, &opts)
            .map_err(OffloadError::Analyze)?;
        self.effects = Some(summary);
        Ok(())
    }

    /// Pre-sends the model to the *current* server and installs the model
    /// host there.
    fn setup_server(&mut self) -> Result<(), OffloadError> {
        let params = self.client_params()?;
        let bundle = match self.cfg.exec_mode {
            ExecMode::Real => ModelBundle::materialized(&self.net, &params)?,
            ExecMode::Synthetic { .. } => ModelBundle::from_network(&self.net),
        };
        let sent = match self.cut {
            Some(cut) => bundle.split(&self.net, cut)?.1,
            None => bundle,
        };
        self.model_bytes = sent.total_bytes();
        // The pre-send rides the link's own timeline (overlapping with
        // whatever the client is doing); transient faults are retried under
        // the session's policy. A server the retry budget cannot reach is
        // reported as a down link — the fleet layer hands off to the next
        // candidate (or the caller may hand off by hand).
        let presend_at = self.clock.now().max(self.presend_from);
        let upload_span = self.tracer.begin_bytes(
            "model_upload",
            Lane::Network,
            EventKind::ModelUpload,
            presend_at,
            Some(sent.total_bytes()),
        );
        let outcome = schedule_resilient(
            &mut self.uplink,
            &self.tracer,
            self.cfg.retry.as_ref(),
            presend_at,
            presend_at,
            sent.total_bytes(),
        )?;
        self.pool
            .observe_faults(self.current, outcome.retries as usize, outcome.gave_up_at);
        let Some(xfer) = outcome.transfer else {
            return Err(self.presend_gave_up(upload_span, outcome.gave_up_at));
        };
        self.pool.observe_transfer(self.current, &xfer);
        self.tracer.end(upload_span, xfer.finish);
        let ack_span = self.tracer.begin_bytes(
            "model_ack",
            Lane::Network,
            EventKind::Other,
            xfer.finish,
            Some(64),
        );
        let ack_outcome = schedule_resilient(
            &mut self.downlink,
            &self.tracer,
            self.cfg.retry.as_ref(),
            xfer.finish,
            presend_at,
            64,
        )?;
        self.pool.observe_faults(
            self.current,
            ack_outcome.retries as usize,
            ack_outcome.gave_up_at,
        );
        let Some(ack) = ack_outcome.transfer else {
            return Err(self.presend_gave_up(ack_span, ack_outcome.gave_up_at));
        };
        self.tracer.end(ack_span, ack.finish);
        self.ack_at = ack.finish;
        self.pool.mark_model_ready(self.current);
        let server_params = match self.cfg.exec_mode {
            ExecMode::Real => ParamStore::from_bundle(&sent)?,
            ExecMode::Synthetic { .. } => ParamStore::empty(self.net.name()),
        };
        self.server.install_model(
            self.net.clone(),
            server_params,
            self.cfg.exec_mode,
            self.cut,
            self.cfg.seed,
        );
        Ok(())
    }

    /// The pre-send's retry budget ran out at `at`: ends its span there,
    /// starts the next candidate's provisioning there, and reports the
    /// unreachable server as a down link.
    fn presend_gave_up(&mut self, span: snapedge_trace::SpanId, at: Duration) -> OffloadError {
        self.pool.observe_faults(self.current, 1, at);
        self.tracer.end(span, at);
        self.presend_from = at;
        OffloadError::Net(NetError::LinkDown)
    }

    /// When the current server acknowledged the model pre-send; offloads
    /// before this time queue behind the model upload.
    pub fn ack_at(&self) -> Duration {
        self.ack_at
    }

    /// Current virtual time.
    pub fn now(&self) -> Duration {
        self.clock.now()
    }

    /// A snapshot of the session's event trace so far (all rounds).
    pub fn trace(&self) -> Trace {
        self.tracer.finish()
    }

    /// Moves the client to a *new, fresh* edge server with the current
    /// server's spec (the roaming case). The delta agreement is dropped;
    /// the model is pre-sent to the new server. No state from the
    /// previous server is needed — snapshots are self-contained.
    ///
    /// # Errors
    ///
    /// Propagates setup failures.
    pub fn handoff(&mut self) -> Result<(), OffloadError> {
        let name = format!("edge-server-{}", self.round + 1);
        let old = self.server.name().to_string();
        let now = self.clock.now();
        self.tracer.record(
            &format!("handoff:{old}->{name}"),
            Lane::Client,
            EventKind::Handoff,
            now,
            now,
        );
        let mut spec = match self.pool.spec(self.current) {
            Some(spec) => spec.clone(),
            None => self.cfg.primary().clone(),
        };
        spec.name = name;
        self.install_server(self.current, &spec);
        self.setup_server()
    }

    /// Points the session at candidate `idx` described by `spec`: fresh
    /// endpoint, fresh links, agreement dropped (delta-epoch reset),
    /// estimator history of the new provisioning epoch cleared. The
    /// previous server's model is marked stale — its endpoint is gone.
    fn install_server(&mut self, idx: usize, spec: &ServerSpec) {
        self.pool.mark_model_stale(self.current);
        self.current = idx;
        self.pool.reset_estimator(idx);
        let (up_label, down_label) = link_labels(idx, spec);
        self.server = Endpoint::new(&spec.name, spec.device.clone(), self.clock.clone())
            .with_tracer(self.tracer.clone(), Lane::Server);
        self.uplink = Link::new(spec.link.clone())
            .with_tracer(self.tracer.clone(), &up_label)
            .with_fault_plan(spec.up_faults.clone());
        self.downlink = Link::new(spec.link.clone())
            .with_tracer(self.tracer.clone(), &down_label)
            .with_fault_plan(spec.down_faults.clone());
        self.agreed = None;
        // The new server's browser starts with a fresh meter, so the
        // per-round usage mark restarts from zero too.
        self.meter_mark = 0;
        self.apply_meter();
    }

    /// The current server's meter limits: the server spec's override
    /// when set, else the fleet-wide config default, else unmetered.
    fn effective_meter(&self) -> Option<&MeterLimits> {
        self.pool
            .spec(self.current)
            .and_then(|spec| spec.meter.as_ref())
            .or(self.cfg.meter.as_ref())
    }

    /// Installs the effective resource meter on the current server's
    /// browser.
    fn apply_meter(&mut self) {
        match self.effective_meter().cloned() {
            Some(limits) => self.server.browser.set_meter(limits),
            None => self.server.browser.clear_meter(),
        }
    }

    /// Records a `meter_exhausted:{resource}` trace marker when `e` is a
    /// tripped resource meter (a no-op for every other failure).
    fn record_meter_exhausted(&self, e: &OffloadError) {
        if let OffloadError::Web(WebError::ResourceExhausted { resource, .. }) = e {
            let now = self.clock.now();
            self.tracer.record(
                &format!("meter_exhausted:{resource}"),
                Lane::Server,
                EventKind::MeterExhausted,
                now,
                now,
            );
        }
    }

    /// Whether failure `e` keeps the round alive: transient network
    /// faults get a fleet-wide second chance (when candidates remain),
    /// and a tripped resource meter *always* recovers — the work moves
    /// to another server or the client, never retrying where it died.
    fn recoverable(&self, e: &OffloadError) -> bool {
        match classify(e) {
            FaultClass::Transient => self.pool.len() > 1,
            FaultClass::FatalForServer => true,
            FaultClass::Fatal => false,
        }
    }

    /// Ops the meter charged on the current server since the round
    /// started, plus the server's lifetime peak heap. Zeros when
    /// unmetered.
    fn meter_usage(&self) -> (u64, usize) {
        match self.server.browser.meter() {
            Some(m) => (m.total_ops().saturating_sub(self.meter_mark), m.peak_heap()),
            None => (0, 0),
        }
    }

    /// Mid-round failover: provisions the next-best candidate
    /// ([`OffloadSession::provision_next`]) while the client waits — for
    /// the new ACK before re-attempting the migration, or, when every
    /// candidate is exhausted (`false`: the round must finish locally),
    /// for the last pre-send to give up.
    ///
    /// # Errors
    ///
    /// Propagates fatal (non-network) provisioning failures.
    fn failover(&mut self) -> Result<bool, OffloadError> {
        // The wait starts now: give-ups on the pre-round timeline are past.
        self.presend_from = self.clock.now();
        let moved = self.provision_next()?;
        let waited_until = if moved {
            self.ack_at
        } else {
            self.presend_from
        };
        self.clock.advance_to(waited_until);
        Ok(moved)
    }

    /// Picks the best non-exhausted candidate by predicted migration
    /// time, emits `server_select`/`handoff` events and re-provisions
    /// (model re-pre-send). Candidates whose provisioning also exhausts
    /// are marked and the next one is tried. Returns `false` when every
    /// candidate is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates fatal (non-network) provisioning failures.
    fn provision_next(&mut self) -> Result<bool, OffloadError> {
        loop {
            // Candidates are ranked by predicted *sojourn* (migration +
            // server-side queueing delay from the engine's outlook); with
            // no outlook, by migration time alone.
            let Some(next) = self.pool.select_with_delays(
                self.last_full_bytes,
                self.model_bytes,
                &self.queue_outlook,
            ) else {
                return Ok(false);
            };
            let spec = match self.pool.spec(next) {
                Some(spec) => spec.clone(),
                None => return Ok(false),
            };
            let old = self.server.name().to_string();
            let now = self.clock.now().max(self.presend_from);
            self.tracer.record(
                &format!("server_select:{}", spec.name),
                Lane::Client,
                EventKind::ServerSelect,
                now,
                now,
            );
            self.tracer.record(
                &format!("handoff:{old}->{}", spec.name),
                Lane::Client,
                EventKind::Handoff,
                now,
                now,
            );
            self.install_server(next, &spec);
            match self.setup_server() {
                Ok(()) => return Ok(true),
                Err(e) if classify(&e) == FaultClass::Transient => {
                    self.pool.mark_exhausted(next);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Performs one offloaded inference on a fresh image. When the retry
    /// budget against the current server exhausts, the session hands off
    /// to the next-best fleet candidate (re-pre-send, full-snapshot
    /// resend) and re-attempts; the round completes locally only once
    /// every candidate is exhausted.
    ///
    /// This is the closed-loop driver of the resumable round state
    /// machine ([`OffloadSession::round_start`] →
    /// [`OffloadSession::round_compute`] →
    /// [`OffloadSession::round_finish`]): it grants the server CPU the
    /// instant the uplink lands, the single-client regime where nothing
    /// else competes for it. The fleet engine drives the same machine
    /// through a global event queue instead, delaying the compute grant
    /// while other clients occupy the server.
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError`] for app, protocol or network failures.
    pub fn infer(&mut self, image_seed: u64) -> Result<RoundReport, OffloadError> {
        let mut step = self.round_start(image_seed)?;
        loop {
            match step {
                RoundStep::Done(report) => return Ok(report),
                RoundStep::NeedCompute => {
                    let now = self.clock.now();
                    self.round_compute(now)?;
                    step = self.round_finish()?;
                }
            }
        }
    }

    /// Starts one round: image load, client-side execution up to the
    /// offload point, the pre-ship gates, and the uplink migration (with
    /// exhaustion-driven failover). Returns
    /// [`RoundStep::NeedCompute`] with the round parked when the uplink
    /// landed and the server's CPU is the next resource needed, or
    /// [`RoundStep::Done`] when the round already completed on the
    /// client (proactive-local or every candidate exhausted).
    pub(crate) fn round_start(&mut self, image_seed: u64) -> Result<RoundStep, OffloadError> {
        self.round += 1;
        // Every candidate gets a fresh chance each round; the first round
        // follows provisioning directly, so whoever gave up there stays
        // given up.
        if self.round > 1 {
            self.pool.begin_round();
        }
        // Per-round usage reads as the delta past this mark.
        self.meter_mark = self
            .server
            .browser
            .meter()
            .map(|m| m.total_ops())
            .unwrap_or(0);
        // Wait for the pre-send ACK before the first offload (the paper's
        // "after ACK" regime). A before-ACK scenario clicks right away.
        if self.wait_for_ack {
            self.clock.advance_to(self.ack_at);
        }

        // The user loads a new image and clicks inference.
        let url = apps::synthetic_image_data_url(image_seed, self.cfg.image_bytes);
        let photo = self
            .client
            .browser
            .core()
            .doc
            .get_element_by_id("photo")
            .ok_or_else(|| OffloadError::Protocol("app lost its photo element".into()))?;
        self.client
            .browser
            .core_mut()
            .doc
            .set_attr(photo, "src", &url)?;
        self.client.browser.click("load")?;
        self.client.run()?;

        let clicked_at = self.clock.now();
        self.client.browser.click("infer")?;
        let exec_span = self
            .tracer
            .begin("exec_client", Lane::Client, EventKind::Exec, clicked_at);
        let outcome = self.client.run()?;
        self.tracer.end(exec_span, self.clock.now());
        if !matches!(outcome, RunOutcome::OffloadPoint { .. }) {
            return Err(OffloadError::Protocol(format!(
                "expected offload point, got {outcome:?}"
            )));
        }

        // The current server never acknowledged its pre-send (a scenario
        // started on a dead fleet, or the previous round's failover ran
        // out of candidates): there is nothing to ship to, so it is an
        // exhausted candidate like any other.
        let provisioned = self
            .pool
            .health(self.current)
            .is_some_and(|health| health.model_ready());
        if !provisioned {
            self.pool.mark_exhausted(self.current);
            if !self.failover()? {
                return self.round_done_locally(clicked_at);
            }
        }

        // The pre-ship gates. A `Local` verdict completes the round on the
        // client with zero link bytes and zero retries spent; the server
        // was never touched, so the delta agreement stays valid.
        let round = gates::Round {
            cfg: &self.cfg.core,
            net: &self.net,
            pool: &self.pool,
            current: self.current,
            effects: self.effects.as_ref(),
            meter: self.effective_meter(),
            queue_outlook: &self.queue_outlook,
            model_bytes: self.model_bytes,
            now: self.clock.now(),
            ack_at: self.ack_at,
        };
        let (verdict, prediction) = gates::pre_ship(&round, &self.tracer)?;
        if let Verdict::Local(reading) = verdict {
            let mut report = self.complete_locally(clicked_at, false)?;
            report.prediction = prediction;
            report.proactive = reading.gate == Gate::Plan;
            return Ok(RoundStep::Done(report));
        }

        self.pending = Some(PendingRound {
            clicked_at,
            prediction,
            arrived: None,
            exhausted: false,
        });
        self.drive_uplink()
    }

    /// Attempts the uplink migration against the current server,
    /// failing over through the fleet on exhaustion, until a snapshot
    /// (or delta) lands on *some* server or every candidate is
    /// exhausted and the round completes locally.
    fn drive_uplink(&mut self) -> Result<RoundStep, OffloadError> {
        let clicked_at = match &self.pending {
            Some(parked) => parked.clicked_at,
            None => {
                return Err(OffloadError::Protocol(
                    "uplink driven with no round in flight".into(),
                ))
            }
        };
        loop {
            match self.offload_up(clicked_at) {
                Ok(Some(arrived)) => {
                    if let Some(parked) = self.pending.as_mut() {
                        parked.arrived = Some(arrived);
                    }
                    return Ok(RoundStep::NeedCompute);
                }
                // The retry budget against the current server ran out.
                Ok(None) => {}
                // Without a retry policy a transient fault is strict
                // fail-fast against one server, but a fleet still tries
                // its remaining candidates before surfacing an error — and
                // a tripped resource meter (exhaustion during the server's
                // restore) always moves on rather than retrying in place.
                Err(e) if self.recoverable(&e) => {
                    self.record_meter_exhausted(&e);
                }
                Err(e) => return Err(e),
            }
            self.pool.mark_exhausted(self.current);
            if !self.failover()? {
                return self.round_done_locally(clicked_at);
            }
        }
    }

    /// Completes the parked round on the client after every fleet
    /// candidate exhausted its retry budget, attaching the round's
    /// recorded prediction. The server's view of the client state is now
    /// stale (bytes may have died mid-wire), so the delta agreement is
    /// dropped — the next round re-sends a full snapshot.
    fn round_done_locally(&mut self, clicked_at: Duration) -> Result<RoundStep, OffloadError> {
        let prediction = self.pending.take().and_then(|parked| parked.prediction);
        let now = self.clock.now();
        self.tracer.record(
            "fallback_local",
            Lane::Client,
            EventKind::Fallback,
            now,
            now,
        );
        self.agreed = None;
        let mut report = self.complete_locally(clicked_at, true)?;
        report.prediction = prediction;
        Ok(RoundStep::Done(report))
    }

    /// Grants the server CPU to the parked round. `admitted_at` is when
    /// the scheduler admitted this request to the server: equal to the
    /// session's current time in the uncontended case, later when other
    /// clients' in-flight work held the CPU — the wait is recorded as
    /// `enqueue`/`queue_wait`/`dequeue` events and the session's clock
    /// jumps to the admission.
    ///
    /// # Errors
    ///
    /// Propagates server-side app failures.
    pub(crate) fn round_compute(&mut self, admitted_at: Duration) -> Result<(), OffloadError> {
        self.wait_for_server(admitted_at);
        let exec_span = self.tracer.begin(
            "exec_server",
            Lane::Server,
            EventKind::Exec,
            self.clock.now(),
        );
        match self.server.run() {
            Ok(_) => {
                self.tracer.end(exec_span, self.clock.now());
                Ok(())
            }
            // The server's resource meter killed the tenant mid-compute
            // (for a slice kill the clock has already been rewound to the
            // charged slice). The round stays alive: park the exhaustion
            // so `round_finish` fails over or finishes locally.
            Err(e) if classify(&e) == FaultClass::FatalForServer => {
                self.tracer.end(exec_span, self.clock.now());
                self.record_meter_exhausted(&e);
                if let Some(parked) = self.pending.as_mut() {
                    parked.exhausted = true;
                }
                Ok(())
            }
            Err(e) => {
                self.tracer.end(exec_span, self.clock.now());
                Err(e)
            }
        }
    }

    /// Records the queueing delay of a contended admission and advances
    /// the session's clock to it. A no-op when the server was free — the
    /// single-client trace stays byte-identical.
    fn wait_for_server(&mut self, admitted_at: Duration) {
        let now = self.clock.now();
        if admitted_at <= now {
            return;
        }
        self.tracer
            .record("enqueue", Lane::Server, EventKind::Enqueue, now, now);
        self.tracer.record(
            "queue_wait",
            Lane::Server,
            EventKind::QueueWait,
            now,
            admitted_at,
        );
        self.tracer.record(
            "dequeue",
            Lane::Server,
            EventKind::Dequeue,
            admitted_at,
            admitted_at,
        );
        self.clock.advance_to(admitted_at);
    }

    /// Finishes the parked round after the server CPU ran: downlink
    /// migration, result installation, agreement update. When the
    /// downlink's budget exhausts mid-migration the session fails over
    /// and re-drives the uplink, so the returned step may be
    /// [`RoundStep::NeedCompute`] again — against the new server —
    /// rather than [`RoundStep::Done`].
    pub(crate) fn round_finish(&mut self) -> Result<RoundStep, OffloadError> {
        // A meter kill during the compute grant: the server's state is
        // dead, so skip the downlink entirely and move the round on.
        if let Some(parked) = self.pending.as_mut() {
            if parked.exhausted {
                parked.exhausted = false;
                parked.arrived = None;
                let clicked_at = parked.clicked_at;
                return self.exhausted_mid_round(clicked_at);
            }
        }
        let (clicked_at, arrived) = match self.pending.as_mut() {
            Some(parked) => match parked.arrived.take() {
                Some(arrived) => (parked.clicked_at, arrived),
                None => {
                    return Err(OffloadError::Protocol(
                        "round_finish called with no uplink in flight".into(),
                    ))
                }
            },
            None => {
                return Err(OffloadError::Protocol(
                    "round_finish called with no round in flight".into(),
                ))
            }
        };
        match self.offload_down(&arrived, clicked_at) {
            Ok(Some(mut report)) => {
                report.prediction = self.pending.take().and_then(|parked| parked.prediction);
                Ok(RoundStep::Done(report))
            }
            // The retry budget against the current server ran out.
            Ok(None) => self.exhausted_mid_round(clicked_at),
            // Same fleet-wide second chance as the uplink path; a meter
            // kill during the server's capture also moves on.
            Err(e) if self.recoverable(&e) => {
                self.record_meter_exhausted(&e);
                self.exhausted_mid_round(clicked_at)
            }
            Err(e) => Err(e),
        }
    }

    /// Downlink exhaustion: mark the server, fail over and re-drive the
    /// uplink, or complete locally when the fleet is spent.
    fn exhausted_mid_round(&mut self, clicked_at: Duration) -> Result<RoundStep, OffloadError> {
        self.pool.mark_exhausted(self.current);
        if self.failover()? {
            self.drive_uplink()
        } else {
            self.round_done_locally(clicked_at)
        }
    }

    /// Index of the currently-serving fleet candidate — how a scheduler
    /// keys its per-server queue for this session's parked round.
    pub(crate) fn current_server(&self) -> usize {
        self.current
    }

    /// Installs the fleet engine's balancer outlook for the next round:
    /// one predicted queueing delay per candidate, in fleet order. From
    /// then on the session is balanced: the `plan` gate runs and prices
    /// the wait, and failover ranks by predicted sojourn.
    pub(crate) fn set_queue_outlook(&mut self, outlook: Vec<Duration>) {
        self.queue_outlook = outlook;
    }

    /// Records that the fleet scheduler parked this session's compute
    /// admission behind a busy server under fair-share ordering.
    pub(crate) fn record_admit_deferred(&mut self, at: Duration) {
        self.tracer.record(
            "admit_deferred",
            Lane::Server,
            EventKind::AdmitDeferred,
            at,
            at,
        );
    }

    /// Records that this session's compute grant was merged into a
    /// server-side batch of `size` co-queued inferences.
    pub(crate) fn record_batch_formed(&mut self, at: Duration, size: usize) {
        self.tracer.record(
            &format!("batch:{size}"),
            Lane::Server,
            EventKind::BatchFormed,
            at,
            at,
        );
    }

    /// Advances the session's private clock to global time `t` (no-op
    /// when already past it) — how a scheduler aligns a parked session
    /// with the fleet-wide virtual clock before resuming it.
    pub(crate) fn advance_clock_to(&mut self, t: Duration) {
        self.clock.advance_to(t);
    }

    /// The uplink half of an offload attempt against the current server:
    /// migrates the client state up (delta when an agreement exists) and
    /// captures the server state base the downlink delta will later be
    /// computed against. `Ok(None)` means the retry budget against this
    /// server exhausted mid-migration.
    fn offload_up(&mut self, clicked_at: Duration) -> Result<Option<ArrivedUplink>, OffloadError> {
        let base = self.agreed.clone();
        let landed = self.migrate(Dir::Up, base.as_deref(), clicked_at)?;
        Ok(landed.map(|(up_bytes, delta_up)| ArrivedUplink {
            server_base: self.server.browser.state_base(),
            up_bytes,
            delta_up,
        }))
    }

    /// The downlink half, run after the server CPU executed the pending
    /// event: downlink migration, result installation on the client,
    /// trigger re-arm, agreement update. `Ok(None)` means the retry
    /// budget against this server exhausted mid-migration.
    fn offload_down(
        &mut self,
        arrived: &ArrivedUplink,
        clicked_at: Duration,
    ) -> Result<Option<RoundReport>, OffloadError> {
        // A downlink delta needs the base the uplink delta left behind.
        let base = arrived.delta_up.then_some(&arrived.server_base);
        let Some((down_bytes, delta_down)) = self.migrate(Dir::Down, base, clicked_at)? else {
            return Ok(None);
        };

        self.client.browser.set_offload_trigger(None);
        self.client.run()?;
        // Re-arm for the next round.
        let trigger = match self.cut {
            Some(_) => apps::PARTIAL_OFFLOAD_EVENT,
            None => apps::FULL_OFFLOAD_EVENT,
        };
        self.client.browser.set_offload_trigger(Some(trigger));

        // Client and server now agree on the client's state.
        self.agreed = Some(Rc::new(self.client.browser.state_base()));

        let (ops_used, peak_heap) = self.meter_usage();
        Ok(Some(RoundReport {
            round: self.round,
            delta_up: arrived.delta_up,
            delta_down,
            up_bytes: arrived.up_bytes,
            down_bytes,
            total: self.clock.now() - clicked_at,
            result: self.client.browser.element_text("result")?.to_string(),
            fell_back: false,
            server: self.server.name().to_string(),
            prediction: None,
            proactive: false,
            ops_used,
            peak_heap,
        }))
    }

    /// Runs the armed inference handler on the client: the trigger event
    /// is still queued (captures never mutate it), so disarming the
    /// trigger and resuming executes the inference locally. Shared by the
    /// reactive fallback (after exhaustion) and the proactive path (a
    /// pre-ship gate said `Local`).
    fn complete_locally(
        &mut self,
        clicked_at: Duration,
        fell_back: bool,
    ) -> Result<RoundReport, OffloadError> {
        self.client.browser.set_offload_trigger(None);
        let span = self.tracer.begin(
            "exec_client",
            Lane::Client,
            EventKind::Exec,
            self.clock.now(),
        );
        self.client.run()?;
        self.tracer.end(span, self.clock.now());
        let trigger = match self.cut {
            Some(_) => apps::PARTIAL_OFFLOAD_EVENT,
            None => apps::FULL_OFFLOAD_EVENT,
        };
        self.client.browser.set_offload_trigger(Some(trigger));
        Ok(RoundReport {
            round: self.round,
            delta_up: false,
            delta_down: false,
            up_bytes: 0,
            down_bytes: 0,
            total: self.clock.now() - clicked_at,
            result: self.client.browser.element_text("result")?.to_string(),
            fell_back,
            server: "client".to_string(),
            prediction: None,
            proactive: false,
            ops_used: 0,
            peak_heap: 0,
        })
    }

    /// One migration, the paper's capture → transmit → restore, in either
    /// direction: a delta against `base` when one is given (and deltas
    /// are on, and the diff is expressible), else a full snapshot.
    /// Returns the wire bytes and whether a delta carried them; `Ok(None)`
    /// means the retry budget ran out. Up and down differ in two places
    /// only, both named below.
    fn migrate(
        &mut self,
        dir: Dir,
        base: Option<&StateBase>,
        anchor: Duration,
    ) -> Result<Option<(u64, bool)>, OffloadError> {
        if let Some(base) = base.filter(|_| self.cfg.use_deltas) {
            let (sender, _) = dir.ends(&mut self.client, &mut self.server);
            if let DeltaCapture::Delta(delta) = sender.capture_delta(base, &self.cfg.snapshot)? {
                if let Some(wire) = self.transfer(dir, delta.script(), anchor)? {
                    let (_, receiver) = dir.ends(&mut self.client, &mut self.server);
                    receiver.apply_delta(&delta)?;
                    return Ok(Some((wire, true)));
                }
                match dir {
                    // The delta never arrived, so the server's agreed base
                    // can no longer be trusted. Drop the agreement and fall
                    // through to a full-snapshot re-send (fresh attempt
                    // budget, same deadline).
                    Dir::Up => self.agreed = None,
                    Dir::Down => return Ok(None),
                }
            }
        }
        let (sender, _) = dir.ends(&mut self.client, &mut self.server);
        let (snapshot, _) = sender.capture(&self.cfg.snapshot)?;
        if dir == Dir::Up {
            // After a handoff the next server receives a fresh full
            // snapshot, so this is what the pool's selection metric
            // prices as pending migration state.
            self.last_full_bytes = snapshot.size_bytes();
        }
        let Some(wire) = self.transfer(dir, snapshot.html(), anchor)? else {
            return Ok(None);
        };
        let (_, receiver) = dir.ends(&mut self.client, &mut self.server);
        receiver.restore(&snapshot)?;
        Ok(Some((wire, false)))
    }

    /// Ships `payload` over the uplink ([`Dir::Up`]) or downlink,
    /// advancing the clock to delivery and recording a `transfer_{dir}`
    /// span; returns the bytes that crossed the wire. With
    /// [`OffloadSession::compress`] set the payload goes through the
    /// LZ77+Huffman codec — the real codec runs, the clock is charged
    /// from the device models — recorded as `compress_{dir}` on the
    /// sender's lane and `decompress_{dir}` on the receiver's.
    /// Transient faults are retried under the session's policy (the
    /// deadline measured from `anchor`, the moment the user clicked);
    /// `Ok(None)` means the retry budget ran out.
    fn transfer(
        &mut self,
        dir: Dir,
        payload: &str,
        anchor: Duration,
    ) -> Result<Option<u64>, OffloadError> {
        let (dir, link, sender, receiver) = match dir {
            Dir::Up => ("up", &mut self.uplink, &self.client, &self.server),
            Dir::Down => ("down", &mut self.downlink, &self.server, &self.client),
        };
        let plain = payload.len() as u64;
        let packed = self
            .compress
            .then(|| snapedge_net::compress::compress(payload.as_bytes()));
        if packed.is_some() {
            let start = self.clock.now();
            self.clock.advance_by(sender.device.compress_time(plain));
            self.tracer.record(
                &format!("compress_{dir}"),
                sender.lane(),
                EventKind::Codec,
                start,
                self.clock.now(),
            );
        }
        let bytes = packed.as_ref().map_or(plain, |p| p.len() as u64);
        let span = self.tracer.begin_bytes(
            &format!("transfer_{dir}"),
            Lane::Network,
            EventKind::Transfer,
            self.clock.now(),
            Some(bytes),
        );
        let outcome = schedule_resilient(
            link,
            &self.tracer,
            self.cfg.retry.as_ref(),
            self.clock.now(),
            anchor,
            bytes,
        )?;
        self.pool
            .observe_faults(self.current, outcome.retries as usize, outcome.gave_up_at);
        let Some(xfer) = outcome.transfer else {
            // Giving up is itself a fault observation against this server.
            // The client sat through every failed attempt, so the clock
            // moves to the last one (a no-op for instant refusals) and
            // whatever comes next — failover, local fallback — starts there.
            self.pool
                .observe_faults(self.current, 1, outcome.gave_up_at);
            self.clock.advance_to(outcome.gave_up_at);
            self.tracer.end(span, outcome.gave_up_at);
            return Ok(None);
        };
        self.pool.observe_transfer(self.current, &xfer);
        self.clock.advance_to(xfer.finish);
        self.tracer.end(span, xfer.finish);
        if let Some(packed) = packed {
            if snapedge_net::compress::decompress(&packed)? != payload.as_bytes() {
                return Err(OffloadError::Protocol("codec roundtrip mismatch".into()));
            }
            let start = self.clock.now();
            self.clock
                .advance_by(receiver.device.decompress_time(plain));
            self.tracer.record(
                &format!("decompress_{dir}"),
                receiver.lane(),
                EventKind::Codec,
                start,
                self.clock.now(),
            );
        }
        Ok(Some(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_round_is_full_then_deltas() {
        let mut session = OffloadSession::new(SessionConfig::tiny()).unwrap();
        let r1 = session.infer(100).unwrap();
        assert!(!r1.delta_up, "first offload must be a full snapshot");
        let r2 = session.infer(101).unwrap();
        assert!(r2.delta_up, "second offload should use a delta");
        assert!(r2.delta_down);
        assert!(r2.up_bytes < r1.up_bytes);
    }

    #[test]
    fn delta_results_match_full_snapshot_results() {
        let mut with = OffloadSession::new(SessionConfig::tiny()).unwrap();
        let mut without = OffloadSession::new(SessionConfig {
            use_deltas: false,
            ..SessionConfig::tiny()
        })
        .unwrap();
        for seed in [11u64, 12, 13, 14] {
            let a = with.infer(seed).unwrap();
            let b = without.infer(seed).unwrap();
            assert_eq!(a.result, b.result, "seed {seed}");
        }
    }

    #[test]
    fn handoff_falls_back_to_full_then_resumes_deltas() {
        let mut session = OffloadSession::new(SessionConfig::tiny()).unwrap();
        session.infer(1).unwrap();
        let r2 = session.infer(2).unwrap();
        assert!(r2.delta_up);

        session.handoff().unwrap();
        let r3 = session.infer(3).unwrap();
        assert!(
            !r3.delta_up,
            "new server has no state; full snapshot needed"
        );
        let r4 = session.infer(4).unwrap();
        assert!(r4.delta_up, "agreement re-established after one offload");
        assert!(r4.result.starts_with("class_"));
    }

    #[test]
    fn deltas_are_much_smaller_than_full_snapshots() {
        let mut session = OffloadSession::new(SessionConfig::tiny()).unwrap();
        let r1 = session.infer(1).unwrap();
        let r2 = session.infer(2).unwrap();
        // The delta re-ships the image string + result, not functions/DOM.
        assert!(
            (r2.up_bytes as f64) < (r1.up_bytes as f64) * 0.9,
            "round2 {} vs round1 {}",
            r2.up_bytes,
            r1.up_bytes
        );
    }

    #[test]
    fn rounds_are_faster_once_the_model_is_up() {
        let mut session = OffloadSession::new(SessionConfig::tiny()).unwrap();
        let r1 = session.infer(1).unwrap();
        let r2 = session.infer(2).unwrap();
        // Neither round waits for the model (infer() waits for ACK), so
        // both are sub-second; and the delta round is no slower.
        assert!(r1.total.as_secs_f64() < 1.0);
        assert!(r2.total <= r1.total + Duration::from_millis(50));
    }

    #[test]
    fn nondeterministic_app_is_forced_local_with_zero_link_bytes() {
        // Every gate configured at once, balanced the way the engine
        // balances a session: by handing it a queue outlook. On the
        // deterministic paper app they all say ship: effects, plan, and
        // verify once per capture.
        let every_gate = SessionConfig::paper_builder("agenet")
            .predict(true)
            .snapshot(snapedge_webapp::SnapshotOptions {
                verify: true,
                effects: true,
                ..Default::default()
            })
            .build();
        let mut session = OffloadSession::new(every_gate).unwrap();
        session.set_queue_outlook(vec![Duration::ZERO]);
        let gates = |session: &OffloadSession| -> Vec<String> {
            let events = session.trace().events().to_vec();
            let gates = events.into_iter().filter(|e| e.kind == EventKind::Gate);
            gates.map(|e| e.name).collect()
        };
        let shipped = session.infer(1).unwrap();
        let before = gates(&session);
        assert_eq!(before.len(), 4, "{before:?}");
        assert!(before.iter().all(|name| name.contains(":ship:")));
        let agreed = session.agreed.clone().expect("round 1 left an agreement");

        // The paper apps are deterministic, so hand the gate the summary
        // of an app whose handler reads a random host.
        let app = "<html><body><button id=\"go\">go</button></body>\n<script>\n\
                   var out = null;\n\
                   function onGo() { out = rng.next(); }\n\
                   document.getElementById(\"go\").addEventListener(\"go\", onGo);\n\
                   </script></html>\n";
        let opts = snapedge_analyze::EffectOptions::new()
            .with_host("rng", snapedge_webapp::HostEffect::Random);
        session.effects = Some(snapedge_analyze::effect_summary_html(app, &opts).unwrap());

        let report = session.infer(1).unwrap();
        assert_eq!(report.server, "client", "the round never left the client");
        assert_eq!(report.up_bytes, 0, "no snapshot bytes shipped");
        assert!(!report.fell_back, "no retry budget was spent");
        assert!(!report.proactive && report.prediction.is_none());
        assert_eq!(report.result, shipped.result, "same image, same label");
        // The first gate to say local ends the chain: one more event, and
        // nothing the later gates guard was touched.
        assert_eq!(gates(&session)[4..], ["gate:effects:local:1:0"]);
        assert_eq!(session.trace().bytes_of("transfer_up"), shipped.up_bytes);
        assert!(Rc::ptr_eq(&agreed, session.agreed.as_ref().unwrap()));
    }

    #[test]
    fn partial_inference_sessions_work_with_deltas() {
        let mut session = OffloadSession::new(SessionConfig {
            cut: Some("1st_pool".to_string()),
            ..SessionConfig::tiny()
        })
        .unwrap();
        let r1 = session.infer(5).unwrap();
        let r2 = session.infer(6).unwrap();
        assert!(r2.delta_up);
        assert!(r1.result.starts_with("class_"));
        assert!(r2.result.starts_with("class_"));
    }
}
