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
//! best candidate (re-pre-send, delta-epoch reset). A pre-send never
//! holds a clicked round: the round that hands off completes locally,
//! and the new server serves from the next click on, with a full
//! snapshot. A fleet of size 1 behaves bit-for-bit like the original
//! single-server session.

use crate::apps;
use crate::config::{ConfigBuilder, OffloadConfig};
use crate::endpoint::Endpoint;
use crate::fleet::{ServerPool, ServerSpec};
use crate::gates::{self, Gate, Verdict};
use crate::partition::PartitionOptimizer;
use crate::resilience::{classify, schedule_resilient, FaultClass};
use crate::OffloadError;
use snapedge_dnn::{zoo, CutPoint, ExecMode, ModelBundle, Network, ParamStore};
use snapedge_net::{Link, SimClock, Transfer};
use snapedge_trace::{EventKind, Lane, Trace, Tracer};
use snapedge_webapp::{DeltaCapture, MeterLimits, RunOutcome, StateBase, WebError};
use std::cell::OnceCell;
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
    /// Whether this round gave up on offloading and completed the
    /// inference locally on the client: its server never acknowledged
    /// the model, or failed the round and the session failed over.
    pub fell_back: bool,
    /// Name of the edge server that executed the inference; `None` when
    /// it ran on the client, by a gate's `Local` verdict or by fallback.
    pub server: Option<String>,
    /// Whether this round ran locally *proactively*: the `plan` gate
    /// priced offloading at the session's own cut no faster than local
    /// execution, so no retry budget was spent. Contrast with
    /// [`RoundReport::fell_back`], the reactive path.
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
/// hands back to its driver (the legacy [`OffloadSession::infer`], or
/// the fleet engine's global event queue). A parked round ends with
/// [`OffloadSession::round_finish`], which always completes it.
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

/// In-flight state of a round parked between scheduler events: its
/// uplink landed and it waits for the server CPU.
struct PendingRound {
    /// When the user clicked inference (the retry deadline anchor and
    /// the origin of the round's `total`).
    clicked_at: Duration,
    /// What the downlink later needs.
    arrived: ArrivedUplink,
    /// Set when the server's resource meter killed the tenant during the
    /// compute grant: the round must fail over and finish locally
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
    /// The configured cut, resolved once; `None` offloads the whole DNN.
    /// The `plan` gate prices this cut (the input cut when `None`) only.
    cut: Option<CutPoint>,
    clock: SimClock,
    client: Endpoint,
    pool: ServerPool,
    /// Its client index in a fleet (0 alone): the placement tie-break.
    client_id: usize,
    /// Index of the current server in the pool.
    current: usize,
    /// The current server: endpoint, links and the state valid against
    /// them.
    server: AttachedServer,
    round: usize,
    /// When the current server acknowledged the model pre-send; `None`
    /// until it has, which is what leaves it unprovisioned.
    ack_at: Option<Duration>,
    tracer: Tracer,
    /// The model bundle pre-sent to every server the session provisions
    /// (the rear half under a cut), made once in `new`.
    bundle: ModelBundle,
    /// Its size in bytes: what a pre-send uploads, what the `plan` gate
    /// prices while it is unacknowledged, and what failover prices for
    /// every candidate (build does not; ROADMAP 3(a)): its upload holds
    /// the next click, never the round that failed over.
    pub(crate) model_bytes: u64,
    /// When the last failed pre-send gave up. Pre-sends ride the links'
    /// own timeline, overlapping whatever the client is doing, so the
    /// shared clock does not move for them: the next candidate's
    /// pre-send starts here (or now, if that is later), and until the
    /// clock reaches it that provisioning is still in flight, so no
    /// round starts another.
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
    /// The active app's effect summary, when `cfg.effects` is on: what
    /// the `effects` gate judges, and the `plan` gate's compute-time
    /// prior.
    effects: Option<snapedge_analyze::EffectSummary>,
    /// Per-candidate predicted queueing delay, pushed by the fleet
    /// engine's balancer before each round when the engine balances
    /// (empty otherwise — which is what makes a session unbalanced): the
    /// current server's entry is the `plan` gate's admission prior, and
    /// the whole vector re-ranks failover candidates by predicted sojourn.
    queue_outlook: Vec<Duration>,
    /// The `plan` gate's model profile and cut list, built on the first
    /// round that consults the gate; a session that never does builds
    /// none.
    planner: OnceCell<PartitionOptimizer>,
}

impl std::fmt::Debug for OffloadSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OffloadSession")
            .field("model", &self.cfg.model)
            .field("round", &self.round)
            .field("agreed", &self.server.agreed.is_some())
            .finish()
    }
}

/// The serving edge server as a session holds it: a fresh endpoint and
/// fresh links, plus the state that is only valid against them. Failover
/// and handoff replace the whole record, so nothing of the previous
/// server survives by accident.
struct AttachedServer {
    endpoint: Endpoint,
    uplink: Link,
    downlink: Link,
    /// The client state both sides agree on — the base of the next
    /// uplink delta. Shared, so a round can hold it across the `&mut
    /// self` calls of the uplink without copying the DOM and the globals.
    agreed: Option<Rc<StateBase>>,
    /// The endpoint meter's `total_ops` reading when the current round
    /// started — per-round `ops_used` is the delta past this mark.
    meter_mark: u64,
}

impl AttachedServer {
    /// Builds the record for fleet candidate `idx` described by `spec`
    /// on the session's clock and tracer: the spec's fault plans on its
    /// links, and its meter (else the fleet-wide `default_meter`) on its
    /// browser — the one place a server's effective meter is decided.
    /// The primary (index 0) keeps the historical bare
    /// `"uplink"`/`"downlink"` link labels — a fleet of one produces
    /// byte-identical traces to the original single-server session —
    /// while failover candidates carry their server name.
    fn new(
        idx: usize,
        spec: &ServerSpec,
        default_meter: Option<&MeterLimits>,
        clock: &SimClock,
        tracer: &Tracer,
    ) -> AttachedServer {
        let (up_label, down_label) = if idx == 0 {
            ("uplink".to_string(), "downlink".to_string())
        } else {
            (
                format!("uplink:{}", spec.name),
                format!("downlink:{}", spec.name),
            )
        };
        let mut endpoint = Endpoint::new(&spec.name, spec.device.clone(), clock.clone())
            .with_tracer(tracer.clone(), Lane::Server);
        if let Some(limits) = spec.meter.as_ref().or(default_meter) {
            endpoint.browser.set_meter(limits.clone());
        }
        AttachedServer {
            endpoint,
            uplink: Link::new(spec.link.clone())
                .with_tracer(tracer.clone(), &up_label)
                .with_fault_plan(spec.up_faults.clone()),
            downlink: Link::new(spec.link.clone())
                .with_tracer(tracer.clone(), &down_label)
                .with_fault_plan(spec.down_faults.clone()),
            agreed: None,
            meter_mark: 0,
        }
    }
}

/// One leg on the wire between the client and the current server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    /// The model pre-send, client → server.
    ModelUpload,
    /// The server's 64-byte acknowledgement of it.
    ModelAck,
    /// A migration's snapshot or delta.
    Migrate(Dir),
}

impl Leg {
    /// The leg's span name and event kind, and the link it rides.
    fn describe(self) -> (&'static str, EventKind, Dir) {
        match self {
            Leg::ModelUpload => ("model_upload", EventKind::ModelUpload, Dir::Up),
            Leg::ModelAck => ("model_ack", EventKind::Other, Dir::Down),
            Leg::Migrate(Dir::Up) => ("transfer_up", EventKind::Transfer, Dir::Up),
            Leg::Migrate(Dir::Down) => ("transfer_down", EventKind::Transfer, Dir::Down),
        }
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
    /// Starts a session: builds the client endpoint, loads the app (its
    /// photo empty until a round draws one), selects the cheapest fleet
    /// candidate and pre-sends the model to it, failing over to the
    /// remaining candidates when the chosen one's pre-send does not get
    /// through. Whether that fails the session is the one provisioning
    /// rule, [`OffloadSession::provisioned`]; a session it lets start
    /// unprovisioned completes its rounds locally, and each round from the
    /// second on re-provisions.
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError`] for unknown models/cuts or app failures,
    /// and the pre-send's own network fault under strict fail-fast: one
    /// server and no retry policy.
    pub fn new(cfg: SessionConfig) -> Result<OffloadSession, OffloadError> {
        OffloadSession::for_client(cfg, 0)
    }

    /// [`OffloadSession::new`] for client `client_id` of a fleet.
    pub(crate) fn for_client(cfg: SessionConfig, client_id: usize) -> Result<Self, OffloadError> {
        crate::fleet::check_fleet(&cfg.servers)?;
        let net = zoo::by_name(&cfg.model)?;
        let cut = match &cfg.cut {
            Some(label) => Some(net.cut_point(label)?),
            None => None,
        };
        let params = match cfg.exec_mode {
            ExecMode::Real => net.init_params(cfg.seed)?,
            ExecMode::Synthetic { .. } => ParamStore::empty(net.name()),
        };
        let bundle = match cfg.exec_mode {
            ExecMode::Real => ModelBundle::materialized(&net, &params)?,
            ExecMode::Synthetic { .. } => ModelBundle::from_network(&net),
        };
        let bundle = match &cut {
            Some(cut) => bundle.split(&net, cut.id)?.1,
            None => bundle,
        };
        let clock = SimClock::new();
        let tracer = Tracer::new();
        let client = Endpoint::new("client", cfg.client_device.clone(), clock.clone())
            .with_tracer(tracer.clone(), Lane::Client);
        let pool = ServerPool::new(cfg.servers.clone());
        // No throughput history yet: candidates rank by configured link
        // quality. A fleet of one picks its only server without events.
        let first = pool
            .select(client_id, cfg.image_bytes as u64, 0, &[])
            .unwrap_or_default();
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
        let mut session = OffloadSession {
            server: AttachedServer::new(first, &spec, cfg.meter.as_ref(), &clock, &tracer),
            last_full_bytes: cfg.image_bytes as u64,
            cfg,
            net,
            cut,
            clock,
            client,
            pool,
            client_id,
            current: first,
            round: 0,
            ack_at: None,
            tracer,
            model_bytes: bundle.total_bytes(),
            bundle,
            presend_from: Duration::ZERO,
            wait_for_ack: true,
            compress: false,
            pending: None,
            effects: None,
            queue_outlook: Vec::new(),
            planner: OnceCell::new(),
        };
        session.setup_client(params)?;
        let presend = session.setup_server();
        if !session.provisioned(presend)? {
            session.pool.mark_exhausted(session.current);
            session.provision_next()?;
        }
        Ok(session)
    }

    fn setup_client(&mut self, params: ParamStore) -> Result<(), OffloadError> {
        self.client.install_model(
            self.net.clone(),
            params,
            self.cfg.exec_mode,
            self.cut.as_ref().map(|cut| cut.id),
            self.cfg.seed,
        );
        // The photo starts empty: `round_start` draws each round's own
        // image into it before the `load` click, so nothing reads it first.
        let app = match self.cut {
            Some(_) => apps::partial_inference_app(""),
            None => apps::full_inference_app(""),
        };
        self.client.browser.load_html(&app)?;
        self.arm_trigger();
        if self.cfg.effects {
            self.analyze_app(&app)?;
        }
        Ok(())
    }

    /// Arms the client's offload trigger: the app event whose handler
    /// stops at the offload point instead of running to completion.
    fn arm_trigger(&mut self) {
        let trigger = match self.cut {
            Some(_) => apps::PARTIAL_OFFLOAD_EVENT,
            None => apps::FULL_OFFLOAD_EVENT,
        };
        self.client.browser.set_offload_trigger(Some(trigger));
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
    /// host there. The pre-send rides the links' own timeline
    /// (overlapping with whatever the client is doing). `Ok(false)` means
    /// the retry budget ran out before the ACK: the server is not
    /// provisioned, and [`OffloadSession::provisioned`] decides what that
    /// means for the session.
    fn setup_server(&mut self) -> Result<bool, OffloadError> {
        let presend_at = self.clock.now().max(self.presend_from);
        let upload = self.send(Leg::ModelUpload, presend_at, presend_at, self.model_bytes)?;
        let Some(upload) = upload else {
            return Ok(false);
        };
        let Some(ack) = self.send(Leg::ModelAck, upload.finish, presend_at, 64)? else {
            return Ok(false);
        };
        self.ack_at = Some(ack.finish);
        let server_params = match self.cfg.exec_mode {
            ExecMode::Real => ParamStore::from_bundle(&self.bundle)?,
            ExecMode::Synthetic { .. } => ParamStore::empty(self.net.name()),
        };
        self.server.endpoint.install_model(
            self.net.clone(),
            server_params,
            self.cfg.exec_mode,
            self.cut.as_ref().map(|cut| cut.id),
            self.cfg.seed,
        );
        Ok(true)
    }

    /// The one provisioning rule, applied to a pre-send's outcome:
    /// whether the server acknowledged the model. A pre-send that gave up
    /// under a retry policy (`Ok(false)` already), or whose fault
    /// [`OffloadSession::recoverable`] lets a fleet of two or more absorb,
    /// leaves the session unprovisioned rather than failing it. Anything
    /// else is returned as is: a fatal error, or a transient fault under
    /// strict fail-fast (one server, no retry policy).
    fn provisioned(&self, presend: Result<bool, OffloadError>) -> Result<bool, OffloadError> {
        match presend {
            Err(e) if self.recoverable(&e) => Ok(false),
            presend => presend,
        }
    }

    /// When the serving server acknowledged the model pre-send; a round
    /// clicked before this time waits for it (a before-ACK scenario's
    /// offload queues behind the model upload instead). `None` until it
    /// has: the session is unprovisioned and its rounds complete locally.
    /// A server provisioned after a click never serves that round, so its
    /// ACK first holds the next click.
    pub fn ack_at(&self) -> Option<Duration> {
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
    /// previous server is needed — snapshots are self-contained. A failed
    /// pre-send follows the rule of [`OffloadSession::new`].
    ///
    /// # Errors
    ///
    /// Propagates fatal setup failures, and the pre-send's network fault
    /// under strict fail-fast (one server, no retry policy).
    pub fn handoff(&mut self) -> Result<(), OffloadError> {
        let mut spec = match self.pool.spec(self.current) {
            Some(spec) => spec.clone(),
            None => self.cfg.primary().clone(),
        };
        spec.name = format!("edge-server-{}", self.round + 1);
        let presend = self.attach(self.current, &spec, self.clock.now());
        self.provisioned(presend).map(drop)
    }

    /// Attaches candidate `idx` described by `spec` in place of the
    /// current server at `at`: records the `handoff` event, builds a fresh
    /// [`AttachedServer`] (agreement dropped — a delta-epoch reset — and
    /// meter mark zeroed), clears the estimator history of the new
    /// provisioning epoch and pre-sends the model.
    fn attach(
        &mut self,
        idx: usize,
        spec: &ServerSpec,
        at: Duration,
    ) -> Result<bool, OffloadError> {
        let old = self.server.endpoint.name();
        self.tracer.record(
            &format!("handoff:{old}->{}", spec.name),
            Lane::Client,
            EventKind::Handoff,
            at,
            at,
        );
        self.current = idx;
        self.pool.reset_estimator(idx);
        let meter = self.cfg.meter.as_ref();
        self.server = AttachedServer::new(idx, spec, meter, &self.clock, &self.tracer);
        self.ack_at = None;
        self.setup_server()
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
        match self.server.endpoint.browser.meter() {
            Some(m) => (
                m.total_ops().saturating_sub(self.server.meter_mark),
                m.peak_heap(),
            ),
            None => (0, 0),
        }
    }

    /// Failover after the click: provisions the next-best candidate
    /// ([`OffloadSession::provision_next`]) for the next click, which
    /// waits for its ACK as at build; the round that failed over
    /// completes locally, never waiting on the pre-send. While an earlier
    /// provisioning is still unresolved (its last pre-send gives up after
    /// now) nothing new is pre-sent: a session keeps one provisioning in
    /// flight.
    ///
    /// # Errors
    ///
    /// Propagates fatal (non-network) provisioning failures.
    fn failover(&mut self) -> Result<(), OffloadError> {
        if self.presend_from <= self.clock.now() {
            self.provision_next()?;
        }
        Ok(())
    }

    /// Places the client by [`ServerPool::select`] among the
    /// non-exhausted candidates, emits `server_select`/`handoff` events
    /// and re-provisions (model re-pre-send). Candidates the provisioning
    /// rule ([`OffloadSession::provisioned`]) leaves unprovisioned are
    /// marked exhausted and the next one is tried, its pre-send starting
    /// where the previous one gave up, so they never overlap. Returns
    /// `false` when every candidate is exhausted. The clock does not move:
    /// the next click waits for the new ACK.
    ///
    /// # Errors
    ///
    /// Propagates the provisioning failures the rule does not absorb.
    fn provision_next(&mut self) -> Result<bool, OffloadError> {
        loop {
            let (id, bytes, model) = (self.client_id, self.last_full_bytes, self.model_bytes);
            let Some(next) = self.pool.select(id, bytes, model, &self.queue_outlook) else {
                return Ok(false);
            };
            let spec = match self.pool.spec(next) {
                Some(spec) => spec.clone(),
                None => return Ok(false),
            };
            let now = self.clock.now().max(self.presend_from);
            self.tracer.record(
                &format!("server_select:{}", spec.name),
                Lane::Client,
                EventKind::ServerSelect,
                now,
                now,
            );
            let presend = self.attach(next, &spec, now);
            if self.provisioned(presend)? {
                return Ok(true);
            }
            self.pool.mark_exhausted(next);
        }
    }

    /// Performs one offloaded inference on a fresh image. When the retry
    /// budget against the current server exhausts, the session hands off
    /// to the next-best fleet candidate (re-pre-send) and the round
    /// completes locally: the new server serves from the next click on,
    /// with a full snapshot.
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
        match self.round_start(image_seed)? {
            RoundStep::Done(report) => Ok(report),
            RoundStep::NeedCompute => {
                let now = self.clock.now();
                self.round_compute(now)?;
                self.round_finish()
            }
        }
    }

    /// Starts one round: image load, client-side execution up to the
    /// offload point, the pre-ship gates, and the uplink migration (with
    /// exhaustion-driven failover). Returns
    /// [`RoundStep::NeedCompute`] with the round parked when the uplink
    /// landed and the server's CPU is the next resource needed, or
    /// [`RoundStep::Done`] when the round already completed on the
    /// client (unprovisioned, proactive-local or failed over).
    pub(crate) fn round_start(&mut self, image_seed: u64) -> Result<RoundStep, OffloadError> {
        self.round += 1;
        // Every candidate gets a fresh chance each round; the first round
        // follows provisioning directly, so whoever gave up there stays
        // given up.
        if self.round > 1 {
            self.pool.begin_round();
        }
        // Per-round usage reads as the delta past this mark.
        let meter = self.server.endpoint.browser.meter();
        self.server.meter_mark = meter.map(|m| m.total_ops()).unwrap_or(0);
        // Wait for the pre-send ACK before the first offload (the paper's
        // "after ACK" regime). A before-ACK scenario clicks right away.
        if let Some(ack_at) = self.ack_at.filter(|_| self.wait_for_ack) {
            self.clock.advance_to(ack_at);
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
            .set_attr_shared(photo, "src", url.into())?;
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

        // The current server never acknowledged its pre-send (the session
        // started unprovisioned, or the previous round's failover ran out
        // of candidates): there is nothing to ship to, so the round
        // re-provisions, the current server ranked with the other
        // candidates, and completes locally; the next click waits for the
        // ACK. Whoever gave up in this round's provisioning — the first
        // round's is the session's own — stays given up.
        if self.ack_at.is_none() {
            self.failover()?;
            return self.round_done_locally(clicked_at).map(RoundStep::Done);
        }

        // The pre-ship gates. A `Local` verdict completes the round on the
        // client with zero link bytes and zero retries spent; the server
        // was never touched, so the delta agreement stays valid.
        let round = gates::Round {
            cfg: &self.cfg.core,
            net: &self.net,
            cut: self.cut.as_ref(),
            pool: &self.pool,
            current: self.current,
            effects: self.effects.as_ref(),
            meter: self.server.endpoint.browser.meter().map(|m| m.limits()),
            queue_outlook: &self.queue_outlook,
            planner: &self.planner,
            model_bytes: self.model_bytes,
            now: self.clock.now(),
            ack_at: self.ack_at,
        };
        if let Verdict::Local(reading) = gates::pre_ship(&round, &self.tracer)? {
            let mut report = self.end_round(clicked_at, None, false)?;
            report.proactive = reading.gate == Gate::Plan;
            return Ok(RoundStep::Done(report));
        }

        // The uplink migration: the snapshot (or delta) lands on the
        // current server and the round parks for its CPU, or the budget
        // exhausts, the session fails over and the round ends locally.
        let base = self.server.agreed.clone();
        match self.migrate(Dir::Up, base.as_deref(), clicked_at) {
            Ok(Some((up_bytes, delta_up))) => {
                self.pending = Some(PendingRound {
                    clicked_at,
                    arrived: ArrivedUplink {
                        // The base the downlink delta is computed against.
                        server_base: self.server.endpoint.browser.state_base(),
                        up_bytes,
                        delta_up,
                    },
                    exhausted: false,
                });
                Ok(RoundStep::NeedCompute)
            }
            failed => self
                .exhausted_mid_round(clicked_at, failed.err())
                .map(RoundStep::Done),
        }
    }

    /// Completes the round on the client: the current server never
    /// acknowledged, or it failed the round and the session failed over.
    /// The server's view of the client state is now stale (bytes may
    /// have died mid-wire), so the delta agreement is dropped — the next
    /// round re-sends a full snapshot.
    fn round_done_locally(&mut self, clicked_at: Duration) -> Result<RoundReport, OffloadError> {
        let now = self.clock.now();
        self.tracer.record(
            "fallback_local",
            Lane::Client,
            EventKind::Fallback,
            now,
            now,
        );
        self.server.agreed = None;
        self.end_round(clicked_at, None, true)
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
        match self.server.endpoint.run() {
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
    /// and the round completes locally.
    pub(crate) fn round_finish(&mut self) -> Result<RoundReport, OffloadError> {
        let Some(PendingRound {
            clicked_at,
            arrived,
            exhausted,
        }) = self.pending.take()
        else {
            return Err(OffloadError::Protocol(
                "round_finish called with no round in flight".into(),
            ));
        };
        // A meter kill during the compute grant: the server's state is
        // dead, so skip the downlink entirely and move the round on.
        if exhausted {
            return self.exhausted_mid_round(clicked_at, None);
        }
        // A downlink delta needs the base the uplink delta left behind.
        let base = arrived.delta_up.then_some(&arrived.server_base);
        match self.migrate(Dir::Down, base, clicked_at) {
            Ok(Some(down)) => self.end_round(clicked_at, Some((&arrived, down)), false),
            failed => self.exhausted_mid_round(clicked_at, failed.err()),
        }
    }

    /// The current server failed the round mid-way: its retry budget ran
    /// out (`failure` is `None`), or `failure` hit it. Marks the server
    /// exhausted, fails over for the next click and completes the round
    /// locally. Without a retry policy a transient fault is strict
    /// fail-fast against one server, but a fleet fails over instead of
    /// surfacing the error — and a tripped resource meter (during the
    /// server's restore, execution or capture) always moves on rather
    /// than retrying in place.
    fn exhausted_mid_round(
        &mut self,
        clicked_at: Duration,
        failure: Option<OffloadError>,
    ) -> Result<RoundReport, OffloadError> {
        if let Some(e) = failure {
            if !self.recoverable(&e) {
                return Err(e);
            }
            self.record_meter_exhausted(&e);
        }
        self.pool.mark_exhausted(self.current);
        self.failover()?;
        self.round_done_locally(clicked_at)
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

    /// Ends the round on the client and reports it. `served` is the
    /// uplink that landed and the downlink's `(bytes, delta)`: the
    /// server's result was just restored, the client finishes the handler
    /// around it, and both sides now agree on the client's state. Without
    /// it the inference runs here — the reactive fallback (`fell_back`)
    /// or a gate's `Local` verdict: the trigger event is still queued
    /// (captures never mutate it), so disarming the trigger and resuming
    /// executes the handler locally. Either way the trigger is re-armed
    /// for the next round.
    fn end_round(
        &mut self,
        clicked_at: Duration,
        served: Option<(&ArrivedUplink, (u64, bool))>,
        fell_back: bool,
    ) -> Result<RoundReport, OffloadError> {
        self.client.browser.set_offload_trigger(None);
        let now = self.clock.now();
        let local = served.is_none().then(|| {
            self.tracer
                .begin("exec_client", Lane::Client, EventKind::Exec, now)
        });
        self.client.run()?;
        if let Some(span) = local {
            self.tracer.end(span, self.clock.now());
        }
        self.arm_trigger();
        let mut report = RoundReport {
            round: self.round,
            delta_up: false,
            delta_down: false,
            up_bytes: 0,
            down_bytes: 0,
            total: self.clock.now() - clicked_at,
            result: self.client.browser.element_text("result")?.to_string(),
            fell_back,
            server: served.map(|_| self.server.endpoint.name().to_string()),
            proactive: false,
            ops_used: 0,
            peak_heap: 0,
        };
        if let Some((up, (down_bytes, delta_down))) = served {
            self.server.agreed = Some(Rc::new(self.client.browser.state_base()));
            (report.ops_used, report.peak_heap) = self.meter_usage();
            (report.up_bytes, report.delta_up) = (up.up_bytes, up.delta_up);
            (report.down_bytes, report.delta_down) = (down_bytes, delta_down);
        }
        Ok(report)
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
            let (sender, _) = dir.ends(&mut self.client, &mut self.server.endpoint);
            if let DeltaCapture::Delta(delta) = sender.capture_delta(base, &self.cfg.snapshot)? {
                if let Some(wire) = self.transfer(dir, delta.script(), anchor)? {
                    let (_, receiver) = dir.ends(&mut self.client, &mut self.server.endpoint);
                    receiver.apply_delta(&delta)?;
                    return Ok(Some((wire, true)));
                }
                match dir {
                    // The delta never arrived, so the server's agreed base
                    // can no longer be trusted. Drop the agreement and fall
                    // through to a full-snapshot re-send (fresh attempt
                    // budget, same deadline).
                    Dir::Up => self.server.agreed = None,
                    Dir::Down => return Ok(None),
                }
            }
        }
        let (sender, _) = dir.ends(&mut self.client, &mut self.server.endpoint);
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
        let (_, receiver) = dir.ends(&mut self.client, &mut self.server.endpoint);
        receiver.restore(&snapshot)?;
        Ok(Some((wire, false)))
    }

    /// Ships `payload` over the uplink ([`Dir::Up`]) or downlink (one
    /// [`Leg::Migrate`] through [`OffloadSession::send`]); returns the
    /// bytes that crossed the wire, or `Ok(None)` when the retry budget
    /// ran out. With [`OffloadSession::compress`] set the payload goes
    /// through the LZ77+Huffman codec — the real codec runs, the clock is
    /// charged from the device models — recorded as `compress_{dir}` on
    /// the sender's lane and `decompress_{dir}` on the receiver's.
    fn transfer(
        &mut self,
        dir: Dir,
        payload: &str,
        anchor: Duration,
    ) -> Result<Option<u64>, OffloadError> {
        let tag = match dir {
            Dir::Up => "up",
            Dir::Down => "down",
        };
        let plain = payload.len() as u64;
        let packed = self
            .compress
            .then(|| snapedge_net::compress::compress(payload.as_bytes()));
        if packed.is_some() {
            let (sender, _) = dir.ends(&mut self.client, &mut self.server.endpoint);
            let start = self.clock.now();
            self.clock.advance_by(sender.device.compress_time(plain));
            self.tracer.record(
                &format!("compress_{tag}"),
                sender.lane(),
                EventKind::Codec,
                start,
                self.clock.now(),
            );
        }
        let bytes = packed.as_ref().map_or(plain, |p| p.len() as u64);
        if self
            .send(Leg::Migrate(dir), self.clock.now(), anchor, bytes)?
            .is_none()
        {
            return Ok(None);
        }
        if let Some(packed) = packed {
            if snapedge_net::compress::decompress(&packed)? != payload.as_bytes() {
                return Err(OffloadError::Protocol("codec roundtrip mismatch".into()));
            }
            let (_, receiver) = dir.ends(&mut self.client, &mut self.server.endpoint);
            let start = self.clock.now();
            self.clock
                .advance_by(receiver.device.decompress_time(plain));
            self.tracer.record(
                &format!("decompress_{tag}"),
                receiver.lane(),
                EventKind::Codec,
                start,
                self.clock.now(),
            );
        }
        Ok(Some(bytes))
    }

    /// Sends `bytes` over one wire leg to or from the current server,
    /// starting at `at`: the leg's span, the retry loop under the
    /// session's policy (the deadline measured from `anchor`), and the
    /// pool's observations — every fault, and every completed transfer
    /// except the ACK, which is no bandwidth sample. A migration is
    /// synchronous, so the clock moves to delivery; the pre-send legs
    /// ride the links' own timeline and leave it alone. `Ok(None)` means
    /// the retry budget ran out, which is itself a fault observation: a
    /// migrating client sat through every failed attempt, so the clock
    /// moves to the last one (a no-op for instant refusals) and whatever
    /// comes next — failover, local fallback — starts there; a pre-send's
    /// give-up is where the next candidate's provisioning starts. An
    /// error (a strict transient failure, or a fatal one) closes the span
    /// at `at`, so the session's later events do not nest inside it.
    fn send(
        &mut self,
        leg: Leg,
        at: Duration,
        anchor: Duration,
        bytes: u64,
    ) -> Result<Option<Transfer>, OffloadError> {
        let (name, kind, dir) = leg.describe();
        let span = self
            .tracer
            .begin_bytes(name, Lane::Network, kind, at, Some(bytes));
        let link = match dir {
            Dir::Up => &mut self.server.uplink,
            Dir::Down => &mut self.server.downlink,
        };
        let policy = self.cfg.retry.as_ref();
        let outcome = match schedule_resilient(link, &self.tracer, policy, at, anchor, bytes) {
            Ok(outcome) => outcome,
            Err(e) => {
                self.tracer.end(span, at);
                return Err(e);
            }
        };
        let gave_up_at = outcome.gave_up_at;
        self.pool
            .observe_faults(self.current, outcome.retries as usize, gave_up_at);
        let migrating = matches!(leg, Leg::Migrate(_));
        let Some(xfer) = outcome.transfer else {
            self.pool.observe_faults(self.current, 1, gave_up_at);
            self.tracer.end(span, gave_up_at);
            if migrating {
                self.clock.advance_to(gave_up_at);
            } else {
                self.presend_from = gave_up_at;
            }
            return Ok(None);
        };
        if leg != Leg::ModelAck {
            self.pool.observe_transfer(self.current, &xfer);
        }
        if migrating {
            self.clock.advance_to(xfer.finish);
        }
        self.tracer.end(span, xfer.finish);
        Ok(Some(xfer))
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
        // Both gates configured, balanced the way the engine balances a
        // session: by handing it a queue outlook. On the deterministic
        // paper app both say ship.
        let every_gate = SessionConfig::paper_builder("agenet")
            .predict(true)
            .effects(true)
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
        assert_eq!(before.len(), 2, "{before:?}");
        assert!(before.iter().all(|name| name.contains(":ship:")));
        let agreed = session
            .server
            .agreed
            .clone()
            .expect("round 1 left an agreement");

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
        assert_eq!(report.server, None, "the round never left the client");
        assert_eq!(report.up_bytes, 0, "no snapshot bytes shipped");
        assert!(!report.fell_back, "no retry budget was spent");
        assert!(!report.proactive);
        assert_eq!(report.result, shipped.result, "same image, same label");
        // The first gate to say local ends the chain: one more event, and
        // nothing the later gates guard was touched.
        assert_eq!(gates(&session)[2..], ["gate:effects:local:1:0"]);
        assert_eq!(session.trace().bytes_of("transfer_up"), shipped.up_bytes);
        assert!(Rc::ptr_eq(&agreed, session.server.agreed.as_ref().unwrap()));
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
