//! Both ends of an offloading session, replayed from the public layer
//! calls an `OffloadSession` makes (endpoints, model hosts, capture,
//! delta, restore, state base) without links, pool or tracer, so that
//! every script that would cross the wire is in hand with the base it
//! was captured against.

use snapedge_core::{apps, Endpoint, OffloadError, SessionConfig};
use snapedge_dnn::{zoo, ExecMode, Network, NodeId, ParamStore};
use snapedge_net::SimClock;
use snapedge_webapp::{DeltaCapture, RunOutcome, SnapshotOptions, StateBase};

/// A session's client and primary server, driven round by round.
pub struct Replay {
    cfg: SessionConfig,
    trigger: &'static str,
    /// The browser the user clicks in.
    pub client: Endpoint,
    /// The primary server of the session's fleet.
    pub server: Endpoint,
    agreed: Option<StateBase>,
}

/// One migration: what crossed the wire, and how to read it.
pub struct Leg {
    /// A full snapshot's HTML, or a delta script.
    pub script: String,
    /// The agreed state a delta was captured against (and restores on
    /// top of); `None` for a full snapshot.
    pub base: Option<StateBase>,
}

/// One replayed `infer()`.
pub struct Round {
    /// Client to server.
    pub up: Leg,
    /// Server to client.
    pub down: Leg,
}

impl Replay {
    /// Both endpoints with the session's model hosts installed and its
    /// app loaded on the client.
    ///
    /// # Errors
    ///
    /// An unknown model or cut, or an app that fails to load.
    pub fn new(cfg: SessionConfig) -> Result<Replay, OffloadError> {
        let (client, trigger, net, cut) = client(&cfg)?;
        let spec = cfg.primary().clone();
        let mut server = Endpoint::new(&spec.name, spec.device.clone(), client.clock().clone());
        let params = params(&cfg, &net)?;
        server.install_model(net, params, cfg.exec_mode, cut, cfg.seed);
        Ok(Replay {
            cfg,
            trigger,
            client,
            server,
            agreed: None,
        })
    }

    /// One `infer()` on image `round`: click, uplink, the server's run,
    /// downlink, the client's finish and the new agreement. A delta goes
    /// up once a base is agreed (and deltas are on), and down only when
    /// one went up.
    ///
    /// # Errors
    ///
    /// A failing capture, restore or run, or a click that never reaches
    /// the offload point.
    pub fn round(&mut self, round: u64) -> Result<Round, OffloadError> {
        let clicked = click(&mut self.client, round, self.cfg.image_bytes)?;
        if !matches!(clicked, RunOutcome::OffloadPoint { .. }) {
            let why = format!("round {round} never reached its offload point");
            return Err(OffloadError::Protocol(why));
        }

        let base = self.agreed.take().filter(|_| self.cfg.use_deltas);
        let opts = &self.cfg.snapshot;
        let up = migrate(&mut self.client, &mut self.server, base, opts)?;
        let server_base = self.server.browser.state_base();
        self.server.run()?;
        let base = up.base.is_some().then_some(server_base);
        let down = migrate(&mut self.server, &mut self.client, base, opts)?;

        self.client.browser.set_offload_trigger(None);
        self.client.run()?;
        self.client.browser.set_offload_trigger(Some(self.trigger));
        self.agreed = Some(self.client.browser.state_base());
        Ok(Round { up, down })
    }
}

/// The output oracle: the paper's transparency claim says an offloaded
/// round shows exactly what local execution would have shown. The
/// oracle is a replay's client with the offload trigger disarmed — same
/// app, same model host, no server, no snapshot — so an offloaded
/// `RoundReport.result` must equal its `result` for that image seed.
/// The benchmark package keeps a twin of it.
pub struct LocalOracle {
    client: Endpoint,
    bytes: usize,
}

impl LocalOracle {
    /// Loads `cfg`'s app on a lone client (errors as [`Replay::new`]).
    pub fn new(cfg: &SessionConfig) -> Result<LocalOracle, OffloadError> {
        let (mut client, ..) = client(cfg)?;
        client.browser.set_offload_trigger(None);
        let bytes = cfg.image_bytes;
        Ok(LocalOracle { client, bytes })
    }

    /// What the screen shows after loading image `image_seed` and
    /// clicking inference, executed entirely on the client.
    pub fn result(&mut self, image_seed: u64) -> Result<String, OffloadError> {
        click(&mut self.client, image_seed, self.bytes)?;
        Ok(self.client.browser.element_text("result")?.to_string())
    }
}

/// A session's client: its model host installed and its app loaded with
/// an empty photo, as the session loads it (every click draws its own
/// image first), the offload trigger armed. Also returns the trigger, the
/// model and the cut, for a server to join it with.
fn client(
    cfg: &SessionConfig,
) -> Result<(Endpoint, &'static str, Network, Option<NodeId>), OffloadError> {
    let net = zoo::by_name(&cfg.model)?;
    let cut = match &cfg.cut {
        Some(label) => Some(net.cut_point(label)?.id),
        None => None,
    };
    let mut client = Endpoint::new("client", cfg.client_device.clone(), SimClock::new());
    client.install_model(
        net.clone(),
        params(cfg, &net)?,
        cfg.exec_mode,
        cut,
        cfg.seed,
    );
    let (app, trigger) = match cut {
        Some(_) => (apps::partial_inference_app(""), apps::PARTIAL_OFFLOAD_EVENT),
        None => (apps::full_inference_app(""), apps::FULL_OFFLOAD_EVENT),
    };
    client.browser.load_html(&app)?;
    client.browser.set_offload_trigger(Some(trigger));
    Ok((client, trigger, net, cut))
}

/// One endpoint's parameters for `net`: initialised from the session's
/// seed under `ExecMode::Real`, empty under a synthetic mode.
fn params(cfg: &SessionConfig, net: &Network) -> Result<ParamStore, OffloadError> {
    Ok(match cfg.exec_mode {
        ExecMode::Real => net.init_params(cfg.seed)?,
        ExecMode::Synthetic { .. } => ParamStore::empty(net.name()),
    })
}

/// Loads image `image_seed` into the app's photo, then clicks inference
/// and runs until the client stops: done, or at its offload point.
fn click(client: &mut Endpoint, image_seed: u64, bytes: usize) -> Result<RunOutcome, OffloadError> {
    let url = apps::synthetic_image_data_url(image_seed, bytes);
    let doc = &mut client.browser.core_mut().doc;
    let photo = doc
        .get_element_by_id("photo")
        .ok_or_else(|| OffloadError::Protocol("no photo element".into()))?;
    doc.set_attr_shared(photo, "src", url.into())?;
    client.browser.click("load")?;
    client.run()?;
    client.browser.click("infer")?;
    client.run()
}

/// Capture on `sender`, restore on `receiver`: a delta against `base`
/// when one is given and the diff is expressible, else a full snapshot.
fn migrate(
    sender: &mut Endpoint,
    receiver: &mut Endpoint,
    base: Option<StateBase>,
    opts: &SnapshotOptions,
) -> Result<Leg, OffloadError> {
    if let Some(base) = base {
        if let DeltaCapture::Delta(delta) = sender.capture_delta(&base, opts)? {
            receiver.apply_delta(&delta)?;
            let script = delta.script().to_string();
            return Ok(Leg {
                script,
                base: Some(base),
            });
        }
    }
    let (snapshot, _) = sender.capture(opts)?;
    receiver.restore(&snapshot)?;
    Ok(Leg {
        script: snapshot.html().to_string(),
        base: None,
    })
}
