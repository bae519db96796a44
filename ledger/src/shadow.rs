//! The shadow round: `OffloadSession::infer` is opaque from outside, so
//! the layers of a steady round are timed on a replay that composes the
//! same public layer calls in the session's order — endpoints, model
//! host, browser, state base, snapshot/delta capture, link scheduling,
//! restore/apply, the server's run, and back — with a harness span
//! around each. The replay is only trusted because it is checked: every
//! shadow round must reproduce the session's `up_bytes`, `down_bytes`,
//! `result` and virtual `total` (see `layers::session_layers`).
//!
//! What the shadow leaves out is exactly what `session.rs` adds on top of
//! the layers: the server pool and its health records, the retry wrapper,
//! the pre-ship gates, the session's own trace events and report
//! bookkeeping. `core.session.shadow_gap_ratio` is that remainder.

use crate::harness::{SpanIx, Spans};
use snapedge_core::{apps, Endpoint, OffloadError, SessionConfig};
use snapedge_dnn::{zoo, ExecMode, ModelBundle, Network, NodeId, ParamStore};
use snapedge_net::{Link, SimClock};
use snapedge_trace::{Lane, Tracer};
use snapedge_webapp::{DeltaCapture, DeltaStats, RunOutcome, SnapshotOptions, StateBase};
use std::time::Duration;

/// One span around one layer call; its time counts as covered.
macro_rules! layer {
    ($spans:ident, $covered:ident, $parent:expr, $round:expr, $name:expr, $call:expr) => {{
        let (out, us) = $spans.time($name, $parent, $round, || $call);
        $covered += us;
        out
    }};
}

/// Probe spans time a call the session does not make (the full-walk
/// delta capture); they are excluded from the shadow's coverage.
pub const PROBE_FULLWALK: &str = "probe.webapp.delta.capture_fullwalk";

/// Bytes and text a shadow unit produced — the workload's own bytes the
/// micro rows run on.
#[derive(Debug, Clone, Default)]
pub struct Artifacts {
    /// The app document the client loaded.
    pub app_html: String,
    /// The cold round's uplink: a full snapshot document.
    pub snapshot_html: String,
    /// Reachable heap cells that snapshot serialized.
    pub snapshot_heap_cells: usize,
    /// A steady round's uplink: the delta script.
    pub uplink_script: String,
    /// Its capture accounting.
    pub uplink_stats: DeltaStats,
    /// A steady round's downlink delta size.
    pub downlink_bytes: u64,
}

/// What one shadow round produced, for the exactness check.
#[derive(Debug, Clone, PartialEq)]
pub struct ShadowRound {
    /// Whether the uplink was a delta.
    pub delta_up: bool,
    /// Bytes shipped client→server.
    pub up_bytes: u64,
    /// Bytes shipped server→client.
    pub down_bytes: u64,
    /// Virtual click-to-result time.
    pub total: Duration,
    /// Label on the client's screen.
    pub result: String,
    /// Wall microseconds inside layer spans (probe spans excluded).
    pub covered_us: f64,
}

/// A session replayed from public layer calls.
pub struct Shadow {
    cfg: SessionConfig,
    cut: Option<NodeId>,
    clock: SimClock,
    client: Endpoint,
    server: Endpoint,
    uplink: Link,
    downlink: Link,
    agreed: Option<StateBase>,
    ack_at: Duration,
    fullwalk: SnapshotOptions,
    /// The workload's own bytes, filled in as rounds run.
    pub artifacts: Artifacts,
    /// Wall microseconds of the construction's layer spans.
    pub new_covered_us: f64,
}

impl Shadow {
    /// Replays `OffloadSession::new`: endpoints, links, client model host
    /// and app load, model pre-send and ACK, server model host.
    pub fn new(
        cfg: &SessionConfig,
        spans: &mut Spans,
        parent: SpanIx,
        round_id: u32,
    ) -> Result<Shadow, OffloadError> {
        let mut covered = 0.0;
        macro_rules! timed {
            ($name:expr, $call:expr) => {
                layer!(spans, covered, parent, round_id, $name, $call)
            };
        }
        let spec = cfg.primary().clone();
        let net: Network = timed!("dnn.zoo.build", zoo::by_name(&cfg.model))?;
        let cut = match &cfg.cut {
            Some(label) => Some(net.cut_point(label)?.id),
            None => None,
        };
        let clock = SimClock::new();
        let tracer = Tracer::new();
        let (mut client, mut server, mut uplink, mut downlink) = timed!(
            "core.endpoint.new",
            (
                Endpoint::new("client", cfg.client_device.clone(), clock.clone())
                    .with_tracer(tracer.clone(), Lane::Client),
                Endpoint::new(&spec.name, spec.device.clone(), clock.clone())
                    .with_tracer(tracer.clone(), Lane::Server),
                Link::new(spec.link.clone()).with_tracer(tracer.clone(), "uplink"),
                Link::new(spec.link.clone()).with_tracer(tracer.clone(), "downlink"),
            )
        );

        let params = |net: &Network| -> Result<ParamStore, OffloadError> {
            Ok(match cfg.exec_mode {
                ExecMode::Real => net.init_params(cfg.seed)?,
                ExecMode::Synthetic { .. } => ParamStore::empty(net.name()),
            })
        };
        let client_params = params(&net)?;
        timed!(
            "core.mlhost.install",
            client.install_model(net.clone(), client_params, cfg.exec_mode, cut, cfg.seed)
        );
        let app = timed!("core.apps.render", {
            let url = apps::synthetic_image_data_url(cfg.seed, cfg.image_bytes);
            match cut {
                Some(_) => apps::partial_inference_app(&url),
                None => apps::full_inference_app(&url),
            }
        });
        timed!("webapp.browser.load_html", client.browser.load_html(&app))?;
        client.browser.set_offload_trigger(Some(trigger(cut)));

        // Model pre-send and its ACK ride the links' own timelines.
        let server_params = params(&net)?;
        let sent_bytes = timed!("dnn.model_format.bundle", {
            let bundle = match cfg.exec_mode {
                ExecMode::Real => ModelBundle::materialized(&net, &server_params)?,
                ExecMode::Synthetic { .. } => ModelBundle::from_network(&net),
            };
            let sent = match cut {
                Some(cut) => bundle.split(&net, cut)?.1,
                None => bundle,
            };
            Ok::<u64, OffloadError>(sent.total_bytes())
        })?;
        let now = clock.now();
        let ack = timed!("net.link.schedule", {
            let up = uplink.schedule(now, sent_bytes)?;
            downlink.schedule(up.finish, 64)
        })?;
        timed!(
            "core.mlhost.install",
            server.install_model(net.clone(), server_params, cfg.exec_mode, cut, cfg.seed)
        );
        Ok(Shadow {
            cfg: cfg.clone(),
            cut,
            clock,
            client,
            server,
            uplink,
            downlink,
            agreed: None,
            ack_at: ack.finish,
            fullwalk: SnapshotOptions {
                incremental: false,
                ..cfg.snapshot.clone()
            },
            artifacts: Artifacts {
                app_html: app,
                ..Artifacts::default()
            },
            new_covered_us: covered,
        })
    }

    /// Replays one `infer()`: image load and click on the client, uplink
    /// migration (delta once an agreement exists), the server's run,
    /// downlink migration, result on the client's screen.
    pub fn round(
        &mut self,
        image_seed: u64,
        spans: &mut Spans,
        parent: SpanIx,
        round_id: u32,
    ) -> Result<ShadowRound, OffloadError> {
        let mut covered = 0.0;
        macro_rules! timed {
            ($name:expr, $call:expr) => {
                layer!(spans, covered, parent, round_id, $name, $call)
            };
        }
        let opts = self.cfg.snapshot.clone();
        self.clock.advance_to(self.ack_at);

        // The user loads a new image and clicks inference.
        let url = timed!(
            "core.apps.image_url",
            apps::synthetic_image_data_url(image_seed, self.cfg.image_bytes)
        );
        let photo = self
            .client
            .browser
            .core()
            .doc
            .get_element_by_id("photo")
            .ok_or_else(|| OffloadError::Protocol("shadow app lost its photo element".into()))?;
        timed!(
            "webapp.dom.set_attr",
            self.client
                .browser
                .core_mut()
                .doc
                .set_attr(photo, "src", &url)
        )?;
        self.client.browser.click("load")?;
        timed!("webapp.interp.client_run", self.client.run())?;
        let clicked_at = self.clock.now();
        self.client.browser.click("infer")?;
        let outcome = timed!("webapp.interp.client_run", self.client.run())?;
        if !matches!(outcome, RunOutcome::OffloadPoint { .. }) {
            return Err(OffloadError::Protocol(format!(
                "shadow expected the offload point, got {outcome:?}"
            )));
        }

        // Uplink migration.
        let mut delta_up = false;
        let mut up_bytes = 0;
        if self.cfg.use_deltas {
            if let Some(base) = self.agreed.clone() {
                let captured = timed!(
                    "webapp.delta.capture",
                    self.client.browser.capture_delta(&base, &opts)
                )?;
                if let DeltaCapture::Delta(delta) = captured {
                    // Probe, not part of the session's path: the same
                    // capture by the full walk, which must agree byte
                    // for byte.
                    let (walked, _) = spans.time(PROBE_FULLWALK, parent, round_id, || {
                        self.client.browser.capture_delta(&base, &self.fullwalk)
                    });
                    match walked? {
                        DeltaCapture::Delta(full) if full.script() == delta.script() => {}
                        _ => {
                            return Err(OffloadError::Protocol(
                                "incremental and full-walk delta capture disagree".into(),
                            ))
                        }
                    }
                    up_bytes = delta.size_bytes();
                    self.clock
                        .advance_by(self.client.device.capture_time(up_bytes));
                    let now = self.clock.now();
                    let xfer = timed!("net.link.schedule", self.uplink.schedule(now, up_bytes))?;
                    self.clock.advance_to(xfer.finish);
                    timed!(
                        "webapp.delta.apply",
                        self.server.browser.apply_delta(&delta)
                    )?;
                    self.clock
                        .advance_by(self.server.device.restore_time(up_bytes));
                    self.artifacts.uplink_script = delta.script().to_string();
                    self.artifacts.uplink_stats = delta.stats().clone();
                    delta_up = true;
                }
            }
        }
        if !delta_up {
            let (snapshot, _) = timed!("webapp.snapshot.capture", self.client.capture(&opts))?;
            up_bytes = snapshot.size_bytes();
            let now = self.clock.now();
            let xfer = timed!("net.link.schedule", self.uplink.schedule(now, up_bytes))?;
            self.clock.advance_to(xfer.finish);
            timed!("webapp.snapshot.restore", self.server.restore(&snapshot))?;
            self.artifacts.snapshot_html = snapshot.html().to_string();
            self.artifacts.snapshot_heap_cells = snapshot.stats().heap_cells;
        }
        let server_base = timed!("webapp.delta.state_base", self.server.browser.state_base());

        // The server's CPU grant.
        timed!("core.mlhost.server_run", self.server.run())?;

        // Downlink migration.
        let mut delta_down = false;
        let mut down_bytes = 0;
        if self.cfg.use_deltas && delta_up {
            let captured = timed!(
                "webapp.delta.capture_down",
                self.server.browser.capture_delta(&server_base, &opts)
            )?;
            if let DeltaCapture::Delta(delta) = captured {
                down_bytes = delta.size_bytes();
                self.clock
                    .advance_by(self.server.device.capture_time(down_bytes));
                let now = self.clock.now();
                let xfer = timed!("net.link.schedule", self.downlink.schedule(now, down_bytes))?;
                self.clock.advance_to(xfer.finish);
                timed!(
                    "webapp.delta.apply_down",
                    self.client.browser.apply_delta(&delta)
                )?;
                self.clock
                    .advance_by(self.client.device.restore_time(down_bytes));
                self.artifacts.downlink_bytes = down_bytes;
                delta_down = true;
            }
        }
        if !delta_down {
            let (snapshot, _) = timed!("webapp.snapshot.capture_down", self.server.capture(&opts))?;
            down_bytes = snapshot.size_bytes();
            let now = self.clock.now();
            let xfer = timed!("net.link.schedule", self.downlink.schedule(now, down_bytes))?;
            self.clock.advance_to(xfer.finish);
            timed!(
                "webapp.snapshot.restore_down",
                self.client.restore(&snapshot)
            )?;
        }

        self.client.browser.set_offload_trigger(None);
        timed!("webapp.interp.client_run", self.client.run())?;
        self.client
            .browser
            .set_offload_trigger(Some(trigger(self.cut)));
        self.agreed = Some(timed!(
            "webapp.delta.state_base",
            self.client.browser.state_base()
        ));
        let result = self.client.browser.element_text("result")?.to_string();
        Ok(ShadowRound {
            delta_up,
            up_bytes,
            down_bytes,
            total: self.clock.now() - clicked_at,
            result,
            covered_us: covered,
        })
    }
}

fn trigger(cut: Option<NodeId>) -> &'static str {
    match cut {
        Some(_) => apps::PARTIAL_OFFLOAD_EVENT,
        None => apps::FULL_OFFLOAD_EVENT,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::NONE;
    use snapedge_core::OffloadSession;

    /// The exactness check on the real-arithmetic tiny model, full and
    /// partial: bytes, result and virtual total of every round.
    #[test]
    fn shadow_reproduces_the_session_exactly() {
        for cfg in [
            SessionConfig::tiny(),
            SessionConfig::tiny_builder().cut("1st_pool").build(),
        ] {
            let mut session = OffloadSession::new(cfg.clone()).unwrap();
            let mut spans = Spans::new(10_000);
            let mut shadow = Shadow::new(&cfg, &mut spans, NONE, 0).unwrap();
            for round in 1..=4u32 {
                let seed = 100 + u64::from(round);
                let real = session.infer(seed).unwrap();
                let shade = shadow.round(seed, &mut spans, NONE, round).unwrap();
                assert_eq!(shade.delta_up, real.delta_up, "round {round}");
                assert_eq!(shade.up_bytes, real.up_bytes, "round {round}");
                assert_eq!(shade.down_bytes, real.down_bytes, "round {round}");
                assert_eq!(shade.result, real.result, "round {round}");
                assert_eq!(shade.total, real.total, "round {round}");
                assert!(shade.covered_us > 0.0);
            }
            assert!(!shadow.artifacts.uplink_script.is_empty());
            assert!(!shadow.artifacts.snapshot_html.is_empty());
            assert!(spans.spans().iter().any(|s| s.name == PROBE_FULLWALK));
        }
    }
}
