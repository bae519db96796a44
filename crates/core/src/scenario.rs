//! End-to-end inference scenarios — the experiment driver behind the
//! paper's Figs. 6, 7 and 8.
//!
//! A scenario is one click, reported phase by phase. `ClientOnly` and
//! `ServerOnly` run the benchmark app on a single machine; the three
//! offload strategies are each **one round of an
//! [`OffloadSession`]** — there is one offload path in this crate, and
//! it lives in [`crate::session`]: model pre-send, ACK, the pre-ship
//! gates, real snapshots over the simulated link (30 Mbps Wi-Fi in the
//! paper configuration), estimator-driven failover across the fleet
//! (see [`crate::fleet`]) and the local fallback. A strategy only picks
//! the cut and whether the click waits for the ACK (the table on
//! [`run_scenario`]); this module turns the round and its trace into a
//! [`ScenarioReport`] and touches no link, pool or endpoint of its own
//! on the offload path (`ci.sh` holds it to that).

use crate::adaptive::Decision;
use crate::apps;
use crate::config::{ConfigBuilder, OffloadConfig};
use crate::endpoint::Endpoint;
use crate::resilience::{classify, FaultClass};
use crate::session::{OffloadSession, SessionConfig};
use crate::OffloadError;
use snapedge_dnn::{zoo, ExecMode, ParamStore};
use snapedge_net::SimClock;
use snapedge_trace::{EventKind, Lane, Trace, Tracer};
use snapedge_webapp::RunOutcome;
use std::time::Duration;

/// Where (and when) the inference runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Strategy {
    /// Run everything on the client board (Fig. 6 "Client").
    ClientOnly,
    /// Run everything on the edge server (Fig. 6 "Server").
    ServerOnly,
    /// Offload immediately after app start, before the model upload ACK
    /// arrives — the snapshot queues behind the still-uploading model.
    OffloadBeforeAck,
    /// Offload after the model pre-send is acknowledged (Fig. 6
    /// "Offloading after ACK").
    OffloadAfterAck,
    /// Partial inference: run up to the named cut on the client, offload
    /// the rest; only the rear model is pre-sent (Section III-B.2).
    Partial {
        /// Cut-point label (`"1st_pool"` etc. — see
        /// [`zoo::fig8_cuts`]).
        cut: String,
    },
}

/// Full description of a scenario run: the shared [`OffloadConfig`] core
/// (model, edge **fleet**, client device, seeds, resilience/prediction
/// knobs — see [`crate::config`]) plus the two knobs only one-shot
/// scenarios have. Derefs to [`OffloadConfig`], so every core field
/// reads and writes as a direct field (`cfg.seed`, `cfg.primary_mut()`).
///
/// The fleet (`servers`) is an ordered candidate list: index 0 is the
/// *primary* — the server a fleet of one talks to, reproducing the
/// original single-server behaviour exactly. `primary()`/`primary_mut()`
/// (on the core) panic with a message naming the misuse if the fleet was
/// hand-rolled empty; the runners reject an empty fleet with
/// [`OffloadError::Config`] before that can be reached.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// The shared offloading core (fleet, devices, seeds, retry,
    /// predict). Usually accessed through `Deref` rather than by name.
    pub core: OffloadConfig,
    /// Execution strategy.
    pub strategy: Strategy,
    /// Compress snapshots (LZ77+Huffman) before transmission, paying
    /// codec CPU time on both sides — an extension the paper does not
    /// evaluate (see the `compression` bench).
    pub compress: bool,
}

impl std::ops::Deref for ScenarioConfig {
    type Target = OffloadConfig;
    fn deref(&self) -> &OffloadConfig {
        &self.core
    }
}

impl std::ops::DerefMut for ScenarioConfig {
    fn deref_mut(&mut self) -> &mut OffloadConfig {
        &mut self.core
    }
}

impl From<OffloadConfig> for ScenarioConfig {
    /// Wraps a bare core with the scenario defaults (offload after ACK,
    /// no compression).
    fn from(core: OffloadConfig) -> ScenarioConfig {
        ScenarioConfig {
            core,
            strategy: Strategy::OffloadAfterAck,
            compress: false,
        }
    }
}

impl ScenarioConfig {
    /// Builder seeded with the paper's configuration: 30 Mbps link,
    /// Odroid-XU4 client, x86 edge server, synthetic execution
    /// (shape-faithful), a ~35 KB encoded image, strategy
    /// [`Strategy::OffloadAfterAck`].
    ///
    /// ```
    /// use snapedge_core::{ScenarioConfig, Strategy};
    /// use snapedge_net::LinkConfig;
    ///
    /// let cfg = ScenarioConfig::paper_builder("googlenet")
    ///     .cut("4th_pool")
    ///     .link(LinkConfig::mbps(10.0))
    ///     .build();
    /// assert!(matches!(cfg.strategy, Strategy::Partial { .. }));
    /// ```
    pub fn paper_builder(model: &str) -> ScenarioBuilder {
        ScenarioBuilder {
            cfg: ScenarioConfig::from(OffloadConfig::paper(model, "edge-server")),
        }
    }

    /// Builder seeded with the fast real-arithmetic tiny-CNN
    /// configuration used by tests and the quickstart example.
    pub fn tiny_builder() -> ScenarioBuilder {
        ScenarioBuilder {
            cfg: ScenarioConfig::from(OffloadConfig::tiny("edge-server")),
        }
    }

    /// The paper's configuration with an explicit strategy (shorthand for
    /// [`ScenarioConfig::paper_builder`]`.strategy(..).build()`).
    pub fn paper(model: &str, strategy: Strategy) -> ScenarioConfig {
        Self::paper_builder(model).strategy(strategy).build()
    }

    /// A fast configuration running the real tiny CNN end-to-end
    /// (shorthand for [`ScenarioConfig::tiny_builder`]).
    pub fn tiny(strategy: Strategy) -> ScenarioConfig {
        Self::tiny_builder().strategy(strategy).build()
    }
}

/// Builder for [`ScenarioConfig`] — start from
/// [`ScenarioConfig::paper_builder`] or [`ScenarioConfig::tiny_builder`]
/// and override the fields that differ. The fleet/device/resilience
/// setters are the shared [`ConfigBuilder`] surface; only the
/// scenario-specific `strategy`, `cut` and `compress` live here.
pub type ScenarioBuilder = ConfigBuilder<ScenarioConfig>;

impl ConfigBuilder<ScenarioConfig> {
    /// Sets the execution strategy.
    pub fn strategy(mut self, strategy: Strategy) -> ScenarioBuilder {
        self.cfg.strategy = strategy;
        self
    }

    /// Partial inference at the named cut point (shorthand for
    /// `strategy(Strategy::Partial { cut })`).
    pub fn cut(self, cut: &str) -> ScenarioBuilder {
        self.strategy(Strategy::Partial {
            cut: cut.to_string(),
        })
    }

    /// Compress snapshots before transmission.
    pub fn compress(mut self, on: bool) -> ScenarioBuilder {
        self.cfg.compress = on;
        self
    }
}

/// Per-phase timing of an inference (the paper's Fig. 7 segments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// DNN execution on the client (full for `ClientOnly`, front part for
    /// partial inference, ~0 for full offload).
    pub exec_client: Duration,
    /// Snapshot capture at the client.
    pub capture_client: Duration,
    /// Client→server transmission, including queueing behind an unfinished
    /// model upload (the before-ACK penalty).
    pub transfer_up: Duration,
    /// Snapshot restoration at the server.
    pub restore_server: Duration,
    /// DNN execution at the server.
    pub exec_server: Duration,
    /// Snapshot capture at the server.
    pub capture_server: Duration,
    /// Server→client transmission of the result snapshot.
    pub transfer_down: Duration,
    /// Snapshot restoration at the client.
    pub restore_client: Duration,
}

impl Breakdown {
    /// Derives the phase breakdown from an event trace, summing the
    /// canonical phase events the offload path records. Codec time is
    /// folded into the neighbouring capture/restore phases, matching how
    /// the phases were accounted before traces existed: `compress_up`
    /// into `capture_client`, `decompress_up` into `restore_server`,
    /// `compress_down` into `capture_server`, and `decompress_down` into
    /// `restore_client`.
    pub fn from_trace(trace: &Trace) -> Breakdown {
        Breakdown {
            exec_client: trace.duration_of("exec_client"),
            capture_client: trace.duration_of("capture_client") + trace.duration_of("compress_up"),
            transfer_up: trace.duration_of("transfer_up"),
            restore_server: trace.duration_of("restore_server")
                + trace.duration_of("decompress_up"),
            exec_server: trace.duration_of("exec_server"),
            capture_server: trace.duration_of("capture_server")
                + trace.duration_of("compress_down"),
            transfer_down: trace.duration_of("transfer_down"),
            restore_client: trace.duration_of("restore_client")
                + trace.duration_of("decompress_down"),
        }
    }

    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.exec_client
            + self.capture_client
            + self.transfer_up
            + self.restore_server
            + self.exec_server
            + self.capture_server
            + self.transfer_down
            + self.restore_client
    }
}

/// Everything a scenario run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Model name.
    pub model: String,
    /// Strategy executed.
    pub strategy: Strategy,
    /// Per-phase timing.
    pub breakdown: Breakdown,
    /// End-to-end inference time: click → result visible on the client.
    pub total: Duration,
    /// When the pre-send ACK arrived (offload strategies only).
    pub ack_at: Option<Duration>,
    /// When the user clicked the inference button.
    pub clicked_at: Duration,
    /// Bytes of model files pre-sent to the server.
    pub model_upload_bytes: u64,
    /// Client→server snapshot size.
    pub snapshot_up_bytes: u64,
    /// Server→client snapshot size.
    pub snapshot_down_bytes: u64,
    /// The label shown on the client's screen at the end.
    pub result: String,
    /// Whether the run gave up on offloading (retry budget or deadline
    /// exhausted, every fleet candidate unreachable) and completed the
    /// inference locally.
    pub fell_back: bool,
    /// Name of the edge server that ultimately served the offloaded
    /// inference; `None` when it ran on one machine (`ClientOnly`,
    /// `ServerOnly`) or completed on the client (fallback,
    /// proactive-local, a tripped effect gate).
    pub server: Option<String>,
    /// What the link-health predictor recommended at migration time, when
    /// the predictor was enabled *and* had an estimate to work from.
    /// `None` otherwise (including every run with `predict` off).
    pub prediction: Option<Decision>,
    /// Whether the run completed locally *because the predictor said so*
    /// — before any retry budget was spent. Always `false` with `predict`
    /// off; disjoint from [`ScenarioReport::fell_back`], the reactive
    /// exhaustion path.
    pub proactive: bool,
    /// Full event trace of the run: canonical phase events at depth 0,
    /// per-layer DNN execution and link-level transfer/queue events
    /// nested below. [`ScenarioReport::breakdown`] is derived from it.
    pub trace: Trace,
}

impl ScenarioReport {
    /// Number of re-attempts the run needed (instant [`EventKind::Retry`]
    /// markers in the trace).
    pub fn retry_count(&self) -> usize {
        self.trace
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Retry)
            .count()
    }

    /// Total virtual time spent sleeping between retries.
    pub fn backoff_time(&self) -> Duration {
        self.trace.duration_of_kind(EventKind::Backoff, None)
    }

    /// Total virtual time lost to injected faults: outage stalls, degraded
    /// stretches, and corrupted serializations that had to be repeated.
    pub fn fault_time(&self) -> Duration {
        self.trace.duration_of_kind(EventKind::Fault, None)
    }

    /// Number of server handoffs the run performed (instant
    /// [`EventKind::Handoff`] markers in the trace). Zero for a fleet of
    /// one or a fault-free run.
    pub fn handoff_count(&self) -> usize {
        self.trace
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Handoff)
            .count()
    }
}

/// Runs a scenario to completion.
///
/// `ClientOnly` and `ServerOnly` run the app on one machine. The three
/// offload strategies are one [`OffloadSession`] round each — the same
/// pre-send, gates, migration, failover and local fallback every
/// long-lived session uses — and differ only in where the cut is and
/// whether the click waits for the pre-send ACK:
///
/// | strategy | cut | waits for ACK |
/// |---|---|---|
/// | `OffloadBeforeAck` | none (full offload) | no |
/// | `OffloadAfterAck` | none (full offload) | yes |
/// | `Partial { cut }` | `cut` | yes |
///
/// # Errors
///
/// Returns [`OffloadError`] for unknown models/cuts, app failures, or
/// network failures (when injected and no retry policy or second fleet
/// candidate absorbs them).
pub fn run_scenario(cfg: &ScenarioConfig) -> Result<ScenarioReport, OffloadError> {
    if cfg.servers.is_empty() {
        // No offload strategy can be served, and `ServerOnly` needs the
        // primary's device.
        return Err(OffloadError::Config(
            "scenario needs at least one edge server in its fleet".into(),
        ));
    }
    match &cfg.strategy {
        Strategy::ClientOnly => run_local(cfg, /* on_server = */ false),
        Strategy::ServerOnly => run_local(cfg, /* on_server = */ true),
        Strategy::OffloadBeforeAck => run_offload(cfg, None, /* wait_for_ack = */ false),
        Strategy::OffloadAfterAck => run_offload(cfg, None, /* wait_for_ack = */ true),
        Strategy::Partial { cut } => {
            run_offload(cfg, Some(cut.as_str()), /* wait_for_ack = */ true)
        }
    }
}

/// One round of a full-snapshot [`OffloadSession`], reported as a
/// scenario.
fn run_offload(
    cfg: &ScenarioConfig,
    cut: Option<&str>,
    wait_for_ack: bool,
) -> Result<ScenarioReport, OffloadError> {
    let mut session = OffloadSession::build(SessionConfig {
        core: cfg.core.clone(),
        cut: cut.map(str::to_string),
        use_deltas: false,
    })?;
    session.wait_for_ack = wait_for_ack;
    session.compress = cfg.compress;
    // A fleet whose every candidate gave up its pre-send still runs the
    // click: the session finds nobody provisioned and completes the round
    // locally. Strict fail-fast (one server, no retry policy) and fatal
    // errors surface as they do from `OffloadSession::new`.
    let acked = match session.provision() {
        Ok(()) => true,
        Err(e)
            if classify(&e) == FaultClass::Transient
                && (cfg.retry.is_some() || cfg.servers.len() > 1) =>
        {
            false
        }
        Err(e) => return Err(e),
    };
    let ack_at = acked.then(|| session.ack_at());
    let round = session.infer(cfg.seed)?;
    let trace = session.trace();
    Ok(ScenarioReport {
        model: cfg.model.clone(),
        strategy: cfg.strategy.clone(),
        breakdown: Breakdown::from_trace(&trace),
        total: round.total,
        ack_at,
        // `total` runs from the click to the end of the round, which is now.
        clicked_at: session.now() - round.total,
        model_upload_bytes: session.model_bytes,
        snapshot_up_bytes: round.up_bytes,
        snapshot_down_bytes: round.down_bytes,
        result: round.result,
        fell_back: round.fell_back,
        server: Some(round.server).filter(|name| name != "client"),
        prediction: round.prediction,
        proactive: round.proactive,
        trace,
    })
}

fn run_local(cfg: &ScenarioConfig, on_server: bool) -> Result<ScenarioReport, OffloadError> {
    let net = zoo::by_name(&cfg.model)?;
    let params = match cfg.exec_mode {
        ExecMode::Real => net.init_params(cfg.seed)?,
        ExecMode::Synthetic { .. } => ParamStore::empty(net.name()),
    };
    let clock = SimClock::new();
    let tracer = Tracer::new();
    let (name, device, lane, exec_name) = if on_server {
        ("server", &cfg.primary().device, Lane::Server, "exec_server")
    } else {
        ("client", &cfg.client_device, Lane::Client, "exec_client")
    };
    let mut ep =
        Endpoint::new(name, device.clone(), clock.clone()).with_tracer(tracer.clone(), lane);
    ep.install_model(net, params, cfg.exec_mode, None, cfg.seed);
    let url = apps::synthetic_image_data_url(cfg.seed, cfg.image_bytes);
    ep.browser.load_html(&apps::full_inference_app(&url))?;
    ep.browser.click("load")?;
    ep.run()?;

    let clicked_at = clock.now();
    ep.browser.click("infer")?;
    let exec_span = tracer.begin(exec_name, lane, EventKind::Exec, clicked_at);
    let outcome = ep.run()?;
    tracer.end(exec_span, clock.now());
    if !matches!(outcome, RunOutcome::Idle { .. }) {
        return Err(OffloadError::Protocol(
            "local run unexpectedly hit an offload point".into(),
        ));
    }
    let trace = tracer.finish();
    Ok(ScenarioReport {
        model: cfg.model.clone(),
        strategy: cfg.strategy.clone(),
        breakdown: Breakdown::from_trace(&trace),
        total: clock.now() - clicked_at,
        ack_at: None,
        clicked_at,
        model_upload_bytes: 0,
        snapshot_up_bytes: 0,
        snapshot_down_bytes: 0,
        result: ep.browser.element_text("result")?.to_string(),
        fell_back: false,
        server: None,
        prediction: None,
        proactive: false,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_end_to_end_all_strategies_agree_on_the_result() {
        // The same label must appear on the client's screen no matter
        // where the DNN ran — the paper's seamlessness claim.
        let reference = run_scenario(&ScenarioConfig::tiny(Strategy::ClientOnly)).unwrap();
        assert!(
            reference.result.starts_with("class_"),
            "{}",
            reference.result
        );
        for strategy in [
            Strategy::ServerOnly,
            Strategy::OffloadBeforeAck,
            Strategy::OffloadAfterAck,
            Strategy::Partial {
                cut: "1st_pool".into(),
            },
        ] {
            let report = run_scenario(&ScenarioConfig::tiny(strategy.clone())).unwrap();
            assert_eq!(report.result, reference.result, "strategy {strategy:?}");
        }
    }

    #[test]
    fn server_only_is_faster_than_client_only() {
        let client = run_scenario(&ScenarioConfig::tiny(Strategy::ClientOnly)).unwrap();
        let server = run_scenario(&ScenarioConfig::tiny(Strategy::ServerOnly)).unwrap();
        assert!(server.total < client.total);
    }

    #[test]
    fn before_ack_pays_for_the_model_upload() {
        // Needs a paper-scale model: a tiny model finishes uploading before
        // the first snapshot is even captured.
        let before =
            run_scenario(&ScenarioConfig::paper("agenet", Strategy::OffloadBeforeAck)).unwrap();
        let after =
            run_scenario(&ScenarioConfig::paper("agenet", Strategy::OffloadAfterAck)).unwrap();
        // Before-ACK queues the snapshot behind the model on the uplink.
        assert!(before.breakdown.transfer_up > after.breakdown.transfer_up);
        assert!(before.total > after.total);
        // The queueing penalty is roughly the 44 MiB model transfer: >10 s.
        assert!(before.breakdown.transfer_up.as_secs_f64() > 10.0);
    }

    #[test]
    fn partial_pre_sends_less_model_data() {
        let full = run_scenario(&ScenarioConfig::tiny(Strategy::OffloadAfterAck)).unwrap();
        let partial = run_scenario(&ScenarioConfig::tiny(Strategy::Partial {
            cut: "1st_pool".into(),
        }))
        .unwrap();
        assert!(partial.model_upload_bytes < full.model_upload_bytes);
        assert!(partial.ack_at.unwrap() < full.ack_at.unwrap());
        // But it executes the front on the weak client.
        assert!(partial.breakdown.exec_client > full.breakdown.exec_client);
    }

    #[test]
    fn offload_breakdown_sums_to_total() {
        let report = run_scenario(&ScenarioConfig::tiny(Strategy::OffloadAfterAck)).unwrap();
        let diff = report.breakdown.total().abs_diff(report.total);
        assert!(diff < Duration::from_millis(1), "diff = {diff:?}");
    }

    #[test]
    fn compression_preserves_results_and_shrinks_the_wire() {
        let plain = run_scenario(&ScenarioConfig::tiny(Strategy::OffloadAfterAck)).unwrap();
        let mut cfg = ScenarioConfig::tiny(Strategy::OffloadAfterAck);
        cfg.compress = true;
        let packed = run_scenario(&cfg).unwrap();
        assert_eq!(packed.result, plain.result);
        assert!(packed.snapshot_up_bytes < plain.snapshot_up_bytes);
    }

    #[test]
    fn compression_wins_on_slow_links_for_feature_heavy_snapshots() {
        let strategy = Strategy::Partial {
            cut: "1st_pool".into(),
        };
        let mut plain = ScenarioConfig::paper("googlenet", strategy.clone());
        plain.primary_mut().link = snapedge_net::LinkConfig::mbps(5.0);
        let mut packed = plain.clone();
        packed.compress = true;
        let a = run_scenario(&plain).unwrap();
        let b = run_scenario(&packed).unwrap();
        assert!(b.total < a.total, "{:?} vs {:?}", b.total, a.total);
    }

    #[test]
    fn unknown_model_and_cut_are_config_errors() {
        let mut cfg = ScenarioConfig::tiny(Strategy::ClientOnly);
        cfg.model = "resnet".into();
        assert!(run_scenario(&cfg).is_err());
        let cfg = ScenarioConfig::tiny(Strategy::Partial {
            cut: "nonexistent".into(),
        });
        assert!(run_scenario(&cfg).is_err());
    }
}
