//! Wire text and heap ids of long sessions, pinned before the MiniJS heap
//! learned to free dead cells. Collection happens at every agreed base
//! (`Browser::state_base`) and must be invisible from outside: ids never
//! move, so every uplink and downlink script, and `heap.len()` on both
//! sides after every round, stay what they were.
//!
//! The rounds are replayed from the same public layer calls an
//! `OffloadSession` makes (endpoints, model hosts, capture, delta,
//! restore, state base), so each script is in hand. Each round renders
//! as one line; a config pins the FNV-1a of its lines and its last line.

use snapedge_core::{apps, Endpoint, OffloadError, SessionConfig};
use snapedge_dnn::{zoo, ExecMode, ParamStore};
use snapedge_net::SimClock;
use snapedge_webapp::intern::fnv1a;
use snapedge_webapp::{DeltaCapture, RunOutcome, StateBase};

const ROUNDS: u64 = 50;

/// Both ends of a session, without links, pool or tracer.
struct Replay {
    cfg: SessionConfig,
    trigger: &'static str,
    client: Endpoint,
    server: Endpoint,
    agreed: Option<StateBase>,
}

impl Replay {
    fn new(cfg: SessionConfig) -> Result<Replay, OffloadError> {
        let net = zoo::by_name(&cfg.model)?;
        let cut = match &cfg.cut {
            Some(label) => Some(net.cut_point(label)?.id),
            None => None,
        };
        let params = || -> Result<ParamStore, OffloadError> {
            Ok(match cfg.exec_mode {
                ExecMode::Real => net.init_params(cfg.seed)?,
                ExecMode::Synthetic { .. } => ParamStore::empty(net.name()),
            })
        };
        let clock = SimClock::new();
        let mut client = Endpoint::new("client", cfg.client_device.clone(), clock.clone());
        let spec = cfg.primary().clone();
        let mut server = Endpoint::new(&spec.name, spec.device.clone(), clock);
        client.install_model(net.clone(), params()?, cfg.exec_mode, cut, cfg.seed);
        server.install_model(net.clone(), params()?, cfg.exec_mode, cut, cfg.seed);
        let url = apps::synthetic_image_data_url(cfg.seed, cfg.image_bytes);
        let (app, trigger) = match cut {
            Some(_) => (
                apps::partial_inference_app(&url),
                apps::PARTIAL_OFFLOAD_EVENT,
            ),
            None => (apps::full_inference_app(&url), apps::FULL_OFFLOAD_EVENT),
        };
        client.browser.load_html(&app)?;
        client.browser.set_offload_trigger(Some(trigger));
        Ok(Replay {
            cfg,
            trigger,
            client,
            server,
            agreed: None,
        })
    }

    /// One `infer()`: click, uplink, the server's run, downlink, the
    /// client's finish and the new agreement. Returns the round's line.
    fn round(&mut self, round: u64) -> Result<String, OffloadError> {
        let opts = self.cfg.snapshot.clone();
        let url = apps::synthetic_image_data_url(round, self.cfg.image_bytes);
        let photo = self
            .client
            .browser
            .core()
            .doc
            .get_element_by_id("photo")
            .ok_or_else(|| OffloadError::Protocol("no photo element".into()))?;
        self.client
            .browser
            .core_mut()
            .doc
            .set_attr(photo, "src", &url)?;
        self.client.browser.click("load")?;
        self.client.run()?;
        self.client.browser.click("infer")?;
        let outcome = self.client.run()?;
        assert!(matches!(outcome, RunOutcome::OffloadPoint { .. }));

        let mut up = None;
        if let Some(base) = self.agreed.as_ref().filter(|_| self.cfg.use_deltas) {
            if let DeltaCapture::Delta(delta) = self.client.capture_delta(base, &opts)? {
                self.server.apply_delta(&delta)?;
                up = Some(delta.script().to_string());
            }
        }
        let delta_up = up.is_some();
        let up = match up {
            Some(script) => script,
            None => {
                let (snapshot, _) = self.client.capture(&opts)?;
                self.server.restore(&snapshot)?;
                snapshot.html().to_string()
            }
        };
        let server_base = self.server.browser.state_base();
        self.server.run()?;

        let mut down = None;
        if delta_up {
            if let DeltaCapture::Delta(delta) = self.server.capture_delta(&server_base, &opts)? {
                self.client.apply_delta(&delta)?;
                down = Some(delta.script().to_string());
            }
        }
        let down = match down {
            Some(script) => script,
            None => {
                let (snapshot, _) = self.server.capture(&opts)?;
                self.client.restore(&snapshot)?;
                snapshot.html().to_string()
            }
        };
        self.client.browser.set_offload_trigger(None);
        self.client.run()?;
        self.client.browser.set_offload_trigger(Some(self.trigger));
        self.agreed = Some(self.client.browser.state_base());
        Ok(format!(
            "round {round}: up {} B {:016x}, down {} B {:016x}, cells client {} server {}, result {}",
            up.len(),
            fnv1a(up.as_bytes()),
            down.len(),
            fnv1a(down.as_bytes()),
            self.client.browser.core().heap.len(),
            self.server.browser.core().heap.len(),
            self.client.browser.element_text("result")?,
        ))
    }
}

fn assert_pinned(name: &str, cfg: SessionConfig, want_digest: u64, want_last: &str) {
    let mut replay = Replay::new(cfg).unwrap();
    let lines: Vec<String> = (1..=ROUNDS).map(|r| replay.round(r).unwrap()).collect();
    let digest = fnv1a(lines.join("\n").as_bytes());
    let last = lines.last().map(String::as_str).unwrap_or_default();
    assert_eq!(
        (digest, last),
        (want_digest, want_last),
        "{name}: the wire or the heap ids moved; rounds:\n{}",
        lines.join("\n")
    );
}

#[test]
fn agenet_full_delta_rounds_are_pinned() {
    assert_pinned(
        "agenet",
        SessionConfig::paper("agenet"),
        0x5b6f16380e12514e,
        "round 50: up 70352 B de6369dd24b13dc1, down 205 B b6042d22c4abf242, \
         cells client 0 server 0, result (25-32) (score 5.539)",
    );
}

#[test]
fn agenet_first_pool_rounds_are_pinned() {
    assert_pinned(
        "agenet@1st_pool",
        SessionConfig::paper_builder("agenet")
            .cut("1st_pool")
            .build(),
        0x0ae643b06ef99bed,
        "round 50: up 1459024 B 3f91c589100d508e, down 221 B 3fc1c20611c25e11, \
         cells client 49 server 100, result (25-32) (score 5.539)",
    );
}

#[test]
fn agenet_third_pool_rounds_are_pinned() {
    assert_pinned(
        "agenet@3rd_pool",
        SessionConfig::paper_builder("agenet")
            .cut("3rd_pool")
            .build(),
        0xe9a25a5e2679e57d,
        "round 50: up 365027 B d4da4b390311c109, down 221 B 3fc1c20611c25e11, \
         cells client 49 server 100, result (25-32) (score 5.539)",
    );
}

/// A metered `3rd_pool` session: the meter counts cell ids ever
/// allocated, so `ops_used`, `peak_heap` and the round the heap cap trips
/// on must not notice that dead cells are freed. The cap trips mid-run.
#[test]
fn a_metered_partial_session_trips_its_heap_cap_on_the_same_round() {
    use snapedge_core::{MeterLimits, OffloadSession};
    let cfg = SessionConfig::paper_builder("agenet")
        .cut("3rd_pool")
        .meter(MeterLimits::default().with_heap_cells(HEAP_CAP))
        .build();
    let mut session = OffloadSession::new(cfg).unwrap();
    let lines: Vec<String> = (1..=30u64)
        .map(|round| {
            let r = session.infer(round).unwrap();
            format!(
                "round {round}: server {} fell_back {} ops {} peak_heap {} up {} B down {} B",
                r.server, r.fell_back, r.ops_used, r.peak_heap, r.up_bytes, r.down_bytes
            )
        })
        .collect();
    let tripped = lines.iter().position(|l| l.contains("fell_back true"));
    let digest = fnv1a(lines.join("\n").as_bytes());
    assert_eq!(
        (tripped, digest),
        (Some(20), 0x67f7d61477ed31de),
        "the metered session moved; rounds:\n{}",
        lines.join("\n")
    );
}

const HEAP_CAP: usize = 41;
