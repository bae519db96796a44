//! The output oracle: the paper's transparency claim says an offloaded
//! round shows exactly what local execution would have shown. The oracle
//! runs the same seeded rounds on a client-only endpoint — same app,
//! same model host, no offload trigger, no server, no snapshot — and the
//! ledger requires every offloaded `RoundReport.result` to equal it.

use snapedge_core::{apps, Endpoint, OffloadError, SessionConfig};
use snapedge_dnn::{zoo, ExecMode, ParamStore};
use snapedge_net::SimClock;

/// A client that never offloads.
pub struct LocalOracle {
    client: Endpoint,
    image_bytes: usize,
}

impl LocalOracle {
    /// Loads `cfg`'s app on a lone client endpoint with the offload
    /// trigger left disarmed.
    pub fn new(cfg: &SessionConfig) -> Result<LocalOracle, OffloadError> {
        let net = zoo::by_name(&cfg.model)?;
        let cut = match &cfg.cut {
            Some(label) => Some(net.cut_point(label)?.id),
            None => None,
        };
        let params = match cfg.exec_mode {
            ExecMode::Real => net.init_params(cfg.seed)?,
            ExecMode::Synthetic { .. } => ParamStore::empty(net.name()),
        };
        let mut client = Endpoint::new("oracle", cfg.client_device.clone(), SimClock::new());
        client.install_model(net, params, cfg.exec_mode, cut, cfg.seed);
        let url = apps::synthetic_image_data_url(cfg.seed, cfg.image_bytes);
        let app = match cut {
            Some(_) => apps::partial_inference_app(&url),
            None => apps::full_inference_app(&url),
        };
        client.browser.load_html(&app)?;
        Ok(LocalOracle {
            client,
            image_bytes: cfg.image_bytes,
        })
    }

    /// What the screen shows after loading image `image_seed` and
    /// clicking inference, executed entirely on the client.
    pub fn result(&mut self, image_seed: u64) -> Result<String, OffloadError> {
        let url = apps::synthetic_image_data_url(image_seed, self.image_bytes);
        let browser = &mut self.client.browser;
        let photo = browser
            .core()
            .doc
            .get_element_by_id("photo")
            .ok_or_else(|| OffloadError::Protocol("oracle app lost its photo element".into()))?;
        browser.core_mut().doc.set_attr(photo, "src", &url)?;
        browser.click("load")?;
        self.client.run()?;
        self.client.browser.click("infer")?;
        self.client.run()?;
        Ok(self.client.browser.element_text("result")?.to_string())
    }
}
