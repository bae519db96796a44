//! The Caffe.js stand-in: a [`HostObject`] named `model` that web apps call
//! for DNN inference. It executes the real layer graph (or shape-faithful
//! synthetic execution) and charges *simulated device time* to the shared
//! [`SimClock`] — which is how browser-level app runs produce the paper's
//! timing numbers deterministically.

use crate::device::DeviceProfile;
use crate::OffloadError;
use snapedge_dnn::{DnnError, ExecMode, Network, NetworkProfile, NodeId, ParamStore};
use snapedge_net::SimClock;
use snapedge_tensor::{Tensor, TensorError};
use snapedge_trace::{EventKind, Lane, Tracer};
use snapedge_webapp::{Core, HeapCell, HostObject, JsValue, ObjId, WebError};
use std::time::Duration;

/// The `model` host object.
pub struct CaffeJsHost {
    net: Network,
    profile: NetworkProfile,
    params: ParamStore,
    device: DeviceProfile,
    mode: ExecMode,
    clock: SimClock,
    cut: Option<NodeId>,
    seed: u64,
    tracer: Tracer,
    lane: Lane,
}

impl CaffeJsHost {
    /// Builds a host for `net` on `device`, charging time to `clock`.
    pub fn new(
        net: Network,
        params: ParamStore,
        device: DeviceProfile,
        mode: ExecMode,
        clock: SimClock,
    ) -> CaffeJsHost {
        let profile = net.profile();
        CaffeJsHost {
            net,
            profile,
            params,
            device,
            mode,
            clock,
            cut: None,
            seed: 0x5eed,
            tracer: Tracer::disabled(),
            lane: Lane::Client,
        }
    }

    /// Configures the partial-inference cut point, builder-style.
    pub fn with_cut(mut self, cut: Option<NodeId>) -> CaffeJsHost {
        self.cut = cut;
        self
    }

    /// Seed for decoding synthetic images deterministically.
    pub fn with_seed(mut self, seed: u64) -> CaffeJsHost {
        self.seed = seed;
        self
    }

    /// Attaches an event tracer; each DNN execution then records one
    /// [`EventKind::Layer`] event per layer on `lane`, with the per-layer
    /// durations summing exactly to the charged execution time.
    pub fn with_tracer(mut self, tracer: Tracer, lane: Lane) -> CaffeJsHost {
        self.tracer = tracer;
        self.lane = lane;
        self
    }

    /// Charges the execution time of the layer range `(after, through]`
    /// layer by layer, so per-layer trace events sum exactly to the total
    /// charged duration (the same sum [`DeviceProfile::exec_time`]
    /// computes).
    fn charge(&self, after: Option<NodeId>, through: Option<NodeId>) {
        let lo = after.map(|id| id.index()).unwrap_or(0);
        let hi = through.map(|id| id.index()).unwrap_or(usize::MAX);
        let mut t = self.clock.now();
        let mut duration = Duration::ZERO;
        for layer in self.profile.layers() {
            let i = layer.id.index();
            if i == 0 || (after.is_some() && i <= lo) || i > hi {
                continue;
            }
            let dt = self.device.layer_time(layer.op_tag, layer.flops);
            if self.tracer.is_enabled() {
                self.tracer
                    .record(&layer.name, self.lane, EventKind::Layer, t, t + dt);
            }
            t += dt;
            duration += dt;
        }
        self.clock.advance_by(duration);
    }

    /// Validates the app-supplied input: an encoded image string or an
    /// already-decoded `Float32Array` of exactly the input volume.
    fn check_input<'a>(
        &self,
        value: &'a JsValue,
        core: &'a Core,
    ) -> Result<ModelInput<'a>, WebError> {
        match value {
            JsValue::Str(url) => Ok(ModelInput::Image(url)),
            JsValue::Float32Array(id) => {
                let pixels = float_cell(core, *id, "model input")?;
                self.net
                    .input_shape()
                    .check_len(pixels.len())
                    .map_err(bad_pixels)?;
                Ok(ModelInput::Pixels(pixels))
            }
            other => Err(WebError::Runtime(format!(
                "model input must be an image string or Float32Array, got {}",
                other.type_name()
            ))),
        }
    }

    /// Decodes a validated input into the tensor a pass starts from: an
    /// image string's pixels are synthesized deterministically from its
    /// hash, standing in for JPEG decode.
    fn decode_input(&self, input: ModelInput<'_>) -> Result<Tensor, WebError> {
        let dims = self.net.input_shape().dims();
        match input {
            ModelInput::Image(url) => {
                let mut h: u64 = self.seed;
                for b in url.bytes() {
                    h = h.wrapping_mul(1099511628211).wrapping_add(b as u64);
                }
                Tensor::from_fn(dims, |i| {
                    let mut z = h.wrapping_add(i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                    z ^= z >> 29;
                    ((z % 256) as f32) / 255.0
                })
                .map_err(|e| WebError::Runtime(format!("decode: {e}")))
            }
            ModelInput::Pixels(pixels) => {
                Tensor::from_vec(dims, pixels.to_vec()).map_err(bad_pixels)
            }
        }
    }

    fn label(&self, output: &Tensor) -> String {
        let idx = output.argmax();
        let score = output.data()[idx];
        let label: String = match self.net.name() {
            "agenet" => {
                const AGES: [&str; 8] = [
                    "(0-2)", "(4-6)", "(8-13)", "(15-20)", "(25-32)", "(38-43)", "(48-53)",
                    "(60-100)",
                ];
                AGES.get(idx).copied().unwrap_or("(?)").to_string()
            }
            "gendernet" => ["male", "female"]
                .get(idx)
                .copied()
                .unwrap_or("?")
                .to_string(),
            _ => format!("class_{idx}"),
        };
        format!("{label} (score {score:.3})")
    }

    fn require_cut(&self) -> Result<NodeId, WebError> {
        self.cut.ok_or_else(|| {
            WebError::Runtime("partial inference requires a configured cut point".into())
        })
    }

    /// The tensor at `node` after synthetic execution of the nodes after
    /// `boundary`, without running the pass: a synthetic tensor depends on
    /// no other, so the one at `boundary` need not be built. `None` when
    /// the pass has to run — real mode; `node` is the boundary, nothing
    /// executes and the result is the tensor supplied there; or a bound
    /// is no partition point, which the pass reports.
    fn synthetic_read(&self, boundary: NodeId, node: NodeId) -> Option<Result<Tensor, DnnError>> {
        match self.mode {
            ExecMode::Synthetic { seed }
                if node != boundary
                    && self.net.is_cut_point(boundary)
                    && self.net.is_cut_point(node) =>
            {
                Some(self.net.synthetic_output(seed, node))
            }
            _ => None,
        }
    }
}

/// A model argument that passed [`CaffeJsHost::check_input`].
enum ModelInput<'a> {
    /// An encoded image (a data URL in the paper's apps).
    Image(&'a str),
    /// Decoded pixel data of the input volume.
    Pixels(&'a [f32]),
}

fn bad_pixels(e: TensorError) -> WebError {
    WebError::Runtime(format!("pixel input: {e}"))
}

/// The typed array behind a `Float32Array` value.
fn float_cell<'a>(core: &'a Core, id: ObjId, what: &str) -> Result<&'a [f32], WebError> {
    match core
        .heap
        .cell(id)
        .map_err(|e| WebError::Runtime(e.to_string()))?
    {
        HeapCell::Float32Array(data) => Ok(data),
        _ => Err(WebError::Internal(format!("heap cell mismatch in {what}"))),
    }
}

impl HostObject for CaffeJsHost {
    fn call(
        &mut self,
        method: &str,
        args: &[JsValue],
        core: &mut Core,
    ) -> Result<JsValue, WebError> {
        let to_web = |e: DnnError| WebError::Runtime(OffloadError::Dnn(e).to_string());
        match method {
            "inference" => {
                let input = self.check_input(
                    args.first()
                        .ok_or_else(|| WebError::Runtime("inference needs an input".into()))?,
                    core,
                )?;
                let last = self.net.output_id();
                let output = match self.synthetic_read(self.net.input_id(), last) {
                    Some(output) => output,
                    None => self
                        .net
                        .forward(&self.params, &self.decode_input(input)?, self.mode)
                        .and_then(|fwd| fwd.into_output(last)),
                }
                .map_err(to_web)?;
                self.charge(None, None);
                Ok(JsValue::Str(self.label(&output)))
            }
            "inference_front" => {
                let cut = self.require_cut()?;
                let input = self.check_input(
                    args.first().ok_or_else(|| {
                        WebError::Runtime("inference_front needs an input".into())
                    })?,
                    core,
                )?;
                let feature = match self.synthetic_read(self.net.input_id(), cut) {
                    Some(feature) => feature,
                    None => self
                        .net
                        .forward_until(&self.params, &self.decode_input(input)?, cut, self.mode)
                        .and_then(|fwd| fwd.into_output(cut)),
                }
                .map_err(to_web)?;
                self.charge(None, Some(cut));
                Ok(core.heap.alloc_f32(feature.into_vec()))
            }
            "inference_rear" => {
                let cut = self.require_cut()?;
                let feature_value = args
                    .first()
                    .ok_or_else(|| WebError::Runtime("inference_rear needs feature data".into()))?;
                let JsValue::Float32Array(id) = feature_value else {
                    return Err(WebError::Runtime(format!(
                        "feature data must be a Float32Array, got {}",
                        feature_value.type_name()
                    )));
                };
                let data = float_cell(core, *id, "feature upload")?;
                let shape = self.net.output_shape(cut).map_err(to_web)?;
                let bad_shape = |e| WebError::Runtime(format!("feature shape: {e}"));
                shape.check_len(data.len()).map_err(bad_shape)?;
                let last = self.net.output_id();
                let output = match self.synthetic_read(cut, last) {
                    Some(output) => output,
                    None => {
                        let feature =
                            Tensor::from_vec(shape.dims(), data.to_vec()).map_err(bad_shape)?;
                        self.net
                            .forward_from(&self.params, cut, feature, self.mode)
                            .and_then(|fwd| fwd.into_output(last))
                    }
                }
                .map_err(to_web)?;
                self.charge(Some(cut), None);
                Ok(JsValue::Str(self.label(&output)))
            }
            other => Err(WebError::Runtime(format!("model has no method {other:?}"))),
        }
    }

    fn get(&mut self, property: &str, _core: &mut Core) -> Result<JsValue, WebError> {
        match property {
            "name" => Ok(JsValue::Str(self.net.name().to_string())),
            "layerCount" => Ok(JsValue::Number(self.net.node_count() as f64)),
            other => Err(WebError::Runtime(format!(
                "model has no property {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{edge_server_x86, odroid_xu4};
    use snapedge_dnn::zoo;
    use snapedge_webapp::Browser;

    fn host_browser(mode: ExecMode, cut_label: Option<&str>) -> (Browser, SimClock, Tracer) {
        let net = zoo::tiny_cnn();
        let params = net.init_params(1).unwrap();
        let cut = cut_label.map(|l| net.cut_point(l).unwrap().id);
        let clock = SimClock::new();
        let tracer = Tracer::new();
        let host = CaffeJsHost::new(net, params, odroid_xu4(), mode, clock.clone())
            .with_cut(cut)
            .with_tracer(tracer.clone(), Lane::Client);
        let mut b = Browser::new();
        b.register_host("model", Box::new(host));
        (b, clock, tracer)
    }

    /// The names of the layers the host charged, in execution order.
    fn executed(tracer: &Tracer) -> Vec<String> {
        let trace = tracer.finish();
        assert!(trace.events().iter().all(|e| e.kind == EventKind::Layer));
        trace.events().iter().map(|e| e.name.clone()).collect()
    }

    /// Every tiny_cnn layer after the input, in order: one full pass.
    fn full_pass() -> Vec<String> {
        let profile = zoo::tiny_cnn().profile();
        let layers = profile.layers().iter().filter(|l| l.id.index() != 0);
        layers.map(|l| l.name.clone()).collect()
    }

    #[test]
    fn inference_returns_a_label_and_charges_time() {
        let (mut b, clock, tracer) = host_browser(ExecMode::Real, None);
        b.exec_script(r#"var r = model.inference("data:image/jpeg;base64,AAA");"#)
            .unwrap();
        let JsValue::Str(label) = b.global("r") else {
            panic!()
        };
        assert!(label.starts_with("class_"), "{label}");
        assert!(clock.now() > Duration::ZERO);
        assert_eq!(executed(&tracer), full_pass());
        let trace = tracer.finish();
        assert_eq!(trace.duration_of_kind(EventKind::Layer, None), clock.now());
    }

    #[test]
    fn front_plus_rear_equals_full_result_and_time() {
        let (mut b1, _c1, _t1) = host_browser(ExecMode::Real, Some("1st_pool"));
        b1.exec_script(
            r#"
            var f = model.inference_front("data:image/jpeg;base64,XYZ");
            var r = model.inference_rear(f);
        "#,
        )
        .unwrap();
        let (mut b2, _c2, _t2) = host_browser(ExecMode::Real, None);
        b2.exec_script(r#"var r = model.inference("data:image/jpeg;base64,XYZ");"#)
            .unwrap();
        assert_eq!(b1.global("r"), b2.global("r"), "split must match full");
    }

    #[test]
    fn front_rear_times_sum_to_full_time() {
        let net = zoo::tiny_cnn();
        let profile = net.profile();
        let dev = edge_server_x86();
        let cut = net.cut_point("1st_pool").unwrap().id;
        let full = dev.full_exec_time(&profile);
        let split =
            dev.exec_time(&profile, None, Some(cut)) + dev.exec_time(&profile, Some(cut), None);
        assert!(full.abs_diff(split) < Duration::from_micros(5));
    }

    #[test]
    fn partial_without_cut_is_an_error() {
        let (mut b, _c, _t) = host_browser(ExecMode::Real, None);
        assert!(b
            .exec_script(r#"var f = model.inference_front("x");"#)
            .is_err());
    }

    #[test]
    fn rear_rejects_wrong_feature_size() {
        let (mut b, _c, _t) = host_browser(ExecMode::Real, Some("1st_pool"));
        assert!(b
            .exec_script("var r = model.inference_rear(new Float32Array([1, 2, 3]));")
            .is_err());
    }

    #[test]
    fn same_image_string_decodes_identically() {
        let (mut b, _c, _t) = host_browser(ExecMode::Real, None);
        b.exec_script(
            r#"
            var a = model.inference("data:image/jpeg;base64,SAME");
            var b = model.inference("data:image/jpeg;base64,SAME");
            var c = model.inference("data:image/jpeg;base64,OTHER");
            var stable = a == b;
        "#,
        )
        .unwrap();
        assert_eq!(b.global("stable"), JsValue::Bool(true));
    }

    #[test]
    fn synthetic_mode_works_without_params() {
        let net = zoo::agenet();
        let clock = SimClock::new();
        let host = CaffeJsHost::new(
            net,
            ParamStore::empty("agenet"),
            edge_server_x86(),
            ExecMode::Synthetic { seed: 9 },
            clock.clone(),
        );
        let mut b = Browser::new();
        b.register_host("model", Box::new(host));
        b.exec_script(r#"var r = model.inference("img");"#).unwrap();
        let JsValue::Str(label) = b.global("r") else {
            panic!()
        };
        assert!(label.starts_with('('), "age label, got {label}");
        assert!(clock.now() > Duration::from_secs(1));
    }

    #[test]
    fn synthetic_mode_rejects_bad_arguments_with_the_real_mode_text() {
        // Synthetic execution never reads its input, but it validates it:
        // the texts below are what the eager executor reported.
        let cases = [
            (
                None,
                "model.inference(42);",
                "model input must be an image string or Float32Array, got number",
            ),
            (
                None,
                "model.inference(new Float32Array([1, 2, 3]));",
                "pixel input: data length 3 does not match shape volume 768",
            ),
            (None, "model.inference();", "inference needs an input"),
            (
                None,
                r#"model.inference_front("x");"#,
                "partial inference requires a configured cut point",
            ),
            (
                None,
                "model.inference_rear(new Float32Array([1]));",
                "partial inference requires a configured cut point",
            ),
            (
                Some("1st_pool"),
                "model.inference_front(true);",
                "model input must be an image string or Float32Array, got boolean",
            ),
            (
                Some("1st_pool"),
                "model.inference_front(new Float32Array([1, 2]));",
                "pixel input: data length 2 does not match shape volume 768",
            ),
            (
                Some("1st_pool"),
                "model.inference_rear(new Float32Array([1, 2, 3]));",
                "feature shape: data length 3 does not match shape volume 256",
            ),
            (
                Some("1st_pool"),
                r#"model.inference_rear("feature");"#,
                "feature data must be a Float32Array, got string",
            ),
        ];
        for (cut, script, want) in cases {
            for mode in [ExecMode::Synthetic { seed: 9 }, ExecMode::Real] {
                let (mut b, clock, tracer) = host_browser(mode, cut);
                let err = b.exec_script(script).unwrap_err();
                assert_eq!(
                    err.to_string(),
                    format!("runtime error: {want}"),
                    "{script} in {mode:?}"
                );
                assert_eq!(clock.now(), Duration::ZERO, "{script}: no time charged");
                assert!(tracer.is_empty(), "{script}: nothing executed");
            }
        }
    }

    #[test]
    fn synthetic_mode_accepts_a_pixel_array_of_the_input_volume() {
        let pixels = vec!["0.5"; 3 * 16 * 16].join(", ");
        let script = format!(
            "var px = new Float32Array([{pixels}]);
             var f = model.inference_front(px);
             var split = model.inference_rear(f);
             var full = model.inference(px);"
        );
        let (mut b, _c, tracer) = host_browser(ExecMode::Synthetic { seed: 9 }, Some("1st_pool"));
        b.exec_script(&script).unwrap();
        assert_eq!(b.global("split"), b.global("full"));
        // Front and rear tile one pass, then the full pass runs again.
        assert_eq!(executed(&tracer), [full_pass(), full_pass()].concat());
    }

    #[test]
    fn split_equals_full_at_every_cut_in_both_modes() {
        // Both ends included: at `input` the front partition is empty and
        // hands back the decoded image, at `prob` the rear partition is
        // empty and labels the uploaded feature.
        for mode in [ExecMode::Synthetic { seed: 9 }, ExecMode::Real] {
            let (mut full, _c, _t) = host_browser(mode, None);
            full.exec_script(r#"var r = model.inference("img");"#)
                .unwrap();
            for cut in zoo::tiny_cnn().cut_points() {
                let (mut b, _c, tracer) = host_browser(mode, Some(&cut.label));
                b.exec_script(
                    r#"var f = model.inference_front("img");
                       var n = f.length;
                       var r = model.inference_rear(f);"#,
                )
                .unwrap();
                let what = format!("cut {} in {mode:?}", cut.label);
                assert_eq!(b.global("r"), full.global("r"), "{what}");
                assert_eq!(
                    b.global("n"),
                    JsValue::Number(cut.feature_elems as f64),
                    "{what}"
                );
                assert_eq!(executed(&tracer), full_pass(), "{what}");
            }
        }
    }

    #[test]
    fn a_cut_that_is_no_partition_point_is_reported_in_both_modes() {
        let net = zoo::googlenet();
        let branch = net.node_id("inception_3a/1x1").unwrap();
        let volume = net.output_shape(branch).unwrap().volume();
        for mode in [ExecMode::Synthetic { seed: 9 }, ExecMode::Real] {
            for call in [
                r#"model.inference_front("img");"#.to_string(),
                format!("model.inference_rear(new Float32Array({volume}));"),
            ] {
                let host = CaffeJsHost::new(
                    net.clone(),
                    ParamStore::empty("googlenet"),
                    odroid_xu4(),
                    mode,
                    SimClock::new(),
                )
                .with_cut(Some(branch));
                let mut b = Browser::new();
                b.register_host("model", Box::new(host));
                let err = b.exec_script(&call).unwrap_err().to_string();
                assert!(
                    err.starts_with("runtime error: dnn: unknown cut point")
                        && err.contains("inception_3a/1x1"),
                    "{call} in {mode:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn host_properties() {
        let (mut b, _c, _t) = host_browser(ExecMode::Real, None);
        b.exec_script("var n = model.name; var k = model.layerCount;")
            .unwrap();
        assert_eq!(b.global("n"), JsValue::Str("tiny_cnn".into()));
        assert!(matches!(b.global("k"), JsValue::Number(n) if n > 5.0));
    }
}
