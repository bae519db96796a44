//! The benchmark web apps, generated as MiniJS/HTML source.
//!
//! [`full_inference_app`] mirrors the paper's Fig. 2 (load an image, click
//! inference, show the label); [`partial_inference_app`] mirrors Fig. 5
//! (front part locally, `front_complete` event offloads the rear part).
//!
//! One adaptation: the offload trigger in this runtime matches an *event
//! name*, so the inference button's click handler immediately re-dispatches
//! a dedicated `run_inference` event and offloading is armed on that (for
//! partial inference the paper itself already uses a dedicated
//! `front_complete` event — Fig. 5, lines 9/17-18).
//!
//! Images travel as compact **encoded data URLs** (as real web apps hold
//! them), not raw pixels — which is why the paper's Table I app state is
//! tiny (0.02–0.09 MB) while partial-inference feature data is megabytes
//! of decoded floats.

const DATA_URL_PREFIX: &str = "data:image/jpeg;base64,";
const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
/// The image's LCG, `z ← A·z + C` (Knuth's MMIX constants).
const LCG_A: u64 = 6364136223846793005;
const LCG_C: u64 = 1442695040888963407;
/// Interleaved LCG lanes: lane `k` draws bytes `k`, `k + 8`, `k + 16`, …
const LANES: usize = 8;
/// `(A⁸, C₈)`: one lane step is eight steps of the serial LCG.
const LANE_JUMP: (u64, u64) = lcg_jump(LANES);

/// The affine map of `steps` serial LCG steps, `z ↦ a·z + c`.
const fn lcg_jump(steps: usize) -> (u64, u64) {
    let (mut a, mut c) = (1u64, 0u64);
    let mut i = 0;
    while i < steps {
        a = a.wrapping_mul(LCG_A);
        c = c.wrapping_mul(LCG_A).wrapping_add(LCG_C);
        i += 1;
    }
    (a, c)
}

/// The character an LCG state draws.
fn symbol(z: u64) -> u8 {
    ALPHABET[(z >> 33) as usize % ALPHABET.len()]
}

/// Deterministic synthetic "encoded image": a data-URL-shaped string of
/// `bytes` base64-ish characters, seeded so every run is identical.
///
/// Byte `n` is drawn from the state after `n + 1` steps of one LCG
/// started from the seed. The stream runs as eight interleaved lanes:
/// lane `k` starts at the state after `k + 1` steps and advances by the
/// precomputed eight-step jump `(A⁸, C₈)`, so the eight multiplies of a
/// step are independent instead of one serial chain. The bytes go
/// straight into the result's buffer behind the prefix. The output
/// equals the serial loop's byte for byte, for every seed and length
/// (tested against it).
pub fn synthetic_image_data_url(seed: u64, bytes: usize) -> String {
    let mut out = Vec::with_capacity(DATA_URL_PREFIX.len() + bytes);
    out.extend_from_slice(DATA_URL_PREFIX.as_bytes());
    out.resize(DATA_URL_PREFIX.len() + bytes, 0);
    // SplitMix-style seed expansion: adjacent seeds must yield unrelated
    // streams (`seed | 1` would collide for consecutive even/odd pairs).
    let mut z = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut lanes = [0u64; LANES];
    for lane in &mut lanes {
        z = z.wrapping_mul(LCG_A).wrapping_add(LCG_C);
        *lane = z;
    }
    let (a, c) = LANE_JUMP;
    let mut chunks = out[DATA_URL_PREFIX.len()..].chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        for (byte, lane) in chunk.iter_mut().zip(&mut lanes) {
            *byte = symbol(*lane);
            *lane = lane.wrapping_mul(a).wrapping_add(c);
        }
    }
    for (byte, lane) in chunks.into_remainder().iter_mut().zip(&lanes) {
        *byte = symbol(*lane);
    }
    // Every byte is the ASCII prefix or an ALPHABET symbol, so the
    // check always passes and the default is never taken.
    String::from_utf8(out).unwrap_or_default()
}

/// The full-inference app (paper Fig. 2): the whole DNN runs wherever the
/// `run_inference` event is handled — locally, or on the edge server after
/// snapshot migration.
pub fn full_inference_app(image_url: &str) -> String {
    format!(
        r#"<html><body>
<img id="photo" src="{image_url}"></img>
<button id="load">Load image</button>
<button id="infer">Inference</button>
<div id="result">waiting</div>
</body>
<script>
var imageUrl = null;
var resultText = null;
function onLoad() {{
  imageUrl = document.getElementById("photo").getAttribute("src");
  document.getElementById("result").textContent = "image loaded";
}}
function onInferClick() {{
  document.getElementById("infer").dispatchEvent("run_inference");
}}
function runInference() {{
  resultText = model.inference(imageUrl);
  document.getElementById("result").textContent = resultText;
}}
document.getElementById("load").addEventListener("click", onLoad);
document.getElementById("infer").addEventListener("click", onInferClick);
document.getElementById("infer").addEventListener("run_inference", runInference);
</script></html>
"#
    )
}

/// The partial-inference app (paper Fig. 5): `front()` denatures the input
/// locally and dispatches `front_complete`; offloading is armed on that
/// event, so the snapshot carries feature data instead of the input image.
/// The app also scrubs the input from its own state before the snapshot —
/// the developer-side privacy discipline Section III-B.2 describes.
pub fn partial_inference_app(image_url: &str) -> String {
    format!(
        r#"<html><body>
<img id="photo" src="{image_url}"></img>
<button id="load">Load image</button>
<button id="infer">Inference</button>
<div id="result">waiting</div>
</body>
<script>
var imageUrl = null;
var feature = null;
var resultText = null;
function onLoad() {{
  imageUrl = document.getElementById("photo").getAttribute("src");
  document.getElementById("result").textContent = "image loaded";
}}
function front() {{
  feature = model.inference_front(imageUrl);
  imageUrl = null;
  document.getElementById("photo").setAttribute("src", "");
  document.getElementById("infer").dispatchEvent("front_complete");
}}
function rear() {{
  resultText = model.inference_rear(feature);
  feature = null;
  document.getElementById("result").textContent = resultText;
}}
document.getElementById("load").addEventListener("click", onLoad);
document.getElementById("infer").addEventListener("click", front);
document.getElementById("infer").addEventListener("front_complete", rear);
</script></html>
"#
    )
}

/// Event name that triggers offloading in the full-inference app.
pub const FULL_OFFLOAD_EVENT: &str = "run_inference";
/// Event name that triggers offloading in the partial-inference app
/// (the paper's `front_complete`).
pub const PARTIAL_OFFLOAD_EVENT: &str = "front_complete";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_url_is_deterministic_and_sized() {
        let a = synthetic_image_data_url(7, 1000);
        let b = synthetic_image_data_url(7, 1000);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1000 + "data:image/jpeg;base64,".len());
        let c = synthetic_image_data_url(8, 1000);
        assert_ne!(a, c);
    }

    /// The reference: the generator as one LCG stepped byte by byte.
    fn serial(seed: u64, bytes: usize) -> String {
        const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
        let mut out = String::with_capacity(bytes + 24);
        out.push_str("data:image/jpeg;base64,");
        let mut z = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        for _ in 0..bytes {
            z = z
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            out.push(ALPHABET[(z >> 33) as usize % ALPHABET.len()] as char);
        }
        out
    }

    /// Every length up to 64 (all eight remainders, and the lengths
    /// shorter than one lane step) and the paper photo's 35 000 bytes.
    #[test]
    fn lanes_draw_the_serial_stream() {
        for seed in [0, 1, 7, u64::MAX] {
            for bytes in (0..=64).chain([35_000]) {
                assert_eq!(
                    synthetic_image_data_url(seed, bytes),
                    serial(seed, bytes),
                    "seed {seed}, {bytes} bytes"
                );
            }
        }
    }

    #[test]
    #[ignore = "1 000 photos of 35 000 bytes: run in release (ci.sh)"]
    fn lanes_draw_the_serial_stream_for_a_thousand_seeds() {
        for seed in 0..1_000 {
            assert!(
                synthetic_image_data_url(seed, 35_000) == serial(seed, 35_000),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn apps_parse_as_valid_html_and_minijs() {
        let url = synthetic_image_data_url(1, 64);
        for app in [full_inference_app(&url), partial_inference_app(&url)] {
            let parsed = snapedge_webapp::html::parse_document(&app).unwrap();
            assert_eq!(parsed.scripts.len(), 1);
            snapedge_webapp::parser::parse_program(&parsed.scripts[0]).unwrap();
        }
    }
}
