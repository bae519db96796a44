//! Tensor encodings with exact byte accounting.
//!
//! Two encodings matter to the offloading system:
//!
//! * **Binary** — little-endian `f32` plus a shape header. This is how model
//!   files are stored and *pre-sent* to the edge server (Section III-B.1 of
//!   the paper). Size ≈ `4 bytes × element count`, which reproduces the
//!   paper's model sizes (GoogLeNet ≈ 27 MB, Age/GenderNet ≈ 44 MB).
//!
//! * **JavaScript text** — a size model of the decimal representation a
//!   snapshot embeds (`var feature = new Float32Array([0.1234, ...]);`):
//!   each value as the shortest decimal that round-trips as an `f32`,
//!   ≈ 12–19 bytes per element for typical activations, which is why the
//!   paper measures 14.7 MB of feature data at GoogLeNet's `1st_conv`
//!   (112×112×64 floats) but only 2.9 MB at `1st_pool` (56×56×64 floats).
//!   It is the yardstick behind such Fig. 8 estimates, **not** the wire
//!   format: `snapedge-webapp` does not depend on this crate, prints each
//!   element widened to `f64` (longer text), spells non-finite values
//!   `(0/0)` / `(1/0)` rather than `NaN` / `Infinity`, and reads its
//!   literals back with its own lexer.

use crate::{Tensor, TensorError};

/// Magic prefix of the binary tensor format (`SETB` = SnapEdge Tensor Binary).
const MAGIC: &[u8; 4] = b"SETB";

/// Encodes a tensor as `MAGIC | rank:u32 | dims:u32* | data:f32*`,
/// little-endian throughout.
pub fn to_binary(t: &Tensor) -> Vec<u8> {
    let dims = t.shape().dims();
    let mut out = Vec::with_capacity(8 + dims.len() * 4 + t.len() * 4);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(dims.len() as u32).to_le_bytes());
    for &d in dims {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
    for &v in t.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Number of bytes [`to_binary`] will produce, computable without encoding.
pub fn binary_size(t: &Tensor) -> usize {
    8 + t.shape().rank() * 4 + t.len() * 4
}

/// Decodes a buffer produced by [`to_binary`].
///
/// # Errors
///
/// Returns [`TensorError::Decode`] for truncated or malformed input.
pub fn from_binary(buf: &[u8]) -> Result<Tensor, TensorError> {
    let err = |msg: &str| TensorError::Decode(msg.to_string());
    if buf.len() < 8 || &buf[..4] != MAGIC {
        return Err(err("missing SETB header"));
    }
    let rank = u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize;
    let header = 8 + rank * 4;
    if buf.len() < header {
        return Err(err("truncated dimension list"));
    }
    let mut dims = Vec::with_capacity(rank);
    for i in 0..rank {
        let off = 8 + i * 4;
        dims.push(u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()) as usize);
    }
    let volume: usize = dims.iter().product();
    if buf.len() != header + volume * 4 {
        return Err(err("data length does not match shape"));
    }
    let mut data = Vec::with_capacity(volume);
    for i in 0..volume {
        let off = header + i * 4;
        data.push(f32::from_le_bytes(buf[off..off + 4].try_into().unwrap()));
    }
    Tensor::from_vec(&dims, data)
}

/// Renders a tensor as a JavaScript typed-array expression,
/// `new Float32Array([v0,v1,...])`, each value the shortest decimal that
/// round-trips as an `f32`.
///
/// A size model (see the module docs), with no caller in the offloading
/// path: its length, not its parse-ability by a JS engine or by MiniJS, is
/// what matters.
pub fn to_js_text(t: &Tensor) -> String {
    let mut s = String::with_capacity(t.len() * 12 + 32);
    s.push_str("new Float32Array([");
    for (i, &v) in t.data().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_js_number(&mut s, v);
    }
    s.push_str("])");
    s
}

/// Number of bytes [`to_js_text`] would produce, without building the string.
pub fn js_text_size(t: &Tensor) -> usize {
    let mut n = "new Float32Array([".len() + "])".len();
    if !t.is_empty() {
        n += t.len() - 1; // commas
    }
    let mut buf = String::new();
    for &v in t.data() {
        buf.clear();
        push_js_number(&mut buf, v);
        n += buf.len();
    }
    n
}

/// Appends a float in JS literal syntax (`NaN`/`Infinity` spelled out).
fn push_js_number(s: &mut String, v: f32) {
    use std::fmt::Write;
    if v.is_nan() {
        s.push_str("NaN");
    } else if v.is_infinite() {
        s.push_str(if v > 0.0 { "Infinity" } else { "-Infinity" });
    } else {
        // Rust's Display for f32 prints the shortest string that
        // round-trips, same guarantee as JS Number#toString.
        let _ = write!(s, "{v}");
    }
}

/// Parses the output of [`to_js_text`] back into a flat `Vec<f32>` (the
/// shape is not part of the text). The inverse of the size model only: the
/// snapshot interpreter restores typed arrays through the MiniJS lexer in
/// `snapedge-webapp`, not through this function.
///
/// # Errors
///
/// Returns [`TensorError::Decode`] when the text is not a
/// `new Float32Array([...])` expression.
pub fn from_js_text(text: &str) -> Result<Vec<f32>, TensorError> {
    let inner = text
        .trim()
        .strip_prefix("new Float32Array([")
        .and_then(|rest| rest.strip_suffix("])"))
        .ok_or_else(|| TensorError::Decode("not a Float32Array literal".to_string()))?;
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .map(|tok| match tok.trim() {
            "NaN" => Ok(f32::NAN),
            "Infinity" => Ok(f32::INFINITY),
            "-Infinity" => Ok(f32::NEG_INFINITY),
            t => t
                .parse::<f32>()
                .map_err(|e| TensorError::Decode(format!("bad float {t:?}: {e}"))),
        })
        .collect()
}

/// Average JS-text bytes per element for a tensor — the quantity that turns
/// element counts into the paper's feature-data megabytes.
pub fn js_bytes_per_element(t: &Tensor) -> f64 {
    if t.is_empty() {
        return 0.0;
    }
    js_text_size(t) as f64 / t.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn binary_roundtrip() {
        let t = Tensor::from_fn(&[3, 4, 5], |i| (i as f32).sin()).unwrap();
        let buf = to_binary(&t);
        assert_eq!(buf.len(), binary_size(&t));
        let back = from_binary(&buf).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(from_binary(b"").is_err());
        assert!(from_binary(b"XXXX\x01\x00\x00\x00").is_err());
        let t = Tensor::zeros(&[2, 2]).unwrap();
        let mut buf = to_binary(&t);
        buf.truncate(buf.len() - 1);
        assert!(from_binary(&buf).is_err());
    }

    #[test]
    fn binary_size_is_four_bytes_per_param_plus_header() {
        // A 44 MB model is ~11.4M params: size must be 4*n + small header.
        let t = Tensor::zeros(&[1000]).unwrap();
        assert_eq!(binary_size(&t), 8 + 4 + 4000);
    }

    #[test]
    fn js_text_roundtrip() {
        let t = Tensor::from_vec(&[4], vec![0.5, -1.25, 3.0e-8, 123456.0]).unwrap();
        let text = to_js_text(&t);
        let back = from_js_text(&text).unwrap();
        assert_eq!(back, t.data());
    }

    #[test]
    fn js_text_handles_non_finite() {
        let t = Tensor::from_vec(&[3], vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY]).unwrap();
        let back = from_js_text(&to_js_text(&t)).unwrap();
        assert!(back[0].is_nan());
        assert_eq!(back[1], f32::INFINITY);
        assert_eq!(back[2], f32::NEG_INFINITY);
    }

    #[test]
    fn js_text_size_matches_actual() {
        let t =
            Tensor::from_fn(&[257], |i| ((i * 2654435761) % 10000) as f32 / 7.0 - 500.0).unwrap();
        assert_eq!(js_text_size(&t), to_js_text(&t).len());
    }

    #[test]
    fn js_text_much_larger_than_binary_for_activations() {
        // The crux of the paper's Fig. 8 size analysis: text-serialized
        // activations cost several times their binary size.
        let t = Tensor::from_fn(&[10_000], |i| {
            // Typical post-conv activations: small non-round reals.
            (((i * 2654435761) % 100_000) as f32 / 100_000.0 - 0.3) * 4.7
        })
        .unwrap();
        let per_elem = js_bytes_per_element(&t);
        assert!(
            per_elem > 8.0 && per_elem < 22.0,
            "bytes/element = {per_elem}"
        );
        assert!(js_text_size(&t) > 2 * binary_size(&t));
    }

    #[test]
    fn empty_array_text() {
        // from_js_text on a literal with no elements.
        assert_eq!(
            from_js_text("new Float32Array([])").unwrap(),
            Vec::<f32>::new()
        );
        assert!(from_js_text("var x = 3").is_err());
    }
}
