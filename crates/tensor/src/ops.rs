//! CNN kernels: the exact set of operations used by GoogLeNet and the
//! Levi–Hassner Age/Gender networks (the paper's three benchmark apps).
//!
//! All feature maps are `CHW` ([`Shape::is_chw`](crate::Shape::is_chw)),
//! convolution weights are `OIHW`, and every kernel validates its inputs
//! (C-VALIDATE) so that the DNN crate's graph executor can surface precise
//! errors.

use crate::{Tensor, TensorError};

/// Output spatial size of a convolution/pooling window:
/// `floor((input + 2*pad - kernel) / stride) + 1`.
///
/// Returns `None` when the window does not fit even once, or the padded
/// size overflows.
pub fn window_output(input: usize, kernel: usize, stride: usize, pad: usize) -> Option<usize> {
    if stride == 0 || kernel == 0 {
        return None;
    }
    let padded = pad.checked_mul(2)?.checked_add(input)?;
    if padded < kernel {
        return None;
    }
    Some((padded - kernel) / stride + 1)
}

/// Pooling output size in Caffe's *ceil* convention, which GoogLeNet's
/// reference prototxt uses: `ceil((input + 2*pad - kernel) / stride) + 1`,
/// clipped so the last window starts inside the padded input.
pub fn pool_output_ceil(input: usize, kernel: usize, stride: usize, pad: usize) -> Option<usize> {
    if stride == 0 || kernel == 0 {
        return None;
    }
    let padded = pad.checked_mul(2)?.checked_add(input)?;
    if padded < kernel {
        return None;
    }
    let mut out = (padded - kernel).div_ceil(stride) + 1;
    if pad > 0 && (out - 1) * stride >= input + pad {
        out -= 1;
    }
    Some(out)
}

fn require_chw(op: &'static str, t: &Tensor) -> Result<(), TensorError> {
    if t.shape().rank() != 3 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 3,
            actual: t.shape().rank(),
        });
    }
    Ok(())
}

/// 2-D convolution with square stride/padding and optional channel groups
/// (Caffe `group`, used by the Levi–Hassner nets inherited from AlexNet).
///
/// * `input`: `[C_in, H, W]`
/// * `weights`: `[C_out, C_in / groups, KH, KW]`
/// * `bias`: `[C_out]`
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] or [`TensorError::InvalidKernel`]
/// when shapes or hyper-parameters are inconsistent.
pub fn conv2d_grouped(
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
    groups: usize,
) -> Result<Tensor, TensorError> {
    require_chw("conv2d", input)?;
    if weights.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d",
            expected: 4,
            actual: weights.shape().rank(),
        });
    }
    let [c_in, h, w] = [
        input.shape().dims()[0],
        input.shape().dims()[1],
        input.shape().dims()[2],
    ];
    let [c_out, wc_in, kh, kw] = [
        weights.shape().dims()[0],
        weights.shape().dims()[1],
        weights.shape().dims()[2],
        weights.shape().dims()[3],
    ];
    if groups == 0 || c_in % groups != 0 || c_out % groups != 0 {
        return Err(TensorError::InvalidKernel {
            op: "conv2d",
            reason: format!("groups {groups} must divide c_in {c_in} and c_out {c_out}"),
        });
    }
    if wc_in != c_in / groups {
        return Err(TensorError::InvalidKernel {
            op: "conv2d",
            reason: format!(
                "weight in-channels {wc_in} != input channels {c_in} / groups {groups}"
            ),
        });
    }
    if bias.len() != c_out {
        return Err(TensorError::InvalidKernel {
            op: "conv2d",
            reason: format!("bias length {} != out channels {c_out}", bias.len()),
        });
    }
    let oh = window_output(h, kh, stride, pad).ok_or_else(|| TensorError::InvalidKernel {
        op: "conv2d",
        reason: format!("kernel {kh}x{kw} stride {stride} pad {pad} does not fit {h}x{w}"),
    })?;
    let ow = window_output(w, kw, stride, pad).ok_or_else(|| TensorError::InvalidKernel {
        op: "conv2d",
        reason: format!("kernel {kh}x{kw} stride {stride} pad {pad} does not fit {h}x{w}"),
    })?;

    let in_data = input.data();
    let w_data = weights.data();
    let b_data = bias.data();
    let mut out = vec![0f32; c_out * oh * ow];
    let cg_in = c_in / groups; // channels per group, input side
    let cg_out = c_out / groups;

    for oc in 0..c_out {
        let g = oc / cg_out;
        let in_base_c = g * cg_in;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = b_data[oc];
                // Top-left corner of the receptive field in padded coords.
                let iy0 = (oy * stride) as isize - pad as isize;
                let ix0 = (ox * stride) as isize - pad as isize;
                for ic in 0..cg_in {
                    let in_c = in_base_c + ic;
                    let in_plane = in_c * h * w;
                    let w_plane = ((oc * cg_in) + ic) * kh * kw;
                    for ky in 0..kh {
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let in_row = in_plane + iy as usize * w;
                        let w_row = w_plane + ky * kw;
                        for kx in 0..kw {
                            let ix = ix0 + kx as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            acc += in_data[in_row + ix as usize] * w_data[w_row + kx];
                        }
                    }
                }
                out[(oc * oh + oy) * ow + ox] = acc;
            }
        }
    }
    Tensor::from_vec(&[c_out, oh, ow], out)
}

/// 2-D convolution without channel groups. See [`conv2d_grouped`].
///
/// # Errors
///
/// Same conditions as [`conv2d_grouped`].
pub fn conv2d(
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
) -> Result<Tensor, TensorError> {
    conv2d_grouped(input, weights, bias, stride, pad, 1)
}

/// 2-D convolution via **im2col + matrix multiply** — the lowering Caffe
/// (and therefore Caffe.js) uses. Produces results identical to
/// [`conv2d_grouped`] (up to floating-point association) several times
/// faster for realistic layer shapes; the DNN engine's real-execution mode
/// uses this path.
///
/// # Errors
///
/// Same conditions as [`conv2d_grouped`].
pub fn conv2d_im2col(
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
    groups: usize,
) -> Result<Tensor, TensorError> {
    require_chw("conv2d", input)?;
    if weights.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d",
            expected: 4,
            actual: weights.shape().rank(),
        });
    }
    let [c_in, h, w] = [
        input.shape().dims()[0],
        input.shape().dims()[1],
        input.shape().dims()[2],
    ];
    let [c_out, wc_in, kh, kw] = [
        weights.shape().dims()[0],
        weights.shape().dims()[1],
        weights.shape().dims()[2],
        weights.shape().dims()[3],
    ];
    if groups == 0 || c_in % groups != 0 || c_out % groups != 0 {
        return Err(TensorError::InvalidKernel {
            op: "conv2d",
            reason: format!("groups {groups} must divide c_in {c_in} and c_out {c_out}"),
        });
    }
    if wc_in != c_in / groups {
        return Err(TensorError::InvalidKernel {
            op: "conv2d",
            reason: format!(
                "weight in-channels {wc_in} != input channels {c_in} / groups {groups}"
            ),
        });
    }
    if bias.len() != c_out {
        return Err(TensorError::InvalidKernel {
            op: "conv2d",
            reason: format!("bias length {} != out channels {c_out}", bias.len()),
        });
    }
    let oh = window_output(h, kh, stride, pad).ok_or_else(|| TensorError::InvalidKernel {
        op: "conv2d",
        reason: format!("kernel {kh}x{kw} stride {stride} pad {pad} does not fit {h}x{w}"),
    })?;
    let ow = window_output(w, kw, stride, pad).ok_or_else(|| TensorError::InvalidKernel {
        op: "conv2d",
        reason: format!("kernel {kh}x{kw} stride {stride} pad {pad} does not fit {h}x{w}"),
    })?;

    let in_data = input.data();
    let w_data = weights.data();
    let b_data = bias.data();
    let cg_in = c_in / groups;
    let cg_out = c_out / groups;
    let patch = cg_in * kh * kw; // rows of the column matrix
    let cols = oh * ow;
    let mut col = vec![0f32; patch * cols];
    let mut out = vec![0f32; c_out * cols];

    for g in 0..groups {
        // ---- im2col: unfold the group's receptive fields.
        for ic in 0..cg_in {
            let plane = (g * cg_in + ic) * h * w;
            for ky in 0..kh {
                for kx in 0..kw {
                    let row = ((ic * kh + ky) * kw + kx) * cols;
                    for oy in 0..oh {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        let dst = row + oy * ow;
                        if iy < 0 || iy >= h as isize {
                            col[dst..dst + ow].fill(0.0);
                            continue;
                        }
                        let src_row = plane + iy as usize * w;
                        for ox in 0..ow {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            col[dst + ox] = if ix < 0 || ix >= w as isize {
                                0.0
                            } else {
                                in_data[src_row + ix as usize]
                            };
                        }
                    }
                }
            }
        }
        // ---- GEMM: out[oc] = W[oc] * col + b[oc].
        for oc_local in 0..cg_out {
            let oc = g * cg_out + oc_local;
            let out_row = oc * cols;
            out[out_row..out_row + cols].fill(b_data[oc]);
            let w_row = oc * patch;
            for k in 0..patch {
                let wv = w_data[w_row + k];
                if wv == 0.0 {
                    continue;
                }
                let col_row = k * cols;
                let (dst, src) = (
                    &mut out[out_row..out_row + cols],
                    &col[col_row..col_row + cols],
                );
                for (d, s) in dst.iter_mut().zip(src) {
                    *d += wv * s;
                }
            }
        }
    }
    Tensor::from_vec(&[c_out, oh, ow], out)
}

/// Which statistic a pooling window computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Maximum over the window (the paper's `pool` layers).
    Max,
    /// Arithmetic mean over valid (non-padding) elements — GoogLeNet's
    /// global average pool before the classifier.
    Average,
}

/// 2-D pooling over a `CHW` feature map using Caffe's ceil-mode output size.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] or [`TensorError::InvalidKernel`].
pub fn pool2d(
    input: &Tensor,
    kind: PoolKind,
    kernel: usize,
    stride: usize,
    pad: usize,
) -> Result<Tensor, TensorError> {
    require_chw("pool2d", input)?;
    let [c, h, w] = [
        input.shape().dims()[0],
        input.shape().dims()[1],
        input.shape().dims()[2],
    ];
    let oh =
        pool_output_ceil(h, kernel, stride, pad).ok_or_else(|| TensorError::InvalidKernel {
            op: "pool2d",
            reason: format!("kernel {kernel} stride {stride} pad {pad} does not fit {h}x{w}"),
        })?;
    let ow =
        pool_output_ceil(w, kernel, stride, pad).ok_or_else(|| TensorError::InvalidKernel {
            op: "pool2d",
            reason: format!("kernel {kernel} stride {stride} pad {pad} does not fit {h}x{w}"),
        })?;

    let data = input.data();
    let mut out = vec![0f32; c * oh * ow];
    for ch in 0..c {
        let plane = ch * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let iy0 = (oy * stride) as isize - pad as isize;
                let ix0 = (ox * stride) as isize - pad as isize;
                let mut best = f32::NEG_INFINITY;
                let mut sum = 0f32;
                let mut count = 0usize;
                for ky in 0..kernel {
                    let iy = iy0 + ky as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..kernel {
                        let ix = ix0 + kx as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        let v = data[plane + iy as usize * w + ix as usize];
                        best = best.max(v);
                        sum += v;
                        count += 1;
                    }
                }
                out[(ch * oh + oy) * ow + ox] = match kind {
                    PoolKind::Max => {
                        if count == 0 {
                            0.0
                        } else {
                            best
                        }
                    }
                    PoolKind::Average => {
                        if count == 0 {
                            0.0
                        } else {
                            sum / count as f32
                        }
                    }
                };
            }
        }
    }
    Tensor::from_vec(&[c, oh, ow], out)
}

/// Rectified linear unit, elementwise `max(0, x)`.
pub fn relu(input: &Tensor) -> Tensor {
    input.map(|x| x.max(0.0))
}

/// Local response normalization across channels (Caffe `LRN`,
/// `ACROSS_CHANNELS`), as used by GoogLeNet and the Levi–Hassner nets:
///
/// `out[c] = in[c] / (k + alpha/n * sum_{c' in window} in[c']^2)^beta`
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-`CHW` input or
/// [`TensorError::InvalidKernel`] for a zero window.
pub fn lrn(
    input: &Tensor,
    local_size: usize,
    alpha: f32,
    beta: f32,
    k: f32,
) -> Result<Tensor, TensorError> {
    require_chw("lrn", input)?;
    if local_size == 0 {
        return Err(TensorError::InvalidKernel {
            op: "lrn",
            reason: "local_size must be >= 1".to_string(),
        });
    }
    let [c, h, w] = [
        input.shape().dims()[0],
        input.shape().dims()[1],
        input.shape().dims()[2],
    ];
    let data = input.data();
    let half = local_size / 2;
    let mut out = vec![0f32; data.len()];
    for y in 0..h {
        for x in 0..w {
            for ch in 0..c {
                let lo = ch.saturating_sub(half);
                let hi = (ch + half).min(c - 1);
                let mut sq = 0f32;
                for cc in lo..=hi {
                    let v = data[(cc * h + y) * w + x];
                    sq += v * v;
                }
                let denom = (k + alpha / local_size as f32 * sq).powf(beta);
                let idx = (ch * h + y) * w + x;
                out[idx] = data[idx] / denom;
            }
        }
    }
    Tensor::from_vec(&[c, h, w], out)
}

/// Fully-connected (inner product) layer: flattens the input and computes
/// `weights * x + bias`.
///
/// * `weights`: `[out_features, in_features]`
/// * `bias`: `[out_features]`
///
/// # Errors
///
/// Returns [`TensorError::InvalidKernel`] when `in_features` does not match
/// the flattened input volume or the bias length differs from
/// `out_features`.
pub fn fully_connected(
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
) -> Result<Tensor, TensorError> {
    if weights.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "fully_connected",
            expected: 2,
            actual: weights.shape().rank(),
        });
    }
    let out_f = weights.shape().dims()[0];
    let in_f = weights.shape().dims()[1];
    if input.len() != in_f {
        return Err(TensorError::InvalidKernel {
            op: "fully_connected",
            reason: format!("input volume {} != weight in-features {in_f}", input.len()),
        });
    }
    if bias.len() != out_f {
        return Err(TensorError::InvalidKernel {
            op: "fully_connected",
            reason: format!("bias length {} != out-features {out_f}", bias.len()),
        });
    }
    let x = input.data();
    let w = weights.data();
    let b = bias.data();
    let mut out = vec![0f32; out_f];
    for (o, out_v) in out.iter_mut().enumerate() {
        let row = &w[o * in_f..(o + 1) * in_f];
        let mut acc = b[o];
        for (xi, wi) in x.iter().zip(row) {
            acc += xi * wi;
        }
        *out_v = acc;
    }
    Tensor::from_vec(&[out_f], out)
}

/// Concatenates `CHW` feature maps along the channel axis — the join at the
/// end of every GoogLeNet inception module.
///
/// # Errors
///
/// Returns [`TensorError::InvalidKernel`] for an empty input list and
/// [`TensorError::ShapeMismatch`] when spatial dims disagree.
pub fn concat_channels(inputs: &[&Tensor]) -> Result<Tensor, TensorError> {
    let first = inputs.first().ok_or_else(|| TensorError::InvalidKernel {
        op: "concat_channels",
        reason: "at least one input required".to_string(),
    })?;
    require_chw("concat_channels", first)?;
    let h = first.shape().dims()[1];
    let w = first.shape().dims()[2];
    let mut total_c = 0;
    for t in inputs {
        require_chw("concat_channels", t)?;
        if t.shape().dims()[1] != h || t.shape().dims()[2] != w {
            return Err(TensorError::ShapeMismatch {
                left: first.shape().dims().to_vec(),
                right: t.shape().dims().to_vec(),
            });
        }
        total_c += t.shape().dims()[0];
    }
    let mut data = Vec::with_capacity(total_c * h * w);
    for t in inputs {
        data.extend_from_slice(t.data());
    }
    Tensor::from_vec(&[total_c, h, w], data)
}

/// Numerically-stable softmax over a rank-1 tensor (the classifier output).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for inputs of rank != 1.
pub fn softmax(input: &Tensor) -> Result<Tensor, TensorError> {
    if input.shape().rank() != 1 {
        return Err(TensorError::RankMismatch {
            op: "softmax",
            expected: 1,
            actual: input.shape().rank(),
        });
    }
    let m = input.max();
    let exps: Vec<f32> = input.data().iter().map(|&x| (x - m).exp()).collect();
    let sum: f32 = exps.iter().sum();
    Tensor::from_vec(
        input.shape().dims(),
        exps.iter().map(|&e| e / sum).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(dims: &[usize], data: Vec<f32>) -> Tensor {
        Tensor::from_vec(dims, data).unwrap()
    }

    #[test]
    fn window_output_matches_formula() {
        // GoogLeNet conv1: 224 input, 7x7 kernel, stride 2, pad 3 -> 112.
        assert_eq!(window_output(224, 7, 2, 3), Some(112));
        // AgeNet conv1: 227 input, 7x7, stride 4, pad 0 -> 56.
        assert_eq!(window_output(227, 7, 4, 0), Some(56));
        assert_eq!(window_output(2, 5, 1, 0), None);
        assert_eq!(window_output(5, 3, 0, 0), None);
    }

    #[test]
    fn pool_output_ceil_matches_caffe() {
        // GoogLeNet pool1: 112 input, 3x3, stride 2, pad 0 -> ceil -> 56.
        assert_eq!(pool_output_ceil(112, 3, 2, 0), Some(56));
        // AgeNet pool1: 56 input, 3x3, stride 2 -> 28 (ceil of 26.5 + 1).
        assert_eq!(pool_output_ceil(56, 3, 2, 0), Some(28));
        // 7x7 global average pool on 7x7 -> 1.
        assert_eq!(pool_output_ceil(7, 7, 1, 0), Some(1));
    }

    #[test]
    fn conv2d_identity_kernel() {
        // 1x1 kernel with weight 1 reproduces the input.
        let input = t(&[1, 3, 3], (0..9).map(|i| i as f32).collect());
        let w = t(&[1, 1, 1, 1], vec![1.0]);
        let b = Tensor::zeros(&[1]).unwrap();
        let out = conv2d(&input, &w, &b, 1, 0).unwrap();
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn conv2d_known_values() {
        // 2x2 input, 2x2 kernel of ones, no pad: output = sum of all = 10.
        let input = t(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let w = t(&[1, 1, 2, 2], vec![1.0; 4]);
        let b = t(&[1], vec![0.5]);
        let out = conv2d(&input, &w, &b, 1, 0).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 1]);
        assert_eq!(out.data()[0], 10.5);
    }

    #[test]
    fn conv2d_padding_zero_extends() {
        let input = t(&[1, 1, 1], vec![2.0]);
        let w = t(&[1, 1, 3, 3], vec![1.0; 9]);
        let b = Tensor::zeros(&[1]).unwrap();
        let out = conv2d(&input, &w, &b, 1, 1).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 1]);
        // Only the center of the padded field is non-zero.
        assert_eq!(out.data()[0], 2.0);
    }

    #[test]
    fn conv2d_stride_subsamples() {
        let input = t(&[1, 4, 4], (0..16).map(|i| i as f32).collect());
        let w = t(&[1, 1, 1, 1], vec![1.0]);
        let b = Tensor::zeros(&[1]).unwrap();
        let out = conv2d(&input, &w, &b, 2, 0).unwrap();
        assert_eq!(out.shape().dims(), &[1, 2, 2]);
        assert_eq!(out.data(), &[0.0, 2.0, 8.0, 10.0]);
    }

    #[test]
    fn conv2d_multi_channel_sums_channels() {
        let input = t(&[2, 1, 1], vec![3.0, 4.0]);
        let w = t(&[1, 2, 1, 1], vec![1.0, 10.0]);
        let b = Tensor::zeros(&[1]).unwrap();
        let out = conv2d(&input, &w, &b, 1, 0).unwrap();
        assert_eq!(out.data()[0], 3.0 + 40.0);
    }

    #[test]
    fn conv2d_grouped_isolates_groups() {
        // groups=2: first output channel only sees first input channel.
        let input = t(&[2, 1, 1], vec![3.0, 4.0]);
        let w = t(&[2, 1, 1, 1], vec![1.0, 1.0]);
        let b = Tensor::zeros(&[2]).unwrap();
        let out = conv2d_grouped(&input, &w, &b, 1, 0, 2).unwrap();
        assert_eq!(out.data(), &[3.0, 4.0]);
    }

    #[test]
    fn conv2d_rejects_bad_shapes() {
        let input = t(&[1, 2, 2], vec![0.0; 4]);
        let w = t(&[1, 2, 1, 1], vec![0.0; 2]); // wrong in-channels
        let b = Tensor::zeros(&[1]).unwrap();
        assert!(conv2d(&input, &w, &b, 1, 0).is_err());
        let w2 = t(&[2, 1, 1, 1], vec![0.0; 2]);
        let b_short = Tensor::zeros(&[1]).unwrap(); // wrong bias length
        assert!(conv2d(&input, &w2, &b_short, 1, 0).is_err());
    }

    #[test]
    fn im2col_matches_naive_conv() {
        let input = Tensor::from_fn(&[3, 9, 7], |i| ((i * 31) % 101) as f32 / 50.0 - 1.0).unwrap();
        let weights =
            Tensor::from_fn(&[4, 3, 3, 3], |i| ((i * 17) % 23) as f32 / 11.0 - 1.0).unwrap();
        let bias = Tensor::from_vec(&[4], vec![0.1, -0.2, 0.3, 0.0]).unwrap();
        for (stride, pad) in [(1, 0), (1, 1), (2, 1), (3, 2)] {
            let naive = conv2d(&input, &weights, &bias, stride, pad).unwrap();
            let fast = conv2d_im2col(&input, &weights, &bias, stride, pad, 1).unwrap();
            assert!(
                naive.approx_eq(&fast, 1e-4).unwrap(),
                "stride {stride} pad {pad}"
            );
        }
    }

    #[test]
    fn im2col_matches_naive_grouped_conv() {
        let input = Tensor::from_fn(&[4, 6, 6], |i| ((i * 7) % 19) as f32 / 9.0 - 1.0).unwrap();
        let weights =
            Tensor::from_fn(&[6, 2, 3, 3], |i| ((i * 13) % 29) as f32 / 14.0 - 1.0).unwrap();
        let bias = Tensor::zeros(&[6]).unwrap();
        let naive = conv2d_grouped(&input, &weights, &bias, 1, 1, 2).unwrap();
        let fast = conv2d_im2col(&input, &weights, &bias, 1, 1, 2).unwrap();
        assert!(naive.approx_eq(&fast, 1e-4).unwrap());
    }

    #[test]
    fn im2col_rejects_the_same_bad_inputs() {
        let input = Tensor::zeros(&[1, 2, 2]).unwrap();
        let w = Tensor::zeros(&[1, 2, 1, 1]).unwrap(); // wrong in-channels
        let b = Tensor::zeros(&[1]).unwrap();
        assert!(conv2d_im2col(&input, &w, &b, 1, 0, 1).is_err());
        let w2 = Tensor::zeros(&[2, 1, 1, 1]).unwrap();
        assert!(conv2d_im2col(&input, &w2, &b, 1, 0, 3).is_err()); // bad groups
    }

    #[test]
    fn maxpool_picks_maximum() {
        let input = t(&[1, 2, 2], vec![1.0, 5.0, 3.0, 2.0]);
        let out = pool2d(&input, PoolKind::Max, 2, 2, 0).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 1]);
        assert_eq!(out.data()[0], 5.0);
    }

    #[test]
    fn maxpool_output_never_exceeds_input_max() {
        let input = Tensor::from_fn(&[3, 8, 8], |i| ((i * 37) % 100) as f32 / 10.0).unwrap();
        let out = pool2d(&input, PoolKind::Max, 3, 2, 0).unwrap();
        assert!(out.max() <= input.max());
    }

    #[test]
    fn avgpool_averages() {
        let input = t(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let out = pool2d(&input, PoolKind::Average, 2, 2, 0).unwrap();
        assert_eq!(out.data()[0], 2.5);
    }

    #[test]
    fn pool_reduces_feature_volume() {
        // The paper's privacy argument: pool layers shrink feature data.
        let input = Tensor::zeros(&[64, 112, 112]).unwrap();
        let out = pool2d(&input, PoolKind::Max, 3, 2, 0).unwrap();
        assert_eq!(out.shape().dims(), &[64, 56, 56]);
        assert!(out.len() < input.len());
    }

    #[test]
    fn relu_clamps_negatives() {
        let input = t(&[3], vec![-1.0, 0.0, 2.0]);
        assert_eq!(relu(&input).data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn lrn_preserves_shape_and_normalizes() {
        let input = Tensor::filled(&[4, 2, 2], 1.0).unwrap();
        let out = lrn(&input, 5, 0.0001, 0.75, 1.0).unwrap();
        assert_eq!(out.shape(), input.shape());
        // With tiny alpha the output is close to (but below) the input.
        assert!(out.data().iter().all(|&v| v > 0.99 && v <= 1.0));
    }

    #[test]
    fn lrn_suppresses_high_energy_neighborhoods() {
        let weak = lrn(&Tensor::filled(&[8, 1, 1], 1.0).unwrap(), 5, 1.0, 0.75, 1.0).unwrap();
        let strong = lrn(
            &Tensor::filled(&[8, 1, 1], 10.0).unwrap(),
            5,
            1.0,
            0.75,
            1.0,
        )
        .unwrap();
        // Normalized ratio shrinks as activations grow.
        assert!(strong.data()[0] / 10.0 < weak.data()[0] / 1.0);
    }

    #[test]
    fn fully_connected_known_values() {
        let x = t(&[3], vec![1.0, 2.0, 3.0]);
        let w = t(&[2, 3], vec![1.0, 0.0, 0.0, 0.0, 1.0, 1.0]);
        let b = t(&[2], vec![0.0, 10.0]);
        let out = fully_connected(&x, &w, &b).unwrap();
        assert_eq!(out.data(), &[1.0, 15.0]);
    }

    #[test]
    fn fully_connected_flattens_chw_input() {
        let x = Tensor::filled(&[2, 2, 2], 1.0).unwrap();
        let w = Tensor::filled(&[1, 8], 1.0).unwrap();
        let b = Tensor::zeros(&[1]).unwrap();
        assert_eq!(fully_connected(&x, &w, &b).unwrap().data()[0], 8.0);
    }

    #[test]
    fn fully_connected_rejects_mismatch() {
        let x = t(&[3], vec![0.0; 3]);
        let w = t(&[2, 4], vec![0.0; 8]);
        let b = Tensor::zeros(&[2]).unwrap();
        assert!(fully_connected(&x, &w, &b).is_err());
    }

    #[test]
    fn concat_stacks_channels() {
        let a = Tensor::filled(&[2, 3, 3], 1.0).unwrap();
        let b = Tensor::filled(&[3, 3, 3], 2.0).unwrap();
        let out = concat_channels(&[&a, &b]).unwrap();
        assert_eq!(out.shape().dims(), &[5, 3, 3]);
        assert_eq!(out.data()[0], 1.0);
        assert_eq!(out.data()[2 * 9], 2.0);
    }

    #[test]
    fn concat_rejects_spatial_mismatch() {
        let a = Tensor::zeros(&[1, 2, 2]).unwrap();
        let b = Tensor::zeros(&[1, 3, 3]).unwrap();
        assert!(concat_channels(&[&a, &b]).is_err());
        assert!(concat_channels(&[]).is_err());
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let x = t(&[3], vec![1.0, 3.0, 2.0]);
        let s = softmax(&x).unwrap();
        let sum: f32 = s.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert_eq!(s.argmax(), 1);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let x = t(&[2], vec![1000.0, 1001.0]);
        let s = softmax(&x).unwrap();
        assert!(s.data().iter().all(|v| v.is_finite()));
    }
}
