//! Layer operations and their static metadata (output shape, FLOPs,
//! parameter counts).
//!
//! The FLOP model follows the convention used by Neurosurgeon [16] and most
//! of the systems literature: one multiply-accumulate = 2 FLOPs. FLOP counts
//! feed the device latency model in `snapedge-core`, which is how the
//! client/server execution times of Figs. 6–8 are derived.

use crate::DnnError;
use snapedge_tensor::{ops, Shape};

pub use snapedge_tensor::ops::PoolKind;

/// A layer operation. `Op` carries hyper-parameters only; learned
/// parameters live in a [`ParamStore`](crate::ParamStore).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// The network input (exactly one per network, always node 0).
    Input,
    /// 2-D convolution (square kernel).
    Conv {
        /// Number of output channels (filters).
        out_channels: usize,
        /// Kernel side length.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding on each side.
        pad: usize,
        /// Channel groups (Caffe `group`; 1 for ungrouped).
        groups: usize,
    },
    /// Rectified linear unit.
    Relu,
    /// 2-D pooling.
    Pool {
        /// Max or average.
        kind: PoolKind,
        /// Window side length.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding on each side.
        pad: usize,
    },
    /// Local response normalization across channels.
    Lrn {
        /// Window size across channels.
        local_size: usize,
        /// Scaling parameter.
        alpha: f32,
        /// Exponent.
        beta: f32,
        /// Bias constant.
        k: f32,
    },
    /// Fully-connected (inner product).
    Fc {
        /// Number of output features.
        out_features: usize,
    },
    /// Dropout — a no-op at inference time, kept so layer graphs match the
    /// published architectures (and so FLOPs/params line up with Caffe's).
    Dropout {
        /// Training-time drop ratio (unused at inference).
        ratio: f32,
    },
    /// Channel-wise concatenation (joins inception branches).
    Concat,
    /// Softmax classifier output.
    Softmax,
}

impl Op {
    /// Short Caffe-style type tag, used by the model description format.
    pub fn type_tag(&self) -> &'static str {
        match self {
            Op::Input => "input",
            Op::Conv { .. } => "conv",
            Op::Relu => "relu",
            Op::Pool {
                kind: PoolKind::Max,
                ..
            } => "maxpool",
            Op::Pool {
                kind: PoolKind::Average,
                ..
            } => "avgpool",
            Op::Lrn { .. } => "lrn",
            Op::Fc { .. } => "fc",
            Op::Dropout { .. } => "dropout",
            Op::Concat => "concat",
            Op::Softmax => "softmax",
        }
    }

    /// `true` for ops that carry learned parameters (conv and fc).
    pub fn has_params(&self) -> bool {
        matches!(self, Op::Conv { .. } | Op::Fc { .. })
    }

    /// Output shape for the given input shapes.
    ///
    /// All ops except [`Op::Concat`] take exactly one input.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::Build`] when the input shapes are incompatible
    /// with the op.
    pub fn output_shape(&self, inputs: &[&Shape]) -> Result<Shape, DnnError> {
        let one = |op: &str| -> Result<&Shape, DnnError> {
            if inputs.len() != 1 {
                return Err(DnnError::Build(format!(
                    "{op} takes exactly one input, got {}",
                    inputs.len()
                )));
            }
            Ok(inputs[0])
        };
        match self {
            Op::Input => Ok(one("input")?.clone()),
            Op::Conv {
                out_channels,
                kernel,
                stride,
                pad,
                groups,
            } => {
                let s = one("conv")?;
                if s.rank() != 3 {
                    return Err(DnnError::Build(format!(
                        "conv requires CHW input, got rank {}",
                        s.rank()
                    )));
                }
                let (c, h, w) = (s.dims()[0], s.dims()[1], s.dims()[2]);
                if *groups == 0 || c % groups != 0 || out_channels % groups != 0 {
                    return Err(DnnError::Build(format!(
                        "conv groups {groups} must divide in {c} and out {out_channels}"
                    )));
                }
                let oh = ops::window_output(h, *kernel, *stride, *pad).ok_or_else(|| {
                    DnnError::Build(format!("conv kernel {kernel} does not fit input {h}x{w}"))
                })?;
                let ow = ops::window_output(w, *kernel, *stride, *pad).ok_or_else(|| {
                    DnnError::Build(format!("conv kernel {kernel} does not fit input {h}x{w}"))
                })?;
                Ok(Shape::new(&[*out_channels, oh, ow])?)
            }
            Op::Relu | Op::Dropout { .. } | Op::Lrn { .. } => Ok(one(self.type_tag())?.clone()),
            Op::Pool {
                kernel,
                stride,
                pad,
                ..
            } => {
                let s = one("pool")?;
                if s.rank() != 3 {
                    return Err(DnnError::Build(format!(
                        "pool requires CHW input, got rank {}",
                        s.rank()
                    )));
                }
                let (c, h, w) = (s.dims()[0], s.dims()[1], s.dims()[2]);
                let oh = ops::pool_output_ceil(h, *kernel, *stride, *pad).ok_or_else(|| {
                    DnnError::Build(format!("pool kernel {kernel} does not fit input {h}x{w}"))
                })?;
                let ow = ops::pool_output_ceil(w, *kernel, *stride, *pad).ok_or_else(|| {
                    DnnError::Build(format!("pool kernel {kernel} does not fit input {h}x{w}"))
                })?;
                Ok(Shape::new(&[c, oh, ow])?)
            }
            Op::Fc { out_features } => {
                let _ = one("fc")?;
                Ok(Shape::new(&[*out_features])?)
            }
            Op::Concat => {
                if inputs.is_empty() {
                    return Err(DnnError::Build("concat needs at least one input".into()));
                }
                let mut c = 0usize;
                let mut spatial = None;
                for s in inputs {
                    let &[channels, h, w] = s.dims() else {
                        return Err(DnnError::Build(format!(
                            "concat inputs must be CHW with equal spatial dims, got {s}"
                        )));
                    };
                    if *spatial.get_or_insert((h, w)) != (h, w) {
                        return Err(DnnError::Build(format!(
                            "concat inputs must be CHW with equal spatial dims, got {s}"
                        )));
                    }
                    c = c.checked_add(channels).ok_or_else(|| {
                        DnnError::Build(format!("concat channel count overflows at {s}"))
                    })?;
                }
                let (h, w) = spatial.unwrap_or((1, 1));
                Ok(Shape::new(&[c, h, w])?)
            }
            Op::Softmax => {
                let s = one("softmax")?;
                Ok(Shape::new(&[s.volume()])?)
            }
        }
    }

    /// Forward-pass FLOPs for the given input/output shapes
    /// (1 MAC = 2 FLOPs), or `None` when they do not fit in a `u64` (a
    /// built [`Network`](crate::Network) has no layer whose FLOPs do not).
    pub fn flops(&self, inputs: &[&Shape], output: &Shape) -> Option<u64> {
        let out = output.volume() as u64;
        let window = |kernel: usize| (kernel as u64).checked_mul(kernel as u64);
        match self {
            Op::Input | Op::Dropout { .. } => Some(0),
            Op::Conv { kernel, groups, .. } => {
                let c_in = inputs[0].dims()[0];
                let macs = out
                    .checked_mul((c_in / groups) as u64)?
                    .checked_mul(window(*kernel)?)?;
                macs.checked_mul(2)
            }
            Op::Relu | Op::Concat => Some(out), // a concat is a copy
            Op::Pool { kernel, .. } => out.checked_mul(window(*kernel)?),
            Op::Lrn { local_size, .. } => {
                // square + accumulate per window element, plus pow + div.
                let per_element = (*local_size as u64).checked_mul(2)?.checked_add(4)?;
                (inputs[0].volume() as u64).checked_mul(per_element)
            }
            Op::Fc { .. } => (inputs[0].volume() as u64).checked_mul(out)?.checked_mul(2),
            Op::Softmax => out.checked_mul(5),
        }
    }

    /// Number of learned parameters (weights + bias), or `None` when it
    /// does not fit in a `u64` (a built [`Network`](crate::Network) has no
    /// layer whose count does not).
    pub fn param_count(&self, inputs: &[&Shape]) -> Option<u64> {
        let (weights_per_output, outputs) = match self {
            Op::Conv {
                out_channels,
                kernel,
                groups,
                ..
            } => {
                let c_in = inputs[0].dims()[0];
                let window = (*kernel as u64).checked_mul(*kernel as u64)?;
                (((c_in / groups) as u64).checked_mul(window)?, *out_channels)
            }
            Op::Fc { out_features } => (inputs[0].volume() as u64, *out_features),
            _ => return Some(0),
        };
        // One bias per output.
        let outputs = outputs as u64;
        outputs
            .checked_mul(weights_per_output)?
            .checked_add(outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(dims: &[usize]) -> Shape {
        Shape::new(dims).unwrap()
    }

    #[test]
    fn conv_output_shape_googlenet_stem() {
        let op = Op::Conv {
            out_channels: 64,
            kernel: 7,
            stride: 2,
            pad: 3,
            groups: 1,
        };
        let input = shape(&[3, 224, 224]);
        let out = op.output_shape(&[&input]).unwrap();
        assert_eq!(out.dims(), &[64, 112, 112]);
    }

    #[test]
    fn pool_output_shape_googlenet_pool1() {
        let op = Op::Pool {
            kind: PoolKind::Max,
            kernel: 3,
            stride: 2,
            pad: 0,
        };
        let input = shape(&[64, 112, 112]);
        let out = op.output_shape(&[&input]).unwrap();
        // The paper's Fig. 1: (56x56x64) after the first pool.
        assert_eq!(out.dims(), &[64, 56, 56]);
    }

    #[test]
    fn concat_output_sums_channels() {
        let op = Op::Concat;
        let a = shape(&[64, 28, 28]);
        let b = shape(&[128, 28, 28]);
        let c = shape(&[32, 28, 28]);
        let d = shape(&[32, 28, 28]);
        let out = op.output_shape(&[&a, &b, &c, &d]).unwrap();
        // Inception 3a output: 256x28x28.
        assert_eq!(out.dims(), &[256, 28, 28]);
    }

    #[test]
    fn concat_rejects_mismatched_spatial() {
        let op = Op::Concat;
        let a = shape(&[64, 28, 28]);
        let b = shape(&[64, 14, 14]);
        assert!(op.output_shape(&[&a, &b]).is_err());
    }

    #[test]
    fn fc_flattens_input() {
        let op = Op::Fc { out_features: 1000 };
        let input = shape(&[1024, 1, 1]);
        assert_eq!(op.output_shape(&[&input]).unwrap().dims(), &[1000]);
    }

    #[test]
    fn conv_param_count_matches_caffe() {
        // AgeNet conv1: 96 filters, 7x7, 3 input channels.
        let op = Op::Conv {
            out_channels: 96,
            kernel: 7,
            stride: 4,
            pad: 0,
            groups: 1,
        };
        let input = shape(&[3, 227, 227]);
        assert_eq!(op.param_count(&[&input]), Some(96 * 3 * 49 + 96));
    }

    #[test]
    fn fc_param_count() {
        let op = Op::Fc { out_features: 512 };
        let input = shape(&[384, 7, 7]);
        assert_eq!(op.param_count(&[&input]), Some(512 * 384 * 49 + 512));
    }

    #[test]
    fn conv_flops_are_two_per_mac() {
        let op = Op::Conv {
            out_channels: 1,
            kernel: 3,
            stride: 1,
            pad: 0,
            groups: 1,
        };
        let input = shape(&[1, 3, 3]);
        let output = op.output_shape(&[&input]).unwrap();
        // One output element, 9 MACs.
        assert_eq!(op.flops(&[&input], &output), Some(18));
    }

    #[test]
    fn pool_flops_cheaper_than_conv() {
        // The paper's Fig. 8 explanation: pool layers are much cheaper than
        // conv layers on the same feature map.
        let input = shape(&[64, 112, 112]);
        let conv = Op::Conv {
            out_channels: 64,
            kernel: 3,
            stride: 1,
            pad: 1,
            groups: 1,
        };
        let pool = Op::Pool {
            kind: PoolKind::Max,
            kernel: 3,
            stride: 2,
            pad: 0,
        };
        let conv_out = conv.output_shape(&[&input]).unwrap();
        let pool_out = pool.output_shape(&[&input]).unwrap();
        assert!(
            conv.flops(&[&input], &conv_out).unwrap()
                > 50 * pool.flops(&[&input], &pool_out).unwrap()
        );
    }

    #[test]
    fn dropout_is_free_and_shape_preserving() {
        let op = Op::Dropout { ratio: 0.4 };
        let input = shape(&[1024]);
        let out = op.output_shape(&[&input]).unwrap();
        assert_eq!(out, input);
        assert_eq!(op.flops(&[&input], &out), Some(0));
    }

    #[test]
    fn grouped_conv_divides_params() {
        // Like AlexNet-style group=2 convolutions in the Levi-Hassner nets'
        // ancestry: grouping halves the parameter count.
        let input = shape(&[96, 28, 28]);
        let g1 = Op::Conv {
            out_channels: 256,
            kernel: 5,
            stride: 1,
            pad: 2,
            groups: 1,
        };
        let g2 = Op::Conv {
            out_channels: 256,
            kernel: 5,
            stride: 1,
            pad: 2,
            groups: 2,
        };
        assert!(g1.param_count(&[&input]).unwrap() > g2.param_count(&[&input]).unwrap());
    }
}
