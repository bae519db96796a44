//! Quantifying the privacy argument of partial inference.
//!
//! Section III-B.2: feature data can be inverted back to the input by a
//! hill-climbing algorithm **given the front layers' types and
//! parameters** [17], so the client withholds the front model files.
//! This module implements that inversion attack (gradient-free coordinate
//! descent on the input, minimizing the feature-space error) and measures
//! how much worse the attacker does when the true front parameters are
//! withheld — turning the paper's qualitative claim into a number.

use crate::OffloadError;
use snapedge_dnn::{ExecMode, Network, NetworkBuilder, NodeId, Op, ParamStore, PoolKind};
use snapedge_tensor::Tensor;

/// Attack hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackConfig {
    /// Coordinate-descent sweeps over the input.
    pub sweeps: usize,
    /// Initial per-coordinate step size.
    pub step: f32,
    /// Deterministic seed for coordinate visiting order.
    pub seed: u64,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            sweeps: 12,
            step: 0.25,
            seed: 1,
        }
    }
}

fn front_feature(
    net: &Network,
    params: &ParamStore,
    cut: NodeId,
    input: &Tensor,
) -> Result<Tensor, OffloadError> {
    let fwd = net.forward_until(params, input, cut, ExecMode::Real)?;
    Ok(fwd.output(cut)?.clone())
}

/// Reconstructs an input estimate from observed feature data, using the
/// attacker's belief about the front model (`params`). This is the
/// hill-climbing inversion of [17] in gradient-free form.
///
/// # Errors
///
/// Propagates DNN execution failures (e.g. wrong feature shape).
pub fn reconstruct_input(
    net: &Network,
    params: &ParamStore,
    cut: NodeId,
    feature: &Tensor,
    cfg: &AttackConfig,
) -> Result<Tensor, OffloadError> {
    let dims = net.input_shape().dims().to_vec();
    let mut x = Tensor::filled(&dims, 0.5)?;
    let mut best_loss = front_feature(net, params, cut, &x)?.mse(feature)?;
    let n = x.len();
    let mut z = cfg.seed | 1;
    let mut step = cfg.step;
    for _ in 0..cfg.sweeps {
        let mut improved = false;
        for _ in 0..n {
            z = z
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = ((z >> 33) as usize) % n;
            let original = x.data()[i];
            for candidate in [original + step, original - step] {
                let c = candidate.clamp(0.0, 1.0);
                if c == original {
                    continue;
                }
                x.data_mut()[i] = c;
                let loss = front_feature(net, params, cut, &x)?.mse(feature)?;
                if loss < best_loss {
                    best_loss = loss;
                    improved = true;
                    break; // keep the improvement
                }
                x.data_mut()[i] = original;
            }
        }
        if !improved {
            step *= 0.5;
            if step < 1e-3 {
                break;
            }
        }
    }
    Ok(x)
}

/// Outcome of the privacy evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyReport {
    /// Reconstruction MSE when the attacker holds the true front model
    /// (front model leaked / pre-sent).
    pub mse_with_model: f32,
    /// Reconstruction MSE when the attacker must guess the front
    /// parameters (front model withheld, the paper's defense).
    pub mse_without_model: f32,
}

impl PrivacyReport {
    /// How much the defense multiplies the attacker's error.
    pub fn protection_factor(&self) -> f32 {
        if self.mse_with_model == 0.0 {
            f32::INFINITY
        } else {
            self.mse_without_model / self.mse_with_model
        }
    }
}

/// Runs the inversion attack twice — with and without the true front
/// model — against the feature data produced for `input`.
///
/// # Errors
///
/// Propagates DNN execution failures.
pub fn evaluate_privacy(
    net: &Network,
    true_params: &ParamStore,
    cut: NodeId,
    input: &Tensor,
    cfg: &AttackConfig,
) -> Result<PrivacyReport, OffloadError> {
    let feature = front_feature(net, true_params, cut, input)?;

    let with_model = reconstruct_input(net, true_params, cut, &feature, cfg)?;
    let mse_with_model = with_model.mse(input)?;

    // Without the front model files the attacker can only guess the
    // parameters (same architecture, different initialization).
    let guessed = net.init_params(cfg.seed.wrapping_add(0xDEAD_BEEF))?;
    let without_model = reconstruct_input(net, &guessed, cut, &feature, cfg)?;
    let mse_without_model = without_model.mse(input)?;

    Ok(PrivacyReport {
        mse_with_model,
        mse_without_model,
    })
}

/// A small single-channel CNN used by the privacy experiment — large
/// enough to denature inputs, small enough that thousands of forward
/// passes stay fast.
// Runs before any session exists (offline attack evaluation), never
// between capture and restore; the fixed architecture always builds.
#[allow(clippy::expect_used)]
pub fn attack_demo_net() -> Network {
    let mut b = NetworkBuilder::new("privacy_demo", &[1, 6, 6]).expect("valid input");
    let input = b.input();
    (|| -> Result<Network, snapedge_dnn::DnnError> {
        let x = b.layer(
            "1st_conv",
            Op::Conv {
                out_channels: 2,
                kernel: 3,
                stride: 1,
                pad: 1,
                groups: 1,
            },
            input,
        )?;
        let x = b.layer("relu1", Op::Relu, x)?;
        let x = b.layer(
            "1st_pool",
            Op::Pool {
                kind: PoolKind::Max,
                kernel: 2,
                stride: 2,
                pad: 0,
            },
            x,
        )?;
        let x = b.layer("fc", Op::Fc { out_features: 4 }, x)?;
        let out = b.layer("prob", Op::Softmax, x)?;
        b.build(out)
    })()
    .expect("valid architecture")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_input(seed: u64) -> Tensor {
        Tensor::from_fn(&[1, 6, 6], |i| {
            let z = (i as u64 + seed).wrapping_mul(0x9E3779B97F4A7C15);
            ((z >> 33) % 1000) as f32 / 1000.0
        })
        .unwrap()
    }

    #[test]
    fn attack_with_model_recovers_input_reasonably() {
        let net = attack_demo_net();
        let params = net.init_params(5).unwrap();
        let cut = net.node_id("1st_conv").unwrap();
        let input = demo_input(3);
        let feature = front_feature(&net, &params, cut, &input).unwrap();
        let recon =
            reconstruct_input(&net, &params, cut, &feature, &AttackConfig::default()).unwrap();
        // Better than the trivial all-0.5 guess by a clear margin.
        let baseline = Tensor::filled(&[1, 6, 6], 0.5)
            .unwrap()
            .mse(&input)
            .unwrap();
        let attacked = recon.mse(&input).unwrap();
        assert!(
            attacked < baseline * 0.5,
            "attack mse {attacked} vs baseline {baseline}"
        );
    }

    #[test]
    fn withholding_the_front_model_degrades_the_attack() {
        // The paper's defense: don't pre-send the front model files.
        let net = attack_demo_net();
        let params = net.init_params(5).unwrap();
        let cut = net.node_id("1st_conv").unwrap();
        let report =
            evaluate_privacy(&net, &params, cut, &demo_input(9), &AttackConfig::default()).unwrap();
        assert!(
            report.mse_without_model > report.mse_with_model,
            "report: {report:?}"
        );
        assert!(report.protection_factor() > 1.0);
    }

    #[test]
    fn deeper_cuts_denature_more() {
        // Features taken after pooling lose information, so even the
        // with-model attack does worse at 1st_pool than at 1st_conv.
        let net = attack_demo_net();
        let params = net.init_params(5).unwrap();
        let input = demo_input(17);
        let cfg = AttackConfig::default();
        let at_conv = {
            let cut = net.node_id("1st_conv").unwrap();
            let f = front_feature(&net, &params, cut, &input).unwrap();
            reconstruct_input(&net, &params, cut, &f, &cfg)
                .unwrap()
                .mse(&input)
                .unwrap()
        };
        let at_pool = {
            let cut = net.node_id("1st_pool").unwrap();
            let f = front_feature(&net, &params, cut, &input).unwrap();
            reconstruct_input(&net, &params, cut, &f, &cfg)
                .unwrap()
                .mse(&input)
                .unwrap()
        };
        assert!(at_pool >= at_conv, "pool {at_pool} vs conv {at_conv}");
    }

    #[test]
    fn attack_is_deterministic() {
        let net = attack_demo_net();
        let params = net.init_params(1).unwrap();
        let cut = net.node_id("1st_conv").unwrap();
        let input = demo_input(1);
        let feature = front_feature(&net, &params, cut, &input).unwrap();
        let cfg = AttackConfig::default();
        let a = reconstruct_input(&net, &params, cut, &feature, &cfg).unwrap();
        let b = reconstruct_input(&net, &params, cut, &feature, &cfg).unwrap();
        assert_eq!(a, b);
    }
}
