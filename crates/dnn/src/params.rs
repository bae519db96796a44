//! Learned parameters, kept separate from network structure — the same
//! split the paper's model files have (description vs. parameter blobs),
//! which is what makes pre-sending and front/rear model splitting natural.

use crate::{DnnError, Network, Op};
use snapedge_rng::Rng;
use snapedge_tensor::{serialize, Tensor};
use std::collections::BTreeMap;

/// Weights and bias of one parameterized layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerParams {
    /// Convolution filters (`OIHW`) or FC weight matrix (`[out, in]`).
    pub weights: Tensor,
    /// Bias vector (`[out]`).
    pub bias: Tensor,
}

impl LayerParams {
    /// Serialized (binary) size in bytes — what the parameter file for this
    /// layer occupies on disk and on the wire.
    pub fn binary_size(&self) -> u64 {
        (serialize::binary_size(&self.weights) + serialize::binary_size(&self.bias)) as u64
    }

    /// Total parameter count (weights + bias elements).
    pub fn param_count(&self) -> u64 {
        (self.weights.len() + self.bias.len()) as u64
    }
}

/// All learned parameters of a network, keyed by node name.
///
/// # Example
///
/// ```
/// use snapedge_dnn::zoo;
///
/// # fn main() -> Result<(), snapedge_dnn::DnnError> {
/// let net = zoo::tiny_cnn();
/// let params = net.init_params(1)?;
/// assert!(params.get("1st_conv").is_some());
/// assert!(params.get("relu1").is_none()); // relu has no parameters
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ParamStore {
    network: String,
    by_node: BTreeMap<String, LayerParams>,
}

impl ParamStore {
    /// An empty store (useful with [`ExecMode::Synthetic`](crate::ExecMode)
    /// where no parameters are read).
    pub fn empty(network: &str) -> ParamStore {
        ParamStore {
            network: network.to_string(),
            by_node: BTreeMap::new(),
        }
    }

    /// Deterministic pseudo-random initialization for every conv/fc node.
    ///
    /// # Errors
    ///
    /// Propagates tensor construction failures (cannot occur for validated
    /// networks).
    pub fn init(net: &Network, seed: u64) -> Result<ParamStore, DnnError> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut by_node = BTreeMap::new();
        for (id, name, op) in net.iter() {
            let dims: Vec<usize> = match op {
                Op::Conv {
                    out_channels,
                    kernel,
                    groups,
                    ..
                } => {
                    let c_in = net
                        .output_shape(crate::NodeId(net.node(id).inputs[0].0))?
                        .dims()[0];
                    vec![*out_channels, c_in / groups, *kernel, *kernel]
                }
                Op::Fc { out_features } => {
                    let in_f = net
                        .output_shape(crate::NodeId(net.node(id).inputs[0].0))?
                        .volume();
                    vec![*out_features, in_f]
                }
                _ => continue,
            };
            let out = dims[0];
            // Xavier-ish scale keeps activations in a realistic range so
            // text-serialized features have realistic digit counts.
            let fan_in: usize = dims[1..].iter().product();
            let scale = (2.0 / fan_in as f32).sqrt();
            let weights = Tensor::from_fn(&dims, |_| (rng.next_f32() - 0.5) * 2.0 * scale)?;
            let bias = Tensor::from_fn(&[out], |_| (rng.next_f32() - 0.5) * 0.02)?;
            by_node.insert(name.to_string(), LayerParams { weights, bias });
        }
        Ok(ParamStore {
            network: net.name().to_string(),
            by_node,
        })
    }

    /// Name of the network these parameters belong to.
    pub fn network(&self) -> &str {
        &self.network
    }

    /// Parameters for a node, if that node has any.
    pub fn get(&self, node: &str) -> Option<&LayerParams> {
        self.by_node.get(node)
    }

    /// Inserts (or replaces) parameters for a node.
    pub fn insert(&mut self, node: &str, params: LayerParams) {
        self.by_node.insert(node.to_string(), params);
    }

    /// Iterates over `(node_name, params)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &LayerParams)> {
        self.by_node.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Total learned parameter count.
    pub fn total_params(&self) -> u64 {
        self.by_node.values().map(LayerParams::param_count).sum()
    }

    /// Total binary size of all parameter files in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.by_node.values().map(LayerParams::binary_size).sum()
    }

    /// A store restricted to the given node names — how the client builds
    /// the *rear-only* parameter set it pre-sends for partial inference.
    pub fn subset<'a>(&self, nodes: impl IntoIterator<Item = &'a str>) -> ParamStore {
        let wanted: std::collections::BTreeSet<&str> = nodes.into_iter().collect();
        ParamStore {
            network: self.network.clone(),
            by_node: self
                .by_node
                .iter()
                .filter(|(k, _)| wanted.contains(k.as_str()))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn init_is_deterministic() {
        let net = zoo::tiny_cnn();
        let a = ParamStore::init(&net, 5).unwrap();
        let b = ParamStore::init(&net, 5).unwrap();
        assert_eq!(a, b);
        let c = ParamStore::init(&net, 6).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn only_conv_and_fc_get_params() {
        let net = zoo::tiny_cnn();
        let params = ParamStore::init(&net, 0).unwrap();
        for (_, name, op) in net.iter() {
            assert_eq!(params.get(name).is_some(), op.has_params(), "node {name}");
        }
    }

    #[test]
    fn param_counts_match_op_metadata() {
        let net = zoo::agenet();
        let params = ParamStore::init(&net, 0).unwrap();
        let profile = net.profile();
        assert_eq!(params.total_params(), profile.total_params());
    }

    #[test]
    fn binary_size_is_roughly_four_bytes_per_param() {
        let net = zoo::tiny_cnn();
        let params = ParamStore::init(&net, 0).unwrap();
        let bytes = params.total_bytes();
        let count = params.total_params();
        assert!(bytes >= 4 * count);
        // Headers are small relative to data.
        assert!(bytes < 4 * count + 1024);
    }

    #[test]
    fn subset_restricts_layers() {
        let net = zoo::tiny_cnn();
        let params = ParamStore::init(&net, 0).unwrap();
        let sub = params.subset(["fc"]);
        assert!(sub.get("fc").is_some());
        assert!(sub.get("1st_conv").is_none());
        assert!(sub.total_bytes() < params.total_bytes());
    }
}
