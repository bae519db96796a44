//! Static per-layer profiling: FLOPs, parameter counts and activation
//! sizes. This is the input to the device latency model in `snapedge-core`
//! (the Neurosurgeon-style predictor the paper uses to pick partition
//! points) and to all size accounting in the benchmarks.

use crate::{Network, NodeId};
use snapedge_tensor::Shape;

/// Static profile of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerProfile {
    /// Node id within the network.
    pub id: NodeId,
    /// Node name (e.g. `"1st_conv"`).
    pub name: String,
    /// Caffe-style op tag (`"conv"`, `"maxpool"`, ...).
    pub op_tag: &'static str,
    /// Output shape.
    pub output_shape: Shape,
    /// Output element count.
    pub output_elems: u64,
    /// Forward FLOPs (1 MAC = 2 FLOPs).
    pub flops: u64,
    /// Learned parameter count.
    pub params: u64,
}

/// Whole-network profile, in topological order.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkProfile {
    network: String,
    layers: Vec<LayerProfile>,
}

impl NetworkProfile {
    /// Name of the profiled network.
    pub fn network(&self) -> &str {
        &self.network
    }

    /// Per-layer profiles in topological order.
    pub fn layers(&self) -> &[LayerProfile] {
        &self.layers
    }

    /// Total forward FLOPs.
    pub fn total_flops(&self) -> u64 {
        self.layers.iter().map(|l| l.flops).sum()
    }

    /// Total learned parameters.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(|l| l.params).sum()
    }

    /// Total parameter bytes at 4 bytes/param (binary model files).
    pub fn total_param_bytes(&self) -> u64 {
        4 * self.total_params()
    }

    /// FLOPs of the front partition: every node with topo index <= `cut`.
    pub fn flops_through(&self, cut: NodeId) -> u64 {
        self.layers
            .iter()
            .filter(|l| l.id.index() <= cut.index())
            .map(|l| l.flops)
            .sum()
    }

    /// FLOPs of the rear partition: every node with topo index > `cut`.
    pub fn flops_after(&self, cut: NodeId) -> u64 {
        self.total_flops() - self.flops_through(cut)
    }
}

impl std::fmt::Display for NetworkProfile {
    /// Renders the profile as a fixed-width table (one row per layer),
    /// similar to Caffe's net summaries.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<24} {:>8} {:>14} {:>12} {:>10}",
            "layer", "type", "output", "flops", "params"
        )?;
        for l in &self.layers {
            writeln!(
                f,
                "{:<24} {:>8} {:>14} {:>12} {:>10}",
                l.name,
                l.op_tag,
                l.output_shape.to_string(),
                l.flops,
                l.params
            )?;
        }
        writeln!(
            f,
            "total: {:.2} GFLOPs, {:.1} M params ({:.1} MiB)",
            self.total_flops() as f64 / 1e9,
            self.total_params() as f64 / 1e6,
            self.total_param_bytes() as f64 / (1024.0 * 1024.0)
        )
    }
}

impl Network {
    /// Computes the static profile of this network.
    pub fn profile(&self) -> NetworkProfile {
        let mut layers = Vec::with_capacity(self.node_count());
        for (id, name, op) in self.iter() {
            let output_shape = self.output_shape(id).expect("node exists").clone();
            let input_shapes: Vec<&Shape> = self
                .node(id)
                .inputs
                .iter()
                .map(|nid| self.output_shape(*nid).expect("node exists"))
                .collect();
            let (flops, params) = if input_shapes.is_empty() {
                (0, 0)
            } else {
                // The builder refused every layer whose counts overflow.
                (
                    op.flops(&input_shapes, &output_shape).unwrap_or(u64::MAX),
                    op.param_count(&input_shapes).unwrap_or(u64::MAX),
                )
            };
            layers.push(LayerProfile {
                id,
                name: name.to_string(),
                op_tag: op.type_tag(),
                output_elems: output_shape.volume() as u64,
                output_shape,
                flops,
                params,
            });
        }
        NetworkProfile {
            network: self.name().to_string(),
            layers,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::zoo;

    const MIB: u64 = 1 << 20;

    #[test]
    fn googlenet_params_match_the_papers_27mb() {
        let profile = zoo::googlenet().profile();
        let mib = profile.total_param_bytes() / MIB;
        // Paper Table 1: GoogLeNet model = 27 MB.
        assert!(
            (25..=28).contains(&mib),
            "GoogLeNet params = {} MiB (expected ~27)",
            mib
        );
    }

    #[test]
    fn agenet_params_match_the_papers_44mb() {
        let profile = zoo::agenet().profile();
        let mib = profile.total_param_bytes() / MIB;
        // Paper Table 1: AgeNet model = 44 MB.
        assert!(
            (42..=46).contains(&mib),
            "AgeNet params = {} MiB (expected ~44)",
            mib
        );
    }

    #[test]
    fn gendernet_params_match_the_papers_44mb() {
        let profile = zoo::gendernet().profile();
        let mib = profile.total_param_bytes() / MIB;
        assert!(
            (42..=46).contains(&mib),
            "GenderNet params = {} MiB (expected ~44)",
            mib
        );
    }

    #[test]
    fn googlenet_flops_in_published_range() {
        // GoogLeNet forward is ~1.5 GMACs = ~3 GFLOPs.
        let profile = zoo::googlenet().profile();
        let gflops = profile.total_flops() as f64 / 1e9;
        assert!(
            (2.0..4.5).contains(&gflops),
            "GoogLeNet = {gflops} GFLOPs (expected ~3)"
        );
    }

    #[test]
    fn front_plus_rear_flops_is_total() {
        let net = zoo::agenet();
        let profile = net.profile();
        for cut in net.cut_points() {
            assert_eq!(
                profile.flops_through(cut.id) + profile.flops_after(cut.id),
                profile.total_flops()
            );
        }
    }

    #[test]
    fn display_renders_every_layer_and_totals() {
        let profile = zoo::tiny_cnn().profile();
        let text = profile.to_string();
        assert!(text.contains("1st_conv"));
        assert!(text.contains("total:"));
        assert_eq!(
            text.lines().count(),
            profile.layers().len() + 2, // header + layers + totals
        );
    }

    #[test]
    fn conv_layers_dominate_flops_but_fc_dominates_params() {
        // The classic CNN asymmetry the paper's partitioning exploits.
        let profile = zoo::agenet().profile();
        let conv_flops: u64 = profile
            .layers()
            .iter()
            .filter(|l| l.op_tag == "conv")
            .map(|l| l.flops)
            .sum();
        let fc_params: u64 = profile
            .layers()
            .iter()
            .filter(|l| l.op_tag == "fc")
            .map(|l| l.params)
            .sum();
        assert!(conv_flops > profile.total_flops() / 2);
        assert!(fc_params > profile.total_params() / 2);
    }
}
