//! Layer DAG construction, shape inference and forward execution.

use crate::{DnnError, Op, ParamStore};
use snapedge_tensor::{ops, Shape, Tensor};
use std::cell::OnceCell;
use std::sync::Arc;

/// Identifier of a node within a [`Network`] (its topological index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The node's topological index.
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) name: String,
    pub(crate) op: Op,
    pub(crate) inputs: Vec<NodeId>,
}

/// A validated inference network: a DAG of layer nodes in topological
/// order, with node 0 the input. Shapes are inferred at build time, so a
/// constructed `Network` can always execute.
///
/// # Example
///
/// ```
/// use snapedge_dnn::{NetworkBuilder, Op, PoolKind};
///
/// # fn main() -> Result<(), snapedge_dnn::DnnError> {
/// let mut b = NetworkBuilder::new("demo", &[3, 8, 8])?;
/// let input = b.input();
/// let conv = b.layer("conv1", Op::Conv { out_channels: 4, kernel: 3, stride: 1, pad: 1, groups: 1 }, input)?;
/// let relu = b.layer("relu1", Op::Relu, conv)?;
/// let net = b.build(relu)?;
/// assert_eq!(net.output_shape(relu)?.dims(), &[4, 8, 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    name: String,
    nodes: Vec<Node>,
    /// Shared with the synthetic passes this network hands out, which need
    /// a node's shape when its tensor is first read.
    shapes: Arc<[Shape]>,
}

/// Builder for [`Network`]. Nodes must reference previously added nodes,
/// which guarantees the result is already in topological order.
#[derive(Debug)]
pub struct NetworkBuilder {
    name: String,
    nodes: Vec<Node>,
    shapes: Vec<Shape>,
    /// FLOPs and parameter file bytes of the nodes so far, checked as they
    /// are added so that a profile's and a bundle's sums cannot overflow.
    totals: (u64, u64),
}

/// `totals` (FLOPs, parameter file bytes) plus `op`'s, or `None` when
/// either overflows or the bytes pass what a file offset (`i64`) can reach.
fn add_cost(
    (flops, bytes): (u64, u64),
    op: &Op,
    inputs: &[&Shape],
    output: &Shape,
) -> Option<(u64, u64)> {
    let flops = flops.checked_add(op.flops(inputs, output)?)?;
    let bytes = bytes.checked_add(crate::model_format::layer_file_size(op, inputs[0])?)?;
    (bytes <= i64::MAX as u64).then_some((flops, bytes))
}

impl NetworkBuilder {
    /// Starts a network with the given `CHW` (or any-rank) input shape.
    /// The input node is named `"input"`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::Build`] for an invalid input shape.
    pub fn new(name: &str, input_dims: &[usize]) -> Result<NetworkBuilder, DnnError> {
        let shape = Shape::new(input_dims)
            .map_err(|e| DnnError::Build(format!("invalid input shape: {e}")))?;
        Ok(NetworkBuilder {
            name: name.to_string(),
            nodes: vec![Node {
                name: "input".to_string(),
                op: Op::Input,
                inputs: Vec::new(),
            }],
            shapes: vec![shape],
            totals: (0, 0),
        })
    }

    /// The input node's id (always the first node).
    pub fn input(&self) -> NodeId {
        NodeId(0)
    }

    /// Appends a single-input layer and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::Build`] for duplicate names, dangling inputs, or
    /// op/shape mismatches.
    pub fn layer(&mut self, name: &str, op: Op, input: NodeId) -> Result<NodeId, DnnError> {
        self.add(name, op, vec![input])
    }

    /// Appends a concat node joining several branches.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NetworkBuilder::layer`].
    pub fn concat(&mut self, name: &str, inputs: &[NodeId]) -> Result<NodeId, DnnError> {
        self.add(name, Op::Concat, inputs.to_vec())
    }

    pub(crate) fn nodes_impl(&self) -> &[Node] {
        &self.nodes
    }

    fn add(&mut self, name: &str, op: Op, inputs: Vec<NodeId>) -> Result<NodeId, DnnError> {
        if self.nodes.iter().any(|n| n.name == name) {
            return Err(DnnError::Build(format!("duplicate node name {name:?}")));
        }
        if matches!(op, Op::Input) {
            return Err(DnnError::Build(
                "networks have exactly one input node".into(),
            ));
        }
        if inputs.is_empty() {
            return Err(DnnError::Build(format!("node {name:?} has no inputs")));
        }
        for id in &inputs {
            if id.0 >= self.nodes.len() {
                return Err(DnnError::Build(format!(
                    "node {name:?} references nonexistent node {}",
                    id.0
                )));
            }
        }
        let input_shapes: Vec<&Shape> = inputs.iter().map(|id| &self.shapes[id.0]).collect();
        let out = op
            .output_shape(&input_shapes)
            .map_err(|e| DnnError::Build(format!("node {name:?}: {e}")))?;
        self.totals =
            add_cost(self.totals, &op, &input_shapes, &out).ok_or_else(|| DnnError::TooLarge {
                node: name.to_string(),
            })?;
        self.nodes.push(Node {
            name: name.to_string(),
            op,
            inputs,
        });
        self.shapes.push(out);
        Ok(NodeId(self.nodes.len() - 1))
    }

    /// Finalizes the network. `output` must be the last node added — the
    /// paper's apps always classify at the end of the graph.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::Build`] when `output` is not the final node or
    /// some node is unreachable from the output.
    pub fn build(self, output: NodeId) -> Result<Network, DnnError> {
        if output.0 != self.nodes.len() - 1 {
            return Err(DnnError::Build(format!(
                "output must be the last node ({} != {})",
                output.0,
                self.nodes.len() - 1
            )));
        }
        // Reachability: every node must contribute to the output.
        let mut live = vec![false; self.nodes.len()];
        live[output.0] = true;
        for i in (0..self.nodes.len()).rev() {
            if live[i] {
                for input in &self.nodes[i].inputs {
                    live[input.0] = true;
                }
            }
        }
        if let Some(dead) = live.iter().position(|&l| !l) {
            return Err(DnnError::Build(format!(
                "node {:?} does not contribute to the output",
                self.nodes[dead].name
            )));
        }
        Ok(Network {
            name: self.name,
            nodes: self.nodes,
            shapes: self.shapes.into(),
        })
    }
}

/// How layer outputs are produced during forward execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Run the real kernels from `snapedge-tensor`.
    Real,
    /// Produce shape-faithful pseudo-activations without arithmetic.
    ///
    /// A value is a pure function of `(seed, node, element)` — never of the
    /// input or of another node — and mimics dense real-valued
    /// activations, so snapshot text sizes stay realistic. Execution is
    /// therefore demand-driven: a pass only notes which nodes ran, and a
    /// node's tensor is produced when [`Forward::output`] first reads it.
    /// A pass costs O(nodes) plus O(elements of the tensors actually
    /// read); the tensors nobody reads are never allocated.
    Synthetic {
        /// Seed mixed into every generated value.
        seed: u64,
    },
}

/// Result of a forward pass: one output tensor per executed node.
///
/// After a [`ExecMode::Real`] pass every executed node holds its tensor.
/// After a [`ExecMode::Synthetic`] pass only the tensor supplied by the
/// caller (the input, or the feature at the cut) is present; every other
/// executed node is filled on first read, with the same bits whichever
/// node is read first and however often. Reading is the only thing that
/// costs per element: O(nodes) per pass, O(elements) per tensor read.
#[derive(Debug, Clone)]
pub struct Forward {
    /// `None` for nodes outside the executed range.
    outputs: Vec<Option<OnceCell<Tensor>>>,
    /// How a synthetic pass fills a cell it left empty.
    synthetic: Option<SyntheticFill>,
}

#[derive(Debug, Clone)]
struct SyntheticFill {
    seed: u64,
    shapes: Arc<[Shape]>,
}

impl Forward {
    /// Output of node `id`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::UnknownNode`] when the node was not executed in
    /// this pass (e.g. it belongs to the front partition of a
    /// [`Network::forward_from`] call).
    pub fn output(&self, id: NodeId) -> Result<&Tensor, DnnError> {
        let cell = self
            .outputs
            .get(id.0)
            .and_then(|o| o.as_ref())
            .ok_or_else(|| DnnError::UnknownNode(format!("node {} (not executed)", id.0)))?;
        Ok(cell.get_or_init(|| {
            let fill = self
                .synthetic
                .as_ref()
                .expect("a real pass fills every executed node");
            synthetic_tensor(fill.seed, id, &fill.shapes[id.0])
        }))
    }

    /// Takes the output of node `id` out of the pass, for callers that
    /// would otherwise copy it.
    ///
    /// # Errors
    ///
    /// Same as [`Forward::output`].
    pub fn into_output(mut self, id: NodeId) -> Result<Tensor, DnnError> {
        self.output(id)?;
        Ok(self
            .outputs
            .swap_remove(id.0)
            .and_then(OnceCell::into_inner)
            .expect("output() just filled this cell"))
    }

    /// Output of the network's final node.
    ///
    /// # Panics
    ///
    /// Never panics for `Forward` values produced by this crate's
    /// [`Network::forward`] and [`Network::forward_from`]: the final node
    /// is always executed.
    pub fn final_output(&self) -> &Tensor {
        self.output(NodeId(self.outputs.len() - 1))
            .expect("final node is always executed")
    }
}

/// The tensor synthetic execution produces for `node`, of shape `shape`.
fn synthetic_tensor(seed: u64, node: NodeId, shape: &Shape) -> Tensor {
    Tensor::from_fn(shape.dims(), |e| synthetic_value(seed, node.0, e))
        .expect("network shapes are validated at build time")
}

fn synthetic_value(seed: u64, node: usize, elem: usize) -> f32 {
    // SplitMix64-style mix: deterministic, well distributed.
    let mut z = seed
        .wrapping_add((node as u64) << 32)
        .wrapping_add(elem as u64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // Dense activation-like values in (-2, 6).
    ((z % 1_000_000) as f32 / 125_000.0) - 2.0
}

impl Network {
    /// The network's name (e.g. `"googlenet"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes, including the input node.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Shape of the network input.
    pub fn input_shape(&self) -> &Shape {
        &self.shapes[0]
    }

    /// The input node's id (always the first node).
    pub fn input_id(&self) -> NodeId {
        NodeId(0)
    }

    /// The output node's id (always the last node).
    pub fn output_id(&self) -> NodeId {
        NodeId(self.nodes.len() - 1)
    }

    /// Node id for a node name.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::UnknownNode`] when no node has that name.
    pub fn node_id(&self, name: &str) -> Result<NodeId, DnnError> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(NodeId)
            .ok_or_else(|| DnnError::UnknownNode(name.to_string()))
    }

    /// Name of a node.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::UnknownNode`] for an out-of-range id.
    pub fn node_name(&self, id: NodeId) -> Result<&str, DnnError> {
        self.nodes
            .get(id.0)
            .map(|n| n.name.as_str())
            .ok_or_else(|| DnnError::UnknownNode(format!("#{}", id.0)))
    }

    /// The op of a node.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::UnknownNode`] for an out-of-range id.
    pub fn node_op(&self, id: NodeId) -> Result<&Op, DnnError> {
        self.nodes
            .get(id.0)
            .map(|n| &n.op)
            .ok_or_else(|| DnnError::UnknownNode(format!("#{}", id.0)))
    }

    /// Inferred output shape of a node.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::UnknownNode`] for an out-of-range id.
    pub fn output_shape(&self, id: NodeId) -> Result<&Shape, DnnError> {
        self.shapes
            .get(id.0)
            .ok_or_else(|| DnnError::UnknownNode(format!("#{}", id.0)))
    }

    /// Iterates over `(id, name, op)` in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &str, &Op)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i), n.name.as_str(), &n.op))
    }

    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Initializes deterministic pseudo-random parameters for every conv/fc
    /// node. The same seed always yields the same parameters, so client and
    /// server builds agree bit-for-bit.
    ///
    /// # Errors
    ///
    /// Propagates tensor construction failures (cannot occur for validated
    /// networks).
    pub fn init_params(&self, seed: u64) -> Result<ParamStore, DnnError> {
        ParamStore::init(self, seed)
    }

    /// Full forward pass from the network input.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::Params`] for missing/mis-shaped parameters or
    /// [`DnnError::Tensor`] when a kernel rejects its input.
    pub fn forward(
        &self,
        params: &ParamStore,
        input: &Tensor,
        mode: ExecMode,
    ) -> Result<Forward, DnnError> {
        self.run(
            params,
            self.input_id(),
            input.clone(),
            self.output_id(),
            mode,
        )
    }

    /// Runs the **front** partition: executes from the input up to and
    /// including `cut`, returning the partial pass. The output at `cut` is
    /// the *feature data* the client would embed in its snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::UnknownCut`] when `cut` is not a valid partition
    /// point (see [`Network::is_cut_point`]).
    pub fn forward_until(
        &self,
        params: &ParamStore,
        input: &Tensor,
        cut: NodeId,
        mode: ExecMode,
    ) -> Result<Forward, DnnError> {
        self.check_cut(cut)?;
        self.run(params, self.input_id(), input.clone(), cut, mode)
    }

    /// Runs the **rear** partition: resumes execution after `cut`, given the
    /// feature tensor produced at `cut` (typically restored from a
    /// snapshot on the edge server).
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::UnknownCut`] for an invalid partition point and
    /// [`DnnError::Params`]/[`DnnError::Tensor`] for execution failures.
    pub fn forward_from(
        &self,
        params: &ParamStore,
        cut: NodeId,
        feature: Tensor,
        mode: ExecMode,
    ) -> Result<Forward, DnnError> {
        self.check_cut(cut)?;
        if feature.shape() != &self.shapes[cut.0] {
            return Err(DnnError::Params {
                node: self.nodes[cut.0].name.clone(),
                reason: format!(
                    "feature shape {} does not match cut shape {}",
                    feature.shape(),
                    self.shapes[cut.0]
                ),
            });
        }
        self.run(params, cut, feature, self.output_id(), mode)
    }

    /// The tensor every [`ExecMode::Synthetic`] pass with this `seed` yields
    /// for an executed node `id` — what [`Forward::output`] fills in on
    /// first read — for a caller that reads one node and needs no pass.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::UnknownNode`] for an out-of-range id.
    pub fn synthetic_output(&self, seed: u64, id: NodeId) -> Result<Tensor, DnnError> {
        Ok(synthetic_tensor(seed, id, self.output_shape(id)?))
    }

    /// `true` when every node after `cut` depends only on nodes after `cut`
    /// (or on `cut` itself) — i.e. the single tensor produced at `cut`
    /// suffices to resume execution. The input node is always a cut point
    /// (full offloading).
    pub fn is_cut_point(&self, cut: NodeId) -> bool {
        if cut.0 >= self.nodes.len() {
            return false;
        }
        for node in &self.nodes[cut.0 + 1..] {
            for input in &node.inputs {
                if input.0 < cut.0 {
                    return false;
                }
            }
        }
        true
    }

    fn check_cut(&self, cut: NodeId) -> Result<(), DnnError> {
        if self.is_cut_point(cut) {
            return Ok(());
        }
        Err(DnnError::UnknownCut(format!(
            "node {:?} is not a valid partition point",
            self.node_name(cut).unwrap_or("?")
        )))
    }

    /// Executes the nodes after `boundary` through `last`, given the
    /// tensor at `boundary`.
    fn run(
        &self,
        params: &ParamStore,
        boundary: NodeId,
        value: Tensor,
        last: NodeId,
        mode: ExecMode,
    ) -> Result<Forward, DnnError> {
        let mut fwd = Forward {
            outputs: vec![None; self.nodes.len()],
            synthetic: None,
        };
        fwd.outputs[boundary.0] = Some(OnceCell::from(value));
        match mode {
            // All of synthetic execution: mark the nodes as executed and
            // leave their tensors to `Forward::output`.
            ExecMode::Synthetic { seed } => {
                fwd.outputs[boundary.0 + 1..=last.0].fill(Some(OnceCell::new()));
                fwd.synthetic = Some(SyntheticFill {
                    seed,
                    shapes: Arc::clone(&self.shapes),
                });
            }
            ExecMode::Real => {
                for i in boundary.0 + 1..=last.0 {
                    let out = self.eval_node(NodeId(i), params, &fwd)?;
                    fwd.outputs[i] = Some(OnceCell::from(out));
                }
            }
        }
        Ok(fwd)
    }

    fn eval_node(
        &self,
        id: NodeId,
        params: &ParamStore,
        fwd: &Forward,
    ) -> Result<Tensor, DnnError> {
        let node = &self.nodes[id.0];
        let inputs: Vec<&Tensor> = node
            .inputs
            .iter()
            .map(|nid| fwd.output(*nid))
            .collect::<Result<_, _>>()?;
        let out = match &node.op {
            Op::Input => unreachable!("input node is never evaluated"),
            Op::Conv {
                stride,
                pad,
                groups,
                ..
            } => {
                let p = params.get(&node.name).ok_or_else(|| DnnError::Params {
                    node: node.name.clone(),
                    reason: "missing conv parameters".to_string(),
                })?;
                // im2col + GEMM, the same lowering Caffe.js performs.
                ops::conv2d_im2col(inputs[0], &p.weights, &p.bias, *stride, *pad, *groups)?
            }
            Op::Relu => ops::relu(inputs[0]),
            Op::Pool {
                kind,
                kernel,
                stride,
                pad,
            } => ops::pool2d(inputs[0], *kind, *kernel, *stride, *pad)?,
            Op::Lrn {
                local_size,
                alpha,
                beta,
                k,
            } => ops::lrn(inputs[0], *local_size, *alpha, *beta, *k)?,
            Op::Fc { .. } => {
                let p = params.get(&node.name).ok_or_else(|| DnnError::Params {
                    node: node.name.clone(),
                    reason: "missing fc parameters".to_string(),
                })?;
                let flat = inputs[0].clone().reshape(&[inputs[0].len()])?;
                ops::fully_connected(&flat, &p.weights, &p.bias)?
            }
            Op::Dropout { .. } => inputs[0].clone(),
            Op::Concat => ops::concat_channels(&inputs)?,
            Op::Softmax => {
                let flat = inputs[0].clone().reshape(&[inputs[0].len()])?;
                ops::softmax(&flat)?
            }
        };
        debug_assert_eq!(
            out.shape(),
            &self.shapes[id.0],
            "shape inference must match execution for node {}",
            node.name
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn builder_rejects_duplicate_names() {
        let mut b = NetworkBuilder::new("n", &[1, 4, 4]).unwrap();
        let input = b.input();
        b.layer("a", Op::Relu, input).unwrap();
        assert!(b.layer("a", Op::Relu, input).is_err());
    }

    #[test]
    fn builder_rejects_second_input() {
        let mut b = NetworkBuilder::new("n", &[1, 4, 4]).unwrap();
        let input = b.input();
        assert!(b.layer("x", Op::Input, input).is_err());
    }

    #[test]
    fn builder_rejects_unreachable_nodes() {
        let mut b = NetworkBuilder::new("n", &[1, 4, 4]).unwrap();
        let input = b.input();
        let _dead = b.layer("dead", Op::Relu, input).unwrap();
        let live = b.layer("live", Op::Relu, input).unwrap();
        assert!(b.build(live).is_err());
    }

    #[test]
    fn forward_runs_tiny_cnn() {
        let net = zoo::tiny_cnn();
        let params = net.init_params(7).unwrap();
        let input = Tensor::filled(net.input_shape().dims(), 0.1).unwrap();
        let fwd = net.forward(&params, &input, ExecMode::Real).unwrap();
        let out = fwd.final_output();
        assert_eq!(out.len(), 10);
        let sum: f32 = out.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "softmax output sums to 1");
    }

    #[test]
    fn synthetic_mode_matches_real_shapes() {
        let net = zoo::tiny_cnn();
        let params = net.init_params(7).unwrap();
        let input = Tensor::filled(net.input_shape().dims(), 0.1).unwrap();
        let real = net.forward(&params, &input, ExecMode::Real).unwrap();
        let synth = net
            .forward(&params, &input, ExecMode::Synthetic { seed: 3 })
            .unwrap();
        for (id, _, _) in net.iter() {
            assert_eq!(
                real.output(id).unwrap().shape(),
                synth.output(id).unwrap().shape()
            );
        }
    }

    #[test]
    fn synthetic_mode_is_deterministic() {
        let net = zoo::tiny_cnn();
        let params = net.init_params(7).unwrap();
        let input = Tensor::filled(net.input_shape().dims(), 0.1).unwrap();
        let a = net
            .forward(&params, &input, ExecMode::Synthetic { seed: 11 })
            .unwrap();
        let b = net
            .forward(&params, &input, ExecMode::Synthetic { seed: 11 })
            .unwrap();
        assert_eq!(a.final_output(), b.final_output());
        let c = net
            .forward(&params, &input, ExecMode::Synthetic { seed: 12 })
            .unwrap();
        assert_ne!(a.final_output(), c.final_output());
    }

    #[test]
    fn split_execution_equals_full_execution() {
        // The heart of partial inference: front-at-client + rear-at-server
        // must produce the same result as running everything in one place.
        let net = zoo::tiny_cnn();
        let params = net.init_params(42).unwrap();
        let input = Tensor::from_fn(net.input_shape().dims(), |i| ((i % 7) as f32) / 7.0).unwrap();
        let full = net.forward(&params, &input, ExecMode::Real).unwrap();

        for (id, _, _) in net.iter() {
            if !net.is_cut_point(id) {
                continue;
            }
            let front = net
                .forward_until(&params, &input, id, ExecMode::Real)
                .unwrap();
            let feature = front.output(id).unwrap().clone();
            let rear = net
                .forward_from(&params, id, feature, ExecMode::Real)
                .unwrap();
            assert_eq!(
                rear.final_output(),
                full.final_output(),
                "cut at {:?} changed the result",
                net.node_name(id).unwrap()
            );
        }
    }

    #[test]
    fn forward_from_rejects_wrong_feature_shape() {
        let net = zoo::tiny_cnn();
        let params = net.init_params(1).unwrap();
        let cut = net.node_id("1st_conv").unwrap();
        let bad = Tensor::zeros(&[1, 2, 2]).unwrap();
        assert!(net.forward_from(&params, cut, bad, ExecMode::Real).is_err());
    }

    #[test]
    fn input_is_always_a_cut_point() {
        for net in [zoo::tiny_cnn(), zoo::agenet(), zoo::googlenet()] {
            assert!(net.is_cut_point(NodeId(0)), "{}", net.name());
        }
    }

    #[test]
    fn inception_internals_are_not_cut_points() {
        let net = zoo::googlenet();
        // A branch inside inception 3a cannot be a partition point: the
        // other branches also need pool2's output.
        let branch = net.node_id("inception_3a/1x1").unwrap();
        assert!(!net.is_cut_point(branch));
        // But the concat at the end of the module is one.
        let concat = net.node_id("inception_3a/output").unwrap();
        assert!(net.is_cut_point(concat));
    }

    #[test]
    fn forward_until_rejects_non_cut() {
        let net = zoo::googlenet();
        let params = crate::ParamStore::empty(net.name());
        let input = Tensor::zeros(net.input_shape().dims()).unwrap();
        let branch = net.node_id("inception_3a/1x1").unwrap();
        assert!(net
            .forward_until(&params, &input, branch, ExecMode::Synthetic { seed: 0 })
            .is_err());
    }

    #[test]
    fn synthetic_output_is_what_a_synthetic_pass_yields() {
        let net = zoo::tiny_cnn();
        let params = crate::ParamStore::empty(net.name());
        let input = Tensor::zeros(net.input_shape().dims()).unwrap();
        let pass = net
            .forward(&params, &input, ExecMode::Synthetic { seed: 5 })
            .unwrap();
        for (id, name, _) in net.iter().skip(1) {
            assert_eq!(
                &net.synthetic_output(5, id).unwrap(),
                pass.output(id).unwrap(),
                "{name}"
            );
        }
        assert_eq!(net.input_id(), NodeId(0));
        assert_eq!(
            net.synthetic_output(5, net.output_id()).unwrap(),
            *pass.final_output()
        );
        assert!(matches!(
            net.synthetic_output(5, NodeId(net.node_count())),
            Err(DnnError::UnknownNode(_))
        ));
    }

    #[test]
    fn node_lookup_roundtrip() {
        let net = zoo::tiny_cnn();
        for (id, name, _) in net.iter() {
            assert_eq!(net.node_id(name).unwrap(), id);
            assert_eq!(net.node_name(id).unwrap(), name);
        }
        assert!(net.node_id("nope").is_err());
    }
}
