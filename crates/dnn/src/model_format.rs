//! Model files: the wire/disk representation of a DNN.
//!
//! The paper's apps ship a Caffe model as a *description* (layer graph) plus
//! *parameter blobs*, and the client pre-sends that file list to the edge
//! server when the app starts (Section III-B.1). For partial inference the
//! client withholds the **front** layers' parameter files so the server
//! cannot invert the feature data (Section III-B.2).
//!
//! [`ModelBundle`] reproduces that: one description file plus one parameter
//! file per conv/fc layer. Files can be *virtual* (size-only — enough for
//! every transfer-time experiment) or *materialized* (real bytes that a
//! server can load back into a [`ParamStore`]).

use crate::{DnnError, Network, NetworkBuilder, NodeId, Op, ParamStore, PoolKind};
use snapedge_tensor::{serialize, Shape, Tensor};

/// What a model file contains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelFileKind {
    /// The layer-graph description (small text file).
    Description,
    /// Parameter blob for one layer.
    LayerParams {
        /// Name of the layer the parameters belong to.
        node: String,
    },
}

/// One file of a model bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelFile {
    /// File name, e.g. `googlenet.desc` or `googlenet/1st_conv.params`.
    pub name: String,
    /// What the file contains.
    pub kind: ModelFileKind,
    /// Exact size in bytes (whether or not `data` is present).
    pub size: u64,
    /// File contents; `None` for virtual (size-only) files.
    pub data: Option<Vec<u8>>,
}

/// A model as a list of files — what pre-sending transmits.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelBundle {
    model: String,
    files: Vec<ModelFile>,
}

impl Network {
    /// Renders the layer graph as the description text format.
    pub fn to_description(&self) -> String {
        let mut out = String::new();
        let dims: Vec<String> = self
            .input_shape()
            .dims()
            .iter()
            .map(|d| d.to_string())
            .collect();
        out.push_str(&format!("model {} input={}\n", self.name(), dims.join("x")));
        for (id, name, op) in self.iter() {
            if matches!(op, Op::Input) {
                continue;
            }
            let inputs: Vec<&str> = self
                .node(id)
                .inputs
                .iter()
                .map(|nid| self.node_name(*nid).expect("node exists"))
                .collect();
            let args = match op {
                Op::Input => String::new(),
                Op::Conv {
                    out_channels,
                    kernel,
                    stride,
                    pad,
                    groups,
                } => format!(" out={out_channels} k={kernel} s={stride} p={pad} g={groups}"),
                Op::Relu | Op::Concat | Op::Softmax => String::new(),
                Op::Pool {
                    kind,
                    kernel,
                    stride,
                    pad,
                } => {
                    let kname = match kind {
                        PoolKind::Max => "max",
                        PoolKind::Average => "avg",
                    };
                    format!(" kind={kname} k={kernel} s={stride} p={pad}")
                }
                Op::Lrn {
                    local_size,
                    alpha,
                    beta,
                    k,
                } => format!(" size={local_size} alpha={alpha} beta={beta} bias={k}"),
                Op::Fc { out_features } => format!(" out={out_features}"),
                Op::Dropout { ratio } => format!(" ratio={ratio}"),
            };
            out.push_str(&format!(
                "node {} {} inputs={}{}\n",
                name,
                op.type_tag(),
                inputs.join(","),
                args
            ));
        }
        out
    }

    /// Rebuilds a network from its description text — what an edge server
    /// does with a received model description.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::Format`] for malformed text and propagates
    /// builder errors for inconsistent graphs.
    pub fn from_description(text: &str) -> Result<Network, DnnError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines
            .next()
            .ok_or_else(|| DnnError::Format("empty description".into()))?;
        let mut head = header.split_whitespace();
        if head.next() != Some("model") {
            return Err(DnnError::Format(
                "description must start with 'model'".into(),
            ));
        }
        let name = head
            .next()
            .ok_or_else(|| DnnError::Format("missing model name".into()))?;
        let input = head
            .next()
            .and_then(|kv| kv.strip_prefix("input="))
            .ok_or_else(|| DnnError::Format("missing input= dims".into()))?;
        let dims: Vec<usize> = input
            .split('x')
            .map(|d| {
                d.parse::<usize>()
                    .map_err(|e| DnnError::Format(format!("bad dim {d:?}: {e}")))
            })
            .collect::<Result<_, _>>()?;

        let mut b = NetworkBuilder::new(name, &dims)?;
        let mut last = b.input();
        for line in lines {
            let mut parts = line.split_whitespace();
            if parts.next() != Some("node") {
                return Err(DnnError::Format(format!("expected 'node', got {line:?}")));
            }
            let node_name = parts
                .next()
                .ok_or_else(|| DnnError::Format("missing node name".into()))?;
            let tag = parts
                .next()
                .ok_or_else(|| DnnError::Format("missing node type".into()))?;
            let mut inputs_str = None;
            let mut args = std::collections::BTreeMap::new();
            for kv in parts {
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| DnnError::Format(format!("bad arg {kv:?}")))?;
                if k == "inputs" {
                    inputs_str = Some(v.to_string());
                } else {
                    args.insert(k.to_string(), v.to_string());
                }
            }
            let get_usize = |args: &std::collections::BTreeMap<String, String>,
                             k: &str|
             -> Result<usize, DnnError> {
                args.get(k)
                    .ok_or_else(|| DnnError::Format(format!("{node_name}: missing {k}=")))?
                    .parse()
                    .map_err(|e| DnnError::Format(format!("{node_name}: bad {k}: {e}")))
            };
            let get_f32 = |args: &std::collections::BTreeMap<String, String>,
                           k: &str|
             -> Result<f32, DnnError> {
                args.get(k)
                    .ok_or_else(|| DnnError::Format(format!("{node_name}: missing {k}=")))?
                    .parse()
                    .map_err(|e| DnnError::Format(format!("{node_name}: bad {k}: {e}")))
            };
            let op = match tag {
                "conv" => Op::Conv {
                    out_channels: get_usize(&args, "out")?,
                    kernel: get_usize(&args, "k")?,
                    stride: get_usize(&args, "s")?,
                    pad: get_usize(&args, "p")?,
                    groups: get_usize(&args, "g")?,
                },
                "relu" => Op::Relu,
                "maxpool" | "avgpool" => Op::Pool {
                    kind: if tag == "maxpool" {
                        PoolKind::Max
                    } else {
                        PoolKind::Average
                    },
                    kernel: get_usize(&args, "k")?,
                    stride: get_usize(&args, "s")?,
                    pad: get_usize(&args, "p")?,
                },
                "lrn" => Op::Lrn {
                    local_size: get_usize(&args, "size")?,
                    alpha: get_f32(&args, "alpha")?,
                    beta: get_f32(&args, "beta")?,
                    k: get_f32(&args, "bias")?,
                },
                "fc" => Op::Fc {
                    out_features: get_usize(&args, "out")?,
                },
                "dropout" => Op::Dropout {
                    ratio: get_f32(&args, "ratio")?,
                },
                "concat" => Op::Concat,
                "softmax" => Op::Softmax,
                other => return Err(DnnError::Format(format!("unknown op tag {other:?}"))),
            };
            let inputs_str =
                inputs_str.ok_or_else(|| DnnError::Format(format!("{node_name}: no inputs")))?;
            // Resolve input names against already-built nodes; requires a
            // temporary network view, so track names manually.
            let input_ids: Vec<NodeId> = inputs_str
                .split(',')
                .map(|n| b.node_id_by_name(n))
                .collect::<Result<_, _>>()?;
            last = if matches!(op, Op::Concat) {
                b.concat(node_name, &input_ids)?
            } else {
                if input_ids.len() != 1 {
                    return Err(DnnError::Format(format!(
                        "{node_name}: non-concat node must have one input"
                    )));
                }
                b.layer(node_name, op, input_ids[0])?
            };
        }
        b.build(last)
    }
}

impl NetworkBuilder {
    /// Resolves a node name among already-added nodes (used by the
    /// description parser).
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::UnknownNode`] when no such node exists yet.
    fn node_id_by_name(&self, name: &str) -> Result<NodeId, DnnError> {
        self.nodes_impl()
            .iter()
            .position(|n| n.name == name)
            .map(NodeId)
            .ok_or_else(|| DnnError::UnknownNode(name.to_string()))
    }
}

/// Weight dims and bias length of `op` over its first input, or `None`
/// for an op without parameters.
fn param_dims(op: &Op, input: &Shape) -> Option<(Vec<usize>, usize)> {
    match op {
        Op::Conv {
            out_channels,
            kernel,
            groups,
            ..
        } => Some((
            vec![*out_channels, input.dims()[0] / groups, *kernel, *kernel],
            *out_channels,
        )),
        Op::Fc { out_features } => Some((vec![*out_features, input.volume()], *out_features)),
        _ => None,
    }
}

/// Exact on-disk size of the parameter file of `op` over its first input:
/// `u32 | weights-blob | u32 | bias-blob` with SETB blobs inside. `Some(0)`
/// for an op without parameters, `None` when the size does not fit in a
/// `u64`.
pub(crate) fn layer_file_size(op: &Op, input: &Shape) -> Option<u64> {
    let Some((weight_dims, bias_len)) = param_dims(op, input) else {
        return Some(0);
    };
    // Magic and rank, a word per dim, four bytes per element.
    let blob = |dims: &[usize]| {
        let elements = dims
            .iter()
            .try_fold(1u64, |n, &d| n.checked_mul(d as u64))?;
        elements
            .checked_mul(4)?
            .checked_add(8 + 4 * dims.len() as u64)
    };
    // And a length word before each blob.
    blob(&weight_dims)?
        .checked_add(blob(&[bias_len])?)?
        .checked_add(8)
}

fn encode_layer_file(weights: &Tensor, bias: &Tensor) -> Vec<u8> {
    let wblob = serialize::to_binary(weights);
    let bblob = serialize::to_binary(bias);
    let mut out = Vec::with_capacity(8 + wblob.len() + bblob.len());
    out.extend_from_slice(&(wblob.len() as u32).to_le_bytes());
    out.extend_from_slice(&wblob);
    out.extend_from_slice(&(bblob.len() as u32).to_le_bytes());
    out.extend_from_slice(&bblob);
    out
}

fn decode_layer_file(data: &[u8]) -> Result<(Tensor, Tensor), DnnError> {
    let read_blob = |buf: &[u8]| -> Result<(Tensor, usize), DnnError> {
        if buf.len() < 4 {
            return Err(DnnError::Format("truncated layer file".into()));
        }
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        if buf.len() < 4 + len {
            return Err(DnnError::Format("truncated blob".into()));
        }
        let t = serialize::from_binary(&buf[4..4 + len])
            .map_err(|e| DnnError::Format(format!("bad blob: {e}")))?;
        Ok((t, 4 + len))
    };
    let (weights, consumed) = read_blob(data)?;
    let (bias, consumed2) = read_blob(&data[consumed..])?;
    if consumed + consumed2 != data.len() {
        return Err(DnnError::Format("trailing bytes in layer file".into()));
    }
    Ok((weights, bias))
}

impl ModelBundle {
    /// Builds a **virtual** bundle: real description text, size-only
    /// parameter files. Sufficient for every transfer-time experiment.
    pub fn from_network(net: &Network) -> ModelBundle {
        let desc = net.to_description();
        let mut files = vec![ModelFile {
            name: format!("{}.desc", net.name()),
            kind: ModelFileKind::Description,
            size: desc.len() as u64,
            data: Some(desc.into_bytes()),
        }];
        for (id, name, op) in net.iter() {
            if !op.has_params() {
                continue;
            }
            let input = net
                .output_shape(net.node(id).inputs[0])
                .expect("node exists");
            files.push(ModelFile {
                name: format!("{}/{}.params", net.name(), name),
                kind: ModelFileKind::LayerParams {
                    node: name.to_string(),
                },
                size: layer_file_size(op, input).expect("the builder checked it"),
                data: None,
            });
        }
        ModelBundle {
            model: net.name().to_string(),
            files,
        }
    }

    /// Builds a **materialized** bundle with real parameter bytes that a
    /// server can load with [`ParamStore::from_bundle`].
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::Params`] when `params` is missing a layer.
    pub fn materialized(net: &Network, params: &ParamStore) -> Result<ModelBundle, DnnError> {
        let mut bundle = ModelBundle::from_network(net);
        for file in &mut bundle.files {
            if let ModelFileKind::LayerParams { node } = &file.kind {
                let p = params.get(node).ok_or_else(|| DnnError::Params {
                    node: node.clone(),
                    reason: "missing from store".to_string(),
                })?;
                let data = encode_layer_file(&p.weights, &p.bias);
                debug_assert_eq!(data.len() as u64, file.size);
                file.size = data.len() as u64;
                file.data = Some(data);
            }
        }
        Ok(bundle)
    }

    /// The model name.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// The file list, in description-first order.
    pub fn files(&self) -> &[ModelFile] {
        &self.files
    }

    /// Total size of all files in bytes — the pre-sending payload.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.size).sum()
    }

    /// The description text, if present in this bundle.
    pub fn description(&self) -> Option<&str> {
        self.files.iter().find_map(|f| {
            matches!(f.kind, ModelFileKind::Description)
                .then(|| f.data.as_deref())
                .flatten()
                .and_then(|d| std::str::from_utf8(d).ok())
        })
    }

    /// Splits the bundle for partial inference at `cut`: the **front**
    /// bundle holds parameter files of layers up to and including the cut
    /// (kept at the client, withheld from the server); the **rear** bundle
    /// holds the description plus the remaining layers' parameters (what is
    /// actually pre-sent).
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::UnknownCut`] when `cut` is not a valid partition
    /// point of `net`.
    pub fn split(
        &self,
        net: &Network,
        cut: NodeId,
    ) -> Result<(ModelBundle, ModelBundle), DnnError> {
        if !net.is_cut_point(cut) {
            return Err(DnnError::UnknownCut(format!(
                "node #{} is not a valid partition point",
                cut.index()
            )));
        }
        let mut front = ModelBundle {
            model: self.model.clone(),
            files: Vec::new(),
        };
        let mut rear = ModelBundle {
            model: self.model.clone(),
            files: Vec::new(),
        };
        for file in &self.files {
            match &file.kind {
                ModelFileKind::Description => rear.files.push(file.clone()),
                ModelFileKind::LayerParams { node } => {
                    let id = net.node_id(node)?;
                    if id.index() <= cut.index() {
                        front.files.push(file.clone());
                    } else {
                        rear.files.push(file.clone());
                    }
                }
            }
        }
        Ok((front, rear))
    }
}

impl ParamStore {
    /// Loads parameters from a materialized bundle.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::Format`] for virtual or malformed files.
    pub fn from_bundle(bundle: &ModelBundle) -> Result<ParamStore, DnnError> {
        let mut store = ParamStore::empty(bundle.model());
        for file in bundle.files() {
            if let ModelFileKind::LayerParams { node } = &file.kind {
                let data = file.data.as_ref().ok_or_else(|| {
                    DnnError::Format(format!("file {} is virtual (size-only)", file.name))
                })?;
                let (weights, bias) = decode_layer_file(data)?;
                store.insert(node, crate::LayerParams { weights, bias });
            }
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{zoo, ExecMode};
    use snapedge_rng::Rng;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn description_roundtrip_tiny() {
        let net = zoo::tiny_cnn();
        let text = net.to_description();
        let back = Network::from_description(&text).unwrap();
        assert_eq!(back.name(), net.name());
        assert_eq!(back.node_count(), net.node_count());
        for (id, name, _) in net.iter() {
            assert_eq!(back.node_name(id).unwrap(), name);
            assert_eq!(
                back.output_shape(id).unwrap(),
                net.output_shape(id).unwrap()
            );
        }
    }

    #[test]
    fn description_roundtrip_googlenet() {
        let net = zoo::googlenet();
        let back = Network::from_description(&net.to_description()).unwrap();
        assert_eq!(back.profile(), net.profile());
    }

    #[test]
    fn from_description_rejects_garbage() {
        assert!(Network::from_description("").is_err());
        assert!(Network::from_description("nonsense 3x3").is_err());
        assert!(
            Network::from_description("model m input=3x4x4\nnode a warp inputs=input").is_err()
        );
    }

    #[test]
    fn element_counts_that_overflow_are_typed_errors() {
        let input = Network::from_description("model x input=99999999999x99999999999x99999999");
        assert!(
            matches!(&input, Err(DnnError::Build(msg)) if msg.contains("overflows")),
            "{input:?}"
        );
        let fc = "model x input=3x4x4\nnode f fc inputs=input out=4611686018427387904";
        assert_eq!(
            Network::from_description(fc).err(),
            Some(DnnError::TooLarge { node: "f".into() })
        );
        // Each layer fits, their sum does not.
        let mut wide = String::from("model x input=1x1x1");
        let mut last = "input".to_string();
        for i in 0..5 {
            wide += &format!("\nnode f{i} fc inputs={last} out=1\nnode g{i} fc inputs=f{i} out=1000000000000000000");
            last = format!("g{i}");
        }
        assert!(matches!(
            Network::from_description(&wide),
            Err(DnnError::TooLarge { .. })
        ));
        // A concat of a rank-1 input is refused, not indexed out of bounds.
        let concat = "model x input=3x4x4\nnode f fc inputs=input out=4\nnode c concat inputs=f";
        assert!(matches!(
            Network::from_description(concat),
            Err(DnnError::Build(_))
        ));
    }

    #[test]
    fn virtual_bundle_sizes_match_materialized() {
        let net = zoo::tiny_cnn();
        let params = net.init_params(1).unwrap();
        let virt = ModelBundle::from_network(&net);
        let real = ModelBundle::materialized(&net, &params).unwrap();
        assert_eq!(virt.total_bytes(), real.total_bytes());
        for (v, r) in virt.files().iter().zip(real.files()) {
            assert_eq!(v.size, r.size, "file {}", v.name);
        }
    }

    #[test]
    fn bundle_roundtrips_params() {
        let net = zoo::tiny_cnn();
        let params = net.init_params(2).unwrap();
        let bundle = ModelBundle::materialized(&net, &params).unwrap();
        let loaded = ParamStore::from_bundle(&bundle).unwrap();
        // Loading back must reproduce identical inference results.
        let input =
            snapedge_tensor::Tensor::from_fn(net.input_shape().dims(), |i| (i % 3) as f32).unwrap();
        let a = net.forward(&params, &input, ExecMode::Real).unwrap();
        let b = net.forward(&loaded, &input, ExecMode::Real).unwrap();
        assert_eq!(a.final_output(), b.final_output());
    }

    #[test]
    fn from_bundle_rejects_virtual_files() {
        let net = zoo::tiny_cnn();
        let virt = ModelBundle::from_network(&net);
        assert!(ParamStore::from_bundle(&virt).is_err());
    }

    #[test]
    fn bundle_size_matches_paper_model_sizes() {
        const MIB: u64 = 1 << 20;
        let g = ModelBundle::from_network(&zoo::googlenet());
        let a = ModelBundle::from_network(&zoo::agenet());
        assert!((25..=28).contains(&(g.total_bytes() / MIB)), "googlenet");
        assert!((42..=46).contains(&(a.total_bytes() / MIB)), "agenet");
    }

    #[test]
    fn split_partitions_param_files() {
        let net = zoo::agenet();
        let bundle = ModelBundle::from_network(&net);
        let cut = net.node_id("1st_pool").unwrap();
        let (front, rear) = bundle.split(&net, cut).unwrap();
        // Front holds conv1 only; rear holds description + remaining layers.
        assert_eq!(front.files().len(), 1);
        assert!(front.files()[0].name.contains("1st_conv"));
        assert!(rear.description().is_some());
        assert_eq!(
            front.total_bytes() + rear.total_bytes(),
            bundle.total_bytes()
        );
        // Rear is what gets pre-sent: it must be smaller than the whole.
        assert!(rear.total_bytes() < bundle.total_bytes());
    }

    #[test]
    fn split_rejects_invalid_cut() {
        let net = zoo::googlenet();
        let bundle = ModelBundle::from_network(&net);
        let branch = net.node_id("inception_3a/1x1").unwrap();
        assert!(bundle.split(&net, branch).is_err());
    }

    #[test]
    fn split_at_input_puts_everything_in_rear() {
        let net = zoo::tiny_cnn();
        let bundle = ModelBundle::from_network(&net);
        let (front, rear) = bundle.split(&net, NodeId(0)).unwrap();
        assert!(front.files().is_empty());
        assert_eq!(rear.total_bytes(), bundle.total_bytes());
    }

    /// Everything a description goes through on its way to a pre-send.
    fn describe(text: &str) -> Result<(), DnnError> {
        let net = Network::from_description(text)?;
        let _ = net.profile();
        let _ = ModelBundle::from_network(&net);
        Ok(())
    }

    fn mutate_text(rng: &mut Rng, base: &str) -> String {
        const POOL: &[&str] = &[
            "0",
            "1",
            "9",
            "x",
            "=",
            ",",
            " ",
            "\n",
            "é",
            "99999999999",
            "4611686018427387904",
            "18446744073709551615",
            "65536",
            "node ",
            " inputs=input",
            "conv",
            "fc",
            "concat",
            "maxpool",
            "softmax",
            " out=",
            " k=",
            " p=",
            " g=",
        ];
        let mut s = base.to_string();
        for _ in 0..rng.gen_range_usize(1, 4) {
            // Half the time a digit in a value, with a digit: a piece
            // landing in a node name only breaks the next reference to it.
            let bytes = s.as_bytes();
            let digits: Vec<usize> = (1..bytes.len())
                .filter(|&i| {
                    let before = bytes[..i].iter().rposition(|b| !b.is_ascii_digit());
                    bytes[i].is_ascii_digit() && before.is_some_and(|j| bytes[j] == b'=')
                })
                .collect();
            let (mut at, piece) = if rng.next_bool() && !digits.is_empty() {
                (*rng.choose(&digits), *rng.choose(&POOL[..3]))
            } else {
                (rng.gen_range_usize(0, s.len() + 1), *rng.choose(POOL))
            };
            while !s.is_char_boundary(at) {
                at -= 1;
            }
            match rng.gen_range_usize(0, 3) {
                0 if at < s.len() => {
                    let end = at + s[at..].chars().next().map_or(0, char::len_utf8);
                    s.replace_range(at..end, piece);
                }
                1 if at < s.len() => {
                    s.remove(at);
                }
                _ => s.insert_str(at, piece),
            }
        }
        s
    }

    fn mutate_bytes(rng: &mut Rng, base: &[u8]) -> Vec<u8> {
        const WORDS: [u32; 6] = [0, 1, 4, 65_536, 0x4000_0000, u32::MAX];
        let mut bytes = base.to_vec();
        for _ in 0..rng.gen_range_usize(1, 4) {
            let at = rng.gen_range_usize(0, bytes.len() + 1);
            match rng.gen_range_usize(0, 4) {
                0 if at < bytes.len() => bytes[at] = rng.next_u32() as u8,
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                // A length, rank or dimension field overwritten.
                2 if at + 4 <= bytes.len() => {
                    bytes[at..at + 4].copy_from_slice(&rng.choose(&WORDS).to_le_bytes());
                }
                _ => bytes.insert(at, rng.next_u32() as u8),
            }
        }
        bytes
    }

    #[test]
    fn byte_mutated_descriptions_and_layer_files_load_or_fail_without_panicking() {
        let googlenet = zoo::googlenet().to_description();
        assert_eq!(describe(&googlenet), Ok(()));
        let mut accepted = 0;
        for case in 0..2_000u64 {
            let mut rng = Rng::seed_from_u64(41_000 + case);
            let text = mutate_text(&mut rng, &googlenet);
            match catch_unwind(AssertUnwindSafe(|| describe(&text))) {
                Ok(result) => accepted += usize::from(result.is_ok()),
                Err(_) => panic!("description panicked on {text:?}"),
            }
        }
        // The mutations must leave both answers populated.
        assert!(
            (100..1_900).contains(&accepted),
            "{accepted} of 2000 descriptions accepted"
        );

        let net = zoo::tiny_cnn();
        let bundle = ModelBundle::materialized(&net, &net.init_params(3).unwrap()).unwrap();
        let layer = bundle.files()[1].clone();
        let base = layer.data.clone().unwrap();
        assert!(ParamStore::from_bundle(&bundle).is_ok());
        let mut accepted = 0;
        for case in 0..2_000u64 {
            let mut rng = Rng::seed_from_u64(43_000 + case);
            let data = mutate_bytes(&mut rng, &base);
            let mutant = ModelBundle {
                model: bundle.model.clone(),
                files: vec![ModelFile {
                    size: data.len() as u64,
                    data: Some(data),
                    ..layer.clone()
                }],
            };
            match catch_unwind(AssertUnwindSafe(|| ParamStore::from_bundle(&mutant))) {
                Ok(result) => accepted += usize::from(result.is_ok()),
                Err(_) => panic!("layer file panicked on {:?}", mutant.files[0].data),
            }
        }
        // A byte of a weight changes a value, not the format.
        assert!(
            (100..1_900).contains(&accepted),
            "{accepted} of 2000 layer files accepted"
        );
    }
}
