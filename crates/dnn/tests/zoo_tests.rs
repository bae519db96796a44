//! Deep checks of the model-zoo reconstructions against the published
//! architectures — if these numbers are right, every size and FLOP figure
//! downstream inherits their fidelity.

use snapedge_dnn::{zoo, ExecMode, Op, ParamStore};
use snapedge_tensor::Tensor;

/// Parameter count of one named node.
fn params_of(net: &snapedge_dnn::Network, name: &str) -> u64 {
    let profile = net.profile();
    profile
        .layers()
        .iter()
        .find(|l| l.name == name)
        .unwrap_or_else(|| panic!("no layer {name}"))
        .params
}

#[test]
fn googlenet_stem_parameter_counts() {
    let net = zoo::googlenet();
    // conv1: 64 filters, 7x7x3 + bias.
    assert_eq!(params_of(&net, "1st_conv"), 64 * 3 * 49 + 64);
    // conv2 reduce: 64 x 64 1x1.
    assert_eq!(params_of(&net, "2nd_conv_reduce"), 64 * 64 + 64);
    // conv2: 192 filters, 3x3x64.
    assert_eq!(params_of(&net, "2nd_conv"), 192 * 64 * 9 + 192);
    // classifier: 1000 x 1024.
    assert_eq!(params_of(&net, "classifier"), 1000 * 1024 + 1000);
}

#[test]
fn inception_3a_branch_parameters_match_szegedy() {
    // Inception 3a on 192 input channels: 64 1x1, 96->128 3x3, 16->32 5x5,
    // 32 pool-proj (Szegedy et al., Table 1).
    let net = zoo::googlenet();
    assert_eq!(params_of(&net, "inception_3a/1x1"), 64 * 192 + 64);
    assert_eq!(params_of(&net, "inception_3a/3x3_reduce"), 96 * 192 + 96);
    assert_eq!(params_of(&net, "inception_3a/3x3"), 128 * 96 * 9 + 128);
    assert_eq!(params_of(&net, "inception_3a/5x5_reduce"), 16 * 192 + 16);
    assert_eq!(params_of(&net, "inception_3a/5x5"), 32 * 16 * 25 + 32);
    assert_eq!(params_of(&net, "inception_3a/pool_proj"), 32 * 192 + 32);
}

#[test]
fn googlenet_inception_output_channels_match_the_paper_table() {
    let net = zoo::googlenet();
    let channels = |name: &str| net.output_shape(net.node_id(name).unwrap()).unwrap().dims()[0];
    let expected = [
        ("inception_3a/output", 256),
        ("inception_3b/output", 480),
        ("inception_4a/output", 512),
        ("inception_4b/output", 512),
        ("inception_4c/output", 512),
        ("inception_4d/output", 528),
        ("inception_4e/output", 832),
        ("inception_5a/output", 832),
        ("inception_5b/output", 1024),
    ];
    for (name, want) in expected {
        assert_eq!(channels(name), want, "{name}");
    }
}

#[test]
fn googlenet_conv1_flops_by_hand() {
    // conv1 output 64x112x112, each from 3x7x7 MACs; 2 FLOPs per MAC.
    let net = zoo::googlenet();
    let profile = net.profile();
    let conv1 = profile
        .layers()
        .iter()
        .find(|l| l.name == "1st_conv")
        .unwrap();
    assert_eq!(conv1.flops, 2 * 64 * 112 * 112 * 3 * 49);
}

#[test]
fn agenet_fc6_dominates_its_parameters() {
    // fc6 = 512 x (384*7*7): the reason the Levi-Hassner models are 44 MB.
    let net = zoo::agenet();
    let fc6 = params_of(&net, "fc6");
    assert_eq!(fc6, 512 * 384 * 49 + 512);
    let profile = net.profile();
    assert!(fc6 * 2 > profile.total_params());
}

#[test]
fn dropout_layers_are_where_the_papers_architectures_put_them() {
    let g = zoo::googlenet();
    assert!(matches!(
        g.node_op(g.node_id("dropout").unwrap()).unwrap(),
        Op::Dropout { .. }
    ));
    let a = zoo::agenet();
    for name in ["drop6", "drop7"] {
        assert!(matches!(
            a.node_op(a.node_id(name).unwrap()).unwrap(),
            Op::Dropout { .. }
        ));
    }
}

#[test]
fn googlenet_is_defined_by_its_name_everywhere() {
    let net = zoo::googlenet();
    assert_eq!(net.name(), "googlenet");
    assert_eq!(net.init_params(0).unwrap().network(), "googlenet");
    assert_eq!(net.profile().network(), "googlenet");
}

#[test]
fn paper_model_sizes_summary() {
    // The single most load-bearing calibration: model bytes at 4 B/param.
    const MIB: f64 = 1024.0 * 1024.0;
    let sizes: Vec<(String, f64)> = ["googlenet", "agenet", "gendernet"]
        .iter()
        .map(|m| {
            let p = zoo::by_name(m).unwrap().profile();
            (m.to_string(), p.total_param_bytes() as f64 / MIB)
        })
        .collect();
    assert!((sizes[0].1 - 26.7).abs() < 1.0, "googlenet {}", sizes[0].1);
    assert!((sizes[1].1 - 43.5).abs() < 1.5, "agenet {}", sizes[1].1);
    assert!((sizes[2].1 - 43.5).abs() < 1.5, "gendernet {}", sizes[2].1);
}

/// FNV-1a over the bit patterns of a tensor's elements.
fn fnv_bits(t: &Tensor) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in t.data() {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn synthetic_tensors_match_the_eager_executor_goldens() {
    // Pins computed at commit 51bdc88, when synthetic execution filled every
    // node eagerly: `(model, cut, seed, final_output hash, cut tensor hash)`.
    // Demand-driven execution must hand out the same bits.
    const GOLDEN: [(&str, &str, u64, u64, u64); 4] = [
        (
            "agenet",
            "3rd_pool",
            0x7,
            0x0d92ee02c7bfb12d,
            0xa29d4eda5fd2ddd2,
        ),
        (
            "agenet",
            "3rd_pool",
            0x5eed,
            0xf795fdf9175a70a1,
            0xfaeb21b6e35bb55b,
        ),
        (
            "googlenet",
            "1st_pool",
            0x7,
            0x6335b10657ffedca,
            0x65846d7e282fb0c0,
        ),
        (
            "googlenet",
            "1st_pool",
            0x5eed,
            0x9618f8454e7c2477,
            0x3913a980ca68a58d,
        ),
    ];
    for (model, cut, seed, want_final, want_cut) in GOLDEN {
        let net = zoo::by_name(model).unwrap();
        let params = ParamStore::empty(net.name());
        let input = Tensor::filled(net.input_shape().dims(), 0.5).unwrap();
        let mode = ExecMode::Synthetic { seed };
        let cut_id = net.cut_point(cut).unwrap().id;

        let full = net.forward(&params, &input, mode).unwrap();
        assert_eq!(
            fnv_bits(full.final_output()),
            want_final,
            "{model} seed {seed}"
        );
        assert_eq!(
            fnv_bits(full.output(cut_id).unwrap()),
            want_cut,
            "{model} {cut} seed {seed}"
        );

        // The split pass hands out the same two tensors.
        let front = net.forward_until(&params, &input, cut_id, mode).unwrap();
        let feature = front.output(cut_id).unwrap().clone();
        assert_eq!(
            fnv_bits(&feature),
            want_cut,
            "{model} front {cut} seed {seed}"
        );
        let rear = net.forward_from(&params, cut_id, feature, mode).unwrap();
        assert_eq!(
            fnv_bits(rear.final_output()),
            want_final,
            "{model} rear seed {seed}"
        );
    }
}
