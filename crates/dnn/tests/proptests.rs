//! Property-style tests over randomly generated networks, run as
//! deterministic seeded loops (no external `proptest` dependency — the
//! workspace builds offline). Shape inference must match execution,
//! partial execution must equal full execution at every cut, and the
//! description format must round-trip.

use snapedge_dnn::{DnnError, ExecMode, Network, NetworkBuilder, NodeId, Op, ParamStore, PoolKind};
use snapedge_rng::Rng;
use snapedge_tensor::Tensor;

const CASES: u64 = 48;

/// One randomly chosen layer of a linear CNN body.
#[derive(Debug, Clone)]
enum RandLayer {
    Conv { out: usize, k: usize, pad: usize },
    Relu,
    Pool { k: usize },
    Lrn,
    Dropout,
}

fn rand_layer(rng: &mut Rng) -> RandLayer {
    match rng.gen_range_usize(0, 5) {
        0 => RandLayer::Conv {
            out: rng.gen_range_usize(1, 5),
            k: rng.gen_range_usize(1, 4),
            pad: rng.gen_range_usize(0, 2),
        },
        1 => RandLayer::Relu,
        2 => RandLayer::Pool {
            k: rng.gen_range_usize(2, 4),
        },
        3 => RandLayer::Lrn,
        _ => RandLayer::Dropout,
    }
}

fn rand_body(rng: &mut Rng, lo: usize, hi: usize) -> Vec<RandLayer> {
    let n = rng.gen_range_usize(lo, hi);
    (0..n).map(|_| rand_layer(rng)).collect()
}

/// Builds a network from the random body, skipping layers that would not
/// fit the current spatial size (mirrors how an architect would design).
fn build(body: &[RandLayer], classes: usize) -> Network {
    let mut b = NetworkBuilder::new("random", &[2, 12, 12]).unwrap();
    let mut x = b.input();
    let mut hw = 12usize;
    for (i, layer) in body.iter().enumerate() {
        let name = format!("l{i}");
        match layer {
            RandLayer::Conv { out, k, pad } => {
                if hw + 2 * pad < *k {
                    continue;
                }
                hw = (hw + 2 * pad - k) + 1;
                x = b
                    .layer(
                        &name,
                        Op::Conv {
                            out_channels: *out,
                            kernel: *k,
                            stride: 1,
                            pad: *pad,
                            groups: 1,
                        },
                        x,
                    )
                    .unwrap();
            }
            RandLayer::Relu => {
                x = b.layer(&name, Op::Relu, x).unwrap();
            }
            RandLayer::Pool { k } => {
                if hw < *k || hw / 2 == 0 {
                    continue;
                }
                x = b
                    .layer(
                        &name,
                        Op::Pool {
                            kind: PoolKind::Max,
                            kernel: *k,
                            stride: 2,
                            pad: 0,
                        },
                        x,
                    )
                    .unwrap();
                hw = (hw - k).div_ceil(2) + 1;
            }
            RandLayer::Lrn => {
                x = b
                    .layer(
                        &name,
                        Op::Lrn {
                            local_size: 3,
                            alpha: 1e-4,
                            beta: 0.75,
                            k: 1.0,
                        },
                        x,
                    )
                    .unwrap();
            }
            RandLayer::Dropout => {
                x = b.layer(&name, Op::Dropout { ratio: 0.5 }, x).unwrap();
            }
        }
    }
    let x = b
        .layer(
            "fc",
            Op::Fc {
                out_features: classes,
            },
            x,
        )
        .unwrap();
    let out = b.layer("prob", Op::Softmax, x).unwrap();
    b.build(out).unwrap()
}

#[test]
fn execution_matches_shape_inference() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(100 + case);
        let body = rand_body(&mut rng, 0, 6);
        let classes = rng.gen_range_usize(2, 6);
        let seed = rng.next_u64();
        let net = build(&body, classes);
        let params = net.init_params(seed).unwrap();
        let input = Tensor::from_fn(net.input_shape().dims(), |i| {
            ((i as u64).wrapping_mul(seed | 1) % 100) as f32 / 100.0
        })
        .unwrap();
        let fwd = net.forward(&params, &input, ExecMode::Real).unwrap();
        for (id, name, _) in net.iter() {
            assert_eq!(
                fwd.output(id).unwrap().shape(),
                net.output_shape(id).unwrap(),
                "case {case} node {name}"
            );
        }
        // Classifier output is a probability distribution.
        let sum: f32 = fwd.final_output().data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "case {case}: sum {sum}");
    }
}

#[test]
fn every_cut_splits_losslessly() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(200 + case);
        let body = rand_body(&mut rng, 0, 6);
        let seed = rng.next_u64();
        let net = build(&body, 3);
        let params = net.init_params(seed).unwrap();
        let input = Tensor::from_fn(net.input_shape().dims(), |i| {
            ((i as u64).wrapping_mul(seed | 3) % 97) as f32 / 97.0
        })
        .unwrap();
        let full = net.forward(&params, &input, ExecMode::Real).unwrap();
        for cut in net.cut_points() {
            let front = net
                .forward_until(&params, &input, cut.id, ExecMode::Real)
                .unwrap();
            let feature = front.output(cut.id).unwrap().clone();
            let rear = net
                .forward_from(&params, cut.id, feature, ExecMode::Real)
                .unwrap();
            assert_eq!(
                rear.final_output(),
                full.final_output(),
                "case {case} cut {}",
                cut.label
            );
        }
    }
}

#[test]
fn description_roundtrips_random_networks() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(300 + case);
        let body = rand_body(&mut rng, 0, 8);
        let classes = rng.gen_range_usize(2, 8);
        let net = build(&body, classes);
        let text = net.to_description();
        let back = Network::from_description(&text).unwrap();
        assert_eq!(back.profile(), net.profile(), "case {case}");
        // And re-printing is a fixed point.
        assert_eq!(back.to_description(), text, "case {case}");
    }
}

#[test]
fn profile_flops_are_monotone_in_depth() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(400 + case);
        let body = rand_body(&mut rng, 1, 6);
        let net = build(&body, 4);
        let profile = net.profile();
        // Front FLOPs grow (weakly) as the cut moves deeper.
        let cuts = net.cut_points();
        let mut prev = 0;
        for cut in &cuts {
            let through = profile.flops_through(cut.id);
            assert!(through >= prev, "case {case} cut {}", cut.label);
            prev = through;
        }
        assert_eq!(
            profile.flops_after(cuts.last().unwrap().id),
            0,
            "case {case}"
        );
    }
}

#[test]
fn synthetic_and_real_agree_on_all_sizes() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(500 + case);
        let body = rand_body(&mut rng, 0, 5);
        let seed = rng.next_u64();
        let net = build(&body, 3);
        let params = net.init_params(seed).unwrap();
        let input = Tensor::filled(net.input_shape().dims(), 0.25).unwrap();
        let real = net.forward(&params, &input, ExecMode::Real).unwrap();
        let synth = net
            .forward(&params, &input, ExecMode::Synthetic { seed })
            .unwrap();
        for (id, name, _) in net.iter() {
            assert_eq!(
                real.output(id).unwrap().len(),
                synth.output(id).unwrap().len(),
                "case {case} node {name}"
            );
        }
    }
}

/// The definition of synthetic execution, restated: a pseudo-activation is
/// this function of `(seed, node, element)` and of nothing else. The
/// executor's own copy is private; a change to either is a change to every
/// snapshot byte downstream.
fn synthetic_value(seed: u64, node: usize, elem: usize) -> f32 {
    let mut z = seed
        .wrapping_add((node as u64) << 32)
        .wrapping_add(elem as u64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((z % 1_000_000) as f32 / 125_000.0) - 2.0
}

/// What the eager executor stored at `id`.
fn eager_fill(net: &Network, seed: u64, id: NodeId) -> Tensor {
    let dims = net.output_shape(id).unwrap().dims();
    Tensor::from_fn(dims, |e| synthetic_value(seed, id.index(), e)).unwrap()
}

fn assert_not_executed(result: Result<&Tensor, DnnError>, what: &str) {
    assert!(
        matches!(result, Err(DnnError::UnknownNode(_))),
        "{what}: {result:?}"
    );
}

#[test]
fn lazy_synthetic_outputs_equal_the_eager_fill_in_any_read_order() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(600 + case);
        let body = rand_body(&mut rng, 0, 6);
        let seed = rng.next_u64();
        let net = build(&body, 3);
        let params = ParamStore::empty(net.name());
        let input = Tensor::filled(net.input_shape().dims(), 0.25).unwrap();
        let fwd = net
            .forward(&params, &input, ExecMode::Synthetic { seed })
            .unwrap();

        let mut order: Vec<NodeId> = net.iter().map(|(id, _, _)| id).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range_usize(0, i + 1));
        }
        for &id in &order {
            let first = fwd.output(id).unwrap();
            if id == net.node_id("input").unwrap() {
                assert_eq!(
                    first, &input,
                    "case {case}: the input is kept, not generated"
                );
            } else {
                assert_eq!(
                    first,
                    &eager_fill(&net, seed, id),
                    "case {case} node {id:?}"
                );
            }
            let again = fwd.output(id).unwrap();
            assert!(
                std::ptr::eq(first, again),
                "case {case}: read twice, filled once"
            );
        }
    }
}

#[test]
fn synthetic_passes_keep_their_range_semantics() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(700 + case);
        let body = rand_body(&mut rng, 1, 6);
        let seed = rng.next_u64();
        let net = build(&body, 3);
        let mode = ExecMode::Synthetic { seed };
        let params = ParamStore::empty(net.name());
        let input = Tensor::filled(net.input_shape().dims(), 0.25).unwrap();
        let first = net.node_id("input").unwrap();
        let last = net.node_id("prob").unwrap();
        for cut in net.cut_points() {
            let what = format!("case {case} cut {}", cut.label);

            let front = net.forward_until(&params, &input, cut.id, mode).unwrap();
            let rear_feature = Tensor::filled(cut.feature_shape.dims(), 0.5).unwrap();
            let rear = net
                .forward_from(&params, cut.id, rear_feature.clone(), mode)
                .unwrap();
            assert_eq!(
                front.output(first).unwrap(),
                &input,
                "{what}: supplied input"
            );
            assert_eq!(
                rear.output(cut.id).unwrap(),
                &rear_feature,
                "{what}: supplied feature"
            );
            for (id, _, _) in net.iter() {
                if id > cut.id {
                    assert_not_executed(front.output(id), &what);
                    assert_eq!(
                        rear.output(id).unwrap(),
                        &eager_fill(&net, seed, id),
                        "{what}"
                    );
                    assert_eq!(
                        &net.synthetic_output(seed, id).unwrap(),
                        rear.output(id).unwrap(),
                        "{what}: one node without a pass"
                    );
                } else if id < cut.id {
                    assert_not_executed(rear.output(id), &what);
                }
                if id <= cut.id && id != first {
                    assert_eq!(
                        front.output(id).unwrap(),
                        &eager_fill(&net, seed, id),
                        "{what}"
                    );
                }
            }

            // A clone taken before the first read and one taken after agree
            // with the original, and taking a tensor out equals reading it.
            let fresh = net
                .forward_from(&params, cut.id, rear_feature, mode)
                .unwrap();
            let before = fresh.clone();
            let read = fresh.final_output().clone();
            let after = fresh.clone();
            assert_eq!(
                before.final_output(),
                &read,
                "{what}: clone before the read"
            );
            assert_eq!(after.final_output(), &read, "{what}: clone after the read");
            assert_eq!(
                before.into_output(last).unwrap(),
                read,
                "{what}: into_output"
            );
            assert_eq!(
                after.into_output(last).unwrap(),
                read,
                "{what}: into_output"
            );
        }
    }
}
