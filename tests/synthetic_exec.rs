//! Demand-driven synthetic execution (ISSUE 12): the executor stopped
//! filling tensors nobody reads, and nothing a session reports may notice.
//!
//! The fixtures were generated at commit 51bdc88, when
//! `ExecMode::Synthetic` still filled every node of every pass: FNV-1a of
//! the `{:?}` rendering of all `RoundReport`s and of the JSONL trace of a
//! three-round paper session, plus the label the client displayed
//! (synthetic values never depend on the image, so every round shows the
//! same one).

use snapedge_core::prelude::*;
use snapedge_webapp::intern::fnv1a;

#[test]
fn paper_sessions_match_the_eager_executor_fixtures() {
    let sessions = [
        (
            "agenet",
            SessionConfig::paper("agenet"),
            0xceaafa8e2a53c38a_u64,
            0x05b3838df426f409_u64,
            "(25-32) (score 5.539)",
        ),
        (
            "googlenet",
            SessionConfig::paper("googlenet"),
            0x7a7bee5c9a7bd90d,
            0x329b350262f3f618,
            "class_571 (score 5.976)",
        ),
    ];
    for (name, cfg, want_reports, want_trace, want_label) in sessions {
        assert_session(name, cfg, want_reports, want_trace, want_label);
    }
}

/// Runs three rounds and compares what the session reports with the
/// eager executor's fixture.
fn assert_session(
    name: &str,
    cfg: SessionConfig,
    want_reports: u64,
    want_trace: u64,
    want_label: &str,
) {
    let mut session = OffloadSession::new(cfg).unwrap();
    let reports: Vec<RoundReport> = (1..=3).map(|i| session.infer(i).unwrap()).collect();
    let reports_hash = fnv1a(format!("{reports:?}").as_bytes());
    let trace_hash = fnv1a(session.trace().to_jsonl().as_bytes());
    for r in &reports {
        assert_eq!(r.result, want_label, "{name} round {}", r.round);
    }
    assert_eq!(reports_hash, want_reports, "{name}: round reports");
    assert_eq!(trace_hash, want_trace, "{name}: JSONL trace");
}

/// Partial inference at every cut `cut_points()` offers (the paper's
/// `3rd_pool` among them), both ends included. At `input` the
/// front partition runs nothing and the feature is the decoded image; at
/// `prob` the rear partition runs nothing and the label comes from the
/// uploaded feature. Neither tensor is synthetic, so a host that skips
/// the pass must still take it there.
#[test]
fn partial_sessions_at_every_cut_match_the_eager_executor_fixtures() {
    let agenet = [
        ("input", 0x6f519fcb6f460a99, 0x121b4bf2f2cc6946),
        ("1st_conv", 0x2bdf3200fc3c1568, 0x7e8b02a4cf69dc2c),
        ("relu1", 0x1de1530e7c8f32f0, 0x10bc2dcad6a45e90),
        ("1st_pool", 0x8e6e41c74a4e135c, 0xfcf28e47a26b2d05),
        ("norm1", 0xb8c3601314992387, 0x40528a0786c34bd6),
        ("2nd_conv", 0x872f61a79e2d2813, 0xb15389862dcff916),
        ("relu2", 0xff3ea8830d80b135, 0x0e5c08b20cf56bdf),
        ("2nd_pool", 0x07f168e9f8b4d85a, 0x74551596468fe7ac),
        ("norm2", 0x3761758640d1fe57, 0x897b03aa6632981d),
        ("3rd_conv", 0x9eb37b24c4c4a369, 0x3010d5abcb8eb9aa),
        ("relu3", 0x0ea6ec71f206d1ed, 0x5a88dade9104d433),
        ("3rd_pool", 0x5452d13e2ec47104, 0x4fc4397184c60276),
        ("fc6", 0x4aed7d6dbb087623, 0x02b7b22608cda872),
        ("relu6", 0xa309317bd04012ad, 0x2042021b84e4f350),
        ("drop6", 0x9018f51ba999bc27, 0x8f419eb92f1491d0),
        ("fc7", 0x248b661a577f33db, 0xee65d582385008b2),
        ("relu7", 0x4d424a0d43e29439, 0xa039ef51ac6c413c),
        ("drop7", 0x4ff4c520d7d28911, 0x1c53e5c62cfc3398),
        ("fc8", 0x728ce3d577a8d635, 0xd23db5d2fda04efa),
        ("prob", 0x0972c2b134e39128, 0xc9a20ee31e52c952),
    ];
    let googlenet = [
        ("input", 0xdf9fcda685dfbdc1, 0x56449fa09a627822),
        ("prob", 0x6bbc1b97835e0e0f, 0xf44b9094687925e9),
    ];
    let agenet_cuts = snapedge_dnn::zoo::agenet().cut_points();
    assert!(
        agenet_cuts
            .iter()
            .map(|c| c.label.as_str())
            .eq(agenet.iter().map(|f| f.0)),
        "the table covers every agenet cut"
    );
    let models = [
        ("agenet", &agenet[..], "(25-32) (score 5.539)"),
        ("googlenet", &googlenet[..], "class_571 (score 5.976)"),
    ];
    for (model, fixtures, want_label) in models {
        for &(cut, want_reports, want_trace) in fixtures {
            let cfg = SessionConfig::paper_builder(model).cut(cut).build();
            let name = format!("{model} cut at {cut}");
            assert_session(&name, cfg, want_reports, want_trace, want_label);
        }
    }
}
