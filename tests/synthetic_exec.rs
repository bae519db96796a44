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
        (
            "agenet cut at 3rd_pool",
            SessionConfig::paper_builder("agenet")
                .cut("3rd_pool")
                .build(),
            0x5452d13e2ec47104,
            0x4fc4397184c60276,
            "(25-32) (score 5.539)",
        ),
    ];
    for (name, cfg, want_reports, want_trace, want_label) in sessions {
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
}
