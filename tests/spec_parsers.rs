//! The command-line spec parsers and the JSONL trace reader answer every
//! input with `Ok` or `Err`.
//!
//! `RetryPolicy::parse`, `FaultPlan::parse`, `MeterLimits::parse` and
//! `parse_servers` turn user text into durations. A finite number of
//! seconds can still be too long for a `Duration` (about 1.8e19 s), and
//! converting it must be a parse error, not a panic. The literal cases pin
//! that; the seeded byte-mutation loops pin it for everything near a valid
//! spec, with exponent fragments in the mutation pool so overlong times
//! come up often. The `--servers` loop also schedules one transfer on
//! every spec that parses, so a value that parses but cannot be used (a
//! vanishing rate, an enormous latency or overhead) must error there too.
//! `Trace::from_jsonl` gets the same loop over a real session's trace,
//! with multi-byte text and overlong numbers in its pool.

use snapedge_core::{
    edge_server_x86, parse_servers, MeterLimits, OffloadSession, RetryPolicy, ServerSpec,
    SessionConfig,
};
use snapedge_net::{FaultPlan, Link, LinkConfig};
use snapedge_rng::Rng;
use snapedge_trace::Trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

fn template() -> ServerSpec {
    ServerSpec::new("t", edge_server_x86(), LinkConfig::wifi_30mbps())
}

/// Parses one spec, reporting only whether it was accepted.
type Parser = Box<dyn Fn(&str) -> bool>;

/// Each parser, by name, with valid specs for the mutation loop to start
/// from.
fn parsers() -> Vec<(&'static str, &'static [&'static str], Parser)> {
    let template = template();
    vec![
        (
            "retry",
            &[
                "attempts=5,deadline=30,backoff=0.2",
                "backoff-max=2.5,deadline=0.75",
            ],
            Box::new(|s| RetryPolicy::parse(s).is_ok()),
        ),
        (
            "fault",
            &["down@2..5,degrade@7..9x0.25,corrupt@10..11", "down@0..1"],
            Box::new(|s| FaultPlan::parse(s).is_ok()),
        ),
        (
            "meter",
            &["ops=5000,heap=100,str=64,depth=8,slice=2.5", "slice=0.25+ops=10"],
            Box::new(|s| MeterLimits::parse(s).is_ok()),
        ),
        (
            "servers",
            &[
                "edge-a,mbps=30,latency=0.002;edge-b,up=down@2..5+corrupt@7..8,meter=ops=5+slice=2.5",
                "a,faults=degrade@1..2x0.5,loss=0.01,overhead=64",
                // Usable, but one digit away from a transfer no
                // `Duration` or `u64` byte count can hold.
                "a,bps=8e-6,overhead=1844674407370955161",
            ],
            // A spec that parses must also be usable: one transfer on
            // every server's uplink completes or errors, never panics.
            Box::new(move |s| match parse_servers(s, &template) {
                Ok(servers) => {
                    for server in servers {
                        let _ = Link::new(server.link)
                            .with_fault_plan(server.up_faults)
                            .schedule(Duration::ZERO, 100_000);
                    }
                    true
                }
                Err(_) => false,
            }),
        ),
    ]
}

#[test]
fn durations_too_long_for_a_duration_are_parse_errors() {
    let template = template();
    assert!(RetryPolicy::parse("deadline=1e30").is_err());
    assert!(MeterLimits::parse("slice=1e30").is_err());
    assert!(FaultPlan::parse("down@0..1e30").is_err());
    assert!(parse_servers("a,up=down@0..1e30", &template).is_err());
    // Just past the largest `Duration`, and a value well inside it.
    assert!(RetryPolicy::parse("backoff=1.9e19").is_err());
    assert!(FaultPlan::parse("corrupt@1e27..1e28").is_err());
    assert!(MeterLimits::parse("slice=1.9e22").is_err());
    assert!(RetryPolicy::parse("deadline=1e9").is_ok());
    assert!(MeterLimits::parse("slice=1e9").is_ok());
}

#[test]
fn byte_mutated_specs_parse_or_fail_without_panicking() {
    const POOL: &[&str] = &[
        "0", "1", "9", ".", "-", "+", ",", ";", "=", "@", "..", "x", "e", "e19", "e30", "e308",
    ];
    for (name, seeds, parse) in parsers() {
        let mut accepted = 0;
        for case in 0..2_000u64 {
            let mut rng = Rng::seed_from_u64(26_000 + case);
            let mut spec = rng.choose(seeds).to_string();
            for _ in 0..rng.gen_range_usize(1, 4) {
                let at = rng.gen_range_usize(0, spec.len() + 1);
                let piece = *rng.choose(POOL);
                match rng.gen_range_usize(0, 3) {
                    0 if at < spec.len() => spec.replace_range(at..=at, piece),
                    1 if at < spec.len() => {
                        spec.remove(at);
                    }
                    _ => spec.insert_str(at, piece),
                }
            }
            match catch_unwind(AssertUnwindSafe(|| parse(&spec))) {
                Ok(ok) => accepted += usize::from(ok),
                Err(_) => panic!("{name} parser panicked on {spec:?}"),
            }
        }
        // The mutations must leave both answers populated.
        assert!(
            (20..1_980).contains(&accepted),
            "{name}: {accepted} of 2000 mutants accepted"
        );
    }
}

#[test]
fn byte_mutated_session_traces_parse_or_fail_without_panicking() {
    const POOL: &[&str] = &[
        "0",
        "9",
        "\"",
        ":",
        ",",
        "{",
        "}",
        "\\",
        "\\u",
        "é",
        "😀",
        " ",
        // Puts a char boundary off byte 24 of an error excerpt.
        "xéééééééééééé",
        "depth",
        "4294967297",
        "18446744073709551616",
    ];
    let mut session = OffloadSession::new(SessionConfig::tiny()).unwrap();
    session.infer(1).unwrap();
    session.infer(2).unwrap();
    let trace = session.trace();
    let text = trace.to_jsonl();
    let back = Trace::from_jsonl(&text).unwrap();
    assert_eq!(back, trace, "the unmutated trace round-trips");
    assert_eq!(back.to_jsonl(), text);
    let lines = text.lines().count();
    let mut accepted = 0;
    for case in 0..2_000u64 {
        let mut rng = Rng::seed_from_u64(28_000 + case);
        let mut jsonl = text.clone();
        for _ in 0..rng.gen_range_usize(1, 4) {
            let mut at = rng.gen_range_usize(0, jsonl.len() + 1);
            while !jsonl.is_char_boundary(at) {
                at -= 1;
            }
            let piece = *rng.choose(POOL);
            match rng.gen_range_usize(0, 3) {
                0 if at < jsonl.len() => {
                    let end = at + jsonl[at..].chars().next().map_or(0, char::len_utf8);
                    jsonl.replace_range(at..end, piece);
                }
                1 if at < jsonl.len() => {
                    jsonl.remove(at);
                }
                _ => jsonl.insert_str(at, piece),
            }
        }
        match catch_unwind(AssertUnwindSafe(|| Trace::from_jsonl(&jsonl))) {
            Ok(Ok(_)) => accepted += 1,
            Ok(Err(e)) => assert!(
                (1..=lines + 3).contains(&e.line),
                "error line {} past the end: {e}",
                e.line
            ),
            Err(_) => panic!("from_jsonl panicked on {jsonl:?}"),
        }
    }
    assert!(
        (20..1_980).contains(&accepted),
        "{accepted} of 2000 mutants accepted"
    );
}
