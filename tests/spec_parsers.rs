//! The command-line spec parsers answer every input with `Ok` or `Err`.
//!
//! `RetryPolicy::parse`, `FaultPlan::parse`, `MeterLimits::parse` and
//! `parse_servers` turn user text into durations. A finite number of
//! seconds can still be too long for a `Duration` (about 1.8e19 s), and
//! converting it must be a parse error, not a panic. The literal cases pin
//! that; the seeded byte-mutation loops pin it for everything near a valid
//! spec, with exponent fragments in the mutation pool so overlong times
//! come up often.

use snapedge_core::{edge_server_x86, parse_servers, MeterLimits, RetryPolicy, ServerSpec};
use snapedge_net::{FaultPlan, LinkConfig};
use snapedge_rng::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

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
            ],
            Box::new(move |s| parse_servers(s, &template).is_ok()),
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
