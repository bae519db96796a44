//! Wire text and heap ids of long sessions, pinned before the MiniJS heap
//! learned to free dead cells. Collection happens at every agreed base
//! (`Browser::state_base`) and must be invisible from outside: ids never
//! move, so every uplink and downlink script, and `heap.len()` on both
//! sides after every round, stay what they were.
//!
//! The rounds are replayed by [`Replay`], from the same public layer
//! calls an `OffloadSession` makes, so each script is in hand. Each round
//! renders as one line; a config pins the FNV-1a of its lines and its
//! last line.

use snapedge_core::SessionConfig;
use snapedge_integration::{Replay, Round};
use snapedge_webapp::intern::fnv1a;

const ROUNDS: u64 = 50;

/// One round as one line: both wire scripts, both heaps' cell counts
/// after the round, and the label the client shows.
fn line(replay: &mut Replay, round: u64) -> String {
    let Round { up, down } = replay.round(round).unwrap();
    format!(
        "round {round}: up {} B {:016x}, down {} B {:016x}, cells client {} server {}, result {}",
        up.script.len(),
        fnv1a(up.script.as_bytes()),
        down.script.len(),
        fnv1a(down.script.as_bytes()),
        replay.client.browser.core().heap.len(),
        replay.server.browser.core().heap.len(),
        replay.client.browser.element_text("result").unwrap(),
    )
}

fn assert_pinned(name: &str, cfg: SessionConfig, want_digest: u64, want_last: &str) {
    let mut replay = Replay::new(cfg).unwrap();
    let lines: Vec<String> = (1..=ROUNDS).map(|r| line(&mut replay, r)).collect();
    let digest = fnv1a(lines.join("\n").as_bytes());
    let last = lines.last().map(String::as_str).unwrap_or_default();
    assert_eq!(
        (digest, last),
        (want_digest, want_last),
        "{name}: the wire or the heap ids moved; rounds:\n{}",
        lines.join("\n")
    );
}

#[test]
fn agenet_full_delta_rounds_are_pinned() {
    assert_pinned(
        "agenet",
        SessionConfig::paper("agenet"),
        0x5b6f16380e12514e,
        "round 50: up 70352 B de6369dd24b13dc1, down 205 B b6042d22c4abf242, \
         cells client 0 server 0, result (25-32) (score 5.539)",
    );
}

#[test]
fn agenet_first_pool_rounds_are_pinned() {
    assert_pinned(
        "agenet@1st_pool",
        SessionConfig::paper_builder("agenet")
            .cut("1st_pool")
            .build(),
        0x0ae643b06ef99bed,
        "round 50: up 1459024 B 3f91c589100d508e, down 221 B 3fc1c20611c25e11, \
         cells client 49 server 100, result (25-32) (score 5.539)",
    );
}

#[test]
fn agenet_third_pool_rounds_are_pinned() {
    assert_pinned(
        "agenet@3rd_pool",
        SessionConfig::paper_builder("agenet")
            .cut("3rd_pool")
            .build(),
        0xe9a25a5e2679e57d,
        "round 50: up 365027 B d4da4b390311c109, down 221 B 3fc1c20611c25e11, \
         cells client 49 server 100, result (25-32) (score 5.539)",
    );
}

/// A metered `3rd_pool` session: the meter counts cell ids ever
/// allocated, so `ops_used`, `peak_heap` and the round the heap cap trips
/// on must not notice that dead cells are freed. The cap trips mid-run.
#[test]
fn a_metered_partial_session_trips_its_heap_cap_on_the_same_round() {
    use snapedge_core::{MeterLimits, OffloadSession};
    let cfg = SessionConfig::paper_builder("agenet")
        .cut("3rd_pool")
        .meter(MeterLimits::default().with_heap_cells(HEAP_CAP))
        .build();
    let mut session = OffloadSession::new(cfg).unwrap();
    let lines: Vec<String> = (1..=30u64)
        .map(|round| {
            let r = session.infer(round).unwrap();
            format!(
                "round {round}: server {} fell_back {} ops {} peak_heap {} up {} B down {} B",
                r.server.as_deref().unwrap_or("client"),
                r.fell_back,
                r.ops_used,
                r.peak_heap,
                r.up_bytes,
                r.down_bytes
            )
        })
        .collect();
    let tripped = lines.iter().position(|l| l.contains("fell_back true"));
    let digest = fnv1a(lines.join("\n").as_bytes());
    assert_eq!(
        (tripped, digest),
        (Some(20), 0x67f7d61477ed31de),
        "the metered session moved; rounds:\n{}",
        lines.join("\n")
    );
}

const HEAP_CAP: usize = 41;
