//! A session's memory is bounded by its live state, not by its round
//! count. The MiniJS heap frees the cells no global reaches at every
//! agreed base, so a long session's live bytes stop growing once it is
//! warm; before that, a `3rd_pool` session held one dead feature map per
//! side per round (~164 kB a round).
//!
//! Nor by the size of its image beyond a few copies: a script string,
//! the literal it was parsed from, the DOM attribute it is written to and
//! every state base share one allocation, so a session holds the photo
//! once per side plus the literals of the last delta, not ten times.
//!
//! Measured deterministically: a counting global allocator reports the
//! bytes live in this test binary, and the gates are the growth between
//! round 10 and a late round, and the bytes one image's size adds, not
//! RSS. The tests take a lock so that two sessions never allocate at once.

use snapedge_core::{OffloadSession, SessionConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Mutex;

/// The system allocator, counting the bytes it has handed out and not
/// taken back.
struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call forwards to `System` with the caller's own layout
// and pointer; the counter only observes sizes.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

static ONE_SESSION_AT_A_TIME: Mutex<()> = Mutex::new(());

/// What a round may add for good: the session's tracer keeps every
/// event (a `String` name and a few numbers each, ~2–3 kB a round),
/// plus headroom for allocator-sized vectors doubling inside the window.
const SLACK_PER_ROUND: i64 = 4 * 1024;

/// Runs `to` rounds and returns the live bytes gained between the end
/// of round `from` and the end of round `to`.
fn growth(cfg: SessionConfig, from: u64, to: u64) -> i64 {
    let _one = ONE_SESSION_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut session = OffloadSession::new(cfg).unwrap();
    let mut warm = 0;
    for round in 1..=to {
        let report = session.infer(round).unwrap();
        assert!(!report.fell_back, "round {round} fell back");
        if round == from {
            warm = LIVE.load(Ordering::Relaxed);
        }
    }
    LIVE.load(Ordering::Relaxed) - warm
}

fn assert_flat(name: &str, cfg: SessionConfig, from: u64, to: u64) {
    let grown = growth(cfg, from, to);
    let slack = SLACK_PER_ROUND * (to - from) as i64;
    assert!(
        grown < slack,
        "{name}: live bytes grew {grown} B from round {from} to {to} ({} B a round); slack {slack} B",
        grown / (to - from) as i64
    );
}

/// The live bytes a session holds after `rounds` rounds, session
/// included.
fn held(cfg: SessionConfig, rounds: u64) -> i64 {
    let _one = ONE_SESSION_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let before = LIVE.load(Ordering::Relaxed);
    let mut session = OffloadSession::new(cfg).unwrap();
    for round in 1..=rounds {
        let report = session.infer(round).unwrap();
        assert!(!report.fell_back, "round {round} fell back");
    }
    let held = LIVE.load(Ordering::Relaxed) - before;
    drop(session);
    held
}

/// An agenet session's photo is 35 kB of data-URL text against 2 kB for
/// the small one; after five delta rounds the difference in live bytes,
/// divided by the 33 kB difference, is how many copies of the image the
/// session keeps. Once it kept about ten (every AST clone, value, DOM
/// attribute and base its own `String`).
#[test]
fn a_session_holds_its_image_a_few_times_not_ten() {
    const BIG: usize = 35_000;
    const SMALL: usize = 2_000;
    let with = |bytes| {
        held(
            SessionConfig::paper_builder("agenet")
                .image_bytes(bytes)
                .build(),
            5,
        )
    };
    let extra = with(BIG) - with(SMALL);
    let copies = extra as f64 / (BIG - SMALL) as f64;
    assert!(
        copies <= 5.0,
        "agenet: {extra} B more live with a {BIG} B image than a {SMALL} B one: {copies:.2} copies (want at most 5)"
    );
}

#[test]
fn a_partial_session_holds_its_live_bytes_flat() {
    assert_flat(
        "agenet@3rd_pool",
        SessionConfig::paper_builder("agenet")
            .cut("3rd_pool")
            .build(),
        10,
        500,
    );
}

#[test]
fn a_full_delta_session_holds_its_live_bytes_flat() {
    assert_flat("agenet", SessionConfig::paper("agenet"), 10, 500);
}

/// The Odroid-sized view: 2 000 `3rd_pool` rounds, which once held
/// ~325 MB of dead feature maps, stay within 20 MB of round 10.
#[test]
#[ignore = "2 000 rounds: run in release (ci.sh)"]
fn a_long_partial_session_stays_within_twenty_megabytes() {
    let grown = growth(
        SessionConfig::paper_builder("agenet")
            .cut("3rd_pool")
            .build(),
        10,
        2_000,
    );
    assert!(
        grown < 20 << 20,
        "agenet@3rd_pool: live bytes grew {grown} B over 1 990 rounds"
    );
}
