//! A session's memory is bounded by its live state, not by its round
//! count. The MiniJS heap frees the cells no global reaches at every
//! agreed base, so a long session's live bytes stop growing once it is
//! warm; before that, a `3rd_pool` session held one dead feature map per
//! side per round (~164 kB a round).
//!
//! Nor by the size of its image beyond one copy a side: a script string,
//! the literal it was parsed from, the DOM attribute it is written to and
//! every state base share one allocation, and a browser ends every
//! restore and delta apply with its byte-equal long strings shared, so a
//! session holds the photo about twice, not ten times. A session that has
//! run no round holds no photo at all: it loads its app with an empty
//! `src`, and each round draws its own image.
//!
//! Measured deterministically: a counting global allocator reports the
//! bytes the calling thread holds, and the gates are the growth between
//! round 10 and a late round, and the bytes one image's size adds, not
//! RSS. A session never leaves the thread that built it, so tests running
//! side by side (and their threads' teardown) do not blur each other's
//! counts.

use snapedge_core::{ArrivalProcess, Engine, OffloadSession, SessionConfig};
use snapedge_dnn::{zoo, ExecMode};
use snapedge_integration::{LocalOracle, Replay};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

/// The system allocator, counting per thread the bytes it has handed
/// out and not taken back.
struct LiveBytes;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static ASKED: Cell<u64> = const { Cell::new(0) };
}

fn count(delta: i64) {
    LIVE.with(|live| live.set(live.get() + delta));
}

/// Counts one allocation or reallocation call asking for `size` bytes.
fn call(size: usize) {
    CALLS.with(|calls| calls.set(calls.get() + 1));
    ASKED.with(|asked| asked.set(asked.get() + size as u64));
}

/// Allocation and reallocation calls the calling thread has made.
fn calls() -> u64 {
    CALLS.with(Cell::get)
}

/// Bytes the calling thread has asked for: every allocation's size and
/// every reallocation's new size (the benchmark's
/// `alloc.bytes_per_round` counts the same way).
fn asked() -> u64 {
    ASKED.with(Cell::get)
}

/// Bytes the calling thread has allocated and not freed.
fn live() -> i64 {
    LIVE.with(Cell::get)
}

// SAFETY: every call forwards to `System` with the caller's own layout
// and pointer; the counter only observes sizes, and its thread-local
// slot is a plain `Cell` that neither allocates nor needs a destructor.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        call(layout.size());
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        call(layout.size());
        // SAFETY: forwarded contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        call(new_size);
        // SAFETY: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

/// What a round may add for good: the session's tracer keeps every
/// event (a `String` name and a few numbers each, ~2–3 kB a round),
/// plus headroom for allocator-sized vectors doubling inside the window.
const SLACK_PER_ROUND: i64 = 4 * 1024;

/// Runs `to` rounds and returns the live bytes gained between the end
/// of round `from` and the end of round `to`.
fn growth(cfg: SessionConfig, from: u64, to: u64) -> i64 {
    let mut session = OffloadSession::new(cfg).unwrap();
    let mut warm = 0;
    for round in 1..=to {
        let report = session.infer(round).unwrap();
        assert!(!report.fell_back, "round {round} fell back");
        if round == from {
            warm = live();
        }
    }
    live() - warm
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

/// An agenet session after `rounds` rounds.
fn session(cfg: SessionConfig, rounds: u64) -> OffloadSession {
    let mut session = OffloadSession::new(cfg).unwrap();
    for round in 1..=rounds {
        let report = session.infer(round).unwrap();
        assert!(!report.fell_back, "round {round} fell back");
    }
    session
}

/// The photo sizes the copy gates compare: agenet's 35 kB of data-URL
/// text against a 2 kB one. Live bytes with the big photo minus live
/// bytes with the small one, over the 33 kB difference, is how many
/// copies of the image are held. A thread's interner grows with the
/// first session it runs, so each gate runs a small one first and keeps
/// that growth out of the difference.
const BIG: usize = 35_000;
const SMALL: usize = 2_000;

/// The live bytes `build` leaves in what it returns, built from an
/// agenet config whose photo is `bytes` long.
fn held<T>(bytes: usize, build: &impl Fn(SessionConfig) -> T) -> i64 {
    let before = live();
    let cfg = SessionConfig::paper_builder("agenet")
        .image_bytes(bytes)
        .build();
    let value = build(cfg);
    let held = live() - before;
    drop(value);
    held
}

/// The live bytes the big photo adds over the small one to what `build`
/// returns.
fn photo_bytes<T>(build: impl Fn(SessionConfig) -> T) -> i64 {
    held(SMALL, &build);
    held(BIG, &build) - held(SMALL, &build)
}

/// Copies of the photo an agenet session holds after `rounds` rounds.
fn session_copies(rounds: u64) -> f64 {
    photo_bytes(|cfg| session(cfg, rounds)) as f64 / (BIG - SMALL) as f64
}

/// At most one copy per side plus a little: each browser ends every
/// restore and every delta apply with byte-equal long strings shared.
const MAX_COPIES: f64 = 2.5;

/// After five delta rounds: the server lexes the delta's
/// `setAttribute("src", "…")` and `imageUrl = "…"` literals apart, and
/// every AST clone, value, attribute and base could be a copy of its own.
#[test]
fn a_session_holds_its_image_a_few_times_not_ten() {
    let copies = session_copies(5);
    assert!(
        copies <= MAX_COPIES,
        "agenet after 5 rounds: {copies:.2} copies of the image (want at most {MAX_COPIES})"
    );
}

/// After one cold round: a full snapshot up and a full snapshot down,
/// each restored by parsing the `<img src>` attribute out of the markup
/// and the `imageUrl` global out of a script. Unshared, that is two
/// copies a side.
#[test]
fn a_cold_round_holds_its_image_once_a_side() {
    let copies = session_copies(1);
    assert!(
        copies <= MAX_COPIES,
        "agenet after one cold round: {copies:.2} copies of the image (want at most {MAX_COPIES})"
    );
}

/// The fleet view: ten agenet clients on one server, closed loop with
/// 2 s think time over the default 60 s horizon (`fleet_real`'s shape,
/// a fifth of its clients). At the end of `run()` the engine holds at
/// most 2.5 copies of the photo per client.
#[test]
fn a_fleet_holds_its_images_a_few_times_a_client() {
    const CLIENTS: usize = 10;
    let extra = photo_bytes(|cfg| {
        let mut engine =
            Engine::sessions(cfg, CLIENTS)
                .unwrap()
                .arrival(ArrivalProcess::ClosedLoop {
                    think: Duration::from_secs(2),
                });
        assert!(
            engine.run().unwrap().completed > 0,
            "the fleet completed no round"
        );
        engine
    });
    let copies = extra as f64 / (BIG - SMALL) as f64 / CLIENTS as f64;
    assert!(
        copies <= MAX_COPIES,
        "{CLIENTS} agenet clients: {extra} B more live with a {BIG} B image than a {SMALL} B one: \
         {copies:.2} copies a client (want at most {MAX_COPIES})"
    );
}

/// What a built session or fleet may hold more with the big photo than
/// with the small one: nothing, give or take allocator rounding. A photo
/// drawn at construction, which no round ever read, held ~33 kB a client.
const BUILT_SLACK: i64 = 1024;

/// A session loads its app with an empty photo: every round draws its
/// own image into it before the `load` click.
#[test]
fn a_built_session_holds_no_photo() {
    let extra = photo_bytes(|cfg| session(cfg, 0));
    assert!(
        extra.abs() < BUILT_SLACK,
        "a built agenet session holds {extra} B more with a {BIG} B photo than a {SMALL} B one \
         (want under {BUILT_SLACK})"
    );
}

/// The same for a real fleet's clients, built before its first event.
#[test]
fn a_built_fleet_holds_no_photo() {
    const CLIENTS: usize = 10;
    let extra = photo_bytes(|cfg| Engine::sessions(cfg, CLIENTS).unwrap());
    assert!(
        extra.abs() < BUILT_SLACK,
        "{CLIENTS} built agenet clients hold {extra} B more with a {BIG} B photo than a {SMALL} B one \
         (want under {BUILT_SLACK})"
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

/// Allocation calls and bytes asked for by round `round` of an agenet
/// session, with the `plan` gate consulted every round or not at all.
fn round_allocs(predict: bool, round: u64) -> (u64, u64) {
    let cfg = SessionConfig::paper_builder("agenet")
        .predict(predict)
        .build();
    let mut session = OffloadSession::new(cfg).unwrap();
    let mut before = (0, 0);
    for r in 1..=round {
        before = (calls(), asked());
        let report = session.infer(r).unwrap();
        assert!(report.server.is_some(), "round {r} ran locally");
    }
    (calls() - before.0, asked() - before.1)
}

/// A consulted `plan` gate builds the model's profile and cut list on
/// the first round that consults it and reuses them: a later round pays
/// for its one `gate:plan` trace event (5 calls), not for a planner
/// (114 calls when every round built one).
#[test]
fn a_consulted_plan_gate_reuses_its_planner() {
    let (on, off) = (round_allocs(true, 6).0, round_allocs(false, 6).0);
    assert!(
        on <= off + 8,
        "round 6 of an agenet session: {on} allocation calls with the plan gate, {off} without"
    );
}

/// The bytes round 6 of a default agenet session (deltas on: the
/// benchmark's `steady_delta`) asked for when the photo was drawn one
/// character at a time into a `String`.
const SERIAL_DRAW_ROUND_BYTES: u64 = 417_206;

/// A steady round draws its photo straight into one `String`: a scratch
/// buffer or a second copy of the 35 kB photo would ask for ~35 kB more
/// than the serial draw did.
#[test]
fn a_steady_round_asks_for_no_more_bytes_than_the_serial_draw() {
    let (_, bytes) = round_allocs(false, 6);
    assert!(
        bytes <= SERIAL_DRAW_ROUND_BYTES,
        "round 6 of an agenet session asked for {bytes} B (the serial draw's round: {SERIAL_DRAW_ROUND_BYTES} B)"
    );
}

/// Bytes the calling thread asks for while `build` runs and drops what
/// it returns.
fn asked_for<T>(build: impl FnOnce() -> T) -> u64 {
    let before = asked();
    drop(build());
    asked() - before
}

/// The output oracle is a replay's client alone: it builds no server
/// endpoint, so under `ExecMode::Real` it initialises one `ParamStore`,
/// not the two a whole `Replay` does. When it kept a `Replay`'s client,
/// both asked for the same bytes.
#[test]
fn a_local_oracle_builds_no_server() {
    let cfg = SessionConfig::tiny();
    assert_eq!(cfg.exec_mode, ExecMode::Real);
    // A thread's interner grows with the first app it loads.
    drop(Replay::new(cfg.clone()).unwrap());
    let owned = cfg.clone();
    let replay = asked_for(|| Replay::new(owned).unwrap());
    let oracle = asked_for(|| LocalOracle::new(&cfg).unwrap());
    let net = zoo::by_name(&cfg.model).unwrap();
    let params = asked_for(|| net.init_params(cfg.seed).unwrap());
    assert!(
        oracle + params <= replay,
        "LocalOracle::new asked for {oracle} B, Replay::new {replay} B; one tiny_cnn ParamStore is {params} B"
    );
}
