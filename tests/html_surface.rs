//! The HTML surface answers every input with `Ok` or a typed `WebError`.
//!
//! `html::parse_document` reads both the app a client loads and every
//! snapshot a migration restores, so any byte a link or a bug can flip
//! reaches it. The seeded loops byte-mutate the agenet app and a captured
//! cold snapshot of it, with tag, entity and script-marker fragments in the
//! pool so the mutants hit the parser's scans rather than only the image
//! text, and run each mutant through `parse_document` and `load_html`.

use snapedge_core::apps::{full_inference_app, synthetic_image_data_url, FULL_OFFLOAD_EVENT};
use snapedge_rng::Rng;
use snapedge_webapp::{html, Browser, SnapshotOptions, WebError};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The agenet app with a short image, so mutations spread over the markup
/// and the script instead of landing almost all in the data URL.
fn agenet_app() -> String {
    full_inference_app(&synthetic_image_data_url(5, 96))
}

/// What the client ships on a cold round: the app, image loaded, stopped
/// just before the offloaded event.
fn cold_snapshot() -> String {
    let mut b = Browser::new();
    b.set_offload_trigger(Some(FULL_OFFLOAD_EVENT));
    b.load_html(&agenet_app()).unwrap();
    b.dispatch("load", "click").unwrap();
    b.run_until_idle().unwrap();
    b.dispatch("infer", "click").unwrap();
    b.run_until_idle().unwrap();
    let snapshot = b.capture_snapshot(&SnapshotOptions::default()).unwrap();
    snapshot.html().to_string()
}

/// Parses and loads `src`: `Ok(true)` when both accept it, `Ok(false)`
/// when they fail with the same typed error or only the scripts fail.
fn verdict(src: &str) -> Result<bool, String> {
    let parsed = html::parse_document(src).map(|_| ());
    let mut b = Browser::new();
    b.set_max_steps(100_000);
    let loaded = b.load_html(src);
    match (parsed, loaded) {
        (Ok(()), Ok(())) => Ok(true),
        (Err(p), Err(l)) if p == l => Ok(false),
        (Ok(()), Err(e)) if !matches!(e, WebError::Html(_)) => Ok(false),
        (p, l) => Err(format!("parse_document {p:?}, load_html {l:?}")),
    }
}

fn mutate(rng: &mut Rng, base: &str) -> String {
    const POOL: &[&str] = &[
        "<",
        ">",
        "/",
        "\"",
        "=",
        "&",
        ";",
        " ",
        "a",
        "é",
        "<div>",
        "</div>",
        "</",
        "&lt;",
        "&amp;",
        "&quot",
        "<script>",
        "</script>",
        "</SCRIPT>",
        "</scr",
        "<!",
        "<body>",
        "</html>",
    ];
    let mut s = base.to_string();
    for _ in 0..rng.gen_range_usize(1, 4) {
        let mut at = rng.gen_range_usize(0, s.len() + 1);
        while !s.is_char_boundary(at) {
            at -= 1;
        }
        let piece = *rng.choose(POOL);
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

#[test]
fn byte_mutated_apps_and_snapshots_parse_or_fail_without_panicking() {
    for (name, base, seed) in [
        ("agenet app", agenet_app(), 29_000),
        ("cold snapshot", cold_snapshot(), 31_000),
    ] {
        assert_eq!(verdict(&base), Ok(true), "{name} itself");
        let mut accepted = 0;
        for case in 0..2_000u64 {
            let mut rng = Rng::seed_from_u64(seed + case);
            let src = mutate(&mut rng, &base);
            match catch_unwind(AssertUnwindSafe(|| verdict(&src))) {
                Ok(Ok(ok)) => accepted += usize::from(ok),
                Ok(Err(disagree)) => panic!("{name}: {disagree} on {src:?}"),
                Err(_) => panic!("{name}: panicked on {src:?}"),
            }
        }
        // The mutations must leave both answers populated.
        assert!(
            (100..1_900).contains(&accepted),
            "{name}: {accepted} of 2000 mutants accepted"
        );
    }
}

#[test]
fn the_cold_snapshot_round_trips_through_the_parser() {
    let snapshot = cold_snapshot();
    let parsed = html::parse_document(&snapshot).unwrap();
    assert_eq!(parsed.scripts.len(), 1);
    assert_eq!(
        html::serialize_body(&parsed.document),
        snapshot["<html><body>".len()..snapshot.find("</body>").unwrap()]
    );
}
