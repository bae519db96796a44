//! MiniJS answers every input with `Ok` or a typed `WebError`.
//!
//! The lexer, the parser and the interpreter read the apps a client loads
//! and every script a migration ships, so any byte a link or a bug can flip
//! reaches them. The seeded loops byte-mutate the two paper apps, their
//! `<script>` bodies and a captured `3rd_pool` uplink delta, whose feature
//! map is a scanned `Float32Array` literal, and run each mutant through
//! `lex`, `parse_program` and `load_html` / `exec_script` under a step
//! budget.

use snapedge_core::{apps, Endpoint, SessionConfig};
use snapedge_dnn::{zoo, ParamStore};
use snapedge_net::SimClock;
use snapedge_rng::Rng;
use snapedge_webapp::lexer::{lex, Token};
use snapedge_webapp::parser::parse_program;
use snapedge_webapp::{html, Browser, DeltaCapture, RunOutcome, WebError};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The two paper apps with a short image, so mutations spread over the
/// markup and the script instead of landing almost all in the data URL.
fn paper_apps() -> [(&'static str, String); 2] {
    let url = apps::synthetic_image_data_url(5, 96);
    [
        ("full inference app", apps::full_inference_app(&url)),
        ("partial inference app", apps::partial_inference_app(&url)),
    ]
}

/// The uplink of an agenet `3rd_pool` session's second round, a delta
/// script carrying the 18 816-value feature map, and the snapshot of the
/// state it applies to.
fn third_pool_uplink() -> (String, String) {
    let cfg = SessionConfig::paper_builder("agenet")
        .cut("3rd_pool")
        .build();
    let net = zoo::by_name(&cfg.model).unwrap();
    let cut = net.cut_point("3rd_pool").unwrap().id;
    let clock = SimClock::new();
    let mut client = Endpoint::new("client", cfg.client_device.clone(), clock.clone());
    let spec = cfg.primary().clone();
    let mut server = Endpoint::new(&spec.name, spec.device.clone(), clock);
    for end in [&mut client, &mut server] {
        let params = ParamStore::empty(net.name());
        end.install_model(net.clone(), params, cfg.exec_mode, Some(cut), cfg.seed);
    }
    let url = apps::synthetic_image_data_url(cfg.seed, cfg.image_bytes);
    client
        .browser
        .load_html(&apps::partial_inference_app(&url))
        .unwrap();
    client
        .browser
        .set_offload_trigger(Some(apps::PARTIAL_OFFLOAD_EVENT));
    let opts = &cfg.snapshot;
    let mut agreed = None;
    let mut base_state = client.capture(opts).unwrap();
    for round in 1..=2 {
        let photo = client
            .browser
            .core()
            .doc
            .get_element_by_id("photo")
            .unwrap();
        let url = apps::synthetic_image_data_url(round, cfg.image_bytes);
        client
            .browser
            .core_mut()
            .doc
            .set_attr(photo, "src", &url)
            .unwrap();
        client.browser.click("load").unwrap();
        client.run().unwrap();
        client.browser.click("infer").unwrap();
        let outcome = client.run().unwrap();
        assert!(matches!(outcome, RunOutcome::OffloadPoint { .. }));
        if let Some(base) = &agreed {
            let DeltaCapture::Delta(delta) = client.capture_delta(base, opts).unwrap() else {
                panic!("round {round}: no delta");
            };
            let (snapshot, _) = base_state;
            return (delta.script().to_string(), snapshot.html().to_string());
        }
        let (snapshot, _) = client.capture(opts).unwrap();
        server.restore(&snapshot).unwrap();
        server.run().unwrap();
        let (snapshot, _) = server.capture(opts).unwrap();
        client.restore(&snapshot).unwrap();
        client.browser.set_offload_trigger(None);
        client.run().unwrap();
        client
            .browser
            .set_offload_trigger(Some(apps::PARTIAL_OFFLOAD_EVENT));
        agreed = Some(client.browser.state_base());
        base_state = client.capture(opts).unwrap();
    }
    unreachable!("the second round returns its uplink")
}

/// How far each stage got on one mutant.
#[derive(Default)]
struct Reached {
    lexed: usize,
    parsed: usize,
    ran: usize,
}

impl Reached {
    /// Lexes, parses and runs a script; every failure must be typed.
    fn script(&mut self, src: &str) {
        let lexed = lex(src).map(|_| ());
        let parsed = parse_program(src).map(|_| ());
        let mut b = Browser::new();
        b.set_max_steps(100_000);
        let ran = b.exec_script(src);
        self.count(lexed, parsed, ran);
    }

    /// Lexes and parses a script, and runs it on a browser holding the
    /// state it was captured against.
    fn delta(&mut self, base: &str, src: &str) {
        let lexed = lex(src).map(|_| ());
        let parsed = parse_program(src).map(|_| ());
        let mut b = Browser::new();
        b.load_html(base).unwrap();
        b.set_max_steps(100_000);
        let ran = b.exec_script(src);
        self.count(lexed, parsed, ran);
    }

    /// Parses and loads a document: its scripts are lexed, parsed and run
    /// by `load_html`.
    fn document(&mut self, src: &str) {
        let scripts = html::parse_document(src).map(|doc| doc.scripts);
        let lexed = scripts
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|s| s.iter().try_for_each(|s| lex(s).map(|_| ())));
        let parsed = scripts
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|s| s.iter().try_for_each(|s| parse_program(s).map(|_| ())));
        let mut b = Browser::new();
        b.set_max_steps(100_000);
        let ran = b.load_html(src);
        self.count(lexed, parsed, ran);
    }

    fn count(
        &mut self,
        lexed: Result<(), WebError>,
        parsed: Result<(), WebError>,
        ran: Result<(), WebError>,
    ) {
        self.lexed += usize::from(lexed.is_ok());
        self.parsed += usize::from(parsed.is_ok());
        self.ran += usize::from(ran.is_ok());
    }
}

fn mutate(rng: &mut Rng, base: &str) -> String {
    const POOL: &[&str] = &[
        "0",
        "5",
        "9",
        ".",
        ",",
        "-",
        "(",
        ")",
        "[",
        "]",
        "{",
        "}",
        "/",
        "*",
        "e",
        " ",
        "\n",
        "\"",
        "'",
        "\\",
        ";",
        "=",
        "é",
        "var ",
        "function ",
        "new Float32Array([",
        "])",
        "(0/0)",
        "(-1/0)",
        "(-",
        "0.99999999999999992",
        "1152921504606846912",
        "0000000000000000000000001",
        "//",
        "/*",
        "</script>",
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

/// 2 000 mutants of `base` through `stage`; returns how far they got.
fn mutants(name: &str, base: &str, seed: u64, stage: impl Fn(&mut Reached, &str)) -> Reached {
    let mut reached = Reached::default();
    for case in 0..2_000u64 {
        let mut rng = Rng::seed_from_u64(seed + case);
        let src = mutate(&mut rng, base);
        if catch_unwind(AssertUnwindSafe(|| stage(&mut reached, &src))).is_err() {
            panic!("{name}: panicked on case {case}: {src:?}");
        }
    }
    reached
}

#[test]
fn byte_mutated_apps_and_their_scripts_lex_parse_and_run_or_fail_typed() {
    for ((name, app), seed) in paper_apps().into_iter().zip([51_000, 53_000]) {
        let reached = mutants(name, &app, seed, Reached::document);
        // The mutations must leave both answers populated.
        assert!(
            (100..1_900).contains(&reached.ran),
            "{name}: {} ran",
            reached.ran
        );

        let scripts = html::parse_document(&app).unwrap().scripts;
        let script = scripts.concat();
        let reached = mutants(name, &script, seed + 1_000_000, Reached::script);
        assert!(
            (100..1_900).contains(&reached.parsed),
            "{name} script: {} parsed",
            reached.parsed
        );
    }
}

#[test]
fn byte_mutated_partial_uplinks_lex_parse_and_run_or_fail_typed() {
    let (uplink, base) = third_pool_uplink();
    // The feature map crosses as one scanned literal.
    let tokens = lex(&uplink).unwrap();
    assert!(tokens.len() < 1_000, "{} tokens", tokens.len());
    let scanned = tokens
        .iter()
        .filter(|t| matches!(&t.token, Token::F32List { data, .. } if data.len() == 18_816))
        .count();
    assert_eq!(scanned, 1);
    let mut unmutated = Reached::default();
    unmutated.delta(&base, &uplink);
    assert_eq!(
        (unmutated.lexed, unmutated.parsed, unmutated.ran),
        (1, 1, 1)
    );
    let reached = mutants("3rd_pool uplink", &uplink, 57_000, |r, src| {
        r.delta(&base, src)
    });
    assert!(
        (100..1_900).contains(&reached.lexed),
        "{} lexed",
        reached.lexed
    );
    assert!((100..1_900).contains(&reached.ran), "{} ran", reached.ran);
}
