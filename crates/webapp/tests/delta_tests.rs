//! Tests for delta snapshots (the paper's future-work direction): a diff
//! script applied to the state left at the server must reproduce exactly
//! the state a full snapshot would have delivered.

use snapedge_rng::Rng;
use snapedge_webapp::{
    state_eq, Browser, DeltaCapture, JsValue, MeterLimits, SnapshotOptions, StateBase,
};

/// Builds a client/server pair agreeing on the state produced by `setup`,
/// returning both plus the agreed base.
fn agreed_pair(setup: &str) -> (Browser, Browser, StateBase) {
    let mut client = Browser::new();
    client.exec_script(setup).unwrap();
    let snapshot = client
        .capture_snapshot(&SnapshotOptions::default())
        .unwrap();
    let mut server = Browser::new();
    server.load_html(snapshot.html()).unwrap();
    // Client keeps running its own state; both sides record the agreement.
    let base = client.state_base();
    (client, server, base)
}

/// Captures a delta on the client, applies it on the server, and asserts
/// equality with the client's current state.
fn roundtrip_delta(client: &mut Browser, server: &mut Browser, base: &StateBase) -> u64 {
    let capture = client
        .capture_delta(base, &SnapshotOptions::default())
        .unwrap();
    let DeltaCapture::Delta(delta) = capture else {
        panic!("expected a delta, got {capture:?}");
    };
    server.apply_delta(&delta).unwrap();
    assert!(
        state_eq(client, server),
        "delta did not reproduce the client state; script:\n{}",
        delta.script()
    );
    delta.size_bytes()
}

#[test]
fn changed_global_travels_as_a_delta() {
    let (mut client, mut server, base) = agreed_pair(
        r#"
        var big = {payload: new Float32Array(0)};
        var counter = 0;
        var filler = [];
        for (var i = 0; i < 500; i += 1) { filler.push({idx: i, name: "item" + i}); }
        "#,
    );
    client.exec_script("counter = 7;").unwrap();
    let bytes = roundtrip_delta(&mut client, &mut server, &base);
    // The delta must not re-ship the unchanged `filler` structure.
    let full = client
        .capture_snapshot(&SnapshotOptions::default())
        .unwrap()
        .size_bytes();
    assert!(bytes < full / 20, "delta {bytes} vs full {full}");
    assert_eq!(server.global("counter"), JsValue::Number(7.0));
}

#[test]
fn new_global_and_new_function_travel() {
    let (mut client, mut server, base) = agreed_pair("var a = 1;");
    client
        .exec_script("var b = {x: [1, 2]}; function f(v) { return v + 1; }")
        .unwrap();
    roundtrip_delta(&mut client, &mut server, &base);
    assert_eq!(
        server
            .call_function_by_name("f", &[JsValue::Number(4.0)])
            .unwrap(),
        JsValue::Number(5.0)
    );
}

#[test]
fn changed_function_body_travels() {
    let (mut client, mut server, base) = agreed_pair("function f() { return 1; } var unused = 0;");
    client.exec_script("function f() { return 2; }").unwrap();
    roundtrip_delta(&mut client, &mut server, &base);
    assert_eq!(
        server.call_function_by_name("f", &[]).unwrap(),
        JsValue::Number(2.0)
    );
}

#[test]
fn dom_text_and_attribute_edits_travel() {
    let (mut client, mut server, base) = agreed_pair(
        r#"
        var el = document.createElement("div");
        el.setAttribute("id", "out");
        el.setAttribute("class", "old");
        document.body.appendChild(el);
        "#,
    );
    client
        .exec_script(
            r#"
            var e = document.getElementById("out");
            e.textContent = "updated";
            e.setAttribute("class", "new");
            e.setAttribute("data-extra", "1");
            "#,
        )
        .unwrap();
    roundtrip_delta(&mut client, &mut server, &base);
    assert_eq!(server.element_text("out").unwrap(), "updated");
}

#[test]
fn attribute_removal_travels() {
    let (mut client, mut server, base) = agreed_pair(
        r#"
        var el = document.createElement("div");
        el.setAttribute("id", "x");
        el.setAttribute("temp", "y");
        document.body.appendChild(el);
        "#,
    );
    client
        .exec_script("document.getElementById(\"x\").removeAttribute(\"temp\");")
        .unwrap();
    roundtrip_delta(&mut client, &mut server, &base);
}

#[test]
fn appended_elements_travel() {
    let (mut client, mut server, base) = agreed_pair(
        r#"
        var list = document.createElement("ul");
        list.setAttribute("id", "list");
        document.body.appendChild(list);
        "#,
    );
    client
        .exec_script(
            r#"
            var item = document.createElement("li");
            item.setAttribute("id", "item1");
            item.textContent = "first";
            var nested = document.createElement("span");
            nested.setAttribute("id", "n1");
            nested.textContent = "deep";
            item.appendChild(nested);
            document.getElementById("list").appendChild(item);
            "#,
        )
        .unwrap();
    roundtrip_delta(&mut client, &mut server, &base);
    assert_eq!(server.element_text("item1").unwrap(), "first");
    assert_eq!(server.element_text("n1").unwrap(), "deep");
}

#[test]
fn canvas_update_travels() {
    let (mut client, mut server, base) = agreed_pair(
        r#"
        var c = document.createElement("canvas");
        c.setAttribute("id", "cv");
        document.body.appendChild(c);
        "#,
    );
    client.set_canvas_image("cv", vec![0.5, 0.25]).unwrap();
    roundtrip_delta(&mut client, &mut server, &base);
    client
        .exec_script("document.getElementById(\"cv\").clearImage();")
        .unwrap();
    let base2 = server.state_base();
    roundtrip_delta(&mut client, &mut server, &base2);
}

#[test]
fn listener_addition_and_removal_travel() {
    let (mut client, mut server, base) = agreed_pair(
        r#"
        var btn = document.createElement("button");
        btn.setAttribute("id", "b");
        document.body.appendChild(btn);
        function h1() { return 1; }
        function h2() { return 2; }
        btn.addEventListener("click", h1);
        "#,
    );
    client
        .exec_script(
            r#"
            var b = document.getElementById("b");
            b.removeEventListener("click", h1);
            b.addEventListener("click", h2);
            "#,
        )
        .unwrap();
    roundtrip_delta(&mut client, &mut server, &base);
}

#[test]
fn pending_events_replay_through_deltas() {
    let (mut client, mut server, base) = agreed_pair(
        r#"
        var btn = document.createElement("button");
        btn.setAttribute("id", "go");
        var out = document.createElement("div");
        out.setAttribute("id", "out");
        document.body.appendChild(btn);
        document.body.appendChild(out);
        function work() { document.getElementById("out").textContent = "ran"; }
        btn.addEventListener("job", work);
        "#,
    );
    client.set_offload_trigger(Some("job"));
    client.dispatch("go", "job").unwrap();
    client.run_until_idle().unwrap(); // stops at the offload point
    let capture = client
        .capture_delta(&base, &SnapshotOptions::default())
        .unwrap();
    let DeltaCapture::Delta(delta) = capture else {
        panic!()
    };
    server.apply_delta(&delta).unwrap();
    server.run_until_idle().unwrap();
    assert_eq!(server.element_text("out").unwrap(), "ran");
}

#[test]
fn removed_global_forces_full_snapshot() {
    // MiniJS cannot delete a global; a removal can only be expressed by a
    // full snapshot. (Globals can only disappear via restore, so emulate.)
    let (client, _server, base) = agreed_pair("var a = 1; var b = 2;");
    let mut fresh = Browser::new();
    fresh.exec_script("var a = 1;").unwrap();
    let capture = fresh
        .capture_delta(&base, &SnapshotOptions::default())
        .unwrap();
    assert!(matches!(capture, DeltaCapture::FullRequired { .. }));
    drop(client);
}

#[test]
fn aliasing_between_changed_and_unchanged_forces_full() {
    let (mut client, _server, base) = agreed_pair(
        r#"
        var shared = {v: 1};
        var holder = {ptr: shared};
        "#,
    );
    // `holder` changes (its .ptr target mutates through `shared`)... both
    // will be flagged changed, but they share the cell with each other —
    // that's fine. The hazard: change only `holder` while `shared` still
    // aliases the same cell.
    client
        .exec_script("holder = {ptr: shared, extra: 1};")
        .unwrap();
    let capture = client
        .capture_delta(&base, &SnapshotOptions::default())
        .unwrap();
    assert!(
        matches!(capture, DeltaCapture::FullRequired { .. }),
        "shared-cell delta must be refused, got {capture:?}"
    );
}

#[test]
fn element_removal_forces_full() {
    let (_client, mut server, _base) = agreed_pair(
        r#"
        var el = document.createElement("div");
        el.setAttribute("id", "gone");
        document.body.appendChild(el);
        "#,
    );
    // Rebuild a client WITHOUT the element, using the server's state as
    // base (which has it).
    let base = server.state_base();
    let mut fresh = Browser::new();
    fresh.exec_script("var el = null;").unwrap();
    let capture = fresh
        .capture_delta(&base, &SnapshotOptions::default())
        .unwrap();
    assert!(matches!(capture, DeltaCapture::FullRequired { .. }));
    // keep `server` alive for clarity
    let _ = server.core();
}

#[test]
fn repeated_deltas_stay_consistent() {
    let (mut client, mut server, mut base) = agreed_pair(
        r#"
        var n = 0;
        var log = [];
        "#,
    );
    for round in 1..=5 {
        client
            .exec_script(&format!("n = {round}; log.push({round});"))
            .unwrap();
        // `log` mutates in place — it is a changed global each round.
        roundtrip_delta(&mut client, &mut server, &base);
        base = client.state_base();
        assert_eq!(server.global("n"), JsValue::Number(round as f64));
    }
}

#[test]
fn identical_states_produce_an_empty_ish_delta() {
    let (mut client, mut server, base) = agreed_pair("var x = {a: [1, 2, 3]};");
    let bytes = roundtrip_delta(&mut client, &mut server, &base);
    assert!(bytes < 200, "no-change delta should be tiny, got {bytes}");
}

/// One random mutation between `state_base` and capture, as MiniJS source.
/// `objects` are the globals holding `{n, inner: {v: [..]}}`; a new global
/// joins them, so later rounds mutate it too.
fn random_mutation(rng: &mut Rng, objects: &mut Vec<String>) -> String {
    let k = rng.gen_range_u64(0, 1000);
    let g = rng.choose(objects).clone();
    match rng.gen_range_u64(0, 8) {
        0 => format!("{g} = {{n: {k}, inner: {{v: [{k}, 2]}}}};"),
        1 => format!("{g}.inner.v[0] = {k};"),
        // The same write through a function-local alias (`poke`'s `o`).
        2 => format!("poke({g}, {k});"),
        3 => format!("{g}.inner.v.push({k});"),
        4 => {
            let name = format!("n{}", objects.len());
            objects.push(name.clone());
            format!("var {name} = {{n: {k}, inner: {{v: [{k}]}}}};")
        }
        // An alias from `g` into another global's sub-heap: a hazard
        // exactly when the other global is not changed too.
        5 => format!("{g}.link = {}.inner;", rng.choose(objects)),
        // Written and reverted before capture: dirty, yet deep-equal.
        6 => format!("{g}.n = {g}.n + 1; {g}.n = {g}.n - 1;"),
        _ => format!("scalar = {k}; scalar = 0;"),
    }
}

#[test]
fn incremental_capture_equals_the_reference_walk_on_random_mutations() {
    let reference = SnapshotOptions {
        incremental: false,
        ..SnapshotOptions::default()
    };
    let (mut deltas, mut shared_refusals) = (0, 0);
    let (mut incremental_ops, mut reference_ops) = (0, 0);
    for seed in 0..64u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let mut objects: Vec<String> = (0..6).map(|i| format!("g{i}")).collect();
        let mut setup =
            String::from("var scalar = 0;\nfunction poke(o, k) { o.inner.v[0] = k; }\n");
        for (i, g) in objects.iter().enumerate() {
            setup.push_str(&format!("var {g} = {{n: {i}, inner: {{v: [{i}, 1]}}}};\n"));
        }
        let mut client = Browser::new();
        client.set_meter(MeterLimits::default().with_ops(u64::MAX / 2));
        client.exec_script(&setup).unwrap();
        // Re-anchoring every round carries earlier aliases and new globals
        // into the next base, as a session's rounds do.
        for round in 0..4 {
            let base = client.state_base();
            let mut script = String::new();
            for _ in 0..rng.gen_range_usize(1, 6) {
                script.push_str(&random_mutation(&mut rng, &mut objects));
                script.push('\n');
            }
            client.exec_script(&script).unwrap();
            let mut capture = |options: &SnapshotOptions, ops: &mut u64| {
                let before = client.meter().unwrap().total_ops();
                let capture = client.capture_delta(&base, options).unwrap();
                *ops += client.meter().unwrap().total_ops() - before;
                capture
            };
            let incremental = capture(&SnapshotOptions::default(), &mut incremental_ops);
            let walked = capture(&reference, &mut reference_ops);
            // Debug prints the whole script, its stats, or the refusal
            // reason with its cell id: equal text is equal bytes.
            assert_eq!(
                format!("{incremental:?}"),
                format!("{walked:?}"),
                "seed {seed} round {round} after:\n{script}"
            );
            match incremental {
                DeltaCapture::Delta(_) => deltas += 1,
                DeltaCapture::FullRequired { reason } => {
                    assert!(reason.contains("is shared between"), "{reason}");
                    shared_refusals += 1;
                }
            }
        }
    }
    assert!(deltas >= 32, "{deltas} deltas");
    assert!(shared_refusals >= 32, "{shared_refusals} aliasing refusals");
    // The anchored path ran: it deep-compared fewer cells than the walk.
    assert!(
        incremental_ops < reference_ops,
        "incremental {incremental_ops} vs reference {reference_ops}"
    );
}
