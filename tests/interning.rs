//! Interning + incremental-capture suite (ISSUE 9 tentpole).
//!
//! The contract under test:
//!
//! 1. **Incrementality is invisible on the wire** — dirty-tracked delta
//!    capture (the default) produces byte-identical reports, traces and
//!    wire bytes to the legacy full heap walk: `tests/combinations.rs`
//!    checks sessions across the switch and chaos matrix (its oracle 5).
//! 2. **Incrementality is meter-visible** — a round that mutates 1 of N
//!    held globals charges capture work proportional to the state
//!    *changed*, not the state *held* (asserted via meter `ops_used`),
//!    while the emitted script stays byte-identical.
//! 3. **Foreign bases fall back safely** — capturing against a
//!    [`StateBase`] recorded by a different browser takes the legacy walk
//!    and still emits the same bytes.

use snapedge_webapp::{Browser, DeltaCapture, MeterLimits, SnapshotOptions};

/// The legacy capture path: full deep comparison of every global.
fn legacy_options() -> SnapshotOptions {
    SnapshotOptions {
        incremental: false,
        ..SnapshotOptions::default()
    }
}

/// A page holding `held` ballast arrays whose `tick` handler mutates a
/// single element of the first one.
fn ballast_app(held: usize) -> String {
    let mut script = String::new();
    for i in 0..held {
        script.push_str(&format!(
            "var held{i} = [{i}, {}, {}, {}];\n",
            i + 1,
            i + 2,
            i + 3
        ));
    }
    script.push_str(
        "function onTick() { held0[0] = held0[0] + 1; }\n\
         document.getElementById(\"btn\").addEventListener(\"tick\", onTick);\n",
    );
    format!(
        "<html><body>\n<button id=\"btn\">go</button>\n</body>\n<script>\n{script}</script></html>\n"
    )
}

/// Loads the ballast app, anchors a base, fires one `tick`, then captures
/// under `options`, returning the script and the meter ops the capture
/// itself charged.
fn metered_capture(held: usize, options: &SnapshotOptions) -> (String, u64) {
    let mut browser = Browser::new();
    browser.set_meter(MeterLimits::default().with_ops(u64::MAX / 2));
    browser.load_html(&ballast_app(held)).unwrap();
    browser.run_until_idle().unwrap();
    let base = browser.state_base();
    browser.dispatch("btn", "tick").unwrap();
    browser.run_until_idle().unwrap();
    let before = browser.meter().unwrap().total_ops();
    let script = match browser.capture_delta(&base, options).unwrap() {
        DeltaCapture::Delta(d) => d.script().to_string(),
        DeltaCapture::FullRequired { reason } => panic!("delta refused: {reason}"),
    };
    let after = browser.meter().unwrap().total_ops();
    (script, after - before)
}

#[test]
fn incremental_capture_charges_o_changed_not_o_held() {
    const HELD: usize = 64;
    let (inc_script, inc_ops) = metered_capture(HELD, &SnapshotOptions::default());
    let (full_script, full_ops) = metered_capture(HELD, &legacy_options());

    assert_eq!(
        inc_script, full_script,
        "incremental capture must stay bit-identical"
    );
    assert!(inc_ops > 0, "capture work must be meter-visible");
    assert!(
        full_ops >= HELD as u64,
        "the full walk deep-compares every held global (charged {full_ops})"
    );
    assert!(
        inc_ops * 8 <= full_ops,
        "incremental capture must scale with state changed, not held \
         (incremental {inc_ops} vs full {full_ops})"
    );
}

#[test]
fn capture_against_a_foreign_base_falls_back_to_the_legacy_walk() {
    let app = ballast_app(4);

    // `donor` anchors the base; `other` (identical state, different
    // browser) captures against it — origin mismatch, legacy path.
    let mut donor = Browser::new();
    donor.load_html(&app).unwrap();
    donor.run_until_idle().unwrap();
    let foreign_base = donor.state_base();

    let capture = |browser: &mut Browser, base: &snapedge_webapp::StateBase| {
        browser.dispatch("btn", "tick").unwrap();
        browser.run_until_idle().unwrap();
        match browser
            .capture_delta(base, &SnapshotOptions::default())
            .unwrap()
        {
            DeltaCapture::Delta(d) => d.script().to_string(),
            DeltaCapture::FullRequired { reason } => panic!("delta refused: {reason}"),
        }
    };

    let mut other = Browser::new();
    other.load_html(&app).unwrap();
    other.run_until_idle().unwrap();
    let foreign_script = capture(&mut other, &foreign_base);

    let mut native = Browser::new();
    native.load_html(&app).unwrap();
    native.run_until_idle().unwrap();
    let native_base = native.state_base();
    let native_script = capture(&mut native, &native_base);

    assert_eq!(
        foreign_script, native_script,
        "foreign-base capture must emit the same bytes via the legacy walk"
    );
}

#[test]
fn repeated_incremental_captures_from_one_base_stay_stable() {
    // Dirty sets are reset only by `state_base`, never by capture — so a
    // second capture from the same base must see the same accumulated
    // changes and emit the same script.
    let mut browser = Browser::new();
    browser.load_html(&ballast_app(8)).unwrap();
    browser.run_until_idle().unwrap();
    let base = browser.state_base();
    browser.dispatch("btn", "tick").unwrap();
    browser.run_until_idle().unwrap();

    let grab = |b: &mut Browser| match b.capture_delta(&base, &SnapshotOptions::default()).unwrap()
    {
        DeltaCapture::Delta(d) => d.script().to_string(),
        DeltaCapture::FullRequired { reason } => panic!("delta refused: {reason}"),
    };
    let first = grab(&mut browser);
    let second = grab(&mut browser);
    assert_eq!(first, second, "capture must not consume the dirty sets");
    assert!(first.contains("held0"), "the mutated global is re-emitted");
}
