//! Scanned ≡ general: a `new Float32Array([…])` the lexer scans into one
//! token must be indistinguishable — value bits, steps, meter, heap
//! numbering, errors — from the same text read token by token. The general
//! path is forced with one space after the `(`, which the scanner declines
//! and the grammar ignores.

use snapedge_rng::Rng;
use snapedge_webapp::lexer::{lex, Token};
use snapedge_webapp::parser::parse_expr;
use snapedge_webapp::{Browser, HeapCell, JsValue, MeterLimits, SnapshotOptions, Symbol};

const OPEN: &str = "new Float32Array(";

/// `OPEN` + `body`, and the same with the scanner locked out.
fn both(body: &str) -> (String, String) {
    (format!("{OPEN}{body}"), format!("{OPEN} {body}"))
}

fn is_scanned(src: &str) -> bool {
    lex(src).is_ok_and(|tokens| {
        tokens
            .iter()
            .any(|t| matches!(t.token, Token::F32List { .. }))
    })
}

/// What an expression evaluated to, in comparable form.
#[derive(Debug, PartialEq)]
enum Value {
    /// A `Float32Array`: its cell's id and element bits.
    Typed { id: usize, bits: Vec<u32> },
    /// Anything else, by its `Debug`.
    Other(String),
}

/// Everything evaluating `src` leaves behind that the two paths share.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// The value, or the error's `Debug` (kind, line and message).
    result: Result<Value, String>,
    steps: u64,
    heap_len: usize,
    next_id: usize,
    ops: u64,
    total_ops: u64,
    peak_heap: usize,
}

fn run(src: &str, limits: MeterLimits, max_steps: Option<u64>) -> Outcome {
    let mut b = Browser::new();
    // Cells from before the literal, so ids and the heap cap start off zero.
    b.exec_script("var held = [{}, [1]];").unwrap();
    b.set_meter(limits);
    if let Some(max) = max_steps {
        b.set_max_steps(max);
    }
    let result = match b.eval_expr(src) {
        Ok(JsValue::Float32Array(id)) => match b.core().heap.cell(id) {
            Ok(HeapCell::Float32Array(data)) => Ok(Value::Typed {
                id: id.index(),
                bits: data.iter().map(|v| v.to_bits()).collect(),
            }),
            other => panic!("{src}: typed value over {other:?}"),
        },
        Ok(other) => Ok(Value::Other(format!("{other:?}"))),
        Err(e) => Err(format!("{e:?}")),
    };
    let meter = b.meter().unwrap();
    let (ops, total_ops, peak_heap) = (meter.run_ops(), meter.total_ops(), meter.peak_heap());
    let heap_len = b.core().heap.len();
    let JsValue::Object(next) = b.core_mut().heap.alloc_object() else {
        panic!("alloc_object")
    };
    Outcome {
        result,
        steps: b.steps(),
        heap_len,
        next_id: next.index(),
        ops,
        total_ops,
        peak_heap,
    }
}

fn assert_paths_agree(body: &str, limits: &MeterLimits, max_steps: Option<u64>) -> Outcome {
    let (scanned, general) = both(body);
    assert!(!is_scanned(&general), "{general}");
    let a = run(&scanned, limits.clone(), max_steps);
    let b = run(&general, limits.clone(), max_steps);
    assert_eq!(a, b, "{scanned}\nlimits {limits:?} max_steps {max_steps:?}");
    a
}

/// The wire text of `data` — cut out of a real snapshot of a browser
/// holding it — minus the `OPEN` prefix.
fn rendered_body(data: &[f32]) -> String {
    let mut b = Browser::new();
    let value = b.core_mut().heap.alloc_f32(data.to_vec());
    b.core_mut().globals.insert(Symbol::intern("t"), value);
    let snapshot = b.capture_snapshot(&SnapshotOptions::default()).unwrap();
    let html = snapshot.html();
    let start = html.find(OPEN).unwrap() + OPEN.len();
    let len = html[start..].find("])").unwrap() + 2;
    html[start..start + len].to_string()
}

const SPECIALS: [f32; 12] = [
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    f32::MAX,
    f32::MIN,
    f32::MIN_POSITIVE,
    1.0e-45,  // smallest subnormal
    -1.0e-40, // a negative subnormal
    0.1,
    16_777_217.0,
];

fn random_data(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| match rng.gen_range_usize(0, 4) {
            0 => *rng.choose(&SPECIALS),
            // Short decimals, which stay `f32`s when a digit is mutated.
            1 | 2 => rng.gen_range_f64(-999.0, 999.0).round() as f32,
            // Any bit pattern: NaN payloads, both signs, subnormals.
            _ => f32::from_bits(rng.next_u64() as u32),
        })
        .collect()
}

#[test]
fn printer_output_scans_and_matches_the_general_path_bit_for_bit() {
    let unlimited = MeterLimits::default();
    for case in 0..300u64 {
        let mut rng = Rng::seed_from_u64(16_000 + case);
        let len = match case % 4 {
            0 => 0,
            1 => 1,
            _ => rng.gen_range_usize(2, 48),
        };
        let data = random_data(&mut rng, len);
        let body = rendered_body(&data);
        assert!(is_scanned(&both(&body).0), "case {case}: {body}");
        let out = assert_paths_agree(&body, &unlimited, None);
        // And both are what the printer started from (any NaN for a NaN).
        let Ok(Value::Typed { bits, .. }) = out.result else {
            panic!("case {case}: {:?}", out.result)
        };
        assert_eq!(bits.len(), data.len(), "case {case}");
        for (got, want) in bits.iter().zip(&data) {
            let got = f32::from_bits(*got);
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "case {case}: {got} vs {want}"
            );
        }
        let quotients = data.iter().filter(|v| !v.is_finite()).count();
        assert_eq!(out.steps, (2 + len + 2 * quotients) as u64, "case {case}");
        assert_eq!(out.heap_len, 3 + 2, "case {case}: list cell + typed cell");
    }
}

#[test]
fn byte_mutated_literals_give_equal_results_on_both_paths() {
    const ALPHABET: &[u8] = b"0123456789.,-()[]/ \n\texn\"'*+{};";
    let unlimited = MeterLimits::default();
    let mut scanned_cases = 0;
    for case in 0..2_000u64 {
        let mut rng = Rng::seed_from_u64(17_000 + case);
        let len = rng.gen_range_usize(0, 8);
        let mut body = rendered_body(&random_data(&mut rng, len)).into_bytes();
        for _ in 0..rng.gen_range_usize(1, 4) {
            let at = rng.gen_range_usize(0, body.len() + 1);
            // Half the time a digit: most other bytes break the list.
            let pool = if rng.next_bool() {
                &ALPHABET[..10]
            } else {
                ALPHABET
            };
            let byte = *rng.choose(pool);
            match rng.gen_range_usize(0, 3) {
                0 if at < body.len() => body[at] = byte,
                1 if at < body.len() => {
                    body.remove(at);
                }
                _ => body.insert(at, byte),
            }
        }
        let body = String::from_utf8(body).unwrap();
        scanned_cases += usize::from(is_scanned(&both(&body).0));
        assert_paths_agree(&body, &unlimited, None);
    }
    // The mutations must leave both sides of the decision populated.
    assert!(
        (150..1_850).contains(&scanned_cases),
        "{scanned_cases} of 2000 mutants scanned"
    );
}

#[test]
fn anything_outside_the_printers_alphabet_declines() {
    for src in [
        "Float32Array([1])",
        "new Float32Array([1,2].length)",
        "new Float32Array([1, 2])",
        "new Float32Array([1/*c*/])",
        "new Float32Array([0.1])",
        "new Float32Array([x])",
        "new Float32Array([1,])",
        "new Float32Array([1,2",
        "new Float32Array ([1])",
        "new Float32Array([1e3])",
        "new Float32Array([(1)])",
        "new Float32Array([(0 / 0)])",
        "new Float32Array([(2/0)])",
        "new Float32Array([1.])",
        "new Float32Array([.5])",
        "new Float32Array([--1])",
        "new Float32Array([(-1])",
        "new Float32Array([1]]",
        "new Float32Array([[1]])",
        "new Float32Array([340282356779733661637539395458142568448])",
        "new Float32Array(3)",
        "new Float32Array()",
    ] {
        assert!(!is_scanned(src), "{src}");
    }
    // … and the closest accepted spellings do not.
    for src in [
        "new Float32Array([])",
        "new Float32Array([1])",
        "new\nFloat32Array([1,2])",
        "new /* c */ Float32Array([007,-1.5,(-1.5)])",
        "new Float32Array([1,2]).length",
        "new Float32Array([340282346638528859811704183484516925440])",
    ] {
        assert!(is_scanned(src), "{src}");
    }
}

#[test]
fn exhaustion_leaves_the_same_error_and_counters_on_both_paths() {
    // 40 elements, two of them quotients: 2 + 40 + 4 = 46 steps.
    let mut data: Vec<f32> = (0..40).map(|i| i as f32 * 0.5 - 3.0).collect();
    data[7] = f32::NAN;
    data[31] = f32::NEG_INFINITY;
    let body = rendered_body(&data);
    let mut failed = 0;
    for cap in 0..=50u64 {
        let by_ops = assert_paths_agree(&body, &MeterLimits::default().with_ops(cap), None);
        let by_steps = assert_paths_agree(&body, &MeterLimits::default(), Some(cap));
        assert_eq!(by_ops.result.is_ok(), cap >= 46, "ops={cap}");
        assert_eq!(by_steps.result.is_ok(), cap >= 46, "max_steps={cap}");
        if cap < 46 {
            failed += 1;
            // N single charges stop one past the cap.
            assert_eq!((by_ops.ops, by_ops.steps), (cap + 1, cap + 1), "ops={cap}");
            assert_eq!(
                (by_steps.ops, by_steps.steps),
                (cap, cap + 1),
                "steps={cap}"
            );
            assert_eq!(by_ops.heap_len, 3, "ops={cap}: nothing allocated");
        }
        // Both caps at once, and a heap cap the held cells already exceed.
        for other in [cap / 2, cap, cap + 3] {
            assert_paths_agree(&body, &MeterLimits::default().with_ops(cap), Some(other));
        }
        assert_paths_agree(
            &body,
            &MeterLimits::default()
                .with_ops(cap)
                .with_heap_cells((cap % 6) as usize),
            None,
        );
    }
    assert_eq!(failed, 46);
}

#[test]
fn the_nesting_cap_trips_on_the_same_inputs() {
    // (list body, levels the general parser recurses below the `new`)
    for (body, levels) in [
        ("[])", 1),
        ("[1])", 2),
        ("[-0])", 3),
        ("[1,(0/0)])", 3),
        ("[(-1)])", 4),
        ("[(-1/0),2])", 4),
    ] {
        let (scanned, general) = both(body);
        assert!(is_scanned(&scanned), "{scanned}");
        let mut fits_at = None;
        for parens in 240..260usize {
            let wrap = |src: &str| format!("{}{src}{}", "(".repeat(parens), ")".repeat(parens));
            let verdict = |src: &str| {
                parse_expr(&wrap(src))
                    .map(|_| ())
                    .map_err(|e| format!("{e:?}"))
            };
            let (a, b) = (verdict(&scanned), verdict(&general));
            assert_eq!(a, b, "{scanned} in {parens} parens");
            if a.is_ok() {
                fits_at = Some(parens);
            }
        }
        // Each paren costs one level, as does the outermost expression.
        assert_eq!(fits_at, Some(256 - 1 - levels), "{scanned}");
    }
}
