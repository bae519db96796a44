//! Property-style tests for the MiniJS front-end, run as deterministic
//! seeded loops (no external `proptest` dependency — the workspace builds
//! offline): printing any AST and parsing it back must be the identity —
//! the invariant the snapshot mechanism rests on (app functions are
//! re-emitted from their ASTs).

use snapedge_rng::Rng;
use snapedge_webapp::ast::{print_program, Expr, FunctionDef, Stmt};
use snapedge_webapp::parser::parse_program;

const KEYWORDS: &[&str] = &[
    "var",
    "function",
    "return",
    "if",
    "else",
    "while",
    "for",
    "new",
    "true",
    "false",
    "null",
    "undefined",
    "typeof",
];

/// Identifier matching `[a-h][a-z0-9]{0,6}`, never a keyword.
fn ident(rng: &mut Rng) -> String {
    loop {
        let mut s = String::new();
        s.push(rng.gen_range_u64(b'a' as u64, b'h' as u64 + 1) as u8 as char);
        let extra = rng.gen_range_usize(0, 7);
        for _ in 0..extra {
            let c = if rng.next_bool() {
                rng.gen_range_u64(b'a' as u64, b'z' as u64 + 1) as u8 as char
            } else {
                rng.gen_range_u64(b'0' as u64, b'9' as u64 + 1) as u8 as char
            };
            s.push(c);
        }
        if !KEYWORDS.contains(&s.as_str()) {
            return s;
        }
    }
}

/// Printable-ASCII string (space through `~`) of length `0..max`.
fn printable(rng: &mut Rng, max: usize) -> String {
    let n = rng.gen_range_usize(0, max);
    (0..n)
        .map(|_| rng.gen_range_u64(b' ' as u64, b'~' as u64 + 1) as u8 as char)
        .collect()
}

fn literal(rng: &mut Rng) -> Expr {
    match rng.gen_range_usize(0, 5) {
        0 => Expr::Undefined,
        1 => Expr::Null,
        2 => Expr::Bool(rng.next_bool()),
        // Finite numbers; the printer handles negatives/specials via
        // wrapping, covered by unit tests.
        3 => Expr::Number(rng.gen_range_f64(-1.0e9, 1.0e9)),
        _ => Expr::Str(printable(rng, 13).into()),
    }
}

/// `new Float32Array(arg)` as the parser returns it for its printed text —
/// the canonical form, decided here once: a list of numbers that are all
/// exactly `f32`s is the typed literal, anything else the general node.
fn new_float32_array(arg: Expr) -> Expr {
    if let Expr::Array(elems) = &arg {
        let exact: Option<Vec<f32>> = elems
            .iter()
            .map(|e| match e {
                Expr::Number(n) if f64::from(*n as f32) == *n => Some(*n as f32),
                _ => None,
            })
            .collect();
        if let Some(data) = exact {
            return Expr::Float32ArrayLiteral(data);
        }
    }
    Expr::NewFloat32Array(Box::new(arg))
}

/// A list of numbers for a typed-array constructor: mostly widened `f32`
/// bit patterns (±0, subnormals, `f32::MAX`, ±inf all occur; NaN is left
/// out because `NaN != NaN` would fail the AST comparison, not the parser),
/// now and then an `f64` no `f32` holds, which keeps the whole list on the
/// general path.
fn number_list(rng: &mut Rng) -> Expr {
    let n = rng.gen_range_usize(0, 5);
    Expr::Array(
        (0..n)
            .map(|_| {
                if rng.gen_range_usize(0, 6) == 0 {
                    return Expr::Number(rng.gen_range_f64(-1.0e9, 1.0e9));
                }
                loop {
                    let v = f32::from_bits(rng.next_u64() as u32);
                    if !v.is_nan() {
                        return Expr::Number(f64::from(v));
                    }
                }
            })
            .collect(),
    )
}

const BINOPS: &[&str] = &[
    "+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||",
];

fn expr(rng: &mut Rng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_range_usize(0, 4) == 0 {
        return if rng.next_bool() {
            literal(rng)
        } else {
            Expr::Ident(ident(rng).into())
        };
    }
    let d = depth - 1;
    match rng.gen_range_usize(0, 8) {
        0 => {
            let n = rng.gen_range_usize(0, 4);
            Expr::Array((0..n).map(|_| expr(rng, d)).collect())
        }
        1 => {
            let n = rng.gen_range_usize(0, 3);
            Expr::Object((0..n).map(|_| (ident(rng), expr(rng, d))).collect())
        }
        2 => Expr::Member(Box::new(expr(rng, d)), ident(rng)),
        3 => Expr::Index(Box::new(expr(rng, d)), Box::new(expr(rng, d))),
        4 => {
            let n = rng.gen_range_usize(0, 3);
            Expr::Call(
                Box::new(expr(rng, d)),
                (0..n).map(|_| expr(rng, d)).collect(),
            )
        }
        5 => {
            let op = *rng.choose(BINOPS);
            Expr::Binary(op, Box::new(expr(rng, d)), Box::new(expr(rng, d)))
        }
        6 => {
            let op = *rng.choose(&["!", "-", "typeof"]);
            match (op, expr(rng, d)) {
                // The parser folds unary minus over literals.
                ("-", Expr::Number(n)) => Expr::Number(-n),
                (op, e) => Expr::Unary(op, Box::new(e)),
            }
        }
        _ => {
            let arg = if rng.next_bool() {
                number_list(rng)
            } else {
                expr(rng, d)
            };
            new_float32_array(arg)
        }
    }
}

fn stmt(rng: &mut Rng, depth: usize) -> Stmt {
    let simple = depth == 0 || rng.gen_range_usize(0, 2) == 0;
    if simple {
        return match rng.gen_range_usize(0, 3) {
            0 => {
                let init = if rng.next_bool() {
                    Some(expr(rng, 2))
                } else {
                    None
                };
                Stmt::Var(ident(rng).into(), init)
            }
            1 => Stmt::Assign(Expr::Ident(ident(rng).into()), expr(rng, 2)),
            _ => Stmt::Expr(expr(rng, 2)),
        };
    }
    let d = depth - 1;
    match rng.gen_range_usize(0, 3) {
        0 => {
            let then_n = rng.gen_range_usize(0, 3);
            let else_n = rng.gen_range_usize(0, 2);
            Stmt::If(
                expr(rng, 2),
                (0..then_n).map(|_| stmt(rng, d)).collect(),
                (0..else_n).map(|_| stmt(rng, d)).collect(),
            )
        }
        1 => {
            let n = rng.gen_range_usize(0, 3);
            Stmt::While(expr(rng, 2), (0..n).map(|_| stmt(rng, d)).collect())
        }
        _ => {
            let params = (0..rng.gen_range_usize(0, 3))
                .map(|_| ident(rng).into())
                .collect();
            let body = (0..rng.gen_range_usize(0, 3))
                .map(|_| stmt(rng, d))
                .collect();
            Stmt::Function(FunctionDef {
                name: ident(rng).into(),
                params,
                body,
            })
        }
    }
}

fn program(rng: &mut Rng) -> Vec<Stmt> {
    let n = rng.gen_range_usize(0, 8);
    (0..n).map(|_| stmt(rng, 2)).collect()
}

/// Arbitrary finite f64 drawn from the full bit pattern space.
fn finite_f64(rng: &mut Rng) -> f64 {
    loop {
        let v = f64::from_bits(rng.next_u64());
        if v.is_finite() {
            return v;
        }
    }
}

#[test]
fn print_then_parse_is_identity() {
    for case in 0..128u64 {
        let mut rng = Rng::seed_from_u64(7100 + case);
        let prog = program(&mut rng);
        let printed = print_program(&prog);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("printed program failed to parse: {e}\n{printed}"));
        assert_eq!(reparsed, prog, "case {case} printed:\n{printed}");
        // App functions are re-emitted into every snapshot from their
        // ASTs: the text must not drift from one generation to the next.
        assert_eq!(print_program(&reparsed), printed, "case {case}");
    }
}

#[test]
fn typed_array_literals_take_the_canonical_form_and_reprint_unchanged() {
    // (source, is the typed literal, printed form)
    let cases = [
        ("new Float32Array([])", true, "new Float32Array([])"),
        (
            "new Float32Array([1,0.5,(-2.25),-0,(0/0),(1/0),(-1/0)])",
            true,
            "new Float32Array([1,0.5,(-2.25),(-0),(0/0),(1/0),(-1/0)])",
        ),
        // 0.1 is not an f32: rounding it at parse time would re-print it
        // as 0.10000000149011612 in the next snapshot.
        ("new Float32Array([0.1])", false, "new Float32Array([0.1])"),
        ("new Float32Array([1, 2])", false, "new Float32Array([1,2])"),
        ("new Float32Array(3)", false, "new Float32Array(3)"),
    ];
    for (src, typed, printed) in cases {
        let prog = parse_program(&format!("function h() {{ return {src}; }}")).unwrap();
        let Stmt::Function(def) = &prog[0] else {
            panic!("{src}")
        };
        let Stmt::Return(Some(e)) = &def.body[0] else {
            panic!("{src}")
        };
        assert_eq!(matches!(e, Expr::Float32ArrayLiteral(_)), typed, "{src}");
        assert_eq!(e.to_string(), printed, "{src}");
        let once = print_program(&prog);
        let twice = print_program(&parse_program(&once).unwrap());
        assert_eq!(once, twice, "{src}");
    }
}

#[test]
fn printing_is_a_fixed_point() {
    for case in 0..128u64 {
        let mut rng = Rng::seed_from_u64(7300 + case);
        let prog = program(&mut rng);
        let once = print_program(&prog);
        let reparsed = parse_program(&once).unwrap();
        let twice = print_program(&reparsed);
        assert_eq!(once, twice, "case {case}");
    }
}

#[test]
fn numbers_roundtrip_exactly() {
    for case in 0..128u64 {
        let mut rng = Rng::seed_from_u64(7500 + case);
        let n = finite_f64(&mut rng);
        let prog = vec![Stmt::Var("x".into(), Some(Expr::Number(n)))];
        let printed = print_program(&prog);
        let reparsed = parse_program(&printed).unwrap();
        let Stmt::Var(_, Some(Expr::Number(m))) = &reparsed[0] else {
            // Negative numbers print as (-N): unary minus around a literal.
            let Stmt::Var(_, Some(Expr::Unary("-", inner))) = &reparsed[0] else {
                panic!("case {case}: unexpected shape: {reparsed:?}");
            };
            let Expr::Number(m) = **inner else {
                panic!("case {case}")
            };
            assert_eq!(-m, n, "case {case}");
            continue;
        };
        assert_eq!(*m, n, "case {case}");
    }
}

#[test]
fn strings_roundtrip_exactly() {
    for case in 0..128u64 {
        let mut rng = Rng::seed_from_u64(7700 + case);
        // Printable ASCII plus explicit newline/tab coverage.
        let mut s = printable(&mut rng, 40);
        if case % 4 == 0 {
            s.push('\n');
        }
        if case % 4 == 1 {
            s.push('\t');
        }
        let prog = vec![Stmt::Var("x".into(), Some(Expr::Str(s.as_str().into())))];
        let printed = print_program(&prog);
        let reparsed = parse_program(&printed).unwrap();
        let Stmt::Var(_, Some(Expr::Str(t))) = &reparsed[0] else {
            panic!("case {case}")
        };
        assert_eq!(&**t, s, "case {case}");
    }
}
