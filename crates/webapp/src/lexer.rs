//! Tokenizer for MiniJS — the JavaScript subset the browser runtime
//! executes and the snapshot generator emits.

use crate::intern::{Ident, Symbol};
use crate::WebError;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword, pre-interned — one interner hit per token,
    /// after which every comparison is a symbol compare.
    Ident(Ident),
    /// Numeric literal (always f64, like JS).
    Number(f64),
    /// String literal (already unescaped).
    Str(String),
    /// Punctuation or operator, e.g. `"=="`, `"{"`.
    Punct(&'static str),
    /// The whole `([e,e,…])` argument of a `new Float32Array` written in the
    /// snapshot printer's alphabet, already scanned into its values — one
    /// token instead of two per float.
    F32List {
        /// The elements, as the constructor would have rounded them.
        data: Vec<f32>,
        /// Levels the parser would have recursed to read the same text
        /// (what its nesting cap has to see).
        nesting: u8,
    },
    /// End of input.
    Eof,
}

/// A token with its source line (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// 1-based source line.
    pub line: usize,
}

const PUNCTS2: &[&str] = &["==", "!=", "<=", ">=", "&&", "||", "+=", "-="];
const PUNCTS1: &[&str] = &[
    "(", ")", "{", "}", "[", "]", ",", ";", ":", ".", "=", "<", ">", "+", "-", "*", "/", "%", "!",
];

fn lex_error(line: usize, message: &str) -> WebError {
    WebError::Lex {
        line,
        message: message.to_string(),
    }
}

/// Index of the first byte at or after `i` that is not an ASCII digit.
fn digits_end(bytes: &[u8], mut i: usize) -> usize {
    while bytes.get(i).is_some_and(u8::is_ascii_digit) {
        i += 1;
    }
    i
}

/// End of `digits[.digits]` starting at `i` (a `.` counts only when a
/// digit follows, so `a[1].b` and `1.` keep their member-access dot).
fn decimal_end(bytes: &[u8], i: usize) -> usize {
    let end = digits_end(bytes, i);
    if bytes.get(end) == Some(&b'.') && bytes.get(end + 1).is_some_and(u8::is_ascii_digit) {
        digits_end(bytes, end + 1)
    } else {
        end
    }
}

/// Tokenizes MiniJS source.
///
/// Works on the source's bytes: numbers and identifiers are parsed from
/// `&str` slices of it and string literals are copied a run at a time, so
/// a token costs no allocation beyond the `String` a `Token::Str` owns.
/// Non-ASCII text is legal inside strings and comments, and elsewhere
/// only as (Unicode) whitespace.
///
/// # Errors
///
/// Returns [`WebError::Lex`] for unterminated strings/comments or
/// unrecognized characters.
pub fn lex(src: &str) -> Result<Vec<Spanned>, WebError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1;
    // `i` only ever advances past whole characters, so it stays on a
    // char boundary and the slices below cannot panic.
    while let Some(c) = src[i..].chars().next() {
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += c.len_utf8();
            continue;
        }
        // Comments.
        if c == '/' && bytes.get(i + 1) == Some(&b'/') {
            i += bytes[i..]
                .iter()
                .position(|&b| b == b'\n')
                .unwrap_or(bytes.len() - i);
            continue;
        }
        if c == '/' && bytes.get(i + 1) == Some(&b'*') {
            let start_line = line;
            i += 2;
            loop {
                if i + 1 >= bytes.len() {
                    return Err(lex_error(start_line, "unterminated block comment"));
                }
                if bytes[i] == b'\n' {
                    line += 1;
                }
                if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                    i += 2;
                    break;
                }
                i += 1;
            }
            continue;
        }
        // Strings.
        if c == '"' || c == '\'' {
            let quote = bytes[i];
            let start_line = line;
            i += 1;
            // Per-literal buffer; ownership moves into the emitted token.
            // lint: allow(collect-in-loop)
            let mut s = String::new();
            loop {
                // Everything up to the next quote, escape or newline is
                // literal text: copy it in one piece.
                let run = bytes[i..]
                    .iter()
                    .position(|&b| b == quote || b == b'\\' || b == b'\n')
                    .ok_or_else(|| lex_error(start_line, "unterminated string"))?;
                s.push_str(&src[i..i + run]);
                i += run;
                if bytes[i] == quote {
                    i += 1;
                    break;
                }
                if bytes[i] == b'\n' {
                    return Err(lex_error(start_line, "newline in string literal"));
                }
                let esc = src[i + 1..]
                    .chars()
                    .next()
                    .ok_or_else(|| lex_error(start_line, "unterminated escape"))?;
                s.push(match esc {
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    '0' => '\0',
                    '\\' => '\\',
                    '"' => '"',
                    '\'' => '\'',
                    other => return Err(lex_error(line, &format!("unknown escape \\{other}"))),
                });
                // Every escape that got this far is one ASCII byte.
                i += 2;
            }
            out.push(Spanned {
                token: Token::Str(s),
                line: start_line,
            });
            continue;
        }
        // Numbers (decimal, optional fraction/exponent; leading digit
        // required — `-x` lexes as unary minus).
        if c.is_ascii_digit() {
            let start = i;
            i = decimal_end(bytes, i);
            if matches!(bytes.get(i), Some(b'e' | b'E')) {
                let mut j = i + 1;
                if matches!(bytes.get(j), Some(b'+' | b'-')) {
                    j += 1;
                }
                if bytes.get(j).is_some_and(u8::is_ascii_digit) {
                    i = digits_end(bytes, j);
                }
            }
            let text = &src[start..i];
            let value = text
                .parse::<f64>()
                .map_err(|e| lex_error(line, &format!("bad number {text:?}: {e}")))?;
            out.push(Spanned {
                token: Token::Number(value),
                line,
            });
            continue;
        }
        // Identifiers / keywords.
        if c.is_ascii_alphabetic() || c == '_' || c == '$' {
            let start = i;
            while bytes
                .get(i)
                .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_' || b == b'$')
            {
                i += 1;
            }
            let name = Ident::new(&src[start..i]);
            let after_new = name.sym() == Symbol::FLOAT32_ARRAY
                && matches!(out.last(), Some(Spanned { token: Token::Ident(prev), .. })
                    if prev.sym() == Symbol::NEW);
            out.push(Spanned {
                token: Token::Ident(name),
                line,
            });
            // `new Float32Array([…])` as the snapshot printer writes it is
            // one token; any other spelling is lexed below like everything else.
            if after_new {
                if let Some((list, end)) = scan_f32_list(src, i) {
                    out.push(Spanned { token: list, line });
                    i = end;
                }
            }
            continue;
        }
        // Two-char punctuation first.
        let rest = &bytes[i..];
        let punct = PUNCTS2
            .iter()
            .chain(PUNCTS1)
            .find(|p| rest.starts_with(p.as_bytes()));
        let Some(&p) = punct else {
            return Err(lex_error(line, &format!("unexpected character {c:?}")));
        };
        out.push(Spanned {
            token: Token::Punct(p),
            line,
        });
        i += p.len();
    }
    out.push(Spanned {
        token: Token::Eof,
        line,
    });
    Ok(out)
}

/// Scans the argument `([e,e,…])` of a `new Float32Array` at `at` straight
/// into its values, returning the [`Token::F32List`] and the index after
/// the closing `)`.
///
/// This is not a second grammar: it accepts only the alphabet the snapshot
/// printer emits (`render_f32_literal`, `number_literal`) and declines —
/// `None` — on the first byte outside it, so whitespace, comments,
/// identifiers, exponents, nested expressions, a trailing comma or a
/// missing `])` all go through the general lexer and parser, which stay the
/// only definition of what is legal and of every error message.
fn scan_f32_list(src: &str, at: usize) -> Option<(Token, usize)> {
    let bytes = src.as_bytes();
    if !bytes[at..].starts_with(b"([") {
        return None;
    }
    let mut i = at + 2;
    let mut data = Vec::new();
    // `new Float32Array(` parses its argument one `expression()` deep.
    let mut nesting = 1;
    if bytes.get(i) != Some(&b']') {
        loop {
            let (value, depth, end) = scan_f32_element(src, i)?;
            data.push(value);
            nesting = nesting.max(depth);
            match bytes.get(end)? {
                b',' => i = end + 1,
                b']' => {
                    i = end;
                    break;
                }
                _ => return None,
            }
        }
    }
    (bytes.get(i + 1) == Some(&b')')).then_some((Token::F32List { data, nesting }, i + 2))
}

/// One element of a scanned list at `i`: its value, how many levels deep
/// the general parser recurses for this spelling (counted from the `new`),
/// and the index after it.
fn scan_f32_element(src: &str, i: usize) -> Option<(f32, u8, usize)> {
    let bytes = src.as_bytes();
    let rest = &bytes[i..];
    for (text, numerator, depth) in [("(0/0)", 0.0, 3), ("(1/0)", 1.0, 3), ("(-1/0)", -1.0, 4)] {
        if rest.starts_with(text.as_bytes()) {
            // Divided at run time, like the interpreter's `/`: the sign and
            // payload of `0/0` are the hardware's choice, and a constant the
            // compiler folds may choose differently.
            let quotient = std::hint::black_box(numerator) / std::hint::black_box(0.0_f64);
            return Some((quotient as f32, depth, i + text.len()));
        }
    }
    // `x`, `-x` (how `-0` prints) or `(-x)`.
    let wrapped = rest.starts_with(b"(-");
    let negative = wrapped || rest.first() == Some(&b'-');
    let start = i + usize::from(wrapped) + usize::from(negative);
    // A leading digit is required, as in the general lexer (`f64::from_str`
    // alone would also take `.5`).
    if !bytes.get(start).is_some_and(u8::is_ascii_digit) {
        return None;
    }
    let mut end = decimal_end(bytes, start);
    let magnitude: f64 = src[start..end].parse().ok()?;
    let value = if negative { -magnitude } else { magnitude };
    // The general path parses an f64 and the constructor rounds it; a
    // function body is re-printed from its AST, so only a decimal that
    // already is an f32 may become one here (`0.1` must print back as `0.1`).
    if !value.is_finite() || f64::from(value as f32) != value {
        return None;
    }
    if wrapped {
        if bytes.get(end) != Some(&b')') {
            return None;
        }
        end += 1;
    }
    Some((
        value as f32,
        2 + u8::from(negative) + u8::from(wrapped),
        end,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(src: &str) -> Vec<Token> {
        lex(src).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn lexes_var_declaration() {
        assert_eq!(
            tokens("var x = 1.5;"),
            vec![
                Token::Ident("var".into()),
                Token::Ident("x".into()),
                Token::Punct("="),
                Token::Number(1.5),
                Token::Punct(";"),
                Token::Eof
            ]
        );
    }

    #[test]
    fn lexes_strings_with_escapes() {
        assert_eq!(
            tokens(r#"'a\'b' "c\n\"d""#),
            vec![
                Token::Str("a'b".into()),
                Token::Str("c\n\"d".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn lexes_numbers_with_exponents() {
        assert_eq!(
            tokens("3 3.25 1e3 2.5e-2"),
            vec![
                Token::Number(3.0),
                Token::Number(3.25),
                Token::Number(1000.0),
                Token::Number(0.025),
                Token::Eof
            ]
        );
    }

    #[test]
    fn member_access_vs_fraction() {
        // `a.b` must not lex `.b` as a number.
        assert_eq!(
            tokens("a.b"),
            vec![
                Token::Ident("a".into()),
                Token::Punct("."),
                Token::Ident("b".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn skips_comments() {
        assert_eq!(
            tokens("1 // line\n/* block\n2 */ 3"),
            vec![Token::Number(1.0), Token::Number(3.0), Token::Eof]
        );
    }

    #[test]
    fn two_char_ops_win() {
        assert_eq!(
            tokens("a==b<=c&&d"),
            vec![
                Token::Ident("a".into()),
                Token::Punct("=="),
                Token::Ident("b".into()),
                Token::Punct("<="),
                Token::Ident("c".into()),
                Token::Punct("&&"),
                Token::Ident("d".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn non_ascii_is_text_in_strings_and_comments_and_whitespace_elsewhere() {
        assert_eq!(
            tokens("'é😀' // λ\n/* ü\n */ 1\u{a0}\u{2028}2"),
            vec![
                Token::Str("é😀".into()),
                Token::Number(1.0),
                Token::Number(2.0),
                Token::Eof
            ]
        );
        assert_eq!(
            lex("1\n λ").unwrap_err(),
            WebError::Lex {
                line: 2,
                message: "unexpected character 'λ'".into()
            }
        );
        assert_eq!(
            lex("\n'a\\é'").unwrap_err(),
            WebError::Lex {
                line: 2,
                message: "unknown escape \\é".into()
            }
        );
    }

    #[test]
    fn printer_style_float32array_argument_is_one_token() {
        assert_eq!(
            tokens("new Float32Array([1,(-2.5)])[0]"),
            vec![
                Token::Ident("new".into()),
                Token::Ident("Float32Array".into()),
                Token::F32List {
                    data: vec![1.0, -2.5],
                    nesting: 4
                },
                Token::Punct("["),
                Token::Number(0.0),
                Token::Punct("]"),
                Token::Eof
            ]
        );
        // Any other spelling is lexed token by token, as is the same
        // spelling anywhere but after `new Float32Array`.
        assert_eq!(tokens("new Float32Array([1, 2])").len(), 10);
        assert_eq!(tokens("Float32Array([1,2])").len(), 9);
        assert_eq!(tokens("new Array([1,2])").len(), 10);
    }

    #[test]
    fn reports_line_numbers() {
        let err = lex("ok\n  @").unwrap_err();
        assert!(matches!(err, WebError::Lex { line: 2, .. }));
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(lex("'abc").is_err());
        assert!(lex("/* never closed").is_err());
    }
}
