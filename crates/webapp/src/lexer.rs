//! Tokenizer for MiniJS — the JavaScript subset the browser runtime
//! executes and the snapshot generator emits.

use crate::f32text;
use crate::intern::{Ident, Symbol};
use crate::WebError;
use std::rc::Rc;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword, pre-interned — one interner hit per token,
    /// after which every comparison is a symbol compare.
    Ident(Ident),
    /// Numeric literal (always f64, like JS).
    Number(f64),
    /// String literal (already unescaped).
    Str(Rc<str>),
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
pub(crate) fn decimal_end(bytes: &[u8], i: usize) -> usize {
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
/// a token costs no allocation beyond the text a `Token::Str` holds.
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
            // Escaped literals are assembled here; one without escapes
            // is shared straight from the source slice.
            // lint: allow(collect-in-loop)
            let mut s = String::new();
            let text: Rc<str> = loop {
                // Everything up to the next quote, escape or newline is
                // literal text: copy it in one piece.
                let run = bytes[i..]
                    .iter()
                    .position(|&b| b == quote || b == b'\\' || b == b'\n')
                    .ok_or_else(|| lex_error(start_line, "unterminated string"))?;
                let piece = &src[i..i + run];
                i += run;
                if bytes[i] == quote {
                    i += 1;
                    if s.is_empty() {
                        break Rc::from(piece);
                    }
                    s.push_str(piece);
                    break Rc::from(s);
                }
                s.push_str(piece);
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
            };
            out.push(Spanned {
                token: Token::Str(text),
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
/// only definition of what is legal and of every error message. The list
/// from `[` to `]`, elements and commas, is [`f32text`]'s, next to the
/// printer that writes it; this function reads only the `(` and `)`.
fn scan_f32_list(src: &str, at: usize) -> Option<(Token, usize)> {
    let bytes = src.as_bytes();
    if !bytes[at..].starts_with(b"([") {
        return None;
    }
    let (data, nesting, close) = f32text::scan_f32_elements(src, at + 2)?;
    (bytes.get(close + 1) == Some(&b')')).then_some((Token::F32List { data, nesting }, close + 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::escape_str;

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
    fn a_scanned_list_reserves_from_the_text_and_keeps_only_its_share() {
        let values: Vec<f32> = (0..500).map(|i| i as f32 * 0.013).collect();
        let mut long = String::new();
        crate::f32text::render_f32_literal(&values, &mut long);
        let short = format!("new Float32Array([1,2]);//{}", " ".repeat(10_000));
        for (src, len) in [(long.as_str(), 500), (short.as_str(), 2)] {
            let spanned = lex(src).unwrap();
            let Token::F32List { data, .. } = &spanned[2].token else {
                panic!("not scanned: {:?}", spanned[2].token);
            };
            assert_eq!(data.len(), len);
            assert!(data.capacity() <= 2 * len, "{} for {len}", data.capacity());
        }
    }

    /// A string drawn from what escaping and the string run must agree
    /// on: the six escaped characters, the other C0 controls (copied raw;
    /// DEL stands in for the escaped three), multi-byte characters, short
    /// ASCII and, now and then, a 35 kB base64 run like the photo's data
    /// URL.
    fn escape_soup(rng: &mut snapedge_rng::Rng) -> String {
        const ESCAPED: &[&str] = &["\"", "\\", "\n", "\t", "\r", "\0"];
        const MULTI_BYTE: &[&str] = &["é", "€", "😀", "\u{80}", "\u{7ff}", "\u{2028}", "\u{ffff}"];
        const BASE64: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/=";
        let mut s = String::new();
        for _ in 0..rng.gen_range_usize(0, 16) {
            match rng.gen_range_usize(0, 16) {
                0..=4 => s.push_str(rng.choose::<&str>(ESCAPED)),
                5..=7 => {
                    let c = rng.gen_range_u64(1, 0x20) as u8;
                    s.push(if b"\t\n\r".contains(&c) {
                        '\x7f'
                    } else {
                        char::from(c)
                    });
                }
                8..=10 => s.push_str(rng.choose::<&str>(MULTI_BYTE)),
                11..=14 => s.push_str(&rng.ascii_string(b"abc '/<>&;=", 8)),
                _ => s.extend((0..35_000).map(|_| char::from(*rng.choose(BASE64)))),
            }
        }
        s
    }

    #[test]
    fn an_escaped_string_lexes_back_to_itself() {
        let photo = format!("data:image/jpeg;base64,{}", "QUJD".repeat(8_750));
        for named in ["", "\"", "\\", "\0", "\u{1}\u{1f}", "é€😀", photo.as_str()] {
            assert_eq!(
                tokens(&escape_str(named)),
                vec![Token::Str(named.into()), Token::Eof],
                "{named:?}"
            );
        }
        for case in 0..2_000u64 {
            let mut rng = snapedge_rng::Rng::seed_from_u64(37_000 + case);
            let s = escape_soup(&mut rng);
            let escaped = escape_str(&s);
            let lexed = lex(&escaped)
                .map(|spanned| spanned.into_iter().map(|t| t.token).collect::<Vec<Token>>());
            assert_eq!(
                lexed.ok(),
                Some(vec![Token::Str(s.as_str().into()), Token::Eof]),
                "case {case}: {} bytes, escaped {} bytes",
                s.len(),
                escaped.len()
            );
        }
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
