//! JSON-lines export/import — one event object per line, no external
//! dependencies. The format is deliberately flat so benches can be piped
//! into `jq`, a spreadsheet, or a flame-chart converter.
//!
//! ```text
//! {"name":"transfer_up","lane":"network","kind":"transfer","start_ns":12000000,"end_ns":95000000,"bytes":261352,"depth":0}
//! ```

use crate::event::{Event, EventKind, Lane};
use crate::trace::Trace;
use std::fmt;
use std::time::Duration;

/// Errors from [`Trace::from_jsonl`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl Trace {
    /// Serializes every event as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str("{\"name\":\"");
            escape_into(&mut out, &e.name);
            out.push_str("\",\"lane\":\"");
            out.push_str(e.lane.as_str());
            out.push_str("\",\"kind\":\"");
            out.push_str(e.kind.as_str());
            out.push_str("\",\"start_ns\":");
            out.push_str(&(e.start.as_nanos() as u64).to_string());
            out.push_str(",\"end_ns\":");
            out.push_str(&(e.end.as_nanos() as u64).to_string());
            if let Some(bytes) = e.bytes {
                out.push_str(",\"bytes\":");
                out.push_str(&bytes.to_string());
            }
            out.push_str(",\"depth\":");
            out.push_str(&e.depth.to_string());
            out.push_str("}\n");
        }
        out
    }

    /// Parses the output of [`Trace::to_jsonl`] back. Accepts the flat
    /// object-per-line format with fields in any order; unknown fields are
    /// rejected (they indicate a format drift the caller should know
    /// about). Blank lines are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`TraceParseError`] naming the first malformed line.
    pub fn from_jsonl(text: &str) -> Result<Trace, TraceParseError> {
        let mut events = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let line_no = idx + 1;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            events.push(parse_line(trimmed).map_err(|message| TraceParseError {
                line: line_no,
                message,
            })?);
        }
        Ok(Trace::from_events(events))
    }
}

fn parse_line(line: &str) -> Result<Event, String> {
    let mut p = Parser::new(line);
    p.expect('{')?;
    let mut name: Option<String> = None;
    let mut lane: Option<Lane> = None;
    let mut kind: Option<EventKind> = None;
    let mut start_ns: Option<u64> = None;
    let mut end_ns: Option<u64> = None;
    let mut bytes: Option<u64> = None;
    let mut depth: Option<u32> = None;
    loop {
        let key = p.string()?;
        p.expect(':')?;
        match key.as_str() {
            "name" => name = Some(p.string()?),
            "lane" => {
                let s = p.string()?;
                lane = Some(Lane::parse(&s).ok_or_else(|| format!("unknown lane {s:?}"))?);
            }
            "kind" => {
                let s = p.string()?;
                kind = Some(EventKind::parse(&s).ok_or_else(|| format!("unknown kind {s:?}"))?);
            }
            "start_ns" => start_ns = Some(p.number()?),
            "end_ns" => end_ns = Some(p.number()?),
            "bytes" => bytes = Some(p.number()?),
            "depth" => {
                let n = p.number()?;
                depth = Some(u32::try_from(n).map_err(|_| format!("depth {n} out of range"))?);
            }
            other => return Err(format!("unknown field {other:?}")),
        }
        if !p.comma_or_close()? {
            break;
        }
    }
    p.end()?;
    Ok(Event {
        name: name.ok_or("missing field \"name\"")?,
        lane: lane.ok_or("missing field \"lane\"")?,
        kind: kind.ok_or("missing field \"kind\"")?,
        start: Duration::from_nanos(start_ns.ok_or("missing field \"start_ns\"")?),
        end: Duration::from_nanos(end_ns.ok_or("missing field \"end_ns\"")?),
        bytes,
        depth: depth.ok_or("missing field \"depth\"")?,
    })
}

/// A minimal cursor over the one-line object syntax emitted above.
struct Parser<'a> {
    rest: &'a str,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Parser<'a> {
        Parser { rest: s }
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        self.skip_ws();
        match self.rest.strip_prefix(c) {
            Some(rest) => {
                self.rest = rest;
                Ok(())
            }
            None => Err(format!("expected {c:?} at {:?}", truncate(self.rest))),
        }
    }

    /// `,` continues the object, `}` closes it.
    fn comma_or_close(&mut self) -> Result<bool, String> {
        self.skip_ws();
        if let Some(rest) = self.rest.strip_prefix(',') {
            self.rest = rest;
            Ok(true)
        } else if let Some(rest) = self.rest.strip_prefix('}') {
            self.rest = rest;
            Ok(false)
        } else {
            Err(format!("expected ',' or '}}' at {:?}", truncate(self.rest)))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        let mut chars = self.rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.rest = &self.rest[i + 1..];
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'u')) => {
                        let hex: String = (0..4)
                            .filter_map(|_| chars.next().map(|(_, h)| h))
                            .collect();
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("bad codepoint \\u{hex}"))?,
                        );
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let digits: usize = self.rest.bytes().take_while(|b| b.is_ascii_digit()).count();
        if digits == 0 {
            return Err(format!("expected a number at {:?}", truncate(self.rest)));
        }
        let (num, rest) = self.rest.split_at(digits);
        self.rest = rest;
        num.parse().map_err(|e| format!("bad number {num:?}: {e}"))
    }

    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(format!("trailing content {:?}", truncate(self.rest)))
        }
    }
}

/// The first 24 bytes of `s` for an error message, cut back to a char
/// boundary.
fn truncate(s: &str) -> &str {
    let mut end = s.len().min(24);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn sample_trace() -> Trace {
        Trace::from_events(vec![
            Event {
                name: "exec \"quoted\"\\weird\nname".into(),
                lane: Lane::Client,
                kind: EventKind::Exec,
                start: ms(0),
                end: ms(5),
                bytes: None,
                depth: 0,
            },
            Event {
                name: "transfer_up".into(),
                lane: Lane::Network,
                kind: EventKind::Transfer,
                start: ms(5),
                end: ms(17),
                bytes: Some(261_352),
                depth: 0,
            },
            Event {
                name: "conv1".into(),
                lane: Lane::Server,
                kind: EventKind::Layer,
                start: ms(17),
                end: ms(18),
                bytes: None,
                depth: 1,
            },
        ])
    }

    #[test]
    fn roundtrip_is_exact() {
        let trace = sample_trace();
        let text = trace.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn bytes_field_is_omitted_when_absent() {
        let text = sample_trace().to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines[0].contains("\"bytes\""));
        assert!(lines[1].contains("\"bytes\":261352"));
    }

    #[test]
    fn fields_parse_in_any_order() {
        let line = r#"{"depth":2,"end_ns":9000,"kind":"queue","name":"wait","start_ns":4000,"lane":"network"}"#;
        let t = Trace::from_jsonl(line).unwrap();
        assert_eq!(t.events()[0].name, "wait");
        assert_eq!(t.events()[0].kind, EventKind::Queue);
        assert_eq!(t.events()[0].depth, 2);
        assert_eq!(t.events()[0].start, Duration::from_nanos(4000));
    }

    #[test]
    fn failover_events_export_and_reimport() {
        // The fleet layer's instant markers survive the JSONL round-trip
        // with their stable kind names.
        let trace = Trace::from_events(vec![
            Event {
                name: "server_select:edge-b".into(),
                lane: Lane::Client,
                kind: EventKind::ServerSelect,
                start: ms(3),
                end: ms(3),
                bytes: None,
                depth: 0,
            },
            Event {
                name: "handoff:edge-a->edge-b".into(),
                lane: Lane::Client,
                kind: EventKind::Handoff,
                start: ms(3),
                end: ms(3),
                bytes: None,
                depth: 0,
            },
        ]);
        let text = trace.to_jsonl();
        assert!(text.contains("\"kind\":\"server_select\""));
        assert!(text.contains("\"kind\":\"handoff\""));
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.events()[1].kind, EventKind::Handoff);
    }

    #[test]
    fn prediction_events_export_and_reimport() {
        // A pre-ship gate's verdict survives the JSONL round-trip under
        // the one `gate` kind; the five kinds it replaced are gone from
        // the vocabulary, so a trace written before is a typed error.
        let trace = Trace::from_events(vec![Event {
            name: "gate:plan:local:2500000:1800000".into(),
            lane: Lane::Client,
            kind: EventKind::Gate,
            start: ms(7),
            end: ms(7),
            bytes: None,
            depth: 0,
        }]);
        let text = trace.to_jsonl();
        assert!(text.contains("\"kind\":\"gate\""));
        assert_eq!(Trace::from_jsonl(&text).unwrap(), trace);
        for old in [
            "predict",
            "proactive_local",
            "effect_verdict",
            "balance_decision",
            "verify",
        ] {
            let stale = text.replace("\"kind\":\"gate\"", &format!("\"kind\":\"{old}\""));
            let err = Trace::from_jsonl(&stale).unwrap_err();
            assert!(err.to_string().contains(old), "{err}");
        }
    }

    #[test]
    fn metering_events_export_and_reimport() {
        // The sandboxing layer's instant markers survive the JSONL
        // round-trip: a tick carrying the segment's op count in `bytes`,
        // and an exhaustion naming the tripped resource.
        let trace = Trace::from_events(vec![
            Event {
                name: "meter_tick".into(),
                lane: Lane::Server,
                kind: EventKind::MeterTick,
                start: ms(9),
                end: ms(9),
                bytes: Some(12_345),
                depth: 0,
            },
            Event {
                name: "meter_exhausted:ops".into(),
                lane: Lane::Server,
                kind: EventKind::MeterExhausted,
                start: ms(11),
                end: ms(11),
                bytes: None,
                depth: 0,
            },
        ]);
        let text = trace.to_jsonl();
        assert!(text.contains("\"kind\":\"meter_tick\""));
        assert!(text.contains("\"kind\":\"meter_exhausted\""));
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.events()[0].bytes, Some(12_345));
        assert_eq!(back.events()[1].kind, EventKind::MeterExhausted);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = format!("\n{}\n\n", sample_trace().to_jsonl());
        assert_eq!(Trace::from_jsonl(&text).unwrap().len(), 3);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let good =
            r#"{"name":"a","lane":"client","kind":"exec","start_ns":0,"end_ns":1,"depth":0}"#;
        let bad = "{\"name\":\"a\"";
        let err = Trace::from_jsonl(&format!("{good}\n{bad}\n")).unwrap_err();
        assert_eq!(err.line, 2);
        let err = Trace::from_jsonl(r#"{"name":"a","lane":"lava"}"#).unwrap_err();
        assert!(err.message.contains("unknown lane"));
        let err = Trace::from_jsonl(r#"{"surprise":1}"#).unwrap_err();
        assert!(err.message.contains("unknown field"));
    }

    #[test]
    fn multibyte_text_and_overlong_depths_are_typed_errors() {
        // The error excerpt once sliced at byte 24, inside the second `é`.
        let err = Trace::from_jsonl(&format!("{{\"name\"X{}", "é".repeat(20))).unwrap_err();
        assert!(
            err.message.starts_with("expected ':' at \"Xéé"),
            "{}",
            err.message
        );
        // A depth past `u32::MAX` once wrapped to 1.
        let line = r#"{"name":"a","lane":"client","kind":"exec","start_ns":0,"end_ns":1,"depth":4294967297}"#;
        let err = Trace::from_jsonl(line).unwrap_err();
        assert_eq!(err.message, "depth 4294967297 out of range");
        let max = line.replace("4294967297", &u32::MAX.to_string());
        assert_eq!(Trace::from_jsonl(&max).unwrap().events()[0].depth, u32::MAX);
    }

    #[test]
    fn missing_fields_are_errors() {
        let err = Trace::from_jsonl(r#"{"name":"a","lane":"client","kind":"exec","depth":0}"#)
            .unwrap_err();
        assert!(err.message.contains("start_ns"), "{}", err.message);
    }

    #[test]
    fn empty_input_is_an_empty_trace() {
        assert!(Trace::from_jsonl("").unwrap().is_empty());
    }
}
