//! Ledger rows and their three renderings: the human table, the TSV
//! result file `check.sh` compares, and the one-line JSON result the
//! benchmark contract asks for.

use crate::stats::Summary;
use std::fmt::Write as _;

/// Which clock (or counter) a row reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time or memory: noisy, compared within a bound.
    Wall,
    /// Virtual time, byte counts, event counts: deterministic, compared
    /// exactly.
    Exact,
}

/// One named number of the ledger.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric name, as listed in `BENCHMARK.json` and the README table.
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Which clock it reads.
    pub clock: Clock,
    /// Samples behind the value (0 = not measured; see `note`).
    pub n: usize,
    /// First and third quartile of the samples, when there are samples.
    pub iqr: Option<(f64, f64)>,
    /// Where the samples came from, or why there are none.
    pub note: String,
}

impl Row {
    /// A wall-clock row whose value is the sample minimum.
    pub fn min_of(name: &'static str, unit: &'static str, s: &Summary, scale: f64) -> Row {
        Row {
            name,
            value: s.min * scale,
            unit,
            clock: Clock::Wall,
            n: s.n,
            iqr: Some((s.q1 * scale, s.q3 * scale)),
            note: format!("min of {}; median {:.4}", s.n, s.median * scale),
        }
    }

    /// A wall-clock row whose value is the sample median.
    pub fn median_of(name: &'static str, unit: &'static str, s: &Summary) -> Row {
        Row {
            name,
            value: s.median,
            unit,
            clock: Clock::Wall,
            n: s.n,
            iqr: Some((s.q1, s.q3)),
            note: format!("median of {}; mad {:.4}", s.n, s.mad),
        }
    }

    /// A wall-clock row holding one derived number (a ratio, a rate).
    pub fn wall(name: &'static str, unit: &'static str, value: f64, n: usize) -> Row {
        Row {
            name,
            value,
            unit,
            clock: Clock::Wall,
            n,
            iqr: None,
            note: String::new(),
        }
    }

    /// A deterministic row (virtual time, bytes, counts).
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Row {
        Row {
            name,
            value,
            unit,
            clock: Clock::Exact,
            n: 1,
            iqr: None,
            note: String::new(),
        }
    }

    /// A row that could not be measured in this run, with the reason.
    pub fn unavailable(name: &'static str, unit: &'static str, reason: &str) -> Row {
        Row {
            name,
            value: 0.0,
            unit,
            clock: Clock::Wall,
            n: 0,
            iqr: None,
            note: format!("n/a: {reason}"),
        }
    }

    /// Attaches a provenance note, builder-style.
    pub fn note(mut self, note: impl Into<String>) -> Row {
        let note = note.into();
        if note.is_empty() {
            return self;
        }
        if self.note.is_empty() {
            self.note = note;
        } else {
            self.note = format!("{}; {note}", self.note);
        }
        self
    }
}

/// A finite number in JSON/TSV form with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Prints rows as an aligned table on stdout.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n== {title} ==");
    let w = rows.iter().map(|r| r.name.len()).max().unwrap_or(0);
    for r in rows {
        let value = if r.n == 0 {
            "n/a".to_string()
        } else if r.clock == Clock::Exact {
            num(r.value)
        } else {
            format!("{:.4}", r.value)
        };
        let mut line = format!("{:<w$}  {:>16} {:<8}", r.name, value, r.unit);
        if r.clock == Clock::Exact {
            line.push_str(" exact   ");
        } else {
            let _ = write!(line, " n={:<6}", r.n);
        }
        if let Some((q1, q3)) = r.iqr {
            let _ = write!(line, " [{q1:.4} .. {q3:.4}]");
        }
        if !r.note.is_empty() {
            let _ = write!(line, "  {}", r.note);
        }
        println!("{}", line.trim_end());
    }
}

/// Renders rows as TSV lines `section name value unit clock n q1 q3 bound`.
pub fn to_tsv(section: &str, rows: &[Row], bound_of: impl Fn(&str) -> Option<f64>) -> String {
    let mut out = String::new();
    for r in rows {
        let (q1, q3) = r.iqr.unwrap_or((r.value, r.value));
        let _ = writeln!(
            out,
            "{section}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.name,
            num(r.value),
            r.unit,
            if r.clock == Clock::Exact {
                "exact"
            } else {
                "wall"
            },
            r.n,
            num(q1),
            num(q3),
            bound_of(r.name).map(num).unwrap_or_else(|| "-".to_string()),
        );
    }
    out
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics` (name → value and unit).
pub fn result_json(correct: bool, attempted: u64, failed: u64, rows: &[&Row]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            r.name,
            num(r.value),
            r.unit
        );
    }
    out.push_str("}}");
    out
}

/// One parsed TSV line of a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    /// `e2e` or `layer`.
    pub section: String,
    /// Metric name.
    pub name: String,
    /// The value, verbatim.
    pub value: String,
    /// Unit.
    pub unit: String,
    /// Whether the row is compared exactly.
    pub exact: bool,
    /// Regression bound, for bounded wall-time rows.
    pub bound: Option<f64>,
}

/// Parses the TSV written by [`to_tsv`]; malformed lines are errors.
pub fn parse_tsv(text: &str) -> Result<Vec<Parsed>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            if f.len() != 9 {
                return Err(format!("expected 9 fields, got {}: {line:?}", f.len()));
            }
            Ok(Parsed {
                section: f[0].to_string(),
                name: f[1].to_string(),
                value: f[2].to_string(),
                unit: f[3].to_string(),
                exact: f[4] == "exact",
                bound: f[8].parse().ok(),
            })
        })
        .collect()
}

/// Prints two result sets side by side and returns the disagreements:
/// an exact row that differs at all, a bounded wall-time row whose two
/// values differ by more than its bound (as a share of the first), or a
/// row present in only one set.
pub fn compare(a: &[Parsed], b: &[Parsed]) -> Vec<String> {
    let mut problems = Vec::new();
    let w = a.iter().map(|r| r.name.len()).max().unwrap_or(0);
    for ra in a {
        let Some(rb) = b
            .iter()
            .find(|r| r.section == ra.section && r.name == ra.name)
        else {
            problems.push(format!("{}: missing from the second set", ra.name));
            continue;
        };
        let (va, vb) = (
            ra.value.parse::<f64>().unwrap_or(f64::NAN),
            rb.value.parse::<f64>().unwrap_or(f64::NAN),
        );
        let rel = if va == vb {
            0.0
        } else {
            (va - vb).abs() / va.abs().max(f64::MIN_POSITIVE)
        };
        let verdict = if ra.exact {
            if ra.value == rb.value {
                "identical"
            } else {
                problems.push(format!(
                    "{}: exact metric differs: {} vs {}",
                    ra.name, ra.value, rb.value
                ));
                "DIFFERS"
            }
        } else {
            match ra.bound {
                Some(bound) if rel > bound => {
                    problems.push(format!(
                        "{}: {} vs {} differ by {:.1} % (bound {:.0} %)",
                        ra.name,
                        ra.value,
                        rb.value,
                        rel * 100.0,
                        bound * 100.0
                    ));
                    "BEYOND BOUND"
                }
                Some(_) => "within bound",
                None => "",
            }
        };
        println!(
            "{:<5} {:<w$}  {:>18}  {:>18}  {:<8} {:>7.2} %  {verdict}",
            ra.section,
            ra.name,
            ra.value,
            rb.value,
            ra.unit,
            rel * 100.0
        );
    }
    for rb in b {
        if !a
            .iter()
            .any(|r| r.section == rb.section && r.name == rb.name)
        {
            problems.push(format!("{}: missing from the first set", rb.name));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_round_trips_and_compare_flags_disagreements() {
        let rows = vec![
            Row::wall("round_ms_min", "ms", 5.5, 100),
            Row::exact("virt.round_s_p50", "virt_s", 0.125),
        ];
        let bound = |name: &str| (name == "round_ms_min").then_some(0.1);
        let a = parse_tsv(&to_tsv("e2e", &rows, bound)).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].bound, Some(0.1));
        assert!(a[1].exact);
        assert!(compare(&a, &a).is_empty());

        let mut b = a.clone();
        b[0].value = "5.9".into(); // 7 %: within the bound
        assert!(compare(&a, &b).is_empty());
        b[0].value = "6.2".into(); // 12.7 %: beyond it
        b[1].value = "0.1250001".into();
        let problems = compare(&a, &b);
        assert_eq!(problems.len(), 2, "{problems:?}");
        b.pop();
        assert!(compare(&a, &b)
            .iter()
            .any(|p| p.contains("missing from the second")));
    }

    #[test]
    fn result_json_has_exactly_the_contract_keys() {
        let row = Row::wall("setup_s", "s", 0.25, 3);
        let line = result_json(true, 0, 0, &[&row]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        let bad = Row::wall("x", "s", f64::NAN, 1);
        assert!(result_json(true, 1, 0, &[&bad]).contains("\"value\": 0,"));
    }
}
