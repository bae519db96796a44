//! `ledger` — the snapedge benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path ledger/Cargo.toml --bin ledger -- \
//!     --seed 1 [--workload steady_delta] [--seconds 20] [--trace 0|1] [--out file.tsv]
//! cargo run --release --manifest-path ledger/Cargo.toml --bin ledger -- compare a.tsv b.tsv
//! ```
//!
//! Two clocks, both reported: **host wall time** (what the Rust costs;
//! noisy; bounded) and **virtual time** (the paper's result;
//! deterministic; compared exactly). One process measures one workload:
//! a single thread runs whole units back to back — a closed loop of one —
//! for `--seconds`, after an untimed, output-checked warm-up unit. With
//! `--trace 1` the process instead produces the per-layer rows (see
//! `layers`). The measuring is done in a child process started with
//! fixed allocator settings (see `worker`); without `--workload`, every
//! workload gets such a process in turn. The last line of standard output
//! is the result object of the benchmark contract; see `README.md` beside
//! this crate.

#![warn(unsafe_op_in_unsafe_fn)]

mod fleet;
mod harness;
mod layers;
mod oracle;
mod report;
mod shadow;
mod spec;
mod stats;
mod steady;

use harness::Spans;
use report::Row;

#[global_allocator]
static ALLOCATOR: harness::CountingAlloc = harness::CountingAlloc;

use snapedge_core::OffloadError;
use spec::{Kind, WorkloadSpec};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// What one timed unit of any workload hands the ledger.
///
/// Units of a run are identical, so a *piece* — one steady round, one
/// call of the engine into its workload — does the same work in every
/// unit. The two end-to-end timings are sums over a unit's pieces of each
/// piece's fastest repetition in the window (README, "Noise").
#[derive(Debug, Clone)]
pub struct UnitOutcome {
    /// Wall time of the whole unit, milliseconds.
    pub unit_ms: f64,
    /// Per-round wall times, milliseconds (steady rounds one by one; a
    /// fleet unit's `run()` spread over its rounds — the engine
    /// interleaves them, so no single one can be timed from outside).
    pub round_ms: Vec<f64>,
    /// The steady work in the finest pieces that can be timed from
    /// outside, milliseconds: each steady `infer()`; each call
    /// `fleet_real`'s engine makes into its workload, then what is left
    /// of `run()`; `fleet_modeled`'s `run()`.
    pub round_pieces_ms: Vec<f64>,
    /// Rounds `round_pieces_ms` add up to.
    pub piece_rounds: u64,
    /// What the unit pays once, in pieces, milliseconds: session
    /// construction + first round; for a fleet, which is a one-shot job
    /// whose clients all start cold, all of it — construction, the pieces
    /// of `run()`, teardown.
    pub cold_pieces_ms: Vec<f64>,
    /// Offload rounds the unit completed.
    pub rounds: u64,
    /// Clients the unit simulated.
    pub clients: u64,
    /// Rounds that errored, fell back or failed the output check.
    pub failed: u64,
}

/// A workload after set-up: config generated, oracle computed, warm-up
/// unit run and checked.
pub trait Prepared {
    /// Runs one timed unit, checked against the warm-up unit.
    fn unit(&mut self) -> Result<UnitOutcome, OffloadError>;
    /// Warm-up rounds that failed the oracle check.
    fn warmup_failed(&self) -> u64;
    /// Rounds of the warm-up unit.
    fn warmup_rounds(&self) -> u64;
    /// The unit's exact end-to-end numbers (virtual time, wire bytes).
    fn virtual_rows(&self) -> Vec<Row>;
}

/// Set-up of any workload.
enum Ready {
    Steady(Box<steady::SteadyPrepared>),
    Fleet(Box<fleet::FleetPrepared>),
}

impl Ready {
    fn new(spec: &WorkloadSpec, seed: u64) -> Result<Ready, OffloadError> {
        Ok(match spec.kind {
            Kind::Steady {
                model,
                cut,
                steady_rounds,
            } => Ready::Steady(Box::new(steady::SteadyPrepared::new(
                model,
                cut,
                steady_rounds,
                seed,
            )?)),
            kind => Ready::Fleet(Box::new(fleet::FleetPrepared::new(kind, seed)?)),
        })
    }

    fn prepared(&mut self) -> &mut dyn Prepared {
        match self {
            Ready::Steady(p) => p.as_mut(),
            Ready::Fleet(p) => p.as_mut(),
        }
    }
}

/// `setup_s` is the median of at least this many set-ups.
const MIN_SETUPS: usize = 5;
/// … and of at most this many: a set-up of a few milliseconds
/// (`fleet_modeled`) is repeated until the set-ups add up to about
/// [`SETUP_TOTAL_S`], so that its median is as steady as a slow one's.
const MAX_SETUPS: usize = 25;
const SETUP_TOTAL_S: f64 = 2.0;

/// Everything the timed window of a run measured, unit by unit.
#[derive(Default)]
struct Window {
    units: Vec<UnitOutcome>,
}

impl Window {
    /// Whole units back to back for about `budget` of wall time.
    fn run(prepared: &mut dyn Prepared, budget: Duration) -> Result<Window, OffloadError> {
        let mut w = Window::default();
        let started = Instant::now();
        while w.units.is_empty() || started.elapsed() < budget {
            w.units.push(prepared.unit()?);
        }
        Ok(w)
    }

    fn col(&self, f: impl Fn(&UnitOutcome) -> f64) -> Vec<f64> {
        self.units.iter().map(f).collect()
    }

    fn sum(&self, f: impl Fn(&UnitOutcome) -> u64) -> u64 {
        self.units.iter().map(f).sum()
    }

    fn round_ms(&self) -> Vec<f64> {
        self.units.iter().flat_map(|u| u.round_ms.clone()).collect()
    }

    /// Sum over the pieces `f` picks of each piece's fastest repetition
    /// among the window's units: what those pieces cost when the host
    /// lets them run.
    fn floor_ms(&self, f: impl Fn(&UnitOutcome) -> &[f64]) -> Option<f64> {
        let pieces = self.units.iter().map(|u| f(u).len()).min()?;
        let floors = (0..pieces).map(|k| {
            self.units
                .iter()
                .map(|u| f(u)[k])
                .fold(f64::INFINITY, f64::min)
        });
        (pieces > 0).then(|| floors.sum())
    }

    fn busy_s(&self) -> f64 {
        self.units.iter().map(|u| u.unit_ms).sum::<f64>() / 1e3
    }

    fn rounds_per_s(&self) -> f64 {
        self.sum(|u| u.rounds) as f64 / self.busy_s().max(f64::MIN_POSITIVE)
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds == 0 || args.seconds > 600 {
        return Err("--seconds must be between 1 and 600".into());
    }
    Ok(args)
}

fn results_dir() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The untraced run: whole units for `seconds` of busy time, with the
/// set-ups spread among them.
fn run_end_to_end(spec: &WorkloadSpec, args: &Args) -> Result<bool, String> {
    let err = |e: OffloadError| format!("{}: {e}", spec.name);
    // The window is `seconds` of busy time: set-ups in between units are
    // not part of it. They are spread evenly over it (before it, and after
    // each n-th of it) so that one burst of interference cannot slow them
    // all; how many there are follows from what the first one took.
    let budget_ms = args.seconds as f64 * 1e3;
    let mut setups = MIN_SETUPS;
    let mut setup_s = Vec::new();
    let mut ready = None;
    let mut w = Window::default();
    let mut busy_ms = 0.0;
    while busy_ms < budget_ms {
        if setup_s.len() < setups && busy_ms >= budget_ms * setup_s.len() as f64 / setups as f64 {
            let t = Instant::now();
            ready = Some(Ready::new(spec, args.seed).map_err(err)?);
            setup_s.push(t.elapsed().as_secs_f64());
            if setup_s.len() == 1 {
                setups = ((SETUP_TOTAL_S / setup_s[0]) as usize).clamp(MIN_SETUPS, MAX_SETUPS);
            }
        }
        let Some(ready) = ready.as_mut() else {
            return Err("no set-up ran".into());
        };
        let unit = ready.prepared().unit().map_err(err)?;
        busy_ms += unit.unit_ms;
        w.units.push(unit);
    }
    let Some(mut ready) = ready else {
        return Err("no set-up ran".into());
    };
    let prepared = ready.prepared();

    // Timings are floors — the fastest of the window's identical
    // repetitions: what the code costs when the host is quiet (README,
    // "Noise"). The whole window — what this host delivered — is in the
    // notes and in the unbounded rows.
    let setup = stats::Summary::of(&setup_s).ok_or("no set-up sample")?;
    let unit = stats::Summary::of(&w.col(|u| u.unit_ms)).ok_or("no unit ran")?;
    let cold =
        stats::Summary::of(&w.col(|u| u.cold_pieces_ms.iter().sum())).ok_or("no unit ran")?;
    let all_rounds = stats::sorted(&w.round_ms());
    let round = stats::Summary::of(&all_rounds).ok_or("no round ran")?;
    let piece_rounds = w.units.first().map_or(1, |u| u.piece_rounds.max(1));
    let round_floor =
        w.floor_ms(|u| &u.round_pieces_ms).ok_or("no round ran")? / piece_rounds as f64;
    let cold_floor = w.floor_ms(|u| &u.cold_pieces_ms).ok_or("no unit ran")?;
    let tail = match layers::tail(&all_rounds) {
        Some((p, v)) => format!(
            "p{p} {v:.4} is the highest percentile with >= 10 samples beyond it ({})",
            stats::beyond(all_rounds.len(), p)
        ),
        None => "fewer than 20 samples: no tail percentile".to_string(),
    };
    let per_busy_s = |n: u64| n as f64 / w.busy_s().max(f64::MIN_POSITIVE);
    let rows = vec![
        Row::median_of("setup_s", "s", &setup).note("config + oracle + checked warm-up unit"),
        Row {
            iqr: Some((round.q1, round.q3)),
            ..Row::wall("round_ms_min", "ms", round_floor, round.n)
        }
        .note(match spec.kind {
            Kind::Steady { .. } => format!(
                "steady infer(): fastest of {} units at each round position, mean over positions; all rounds: median {:.4}; {tail}",
                unit.n, round.median
            ),
            Kind::FleetReal => format!(
                "run() / rounds: fastest of {} units for each engine-to-workload call and for the rest of run(), summed; whole run()s: median {:.4}",
                unit.n, round.median
            ),
            Kind::FleetModeled => format!(
                "run() / rounds of the fastest of {} units; median {:.4}; {tail}",
                unit.n, round.median
            ),
        }),
        Row {
            iqr: Some((cold.q1, cold.q3)),
            ..Row::wall("cold_ms_min", "ms", cold_floor, cold.n)
        }
        .note(match spec.kind {
            Kind::Steady { .. } => format!(
                "OffloadSession::new + first infer(), fastest of {} units; median {:.4}",
                cold.n, cold.median
            ),
            _ => format!(
                "the whole one-shot job: engine construction + run() + drop, the fastest of {} units for each piece, summed; whole units: median {:.4}",
                cold.n, cold.median
            ),
        }),
        match harness::peak_rss_mb() {
            Some(mb) => Row::wall("peak_rss_mb", "MB", mb, 1).note("VmHWM"),
            None => Row::unavailable("peak_rss_mb", "MB", "/proc/self/status has no VmHWM"),
        },
    ];
    // Not in BENCHMARK.json (README, "Demoted"): no bound, for the reader.
    let whole_window = vec![
        Row::median_of("unit_ms_p50", "ms", &unit).note(match spec.kind {
            Kind::Steady { .. } => "one session, construction to drop",
            _ => "engine build + run() + drop",
        }),
        Row::wall("rounds_per_s", "1/s", w.rounds_per_s(), unit.n).note(format!(
            "{} rounds, cold ones included, in {:.3} s busy",
            w.sum(|u| u.rounds),
            w.busy_s()
        )),
        Row::wall(
            "clients_per_s",
            "1/s",
            per_busy_s(w.sum(|u| u.clients)),
            unit.n,
        ),
    ];
    let failed = w.sum(|u| u.failed) + prepared.warmup_failed();
    let attempted = w.sum(|u| u.rounds) + prepared.warmup_rounds();
    let exact = {
        let mut v = prepared.virtual_rows();
        v.push(Row::exact(
            "failed_share",
            "ratio",
            failed as f64 / attempted.max(1) as f64,
        ));
        v
    };
    let correct = failed == 0 && rows.iter().all(|r| r.n > 0 && r.value > 0.0);

    println!(
        "ledger: workload {} seed {} seconds {} (untraced): {} units, {} rounds, {} set-ups",
        spec.name,
        args.seed,
        args.seconds,
        w.units.len(),
        w.sum(|u| u.rounds),
        setup.n
    );
    report::print_table("end to end, wall time", &rows);
    report::print_table("whole window, wall time, no bound", &whole_window);
    report::print_table("end to end, exact", &exact);
    if let Some(path) = &args.out {
        let mut tsv = report::to_tsv("e2e", &rows, spec::bound_of);
        tsv.push_str(&report::to_tsv("e2e", &whole_window, |_| None));
        tsv.push_str(&report::to_tsv("e2e", &exact, |_| None));
        write_file(path, &tsv)?;
    }
    if !rows
        .iter()
        .map(|r| r.name)
        .eq(spec::E2E.iter().map(|m| m.name))
    {
        return Err("the untraced run's rows are not the catalogue's end-to-end metrics".into());
    }
    let view: Vec<&Row> = rows.iter().collect();
    println!("{}", report::result_json(correct, attempted, failed, &view));
    Ok(correct)
}

/// The traced run: one set-up, a short untraced window for the overhead
/// ratio, the traced window, then the micro rows.
fn run_traced(spec: &WorkloadSpec, args: &Args) -> Result<bool, String> {
    let err = |e: OffloadError| format!("{}: {e}", spec.name);
    let total = Duration::from_secs(args.seconds);
    let (window, per_row) = (total.mul_f64(0.4), total.mul_f64(0.01));
    let mut ready = Ready::new(spec, args.seed).map_err(err)?;
    let untraced = Window::run(ready.prepared(), total.mul_f64(0.2)).map_err(err)?;
    // One more unit between two readings of the allocation counters.
    let (allocs, alloc_bytes) = harness::alloc_counts();
    let counted = ready.prepared().unit().map_err(err)?;
    let asked = harness::alloc_counts();
    let per_round = |n: u64| n as f64 / counted.rounds.max(1) as f64;

    let mut spans = Spans::new(layers::SPAN_CAP);
    let mut rows = Vec::new();
    let traced = match (&ready, spec.kind) {
        (Ready::Steady(p), Kind::Steady { steady_rounds, .. }) => {
            layers::session_layers(&p.cfg, steady_rounds, window, per_row, &mut spans)
        }
        (Ready::Fleet(p), kind) => {
            if kind == Kind::FleetModeled {
                rows.extend(layers::balance_rows(p.cfg(), 5).map_err(err)?);
                rows.extend(layers::shared_micro_rows(per_row).map_err(err)?);
            }
            layers::fleet_layers(kind, p.cfg(), &p.expected, window, &mut spans)
        }
        _ => return Err("workload kind and set-up disagree".into()),
    }
    .map_err(err)?;
    rows.extend(layers::harness_rows(
        traced.rounds_per_s,
        untraced.rounds_per_s(),
    ));
    rows.push(
        Row::exact(
            "alloc.allocs_per_round",
            "count",
            per_round(asked.0 - allocs),
        )
        .note("alloc + alloc_zeroed + realloc calls of one untraced unit, over its rounds"),
    );
    rows.push(Row::exact(
        "alloc.bytes_per_round",
        "B",
        per_round(asked.1 - alloc_bytes),
    ));
    rows.extend(traced.rows);
    rows.extend(ready.prepared().virtual_rows());

    let prepared = ready.prepared();
    let failed =
        untraced.sum(|u| u.failed) + counted.failed + prepared.warmup_failed() + traced.failed;
    let attempted =
        untraced.sum(|u| u.rounds) + counted.rounds + prepared.warmup_rounds() + traced.checked;
    println!(
        "ledger: workload {} seed {} seconds {} (traced): {} spans kept, {} dropped",
        spec.name,
        args.seed,
        args.seconds,
        spans.spans().len(),
        spans.dropped()
    );
    let view = layers::contract_view(spec.kind, &rows)?;
    report::print_table("per layer", &rows);
    println!("\n== per layer, not measured on this workload ==");
    for owner in layers::Owner::ALL {
        if !owner.measured_on(spec.kind) {
            let names: Vec<&str> = layers::CONTRACT_ROWS
                .iter()
                .filter(|(_, _, o)| *o == owner)
                .map(|(name, _, _)| *name)
                .collect();
            println!("n/a: {}:\n  {}", owner.reason(), names.join(" "));
        }
    }
    let span_file = results_dir().join(format!("trace_{}.json", spec.name));
    write_file(&span_file, &spans.to_json(spec.name, args.seed))?;
    println!("spans written to {}", span_file.display());
    if let Some(path) = &args.out {
        write_file(path, &report::to_tsv("layer", &rows, |_| None))?;
    }
    let correct = failed == 0;
    let view: Vec<&Row> = view.iter().collect();
    println!("{}", report::result_json(correct, attempted, failed, &view));
    Ok(correct)
}

/// Marks the measuring process, so that it does not start another.
const WORKER: &str = "LEDGER_WORKER";

/// The measuring process: this executable again, with glibc malloc told
/// to keep freed memory instead of handing it back to the kernel (no
/// trimming, no `mmap` for large blocks, a padded heap top). Under this
/// nested-virtualised host a page fault costs several times what it does
/// on bare metal, and whether a unit's memory is re-faulted depends on
/// where the heap top happened to be: a googlenet cold round reads 24 ms
/// in one process and 39 ms in the next (README, "Noise"). The setting is
/// part of the benchmark, so parent and change always share it; what the
/// program asks of the allocator is reported as exact counts by the
/// traced run (`alloc.*`). Ignored by a libc that is not glibc.
fn worker(exe: &std::path::Path) -> std::process::Command {
    const TRIM: &str = "1073741824";
    const MMAP: &str = "33554432";
    const TOP_PAD: &str = "67108864";
    let mut cmd = std::process::Command::new(exe);
    cmd.env(WORKER, "1")
        .env(
            "GLIBC_TUNABLES",
            format!(
                "glibc.malloc.trim_threshold={TRIM}:glibc.malloc.mmap_threshold={MMAP}:glibc.malloc.top_pad={TOP_PAD}"
            ),
        )
        // The same, as glibc older than 2.26 spells it.
        .env("MALLOC_TRIM_THRESHOLD_", TRIM)
        .env("MALLOC_MMAP_THRESHOLD_", MMAP)
        .env("MALLOC_TOP_PAD_", TOP_PAD);
    cmd
}

/// Runs the measuring process for `argv` and hands its verdict on.
fn run_in_worker(argv: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = worker(&exe)
        .args(argv)
        .status()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    Ok(status.success())
}

/// Without `--workload`: every workload in a measuring process of its own.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for w in spec::WORKLOADS {
        let mut argv: Vec<String> = [
            "--workload",
            w.name,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ]
        .map(String::from)
        .to_vec();
        if let Some(out) = &args.out {
            let stem = out.with_extension("");
            argv.push("--out".into());
            argv.push(format!("{}_{}.tsv", stem.display(), w.name));
        }
        ok &= run_in_worker(&argv)?;
    }
    Ok(ok)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| -> Result<Vec<report::Parsed>, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        report::parse_tsv(&text).map_err(|e| format!("{p}: {e}"))
    };
    let problems = report::compare(&read(a)?, &read(b)?);
    for p in &problems {
        println!("DISAGREE  {p}");
    }
    Ok(problems.is_empty())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => compare_files(&argv[1], &argv[2]),
        Some("compare") => Err("usage: ledger compare <a.tsv> <b.tsv>".into()),
        _ => parse_args(&argv).and_then(|args| match &args.workload {
            None => run_all(&args),
            Some(_) if std::env::var_os(WORKER).is_none() => run_in_worker(&argv),
            Some(name) => match spec::workload(name) {
                None => Err(format!(
                    "unknown workload {name:?}; known: {}",
                    spec::WORKLOADS.map(|w| w.name).join(", ")
                )),
                Some(spec) if args.trace => run_traced(&spec, &args),
                Some(spec) => run_end_to_end(&spec, &args),
            },
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(round_pieces_ms: Vec<f64>) -> UnitOutcome {
        UnitOutcome {
            unit_ms: 0.0,
            round_ms: Vec::new(),
            round_pieces_ms,
            piece_rounds: 2,
            cold_pieces_ms: Vec::new(),
            rounds: 0,
            clients: 0,
            failed: 0,
        }
    }

    #[test]
    fn a_floor_is_the_sum_of_each_piece_s_fastest_repetition() {
        let mut w = Window::default();
        assert_eq!(w.floor_ms(|u| &u.round_pieces_ms), None);
        w.units.push(unit(vec![3.0, 9.0]));
        w.units.push(unit(vec![5.0, 4.0]));
        w.units.push(unit(vec![4.0, 6.0]));
        // Piece 0: min(3, 5, 4) = 3; piece 1: min(9, 4, 6) = 4 — faster
        // than any one unit (12, 9, 10).
        assert_eq!(w.floor_ms(|u| &u.round_pieces_ms), Some(7.0));
        assert_eq!(w.floor_ms(|u| &u.cold_pieces_ms), None);
    }
}
