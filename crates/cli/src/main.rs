//! `snapedge` — command-line driver for the offloading simulator. Every
//! flag is one row of [`FLAGS`]: [`parse`] checks a whole command line
//! against the table before any command runs, and [`usage`] renders it.

use snapedge_analyze::{
    analyze_html, analyze_script, effect_summary, effect_summary_html, AnalysisOptions,
    AnalysisReport, EffectOptions, EffectSummary,
};
use snapedge_core::{
    apps, parse_servers, run_scenario, vm_install, ArrivalProcess, Engine, FleetReport,
    MeterLimits, OffloadConfig, OffloadSession, RetryPolicy, ScenarioConfig, SessionConfig,
    Strategy, Workload,
};
use snapedge_dnn::{zoo, ModelBundle};
use snapedge_net::{FaultPlan, LinkConfig};
use snapedge_vmsynth::SynthesisConfig;
use snapedge_webapp::HostEffect;
use std::fmt;
use std::io::{self, ErrorKind, Write};
use std::process::ExitCode;
use std::time::Duration;

/// One row of the flag table: the name after `--`, the commands that take
/// the flag (every other refuses it), its value and its help lines.
struct FlagSpec {
    name: &'static str,
    commands: &'static [Command],
    kind: Kind,
    help: &'static str,
}

/// Declares the subcommands, then every flag once as `Variant "name"
/// [commands] Kind, "help";`. Expands to `enum Command` (a command's name
/// is its lowercased variant), `enum Flag` and the table `FLAGS` that
/// `Flag` indexes.
macro_rules! cli {
    (
        $($command:ident)*;
        $($flag:ident $name:literal [$($takes:ident)*] $kind:ident $(($arg:expr))?, $help:literal;)*
    ) => {
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        enum Command { $($command),* }
        const COMMANDS: [Command; [$(Command::$command),*].len()] = [$(Command::$command),*];
        impl Command {
            fn name(self) -> String { format!("{self:?}").to_lowercase() }
        }
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        enum Flag { $($flag),* }
        const ALL_FLAGS: [Flag; FLAGS.len()] = [$(Flag::$flag),*];
        impl Flag {
            fn spec(self) -> &'static FlagSpec { &FLAGS[self as usize] }
        }
        const FLAGS: [FlagSpec; [$($name),*].len()] = [$(FlagSpec {
            name: $name,
            commands: &[$(Command::$takes),*],
            kind: Kind::$kind $(($arg))?,
            help: $help,
        }),*];
    };
}

cli! {
    Run Sweep Session Fleet Install Models Analyze;
    Model "model" [Run Sweep Session Fleet Install] Text("<name>"),
        "The zoo model ('snapedge models' lists them; default googlenet).";
    Strategy "strategy" [Run]
        Choice(&["client", "server", "before-ack", "after-ack", "partial"]),
        "Where the inference runs (default after-ack).";
    Cut "cut" [Run] Text("<label>"), "The cut of --strategy partial (default 1st_pool).";
    Mbps "mbps" [Run Sweep Session Fleet Install] Rate,
        "The primary link's rate in Mbps, finite and above zero (default 30).";
    Timeline "timeline" [Run] Bool, "Prints an ASCII Gantt of the phases from the click on.";
    Trace "trace" [Run] Text("<file.jsonl>"), "Writes the run's event trace as JSONL.";
    FaultPlan "fault-plan" [Run Session Fleet] Faults,
        "Injects link faults at virtual times, e.g.\n\
         \x20 'down@2..5,degrade@7..9x0.25,corrupt@10..11'\n\
         entries hit both links unless prefixed 'up:'/'down:' (or 'both:'), e.g.\n\
         \x20 'up:down@2..5,down:corrupt@1..2'";
    Retry "retry" [Run Session Fleet] Retry,
        "Enables recovery from transient faults:\n\
         \x20 'default' or 'attempts=<n>,deadline=<s>,backoff=<s>,backoff-max=<s>'";
    Servers "servers" [Run Session Fleet] Text("<spec>"),
        "Declares an ordered edge fleet for estimator-driven failover:\n\
         \x20 'edge-a;edge-b,mbps=12,latency=0.005;edge-c,up=down@2..5+corrupt@7..8'\n\
         ';'-separated entries, each 'name[,key=value...]' inheriting the primary\n\
         link; keys: mbps, bps, latency (s), overhead (B), loss, and fault plans\n\
         up/down/faults ('+' separates windows). Carries its own fault plans, so\n\
         it cannot be combined with --fault-plan.";
    Predict "predict" [Run Session Fleet] Bool,
        "Completes a round locally, before any retry burns, when offloading at the\n\
         configured cut (the input for a full offload), expected retry backoff\n\
         included, is priced no faster than local execution. Off by default\n\
         (bit-identical replay).";
    Meter "meter" [Run Session Fleet] Meter,
        "Caps per-tenant execution on edge servers:\n\
         \x20 'ops=<n>,heap=<cells>,str=<chars>,depth=<frames>,slice=<ms>'\n\
         any subset of keys; exceeding a cap kills the tenant's snapshot on that\n\
         server (fatal-for-this-server: no retries burn, the round fails over to\n\
         the next server or completes locally). Per-server 'meter=' keys in\n\
         --servers override the fleet-wide spec ('+' joins nested keys). Off by\n\
         default (bit-identical replay).";
    Effects "effects" [Run Session Analyze] Bool,
        "Runs the static effect pass before any state ships: nondeterministic apps\n\
         and rounds over the meter's op floor complete locally. With analyze it\n\
         prints the analyzed app's op/allocation floors and every nondeterministic\n\
         host access. Off by default (bit-identical replay).";
    Rounds "rounds" [Session Fleet] Count,
        "Rounds to run (session: 3 by default; closed-loop fleet: the cap per client).";
    NoDeltas "no-deltas" [Session] Bool, "Ships a full snapshot every round, not deltas.";
    Clients "clients" [Fleet] Count, "Clients in the fleet (default 100).";
    Arrival "arrival" [Fleet] Arrival,
        "Shapes fleet traffic:\n\
         \x20 'closed[:think_s]'                  closed loop, per-client think time (default)\n\
         \x20 'poisson:rate_hz'                   open-loop Poisson, fleet-wide rate\n\
         \x20 'diurnal:base_hz:peak_hz:period_s'  raised-cosine rate curve\n\
         Open-loop rates are finite and non-negative, expecting at most 4 million\n\
         arrivals over --duration; arrivals landing on a busy client queue there.";
    Duration "duration" [Fleet] Seconds, "The traffic horizon in virtual seconds (default 60).";
    Seed "seed" [Fleet] Count, "Seeds arrival sampling and per-round images (default 42).";
    Real "real" [Fleet] Bool,
        "Runs one real browser session per client, not the analytic workload.\n\
         The analytic workload models the model, the seed and each server's\n\
         name, device and link only: it refuses --fault-plan, --retry,\n\
         --predict, --meter and the fault and meter keys of --servers.";
    Balance "balance" [Fleet] Bool,
        "Prices each server's predicted queueing delay into server selection and\n\
         admission, degrading a round to local when the queue erases the win. Off\n\
         by default (bit-identical replay), like --fair-share and --batch-window.";
    FairShare "fair-share" [Fleet] Bool,
        "Grants each server CPU by deficit round robin over tenants.";
    BatchWindow "batch-window" [Fleet] Seconds,
        "Batches admissions co-queued within the window behind a busy CPU.";
    AllApps "all-apps" [Analyze] Choice(&["true"]),
        "Analyzes the two paper app sources (the default without --html).";
    Html "html" [Analyze] Text("<file>"), "Analyzes a MiniJS or HTML file instead.";
    Report "report" [Analyze] Text("<out.html>"), "Writes an escaped HTML report (needs --html).";
    Mode "mode" [Analyze] Choice(&["app", "snapshot", "delta"]), "Analysis mode (needs --html).";
    Hosts "hosts" [Analyze] Text("<a,b>"), "Host allowlist (needs --html; default model).";
}

/// What a flag's value must be: `true`/`on` or `false`/`off` (absent is
/// false), any text (shown as its placeholder), one of some words, a
/// finite number above zero, a whole number, seconds a [`Duration`] holds,
/// or one of the four spec syntaxes.
#[derive(Clone, Copy)]
enum Kind {
    Bool,
    Text(&'static str),
    Choice(&'static [&'static str]),
    Rate,
    Count,
    Seconds,
    Arrival,
    Faults,
    Retry,
    Meter,
}

/// A flag's checked value; text and word flags keep only their text.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Text,
    Bool(bool),
    Number(f64),
    Count(u64),
    Seconds(Duration),
    Arrival(ArrivalProcess),
    Faults(FaultPlan, FaultPlan),
    Retry(RetryPolicy),
    Meter(MeterLimits),
}

impl Kind {
    fn parse(self, text: &str) -> Result<Value, String> {
        let value = match self {
            Kind::Bool => match text {
                "true" | "on" => Value::Bool(true),
                "false" | "off" => Value::Bool(false),
                _ => return Err("use true/false".to_string()),
            },
            Kind::Choice(words) if !words.contains(&text) => {
                return Err(format!("use {}", words.join(", ")))
            }
            Kind::Text(_) | Kind::Choice(_) => Value::Text,
            Kind::Rate => match text.parse::<f64>().map_err(|e| e.to_string())? {
                rate if rate.is_finite() && rate > 0.0 => Value::Number(rate),
                _ => return Err("must be finite and above zero".to_string()),
            },
            Kind::Count => Value::Count(text.parse::<u64>().map_err(|e| e.to_string())?),
            Kind::Seconds => Value::Seconds(seconds(text)?),
            Kind::Arrival => Value::Arrival(parse_arrival(text)?),
            Kind::Faults => split_fault_plan(text).map(|(up, down)| Value::Faults(up, down))?,
            Kind::Retry if matches!(text, "default" | "on") => Value::Retry(RetryPolicy::default()),
            Kind::Retry => Value::Retry(RetryPolicy::parse(text).map_err(|e| e.to_string())?),
            Kind::Meter => Value::Meter(MeterLimits::parse(text).map_err(|e| e.to_string())?),
        };
        Ok(value)
    }

    fn placeholder(self) -> String {
        match self {
            Kind::Bool => "true".to_string(),
            Kind::Text(shown) => shown.to_string(),
            Kind::Choice([word]) => word.to_string(),
            Kind::Choice(words) => format!("<{}>", words.join("|")),
            Kind::Rate => "<rate>".to_string(),
            Kind::Count => "<n>".to_string(),
            Kind::Seconds => "<s>".to_string(),
            Kind::Arrival | Kind::Faults | Kind::Retry | Kind::Meter => "<spec>".to_string(),
        }
    }
}

/// Why a command line was refused; nothing has run when one is returned.
/// `Unexpected` is an unknown subcommand or flag, a second positional or
/// an argument that is not UTF-8.
#[derive(Debug, Clone, PartialEq)]
enum UsageError {
    NoCommand,
    Unexpected(String),
    Misplaced(Flag, Command),
    MissingValue(Flag),
    BadValue(Flag, String, String),
    Conflict(Flag, String),
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = |flag: &Flag| flag.spec().name;
        match self {
            UsageError::NoCommand => write!(f, "missing subcommand"),
            UsageError::Unexpected(arg) => write!(f, "unexpected argument {arg:?}"),
            UsageError::Misplaced(flag, command) => {
                write!(f, "snapedge {} takes no --{}", command.name(), name(flag))
            }
            UsageError::MissingValue(flag) => write!(f, "flag --{} needs a value", name(flag)),
            UsageError::BadValue(flag, text, why) => {
                write!(f, "bad --{} {text:?} ({why})", name(flag))
            }
            UsageError::Conflict(flag, why) => write!(f, "--{} {why}", name(flag)),
        }
    }
}

impl std::error::Error for UsageError {}

/// What a command returns: an `Err` holding a [`UsageError`] earns the
/// usage text, any other is one `error:` line.
type Outcome = Result<(), Box<dyn std::error::Error>>;

/// A checked command line: the subcommand and, per [`Flag`], the text and
/// value it was last given.
#[derive(Debug)]
struct Invocation {
    command: Command,
    given: [Option<(String, Value)>; FLAGS.len()],
}

impl Invocation {
    fn get(&self, flag: Flag) -> Option<&Value> {
        self.given[flag as usize].as_ref().map(|(_, value)| value)
    }

    fn text(&self, flag: Flag) -> Option<&str> {
        self.given[flag as usize]
            .as_ref()
            .map(|(text, _)| text.as_str())
    }

    fn on(&self, flag: Flag) -> bool {
        self.get(flag) == Some(&Value::Bool(true))
    }

    fn count(&self, flag: Flag) -> Option<u64> {
        match self.get(flag) {
            Some(Value::Count(n)) => Some(*n),
            _ => None,
        }
    }

    fn seconds(&self, flag: Flag) -> Option<Duration> {
        match self.get(flag) {
            Some(Value::Seconds(secs)) => Some(*secs),
            _ => None,
        }
    }

    fn mbps(&self) -> f64 {
        match self.get(Flag::Mbps) {
            Some(Value::Number(rate)) => *rate,
            _ => 30.0,
        }
    }

    fn model(&self) -> &str {
        self.text(Flag::Model).unwrap_or("googlenet")
    }

    fn horizon(&self) -> Duration {
        self.seconds(Flag::Duration)
            .unwrap_or(Duration::from_secs(60))
    }

    /// A [`UsageError::BadValue`] for the text `flag` was given.
    fn bad(&self, flag: Flag, why: impl fmt::Display) -> UsageError {
        let text = self.text(flag).unwrap_or_default().to_string();
        UsageError::BadValue(flag, text, why.to_string())
    }
}

/// Checks a whole command line (without the program name) against
/// [`FLAGS`] and [`RULES`]: one known subcommand, and every flag known,
/// taken by it and given a value of its kind. A repeated flag keeps its
/// later value.
fn parse<S: AsRef<str>>(argv: &[S]) -> Result<Invocation, UsageError> {
    let (mut command, mut flags) = (None, Vec::new());
    let mut args = argv.iter().map(AsRef::as_ref);
    while let Some(arg) = args.next() {
        let unexpected = || UsageError::Unexpected(arg.to_string());
        if let Some(name) = arg.strip_prefix("--") {
            let named = ALL_FLAGS.into_iter().find(|f| f.spec().name == name);
            let flag = named.ok_or_else(unexpected)?;
            flags.push((flag, args.next().ok_or(UsageError::MissingValue(flag))?));
        } else if command.is_some() {
            return Err(unexpected());
        } else {
            let named = COMMANDS.into_iter().find(|c| c.name() == arg);
            command = Some(named.ok_or_else(unexpected)?);
        }
    }
    let command = command.ok_or(UsageError::NoCommand)?;
    let given = std::array::from_fn(|_| None);
    let mut inv = Invocation { command, given };
    for (flag, text) in flags {
        if !flag.spec().commands.contains(&command) {
            return Err(UsageError::Misplaced(flag, command));
        }
        let value = (flag.spec().kind.parse(text))
            .map_err(|why| UsageError::BadValue(flag, text.to_string(), why))?;
        inv.given[flag as usize] = Some((text.to_string(), value));
    }
    let has = |flag: Flag| inv.get(flag).is_some();
    let conflict = |flag: Flag, why: String| Err(UsageError::Conflict(flag, why));
    for (flag, needs, other) in RULES {
        if has(flag) && has(other) != needs {
            let why = if needs { "needs" } else { "conflicts with" };
            return conflict(flag, format!("{why} --{}", other.spec().name));
        }
    }
    if command == Command::Run && has(Flag::Cut) && inv.text(Flag::Strategy) != Some("partial") {
        return conflict(Flag::Cut, "needs --strategy partial".to_string());
    }
    if let Some(Value::Arrival(arrival)) = inv.get(Flag::Arrival) {
        arrival
            .check(inv.horizon())
            .map_err(|e| inv.bad(Flag::Arrival, e))?;
    }
    Ok(inv)
}

/// Flag pairs a command line may not hold: `(flag, needs, other)` refuses
/// `flag` without `other` when it `needs` it, and beside it otherwise.
const RULES: [(Flag, bool, Flag); 5] = [
    (Flag::Mode, true, Flag::Html),
    (Flag::Hosts, true, Flag::Html),
    (Flag::Report, true, Flag::Html),
    (Flag::AllApps, false, Flag::Html),
    (Flag::FaultPlan, false, Flag::Servers),
];

/// The usage text, rendered from [`FLAGS`]: each command with the flags
/// it takes, wrapped at 88 columns, then each flag's help.
fn usage() -> String {
    let mut out = String::from("usage:\n");
    for command in COMMANDS {
        let mut line = format!("  snapedge {:<7}", command.name());
        for spec in FLAGS.iter().filter(|spec| spec.commands.contains(&command)) {
            let item = format!(" [--{} {}]", spec.name, spec.kind.placeholder());
            if line.len() + item.len() > 88 {
                out.push_str(&line);
                line = format!("\n{:18}", "");
            }
            line.push_str(&item);
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out.push_str("\nEvery flag takes a value, and a flag its command does not list is an error.\n");
    for spec in &FLAGS {
        out.push_str(&format!("  --{} {}\n", spec.name, spec.kind.placeholder()));
        for line in spec.help.lines() {
            out.push_str(&format!("      {line}\n"));
        }
    }
    out
}

/// Runs the command line and exits with [`run`]'s status: 0 when the
/// command succeeded, or when its reader closed stdout early (a broken
/// pipe, as in `snapedge sweep | head -1`, ends the command quietly: the
/// reader has what it asked for); 1 after one `error:` line on stderr,
/// followed by the usage text when the command line was refused.
fn main() -> ExitCode {
    let argv = std::env::args_os().skip(1).map(|arg| {
        (arg.into_string()).map_err(|arg| UsageError::Unexpected(arg.to_string_lossy().into()))
    });
    let (mut stdout, mut stderr) = (io::stdout().lock(), io::stderr());
    ExitCode::from(run(argv.collect(), &mut stdout, &mut stderr))
}

/// Parses `argv` and runs its command, writing its report to `out` and
/// a failure to `err`; returns the exit status [`main`] documents.
fn run(argv: Result<Vec<String>, UsageError>, out: &mut dyn Write, err: &mut dyn Write) -> u8 {
    let inv = argv.and_then(|argv| parse(&argv));
    let outcome = inv.map_err(Box::from).and_then(|inv| match inv.command {
        Command::Run => cmd_run(&inv, out),
        Command::Sweep => cmd_sweep(&inv, out),
        Command::Session => cmd_session(&inv, out),
        Command::Fleet => cmd_fleet(&inv, out),
        Command::Install => cmd_install(&inv, out),
        Command::Models => cmd_models(out),
        Command::Analyze => cmd_analyze(&inv, out),
    });
    let closed = |e: &io::Error| e.kind() == ErrorKind::BrokenPipe;
    match outcome.and_then(|()| Ok(out.flush()?)) {
        Err(e) if !e.downcast_ref().is_some_and(closed) => {
            // Nothing is left to tell a reader who closed stderr too.
            let _ = writeln!(err, "error: {e}");
            if e.is::<UsageError>() {
                let _ = write!(err, "{}", usage());
            }
            1
        }
        _ => 0,
    }
}

/// The `--strategy` (and `--cut`) of a run.
fn strategy(inv: &Invocation) -> Strategy {
    match inv.text(Flag::Strategy) {
        Some("client") => Strategy::ClientOnly,
        Some("server") => Strategy::ServerOnly,
        Some("before-ack") => Strategy::OffloadBeforeAck,
        Some("partial") => Strategy::Partial {
            cut: inv.text(Flag::Cut).unwrap_or("1st_pool").to_string(),
        },
        _ => Strategy::OffloadAfterAck,
    }
}

/// Splits a `--fault-plan` spec into per-link plans. Entries apply to both
/// links unless prefixed `up:` / `down:` (or the explicit `both:`).
fn split_fault_plan(spec: &str) -> Result<(FaultPlan, FaultPlan), String> {
    let (mut up, mut down) = (Vec::new(), Vec::new());
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        if let Some(rest) = entry.strip_prefix("up:") {
            up.push(rest);
        } else if let Some(rest) = entry.strip_prefix("down:") {
            down.push(rest);
        } else {
            let rest = entry.strip_prefix("both:").unwrap_or(entry);
            up.push(rest);
            down.push(rest);
        }
    }
    let build = |entries: &[&str]| FaultPlan::parse(&entries.join(",")).map_err(|e| e.to_string());
    Ok((build(&up)?, build(&down)?))
}

/// Reads the offload flags of `run`, `session` and `fleet` into `cfg`.
/// `--servers` replaces the fleet, each entry inheriting the primary (and
/// its `--mbps` link) as a template; without it `--fault-plan` lands on the
/// primary's links.
fn offload_config(inv: &Invocation, cfg: &mut OffloadConfig) -> Result<(), UsageError> {
    cfg.primary_mut().link = LinkConfig::mbps(inv.mbps());
    if let Some(spec) = inv.text(Flag::Servers) {
        let template = cfg.primary().clone();
        cfg.servers = parse_servers(spec, &template).map_err(|e| inv.bad(Flag::Servers, e))?;
    }
    if let Some(Value::Faults(up, down)) = inv.get(Flag::FaultPlan) {
        (cfg.primary_mut().up_faults, cfg.primary_mut().down_faults) = (up.clone(), down.clone());
    }
    if let Some(Value::Retry(policy)) = inv.get(Flag::Retry) {
        cfg.retry = Some(policy.clone());
    }
    if let Some(Value::Meter(limits)) = inv.get(Flag::Meter) {
        cfg.meter = Some(limits.clone());
    }
    cfg.predict = inv.on(Flag::Predict);
    cfg.effects = inv.on(Flag::Effects);
    Ok(())
}

/// Parses `text` as seconds a [`Duration`] can hold (not negative, not
/// NaN, not past `u64::MAX` seconds).
fn seconds(text: &str) -> Result<Duration, String> {
    let secs = text.parse::<f64>().map_err(|e| e.to_string())?;
    Duration::try_from_secs_f64(secs).map_err(|e| e.to_string())
}

/// The `run` command's config, from its flags.
fn scenario_config(inv: &Invocation) -> Result<ScenarioConfig, UsageError> {
    let mut cfg = ScenarioConfig::paper(inv.model(), strategy(inv));
    offload_config(inv, &mut cfg.core)?;
    Ok(cfg)
}

fn cmd_run(inv: &Invocation, out: &mut dyn Write) -> Outcome {
    let cfg = scenario_config(inv)?;
    let report = run_scenario(&cfg).map_err(|e| e.to_string())?;
    writeln!(out, "model:      {}", report.model)?;
    writeln!(out, "strategy:   {:?}", report.strategy)?;
    writeln!(out, "result:     {}", report.result)?;
    if let Some(name) = &report.server {
        let handoffs = report.handoff_count();
        if handoffs > 0 {
            writeln!(out, "server:     {name} (after {handoffs} handoff(s))")?;
        } else if cfg.servers.len() > 1 {
            writeln!(out, "server:     {name}")?;
        }
    }
    writeln!(out, "total:      {:.3}s", report.total.as_secs_f64())?;
    let b = report.breakdown;
    writeln!(
        out,
        "breakdown:  exec(C) {:.3}s | capture(C) {:.3}s | up {:.3}s | restore(S) {:.3}s",
        b.exec_client.as_secs_f64(),
        b.capture_client.as_secs_f64(),
        b.transfer_up.as_secs_f64(),
        b.restore_server.as_secs_f64()
    )?;
    writeln!(
        out,
        "            exec(S) {:.3}s | capture(S) {:.3}s | down {:.3}s | restore(C) {:.3}s",
        b.exec_server.as_secs_f64(),
        b.capture_server.as_secs_f64(),
        b.transfer_down.as_secs_f64(),
        b.restore_client.as_secs_f64()
    )?;
    if let Some(ack) = report.ack_at {
        writeln!(
            out,
            "pre-send:   {} bytes, ACK at {:.3}s; snapshots {} B up / {} B down",
            report.model_upload_bytes,
            ack.as_secs_f64(),
            report.snapshot_up_bytes,
            report.snapshot_down_bytes
        )?;
    }
    // The plan gate's verdict on the run's own cut, when it judged it.
    let planned = (report.trace.events().iter()).any(|e| e.name.starts_with("gate:plan:"));
    let verdict = if report.proactive {
        "local (completed locally before any retry)"
    } else {
        "ship"
    };
    if planned {
        writeln!(out, "predict:    {verdict}")?;
    }
    if report.fell_back {
        writeln!(
            out,
            "fallback:   offload gave up; the inference completed locally"
        )?;
    }
    let retries = report.retry_count();
    if retries > 0 || report.fault_time() > Duration::ZERO {
        writeln!(
            out,
            "resilience: {retries} retries | backoff {:.3}s | fault time {:.3}s",
            report.backoff_time().as_secs_f64(),
            report.fault_time().as_secs_f64()
        )?;
    }
    if inv.on(Flag::Timeline) {
        writeln!(out, "\ntimeline (C=client, N=network, S=server):")?;
        // The canonical phase events, from the click onward: the pre-send
        // and its ACK come before it.
        let top_level = report.trace.top_level();
        let phases: Vec<_> = (top_level.events().iter())
            .filter(|e| e.start >= report.clicked_at && e.end > e.start)
            .cloned()
            .collect();
        write!(out, "{}", snapedge_trace::render_ascii(&phases, 50))?;
    }
    if let Some(path) = inv.text(Flag::Trace) {
        std::fs::write(path, report.trace.to_jsonl())
            .map_err(|e| format!("writing {path}: {e}"))?;
        writeln!(
            out,
            "trace:      {} events -> {path}",
            report.trace.events().len()
        )?;
    }
    Ok(())
}

fn cmd_sweep(inv: &Invocation, out: &mut dyn Write) -> Outcome {
    let model = inv.model();
    let mbps = inv.mbps();
    writeln!(out, "partition sweep for {model} at {mbps:.0} Mbps:")?;
    writeln!(out, "cut              total(s)  snapshot(MiB)")?;
    for cut in zoo::fig8_cuts(model) {
        let strategy = if cut == "input" {
            Strategy::OffloadAfterAck
        } else {
            Strategy::Partial {
                cut: cut.to_string(),
            }
        };
        let mut cfg = ScenarioConfig::paper(model, strategy);
        cfg.primary_mut().link = LinkConfig::mbps(mbps);
        let report = run_scenario(&cfg).map_err(|e| e.to_string())?;
        writeln!(
            out,
            "{:<14} {:>10.2} {:>14.2}",
            cut,
            report.total.as_secs_f64(),
            report.snapshot_up_bytes as f64 / (1024.0 * 1024.0)
        )?;
    }
    Ok(())
}

fn cmd_session(inv: &Invocation, out: &mut dyn Write) -> Outcome {
    let rounds = inv.count(Flag::Rounds).unwrap_or(3);
    let cfg = session_config(inv)?;
    let predict = cfg.predict;
    let mut session = OffloadSession::new(cfg).map_err(|e| e.to_string())?;
    // The plan gate's column is printed only when it is consulted: `local`
    // for a round it kept on the client, `ship` for one that offloaded,
    // `-` for one that completed locally for another reason.
    let column = |text: &str| {
        if predict {
            format!(" {text:>14}")
        } else {
            String::new()
        }
    };
    let header = " round     mode     up bytes   down bytes      total          server";
    writeln!(out, "{header}{}", column("predict"))?;
    for round in 1..=rounds {
        let r = session.infer(round).map_err(|e| e.to_string())?;
        let mode = if r.proactive {
            "predict"
        } else if r.fell_back {
            "local"
        } else if r.delta_up {
            "delta"
        } else {
            "full"
        };
        let predicted = match (r.proactive, &r.server) {
            (true, _) => "local",
            (false, Some(_)) => "ship",
            (false, None) => "-",
        };
        writeln!(
            out,
            "{:>6} {:>8} {:>12} {:>12} {:>9.2}s {:>15}{}   {}",
            r.round,
            mode,
            r.up_bytes,
            r.down_bytes,
            r.total.as_secs_f64(),
            r.server.as_deref().unwrap_or("client"),
            column(predicted),
            r.result
        )?;
    }
    Ok(())
}

/// The `session` and `fleet` commands' config, from their flags.
fn session_config(inv: &Invocation) -> Result<SessionConfig, UsageError> {
    let mut cfg = SessionConfig::paper(inv.model());
    cfg.use_deltas = !inv.on(Flag::NoDeltas);
    offload_config(inv, &mut cfg.core)?;
    if let Some(seed) = inv.count(Flag::Seed) {
        cfg.seed = seed;
    }
    Ok(cfg)
}

/// The think time of a bare `closed` arrival spec, the default traffic.
const THINK: Duration = Duration::from_secs(2);

/// Parses an `--arrival` spec: `closed[:think_s]`, `poisson:rate_hz`, or
/// `diurnal:base_hz:peak_hz:period_s`.
fn parse_arrival(spec: &str) -> Result<ArrivalProcess, String> {
    let mut parts = spec.split(':');
    let shape = parts.next().unwrap_or_default();
    let rest: Vec<&str> = parts.collect();
    let num = |s: &str, what: &str| s.parse::<f64>().map_err(|e| format!("{what} {s:?}: {e}"));
    let secs = |s: &str, what: &str| seconds(s).map_err(|e| format!("{what} {s:?}: {e}"));
    match (shape, rest.as_slice()) {
        ("closed", []) => Ok(ArrivalProcess::ClosedLoop { think: THINK }),
        ("closed", [think]) => Ok(ArrivalProcess::ClosedLoop {
            think: secs(think, "think time")?,
        }),
        ("poisson", [rate]) => Ok(ArrivalProcess::Poisson {
            rate_hz: num(rate, "rate")?,
        }),
        ("diurnal", [base, peak, period]) => Ok(ArrivalProcess::Diurnal {
            base_hz: num(base, "base rate")?,
            peak_hz: num(peak, "peak rate")?,
            period: secs(period, "period")?,
        }),
        _ => Err(
            "use closed[:think_s], poisson:rate_hz or diurnal:base_hz:peak_hz:period_s".to_string(),
        ),
    }
}

/// Prints the `fleet:` header of a built engine, shapes it from the
/// fleet flags and runs it to completion.
fn run_fleet<W: Workload>(
    engine: Engine<W>,
    inv: &Invocation,
    arrival: ArrivalProcess,
    header: &str,
    out: &mut dyn Write,
) -> Result<FleetReport, Box<dyn std::error::Error>> {
    writeln!(out, "{header}")?;
    let mut engine = engine
        .arrival(arrival)
        .duration(inv.horizon())
        .balance(inv.on(Flag::Balance))
        .fair_share(inv.on(Flag::FairShare));
    if let Some(cap) = inv.count(Flag::Rounds) {
        engine = engine.max_rounds(usize::try_from(cap).unwrap_or(usize::MAX));
    }
    if let Some(window) = inv.seconds(Flag::BatchWindow) {
        engine = engine.batch_window(window);
    }
    Ok(engine.run().map_err(|e| e.to_string())?)
}

fn cmd_fleet(inv: &Invocation, out: &mut dyn Write) -> Outcome {
    let clients = inv
        .count(Flag::Clients)
        .map_or(100, |n| usize::try_from(n).unwrap_or(usize::MAX));
    let arrival = match inv.get(Flag::Arrival) {
        Some(Value::Arrival(arrival)) => arrival.clone(),
        _ => ArrivalProcess::ClosedLoop { think: THINK },
    };
    let real = inv.on(Flag::Real);
    let cfg = session_config(inv)?;
    let balancing =
        inv.on(Flag::Balance) || inv.on(Flag::FairShare) || inv.get(Flag::BatchWindow).is_some();
    let header = format!(
        "fleet:      {} server(s), {} client(s), arrival {:?}, horizon {:.0}s, {} workload",
        cfg.servers.len(),
        clients,
        arrival,
        inv.horizon().as_secs_f64(),
        if real { "real-session" } else { "modeled" }
    );
    let report = if real {
        let engine = Engine::sessions(cfg, clients).map_err(|e| e.to_string())?;
        run_fleet(engine, inv, arrival, &header, out)?
    } else {
        let engine = Engine::modeled(cfg, clients).map_err(|e| e.to_string())?;
        run_fleet(engine, inv, arrival, &header, out)?
    };
    writeln!(
        out,
        "completed:  {} round(s) ({} fallback(s)) | makespan {:.3}s | throughput {:.1}/s",
        report.completed,
        report.fallbacks,
        report.makespan.as_secs_f64(),
        report.throughput_rps
    )?;
    writeln!(
        out,
        "latency:    p50 {:.3}s | p95 {:.3}s | p99 {:.3}s (mean {:.3}s, max {:.3}s)",
        report.latency.p50.as_secs_f64(),
        report.latency.p95.as_secs_f64(),
        report.latency.p99.as_secs_f64(),
        report.latency.mean.as_secs_f64(),
        report.latency.max.as_secs_f64()
    )?;
    writeln!(
        out,
        "queue wait: p50 {:.3}s | p95 {:.3}s | p99 {:.3}s (max {:.3}s)",
        report.queue_wait.p50.as_secs_f64(),
        report.queue_wait.p95.as_secs_f64(),
        report.queue_wait.p99.as_secs_f64(),
        report.queue_wait.max.as_secs_f64()
    )?;
    if report.total_ops > 0 || report.peak_heap > 0 {
        writeln!(
            out,
            "meter:      {} op(s) charged | peak heap {} cell(s)",
            report.total_ops, report.peak_heap
        )?;
    }
    if balancing {
        let rejects: usize = report.servers.iter().map(|s| s.rejects).sum();
        writeln!(
            out,
            "balance:    fairness {:.3} | {} admission reject(s) | max batch {}",
            report.fairness, rejects, report.max_batch
        )?;
    }
    for server in &report.servers {
        let admission = if balancing {
            let (admits, rejects, batches) = (server.admits, server.rejects, server.batches);
            format!(" | {admits} admit(s), {rejects} reject(s), {batches} batch(es)")
        } else {
            String::new()
        };
        writeln!(
            out,
            "server:     {:<16} {:>8} round(s) | busy {:.3}s | utilization {:.1}%{admission}",
            server.name,
            server.rounds,
            server.busy.as_secs_f64(),
            server.utilization * 100.0
        )?;
    }
    Ok(())
}

fn cmd_install(inv: &Invocation, out: &mut dyn Write) -> Outcome {
    let model = inv.model();
    let net = zoo::by_name(model).map_err(|e| e.to_string())?;
    let bytes = ModelBundle::from_network(&net).total_bytes();
    let report = vm_install(
        model,
        bytes,
        &LinkConfig::mbps(inv.mbps()),
        &SynthesisConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "overlay: {:.1} MiB (model {:.1} MiB inside)",
        report.overlay_bytes as f64 / (1024.0 * 1024.0),
        bytes as f64 / (1024.0 * 1024.0)
    )?;
    writeln!(
        out,
        "synthesis: upload {:.2}s + apply {:.2}s = {:.2}s",
        report.upload.as_secs_f64(),
        report.apply.as_secs_f64(),
        report.total().as_secs_f64()
    )?;
    Ok(())
}

fn cmd_models(out: &mut dyn Write) -> Outcome {
    for name in [
        "googlenet",
        "agenet",
        "gendernet",
        "tiny_cnn",
        "tiny_inception",
    ] {
        let net = zoo::by_name(name).map_err(|e| e.to_string())?;
        let profile = net.profile();
        writeln!(
            out,
            "{name}: {} layers, {:.1} MiB params, {:.2} GFLOPs",
            net.node_count(),
            profile.total_param_bytes() as f64 / (1024.0 * 1024.0),
            profile.total_flops() as f64 / 1e9
        )?;
        let cuts: Vec<String> = net.cut_points().iter().map(|c| c.label.clone()).collect();
        writeln!(out, "  cuts: {}", cuts.join(", "))?;
    }
    Ok(())
}

/// The analyzer options `--mode` / `--hosts` ask for. Apps talk to the
/// Caffe.js `model` host, so it is in the allowlist by default.
fn analysis_options(inv: &Invocation) -> AnalysisOptions {
    let opts = match inv.text(Flag::Mode) {
        Some("snapshot") => AnalysisOptions::snapshot(),
        Some("delta") => AnalysisOptions::delta(Vec::new()),
        _ => AnalysisOptions::app(),
    };
    let hosts = match inv.text(Flag::Hosts) {
        Some(list) => list
            .split(',')
            .map(str::trim)
            .filter(|h| !h.is_empty())
            .map(str::to_string)
            .collect(),
        None => vec!["model".to_string()],
    };
    opts.with_hosts(hosts)
}

/// Builds the effect-pass host surface from `--hosts`. The CLI has no way
/// to register a live host object, so every allowlisted name is treated as
/// deterministic — sessions derive the real surface (with per-host effect
/// tags) from the browser they run in.
fn effect_options(inv: &Invocation) -> EffectOptions {
    let hosts = analysis_options(inv).hosts.into_iter();
    EffectOptions::from_host_effects(hosts.map(|h| (h, HostEffect::Deterministic)).collect())
}

/// Escapes untrusted text for embedding in HTML markup. Guest apps are
/// untrusted input (PR 7 threat model): a hostile identifier or parse-error
/// excerpt like `x<script>` must render as text, never as live markup.
fn escape_html(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders the `--report` markup for one analyzed file. Every string that
/// can carry guest source — the target path, diagnostic messages and
/// identifiers, effect-summary rows — goes through [`escape_html`].
fn render_html_report(
    target: &str,
    report: &AnalysisReport,
    effects: Option<&EffectSummary>,
) -> String {
    let mut out = String::from("<!doctype html>\n<html><head><meta charset=\"utf-8\">");
    out.push_str(&format!(
        "<title>analyze {}</title></head><body>\n",
        escape_html(target)
    ));
    out.push_str(&format!("<h1>analyze {}</h1>\n", escape_html(target)));
    out.push_str(&format!("<p>{}</p>\n", escape_html(&report.summary())));
    if !report.diagnostics.is_empty() {
        out.push_str("<ul>\n");
        for d in &report.diagnostics {
            out.push_str(&format!(
                "  <li><code>{}</code></li>\n",
                escape_html(&d.to_string())
            ));
        }
        out.push_str("</ul>\n");
    }
    if let Some(summary) = effects {
        out.push_str(&format!(
            "<h2>effects</h2>\n<pre>{}</pre>\n",
            escape_html(&summary.render())
        ));
    }
    out.push_str("</body></html>\n");
    out
}

/// Prints one target's verdict; returns its diagnostic count.
fn print_report(target: &str, report: &AnalysisReport, out: &mut dyn Write) -> io::Result<usize> {
    if report.is_clean() {
        let s = &report.stats;
        writeln!(
            out,
            "analyze {target}: clean ({} functions, {} reachable; {} globals, {} handlers)",
            s.functions, s.reachable_functions, s.globals, s.handlers
        )?;
    } else {
        writeln!(out, "analyze {target}: {}", report.summary())?;
        writeln!(out, "{}", report.render())?;
    }
    Ok(report.diagnostics.len())
}

/// Analyzes a MiniJS or HTML file from disk. With `--effects true` the
/// static effect pass runs too (cost floors, nondeterminism sources);
/// with `--report <out.html>` an escaped markup report is written before
/// any verdict is returned, so failures are captured in the report.
fn cmd_analyze_file(path: &str, inv: &Invocation, out: &mut dyn Write) -> Outcome {
    let source = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let opts = analysis_options(inv);
    let is_html = source.contains("<script>");
    let report = if is_html {
        analyze_html(&source, &opts)
    } else {
        analyze_script(&source, &opts)
    };
    let effects = if inv.on(Flag::Effects) {
        let eopts = effect_options(inv);
        let result = if is_html {
            effect_summary_html(&source, &eopts)
        } else {
            effect_summary(&source, &eopts)
        };
        let summary = result.map_err(|e| format!("{path}: {e}"))?;
        write!(out, "{}", summary.render())?;
        Some(summary)
    } else {
        None
    };
    let findings = print_report(path, &report, out)?;
    if let Some(target) = inv.text(Flag::Report) {
        let markup = render_html_report(path, &report, effects.as_ref());
        std::fs::write(target, markup).map_err(|e| format!("writing {target}: {e}"))?;
        writeln!(out, "report: {target}")?;
    }
    if findings > 0 {
        return Err(format!("{path}: {}", report.summary()).into());
    }
    if let Some(summary) = &effects {
        summary.verdict().map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// `snapedge analyze` — the static snapshot verifier. With `--html` it
/// analyzes a file; otherwise it analyzes both paper app sources (the
/// same for every model) in app mode, with their effect summaries under
/// `--effects true`.
fn cmd_analyze(inv: &Invocation, out: &mut dyn Write) -> Outcome {
    if let Some(path) = inv.text(Flag::Html) {
        return cmd_analyze_file(path, inv, out);
    }
    let url = apps::synthetic_image_data_url(7, 256);
    let opts = AnalysisOptions::app().with_hosts(vec!["model".to_string()]);
    let eopts = EffectOptions::new().with_host("model", HostEffect::Deterministic);
    let mut findings = 0;
    let sources = [
        ("full-app", apps::full_inference_app(&url)),
        ("partial-app", apps::partial_inference_app(&url)),
    ];
    for (label, html) in &sources {
        findings += print_report(label, &analyze_html(html, &opts), out)?;
        if inv.on(Flag::Effects) {
            let summary = effect_summary_html(html, &eopts).map_err(|e| format!("{label}: {e}"))?;
            write!(out, "{}", summary.render())?;
            // A nondeterministic paper app would be a finding: its
            // snapshots could not be replayed bit-identically elsewhere.
            findings += summary.nondet.len();
        }
    }
    if findings > 0 {
        return Err(format!("analyze: {findings} diagnostic(s) across targets").into());
    }
    writeln!(out, "analyze: all targets clean")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapedge_analyze::Mode;
    use snapedge_net::LinkState;
    use snapedge_rng::Rng;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn parsed(argv: &[&str]) -> Invocation {
        parse(argv).unwrap()
    }

    /// The config `run`, `session` or `fleet` would offload with, as text.
    fn config(inv: &Invocation) -> Option<Result<String, UsageError>> {
        match inv.command {
            Command::Run => Some(scenario_config(inv).map(|cfg| format!("{cfg:?}"))),
            Command::Session | Command::Fleet => {
                Some(session_config(inv).map(|cfg| format!("{cfg:?}")))
            }
            _ => None,
        }
    }

    #[test]
    fn parses_arrival_specs() {
        assert_eq!(
            parse_arrival("closed").unwrap(),
            ArrivalProcess::ClosedLoop {
                think: Duration::from_secs(2)
            }
        );
        assert_eq!(
            parse_arrival("closed:0.5").unwrap(),
            ArrivalProcess::ClosedLoop {
                think: Duration::from_millis(500)
            }
        );
        assert_eq!(
            parse_arrival("poisson:120").unwrap(),
            ArrivalProcess::Poisson { rate_hz: 120.0 }
        );
        assert_eq!(
            parse_arrival("diurnal:5:80:3600").unwrap(),
            ArrivalProcess::Diurnal {
                base_hz: 5.0,
                peak_hz: 80.0,
                period: Duration::from_secs(3600)
            }
        );
    }

    #[test]
    fn rejects_malformed_arrival_specs() {
        for bad in [
            "",
            "uniform:3",
            "poisson",
            "poisson:fast",
            "diurnal:5:80",
            "closed:1:2",
            "closed:-1",
            "closed:nan",
            "closed:1e30",
            "diurnal:1:2:-5",
            // Well-formed, but not a rate curve the engine can sample.
            "diurnal:nan:80:60",
            "diurnal:-50:80:60",
            "diurnal:5:80:0",
            "poisson:1e308",
        ] {
            let err = parse(&["fleet", "--arrival", bad]).unwrap_err();
            assert!(
                matches!(&err, UsageError::BadValue(Flag::Arrival, text, _) if text == bad),
                "{bad:?}: {err}"
            );
        }
        // The engine's bound is over the whole horizon.
        assert!(parse(&["fleet", "--arrival", "poisson:1e4"]).is_ok());
        assert!(parse(&["fleet", "--arrival", "poisson:1e4", "--duration", "1e3"]).is_err());
        for bad in ["-1", "nan", "1e30", "soon"] {
            for flag in ["--duration", "--batch-window"] {
                let err = parse(&["fleet", "--clients", "1", flag, bad]).unwrap_err();
                let err = err.to_string();
                assert!(
                    err.starts_with(&format!("bad {flag} ")),
                    "{flag} {bad}: {err}"
                );
            }
        }
    }

    #[test]
    fn parses_positional_and_flags() {
        let a = parsed(&[
            "run",
            "--model",
            "agenet",
            "--strategy",
            "partial",
            "--cut",
            "2nd_pool",
        ]);
        assert_eq!(a.command, Command::Run);
        assert_eq!(a.model(), "agenet");
        assert_eq!(a.text(Flag::Cut), Some("2nd_pool"));
    }

    #[test]
    fn later_flags_win() {
        let a = parsed(&["run", "--mbps", "10", "--mbps", "25"]);
        assert_eq!(a.mbps(), 25.0);
    }

    #[test]
    fn missing_flag_value_is_an_error() {
        assert_eq!(
            parse(&["run", "--model"]).unwrap_err(),
            UsageError::MissingValue(Flag::Model)
        );
    }

    #[test]
    fn strategy_parsing() {
        assert_eq!(strategy(&parsed(&["run"])), Strategy::OffloadAfterAck);
        assert_eq!(
            strategy(&parsed(&["run", "--strategy", "client"])),
            Strategy::ClientOnly
        );
        assert_eq!(
            strategy(&parsed(&["run", "--strategy", "partial"])),
            Strategy::Partial {
                cut: "1st_pool".into()
            }
        );
        assert!(parse(&["run", "--strategy", "teleport"]).is_err());
    }

    #[test]
    fn defaults() {
        let a = parsed(&["run"]);
        assert_eq!(a.model(), "googlenet");
        assert_eq!(a.mbps(), 30.0);
    }

    #[test]
    fn bad_mbps_is_an_error() {
        for bad in ["fast", "0", "-5", "nan", "inf"] {
            for command in ["run", "sweep", "session", "fleet", "install"] {
                let err = parse(&[command, "--mbps", bad]).unwrap_err();
                assert!(
                    err.to_string().starts_with(&format!("bad --mbps {bad:?}")),
                    "{command} {bad}: {err}"
                );
            }
        }
    }

    #[test]
    fn fault_plan_defaults_to_no_faults() {
        let cfg = scenario_config(&parsed(&["run"])).unwrap();
        assert!(cfg.primary().up_faults.is_empty() && cfg.primary().down_faults.is_empty());
    }

    #[test]
    fn fault_plan_entries_hit_both_links_unless_prefixed() {
        let cfg = scenario_config(&parsed(&[
            "run",
            "--fault-plan",
            "down@2..5,up:corrupt@7..8,down:degrade@1..2x0.5",
        ]))
        .unwrap();
        let (up, down) = (&cfg.primary().up_faults, &cfg.primary().down_faults);
        assert_eq!(up.windows().len(), 2);
        assert_eq!(down.windows().len(), 2);
        assert_eq!(
            up.state_at(Duration::from_secs_f64(7.5)),
            LinkState::Corrupting
        );
        assert_eq!(
            down.state_at(Duration::from_secs_f64(1.5)),
            LinkState::Degraded(0.5)
        );
        // the unprefixed outage lands on both
        assert_eq!(up.state_at(Duration::from_secs(3)), LinkState::Down);
        assert_eq!(down.state_at(Duration::from_secs(3)), LinkState::Down);
    }

    #[test]
    fn bad_fault_plan_is_an_error() {
        assert!(parse(&["run", "--fault-plan", "explode@1..2"]).is_err());
    }

    #[test]
    fn analysis_options_default_to_app_mode_with_model_host() {
        let opts = analysis_options(&parsed(&["analyze"]));
        assert_eq!(opts.mode, Mode::App);
        assert_eq!(opts.hosts, vec!["model".to_string()]);
        let file = ["analyze", "--html", "page.html"];
        let opts = analysis_options(&parsed(
            &[&file[..], &["--mode", "snapshot", "--hosts", "a, b"]].concat(),
        ));
        assert_eq!(opts.mode, Mode::Snapshot);
        assert_eq!(opts.hosts, vec!["a".to_string(), "b".to_string()]);
        assert!(parse(&[&file[..], &["--mode", "dynamic"]].concat()).is_err());
    }

    #[test]
    fn paper_apps_analyze_clean_from_the_cli_path() {
        let url = apps::synthetic_image_data_url(7, 256);
        let opts = analysis_options(&parsed(&["analyze"]));
        for html in [
            apps::full_inference_app(&url),
            apps::partial_inference_app(&url),
        ] {
            let report = analyze_html(&html, &opts);
            assert!(report.is_clean(), "{}", report.render());
        }
    }

    #[test]
    fn servers_flag_replaces_the_fleet() {
        let cfg = scenario_config(&parsed(&[
            "run",
            "--servers",
            "edge-a;edge-b,mbps=12,up=down@2..5+corrupt@7..8",
        ]))
        .unwrap();
        assert_eq!(cfg.servers.len(), 2);
        assert_eq!(cfg.servers[0].name, "edge-a");
        assert_eq!(cfg.servers[1].link.bandwidth_bps, 12.0e6);
        assert_eq!(cfg.servers[1].up_faults.windows().len(), 2);
        // Entries inherit the primary's link as a template.
        assert_eq!(
            cfg.servers[0].link.bandwidth_bps,
            ScenarioConfig::paper("googlenet", Strategy::OffloadAfterAck)
                .primary()
                .link
                .bandwidth_bps
        );
    }

    #[test]
    fn servers_flag_round_trips_through_format_and_parse() {
        // parse -> format -> parse must reproduce the fleet exactly.
        let template = ScenarioConfig::paper("googlenet", Strategy::OffloadAfterAck)
            .primary()
            .clone();
        let fleet = parse_servers(
            "edge-a,mbps=30,latency=0.002;edge-b,mbps=12,loss=0.05,up=down@2..5+degrade@7..9x0.25;\
             edge-c,bps=2500000,overhead=96,down=corrupt@1..2",
            &template,
        )
        .unwrap();
        let formatted = snapedge_core::format_servers(&fleet);
        let reparsed = parse_servers(&formatted, &template).unwrap();
        assert_eq!(reparsed, fleet);
        // And formatting is a fixed point from there on.
        assert_eq!(snapedge_core::format_servers(&reparsed), formatted);
    }

    #[test]
    fn servers_and_fault_plan_flags_are_mutually_exclusive() {
        let err = parse(&["run", "--servers", "edge-a", "--fault-plan", "down@2..5"]).unwrap_err();
        assert!(err.to_string().contains("--fault-plan"), "{err}");
        let err = scenario_config(&parsed(&["run", "--servers", "edge-a,=bad"])).unwrap_err();
        assert!(
            matches!(err, UsageError::BadValue(Flag::Servers, ..)),
            "{err}"
        );
    }

    #[test]
    fn without_servers_flag_fault_plans_land_on_the_primary() {
        let cfg = session_config(&parsed(&["session", "--fault-plan", "up:down@2..5"])).unwrap();
        assert_eq!(cfg.servers.len(), 1);
        assert_eq!(cfg.servers[0].up_faults.windows().len(), 1);
        assert!(cfg.servers[0].down_faults.is_empty());
    }

    /// `flag` given each of `true on false off` on `command`, read back,
    /// and refused for `maybe` and `no`.
    fn assert_bool_flag(command: &str, flag: Flag) {
        let name = format!("--{}", flag.spec().name);
        assert!(!parsed(&[command]).on(flag));
        for (text, on) in [
            ("true", true),
            ("on", true),
            ("false", false),
            ("off", false),
        ] {
            assert_eq!(
                parsed(&[command, &name, text]).on(flag),
                on,
                "{name} {text}"
            );
        }
        for text in ["maybe", "no"] {
            assert!(parse(&[command, &name, text]).is_err(), "{name} {text}");
        }
    }

    #[test]
    fn predict_flag_parses_and_defaults_off() {
        assert_bool_flag("run", Flag::Predict);
        assert!(
            session_config(&parsed(&["fleet", "--predict", "true"]))
                .unwrap()
                .predict
        );
    }

    #[test]
    fn balance_flags_parse_and_default_off() {
        assert_bool_flag("fleet", Flag::Balance);
        assert_bool_flag("fleet", Flag::FairShare);
    }

    #[test]
    fn batch_window_flag_parses_seconds() {
        assert_eq!(parsed(&["fleet"]).seconds(Flag::BatchWindow), None);
        assert_eq!(
            parsed(&["fleet", "--batch-window", "0.25"]).seconds(Flag::BatchWindow),
            Some(Duration::from_millis(250))
        );
        assert!(parse(&["fleet", "--batch-window", "-1"]).is_err());
        assert!(parse(&["fleet", "--batch-window", "soon"]).is_err());
    }

    #[test]
    fn effects_flag_parses_and_defaults_off() {
        assert_bool_flag("run", Flag::Effects);
        assert_bool_flag("analyze", Flag::Effects);
        assert!(
            scenario_config(&parsed(&["run", "--effects", "on"]))
                .unwrap()
                .effects
        );
    }

    #[test]
    fn false_means_false_for_no_deltas_and_timeline() {
        assert!(session_config(&parsed(&["session"])).unwrap().use_deltas);
        let kept = session_config(&parsed(&["session", "--no-deltas", "false"])).unwrap();
        assert!(kept.use_deltas, "--no-deltas false must keep deltas on");
        let dropped = session_config(&parsed(&["session", "--no-deltas", "true"])).unwrap();
        assert!(!dropped.use_deltas);
        assert!(!parsed(&["run", "--timeline", "false"]).on(Flag::Timeline));
    }

    #[test]
    fn every_bool_flag_refuses_other_values_before_running() {
        let maybe = |command: &str, flag: &str| {
            parse(&[command, "--model", "tiny_cnn", flag, "maybe"]).map(|inv| inv.command)
        };
        let refused = |flag: &str| Err(format!("bad {flag} \"maybe\" (use true/false)"));
        let message = |r: Result<Command, UsageError>| r.map_err(|e| e.to_string());
        assert_eq!(message(maybe("run", "--timeline")), refused("--timeline"));
        assert_eq!(
            message(maybe("session", "--no-deltas")),
            refused("--no-deltas")
        );
        assert_eq!(message(maybe("fleet", "--real")), refused("--real"));
    }

    #[test]
    fn escape_html_neutralizes_markup_characters() {
        assert_eq!(
            escape_html("<script>alert('x & \"y\"')</script>"),
            "&lt;script&gt;alert(&#39;x &amp; &quot;y&quot;&#39;)&lt;/script&gt;"
        );
        assert_eq!(escape_html("plain_ident"), "plain_ident");
    }

    #[test]
    fn html_report_escapes_guest_identifiers() {
        use snapedge_analyze::{Diagnostic, Rule, Severity};
        // Guest source is untrusted: a hostile name reaching a diagnostic
        // must come out as text, not live markup.
        let report = AnalysisReport {
            diagnostics: vec![Diagnostic {
                rule: Rule::FreeIdentifier,
                severity: Severity::Error,
                message: "undefined identifier `x<script>alert(1)</script>`".to_string(),
                name: Some("x<script>alert(1)</script>".to_string()),
                line: Some(1),
            }],
            stats: Default::default(),
        };
        let markup = render_html_report("evil<b>.html", &report, None);
        assert!(!markup.contains("<script>"), "{markup}");
        assert!(!markup.contains("evil<b>"), "{markup}");
        assert!(
            markup.contains("&lt;script&gt;alert(1)&lt;/script&gt;"),
            "{markup}"
        );
    }

    #[test]
    fn paper_apps_have_deterministic_effect_summaries() {
        let url = apps::synthetic_image_data_url(7, 256);
        let eopts = EffectOptions::new().with_host("model", HostEffect::Deterministic);
        // The values the session's two gates read, pinned: the app
        // sources are the same for all three paper models.
        for (html, min_ops) in [
            (apps::full_inference_app(&url), 1),
            (apps::partial_inference_app(&url), 2),
        ] {
            let summary = effect_summary_html(&html, &eopts).unwrap();
            assert!(!summary.is_nondeterministic(), "{}", summary.render());
            assert_eq!(summary.cost.min_ops, min_ops, "{}", summary.render());
            assert_eq!(summary.cost.min_new_cells, 0, "{}", summary.render());
        }
    }

    #[test]
    fn retry_flag_parses_default_and_spec() {
        let retry =
            |argv: &[&str]| parse(argv).map(|inv| scenario_config(&inv).unwrap().core.retry);
        assert_eq!(retry(&["run"]), Ok(None));
        assert_eq!(
            retry(&["run", "--retry", "default"]),
            Ok(Some(RetryPolicy::default()))
        );
        let p = retry(&["run", "--retry", "attempts=7,deadline=90"])
            .unwrap()
            .unwrap();
        assert_eq!(p.max_attempts, 7);
        assert_eq!(p.deadline, Duration::from_secs(90));
        assert!(retry(&["run", "--retry", "attempts=zero"]).is_err());
    }

    #[test]
    fn meter_flag_parses_spec_and_defaults_off() {
        let meter =
            |argv: &[&str]| parse(argv).map(|inv| scenario_config(&inv).unwrap().core.meter);
        assert_eq!(meter(&["run"]), Ok(None));
        let limits = meter(&["run", "--meter", "ops=5000,heap=200,slice=2.5"])
            .unwrap()
            .unwrap();
        assert_eq!(limits.max_ops, Some(5000));
        assert_eq!(limits.max_heap_cells, Some(200));
        assert_eq!(limits.time_slice, Some(Duration::from_secs_f64(0.0025)));
        assert!(meter(&["run", "--meter", "ops=zero"]).is_err());
        assert!(meter(&["run", "--meter", "warp=9"]).is_err());
    }

    /// A value each kind accepts, different from the commands' defaults.
    fn sample(kind: Kind) -> &'static str {
        match kind {
            Kind::Bool => "true",
            Kind::Text(_) => "x",
            Kind::Choice(words) => words[words.len() - 1],
            Kind::Rate => "12.5",
            Kind::Count => "7",
            Kind::Seconds => "0.25",
            Kind::Arrival => "poisson:5",
            Kind::Faults => "up:down@2..5",
            Kind::Retry => "attempts=7",
            Kind::Meter => "ops=5000",
        }
    }

    /// Every row of the table: the `Flag` variant it is indexed by names
    /// it; each command it lists parses it, hands its value to the typed
    /// reader and, for the three offload commands, moves the config with
    /// it (unless it shapes the run rather than the config); every other
    /// command refuses it; and the usage lists it under exactly its
    /// commands.
    #[test]
    fn every_flag_row_is_read_where_listed_refused_elsewhere_and_rendered() {
        let usage = usage();
        let mut blocks: Vec<(String, String)> = Vec::new();
        for line in usage.lines().take_while(|l| !l.is_empty()).skip(1) {
            match line.strip_prefix("  snapedge ") {
                Some(rest) => {
                    let name = rest.split_whitespace().next().unwrap_or_default();
                    blocks.push((name.to_string(), line.to_string()));
                }
                None => blocks.last_mut().unwrap().1.push_str(line),
            }
        }
        let names: Vec<&str> = blocks.iter().map(|(name, _)| name.as_str()).collect();
        let commands: Vec<String> = COMMANDS.into_iter().map(Command::name).collect();
        assert_eq!(names, commands);
        let shapes_the_run = [
            Flag::Timeline,
            Flag::Trace,
            Flag::Rounds,
            Flag::Clients,
            Flag::Arrival,
            Flag::Duration,
            Flag::Real,
            Flag::Balance,
            Flag::FairShare,
            Flag::BatchWindow,
        ];
        for (index, flag) in ALL_FLAGS.into_iter().enumerate() {
            let spec = flag.spec();
            assert_eq!(flag as usize, index);
            let kebab: String = format!("{flag:?}")
                .chars()
                .enumerate()
                .flat_map(|(i, c)| match (i, c.is_uppercase()) {
                    (0, _) | (_, false) => vec![c.to_ascii_lowercase()],
                    _ => vec!['-', c.to_ascii_lowercase()],
                })
                .collect();
            assert_eq!(spec.name, kebab);
            let name = format!("--{}", spec.name);
            let value = sample(spec.kind);
            assert!(
                usage.contains(&format!("\n  {name} ")),
                "{name} has no help"
            );
            for (command, (_, block)) in COMMANDS.into_iter().zip(&blocks) {
                let listed = spec.commands.contains(&command);
                let rendered = block.contains(&format!("[{name} "));
                assert_eq!(rendered, listed, "{name} under {}", command.name());
                let context: &[&str] = match (flag, command) {
                    _ if !listed => &[],
                    (Flag::Cut, Command::Run) => &["--strategy", "partial"],
                    (Flag::Mode | Flag::Hosts | Flag::Report, _) => &["--html", "page.html"],
                    _ => &[],
                };
                let command_name = command.name();
                let bare = [&[command_name.as_str()], context].concat();
                let argv = [&bare[..], &[name.as_str(), value]].concat();
                if !listed {
                    assert_eq!(
                        parse(&argv).unwrap_err(),
                        UsageError::Misplaced(flag, command)
                    );
                    continue;
                }
                let inv = parse(&argv).unwrap();
                assert_eq!(inv.text(flag), Some(value));
                let read = match spec.kind {
                    Kind::Bool => inv.on(flag),
                    Kind::Text(_) | Kind::Choice(_) => inv.get(flag) == Some(&Value::Text),
                    Kind::Rate => inv.mbps() == 12.5,
                    Kind::Count => inv.count(flag) == Some(7),
                    Kind::Seconds => inv.seconds(flag) == Some(Duration::from_millis(250)),
                    Kind::Arrival => matches!(inv.get(flag), Some(Value::Arrival(_))),
                    Kind::Faults => matches!(inv.get(flag), Some(Value::Faults(..))),
                    Kind::Retry => matches!(inv.get(flag), Some(Value::Retry(_))),
                    Kind::Meter => matches!(inv.get(flag), Some(Value::Meter(_))),
                };
                assert!(read, "{argv:?}");
                if let Some(cfg) = config(&inv) {
                    let moved = cfg.unwrap() != config(&parsed(&bare)).unwrap().unwrap();
                    assert_eq!(moved, !shapes_the_run.contains(&flag), "{argv:?}");
                }
            }
        }
    }

    #[test]
    fn stray_misplaced_and_misspelt_arguments_are_refused() {
        let session = ["session", "--model", "agenet", "--rounds", "2"];
        let on_session = |extra: &[&'static str]| [&session[..], extra].concat();
        for (argv, token) in [
            (on_session(&["--predcit", "true"]), "--predcit"),
            (on_session(&["--balance", "true"]), "--balance"),
            (on_session(&["stray"]), "\"stray\""),
            (vec!["analyze", "--all-apps", "false"], "--all-apps"),
            (vec!["analyze", "--model", "agenet"], "--model"),
            (vec!["analyze", "--cut", "2nd_pool"], "--cut"),
            (vec!["models", "--model", "x"], "--model"),
            (vec!["teleport"], "\"teleport\""),
            (vec!["--model", "agenet"], "subcommand"),
        ] {
            let err = parse(&argv).unwrap_err().to_string();
            assert!(err.contains(token), "{argv:?}: {err}");
        }
        // The subcommand may come anywhere, once.
        assert_eq!(parsed(&["--model", "agenet", "run"]).command, Command::Run);
        assert!(parse(&["run", "run"]).is_err());
        // `session` reads `--mbps`; its default is the paper's 30 Mbps Wi-Fi.
        let slow = session_config(&parsed(&["session", "--mbps", "1"])).unwrap();
        assert_eq!(slow.primary().link, LinkConfig::mbps(1.0));
        let paper = session_config(&parsed(&["session", "--model", "agenet"])).unwrap();
        assert_eq!(paper, SessionConfig::paper("agenet"));
    }

    #[test]
    fn mode_conflicts_are_usage_errors() {
        for (argv, flag) in [
            (
                vec!["run", "--strategy", "after-ack", "--cut", "2nd_pool"],
                Flag::Cut,
            ),
            (vec!["run", "--cut", "2nd_pool"], Flag::Cut),
            (
                vec!["analyze", "--mode", "snapshot", "--hosts", "zzz"],
                Flag::Mode,
            ),
            (vec!["analyze", "--hosts", "zzz"], Flag::Hosts),
            (vec!["analyze", "--report", "r.html"], Flag::Report),
            (
                vec!["analyze", "--all-apps", "true", "--html", "p.html"],
                Flag::AllApps,
            ),
        ] {
            let err = parse(&argv).unwrap_err();
            assert!(
                matches!(err, UsageError::Conflict(f, _) if f == flag),
                "{argv:?}: {err}"
            );
        }
        for argv in [
            vec!["run", "--strategy", "partial", "--cut", "2nd_pool"],
            vec!["analyze", "--all-apps", "true", "--effects", "true"],
            vec!["analyze", "--effects", "true"],
            vec!["analyze"],
            vec![
                "analyze", "--html", "p.html", "--mode", "snapshot", "--hosts", "model",
            ],
            vec![
                "analyze",
                "--html",
                "p.html",
                "--effects",
                "true",
                "--report",
                "r.html",
            ],
        ] {
            assert!(parse(&argv).is_ok(), "{argv:?}");
        }
    }

    /// Seeded byte mutations of the documented invocations of every
    /// subcommand: each vector parses, and for `run`, `session` and
    /// `fleet` builds its config, or returns a [`UsageError`]; none
    /// panics.
    #[test]
    fn byte_mutated_argv_parse_or_fail_without_panicking() {
        const POOL: &[&str] = &[
            "--", "-", "0", "1", "9", ".", ":", ",", ";", "=", "@", "..", "+", "e", "e308", "nan",
            "true", "é", " ",
        ];
        let seeds: [&[&[&str]]; 7] = [
            &[
                &[
                    "run",
                    "--model",
                    "googlenet",
                    "--strategy",
                    "partial",
                    "--cut",
                    "1st_pool",
                ],
                &[
                    "run",
                    "--model",
                    "tiny_cnn",
                    "--servers",
                    "edge-a,meter=ops=1;edge-b",
                ],
                &[
                    "run",
                    "--servers",
                    "edge-a,up=down@0..100;edge-b",
                    "--retry",
                    "default",
                ],
                &[
                    "run",
                    "--mbps",
                    "12",
                    "--fault-plan",
                    "down@2..5,up:corrupt@7..8",
                    "--meter",
                    "ops=50000,slice=2.5",
                    "--predict",
                    "true",
                    "--trace",
                    "t.jsonl",
                ],
            ],
            &[&["sweep", "--model", "agenet", "--mbps", "30"]],
            &[
                &[
                    "session",
                    "--rounds",
                    "5",
                    "--retry",
                    "attempts=5,deadline=30",
                ],
                &[
                    "session",
                    "--servers",
                    "edge-a,mbps=30,faults=down@1..3600;edge-b,mbps=20",
                ],
                &[
                    "session",
                    "--predict",
                    "true",
                    "--fault-plan",
                    "corrupt@30..3600",
                ],
                &[
                    "session",
                    "--meter",
                    "ops=100000,depth=64,slice=50",
                    "--no-deltas",
                    "true",
                ],
            ],
            &[
                &[
                    "fleet",
                    "--clients",
                    "10000",
                    "--arrival",
                    "poisson:120",
                    "--duration",
                    "30",
                ],
                &[
                    "fleet",
                    "--real",
                    "true",
                    "--fair-share",
                    "true",
                    "--batch-window",
                    "0.05",
                ],
                &[
                    "fleet",
                    "--servers",
                    "edge-a,mbps=30,meter=ops=5000+slice=10;edge-b",
                ],
                &[
                    "fleet",
                    "--arrival",
                    "diurnal:2:40:10",
                    "--seed",
                    "3",
                    "--balance",
                    "true",
                ],
                &[
                    "fleet",
                    "--arrival",
                    "closed:0.5",
                    "--rounds",
                    "4",
                    "--retry",
                    "default",
                ],
            ],
            &[&["install", "--model", "agenet", "--mbps", "30"]],
            &[&["models"]],
            &[
                &["analyze", "--all-apps", "true", "--effects", "true"],
                &["analyze", "--effects", "true"],
                &[
                    "analyze", "--html", "p.html", "--mode", "snapshot", "--hosts", "model",
                ],
            ],
        ];
        for (command, seeds) in COMMANDS.into_iter().zip(seeds) {
            let mut accepted = 0;
            for case in 0..2_000u64 {
                let mut rng = Rng::seed_from_u64(32_000 + case);
                let mut argv: Vec<String> =
                    rng.choose(seeds).iter().map(|s| s.to_string()).collect();
                for _ in 0..rng.gen_range_usize(1, 4) {
                    let piece = *rng.choose(POOL);
                    let slot = rng.gen_range_usize(0, argv.len() + 1);
                    if slot == argv.len() || rng.gen_range_usize(0, 4) == 0 {
                        match rng.gen_range_usize(0, 2) {
                            0 if slot < argv.len() => {
                                argv.remove(slot);
                            }
                            _ => argv.insert(slot, piece.to_string()),
                        }
                        continue;
                    }
                    // Mostly hit values: a broken flag name ends the check
                    // before any value or config is read.
                    let name = argv[slot].starts_with("--") && slot + 1 < argv.len();
                    let arg = &mut argv[slot + usize::from(name && rng.gen_range_usize(0, 4) > 0)];
                    let mut at = rng.gen_range_usize(0, arg.len() + 1);
                    while !arg.is_char_boundary(at) {
                        at -= 1;
                    }
                    let end = at + arg[at..].chars().next().map_or(0, char::len_utf8);
                    match rng.gen_range_usize(0, 3) {
                        0 if at < arg.len() => arg.replace_range(at..end, piece),
                        1 if at < arg.len() => {
                            arg.remove(at);
                        }
                        _ => arg.insert_str(at, piece),
                    }
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let inv = parse(&argv)?;
                    config(&inv).transpose().map(|_| inv.command)
                }));
                match outcome {
                    Ok(Ok(_)) => accepted += 1,
                    Ok(Err(_)) => {}
                    Err(_) => panic!("panicked on {argv:?}"),
                }
            }
            // Both answers must be populated; `models` takes no flag, so
            // nearly every mutant of it is refused.
            let floor = if command == Command::Models { 0 } else { 20 };
            assert!(
                (floor..1_980).contains(&accepted),
                "{}: {accepted} of 2000 mutants accepted",
                command.name()
            );
        }
    }

    /// Stdout whose reader takes `left` more bytes and then goes away,
    /// like `head -1` after its line: every later write and flush fails
    /// with a broken pipe.
    struct Pipe {
        taken: Vec<u8>,
        left: usize,
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.left == 0 {
                return Err(ErrorKind::BrokenPipe.into());
            }
            let n = buf.len().min(self.left);
            self.taken.extend_from_slice(&buf[..n]);
            self.left -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            match self.left {
                0 => Err(ErrorKind::BrokenPipe.into()),
                _ => Ok(()),
            }
        }
    }

    /// `run` on `args` against `stdout`: the status and what it wrote to
    /// stderr.
    fn run_into(args: &[&str], stdout: &mut dyn Write) -> (u8, String) {
        let argv = Ok(args.iter().map(|arg| arg.to_string()).collect());
        let mut stderr = Vec::new();
        let status = run(argv, stdout, &mut stderr);
        (status, String::from_utf8(stderr).unwrap())
    }

    #[test]
    fn a_closed_stdout_ends_the_command_quietly_with_status_zero() {
        let mut whole = Vec::new();
        assert_eq!(run_into(&["models"], &mut whole), (0, String::new()));
        let first_line = whole.iter().position(|&b| b == b'\n').unwrap() + 1;
        for left in [0, first_line, whole.len() - 1] {
            let mut pipe = Pipe {
                taken: Vec::new(),
                left,
            };
            assert_eq!(run_into(&["models"], &mut pipe), (0, String::new()));
            assert_eq!(pipe.taken, whole[..left], "{left} bytes taken");
        }
        // Any other failure to write is an error like any other.
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(ErrorKind::StorageFull.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (status, stderr) = run_into(&["models"], &mut Full);
        assert_eq!(status, 1);
        assert!(stderr.starts_with("error: "), "{stderr}");
        // A refused command line still earns the usage text.
        let (status, stderr) = run_into(&["models", "stray"], &mut Vec::new());
        assert_eq!(status, 1);
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}
