//! `snapedge` — command-line driver for the offloading simulator.
//!
//! ```text
//! snapedge run     --model googlenet --strategy after-ack [--mbps 30] [--cut 1st_pool]
//! snapedge sweep   --model agenet                 # Fig. 8 partition sweep
//! snapedge session --model googlenet --rounds 5   # repeated offloads w/ deltas
//! snapedge fleet   --clients 10000 --arrival poisson:500 --duration 60
//! snapedge install --model agenet                 # VM-synthesis cost
//! snapedge models                                 # list zoo models & cuts
//! snapedge analyze --all-apps true                # static snapshot verification
//! ```

use snapedge_analyze::{
    analyze_html, analyze_script, effect_summary, effect_summary_html, AnalysisOptions,
    AnalysisReport, EffectOptions, EffectSummary,
};
use snapedge_core::{
    apps, parse_servers, run_scenario, vm_install, ArrivalProcess, Engine, FleetReport,
    MeterLimits, OffloadSession, RetryPolicy, ScenarioConfig, ServerSpec, SessionConfig, Strategy,
    Workload,
};
use snapedge_dnn::{zoo, ModelBundle};
use snapedge_net::{FaultPlan, LinkConfig};
use snapedge_vmsynth::SynthesisConfig;
use snapedge_webapp::{HostEffect, SnapshotOptions};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        Args::from_vec(std::env::args().skip(1).collect())
    }

    fn from_vec(raw: Vec<String>) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut iter = raw.into_iter();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                flags.push((name.to_string(), value));
            } else {
                positional.push(arg);
            }
        }
        Ok(Args { positional, flags })
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn model(&self) -> String {
        self.flag("model").unwrap_or("googlenet").to_string()
    }

    fn mbps(&self) -> Result<f64, String> {
        match self.flag("mbps") {
            Some(v) => v.parse().map_err(|e| format!("bad --mbps: {e}")),
            None => Ok(30.0),
        }
    }
}

const USAGE: &str = "usage:
  snapedge run     --model <name> --strategy <client|server|before-ack|after-ack|partial>
                   [--cut <label>] [--mbps <rate>] [--timeline true] [--trace <file.jsonl>]
                   [--fault-plan <spec>] [--retry <spec>] [--servers <spec>]
                   [--predict true] [--meter <spec>] [--effects true]
  snapedge sweep   --model <name> [--mbps <rate>]
  snapedge session --model <name> [--rounds <n>] [--no-deltas true]
                   [--fault-plan <spec>] [--retry <spec>] [--servers <spec>]
                   [--predict true] [--meter <spec>] [--effects true]
  snapedge fleet   --model <name> [--clients <n>] [--arrival <spec>]
                   [--duration <s>] [--rounds <n>] [--servers <spec>]
                   [--mbps <rate>] [--seed <n>] [--retry <spec>] [--real true]
                   [--meter <spec>] [--balance true] [--fair-share true]
                   [--batch-window <s>]
  snapedge install --model <name> [--mbps <rate>]
  snapedge models
  snapedge analyze [--all-apps true | --model <name> [--cut <label>]]
                   [--html <file> [--report <out.html>]] [--effects true]
                   [--mode <app|snapshot|delta>] [--hosts <a,b>]

  --fault-plan injects link faults at virtual times, e.g.
      'down@2..5,degrade@7..9x0.25,corrupt@10..11'
    entries hit both links unless prefixed 'up:'/'down:' (or 'both:'), e.g.
      'up:down@2..5,down:corrupt@1..2'
  --retry enables recovery from transient faults:
      'default' or 'attempts=<n>,deadline=<s>,backoff=<s>,backoff-max=<s>'
  --servers declares an ordered edge fleet for estimator-driven failover:
      'edge-a;edge-b,mbps=12,latency=0.005;edge-c,up=down@2..5+corrupt@7..8'
    ';'-separated entries, each 'name[,key=value...]' inheriting the primary
    link; keys: mbps, bps, latency (s), overhead (B), loss, and fault plans
    up/down/faults ('+' separates windows). Carries its own fault plans, so
    it cannot be combined with --fault-plan.
  --predict true consults the link-health predictor before each migration:
    when the measured fault rate and bandwidth trend say the offload loses
    after its expected retry backoff, the inference completes locally
    before any retry budget burns. Off by default (bit-identical replay).
  --meter caps per-tenant execution on edge servers:
      'ops=<n>,heap=<cells>,str=<chars>,depth=<frames>,slice=<ms>'
    any subset of keys; exceeding a cap kills the tenant's snapshot on
    that server (fatal-for-this-server: no retries burn, the round fails
    over to the next server or completes locally). Per-server 'meter='
    keys in --servers override the fleet-wide spec ('+' joins nested
    keys). Off by default (bit-identical replay).
  --effects true runs the static effect pass before any state ships:
    apps that reach clock/random/IO hosts complete locally instead of
    shipping unreplayable state, and rounds whose static op floor
    already exceeds the meter budget are refused before any bytes
    burn. With 'snapedge analyze' it prints the per-function and
    per-round op/allocation floors and every nondeterministic host
    access. Off by default (bit-identical replay).
  --arrival shapes fleet traffic (snapedge fleet):
      'closed[:think_s]'               closed loop, per-client think time
      'poisson:rate_hz'                open-loop Poisson, fleet-wide rate
      'diurnal:base_hz:peak_hz:period_s'  raised-cosine rate curve
    Open-loop arrivals landing on a busy client queue client-side. By
    default the fleet runs the calibrated analytic workload (tens of
    thousands of clients in milliseconds); --real true builds one real
    browser session per client instead.
  --balance true prices each server's predicted queueing delay into
    server selection and admission (snapedge fleet): modeled clients
    pick the least-predicted-sojourn server instead of rotating, real
    sessions add the predicted wait to failover ranking and degrade a
    round to local when the queue erases the offload win. Off by
    default (bit-identical replay).
  --fair-share true grants each server CPU by deficit round robin over
    tenants instead of arrival order, so one chatty client cannot
    starve co-located clients. --batch-window <s> opportunistically
    batches admissions co-queued within the window behind a busy CPU.
    Both off by default (bit-identical replay).";

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let args = Args::parse()?;
    match args.positional.first().map(String::as_str) {
        Some("run") => cmd_run(&args),
        Some("sweep") => cmd_sweep(&args),
        Some("session") => cmd_session(&args),
        Some("fleet") => cmd_fleet(&args),
        Some("install") => cmd_install(&args),
        Some("models") => cmd_models(),
        Some("analyze") => cmd_analyze(&args),
        _ => Err("missing or unknown subcommand".to_string()),
    }
}

fn parse_strategy(args: &Args) -> Result<Strategy, String> {
    match args.flag("strategy").unwrap_or("after-ack") {
        "client" => Ok(Strategy::ClientOnly),
        "server" => Ok(Strategy::ServerOnly),
        "before-ack" => Ok(Strategy::OffloadBeforeAck),
        "after-ack" => Ok(Strategy::OffloadAfterAck),
        "partial" => Ok(Strategy::Partial {
            cut: args.flag("cut").unwrap_or("1st_pool").to_string(),
        }),
        other => Err(format!("unknown strategy {other:?}")),
    }
}

/// Splits a `--fault-plan` spec into per-link plans. Entries apply to both
/// links unless prefixed `up:` / `down:` (or the explicit `both:`).
fn parse_fault_flags(args: &Args) -> Result<(FaultPlan, FaultPlan), String> {
    let Some(spec) = args.flag("fault-plan") else {
        return Ok((FaultPlan::none(), FaultPlan::none()));
    };
    let mut up = Vec::new();
    let mut down = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
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
    let build = |entries: &[&str]| {
        FaultPlan::parse(&entries.join(",")).map_err(|e| format!("bad --fault-plan: {e}"))
    };
    Ok((build(&up)?, build(&down)?))
}

/// Applies the fleet flags to a config's server list. `--servers`
/// replaces the whole fleet (each entry inherits the primary's device and
/// link as a template) and carries per-server fault plans through its
/// `up=`/`down=`/`faults=` keys, so combining it with `--fault-plan` is
/// rejected as ambiguous; without it, `--fault-plan` lands on the
/// primary's links as before.
fn apply_fleet_flags(args: &Args, servers: &mut Vec<ServerSpec>) -> Result<(), String> {
    match args.flag("servers") {
        Some(spec) => {
            if args.flag("fault-plan").is_some() {
                return Err(
                    "--servers carries per-server fault plans (up=/down=/faults=); \
                     drop --fault-plan"
                        .to_string(),
                );
            }
            let template = servers
                .first()
                .cloned()
                .ok_or_else(|| "config has no primary server".to_string())?;
            *servers = parse_servers(spec, &template).map_err(|e| format!("bad --servers: {e}"))?;
        }
        None => {
            let (up, down) = parse_fault_flags(args)?;
            if let Some(primary) = servers.first_mut() {
                primary.up_faults = up;
                primary.down_faults = down;
            }
        }
    }
    Ok(())
}

/// Reads boolean flag `--name`: absent is `false`, `true`/`on` and
/// `false`/`off` mean what they say, and anything else is an error.
fn bool_flag(args: &Args, name: &str) -> Result<bool, String> {
    match args.flag(name) {
        None | Some("false") | Some("off") => Ok(false),
        Some("true") | Some("on") => Ok(true),
        Some(other) => Err(format!("bad --{name} {other:?} (use true/false)")),
    }
}

/// Parses `text` as the seconds of `what`: a number a [`Duration`] can
/// hold (not negative, not NaN, not past `u64::MAX` seconds).
fn seconds(what: &str, text: &str) -> Result<Duration, String> {
    text.parse::<f64>()
        .map_err(|e| e.to_string())
        .and_then(|secs| Duration::try_from_secs_f64(secs).map_err(|e| e.to_string()))
        .map_err(|e| format!("bad {what} {text:?}: {e}"))
}

fn parse_batch_window_flag(args: &Args) -> Result<Option<Duration>, String> {
    args.flag("batch-window")
        .map(|v| seconds("--batch-window", v))
        .transpose()
}

fn parse_retry_flag(args: &Args) -> Result<Option<RetryPolicy>, String> {
    match args.flag("retry") {
        None => Ok(None),
        Some("default") | Some("on") => Ok(Some(RetryPolicy::default())),
        Some(spec) => RetryPolicy::parse(spec)
            .map(Some)
            .map_err(|e| format!("bad --retry: {e}")),
    }
}

fn parse_meter_flag(args: &Args) -> Result<Option<MeterLimits>, String> {
    match args.flag("meter") {
        None => Ok(None),
        Some(spec) => MeterLimits::parse(spec)
            .map(Some)
            .map_err(|e| format!("bad --meter: {e}")),
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let mut cfg = ScenarioConfig::paper(&args.model(), parse_strategy(args)?);
    cfg.primary_mut().link = LinkConfig::mbps(args.mbps()?);
    apply_fleet_flags(args, &mut cfg.servers)?;
    cfg.retry = parse_retry_flag(args)?;
    cfg.meter = parse_meter_flag(args)?;
    cfg.predict = bool_flag(args, "predict")?;
    cfg.snapshot.effects = bool_flag(args, "effects")?;
    let timeline = bool_flag(args, "timeline")?;
    let report = run_scenario(&cfg).map_err(|e| e.to_string())?;
    println!("model:      {}", report.model);
    println!("strategy:   {:?}", report.strategy);
    println!("result:     {}", report.result);
    if let Some(name) = &report.server {
        let handoffs = report.handoff_count();
        if handoffs > 0 {
            println!("server:     {name} (after {handoffs} handoff(s))");
        } else if cfg.servers.len() > 1 {
            println!("server:     {name}");
        }
    }
    println!("total:      {:.3}s", report.total.as_secs_f64());
    let b = report.breakdown;
    println!(
        "breakdown:  exec(C) {:.3}s | capture(C) {:.3}s | up {:.3}s | restore(S) {:.3}s",
        b.exec_client.as_secs_f64(),
        b.capture_client.as_secs_f64(),
        b.transfer_up.as_secs_f64(),
        b.restore_server.as_secs_f64()
    );
    println!(
        "            exec(S) {:.3}s | capture(S) {:.3}s | down {:.3}s | restore(C) {:.3}s",
        b.exec_server.as_secs_f64(),
        b.capture_server.as_secs_f64(),
        b.transfer_down.as_secs_f64(),
        b.restore_client.as_secs_f64()
    );
    if let Some(ack) = report.ack_at {
        println!(
            "pre-send:   {} bytes, ACK at {:.3}s; snapshots {} B up / {} B down",
            report.model_upload_bytes,
            ack.as_secs_f64(),
            report.snapshot_up_bytes,
            report.snapshot_down_bytes
        );
    }
    if let Some(decision) = &report.prediction {
        if report.proactive {
            println!(
                "predict:    {} (completed locally before any retry)",
                decision.label()
            );
        } else {
            println!("predict:    {}", decision.label());
        }
    }
    if report.fell_back {
        println!("fallback:   offload gave up; the inference completed locally");
    }
    let retries = report.retry_count();
    if retries > 0 || report.fault_time() > Duration::ZERO {
        println!(
            "resilience: {retries} retries | backoff {:.3}s | fault time {:.3}s",
            report.backoff_time().as_secs_f64(),
            report.fault_time().as_secs_f64()
        );
    }
    if timeline {
        println!("\ntimeline (C=client, N=network, S=server):");
        // The canonical phase events, from the click onward: the pre-send
        // and its ACK come before it.
        let top_level = report.trace.top_level();
        let phases: Vec<_> = (top_level.events().iter())
            .filter(|e| e.start >= report.clicked_at && e.end > e.start)
            .cloned()
            .collect();
        print!("{}", snapedge_trace::render_ascii(&phases, 50));
    }
    if let Some(path) = args.flag("trace") {
        std::fs::write(path, report.trace.to_jsonl())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "trace:      {} events -> {path}",
            report.trace.events().len()
        );
    }
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let model = args.model();
    let mbps = args.mbps()?;
    println!("partition sweep for {model} at {mbps:.0} Mbps:");
    println!("{:<14} {:>10} {:>14}", "cut", "total(s)", "snapshot(MiB)");
    for cut in zoo::fig8_cuts(&model) {
        let strategy = if cut == "input" {
            Strategy::OffloadAfterAck
        } else {
            Strategy::Partial {
                cut: cut.to_string(),
            }
        };
        let mut cfg = ScenarioConfig::paper(&model, strategy);
        cfg.primary_mut().link = LinkConfig::mbps(mbps);
        let report = run_scenario(&cfg).map_err(|e| e.to_string())?;
        println!(
            "{:<14} {:>10.2} {:>14.2}",
            cut,
            report.total.as_secs_f64(),
            report.snapshot_up_bytes as f64 / (1024.0 * 1024.0)
        );
    }
    Ok(())
}

fn cmd_session(args: &Args) -> Result<(), String> {
    let rounds: u64 = match args.flag("rounds") {
        Some(v) => v.parse().map_err(|e| format!("bad --rounds: {e}"))?,
        None => 3,
    };
    let cfg = session_config(args)?;
    let predict = cfg.predict;
    let mut session = OffloadSession::new(cfg).map_err(|e| e.to_string())?;
    // The predictor's column is printed only when it is consulted.
    let column = |text: &str| {
        if predict {
            format!(" {text:>14}")
        } else {
            String::new()
        }
    };
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>10} {:>15}{}",
        "round",
        "mode",
        "up bytes",
        "down bytes",
        "total",
        "server",
        column("predict")
    );
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
        let predicted = (r.prediction.as_ref()).map_or_else(|| "-".to_string(), |d| d.label());
        println!(
            "{:>6} {:>8} {:>12} {:>12} {:>9.2}s {:>15}{}   {}",
            r.round,
            mode,
            r.up_bytes,
            r.down_bytes,
            r.total.as_secs_f64(),
            r.server,
            column(&predicted),
            r.result
        );
    }
    Ok(())
}

/// The `session` command's config, from its flags.
fn session_config(args: &Args) -> Result<SessionConfig, String> {
    let mut cfg = SessionConfig::paper(&args.model());
    cfg.use_deltas = !bool_flag(args, "no-deltas")?;
    apply_fleet_flags(args, &mut cfg.servers)?;
    cfg.retry = parse_retry_flag(args)?;
    cfg.meter = parse_meter_flag(args)?;
    cfg.predict = bool_flag(args, "predict")?;
    cfg.snapshot.effects = bool_flag(args, "effects")?;
    Ok(cfg)
}

/// Parses an `--arrival` spec: `closed[:think_s]`, `poisson:rate_hz`, or
/// `diurnal:base_hz:peak_hz:period_s`.
fn parse_arrival(spec: &str) -> Result<ArrivalProcess, String> {
    let mut parts = spec.split(':');
    let shape = parts.next().unwrap_or_default();
    let rest: Vec<&str> = parts.collect();
    let num = |s: &str, what: &str| -> Result<f64, String> {
        s.parse::<f64>()
            .map_err(|e| format!("bad --arrival {what} {s:?}: {e}"))
    };
    match (shape, rest.as_slice()) {
        ("closed", []) => Ok(ArrivalProcess::ClosedLoop {
            think: Duration::from_secs(2),
        }),
        ("closed", [think]) => Ok(ArrivalProcess::ClosedLoop {
            think: seconds("--arrival think time", think)?,
        }),
        ("poisson", [rate]) => Ok(ArrivalProcess::Poisson {
            rate_hz: num(rate, "rate")?,
        }),
        ("diurnal", [base, peak, period]) => Ok(ArrivalProcess::Diurnal {
            base_hz: num(base, "base rate")?,
            peak_hz: num(peak, "peak rate")?,
            period: seconds("--arrival period", period)?,
        }),
        _ => Err(format!(
            "bad --arrival {spec:?} (use closed[:think_s], poisson:rate_hz, \
             or diurnal:base_hz:peak_hz:period_s)"
        )),
    }
}

/// The `fleet` flags that shape the engine rather than the clients'
/// config: traffic, and the three server-side scheduling policies.
struct FleetFlags {
    arrival: ArrivalProcess,
    duration: Duration,
    max_rounds: Option<usize>,
    balance: bool,
    fair_share: bool,
    batch_window: Option<Duration>,
}

/// Shapes an engine from the fleet flags and runs it to completion.
fn run_fleet<W: Workload>(
    mut engine: Engine<W>,
    flags: &FleetFlags,
) -> Result<FleetReport, String> {
    engine = engine
        .arrival(flags.arrival.clone())
        .duration(flags.duration)
        .balance(flags.balance)
        .fair_share(flags.fair_share);
    if let Some(cap) = flags.max_rounds {
        engine = engine.max_rounds(cap);
    }
    if let Some(window) = flags.batch_window {
        engine = engine.batch_window(window);
    }
    engine.run().map_err(|e| e.to_string())
}

fn cmd_fleet(args: &Args) -> Result<(), String> {
    let clients: usize = match args.flag("clients") {
        Some(v) => v.parse().map_err(|e| format!("bad --clients: {e}"))?,
        None => 100,
    };
    let flags = FleetFlags {
        arrival: parse_arrival(args.flag("arrival").unwrap_or("closed"))?,
        duration: match args.flag("duration") {
            Some(v) => seconds("--duration", v)?,
            None => Duration::from_secs(60),
        },
        max_rounds: match args.flag("rounds") {
            Some(v) => Some(v.parse().map_err(|e| format!("bad --rounds: {e}"))?),
            None => None,
        },
        balance: bool_flag(args, "balance")?,
        fair_share: bool_flag(args, "fair-share")?,
        batch_window: parse_batch_window_flag(args)?,
    };
    let real = bool_flag(args, "real")?;
    let mut cfg = SessionConfig::paper(&args.model());
    cfg.primary_mut().link = LinkConfig::mbps(args.mbps()?);
    apply_fleet_flags(args, &mut cfg.servers)?;
    cfg.retry = parse_retry_flag(args)?;
    cfg.meter = parse_meter_flag(args)?;
    cfg.predict = bool_flag(args, "predict")?;
    let balancing = flags.balance || flags.fair_share || flags.batch_window.is_some();
    if let Some(seed) = args.flag("seed") {
        cfg.seed = seed.parse().map_err(|e| format!("bad --seed: {e}"))?;
    }
    println!(
        "fleet:      {} server(s), {} client(s), arrival {:?}, horizon {:.0}s, {} workload",
        cfg.servers.len(),
        clients,
        flags.arrival,
        flags.duration.as_secs_f64(),
        if real { "real-session" } else { "modeled" }
    );
    let report = if real {
        let engine = Engine::sessions(cfg, clients).map_err(|e| e.to_string())?;
        run_fleet(engine, &flags)?
    } else {
        let engine = Engine::modeled(cfg, clients).map_err(|e| e.to_string())?;
        run_fleet(engine, &flags)?
    };
    println!(
        "completed:  {} round(s) ({} fallback(s)) | makespan {:.3}s | throughput {:.1}/s",
        report.completed,
        report.fallbacks,
        report.makespan.as_secs_f64(),
        report.throughput_rps
    );
    println!(
        "latency:    p50 {:.3}s | p95 {:.3}s | p99 {:.3}s (mean {:.3}s, max {:.3}s)",
        report.latency.p50.as_secs_f64(),
        report.latency.p95.as_secs_f64(),
        report.latency.p99.as_secs_f64(),
        report.latency.mean.as_secs_f64(),
        report.latency.max.as_secs_f64()
    );
    println!(
        "queue wait: p50 {:.3}s | p95 {:.3}s | p99 {:.3}s (max {:.3}s)",
        report.queue_wait.p50.as_secs_f64(),
        report.queue_wait.p95.as_secs_f64(),
        report.queue_wait.p99.as_secs_f64(),
        report.queue_wait.max.as_secs_f64()
    );
    if report.total_ops > 0 || report.peak_heap > 0 {
        println!(
            "meter:      {} op(s) charged | peak heap {} cell(s)",
            report.total_ops, report.peak_heap
        );
    }
    if balancing {
        let rejects: usize = report.servers.iter().map(|s| s.rejects).sum();
        println!(
            "balance:    fairness {:.3} | {} admission reject(s) | max batch {}",
            report.fairness, rejects, report.max_batch
        );
    }
    for server in &report.servers {
        if balancing {
            println!(
                "server:     {:<16} {:>8} round(s) | busy {:.3}s | utilization {:.1}% | {} admit(s), {} reject(s), {} batch(es)",
                server.name,
                server.rounds,
                server.busy.as_secs_f64(),
                server.utilization * 100.0,
                server.admits,
                server.rejects,
                server.batches
            );
        } else {
            println!(
                "server:     {:<16} {:>8} round(s) | busy {:.3}s | utilization {:.1}%",
                server.name,
                server.rounds,
                server.busy.as_secs_f64(),
                server.utilization * 100.0
            );
        }
    }
    Ok(())
}

fn cmd_install(args: &Args) -> Result<(), String> {
    let model = args.model();
    let net = zoo::by_name(&model).map_err(|e| e.to_string())?;
    let bytes = ModelBundle::from_network(&net).total_bytes();
    let report = vm_install(
        &model,
        bytes,
        &LinkConfig::mbps(args.mbps()?),
        &SynthesisConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    println!(
        "overlay: {:.1} MiB (model {:.1} MiB inside)",
        report.overlay_bytes as f64 / (1024.0 * 1024.0),
        bytes as f64 / (1024.0 * 1024.0)
    );
    println!(
        "synthesis: upload {:.2}s + apply {:.2}s = {:.2}s",
        report.upload.as_secs_f64(),
        report.apply.as_secs_f64(),
        report.total().as_secs_f64()
    );
    Ok(())
}

fn cmd_models() -> Result<(), String> {
    for name in [
        "googlenet",
        "agenet",
        "gendernet",
        "tiny_cnn",
        "tiny_inception",
    ] {
        let net = zoo::by_name(name).map_err(|e| e.to_string())?;
        let profile = net.profile();
        println!(
            "{name}: {} layers, {:.1} MiB params, {:.2} GFLOPs",
            net.node_count(),
            profile.total_param_bytes() as f64 / (1024.0 * 1024.0),
            profile.total_flops() as f64 / 1e9
        );
        let cuts: Vec<String> = net.cut_points().iter().map(|c| c.label.clone()).collect();
        println!("  cuts: {}", cuts.join(", "));
    }
    Ok(())
}

/// Parses `--mode` / `--hosts` into analyzer options. Apps talk to the
/// Caffe.js `model` host, so it is in the allowlist by default.
fn parse_analysis_options(args: &Args) -> Result<AnalysisOptions, String> {
    let opts = match args.flag("mode").unwrap_or("app") {
        "app" => AnalysisOptions::app(),
        "snapshot" => AnalysisOptions::snapshot(),
        "delta" => AnalysisOptions::delta(Vec::new()),
        other => return Err(format!("unknown --mode {other:?}")),
    };
    let hosts = match args.flag("hosts") {
        Some(list) => list
            .split(',')
            .map(str::trim)
            .filter(|h| !h.is_empty())
            .map(str::to_string)
            .collect(),
        None => vec!["model".to_string()],
    };
    Ok(opts.with_hosts(hosts))
}

/// Builds the effect-pass host surface from `--hosts`. The CLI has no way
/// to register a live host object, so every allowlisted name is treated as
/// deterministic — sessions derive the real surface (with per-host effect
/// tags) from the browser they run in.
fn parse_effect_options(args: &Args) -> Result<EffectOptions, String> {
    let hosts = parse_analysis_options(args)?.hosts;
    let pairs = hosts
        .into_iter()
        .map(|h| (h, HostEffect::Deterministic))
        .collect();
    Ok(EffectOptions::from_host_effects(pairs))
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
fn print_report(target: &str, report: &AnalysisReport) -> usize {
    if report.is_clean() {
        let s = &report.stats;
        println!(
            "analyze {target}: clean ({} functions, {} reachable; {} globals, {} handlers)",
            s.functions, s.reachable_functions, s.globals, s.handlers
        );
    } else {
        println!("analyze {target}: {}", report.summary());
        println!("{}", report.render());
    }
    report.diagnostics.len()
}

/// Analyzes a MiniJS or HTML file from disk. With `--effects true` the
/// static effect pass runs too (cost floors, nondeterminism sources);
/// with `--report <out.html>` an escaped markup report is written before
/// any verdict is returned, so failures are captured in the report.
fn cmd_analyze_file(path: &str, args: &Args) -> Result<(), String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let opts = parse_analysis_options(args)?;
    let is_html = source.contains("<script>");
    let report = if is_html {
        analyze_html(&source, &opts)
    } else {
        analyze_script(&source, &opts)
    };
    let effects = if bool_flag(args, "effects")? {
        let eopts = parse_effect_options(args)?;
        let result = if is_html {
            effect_summary_html(&source, &eopts)
        } else {
            effect_summary(&source, &eopts)
        };
        let summary = result.map_err(|e| format!("{path}: {e}"))?;
        print!("{}", summary.render());
        Some(summary)
    } else {
        None
    };
    let findings = print_report(path, &report);
    if let Some(out) = args.flag("report") {
        let markup = render_html_report(path, &report, effects.as_ref());
        std::fs::write(out, markup).map_err(|e| format!("writing {out}: {e}"))?;
        println!("report: {out}");
    }
    if findings > 0 {
        return Err(format!("{path}: {}", report.summary()));
    }
    if let Some(summary) = &effects {
        summary.verdict().map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// Statically verifies one model's apps and live snapshots: both paper app
/// sources are analyzed in app mode, then a two-round delta session runs
/// with `SnapshotOptions::verify` on, so the endpoints verify the full
/// snapshot (round 1) and the deltas (round 2) before any link traffic.
fn analyze_model(model: &str, cut: Option<&str>, effects: bool) -> Result<usize, String> {
    let url = apps::synthetic_image_data_url(7, 256);
    let opts = AnalysisOptions::app().with_hosts(vec!["model".to_string()]);
    let eopts = EffectOptions::new().with_host("model", HostEffect::Deterministic);
    let mut findings = 0;
    let sources = [
        ("full-app", apps::full_inference_app(&url)),
        ("partial-app", apps::partial_inference_app(&url)),
    ];
    for (label, html) in &sources {
        findings += print_report(&format!("{model} {label}"), &analyze_html(html, &opts));
        if effects {
            let summary =
                effect_summary_html(html, &eopts).map_err(|e| format!("{model} {label}: {e}"))?;
            print!("{}", summary.render());
            // A nondeterministic paper app would be a finding: its
            // snapshots could not be replayed bit-identically elsewhere.
            findings += summary.nondet.len();
        }
    }
    let mut builder = SessionConfig::paper_builder(model).snapshot(SnapshotOptions {
        verify: true,
        effects,
        ..SnapshotOptions::default()
    });
    if let Some(cut) = cut {
        builder = builder.cut(cut);
    }
    let mut session = OffloadSession::new(builder.build()).map_err(|e| e.to_string())?;
    for round in 1..=2u64 {
        session
            .infer(round)
            .map_err(|e| format!("{model} round {round}: {e}"))?;
    }
    println!("analyze {model} session: 2 rounds verified (full + delta snapshots)");
    Ok(findings)
}

/// `snapedge analyze` — the static snapshot verifier. With `--html` it
/// analyzes a file; otherwise it sweeps the paper apps (all models, or one
/// with `--model`) and verifies live captures pre-send.
fn cmd_analyze(args: &Args) -> Result<(), String> {
    if let Some(path) = args.flag("html") {
        return cmd_analyze_file(path, args);
    }
    let models: Vec<String> = match args.flag("model") {
        Some(m) => vec![m.to_string()],
        None => vec!["googlenet".into(), "agenet".into(), "gendernet".into()],
    };
    let effects = bool_flag(args, "effects")?;
    let mut findings = 0;
    for model in &models {
        findings += analyze_model(model, args.flag("cut"), effects)?;
    }
    if findings > 0 {
        return Err(format!("analyze: {findings} diagnostic(s) across targets"));
    }
    println!("analyze: all targets clean");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapedge_analyze::Mode;
    use snapedge_net::LinkState;

    fn args(parts: &[&str]) -> Args {
        Args::from_vec(parts.iter().map(|s| s.to_string()).collect()).unwrap()
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
        ] {
            assert!(parse_arrival(bad).is_err(), "accepted {bad:?}");
        }
        for bad in ["-1", "nan", "1e30", "soon"] {
            for flag in ["--duration", "--batch-window"] {
                let err = cmd_fleet(&args(&["fleet", "--clients", "1", flag, bad])).unwrap_err();
                assert!(
                    err.starts_with(&format!("bad {flag} ")),
                    "{flag} {bad}: {err}"
                );
            }
        }
    }

    #[test]
    fn parses_positional_and_flags() {
        let a = args(&[
            "run",
            "--model",
            "agenet",
            "--strategy",
            "partial",
            "--cut",
            "2nd_pool",
        ]);
        assert_eq!(a.positional, vec!["run"]);
        assert_eq!(a.model(), "agenet");
        assert_eq!(a.flag("cut"), Some("2nd_pool"));
    }

    #[test]
    fn later_flags_win() {
        let a = args(&["run", "--mbps", "10", "--mbps", "25"]);
        assert_eq!(a.mbps().unwrap(), 25.0);
    }

    #[test]
    fn missing_flag_value_is_an_error() {
        assert!(Args::from_vec(vec!["run".into(), "--model".into()]).is_err());
    }

    #[test]
    fn strategy_parsing() {
        assert_eq!(
            parse_strategy(&args(&["run"])).unwrap(),
            Strategy::OffloadAfterAck
        );
        assert_eq!(
            parse_strategy(&args(&["run", "--strategy", "client"])).unwrap(),
            Strategy::ClientOnly
        );
        assert_eq!(
            parse_strategy(&args(&["run", "--strategy", "partial"])).unwrap(),
            Strategy::Partial {
                cut: "1st_pool".into()
            }
        );
        assert!(parse_strategy(&args(&["run", "--strategy", "teleport"])).is_err());
    }

    #[test]
    fn defaults() {
        let a = args(&["run"]);
        assert_eq!(a.model(), "googlenet");
        assert_eq!(a.mbps().unwrap(), 30.0);
    }

    #[test]
    fn bad_mbps_is_an_error() {
        assert!(args(&["run", "--mbps", "fast"]).mbps().is_err());
    }

    #[test]
    fn fault_plan_defaults_to_no_faults() {
        let (up, down) = parse_fault_flags(&args(&["run"])).unwrap();
        assert!(up.is_empty() && down.is_empty());
    }

    #[test]
    fn fault_plan_entries_hit_both_links_unless_prefixed() {
        let (up, down) = parse_fault_flags(&args(&[
            "run",
            "--fault-plan",
            "down@2..5,up:corrupt@7..8,down:degrade@1..2x0.5",
        ]))
        .unwrap();
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
        assert!(parse_fault_flags(&args(&["run", "--fault-plan", "explode@1..2"])).is_err());
    }

    #[test]
    fn analysis_options_default_to_app_mode_with_model_host() {
        let opts = parse_analysis_options(&args(&["analyze"])).unwrap();
        assert_eq!(opts.mode, Mode::App);
        assert_eq!(opts.hosts, vec!["model".to_string()]);
        let opts =
            parse_analysis_options(&args(&["analyze", "--mode", "snapshot", "--hosts", "a, b"]))
                .unwrap();
        assert_eq!(opts.mode, Mode::Snapshot);
        assert_eq!(opts.hosts, vec!["a".to_string(), "b".to_string()]);
        assert!(parse_analysis_options(&args(&["analyze", "--mode", "dynamic"])).is_err());
    }

    #[test]
    fn paper_apps_analyze_clean_from_the_cli_path() {
        let url = apps::synthetic_image_data_url(7, 256);
        let opts = parse_analysis_options(&args(&["analyze"])).unwrap();
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
        let mut cfg = ScenarioConfig::paper("googlenet", Strategy::OffloadAfterAck);
        apply_fleet_flags(
            &args(&[
                "run",
                "--servers",
                "edge-a;edge-b,mbps=12,up=down@2..5+corrupt@7..8",
            ]),
            &mut cfg.servers,
        )
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
        let mut cfg = ScenarioConfig::paper("googlenet", Strategy::OffloadAfterAck);
        let err = apply_fleet_flags(
            &args(&["run", "--servers", "edge-a", "--fault-plan", "down@2..5"]),
            &mut cfg.servers,
        )
        .unwrap_err();
        assert!(err.contains("--fault-plan"), "{err}");
        assert!(apply_fleet_flags(
            &args(&["run", "--servers", "edge-a,=bad"]),
            &mut cfg.servers
        )
        .is_err());
    }

    #[test]
    fn without_servers_flag_fault_plans_land_on_the_primary() {
        let mut cfg = SessionConfig::paper("googlenet");
        apply_fleet_flags(
            &args(&["session", "--fault-plan", "up:down@2..5"]),
            &mut cfg.servers,
        )
        .unwrap();
        assert_eq!(cfg.servers.len(), 1);
        assert_eq!(cfg.servers[0].up_faults.windows().len(), 1);
        assert!(cfg.servers[0].down_faults.is_empty());
    }

    #[test]
    fn predict_flag_parses_and_defaults_off() {
        assert!(!bool_flag(&args(&["run"]), "predict").unwrap());
        assert!(bool_flag(&args(&["run", "--predict", "true"]), "predict").unwrap());
        assert!(bool_flag(&args(&["run", "--predict", "on"]), "predict").unwrap());
        assert!(!bool_flag(&args(&["run", "--predict", "false"]), "predict").unwrap());
        assert!(bool_flag(&args(&["run", "--predict", "maybe"]), "predict").is_err());
    }

    #[test]
    fn balance_flags_parse_and_default_off() {
        assert!(!bool_flag(&args(&["fleet"]), "balance").unwrap());
        assert!(bool_flag(&args(&["fleet", "--balance", "true"]), "balance").unwrap());
        assert!(bool_flag(&args(&["fleet", "--balance", "on"]), "balance").unwrap());
        assert!(!bool_flag(&args(&["fleet", "--balance", "off"]), "balance").unwrap());
        assert!(bool_flag(&args(&["fleet", "--balance", "maybe"]), "balance").is_err());
        assert!(!bool_flag(&args(&["fleet"]), "fair-share").unwrap());
        assert!(bool_flag(&args(&["fleet", "--fair-share", "true"]), "fair-share").unwrap());
        assert!(bool_flag(&args(&["fleet", "--fair-share", "no"]), "fair-share").is_err());
    }

    #[test]
    fn batch_window_flag_parses_seconds() {
        assert_eq!(parse_batch_window_flag(&args(&["fleet"])).unwrap(), None);
        assert_eq!(
            parse_batch_window_flag(&args(&["fleet", "--batch-window", "0.25"])).unwrap(),
            Some(Duration::from_millis(250))
        );
        assert!(parse_batch_window_flag(&args(&["fleet", "--batch-window", "-1"])).is_err());
        assert!(parse_batch_window_flag(&args(&["fleet", "--batch-window", "soon"])).is_err());
    }

    #[test]
    fn effects_flag_parses_and_defaults_off() {
        assert!(!bool_flag(&args(&["run"]), "effects").unwrap());
        assert!(bool_flag(&args(&["run", "--effects", "true"]), "effects").unwrap());
        assert!(bool_flag(&args(&["run", "--effects", "on"]), "effects").unwrap());
        assert!(!bool_flag(&args(&["run", "--effects", "off"]), "effects").unwrap());
        assert!(bool_flag(&args(&["run", "--effects", "maybe"]), "effects").is_err());
    }

    #[test]
    fn false_means_false_for_no_deltas_and_timeline() {
        assert!(session_config(&args(&["session"])).unwrap().use_deltas);
        let kept = session_config(&args(&["session", "--no-deltas", "false"])).unwrap();
        assert!(kept.use_deltas, "--no-deltas false must keep deltas on");
        let dropped = session_config(&args(&["session", "--no-deltas", "true"])).unwrap();
        assert!(!dropped.use_deltas);
    }

    #[test]
    fn every_bool_flag_refuses_other_values_before_running() {
        let maybe = |flag: &str| args(&["cmd", "--model", "tiny_cnn", flag, "maybe"]);
        let refused = |flag: &str| Err(format!("bad {flag} \"maybe\" (use true/false)"));
        assert_eq!(cmd_run(&maybe("--timeline")), refused("--timeline"));
        assert_eq!(cmd_session(&maybe("--no-deltas")), refused("--no-deltas"));
        assert_eq!(cmd_fleet(&maybe("--real")), refused("--real"));
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
        assert_eq!(parse_retry_flag(&args(&["run"])).unwrap(), None);
        assert_eq!(
            parse_retry_flag(&args(&["run", "--retry", "default"])).unwrap(),
            Some(RetryPolicy::default())
        );
        let p = parse_retry_flag(&args(&["run", "--retry", "attempts=7,deadline=90"]))
            .unwrap()
            .unwrap();
        assert_eq!(p.max_attempts, 7);
        assert_eq!(p.deadline, Duration::from_secs(90));
        assert!(parse_retry_flag(&args(&["run", "--retry", "attempts=zero"])).is_err());
    }

    #[test]
    fn meter_flag_parses_spec_and_defaults_off() {
        assert_eq!(parse_meter_flag(&args(&["run"])).unwrap(), None);
        let limits = parse_meter_flag(&args(&["run", "--meter", "ops=5000,heap=200,slice=2.5"]))
            .unwrap()
            .unwrap();
        assert_eq!(limits.max_ops, Some(5000));
        assert_eq!(limits.max_heap_cells, Some(200));
        assert_eq!(limits.time_slice, Some(Duration::from_secs_f64(0.0025)));
        assert!(parse_meter_flag(&args(&["run", "--meter", "ops=zero"])).is_err());
        assert!(parse_meter_flag(&args(&["run", "--meter", "warp=9"])).is_err());
    }
}
