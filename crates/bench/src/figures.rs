//! Every table and figure of the paper's evaluation (Section IV) and of
//! the extension experiments, computed as [`Row`]s in virtual time. The
//! rows are the single source of `EXPERIMENTS.json` (compared exactly by
//! `tests/paper_experiments.rs`), of the tables in EXPERIMENTS.md and of
//! the `figures` binary; nothing here reads a wall clock.

use snapedge_core::apps::synthetic_image_data_url;
use snapedge_core::prelude::*;
use snapedge_core::privacy::attack_demo_net;
use snapedge_core::{
    client_energy, evaluate_privacy, odroid_xu4_energy, AttackConfig, PartitionOptimizer,
};
use snapedge_dnn::visualize::{tile_feature_map, GrayImage};
use snapedge_dnn::{ExecMode, ModelBundle, Network, ParamStore};
use snapedge_tensor::Tensor;
use snapedge_vmsynth::SynthesisConfig;
use snapedge_webapp::{Browser, SnapshotOptions};
use std::rc::Rc;
use std::time::Duration;

/// One measured value. Durations are exact nanoseconds (`"ns"`), sizes
/// exact bytes (`"B"`); `paper` is the published value in the same unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub figure: &'static str,
    pub series: String,
    pub x: String,
    pub value: f64,
    pub unit: &'static str,
    pub paper: Option<f64>,
}

/// The paper's three benchmark apps, in its order.
pub const PAPER_MODELS: [&str; 3] = ["googlenet", "agenet", "gendernet"];

const MIB: f64 = 1024.0 * 1024.0;

type Done = Result<(), OffloadError>;
type Figure = fn(&mut Sheet) -> Done;
type Run = Result<Rc<ScenarioReport>, OffloadError>;

/// Name and computation of every figure, in EXPERIMENTS.md order.
pub const FIGURES: [(&str, Figure); 13] = [
    ("fig1", fig1),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("table1", table1),
    ("privacy", privacy),
    ("partition_sweep", partition_sweep),
    ("ablation_snapshot", ablation_snapshot),
    ("future_delta", future_delta),
    ("adaptive", adaptive),
    ("contention", contention),
    ("compression", compression),
    ("energy", energy),
];

/// The rows of the named figures (all of them for an empty list), in
/// [`FIGURES`] order, or the first scenario error. Scenario runs are
/// shared between figures.
pub fn rows(names: &[&str]) -> Result<Vec<Row>, OffloadError> {
    let mut sheet = Sheet::default();
    for (name, compute) in FIGURES {
        if names.is_empty() || names.contains(&name) {
            sheet.figure = name;
            compute(&mut sheet)?;
        }
    }
    Ok(sheet.rows)
}

/// The rows being built, plus every scenario already run for them.
#[derive(Default)]
pub struct Sheet {
    figure: &'static str,
    rows: Vec<Row>,
    runs: Vec<(ScenarioConfig, Rc<ScenarioReport>)>,
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

impl Sheet {
    fn put(&mut self, series: &str, x: &str, value: f64, unit: &'static str) -> &mut Row {
        self.rows.push(Row {
            figure: self.figure,
            series: series.to_string(),
            x: x.to_string(),
            value,
            unit,
            paper: None,
        });
        self.rows.last_mut().expect("just pushed")
    }

    fn time(&mut self, series: &str, x: &str, d: Duration) {
        self.put(series, x, ns(d), "ns");
    }

    fn bytes(&mut self, series: &str, x: &str, bytes: u64) -> &mut Row {
        self.put(series, x, bytes as f64, "B")
    }

    fn run(&mut self, cfg: ScenarioConfig) -> Run {
        if let Some((_, report)) = self.runs.iter().find(|(c, _)| *c == cfg) {
            return Ok(report.clone());
        }
        let report = Rc::new(run_scenario(&cfg)?);
        self.runs.push((cfg, report.clone()));
        Ok(report)
    }

    fn paper(&mut self, model: &str, strategy: Strategy) -> Run {
        self.run(ScenarioConfig::paper(model, strategy))
    }
}

/// Partial inference at `cut`; "offloading with Input" is full offloading.
fn at_cut(cut: &str) -> Strategy {
    match cut {
        "input" => Strategy::OffloadAfterAck,
        _ => Strategy::Partial {
            cut: cut.to_string(),
        },
    }
}

/// The five bars of Fig. 6, in the paper's order.
fn fig6_strategies() -> [(&'static str, Strategy); 5] {
    [
        ("Client", Strategy::ClientOnly),
        ("Server", Strategy::ServerOnly),
        ("Offload before ACK", Strategy::OffloadBeforeAck),
        ("Offload after ACK", Strategy::OffloadAfterAck),
        ("Offload partial (1st_pool)", at_cut("1st_pool")),
    ]
}

/// A Fig. 1 panel: node label, the paper's `(width, height, channels)`
/// annotation, the feature tensor's dims (CHW) and its tiled rendering.
pub type Panel = (&'static str, [f64; 3], Vec<usize>, GrayImage);

/// The panels Fig. 1 annotates along GoogLeNet, or the DNN's error.
pub fn fig1_panels() -> Result<Vec<Panel>, OffloadError> {
    let net = zoo::googlenet();
    // Decode the benchmark image the way the Caffe.js host does.
    let url = synthetic_image_data_url(42, 35_000);
    let h = url.bytes().fold(42u64, |h, b| {
        h.wrapping_mul(1099511628211).wrapping_add(b as u64)
    });
    let input = Tensor::from_fn(net.input_shape().dims(), |i| {
        let mut z = h.wrapping_add(i as u64).wrapping_mul(0x9E3779B97F4A7C15);
        z ^= z >> 29;
        ((z % 256) as f32) / 255.0
    })?;
    let params = ParamStore::empty("googlenet");
    let fwd = net.forward(&params, &input, ExecMode::Synthetic { seed: 7 })?;
    let mut panels = Vec::new();
    for (label, paper) in [
        ("input", [224.0, 224.0, 3.0]),
        ("1st_pool", [56.0, 56.0, 64.0]),
        ("2nd_pool", [28.0, 28.0, 192.0]),
        ("inception_3b/output", [28.0, 28.0, 480.0]),
        ("4th_pool", [7.0, 7.0, 832.0]),
        ("inception_5b/output", [7.0, 7.0, 1024.0]),
    ] {
        // The input panel shows the real decoded image.
        let tensor = match label {
            "input" => &input,
            _ => fwd.output(net.node_id(label)?)?,
        };
        let image = tile_feature_map(tensor)?;
        panels.push((label, paper, tensor.shape().dims().to_vec(), image));
    }
    Ok(panels)
}

fn fig1(s: &mut Sheet) -> Done {
    for (label, paper, dims, image) in fig1_panels()? {
        for (i, x) in ["width", "height", "channels"].into_iter().enumerate() {
            s.put(label, x, dims[2 - i] as f64, "").paper = Some(paper[i]);
        }
        s.put(label, "tiled width", image.width() as f64, "");
        s.put(label, "tiled height", image.height() as f64, "");
    }
    Ok(())
}

fn fig6(s: &mut Sheet) -> Done {
    for (label, strategy) in fig6_strategies() {
        for model in PAPER_MODELS {
            let total = s.paper(model, strategy.clone())?.total;
            s.time(label, model, total);
        }
    }
    Ok(())
}

fn fig7(s: &mut Sheet) -> Done {
    for model in PAPER_MODELS {
        for (tag, strategy) in [
            ("before ACK", Strategy::OffloadBeforeAck),
            ("after ACK", Strategy::OffloadAfterAck),
        ] {
            let r = s.paper(model, strategy)?;
            let b = r.breakdown;
            for (x, d) in [
                ("capture(C)", b.capture_client),
                ("xmit up", b.transfer_up),
                ("restore(S)", b.restore_server),
                ("exec(S)", b.exec_server),
                ("capture(S)", b.capture_server),
                ("xmit down", b.transfer_down),
                ("restore(C)", b.restore_client),
                ("total", r.total),
            ] {
                s.time(&format!("{model} ({tag})"), x, d);
            }
        }
    }
    Ok(())
}

/// Each point is a measured run: the feature data really is serialized
/// into the snapshot text and shipped over the simulated link.
fn fig8(s: &mut Sheet) -> Done {
    for model in PAPER_MODELS {
        for cut in zoo::fig8_cuts(model) {
            let r = s.paper(model, at_cut(cut))?;
            let series = format!("{model}/{cut}");
            s.time(&series, "exec(C)", r.breakdown.exec_client);
            // Section IV-B quotes two of GoogLeNet's feature sizes.
            s.bytes(&series, "snapshot", r.snapshot_up_bytes).paper = match (model, cut) {
                ("googlenet", "1st_conv") => Some(14.7 * MIB),
                ("googlenet", "1st_pool") => Some(2.9 * MIB),
                _ => None,
            };
            s.time(&series, "xmit up", r.breakdown.transfer_up);
            s.time(&series, "exec(S)", r.breakdown.exec_server);
            s.time(&series, "total", r.total);
        }
    }
    Ok(())
}

fn table1(s: &mut Sheet) -> Done {
    // Published values: seconds, and MB read as MiB.
    const QUANTITIES: [(&str, &str, [f64; 3]); 6] = [
        ("Synthesis time", "ns", [19.31, 24.29, 24.31]),
        ("VM overlay", "B", [65.0, 82.0, 82.0]),
        ("Migration w/ pre-send", "ns", [0.60, 0.34, 0.34]),
        ("Snapshot w/ pre-send", "B", [0.09, 0.02, 0.02]),
        ("Migration w/o pre-send", "ns", [7.79, 12.07, 12.07]),
        ("Snapshot+model w/o pre-send", "B", [27.0, 44.0, 44.0]),
    ];
    for (m, model) in PAPER_MODELS.into_iter().enumerate() {
        let model_bytes = ModelBundle::from_network(&zoo::by_name(model)?).total_bytes();
        // VM synthesis: dynamic installation carrying the model.
        let install = vm_install(
            model,
            model_bytes,
            &LinkConfig::wifi_30mbps(),
            &SynthesisConfig::default(),
        )?;
        // Migration is the total minus the server's DNN execution; without
        // pre-sending the first offload also carries the model.
        let with = s.paper(model, Strategy::OffloadAfterAck)?;
        let without = s.paper(model, Strategy::OffloadBeforeAck)?;
        let measured = [
            ns(install.total()),
            install.overlay_bytes as f64,
            ns(with.total - with.breakdown.exec_server),
            with.snapshot_up_bytes as f64,
            ns(without.total - without.breakdown.exec_server),
            (without.snapshot_up_bytes + without.model_upload_bytes) as f64,
        ];
        for ((series, unit, paper), value) in QUANTITIES.into_iter().zip(measured) {
            let scale = if unit == "ns" { 1e9 } else { MIB };
            s.put(series, model, value, unit).paper = Some(paper[m] * scale);
        }
    }
    Ok(())
}

/// Hill-climbing input reconstruction against partial-inference feature
/// data, across cut depths and attacker knowledge (demo CNN, 3 inputs).
fn privacy(s: &mut Sheet) -> Done {
    let net = attack_demo_net();
    let params = net.init_params(5)?;
    for cut_label in ["1st_conv", "relu1", "1st_pool"] {
        let cut = net.cut_point(cut_label)?.id;
        let (mut with, mut without) = (0.0f32, 0.0f32);
        const TRIALS: u64 = 3;
        for trial in 0..TRIALS {
            let input = Tensor::from_fn(&[1, 6, 6], |i| {
                let z = (i as u64 + 31 * trial + 7).wrapping_mul(0x9E3779B97F4A7C15);
                ((z >> 33) % 1000) as f32 / 1000.0
            })?;
            let report = evaluate_privacy(&net, &params, cut, &input, &AttackConfig::default())?;
            with += report.mse_with_model / TRIALS as f32;
            without += report.mse_without_model / TRIALS as f32;
        }
        s.put(cut_label, "MSE w/ front model", with as f64, "mse");
        s.put(cut_label, "MSE, model withheld", without as f64, "mse");
        let protection = (without / with.max(1e-9)) as f64;
        s.put(cut_label, "protection", protection, "x");
    }
    Ok(())
}

fn optimizer(net: &Network, link: LinkConfig) -> PartitionOptimizer {
    PartitionOptimizer::new(net, odroid_xu4(), edge_server_x86(), link)
}

/// A cut is reported as the number of layers left on the client: 0 is
/// full offloading, the network's last layer is local execution.
fn partition_sweep(s: &mut Sheet) -> Done {
    for model in PAPER_MODELS {
        let net = zoo::by_name(model)?;
        for mbps in [1.0, 3.0, 10.0, 30.0, 100.0] {
            let best = optimizer(&net, LinkConfig::mbps(mbps)).best(true)?;
            let series = format!("{model} @ {mbps} Mbps");
            s.put(&series, "client layers", best.cut.id.index() as f64, "");
            s.time(&series, "predicted", best.times.total());
        }
        // Predictor against measurement on the paper's link.
        let optimizer = optimizer(&net, LinkConfig::wifi_30mbps());
        for cut in ["1st_conv", "1st_pool"] {
            let predicted = ns(optimizer.predict(&net.cut_point(cut)?)?.times.total());
            let measured = ns(s.paper(model, at_cut(cut))?.total);
            let series = format!("{model}/{cut}");
            s.put(&series, "predicted", predicted, "ns");
            s.put(&series, "measured", measured, "ns");
            let error = (predicted - measured) / measured * 100.0;
            s.put(&series, "error", error, "%");
        }
    }
    Ok(())
}

fn saved_percent(naive: u64, optimized: u64) -> f64 {
    100.0 * (1.0 - optimized as f64 / naive as f64)
}

fn ablation_snapshot(s: &mut Sheet) -> Done {
    let naive = SnapshotOptions {
        inline_single_use: false,
        ..SnapshotOptions::default()
    };
    for model in PAPER_MODELS {
        for (label, strategy) in [
            ("full offload", Strategy::OffloadAfterAck),
            ("partial @1st_pool", at_cut("1st_pool")),
        ] {
            let mut baseline = ScenarioConfig::paper(model, strategy.clone());
            baseline.snapshot = naive.clone();
            let base = s.run(baseline)?;
            let opt = s.paper(model, strategy)?;
            let series = format!("{model} {label}");
            s.bytes(&series, "naive", base.snapshot_up_bytes);
            s.bytes(&series, "optimized", opt.snapshot_up_bytes);
            let saved = saved_percent(base.snapshot_up_bytes, opt.snapshot_up_bytes);
            s.put(&series, "saved", saved, "%");
            s.put(&series, "time delta", ns(opt.total) - ns(base.total), "ns");
        }
    }
    // A heap-rich app: many small single-use objects, the structure the
    // [10] optimizations target (the DNN apps keep almost all state in
    // one typed array, so they barely benefit).
    for n in [100usize, 1_000, 5_000] {
        let mut script = String::from("var registry = [];\n");
        for i in 0..n {
            script.push_str(&format!(
                "registry.push({{id: {i}, pos: {{x: {i}, y: {}}}, tags: [\"a{i}\", \"b{i}\"]}});\n",
                i * 2
            ));
        }
        let mut browser = Browser::new();
        browser.exec_script(&script)?;
        let base = browser.capture_snapshot(&naive)?.size_bytes();
        let opt = browser
            .capture_snapshot(&SnapshotOptions::default())?
            .size_bytes();
        let series = format!("{n} objects");
        s.bytes(&series, "naive", base);
        s.bytes(&series, "optimized", opt);
        s.put(&series, "saved", saved_percent(base, opt), "%");
    }
    Ok(())
}

/// Delta snapshots reuse "the data and code left at the server from the
/// first offloading" (Section VI) versus a full snapshot every time.
fn future_delta(s: &mut Sheet) -> Done {
    for model in ["googlenet", "agenet"] {
        let mut with = OffloadSession::new(SessionConfig::paper(model))?;
        let mut without = OffloadSession::new(SessionConfig {
            use_deltas: false,
            ..SessionConfig::paper(model)
        })?;
        let (mut delta_total, mut full_total) = (0u64, 0u64);
        for round in 1..=6 {
            let a = with.infer(1000 + round)?;
            let b = without.infer(1000 + round)?;
            assert_eq!(a.result, b.result, "deltas must not change results");
            delta_total += a.up_bytes + a.down_bytes;
            full_total += b.up_bytes + b.down_bytes;
            let series = format!("{model} round {round}");
            s.bytes(&series, "full", b.up_bytes + b.down_bytes);
            s.bytes(&series, "delta", a.up_bytes + a.down_bytes);
            s.put(&series, "sent as delta", a.delta_up as u8 as f64, "");
            s.time(&series, "delta time", a.total);
            s.time(&series, "full time", b.total);
        }
        let series = format!("{model}, 6 rounds");
        s.bytes(&series, "full", full_total);
        s.bytes(&series, "delta", delta_total);
        s.put(&series, "less", full_total as f64 / delta_total as f64, "x");
    }
    Ok(())
}

/// A mobile client walks through varying coverage; per inference the
/// planner re-evaluates "the runtime network status" (Section III-B.2)
/// against always offloading at the best private cut and always local.
fn adaptive(s: &mut Sheet) -> Done {
    let net = zoo::googlenet();
    // Bandwidth and loss per inference along the walk.
    let mbps = [30.0, 18.0, 6.0, 1.0, 0.2, 2.0, 12.0, 30.0];
    let loss = [0.0, 0.0, 0.05, 0.20, 0.30, 0.10, 0.0, 0.0];
    for (step, (mbps, loss)) in mbps.into_iter().zip(loss).enumerate() {
        let planner = optimizer(&net, LinkConfig::mbps(mbps).with_loss(loss));
        let plan = planner.plan()?;
        let always_offload = planner.best(true)?.times.total();
        let client_layers = (plan.cut.as_ref()).map_or(net.node_count() - 1, |cut| cut.id.index());
        let series = format!("{}: {mbps} Mbps, {:.0}% loss", step + 1, loss * 100.0);
        s.put(&series, "client layers", client_layers as f64, "");
        s.time(&series, "adaptive", plan.predicted);
        s.time(&series, "always offload", always_offload);
        s.time(&series, "always local", plan.local_time);
    }
    for x in ["adaptive", "always offload", "always local"] {
        let steps = s.rows.iter().filter(|r| r.figure == "adaptive" && r.x == x);
        let total = steps.map(|r| r.value).sum();
        s.put("total", x, total, "ns");
    }
    Ok(())
}

/// Closed-loop clients (2 s think, 4 rounds each) against one server.
fn contention(s: &mut Sheet) -> Done {
    for model in ["googlenet", "agenet"] {
        for clients in [1usize, 2, 4, 8, 16] {
            let report = Engine::modeled(SessionConfig::paper(model), clients)?
                .arrival(ArrivalProcess::ClosedLoop {
                    think: Duration::from_secs(2),
                })
                // The round cap, not the traffic horizon, ends the run.
                .duration(Duration::from_secs(100_000))
                .max_rounds(4)
                .run()?;
            assert_eq!(report.completed, 4 * clients);
            let series = format!("{model} x {clients}");
            s.time(&series, "mean latency", report.latency.mean);
            s.time(&series, "max latency", report.latency.max);
            s.time(&series, "queue wait", report.queue_wait.mean);
            let busy = report.servers[0].utilization * 100.0;
            s.put(&series, "server busy", busy, "%");
        }
    }
    Ok(())
}

/// The real codec runs inside the scenario, its CPU time charged to the
/// device models.
fn compression(s: &mut Sheet) -> Done {
    for mbps in [30.0, 5.0] {
        for cut in ["1st_conv", "1st_pool", "2nd_pool"] {
            let mut plain = ScenarioConfig::paper("googlenet", at_cut(cut));
            plain.primary_mut().link = LinkConfig::mbps(mbps);
            let mut packed = plain.clone();
            packed.compress = true;
            let (a, b) = (s.run(plain)?, s.run(packed)?);
            let series = format!("{cut} @ {mbps} Mbps");
            s.bytes(&series, "plain", a.snapshot_up_bytes);
            s.bytes(&series, "packed", b.snapshot_up_bytes);
            s.time(&series, "plain time", a.total);
            s.time(&series, "packed time", b.total);
            let delta = (ns(b.total) / ns(a.total) - 1.0) * 100.0;
            s.put(&series, "time delta", delta, "%");
        }
    }
    Ok(())
}

fn energy(s: &mut Sheet) -> Done {
    let profile = odroid_xu4_energy();
    // "Server" has no client in the loop.
    for (label, strategy) in fig6_strategies().into_iter().filter(|s| s.0 != "Server") {
        for model in PAPER_MODELS {
            let report = s.paper(model, strategy.clone())?;
            let joules = client_energy(&profile, &report).total_joules();
            s.put(label, model, joules, "J");
        }
    }
    let e = client_energy(&profile, &*s.paper("googlenet", Strategy::OffloadAfterAck)?);
    for (x, joules) in [
        ("compute", e.compute_joules),
        ("radio", e.radio_joules),
        ("idle", e.idle_joules),
        ("total", e.total_joules()),
    ] {
        s.put("googlenet after ACK", x, joules, "J");
    }
    Ok(())
}

/// `rows` as the text of `EXPERIMENTS.json`: one row a line.
pub fn json(rows: &[Row]) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            let paper = r.paper.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"figure\":{:?},\"series\":{:?},\"x\":{:?},\"value\":{},\"unit\":{:?},\"paper\":{paper}}}",
                r.figure, r.series, r.x, r.value, r.unit
            )
        })
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// A value in the unit a reader wants: seconds or milliseconds, MiB or
/// KiB (the paper's "MB" is MiB throughout).
fn show(value: f64, unit: &str) -> String {
    let text = match unit {
        "ns" if value.abs() >= 1e9 => format!("{:.2} s", value / 1e9),
        "ns" => format!("{:.1} ms", value / 1e6),
        "B" if value >= MIB => format!("{:.2} MiB", value / MIB),
        "B" => format!("{:.1} KiB", value / 1024.0),
        "J" => format!("{value:.2} J"),
        "%" | "x" => format!("{value:.1}{unit}"),
        "mse" => format!("{value:.5}"),
        _ if value.fract() == 0.0 => format!("{value}"),
        _ => format!("{value:.3}"),
    };
    // A rounded-away negative is a zero.
    match text.strip_prefix('-') {
        Some(zero) if !zero.contains(|c| ('1'..='9').contains(&c)) => zero.to_string(),
        _ => text,
    }
}

/// The rows of `figure` pivoted into markdown tables, series down and x
/// across, a published value in parentheses beside the measured one.
/// Series with the same x list share a table.
pub fn render(rows: &[Row], figure: &str) -> String {
    let mut lines: Vec<(&str, Vec<&Row>)> = Vec::new();
    for row in rows.iter().filter(|r| r.figure == figure) {
        match lines.iter_mut().find(|(series, _)| *series == row.series) {
            Some((_, cells)) => cells.push(row),
            None => lines.push((&row.series, vec![row])),
        }
    }
    let mut tables: Vec<Vec<Vec<String>>> = Vec::new();
    for (series, cells) in lines {
        let mut header = vec![String::new()];
        let mut line = vec![series.to_string()];
        for r in cells {
            header.push(r.x.clone());
            line.push(match r.paper {
                Some(p) => format!("{} ({})", show(r.value, r.unit), show(p, r.unit)),
                None => show(r.value, r.unit),
            });
        }
        match tables.iter_mut().find(|t| t[0] == header) {
            Some(table) => table.push(line),
            None => tables.push(vec![header, line]),
        }
    }
    let mut out = Vec::new();
    for mut table in tables {
        let width = |col: usize| table.iter().map(|l| l[col].chars().count()).max();
        let widths: Vec<usize> = (0..table[0].len()).filter_map(width).collect();
        table.insert(1, widths.iter().map(|w| "-".repeat(*w)).collect());
        let mut text = String::new();
        for line in table {
            for (cell, w) in line.iter().zip(&widths) {
                text.push_str(&format!("| {cell:>w$} "));
            }
            text.push_str("|\n");
        }
        out.push(text);
    }
    out.join("\n")
}
