//! The benchmark's fixed definition: the five workloads, how `--seed`
//! becomes program inputs, and the catalogue of end-to-end metrics with
//! their regression bounds. `BENCHMARK.json` mirrors this file; the test
//! at the bottom keeps the two in step.

use snapedge_core::engine::{ArrivalProcess, Engine};
use snapedge_core::{round_image_seed, ModeledWorkload, OffloadError, SessionConfig, Workload};
use std::time::Duration;

/// What one unit of a workload is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// One `OffloadSession`: 1 cold round + `steady_rounds` steady ones.
    Steady {
        /// Model-zoo name.
        model: &'static str,
        /// Partial-inference cut label, or `None` for full offloading.
        cut: Option<&'static str>,
        /// Steady `infer()` calls after the cold one.
        steady_rounds: usize,
    },
    /// Build + `run()` of an engine over real sessions.
    FleetReal,
    /// Build + `run()` of an engine over the analytic workload.
    FleetModeled,
}

/// A named workload and the reason it exists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Name later issues cite.
    pub name: &'static str,
    /// What a unit is.
    pub kind: Kind,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
}

/// The five workloads, in ledger order.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "steady_delta",
        kind: Kind::Steady {
            model: "agenet",
            cut: None,
            steady_rounds: 100,
        },
        why: "paper steady state, agenet full inference, deltas on: 70 kB up, ~200 B down per round; the server's synthetic forward and mlhost are ~90 % of a round, webapp delta capture and apply ~10 %",
    },
    WorkloadSpec {
        name: "steady_partial",
        kind: Kind::Steady {
            model: "agenet",
            cut: Some("3rd_pool"),
            steady_rounds: 20,
        },
        why: "partial inference cut at 3rd_pool: 365 kB of Float32Array text a round; webapp float render, lexing and delta apply are ~75 % of a round, the client's front inference the rest; steady_delta's opposite",
    },
    WorkloadSpec {
        name: "steady_deep",
        kind: Kind::Steady {
            model: "googlenet",
            cut: None,
            steady_rounds: 10,
        },
        why: "googlenet, 143 layers, same snapshot bytes as steady_delta: dnn synthetic execution, mlhost and 152 trace events per round are ~99 % of a round; a webapp change should not move it",
    },
    WorkloadSpec {
        name: "fleet_real",
        kind: Kind::FleetReal,
        why: "50 real agenet sessions, one server, closed loop with 2 s think, 60 s horizon: 50 cold rounds (construction, pre-send, full capture and restore) to 38 delta rounds; the engine is < 1 % of wall time",
    },
    WorkloadSpec {
        name: "fleet_modeled",
        kind: Kind::FleetModeled,
        why: "10k analytic clients, Poisson 400/s, 3 servers: core::engine and net::EventQueue only; bypasses webapp, dnn, tensor and trace, so interpreter work must leave it unmoved",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<WorkloadSpec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// An end-to-end metric of the contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E2eMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, every one defined on every workload, in the
/// order the untraced run reports them. The two timings are floors (see
/// `Window::floor_ms`) bounded at 0.15, three times the widest spread
/// ten runs of one commit showed on this host (README, "Noise");
/// `setup_s` alone has the contract's widest bound, because a set-up runs
/// a handful of times per run where a round runs hundreds.
pub const E2E: [E2eMetric; 4] = [
    E2eMetric {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    E2eMetric {
        name: "round_ms_min",
        unit: "ms",
        higher_is_better: false,
        bound: 0.15,
    },
    E2eMetric {
        name: "cold_ms_min",
        unit: "ms",
        higher_is_better: false,
        bound: 0.15,
    },
    E2eMetric {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.1,
    },
];

/// Regression bound of an end-to-end metric, by name.
pub fn bound_of(name: &str) -> Option<f64> {
    E2E.iter().find(|m| m.name == name).map(|m| m.bound)
}

/// SplitMix64 finaliser: turns `(seed, stream)` into an independent
/// 64-bit value, so adjacent `--seed`s give unrelated inputs.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The session config of a steady workload (or the one a fleet's
/// clients are built from): the paper configuration with only the seed
/// replaced.
pub fn session_config(model: &str, cut: Option<&str>, seed: u64) -> SessionConfig {
    let builder = SessionConfig::paper_builder(model).seed(derive(seed, 1));
    match cut {
        Some(cut) => builder.cut(cut).build(),
        None => builder.build(),
    }
}

/// Image seed of 1-based `round` of a steady unit (the program's own
/// per-round hash, so steady and fleet inputs are drawn the same way).
pub fn steady_image_seed(cfg: &SessionConfig, round: usize) -> u64 {
    round_image_seed(cfg.seed, 0, round as u64)
}

/// Clients of `fleet_real`.
pub const FLEET_REAL_CLIENTS: usize = 50;
/// Clients of `fleet_modeled`.
pub const FLEET_MODELED_CLIENTS: usize = 10_000;

/// The `fleet_real` config: the paper's agenet session, one server.
pub fn fleet_real_config(seed: u64) -> SessionConfig {
    session_config("agenet", None, seed)
}

/// The `fleet_modeled` config: agenet over three identical servers (the
/// `fleet_scale` bench's fleet).
pub fn fleet_modeled_config(seed: u64) -> SessionConfig {
    let mut cfg = session_config("agenet", None, seed);
    let template = cfg.primary().clone();
    for name in ["edge-b", "edge-c"] {
        let mut spec = template.clone();
        spec.name = name.to_string();
        cfg.servers.push(spec);
    }
    cfg
}

/// Shapes `fleet_real` traffic: closed loop, 2 s think time, 60 s horizon.
pub fn shape_real<W: Workload>(engine: Engine<W>) -> Engine<W> {
    engine
        .arrival(ArrivalProcess::ClosedLoop {
            think: Duration::from_secs(2),
        })
        .duration(Duration::from_secs(60))
}

/// Shapes `fleet_modeled` traffic: Poisson 400/s, 30 s horizon.
pub fn shape_modeled<W: Workload>(engine: Engine<W>) -> Engine<W> {
    engine
        .arrival(ArrivalProcess::Poisson { rate_hz: 400.0 })
        .duration(Duration::from_secs(30))
}

/// Builds the `fleet_modeled` engine exactly as a user would.
pub fn build_fleet_modeled(cfg: &SessionConfig) -> Result<Engine<ModeledWorkload>, OffloadError> {
    Ok(shape_modeled(Engine::modeled(
        cfg.clone(),
        FLEET_MODELED_CLIENTS,
    )?))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_lists_every_workload_and_end_to_end_metric() {
        for w in WORKLOADS {
            assert!(
                BENCHMARK_JSON.contains(&format!("\"name\": \"{}\"", w.name)),
                "workload {} missing from BENCHMARK.json",
                w.name
            );
            assert!(
                w.why.len() <= 200,
                "{} why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(BENCHMARK_JSON.contains(w.why), "{} why differs", w.name);
        }
        for m in E2E {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(BENCHMARK_JSON.contains(&entry), "missing or stale: {entry}");
        }
    }

    #[test]
    fn benchmark_json_lists_every_contract_layer_row() {
        for (name, unit, _) in crate::layers::CONTRACT_ROWS {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(BENCHMARK_JSON.contains(&entry), "missing or stale: {entry}");
        }
        let listed = BENCHMARK_JSON
            .split("\"per_layer\"")
            .nth(1)
            .map(|tail| tail.matches("\"name\":").count())
            .unwrap_or(0);
        assert_eq!(listed, crate::layers::CONTRACT_ROWS.len());
    }

    #[test]
    fn seeds_derive_independently() {
        assert_ne!(derive(1, 1), derive(2, 1));
        assert_ne!(derive(1, 1), derive(1, 2));
        assert_eq!(derive(7, 3), derive(7, 3));
        let a = session_config("agenet", None, 1);
        let b = session_config("agenet", Some("1st_pool"), 1);
        assert_eq!(a.seed, b.seed);
        assert_eq!(b.cut.as_deref(), Some("1st_pool"));
        assert_eq!(fleet_modeled_config(1).servers.len(), 3);
    }
}
