//! # snapedge-core
//!
//! **Snapshot-based computation offloading for ML web apps** — a
//! from-scratch Rust reproduction of Jeong, Jeong, Lee & Moon,
//! *"Computation Offloading for Machine Learning Web Apps in the Edge
//! Server Environment"* (ICDCS 2018).
//!
//! The idea: a DNN web app runs on a weak embedded client; just before the
//! expensive inference event handler executes, the client serializes its
//! entire execution state into a *snapshot* — itself a self-contained web
//! app — and ships it to a nearby generic edge server. The server runs the
//! snapshot on its own browser (restoring state and re-dispatching the
//! event), executes the DNN with stronger hardware, snapshots the updated
//! state (result on screen included), and ships it back.
//!
//! This crate is the offloading runtime on top of the workspace substrates:
//!
//! | concern | module |
//! |---|---|
//! | shared offloading config core + builder | [`config`] |
//! | megascale event-queue fleet engine (concurrent clients) | [`engine`] |
//! | client/server device latency models (Odroid-XU4 vs x86) | [`device`] |
//! | the Caffe.js `model` host object apps call | [`mlhost`] |
//! | the two benchmark apps (paper Figs. 2 & 5) | [`apps`] |
//! | a browser-bearing machine | [`endpoint`] |
//! | the one offload path: pre-sending, ACK, pre-ship gates, migration, failover, local fallback | [`OffloadSession`] |
//! | the Fig. 6 strategies as one-round sessions, per-phase breakdown | [`run_scenario`] |
//! | Neurosurgeon-style partition-point optimization | [`partition`] |
//! | fault classification, retry policy, local fallback | [`resilience`] |
//! | edge-fleet server pool, health records, failover selection | [`fleet`] |
//! | the feature-inversion attack and the withholding defense | [`privacy`] |
//! | on-demand installation via VM synthesis | [`install`] |
//!
//! # Quickstart
//!
//! ```
//! use snapedge_core::{run_scenario, ScenarioConfig, Strategy};
//!
//! # fn main() -> Result<(), snapedge_core::OffloadError> {
//! // Offload a (tiny, real-arithmetic) inference after model pre-sending.
//! let report = run_scenario(&ScenarioConfig::tiny(Strategy::OffloadAfterAck))?;
//! assert!(report.result.starts_with("class_"));
//! println!("inference took {:?} (server exec {:?})",
//!          report.total, report.breakdown.exec_server);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod apps;
pub mod balance;
pub mod config;
pub mod device;
mod endpoint;
pub mod energy;
pub mod engine;
mod error;
pub mod fleet;
mod gates;
pub mod install;
mod mlhost;
pub mod partition;
pub mod prelude;
pub mod privacy;
pub mod resilience;
mod scenario;
mod session;

pub use adaptive::{AdaptiveOffloader, AdaptivePolicy, Decision, Plan};
pub use balance::{jain, Balancer, DrrScheduler, DEFAULT_DRR_QUANTUM};
pub use config::{ConfigBuilder, OffloadConfig};
pub use device::{edge_server_x86, odroid_xu4, DeviceProfile};
pub use endpoint::Endpoint;
pub use energy::{client_energy, odroid_xu4_energy, EnergyProfile, EnergyReport};
pub use engine::{
    round_image_seed, ArrivalProcess, Engine, EngineEvent, EngineEventKind, FleetReport,
    ModeledWorkload, RoundOutcome, ServerLoad, SessionWorkload, Workload,
};
pub use error::OffloadError;
pub use fleet::{format_servers, parse_servers, ServerHealth, ServerPool, ServerSpec};
pub use install::{vm_install, InstallReport};
pub use mlhost::CaffeJsHost;
pub use partition::{PartitionOptimizer, PartitionPrediction, PredictedTimes};
pub use privacy::{evaluate_privacy, reconstruct_input, AttackConfig, PrivacyReport};
pub use resilience::{classify, schedule_resilient, FaultClass, ResilienceOutcome, RetryPolicy};
pub use scenario::{
    run_scenario, Breakdown, ScenarioBuilder, ScenarioConfig, ScenarioReport, Strategy,
};
pub use session::{OffloadSession, RoundReport, SessionBuilder, SessionConfig};
pub use snapedge_analyze::{AnalyzeError, CostBound, EffectOptions, EffectSummary};
pub use snapedge_webapp::{HostEffect, MeterLimits};
