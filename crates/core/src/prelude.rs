//! One-import surface for the common offloading workflow.
//!
//! ```
//! use snapedge_core::prelude::*;
//!
//! # fn main() -> Result<(), OffloadError> {
//! let report = run_scenario(&ScenarioConfig::tiny(Strategy::OffloadAfterAck))?;
//! assert_eq!(report.breakdown, Breakdown::from_trace(&report.trace));
//! # Ok(())
//! # }
//! ```
//!
//! Pulls in the scenario/session entry points, their configs and builders,
//! the device profiles, and the cross-crate types they are parameterized
//! by ([`LinkConfig`], [`ExecMode`], [`SnapshotOptions`], the trace
//! types), so examples and tests need a single `use`.

pub use crate::balance::{jain, Balancer, DrrScheduler, DEFAULT_DRR_QUANTUM};
pub use crate::config::{ConfigBuilder, OffloadConfig};
pub use crate::device::{edge_server_x86, odroid_xu4, DeviceProfile};
pub use crate::engine::{
    round_image_seed, ArrivalProcess, Engine, EngineEvent, EngineEventKind, FleetReport,
    ModeledWorkload, RoundOutcome, ServerLoad, SessionWorkload, Workload,
};
pub use crate::error::OffloadError;
pub use crate::fleet::{format_servers, parse_servers, ServerPool, ServerSpec};
pub use crate::install::{vm_install, InstallReport};
pub use crate::resilience::{classify, FaultClass, ResilienceOutcome, RetryPolicy};
pub use crate::scenario::{
    run_scenario, Breakdown, ScenarioBuilder, ScenarioConfig, ScenarioReport, Strategy,
};
pub use crate::session::{OffloadSession, RoundReport, SessionBuilder, SessionConfig};
pub use snapedge_analyze::{AnalyzeError, EffectOptions, EffectSummary};
pub use snapedge_dnn::{zoo, ExecMode};
pub use snapedge_net::{FaultKind, FaultPlan, FaultWindow, Link, LinkConfig};
pub use snapedge_net::{LinkHealth, LinkPrediction};
pub use snapedge_trace::{Event, EventKind, Lane, Summary, Trace, Tracer};
pub use snapedge_webapp::{HostEffect, MeterLimits, SnapshotOptions};
