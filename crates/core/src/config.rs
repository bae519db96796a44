//! The shared offloading configuration core.
//!
//! [`SessionConfig`](crate::SessionConfig) and
//! [`ScenarioConfig`](crate::ScenarioConfig) used to carry two
//! copy-pasted sets of the same nine fields and two copy-pasted builders
//! with ≈15 identical setters each. This module collapses that
//! duplication: [`OffloadConfig`] owns everything the two shapes share
//! (model, fleet, client device, execution mode, seeds, payload sizes,
//! snapshot options, resilience knobs, and the switches of the two
//! pre-ship gates, `predict` and `effects`), the typed wrappers add only
//! what is genuinely theirs (a session's `cut`/`use_deltas`, a
//! scenario's `strategy`/`compress`), and [`ConfigBuilder`] provides the
//! shared setters once, generically over any wrapper that derefs to the
//! core.
//!
//! The unification is also what lets the fleet engine
//! ([`crate::engine`]) accept **one** config type: anything that converts
//! into a [`SessionConfig`](crate::SessionConfig) — including a bare
//! `OffloadConfig` — can drive a fleet of real sessions. The megascale
//! analytic workload takes the same type but models only the model, the
//! client device, the seed and each server's name, device and link; it
//! refuses a config that sets any other field away from the paper
//! config's value.

use crate::device::DeviceProfile;
use crate::fleet::ServerSpec;
use crate::resilience::RetryPolicy;
use snapedge_dnn::ExecMode;
use snapedge_net::{FaultPlan, LinkConfig};
use snapedge_webapp::{MeterLimits, SnapshotOptions};
use std::ops::DerefMut;

/// The configuration core shared by sessions, scenarios and the fleet
/// engine: everything about *who offloads what over which fleet*,
/// independent of the execution shape (round-based session vs one-shot
/// scenario) layered on top.
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadConfig {
    /// Model name from the zoo.
    pub model: String,
    /// The edge fleet: ordered candidate servers, each with its own
    /// device, link and fault schedules. The first entry is the primary.
    /// Must not be empty.
    pub servers: Vec<ServerSpec>,
    /// Client device model.
    pub client_device: DeviceProfile,
    /// Real or synthetic layer execution.
    pub exec_mode: ExecMode,
    /// Seed for parameters and image generation.
    pub seed: u64,
    /// Encoded image size in bytes.
    pub image_bytes: usize,
    /// Snapshot options.
    pub snapshot: SnapshotOptions,
    /// Recovery policy for transient network faults. `None` keeps the
    /// strict fail-fast behaviour against one server: the first fault
    /// surfaces as an error. (With a multi-server fleet the pool still
    /// tries the remaining candidates before giving up.)
    pub retry: Option<RetryPolicy>,
    /// Consult the proactive link-health predictor before committing
    /// bytes to the wire: when the predicted failed-attempt penalty tips
    /// the plan to Local, execution stays on the client *without*
    /// burning a retry budget. `false` (the default) replays the
    /// reactive-only path bit for bit.
    pub predict: bool,
    /// Run static effect analysis over the app: the `effects` gate keeps
    /// a nondeterministic app, or a round whose guaranteed cost floor
    /// exceeds the server's meter, off the wire, and the summary's op
    /// floor primes the `plan` gate. `false` (the default) computes no
    /// summary and records no `effects` gate event.
    pub effects: bool,
    /// Per-tenant resource metering on edge servers (op budgets,
    /// heap/string caps, call-depth limits, virtual-time slices).
    /// Individual servers override this via
    /// [`ServerSpec::meter`](crate::fleet::ServerSpec). Exhaustion is
    /// classified fatal-for-that-server: the tenant fails over or runs
    /// locally without burning retries. `None` (the default) runs
    /// unmetered and is bit-identical to pre-metering behaviour.
    pub meter: Option<MeterLimits>,
}

impl OffloadConfig {
    /// Paper-scale core (synthetic execution, 30 Mbps Wi-Fi to one x86
    /// edge server named `server_name`, ODROID-XU4 client).
    pub fn paper(model: &str, server_name: &str) -> OffloadConfig {
        OffloadConfig {
            model: model.to_string(),
            servers: vec![ServerSpec::new(
                server_name,
                crate::device::edge_server_x86(),
                LinkConfig::wifi_30mbps(),
            )],
            client_device: crate::device::odroid_xu4(),
            exec_mode: ExecMode::Synthetic { seed: 0xCAFE },
            seed: 42,
            image_bytes: 35_000,
            snapshot: SnapshotOptions::default(),
            retry: None,
            predict: false,
            effects: false,
            meter: None,
        }
    }

    /// Tiny real-arithmetic core for tests (`tiny_cnn`, 2 kB images).
    pub fn tiny(server_name: &str) -> OffloadConfig {
        OffloadConfig {
            model: "tiny_cnn".to_string(),
            exec_mode: ExecMode::Real,
            seed: 7,
            image_bytes: 2_000,
            ..OffloadConfig::paper("tiny_cnn", server_name)
        }
    }

    /// The primary (first) server spec. Builder-constructed configs are
    /// never empty; session/scenario entry points reject a hand-rolled
    /// empty fleet before this is reachable.
    ///
    /// # Panics
    ///
    /// Panics with a message naming the misuse when the `servers` fleet
    /// was left empty.
    // A builder-misuse assertion that fires before any offload starts.
    #[allow(clippy::panic)]
    pub fn primary(&self) -> &ServerSpec {
        match self.servers.first() {
            Some(spec) => spec,
            None => panic!(
                "offload config has an empty `servers` fleet: \
                 configure at least one edge server (the primary) \
                 before calling primary()"
            ),
        }
    }

    /// Mutable access to the primary server spec — the target of the
    /// single-server convenience setters on [`ConfigBuilder`].
    ///
    /// # Panics
    ///
    /// Panics with a message naming the misuse when the `servers` fleet
    /// was left empty.
    // A builder-misuse assertion that fires before any offload starts.
    #[allow(clippy::panic)]
    pub fn primary_mut(&mut self) -> &mut ServerSpec {
        match self.servers.first_mut() {
            Some(spec) => spec,
            None => panic!(
                "offload config has an empty `servers` fleet: \
                 configure at least one edge server (the primary) \
                 before calling primary_mut()"
            ),
        }
    }
}

/// The shared builder: one set of setters for every field of
/// [`OffloadConfig`], generic over any wrapper config that derefs to the
/// core. `SessionBuilder`/`ScenarioBuilder` are aliases of this type;
/// their type-specific setters (`cut`, `use_deltas`, `strategy`,
/// `compress`) live as inherent impls next to their config types.
#[derive(Debug, Clone)]
pub struct ConfigBuilder<C> {
    pub(crate) cfg: C,
}

impl<C: DerefMut<Target = OffloadConfig>> ConfigBuilder<C> {
    /// Sets the primary server's link model (both directions).
    pub fn link(mut self, link: LinkConfig) -> ConfigBuilder<C> {
        self.cfg.primary_mut().link = link;
        self
    }

    /// Sets the client device model.
    pub fn client_device(mut self, device: DeviceProfile) -> ConfigBuilder<C> {
        self.cfg.client_device = device;
        self
    }

    /// Replaces the whole edge fleet (candidate order is preference
    /// order; the first entry is the primary). An empty vector is
    /// rejected later, at session/scenario construction.
    pub fn servers(mut self, servers: Vec<ServerSpec>) -> ConfigBuilder<C> {
        self.cfg.servers = servers;
        self
    }

    /// Appends one failover candidate to the fleet.
    pub fn add_server(mut self, server: ServerSpec) -> ConfigBuilder<C> {
        self.cfg.servers.push(server);
        self
    }

    /// Real or synthetic layer execution.
    pub fn exec_mode(mut self, mode: ExecMode) -> ConfigBuilder<C> {
        self.cfg.exec_mode = mode;
        self
    }

    /// Seed for parameters and image generation.
    pub fn seed(mut self, seed: u64) -> ConfigBuilder<C> {
        self.cfg.seed = seed;
        self
    }

    /// Encoded image size in bytes.
    pub fn image_bytes(mut self, bytes: usize) -> ConfigBuilder<C> {
        self.cfg.image_bytes = bytes;
        self
    }

    /// Snapshot generation options.
    pub fn snapshot(mut self, options: SnapshotOptions) -> ConfigBuilder<C> {
        self.cfg.snapshot = options;
        self
    }

    /// Fault-injection schedule for the primary server's client→server
    /// link.
    pub fn up_faults(mut self, plan: FaultPlan) -> ConfigBuilder<C> {
        self.cfg.primary_mut().up_faults = plan;
        self
    }

    /// Fault-injection schedule for the primary server's server→client
    /// link.
    pub fn down_faults(mut self, plan: FaultPlan) -> ConfigBuilder<C> {
        self.cfg.primary_mut().down_faults = plan;
        self
    }

    /// The same fault-injection schedule on both links.
    pub fn faults(self, plan: FaultPlan) -> ConfigBuilder<C> {
        self.up_faults(plan.clone()).down_faults(plan)
    }

    /// Recovery policy for transient network faults.
    pub fn retry(mut self, policy: RetryPolicy) -> ConfigBuilder<C> {
        self.cfg.retry = Some(policy);
        self
    }

    /// Toggles the proactive link-health predictor (off by default).
    pub fn predict(mut self, on: bool) -> ConfigBuilder<C> {
        self.cfg.predict = on;
        self
    }

    /// Toggles static effect analysis (off by default): pre-ship
    /// nondeterminism gating, and static cost bounds that gate guaranteed
    /// meter exhaustion and prime the predictor. Off replays pre-analysis
    /// traces byte for byte.
    pub fn effects(mut self, on: bool) -> ConfigBuilder<C> {
        self.cfg.effects = on;
        self
    }

    /// Meters every edge server's execution under `limits` (per-server
    /// [`ServerSpec::meter`] overrides win where set).
    pub fn meter(mut self, limits: MeterLimits) -> ConfigBuilder<C> {
        self.cfg.meter = Some(limits);
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> C {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "empty `servers` fleet")]
    fn primary_names_the_empty_fleet_misuse() {
        let mut cfg = OffloadConfig::tiny("edge");
        cfg.servers.clear();
        let _ = cfg.primary();
    }

    #[test]
    #[should_panic(expected = "empty `servers` fleet")]
    fn primary_mut_names_the_empty_fleet_misuse() {
        let mut cfg = OffloadConfig::tiny("edge");
        cfg.servers.clear();
        let _ = cfg.primary_mut();
    }

    #[test]
    fn paper_and_tiny_cores_differ_where_expected() {
        let paper = OffloadConfig::paper("agenet", "edge-server-1");
        let tiny = OffloadConfig::tiny("edge-server-1");
        assert_eq!(paper.primary().name, "edge-server-1");
        assert_eq!(paper.seed, 42);
        assert_eq!(tiny.model, "tiny_cnn");
        assert_eq!(tiny.seed, 7);
        assert_eq!(tiny.image_bytes, 2_000);
        assert_eq!(paper.primary().link, tiny.primary().link);
    }
}
