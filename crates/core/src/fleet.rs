//! The edge fleet: an ordered set of candidate servers and the health
//! bookkeeping that picks which one a session offloads to.
//!
//! The paper wires exactly one edge server per client; a deployment has a
//! *fleet* of candidates, each with its own device profile, link and fault
//! schedule. [`ServerPool`] keeps one [`LinkHealth`] record per server —
//! fed by completed transfers and by retry and give-up observations — and
//! exposes a selection metric based on **predicted
//! migration time**: the bytes pending migration (plus the model, when the
//! caller prices a pre-send) over the estimated bandwidth, plus link
//! latency. The session/scenario drivers pre-send the model to the best
//! candidate and automatically hand off to the next-best one when the
//! retry budget against the current server exhausts; local execution is
//! the last resort once every candidate is exhausted.
//!
//! [`ServerPool::select`] is the one placement rule of both fleets, and
//! deterministic: client `c` takes the `c % ties`-th of the best-tied
//! candidates, so client 0 (every scenario) takes the lowest index.

use crate::device::DeviceProfile;
use crate::OffloadError;
use snapedge_net::{FaultPlan, LinkConfig, LinkHealth, Transfer};
use snapedge_webapp::MeterLimits;
use std::time::Duration;

/// Refuses a fleet no round can be offloaded to: an empty one.
pub(crate) fn check_fleet(servers: &[ServerSpec]) -> Result<(), OffloadError> {
    if servers.is_empty() {
        return Err(OffloadError::Config(
            "the fleet needs at least one edge server".into(),
        ));
    }
    Ok(())
}

/// Static description of one candidate edge server: who it is, how fast
/// it is, what the path to it looks like, and when that path misbehaves.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSpec {
    /// Server name (appears in trace events and reports).
    pub name: String,
    /// The server's device model.
    pub device: DeviceProfile,
    /// The client↔server link (each direction gets one).
    pub link: LinkConfig,
    /// Fault-injection schedule for the client→server direction.
    pub up_faults: FaultPlan,
    /// Fault-injection schedule for the server→client direction.
    pub down_faults: FaultPlan,
    /// Per-tenant resource caps enforced while this server executes a
    /// restored snapshot. `Some` overrides the fleet-wide
    /// [`OffloadConfig::meter`](crate::OffloadConfig) default; `None`
    /// inherits it (which may itself be unmetered).
    pub meter: Option<MeterLimits>,
}

impl ServerSpec {
    /// A fault-free spec with the given name, device and link.
    pub fn new(name: &str, device: DeviceProfile, link: LinkConfig) -> ServerSpec {
        ServerSpec {
            name: name.to_string(),
            device,
            link,
            up_faults: FaultPlan::none(),
            down_faults: FaultPlan::none(),
            meter: None,
        }
    }

    /// Replaces the link, builder style.
    pub fn with_link(mut self, link: LinkConfig) -> ServerSpec {
        self.link = link;
        self
    }

    /// Sets the client→server fault schedule, builder style.
    pub fn with_up_faults(mut self, plan: FaultPlan) -> ServerSpec {
        self.up_faults = plan;
        self
    }

    /// Sets the server→client fault schedule, builder style.
    pub fn with_down_faults(mut self, plan: FaultPlan) -> ServerSpec {
        self.down_faults = plan;
        self
    }

    /// The same fault schedule in both directions, builder style.
    pub fn with_faults(self, plan: FaultPlan) -> ServerSpec {
        let down = plan.clone();
        self.with_up_faults(plan).with_down_faults(down)
    }

    /// Sets this server's per-tenant resource caps, builder style
    /// (overrides any fleet-wide meter default).
    pub fn with_meter(mut self, limits: MeterLimits) -> ServerSpec {
        self.meter = Some(limits);
        self
    }
}

/// One candidate and what the client has learned about it from its own
/// traffic.
#[derive(Debug, Clone, PartialEq)]
struct Candidate {
    spec: ServerSpec,
    link: LinkHealth,
    exhausted: bool,
}

/// The ordered candidate set plus per-server health records.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerPool {
    servers: Vec<Candidate>,
}

impl ServerPool {
    /// Builds a pool over `specs`, all starting healthy with no bandwidth
    /// history.
    pub fn new(specs: Vec<ServerSpec>) -> ServerPool {
        ServerPool {
            servers: specs
                .into_iter()
                .map(|spec| Candidate {
                    spec,
                    link: LinkHealth::default(),
                    exhausted: false,
                })
                .collect(),
        }
    }

    /// Number of candidate servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// `true` when the pool has no candidates.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// The static spec of candidate `idx`.
    pub fn spec(&self, idx: usize) -> Option<&ServerSpec> {
        self.servers.get(idx).map(|c| &c.spec)
    }

    /// The link-health record of candidate `idx`: its bandwidth estimate
    /// and windowed fault history.
    pub fn link(&self, idx: usize) -> Option<&LinkHealth> {
        self.servers.get(idx).map(|c| &c.link)
    }

    /// Feeds one completed transfer against candidate `idx` into its
    /// link-health record.
    pub fn observe_transfer(&mut self, idx: usize, transfer: &Transfer) {
        if let Some(c) = self.servers.get_mut(idx) {
            c.link.observe_transfer(transfer);
        }
    }

    /// Records `count` fault observations (retries and give-ups) against
    /// candidate `idx` at virtual time `at`: each one penalizes the
    /// bandwidth estimate (steering future selection away from the
    /// unhealthy path) and lands in the windowed history the plan gate's
    /// prediction reads.
    pub fn observe_faults(&mut self, idx: usize, count: usize, at: Duration) {
        if let Some(c) = self.servers.get_mut(idx) {
            c.link.observe_faults(count, at);
        }
    }

    /// Marks candidate `idx` as exhausted for the current round; an
    /// exhausted candidate is skipped by [`ServerPool::select`] until
    /// [`ServerPool::begin_round`] clears the flag.
    pub fn mark_exhausted(&mut self, idx: usize) {
        if let Some(c) = self.servers.get_mut(idx) {
            c.exhausted = true;
        }
    }

    /// Starts a new inference round: every candidate gets a fresh chance
    /// (exhaustion is per-round; link health persists).
    pub fn begin_round(&mut self) {
        for c in &mut self.servers {
            c.exhausted = false;
        }
    }

    /// Resets candidate `idx`'s link-health record. Called when a
    /// handoff re-provisions a server so post-handoff estimates never mix
    /// samples observed against a different epoch of the same path.
    pub fn reset_estimator(&mut self, idx: usize) {
        if let Some(c) = self.servers.get_mut(idx) {
            c.link.reset();
        }
    }

    /// The selection metric: predicted time to migrate `pending_bytes` to
    /// candidate `idx`, using the learned bandwidth estimate when it has
    /// samples (the configured link rate otherwise), plus the model
    /// pre-send (`model_bytes`; 0 prices none), plus link latency.
    /// Per-transfer overhead is charged once per constituent transfer —
    /// the model pre-send and the snapshot are separate wire transfers, so
    /// a priced pre-send pays the overhead twice. Whether a candidate
    /// still needs the model is the caller's fact: a session prices it at
    /// failover, when every candidate it may pick holds nothing of its.
    /// Unusable paths (zero or non-finite bandwidth) predict
    /// `Duration::MAX`.
    pub fn predicted_migration(
        &self,
        idx: usize,
        pending_bytes: u64,
        model_bytes: u64,
    ) -> Duration {
        let Some(Candidate { spec, link, .. }) = self.servers.get(idx) else {
            return Duration::MAX;
        };
        let bw = link
            .estimate_bps()
            .unwrap_or_else(|| spec.link.effective_bandwidth_bps());
        if !(bw.is_finite() && bw > 0.0) {
            return Duration::MAX;
        }
        let transfers: u64 = if model_bytes > 0 { 2 } else { 1 };
        let overhead = spec.link.overhead_bytes.saturating_mul(transfers);
        let bytes = pending_bytes.saturating_add(model_bytes);
        let secs = bytes.saturating_add(overhead) as f64 * 8.0 / bw;
        match Duration::try_from_secs_f64(secs) {
            Ok(wire) => spec.link.latency.saturating_add(wire),
            Err(_) => Duration::MAX,
        }
    }

    /// Each candidate's [`ServerPool::predicted_migration`], in fleet order.
    pub(crate) fn migrations(&self, pending_bytes: u64, model_bytes: u64) -> Vec<Duration> {
        (0..self.servers.len())
            .map(|idx| self.predicted_migration(idx, pending_bytes, model_bytes))
            .collect()
    }

    /// Where `client` is placed (a session at build and failover, a
    /// modeled client at its first round): the non-exhausted candidate
    /// with the least predicted migration time plus queueing delay
    /// (`delays[idx]`, a [`Balancer`](crate::balance::Balancer) outlook;
    /// missing entries count as zero). Of the candidates tied with the
    /// best, in fleet order, client `c` takes the `c % ties`-th. `None`
    /// when every candidate is exhausted. Still open: a session's build
    /// prices no model bytes, its failover does; which horizon placement
    /// should optimise is undecided (it waits on measured session
    /// lengths).
    pub fn select(
        &self,
        client: usize,
        pending_bytes: u64,
        model_bytes: u64,
        delays: &[Duration],
    ) -> Option<usize> {
        let migrations = self.servers.iter().enumerate().map(|(idx, c)| {
            (!c.exhausted).then(|| self.predicted_migration(idx, pending_bytes, model_bytes))
        });
        place(client, migrations, delays)
    }
}

/// [`ServerPool::select`]'s ranking over each candidate's predicted
/// migration time (`None`: not a candidate).
pub(crate) fn place<I>(client: usize, migrations: I, delays: &[Duration]) -> Option<usize>
where
    I: Iterator<Item = Option<Duration>> + Clone,
{
    let costs = migrations.enumerate().filter_map(|(idx, migration)| {
        let queueing = delays.get(idx).copied().unwrap_or(Duration::ZERO);
        Some((idx, migration?.saturating_add(queueing)))
    });
    let best = costs.clone().map(|(_, cost)| cost).min()?;
    let tied = costs
        .filter(move |&(_, cost)| cost == best)
        .map(|(idx, _)| idx);
    tied.clone().nth(client % tied.count())
}

/// Parses a `--servers` fleet spec: entries separated by `;`, each entry
/// a server name followed by comma-separated `key=value` overrides
/// applied on top of `template` (which supplies the device profile and
/// any unspecified link fields).
///
/// Keys: `mbps` (bandwidth in Mbit/s), `bps` (bandwidth in bit/s),
/// `latency` (seconds), `overhead` (bytes), `loss` (fraction), fault
/// plans `up`/`down`/`faults` in [`FaultPlan::parse`] syntax with `+`
/// standing in for the plan-internal `,` (e.g. `up=down@2..5+corrupt@7..8`),
/// and `meter` in [`MeterLimits::parse`] syntax with the same `+`-for-`,`
/// substitution (e.g. `meter=ops=5000+heap=100`).
///
/// ```
/// use snapedge_core::fleet::{parse_servers, ServerSpec};
/// use snapedge_core::edge_server_x86;
/// use snapedge_net::LinkConfig;
///
/// let template = ServerSpec::new("t", edge_server_x86(), LinkConfig::wifi_30mbps());
/// let fleet = parse_servers("edge-a,mbps=30;edge-b,mbps=12,up=down@2..5", &template).unwrap();
/// assert_eq!(fleet.len(), 2);
/// assert_eq!(fleet[1].name, "edge-b");
/// ```
///
/// # Errors
///
/// Returns a description of the malformed entry.
pub fn parse_servers(spec: &str, template: &ServerSpec) -> Result<Vec<ServerSpec>, String> {
    let mut servers = Vec::new();
    for entry in spec.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let mut fields = entry.split(',');
        let name = fields.next().unwrap_or("").trim();
        if name.is_empty() {
            return Err(format!("server entry {entry:?} is missing a name"));
        }
        if name.contains('=') {
            return Err(format!(
                "server entry {entry:?} must start with a name, not a key=value field"
            ));
        }
        let mut server = ServerSpec::new(name, template.device.clone(), template.link.clone());
        for field in fields {
            let field = field.trim();
            if field.is_empty() {
                continue;
            }
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("server field {field:?} is missing '='"))?;
            let bad = |what: &str| format!("server {name:?}, field {field:?}: {what}");
            let number = |v: &str, what: &str| -> Result<f64, String> {
                let n: f64 = v.trim().parse().map_err(|_| bad(what))?;
                if !(n.is_finite() && n >= 0.0) {
                    return Err(bad(what));
                }
                Ok(n)
            };
            let plan = |v: &str| -> Result<FaultPlan, String> {
                FaultPlan::parse(&v.replace('+', ","))
                    .map_err(|e| bad(&format!("bad fault plan: {e}")))
            };
            match key.trim() {
                "mbps" => server.link.bandwidth_bps = number(value, "bad mbps value")? * 1.0e6,
                "bps" => server.link.bandwidth_bps = number(value, "bad bps value")?,
                "latency" => {
                    server.link.latency =
                        Duration::try_from_secs_f64(number(value, "bad latency value")?)
                            .map_err(|_| bad("latency out of range"))?
                }
                "overhead" => {
                    server.link.overhead_bytes = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad overhead value"))?
                }
                "loss" => server.link.loss = number(value, "bad loss value")?,
                "up" => server.up_faults = plan(value)?,
                "down" => server.down_faults = plan(value)?,
                "faults" => {
                    let p = plan(value)?;
                    server.up_faults = p.clone();
                    server.down_faults = p;
                }
                "meter" => {
                    server.meter = Some(
                        MeterLimits::parse(&value.replace('+', ","))
                            .map_err(|e| bad(&format!("bad meter spec: {e}")))?,
                    )
                }
                other => return Err(format!("unknown server key {other:?}")),
            }
        }
        servers.push(server);
    }
    if servers.is_empty() {
        return Err("server spec names no servers".to_string());
    }
    Ok(servers)
}

/// Formats a fleet back into the canonical spec syntax accepted by
/// [`parse_servers`]. Link fields are always emitted (with exact
/// round-tripping float forms), fault plans only when non-empty, so
/// `parse_servers(&format_servers(&fleet), &template)` reproduces the
/// fleet exactly whenever every server shares the template's device.
pub fn format_servers(servers: &[ServerSpec]) -> String {
    servers
        .iter()
        .map(|s| {
            let mut out = format!(
                "{},bps={},latency={},overhead={},loss={}",
                s.name,
                s.link.bandwidth_bps,
                s.link.latency.as_secs_f64(),
                s.link.overhead_bytes,
                s.link.loss
            );
            if !s.up_faults.is_empty() {
                out.push_str(",up=");
                out.push_str(&s.up_faults.to_spec().replace(',', "+"));
            }
            if !s.down_faults.is_empty() {
                out.push_str(",down=");
                out.push_str(&s.down_faults.to_spec().replace(',', "+"));
            }
            if let Some(meter) = &s.meter {
                out.push_str(",meter=");
                out.push_str(&meter.format().replace(',', "+"));
            }
            out
        })
        .collect::<Vec<_>>()
        .join(";")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::edge_server_x86;

    fn spec(name: &str, mbps: f64) -> ServerSpec {
        ServerSpec::new(name, edge_server_x86(), LinkConfig::mbps(mbps))
    }

    #[test]
    fn selection_prefers_the_fastest_configured_link() {
        let pool = ServerPool::new(vec![spec("a", 10.0), spec("b", 30.0), spec("c", 5.0)]);
        assert_eq!(pool.select(0, 100_000, 1_000_000, &[]), Some(1));
    }

    /// The tie rule, client by client: client `c` takes the `c % ties`-th
    /// of the candidates tied with the best, so client 0 takes the lowest
    /// index and a strictly cheaper candidate takes every client.
    #[test]
    fn selection_spreads_tied_clients_in_fleet_order() {
        let uniform = || vec![spec("a", 10.0), spec("b", 10.0), spec("c", 10.0)];
        let mut one_exhausted = ServerPool::new(uniform());
        one_exhausted.mark_exhausted(1);
        let cheaper = ServerPool::new(vec![spec("a", 10.0), spec("b", 30.0), spec("c", 10.0)]);
        let table: [(&str, ServerPool, [usize; 5]); 3] = [
            ("three tied", ServerPool::new(uniform()), [0, 1, 2, 0, 1]),
            ("b exhausted", one_exhausted, [0, 2, 0, 2, 0]),
            ("b cheaper", cheaper, [1; 5]),
        ];
        for (case, pool, want) in table {
            for (client, want) in want.into_iter().enumerate() {
                let got = pool.select(client, 100_000, 0, &[]);
                assert_eq!(got, Some(want), "{case}: client {client}");
            }
        }
    }

    #[test]
    fn queueing_delay_overrules_the_faster_link() {
        let pool = ServerPool::new(vec![spec("a", 30.0), spec("b", 10.0)]);
        // With an empty outlook the 30 Mbps link wins.
        assert_eq!(pool.select(0, 100_000, 0, &[]), Some(0));
        // A saturated CPU behind the fast link flips the choice: the
        // slower-link candidate finishes sooner end to end.
        let outlook = [Duration::from_secs(5), Duration::ZERO];
        assert_eq!(pool.select(0, 100_000, 0, &outlook), Some(1));
        // Missing trailing entries count as idle.
        let short = [Duration::from_secs(5)];
        assert_eq!(pool.select(0, 100_000, 0, &short), Some(1));
    }

    #[test]
    fn learned_bandwidth_overrides_the_configured_rate() {
        let mut pool = ServerPool::new(vec![spec("a", 30.0), spec("b", 10.0)]);
        // Observed traffic shows "a" is actually crawling.
        pool.observe_transfer(
            0,
            &Transfer {
                start: Duration::ZERO,
                finish: Duration::from_secs(10),
                bytes: 125_000, // 0.1 Mbps observed
                corrupted: false,
            },
        );
        assert_eq!(pool.select(0, 100_000, 0, &[]), Some(1));
    }

    #[test]
    fn fault_observations_penalize_the_estimate() {
        let mut pool = ServerPool::new(vec![spec("a", 30.0), spec("b", 20.0)]);
        // "a" performs as configured at first...
        pool.observe_transfer(
            0,
            &Transfer {
                start: Duration::ZERO,
                finish: Duration::from_secs(1),
                bytes: 3_750_000, // 30 Mbps observed
                corrupted: false,
            },
        );
        assert_eq!(pool.select(0, 1_000_000, 0, &[]), Some(0));
        // ...then a string of faults halves its estimate below b's rate.
        pool.observe_faults(0, 2, Duration::from_secs(2));
        let prediction = pool.link(0).unwrap().predict(Duration::from_secs(2));
        assert!((prediction.fault_rate - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(pool.select(0, 1_000_000, 0, &[]), Some(1));
    }

    #[test]
    fn health_records_feed_the_link_predictor() {
        let mut pool = ServerPool::new(vec![spec("a", 30.0)]);
        assert!(pool.link(0).unwrap().predict(Duration::ZERO).healthy());
        pool.observe_transfer(
            0,
            &Transfer {
                start: Duration::ZERO,
                finish: Duration::from_secs(1),
                bytes: 3_750_000,
                corrupted: false,
            },
        );
        pool.observe_faults(0, 3, Duration::from_secs(2));
        let prediction = pool.link(0).unwrap().predict(Duration::from_secs(2));
        assert!(!prediction.healthy());
        assert!((prediction.fault_rate - 0.75).abs() < 1e-12);
        assert_eq!(prediction.time_since_success, Some(Duration::from_secs(1)));
        // Resetting the estimator also clears the windowed history.
        pool.reset_estimator(0);
        assert!(pool
            .link(0)
            .unwrap()
            .predict(Duration::from_secs(3))
            .healthy());
    }

    #[test]
    fn overhead_is_charged_once_per_constituent_transfer() {
        // One server, a link where per-transfer overhead dominates.
        let heavy = ServerSpec::new(
            "heavy",
            edge_server_x86(),
            LinkConfig {
                bandwidth_bps: 8.0e6, // 1 byte/µs: easy arithmetic
                latency: Duration::ZERO,
                overhead_bytes: 1_000_000,
                loss: 0.0,
            },
        );
        let pool = ServerPool::new(vec![heavy]);
        // A priced pre-send: model + snapshot are two wire transfers, so
        // the overhead is paid twice.
        let cold = pool.predicted_migration(0, 1_000_000, 2_000_000);
        assert_eq!(cold, Duration::from_secs(5), "1M + 2M + 2×1M overhead");
        // Nothing to pre-send: a single transfer, a single overhead charge.
        assert_eq!(
            pool.predicted_migration(0, 1_000_000, 0),
            Duration::from_secs(2),
            "1M + 1×1M overhead"
        );
    }

    #[test]
    fn exhausted_candidates_are_skipped_until_the_next_round() {
        let mut pool = ServerPool::new(vec![spec("a", 30.0), spec("b", 10.0)]);
        pool.mark_exhausted(0);
        assert_eq!(pool.select(0, 0, 0, &[]), Some(1));
        pool.mark_exhausted(1);
        assert_eq!(pool.select(0, 0, 0, &[]), None);
        pool.begin_round();
        assert_eq!(pool.select(0, 0, 0, &[]), Some(0));
    }

    #[test]
    fn reset_estimator_forgets_the_previous_epoch() {
        let mut pool = ServerPool::new(vec![spec("a", 30.0)]);
        pool.observe_transfer(
            0,
            &Transfer {
                start: Duration::ZERO,
                finish: Duration::from_secs(1),
                bytes: 125_000,
                corrupted: false,
            },
        );
        pool.observe_faults(0, 3, Duration::from_secs(1));
        pool.reset_estimator(0);
        let link = pool.link(0).unwrap();
        assert_eq!(link, &LinkHealth::default());
        assert!(link.predict(Duration::from_secs(1)).healthy());
    }

    #[test]
    fn unusable_links_predict_max() {
        let dead = ServerSpec::new(
            "dead",
            edge_server_x86(),
            LinkConfig {
                bandwidth_bps: 0.0,
                latency: Duration::ZERO,
                overhead_bytes: 0,
                loss: 0.0,
            },
        );
        let pool = ServerPool::new(vec![dead, spec("ok", 1.0)]);
        assert_eq!(pool.predicted_migration(0, 1000, 0), Duration::MAX);
        assert_eq!(pool.select(0, 1000, 0, &[]), Some(1));
        // Out-of-range index is also "unreachable", not a panic.
        assert_eq!(pool.predicted_migration(9, 1000, 0), Duration::MAX);
    }

    #[test]
    fn parse_and_format_roundtrip() {
        let template = spec("template", 30.0);
        let fleet = parse_servers(
            "edge-a,mbps=30,meter=ops=5000+heap=200;edge-b,mbps=12,latency=0.01,up=down@2..5+corrupt@7..8;edge-c,loss=0.1,down=degrade@1..2x0.5",
            &template,
        )
        .unwrap();
        assert_eq!(fleet.len(), 3);
        assert_eq!(fleet[0].name, "edge-a");
        assert_eq!(
            fleet[0].meter,
            Some(MeterLimits::default().with_ops(5000).with_heap_cells(200))
        );
        assert_eq!(fleet[1].link.latency, Duration::from_millis(10));
        assert_eq!(fleet[1].up_faults.windows().len(), 2);
        assert!(fleet[1].down_faults.is_empty());
        assert_eq!(fleet[1].meter, None);
        assert_eq!(fleet[2].link.loss, 0.1);
        let formatted = format_servers(&fleet);
        let back = parse_servers(&formatted, &template).unwrap();
        assert_eq!(back, fleet, "parse → format → parse must be identity");
    }

    #[test]
    fn meter_key_rejects_garbage() {
        let template = spec("template", 30.0);
        assert!(parse_servers("a,meter=ops=zero", &template).is_err());
        assert!(parse_servers("a,meter=warp=9", &template).is_err());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        let template = spec("template", 30.0);
        for bad in [
            "",
            ";;",
            "mbps=30",            // name missing
            "a,mbps",             // missing '='
            "a,mbps=fast",        // bad number
            "a,latency=-1",       // negative
            "a,warp=9",           // unknown key
            "a,up=teleport@1..2", // bad plan
        ] {
            assert!(
                parse_servers(bad, &template).is_err(),
                "{bad:?} should fail"
            );
        }
    }

    #[test]
    fn faults_key_applies_both_directions() {
        let template = spec("template", 30.0);
        let fleet = parse_servers("a,faults=down@1..2", &template).unwrap();
        assert_eq!(fleet[0].up_faults, fleet[0].down_faults);
        assert_eq!(fleet[0].up_faults.windows().len(), 1);
    }
}
