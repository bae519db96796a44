//! Shaped, FIFO-serializing links (the `netem` model).

use crate::fault::{FaultPlan, LinkState};
use snapedge_trace::{EventKind, Lane, Tracer};
use std::fmt;
use std::time::Duration;

/// Network-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The link is administratively down (failure injection).
    LinkDown,
    /// A transfer of zero bandwidth can never complete.
    ZeroBandwidth,
    /// A compressed payload failed to decode.
    Corrupt(String),
    /// A fault-injection plan was malformed (backwards window, overlap,
    /// bad degradation factor, unparseable spec).
    BadFaultPlan(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::LinkDown => write!(f, "link is down"),
            NetError::ZeroBandwidth => write!(f, "link has zero bandwidth"),
            NetError::Corrupt(msg) => write!(f, "corrupt payload: {msg}"),
            NetError::BadFaultPlan(msg) => write!(f, "invalid fault plan: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Static link parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// Bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// One-way propagation latency, added to every transfer.
    pub latency: Duration,
    /// Fixed per-message overhead in bytes (framing/headers).
    pub overhead_bytes: u64,
    /// Packet loss rate in `[0, 1)`. Lost packets are retransmitted
    /// (stop-and-repeat ARQ in expectation): effective serialized bits
    /// scale by `1 / (1 - loss)` — the standard fluid model of loss on a
    /// shaped link, deterministic so experiments stay reproducible.
    pub loss: f64,
}

impl LinkConfig {
    /// A link shaped like the paper's testbed: 30 Mbps (netem-limited
    /// Ethernet emulating good Wi-Fi), a few ms of latency.
    pub fn wifi_30mbps() -> LinkConfig {
        LinkConfig {
            bandwidth_bps: 30.0e6,
            latency: Duration::from_millis(5),
            overhead_bytes: 512,
            loss: 0.0,
        }
    }

    /// An arbitrary-rate link in megabits per second.
    pub fn mbps(rate: f64) -> LinkConfig {
        LinkConfig {
            bandwidth_bps: rate * 1.0e6,
            latency: Duration::from_millis(5),
            overhead_bytes: 512,
            loss: 0.0,
        }
    }

    /// Sets the packet loss rate, builder style. Values are clamped to
    /// `[0, 0.99]`.
    pub fn with_loss(mut self, loss: f64) -> LinkConfig {
        self.loss = loss.clamp(0.0, 0.99);
        self
    }

    /// Bandwidth effectively delivered to payloads once retransmissions
    /// are accounted for. The loss rate is clamped to `[0, 0.99]` here (not
    /// just in [`LinkConfig::with_loss`]) so hand-built configs can never
    /// yield a negative or zero effective bandwidth from loss alone.
    pub fn effective_bandwidth_bps(&self) -> f64 {
        self.bandwidth_bps * (1.0 - self.loss.clamp(0.0, 0.99))
    }

    /// Pure serialization + propagation time of `bytes` on an idle link.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::ZeroBandwidth`] when the effective bandwidth is
    /// not a positive finite rate (zero/negative/NaN configured bandwidth)
    /// — the division would otherwise produce an infinite duration and
    /// panic inside `Duration::from_secs_f64`.
    pub fn transfer_time(&self, bytes: u64) -> Result<Duration, NetError> {
        let bw = self.effective_bandwidth_bps();
        if !(bw.is_finite() && bw > 0.0) {
            return Err(NetError::ZeroBandwidth);
        }
        let bits = (bytes + self.overhead_bytes) as f64 * 8.0;
        Ok(self.latency + Duration::from_secs_f64(bits / bw))
    }
}

/// A completed scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// When the transfer began occupying the link.
    pub start: Duration,
    /// When the last byte (plus propagation) arrives.
    pub finish: Duration,
    /// Payload size in bytes (without overhead).
    pub bytes: u64,
    /// The payload arrived corrupted (its serialization overlapped a
    /// [`FaultKind::Corrupt`](crate::FaultKind::Corrupt) window): the link
    /// was occupied for the full duration, but the receiver must discard
    /// the bytes and request a retransmit.
    pub corrupted: bool,
}

impl Transfer {
    /// `finish - start`.
    pub fn elapsed(&self) -> Duration {
        self.finish - self.start
    }
}

/// One direction of a network path. Transfers are serialized FIFO: a
/// transfer requested while the link is busy queues behind the in-flight
/// one — this is exactly why "offloading before ACK" is slow in the paper
/// (the snapshot queues behind the still-uploading model).
#[derive(Debug, Clone)]
pub struct Link {
    config: LinkConfig,
    busy_until: Duration,
    down: bool,
    faults: FaultPlan,
    total_bytes: u64,
    transfers: usize,
    label: String,
    tracer: Tracer,
}

impl PartialEq for Link {
    fn eq(&self, other: &Link) -> bool {
        // Tracer handles are observers, not link state.
        self.config == other.config
            && self.busy_until == other.busy_until
            && self.down == other.down
            && self.faults == other.faults
            && self.total_bytes == other.total_bytes
            && self.transfers == other.transfers
            && self.label == other.label
    }
}

impl Link {
    /// A fresh, idle link.
    pub fn new(config: LinkConfig) -> Link {
        Link {
            config,
            busy_until: Duration::ZERO,
            down: false,
            faults: FaultPlan::none(),
            total_bytes: 0,
            transfers: 0,
            label: "link".to_string(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a deterministic fault-injection schedule, builder style.
    /// The plan is consulted against the virtual timestamps passed to
    /// [`Link::schedule`], so outages are exactly reproducible.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Link {
        self.faults = plan;
        self
    }

    /// The earliest virtual instant `>= t` at which the link is reachable
    /// again according to its fault plan, or `None` when the link was
    /// statically failed via [`Link::set_down`] (no recovery scheduled).
    /// Retry loops use this to wait out a known outage instead of probing
    /// blindly.
    pub fn next_up_after(&self, t: Duration) -> Option<Duration> {
        if self.down {
            return None;
        }
        Some(self.faults.next_up_after(t))
    }

    /// Attaches an observability tracer: every scheduled transfer records
    /// a [`EventKind::Transfer`] event named after `label` (plus a
    /// [`EventKind::Queue`] event when the transfer had to wait behind an
    /// in-flight one). Builder-style.
    pub fn with_tracer(mut self, tracer: Tracer, label: &str) -> Link {
        self.tracer = tracer;
        self.label = label.to_string();
        self
    }

    /// The link's static configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Schedules a transfer requested at `now`, returning its timing.
    ///
    /// With a [`FaultPlan`] attached, the plan is consulted against the
    /// virtual timeline: a transfer requested while the link is down is
    /// refused; a down window opening *mid-transfer* stalls serialization
    /// until the window closes (the stall is recorded as an
    /// [`EventKind::Fault`] event); degraded windows serialize at a
    /// fraction of the configured rate; and a transfer whose serialization
    /// overlaps a corrupt window completes on time but comes back with
    /// [`Transfer::corrupted`] set.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::LinkDown`] when the link is failed (statically
    /// or by the plan), or [`NetError::ZeroBandwidth`] for a non-positive
    /// rate.
    pub fn schedule(&mut self, now: Duration, bytes: u64) -> Result<Transfer, NetError> {
        if self.down {
            return Err(NetError::LinkDown);
        }
        let bw = self.config.effective_bandwidth_bps();
        if !(bw.is_finite() && bw > 0.0) {
            return Err(NetError::ZeroBandwidth);
        }
        let start = now.max(self.busy_until);
        if let LinkState::Down = self.faults.state_at(start) {
            // Refused instantly: no time passes, no link occupancy. Leave
            // an instant fault marker so the trace shows the attempt.
            self.tracer.record(
                &format!("{}_refused", self.label),
                Lane::Network,
                EventKind::Fault,
                now,
                now,
            );
            return Err(NetError::LinkDown);
        }
        let (finish, corrupted, stalls, degraded) = if self.faults.is_empty() {
            (
                start + self.config.transfer_time(bytes)?,
                false,
                vec![],
                vec![],
            )
        } else {
            self.serialize_through_faults(start, bytes, bw)?
        };
        self.busy_until = finish;
        self.total_bytes += bytes;
        self.transfers += 1;
        if self.tracer.is_enabled() {
            if start > now {
                self.tracer.record_bytes(
                    &format!("{}_queue", self.label),
                    Lane::Network,
                    EventKind::Queue,
                    now,
                    start,
                    Some(bytes),
                );
            }
            for &(a, b) in &stalls {
                self.tracer.record(
                    &format!("{}_outage", self.label),
                    Lane::Network,
                    EventKind::Fault,
                    a,
                    b,
                );
            }
            for &(a, b) in &degraded {
                self.tracer.record(
                    &format!("{}_degraded", self.label),
                    Lane::Network,
                    EventKind::Fault,
                    a,
                    b,
                );
            }
            if corrupted {
                self.tracer.record_bytes(
                    &format!("{}_corrupt", self.label),
                    Lane::Network,
                    EventKind::Fault,
                    start,
                    finish,
                    Some(bytes),
                );
            }
            self.tracer.record_bytes(
                &self.label,
                Lane::Network,
                EventKind::Transfer,
                start,
                finish,
                Some(bytes),
            );
        }
        Ok(Transfer {
            start,
            finish,
            bytes,
            corrupted,
        })
    }

    /// Piecewise serialization across the fault plan's windows: walks the
    /// timeline segment by segment (boundaries at window edges), serving
    /// bits at the segment's effective rate — zero while down, scaled while
    /// degraded. Returns the finish instant (serialization + propagation),
    /// whether any touched segment corrupts payloads, and the stalled /
    /// degraded sub-intervals for trace accounting.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::BadFaultPlan`] for a plan whose stalled window
    /// never ends (a transfer through it could never complete).
    #[allow(clippy::type_complexity)]
    fn serialize_through_faults(
        &self,
        start: Duration,
        bytes: u64,
        bw: f64,
    ) -> Result<
        (
            Duration,
            bool,
            Vec<(Duration, Duration)>,
            Vec<(Duration, Duration)>,
        ),
        NetError,
    > {
        let mut remaining_bits = (bytes + self.config.overhead_bytes) as f64 * 8.0;
        let mut t = start;
        let mut corrupted = false;
        let mut stalls = Vec::new();
        let mut degraded = Vec::new();
        loop {
            let state = self.faults.state_at(t);
            let boundary = self.faults.next_boundary_after(t);
            let factor = match state {
                LinkState::Down => 0.0,
                LinkState::Degraded(f) => f,
                LinkState::Up | LinkState::Corrupting => 1.0,
            };
            let rate = bw * factor;
            if rate <= 0.0 {
                // Stalled: nothing serializes until the window closes. The
                // plan's windows are finite, so a boundary always exists —
                // but a malformed plan must not panic mid-migration.
                let Some(end) = boundary else {
                    return Err(NetError::BadFaultPlan("stalled window never ends".into()));
                };
                stalls.push((t, end));
                t = end;
                continue;
            }
            if let LinkState::Corrupting = state {
                corrupted = true;
            }
            let needed = Duration::from_secs_f64(remaining_bits / rate);
            let seg_fits = match boundary {
                Some(edge) => t + needed <= edge,
                None => true,
            };
            if seg_fits {
                if let LinkState::Degraded(_) = state {
                    degraded.push((t, t + needed));
                }
                t += needed;
                break;
            }
            let Some(edge) = boundary else {
                return Err(NetError::BadFaultPlan(
                    "segment without a closing boundary".into(),
                ));
            };
            let seg = edge - t;
            remaining_bits -= rate * seg.as_secs_f64();
            if let LinkState::Degraded(_) = state {
                degraded.push((t, edge));
            }
            t = edge;
        }
        Ok((t + self.config.latency, corrupted, stalls, degraded))
    }

    /// When the link becomes idle.
    pub fn busy_until(&self) -> Duration {
        self.busy_until
    }

    /// Fails (`true`) or restores (`false`) the link — failure injection
    /// for the fallback-to-local-execution tests.
    pub fn set_down(&mut self, down: bool) {
        self.down = down;
    }

    /// Total payload bytes ever scheduled.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Number of transfers ever scheduled.
    pub fn transfer_count(&self) -> usize {
        self.transfers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_matches_hand_math() {
        // 30 Mbps: 27 MiB ~ 7.55 s serialization.
        let cfg = LinkConfig::wifi_30mbps();
        let t = cfg.transfer_time(27 * 1024 * 1024).unwrap();
        let secs = t.as_secs_f64();
        assert!((7.4..7.8).contains(&secs), "got {secs}");
    }

    #[test]
    fn the_papers_model_transfer_estimate_holds() {
        // Section III-B: "44 MB ... about 12 seconds ... at 30 Mbps".
        let cfg = LinkConfig::wifi_30mbps();
        let secs = cfg.transfer_time(44 * 1024 * 1024).unwrap().as_secs_f64();
        assert!((11.5..13.0).contains(&secs), "got {secs}");
    }

    #[test]
    fn fifo_serialization_queues_transfers() {
        let mut link = Link::new(LinkConfig::mbps(8.0)); // 1 MB/s
        let a = link.schedule(Duration::ZERO, 1_000_000).unwrap();
        let b = link.schedule(Duration::ZERO, 1_000_000).unwrap();
        assert_eq!(b.start, a.finish);
        assert!(b.finish > a.finish);
    }

    #[test]
    fn idle_gaps_are_not_accumulated() {
        let mut link = Link::new(LinkConfig::mbps(8.0));
        let a = link.schedule(Duration::ZERO, 1_000_000).unwrap();
        let later = a.finish + Duration::from_secs(5);
        let b = link.schedule(later, 1_000_000).unwrap();
        assert_eq!(b.start, later);
    }

    #[test]
    fn loss_stretches_transfers() {
        let clean = LinkConfig::wifi_30mbps();
        let lossy = LinkConfig::wifi_30mbps().with_loss(0.5);
        let t_clean = clean.transfer_time(1_000_000).unwrap().as_secs_f64();
        let t_lossy = lossy.transfer_time(1_000_000).unwrap().as_secs_f64();
        // 50% loss halves the effective bandwidth -> ~2x serialization.
        assert!(
            (1.8..2.2).contains(&(t_lossy / t_clean)),
            "{t_lossy}/{t_clean}"
        );
    }

    #[test]
    fn loss_is_clamped_below_one() {
        let cfg = LinkConfig::wifi_30mbps().with_loss(5.0);
        assert!(cfg.loss <= 0.99);
        assert!(cfg.effective_bandwidth_bps() > 0.0);
        let cfg = LinkConfig::wifi_30mbps().with_loss(-1.0);
        assert_eq!(cfg.loss, 0.0);
    }

    #[test]
    fn bigger_payloads_take_longer() {
        let cfg = LinkConfig::wifi_30mbps();
        assert!(cfg.transfer_time(2_000_000).unwrap() > cfg.transfer_time(1_000_000).unwrap());
    }

    #[test]
    fn latency_applies_even_to_tiny_messages() {
        let cfg = LinkConfig {
            latency: Duration::from_millis(20),
            ..LinkConfig::mbps(1000.0)
        };
        assert!(cfg.transfer_time(1).unwrap() >= Duration::from_millis(20));
    }

    #[test]
    fn down_link_rejects_transfers() {
        let mut link = Link::new(LinkConfig::wifi_30mbps());
        link.set_down(true);
        assert_eq!(link.schedule(Duration::ZERO, 10), Err(NetError::LinkDown));
        link.set_down(false);
        assert!(link.schedule(Duration::ZERO, 10).is_ok());
    }

    #[test]
    fn accounting_tracks_bytes_and_count() {
        let mut link = Link::new(LinkConfig::wifi_30mbps());
        link.schedule(Duration::ZERO, 100).unwrap();
        link.schedule(Duration::ZERO, 200).unwrap();
        assert_eq!(link.total_bytes(), 300);
        assert_eq!(link.transfer_count(), 2);
    }

    #[test]
    fn traced_links_record_transfers_and_queueing() {
        let tracer = Tracer::new();
        let mut link = Link::new(LinkConfig::mbps(8.0)).with_tracer(tracer.clone(), "uplink");
        link.schedule(Duration::ZERO, 1_000_000).unwrap();
        link.schedule(Duration::ZERO, 1_000_000).unwrap();
        let trace = tracer.finish();
        let transfers: Vec<_> = trace
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Transfer)
            .collect();
        assert_eq!(transfers.len(), 2);
        assert!(transfers.iter().all(|e| e.name == "uplink"));
        assert!(transfers.iter().all(|e| e.bytes == Some(1_000_000)));
        // The second transfer queued behind the first.
        let queues: Vec<_> = trace
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Queue)
            .collect();
        assert_eq!(queues.len(), 1);
        assert_eq!(queues[0].name, "uplink_queue");
        assert_eq!(queues[0].end, transfers[0].end);
    }

    #[test]
    fn zero_bandwidth_is_an_error() {
        let mut link = Link::new(LinkConfig {
            bandwidth_bps: 0.0,
            latency: Duration::ZERO,
            overhead_bytes: 0,
            loss: 0.0,
        });
        assert_eq!(
            link.schedule(Duration::ZERO, 10),
            Err(NetError::ZeroBandwidth)
        );
    }

    #[test]
    fn zero_bandwidth_transfer_time_errors_instead_of_panicking() {
        // Regression: this used to produce an infinite duration and panic
        // inside Duration::from_secs_f64.
        let cfg = LinkConfig {
            bandwidth_bps: 0.0,
            ..LinkConfig::wifi_30mbps()
        };
        assert_eq!(cfg.transfer_time(1_000), Err(NetError::ZeroBandwidth));
        let negative = LinkConfig {
            bandwidth_bps: -5.0,
            ..LinkConfig::wifi_30mbps()
        };
        assert_eq!(negative.transfer_time(1_000), Err(NetError::ZeroBandwidth));
    }

    #[test]
    fn hand_built_loss_is_clamped_at_use_sites() {
        // Regression: a directly-constructed config bypasses with_loss's
        // clamp; effective_bandwidth_bps must clamp anyway so loss >= 1
        // cannot yield a non-positive effective bandwidth.
        let cfg = LinkConfig {
            loss: 1.0,
            ..LinkConfig::wifi_30mbps()
        };
        assert!(cfg.effective_bandwidth_bps() > 0.0);
        assert!(cfg.transfer_time(1_000).is_ok());
        let silly = LinkConfig {
            loss: 17.0,
            ..LinkConfig::wifi_30mbps()
        };
        assert!(silly.effective_bandwidth_bps() > 0.0);
        let mut link = Link::new(silly);
        assert!(link.schedule(Duration::ZERO, 1_000).is_ok());
    }

    fn secs(s: f64) -> Duration {
        Duration::from_secs_f64(s)
    }

    #[test]
    fn planned_outage_refuses_transfers_inside_the_window() {
        let plan = FaultPlan::none().down(secs(1.0), secs(2.0)).unwrap();
        let mut link = Link::new(LinkConfig::mbps(8.0)).with_fault_plan(plan);
        assert_eq!(
            link.schedule(secs(1.5), 1_000),
            Err(NetError::LinkDown),
            "requested mid-outage"
        );
        assert_eq!(link.next_up_after(secs(1.5)), Some(secs(2.0)));
        assert!(link.schedule(secs(2.0), 1_000).is_ok(), "window closed");
    }

    #[test]
    fn outage_mid_transfer_stalls_instead_of_failing() {
        // 1 MB/s link, 2 MB payload requested at t=0 -> ~2 s serialization.
        // An outage at [1, 4) freezes the link for 3 s in the middle.
        let plan = FaultPlan::none().down(secs(1.0), secs(4.0)).unwrap();
        let cfg = LinkConfig::mbps(8.0);
        let clean = Link::new(cfg.clone())
            .schedule(Duration::ZERO, 2_000_000)
            .unwrap();
        let mut link = Link::new(cfg).with_fault_plan(plan);
        let faulty = link.schedule(Duration::ZERO, 2_000_000).unwrap();
        assert!(!faulty.corrupted);
        let extra = faulty.finish - clean.finish;
        assert!(
            (2.99..3.01).contains(&extra.as_secs_f64()),
            "stall should add exactly the 3 s outage, added {extra:?}"
        );
    }

    #[test]
    fn stalls_are_recorded_as_fault_events() {
        let tracer = Tracer::new();
        let plan = FaultPlan::none().down(secs(1.0), secs(4.0)).unwrap();
        let mut link = Link::new(LinkConfig::mbps(8.0))
            .with_fault_plan(plan)
            .with_tracer(tracer.clone(), "uplink");
        link.schedule(Duration::ZERO, 2_000_000).unwrap();
        let trace = tracer.finish();
        let faults: Vec<_> = trace
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Fault)
            .collect();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].name, "uplink_outage");
        assert_eq!(faults[0].start, secs(1.0));
        assert_eq!(faults[0].end, secs(4.0));
    }

    #[test]
    fn degraded_window_stretches_serialization() {
        // Entire transfer inside a 0.5x window -> ~2x serialization time.
        let plan = FaultPlan::none()
            .degraded(Duration::ZERO, secs(100.0), 0.5)
            .unwrap();
        let cfg = LinkConfig::mbps(8.0);
        let clean = Link::new(cfg.clone())
            .schedule(Duration::ZERO, 1_000_000)
            .unwrap();
        let mut link = Link::new(cfg).with_fault_plan(plan);
        let slow = link.schedule(Duration::ZERO, 1_000_000).unwrap();
        let ratio = (slow.finish.as_secs_f64() - 0.005) / (clean.finish.as_secs_f64() - 0.005);
        assert!((1.99..2.01).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn corrupt_window_marks_the_transfer() {
        let plan = FaultPlan::none()
            .corrupt(Duration::ZERO, secs(10.0))
            .unwrap();
        let cfg = LinkConfig::mbps(8.0);
        let clean = Link::new(cfg.clone())
            .schedule(Duration::ZERO, 1_000_000)
            .unwrap();
        let mut link = Link::new(cfg).with_fault_plan(plan);
        let bad = link.schedule(Duration::ZERO, 1_000_000).unwrap();
        assert!(bad.corrupted);
        // Corruption costs no extra time; the payload just arrives broken.
        assert_eq!(bad.finish, clean.finish);
        // Out of the window, transfers are clean again.
        let good = link.schedule(secs(11.0), 1_000_000).unwrap();
        assert!(!good.corrupted);
    }

    #[test]
    fn faulted_schedules_are_deterministic() {
        let plan = FaultPlan::chaos(7, Duration::from_secs(30));
        let run = || {
            let mut link = Link::new(LinkConfig::mbps(8.0)).with_fault_plan(plan.clone());
            let mut outcomes = Vec::new();
            for i in 0..10u64 {
                outcomes.push(link.schedule(secs(i as f64 * 3.0), 500_000));
            }
            outcomes
        };
        assert_eq!(run(), run());
    }
}
