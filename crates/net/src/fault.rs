//! Deterministic fault injection on virtual time.
//!
//! A [`FaultPlan`] is a schedule of windows during which a link is down,
//! degraded, or corrupting payloads. Because windows are expressed in
//! *virtual* time and consulted against the shared [`SimClock`](crate::SimClock)
//! timeline, every outage is bit-for-bit reproducible: the same plan (or
//! the same [`FaultPlan::chaos`] seed) always produces the same failures
//! at the same instants, which is what lets the chaos suite assert exact
//! recovery timings.

use crate::link::NetError;
use snapedge_rng::Rng;
use std::time::Duration;

/// What a fault window does to the link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The link is unreachable: new transfers are refused
    /// ([`NetError::LinkDown`]) and a transfer already in flight stalls
    /// until the window closes.
    Down,
    /// Serialization proceeds at `bandwidth_factor` × the configured rate
    /// (propagation latency is unchanged).
    Degraded {
        /// Multiplier in `(0, 1]` applied to the effective bandwidth.
        bandwidth_factor: f64,
    },
    /// Payloads whose serialization overlaps the window arrive corrupted:
    /// the transfer occupies the link for its full duration but the
    /// receiver must discard it and ask for a retransmit.
    Corrupt,
}

/// One scheduled fault: a half-open window `[start, end)` of virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// When the fault begins.
    pub start: Duration,
    /// When the link recovers (exclusive).
    pub end: Duration,
    /// The failure mode inside the window.
    pub kind: FaultKind,
}

/// The link's condition at one instant, as dictated by the plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkState {
    /// No fault window covers this instant.
    Up,
    /// Inside a [`FaultKind::Down`] window.
    Down,
    /// Inside a [`FaultKind::Degraded`] window (carries the factor).
    Degraded(f64),
    /// Inside a [`FaultKind::Corrupt`] window.
    Corrupting,
}

/// A deterministic schedule of link faults. Windows are kept sorted and
/// non-overlapping; an empty plan means the link is always healthy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// A plan with no faults (the default).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// `true` when no fault windows are scheduled.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The scheduled windows, sorted by start time.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Adds a window, builder style; errors as [`FaultPlan::down`].
    fn with_window(mut self, window: FaultWindow) -> Result<FaultPlan, NetError> {
        if window.end <= window.start {
            return Err(NetError::BadFaultPlan(format!(
                "window {:?}..{:?} is empty or backwards",
                window.start, window.end
            )));
        }
        if let FaultKind::Degraded { bandwidth_factor } = window.kind {
            if !(bandwidth_factor > 0.0 && bandwidth_factor <= 1.0) {
                return Err(NetError::BadFaultPlan(format!(
                    "degradation factor {bandwidth_factor} outside (0, 1]"
                )));
            }
        }
        if self
            .windows
            .iter()
            .any(|w| window.start < w.end && w.start < window.end)
        {
            return Err(NetError::BadFaultPlan(format!(
                "window {:?}..{:?} overlaps an existing window",
                window.start, window.end
            )));
        }
        self.windows.push(window);
        self.windows.sort_by_key(|w| w.start);
        Ok(self)
    }

    /// Schedules an outage window, builder style.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::BadFaultPlan`] for empty/backwards windows,
    /// degradation factors outside `(0, 1]`, or overlap with an existing
    /// window.
    pub fn down(self, start: Duration, end: Duration) -> Result<FaultPlan, NetError> {
        self.with_window(FaultWindow {
            start,
            end,
            kind: FaultKind::Down,
        })
    }

    /// Schedules a degraded-bandwidth window, builder style.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FaultPlan::down`].
    pub fn degraded(
        self,
        start: Duration,
        end: Duration,
        bandwidth_factor: f64,
    ) -> Result<FaultPlan, NetError> {
        self.with_window(FaultWindow {
            start,
            end,
            kind: FaultKind::Degraded { bandwidth_factor },
        })
    }

    /// Schedules a payload-corruption window, builder style.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FaultPlan::down`].
    pub fn corrupt(self, start: Duration, end: Duration) -> Result<FaultPlan, NetError> {
        self.with_window(FaultWindow {
            start,
            end,
            kind: FaultKind::Corrupt,
        })
    }

    /// The link state dictated by the plan at instant `t`.
    pub fn state_at(&self, t: Duration) -> LinkState {
        for w in &self.windows {
            if w.start <= t && t < w.end {
                return match w.kind {
                    FaultKind::Down => LinkState::Down,
                    FaultKind::Degraded { bandwidth_factor } => {
                        LinkState::Degraded(bandwidth_factor)
                    }
                    FaultKind::Corrupt => LinkState::Corrupting,
                };
            }
        }
        LinkState::Up
    }

    /// The next window edge strictly after `t` (a start or an end), or
    /// `None` when the plan has no further transitions.
    pub fn next_boundary_after(&self, t: Duration) -> Option<Duration> {
        self.windows
            .iter()
            .flat_map(|w| [w.start, w.end])
            .filter(|&edge| edge > t)
            .min()
    }

    /// The earliest instant `>= t` at which the link is not down. Degraded
    /// and corrupting windows count as reachable (transfers complete, just
    /// badly).
    pub fn next_up_after(&self, t: Duration) -> Duration {
        let mut cursor = t;
        while let LinkState::Down = self.state_at(cursor) {
            let Some(w) = self
                .windows
                .iter()
                .find(|w| w.start <= cursor && cursor < w.end)
            else {
                break;
            };
            cursor = w.end;
        }
        cursor
    }

    /// Parses a comma-separated plan spec, e.g.
    /// `down@2..5,degrade@7..9x0.25,corrupt@10..11`. Times are seconds
    /// (floating point); a `degrade` entry carries its bandwidth factor
    /// after `x`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::BadFaultPlan`] for malformed entries or windows
    /// that violate [`FaultPlan::down`]'s rules.
    pub fn parse(spec: &str) -> Result<FaultPlan, NetError> {
        let mut plan = FaultPlan::none();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (kind, window) = entry
                .split_once('@')
                .ok_or_else(|| NetError::BadFaultPlan(format!("entry {entry:?} is missing '@'")))?;
            let bad = |what: &str| NetError::BadFaultPlan(format!("entry {entry:?}: {what}"));
            let parse_secs = |s: &str, what: &str| -> Result<Duration, NetError> {
                let secs: f64 = s.trim().parse().map_err(|_| bad(what))?;
                // Rejects negative, non-finite and unrepresentably long
                // times alike.
                Duration::try_from_secs_f64(secs).map_err(|_| bad(what))
            };
            match kind.trim() {
                "down" | "corrupt" => {
                    let (a, b) = window.split_once("..").ok_or_else(|| bad("missing '..'"))?;
                    let start = parse_secs(a, "bad start time")?;
                    let end = parse_secs(b, "bad end time")?;
                    plan = if kind.trim() == "down" {
                        plan.down(start, end)?
                    } else {
                        plan.corrupt(start, end)?
                    };
                }
                "degrade" => {
                    let (range, factor) = window
                        .rsplit_once('x')
                        .ok_or_else(|| bad("missing 'x<factor>'"))?;
                    let (a, b) = range.split_once("..").ok_or_else(|| bad("missing '..'"))?;
                    let start = parse_secs(a, "bad start time")?;
                    let end = parse_secs(b, "bad end time")?;
                    let factor: f64 = factor.trim().parse().map_err(|_| bad("bad factor"))?;
                    plan = plan.degraded(start, end, factor)?;
                }
                other => {
                    return Err(NetError::BadFaultPlan(format!(
                        "unknown fault kind {other:?} (expected down/degrade/corrupt)"
                    )));
                }
            }
        }
        Ok(plan)
    }

    /// Formats the plan back into the spec syntax accepted by
    /// [`FaultPlan::parse`] (`down@2..5,degrade@7..9x0.25,corrupt@10..11`).
    /// Times are printed as shortest-round-tripping seconds, so
    /// `FaultPlan::parse(&plan.to_spec())` reproduces `plan` exactly; an
    /// empty plan formats as the empty string.
    pub fn to_spec(&self) -> String {
        let secs = |d: Duration| d.as_secs_f64().to_string();
        self.windows
            .iter()
            .map(|w| match w.kind {
                FaultKind::Down => format!("down@{}..{}", secs(w.start), secs(w.end)),
                FaultKind::Degraded { bandwidth_factor } => format!(
                    "degrade@{}..{}x{}",
                    secs(w.start),
                    secs(w.end),
                    bandwidth_factor
                ),
                FaultKind::Corrupt => format!("corrupt@{}..{}", secs(w.start), secs(w.end)),
            })
            .collect::<Vec<_>>()
            .join(",")
    }

    /// A seeded pseudo-random plan over `[0, horizon)` — the chaos-suite
    /// generator. The same seed always yields the same plan; different
    /// seeds scatter 1–3 non-overlapping windows of mixed kinds.
    pub fn chaos(seed: u64, horizon: Duration) -> FaultPlan {
        let mut rng = Rng::seed_from_u64(seed ^ 0xC0A5_7A0B_F417_5EED);
        let mut plan = FaultPlan::none();
        let h = horizon.as_secs_f64();
        let mut cursor = h * rng.gen_range_f64(0.05, 0.25);
        while cursor < h * 0.85 {
            let len = (h * rng.gen_range_f64(0.03, 0.15)).max(1e-4);
            let start = Duration::from_secs_f64(cursor);
            let end = Duration::from_secs_f64((cursor + len).min(h));
            let next = match rng.gen_range_u64(0, 3) {
                0 => plan.clone().down(start, end),
                1 => plan
                    .clone()
                    .degraded(start, end, rng.gen_range_f64(0.1, 0.75)),
                _ => plan.clone().corrupt(start, end),
            };
            if let Ok(p) = next {
                plan = p;
            }
            cursor += len + h * rng.gen_range_f64(0.15, 0.45);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> Duration {
        Duration::from_secs_f64(s)
    }

    #[test]
    fn empty_plan_is_always_up() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.state_at(secs(0.0)), LinkState::Up);
        assert_eq!(plan.state_at(secs(1e6)), LinkState::Up);
        assert_eq!(plan.next_boundary_after(Duration::ZERO), None);
        assert_eq!(plan.next_up_after(secs(3.0)), secs(3.0));
    }

    #[test]
    fn windows_dictate_state() {
        let plan = FaultPlan::none()
            .down(secs(1.0), secs(2.0))
            .unwrap()
            .degraded(secs(3.0), secs(4.0), 0.25)
            .unwrap()
            .corrupt(secs(5.0), secs(6.0))
            .unwrap();
        assert_eq!(plan.state_at(secs(0.5)), LinkState::Up);
        assert_eq!(plan.state_at(secs(1.0)), LinkState::Down);
        assert_eq!(plan.state_at(secs(1.999)), LinkState::Down);
        assert_eq!(plan.state_at(secs(2.0)), LinkState::Up, "end is exclusive");
        assert_eq!(plan.state_at(secs(3.5)), LinkState::Degraded(0.25));
        assert_eq!(plan.state_at(secs(5.5)), LinkState::Corrupting);
    }

    #[test]
    fn invalid_windows_are_rejected() {
        assert!(FaultPlan::none().down(secs(2.0), secs(1.0)).is_err());
        assert!(FaultPlan::none().down(secs(1.0), secs(1.0)).is_err());
        assert!(FaultPlan::none()
            .degraded(secs(0.0), secs(1.0), 0.0)
            .is_err());
        assert!(FaultPlan::none()
            .degraded(secs(0.0), secs(1.0), 1.5)
            .is_err());
        // Overlap.
        let plan = FaultPlan::none().down(secs(1.0), secs(3.0)).unwrap();
        assert!(plan.clone().corrupt(secs(2.0), secs(4.0)).is_err());
        // Touching windows are fine (half-open).
        assert!(plan.corrupt(secs(3.0), secs(4.0)).is_ok());
    }

    #[test]
    fn next_up_skips_consecutive_outages() {
        let plan = FaultPlan::none()
            .down(secs(1.0), secs(2.0))
            .unwrap()
            .down(secs(2.0), secs(3.0))
            .unwrap();
        assert_eq!(plan.next_up_after(secs(1.5)), secs(3.0));
        assert_eq!(plan.next_up_after(secs(0.5)), secs(0.5));
    }

    #[test]
    fn boundaries_are_strictly_after() {
        let plan = FaultPlan::none().down(secs(1.0), secs(2.0)).unwrap();
        assert_eq!(plan.next_boundary_after(Duration::ZERO), Some(secs(1.0)));
        assert_eq!(plan.next_boundary_after(secs(1.0)), Some(secs(2.0)));
        assert_eq!(plan.next_boundary_after(secs(2.0)), None);
    }

    #[test]
    fn parse_roundtrips_the_documented_spec() {
        let plan = FaultPlan::parse("down@2..5, degrade@7..9x0.25 ,corrupt@10..11").unwrap();
        assert_eq!(plan.windows().len(), 3);
        assert_eq!(plan.state_at(secs(3.0)), LinkState::Down);
        assert_eq!(plan.state_at(secs(8.0)), LinkState::Degraded(0.25));
        assert_eq!(plan.state_at(secs(10.5)), LinkState::Corrupting);
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "down",
            "down@1",
            "down@5..2",
            "degrade@1..2",
            "degrade@1..2x0",
            "teleport@1..2",
            "down@x..y",
            "down@-1..2",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn to_spec_roundtrips_through_parse() {
        let plan = FaultPlan::parse("down@2..5,degrade@7..9x0.25,corrupt@10..11").unwrap();
        assert_eq!(plan.to_spec(), "down@2..5,degrade@7..9x0.25,corrupt@10..11");
        assert_eq!(FaultPlan::parse(&plan.to_spec()).unwrap(), plan);
        assert_eq!(FaultPlan::none().to_spec(), "");
        // Chaos plans carry awkward fractional times; the shortest
        // round-tripping float form must still reproduce them exactly.
        for seed in 0..10u64 {
            let plan = FaultPlan::chaos(seed, Duration::from_secs(60));
            assert_eq!(
                FaultPlan::parse(&plan.to_spec()).unwrap(),
                plan,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let horizon = Duration::from_secs(60);
        for seed in [0u64, 1, 2, 42, 0xDEAD] {
            let a = FaultPlan::chaos(seed, horizon);
            let b = FaultPlan::chaos(seed, horizon);
            assert_eq!(a, b, "seed {seed}");
        }
        // Different seeds should (for these seeds) give different plans.
        assert_ne!(FaultPlan::chaos(1, horizon), FaultPlan::chaos(2, horizon));
    }

    #[test]
    fn chaos_windows_stay_inside_the_horizon() {
        let horizon = Duration::from_secs(30);
        for seed in 0..20u64 {
            let plan = FaultPlan::chaos(seed, horizon);
            for w in plan.windows() {
                assert!(w.start < w.end);
                assert!(w.end <= horizon);
            }
        }
    }
}
