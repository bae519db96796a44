//! Proactive link-health prediction.
//!
//! The fleet layer already *reacts* to faults: retries penalize a
//! server's bandwidth estimate and exhaustion triggers a handoff. This
//! module adds the *predictive* half (ROADMAP: "Estimator-driven fault
//! prediction"): a [`LinkHealth`] record layers a sliding virtual-time
//! window of success/fault observations on top of the
//! [`BandwidthEstimator`] and condenses three signals into a
//! [`LinkPrediction`]:
//!
//! 1. **fault rate** — the fraction of recent attempts that faulted
//!    (retries, give-ups, corrupted payloads);
//! 2. **bandwidth trend** — the current estimate relative to the best
//!    estimate seen inside the window (a shrinking ratio means the path
//!    is collapsing faster than fresh samples can restore it);
//! 3. **time since last success** — a path that has only ever faulted is
//!    assumed to stay broken.
//!
//! The prediction is an expected number of *failed attempts* the next
//! transfer will pay before succeeding. The adaptive offloader converts
//! that into a virtual-time penalty (backoff sleeps under the active
//! retry policy) and inflates the predicted offload time with it, so the
//! controller proactively picks local execution *before* burning a retry
//! budget against a dying server. Everything is a pure function of the
//! observation stream and virtual time — identical fault schedules yield
//! identical predictions, bit for bit.

use crate::estimator::BandwidthEstimator;
use crate::Transfer;
use std::collections::VecDeque;
use std::time::Duration;

/// Sliding-window length for fault-rate and trend tracking.
const WINDOW: Duration = Duration::from_secs(30);

/// Cap on the per-attempt failure probability inferred from the window;
/// keeps the expected-retries formula `p / (1 - p)` finite.
const MAX_FAULT_PROB: f64 = 0.9;

/// Upper bound on predicted failed attempts — beyond this the path is
/// hopeless and more precision buys nothing. Public because the adaptive
/// offloader's failed-attempt penalty (`cumulative_backoff` of the
/// predicted retries) is bounded by exactly this clamp: the two paths
/// must agree on one constant, not duplicate a magic `8`.
pub const MAX_PREDICTED_RETRIES: u32 = 8;

/// A bandwidth trend below this ratio counts as "shrinking": the
/// estimate lost more than half its in-window peak and fresh samples are
/// not restoring it.
const SHRINKING_TREND: f64 = 0.5;

/// What one observed attempt against the link did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Observation {
    /// A transfer completed (payload delivered uncorrupted).
    Success,
    /// A fault was charged: a retried attempt, a corrupted payload, or a
    /// give-up.
    Fault,
}

/// Condensed health signals for one link, plus the headline number the
/// planner consumes: the expected count of failed attempts the next
/// transfer pays before it succeeds.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkPrediction {
    /// Fraction of windowed attempts that faulted, in `[0, 1]`.
    pub fault_rate: f64,
    /// Current bandwidth estimate over the best in-window estimate;
    /// `1.0` when there is not enough history to compare. Below
    /// [`SHRINKING_TREND`] the path counts as collapsing.
    pub bandwidth_trend: f64,
    /// Virtual time since the last successful transfer, `None` before
    /// any success.
    pub time_since_success: Option<Duration>,
    /// Expected failed attempts (each costing a backoff sleep under the
    /// active retry policy) before the next transfer succeeds. Zero
    /// means the link looks healthy.
    pub predicted_retries: u32,
}

impl LinkPrediction {
    /// `true` when the predictor expects the next transfer to succeed on
    /// its first attempt.
    pub fn healthy(&self) -> bool {
        self.predicted_retries == 0
    }
}

/// Windowed fault-rate and bandwidth-trend tracker for one server's
/// path, layered on a [`BandwidthEstimator`]. Fed by the same
/// observation stream that feeds the fleet's health records; consumed by
/// the adaptive offloader's predictive decision.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkHealth {
    estimator: BandwidthEstimator,
    /// Time-ordered `(at, what, estimate after the observation)`
    /// records, pruned to the window on every observation.
    events: VecDeque<(Duration, Observation, Option<f64>)>,
    last_success: Option<Duration>,
}

impl Default for LinkHealth {
    fn default() -> Self {
        LinkHealth::new(BandwidthEstimator::default())
    }
}

impl LinkHealth {
    /// Builds a tracker over `estimator`.
    pub fn new(estimator: BandwidthEstimator) -> LinkHealth {
        LinkHealth {
            estimator,
            events: VecDeque::new(),
            last_success: None,
        }
    }

    /// The underlying bandwidth estimator (fed by this tracker's
    /// success observations, penalized by its fault observations).
    pub fn estimator(&self) -> &BandwidthEstimator {
        &self.estimator
    }

    /// Forgets all history — estimator, window and success mark —
    /// returning the tracker to its freshly-built state.
    pub fn reset(&mut self) {
        self.estimator.reset();
        self.events.clear();
        self.last_success = None;
    }

    /// Virtual time of the most recent successful transfer, if any.
    pub fn last_success(&self) -> Option<Duration> {
        self.last_success
    }

    /// Drops events that fell out of the window ending at `now`.
    fn prune(&mut self, now: Duration) {
        let cutoff = now.saturating_sub(WINDOW);
        while let Some((at, _, _)) = self.events.front() {
            if *at < cutoff {
                self.events.pop_front();
            } else {
                break;
            }
        }
    }

    /// Records a successful transfer of `bytes` over `elapsed`,
    /// completing at virtual time `at`: feeds the estimator one
    /// throughput sample and marks a windowed success.
    pub fn observe_success(&mut self, at: Duration, bytes: u64, elapsed: Duration) {
        self.estimator.observe(bytes, elapsed);
        self.last_success = Some(at);
        self.events
            .push_back((at, Observation::Success, self.estimator.estimate_bps()));
        self.prune(at);
    }

    /// Convenience: observes a completed [`Transfer`] record (success at
    /// its finish time).
    pub fn observe_transfer(&mut self, transfer: &Transfer) {
        self.observe_success(transfer.finish, transfer.bytes, transfer.elapsed());
    }

    /// Records one fault observation at virtual time `at`: penalizes the
    /// bandwidth estimate and marks a windowed fault.
    fn observe_fault(&mut self, at: Duration) {
        self.estimator.penalize();
        self.events
            .push_back((at, Observation::Fault, self.estimator.estimate_bps()));
        self.prune(at);
    }

    /// Records `count` fault observations at virtual time `at`.
    pub fn observe_faults(&mut self, count: usize, at: Duration) {
        for _ in 0..count {
            self.observe_fault(at);
        }
    }

    /// Fraction of attempts inside the window ending at `now` that
    /// faulted. Zero with no windowed history.
    pub fn fault_rate(&self, now: Duration) -> f64 {
        self.predict(now).fault_rate
    }

    /// Condenses the windowed history into a [`LinkPrediction`] as of
    /// virtual time `now`. Pure: identical observation streams and
    /// identical `now` yield identical predictions.
    pub fn predict(&self, now: Duration) -> LinkPrediction {
        let cutoff = now.saturating_sub(WINDOW);
        let mut successes = 0usize;
        let mut faults = 0usize;
        let mut peak_estimate: Option<f64> = None;
        for (at, what, estimate) in &self.events {
            if *at < cutoff {
                continue;
            }
            match what {
                Observation::Success => successes += 1,
                Observation::Fault => faults += 1,
            }
            if let Some(est) = estimate {
                peak_estimate = Some(match peak_estimate {
                    Some(peak) if peak >= *est => peak,
                    _ => *est,
                });
            }
        }
        let total = successes + faults;
        let fault_rate = if total == 0 {
            0.0
        } else {
            faults as f64 / total as f64
        };
        let bandwidth_trend = match (self.estimator.estimate_bps(), peak_estimate) {
            (Some(current), Some(peak)) if peak > 0.0 => current / peak,
            _ => 1.0,
        };
        let time_since_success = self.last_success.map(|at| now.saturating_sub(at));

        // Expected failed attempts before one success when each attempt
        // fails independently with probability p is p / (1 - p). The
        // ceiling makes any windowed fault predict at least one retry —
        // a deliberate bias: one backoff sleep of penalty is cheap, a
        // surprise retry burst mid-migration is not.
        let p = fault_rate.min(MAX_FAULT_PROB);
        let mut expected = p / (1.0 - p);
        if bandwidth_trend < SHRINKING_TREND {
            expected += 1.0;
        }
        if self.last_success.is_none() && faults > 0 {
            // The path has never delivered a byte; assume it stays dead.
            expected += 1.0;
        }
        let predicted_retries = (expected.ceil() as u32).min(MAX_PREDICTED_RETRIES);
        LinkPrediction {
            fault_rate,
            bandwidth_trend,
            time_since_success,
            predicted_retries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    fn success(h: &mut LinkHealth, at: Duration) {
        // ~8 Mbps sample.
        h.observe_success(at, 1_000_000, Duration::from_secs(1));
    }

    #[test]
    fn a_fresh_tracker_predicts_health() {
        let h = LinkHealth::default();
        let p = h.predict(secs(10));
        assert!(p.healthy());
        assert_eq!(p.fault_rate, 0.0);
        assert_eq!(p.bandwidth_trend, 1.0);
        assert_eq!(p.time_since_success, None);
    }

    #[test]
    fn successes_keep_the_prediction_healthy() {
        let mut h = LinkHealth::default();
        for t in 1..=5 {
            success(&mut h, secs(t));
        }
        let p = h.predict(secs(6));
        assert!(p.healthy());
        assert_eq!(p.fault_rate, 0.0);
        assert_eq!(p.time_since_success, Some(secs(1)));
        assert!(h.estimator().estimate_bps().is_some());
    }

    #[test]
    fn any_windowed_fault_predicts_at_least_one_retry() {
        let mut h = LinkHealth::default();
        for t in 1..=5 {
            success(&mut h, secs(t));
        }
        h.observe_fault(secs(6));
        let p = h.predict(secs(6));
        assert!(!p.healthy());
        assert!(p.predicted_retries >= 1);
        assert!((p.fault_rate - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn rising_fault_rate_raises_the_prediction() {
        let mut h = LinkHealth::default();
        success(&mut h, secs(1));
        h.observe_fault(secs(2));
        let one = h.predict(secs(2)).predicted_retries;
        h.observe_faults(6, secs(3));
        let many = h.predict(secs(3)).predicted_retries;
        assert!(many > one, "{many} vs {one}");
        assert!(many <= MAX_PREDICTED_RETRIES);
    }

    #[test]
    fn a_path_that_never_succeeded_is_assumed_dead() {
        let mut h = LinkHealth::default();
        h.observe_fault(secs(1));
        let p = h.predict(secs(1));
        // Penalize before any sample is a no-op on the estimator, but the
        // windowed fault plus the no-success rule still predict trouble.
        assert!(p.predicted_retries >= 2);
        assert_eq!(p.time_since_success, None);
    }

    #[test]
    fn shrinking_bandwidth_counts_as_a_signal() {
        let mut h = LinkHealth::default();
        success(&mut h, secs(1));
        // Faults halve the estimate; trend = current / in-window peak.
        h.observe_faults(3, secs(2));
        let p = h.predict(secs(2));
        assert!(p.bandwidth_trend < SHRINKING_TREND, "{}", p.bandwidth_trend);
        assert!(p.predicted_retries >= 2);
    }

    #[test]
    fn old_events_age_out_of_the_window() {
        let mut h = LinkHealth::default();
        success(&mut h, secs(1));
        h.observe_faults(4, secs(2));
        assert!(!h.predict(secs(3)).healthy());
        // A fresh success far in the future pushes the faults (and the
        // old estimate snapshots) out of the window.
        success(&mut h, secs(100));
        let p = h.predict(secs(100));
        assert_eq!(p.fault_rate, 0.0);
        assert!(p.healthy());
    }

    #[test]
    fn reset_forgets_the_whole_history() {
        let mut h = LinkHealth::default();
        success(&mut h, secs(1));
        h.observe_faults(5, secs(2));
        h.reset();
        assert_eq!(h.estimator().estimate_bps(), None);
        assert_eq!(h.last_success(), None);
        assert!(h.predict(secs(3)).healthy());
    }

    #[test]
    fn predictions_are_deterministic() {
        let build = || {
            let mut h = LinkHealth::default();
            success(&mut h, secs(1));
            h.observe_fault(secs(2));
            success(&mut h, secs(3));
            h.observe_faults(2, secs(4));
            h
        };
        assert_eq!(build().predict(secs(5)), build().predict(secs(5)));
        assert_eq!(build(), build());
    }

    #[test]
    fn transfer_observation_uses_the_finish_time() {
        let mut h = LinkHealth::default();
        h.observe_transfer(&Transfer {
            start: secs(1),
            finish: secs(2),
            bytes: 1_000_000,
            corrupted: false,
        });
        assert_eq!(h.last_success(), Some(secs(2)));
        assert_eq!(h.estimator().estimate_bps(), Some(8.0e6));
    }
}
