//! Per-path link health: what a client has learned about one server's
//! path from its own traffic.
//!
//! The paper's partitioner consumes "the runtime network status"; a real
//! client learns that status by watching its own transfers. One
//! [`LinkHealth`] record per path keeps an EWMA bandwidth estimate (every
//! completed transfer contributes a throughput sample, recent samples
//! dominate; every fault halves it, down to a floor) and a sliding
//! virtual-time window of success/fault observations, and condenses
//! three signals into a [`LinkPrediction`]:
//!
//! 1. **fault rate** — the fraction of recent attempts that faulted
//!    (retries, give-ups, corrupted payloads);
//! 2. **bandwidth trend** — the current estimate relative to the best
//!    estimate seen inside the window (a shrinking ratio means the path
//!    is collapsing faster than fresh samples can restore it);
//! 3. **staleness** — a path with windowed faults and no success since
//!    the last reset is assumed to stay broken.
//!
//! The prediction is an expected number of *failed attempts* the next
//! transfer will pay before succeeding. The session's plan gate converts
//! that into a virtual-time penalty (backoff sleeps under the active
//! retry policy) and inflates the predicted offload time with it, so the
//! controller proactively picks local execution *before* burning a retry
//! budget against a dying server. Everything is a pure function of the
//! observation stream and virtual time — identical fault schedules yield
//! identical predictions, bit for bit.

use crate::{LinkConfig, Transfer};
use std::collections::VecDeque;
use std::time::Duration;

/// EWMA smoothing factor: the weight of the newest throughput sample.
const ALPHA: f64 = 0.3;

/// Fraction of the current estimate that survives one fault.
const PENALTY_FACTOR: f64 = 0.5;

/// Faults never decay the estimate below this floor (one byte per
/// second). Keeps a penalized-to-death record yielding finite,
/// well-ordered transfer-time predictions instead of drifting into
/// denormals.
const PENALTY_FLOOR_BPS: f64 = 8.0;

/// Sliding-window length for fault-rate and trend tracking.
const WINDOW: Duration = Duration::from_secs(30);

/// Cap on the per-attempt failure probability inferred from the window;
/// keeps the expected-retries formula `p / (1 - p)` finite.
const MAX_FAULT_PROB: f64 = 0.9;

/// Upper bound on predicted failed attempts — beyond this the path is
/// hopeless and more precision buys nothing. Public because the plan
/// gate's failed-attempt penalty (`cumulative_backoff` of the predicted
/// retries) is bounded by exactly this clamp: the two paths must agree
/// on one constant, not duplicate a magic `8`.
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

/// One path's health record: the EWMA bandwidth estimate plus the
/// windowed success/fault history behind [`LinkHealth::predict`]. Fed by
/// the fleet's transfer and fault observations; read by failover
/// selection and the plan gate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkHealth {
    /// Bandwidth estimate in bits/second; `None` before the first
    /// throughput sample since the last reset.
    estimate_bps: Option<f64>,
    /// Time-ordered `(at, what, estimate after the observation)`
    /// records, pruned to the window on every observation.
    events: VecDeque<(Duration, Observation, Option<f64>)>,
    last_success: Option<Duration>,
}

impl LinkHealth {
    /// Forgets all history — estimate, window and success mark —
    /// returning the record to its default state. Called on a server
    /// handoff so estimates never mix throughput observed against
    /// different epochs of a path.
    pub fn reset(&mut self) {
        *self = LinkHealth::default();
    }

    /// Current bandwidth estimate in bits/second, if any transfer has
    /// been observed since the last reset.
    pub fn estimate_bps(&self) -> Option<f64> {
        self.estimate_bps
    }

    /// Builds a [`LinkConfig`] from the estimate for feeding a planner.
    /// Returns `None` before any sample.
    ///
    /// Only the bandwidth is estimated; latency, loss and per-transfer
    /// overhead are inherited from `template` — the configured link the
    /// observations were made against. (Fabricating `loss: 0` /
    /// `overhead_bytes: 0` here made every estimate-fed plan optimistic
    /// on lossy or overhead-heavy paths.)
    pub fn as_link_config(&self, template: &LinkConfig) -> Option<LinkConfig> {
        self.estimate_bps.map(|bps| LinkConfig {
            bandwidth_bps: bps,
            ..template.clone()
        })
    }

    /// Records `what` at virtual time `at` with the estimate it left
    /// behind, and drops events that fell out of the window ending there.
    fn push(&mut self, at: Duration, what: Observation) {
        self.events.push_back((at, what, self.estimate_bps));
        let cutoff = at.saturating_sub(WINDOW);
        while self.events.front().is_some_and(|(t, _, _)| *t < cutoff) {
            self.events.pop_front();
        }
    }

    /// Records a completed transfer as a windowed success at its finish
    /// time. Its payload over its elapsed time is one throughput sample;
    /// zero-byte or zero-duration transfers carry no throughput
    /// information and leave the estimate alone.
    pub fn observe_transfer(&mut self, transfer: &Transfer) {
        let elapsed = transfer.elapsed();
        if transfer.bytes > 0 && !elapsed.is_zero() {
            let sample = transfer.bytes as f64 * 8.0 / elapsed.as_secs_f64();
            self.estimate_bps = Some(match self.estimate_bps {
                Some(prev) => prev + ALPHA * (sample - prev),
                None => sample,
            });
        }
        self.last_success = Some(transfer.finish);
        self.push(transfer.finish, Observation::Success);
    }

    /// Records `count` fault observations at virtual time `at`. A refused
    /// or repeatedly-retried transfer carries real information about the
    /// path even though no bytes got through: each fault halves the
    /// estimate (down to [`PENALTY_FLOOR_BPS`], so an arbitrarily
    /// penalized record still yields finite, monotone transfer-time
    /// predictions) and lands in the window. Before the first sample
    /// there is no estimate to decay, and inventing one would poison the
    /// first real observation.
    pub fn observe_faults(&mut self, count: usize, at: Duration) {
        for _ in 0..count {
            self.estimate_bps = self.estimate_bps.map(|prev| {
                if prev <= PENALTY_FLOOR_BPS {
                    prev
                } else {
                    (prev * PENALTY_FACTOR).max(PENALTY_FLOOR_BPS)
                }
            });
            self.push(at, Observation::Fault);
        }
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
        let bandwidth_trend = match (self.estimate_bps, peak_estimate) {
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
            // The path has not delivered a byte since the last reset;
            // assume it stays dead.
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

    /// `bytes` delivered over the `elapsed` ending at `finish`.
    fn transfer(finish: Duration, bytes: u64, elapsed: Duration) -> Transfer {
        Transfer {
            start: finish - elapsed,
            finish,
            bytes,
            corrupted: false,
        }
    }

    fn success(h: &mut LinkHealth, at: Duration) {
        // ~8 Mbps sample.
        h.observe_transfer(&transfer(at, 1_000_000, secs(1)));
    }

    #[test]
    fn first_sample_sets_the_estimate() {
        let mut h = LinkHealth::default();
        assert_eq!(h.estimate_bps(), None);
        success(&mut h, secs(1));
        assert_eq!(h.estimate_bps(), Some(8.0e6));
    }

    #[test]
    fn converges_toward_a_stable_rate() {
        let mut h = LinkHealth::default();
        for t in 1..=50 {
            h.observe_transfer(&transfer(secs(t), 3_750_000, secs(1))); // 30 Mbps
        }
        let est = h.estimate_bps().unwrap();
        assert!((est - 30.0e6).abs() / 30.0e6 < 0.01, "est {est}");
    }

    #[test]
    fn reacts_to_degradation() {
        let mut h = LinkHealth::default();
        for t in 1..=10 {
            h.observe_transfer(&transfer(secs(t), 3_750_000, secs(1))); // 30 Mbps
        }
        for t in 11..=20 {
            h.observe_transfer(&transfer(secs(t), 125_000, secs(1))); // 1 Mbps
        }
        // 1 Mbps plus 0.7^10 of the 29 Mbps gap: the estimate tracks the
        // collapse. The bits are the smoothing constant's signature.
        let est = h.estimate_bps().unwrap();
        assert_eq!(est.to_bits(), 0x413b_c22a_38db_8bad, "est {est}");
        assert!(est < 2.0e6, "should track the collapse, est {est}");
    }

    #[test]
    fn ignores_information_free_samples() {
        let mut h = LinkHealth::default();
        h.observe_transfer(&transfer(secs(1), 0, secs(1)));
        h.observe_transfer(&transfer(secs(2), 100, Duration::ZERO));
        assert_eq!(h.estimate_bps(), None);
        // They still delivered: the window counts two successes.
        let p = h.predict(secs(2));
        assert!(p.healthy());
        assert_eq!(p.time_since_success, Some(Duration::ZERO));
    }

    #[test]
    fn link_config_roundtrip() {
        // A lossy, overhead-heavy template: the estimate replaces only
        // the bandwidth, everything else is inherited verbatim.
        let template = LinkConfig {
            bandwidth_bps: 100.0e6,
            latency: Duration::from_millis(5),
            overhead_bytes: 512,
            loss: 0.2,
        };
        let mut h = LinkHealth::default();
        assert!(h.as_link_config(&template).is_none());
        h.observe_transfer(&transfer(secs(1), 3_750_000, secs(1)));
        let cfg = h.as_link_config(&template).unwrap();
        assert!((cfg.bandwidth_bps - 30.0e6).abs() < 1.0);
        assert_eq!(cfg.latency, template.latency);
        assert_eq!(cfg.overhead_bytes, template.overhead_bytes);
        assert_eq!(cfg.loss, template.loss);
        // The config is usable for transfer-time prediction, and the
        // inherited loss makes it slower than a fabricated lossless one.
        let lossy = cfg.transfer_time(3_750_000).unwrap();
        assert!(lossy.as_secs_f64() > 0.9);
        let lossless = LinkConfig { loss: 0.0, ..cfg }
            .transfer_time(3_750_000)
            .unwrap();
        assert!(lossy > lossless, "loss must survive the round-trip");
    }

    #[test]
    fn penalties_halve_the_estimate() {
        let mut h = LinkHealth::default();
        // Before any sample a fault leaves the estimate alone.
        h.observe_faults(1, secs(1));
        assert_eq!(h.estimate_bps(), None);
        success(&mut h, secs(2)); // 8 Mbps
        h.observe_faults(1, secs(2));
        assert_eq!(h.estimate_bps(), Some(4.0e6));
        h.observe_faults(1, secs(2));
        assert_eq!(h.estimate_bps(), Some(2.0e6));
    }

    #[test]
    fn penalties_decay_to_a_floor_not_to_zero() {
        let mut h = LinkHealth::default();
        h.observe_transfer(&transfer(secs(1), 3_750_000, secs(1))); // 30 Mbps
        h.observe_faults(500, secs(2));
        assert_eq!(h.estimate_bps(), Some(PENALTY_FLOOR_BPS));
        // The floored estimate still yields a finite link config.
        let cfg = h.as_link_config(&LinkConfig::wifi_30mbps()).unwrap();
        assert!(cfg.transfer_time(1024).is_ok());
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
        assert!(h.estimate_bps().is_some());
    }

    #[test]
    fn any_windowed_fault_predicts_at_least_one_retry() {
        let mut h = LinkHealth::default();
        for t in 1..=5 {
            success(&mut h, secs(t));
        }
        h.observe_faults(1, secs(6));
        let p = h.predict(secs(6));
        assert!(!p.healthy());
        assert!(p.predicted_retries >= 1);
        assert!((p.fault_rate - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn rising_fault_rate_raises_the_prediction() {
        let mut h = LinkHealth::default();
        success(&mut h, secs(1));
        h.observe_faults(1, secs(2));
        let one = h.predict(secs(2)).predicted_retries;
        h.observe_faults(6, secs(3));
        let many = h.predict(secs(3)).predicted_retries;
        assert!(many > one, "{many} vs {one}");
        assert!(many <= MAX_PREDICTED_RETRIES);
    }

    #[test]
    fn a_path_that_never_succeeded_is_assumed_dead() {
        let mut h = LinkHealth::default();
        h.observe_faults(1, secs(1));
        let p = h.predict(secs(1));
        // A fault before any sample leaves the estimate alone, but the
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
        assert_eq!(h, LinkHealth::default());
        assert_eq!(h.estimate_bps(), None);
        assert_eq!(h.predict(secs(3)).time_since_success, None);
        assert!(h.predict(secs(3)).healthy());
    }

    #[test]
    fn reset_forgets_everything() {
        let mut h = LinkHealth::default();
        for t in 1..=5 {
            h.observe_transfer(&transfer(secs(t), 3_750_000, secs(1)));
        }
        h.observe_faults(1, secs(6));
        assert!(h.estimate_bps().is_some());
        h.reset();
        assert_eq!(h.estimate_bps(), None);
        // Still usable after the reset — and the first post-reset sample
        // sets the estimate outright, untainted by pre-reset history.
        success(&mut h, secs(7));
        assert_eq!(h.estimate_bps(), Some(8.0e6));
    }

    #[test]
    fn predictions_are_deterministic() {
        let build = || {
            let mut h = LinkHealth::default();
            success(&mut h, secs(1));
            h.observe_faults(1, secs(2));
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
        assert_eq!(h.predict(secs(2)).time_since_success, Some(Duration::ZERO));
        assert_eq!(h.estimate_bps(), Some(8.0e6));
    }
}
