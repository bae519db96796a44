//! Runtime offloading decisions.
//!
//! The paper decides partition points from two factors: predicted layer
//! times and *"the runtime network status"* (Section III-B.2), and notes
//! that before the model upload finishes *"it would be better for the
//! client to execute the DNN locally"* (Section IV-A). This module turns
//! those remarks into a controller: given the current link estimate and
//! whether the pre-send has been ACKed, pick local execution, full
//! offloading, or a partial cut — whichever minimizes predicted inference
//! time (optionally under the privacy constraint).

use crate::device::DeviceProfile;
use crate::partition::PartitionOptimizer;
use crate::OffloadError;
use snapedge_dnn::{Network, NetworkProfile};
use snapedge_net::LinkConfig;
use std::time::Duration;

/// What the controller chose for one inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Run the whole DNN on the client.
    Local,
    /// Offload everything (snapshot carries the encoded input only).
    FullOffload,
    /// Offload at the named cut.
    Partial {
        /// Cut-point label.
        cut: String,
    },
}

impl Decision {
    /// Short stable label for traces and CLI columns: `local`, `full`,
    /// or `partial:<cut>`.
    pub fn label(&self) -> String {
        match self {
            Decision::Local => "local".to_string(),
            Decision::FullOffload => "full".to_string(),
            Decision::Partial { cut } => format!("partial:{cut}"),
        }
    }
}

/// A decision plus its predicted cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The chosen execution mode.
    pub decision: Decision,
    /// Predicted end-to-end inference time.
    pub predicted: Duration,
    /// Predicted time of the best offload, penalty included, whether or
    /// not it beat local execution.
    pub offload: Duration,
    /// Predicted time of pure local execution (the baseline the decision
    /// beat or fell back to).
    pub local_time: Duration,
    /// What the caller added to the offload side of the comparison
    /// (expected backoff sleeps, compute and queueing priors). Zero for
    /// [`AdaptiveOffloader::decide`].
    pub penalty: Duration,
}

/// Policy knobs for [`AdaptiveOffloader`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdaptivePolicy {
    /// Require at least one front layer (denature the input) whenever the
    /// controller chooses to offload.
    pub require_privacy: bool,
}

/// Per-inference offloading controller.
#[derive(Debug, Clone)]
pub struct AdaptiveOffloader {
    net: Network,
    profile: NetworkProfile,
    client: DeviceProfile,
    server: DeviceProfile,
    policy: AdaptivePolicy,
    model_bytes: u64,
}

impl AdaptiveOffloader {
    /// Builds a controller for `net`.
    pub fn new(
        net: Network,
        client: DeviceProfile,
        server: DeviceProfile,
        model_bytes: u64,
        policy: AdaptivePolicy,
    ) -> AdaptiveOffloader {
        let profile = net.profile();
        AdaptiveOffloader {
            net,
            profile,
            client,
            server,
            policy,
            model_bytes,
        }
    }

    /// Predicted pure-local inference time.
    pub fn local_time(&self) -> Duration {
        self.client.full_exec_time(&self.profile)
    }

    /// Chooses the execution mode for the next inference under the given
    /// link estimate. `model_ready` says whether the pre-send ACK has
    /// arrived; when it has not, offloading pays for the (remaining) model
    /// upload on the same link, exactly the before-ACK penalty.
    ///
    /// # Errors
    ///
    /// Propagates optimizer failures (cannot occur for zoo networks).
    pub fn decide(&self, link: &LinkConfig, model_ready: bool) -> Result<Plan, OffloadError> {
        self.plan_with(link, model_ready, 0, Duration::ZERO)
    }

    /// The one planner: [`AdaptiveOffloader::decide`] with the two inputs
    /// the session's `plan` gate adds. Only the model bytes *not yet
    /// acknowledged* (`model_bytes - model_bytes_acked`) queue ahead of
    /// the snapshot, and `penalty` — expected backoff sleeps, compute and
    /// queueing priors — joins the offload side of the comparison, so a
    /// degrading link or a saturated server tips the plan toward Local
    /// *before* any retry budget burns.
    ///
    /// # Errors
    ///
    /// Propagates optimizer failures (cannot occur for zoo networks).
    pub(crate) fn plan_with(
        &self,
        link: &LinkConfig,
        model_ready: bool,
        model_bytes_acked: u64,
        penalty: Duration,
    ) -> Result<Plan, OffloadError> {
        let local_time = self.local_time();
        let optimizer = PartitionOptimizer::new(
            &self.net,
            self.client.clone(),
            self.server.clone(),
            link.clone(),
        );
        let best = optimizer.best(self.policy.require_privacy)?;
        let mut offload_time = best.times.total();
        if !model_ready {
            // The snapshot queues behind the (remaining) model upload.
            let remaining = self.model_bytes.saturating_sub(model_bytes_acked);
            offload_time += link.transfer_time(remaining)?;
        }
        let offload = offload_time.saturating_add(penalty);
        let decision = if offload >= local_time {
            Decision::Local
        } else if best.cut.id.index() == 0 {
            Decision::FullOffload
        } else {
            Decision::Partial {
                cut: best.cut.label.clone(),
            }
        };
        Ok(Plan {
            decision,
            predicted: offload.min(local_time),
            offload,
            local_time,
            penalty,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{edge_server_x86, odroid_xu4};
    use snapedge_dnn::{zoo, ModelBundle};

    fn offloader(model: &str, privacy: bool) -> AdaptiveOffloader {
        let net = zoo::by_name(model).unwrap();
        let model_bytes = ModelBundle::from_network(&net).total_bytes();
        AdaptiveOffloader::new(
            net,
            odroid_xu4(),
            edge_server_x86(),
            model_bytes,
            AdaptivePolicy {
                require_privacy: privacy,
            },
        )
    }

    #[test]
    fn fast_link_and_ready_model_choose_full_offload() {
        let plan = offloader("googlenet", false)
            .decide(&LinkConfig::wifi_30mbps(), true)
            .unwrap();
        assert_eq!(plan.decision, Decision::FullOffload);
        assert!(plan.predicted < plan.local_time);
    }

    #[test]
    fn privacy_policy_chooses_first_pool() {
        let plan = offloader("googlenet", true)
            .decide(&LinkConfig::wifi_30mbps(), true)
            .unwrap();
        assert_eq!(
            plan.decision,
            Decision::Partial {
                cut: "1st_pool".into()
            }
        );
    }

    #[test]
    fn model_upload_in_flight_makes_agenet_run_locally() {
        // Fig. 6's observation: before the ACK, AgeNet/GenderNet lose to
        // local execution — the controller must pick Local.
        for model in ["agenet", "gendernet"] {
            let plan = offloader(model, false)
                .decide(&LinkConfig::wifi_30mbps(), false)
                .unwrap();
            assert_eq!(plan.decision, Decision::Local, "{model}");
        }
        // GoogLeNet still wins by offloading even before the ACK.
        let plan = offloader("googlenet", false)
            .decide(&LinkConfig::wifi_30mbps(), false)
            .unwrap();
        assert_ne!(plan.decision, Decision::Local);
    }

    #[test]
    fn mostly_uploaded_model_flips_the_decision_back_to_offload() {
        // Regression: the controller used to charge the *full* model size
        // whenever the ACK had not arrived, even when nearly all of the
        // pre-send had already landed — so a 90%-uploaded AgeNet still
        // "lost" to local execution. Only the remaining bytes queue behind
        // the snapshot; charging just those flips the decision back.
        let net = zoo::by_name("agenet").unwrap();
        let bytes = ModelBundle::from_network(&net).total_bytes();
        let off = offloader("agenet", false);
        let link = LinkConfig::wifi_30mbps();

        // Nothing acknowledged yet: the full charge makes AgeNet lose
        // (Fig. 6's before-ACK observation; `decide` is this exact call).
        let cold = off.plan_with(&link, false, 0, Duration::ZERO).unwrap();
        assert_eq!(cold.decision, Decision::Local);
        assert_eq!(cold, off.decide(&link, false).unwrap());

        // 90% of the pre-send already landed: only the tail still queues,
        // and offloading wins again — strictly cheaper than the cold plan.
        let hot = off
            .plan_with(&link, false, bytes * 9 / 10, Duration::ZERO)
            .unwrap();
        assert_ne!(hot.decision, Decision::Local);
        assert!(hot.predicted < cold.predicted);

        // Fully acknowledged progress converges to the model-ready
        // decision; only the zero-payload handshake (latency + framing)
        // still separates the predicted times.
        let done = off.plan_with(&link, false, bytes, Duration::ZERO).unwrap();
        let ready = off.decide(&link, true).unwrap();
        assert_eq!(done.decision, ready.decision);
        let slack = done.predicted.saturating_sub(ready.predicted);
        assert!(slack < Duration::from_millis(10), "slack {slack:?}");
    }

    #[test]
    fn dead_slow_link_falls_back_to_local() {
        let plan = offloader("agenet", false)
            .decide(&LinkConfig::mbps(0.05), true)
            .unwrap();
        assert_eq!(plan.decision, Decision::Local);
        assert_eq!(plan.predicted, plan.local_time);
    }

    #[test]
    fn lossy_links_degrade_toward_local() {
        let off = offloader("agenet", false);
        let clean = off.decide(&LinkConfig::mbps(2.0), true).unwrap();
        let lossy = off
            .decide(&LinkConfig::mbps(2.0).with_loss(0.9), true)
            .unwrap();
        assert!(lossy.predicted >= clean.predicted);
    }

    #[test]
    fn retry_penalty_is_bounded_by_the_health_clamp() {
        use crate::resilience::RetryPolicy;
        use snapedge_net::{BandwidthEstimator, LinkHealth, LinkPrediction, MAX_PREDICTED_RETRIES};
        // Drive a link-health record into the ground: every windowed
        // attempt faults, so the raw retry expectation explodes — and the
        // clamp, not the raw expectation, must bound what the planner
        // charges. The cap used to live as a magic `8` in `health.rs`
        // only; this pins the two paths to the one named constant.
        let mut health = LinkHealth::new(BandwidthEstimator::default());
        health.observe_faults(64, Duration::from_secs(1));
        let prediction = health.predict(Duration::from_secs(1));
        assert_eq!(prediction.predicted_retries, MAX_PREDICTED_RETRIES);

        let policy = RetryPolicy::default();
        let charged = |p: &LinkPrediction| policy.cumulative_backoff(p.predicted_retries);
        let plan = offloader("agenet", false)
            .plan_with(&LinkConfig::wifi_30mbps(), true, 0, charged(&prediction))
            .unwrap();
        assert_eq!(
            plan.penalty,
            policy.cumulative_backoff(MAX_PREDICTED_RETRIES)
        );
        // A wilder prediction cannot charge more than the clamp allows.
        let wild = LinkPrediction {
            predicted_retries: MAX_PREDICTED_RETRIES,
            ..prediction
        };
        let capped = offloader("agenet", false)
            .plan_with(&LinkConfig::wifi_30mbps(), true, 0, charged(&wild))
            .unwrap();
        assert_eq!(capped.penalty, plan.penalty);
    }

    #[test]
    fn predicted_time_never_exceeds_local() {
        // The controller can always fall back; its plan is never worse
        // than local execution.
        let off = offloader("googlenet", true);
        for mbps in [0.1, 1.0, 5.0, 30.0, 200.0] {
            for ready in [false, true] {
                let plan = off.decide(&LinkConfig::mbps(mbps), ready).unwrap();
                assert!(
                    plan.predicted <= plan.local_time,
                    "mbps {mbps} ready {ready}"
                );
            }
        }
    }
}
