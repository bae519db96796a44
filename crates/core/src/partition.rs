//! Partition-point selection (Section III-B.2).
//!
//! "The partitioning point of the front/rear part can be decided
//! dynamically based on two factors. One is the execution time of each DNN
//! layer, estimated by a prediction model for the DNN layers, as used in
//! Neurosurgeon [16]. The other is the runtime network status. We estimate
//! the total execution time for forward execution and select a
//! partitioning point that can minimize the total execution time, while
//! including at least one layer from the front part of the DNN to denature
//! the input data."
//!
//! [`PartitionOptimizer::plan`] is that runtime decision: the best cut
//! against pure local execution on the link as last observed, with the
//! before-ACK model upload (Section IV-A: before it finishes *"it would
//! be better for the client to execute the DNN locally"*) and the plan
//! gate's priors charged to the offload side.

use crate::device::DeviceProfile;
use crate::OffloadError;
use snapedge_dnn::{CutPoint, Network, NetworkProfile};
use snapedge_net::LinkConfig;
use std::time::Duration;

/// Snapshot-text bytes per feature element (JS f64 decimal text).
const BYTES_PER_ELEM: f64 = 19.0;
/// Snapshot bytes independent of feature data (code, DOM, globals).
const BASE_SNAPSHOT_BYTES: u64 = 60_000;
/// Size of the returning result snapshot.
const RESULT_SNAPSHOT_BYTES: u64 = 60_000;

/// What the planner chose for one inference.
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
}

/// Predicted per-phase times for one candidate cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictedTimes {
    /// Front execution on the client.
    pub client_exec: Duration,
    /// Snapshot capture on the client.
    pub capture: Duration,
    /// Snapshot upload (base app state + feature text).
    pub upload: Duration,
    /// Snapshot restore on the server.
    pub restore: Duration,
    /// Rear execution on the server.
    pub server_exec: Duration,
    /// Result snapshot return (capture + download + restore).
    pub result_return: Duration,
}

impl PredictedTimes {
    /// Total predicted inference time.
    pub fn total(&self) -> Duration {
        self.client_exec
            + self.capture
            + self.upload
            + self.restore
            + self.server_exec
            + self.result_return
    }
}

/// A candidate cut with its prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionPrediction {
    /// The cut point.
    pub cut: CutPoint,
    /// Predicted phase times.
    pub times: PredictedTimes,
    /// Estimated text size of the feature data at this cut.
    pub feature_text_bytes: u64,
}

/// The optimizer: evaluates every valid cut of a network against device
/// models and the current link, like Neurosurgeon's runtime partitioner.
#[derive(Debug, Clone)]
pub struct PartitionOptimizer {
    profile: NetworkProfile,
    cuts: Vec<CutPoint>,
    client: DeviceProfile,
    server: DeviceProfile,
    link: LinkConfig,
}

impl PartitionOptimizer {
    /// Builds an optimizer for `net`.
    pub fn new(
        net: &Network,
        client: DeviceProfile,
        server: DeviceProfile,
        link: LinkConfig,
    ) -> PartitionOptimizer {
        PartitionOptimizer {
            profile: net.profile(),
            cuts: net.cut_points(),
            client,
            server,
            link,
        }
    }

    /// Estimated feature text size at a cut. The input cut's "feature" is
    /// the encoded input itself, already inside the base snapshot.
    pub fn feature_text_bytes(&self, cut: &CutPoint) -> u64 {
        if cut.id.index() == 0 {
            0
        } else {
            (cut.feature_elems as f64 * BYTES_PER_ELEM) as u64
        }
    }

    /// Predicts the end-to-end inference time when offloading at `cut`.
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError::Net`] when the link has no usable bandwidth
    /// — no transfer time can be predicted over a dead link.
    pub fn predict(&self, cut: &CutPoint) -> Result<PartitionPrediction, OffloadError> {
        let feature_bytes = self.feature_text_bytes(cut);
        let snapshot_bytes = BASE_SNAPSHOT_BYTES + feature_bytes;
        let client_exec = self.client.exec_time(&self.profile, None, Some(cut.id));
        let server_exec = self.server.exec_time(&self.profile, Some(cut.id), None);
        let times = PredictedTimes {
            client_exec,
            capture: self.client.capture_time(snapshot_bytes),
            upload: self.link.transfer_time(snapshot_bytes)?,
            restore: self.server.restore_time(snapshot_bytes),
            server_exec,
            result_return: self.server.capture_time(RESULT_SNAPSHOT_BYTES)
                + self.link.transfer_time(RESULT_SNAPSHOT_BYTES)?
                + self.client.restore_time(RESULT_SNAPSHOT_BYTES),
        };
        Ok(PartitionPrediction {
            cut: cut.clone(),
            times,
            feature_text_bytes: feature_bytes,
        })
    }

    /// Predictions for every valid cut, in execution order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PartitionOptimizer::predict`].
    pub fn predictions(&self) -> Result<Vec<PartitionPrediction>, OffloadError> {
        self.cuts.iter().map(|c| self.predict(c)).collect()
    }

    /// The cut minimizing predicted total time. With `require_privacy`,
    /// the input cut is excluded — the paper's "at least one layer from
    /// the front part ... to denature the input data".
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError::Config`] when no cut satisfies the
    /// constraint (cannot happen for zoo networks), or [`OffloadError::Net`]
    /// when the link has no usable bandwidth.
    pub fn best(&self, require_privacy: bool) -> Result<PartitionPrediction, OffloadError> {
        self.predictions()?
            .into_iter()
            .filter(|p| !require_privacy || p.cut.id.index() > 0)
            .min_by_key(|p| p.times.total())
            .ok_or_else(|| OffloadError::Config("no valid partition point".into()))
    }

    /// The runtime decision: the [`best`](PartitionOptimizer::best) offload
    /// against pure local execution, whichever is predicted faster.
    /// `unacked_model_bytes` is `None` when the server holds the model;
    /// `Some(n)` queues the `n` model bytes still uploading ahead of the
    /// snapshot on the same link. `penalty` — expected backoff sleeps,
    /// compute and queueing priors — joins the offload side, so a
    /// degrading link or a saturated server tips the plan toward Local
    /// *before* any retry budget burns.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PartitionOptimizer::best`].
    pub fn plan(
        &self,
        require_privacy: bool,
        unacked_model_bytes: Option<u64>,
        penalty: Duration,
    ) -> Result<Plan, OffloadError> {
        let local_time = self.client.full_exec_time(&self.profile);
        let best = self.best(require_privacy)?;
        let mut offload = best.times.total();
        if let Some(bytes) = unacked_model_bytes {
            offload = offload.saturating_add(self.link.transfer_time(bytes)?);
        }
        let offload = offload.saturating_add(penalty);
        let decision = if offload >= local_time {
            Decision::Local
        } else if best.cut.id.index() == 0 {
            Decision::FullOffload
        } else {
            Decision::Partial {
                cut: best.cut.label,
            }
        };
        Ok(Plan {
            decision,
            predicted: offload.min(local_time),
            offload,
            local_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{edge_server_x86, odroid_xu4};
    use snapedge_dnn::{zoo, ModelBundle};

    fn on(model: &str, link: LinkConfig) -> PartitionOptimizer {
        PartitionOptimizer::new(
            &zoo::by_name(model).unwrap(),
            odroid_xu4(),
            edge_server_x86(),
            link,
        )
    }

    fn optimizer(model: &str) -> PartitionOptimizer {
        on(model, LinkConfig::wifi_30mbps())
    }

    fn model_bytes(model: &str) -> u64 {
        ModelBundle::from_network(&zoo::by_name(model).unwrap()).total_bytes()
    }

    #[test]
    fn full_offload_wins_without_privacy() {
        // Fig. 8: offloading at Input beats every partial cut, because the
        // client is so much slower.
        for model in ["googlenet", "agenet", "gendernet"] {
            let best = optimizer(model).best(false).unwrap();
            assert_eq!(best.cut.label, "input", "{model}");
        }
    }

    #[test]
    fn first_pool_is_best_private_cut_for_googlenet() {
        // The paper's Section IV-B conclusion: "the first pool layer
        // (1st_pool) appears to be the best offloading point that can
        // minimize the inference time, yet still denaturing the input".
        let best = optimizer("googlenet").best(true).unwrap();
        assert_eq!(best.cut.label, "1st_pool");
    }

    #[test]
    fn first_pool_is_best_private_cut_for_the_levi_hassner_nets() {
        for model in ["agenet", "gendernet"] {
            let best = optimizer(model).best(true).unwrap();
            assert_eq!(best.cut.label, "1st_pool", "{model}");
        }
    }

    #[test]
    fn conv_cuts_carry_more_feature_bytes_than_pool_cuts() {
        // Fig. 8 size analysis: 14.7 MB at 1st_conv vs 2.9 MB at 1st_pool.
        let opt = optimizer("googlenet");
        let net = zoo::googlenet();
        let conv = opt.feature_text_bytes(&net.cut_point("1st_conv").unwrap());
        let pool = opt.feature_text_bytes(&net.cut_point("1st_pool").unwrap());
        assert_eq!(conv, 4 * pool);
        let mb = conv as f64 / (1024.0 * 1024.0);
        assert!((12.0..17.0).contains(&mb), "1st_conv feature ~ {mb} MB");
    }

    #[test]
    fn pool_cut_beats_adjacent_conv_cut() {
        // The zig-zag of Fig. 8: moving the cut from a conv layer to the
        // following pool layer *reduces* inference time.
        let opt = optimizer("googlenet");
        let net = zoo::googlenet();
        let conv = opt.predict(&net.cut_point("1st_conv").unwrap()).unwrap();
        let pool = opt.predict(&net.cut_point("1st_pool").unwrap()).unwrap();
        assert!(pool.times.total() < conv.times.total());
    }

    #[test]
    fn slow_links_push_the_cut_deeper() {
        // On a very slow link, transferring less data matters more than
        // client compute: the best private cut should move to (or stay at)
        // a pool layer with few elements, and the predicted total should
        // grow.
        let fast = optimizer("agenet").best(true).unwrap();
        let slow = PartitionOptimizer::new(
            &zoo::agenet(),
            odroid_xu4(),
            edge_server_x86(),
            LinkConfig::mbps(1.0),
        )
        .best(true)
        .unwrap();
        assert!(slow.times.total() > fast.times.total());
        let slow_elems = slow.cut.feature_elems;
        let fast_elems = fast.cut.feature_elems;
        assert!(slow_elems <= fast_elems);
    }

    #[test]
    fn predictions_cover_every_cut_in_order() {
        let opt = optimizer("agenet");
        let preds = opt.predictions().unwrap();
        assert_eq!(preds[0].cut.label, "input");
        for pair in preds.windows(2) {
            assert!(pair[0].cut.id.index() < pair[1].cut.id.index());
        }
    }

    #[test]
    fn fast_link_and_ready_model_choose_full_offload() {
        let plan = optimizer("googlenet")
            .plan(false, None, Duration::ZERO)
            .unwrap();
        assert_eq!(plan.decision, Decision::FullOffload);
        assert!(plan.predicted < plan.local_time);
    }

    #[test]
    fn privacy_policy_chooses_first_pool() {
        let plan = optimizer("googlenet")
            .plan(true, None, Duration::ZERO)
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
        // local execution — the planner must pick Local.
        for model in ["agenet", "gendernet"] {
            let unacked = Some(model_bytes(model));
            let plan = optimizer(model)
                .plan(false, unacked, Duration::ZERO)
                .unwrap();
            assert_eq!(plan.decision, Decision::Local, "{model}");
        }
        // GoogLeNet still wins by offloading even before the ACK.
        let unacked = Some(model_bytes("googlenet"));
        let plan = optimizer("googlenet")
            .plan(false, unacked, Duration::ZERO)
            .unwrap();
        assert_ne!(plan.decision, Decision::Local);
    }

    #[test]
    fn mostly_uploaded_model_flips_the_decision_back_to_offload() {
        // Regression: the planner used to charge the *full* model size
        // whenever the ACK had not arrived, even when nearly all of the
        // pre-send had already landed — so a 90%-uploaded AgeNet still
        // "lost" to local execution. Only the remaining bytes queue behind
        // the snapshot; charging just those flips the decision back.
        let bytes = model_bytes("agenet");
        let opt = optimizer("agenet");

        // Nothing acknowledged yet: the full charge makes AgeNet lose
        // (Fig. 6's before-ACK observation).
        let cold = opt.plan(false, Some(bytes), Duration::ZERO).unwrap();
        assert_eq!(cold.decision, Decision::Local);

        // 90% of the pre-send already landed: only the tail still queues,
        // and offloading wins again — strictly cheaper than the cold plan.
        let tail = bytes - bytes * 9 / 10;
        let hot = opt.plan(false, Some(tail), Duration::ZERO).unwrap();
        assert_ne!(hot.decision, Decision::Local);
        assert!(hot.predicted < cold.predicted);

        // Nothing left to upload converges to the model-ready decision;
        // only the zero-payload handshake (latency + framing) still
        // separates the predicted times.
        let done = opt.plan(false, Some(0), Duration::ZERO).unwrap();
        let ready = opt.plan(false, None, Duration::ZERO).unwrap();
        assert_eq!(done.decision, ready.decision);
        let slack = done.predicted.saturating_sub(ready.predicted);
        assert!(slack < Duration::from_millis(10), "slack {slack:?}");
    }

    #[test]
    fn dead_slow_link_falls_back_to_local() {
        let plan = on("agenet", LinkConfig::mbps(0.05))
            .plan(false, None, Duration::ZERO)
            .unwrap();
        assert_eq!(plan.decision, Decision::Local);
        assert_eq!(plan.predicted, plan.local_time);
    }

    #[test]
    fn lossy_links_degrade_toward_local() {
        let clean = on("agenet", LinkConfig::mbps(2.0))
            .plan(false, None, Duration::ZERO)
            .unwrap();
        let lossy = on("agenet", LinkConfig::mbps(2.0).with_loss(0.9))
            .plan(false, None, Duration::ZERO)
            .unwrap();
        assert!(lossy.predicted >= clean.predicted);
    }

    #[test]
    fn retry_penalty_is_bounded_by_the_health_clamp() {
        use crate::resilience::RetryPolicy;
        use snapedge_net::{LinkHealth, LinkPrediction, MAX_PREDICTED_RETRIES};
        // Drive a link-health record into the ground: every windowed
        // attempt faults, so the raw retry expectation explodes — and the
        // clamp, not the raw expectation, must bound what the planner
        // charges. The cap used to live as a magic `8` in `health.rs`
        // only; this pins the two paths to the one named constant.
        let mut health = LinkHealth::default();
        health.observe_faults(64, Duration::from_secs(1));
        let prediction = health.predict(Duration::from_secs(1));
        assert_eq!(prediction.predicted_retries, MAX_PREDICTED_RETRIES);

        let policy = RetryPolicy::default();
        let charged = |p: &LinkPrediction| policy.cumulative_backoff(p.predicted_retries);
        let opt = optimizer("agenet");
        let free = opt.plan(false, None, Duration::ZERO).unwrap();
        let plan = opt.plan(false, None, charged(&prediction)).unwrap();
        assert_eq!(
            plan.offload - free.offload,
            policy.cumulative_backoff(MAX_PREDICTED_RETRIES)
        );
        // A wilder prediction cannot charge more than the clamp allows.
        let wild = LinkPrediction {
            predicted_retries: MAX_PREDICTED_RETRIES,
            ..prediction
        };
        let capped = opt.plan(false, None, charged(&wild)).unwrap();
        assert_eq!(capped.offload, plan.offload);
    }

    #[test]
    fn predicted_time_never_exceeds_local() {
        // The planner can always fall back; its plan is never worse than
        // local execution.
        let unacked = Some(model_bytes("googlenet"));
        for mbps in [0.1, 1.0, 5.0, 30.0, 200.0] {
            let opt = on("googlenet", LinkConfig::mbps(mbps));
            for unacked in [unacked, None] {
                let plan = opt.plan(true, unacked, Duration::ZERO).unwrap();
                assert!(
                    plan.predicted <= plan.local_time,
                    "mbps {mbps} unacked {unacked:?}"
                );
            }
        }
    }

    /// Every plan over the paper models, five link rates, two loss rates,
    /// four upload states, two penalties and both privacy settings,
    /// hashed (FNV-1a over the decision label and the offload, local and
    /// predicted nanoseconds). The value was recorded on the two-type
    /// planner this method replaced; a move means a plan changed.
    #[test]
    fn the_plan_grid_is_pinned() {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                hash = (hash ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let mut plans = 0;
        for model in ["googlenet", "agenet", "gendernet"] {
            let bytes = model_bytes(model);
            for privacy in [false, true] {
                for mbps in [0.05, 1.0, 5.0, 30.0, 200.0] {
                    for loss in [0.0, 0.2] {
                        let opt = on(model, LinkConfig::mbps(mbps).with_loss(loss));
                        for unacked in [None, Some(0), Some(bytes / 10), Some(bytes)] {
                            for penalty in [Duration::ZERO, Duration::from_secs(1)] {
                                let plan = opt.plan(privacy, unacked, penalty).unwrap();
                                eat(plan.decision.label().as_bytes());
                                for t in [plan.offload, plan.local_time, plan.predicted] {
                                    eat(&(t.as_nanos() as u64).to_le_bytes());
                                }
                                plans += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(plans, 480);
        assert_eq!(hash, 0x0320_a11a_2ee7_43f1, "{hash:#018x}");
    }
}
