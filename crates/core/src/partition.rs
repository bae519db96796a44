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
//! [`PartitionOptimizer::plan`] is that decision: the best private cut
//! against pure local execution. The price it compares is
//! `PartitionOptimizer::against_local`, which the `plan` gate also calls
//! at the cut a session runs, with the before-ACK model upload
//! (Section IV-A: before it finishes *"it would be better for the client
//! to execute the DNN locally"*) and the gate's priors charged to the
//! offload side.

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

/// What the planner chose for one inference, and its predicted cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The cut to offload at, past the input (the paper's privacy
    /// constraint); `None` runs the whole DNN on the client.
    pub cut: Option<CutPoint>,
    /// Predicted end-to-end inference time.
    pub predicted: Duration,
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
        self.price(&self.server, &self.link, cut)
    }

    /// [`PartitionOptimizer::predict`] with `server` over `link` in place
    /// of the optimizer's own.
    fn price(
        &self,
        server: &DeviceProfile,
        link: &LinkConfig,
        cut: &CutPoint,
    ) -> Result<PartitionPrediction, OffloadError> {
        let feature_bytes = self.feature_text_bytes(cut);
        let snapshot_bytes = BASE_SNAPSHOT_BYTES + feature_bytes;
        let client_exec = self.client.exec_time(&self.profile, None, Some(cut.id));
        let server_exec = server.exec_time(&self.profile, Some(cut.id), None);
        let times = PredictedTimes {
            client_exec,
            capture: self.client.capture_time(snapshot_bytes),
            upload: link.transfer_time(snapshot_bytes)?,
            restore: server.restore_time(snapshot_bytes),
            server_exec,
            result_return: server.capture_time(RESULT_SNAPSHOT_BYTES)
                + link.transfer_time(RESULT_SNAPSHOT_BYTES)?
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

    /// Predicted time of offloading at `cut` (the input cut when `None`)
    /// to `server` over `link` against pure local execution, as
    /// `(offload, local)`. The `plan` gate keeps one optimizer a session
    /// and passes the serving candidate and its link health each round.
    /// `unacked_model_bytes` is `None`
    /// when the server holds the model; `Some(n)` queues the `n` model
    /// bytes still uploading ahead of the snapshot on the same link.
    /// `penalty` — expected backoff sleeps, compute and queueing priors —
    /// joins the offload side, so a degrading link or a saturated server
    /// tips the comparison toward local *before* any retry budget burns.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PartitionOptimizer::best`].
    pub(crate) fn against_local(
        &self,
        server: &DeviceProfile,
        link: &LinkConfig,
        cut: Option<&CutPoint>,
        unacked_model_bytes: Option<u64>,
        penalty: Duration,
    ) -> Result<(Duration, Duration), OffloadError> {
        let cut = (cut.or(self.cuts.first()))
            .ok_or_else(|| OffloadError::Config("no valid partition point".into()))?;
        let local_time = self.client.full_exec_time(&self.profile);
        let mut offload = self.price(server, link, cut)?.times.total();
        if let Some(bytes) = unacked_model_bytes {
            offload = offload.saturating_add(link.transfer_time(bytes)?);
        }
        Ok((offload.saturating_add(penalty), local_time))
    }

    /// The planning decision: the best private
    /// [cut](PartitionOptimizer::best) against pure local execution,
    /// whichever is predicted faster with the model on the server and no
    /// penalty. The `plan` gate prices a session's own cut with the same
    /// comparison (`against_local`) and never calls this.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PartitionOptimizer::best`].
    pub fn plan(&self) -> Result<Plan, OffloadError> {
        let best = self.best(true)?;
        let (offload, local_time) = self.against_local(
            &self.server,
            &self.link,
            Some(&best.cut),
            None,
            Duration::ZERO,
        )?;
        Ok(Plan {
            cut: (offload < local_time).then_some(best.cut),
            predicted: offload.min(local_time),
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

    /// `(label, offload, local, predicted)` of the best cut (`privacy`
    /// as in `best`) priced by `against_local`: the label is `local`,
    /// `full` or `partial:<cut>`, whichever the comparison and the cut
    /// say, and `predicted` is the cheaper side.
    fn priced(
        opt: &PartitionOptimizer,
        privacy: bool,
        unacked: Option<u64>,
        penalty: Duration,
    ) -> (String, Duration, Duration, Duration) {
        let best = opt.best(privacy).unwrap();
        let (offload, local) = opt
            .against_local(&opt.server, &opt.link, Some(&best.cut), unacked, penalty)
            .unwrap();
        let label = if offload >= local {
            "local".to_string()
        } else if best.cut.id.index() == 0 {
            "full".to_string()
        } else {
            format!("partial:{}", best.cut.label)
        };
        (label, offload, local, offload.min(local))
    }

    #[test]
    fn fast_link_and_ready_model_choose_full_offload() {
        let (label, _, local, predicted) =
            priced(&optimizer("googlenet"), false, None, Duration::ZERO);
        assert_eq!(label, "full");
        assert!(predicted < local);
    }

    #[test]
    fn privacy_policy_chooses_first_pool() {
        let plan = optimizer("googlenet").plan().unwrap();
        assert_eq!(plan.cut.unwrap().label, "1st_pool");
    }

    #[test]
    fn model_upload_in_flight_makes_agenet_run_locally() {
        // Fig. 6's observation: before the ACK, AgeNet/GenderNet lose to
        // local execution — the planner must pick Local.
        for model in ["agenet", "gendernet"] {
            let unacked = Some(model_bytes(model));
            let (label, ..) = priced(&optimizer(model), false, unacked, Duration::ZERO);
            assert_eq!(label, "local", "{model}");
        }
        // GoogLeNet still wins by offloading even before the ACK.
        let unacked = Some(model_bytes("googlenet"));
        let (label, ..) = priced(&optimizer("googlenet"), false, unacked, Duration::ZERO);
        assert_ne!(label, "local");
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
        let at = |unacked| priced(&opt, false, unacked, Duration::ZERO);

        // Nothing acknowledged yet: the full charge makes AgeNet lose
        // (Fig. 6's before-ACK observation).
        let cold = at(Some(bytes));
        assert_eq!(cold.0, "local");

        // 90% of the pre-send already landed: only the tail still queues,
        // and offloading wins again — strictly cheaper than the cold plan.
        let hot = at(Some(bytes - bytes * 9 / 10));
        assert_ne!(hot.0, "local");
        assert!(hot.3 < cold.3);

        // Nothing left to upload converges to the model-ready decision;
        // only the zero-payload handshake (latency + framing) still
        // separates the predicted times.
        let done = at(Some(0));
        let ready = at(None);
        assert_eq!(done.0, ready.0);
        let slack = done.3.saturating_sub(ready.3);
        assert!(slack < Duration::from_millis(10), "slack {slack:?}");
    }

    #[test]
    fn dead_slow_link_falls_back_to_local() {
        let (label, _, local, predicted) = priced(
            &on("agenet", LinkConfig::mbps(0.05)),
            false,
            None,
            Duration::ZERO,
        );
        assert_eq!(label, "local");
        assert_eq!(predicted, local);
    }

    #[test]
    fn lossy_links_degrade_toward_local() {
        let at = |link| priced(&on("agenet", link), false, None, Duration::ZERO).3;
        let clean = at(LinkConfig::mbps(2.0));
        let lossy = at(LinkConfig::mbps(2.0).with_loss(0.9));
        assert!(lossy >= clean);
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
        let offload = |penalty| priced(&opt, false, None, penalty).1;
        let free = offload(Duration::ZERO);
        let plan = offload(charged(&prediction));
        assert_eq!(
            plan - free,
            policy.cumulative_backoff(MAX_PREDICTED_RETRIES)
        );
        // A wilder prediction cannot charge more than the clamp allows.
        let wild = LinkPrediction {
            predicted_retries: MAX_PREDICTED_RETRIES,
            ..prediction
        };
        let capped = offload(charged(&wild));
        assert_eq!(capped, plan);
    }

    #[test]
    fn predicted_time_never_exceeds_local() {
        // The planner can always fall back; its plan is never worse than
        // local execution.
        let unacked = Some(model_bytes("googlenet"));
        for mbps in [0.1, 1.0, 5.0, 30.0, 200.0] {
            let opt = on("googlenet", LinkConfig::mbps(mbps));
            for unacked in [unacked, None] {
                let (_, _, local, predicted) = priced(&opt, true, unacked, Duration::ZERO);
                assert!(predicted <= local, "mbps {mbps} unacked {unacked:?}");
            }
            let plan = opt.plan().unwrap();
            assert!(plan.predicted <= plan.local_time, "mbps {mbps}");
        }
    }

    /// Every price over the paper models, five link rates, two loss
    /// rates, four upload states, two penalties and both privacy
    /// settings, hashed (FNV-1a over the label and the offload, local
    /// and predicted nanoseconds). The value was recorded on the
    /// two-type planner the one `plan` replaced, whose parameters are now
    /// `against_local`'s; a move means a price changed. `plan` itself is
    /// the privacy, model-ready, no-penalty cell of the grid.
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
                                let (label, offload, local, predicted) =
                                    priced(&opt, privacy, unacked, penalty);
                                eat(label.as_bytes());
                                for t in [offload, local, predicted] {
                                    eat(&(t.as_nanos() as u64).to_le_bytes());
                                }
                                plans += 1;
                                if privacy && unacked.is_none() && penalty.is_zero() {
                                    let plan = opt.plan().unwrap();
                                    let decided = plan.cut.map_or("local".to_string(), |cut| {
                                        format!("partial:{}", cut.label)
                                    });
                                    assert_eq!(decided, label);
                                    assert_eq!(
                                        (plan.predicted, plan.local_time),
                                        (predicted, local)
                                    );
                                }
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
