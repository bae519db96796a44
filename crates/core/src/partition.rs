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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{edge_server_x86, odroid_xu4};
    use snapedge_dnn::zoo;

    fn optimizer(model: &str) -> PartitionOptimizer {
        PartitionOptimizer::new(
            &zoo::by_name(model).unwrap(),
            odroid_xu4(),
            edge_server_x86(),
            LinkConfig::wifi_30mbps(),
        )
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
}
