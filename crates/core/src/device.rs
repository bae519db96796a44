//! Device latency models.
//!
//! The paper's testbed is an Odroid-XU4 client (ARM big.LITTLE, 2.0 GHz)
//! and an x86 edge server (3.4 GHz quad-core), both running DNNs in
//! JavaScript via Caffe.js (no GPU — the paper notes server times would
//! drop sharply with WebGL). We model each device as an *effective
//! throughput per layer type* (GFLOPS), the same granularity Neurosurgeon
//! [16] uses for its per-layer latency predictors, plus per-layer dispatch
//! overhead and a snapshot serialization cost model.
//!
//! Calibration targets the relative shape of the paper's Figs. 6–8:
//! client ≈ 10× slower than server, conv layers dominating, pool layers
//! cheap, snapshot capture/restore in the hundreds of milliseconds.

use snapedge_dnn::{NetworkProfile, NodeId};
use std::collections::BTreeMap;
use std::time::Duration;

/// A device's execution-speed model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    name: String,
    /// Effective GFLOPS per layer tag (`"conv"`, `"fc"`, ...).
    gflops: BTreeMap<&'static str, f64>,
    /// Fallback GFLOPS for tags not listed.
    default_gflops: f64,
    /// Fixed dispatch cost per layer (JS call overhead).
    pub per_layer_overhead: Duration,
    /// Fixed cost of any snapshot capture or restore.
    pub snapshot_fixed: Duration,
    /// Snapshot text generation throughput (bytes/second).
    pub capture_throughput: f64,
    /// Snapshot parse-and-execute throughput (bytes/second).
    pub restore_throughput: f64,
    /// LZ+Huffman compression throughput (input bytes/second).
    pub compress_throughput: f64,
    /// Decompression throughput (output bytes/second).
    pub decompress_throughput: f64,
}

impl DeviceProfile {
    /// Builds a profile from explicit parameters.
    pub fn new(name: &str, default_gflops: f64) -> DeviceProfile {
        DeviceProfile {
            name: name.to_string(),
            gflops: BTreeMap::new(),
            default_gflops,
            per_layer_overhead: Duration::from_micros(500),
            snapshot_fixed: Duration::from_millis(50),
            capture_throughput: 20.0e6,
            restore_throughput: 15.0e6,
            compress_throughput: 10.0e6,
            decompress_throughput: 40.0e6,
        }
    }

    /// Overrides the throughput for one layer tag, builder-style.
    fn with_gflops(mut self, tag: &'static str, gflops: f64) -> DeviceProfile {
        self.gflops.insert(tag, gflops);
        self
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Effective GFLOPS for a layer tag.
    fn gflops_for(&self, tag: &str) -> f64 {
        self.gflops.get(tag).copied().unwrap_or(self.default_gflops)
    }

    /// Simulated execution time of one layer.
    pub fn layer_time(&self, tag: &str, flops: u64) -> Duration {
        if flops == 0 {
            return self.per_layer_overhead;
        }
        self.per_layer_overhead
            + Duration::from_secs_f64(flops as f64 / (self.gflops_for(tag) * 1.0e9))
    }

    /// Simulated time to execute the layer range `(after, through]` of a
    /// profiled network: every layer with topo index greater than `after`
    /// (or all, when `None`) and at most `through` (or to the end, when
    /// `None`).
    pub fn exec_time(
        &self,
        profile: &NetworkProfile,
        after: Option<NodeId>,
        through: Option<NodeId>,
    ) -> Duration {
        let lo = after.map(|id| id.index()).unwrap_or(0);
        let hi = through.map(|id| id.index()).unwrap_or(usize::MAX);
        profile
            .layers()
            .iter()
            .filter(|l| {
                let i = l.id.index();
                i > 0 && (after.is_none() || i > lo) && i <= hi
            })
            .map(|l| self.layer_time(l.op_tag, l.flops))
            .sum()
    }

    /// Simulated time for the whole network.
    pub fn full_exec_time(&self, profile: &NetworkProfile) -> Duration {
        self.exec_time(profile, None, None)
    }

    /// Simulated snapshot capture time for a payload of `bytes`.
    pub fn capture_time(&self, bytes: u64) -> Duration {
        self.snapshot_fixed + Duration::from_secs_f64(bytes as f64 / self.capture_throughput)
    }

    /// Simulated snapshot restore (parse + execute) time.
    pub fn restore_time(&self, bytes: u64) -> Duration {
        self.snapshot_fixed + Duration::from_secs_f64(bytes as f64 / self.restore_throughput)
    }

    /// Simulated time to compress `bytes` of payload.
    pub fn compress_time(&self, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.compress_throughput)
    }

    /// Simulated time to decompress back to `bytes` of payload.
    pub fn decompress_time(&self, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.decompress_throughput)
    }
}

/// The client board: Odroid-XU4 (ARM big.LITTLE 2.0 GHz/1.5 GHz, 2 GB),
/// running Caffe.js under WebKit.
pub fn odroid_xu4() -> DeviceProfile {
    DeviceProfile::new("odroid-xu4", 0.12)
        .with_gflops("conv", 0.12)
        .with_gflops("fc", 0.15)
        .with_gflops("maxpool", 0.30)
        .with_gflops("avgpool", 0.30)
        .with_gflops("lrn", 0.15)
        .with_gflops("relu", 0.50)
        .with_gflops("softmax", 0.30)
        .with_gflops("concat", 1.00)
}

/// The edge server: x86 3.4 GHz quad-core, 16 GB — still JavaScript, so
/// roughly an order of magnitude over the board, not GPU-class.
pub fn edge_server_x86() -> DeviceProfile {
    let mut p = DeviceProfile::new("edge-server-x86", 1.2)
        .with_gflops("conv", 1.2)
        .with_gflops("fc", 1.5)
        .with_gflops("maxpool", 3.0)
        .with_gflops("avgpool", 3.0)
        .with_gflops("lrn", 1.5)
        .with_gflops("relu", 5.0)
        .with_gflops("softmax", 3.0)
        .with_gflops("concat", 10.0);
    p.per_layer_overhead = Duration::from_micros(100);
    p.snapshot_fixed = Duration::from_millis(20);
    p.capture_throughput = 120.0e6;
    p.restore_throughput = 90.0e6;
    p.compress_throughput = 60.0e6;
    p.decompress_throughput = 240.0e6;
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapedge_dnn::zoo;

    #[test]
    fn server_is_roughly_10x_client() {
        let profile = zoo::googlenet().profile();
        let client = odroid_xu4().full_exec_time(&profile).as_secs_f64();
        let server = edge_server_x86().full_exec_time(&profile).as_secs_f64();
        let ratio = client / server;
        assert!((6.0..15.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn googlenet_client_time_is_tens_of_seconds() {
        // Fig. 6 shape: client-side GoogLeNet inference in Caffe.js takes
        // tens of seconds on the board.
        let profile = zoo::googlenet().profile();
        let t = odroid_xu4().full_exec_time(&profile).as_secs_f64();
        assert!((15.0..60.0).contains(&t), "client time = {t}");
    }

    #[test]
    fn agenet_is_faster_than_googlenet_but_same_order() {
        let g = zoo::googlenet().profile();
        let a = zoo::agenet().profile();
        let dev = odroid_xu4();
        assert!(dev.full_exec_time(&a) < dev.full_exec_time(&g));
    }

    #[test]
    fn exec_time_splits_additively_at_cuts() {
        let net = zoo::agenet();
        let profile = net.profile();
        let dev = odroid_xu4();
        let full = dev.full_exec_time(&profile);
        for cut in net.cut_points() {
            let front = dev.exec_time(&profile, None, Some(cut.id));
            let rear = dev.exec_time(&profile, Some(cut.id), None);
            let sum = front + rear;
            let diff = sum.abs_diff(full);
            assert!(
                diff < Duration::from_micros(10),
                "cut {}: {front:?} + {rear:?} != {full:?}",
                cut.label
            );
        }
    }

    #[test]
    fn pool_layers_are_cheap_relative_to_conv() {
        let dev = odroid_xu4();
        // Same FLOP count: conv and pool differ only via throughput.
        assert!(dev.layer_time("conv", 1_000_000) > dev.layer_time("maxpool", 1_000_000));
    }

    #[test]
    fn snapshot_costs_scale_with_size() {
        let dev = odroid_xu4();
        assert!(dev.capture_time(10_000_000) > dev.capture_time(100_000));
        // Small snapshots are dominated by the fixed cost.
        let small = dev.capture_time(90_000);
        assert!(small < Duration::from_millis(200), "{small:?}");
    }

    #[test]
    fn zero_flop_layers_cost_only_overhead() {
        let dev = odroid_xu4();
        assert_eq!(dev.layer_time("dropout", 0), dev.per_layer_overhead);
    }
}
