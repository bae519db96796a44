//! An endpoint: a browser plus a device model plus the shared clock.
//! The client board and the edge server are both just endpoints — the
//! paper's symmetry ("any generic edge server, equipped with a browser and
//! our offloading system") made concrete.

use crate::device::DeviceProfile;
use crate::gates::{self, Verdict};
use crate::mlhost::CaffeJsHost;
use crate::OffloadError;
use snapedge_analyze::Mode;
use snapedge_dnn::{ExecMode, Network, NodeId, ParamStore};
use snapedge_net::SimClock;
use snapedge_trace::{EventKind, Lane, Tracer};
use snapedge_webapp::{
    Browser, DeltaCapture, DeltaScript, RunOutcome, Snapshot, SnapshotOptions, StateBase, WebError,
};
use std::time::Duration;

/// `{verb}_{lane}` as a static string: every migration of every round
/// names its phases, so the name costs no allocation.
macro_rules! phase_name {
    ($endpoint:expr, $verb:literal) => {
        match $endpoint.lane {
            Lane::Client => concat!($verb, "_client"),
            Lane::Server => concat!($verb, "_server"),
            Lane::Network => concat!($verb, "_network"),
        }
    };
}

/// A browser-bearing machine participating in offloading.
pub struct Endpoint {
    name: String,
    /// The web runtime.
    pub browser: Browser,
    /// The device latency model.
    pub device: DeviceProfile,
    clock: SimClock,
    tracer: Tracer,
    lane: Lane,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("name", &self.name)
            .field("device", &self.device.name())
            .field("browser", &self.browser)
            .finish()
    }
}

impl Endpoint {
    /// Creates an endpoint charging simulated time to `clock`.
    pub fn new(name: &str, device: DeviceProfile, clock: SimClock) -> Endpoint {
        Endpoint {
            name: name.to_string(),
            browser: Browser::new(),
            device,
            clock,
            tracer: Tracer::disabled(),
            lane: Lane::Client,
        }
    }

    /// Attaches an event tracer, builder-style. Capture/restore then record
    /// `capture_{lane}` / `restore_{lane}` events on `lane`, and any model
    /// host installed afterwards records per-layer execution events.
    pub fn with_tracer(mut self, tracer: Tracer, lane: Lane) -> Endpoint {
        self.tracer = tracer;
        self.lane = lane;
        self
    }

    /// Endpoint name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The lane this endpoint's trace events are recorded on.
    pub fn lane(&self) -> Lane {
        self.lane
    }

    /// The attached tracer (disabled unless [`Endpoint::with_tracer`] was
    /// used).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Registers the Caffe.js host (`model`) backed by `net`.
    pub fn install_model(
        &mut self,
        net: Network,
        params: ParamStore,
        mode: ExecMode,
        cut: Option<NodeId>,
        seed: u64,
    ) {
        let host = CaffeJsHost::new(net, params, self.device.clone(), mode, self.clock.clone())
            .with_cut(cut)
            .with_seed(seed)
            .with_tracer(self.tracer.clone(), self.lane);
        // The DNN host is a pure function of its inputs (seeded, no
        // clock): declare it deterministic so effect analysis can pass
        // apps that call `model.inference(..)`.
        self.browser.register_host_with_effect(
            "model",
            Box::new(host),
            snapedge_webapp::HostEffect::Deterministic,
        );
    }

    /// Captures a snapshot, charging the device's capture time to the
    /// clock and recording a `capture_{lane}` event; returns the snapshot
    /// and the charged duration. Whether it may ship is not decided here:
    /// the session consults the verify gate after capture.
    ///
    /// # Errors
    ///
    /// Propagates snapshot serialization failures.
    pub fn capture(
        &mut self,
        options: &SnapshotOptions,
    ) -> Result<(Snapshot, Duration), OffloadError> {
        let start = self.clock.now();
        let snapshot = self.browser.capture_snapshot(options)?;
        let cost = self.captured(start, snapshot.size_bytes());
        Ok((snapshot, cost))
    }

    /// [`Endpoint::capture`] for a delta against the agreed `base`: the
    /// same charge and event when a delta suffices, nothing when a full
    /// snapshot is required instead.
    ///
    /// # Errors
    ///
    /// As [`Endpoint::capture`].
    pub fn capture_delta(
        &mut self,
        base: &StateBase,
        options: &SnapshotOptions,
    ) -> Result<DeltaCapture, OffloadError> {
        let start = self.clock.now();
        let capture = self.browser.capture_delta(base, options)?;
        if let DeltaCapture::Delta(delta) = &capture {
            self.captured(start, delta.size_bytes());
        }
        Ok(capture)
    }

    /// What every capture does once the browser produced `bytes` of
    /// source: device charge and `capture_{lane}` event.
    fn captured(&mut self, start: Duration, bytes: u64) -> Duration {
        let cost = self.device.capture_time(bytes);
        self.clock.advance_by(cost);
        self.tracer.record_bytes(
            phase_name!(self, "capture"),
            self.lane,
            EventKind::Capture,
            start,
            self.clock.now(),
            Some(bytes),
        );
        cost
    }

    /// The verify gate: statically verifies generated snapshot (or delta)
    /// source against this endpoint's host surface and records the
    /// verdict as a `gate:verify:…` event carrying the source length.
    ///
    /// # Errors
    ///
    /// Returns [`OffloadError::Verify`] when the analyzer reports
    /// error-severity diagnostics.
    pub fn verify_script(
        &mut self,
        source: &str,
        mode: Mode,
        ambient: Vec<String>,
    ) -> Result<(), OffloadError> {
        let judged = gates::verify(source, mode, self.browser.host_names(), ambient);
        let bytes = Some(source.len() as u64);
        match gates::record(&self.tracer, self.lane, self.clock.now(), judged, bytes) {
            Verdict::Reject(e) => Err(e),
            _ => Ok(()),
        }
    }

    /// Restores a snapshot, charging the device's restore time and
    /// recording a `restore_{lane}` event; returns the charged duration.
    ///
    /// # Errors
    ///
    /// Propagates snapshot parse/execution failures.
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<Duration, OffloadError> {
        let start = self.clock.now();
        self.browser.restore_snapshot(snapshot)?;
        Ok(self.restored(start, snapshot.size_bytes()))
    }

    /// [`Endpoint::restore`] for a delta captured on the peer.
    ///
    /// # Errors
    ///
    /// Propagates script execution failures.
    pub fn apply_delta(&mut self, delta: &DeltaScript) -> Result<Duration, OffloadError> {
        let start = self.clock.now();
        self.browser.apply_delta(delta)?;
        Ok(self.restored(start, delta.size_bytes()))
    }

    fn restored(&mut self, start: Duration, bytes: u64) -> Duration {
        let cost = self.device.restore_time(bytes);
        self.clock.advance_by(cost);
        self.tracer.record_bytes(
            phase_name!(self, "restore"),
            self.lane,
            EventKind::Restore,
            start,
            self.clock.now(),
            Some(bytes),
        );
        cost
    }

    /// Runs the event loop to idle (or to the armed offload point). DNN
    /// time is charged by the model host as handlers execute.
    ///
    /// When a resource meter with a virtual-time slice is installed on
    /// this endpoint's browser, the run is killed at the slice: the
    /// clock rewinds to `start + slice` (the tenant is only *charged*
    /// its slice, not the overrun the simulation had to compute to
    /// detect it) and a `"slice"` [`WebError::ResourceExhausted`] is
    /// returned with limit/used in microseconds. A metered run that
    /// finishes in budget records a `meter_tick` trace event carrying
    /// the segment's op count.
    ///
    /// # Errors
    ///
    /// Propagates app runtime errors, including meter exhaustion raised
    /// inside the interpreter (ops / heap / string / depth caps).
    pub fn run(&mut self) -> Result<RunOutcome, OffloadError> {
        let slice = self.browser.meter().and_then(|m| m.limits().time_slice);
        let start = self.clock.now();
        let outcome = self.browser.run_until_idle()?;
        if let Some(slice) = slice {
            let elapsed = self.clock.now() - start;
            if elapsed > slice {
                self.clock.rewind_to(start + slice);
                return Err(OffloadError::Web(WebError::ResourceExhausted {
                    resource: "slice".to_string(),
                    limit: slice.as_micros() as u64,
                    used: elapsed.as_micros() as u64,
                }));
            }
        }
        if let Some(meter) = self.browser.meter() {
            let now = self.clock.now();
            self.tracer.record_bytes(
                phase_name!(self, "meter_tick"),
                self.lane,
                EventKind::MeterTick,
                now,
                now,
                Some(meter.run_ops()),
            );
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_records_one_capture_event_and_no_gate() {
        let tracer = Tracer::new();
        let device = crate::device::edge_server_x86();
        let mut server = Endpoint::new("edge", device, SimClock::new())
            .with_tracer(tracer.clone(), Lane::Server);
        let app = "<html><body></body><script>var n = 1;</script></html>";
        server.browser.load_html(app).unwrap();
        server.browser.run_until_idle().unwrap();
        let (snapshot, cost) = server.capture(&SnapshotOptions::default()).unwrap();
        let trace = tracer.finish();
        let events: Vec<_> = (trace.events().iter())
            .map(|e| (e.name.as_str(), e.kind, e.lane))
            .collect();
        assert_eq!(
            events,
            [("capture_server", EventKind::Capture, Lane::Server)]
        );
        assert_eq!(trace.bytes_of("capture_server"), snapshot.size_bytes());
        assert_eq!(server.clock().now(), cost);
    }
}
