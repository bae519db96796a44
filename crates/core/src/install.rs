//! On-demand installation of the offloading system at a bare edge server
//! via VM synthesis (Section III-B.3, Table I).
//!
//! When the client roams to an edge server that lacks the offloading
//! system, it ships a VM overlay containing the browser, the support
//! libraries, the offloading server program, and (optionally) the DNN
//! model — shipping the model inside the overlay doubles as pre-sending.

use crate::OffloadError;
use snapedge_net::{Link, LinkConfig};
use snapedge_vmsynth::{offloading_overlay, SynthesisConfig};
use std::time::Duration;

/// Timing and size record of a dynamic installation.
#[derive(Debug, Clone, PartialEq)]
pub struct InstallReport {
    /// Compressed overlay size in bytes (Table I "VM overlay (MB)").
    pub overlay_bytes: u64,
    /// Overlay upload time over the link.
    pub upload: Duration,
    /// Decompress-apply-launch time at the server.
    pub apply: Duration,
}

impl InstallReport {
    /// Total synthesis time (Table I "Synthesis time").
    pub fn total(&self) -> Duration {
        self.upload + self.apply
    }
}

/// Simulates installing the offloading system (and `model_bytes` of model
/// files) on a bare edge server over `link`.
///
/// # Errors
///
/// Returns [`OffloadError::Net`] when the link is down.
pub fn vm_install(
    model_name: &str,
    model_bytes: u64,
    link: &LinkConfig,
    synth: &SynthesisConfig,
) -> Result<InstallReport, OffloadError> {
    let overlay = offloading_overlay(model_name, model_bytes);
    let mut uplink = Link::new(link.clone());
    let xfer = uplink.schedule(Duration::ZERO, overlay.compressed_size())?;
    Ok(InstallReport {
        overlay_bytes: overlay.compressed_size(),
        upload: xfer.finish,
        apply: synth.apply_time(&overlay),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1024 * 1024;

    #[test]
    fn googlenet_synthesis_matches_table1() {
        // Table I: 19.31 s synthesis, 65 MB overlay.
        let report = vm_install(
            "googlenet",
            (26.7 * MIB as f64) as u64,
            &LinkConfig::wifi_30mbps(),
            &SynthesisConfig::default(),
        )
        .unwrap();
        let secs = report.total().as_secs_f64();
        assert!((17.0..22.0).contains(&secs), "synthesis = {secs}s");
        let mib = report.overlay_bytes / MIB;
        assert!((63..=67).contains(&mib), "overlay = {mib} MiB");
    }

    #[test]
    fn agenet_synthesis_matches_table1() {
        // Table I: 24.29 s synthesis, 82 MB overlay.
        let report = vm_install(
            "agenet",
            (43.5 * MIB as f64) as u64,
            &LinkConfig::wifi_30mbps(),
            &SynthesisConfig::default(),
        )
        .unwrap();
        let secs = report.total().as_secs_f64();
        assert!((21.5..27.0).contains(&secs), "synthesis = {secs}s");
        let mib = report.overlay_bytes / MIB;
        assert!((79..=85).contains(&mib), "overlay = {mib} MiB");
    }

    #[test]
    fn upload_dominates_synthesis() {
        let report = vm_install(
            "m",
            40 * MIB,
            &LinkConfig::wifi_30mbps(),
            &SynthesisConfig::default(),
        )
        .unwrap();
        assert!(report.upload > report.apply * 5);
    }

    #[test]
    fn down_link_fails_the_install() {
        // vm_install constructs its own link; emulate a dead one by zero
        // bandwidth.
        let bad = LinkConfig {
            bandwidth_bps: 0.0,
            ..LinkConfig::wifi_30mbps()
        };
        assert!(vm_install("m", MIB, &bad, &SynthesisConfig::default()).is_err());
    }
}
