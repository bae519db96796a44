//! Closing the control loop: the client *measures* its link with the
//! EWMA estimate of a link-health record and feeds it to the planner —
//! "the runtime network status" of Section III-B.2, end to end.

use snapedge_core::prelude::*;
use snapedge_core::PartitionOptimizer;
use std::time::Duration;

/// The cut the privacy-constrained plan for `model` offloads at, with
/// its model installed; `None` runs locally.
fn plan(model: &str, link: LinkConfig) -> Option<String> {
    PartitionOptimizer::new(
        &zoo::by_name(model).unwrap(),
        odroid_xu4(),
        edge_server_x86(),
        link,
    )
    .plan()
    .unwrap()
    .cut
    .map(|cut| cut.label)
}

/// Run some probe transfers through a real (simulated) link and return the
/// estimate's view of it.
fn measured_config(true_link: &LinkConfig, probes: usize) -> LinkConfig {
    let mut link = Link::new(true_link.clone());
    let mut health = LinkHealth::default();
    let mut now = Duration::ZERO;
    for i in 0..probes {
        let transfer = link.schedule(now, 500_000 + 10_000 * i as u64).unwrap();
        health.observe_transfer(&transfer);
        now = transfer.finish + Duration::from_millis(200);
    }
    health.as_link_config(true_link).unwrap()
}

#[test]
fn estimator_driven_decision_matches_oracle_on_a_good_link() {
    let truth = LinkConfig::wifi_30mbps();
    let measured = measured_config(&truth, 8);
    let oracle_plan = plan("googlenet", truth);
    let measured_plan = plan("googlenet", measured);
    assert_eq!(oracle_plan, measured_plan);
    assert_eq!(measured_plan.as_deref(), Some("1st_pool"));
}

#[test]
fn estimator_tracks_degradation_and_flips_the_decision() {
    let first_pool = Some("1st_pool".to_string());

    // Phase 1: healthy link -> offload.
    let good = measured_config(&LinkConfig::wifi_30mbps(), 6);
    assert_eq!(plan("agenet", good), first_pool);

    // Phase 2: the client walks away; throughput collapses. Feed the SAME
    // record the bad samples and watch the plan flip: at the estimate's
    // smoothing constant it takes nine 0.05 Mbps samples to pull the
    // estimate from ~29 Mbps to where AgeNet runs locally.
    let mut health = LinkHealth::default();
    let mut now = Duration::ZERO;
    let mut good_link = Link::new(LinkConfig::wifi_30mbps());
    for _ in 0..4 {
        let t = good_link.schedule(now, 500_000).unwrap();
        health.observe_transfer(&t);
        now = t.finish;
    }
    let mut bad_link = Link::new(LinkConfig::mbps(0.05));
    let mut decisions = Vec::new();
    for _ in 0..9 {
        let t = bad_link.schedule(now, 500_000).unwrap();
        health.observe_transfer(&t);
        now = t.finish;
        let degraded = health.as_link_config(&LinkConfig::mbps(0.05)).unwrap();
        decisions.push((degraded.bandwidth_bps, plan("agenet", degraded)));
    }
    let (after_8, still) = &decisions[7];
    assert_eq!(*still, first_pool, "estimate was {:.2} Mbps", after_8 / 1e6);
    let (after_9, flipped) = &decisions[8];
    assert_eq!(*flipped, None, "estimate was {:.2} Mbps", after_9 / 1e6);
}

#[test]
fn estimate_is_close_to_configured_bandwidth() {
    // FIFO links with small probes: the estimator should land within ~15%
    // of the shaped rate (framing overhead + latency bias it down).
    let truth = LinkConfig::mbps(10.0);
    let measured = measured_config(&truth, 10);
    let rel = (measured.bandwidth_bps - truth.bandwidth_bps).abs() / truth.bandwidth_bps;
    assert!(rel < 0.15, "relative error {rel}");
}
