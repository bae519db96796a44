//! Failure injection: link failures, protocol violations, and the
//! fall-back-to-local-execution path the paper recommends while the edge
//! is unreachable.

use snapedge_core::prelude::*;
use std::time::Duration;

/// The primary's link, dead from app start for an hour.
fn down_for_an_hour() -> FaultPlan {
    FaultPlan::none()
        .down(Duration::ZERO, Duration::from_secs(3600))
        .unwrap()
}

#[test]
fn uplink_failure_surfaces_as_a_net_error() {
    // No retry policy: the refused pre-send surfaces immediately.
    let cfg = ScenarioConfig::tiny_builder()
        .up_faults(down_for_an_hour())
        .build();
    let err = run_scenario(&cfg).unwrap_err();
    assert!(matches!(err, OffloadError::Net(_)), "{err:?}");
}

#[test]
fn downlink_failure_surfaces_as_a_net_error() {
    let cfg = ScenarioConfig::tiny_builder()
        .down_faults(down_for_an_hour())
        .build();
    let err = run_scenario(&cfg).unwrap_err();
    assert!(matches!(err, OffloadError::Net(_)), "{err:?}");
}

#[test]
fn fallback_runs_locally_when_the_edge_is_unreachable() {
    let cfg = ScenarioConfig::tiny_builder()
        .up_faults(down_for_an_hour())
        .retry(RetryPolicy::default())
        .build();
    let report = run_scenario(&cfg).unwrap();
    assert!(report.fell_back);
    // Local execution still produces the correct label.
    let local = run_scenario(&ScenarioConfig::tiny(Strategy::ClientOnly)).unwrap();
    assert_eq!(report.result, local.result);
    // And costs client-only time.
    assert_eq!(report.breakdown.exec_server, Duration::ZERO);
}

#[test]
fn fallback_is_not_taken_on_a_healthy_network() {
    let cfg = ScenarioConfig::tiny_builder()
        .retry(RetryPolicy::default())
        .build();
    let report = run_scenario(&cfg).unwrap();
    assert!(!report.fell_back);
    assert!(report.breakdown.exec_server > Duration::ZERO);
}

#[test]
fn config_errors_are_not_masked_by_fallback() {
    let cfg = ScenarioConfig::tiny_builder()
        .cut("not_a_layer")
        .retry(RetryPolicy::default())
        .build();
    let err = run_scenario(&cfg).unwrap_err();
    assert!(matches!(err, OffloadError::Dnn(_)), "{err:?}");
}

#[test]
fn very_slow_links_still_complete_correctly() {
    // Degraded network: 0.5 Mbps. Everything still works, just slowly.
    let mut cfg = ScenarioConfig::tiny(Strategy::OffloadAfterAck);
    cfg.primary_mut().link = LinkConfig::mbps(0.5);
    let report = run_scenario(&cfg).unwrap();
    let fast = run_scenario(&ScenarioConfig::tiny(Strategy::OffloadAfterAck)).unwrap();
    assert_eq!(report.result, fast.result);
    assert!(report.total > fast.total);
}

#[test]
fn zero_bandwidth_link_fails_cleanly() {
    let mut cfg = ScenarioConfig::tiny(Strategy::OffloadAfterAck);
    cfg.primary_mut().link = LinkConfig {
        bandwidth_bps: 0.0,
        ..LinkConfig::wifi_30mbps()
    };
    let err = run_scenario(&cfg).unwrap_err();
    assert!(matches!(err, OffloadError::Net(_)), "{err:?}");
}
