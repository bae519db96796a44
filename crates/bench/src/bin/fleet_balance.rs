//! Balancing micro: unbalanced vs queue-aware placement on a skewed
//! fleet (two x86 servers behind 30 Mbps links, the weak device behind
//! the best link), 1,000 modeled clients, Poisson arrivals. Unbalanced
//! placement puts every client on the best link. Report-only for the
//! p99 comparison — the hard assertion is the wall-clock budget, so CI
//! catches a scheduler regression without pinning simulation outputs.
//!
//! ```sh
//! cargo run --release -p snapedge-bench --bin fleet_balance
//! ```

use snapedge_core::prelude::*;
use std::time::{Duration, Instant};

/// Generous release-build budget for the full grid (each 1k-client run
/// simulates in milliseconds; the bound only catches accidental
/// quadratic behaviour in the balancer or the deferred grant path).
const WALL_BUDGET: Duration = Duration::from_secs(30);

fn run(rate_hz: f64, balance: bool) -> Result<FleetReport, OffloadError> {
    let x86 = |name| ServerSpec::new(name, edge_server_x86(), LinkConfig::wifi_30mbps());
    let cfg = SessionConfig::paper_builder("agenet")
        .servers(vec![
            x86("edge-a"),
            x86("edge-b"),
            ServerSpec::new("edge-near", odroid_xu4(), LinkConfig::mbps(100.0)),
        ])
        .build();
    Engine::modeled(cfg, 1_000)?
        .balance(balance)
        .arrival(ArrivalProcess::Poisson { rate_hz })
        .duration(Duration::from_secs(30))
        .run()
}

fn main() -> Result<(), OffloadError> {
    println!("Queue-aware vs unbalanced placement: 1k modeled clients, skewed 3-server fleet\n");

    let started = Instant::now();
    for rate_hz in [5.0, 10.0, 20.0] {
        for balance in [false, true] {
            let wall = Instant::now();
            let report = run(rate_hz, balance)?;
            let elapsed = wall.elapsed();
            println!(
                "{rate_hz:>3.0}/s {}: {:>4} completed, p50 {:.2} s, p99 {:.2} s, {:>3} rounds on the weak server, fairness {:.3}, wall {:.0} ms",
                if balance { "balanced  " } else { "unbalanced" },
                report.completed,
                report.latency.p50.as_secs_f64(),
                report.latency.p99.as_secs_f64(),
                report.servers[2].rounds,
                report.fairness,
                elapsed.as_secs_f64() * 1e3
            );
        }
    }

    let elapsed = started.elapsed();
    println!("\ntotal wall time: {:.0} ms", elapsed.as_secs_f64() * 1e3);
    assert!(
        elapsed < WALL_BUDGET,
        "balancing micro blew its wall-clock budget: {elapsed:?} >= {WALL_BUDGET:?}"
    );
    Ok(())
}
