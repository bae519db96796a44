//! Megascale smoke bound: 10,000 open-loop clients through the
//! discrete-event fleet engine, with a wall-clock budget. The engine's
//! pitch is that fleet-level questions ("does offloading still pay at
//! 10k users?") simulate in interactive time — this binary holds it to
//! that, and fails CI when the scheduler regresses.
//!
//! ```sh
//! cargo run --release -p snapedge-bench --bin fleet_scale
//! ```

use snapedge_core::{ArrivalProcess, Engine, SessionConfig};
use std::time::{Duration, Instant};

/// Generous release-build budget for the full grid (one 10k-client run
/// simulates in well under a second; the bound only catches accidental
/// quadratic behaviour, not noise).
const WALL_BUDGET: Duration = Duration::from_secs(30);

fn main() -> Result<(), snapedge_core::OffloadError> {
    println!("Fleet engine at scale: 10k modeled clients, Poisson arrivals, 3 servers\n");

    let started = Instant::now();
    for rate_hz in [40.0, 120.0, 400.0] {
        let mut cfg = SessionConfig::paper("agenet");
        let template = cfg.primary().clone();
        for name in ["edge-b", "edge-c"] {
            let mut spec = template.clone();
            spec.name = name.to_string();
            cfg.servers.push(spec);
        }
        let mut engine = Engine::modeled(cfg, 10_000)?
            .arrival(ArrivalProcess::Poisson { rate_hz })
            .duration(Duration::from_secs(30));
        let wall = Instant::now();
        let report = engine.run()?;
        let elapsed = wall.elapsed();
        println!(
            "{rate_hz:>4.0}/s: {:>5} completed, {:.2} r/s, p50 {:.2} s, p99 {:.2} s, queue p99 {:.2} s, wall {:.0} ms",
            report.completed,
            report.throughput_rps,
            report.latency.p50.as_secs_f64(),
            report.latency.p99.as_secs_f64(),
            report.queue_wait.p99.as_secs_f64(),
            elapsed.as_secs_f64() * 1e3
        );
    }

    let elapsed = started.elapsed();
    println!("\ntotal wall time: {:.0} ms", elapsed.as_secs_f64() * 1e3);
    assert!(
        elapsed < WALL_BUDGET,
        "fleet engine smoke blew its wall-clock budget: {elapsed:?} >= {WALL_BUDGET:?}"
    );
    Ok(())
}
