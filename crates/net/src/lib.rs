//! # snapedge-net
//!
//! A deterministic network model — the stand-in for the paper's Ethernet
//! link shaped to 30 Mbps with `netem` [18].
//!
//! Everything runs in **virtual time**: a [`SimClock`] advances only when
//! the simulation says so, so every experiment is exactly reproducible.
//! A [`Link`] serializes transfers FIFO at a configured bandwidth and
//! latency (one direction; use two links for a duplex channel), and an
//! [`EventQueue`] orders deferred work — which is how the offloading
//! runtime overlaps model pre-sending with client-side execution, exactly
//! the race the paper's "offloading before/after ACK" configurations probe.
//!
//! # Example
//!
//! ```
//! use snapedge_net::{LinkConfig, Link, SimClock};
//! use std::time::Duration;
//!
//! let clock = SimClock::new();
//! // The paper's network: 30 Mbps, emulating good Wi-Fi.
//! let mut link = Link::new(LinkConfig::wifi_30mbps());
//! let t = link.schedule(clock.now(), 44 * 1024 * 1024).unwrap();
//! // 44 MiB at 30 Mbps is a bit over 12 seconds.
//! assert!(t.finish > Duration::from_secs(12));
//! assert!(t.finish < Duration::from_secs(13));
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

mod clock;
pub mod compress;
mod fault;
mod health;
mod link;
mod queue;

pub use clock::SimClock;
pub use fault::{FaultKind, FaultPlan, FaultWindow, LinkState};
pub use health::{LinkHealth, LinkPrediction, MAX_PREDICTED_RETRIES};
pub use link::{Link, LinkConfig, NetError, Transfer};
pub use queue::EventQueue;
