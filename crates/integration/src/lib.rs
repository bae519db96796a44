//! Integration test host crate; test sources live in `/tests`. What more
//! than one of them needs lives here.

use snapedge_core::{Engine, EngineEvent, EngineEventKind, FleetReport, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Runs `engine` to completion and holds its event log to the engine's
/// invariants ([`check_log`]).
///
/// # Panics
///
/// When the run fails or its log breaks an invariant.
pub fn run_checked<W: Workload>(engine: &mut Engine<W>) -> FleetReport {
    let report = engine.run().expect("the fleet run completes");
    check_log(engine.event_log(), report.servers.len());
    report
}

/// Asserts what every drained engine run must satisfy, whatever its
/// workload and knobs, over its typed event log against a `fleet` of
/// that many servers:
///
/// * the engine clock never runs backwards, and a round's completion
///   time is never earlier than the clock that produced it;
/// * every `Begin` is closed by exactly one `Done` for that client
///   before its next `Begin`, and the drained run leaves none open;
/// * per client, a CPU request (`Admit`, then a `Grant` if it was
///   parked) and its `Release` alternate, inside a round;
/// * on one server, `[start, release)` CPU spans overlap only between
///   members of one logged `Batch`.
///
/// # Panics
///
/// On the first event that breaks one of them, naming its index.
pub fn check_log(log: &[EngineEvent], fleet: usize) {
    let mut clock = Duration::ZERO;
    let mut open: BTreeSet<usize> = BTreeSet::new();
    let mut parked: BTreeMap<usize, u32> = BTreeMap::new();
    let mut holding: BTreeMap<usize, (u32, Duration)> = BTreeMap::new();
    let mut spans: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); fleet];
    let mut batches: BTreeSet<(u32, Duration)> = BTreeSet::new();

    for (i, event) in log.iter().enumerate() {
        let EngineEvent { at, client, kind } = *event;
        // In a round, with no CPU asked for or held.
        let idle = open.contains(&client)
            && !parked.contains_key(&client)
            && !holding.contains_key(&client);
        assert!(
            at >= clock,
            "#{i} {event:?}: earlier than the clock, {clock:?}"
        );
        if !matches!(kind, EngineEventKind::Done { .. }) {
            clock = at;
        }
        match kind {
            EngineEventKind::Arrive => {}
            EngineEventKind::Begin { issued } => {
                assert!(issued <= at, "#{i} {event:?}: begun before it was issued");
                assert!(open.insert(client), "#{i} {event:?}: round already open");
            }
            EngineEventKind::Admit { server, start } => {
                assert!((server as usize) < fleet, "#{i} {event:?}: no such server");
                assert!(idle, "#{i} {event:?}: admit outside an idle round");
                match start {
                    Some(start) => {
                        assert!(start >= at, "#{i} {event:?}: granted in the past");
                        holding.insert(client, (server, start));
                    }
                    None => {
                        parked.insert(client, server);
                    }
                }
            }
            EngineEventKind::Grant { server, enq } => {
                assert_eq!(
                    parked.remove(&client),
                    Some(server),
                    "#{i} {event:?}: grant without a parked admit on that server"
                );
                assert!(enq <= at, "#{i} {event:?}: granted before it was parked");
                holding.insert(client, (server, at));
            }
            EngineEventKind::Batch { server, size } => {
                assert!(size >= 2, "#{i} {event:?}: a batch of one");
                batches.insert((server, at));
            }
            EngineEventKind::Release => {
                let Some((server, start)) = holding.remove(&client) else {
                    panic!("#{i} {event:?}: release without a grant");
                };
                assert!(start <= at, "#{i} {event:?}: released before {start:?}");
                if start < at {
                    spans[server as usize].push((start, at));
                }
            }
            EngineEventKind::Done { served_by, .. } => {
                assert!(idle, "#{i} {event:?}: done outside an idle round");
                assert!(
                    served_by.is_none_or(|s| (s as usize) < fleet),
                    "#{i} {event:?}: no such server"
                );
                open.remove(&client);
            }
        }
    }
    assert!(open.is_empty(), "rounds left open: {open:?}");

    for (server, spans) in spans.iter_mut().enumerate() {
        spans.sort_unstable();
        let mut free_at = Duration::ZERO;
        for together in spans.chunk_by(|a, b| a.0 == b.0) {
            let start = together[0].0;
            assert!(
                start >= free_at,
                "server {server}: a grant at {start:?} overlaps one held until {free_at:?}"
            );
            assert!(
                together.len() == 1 || batches.contains(&(server as u32, start)),
                "server {server}: {} grants share {start:?} without a batch",
                together.len()
            );
            free_at = together.iter().map(|span| span.1).max().unwrap_or(free_at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(ms: u64, client: usize, kind: EngineEventKind) -> EngineEvent {
        EngineEvent {
            at: Duration::from_millis(ms),
            client,
            kind,
        }
    }

    fn admit(ms: u64, client: usize, start_ms: u64) -> EngineEvent {
        let start = Some(Duration::from_millis(start_ms));
        event(ms, client, EngineEventKind::Admit { server: 0, start })
    }

    /// Two clients served back to back by server 0, then `extra`.
    fn log_with(extra: &[EngineEvent]) -> Vec<EngineEvent> {
        let begin = EngineEventKind::Begin {
            issued: Duration::ZERO,
        };
        let done = EngineEventKind::Done {
            round: 1,
            served_by: Some(0),
        };
        let mut log = vec![
            event(0, 0, EngineEventKind::Arrive),
            event(0, 1, EngineEventKind::Arrive),
            event(0, 0, begin),
            event(0, 1, begin),
            admit(10, 0, 10),
            admit(10, 1, 20),
            event(20, 0, EngineEventKind::Release),
            event(35, 0, done),
            event(30, 1, EngineEventKind::Release),
            event(45, 1, done),
        ];
        log.extend_from_slice(extra);
        log
    }

    #[test]
    fn a_sound_log_passes() {
        check_log(&log_with(&[]), 1);
    }

    #[test]
    #[should_panic(expected = "earlier than the clock")]
    fn a_clock_running_back_is_caught() {
        check_log(&log_with(&[event(29, 0, EngineEventKind::Arrive)]), 1);
    }

    #[test]
    #[should_panic(expected = "rounds left open")]
    fn an_unclosed_round_is_caught() {
        let issued = Duration::from_millis(50);
        check_log(
            &log_with(&[event(50, 0, EngineEventKind::Begin { issued })]),
            1,
        );
    }

    #[test]
    #[should_panic(expected = "release without a grant")]
    fn a_second_release_is_caught() {
        check_log(&log_with(&[event(50, 1, EngineEventKind::Release)]), 1);
    }

    #[test]
    #[should_panic(expected = "overlaps one held until")]
    fn overlapping_grants_are_caught() {
        let mut log = log_with(&[]);
        log[5] = admit(10, 1, 15);
        check_log(&log, 1);
    }
}
