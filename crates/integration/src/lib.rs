//! Integration test host crate; test sources live in `/tests`. What more
//! than one of them needs lives here.

mod replay;

pub use replay::{Leg, LocalOracle, Replay, Round};
use snapedge_core::{
    edge_server_x86, ArrivalProcess, Engine, EngineEvent, EngineEventKind, FleetReport,
};
use snapedge_core::{MeterLimits, RetryPolicy, ServerSpec, Workload};
use snapedge_net::LinkConfig;
use snapedge_trace::{Event, EventKind, Trace};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

/// A horizon long enough that round caps, not traffic, end every
/// closed-loop run.
pub const LONG: Duration = Duration::from_secs(100_000);

/// Every client clicks again the moment its round ends.
pub const BACK_TO_BACK: ArrivalProcess = ArrivalProcess::ClosedLoop {
    think: Duration::ZERO,
};

/// `s` seconds.
pub fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// The paper's edge server (x86 behind 30 Mbps Wi-Fi) under `name`.
pub fn tiny_spec(name: &str) -> ServerSpec {
    ServerSpec::new(name, edge_server_x86(), LinkConfig::wifi_30mbps())
}

/// The default retry policy with `n` attempts per transfer.
pub fn attempts(n: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts: n,
        ..RetryPolicy::default()
    }
}

/// Caps far above anything the apps reach: a meter that only counts.
pub fn generous() -> MeterLimits {
    MeterLimits::default()
        .with_ops(u64::MAX / 2)
        .with_heap_cells(usize::MAX / 2)
        .with_string_len(usize::MAX / 2)
        .with_call_depth(usize::MAX / 2)
        .with_time_slice(secs(3600.0))
}

/// How many of `trace`'s events are of `kind`.
pub fn count_kind(trace: &Trace, kind: EventKind) -> usize {
    trace.events().iter().filter(|e| e.kind == kind).count()
}

/// A gate event's `(gate, verdict, lhs, rhs)`.
pub type GateReading<'a> = (&'a str, &'a str, u64, u64);

/// A gate event's name, `gate:<gate>:<verdict>:<lhs>:<rhs>`, read as
/// its [`GateReading`]; `None` for any other name.
pub fn gate_reading(name: &str) -> Option<GateReading<'_>> {
    let mut parts = name.strip_prefix("gate:")?.split(':');
    let (gate, verdict) = (parts.next()?, parts.next()?);
    let lhs = parts.next()?.parse().ok()?;
    let rhs = parts.next()?.parse().ok()?;
    parts.next().is_none().then_some((gate, verdict, lhs, rhs))
}

/// The names of `trace`'s events of `kind`, in order.
pub fn names_of_kind(trace: &Trace, kind: EventKind) -> Vec<String> {
    let events = trace.events().iter().filter(|e| e.kind == kind);
    events.map(|e| e.name.clone()).collect()
}

/// The primary uplink's wire transfers in time order: `(start, end,
/// bytes)`.
pub fn uplink_transfers(trace: &Trace) -> Vec<(Duration, Duration, u64)> {
    let uplink = |e: &&Event| e.name == "uplink" && e.kind == EventKind::Transfer;
    let events = trace.events().iter().filter(uplink);
    let mut transfers: Vec<_> = events
        .map(|e| (e.start, e.end, e.bytes.unwrap_or(0)))
        .collect();
    transfers.sort();
    transfers
}

/// When each of the primary uplink's wire transfers started, in order.
pub fn uplink_transfer_starts(trace: &Trace) -> Vec<Duration> {
    uplink_transfers(trace).into_iter().map(|t| t.0).collect()
}

/// The `[start, end]` window of the last uplink transfer: in a clean
/// one-click run, the snapshot upload (the model pre-send comes first).
///
/// # Panics
///
/// When the uplink carried nothing.
pub fn snapshot_up_window(trace: &Trace) -> (Duration, Duration) {
    let last = uplink_transfers(trace).pop();
    let (start, end, _) = last.expect("the run carries a snapshot upload");
    (start, end)
}

/// Runs `engine` to completion and holds its event log to the engine's
/// invariants ([`check_log`]) and its report to the log
/// ([`check_report`]).
///
/// # Panics
///
/// When the run fails or its log breaks an invariant.
pub fn run_checked<W: Workload>(engine: &mut Engine<W>) -> FleetReport {
    let report = engine.run().expect("the fleet run completes");
    check_log(engine.event_log(), report.servers.len());
    check_report(engine.event_log(), &report);
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

/// Asserts that a drained run lost no request and that its report
/// counts what its log shows:
///
/// * per client, every `Arrive` is taken up, in arrival order, by the
///   `Begin` issued at its arrival time, and each of that client's
///   `Done`s numbers its rounds 1, 2, 3, …; with [`check_log`]'s one
///   `Done` per `Begin`, every arrival ends completed or fallen back,
///   the ones still in flight at the horizon included (the run drains
///   them);
/// * the report's `completed` and latency sample count are the `Done`s,
///   its `fallbacks` are among the rounds the client served itself
///   (`served_by` is `None`), its servers' `admits` add up to the
///   logged `Admit`s and its makespan is the last completion.
///
/// # Panics
///
/// On the first request or count that does not add up.
pub fn check_report(log: &[EngineEvent], report: &FleetReport) {
    let mut waiting: BTreeMap<usize, VecDeque<Duration>> = BTreeMap::new();
    let mut rounds: BTreeMap<usize, u32> = BTreeMap::new();
    let (mut done, mut local, mut admits) = (0, 0, 0);
    let mut makespan = Duration::ZERO;
    for (i, event) in log.iter().enumerate() {
        let EngineEvent { at, client, kind } = *event;
        match kind {
            EngineEventKind::Arrive => waiting.entry(client).or_default().push_back(at),
            EngineEventKind::Begin { issued } => assert_eq!(
                waiting.get_mut(&client).and_then(VecDeque::pop_front),
                Some(issued),
                "#{i} {event:?}: not the client's oldest waiting arrival"
            ),
            EngineEventKind::Admit { .. } => admits += 1,
            EngineEventKind::Done { round, served_by } => {
                let last = rounds.entry(client).or_default();
                *last += 1;
                assert_eq!(round, *last, "#{i} {event:?}: round numbers skip");
                done += 1;
                local += usize::from(served_by.is_none());
                makespan = makespan.max(at);
            }
            EngineEventKind::Grant { .. }
            | EngineEventKind::Batch { .. }
            | EngineEventKind::Release => {}
        }
    }
    let lost: Vec<(usize, usize)> = waiting
        .iter()
        .filter(|(_, queue)| !queue.is_empty())
        .map(|(&client, queue)| (client, queue.len()))
        .collect();
    assert!(
        lost.is_empty(),
        "arrivals never begun (client, count): {lost:?}"
    );
    assert_eq!(report.completed, done, "completed is not the logged Dones");
    assert_eq!(report.latency.count, done, "one sojourn sample per Done");
    assert!(
        report.fallbacks <= local,
        "{} fallbacks, but only {local} rounds ended on the client",
        report.fallbacks
    );
    let reported: usize = report.servers.iter().map(|s| s.admits).sum();
    assert_eq!(reported, admits, "server admits are not the logged Admits");
    assert_eq!(report.makespan, makespan, "makespan is not the last Done");
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

    /// What [`log_with`]'s run reports.
    fn report() -> FleetReport {
        let ms = Duration::from_millis;
        FleetReport {
            clients: 2,
            completed: 2,
            fallbacks: 0,
            makespan: ms(45),
            throughput_rps: 2.0 / 0.045,
            latency: snapedge_trace::Summary::of(&[ms(35), ms(45)]),
            queue_wait: snapedge_trace::Summary::of(&[ms(0), ms(10)]),
            servers: vec![snapedge_core::ServerLoad {
                name: "edge".into(),
                rounds: 2,
                busy: ms(20),
                utilization: 20.0 / 45.0,
                admits: 2,
                rejects: 0,
                batches: 0,
            }],
            total_ops: 0,
            peak_heap: 0,
            fairness: 1.0,
            max_batch: 0,
        }
    }

    #[test]
    fn a_sound_log_passes() {
        check_log(&log_with(&[]), 1);
        check_report(&log_with(&[]), &report());
    }

    #[test]
    #[should_panic(expected = "arrivals never begun (client, count): [(1, 1)]")]
    fn a_lost_arrival_is_caught() {
        check_report(
            &log_with(&[event(50, 1, EngineEventKind::Arrive)]),
            &report(),
        );
    }

    #[test]
    #[should_panic(expected = "not the client's oldest waiting arrival")]
    fn a_begin_without_its_arrival_is_caught() {
        let mut log = log_with(&[]);
        log[3] = event(
            0,
            1,
            EngineEventKind::Begin {
                issued: Duration::from_millis(5),
            },
        );
        check_report(&log, &report());
    }

    #[test]
    #[should_panic(expected = "fallbacks, but only 0 rounds ended on the client")]
    fn a_fallback_served_remotely_is_caught() {
        check_report(
            &log_with(&[]),
            &FleetReport {
                fallbacks: 1,
                ..report()
            },
        );
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
