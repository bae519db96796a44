//! The typed event record.

use std::time::Duration;

/// Which machine an event happened on (or the wire between them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lane {
    /// The client board.
    Client,
    /// The network.
    Network,
    /// The edge server.
    Server,
}

impl Lane {
    /// Stable lowercase name (used by the JSON-lines encoding).
    pub fn as_str(self) -> &'static str {
        match self {
            Lane::Client => "client",
            Lane::Network => "network",
            Lane::Server => "server",
        }
    }

    /// Parses the stable name back.
    pub fn parse(s: &str) -> Option<Lane> {
        match s {
            "client" => Some(Lane::Client),
            "network" => Some(Lane::Network),
            "server" => Some(Lane::Server),
            _ => None,
        }
    }
}

/// What kind of work an event covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// DNN (or app) execution.
    Exec,
    /// One layer of a DNN execution (nested under an [`EventKind::Exec`]
    /// span).
    Layer,
    /// Snapshot serialization.
    Capture,
    /// Snapshot parse-and-execute.
    Restore,
    /// Bytes occupying a link (serialization + propagation).
    Transfer,
    /// Waiting for a busy link (FIFO queueing, e.g. a snapshot stuck
    /// behind a still-uploading model).
    Queue,
    /// Compression or decompression CPU time.
    Codec,
    /// Model pre-sending (Section III-B.1 of the paper).
    ModelUpload,
    /// An injected or encountered fault: a link outage stalling a
    /// transfer, a corrupted payload, a degraded window. The span covers
    /// the virtual time the fault cost (instant for a refused transfer).
    Fault,
    /// A re-attempt of a failed operation (instant marker; the re-run
    /// work records its own spans).
    Retry,
    /// Virtual-time sleep between retry attempts (exponential backoff or
    /// waiting out a known outage window).
    Backoff,
    /// Graceful degradation to local execution after the retry budget or
    /// deadline was exhausted (Section IV-A's "better for the client to
    /// execute the DNN locally").
    Fallback,
    /// A pre-ship gate's verdict, consulted before any bytes commit to
    /// the wire (instant marker named
    /// `gate:<effects|plan|verify>:<ship|local|reject>:<lhs>:<rhs>`, the
    /// two numbers being what the gate compared; the verify gate's
    /// `bytes` is the length of the source it checked). Only a configured
    /// gate emits one, so default traces carry none.
    Gate,
    /// The fleet picked an edge server (instant marker; the event name
    /// carries the chosen server, e.g. `"server_select:edge-b"`).
    ServerSelect,
    /// An automatic migration to another edge server after the retry
    /// budget against the current one exhausted (instant marker; the
    /// event name carries old and new server, e.g.
    /// `"handoff:edge-a->edge-b"`). The delta agreement is dropped and
    /// the model is re-pre-sent as part of the handoff.
    Handoff,
    /// A request joined a busy server's run queue (instant marker
    /// emitted by the fleet engine when an uplinked snapshot finds the
    /// server's CPU occupied by another client).
    Enqueue,
    /// A queued request was admitted to the server CPU (instant marker;
    /// the matching [`EventKind::QueueWait`] span covers the wait).
    Dequeue,
    /// Time a request spent waiting for a busy server CPU — the queueing
    /// delay that emerges from concurrent sessions sharing a fleet
    /// (contrast with [`EventKind::Queue`], which is *link* FIFO
    /// queueing).
    QueueWait,
    /// A per-tenant resource-meter reading after a metered execution
    /// segment (instant marker; `bytes` carries the ops charged in that
    /// segment). Only emitted when metering is enabled, so unmetered
    /// traces are byte-identical to pre-metering runs.
    MeterTick,
    /// A tenant exceeded one of its resource caps and was killed on the
    /// executing server (instant marker; the event name carries the
    /// tripped resource, e.g. `"meter_exhausted:ops"`).
    MeterExhausted,
    /// A compute admission parked behind a busy server under fair-share
    /// scheduling (instant marker). Only emitted when fair share or
    /// batching is enabled.
    AdmitDeferred,
    /// Co-queued inference grants merged into one server-side batch
    /// (instant marker; the event name carries the batch size, e.g.
    /// `"batch:3"`). Only emitted when a batch window is configured.
    BatchFormed,
    /// Anything else (markers, app phases, custom spans).
    Other,
}

impl EventKind {
    /// Every kind, in declaration order: the one table [`EventKind::parse`]
    /// and the round-trip test read.
    pub const ALL: [EventKind; 23] = [
        EventKind::Exec,
        EventKind::Layer,
        EventKind::Capture,
        EventKind::Restore,
        EventKind::Transfer,
        EventKind::Queue,
        EventKind::Codec,
        EventKind::ModelUpload,
        EventKind::Fault,
        EventKind::Retry,
        EventKind::Backoff,
        EventKind::Fallback,
        EventKind::Gate,
        EventKind::ServerSelect,
        EventKind::Handoff,
        EventKind::Enqueue,
        EventKind::Dequeue,
        EventKind::QueueWait,
        EventKind::MeterTick,
        EventKind::MeterExhausted,
        EventKind::AdmitDeferred,
        EventKind::BatchFormed,
        EventKind::Other,
    ];

    /// Stable lowercase name (used by the JSON-lines encoding).
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Exec => "exec",
            EventKind::Layer => "layer",
            EventKind::Capture => "capture",
            EventKind::Restore => "restore",
            EventKind::Transfer => "transfer",
            EventKind::Queue => "queue",
            EventKind::Codec => "codec",
            EventKind::ModelUpload => "model_upload",
            EventKind::Fault => "fault",
            EventKind::Retry => "retry",
            EventKind::Backoff => "backoff",
            EventKind::Fallback => "fallback",
            EventKind::Gate => "gate",
            EventKind::ServerSelect => "server_select",
            EventKind::Handoff => "handoff",
            EventKind::Enqueue => "enqueue",
            EventKind::Dequeue => "dequeue",
            EventKind::QueueWait => "queue_wait",
            EventKind::MeterTick => "meter_tick",
            EventKind::MeterExhausted => "meter_exhausted",
            EventKind::AdmitDeferred => "admit_deferred",
            EventKind::BatchFormed => "batch_formed",
            EventKind::Other => "other",
        }
    }

    /// Parses the stable name back.
    pub fn parse(s: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|kind| kind.as_str() == s)
    }
}

/// One recorded event: a named interval of virtual time on a lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Event name (phase names like `"exec_server"`, layer names, link
    /// labels).
    pub name: String,
    /// Where it happened.
    pub lane: Lane,
    /// What kind of work it was.
    pub kind: EventKind,
    /// Virtual start time.
    pub start: Duration,
    /// Virtual end time (`>= start`).
    pub end: Duration,
    /// Payload bytes involved (transfers, captures, codecs), if any.
    pub bytes: Option<u64>,
    /// Span nesting depth at record time: 0 for top-level phases, 1+ for
    /// refinements (per-layer timings inside an exec span, link-level
    /// events inside a transfer phase).
    pub depth: u32,
}

impl Event {
    /// `end - start`.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for lane in [Lane::Client, Lane::Network, Lane::Server] {
            assert_eq!(Lane::parse(lane.as_str()), Some(lane));
        }
        for (i, kind) in EventKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "ALL is in declaration order, no gaps");
            assert_eq!(EventKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(Lane::parse("moon"), None);
        assert_eq!(EventKind::parse("nap"), None);
    }

    #[test]
    fn duration_is_end_minus_start() {
        let e = Event {
            name: "x".into(),
            lane: Lane::Client,
            kind: EventKind::Exec,
            start: Duration::from_millis(3),
            end: Duration::from_millis(10),
            bytes: None,
            depth: 0,
        };
        assert_eq!(e.duration(), Duration::from_millis(7));
    }
}
