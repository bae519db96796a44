//! The recording handle.

use crate::event::{Event, EventKind, Lane};
use crate::trace::Trace;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// Token returned by [`Tracer::begin`], consumed by [`Tracer::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

#[derive(Debug)]
struct OpenSpan {
    id: u64,
    name: String,
    lane: Lane,
    kind: EventKind,
    start: Duration,
    bytes: Option<u64>,
}

#[derive(Debug, Default)]
struct State {
    events: Vec<Event>,
    open: Vec<OpenSpan>,
    next_span: u64,
}

/// A cheap cloneable handle recording [`Event`]s against virtual time.
///
/// Cloning yields a handle to the *same* buffer (exactly like `SimClock`
/// clones share one timeline), so the scenario driver, both endpoints,
/// both links and both model hosts all append to a single trace.
///
/// Timestamps are plain [`Duration`]s supplied by the caller — the tracer
/// never reads a wall clock, keeping every run bit-for-bit reproducible.
/// The program is single-threaded, so the buffer is an `Rc<RefCell<_>>`;
/// a disabled tracer has none.
#[derive(Debug, Clone)]
pub struct Tracer {
    state: Option<Rc<RefCell<State>>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A fresh, enabled tracer with an empty buffer.
    pub fn new() -> Tracer {
        Tracer {
            state: Some(Rc::default()),
        }
    }

    /// A no-op tracer: every record/begin/end is dropped. Use where a
    /// tracer is required but observability is not wanted (hot loops,
    /// standalone endpoints).
    pub fn disabled() -> Tracer {
        Tracer { state: None }
    }

    /// Whether events are being kept.
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Records a closed event. `end < start` is clamped to an instant
    /// event at `start` (virtual time is monotonic; a backwards interval
    /// is always a caller bug we prefer visible-but-harmless).
    pub fn record(&self, name: &str, lane: Lane, kind: EventKind, start: Duration, end: Duration) {
        self.record_bytes(name, lane, kind, start, end, None);
    }

    /// Records a closed event carrying a payload byte count.
    pub fn record_bytes(
        &self,
        name: &str,
        lane: Lane,
        kind: EventKind,
        start: Duration,
        end: Duration,
        bytes: Option<u64>,
    ) {
        let Some(state) = &self.state else {
            return;
        };
        let mut state = state.borrow_mut();
        let depth = state.open.len() as u32;
        state.events.push(Event {
            name: name.to_string(),
            lane,
            kind,
            start,
            end: end.max(start),
            bytes,
            depth,
        });
    }

    /// Opens a nested span. Events recorded (and spans begun) before the
    /// matching [`Tracer::end`] get `depth + 1`.
    pub fn begin(&self, name: &str, lane: Lane, kind: EventKind, start: Duration) -> SpanId {
        self.begin_bytes(name, lane, kind, start, None)
    }

    /// Opens a nested span carrying a payload byte count.
    pub fn begin_bytes(
        &self,
        name: &str,
        lane: Lane,
        kind: EventKind,
        start: Duration,
        bytes: Option<u64>,
    ) -> SpanId {
        let Some(state) = &self.state else {
            return SpanId(u64::MAX);
        };
        let mut state = state.borrow_mut();
        let id = state.next_span;
        state.next_span += 1;
        state.open.push(OpenSpan {
            id,
            name: name.to_string(),
            lane,
            kind,
            start,
            bytes,
        });
        SpanId(id)
    }

    /// Closes a span, recording its event at the depth it was opened at.
    /// Any spans opened after it and still open are closed with it (at
    /// `end`) — strict nesting is enforced rather than trusted.
    pub fn end(&self, id: SpanId, end: Duration) {
        let Some(state) = &self.state else {
            return;
        };
        let mut state = state.borrow_mut();
        if !state.open.iter().any(|s| s.id == id.0) {
            return; // already closed (by an enclosing span) — ignore
        }
        // Ids grow with every `begin`, so the spans opened after this one
        // are exactly those above it on the stack.
        while let Some(span) = state.open.pop_if(|s| s.id >= id.0) {
            let depth = state.open.len() as u32;
            state.events.push(Event {
                name: span.name,
                lane: span.lane,
                kind: span.kind,
                start: span.start,
                end: end.max(span.start),
                bytes: span.bytes,
                depth,
            });
        }
    }

    /// Number of closed events recorded so far.
    pub fn len(&self) -> usize {
        self.state
            .as_ref()
            .map_or(0, |state| state.borrow().events.len())
    }

    /// `true` when no closed events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A [`Trace`] of everything recorded so far (open spans are *not*
    /// included), sorted by start time then depth. The tracer keeps
    /// recording; call again for a later snapshot.
    pub fn finish(&self) -> Trace {
        let events = self
            .state
            .as_ref()
            .map(|state| state.borrow().events.clone());
        Trace::from_events(events.unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn record_keeps_order_and_depth_zero() {
        let t = Tracer::new();
        t.record("a", Lane::Client, EventKind::Exec, ms(0), ms(1));
        t.record("b", Lane::Server, EventKind::Exec, ms(1), ms(2));
        let trace = t.finish();
        assert_eq!(trace.events().len(), 2);
        assert!(trace.events().iter().all(|e| e.depth == 0));
    }

    #[test]
    fn span_nesting_assigns_depths() {
        let t = Tracer::new();
        let outer = t.begin("phase", Lane::Client, EventKind::Exec, ms(0));
        t.record("layer0", Lane::Client, EventKind::Layer, ms(0), ms(2));
        let inner = t.begin("sub", Lane::Client, EventKind::Other, ms(2));
        t.record("layer1", Lane::Client, EventKind::Layer, ms(2), ms(3));
        t.end(inner, ms(3));
        t.end(outer, ms(4));
        let trace = t.finish();
        let depth = |name: &str| {
            trace
                .events()
                .iter()
                .find(|e| e.name == name)
                .unwrap()
                .depth
        };
        assert_eq!(depth("phase"), 0);
        assert_eq!(depth("layer0"), 1);
        assert_eq!(depth("sub"), 1);
        assert_eq!(depth("layer1"), 2);
    }

    #[test]
    fn unbalanced_spans_are_closed_by_the_enclosing_end() {
        let t = Tracer::new();
        let outer = t.begin("outer", Lane::Client, EventKind::Other, ms(0));
        let _leaked = t.begin("leaked", Lane::Client, EventKind::Other, ms(1));
        t.end(outer, ms(5));
        let trace = t.finish();
        assert_eq!(trace.events().len(), 2);
        let leaked = trace.events().iter().find(|e| e.name == "leaked").unwrap();
        assert_eq!(leaked.end, ms(5));
        assert_eq!(leaked.depth, 1);
    }

    #[test]
    fn ending_twice_is_harmless() {
        let t = Tracer::new();
        let s = t.begin("s", Lane::Client, EventKind::Other, ms(0));
        t.end(s, ms(1));
        t.end(s, ms(9));
        assert_eq!(t.finish().events().len(), 1);
        assert_eq!(t.finish().events()[0].end, ms(1));
    }

    #[test]
    fn backwards_intervals_are_clamped() {
        let t = Tracer::new();
        t.record("x", Lane::Client, EventKind::Other, ms(5), ms(3));
        assert_eq!(t.finish().events()[0].duration(), Duration::ZERO);
    }

    #[test]
    fn disabled_tracer_drops_everything() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.record("x", Lane::Client, EventKind::Exec, ms(0), ms(1));
        let s = t.begin("y", Lane::Client, EventKind::Exec, ms(1));
        t.end(s, ms(2));
        assert!(t.is_empty());
        assert!(t.finish().events().is_empty());
    }

    #[test]
    fn clones_share_the_buffer() {
        let t = Tracer::new();
        let u = t.clone();
        t.record("a", Lane::Client, EventKind::Exec, ms(0), ms(1));
        u.record("b", Lane::Server, EventKind::Exec, ms(1), ms(2));
        assert_eq!(t.len(), 2);
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn window_filters_events() {
        let t = Tracer::new();
        t.record("early", Lane::Client, EventKind::Exec, ms(0), ms(1));
        t.record("mid", Lane::Client, EventKind::Exec, ms(2), ms(3));
        t.record("late", Lane::Client, EventKind::Exec, ms(8), ms(9));
        let w = t.finish().window(ms(2), ms(5));
        assert_eq!(w.events().len(), 1);
        assert_eq!(w.events()[0].name, "mid");
    }
}
