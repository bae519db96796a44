//! The measuring side of the ledger: wall-clock spans held in memory,
//! min-of-N micro timing, interleaved A/B pairs, allocation counts and
//! process memory. Nothing here knows about snapedge.

use crate::stats::Summary;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The system allocator with two counters in front: how often the process
/// asked for memory and for how many bytes. The end-to-end timings run
/// under allocator settings that take page faults out of the picture
/// (`worker` in `main.rs`), so the traced run reports what the program asks
/// of the allocator as exact counts instead (`alloc.*` rows).
pub struct CountingAlloc;

// Statistics only: they publish no other data, so `Relaxed` is enough.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method hands its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is the one the caller was promised; the counters
// touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation requests (`alloc`, `alloc_zeroed`, `realloc`) this process
/// has made so far, and the bytes they asked for.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Index of a recorded span (its position in the span file).
pub type SpanIx = u32;

/// "No parent" / "no round" marker in a [`Span`].
pub const NONE: u32 = u32::MAX;

/// One harness-side span around a call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `webapp.delta.capture`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// The span that caused this one, or [`NONE`].
    pub parent: SpanIx,
    /// Spans of one offload round share this id, or [`NONE`].
    pub round_id: u32,
}

impl Span {
    /// Span length in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span recorder. Spans past `cap` are counted, not kept, so a
/// million-call fleet run cannot exhaust memory; per-name totals are the
/// caller's job (see `fleet::Timed`).
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl Spans {
    /// A recorder keeping at most `cap` spans.
    pub fn new(cap: usize) -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::close`]. Returns [`NONE`]
    /// once the recorder is full.
    pub fn open(&mut self, name: &'static str, parent: SpanIx, round_id: u32) -> SpanIx {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            round_id,
        });
        (self.spans.len() - 1) as SpanIx
    }

    /// Closes a span opened by [`Spans::open`].
    pub fn close(&mut self, ix: SpanIx) {
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(ix as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span and hands back its result with the span's
    /// duration in microseconds (measured even when the recorder is full).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanIx,
        round_id: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let ix = self.open(name, parent, round_id);
        let started = Instant::now();
        let out = f();
        let us = started.elapsed().as_secs_f64() * 1e6;
        self.close(ix);
        (out, us)
    }

    /// The instant span times count from, for a recorder-less timer that
    /// hands its spans over later (see [`Spans::adopt`]).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Spans that still fit.
    pub fn room(&self) -> usize {
        self.cap - self.spans.len().min(self.cap)
    }

    /// Takes over spans timed elsewhere against [`Spans::epoch`], making
    /// `parent` their parent.
    pub fn adopt(&mut self, spans: &[Span], parent: SpanIx) {
        for span in spans {
            if self.spans.len() >= self.cap {
                self.dropped += 1;
            } else {
                self.spans.push(Span { parent, ..*span });
            }
        }
    }

    /// Spans kept so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that arrived after the recorder was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The span file: one JSON object holding every kept span as
    /// `{name, start, end, parent, round_id}` (times in ns since the
    /// first span could start; `null` for no parent / no round).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let opt = |v: u32| {
            if v == NONE {
                "null".to_string()
            } else {
                v.to_string()
            }
        };
        let mut out = String::with_capacity(96 * self.spans.len() + 128);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"dropped\":{},\"spans\":[",
            self.dropped
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"round_id\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.round_id)
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Times `f` repeatedly for about `budget` (at least `min_samples`
/// times), each sample being `batch` back-to-back calls, and returns the
/// per-call time of every sample in nanoseconds. One untimed call warms
/// caches first. Micro rows report the minimum with median and quartiles.
pub fn sample_ns<T>(
    budget: Duration,
    min_samples: usize,
    batch: u32,
    mut f: impl FnMut() -> T,
) -> Vec<f64> {
    black_box(f());
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < min_samples || started.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        samples.push(t.elapsed().as_nanos() as f64 / f64::from(batch));
        if samples.len() >= 100_000 {
            break;
        }
    }
    samples
}

/// Outcome of an interleaved A/B comparison.
#[derive(Debug, Clone, Copy)]
pub struct AbResult {
    /// Per-call nanoseconds of side A.
    pub a: Summary,
    /// Per-call nanoseconds of side B.
    pub b: Summary,
    /// Median over pairs of `b / a`.
    pub ratio: Summary,
    /// Pairs in which B was strictly faster than A.
    pub b_wins: usize,
    /// Pairs run.
    pub pairs: usize,
}

/// Runs `pairs` interleaved pairs of `a` and `b`, alternating which side
/// goes first, each side timed over `batch` calls. Ties count for neither.
pub fn ab_pairs<T, U>(
    pairs: usize,
    batch: u32,
    mut a: impl FnMut() -> T,
    mut b: impl FnMut() -> U,
) -> Option<AbResult> {
    let mut time_a = |batch: u32| {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(a());
        }
        t.elapsed().as_nanos() as f64 / f64::from(batch)
    };
    let mut time_b = |batch: u32| {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(b());
        }
        t.elapsed().as_nanos() as f64 / f64::from(batch)
    };
    time_a(1);
    time_b(1);
    let (mut va, mut vb, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut b_wins = 0;
    for pair in 0..pairs {
        let (ta, tb) = if pair % 2 == 0 {
            let ta = time_a(batch);
            (ta, time_b(batch))
        } else {
            let tb = time_b(batch);
            (time_a(batch), tb)
        };
        if tb < ta {
            b_wins += 1;
        }
        va.push(ta);
        vb.push(tb);
        ratios.push(tb / ta);
    }
    Some(AbResult {
        a: Summary::of(&va)?,
        b: Summary::of(&vb)?,
        ratio: Summary::of(&ratios)?,
        b_wins,
        pairs,
    })
}

/// Cost of one `Instant::now()` pair in nanoseconds — what every span
/// adds to the interval it measures.
pub fn clock_ns() -> Vec<f64> {
    sample_ns(Duration::from_millis(20), 50, 1000, || {
        Instant::now().elapsed()
    })
}

/// Peak resident set size of this process (`VmHWM`) in MB, or `None`
/// where `/proc` is not available.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_cap() {
        let mut spans = Spans::new(2);
        let root = spans.open("unit", NONE, NONE);
        let (v, us) = spans.time("layer", root, 7, || 41 + 1);
        spans.close(root);
        assert_eq!(v, 42);
        assert!(us >= 0.0);
        assert_eq!(spans.open("late", root, 7), NONE);
        assert_eq!(spans.dropped(), 1);
        let kept = spans.spans();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[1].parent, root);
        assert_eq!(kept[1].round_id, 7);
        assert!(kept[0].end_ns >= kept[1].end_ns);
        let json = spans.to_json("w", 3);
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"round_id\":7"));
        assert!(json.contains("\"dropped\":1"));
    }

    #[test]
    fn ab_pairs_counts_wins_and_alternates() {
        let r = ab_pairs(6, 1, || std::thread::sleep(Duration::from_millis(2)), || 1).unwrap();
        assert_eq!(r.pairs, 6);
        assert_eq!(r.b_wins, 6);
        assert!(r.ratio.median < 1.0);
    }

    #[test]
    fn allocation_counters_see_a_vec() {
        // Other tests allocate on their own threads meanwhile: at least.
        let (n0, b0) = alloc_counts();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let (n1, b1) = alloc_counts();
        assert!(n1 > n0 && b1 >= b0 + 4096, "{n0} {n1} {b0} {b1}");
        drop(v);
    }

    #[test]
    fn sample_ns_honours_the_minimum_sample_count() {
        let s = sample_ns(Duration::ZERO, 5, 3, || 1 + 1);
        assert_eq!(s.len(), 5);
    }
}
