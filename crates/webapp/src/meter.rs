//! Per-tenant runtime metering: the dynamic half of snapshot sandboxing.
//!
//! The static verifier (`snapedge-analyze`) proves a snapshot
//! *self-contained* before it ships, but it cannot bound what the code
//! *does* at runtime — unbounded loops, heap blow-up, deep recursion.
//! A [`Meter`] closes that gap the way rhai's safety layer does for
//! embedded scripting: the interpreter charges every statement/expression
//! step, host-API call and snapshot-capture cell against a [`MeterLimits`]
//! budget, and the first cap to trip raises a typed
//! [`WebError::ResourceExhausted`] that the offload layer classifies as
//! fatal **for that server only** (kill the tenant there, fail over or run
//! locally — never retry).
//!
//! The meter is *environment*, not app state: snapshots never serialize
//! it, and each server installs its own limits over migrated state. With
//! no meter installed (the default) the interpreter behaves bit-for-bit
//! as before.

use crate::WebError;
use std::time::Duration;

/// Resource caps for one tenant's execution on one browser.
///
/// Every cap is optional; `None` means unmetered for that axis. An
/// all-`None` value (the [`Default`]) still counts usage — installing it
/// turns on observability (`ops_used` / `peak_heap` reporting and
/// `meter_tick` trace events) without ever exhausting.
///
/// The textual form used by the CLI and by `ServerSpec` fleet plans is
/// `ops=N,heap=N,str=N,depth=N,slice=MS` (any subset, `,` or `+`
/// separated); see [`MeterLimits::parse`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MeterLimits {
    /// Interpreter op budget per tenant (statements/expressions evaluated,
    /// host-API calls, snapshot cells serialized).
    pub max_ops: Option<u64>,
    /// Heap size cap, in heap *cells* (objects, arrays,
    /// `Float32Array`s — the unit the snapshot serializer counts). It
    /// counts cell ids ever allocated ([`crate::Heap::len`]), freed ones
    /// included: collection never lowers it.
    pub max_heap_cells: Option<usize>,
    /// Longest string (bytes) the tenant may build via concatenation.
    pub max_string_len: Option<usize>,
    /// Deepest MiniJS call stack the tenant may reach at runtime
    /// (distinct from the parser's fixed nesting limit).
    pub max_call_depth: Option<usize>,
    /// Virtual-time slice per compute grant: a server kills the job once
    /// its execution phase has consumed this much virtual time.
    pub time_slice: Option<Duration>,
}

impl MeterLimits {
    /// Sets the op budget.
    pub fn with_ops(mut self, max_ops: u64) -> Self {
        self.max_ops = Some(max_ops);
        self
    }

    /// Sets the heap-cell cap.
    pub fn with_heap_cells(mut self, max_cells: usize) -> Self {
        self.max_heap_cells = Some(max_cells);
        self
    }

    /// Sets the string-length cap (bytes).
    pub fn with_string_len(mut self, max_len: usize) -> Self {
        self.max_string_len = Some(max_len);
        self
    }

    /// Sets the call-depth cap.
    pub fn with_call_depth(mut self, max_depth: usize) -> Self {
        self.max_call_depth = Some(max_depth);
        self
    }

    /// Sets the virtual-time slice.
    pub fn with_time_slice(mut self, slice: Duration) -> Self {
        self.time_slice = Some(slice);
        self
    }

    /// Parses `ops=N,heap=N,str=N,depth=N,slice=MS` (any subset; `slice`
    /// is fractional milliseconds). `+` is accepted as a separator too, so
    /// specs can nest inside `,`-delimited server plans. An empty spec is
    /// the all-`None` observability-only meter.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field (unknown key,
    /// non-numeric or non-positive value).
    pub fn parse(spec: &str) -> Result<MeterLimits, String> {
        let mut limits = MeterLimits::default();
        for part in spec.split([',', '+']) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("meter field {part:?} is not key=value"))?;
            match key {
                "ops" => limits.max_ops = Some(parse_count(value, "ops")?),
                "heap" => limits.max_heap_cells = Some(parse_count(value, "heap")? as usize),
                "str" => limits.max_string_len = Some(parse_count(value, "str")? as usize),
                "depth" => limits.max_call_depth = Some(parse_count(value, "depth")? as usize),
                "slice" => {
                    let ms: f64 = value
                        .parse()
                        .map_err(|_| format!("invalid meter slice {value:?}"))?;
                    if !ms.is_finite() || ms <= 0.0 {
                        return Err(format!("meter slice must be positive, got {value:?}"));
                    }
                    let slice = Duration::try_from_secs_f64(ms / 1000.0)
                        .map_err(|_| format!("meter slice {value:?} is out of range"))?;
                    limits.time_slice = Some(slice);
                }
                other => {
                    return Err(format!(
                        "unknown meter field {other:?} (expected ops/heap/str/depth/slice)"
                    ))
                }
            }
        }
        Ok(limits)
    }

    /// Renders the spec back in [`MeterLimits::parse`] form
    /// (`parse(format(x)) == x` exactly).
    pub fn format(&self) -> String {
        let mut parts = Vec::new();
        if let Some(n) = self.max_ops {
            parts.push(format!("ops={n}"));
        }
        if let Some(n) = self.max_heap_cells {
            parts.push(format!("heap={n}"));
        }
        if let Some(n) = self.max_string_len {
            parts.push(format!("str={n}"));
        }
        if let Some(n) = self.max_call_depth {
            parts.push(format!("depth={n}"));
        }
        if let Some(d) = self.time_slice {
            parts.push(format!("slice={}", d.as_secs_f64() * 1000.0));
        }
        parts.join(",")
    }
}

/// Runtime metering state for one browser: a [`MeterLimits`] budget plus
/// the usage counters charged against it.
///
/// Installed via `Browser::set_meter`; the interpreter charges it from
/// `bump_steps`, host-API dispatch and snapshot capture. `ops` counts the
/// current *segment* (one script load / event-loop drain — reset wherever
/// the step counter resets) while `total_ops` and `peak_heap` are
/// monotone over the browser's lifetime, which is what per-round
/// reporting reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Meter {
    limits: MeterLimits,
    ops: u64,
    total_ops: u64,
    peak_heap: usize,
    depth: usize,
}

impl Meter {
    /// A fresh meter with zeroed counters.
    pub fn new(limits: MeterLimits) -> Meter {
        Meter {
            limits,
            ops: 0,
            total_ops: 0,
            peak_heap: 0,
            depth: 0,
        }
    }

    /// The configured caps.
    pub fn limits(&self) -> &MeterLimits {
        &self.limits
    }

    /// Ops charged in the current segment (since the last script load /
    /// event-loop drain started).
    pub fn run_ops(&self) -> u64 {
        self.ops
    }

    /// Ops charged over the browser's lifetime.
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// Largest heap (in cells) observed at any charge point.
    pub fn peak_heap(&self) -> usize {
        self.peak_heap
    }

    /// Starts a new charging segment (mirrors the interpreter's step-count
    /// reset). Also clears the call depth so a previous segment's abort
    /// cannot leak frames into this one.
    pub(crate) fn begin_segment(&mut self) {
        self.ops = 0;
        self.depth = 0;
    }

    /// Charges `ops` interpreter operations and observes the current heap
    /// size, failing on the op budget or the heap-cell cap.
    pub(crate) fn charge(&mut self, ops: u64, heap_cells: usize) -> Result<(), WebError> {
        self.ops += ops;
        self.total_ops += ops;
        if heap_cells > self.peak_heap {
            self.peak_heap = heap_cells;
        }
        if let Some(cap) = self.limits.max_ops {
            if self.ops > cap {
                return Err(exhausted("ops", cap, self.ops));
            }
        }
        if let Some(cap) = self.limits.max_heap_cells {
            if heap_cells > cap {
                return Err(exhausted("heap", cap as u64, heap_cells as u64));
            }
        }
        Ok(())
    }

    /// `n` unit charges at one heap size — what the interpreter owes for a
    /// run of steps that allocates nothing — stopping where `n` calls of
    /// `charge(1, heap_cells)` would: on failure, returns how many units
    /// were charged (the failing one included) with the error.
    pub(crate) fn charge_units(
        &mut self,
        n: u64,
        heap_cells: usize,
    ) -> Result<(), (u64, WebError)> {
        if n == 0 {
            return Ok(());
        }
        // The heap cap sees the same size every time, so it can only trip
        // on the first unit; the op cap trips on the first unit past it.
        let heap_trips = self
            .limits
            .max_heap_cells
            .is_some_and(|cap| heap_cells > cap);
        let ops_trip_at = self.limits.max_ops.map_or(u64::MAX, |cap| {
            cap.saturating_sub(self.ops).saturating_add(1)
        });
        let units = if heap_trips { 1 } else { n.min(ops_trip_at) };
        // All but the last unit are known to pass; the last is a plain
        // `charge`, which also owns both error values.
        self.ops += units - 1;
        self.total_ops += units - 1;
        self.charge(1, heap_cells).map_err(|e| (units, e))
    }

    /// Enters a MiniJS function call, failing past the call-depth cap.
    pub(crate) fn enter_call(&mut self) -> Result<(), WebError> {
        self.depth += 1;
        if let Some(cap) = self.limits.max_call_depth {
            if self.depth > cap {
                return Err(exhausted("depth", cap as u64, self.depth as u64));
            }
        }
        Ok(())
    }

    /// Leaves a MiniJS function call (also runs on error paths, so depth
    /// stays balanced when a callee fails).
    pub(crate) fn exit_call(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    /// Checks a freshly-built string against the length cap.
    pub(crate) fn check_string(&self, len: usize) -> Result<(), WebError> {
        if let Some(cap) = self.limits.max_string_len {
            if len > cap {
                return Err(exhausted("string", cap as u64, len as u64));
            }
        }
        Ok(())
    }
}

fn parse_count(value: &str, key: &str) -> Result<u64, String> {
    let n: u64 = value
        .parse()
        .map_err(|_| format!("invalid meter {key} {value:?}"))?;
    if n == 0 {
        return Err(format!("meter {key} must be positive"));
    }
    Ok(n)
}

fn exhausted(resource: &str, limit: u64, used: u64) -> WebError {
    WebError::ResourceExhausted {
        resource: resource.to_string(),
        limit,
        used,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_format_roundtrip() {
        for spec in [
            "",
            "ops=1000",
            "ops=5,heap=10,str=64,depth=8,slice=2.5",
            "slice=0.1",
            "heap=3+depth=2", // `+` separator for nesting inside server plans
        ] {
            let limits = MeterLimits::parse(spec).unwrap();
            let reparsed = MeterLimits::parse(&limits.format()).unwrap();
            assert_eq!(limits, reparsed, "{spec}");
        }
        assert_eq!(
            MeterLimits::parse("ops=5,slice=2.5").unwrap().format(),
            "ops=5,slice=2.5"
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "ops",
            "ops=",
            "ops=x",
            "ops=0",
            "ops=-3",
            "heap=0",
            "slice=0",
            "slice=-1",
            "slice=nope",
            "watts=9",
        ] {
            assert!(MeterLimits::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn empty_spec_is_observability_only() {
        let limits = MeterLimits::parse("").unwrap();
        assert_eq!(limits, MeterLimits::default());
        let mut meter = Meter::new(limits);
        for _ in 0..10_000 {
            meter.charge(1, 999).unwrap();
        }
        assert_eq!(meter.total_ops(), 10_000);
        assert_eq!(meter.peak_heap(), 999);
    }

    #[test]
    fn op_budget_is_per_segment() {
        let mut meter = Meter::new(MeterLimits::default().with_ops(3));
        meter.charge(3, 0).unwrap();
        assert!(meter.charge(1, 0).is_err());
        meter.begin_segment();
        meter.charge(3, 0).unwrap(); // fresh budget
        assert_eq!(meter.total_ops(), 7);
    }

    #[test]
    fn charge_units_stops_where_single_charges_would() {
        for ops_cap in [None, Some(0), Some(1), Some(4), Some(5), Some(9)] {
            for heap_cap in [None, Some(2), Some(3)] {
                for spent in 0..7u64 {
                    for n in 0..8u64 {
                        let limits = MeterLimits {
                            max_ops: ops_cap,
                            max_heap_cells: heap_cap,
                            ..MeterLimits::default()
                        };
                        let mut singles = Meter::new(limits);
                        // May already be over budget: a failed charge still counts.
                        let _ = singles.charge(spent, 1);
                        let mut bulk = singles.clone();
                        let mut expected = Ok(());
                        for unit in 1..=n {
                            if let Err(e) = singles.charge(1, 3) {
                                expected = Err((unit, e));
                                break;
                            }
                        }
                        let what = format!("{ops_cap:?} {heap_cap:?} spent {spent} n {n}");
                        assert_eq!(bulk.charge_units(n, 3), expected, "{what}");
                        assert_eq!(bulk, singles, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn heap_cap_trips_on_observation() {
        let mut meter = Meter::new(MeterLimits::default().with_heap_cells(5));
        meter.charge(1, 5).unwrap();
        let err = meter.charge(1, 6).unwrap_err();
        assert!(
            matches!(err, WebError::ResourceExhausted { ref resource, limit: 5, used: 6 }
                if resource == "heap"),
            "{err:?}"
        );
    }

    #[test]
    fn call_depth_balances_across_errors() {
        let mut meter = Meter::new(MeterLimits::default().with_call_depth(2));
        meter.enter_call().unwrap();
        meter.enter_call().unwrap();
        assert!(meter.enter_call().is_err());
        meter.exit_call();
        meter.exit_call();
        meter.exit_call();
        meter.enter_call().unwrap(); // depth recovered
    }

    #[test]
    fn string_cap_checks_length() {
        let meter = Meter::new(MeterLimits::default().with_string_len(4));
        meter.check_string(4).unwrap();
        assert!(meter.check_string(5).is_err());
    }
}
