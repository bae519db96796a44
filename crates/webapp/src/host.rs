//! Host (native) objects: the bridge between MiniJS apps and the embedding
//! system. The ML framework of the paper (Caffe.js) is exposed to apps as
//! the host object `model` — `snapedge-core` registers an implementation
//! that runs the DNN engine and charges simulated device time.

use crate::browser::Core;
use crate::value::JsValue;
use crate::WebError;

/// A native object callable from MiniJS (e.g. `model.inference(x)`).
///
/// Host objects are part of the *environment*, not the app state: snapshots
/// never serialize them, which mirrors the paper — the browser and the ML
/// framework exist on both sides; only app state migrates.
pub trait HostObject {
    /// Invokes `object.method(args...)`.
    ///
    /// # Errors
    ///
    /// Implementations return [`WebError::Runtime`] for unknown methods or
    /// bad arguments.
    fn call(
        &mut self,
        method: &str,
        args: &[JsValue],
        core: &mut Core,
    ) -> Result<JsValue, WebError>;

    /// Reads `object.property`. Defaults to an error.
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Runtime`] unless overridden.
    fn get(&mut self, property: &str, _core: &mut Core) -> Result<JsValue, WebError> {
        Err(WebError::Runtime(format!(
            "host object has no property {property:?}"
        )))
    }
}

/// Determinism class of a registered host object, declared by the
/// embedder at registration time ([`crate::Browser::register_host_with_effect`]).
///
/// The static effect analysis (`snapedge-analyze`) cannot see inside a
/// native implementation, so the tag is the embedder's *contract*:
///
/// * [`HostEffect::Deterministic`] promises the object is a pure function
///   of its arguments — it may allocate fresh result cells on the heap but
///   never mutates existing app state (globals, reachable heap regions,
///   listeners, the event queue). The paper's Caffe.js `model` object
///   satisfies this.
/// * [`HostEffect::Dom`] may read or edit the document. That is still
///   *replayable*: DOM state ships in every snapshot and delta.
/// * [`HostEffect::Clock`] / [`HostEffect::Random`] / [`HostEffect::Io`]
///   make two executions of the same snapshot disagree — apps reaching
///   them are rejected before any link bytes are spent.
///
/// Variants are ordered weakest-to-strongest so `max` picks the worst
/// effect a piece of code can reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HostEffect {
    /// Pure function of its arguments; may allocate, never mutates.
    Deterministic,
    /// Touches the document — replayable, snapshots carry the DOM.
    Dom,
    /// Reads a wall clock: nondeterministic across replays.
    Clock,
    /// Draws randomness: nondeterministic across replays.
    Random,
    /// External I/O (network, storage): nondeterministic across replays.
    Io,
}

impl HostEffect {
    /// `true` when replaying the same snapshot elsewhere can diverge.
    pub fn is_nondeterministic(self) -> bool {
        matches!(
            self,
            HostEffect::Clock | HostEffect::Random | HostEffect::Io
        )
    }

    /// Stable lowercase name (used in diagnostics and trace events).
    pub fn label(self) -> &'static str {
        match self {
            HostEffect::Deterministic => "deterministic",
            HostEffect::Dom => "dom",
            HostEffect::Clock => "clock",
            HostEffect::Random => "random",
            HostEffect::Io => "io",
        }
    }
}

/// A trivial host object backed by a closure — convenient in tests.
pub struct FnHost<F>(pub F);

impl<F> HostObject for FnHost<F>
where
    F: FnMut(&str, &[JsValue], &mut Core) -> Result<JsValue, WebError>,
{
    fn call(
        &mut self,
        method: &str,
        args: &[JsValue],
        core: &mut Core,
    ) -> Result<JsValue, WebError> {
        (self.0)(method, args, core)
    }
}
