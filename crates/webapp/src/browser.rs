//! The browser: heap + DOM + event loop + registered host objects.
//!
//! This is the WebKit stand-in. Both the client device and the edge server
//! run one `Browser`; offloading moves a [`Snapshot`](crate::Snapshot)
//! between them.

use crate::ast::FunctionDef;
use crate::delta::SnapCache;
use crate::dom::{Document, DomNodeId};
use crate::host::{HostEffect, HostObject};
use crate::intern::{Ident, Symbol};
use crate::interp::FrameLayout;
use crate::meter::{Meter, MeterLimits};
use crate::value::{Heap, JsValue};
use crate::WebError;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-unique browser ids, so a [`StateBase`](crate::StateBase)
/// captured from one browser is never mistaken for an incremental anchor
/// of another.
static BROWSER_ID: AtomicU64 = AtomicU64::new(1);

/// A registered event listener.
#[derive(Debug, Clone, PartialEq)]
pub struct Listener {
    /// Target element.
    pub target: DomNodeId,
    /// Event name (`"click"`, `"front_complete"`, ...).
    pub event: String,
    /// Name of the handling top-level function.
    pub handler: String,
}

/// An event waiting in the queue.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingEvent {
    /// Target element.
    pub target: DomNodeId,
    /// Event name.
    pub event: String,
}

/// The global variable table, keyed by interned [`Symbol`] with
/// write-barrier dirty tracking: every insert/remove records which
/// bindings changed since the last [`Globals::clear_dirty`], so delta
/// capture only deep-compares globals that were actually touched.
///
/// Equality compares bindings only — dirty bookkeeping is capture
/// machinery, not state.
#[derive(Debug, Clone, Default)]
pub struct Globals {
    map: BTreeMap<Symbol, JsValue>,
    dirty: BTreeSet<Symbol>,
}

impl PartialEq for Globals {
    fn eq(&self, other: &Globals) -> bool {
        self.map == other.map
    }
}

impl Globals {
    /// Reads a binding by symbol.
    pub fn get(&self, sym: Symbol) -> Option<&JsValue> {
        self.map.get(&sym)
    }

    /// Reads a binding by name (interning it first).
    pub fn get_str(&self, name: &str) -> Option<&JsValue> {
        self.map.get(&Symbol::intern(name))
    }

    /// Creates or overwrites a binding, marking it dirty.
    pub fn insert(&mut self, sym: Symbol, value: JsValue) -> Option<JsValue> {
        self.dirty.insert(sym);
        self.map.insert(sym, value)
    }

    /// Removes a binding, marking it dirty.
    pub fn remove(&mut self, sym: Symbol) -> Option<JsValue> {
        self.dirty.insert(sym);
        self.map.remove(&sym)
    }

    /// `true` when a binding exists for this symbol.
    pub fn contains(&self, sym: Symbol) -> bool {
        self.map.contains_key(&sym)
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no binding exists.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates bindings in symbol (intern) order. Output-facing callers
    /// must use [`Globals::iter_sorted`] instead — wire formats are
    /// defined in *name* order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &JsValue)> {
        self.map.iter().map(|(s, v)| (*s, v))
    }

    /// Bindings resolved to identifiers, sorted by name — the order every
    /// serialized artifact (snapshot, delta) uses.
    pub fn iter_sorted(&self) -> Vec<(Ident, &JsValue)> {
        let mut out: Vec<(Ident, &JsValue)> = self
            .map
            .iter()
            .map(|(s, v)| (Ident::from_symbol(*s), v))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Binding names, sorted.
    pub fn names_sorted(&self) -> Vec<Ident> {
        let mut out: Vec<Ident> = self.map.keys().map(|s| Ident::from_symbol(*s)).collect();
        out.sort();
        out
    }

    /// Drops every binding (and all dirty bookkeeping).
    pub fn clear(&mut self) {
        self.map.clear();
        self.dirty.clear();
    }

    /// Bindings touched since the last [`Globals::clear_dirty`].
    pub fn dirty(&self) -> &BTreeSet<Symbol> {
        &self.dirty
    }

    /// Anchors a capture base: from here on, [`Globals::dirty`] names
    /// exactly the bindings that may differ from this instant.
    pub fn clear_dirty(&mut self) {
        self.dirty.clear();
    }
}

/// Everything a snapshot serializes (plus interpreter bookkeeping).
/// Host objects receive `&mut Core` so they can allocate results on the
/// heap and touch the DOM.
#[derive(Default, Clone)]
pub struct Core {
    /// The JS object heap.
    pub heap: Heap,
    /// The document.
    pub doc: Document,
    /// Global variables (symbol-keyed, dirty-tracked).
    pub globals: Globals,
    /// Top-level functions, keyed by interned name.
    pub functions: BTreeMap<Symbol, Rc<FunctionDef>>,
    /// Event listeners in registration order.
    pub listeners: Vec<Listener>,
    /// Pending events, FIFO.
    pub queue: VecDeque<PendingEvent>,
    /// Lines printed with `console.log`.
    pub console: Vec<String>,
    pub(crate) steps: u64,
}

impl Core {
    /// Function definitions sorted by name — the order every serialized
    /// artifact uses (the map itself iterates in intern order).
    pub fn functions_sorted(&self) -> Vec<&Rc<FunctionDef>> {
        let mut defs: Vec<&Rc<FunctionDef>> = self.functions.values().collect();
        defs.sort_by(|a, b| a.name.cmp(&b.name));
        defs
    }

    /// Function names, sorted.
    pub fn function_names_sorted(&self) -> Vec<Ident> {
        let mut names: Vec<Ident> = self.functions.values().map(|d| d.name.clone()).collect();
        names.sort();
        names
    }
}

impl Core {
    fn new() -> Core {
        Core {
            doc: Document::new(),
            ..Core::default()
        }
    }
}

/// Outcome of pumping the event loop.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// Queue drained; `events` handlers ran.
    Idle {
        /// Number of events whose handlers executed.
        events: usize,
    },
    /// Execution stopped *just before* dispatching the offload-trigger
    /// event — the moment the paper captures its snapshot. The event is
    /// still at the front of the queue (so the snapshot re-dispatches it).
    OffloadPoint {
        /// `id` attribute of the event's target element.
        target_id: String,
        /// The event name that triggered offloading.
        event: String,
    },
}

/// The web runtime: owns the app state ([`Core`]) and the environment
/// (host objects, step limits).
///
/// # Example
///
/// ```
/// use snapedge_webapp::Browser;
///
/// # fn main() -> Result<(), snapedge_webapp::WebError> {
/// let mut b = Browser::new();
/// b.load_html(r#"<html><body><div id="out"></div></body>
///   <script>
///     var el = document.getElementById("out");
///     el.textContent = "hello";
///   </script></html>"#)?;
/// assert_eq!(b.element_text("out")?, "hello");
/// # Ok(())
/// # }
/// ```
pub struct Browser {
    pub(crate) core: Core,
    pub(crate) hosts: BTreeMap<Symbol, Box<dyn HostObject>>,
    pub(crate) host_effects: BTreeMap<Symbol, HostEffect>,
    pub(crate) meter: Option<Meter>,
    offload_trigger: Option<String>,
    max_steps: u64,
    /// Process-unique id, stamped into [`StateBase`](crate::StateBase)
    /// origins so incremental capture never trusts a foreign base.
    pub(crate) browser_id: u64,
    /// Reachability index + dirty-anchor token of the most recent
    /// [`Browser::state_base`], if still valid.
    pub(crate) snap_cache: Option<SnapCache>,
    /// Per-function frame layouts (locals → slots), validated against the
    /// registered definition by pointer identity.
    pub(crate) layout_cache: BTreeMap<Symbol, (Rc<FunctionDef>, Rc<FrameLayout>)>,
}

impl Default for Browser {
    fn default() -> Self {
        Browser::new()
    }
}

impl std::fmt::Debug for Browser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Browser")
            .field("heap_cells", &self.core.heap.len())
            .field("dom_nodes", &self.core.doc.node_count())
            .field("globals", &self.core.globals.len())
            .field("functions", &self.core.functions.len())
            .field("listeners", &self.core.listeners.len())
            .field("queued_events", &self.core.queue.len())
            .field("hosts", &self.host_names())
            .finish()
    }
}

impl Browser {
    /// A fresh browser with an empty document.
    pub fn new() -> Browser {
        Browser {
            core: Core::new(),
            hosts: BTreeMap::new(),
            host_effects: BTreeMap::new(),
            meter: None,
            offload_trigger: None,
            max_steps: 50_000_000,
            browser_id: BROWSER_ID.fetch_add(1, Ordering::Relaxed),
            snap_cache: None,
            layout_cache: BTreeMap::new(),
        }
    }

    /// Installs a resource meter: subsequent execution, host-API calls and
    /// snapshot captures are charged against `limits` and fail with
    /// [`WebError::ResourceExhausted`] when a cap trips. Replaces any
    /// existing meter (counters restart at zero). Like host objects, the
    /// meter is *environment*: snapshots never carry it.
    pub fn set_meter(&mut self, limits: MeterLimits) {
        self.meter = Some(Meter::new(limits));
    }

    /// Removes the meter; execution is unmetered again (the default).
    pub fn clear_meter(&mut self) {
        self.meter = None;
    }

    /// The installed meter and its usage counters, if any.
    pub fn meter(&self) -> Option<&Meter> {
        self.meter.as_ref()
    }

    /// Charges `ops` metered operations (no-op without a meter). Used by
    /// host-API dispatch and snapshot capture, which do real work that
    /// individual interpreter steps do not account for.
    pub(crate) fn meter_charge(&mut self, ops: u64) -> Result<(), WebError> {
        if let Some(m) = self.meter.as_mut() {
            m.charge(ops, self.core.heap.len())?;
        }
        Ok(())
    }

    /// Registers a host object reachable from MiniJS as a global (e.g.
    /// name `"model"` makes `model.inference(x)` dispatch to `host`).
    ///
    /// Registering through this method vouches the object as
    /// [`HostEffect::Deterministic`]; use
    /// [`Browser::register_host_with_effect`] to declare otherwise.
    pub fn register_host(&mut self, name: &str, host: Box<dyn HostObject>) {
        self.register_host_with_effect(name, host, HostEffect::Deterministic);
    }

    /// Registers a host object together with its declared effect class —
    /// the contract the static effect analysis trusts (see
    /// [`HostEffect`]).
    pub fn register_host_with_effect(
        &mut self,
        name: &str,
        host: Box<dyn HostObject>,
        effect: HostEffect,
    ) {
        let sym = Symbol::intern(name);
        self.hosts.insert(sym, host);
        self.host_effects.insert(sym, effect);
    }

    /// `true` when a host object with this name is registered.
    pub fn has_host(&self, name: &str) -> bool {
        self.hosts.contains_key(&Symbol::intern(name))
    }

    /// Names of all registered host objects, in deterministic (name)
    /// order. The static verifier extends its host-API allowlist with
    /// these.
    pub fn host_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.hosts.keys().map(|s| s.resolve().to_string()).collect();
        names.sort();
        names
    }

    /// Registered host objects with their declared effect classes, in
    /// deterministic (name) order — the input the effect analysis tags
    /// host calls with.
    pub fn host_effects(&self) -> Vec<(String, HostEffect)> {
        let mut out: Vec<(String, HostEffect)> = self
            .host_effects
            .iter()
            .map(|(s, e)| (s.resolve().to_string(), *e))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Arms offloading: the event loop will stop just before dispatching
    /// an event with this name (Section III-A: the snapshot is taken just
    /// before the expensive handler runs). `None` disarms.
    pub fn set_offload_trigger(&mut self, event: Option<&str>) {
        self.offload_trigger = event.map(str::to_string);
    }

    /// The armed offload trigger, if any.
    pub fn offload_trigger(&self) -> Option<&str> {
        self.offload_trigger.as_deref()
    }

    /// Caps interpreter steps per [`Browser::run_until_idle`] /
    /// script execution (guards against runaway `while` loops in tests).
    pub fn set_max_steps(&mut self, max: u64) {
        self.max_steps = max;
    }

    pub(crate) fn max_steps(&self) -> u64 {
        self.max_steps
    }

    /// Interpreter steps consumed by the most recent script execution
    /// (reset at the start of each script run / event-loop drain).
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.core.steps
    }

    /// Read access to the app state.
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// Mutable access to the app state (embedders use this to preload
    /// canvas data before "the user clicks").
    pub fn core_mut(&mut self) -> &mut Core {
        &mut self.core
    }

    /// Parses an HTML document, replaces the current DOM with it, and runs
    /// its `<script>` blocks. Loading an app and restoring a snapshot are
    /// the *same operation* — a snapshot is just another web app.
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Html`] / parse / runtime errors from the
    /// document or its scripts.
    pub fn load_html(&mut self, html: &str) -> Result<(), WebError> {
        let parsed = crate::html::parse_document(html)?;
        self.core.doc = parsed.document;
        self.core.steps = 0;
        if let Some(m) = self.meter.as_mut() {
            m.begin_segment();
        }
        for script in &parsed.scripts {
            self.exec_script(script)?;
        }
        Ok(())
    }

    /// Runs a MiniJS script in the current document (top-level scope).
    ///
    /// # Errors
    ///
    /// Returns lex/parse/runtime errors.
    pub fn exec_script(&mut self, src: &str) -> Result<(), WebError> {
        let program = crate::parser::parse_program(src)?;
        self.exec_top_level(&program)
    }

    /// Pushes an event onto the queue (does not run handlers; call
    /// [`Browser::run_until_idle`]).
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Dom`] when no element has id `target_id`.
    pub fn dispatch(&mut self, target_id: &str, event: &str) -> Result<(), WebError> {
        let target = self
            .core
            .doc
            .get_element_by_id(target_id)
            .ok_or_else(|| WebError::Dom(format!("no element with id {target_id:?}")))?;
        self.core.queue.push_back(PendingEvent {
            target,
            event: event.to_string(),
        });
        Ok(())
    }

    /// Simulates a user click on the element with id `target_id`.
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Dom`] when the element does not exist.
    pub fn click(&mut self, target_id: &str) -> Result<(), WebError> {
        self.dispatch(target_id, "click")
    }

    /// Drains the event queue, running listeners in registration order,
    /// until the queue is empty or the offload trigger is reached.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from handlers.
    pub fn run_until_idle(&mut self) -> Result<RunOutcome, WebError> {
        let mut events = 0usize;
        self.core.steps = 0;
        if let Some(m) = self.meter.as_mut() {
            m.begin_segment();
        }
        loop {
            let Some(front) = self.core.queue.front().cloned() else {
                return Ok(RunOutcome::Idle { events });
            };
            if let Some(trigger) = &self.offload_trigger {
                if front.event == *trigger {
                    let target_id = self
                        .core
                        .doc
                        .attr(front.target, "id")?
                        .unwrap_or("")
                        .to_string();
                    return Ok(RunOutcome::OffloadPoint {
                        target_id,
                        event: front.event,
                    });
                }
            }
            self.core.queue.pop_front();
            let handlers: Vec<String> = self
                .core
                .listeners
                .iter()
                .filter(|l| l.target == front.target && l.event == front.event)
                .map(|l| l.handler.clone())
                .collect();
            for handler in handlers {
                self.call_function_by_name(&handler, &[])?;
            }
            events += 1;
        }
    }

    /// Text content of the element with the given id — how tests and
    /// examples read "the screen".
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Dom`] when the element does not exist.
    pub fn element_text(&self, id: &str) -> Result<&str, WebError> {
        let node = self
            .core
            .doc
            .get_element_by_id(id)
            .ok_or_else(|| WebError::Dom(format!("no element with id {id:?}")))?;
        self.core.doc.text(node)
    }

    /// Reads a global variable (`undefined` when absent).
    pub fn global(&self, name: &str) -> JsValue {
        self.core
            .globals
            .get_str(name)
            .cloned()
            .unwrap_or(JsValue::Undefined)
    }

    /// Attaches image pixel data to a canvas element — the embedder-side
    /// equivalent of the user loading an image into the app.
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Dom`] when the element does not exist.
    pub fn set_canvas_image(&mut self, id: &str, data: Vec<f32>) -> Result<(), WebError> {
        let node = self
            .core
            .doc
            .get_element_by_id(id)
            .ok_or_else(|| WebError::Dom(format!("no element with id {id:?}")))?;
        self.core.doc.set_image_data(node, Some(data))
    }

    /// Lines printed via `console.log` so far.
    pub fn console(&self) -> &[String] {
        &self.core.console
    }
}
