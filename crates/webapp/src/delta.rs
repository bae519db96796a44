//! Delta snapshots — the paper's **future work**, implemented.
//!
//! Section VI: *"Once customized with the first offloading, however, it is
//! an issue how to simplify the snapshot creation/transmission/restoration
//! for future offloading using the data and code left at the server from
//! the first offloading. This is left as a future work."*
//!
//! After a full snapshot migration, client and server agree on the app
//! state. For the next offload, the client diffs its current state against
//! that agreed [`StateBase`] and emits a small MiniJS **delta script**:
//! changed globals (with their reachable sub-heaps), new/changed functions,
//! DOM edits, listener changes and the pending-event re-dispatch. The
//! server applies it by simply executing the script in the browser that
//! still holds the previous state.
//!
//! Deltas are conservative: whenever correctness cannot be guaranteed from
//! a diff (removed globals/functions/elements, aliasing between changed
//! and unchanged structures, reordered children, ...) capture returns
//! [`DeltaCapture::FullRequired`] and the caller falls back to an ordinary
//! full snapshot.

use crate::ast::{escape_str, escape_str_into};
use crate::browser::{Browser, Core};
use crate::dom::DomNodeId;
use crate::f32text::render_f32_literal;
use crate::intern::{Ident, Symbol};
use crate::snapshot::{element_expr, emit_globals_script, value_ref, RESERVED_PREFIX};
use crate::value::{Heap, ObjId};
use crate::{SnapshotOptions, WebError};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-unique tokens for capture anchors: a token names *one*
/// [`Browser::state_base`] call, so dirty sets recorded since that call
/// are never applied against any other base.
static BASE_TOKEN: AtomicU64 = AtomicU64::new(1);

/// Reachability index recorded by [`Browser::state_base`], enabling
/// incremental delta capture. `rooted` maps every base-time-reachable
/// heap cell to the non-reserved globals that reached it. The write
/// barriers ([`crate::Heap`], [`crate::Globals`]) record what was touched
/// since; candidates for the deep diff are exactly the dirty globals plus
/// the base-time roots of dirty cells — everything else is provably
/// unchanged (any deep-value change requires mutating an in-reach cell or
/// rebinding the global, both of which mark dirt).
pub(crate) struct SnapCache {
    pub(crate) token: u64,
    rooted: BTreeMap<ObjId, BTreeSet<Symbol>>,
}

/// Deep-comparison and serialization work performed by a delta capture,
/// charged against the tenant meter on success — making incrementality
/// *meter-visible*: mutating one of N globals costs O(changed), not O(N).
#[derive(Default)]
pub(crate) struct CaptureWork {
    /// Heap cell pairs visited by deep comparisons.
    cmp_pairs: u64,
    /// Heap cells serialized into the delta.
    cells: u64,
}

/// The state both sides agreed on after the previous migration.
#[derive(Clone)]
pub struct StateBase {
    pub(crate) core: Core,
    /// `(browser id, base token)` of the [`Browser::state_base`] call that
    /// anchored this base, when that browser recorded a [`SnapCache`] for
    /// it. Captures from any *other* browser (or after a newer anchor)
    /// fall back to the reference walk.
    pub(crate) origin: Option<(u64, u64)>,
}

impl StateBase {
    /// Names already declared at the agreed base: globals and top-level
    /// functions. A delta script restores on top of this state, so the
    /// static verifier treats these as ambient declarations rather than
    /// free identifiers.
    pub fn declared_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .core
            .globals
            .names_sorted()
            .iter()
            .map(|n| n.as_str().to_string())
            .collect();
        names.extend(
            self.core
                .function_names_sorted()
                .iter()
                .map(|n| n.as_str().to_string()),
        );
        names
    }
}

impl std::fmt::Debug for StateBase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateBase")
            .field("globals", &self.core.globals.len())
            .field("heap_cells", &self.core.heap.len())
            .field("dom_nodes", &self.core.doc.node_count())
            .finish()
    }
}

/// Accounting for a delta capture.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Globals re-assigned.
    pub changed_globals: usize,
    /// Functions re-declared.
    pub changed_functions: usize,
    /// DOM edit statements emitted.
    pub dom_ops: usize,
    /// Listener add/remove statements emitted.
    pub listener_ops: usize,
    /// Pending events re-dispatched.
    pub pending_events: usize,
    /// Script size in bytes.
    pub bytes: usize,
}

/// A state diff, as an executable MiniJS script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaScript {
    script: String,
    stats: DeltaStats,
}

impl DeltaScript {
    /// The delta script source.
    pub fn script(&self) -> &str {
        &self.script
    }

    /// Size in bytes — what travels instead of a full snapshot.
    pub fn size_bytes(&self) -> u64 {
        self.script.len() as u64
    }

    /// Capture accounting.
    pub fn stats(&self) -> &DeltaStats {
        &self.stats
    }
}

/// Result of attempting a delta capture.
#[derive(Debug, Clone)]
pub enum DeltaCapture {
    /// A delta suffices.
    Delta(DeltaScript),
    /// The diff is not expressible safely; send a full snapshot.
    FullRequired {
        /// Why the delta was refused.
        reason: String,
    },
}

impl Browser {
    /// Records the current app state as the agreed base for future deltas.
    /// Call right after a capture (client side) or right after running to
    /// idle post-restore/apply (server side).
    ///
    /// Also anchors incremental capture: a reachability index over the
    /// current globals is recorded and the write-barrier dirty sets are
    /// reset, so the next [`Browser::capture_delta`] against this base can
    /// diff only what was actually touched since.
    ///
    /// And it collects: every heap cell no global reaches (reserved
    /// globals included) is freed, ids kept (see [`crate::Heap`]). Call it
    /// with the interpreter idle, as both sides do after a migration.
    pub fn state_base(&mut self) -> StateBase {
        let origin = match self.build_snap_cache() {
            Ok(token) => Some((self.browser_id, token)),
            // A dangling heap handle means the index is untrustworthy;
            // drop the anchor and let captures take the reference walk
            // (which will surface the same corruption as a capture error).
            Err(_) => {
                self.snap_cache = None;
                None
            }
        };
        StateBase {
            core: self.core.clone(),
            origin,
        }
    }

    /// Walks what every global reaches, frees the rest of the heap, and
    /// records the walk as the capture anchor. The anchor needs the walk
    /// per non-reserved global; the collector needs its union plus what
    /// the reserved globals reach. That is the whole root set: the
    /// interpreter is idle, and the DOM, listeners, event queue and host
    /// objects hold no heap handle between calls.
    fn build_snap_cache(&mut self) -> Result<u64, WebError> {
        let token = BASE_TOKEN.fetch_add(1, Ordering::Relaxed);
        let mut rooted: BTreeMap<ObjId, BTreeSet<Symbol>> = BTreeMap::new();
        let mut reserved: BTreeSet<ObjId> = BTreeSet::new();
        let mut stack: Vec<ObjId> = Vec::new();
        for (sym, value) in self.core.globals.iter() {
            let Some(root) = value_ref(value) else {
                continue;
            };
            if Ident::from_symbol(sym).starts_with(RESERVED_PREFIX) {
                if reserved.insert(root) {
                    stack.push(root);
                }
                walk(&self.core.heap, &mut stack, &mut reserved)?;
                continue;
            }
            let mut seen: BTreeSet<ObjId> = BTreeSet::from([root]);
            stack.push(root);
            walk(&self.core.heap, &mut stack, &mut seen)?;
            for id in seen {
                rooted.entry(id).or_default().insert(sym);
            }
        }
        self.core
            .heap
            .sweep(|id| rooted.contains_key(&id) || reserved.contains(&id));
        self.core.heap.clear_dirty();
        self.core.globals.clear_dirty();
        self.snap_cache = Some(SnapCache { token, rooted });
        Ok(token)
    }

    /// Diffs the current state against `base` and emits a delta script, or
    /// reports that a full snapshot is required.
    ///
    /// When `base` was anchored by this browser's most recent
    /// [`Browser::state_base`] call (and [`SnapshotOptions::incremental`]
    /// is on), the deep comparison is gated by the write-barrier dirty
    /// sets: only globals that were rebound, or that rooted a dirtied heap
    /// cell at base time, are walked. The emitted script is byte-identical
    /// to the reference walk (every global a candidate) either way.
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Snapshot`] for serialization failures (a
    /// `FullRequired` outcome is *not* an error).
    pub fn capture_delta(
        &mut self,
        base: &StateBase,
        options: &SnapshotOptions,
    ) -> Result<DeltaCapture, WebError> {
        self.core.doc.ensure_ids();
        let anchored = options.incremental
            && matches!(
                (&base.origin, &self.snap_cache),
                (Some((bid, tok)), Some(cache)) if *bid == self.browser_id && *tok == cache.token
            );
        let mut work = CaptureWork::default();
        let result = capture_delta(
            &self.core,
            &base.core,
            options,
            if anchored {
                self.snap_cache.as_ref()
            } else {
                None
            },
            &mut work,
        )?;
        if matches!(result, DeltaCapture::Delta(_)) {
            self.meter_charge(work.cmp_pairs + work.cells)?;
        }
        Ok(result)
    }

    /// Applies a delta produced by [`Browser::capture_delta`] on the peer.
    ///
    /// # Errors
    ///
    /// Propagates script execution errors.
    pub fn apply_delta(&mut self, delta: &DeltaScript) -> Result<(), WebError> {
        self.exec_script(delta.script())?;
        self.drop_machinery();
        Ok(())
    }
}

macro_rules! full {
    ($($arg:tt)*) => {
        return Ok(DeltaCapture::FullRequired { reason: format!($($arg)*) })
    };
}

fn capture_delta(
    new: &Core,
    base: &Core,
    options: &SnapshotOptions,
    cache: Option<&SnapCache>,
    work: &mut CaptureWork,
) -> Result<DeltaCapture, WebError> {
    let mut stats = DeltaStats::default();
    // Written once, front to back, into the buffer that ships; a
    // `FullRequired` found on the way drops it.
    let mut script = String::from("// delta snapshot generated by snapedge\n");

    // ---- Functions: additions/changes re-declare; removals need a full
    // snapshot (MiniJS cannot un-define). Name order, so the
    // `FullRequired` reason does not depend on symbol numbering.
    for def in base.functions_sorted() {
        let name = &def.name;
        if name.starts_with(RESERVED_PREFIX) {
            continue;
        }
        if !new.functions.contains_key(&name.sym()) {
            full!("function {name:?} was removed");
        }
    }
    for def in new.functions_sorted() {
        let name = &def.name;
        if name.starts_with(RESERVED_PREFIX) {
            continue;
        }
        if base.functions.get(&name.sym()).map(|d| d.as_ref()) != Some(def.as_ref()) {
            let _ = write!(script, "{def}");
            stats.changed_functions += 1;
        }
    }
    let _ = writeln!(script, "function {RESERVED_PREFIX}apply_delta() {{");

    // ---- Globals: removals need a full snapshot; changes re-serialize.
    for name in base.globals.names_sorted() {
        if !new.globals.contains(name.sym()) {
            full!("global {name:?} was removed");
        }
    }
    // Dirty-gated candidate set when an incremental anchor is available;
    // `None` means every global is a candidate (the reference walk). A
    // base-present global that was never rebound and rooted no dirtied
    // base-time cell cannot have changed deep value.
    let candidates: Option<BTreeSet<Symbol>> = cache.map(|c| {
        let mut set: BTreeSet<Symbol> = new.globals.dirty().clone();
        for id in new.heap.dirty_cells() {
            if let Some(roots) = c.rooted.get(id) {
                set.extend(roots.iter().copied());
            }
        }
        set
    });
    let mut changed: BTreeSet<Symbol> = BTreeSet::new();
    for (name, value) in new.globals.iter_sorted() {
        if name.starts_with(RESERVED_PREFIX) {
            continue;
        }
        let sym = name.sym();
        let same = match base.globals.get(sym) {
            Some(old) => {
                // Incremental skip: not a candidate → provably unchanged.
                if let Some(cand) = &candidates {
                    if !cand.contains(&sym) {
                        continue;
                    }
                }
                // Visited-set only — nothing is emitted in iteration order.
                // lint: allow(hash-iter)
                let mut visited = std::collections::HashSet::new();
                let eq = new.heap.deep_eq(value, &base.heap, old, &mut visited);
                work.cmp_pairs += visited.len() as u64;
                eq
            }
            None => false,
        };
        if !same {
            changed.insert(sym);
        }
    }

    // ---- Aliasing hazard: a changed global's structure shared with an
    // unchanged global would be duplicated by re-serialization, breaking
    // identity. Fall back in that case. The reference walk reports the
    // *smallest* shared cell id; the anchored path reproduces that.
    let changed_reach = reachable_from(new, &changed)?;
    let shared: Option<ObjId> = match (cache, &candidates) {
        (Some(c), Some(cand)) => {
            // Unchanged *candidates* may have been dirtied and reverted, so
            // their live reach must be re-walked; every other unchanged
            // global's live reach equals its base-time index entry (no
            // in-reach cell was dirtied, no rebind happened).
            let unchanged_live: BTreeSet<Symbol> = cand
                .iter()
                .copied()
                .filter(|s| {
                    !changed.contains(s)
                        && new.globals.contains(*s)
                        && !Ident::from_symbol(*s).starts_with(RESERVED_PREFIX)
                })
                .collect();
            let live_reach = reachable_from(new, &unchanged_live)?;
            let mut found = None;
            for &cell in &changed_reach {
                let in_static = c.rooted.get(&cell).is_some_and(|roots| {
                    roots.iter().any(|g| {
                        !changed.contains(g)
                            && !unchanged_live.contains(g)
                            && new.globals.contains(*g)
                    })
                });
                if live_reach.contains(&cell) || in_static {
                    found = Some(cell);
                    break;
                }
            }
            found
        }
        _ => {
            let unchanged: BTreeSet<Symbol> = new
                .globals
                .iter()
                .filter(|(s, _)| {
                    !changed.contains(s) && !Ident::from_symbol(*s).starts_with(RESERVED_PREFIX)
                })
                .map(|(s, _)| s)
                .collect();
            let unchanged_reach = reachable_from(new, &unchanged)?;
            changed_reach.intersection(&unchanged_reach).next().copied()
        }
    };
    if let Some(shared) = shared {
        full!(
            "heap cell #{} is shared between changed and unchanged globals",
            shared.index()
        );
    }

    // ---- DOM diff (by element id; body is the anchor). Emitted before
    // the globals so that globals referencing newly created elements
    // resolve.
    stats.dom_ops = match diff_dom(new, base, &mut script)? {
        Ok(ops) => ops,
        Err(reason) => full!("{reason}"),
    };

    if !changed.is_empty() {
        let emit = emit_globals_script(new, &changed, options, &mut script)?;
        stats.changed_globals = changed.len();
        work.cells = emit.cells as u64;
    }

    // ---- Listener diff.
    let listener_ops = match diff_listeners(new, base)? {
        Ok(ops) => ops,
        Err(reason) => full!("{reason}"),
    };
    stats.listener_ops = listener_ops.len();
    for op in &listener_ops {
        script.push_str(op);
        script.push('\n');
    }

    // ---- Pending events. Events present in the base were either still
    // pending (identical queues: nothing to do) or consumed by the peer's
    // run; a delta cannot "partially consume", so any difference clears
    // the queue and re-dispatches the new one.
    let base_queue: Vec<(Option<Ident>, String)> = base
        .queue
        .iter()
        .map(|e| Ok((node_key(base, e.target)?, e.event.clone())))
        .collect::<Result<_, WebError>>()?;
    let new_queue: Vec<(Option<Ident>, String)> = new
        .queue
        .iter()
        .map(|e| Ok((node_key(new, e.target)?, e.event.clone())))
        .collect::<Result<_, WebError>>()?;
    if base_queue != new_queue {
        if !base_queue.is_empty() {
            script.push_str("document.clearEventQueue();\n");
        }
        for event in &new.queue {
            let _ = writeln!(
                script,
                "{}.dispatchEvent({});",
                element_expr(new, event.target)?,
                escape_str(&event.event)
            );
            stats.pending_events += 1;
        }
    }

    let _ = writeln!(script, "}}\n{RESERVED_PREFIX}apply_delta();");
    stats.bytes = script.len();
    Ok(DeltaCapture::Delta(DeltaScript { script, stats }))
}

fn reachable_from(core: &Core, names: &BTreeSet<Symbol>) -> Result<BTreeSet<ObjId>, WebError> {
    let mut seen: BTreeSet<ObjId> = BTreeSet::new();
    let mut stack: Vec<ObjId> = Vec::new();
    for &name in names {
        if let Some(value) = core.globals.get(name) {
            if let Some(id) = value_ref(value) {
                if seen.insert(id) {
                    stack.push(id);
                }
            }
        }
    }
    walk(&core.heap, &mut stack, &mut seen)?;
    Ok(seen)
}

/// Pops `stack` until it is empty, adding every cell it reaches to `seen`
/// (and to the stack, the first time).
fn walk(heap: &Heap, stack: &mut Vec<ObjId>, seen: &mut BTreeSet<ObjId>) -> Result<(), WebError> {
    while let Some(id) = stack.pop() {
        for child in crate::snapshot::cell_refs(heap.cell(id)?) {
            if seen.insert(child) {
                stack.push(child);
            }
        }
    }
    Ok(())
}

/// Stable identity of a DOM node across captures: its id attribute, or the
/// body anchor. Interned, so repeated captures of a stable document reuse
/// the same key storage instead of rebuilding fresh `String`s every round.
fn node_key(core: &Core, id: DomNodeId) -> Result<Option<Ident>, WebError> {
    if id == core.doc.body() {
        return Ok(Some(Ident::from_symbol(Symbol::BODY_ANCHOR)));
    }
    Ok(core.doc.attr(id, "id")?.map(Ident::new))
}

type DiffResult = Result<Result<Vec<String>, String>, WebError>;

/// Writes the statements that turn `base`'s document into `new`'s
/// straight into `out`, one a line, and counts them; `Ok(Err(reason))`
/// when the change is not expressible (what `out` holds is then moot).
/// Attribute values are compared and escaped where they live: the image
/// an `<img>` holds is neither copied nor re-formatted on the way.
fn diff_dom(new: &Core, base: &Core, out: &mut String) -> Result<Result<usize, String>, WebError> {
    let mut ops = 0;

    // Index both documents by interned node key. `Ident` orders by name,
    // so iteration (and therefore every emitted diagnostic) matches the
    // old `String`-keyed maps byte for byte — without re-allocating key
    // strings on every capture.
    let mut base_by_key: BTreeMap<Ident, DomNodeId> = BTreeMap::new();
    for id in base.doc.walk() {
        match node_key(base, id)? {
            Some(key) => {
                if base_by_key.insert(key.clone(), id).is_some() {
                    return Ok(Err(format!("duplicate element id {key:?} in base")));
                }
            }
            None => return Ok(Err("base document has an element without id".to_string())),
        }
    }
    let mut new_by_key: BTreeMap<Ident, DomNodeId> = BTreeMap::new();
    for id in new.doc.walk() {
        match node_key(new, id)? {
            Some(key) => {
                if new_by_key.insert(key.clone(), id).is_some() {
                    return Ok(Err(format!("duplicate element id {key:?}")));
                }
            }
            None => return Ok(Err("element without id after ensure_ids".to_string())),
        }
    }

    // Removed elements cannot be expressed (no removeChild in MiniJS).
    for key in base_by_key.keys() {
        if !new_by_key.contains_key(key) {
            return Ok(Err(format!("element {key:?} was removed")));
        }
    }

    let mut new_node_counter = 0usize;
    for id in new.doc.walk() {
        let key = node_key(new, id)?
            .ok_or_else(|| WebError::Snapshot("delta: node lost its id during diff".into()))?;
        let Some(&base_id) = base_by_key.get(&key) else {
            // Entirely new nodes are emitted when diffing their parent's
            // child list below.
            continue;
        };
        // Tag changes cannot be patched.
        if new.doc.tag(id)? != base.doc.tag(base_id)? {
            return Ok(Err(format!("element {key:?} changed tag")));
        }
        let expr = element_expr(new, id)?;
        let (node, base_node) = (new.doc.node(id)?, base.doc.node(base_id)?);
        // Text.
        if node.text != base_node.text {
            let _ = write!(out, "{expr}.textContent = ");
            escape_str_into(&node.text, out);
            out.push_str(";\n");
            ops += 1;
        }
        // Attributes. A value the base still shares compares by pointer.
        for (name, value) in &node.attrs {
            if base_node.attrs.get(name) != Some(value) {
                let _ = write!(out, "{expr}.setAttribute(");
                escape_str_into(name, out);
                out.push_str(", ");
                escape_str_into(value, out);
                out.push_str(");\n");
                ops += 1;
            }
        }
        for name in base_node.attrs.keys() {
            if !node.attrs.contains_key(name) {
                let _ = write!(out, "{expr}.removeAttribute(");
                escape_str_into(name, out);
                out.push_str(");\n");
                ops += 1;
            }
        }
        // Canvas payloads.
        if node.image_data != base_node.image_data {
            match &node.image_data {
                Some(data) => {
                    let _ = write!(out, "{expr}.setImageData(");
                    render_f32_literal(data, out);
                    out.push_str(");\n");
                }
                None => {
                    let _ = writeln!(out, "{expr}.clearImage();");
                }
            }
            ops += 1;
        }
        // Children: the base child list must be a prefix of the new one
        // (append-only structure changes); anything else needs a full
        // snapshot.
        let new_children = new.doc.children(id)?;
        let base_children = base.doc.children(base_id)?;
        if new_children.len() < base_children.len() {
            return Ok(Err(format!("element {key:?} lost children")));
        }
        for (i, &bc) in base_children.iter().enumerate() {
            let bkey = node_key(base, bc)?
                .ok_or_else(|| WebError::Snapshot("delta: base node lost its id".into()))?;
            let nkey = node_key(new, new_children[i])?
                .ok_or_else(|| WebError::Snapshot("delta: new node lost its id".into()))?;
            if bkey != nkey {
                return Ok(Err(format!("children of {key:?} were reordered")));
            }
        }
        for &nc in &new_children[base_children.len()..] {
            let ckey = node_key(new, nc)?
                .ok_or_else(|| WebError::Snapshot("delta: appended node lost its id".into()))?;
            if base_by_key.contains_key(&ckey) {
                return Ok(Err(format!("element {ckey:?} was moved under {key:?}")));
            }
            ops += emit_new_subtree(new, nc, &expr, out, &mut new_node_counter)?;
        }
    }
    Ok(Ok(ops))
}

/// Writes the creation statements for a brand-new subtree, appended to
/// `parent_expr`, into `out`; returns how many it wrote.
fn emit_new_subtree(
    core: &Core,
    id: DomNodeId,
    parent_expr: &str,
    out: &mut String,
    counter: &mut usize,
) -> Result<usize, WebError> {
    let var = format!("{RESERVED_PREFIX}n{counter}");
    *counter += 1;
    let node = core.doc.node(id)?;
    let _ = write!(out, "var {var} = document.createElement(");
    escape_str_into(&node.tag, out);
    out.push_str(");\n");
    let mut ops = 1;
    for (name, value) in &node.attrs {
        let _ = write!(out, "{var}.setAttribute(");
        escape_str_into(name, out);
        out.push_str(", ");
        escape_str_into(value, out);
        out.push_str(");\n");
        ops += 1;
    }
    if !node.text.is_empty() {
        let _ = write!(out, "{var}.textContent = ");
        escape_str_into(&node.text, out);
        out.push_str(";\n");
        ops += 1;
    }
    if let Some(data) = &node.image_data {
        let _ = write!(out, "{var}.setImageData(");
        render_f32_literal(data, out);
        out.push_str(");\n");
        ops += 1;
    }
    let _ = writeln!(out, "{parent_expr}.appendChild({var});");
    ops += 1;
    for &child in &node.children {
        ops += emit_new_subtree(core, child, &var, out, counter)?;
    }
    Ok(ops)
}

fn diff_listeners(new: &Core, base: &Core) -> DiffResult {
    let key_of =
        |core: &Core, l: &crate::browser::Listener| -> Result<(String, String, String), WebError> {
            Ok((
                node_key(core, l.target)?
                    .map(|k| k.as_str().to_string())
                    .unwrap_or_default(),
                l.event.clone(),
                l.handler.clone(),
            ))
        };
    let base_seq: Vec<(String, String, String)> = base
        .listeners
        .iter()
        .map(|l| key_of(base, l))
        .collect::<Result<_, _>>()?;
    let new_seq: Vec<(String, String, String)> = new
        .listeners
        .iter()
        .map(|l| key_of(new, l))
        .collect::<Result<_, _>>()?;

    let mut ops = Vec::new();

    // Compute removals (in base, not in new — multiset) and additions.
    let mut remaining = new_seq.clone();
    let mut removals = Vec::new();
    let mut kept = Vec::new();
    for item in &base_seq {
        if let Some(pos) = remaining.iter().position(|x| x == item) {
            remaining.remove(pos);
            kept.push(item.clone());
        } else {
            removals.push(item.clone());
        }
    }
    // `remaining` now holds the additions, in new-sequence order.
    // Verify the patch (remove + append) reproduces the exact sequence.
    let mut simulated = kept;
    simulated.extend(remaining.iter().cloned());
    if simulated != new_seq {
        return Ok(Err("listener order changed in a non-append way".to_string()));
    }
    for (target, event, handler) in &removals {
        // removeEventListener removes every matching (target,event,handler);
        // safe only if the base held exactly one.
        if base_seq
            .iter()
            .filter(|x| &x.0 == target && &x.1 == event && &x.2 == handler)
            .count()
            != 1
        {
            return Ok(Err(format!(
                "duplicate listener ({target}, {event}, {handler}) cannot be removed precisely"
            )));
        }
        let expr = target_expr_for_key(new, target)?;
        ops.push(format!(
            "{expr}.removeEventListener({}, {handler});",
            escape_str(event)
        ));
    }
    for (target, event, handler) in &remaining {
        let expr = target_expr_for_key(new, target)?;
        ops.push(format!(
            "{expr}.addEventListener({}, {handler});",
            escape_str(event)
        ));
    }
    Ok(Ok(ops))
}

fn target_expr_for_key(core: &Core, key: &str) -> Result<String, WebError> {
    if key == "<body>" {
        return Ok("document.body".to_string());
    }
    // The element must exist in the new document (listeners only reference
    // live elements).
    if core.doc.get_element_by_id(key).is_none() {
        return Err(WebError::Snapshot(format!(
            "listener target {key:?} not found"
        )));
    }
    Ok(format!("document.getElementById({})", escape_str(key)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::fnv1a;
    use crate::state_eq;
    use crate::value::JsValue;
    use std::rc::Rc;

    /// Three shapes to orphan: an object → array → `Float32Array` chain,
    /// a two-object cycle, and an array shared by two globals.
    const PROGRAM: &str = r#"
        var keep = {name: "kept", list: [1, 2]};
        var chain = {inner: [new Float32Array([1.5, 2.5, 3.5])]};
        var ring = {tag: "a"};
        ring.next = {back: ring};
        var a = [10, 20, 30];
        var b = a;
    "#;

    /// Runs `step` on `browser`, agrees a base, and renders what must not
    /// move: `heap.len()` and the full snapshot, which must also restore
    /// to an equal state.
    fn agree(browser: &mut Browser, step: &str) -> (StateBase, String) {
        browser.exec_script(step).unwrap();
        let base = browser.state_base();
        let snapshot = browser
            .capture_snapshot(&SnapshotOptions::default())
            .unwrap();
        let mut restored = Browser::new();
        restored.load_html(snapshot.html()).unwrap();
        assert!(state_eq(browser, &restored), "{}", snapshot.html());
        let line = format!(
            "heap {}, snapshot {} B {:016x}",
            browser.core.heap.len(),
            snapshot.size_bytes(),
            fnv1a(snapshot.html().as_bytes())
        );
        (base, line)
    }

    fn freed(browser: &Browser) -> Vec<usize> {
        let heap = &browser.core.heap;
        (0..heap.len())
            .filter(|&i| heap.is_freed(ObjId(i)))
            .collect()
    }

    #[test]
    fn orphaned_chains_cycles_and_shared_cells_are_freed_without_moving_a_byte() {
        let mut browser = Browser::new();
        let (_, loaded) = agree(&mut browser, PROGRAM);
        // The literal's list slot, kept for ids and never referenced.
        assert_eq!(freed(&browser), [3]);

        // The chain and the cycle lose their only global; `a` lets go of
        // the shared array, which `b` still holds.
        let (base, orphaned) = agree(&mut browser, "chain = null; ring = 0; a = 1;");
        assert_eq!(freed(&browser), [2, 3, 4, 5, 6, 7]);

        // The last holder lets go; the delta against the swept base is
        // the same script.
        browser.exec_script("b = 2;").unwrap();
        let DeltaCapture::Delta(delta) = browser
            .capture_delta(&base, &SnapshotOptions::default())
            .unwrap()
        else {
            panic!("expected a delta");
        };
        let (_, dropped) = agree(&mut browser, "");
        assert_eq!(freed(&browser), [2, 3, 4, 5, 6, 7, 8]);

        let delta = format!(
            "delta {} B {:016x}",
            delta.size_bytes(),
            fnv1a(delta.script().as_bytes())
        );
        assert_eq!(
            [loaded, orphaned, delta, dropped],
            [
                "heap 9, snapshot 407 B 4480e4c4032b8321",
                "heap 9, snapshot 220 B b1d32431b002d6ab",
                "delta 111 B c1c7c4704241a00d",
                "heap 9, snapshot 211 B f01dc82f2dd9e50d",
            ],
            "pinned before cells were freed"
        );
    }

    /// The string a global and an attribute were given is one buffer on
    /// the sender; on the receiver, once the restore or apply wrapper
    /// that spelled it is forgotten, the global holds its literal alone.
    #[test]
    fn a_script_string_is_shared_and_its_wrapper_does_not_outlive_the_script() {
        let shared = |browser: &Browser, global: &str| {
            let JsValue::Str(value) = browser.global(global) else {
                panic!("{global} is not a string");
            };
            value
        };
        let mut client = Browser::new();
        client
            .exec_script(
                r#"var el = document.createElement("img");
                document.body.appendChild(el);
                el.setAttribute("id", "photo");
                el.setAttribute("src", "data:first");
                var url = el.getAttribute("src");"#,
            )
            .unwrap();
        let photo = client.core.doc.get_element_by_id("photo").unwrap();
        let attr = client.core.doc.attr_shared(photo, "src").unwrap().unwrap();
        assert!(Rc::ptr_eq(attr, &shared(&client, "url")));

        let mut server = Browser::new();
        let options = SnapshotOptions::default();
        server
            .load_html(client.capture_snapshot(&options).unwrap().html())
            .unwrap();
        let base = client.state_base();
        client
            .exec_script(r#"el.setAttribute("src", "data:next"); url = el.getAttribute("src");"#)
            .unwrap();
        let DeltaCapture::Delta(delta) = client.capture_delta(&base, &options).unwrap() else {
            panic!("expected a delta");
        };
        server.apply_delta(&delta).unwrap();
        assert!(state_eq(&client, &server));
        for sym in [Symbol::SNAPEDGE_RESTORE, Symbol::SNAPEDGE_APPLY_DELTA] {
            assert!(!server.core.functions.contains_key(&sym));
            assert!(!server.layout_cache.contains_key(&sym));
        }
        assert_eq!(
            Rc::strong_count(&shared(&server, "url")),
            2,
            "global + probe"
        );
    }

    /// A restore reads the photo out of the markup and out of the
    /// script, a delta spells it twice: each side ends with one buffer
    /// per long string, the heap cells it wrote included. Short strings,
    /// the dirty sets and the cells a base shares are left as they were.
    #[test]
    fn long_strings_spelled_twice_are_one_buffer_after_a_restore_or_an_apply() {
        let attr = |browser: &Browser| {
            let photo = browser.core.doc.get_element_by_id("photo").unwrap();
            Rc::clone(browser.core.doc.attr_shared(photo, "src").unwrap().unwrap())
        };
        let string = |value: JsValue| match value {
            JsValue::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        };
        let prop = |browser: &Browser, key: &str| {
            let JsValue::Object(id) = browser.global("box") else {
                panic!("box is not an object");
            };
            string(browser.core.heap.get_prop(id, key).unwrap())
        };
        let first = format!("data:{}", "A".repeat(2_000));
        let mut client = Browser::new();
        client
            .exec_script(&format!(
                r#"var el = document.createElement("img");
                document.body.appendChild(el);
                el.setAttribute("id", "photo");
                el.setAttribute("src", "{first}");
                var url = el.getAttribute("src");
                var box = {{photo: url, tag: "xy"}};
                var tag = "xy";"#
            ))
            .unwrap();
        let mut server = Browser::new();
        let options = SnapshotOptions::default();
        server
            .load_html(client.capture_snapshot(&options).unwrap().html())
            .unwrap();
        assert!(state_eq(&client, &server));
        let photo = attr(&server);
        assert!(Rc::ptr_eq(&photo, &string(server.global("url"))));
        assert!(Rc::ptr_eq(&photo, &prop(&server, "photo")));
        assert!(!Rc::ptr_eq(
            &prop(&server, "tag"),
            &string(server.global("tag"))
        ));

        let server_base = server.state_base();
        server
            .exec_script(&format!(r#"var again = "{first}";"#))
            .unwrap();
        let dirty = (
            server.core.globals.dirty().clone(),
            server.core.heap.dirty_cells().clone(),
        );
        server.drop_machinery();
        assert!(Rc::ptr_eq(&photo, &string(server.global("again"))));
        assert_eq!(
            dirty,
            (
                server.core.globals.dirty().clone(),
                server.core.heap.dirty_cells().clone(),
            )
        );
        let JsValue::Object(cell) = server.global("box") else {
            panic!("box is not an object");
        };
        assert!(std::ptr::eq(
            server.core.heap.cell(cell).unwrap(),
            server_base.core.heap.cell(cell).unwrap()
        ));

        let base = client.state_base();
        let next = format!("data:{}", "B".repeat(2_000));
        client
            .exec_script(&format!(
                r#"el.setAttribute("src", "{next}"); url = el.getAttribute("src");"#
            ))
            .unwrap();
        let DeltaCapture::Delta(delta) = client.capture_delta(&base, &options).unwrap() else {
            panic!("expected a delta");
        };
        assert_eq!(delta.script().matches(&next).count(), 2);
        server.apply_delta(&delta).unwrap();
        assert_eq!(*attr(&server), *next);
        assert!(Rc::ptr_eq(&attr(&server), &string(server.global("url"))));
    }

    #[test]
    fn what_a_reserved_global_reaches_is_kept() {
        let mut browser = Browser::new();
        browser.exec_script("var x = [[1], 2];").unwrap();
        let held = browser.global("x");
        browser
            .core
            .globals
            .insert(Symbol::intern("__snapedge_held"), held);
        browser.exec_script("x = 0;").unwrap();
        browser.state_base();
        assert_eq!(freed(&browser), Vec::<usize>::new());
    }
}
