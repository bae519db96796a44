//! JavaScript-like values and the object heap.
//!
//! The snapshot system's whole job is to serialize this heap (plus DOM and
//! pending events) into source code, so values are deliberately simple:
//! primitives are immediate, compounds live in a [`Heap`] arena addressed by
//! [`ObjId`]. `Float32Array` is first-class because DNN feature data and
//! image pixels travel through it — its text serialization is what
//! dominates snapshot sizes in the paper's experiments.

use crate::dom::DomNodeId;
use crate::intern::Ident;
use crate::WebError;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Handle to a heap cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjId(pub(crate) usize);

impl ObjId {
    /// The arena index of this handle.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A MiniJS value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsValue {
    /// `undefined`.
    Undefined,
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// IEEE-754 double, like every JS number.
    Number(f64),
    /// Immutable string. Shared, not copied: the literal a script spells,
    /// every value it evaluates to, a DOM attribute it is written to and
    /// every [`StateBase`](crate::StateBase) clone hold one allocation.
    Str(Rc<str>),
    /// Reference to a heap object (`{...}`).
    Object(ObjId),
    /// Reference to a heap array (`[...]`).
    Array(ObjId),
    /// Reference to a heap `Float32Array`.
    Float32Array(ObjId),
    /// A top-level function, by (pre-interned) name.
    Function(Ident),
    /// A DOM element reference.
    Dom(DomNodeId),
    /// A host (native) object, by (pre-interned) registration name
    /// (e.g. `"model"`).
    Host(Ident),
}

impl JsValue {
    /// JS truthiness.
    pub fn is_truthy(&self) -> bool {
        match self {
            JsValue::Undefined | JsValue::Null => false,
            JsValue::Bool(b) => *b,
            JsValue::Number(n) => *n != 0.0 && !n.is_nan(),
            JsValue::Str(s) => !s.is_empty(),
            _ => true,
        }
    }

    /// Human-readable type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            JsValue::Undefined => "undefined",
            JsValue::Null => "null",
            JsValue::Bool(_) => "boolean",
            JsValue::Number(_) => "number",
            JsValue::Str(_) => "string",
            JsValue::Object(_) => "object",
            JsValue::Array(_) => "array",
            JsValue::Float32Array(_) => "Float32Array",
            JsValue::Function(_) => "function",
            JsValue::Dom(_) => "element",
            JsValue::Host(_) => "host",
        }
    }

    /// Coerces to a number for error-checked arithmetic.
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Runtime`] for values without numeric meaning.
    pub fn as_number(&self) -> Result<f64, WebError> {
        match self {
            JsValue::Number(n) => Ok(*n),
            JsValue::Bool(b) => Ok(if *b { 1.0 } else { 0.0 }),
            other => Err(WebError::Runtime(format!(
                "expected number, got {}",
                other.type_name()
            ))),
        }
    }

    /// Borrows the string contents.
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Runtime`] for non-strings.
    pub fn as_str(&self) -> Result<&str, WebError> {
        match self {
            JsValue::Str(s) => Ok(s),
            other => Err(WebError::Runtime(format!(
                "expected string, got {}",
                other.type_name()
            ))),
        }
    }
}

/// One heap slot.
#[derive(Debug, Clone, PartialEq)]
pub enum HeapCell {
    /// A plain object with insertion-stable (sorted) properties. Keys
    /// are arbitrary app data, not identifiers.
    /// lint: allow(string-keyed-map)
    Object(BTreeMap<String, JsValue>),
    /// A dense array.
    Array(Vec<JsValue>),
    /// A typed array of 32-bit floats.
    Float32Array(Vec<f32>),
}

impl HeapCell {
    /// The values the cell holds: properties in key order, elements in
    /// index order.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut JsValue> {
        let (props, elems) = match self {
            HeapCell::Object(map) => (Some(map.values_mut()), None),
            HeapCell::Array(elems) => (None, Some(elems.iter_mut())),
            HeapCell::Float32Array(_) => (None, None),
        };
        props
            .into_iter()
            .flatten()
            .chain(elems.into_iter().flatten())
    }
}

/// Arena of heap cells. Cells are reference-counted so that cloning the
/// arena (every [`StateBase`](crate::StateBase) does) shares them instead
/// of copying them.
///
/// **Collection.** [`Browser::state_base`](crate::Browser::state_base)
/// frees every cell no global reaches ([`Heap::sweep`]): the slot is
/// pointed at one shared empty placeholder, so ids never move — handles,
/// [`Heap::len`] and the `__h{n}` names snapshots print stay what they
/// were. A sweep visits only the cells it kept last time and the cells
/// allocated since.
///
/// The arena carries a **write barrier**: every mutable borrow and every
/// allocation marks the cell dirty. The snapshot layer anchors a capture
/// base with [`Heap::clear_dirty`] and then only deep-compares cells
/// dirtied since — capture cost scales with cells *changed*, not cells
/// *held*. The same borrow is where a cell shared with a base is copied
/// before the write. Equality ([`PartialEq`]) deliberately compares
/// contents only; dirty and sweep bookkeeping is machinery, not state.
#[derive(Debug)]
pub struct Heap {
    cells: Vec<Rc<HeapCell>>,
    /// Cells mutated (or allocated) since the last [`Heap::clear_dirty`].
    dirty: BTreeSet<ObjId>,
    /// Ids below `swept` that the last sweep kept, ascending; every other
    /// id below `swept` is freed.
    held: Vec<ObjId>,
    /// [`Heap::len`] at the last sweep.
    swept: usize,
}

thread_local! {
    /// The cell every freed slot points at.
    static FREED: Rc<HeapCell> = Rc::new(HeapCell::Array(Vec::new()));
}

impl Clone for Heap {
    /// Shares every cell. The copy carries no sweep bookkeeping, so
    /// taking a base allocates no list; the copy's first sweep (if
    /// it ever becomes a browser's heap) visits every id once instead.
    fn clone(&self) -> Heap {
        Heap {
            cells: self.cells.clone(),
            dirty: self.dirty.clone(),
            ..Heap::new()
        }
    }
}

impl Default for Heap {
    fn default() -> Heap {
        Heap::new()
    }
}

impl PartialEq for Heap {
    fn eq(&self, other: &Heap) -> bool {
        self.cells == other.cells
    }
}

impl Heap {
    /// An empty heap.
    pub fn new() -> Heap {
        Heap {
            cells: Vec::new(),
            dirty: BTreeSet::new(),
            held: Vec::new(),
            swept: 0,
        }
    }

    /// Number of cell ids ever allocated, freed ones included: ids are
    /// never reused, so this only grows. It is what the meter's `heap`
    /// cap counts.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when no cell was ever allocated.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    fn alloc(&mut self, cell: HeapCell) -> ObjId {
        let id = ObjId(self.cells.len());
        self.cells.push(Rc::new(cell));
        self.dirty.insert(id);
        id
    }

    /// Allocates an empty object, returning its value.
    pub fn alloc_object(&mut self) -> JsValue {
        JsValue::Object(self.alloc(HeapCell::Object(BTreeMap::new())))
    }

    /// Allocates an array with the given elements.
    pub fn alloc_array(&mut self, elems: Vec<JsValue>) -> JsValue {
        JsValue::Array(self.alloc(HeapCell::Array(elems)))
    }

    /// Allocates a `Float32Array` with the given data.
    pub fn alloc_f32(&mut self, data: Vec<f32>) -> JsValue {
        JsValue::Float32Array(self.alloc(HeapCell::Float32Array(data)))
    }

    /// Borrows a cell.
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Runtime`] for a dangling handle (only possible
    /// via snapshot corruption).
    pub fn cell(&self, id: ObjId) -> Result<&HeapCell, WebError> {
        self.cells
            .get(id.0)
            .map(Rc::as_ref)
            .ok_or_else(|| WebError::Runtime(format!("dangling heap handle #{}", id.0)))
    }

    /// Mutably borrows a cell. This is the single mutation funnel — every
    /// property/index write routes through here — so it doubles as the
    /// write barrier: the cell is marked dirty, and copied first if a
    /// clone of this heap still shares it.
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Runtime`] for a dangling handle.
    pub fn cell_mut(&mut self, id: ObjId) -> Result<&mut HeapCell, WebError> {
        let cell = self
            .cells
            .get_mut(id.0)
            .ok_or_else(|| WebError::Runtime(format!("dangling heap handle #{}", id.0)))?;
        self.dirty.insert(id);
        Ok(Rc::make_mut(cell))
    }

    /// The cells written since the last [`Heap::clear_dirty`] that no
    /// clone of this heap shares, in id order, to swap a value for an
    /// equal one: not a write, so nothing is marked dirty or copied. The
    /// cells left out are still a base's, and a swap would copy them.
    pub(crate) fn written_cells_mut(&mut self) -> impl Iterator<Item = &mut HeapCell> {
        let first = self.dirty.first().map_or(0, |id| id.0);
        let end = self.dirty.last().map_or(0, |id| id.0 + 1);
        let mut dirty = self.dirty.iter().peekable();
        self.cells
            .get_mut(first..end)
            .unwrap_or_default()
            .iter_mut()
            .zip(first..)
            .filter_map(move |(cell, i)| {
                dirty.next_if(|id| id.0 == i)?;
                Rc::get_mut(cell)
            })
    }

    /// Cells mutated or allocated since the last [`Heap::clear_dirty`].
    pub fn dirty_cells(&self) -> &BTreeSet<ObjId> {
        &self.dirty
    }

    /// Anchors a capture base: from here on, [`Heap::dirty_cells`] names
    /// exactly the cells that may differ from this instant.
    pub fn clear_dirty(&mut self) {
        self.dirty.clear();
    }

    /// Frees every cell `live` rejects, among the cells the last sweep
    /// kept and those allocated since. The caller vouches that nothing
    /// outside `live` — no global, no host, no interpreter frame — holds
    /// a handle to the cells it rejects; the write barrier is left alone.
    pub(crate) fn sweep(&mut self, mut live: impl FnMut(ObjId) -> bool) {
        let freed = FREED.with(Rc::clone);
        let Heap {
            cells, held, swept, ..
        } = self;
        let mut keep = |cells: &mut [Rc<HeapCell>], id: ObjId| {
            let kept = live(id);
            if !kept {
                cells[id.0] = Rc::clone(&freed);
            }
            kept
        };
        held.retain(|&id| keep(cells, id));
        for i in *swept..cells.len() {
            // A copy's first sweep walks every id, freed ones included.
            if !Rc::ptr_eq(&cells[i], &freed) && keep(cells, ObjId(i)) {
                held.push(ObjId(i));
            }
        }
        *swept = cells.len();
    }

    /// `true` when a sweep freed this cell.
    #[cfg(test)]
    pub(crate) fn is_freed(&self, id: ObjId) -> bool {
        FREED.with(|freed| Rc::ptr_eq(&self.cells[id.0], freed))
    }

    /// Gets a property of an object cell (`undefined` when missing,
    /// matching JS).
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Runtime`] when the cell is not an object.
    pub fn get_prop(&self, id: ObjId, key: &str) -> Result<JsValue, WebError> {
        match self.cell(id)? {
            HeapCell::Object(map) => Ok(map.get(key).cloned().unwrap_or(JsValue::Undefined)),
            other => Err(WebError::Runtime(format!(
                "property access on {}",
                cell_type(other)
            ))),
        }
    }

    /// Sets a property of an object cell.
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Runtime`] when the cell is not an object.
    pub fn set_prop(&mut self, id: ObjId, key: &str, value: JsValue) -> Result<(), WebError> {
        match self.cell_mut(id)? {
            HeapCell::Object(map) => {
                map.insert(key.to_string(), value);
                Ok(())
            }
            other => Err(WebError::Runtime(format!(
                "property assignment on {}",
                cell_type(other)
            ))),
        }
    }

    /// Indexes an array or Float32Array (`undefined` out of bounds).
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Runtime`] for non-indexable cells or negative /
    /// non-integer indices.
    pub fn get_index(&self, id: ObjId, index: f64) -> Result<JsValue, WebError> {
        let i = to_index(index)?;
        match self.cell(id)? {
            HeapCell::Array(v) => Ok(v.get(i).cloned().unwrap_or(JsValue::Undefined)),
            HeapCell::Float32Array(v) => Ok(v
                .get(i)
                .map(|&x| JsValue::Number(x as f64))
                .unwrap_or(JsValue::Undefined)),
            other => Err(WebError::Runtime(format!(
                "indexing on {}",
                cell_type(other)
            ))),
        }
    }

    /// Assigns into an array or Float32Array, growing plain arrays as JS
    /// does (with `undefined` holes).
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Runtime`] for non-indexable cells, bad indices,
    /// non-numeric writes into a `Float32Array`, or out-of-bounds typed
    /// array writes.
    pub fn set_index(&mut self, id: ObjId, index: f64, value: JsValue) -> Result<(), WebError> {
        let i = to_index(index)?;
        match self.cell_mut(id)? {
            HeapCell::Array(v) => {
                if i >= v.len() {
                    v.resize(i + 1, JsValue::Undefined);
                }
                v[i] = value;
                Ok(())
            }
            HeapCell::Float32Array(v) => {
                let n = value.as_number()?;
                if i >= v.len() {
                    // JS typed arrays silently drop OOB writes; we surface
                    // them because they are always bugs in this codebase.
                    return Err(WebError::Runtime(format!(
                        "Float32Array write out of bounds ({i} >= {})",
                        v.len()
                    )));
                }
                v[i] = n as f32;
                Ok(())
            }
            other => Err(WebError::Runtime(format!(
                "index assignment on {}",
                cell_type(other)
            ))),
        }
    }

    /// Length of an array or Float32Array.
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Runtime`] for cells without a length.
    pub fn length(&self, id: ObjId) -> Result<usize, WebError> {
        match self.cell(id)? {
            HeapCell::Array(v) => Ok(v.len()),
            HeapCell::Float32Array(v) => Ok(v.len()),
            other => Err(WebError::Runtime(format!(
                ".length on {}",
                cell_type(other)
            ))),
        }
    }

    /// Structural equality between two values in (possibly) two heaps —
    /// follows references, tolerates cycles. This is how tests assert that
    /// capture→restore reproduced the execution state.
    pub fn deep_eq(
        &self,
        a: &JsValue,
        other_heap: &Heap,
        b: &JsValue,
        // Visited-set only — never iterated. lint: allow(hash-iter)
        visited: &mut std::collections::HashSet<(usize, usize)>,
    ) -> bool {
        match (a, b) {
            (JsValue::Object(x), JsValue::Object(y))
            | (JsValue::Array(x), JsValue::Array(y))
            | (JsValue::Float32Array(x), JsValue::Float32Array(y)) => {
                if !visited.insert((x.0, y.0)) {
                    return true; // already comparing this pair (cycle)
                }
                match (self.cell(*x), other_heap.cell(*y)) {
                    (Ok(HeapCell::Object(ma)), Ok(HeapCell::Object(mb))) => {
                        ma.len() == mb.len()
                            && ma.iter().all(|(k, va)| {
                                mb.get(k)
                                    .map(|vb| self.deep_eq(va, other_heap, vb, visited))
                                    .unwrap_or(false)
                            })
                    }
                    (Ok(HeapCell::Array(va)), Ok(HeapCell::Array(vb))) => {
                        va.len() == vb.len()
                            && va
                                .iter()
                                .zip(vb)
                                .all(|(x, y)| self.deep_eq(x, other_heap, y, visited))
                    }
                    (Ok(HeapCell::Float32Array(va)), Ok(HeapCell::Float32Array(vb))) => {
                        va.len() == vb.len()
                            && va
                                .iter()
                                .zip(vb)
                                .all(|(x, y)| x == y || (x.is_nan() && y.is_nan()))
                    }
                    _ => false,
                }
            }
            (JsValue::Number(x), JsValue::Number(y)) => x == y || (x.is_nan() && y.is_nan()),
            _ => a == b,
        }
    }
}

fn cell_type(cell: &HeapCell) -> &'static str {
    match cell {
        HeapCell::Object(_) => "object",
        HeapCell::Array(_) => "array",
        HeapCell::Float32Array(_) => "Float32Array",
    }
}

fn to_index(index: f64) -> Result<usize, WebError> {
    if index < 0.0 || index.fract() != 0.0 || !index.is_finite() {
        return Err(WebError::Runtime(format!("invalid index {index}")));
    }
    Ok(index as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness_matches_js() {
        assert!(!JsValue::Undefined.is_truthy());
        assert!(!JsValue::Null.is_truthy());
        assert!(!JsValue::Bool(false).is_truthy());
        assert!(!JsValue::Number(0.0).is_truthy());
        assert!(!JsValue::Number(f64::NAN).is_truthy());
        assert!(!JsValue::Str("".into()).is_truthy());
        assert!(JsValue::Number(-1.0).is_truthy());
        assert!(JsValue::Str("x".into()).is_truthy());
    }

    #[test]
    fn object_props_default_undefined() {
        let mut heap = Heap::new();
        let obj = heap.alloc_object();
        let JsValue::Object(id) = obj else { panic!() };
        assert_eq!(heap.get_prop(id, "missing").unwrap(), JsValue::Undefined);
        heap.set_prop(id, "x", JsValue::Number(1.0)).unwrap();
        assert_eq!(heap.get_prop(id, "x").unwrap(), JsValue::Number(1.0));
    }

    #[test]
    fn array_grows_on_write() {
        let mut heap = Heap::new();
        let JsValue::Array(id) = heap.alloc_array(vec![]) else {
            panic!()
        };
        heap.set_index(id, 2.0, JsValue::Number(5.0)).unwrap();
        assert_eq!(heap.length(id).unwrap(), 3);
        assert_eq!(heap.get_index(id, 0.0).unwrap(), JsValue::Undefined);
        assert_eq!(heap.get_index(id, 2.0).unwrap(), JsValue::Number(5.0));
    }

    #[test]
    fn f32_array_rejects_oob_and_non_numeric() {
        let mut heap = Heap::new();
        let JsValue::Float32Array(id) = heap.alloc_f32(vec![0.0; 2]) else {
            panic!()
        };
        assert!(heap.set_index(id, 5.0, JsValue::Number(1.0)).is_err());
        assert!(heap.set_index(id, 0.0, JsValue::Str("x".into())).is_err());
        heap.set_index(id, 1.0, JsValue::Number(2.5)).unwrap();
        assert_eq!(heap.get_index(id, 1.0).unwrap(), JsValue::Number(2.5));
    }

    #[test]
    fn a_clone_shares_cells_until_one_side_writes() {
        let mut heap = Heap::new();
        let JsValue::Float32Array(id) = heap.alloc_f32(vec![1.0; 4]) else {
            panic!()
        };
        let base = heap.clone();
        assert!(Rc::ptr_eq(&heap.cells[id.0], &base.cells[id.0]));
        heap.set_index(id, 0.0, JsValue::Number(2.0)).unwrap();
        assert!(!Rc::ptr_eq(&heap.cells[id.0], &base.cells[id.0]));
        assert_eq!(base.get_index(id, 0.0).unwrap(), JsValue::Number(1.0));
        assert_eq!(heap.get_index(id, 0.0).unwrap(), JsValue::Number(2.0));
        assert_ne!(heap, base);
    }

    #[test]
    fn a_sweep_frees_in_place_and_visits_only_kept_and_new_cells() {
        let mut heap = Heap::new();
        for i in 0..6 {
            heap.alloc_f32(vec![i as f32; 4]);
        }
        let mut visited = Vec::new();
        heap.sweep(|id| {
            visited.push(id.0);
            id.0 % 2 == 0
        });
        assert_eq!(visited, [0, 1, 2, 3, 4, 5]);
        assert_eq!(heap.len(), 6, "ids are never reused");
        assert!((0..6).all(|i| heap.is_freed(ObjId(i)) == (i % 2 == 1)));
        assert_eq!(heap.get_index(ObjId(4), 0.0).unwrap(), JsValue::Number(4.0));

        // The next sweep visits the three it kept and the one allocated
        // since, never the freed ones.
        let JsValue::Float32Array(new) = heap.alloc_f32(vec![7.0]) else {
            panic!()
        };
        let mut visited = Vec::new();
        heap.sweep(|id| {
            visited.push(id.0);
            id != ObjId(2)
        });
        assert_eq!(visited, [0, 2, 4, new.0]);
        assert!(heap.is_freed(ObjId(2)) && !heap.is_freed(new));

        // A copy starts without the bookkeeping: its first sweep walks
        // every id once, skipping the placeholders.
        let mut copy = heap.clone();
        let mut visited = Vec::new();
        copy.sweep(|id| {
            visited.push(id.0);
            true
        });
        assert_eq!(visited, [0, 4, new.0]);
        assert_eq!(copy, heap);
    }

    #[test]
    fn bad_indices_rejected() {
        let mut heap = Heap::new();
        let JsValue::Array(id) = heap.alloc_array(vec![]) else {
            panic!()
        };
        assert!(heap.get_index(id, -1.0).is_err());
        assert!(heap.get_index(id, 0.5).is_err());
        assert!(heap.get_index(id, f64::INFINITY).is_err());
    }

    #[test]
    fn deep_eq_follows_references() {
        let mut h1 = Heap::new();
        let JsValue::Object(a) = h1.alloc_object() else {
            panic!()
        };
        let inner1 = h1.alloc_array(vec![JsValue::Number(1.0)]);
        h1.set_prop(a, "list", inner1).unwrap();

        let mut h2 = Heap::new();
        let JsValue::Object(b) = h2.alloc_object() else {
            panic!()
        };
        let inner2 = h2.alloc_array(vec![JsValue::Number(1.0)]);
        h2.set_prop(b, "list", inner2).unwrap();

        let mut visited = std::collections::HashSet::new();
        assert!(h1.deep_eq(&JsValue::Object(a), &h2, &JsValue::Object(b), &mut visited));

        h2.set_prop(b, "extra", JsValue::Null).unwrap();
        let mut visited = std::collections::HashSet::new();
        assert!(!h1.deep_eq(&JsValue::Object(a), &h2, &JsValue::Object(b), &mut visited));
    }

    #[test]
    fn deep_eq_tolerates_cycles() {
        let mut h1 = Heap::new();
        let JsValue::Object(a) = h1.alloc_object() else {
            panic!()
        };
        h1.set_prop(a, "me", JsValue::Object(a)).unwrap();
        let mut h2 = Heap::new();
        let JsValue::Object(b) = h2.alloc_object() else {
            panic!()
        };
        h2.set_prop(b, "me", JsValue::Object(b)).unwrap();
        let mut visited = std::collections::HashSet::new();
        assert!(h1.deep_eq(&JsValue::Object(a), &h2, &JsValue::Object(b), &mut visited));
    }
}
