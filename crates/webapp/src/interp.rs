//! The MiniJS evaluator.
//!
//! Scoping is deliberately simple (top-level functions, one local frame per
//! call, globals) because the snapshot format of reference [10] — which this
//! crate reproduces — does not capture closures; that extension is the
//! follow-up work [11].

use crate::ast::{Expr, FunctionDef, Stmt};
use crate::browser::{Browser, Core, Listener, PendingEvent};
use crate::dom::DomNodeId;
use crate::intern::{Ident, Symbol};
use crate::value::{HeapCell, JsValue};
use crate::WebError;
use std::collections::BTreeMap;
use std::rc::Rc;

/// The local-variable layout of one function: every name the body can
/// bind (parameters first, then `var` declarations in first-occurrence
/// order), each mapped to a dense slot. Computed once per definition and
/// cached on the browser keyed by function symbol, validated by pointer
/// identity against the registered definition — local lookup at run time
/// is a symbol-indexed slot hit instead of a string-keyed map walk.
#[derive(Debug)]
pub(crate) struct FrameLayout {
    slots: Vec<Symbol>,
    index: BTreeMap<Symbol, usize>,
}

impl FrameLayout {
    pub(crate) fn for_def(def: &FunctionDef) -> FrameLayout {
        let mut layout = FrameLayout {
            slots: Vec::new(),
            index: BTreeMap::new(),
        };
        for param in &def.params {
            layout.add(param.sym());
        }
        scan_vars(&def.body, &mut layout);
        layout
    }

    fn add(&mut self, sym: Symbol) {
        let next = self.slots.len();
        self.index.entry(sym).or_insert_with(|| {
            self.slots.push(sym);
            next
        });
    }

    fn slot_of(&self, sym: Symbol) -> Option<usize> {
        self.index.get(&sym).copied()
    }

    fn len(&self) -> usize {
        self.slots.len()
    }
}

/// Collects `var` names into the layout. Does not descend into nested
/// function declarations — their `var`s bind in *their* frame.
fn scan_vars(stmts: &[Stmt], layout: &mut FrameLayout) {
    for stmt in stmts {
        match stmt {
            Stmt::Var(name, _) => layout.add(name.sym()),
            Stmt::If(_, then_body, else_body) => {
                scan_vars(then_body, layout);
                scan_vars(else_body, layout);
            }
            Stmt::While(_, body) => scan_vars(body, layout),
            Stmt::For {
                init, update, body, ..
            } => {
                if let Some(init) = init {
                    scan_vars(std::slice::from_ref(init), layout);
                }
                if let Some(update) = update {
                    scan_vars(std::slice::from_ref(update), layout);
                }
                scan_vars(body, layout);
            }
            Stmt::Function(_) | Stmt::Assign(..) | Stmt::Expr(_) | Stmt::Return(_) => {}
        }
    }
}

/// One call frame: slot-indexed locals. `None` means the slot's `var`
/// has not executed yet — MiniJS does not hoist, so reads fall through
/// to the global scope and assignments create globals until the
/// declaration runs (parameters are occupied from entry).
struct Frame {
    layout: Rc<FrameLayout>,
    slots: Vec<Option<JsValue>>,
}

impl Frame {
    fn new(layout: Rc<FrameLayout>) -> Frame {
        let slots = vec![None; layout.len()];
        Frame { layout, slots }
    }
}

enum Flow {
    Normal,
    Return(JsValue),
}

impl Browser {
    pub(crate) fn exec_top_level(&mut self, program: &[Stmt]) -> Result<(), WebError> {
        let mut frame: Option<Frame> = None;
        match self.exec_stmts(program, &mut frame)? {
            Flow::Normal => Ok(()),
            Flow::Return(_) => Err(WebError::Runtime("return outside function".into())),
        }
    }

    /// Calls a top-level function by name with the given arguments.
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Runtime`] for unknown functions or evaluation
    /// failures inside the body.
    pub fn call_function_by_name(
        &mut self,
        name: &str,
        args: &[JsValue],
    ) -> Result<JsValue, WebError> {
        self.call_function_sym(Symbol::intern(name), name, args)
    }

    pub(crate) fn call_function_sym(
        &mut self,
        sym: Symbol,
        name: &str,
        args: &[JsValue],
    ) -> Result<JsValue, WebError> {
        if let Some(m) = self.meter.as_mut() {
            m.enter_call()?;
        }
        let result = self.call_function_inner(sym, name, args);
        if let Some(m) = self.meter.as_mut() {
            m.exit_call();
        }
        result
    }

    /// The cached `FrameLayout` for `def`, computed on first call and
    /// revalidated by pointer identity (redefining a function replaces
    /// the `Rc`, which invalidates the entry automatically).
    fn frame_layout(&mut self, sym: Symbol, def: &Rc<FunctionDef>) -> Rc<FrameLayout> {
        match self.layout_cache.get(&sym) {
            Some((cached_def, layout)) if Rc::ptr_eq(cached_def, def) => Rc::clone(layout),
            _ => {
                let layout = Rc::new(FrameLayout::for_def(def));
                self.layout_cache
                    .insert(sym, (Rc::clone(def), Rc::clone(&layout)));
                layout
            }
        }
    }

    fn call_function_inner(
        &mut self,
        sym: Symbol,
        name: &str,
        args: &[JsValue],
    ) -> Result<JsValue, WebError> {
        let def: Rc<FunctionDef> = self
            .core
            .functions
            .get(&sym)
            .cloned()
            .ok_or_else(|| WebError::Runtime(format!("unknown function {name:?}")))?;
        let layout = self.frame_layout(sym, &def);
        let mut frame = Frame::new(layout);
        for (i, param) in def.params.iter().enumerate() {
            if let Some(slot) = frame.layout.slot_of(param.sym()) {
                frame.slots[slot] = Some(args.get(i).cloned().unwrap_or(JsValue::Undefined));
            }
        }
        let mut frame = Some(frame);
        match self.exec_stmts(&def.body, &mut frame)? {
            Flow::Normal => Ok(JsValue::Undefined),
            Flow::Return(v) => Ok(v),
        }
    }

    /// Evaluates one expression in global scope and returns its value —
    /// handy for tests, examples and debugging ("what does the app see?").
    ///
    /// # Errors
    ///
    /// Returns lex/parse/runtime errors.
    pub fn eval_expr(&mut self, src: &str) -> Result<JsValue, WebError> {
        let expr = crate::parser::parse_expr(src)?;
        self.core.steps = 0;
        if let Some(m) = self.meter.as_mut() {
            m.begin_segment();
        }
        let mut frame = None;
        self.eval(&expr, &mut frame)
    }

    fn bump_steps(&mut self) -> Result<(), WebError> {
        self.core.steps += 1;
        if self.core.steps > self.max_steps() {
            return Err(self.step_limit_exceeded());
        }
        if let Some(m) = self.meter.as_mut() {
            m.charge(1, self.core.heap.len())?;
        }
        Ok(())
    }

    fn step_limit_exceeded(&self) -> WebError {
        WebError::Runtime(format!("step limit exceeded ({})", self.max_steps()))
    }

    /// `n` [`Browser::bump_steps`] in a row with no allocation between them,
    /// in one call: stops on the step that would have failed, with the
    /// error and the counters (`steps`, the meter's ops and peak heap) that
    /// `n` single calls leave behind.
    fn bump_steps_by(&mut self, n: u64) -> Result<(), WebError> {
        let fit = n.min(self.max_steps().saturating_sub(self.core.steps));
        if let Some(m) = self.meter.as_mut() {
            if let Err((charged, e)) = m.charge_units(fit, self.core.heap.len()) {
                self.core.steps += charged;
                return Err(e);
            }
        }
        self.core.steps += fit;
        if fit < n {
            self.core.steps += 1;
            return Err(self.step_limit_exceeded());
        }
        Ok(())
    }

    fn exec_stmts(&mut self, stmts: &[Stmt], frame: &mut Option<Frame>) -> Result<Flow, WebError> {
        for stmt in stmts {
            if let Flow::Return(v) = self.exec_stmt(stmt, frame)? {
                return Ok(Flow::Return(v));
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, frame: &mut Option<Frame>) -> Result<Flow, WebError> {
        self.bump_steps()?;
        match stmt {
            Stmt::Var(name, init) => {
                let value = match init {
                    Some(e) => self.eval(e, frame)?,
                    None => JsValue::Undefined,
                };
                match frame {
                    // The layout indexed every `var` in the body, so the
                    // slot exists; occupy it now (no hoisting).
                    Some(locals) => match locals.layout.slot_of(name.sym()) {
                        Some(slot) => locals.slots[slot] = Some(value),
                        None => {
                            self.core.globals.insert(name.sym(), value);
                        }
                    },
                    None => {
                        self.core.globals.insert(name.sym(), value);
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Assign(target, value_expr) => {
                let value = self.eval(value_expr, frame)?;
                self.assign(target, value, frame)?;
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e, frame)?;
                Ok(Flow::Normal)
            }
            Stmt::Function(def) => {
                self.core
                    .functions
                    .insert(def.name.sym(), Rc::new(def.clone()));
                Ok(Flow::Normal)
            }
            Stmt::Return(e) => {
                let value = match e {
                    Some(e) => self.eval(e, frame)?,
                    None => JsValue::Undefined,
                };
                Ok(Flow::Return(value))
            }
            Stmt::If(cond, then_body, else_body) => {
                if self.eval(cond, frame)?.is_truthy() {
                    self.exec_stmts(then_body, frame)
                } else {
                    self.exec_stmts(else_body, frame)
                }
            }
            Stmt::While(cond, body) => {
                while self.eval(cond, frame)?.is_truthy() {
                    self.bump_steps()?;
                    if let Flow::Return(v) = self.exec_stmts(body, frame)? {
                        return Ok(Flow::Return(v));
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                if let Some(init) = init {
                    self.exec_stmt(init, frame)?;
                }
                loop {
                    if let Some(cond) = cond {
                        if !self.eval(cond, frame)?.is_truthy() {
                            break;
                        }
                    }
                    self.bump_steps()?;
                    if let Flow::Return(v) = self.exec_stmts(body, frame)? {
                        return Ok(Flow::Return(v));
                    }
                    if let Some(update) = update {
                        self.exec_stmt(update, frame)?;
                    }
                }
                Ok(Flow::Normal)
            }
        }
    }

    fn assign(
        &mut self,
        target: &Expr,
        value: JsValue,
        frame: &mut Option<Frame>,
    ) -> Result<(), WebError> {
        match target {
            Expr::Ident(name) => {
                if let Some(locals) = frame {
                    if let Some(slot) = locals.layout.slot_of(name.sym()) {
                        // Only an *occupied* slot is a local — before its
                        // `var` runs, assignment still targets a global.
                        if locals.slots[slot].is_some() {
                            locals.slots[slot] = Some(value);
                            return Ok(());
                        }
                    }
                }
                // Assignment to an undeclared name creates/overwrites a
                // global, as in sloppy-mode JS.
                self.core.globals.insert(name.sym(), value);
                Ok(())
            }
            Expr::Member(obj_expr, prop) => {
                let obj = self.eval(obj_expr, frame)?;
                match obj {
                    JsValue::Object(id) => self.core.heap.set_prop(id, prop, value),
                    JsValue::Dom(node) => match prop.as_str() {
                        "textContent" => {
                            let text = self.stringify(&value);
                            self.core.doc.set_text(node, &text)
                        }
                        other => Err(WebError::Runtime(format!(
                            "cannot assign element property {other:?}"
                        ))),
                    },
                    other => Err(WebError::Runtime(format!(
                        "cannot assign property on {}",
                        other.type_name()
                    ))),
                }
            }
            Expr::Index(obj_expr, index_expr) => {
                let obj = self.eval(obj_expr, frame)?;
                let index = self.eval(index_expr, frame)?;
                match (&obj, &index) {
                    (JsValue::Object(id), JsValue::Str(key)) => {
                        self.core.heap.set_prop(*id, key, value)
                    }
                    (JsValue::Array(id) | JsValue::Float32Array(id), JsValue::Number(n)) => {
                        self.core.heap.set_index(*id, *n, value)
                    }
                    _ => Err(WebError::Runtime(format!(
                        "cannot index {} with {}",
                        obj.type_name(),
                        index.type_name()
                    ))),
                }
            }
            _ => Err(WebError::Runtime("invalid assignment target".into())),
        }
    }

    fn eval(&mut self, expr: &Expr, frame: &mut Option<Frame>) -> Result<JsValue, WebError> {
        self.bump_steps()?;
        match expr {
            Expr::Undefined => Ok(JsValue::Undefined),
            Expr::Null => Ok(JsValue::Null),
            Expr::Bool(b) => Ok(JsValue::Bool(*b)),
            Expr::Number(n) => Ok(JsValue::Number(*n)),
            Expr::Str(s) => Ok(JsValue::Str(s.clone())),
            Expr::Ident(name) => self.lookup(name, frame),
            Expr::Array(elems) => {
                let values: Vec<JsValue> = elems
                    .iter()
                    .map(|e| self.eval(e, frame))
                    .collect::<Result<_, _>>()?;
                Ok(self.core.heap.alloc_array(values))
            }
            Expr::Object(props) => {
                let obj = self.core.heap.alloc_object();
                let JsValue::Object(id) = obj else {
                    return Err(heap_cell_mismatch("alloc_object"));
                };
                for (key, value_expr) in props {
                    let value = self.eval(value_expr, frame)?;
                    self.core.heap.set_prop(id, key, value)?;
                }
                Ok(obj)
            }
            Expr::NewFloat32Array(arg) => {
                let value = self.eval(arg, frame)?;
                let data: Vec<f32> = match &value {
                    JsValue::Number(n) => {
                        if *n < 0.0 || n.fract() != 0.0 {
                            return Err(WebError::Runtime(format!(
                                "invalid Float32Array length {n}"
                            )));
                        }
                        vec![0.0; *n as usize]
                    }
                    JsValue::Array(id) => match self.core.heap.cell(*id)? {
                        HeapCell::Array(elems) => elems
                            .iter()
                            .map(JsValue::as_number)
                            .collect::<Result<Vec<f64>, _>>()?
                            .into_iter()
                            .map(|v| v as f32)
                            .collect(),
                        _ => return Err(heap_cell_mismatch("Float32Array source array")),
                    },
                    JsValue::Float32Array(id) => match self.core.heap.cell(*id)? {
                        HeapCell::Float32Array(v) => v.clone(),
                        _ => return Err(heap_cell_mismatch("Float32Array source")),
                    },
                    other => {
                        return Err(WebError::Runtime(format!(
                            "Float32Array expects length or array, got {}",
                            other.type_name()
                        )))
                    }
                };
                Ok(self.core.heap.alloc_f32(data))
            }
            Expr::Float32ArrayLiteral(data) => {
                // What evaluating the same text as `NewFloat32Array` over an
                // `Array` charges after the step above: the list, one per
                // number, three per `(0/0)`-style quotient.
                let quotients = data.iter().filter(|v| !v.is_finite()).count();
                self.bump_steps_by((1 + data.len() + 2 * quotients) as u64)?;
                // That path allocates its list before the typed array; the
                // slot is kept (empty) so ids and `heap.len()` do not move.
                self.core.heap.alloc_array(Vec::new());
                Ok(self.core.heap.alloc_f32(data.clone()))
            }
            Expr::Member(obj_expr, prop) => {
                let obj = self.eval(obj_expr, frame)?;
                self.member_get(&obj, prop)
            }
            Expr::Index(obj_expr, index_expr) => {
                let obj = self.eval(obj_expr, frame)?;
                let index = self.eval(index_expr, frame)?;
                match (&obj, &index) {
                    (JsValue::Object(id), JsValue::Str(key)) => self.core.heap.get_prop(*id, key),
                    (JsValue::Array(id) | JsValue::Float32Array(id), JsValue::Number(n)) => {
                        self.core.heap.get_index(*id, *n)
                    }
                    _ => Err(WebError::Runtime(format!(
                        "cannot index {} with {}",
                        obj.type_name(),
                        index.type_name()
                    ))),
                }
            }
            Expr::Call(callee, args) => self.eval_call(callee, args, frame),
            Expr::Unary(op, e) => {
                let v = self.eval(e, frame)?;
                match *op {
                    "!" => Ok(JsValue::Bool(!v.is_truthy())),
                    "-" => Ok(JsValue::Number(-v.as_number()?)),
                    "typeof" => Ok(JsValue::Str(
                        match v {
                            JsValue::Undefined => "undefined",
                            JsValue::Null => "object", // JS's famous quirk
                            JsValue::Bool(_) => "boolean",
                            JsValue::Number(_) => "number",
                            JsValue::Str(_) => "string",
                            JsValue::Function(_) => "function",
                            _ => "object",
                        }
                        .to_string(),
                    )),
                    other => Err(WebError::Runtime(format!("unknown unary {other}"))),
                }
            }
            Expr::Binary(op, l, r) => self.eval_binary(op, l, r, frame),
        }
    }

    /// Resolution order (mirrored by the static analyzer): occupied
    /// frame slot, global, top-level function, host object. Every step
    /// is a symbol-keyed probe — no string comparison on this path.
    fn lookup(&mut self, name: &Ident, frame: &Option<Frame>) -> Result<JsValue, WebError> {
        let sym = name.sym();
        if let Some(locals) = frame {
            if let Some(slot) = locals.layout.slot_of(sym) {
                if let Some(v) = &locals.slots[slot] {
                    return Ok(v.clone());
                }
            }
        }
        if let Some(v) = self.core.globals.get(sym) {
            return Ok(v.clone());
        }
        if self.core.functions.contains_key(&sym) {
            return Ok(JsValue::Function(name.clone()));
        }
        if matches!(sym, Symbol::DOCUMENT | Symbol::CONSOLE | Symbol::MATH)
            || self.hosts.contains_key(&sym)
        {
            return Ok(JsValue::Host(name.clone()));
        }
        Err(WebError::Runtime(format!("unknown identifier {name:?}")))
    }

    fn eval_binary(
        &mut self,
        op: &str,
        l: &Expr,
        r: &Expr,
        frame: &mut Option<Frame>,
    ) -> Result<JsValue, WebError> {
        // Short-circuit operators return an operand, like JS.
        if op == "&&" {
            let lv = self.eval(l, frame)?;
            return if lv.is_truthy() {
                self.eval(r, frame)
            } else {
                Ok(lv)
            };
        }
        if op == "||" {
            let lv = self.eval(l, frame)?;
            return if lv.is_truthy() {
                Ok(lv)
            } else {
                self.eval(r, frame)
            };
        }
        let lv = self.eval(l, frame)?;
        let rv = self.eval(r, frame)?;
        match op {
            "+" => match (&lv, &rv) {
                (JsValue::Str(_), _) | (_, JsValue::Str(_)) => {
                    let mut s = self.stringify(&lv);
                    s.push_str(&self.stringify(&rv));
                    if let Some(m) = &self.meter {
                        m.check_string(s.len())?;
                    }
                    Ok(JsValue::Str(s))
                }
                _ => Ok(JsValue::Number(lv.as_number()? + rv.as_number()?)),
            },
            "-" => Ok(JsValue::Number(lv.as_number()? - rv.as_number()?)),
            "*" => Ok(JsValue::Number(lv.as_number()? * rv.as_number()?)),
            "/" => Ok(JsValue::Number(lv.as_number()? / rv.as_number()?)),
            "%" => Ok(JsValue::Number(lv.as_number()? % rv.as_number()?)),
            "==" => Ok(JsValue::Bool(js_equals(&lv, &rv))),
            "!=" => Ok(JsValue::Bool(!js_equals(&lv, &rv))),
            "<" | "<=" | ">" | ">=" => {
                let ord = match (&lv, &rv) {
                    (JsValue::Str(a), JsValue::Str(b)) => a.partial_cmp(b),
                    _ => lv.as_number()?.partial_cmp(&rv.as_number()?),
                };
                let result = match (op, ord) {
                    (_, None) => false, // NaN comparisons
                    ("<", Some(o)) => o == std::cmp::Ordering::Less,
                    ("<=", Some(o)) => o != std::cmp::Ordering::Greater,
                    (">", Some(o)) => o == std::cmp::Ordering::Greater,
                    (">=", Some(o)) => o != std::cmp::Ordering::Less,
                    (other, _) => {
                        return Err(WebError::Runtime(format!("unknown comparison {other}")))
                    }
                };
                Ok(JsValue::Bool(result))
            }
            other => Err(WebError::Runtime(format!("unknown operator {other}"))),
        }
    }

    fn member_get(&mut self, obj: &JsValue, prop: &str) -> Result<JsValue, WebError> {
        match obj {
            JsValue::Object(id) => self.core.heap.get_prop(*id, prop),
            JsValue::Array(id) | JsValue::Float32Array(id) if prop == "length" => {
                Ok(JsValue::Number(self.core.heap.length(*id)? as f64))
            }
            JsValue::Str(s) if prop == "length" => Ok(JsValue::Number(s.chars().count() as f64)),
            JsValue::Dom(node) => match prop {
                "textContent" => Ok(JsValue::Str(self.core.doc.text(*node)?.to_string())),
                "tagName" => Ok(JsValue::Str(self.core.doc.tag(*node)?.to_string())),
                "id" => Ok(self
                    .core
                    .doc
                    .attr(*node, "id")?
                    .map(|s| JsValue::Str(s.to_string()))
                    .unwrap_or(JsValue::Undefined)),
                other => Err(WebError::Runtime(format!(
                    "unknown element property {other:?}"
                ))),
            },
            JsValue::Host(name) => self.host_get(name, prop),
            other => Err(WebError::Runtime(format!(
                "cannot read {prop:?} of {}",
                other.type_name()
            ))),
        }
    }

    fn eval_call(
        &mut self,
        callee: &Expr,
        arg_exprs: &[Expr],
        frame: &mut Option<Frame>,
    ) -> Result<JsValue, WebError> {
        let args: Vec<JsValue> = arg_exprs
            .iter()
            .map(|e| self.eval(e, frame))
            .collect::<Result<_, _>>()?;
        if let Expr::Member(obj_expr, method) = callee {
            let obj = self.eval(obj_expr, frame)?;
            return match &obj {
                JsValue::Dom(node) => self.dom_method(*node, method, &args),
                JsValue::Host(name) => self.host_call(&name.clone(), method, &args),
                JsValue::Array(id) => self.array_method(*id, method, &args),
                JsValue::Str(s) => self.string_method(&s.clone(), method, &args),
                JsValue::Object(id) => {
                    let f = self.core.heap.get_prop(*id, method)?;
                    match f {
                        JsValue::Function(name) => self.call_function_sym(name.sym(), &name, &args),
                        other => Err(WebError::Runtime(format!(
                            "{method:?} is not a function (got {})",
                            other.type_name()
                        ))),
                    }
                }
                other => Err(WebError::Runtime(format!(
                    "cannot call method {method:?} on {}",
                    other.type_name()
                ))),
            };
        }
        let f = self.eval(callee, frame)?;
        match f {
            JsValue::Function(name) => self.call_function_sym(name.sym(), &name, &args),
            other => Err(WebError::Runtime(format!(
                "{} is not callable",
                other.type_name()
            ))),
        }
    }

    fn string_method(
        &mut self,
        s: &str,
        method: &str,
        args: &[JsValue],
    ) -> Result<JsValue, WebError> {
        let chars: Vec<char> = s.chars().collect();
        match method {
            "indexOf" => {
                let needle = args
                    .first()
                    .ok_or_else(|| WebError::Runtime("indexOf needs an argument".into()))?
                    .as_str()?;
                Ok(JsValue::Number(match s.find(needle) {
                    Some(byte_idx) => s[..byte_idx].chars().count() as f64,
                    None => -1.0,
                }))
            }
            "charAt" => {
                let i = args
                    .first()
                    .ok_or_else(|| WebError::Runtime("charAt needs an index".into()))?
                    .as_number()?;
                let c = if i >= 0.0 && i.fract() == 0.0 {
                    chars.get(i as usize).map(|c| c.to_string())
                } else {
                    None
                };
                Ok(JsValue::Str(c.unwrap_or_default()))
            }
            "substring" => {
                let start = args
                    .first()
                    .ok_or_else(|| WebError::Runtime("substring needs a start".into()))?
                    .as_number()?
                    .max(0.0) as usize;
                let end = match args.get(1) {
                    Some(v) => v.as_number()?.max(0.0) as usize,
                    None => chars.len(),
                };
                let (lo, hi) = (start.min(end), start.max(end)); // JS swaps
                let lo = lo.min(chars.len());
                let hi = hi.min(chars.len());
                Ok(JsValue::Str(chars[lo..hi].iter().collect()))
            }
            "split" => {
                let sep = args
                    .first()
                    .ok_or_else(|| WebError::Runtime("split needs a separator".into()))?
                    .as_str()?;
                let parts: Vec<JsValue> = if sep.is_empty() {
                    chars.iter().map(|c| JsValue::Str(c.to_string())).collect()
                } else {
                    s.split(sep).map(|p| JsValue::Str(p.to_string())).collect()
                };
                Ok(self.core.heap.alloc_array(parts))
            }
            "toUpperCase" => Ok(JsValue::Str(s.to_uppercase())),
            "toLowerCase" => Ok(JsValue::Str(s.to_lowercase())),
            "startsWith" => {
                let prefix = args
                    .first()
                    .ok_or_else(|| WebError::Runtime("startsWith needs an argument".into()))?
                    .as_str()?;
                Ok(JsValue::Bool(s.starts_with(prefix)))
            }
            other => Err(WebError::Runtime(format!(
                "unknown string method {other:?}"
            ))),
        }
    }

    fn array_method(
        &mut self,
        id: crate::value::ObjId,
        method: &str,
        args: &[JsValue],
    ) -> Result<JsValue, WebError> {
        match method {
            "push" => {
                let HeapCell::Array(v) = self.core.heap.cell_mut(id)? else {
                    return Err(heap_cell_mismatch("array push"));
                };
                for a in args {
                    v.push(a.clone());
                }
                let len = v.len() as f64;
                Ok(JsValue::Number(len))
            }
            "pop" => {
                let HeapCell::Array(v) = self.core.heap.cell_mut(id)? else {
                    return Err(heap_cell_mismatch("array pop"));
                };
                Ok(v.pop().unwrap_or(JsValue::Undefined))
            }
            "indexOf" => {
                let needle = args
                    .first()
                    .ok_or_else(|| WebError::Runtime("indexOf needs an argument".into()))?;
                let HeapCell::Array(v) = self.core.heap.cell(id)? else {
                    return Err(heap_cell_mismatch("array indexOf"));
                };
                let idx = v
                    .iter()
                    .position(|e| js_equals(e, needle))
                    .map(|i| i as f64)
                    .unwrap_or(-1.0);
                Ok(JsValue::Number(idx))
            }
            "join" => {
                let sep = match args.first() {
                    Some(v) => v.as_str()?.to_string(),
                    None => ",".to_string(),
                };
                let HeapCell::Array(v) = self.core.heap.cell(id)? else {
                    return Err(heap_cell_mismatch("array join"));
                };
                let parts: Vec<String> = v.clone().iter().map(|e| self.stringify(e)).collect();
                Ok(JsValue::Str(parts.join(&sep)))
            }
            "slice" => {
                let HeapCell::Array(v) = self.core.heap.cell(id)? else {
                    return Err(heap_cell_mismatch("array slice"));
                };
                let len = v.len();
                let start = match args.first() {
                    Some(a) => a.as_number()?.max(0.0) as usize,
                    None => 0,
                }
                .min(len);
                let end = match args.get(1) {
                    Some(a) => a.as_number()?.max(0.0) as usize,
                    None => len,
                }
                .min(len);
                let slice = if start <= end {
                    v[start..end].to_vec()
                } else {
                    Vec::new()
                };
                Ok(self.core.heap.alloc_array(slice))
            }
            other => Err(WebError::Runtime(format!("unknown array method {other:?}"))),
        }
    }

    fn dom_method(
        &mut self,
        node: DomNodeId,
        method: &str,
        args: &[JsValue],
    ) -> Result<JsValue, WebError> {
        match method {
            "addEventListener" => {
                let event = args
                    .first()
                    .ok_or_else(|| WebError::Runtime("addEventListener needs event name".into()))?
                    .as_str()?
                    .to_string();
                let handler = match args.get(1) {
                    Some(JsValue::Function(name)) => name.as_str().to_string(),
                    other => {
                        return Err(WebError::Runtime(format!(
                            "addEventListener needs a function, got {:?}",
                            other.map(JsValue::type_name)
                        )))
                    }
                };
                self.core.listeners.push(Listener {
                    target: node,
                    event,
                    handler,
                });
                Ok(JsValue::Undefined)
            }
            "removeEventListener" => {
                let event = args
                    .first()
                    .ok_or_else(|| WebError::Runtime("removeEventListener needs event".into()))?
                    .as_str()?
                    .to_string();
                let handler = match args.get(1) {
                    Some(JsValue::Function(name)) => Some(name.as_str().to_string()),
                    _ => None,
                };
                self.core.listeners.retain(|l| {
                    !(l.target == node
                        && l.event == event
                        && handler.as_deref().map(|h| h == l.handler).unwrap_or(true))
                });
                Ok(JsValue::Undefined)
            }
            "dispatchEvent" => {
                let event = args
                    .first()
                    .ok_or_else(|| WebError::Runtime("dispatchEvent needs event name".into()))?
                    .as_str()?
                    .to_string();
                self.core.queue.push_back(PendingEvent {
                    target: node,
                    event,
                });
                Ok(JsValue::Undefined)
            }
            "appendChild" => match args.first() {
                Some(JsValue::Dom(child)) => {
                    self.core.doc.append_child(node, *child)?;
                    Ok(JsValue::Undefined)
                }
                other => Err(WebError::Runtime(format!(
                    "appendChild needs an element, got {:?}",
                    other.map(JsValue::type_name)
                ))),
            },
            "getAttribute" => {
                let name = args
                    .first()
                    .ok_or_else(|| WebError::Runtime("getAttribute needs a name".into()))?
                    .as_str()?;
                Ok(self
                    .core
                    .doc
                    .attr(node, name)?
                    .map(|v| JsValue::Str(v.to_string()))
                    .unwrap_or(JsValue::Null))
            }
            "setAttribute" => {
                let name = args
                    .first()
                    .ok_or_else(|| WebError::Runtime("setAttribute needs a name".into()))?
                    .as_str()?
                    .to_string();
                let value = args
                    .get(1)
                    .ok_or_else(|| WebError::Runtime("setAttribute needs a value".into()))?
                    .clone();
                let value = self.stringify(&value);
                self.core.doc.set_attr(node, &name, &value)?;
                Ok(JsValue::Undefined)
            }
            "removeAttribute" => {
                let name = args
                    .first()
                    .ok_or_else(|| WebError::Runtime("removeAttribute needs a name".into()))?
                    .as_str()?
                    .to_string();
                self.core.doc.remove_attr(node, &name)?;
                Ok(JsValue::Undefined)
            }
            "getImageData" => {
                let data = self
                    .core
                    .doc
                    .image_data(node)?
                    .ok_or_else(|| WebError::Dom("canvas has no image data".into()))?
                    .to_vec();
                Ok(self.core.heap.alloc_f32(data))
            }
            "setImageData" => match args.first() {
                Some(JsValue::Float32Array(id)) => {
                    let HeapCell::Float32Array(data) = self.core.heap.cell(*id)? else {
                        return Err(heap_cell_mismatch("setImageData"));
                    };
                    let data = data.clone();
                    self.core.doc.set_image_data(node, Some(data))?;
                    Ok(JsValue::Undefined)
                }
                other => Err(WebError::Runtime(format!(
                    "setImageData needs a Float32Array, got {:?}",
                    other.map(JsValue::type_name)
                ))),
            },
            "clearImage" => {
                self.core.doc.set_image_data(node, None)?;
                Ok(JsValue::Undefined)
            }
            other => Err(WebError::Runtime(format!(
                "unknown element method {other:?}"
            ))),
        }
    }

    fn host_get(&mut self, host: &Ident, prop: &str) -> Result<JsValue, WebError> {
        let value = self.host_get_inner(host, prop)?;
        // One metered op per host-API access, charged after the host ran
        // so heap growth it caused is observed against the cap.
        self.meter_charge(1)?;
        Ok(value)
    }

    fn host_get_inner(&mut self, host: &Ident, prop: &str) -> Result<JsValue, WebError> {
        match host.sym() {
            Symbol::DOCUMENT => match prop {
                "body" => Ok(JsValue::Dom(self.core.doc.body())),
                other => Err(WebError::Runtime(format!(
                    "unknown document property {other:?}"
                ))),
            },
            Symbol::MATH => match prop {
                "PI" => Ok(JsValue::Number(std::f64::consts::PI)),
                other => Err(WebError::Runtime(format!(
                    "unknown Math property {other:?}"
                ))),
            },
            sym => {
                let mut h = self
                    .hosts
                    .remove(&sym)
                    .ok_or_else(|| WebError::Runtime(format!("unknown host object {host:?}")))?;
                let result = h.get(prop, &mut self.core);
                self.hosts.insert(sym, h);
                result
            }
        }
    }

    fn host_call(
        &mut self,
        host: &Ident,
        method: &str,
        args: &[JsValue],
    ) -> Result<JsValue, WebError> {
        let value = self.host_call_inner(host, method, args)?;
        self.meter_charge(1)?;
        Ok(value)
    }

    fn host_call_inner(
        &mut self,
        host: &Ident,
        method: &str,
        args: &[JsValue],
    ) -> Result<JsValue, WebError> {
        match host.sym() {
            Symbol::DOCUMENT => match method {
                "getElementById" => {
                    let id = args
                        .first()
                        .ok_or_else(|| WebError::Runtime("getElementById needs an id".into()))?
                        .as_str()?;
                    Ok(self
                        .core
                        .doc
                        .get_element_by_id(id)
                        .map(JsValue::Dom)
                        .unwrap_or(JsValue::Null))
                }
                "createElement" => {
                    let tag = args
                        .first()
                        .ok_or_else(|| WebError::Runtime("createElement needs a tag".into()))?
                        .as_str()?;
                    Ok(JsValue::Dom(self.core.doc.create_element(tag)))
                }
                // Snapshot-machinery builtin: delta scripts use this to
                // drop events that were consumed on the other side.
                "clearEventQueue" => {
                    self.core.queue.clear();
                    Ok(JsValue::Undefined)
                }
                other => Err(WebError::Runtime(format!(
                    "unknown document method {other:?}"
                ))),
            },
            Symbol::CONSOLE => match method {
                "log" => {
                    let line = args
                        .iter()
                        .map(|a| self.stringify(a))
                        .collect::<Vec<_>>()
                        .join(" ");
                    self.core.console.push(line);
                    Ok(JsValue::Undefined)
                }
                other => Err(WebError::Runtime(format!(
                    "unknown console method {other:?}"
                ))),
            },
            Symbol::MATH => {
                let num = |i: usize| -> Result<f64, WebError> {
                    args.get(i)
                        .ok_or_else(|| WebError::Runtime(format!("Math.{method} missing arg {i}")))?
                        .as_number()
                };
                let v = match method {
                    "floor" => num(0)?.floor(),
                    "ceil" => num(0)?.ceil(),
                    "round" => num(0)?.round(),
                    "abs" => num(0)?.abs(),
                    "sqrt" => num(0)?.sqrt(),
                    "pow" => num(0)?.powf(num(1)?),
                    "max" => {
                        let mut m = f64::NEG_INFINITY;
                        for a in args {
                            m = m.max(a.as_number()?);
                        }
                        m
                    }
                    "min" => {
                        let mut m = f64::INFINITY;
                        for a in args {
                            m = m.min(a.as_number()?);
                        }
                        m
                    }
                    other => {
                        return Err(WebError::Runtime(format!("unknown Math method {other:?}")))
                    }
                };
                Ok(JsValue::Number(v))
            }
            sym => {
                let mut h = self
                    .hosts
                    .remove(&sym)
                    .ok_or_else(|| WebError::Runtime(format!("unknown host object {host:?}")))?;
                let result = h.call(method, args, &mut self.core);
                self.hosts.insert(sym, h);
                result
            }
        }
    }

    /// JS-style string conversion (used by `+`, `textContent`, console).
    pub(crate) fn stringify(&self, value: &JsValue) -> String {
        stringify_value(&self.core, value, 0)
    }
}

fn stringify_value(core: &Core, value: &JsValue, depth: usize) -> String {
    if depth > 8 {
        return "...".to_string();
    }
    match value {
        JsValue::Undefined => "undefined".to_string(),
        JsValue::Null => "null".to_string(),
        JsValue::Bool(b) => b.to_string(),
        JsValue::Number(n) => {
            if n.is_nan() {
                "NaN".to_string()
            } else if n.is_infinite() {
                if *n > 0.0 { "Infinity" } else { "-Infinity" }.to_string()
            } else {
                format!("{n}")
            }
        }
        JsValue::Str(s) => s.clone(),
        JsValue::Object(_) => "[object Object]".to_string(),
        JsValue::Array(id) => match core.heap.cell(*id) {
            Ok(HeapCell::Array(elems)) => elems
                .iter()
                .map(|e| stringify_value(core, e, depth + 1))
                .collect::<Vec<_>>()
                .join(","),
            _ => String::new(),
        },
        JsValue::Float32Array(id) => match core.heap.cell(*id) {
            Ok(HeapCell::Float32Array(v)) => v
                .iter()
                .map(|x| format!("{}", *x as f64))
                .collect::<Vec<_>>()
                .join(","),
            _ => String::new(),
        },
        JsValue::Function(name) => format!("function {name}() {{ ... }}"),
        JsValue::Dom(_) => "[object HTMLElement]".to_string(),
        JsValue::Host(name) => format!("[host {name}]"),
    }
}

/// Internal invariant violation: a typed `JsValue` handle pointed at a
/// heap cell of a different shape — see [`WebError::Internal`].
fn heap_cell_mismatch(what: &str) -> WebError {
    WebError::Internal(format!("heap cell mismatch in {what}"))
}

fn js_equals(a: &JsValue, b: &JsValue) -> bool {
    match (a, b) {
        (JsValue::Null | JsValue::Undefined, JsValue::Null | JsValue::Undefined) => true,
        (JsValue::Number(x), JsValue::Number(y)) => x == y,
        (JsValue::Str(x), JsValue::Str(y)) => x == y,
        (JsValue::Bool(x), JsValue::Bool(y)) => x == y,
        (JsValue::Object(x), JsValue::Object(y)) => x == y,
        (JsValue::Array(x), JsValue::Array(y)) => x == y,
        (JsValue::Float32Array(x), JsValue::Float32Array(y)) => x == y,
        (JsValue::Function(x), JsValue::Function(y)) => x == y,
        (JsValue::Dom(x), JsValue::Dom(y)) => x == y,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use crate::{Browser, JsValue};

    fn run(src: &str) -> Browser {
        let mut b = Browser::new();
        b.exec_script(src).unwrap();
        b
    }

    #[test]
    fn arithmetic_and_globals() {
        let b = run("var x = 2 + 3 * 4; var y = x % 5;");
        assert_eq!(b.global("x"), JsValue::Number(14.0));
        assert_eq!(b.global("y"), JsValue::Number(4.0));
    }

    #[test]
    fn string_concat_coerces() {
        let b = run(r#"var s = "n=" + 3 + "!";"#);
        assert_eq!(b.global("s"), JsValue::Str("n=3!".into()));
    }

    #[test]
    fn function_calls_and_locals() {
        let b = run(r#"
            function add(a, b) { var c = a + b; return c; }
            var r = add(2, 40);
        "#);
        assert_eq!(b.global("r"), JsValue::Number(42.0));
    }

    #[test]
    fn locals_do_not_leak_to_globals() {
        let b = run("function f() { var hidden = 1; } f();");
        assert_eq!(b.global("hidden"), JsValue::Undefined);
    }

    #[test]
    fn globals_visible_inside_functions() {
        let b = run("var g = 10; function f() { g = g + 1; } f(); f();");
        assert_eq!(b.global("g"), JsValue::Number(12.0));
    }

    #[test]
    fn objects_and_arrays() {
        let b = run(r#"
            var obj = {x: 1, y: 2};
            obj.z = obj.x + obj.y;
            var arr = [10, 20];
            arr[2] = arr[0] + arr[1];
            var len = arr.length;
        "#);
        let mut b = b;
        let JsValue::Object(id) = b.global("obj") else {
            panic!()
        };
        assert_eq!(
            b.core_mut().heap.get_prop(id, "z").unwrap(),
            JsValue::Number(3.0)
        );
        assert_eq!(b.global("len"), JsValue::Number(3.0));
    }

    #[test]
    fn float32array_from_literal_and_length() {
        let b = run("var f = new Float32Array([1, 2.5, 3]); var n = f.length; var v = f[1];");
        assert_eq!(b.global("n"), JsValue::Number(3.0));
        assert_eq!(b.global("v"), JsValue::Number(2.5));
    }

    #[test]
    fn float32array_from_length() {
        let b = run("var f = new Float32Array(4); var v = f[3];");
        assert_eq!(b.global("v"), JsValue::Number(0.0));
    }

    #[test]
    fn while_loop_and_if() {
        let b = run(r#"
            var sum = 0;
            var i = 0;
            while (i < 10) {
              if (i % 2 == 0) { sum += i; }
              i = i + 1;
            }
        "#);
        assert_eq!(b.global("sum"), JsValue::Number(20.0));
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let mut b = Browser::new();
        b.set_max_steps(10_000);
        assert!(b.exec_script("while (true) { var x = 1; }").is_err());
    }

    #[test]
    fn short_circuit_returns_operand() {
        let b = run("var a = 0 || 5; var b = 0 && 5; var c = 1 && 2;");
        assert_eq!(b.global("a"), JsValue::Number(5.0));
        assert_eq!(b.global("b"), JsValue::Number(0.0));
        assert_eq!(b.global("c"), JsValue::Number(2.0));
    }

    #[test]
    fn math_and_console() {
        let b = run(r#"console.log("x =", Math.max(1, 7), Math.floor(2.9));"#);
        assert_eq!(b.console(), &["x = 7 2".to_string()]);
    }

    #[test]
    fn dom_create_append_text() {
        let b = run(r#"
            var div = document.createElement("div");
            div.setAttribute("id", "result");
            document.body.appendChild(div);
            div.textContent = "done: " + 3;
        "#);
        assert_eq!(b.element_text("result").unwrap(), "done: 3");
    }

    #[test]
    fn unknown_identifier_is_an_error() {
        let mut b = Browser::new();
        assert!(b.exec_script("var x = nope;").is_err());
    }

    #[test]
    fn array_push_pop() {
        let b = run("var a = [1]; a.push(2, 3); var p = a.pop(); var n = a.length;");
        assert_eq!(b.global("p"), JsValue::Number(3.0));
        assert_eq!(b.global("n"), JsValue::Number(2.0));
    }

    #[test]
    fn equality_follows_identity_for_objects() {
        let b = run("var a = {}; var b = {}; var same = a == a; var diff = a == b;");
        assert_eq!(b.global("same"), JsValue::Bool(true));
        assert_eq!(b.global("diff"), JsValue::Bool(false));
    }

    #[test]
    fn for_loop_sums() {
        let b = run("var sum = 0; for (var i = 0; i < 5; i += 1) { sum += i; }");
        assert_eq!(b.global("sum"), JsValue::Number(10.0));
    }

    #[test]
    fn infinite_for_loop_hits_the_step_limit() {
        // MiniJS has no `break`; `for (;;)` must be stopped by the guard.
        let mut b = Browser::new();
        b.set_max_steps(5_000);
        assert!(b.exec_script("for (;;) { var x = 1; }").is_err());
    }

    #[test]
    fn for_loop_without_init() {
        let b = run("var i = 0; var n = 0; for (; i < 4; i += 1) { n += 2; }");
        assert_eq!(b.global("n"), JsValue::Number(8.0));
    }

    #[test]
    fn typeof_matches_js() {
        let b = run(r#"
            var o = {};
            var arr = [1];
            function f() { return 0; }
            var checks = [typeof 1, typeof "s", typeof true, typeof undefined,
                          typeof null, typeof o, typeof arr, typeof f];
            var joined = checks.join("|");
        "#);
        assert_eq!(
            b.global("joined"),
            JsValue::Str("number|string|boolean|undefined|object|object|object|function".into())
        );
    }

    #[test]
    fn string_methods() {
        let b = run(r#"
            var s = "hello world";
            var idx = s.indexOf("world");
            var missing = s.indexOf("zzz");
            var ch = s.charAt(4);
            var sub = s.substring(6, 11);
            var up = s.toUpperCase();
            var starts = s.startsWith("hell");
            var parts = s.split(" ");
            var n = parts.length;
        "#);
        assert_eq!(b.global("idx"), JsValue::Number(6.0));
        assert_eq!(b.global("missing"), JsValue::Number(-1.0));
        assert_eq!(b.global("ch"), JsValue::Str("o".into()));
        assert_eq!(b.global("sub"), JsValue::Str("world".into()));
        assert_eq!(b.global("up"), JsValue::Str("HELLO WORLD".into()));
        assert_eq!(b.global("starts"), JsValue::Bool(true));
        assert_eq!(b.global("n"), JsValue::Number(2.0));
    }

    #[test]
    fn array_methods_extended() {
        let b = run(r#"
            var a = [3, 1, 4, 1, 5];
            var idx = a.indexOf(4);
            var missing = a.indexOf(99);
            var joined = a.join("-");
            var mid = a.slice(1, 3);
            var tail = a.slice(3);
            var m0 = mid[0];
            var t1 = tail[1];
        "#);
        assert_eq!(b.global("idx"), JsValue::Number(2.0));
        assert_eq!(b.global("missing"), JsValue::Number(-1.0));
        assert_eq!(b.global("joined"), JsValue::Str("3-1-4-1-5".into()));
        assert_eq!(b.global("m0"), JsValue::Number(1.0));
        assert_eq!(b.global("t1"), JsValue::Number(5.0));
    }

    #[test]
    fn eval_expr_reads_app_state() {
        let mut b = run("var obj = {x: 5, list: [1, 2, 3]};");
        assert_eq!(
            b.eval_expr("obj.x + obj.list.length").unwrap(),
            JsValue::Number(8.0)
        );
        assert!(b.eval_expr("obj.").is_err());
    }

    #[test]
    fn nan_comparisons_are_false() {
        let b = run("var n = 0 / 0; var lt = n < 1; var ge = n >= 1; var eq = n == n;");
        assert_eq!(b.global("lt"), JsValue::Bool(false));
        assert_eq!(b.global("ge"), JsValue::Bool(false));
        assert_eq!(b.global("eq"), JsValue::Bool(false));
    }

    mod meter {
        use super::run;
        use crate::{Browser, JsValue, MeterLimits, WebError};

        fn exhausted_resource(err: &WebError) -> &str {
            match err {
                WebError::ResourceExhausted { resource, .. } => resource,
                other => panic!("expected ResourceExhausted, got {other:?}"),
            }
        }

        #[test]
        fn op_budget_stops_runaway_loops() {
            let mut b = Browser::new();
            b.set_meter(MeterLimits::default().with_ops(1_000));
            let err = b.exec_script("while (true) { var x = 1; }").unwrap_err();
            assert_eq!(exhausted_resource(&err), "ops");
        }

        #[test]
        fn heap_cap_stops_allocation_bombs() {
            let mut b = Browser::new();
            b.set_meter(MeterLimits::default().with_heap_cells(10));
            let err = b
                .exec_script("var a = []; while (true) { a.push([1]); }")
                .unwrap_err();
            assert_eq!(exhausted_resource(&err), "heap");
        }

        #[test]
        fn call_depth_cap_stops_runaway_recursion() {
            let mut b = Browser::new();
            b.set_meter(MeterLimits::default().with_call_depth(16));
            let err = b
                .exec_script("function f() { return f(); } f();")
                .unwrap_err();
            assert_eq!(exhausted_resource(&err), "depth");
            // Depth recovers after the abort: shallow calls still work.
            b.exec_script("function g() { return 7; } var r = g();")
                .unwrap();
            assert_eq!(b.global("r"), JsValue::Number(7.0));
        }

        #[test]
        fn string_cap_stops_concat_doubling() {
            let mut b = Browser::new();
            b.set_meter(MeterLimits::default().with_string_len(1 << 16));
            let err = b
                .exec_script(r#"var s = "x"; while (true) { s = s + s; }"#)
                .unwrap_err();
            assert_eq!(exhausted_resource(&err), "string");
        }

        #[test]
        fn host_calls_are_charged() {
            let mut b = Browser::new();
            b.set_meter(MeterLimits::default());
            b.exec_script("console.log(1);").unwrap();
            let meter = b.meter().unwrap();
            // At least the host-dispatch op on top of interpreter steps.
            assert!(meter.total_ops() > 1, "{}", meter.total_ops());
        }

        #[test]
        fn capture_charges_serialized_cells() {
            let mut b = Browser::new();
            b.set_meter(MeterLimits::default());
            b.load_html("<html><body></body><script>var a = [1, [2], {x: 3}];</script></html>")
                .unwrap();
            let before = b.meter().unwrap().total_ops();
            let snap = b
                .capture_snapshot(&crate::SnapshotOptions::default())
                .unwrap();
            let charged = b.meter().unwrap().total_ops() - before;
            assert_eq!(charged, snap.stats().heap_cells as u64);
        }

        #[test]
        fn metered_run_matches_unmetered_results() {
            let src = r#"
                var obj = {x: 1, y: 2};
                function f(a) { return a + obj.x * 3; }
                var r = "v=" + f(4);
            "#;
            let plain = run(src);
            let mut metered = Browser::new();
            metered.set_meter(
                MeterLimits::default()
                    .with_ops(1_000_000)
                    .with_heap_cells(1_000)
                    .with_string_len(1 << 20)
                    .with_call_depth(64),
            );
            metered.exec_script(src).unwrap();
            assert_eq!(plain.global("r"), metered.global("r"));
            assert!(metered.meter().unwrap().total_ops() > 0);
            assert!(metered.meter().unwrap().peak_heap() > 0);
        }

        #[test]
        fn clear_meter_returns_to_unmetered() {
            let mut b = Browser::new();
            b.set_meter(MeterLimits::default().with_ops(10));
            b.clear_meter();
            assert!(b.meter().is_none());
            b.exec_script("var n = 0; while (n < 100) { n += 1; }")
                .unwrap();
            assert_eq!(b.global("n"), JsValue::Number(100.0));
        }
    }
}
