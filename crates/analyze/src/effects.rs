//! Effect analysis over MiniJS: the two facts the offload layer's
//! pre-ship gates read, and nothing else.
//!
//! * **Can this app be replayed elsewhere?** Host accesses are tagged with
//!   the effect class the embedder declared at registration
//!   ([`HostEffect`]); reaching a clock/random/IO host makes the app
//!   unreplayable and [`EffectSummary::verdict`] returns the typed
//!   [`AnalyzeError::Nondeterministic`] before any link bytes ship. DOM
//!   effects stay replayable (snapshots carry the document).
//! * **Is the round guaranteed to be killed by the meter?** [`CostBound`]
//!   is a guaranteed *floor* on metered ops / heap growth per round; it
//!   flags guaranteed `ResourceExhausted` against [`MeterLimits`]
//!   pre-ship and feeds the offload predictor as a compute-time prior.
//!
//! Soundness notes. The interpreter charges at least one metered op per
//! executed statement, so a statement-count floor (stopping at any
//! possible early `return`, taking the `min` across `if` branches, and
//! counting loop bodies zero times) is a true lower bound; callee bodies
//! add nothing to it. An offloaded round dispatches at least one event to
//! at least one registered handler, so the round floor is the minimum
//! over the `addEventListener` roots — and `(0, 0)` as soon as one
//! handler argument is not a declared function's name, because the
//! function it evaluates to is then unknown.

use crate::hostapi;
use crate::scope::Scopes;
use snapedge_webapp::ast::{Expr, Stmt};
use snapedge_webapp::{html, parser, HostEffect, MeterLimits};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Context name used for top-level (load-time) code in summaries.
pub const TOPLEVEL: &str = "<toplevel>";

/// Typed outcome of an effect-analysis pass that cannot vouch for the
/// app.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// The source failed to lex/parse; nothing could be analyzed.
    Parse(String),
    /// The app reaches nondeterministic host APIs — replaying the same
    /// snapshot on another browser can diverge, so it must run where it
    /// is (or not at all).
    Nondeterministic(Vec<NondetSource>),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Parse(msg) => write!(f, "parse: {msg}"),
            AnalyzeError::Nondeterministic(sources) => {
                write!(f, "nondeterministic host access: ")?;
                for (i, s) in sources.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{s}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// One nondeterministic host access found by the pass.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct NondetSource {
    /// Function containing the access ([`TOPLEVEL`] for load-time code).
    pub function: String,
    /// The registered host object name.
    pub host: String,
    /// Method or property accessed; `"*"` when the host object itself is
    /// aliased into a variable (every later use is assumed reachable).
    pub method: String,
    /// The effect class the embedder declared for the host.
    pub effect: HostEffect,
}

impl fmt::Display for NondetSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{} ({}) in {}",
            self.host,
            self.method,
            self.effect.label(),
            self.function
        )
    }
}

/// Guaranteed static cost floor of one execution (a function body, or
/// one offloaded round): every execution charges at least `min_ops`
/// metered ops and allocates at least `min_new_cells` heap cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostBound {
    /// Guaranteed minimum metered ops.
    pub min_ops: u64,
    /// Guaranteed minimum fresh heap cells allocated.
    pub min_new_cells: u64,
}

impl CostBound {
    /// Flags guaranteed resource exhaustion: the cheapest possible
    /// execution already blows a [`MeterLimits`] cap, so shipping the
    /// snapshot would only burn link bytes before the inevitable
    /// `ResourceExhausted`. Returns the `(floor, cap)` of the first doomed
    /// axis (ops, then heap cells), or `None` when execution might fit.
    pub fn guaranteed_exhaustion(&self, limits: &MeterLimits) -> Option<(u64, u64)> {
        let ops = limits.max_ops.map(|cap| (self.min_ops, cap));
        let cells = limits
            .max_heap_cells
            .map(|cap| (self.min_new_cells, cap as u64));
        [ops, cells]
            .into_iter()
            .flatten()
            .find(|(floor, cap)| floor > cap)
    }
}

impl fmt::Display for CostBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ops >= {}, new cells >= {}",
            self.min_ops, self.min_new_cells
        )
    }
}

/// Inputs to an effect-analysis run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EffectOptions {
    /// Registered host objects and their embedder-declared effect
    /// classes, beyond the built-in deterministic
    /// `document`/`console`/`Math` surface. Embedder-facing API, keyed
    /// by registration name. lint: allow(string-keyed-map)
    pub hosts: BTreeMap<String, HostEffect>,
}

impl EffectOptions {
    /// Options with no registered hosts (built-ins only).
    pub fn new() -> EffectOptions {
        EffectOptions::default()
    }

    /// Builds options from `Browser::host_effects()` output.
    pub fn from_host_effects(list: Vec<(String, HostEffect)>) -> EffectOptions {
        EffectOptions {
            hosts: list.into_iter().collect(),
        }
    }

    /// Adds one registered host with its declared effect class.
    pub fn with_host(mut self, name: &str, effect: HostEffect) -> EffectOptions {
        self.hosts.insert(name.to_string(), effect);
        self
    }
}

/// The result of one effect-analysis pass over an app.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EffectSummary {
    /// Per-function cost floors (the body alone), plus [`TOPLEVEL`] for
    /// load-time code. Report-facing output, keyed by user-visible names.
    /// lint: allow(string-keyed-map)
    pub functions: BTreeMap<String, CostBound>,
    /// Functions installed as event handlers (`addEventListener` roots).
    pub handlers: BTreeSet<String>,
    /// Nondeterministic host accesses anywhere in the app (top level
    /// included — load-time nondeterminism already breaks replay).
    pub nondet: Vec<NondetSource>,
    /// Per-round cost floor over the handler roots.
    pub cost: CostBound,
}

impl EffectSummary {
    /// `true` when replaying this app's snapshots can diverge.
    pub fn is_nondeterministic(&self) -> bool {
        !self.nondet.is_empty()
    }

    /// The pre-ship gate: `Err(AnalyzeError::Nondeterministic)` when the
    /// app reaches clock/random/IO hosts, `Ok` otherwise.
    pub fn verdict(&self) -> Result<(), AnalyzeError> {
        if self.nondet.is_empty() {
            Ok(())
        } else {
            Err(AnalyzeError::Nondeterministic(self.nondet.clone()))
        }
    }

    /// Renders a human-readable report: per-function floors, the round
    /// floor, and the nondeterminism sources.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, floor) in &self.functions {
            let handler = if self.handlers.contains(name) {
                " [handler]"
            } else {
                ""
            };
            out.push_str(&format!("{name}{handler}: {floor}\n"));
        }
        out.push_str(&format!("round floor: {}\n", self.cost));
        for s in &self.nondet {
            out.push_str(&format!("nondeterministic: {s}\n"));
        }
        out
    }
}

/// Analyzes one MiniJS script.
///
/// # Errors
///
/// Returns [`AnalyzeError::Parse`] when the source does not parse. A
/// nondeterministic app still returns `Ok` (so callers can inspect the
/// full summary); use [`EffectSummary::verdict`] to gate.
pub fn effect_summary(src: &str, opts: &EffectOptions) -> Result<EffectSummary, AnalyzeError> {
    let program = parser::parse_program(src).map_err(|e| AnalyzeError::Parse(e.to_string()))?;
    Ok(EffectPass::run(&program, opts))
}

/// Analyzes every `<script>` in an HTML document as one program (scripts
/// share one global scope and run in order).
///
/// # Errors
///
/// Returns [`AnalyzeError::Parse`] for HTML or script parse failures.
pub fn effect_summary_html(
    html_src: &str,
    opts: &EffectOptions,
) -> Result<EffectSummary, AnalyzeError> {
    let doc = html::parse_document(html_src).map_err(|e| AnalyzeError::Parse(e.to_string()))?;
    let combined = doc.scripts.join("\n");
    effect_summary(&combined, opts)
}

struct EffectPass<'a> {
    opts: &'a EffectOptions,
    scopes: Scopes,
    // lint: allow(string-keyed-map)
    functions: BTreeMap<String, CostBound>,
    handlers: BTreeSet<String>,
    /// Some `addEventListener` handler argument is not a declared
    /// function's name: the round can run a function the roots miss.
    dynamic_handler: bool,
    nondet: Vec<NondetSource>,
}

impl<'a> EffectPass<'a> {
    fn run(program: &[Stmt], opts: &'a EffectOptions) -> EffectSummary {
        let is_host =
            |name: &str| hostapi::HOST_GLOBALS.contains(&name) || opts.hosts.contains_key(name);
        let mut pass = EffectPass {
            opts,
            scopes: Scopes::build(program, &is_host),
            functions: BTreeMap::new(),
            handlers: BTreeSet::new(),
            dynamic_handler: false,
            nondet: Vec::new(),
        };
        pass.functions
            .insert(TOPLEVEL.to_string(), block_floor(program).0);
        pass.scan_block(program, None);
        // Nondeterminism anywhere (top level included): load-time clock
        // reads already make two restores disagree.
        pass.nondet.sort();
        pass.nondet.dedup();
        let cost = pass.round_floor();
        EffectSummary {
            functions: pass.functions,
            handlers: pass.handlers,
            nondet: pass.nondet,
            cost,
        }
    }

    /// The minimum over the handler roots, per axis; `(0, 0)` with no
    /// handler or an unresolved one.
    fn round_floor(&self) -> CostBound {
        if self.dynamic_handler {
            return CostBound::default();
        }
        let floors = || self.handlers.iter().filter_map(|h| self.functions.get(h));
        CostBound {
            min_ops: floors().map(|c| c.min_ops).min().unwrap_or(0),
            min_new_cells: floors().map(|c| c.min_new_cells).min().unwrap_or(0),
        }
    }

    /// The effect class of an *unshadowed* host identifier, or `None`
    /// when the name is not a host here.
    fn host_effect_of(&self, name: &str, ctx: Option<&str>) -> Option<HostEffect> {
        if self.scopes.binds(name, ctx) {
            return None; // shadowed: an app binding, not the host
        }
        if let Some(&e) = self.opts.hosts.get(name) {
            return Some(e);
        }
        match name {
            // The built-in surface is deterministic by construction (no
            // Date / Math.random / timers); `document` edits the DOM.
            "document" => Some(HostEffect::Dom),
            "console" | "Math" => Some(HostEffect::Deterministic),
            _ => None,
        }
    }

    fn scan_block(&mut self, stmts: &[Stmt], ctx: Option<&str>) {
        for stmt in stmts {
            match stmt {
                Stmt::Var(_, init) => {
                    if let Some(e) = init {
                        self.scan_expr(e, ctx);
                    }
                }
                Stmt::Assign(target, value) => {
                    match target {
                        Expr::Ident(_) => {}
                        Expr::Member(obj, _) => self.scan_expr(obj, ctx),
                        Expr::Index(obj, idx) => {
                            self.scan_expr(obj, ctx);
                            self.scan_expr(idx, ctx);
                        }
                        other => self.scan_expr(other, ctx),
                    }
                    self.scan_expr(value, ctx);
                }
                Stmt::Expr(e) => self.scan_expr(e, ctx),
                Stmt::Function(def) => {
                    // A declaration is its own context: nothing in its
                    // body belongs to the enclosing one.
                    self.functions
                        .insert(def.name.to_string(), block_floor(&def.body).0);
                    self.scan_block(&def.body, Some(def.name.as_str()));
                }
                Stmt::Return(e) => {
                    if let Some(e) = e {
                        self.scan_expr(e, ctx);
                    }
                }
                Stmt::If(cond, then, els) => {
                    self.scan_expr(cond, ctx);
                    self.scan_block(then, ctx);
                    self.scan_block(els, ctx);
                }
                Stmt::While(cond, body) => {
                    self.scan_expr(cond, ctx);
                    self.scan_block(body, ctx);
                }
                Stmt::For {
                    init,
                    cond,
                    update,
                    body,
                } => {
                    if let Some(s) = init {
                        self.scan_block(std::slice::from_ref(s), ctx);
                    }
                    if let Some(e) = cond {
                        self.scan_expr(e, ctx);
                    }
                    if let Some(s) = update {
                        self.scan_block(std::slice::from_ref(s), ctx);
                    }
                    self.scan_block(body, ctx);
                }
            }
        }
    }

    fn record_nondet(&mut self, host: &str, method: &str, effect: HostEffect, ctx: Option<&str>) {
        if effect.is_nondeterministic() {
            self.nondet.push(NondetSource {
                function: ctx.unwrap_or(TOPLEVEL).to_string(),
                host: host.to_string(),
                method: method.to_string(),
                effect,
            });
        }
    }

    fn scan_expr(&mut self, expr: &Expr, ctx: Option<&str>) {
        match expr {
            Expr::Ident(name) => self.scan_ident(name, ctx),
            Expr::Array(elems) => {
                for e in elems {
                    self.scan_expr(e, ctx);
                }
            }
            Expr::Object(props) => {
                for (_, e) in props {
                    self.scan_expr(e, ctx);
                }
            }
            Expr::NewFloat32Array(e) | Expr::Unary(_, e) => self.scan_expr(e, ctx),
            Expr::Member(obj, prop) => self.scan_member(obj, prop, ctx),
            Expr::Index(obj, idx) => {
                self.scan_expr(obj, ctx);
                self.scan_expr(idx, ctx);
            }
            Expr::Call(callee, args) => {
                if let Expr::Member(obj, method) = callee.as_ref() {
                    self.scan_member(obj, method, ctx);
                    if method == "addEventListener" && args.len() >= 2 {
                        self.scan_handler(&args[1], ctx);
                    }
                } else {
                    self.scan_expr(callee, ctx);
                }
                for a in args {
                    self.scan_expr(a, ctx);
                }
            }
            Expr::Binary(_, l, r) => {
                self.scan_expr(l, ctx);
                self.scan_expr(r, ctx);
            }
            Expr::Undefined
            | Expr::Null
            | Expr::Bool(_)
            | Expr::Number(_)
            | Expr::Str(_)
            | Expr::Float32ArrayLiteral(_) => {}
        }
    }

    /// An `addEventListener` handler argument: a reachability root when
    /// it names a declared function (runtime lookup order: locals, then
    /// globals, then functions), unknown otherwise.
    fn scan_handler(&mut self, handler: &Expr, ctx: Option<&str>) {
        match handler {
            Expr::Ident(name)
                if self.scopes.is_function(name)
                    && !self.scopes.is_local(name, ctx)
                    && !self.scopes.globals.contains(name.as_str()) =>
            {
                self.handlers.insert(name.to_string());
            }
            _ => self.dynamic_handler = true,
        }
    }

    /// A bare identifier read, outside direct member-receiver position.
    fn scan_ident(&mut self, name: &str, ctx: Option<&str>) {
        if let Some(effect) = self.host_effect_of(name, ctx) {
            // The host object itself flows into a value (`var m = model;`)
            // — every method becomes reachable through the alias, so the
            // whole declared surface applies.
            self.record_nondet(name, "*", effect, ctx);
        }
        // Unresolvable identifiers are the closedness verifier's
        // business (free-identifier), not an effect.
    }

    /// A member access / method call with a syntactic receiver: the
    /// direct `host.method` form is tagged by method, without triggering
    /// the bare-host aliasing rule; any other receiver is scanned.
    fn scan_member(&mut self, obj: &Expr, prop: &str, ctx: Option<&str>) {
        if let Expr::Ident(name) = obj {
            if let Some(effect) = self.host_effect_of(name, ctx) {
                self.record_nondet(name, prop, effect, ctx);
                return;
            }
        }
        self.scan_expr(obj, ctx);
    }
}

/// Statement-count floor of one block, and whether the block can `return`
/// before its end (nothing after it in the enclosing sequence is then
/// guaranteed). Loop bodies count zero times.
fn block_floor(stmts: &[Stmt]) -> (CostBound, bool) {
    let mut floor = CostBound::default();
    for stmt in stmts {
        floor.min_ops += 1;
        let may_exit = match stmt {
            Stmt::Var(_, init) => {
                floor.min_new_cells += init.as_ref().map_or(0, alloc_floor);
                false
            }
            Stmt::Assign(target, value) => {
                floor.min_new_cells += alloc_floor(target) + alloc_floor(value);
                false
            }
            Stmt::Expr(e) => {
                floor.min_new_cells += alloc_floor(e);
                false
            }
            Stmt::Function(_) => false,
            Stmt::Return(e) => {
                floor.min_new_cells += e.as_ref().map_or(0, alloc_floor);
                true
            }
            Stmt::If(cond, then, els) => {
                floor.min_new_cells += alloc_floor(cond);
                let (then_floor, then_exits) = block_floor(then);
                let (else_floor, else_exits) = block_floor(els);
                floor.min_ops += then_floor.min_ops.min(else_floor.min_ops);
                floor.min_new_cells += then_floor.min_new_cells.min(else_floor.min_new_cells);
                then_exits || else_exits
            }
            Stmt::While(cond, body) => {
                floor.min_new_cells += alloc_floor(cond);
                block_floor(body).1
            }
            Stmt::For {
                init, cond, body, ..
            } => {
                if let Some(s) = init {
                    let (init_floor, _) = block_floor(std::slice::from_ref(s));
                    floor.min_ops += init_floor.min_ops;
                    floor.min_new_cells += init_floor.min_new_cells;
                }
                floor.min_new_cells += cond.as_ref().map_or(0, alloc_floor);
                block_floor(body).1
            }
        };
        if may_exit {
            return (floor, true);
        }
    }
    (floor, false)
}

/// Allocation sites (array/object/`Float32Array` literals) guaranteed to
/// evaluate when `expr` does. The right operand of a short-circuit
/// operator may be skipped: nothing in it is guaranteed.
fn alloc_floor(expr: &Expr) -> u64 {
    match expr {
        Expr::Array(elems) => 1 + elems.iter().map(alloc_floor).sum::<u64>(),
        Expr::Object(props) => 1 + props.iter().map(|(_, e)| alloc_floor(e)).sum::<u64>(),
        Expr::NewFloat32Array(e) => 1 + alloc_floor(e),
        // The typed cell and the (empty) list cell before it: the pair the
        // `NewFloat32Array` over an `Array` it stands for allocates.
        Expr::Float32ArrayLiteral(_) => 2,
        Expr::Member(e, _) | Expr::Unary(_, e) => alloc_floor(e),
        Expr::Index(obj, idx) => alloc_floor(obj) + alloc_floor(idx),
        Expr::Call(callee, args) => alloc_floor(callee) + args.iter().map(alloc_floor).sum::<u64>(),
        Expr::Binary(op, l, _) if *op == "&&" || *op == "||" => alloc_floor(l),
        Expr::Binary(_, l, r) => alloc_floor(l) + alloc_floor(r),
        Expr::Ident(_)
        | Expr::Undefined
        | Expr::Null
        | Expr::Bool(_)
        | Expr::Number(_)
        | Expr::Str(_) => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts_with_model() -> EffectOptions {
        EffectOptions::new().with_host("model", HostEffect::Deterministic)
    }

    #[test]
    fn dom_writes_stay_replayable() {
        let s = effect_summary(
            "function h() { document.getElementById(\"out\").textContent = \"x\"; }\n\
             document.body.addEventListener(\"go\", h);",
            &EffectOptions::new(),
        )
        .unwrap();
        assert!(s.verdict().is_ok());
        assert!(s.nondet.is_empty());
    }

    #[test]
    fn nondet_host_call_is_flagged_with_source() {
        let opts = EffectOptions::new().with_host("clock", HostEffect::Clock);
        let s = effect_summary(
            "var t = 0;\nfunction h() { t = clock.now(); }\n\
             document.body.addEventListener(\"go\", h);",
            &opts,
        )
        .unwrap();
        let err = s.verdict().unwrap_err();
        match err {
            AnalyzeError::Nondeterministic(sources) => {
                assert_eq!(sources.len(), 1);
                assert_eq!(sources[0].host, "clock");
                assert_eq!(sources[0].method, "now");
                assert_eq!(sources[0].function, "h");
                assert_eq!(sources[0].effect, HostEffect::Clock);
            }
            other => panic!("expected nondet, got {other}"),
        }
    }

    #[test]
    fn nondet_host_alias_is_conservatively_flagged() {
        let opts = EffectOptions::new().with_host("rng", HostEffect::Random);
        let s = effect_summary(
            "var r = 0;\nfunction h() { var m = rng;\nr = m.next(); }\n\
             document.body.addEventListener(\"go\", h);",
            &opts,
        )
        .unwrap();
        assert!(s.is_nondeterministic());
        assert_eq!(s.nondet[0].method, "*");
    }

    #[test]
    fn deterministic_host_is_not_flagged() {
        let s = effect_summary(
            "var r = null;\nfunction h() { r = model.inference(3); }\n\
             document.body.addEventListener(\"go\", h);",
            &opts_with_model(),
        )
        .unwrap();
        assert!(s.verdict().is_ok());
    }

    #[test]
    fn toplevel_nondeterminism_breaks_replay_too() {
        let opts = EffectOptions::new().with_host("clock", HostEffect::Clock);
        let s = effect_summary("var boot = clock.now();", &opts).unwrap();
        assert!(s.is_nondeterministic());
        assert_eq!(s.nondet[0].function, TOPLEVEL);
    }

    #[test]
    fn app_bindings_shadow_hosts() {
        let opts = EffectOptions::new().with_host("clock", HostEffect::Clock);
        // A parameter, a `var` local and an app global each shadow the
        // host of the same name; a function with no such binding does not.
        for (src, flagged) in [
            ("function f(clock) { return clock.now(); }", false),
            (
                "function f() { var clock = {now: 1}; return clock.now; }",
                false,
            ),
            (
                "var clock = {now: 1};\nfunction f() { return clock.now; }",
                false,
            ),
            (
                "function f(clock) { return clock.now(); }\nfunction g() { return clock.now(); }",
                true,
            ),
        ] {
            let s = effect_summary(src, &opts).unwrap();
            assert_eq!(s.is_nondeterministic(), flagged, "{src}");
        }
    }

    #[test]
    fn cost_floor_counts_guaranteed_statements() {
        let s = effect_summary(
            "var a = 0;\nfunction h() { a = 1;\na = 2;\na = 3; }\n\
             document.body.addEventListener(\"go\", h);",
            &EffectOptions::new(),
        )
        .unwrap();
        assert!(s.cost.min_ops >= 3, "floor {} too low", s.cost.min_ops);
    }

    #[test]
    fn loops_count_zero_iterations_in_the_floor() {
        let s = effect_summary(
            "var a = 0;\nfunction h() { a = 1;\nwhile (a) { a = a + 1; } }\n\
             document.body.addEventListener(\"go\", h);",
            &EffectOptions::new(),
        )
        .unwrap();
        assert_eq!(s.cost.min_ops, 2);
    }

    #[test]
    fn early_return_caps_the_floor() {
        let s = effect_summary(
            "var a = 0;\nfunction h() { if (a) { return; }\na = 1;\na = 2;\na = 3;\na = 4; }\n\
             document.body.addEventListener(\"go\", h);",
            &EffectOptions::new(),
        )
        .unwrap();
        // The return path executes 2 statements (if + return); the floor
        // must not exceed that.
        assert!(s.cost.min_ops <= 2, "floor {} unsound", s.cost.min_ops);
    }

    #[test]
    fn unresolved_handler_voids_the_round_floor() {
        // `go` runs `cheap` (two ops), which neither program registers
        // by name: the minimum over the named roots alone would be
        // `dear`'s 7.
        for registration in [
            "var hs = [cheap];\ndocument.body.addEventListener(\"go\", hs[0]);",
            "var h = cheap;\ndocument.body.addEventListener(\"go\", h);",
        ] {
            let src = format!(
                "function cheap() {{ return 1; }}\n\
                 function dear() {{ var a = 1;\nvar b = 2;\nvar c = 3;\nvar d = 4;\n\
                 var e = 5;\nvar f = 6;\nreturn a; }}\n\
                 document.body.addEventListener(\"other\", dear);\n{registration}"
            );
            let s = effect_summary(&src, &EffectOptions::new()).unwrap();
            assert_eq!(s.functions["dear"].min_ops, 7);
            assert_eq!(s.cost, CostBound::default(), "{registration}");
            let tight = MeterLimits::default().with_ops(5);
            assert!(s.cost.guaranteed_exhaustion(&tight).is_none());
        }
    }

    #[test]
    fn round_floor_is_the_minimum_per_axis() {
        // A round may run either handler: `a` bounds the ops, `b` (which
        // allocates nothing) the cells.
        let s = effect_summary(
            "var n = 0;\nfunction a() { return [1]; }\nfunction b() { n = 1;\nn = 2; }\n\
             document.body.addEventListener(\"x\", a);\n\
             document.body.addEventListener(\"y\", b);",
            &EffectOptions::new(),
        )
        .unwrap();
        assert_eq!((s.cost.min_ops, s.cost.min_new_cells), (1, 0));
    }

    #[test]
    fn guaranteed_exhaustion_flags_doomed_budgets() {
        let s = effect_summary(
            "var a = 0;\nfunction h() { a = 1;\na = 2;\na = 3; }\n\
             document.body.addEventListener(\"go\", h);",
            &EffectOptions::new(),
        )
        .unwrap();
        let tight = MeterLimits::default().with_ops(2);
        assert!(s.cost.guaranteed_exhaustion(&tight).is_some());
        let loose = MeterLimits::default().with_ops(1_000);
        assert!(s.cost.guaranteed_exhaustion(&loose).is_none());
    }

    #[test]
    fn paper_apps_are_replayable_with_pinned_floors() {
        for (src, floor) in [
            (
                "var imageUrl = null;\nvar resultText = null;\n\
                 function onLoad() { imageUrl = document.getElementById(\"photo\").getAttribute(\"src\"); }\n\
                 function runInference() { resultText = model.inference(imageUrl);\n\
                 document.getElementById(\"result\").textContent = resultText; }\n\
                 document.body.addEventListener(\"click\", onLoad);\n\
                 document.body.addEventListener(\"run_inference\", runInference);",
                1,
            ),
            (
                "var feature = null;\n\
                 function runFront() { feature = model.front(\"input\"); }\n\
                 document.body.addEventListener(\"run_front\", runFront);",
                1,
            ),
        ] {
            let s = effect_summary(src, &opts_with_model()).unwrap();
            assert!(s.verdict().is_ok());
            assert_eq!((s.cost.min_ops, s.cost.min_new_cells), (floor, 0), "{src}");
        }
    }

    #[test]
    fn parse_failure_is_a_typed_error() {
        let err = effect_summary("var = ;", &EffectOptions::new()).unwrap_err();
        assert!(matches!(err, AnalyzeError::Parse(_)), "{err}");
    }

    #[test]
    fn render_prints_floors_and_handlers() {
        let s = effect_summary(
            "var a = 0;\nfunction h() { a = 1; }\n\
             document.body.addEventListener(\"go\", h);",
            &EffectOptions::new(),
        )
        .unwrap();
        let text = s.render();
        assert!(
            text.contains("h [handler]: ops >= 1, new cells >= 0"),
            "{text}"
        );
        assert!(text.contains("round floor: ops >= 1"), "{text}");
    }
}
