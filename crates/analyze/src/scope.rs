//! The declaration pass: one scope table the snapshot verifier and the
//! effect pass both resolve names against.
//!
//! MiniJS scoping is deliberately simple (the paper's subset): functions
//! have no closures, so a name inside a function resolves to the
//! function's own params/`var` locals, then to globals, then to declared
//! functions, then to the host surface. Assigning to a name that is not a
//! local *creates a global* at runtime — every non-local assignment
//! target is therefore a global definition site (flow-insensitively),
//! which is exactly how generated restore scripts re-establish app
//! globals.

use snapedge_webapp::ast::{Expr, FunctionDef, Stmt};
use std::collections::{BTreeMap, BTreeSet};

/// One function's own scope: parameters plus hoisted `var` locals.
#[derive(Debug, Default)]
struct FuncScope {
    params: BTreeSet<String>,
    locals: BTreeSet<String>,
}

/// All declarations visible at global scope.
#[derive(Debug, Default)]
pub(crate) struct Scopes {
    /// Function name → its scope. Nested declarations register globally
    /// when executed, so they are collected recursively. Built once per
    /// analysis, keyed by report-visible names.
    /// lint: allow(string-keyed-map)
    functions: BTreeMap<String, FuncScope>,
    /// Global variables: top-level `var`s plus non-local assignment
    /// targets anywhere.
    pub(crate) globals: BTreeSet<String>,
}

impl Scopes {
    /// Collects every declaration of `program`. `is_host` names the host
    /// objects: assigning to one does not create a global.
    pub(crate) fn build(program: &[Stmt], is_host: &dyn Fn(&str) -> bool) -> Scopes {
        let mut scopes = Scopes::default();
        scopes.collect_declarations(program);
        scopes.collect_global_assign_targets(program, None, is_host);
        scopes
    }

    /// `true` when `name` is a parameter or `var` local of `func`
    /// (`None` is top-level code, which has no locals).
    pub(crate) fn is_local(&self, name: &str, func: Option<&str>) -> bool {
        func.and_then(|f| self.functions.get(f))
            .is_some_and(|s| s.params.contains(name) || s.locals.contains(name))
    }

    /// `true` when `name` is a declared function.
    pub(crate) fn is_function(&self, name: &str) -> bool {
        self.functions.contains_key(name)
    }

    /// `true` when `name` read inside `func` is an app binding (local,
    /// global or declared function) — which shadows any host object of
    /// the same name.
    pub(crate) fn binds(&self, name: &str, func: Option<&str>) -> bool {
        self.is_local(name, func) || self.globals.contains(name) || self.is_function(name)
    }

    /// Declared function names, sorted.
    pub(crate) fn function_names(&self) -> impl Iterator<Item = &String> {
        self.functions.keys()
    }

    /// Top-level `var`s (at any control-flow nesting depth — `var` is
    /// function-scoped, and this is the top level) and every function.
    fn collect_declarations(&mut self, program: &[Stmt]) {
        for_each_shallow(program, &mut |stmt| match stmt {
            Stmt::Var(name, _) => {
                self.globals.insert(name.to_string());
            }
            Stmt::Function(def) => self.collect_function(def),
            _ => {}
        });
    }

    fn collect_function(&mut self, def: &FunctionDef) {
        let mut scope = FuncScope::default();
        scope
            .params
            .extend(def.params.iter().map(|p| p.to_string()));
        collect_vars_shallow(&def.body, &mut scope.locals);
        self.functions.insert(def.name.to_string(), scope);
        // Nested function declarations register globally when the
        // enclosing function runs; collect them too.
        for_each_shallow(&def.body, &mut |stmt| {
            if let Stmt::Function(nested) = stmt {
                self.collect_function(nested);
            }
        });
    }

    /// Non-local assignment targets create globals at runtime (this is
    /// how `__snapedge_restore` re-establishes app state).
    fn collect_global_assign_targets(
        &mut self,
        stmts: &[Stmt],
        func: Option<&str>,
        is_host: &dyn Fn(&str) -> bool,
    ) {
        for_each_shallow(stmts, &mut |stmt| match stmt {
            Stmt::Assign(Expr::Ident(name), _) if !self.is_local(name, func) && !is_host(name) => {
                self.globals.insert(name.to_string());
            }
            Stmt::Function(def) => {
                self.collect_global_assign_targets(&def.body, Some(def.name.as_str()), is_host);
            }
            _ => {}
        });
    }
}

/// Hoisted `var` names of one function body: recurses through control
/// flow but not into nested functions (those have their own scope).
fn collect_vars_shallow(stmts: &[Stmt], out: &mut BTreeSet<String>) {
    for_each_shallow(stmts, &mut |stmt| {
        if let Stmt::Var(name, _) = stmt {
            out.insert(name.to_string());
        }
    });
}

/// Visits every statement of a block, descending through control flow
/// (`if`/`while`/`for`, including `for` init and update statements) but
/// not into function bodies.
fn for_each_shallow(stmts: &[Stmt], visit: &mut dyn FnMut(&Stmt)) {
    for stmt in stmts {
        visit(stmt);
        match stmt {
            Stmt::If(_, then, els) => {
                for_each_shallow(then, visit);
                for_each_shallow(els, visit);
            }
            Stmt::While(_, body) => for_each_shallow(body, visit),
            Stmt::For {
                init, update, body, ..
            } => {
                for s in [init, update].into_iter().flatten() {
                    for_each_shallow(std::slice::from_ref(s), visit);
                }
                for_each_shallow(body, visit);
            }
            Stmt::Var(..)
            | Stmt::Assign(..)
            | Stmt::Expr(_)
            | Stmt::Function(_)
            | Stmt::Return(_) => {}
        }
    }
}
