//! Recursive-descent parser for MiniJS.

use crate::ast::{Expr, FunctionDef, Stmt};
use crate::intern::{Ident, Symbol};
use crate::lexer::{lex, Spanned, Token};
use crate::snapshot::{is_reserved_machinery, RESERVED_PREFIX};
use crate::WebError;

/// Parses a MiniJS program.
///
/// # Errors
///
/// Returns [`WebError::Lex`] or [`WebError::Parse`] with line information.
pub fn parse_program(src: &str) -> Result<Vec<Stmt>, WebError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut stmts = Vec::new();
    while !p.at_eof() {
        stmts.push(p.statement()?);
    }
    Ok(stmts)
}

/// Parses a single MiniJS expression (used by tests and the REPL-ish
/// helpers).
///
/// # Errors
///
/// Returns [`WebError::Lex`] or [`WebError::Parse`].
pub fn parse_expr(src: &str) -> Result<Expr, WebError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let e = p.expression()?;
    if !p.at_eof() {
        return Err(p.error("trailing tokens after expression"));
    }
    Ok(e)
}

/// Deepest grammar nesting (parenthesized/bracketed expressions, nested
/// statements, unary chains) the parser accepts. The recursive-descent
/// parser recurses once per level, so without a cap a pathologically
/// nested input — e.g. 10k `(`s from a hostile snapshot — would overflow
/// the host stack instead of returning an error.
const MAX_PARSE_DEPTH: usize = 256;

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos].token
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Token::Eof)
    }

    fn error(&self, message: &str) -> WebError {
        WebError::Parse {
            line: self.line(),
            message: format!("{message} (at {:?})", self.peek()),
        }
    }

    fn enter(&mut self) -> Result<(), WebError> {
        self.enter_levels(1)
    }

    /// Descends `levels` at once: a scanned `Float32Array` list stands for
    /// the recursion the general path does to read the same text.
    fn enter_levels(&mut self, levels: usize) -> Result<(), WebError> {
        self.depth += levels;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(WebError::Parse {
                line: self.line(),
                message: format!("nesting exceeds {MAX_PARSE_DEPTH} levels"),
            });
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    /// Steps past the current token (never past the final `Eof`).
    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].token.clone();
        self.bump();
        t
    }

    /// Takes a string literal out of the token stream: the 70 kB image
    /// data URL of every delta moves from the lexer's buffer into the AST
    /// without being copied on the way.
    fn eat_str(&mut self) -> Option<String> {
        let Token::Str(s) = &mut self.tokens[self.pos].token else {
            return None;
        };
        let s = std::mem::take(s);
        self.bump();
        Some(s)
    }

    /// Takes a scanned `Float32Array` argument (values, nesting) out of
    /// the token stream.
    fn eat_f32_list(&mut self) -> Option<(Vec<f32>, usize)> {
        let Token::F32List { data, nesting } = &mut self.tokens[self.pos].token else {
            return None;
        };
        let list = (std::mem::take(data), usize::from(*nesting));
        self.bump();
        Some(list)
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Token::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), WebError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.error(&format!("expected {p:?}")))
        }
    }

    /// Keywords are pre-interned, so this is a symbol (integer) compare
    /// per token instead of a string compare.
    fn eat_keyword(&mut self, kw: Symbol) -> bool {
        if matches!(self.peek(), Token::Ident(name) if name.sym() == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<Ident, WebError> {
        match self.advance() {
            Token::Ident(name) => Ok(name),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.error("expected identifier"))
            }
        }
    }

    /// Rejects user declarations under the reserved snapshot prefix
    /// (`__snapedge_`). Only the exact machinery names the snapshot and
    /// delta generators emit are allowed through, so apps cannot shadow
    /// restore machinery.
    fn check_declared_name(&self, name: &str, line: usize) -> Result<(), WebError> {
        if name.starts_with(RESERVED_PREFIX) && !is_reserved_machinery(name) {
            return Err(WebError::Parse {
                line,
                message: format!(
                    "identifier {name:?} uses the reserved snapshot prefix {RESERVED_PREFIX:?}"
                ),
            });
        }
        Ok(())
    }

    fn statement(&mut self) -> Result<Stmt, WebError> {
        self.enter()?;
        let stmt = self.statement_inner();
        self.leave();
        stmt
    }

    fn statement_inner(&mut self) -> Result<Stmt, WebError> {
        if self.eat_keyword(Symbol::VAR) {
            let line = self.line();
            let name = self.expect_ident()?;
            self.check_declared_name(&name, line)?;
            let init = if self.eat_punct("=") {
                Some(self.expression()?)
            } else {
                None
            };
            self.expect_punct(";")?;
            return Ok(Stmt::Var(name, init));
        }
        if self.eat_keyword(Symbol::FUNCTION) {
            let line = self.line();
            let name = self.expect_ident()?;
            self.check_declared_name(&name, line)?;
            self.expect_punct("(")?;
            let mut params = Vec::new();
            if !self.eat_punct(")") {
                loop {
                    let line = self.line();
                    let param = self.expect_ident()?;
                    self.check_declared_name(&param, line)?;
                    params.push(param);
                    if self.eat_punct(")") {
                        break;
                    }
                    self.expect_punct(",")?;
                }
            }
            let body = self.block()?;
            return Ok(Stmt::Function(FunctionDef { name, params, body }));
        }
        if self.eat_keyword(Symbol::RETURN) {
            if self.eat_punct(";") {
                return Ok(Stmt::Return(None));
            }
            let e = self.expression()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Return(Some(e)));
        }
        if self.eat_keyword(Symbol::IF) {
            return self.if_statement();
        }
        if self.eat_keyword(Symbol::WHILE) {
            self.expect_punct("(")?;
            let cond = self.expression()?;
            self.expect_punct(")")?;
            let body = self.block()?;
            return Ok(Stmt::While(cond, body));
        }
        if self.eat_keyword(Symbol::FOR) {
            self.expect_punct("(")?;
            let init = if self.eat_punct(";") {
                None
            } else {
                let s = self.simple_statement()?;
                self.expect_punct(";")?;
                Some(Box::new(s))
            };
            let cond = if self.eat_punct(";") {
                None
            } else {
                let e = self.expression()?;
                self.expect_punct(";")?;
                Some(e)
            };
            let update = if self.eat_punct(")") {
                None
            } else {
                let s = self.simple_statement()?;
                self.expect_punct(")")?;
                Some(Box::new(s))
            };
            let body = self.block()?;
            return Ok(Stmt::For {
                init,
                cond,
                update,
                body,
            });
        }
        let stmt = self.simple_statement()?;
        self.expect_punct(";")?;
        Ok(stmt)
    }

    /// A `var` declaration, assignment, or expression — without its
    /// terminator (used for plain statements and `for` headers).
    fn simple_statement(&mut self) -> Result<Stmt, WebError> {
        if self.eat_keyword(Symbol::VAR) {
            let line = self.line();
            let name = self.expect_ident()?;
            self.check_declared_name(&name, line)?;
            let init = if self.eat_punct("=") {
                Some(self.expression()?)
            } else {
                None
            };
            return Ok(Stmt::Var(name, init));
        }
        let target_line = self.line();
        let target = self.expression()?;
        if self.eat_punct("=") {
            self.check_assign_target(&target, target_line)?;
            let value = self.expression()?;
            return Ok(Stmt::Assign(target, value));
        }
        for (op, bin) in [("+=", "+"), ("-=", "-")] {
            if self.eat_punct(op) {
                self.check_assign_target(&target, target_line)?;
                let value = self.expression()?;
                // Desugar: `a += b` => `a = (a + b)`.
                return Ok(Stmt::Assign(
                    target.clone(),
                    Expr::Binary(bin, Box::new(target), Box::new(value)),
                ));
            }
        }
        Ok(Stmt::Expr(target))
    }

    fn check_assign_target(&self, target: &Expr, line: usize) -> Result<(), WebError> {
        match target {
            Expr::Ident(name) => self.check_declared_name(name, line),
            Expr::Member(..) | Expr::Index(..) => Ok(()),
            _ => Err(self.error("invalid assignment target")),
        }
    }

    fn if_statement(&mut self) -> Result<Stmt, WebError> {
        self.expect_punct("(")?;
        let cond = self.expression()?;
        self.expect_punct(")")?;
        let then_body = self.block()?;
        let else_body = if self.eat_keyword(Symbol::ELSE) {
            if self.eat_keyword(Symbol::IF) {
                vec![self.if_statement()?]
            } else {
                self.block()?
            }
        } else {
            Vec::new()
        };
        Ok(Stmt::If(cond, then_body, else_body))
    }

    fn block(&mut self) -> Result<Vec<Stmt>, WebError> {
        self.expect_punct("{")?;
        let mut stmts = Vec::new();
        while !self.eat_punct("}") {
            if self.at_eof() {
                return Err(self.error("unterminated block"));
            }
            stmts.push(self.statement()?);
        }
        Ok(stmts)
    }

    fn expression(&mut self) -> Result<Expr, WebError> {
        self.enter()?;
        let expr = self.or_expr();
        self.leave();
        expr
    }

    fn or_expr(&mut self) -> Result<Expr, WebError> {
        let mut left = self.and_expr()?;
        while self.eat_punct("||") {
            let right = self.and_expr()?;
            left = Expr::Binary("||", Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, WebError> {
        let mut left = self.equality()?;
        while self.eat_punct("&&") {
            let right = self.equality()?;
            left = Expr::Binary("&&", Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn equality(&mut self) -> Result<Expr, WebError> {
        let mut left = self.relational()?;
        loop {
            let op = if self.eat_punct("==") {
                "=="
            } else if self.eat_punct("!=") {
                "!="
            } else {
                break;
            };
            let right = self.relational()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn relational(&mut self) -> Result<Expr, WebError> {
        let mut left = self.additive()?;
        loop {
            let op = if self.eat_punct("<=") {
                "<="
            } else if self.eat_punct(">=") {
                ">="
            } else if self.eat_punct("<") {
                "<"
            } else if self.eat_punct(">") {
                ">"
            } else {
                break;
            };
            let right = self.additive()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr, WebError> {
        let mut left = self.multiplicative()?;
        loop {
            let op = if self.eat_punct("+") {
                "+"
            } else if self.eat_punct("-") {
                "-"
            } else {
                break;
            };
            let right = self.multiplicative()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr, WebError> {
        let mut left = self.unary()?;
        loop {
            let op = if self.eat_punct("*") {
                "*"
            } else if self.eat_punct("/") {
                "/"
            } else if self.eat_punct("%") {
                "%"
            } else {
                break;
            };
            let right = self.unary()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr, WebError> {
        // Unary chains recurse without passing through `expression`, so
        // they carry their own depth guard.
        if self.eat_punct("!") {
            self.enter()?;
            let operand = self.unary();
            self.leave();
            return Ok(Expr::Unary("!", Box::new(operand?)));
        }
        if self.eat_punct("-") {
            self.enter()?;
            let operand = self.unary();
            self.leave();
            let operand = operand?;
            // Fold negative literals so `(-2.5)` parses to the same AST
            // the printer started from.
            if let Expr::Number(n) = operand {
                return Ok(Expr::Number(-n));
            }
            return Ok(Expr::Unary("-", Box::new(operand)));
        }
        if self.eat_keyword(Symbol::TYPEOF) {
            self.enter()?;
            let operand = self.unary();
            self.leave();
            return Ok(Expr::Unary("typeof", Box::new(operand?)));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, WebError> {
        let mut expr = self.primary()?;
        loop {
            if self.eat_punct(".") {
                let name = self.expect_ident()?;
                expr = Expr::Member(Box::new(expr), name.as_str().to_string());
            } else if self.eat_punct("[") {
                let index = self.expression()?;
                self.expect_punct("]")?;
                expr = Expr::Index(Box::new(expr), Box::new(index));
            } else if self.eat_punct("(") {
                let mut args = Vec::new();
                if !self.eat_punct(")") {
                    loop {
                        args.push(self.expression()?);
                        if self.eat_punct(")") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                expr = Expr::Call(Box::new(expr), args);
            } else {
                break;
            }
        }
        Ok(expr)
    }

    fn primary(&mut self) -> Result<Expr, WebError> {
        if let Some(s) = self.eat_str() {
            return Ok(Expr::Str(s));
        }
        // Every other token is cheap to clone: a number, an `Rc` bump, a
        // `&'static str`.
        match self.peek().clone() {
            Token::Number(n) => {
                self.bump();
                Ok(Expr::Number(n))
            }
            Token::Ident(name) => match name.sym() {
                Symbol::TRUE => {
                    self.bump();
                    Ok(Expr::Bool(true))
                }
                Symbol::FALSE => {
                    self.bump();
                    Ok(Expr::Bool(false))
                }
                Symbol::NULL => {
                    self.bump();
                    Ok(Expr::Null)
                }
                Symbol::UNDEFINED => {
                    self.bump();
                    Ok(Expr::Undefined)
                }
                Symbol::NEW => {
                    self.bump();
                    let ctor = self.expect_ident()?;
                    if ctor.sym() != Symbol::FLOAT32_ARRAY {
                        return Err(self.error(&format!(
                            "only `new Float32Array(...)` is supported, got new {ctor}"
                        )));
                    }
                    if let Some((data, nesting)) = self.eat_f32_list() {
                        // Same nesting cap on the same inputs as the
                        // general path, which recurses this deep.
                        self.enter_levels(nesting)?;
                        self.depth -= nesting;
                        return Ok(Expr::Float32ArrayLiteral(data));
                    }
                    self.expect_punct("(")?;
                    let arg = self.expression()?;
                    self.expect_punct(")")?;
                    Ok(Expr::NewFloat32Array(Box::new(arg)))
                }
                _ => {
                    self.bump();
                    Ok(Expr::Ident(name))
                }
            },
            Token::Punct("(") => {
                self.bump();
                let e = self.expression()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Token::Punct("[") => {
                self.bump();
                let mut elems = Vec::new();
                if !self.eat_punct("]") {
                    loop {
                        elems.push(self.expression()?);
                        if self.eat_punct("]") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                Ok(Expr::Array(elems))
            }
            Token::Punct("{") => {
                self.bump();
                let mut props = Vec::new();
                if !self.eat_punct("}") {
                    loop {
                        let key = match self.eat_str() {
                            Some(s) => s,
                            None => match self.advance() {
                                Token::Ident(name) => name.as_str().to_string(),
                                _ => {
                                    self.pos = self.pos.saturating_sub(1);
                                    return Err(self.error("expected property name"));
                                }
                            },
                        };
                        self.expect_punct(":")?;
                        let value = self.expression()?;
                        props.push((key, value));
                        if self.eat_punct("}") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                Ok(Expr::Object(props))
            }
            _ => Err(self.error("expected expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::print_program;

    #[test]
    fn parses_var_and_assign() {
        let prog = parse_program("var x = 1; x = x + 2;").unwrap();
        assert_eq!(prog.len(), 2);
        assert!(matches!(&prog[0], Stmt::Var(name, Some(_)) if name == "x"));
        assert!(matches!(&prog[1], Stmt::Assign(Expr::Ident(_), _)));
    }

    #[test]
    fn parses_the_papers_fig5_shape() {
        // The structure of the paper's Fig. 5 partial-inference app.
        let src = r#"
            var feature;
            var btn = document.getElementById("btn");
            function front() {
              var image = canvas.getImageData();
              feature = model.inference_front(image);
              btn.dispatchEvent("front_complete");
            }
            function rear() {
              var result = model.inference_rear(feature);
              out.textContent = result;
            }
            btn.addEventListener("click", front);
            btn.addEventListener("front_complete", rear);
        "#;
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.len(), 6);
        assert!(matches!(&prog[2], Stmt::Function(f) if f.name == "front"));
    }

    #[test]
    fn precedence_is_sane() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        assert_eq!(e.to_string(), "(1 + (2 * 3))");
        let e = parse_expr("a < b && c < d || e").unwrap();
        assert_eq!(e.to_string(), "(((a < b) && (c < d)) || e)");
    }

    #[test]
    fn postfix_chains() {
        let e = parse_expr("a.b[0].c(1, 2)").unwrap();
        assert_eq!(e.to_string(), "a.b[0].c(1, 2)");
    }

    #[test]
    fn object_and_array_literals() {
        let e = parse_expr("{x: 1, \"y\": [2, {z: 3}]}").unwrap();
        assert!(matches!(e, Expr::Object(ref props) if props.len() == 2));
    }

    #[test]
    fn new_float32array() {
        let e = parse_expr("new Float32Array([1, 2.5])").unwrap();
        assert!(matches!(e, Expr::NewFloat32Array(_)));
        assert!(parse_expr("new Date()").is_err());
    }

    #[test]
    fn compound_assignment_desugars() {
        let prog = parse_program("x += 2;").unwrap();
        match &prog[0] {
            Stmt::Assign(Expr::Ident(name), Expr::Binary("+", ..)) => assert_eq!(name, "x"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn if_else_chains() {
        let prog =
            parse_program("if (a) { b = 1; } else if (c) { b = 2; } else { b = 3; }").unwrap();
        let Stmt::If(_, _, else_body) = &prog[0] else {
            panic!()
        };
        assert!(matches!(&else_body[0], Stmt::If(..)));
    }

    #[test]
    fn rejects_bad_assignment_targets() {
        assert!(parse_program("1 = 2;").is_err());
        assert!(parse_program("f() = 2;").is_err());
    }

    #[test]
    fn print_parse_roundtrip() {
        let src = r#"
            var obj = {x: 1, y: [1, 2, 3], s: "hi\n"};
            function f(a, b) {
              if (a > b) { return a; } else { return b; }
            }
            var n = 0;
            while (n < 10) { n = n + 1; }
            f(obj.x, obj.y[2]);
        "#;
        let prog = parse_program(src).unwrap();
        let printed = print_program(&prog);
        let reparsed = parse_program(&printed).unwrap();
        assert_eq!(prog, reparsed, "print->parse must be a fixed point");
    }

    #[test]
    fn reports_parse_line() {
        let err = parse_program("var x = 1;\nvar = 2;").unwrap_err();
        assert!(matches!(err, WebError::Parse { line: 2, .. }), "{err:?}");
    }

    #[test]
    fn rejects_reserved_prefix_declarations() {
        for src in [
            "var __snapedge_x = 1;",
            "function __snapedge_evil() { return 1; }",
            "function f(__snapedge_p) { return __snapedge_p; }",
            "for (var __snapedge_i = 0; __snapedge_i < 3; __snapedge_i += 1) { f(); }",
        ] {
            let err = parse_program(src).unwrap_err();
            assert!(
                matches!(&err, WebError::Parse { message, .. } if message.contains("reserved")),
                "{src}: {err:?}"
            );
        }
    }

    #[test]
    fn rejects_reserved_prefix_assignment_targets() {
        let err = parse_program("var a = 1;\n__snapedge_sneaky = 2;").unwrap_err();
        assert!(matches!(&err, WebError::Parse { line: 2, .. }), "{err:?}");
        let err = parse_program("__snapedge_sneaky += 2;").unwrap_err();
        assert!(
            matches!(&err, WebError::Parse { message, .. } if message.contains("reserved")),
            "{err:?}"
        );
    }

    #[test]
    fn deeply_nested_expression_fails_cleanly() {
        // A 10k-deep nested expression must produce a typed parse error,
        // not overflow the host stack.
        let mut src = String::new();
        for _ in 0..10_000 {
            src.push('(');
        }
        src.push('1');
        for _ in 0..10_000 {
            src.push(')');
        }
        let err = parse_expr(&src).unwrap_err();
        assert!(
            matches!(&err, WebError::Parse { message, .. } if message.contains("nesting")),
            "{err:?}"
        );
        // Same for nested statements and unary chains.
        let mut stmts = String::from("if (a) { b = 1; }");
        for _ in 0..10_000 {
            stmts = format!("if (a) {{ {stmts} }}");
        }
        assert!(parse_program(&stmts).is_err());
        let bangs = format!("var v = {}1;", "!".repeat(10_000));
        assert!(parse_program(&bangs).is_err());
    }

    #[test]
    fn reasonable_nesting_still_parses() {
        let mut src = String::new();
        for _ in 0..100 {
            src.push('(');
        }
        src.push('1');
        for _ in 0..100 {
            src.push(')');
        }
        assert_eq!(parse_expr(&src).unwrap(), Expr::Number(1.0));
    }

    #[test]
    fn accepts_snapshot_machinery_names() {
        // The exact names the snapshot and delta generators emit must
        // still parse, or restore itself would be rejected.
        parse_program("function __snapedge_restore() { g = 1; } __snapedge_restore();").unwrap();
        parse_program("function __snapedge_apply_delta() { g = 2; } __snapedge_apply_delta();")
            .unwrap();
        parse_program("function __snapedge_apply_delta() { var __snapedge_n0 = document.createElement(\"div\"); document.body.appendChild(__snapedge_n0); }").unwrap();
        // Close-but-wrong machinery names stay rejected.
        assert!(parse_program("var __snapedge_n = 1;").is_err());
        assert!(parse_program("var __snapedge_n1x = 1;").is_err());
        assert!(parse_program("function __snapedge_restore2() { return 1; }").is_err());
    }
}
