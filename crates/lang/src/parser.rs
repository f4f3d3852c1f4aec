//! The one reader of the surface language: a recursive-descent parser
//! for concept expressions, queries, and whole commands.
//!
//! Implements the grammar of the paper's Appendix A, the `?:`-marked query
//! form of §3.5.3 and the operator forms of §3 over the token stream of
//! [`crate::lexer`]. [`Parser`] is the crate's only cursor over tokens:
//! the wire front, the REPL, macro expansion, the store's log replay and
//! its segment hydration all read through it, so there is exactly one
//! place where a paren is counted and one bound on how deep they nest
//! ([`MAX_NESTING`]). It borrows the token slice — sub-expressions are
//! parsed in place, never copied into windows.
//!
//! Parsing is **pure**: it produces the unresolved
//! [`Expr`]/[`QueryExpr`]/[`Command`] AST — names stay strings, no schema
//! or KB is consulted — so parsing can run concurrently and server-side
//! before any tenant is chosen. Query expressions additionally accept one
//! `?:` marker in front of a subexpression reachable through `ALL` chains.
//!
//! Name resolution happens separately ([`Expr::resolve`]): bare
//! upper-case-style symbols in concept position become builtin layers
//! (`THING`, `INTEGER`, …) or named concepts, symbols in role position
//! intern as roles, `ONE-OF`/`FILLS` operands become individuals or host
//! values. Resolution never *declares* anything — undeclared roles and
//! undefined concepts are still rejected by normalization, which is how
//! the paper's "detect errors such as typos" promise is kept. The
//! convenience functions [`parse_concept`]/[`parse_query`] compose the two
//! steps for callers that do have a schema at hand.

use crate::ast::{Expr, IndLit, QueryExpr};
use crate::command::{BulkRowSpec, BulkSpec, Command};
use crate::lexer::{tokenize, Token, TokenKind};
use classic_core::aspect::AspectKind;
use classic_core::desc::Concept;
use classic_core::error::{ClassicError, Result};
use classic_core::schema::Schema;
use classic_query::MarkedQuery;

/// Deepest paren nesting the reader accepts, counted over the whole form
/// (a command's own parens included). The grammar is recursive descent,
/// one level of recursion per open paren, so this also bounds the stack a
/// parse can use: unbounded nesting would overflow a server worker's
/// stack, and a stack overflow aborts the process rather than unwinding.
/// It is a limit of the *language* — HTTP bodies, log lines, scripts and
/// REPL input all meet it here; the server's line framer stops buffering
/// at it and [`crate::Write::record`] refuses to write past it. 512 is
/// orders of magnitude beyond any legitimate form.
pub const MAX_NESTING: usize = 512;

/// What every layer says of a form nested past [`MAX_NESTING`].
pub const TOO_DEEP: &str = "form nests deeper than the 512-paren limit";

/// Cursor over a borrowed token slice. Pure: owns only its position, the
/// paren depth, and marker bookkeeping, never a schema.
pub(crate) struct Parser<'a> {
    tokens: &'a [Token],
    ix: usize,
    /// Parens open at the cursor. Changed only by [`Parser::open`] and
    /// [`Parser::close`].
    depth: usize,
    /// Marker path discovered so far (query parsing only).
    marker: Option<Vec<String>>,
    /// Role chain from the root to the current position.
    role_stack: Vec<String>,
    /// Whether the current context permits a marker (only along pure
    /// `ALL`/`AND` chains from the root).
    marker_allowed: bool,
}

impl<'a> Parser<'a> {
    /// A cursor at the start of `tokens`.
    pub(crate) fn new(tokens: &'a [Token]) -> Parser<'a> {
        Parser {
            tokens,
            ix: 0,
            depth: 0,
            marker: None,
            role_stack: Vec::new(),
            marker_allowed: true,
        }
    }

    // ---- cursor -----------------------------------------------------------

    /// The token `off` places past the cursor.
    pub(crate) fn peek_at(&self, off: usize) -> Option<&'a Token> {
        self.tokens.get(self.ix + off)
    }

    pub(crate) fn peek(&self) -> Option<&'a TokenKind> {
        self.peek_at(0).map(|t| &t.kind)
    }

    pub(crate) fn at_end(&self) -> bool {
        self.ix == self.tokens.len()
    }

    /// At a `)` — or out of tokens, which the [`close`](Parser::close)
    /// that follows every list loop reports.
    pub(crate) fn at_close(&self) -> bool {
        matches!(self.peek(), Some(TokenKind::RParen) | None)
    }

    /// At `(head …`?
    pub(crate) fn at_form(&self, head: &str) -> bool {
        matches!(self.peek(), Some(TokenKind::LParen))
            && matches!(self.peek_at(1), Some(Token { kind: TokenKind::Symbol(s), .. }) if s == head)
    }

    /// A `Malformed` error positioned at the cursor.
    pub(crate) fn err(&self, msg: impl std::fmt::Display) -> ClassicError {
        ClassicError::Malformed(match self.peek_at(0) {
            Some(t) => format!("{}: {msg}", t.pos),
            None => format!("<eof>: {msg}"),
        })
    }

    fn unexpected(&self, what: &str) -> ClassicError {
        match self.peek() {
            Some(found) => self.err(format_args!("expected {what}, found {found:?}")),
            None => ClassicError::Malformed(format!("unexpected end of input, expected {what}")),
        }
    }

    /// Consume `(`, one level deeper — the one place the nesting bound is
    /// enforced.
    pub(crate) fn open(&mut self) -> Result<()> {
        match self.peek() {
            Some(TokenKind::LParen) if self.depth < MAX_NESTING => {
                self.depth += 1;
                self.ix += 1;
                Ok(())
            }
            Some(TokenKind::LParen) => Err(self.err(TOO_DEEP)),
            _ => Err(self.unexpected("'('")),
        }
    }

    /// Consume the `)` matching the innermost [`open`](Parser::open).
    pub(crate) fn close(&mut self) -> Result<()> {
        match self.peek() {
            Some(TokenKind::RParen) if self.depth > 0 => {
                self.depth -= 1;
                self.ix += 1;
                Ok(())
            }
            Some(TokenKind::RParen) => Err(self.err("unbalanced ')'")),
            _ => Err(self.unexpected("')'")),
        }
    }

    /// Consume any one token, keeping the paren depth.
    pub(crate) fn next(&mut self) -> Result<&'a Token> {
        let t = self.peek_at(0).ok_or_else(|| self.unexpected("a token"))?;
        match t.kind {
            TokenKind::LParen => self.open()?,
            TokenKind::RParen => self.close()?,
            _ => self.ix += 1,
        }
        Ok(t)
    }

    /// Consume one balanced group without interpreting it — an atom, or a
    /// `( … )` through its matching close, with any `?:` prefix — and
    /// return its tokens. Macro arguments and a session's top-level forms
    /// are delimited this way.
    pub(crate) fn group(&mut self) -> Result<&'a [Token]> {
        let (start, floor) = (self.ix, self.depth);
        loop {
            if matches!(self.peek(), Some(TokenKind::RParen)) {
                return Err(if floor == 0 {
                    self.err("unbalanced ')'")
                } else {
                    self.unexpected("an expression")
                });
            }
            let t = self.next()?;
            while self.depth > floor {
                self.next()?;
            }
            if t.kind != TokenKind::Marker {
                return Ok(&self.tokens[start..self.ix]);
            }
        }
    }

    /// Require that all tokens have been consumed.
    pub(crate) fn expect_end(&self) -> Result<()> {
        if self.at_end() {
            Ok(())
        } else {
            Err(self.err("trailing tokens after the form"))
        }
    }

    pub(crate) fn symbol(&mut self, what: &str) -> Result<&'a str> {
        match self.peek() {
            Some(TokenKind::Symbol(s)) => {
                self.ix += 1;
                Ok(s)
            }
            _ => Err(self.unexpected(what)),
        }
    }

    fn name(&mut self) -> Result<String> {
        self.symbol("a name").map(str::to_owned)
    }

    fn role(&mut self) -> Result<String> {
        self.symbol("role name").map(str::to_owned)
    }

    fn optional_symbol(&mut self) -> Option<String> {
        match self.peek() {
            Some(TokenKind::Symbol(s)) => {
                self.ix += 1;
                Some(s.clone())
            }
            _ => None,
        }
    }

    fn optional_int(&mut self) -> Option<i64> {
        match self.peek() {
            Some(TokenKind::Int(i)) => {
                self.ix += 1;
                Some(*i)
            }
            _ => None,
        }
    }

    /// An optional numeric literal (int or float), consumed if present.
    fn optional_number(&mut self) -> Option<f64> {
        match self.peek() {
            Some(TokenKind::Float(f)) => {
                self.ix += 1;
                Some(f.0)
            }
            _ => self.optional_int().map(|i| i as f64),
        }
    }

    fn number(&mut self) -> Result<u32> {
        match self.peek() {
            Some(TokenKind::Int(i)) if *i >= 0 => {
                self.ix += 1;
                Ok(*i as u32)
            }
            _ => Err(self.unexpected("non-negative integer")),
        }
    }

    /// An individual operand: name, host number, string, or symbol.
    fn individual(&mut self, what: &str) -> Result<IndLit> {
        let lit = match self.peek() {
            Some(TokenKind::Symbol(s)) => IndLit::Name(s.clone()),
            Some(TokenKind::Int(i)) => IndLit::Int(*i),
            Some(TokenKind::Float(v)) => IndLit::Float(*v),
            Some(TokenKind::Str(s)) => IndLit::Str(s.clone()),
            Some(TokenKind::QuotedSym(s)) => IndLit::Sym(s.clone()),
            _ => return Err(self.unexpected(what)),
        };
        self.ix += 1;
        Ok(lit)
    }

    fn individuals(&mut self) -> Result<Vec<IndLit>> {
        let mut inds = Vec::new();
        while !self.at_close() {
            inds.push(self.individual("an individual")?);
        }
        Ok(inds)
    }

    fn path(&mut self) -> Result<Vec<String>> {
        self.open()?;
        let mut path = Vec::new();
        while !self.at_close() {
            path.push(self.role()?);
        }
        self.close()?;
        Ok(path)
    }

    // ---- concept grammar ----------------------------------------------------

    /// A concept expression in command position: no marker.
    pub(crate) fn concept(&mut self) -> Result<Expr> {
        self.no_marker(Self::expr)
    }

    /// A query expression: a concept with at most one `?:` marker. A query
    /// without a marker gets the subject marker (`?:C` ≡ `C`).
    pub(crate) fn query(&mut self) -> Result<QueryExpr> {
        self.marker = None;
        let expr = self.expr()?;
        Ok(QueryExpr {
            expr,
            marker: self.marker.take().unwrap_or_default(),
        })
    }

    /// `concept := NAME | builtin | (CONSTRUCTOR …)`, optionally preceded
    /// by the `?:` marker when parsing a query.
    ///
    /// Every level of nesting holds one frame each of `expr`,
    /// `constructor` and one of the four constructors that recurse, so
    /// these are kept small (results are returned, not re-wrapped): it is
    /// their size that [`MAX_NESTING`] levels must fit a worker's stack.
    fn expr(&mut self) -> Result<Expr> {
        if matches!(self.peek(), Some(TokenKind::Marker)) {
            self.mark()?;
        }
        match self.peek() {
            Some(TokenKind::Symbol(s)) => {
                self.ix += 1;
                Ok(Expr::Name(s.clone()))
            }
            Some(TokenKind::LParen) => {
                self.open()?;
                let c = self.constructor();
                if c.is_ok() {
                    self.close()?;
                }
                c
            }
            _ => Err(self.unexpected("a concept expression")),
        }
    }

    /// Consume the `?:` marker, recording the role path it sits at.
    fn mark(&mut self) -> Result<()> {
        if !self.marker_allowed {
            return Err(self.err("?: marker only allowed along ALL chains from the query root"));
        }
        if self.marker.is_some() {
            // Which also keeps a marked subexpression from holding another.
            return Err(self.err("a query may contain only one ?: marker"));
        }
        self.ix += 1;
        self.marker = Some(self.role_stack.clone());
        Ok(())
    }

    fn constructor(&mut self) -> Result<Expr> {
        match self.symbol("constructor")? {
            "AND" => self.and(),
            "ALL" => self.all(),
            "PRIMITIVE" => self.primitive(),
            "DISJOINT-PRIMITIVE" => self.disjoint_primitive(),
            head => self.flat_constructor(head),
        }
    }

    fn and(&mut self) -> Result<Expr> {
        let mut parts = Vec::new();
        while !self.at_close() {
            parts.push(self.expr()?);
        }
        Ok(Expr::And(parts))
    }

    fn all(&mut self) -> Result<Expr> {
        let role = self.role()?;
        self.role_stack.push(role);
        let inner = Box::new(self.expr()?);
        let role = self.role_stack.pop().expect("pushed above");
        Ok(Expr::All(role, inner))
    }

    fn primitive(&mut self) -> Result<Expr> {
        Ok(Expr::Primitive {
            parent: Box::new(self.no_marker(Self::expr)?),
            index: self.symbol("primitive index")?.to_owned(),
        })
    }

    fn disjoint_primitive(&mut self) -> Result<Expr> {
        Ok(Expr::DisjointPrimitive {
            parent: Box::new(self.no_marker(Self::expr)?),
            grouping: self.symbol("disjointness grouping")?.to_owned(),
            index: self.symbol("primitive index")?.to_owned(),
        })
    }

    /// The constructors that take no concept argument.
    fn flat_constructor(&mut self, head: &str) -> Result<Expr> {
        match head {
            "AT-LEAST" => Ok(Expr::AtLeast(self.number()?, self.role()?)),
            "AT-MOST" => Ok(Expr::AtMost(self.number()?, self.role()?)),
            "EXACTLY" => {
                // The macro facility the paper anticipates (§2.1.4):
                // (EXACTLY n r) expands to AND(AT-LEAST, AT-MOST).
                let n = self.number()?;
                let role = self.role()?;
                Ok(Expr::And(vec![
                    Expr::AtLeast(n, role.clone()),
                    Expr::AtMost(n, role),
                ]))
            }
            "ONE-OF" => Ok(Expr::OneOf(self.individuals()?)),
            "FILLS" => Ok(Expr::Fills(self.role()?, self.individuals()?)),
            "CLOSE" => Ok(Expr::Close(self.role()?)),
            "SAME-AS" => Ok(Expr::SameAs(self.path()?, self.path()?)),
            "TEST" => Ok(Expr::Test(self.symbol("test name")?.to_owned())),
            other => Err(self.err(format_args!("unknown constructor {other:?}"))),
        }
    }

    fn no_marker<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let saved = std::mem::replace(&mut self.marker_allowed, false);
        let r = f(self);
        self.marker_allowed = saved;
        r
    }

    // ---- command grammar ------------------------------------------------------

    /// Every command up to the end of the tokens.
    pub(crate) fn commands(&mut self) -> Result<Vec<Command>> {
        let mut commands = Vec::new();
        while !self.at_end() {
            commands.push(self.command()?);
        }
        Ok(commands)
    }

    /// One `(operator …)` form.
    pub(crate) fn command(&mut self) -> Result<Command> {
        self.open()?;
        let cmd = match self.symbol("an operator")? {
            "define-role" => Command::DefineRole(self.name()?),
            "define-attribute" => Command::DefineAttribute(self.name()?),
            "define-concept" => Command::DefineConcept(self.name()?, self.concept()?),
            "create-ind" => Command::CreateInd(self.name()?),
            "assert-ind" => Command::AssertInd(self.name()?, self.concept()?),
            "assert-rule" => Command::AssertRule(self.name()?, self.concept()?),
            "retract-ind" => Command::RetractInd(self.name()?, self.concept()?),
            "retract-rule" => match self.optional_count("rule ids are")? {
                Some(ix) => Command::RetractRuleById(ix),
                None => Command::RetractRule(self.name()?, self.concept()?),
            },
            "list-rules" => Command::ListRules,
            "obs-stats" => Command::ObsStats {
                json: matches!(self.optional_symbol().as_deref(), Some("json")),
            },
            "obs-trace" => Command::ObsTrace(self.name()?),
            "obs-reset" => Command::ObsReset,
            "obs-level" => Command::ObsLevel(self.optional_symbol()),
            "obs-sample" => Command::ObsSample(self.optional_number()),
            "obs-slowlog" => Command::ObsSlowlog(self.optional_count("obs-slowlog count is")?),
            "provenance" => Command::Provenance(self.name()?),
            "retrieve" | "instances" => Command::Retrieve(self.query()?),
            "possible" => Command::Possible(self.concept()?),
            "ask-necessary-set" => Command::AskNecessarySet(self.query()?),
            "ask-description" => Command::AskDescription(self.query()?),
            "subsumes?" => Command::Subsumes(self.concept()?, self.concept()?),
            "equivalent?" => Command::Equivalent(self.concept()?, self.concept()?),
            "disjoint?" => Command::Disjoint(self.concept()?, self.concept()?),
            "concept-aspect" => {
                Command::ConceptAspect(self.name()?, self.aspect_kind()?, self.optional_symbol())
            }
            "ind-aspect" => {
                Command::IndAspect(self.name()?, self.aspect_kind()?, self.optional_symbol())
            }
            "describe" => Command::Describe(self.name()?),
            "classify" => Command::Classify(self.concept()?),
            "why?" => Command::Why(self.name()?, self.name()?),
            "what-if?" => Command::WhatIf(self.name()?, self.concept()?),
            "parents" => Command::Parents(self.name()?),
            "children" => Command::Children(self.name()?),
            "bulk-load" => Command::BulkLoad(self.bulk_spec()?),
            "lint-kb" => match self.optional_symbol().as_deref() {
                None => Command::LintKb { cone: false },
                Some("cone") => Command::LintKb { cone: true },
                Some(arg) => {
                    return Err(ClassicError::Malformed(format!(
                        "lint-kb takes no argument or `cone`, got {arg:?}"
                    )))
                }
            },
            other => {
                return Err(ClassicError::Malformed(format!(
                    "unknown operator {other:?}"
                )))
            }
        };
        self.close()?;
        Ok(cmd)
    }

    /// An optional non-negative integer argument.
    fn optional_count(&mut self, what_is: &str) -> Result<Option<usize>> {
        match self.optional_int() {
            Some(n) if n < 0 => Err(ClassicError::Malformed(format!(
                "{what_is} non-negative, got {n}"
            ))),
            n => Ok(n.map(|n| n as usize)),
        }
    }

    fn aspect_kind(&mut self) -> Result<AspectKind> {
        Ok(match self.symbol("an aspect kind")? {
            "ONE-OF" => AspectKind::OneOf,
            "ALL" => AspectKind::All,
            "AT-LEAST" => AspectKind::AtLeast,
            "AT-MOST" => AspectKind::AtMost,
            "FILLS" => AspectKind::Fills,
            "CLOSE" => AspectKind::Close,
            other => {
                return Err(ClassicError::Malformed(format!(
                    "unknown aspect kind {other:?}"
                )))
            }
        })
    }

    /// The body of a `(bulk-load …)` form: optional `(into expr)`, one
    /// `(roles …)` header, then `(row …)` forms whose arity must match
    /// the header (ragged rows are parse errors).
    fn bulk_spec(&mut self) -> Result<BulkSpec> {
        let bad = |msg: String| Err(ClassicError::Malformed(format!("bulk-load: {msg}")));
        let mut into = None;
        let mut roles: Option<Vec<String>> = None;
        let mut rows = Vec::new();
        while !self.at_close() {
            self.open()?;
            match self.symbol("a bulk-load clause")? {
                "into" => {
                    if into.is_some() {
                        return bad("duplicate (into …) clause".into());
                    }
                    if roles.is_some() || !rows.is_empty() {
                        return bad("(into …) must precede (roles …) and rows".into());
                    }
                    into = Some(self.concept()?);
                }
                "roles" => {
                    if roles.is_some() {
                        return bad("duplicate (roles …) header".into());
                    }
                    let mut header = Vec::new();
                    while !self.at_close() {
                        header.push(self.name()?);
                    }
                    roles = Some(header);
                }
                "row" => {
                    let Some(arity) = roles.as_ref().map(Vec::len) else {
                        return bad("(roles …) header must precede rows".into());
                    };
                    let name = self.name()?;
                    let mut values = Vec::with_capacity(arity);
                    while !self.at_close() {
                        // One cell: an individual literal, or `_` for missing.
                        values.push(
                            match self.individual("a row value (name, literal, or `_`)")? {
                                IndLit::Name(n) if n == "_" => None,
                                lit => Some(lit),
                            },
                        );
                    }
                    if values.len() != arity {
                        return bad(format!(
                            "ragged row {name:?} has {} value(s), header has {arity} role(s)",
                            values.len()
                        ));
                    }
                    rows.push(BulkRowSpec { name, values });
                }
                other => {
                    return bad(format!(
                        "expected (into …), (roles …), or (row …), got {other:?}"
                    ))
                }
            }
            self.close()?;
        }
        Ok(BulkSpec {
            into,
            roles: roles.unwrap_or_default(),
            rows,
        })
    }
}

/// Split an input string into top-level s-expressions and parse each as a
/// command. **Pure**: no KB, schema, or symbol table is consulted — names
/// stay symbols in the produced [`Command`]s and are resolved by
/// [`crate::eval`]. Used by the REPL, the persistence log reader, and the
/// server front.
///
/// ```
/// use classic_kb::Kb;
/// use classic_lang::{eval, parse, Outcome};
///
/// // Parsing touches no KB: an undefined role is fine here…
/// let cmds = parse("(define-role child) (assert-ind Mary (AT-LEAST 2 child))")?;
/// assert_eq!(cmds.len(), 2);
///
/// // …and is only resolved when each command meets a KB in `eval`.
/// let mut kb = Kb::new();
/// kb.create_ind("Mary")?;
/// for cmd in &cmds {
///     assert!(matches!(eval(&mut kb, cmd)?, Outcome::Ok | Outcome::Asserted(_)));
/// }
/// # Ok::<(), classic_core::ClassicError>(())
/// ```
pub fn parse(input: &str) -> Result<Vec<Command>> {
    Parser::new(&tokenize(input)?).commands()
}

/// Parse exactly one command from text. Pure, like [`parse`].
pub fn parse_one(input: &str) -> Result<Command> {
    let mut cmds = parse(input)?;
    match cmds.len() {
        1 => Ok(cmds.pop().expect("one command")),
        n => Err(ClassicError::Malformed(format!(
            "expected exactly one command, found {n}"
        ))),
    }
}

/// Parse a concept expression into the unresolved AST (no marker);
/// trailing tokens are an error. Pure: callable with no `Kb` or `Schema`
/// in scope.
pub fn parse_expr(input: &str) -> Result<Expr> {
    let tokens = tokenize(input)?;
    let mut p = Parser::new(&tokens);
    let e = p.concept()?;
    p.expect_end()?;
    Ok(e)
}

/// Parse a query expression with an optional `?:` marker into the
/// unresolved AST. Pure.
pub fn parse_query_expr(input: &str) -> Result<QueryExpr> {
    let tokens = tokenize(input)?;
    let mut p = Parser::new(&tokens);
    let q = p.query()?;
    p.expect_end()?;
    Ok(q)
}

/// Parse a concept expression (no marker) and resolve it against `schema`.
pub fn parse_concept(input: &str, schema: &mut Schema) -> Result<Concept> {
    parse_expr(input)?.resolve(schema)
}

/// Parse a query expression with an optional `?:` marker and resolve it
/// against `schema`.
pub fn parse_query(input: &str, schema: &mut Schema) -> Result<MarkedQuery> {
    parse_query_expr(input)?.resolve(schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use classic_core::desc::{Concept, IndRef};
    use classic_core::host::{HostValue, Layer};

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.define_role("thing-driven").unwrap();
        s.define_role("maker").unwrap();
        s.define_attribute("driver").unwrap();
        s.define_attribute("insurance").unwrap();
        s.define_attribute("payer").unwrap();
        s.define_role("wheel").unwrap();
        s
    }

    #[test]
    fn parses_paper_rich_kid() {
        let mut s = schema();
        let c = parse_concept(
            "(AND STUDENT (ALL thing-driven SPORTS-CAR) (AT-LEAST 2 thing-driven))",
            &mut s,
        )
        .unwrap();
        assert_eq!(
            c.display(&s.symbols).to_string(),
            "(AND STUDENT (ALL thing-driven SPORTS-CAR) (AT-LEAST 2 thing-driven))"
        );
    }

    #[test]
    fn parse_is_pure() {
        // No schema, no KB: parsing alone never interns anything.
        let e = parse_expr("(AND STUDENT (ALL thing-driven SPORTS-CAR))").unwrap();
        assert_eq!(
            e,
            Expr::And(vec![
                Expr::Name("STUDENT".into()),
                Expr::All(
                    "thing-driven".into(),
                    Box::new(Expr::Name("SPORTS-CAR".into()))
                ),
            ])
        );
    }

    #[test]
    fn parses_nested_paper_example() {
        // §2.1.3's full composite example.
        let mut s = schema();
        let c = parse_concept(
            "(AND STUDENT \
               (ALL thing-driven (AND SPORTS-CAR (ALL maker ITALIAN-COMPANY))) \
               (AT-LEAST 1 thing-driven) \
               (AT-MOST 2 thing-driven))",
            &mut s,
        )
        .unwrap();
        assert_eq!(c.size(), 9);
    }

    #[test]
    fn parses_same_as() {
        let mut s = schema();
        let c = parse_concept("(SAME-AS (driver) (insurance payer))", &mut s).unwrap();
        assert_eq!(
            c.display(&s.symbols).to_string(),
            "(SAME-AS (driver) (insurance payer))"
        );
    }

    #[test]
    fn parses_one_of_with_host_values() {
        let mut s = schema();
        let c = parse_concept("(ONE-OF GM Ford 42 \"label\" 'red)", &mut s).unwrap();
        match c {
            Concept::OneOf(v) => {
                assert_eq!(v.len(), 5);
                assert!(matches!(v[2], IndRef::Host(HostValue::Int(42))));
                assert!(matches!(v[3], IndRef::Host(HostValue::Str(_))));
                assert!(matches!(v[4], IndRef::Host(HostValue::Sym(_))));
            }
            other => panic!("expected ONE-OF, got {other:?}"),
        }
    }

    #[test]
    fn parses_builtins() {
        let mut s = schema();
        assert_eq!(
            parse_concept("THING", &mut s).unwrap(),
            Concept::Builtin(Layer::Thing)
        );
        assert_eq!(
            parse_concept("INTEGER", &mut s).unwrap(),
            Concept::Builtin(Layer::Host(Some(classic_core::HostClass::Integer)))
        );
    }

    #[test]
    fn parses_primitive_forms() {
        let mut s = schema();
        let c = parse_concept("(PRIMITIVE THING car)", &mut s).unwrap();
        assert!(matches!(c, Concept::Primitive { .. }));
        let d = parse_concept("(DISJOINT-PRIMITIVE PERSON gender male)", &mut s).unwrap();
        assert!(matches!(d, Concept::DisjointPrimitive { .. }));
    }

    #[test]
    fn exactly_macro() {
        let mut s = schema();
        let c = parse_concept("(EXACTLY 1 wheel)", &mut s).unwrap();
        assert!(matches!(c, Concept::And(v) if v.len() == 2));
    }

    #[test]
    fn query_marker_on_subject() {
        let mut s = schema();
        let q = parse_query("?:PERSON", &mut s).unwrap();
        assert!(q.marker.is_empty());
    }

    #[test]
    fn query_marker_along_all_chain() {
        // (AND STUDENT (ALL thing-driven ?:(ALL maker (ONE-OF Ferrari))))
        let mut s = schema();
        let q = parse_query(
            "(AND STUDENT (ALL thing-driven ?:(ALL maker (ONE-OF Ferrari))))",
            &mut s,
        )
        .unwrap();
        let driven = s.symbols.find_role("thing-driven").unwrap();
        assert_eq!(q.marker, vec![driven]);
    }

    #[test]
    fn double_marker_rejected() {
        let mut s = schema();
        assert!(parse_query("(AND ?:PERSON ?:STUDENT)", &mut s).is_err());
    }

    #[test]
    fn marker_rejected_in_concept_position() {
        let mut s = schema();
        assert!(parse_concept("?:PERSON", &mut s).is_err());
    }

    #[test]
    fn each_query_of_a_script_gets_its_own_marker() {
        let cmds = parse("(retrieve (ALL r ?:A)) (retrieve B) (retrieve (ALL s ?:C))").unwrap();
        let markers: Vec<&[String]> = cmds
            .iter()
            .map(|c| match c {
                Command::Retrieve(q) => q.marker.as_slice(),
                other => panic!("expected retrieve, got {other:?}"),
            })
            .collect();
        assert_eq!(markers, [&["r".to_owned()][..], &[], &["s".to_owned()][..]]);
    }

    #[test]
    fn unknown_constructor_rejected() {
        let mut s = schema();
        let err = parse_concept("(OR A B)", &mut s).unwrap_err();
        // The paper deliberately omits OR (§5); the diagnosis names it.
        assert!(err.to_string().contains("OR"));
    }

    #[test]
    fn unknown_test_rejected_at_resolve_time() {
        let mut s = schema();
        // Parsing alone accepts any TEST name (it is pure)…
        assert!(parse_expr("(TEST even)").is_ok());
        // …resolution rejects unknown functions, and accepts known ones.
        assert!(parse_concept("(TEST even)", &mut s).is_err());
        s.register_test("even", |_| true);
        assert!(parse_concept("(TEST even)", &mut s).is_ok());
    }

    #[test]
    fn arity_errors() {
        let mut s = schema();
        assert!(parse_concept("(AT-LEAST wheel 2)", &mut s).is_err());
        assert!(parse_concept("(AT-LEAST -1 wheel)", &mut s).is_err());
        assert!(parse_concept("(ALL)", &mut s).is_err());
        assert!(parse_concept("(AND PERSON", &mut s).is_err());
        assert!(parse_concept("PERSON STUDENT", &mut s).is_err());
    }

    #[test]
    fn group_delimits_without_interpreting() {
        let tokens = tokenize("atom (a (b) c) ?:(d) ?: ?: e )").unwrap();
        let mut p = Parser::new(&tokens);
        let lens: Vec<usize> = (0..4).map(|_| p.group().unwrap().len()).collect();
        assert_eq!(lens, [1, 7, 4, 3]);
        // A stray `)` is not a group, and consumes nothing.
        assert!(p.group().is_err());
        assert!(matches!(p.peek(), Some(TokenKind::RParen)));
        // Neither is a form that never closes.
        let open = tokenize("(a (b)").unwrap();
        assert!(Parser::new(&open).group().is_err());
    }

    /// `n` levels of `(ALL r …)` around `X`, inside an `assert-ind`: a
    /// form nested `n + 1` deep.
    fn nested(n: usize) -> String {
        format!("(assert-ind I {}X{})", "(ALL r ".repeat(n), ")".repeat(n))
    }

    /// Runs on a thread with std's default 2 MiB stack — what a server
    /// worker has — so "refused" here means refused before the recursion
    /// could overflow it, and "accepted" means the bound itself fits.
    #[test]
    fn nesting_is_bounded_on_a_worker_sized_stack() {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let at_bound = parse_one(&nested(MAX_NESTING - 1)).expect("the bound parses");
                let Command::AssertInd(_, mut e) = at_bound else {
                    panic!("expected assert-ind");
                };
                let mut levels = 0;
                while let Expr::All(_, inner) = e {
                    e = *inner;
                    levels += 1;
                }
                assert_eq!(levels, MAX_NESTING - 1);
                for n in [MAX_NESTING, 4_000, 100_000] {
                    let msg = parse(&nested(n)).unwrap_err().to_string();
                    assert!(msg.contains(TOO_DEEP), "{n}: {msg}");
                    assert!(TOO_DEEP.contains(&MAX_NESTING.to_string()));
                    // Positioned at the paren that went too deep.
                    assert!(msg.contains(": 1:"), "{n}: {msg}");
                }
                // Expressions and bare groups meet the same bound.
                let deep = format!("{}X{}", "(ALL r ".repeat(600), ")".repeat(600));
                assert!(parse_expr(&deep).is_err());
                assert!(parse_query_expr(&deep).is_err());
                let tokens = tokenize(&deep).unwrap();
                assert!(Parser::new(&tokens).group().is_err());
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
