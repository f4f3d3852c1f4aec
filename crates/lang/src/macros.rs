//! The macro-definition facility the paper anticipates.
//!
//! §2.1.4: "we did not define the constructor EXACTLY-ONE, which is easily
//! derivable as the AND of AT-LEAST 1 and AT-MOST 1. It is our intention
//! to add a macro-definition facility in order to allow syntactic
//! extensions such as EXACTLY-ONE, which might simplify CLASSIC
//! expressions."
//!
//! Macros are purely *syntactic*: a named template over token sequences.
//!
//! ```text
//! (define-macro EXACTLY-ONE (r) (AND (AT-LEAST 1 r) (AT-MOST 1 r)))
//! (define-concept SOLO-DRIVER (AND PERSON (EXACTLY-ONE thing-driven)))
//! ```
//!
//! A macro call `(NAME arg …)` is recognized wherever an expression can
//! appear; each argument is one balanced token group (a symbol, literal,
//! or parenthesized form), substituted textually for the corresponding
//! parameter in the body. Expansion repeats until no macro heads remain,
//! with a depth bound so mutually recursive macros are rejected rather
//! than looping.

use crate::lexer::{Token, TokenKind};
use crate::parser::Parser;
use classic_core::error::{ClassicError, Result};
use std::borrow::Cow;
use std::collections::HashMap;

/// One macro definition: parameter names and the body token template.
#[derive(Debug, Clone)]
struct MacroDef {
    params: Vec<String>,
    body: Vec<Token>,
}

/// The registry of defined macros.
#[derive(Debug, Clone, Default)]
pub struct MacroTable {
    defs: HashMap<String, MacroDef>,
}

/// Expansion nesting bound: deeper means a recursive macro.
const MAX_DEPTH: usize = 32;

impl MacroTable {
    /// The defined macro names, in arbitrary order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.defs.keys().map(String::as_str)
    }

    /// Read one `(define-macro NAME (params…) body…)` form off `p` and
    /// register it.
    pub fn define(&mut self, p: &mut Parser<'_>) -> Result<()> {
        p.open()?;
        p.symbol("define-macro")?;
        let name = p.symbol("a macro name")?;
        if is_reserved(name) {
            return Err(ClassicError::Malformed(format!(
                "macro name {name:?} shadows a built-in constructor"
            )));
        }
        p.open()?;
        let mut params = Vec::new();
        while !p.at_close() {
            params.push(p.symbol("a macro parameter")?.to_owned());
        }
        p.close()?;
        // The body is every group up to the form's closing paren.
        let mut body = Vec::new();
        while !p.at_close() {
            body.extend_from_slice(p.group()?);
        }
        p.close()?;
        if body.is_empty() {
            return Err(ClassicError::Malformed(format!(
                "macro {name:?} has an empty body"
            )));
        }
        self.defs.insert(name.to_owned(), MacroDef { params, body });
        Ok(())
    }

    /// Expand every macro call in `tokens`, to a fixed point. Borrows the
    /// input back when it holds no call.
    pub fn expand<'t>(&self, tokens: &'t [Token]) -> Result<Cow<'t, [Token]>> {
        let mut current = Cow::Borrowed(tokens);
        if self.defs.is_empty() {
            return Ok(current);
        }
        for _ in 0..MAX_DEPTH {
            match self.expand_once(&current)? {
                Some(expanded) => current = Cow::Owned(expanded),
                None => return Ok(current),
            }
        }
        Err(ClassicError::Malformed(format!(
            "macro expansion exceeded depth {MAX_DEPTH} (recursive macro?)"
        )))
    }

    /// One pass over `tokens`, replacing each outermost macro call with
    /// its substituted body; `None` when there was no call to replace.
    fn expand_once(&self, tokens: &[Token]) -> Result<Option<Vec<Token>>> {
        let mut p = Parser::new(tokens);
        let mut out = Vec::with_capacity(tokens.len());
        let mut changed = false;
        while let Some(t) = p.peek_at(0) {
            // A macro call site: '(' SYMBOL(name in table) …
            let call = match (&t.kind, p.peek_at(1).map(|t| &t.kind)) {
                (TokenKind::LParen, Some(TokenKind::Symbol(s))) => self.defs.get_key_value(s),
                _ => None,
            };
            let Some((name, def)) = call else {
                out.push(p.next()?.clone());
                continue;
            };
            let arity = || {
                ClassicError::Malformed(format!(
                    "{}: macro {name:?} takes exactly {} arguments",
                    t.pos,
                    def.params.len()
                ))
            };
            p.open()?;
            p.symbol("a macro name")?;
            // One balanced group per parameter.
            let mut args: Vec<&[Token]> = Vec::with_capacity(def.params.len());
            for _ in &def.params {
                if p.at_close() {
                    return Err(arity());
                }
                args.push(p.group()?);
            }
            if !p.at_close() {
                return Err(arity());
            }
            p.close()?;
            // Substitute parameters into the body.
            for t in &def.body {
                match &t.kind {
                    TokenKind::Symbol(s) => match def.params.iter().position(|p| p == s) {
                        Some(k) => out.extend_from_slice(args[k]),
                        None => out.push(t.clone()),
                    },
                    _ => out.push(t.clone()),
                }
            }
            changed = true;
        }
        Ok(changed.then_some(out))
    }
}

fn is_reserved(name: &str) -> bool {
    matches!(
        name,
        "AND"
            | "ALL"
            | "AT-LEAST"
            | "AT-MOST"
            | "EXACTLY"
            | "ONE-OF"
            | "FILLS"
            | "CLOSE"
            | "SAME-AS"
            | "PRIMITIVE"
            | "DISJOINT-PRIMITIVE"
            | "TEST"
            | "THING"
            | "CLASSIC-THING"
            | "HOST-THING"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn define(table: &mut MacroTable, def: &str) -> Result<()> {
        table.define(&mut Parser::new(&tokenize(def).unwrap()))
    }

    fn table_with(def: &str) -> MacroTable {
        let mut t = MacroTable::default();
        define(&mut t, def).unwrap();
        t
    }

    fn expand_to_text(table: &MacroTable, input: &str) -> String {
        let tokens = tokenize(input).unwrap();
        let mut out = String::new();
        for t in table.expand(&tokens).unwrap().into_owned() {
            match t.kind {
                TokenKind::LParen => out.push('('),
                TokenKind::RParen => {
                    if out.ends_with(' ') {
                        out.pop();
                    }
                    out.push_str(") ");
                }
                TokenKind::Symbol(s) => {
                    out.push_str(&s);
                    out.push(' ');
                }
                TokenKind::Int(i) => {
                    out.push_str(&i.to_string());
                    out.push(' ');
                }
                other => {
                    out.push_str(&format!("{other:?} "));
                }
            }
        }
        out.trim_end().to_owned()
    }

    #[test]
    fn exactly_one_from_the_paper() {
        let t = table_with("(define-macro EXACTLY-ONE (r) (AND (AT-LEAST 1 r) (AT-MOST 1 r)))");
        assert_eq!(
            expand_to_text(&t, "(EXACTLY-ONE wheel)"),
            "(AND (AT-LEAST 1 wheel) (AT-MOST 1 wheel))"
        );
    }

    #[test]
    fn parenthesized_arguments() {
        let t = table_with("(define-macro ALL-BOTH (r c d) (AND (ALL r c) (ALL r d)))");
        assert_eq!(
            expand_to_text(&t, "(ALL-BOTH drives (AND CAR FAST) SAFE)"),
            "(AND (ALL drives (AND CAR FAST)) (ALL drives SAFE))"
        );
    }

    #[test]
    fn nested_macro_calls_expand_to_fixpoint() {
        let mut t = table_with("(define-macro SOME (r) (AT-LEAST 1 r))");
        define(
            &mut t,
            "(define-macro SOME-BOTH (r s) (AND (SOME r) (SOME s)))",
        )
        .unwrap();
        assert_eq!(
            expand_to_text(&t, "(SOME-BOTH a b)"),
            "(AND (AT-LEAST 1 a) (AT-LEAST 1 b))"
        );
    }

    #[test]
    fn recursive_macros_are_rejected() {
        let t = table_with("(define-macro LOOP (r) (AND (LOOP r)))");
        let err = t.expand(&tokenize("(LOOP x)").unwrap()).unwrap_err();
        assert!(err.to_string().contains("depth"));
    }

    #[test]
    fn wrong_arity_is_an_error() {
        let t = table_with("(define-macro PAIR (a b) (AND a b))");
        assert!(t.expand(&tokenize("(PAIR x)").unwrap()).is_err());
        assert!(t.expand(&tokenize("(PAIR x y z)").unwrap()).is_err());
    }

    #[test]
    fn reserved_names_cannot_be_shadowed() {
        let err = define(&mut MacroTable::default(), "(define-macro AND (a) a)").unwrap_err();
        assert!(err.to_string().contains("shadows"));
    }

    #[test]
    fn zero_parameter_macros() {
        let t = table_with("(define-macro LONELY () (AT-MOST 0 friend))");
        assert_eq!(expand_to_text(&t, "(LONELY)"), "(AT-MOST 0 friend)");
    }

    #[test]
    fn non_macro_tokens_pass_through() {
        let t = table_with("(define-macro SOME (r) (AT-LEAST 1 r))");
        assert_eq!(
            expand_to_text(&t, "(AND PERSON (SOME pet))"),
            "(AND PERSON (AT-LEAST 1 pet))"
        );
    }
}
