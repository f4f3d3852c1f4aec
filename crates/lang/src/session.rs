//! A stateful interpreter: a knowledge base plus a macro table.

use crate::eval::eval;
use crate::lexer::tokenize;
use crate::macros::MacroTable;
use crate::outcome::Outcome;
use crate::parser::Parser;
use classic_core::error::Result;
use classic_kb::Kb;

/// A stateful interpreter session: a knowledge base plus the macro table
/// of §2.1.4's anticipated "macro-definition facility". `define-macro`
/// forms register syntactic templates; every other command is
/// macro-expanded before parsing.
///
/// ```
/// use classic_lang::{Outcome, Session};
///
/// let mut s = Session::new();
/// let out = s.run(r#"
///     (define-macro EXACTLY-ONE (r) (AND (AT-LEAST 1 r) (AT-MOST 1 r)))
///     (define-role wheel)
///     (equivalent? (EXACTLY-ONE wheel)
///                  (AND (AT-LEAST 1 wheel) (AT-MOST 1 wheel)))
/// "#)?;
/// assert_eq!(out.last().unwrap(), &Outcome::Bool(true));
/// # Ok::<(), classic_core::ClassicError>(())
/// ```
#[derive(Default)]
pub struct Session {
    /// The knowledge base the session operates on.
    pub kb: Kb,
    macros: MacroTable,
}

impl Session {
    /// A fresh session over an empty knowledge base.
    pub fn new() -> Session {
        Session::default()
    }

    /// Names of the macros defined so far.
    pub fn macro_names(&self) -> Vec<&str> {
        self.macros.names().collect()
    }

    /// Run a script: `define-macro` forms extend the macro table, all
    /// other commands are expanded and evaluated in order, each as soon
    /// as it is read — an error stops the script with every earlier form
    /// already applied.
    pub fn run(&mut self, input: &str) -> Result<Vec<Outcome>> {
        let tokens = tokenize(input)?;
        let mut p = Parser::new(&tokens);
        let mut outcomes = Vec::new();
        while !p.at_end() {
            if p.at_form("define-macro") {
                self.macros.define(&mut p)?;
                outcomes.push(Outcome::Ok);
                continue;
            }
            let form = self.macros.expand(p.group()?)?;
            let mut expanded = Parser::new(&form);
            let cmd = expanded.command()?;
            expanded.expect_end()?;
            outcomes.push(eval(&mut self.kb, &cmd)?);
        }
        Ok(outcomes)
    }
}
