//! The lexical rules of the surface language, for reading and writing.
//!
//! The paper's single language (§6) is also this system's wire protocol,
//! operation log and segment format, so text one component writes is text
//! another must read back to *the same value*. The rules that decide
//! that live here, below both sides: the lexer (`classic-lang`) reads
//! with them; every producer of surface text — `Display` for
//! [`crate::HostValue`] and [`crate::Concept`], the log/segment record
//! writer, ingest — writes through [`Writer`]. Normative in
//! `docs/PROTOCOL.md` §2.2.

use std::fmt;

/// Characters permitted inside bare symbols — generous, to cover the
/// paper's identifiers (`thing-driven`, `SPORTS-CAR`, `Volvo-17`). A `?`
/// may continue a symbol (`subsumes?`) but not start one.
pub fn is_symbol_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '-' | '_' | '+' | '*' | '/' | '.' | '!' | '<' | '>' | '=')
}

/// What a run of symbol characters reads as.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Atom {
    /// The whole run parses as an integer.
    Int(i64),
    /// The run starts numerically and parses as an `f64` (`1.5`, `-2e3`) —
    /// possibly a non-finite one (`1e999`), which the lexer refuses.
    Float(f64),
    /// Anything else (`Volvo-17`, `v1.x`, `inf`): a name.
    Symbol,
}

/// A token that reads as a number is a number, never a name.
pub fn classify(run: &str) -> Atom {
    // Only these can start a number; most names skip both parses.
    if !run.starts_with(|c: char| c.is_ascii_digit() || c == '-' || c == '+') {
        return Atom::Symbol;
    }
    if let Ok(i) = run.parse::<i64>() {
        return Atom::Int(i);
    }
    let digits = run.trim_start_matches('-');
    match run.parse::<f64>() {
        Ok(v) if digits.starts_with(|c: char| c.is_ascii_digit()) => Atom::Float(v),
        _ => Atom::Symbol,
    }
}

/// Does `text` lex as exactly one symbol token spelling `text`?
pub fn is_symbol(text: &str) -> bool {
    let mut chars = text.chars();
    chars.next().is_some_and(is_symbol_char)
        && chars.all(|c| is_symbol_char(c) || c == '?')
        && classify(text) == Atom::Symbol
}

/// The named string escapes: `\e` stands for the paired character.
const ESCAPES: [(char, char); 6] = [
    ('n', '\n'),
    ('t', '\t'),
    ('r', '\r'),
    ('0', '\0'),
    ('"', '"'),
    ('\\', '\\'),
];

/// The character the string escape `\e` stands for, if `e` names one.
/// (The lexer reads `\u{hex}` itself; any other `\x` stands for `x`.)
pub fn unescape(e: char) -> Option<char> {
    ESCAPES.iter().find(|(name, _)| *name == e).map(|(_, c)| *c)
}

/// Writes surface text token by token, each spelled the one way the lexer
/// reads it back, single spaces between tokens and none inside parens.
/// Writing never refuses: what has no faithful spelling is written as it
/// is and noted, so a renderer for people (`Display`) and a recorder for
/// the reader share one writer and only the latter asks
/// ([`Writer::finish`]).
pub struct Writer<W> {
    out: W,
    /// The next token is preceded by a space.
    spaced: bool,
    depth: usize,
    deepest: usize,
    unreadable: Option<String>,
}

impl<W: fmt::Write> Writer<W> {
    /// A writer at the start of `out`.
    pub fn new(out: W) -> Writer<W> {
        Writer {
            out,
            spaced: false,
            depth: 0,
            deepest: 0,
            unreadable: None,
        }
    }

    /// The text written and the deepest paren nesting in it — or, if
    /// there was one, the first thing written that the lexer would not
    /// read back as what was meant.
    pub fn finish(self) -> Result<(W, usize), String> {
        match self.unreadable {
            None => Ok((self.out, self.deepest)),
            Some(what) => Err(what),
        }
    }

    /// Note that something written will not read back as what was meant
    /// (also for callers whose grammar, not spelling, says so).
    pub fn refuse(&mut self, what: impl FnOnce() -> String) {
        if self.unreadable.is_none() {
            self.unreadable = Some(what());
        }
    }

    fn gap(&mut self) -> fmt::Result {
        if std::mem::replace(&mut self.spaced, true) {
            self.out.write_char(' ')?;
        }
        Ok(())
    }

    /// `(head` — a word of the language itself (`AND`, `assert-ind`), or
    /// none for a bare list.
    pub fn open(&mut self, head: &'static str) -> fmt::Result {
        self.gap()?;
        self.spaced = !head.is_empty();
        self.depth += 1;
        self.deepest = self.deepest.max(self.depth);
        self.out.write_char('(')?;
        self.out.write_str(head)
    }

    /// `)`.
    pub fn close(&mut self) -> fmt::Result {
        self.depth = self.depth.saturating_sub(1);
        self.spaced = true;
        self.out.write_char(')')
    }

    /// A name; refused unless [`is_symbol`].
    pub fn symbol(&mut self, name: &str) -> fmt::Result {
        if !is_symbol(name) {
            self.refuse(|| format!("{name:?} does not read back as a symbol"));
        }
        self.gap()?;
        self.out.write_str(name)
    }

    /// A host integer.
    pub(crate) fn int(&mut self, i: i64) -> fmt::Result {
        self.gap()?;
        write!(self.out, "{i}")
    }

    /// A host float, always with a decimal point so it reads back as a
    /// float; refused unless finite (`inf` and `NaN` read back as names).
    pub(crate) fn float(&mut self, v: f64) -> fmt::Result {
        self.gap()?;
        if !v.is_finite() {
            self.refuse(|| format!("the non-finite float {v} has no literal"));
        }
        if v.is_finite() && v.fract() == 0.0 {
            write!(self.out, "{v:.1}")
        } else {
            write!(self.out, "{v}")
        }
    }

    /// A host string: `"`, `\` and control characters escaped (by name
    /// where [`unescape`] has one, as `\u{hex}` otherwise), all else
    /// verbatim — a record stays on one line, any `String` reads back.
    pub(crate) fn string(&mut self, s: &str) -> fmt::Result {
        self.gap()?;
        self.out.write_char('"')?;
        for c in s.chars() {
            match ESCAPES.iter().find(|(_, plain)| *plain == c) {
                Some((name, _)) => write!(self.out, "\\{name}")?,
                None if c.is_control() => write!(self.out, "\\u{{{:x}}}", c as u32)?,
                None => self.out.write_char(c)?,
            }
        }
        self.out.write_char('"')
    }

    /// A host symbol, `'red`; refused unless a non-empty run of
    /// [`is_symbol_char`] characters.
    pub(crate) fn quoted_symbol(&mut self, s: &str) -> fmt::Result {
        if s.is_empty() || !s.chars().all(is_symbol_char) {
            self.refuse(|| format!("'{s} does not read back as a quoted symbol"));
        }
        self.gap()?;
        write!(self.out, "'{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `f` writes, and whether all of it reads back.
    fn written(f: impl FnOnce(&mut Writer<&mut String>) -> fmt::Result) -> (String, bool) {
        let mut text = String::new();
        let mut w = Writer::new(&mut text);
        f(&mut w).unwrap();
        let readable = w.finish().is_ok();
        (text, readable)
    }

    #[test]
    fn numbers_are_never_names() {
        assert_eq!(classify("42"), Atom::Int(42));
        assert_eq!(classify("+5"), Atom::Int(5));
        assert_eq!(classify("-0.25"), Atom::Float(-0.25));
        assert_eq!(classify("2e3"), Atom::Float(2000.0));
        assert_eq!(classify("1e999"), Atom::Float(f64::INFINITY));
        for name in [
            "Volvo-17", "v1.x", "inf", "NaN", "-", "+", "-x", "--5", ".5",
        ] {
            assert_eq!(classify(name), Atom::Symbol, "{name}");
            assert!(is_symbol(name), "{name}");
        }
        for not in [
            "", "17", "-7", "1.5", "1e999", "a b", "x)", "a;b", "?x", "a\"b",
        ] {
            assert!(!is_symbol(not), "{not:?}");
        }
        assert!(is_symbol("subsumes?"));
    }

    #[test]
    fn tokens_are_spaced_outside_parens_only() {
        let (text, ok) = written(|w| {
            w.open("FILLS")?;
            w.symbol("r")?;
            w.int(-4)?;
            w.open("")?;
            w.close()?;
            w.open("")?;
            w.symbol("a")?;
            w.close()?;
            w.symbol("_")?;
            w.close()
        });
        assert_eq!(text, "(FILLS r -4 () (a) _)");
        assert!(ok);
    }

    #[test]
    fn strings_escape_what_would_not_read_back() {
        let (text, ok) = written(|w| w.string("a \"b\" \\ \n\t\r\0 \u{1} \u{200b} é"));
        assert_eq!(text, "\"a \\\"b\\\" \\\\ \\n\\t\\r\\0 \\u{1} \u{200b} é\"");
        assert!(ok);
        // Printable ASCII is written byte for byte.
        assert_eq!(
            written(|w| w.string("Murray Hill's #1")).0,
            "\"Murray Hill's #1\""
        );
    }

    #[test]
    fn floats_keep_a_point_and_must_be_finite() {
        for (v, text) in [
            (2.0, "2.0"),
            (1.25, "1.25"),
            (-0.0, "-0.0"),
            (1e21, "1000000000000000000000.0"),
        ] {
            assert_eq!(written(|w| w.float(v)), (text.to_owned(), true));
            assert_eq!(classify(text), Atom::Float(v));
        }
        assert!(!written(|w| w.float(f64::NAN)).1);
        assert!(!written(|w| w.float(f64::INFINITY)).1);
    }

    #[test]
    fn unwritable_names_are_written_and_noted() {
        for name in ["", "a b", "17", "x)", "a;b"] {
            let (text, ok) = written(|w| w.symbol(name));
            assert_eq!(text, name);
            assert!(!ok, "{name:?}");
        }
        assert!(!written(|w| w.quoted_symbol("")).1);
        assert!(!written(|w| w.quoted_symbol("a?")).1);
        assert_eq!(written(|w| w.quoted_symbol("17")), ("'17".to_owned(), true));
    }

    #[test]
    fn depth_is_counted_as_written() {
        let mut w = Writer::new(String::new());
        for _ in 0..3 {
            w.open("").unwrap();
        }
        w.close().unwrap();
        w.open("").unwrap();
        assert_eq!(w.finish(), Ok(("((() (".into(), 3)));
    }
}
