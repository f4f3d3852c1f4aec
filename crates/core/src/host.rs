//! Host individuals and the THING / CLASSIC-THING / HOST-THING layering.
//!
//! The paper (§3.2) builds a fundamental distinction into the language:
//! "every individual known to the database needs to be either a *host*
//! individual — a valid value from the space of values of the host
//! implementation language (LISP or C in our case) — or a regular (CLASSIC)
//! individual. Host individuals cannot have roles, but are otherwise first
//! class citizens — they can be grouped by enumerated concepts".
//!
//! Our host language is Rust; the host value space we expose is integers,
//! floats, strings, and symbols (the paper's "numbers, strings"). The
//! built-in concepts `THING`, `CLASSIC-THING`, `HOST-THING`, `NUMBER`,
//! `INTEGER`, `FLOAT`, `STRING`, and `SYMBOL` (Appendix A lists the first
//! three as built-in primitives; `INTEGER` is noted in §2.1.4 as
//! "built-in to the LISP implementation") are represented by the
//! [`Layer`] lattice rather than by primitive atoms, so layer reasoning
//! is a constant-time comparison.

use crate::lexical::Writer;
use std::fmt;

/// A totally ordered `f64` wrapper so host floats can live in the sorted
/// sets the engine uses throughout (`f64` itself is not `Ord`).
/// Ordering/equality use [`f64::total_cmp`] semantics; hashing uses the
/// bit pattern. `NaN` is representable but has no literal syntax.
#[derive(Debug, Clone, Copy)]
pub struct F64(pub f64);

impl PartialEq for F64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}

impl Eq for F64 {}

impl PartialOrd for F64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for F64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl std::hash::Hash for F64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl fmt::Display for F64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Writer::new(f).float(self.0)
    }
}

/// A host individual: a value of the host implementation language.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HostValue {
    /// A host integer, e.g. `4`.
    Int(i64),
    /// A host float, e.g. `1.5` (the paper's "numbers" include these).
    Float(F64),
    /// A host string, e.g. `"Murray Hill"`.
    Str(String),
    /// A host symbol, e.g. `'red`. Distinct from strings, as in LISP.
    Sym(String),
}

impl HostValue {
    /// Convenience constructor for floats.
    pub fn float(v: f64) -> HostValue {
        HostValue::Float(F64(v))
    }

    /// The most specific built-in host class this value belongs to.
    pub fn class(&self) -> HostClass {
        match self {
            HostValue::Int(_) => HostClass::Integer,
            HostValue::Float(_) => HostClass::Float,
            HostValue::Str(_) => HostClass::Str,
            HostValue::Sym(_) => HostClass::Sym,
        }
    }
}

impl HostValue {
    /// Write this value as the literal the lexer reads back to it.
    pub(crate) fn write<W: fmt::Write>(&self, w: &mut Writer<W>) -> fmt::Result {
        match self {
            HostValue::Int(i) => w.int(*i),
            HostValue::Float(v) => w.float(v.0),
            HostValue::Str(s) => w.string(s),
            HostValue::Sym(s) => w.quoted_symbol(s),
        }
    }
}

impl fmt::Display for HostValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(&mut Writer::new(f))
    }
}

/// Built-in classes of host individuals. `NUMBER` is the abstract parent
/// of `INTEGER` and `FLOAT` (see [`HostClass::subsumes`]); the other
/// classes are mutually disjoint leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HostClass {
    /// Host numbers in general — the abstract parent of the two below.
    Number,
    /// Host integers (`42`), the paper's built-in `INTEGER`.
    Integer,
    /// Host floats (`1.5`), the built-in `FLOAT`.
    Float,
    /// Host strings (`"Murray Hill"`), the built-in `STRING`.
    Str,
    /// Host symbols (`'red`), the built-in `SYMBOL`.
    Sym,
}

impl HostClass {
    /// The built-in concept name for this host class.
    pub(crate) fn name(self) -> &'static str {
        match self {
            HostClass::Number => "NUMBER",
            HostClass::Integer => "INTEGER",
            HostClass::Float => "FLOAT",
            HostClass::Str => "STRING",
            HostClass::Sym => "SYMBOL",
        }
    }

    /// Host-class subsumption: `NUMBER ⊒ INTEGER`, `NUMBER ⊒ FLOAT`,
    /// everything subsumes itself, everything else is disjoint.
    pub fn subsumes(self, other: HostClass) -> bool {
        self == other
            || (self == HostClass::Number && matches!(other, HostClass::Integer | HostClass::Float))
    }

    /// Least upper bound within the host classes, if one exists below
    /// `HOST-THING` itself.
    pub(crate) fn join(self, other: HostClass) -> Option<HostClass> {
        if self.subsumes(other) {
            Some(self)
        } else if other.subsumes(self) {
            Some(other)
        } else if matches!(
            (self, other),
            (HostClass::Integer, HostClass::Float) | (HostClass::Float, HostClass::Integer)
        ) {
            Some(HostClass::Number)
        } else {
            None
        }
    }
}

/// The built-in top-level partition a description lives in.
///
/// Forms a small lattice:
///
/// ```text
///                 THING
///                /     \
///       CLASSIC-THING  HOST-THING
///                     /     |    \
///                NUMBER  STRING  SYMBOL
///                /    \
///          INTEGER    FLOAT
/// ```
///
/// `CLASSIC-THING` and `HOST-THING` are disjoint, as are the host classes
/// among themselves; conjoining incompatible layers yields ⊥.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Layer {
    /// `THING`: everything.
    #[default]
    Thing,
    /// `CLASSIC-THING`: regular individuals, which may have roles.
    Classic,
    /// `HOST-THING`, optionally narrowed to one built-in host class.
    Host(Option<HostClass>),
}

impl Layer {
    /// Does `self` subsume `other` in the layer lattice?
    pub fn subsumes(self, other: Layer) -> bool {
        match (self, other) {
            (Layer::Thing, _) => true,
            (Layer::Classic, Layer::Classic) => true,
            (Layer::Host(None), Layer::Host(_)) => true,
            (Layer::Host(Some(a)), Layer::Host(Some(b))) => a.subsumes(b),
            _ => false,
        }
    }

    /// Greatest lower bound; `None` means the meet is empty (⊥).
    pub(crate) fn meet(self, other: Layer) -> Option<Layer> {
        if self.subsumes(other) {
            Some(other)
        } else if other.subsumes(self) {
            Some(self)
        } else {
            None
        }
    }

    /// Least upper bound.
    pub(crate) fn join(self, other: Layer) -> Layer {
        if self.subsumes(other) {
            self
        } else if other.subsumes(self) {
            other
        } else {
            match (self, other) {
                (Layer::Host(Some(a)), Layer::Host(Some(b))) => Layer::Host(a.join(b)),
                (Layer::Host(_), Layer::Host(_)) => Layer::Host(None),
                _ => Layer::Thing,
            }
        }
    }

    /// The built-in concept name for this layer.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Layer::Thing => "THING",
            Layer::Classic => "CLASSIC-THING",
            Layer::Host(None) => "HOST-THING",
            Layer::Host(Some(c)) => c.name(),
        }
    }

    /// Resolve a built-in concept name, if it is one.
    pub fn from_name(name: &str) -> Option<Layer> {
        Some(match name {
            "THING" => Layer::Thing,
            "CLASSIC-THING" => Layer::Classic,
            "HOST-THING" => Layer::Host(None),
            "NUMBER" => Layer::Host(Some(HostClass::Number)),
            "INTEGER" => Layer::Host(Some(HostClass::Integer)),
            "FLOAT" => Layer::Host(Some(HostClass::Float)),
            "STRING" => Layer::Host(Some(HostClass::Str)),
            "SYMBOL" => Layer::Host(Some(HostClass::Sym)),
            _ => return None,
        })
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Layer; 8] = [
        Layer::Thing,
        Layer::Classic,
        Layer::Host(None),
        Layer::Host(Some(HostClass::Number)),
        Layer::Host(Some(HostClass::Integer)),
        Layer::Host(Some(HostClass::Float)),
        Layer::Host(Some(HostClass::Str)),
        Layer::Host(Some(HostClass::Sym)),
    ];

    #[test]
    fn thing_is_top() {
        for l in ALL {
            assert!(Layer::Thing.subsumes(l));
            assert_eq!(Layer::Thing.meet(l), Some(l));
            assert_eq!(Layer::Thing.join(l), Layer::Thing);
        }
    }

    #[test]
    fn classic_and_host_are_disjoint() {
        assert_eq!(Layer::Classic.meet(Layer::Host(None)), None);
        assert_eq!(
            Layer::Classic.meet(Layer::Host(Some(HostClass::Integer))),
            None
        );
        assert_eq!(Layer::Classic.join(Layer::Host(None)), Layer::Thing);
    }

    #[test]
    fn host_classes_are_mutually_disjoint() {
        let int = Layer::Host(Some(HostClass::Integer));
        let s = Layer::Host(Some(HostClass::Str));
        assert_eq!(int.meet(s), None);
        assert_eq!(int.join(s), Layer::Host(None));
        assert!(Layer::Host(None).subsumes(int));
    }

    #[test]
    fn number_is_the_parent_of_integer_and_float() {
        let num = Layer::Host(Some(HostClass::Number));
        let int = Layer::Host(Some(HostClass::Integer));
        let flt = Layer::Host(Some(HostClass::Float));
        assert!(num.subsumes(int));
        assert!(num.subsumes(flt));
        assert!(!int.subsumes(flt));
        assert_eq!(int.join(flt), num);
        assert_eq!(num.meet(int), Some(int));
        assert_eq!(int.meet(flt), None);
        assert_eq!(HostValue::float(1.5).class(), HostClass::Float);
    }

    #[test]
    fn float_total_order_and_display() {
        use crate::host::F64;
        let mut set = std::collections::BTreeSet::new();
        set.insert(HostValue::float(1.5));
        set.insert(HostValue::float(1.5));
        set.insert(HostValue::float(-0.5));
        assert_eq!(set.len(), 2);
        assert_eq!(HostValue::float(2.0).to_string(), "2.0");
        assert_eq!(HostValue::float(1.25).to_string(), "1.25");
        assert_eq!(F64(1.0), F64(1.0));
        assert!(F64(-1.0) < F64(1.0));
    }

    #[test]
    fn subsumption_is_reflexive_and_antisymmetric() {
        for a in ALL {
            assert!(a.subsumes(a));
            for b in ALL {
                if a != b && a.subsumes(b) {
                    assert!(!b.subsumes(a));
                }
            }
        }
    }

    #[test]
    fn meet_is_commutative() {
        for a in ALL {
            for b in ALL {
                assert_eq!(a.meet(b), b.meet(a));
            }
        }
    }

    #[test]
    fn value_classes() {
        assert_eq!(HostValue::Int(3).class(), HostClass::Integer);
        assert_eq!(HostValue::float(3.5).class(), HostClass::Float);
        assert_eq!(HostValue::Str("x".into()).class(), HostClass::Str);
        assert_eq!(HostValue::Sym("red".into()).class(), HostClass::Sym);
    }

    #[test]
    fn builtin_names_round_trip() {
        for l in ALL {
            assert_eq!(Layer::from_name(l.name()), Some(l));
        }
        assert_eq!(Layer::from_name("CAR"), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(HostValue::Int(-4).to_string(), "-4");
        assert_eq!(HostValue::Str("a b".into()).to_string(), "\"a b\"");
        assert_eq!(HostValue::Sym("red".into()).to_string(), "'red");
    }
}
