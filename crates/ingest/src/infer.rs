//! Starter-TBox inference from value shapes.
//!
//! Per column, the analyzer profiles the observed operands and derives
//! candidate constraints:
//!
//! * `(ALL r T)` with `T` a built-in host concept (`INTEGER`, `FLOAT`,
//!   `NUMBER`, `STRING`, `SYMBOL`) or `CLASSIC-THING` for `@ref`
//!   columns;
//! * `(ALL r (ONE-OF v…))` when the column is a low-cardinality
//!   enumeration with repetition evidence;
//! * `(AT-MOST 1 r)` always (cells are single-valued);
//! * `(AT-LEAST 1 r)` when no row left the column missing.
//!
//! The type-conflict resolver widens before it drops: integers mixed
//! with floats widen to `NUMBER`; host values mixed with `@refs`, or
//! numbers mixed with strings/symbols, drop the `ALL` restriction
//! entirely (recorded as a note). All of this is *heuristic induction
//! from observed data* — the constraints are descriptions the sample
//! happens to satisfy, not guarantees about the domain; the soundness
//! caveats are normative in `docs/INGEST.md` §4.

use classic_lang::{Command, Expr, IndLit};
use std::collections::BTreeSet;

/// Enumerations larger than this are never inferred as `ONE-OF`.
pub const ONE_OF_CAP: usize = 8;

/// A `ONE-OF` needs at least this many observations per distinct value
/// on average (repetition evidence — 3 rows with 3 distinct values is a
/// key column, not an enumeration).
pub const ONE_OF_MIN_SUPPORT: usize = 2;

/// Observed shape of one column.
#[derive(Debug, Clone)]
pub struct ColumnProfile {
    /// The column's role name.
    pub role: String,
    /// Rows with a value in this column.
    pub present: usize,
    /// Rows without one.
    pub missing: usize,
    /// Host integers seen.
    pub ints: usize,
    /// Host floats seen.
    pub floats: usize,
    /// Host strings seen.
    pub strs: usize,
    /// Host symbols seen.
    pub syms: usize,
    /// `@Name` references seen.
    pub refs: usize,
    /// Distinct values; `None` once [`ONE_OF_CAP`] overflowed.
    pub distinct: Option<BTreeSet<IndLit>>,
}

impl ColumnProfile {
    fn new(role: &str) -> ColumnProfile {
        ColumnProfile {
            role: role.to_string(),
            present: 0,
            missing: 0,
            ints: 0,
            floats: 0,
            strs: 0,
            syms: 0,
            refs: 0,
            distinct: Some(BTreeSet::new()),
        }
    }

    fn observe(&mut self, value: Option<&IndLit>) {
        let Some(lit) = value else {
            self.missing += 1;
            return;
        };
        self.present += 1;
        match lit {
            IndLit::Name(_) => self.refs += 1,
            IndLit::Int(_) => self.ints += 1,
            IndLit::Float(_) => self.floats += 1,
            IndLit::Str(_) => self.strs += 1,
            IndLit::Sym(_) => self.syms += 1,
        }
        if let Some(set) = &mut self.distinct {
            set.insert(lit.clone());
            if set.len() > ONE_OF_CAP {
                self.distinct = None;
            }
        }
    }

    /// The widened value type for an `(ALL r T)` candidate, or `None`
    /// if the column is empty or the types are irreconcilable.
    pub fn value_type(&self) -> Option<&'static str> {
        if self.present == 0 {
            return None;
        }
        let host = self.ints + self.floats + self.strs + self.syms;
        if self.refs > 0 {
            return (host == 0).then_some("CLASSIC-THING");
        }
        match (self.ints, self.floats, self.strs, self.syms) {
            (_, 0, 0, 0) => Some("INTEGER"),
            (0, _, 0, 0) => Some("FLOAT"),
            (_, _, 0, 0) => Some("NUMBER"),
            (0, 0, _, 0) => Some("STRING"),
            (0, 0, 0, _) => Some("SYMBOL"),
            _ => None,
        }
    }

    /// The `ONE-OF` enumeration candidate, if the column qualifies:
    /// host values only, at most [`ONE_OF_CAP`] distinct, and at least
    /// [`ONE_OF_MIN_SUPPORT`] observations per distinct value.
    pub fn one_of(&self) -> Option<Vec<IndLit>> {
        let set = self.distinct.as_ref()?;
        if self.refs > 0 || set.is_empty() || self.present < set.len() * ONE_OF_MIN_SUPPORT {
            return None;
        }
        Some(set.iter().cloned().collect())
    }
}

/// Profile every column over the normalized rows (each row is
/// index-aligned with `roles`).
pub fn profile_columns(roles: &[String], rows: &[Vec<Option<IndLit>>]) -> Vec<ColumnProfile> {
    let mut profiles: Vec<ColumnProfile> = roles.iter().map(|r| ColumnProfile::new(r)).collect();
    for row in rows {
        for (col, profile) in profiles.iter_mut().enumerate() {
            profile.observe(row.get(col).and_then(|v| v.as_ref()));
        }
    }
    profiles
}

/// An inferred starter TBox: the commands the pipeline applies as DDL
/// (and renders, through the language's own writer, as the script
/// `--emit-tbox` writes for `classic-analyze`).
#[derive(Debug, Clone)]
pub struct InferredTbox {
    /// The entity concept's name.
    pub entity: String,
    /// One `define-role` per column, then the entity's `define-concept`.
    pub ddl: Vec<Command>,
    /// Human-readable notes: widened or dropped constraints.
    pub notes: Vec<String>,
}

/// Derive the starter TBox for `entity` from the column profiles.
pub fn infer_tbox(entity: &str, profiles: &[ColumnProfile]) -> InferredTbox {
    let mut notes = Vec::new();
    let mut ddl: Vec<Command> = (profiles.iter())
        .map(|p| Command::DefineRole(p.role.clone()))
        .collect();
    let mut parts = vec![Expr::Primitive {
        parent: Box::new(Expr::Name("THING".into())),
        index: entity.to_ascii_lowercase(),
    }];
    for p in profiles {
        let all = |inner| Expr::All(p.role.clone(), Box::new(inner));
        match (p.one_of(), p.value_type()) {
            (Some(values), _) => parts.push(all(Expr::OneOf(values))),
            (None, Some(ty)) => parts.push(all(Expr::Name(ty.into()))),
            (None, None) if p.present > 0 => notes.push(format!(
                "column {}: mixed value types ({} ints, {} floats, {} strings, \
                 {} symbols, {} refs) — no ALL restriction inferred",
                p.role, p.ints, p.floats, p.strs, p.syms, p.refs
            )),
            (None, None) => notes.push(format!(
                "column {}: no values observed — no ALL restriction inferred",
                p.role
            )),
        }
        parts.push(Expr::AtMost(1, p.role.clone()));
        if p.missing == 0 && p.present > 0 {
            parts.push(Expr::AtLeast(1, p.role.clone()));
        }
    }
    ddl.push(Command::DefineConcept(entity.into(), Expr::And(parts)));
    InferredTbox {
        entity: entity.to_string(),
        ddl,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit_rows(cols: &[&str], rows: &[&[Option<IndLit>]]) -> Vec<ColumnProfile> {
        let roles: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
        let rows: Vec<Vec<Option<IndLit>>> = rows.iter().map(|r| r.to_vec()).collect();
        profile_columns(&roles, &rows)
    }

    #[test]
    fn widening_and_conflicts() {
        let p = lit_rows(
            &["age", "score", "tag"],
            &[
                &[
                    Some(IndLit::Int(1)),
                    Some(IndLit::Int(2)),
                    Some(IndLit::Str("a".into())),
                ],
                &[
                    Some(IndLit::Int(3)),
                    Some(IndLit::Float(classic_core::F64(0.5))),
                    Some(IndLit::Int(7)),
                ],
            ],
        );
        assert_eq!(p[0].value_type(), Some("INTEGER"));
        assert_eq!(p[1].value_type(), Some("NUMBER")); // int ∪ float widens
        assert_eq!(p[2].value_type(), None); // string ∪ int drops
    }

    #[test]
    fn one_of_needs_low_cardinality_and_support() {
        let red = || Some(IndLit::Sym("red".into()));
        let blue = || Some(IndLit::Sym("blue".into()));
        let p = lit_rows(
            &["color"],
            &[&[red()], &[blue()], &[red()], &[blue()], &[red()]],
        );
        assert_eq!(
            p[0].one_of().unwrap(),
            [IndLit::Sym("blue".into()), IndLit::Sym("red".into())]
        );
        // Two rows, two distinct values: a key, not an enumeration.
        let p = lit_rows(&["id"], &[&[red()], &[blue()]]);
        assert_eq!(p[0].one_of(), None);
    }

    #[test]
    fn inferred_tbox_carries_bounds() {
        let p = lit_rows(
            &["age", "nick"],
            &[
                &[Some(IndLit::Int(30)), None],
                &[Some(IndLit::Int(40)), Some(IndLit::Str("Mo".into()))],
            ],
        );
        let tbox = infer_tbox("PERSON", &p);
        assert_eq!(tbox.ddl.len(), 3); // two roles + the concept
        let Some(Command::DefineConcept(_, Expr::And(parts))) = tbox.ddl.last() else {
            panic!("expected the entity's definition, got {:?}", tbox.ddl);
        };
        let all_age = Expr::All("age".into(), Box::new(Expr::Name("INTEGER".into())));
        assert!(parts.contains(&all_age), "{parts:?}");
        assert!(parts.contains(&Expr::AtLeast(1, "age".into())), "{parts:?}");
        assert!(
            !parts.contains(&Expr::AtLeast(1, "nick".into())),
            "{parts:?}"
        );
    }
}
