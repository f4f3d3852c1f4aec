//! Snapshots: serializing a knowledge base as a CLASSIC command script.
//!
//! The paper's "single language, multiple roles" point (§6) extends
//! naturally to persistence: the DDL/DML command stream *is* the
//! serialization format. A snapshot is a script of `define-role`,
//! `define-concept`, `assert-rule`, `create-ind` and `assert-ind`
//! commands that, replayed against a fresh `Kb`, reconstructs the same
//! state — propagation is deterministic and monotone, so replaying the
//! *told* information rebuilds every *derived* fact.
//!
//! `TEST` functions are host-language closures and cannot be serialized;
//! a snapshot records the registered test names in a header comment, and
//! [`crate::replay`] requires them to be re-registered first (the same
//! contract the 1989 system had with its LISP environment).

use classic_core::error::Result;
use classic_kb::Kb;
use classic_lang::{Expr, Write};
use std::borrow::Cow;
use std::fmt::Write as _;

/// Append the one-line [record](Write::record) of `write` to `out`: every
/// line of a snapshot or segment body is written by the language's own
/// writer, exactly as the operation log's are.
fn push_record(kb: &Kb, write: Write<'_>, out: &mut String) -> Result<()> {
    out.push_str(&write.record(kb)?);
    out.push('\n');
    Ok(())
}

/// Render the schema half of a snapshot — the `;!tests:` contract
/// header, role/attribute declarations, concept definitions, and active
/// rules — as a replayable command script: the body of the segmented
/// format's *schema segment* (`docs/FORMAT.md` §5) and the opening
/// section of [`snapshot_to_string`], so the two cannot drift. Errs on a
/// definition the surface language cannot spell ([`Write::record`]).
pub(crate) fn render_schema_body(kb: &Kb) -> Result<String> {
    let mut out = String::new();
    let symbols = &kb.schema().symbols;
    // Required host test registrations, as a machine-readable comment.
    let tests: Vec<&str> = (0..)
        .map_while(|i| {
            let id = classic_core::TestId::from_index(i);
            kb.schema()
                .check_test(id)
                .ok()
                .map(|()| symbols.test_name(id))
        })
        .collect();
    if !tests.is_empty() {
        let _ = writeln!(out, ";!tests: {}", tests.join(" "));
    }
    // Roles (attributes distinguished), sorted by name so the snapshot
    // text is canonical regardless of interning order.
    let mut roles: Vec<(&str, bool)> = symbols
        .roles()
        .filter_map(|(role, name)| kb.schema().role_decl(role).map(|d| (name, d.attribute)))
        .collect();
    roles.sort();
    for (name, attribute) in roles {
        let write = if attribute {
            Write::DefineAttribute(name)
        } else {
            Write::DefineRole(name)
        };
        push_record(kb, write, &mut out)?;
    }
    // Concept definitions, in definition order (references only point
    // backwards, so replay succeeds).
    for cname in kb.schema().defined_concepts() {
        let told = kb
            .schema()
            .concept_told(cname)
            .expect("defined concept has a told form");
        let write = Write::DefineConcept(symbols.concept_name(cname), Cow::Borrowed(told));
        push_record(kb, write, &mut out)?;
    }
    // Rules (retired ones were retracted; compaction folds them away).
    for (_, rule) in kb.active_rules() {
        let antecedent = symbols.concept_name(rule.antecedent);
        let write = Write::AssertRule(antecedent, Cow::Borrowed(&rule.consequent));
        push_record(kb, write, &mut out)?;
    }
    Ok(out)
}

/// Append the `(create-ind …)` identity line for one individual.
pub(crate) fn render_ind_create(kb: &Kb, id: classic_kb::IndId, out: &mut String) -> Result<()> {
    let name = kb.schema().symbols.individual_name(kb.ind(id).name);
    push_record(kb, Write::CreateInd(name), out)
}

/// Append the `(assert-ind …)` lines for one individual's told facts, in
/// the order they were told (per-individual order is semantically
/// significant for `CLOSE`).
pub(crate) fn render_ind_told(kb: &Kb, id: classic_kb::IndId, out: &mut String) -> Result<()> {
    let name = kb.schema().symbols.individual_name(kb.ind(id).name);
    for told in kb.ind(id).told() {
        push_record(kb, Write::AssertInd(name, Cow::Borrowed(told)), out)?;
    }
    Ok(())
}

/// Render the complete state of a knowledge base as a command script.
///
/// This is the *monolithic* serialization: one script holding the whole
/// database. The segmented on-disk format (see `docs/FORMAT.md`) splits
/// the same content across a schema segment and fixed-budget individual
/// segments; this function remains as the in-memory canonical form, the
/// E12 ablation baseline, and the rebuild oracle used by tests.
///
/// ```
/// use classic_kb::Kb;
/// let mut kb = Kb::new();
/// kb.create_ind("Rocky").unwrap();
/// let script = classic_store::snapshot_to_string(&kb);
/// assert!(script.contains("(create-ind Rocky)"));
/// ```
///
/// # Panics
///
/// If `kb` holds something the surface language cannot spell — a name
/// that is not a symbol, a non-finite float ([`Write::record`]): there
/// is no script of it to return. A [`crate::DurableKb`]'s KB never does.
pub fn snapshot_to_string(kb: &Kb) -> String {
    fn script(kb: &Kb) -> Result<String> {
        let mut out = String::from("; CLASSIC snapshot (replayable command script)\n");
        out.push_str(&render_schema_body(kb)?);
        // Individuals: identities first (forward references in FILLS are
        // legal, but being explicit keeps the script order-insensitive),
        // then the told assertions.
        for id in kb.ind_ids() {
            render_ind_create(kb, id, &mut out)?;
        }
        for id in kb.ind_ids() {
            render_ind_told(kb, id, &mut out)?;
        }
        Ok(out)
    }
    script(kb).unwrap_or_else(|e| panic!("this knowledge base has no snapshot script: {e}"))
}

/// Replay a snapshot (or any command script) against a knowledge base.
/// Returns the number of commands executed.
///
/// If the script carries a `;!tests:` header (written by
/// [`snapshot_to_string`]), every named host test function must already
/// be registered on `kb` — test closures cannot be serialized, so the
/// header is the contract between snapshot writer and reader. A missing
/// registration fails fast here instead of surfacing later as a puzzling
/// `UndefinedTest` mid-replay.
pub fn replay(kb: &mut Kb, script: &str) -> Result<usize> {
    for line in script.lines() {
        if let Some(names) = line.strip_prefix(";!tests:") {
            for name in names.split_whitespace() {
                let registered = kb
                    .schema()
                    .symbols
                    .find_test(name)
                    .map(|t| kb.schema().check_test(t).is_ok())
                    .unwrap_or(false);
                if !registered {
                    return Err(classic_core::ClassicError::Malformed(format!(
                        "snapshot requires host test {name:?}; register it                          before replaying"
                    )));
                }
            }
        }
    }
    let outcomes = classic_lang::run_script(kb, script)?;
    Ok(outcomes.len())
}

/// Convenience: snapshot `kb`'s state and rebuild a fresh KB from it,
/// carrying over the registered test functions via `register_tests`.
pub fn roundtrip(kb: &Kb, register_tests: impl FnOnce(&mut Kb)) -> Result<Kb> {
    let script = snapshot_to_string(kb);
    let mut fresh = Kb::new();
    register_tests(&mut fresh);
    replay(&mut fresh, &script)?;
    Ok(fresh)
}

/// Canonicalize a rendered concept for comparison: the conjunct order
/// inside every `(AND …)` is an artifact of propagation order (it can
/// differ between a directly-executed history and a replayed one without
/// any semantic difference), so AND arguments are sorted recursively.
/// Text the reader refuses stays text.
fn up_to_and_order(text: String) -> std::result::Result<Expr, String> {
    fn sort_ands(e: &mut Expr) {
        match e {
            Expr::And(parts) => {
                parts.iter_mut().for_each(sort_ands);
                parts.sort();
            }
            Expr::All(_, inner) => sort_ands(inner),
            Expr::Primitive { parent, .. } | Expr::DisjointPrimitive { parent, .. } => {
                sort_ands(parent)
            }
            _ => {}
        }
    }
    let mut e = classic_lang::parse_expr(&text).map_err(|_| text)?;
    sort_ands(&mut e);
    Ok(e)
}

/// Pretty assertion helper used by tests and examples: do two KBs agree on
/// schema size, individuals, and every individual's derived description?
/// Descriptions are compared up to AND-conjunct order (via a recursive
/// canonicalizer that sorts `AND` arguments); everything else is
/// verbatim.
pub fn same_state(a: &Kb, b: &Kb) -> bool {
    if a.ind_count() != b.ind_count()
        || a.schema().concept_count() != b.schema().concept_count()
        || a.active_rules().count() != b.active_rules().count()
    {
        return false;
    }
    for id in a.ind_ids() {
        let an = a.schema().symbols.individual_name(a.ind(id).name);
        let Some(bn) = b.schema().symbols.find_individual(an) else {
            return false;
        };
        let Ok(bid) = b.ind_id(bn) else {
            return false;
        };
        // Compare derived descriptions via their rendered concepts (ids
        // may differ between the two symbol tables).
        let ac = a.ind(id).derived().to_concept(a.schema());
        let bc = b.ind(bid).derived().to_concept(b.schema());
        if up_to_and_order(ac.display(&a.schema().symbols).to_string())
            != up_to_and_order(bc.display(&b.schema().symbols).to_string())
        {
            return false;
        }
        if a.most_specific_concepts(id).len() != b.most_specific_concepts(bid).len() {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use classic_core::desc::Concept;
    use classic_core::schema::TestArg;

    #[test]
    fn snapshot_records_required_tests_and_replay_enforces_them() {
        let mut kb = Kb::new();
        kb.register_test(
            "even",
            |arg| matches!(arg, TestArg::Host(classic_core::HostValue::Int(i)) if i % 2 == 0),
        );
        kb.define_role("age").unwrap();
        let even = kb.schema().symbols.find_test("even").unwrap();
        let age = kb.schema().symbols.find_role("age").unwrap();
        kb.define_concept("EVEN-AGED", Concept::all(age, Concept::Test(even)))
            .unwrap();
        let script = snapshot_to_string(&kb);
        assert!(script.contains(";!tests: even"));
        // Replaying without the registration fails fast with a clear
        // message…
        let mut bare = Kb::new();
        let err = replay(&mut bare, &script).unwrap_err();
        assert!(err.to_string().contains("even"));
        // …and succeeds once registered.
        let mut ready = Kb::new();
        ready.register_test("even", |_| true);
        assert!(replay(&mut ready, &script).is_ok());
    }

    #[test]
    fn empty_kb_snapshot_is_replayable() {
        let kb = Kb::new();
        let script = snapshot_to_string(&kb);
        let mut fresh = Kb::new();
        assert_eq!(replay(&mut fresh, &script).unwrap(), 0);
    }

    #[test]
    fn and_conjunct_order_is_ignored_recursively() {
        assert_eq!(
            up_to_and_order("(AND CLASSIC-THING (CLOSE r2) (AT-MOST 1 r0))".into()),
            up_to_and_order("(AND CLASSIC-THING (AT-MOST 1 r0) (CLOSE r2))".into()),
        );
        assert_eq!(
            up_to_and_order("(ALL r (AND B A))".into()),
            up_to_and_order("(ALL r (AND A B))".into()),
        );
        // Non-AND structure is order-sensitive and preserved.
        assert_ne!(
            up_to_and_order("(FILLS r x y)".into()),
            up_to_and_order("(FILLS r y x)".into()),
        );
        assert_eq!(up_to_and_order("P0".into()), Ok(Expr::Name("P0".into())));
        // What the reader refuses is compared as the text it is.
        assert_eq!(up_to_and_order("(AND".into()), Err("(AND".into()));
    }

    #[test]
    fn same_state_detects_differences() {
        let mut a = Kb::new();
        a.define_role("r").unwrap();
        a.create_ind("X").unwrap();
        let mut b = Kb::new();
        b.define_role("r").unwrap();
        assert!(!same_state(&a, &b), "individual counts differ");
        b.create_ind("X").unwrap();
        assert!(same_state(&a, &b));
        let r = classic_core::RoleId::from_index(0);
        a.assert_ind("X", &Concept::AtLeast(1, r)).unwrap();
        assert!(!same_state(&a, &b), "derived descriptions differ");
    }
}
