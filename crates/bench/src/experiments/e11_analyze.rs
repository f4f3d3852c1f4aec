//! E11 — static analyzer cost and catch rate.
//!
//! The analyzer (`classic-analyze`) re-normalizes every told definition
//! (prefix replay for provenance) and compares every rule pair, so its
//! cost should grow near-quadratically in the rule count and roughly
//! linearly-to-quadratically in schema size (the redundant-conjunct pass
//! re-normalizes each `AND` once per conjunct). This experiment measures
//! that cost on the E2 layered schema generator, and validates the two
//! acceptance properties:
//!
//! * **catch rate** — schemas with deliberately seeded incoherent
//!   definitions must have *every* seeded concept flagged `A001`
//!   (asserted inline, not just reported);
//! * **no false errors** — on the clean generated schemas and the §4
//!   crime database, the analyzer must report zero error-severity
//!   diagnostics (warnings are legitimate: the generator does produce
//!   the occasional redundant conjunct).

use crate::experiments::{ns_per, time};
use crate::workload::crime::{self, CrimeConfig};
use crate::workload::schema_gen::{generate_schema, SchemaGenConfig};
use classic_analyze::{analyze, Code, Severity, Span};
use classic_core::desc::Concept;
use classic_kb::Kb;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::fmt::Write as _;

/// Fraction of definitions to seed with an incoherence.
const SEED_RATE: f64 = 0.1;

pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== E11: static analyzer cost and catch rate ===");
    let _ = writeln!(
        out,
        "claim: the lint pass is cheap relative to schema construction, and"
    );
    let _ = writeln!(
        out,
        "catches 100% of seeded incoherent definitions with zero false errors"
    );
    let _ = writeln!(
        out,
        "{:>9} {:>7} {:>9} {:>11} {:>8} {:>8} {:>10}",
        "concepts", "rules", "seeded", "µs/analyze", "µs/def", "caught", "falseErr"
    );

    for concepts in [100usize, 200, 400] {
        let cfg = SchemaGenConfig {
            concepts,
            ..SchemaGenConfig::default()
        };

        // Clean run: zero error-severity findings allowed.
        let mut clean_kb = generate_schema(&cfg).build_kb();
        add_rules(&mut clean_kb, concepts / 20);
        let (clean_report, t_clean) = time(|| analyze(&clean_kb));
        let false_errors = clean_report.count(Severity::Error);
        assert_eq!(
            false_errors,
            0,
            "false error positives on a clean generated schema:\n{}",
            clean_report.render()
        );

        // Seeded run: corrupt ~10% of the defined concepts and require a
        // 100% A001 catch rate on exactly those names.
        let (mut seeded_kb, seeded_names) = build_seeded(&cfg);
        add_rules(&mut seeded_kb, concepts / 20);
        let (report, _) = time(|| analyze(&seeded_kb));
        let flagged: HashSet<&str> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::IncoherentConcept)
            .filter_map(|d| match &d.span {
                Span::Concept(name) => Some(name.as_str()),
                _ => None,
            })
            .collect();
        let caught = seeded_names
            .iter()
            .filter(|n| flagged.contains(n.as_str()))
            .count();
        assert_eq!(
            caught,
            seeded_names.len(),
            "analyzer missed seeded incoherent concepts"
        );

        let us_analyze = ns_per(t_clean, 1) / 1000.0;
        let us_per_def = ns_per(t_clean, concepts as u64) / 1000.0;
        let _ = writeln!(
            out,
            "{:>9} {:>7} {:>9} {:>11.1} {:>8.2} {:>7}/{} {:>10}",
            concepts,
            clean_report.rules_checked,
            seeded_names.len(),
            us_analyze,
            us_per_def,
            caught,
            seeded_names.len(),
            false_errors,
        );
    }

    // The paper's §4 crime database (with its rules) must also lint clean.
    let crime = crime::build(&CrimeConfig::default());
    let kb = crime.kb;
    let (report, t) = time(|| analyze(&kb));
    assert_eq!(
        report.count(Severity::Error),
        0,
        "false error positives on the §4 crime schema:\n{}",
        report.render()
    );
    let _ = writeln!(
        out,
        "crime db (§4): {} concepts, {} rules, {} error(s), {} warning(s), {:.1} µs",
        report.concepts_checked,
        report.rules_checked,
        report.count(Severity::Error),
        report.count(Severity::Warning),
        ns_per(t, 1) / 1000.0
    );
    let _ = writeln!(
        out,
        "expected shape: µs/def grows slowly with schema size; caught is"
    );
    let _ = writeln!(
        out,
        "always N/N and falseErr always 0 (both are asserted, not just shown)."
    );
    out
}

/// Generate the layered schema but corrupt ~[`SEED_RATE`] of the *defined*
/// (non-primitive) concepts with a cardinality contradiction. Returns the
/// KB plus the names that must be flagged.
fn build_seeded(cfg: &SchemaGenConfig) -> (Kb, Vec<String>) {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA001);
    let schema = generate_schema(cfg);
    let mut kb = Kb::new();
    let mut role_ids = Vec::new();
    for r in &schema.roles {
        role_ids.push(kb.define_role(r).expect("fresh role"));
    }
    let mut seeded = Vec::new();
    for (name, def) in &schema.definitions {
        let corrupt = matches!(def, Concept::And(_)) && rng.gen_bool(SEED_RATE);
        let def = if corrupt {
            let r = role_ids[rng.gen_range(0..role_ids.len())];
            seeded.push(name.clone());
            Concept::and([def.clone(), Concept::AtLeast(5, r), Concept::AtMost(2, r)])
        } else {
            def.clone()
        };
        kb.define_concept(name, def)
            .expect("seeded definition still normalizes (to ⊥)");
    }
    (kb, seeded)
}

/// Attach a few forward-chaining rules to exercise the rule passes: each
/// rule fires on a generated concept and concludes a cardinality bound.
fn add_rules(kb: &mut Kb, n: usize) {
    let roles: Vec<_> = (0..3)
        .filter_map(|i| kb.schema().symbols.find_role(&format!("r{i}")))
        .collect();
    if roles.is_empty() {
        return;
    }
    let names: Vec<String> = kb
        .schema()
        .defined_concepts()
        .map(|c| kb.schema().symbols.concept_name(c).to_owned())
        .collect();
    for (added, (i, name)) in names.iter().enumerate().step_by(7).take(n).enumerate() {
        let r = roles[i % roles.len()];
        kb.assert_rule(name, Concept::AtMost(40 + added as u32, r))
            .expect("rule on a defined concept");
    }
}
