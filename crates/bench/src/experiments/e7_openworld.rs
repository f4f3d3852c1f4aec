//! E7 — open-world vs closed-world answers.
//!
//! Paper §3.2: "we do not make the 'closed-world' assumption that a
//! relationship does not hold unless we know of it", and §3.5.3:
//! "different kinds of answers to queries can be considered: sets of
//! individuals that are known to satisfy the query, sets of individuals
//! that might satisfy the query…".
//!
//! This experiment exports the §4 crime database to its relational view
//! (`classic-rel`, exactly the paper's §3.5.2 construction) and compares
//! three answer sets for each question:
//!
//! * **CW** — the conjunctive query under the closed world (relational
//!   baseline);
//! * **known** — CLASSIC's provable answers;
//! * **possible** — CLASSIC's open-world upper bound.
//!
//! The headline divergence: every CRIME is *known* to have at least one
//! perpetrator (it is part of CRIME's definition) even when no
//! perpetrator tuple exists — the closed-world view loses those answers.

use crate::workload::crime::{build, CrimeConfig};
use crate::workload::software::{build as build_sw, SoftwareConfig};
use classic_core::desc::Concept;
use classic_rel::{export_kb, Atom, ConjunctiveQuery, DatalogRule, Program, Term};
use std::fmt::Write as _;

pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== E7: open-world vs closed-world answer sets ============"
    );
    let _ = writeln!(
        out,
        "paper claim (§1/§3.2): partial knowledge needs answers beyond the"
    );
    let _ = writeln!(out, "closed-world extension");
    let _ = writeln!(
        out,
        "{:>7} {:<34} {:>7} {:>7} {:>9} {:>9}",
        "crimes", "query", "CW", "known", "possible", "lost-by-CW"
    );
    for crimes in [200usize, 1_000, 4_000] {
        let cfg = CrimeConfig {
            crimes,
            domestic_fraction: 0.4,
            ..CrimeConfig::default()
        };
        let mut ckb = build(&cfg);
        let db = export_kb(&ckb.kb);
        let perp = ckb.kb.schema().symbols.find_role("perpetrator").expect("r");
        let crime = Concept::Name(ckb.kb.schema().symbols.find_concept("CRIME").expect("c"));

        // Q1: crimes with at least one perpetrator.
        let q1_classic = Concept::and([crime.clone(), Concept::AtLeast(1, perp)]);
        let q1_cw = ConjunctiveQuery::new(
            &["x"],
            vec![
                Atom::new("concept:CRIME", vec![Term::var("x")]),
                Atom::new("role:perpetrator", vec![Term::var("x"), Term::var("y")]),
            ],
        );
        report_row(
            &mut out,
            crimes,
            "crimes with ≥1 perpetrator",
            &mut ckb.kb,
            &q1_classic,
            &q1_cw,
            &db,
        );

        // Q2: domestic crimes (single perpetrator, site known).
        let dc = Concept::Name(
            ckb.kb
                .schema()
                .symbols
                .find_concept("DOMESTIC-CRIME")
                .expect("c"),
        );
        let q2_cw = ConjunctiveQuery::new(
            &["x"],
            vec![Atom::new("concept:DOMESTIC-CRIME", vec![Term::var("x")])],
        );
        report_row(
            &mut out,
            crimes,
            "domestic crimes",
            &mut ckb.kb,
            &dc,
            &q2_cw,
            &db,
        );

        // Q3: crimes with at most one perpetrator — provable only via
        // bounds/closure; CW can merely count stored tuples, which under
        // the open world *overcounts* certainty.
        let q3_classic = Concept::and([crime, Concept::AtMost(1, perp)]);
        // Closed-world rendering: crimes whose stored perpetrator tuples
        // number ≤ 1 — i.e., every crime without two distinct fillers.
        let cw_at_most_1 = cw_at_most_one_perp(&db);
        let known = classic_query::Query::concept(q3_classic.clone())
            .run(&ckb.kb)
            .expect("query")
            .into_known()
            .expect("known mode")
            .known
            .len();
        let poss = classic_query::Query::concept(q3_classic.clone())
            .possible()
            .run(&ckb.kb)
            .expect("query")
            .into_possible()
            .expect("possible mode")
            .len();
        let _ = writeln!(
            out,
            "{:>7} {:<34} {:>7} {:>7} {:>9} {:>9}",
            crimes,
            "crimes with ≤1 perpetrator",
            cw_at_most_1,
            known,
            poss,
            format!("+{}", cw_at_most_1.saturating_sub(known)),
        );
    }
    // -- the same join, asked of both engines ------------------------------
    // The paper's planned "more powerful and integrated query language"
    // (§3.5.2) exists as certain-answer conjunctive queries over the KB;
    // the identical join over the relational export runs closed-world.
    // Membership atoms let the KB-side join see *derived* knowledge
    // (existence from CRIME's definition) that no stored tuple carries.
    {
        let ckb = build(&CrimeConfig {
            crimes: 1_000,
            domestic_fraction: 0.4,
            ..CrimeConfig::default()
        });
        let db = export_kb(&ckb.kb);
        let perp = ckb.kb.schema().symbols.find_role("perpetrator").expect("r");
        let crime = Concept::Name(ckb.kb.schema().symbols.find_concept("CRIME").expect("c"));
        // Certain answers: crimes provably having a perpetrator (join
        // phrased as a membership atom over a concept expression).
        let kbq = classic_query::KbQuery::new(
            &["x"],
            vec![classic_query::KbAtom::IsA(
                classic_query::KbTerm::var("x"),
                Concept::and([crime, Concept::AtLeast(1, perp)]),
            )],
        );
        let certain = classic_query::answer(&ckb.kb, &kbq).expect("query").len();
        let cw = ConjunctiveQuery::new(
            &["x"],
            vec![
                Atom::new("concept:CRIME", vec![Term::var("x")]),
                Atom::new("role:perpetrator", vec![Term::var("x"), Term::var("y")]),
            ],
        )
        .evaluate(&db)
        .len();
        let _ = writeln!(out);
        let _ = writeln!(out, "-- identical join, two engines (1000 crimes) --");
        let _ = writeln!(
            out,
            "KB conjunctive query (certain answers): {certain}; relational CQ (closed world): {cw}"
        );
    }

    // -- complementarity with deductive databases (§1/§6.2) -------------
    // The paper's foil: Datalog can recurse where CLASSIC cannot, and
    // CLASSIC proves existence where Datalog (closed world) cannot.
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "-- deductive-database complementarity (Datalog foil) --"
    );
    let sw = build_sw(&SoftwareConfig {
        modules: 30,
        functions: 300,
        ..SoftwareConfig::default()
    });
    let db = export_kb(&sw.kb);
    // Transitive closure over imports: expressible in Datalog, not in
    // CLASSIC's (deliberately) recursion-free concept language.
    let program = Program::new(vec![
        DatalogRule::new(
            Atom::new("reach", vec![Term::var("x"), Term::var("y")]),
            vec![Atom::new(
                "role:imports",
                vec![Term::var("x"), Term::var("y")],
            )],
        ),
        DatalogRule::new(
            Atom::new("reach", vec![Term::var("x"), Term::var("z")]),
            vec![
                Atom::new("reach", vec![Term::var("x"), Term::var("y")]),
                Atom::new("role:imports", vec![Term::var("y"), Term::var("z")]),
            ],
        ),
    ]);
    let derived = program.evaluate(&db);
    let direct = db.relation_or_empty("role:imports", 2).len();
    let reach = derived.relation("reach").map_or(0, |r| r.len());
    let _ = writeln!(
        out,
        "imports edges: {direct}; Datalog transitive closure: {reach}          (inexpressible as a CLASSIC concept — no recursion, by design §5)"
    );
    let _ = writeln!(
        out,
        "conversely: CLASSIC's AT-LEAST answers above (Q1) have no Datalog"
    );
    let _ = writeln!(
        out,
        "derivation — closed-world rules cannot prove unnamed existence."
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "expected shape: known ⊆ possible always; CW misses perpetrator-"
    );
    let _ = writeln!(
        out,
        "existence answers (Q1: CW < known) and overclaims certainty where"
    );
    let _ = writeln!(
        out,
        "roles are merely unrecorded (Q3: CW > known; the open cases are"
    );
    let _ = writeln!(out, "only *possibly* single-perpetrator).");
    out
}

fn report_row(
    out: &mut String,
    crimes: usize,
    label: &str,
    kb: &mut classic_kb::Kb,
    classic_q: &Concept,
    cw_q: &ConjunctiveQuery,
    db: &classic_rel::Database,
) {
    let cw = cw_q.evaluate(db).len();
    let known = classic_query::Query::concept(classic_q.clone())
        .run(kb)
        .expect("query")
        .into_known()
        .expect("known mode")
        .known
        .len();
    let poss = classic_query::Query::concept(classic_q.clone())
        .possible()
        .run(kb)
        .expect("query")
        .into_possible()
        .expect("possible mode")
        .len();
    assert!(known <= poss, "known answers must be a subset of possible");
    let _ = writeln!(
        out,
        "{:>7} {:<34} {:>7} {:>7} {:>9} {:>9}",
        crimes,
        label,
        cw,
        known,
        poss,
        format!("-{}", known.saturating_sub(cw)),
    );
}

/// Closed-world count of crimes with at most one stored perpetrator tuple.
fn cw_at_most_one_perp(db: &classic_rel::Database) -> usize {
    let crimes = db.relation_or_empty("concept:CRIME", 1);
    let perps = db.relation_or_empty("role:perpetrator", 2);
    crimes
        .iter()
        .filter(|c| {
            let subject = &c[0];
            perps.iter().filter(|t| &t[0] == subject).count() <= 1
        })
        .count()
}
