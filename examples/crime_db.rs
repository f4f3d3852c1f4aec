//! The paper's §4 law-enforcement example, end to end.
//!
//! "A typical situation where one starts out with an incomplete view of
//! the actual events, and incrementally fleshes out the details of the
//! crime": open-world evidence accumulation, on-the-fly schema extension
//! (the `heard-speaking` clue), co-reference deduction for domestic
//! crimes, heuristic rules about typical suspects, and the three answer
//! modes (known / possible / intensional description).
//!
//! Run with: `cargo run --example crime_db`

use classic::lang::{run_script, AspectValue, Outcome};
use classic::{Concept, Kb, MarkedQuery, Query};

fn main() {
    let mut kb = Kb::new();

    // ---- schema: CRIME and DOMESTIC-CRIME exactly as in §4 --------------
    run_script(
        &mut kb,
        r#"
        (define-role perpetrator)
        (define-role victim)
        (define-attribute site)
        (define-attribute domicile)
        (define-role jobs)
        (define-role typical-suspect)

        (define-concept PERSON (PRIMITIVE THING person))
        (define-concept ADULT  (PRIMITIVE PERSON adult))
        (define-concept CRIME
          (PRIMITIVE (AND (AT-LEAST 1 perpetrator)
                          (ALL perpetrator PERSON)
                          (AT-LEAST 1 victim)
                          (AT-LEAST 1 site)
                          (AT-MOST 1 site))
                     crime))
        ; "a crime perpetrated at the domicile of the (single) perpetrator"
        (define-concept DOMESTIC-CRIME
          (AND CRIME (AT-MOST 1 perpetrator)
               (SAME-AS (site) (perpetrator domicile))))
        ; "domestic criminals are typically adults, and have no jobs"
        (assert-rule DOMESTIC-CRIME
          (ALL typical-suspect (AND ADULT (AT-MOST 0 jobs))))
        "#,
    )
    .expect("schema");

    // DOMESTIC-CRIME has *exactly one* perpetrator — inferred, not stated.
    let dc = kb
        .schema()
        .symbols
        .find_concept("DOMESTIC-CRIME")
        .expect("defined");
    let perp = kb.schema().symbols.find_role("perpetrator").expect("role");
    let nf = kb.schema().concept_nf(dc).expect("defined");
    let rr = nf.roles.get(&perp).expect("restricted");
    println!(
        "inferred: DOMESTIC-CRIME has between {} and {:?} perpetrators",
        rr.at_least, rr.at_most
    );
    assert_eq!((rr.at_least, rr.at_most), (1, Some(1)));

    // ---- crime23: evidence accumulates (§4) ------------------------------
    run_script(
        &mut kb,
        r#"
        (create-ind crime23)
        (assert-ind crime23 CRIME)
        ; A witness saw a group of criminals leaving…
        (assert-ind crime23 (AT-LEAST 2 perpetrator))
        "#,
    )
    .expect("evidence");
    // …and they were overheard speaking Ruritanian. The schema grows on
    // the fly: "it seems hard to anticipate all possible kinds of clues".
    kb.define_role("heard-speaking")
        .expect("new role, new clue");
    run_script(
        &mut kb,
        "(assert-ind crime23
            (ALL perpetrator (ALL heard-speaking (ONE-OF Ruritanian))))",
    )
    .expect("clue recorded");

    // crime23 cannot be domestic (two perpetrators ≥ 2 > 1).
    let err = run_script(&mut kb, "(assert-ind crime23 DOMESTIC-CRIME)")
        .expect_err("contradicts AT-LEAST 2");
    println!("crime23 as DOMESTIC-CRIME rejected: {err}");

    // ---- crime15: the co-reference deduction ------------------------------
    run_script(
        &mut kb,
        r#"
        (create-ind crime15)
        (assert-ind crime15 CRIME)
        (assert-ind crime15 (FILLS perpetrator Wife-1))
        (assert-ind crime15 (FILLS site Home-1))
        (assert-ind crime15 DOMESTIC-CRIME)
        "#,
    )
    .expect("domestic crime recorded");
    // SAME-AS (site) (perpetrator domicile) derived Wife-1's domicile.
    let out = run_script(&mut kb, "(ind-aspect Wife-1 FILLS domicile)").expect("aspect");
    println!(
        "derived: Wife-1's domicile = {:?}",
        out.last().expect("one")
    );
    assert_eq!(
        out.last().expect("one"),
        &Outcome::Aspect(AspectValue::Values(vec!["Home-1".into()]))
    );

    // ---- answer modes (§3.5.3) --------------------------------------------
    let crime = Concept::Name(kb.schema().symbols.find_concept("CRIME").expect("c"));
    let q = Concept::and([crime, Concept::AtLeast(1, perp)]);
    let known = Query::concept(q.clone())
        .run(&kb)
        .expect("query")
        .into_known()
        .expect("known answer")
        .known
        .len();
    let poss = Query::concept(q)
        .possible()
        .run(&kb)
        .expect("query")
        .into_possible()
        .expect("possible answer")
        .len();
    println!("crimes with ≥1 perpetrator: known={known} possible={poss}");
    // Both crimes are *known* answers although crime23's perpetrators are
    // still unidentified — existence is part of CRIME's definition.
    assert_eq!(known, 2);

    // Intensional answer: what do we know about crime15's typical suspect,
    // "even when their properties are not fully known in the database"?
    let suspect = kb
        .schema()
        .symbols
        .find_role("typical-suspect")
        .expect("role");
    let crime15 = kb.schema().symbols.find_individual("crime15").expect("i");
    let q = MarkedQuery {
        concept: Concept::one_of([classic::IndRef::Classic(crime15)]),
        marker: vec![suspect],
    };
    let desc = Query::marked(q)
        .description()
        .run(&kb)
        .expect("description")
        .into_description()
        .expect("intensional answer");
    println!(
        "necessary description of crime15's typical suspect:\n  {}",
        desc.to_concept(kb.schema()).display(&kb.schema().symbols)
    );
    // The rule contributed ADULT and joblessness.
    let adult = kb.schema().symbols.find_concept("ADULT").expect("c");
    let adult_nf = kb.schema().concept_nf(adult).expect("defined");
    assert!(classic::core::subsumes(adult_nf, &desc));

    // ---- durable epilogue: the case file, persisted -----------------------
    // The same instrumentation covers the storage layer. Persisting the
    // open cases through a `DurableKb` makes every told fact a durable
    // log append; the store's series land in the same per-KB registry
    // that `(obs-stats)` renders.
    let dir = std::env::temp_dir().join(format!("classic-crime-db-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let mut case_file =
        classic::store::DurableKb::open(dir.join("case-file.classic"), |_| {}).expect("store");
    case_file.define_role("perpetrator").expect("role");
    case_file.define_role("typical-suspect").expect("role");
    case_file
        .define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))
        .expect("concept");
    let symbols = &case_file.kb().expect("fully hydrated").schema().symbols;
    let person = symbols.find_concept("PERSON").expect("c");
    let perp = symbols.find_role("perpetrator").expect("r");
    let suspect_of = symbols.find_role("typical-suspect").expect("r");
    case_file
        .define_concept(
            "CRIME",
            Concept::and([
                Concept::AtLeast(1, perp),
                Concept::all(perp, Concept::Name(person)),
            ]),
        )
        .expect("concept");
    case_file
        .assert_rule("CRIME", Concept::AtLeast(1, suspect_of))
        .expect("rule");
    let crime = case_file
        .kb()
        .expect("fully hydrated")
        .schema()
        .symbols
        .find_concept("CRIME")
        .expect("c");
    for i in 0..4 {
        let name = format!("case-{i}");
        case_file.create_ind(&name).expect("ind");
        case_file
            .assert_ind(&name, &Concept::Name(crime))
            .expect("told");
        let wife = format!("suspect-{i}");
        case_file.create_ind(&wife).expect("ind");
        let filler = classic::IndRef::Classic(
            case_file
                .kb()
                .expect("hydrated")
                .schema()
                .symbols
                .find_individual(&wife)
                .expect("just created"),
        );
        case_file
            .assert_ind(&name, &Concept::Fills(perp, vec![filler]))
            .expect("told");
    }

    // ---- what the engine did, by the numbers ------------------------------
    // Every hot path above left a metric trail; `(obs-stats)` in the REPL
    // prints the same exposition. The durable KB's registry shows the
    // store-layer series alongside the reasoning ones.
    let out = run_script(&mut kb, "(obs-stats)").expect("obs");
    if let Some(Outcome::Description(prom)) = out.last() {
        println!("\nengine metrics (Prometheus exposition):");
        for line in prom.lines().filter(|l| !l.starts_with('#')) {
            println!("  {line}");
        }
    }
    let snap = case_file.kb().expect("fully hydrated").metrics().snapshot();
    let prom = classic::obs::render_prometheus(&snap);
    let json = classic::obs::render_json(&snap);
    println!("\ncase-file store metrics (Prometheus exposition):");
    for line in prom.lines().filter(|l| !l.starts_with('#')) {
        println!("  {line}");
    }
    // Acceptance: a real workload moves subsumption, propagation, and
    // store-append series, visible in both exposition formats.
    for series in [
        "classic_subsume_tests_total",
        "classic_propagation_steps_total",
        "classic_store_appends_total",
    ] {
        let v = snap
            .counters
            .get(series)
            .unwrap_or_else(|| panic!("{series} not registered"))
            .1;
        assert!(v > 0, "{series} must be nonzero after the workload");
        assert!(prom.contains(&format!("{series} {v}")), "{series} in text");
        assert!(
            json.contains(&format!("\"{series}\":{v}")),
            "{series} in json"
        );
    }
    println!("crime_db OK");
}
