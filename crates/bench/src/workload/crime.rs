//! The law-enforcement workload of paper §4 (experiments E6 and E7).
//!
//! "A typical situation where one starts out with an incomplete view of
//! the actual events, and incrementally fleshes out the details": crimes
//! accumulate evidence assertion by assertion, and the measurements track
//! how much the database *derives* per told fact — recognition,
//! `SAME-AS` filler derivation, closure deductions, and the
//! `typical-suspect` heuristic rule.

use classic_core::desc::{Concept, IndRef};
use classic_kb::{AssertReport, Kb};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the crime-DB generator.
#[derive(Debug, Clone)]
pub struct CrimeConfig {
    pub crimes: usize,
    /// Fraction of crimes asserted to be domestic (site = perpetrator's
    /// domicile), driving co-reference propagation.
    pub domestic_fraction: f64,
    /// Install the "domestic criminals are typically jobless adults" rule.
    pub with_rules: bool,
    pub seed: u64,
}

impl Default for CrimeConfig {
    fn default() -> Self {
        CrimeConfig {
            crimes: 200,
            domestic_fraction: 0.4,
            with_rules: true,
            seed: 0xC814E5,
        }
    }
}

/// The generated KB plus the per-assertion reports (E6's metric source).
pub struct CrimeKb {
    pub kb: Kb,
    pub reports: Vec<AssertReport>,
    pub told_assertions: usize,
}

/// Build the §4 schema: CRIME, DOMESTIC-CRIME, ADULT, and the heuristic
/// rule when requested.
pub fn build_schema(kb: &mut Kb, with_rules: bool) {
    kb.define_role("perpetrator").expect("fresh");
    kb.define_role("victim").expect("fresh");
    kb.define_attribute("site").expect("fresh");
    kb.define_attribute("domicile").expect("fresh");
    kb.define_role("heard-speaking").expect("fresh");
    kb.define_role("jobs").expect("fresh");
    kb.define_role("typical-suspect").expect("fresh");
    let perp = kb.schema().symbols.find_role("perpetrator").expect("r");
    let victim = kb.schema().symbols.find_role("victim").expect("r");
    let site = kb.schema().symbols.find_role("site").expect("r");
    let domicile = kb.schema().symbols.find_role("domicile").expect("r");
    let jobs = kb.schema().symbols.find_role("jobs").expect("r");
    let suspect = kb.schema().symbols.find_role("typical-suspect").expect("r");

    kb.define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))
        .expect("fresh");
    let person = Concept::Name(kb.schema().symbols.find_concept("PERSON").expect("c"));
    kb.define_concept("ADULT", Concept::primitive(person.clone(), "adult"))
        .expect("fresh");
    let adult = Concept::Name(kb.schema().symbols.find_concept("ADULT").expect("c"));
    kb.define_concept(
        "CRIME",
        Concept::primitive(
            Concept::and([
                Concept::AtLeast(1, perp),
                Concept::all(perp, person),
                Concept::AtLeast(1, victim),
                Concept::AtLeast(1, site),
                Concept::AtMost(1, site),
            ]),
            "crime",
        ),
    )
    .expect("fresh");
    let crime = Concept::Name(kb.schema().symbols.find_concept("CRIME").expect("c"));
    kb.define_concept(
        "DOMESTIC-CRIME",
        Concept::and([
            crime,
            Concept::AtMost(1, perp),
            Concept::SameAs(vec![site], vec![perp, domicile]),
        ]),
    )
    .expect("fresh");
    if with_rules {
        // §4: "domestic criminals are typically adults, and have no jobs".
        kb.assert_rule(
            "DOMESTIC-CRIME",
            Concept::all(suspect, Concept::and([adult, Concept::AtMost(0, jobs)])),
        )
        .expect("rule applies cleanly to an empty DB");
    }
}

/// Generate a populated crime database, recording every assertion report.
pub fn build(cfg: &CrimeConfig) -> CrimeKb {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut kb = Kb::new();
    build_schema(&mut kb, cfg.with_rules);
    let perp = kb.schema().symbols.find_role("perpetrator").expect("r");
    let victim = kb.schema().symbols.find_role("victim").expect("r");
    let site = kb.schema().symbols.find_role("site").expect("r");
    let crime_name = kb.schema().symbols.find_concept("CRIME").expect("c");
    let dc_name = kb
        .schema()
        .symbols
        .find_concept("DOMESTIC-CRIME")
        .expect("c");
    let person_name = kb.schema().symbols.find_concept("PERSON").expect("c");

    let mut reports = Vec::new();
    let mut told = 0usize;
    let tell = |kb: &mut Kb,
                name: &str,
                c: &Concept,
                reports: &mut Vec<AssertReport>,
                told: &mut usize| {
        *told += 1;
        reports.push(
            kb.assert_ind(name, c)
                .expect("generated facts are coherent"),
        );
    };

    for i in 0..cfg.crimes {
        let cname = format!("crime-{i}");
        kb.create_ind(&cname).expect("fresh ind");
        tell(
            &mut kb,
            &cname,
            &Concept::Name(crime_name),
            &mut reports,
            &mut told,
        );
        // A victim is always known (not necessarily a person! §4).
        let v = IndRef::Classic(kb.schema_mut().symbols.individual(&format!("victim-{i}")));
        tell(
            &mut kb,
            &cname,
            &Concept::Fills(victim, vec![v]),
            &mut reports,
            &mut told,
        );
        let domestic = rng.gen_bool(cfg.domestic_fraction);
        if domestic {
            // Perpetrator and site known; DOMESTIC-CRIME derives the
            // perpetrator's domicile via SAME-AS.
            let p = format!("suspect-{i}");
            let pref = IndRef::Classic(kb.schema_mut().symbols.individual(&p));
            tell(
                &mut kb,
                &cname,
                &Concept::Fills(perp, vec![pref]),
                &mut reports,
                &mut told,
            );
            tell(
                &mut kb,
                &p,
                &Concept::Name(person_name),
                &mut reports,
                &mut told,
            );
            let home = IndRef::Classic(kb.schema_mut().symbols.individual(&format!("home-{i}")));
            tell(
                &mut kb,
                &cname,
                &Concept::Fills(site, vec![home]),
                &mut reports,
                &mut told,
            );
            tell(
                &mut kb,
                &cname,
                &Concept::Name(dc_name),
                &mut reports,
                &mut told,
            );
        } else {
            // Open case: number of perpetrators only bounded below.
            let n = rng.gen_range(1..=3);
            tell(
                &mut kb,
                &cname,
                &Concept::AtLeast(n, perp),
                &mut reports,
                &mut told,
            );
        }
    }
    CrimeKb {
        kb,
        reports,
        told_assertions: told,
    }
}

impl CrimeKb {
    /// Total derived consequences across all assertions (E6 numerator).
    pub fn total_derived(&self) -> u64 {
        self.reports
            .iter()
            .map(|r| r.fills_propagated + r.corefs_derived + r.rules_fired + r.reclassified)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domestic_crimes_derive_domiciles() {
        let crime_kb = build(&CrimeConfig {
            crimes: 40,
            domestic_fraction: 1.0,
            ..CrimeConfig::default()
        });
        let kb = &crime_kb.kb;
        let domicile = kb.schema().symbols.find_role("domicile").expect("r");
        // Every suspect's domicile was derived via co-reference.
        let mut derived = 0;
        for id in kb.ind_ids() {
            if !kb.ind(id).fillers(domicile).is_empty() {
                derived += 1;
            }
        }
        assert_eq!(derived, 40);
        assert!(crime_kb.total_derived() >= 40);
    }

    #[test]
    fn rule_fires_on_domestic_crimes_only() {
        let crime_kb = build(&CrimeConfig {
            crimes: 30,
            domestic_fraction: 0.5,
            with_rules: true,
            seed: 7,
        });
        let kb = &crime_kb.kb;
        let dc = kb
            .schema()
            .symbols
            .find_concept("DOMESTIC-CRIME")
            .expect("c");
        let n_domestic = kb.instances_of(dc).expect("ok").len();
        assert!(n_domestic > 0);
        let fired: u64 = crime_kb.reports.iter().map(|r| r.rules_fired).sum();
        assert_eq!(fired as usize, n_domestic);
    }

    #[test]
    fn open_cases_have_unbounded_perpetrators() {
        let crime_kb = build(&CrimeConfig {
            crimes: 20,
            domestic_fraction: 0.0,
            ..CrimeConfig::default()
        });
        let kb = &crime_kb.kb;
        let perp = kb.schema().symbols.find_role("perpetrator").expect("r");
        let crime = kb.schema().symbols.find_concept("CRIME").expect("c");
        for id in kb.instances_of(crime).expect("ok") {
            let rr = kb.ind(id).derived().role(perp);
            assert!(rr.at_least >= 1);
            assert!(
                !rr.closed,
                "open case must not have a closed perpetrator role"
            );
        }
    }
}
