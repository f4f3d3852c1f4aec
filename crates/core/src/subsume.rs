//! Structural subsumption over normal forms.
//!
//! `concept-subsumes[C1, C2]` "is true if and only if in every state any
//! individual satisfying C2 is necessarily (i.e., by definition) also an
//! instance of C1" (paper §3.5.1). Because normalization has already
//! unfolded definitions, merged conjunctions and propagated constructor
//! interactions, subsumption is a single structural pass: every piece of
//! the subsumer must be accounted for in the subsumee. The pass visits
//! each subsumer node at most once against the corresponding subsumee
//! node, giving the paper's §5 complexity: "the subsumption relationship
//! is established in time proportional to the sizes of the two concepts"
//! (experiment E1 measures this product bound).
//!
//! Deliberately (§5): there is no `OR`/`NOT`, `ONE-OF` is compared by
//! individual identity only, `TEST` and primitive atoms are identity-only,
//! and `SAME-AS` implication uses the bounded path congruence of
//! [`crate::same_as`].

use crate::normal::NormalForm;

/// Does `big` subsume `small`? (Every instance of `small` is necessarily
/// an instance of `big`.)
///
/// ```
/// use classic_core::{normalize, subsumes, Concept, Schema};
///
/// let mut schema = Schema::new();
/// let r = schema.define_role("wheel")?;
/// let two = normalize(&Concept::AtLeast(2, r), &mut schema)?;
/// let three = normalize(&Concept::AtLeast(3, r), &mut schema)?;
/// assert!(subsumes(&two, &three)); // ≥3 wheels is a kind of ≥2 wheels
/// assert!(!subsumes(&three, &two));
/// # Ok::<(), classic_core::ClassicError>(())
/// ```
pub fn subsumes(big: &NormalForm, small: &NormalForm) -> bool {
    // ⊥ is subsumed by everything; only ⊥ subsumes ⊥.
    if small.is_incoherent() {
        return true;
    }
    if big.is_incoherent() {
        return false;
    }
    // Layer lattice.
    if !big.layer.subsumes(small.layer) {
        return false;
    }
    // Primitive and test atoms: necessary conditions with unspecified
    // differentia; the subsumee must carry every atom the subsumer does.
    if !big.prims.is_subset(&small.prims) {
        return false;
    }
    if !big.tests.is_subset(&small.tests) {
        return false;
    }
    // Enumerations: (ONE-OF S1) ⊒ D only if D is itself enumerated inside
    // S1 (identity-based, §2.2: "inferences concerning the equivalence of
    // concepts are affected only by the identity of such individuals").
    if let Some(s1) = &big.one_of {
        match &small.one_of {
            Some(s2) => {
                if !s2.is_subset(s1) {
                    return false;
                }
            }
            None => return false,
        }
    }
    // Role restrictions. A host-layer subsumee can have no role fillers
    // at all ("host individuals cannot have roles", §3.2), so every role
    // behaves as closed and empty: upper bounds, closure and value
    // restrictions hold vacuously, while demands for fillers fail.
    let small_is_host = matches!(small.layer, crate::host::Layer::Host(_));
    for (&r, rr1) in &big.roles {
        let rr2 = small.roles.get(&r);
        let (min2, max2, closed2, fillers2, all2) = if small_is_host {
            (0, 0, true, None, None)
        } else {
            match rr2 {
                Some(rr2) => (
                    rr2.min_count(),
                    rr2.max_count(),
                    rr2.closed,
                    Some(&rr2.fillers),
                    rr2.all.as_deref(),
                ),
                None => (0, u32::MAX, false, None, None),
            }
        };
        if rr1.at_least > min2 {
            return false;
        }
        if let Some(m1) = rr1.at_most {
            if max2 > m1 {
                return false;
            }
        }
        if rr1.closed && !closed2 {
            return false;
        }
        if !rr1.fillers.is_empty() {
            match fillers2 {
                Some(f2) => {
                    if !rr1.fillers.is_subset(f2) {
                        return false;
                    }
                }
                None => return false,
            }
        }
        if let Some(all1) = &rr1.all {
            // A role that can have no fillers satisfies any ALL vacuously.
            if max2 == 0 {
                continue;
            }
            match all2 {
                Some(all2) => {
                    if !subsumes(all1, all2) {
                        return false;
                    }
                }
                None => return false,
            }
        }
    }
    // Co-reference constraints: each of the subsumer's pairs must follow
    // from the subsumee's path congruence.
    if !big.same_as.implied_by(&small.same_as) {
        return false;
    }
    true
}

/// Are the two concepts equivalent (mutual subsumption)?
///
/// "Two concepts are equivalent if and only if they subsume each other"
/// (§3.5.1). Structural equality of normal forms is a sound fast path.
pub fn equivalent(a: &NormalForm, b: &NormalForm) -> bool {
    a == b || (subsumes(a, b) && subsumes(b, a))
}

/// Are the two concepts provably disjoint? (Their conjunction is ⊥.)
/// Used for the "possible answers" computation under the open-world
/// assumption: an individual *might* satisfy a query unless its derived
/// description is disjoint from it.
pub fn disjoint(a: &NormalForm, b: &NormalForm, schema: &crate::schema::Schema) -> bool {
    let mut meet = a.clone();
    meet.conjoin(b, schema);
    meet.is_incoherent()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::{Concept, IndRef};
    use crate::normal::normalize;
    use crate::schema::Schema;
    use crate::symbol::RoleId;

    struct Fix {
        schema: Schema,
        r: RoleId,
    }

    fn fix() -> Fix {
        let mut schema = Schema::new();
        let r = schema.define_role("thing-driven").unwrap();
        schema
            .define_concept("CAR", Concept::primitive(Concept::thing(), "car"))
            .unwrap();
        schema
            .define_concept(
                "EXPENSIVE-THING",
                Concept::primitive(Concept::thing(), "expensive"),
            )
            .unwrap();
        Fix { schema, r }
    }

    fn nf(fix: &mut Fix, c: &Concept) -> NormalForm {
        normalize(c, &fix.schema).unwrap()
    }

    fn name(fix: &mut Fix, n: &str) -> Concept {
        Concept::Name(fix.schema.symbols.concept(n))
    }

    #[test]
    fn thing_subsumes_everything() {
        let mut f = fix();
        let _r = f.r;
        let car = name(&mut f, "CAR");
        let top = nf(&mut f, &Concept::thing());
        let carnf = nf(&mut f, &car);
        assert!(subsumes(&top, &carnf));
        assert!(!subsumes(&carnf, &top));
    }

    #[test]
    fn conjunction_is_below_conjuncts() {
        let mut f = fix();
        let _r = f.r;
        let car = name(&mut f, "CAR");
        let exp = name(&mut f, "EXPENSIVE-THING");
        let both = Concept::and([car.clone(), exp.clone()]);
        let car_nf = nf(&mut f, &car);
        let exp_nf = nf(&mut f, &exp);
        let both_nf = nf(&mut f, &both);
        assert!(subsumes(&car_nf, &both_nf));
        assert!(subsumes(&exp_nf, &both_nf));
        assert!(!subsumes(&both_nf, &car_nf));
    }

    #[test]
    fn paper_all_conjunction_equivalence() {
        // (AND (ALL r CAR) (ALL r EXPENSIVE-THING))
        //   ≡ (ALL r (AND CAR EXPENSIVE-THING))          — §2.2
        let mut f = fix();
        let r = f.r;
        let car = name(&mut f, "CAR");
        let exp = name(&mut f, "EXPENSIVE-THING");
        let lhs = Concept::and([Concept::all(r, car.clone()), Concept::all(r, exp.clone())]);
        let rhs = Concept::all(r, Concept::and([car, exp]));
        let l = nf(&mut f, &lhs);
        let rr = nf(&mut f, &rhs);
        assert_eq!(l, rr);
        assert!(equivalent(&l, &rr));
    }

    #[test]
    fn paper_one_of_intersection_equivalence() {
        // (ALL r (AND (ONE-OF Ford-1 Volvo-2 Toyota-3)
        //             (ONE-OF Volvo-2 Toyota-3 VW-4)))
        //   ≡ (AND (ALL r (ONE-OF Volvo-2 Toyota-3)) (AT-MOST 2 r)) — §2.2
        let mut f = fix();
        let r = f.r;
        let ford = IndRef::Classic(f.schema.symbols.individual("Ford-1"));
        let volvo = IndRef::Classic(f.schema.symbols.individual("Volvo-2"));
        let toyota = IndRef::Classic(f.schema.symbols.individual("Toyota-3"));
        let vw = IndRef::Classic(f.schema.symbols.individual("VW-4"));
        let lhs = Concept::all(
            r,
            Concept::and([
                Concept::one_of([ford, volvo.clone(), toyota.clone()]),
                Concept::one_of([volvo.clone(), toyota.clone(), vw]),
            ]),
        );
        let rhs = Concept::and([
            Concept::all(r, Concept::one_of([volvo, toyota])),
            Concept::AtMost(2, r),
        ]);
        let l = nf(&mut f, &lhs);
        let rr = nf(&mut f, &rhs);
        assert_eq!(l, rr);
        assert!(equivalent(&l, &rr));
    }

    #[test]
    fn at_least_orders_numerically() {
        let mut f = fix();
        let r = f.r;
        let two = nf(&mut f, &Concept::AtLeast(2, r));
        let three = nf(&mut f, &Concept::AtLeast(3, r));
        assert!(subsumes(&two, &three));
        assert!(!subsumes(&three, &two));
    }

    #[test]
    fn at_most_orders_inversely() {
        let mut f = fix();
        let r = f.r;
        let two = nf(&mut f, &Concept::AtMost(2, r));
        let three = nf(&mut f, &Concept::AtMost(3, r));
        assert!(subsumes(&three, &two));
        assert!(!subsumes(&two, &three));
    }

    #[test]
    fn all_is_covariant() {
        let mut f = fix();
        let r = f.r;
        let car = name(&mut f, "CAR");
        let exp = name(&mut f, "EXPENSIVE-THING");
        let all_car = nf(&mut f, &Concept::all(r, car.clone()));
        let all_both = nf(&mut f, &Concept::all(r, Concept::and([car, exp])));
        assert!(subsumes(&all_car, &all_both));
        assert!(!subsumes(&all_both, &all_car));
    }

    #[test]
    fn all_vacuous_under_at_most_zero() {
        let mut f = fix();
        let r = f.r;
        let car = name(&mut f, "CAR");
        let all_car = nf(&mut f, &Concept::all(r, car));
        let none = nf(&mut f, &Concept::AtMost(0, r));
        // Something with no fillers trivially drives only CARs.
        assert!(subsumes(&all_car, &none));
    }

    #[test]
    fn bottom_is_subsumed_by_everything() {
        let mut f = fix();
        let r = f.r;
        let bot = nf(
            &mut f,
            &Concept::and([Concept::AtLeast(2, r), Concept::AtMost(1, r)]),
        );
        assert!(bot.is_incoherent());
        let car = name(&mut f, "CAR");
        let car_nf = nf(&mut f, &car);
        assert!(subsumes(&car_nf, &bot));
        assert!(!subsumes(&bot, &car_nf));
        assert!(subsumes(&bot, &bot));
    }

    #[test]
    fn fills_entails_at_least() {
        let mut f = fix();
        let r = f.r;
        let v = IndRef::Classic(f.schema.symbols.individual("Volvo-17"));
        let w = IndRef::Classic(f.schema.symbols.individual("Saab-1"));
        let fills = nf(&mut f, &Concept::Fills(r, vec![v, w]));
        let two = nf(&mut f, &Concept::AtLeast(2, r));
        assert!(subsumes(&two, &fills));
        let three = nf(&mut f, &Concept::AtLeast(3, r));
        assert!(!subsumes(&three, &fills));
    }

    #[test]
    fn close_with_fills_entails_at_most() {
        let mut f = fix();
        let r = f.r;
        let v = IndRef::Classic(f.schema.symbols.individual("Volvo-17"));
        let d = nf(
            &mut f,
            &Concept::and([Concept::Fills(r, vec![v]), Concept::Close(r)]),
        );
        let one = nf(&mut f, &Concept::AtMost(1, r));
        assert!(subsumes(&one, &d));
        // And conversely, AT-MOST met by fillers implies closure (§3.3):
        // (AND (FILLS r V) (AT-MOST 1 r)) ≡ (AND (FILLS r V) (CLOSE r)).
        let v2 = IndRef::Classic(f.schema.symbols.individual("Volvo-17"));
        let d2 = nf(
            &mut f,
            &Concept::and([Concept::Fills(r, vec![v2.clone()]), Concept::AtMost(1, r)]),
        );
        assert!(d2.roles[&r].closed);
        let d3 = nf(
            &mut f,
            &Concept::and([Concept::Fills(r, vec![v2]), Concept::Close(r)]),
        );
        assert_eq!(d2, d3);
        assert!(equivalent(&d2, &d3));
        // A bare (CLOSE r) concept denotes "r has no fillers at all":
        // closure with no known fillers pins the role empty.
        let closed = nf(&mut f, &Concept::Close(r));
        let none = nf(&mut f, &Concept::AtMost(0, r));
        assert_eq!(closed, none);
    }

    #[test]
    fn same_as_implication() {
        let mut f = fix();
        let _r = f.r;
        let a = f.schema.define_attribute("driver").unwrap();
        let b = f.schema.define_attribute("payer").unwrap();
        let c = f.schema.define_attribute("owner").unwrap();
        let strong = nf(
            &mut f,
            &Concept::and([
                Concept::SameAs(vec![a], vec![b]),
                Concept::SameAs(vec![b], vec![c]),
            ]),
        );
        let weak = nf(&mut f, &Concept::SameAs(vec![a], vec![c]));
        assert!(subsumes(&weak, &strong));
        assert!(!subsumes(&strong, &weak));
    }

    #[test]
    fn disjoint_primitives_conjoin_to_bottom() {
        let mut f = fix();
        let _r = f.r;
        f.schema
            .define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))
            .unwrap();
        let person = f.schema.symbols.find_concept("PERSON").unwrap();
        f.schema
            .define_concept(
                "MALE",
                Concept::disjoint_primitive(Concept::Name(person), "gender", "male"),
            )
            .unwrap();
        f.schema
            .define_concept(
                "FEMALE",
                Concept::disjoint_primitive(Concept::Name(person), "gender", "female"),
            )
            .unwrap();
        let male = name(&mut f, "MALE");
        let female = name(&mut f, "FEMALE");
        let both = nf(&mut f, &Concept::and([male.clone(), female.clone()]));
        assert!(both.is_incoherent());
        let m = nf(&mut f, &male);
        let fe = nf(&mut f, &female);
        assert!(disjoint(&m, &fe, &f.schema));
    }

    #[test]
    fn disjoint_detects_one_of_clash() {
        let mut f = fix();
        let _r = f.r;
        let a = IndRef::Classic(f.schema.symbols.individual("A"));
        let b = IndRef::Classic(f.schema.symbols.individual("B"));
        let only_a = nf(&mut f, &Concept::one_of([a]));
        let only_b = nf(&mut f, &Concept::one_of([b]));
        assert!(disjoint(&only_a, &only_b, &f.schema));
        assert!(!disjoint(&only_a, &only_a, &f.schema));
    }

    #[test]
    fn tests_are_identity_only() {
        let mut f = fix();
        let _r = f.r;
        let t1 = f.schema.register_test("even", |_| true);
        let t2 = f.schema.register_test("positive", |_| true);
        let a = nf(&mut f, &Concept::Test(t1));
        let b = nf(&mut f, &Concept::Test(t2));
        let ab = nf(
            &mut f,
            &Concept::and([Concept::Test(t1), Concept::Test(t2)]),
        );
        assert!(subsumes(&a, &ab));
        assert!(subsumes(&b, &ab));
        assert!(!subsumes(&a, &b));
        assert!(equivalent(&a, &nf(&mut f, &Concept::Test(t1))));
    }

    #[test]
    fn subsumption_is_a_preorder() {
        // Spot-check reflexivity + transitivity on a family of concepts.
        let mut f = fix();
        let r = f.r;
        let car = name(&mut f, "CAR");
        let exp = name(&mut f, "EXPENSIVE-THING");
        let cs = [
            Concept::thing(),
            car.clone(),
            exp.clone(),
            Concept::and([car.clone(), exp.clone()]),
            Concept::all(r, car.clone()),
            Concept::and([Concept::all(r, car), Concept::AtLeast(1, r)]),
        ];
        let nfs: Vec<_> = cs.iter().map(|c| nf(&mut f, c)).collect();
        for a in &nfs {
            assert!(subsumes(a, a));
            for b in &nfs {
                for c in &nfs {
                    if subsumes(a, b) && subsumes(b, c) {
                        assert!(subsumes(a, c));
                    }
                }
            }
        }
    }
}
