//! Unit tests for normalization — the §2.2 canonicalization machinery.
//!
//! Split into its own file because the coverage is broad: every
//! constructor interaction, every clash source, and the canonicality
//! guarantees structural equality relies on.

use crate::desc::{Concept, IndRef};
use crate::error::{Clash, ClassicError};
use crate::host::{HostClass, HostValue, Layer};
use crate::normal::{conjoin_expression, normalize, NormalForm};
use crate::schema::Schema;
use crate::symbol::RoleId;

struct Fix {
    schema: Schema,
    r: RoleId,
    s: RoleId,
}

fn fix() -> Fix {
    let mut schema = Schema::new();
    let r = schema.define_role("r").unwrap();
    let s = schema.define_role("s").unwrap();
    schema
        .define_concept("CAR", Concept::primitive(Concept::thing(), "car"))
        .unwrap();
    Fix { schema, r, s }
}

fn nf(f: &mut Fix, c: &Concept) -> NormalForm {
    normalize(c, &f.schema).unwrap()
}

fn ind(f: &mut Fix, name: &str) -> IndRef {
    IndRef::Classic(f.schema.symbols.individual(name))
}

// ---- basics ---------------------------------------------------------------

#[test]
fn thing_normalizes_to_top() {
    let mut f = fix();
    assert!(nf(&mut f, &Concept::thing()).is_top());
    assert!(nf(&mut f, &Concept::And(vec![])).is_top());
}

#[test]
fn and_is_flattened_order_insensitive_and_idempotent() {
    let mut f = fix();
    let r = f.r;
    let a = Concept::AtLeast(1, r);
    let b = Concept::AtMost(5, r);
    let n1 = nf(&mut f, &Concept::and([a.clone(), b.clone()]));
    let n2 = nf(&mut f, &Concept::and([b.clone(), a.clone()]));
    let n3 = nf(
        &mut f,
        &Concept::and([a.clone(), Concept::and([b.clone(), a.clone()])]),
    );
    assert_eq!(n1, n2);
    assert_eq!(n1, n3);
}

#[test]
fn normalization_is_idempotent_through_to_concept() {
    // normalize ∘ to_concept ∘ normalize = normalize
    let mut f = fix();
    let r = f.r;
    let v = ind(&mut f, "V");
    let c = Concept::and([
        Concept::AtLeast(1, r),
        Concept::all(r, Concept::one_of([v])),
        Concept::AtMost(7, f.s),
    ]);
    let n1 = nf(&mut f, &c);
    let rendered = n1.to_concept(&f.schema);
    let n2 = nf(&mut f, &rendered);
    assert_eq!(n1, n2);
}

// ---- cardinality interactions ----------------------------------------------

#[test]
fn bounds_merge_to_tightest() {
    let mut f = fix();
    let r = f.r;
    let n = nf(
        &mut f,
        &Concept::and([
            Concept::AtLeast(1, r),
            Concept::AtLeast(3, r),
            Concept::AtMost(9, r),
            Concept::AtMost(5, r),
        ]),
    );
    let rr = &n.roles[&r];
    assert_eq!(rr.at_least, 3);
    assert_eq!(rr.at_most, Some(5));
}

#[test]
fn crossing_bounds_are_incoherent_with_reason() {
    let mut f = fix();
    let r = f.r;
    let n = nf(
        &mut f,
        &Concept::and([Concept::AtLeast(4, r), Concept::AtMost(2, r)]),
    );
    assert!(n.is_incoherent());
    assert!(matches!(n.clash(), Some(Clash::Cardinality { .. })));
}

#[test]
fn at_least_zero_is_trivial() {
    let mut f = fix();
    let r = f.r;
    let n = nf(&mut f, &Concept::AtLeast(0, r));
    assert!(n.is_top());
}

#[test]
fn impossible_role_swallows_value_restriction() {
    // (AND (AT-MOST 0 r) (ALL r CAR)) ≡ (AT-MOST 0 r)
    let mut f = fix();
    let r = f.r;
    let car = Concept::Name(f.schema.symbols.find_concept("CAR").unwrap());
    let with_all = nf(
        &mut f,
        &Concept::and([Concept::AtMost(0, r), Concept::all(r, car)]),
    );
    let without = nf(&mut f, &Concept::AtMost(0, r));
    assert_eq!(with_all, without);
}

#[test]
fn bottom_value_restriction_zeroes_the_role() {
    // (ALL r ⊥) ≡ (AT-MOST 0 r)
    let mut f = fix();
    let (r, s) = (f.r, f.s);
    let bot = Concept::and([Concept::AtLeast(2, s), Concept::AtMost(1, s)]);
    let all_bot = nf(&mut f, &Concept::all(r, bot));
    assert!(!all_bot.is_incoherent());
    let zero = nf(&mut f, &Concept::AtMost(0, r));
    assert_eq!(all_bot, zero);
}

// ---- enumerations -----------------------------------------------------------

#[test]
fn one_of_intersection_and_emptiness() {
    let mut f = fix();
    let a = ind(&mut f, "A");
    let b = ind(&mut f, "B");
    let c = ind(&mut f, "C");
    let n = nf(
        &mut f,
        &Concept::and([
            Concept::one_of([a.clone(), b.clone()]),
            Concept::one_of([b.clone(), c.clone()]),
        ]),
    );
    assert_eq!(n.one_of.as_ref().unwrap().len(), 1);
    let empty = nf(
        &mut f,
        &Concept::and([Concept::one_of([a]), Concept::one_of([c])]),
    );
    assert!(empty.is_incoherent());
    assert!(matches!(empty.clash(), Some(Clash::EmptyEnumeration)));
}

#[test]
fn one_of_derives_layer() {
    let mut f = fix();
    let a = ind(&mut f, "A");
    let n = nf(&mut f, &Concept::one_of([a.clone()]));
    assert_eq!(n.layer, Layer::Classic);
    let n = nf(&mut f, &Concept::one_of([IndRef::Host(HostValue::Int(1))]));
    assert_eq!(n.layer, Layer::Host(Some(HostClass::Integer)));
    // Mixed: the join.
    let n = nf(
        &mut f,
        &Concept::one_of([a, IndRef::Host(HostValue::Int(1))]),
    );
    assert_eq!(n.layer, Layer::Thing);
}

#[test]
fn one_of_filtered_by_layer() {
    // (AND INTEGER (ONE-OF Rocky 3 "x")) keeps only 3.
    let mut f = fix();
    let rocky = ind(&mut f, "Rocky");
    let n = nf(
        &mut f,
        &Concept::and([
            Concept::Builtin(Layer::Host(Some(HostClass::Integer))),
            Concept::one_of([
                rocky,
                IndRef::Host(HostValue::Int(3)),
                IndRef::Host(HostValue::Str("x".into())),
            ]),
        ]),
    );
    assert_eq!(n.one_of.as_ref().unwrap().len(), 1);
    assert_eq!(n.layer, Layer::Host(Some(HostClass::Integer)));
    // And filtering to nothing is a clash.
    let rocky2 = ind(&mut f, "Rocky");
    let n = nf(
        &mut f,
        &Concept::and([
            Concept::Builtin(Layer::Host(None)),
            Concept::one_of([rocky2]),
        ]),
    );
    assert!(n.is_incoherent());
}

#[test]
fn enumerated_value_restriction_bounds_cardinality() {
    let mut f = fix();
    let r = f.r;
    let a = ind(&mut f, "A");
    let b = ind(&mut f, "B");
    let n = nf(&mut f, &Concept::all(r, Concept::one_of([a, b])));
    assert_eq!(n.roles[&r].at_most, Some(2));
    // Which can clash with a lower bound.
    let a2 = ind(&mut f, "A");
    let n = nf(
        &mut f,
        &Concept::and([
            Concept::all(r, Concept::one_of([a2])),
            Concept::AtLeast(2, r),
        ]),
    );
    assert!(n.is_incoherent());
}

// ---- layers -------------------------------------------------------------------

#[test]
fn layer_clash_is_incoherent() {
    let mut f = fix();
    let n = nf(
        &mut f,
        &Concept::and([
            Concept::Builtin(Layer::Classic),
            Concept::Builtin(Layer::Host(None)),
        ]),
    );
    assert!(n.is_incoherent());
    assert!(matches!(n.clash(), Some(Clash::LayerClash)));
}

#[test]
fn required_fillers_force_classic_layer() {
    let mut f = fix();
    let r = f.r;
    let n = nf(&mut f, &Concept::AtLeast(1, r));
    assert_eq!(n.layer, Layer::Classic);
    // And conflict with a host layer.
    let n = nf(
        &mut f,
        &Concept::and([
            Concept::Builtin(Layer::Host(Some(HostClass::Integer))),
            Concept::AtLeast(1, r),
        ]),
    );
    assert!(n.is_incoherent());
}

#[test]
fn host_layer_drops_vacuous_role_restrictions() {
    // (AND INTEGER (AT-MOST 3 r)) ≡ INTEGER — integers have no roles.
    let mut f = fix();
    let r = f.r;
    let with = nf(
        &mut f,
        &Concept::and([
            Concept::Builtin(Layer::Host(Some(HostClass::Integer))),
            Concept::AtMost(3, r),
        ]),
    );
    let without = nf(
        &mut f,
        &Concept::Builtin(Layer::Host(Some(HostClass::Integer))),
    );
    assert_eq!(with, without);
}

// ---- fills / close ---------------------------------------------------------------

#[test]
fn fills_union_under_and() {
    let mut f = fix();
    let r = f.r;
    let a = ind(&mut f, "A");
    let b = ind(&mut f, "B");
    let n = nf(
        &mut f,
        &Concept::and([
            Concept::Fills(r, vec![a.clone()]),
            Concept::Fills(r, vec![b.clone(), a.clone()]),
        ]),
    );
    let rr = &n.roles[&r];
    assert_eq!(rr.fillers.len(), 2);
    assert_eq!(rr.at_least, 2, "distinct fillers raise AT-LEAST under UNA");
}

#[test]
fn close_in_same_expression_sees_sibling_fills() {
    let mut f = fix();
    let r = f.r;
    let a = ind(&mut f, "A");
    let n = nf(
        &mut f,
        &Concept::and([Concept::Fills(r, vec![a]), Concept::Close(r)]),
    );
    let rr = &n.roles[&r];
    assert!(rr.closed);
    assert_eq!(rr.at_most, Some(1));
    assert!(!n.is_incoherent());
}

#[test]
fn close_composes_contextually_via_conjoin_expression() {
    // The §3.2 update pattern: FILLS first, CLOSE later, against the same
    // evolving description.
    let mut f = fix();
    let r = f.r;
    let a = ind(&mut f, "A");
    let mut derived = NormalForm::top();
    conjoin_expression(&Concept::Fills(r, vec![a]), &f.schema, &mut derived).unwrap();
    conjoin_expression(&Concept::Close(r), &f.schema, &mut derived).unwrap();
    assert!(derived.roles[&r].closed);
    assert_eq!(derived.roles[&r].at_most, Some(1));
    // A later extra filler clashes.
    let b = ind(&mut f, "B");
    conjoin_expression(&Concept::Fills(r, vec![b]), &f.schema, &mut derived).unwrap();
    assert!(derived.is_incoherent());
}

#[test]
fn too_many_fillers_for_at_most_clash() {
    let mut f = fix();
    let r = f.r;
    let a = ind(&mut f, "A");
    let b = ind(&mut f, "B");
    let n = nf(
        &mut f,
        &Concept::and([Concept::Fills(r, vec![a, b]), Concept::AtMost(1, r)]),
    );
    assert!(n.is_incoherent());
}

// ---- SAME-AS ------------------------------------------------------------------

#[test]
fn same_as_requires_chains_to_exist_and_be_single_valued() {
    let mut f = fix();
    let site = f.schema.define_attribute("site").unwrap();
    let perp = f.schema.define_role("perp").unwrap();
    let dom = f.schema.define_attribute("dom").unwrap();
    let n = nf(&mut f, &Concept::SameAs(vec![site], vec![perp, dom]));
    // Every chain role gets at-least 1 / at-most 1.
    assert_eq!(n.roles[&site].at_least, 1);
    assert_eq!(n.roles[&site].at_most, Some(1));
    assert_eq!(n.roles[&perp].at_least, 1);
    assert_eq!(n.roles[&perp].at_most, Some(1));
    // The nested step too.
    let inner = n.roles[&perp].all.as_deref().unwrap();
    assert_eq!(inner.roles[&dom].at_least, 1);
}

#[test]
fn same_as_value_restrictions_propagate_across_equated_paths() {
    // (AND (SAME-AS (a) (b)) (ALL a CAR)) entails (ALL b CAR).
    let mut f = fix();
    let a = f.schema.define_attribute("a").unwrap();
    let b = f.schema.define_attribute("b").unwrap();
    let car = Concept::Name(f.schema.symbols.find_concept("CAR").unwrap());
    let n = nf(
        &mut f,
        &Concept::and([
            Concept::SameAs(vec![a], vec![b]),
            Concept::all(a, car.clone()),
        ]),
    );
    let car_nf = nf(&mut f, &car);
    let vr_b = n.roles[&b].all.as_deref().expect("propagated");
    assert!(crate::subsume::subsumes(&car_nf, vr_b));
}

#[test]
fn same_as_trivial_pair_vanishes() {
    let mut f = fix();
    let a = f.schema.define_attribute("a").unwrap();
    let n = nf(&mut f, &Concept::SameAs(vec![a], vec![a]));
    assert!(n.same_as.is_empty());
    // But the chain-existence constraint is NOT implied by a trivial
    // pair: p ~ p says nothing.
    assert!(n.roles.is_empty() || n.roles[&a].at_least == 0);
}

#[test]
fn empty_same_as_path_is_an_error() {
    let mut f = fix();
    let a = f.schema.define_attribute("a").unwrap();
    let res = normalize(&Concept::SameAs(vec![], vec![a]), &f.schema);
    assert!(matches!(res, Err(ClassicError::EmptySameAsPath)));
}

#[test]
fn contradictory_same_as_constraints_clash() {
    // a ~ b, (ALL a (ONE-OF X)), (ALL b (ONE-OF Y)) — the equated object
    // must be both X and Y.
    let mut f = fix();
    let a = f.schema.define_attribute("a").unwrap();
    let b = f.schema.define_attribute("b").unwrap();
    let x = ind(&mut f, "X");
    let y = ind(&mut f, "Y");
    let n = nf(
        &mut f,
        &Concept::and([
            Concept::SameAs(vec![a], vec![b]),
            Concept::all(a, Concept::one_of([x])),
            Concept::all(b, Concept::one_of([y])),
        ]),
    );
    assert!(n.is_incoherent());
}

// ---- errors ----------------------------------------------------------------------

#[test]
fn undeclared_role_is_an_error_not_a_clash() {
    let mut f = fix();
    let ghost = f.schema.symbols.role("ghost");
    let res = normalize(&Concept::AtLeast(1, ghost), &f.schema);
    assert!(matches!(res, Err(ClassicError::UndefinedRole(_))));
}

#[test]
fn undefined_test_is_an_error() {
    let f = fix();
    let ghost = crate::symbol::TestId::from_index(42);
    let res = normalize(&Concept::Test(ghost), &f.schema);
    assert!(matches!(res, Err(ClassicError::UndefinedTest(_))));
}

#[test]
fn primitive_reparenting_is_an_error() {
    let mut f = fix();
    let car = Concept::Name(f.schema.symbols.find_concept("CAR").unwrap());
    let boat = Concept::primitive(Concept::thing(), "boat");
    f.schema.declare(&boat);
    normalize(&boat, &f.schema).unwrap();
    let res = normalize(&Concept::primitive(car, "boat"), &f.schema);
    assert!(matches!(res, Err(ClassicError::PrimitiveReparented(_))));
}

#[test]
fn an_undeclared_primitive_is_an_error_and_declaring_can_be_undone() {
    let mut f = fix();
    let boat = Concept::disjoint_primitive(Concept::thing(), "craft", "boat");
    let undefined = |schema: &Schema| {
        matches!(
            normalize(&boat, schema),
            Err(ClassicError::UndefinedName { kind: "primitive", name }) if name == "craft/boat"
        )
    };
    assert!(undefined(&f.schema), "normalizing declares nothing");
    let mark = f.schema.declare(&boat);
    let declared = normalize(&boat, &f.schema).unwrap();
    f.schema.undeclare(mark);
    assert!(undefined(&f.schema));
    // The same ids come back, grouping included: undoing left no gap.
    assert_eq!(f.schema.declare(&boat), mark);
    assert_eq!(normalize(&boat, &f.schema).unwrap(), declared);
}

// ---- misc canonicality --------------------------------------------------------------

#[test]
fn all_thing_is_no_restriction() {
    let mut f = fix();
    let r = f.r;
    let n = nf(&mut f, &Concept::all(r, Concept::thing()));
    assert!(n.is_top());
}

#[test]
fn nested_all_restrictions_canonicalize_depth_first() {
    let mut f = fix();
    let (r, s) = (f.r, f.s);
    // (ALL r (AND (ALL s A) (ALL s B))) ≡ (ALL r (ALL s (AND A B)))
    let a = Concept::primitive(Concept::thing(), "pa");
    let b = Concept::primitive(Concept::thing(), "pb");
    let lhs = Concept::all(
        r,
        Concept::and([Concept::all(s, a.clone()), Concept::all(s, b.clone())]),
    );
    f.schema.declare(&lhs);
    let rhs = Concept::all(r, Concept::all(s, Concept::and([a, b])));
    assert_eq!(nf(&mut f, &lhs), nf(&mut f, &rhs));
}

#[test]
fn size_reflects_structure() {
    let mut f = fix();
    let r = f.r;
    let top = nf(&mut f, &Concept::thing());
    let one = nf(&mut f, &Concept::AtLeast(1, r));
    assert!(one.size() > top.size());
}

#[test]
fn incoherent_forms_are_all_equal() {
    let mut f = fix();
    let (r, s) = (f.r, f.s);
    let b1 = nf(
        &mut f,
        &Concept::and([Concept::AtLeast(2, r), Concept::AtMost(1, r)]),
    );
    let b2 = nf(
        &mut f,
        &Concept::and([Concept::AtLeast(9, s), Concept::AtMost(0, s)]),
    );
    assert!(b1.is_incoherent() && b2.is_incoherent());
    assert_eq!(b1, b2);
    assert_ne!(b1.clash(), None);
}

#[test]
fn value_restriction_accessors() {
    let mut f = fix();
    let (r, s) = (f.r, f.s);
    let car = Concept::Name(f.schema.symbols.find_concept("CAR").unwrap());
    let n = nf(&mut f, &Concept::all(r, Concept::all(s, car)));
    assert!(n.at_path(&[r, s]).is_some());
    assert!(n.at_path(&[s]).is_none());
    assert!(!n.value_restriction(r).is_top());
    assert!(n.value_restriction(s).is_top());
}

// ---- recursive definitions (forbidden, §2.2) ------------------------------

#[test]
fn same_as_self_extension_is_a_recursive_definition() {
    // (SAME-AS (r) (r r)) equates a chain with its own extension: the
    // filler structure would regress forever. Previously this hung the
    // normalizer's fixpoint (release builds looped; debug builds tripped
    // the convergence debug_assert).
    let f = fix();
    let r = f.r;
    let c = Concept::SameAs(vec![r], vec![r, r]);
    let err = normalize(&c, &f.schema).unwrap_err();
    assert!(
        matches!(err, ClassicError::RecursiveDefinition(_)),
        "unexpected: {err}"
    );
    assert!(err.to_string().contains("(r)"), "{err}");
}

#[test]
fn same_as_cycle_through_congruence_is_detected() {
    // (r s) ~ (s) and (r) ~ (s s): congruence derives (s) ~ (s s ...) —
    // no stored pair is prefix-related, the cycle only appears after
    // right-extension.
    let f = fix();
    let (r, s) = (f.r, f.s);
    let c = Concept::and([
        Concept::SameAs(vec![r, s], vec![s]),
        Concept::SameAs(vec![r], vec![s, s]),
    ]);
    let err = normalize(&c, &f.schema).unwrap_err();
    assert!(
        matches!(err, ClassicError::RecursiveDefinition(_)),
        "unexpected: {err}"
    );
}

#[test]
fn nested_same_as_cycle_is_positioned_not_swallowed() {
    // The cycle sits under (ALL s ...); without the pre-renormalization
    // scan it would be folded into an AT-MOST 0 on s and silently change
    // meaning instead of erroring.
    let f = fix();
    let (r, s) = (f.r, f.s);
    let c = Concept::all(s, Concept::SameAs(vec![r], vec![r, r]));
    let err = normalize(&c, &f.schema).unwrap_err();
    assert!(
        matches!(err, ClassicError::RecursiveDefinition(_)),
        "unexpected: {err}"
    );
}

#[test]
fn acyclic_same_as_still_normalizes() {
    let mut f = fix();
    let (r, s) = (f.r, f.s);
    let n = nf(&mut f, &Concept::SameAs(vec![r], vec![s]));
    assert!(!n.is_incoherent());
    assert!(n.same_as.implies(&vec![r], &vec![s]));
}

#[test]
fn conjoining_descriptions_into_a_cycle_yields_recursive_clash() {
    // Each description is fine alone; their conjunction equates (r) with
    // (s) and (r) with (s r), so (s) ~ (s r) — recursive. The KB layer
    // sees ⊥ with a RecursiveCoreference clash and rejects the update
    // like any other inconsistency.
    let mut f = fix();
    let (r, s) = (f.r, f.s);
    let mut a = nf(&mut f, &Concept::SameAs(vec![r], vec![s]));
    let b = nf(&mut f, &Concept::SameAs(vec![r], vec![s, r]));
    a.conjoin(&b, &f.schema);
    assert!(a.is_incoherent());
    assert!(
        matches!(a.clash(), Some(Clash::RecursiveCoreference { .. })),
        "clash: {:?}",
        a.clash()
    );
}

#[test]
fn self_referential_concept_definition_is_positioned() {
    let mut f = fix();
    let loops = Concept::all(f.r, Concept::Name(f.schema.symbols.concept("LOOP")));
    let err = f.schema.define_concept("LOOP", loops).unwrap_err();
    match err {
        ClassicError::RecursiveDefinition(pos) => {
            assert!(pos.contains("LOOP"), "position: {pos}");
        }
        other => panic!("expected RecursiveDefinition, got {other}"),
    }
    // The failed definition left no binding behind.
    let id = f.schema.symbols.concept("LOOP");
    assert!(!f.schema.is_defined(id));
    // ...and the name can be defined properly afterwards.
    f.schema
        .define_concept("LOOP", Concept::AtLeast(1, f.r))
        .unwrap();
}
