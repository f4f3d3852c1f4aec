//! Error types shared across the CLASSIC engine.
//!
//! CLASSIC updates are "either accepted or rejected because of constraint
//! violations" (paper §3.1); every rejection surfaces as a
//! [`ClassicError`] and leaves the database unchanged.
//!
//! Some failure modes one might expect have no variants because the
//! design makes them unreachable: host individuals cannot even be
//! addressed by role assertions (only named CLASSIC individuals are
//! assertable), `SAME-AS` imposes single-valuedness rather than requiring
//! a declaration, and asserting a `TEST` concept *tells* the database the
//! test holds — "TEST concepts act just like primitive ones" (§2.2) —
//! rather than running it as a gate.
//!
//! Definition cycles through *names* are mostly ruled out by construction
//! (references must already be defined and redefinition is rejected), but
//! a definition can still be recursive through co-reference: a `SAME-AS`
//! equating an attribute chain with an extension of itself demands an
//! infinitely regressing filler structure. The paper forbids recursive
//! definitions outright; such expressions are rejected with
//! [`ClassicError::RecursiveDefinition`].

use crate::desc::Path;
use crate::symbol::{ConceptName, IndName, PrimId, RoleId, SymbolTable, TestId};
use std::fmt;

/// Any error the CLASSIC engine can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassicError {
    /// A role name was used without a prior `define-role`.
    ///
    /// `define-role` exists so the DBMS can "later detect errors such as
    /// typos" (§3.1 footnote 3).
    UndefinedRole(RoleId),
    /// A concept name was referenced but never defined.
    UndefinedConcept(ConceptName),
    /// A concept name was defined twice. Definitions "are not supposed to
    /// change meaning over time" (§2.2), so redefinition is rejected.
    ConceptRedefined(ConceptName),
    /// A primitive index was re-registered under an incompatible parent.
    PrimitiveReparented(PrimId),
    /// A name that has no id, in a command that may not introduce one: a
    /// primitive index no definition, assertion or rule has declared, or a
    /// role or concept a read is the first to mention. Reported by
    /// spelling.
    UndefinedName {
        /// `"primitive"`, `"role"` or `"concept"`.
        kind: &'static str,
        /// The name as written.
        name: String,
    },
    /// A `TEST` concept referenced an unregistered test function.
    UndefinedTest(TestId),
    /// `SAME-AS` was given an empty path.
    EmptySameAsPath,
    /// An individual name was used without a prior `create-ind`.
    UnknownIndividual(IndName),
    /// `create-ind` on a name that already exists.
    IndividualExists(IndName),
    /// An assertion would make an individual's description incoherent;
    /// the update is rejected and rolled back (§3.4).
    Inconsistent {
        /// The individual at which the clash was detected.
        individual: Option<IndName>,
        /// Human-readable clash description.
        reason: Clash,
    },
    /// A destructive update the engine does not support (retraction of
    /// *told* facts is supported; this remains for any other destructive
    /// surface a caller might request).
    DestructiveUpdate,
    /// `retract-ind` named a description that was never told of the
    /// individual — only told facts can be retracted, not derived ones.
    NotAsserted(IndName),
    /// `retract-rule` matched no live rule with that antecedent and
    /// consequent.
    NoSuchRule {
        /// The antecedent name as given by the caller.
        antecedent: String,
        /// A nearest-match hint, when one exists: either another
        /// antecedent with live rules at a small edit distance (likely a
        /// typo), or a note that the antecedent's live rules all have
        /// different consequents.
        suggestion: Option<String>,
    },
    /// A definition is recursive — a named concept referring to itself, or
    /// a `SAME-AS` equating an attribute chain with an extension of itself
    /// (directly or through congruence). The paper forbids recursive
    /// definitions (§2.2); without this check the normalizer's fixpoint
    /// would regress forever. The payload positions the cycle (the
    /// offending name or chain, rendered).
    RecursiveDefinition(String),
    /// A user-registered `TEST` recognizer panicked during retrieval; the
    /// payload is preserved so the caller can diagnose the host function.
    RecognizerPanicked(String),
    /// A rule was attached to something other than a defined named concept.
    RuleOnUndefinedConcept(ConceptName),
    /// A syntax or arity problem detected while building a description.
    Malformed(String),
    /// A paged store was asked for its full knowledge base while some
    /// individual segments were still parked on disk — a partial
    /// database must never masquerade as the whole one. The payload
    /// names the unhydrated arena range so the caller knows what to
    /// hydrate (or that `kb_hydrated`/`hydrate_all` is the right call).
    NotHydrated {
        /// First arena index still parked (inclusive).
        lo: usize,
        /// One past the last arena index still parked.
        hi: usize,
        /// Number of segments awaiting hydration.
        segments: usize,
    },
    /// A storage-layer failure (`classic-store`). Unlike [`Malformed`],
    /// the variant pins *which* on-disk file misbehaved and, when known,
    /// the compaction generation it belongs to — a store directory holds
    /// a manifest, several segments, and one or more logs, and an error
    /// that names none of them is undebuggable.
    ///
    /// [`Malformed`]: ClassicError::Malformed
    Storage {
        /// The offending file, as the path the store accessed it by.
        path: String,
        /// The compaction generation the file belongs to, when the store
        /// got far enough to learn it (`None` for e.g. an unreadable
        /// manifest whose generation header never parsed).
        generation: Option<u64>,
        /// What went wrong.
        detail: String,
    },
}

/// The specific contradiction that made a description incoherent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Clash {
    /// `AT-LEAST n` conflicts with an effective `AT-MOST m`, `n > m`.
    Cardinality {
        /// The role whose bounds crossed.
        role: RoleId,
        /// The effective lower bound.
        at_least: u32,
        /// The effective upper bound.
        at_most: u32,
    },
    /// Two distinct primitives from the same disjoint grouping.
    DisjointPrimitives(PrimId, PrimId),
    /// An enumeration became empty (e.g. intersecting disjoint `ONE-OF`s,
    /// or filtering by an incompatible layer).
    EmptyEnumeration,
    /// CLASSIC-THING conjoined with HOST-THING, or two distinct host
    /// classes.
    LayerClash,
    /// A known filler is provably not an instance of a value restriction.
    FillerViolation {
        /// The role whose filler violates the restriction.
        role: RoleId,
    },
    /// A closed role has fewer fillers than an `AT-LEAST` demands, or more
    /// fillers than an `AT-MOST` allows.
    ClosedRoleCardinality {
        /// The closed role.
        role: RoleId,
    },
    /// A `SAME-AS` constraint equated provably distinct individuals (under
    /// the unique-name assumption for named individuals).
    CoreferenceClash {
        /// The final role of the clashing chain.
        role: RoleId,
    },
    /// A `SAME-AS` equated an attribute chain with a proper extension of
    /// itself (possibly via congruence), demanding an infinitely
    /// regressing filler structure — a recursive definition, which the
    /// paper forbids. Carried as a clash so derived descriptions that
    /// *combine* into a cycle are rejected at the KB layer like any other
    /// inconsistency; [`crate::normalize`] converts it into
    /// [`ClassicError::RecursiveDefinition`] for told expressions.
    RecursiveCoreference {
        /// The chain equated with its own extension (empty when the cycle
        /// was caught only by the normalization convergence guard).
        path: Path,
    },
    /// The conjunction was already incoherent for a recorded reason that
    /// has been erased by normalization (kept as a catch-all so ⊥ can be
    /// conjoined without carrying provenance).
    Incoherent,
}

/// How an error prints the ids it carries: by name when the symbol table
/// of the KB it came from is at hand (and knows the id — a stranger's id
/// must not panic the error path), as arena indices otherwise.
#[derive(Clone, Copy)]
struct Names<'a>(Option<&'a SymbolTable>);

impl Names<'_> {
    fn or_index(name: Option<&str>, index: usize) -> String {
        name.map_or_else(|| format!("#{index}"), str::to_owned)
    }

    fn role(self, r: RoleId) -> String {
        let name = self.0.and_then(|s| s.roles.lookup(r.0));
        name.map_or_else(|| r.to_string(), str::to_owned)
    }

    fn concept(self, c: ConceptName) -> String {
        Self::or_index(self.0.and_then(|s| s.concepts.lookup(c.0)), c.index())
    }

    fn individual(self, i: IndName) -> String {
        Self::or_index(self.0.and_then(|s| s.individuals.lookup(i.0)), i.index())
    }

    fn prim(self, p: PrimId) -> String {
        Self::or_index(self.0.and_then(|s| s.prims.lookup(p.0)), p.index())
    }

    fn test(self, t: TestId) -> String {
        Self::or_index(self.0.and_then(|s| s.tests.lookup(t.0)), t.index())
    }
}

/// An error or clash paired with how to print its ids.
struct Shown<'a, T>(&'a T, Names<'a>);

impl ClassicError {
    /// This error as text that *names* the roles, concepts, individuals,
    /// primitives and tests it is about, looked up in `symbols` — the
    /// table of the KB the error came from. Plain [`Display`](fmt::Display)
    /// has no table and prints arena indices (`undefined concept #12`);
    /// this prints `undefined concept SPORTS-CAR`, with the same leading
    /// phrases. Use it wherever an error leaves the process as text.
    pub fn display<'a>(&'a self, symbols: &'a SymbolTable) -> impl fmt::Display + 'a {
        Shown(self, Names(Some(symbols)))
    }
}

impl Clash {
    /// This clash as text naming its roles and primitives from `symbols`;
    /// see [`ClassicError::display`].
    pub fn display<'a>(&'a self, symbols: &'a SymbolTable) -> impl fmt::Display + 'a {
        Shown(self, Names(Some(symbols)))
    }
}

impl fmt::Display for ClassicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Shown(self, Names(None)).fmt(f)
    }
}

impl fmt::Display for Clash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Shown(self, Names(None)).fmt(f)
    }
}

impl fmt::Display for Shown<'_, ClassicError> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Shown(error, names) = *self;
        match error {
            ClassicError::UndefinedRole(r) => write!(f, "undefined role {}", names.role(*r)),
            ClassicError::UndefinedConcept(c) => {
                write!(f, "undefined concept {}", names.concept(*c))
            }
            ClassicError::ConceptRedefined(c) => {
                write!(f, "concept {} already defined", names.concept(*c))
            }
            ClassicError::PrimitiveReparented(p) => {
                write!(
                    f,
                    "primitive {} re-registered with a different parent",
                    names.prim(*p)
                )
            }
            ClassicError::UndefinedName { kind, name } => write!(f, "undefined {kind} {name}"),
            ClassicError::UndefinedTest(t) => write!(f, "undefined test {}", names.test(*t)),
            ClassicError::EmptySameAsPath => write!(f, "SAME-AS path is empty"),
            ClassicError::UnknownIndividual(i) => {
                write!(f, "unknown individual {}", names.individual(*i))
            }
            ClassicError::IndividualExists(i) => {
                write!(f, "individual {} already exists", names.individual(*i))
            }
            ClassicError::Inconsistent { individual, reason } => match individual {
                Some(i) => write!(
                    f,
                    "inconsistent update at individual {}: {}",
                    names.individual(*i),
                    Shown(reason, names)
                ),
                None => write!(f, "inconsistent description: {}", Shown(reason, names)),
            },
            ClassicError::DestructiveUpdate => {
                write!(
                    f,
                    "destructive updates are not supported (paper defers them)"
                )
            }
            ClassicError::NotAsserted(i) => {
                write!(
                    f,
                    "nothing to retract: the description was never told of individual {}",
                    names.individual(*i)
                )
            }
            ClassicError::NoSuchRule {
                antecedent,
                suggestion,
            } => {
                write!(
                    f,
                    "unknown rule: no live rule with antecedent {antecedent:?} \
                     matches the given consequent"
                )?;
                if let Some(s) = suggestion {
                    write!(f, " ({s})")?;
                }
                Ok(())
            }
            ClassicError::RecursiveDefinition(pos) => {
                write!(f, "recursive definition: {pos}")
            }
            ClassicError::RecognizerPanicked(msg) => {
                write!(f, "a TEST recognizer panicked during retrieval: {msg}")
            }
            ClassicError::RuleOnUndefinedConcept(c) => {
                write!(
                    f,
                    "rule attached to undefined concept {}",
                    names.concept(*c)
                )
            }
            ClassicError::Malformed(m) => write!(f, "malformed expression: {m}"),
            ClassicError::NotHydrated { lo, hi, segments } => {
                write!(
                    f,
                    "store is partially hydrated: {segments} segment(s) covering \
                     arena range {lo}..{hi} are not loaded; call hydrate_all() \
                     or use kb_hydrated()"
                )
            }
            ClassicError::Storage {
                path,
                generation,
                detail,
            } => {
                write!(f, "storage error at {path}")?;
                if let Some(g) = generation {
                    write!(f, " (generation {g})")?;
                }
                write!(f, ": {detail}")
            }
        }
    }
}

impl fmt::Display for Shown<'_, Clash> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Shown(clash, names) = *self;
        match clash {
            Clash::Cardinality {
                role,
                at_least,
                at_most,
            } => write!(
                f,
                "AT-LEAST {at_least} exceeds AT-MOST {at_most} on {}",
                names.role(*role)
            ),
            Clash::DisjointPrimitives(a, b) => write!(
                f,
                "disjoint primitives {} and {} conjoined",
                names.prim(*a),
                names.prim(*b)
            ),
            Clash::EmptyEnumeration => write!(f, "empty ONE-OF enumeration"),
            Clash::LayerClash => write!(f, "CLASSIC-THING/HOST-THING layer clash"),
            Clash::FillerViolation { role } => {
                write!(
                    f,
                    "known filler violates value restriction on {}",
                    names.role(*role)
                )
            }
            Clash::ClosedRoleCardinality { role } => {
                write!(
                    f,
                    "closed role {} violates its cardinality bounds",
                    names.role(*role)
                )
            }
            Clash::CoreferenceClash { role } => {
                write!(
                    f,
                    "SAME-AS equates distinct individuals via {}",
                    names.role(*role)
                )
            }
            Clash::RecursiveCoreference { path } => {
                if path.is_empty() {
                    write!(f, "SAME-AS constraints form a recursive chain")
                } else {
                    write!(f, "SAME-AS equates chain (")?;
                    for (i, r) in path.iter().enumerate() {
                        if i > 0 {
                            write!(f, " ")?;
                        }
                        write!(f, "{}", names.role(*r))?;
                    }
                    write!(f, ") with an extension of itself")
                }
            }
            Clash::Incoherent => write!(f, "incoherent description"),
        }
    }
}

impl std::error::Error for ClassicError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ClassicError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_without_panicking() {
        let errs = [
            ClassicError::UndefinedRole(RoleId::from_index(1)),
            ClassicError::DestructiveUpdate,
            ClassicError::Inconsistent {
                individual: Some(IndName::from_index(0)),
                reason: Clash::EmptyEnumeration,
            },
            ClassicError::Malformed("x".into()),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn storage_errors_name_the_file_and_generation() {
        let with_gen = ClassicError::Storage {
            path: "/db/kb.manifest".into(),
            generation: Some(7),
            detail: "segment hash mismatch".into(),
        };
        let s = with_gen.to_string();
        assert!(s.contains("/db/kb.manifest"));
        assert!(s.contains("generation 7"));
        assert!(s.contains("hash mismatch"));
        let without = ClassicError::Storage {
            path: "/db/kb.manifest".into(),
            generation: None,
            detail: "unreadable".into(),
        };
        assert!(!without.to_string().contains("generation"));
    }

    #[test]
    fn named_display_looks_ids_up_and_survives_strangers() {
        let mut symbols = SymbolTable::new();
        let wheel = symbols.role("wheel");
        let rocky = symbols.individual("Rocky");
        let car = symbols.concept("SPORTS-CAR");
        let e = ClassicError::Inconsistent {
            individual: Some(rocky),
            reason: Clash::Cardinality {
                role: wheel,
                at_least: 3,
                at_most: 1,
            },
        };
        assert_eq!(
            e.display(&symbols).to_string(),
            "inconsistent update at individual Rocky: AT-LEAST 3 exceeds AT-MOST 1 on wheel"
        );
        // Plain Display has no table and keeps printing indices.
        assert_eq!(
            e.to_string(),
            "inconsistent update at individual #0: AT-LEAST 3 exceeds AT-MOST 1 on role#0"
        );
        let undefined = ClassicError::UndefinedConcept(car);
        assert_eq!(
            undefined.display(&symbols).to_string(),
            "undefined concept SPORTS-CAR"
        );
        // An id this table never issued prints as an index, not a panic.
        let stranger = ClassicError::IndividualExists(IndName::from_index(99));
        assert_eq!(
            stranger.display(&symbols).to_string(),
            "individual #99 already exists"
        );
    }

    #[test]
    fn clash_display() {
        let c = Clash::Cardinality {
            role: RoleId::from_index(2),
            at_least: 3,
            at_most: 1,
        };
        let s = c.to_string();
        assert!(s.contains("AT-LEAST 3"));
        assert!(s.contains("AT-MOST 1"));
    }
}
