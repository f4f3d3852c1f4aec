//! Batched assertion with a deferred fixpoint — the KB layer of the bulk
//! ingest pipeline (`docs/INGEST.md`).
//!
//! [`Kb::bulk_assert`] stages a *chunk* of rows — told-fact pushes and
//! contextual conjunction only — and then runs **one** propagation
//! fixpoint for the whole chunk, instead of one per assertion. Rule
//! firing, `ALL`/`SAME-AS` propagation, and realization all happen once,
//! over the union of the chunk's facts, in the same transaction
//! (`Kb::transact`) every per-op write runs in: a chunk is simply a
//! fixpoint with many roots.
//!
//! ## Equivalence with row-by-row replay
//!
//! The contract (pinned by the proptest oracle in
//! `tests/bulk_oracle.rs`): for any row sequence, the final state and
//! the per-row accept/reject outcomes equal a sequential replay of
//! `create-ind` (if the target is new) followed by `assert-ind`, row by
//! row. It holds for two reasons:
//!
//! * **Monotone rows batch soundly.** For descriptions without `TEST`
//!   or `CLOSE`, conjunction and propagation are monotone: derived
//!   normal forms only gain information as told facts accumulate, and
//!   incoherence (⊥) is upward-closed. So if the *combined* chunk
//!   reaches a clash-free fixpoint, every sequential prefix would have
//!   too (same told set ⇒ same unique fixpoint), and conversely a row
//!   that would clash sequentially also clashes in the combined run.
//! * **Everything else falls back.** A chunk whose combined fixpoint
//!   clashes (or overruns the step limit) is rolled back through the
//!   ordinary transaction journal and replayed row by row — the oracle
//!   path itself — recording per-row outcomes. Rows that syntactically
//!   or (via named concepts) semantically involve `CLOSE` or `TEST`
//!   never enter a chunk at all: `CLOSE` is contextual ("the fillers
//!   known *now*", §3.2) and `TEST` predicates are arbitrary host code,
//!   so neither is order-independent. Each such row is applied alone,
//!   in sequence.
//!
//! A rejected row leaves **no trace**: target creation, referenced
//! individuals, and the told fact all roll back in one transaction. So
//! the final state also equals a replay of just the *accepted* rows —
//! the invariant the store's accepted-only `(bulk-load …)` log record
//! depends on. (A rejected row's mere target, had it survived as an
//! empty individual, could never change any other row's outcome, so
//! dropping it cannot perturb accept/reject parity.)

use crate::kb::{AssertReport, Journal, Kb};
use classic_core::desc::Concept;
use classic_core::error::Result;
use classic_core::normal::NormalForm;
use classic_core::schema::Schema;

/// Default rows per batched fixpoint. Large enough to amortize the
/// propagation setup, small enough that a clash-triggered row-by-row
/// replay stays cheap.
pub(crate) const DEFAULT_BULK_CHUNK: usize = 512;

/// Rejection details are capped at this many entries; `rejected` and
/// `row_accepted` stay exact regardless.
const MAX_REJECTION_DETAIL: usize = 64;

/// One bulk row: a target individual (by surface name, created on first
/// use) and the description to assert about it.
#[derive(Debug, Clone)]
pub struct BulkRow {
    /// Target individual name.
    pub name: String,
    /// Description asserted about the target.
    pub desc: Concept,
}

/// Why one row was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BulkRejection {
    /// Zero-based index into the submitted row slice.
    pub row: usize,
    /// The row's target individual.
    pub name: String,
    /// The rendered clash/error that rejected it.
    pub error: String,
}

/// What a [`Kb::bulk_assert`] run did. Infallible: per-row failures are
/// recorded here, not returned as `Err`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BulkReport {
    /// Rows submitted.
    pub rows: usize,
    /// Rows accepted (told fact now part of the KB).
    pub accepted: usize,
    /// Rows rejected (rolled back completely, including the target's
    /// creation if this row would have created it).
    pub rejected: usize,
    /// Individuals created — row targets and referenced individuals
    /// (`FILLS`/`ONE-OF` arguments) seen for the first time.
    pub inds_created: u64,
    /// Worklist steps across every fixpoint run.
    pub steps: u64,
    /// `ALL` restrictions propagated onto fillers.
    pub fills_propagated: u64,
    /// Role fillers derived via `SAME-AS`.
    pub corefs_derived: u64,
    /// Rules fired.
    pub rules_fired: u64,
    /// Individuals whose most specific concepts changed.
    pub reclassified: u64,
    /// Batched fixpoints run (excludes sequential barriers/fallbacks).
    pub chunks: u64,
    /// Chunks whose combined fixpoint clashed and were replayed row by
    /// row.
    pub sequential_fallbacks: u64,
    /// Per-row outcome, index-aligned with the submitted slice.
    pub row_accepted: Vec<bool>,
    /// Detail for the first `MAX_REJECTION_DETAIL` (64) rejections.
    pub rejections: Vec<BulkRejection>,
}

impl BulkReport {
    fn absorb(&mut self, r: &AssertReport) {
        self.inds_created += r.inds_created;
        self.steps += r.steps;
        self.fills_propagated += r.fills_propagated;
        self.corefs_derived += r.corefs_derived;
        self.rules_fired += r.rules_fired;
        self.reclassified += r.reclassified;
    }
}

/// Must this row be applied alone, in submission order? `CLOSE` is
/// contextual and `TEST` predicates are arbitrary (possibly
/// non-monotone) host code; both are checked syntactically, and `TEST`
/// also through named concepts' normal forms (an unresolvable name is
/// conservatively order-sensitive — the sequential path will produce
/// the real error).
fn order_sensitive(schema: &Schema, desc: &Concept) -> bool {
    match desc {
        Concept::Close(_) | Concept::Test(_) => true,
        Concept::Name(c) => schema.concept_nf(*c).map_or(true, nf_mentions_tests),
        Concept::And(parts) => parts.iter().any(|p| order_sensitive(schema, p)),
        Concept::All(_, inner) => order_sensitive(schema, inner),
        Concept::Primitive { parent, .. } | Concept::DisjointPrimitive { parent, .. } => {
            order_sensitive(schema, parent)
        }
        _ => false,
    }
}

fn nf_mentions_tests(nf: &NormalForm) -> bool {
    !nf.tests.is_empty()
        || nf
            .roles
            .values()
            .any(|rr| rr.all.as_ref().is_some_and(|all| nf_mentions_tests(all)))
}

impl Kb {
    /// Assert `rows` in bulk with the default chunk size
    /// (`DEFAULT_BULK_CHUNK`, 512). See [`Kb::bulk_assert_chunked`].
    ///
    /// ```
    /// use classic_core::desc::{Concept, IndRef};
    /// use classic_kb::{BulkRow, Kb};
    ///
    /// let mut kb = Kb::new();
    /// let friend = kb.define_role("friend")?;
    /// let rows: Vec<BulkRow> = (0..100)
    ///     .map(|i| BulkRow {
    ///         name: format!("p{i}"),
    ///         desc: Concept::Fills(friend, vec![IndRef::Host(classic_core::host::HostValue::Int((i * 7) % 100))]),
    ///     })
    ///     .collect();
    /// let report = kb.bulk_assert(&rows);
    /// assert_eq!(report.accepted, 100);
    /// assert_eq!(report.inds_created, 100);
    /// assert_eq!(report.chunks, 1); // one fixpoint for all 100 rows
    /// # Ok::<(), classic_core::ClassicError>(())
    /// ```
    pub fn bulk_assert(&mut self, rows: &[BulkRow]) -> BulkReport {
        self.bulk_assert_chunked(rows, DEFAULT_BULK_CHUNK)
    }

    /// Assert `rows` in micro-batches of at most `chunk_size`, running
    /// one propagation fixpoint per batch. Infallible: the returned
    /// [`BulkReport`] carries per-row outcomes; the final state always
    /// equals the sequential `create-ind` + `assert-ind` replay (see
    /// the module docs for the argument and the caveats).
    pub fn bulk_assert_chunked(&mut self, rows: &[BulkRow], chunk_size: usize) -> BulkReport {
        // A batch is accepted row by row, and its rows' names were
        // resolved before the first: a refused row forgets none of them.
        self.names_mark = None;
        let chunk_size = chunk_size.max(1);
        let _span = classic_obs::span_timed("kb.bulk_assert", &self.stats.bulk_ns);

        let mut report = BulkReport {
            rows: rows.len(),
            row_accepted: vec![false; rows.len()],
            ..BulkReport::default()
        };
        let mut ix = 0;
        while ix < rows.len() {
            if order_sensitive(self.schema(), &rows[ix].desc) {
                self.bulk_row_sequential(ix, &rows[ix], &mut report);
                ix += 1;
                continue;
            }
            // The chunk runs to the size cap or the next order-sensitive
            // row, whichever comes first.
            let cap = (ix + chunk_size).min(rows.len());
            let end = rows[ix..cap]
                .iter()
                .position(|r| order_sensitive(self.schema(), &r.desc))
                .map_or(cap, |p| ix + p);
            self.bulk_chunk(ix, &rows[ix..end], &mut report);
            ix = end;
        }

        let stats = &self.stats;
        stats.bulk_rows.add(report.rows as u64);
        stats.bulk_rows_accepted.add(report.accepted as u64);
        stats.bulk_rows_rejected.add(report.rejected as u64);
        stats.bulk_chunks.add(report.chunks);
        stats.bulk_fallbacks.add(report.sequential_fallbacks);
        report
    }

    /// Stage one row: its target, created if new, is told the row's
    /// description.
    fn stage_row(&mut self, row: &BulkRow, journal: &mut Journal) -> Result<()> {
        let iname = self.schema.symbols.individual(&row.name);
        let id = self.ensure_ind(iname, journal)?;
        self.stage_told(id, &row.desc, journal)
    }

    /// Stage every row of `chunk` (told push + contextual conjunction)
    /// in one transaction, closed by one fixpoint. Refused, the chunk is
    /// replayed through the sequential oracle path.
    fn bulk_chunk(&mut self, base: usize, chunk: &[BulkRow], report: &mut BulkReport) {
        report.chunks += 1;
        let staged = self.transact(true, |kb, journal| {
            chunk.iter().try_for_each(|row| kb.stage_row(row, journal))
        });
        match staged {
            Ok(((), chunk_report)) => {
                self.stats.assertions.add(chunk.len() as u64);
                report.accepted += chunk.len();
                report.row_accepted[base..base + chunk.len()].fill(true);
                report.absorb(&chunk_report);
            }
            // The combined fixpoint clashed (or a row's conjunction did)
            // and the pre-chunk state is back: replay through the oracle
            // path for exact per-row accept/reject parity.
            Err(_) => {
                report.sequential_fallbacks += 1;
                for (off, row) in chunk.iter().enumerate() {
                    self.bulk_row_sequential(base + off, row, report);
                }
            }
        }
    }

    /// The oracle path for one row: `create-ind` (if the target is new)
    /// and `assert-ind` as **one** transaction, so a rejection rolls
    /// back the target's creation too and the row leaves no trace.
    fn bulk_row_sequential(&mut self, row_ix: usize, row: &BulkRow, report: &mut BulkReport) {
        match self.transact(true, |kb, journal| kb.stage_row(row, journal)) {
            Ok(((), row_report)) => {
                self.stats.assertions.bump();
                report.accepted += 1;
                report.row_accepted[row_ix] = true;
                report.absorb(&row_report);
            }
            Err(e) => {
                report.rejected += 1;
                if report.rejections.len() < MAX_REJECTION_DETAIL {
                    report.rejections.push(BulkRejection {
                        row: row_ix,
                        name: row.name.clone(),
                        error: e.display(&self.schema().symbols).to_string(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classic_core::desc::IndRef;

    /// Fresh KB with roles `r`,`s`, a defined concept, and a rule — so
    /// chunked runs exercise propagation, recognition, and rule firing.
    fn base_kb() -> Kb {
        let mut kb = Kb::new();
        kb.define_role("r").unwrap();
        kb.define_role("s").unwrap();
        let r = kb.schema().symbols.find_role("r").unwrap();
        kb.define_concept("LINKED", Concept::AtLeast(1, r)).unwrap();
        let s = kb.schema().symbols.find_role("s").unwrap();
        kb.assert_rule("LINKED", Concept::AtMost(8, s)).unwrap();
        kb
    }

    /// Replay `rows` through the sequential oracle on `kb`: accept
    /// flags come from a row-by-row create+assert scratch run, and the
    /// final oracle state replays only the accepted rows (a rejected
    /// row leaves no trace — see the module docs).
    fn oracle_replay(kb: &mut Kb, rows: &[BulkRow]) -> Vec<bool> {
        let mut scratch = kb.clone();
        let flags: Vec<bool> = rows
            .iter()
            .map(|row| {
                let _ = scratch.create_ind(&row.name);
                scratch.assert_ind(&row.name, &row.desc).is_ok()
            })
            .collect();
        for (row, &ok) in rows.iter().zip(&flags) {
            if ok {
                let _ = kb.create_ind(&row.name);
                kb.assert_ind(&row.name, &row.desc)
                    .expect("accepted row must replay");
            }
        }
        flags
    }

    /// Same observable ABox: same names, and per-name equal derived
    /// normal forms and told-fact counts.
    fn assert_same_abox(a: &Kb, b: &Kb) {
        assert_eq!(a.inds.len(), b.inds.len(), "individual count");
        for ia in a.inds.iter() {
            let idb = b.find_ind(ia.name).expect("name present in both");
            let ib = &b.inds[idb.index()];
            assert_eq!(ia.told.len(), ib.told.len(), "told count");
            assert_eq!(ia.derived, ib.derived, "derived NF");
        }
    }

    fn fills_host(kb: &Kb, role: &str, v: i64) -> Concept {
        let r = kb.schema().symbols.find_role(role).unwrap();
        Concept::Fills(r, vec![IndRef::Host(classic_core::host::HostValue::Int(v))])
    }

    #[test]
    fn clean_batch_matches_oracle_with_one_fixpoint_per_chunk() {
        let mut kb = base_kb();
        let rows: Vec<BulkRow> = (0..40)
            .map(|i| BulkRow {
                name: format!("p{}", i % 10), // duplicate targets in-chunk
                desc: fills_host(&kb, "r", i),
            })
            .collect();
        let mut oracle = base_kb();
        let expect = oracle_replay(&mut oracle, &rows);

        let report = kb.bulk_assert_chunked(&rows, 16);
        assert_eq!(report.accepted, 40);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.chunks, 3); // ⌈40/16⌉
        assert_eq!(report.sequential_fallbacks, 0);
        assert_eq!(report.row_accepted, expect);
        assert_eq!(report.inds_created, 10);
        assert_same_abox(&kb, &oracle);
    }

    #[test]
    fn clashing_chunk_falls_back_with_per_row_parity() {
        let mut kb = base_kb();
        let r = kb.schema().symbols.find_role("r").unwrap();
        let rows = vec![
            BulkRow {
                name: "a".into(),
                desc: fills_host(&kb, "r", 1),
            },
            BulkRow {
                name: "a".into(),
                desc: Concept::AtMost(0, r), // clashes with the FILLS above
            },
            BulkRow {
                name: "b".into(),
                desc: fills_host(&kb, "r", 2),
            },
        ];
        let mut oracle = base_kb();
        let expect = oracle_replay(&mut oracle, &rows);
        assert_eq!(expect, vec![true, false, true]);

        let report = kb.bulk_assert_chunked(&rows, 512);
        assert_eq!(report.sequential_fallbacks, 1);
        assert_eq!(report.row_accepted, expect);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.rejections.len(), 1);
        assert_eq!(report.rejections[0].row, 1);
        assert_same_abox(&kb, &oracle);
    }

    #[test]
    fn close_rows_are_sequential_barriers() {
        let mut kb = base_kb();
        let r = kb.schema().symbols.find_role("r").unwrap();
        let rows = vec![
            BulkRow {
                name: "a".into(),
                desc: fills_host(&kb, "r", 1),
            },
            BulkRow {
                name: "a".into(),
                desc: Concept::Close(r), // contextual: closes over {1}
            },
            BulkRow {
                name: "a".into(),
                desc: fills_host(&kb, "r", 2), // must now be rejected
            },
        ];
        let mut oracle = base_kb();
        let expect = oracle_replay(&mut oracle, &rows);
        assert_eq!(expect, vec![true, true, false]);

        let report = kb.bulk_assert(&rows);
        assert_eq!(report.row_accepted, expect);
        assert_same_abox(&kb, &oracle);
    }

    #[test]
    fn rejected_row_leaves_no_trace() {
        let mut kb = base_kb();
        let r = kb.schema().symbols.find_role("r").unwrap();
        let v = kb.schema_mut().symbols.individual("V");
        // Self-clashing row on a brand-new target: both the target and
        // the referenced individual `V` must roll back.
        let rows = vec![BulkRow {
            name: "ghost".into(),
            desc: Concept::and([
                Concept::AtMost(0, r),
                Concept::Fills(r, vec![IndRef::Classic(v)]),
            ]),
        }];
        let report = kb.bulk_assert(&rows);
        assert_eq!((report.accepted, report.rejected), (0, 1));
        assert_eq!(report.inds_created, 0);
        let ghost = kb.schema().symbols.find_individual("ghost").unwrap();
        assert!(kb.ind_id(ghost).is_err(), "ghost target must roll back");
        assert!(kb.ind_id(v).is_err(), "referenced ind must roll back");
        assert_same_abox(&kb, &base_kb());
    }

    #[test]
    fn rule_firing_matches_oracle_across_chunk_boundary() {
        let mut kb = base_kb();
        // Row i fills r on x{i}; the LINKED rule then caps s at 8. A
        // later row demanding ≥9 s-fillers must be rejected either way.
        let s = kb.schema().symbols.find_role("s").unwrap();
        let mut rows: Vec<BulkRow> = (0..6)
            .map(|i| BulkRow {
                name: format!("x{i}"),
                desc: fills_host(&kb, "r", i),
            })
            .collect();
        rows.push(BulkRow {
            name: "x0".into(),
            desc: Concept::AtLeast(9, s),
        });
        let mut oracle = base_kb();
        let expect = oracle_replay(&mut oracle, &rows);
        assert_eq!(expect.last(), Some(&false));

        let report = kb.bulk_assert_chunked(&rows, 4);
        assert_eq!(report.row_accepted, expect);
        assert!(report.rules_fired >= 6);
        assert_same_abox(&kb, &oracle);
    }
}
