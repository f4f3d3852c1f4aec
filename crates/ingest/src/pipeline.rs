//! The ingest pipeline: input bytes → an [`IngestPlan`] → a loaded KB.
//!
//! Planning is pure (no KB, no I/O beyond the reader): it parses the
//! input, normalizes cells, names the row individuals, optionally
//! infers the starter TBox, and packages everything as the same
//! `(bulk-load …)` [`BulkSpec`] the surface language produces — so the
//! wire form, the CLI, and `POST /ingest` all converge on one loading
//! path. Execution then happens either in memory ([`run_in_memory`]) or
//! against a durable store ([`run_durable`], the segment-tier
//! [`DurableKb::bulk_load`] with its compaction commit point).

use crate::infer::{infer_tbox, profile_columns};
use crate::normalize::{concept_name, normalize_cell, normalize_json, role_name};
use crate::{csv, json_rows};
use classic_core::error::{ClassicError, Result};
use classic_kb::{BulkReport, Kb};
use classic_lang::{BulkRowSpec, BulkSpec, Command, Expr, IndLit, Outcome};
use classic_store::{BulkLoadReport, DurableKb};
use std::collections::BTreeMap;
use std::io::BufRead;

/// Input syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// RFC-4180-style CSV with a header record.
    Csv,
    /// NDJSON or a top-level array of flat objects.
    Json,
}

impl Format {
    /// Guess from a file name; defaults to CSV.
    pub fn from_path(path: &str) -> Format {
        let lower = path.to_ascii_lowercase();
        if lower.ends_with(".json") || lower.ends_with(".ndjson") || lower.ends_with(".jsonl") {
            Format::Json
        } else {
            Format::Csv
        }
    }

    /// Parse a `csv`/`json` selector.
    pub fn parse(s: &str) -> Option<Format> {
        match s {
            "csv" => Some(Format::Csv),
            "json" | "ndjson" => Some(Format::Json),
            _ => None,
        }
    }
}

/// What to ingest and how.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Input syntax.
    pub format: Format,
    /// Entity name; becomes the concept name (uppercased) and the
    /// row-name prefix (lowercased).
    pub entity: String,
    /// Column whose value names each row's individual (matched against
    /// the raw header or its sanitized role name). `None` numbers rows
    /// `entity-1`, `entity-2`, ….
    pub id_column: Option<String>,
    /// Infer a starter TBox (`define-role`s + a `define-concept` the
    /// rows are loaded `into`). Without it, the plan still defines the
    /// columns' roles but asserts no concept membership.
    pub infer: bool,
    /// Where the input came from, for report/script headers.
    pub source: String,
}

/// Everything needed to execute one ingest, in either tier.
#[derive(Debug, Clone)]
pub struct IngestPlan {
    /// The (uppercased) entity concept name.
    pub entity: String,
    /// Schema preamble: `define-role`s, plus the inferred
    /// `define-concept` when inference is on.
    pub ddl: Vec<Command>,
    /// The preamble as a surface-language script (what `--emit-tbox`
    /// writes and `classic-analyze` lints): the `ddl` commands, one per
    /// line, as the language's writer records them.
    pub tbox_script: String,
    /// Inference notes: widened/dropped constraints.
    pub notes: Vec<String>,
    /// The rows, as the surface `(bulk-load …)` form would carry them.
    pub spec: BulkSpec,
}

impl IngestPlan {
    /// Rows in the plan.
    pub fn rows(&self) -> usize {
        self.spec.rows.len()
    }
}

/// Read, normalize, name, and (optionally) infer — everything except
/// touching a KB.
pub fn plan(reader: impl BufRead, opts: &IngestOptions) -> Result<IngestPlan> {
    let (raw_columns, rows) = read_normalized(reader, opts.format)?;
    let entity = concept_name(&opts.entity);
    let (columns, named_rows) = name_rows(&raw_columns, rows, opts, &entity)?;

    let roles: Vec<String> = columns.iter().map(|c| role_name(c)).collect();
    let mut seen: BTreeMap<&str, &str> = BTreeMap::new();
    for (role, col) in roles.iter().zip(&columns) {
        if let Some(first) = seen.insert(role.as_str(), col.as_str()) {
            return Err(ClassicError::Malformed(format!(
                "columns {first:?} and {col:?} both map to role {role:?}"
            )));
        }
    }

    let (header, ddl, notes, into) = if opts.infer {
        let values: Vec<Vec<Option<IndLit>>> = named_rows.iter().map(|(_, v)| v.clone()).collect();
        let profiles = profile_columns(&roles, &values);
        let tbox = infer_tbox(&entity, &profiles);
        let header = format!(
            "; starter TBox inferred by classic-ingest from {}\n\
             ; Data-derived constraints; soundness caveats: docs/INGEST.md section 4.\n",
            opts.source
        );
        (
            header,
            tbox.ddl,
            tbox.notes,
            Some(Expr::Name(entity.clone())),
        )
    } else {
        let ddl = roles.iter().cloned().map(Command::DefineRole).collect();
        let header = format!("; roles for columns of {}\n", opts.source);
        (header, ddl, Vec::new(), None)
    };
    let tbox_script = script_of(header, &ddl)?;

    let spec = BulkSpec {
        into,
        roles,
        rows: named_rows
            .into_iter()
            .map(|(name, values)| BulkRowSpec { name, values })
            .collect(),
    };
    Ok(IngestPlan {
        entity,
        ddl,
        tbox_script,
        notes,
        spec,
    })
}

/// The DDL as a script: each command's [record](classic_lang::Write::record)
/// on its own line under `header`, resolved against a scratch KB — which
/// also refuses, at plan time, a preamble no segment could hold.
fn script_of(mut script: String, ddl: &[Command]) -> Result<String> {
    let mut scratch = Kb::new();
    for cmd in ddl {
        let write = cmd
            .to_write(scratch.schema_mut())?
            .expect("the preamble is definitions");
        script.push_str(&write.record(&scratch)?);
        script.push('\n');
    }
    Ok(script)
}

/// One normalized row: each cell is `Some(literal)` or missing.
type Cells = Vec<Option<IndLit>>;

/// Rows after naming: each carries the individual name it will assert.
type NamedRows = Vec<(String, Cells)>;

/// Parse the input and normalize every cell to an operand.
fn read_normalized(reader: impl BufRead, format: Format) -> Result<(Vec<String>, Vec<Cells>)> {
    match format {
        Format::Csv => {
            let (header, records) = csv::read_table(reader)?;
            let rows = records
                .iter()
                .map(|rec| rec.iter().map(|cell| normalize_cell(cell)).collect())
                .collect();
            Ok((header, rows))
        }
        Format::Json => {
            let (columns, objects) = json_rows::read_rows(reader)?;
            let mut rows = Vec::with_capacity(objects.len());
            for obj in &objects {
                let mut row = Vec::with_capacity(columns.len());
                for col in &columns {
                    row.push(match obj.get(col) {
                        Some(v) => normalize_json(v)?,
                        None => None,
                    });
                }
                rows.push(row);
            }
            Ok((columns, rows))
        }
    }
}

/// Assign each row its individual name; with an id column, that column
/// is consumed (it names the individual rather than filling a role) and
/// ids must be present and unique.
fn name_rows(
    columns: &[String],
    rows: Vec<Cells>,
    opts: &IngestOptions,
    entity: &str,
) -> Result<(Vec<String>, NamedRows)> {
    let prefix = entity.to_ascii_lowercase();
    let Some(id_col) = &opts.id_column else {
        let named = rows
            .into_iter()
            .enumerate()
            .map(|(ix, values)| (format!("{prefix}-{}", ix + 1), values))
            .collect();
        return Ok((columns.to_vec(), named));
    };
    let id_ix = columns
        .iter()
        .position(|c| c == id_col || role_name(c) == role_name(id_col))
        .ok_or_else(|| {
            ClassicError::Malformed(format!(
                "id column {id_col:?} is not in the header {columns:?}"
            ))
        })?;
    let kept: Vec<String> = columns
        .iter()
        .enumerate()
        .filter(|(ix, _)| *ix != id_ix)
        .map(|(_, c)| c.clone())
        .collect();
    let mut named = Vec::with_capacity(rows.len());
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    for (ix, mut values) in rows.into_iter().enumerate() {
        let id = values.remove(id_ix);
        let Some(id) = id else {
            return Err(ClassicError::Malformed(format!(
                "row {}: missing id in column {id_col:?}",
                ix + 1
            )));
        };
        let name = crate::normalize::sanitize_symbol(&match &id {
            IndLit::Name(n) | IndLit::Str(n) | IndLit::Sym(n) => n.clone(),
            IndLit::Int(i) => i.to_string(),
            IndLit::Float(v) => v.to_string(),
        });
        if let Some(first) = seen.insert(name.clone(), ix + 1) {
            return Err(ClassicError::Malformed(format!(
                "duplicate id {name:?}: rows {first} and {} (ids must be unique; \
                 use the (bulk-load …) form directly to merge facts into one individual)",
                ix + 1
            )));
        }
        named.push((name, values));
    }
    Ok((kept, named))
}

/// Execute a plan against a fresh in-memory KB (the `--dry-run`
/// default of the CLI): apply the DDL, then one bulk assert.
pub fn run_in_memory(plan: &IngestPlan) -> Result<(Kb, BulkReport)> {
    let mut kb = Kb::new();
    for cmd in &plan.ddl {
        classic_lang::eval(&mut kb, cmd)?;
    }
    let rows = plan.spec.to_write(kb.schema_mut())?;
    let Outcome::BulkLoaded(report) = rows.apply(&mut kb)? else {
        unreachable!("a bulk-load yields its report");
    };
    Ok((kb, report))
}

/// Execute a plan against a durable store through the segment-tier
/// [`DurableKb::bulk_load`]. Schema definitions already present in the
/// store are skipped (first ingest wins; a changed inference for an
/// existing concept name is *not* applied silently — re-define it
/// explicitly if that is what you want).
pub fn run_durable(store: &mut DurableKb, plan: &IngestPlan) -> Result<BulkLoadReport> {
    let kb = store.kb_hydrated()?;
    let ddl: Vec<Command> = plan
        .ddl
        .iter()
        .filter(|cmd| match cmd {
            Command::DefineRole(name) | Command::DefineAttribute(name) => {
                kb.schema().symbols.find_role(name).is_none()
            }
            Command::DefineConcept(name, _) => kb.schema().symbols.find_concept(name).is_none(),
            _ => true,
        })
        .cloned()
        .collect();
    store.bulk_load(&ddl, &plan.spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(format: Format, infer: bool, id: Option<&str>) -> IngestOptions {
        IngestOptions {
            format,
            entity: "person".into(),
            id_column: id.map(str::to_string),
            infer,
            source: "test".into(),
        }
    }

    const CSV: &str = "id,name,age,team\n\
                       p1,Ada,36,blue\n\
                       p2,Grace,45,red\n\
                       p3,Annie,,blue\n\
                       p4,Jean,32,red\n";

    #[test]
    fn csv_plan_infers_and_loads() {
        let plan = plan(CSV.as_bytes(), &opts(Format::Csv, true, Some("id"))).unwrap();
        assert_eq!(plan.entity, "PERSON");
        assert_eq!(plan.spec.roles, ["name", "age", "team"]);
        assert_eq!(plan.rows(), 4);
        assert!(plan.tbox_script.contains("(ALL age INTEGER)"));
        assert!(
            plan.tbox_script
                .contains("(ALL team (ONE-OF \"blue\" \"red\"))"),
            "{}",
            plan.tbox_script
        );
        let (mut kb, report) = run_in_memory(&plan).unwrap();
        assert_eq!(report.accepted, 4);
        let out = classic_lang::run_script(&mut kb, "(retrieve PERSON)").unwrap();
        let Outcome::Individuals(names) = out.last().unwrap() else {
            panic!("expected individuals");
        };
        assert_eq!(names, &["p1", "p2", "p3", "p4"]);
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let src = "id,v\na,1\na,2\n";
        let err = plan(src.as_bytes(), &opts(Format::Csv, false, Some("id"))).unwrap_err();
        assert!(err.to_string().contains("duplicate id"), "{err}");
    }

    #[test]
    fn missing_id_is_rejected() {
        let src = "id,v\n,1\n";
        let err = plan(src.as_bytes(), &opts(Format::Csv, false, Some("id"))).unwrap_err();
        assert!(err.to_string().contains("missing id"), "{err}");
    }

    #[test]
    fn unnamed_rows_are_numbered() {
        let plan = plan("v\n1\n2\n".as_bytes(), &opts(Format::Csv, false, None)).unwrap();
        assert_eq!(plan.spec.rows[0].name, "person-1");
        assert_eq!(plan.spec.rows[1].name, "person-2");
        assert!(plan.spec.into.is_none());
    }

    #[test]
    fn mixed_type_json_column_drops_the_all_restriction() {
        let src = "{\"id\": \"a\", \"v\": 1}\n{\"id\": \"b\", \"v\": \"x\"}\n";
        let plan = plan(src.as_bytes(), &opts(Format::Json, true, Some("id"))).unwrap();
        assert!(!plan.tbox_script.contains("(ALL v"), "{}", plan.tbox_script);
        assert!(plan.notes.iter().any(|n| n.contains("mixed value types")));
        // The rows still load — only the inferred restriction is gone.
        let (_, report) = run_in_memory(&plan).unwrap();
        assert_eq!(report.accepted, 2);
    }

    #[test]
    fn colliding_sanitized_columns_are_rejected() {
        let err = plan(
            "First Name,first-name\na,b\n".as_bytes(),
            &opts(Format::Csv, false, None),
        )
        .unwrap_err();
        assert!(err.to_string().contains("both map to role"), "{err}");
    }
}
