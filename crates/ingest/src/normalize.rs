//! The normalizer: raw cells → surface-language operands.
//!
//! Every value that enters the KB through ingest is first mapped to an
//! [`IndLit`] (the parser's individual-literal AST), so the bulk path
//! sees exactly what a hand-written `(bulk-load …)` form would contain
//! and every downstream renderer (store log lines, segment snapshots)
//! round-trips. The mapping rules are normative in `docs/INGEST.md` §3:
//!
//! | cell | operand |
//! |------|---------|
//! | empty / `_` / JSON `null` | missing (no assertion) |
//! | `@Name` | reference to the CLASSIC individual `Name` |
//! | integer lexeme / integral JSON number | host integer |
//! | float lexeme / JSON number | host float |
//! | `true` / `false` (JSON boolean or bare CSV cell) | host symbol |
//! | anything else | host string |

use classic_core::error::{ClassicError, Result};
use classic_core::F64;
use classic_lang::IndLit;
use classic_obs::Json;

/// Map a raw CSV cell to an operand, `None` meaning "missing".
pub fn normalize_cell(raw: &str) -> Option<IndLit> {
    let cell = raw.trim();
    if cell.is_empty() || cell == "_" {
        return None;
    }
    if let Some(name) = cell.strip_prefix('@') {
        return Some(IndLit::Name(sanitize_symbol(name)));
    }
    if cell == "true" || cell == "false" {
        return Some(IndLit::Sym(cell.to_string()));
    }
    if let Ok(i) = cell.parse::<i64>() {
        return Some(IndLit::Int(i));
    }
    if let Ok(v) = cell.parse::<f64>() {
        if v.is_finite() {
            return Some(IndLit::Float(F64(v)));
        }
    }
    Some(IndLit::Str(cell.to_string()))
}

/// Map a scalar JSON value to an operand. JSON strings are *not*
/// re-lexed as numbers — a quoted `"42"` stays a string; only the
/// `@Name` reference convention carries over from CSV.
pub fn normalize_json(v: &Json) -> Result<Option<IndLit>> {
    Ok(match v {
        Json::Null => None,
        Json::Bool(b) => Some(IndLit::Sym(b.to_string())),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() <= (i64::MAX as f64 / 2.0) {
                Some(IndLit::Int(*n as i64))
            } else if n.is_finite() {
                Some(IndLit::Float(F64(*n)))
            } else {
                return Err(ClassicError::Malformed("json number is not finite".into()));
            }
        }
        Json::Str(s) => match s.strip_prefix('@') {
            Some(name) => Some(IndLit::Name(sanitize_symbol(name))),
            None => Some(IndLit::Str(s.clone())),
        },
        Json::Arr(_) | Json::Obj(_) => {
            return Err(ClassicError::Malformed(
                "nested json values are not ingestable".into(),
            ))
        }
    })
}

/// Coerce arbitrary external text into a valid surface-language symbol:
/// `[A-Za-z0-9_-]` survives, every other character maps to `-`, and a
/// leading character that would lex as something else (digit, `-`, or
/// nothing at all) gets an `x` prefix. Identity on names that are
/// already valid symbols, so `@Rocky` references the individual a
/// script would call `Rocky`.
pub fn sanitize_symbol(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
            out.push(c);
        } else {
            out.push('-');
        }
    }
    match out.chars().next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => out,
        _ => format!("x{out}"),
    }
}

/// A role name from a column header: sanitized and lowercased (CLASSIC
/// convention: roles lowercase, concepts uppercase).
pub fn role_name(column: &str) -> String {
    sanitize_symbol(column).to_ascii_lowercase()
}

/// A concept name for the entity: sanitized and uppercased.
pub fn concept_name(entity: &str) -> String {
    sanitize_symbol(entity).to_ascii_uppercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_map_per_the_normative_table() {
        assert_eq!(normalize_cell(""), None);
        assert_eq!(normalize_cell("  _  "), None);
        assert_eq!(normalize_cell("42"), Some(IndLit::Int(42)));
        assert_eq!(normalize_cell("-7"), Some(IndLit::Int(-7)));
        assert_eq!(normalize_cell("2.5"), Some(IndLit::Float(F64(2.5))));
        assert_eq!(normalize_cell("true"), Some(IndLit::Sym("true".into())));
        assert_eq!(
            normalize_cell("@Volvo 17"),
            Some(IndLit::Name("Volvo-17".into()))
        );
        assert_eq!(
            normalize_cell("Murray Hill"),
            Some(IndLit::Str("Murray Hill".into()))
        );
    }

    #[test]
    fn json_strings_stay_strings() {
        assert_eq!(
            normalize_json(&Json::Str("42".into())).unwrap(),
            Some(IndLit::Str("42".into()))
        );
        assert_eq!(
            normalize_json(&Json::Num(3.0)).unwrap(),
            Some(IndLit::Int(3))
        );
        assert_eq!(
            normalize_json(&Json::Num(3.5)).unwrap(),
            Some(IndLit::Float(F64(3.5)))
        );
        assert_eq!(normalize_json(&Json::Null).unwrap(), None);
    }

    #[test]
    fn sanitized_symbols_lex_as_symbols() {
        assert_eq!(sanitize_symbol("Rocky"), "Rocky");
        assert_eq!(sanitize_symbol("first name"), "first-name");
        assert_eq!(sanitize_symbol("42nd"), "x42nd");
        assert_eq!(sanitize_symbol(""), "x");
        assert_eq!(role_name("First Name"), "first-name");
        assert_eq!(concept_name("employee"), "EMPLOYEE");
    }
}
