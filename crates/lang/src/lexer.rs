//! Tokenizer for the CLASSIC surface syntax.
//!
//! The concrete syntax follows the paper's parenthesized prefix notation
//! (Appendix A), uniformly s-expression shaped — including the operator
//! forms, which the paper writes with brackets (`assert-ind[Rocky, …]`)
//! and we write as `(assert-ind Rocky …)`.
//!
//! Token kinds: parentheses, bare symbols (`RICH-KID`, `thing-driven`,
//! `Rocky`), integers (`42`, `-7`), floats, double-quoted strings with
//! escapes, quoted symbols (`'red`) for host symbols, and the query marker
//! `?:`. Comments run from `;` to end of line. What a symbol character
//! is, which runs are numbers and what the escapes stand for is decided
//! by [`classic_core::lexical`], which the writers share.

use classic_core::error::{ClassicError, Result};
use classic_core::lexical::{self, is_symbol_char, Atom};
use std::fmt;

/// Source position, 1-based, for error reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// A bare identifier (concept, role, individual, or keyword).
    Symbol(String),
    /// A host integer literal.
    Int(i64),
    /// A host float literal, e.g. `1.5` (must contain a `.` or exponent).
    Float(classic_core::host::F64),
    /// A host string literal.
    Str(String),
    /// A quoted host symbol, `'red`.
    QuotedSym(String),
    /// The `?:` query marker (§3.5.3).
    Marker,
}

/// A token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// Where it started.
    pub pos: Pos,
}

/// Tokenize a complete input string.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let mut chars = input.chars().peekable();
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! bump {
        ($c:expr) => {{
            if $c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }};
    }

    while let Some(&c) = chars.peek() {
        let pos = Pos { line, col };
        match c {
            c if c.is_whitespace() => {
                chars.next();
                bump!(c);
            }
            ';' => {
                // Comment to end of line.
                for c in chars.by_ref() {
                    bump!(c);
                    if c == '\n' {
                        break;
                    }
                }
            }
            '(' => {
                chars.next();
                bump!('(');
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    pos,
                });
            }
            ')' => {
                chars.next();
                bump!(')');
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    pos,
                });
            }
            '"' => {
                chars.next();
                bump!('"');
                let mut s = String::new();
                let mut closed = false;
                while let Some(c) = chars.next() {
                    bump!(c);
                    match c {
                        '"' => {
                            closed = true;
                            break;
                        }
                        '\\' => match chars.next() {
                            // `\u{hex}`: what earlier builds' writer
                            // spelled unprintable characters as.
                            Some('u') if chars.peek() == Some(&'{') => {
                                bump!('u');
                                // At most six hex digits name a character;
                                // a seventh without the `}` cannot.
                                let hex: String = (chars.by_ref().skip(1).take(7))
                                    .take_while(|&h| h != '}')
                                    .collect();
                                col += hex.len() as u32 + 2;
                                let c = (u32::from_str_radix(&hex, 16).ok())
                                    .filter(|_| hex.len() <= 6 && !hex.starts_with('+'))
                                    .and_then(char::from_u32);
                                s.push(c.ok_or_else(|| {
                                    ClassicError::Malformed(format!(
                                        "{pos}: \\u{{{hex}}} is not a character"
                                    ))
                                })?);
                            }
                            Some(e) => {
                                bump!(e);
                                s.push(lexical::unescape(e).unwrap_or(e));
                            }
                            None => break,
                        },
                        other => s.push(other),
                    }
                }
                if !closed {
                    return Err(ClassicError::Malformed(format!(
                        "{pos}: unterminated string literal"
                    )));
                }
                tokens.push(Token {
                    kind: TokenKind::Str(s),
                    pos,
                });
            }
            '\'' => {
                chars.next();
                bump!('\'');
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if is_symbol_char(c) {
                        s.push(c);
                        chars.next();
                        bump!(c);
                    } else {
                        break;
                    }
                }
                if s.is_empty() {
                    return Err(ClassicError::Malformed(format!(
                        "{pos}: empty quoted symbol"
                    )));
                }
                tokens.push(Token {
                    kind: TokenKind::QuotedSym(s),
                    pos,
                });
            }
            '?' => {
                chars.next();
                bump!('?');
                match chars.peek() {
                    Some(':') => {
                        chars.next();
                        bump!(':');
                        tokens.push(Token {
                            kind: TokenKind::Marker,
                            pos,
                        });
                    }
                    _ => {
                        return Err(ClassicError::Malformed(format!(
                            "{pos}: expected ':' after '?' (query marker is '?:')"
                        )))
                    }
                }
            }
            c if c == '-' || c.is_ascii_digit() || is_symbol_char(c) => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    // '?' may continue a symbol (`subsumes?`) but never
                    // start one (token-initial '?' is the query marker).
                    if is_symbol_char(c) || c == '?' {
                        s.push(c);
                        chars.next();
                        bump!(c);
                    } else {
                        break;
                    }
                }
                let kind = match lexical::classify(&s) {
                    Atom::Int(i) => TokenKind::Int(i),
                    // `1e999` overflows f64 to infinity; accepting it
                    // would silently store `inf` as the told value.
                    Atom::Float(v) if !v.is_finite() => {
                        return Err(ClassicError::Malformed(format!(
                            "{pos}: float literal {s:?} overflows to a non-finite value"
                        )));
                    }
                    Atom::Float(v) => TokenKind::Float(classic_core::host::F64(v)),
                    Atom::Symbol => TokenKind::Symbol(s),
                };
                tokens.push(Token { kind, pos });
            }
            other => {
                return Err(ClassicError::Malformed(format!(
                    "{pos}: unexpected character {other:?}"
                )))
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn basic_expression() {
        let ks = kinds("(AND STUDENT (AT-LEAST 2 thing-driven))");
        assert_eq!(
            ks,
            vec![
                TokenKind::LParen,
                TokenKind::Symbol("AND".into()),
                TokenKind::Symbol("STUDENT".into()),
                TokenKind::LParen,
                TokenKind::Symbol("AT-LEAST".into()),
                TokenKind::Int(2),
                TokenKind::Symbol("thing-driven".into()),
                TokenKind::RParen,
                TokenKind::RParen,
            ]
        );
    }

    #[test]
    fn negative_number_vs_dashed_name() {
        assert_eq!(kinds("-42"), vec![TokenKind::Int(-42)]);
        assert_eq!(
            kinds("Volvo-17"),
            vec![TokenKind::Symbol("Volvo-17".into())]
        );
    }

    #[test]
    fn float_literals() {
        use classic_core::host::F64;
        assert_eq!(kinds("1.5"), vec![TokenKind::Float(F64(1.5))]);
        assert_eq!(kinds("-0.25"), vec![TokenKind::Float(F64(-0.25))]);
        assert_eq!(kinds("2e3"), vec![TokenKind::Float(F64(2000.0))]);
        // Dotted names are still symbols.
        assert_eq!(kinds("v1.x"), vec![TokenKind::Symbol("v1.x".into())]);
    }

    #[test]
    fn overflowing_float_literals_are_rejected_with_position() {
        for src in ["1e999", "-1e999", "(FILLS price 1e999)"] {
            let err = tokenize(src).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("non-finite"), "{src}: {msg}");
            assert!(msg.contains("1e999"), "{src}: {msg}");
        }
        // Numeric-looking names are unaffected by the finiteness check.
        assert_eq!(
            kinds("Volvo-17"),
            vec![TokenKind::Symbol("Volvo-17".into())]
        );
    }

    #[test]
    fn strings_and_quoted_symbols() {
        assert_eq!(
            kinds(r#""Murray Hill" 'red"#),
            vec![
                TokenKind::Str("Murray Hill".into()),
                TokenKind::QuotedSym("red".into())
            ]
        );
        assert_eq!(
            kinds(r#""esc \" aped""#),
            vec![TokenKind::Str("esc \" aped".into())]
        );
    }

    #[test]
    fn marker_token() {
        assert_eq!(
            kinds("?:PERSON"),
            vec![TokenKind::Marker, TokenKind::Symbol("PERSON".into())]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("; a comment\nPERSON ; trailing\n"),
            vec![TokenKind::Symbol("PERSON".into())]
        );
    }

    #[test]
    fn positions_track_lines() {
        let toks = tokenize("(\n  PERSON\n)").unwrap();
        assert_eq!(toks[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(toks[1].pos, Pos { line: 2, col: 3 });
        assert_eq!(toks[2].pos, Pos { line: 3, col: 1 });
    }

    #[test]
    fn lexer_errors() {
        assert!(tokenize("\"unterminated").is_err());
        assert!(tokenize("?x").is_err());
        assert!(tokenize("'").is_err());
        assert!(tokenize("#").is_err());
    }
}
