//! A concrete text syntax for naïve databases.
//!
//! One fact per `;`-or-newline-separated entry:
//!
//! ```text
//! R(1, ?x, 3); R(?x, 2, _); S(4)
//! ```
//!
//! * integers are constants;
//! * `?name` is a named null — repeated occurrences denote the *same*
//!   null (naïve interpretation);
//! * `_` is an anonymous null, fresh at every occurrence (Codd-style).
//!
//! The schema is inferred from the facts (relation name ↦ arity), or
//! checked against a provided one.

use ca_core::store::MAX_COLUMNS;
use ca_core::value::{NullGen, Value};

use crate::database::NaiveDatabase;
use crate::schema::Schema;

/// A parse error with a message and byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    named: Vec<String>,
    gen: NullGen,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self.input[self.pos..].starts_with(|c: char| c.is_whitespace() || c == ';') {
            self.pos += 1;
        }
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos == self.input.len()
    }

    fn eat(&mut self, token: char) -> bool {
        self.skip_ws();
        if self.input[self.pos..].starts_with(token) {
            self.pos += token.len_utf8();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let rest = &self.input[self.pos..];
        let len = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .map(char::len_utf8)
            .sum::<usize>();
        if len == 0 || !rest.starts_with(|c: char| c.is_alphabetic()) {
            return Err(self.error("expected a relation name"));
        }
        self.pos += len;
        Ok(rest[..len].to_owned())
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        let rest = &self.input[self.pos..];
        if rest.starts_with('_') {
            self.pos += 1;
            return Ok(self.gen.fresh_value());
        }
        if let Some(stripped) = rest.strip_prefix('?') {
            let len = stripped
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .map(char::len_utf8)
                .sum::<usize>();
            if len == 0 {
                return Err(self.error("expected a null name after `?`"));
            }
            let name = &stripped[..len];
            self.pos += 1 + len;
            let id = match self.named.iter().position(|n| n == name) {
                Some(i) => i as u32,
                None => {
                    self.named.push(name.to_owned());
                    (self.named.len() - 1) as u32
                }
            };
            return Ok(Value::null(id));
        }
        let len = rest
            .char_indices()
            .take_while(|&(i, c)| c.is_ascii_digit() || (i == 0 && c == '-'))
            .count();
        if len == 0 {
            return Err(self.error("expected a constant, `?null`, or `_`"));
        }
        let text = &rest[..len];
        let v: i64 = text
            .parse()
            .map_err(|_| self.error(format!("bad integer `{text}`")))?;
        self.pos += len;
        Ok(Value::Const(v))
    }
}

/// Parse a naïve database, inferring the schema from the facts. Named
/// nulls `?x` get ids `0, 1, …` in order of first appearance; anonymous
/// nulls `_` get fresh ids above them.
pub fn parse_database(input: &str) -> Result<NaiveDatabase, ParseError> {
    // Reserve null ids: named nulls are interned first; anonymous ones
    // start high to avoid clashes.
    let mut p = Parser {
        input,
        pos: 0,
        named: Vec::new(),
        gen: NullGen::starting_at(1_000_000),
    };
    let mut facts: Vec<(String, Vec<Value>, usize)> = Vec::new();
    while !p.at_end() {
        let start = p.pos;
        let rel = p.ident()?;
        if !p.eat('(') {
            return Err(p.error("expected `(`"));
        }
        let mut args = Vec::new();
        p.skip_ws();
        if !p.input[p.pos..].starts_with(')') {
            loop {
                args.push(p.value()?);
                if !p.eat(',') {
                    break;
                }
            }
        }
        if !p.eat(')') {
            return Err(p.error("expected `)`"));
        }
        facts.push((rel, args, start));
    }
    // Infer schema. The database bridges into a fact store, which holds
    // at most MAX_COLUMNS columns in all.
    let mut schema = Schema::new();
    let mut n_cols = 0usize;
    for (rel, args, start) in &facts {
        let arity = schema
            .relation(rel)
            .map_or(args.len(), |sym| schema.arity(sym));
        if arity != args.len() {
            let message = format!("relation {rel} used with arity {arity} and {}", args.len());
            return Err(ParseError {
                message,
                offset: *start,
            });
        }
        let n_rels = schema.len();
        schema.add_relation(rel, args.len());
        if schema.len() > n_rels {
            n_cols = n_cols.saturating_add(args.len());
            if n_cols > MAX_COLUMNS {
                return Err(ParseError {
                    message: format!(
                        "relation {rel} takes the database past {MAX_COLUMNS} columns"
                    ),
                    offset: *start,
                });
            }
        }
    }
    let mut db = NaiveDatabase::new(schema);
    for (rel, args, _) in facts {
        db.add(&rel, args);
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::build::{c, n};

    #[test]
    fn constants_and_named_nulls() {
        let db = parse_database("R(1, ?x); R(?x, 2)").unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(db.facts().next().unwrap().args, vec![c(1), n(0)]);
        assert_eq!(db.facts().nth(1).unwrap().args, vec![n(0), c(2)]);
        assert!(!db.is_codd()); // ?x repeats
    }

    #[test]
    fn relations_past_the_column_budget_are_a_parse_error() {
        let row = |rel: &str, arity: usize| format!("{rel}({})", vec!["1"; arity].join(", "));
        let at = format!("A(1); {}", row("B", MAX_COLUMNS - 1));
        assert_eq!(parse_database(&at).expect("at the budget").len(), 2);
        let past = format!("A(1); A(2); {}", row("B", MAX_COLUMNS));
        let err = parse_database(&past).expect_err("past the budget");
        assert_eq!(err.offset, "A(1); A(2); ".len());
    }

    #[test]
    fn one_relation_at_two_arities_is_a_parse_error() {
        let err = parse_database("R(1); S(2); R(1, 2)").expect_err("two arities");
        assert_eq!(err.offset, "R(1); S(2); ".len());
        assert!(err.message.contains("arity 1 and 2"), "{}", err.message);
    }

    #[test]
    fn anonymous_nulls_are_fresh() {
        let db = parse_database("R(_, _)").unwrap();
        let args = db.facts().next().unwrap().args;
        assert!(args[0].is_null() && args[1].is_null());
        assert_ne!(args[0], args[1]);
        assert!(db.is_codd());
    }

    #[test]
    fn newline_and_semicolon_separators() {
        let db = parse_database("R(1)\nR(2);R(3)").unwrap();
        assert_eq!(db.len(), 3);
    }

    #[test]
    fn multi_relation_schema_inference() {
        let db = parse_database("R(1, 2); S(?a); T()").unwrap();
        assert_eq!(db.schema.len(), 3);
        assert_eq!(db.schema.arity(db.schema.relation("R").unwrap()), 2);
        assert_eq!(db.schema.arity(db.schema.relation("T").unwrap()), 0);
    }

    #[test]
    fn negative_constants() {
        let db = parse_database("R(-7)").unwrap();
        assert_eq!(db.facts().next().unwrap().args, vec![c(-7)]);
    }

    #[test]
    fn errors() {
        assert!(parse_database("R(").is_err());
        assert!(parse_database("R(?)").is_err());
        assert!(parse_database("1(2)").is_err());
        assert!(parse_database("R(1) garbage").is_err());
    }

    #[test]
    fn parsed_database_interoperates() {
        // The paper's example via the text syntax.
        let d = parse_database("D(1,2,?x1); D(?x2,?x1,3); D(?x3,5,1)").unwrap();
        let r = parse_database("D(1,2,4); D(3,4,3); D(5,5,1); D(3,7,8)").unwrap();
        assert!(crate::hom::find_hom(&d, &r).is_some());
    }
}
