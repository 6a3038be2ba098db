//! Text syntax for FOTL constraints.
//!
//! Grammar (loosest binding first; quantifiers extend maximally right):
//!
//! ```text
//! formula := quant | iff
//! quant   := ("forall" | "exists") ident+ "." formula
//! iff     := impl ( "<->" impl )*
//! impl    := or ( "->" impl )?
//! or      := and ( "|" and )*
//! and     := temp ( "&" temp )*
//! temp    := unary ( ("U" | "R" | "S") temp )?
//! unary   := ("!" | "X" | "F" | "G" | "Y" | "O" | "H") unary | quant | primary
//! primary := "true" | "false" | atom | "(" formula ")"
//! atom    := pred "(" term ("," term)* ")" | "succ" "(" t "," t ")"
//!          | "zero" "(" t ")" | term ("=" | "!=" | "<=") term
//! term    := ident | integer
//! ```
//!
//! Identifiers are resolved against the supplied schema: a predicate
//! name must be applied to arguments; a constant name denotes the
//! constant; anything else is a variable. `R` (release) is accepted as
//! sugar for `¬(¬a U ¬b)` — the paper's FOTL has no primitive release.
//!
//! Example (the paper's first constraint):
//!
//! ```text
//! forall x. G (Sub(x) -> X G !Sub(x))
//! ```

use crate::formula::Formula;
use crate::term::{Atom, Term};
use std::fmt;
use ticc_tdb::{Schema, Value};

/// A parse error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending token.
    pub at: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(Value),
    Forall,
    Exists,
    True,
    False,
    Not,
    And,
    Or,
    Implies,
    Iff,
    Eq,
    Neq,
    Leq,
    LParen,
    RParen,
    Comma,
    Dot,
    Next,
    Finally,
    Globally,
    Until,
    Release,
    Prev,
    Since,
    Once,
    Hist,
    Succ,
    Zero,
    Eof,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn next_token(&mut self) -> Result<(usize, Tok), ParseError> {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        let start = self.pos;
        if self.pos >= self.src.len() {
            return Ok((start, Tok::Eof));
        }
        let c = self.src[self.pos];
        let tok = match c {
            b'(' => {
                self.pos += 1;
                Tok::LParen
            }
            b')' => {
                self.pos += 1;
                Tok::RParen
            }
            b',' => {
                self.pos += 1;
                Tok::Comma
            }
            b'.' => {
                self.pos += 1;
                Tok::Dot
            }
            b'=' => {
                self.pos += 1;
                Tok::Eq
            }
            b'!' => {
                if self.src.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Tok::Neq
                } else {
                    self.pos += 1;
                    Tok::Not
                }
            }
            b'&' => {
                self.pos += 1;
                if self.src.get(self.pos) == Some(&b'&') {
                    self.pos += 1;
                }
                Tok::And
            }
            b'|' => {
                self.pos += 1;
                if self.src.get(self.pos) == Some(&b'|') {
                    self.pos += 1;
                }
                Tok::Or
            }
            b'-' => {
                if self.src.get(self.pos + 1) == Some(&b'>') {
                    self.pos += 2;
                    Tok::Implies
                } else {
                    return Err(self.err("expected '->'"));
                }
            }
            b'<' => {
                if self.src.get(self.pos + 1) == Some(&b'-')
                    && self.src.get(self.pos + 2) == Some(&b'>')
                {
                    self.pos += 3;
                    Tok::Iff
                } else if self.src.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Tok::Leq
                } else {
                    return Err(self.err("expected '<=' or '<->'"));
                }
            }
            c if c.is_ascii_digit() => {
                let s = self.pos;
                while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.src[s..self.pos]).unwrap();
                let v: Value = text
                    .parse()
                    .map_err(|_| self.err(format!("integer literal {text} out of range")))?;
                Tok::Int(v)
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let s = self.pos;
                while self.pos < self.src.len()
                    && (self.src[self.pos].is_ascii_alphanumeric()
                        || self.src[self.pos] == b'_'
                        || self.src[self.pos] == b'\'')
                {
                    self.pos += 1;
                }
                let word = std::str::from_utf8(&self.src[s..self.pos]).unwrap();
                match word {
                    "forall" => Tok::Forall,
                    "exists" => Tok::Exists,
                    "true" => Tok::True,
                    "false" => Tok::False,
                    "succ" => Tok::Succ,
                    "zero" => Tok::Zero,
                    "X" => Tok::Next,
                    "F" => Tok::Finally,
                    "G" => Tok::Globally,
                    "U" => Tok::Until,
                    "R" => Tok::Release,
                    "Y" => Tok::Prev,
                    "S" => Tok::Since,
                    "O" => Tok::Once,
                    "H" => Tok::Hist,
                    _ => Tok::Ident(word.to_owned()),
                }
            }
            _ => return Err(self.err(format!("unexpected character '{}'", c as char))),
        };
        Ok((start, tok))
    }
}

/// Deepest nesting [`parse`] accepts, counting parentheses, quantifier
/// bodies, prefix connectives, and right-nested binary connectives.
/// Constraints written by hand nest a few dozen levels; the bound turns
/// hostile input (a server `open` carrying 5 000 `(`) into an ordinary
/// parse error instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    lexer: Lexer<'a>,
    look: (usize, Tok),
    schema: &'a Schema,
    /// Nesting levels currently open (bounded by [`MAX_DEPTH`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, schema: &'a Schema) -> Result<Self, ParseError> {
        let mut lexer = Lexer::new(src);
        let look = lexer.next_token()?;
        Ok(Self {
            lexer,
            look,
            schema,
            depth: 0,
        })
    }

    /// Runs `f` one nesting level deeper, refusing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        f: fn(&mut Self) -> Result<Formula, ParseError>,
    ) -> Result<Formula, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err_here(format!("formula nests deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let f = f(self);
        self.depth -= 1;
        f
    }

    fn bump(&mut self) -> Result<Tok, ParseError> {
        let next = self.lexer.next_token()?;
        Ok(std::mem::replace(&mut self.look, next).1)
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<(), ParseError> {
        if self.look.1 == tok {
            self.bump()?;
            Ok(())
        } else {
            Err(self.err_here(format!("expected {what}")))
        }
    }

    fn err_here(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            at: self.look.0,
            message: message.into(),
        }
    }

    fn formula(&mut self) -> Result<Formula, ParseError> {
        if matches!(self.look.1, Tok::Forall | Tok::Exists) {
            return self.quantified();
        }
        let mut left = self.implication()?;
        while self.look.1 == Tok::Iff {
            self.bump()?;
            let right = self.implication()?;
            let l2 = left.clone();
            let r2 = right.clone();
            left = left.implies(right).and(r2.implies(l2));
        }
        Ok(left)
    }

    fn quantified(&mut self) -> Result<Formula, ParseError> {
        let universal = self.look.1 == Tok::Forall;
        self.bump()?;
        let mut vars = Vec::new();
        loop {
            match self.bump()? {
                Tok::Ident(v) => {
                    if self.schema.pred(&v).is_some() || self.schema.constant(&v).is_some() {
                        return Err(
                            self.err_here(format!("cannot bind '{v}': it names a schema symbol"))
                        );
                    }
                    vars.push(v);
                }
                _ => return Err(self.err_here("expected variable name after quantifier")),
            }
            if self.look.1 == Tok::Dot {
                self.bump()?;
                break;
            }
            if !matches!(self.look.1, Tok::Ident(_)) {
                return Err(self.err_here("expected variable name or '.'"));
            }
        }
        let body = self.nested(Self::formula)?;
        Ok(vars.into_iter().rev().fold(body, |acc, v| {
            if universal {
                Formula::forall(v, acc)
            } else {
                Formula::exists(v, acc)
            }
        }))
    }

    fn implication(&mut self) -> Result<Formula, ParseError> {
        let left = self.or()?;
        if self.look.1 == Tok::Implies {
            self.bump()?;
            let right = self.nested(Self::implication)?;
            return Ok(left.implies(right));
        }
        Ok(left)
    }

    fn or(&mut self) -> Result<Formula, ParseError> {
        let mut left = self.and()?;
        while self.look.1 == Tok::Or {
            self.bump()?;
            let right = self.and()?;
            left = left.or(right);
        }
        Ok(left)
    }

    fn and(&mut self) -> Result<Formula, ParseError> {
        let mut left = self.temporal()?;
        while self.look.1 == Tok::And {
            self.bump()?;
            let right = self.temporal()?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn temporal(&mut self) -> Result<Formula, ParseError> {
        let left = self.unary()?;
        match self.look.1 {
            Tok::Until => {
                self.bump()?;
                let right = self.nested(Self::temporal)?;
                Ok(left.until(right))
            }
            Tok::Release => {
                // a R b ≡ ¬(¬a U ¬b)
                self.bump()?;
                let right = self.nested(Self::temporal)?;
                Ok(left.not().until(right.not()).not())
            }
            Tok::Since => {
                self.bump()?;
                let right = self.nested(Self::temporal)?;
                Ok(left.since(right))
            }
            _ => Ok(left),
        }
    }

    fn unary(&mut self) -> Result<Formula, ParseError> {
        match self.look.1 {
            Tok::Not => {
                self.bump()?;
                Ok(self.nested(Self::unary)?.not())
            }
            Tok::Next => {
                self.bump()?;
                Ok(self.nested(Self::unary)?.next())
            }
            Tok::Finally => {
                self.bump()?;
                Ok(self.nested(Self::unary)?.eventually())
            }
            Tok::Globally => {
                self.bump()?;
                Ok(self.nested(Self::unary)?.always())
            }
            Tok::Prev => {
                self.bump()?;
                Ok(self.nested(Self::unary)?.prev())
            }
            Tok::Once => {
                self.bump()?;
                Ok(self.nested(Self::unary)?.once())
            }
            Tok::Hist => {
                self.bump()?;
                Ok(self.nested(Self::unary)?.historically())
            }
            Tok::Forall | Tok::Exists => self.quantified(),
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> Result<Formula, ParseError> {
        match self.bump()? {
            Tok::True => Ok(Formula::True),
            Tok::False => Ok(Formula::False),
            Tok::LParen => {
                let f = self.nested(Self::formula)?;
                self.expect(Tok::RParen, "')'")?;
                Ok(f)
            }
            Tok::Succ => {
                self.expect(Tok::LParen, "'(' after succ")?;
                let a = self.term()?;
                self.expect(Tok::Comma, "','")?;
                let b = self.term()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(Formula::Atom(Atom::Succ(a, b)))
            }
            Tok::Zero => {
                self.expect(Tok::LParen, "'(' after zero")?;
                let a = self.term()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(Formula::Atom(Atom::Zero(a)))
            }
            Tok::Ident(name) => {
                if let Some(p) = self.schema.pred(&name) {
                    self.expect(Tok::LParen, &format!("'(' after predicate {name}"))?;
                    let mut args = vec![self.term()?];
                    while self.look.1 == Tok::Comma {
                        self.bump()?;
                        args.push(self.term()?);
                    }
                    self.expect(Tok::RParen, "')'")?;
                    let expected = self.schema.arity(p);
                    if args.len() != expected {
                        return Err(self.err_here(format!(
                            "predicate {name} expects {expected} argument(s), got {}",
                            args.len()
                        )));
                    }
                    Ok(Formula::pred(p, args))
                } else {
                    let left = self.resolve_term(name);
                    self.comparison(left)
                }
            }
            Tok::Int(v) => self.comparison(Term::Value(v)),
            other => Err(self.err_here(format!("unexpected token {other:?}"))),
        }
    }

    fn comparison(&mut self, left: Term) -> Result<Formula, ParseError> {
        match self.bump()? {
            Tok::Eq => Ok(Formula::eq(left, self.term()?)),
            Tok::Neq => Ok(Formula::neq(left, self.term()?)),
            Tok::Leq => Ok(Formula::Atom(Atom::Leq(left, self.term()?))),
            _ => Err(self.err_here("expected '=', '!=' or '<=' after term")),
        }
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        match self.bump()? {
            Tok::Ident(name) => Ok(self.resolve_term(name)),
            Tok::Int(v) => Ok(Term::Value(v)),
            other => Err(self.err_here(format!("expected term, got {other:?}"))),
        }
    }

    fn resolve_term(&self, name: String) -> Term {
        match self.schema.constant(&name) {
            Some(c) => Term::Const(c),
            None => Term::Var(name),
        }
    }
}

/// Parses a FOTL formula, resolving symbols against `schema`.
pub fn parse(schema: &Schema, src: &str) -> Result<Formula, ParseError> {
    let mut p = Parser::new(src, schema)?;
    let f = p.formula()?;
    if p.look.1 != Tok::Eof {
        return Err(p.err_here("trailing input after formula"));
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretty;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .pred("Sub", 1)
            .pred("Fill", 1)
            .pred("E", 2)
            .constant("vip")
            .build()
    }

    #[test]
    fn parses_paper_constraint() {
        let sc = schema();
        let f = parse(&sc, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
        let sub = |v: &str| Formula::pred(sc.pred("Sub").unwrap(), vec![Term::var(v)]);
        let expect = Formula::forall(
            "x",
            sub("x").implies(sub("x").not().always().next()).always(),
        );
        assert_eq!(f, expect);
    }

    #[test]
    fn parses_fifo_constraint() {
        let sc = schema();
        let src = "forall x y. G !(x != y & Sub(x) & \
                   ((!Fill(x)) U (Sub(y) & ((!Fill(x)) U (Fill(y) & !Fill(x))))))";
        let f = parse(&sc, src).unwrap();
        assert!(f.is_future());
        assert_eq!(
            crate::classify::classify(&f),
            crate::classify::FormulaClass::Universal { external: 2 }
        );
    }

    #[test]
    fn constants_and_values_resolve() {
        let sc = schema();
        let f = parse(&sc, "Sub(vip) & Sub(3) & Sub(x)").unwrap();
        let sub = sc.pred("Sub").unwrap();
        let expect = Formula::pred(sub, vec![Term::Const(sc.constant("vip").unwrap())])
            .and(Formula::pred(sub, vec![Term::Value(3)]))
            .and(Formula::pred(sub, vec![Term::var("x")]));
        assert_eq!(f, expect);
    }

    #[test]
    fn extended_vocabulary() {
        let sc = schema();
        let f = parse(&sc, "forall x y. succ(x, y) -> x <= y & !zero(y)").unwrap();
        assert!(f.uses_extended_vocabulary());
    }

    #[test]
    fn multi_var_quantifier_and_nesting() {
        let sc = schema();
        let f = parse(&sc, "forall x y. E(x, y) -> exists z. E(y, z)").unwrap();
        assert_eq!(f.quantifier_count(), 3);
        assert_eq!(f.quantifier_depth(), 3);
    }

    #[test]
    fn release_desugars() {
        let sc = schema();
        let f = parse(&sc, "Sub(x) R Fill(x)").unwrap();
        let sub = Formula::pred(sc.pred("Sub").unwrap(), vec![Term::var("x")]);
        let fill = Formula::pred(sc.pred("Fill").unwrap(), vec![Term::var("x")]);
        assert_eq!(f, sub.not().until(fill.not()).not());
    }

    #[test]
    fn arity_errors_at_parse_time() {
        let sc = schema();
        let e = parse(&sc, "E(x)").unwrap_err();
        assert!(e.message.contains("expects 2"));
    }

    #[test]
    fn binding_schema_symbol_rejected() {
        let sc = schema();
        let e = parse(&sc, "forall vip. Sub(vip)").unwrap_err();
        assert!(e.message.contains("schema symbol"));
    }

    #[test]
    fn display_parse_roundtrip() {
        let sc = schema();
        for src in [
            "forall x. G (Sub(x) -> X G !Sub(x))",
            "forall x y. G (E(x, y) -> F Fill(x))",
            "G (Fill(x) -> O Sub(x))",
            "Sub(x) U (Fill(x) & x = vip)",
            "forall x. Sub(x) | Fill(x) -> x <= 5",
        ] {
            let f1 = parse(&sc, src).unwrap();
            let printed = format!("{}", pretty::formula(&sc, &f1));
            let f2 = parse(&sc, &printed).unwrap();
            assert_eq!(f1, f2, "roundtrip failed: {src} -> {printed}");
        }
    }

    #[test]
    fn hostile_nesting_is_a_parse_error() {
        let sc = schema();
        let ok = "(".repeat(MAX_DEPTH - 1) + "Sub(x)" + &")".repeat(MAX_DEPTH - 1);
        assert!(parse(&sc, &ok).is_ok());
        let deep = "(".repeat(100_000) + "Sub(x)" + &")".repeat(100_000);
        let err = parse(&sc, &deep).unwrap_err();
        assert!(err.message.contains("nests deeper"), "{err}");
        assert!(parse(&sc, &("!".repeat(100_000) + "Sub(x)")).is_err());
        assert!(parse(&sc, &"Sub(x) -> ".repeat(100_000)).is_err());
    }

    #[test]
    fn error_positions() {
        let sc = schema();
        assert!(parse(&sc, "Sub(x) &").is_err());
        assert!(parse(&sc, "(Sub(x)").is_err());
        assert!(parse(&sc, "Sub(x) Sub(y)").is_err());
        assert!(parse(&sc, "forall . Sub(x)").is_err());
        assert!(parse(&sc, "x").is_err(), "bare term is not a formula");
    }
}
