//! Recursive-descent parser for the paper's surface syntax.
//!
//! Top-level grammar (semicolon-terminated items):
//!
//! ```text
//! param n, m;
//! input u (1,n);
//! let a = array (1,n) [ i := i*i | i <- [1..n] ];
//! letrec* a = array ((1,1),(n,n)) [* ... *] and b = array ... ;
//! b = bigupd a [* ... *];
//! result a, b;
//! ```
//!
//! Comprehensions come in the ordinary flavor
//! `[ s := v, s2 := v2 | quals ]` and the paper's *nested* flavor
//! `[* listexpr | quals *]` whose body is itself a list expression built
//! from `++`, `where`, and further comprehensions. Generators are
//! arithmetic sequences `i <- [lo..hi]` or `i <- [a,b..hi]` (the step
//! `b - a` must fold to a nonzero integer constant).
//!
//! Subscripts left of `:=` are either a parenthesized tuple `(i,j)` or a
//! single arithmetic expression (`3*i-2`).

use std::fmt;

use crate::ast::{ArrayDef, ArrayKind, BinOp, Binding, Comp, Expr, Program, Range, SvClause, UnOp};
use crate::env::ConstEnv;
use crate::lexer::{lex, LexError, SpannedTok, Tok};

/// A parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub line: u32,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            line: e.line,
            message: e.message,
        }
    }
}

/// Parse a whole program, its comprehensions numbered by
/// [`crate::number::number_program`].
///
/// # Errors
/// Returns [`ParseError`] describing the first offending token.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let mut program = p.program()?;
    crate::number::number_program(&mut program);
    Ok(program)
}

/// Parse a single list-comprehension expression (useful in tests).
///
/// # Errors
/// Returns [`ParseError`] on malformed input or trailing tokens.
pub fn parse_comp(src: &str) -> Result<Comp, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let c = p.listexpr()?;
    p.expect_eof()?;
    Ok(c)
}

/// Parse a single scalar expression (useful in tests).
///
/// # Errors
/// Returns [`ParseError`] on malformed input or trailing tokens.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Maximum recursion depth for nested expressions/comprehensions; a
/// guard, not a grammar limit (scientific programs nest shallowly).
const MAX_DEPTH: u32 = 128;

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    depth: u32,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|s| &s.tok)
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|s| s.line)
            .unwrap_or(0)
    }

    /// Consume the next token, moving it out of the stream: the parser
    /// never looks back.
    fn bump(&mut self) -> Option<Tok> {
        let slot = self.toks.get_mut(self.pos)?;
        self.pos += 1;
        Some(std::mem::replace(&mut slot.tok, Tok::Semi))
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            line: self.line(),
            message: msg.into(),
        })
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            let found = self
                .peek()
                .map(|x| x.to_string())
                .unwrap_or_else(|| "end of input".into());
            self.err(format!("expected `{t}`, found `{found}`"))
        }
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if self.pos == self.toks.len() {
            Ok(())
        } else {
            self.err(format!(
                "unexpected trailing token `{}`",
                self.toks[self.pos].tok
            ))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            Some(other) => self.err(format!("expected identifier, found `{other}`")),
            None => self.err("expected identifier, found end of input"),
        }
    }

    // ---------------- program structure ----------------

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut prog = Program::new();
        while self.peek().is_some() {
            match self.peek().unwrap() {
                Tok::Param => {
                    self.bump();
                    loop {
                        prog.params.push(self.ident()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(&Tok::Semi)?;
                }
                Tok::Input => {
                    self.bump();
                    let name = self.ident()?;
                    let bounds = self.bounds()?;
                    self.expect(&Tok::Semi)?;
                    prog.bindings.push(Binding::Input { name, bounds });
                }
                Tok::Result => {
                    self.bump();
                    loop {
                        prog.results.push(self.ident()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(&Tok::Semi)?;
                }
                Tok::Let => {
                    self.bump();
                    // `let name = reduce (...)` / `sum` / `product`
                    // bind scalars; everything else is an array def.
                    if let (Some(Tok::Ident(_)), Some(Tok::Equals)) = (self.peek(), self.peek2()) {
                        if matches!(
                            self.toks.get(self.pos + 2).map(|t| &t.tok),
                            Some(Tok::Ident(k)) if k == "reduce" || k == "sum" || k == "product"
                        ) {
                            let binding = self.reduce_binding()?;
                            self.expect(&Tok::Semi)?;
                            prog.bindings.push(binding);
                            continue;
                        }
                    }
                    let def = self.array_def()?;
                    self.expect(&Tok::Semi)?;
                    prog.bindings.push(Binding::Let(def));
                }
                Tok::LetrecStar => {
                    self.bump();
                    let mut defs = vec![self.array_def()?];
                    while self.eat(&Tok::And) {
                        defs.push(self.array_def()?);
                    }
                    self.expect(&Tok::Semi)?;
                    prog.bindings.push(Binding::LetrecStar(defs));
                }
                Tok::Ident(_) => {
                    // `name = bigupd base comp ;`
                    let name = self.ident()?;
                    self.expect(&Tok::Equals)?;
                    self.expect(&Tok::BigUpd)?;
                    let base = self.ident()?;
                    let comp = self.listexpr()?;
                    self.expect(&Tok::Semi)?;
                    prog.bindings.push(Binding::BigUpd { name, base, comp });
                }
                other => {
                    let other = other.clone();
                    return self.err(format!("unexpected token `{other}` at top level"));
                }
            }
        }
        Ok(prog)
    }

    /// `name = reduce (op) init [ expr | quals ]` or the `sum` /
    /// `product` sugar.
    fn reduce_binding(&mut self) -> Result<Binding, ParseError> {
        let name = self.ident()?;
        self.expect(&Tok::Equals)?;
        let kw = self.ident()?;
        let (op, init) = match kw.as_str() {
            "sum" => (BinOp::Add, Expr::Num(0.0)),
            "product" => (BinOp::Mul, Expr::Num(1.0)),
            "reduce" => {
                self.expect(&Tok::LParen)?;
                let op = match self.bump() {
                    Some(Tok::Plus) => BinOp::Add,
                    Some(Tok::Star) => BinOp::Mul,
                    Some(Tok::Minus) => BinOp::Sub,
                    Some(Tok::Min) => BinOp::Min,
                    Some(Tok::Max) => BinOp::Max,
                    Some(other) => {
                        return self.err(format!("unsupported reduction operator `{other}`"))
                    }
                    None => return self.err("expected reduction operator"),
                };
                self.expect(&Tok::RParen)?;
                let init = self.atom()?;
                (op, init)
            }
            other => return self.err(format!("expected reduce/sum/product, found `{other}`")),
        };
        let comp = self.scalar_comp()?;
        Ok(Binding::Reduce {
            name,
            op,
            init,
            comp,
        })
    }

    /// `[ expr | quals ]` (++-joinable) — a comprehension of scalar
    /// values; each element becomes a subscript-less clause.
    fn scalar_comp(&mut self) -> Result<Comp, ParseError> {
        let mut terms = Vec::new();
        loop {
            self.expect(&Tok::LBracket)?;
            let value = self.expr()?;
            let body = Comp::Clause(SvClause::new(vec![], value));
            let term = if self.eat(&Tok::Bar) {
                let quals = self.quals()?;
                self.expect(&Tok::RBracket)?;
                wrap_quals(body, quals)
            } else {
                self.expect(&Tok::RBracket)?;
                body
            };
            terms.push(term);
            if !self.eat(&Tok::PlusPlus) {
                break;
            }
        }
        Ok(Comp::append(terms))
    }

    fn array_def(&mut self) -> Result<ArrayDef, ParseError> {
        let name = self.ident()?;
        self.expect(&Tok::Equals)?;
        match self.peek() {
            Some(Tok::Array) => {
                self.bump();
                let bounds = self.bounds()?;
                let comp = self.listexpr()?;
                Ok(ArrayDef {
                    name,
                    bounds,
                    comp,
                    kind: ArrayKind::Monolithic,
                })
            }
            Some(Tok::AccumArray) => {
                self.bump();
                // accumArray (+) 0 (1,n) [...]
                self.expect(&Tok::LParen)?;
                let (combine, commutative) = match self.bump() {
                    Some(Tok::Plus) => (BinOp::Add, true),
                    Some(Tok::Star) => (BinOp::Mul, true),
                    Some(Tok::Min) => (BinOp::Min, true),
                    Some(Tok::Max) => (BinOp::Max, true),
                    Some(Tok::Minus) => (BinOp::Sub, false),
                    Some(other) => {
                        return self.err(format!("unsupported combining operator `{other}`"))
                    }
                    None => return self.err("expected combining operator"),
                };
                self.expect(&Tok::RParen)?;
                let default = self.atom()?;
                let bounds = self.bounds()?;
                let comp = self.listexpr()?;
                Ok(ArrayDef {
                    name,
                    bounds,
                    comp,
                    kind: ArrayKind::Accumulated {
                        combine,
                        default,
                        commutative,
                    },
                })
            }
            _ => self.err("expected `array` or `accumArray`"),
        }
    }

    /// Haskell-style bounds: `(1,n)` for 1-D, or a pair of corner
    /// tuples `((1,1),(n,m))` = `((lo₁,lo₂),(hi₁,hi₂))` for multi-D.
    fn bounds(&mut self) -> Result<Vec<(Expr, Expr)>, ParseError> {
        self.expect(&Tok::LParen)?;
        if self.peek() == Some(&Tok::LParen) {
            let tuple = |p: &mut Self| -> Result<Vec<Expr>, ParseError> {
                p.expect(&Tok::LParen)?;
                let mut out = vec![p.expr()?];
                while p.eat(&Tok::Comma) {
                    out.push(p.expr()?);
                }
                p.expect(&Tok::RParen)?;
                Ok(out)
            };
            let lows = tuple(self)?;
            self.expect(&Tok::Comma)?;
            let highs = tuple(self)?;
            self.expect(&Tok::RParen)?;
            if lows.len() != highs.len() {
                return self.err(format!(
                    "bounds corners have different arities ({} vs {})",
                    lows.len(),
                    highs.len()
                ));
            }
            Ok(lows.into_iter().zip(highs).collect())
        } else {
            let lo = self.expr()?;
            self.expect(&Tok::Comma)?;
            let hi = self.expr()?;
            self.expect(&Tok::RParen)?;
            Ok(vec![(lo, hi)])
        }
    }

    // ---------------- comprehensions ----------------

    /// `listterm (++ listterm)*`
    fn listexpr(&mut self) -> Result<Comp, ParseError> {
        let mut guard = self.enter()?;
        let this = &mut *guard;
        let mut terms = vec![this.listterm()?];
        while this.eat(&Tok::PlusPlus) {
            terms.push(this.listterm()?);
        }
        Ok(Comp::append(terms))
    }

    fn listterm(&mut self) -> Result<Comp, ParseError> {
        let mut term = match self.peek() {
            Some(Tok::LBracket) => {
                self.bump();
                // ordinary comprehension or plain clause list
                let mut clauses = vec![self.svpair()?];
                while self.eat(&Tok::Comma) {
                    clauses.push(self.svpair()?);
                }
                let body = Comp::append(clauses);
                if self.eat(&Tok::Bar) {
                    let quals = self.quals()?;
                    self.expect(&Tok::RBracket)?;
                    wrap_quals(body, quals)
                } else {
                    self.expect(&Tok::RBracket)?;
                    body
                }
            }
            Some(Tok::LStarBracket) => {
                self.bump();
                let body = self.listexpr()?;
                let comp = if self.eat(&Tok::Bar) {
                    let quals = self.quals()?;
                    wrap_quals(body, quals)
                } else {
                    body
                };
                self.expect(&Tok::StarRBracket)?;
                comp
            }
            Some(Tok::LParen) => {
                self.bump();
                let inner = self.listexpr()?;
                self.expect(&Tok::RParen)?;
                inner
            }
            _ => return self.err("expected `[`, `[*` or `(` to begin a list expression"),
        };
        // postfix `where` binds common subexpressions over the term
        if self.eat(&Tok::Where) {
            let binds = self.binds()?;
            term = Comp::Let {
                binds,
                body: Box::new(term),
            };
        }
        Ok(term)
    }

    /// `subscripts := value (where binds)?`
    fn svpair(&mut self) -> Result<Comp, ParseError> {
        let subs = if self.peek() == Some(&Tok::LParen) {
            self.bump();
            let mut subs = vec![self.expr()?];
            while self.eat(&Tok::Comma) {
                subs.push(self.expr()?);
            }
            self.expect(&Tok::RParen)?;
            subs
        } else {
            vec![self.expr()?]
        };
        self.expect(&Tok::Assign)?;
        let value = self.expr()?;
        let clause = Comp::Clause(SvClause::new(subs, value));
        if self.eat(&Tok::Where) {
            let binds = self.binds()?;
            Ok(Comp::Let {
                binds,
                body: Box::new(clause),
            })
        } else {
            Ok(clause)
        }
    }

    fn quals(&mut self) -> Result<Vec<Qual>, ParseError> {
        let mut out = vec![self.qual()?];
        while self.eat(&Tok::Comma) {
            out.push(self.qual()?);
        }
        Ok(out)
    }

    fn qual(&mut self) -> Result<Qual, ParseError> {
        if let (Some(Tok::Ident(_)), Some(Tok::Arrow)) = (self.peek(), self.peek2()) {
            let var = self.ident()?;
            self.expect(&Tok::Arrow)?;
            self.expect(&Tok::LBracket)?;
            let first = self.expr()?;
            let (lo, step) = if self.eat(&Tok::Comma) {
                let second = self.expr()?;
                let step = self.constant_step(&first, &second)?;
                (first, step)
            } else {
                (first, 1)
            };
            self.expect(&Tok::DotDot)?;
            let hi = self.expr()?;
            self.expect(&Tok::RBracket)?;
            Ok(Qual::Gen {
                var,
                range: Range { lo, hi, step },
            })
        } else if self.eat(&Tok::Let) {
            let binds = self.binds()?;
            Ok(Qual::Let(binds))
        } else {
            Ok(Qual::Guard(self.expr()?))
        }
    }

    /// Fold `second - first` to the constant generator step.
    fn constant_step(&self, first: &Expr, second: &Expr) -> Result<i64, ParseError> {
        use crate::affine::Affine;
        let env = ConstEnv::new();
        let diff = Affine::from_expr(second, &env)
            .zip(Affine::from_expr(first, &env))
            .and_then(|(s, f)| s.checked_add(&f.checked_scale(-1)?));
        match diff {
            Some(d) if d.is_constant() && d.constant_part() != 0 => Ok(d.constant_part()),
            _ => self.err(
                "generator step (second element minus first) must fold to a nonzero \
                 integer constant",
            ),
        }
    }

    fn binds(&mut self) -> Result<Vec<(String, Expr)>, ParseError> {
        let mut out = Vec::new();
        loop {
            let name = self.ident()?;
            self.expect(&Tok::Equals)?;
            let e = self.expr()?;
            out.push((name, e));
            if !self.eat(&Tok::Semi) {
                break;
            }
            // Allow a trailing semicolon before `in`.
            if !matches!(self.peek(), Some(Tok::Ident(_))) {
                break;
            }
            // `x = e ; y = e2` continues; `x = e ;` then non-ident stops.
            if self.peek2() != Some(&Tok::Equals) {
                break;
            }
        }
        Ok(out)
    }

    fn enter(&mut self) -> Result<DepthGuard<'_>, ParseError> {
        if self.depth >= MAX_DEPTH {
            return self.err(format!("expression nests deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        Ok(DepthGuard { parser: self })
    }

    // ---------------- scalar expressions ----------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut guard = self.enter()?;
        let this = &mut *guard;
        match this.peek() {
            Some(Tok::If) => {
                this.bump();
                let cond = this.expr()?;
                this.expect(&Tok::Then)?;
                let then = this.expr()?;
                this.expect(&Tok::Else)?;
                let els = this.expr()?;
                Ok(Expr::If {
                    cond: Box::new(cond),
                    then: Box::new(then),
                    els: Box::new(els),
                })
            }
            Some(Tok::Let) => {
                this.bump();
                let binds = this.binds()?;
                this.expect(&Tok::In)?;
                let body = this.expr()?;
                Ok(Expr::Let {
                    binds,
                    body: Box::new(body),
                })
            }
            _ => this.or_expr(),
        }
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.eat(&Tok::OrOr) {
            let rhs = self.and_expr()?;
            lhs = Expr::bin(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.cmp_expr()?;
        while self.eat(&Tok::AndAnd) {
            let rhs = self.cmp_expr()?;
            lhs = Expr::bin(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Some(Tok::Lt) => BinOp::Lt,
            Some(Tok::Le) => BinOp::Le,
            Some(Tok::Gt) => BinOp::Gt,
            Some(Tok::Ge) => BinOp::Ge,
            Some(Tok::EqEq) => BinOp::Eq,
            Some(Tok::Ne) => BinOp::Ne,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(Expr::bin(op, lhs, rhs))
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                Some(Tok::Mod) => BinOp::Mod,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.unary()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Tok::Minus) => {
                self.bump();
                let e = self.unary()?;
                // Fold negated literals so `-1` is the literal −1 (and
                // printing round-trips structurally).
                Ok(match e {
                    Expr::Int(v) => Expr::Int(-v),
                    Expr::Num(v) => Expr::Num(-v),
                    other => Expr::Unary {
                        op: UnOp::Neg,
                        expr: Box::new(other),
                    },
                })
            }
            Some(Tok::Not) => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(e),
                })
            }
            _ => self.postfix(),
        }
    }

    /// Atoms with the tight-binding `!` selector: `a!(i,j)`, `a!i`.
    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let atom = self.atom()?;
        if self.peek() == Some(&Tok::Bang) {
            let array = match atom {
                Expr::Var(name) => name,
                other => {
                    return self.err(format!(
                        "`!` selects from an array variable, found `{other:?}`"
                    ))
                }
            };
            self.bump();
            let subs = if self.eat(&Tok::LParen) {
                let mut subs = vec![self.expr()?];
                while self.eat(&Tok::Comma) {
                    subs.push(self.expr()?);
                }
                self.expect(&Tok::RParen)?;
                subs
            } else {
                // `a!i`, `a!3` — a single simple subscript.
                vec![self.atom()?]
            };
            Ok(Expr::Index { array, subs })
        } else {
            Ok(atom)
        }
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(&Tok::Int(v)) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            Some(&Tok::Float(v)) => {
                self.bump();
                Ok(Expr::Num(v))
            }
            Some(Tok::Min) | Some(Tok::Max) => {
                let op = if self.bump() == Some(Tok::Min) {
                    BinOp::Min
                } else {
                    BinOp::Max
                };
                self.expect(&Tok::LParen)?;
                let a = self.expr()?;
                self.expect(&Tok::Comma)?;
                let b = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(Expr::bin(op, a, b))
            }
            Some(Tok::Ident(_)) => {
                let name = self.ident()?;
                if self.peek() == Some(&Tok::LParen) && self.peek2() != Some(&Tok::RParen) {
                    // A call `f(x, y)`. Array selection uses `!`, so an
                    // identifier followed by `(` is unambiguous here.
                    self.bump();
                    let mut args = vec![self.expr()?];
                    while self.eat(&Tok::Comma) {
                        args.push(self.expr()?);
                    }
                    self.expect(&Tok::RParen)?;
                    Ok(Expr::Call { func: name, args })
                } else {
                    Ok(Expr::Var(name))
                }
            }
            Some(Tok::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Some(other) => self.err(format!("expected expression, found `{other}`")),
            None => self.err("expected expression, found end of input"),
        }
    }
}

/// RAII guard decrementing the parser's recursion depth.
struct DepthGuard<'a> {
    parser: &'a mut Parser,
}

impl Drop for DepthGuard<'_> {
    fn drop(&mut self) {
        self.parser.depth -= 1;
    }
}

impl std::ops::Deref for DepthGuard<'_> {
    type Target = Parser;
    fn deref(&self) -> &Parser {
        self.parser
    }
}

impl std::ops::DerefMut for DepthGuard<'_> {
    fn deref_mut(&mut self) -> &mut Parser {
        self.parser
    }
}

/// A parsed qualifier, before wrapping into the `Comp` tree.
enum Qual {
    Gen { var: String, range: Range },
    Guard(Expr),
    Let(Vec<(String, Expr)>),
}

/// Wrap `body` in qualifiers: the *first* qualifier becomes the
/// *outermost* loop, per Haskell comprehension semantics.
fn wrap_quals(body: Comp, quals: Vec<Qual>) -> Comp {
    let mut comp = body;
    for q in quals.into_iter().rev() {
        comp = match q {
            Qual::Gen { var, range } => Comp::gen(var, range, comp),
            Qual::Guard(cond) => Comp::Guard {
                cond,
                body: Box::new(comp),
            },
            Qual::Let(binds) => Comp::Let {
                binds,
                body: Box::new(comp),
            },
        };
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Comp;

    #[test]
    fn parse_simple_vector() {
        let p =
            parse_program("param n;\nlet a = array (1,n) [ i := i*i | i <- [1..n] ];\n").unwrap();
        assert_eq!(p.params, vec!["n".to_string()]);
        let def = p.array_def("a").unwrap();
        assert_eq!(def.rank(), 1);
        match &def.comp {
            Comp::Gen {
                var, range, body, ..
            } => {
                assert_eq!(var, "i");
                assert_eq!(range.step, 1);
                assert!(matches!(**body, Comp::Clause(_)));
            }
            other => panic!("expected gen, got {other:?}"),
        }
    }

    #[test]
    fn parse_wavefront() {
        // The paper's §3 wavefront example, verbatim modulo whitespace.
        let src = r#"
param n;
letrec* a = array ((1,1),(n,n))
   ([ (1,j) := 1 | j <- [1..n] ] ++
    [ (i,1) := 1 | i <- [2..n] ] ++
    [ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1)
       | i <- [2..n], j <- [2..n] ]);
"#;
        let p = parse_program(src).unwrap();
        let def = p.array_def("a").unwrap();
        assert!(def.is_self_recursive());
        assert_eq!(def.comp.clause_count(), 3);
        match &def.comp {
            Comp::Append(cs) => assert_eq!(cs.len(), 3),
            other => panic!("expected append, got {other:?}"),
        }
    }

    #[test]
    fn parse_nested_comprehension() {
        // §5 example 1 shape.
        let src = r#"
[* [3*i := 1] ++
   [ 3*i-1 := a!(3*(i-1)) ] ++
   [ 3*i-2 := a!(3*i) ]
 | i <- [1..100] *]
"#;
        let c = parse_comp(src).unwrap();
        match c {
            Comp::Gen { body, .. } => match *body {
                Comp::Append(cs) => assert_eq!(cs.len(), 3),
                other => panic!("expected append, got {other:?}"),
            },
            other => panic!("expected gen, got {other:?}"),
        }
    }

    #[test]
    fn parse_where_on_clause() {
        let c = parse_comp("[ i := v + 1 where v = i*i | i <- [1..9] ]").unwrap();
        match c {
            Comp::Gen { body, .. } => assert!(matches!(*body, Comp::Let { .. })),
            other => panic!("expected gen, got {other:?}"),
        }
    }

    #[test]
    fn parse_where_on_parenthesized_term() {
        let c =
            parse_comp("[* ([ i := v ] where v = 3) ++ [ i+10 := 0 ] | i <- [1..5] *]").unwrap();
        match c {
            Comp::Gen { body, .. } => match *body {
                Comp::Append(ref cs) => {
                    assert_eq!(cs.len(), 2);
                    assert!(matches!(cs[0], Comp::Let { .. }));
                }
                ref other => panic!("expected append, got {other:?}"),
            },
            other => panic!("expected gen, got {other:?}"),
        }
    }

    #[test]
    fn parse_stepped_generator() {
        let c = parse_comp("[ i := 0 | i <- [10,8..2] ]").unwrap();
        match c {
            Comp::Gen { range, .. } => {
                assert_eq!(range.step, -2);
            }
            other => panic!("expected gen, got {other:?}"),
        }
        assert!(parse_comp("[ i := 0 | i <- [1,1..5] ]").is_err());
    }

    #[test]
    fn parse_guard_qualifier() {
        let c = parse_comp("[ i := 1 | i <- [1..10], i mod 2 == 0 ]").unwrap();
        match c {
            Comp::Gen { body, .. } => assert!(matches!(*body, Comp::Guard { .. })),
            other => panic!("expected gen, got {other:?}"),
        }
    }

    #[test]
    fn parse_bigupd_binding() {
        let src = r#"
param n;
input a ((1,n),(1,n));
b = bigupd a [ (1,j) := a!(2,j) | j <- [1..n] ];
"#;
        let p = parse_program(src).unwrap();
        match &p.bindings[1] {
            Binding::BigUpd { name, base, comp } => {
                assert_eq!(name, "b");
                assert_eq!(base, "a");
                assert_eq!(comp.clause_count(), 1);
            }
            other => panic!("expected bigupd, got {other:?}"),
        }
    }

    #[test]
    fn parse_accum_array() {
        let src =
            "param n;\nlet h = accumArray (+) 0 (1,10) [ i mod 10 + 1 := 1.0 | i <- [1..n] ];\n";
        let p = parse_program(src).unwrap();
        let def = p.array_def("h").unwrap();
        match &def.kind {
            ArrayKind::Accumulated {
                combine,
                commutative,
                ..
            } => {
                assert_eq!(*combine, BinOp::Add);
                assert!(commutative);
            }
            other => panic!("expected accumulated, got {other:?}"),
        }
    }

    #[test]
    fn parse_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        assert_eq!(
            e,
            Expr::add(Expr::int(1), Expr::mul(Expr::int(2), Expr::int(3)))
        );
        let e2 = parse_expr("a!(i-1) + 1").unwrap();
        assert_eq!(
            e2,
            Expr::add(
                Expr::index1("a", Expr::sub(Expr::var("i"), Expr::int(1))),
                Expr::int(1)
            )
        );
    }

    #[test]
    fn parse_bang_binds_tighter_than_mul() {
        let e = parse_expr("a!k * b!k").unwrap();
        assert_eq!(
            e,
            Expr::mul(
                Expr::index1("a", Expr::var("k")),
                Expr::index1("b", Expr::var("k"))
            )
        );
    }

    #[test]
    fn parse_if_and_let_exprs() {
        let e = parse_expr("if i == 1 then 1 else let v = i - 1 in v * 2").unwrap();
        assert!(matches!(e, Expr::If { .. }));
    }

    #[test]
    fn parse_2d_index_and_bounds() {
        let p = parse_program(
            "param n;\nlet a = array ((1,1),(n,n)) [ (i,j) := 0 | i <- [1..n], j <- [1..n] ];\n",
        )
        .unwrap();
        let def = p.array_def("a").unwrap();
        assert_eq!(def.rank(), 2);
    }

    #[test]
    fn parse_mutually_recursive_letrec() {
        let src = r#"
param n;
letrec* a = array (1,n) [ i := if i == 1 then 1 else b!(i-1) | i <- [1..n] ]
      and b = array (1,n) [ i := a!i + 1 | i <- [1..n] ];
"#;
        let p = parse_program(src).unwrap();
        match &p.bindings[0] {
            Binding::LetrecStar(defs) => assert_eq!(defs.len(), 2),
            other => panic!("expected letrec*, got {other:?}"),
        }
    }

    #[test]
    fn error_reports_line() {
        let err =
            parse_program("param n;\nlet a = array (1,n) [ i := | i <- [1..n] ];\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn call_expression() {
        let e = parse_expr("omega(i, j) * 2").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::Mul, .. }));
    }
}
