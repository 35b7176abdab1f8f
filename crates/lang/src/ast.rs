//! Abstract syntax for the paper's generalized-Haskell array language.
//!
//! The surface language is the one used throughout Anderson & Hudak
//! (PLDI '90): array comprehensions built from *nested list
//! comprehensions* (`[* ... *]` brackets), the `:=` subscript/value pair
//! operator, `++` appends, generators over arithmetic sequences, guards,
//! `let`/`where` bindings, `letrec*` strict-context recursive bindings,
//! and the semi-monolithic update construct `bigupd`.

use std::fmt;

/// A scalar binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    /// Euclidean-style remainder (`mod`).
    Mod,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
    Min,
    Max,
}

impl BinOp {
    /// `true` for operators whose result is a boolean (comparisons and
    /// logical connectives).
    pub fn is_predicate(self) -> bool {
        matches!(
            self,
            BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::Eq
                | BinOp::Ne
                | BinOp::And
                | BinOp::Or
        )
    }

    /// The operator's conventional surface spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "mod",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "/=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Min => "min",
            BinOp::Max => "max",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A scalar unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
    Abs,
    Sqrt,
    Exp,
    Log,
    Sin,
    Cos,
}

impl UnOp {
    /// The operator's conventional surface spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "not",
            UnOp::Abs => "abs",
            UnOp::Sqrt => "sqrt",
            UnOp::Exp => "exp",
            UnOp::Log => "log",
            UnOp::Sin => "sin",
            UnOp::Cos => "cos",
        }
    }
}

/// A scalar expression.
///
/// Expressions appear as subscripts, element values, loop bounds and
/// guard conditions. Arrays are referenced with the paper's `a!(i,j)`
/// selector syntax, represented by [`Expr::Index`].
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Floating-point literal.
    Num(f64),
    /// Integer literal.
    Int(i64),
    /// Variable reference (loop index, `let` binding, or free parameter).
    Var(String),
    /// Array element selection `a!(s1,...,sk)`.
    Index { array: String, subs: Vec<Expr> },
    /// Binary application.
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Unary application.
    Unary { op: UnOp, expr: Box<Expr> },
    /// `if c then t else e`.
    If {
        cond: Box<Expr>,
        then: Box<Expr>,
        els: Box<Expr>,
    },
    /// `let x = e1; y = e2 in body` (also produced by `where`).
    Let {
        binds: Vec<(String, Expr)>,
        body: Box<Expr>,
    },
    /// Call to a named scalar function (workload hooks, e.g. `omega(x)`).
    Call { func: String, args: Vec<Expr> },
}

#[allow(clippy::should_implement_trait)] // `add`/`sub`/`mul` are static constructors, not operators
impl Expr {
    /// Convenience constructor for a variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Convenience constructor for an integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Int(v)
    }

    /// Convenience constructor for a float literal.
    pub fn num(v: f64) -> Expr {
        Expr::Num(v)
    }

    /// Convenience constructor for a binary application.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `lhs + rhs`.
    pub fn add(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Add, lhs, rhs)
    }

    /// `lhs - rhs`.
    pub fn sub(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Sub, lhs, rhs)
    }

    /// `lhs * rhs`.
    pub fn mul(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mul, lhs, rhs)
    }

    /// A 1-D array selection `a!(sub)`.
    pub fn index1(array: impl Into<String>, sub: Expr) -> Expr {
        Expr::Index {
            array: array.into(),
            subs: vec![sub],
        }
    }

    /// A 2-D array selection `a!(s1,s2)`.
    pub fn index2(array: impl Into<String>, s1: Expr, s2: Expr) -> Expr {
        Expr::Index {
            array: array.into(),
            subs: vec![s1, s2],
        }
    }

    /// Visit every subexpression (including `self`), pre-order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Num(_) | Expr::Int(_) | Expr::Var(_) => {}
            Expr::Index { subs, .. } => {
                for s in subs {
                    s.walk(f);
                }
            }
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            Expr::Unary { expr, .. } => expr.walk(f),
            Expr::If { cond, then, els } => {
                cond.walk(f);
                then.walk(f);
                els.walk(f);
            }
            Expr::Let { binds, body } => {
                for (_, e) in binds {
                    e.walk(f);
                }
                body.walk(f);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
        }
    }

    /// Collect the names of all arrays selected from within this
    /// expression, in first-occurrence order without duplicates.
    pub fn referenced_arrays(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Index { array, .. } = e {
                if !out.iter().any(|a| a == array) {
                    out.push(array.clone());
                }
            }
        });
        out
    }

    /// Substitute `replacement` for every free occurrence of variable
    /// `name`. Bindings introduced by inner `let`s shadow `name`.
    pub fn subst(&self, name: &str, replacement: &Expr) -> Expr {
        match self {
            Expr::Var(v) if v == name => replacement.clone(),
            Expr::Num(_) | Expr::Int(_) | Expr::Var(_) => self.clone(),
            Expr::Index { array, subs } => Expr::Index {
                array: array.clone(),
                subs: subs.iter().map(|s| s.subst(name, replacement)).collect(),
            },
            Expr::Binary { op, lhs, rhs } => Expr::bin(
                *op,
                lhs.subst(name, replacement),
                rhs.subst(name, replacement),
            ),
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(expr.subst(name, replacement)),
            },
            Expr::If { cond, then, els } => Expr::If {
                cond: Box::new(cond.subst(name, replacement)),
                then: Box::new(then.subst(name, replacement)),
                els: Box::new(els.subst(name, replacement)),
            },
            Expr::Let { binds, body } => {
                let mut shadowed = false;
                let mut new_binds = Vec::with_capacity(binds.len());
                for (n, e) in binds {
                    // Bindings are evaluated left-to-right; once the name
                    // is rebound, later RHSes and the body see the new one.
                    let rhs = if shadowed {
                        e.clone()
                    } else {
                        e.subst(name, replacement)
                    };
                    if n == name {
                        shadowed = true;
                    }
                    new_binds.push((n.clone(), rhs));
                }
                let body = if shadowed {
                    (**body).clone()
                } else {
                    body.subst(name, replacement)
                };
                Expr::Let {
                    binds: new_binds,
                    body: Box::new(body),
                }
            }
            Expr::Call { func, args } => Expr::Call {
                func: func.clone(),
                args: args.iter().map(|a| a.subst(name, replacement)).collect(),
            },
        }
    }
}

/// An arithmetic-sequence generator range.
///
/// Surface syntax `[lo..hi]` has `step = 1`; `[a,b..hi]` has
/// `step = b - a` (the paper's `[low,inc..high]` / `[high,dec..low]`).
/// The step must be a compile-time constant, as required for loop
/// normalization (Banerjee).
#[derive(Debug, Clone, PartialEq)]
pub struct Range {
    pub lo: Expr,
    pub hi: Expr,
    pub step: i64,
}

impl Range {
    /// A unit-step range `[lo..hi]`.
    pub fn new(lo: Expr, hi: Expr) -> Range {
        Range { lo, hi, step: 1 }
    }

    /// A strided range `[lo, lo+step .. hi]`.
    pub fn stepped(lo: Expr, hi: Expr, step: i64) -> Range {
        Range { lo, hi, step }
    }
}

/// Identifies one s/v clause within an array definition's comprehension.
///
/// Clause ids are assigned in left-to-right source order by
/// [`crate::number::number_clauses`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClauseId(pub u32);

impl fmt::Display for ClauseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Identifies one generator (loop) within an array definition.
///
/// Two clauses "share" a loop when they are nested inside the *same*
/// generator node, not merely generators with the same index name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopId(pub u32);

impl fmt::Display for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A subscript/value clause `[ s := v ]` — the innermost singleton list
/// of a nested comprehension, playing the role the paper assigns to an
/// assignment statement in an imperative DO loop.
#[derive(Debug, Clone, PartialEq)]
pub struct SvClause {
    /// Assigned by the numbering pass; `ClauseId(u32::MAX)` before it.
    pub id: ClauseId,
    /// One subscript expression per array dimension.
    pub subs: Vec<Expr>,
    /// The element value expression.
    pub value: Expr,
}

impl SvClause {
    /// A clause with an unassigned id.
    pub fn new(subs: Vec<Expr>, value: Expr) -> SvClause {
        SvClause {
            id: ClauseId(u32::MAX),
            subs,
            value,
        }
    }
}

/// A nested list comprehension (`[* ... *]`) expression tree.
///
/// Each node returns a list of subscript/value pairs. `Append` nodes
/// branch into different list expressions; `Gen` nodes instantiate their
/// body once per index value and append the instances; `Guard` nodes
/// yield their body's list or `[]`; `Let` nodes scope common
/// subexpressions over their body.
#[derive(Debug, Clone, PartialEq)]
pub enum Comp {
    /// `e1 ++ e2 ++ ...` — at least one child.
    Append(Vec<Comp>),
    /// `[* body | var <- range *]`.
    Gen {
        /// Assigned by the numbering pass; `LoopId(u32::MAX)` before it.
        id: LoopId,
        var: String,
        range: Range,
        body: Box<Comp>,
    },
    /// `[* body | cond *]`.
    Guard { cond: Expr, body: Box<Comp> },
    /// `let x = e in body` / `body where x = e`.
    Let {
        binds: Vec<(String, Expr)>,
        body: Box<Comp>,
    },
    /// A singleton s/v clause.
    Clause(SvClause),
}

impl Comp {
    /// A generator node with an unassigned loop id.
    pub fn gen(var: impl Into<String>, range: Range, body: Comp) -> Comp {
        Comp::Gen {
            id: LoopId(u32::MAX),
            var: var.into(),
            range,
            body: Box::new(body),
        }
    }

    /// A clause leaf.
    pub fn clause(subs: Vec<Expr>, value: Expr) -> Comp {
        Comp::Clause(SvClause::new(subs, value))
    }

    /// An append node; flattens nested appends.
    pub fn append(children: Vec<Comp>) -> Comp {
        let mut flat = Vec::with_capacity(children.len());
        for c in children {
            match c {
                Comp::Append(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().unwrap()
        } else {
            Comp::Append(flat)
        }
    }

    /// Visit every comp node, pre-order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Comp)) {
        f(self);
        match self {
            Comp::Append(cs) => {
                for c in cs {
                    c.walk(f);
                }
            }
            Comp::Gen { body, .. } | Comp::Guard { body, .. } | Comp::Let { body, .. } => {
                body.walk(f)
            }
            Comp::Clause(_) => {}
        }
    }

    /// All clauses in source order.
    pub fn clauses(&self) -> Vec<&SvClause> {
        let mut out = Vec::new();
        self.walk(&mut |c| {
            if let Comp::Clause(sv) = c {
                out.push(sv);
            }
        });
        out
    }

    /// Number of clauses in the tree.
    pub fn clause_count(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |c| {
            if matches!(c, Comp::Clause(_)) {
                n += 1;
            }
        });
        n
    }
}

/// Whether an array is an ordinary monolithic array (exactly one
/// definition per element) or a Haskell `accumArray`-style accumulated
/// array (default + combining function).
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayKind {
    /// `array bounds svpairs` — collisions and empties are errors.
    Monolithic,
    /// `accumArray f z bounds svpairs`.
    Accumulated {
        /// Name of the combining function (`+`, `max`, ... or a `Call`
        /// target). `commutative` records whether reordering of the
        /// s/v pair list is permitted (§7).
        combine: BinOp,
        default: Expr,
        commutative: bool,
    },
}

/// One array definition: `name = array ((l1,h1),...,(lk,hk)) comp`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDef {
    pub name: String,
    /// Per-dimension `(low, high)` bounds (inclusive).
    pub bounds: Vec<(Expr, Expr)>,
    pub comp: Comp,
    pub kind: ArrayKind,
}

impl ArrayDef {
    /// An ordinary monolithic definition.
    pub fn monolithic(name: impl Into<String>, bounds: Vec<(Expr, Expr)>, comp: Comp) -> ArrayDef {
        ArrayDef {
            name: name.into(),
            bounds,
            comp,
            kind: ArrayKind::Monolithic,
        }
    }

    /// Dimensionality of the array.
    pub fn rank(&self) -> usize {
        self.bounds.len()
    }

    /// `true` if any clause's value references the array being defined
    /// (the directly-visible recursion the paper's `letrec*` makes
    /// explicit).
    pub fn is_self_recursive(&self) -> bool {
        self.comp
            .clauses()
            .iter()
            .any(|c| c.value.referenced_arrays().contains(&self.name))
    }
}

/// A top-level binding form.
#[derive(Debug, Clone, PartialEq)]
pub enum Binding {
    /// `input u (l1,h1) ... ;` — an externally supplied array.
    Input {
        name: String,
        bounds: Vec<(Expr, Expr)>,
    },
    /// `let a = array ...` — non-recursive definition.
    Let(ArrayDef),
    /// `letrec* a = array ... and b = array ...` — mutually recursive
    /// definitions forced in a strict context (§2).
    LetrecStar(Vec<ArrayDef>),
    /// `b = bigupd a comp` — semi-monolithic update of `a` (§9). The
    /// result `name` may equal `base` conceptually; we bind a new name
    /// and the analysis decides whether the update can run in place.
    BigUpd {
        name: String,
        base: String,
        comp: Comp,
    },
    /// `let s = reduce (op) init [ expr | quals ];` — a scalar fold
    /// over a comprehension (§3.1: "the application of foldl to a list
    /// comprehension over arithmetic sequence generators ... translate
    /// such foldl calls into DO loops"). `sum [...]` and
    /// `product [...]` are sugar. The comprehension's clauses carry no
    /// subscripts (empty `subs`).
    Reduce {
        name: String,
        op: BinOp,
        init: Expr,
        comp: Comp,
    },
}

impl Binding {
    /// Names bound by this binding.
    pub fn names(&self) -> Vec<&str> {
        match self {
            Binding::Input { name, .. }
            | Binding::BigUpd { name, .. }
            | Binding::Reduce { name, .. } => vec![name],
            Binding::Let(d) => vec![&d.name],
            Binding::LetrecStar(ds) => ds.iter().map(|d| d.name.as_str()).collect(),
        }
    }
}

/// A whole program: named integer parameters (sizes like `n`), then a
/// sequence of bindings. The arrays named in `results` are the program's
/// outputs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Free integer parameters, e.g. `param n;`.
    pub params: Vec<String>,
    pub bindings: Vec<Binding>,
    /// Output array names; defaults to the last binding's names.
    pub results: Vec<String>,
}

impl Program {
    /// A program with no parameters or bindings.
    pub fn new() -> Program {
        Program::default()
    }

    /// Look up an array definition (in `Let` or `LetrecStar`) by name.
    pub fn array_def(&self, name: &str) -> Option<&ArrayDef> {
        for b in &self.bindings {
            match b {
                Binding::Let(d) if d.name == name => return Some(d),
                Binding::LetrecStar(ds) => {
                    if let Some(d) = ds.iter().find(|d| d.name == name) {
                        return Some(d);
                    }
                }
                _ => {}
            }
        }
        None
    }

    /// Every binding's comprehension, in binding order.
    pub fn comps(&self) -> impl Iterator<Item = &Comp> {
        self.bindings.iter().flat_map(|b| {
            let (one, defs): (Option<&Comp>, &[ArrayDef]) = match b {
                Binding::Let(d) => (Some(&d.comp), &[]),
                Binding::LetrecStar(ds) => (None, ds),
                Binding::BigUpd { comp, .. } | Binding::Reduce { comp, .. } => (Some(comp), &[]),
                Binding::Input { .. } => (None, &[]),
            };
            one.into_iter().chain(defs.iter().map(|d| &d.comp))
        })
    }

    /// [`Program::comps`], mutably.
    pub fn comps_mut(&mut self) -> impl Iterator<Item = &mut Comp> {
        self.bindings.iter_mut().flat_map(|b| {
            let (one, defs): (Option<&mut Comp>, &mut [ArrayDef]) = match b {
                Binding::Let(d) => (Some(&mut d.comp), &mut []),
                Binding::LetrecStar(ds) => (None, ds),
                Binding::BigUpd { comp, .. } | Binding::Reduce { comp, .. } => {
                    (Some(comp), &mut [])
                }
                Binding::Input { .. } => (None, &mut []),
            };
            one.into_iter().chain(defs.iter_mut().map(|d| &mut d.comp))
        })
    }

    /// The names this program produces (explicit `results`, else the
    /// names of the final binding).
    pub fn result_names(&self) -> Vec<String> {
        if !self.results.is_empty() {
            return self.results.clone();
        }
        self.bindings
            .last()
            .map(|b| b.names().iter().map(|s| s.to_string()).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_clause() -> Comp {
        // [ i := a!(i-1) + 1 ]
        Comp::clause(
            vec![Expr::var("i")],
            Expr::add(
                Expr::index1("a", Expr::sub(Expr::var("i"), Expr::int(1))),
                Expr::int(1),
            ),
        )
    }

    #[test]
    fn referenced_arrays_dedups_in_order() {
        let e = Expr::add(
            Expr::index1("a", Expr::int(1)),
            Expr::add(
                Expr::index1("b", Expr::int(2)),
                Expr::index1("a", Expr::int(3)),
            ),
        );
        assert_eq!(
            e.referenced_arrays(),
            vec!["a".to_string(), "b".to_string()]
        );
    }

    #[test]
    fn subst_replaces_free_occurrences() {
        let e = Expr::add(Expr::var("i"), Expr::mul(Expr::var("j"), Expr::var("i")));
        let r = e.subst("i", &Expr::int(7));
        assert_eq!(
            r,
            Expr::add(Expr::int(7), Expr::mul(Expr::var("j"), Expr::int(7)))
        );
    }

    #[test]
    fn subst_respects_let_shadowing() {
        // let i = i + 1 in i  — RHS sees outer i, body sees bound i.
        let e = Expr::Let {
            binds: vec![("i".into(), Expr::add(Expr::var("i"), Expr::int(1)))],
            body: Box::new(Expr::var("i")),
        };
        let r = e.subst("i", &Expr::int(10));
        assert_eq!(
            r,
            Expr::Let {
                binds: vec![("i".into(), Expr::add(Expr::int(10), Expr::int(1)))],
                body: Box::new(Expr::var("i")),
            }
        );
    }

    #[test]
    fn append_flattens() {
        let c = Comp::append(vec![
            Comp::append(vec![sample_clause(), sample_clause()]),
            sample_clause(),
        ]);
        match c {
            Comp::Append(cs) => assert_eq!(cs.len(), 3),
            _ => panic!("expected append"),
        }
    }

    #[test]
    fn append_of_one_collapses() {
        let c = Comp::append(vec![sample_clause()]);
        assert!(matches!(c, Comp::Clause(_)));
    }

    #[test]
    fn clause_count_counts_leaves() {
        let c = Comp::gen(
            "i",
            Range::new(Expr::int(1), Expr::var("n")),
            Comp::append(vec![sample_clause(), sample_clause()]),
        );
        assert_eq!(c.clause_count(), 2);
        assert_eq!(c.clauses().len(), 2);
    }

    #[test]
    fn self_recursion_detected() {
        let def = ArrayDef::monolithic(
            "a",
            vec![(Expr::int(1), Expr::var("n"))],
            Comp::gen(
                "i",
                Range::new(Expr::int(1), Expr::var("n")),
                sample_clause(),
            ),
        );
        assert!(def.is_self_recursive());
        let def2 = ArrayDef::monolithic(
            "b",
            vec![(Expr::int(1), Expr::var("n"))],
            Comp::gen(
                "i",
                Range::new(Expr::int(1), Expr::var("n")),
                sample_clause(),
            ),
        );
        assert!(!def2.is_self_recursive());
    }

    #[test]
    fn result_names_default_to_last_binding() {
        let mut p = Program::new();
        p.bindings.push(Binding::Input {
            name: "u".into(),
            bounds: vec![(Expr::int(1), Expr::var("n"))],
        });
        p.bindings.push(Binding::Let(ArrayDef::monolithic(
            "a",
            vec![(Expr::int(1), Expr::var("n"))],
            sample_clause(),
        )));
        assert_eq!(p.result_names(), vec!["a".to_string()]);
    }
}
