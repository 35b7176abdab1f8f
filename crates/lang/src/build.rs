//! A fluent builder API for constructing programs without parsing —
//! for hosts that generate array programs programmatically (and for
//! tests that want structured construction).
//!
//! ```
//! use hac_lang::build::{comp, e, program};
//!
//! // letrec* a = array (1,n) ([1 := 1] ++ [i := a!(i-1)*2 | i <- [2..n]])
//! let p = program()
//!     .param("n")
//!     .letrec_star(
//!         "a",
//!         [(e(1), e("n"))],
//!         comp()
//!             .clause([e(1)], e(1))
//!             .append(
//!                 comp()
//!                     .clause([e("i")], e("a").idx([e("i") - e(1)]) * e(2))
//!                     .generate("i", e(2), e("n")),
//!             ),
//!     )
//!     .finish();
//! assert_eq!(p.bindings.len(), 1);
//! ```

use crate::ast::{ArrayDef, ArrayKind, BinOp, Binding, Comp, Expr, Program, Range, UnOp};

/// An expression wrapper with operator overloading.
#[derive(Debug, Clone, PartialEq)]
pub struct E(pub Expr);

/// Build an expression from a literal, a variable name, or another
/// expression.
pub fn e(v: impl IntoE) -> E {
    v.into_e()
}

/// Conversion into [`E`].
pub trait IntoE {
    /// Convert the value into a wrapped expression.
    fn into_e(self) -> E;
}

impl IntoE for E {
    fn into_e(self) -> E {
        self
    }
}
impl IntoE for i64 {
    fn into_e(self) -> E {
        E(Expr::Int(self))
    }
}
impl IntoE for f64 {
    fn into_e(self) -> E {
        E(Expr::Num(self))
    }
}
impl IntoE for &str {
    fn into_e(self) -> E {
        E(Expr::var(self))
    }
}
impl IntoE for Expr {
    fn into_e(self) -> E {
        E(self)
    }
}

impl E {
    /// Array selection `self!(subs)` — the receiver must be a variable.
    ///
    /// # Panics
    /// Panics when the receiver is not a plain variable.
    pub fn idx(self, subs: impl IntoIterator<Item = E>) -> E {
        let Expr::Var(name) = self.0 else {
            panic!("`!` selects from an array variable")
        };
        E(Expr::Index {
            array: name,
            subs: subs.into_iter().map(|s| s.0).collect(),
        })
    }

    /// `if self then t else f`.
    pub fn if_else(self, t: E, f: E) -> E {
        E(Expr::If {
            cond: Box::new(self.0),
            then: Box::new(t.0),
            els: Box::new(f.0),
        })
    }

    /// Comparison `self == other`.
    pub fn eq(self, other: impl IntoE) -> E {
        E(Expr::bin(BinOp::Eq, self.0, other.into_e().0))
    }

    /// Comparison `self < other`.
    pub fn lt(self, other: impl IntoE) -> E {
        E(Expr::bin(BinOp::Lt, self.0, other.into_e().0))
    }

    /// Comparison `self > other`.
    pub fn gt(self, other: impl IntoE) -> E {
        E(Expr::bin(BinOp::Gt, self.0, other.into_e().0))
    }

    /// `self mod other`.
    pub fn modulo(self, other: impl IntoE) -> E {
        E(Expr::bin(BinOp::Mod, self.0, other.into_e().0))
    }

    /// Unary negation (also available via `-e`).
    #[allow(clippy::should_implement_trait)] // `-e` is also provided via Neg
    pub fn neg(self) -> E {
        E(Expr::Unary {
            op: UnOp::Neg,
            expr: Box::new(self.0),
        })
    }

    /// Unwrap the underlying AST expression.
    pub fn into_expr(self) -> Expr {
        self.0
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl<R: IntoE> std::ops::$trait<R> for E {
            type Output = E;
            fn $method(self, rhs: R) -> E {
                E(Expr::bin($op, self.0, rhs.into_e().0))
            }
        }
    };
}
impl_binop!(Add, add, BinOp::Add);
impl_binop!(Sub, sub, BinOp::Sub);
impl_binop!(Mul, mul, BinOp::Mul);
impl_binop!(Div, div, BinOp::Div);

impl std::ops::Neg for E {
    type Output = E;
    fn neg(self) -> E {
        E::neg(self)
    }
}

/// A comprehension under construction.
#[derive(Debug, Clone, Default)]
pub struct CompBuilder {
    parts: Vec<Comp>,
}

/// Start an empty comprehension.
pub fn comp() -> CompBuilder {
    CompBuilder::default()
}

impl CompBuilder {
    /// Append a clause `[ subs := value ]`.
    pub fn clause(mut self, subs: impl IntoIterator<Item = E>, value: E) -> CompBuilder {
        self.parts.push(Comp::clause(
            subs.into_iter().map(|s| s.0).collect(),
            value.0,
        ));
        self
    }

    /// Append another comprehension with `++`.
    pub fn append(mut self, other: CompBuilder) -> CompBuilder {
        self.parts.push(other.build());
        self
    }

    /// Wrap everything built *so far* in a generator
    /// `| var <- [lo..hi]`.
    pub fn generate(self, var: &str, lo: E, hi: E) -> CompBuilder {
        self.generate_by(var, lo, hi, 1)
    }

    /// Wrap in a strided generator `| var <- [lo, lo+step .. hi]`.
    pub fn generate_by(self, var: &str, lo: E, hi: E, step: i64) -> CompBuilder {
        let body = self.build();
        CompBuilder {
            parts: vec![Comp::gen(var, Range::stepped(lo.0, hi.0, step), body)],
        }
    }

    /// Wrap everything built so far in a guard.
    pub fn guard(self, cond: E) -> CompBuilder {
        let body = self.build();
        CompBuilder {
            parts: vec![Comp::Guard {
                cond: cond.0,
                body: Box::new(body),
            }],
        }
    }

    /// Wrap everything built so far in `where` bindings.
    pub fn wher(self, binds: impl IntoIterator<Item = (&'static str, E)>) -> CompBuilder {
        let body = self.build();
        CompBuilder {
            parts: vec![Comp::Let {
                binds: binds
                    .into_iter()
                    .map(|(n, ex)| (n.to_string(), ex.0))
                    .collect(),
                body: Box::new(body),
            }],
        }
    }

    /// Finish into a `Comp` (an append when several parts were added).
    ///
    /// # Panics
    /// Panics on an empty builder.
    pub fn build(self) -> Comp {
        assert!(!self.parts.is_empty(), "empty comprehension");
        Comp::append(self.parts)
    }
}

/// A program under construction.
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    program: Program,
}

/// Start an empty program.
pub fn program() -> ProgramBuilder {
    ProgramBuilder::default()
}

impl ProgramBuilder {
    /// Declare an integer parameter.
    pub fn param(mut self, name: &str) -> ProgramBuilder {
        self.program.params.push(name.to_string());
        self
    }

    /// Declare an input array.
    pub fn input(mut self, name: &str, bounds: impl IntoIterator<Item = (E, E)>) -> ProgramBuilder {
        self.program.bindings.push(Binding::Input {
            name: name.to_string(),
            bounds: bounds.into_iter().map(|(l, h)| (l.0, h.0)).collect(),
        });
        self
    }

    /// Bind a non-recursive monolithic array.
    pub fn let_array(
        mut self,
        name: &str,
        bounds: impl IntoIterator<Item = (E, E)>,
        comp: CompBuilder,
    ) -> ProgramBuilder {
        self.program.bindings.push(Binding::Let(ArrayDef {
            name: name.to_string(),
            bounds: bounds.into_iter().map(|(l, h)| (l.0, h.0)).collect(),
            comp: comp.build(),
            kind: ArrayKind::Monolithic,
        }));
        self
    }

    /// Bind a recursive array in a strict context (`letrec*`).
    pub fn letrec_star(
        mut self,
        name: &str,
        bounds: impl IntoIterator<Item = (E, E)>,
        comp: CompBuilder,
    ) -> ProgramBuilder {
        self.program
            .bindings
            .push(Binding::LetrecStar(vec![ArrayDef {
                name: name.to_string(),
                bounds: bounds.into_iter().map(|(l, h)| (l.0, h.0)).collect(),
                comp: comp.build(),
                kind: ArrayKind::Monolithic,
            }]));
        self
    }

    /// Bind a mutually recursive `letrec*` group.
    pub fn letrec_star_group(
        mut self,
        defs: impl IntoIterator<Item = (&'static str, Vec<(E, E)>, CompBuilder)>,
    ) -> ProgramBuilder {
        self.program.bindings.push(Binding::LetrecStar(
            defs.into_iter()
                .map(|(name, bounds, comp)| ArrayDef {
                    name: name.to_string(),
                    bounds: bounds.into_iter().map(|(l, h)| (l.0, h.0)).collect(),
                    comp: comp.build(),
                    kind: ArrayKind::Monolithic,
                })
                .collect(),
        ));
        self
    }

    /// Bind `name = bigupd base comp`.
    pub fn bigupd(mut self, name: &str, base: &str, comp: CompBuilder) -> ProgramBuilder {
        self.program.bindings.push(Binding::BigUpd {
            name: name.to_string(),
            base: base.to_string(),
            comp: comp.build(),
        });
        self
    }

    /// Declare result arrays.
    pub fn result(mut self, names: impl IntoIterator<Item = &'static str>) -> ProgramBuilder {
        self.program
            .results
            .extend(names.into_iter().map(str::to_string));
        self
    }

    /// Finish into a [`Program`], numbered as the parser numbers one.
    pub fn finish(mut self) -> Program {
        crate::number::number_program(&mut self.program);
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::pretty::program_to_string;

    #[test]
    fn builder_matches_parser() {
        let built = program()
            .param("n")
            .letrec_star(
                "a",
                [(e(1), e("n"))],
                comp().clause([e(1)], e(1)).append(
                    comp()
                        .clause([e("i")], e("a").idx([e("i") - e(1)]) * e(2))
                        .generate("i", e(2), e("n")),
                ),
            )
            .finish();
        let parsed = parse_program(
            "param n;\nletrec* a = array (1,n) \
             ([ 1 := 1 ] ++ [ i := a!(i-1) * 2 | i <- [2..n] ]);\n",
        )
        .unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn builder_roundtrips_through_pretty() {
        let built = program()
            .param("n")
            .input("u", [(e(1), e("n"))])
            .let_array(
                "a",
                [(e(1), e("n"))],
                comp()
                    .clause([e("i")], e("u").idx([e("i")]) + e(1))
                    .guard(e("i").gt(2))
                    .generate("i", e(1), e("n")),
            )
            .result(["a"])
            .finish();
        let text = program_to_string(&built);
        let back = parse_program(&text).unwrap();
        assert_eq!(built, back, "{text}");
    }

    #[test]
    fn operators_compose() {
        let expr = (e("i") * 3 - e(1)).into_expr();
        let parsed = crate::parser::parse_expr("i * 3 - 1").unwrap();
        assert_eq!(expr, parsed);
        let neg = (-e("x")).into_expr();
        assert_eq!(neg, crate::parser::parse_expr("-x").unwrap());
    }

    #[test]
    fn where_and_stride() {
        let built = comp()
            .clause([e("i")], e("v"))
            .wher([("v", e("i") + e(1))])
            .generate_by("i", e(1), e(9), 2)
            .build();
        let parsed =
            crate::parser::parse_comp("[ i := v where v = i + 1 | i <- [1,3..9] ]").unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn bigupd_and_group() {
        let p = program()
            .param("n")
            .input("a", [(e(1), e("n"))])
            .bigupd(
                "b",
                "a",
                comp()
                    .clause([e("i")], e("a").idx([e("i")]) * e(2))
                    .generate("i", e(1), e("n")),
            )
            .finish();
        assert_eq!(p.bindings.len(), 2);
        let g = program()
            .letrec_star_group([
                (
                    "x",
                    vec![(e(1), e(2))],
                    comp()
                        .clause([e(1)], e(0))
                        .append(comp().clause([e(2)], e(1))),
                ),
                (
                    "y",
                    vec![(e(1), e(1))],
                    comp().clause([e(1)], e("x").idx([e(2)])),
                ),
            ])
            .finish();
        match &g.bindings[0] {
            Binding::LetrecStar(ds) => assert_eq!(ds.len(), 2),
            other => panic!("{other:?}"),
        }
    }
}
