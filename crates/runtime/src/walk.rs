//! The one walk over a comprehension's clause instances (§2–§3).
//!
//! Thunked groups, accumulated arrays and reductions all enumerate the
//! same subscript/value-pair list: appends left to right, generators in
//! range order, guards and `let`s evaluated eagerly over finished
//! arrays. [`Scope::for_each_instance`] is that enumeration; each
//! caller supplies only what it does with one instance.

use std::collections::HashMap;

use hac_lang::ast::{Comp, Expr, SvClause};
use hac_lang::env::ConstEnv;

use crate::error::RuntimeError;
use crate::value::{as_int, eval_expr, ArrayBuf, FuncTable, MapReader, Scalars};

/// The scalars in scope during a walk, and the finished arrays and
/// functions its eager expressions are evaluated against.
pub struct Scope<'s> {
    scalars: Scalars,
    arrays: &'s HashMap<String, ArrayBuf>,
    funcs: &'s FuncTable,
}

impl<'s> Scope<'s> {
    /// A scope binding `params`, then `extra` runtime scalars (e.g.
    /// earlier reduction results).
    pub fn new(
        params: &ConstEnv,
        extra: &[(String, f64)],
        arrays: &'s HashMap<String, ArrayBuf>,
        funcs: &'s FuncTable,
    ) -> Scope<'s> {
        let mut scalars = Scalars::new();
        for (p, v) in params.iter() {
            scalars.push(p, v as f64);
        }
        for (n, v) in extra {
            scalars.push(n.clone(), *v);
        }
        Scope {
            scalars,
            arrays,
            funcs,
        }
    }

    /// Evaluate `e` in this scope.
    ///
    /// # Errors
    /// Any evaluation failure; reading an array that is not finished
    /// is [`RuntimeError::UnboundArray`].
    pub fn eval(&mut self, e: &Expr) -> Result<f64, RuntimeError> {
        eval_expr(
            e,
            &mut self.scalars,
            &mut MapReader::new(self.arrays),
            self.funcs,
        )
    }

    /// Evaluate a clause's subscripts as integer indices into `array`.
    ///
    /// # Errors
    /// As [`Scope::eval`], plus [`RuntimeError::NonIntegerSubscript`].
    pub fn subscript(&mut self, array: &str, subs: &[Expr]) -> Result<Vec<i64>, RuntimeError> {
        subs.iter().map(|s| as_int(array, self.eval(s)?)).collect()
    }

    /// Every binding in scope, outermost first — what a thunk captures.
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        self.scalars.snapshot()
    }

    /// Call `visit` once per clause instance of `comp`, in list order,
    /// with this scope holding the bindings of that instance.
    ///
    /// # Errors
    /// The first failure of an eager evaluation or of `visit`. A
    /// generator bound that is not a finite integer is
    /// [`RuntimeError::NonIntegerBound`].
    pub fn for_each_instance<'c, F>(
        &mut self,
        comp: &'c Comp,
        visit: &mut F,
    ) -> Result<(), RuntimeError>
    where
        F: FnMut(&'c SvClause, &mut Scope<'s>) -> Result<(), RuntimeError>,
    {
        match comp {
            Comp::Append(cs) => cs.iter().try_for_each(|c| self.for_each_instance(c, visit)),
            Comp::Gen {
                var, range, body, ..
            } => {
                let lo = self.eval(&range.lo)?;
                let hi = self.eval(&range.hi)?;
                let (lo, hi, step) = (bound(var, lo)?, bound(var, hi)?, range.step);
                let mut i = lo;
                while !((step > 0 && i > hi) || (step < 0 && i < hi)) {
                    self.scalars.push(var.clone(), i as f64);
                    self.for_each_instance(body, visit)?;
                    self.scalars.pop();
                    i += step;
                }
                Ok(())
            }
            Comp::Guard { cond, body } => {
                if self.eval(cond)? != 0.0 {
                    self.for_each_instance(body, visit)?;
                }
                Ok(())
            }
            Comp::Let { binds, body } => {
                let depth = self.scalars.depth();
                for (n, e) in binds {
                    let v = self.eval(e)?;
                    self.scalars.push(n.clone(), v);
                }
                self.for_each_instance(body, visit)?;
                self.scalars.truncate(depth);
                Ok(())
            }
            Comp::Clause(clause) => visit(clause, self),
        }
    }
}

/// A generator bound as an integer: it must be finite and whole.
fn bound(var: &str, v: f64) -> Result<i64, RuntimeError> {
    if v.fract() == 0.0 && v.is_finite() {
        Ok(v as i64)
    } else {
        Err(RuntimeError::NonIntegerBound {
            var: var.to_string(),
            value: v,
        })
    }
}
