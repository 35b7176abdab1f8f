//! The thunked (non-strict) reference evaluator — the baseline the
//! paper's analysis eliminates.
//!
//! Every element of a [`ThunkedArray`] is represented as a *thunk*: the
//! clause's value expression plus a snapshot of the enclosing scalar
//! bindings, evaluated on demand and memoized. Recursive references
//! demand other cells transitively; a cell demanded while it is being
//! evaluated is ⊥ (black-holing detects the cycle). `force_elements`
//! implements the paper's §2 strict-context operator.
//!
//! Costs are instrumented ([`ThunkedCounters`]): thunk allocations,
//! demands, and memo hits — the quantities the thunkless pipeline is
//! benchmarked against (experiments E3/E4).
//!
//! Limitations (documented, checked at runtime): subscript expressions,
//! guard conditions, generator bounds, and comprehension-path `let`
//! bindings are evaluated eagerly while the subscript/value pairs are
//! collected, so they must not reference the array being defined; only
//! element *values* are non-strict.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use hac_lang::ast::{Comp, Expr};
use hac_lang::env::ConstEnv;

use crate::error::RuntimeError;
use crate::governor::Meter;
use crate::value::{as_int, eval_expr, ArrayBuf, ArrayReader, FuncTable, MapReader, Scalars};

/// Metered bytes for one thunk's spine: the cell discriminant plus the
/// shared value-expression handle (a fixed overhead) and the captured
/// scalar snapshot (name handle + value per binding). A *model*, not a
/// `size_of` — the figure is fixed so the charge sequence is
/// deterministic and identical wherever thunks are built (single
/// arrays and `letrec*` groups alike).
pub fn thunk_spine_bytes(captured_scalars: usize) -> u64 {
    32 + 16 * captured_scalars as u64
}

/// Instrumentation for the thunked strategy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThunkedCounters {
    /// Thunks allocated while collecting subscript/value pairs.
    pub thunks_allocated: u64,
    /// Cell demands (including recursive ones).
    pub demands: u64,
    /// Demands answered from the memoized value.
    pub memo_hits: u64,
}

#[derive(Debug, Clone)]
enum Cell {
    Empty,
    Thunk(usize),
    Evaluating,
    Value(f64),
}

#[derive(Debug)]
struct Thunk {
    value: Rc<Expr>,
    scalars: Vec<(String, f64)>,
}

/// A non-strict monolithic array whose elements evaluate on demand.
pub struct ThunkedArray<'a> {
    // Fields below; Debug is implemented by hand (the environment
    // references are not themselves Debug-relevant).
    name: String,
    bounds: Vec<(i64, i64)>,
    shape: ArrayBuf,
    cells: RefCell<Vec<Cell>>,
    thunks: Vec<Thunk>,
    others: &'a HashMap<String, ArrayBuf>,
    funcs: &'a FuncTable,
    counters: RefCell<ThunkedCounters>,
    /// Shared resource budget: one fuel unit per forced thunk,
    /// spine bytes per allocated thunk. `None` = unmetered.
    meter: Option<&'a RefCell<Meter>>,
}

impl std::fmt::Debug for ThunkedArray<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThunkedArray")
            .field("name", &self.name)
            .field("bounds", &self.bounds)
            .field("thunks", &self.thunks.len())
            .field("counters", &self.counters.borrow())
            .finish()
    }
}

impl<'a> ThunkedArray<'a> {
    /// Collect the subscript/value pairs of `comp` into thunked cells.
    ///
    /// # Errors
    /// Reports write collisions, out-of-bounds definitions, and eager
    /// evaluation failures (e.g. a subscript referencing the array
    /// itself).
    pub fn build(
        name: &str,
        bounds: &[(i64, i64)],
        comp: &Comp,
        params: &ConstEnv,
        others: &'a HashMap<String, ArrayBuf>,
        funcs: &'a FuncTable,
    ) -> Result<ThunkedArray<'a>, RuntimeError> {
        ThunkedArray::build_metered(name, bounds, comp, params, others, funcs, None)
    }

    /// [`ThunkedArray::build`] charging a shared [`Meter`]: spine bytes
    /// per allocated thunk during collection, one fuel unit per thunk
    /// forced later (the non-strict analog of the compiled engines'
    /// per-iteration charge).
    ///
    /// # Errors
    /// As [`ThunkedArray::build`], plus budget exhaustion.
    #[allow(clippy::too_many_arguments)]
    pub fn build_metered(
        name: &str,
        bounds: &[(i64, i64)],
        comp: &Comp,
        params: &ConstEnv,
        others: &'a HashMap<String, ArrayBuf>,
        funcs: &'a FuncTable,
        meter: Option<&'a RefCell<Meter>>,
    ) -> Result<ThunkedArray<'a>, RuntimeError> {
        let shape = ArrayBuf::new(bounds, 0.0);
        let mut arr = ThunkedArray {
            name: name.to_string(),
            bounds: bounds.to_vec(),
            cells: RefCell::new(vec![Cell::Empty; shape.len()]),
            shape,
            thunks: Vec::new(),
            others,
            funcs,
            counters: RefCell::new(ThunkedCounters::default()),
            meter,
        };
        let mut scalars = Scalars::new();
        for (p, v) in params.iter() {
            scalars.push(p, v as f64);
        }
        // Pre-share each clause's value expression.
        let mut values: HashMap<u32, Rc<Expr>> = HashMap::new();
        comp.walk(&mut |c| {
            if let Comp::Clause(sv) = c {
                values.insert(sv.id.0, Rc::new(sv.value.clone()));
            }
        });
        arr.collect(comp, &mut scalars, &values)?;
        Ok(arr)
    }

    fn collect(
        &mut self,
        comp: &Comp,
        scalars: &mut Scalars,
        values: &HashMap<u32, Rc<Expr>>,
    ) -> Result<(), RuntimeError> {
        match comp {
            Comp::Append(cs) => {
                for c in cs {
                    self.collect(c, scalars, values)?;
                }
                Ok(())
            }
            Comp::Gen {
                var, range, body, ..
            } => {
                let lo = self.eval_eager(&range.lo, scalars, var)?;
                let hi = self.eval_eager(&range.hi, scalars, var)?;
                let step = range.step;
                let mut i = lo;
                loop {
                    if (step > 0 && i > hi) || (step < 0 && i < hi) {
                        break;
                    }
                    scalars.push(var.clone(), i as f64);
                    self.collect(body, scalars, values)?;
                    scalars.pop();
                    i += step;
                }
                Ok(())
            }
            Comp::Guard { cond, body } => {
                let mut reader = MapReader::new(self.others);
                let c = eval_expr(cond, scalars, &mut reader, self.funcs)?;
                if c != 0.0 {
                    self.collect(body, scalars, values)?;
                }
                Ok(())
            }
            Comp::Let { binds, body } => {
                let depth = scalars.depth();
                for (n, e) in binds {
                    let mut reader = MapReader::new(self.others);
                    let v = eval_expr(e, scalars, &mut reader, self.funcs)?;
                    scalars.push(n.clone(), v);
                }
                self.collect(body, scalars, values)?;
                scalars.truncate(depth);
                Ok(())
            }
            Comp::Clause(sv) => {
                let mut idx = Vec::with_capacity(sv.subs.len());
                for s in &sv.subs {
                    let mut reader = MapReader::new(self.others);
                    let v = eval_expr(s, scalars, &mut reader, self.funcs)?;
                    idx.push(as_int(&self.name, v)?);
                }
                let off = self.shape.offset(&idx).ok_or(RuntimeError::OutOfBounds {
                    array: self.name.clone(),
                    index: idx.clone(),
                    bounds: self.bounds.clone(),
                })?;
                let mut cells = self.cells.borrow_mut();
                if !matches!(cells[off], Cell::Empty) {
                    return Err(RuntimeError::WriteCollision {
                        array: self.name.clone(),
                        index: idx,
                    });
                }
                let snap = scalars.snapshot();
                if let Some(m) = self.meter {
                    m.borrow_mut().charge_mem(thunk_spine_bytes(snap.len()))?;
                }
                let tid = self.thunks.len();
                self.thunks.push(Thunk {
                    value: Rc::clone(&values[&sv.id.0]),
                    scalars: snap,
                });
                self.counters.borrow_mut().thunks_allocated += 1;
                cells[off] = Cell::Thunk(tid);
                Ok(())
            }
        }
    }

    fn eval_eager(&self, e: &Expr, scalars: &mut Scalars, var: &str) -> Result<i64, RuntimeError> {
        let mut reader = MapReader::new(self.others);
        let v = eval_expr(e, scalars, &mut reader, self.funcs)?;
        if v.fract() == 0.0 && v.is_finite() {
            Ok(v as i64)
        } else {
            Err(RuntimeError::NonIntegerBound {
                var: var.to_string(),
                value: v,
            })
        }
    }

    /// The array's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Demand one element (`a!idx`), evaluating its thunk if necessary.
    ///
    /// # Errors
    /// ⊥ cycles, undefined elements, and evaluation failures.
    pub fn demand(&self, idx: &[i64]) -> Result<f64, RuntimeError> {
        let off = self.shape.offset(idx).ok_or(RuntimeError::OutOfBounds {
            array: self.name.clone(),
            index: idx.to_vec(),
            bounds: self.bounds.clone(),
        })?;
        self.demand_off(off, idx)
    }

    fn demand_off(&self, off: usize, idx: &[i64]) -> Result<f64, RuntimeError> {
        self.counters.borrow_mut().demands += 1;
        let state = self.cells.borrow()[off].clone();
        match state {
            Cell::Value(v) => {
                self.counters.borrow_mut().memo_hits += 1;
                Ok(v)
            }
            Cell::Evaluating => Err(RuntimeError::Bottom {
                array: self.name.clone(),
                index: idx.to_vec(),
            }),
            Cell::Empty => Err(RuntimeError::UndefinedElement {
                array: self.name.clone(),
                index: idx.to_vec(),
            }),
            Cell::Thunk(tid) => {
                // One fuel unit per *forced* thunk — the demand-driven
                // counterpart of a taken loop iteration.
                if let Some(m) = self.meter {
                    m.borrow_mut().charge_fuel()?;
                }
                self.cells.borrow_mut()[off] = Cell::Evaluating;
                let thunk = &self.thunks[tid];
                let mut scalars = Scalars::new();
                for (n, v) in &thunk.scalars {
                    scalars.push(n.clone(), *v);
                }
                let expr = Rc::clone(&thunk.value);
                let mut reader = SelfReader { array: self };
                let v = eval_expr(&expr, &mut scalars, &mut reader, self.funcs)?;
                self.cells.borrow_mut()[off] = Cell::Value(v);
                Ok(v)
            }
        }
    }

    /// Force every element (the paper's `force-elements`, §2): returns
    /// an error if *any* element is ⊥ or undefined — exactly the
    /// strictified semantics.
    ///
    /// # Errors
    /// The first ⊥ / undefined / failing element, in row-major order.
    pub fn force_elements(&self) -> Result<(), RuntimeError> {
        let n = self.shape.len();
        for off in 0..n {
            let idx = self.unravel(off);
            self.demand_off(off, &idx)?;
        }
        Ok(())
    }

    fn unravel(&self, mut off: usize) -> Vec<i64> {
        let mut idx = vec![0i64; self.bounds.len()];
        for k in (0..self.bounds.len()).rev() {
            let (lo, hi) = self.bounds[k];
            let extent = (hi - lo + 1).max(0) as usize;
            idx[k] = lo + (off % extent) as i64;
            off /= extent;
        }
        idx
    }

    /// Force everything and extract the strict buffer.
    ///
    /// # Errors
    /// As [`ThunkedArray::force_elements`].
    pub fn into_strict(self) -> Result<ArrayBuf, RuntimeError> {
        self.force_elements()?;
        let mut buf = self.shape;
        let data = buf.data_mut();
        let cells = self.cells.into_inner();
        for (off, c) in cells.into_iter().enumerate() {
            match c {
                Cell::Value(v) => data[off] = v,
                _ => unreachable!("force_elements evaluated every cell"),
            }
        }
        Ok(buf)
    }

    /// Instrumentation snapshot.
    pub fn counters(&self) -> ThunkedCounters {
        *self.counters.borrow()
    }
}

/// Routes reads of the array being defined back into `demand`; other
/// arrays come from the finished environment.
struct SelfReader<'r, 'a> {
    array: &'r ThunkedArray<'a>,
}

impl ArrayReader for SelfReader<'_, '_> {
    fn read_element(&mut self, array: &str, idx: &[i64]) -> Result<f64, RuntimeError> {
        if array == self.array.name {
            self.array.demand(idx)
        } else {
            let buf = self
                .array
                .others
                .get(array)
                .ok_or_else(|| RuntimeError::UnboundArray(array.to_string()))?;
            buf.get(array, idx)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_lang::number::number_clauses;
    use hac_lang::parser::parse_comp;

    fn build<'a>(
        src: &str,
        n: i64,
        bounds: &[(i64, i64)],
        others: &'a HashMap<String, ArrayBuf>,
        funcs: &'a FuncTable,
    ) -> Result<ThunkedArray<'a>, RuntimeError> {
        let mut c = parse_comp(src).unwrap();
        number_clauses(&mut c);
        let env = ConstEnv::from_pairs([("n", n)]);
        ThunkedArray::build("a", bounds, &c, &env, others, funcs)
    }

    #[test]
    fn squares_vector() {
        let others = HashMap::new();
        let funcs = FuncTable::new();
        let a = build("[ i := i*i | i <- [1..n] ]", 5, &[(1, 5)], &others, &funcs).unwrap();
        let buf = a.into_strict().unwrap();
        assert_eq!(buf.data(), &[1.0, 4.0, 9.0, 16.0, 25.0]);
    }

    #[test]
    fn recursive_fibonacci_like() {
        let others = HashMap::new();
        let funcs = FuncTable::new();
        let a = build(
            "[ 1 := 1 ] ++ [ 2 := 1 ] ++ [ i := a!(i-1) + a!(i-2) | i <- [3..n] ]",
            8,
            &[(1, 8)],
            &others,
            &funcs,
        )
        .unwrap();
        let buf = a.into_strict().unwrap();
        assert_eq!(buf.data(), &[1.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0]);
    }

    #[test]
    fn order_irrelevance() {
        // The recurrence written "backwards" in the pair list still
        // evaluates: that is the point of non-strict arrays (§3).
        let others = HashMap::new();
        let funcs = FuncTable::new();
        let a = build(
            "[ i := a!(i-1) * 2 | i <- [2..n] ] ++ [ 1 := 1 ]",
            6,
            &[(1, 6)],
            &others,
            &funcs,
        )
        .unwrap();
        let buf = a.into_strict().unwrap();
        assert_eq!(buf.data(), &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]);
    }

    #[test]
    fn wavefront_2d() {
        let others = HashMap::new();
        let funcs = FuncTable::new();
        let src = "[ (1,j) := 1 | j <- [1..n] ] ++ [ (i,1) := 1 | i <- [2..n] ] ++ \
                   [ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1) | i <- [2..n], j <- [2..n] ]";
        let a = build(src, 4, &[(1, 4), (1, 4)], &others, &funcs).unwrap();
        let buf = a.into_strict().unwrap();
        // Row 2: 1, 3, 5, 7; row 3: 1, 5, 13, 25 (Delannoy numbers).
        assert_eq!(buf.get("a", &[2, 2]).unwrap(), 3.0);
        assert_eq!(buf.get("a", &[3, 3]).unwrap(), 13.0);
        assert_eq!(buf.get("a", &[4, 4]).unwrap(), 63.0);
    }

    #[test]
    fn bottom_cycle_detected() {
        let others = HashMap::new();
        let funcs = FuncTable::new();
        let a = build(
            "[ 1 := a!2 ] ++ [ 2 := a!1 ]",
            0,
            &[(1, 2)],
            &others,
            &funcs,
        )
        .unwrap();
        let err = a.force_elements().unwrap_err();
        assert!(matches!(err, RuntimeError::Bottom { .. }));
    }

    #[test]
    fn collision_and_empty_detected() {
        let others = HashMap::new();
        let funcs = FuncTable::new();
        let err = build(
            "[ i := 0 | i <- [1..n] ] ++ [ 3 := 1 ]",
            5,
            &[(1, 5)],
            &others,
            &funcs,
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::WriteCollision { .. }));

        let a = build("[ i := 0 | i <- [2..n] ]", 5, &[(1, 5)], &others, &funcs).unwrap();
        let err = a.force_elements().unwrap_err();
        assert!(matches!(err, RuntimeError::UndefinedElement { .. }));
    }

    #[test]
    fn guards_filter_instances() {
        let others = HashMap::new();
        let funcs = FuncTable::new();
        let a = build(
            "[ i := 1 | i <- [1..n], i mod 2 == 1 ] ++ [ i := 2 | i <- [1..n], i mod 2 == 0 ]",
            4,
            &[(1, 4)],
            &others,
            &funcs,
        )
        .unwrap();
        let buf = a.into_strict().unwrap();
        assert_eq!(buf.data(), &[1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn reads_other_arrays() {
        let mut others = HashMap::new();
        let mut u = ArrayBuf::new(&[(1, 3)], 0.0);
        for i in 1..=3 {
            u.set("u", &[i], (i * 10) as f64).unwrap();
        }
        others.insert("u".to_string(), u);
        let funcs = FuncTable::new();
        let a = build(
            "[ i := u!i + 1 | i <- [1..3] ]",
            0,
            &[(1, 3)],
            &others,
            &funcs,
        )
        .unwrap();
        let buf = a.into_strict().unwrap();
        assert_eq!(buf.data(), &[11.0, 21.0, 31.0]);
    }

    #[test]
    fn counters_track_costs() {
        let others = HashMap::new();
        let funcs = FuncTable::new();
        let a = build(
            "[ 1 := 1 ] ++ [ i := a!(i-1) + 1 | i <- [2..n] ]",
            10,
            &[(1, 10)],
            &others,
            &funcs,
        )
        .unwrap();
        a.force_elements().unwrap();
        let c = a.counters();
        assert_eq!(c.thunks_allocated, 10);
        // Each cell demanded at least once; recursive demands memo-hit.
        assert!(c.demands >= 10);
        assert!(c.memo_hits > 0);
    }

    #[test]
    fn out_of_bounds_definition_rejected() {
        let others = HashMap::new();
        let funcs = FuncTable::new();
        let err = build(
            "[ i + 3 := 0 | i <- [1..n] ]",
            5,
            &[(1, 5)],
            &others,
            &funcs,
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::OutOfBounds { .. }));
    }

    #[test]
    fn backward_generator() {
        let others = HashMap::new();
        let funcs = FuncTable::new();
        let a = build("[ i := i | i <- [5,4..1] ]", 0, &[(1, 5)], &others, &funcs).unwrap();
        let buf = a.into_strict().unwrap();
        assert_eq!(buf.data(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn stepped_generator_leaves_empties() {
        let others = HashMap::new();
        let funcs = FuncTable::new();
        let a = build("[ i := 0 | i <- [1,3..n] ]", 5, &[(1, 5)], &others, &funcs).unwrap();
        assert!(a.demand(&[1]).is_ok());
        assert!(matches!(
            a.demand(&[2]),
            Err(RuntimeError::UndefinedElement { .. })
        ));
    }
}
