//! The thunked (non-strict) reference evaluator (§2): `letrec*`
//! groups of arrays whose elements evaluate on demand. Its results are
//! the semantic ground truth for the compiled pipeline.
//!
//! `letrec*` can "introduce multiple mutually recursive bindings by
//! treating x as a tuple". A [`ThunkedGroup`] evaluates such a binding
//! group; a lone array is a group of one. Every element is a *thunk*:
//! its clause's value expression plus a snapshot of the enclosing
//! scalar bindings, evaluated on demand and memoized. A demand on any
//! member may transitively demand cells of any other member; a cell
//! demanded while it is being evaluated is ⊥ (black-holing detects the
//! cycle). [`ThunkedGroup::force_elements`] realizes the paper's
//! strict context for all members at once.
//!
//! Costs are instrumented ([`ThunkedCounters`]): thunk allocations,
//! demands, and memo hits — the quantities the thunkless pipeline is
//! benchmarked against (experiments E3/E4).
//!
//! Limitations (checked at runtime): subscripts, guards, generator
//! bounds and comprehension-path `let` bindings are evaluated eagerly
//! while the subscript/value pairs are collected, so they must not
//! reference group members; only element *values* are non-strict.

use std::cell::RefCell;
use std::collections::HashMap;

use hac_lang::ast::{Comp, Expr};
use hac_lang::env::ConstEnv;

use crate::error::RuntimeError;
use crate::governor::Meter;
use crate::value::{eval_expr, ArrayBuf, ArrayReader, FuncTable, Scalars};
use crate::walk::Scope;

/// Metered bytes for one thunk's spine: the cell discriminant plus the
/// shared value-expression handle (a fixed overhead) and the captured
/// scalar snapshot (name handle + value per binding). A *model*, not a
/// `size_of` — the figure is fixed so the charge sequence is
/// deterministic.
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

#[derive(Debug)]
enum Cell<'a> {
    Empty,
    /// A clause's value expression and the scalars captured at its
    /// instance.
    Thunk(&'a Expr, Vec<(String, f64)>),
    Evaluating,
    Value(f64),
}

#[derive(Debug)]
struct Member<'a> {
    name: String,
    /// The member's shape; it becomes the strict buffer.
    shape: ArrayBuf,
    cells: RefCell<Vec<Cell<'a>>>,
}

/// One group member: `(name, bounds, comprehension)`.
pub type GroupDef<'d> = (&'d str, Vec<(i64, i64)>, &'d Comp);

/// A group of mutually recursive thunked arrays.
pub struct ThunkedGroup<'a> {
    members: Vec<Member<'a>>,
    others: &'a HashMap<String, ArrayBuf>,
    funcs: &'a FuncTable,
    counters: RefCell<ThunkedCounters>,
    /// Shared resource budget: one fuel unit per forced thunk, spine
    /// bytes per allocated thunk. `None` = unmetered.
    meter: Option<&'a RefCell<Meter>>,
}

impl std::fmt::Debug for ThunkedGroup<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.members.iter().map(|m| m.name.as_str()).collect();
        f.debug_struct("ThunkedGroup")
            .field("members", &names)
            .field("counters", &self.counters.borrow())
            .finish()
    }
}

impl<'a> ThunkedGroup<'a> {
    /// Collect the subscript/value pairs of every member's
    /// comprehension into thunked cells. Scalars in scope are `params`,
    /// then `extra_scalars` (e.g. earlier reduction results). A `meter`
    /// is charged spine bytes per allocated thunk now, and one fuel
    /// unit per thunk forced later (the non-strict analog of the
    /// compiled engines' per-iteration charge).
    ///
    /// # Errors
    /// Collisions, out-of-bounds definitions, eager-evaluation failures
    /// (subscripts/guards/bounds may not reference group members), and
    /// budget exhaustion.
    pub fn build(
        defs: &[GroupDef<'a>],
        params: &ConstEnv,
        extra_scalars: &[(String, f64)],
        others: &'a HashMap<String, ArrayBuf>,
        funcs: &'a FuncTable,
        meter: Option<&'a RefCell<Meter>>,
    ) -> Result<ThunkedGroup<'a>, RuntimeError> {
        let mut members = Vec::with_capacity(defs.len());
        let mut thunks_allocated = 0;
        for &(name, ref bounds, comp) in defs {
            let shape = ArrayBuf::new(bounds, 0.0);
            let mut cells: Vec<Cell<'a>> = (0..shape.len()).map(|_| Cell::Empty).collect();
            let mut scope = Scope::new(params, extra_scalars, others, funcs);
            scope.for_each_instance(comp, &mut |clause, scope| {
                let idx = scope.subscript(name, &clause.subs)?;
                let cell = &mut cells[offset(name, &shape, &idx)?];
                if !matches!(cell, Cell::Empty) {
                    return Err(RuntimeError::WriteCollision {
                        array: name.to_string(),
                        index: idx,
                    });
                }
                let captured = scope.snapshot();
                if let Some(m) = meter {
                    m.borrow_mut()
                        .charge_mem(thunk_spine_bytes(captured.len()))?;
                }
                *cell = Cell::Thunk(&clause.value, captured);
                thunks_allocated += 1;
                Ok(())
            })?;
            members.push(Member {
                name: name.to_string(),
                shape,
                cells: RefCell::new(cells),
            });
        }
        Ok(ThunkedGroup {
            members,
            others,
            funcs,
            counters: RefCell::new(ThunkedCounters {
                thunks_allocated,
                ..ThunkedCounters::default()
            }),
            meter,
        })
    }

    fn member_of(&self, name: &str) -> Option<usize> {
        self.members.iter().position(|m| m.name == name)
    }

    /// Demand an element of a group member.
    ///
    /// # Errors
    /// ⊥ cycles, undefined elements, and evaluation failures.
    pub fn demand(&self, name: &str, idx: &[i64]) -> Result<f64, RuntimeError> {
        let m = self
            .member_of(name)
            .ok_or_else(|| RuntimeError::UnboundArray(name.to_string()))?;
        let off = offset(name, &self.members[m].shape, idx)?;
        self.demand_off(m, off, idx)
    }

    fn demand_off(&self, m: usize, off: usize, idx: &[i64]) -> Result<f64, RuntimeError> {
        self.counters.borrow_mut().demands += 1;
        let member = &self.members[m];
        let mut cells = member.cells.borrow_mut();
        match cells[off] {
            Cell::Value(v) => {
                self.counters.borrow_mut().memo_hits += 1;
                return Ok(v);
            }
            Cell::Evaluating => {
                return Err(RuntimeError::Bottom {
                    array: member.name.clone(),
                    index: idx.to_vec(),
                })
            }
            Cell::Empty => {
                return Err(RuntimeError::UndefinedElement {
                    array: member.name.clone(),
                    index: idx.to_vec(),
                })
            }
            Cell::Thunk(..) => {}
        }
        // One fuel unit per *forced* thunk — the demand-driven
        // counterpart of a taken loop iteration.
        if let Some(meter) = self.meter {
            meter.borrow_mut().charge_fuel()?;
        }
        let Cell::Thunk(value, captured) = std::mem::replace(&mut cells[off], Cell::Evaluating)
        else {
            unreachable!("matched a thunk above");
        };
        drop(cells);
        let mut scalars = Scalars::new();
        for (n, v) in captured {
            scalars.push(n, v);
        }
        let v = eval_expr(
            value,
            &mut scalars,
            &mut GroupReader { group: self },
            self.funcs,
        )?;
        member.cells.borrow_mut()[off] = Cell::Value(v);
        Ok(v)
    }

    /// Force every element of every member, in member then row-major
    /// order (`force-elements` over the binding tuple, §2).
    ///
    /// # Errors
    /// The first ⊥ / undefined / failing element.
    pub fn force_elements(&self) -> Result<(), RuntimeError> {
        for (m, member) in self.members.iter().enumerate() {
            let bounds = member.shape.bounds();
            for off in 0..member.shape.len() {
                self.demand_off(m, off, &unravel(&bounds, off))?;
            }
        }
        Ok(())
    }

    /// Force everything and extract the strict buffers, name-keyed.
    ///
    /// # Errors
    /// As [`ThunkedGroup::force_elements`].
    pub fn into_strict(self) -> Result<Vec<(String, ArrayBuf)>, RuntimeError> {
        self.force_elements()?;
        let strict = |member: Member<'_>| {
            let mut buf = member.shape;
            for (slot, cell) in buf.data_mut().iter_mut().zip(member.cells.into_inner()) {
                let Cell::Value(v) = cell else {
                    unreachable!("force_elements evaluated every cell");
                };
                *slot = v;
            }
            (member.name, buf)
        };
        Ok(self.members.into_iter().map(strict).collect())
    }

    /// Instrumentation snapshot.
    pub fn counters(&self) -> ThunkedCounters {
        *self.counters.borrow()
    }
}

/// The row-major offset of `idx` in member `name`.
fn offset(name: &str, shape: &ArrayBuf, idx: &[i64]) -> Result<usize, RuntimeError> {
    shape.offset(idx).ok_or_else(|| RuntimeError::OutOfBounds {
        array: name.to_string(),
        index: idx.to_vec(),
        bounds: shape.bounds(),
    })
}

fn unravel(bounds: &[(i64, i64)], mut off: usize) -> Vec<i64> {
    let mut idx = vec![0i64; bounds.len()];
    for k in (0..bounds.len()).rev() {
        let (lo, hi) = bounds[k];
        let extent = (hi - lo + 1).max(0) as usize;
        idx[k] = lo + (off % extent) as i64;
        off /= extent;
    }
    idx
}

/// Routes reads of group members back into `demand`; other arrays come
/// from the finished environment.
struct GroupReader<'r, 'a> {
    group: &'r ThunkedGroup<'a>,
}

impl ArrayReader for GroupReader<'_, '_> {
    fn read_element(&mut self, array: &str, idx: &[i64]) -> Result<f64, RuntimeError> {
        if self.group.member_of(array).is_some() {
            self.group.demand(array, idx)
        } else {
            let buf = self
                .group
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

    #[test]
    fn mutual_recursion_evaluates() {
        // a!1 = 1; a!i = b!(i-1) + 1; b!i = a!i * 2.
        let mut ca = parse_comp("[ 1 := 1 ] ++ [ i := b!(i-1) + 1 | i <- [2..n] ]").unwrap();
        let mut cb = parse_comp("[ i := a!i * 2 | i <- [1..n] ]").unwrap();
        let (mut c, mut l) = (0, 0);
        hac_lang::number::number_comp(&mut ca, &mut c, &mut l);
        hac_lang::number::number_comp(&mut cb, &mut c, &mut l);
        let env = ConstEnv::from_pairs([("n", 4)]);
        let others = HashMap::new();
        let funcs = FuncTable::new();
        let g = ThunkedGroup::build(
            &[("a", vec![(1, 4)], &ca), ("b", vec![(1, 4)], &cb)],
            &env,
            &[],
            &others,
            &funcs,
            None,
        )
        .unwrap();
        let bufs = g.into_strict().unwrap();
        let a = &bufs[0].1;
        let b = &bufs[1].1;
        // a: 1, 3, 7, 15; b: 2, 6, 14, 30.
        assert_eq!(a.data(), &[1.0, 3.0, 7.0, 15.0]);
        assert_eq!(b.data(), &[2.0, 6.0, 14.0, 30.0]);
    }

    #[test]
    fn mutual_bottom_detected() {
        let mut ca = parse_comp("[ 1 := b!1 ]").unwrap();
        let mut cb = parse_comp("[ 1 := a!1 ]").unwrap();
        let (mut c, mut l) = (0, 0);
        hac_lang::number::number_comp(&mut ca, &mut c, &mut l);
        hac_lang::number::number_comp(&mut cb, &mut c, &mut l);
        let env = ConstEnv::new();
        let others = HashMap::new();
        let funcs = FuncTable::new();
        let g = ThunkedGroup::build(
            &[("a", vec![(1, 1)], &ca), ("b", vec![(1, 1)], &cb)],
            &env,
            &[],
            &others,
            &funcs,
            None,
        )
        .unwrap();
        assert!(matches!(
            g.force_elements(),
            Err(RuntimeError::Bottom { .. })
        ));
    }

    #[test]
    fn guard_reading_group_member_is_clean_error() {
        // Guards are evaluated eagerly while collecting pairs, so they
        // may not read group members (documented limitation): the
        // failure is a proper UnboundArray error, not a panic.
        let mut ca = parse_comp("[ i := 1 | i <- [1..2], a!1 > 0 ]").unwrap();
        number_clauses(&mut ca);
        let env = ConstEnv::new();
        let others = HashMap::new();
        let funcs = FuncTable::new();
        let err = ThunkedGroup::build(
            &[("a", vec![(1, 2)], &ca)],
            &env,
            &[],
            &others,
            &funcs,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::UnboundArray(n) if n == "a"));
    }

    #[test]
    fn cross_member_collision_is_per_member() {
        // Same subscripts in different members are fine.
        let mut ca = parse_comp("[ 1 := 1 ]").unwrap();
        let mut cb = parse_comp("[ 1 := 2 ]").unwrap();
        let (mut c, mut l) = (0, 0);
        hac_lang::number::number_comp(&mut ca, &mut c, &mut l);
        hac_lang::number::number_comp(&mut cb, &mut c, &mut l);
        let env = ConstEnv::new();
        let others = HashMap::new();
        let funcs = FuncTable::new();
        let g = ThunkedGroup::build(
            &[("a", vec![(1, 1)], &ca), ("b", vec![(1, 1)], &cb)],
            &env,
            &[],
            &others,
            &funcs,
            None,
        )
        .unwrap();
        g.force_elements().unwrap();
    }

    /// A one-member group `a` over `src`. The comprehension is leaked:
    /// the group's thunks borrow their value expressions from it.
    fn build<'a>(
        src: &str,
        n: i64,
        bounds: &[(i64, i64)],
        others: &'a HashMap<String, ArrayBuf>,
        funcs: &'a FuncTable,
    ) -> Result<ThunkedGroup<'a>, RuntimeError> {
        let mut c = parse_comp(src).unwrap();
        number_clauses(&mut c);
        let c: &'a Comp = Box::leak(Box::new(c));
        let env = ConstEnv::from_pairs([("n", n)]);
        ThunkedGroup::build(&[("a", bounds.to_vec(), c)], &env, &[], others, funcs, None)
    }

    fn strict(g: ThunkedGroup<'_>) -> ArrayBuf {
        g.into_strict().unwrap().remove(0).1
    }

    #[test]
    fn squares_vector() {
        let others = HashMap::new();
        let funcs = FuncTable::new();
        let a = build("[ i := i*i | i <- [1..n] ]", 5, &[(1, 5)], &others, &funcs).unwrap();
        let buf = strict(a);
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
        let buf = strict(a);
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
        let buf = strict(a);
        assert_eq!(buf.data(), &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]);
    }

    #[test]
    fn wavefront_2d() {
        let others = HashMap::new();
        let funcs = FuncTable::new();
        let src = "[ (1,j) := 1 | j <- [1..n] ] ++ [ (i,1) := 1 | i <- [2..n] ] ++ \
                   [ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1) | i <- [2..n], j <- [2..n] ]";
        let a = build(src, 4, &[(1, 4), (1, 4)], &others, &funcs).unwrap();
        let buf = strict(a);
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
        let buf = strict(a);
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
        let buf = strict(a);
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
        let buf = strict(a);
        assert_eq!(buf.data(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn stepped_generator_leaves_empties() {
        let others = HashMap::new();
        let funcs = FuncTable::new();
        let a = build("[ i := 0 | i <- [1,3..n] ]", 5, &[(1, 5)], &others, &funcs).unwrap();
        assert!(a.demand("a", &[1]).is_ok());
        assert!(matches!(
            a.demand("a", &[2]),
            Err(RuntimeError::UndefinedElement { .. })
        ));
    }
}
