//! Mutually recursive `letrec*` groups of thunked arrays (§2).
//!
//! `letrec*` can "introduce multiple mutually recursive bindings by
//! treating x as a tuple". A [`ThunkedGroup`] evaluates such a binding
//! group: every member's elements are thunks, and a demand on any
//! member may transitively demand cells of any other member. Forcing
//! the group realizes the strict context for all members at once.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use hac_lang::ast::{Comp, Expr};
use hac_lang::env::ConstEnv;

use crate::error::RuntimeError;
use crate::governor::Meter;
use crate::thunked::{thunk_spine_bytes, ThunkedCounters};
use crate::value::{as_int, eval_expr, ArrayBuf, ArrayReader, FuncTable, MapReader, Scalars};

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

#[derive(Debug)]
struct Member {
    name: String,
    bounds: Vec<(i64, i64)>,
    shape: ArrayBuf,
    cells: RefCell<Vec<Cell>>,
    thunks: Vec<Thunk>,
}

/// One group member: `(name, bounds, comprehension)`.
pub type GroupDef<'d> = (&'d str, Vec<(i64, i64)>, &'d Comp);

/// A group of mutually recursive thunked arrays.
pub struct ThunkedGroup<'a> {
    members: Vec<Member>,
    others: &'a HashMap<String, ArrayBuf>,
    funcs: &'a FuncTable,
    counters: RefCell<ThunkedCounters>,
    /// Shared resource budget: one fuel unit per forced thunk, spine
    /// bytes per allocated thunk. `None` = unmetered.
    meter: Option<&'a RefCell<Meter>>,
}

impl std::fmt::Debug for ThunkedGroup<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThunkedGroup")
            .field(
                "members",
                &self
                    .members
                    .iter()
                    .map(|m| m.name.as_str())
                    .collect::<Vec<_>>(),
            )
            .field("counters", &self.counters.borrow())
            .finish()
    }
}

impl<'a> ThunkedGroup<'a> {
    /// Build a group from `(name, bounds, comprehension)` triples.
    ///
    /// # Errors
    /// Collisions, out-of-bounds definitions, and eager-evaluation
    /// failures while collecting pairs (subscripts/guards/bounds may
    /// not reference group members).
    pub fn build(
        defs: &[GroupDef<'_>],
        params: &ConstEnv,
        others: &'a HashMap<String, ArrayBuf>,
        funcs: &'a FuncTable,
    ) -> Result<ThunkedGroup<'a>, RuntimeError> {
        ThunkedGroup::build_with_scalars(defs, params, &[], others, funcs)
    }

    /// [`ThunkedGroup::build`] with extra runtime scalar bindings
    /// (e.g. earlier reduction results).
    pub fn build_with_scalars(
        defs: &[GroupDef<'_>],
        params: &ConstEnv,
        extra_scalars: &[(String, f64)],
        others: &'a HashMap<String, ArrayBuf>,
        funcs: &'a FuncTable,
    ) -> Result<ThunkedGroup<'a>, RuntimeError> {
        ThunkedGroup::build_metered(defs, params, extra_scalars, others, funcs, None)
    }

    /// [`ThunkedGroup::build_with_scalars`] charging a shared
    /// [`Meter`]: spine bytes per allocated thunk during collection,
    /// one fuel unit per thunk forced later (the non-strict analog of
    /// the compiled engines' per-iteration charge).
    ///
    /// # Errors
    /// As [`ThunkedGroup::build_with_scalars`], plus budget exhaustion.
    pub fn build_metered(
        defs: &[GroupDef<'_>],
        params: &ConstEnv,
        extra_scalars: &[(String, f64)],
        others: &'a HashMap<String, ArrayBuf>,
        funcs: &'a FuncTable,
        meter: Option<&'a RefCell<Meter>>,
    ) -> Result<ThunkedGroup<'a>, RuntimeError> {
        let mut group = ThunkedGroup {
            members: Vec::new(),
            others,
            funcs,
            counters: RefCell::new(ThunkedCounters::default()),
            meter,
        };
        for (name, bounds, _) in defs {
            let shape = ArrayBuf::new(bounds, 0.0);
            group.members.push(Member {
                name: name.to_string(),
                bounds: bounds.clone(),
                cells: RefCell::new(vec![Cell::Empty; shape.len()]),
                shape,
                thunks: Vec::new(),
            });
        }
        for (m, (_, _, comp)) in defs.iter().enumerate() {
            let mut scalars = Scalars::new();
            for (p, v) in params.iter() {
                scalars.push(p, v as f64);
            }
            for (n, v) in extra_scalars {
                scalars.push(n.clone(), *v);
            }
            let mut values: HashMap<u32, Rc<Expr>> = HashMap::new();
            comp.walk(&mut |c| {
                if let Comp::Clause(sv) = c {
                    values.insert(sv.id.0, Rc::new(sv.value.clone()));
                }
            });
            group.collect(m, comp, &mut scalars, &values)?;
        }
        Ok(group)
    }

    fn collect(
        &mut self,
        m: usize,
        comp: &Comp,
        scalars: &mut Scalars,
        values: &HashMap<u32, Rc<Expr>>,
    ) -> Result<(), RuntimeError> {
        match comp {
            Comp::Append(cs) => {
                for c in cs {
                    self.collect(m, c, scalars, values)?;
                }
                Ok(())
            }
            Comp::Gen {
                var, range, body, ..
            } => {
                let mut reader = MapReader::new(self.others);
                let lo = eval_expr(&range.lo, scalars, &mut reader, self.funcs)?;
                let hi = eval_expr(&range.hi, scalars, &mut reader, self.funcs)?;
                if lo.fract() != 0.0 || hi.fract() != 0.0 {
                    return Err(RuntimeError::NonIntegerBound {
                        var: var.clone(),
                        value: if lo.fract() != 0.0 { lo } else { hi },
                    });
                }
                let (lo, hi, step) = (lo as i64, hi as i64, range.step);
                let mut i = lo;
                loop {
                    if (step > 0 && i > hi) || (step < 0 && i < hi) {
                        break;
                    }
                    scalars.push(var.clone(), i as f64);
                    self.collect(m, body, scalars, values)?;
                    scalars.pop();
                    i += step;
                }
                Ok(())
            }
            Comp::Guard { cond, body } => {
                let mut reader = MapReader::new(self.others);
                if eval_expr(cond, scalars, &mut reader, self.funcs)? != 0.0 {
                    self.collect(m, body, scalars, values)?;
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
                self.collect(m, body, scalars, values)?;
                scalars.truncate(depth);
                Ok(())
            }
            Comp::Clause(sv) => {
                let mut idx = Vec::with_capacity(sv.subs.len());
                for s in &sv.subs {
                    let mut reader = MapReader::new(self.others);
                    let v = eval_expr(s, scalars, &mut reader, self.funcs)?;
                    idx.push(as_int(&self.members[m].name, v)?);
                }
                let member = &mut self.members[m];
                let off = member.shape.offset(&idx).ok_or(RuntimeError::OutOfBounds {
                    array: member.name.clone(),
                    index: idx.clone(),
                    bounds: member.bounds.clone(),
                })?;
                let mut cells = member.cells.borrow_mut();
                if !matches!(cells[off], Cell::Empty) {
                    return Err(RuntimeError::WriteCollision {
                        array: member.name.clone(),
                        index: idx,
                    });
                }
                let snap = scalars.snapshot();
                if let Some(m) = self.meter {
                    m.borrow_mut().charge_mem(thunk_spine_bytes(snap.len()))?;
                }
                let tid = member.thunks.len();
                member.thunks.push(Thunk {
                    value: Rc::clone(&values[&sv.id.0]),
                    scalars: snap,
                });
                cells[off] = Cell::Thunk(tid);
                self.counters.borrow_mut().thunks_allocated += 1;
                Ok(())
            }
        }
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
        let member = &self.members[m];
        let off = member.shape.offset(idx).ok_or(RuntimeError::OutOfBounds {
            array: name.to_string(),
            index: idx.to_vec(),
            bounds: member.bounds.clone(),
        })?;
        self.demand_off(m, off, idx)
    }

    fn demand_off(&self, m: usize, off: usize, idx: &[i64]) -> Result<f64, RuntimeError> {
        self.counters.borrow_mut().demands += 1;
        let member = &self.members[m];
        let state = member.cells.borrow()[off].clone();
        match state {
            Cell::Value(v) => {
                self.counters.borrow_mut().memo_hits += 1;
                Ok(v)
            }
            Cell::Evaluating => Err(RuntimeError::Bottom {
                array: member.name.clone(),
                index: idx.to_vec(),
            }),
            Cell::Empty => Err(RuntimeError::UndefinedElement {
                array: member.name.clone(),
                index: idx.to_vec(),
            }),
            Cell::Thunk(tid) => {
                // One fuel unit per *forced* thunk — the demand-driven
                // counterpart of a taken loop iteration.
                if let Some(m) = self.meter {
                    m.borrow_mut().charge_fuel()?;
                }
                member.cells.borrow_mut()[off] = Cell::Evaluating;
                let thunk = &member.thunks[tid];
                let mut scalars = Scalars::new();
                for (n, v) in &thunk.scalars {
                    scalars.push(n.clone(), *v);
                }
                let expr = Rc::clone(&thunk.value);
                let mut reader = GroupReader { group: self };
                let v = eval_expr(&expr, &mut scalars, &mut reader, self.funcs)?;
                member.cells.borrow_mut()[off] = Cell::Value(v);
                Ok(v)
            }
        }
    }

    /// Force every element of every member (`force-elements` over the
    /// binding tuple, §2).
    ///
    /// # Errors
    /// The first ⊥ / undefined / failing element.
    pub fn force_elements(&self) -> Result<(), RuntimeError> {
        for m in 0..self.members.len() {
            let member = &self.members[m];
            for off in 0..member.shape.len() {
                let idx = unravel(&member.bounds, off);
                self.demand_off(m, off, &idx)?;
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
        let mut out = Vec::with_capacity(self.members.len());
        for member in self.members {
            let mut buf = member.shape;
            let data = buf.data_mut();
            for (off, c) in member.cells.into_inner().into_iter().enumerate() {
                match c {
                    Cell::Value(v) => data[off] = v,
                    _ => unreachable!("forced"),
                }
            }
            out.push((member.name, buf));
        }
        Ok(out)
    }

    /// Instrumentation snapshot.
    pub fn counters(&self) -> ThunkedCounters {
        *self.counters.borrow()
    }
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
            &others,
            &funcs,
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
            &others,
            &funcs,
        )
        .unwrap();
        assert!(matches!(
            g.force_elements(),
            Err(RuntimeError::Bottom { .. })
        ));
    }

    #[test]
    fn singleton_group_behaves_like_thunked_array() {
        let mut c = parse_comp("[ 1 := 1 ] ++ [ i := a!(i-1) * 3 | i <- [2..n] ]").unwrap();
        number_clauses(&mut c);
        let env = ConstEnv::from_pairs([("n", 4)]);
        let others = HashMap::new();
        let funcs = FuncTable::new();
        let g = ThunkedGroup::build(&[("a", vec![(1, 4)], &c)], &env, &others, &funcs).unwrap();
        let bufs = g.into_strict().unwrap();
        assert_eq!(bufs[0].1.data(), &[1.0, 3.0, 9.0, 27.0]);
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
        let err =
            ThunkedGroup::build(&[("a", vec![(1, 2)], &ca)], &env, &others, &funcs).unwrap_err();
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
            &others,
            &funcs,
        )
        .unwrap();
        g.force_elements().unwrap();
    }
}
