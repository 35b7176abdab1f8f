//! Lowering schedules to Limp — "thunkless code generation" (§8) and
//! in-place `bigupd` code generation with node splitting (§9).
//!
//! A [`Plan`]'s loops become counted `For` statements with the chosen
//! directions; clauses become direct `Store`s whose subscript and value
//! expressions have the comprehension-path `let`s inlined (the same
//! normal form the analysis used, so node-splitting read *ordinals*
//! line up with [`hac_analysis::refs`]'s read numbering).
//!
//! For updates, the three §9 strategies lower as:
//! * `InPlace` — stores aliased onto the base buffer, nothing else;
//! * `Split`   — precopy loops and carry-buffer save phases are
//!   synthesized, and redirected reads are rewritten, before the plan's
//!   loops run on the base buffer;
//! * `CopyWhole` — one `CopyArray`, then the plan runs on the copy.
//!
//! Downstream, the tape compiler ([`crate::tape`]) consumes the `par`
//! flags and affine subscripts this lowering preserves; the fusion
//! pass ([`crate::fuse`]) needs both intact to vectorize an innermost
//! loop, so lowering must keep proven-parallel loops' bodies in the
//! affine normal form rather than re-materializing subscripts.

use std::collections::HashMap;
use std::fmt;

use hac_analysis::refs::ClauseRefs;
use hac_lang::ast::{BinOp, ClauseId, Expr};
use hac_lang::env::ConstEnv;
use hac_lang::normalize::{inline_path_lets, normalize_loop, NormalizedLoop};
use hac_lang::number::{ClauseContext, LoopFrame, PathStep};
use hac_schedule::plan::{Dirn, Plan, Step};
use hac_schedule::split::{loop_dirs_for_clause, SplitAction, UpdatePlan, UpdateStrategy};

use crate::limp::{LProgram, LStmt, StoreCheck};

/// A lowering failure.
#[derive(Debug, Clone, PartialEq)]
pub enum LowerError {
    /// A loop bound did not fold to a constant under the environment.
    NonConstantLoopBound { var: String },
    /// The plan references a clause the reference table does not know.
    UnknownClause(ClauseId),
    /// A split action names a read ordinal the clause does not have.
    ReadOrdinalOutOfRange { clause: ClauseId, read: usize },
    /// A carry buffer was requested for a clause whose plan position
    /// could not be found (internal error surfaced defensively).
    ClauseNotInPlan(ClauseId),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::NonConstantLoopBound { var } => {
                write!(f, "loop `{var}` bound is not a constant")
            }
            LowerError::UnknownClause(c) => write!(f, "plan references unknown clause {c}"),
            LowerError::ReadOrdinalOutOfRange { clause, read } => {
                write!(f, "clause {clause} has no read #{read}")
            }
            LowerError::ClauseNotInPlan(c) => {
                write!(f, "clause {c} does not appear in the plan")
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// Whether to emit the runtime checks the analysis could not discharge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// Collisions and empties proven impossible: plain stores.
    Elide,
    /// Emit per-store collision checks and a final completeness check.
    Checked,
}

/// How a read should be rewritten inside one clause's value.
#[derive(Debug, Clone)]
enum ReadRewrite {
    /// Replace the read outright.
    Replace(Expr),
    /// `if cond then with else <original read>`.
    Wrap { cond: Expr, with: Expr },
}

/// Per-clause rewrite tables plus statements to inject.
#[derive(Debug, Clone, Default)]
struct SplitLowering {
    /// clause → (read ordinal → rewrite).
    rewrites: HashMap<ClauseId, HashMap<usize, ReadRewrite>>,
    /// Statements to run before the whole plan (precopies).
    prelude: Vec<LStmt>,
    /// clause → (loop level → save statements injected at the start of
    /// that loop's body in the pass containing the clause).
    injections: HashMap<ClauseId, Vec<(usize, Vec<LStmt>)>>,
}

/// Lower a monolithic array's thunkless plan.
///
/// # Errors
/// See [`LowerError`].
pub fn lower_array(
    name: &str,
    bounds: &[(i64, i64)],
    refs: &[ClauseRefs],
    plan: &Plan,
    env: &ConstEnv,
    checks: CheckMode,
) -> Result<LProgram, LowerError> {
    let mut stmts = vec![LStmt::Alloc {
        array: name.to_string(),
        bounds: bounds.to_vec(),
        fill: 0.0,
        temp: false,
        checked: checks == CheckMode::Checked,
    }];
    let splits = SplitLowering::default();
    let mut ctx = Lowerer {
        refs,
        env,
        target: name.to_string(),
        check: match checks {
            CheckMode::Elide => StoreCheck::None,
            CheckMode::Checked => StoreCheck::Monolithic,
        },
        splits,
        par_loops: &plan.par_loops,
        red_loops: &plan.red_loops,
    };
    for s in &plan.steps {
        stmts.extend(ctx.lower_step(s, 0)?);
    }
    if checks == CheckMode::Checked {
        stmts.push(LStmt::CheckComplete {
            array: name.to_string(),
        });
    }
    Ok(LProgram {
        stmts,
        result: name.to_string(),
    })
}

/// A lowered update: run the program, aliasing `result → base` in the
/// VM when `in_place` (the update overwrites the base buffer).
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredUpdate {
    pub prog: LProgram,
    pub in_place: bool,
}

/// Lower a planned `bigupd` (§9).
///
/// # Errors
/// See [`LowerError`].
pub fn lower_update(
    base: &str,
    result: &str,
    refs: &[ClauseRefs],
    update: &UpdatePlan,
    env: &ConstEnv,
) -> Result<LoweredUpdate, LowerError> {
    let (splits, in_place) = match &update.strategy {
        UpdateStrategy::InPlace => (SplitLowering::default(), true),
        UpdateStrategy::CopyWhole => (
            SplitLowering {
                prelude: vec![LStmt::CopyArray {
                    dst: result.to_string(),
                    src: base.to_string(),
                }],
                ..SplitLowering::default()
            },
            false,
        ),
        UpdateStrategy::Split(actions) => {
            (lower_splits(actions, base, refs, &update.plan, env)?, true)
        }
    };
    let mut stmts = splits.prelude.clone();
    let mut ctx = Lowerer {
        refs,
        env,
        target: result.to_string(),
        check: StoreCheck::None,
        splits,
        par_loops: &update.plan.par_loops,
        red_loops: &update.plan.red_loops,
    };
    for s in &update.plan.steps {
        stmts.extend(ctx.lower_step(s, 0)?);
    }
    Ok(LoweredUpdate {
        prog: LProgram {
            stmts,
            result: result.to_string(),
        },
        in_place,
    })
}

struct Lowerer<'a> {
    refs: &'a [ClauseRefs<'a>],
    env: &'a ConstEnv,
    /// The array clauses store into.
    target: String,
    check: StoreCheck,
    splits: SplitLowering,
    /// Loop ids the plan proved carry no dependence (§10); passes over
    /// these are marked `par` in the emitted Limp.
    par_loops: &'a [hac_lang::ast::LoopId],
    /// Loop ids whose carried dependences are all reassociable
    /// accumulator recurrences; passes over these are marked `red`.
    red_loops: &'a [hac_lang::ast::LoopId],
}

impl Lowerer<'_> {
    fn clause_refs(&self, id: ClauseId) -> Result<&ClauseRefs<'_>, LowerError> {
        self.refs
            .iter()
            .find(|r| r.id() == id)
            .ok_or(LowerError::UnknownClause(id))
    }

    fn lower_step(&mut self, step: &Step, depth: usize) -> Result<Vec<LStmt>, LowerError> {
        match step {
            Step::Clause(id) => {
                let cr = self.clause_refs(*id)?;
                let ctx = &cr.ctx;
                let subs: Vec<Expr> = ctx
                    .clause
                    .subs
                    .iter()
                    .map(|s| inline_path_lets(ctx, s))
                    .collect();
                let mut value = inline_path_lets(ctx, &ctx.clause.value);
                if let Some(map) = self.splits.rewrites.get(id) {
                    let mut counter = 0usize;
                    value = rewrite_reads(&value, &mut counter, map);
                }
                Ok(vec![LStmt::Store {
                    array: self.target.clone(),
                    subs,
                    value,
                    check: self.check,
                }])
            }
            Step::Guard { cond, body } => {
                let mut then = Vec::new();
                for s in body {
                    then.extend(self.lower_step(s, depth)?);
                }
                Ok(vec![LStmt::If {
                    cond: cond.clone(),
                    then,
                    els: vec![],
                }])
            }
            Step::Let { binds, body } => {
                let mut inner = Vec::new();
                for s in body {
                    inner.extend(self.lower_step(s, depth)?);
                }
                Ok(vec![LStmt::Let {
                    binds: binds.clone(),
                    body: inner,
                }])
            }
            Step::Loop {
                id,
                var,
                range,
                dirn,
                body,
            } => {
                let frame = LoopFrame {
                    id: hac_lang::ast::LoopId(u32::MAX),
                    var,
                    range,
                };
                let nl = normalize_loop(&frame, self.env)
                    .map_err(|_| LowerError::NonConstantLoopBound { var: var.clone() })?;
                let (start, end, step) = loop_params(&nl, *dirn);
                // Carry-buffer save phases inject at the start of the
                // loop body at their level, in the pass containing the
                // clause.
                let mut lowered = Vec::new();
                let clauses_in_body: Vec<ClauseId> =
                    body.iter().flat_map(|s| s.clauses()).collect();
                for (clause, inj) in self.splits.injections.clone() {
                    if !clauses_in_body.contains(&clause) {
                        continue;
                    }
                    for (level, stmts) in inj {
                        if level == depth {
                            lowered.extend(stmts.clone());
                        }
                    }
                }
                let injected = !lowered.is_empty();
                for s in body {
                    lowered.extend(self.lower_step(s, depth + 1)?);
                }
                // A loop is marked parallel only on the plan's §10
                // verdict, and never when carry-buffer saves were
                // injected into it (the ring temporary is shared
                // between iterations; the planner already clears
                // `par_loops` in that case — this is the belt).
                Ok(vec![LStmt::For {
                    var: var.clone(),
                    start,
                    end,
                    step,
                    par: self.par_loops.contains(id) && !injected,
                    red: self.red_loops.contains(id) && !injected,
                    body: lowered,
                }])
            }
        }
    }
}

/// Concrete iteration parameters for a loop pass.
fn loop_params(nl: &NormalizedLoop, dirn: Dirn) -> (i64, i64, i64) {
    let first = nl.lo;
    let last = nl.lo + (nl.size - 1) * nl.step;
    match dirn {
        Dirn::Forward => (first, last, nl.step),
        Dirn::Backward => (last, first, -nl.step),
    }
}

/// `(var - (lo - step)) / step` — the normalized 1-based position of a
/// loop's index variable.
fn norm_pos_expr(var: &str, nl: &NormalizedLoop) -> Expr {
    let num = Expr::sub(Expr::var(var), Expr::int(nl.lo - nl.step));
    if nl.step == 1 {
        num
    } else {
        Expr::bin(BinOp::Div, num, Expr::int(nl.step))
    }
}

/// The execution-order step number (1-based) of the loop at `level` in
/// the clause's nest under the plan's chosen direction.
fn exec_step_expr(var: &str, nl: &NormalizedLoop, dirn: Dirn) -> Expr {
    let pos = norm_pos_expr(var, nl);
    match dirn {
        Dirn::Forward => pos,
        Dirn::Backward => Expr::sub(Expr::int(nl.size + 1), pos),
    }
}

fn lower_splits(
    actions: &[SplitAction],
    base: &str,
    refs: &[ClauseRefs],
    plan: &Plan,
    env: &ConstEnv,
) -> Result<SplitLowering, LowerError> {
    let mut out = SplitLowering::default();
    for action in actions {
        match action {
            SplitAction::Precopy { clause, read_index } => {
                let cr = refs
                    .iter()
                    .find(|r| r.id() == *clause)
                    .ok_or(LowerError::UnknownClause(*clause))?;
                let read_expr =
                    nth_read(&cr.ctx, *read_index).ok_or(LowerError::ReadOrdinalOutOfRange {
                        clause: *clause,
                        read: *read_index,
                    })?;
                let temp = format!("__pre_{}_{}", clause.0, read_index);
                let norm_subs: Vec<Expr> = cr
                    .ctx
                    .loops()
                    .zip(cr.nest.iter())
                    .map(|(f, nl)| norm_pos_expr(f.var, nl))
                    .collect();
                let bounds: Vec<(i64, i64)> = cr.nest.iter().map(|nl| (1, nl.size)).collect();
                out.prelude.push(LStmt::Alloc {
                    array: temp.clone(),
                    bounds,
                    fill: 0.0,
                    temp: true,
                    checked: false,
                });
                // Rebuild the clause's own path as the precopy nest.
                let leaf = LStmt::Store {
                    array: temp.clone(),
                    subs: norm_subs.clone(),
                    value: read_expr,
                    check: StoreCheck::None,
                };
                out.prelude.push(lower_path(&cr.ctx.path, leaf, env)?);
                out.rewrites.entry(*clause).or_default().insert(
                    *read_index,
                    ReadRewrite::Replace(Expr::Index {
                        array: temp,
                        subs: norm_subs,
                    }),
                );
            }
            SplitAction::CarryBuffer {
                clause,
                read_index,
                level,
                lag,
            } => {
                let cr = refs
                    .iter()
                    .find(|r| r.id() == *clause)
                    .ok_or(LowerError::UnknownClause(*clause))?;
                let dirs = loop_dirs_for_clause(plan, *clause);
                let dirn = *dirs
                    .get(*level)
                    .ok_or(LowerError::ClauseNotInPlan(*clause))?;
                let nl = &cr.nest[*level];
                let vars: Vec<&str> = cr.ctx.loops().map(|f| f.var).collect();
                let var = vars[*level];
                let ring = lag + 1;
                let temp = format!("__carry_{}_{}", clause.0, read_index);
                let inner = &cr.nest[*level + 1..];
                let mut bounds = vec![(0, *lag)];
                bounds.extend(inner.iter().map(|l| (1, l.size)));
                out.prelude.push(LStmt::Alloc {
                    array: temp.clone(),
                    bounds,
                    fill: 0.0,
                    temp: true,
                    checked: false,
                });
                let s_expr = exec_step_expr(var, nl, dirn);
                let slot_save = Expr::bin(BinOp::Mod, s_expr.clone(), Expr::int(ring));
                let slot_read = Expr::bin(
                    BinOp::Mod,
                    Expr::sub(s_expr.clone(), Expr::int(*lag)),
                    Expr::int(ring),
                );
                let inner_pos: Vec<Expr> = vars[*level + 1..]
                    .iter()
                    .zip(inner)
                    .map(|(v, l)| norm_pos_expr(v, l))
                    .collect();

                // Save phase: store the about-to-be-clobbered values.
                let write_subs: Vec<Expr> = cr
                    .ctx
                    .clause
                    .subs
                    .iter()
                    .map(|s| inline_path_lets(&cr.ctx, s))
                    .collect();
                let mut save_subs = vec![slot_save];
                save_subs.extend(inner_pos.clone());
                let save_leaf = LStmt::Store {
                    array: temp.clone(),
                    subs: save_subs,
                    value: Expr::Index {
                        array: base.to_string(),
                        subs: write_subs,
                    },
                    check: StoreCheck::None,
                };
                // Rebuild only the path *below* the carrying loop.
                let below = path_below_level(&cr.ctx, *level);
                let save_stmts = lower_path(below, save_leaf, env)?;
                out.injections
                    .entry(*clause)
                    .or_default()
                    .push((*level, vec![save_stmts]));

                // Redirect: ring when the source iteration exists.
                let mut read_subs = vec![slot_read];
                read_subs.extend(inner_pos);
                let cond = Expr::bin(BinOp::Gt, exec_step_expr(var, nl, dirn), Expr::int(*lag));
                out.rewrites.entry(*clause).or_default().insert(
                    *read_index,
                    ReadRewrite::Wrap {
                        cond,
                        with: Expr::Index {
                            array: temp,
                            subs: read_subs,
                        },
                    },
                );
            }
        }
    }
    Ok(out)
}

/// The clause-path steps strictly below the `level`-th loop.
fn path_below_level<'c, 'a>(ctx: &'c ClauseContext<'a>, level: usize) -> &'c [PathStep<'a>] {
    let mut seen = 0usize;
    for (i, s) in ctx.path.iter().enumerate() {
        if let PathStep::Loop(_) = s {
            if seen == level {
                return &ctx.path[i + 1..];
            }
            seen += 1;
        }
    }
    &[]
}

/// Rebuild a clause path (loops forward, guards, lets) around a leaf
/// statement.
fn lower_path(path: &[PathStep], leaf: LStmt, env: &ConstEnv) -> Result<LStmt, LowerError> {
    match path.first() {
        None => Ok(leaf),
        Some(PathStep::Loop(frame)) => {
            let nl = normalize_loop(frame, env).map_err(|_| LowerError::NonConstantLoopBound {
                var: frame.var.to_string(),
            })?;
            let (start, end, step) = loop_params(&nl, Dirn::Forward);
            let inner = lower_path(&path[1..], leaf, env)?;
            // Synthesized prelude/save loops carry no §10 verdict:
            // always sequential.
            Ok(LStmt::For {
                var: frame.var.to_string(),
                start,
                end,
                step,
                par: false,
                red: false,
                body: vec![inner],
            })
        }
        Some(PathStep::Guard(cond)) => {
            let inner = lower_path(&path[1..], leaf, env)?;
            Ok(LStmt::If {
                cond: (*cond).clone(),
                then: vec![inner],
                els: vec![],
            })
        }
        Some(PathStep::Let(binds)) => {
            let inner = lower_path(&path[1..], leaf, env)?;
            Ok(LStmt::Let {
                binds: binds.to_vec(),
                body: vec![inner],
            })
        }
    }
}

/// The `ordinal`-th read expression of a clause's inlined value, using
/// exactly [`hac_analysis::refs`]'s pre-order numbering.
fn nth_read(ctx: &ClauseContext, ordinal: usize) -> Option<Expr> {
    let value = inline_path_lets(ctx, &ctx.clause.value);
    let mut counter = 0usize;
    find_read(&value, &mut counter, ordinal)
}

fn find_read(e: &Expr, counter: &mut usize, ordinal: usize) -> Option<Expr> {
    match e {
        Expr::Index { subs, .. } => {
            let mine = *counter;
            *counter += 1;
            if mine == ordinal {
                return Some(e.clone());
            }
            for s in subs {
                if let Some(found) = find_read(s, counter, ordinal) {
                    return Some(found);
                }
            }
            None
        }
        Expr::Num(_) | Expr::Int(_) | Expr::Var(_) => None,
        Expr::Binary { lhs, rhs, .. } => {
            find_read(lhs, counter, ordinal).or_else(|| find_read(rhs, counter, ordinal))
        }
        Expr::Unary { expr, .. } => find_read(expr, counter, ordinal),
        Expr::If { cond, then, els } => find_read(cond, counter, ordinal)
            .or_else(|| find_read(then, counter, ordinal))
            .or_else(|| find_read(els, counter, ordinal)),
        Expr::Let { binds, body } => {
            for (_, b) in binds {
                if let Some(found) = find_read(b, counter, ordinal) {
                    return Some(found);
                }
            }
            find_read(body, counter, ordinal)
        }
        Expr::Call { args, .. } => {
            for a in args {
                if let Some(found) = find_read(a, counter, ordinal) {
                    return Some(found);
                }
            }
            None
        }
    }
}

/// Rewrite reads by ordinal, numbering exactly like
/// [`hac_analysis::refs`]'s collection (outer `Index` before its
/// subscripts).
fn rewrite_reads(e: &Expr, counter: &mut usize, map: &HashMap<usize, ReadRewrite>) -> Expr {
    match e {
        Expr::Index { array, subs } => {
            let mine = *counter;
            *counter += 1;
            let new_subs: Vec<Expr> = subs
                .iter()
                .map(|s| rewrite_reads(s, counter, map))
                .collect();
            let orig = Expr::Index {
                array: array.clone(),
                subs: new_subs,
            };
            match map.get(&mine) {
                None => orig,
                Some(ReadRewrite::Replace(r)) => r.clone(),
                Some(ReadRewrite::Wrap { cond, with }) => Expr::If {
                    cond: Box::new(cond.clone()),
                    then: Box::new(with.clone()),
                    els: Box::new(orig),
                },
            }
        }
        Expr::Num(_) | Expr::Int(_) | Expr::Var(_) => e.clone(),
        Expr::Binary { op, lhs, rhs } => Expr::bin(
            *op,
            rewrite_reads(lhs, counter, map),
            rewrite_reads(rhs, counter, map),
        ),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(rewrite_reads(expr, counter, map)),
        },
        Expr::If { cond, then, els } => Expr::If {
            cond: Box::new(rewrite_reads(cond, counter, map)),
            then: Box::new(rewrite_reads(then, counter, map)),
            els: Box::new(rewrite_reads(els, counter, map)),
        },
        Expr::Let { binds, body } => Expr::Let {
            binds: binds
                .iter()
                .map(|(n, b)| (n.clone(), rewrite_reads(b, counter, map)))
                .collect(),
            body: Box::new(rewrite_reads(body, counter, map)),
        },
        Expr::Call { func, args } => Expr::Call {
            func: func.clone(),
            args: args
                .iter()
                .map(|a| rewrite_reads(a, counter, map))
                .collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_analysis::analyze::analyze_bigupd;
    use hac_analysis::depgraph::flow_dependences;
    use hac_analysis::refs::collect_refs;
    use hac_analysis::search::TestPolicy;
    use hac_lang::number::number_clauses;
    use hac_lang::parser::parse_comp;
    use hac_runtime::value::ArrayBuf;
    use hac_schedule::plan::ScheduleOutcome;
    use hac_schedule::scheduler::schedule;
    use hac_schedule::split::plan_update;

    use crate::limp::Vm;

    fn lower_and_run(src: &str, n: i64, bounds: &[(i64, i64)], checks: CheckMode) -> Vm {
        let mut c = parse_comp(src).unwrap();
        number_clauses(&mut c);
        let env = ConstEnv::from_pairs([("n", n)]);
        let refs = collect_refs(&c, "a", &env).unwrap();
        let flow = flow_dependences(&refs, "a", &TestPolicy::default());
        let plan = match schedule(&c, &flow.edges) {
            ScheduleOutcome::Thunkless(p) => p,
            other => panic!("{other:?}"),
        };
        let prog = lower_array("a", bounds, &refs, &plan, &env, checks).unwrap();
        let mut vm = Vm::new();
        vm.run(&prog)
            .unwrap_or_else(|e| panic!("{e}\n{}", prog.render()));
        vm
    }

    #[test]
    fn forward_recurrence_lowers_and_runs() {
        let vm = lower_and_run(
            "[ 1 := 1 ] ++ [ i := a!(i-1) * 2 | i <- [2..n] ]",
            6,
            &[(1, 6)],
            CheckMode::Elide,
        );
        assert_eq!(
            vm.array("a").unwrap().data(),
            &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
        );
        assert_eq!(vm.counters.check_ops, 0, "checks elided");
    }

    #[test]
    fn wavefront_lowers_and_runs() {
        let src = "[ (1,j) := 1 | j <- [1..n] ] ++ [ (i,1) := 1 | i <- [2..n] ] ++ \
                   [ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1) | i <- [2..n], j <- [2..n] ]";
        let vm = lower_and_run(src, 4, &[(1, 4), (1, 4)], CheckMode::Elide);
        let a = vm.array("a").unwrap();
        assert_eq!(a.get("a", &[4, 4]).unwrap(), 63.0);
    }

    #[test]
    fn checked_mode_counts_checks() {
        let vm = lower_and_run("[ i := i | i <- [1..n] ]", 5, &[(1, 5)], CheckMode::Checked);
        // 5 store checks + 5 completeness checks.
        assert_eq!(vm.counters.check_ops, 10);
    }

    fn lower_update_and_run(src: &str, n: i64, base: ArrayBuf) -> (Vm, LoweredUpdate) {
        let mut c = parse_comp(src).unwrap();
        number_clauses(&mut c);
        let env = ConstEnv::from_pairs([("n", n)]);
        let u = analyze_bigupd("a", "b", &c, &env, &TestPolicy::default()).unwrap();
        let up = plan_update(&c, &u).expect("schedulable");
        let lowered = lower_update("a", "b", &u.refs, &up, &env).unwrap();
        let mut vm = Vm::new();
        vm.bind("a", base);
        if lowered.in_place {
            vm.alias("b", "a");
        }
        vm.run(&lowered.prog)
            .unwrap_or_else(|e| panic!("{e}\n{}", lowered.prog.render()));
        (vm, lowered)
    }

    fn matrix(n: i64, f: impl Fn(i64, i64) -> f64) -> ArrayBuf {
        let mut b = ArrayBuf::new(&[(1, n), (1, n)], 0.0);
        for i in 1..=n {
            for j in 1..=n {
                b.set("a", &[i, j], f(i, j)).unwrap();
            }
        }
        b
    }

    #[test]
    fn row_swap_in_place_with_one_row_temp() {
        let n = 5;
        let base = matrix(n, |i, j| (i * 10 + j) as f64);
        let (vm, lowered) = lower_update_and_run(
            "[ (1,j) := a!(2,j) | j <- [1..n] ] ++ [ (2,j) := a!(1,j) | j <- [1..n] ]",
            n,
            base,
        );
        assert!(lowered.in_place);
        let a = vm.array("b").unwrap();
        for j in 1..=n {
            assert_eq!(a.get("b", &[1, j]).unwrap(), (20 + j) as f64);
            assert_eq!(a.get("b", &[2, j]).unwrap(), (10 + j) as f64);
        }
        // Exactly one row of temporaries, no whole-array copy.
        assert_eq!(vm.counters.temp_elements, n as u64);
        assert_eq!(vm.counters.elements_copied, 0);
    }

    #[test]
    fn jacobi_in_place_matches_copy_semantics() {
        let n = 8;
        let f = |i: i64, j: i64| ((i * 31 + j * 17) % 11) as f64;
        let base = matrix(n, f);
        let src = "[ (i,j) := (a!(i-1,j) + a!(i,j-1) + a!(i+1,j) + a!(i,j+1)) / 4 \
                    | i <- [2..n-1], j <- [2..n-1] ]";
        let (vm, lowered) = lower_update_and_run(src, n, base.clone());
        assert!(lowered.in_place);
        // Oracle: Jacobi against the pristine copy.
        let mut expect = base.clone();
        for i in 2..n {
            for j in 2..n {
                let v = (base.get("a", &[i - 1, j]).unwrap()
                    + base.get("a", &[i, j - 1]).unwrap()
                    + base.get("a", &[i + 1, j]).unwrap()
                    + base.get("a", &[i, j + 1]).unwrap())
                    / 4.0;
                expect.set("a", &[i, j], v).unwrap();
            }
        }
        let got = vm.array("b").unwrap();
        for i in 1..=n {
            for j in 1..=n {
                assert_eq!(
                    got.get("b", &[i, j]).unwrap(),
                    expect.get("a", &[i, j]).unwrap(),
                    "mismatch at ({i},{j})\n{}",
                    lowered.prog.render()
                );
            }
        }
        // Temporaries: one ring of 2 rows (interior width) + ring of 2
        // scalars — O(n), not O(n²).
        assert!(
            vm.counters.temp_elements < 4 * n as u64,
            "{:?}",
            vm.counters
        );
        assert_eq!(vm.counters.elements_copied, 0);
    }

    #[test]
    fn sor_runs_in_place_without_temps() {
        let n = 6;
        let f = |i: i64, j: i64| ((i * 7 + j * 3) % 5) as f64;
        let base = matrix(n, f);
        let src = "[ (i,j) := (b!(i-1,j) + b!(i,j-1) + a!(i+1,j) + a!(i,j+1)) / 4 \
                    | i <- [2..n-1], j <- [2..n-1] ]";
        let (vm, lowered) = lower_update_and_run(src, n, base.clone());
        assert!(lowered.in_place);
        assert_eq!(vm.counters.temp_elements, 0);
        assert_eq!(vm.counters.elements_copied, 0);
        // Oracle: sequential Gauss–Seidel sweep.
        let mut expect = base.clone();
        for i in 2..n {
            for j in 2..n {
                let v = (expect.get("a", &[i - 1, j]).unwrap()
                    + expect.get("a", &[i, j - 1]).unwrap()
                    + expect.get("a", &[i + 1, j]).unwrap()
                    + expect.get("a", &[i, j + 1]).unwrap())
                    / 4.0;
                expect.set("a", &[i, j], v).unwrap();
            }
        }
        let got = vm.array("b").unwrap();
        for i in 1..=n {
            for j in 1..=n {
                assert_eq!(
                    got.get("b", &[i, j]).unwrap(),
                    expect.get("a", &[i, j]).unwrap(),
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn copy_whole_fallback_copies_once() {
        // Conditional violated read forces CopyWhole.
        let n = 6;
        let mut base = ArrayBuf::new(&[(1, n)], 0.0);
        let mut p = ArrayBuf::new(&[(1, n)], 0.0);
        for i in 1..=n {
            base.set("a", &[i], i as f64).unwrap();
            p.set("p", &[i], (n + 1 - i) as f64).unwrap();
        }
        let mut c = parse_comp("[ i := if i == 1 then 0 else a!(p!i) | i <- [1..n] ]").unwrap();
        number_clauses(&mut c);
        let env = ConstEnv::from_pairs([("n", n)]);
        let u = analyze_bigupd("a", "b", &c, &env, &TestPolicy::default()).unwrap();
        let up = plan_update(&c, &u).unwrap();
        assert_eq!(up.strategy, UpdateStrategy::CopyWhole);
        let lowered = lower_update("a", "b", &u.refs, &up, &env).unwrap();
        assert!(!lowered.in_place);
        let mut vm = Vm::new();
        vm.bind("a", base.clone());
        vm.bind("p", p.clone());
        vm.run(&lowered.prog).unwrap();
        assert_eq!(vm.counters.elements_copied, n as u64);
        let got = vm.array("b").unwrap();
        assert_eq!(got.get("b", &[1]).unwrap(), 0.0);
        for i in 2..=n {
            // b[i] = a[p[i]] = n + 1 - i
            assert_eq!(got.get("b", &[i]).unwrap(), (n + 1 - i) as f64);
        }
        // Base untouched.
        assert_eq!(vm.array("a").unwrap().get("a", &[1]).unwrap(), 1.0);
    }

    #[test]
    fn backward_update_uses_direction() {
        // In-place shift-up: a!i := a!(i+1); forward loop reads are
        // satisfied naturally.
        let n = 5;
        let mut base = ArrayBuf::new(&[(1, n)], 0.0);
        for i in 1..=n {
            base.set("a", &[i], i as f64).unwrap();
        }
        let (vm, lowered) = lower_update_and_run("[ i := a!(i+1) | i <- [1..n-1] ]", n, base);
        assert!(lowered.in_place);
        assert_eq!(vm.counters.temp_elements, 0);
        let got = vm.array("b").unwrap();
        assert_eq!(got.data(), &[2.0, 3.0, 4.0, 5.0, 5.0]);
    }

    #[test]
    fn carry_buffer_shift_down() {
        // a!i := a!(i-1): violated under forward; carry buffer or
        // backward loop — either is correct; verify semantics only.
        let n = 5;
        let mut base = ArrayBuf::new(&[(1, n)], 0.0);
        for i in 1..=n {
            base.set("a", &[i], i as f64).unwrap();
        }
        let (vm, _) = lower_update_and_run("[ i := a!(i-1) | i <- [2..n] ]", n, base);
        let got = vm.array("b").unwrap();
        assert_eq!(got.data(), &[1.0, 1.0, 2.0, 3.0, 4.0]);
    }
}
