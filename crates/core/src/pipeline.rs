//! The end-to-end compilation pipeline:
//! `parse → number → analyze → schedule → lower`, plus the executor.
//!
//! [`compile`] turns a [`Program`] into a sequence of executable units,
//! choosing per array between thunkless Limp code (when §8 scheduling
//! succeeds) and the thunked reference strategy (when it does not, or
//! when forced for baseline measurements), eliding runtime checks the
//! §4/§7 analysis discharged, and planning `bigupd` bindings for
//! in-place execution per §9. [`run`] executes the units in binding
//! order inside one instrumented VM.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use hac_analysis::analyze::{
    analyze_array, analyze_bigupd, fold_bounds, AnalysisError, ArrayAnalysis, BoundsVerdict,
    CollisionVerdict, EmptiesVerdict,
};
use hac_analysis::cost::{CostCert, Poly};
use hac_analysis::depgraph::cross_dependences;
use hac_analysis::direction::Dir;
use hac_analysis::parallel::{loop_parallelism, LoopParallelism};
use hac_analysis::refs::{total_instances, ClauseRefs};
use hac_analysis::search::TestPolicy;
use hac_codegen::cost::program_cost;
use hac_codegen::fuse::{chain_part, fuse_tape, merge_loops};
use hac_codegen::limp::{LProgram, Vm, VmCounters};
use hac_codegen::lower::{lower_array, lower_update, CheckMode, LowerError, LoweredUpdate};
use hac_codegen::tape::{compile_tape, FusedEntry, MergedLoop, TapeCtx, TapeProgram};
use hac_lang::ast::{ArrayDef, ArrayKind, Binding, ClauseId, Comp, Program};
use hac_lang::env::ConstEnv;
use hac_lang::number::{is_numbered, number_program};
use hac_runtime::accum::eval_accum;
use hac_runtime::error::RuntimeError;
use hac_runtime::governor::{FaultPlan, Limits, Meter, SharedCeiling};
use hac_runtime::group::{ThunkedCounters, ThunkedGroup};
use hac_runtime::reduce::eval_reduce;
use hac_runtime::value::{ArrayBuf, FuncTable, XorShift};
use hac_schedule::plan::ScheduleOutcome;
use hac_schedule::scheduler::schedule;
use hac_schedule::split::plan_update;

use crate::cost::{bounds_mem_poly, plan_fuel_poly, CertBuilder};
use crate::report::{edge_facts, ArrayFacts, ArrayOutcome, LazyReport, ReportFacts, UpdateFacts};

/// Execution strategy selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Thunkless when the scheduler succeeds, thunked otherwise.
    #[default]
    Auto,
    /// Always use the thunked reference strategy (baseline runs).
    ForceThunked,
    /// Thunkless, but keep all runtime checks even when the analysis
    /// discharged them (baseline for E5/E6).
    ForceChecked,
}

/// Which engine executes compiled Limp programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Compile each Limp program once into a register-slot bytecode
    /// tape (names resolved to indices, affine subscripts
    /// strength-reduced) and run it on the non-recursive dispatcher.
    /// Top-level loop passes proven free of carried dependences (§10)
    /// are partitioned over [`RunOptions::threads`] workers; at one
    /// worker everything runs on the sequential path.
    #[default]
    Tape,
    /// The recursive tree-walking evaluator (reference semantics; also
    /// the baseline for the `vm_dispatch` benchmark).
    TreeWalk,
}

impl Engine {
    /// Alias of [`Engine::Tape`], which runs proven-parallel passes
    /// whenever it has more than one worker: the worker count alone
    /// decides parallelism. Kept so callers naming it still compile.
    #[allow(non_upper_case_globals)]
    pub const ParTape: Engine = Engine::Tape;
}

/// Compiler options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    pub policy: TestPolicy,
    pub mode: ExecMode,
    pub engine: Engine,
    /// Run the vector-fusion pass over compiled tapes, lowering
    /// straight-line innermost affine loops into loop-level kernels
    /// (on by default; `--no-fuse` turns it off, leaving the
    /// scalar tape — the differential oracle — as the only path).
    pub fuse: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            policy: TestPolicy::default(),
            mode: ExecMode::default(),
            engine: Engine::default(),
            fuse: true,
        }
    }
}

/// A compilation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    Analysis(AnalysisError),
    Lower(LowerError),
    /// The exact test proved two clauses always collide (§7: "If an
    /// exact subscript test says a collision will definitely happen, we
    /// flag an error").
    CertainCollision {
        array: String,
        pair: (ClauseId, ClauseId),
        /// The colliding element, when the analysis could name it.
        element: Option<Vec<i64>>,
    },
    /// A `bigupd`'s flow dependences are unschedulable.
    UnschedulableUpdate {
        name: String,
        reason: String,
    },
    /// Two bindings bound the same name.
    DuplicateName(String),
    /// A binding referenced an unknown base array.
    UnknownBase(String),
    /// A binding referenced an array already consumed by an in-place
    /// update — single-threadedness (§9) would be violated.
    UseAfterUpdate {
        array: String,
        user: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Analysis(e) => write!(f, "{e}"),
            CompileError::Lower(e) => write!(f, "{e}"),
            CompileError::CertainCollision {
                array,
                pair,
                element,
            } => {
                write!(
                    f,
                    "array `{array}`: clauses {} and {} definitely write the same element",
                    pair.0, pair.1
                )?;
                if let Some(idx) = element {
                    write!(f, " {idx:?}")?;
                }
                Ok(())
            }
            CompileError::UnschedulableUpdate { name, reason } => {
                write!(f, "update `{name}` is unschedulable: {reason}")
            }
            CompileError::DuplicateName(n) => write!(f, "name `{n}` bound twice"),
            CompileError::UnknownBase(n) => write!(f, "unknown base array `{n}`"),
            CompileError::UseAfterUpdate { array, user } => write!(
                f,
                "`{user}` references `{array}`, whose storage was consumed by an \
                 in-place update (single-threadedness, §9); read the update's \
                 result instead"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<AnalysisError> for CompileError {
    fn from(e: AnalysisError) -> Self {
        CompileError::Analysis(e)
    }
}

impl From<LowerError> for CompileError {
    fn from(e: LowerError) -> Self {
        CompileError::Lower(e)
    }
}

/// One thunked-group member: `(name, bounds, comprehension)`.
pub type GroupMember = (String, Vec<(i64, i64)>, Comp);

/// One executable unit, in binding order.
#[derive(Debug, Clone)]
pub enum Unit {
    /// An externally supplied array.
    Input {
        name: String,
        bounds: Vec<(i64, i64)>,
    },
    /// A thunkless compiled array.
    Thunkless {
        name: String,
        prog: LProgram,
        /// Bytecode form of `prog`, compiled once here; `None` under
        /// [`Engine::TreeWalk`].
        tape: Option<TapeProgram>,
    },
    /// A (possibly mutually recursive) group evaluated with thunks.
    Thunked { defs: Vec<GroupMember> },
    /// An accumulated array, evaluated strictly in list order.
    Accum {
        def: ArrayDef,
        bounds: Vec<(i64, i64)>,
    },
    /// A planned `bigupd`.
    Update {
        name: String,
        base: String,
        lowered: LoweredUpdate,
        /// Bytecode form of `lowered.prog` (aliases folded in at
        /// compile time for in-place updates); `None` under
        /// [`Engine::TreeWalk`].
        tape: Option<TapeProgram>,
    },
    /// A scalar reduction (§3.1 `foldl` over a comprehension),
    /// executed as a DO loop with no intermediate list.
    Reduce {
        name: String,
        op: hac_lang::ast::BinOp,
        init: hac_lang::ast::Expr,
        comp: Comp,
    },
}

/// Static delta-recomputation plan: present when the program ends in
/// its *only* `bigupd` and the update's write footprint is provably
/// bounded — every clause unguarded with affine (normalized) write
/// subscripts, so the dirty set is exactly the statically-counted
/// write instances from the §4 dependence analysis. The serving layer
/// uses the plan to answer sliding-parameter requests by replaying
/// just the final update unit over a cached prefix state (see
/// [`run_delta`]); an unbounded footprint means no plan, and such
/// requests fall back to a full run.
#[derive(Debug, Clone)]
pub struct DeltaPlan {
    /// Parameters that occur syntactically *only* inside the final
    /// update's comprehension: sliding any subset of them leaves every
    /// prefix unit's code and values unchanged. Computed from the
    /// source AST — value-independent, so every compilation of the
    /// same source agrees on the set.
    pub params: Vec<String>,
    /// Statically-counted write footprint of the update under this
    /// parameter environment: the dirty-element count a delta
    /// recomputation touches.
    pub writes: u64,
    /// Data bytes of every array live before the update unit runs —
    /// what a cached prefix snapshot costs the memory ledger.
    pub prefix_bytes: u64,
}

/// A compiled program.
#[derive(Debug, Clone)]
pub struct Compiled {
    pub env: ConstEnv,
    pub units: Vec<Unit>,
    /// The compilation report, rendered when first read.
    pub report: LazyReport,
    /// Static worst-case fuel/memory certificate, exact-or-over for
    /// every engine at any thread count (see `hac_analysis::cost`).
    pub cert: CostCert,
    /// Delta-recomputation plan for the trailing `bigupd`, when the
    /// program has exactly one and its footprint is provably bounded.
    pub delta: Option<DeltaPlan>,
    /// Chains of consecutive thunkless units whose last loops run as
    /// one merged loop, in unit order. Empty without fusion.
    pub merges: Vec<LoopMerge>,
}

/// A chain of consecutive thunkless units whose last loops run as one
/// merged loop (§8 across bindings): every loop runs the same range in
/// the same direction, and each unit reads an earlier one's array only
/// at cells that loop wrote at the same or an earlier iteration. The
/// units keep their own tapes; [`run_units`] runs the merge instead of
/// them only when the outcome cannot differ, and them one by one
/// otherwise (see [`MergedLoop`]).
#[derive(Debug, Clone)]
pub struct LoopMerge {
    /// The chain: `units[self.units]`, each a [`Unit::Thunkless`] with
    /// a tape.
    pub units: std::ops::Range<usize>,
    pub merged: MergedLoop,
}

/// Every variable name an expression mentions, deduplicated. Local
/// bindings are *not* resolved: a `let`- or generator-bound name equal
/// to a parameter counts as an occurrence of that parameter, which only
/// shrinks the delta-parameter set — conservative, never wrong.
fn collect_vars(e: &hac_lang::ast::Expr, out: &mut Vec<String>) {
    e.walk(&mut |x| {
        if let hac_lang::ast::Expr::Var(n) = x {
            if !out.iter().any(|s| s == n) {
                out.push(n.clone());
            }
        }
    });
}

fn collect_comp_vars(comp: &Comp, out: &mut Vec<String>) {
    comp.walk(&mut |c| match c {
        Comp::Clause(sv) => {
            for s in &sv.subs {
                collect_vars(s, out);
            }
            collect_vars(&sv.value, out);
        }
        Comp::Guard { cond, .. } => collect_vars(cond, out),
        Comp::Let { binds, .. } => {
            for (_, e) in binds {
                collect_vars(e, out);
            }
        }
        Comp::Gen { range, .. } => {
            collect_vars(&range.lo, out);
            collect_vars(&range.hi, out);
        }
        Comp::Append(_) => {}
    });
}

fn collect_def_vars(d: &ArrayDef, out: &mut Vec<String>) {
    for (lo, hi) in &d.bounds {
        collect_vars(lo, out);
        collect_vars(hi, out);
    }
    collect_comp_vars(&d.comp, out);
    if let ArrayKind::Accumulated { default, .. } = &d.kind {
        collect_vars(default, out);
    }
}

/// The parameters referenced *only* by the binding at `update_idx`
/// (the trailing `bigupd`): everything declared minus anything any
/// other binding mentions. A parameter mentioned nowhere at all also
/// qualifies — sliding it changes nothing, and the delta path serves
/// that correctly (with zero differing work).
fn delta_params(program: &Program, update_idx: usize) -> Vec<String> {
    let mut outside: Vec<String> = Vec::new();
    for (i, b) in program.bindings.iter().enumerate() {
        if i == update_idx {
            continue;
        }
        match b {
            Binding::Input { bounds, .. } => {
                for (lo, hi) in bounds {
                    collect_vars(lo, &mut outside);
                    collect_vars(hi, &mut outside);
                }
            }
            Binding::Let(d) => collect_def_vars(d, &mut outside),
            Binding::LetrecStar(ds) => {
                for d in ds {
                    collect_def_vars(d, &mut outside);
                }
            }
            Binding::Reduce { init, comp, .. } => {
                collect_vars(init, &mut outside);
                collect_comp_vars(comp, &mut outside);
            }
            Binding::BigUpd { comp, .. } => collect_comp_vars(comp, &mut outside),
        }
    }
    program
        .params
        .iter()
        .filter(|p| !outside.contains(p))
        .cloned()
        .collect()
}

/// Compile a program against a parameter environment.
///
/// # Errors
/// See [`CompileError`].
pub fn compile(
    program: &Program,
    env: &ConstEnv,
    options: &CompileOptions,
) -> Result<Compiled, CompileError> {
    // Every comprehension numbered in one id space; parsed and built
    // programs already are.
    let renumbered;
    let program = if is_numbered(program) {
        program
    } else {
        let mut p = program.clone();
        number_program(&mut p);
        renumbered = p;
        &renumbered
    };

    let mut seen: Vec<&str> = Vec::new();
    // Arrays whose storage an in-place update consumed: any later
    // reference would observe the new values under the old name.
    let mut consumed: Vec<&str> = Vec::new();
    let mut units = Vec::new();
    let mut report = ReportFacts::default();
    let mut cert = CertBuilder::new();
    // Accumulated tape-compilation context: shapes of every array bound
    // so far, reduction scalars (runtime globals) in binding order, and
    // the parameter environment as compile-time constants.
    let mut known = TapeCtx {
        consts: env.iter().map(|(n, v)| (n.to_string(), v)).collect(),
        ..TapeCtx::default()
    };

    fn check_consumed(consumed: &[&str], user: &str, comp: &Comp) -> Result<(), CompileError> {
        if consumed.is_empty() {
            return Ok(());
        }
        let mut hit: Option<String> = None;
        comp.walk(&mut |c| {
            let mut scan = |e: &hac_lang::ast::Expr| {
                e.walk(&mut |x| {
                    if let hac_lang::ast::Expr::Index { array, .. } = x {
                        if hit.is_none() && consumed.contains(&array.as_str()) {
                            hit = Some(array.clone());
                        }
                    }
                });
            };
            match c {
                Comp::Clause(sv) => {
                    for s in &sv.subs {
                        scan(s);
                    }
                    scan(&sv.value);
                }
                Comp::Guard { cond, .. } => scan(cond),
                Comp::Let { binds, .. } => {
                    for (_, e) in binds {
                        scan(e);
                    }
                }
                Comp::Gen { range, .. } => {
                    scan(&range.lo);
                    scan(&range.hi);
                }
                Comp::Append(_) => {}
            }
        });
        match hit {
            Some(array) => Err(CompileError::UseAfterUpdate {
                array,
                user: user.to_string(),
            }),
            None => Ok(()),
        }
    }

    fn check_dup<'n>(seen: &mut Vec<&'n str>, name: &'n str) -> Result<(), CompileError> {
        if seen.contains(&name) {
            return Err(CompileError::DuplicateName(name.to_string()));
        }
        seen.push(name);
        Ok(())
    }

    let mut delta: Option<DeltaPlan> = None;
    // Clause references of every thunkless array, for the cross-binding
    // legality test of loop merges.
    let mut unit_refs: HashMap<String, Vec<ClauseRefs>> = HashMap::new();
    for (bi, b) in program.bindings.iter().enumerate() {
        let is_last = bi + 1 == program.bindings.len();
        match b {
            Binding::Input { name, bounds } => {
                check_dup(&mut seen, name)?;
                // The executor charges the declared bounds' payload
                // before it binds the input (no definedness bitmap).
                let mem_poly = bounds_mem_poly(bounds, false);
                let bounds = fold_bounds(name, bounds, env)?;
                cert.add(
                    env,
                    0,
                    ArrayBuf::data_bytes(&bounds),
                    true,
                    Some(Poly::zero()),
                    mem_poly,
                );
                known.shapes.insert(name.clone(), bounds.clone());
                units.push(Unit::Input {
                    name: name.clone(),
                    bounds,
                });
            }
            Binding::Let(def) => {
                check_dup(&mut seen, &def.name)?;
                check_consumed(&consumed, &def.name, &def.comp)?;
                compile_group(
                    std::slice::from_ref(def),
                    env,
                    options,
                    &mut known,
                    &mut units,
                    &mut report,
                    &mut cert,
                    &mut unit_refs,
                )?;
            }
            Binding::LetrecStar(defs) => {
                for d in defs {
                    check_dup(&mut seen, &d.name)?;
                    check_consumed(&consumed, &d.name, &d.comp)?;
                }
                compile_group(
                    defs,
                    env,
                    options,
                    &mut known,
                    &mut units,
                    &mut report,
                    &mut cert,
                    &mut unit_refs,
                )?;
            }
            Binding::Reduce {
                name,
                op,
                init,
                comp,
            } => {
                check_dup(&mut seen, name)?;
                check_consumed(&consumed, name, comp)?;
                report.reductions.push((name.clone(), *op));
                // Scalar reductions run unmetered: zero contribution,
                // but their failures can stop a run early, so the
                // certificate is no longer exact.
                cert.add(env, 0, 0, false, None, None);
                known.globals.push(name.clone());
                units.push(Unit::Reduce {
                    name: name.clone(),
                    op: *op,
                    init: init.clone(),
                    comp: comp.clone(),
                });
            }
            Binding::BigUpd { name, base, comp } => {
                check_dup(&mut seen, name)?;
                check_consumed(&consumed, name, comp)?;
                if consumed.contains(&base.as_str()) {
                    return Err(CompileError::UseAfterUpdate {
                        array: base.clone(),
                        user: name.clone(),
                    });
                }
                if !seen.contains(&base.as_str()) {
                    return Err(CompileError::UnknownBase(base.clone()));
                }
                let analysis = analyze_bigupd(base, name, comp, env, &options.policy)?;
                if let CollisionVerdict::Certain { pair, element, .. } = &analysis.collisions {
                    return Err(CompileError::CertainCollision {
                        array: name.clone(),
                        pair: *pair,
                        element: element.clone(),
                    });
                }
                let update = plan_update(comp, &analysis).map_err(|r| {
                    CompileError::UnschedulableUpdate {
                        name: name.clone(),
                        reason: r.to_string(),
                    }
                })?;
                let lowered = lower_update(base, name, &analysis.refs, &update, env)?;
                report.stats.absorb(&analysis.stats);
                // Delta plan: only for the program's sole, trailing
                // update, and only when the write footprint is exact —
                // a guard or non-affine write would make the static
                // count an overestimate of the dirty set — and only
                // when that count fits an `i64`.
                if is_last
                    && !units.iter().any(|u| matches!(u, Unit::Update { .. }))
                    && analysis
                        .refs
                        .iter()
                        .all(|r| !r.guarded() && r.write.norm.is_some())
                {
                    let writes =
                        total_instances(&analysis.refs).and_then(|w| u64::try_from(w).ok());
                    delta = writes.map(|writes| DeltaPlan {
                        params: delta_params(program, bi),
                        writes,
                        prefix_bytes: known
                            .shapes
                            .values()
                            .map(|b| ArrayBuf::data_bytes(b))
                            .fold(0, u64::saturating_add),
                    });
                }
                if lowered.in_place {
                    consumed.push(base);
                }
                let mut fusion = Vec::new();
                let tape = (options.engine != Engine::TreeWalk).then(|| {
                    let mut tctx = known.clone();
                    if lowered.in_place {
                        // The result name aliases the base at compile
                        // time, mirroring the VM's runtime alias.
                        tctx.aliases.insert(name.clone(), base.clone());
                    }
                    let mut t = compile_tape(&lowered.prog, &tctx);
                    if options.fuse {
                        fusion = fuse_tape(&mut t);
                    }
                    t
                });
                report.updates.push(UpdateFacts {
                    name: name.clone(),
                    base: base.clone(),
                    flow: edge_facts(analysis.flow.edges),
                    anti: edge_facts(analysis.anti.edges),
                    strategy: update.strategy,
                    in_place: lowered.in_place,
                    loops: update.plan.loops,
                    fusion,
                });
                if let Some(b) = known.shapes.get(base).cloned() {
                    known.shapes.insert(name.clone(), b);
                }
                // Update costs are always upper bounds: the in-place
                // machinery's checks can stop a run partway.
                match program_cost(&lowered.prog, &known.shapes) {
                    Some(c) => cert.add(env, c.fuel, c.mem, false, None, None),
                    None => {
                        cert.mark_open(&format!("update `{name}` copies an unknown-shape array"));
                    }
                }
                units.push(Unit::Update {
                    name: name.clone(),
                    base: base.clone(),
                    lowered,
                    tape,
                });
            }
        }
    }
    let cert = cert.finish();
    report.cost = Some(cert.render());
    let merges = if options.fuse {
        plan_merges(&units, &unit_refs, &options.policy, &mut report)
    } else {
        Vec::new()
    };
    Ok(Compiled {
        env: env.clone(),
        units,
        report: LazyReport::new(report),
        cert,
        delta,
        merges,
    })
}

/// Merge the last loops of every maximal chain of consecutive
/// thunkless units that can merge (see [`LoopMerge`]), reporting each.
fn plan_merges(
    units: &[Unit],
    refs: &HashMap<String, Vec<ClauseRefs>>,
    policy: &TestPolicy,
    report: &mut ReportFacts,
) -> Vec<LoopMerge> {
    // Each unit that can join a chain: its name, tape and loop.
    let parts: Vec<Option<ChainLink>> = units
        .iter()
        .map(|u| match u {
            Unit::Thunkless {
                tape: Some(t),
                name,
                ..
            } if refs.contains_key(name) => chain_part(t).ok().map(|(_, e)| (name.as_str(), t, e)),
            _ => None,
        })
        .collect();
    let same_range =
        |a: &FusedEntry, b: &FusedEntry| (a.start, a.step, a.trip) == (b.start, b.step, b.trip);
    let mut merges = Vec::new();
    let mut start = 0;
    while start < units.len() {
        let mut best = None;
        for end in start + 2..=units.len() {
            let Some(chain) = parts[start..end]
                .iter()
                .copied()
                .collect::<Option<Vec<_>>>()
            else {
                break;
            };
            if !same_range(chain[0].2, chain[chain.len() - 1].2) {
                break;
            }
            let tapes: Vec<&TapeProgram> = chain.iter().map(|c| c.1).collect();
            let merged = chain_order(&chain, refs, policy)
                .ok_or("illegal")
                .and_then(|reverse| merge_loops(&tapes, reverse));
            match merged {
                Ok(m) => best = Some((chain, m)),
                Err(_) => break,
            }
        }
        let Some((chain, (merged, decision))) = best else {
            start += 1;
            continue;
        };
        let names = chain.iter().map(|c| c.0.to_string()).collect();
        report.merges.push((names, decision));
        merges.push(LoopMerge {
            units: start..start + chain.len(),
            merged,
        });
        start += chain.len();
    }
    merges
}

/// A unit that can join a merged chain: its array's name, its tape and
/// the tape's last loop.
type ChainLink<'u> = (&'u str, &'u TapeProgram, &'u FusedEntry);

/// Whether the last loops of `chain`'s units may run as one loop, and
/// in which order its body may put them: `Some(true)` when every unit
/// may go before the earlier ones (no unit reads a cell an earlier one
/// wrote at the same iteration), `Some(false)` when they must keep
/// chain order, `None` when they may not merge.
///
/// For each earlier unit `a` and later unit `b`, every read of `a`'s
/// array in `b` is tested against every write of `a`'s loop with
/// [`cross_dependences`]: a read in `b`'s loop, with the two loops as
/// one, must see only writes of the same or an earlier iteration in
/// execution order; a read before `b`'s loop (its prefix runs before
/// `a`'s loop once merged) must see none.
fn chain_order(
    chain: &[ChainLink<'_>],
    refs: &HashMap<String, Vec<ClauseRefs>>,
    policy: &TestPolicy,
) -> Option<bool> {
    let mut reverse = true;
    for (k, &(a, _, e)) in chain.iter().enumerate() {
        let writes = refs[a].iter().filter(|c| !c.nest.is_empty());
        for (w, &(b, ..)) in writes.flat_map(|w| chain[k + 1..].iter().map(move |b| (w, b))) {
            // The loop runs against its generator's order when the
            // schedule reversed it: then a later index is earlier.
            let forward = e.step.signum() == w.nest[0].step.signum();
            let later = if forward { Dir::Gt } else { Dir::Lt };
            for r in &refs[b] {
                for read in r.reads_of(a) {
                    let fused = !r.nest.is_empty();
                    let deps = cross_dependences(&w.write, read, fused, policy)?;
                    if !fused && !deps.independent() {
                        return None;
                    }
                    for dv in deps.vectors() {
                        match dv.first() {
                            Some(d) if d == later => return None,
                            Some(Dir::Eq) => reverse = false,
                            _ => {}
                        }
                    }
                }
            }
        }
    }
    Some(reverse)
}

/// The report facts of an analyzed array, taking its edges and
/// verdicts; `bounds` and `refs` stay behind.
fn array_facts(
    def: &ArrayDef,
    analysis: &mut ArrayAnalysis<'_>,
    outcome: ArrayOutcome,
    loops: Vec<LoopParallelism>,
) -> ArrayFacts {
    ArrayFacts {
        name: def.name.clone(),
        edges: edge_facts(std::mem::take(&mut analysis.flow.edges)),
        collisions: std::mem::replace(&mut analysis.collisions, CollisionVerdict::Impossible),
        empties: std::mem::replace(&mut analysis.empties, EmptiesVerdict::Impossible),
        oob: std::mem::replace(&mut analysis.oob, BoundsVerdict::InBounds),
        outcome,
        loops,
        fusion: Vec::new(),
    }
}

#[allow(clippy::too_many_arguments)]
fn compile_group<'p>(
    defs: &'p [ArrayDef],
    env: &ConstEnv,
    options: &CompileOptions,
    known: &mut TapeCtx,
    units: &mut Vec<Unit>,
    report: &mut ReportFacts,
    cert: &mut CertBuilder,
    unit_refs: &mut HashMap<String, Vec<ClauseRefs<'p>>>,
) -> Result<(), CompileError> {
    // Accumulated arrays evaluate strictly on their own.
    if defs.len() == 1 {
        if let ArrayKind::Accumulated { .. } = defs[0].kind {
            let def = &defs[0];
            let mut analysis = analyze_array(def, env, &options.policy)?;
            report.stats.absorb(&analysis.stats);
            let mut facts = array_facts(def, &mut analysis, ArrayOutcome::Accumulated, Vec::new());
            facts.edges.clear();
            report.arrays.push(facts);
            let bounds = analysis.bounds;
            known.shapes.insert(def.name.clone(), bounds.clone());
            // The executor charges the array's storage before it
            // evaluates; the fuel of its walk is unmetered, so the
            // certificate stops being exact (see `Reduce`).
            cert.add(
                env,
                0,
                ArrayBuf::footprint_bytes(&bounds, false),
                false,
                None,
                bounds_mem_poly(&def.bounds, false),
            );
            units.push(Unit::Accum {
                def: def.clone(),
                bounds,
            });
            return Ok(());
        }
    }

    // Mutual references inside a letrec* group defeat per-array
    // scheduling: evaluate the whole group with thunks.
    let names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
    let mutual = defs.len() > 1
        && defs.iter().any(|d| {
            d.comp.clauses().iter().any(|c| {
                c.value
                    .referenced_arrays()
                    .iter()
                    .any(|a| a != &d.name && names.contains(&a.as_str()))
            })
        });

    if mutual || options.mode == ExecMode::ForceThunked {
        cert.mark_open(if mutual {
            "thunked: mutually recursive letrec* group"
        } else {
            "thunked: demand-driven execution forced"
        });
        let mut group = Vec::new();
        for def in defs {
            let mut analysis = analyze_array(def, env, &options.policy)?;
            if let CollisionVerdict::Certain { pair, element, .. } = &analysis.collisions {
                return Err(CompileError::CertainCollision {
                    array: def.name.clone(),
                    pair: *pair,
                    element: element.clone(),
                });
            }
            let reason = if mutual {
                "mutually recursive letrec* group"
            } else {
                "thunked execution forced"
            };
            report.stats.absorb(&analysis.stats);
            let loops = loop_parallelism(&def.comp, &analysis.flow.edges);
            let outcome = ArrayOutcome::Thunked {
                reason: reason.to_string(),
            };
            report
                .arrays
                .push(array_facts(def, &mut analysis, outcome, loops));
            known
                .shapes
                .insert(def.name.clone(), analysis.bounds.clone());
            group.push((def.name.clone(), analysis.bounds, def.comp.clone()));
        }
        units.push(Unit::Thunked { defs: group });
        return Ok(());
    }

    for def in defs {
        let mut analysis = analyze_array(def, env, &options.policy)?;
        if let CollisionVerdict::Certain { pair, element, .. } = &analysis.collisions {
            return Err(CompileError::CertainCollision {
                array: def.name.clone(),
                pair: *pair,
                element: element.clone(),
            });
        }
        report.stats.absorb(&analysis.stats);
        match schedule(&def.comp, &analysis.flow.edges) {
            ScheduleOutcome::Thunkless(mut plan) => {
                let elidable = analysis.collisions.checks_elidable()
                    && analysis.empties.checks_elidable()
                    && analysis.oob == BoundsVerdict::InBounds;
                let checks = if options.mode == ExecMode::ForceChecked || !elidable {
                    CheckMode::Checked
                } else {
                    CheckMode::Elide
                };
                let prog = lower_array(
                    &def.name,
                    &analysis.bounds,
                    &analysis.refs,
                    &plan,
                    env,
                    checks,
                )?;
                match program_cost(&prog, &known.shapes) {
                    Some(c) => {
                        let fuel_poly = plan_fuel_poly(&plan, &def.comp);
                        let mem_poly = bounds_mem_poly(&def.bounds, checks == CheckMode::Checked);
                        cert.add(env, c.fuel, c.mem, c.exact, fuel_poly, mem_poly);
                    }
                    None => cert.mark_open(&format!(
                        "array `{}` copies an unknown-shape array",
                        def.name
                    )),
                }
                let mut fusion = Vec::new();
                let tape = (options.engine != Engine::TreeWalk).then(|| {
                    let mut t = compile_tape(&prog, known);
                    if options.fuse {
                        fusion = fuse_tape(&mut t);
                    }
                    t
                });
                let loops = std::mem::take(&mut plan.loops);
                let outcome = ArrayOutcome::Thunkless {
                    plan,
                    checks_elided: checks == CheckMode::Elide,
                };
                let mut facts = array_facts(def, &mut analysis, outcome, loops);
                facts.fusion = fusion;
                report.arrays.push(facts);
                known.shapes.insert(def.name.clone(), analysis.bounds);
                unit_refs.insert(def.name.clone(), analysis.refs);
                units.push(Unit::Thunkless {
                    name: def.name.clone(),
                    prog,
                    tape,
                });
            }
            ScheduleOutcome::NeedsThunks(reason) => {
                cert.mark_open(&format!("thunked: {reason}"));
                let loops = loop_parallelism(&def.comp, &analysis.flow.edges);
                let outcome = ArrayOutcome::Thunked {
                    reason: reason.to_string(),
                };
                report
                    .arrays
                    .push(array_facts(def, &mut analysis, outcome, loops));
                known
                    .shapes
                    .insert(def.name.clone(), analysis.bounds.clone());
                units.push(Unit::Thunked {
                    defs: vec![(def.name.clone(), analysis.bounds, def.comp.clone())],
                });
            }
        }
    }
    Ok(())
}

/// Aggregated execution instrumentation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounters {
    pub vm: VmCounters,
    pub thunked: ThunkedCounters,
}

/// The result of running a compiled program.
#[derive(Debug)]
pub struct ExecOutput {
    /// Every array bound by the program, by name.
    pub arrays: HashMap<String, ArrayBuf>,
    /// Every scalar reduction result, by name.
    pub scalars: HashMap<String, f64>,
    pub counters: ExecCounters,
    /// Fuel remaining when the run finished; `None` when the budget
    /// was unlimited.
    pub fuel_left: Option<u64>,
    /// Merged loops ([`LoopMerge`]) the run took instead of their units.
    /// Every other field is the same either way.
    pub merged_loops: u64,
}

impl ExecOutput {
    /// Fetch one array.
    ///
    /// # Panics
    /// Panics when the name is unknown — a programming error in the
    /// caller.
    pub fn array(&self, name: &str) -> &ArrayBuf {
        self.arrays
            .get(name)
            .unwrap_or_else(|| panic!("no array `{name}` in output"))
    }

    /// Fetch one reduction result.
    ///
    /// # Panics
    /// Panics when the name is unknown.
    pub fn scalar(&self, name: &str) -> f64 {
        *self
            .scalars
            .get(name)
            .unwrap_or_else(|| panic!("no scalar `{name}` in output"))
    }
}

/// One worker per available hardware thread: the CLI's default
/// [`RunOptions::threads`].
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Execute a compiled program on one worker; see [`run_with_threads`]
/// to parallelize.
///
/// # Errors
/// Propagates runtime failures (missing inputs surface as
/// [`RuntimeError::UnboundArray`]).
pub fn run(
    compiled: &Compiled,
    inputs: &HashMap<String, ArrayBuf>,
    funcs: &FuncTable,
) -> Result<ExecOutput, RuntimeError> {
    run_with_threads(compiled, inputs, funcs, 1)
}

/// [`run`] with an explicit worker count for tape units (`threads: 1`
/// runs them on the sequential dispatch path, never touching the
/// pool). Tree-walk and thunked units ignore `threads` entirely.
///
/// # Errors
/// See [`run`].
pub fn run_with_threads(
    compiled: &Compiled,
    inputs: &HashMap<String, ArrayBuf>,
    funcs: &FuncTable,
    threads: usize,
) -> Result<ExecOutput, RuntimeError> {
    run_with_options(
        compiled,
        inputs,
        funcs,
        &RunOptions {
            threads: Some(threads),
            ..RunOptions::default()
        },
    )
}

/// Execution-time knobs for [`run_with_options`]: worker count,
/// resource limits, and (for tests) a deterministic fault-injection
/// plan.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Workers for tape units' parallel regions; `None` means one.
    pub threads: Option<usize>,
    /// Fuel / memory caps, enforced identically on every engine. One
    /// budget spans the whole run: all units charge the same meter.
    pub limits: Limits,
    /// Fault-injection plan for parallel units. `None` injects nothing.
    pub faults: Option<FaultPlan>,
    /// Process-wide resource pool shared between concurrent requests.
    /// When set, the run's meter is admitted against it (reserving its
    /// `limits` up front) and settled when the run finishes — see
    /// [`SharedCeiling`] for the settlement rule.
    pub ceiling: Option<Arc<SharedCeiling>>,
}

/// [`run`] with full execution options: thread count, resource
/// [`Limits`], and fault injection.
///
/// # Errors
/// See [`run`]; additionally [`RuntimeError::FuelExhausted`] /
/// [`RuntimeError::MemLimitExceeded`] when a limit trips, and
/// [`RuntimeError::EngineFault`] when an (injected) worker fault could
/// not be absorbed.
pub fn run_with_options(
    compiled: &Compiled,
    inputs: &HashMap<String, ArrayBuf>,
    funcs: &FuncTable,
    options: &RunOptions,
) -> Result<ExecOutput, RuntimeError> {
    let mut meter = match &options.ceiling {
        Some(ceiling) => Meter::admit(options.limits, ceiling)?,
        None => Meter::new(options.limits),
    };
    let out = run_with_meter(compiled, inputs, funcs, options, &mut meter);
    meter.settle();
    out
}

/// [`run_with_options`] charging a caller-owned [`Meter`] — the serving
/// layer admits one meter per request against a [`SharedCeiling`] and
/// needs the fuel balance back even when the run fails, then settles
/// the meter itself. `options.limits` / `options.ceiling` are ignored
/// here; the meter already embodies them.
///
/// # Errors
/// See [`run_with_options`]. On error the meter still holds the exact
/// balance at the failure point.
pub fn run_with_meter(
    compiled: &Compiled,
    inputs: &HashMap<String, ArrayBuf>,
    funcs: &FuncTable,
    options: &RunOptions,
    meter: &mut Meter,
) -> Result<ExecOutput, RuntimeError> {
    let mut state = ExecState::default();
    run_units(
        compiled,
        0..compiled.units.len(),
        &mut state,
        inputs,
        funcs,
        options,
        meter,
    )?;
    Ok(state.into_output(meter))
}

/// Mid-run execution state: every array and scalar bound so far plus
/// the instrumentation accumulated. [`run_units`] threads one of these
/// through a range of units; the serving layer snapshots the state
/// between a program's prefix and its trailing `bigupd` so
/// sliding-parameter requests can replay just the update (see
/// [`run_delta`] and [`DeltaPlan`]).
#[derive(Debug, Clone, Default)]
pub struct ExecState {
    pub arrays: HashMap<String, ArrayBuf>,
    /// Scalar reductions in binding order — later units re-bind these
    /// as VM globals in exactly this order, so it is a `Vec`, not a
    /// map.
    pub scalars: Vec<(String, f64)>,
    pub counters: ExecCounters,
    /// See [`ExecOutput::merged_loops`].
    pub merged_loops: u64,
}

impl ExecState {
    /// Package the state as a finished run's output, capturing the
    /// meter's closing fuel balance.
    pub fn into_output(self, meter: &Meter) -> ExecOutput {
        ExecOutput {
            arrays: self.arrays,
            scalars: self.scalars.into_iter().collect(),
            counters: self.counters,
            fuel_left: meter.fuel_limited().then(|| meter.fuel_left()),
            merged_loops: self.merged_loops,
        }
    }
}

/// Replay only the trailing `bigupd` unit over a cached prefix state —
/// the delta path behind incremental serving. `base` must be the
/// prefix state of a compilation that differs from `compiled` at most
/// in the plan's [`delta parameters`](DeltaPlan::params); determinism
/// then makes the merged output bit-identical to a cold full run of
/// `compiled`. The base is cloned, never consumed: the clone shares
/// the base's elements, and the update copies only the array it writes
/// (on its first write), so one cached prefix serves any number of
/// deltas.
///
/// # Errors
/// See [`run_with_meter`]; the same failures a cold run's final unit
/// would hit (limits, collisions, bounds) land here.
///
/// # Panics
/// When `compiled` does not end in an update unit — callers gate on
/// [`Compiled::delta`] being `Some`.
pub fn run_delta(
    compiled: &Compiled,
    base: &ExecState,
    funcs: &FuncTable,
    options: &RunOptions,
    meter: &mut Meter,
) -> Result<ExecOutput, RuntimeError> {
    assert!(
        matches!(compiled.units.last(), Some(Unit::Update { .. })),
        "run_delta requires a trailing update unit"
    );
    let mut state = base.clone();
    let last = compiled.units.len() - 1;
    run_units(
        compiled,
        last..compiled.units.len(),
        &mut state,
        &HashMap::new(),
        funcs,
        options,
        meter,
    )?;
    Ok(state.into_output(meter))
}

/// Execute `compiled.units[range]`, threading `state` through. This is
/// the executor's single engine-dispatch loop; [`run_with_meter`] runs
/// the whole range and the serving layer splits a delta-eligible
/// program at its trailing update.
///
/// A [`LoopMerge`] runs in place of its units when nothing can tell
/// the difference: the whole chain lies in `range`, no fault plan is
/// active, the meter covers the chain's fuel and memory and every array
/// it reads is bound. Otherwise its units run one by one, so a run that
/// stops partway stops exactly where the separate tapes would.
///
/// # Errors
/// See [`run_with_meter`].
pub fn run_units(
    compiled: &Compiled,
    range: std::ops::Range<usize>,
    state: &mut ExecState,
    inputs: &HashMap<String, ArrayBuf>,
    funcs: &FuncTable,
    options: &RunOptions,
    meter: &mut Meter,
) -> Result<(), RuntimeError> {
    let threads = options.threads.unwrap_or(1);
    // The engines consume and return the binding map wholesale
    // (`Vm::bind_all` / `into_arrays`), so work on owned state and put
    // it back on success; a failed run's partial state is discarded
    // with the error.
    let mut arrays = std::mem::take(&mut state.arrays);
    let mut scalars = std::mem::take(&mut state.scalars);
    let mut counters = std::mem::take(&mut state.counters);
    // A tape engine's VM over the run's bindings, charging `meter`.
    let vm = |meter: &mut Meter, scalars: &[(String, f64)], arrays: &mut HashMap<_, _>| {
        let mut vm = Vm::new();
        vm.with_funcs(funcs.clone());
        vm.with_meter(std::mem::take(meter));
        vm.with_faults(options.faults.clone());
        for (p, v) in compiled.env.iter() {
            vm.set_global(p, v as f64);
        }
        for (n, v) in scalars {
            vm.set_global(n.clone(), *v);
        }
        // Move the environment through the VM: no copies.
        vm.bind_all(std::mem::take(arrays));
        vm
    };
    let faulted = options.faults.as_ref().is_some_and(FaultPlan::is_active);

    let mut next = range.start;
    let units = &compiled.units[..range.end];
    for (i, unit) in units.iter().enumerate().skip(range.start) {
        if i < next {
            continue;
        }
        let merge = compiled.merges.iter().find(|m| {
            m.units.start == i
                && m.units.end <= range.end
                && !faulted
                && m.merged.can_run(meter, |n| arrays.contains_key(n))
        });
        if let Some(m) = merge {
            let tapes: Vec<&TapeProgram> = compiled.units[m.units.clone()]
                .iter()
                .filter_map(|u| match u {
                    Unit::Thunkless { tape, .. } => tape.as_ref(),
                    _ => None,
                })
                .collect();
            let mut vm = vm(meter, &scalars, &mut arrays);
            let out = vm.run_merged(&tapes, &m.merged);
            *meter = vm.take_meter();
            out?;
            counters.vm = add_vm(counters.vm, vm.counters);
            arrays = vm.into_arrays();
            state.merged_loops += 1;
            next = m.units.end;
            continue;
        }
        match unit {
            Unit::Input { name, bounds } => {
                // Charged as the copy value semantics would make, and
                // before the lookup: a caller fills only the inputs its
                // cap covers (see `fill_inputs`), so an input too large
                // to allocate is missing and must fail on the meter.
                // The clone itself shares the caller's elements, and a
                // unit that updates the input in place copies them on
                // its first write.
                meter.charge_mem(ArrayBuf::data_bytes(bounds))?;
                let buf = inputs
                    .get(name)
                    .ok_or_else(|| RuntimeError::UnboundArray(name.clone()))?;
                if &buf.bounds() != bounds {
                    return Err(RuntimeError::InputShape {
                        array: name.clone(),
                        declared: bounds.clone(),
                        given: buf.bounds(),
                    });
                }
                arrays.insert(name.clone(), buf.clone());
            }
            Unit::Thunkless { name, prog, tape } => {
                let mut vm = vm(meter, &scalars, &mut arrays);
                let out = match tape {
                    Some(t) => vm.run_tape(t, threads),
                    None => vm.run(prog),
                };
                *meter = vm.take_meter();
                out?;
                counters.vm = add_vm(counters.vm, vm.counters);
                arrays = vm.into_arrays();
                debug_assert!(arrays.contains_key(name), "program allocated its result");
            }
            Unit::Thunked { defs } => {
                for (_, b, _) in defs {
                    // Thunked arrays always track definedness, so the
                    // bitmap rides along with the element storage.
                    meter.charge_mem(ArrayBuf::footprint_bytes(b, true))?;
                }
                let triples: Vec<hac_runtime::group::GroupDef<'_>> = defs
                    .iter()
                    .map(|(n, b, c)| (n.as_str(), b.clone(), c))
                    .collect();
                // The group holds `&RefCell<Meter>` for its lifetime, so
                // park the meter in a cell and take it back afterwards —
                // including on the error paths, which must report the
                // exact balance at the failure point.
                let meter_cell = RefCell::new(std::mem::take(meter));
                let results = (|| {
                    let group = ThunkedGroup::build(
                        &triples,
                        &compiled.env,
                        &scalars,
                        &arrays,
                        funcs,
                        Some(&meter_cell),
                    )?;
                    let out = group.force_elements();
                    let gc = group.counters();
                    counters.thunked.thunks_allocated += gc.thunks_allocated;
                    counters.thunked.demands += gc.demands;
                    counters.thunked.memo_hits += gc.memo_hits;
                    out?;
                    group.into_strict()
                })();
                *meter = meter_cell.into_inner();
                for (n, b) in results? {
                    arrays.insert(n, b);
                }
            }
            Unit::Accum { def, bounds } => {
                let ArrayKind::Accumulated {
                    combine, default, ..
                } = &def.kind
                else {
                    unreachable!("accum unit holds accumulated def")
                };
                meter.charge_mem(ArrayBuf::footprint_bytes(bounds, false))?;
                let buf = eval_accum(
                    &def.name,
                    bounds,
                    &def.comp,
                    *combine,
                    default,
                    &compiled.env,
                    &scalars,
                    &arrays,
                    funcs,
                )?;
                arrays.insert(def.name.clone(), buf);
            }
            Unit::Reduce {
                name,
                op,
                init,
                comp,
            } => {
                let v = eval_reduce(*op, init, comp, &compiled.env, &scalars, &arrays, funcs)?;
                scalars.push((name.clone(), v));
            }
            Unit::Update {
                name,
                base,
                lowered,
                tape,
            } => {
                let mut vm = vm(meter, &scalars, &mut arrays);
                if lowered.in_place {
                    vm.alias(name.clone(), base.clone());
                }
                let out = match tape {
                    Some(t) => vm.run_tape(t, threads),
                    None => vm.run(&lowered.prog),
                };
                *meter = vm.take_meter();
                out?;
                counters.vm = add_vm(counters.vm, vm.counters);
                arrays = vm.into_arrays();
                if lowered.in_place {
                    // The base's storage *is* the result; the compiler
                    // rejected any later use of the consumed name.
                    let buf = arrays
                        .remove(base)
                        .expect("in-place update mutated its base");
                    arrays.insert(name.clone(), buf);
                }
            }
        }
    }
    state.arrays = arrays;
    state.scalars = scalars;
    state.counters = counters;
    Ok(())
}

fn add_vm(a: VmCounters, b: VmCounters) -> VmCounters {
    VmCounters {
        stores: a.stores + b.stores,
        loads: a.loads + b.loads,
        check_ops: a.check_ops + b.check_ops,
        loop_iterations: a.loop_iterations + b.loop_iterations,
        temp_elements: a.temp_elements + b.temp_elements,
        elements_copied: a.elements_copied + b.elements_copied,
        array_allocs: a.array_allocs + b.array_allocs,
        tape_ops: a.tape_ops + b.tape_ops,
        engine_faults: a.engine_faults + b.engine_faults,
    }
}

/// Allocate the `input` arrays of `compiled`, filled deterministically
/// from `seed` with values rounded to one decimal in `[0, 10)`, or left
/// zero when `seed` is `None`.
///
/// Only inputs whose running total of bytes fits `mem_cap` are
/// allocated: a run charges each input before it looks it up, so it
/// stops on the memory limit at the first input left out, exactly
/// where a fully filled run would, and an input larger than any cap
/// is never allocated at all.
pub fn fill_inputs(
    compiled: &Compiled,
    seed: Option<u64>,
    mem_cap: Option<u64>,
) -> HashMap<String, ArrayBuf> {
    let mut rng = seed.map(XorShift::new);
    let mut out = HashMap::new();
    let mut left = mem_cap.unwrap_or(u64::MAX);
    for unit in &compiled.units {
        if let Unit::Input { name, bounds } = unit {
            let Some(rest) = left.checked_sub(ArrayBuf::data_bytes(bounds)) else {
                break;
            };
            left = rest;
            let mut buf = ArrayBuf::new(bounds, 0.0);
            if let Some(rng) = rng.as_mut() {
                for v in buf.data_mut() {
                    *v = (rng.next_f64() * 10.0).round() / 10.0;
                }
            }
            out.insert(name.clone(), buf);
        }
    }
    out
}

/// Convenience: parse, compile, and run in one call.
///
/// # Errors
/// Parse, compile, or runtime failures, boxed.
pub fn compile_and_run(
    source: &str,
    env: &ConstEnv,
    inputs: &HashMap<String, ArrayBuf>,
) -> Result<ExecOutput, Box<dyn std::error::Error>> {
    let program = hac_lang::parser::parse_program(source)?;
    let compiled = compile(&program, env, &CompileOptions::default())?;
    let out = run(&compiled, inputs, &FuncTable::new())?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_lang::parser::parse_program;

    fn run_src(src: &str, n: i64) -> ExecOutput {
        let env = ConstEnv::from_pairs([("n", n)]);
        compile_and_run(src, &env, &HashMap::new()).unwrap()
    }

    #[test]
    fn end_to_end_recurrence() {
        let out = run_src(
            "param n;\nletrec* a = array (1,n) ([ 1 := 1 ] ++ [ i := a!(i-1) * 2 | i <- [2..n] ]);\n",
            6,
        );
        assert_eq!(out.array("a").data(), &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]);
        // Thunkless: no thunks allocated, checks elided.
        assert_eq!(out.counters.thunked.thunks_allocated, 0);
        assert_eq!(out.counters.vm.check_ops, 0);
    }

    #[test]
    fn end_to_end_wavefront() {
        let out = run_src(
            r#"
param n;
letrec* a = array ((1,1),(n,n))
   ([ (1,j) := 1 | j <- [1..n] ] ++
    [ (i,1) := 1 | i <- [2..n] ] ++
    [ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1)
       | i <- [2..n], j <- [2..n] ]);
"#,
            5,
        );
        assert_eq!(out.array("a").get("a", &[5, 5]).unwrap(), 321.0);
        assert_eq!(out.counters.thunked.thunks_allocated, 0);
    }

    #[test]
    fn forced_thunked_matches_thunkless() {
        let src = "param n;\nletrec* a = array (1,n) \
                   ([ n := 1 ] ++ [ i := a!(i+1) + i | i <- [1..n-1] ]);\n";
        let env = ConstEnv::from_pairs([("n", 8)]);
        let program = parse_program(src).unwrap();
        let auto = compile(&program, &env, &CompileOptions::default()).unwrap();
        let thunked = compile(
            &program,
            &env,
            &CompileOptions {
                mode: ExecMode::ForceThunked,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let inputs = HashMap::new();
        let funcs = FuncTable::new();
        let a = run(&auto, &inputs, &funcs).unwrap();
        let t = run(&thunked, &inputs, &funcs).unwrap();
        assert_eq!(a.array("a").data(), t.array("a").data());
        assert_eq!(a.counters.thunked.thunks_allocated, 0);
        assert_eq!(t.counters.thunked.thunks_allocated, 8);
    }

    #[test]
    fn inputs_flow_through() {
        let src = "param n;\ninput u (1,n);\nlet a = array (1,n) [ i := u!i * 2 | i <- [1..n] ];\n";
        let env = ConstEnv::from_pairs([("n", 3)]);
        let program = parse_program(src).unwrap();
        let compiled = compile(&program, &env, &CompileOptions::default()).unwrap();
        let mut u = ArrayBuf::new(&[(1, 3)], 0.0);
        for i in 1..=3 {
            u.set("u", &[i], i as f64).unwrap();
        }
        let mut inputs = HashMap::new();
        inputs.insert("u".to_string(), u);
        let out = run(&compiled, &inputs, &FuncTable::new()).unwrap();
        assert_eq!(out.array("a").data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn outputs_share_input_storage_and_never_fresh_storage() {
        let src = "param n;\ninput u (1,n);\n\
                   let a = array (1,n) [ i := u!i * 2 | i <- [1..n] ];\n\
                   let b = array (1,n) [ i := u!i * 2 | i <- [1..n] ];\n";
        let env = ConstEnv::from_pairs([("n", 4)]);
        let program = parse_program(src).unwrap();
        for engine in [Engine::TreeWalk, Engine::Tape] {
            let options = CompileOptions {
                engine,
                ..CompileOptions::default()
            };
            let compiled = compile(&program, &env, &options).unwrap();
            let inputs = HashMap::from([("u".to_string(), ArrayBuf::new(&[(1, 4)], 3.0))]);
            let first = run(&compiled, &inputs, &FuncTable::new()).unwrap();
            let second = run(&compiled, &inputs, &FuncTable::new()).unwrap();
            // Binding copied nothing: both outputs carry the caller's
            // own elements.
            assert!(first.array("u").shares_storage(&inputs["u"]), "{engine:?}");
            assert!(second.array("u").shares_storage(&inputs["u"]), "{engine:?}");
            // Equal arrays the program allocated are separate storage,
            // within one output and across two runs.
            assert_eq!(first.array("a"), first.array("b"));
            assert!(!first.array("a").shares_storage(first.array("b")));
            assert!(!first.array("a").shares_storage(second.array("a")));
            assert!(!first.array("a").shares_storage(&inputs["u"]));
        }
    }

    #[test]
    fn mutual_letrec_falls_back_to_thunked_group() {
        let src = r#"
param n;
letrec* a = array (1,n) ([ 1 := 1 ] ++ [ i := b!(i-1) + 1 | i <- [2..n] ])
      and b = array (1,n) [ i := a!i * 2 | i <- [1..n] ];
"#;
        let out = run_src(src, 4);
        assert_eq!(out.array("a").data(), &[1.0, 3.0, 7.0, 15.0]);
        assert_eq!(out.array("b").data(), &[2.0, 6.0, 14.0, 30.0]);
        assert!(out.counters.thunked.thunks_allocated > 0);
    }

    #[test]
    fn certain_collision_is_compile_error() {
        let src = "param n;\nlet a = array (1,n) ([ i := 0 | i <- [1..n] ] ++ [ 3 := 1 ]);\n";
        let env = ConstEnv::from_pairs([("n", 5)]);
        let program = parse_program(src).unwrap();
        let err = compile(&program, &env, &CompileOptions::default()).unwrap_err();
        assert!(matches!(err, CompileError::CertainCollision { .. }));
    }

    #[test]
    fn possible_collision_gets_runtime_checks() {
        // A guard hides the collision from the "certain" verdict, so
        // checks are compiled; at runtime the collision is caught.
        let src = "param n;\nlet a = array (1,n) \
                   ([ i := 0 | i <- [1..n], i < n ] ++ [ 3 := 1 ]);\n";
        let env = ConstEnv::from_pairs([("n", 5)]);
        let program = parse_program(src).unwrap();
        let compiled = compile(&program, &env, &CompileOptions::default()).unwrap();
        let err = run(&compiled, &HashMap::new(), &FuncTable::new()).unwrap_err();
        assert!(matches!(err, RuntimeError::WriteCollision { .. }));
    }

    #[test]
    fn bigupd_end_to_end_row_swap() {
        let src = r#"
param n;
letrec* a = array ((1,1),(2,n)) [ (i,j) := i * 10 + j | i <- [1..2], j <- [1..n] ];
b = bigupd a ([ (1,j) := a!(2,j) | j <- [1..n] ] ++ [ (2,j) := a!(1,j) | j <- [1..n] ]);
"#;
        let out = run_src(src, 4);
        let b = out.array("b");
        for j in 1..=4 {
            assert_eq!(b.get("b", &[1, j]).unwrap(), (20 + j) as f64);
            assert_eq!(b.get("b", &[2, j]).unwrap(), (10 + j) as f64);
        }
        assert_eq!(out.counters.vm.elements_copied, 0, "in place");
        assert_eq!(out.counters.vm.temp_elements, 4, "one row temp");
    }

    #[test]
    fn accum_array_unit() {
        let src = "param n;\nlet h = accumArray (+) 0 (0,2) [ i mod 3 := 1.0 | i <- [1..n] ];\n";
        let out = run_src(src, 9);
        assert_eq!(out.array("h").data(), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn thunk_fallback_for_unschedulable() {
        // An indirect subscript (`p!i`) defeats the linear analysis, so
        // the scheduler falls back to thunks — which evaluate the
        // dynamic dependence chain just fine.
        let src = r#"
param n;
input p (1,n);
letrec* a = array (1,n) [ i := if i == 1 then 1 else a!(p!i) + 1 | i <- [1..n] ];
"#;
        let env = ConstEnv::from_pairs([("n", 5)]);
        let program = parse_program(src).unwrap();
        let compiled = compile(&program, &env, &CompileOptions::default()).unwrap();
        let mut p = ArrayBuf::new(&[(1, 5)], 0.0);
        for i in 1..=5 {
            p.set("p", &[i], (i - 1).max(1) as f64).unwrap();
        }
        let mut inputs = HashMap::new();
        inputs.insert("p".to_string(), p);
        let out = run(&compiled, &inputs, &FuncTable::new()).unwrap();
        assert_eq!(out.array("a").data(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(
            out.counters.thunked.thunks_allocated > 0,
            "thunked fallback"
        );
    }

    #[test]
    fn report_renders() {
        let src = "param n;\nletrec* a = array (1,n) ([ 1 := 1 ] ++ [ i := a!(i-1) * 2 | i <- [2..n] ]);\n";
        let env = ConstEnv::from_pairs([("n", 6)]);
        let program = parse_program(src).unwrap();
        let compiled = compile(&program, &env, &CompileOptions::default()).unwrap();
        let text = compiled.report.render();
        assert!(text.contains("a"), "{text}");
        assert!(text.contains("thunkless"), "{text}");
    }
}
