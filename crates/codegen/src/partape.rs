//! Dependence-proven parallel tape execution (§10).
//!
//! The sequential tape interpreter in [`crate::tape`] runs every loop
//! pass in schedule order. This module adds an engine that partitions
//! the iteration space of each top-level loop pass whose [`Op::LoopHead`]
//! carries the §10 `par` verdict — *no loop-carried dependence, no
//! possible write collision, all checks discharged at compile time* —
//! into contiguous chunks executed concurrently on a persistent worker
//! pool. Everything between (and inside) such regions runs on the exact
//! sequential dispatch path, so the engine's observable behaviour is
//! bit-identical to [`TapeProgram::exec`]:
//!
//! * **values** — iterations of a proven region neither read another
//!   iteration's writes (that would be a carried flow dependence) nor
//!   write a common element (that would be an output dependence /
//!   collision), so each iteration computes, NaNs and all, exactly what
//!   it computes sequentially;
//! * **errors** — every chunk runs to its *own* first error; the error
//!   with the lowest iteration ordinal wins, regardless of which worker
//!   hit it first;
//! * **counters** — per-chunk [`VmCounters`] deltas are merged exactly:
//!   on success all chunks sum; on an error at ordinal `k` only the
//!   chunks covering ordinals `≤ k` contribute, reproducing the
//!   sequential prefix count (chunks are contiguous, so every such
//!   chunk either completed error-free or is the one that faulted
//!   at `k`).
//!
//! Passes that carry a dependence (or contain checked stores,
//! allocations, copies or completeness checks — anything touching
//! shared mutable bookkeeping) are simply not regions: they execute on
//! the sequential path. Correctness is decided entirely by the
//! compile-time analysis; the runtime takes no locks around array
//! accesses.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Condvar, Mutex, OnceLock};

use hac_runtime::error::RuntimeError;
use hac_runtime::governor::{FaultKind, FaultPlan};
use hac_runtime::value::{ArrayBuf, SharedSlots};

use crate::limp::VmCounters;
use crate::tape::{ArrayId, FusedChunk, FusedEntry, Op, TapeProgram, TapeScratch, TapeState};

/// A parallelizable top-level loop pass of a tape.
#[derive(Debug)]
struct ParRegion {
    /// pc of the pass's [`Op::LoopInit`].
    init_pc: usize,
    /// pc of the [`Op::LoopHead`] (always `init_pc + 1`).
    head_pc: usize,
    /// Where the head's exit jump lands (first op after the pass).
    exit_pc: usize,
    ireg: usize,
    slot: usize,
    start: i64,
    step: i64,
    /// Compile-time trip count (loop bounds are constants).
    trip: u64,
    /// Stop bitmap with only `head_pc` set: a worker runs one iteration
    /// by dispatching from `head_pc + 1` until the back-edge lands here.
    head_stop: Vec<bool>,
    /// Stop bitmap with only `exit_pc` set (sequential fallback of the
    /// whole region from `init_pc`).
    exit_stop: Vec<bool>,
    /// Static fuel charge of one complete iteration (the head charge
    /// plus the body's loop-head and call charges), when the body's
    /// charge count is input-independent. `None` (a call or nested
    /// loop under a conditional) sends fuel-limited runs down the
    /// sequential path — splitting a budget needs an exact cost.
    iter_cost: Option<u64>,
    /// The body never reads an array it writes, so after a worker
    /// fault the whole pass can be re-executed sequentially: every
    /// read still sees pre-region data and every write is rewritten
    /// deterministically.
    retry_safe: bool,
    /// Arrays the body stores into (sorted, deduped) — what a
    /// pre-region snapshot must capture when `retry_safe` is false,
    /// and what `run_region` makes unique before the workers start.
    write_ids: Vec<ArrayId>,
    /// When the fusion pass overlaid this pass's init with
    /// [`Op::VecLoop`], the fused-entry index: chunks then run the
    /// bulk kernel over their ordinal range instead of per-iteration
    /// dispatch (same accounting, same bits).
    fused: Option<u32>,
}

/// The per-tape parallel execution plan: regions plus the stop bitmap
/// that intercepts their entry points on the main dispatch path.
/// Made by [`exec_par`] for a run with more than one worker.
#[derive(Debug)]
pub struct ParPlan {
    regions: Vec<ParRegion>,
    entry_stops: Vec<bool>,
}

impl ParPlan {
    /// Number of parallelizable passes (reports/tests).
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }
}

/// Scan a tape for parallelizable top-level loop passes.
///
/// The scan walks top-level pcs, skipping over every loop body (only
/// *outermost* passes are partitioned; a `par` loop nested under a
/// sequential pass runs sequentially inside it). A pass becomes a
/// region when its head is marked `par` and its body is free of ops
/// that touch shared mutable bookkeeping:
///
/// * `Alloc` / `Copy` rebind whole buffer slots;
/// * checked stores (`StoreDyn` / `StoreLin` with `checked`) mutate the
///   shared definedness bitmap — and only exist when the analysis
///   could *not* discharge the §4 checks, i.e. when the disjointness
///   proof this engine relies on is absent;
/// * `CheckComplete` reads that bitmap.
///
/// Everything else — reads, unchecked stores, nested sequential loops,
/// calls, lazy error ops — is private to an iteration under the §10
/// verdict.
pub fn plan_tape(tape: &TapeProgram) -> ParPlan {
    let ops = &tape.ops;
    let mut regions = Vec::new();
    let mut pc = 0usize;
    while pc + 1 < ops.len() {
        // A pass entry is either a plain `LoopInit` or the fusion
        // pass's `VecLoop` overlay (which preserves the init's
        // register/start and is always followed by the intact head).
        let (fused, ireg, start) = match &ops[pc] {
            Op::LoopInit { ireg, start } => (None, *ireg, *start),
            Op::VecLoop(k) => {
                let e = &tape.fused[*k as usize];
                (Some(*k), e.ireg, e.start)
            }
            _ => {
                pc += 1;
                continue;
            }
        };
        let Op::LoopHead {
            ireg: hreg,
            slot,
            end,
            step,
            exit,
            par,
            red: _,
        } = &ops[pc + 1]
        else {
            pc += 1;
            continue;
        };
        debug_assert_eq!(ireg, *hreg, "LoopInit/LoopHead always pair up");
        let (init_pc, head_pc, exit_pc) = (pc, pc + 1, *exit as usize);
        pc = exit_pc; // top-level scan: never descend into a body
        if !*par {
            continue;
        }
        let body = &ops[head_pc + 1..exit_pc];
        let eligible = body.iter().all(|op| {
            !matches!(
                op,
                Op::Alloc(_)
                    | Op::Copy { .. }
                    | Op::CheckComplete { .. }
                    | Op::Halt
                    | Op::StoreDyn { checked: true, .. }
                    | Op::StoreLin { checked: true, .. }
            )
        });
        if !eligible {
            continue;
        }
        let trip = trip_count(start, *end, *step);
        let mut head_stop = vec![false; ops.len()];
        head_stop[head_pc] = true;
        let mut exit_stop = vec![false; ops.len()];
        exit_stop[exit_pc] = true;
        // Body charge count (exit_pc - 1 is the LoopNext): exact per
        // iteration, or None when conditionals make it data-dependent.
        let iter_cost = static_fuel_cost(ops, &tape.fused, head_pc + 1, exit_pc - 1)
            .and_then(|body| body.checked_add(1));
        let mut reads = std::collections::BTreeSet::new();
        let mut writes = std::collections::BTreeSet::new();
        for op in body {
            match op {
                Op::ReadDyn { array, .. } => {
                    reads.insert(*array);
                }
                Op::ReadLin(l) => {
                    reads.insert(tape.lins[*l as usize].array);
                }
                Op::StoreDyn { array, .. } => {
                    writes.insert(*array);
                }
                Op::StoreLin { lin, .. } => {
                    writes.insert(tape.lins[*lin as usize].array);
                }
                _ => {}
            }
        }
        let retry_safe = writes.is_disjoint(&reads);
        let write_ids: Vec<ArrayId> = writes.into_iter().collect();
        regions.push(ParRegion {
            init_pc,
            head_pc,
            exit_pc,
            ireg: ireg as usize,
            slot: *slot as usize,
            start,
            step: *step,
            trip,
            head_stop,
            exit_stop,
            iter_cost,
            retry_safe,
            write_ids,
            fused,
        });
    }
    let mut entry_stops = vec![false; ops.len()];
    for r in &regions {
        entry_stops[r.init_pc] = true;
    }
    ParPlan {
        regions,
        entry_stops,
    }
}

/// Fuel charges one execution of `ops[from..to]` makes, when that
/// count is the same for every input: `1` per `Call`, `trip × (1 +
/// body)` per nested counted loop. Conditionals (`AndJump`/`OrJump`/
/// `JumpIfZero`/`Jump`) are fine as long as no charging op sits in a
/// skippable range — `cond_until` tracks the furthest forward-jump
/// target seen, and a `Call` or loop before that point makes the
/// count data-dependent (`None`).
fn static_fuel_cost(ops: &[Op], fused: &[FusedEntry], from: usize, to: usize) -> Option<u64> {
    let mut cost = 0u64;
    let mut cond_until = from;
    let mut pc = from;
    while pc < to {
        match &ops[pc] {
            Op::AndJump(t) | Op::OrJump(t) | Op::JumpIfZero(t) | Op::Jump(t) => {
                cond_until = cond_until.max(*t as usize);
                pc += 1;
            }
            Op::Call { .. } => {
                if pc < cond_until {
                    return None;
                }
                cost = cost.checked_add(1)?;
                pc += 1;
            }
            Op::LoopInit { start, .. } => {
                if pc < cond_until {
                    return None;
                }
                let Op::LoopHead {
                    end, step, exit, ..
                } = &ops[pc + 1]
                else {
                    unreachable!("LoopInit is always followed by its LoopHead");
                };
                let trip = trip_count(*start, *end, *step);
                let exit_pc = *exit as usize;
                let inner = static_fuel_cost(ops, fused, pc + 2, exit_pc - 1)?;
                cost = cost.checked_add(trip.checked_mul(inner.checked_add(1)?)?)?;
                pc = exit_pc;
            }
            Op::VecLoop(k) => {
                // A fused inner loop charges one head per iteration
                // and nothing in its body (fusible bodies contain no
                // charging ops) — `trip` exactly, fused or fallen back
                // to its scalar ops.
                if pc < cond_until {
                    return None;
                }
                let e = &fused[*k as usize];
                cost = cost.checked_add(e.trip)?;
                pc = e.exit_pc as usize;
            }
            _ => pc += 1,
        }
    }
    Some(cost)
}

pub(crate) fn trip_count(start: i64, end: i64, step: i64) -> u64 {
    debug_assert!(step != 0);
    if step > 0 {
        if start > end {
            0
        } else {
            (end - start) as u64 / step as u64 + 1
        }
    } else if start < end {
        0
    } else {
        (start - end) as u64 / step.unsigned_abs() + 1
    }
}

/// Execute a tape with proven-parallel passes partitioned over
/// `threads` workers (the calling thread participates, so `threads: 1`
/// never touches the pool). Observable behaviour is bit-identical to
/// [`TapeProgram::exec`]; see the module docs for the argument.
///
/// With more than one worker the tape is planned here ([`plan_tape`]):
/// the plan is a pure function of the tape, so every run at every
/// worker count sees the same regions, chunks, fuel split and fault
/// ordinals, and a one-worker run never plans at all.
///
/// `faults`, when present, is a deterministic injection plan (tests /
/// `--fault-plan`): regions are numbered in execution order and a
/// matching `(region, chunk)` point fires a worker panic or a
/// simulated allocation failure. An absorbed fault degrades the region
/// to sequential re-execution (recorded in
/// [`VmCounters::engine_faults`]) instead of losing the run.
///
/// # Errors
/// Exactly the sequential engine's failures, with deterministic
/// first-error selection across workers. On an error, buffer elements
/// written by iterations *after* the faulting one may differ from the
/// sequential engine's (which stopped at the fault) — the program's
/// result is the error either way, and counters still merge exactly.
/// [`RuntimeError::EngineFault`] is raised only when a worker fault
/// hits a region that is neither retry-safe nor snapshotted.
pub fn exec_par(
    tape: &TapeProgram,
    st: &mut TapeState<'_>,
    threads: usize,
    faults: Option<&FaultPlan>,
) -> Result<(), RuntimeError> {
    if threads <= 1 {
        return tape.exec(st);
    }
    let plan = plan_tape(tape);
    if plan.regions.is_empty() {
        return tape.exec(st);
    }
    let mut tape_ops = 0u64;
    let mut pc = 0usize;
    let mut region_ordinal = 0u64;
    let out = loop {
        match tape.dispatch_until(st, &mut tape_ops, pc, &plan.entry_stops) {
            Ok(p) if p == tape.ops.len() => break Ok(()),
            Ok(p) => {
                let region = plan
                    .regions
                    .iter()
                    .find(|r| r.init_pc == p)
                    .expect("entry stop set only at region inits");
                let r = run_region(
                    tape,
                    region,
                    st,
                    threads,
                    &mut tape_ops,
                    region_ordinal,
                    faults,
                );
                region_ordinal += 1;
                match r {
                    Ok(()) => pc = region.exit_pc,
                    Err(e) => break Err(e),
                }
            }
            Err(e) => break Err(e),
        }
    };
    st.counters.tape_ops += tape_ops;
    out
}

/// Iterations per chunk aim for `CHUNKS_PER_THREAD` chunks per worker:
/// coarse enough to amortize claim overhead, fine enough to rebalance
/// when iteration costs are skewed.
const CHUNKS_PER_THREAD: u64 = 4;

/// Panic payload of a [`FaultKind::Panic`] injection: raised with
/// `resume_unwind` (no panic-hook noise) and recognized when the
/// driver describes the fault.
#[derive(Debug)]
struct InjectedFault {
    chunk: u64,
}

fn describe_panic(payload: &Box<dyn Any + Send>) -> String {
    if let Some(f) = payload.downcast_ref::<InjectedFault>() {
        format!("injected panic in chunk {}", f.chunk)
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        format!("worker panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("worker panic: {s}")
    } else {
        "worker panic".to_string()
    }
}

#[allow(clippy::too_many_lines)]
fn run_region(
    tape: &TapeProgram,
    region: &ParRegion,
    st: &mut TapeState<'_>,
    threads: usize,
    tape_ops: &mut u64,
    region_ordinal: u64,
    faults: Option<&FaultPlan>,
) -> Result<(), RuntimeError> {
    let trip = region.trip;
    let fuel_limited = st.meter.fuel_limited();
    if trip < 2 || (fuel_limited && region.iter_cost.is_none()) || st.meter.draws_lazily() {
        // Nothing to partition — a fuel budget that cannot be split
        // exactly (data-dependent per-iteration cost) — or a meter that
        // draws fuel lazily from the shared ceiling, whose block refills
        // cannot be replayed deterministically across workers: run the
        // whole pass (LoopInit, head checks, body, final failing head
        // check) sequentially.
        let p = tape.dispatch_until(st, tape_ops, region.init_pc, &region.exit_stop)?;
        debug_assert_eq!(p, region.exit_pc);
        return Ok(());
    }

    // LoopInit, by hand (the entry stop intercepted it).
    *tape_ops += 1;
    st.scratch.iregs[region.ireg] = region.start;

    // Pre-region snapshot of the write set, only when a fault plan asks
    // for one and plain re-execution would be unsafe (the body reads an
    // array it writes). Fault-free runs never pay for this.
    let snapshot: Option<Vec<(ArrayId, Option<ArrayBuf>)>> = match faults {
        Some(f) if f.snapshot && !region.retry_safe => Some(
            region
                .write_ids
                .iter()
                .map(|&id| (id, st.bufs[id as usize].clone()))
                .collect(),
        ),
        _ => None,
    };
    // Workers write through aliased slot tables, so a buffer they write
    // must not copy its shared elements under them: copy here, once (an
    // input bound at this unit, or a buffer the snapshot just shared).
    for &id in &region.write_ids {
        if let Some(buf) = &mut st.bufs[id as usize] {
            buf.make_unique();
        }
    }

    let n_chunks = trip.min(threads as u64 * CHUNKS_PER_THREAD);
    // Ordinal range of chunk c: even partition of 0..trip.
    let chunk_bounds = |c: u64| (c * trip / n_chunks, (c + 1) * trip / n_chunks);

    // Fuel split: chunk c starts with exactly the budget the sequential
    // engine would have left on reaching its first ordinal, so
    // exhaustion lands on the same op, at the same ordinal, with the
    // same error payload as a sequential run. `iter_cost` is exact
    // (checked above) whenever fuel is limited.
    let fuel_per_iter = if fuel_limited {
        region.iter_cost.expect("sequential fallback covers None")
    } else {
        0
    };
    let main_fuel = st.meter.fuel_left();
    let meter0 = st.meter.clone();

    let bufs = SharedSlots::new(st.bufs);
    let defined = SharedSlots::new(st.defined);
    let funcs = st.funcs;
    let frame0 = st.scratch.frame.clone();
    let iregs0 = st.scratch.iregs.clone();

    let claim = AtomicUsize::new(0);
    // Lowest known faulting ordinal; chunks starting past it are dead
    // (excluded from the merge whatever the final minimum turns out to
    // be) and are skipped without running.
    let min_err = AtomicU64::new(u64::MAX);
    // An injected allocation failure: the chunk produced nothing, so
    // the region must be re-executed.
    let alloc_failed = AtomicBool::new(false);
    // (chunk lo, counter delta, fault: (ordinal, error, fuel left at
    // the fault — the sequential engine's remainder at the same op)).
    type ChunkOut = (u64, VmCounters, Option<(u64, RuntimeError, u64)>);
    let results: Mutex<Vec<ChunkOut>> = Mutex::new(Vec::new());

    let work = || {
        let mut scratch = TapeScratch {
            frame: frame0.clone(),
            iregs: iregs0.clone(),
            stack: Vec::with_capacity(tape.max_stack),
            idx: Vec::with_capacity(tape.max_idx),
        };
        let mut outs: Vec<ChunkOut> = Vec::new();
        loop {
            let c = claim.fetch_add(1, Ordering::Relaxed) as u64;
            if c >= n_chunks {
                break;
            }
            match faults.and_then(|f| f.lookup(region_ordinal, c)) {
                // Any fault discards every chunk's output (see below),
                // so `outs` needs no flushing before the unwind.
                Some(FaultKind::Panic) => {
                    std::panic::resume_unwind(Box::new(InjectedFault { chunk: c }))
                }
                Some(FaultKind::AllocFail) => {
                    alloc_failed.store(true, Ordering::SeqCst);
                    continue;
                }
                None => {}
            }
            let (lo, hi) = chunk_bounds(c);
            if lo > min_err.load(Ordering::Relaxed) {
                continue;
            }
            let mut counters = VmCounters::default();
            let mut chunk_ops = 0u64;
            let mut err: Option<(u64, RuntimeError, u64)> = None;
            let mut sub =
                meter0.sub_meter(main_fuel.saturating_sub(lo.saturating_mul(fuel_per_iter)));
            // Safety: every chunk covers a disjoint ordinal range of a
            // pass whose iterations are proven not to access a common
            // element conflictingly (see module docs); the backing
            // slices outlive the region (the driver joins all chunks
            // before returning).
            let mut cst = TapeState {
                bufs: unsafe { bufs.slice_mut() },
                defined: unsafe { defined.slice_mut() },
                funcs,
                scratch: &mut scratch,
                counters: &mut counters,
                meter: &mut sub,
            };
            // Fused pass: run the chunk's ordinal range as one bulk
            // kernel (identical accounting — see `fused_chunk`). An
            // unbound buffer falls back to per-iteration dispatch,
            // whose scalar ops sit intact after the overlay.
            let mut scalar_range = Some((lo, hi));
            if let Some(k) = region.fused {
                match tape.fused_chunk(k, &mut cst, &mut chunk_ops, lo, hi) {
                    FusedChunk::Fallback => {}
                    FusedChunk::Done => scalar_range = None,
                    FusedChunk::Fuel {
                        ord,
                        err: e,
                        fuel_left,
                    } => {
                        scalar_range = None;
                        min_err.fetch_min(ord, Ordering::Relaxed);
                        err = Some((ord, e, fuel_left));
                    }
                }
            }
            for ord in scalar_range.map_or(0..0, |(lo, hi)| lo..hi) {
                let i = region.start + ord as i64 * region.step;
                cst.scratch.iregs[region.ireg] = i;
                // The head op: count it, charge it, count the
                // iteration, publish the loop variable — then run the
                // body until the back-edge lands on the head again.
                chunk_ops += 1;
                if let Err(e) = cst.meter.charge_fuel() {
                    min_err.fetch_min(ord, Ordering::Relaxed);
                    let left = cst.meter.fuel_left();
                    err = Some((ord, e, left));
                    break;
                }
                cst.counters.loop_iterations += 1;
                cst.scratch.frame[region.slot] = i as f64;
                match tape.dispatch_until(
                    &mut cst,
                    &mut chunk_ops,
                    region.head_pc + 1,
                    &region.head_stop,
                ) {
                    Ok(p) => debug_assert_eq!(p, region.head_pc),
                    Err(e) => {
                        min_err.fetch_min(ord, Ordering::Relaxed);
                        let left = cst.meter.fuel_left();
                        err = Some((ord, e, left));
                        break;
                    }
                }
            }
            counters.tape_ops += chunk_ops;
            outs.push((lo, counters, err));
        }
        if !outs.is_empty() {
            results.lock().expect("results lock").extend(outs);
        }
    };

    let pool_panic = run_on_pool(threads.min(trip as usize), &work);

    if pool_panic.is_some() || alloc_failed.load(Ordering::SeqCst) {
        // A worker faulted. Discard every parallel partial result and
        // degrade to the sequential engine: the region re-executes from
        // its head (LoopInit was already applied and counted), which is
        // safe when the body never reads its own writes, or after
        // restoring the pre-region snapshot of the write set. Counters
        // and values then come out exactly as a sequential run's; only
        // `engine_faults` records that anything happened. A fault that
        // is neither — no snapshot, unsafe retry — is a structured
        // EngineFault, never a partial result.
        st.counters.engine_faults += 1;
        if region.retry_safe || snapshot.is_some() {
            if let Some(snap) = snapshot {
                for (id, buf) in snap {
                    st.bufs[id as usize] = buf;
                }
            }
            let p = tape.dispatch_until(st, tape_ops, region.head_pc, &region.exit_stop)?;
            debug_assert_eq!(p, region.exit_pc);
            return Ok(());
        }
        let detail = match &pool_panic {
            Some(payload) => describe_panic(payload),
            None => "injected allocation failure".to_string(),
        };
        return Err(RuntimeError::EngineFault {
            region: region_ordinal,
            detail,
        });
    }

    // Deterministic merge. Chunks are contiguous in ordinal order, so
    // on an error at global minimum ordinal k the sequential engine
    // executed exactly: the full iterations of every chunk starting
    // ≤ k except the owner, the owner's prefix up to the fault — and
    // every such chunk ran exactly that here (a chunk starting ≤ k
    // cannot itself fault before k, k being the minimum). The argument
    // covers fuel exhaustion too: a chunk's sub-budget equals the
    // sequential engine's remaining fuel at its first ordinal, so the
    // owning chunk runs out on exactly the sequential op.
    let mut outs = results.into_inner().expect("results lock");
    outs.sort_by_key(|(lo, _, _)| *lo);
    let fault: Option<(u64, RuntimeError, u64)> = outs
        .iter()
        .filter_map(|(_, _, e)| e.clone())
        .min_by_key(|(ord, _, _)| *ord);
    match fault {
        Some((k, e, fuel_left)) => {
            for (lo, c, _) in &outs {
                if *lo <= k {
                    add_counters(st.counters, c, tape_ops);
                }
            }
            if fuel_limited {
                // The winning chunk's sub-budget tracked the sequential
                // engine's exactly, so its remainder at the fault *is*
                // the sequential remainder — settle the main meter to
                // it (a later unit sharing the budget must see the same
                // fuel either way).
                st.meter.set_fuel_left(fuel_left);
            }
            Err(e)
        }
        None => {
            for (_, c, _) in &outs {
                add_counters(st.counters, c, tape_ops);
            }
            // The final, failing head check the sequential engine runs.
            *tape_ops += 1;
            // Post-loop register/frame state, as sequential left it.
            st.scratch.iregs[region.ireg] = region.start + trip as i64 * region.step;
            st.scratch.frame[region.slot] = (region.start + (trip as i64 - 1) * region.step) as f64;
            // Settle the region's statically known fuel spend against
            // the main meter, exactly as `trip` sequential iterations
            // would have.
            st.meter.consume_fuel(trip.saturating_mul(fuel_per_iter));
            Ok(())
        }
    }
}

/// Fold a chunk's counter delta into the main counters. `tape_ops`
/// rides separately (the caller adds it to the state's counters once,
/// mirroring [`TapeProgram::exec`]).
fn add_counters(main: &mut VmCounters, c: &VmCounters, tape_ops: &mut u64) {
    main.loads += c.loads;
    main.stores += c.stores;
    main.loop_iterations += c.loop_iterations;
    main.check_ops += c.check_ops;
    main.array_allocs += c.array_allocs;
    main.temp_elements += c.temp_elements;
    main.elements_copied += c.elements_copied;
    *tape_ops += c.tape_ops;
    // `engine_faults` is deliberately not merged: it is main-thread
    // bookkeeping (a chunk cannot observe a fault), so fault-free runs
    // stay bit-identical to the sequential engine on every counter.
}

// ---------------------------------------------------------------------
// The worker pool: persistent `std::thread` workers, reused across
// regions, `run` calls, and VMs. Submission checks out idle workers
// (spawning on demand, so the pool's size is the high-water mark of
// concurrent demand), hands each a lifetime-erased task pointer, and
// waits on a latch for all of them — the task closure therefore never
// outlives the driver's stack frame.
// ---------------------------------------------------------------------

/// A lifetime-erased task. Valid only until the submitting driver
/// returns, which the latch protocol guarantees.
#[derive(Clone, Copy)]
struct RawTask(*const (dyn Fn() + Sync));

// Safety: the pointee is `Sync` (so `&`-calls from any thread are
// fine) and the submission protocol keeps it alive until every worker
// signalled the latch.
unsafe impl Send for RawTask {}

struct Pool {
    idle: Vec<Sender<RawTask>>,
    spawned: usize,
}

static POOL: OnceLock<Mutex<Pool>> = OnceLock::new();

fn pool() -> &'static Mutex<Pool> {
    POOL.get_or_init(|| {
        Mutex::new(Pool {
            idle: Vec::new(),
            spawned: 0,
        })
    })
}

fn worker_loop(rx: &Receiver<RawTask>) {
    while let Ok(task) = rx.recv() {
        // Safety: see `RawTask`.
        let f = unsafe { &*task.0 };
        // The task wrapper in `run_on_pool` captures the payload of any
        // panic and counts the latch down; this belt only keeps the
        // worker thread alive for its next checkout.
        let _ = catch_unwind(AssertUnwindSafe(f));
    }
}

/// Check out `n` idle workers, spawning any shortfall.
fn checkout(n: usize) -> Vec<Sender<RawTask>> {
    let mut p = pool().lock().expect("pool lock");
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        match p.idle.pop() {
            Some(tx) => out.push(tx),
            None => {
                let (tx, rx) = channel::<RawTask>();
                std::thread::Builder::new()
                    .name(format!("hac-par-{}", p.spawned))
                    .spawn(move || worker_loop(&rx))
                    .expect("spawn tape worker");
                p.spawned += 1;
                out.push(tx);
            }
        }
    }
    out
}

fn checkin(workers: Vec<Sender<RawTask>>) {
    pool().lock().expect("pool lock").idle.extend(workers);
}

struct Latch {
    left: Mutex<usize>,
    cv: Condvar,
}

impl Latch {
    fn new(n: usize) -> Latch {
        Latch {
            left: Mutex::new(n),
            cv: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut left = self.left.lock().expect("latch lock");
        *left -= 1;
        if *left == 0 {
            self.cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.left.lock().expect("latch lock");
        while *left > 0 {
            left = self.cv.wait(left).expect("latch lock");
        }
    }
}

/// Counts its latch down when dropped, so a participant that panics
/// anywhere in the task wrapper still releases the driver — a missed
/// count-down would leave `run_on_pool` waiting forever.
struct CountDownOnDrop<'a>(&'a Latch);

impl Drop for CountDownOnDrop<'_> {
    fn drop(&mut self) {
        self.0.count_down();
    }
}

/// Run `work` on the calling thread plus up to `threads - 1` pool
/// workers, returning when every participant finished. If any
/// participant panicked, the first captured payload is returned —
/// after the join, so the task memory is never freed under a running
/// worker — and the caller decides whether to re-raise or degrade.
#[must_use = "a worker panic must be re-raised or handled, never dropped"]
fn run_on_pool(threads: usize, work: &(dyn Fn() + Sync)) -> Option<Box<dyn Any + Send>> {
    let helpers = threads.saturating_sub(1);
    if helpers == 0 {
        return catch_unwind(AssertUnwindSafe(work)).err();
    }
    let latch = Latch::new(helpers);
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let wrapped = || {
        let _release = CountDownOnDrop(&latch);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(work)) {
            let mut slot = first_panic.lock().expect("panic slot lock");
            slot.get_or_insert(payload);
        }
    };
    let obj: &(dyn Fn() + Sync) = &wrapped;
    // Safety: `wrapped` outlives every worker's use — the latch wait
    // below does not return before all `helpers` sends are serviced.
    let raw = RawTask(unsafe {
        std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(obj)
    });
    let workers = checkout(helpers);
    for tx in &workers {
        tx.send(raw).expect("worker alive");
    }
    let main_res = catch_unwind(AssertUnwindSafe(work));
    latch.wait();
    checkin(workers);
    match main_res {
        Err(payload) => Some(payload),
        Ok(()) => first_panic.into_inner().expect("panic slot lock"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limp::{LProgram, LStmt, StoreCheck, Vm};
    use crate::tape::{compile_tape, TapeCtx};
    use hac_lang::parser::parse_expr;
    use hac_runtime::governor::{Limits, Meter};

    /// Zero the main-side fault counter so fault-injected runs compare
    /// bit-identical to fault-free ones on every merged counter.
    fn sans_faults(mut c: VmCounters) -> VmCounters {
        c.engine_faults = 0;
        c
    }

    fn squares(par: bool, n: i64) -> LProgram {
        LProgram {
            stmts: vec![
                LStmt::Alloc {
                    array: "a".into(),
                    bounds: vec![(1, n)],
                    fill: 0.0,
                    temp: false,
                    checked: false,
                },
                LStmt::For {
                    var: "i".into(),
                    start: 1,
                    end: n,
                    step: 1,
                    par,
                    red: false,
                    body: vec![LStmt::Store {
                        array: "a".into(),
                        subs: vec![parse_expr("i").unwrap()],
                        value: parse_expr("i * i").unwrap(),
                        check: StoreCheck::None,
                    }],
                },
            ],
            result: "a".into(),
        }
    }

    #[test]
    fn plan_finds_par_region_and_skips_sequential() {
        let par = compile_tape(&squares(true, 100), &TapeCtx::default());
        assert_eq!(plan_tape(&par).region_count(), 1);
        let seq = compile_tape(&squares(false, 100), &TapeCtx::default());
        assert_eq!(plan_tape(&seq).region_count(), 0);
    }

    #[test]
    fn partape_matches_tape_bitwise() {
        for threads in [1, 2, 4, 8] {
            let prog = squares(true, 100);
            let tape = compile_tape(&prog, &TapeCtx::default());
            let mut seq = Vm::new();
            seq.run_tape(&tape, 1).unwrap();
            let mut par = Vm::new();
            par.run_tape(&tape, threads).unwrap();
            assert_eq!(
                seq.array("a").unwrap().data(),
                par.array("a").unwrap().data(),
                "threads={threads}"
            );
            assert_eq!(seq.counters, sans_faults(par.counters), "threads={threads}");
        }
    }

    #[test]
    fn error_selection_is_lowest_iteration() {
        // Store through a guard that faults out-of-bounds from i == 40
        // onward: every thread count must report the i == 40 fault with
        // the same counters as the sequential engine.
        let n = 100;
        let prog = LProgram {
            stmts: vec![
                LStmt::Alloc {
                    array: "a".into(),
                    bounds: vec![(1, n)],
                    fill: 0.0,
                    temp: false,
                    checked: false,
                },
                LStmt::For {
                    var: "i".into(),
                    start: 1,
                    end: n,
                    step: 1,
                    par: true,
                    red: false,
                    body: vec![LStmt::Store {
                        array: "a".into(),
                        subs: vec![parse_expr("if i < 40 then i else i + 1000").unwrap()],
                        value: parse_expr("i").unwrap(),
                        check: StoreCheck::None,
                    }],
                },
            ],
            result: "a".into(),
        };
        let tape = compile_tape(&prog, &TapeCtx::default());
        let plan = plan_tape(&tape);
        assert!(plan.region_count() > 0, "dynamic subscript stays eligible");
        let mut seq = Vm::new();
        let want = seq.run_tape(&tape, 1).unwrap_err();
        for threads in [1, 2, 4, 8] {
            let mut par = Vm::new();
            let got = par.run_tape(&tape, threads).unwrap_err();
            assert_eq!(format!("{want:?}"), format!("{got:?}"), "threads={threads}");
            assert_eq!(seq.counters, sans_faults(par.counters), "threads={threads}");
        }
    }

    #[test]
    fn pool_panic_is_propagated_not_swallowed() {
        let payload = run_on_pool(4, &|| panic!("injected fault"))
            .expect("a participant panic must surface as a payload");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("injected fault")
        );
        // The pool survives the fault: a later submission still runs on
        // every participant and completes cleanly.
        let count = AtomicUsize::new(0);
        let clean = run_on_pool(4, &|| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert!(clean.is_none());
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }

    /// `a!(i) := a!(i) + i` over a prefilled array: the body reads what
    /// it writes (same element, so still §10-independent across
    /// iterations), which makes plain re-execution after a mid-region
    /// fault unsafe without a snapshot.
    fn incr_in_place(n: i64) -> LProgram {
        LProgram {
            stmts: vec![
                LStmt::Alloc {
                    array: "a".into(),
                    bounds: vec![(1, n)],
                    fill: 1.0,
                    temp: false,
                    checked: false,
                },
                LStmt::For {
                    var: "i".into(),
                    start: 1,
                    end: n,
                    step: 1,
                    par: true,
                    red: false,
                    body: vec![LStmt::Store {
                        array: "a".into(),
                        subs: vec![parse_expr("i").unwrap()],
                        value: parse_expr("a!(i) + i").unwrap(),
                        check: StoreCheck::None,
                    }],
                },
            ],
            result: "a".into(),
        }
    }

    #[test]
    fn plan_classifies_retry_safety_and_iter_cost() {
        let tape = compile_tape(&squares(true, 100), &TapeCtx::default());
        let plan = plan_tape(&tape);
        assert!(plan.regions[0].retry_safe, "writes don't meet reads");
        assert_eq!(plan.regions[0].iter_cost, Some(1), "head charge only");

        let tape = compile_tape(&incr_in_place(100), &TapeCtx::default());
        let plan = plan_tape(&tape);
        assert!(!plan.regions[0].retry_safe, "a is read and written");

        // A call in the body charges every iteration; under a
        // conditional the count is data-dependent.
        let call_body = |value: &str| LProgram {
            stmts: vec![
                LStmt::Alloc {
                    array: "a".into(),
                    bounds: vec![(1, 50)],
                    fill: 0.0,
                    temp: false,
                    checked: false,
                },
                LStmt::For {
                    var: "i".into(),
                    start: 1,
                    end: 50,
                    step: 1,
                    par: true,
                    red: false,
                    body: vec![LStmt::Store {
                        array: "a".into(),
                        subs: vec![parse_expr("i").unwrap()],
                        value: parse_expr(value).unwrap(),
                        check: StoreCheck::None,
                    }],
                },
            ],
            result: "a".into(),
        };
        let tape = compile_tape(&call_body("sqrt(i)"), &TapeCtx::default());
        assert_eq!(plan_tape(&tape).regions[0].iter_cost, Some(2));
        let tape = compile_tape(
            &call_body("if i < 10 then sqrt(i) else i"),
            &TapeCtx::default(),
        );
        assert_eq!(plan_tape(&tape).regions[0].iter_cost, None);
    }

    #[test]
    fn fuel_exhaustion_is_bit_identical_across_threads() {
        let prog = squares(true, 100);
        let tape = compile_tape(&prog, &TapeCtx::default());
        // Budgets hitting before, inside, and after the parallel pass.
        for fuel in [0u64, 1, 37, 99, 100, 1000] {
            let limits = Limits {
                fuel: Some(fuel),
                mem_bytes: None,
            };
            let mut seq = Vm::new();
            seq.with_meter(Meter::new(limits));
            let want = seq.run_tape(&tape, 1);
            for threads in [2, 4, 8] {
                let mut par = Vm::new();
                par.with_meter(Meter::new(limits));
                let got = par.run_tape(&tape, threads);
                assert_eq!(
                    format!("{want:?}"),
                    format!("{got:?}"),
                    "fuel={fuel} threads={threads}"
                );
                assert_eq!(
                    seq.counters,
                    sans_faults(par.counters),
                    "fuel={fuel} threads={threads}"
                );
                if want.is_ok() {
                    assert_eq!(
                        seq.array("a").unwrap().data(),
                        par.array("a").unwrap().data(),
                        "fuel={fuel} threads={threads}"
                    );
                }
            }
        }
    }

    /// The matvec shape: an outer proven-parallel `i` loop whose body
    /// is a reduction over `k` — `p!(i,k) := p!(i,k-1) + u!(i,k)`.
    fn row_prefix_sums(n: i64) -> LProgram {
        LProgram {
            stmts: vec![
                LStmt::Alloc {
                    array: "u".into(),
                    bounds: vec![(1, n), (1, n)],
                    fill: 2.0,
                    temp: false,
                    checked: false,
                },
                LStmt::Alloc {
                    array: "p".into(),
                    bounds: vec![(1, n), (0, n)],
                    fill: 0.0,
                    temp: false,
                    checked: false,
                },
                LStmt::For {
                    var: "i".into(),
                    start: 1,
                    end: n,
                    step: 1,
                    par: true,
                    red: false,
                    body: vec![LStmt::For {
                        var: "k".into(),
                        start: 1,
                        end: n,
                        step: 1,
                        par: false,
                        red: true,
                        body: vec![LStmt::Store {
                            array: "p".into(),
                            subs: vec![parse_expr("i").unwrap(), parse_expr("k").unwrap()],
                            value: parse_expr("p!(i, k - 1) + u!(i, k)").unwrap(),
                            check: StoreCheck::None,
                        }],
                    }],
                },
            ],
            result: "p".into(),
        }
    }

    #[test]
    fn fused_reduction_runs_inside_parallel_chunks() {
        // A fused reduction kernel nested in a par region's chunk body:
        // values, counters, and fuel must match the sequential engine
        // bit-for-bit at every thread count, with fusion on and off.
        let n = 24i64;
        let prog = row_prefix_sums(n);
        let plain = compile_tape(&prog, &TapeCtx::default());
        let mut fused = plain.clone();
        let decisions = crate::fuse::fuse_tape(&mut fused);
        assert!(
            decisions
                .iter()
                .any(|d| d.kernel.as_deref() == Some("running sum")),
            "inner k loop must fuse as a reduction: {decisions:?}"
        );
        let plan = plan_tape(&fused);
        assert!(
            plan.region_count() > 0,
            "outer i loop must stay a parallel region around the fused reduction"
        );

        let mut seq = Vm::new();
        seq.run_tape(&plain, 1).unwrap();
        for threads in [1, 2, 4, 8] {
            let mut par = Vm::new();
            par.run_tape(&fused, threads).unwrap();
            assert_eq!(
                seq.array("p").unwrap().data(),
                par.array("p").unwrap().data(),
                "threads={threads}"
            );
            assert_eq!(seq.counters, sans_faults(par.counters), "threads={threads}");
        }

        // Fuel ladder: budgets tripping before, inside, and after the
        // region must fail (or pass) identically, including mid-kernel.
        for fuel in [0u64, 1, 7, n as u64, (n * n) as u64 / 2, (n * n + n) as u64] {
            let limits = Limits {
                fuel: Some(fuel),
                mem_bytes: None,
            };
            let mut seq = Vm::new();
            seq.with_meter(Meter::new(limits));
            let want = seq.run_tape(&plain, 1);
            let want_fuel = seq.take_meter().fuel_left();
            for threads in [2, 4] {
                let mut par = Vm::new();
                par.with_meter(Meter::new(limits));
                let got = par.run_tape(&fused, threads);
                assert_eq!(
                    format!("{want:?}"),
                    format!("{got:?}"),
                    "fuel={fuel} threads={threads}"
                );
                assert_eq!(
                    seq.counters,
                    sans_faults(par.counters),
                    "fuel={fuel} threads={threads}"
                );
                assert_eq!(
                    want_fuel,
                    par.take_meter().fuel_left(),
                    "fuel={fuel} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn injected_panic_degrades_to_sequential() {
        let prog = squares(true, 100);
        let tape = compile_tape(&prog, &TapeCtx::default());
        let mut clean = Vm::new();
        clean.run_tape(&tape, 4).unwrap();
        let mut faulty = Vm::new();
        faulty.with_faults(Some(FaultPlan::parse("r0c1:panic").unwrap()));
        faulty.run_tape(&tape, 4).unwrap();
        assert_eq!(
            clean.array("a").unwrap().data(),
            faulty.array("a").unwrap().data()
        );
        assert_eq!(clean.counters, sans_faults(faulty.counters));
        assert_eq!(faulty.counters.engine_faults, 1, "fault is visible");
    }

    #[test]
    fn injected_alloc_failure_degrades_to_sequential() {
        let prog = squares(true, 100);
        let tape = compile_tape(&prog, &TapeCtx::default());
        let mut clean = Vm::new();
        clean.run_tape(&tape, 4).unwrap();
        let mut faulty = Vm::new();
        faulty.with_faults(Some(FaultPlan::parse("r0c0:allocfail").unwrap()));
        faulty.run_tape(&tape, 4).unwrap();
        assert_eq!(
            clean.array("a").unwrap().data(),
            faulty.array("a").unwrap().data()
        );
        assert_eq!(clean.counters, sans_faults(faulty.counters));
        assert_eq!(faulty.counters.engine_faults, 1);
    }

    #[test]
    fn snapshot_makes_unsafe_region_retryable() {
        let prog = incr_in_place(100);
        let tape = compile_tape(&prog, &TapeCtx::default());
        let plan = plan_tape(&tape);
        assert!(!plan.regions[0].retry_safe);
        let mut clean = Vm::new();
        clean.run_tape(&tape, 4).unwrap();
        let mut faulty = Vm::new();
        faulty.with_faults(Some(FaultPlan::parse("r0c0:panic").unwrap()));
        faulty.run_tape(&tape, 4).unwrap();
        assert_eq!(
            clean.array("a").unwrap().data(),
            faulty.array("a").unwrap().data()
        );
        assert_eq!(clean.counters, sans_faults(faulty.counters));
        assert_eq!(faulty.counters.engine_faults, 1);
    }

    #[test]
    fn unsafe_region_without_snapshot_is_engine_fault() {
        let prog = incr_in_place(100);
        let tape = compile_tape(&prog, &TapeCtx::default());
        let mut vm = Vm::new();
        vm.with_faults(Some(FaultPlan::parse("nosnapshot,r0c0:panic").unwrap()));
        let err = vm.run_tape(&tape, 4).unwrap_err();
        assert!(
            matches!(err, RuntimeError::EngineFault { region: 0, .. }),
            "got {err:?}"
        );
        assert_eq!(vm.counters.engine_faults, 1);
    }

    #[test]
    fn checked_stores_disqualify_region() {
        let mut prog = squares(true, 50);
        let LStmt::For { body, .. } = &mut prog.stmts[1] else {
            unreachable!()
        };
        let LStmt::Store { check, .. } = &mut body[0] else {
            unreachable!()
        };
        *check = StoreCheck::Monolithic;
        let LStmt::Alloc { checked, .. } = &mut prog.stmts[0] else {
            unreachable!()
        };
        *checked = true;
        let tape = compile_tape(&prog, &TapeCtx::default());
        assert_eq!(plan_tape(&tape).region_count(), 0);
    }
}
