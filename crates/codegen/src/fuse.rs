//! Tape-compile fusion: lower straight-line innermost loops into
//! vector superinstructions.
//!
//! The paper's subscript analysis proves comprehension loops
//! collision-free and thunkless — exactly the precondition for
//! running them without per-element dispatch. This pass walks a
//! compiled [`TapeProgram`] and, for every innermost loop whose body is
//! straight-line arithmetic over unchecked strength-reduced accesses
//! ([`Op::ReadLin`]/[`Op::StoreLin`] with hoisted checks), overlays the
//! loop's `LoopInit` with an [`Op::VecLoop`] superinstruction. The
//! scalar head/body/next ops stay in place directly after it, serving
//! as the run-time fallback (unbound buffers) and as the differential
//! oracle (`--no-fuse` skips this pass entirely and nothing else
//! changes).
//!
//! Body shape decides whether a loop fuses; the §10 verdict only picks
//! the kernel. The fusion preconditions, all decided here at compile
//! time, are:
//!
//! * no nested loops — fusion targets innermost loops only,
//! * every array access is a `ReadLin`/`StoreLin` whose bounds checks
//!   were discharged by the interval proof (`checks: None`) and whose
//!   store carries no definedness check,
//! * no calls, branches, allocations, copies, or unresolved names in
//!   the body, no rebinding of an enclosing slot, and the body's
//!   operand stack, local bindings and constants fit the generic
//!   kernel's register file.
//!
//! Under those conditions every iteration executes the same ops, so
//! the scalar loop's counters, fuel charges, and post-loop state are
//! closed-form in the iteration count and can be settled in bulk (see
//! the accounting contract in [`crate::tape`]). Every fused body is
//! translated once, here, into one IR: a three-address register program
//! (`register_form`) read straight from the body's tape ops. Loops
//! whose verdict is `par` (iterations independent) classify common
//! shapes of that program (fill/copy/elementwise/multiply-add/stencils)
//! to hand-written contiguous-slice kernels that the Rust compiler
//! autovectorizes, taking their operands from it; `red` loops classify
//! recognized folds to register-accumulator kernels. Everything else —
//! including sequential loops that carry a value through an array from
//! one iteration to the next — runs the generic kernel: the register
//! program, compiled here once into closures
//! ([`crate::tape::CompiledBody`]), runs strictly in order through
//! aliasing-safe raw views, checks each stream's bounds once per call,
//! passes a carried cell from one iteration to the next as an argument,
//! and still amortizes dispatch and metering.

use crate::partape::trip_count;
use std::sync::Arc;

use crate::tape::{
    CompiledBody, FusedEntry, FusedStream, Kernel, LinEntry, MergedLoop, MergedPart, Op, RegOp,
    RegProgram, Src, TapeProgram, FUSE_MAX_STACK, REG_FILE, REG_SINK,
};
use hac_lang::ast::BinOp;
use hac_runtime::value::ArrayBuf;

/// The fusion verdict for one loop, in source (pc) order — rendered
/// into `--report` so every decision is explained.
#[derive(Debug, Clone)]
pub struct FuseDecision {
    /// Loop variable spelling.
    pub var: String,
    pub start: i64,
    pub end: i64,
    pub step: i64,
    /// Kernel shape when fused.
    pub kernel: Option<String>,
    /// Decline reason when scalar.
    pub reason: Option<String>,
}

impl FuseDecision {
    /// One-line rendering, e.g. `for j in [2..9]: fused (4-point
    /// stencil)` or `for i in [1..8]: scalar (contains a nested loop;
    /// fusion targets innermost loops)`.
    pub fn render(&self) -> String {
        let step = if self.step == 1 {
            String::new()
        } else {
            format!(" step {}", self.step)
        };
        let head = format!("for {} in [{}..{}]{}", self.var, self.start, self.end, step);
        match (&self.kernel, &self.reason) {
            (Some(k), _) => format!("{head}: fused ({k})"),
            (None, Some(r)) => format!("{head}: scalar ({r})"),
            (None, None) => head,
        }
    }
}

/// Run the fusion pass over a compiled tape, overlaying every eligible
/// innermost loop with a vector superinstruction. Returns one decision
/// per loop, in source order. Idempotent on already-fused tapes
/// (fused loops report their kernel again).
pub fn fuse_tape(tape: &mut TapeProgram) -> Vec<FuseDecision> {
    let mut decisions = Vec::new();
    for head in 1..tape.ops.len() {
        let Op::LoopHead { end, step, .. } = tape.ops[head] else {
            continue;
        };
        let (start, verdict) = match tape.ops[head - 1] {
            Op::VecLoop(k) => {
                let e = &tape.fused[k as usize];
                (e.start, Ok(e.kernel.shape()))
            }
            Op::LoopInit { start, .. } => {
                let verdict = try_fuse(tape, head - 1).map(|entry| {
                    let shape = entry.kernel.shape();
                    tape.ops[head - 1] = Op::VecLoop(tape.fused.len() as u32);
                    tape.fused.push(entry);
                    shape
                });
                (start, verdict)
            }
            _ => continue,
        };
        let (kernel, reason) = match verdict {
            Ok(shape) => (Some(shape.to_string()), None),
            Err(reason) => (None, Some(reason.to_string())),
        };
        decisions.push(FuseDecision {
            var: loop_var(tape, head as u32),
            start,
            end,
            step,
            kernel,
            reason,
        });
    }
    decisions
}

fn loop_var(tape: &TapeProgram, head_pc: u32) -> String {
    tape.loop_vars
        .iter()
        .find(|(h, _)| *h == head_pc)
        .map_or_else(|| "?".to_string(), |(_, v)| v.clone())
}

/// Why a loop body cannot fuse, highest priority first: each is a
/// structural reason the closed-form accounting (and therefore fusion)
/// would be unsound, and a body reports the first that any of its ops
/// has.
const DECLINES: [&str; 8] = [
    "contains a nested loop; fusion targets innermost loops",
    "non-affine subscript takes the dynamic access path",
    "bounds checks not discharged by the interval proof",
    "definedness checks active on stores",
    "function call in body",
    "conditional control flow in body",
    "unresolved name in body",
    "allocation or copy in body",
];

/// The [`DECLINES`] rank of body op `op`, if it blocks fusion.
fn decline(tape: &TapeProgram, op: &Op) -> Option<usize> {
    let unproven = |l: u32| tape.lins[l as usize].checks.is_some();
    match *op {
        Op::LoopInit { .. } | Op::LoopHead { .. } | Op::LoopNext { .. } | Op::VecLoop(_) => Some(0),
        Op::ToIdx(_) | Op::ReadDyn { .. } | Op::StoreDyn { .. } => Some(1),
        Op::ReadLin(l) | Op::StoreLin { lin: l, .. } if unproven(l) => Some(2),
        Op::StoreLin { checked: true, .. } => Some(3),
        Op::Call { .. } | Op::ResolveFunc(_) => Some(4),
        Op::AndJump(_) | Op::OrJump(_) | Op::OrNorm | Op::JumpIfZero(_) | Op::Jump(_) => Some(5),
        Op::ErrVar(_) => Some(6),
        Op::Alloc(_) | Op::Copy { .. } | Op::CheckComplete { .. } | Op::Halt => Some(7),
        Op::Const(_)
        | Op::LoadSlot(_)
        | Op::StoreSlot(_)
        | Op::Bin(_)
        | Op::Un(_)
        | Op::ReadLin(_)
        | Op::StoreLin { .. } => None,
    }
}

/// Attempt to build a [`FusedEntry`] for the loop whose `LoopInit`
/// sits at `init_pc`. Returns the decline reason otherwise.
fn try_fuse(tape: &TapeProgram, init_pc: usize) -> Result<FusedEntry, &'static str> {
    let Op::LoopInit { ireg, start } = tape.ops[init_pc] else {
        unreachable!("caller matched LoopInit");
    };
    let Op::LoopHead {
        slot,
        end,
        step,
        exit,
        par,
        red,
        ..
    } = tape.ops[init_pc + 1]
    else {
        unreachable!("LoopInit is always followed by its LoopHead");
    };
    let exit_pc = exit as usize;
    debug_assert!(matches!(tape.ops[exit_pc - 1], Op::LoopNext { .. }));
    let body = &tape.ops[init_pc + 2..exit_pc - 1];
    if let Some(rank) = body.iter().filter_map(|op| decline(tape, op)).min() {
        return Err(DECLINES[rank]);
    }
    let (streams, prog) = register_form(tape, body, ireg, slot, step)?;
    // The specialized shapes assume order-independent iterations (or,
    // for `red`, one recognized fold); a carried loop runs the
    // in-order register program, whose reads and writes interleave
    // exactly as the scalar ops do.
    let kernel = if par || red {
        classify(&prog, &streams, step, red)
    } else {
        Kernel::Generic
    };
    let count = |f: fn(&Op) -> bool| body.iter().filter(|op| f(op)).count() as u64;
    Ok(FusedEntry {
        ireg,
        slot,
        start,
        step,
        trip: trip_count(start, end, step),
        init_pc: init_pc as u32,
        exit_pc: exit,
        // head + body + next, dispatched once per complete iteration.
        iter_ops: (exit_pc - init_pc - 1) as u64,
        loads_per_iter: count(|op| matches!(op, Op::ReadLin(_))),
        stores_per_iter: count(|op| matches!(op, Op::StoreLin { .. })),
        body: (kernel == Kernel::Generic).then(|| Arc::new(CompiledBody::compile(&prog))),
        streams,
        prog,
        kernel,
    })
}

/// Stream `c` reads exactly the cell stream `d` wrote one ordinal
/// earlier: same array, stride and invariant terms, base shifted back
/// by one ordinal delta.
fn reads_previous(c: &FusedStream, d: &FusedStream, step: i64) -> bool {
    c.array == d.array
        && c.stride == d.stride
        && c.inv == d.inv
        && c.base == d.base.wrapping_sub(d.stride.wrapping_mul(step))
}

/// Translate a straight-line body's tape ops into its access streams
/// and its [`RegProgram`].
///
/// Linear accesses become streams, numbered in body order. A slot
/// resolves to the loop variable, a body-local temp (a slot the body
/// binds) or an invariant (any other slot; the body may not rebind
/// one it has read). The operand stack is tracked symbolically: stack
/// depth `k` is register `k`, constants, invariants, the loop variable
/// and temps push the register that holds them (a temp rebound while
/// an earlier read of it is still on the stack first copies that read
/// to its depth register), and a stream read stays a [`Src::Mem`]
/// operand of the op that consumes it unless a store comes in
/// between, which first copies every pending read to its depth
/// register. A store of the value the previous binary op computed
/// merges with it into one [`RegOp::BinStore`].
///
/// A carried cell is forwarded: when a store is the body's only store
/// to its array, a read of the stream that [`reads_previous`] it, made
/// before the store in body order, reads a register the store also
/// writes. That register equals memory there: at entry it is seeded
/// from the cell, and afterwards nothing but that store writes the
/// array.
fn register_form(
    tape: &TapeProgram,
    body: &[Op],
    ireg: u32,
    slot: u32,
    step: i64,
) -> Result<(Vec<FusedStream>, RegProgram), &'static str> {
    let stream = |l: u32| {
        let lin = &tape.lins[l as usize];
        let (own, inv): (Vec<_>, Vec<_>) = lin.terms.iter().copied().partition(|&(r, _)| r == ireg);
        FusedStream {
            array: lin.array,
            base: lin.base,
            inv,
            stride: own.last().map_or(0, |&(_, s)| s),
        }
    };
    let intern = |streams: &mut Vec<FusedStream>, st: FusedStream| -> Result<u8, &'static str> {
        if let Some(i) = streams.iter().position(|x| *x == st) {
            return Ok(i as u8);
        }
        if streams.len() >= 256 {
            return Err("too many distinct access streams");
        }
        streams.push(st);
        Ok((streams.len() - 1) as u8)
    };
    // The body's stores in order, for the forwarding lookahead.
    let stores: Vec<FusedStream> = body
        .iter()
        .filter_map(|op| match *op {
            Op::StoreLin { lin, .. } => Some(stream(lin)),
            _ => None,
        })
        .collect();

    let mut streams = Vec::new();
    let mut p = RegProgram::default();
    // Registers past the file's end fail the body once it is read
    // through, so every earlier decline keeps its priority.
    let mut next = usize::from(REG_SINK) + 1;
    let mut fresh = || {
        next += 1;
        (next - 1) as u8
    };
    // `(register, frame slot)` of each temp.
    let mut temps: Vec<(u8, u32)> = Vec::new();
    // `(index into stores, register)` of each forward in use.
    let mut fwd: Vec<(usize, u8)> = Vec::new();
    let mut stored = 0;
    let mut stack: Vec<Src> = Vec::new();
    let mut depth = 0;
    // Copy the pending stack entries `keep` selects to their depth
    // registers.
    let settle = |p: &mut RegProgram, stack: &mut [Src], keep: &dyn Fn(Src) -> bool| {
        for (k, e) in stack.iter_mut().enumerate() {
            if keep(*e) {
                p.ops.push(RegOp::Mov { d: k as u8, a: *e });
                *e = Src::Reg(k as u8);
            }
        }
    };
    for op in body {
        let top = match *op {
            Op::Const(v) => match p.consts.iter().find(|(_, c)| c.to_bits() == v.to_bits()) {
                Some(&(r, _)) => Src::Reg(r),
                None => {
                    let r = fresh();
                    p.consts.push((r, v));
                    Src::Reg(r)
                }
            },
            Op::LoadSlot(s) if s == slot => Src::Reg(*p.loop_var.get_or_insert_with(&mut fresh)),
            Op::LoadSlot(s) => match temps.iter().chain(&p.invariants).find(|&&(_, x)| x == s) {
                Some(&(r, _)) => Src::Reg(r),
                None => {
                    let r = fresh();
                    p.invariants.push((r, s));
                    Src::Reg(r)
                }
            },
            Op::StoreSlot(s) => {
                if p.invariants.iter().any(|&(_, x)| x == s) {
                    // A slot first read as loop-invariant then written
                    // would need per-iteration frame traffic.
                    return Err("body rebinds an enclosing slot");
                }
                let v = stack.pop().expect("balanced body");
                let r = match temps.iter().find(|&&(_, x)| x == s) {
                    Some(&(r, _)) => r,
                    None => {
                        let r = fresh();
                        temps.push((r, s));
                        r
                    }
                };
                settle(&mut p, &mut stack, &|e| e == Src::Reg(r));
                p.ops.push(RegOp::Mov { d: r, a: v });
                continue;
            }
            Op::ReadLin(l) => {
                let s = intern(&mut streams, stream(l))?;
                let sc = &streams[s as usize];
                let carried = (stored..stores.len()).find(|&k| {
                    let d = &stores[k];
                    reads_previous(sc, d, step)
                        && stores.iter().filter(|x| x.array == d.array).count() == 1
                });
                match carried {
                    Some(k) => match fwd.iter().find(|&&(x, _)| x == k) {
                        Some(&(_, r)) => Src::Reg(r),
                        None => {
                            let r = fresh();
                            fwd.push((k, r));
                            p.forwards.push((r, s));
                            Src::Reg(r)
                        }
                    },
                    None => Src::Mem(s),
                }
            }
            Op::StoreLin { lin, .. } => {
                let s = intern(&mut streams, stream(lin))?;
                let a = stack.pop().expect("balanced body");
                let fwd_regs: Vec<u8> = fwd.iter().map(|&(_, r)| r).collect();
                settle(&mut p, &mut stack, &|e| match e {
                    Src::Mem(_) => true,
                    Src::Reg(r) => fwd_regs.contains(&r),
                });
                let fwd = fwd
                    .iter()
                    .find(|&&(k, _)| k == stored)
                    .map_or(REG_SINK, |&(_, r)| r);
                // Storing what the op just before computed: one op
                // does both (one dispatch and one register trip fewer).
                match (p.ops.last().copied(), a) {
                    (Some(RegOp::Bin { op, d, a, b }), Src::Reg(k)) if d == k => {
                        p.ops.pop();
                        p.ops.push(RegOp::BinStore { op, a, b, s, fwd });
                    }
                    _ => p.ops.push(RegOp::Store { s, a, fwd }),
                }
                stored += 1;
                continue;
            }
            Op::Bin(op) => {
                let b = stack.pop().expect("balanced body");
                let a = stack.pop().expect("balanced body");
                let d = stack.len() as u8;
                p.ops.push(RegOp::Bin { op, d, a, b });
                Src::Reg(d)
            }
            Op::Un(op) => {
                let a = stack.pop().expect("balanced body");
                let d = stack.len() as u8;
                p.ops.push(RegOp::Un { op, d, a });
                Src::Reg(d)
            }
            _ => unreachable!("declined by the sweep"),
        };
        stack.push(top);
        depth = depth.max(stack.len());
    }
    if depth > FUSE_MAX_STACK {
        return Err("body expression too deep for the micro-interpreter");
    }
    if next > REG_FILE {
        return Err("body too large for the register file");
    }
    Ok((streams, p))
}

/// The pc of a unit tape's `VecLoop` and its fused entry, when the tape
/// can join a merged chain: a failure-free straight-line prefix, then
/// one top-level loop on the generic kernel that is not a parallel
/// region, then `Halt`. The prefix may allocate unchecked arrays and
/// read and store through proven-in-bounds accesses; nothing in it can
/// fail once the meter covers its allocations. A specialized kernel
/// stays on its own (it is faster than any merged register program),
/// and so does a `par` loop (merging would take its region away).
pub fn chain_part(tape: &TapeProgram) -> Result<(usize, &FusedEntry), &'static str> {
    let proven = |l: u32| tape.lins[l as usize].checks.is_none();
    let pc = tape
        .ops
        .iter()
        .position(|op| match *op {
            Op::Const(_) | Op::LoadSlot(_) | Op::StoreSlot(_) | Op::Bin(_) | Op::Un(_) => false,
            Op::Alloc(a) => tape.allocs[a as usize].checked,
            Op::ReadLin(l)
            | Op::StoreLin {
                lin: l,
                checked: false,
            } => !proven(l),
            _ => true,
        })
        .ok_or("no loop")?;
    let Op::VecLoop(k) = tape.ops[pc] else {
        return Err("prefix can fail or has control flow");
    };
    let e = &tape.fused[k as usize];
    let Op::LoopHead { par, .. } = tape.ops[pc + 1] else {
        unreachable!("VecLoop overlays a LoopInit, followed by its LoopHead");
    };
    if e.exit_pc as usize + 1 != tape.ops.len() {
        return Err("ops follow the loop");
    }
    if e.kernel != Kernel::Generic || par {
        return Err("loop runs a specialized kernel or a parallel region");
    }
    Ok((pc, e))
}

/// Append `t`'s access entry `l` to `m`, renaming its array and name
/// into `m`'s tables and its loop register to `m`'s register 0.
fn import_lin(
    m: &mut TapeProgram,
    t: &TapeProgram,
    l: u32,
    ireg: u32,
) -> Result<u32, &'static str> {
    let lin = &t.lins[l as usize];
    if lin.terms.iter().any(|&(r, _)| r != ireg) {
        return Err("access depends on an enclosing loop");
    }
    let intern = |table: &mut Vec<String>, name: &String| {
        let i = table.iter().position(|x| x == name).unwrap_or_else(|| {
            table.push(name.clone());
            table.len() - 1
        });
        i as u32
    };
    let entry = LinEntry {
        array: intern(&mut m.arrays, &t.arrays[lin.array as usize]),
        name: intern(&mut m.names, &t.names[lin.name as usize]),
        base: lin.base,
        terms: lin.terms.iter().map(|&(_, s)| (0, s)).collect(),
        checks: lin.checks.clone(),
    };
    m.lins.push(entry);
    Ok((m.lins.len() - 1) as u32)
}

/// Merge the last loops of a chain of consecutive units' tapes, in chain
/// order, into one fused loop (see [`MergedLoop`]). The caller has
/// proved the merge legal: every loop runs the same range in the same
/// direction, and each unit reads an earlier one's array only at cells
/// that loop wrote at the same or an earlier iteration.
///
/// The body concatenates the loops' bodies, each unit's before the
/// earlier units' when `reverse` (legal when no unit reads a cell an
/// earlier one wrote at the same iteration), so a read of an earlier
/// unit's cell from the previous iteration precedes that unit's store
/// and `register_form` forwards it in a register. One register
/// program holds every store, and its first two carried cells become
/// the [`CompiledBody`]'s two arguments. Each unit's tape stays as it
/// is.
///
/// # Errors
/// The reason the chain cannot merge: a tape not of [`chain_part`]'s
/// shape, different ranges, or a body the register file cannot hold.
pub fn merge_loops(
    tapes: &[&TapeProgram],
    reverse: bool,
) -> Result<(MergedLoop, FuseDecision), &'static str> {
    let loops = tapes
        .iter()
        .map(|t| chain_part(t))
        .collect::<Result<Vec<_>, _>>()?;
    let (pc0, e0) = loops[0];
    let Op::LoopHead { end, .. } = tapes[0].ops[pc0 + 1] else {
        unreachable!("VecLoop overlays a LoopInit, followed by its LoopHead");
    };
    if loops
        .iter()
        .any(|(_, e)| (e.start, e.step, e.trip) != (e0.start, e0.step, e0.trip))
    {
        return Err("loops run different ranges");
    }
    if tapes.iter().any(|t| t.globals != tapes[0].globals) {
        return Err("units see different globals");
    }
    let mut m = TapeProgram {
        globals: tapes[0].globals.clone(),
        ..TapeProgram::default()
    };
    let globals = m.globals.len() as u32;
    // Frame: the globals, the merged loop variable, then body temps.
    let slot = globals;
    let mut frame = slot + 1;
    let mut body = Vec::new();
    let mut order: Vec<usize> = (0..tapes.len()).collect();
    if reverse {
        order.reverse();
    }
    for &u in &order {
        let (t, (_, e)) = (tapes[u], loops[u]);
        let mut temps: Vec<(u32, u32)> = Vec::new();
        for op in &t.ops[e.init_pc as usize + 2..e.exit_pc as usize - 1] {
            body.push(match *op {
                Op::LoadSlot(s) if s < globals => Op::LoadSlot(s),
                Op::LoadSlot(s) if s == e.slot => Op::LoadSlot(slot),
                Op::LoadSlot(s) => match temps.iter().find(|&&(x, _)| x == s) {
                    Some(&(_, to)) => Op::LoadSlot(to),
                    None => return Err("body reads an enclosing binding"),
                },
                Op::StoreSlot(s) if s < globals || s == e.slot => {
                    return Err("body rebinds an enclosing slot")
                }
                Op::StoreSlot(s) => match temps.iter().find(|&&(x, _)| x == s) {
                    Some(&(_, to)) => Op::StoreSlot(to),
                    None => {
                        temps.push((s, frame));
                        frame += 1;
                        Op::StoreSlot(frame - 1)
                    }
                },
                Op::ReadLin(l) => Op::ReadLin(import_lin(&mut m, t, l, e.ireg)?),
                Op::StoreLin { lin, checked } => Op::StoreLin {
                    lin: import_lin(&mut m, t, lin, e.ireg)?,
                    checked,
                },
                ref op => op.clone(),
            });
        }
    }
    let (streams, prog) = register_form(&m, &body, 0, slot, e0.step)?;
    let sum = |f: fn(&FusedEntry) -> u64| loops.iter().map(|(_, e)| f(e)).sum::<u64>();
    m.fused.push(FusedEntry {
        ireg: 0,
        slot,
        start: e0.start,
        step: e0.step,
        trip: e0.trip,
        // No ops: the entry is run directly, never dispatched.
        init_pc: 0,
        exit_pc: 0,
        iter_ops: sum(|e| e.iter_ops),
        loads_per_iter: sum(|e| e.loads_per_iter),
        stores_per_iter: sum(|e| e.stores_per_iter),
        body: Some(Arc::new(CompiledBody::compile(&prog))),
        streams,
        prog,
        kernel: Kernel::Generic,
    });
    m.frame_size = frame as usize;
    m.ireg_count = 1;
    let mut mem = 0u64;
    let mut allocated = Vec::new();
    for (t, &(pc, _)) in tapes.iter().zip(&loops) {
        for op in &t.ops[..pc] {
            if let Op::Alloc(a) = *op {
                let a = &t.allocs[a as usize];
                mem = mem.saturating_add(ArrayBuf::footprint_bytes(&a.bounds, a.checked));
                allocated.push(&t.arrays[a.array as usize]);
            }
        }
    }
    let mut inputs: Vec<String> = Vec::new();
    for name in tapes.iter().flat_map(|t| &t.arrays) {
        if !allocated.contains(&name) && !inputs.contains(name) {
            inputs.push(name.clone());
        }
    }
    let parts = tapes
        .iter()
        .zip(&loops)
        .map(|(t, &(pc, e))| MergedPart {
            stops: (0..t.ops.len()).map(|p| p == pc).collect(),
            iter_ops: e.iter_ops,
            loads_per_iter: e.loads_per_iter,
            stores_per_iter: e.stores_per_iter,
        })
        .collect();
    let decision = FuseDecision {
        var: loop_var(tapes[0], pc0 as u32 + 1),
        start: e0.start,
        end,
        step: e0.step,
        kernel: Some(Kernel::Generic.shape().to_string()),
        reason: None,
    };
    let merged = MergedLoop {
        tape: m,
        parts,
        fuel: e0.trip.saturating_mul(tapes.len() as u64),
        mem,
        inputs,
    };
    Ok((merged, decision))
}

/// Whether a specialized kernel can read operand `a` of a body that
/// stores to stream `dst`: a constant or invariant register, or a
/// stream on another array. The loop variable, temps, stack registers
/// and the destination's array stay on the generic kernel.
fn readable(p: &RegProgram, streams: &[FusedStream], dst: u8, a: Src) -> bool {
    match a {
        Src::Reg(r) => p
            .consts
            .iter()
            .map(|c| c.0)
            .chain(p.invariants.iter().map(|i| i.0))
            .any(|x| x == r),
        Src::Mem(s) => streams[s as usize].array != streams[dst as usize].array,
    }
}

/// A program of binary ops only, as `(op, d, a, b)` with `d` the
/// register the op writes: a store's forward register, [`REG_SINK`]
/// when nothing reads the stored cell back.
fn bin_ops(p: &RegProgram) -> Option<Vec<(BinOp, u8, Src, Src)>> {
    p.ops
        .iter()
        .map(|op| match *op {
            RegOp::Bin { op, d, a, b } => Some((op, d, a, b)),
            RegOp::BinStore { op, a, b, fwd, .. } => Some((op, fwd, a, b)),
            _ => None,
        })
        .collect()
}

/// Classify a body's register program into a hand-written kernel when
/// it matches a known shape with a destination array disjoint from
/// every source array. Streams are classified by *delta* — the
/// per-ordinal offset advance `stride·step` — so backward loops and
/// strided columns classify too: delta 1 walks as a contiguous slice,
/// any other nonzero delta as an explicit strided stream. The operand
/// order and association of the scalar RPN are preserved exactly, so
/// specialized kernels stay bit-identical.
///
/// Loops fused under the `red` verdict take [`classify_reduction`]
/// instead: their bodies *must* read the destination array (the
/// carried accumulator), and any reduction body the specializer does
/// not recognize falls back to [`Kernel::Generic`] — the register
/// program is the reduction arm of last resort, executing iterations
/// strictly in order over raw aliasing-safe views.
fn classify(p: &RegProgram, streams: &[FusedStream], step: i64, red: bool) -> Kernel {
    use BinOp::{Add, Div, Max, Min, Mul, Sub};
    if red {
        return classify_reduction(p, streams, step).unwrap_or(Kernel::Generic);
    }
    // The destination must be a store with nonzero delta (offsets
    // injective in the ordinal) on an array none of the sources touch
    // (lets sources borrow while the destination is written raw;
    // aliasing bodies stay on the generic raw-pointer path).
    let Some(dst) = p.ops.last().and_then(RegOp::stored) else {
        return Kernel::Generic;
    };
    let dd = streams[dst as usize].stride.wrapping_mul(step);
    if dd == 0 {
        return Kernel::Generic;
    }
    let leaf = |a| readable(p, streams, dst, a);
    let stride = |a| match a {
        Src::Mem(s) => streams[s as usize].stride,
        Src::Reg(_) => 0,
    };
    // Every operand readable and one a slice or strided stream.
    let walks = |ops: &[Src]| ops.iter().all(|&a| leaf(a)) && ops.iter().any(|&a| stride(a) != 0);
    let slice = |a| match a {
        Src::Mem(s) if dd == 1 && leaf(a) && stride(a).wrapping_mul(step) == 1 => Some(s),
        _ => None,
    };
    let konst = |a| match a {
        Src::Reg(r) => p.consts.iter().find(|c| c.0 == r).map(|c| c.1),
        Src::Mem(_) => None,
    };
    if let [RegOp::Store { a, .. }] = p.ops[..] {
        return match slice(a) {
            Some(src) => Kernel::Copy { dst, src },
            None if leaf(a) && stride(a) == 0 => Kernel::Fill { dst, val: a },
            None => Kernel::Generic,
        };
    }
    let (r0, r1) = (Src::Reg(0), Src::Reg(1));
    let stencil4 = |s: [Src; 4], c, div| match (s.map(slice), konst(c)) {
        ([Some(s0), Some(s1), Some(s2), Some(s3)], Some(c)) => Kernel::Stencil4 {
            dst,
            s: [s0, s1, s2, s3],
            c,
            div,
        },
        _ => Kernel::Generic,
    };
    let stencil3 = |w: [Src; 3], s: [Src; 3]| match (w.map(konst), s.map(slice)) {
        ([Some(w0), Some(w1), Some(w2)], [Some(s0), Some(s1), Some(s2)]) => Kernel::Stencil3 {
            dst,
            w: [w0, w1, w2],
            s: [s0, s1, s2],
        },
        _ => Kernel::Generic,
    };
    match bin_ops(p).as_deref() {
        Some(&[(op, _, a, b)])
            if matches!(op, Add | Sub | Mul | Div | Min | Max) && walks(&[a, b]) =>
        {
            Kernel::Ewise2 { dst, a, b, op }
        }
        Some(&[(Mul, 0, a, b), (Add, _, x, c)]) if x == r0 && walks(&[a, b, c]) => {
            Kernel::MulAdd { dst, a, b, c }
        }
        Some(
            &[(Add, 0, s0, s1), (Add, 0, x, s2), (Add, 0, y, s3), (op @ (Div | Mul), _, z, c)],
        ) if [x, y, z] == [r0; 3] => stencil4([s0, s1, s2, s3], c, op == Div),
        Some(
            &[(Mul, 0, w0, s0), (Mul, 1, w1, s1), (Add, 0, x, y), (Mul, 1, w2, s2), (Add, _, z, u)],
        ) if [x, y, z, u] == [r0, r1, r0, r1] => stencil3([w0, w1, w2], [s0, s1, s2]),
        _ => Kernel::Generic,
    }
}

/// Classify a reduction-verdict body into a specialized fold kernel.
///
/// The scalar shape is `d[i] = d[i-1] ⊕ e(i)` with `⊕ ∈ {+, min,
/// max}`: its register program ends in a store of `a ⊕ e` whose left
/// operand `a` is the register that same store forwards — the carried
/// cell, *exactly* the one `d` wrote one iteration ago (see
/// [`register_form`]). The accumulator on the **left** is the
/// orientation [`Kernel::Sum`]'s register fold preserves, which is what
/// makes the overlay bit-identical for non-commutative corner cases
/// (`min`/`max` with signed zeros or NaNs).
///
/// `e` must be a pure stream/scalar expression over arrays disjoint
/// from the accumulator array. Anything else — the accumulator on the
/// right, other stores, temps, further reads of the destination —
/// returns `None` and the loop runs the order-faithful generic
/// kernel instead.
fn classify_reduction(p: &RegProgram, streams: &[FusedStream], step: i64) -> Option<Kernel> {
    let Some(&RegOp::BinStore { s: dst, .. }) = p.ops.last() else {
        return None;
    };
    let ops = bin_ops(p)?;
    let (&(op, fwd, acc, e), mid) = ops.split_last()?;
    if acc != Src::Reg(fwd)
        || !matches!(op, BinOp::Add | BinOp::Min | BinOp::Max)
        || streams[dst as usize].stride.wrapping_mul(step) == 0
    {
        return None;
    }
    let leaf = |a| readable(p, streams, dst, a);
    let slice = |a| matches!(a, Src::Mem(s) if streams[s as usize].stride.wrapping_mul(step) == 1);
    match *mid {
        [] if leaf(e) => Some(Kernel::Sum { dst, src: e, op }),
        [(BinOp::Mul, 1, a, b)] if op == BinOp::Add && e == Src::Reg(1) && leaf(a) && leaf(b) => {
            Some(match (a, b) {
                (Src::Mem(x), Src::Mem(y)) if slice(a) && slice(b) => {
                    Kernel::Dot { dst, a: x, b: y }
                }
                _ => Kernel::MulAddAcc { dst, a, b },
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limp::{LProgram, LStmt};
    use crate::tape::{compile_tape, TapeCtx};
    use hac_lang::ast::Expr;

    fn loop_over(par: bool, body: Vec<LStmt>) -> LProgram {
        LProgram {
            stmts: vec![
                LStmt::Alloc {
                    array: "a".into(),
                    bounds: vec![(0, 9)],
                    fill: 0.0,
                    temp: false,
                    checked: false,
                },
                LStmt::For {
                    var: "i".into(),
                    start: 0,
                    end: 9,
                    step: 1,
                    par,
                    red: false,
                    body,
                },
            ],
            result: "a".into(),
        }
    }

    fn store_i_sq() -> Vec<LStmt> {
        vec![LStmt::Store {
            array: "a".into(),
            subs: vec![Expr::Var("i".into())],
            value: Expr::Binary {
                op: BinOp::Mul,
                lhs: Box::new(Expr::Var("i".into())),
                rhs: Box::new(Expr::Var("i".into())),
            },
            check: crate::limp::StoreCheck::None,
        }]
    }

    fn idx(a: &str, s: Expr) -> Expr {
        Expr::Index {
            array: a.into(),
            subs: vec![s],
        }
    }

    /// `a!(i-1)` — the carried accumulator cell.
    fn acc() -> Expr {
        idx("a", Expr::sub(Expr::var("i"), Expr::int(1)))
    }

    fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(l),
            rhs: Box::new(r),
        }
    }

    /// A scan loop `for i in [1..9]: a!i := value` over arrays `a`,
    /// `u`, `v`, carrying the `red` verdict.
    fn scan_over(red: bool, value: Expr) -> LProgram {
        let alloc = |name: &str| LStmt::Alloc {
            array: name.into(),
            bounds: vec![(0, 9)],
            fill: 1.0,
            temp: false,
            checked: false,
        };
        LProgram {
            stmts: vec![
                alloc("a"),
                alloc("u"),
                alloc("v"),
                LStmt::For {
                    var: "i".into(),
                    start: 1,
                    end: 9,
                    step: 1,
                    par: false,
                    red,
                    body: vec![LStmt::Store {
                        array: "a".into(),
                        subs: vec![Expr::var("i")],
                        value,
                        check: crate::limp::StoreCheck::None,
                    }],
                },
            ],
            result: "a".into(),
        }
    }

    /// Compile + fuse, returning the scan loop's kernel shape name (or
    /// the decline reason prefixed with `scalar: `).
    fn scan_kernel(red: bool, value: Expr) -> String {
        kernel_of(&scan_over(red, value))
    }

    /// [`scan_kernel`] under the `par` verdict.
    fn par_kernel(value: Expr) -> String {
        kernel_of(&par(scan_over(false, value)))
    }

    /// Mark `prog`'s last statement — its loop — `par`.
    fn par(mut prog: LProgram) -> LProgram {
        let Some(LStmt::For { par, .. }) = prog.stmts.last_mut() else {
            unreachable!()
        };
        *par = true;
        prog
    }

    fn kernel_of(prog: &LProgram) -> String {
        let mut t = compile_tape(prog, &TapeCtx::default());
        let d = fuse_tape(&mut t);
        assert_eq!(d.len(), 1);
        match (&d[0].kernel, &d[0].reason) {
            (Some(k), _) => k.clone(),
            (None, Some(r)) => format!("scalar: {r}"),
            (None, None) => unreachable!(),
        }
    }

    #[test]
    fn par_bodies_classify_to_their_kernels() {
        let at = |a: &str, off: i64| idx(a, Expr::add(Expr::var("i"), Expr::int(off)));
        let num = Expr::Num;
        let sum4 = bin(
            BinOp::Add,
            bin(
                BinOp::Add,
                bin(BinOp::Add, at("u", -1), at("u", 0)),
                at("v", -1),
            ),
            at("v", 0),
        );
        let weighted = |w: f64, x| bin(BinOp::Mul, num(w), x);
        let cases = [
            ("copy", at("u", 0)),
            ("fill", idx("u", Expr::int(3))),
            ("elementwise", bin(BinOp::Mul, at("u", 0), num(2.5))),
            (
                "multiply-add",
                bin(
                    BinOp::Add,
                    bin(BinOp::Mul, at("u", 0), at("v", 0)),
                    num(1.0),
                ),
            ),
            ("4-point stencil", bin(BinOp::Div, sum4.clone(), num(4.0))),
            ("4-point stencil", bin(BinOp::Mul, sum4, num(0.25))),
            (
                "3-point stencil",
                bin(
                    BinOp::Add,
                    bin(
                        BinOp::Add,
                        weighted(0.25, at("u", -1)),
                        weighted(0.5, at("u", 0)),
                    ),
                    weighted(0.25, at("v", 0)),
                ),
            ),
            // Near misses: the loop variable as an operand, and a
            // source on the destination array.
            (
                "generic micro-kernel",
                bin(BinOp::Add, at("u", 0), Expr::var("i")),
            ),
            (
                "generic micro-kernel",
                bin(BinOp::Mul, at("a", 0), num(2.0)),
            ),
            ("generic micro-kernel", at("a", -1)),
        ];
        for (shape, value) in cases {
            let body = format!("{value:?}");
            assert_eq!(par_kernel(value), shape, "{body}");
        }
        // A fill from an enclosing binding: `let k = 2 in for i: a!i := k`.
        let mut prog = par(scan_over(false, Expr::var("k")));
        let lp = prog.stmts.pop().expect("loop");
        prog.stmts.push(LStmt::Let {
            binds: vec![("k".into(), num(2.0))],
            body: vec![lp],
        });
        assert_eq!(kernel_of(&prog), "fill");
    }

    #[test]
    fn the_highest_priority_decline_is_reported() {
        // `if u!i > 0 then sqrt(u!i) else 0`: a call and a branch; the
        // call ranks first.
        let value = Expr::If {
            cond: Box::new(bin(BinOp::Gt, idx("u", Expr::var("i")), Expr::Num(0.0))),
            then: Box::new(Expr::Call {
                func: "sqrt".into(),
                args: vec![idx("u", Expr::var("i"))],
            }),
            els: Box::new(Expr::Num(0.0)),
        };
        assert_eq!(par_kernel(value), "scalar: function call in body");
    }

    #[test]
    fn prefix_sum_classifies_as_running_sum() {
        let v = bin(BinOp::Add, acc(), idx("u", Expr::var("i")));
        assert_eq!(scan_kernel(true, v), "running sum");
    }

    #[test]
    fn max_scan_classifies_as_running_max() {
        let v = bin(BinOp::Max, acc(), idx("u", Expr::var("i")));
        assert_eq!(scan_kernel(true, v), "running max");
    }

    #[test]
    fn dot_recurrence_classifies_as_dot() {
        let prod = bin(
            BinOp::Mul,
            idx("u", Expr::var("i")),
            idx("v", Expr::var("i")),
        );
        let v = bin(BinOp::Add, acc(), prod);
        assert_eq!(scan_kernel(true, v), "dot");
    }

    #[test]
    fn strided_operand_classifies_as_mul_add_accumulate() {
        // `u!(2i-9)` walks with delta 2 (offsets 0,2,..,16 ⊆ [0,9]
        // rebased): a strided stream, so the dot specialization
        // degrades to the general multiply-add accumulate.
        let stretched = idx(
            "u",
            Expr::sub(
                Expr::bin(BinOp::Mul, Expr::int(2), Expr::var("i")),
                Expr::int(2),
            ),
        );
        let n = 5; // i in [1..5] keeps 2i-2 within [0,9]
        let mut prog = scan_over(
            true,
            bin(
                BinOp::Add,
                acc(),
                bin(BinOp::Mul, stretched, idx("v", Expr::var("i"))),
            ),
        );
        let Some(LStmt::For { end, .. }) = prog.stmts.last_mut() else {
            unreachable!()
        };
        *end = n;
        let mut t = compile_tape(&prog, &TapeCtx::default());
        let d = fuse_tape(&mut t);
        assert_eq!(d[0].kernel.as_deref(), Some("multiply-add accumulate"));
    }

    #[test]
    fn accumulator_on_the_right_falls_back_to_generic() {
        // `u!i + a!(i-1)` folds with the accumulator as the *right*
        // operand — a shape the register kernels cannot reproduce
        // bit-identically, so it runs the order-faithful interpreter.
        let v = bin(BinOp::Add, idx("u", Expr::var("i")), acc());
        assert_eq!(scan_kernel(true, v), "generic micro-kernel");
    }

    #[test]
    fn non_adjacent_carry_falls_back_to_generic() {
        // Reads `a!(i-2)`: not the cell written one iteration ago, so
        // the specialized scan is unsound — generic interpreter.
        let lag2 = idx("a", Expr::sub(Expr::var("i"), Expr::int(2)));
        let mut prog = scan_over(true, bin(BinOp::Add, lag2, idx("u", Expr::var("i"))));
        let Some(LStmt::For { start, .. }) = prog.stmts.last_mut() else {
            unreachable!()
        };
        *start = 2;
        let mut t = compile_tape(&prog, &TapeCtx::default());
        let d = fuse_tape(&mut t);
        assert_eq!(d[0].kernel.as_deref(), Some("generic micro-kernel"));
    }

    #[test]
    fn strided_destination_classifies_as_fill() {
        // `a!(2i) := 7` for i in [0..4] on a par loop: a strided
        // destination window (delta 2) inside bounds (0..=9).
        let prog = LProgram {
            stmts: vec![
                LStmt::Alloc {
                    array: "a".into(),
                    bounds: vec![(0, 9)],
                    fill: 0.0,
                    temp: false,
                    checked: false,
                },
                LStmt::For {
                    var: "i".into(),
                    start: 0,
                    end: 4,
                    step: 1,
                    par: true,
                    red: false,
                    body: vec![LStmt::Store {
                        array: "a".into(),
                        subs: vec![Expr::bin(BinOp::Mul, Expr::int(2), Expr::var("i"))],
                        value: Expr::Num(7.0),
                        check: crate::limp::StoreCheck::None,
                    }],
                },
            ],
            result: "a".into(),
        };
        let mut t = compile_tape(&prog, &TapeCtx::default());
        let d = fuse_tape(&mut t);
        assert_eq!(d[0].kernel.as_deref(), Some("fill"), "{:?}", d[0]);
    }

    #[test]
    fn parallel_affine_loop_fuses() {
        let mut t = compile_tape(&loop_over(true, store_i_sq()), &TapeCtx::default());
        let d = fuse_tape(&mut t);
        assert_eq!(d.len(), 1);
        assert!(d[0].kernel.is_some(), "{:?}", d[0]);
        assert_eq!(t.fused.len(), 1);
        assert!(matches!(t.ops[t.fused[0].init_pc as usize], Op::VecLoop(0)));
        // The scalar loop ops survive intact right after the overlay.
        assert!(matches!(
            t.ops[t.fused[0].init_pc as usize + 1],
            Op::LoopHead { .. }
        ));
    }

    #[test]
    fn sequential_loop_fuses_in_order() {
        // `a!i := a!(i-1)·0.5 + u!i` carries a flow dependence and is
        // neither `par` nor `red`: it runs the in-order interpreter.
        let carried = bin(
            BinOp::Add,
            bin(BinOp::Mul, acc(), Expr::Num(0.5)),
            idx("u", Expr::var("i")),
        );
        let mut t = compile_tape(&scan_over(false, carried), &TapeCtx::default());
        let d = fuse_tape(&mut t);
        assert_eq!(d.len(), 1);
        assert_eq!(
            d[0].render(),
            "for i in [1..9]: fused (generic micro-kernel)"
        );
        assert_eq!(t.fused.len(), 1);
        assert_eq!(t.fused[0].kernel, Kernel::Generic);
        let init = t.fused[0].init_pc as usize;
        assert!(matches!(t.ops[init], Op::VecLoop(0)));
        // The scalar head survives intact right after the overlay.
        assert!(matches!(
            t.ops[init + 1],
            Op::LoopHead {
                par: false,
                red: false,
                ..
            }
        ));
    }

    #[test]
    fn carried_body_that_rebinds_an_enclosing_slot_declines() {
        // `let k = 2 in for i: a!i := k + a!(i-1)`, then patched so the
        // body writes `k` after reading it — a carry through the frame
        // that per-iteration temporaries cannot reproduce. The compiler
        // allocates body bindings above every enclosing slot, so only a
        // hand-edited tape has this shape; the guard must hold anyway.
        let mut prog = scan_over(false, bin(BinOp::Add, Expr::var("k"), acc()));
        let lp = prog.stmts.pop().expect("loop");
        prog.stmts.push(LStmt::Let {
            binds: vec![("k".into(), Expr::Num(2.0))],
            body: vec![lp],
        });
        let mut t = compile_tape(&prog, &TapeCtx::default());
        let init = t
            .ops
            .iter()
            .position(|o| matches!(o, Op::LoopInit { .. }))
            .expect("loop");
        // Body ops: LoadSlot(k) ReadLin Bin(Add) StoreLin. Rewrite the
        // middle to `Const(1) StoreSlot(k)`: same stack depth, but the
        // body now rebinds `k` after reading it.
        let Op::LoadSlot(k) = t.ops[init + 2] else {
            panic!("unexpected body {:?}", &t.ops[init..]);
        };
        assert!(matches!(t.ops[init + 3], Op::ReadLin(_)));
        assert!(matches!(t.ops[init + 4], Op::Bin(BinOp::Add)));
        t.ops[init + 3] = Op::Const(1.0);
        t.ops[init + 4] = Op::StoreSlot(k);
        let d = fuse_tape(&mut t);
        assert_eq!(d.len(), 1);
        assert_eq!(
            d[0].reason.as_deref(),
            Some("body rebinds an enclosing slot")
        );
        assert!(t.fused.is_empty());
        assert!(matches!(t.ops[init], Op::LoopInit { .. }));
    }

    #[test]
    fn pending_reads_are_taken_before_a_store() {
        // `out!i := u!i + out!i; w!i := 2`, then patched so `out!i` is
        // read, the store to it happens, and only then the read is
        // consumed: `w!i` must see the cell's old value. The compiler
        // never leaves a read pending across a store (statements start
        // on an empty stack); the register form must honour it anyway.
        let alloc = |name: &str| LStmt::Alloc {
            array: name.into(),
            bounds: vec![(0, 9)],
            fill: 1.0,
            temp: false,
            checked: false,
        };
        let store = |array: &str, value| LStmt::Store {
            array: array.into(),
            subs: vec![Expr::var("i")],
            value,
            check: crate::limp::StoreCheck::None,
        };
        let prog = LProgram {
            stmts: vec![
                alloc("out"),
                alloc("u"),
                alloc("w"),
                LStmt::For {
                    var: "i".into(),
                    start: 0,
                    end: 9,
                    step: 1,
                    par: false,
                    red: false,
                    body: vec![
                        store(
                            "out",
                            bin(
                                BinOp::Add,
                                idx("u", Expr::var("i")),
                                idx("out", Expr::var("i")),
                            ),
                        ),
                        store("w", Expr::Num(2.0)),
                    ],
                },
            ],
            result: "w".into(),
        };
        let mut scalar = compile_tape(&prog, &TapeCtx::default());
        let init = scalar
            .ops
            .iter()
            .position(|o| matches!(o, Op::LoopInit { .. }))
            .expect("loop");
        // ReadLin(u) ReadLin(out) Bin(Add) StoreLin(out) Const(2)
        // StoreLin(w) → ReadLin(u) ReadLin(out) Const(2) StoreLin(out)
        // Bin(Add) StoreLin(w).
        assert!(matches!(scalar.ops[init + 4], Op::Bin(BinOp::Add)));
        scalar.ops[init + 4..init + 7].rotate_left(1);
        assert!(matches!(scalar.ops[init + 6], Op::Bin(BinOp::Add)));
        scalar.ops[init + 4..init + 6].rotate_left(1);
        assert!(matches!(scalar.ops[init + 4], Op::Const(_)));
        let mut fused = scalar.clone();
        assert_eq!(
            fuse_tape(&mut fused)[0].kernel.as_deref(),
            Some("generic micro-kernel")
        );
        // Both pending reads are written to their registers before the
        // store and added after it, not inlined across it.
        assert_eq!(
            format!(
                "{:?}",
                fused.fused[0].body.as_ref().expect("a generic body")
            ),
            "[r0 := s0, r1 := s1, s1, r16 := r17, s2, r16 := (r0 + r1)]"
        );
        let run = |t: &TapeProgram| {
            let mut vm = crate::limp::Vm::new();
            vm.run_tape(t, 1).unwrap();
            (
                vm.array("out").unwrap().clone(),
                vm.array("w").unwrap().clone(),
            )
        };
        let (out, w) = run(&scalar);
        assert_eq!(out.data(), &[2.0; 10]);
        assert_eq!(w.data(), &[2.0; 10], "u!i + the old out!i");
        assert_eq!(run(&fused), (out, w));
    }

    #[test]
    fn fuse_is_idempotent() {
        let mut t = compile_tape(&loop_over(true, store_i_sq()), &TapeCtx::default());
        let d1 = fuse_tape(&mut t);
        let snapshot = t.clone();
        let d2 = fuse_tape(&mut t);
        assert_eq!(t, snapshot);
        assert_eq!(d1.len(), d2.len());
        assert_eq!(d1[0].render(), d2[0].render());
    }

    #[test]
    fn decision_renders_shape_and_reason() {
        let fused = FuseDecision {
            var: "j".into(),
            start: 2,
            end: 9,
            step: 1,
            kernel: Some("4-point stencil".into()),
            reason: None,
        };
        assert_eq!(fused.render(), "for j in [2..9]: fused (4-point stencil)");
        let scalar = FuseDecision {
            var: "i".into(),
            start: 9,
            end: 0,
            step: -1,
            kernel: None,
            reason: Some("function call in body".into()),
        };
        assert_eq!(
            scalar.render(),
            "for i in [9..0] step -1: scalar (function call in body)"
        );
    }
}
