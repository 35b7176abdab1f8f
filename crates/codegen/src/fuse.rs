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
//! the accounting contract in [`crate::tape`]). Loops whose verdict is
//! `par` (iterations independent) classify common body shapes
//! (fill/copy/elementwise/multiply-add/stencils) to hand-written
//! contiguous-slice kernels that the Rust compiler autovectorizes;
//! `red` loops classify recognized folds to register-accumulator
//! kernels. Everything else — including sequential loops that carry a
//! value through an array from one iteration to the next — runs the
//! generic kernel: the body translated once, here, into a three-address
//! register program ([`register_form`]) that executes iterations
//! strictly in order through aliasing-safe raw views, checks each
//! stream's bounds once per call, keeps a carried cell in a register,
//! and still amortizes dispatch and metering.

use crate::partape::trip_count;
use crate::tape::{
    FusedEntry, FusedStream, KScalar, KSrc, Kernel, Op, RegOp, RegProgram, Src, TapeProgram,
    FUSE_MAX_STACK, FUSE_MAX_TEMPS, REG_FILE, REG_SINK,
};
use hac_lang::ast::{BinOp, UnOp};

/// Micro-op of a fused loop body — the body's RPN with names resolved
/// to streams, invariant slots, and body-local temporaries. The
/// kernel classifiers match on this string, and [`register_form`]
/// translates it for the generic kernel.
#[derive(Debug, Clone, PartialEq)]
enum MicroOp {
    /// Push a constant.
    Const(f64),
    /// Push the fused loop's variable as `f64`.
    LoopVar,
    /// Push a loop-invariant frame slot.
    Invariant(u32),
    /// Push body-local temporary `t`.
    Temp(u8),
    /// Pop into body-local temporary `t`.
    SetTemp(u8),
    /// Push stream `s`'s current element.
    Load(u8),
    /// Pop into stream `s`'s current element.
    Store(u8),
    Bin(BinOp),
    Un(UnOp),
}

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
    let mut pc = 0usize;
    while pc + 1 < tape.ops.len() {
        let (Op::LoopInit { ireg, start }, Op::LoopHead { end, step, .. }) =
            (&tape.ops[pc], &tape.ops[pc + 1])
        else {
            if let (Op::VecLoop(k), Op::LoopHead { end, step, .. }) =
                (&tape.ops[pc], &tape.ops[pc + 1])
            {
                let e = &tape.fused[*k as usize];
                decisions.push(FuseDecision {
                    var: loop_var(tape, (pc + 1) as u32),
                    start: e.start,
                    end: *end,
                    step: *step,
                    kernel: Some(e.kernel.shape().to_string()),
                    reason: None,
                });
            }
            pc += 1;
            continue;
        };
        let (ireg, start, end, step) = (*ireg, *start, *end, *step);
        let var = loop_var(tape, (pc + 1) as u32);
        match try_fuse(tape, pc) {
            Ok(entry) => {
                let shape = entry.kernel.shape().to_string();
                debug_assert_eq!(ireg, entry.ireg);
                let k = tape.fused.len() as u32;
                tape.fused.push(entry);
                tape.ops[pc] = Op::VecLoop(k);
                decisions.push(FuseDecision {
                    var,
                    start,
                    end,
                    step,
                    kernel: Some(shape),
                    reason: None,
                });
            }
            Err(reason) => decisions.push(FuseDecision {
                var,
                start,
                end,
                step,
                kernel: None,
                reason: Some(reason.to_string()),
            }),
        }
        pc += 1;
    }
    decisions
}

fn loop_var(tape: &TapeProgram, head_pc: u32) -> String {
    tape.loop_vars
        .iter()
        .find(|(h, _)| *h == head_pc)
        .map_or_else(|| "?".to_string(), |(_, v)| v.clone())
}

/// Attempt to build a [`FusedEntry`] for the loop whose `LoopInit`
/// sits at `init_pc`. Returns the decline reason otherwise.
#[allow(clippy::too_many_lines)]
fn try_fuse(tape: &TapeProgram, init_pc: usize) -> Result<FusedEntry, &'static str> {
    let Op::LoopInit { ireg, start } = tape.ops[init_pc] else {
        unreachable!("caller matched LoopInit");
    };
    let Op::LoopHead {
        ireg: hreg,
        slot,
        end,
        step,
        exit,
        par,
        red,
    } = tape.ops[init_pc + 1]
    else {
        unreachable!("LoopInit is always followed by its LoopHead");
    };
    debug_assert_eq!(ireg, hreg);
    let exit_pc = exit as usize;
    debug_assert!(matches!(tape.ops[exit_pc - 1], Op::LoopNext { .. }));
    let body = &tape.ops[init_pc + 2..exit_pc - 1];

    // One classification sweep: find the first structural reason the
    // closed-form accounting (and therefore fusion) would be unsound.
    let mut nested = false;
    let mut dynamic = false;
    let mut bounds = false;
    let mut defined = false;
    let mut call = false;
    let mut branch = false;
    let mut unbound = false;
    let mut other = false;
    for op in body {
        match op {
            Op::LoopInit { .. } | Op::LoopHead { .. } | Op::LoopNext { .. } | Op::VecLoop(_) => {
                nested = true;
            }
            Op::ToIdx(_) | Op::ReadDyn { .. } | Op::StoreDyn { .. } => dynamic = true,
            Op::ReadLin(l) => {
                if tape.lins[*l as usize].checks.is_some() {
                    bounds = true;
                }
            }
            Op::StoreLin { lin, checked } => {
                if *checked {
                    defined = true;
                }
                if tape.lins[*lin as usize].checks.is_some() {
                    bounds = true;
                }
            }
            Op::Call { .. } | Op::ResolveFunc(_) => call = true,
            Op::AndJump(_) | Op::OrJump(_) | Op::OrNorm | Op::JumpIfZero(_) | Op::Jump(_) => {
                branch = true;
            }
            Op::ErrVar(_) => unbound = true,
            Op::Alloc(_) | Op::Copy { .. } | Op::CheckComplete { .. } | Op::Halt => other = true,
            Op::Const(_) | Op::LoadSlot(_) | Op::StoreSlot(_) | Op::Bin(_) | Op::Un(_) => {}
        }
    }
    if nested {
        return Err("contains a nested loop; fusion targets innermost loops");
    }
    if dynamic {
        return Err("non-affine subscript takes the dynamic access path");
    }
    if bounds {
        return Err("bounds checks not discharged by the interval proof");
    }
    if defined {
        return Err("definedness checks active on stores");
    }
    if call {
        return Err("function call in body");
    }
    if branch {
        return Err("conditional control flow in body");
    }
    if unbound {
        return Err("unresolved name in body");
    }
    if other {
        return Err("allocation or copy in body");
    }

    // Translate the straight-line body into the micro-op string,
    // resolving slots to the loop variable, invariants, or body-local
    // temporaries, and linear accesses to streams.
    let mut streams: Vec<FusedStream> = Vec::new();
    let mut micro: Vec<MicroOp> = Vec::new();
    let mut slot_temp: Vec<(u32, u8)> = Vec::new();
    let mut invariant_reads: Vec<u32> = Vec::new();
    let mut sp = 0usize;
    let mut max_sp = 0usize;
    let mut loads_per_iter = 0u64;
    let mut stores_per_iter = 0u64;

    let stream_of = |streams: &mut Vec<FusedStream>, l: u32| -> Result<u8, &'static str> {
        let lin = &tape.lins[l as usize];
        let mut stride = 0i64;
        let mut inv = Vec::new();
        for &(r, s) in &lin.terms {
            if r == ireg {
                stride = s;
            } else {
                inv.push((r, s));
            }
        }
        let st = FusedStream {
            array: lin.array,
            base: lin.base,
            inv,
            stride,
        };
        if let Some(i) = streams.iter().position(|x| *x == st) {
            return Ok(i as u8);
        }
        if streams.len() >= 256 {
            return Err("too many distinct access streams");
        }
        streams.push(st);
        Ok((streams.len() - 1) as u8)
    };

    for op in body {
        match op {
            Op::Const(v) => {
                micro.push(MicroOp::Const(*v));
                sp += 1;
            }
            Op::LoadSlot(s) => {
                if *s == slot {
                    micro.push(MicroOp::LoopVar);
                } else if let Some(&(_, t)) = slot_temp.iter().find(|(sl, _)| sl == s) {
                    micro.push(MicroOp::Temp(t));
                } else {
                    invariant_reads.push(*s);
                    micro.push(MicroOp::Invariant(*s));
                }
                sp += 1;
            }
            Op::StoreSlot(s) => {
                if invariant_reads.contains(s) {
                    // A slot first read as loop-invariant then written
                    // would need per-iteration frame traffic.
                    return Err("body rebinds an enclosing slot");
                }
                let t = match slot_temp.iter().find(|(sl, _)| sl == s) {
                    Some(&(_, t)) => t,
                    None => {
                        if slot_temp.len() >= FUSE_MAX_TEMPS {
                            return Err("too many body-local bindings");
                        }
                        let t = slot_temp.len() as u8;
                        slot_temp.push((*s, t));
                        t
                    }
                };
                micro.push(MicroOp::SetTemp(t));
                sp -= 1;
            }
            Op::Bin(b) => {
                micro.push(MicroOp::Bin(*b));
                sp -= 1;
            }
            Op::Un(u) => micro.push(MicroOp::Un(*u)),
            Op::ReadLin(l) => {
                let s = stream_of(&mut streams, *l)?;
                micro.push(MicroOp::Load(s));
                loads_per_iter += 1;
                sp += 1;
            }
            Op::StoreLin { lin, .. } => {
                let s = stream_of(&mut streams, *lin)?;
                micro.push(MicroOp::Store(s));
                stores_per_iter += 1;
                sp -= 1;
            }
            _ => unreachable!("excluded by the classification sweep"),
        }
        max_sp = max_sp.max(sp);
    }
    if max_sp > FUSE_MAX_STACK {
        return Err("body expression too deep for the micro-interpreter");
    }

    // The specialized shapes assume order-independent iterations (or,
    // for `red`, one recognized fold); a carried loop runs the
    // in-order register program, whose reads and writes interleave
    // exactly as the scalar ops do.
    let kernel = if par || red {
        classify(&micro, &streams, step, red)
    } else {
        Kernel::Generic
    };
    let prog = register_form(&micro, &streams, step)?;
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
        loads_per_iter,
        stores_per_iter,
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

/// Translate a body's micro-op string into its [`RegProgram`].
///
/// The operand stack is tracked symbolically: stack depth `k` is
/// register `k`, constants, invariants, the loop variable and temps
/// push the register that holds them (a temp rebound while an earlier
/// read of it is still on the stack first copies that read to its
/// depth register), and a stream read stays a [`Src::Mem`] operand of
/// the op that consumes it unless a store comes in between, which
/// first copies every pending read to its depth register. A store of
/// the value the previous binary op computed merges with it into one
/// [`RegOp::BinStore`].
///
/// A carried cell is forwarded: when a store is the body's only store
/// to its array, a read of the stream that [`reads_previous`] it, made
/// before the store in body order, reads a register the store also
/// writes. That register equals memory there: at entry it is seeded
/// from the cell, and afterwards nothing but that store writes the
/// array.
fn register_form(
    micro: &[MicroOp],
    streams: &[FusedStream],
    step: i64,
) -> Result<RegProgram, &'static str> {
    let stores_to = |array| {
        micro
            .iter()
            .filter(|m| matches!(m, MicroOp::Store(x) if streams[*x as usize].array == array))
            .count()
    };
    // `(load stream, store stream)` pairs that may forward.
    let carried: Vec<(u8, u8)> = micro
        .iter()
        .filter_map(|m| match m {
            MicroOp::Store(d) if stores_to(streams[*d as usize].array) == 1 => {
                let sd = &streams[*d as usize];
                let c = streams.iter().position(|c| reads_previous(c, sd, step))?;
                Some((c as u8, *d))
            }
            _ => None,
        })
        .collect();

    let mut p = RegProgram::default();
    let mut next = usize::from(REG_SINK) + 1;
    let mut fresh = || -> Result<u8, &'static str> {
        if next == REG_FILE {
            return Err("body too large for the register file");
        }
        next += 1;
        Ok((next - 1) as u8)
    };
    let mut temps = [None::<u8>; FUSE_MAX_TEMPS];
    // `(store stream, register)` of each forward in use.
    let mut fwd: Vec<(u8, u8)> = Vec::new();
    let mut stored: Vec<u8> = Vec::new();
    let mut stack: Vec<Src> = Vec::new();
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
    for m in micro {
        let top = match *m {
            MicroOp::Const(v) => {
                let r = match p.consts.iter().find(|(_, c)| c.to_bits() == v.to_bits()) {
                    Some(&(r, _)) => r,
                    None => {
                        let r = fresh()?;
                        p.consts.push((r, v));
                        r
                    }
                };
                Src::Reg(r)
            }
            MicroOp::LoopVar => match p.loop_var {
                Some(r) => Src::Reg(r),
                None => {
                    let r = fresh()?;
                    p.loop_var = Some(r);
                    Src::Reg(r)
                }
            },
            MicroOp::Invariant(slot) => match p.invariants.iter().find(|(_, s)| *s == slot) {
                Some(&(r, _)) => Src::Reg(r),
                None => {
                    let r = fresh()?;
                    p.invariants.push((r, slot));
                    Src::Reg(r)
                }
            },
            MicroOp::Temp(t) => Src::Reg(temps[t as usize].expect("bound before read")),
            MicroOp::SetTemp(t) => {
                let v = stack.pop().expect("balanced body");
                let r = match temps[t as usize] {
                    Some(r) => r,
                    None => *temps[t as usize].insert(fresh()?),
                };
                settle(&mut p, &mut stack, &|e| e == Src::Reg(r));
                p.ops.push(RegOp::Mov { d: r, a: v });
                continue;
            }
            MicroOp::Load(s) => match carried
                .iter()
                .find(|&&(c, d)| c == s && !stored.contains(&d))
            {
                Some(&(_, d)) => match fwd.iter().find(|&&(x, _)| x == d) {
                    Some(&(_, r)) => Src::Reg(r),
                    None => {
                        let r = fresh()?;
                        fwd.push((d, r));
                        p.forwards.push((r, s));
                        Src::Reg(r)
                    }
                },
                None => Src::Mem(s),
            },
            MicroOp::Store(s) => {
                let a = stack.pop().expect("balanced body");
                let fwd_regs: Vec<u8> = fwd.iter().map(|&(_, r)| r).collect();
                settle(&mut p, &mut stack, &|e| match e {
                    Src::Mem(_) => true,
                    Src::Reg(r) => fwd_regs.contains(&r),
                });
                let fwd = fwd
                    .iter()
                    .find(|&&(d, _)| d == s)
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
                stored.push(s);
                continue;
            }
            MicroOp::Bin(op) => {
                let b = stack.pop().expect("balanced body");
                let a = stack.pop().expect("balanced body");
                let d = stack.len() as u8;
                p.ops.push(RegOp::Bin { op, d, a, b });
                Src::Reg(d)
            }
            MicroOp::Un(op) => {
                let a = stack.pop().expect("balanced body");
                let d = stack.len() as u8;
                p.ops.push(RegOp::Un { op, d, a });
                Src::Reg(d)
            }
        };
        stack.push(top);
    }
    Ok(p)
}

/// Classify the micro-op string into a hand-written kernel when it
/// matches a known shape with a destination array disjoint from every
/// source array. Streams are classified by *delta* — the per-ordinal
/// offset advance `stride·step` — so backward loops and strided
/// columns classify too: delta 1 walks as a contiguous slice, any
/// other nonzero delta as an explicit strided stream. The operand
/// order and association of the scalar RPN are preserved exactly, so
/// specialized kernels stay bit-identical.
///
/// Loops fused under the `red` verdict take [`classify_reduction`]
/// instead: their bodies *must* read the destination array (the
/// carried accumulator), and any reduction body the specializer does
/// not recognize falls back to [`Kernel::Generic`] — the register
/// program is the reduction arm of last resort, executing iterations
/// strictly in order over raw aliasing-safe views.
fn classify(micro: &[MicroOp], streams: &[FusedStream], step: i64, red: bool) -> Kernel {
    if red {
        return classify_reduction(micro, streams, step).unwrap_or(Kernel::Generic);
    }
    let stride = |s: u8| streams[s as usize].stride;
    let delta = |s: u8| streams[s as usize].stride.wrapping_mul(step);
    let leaf = |m: &MicroOp| -> Option<KSrc> {
        match m {
            MicroOp::Const(v) => Some(KSrc::Scalar(KScalar::Const(*v))),
            MicroOp::Invariant(s) => Some(KSrc::Scalar(KScalar::Slot(*s))),
            MicroOp::Load(s) if stride(*s) == 0 => Some(KSrc::Scalar(KScalar::Elem(*s))),
            MicroOp::Load(s) if delta(*s) == 1 => Some(KSrc::Slice(*s)),
            MicroOp::Load(s) => Some(KSrc::Strided(*s)),
            _ => None,
        }
    };
    // The destination must be a store with nonzero delta (offsets
    // injective in the ordinal) on an array none of the sources touch
    // (lets sources borrow while the destination is written raw;
    // aliasing bodies stay on the generic raw-pointer path).
    let Some(MicroOp::Store(d)) = micro.last() else {
        return Kernel::Generic;
    };
    let d = *d;
    if delta(d) == 0 {
        return Kernel::Generic;
    }
    let dst_array = streams[d as usize].array;
    let disjoint = |srcs: &[KSrc]| {
        srcs.iter().all(|s| match s {
            KSrc::Slice(x) | KSrc::Strided(x) | KSrc::Scalar(KScalar::Elem(x)) => {
                streams[*x as usize].array != dst_array
            }
            KSrc::Scalar(_) => true,
        })
    };
    let has_slice = |srcs: &[KSrc]| {
        srcs.iter()
            .any(|s| matches!(s, KSrc::Slice(_) | KSrc::Strided(_)))
    };

    match micro {
        [x, MicroOp::Store(_)] => match leaf(x) {
            Some(KSrc::Slice(s)) if streams[s as usize].array != dst_array && delta(d) == 1 => {
                Kernel::Copy { dst: d, src: s }
            }
            Some(KSrc::Scalar(v)) if disjoint(&[KSrc::Scalar(v)]) => {
                Kernel::Fill { dst: d, val: v }
            }
            _ => Kernel::Generic,
        },
        [a, b, MicroOp::Bin(op), MicroOp::Store(_)]
            if matches!(
                op,
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Min | BinOp::Max
            ) =>
        {
            match (leaf(a), leaf(b)) {
                (Some(a), Some(b)) if disjoint(&[a, b]) && has_slice(&[a, b]) => Kernel::Ewise2 {
                    dst: d,
                    a,
                    b,
                    op: *op,
                },
                _ => Kernel::Generic,
            }
        }
        [a, b, MicroOp::Bin(BinOp::Mul), c, MicroOp::Bin(BinOp::Add), MicroOp::Store(_)] => {
            match (leaf(a), leaf(b), leaf(c)) {
                (Some(a), Some(b), Some(c)) if disjoint(&[a, b, c]) && has_slice(&[a, b, c]) => {
                    Kernel::MulAdd { dst: d, a, b, c }
                }
                _ => Kernel::Generic,
            }
        }
        [MicroOp::Load(s0), MicroOp::Load(s1), MicroOp::Bin(BinOp::Add), MicroOp::Load(s2), MicroOp::Bin(BinOp::Add), MicroOp::Load(s3), MicroOp::Bin(BinOp::Add), MicroOp::Const(c), MicroOp::Bin(last), MicroOp::Store(_)]
            if matches!(last, BinOp::Div | BinOp::Mul) =>
        {
            let s = [*s0, *s1, *s2, *s3];
            let srcs: Vec<KSrc> = s.iter().map(|&x| KSrc::Slice(x)).collect();
            if delta(d) == 1 && s.iter().all(|&x| delta(x) == 1) && disjoint(&srcs) {
                Kernel::Stencil4 {
                    dst: d,
                    s,
                    c: *c,
                    div: matches!(last, BinOp::Div),
                }
            } else {
                Kernel::Generic
            }
        }
        [MicroOp::Const(w0), MicroOp::Load(s0), MicroOp::Bin(BinOp::Mul), MicroOp::Const(w1), MicroOp::Load(s1), MicroOp::Bin(BinOp::Mul), MicroOp::Bin(BinOp::Add), MicroOp::Const(w2), MicroOp::Load(s2), MicroOp::Bin(BinOp::Mul), MicroOp::Bin(BinOp::Add), MicroOp::Store(_)] =>
        {
            let s = [*s0, *s1, *s2];
            let srcs: Vec<KSrc> = s.iter().map(|&x| KSrc::Slice(x)).collect();
            if delta(d) == 1 && s.iter().all(|&x| delta(x) == 1) && disjoint(&srcs) {
                Kernel::Stencil3 {
                    dst: d,
                    w: [*w0, *w1, *w2],
                    s,
                }
            } else {
                Kernel::Generic
            }
        }
        _ => Kernel::Generic,
    }
}

/// Classify a reduction-verdict body into a specialized fold kernel.
///
/// The scalar shape is `d[i] = d[i-1] ⊕ e(i)` with `⊕ ∈ {+, min,
/// max}`, compiled to the RPN `[Load(c), e…, Bin(⊕), Store(d)]` where
/// stream `c` reads *exactly* the cell `d` wrote one iteration ago
/// (same array, same stride, same invariant terms, base shifted back
/// by one ordinal delta). The carried load coming **first** means the
/// accumulator is the left operand of `apply_bin` — the orientation
/// [`Kernel::Sum`]'s register fold preserves, which is what makes the
/// overlay bit-identical for non-commutative corner cases (`min`/`max`
/// with signed zeros or NaNs).
///
/// `e` must be a pure stream/scalar expression over arrays disjoint
/// from the accumulator array. Anything else — the accumulator on the
/// right, other stores, temps, further reads of the destination —
/// returns `None` and the loop runs the order-faithful generic
/// kernel instead.
fn classify_reduction(micro: &[MicroOp], streams: &[FusedStream], step: i64) -> Option<Kernel> {
    let delta = |s: u8| streams[s as usize].stride.wrapping_mul(step);
    let [MicroOp::Load(c), mid @ .., MicroOp::Bin(op), MicroOp::Store(d)] = micro else {
        return None;
    };
    let (c, d, op) = (*c, *d, *op);
    if !matches!(op, BinOp::Add | BinOp::Min | BinOp::Max) {
        return None;
    }
    let (sc, sd) = (&streams[c as usize], &streams[d as usize]);
    if delta(d) == 0 || !reads_previous(sc, sd, step) {
        return None;
    }
    let dst_array = sd.array;
    let leaf = |m: &MicroOp| -> Option<KSrc> {
        match m {
            MicroOp::Const(v) => Some(KSrc::Scalar(KScalar::Const(*v))),
            MicroOp::Invariant(s) => Some(KSrc::Scalar(KScalar::Slot(*s))),
            MicroOp::Load(s) if streams[*s as usize].array != dst_array => {
                Some(if streams[*s as usize].stride == 0 {
                    KSrc::Scalar(KScalar::Elem(*s))
                } else if delta(*s) == 1 {
                    KSrc::Slice(*s)
                } else {
                    KSrc::Strided(*s)
                })
            }
            _ => None,
        }
    };
    match mid {
        [x] => leaf(x).map(|src| Kernel::Sum { dst: d, src, op }),
        [a, b, MicroOp::Bin(BinOp::Mul)] if op == BinOp::Add => {
            let (ka, kb) = (leaf(a)?, leaf(b)?);
            if let (KSrc::Slice(a), KSrc::Slice(b)) = (ka, kb) {
                Some(Kernel::Dot { dst: d, a, b })
            } else {
                Some(Kernel::MulAddAcc {
                    dst: d,
                    a: ka,
                    b: kb,
                })
            }
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
        let mut t = compile_tape(&scan_over(red, value), &TapeCtx::default());
        let d = fuse_tape(&mut t);
        assert_eq!(d.len(), 1);
        match (&d[0].kernel, &d[0].reason) {
            (Some(k), _) => k.clone(),
            (None, Some(r)) => format!("scalar: {r}"),
            (None, None) => unreachable!(),
        }
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
        let run = |t: &TapeProgram| {
            let mut vm = crate::limp::Vm::new();
            vm.run_tape(t).unwrap();
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
