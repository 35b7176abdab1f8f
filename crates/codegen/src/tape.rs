//! The register-slot bytecode tape: the Limp VM's compile-once
//! execution engine.
//!
//! [`compile_tape`] flattens a whole [`LProgram`] — statements *and*
//! expressions — into one linear [`Op`] sequence in evaluation order,
//! resolving every name at compile time:
//!
//! * scalar variables become frame-slot indices into a flat `Vec<f64>`
//!   (globals first, then lexically scoped locals; loop variables also
//!   get a parallel `i64` register so subscript arithmetic never
//!   round-trips through floats),
//! * arrays become dense [`ArrayId`]s into a `Vec<ArrayBuf>` slot
//!   table, with in-place-update aliases canonicalized so both names
//!   share one id,
//! * functions become indices into a table resolved once per run.
//!
//! Affine subscripts over loop variables are strength-reduced into
//! precomputed row-major strides: when the compile-time interval of
//! every dimension (loop ranges are constant in Limp) fits inside the
//! array's bounds, an n-dimensional access executes as one fused
//! `base + Σ stride_k·i_k` offset with no checks and no per-access
//! allocation; otherwise a per-dimension checked linear form preserves
//! the tree-walker's exact out-of-bounds behaviour. Constant
//! subexpressions fold at compile time.
//!
//! Name resolution failures are compiled to *lazy* error ops
//! ([`Op::ErrVar`] etc.) so that, exactly like the tree-walking
//! evaluator, an unbound name only faults if it is actually evaluated.
//!
//! The interpreter ([`TapeProgram::exec`]) is a non-recursive dispatch
//! loop over a reusable operand stack; all scratch (operand stack,
//! subscript stack, slot frame, loop registers) is preallocated in
//! [`TapeScratch`] and reused across runs, so the inner loop performs
//! no heap allocation.
//!
//! A fused loop ([`Op::VecLoop`]) runs as one kernel. Loops that no
//! hand-written kernel matches, every carried loop among them, run the
//! generic kernel: their [`RegProgram`] compiled once, at fuse time,
//! into a [`CompiledBody`] of closures, one step per store. A body's
//! first two forwarded carried cells are the closures' `f64` arguments,
//! so a recurrence's carried chain stays in CPU registers, and the kernel
//! asserts each stream's window once per call before its closures read
//! and write memory unchecked.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use hac_lang::ast::{BinOp, Expr, UnOp};
use hac_runtime::error::RuntimeError;
use hac_runtime::governor::Meter;
use hac_runtime::value::{apply_bin, apply_un, as_int, ArrayBuf};

use crate::limp::{unravel, LProgram, LStmt, StoreCheck, VmCounters};

/// Dense index into the tape's array slot table.
pub type ArrayId = u32;

/// A resolved host function (builtin or user-registered).
pub type HostFn = fn(&[f64]) -> f64;

/// One bytecode instruction. Expression ops operate on the `f64`
/// operand stack; subscripts travel on a separate `i64` index stack.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Push a constant.
    Const(f64),
    /// Push a frame slot.
    LoadSlot(u32),
    /// Lazy error: the named variable had no binding at compile time.
    ErrVar(u32),
    /// Pop `r`, `l`; push `apply_bin(op, l, r)`.
    Bin(BinOp),
    /// Pop `v`; push the unary application.
    Un(UnOp),
    /// `&&`: pop `l`; if `l == 0.0` push `0.0` and jump (the rhs is
    /// skipped), else fall through to the rhs ops (whose raw value is
    /// the result, as in the tree-walker).
    AndJump(u32),
    /// `||`: pop `l`; if `l != 0.0` push `1.0` and jump, else fall
    /// through to the rhs ops followed by [`Op::OrNorm`].
    OrJump(u32),
    /// Pop `r`; push `1.0` if `r != 0.0` else `0.0`.
    OrNorm,
    /// Pop `c`; jump when `c == 0.0`.
    JumpIfZero(u32),
    /// Unconditional jump.
    Jump(u32),
    /// Lazy error: fail `UnknownFunction` *before* argument evaluation
    /// when the function resolved to nothing at run start.
    ResolveFunc(u32),
    /// Pop `argc` arguments (contiguous on the operand stack); push the
    /// result of function-table entry `func`.
    Call { func: u32, argc: u32 },
    /// Pop an `f64`, coerce to an integer subscript (error parity with
    /// `as_int`), push onto the index stack. `name` is the array
    /// spelling for the error message.
    ToIdx(u32),
    /// Pop `rank` subscripts from the index stack; push the element.
    ReadDyn {
        array: ArrayId,
        name: u32,
        rank: u32,
    },
    /// Push the element at a strength-reduced linear access.
    ReadLin(u32),
    /// Pop into a frame slot (`let` bindings).
    StoreSlot(u32),

    /// Allocate per the indexed [`AllocEntry`].
    Alloc(u32),
    /// Set a loop register to its start value.
    LoopInit { ireg: u32, start: i64 },
    /// Loop test: exit when past `end`, else count the iteration and
    /// publish the register into the loop variable's frame slot.
    LoopHead {
        ireg: u32,
        slot: u32,
        end: i64,
        step: i64,
        exit: u32,
        /// §10 verdict carried from the plan: iterations are mutually
        /// independent (see [`crate::partape`]), so the fuser may
        /// pick an order-independent specialized kernel. Ignored by
        /// the sequential dispatcher.
        par: bool,
        /// Reduction verdict: the only carried dependence is a
        /// reassociable accumulator recurrence, so the fuser may
        /// overlay a strict left-to-right fold kernel. Ignored by the
        /// sequential dispatcher.
        red: bool,
    },
    /// Advance the loop register and jump back to the head.
    LoopNext { ireg: u32, step: i64, head: u32 },
    /// Pop the value, then `rank` subscripts; store (with optional
    /// monolithic definedness check).
    StoreDyn {
        array: ArrayId,
        name: u32,
        rank: u32,
        checked: bool,
    },
    /// Pop the value; store through a strength-reduced linear access.
    StoreLin { lin: u32, checked: bool },
    /// Clone `src`'s buffer into `dst` (element-counted).
    Copy {
        dst: ArrayId,
        src: ArrayId,
        src_name: u32,
    },
    /// Verify every element of a checked array is defined.
    CheckComplete { array: ArrayId, name: u32 },
    /// Fused vector superinstruction (index into
    /// [`TapeProgram::fused`]): an innermost loop whose body is
    /// straight-line arithmetic over unchecked linear accesses,
    /// executed as one loop-level kernel. The fusion pass
    /// overlays this on the loop's `LoopInit` only — the scalar
    /// `LoopHead`/body/`LoopNext` ops stay in place immediately after,
    /// so when a run-time precondition fails (an unbound buffer) the
    /// dispatcher simply performs the init and falls through to the
    /// untouched scalar loop.
    VecLoop(u32),
    /// End of program.
    Halt,
}

/// One access stream of a fused loop: offset `base + Σ aᵣ·iregᵣ +
/// stride·i`, where the `inv` registers belong to enclosing loops
/// (constant for the duration of one kernel run) and `i` is the fused
/// loop's register. Streams only exist for accesses whose bounds
/// checks were discharged at compile time (`LinEntry::checks: None`).
#[derive(Debug, Clone, PartialEq)]
pub struct FusedStream {
    pub array: ArrayId,
    pub base: i64,
    /// `(enclosing-loop register, stride)` terms.
    pub inv: Vec<(u32, i64)>,
    /// Coefficient of the fused loop's own register.
    pub stride: i64,
}

/// An operand of a [`RegOp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Src {
    /// Register `r` of the kernel's register file.
    Reg(u8),
    /// Stream `s`'s element at the current ordinal, read from memory
    /// when the consuming op runs.
    Mem(u8),
}

/// One three-address op of a fused loop's [`RegProgram`]. `d` names
/// the destination register; every operand is a [`Src`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegOp {
    /// `d = a op b`: `+ − × ÷` inline, every other operator through
    /// `apply_bin`.
    Bin {
        op: BinOp,
        d: u8,
        a: Src,
        b: Src,
    },
    /// Through `apply_un`.
    Un {
        op: UnOp,
        d: u8,
        a: Src,
    },
    Mov {
        d: u8,
        a: Src,
    },
    /// Write `a` to stream `s`'s element and to register `fwd` (the
    /// forwarded carried cell, or [`REG_SINK`] when nothing reads it).
    Store {
        s: u8,
        a: Src,
        fwd: u8,
    },
    /// `Bin` whose result goes straight to a `Store`.
    BinStore {
        op: BinOp,
        a: Src,
        b: Src,
        s: u8,
        fwd: u8,
    },
}

impl RegOp {
    /// The op's operands, left to right.
    fn srcs(&self) -> impl Iterator<Item = Src> {
        let (a, b) = match *self {
            RegOp::Bin { a, b, .. } | RegOp::BinStore { a, b, .. } => (a, Some(b)),
            RegOp::Un { a, .. } | RegOp::Mov { a, .. } | RegOp::Store { a, .. } => (a, None),
        };
        [Some(a), b].into_iter().flatten()
    }

    /// The register the op writes: `d`, or a store's `fwd`.
    fn dest(&self) -> u8 {
        match *self {
            RegOp::Bin { d, .. } | RegOp::Un { d, .. } | RegOp::Mov { d, .. } => d,
            RegOp::Store { fwd, .. } | RegOp::BinStore { fwd, .. } => fwd,
        }
    }

    /// The stream a `Store` / `BinStore` writes.
    pub fn stored(&self) -> Option<u8> {
        match *self {
            RegOp::Store { s, .. } | RegOp::BinStore { s, .. } => Some(s),
            RegOp::Bin { .. } | RegOp::Un { .. } | RegOp::Mov { .. } => None,
        }
    }

    /// The streams this op reads from memory.
    pub fn mem_reads(&self) -> impl Iterator<Item = u8> {
        self.srcs().filter_map(|x| match x {
            Src::Mem(s) => Some(s),
            Src::Reg(_) => None,
        })
    }
}

/// The register form of a fused loop body, run once per iteration by
/// the generic kernel. Registers `0..FUSE_MAX_STACK` hold the scalar
/// operand stack by depth, [`REG_SINK`] absorbs unforwarded stores,
/// and the registers above it are seeded at kernel entry (constants,
/// loop invariants, forwarded cells), written once per iteration (the
/// loop variable), or bound by the body (temporaries).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegProgram {
    pub ops: Vec<RegOp>,
    /// `(register, value)`: the constant pool.
    pub consts: Vec<(u8, f64)>,
    /// `(register, frame slot)`: enclosing bindings, read once per
    /// kernel call.
    pub invariants: Vec<(u8, u32)>,
    /// The register holding the loop variable, when the body reads it.
    pub loop_var: Option<u8>,
    /// `(register, load stream)`: carried cells. The stream reads the
    /// cell the body's only store to its array wrote one ordinal
    /// earlier; the register is seeded from memory at entry and then
    /// written by that store, and every read of the stream before the
    /// store reads the register instead of memory.
    pub forwards: Vec<(u8, u8)>,
}

/// Registers in a [`RegProgram`]'s file (indices are `u8`).
pub const REG_FILE: usize = 256;
/// The register unforwarded stores write.
pub const REG_SINK: u8 = FUSE_MAX_STACK as u8;

/// The kernel shape a fused loop lowers to. Specialized shapes are
/// hand-written contiguous-slice loops (autovectorizable); everything
/// else runs the entry's [`RegProgram`] as its [`CompiledBody`], which
/// still amortizes dispatch, metering, and counter traffic over the
/// whole loop.
///
/// Operands are the register program's: a [`Src::Reg`] of its constant
/// pool or invariants, or a [`Src::Mem`] stream, resolved once per call
/// as a broadcast (stride 0), a contiguous slice (`stride·step == 1`)
/// or a strided walk (`off(q) = off₀ + q·stride·step`, e.g. a column
/// of a row-major matrix).
#[derive(Debug, Clone, PartialEq)]
pub enum Kernel {
    /// Run the compiled register program per element, iterations
    /// strictly in order — the kernel of every carried (sequential)
    /// loop.
    Generic,
    /// `d[i] = k`
    Fill { dst: u8, val: Src },
    /// `d[i] = s[i]`
    Copy { dst: u8, src: u8 },
    /// `d[i] = a[i] op b[i]` (either side may broadcast).
    Ewise2 { dst: u8, a: Src, b: Src, op: BinOp },
    /// `d[i] = a[i]·b[i] + c[i]` (any operand may broadcast).
    MulAdd { dst: u8, a: Src, b: Src, c: Src },
    /// `d[i] = (((s0[i]+s1[i])+s2[i])+s3[i]) ÷ c` (or `· c`): the
    /// four-point relaxation stencil of §2.
    Stencil4 {
        dst: u8,
        s: [u8; 4],
        c: f64,
        div: bool,
    },
    /// `d[i] = (w0·s0[i] + w1·s1[i]) + w2·s2[i]`: the weighted
    /// three-point stencil.
    Stencil3 { dst: u8, w: [f64; 3], s: [u8; 3] },
    /// `d[i] = acc ⊕= s(i)` — a running fold (prefix scan) whose
    /// accumulator is the destination cell written one iteration ago,
    /// kept in a register across the whole kernel. `⊕ ∈ {+, min,
    /// max}`; the fold is executed strictly left-to-right with the
    /// accumulator as the *left* operand, exactly like the scalar
    /// tape, so no FP operation is reordered or reassociated.
    Sum { dst: u8, src: Src, op: BinOp },
    /// `d[i] = acc += a[i]·b[i]` over two contiguous streams: the
    /// dot-product recurrence.
    Dot { dst: u8, a: u8, b: u8 },
    /// `d[i] = acc += a(i)·b(i)` with arbitrary operand streams (the
    /// matmul inner loop — one operand walks a strided column).
    MulAddAcc { dst: u8, a: Src, b: Src },
}

impl Kernel {
    /// Short shape name for reports.
    pub fn shape(&self) -> &'static str {
        match self {
            Kernel::Generic => "generic micro-kernel",
            Kernel::Fill { .. } => "fill",
            Kernel::Copy { .. } => "copy",
            Kernel::Ewise2 { .. } => "elementwise",
            Kernel::MulAdd { .. } => "multiply-add",
            Kernel::Stencil4 { .. } => "4-point stencil",
            Kernel::Stencil3 { .. } => "3-point stencil",
            Kernel::Sum { op: BinOp::Min, .. } => "running min",
            Kernel::Sum { op: BinOp::Max, .. } => "running max",
            Kernel::Sum { .. } => "running sum",
            Kernel::Dot { .. } => "dot",
            Kernel::MulAddAcc { .. } => "multiply-add accumulate",
        }
    }
}

/// A fused loop: everything [`Op::VecLoop`] needs to run the loop as a
/// bulk kernel while remaining observationally identical to the scalar
/// ops it overlays (which sit untouched at `init_pc + 1 ..= exit_pc -
/// 1` as the fallback/oracle path).
#[derive(Debug, Clone, PartialEq)]
pub struct FusedEntry {
    pub ireg: u32,
    /// The loop variable's frame slot (published per §10 loop
    /// semantics; the kernel only writes the final value).
    pub slot: u32,
    pub start: i64,
    pub step: i64,
    /// Trip count (loop ranges are compile-time constants in Limp).
    pub trip: u64,
    /// pc of the overlaid `LoopInit` (where the `VecLoop` op sits).
    pub init_pc: u32,
    /// First op after the loop (the head's exit target).
    pub exit_pc: u32,
    /// Scalar tape ops per complete iteration: head + body + next.
    pub iter_ops: u64,
    pub loads_per_iter: u64,
    pub stores_per_iter: u64,
    pub streams: Vec<FusedStream>,
    /// The body in register form: [`Kernel::Generic`] runs it as
    /// `body`, and the specialized kernels read its constant pool and
    /// invariants for their register operands.
    pub prog: RegProgram,
    pub kernel: Kernel,
    /// `prog` compiled to closures for [`Kernel::Generic`] (`None` for
    /// the specialized kernels). Built once, at fuse time, and shared
    /// by every clone of the tape; it is a pure function of `prog`, so
    /// entry equality compares `prog` alone.
    pub body: Option<Arc<CompiledBody>>,
}

/// A strength-reduced array access: all subscripts are affine in loop
/// registers, with strides folded in at compile time.
#[derive(Debug, Clone, PartialEq)]
pub struct LinEntry {
    /// Storage slot.
    pub array: ArrayId,
    /// Spelled name (error messages).
    pub name: u32,
    /// Fused constant offset (includes the `-lo·stride` terms).
    pub base: i64,
    /// `(loop register, fused row-major stride)` terms.
    pub terms: Vec<(u32, i64)>,
    /// Per-dimension check forms, or `None` when the interval analysis
    /// proved every access in bounds (checks hoisted out entirely).
    pub checks: Option<Vec<LinDim>>,
}

/// One dimension of a checked linear access.
#[derive(Debug, Clone, PartialEq)]
pub struct LinDim {
    /// Constant part of the dimension's affine subscript.
    pub c: i64,
    /// `(loop register, coefficient)` terms.
    pub terms: Vec<(u32, i64)>,
    /// Declared dimension bounds.
    pub lo: i64,
    /// Declared dimension bounds.
    pub hi: i64,
}

impl LinDim {
    #[inline]
    fn value(&self, iregs: &[i64]) -> i64 {
        let mut v = self.c;
        for &(r, a) in &self.terms {
            v = v.wrapping_add(a.wrapping_mul(iregs[r as usize]));
        }
        v
    }
}

/// A compiled allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocEntry {
    pub array: ArrayId,
    pub bounds: Vec<(i64, i64)>,
    pub fill: f64,
    pub temp: bool,
    pub checked: bool,
}

/// Compile-time context: everything the tape compiler resolves so the
/// VM does not have to.
#[derive(Debug, Clone, Default)]
pub struct TapeCtx {
    /// Known shapes of arrays bound before this program runs (inputs
    /// and earlier bindings). Arrays allocated inside the program get
    /// their shapes from their `Alloc` statements.
    pub shapes: HashMap<String, Vec<(i64, i64)>>,
    /// Name aliases (in-place `bigupd`: result name → base name). Both
    /// names canonicalize to one [`ArrayId`] so in-place mutation works.
    pub aliases: HashMap<String, String>,
    /// Compile-time integer constants (program parameters): folded
    /// directly into the tape.
    pub consts: HashMap<String, i64>,
    /// Runtime global scalars the VM will bind before execution
    /// (earlier reduction results), in binding order. These occupy the
    /// first frame slots.
    pub globals: Vec<String>,
}

/// A compiled tape, ready to execute any number of times.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TapeProgram {
    pub ops: Vec<Op>,
    /// Interned spellings for lazy error reporting.
    pub names: Vec<String>,
    /// Canonical array names, indexed by [`ArrayId`]. The executor
    /// binds each to a buffer slot before the first instruction.
    pub arrays: Vec<String>,
    /// Function names, resolved once per run.
    pub funcs: Vec<String>,
    pub lins: Vec<LinEntry>,
    pub allocs: Vec<AllocEntry>,
    /// Expected runtime globals; slot `i` holds `globals[i]`.
    pub globals: Vec<String>,
    /// Fused loops, indexed by [`Op::VecLoop`]. Empty until the fusion
    /// pass ([`crate::fuse::fuse_tape`]) runs; the scalar tape is the
    /// differential oracle and stays fully intact either way.
    pub fused: Vec<FusedEntry>,
    /// `(LoopHead pc, loop variable spelling)` in source order — lets
    /// the fusion pass report decisions per loop by name.
    pub loop_vars: Vec<(u32, String)>,
    /// Total frame slots (globals + deepest local scope).
    pub frame_size: usize,
    /// Loop registers.
    pub ireg_count: usize,
    /// Operand-stack high-water mark (preallocation).
    pub max_stack: usize,
    /// Index-stack high-water mark (preallocation).
    pub max_idx: usize,
}

/// Reusable per-run storage: preallocated once, reused across runs, so
/// the dispatch loop never touches the allocator.
#[derive(Debug, Clone, Default)]
pub struct TapeScratch {
    pub frame: Vec<f64>,
    pub iregs: Vec<i64>,
    pub stack: Vec<f64>,
    pub idx: Vec<i64>,
}

/// Mutable execution state threaded through [`TapeProgram::exec`].
pub struct TapeState<'a> {
    /// Buffer slots, indexed by [`ArrayId`]; `None` = not (yet) bound.
    pub bufs: &'a mut [Option<ArrayBuf>],
    /// Definedness bitmaps for checked arrays, indexed by [`ArrayId`].
    pub defined: &'a mut [Option<Vec<bool>>],
    /// Resolved function table (parallel to `TapeProgram::funcs`).
    pub funcs: &'a [Option<HostFn>],
    pub scratch: &'a mut TapeScratch,
    pub counters: &'a mut VmCounters,
    /// Fuel/memory budget, charged at loop heads, call sites, and
    /// allocations — the same points, in the same order, as the
    /// tree-walking VM.
    pub meter: &'a mut Meter,
}

impl TapeProgram {
    /// Size the scratch and fill global slots from the VM's bindings
    /// (later bindings shadow earlier ones, as in the scalar stack).
    pub fn prepare(&self, scratch: &mut TapeScratch, globals: &[(String, f64)]) {
        scratch.frame.clear();
        scratch.frame.resize(self.frame_size, 0.0);
        for (slot, gname) in self.globals.iter().enumerate() {
            if let Some((_, v)) = globals.iter().rev().find(|(n, _)| n == gname) {
                scratch.frame[slot] = *v;
            }
        }
        scratch.iregs.clear();
        scratch.iregs.resize(self.ireg_count, 0);
        scratch.stack.clear();
        scratch.stack.reserve(self.max_stack);
        scratch.idx.clear();
        scratch.idx.reserve(self.max_idx);
    }

    /// Execute the tape.
    ///
    /// # Errors
    /// Exactly the tree-walking VM's failures: unbound names, bad
    /// subscripts, out-of-bounds accesses, collisions, and incomplete
    /// checked arrays — raised lazily, only when the faulting
    /// instruction is reached.
    pub fn exec(&self, st: &mut TapeState<'_>) -> Result<(), RuntimeError> {
        let mut tape_ops = 0u64;
        let r = self.dispatch(st, &mut tape_ops);
        st.counters.tape_ops += tape_ops;
        r
    }

    fn dispatch(&self, st: &mut TapeState<'_>, tape_ops: &mut u64) -> Result<(), RuntimeError> {
        // STOPS = false compiles the interception check away: the
        // sequential engine pays nothing for the parallel machinery.
        self.dispatch_inner::<false>(st, tape_ops, 0, &[])
            .map(|_| ())
    }

    /// Run from `start` until a pc with `stops[pc]` set is *reached*
    /// (the stopped op is neither fetched nor counted) or the tape
    /// halts. Returns the stop pc, or `ops.len()` on [`Op::Halt`].
    /// `stops` must have one entry per op. Used by the parallel engine
    /// to intercept parallelizable loop regions while executing
    /// everything between them on the exact sequential path.
    ///
    /// # Errors
    /// Same failures as [`TapeProgram::exec`].
    pub(crate) fn dispatch_until(
        &self,
        st: &mut TapeState<'_>,
        tape_ops: &mut u64,
        start: usize,
        stops: &[bool],
    ) -> Result<usize, RuntimeError> {
        debug_assert_eq!(stops.len(), self.ops.len());
        self.dispatch_inner::<true>(st, tape_ops, start, stops)
    }

    #[allow(clippy::too_many_lines)]
    fn dispatch_inner<const STOPS: bool>(
        &self,
        st: &mut TapeState<'_>,
        tape_ops: &mut u64,
        start: usize,
        stops: &[bool],
    ) -> Result<usize, RuntimeError> {
        let ops = &self.ops[..];
        let TapeScratch {
            frame,
            iregs,
            stack,
            idx,
        } = st.scratch;
        let mut pc = start;
        loop {
            if STOPS && stops[pc] {
                return Ok(pc);
            }
            let op = &ops[pc];
            *tape_ops += 1;
            pc += 1;
            match op {
                Op::Const(v) => stack.push(*v),
                Op::LoadSlot(s) => stack.push(frame[*s as usize]),
                Op::ErrVar(n) => {
                    return Err(RuntimeError::UnboundVariable(
                        self.names[*n as usize].clone(),
                    ))
                }
                Op::Bin(bop) => {
                    let r = stack.pop().expect("operand");
                    let l = stack.pop().expect("operand");
                    stack.push(apply_bin(*bop, l, r));
                }
                Op::Un(uop) => {
                    let v = stack.pop().expect("operand");
                    stack.push(apply_un(*uop, v));
                }
                Op::AndJump(t) => {
                    let l = stack.pop().expect("operand");
                    if l == 0.0 {
                        stack.push(0.0);
                        pc = *t as usize;
                    }
                }
                Op::OrJump(t) => {
                    let l = stack.pop().expect("operand");
                    if l != 0.0 {
                        stack.push(1.0);
                        pc = *t as usize;
                    }
                }
                Op::OrNorm => {
                    let r = stack.pop().expect("operand");
                    stack.push(if r != 0.0 { 1.0 } else { 0.0 });
                }
                Op::JumpIfZero(t) => {
                    let c = stack.pop().expect("operand");
                    if c == 0.0 {
                        pc = *t as usize;
                    }
                }
                Op::Jump(t) => pc = *t as usize,
                Op::ResolveFunc(f) => {
                    if st.funcs[*f as usize].is_none() {
                        return Err(RuntimeError::UnknownFunction(
                            self.funcs[*f as usize].clone(),
                        ));
                    }
                }
                Op::Call { func, argc } => {
                    st.meter.charge_fuel()?;
                    let f = st.funcs[*func as usize].expect("resolved by ResolveFunc");
                    let at = stack.len() - *argc as usize;
                    let v = f(&stack[at..]);
                    stack.truncate(at);
                    stack.push(v);
                }
                Op::ToIdx(n) => {
                    let v = stack.pop().expect("operand");
                    idx.push(as_int(&self.names[*n as usize], v)?);
                }
                Op::ReadDyn { array, name, rank } => {
                    let at = idx.len() - *rank as usize;
                    let name = &self.names[*name as usize];
                    let buf = st.bufs[*array as usize]
                        .as_ref()
                        .ok_or_else(|| RuntimeError::UnboundArray(name.clone()))?;
                    st.counters.loads += 1;
                    let v = buf.get(name, &idx[at..])?;
                    idx.truncate(at);
                    stack.push(v);
                }
                Op::ReadLin(l) => {
                    let lin = &self.lins[*l as usize];
                    let buf = st.bufs[lin.array as usize].as_ref().ok_or_else(|| {
                        RuntimeError::UnboundArray(self.names[lin.name as usize].clone())
                    })?;
                    st.counters.loads += 1;
                    let off = lin_offset(lin, iregs, &self.names)?;
                    stack.push(buf.linear(off));
                }
                Op::StoreSlot(s) => frame[*s as usize] = stack.pop().expect("operand"),
                Op::Alloc(a) => {
                    let entry = &self.allocs[*a as usize];
                    st.meter
                        .charge_mem(ArrayBuf::footprint_bytes(&entry.bounds, entry.checked))?;
                    let buf = ArrayBuf::new(&entry.bounds, entry.fill);
                    st.counters.array_allocs += 1;
                    if entry.temp {
                        st.counters.temp_elements += buf.len() as u64;
                    }
                    if entry.checked {
                        st.defined[entry.array as usize] = Some(vec![false; buf.len()]);
                    }
                    st.bufs[entry.array as usize] = Some(buf);
                }
                Op::LoopInit { ireg, start } => iregs[*ireg as usize] = *start,
                Op::LoopHead {
                    ireg,
                    slot,
                    end,
                    step,
                    exit,
                    par: _,
                    red: _,
                } => {
                    let i = iregs[*ireg as usize];
                    if (*step > 0 && i > *end) || (*step < 0 && i < *end) {
                        pc = *exit as usize;
                    } else {
                        st.meter.charge_fuel()?;
                        st.counters.loop_iterations += 1;
                        frame[*slot as usize] = i as f64;
                    }
                }
                Op::LoopNext { ireg, step, head } => {
                    iregs[*ireg as usize] += *step;
                    pc = *head as usize;
                }
                Op::StoreDyn {
                    array,
                    name,
                    rank,
                    checked,
                } => {
                    let v = stack.pop().expect("operand");
                    let at = idx.len() - *rank as usize;
                    let name = &self.names[*name as usize];
                    if *checked {
                        st.counters.check_ops += 1;
                        let buf = st.bufs[*array as usize]
                            .as_ref()
                            .ok_or_else(|| RuntimeError::UnboundArray(name.clone()))?;
                        let off =
                            buf.offset(&idx[at..])
                                .ok_or_else(|| RuntimeError::OutOfBounds {
                                    array: name.clone(),
                                    index: idx[at..].to_vec(),
                                    bounds: buf.bounds(),
                                })?;
                        let d = st.defined[*array as usize]
                            .as_mut()
                            .expect("checked store requires checked alloc");
                        if d[off] {
                            return Err(RuntimeError::WriteCollision {
                                array: name.clone(),
                                index: idx[at..].to_vec(),
                            });
                        }
                        d[off] = true;
                    }
                    let buf = st.bufs[*array as usize]
                        .as_mut()
                        .ok_or_else(|| RuntimeError::UnboundArray(name.clone()))?;
                    buf.set(name, &idx[at..], v)?;
                    idx.truncate(at);
                    st.counters.stores += 1;
                }
                Op::StoreLin { lin, checked } => {
                    let v = stack.pop().expect("operand");
                    let lin = &self.lins[*lin as usize];
                    let name = &self.names[lin.name as usize];
                    // Counted before the unbound/bounds checks, exactly
                    // like the tree-walker's Monolithic store.
                    if *checked {
                        st.counters.check_ops += 1;
                    }
                    let buf = st.bufs[lin.array as usize]
                        .as_mut()
                        .ok_or_else(|| RuntimeError::UnboundArray(name.clone()))?;
                    let off = lin_offset(lin, iregs, &self.names)?;
                    if *checked {
                        let d = st.defined[lin.array as usize]
                            .as_mut()
                            .expect("checked store requires checked alloc");
                        if d[off] {
                            return Err(RuntimeError::WriteCollision {
                                array: name.clone(),
                                index: unravel(buf, off),
                            });
                        }
                        d[off] = true;
                    }
                    buf.set_linear(off, v);
                    st.counters.stores += 1;
                }
                Op::Copy { dst, src, src_name } => {
                    let len = st.bufs[*src as usize]
                        .as_ref()
                        .ok_or_else(|| {
                            RuntimeError::UnboundArray(self.names[*src_name as usize].clone())
                        })?
                        .len();
                    st.meter.charge_mem(len as u64 * 8)?;
                    // Charged and counted as a copy; the clone shares the
                    // elements until the update's first store copies them.
                    let buf = st.bufs[*src as usize].clone().expect("checked above");
                    st.counters.elements_copied += buf.len() as u64;
                    st.counters.array_allocs += 1;
                    st.bufs[*dst as usize] = Some(buf);
                }
                Op::CheckComplete { array, name } => {
                    let name = &self.names[*name as usize];
                    let d = st.defined[*array as usize]
                        .as_ref()
                        .ok_or_else(|| RuntimeError::UnboundArray(name.clone()))?;
                    st.counters.check_ops += d.len() as u64;
                    if let Some(off) = d.iter().position(|x| !x) {
                        let buf = st.bufs[*array as usize]
                            .as_ref()
                            .expect("checked alloc bound its array");
                        return Err(RuntimeError::UndefinedElement {
                            array: name.clone(),
                            index: unravel(buf, off),
                        });
                    }
                }
                Op::VecLoop(f) => {
                    let e = &self.fused[*f as usize];
                    if fused_bound(e, st.bufs) {
                        fused_seq(e, st.bufs, frame, iregs, st.counters, st.meter, tape_ops)?;
                        pc = e.exit_pc as usize;
                    } else {
                        // An unbound buffer must fault through the
                        // scalar path for the exact lazy error: do the
                        // overlaid `LoopInit`'s work and fall through
                        // to the intact loop head at the next pc.
                        iregs[e.ireg as usize] = e.start;
                    }
                }
                Op::Halt => return Ok(ops.len()),
            }
        }
    }
}

// ---- fused vector-kernel execution ----
//
// The accounting contract: a fused run must leave every observable —
// values, counters, fuel-left, post-loop register/frame state, and the
// error (if any) — bit-identical to dispatching the overlaid scalar
// ops. The scalar loop's observables are closed-form in the number of
// completed iterations `f`:
//
//   tape_ops        init(1) + f·(head + body + next) + final head(1)
//   loop_iterations f
//   loads / stores  f · (per-iteration body counts)
//   fuel            f charges, plus the failing charge on exhaustion
//   iregs[ireg]     start + f·step
//   frame[slot]     (start + (f-1)·step) as f64   — only when f > 0
//
// so the wrappers bulk-settle those and run the kernel over exactly
// `f` ordinals. Bodies with calls, branches, allocations, checked
// accesses, or dynamic subscripts never fuse, which is what makes the
// closed forms exact.

/// Every array a fused entry touches is bound — the only run-time
/// precondition for the kernel path (everything else is proven at
/// fuse time).
#[inline]
fn fused_bound(e: &FusedEntry, bufs: &[Option<ArrayBuf>]) -> bool {
    e.streams.iter().all(|s| bufs[s.array as usize].is_some())
}

/// Run a whole fused loop sequentially. The caller has already counted
/// the `VecLoop` fetch itself (standing in for the scalar `LoopInit`).
fn fused_seq(
    e: &FusedEntry,
    bufs: &mut [Option<ArrayBuf>],
    frame: &mut [f64],
    iregs: &mut [i64],
    counters: &mut VmCounters,
    meter: &mut Meter,
    tape_ops: &mut u64,
) -> Result<(), RuntimeError> {
    let (done, err) = meter.charge_fuel_block(e.trip);
    counters.loop_iterations += done;
    counters.loads += done * e.loads_per_iter;
    counters.stores += done * e.stores_per_iter;
    // Completed iterations plus the final (or failing) head check.
    *tape_ops += done * e.iter_ops + 1;
    run_fused_kernel(e, bufs, frame, iregs, 0, done);
    iregs[e.ireg as usize] = e.start + done as i64 * e.step;
    if done > 0 {
        frame[e.slot as usize] = (e.start + (done as i64 - 1) * e.step) as f64;
    }
    match err {
        None => Ok(()),
        Some(er) => Err(er),
    }
}

/// Outcome of [`TapeProgram::fused_chunk`].
pub(crate) enum FusedChunk {
    /// A buffer was unbound — run the chunk on the scalar ops.
    Fallback,
    /// All ordinals in the range completed.
    Done,
    /// Fuel ran out before `ord`; the meter is settled and the error
    /// is what the scalar head charge would have raised.
    Fuel {
        ord: u64,
        err: RuntimeError,
        fuel_left: u64,
    },
}

impl TapeProgram {
    /// Run ordinals `[lo, hi)` of fused loop `k` for a parallel chunk
    /// worker, with the chunk's own accounting discipline: no init or
    /// final-head ops (the region driver owns those), per-iteration
    /// ops into `chunk_ops`, and no frame/ireg publication (chunk
    /// scratch is private; the merge path reconstructs post-state).
    pub(crate) fn fused_chunk(
        &self,
        k: u32,
        st: &mut TapeState<'_>,
        chunk_ops: &mut u64,
        lo: u64,
        hi: u64,
    ) -> FusedChunk {
        let e = &self.fused[k as usize];
        if !fused_bound(e, st.bufs) {
            return FusedChunk::Fallback;
        }
        let (done, err) = st.meter.charge_fuel_block(hi - lo);
        st.counters.loop_iterations += done;
        st.counters.loads += done * e.loads_per_iter;
        st.counters.stores += done * e.stores_per_iter;
        *chunk_ops += done * e.iter_ops;
        run_fused_kernel(e, st.bufs, &st.scratch.frame, &st.scratch.iregs, lo, done);
        match err {
            None => FusedChunk::Done,
            Some(er) => {
                // The failing head fetch is a dispatched op.
                *chunk_ops += 1;
                FusedChunk::Fuel {
                    ord: lo + done,
                    err: er,
                    fuel_left: st.meter.fuel_left(),
                }
            }
        }
    }
}

/// The last loops of a chain of consecutive units' tapes, merged into
/// one fused loop (built by [`crate::fuse::merge_loops`]). Each unit
/// keeps its own tape; the merge only changes how the chain runs: every
/// unit's straight-line prefix in chain order, then one loop whose
/// generic kernel does every unit's iteration at each ordinal.
///
/// That order differs from running the tapes one after another, and
/// only a run that cannot stop partway hides the difference: the
/// prefixes are failure-free by construction and the loops charge
/// nothing but fuel, so the chain's whole charge is known, and
/// [`MergedLoop::can_run`] holds only when the meter covers it and
/// every array the chain reads is bound. The settlement then charges
/// and counts exactly what the separate tapes would.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedLoop {
    /// The merged loop's own tape: array table, access entries and
    /// frame layout, with the loop as its only fused entry. It has no
    /// ops: nothing dispatches it.
    pub(crate) tape: TapeProgram,
    /// One per unit, in chain order.
    pub(crate) parts: Vec<MergedPart>,
    /// Fuel the chain charges: every loop's iterations.
    pub(crate) fuel: u64,
    /// Memory the chain charges: every prefix's allocations.
    pub(crate) mem: u64,
    /// Arrays the chain reads but does not allocate.
    pub(crate) inputs: Vec<String>,
}

impl MergedLoop {
    /// Whether the chain can run merged with no observable difference:
    /// `meter` covers its fuel and memory without drawing on a ceiling
    /// ([`Meter::covers`]) and `bound` holds for every array it reads.
    pub fn can_run(&self, meter: &Meter, bound: impl Fn(&str) -> bool) -> bool {
        meter.covers(self.fuel, self.mem) && self.inputs.iter().all(|n| bound(n))
    }

    /// The merged loop.
    pub fn entry(&self) -> &FusedEntry {
        &self.tape.fused[0]
    }

    /// Run the merged loop with `st` bound to its own tape, after every
    /// prefix, settling each unit's loop and closing `Halt` in bulk: its
    /// `VecLoop` fetch, its iterations, its final head check and its
    /// `Halt` are what the unit's tape would have dispatched.
    ///
    /// # Panics
    /// When the meter cannot cover the loops' fuel: callers check
    /// [`MergedLoop::can_run`] before the chain starts.
    pub(crate) fn run_loop(&self, st: &mut TapeState<'_>) {
        let e = self.entry();
        let (done, err) = st.meter.charge_fuel_block(self.fuel);
        assert!(
            done == self.fuel && err.is_none(),
            "a merged loop runs only under a meter that covers it"
        );
        for part in &self.parts {
            st.counters.loop_iterations += e.trip;
            st.counters.loads += e.trip * part.loads_per_iter;
            st.counters.stores += e.trip * part.stores_per_iter;
            st.counters.tape_ops += e.trip * part.iter_ops + 3;
        }
        run_fused_kernel(e, st.bufs, &st.scratch.frame, &st.scratch.iregs, 0, e.trip);
    }
}

/// One unit of a [`MergedLoop`]: where its prefix ends and what its own
/// loop would have counted.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MergedPart {
    /// Stop bitmap with only the unit's `VecLoop` pc set: `ops` before
    /// it are its prefix.
    pub(crate) stops: Vec<bool>,
    /// The unit's loop: scalar ops per complete iteration.
    pub(crate) iter_ops: u64,
    pub(crate) loads_per_iter: u64,
    pub(crate) stores_per_iter: u64,
}

impl TapeProgram {
    /// Run a merged chain unit's prefix: every op before its loop.
    pub(crate) fn run_prefix(
        &self,
        st: &mut TapeState<'_>,
        part: &MergedPart,
    ) -> Result<(), RuntimeError> {
        let mut tape_ops = 0;
        let r = self.dispatch_until(st, &mut tape_ops, 0, &part.stops);
        st.counters.tape_ops += tape_ops;
        r.map(|_| ())
    }
}

/// A stream's offset at the fused loop value `i0`, folding the
/// enclosing-loop registers (loop-invariant for this run).
#[inline]
fn stream_off0(s: &FusedStream, iregs: &[i64], i0: i64) -> i64 {
    let mut off = s.base;
    for &(r, a) in &s.inv {
        off = off.wrapping_add(a.wrapping_mul(iregs[r as usize]));
    }
    off.wrapping_add(s.stride.wrapping_mul(i0))
}

/// Execute `done` ordinals starting at ordinal `lo` of a fused loop.
/// All buffers are bound (checked by the caller); all accesses are
/// in bounds (proved at fuse time — specialized kernels still go
/// through slice bounds checks, the generic kernel asserts each
/// stream's window once per call).
fn run_fused_kernel(
    e: &FusedEntry,
    bufs: &mut [Option<ArrayBuf>],
    frame: &[f64],
    iregs: &[i64],
    lo: u64,
    done: u64,
) {
    if done == 0 {
        return;
    }
    match e.kernel {
        Kernel::Generic => run_fused_generic(e, bufs, frame, iregs, lo, done),
        Kernel::Sum { .. } | Kernel::Dot { .. } | Kernel::MulAddAcc { .. } => {
            run_fused_reduce(e, bufs, frame, iregs, lo, done);
        }
        _ => run_fused_special(e, bufs, frame, iregs, lo, done),
    }
}

enum RSrc<'a> {
    S(&'a [f64]),
    /// A strided walk over a whole array buffer: element `q` lives at
    /// `o0 + q·dlt` (every access slice-bounds-checked).
    St {
        data: &'a [f64],
        o0: i64,
        dlt: i64,
    },
    K(f64),
}

impl RSrc<'_> {
    #[inline(always)]
    fn at(&self, q: usize) -> f64 {
        match self {
            RSrc::S(s) => s[q],
            RSrc::St { data, o0, dlt } => data[(o0 + q as i64 * dlt) as usize],
            RSrc::K(v) => *v,
        }
    }
}

/// The destination window of a specialized kernel: a raw pointer plus
/// the proven extent, with contiguous (`dd == 1`) and strided walks.
/// Extracted once so every kernel arm shares the bounds assertion.
struct DstWin {
    dp: *mut f64,
    d0: i64,
    dd: i64,
}

/// Assert that offsets `d0 + q·dd` for `q ∈ extra..n` (plus, when
/// `extra < 0`, the carried-in cell at `d0 + extra·dd`) all lie inside
/// `len`. Returns the window parameters.
fn dst_window(
    e: &FusedEntry,
    bufs: &mut [Option<ArrayBuf>],
    iregs: &[i64],
    dst: u8,
    i0: i64,
    n: usize,
    extra: i64,
) -> DstWin {
    let dstm = &e.streams[dst as usize];
    let dd = dstm.stride.wrapping_mul(e.step);
    let d0 = stream_off0(dstm, iregs, i0);
    let (dp, dlen) = {
        let data = bufs[dstm.array as usize]
            .as_mut()
            .expect("bound")
            .data_mut();
        (data.as_mut_ptr(), data.len())
    };
    let first = d0 + extra * dd;
    let last = d0 + (n as i64 - 1) * dd;
    let (wmin, wmax) = (first.min(last), first.max(last));
    assert!(
        wmin >= 0 && (wmax as usize) < dlen,
        "fused destination window out of proven bounds"
    );
    DstWin { dp, d0, dd }
}

#[allow(clippy::too_many_lines)]
fn run_fused_special(
    e: &FusedEntry,
    bufs: &mut [Option<ArrayBuf>],
    frame: &[f64],
    iregs: &[i64],
    lo: u64,
    done: u64,
) {
    // Specialized kernels are only classified for bodies whose
    // destination array is disjoint from every source array, so source
    // slices borrow immutably while the destination window is written
    // through a raw pointer. The slot table itself is never mutated:
    // in a parallel region the table is aliased across chunk workers, and
    // (like the scalar path) only disjoint `f64` element ranges may be
    // touched concurrently — the window's per-ordinal offsets are
    // injective (`dd ≠ 0`).
    let i0 = e.start + lo as i64 * e.step;
    let n = done as usize;
    let dst = match e.kernel {
        Kernel::Fill { dst, .. }
        | Kernel::Copy { dst, .. }
        | Kernel::Ewise2 { dst, .. }
        | Kernel::MulAdd { dst, .. }
        | Kernel::Stencil4 { dst, .. }
        | Kernel::Stencil3 { dst, .. } => dst,
        Kernel::Generic | Kernel::Sum { .. } | Kernel::Dot { .. } | Kernel::MulAddAcc { .. } => {
            unreachable!("dispatched to the generic / reduce paths")
        }
    };
    let DstWin { dp, d0, dd } = dst_window(e, bufs, iregs, dst, i0, n, 0);
    let bufs = &*bufs;
    {
        macro_rules! src {
            ($sid:expr) => {
                src_slice(e, bufs, iregs, i0, n, $sid)
            };
        }
        macro_rules! rsrc {
            ($k:expr) => {
                rsrc(e, bufs, frame, iregs, i0, n, $k)
            };
        }
        // One store loop per kernel arm: the contiguous fast path
        // recovers a `&mut [f64]` slice (autovectorizable), the
        // strided path writes through explicit offsets.
        // SAFETY: every offset `d0 + q·dd`, `q < n`, was asserted
        // in-bounds by `dst_window`; the destination array is disjoint
        // from every source array (classifier precondition), so the
        // window never overlaps a source slice.
        macro_rules! wloop {
            (|$q:ident| $val:expr) => {
                if dd == 1 {
                    let d = unsafe { std::slice::from_raw_parts_mut(dp.add(d0 as usize), n) };
                    for $q in 0..n {
                        d[$q] = $val;
                    }
                } else {
                    for $q in 0..n {
                        unsafe { *dp.add((d0 + $q as i64 * dd) as usize) = $val }
                    }
                }
            };
        }
        match e.kernel {
            Kernel::Fill { val, .. } => {
                let v = rsrc!(val).at(0);
                wloop!(|_q| v);
            }
            Kernel::Copy { src: sid, .. } => {
                // Classified only with a unit-delta destination.
                debug_assert_eq!(dd, 1);
                let s = src!(sid);
                // SAFETY: as in `wloop!`.
                let d = unsafe { std::slice::from_raw_parts_mut(dp.add(d0 as usize), n) };
                d.copy_from_slice(s);
            }
            Kernel::Ewise2 { a, b, op, .. } => {
                let (a, b) = (rsrc!(a), rsrc!(b));
                match op {
                    BinOp::Add => wloop!(|q| a.at(q) + b.at(q)),
                    BinOp::Sub => wloop!(|q| a.at(q) - b.at(q)),
                    BinOp::Mul => wloop!(|q| a.at(q) * b.at(q)),
                    BinOp::Div => wloop!(|q| a.at(q) / b.at(q)),
                    BinOp::Min => wloop!(|q| a.at(q).min(b.at(q))),
                    BinOp::Max => wloop!(|q| a.at(q).max(b.at(q))),
                    // Only the six ops above classify as Ewise2.
                    _ => unreachable!("unclassifiable elementwise op"),
                }
            }
            Kernel::MulAdd { a, b, c, .. } => {
                let (a, b, c) = (rsrc!(a), rsrc!(b), rsrc!(c));
                wloop!(|q| a.at(q) * b.at(q) + c.at(q));
            }
            Kernel::Stencil4 { s, c, div, .. } => {
                let (s0, s1, s2, s3) = (src!(s[0]), src!(s[1]), src!(s[2]), src!(s[3]));
                match (div, exact_reciprocal(c)) {
                    (true, Some(r)) => wloop!(|q| (((s0[q] + s1[q]) + s2[q]) + s3[q]) * r),
                    (true, None) => wloop!(|q| (((s0[q] + s1[q]) + s2[q]) + s3[q]) / c),
                    (false, _) => wloop!(|q| (((s0[q] + s1[q]) + s2[q]) + s3[q]) * c),
                }
            }
            Kernel::Stencil3 { w, s, .. } => {
                let (s0, s1, s2) = (src!(s[0]), src!(s[1]), src!(s[2]));
                let [w0, w1, w2] = w;
                wloop!(|q| (w0 * s0[q] + w1 * s1[q]) + w2 * s2[q]);
            }
            Kernel::Generic
            | Kernel::Sum { .. }
            | Kernel::Dot { .. }
            | Kernel::MulAddAcc { .. } => {
                unreachable!()
            }
        }
    }
}

/// `1/c` when multiplying by it gives `x / c` bit for bit for every
/// `x`: `c` is a normal power of two whose reciprocal is normal too.
/// Both operations then scale the same exact quotient by a power of
/// two and round it once, so NaNs, infinities, signed zeros and
/// subnormal results agree as well. `None` for any other divisor.
pub(crate) fn exact_reciprocal(c: f64) -> Option<f64> {
    const MANTISSA: u64 = (1 << 52) - 1;
    let r = 1.0 / c;
    (c.is_normal() && r.is_normal() && c.to_bits() & MANTISSA == 0).then_some(r)
}

/// Borrow stream `sid`'s elements for ordinals `0..n` as a contiguous
/// slice (unit-delta streams only).
fn src_slice<'b>(
    e: &FusedEntry,
    bufs: &'b [Option<ArrayBuf>],
    iregs: &[i64],
    i0: i64,
    n: usize,
    sid: u8,
) -> &'b [f64] {
    let s = &e.streams[sid as usize];
    let o = stream_off0(s, iregs, i0) as usize;
    &bufs[s.array as usize].as_ref().expect("bound").data()[o..o + n]
}

/// Resolve a specialized kernel's operand for a run of `n` ordinals
/// from loop value `i0`: a register from the constant pool or the
/// invariants, a stream as a broadcast, slice or strided walk.
fn rsrc<'b>(
    e: &FusedEntry,
    bufs: &'b [Option<ArrayBuf>],
    frame: &[f64],
    iregs: &[i64],
    i0: i64,
    n: usize,
    a: Src,
) -> RSrc<'b> {
    let sid = match a {
        Src::Mem(sid) => sid,
        Src::Reg(r) => {
            let p = &e.prog;
            let invariants = p.invariants.iter().map(|&(x, s)| (x, frame[s as usize]));
            let mut values = p.consts.iter().copied().chain(invariants);
            let (_, v) = values
                .find(|c| c.0 == r)
                .expect("a constant or an invariant");
            return RSrc::K(v);
        }
    };
    let s = &e.streams[sid as usize];
    let data = bufs[s.array as usize].as_ref().expect("bound").data();
    let o0 = stream_off0(s, iregs, i0);
    match s.stride.wrapping_mul(e.step) {
        _ if s.stride == 0 => RSrc::K(data[o0 as usize]),
        1 => RSrc::S(&data[o0 as usize..o0 as usize + n]),
        dlt => RSrc::St { data, o0, dlt },
    }
}

/// Execute a reduction kernel: a strict left-to-right fold whose
/// accumulator is the destination cell written one iteration ago.
///
/// The scalar body is `d[i] = d[i-1] ⊕ e(i)` — per iteration it loads
/// the previous cell, folds, and stores. The kernel loads the carried
/// cell **once** (at `d0 - dd`, exactly where iteration `lo`'s scalar
/// load would hit), keeps the accumulator in a register, and still
/// stores every intermediate (the array is the scan's output). The
/// accumulator is always the *left* operand of the fold — the same
/// `apply_bin(op, acc, e)` orientation the classifier verified against
/// the RPN — so every FP operation happens in the scalar order with
/// the scalar operand order: bit-identity needs no reassociation
/// argument at all.
fn run_fused_reduce(
    e: &FusedEntry,
    bufs: &mut [Option<ArrayBuf>],
    frame: &[f64],
    iregs: &[i64],
    lo: u64,
    done: u64,
) {
    let i0 = e.start + lo as i64 * e.step;
    let n = done as usize;
    let dst = match e.kernel {
        Kernel::Sum { dst, .. } | Kernel::Dot { dst, .. } | Kernel::MulAddAcc { dst, .. } => dst,
        _ => unreachable!("only reduce kernels dispatch here"),
    };
    // `extra: -1` widens the asserted window to the carried-in cell.
    let DstWin { dp, d0, dd } = dst_window(e, bufs, iregs, dst, i0, n, -1);
    let bufs = &*bufs;
    // SAFETY: `d0 - dd` is inside the asserted window.
    let mut acc = unsafe { *dp.add((d0 - dd) as usize) };
    // SAFETY (stores below): every offset `d0 + q·dd`, `q < n`, was
    // asserted in-bounds; sources live on arrays disjoint from the
    // destination (classifier precondition), so the borrows never
    // overlap the written cells.
    macro_rules! scan {
        (|$q:ident, $acc:ident| $fold:expr) => {
            if dd == 1 {
                let d = unsafe { std::slice::from_raw_parts_mut(dp.add(d0 as usize), n) };
                for $q in 0..n {
                    let $acc = acc;
                    acc = $fold;
                    d[$q] = acc;
                }
            } else {
                for $q in 0..n {
                    let $acc = acc;
                    acc = $fold;
                    unsafe { *dp.add((d0 + $q as i64 * dd) as usize) = acc }
                }
            }
        };
    }
    match e.kernel {
        Kernel::Sum { src, op, .. } => {
            let s = rsrc(e, bufs, frame, iregs, i0, n, src);
            match op {
                BinOp::Add => scan!(|q, acc| acc + s.at(q)),
                BinOp::Min => scan!(|q, acc| acc.min(s.at(q))),
                BinOp::Max => scan!(|q, acc| acc.max(s.at(q))),
                // Only the three ops above classify as Sum.
                _ => unreachable!("unclassifiable fold op"),
            }
        }
        Kernel::Dot { a, b, .. } => {
            let (a, b) = (
                src_slice(e, bufs, iregs, i0, n, a),
                src_slice(e, bufs, iregs, i0, n, b),
            );
            scan!(|q, acc| acc + a[q] * b[q]);
        }
        Kernel::MulAddAcc { a, b, .. } => {
            let (a, b) = (
                rsrc(e, bufs, frame, iregs, i0, n, a),
                rsrc(e, bufs, frame, iregs, i0, n, b),
            );
            scan!(|q, acc| acc + a.at(q) * b.at(q));
        }
        _ => unreachable!(),
    }
}

/// Run ordinals `[lo, lo + done)` of a fused loop on its compiled
/// body, strictly in order.
///
/// The window proof: each stream's offsets over those ordinals form an
/// arithmetic progression, so asserting its two ends inside the array
/// once per call covers every access the loop makes; the body's steps
/// then read and write through raw cursors unchecked. Streams alias
/// through one raw view per array (a fused body may read and write the
/// same array — §4 in-place updates); no references are formed.
///
/// Kept out of line: inlined into [`run_fused_kernel`], its code moved
/// the specialized and fold loops there and slowed `matmul`'s fused
/// run by 5–10% in an interleaved measurement.
#[inline(never)]
fn run_fused_generic(
    e: &FusedEntry,
    bufs: &mut [Option<ArrayBuf>],
    frame: &[f64],
    iregs: &[i64],
    lo: u64,
    done: u64,
) {
    let body = e.body.as_deref().expect("a generic kernel has a body");
    let p = &e.prog;
    // Every stream the body or a forward seed touches gets a window.
    assert!(
        body.reach <= e.streams.len()
            && p.forwards
                .iter()
                .all(|&(_, s)| usize::from(s) < e.streams.len()),
        "register program names a stream without a window"
    );
    let i0 = e.start + lo as i64 * e.step;
    // Only an array the body stores to gets a writable view: asking a
    // read-only input for one would copy its shared elements. A
    // read-only view comes from `data()` and is only ever read through
    // (`put` writes stored streams alone).
    let stored = |id: usize| {
        p.ops
            .iter()
            .filter_map(RegOp::stored)
            .any(|s| e.streams[s as usize].array as usize == id)
    };
    let mut views: Vec<(ArrayId, *mut f64, usize)> = Vec::with_capacity(e.streams.len());
    for (id, slot) in bufs.iter_mut().enumerate() {
        if e.streams.iter().any(|s| s.array as usize == id) {
            let b = slot.as_mut().expect("bound");
            let len = b.len();
            let ptr = if stored(id) {
                b.data_mut().as_mut_ptr()
            } else {
                b.data().as_ptr().cast_mut()
            };
            views.push((id as ArrayId, ptr, len));
        }
    }
    let mut ctx = Ctx {
        cursors: [(std::ptr::null_mut(), 0); 256],
        regs: [0.0; REG_FILE],
    };
    for (cursor, s) in ctx.cursors.iter_mut().zip(&e.streams) {
        let &(_, ptr, len) = views
            .iter()
            .find(|&&(v, _, _)| v == s.array)
            .expect("collected");
        let o0 = stream_off0(s, iregs, i0);
        let dl = s.stride.wrapping_mul(e.step);
        let last = i128::from(o0) + i128::from(done - 1) * i128::from(dl);
        assert!(
            i128::from(o0).min(last) >= 0 && i128::from(o0).max(last) < len as i128,
            "fused stream window out of proven bounds"
        );
        // SAFETY: `o0` lies inside the asserted window.
        *cursor = (unsafe { ptr.add(o0 as usize) }, dl as isize);
    }
    for &(r, v) in &p.consts {
        ctx.regs[r as usize] = v;
    }
    for &(r, s) in &p.invariants {
        ctx.regs[r as usize] = frame[s as usize];
    }
    for &(r, s) in &p.forwards {
        // SAFETY: ordinal 0 of stream `s`, inside its asserted window.
        ctx.regs[r as usize] = unsafe { ctx.at(s, 0) };
    }
    // SAFETY: as above; `body.reach` covers the carried streams.
    let seed = |slot: usize| body.carried[slot].map_or(0.0, |s| unsafe { ctx.at(s, 0) });
    let (mut k0, mut k1) = (seed(0), seed(1));
    let n = done as isize;
    let lv = |ctx: &mut Ctx, q: isize| {
        if let Some(r) = p.loop_var {
            ctx.regs[r as usize] = (i0 + q as i64 * e.step) as f64;
        }
    };
    // Every step touches only streams below `body.reach`, all windowed
    // above, and runs at ordinals `q < done`, inside those windows:
    // that is what each `put` below and each stream read in a step
    // relies on.
    match &body.steps[..] {
        [Step {
            to: Dest::Carry { s, slot: 0 },
            f,
            ..
        }] => {
            for q in 0..n {
                lv(&mut ctx, q);
                k0 = f(&ctx, q, k0, k1);
                // SAFETY: stream `s < body.reach` at ordinal `q < done`.
                unsafe { ctx.put(*s, q, k0) };
            }
            return;
        }
        // Two recurrences in one loop, e.g. two merged sweeps: both
        // chains stay in registers.
        [Step {
            to: Dest::Carry { s: s0, slot: 0 },
            f: f0,
            ..
        }, Step {
            to: Dest::Carry { s: s1, slot: 1 },
            f: f1,
            ..
        }] => {
            for q in 0..n {
                lv(&mut ctx, q);
                k0 = f0(&ctx, q, k0, k1);
                // SAFETY: streams below `body.reach` at ordinal `q < done`.
                unsafe { ctx.put(*s0, q, k0) };
                k1 = f1(&ctx, q, k0, k1);
                unsafe { ctx.put(*s1, q, k1) };
            }
            return;
        }
        _ => {}
    }
    for q in 0..n {
        lv(&mut ctx, q);
        for step in &body.steps {
            let v = (step.f)(&ctx, q, k0, k1);
            match step.to {
                Dest::Reg(d) => ctx.regs[d as usize] = v,
                Dest::Store { s, fwd } => {
                    // SAFETY: stream `s < body.reach` at ordinal `q < done`.
                    unsafe { ctx.put(s, q, v) };
                    ctx.regs[fwd as usize] = v;
                }
                Dest::Carry { s, slot } => {
                    // SAFETY: stream `s < body.reach` at ordinal `q < done`.
                    unsafe { ctx.put(s, q, v) };
                    if slot == 0 {
                        k0 = v;
                    } else {
                        k1 = v;
                    }
                }
            }
        }
    }
}

/// What a compiled body's nodes read during one call of
/// [`run_fused_generic`]: each stream's cursor at the call's first
/// ordinal with its per-ordinal step, and the register file. Only that
/// function builds one, after asserting every stream's window.
struct Ctx {
    cursors: [(*mut f64, isize); 256],
    regs: [f64; REG_FILE],
}

impl Ctx {
    /// Stream `s`'s element at ordinal `q` of the call.
    ///
    /// # Safety
    /// `s` and `q` must lie inside the windows [`run_fused_generic`]
    /// asserted for this context: `s` below the entry's stream count,
    /// `0 <= q < done`.
    #[inline(always)]
    unsafe fn at(&self, s: u8, q: isize) -> f64 {
        let (ptr, dl) = self.cursors[s as usize];
        *ptr.offset(q * dl)
    }

    /// Write stream `s`'s element at ordinal `q` of the call.
    ///
    /// # Safety
    /// As for [`Ctx::at`].
    #[inline(always)]
    unsafe fn put(&self, s: u8, q: isize, v: f64) {
        let (ptr, dl) = self.cursors[s as usize];
        *ptr.offset(q * dl) = v;
    }
}

/// One compiled value: `(ctx, ordinal, carried cells) ↦ value`.
type Node = Box<dyn Fn(&Ctx, isize, f64, f64) -> f64 + Send + Sync>;

/// The value a step computes, as the tree its closures were built
/// from (kept for rendering).
enum Tree {
    /// Stream `s`'s element at the current ordinal.
    Stream(u8),
    /// A register of the file.
    Reg(u8),
    /// Carried argument 0 or 1.
    Carried(u8),
    Bin(BinOp, Box<Tree>, Box<Tree>),
    Un(UnOp, Box<Tree>),
}

/// Carried argument 0 renders `k`, argument 1 `k1`.
fn carry_name(slot: u8) -> &'static str {
    if slot == 0 {
        "k"
    } else {
        "k1"
    }
}

impl fmt::Debug for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tree::Stream(s) => write!(f, "s{s}"),
            Tree::Reg(r) => write!(f, "r{r}"),
            Tree::Carried(slot) => f.write_str(carry_name(*slot)),
            Tree::Bin(op, a, b) => write!(f, "({a:?} {} {b:?})", op.symbol()),
            Tree::Un(op, a) => write!(f, "{}({a:?})", op.symbol()),
        }
    }
}

/// Where a step's value goes.
enum Dest {
    Reg(u8),
    /// Stream `s`'s element, and register `fwd`.
    Store {
        s: u8,
        fwd: u8,
    },
    /// Stream `s`'s element, and carried argument `slot`.
    Carry {
        s: u8,
        slot: u8,
    },
}

struct Step {
    to: Dest,
    tree: Tree,
    f: Node,
}

impl fmt::Debug for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.to {
            Dest::Reg(d) => write!(f, "r{d}")?,
            Dest::Store { s, fwd } => write!(f, "s{s}, r{fwd}")?,
            Dest::Carry { s, slot } => write!(f, "s{s}, {}", carry_name(slot))?,
        }
        write!(f, " := {:?}", self.tree)
    }
}

/// A [`RegProgram`] compiled to closures, built once per
/// [`Kernel::Generic`] loop at fuse time and run by the generic kernel.
///
/// Each store is one step, in op order, whose value is a tree of boxed
/// closures. A stack register inlines into its only reader when every
/// op between them inlines too, so no store and no register write falls
/// between the two; every other register is written by a step of its
/// own into the register file. The body's first two forwarded cells,
/// in store order, travel as the closures' two `f64` arguments (any
/// further one through the register file), so a single-store
/// recurrence runs as `k = f(ctx, q, k, k1); store`, and two merged
/// recurrences keep both chains in CPU registers. Every FP operation
/// keeps its operands and its order, so the body computes the bits the
/// register program does.
///
/// Renders (`Debug`) as its steps: `s3, k := ((s0 + k) / r17)` stores
/// into stream 3 and carried argument 0 (`k1` names argument 1),
/// `r18 := …` writes a register.
pub struct CompiledBody {
    steps: Vec<Step>,
    /// The streams seeding carried arguments 0 and 1.
    carried: [Option<u8>; 2],
    /// One past the highest stream a step touches or a carried
    /// argument is seeded from.
    reach: usize,
}

impl fmt::Debug for CompiledBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.steps).finish()
    }
}

/// Every body compares equal: a body is a pure function of the
/// [`RegProgram`] it was compiled from, which [`FusedEntry`]'s equality
/// compares.
impl PartialEq for CompiledBody {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl CompiledBody {
    /// Compile `p`'s ops into steps.
    pub(crate) fn compile(p: &RegProgram) -> CompiledBody {
        let ops = &p.ops;
        // The first two forwards that only stores write, in the order
        // of those stores, travel as the arguments; any other stays in
        // the register file.
        let mut carried: Vec<(u8, u8)> = Vec::new();
        for op in ops {
            let Some(&(r, s)) = p.forwards.iter().find(|&&(r, _)| {
                op.stored().is_some()
                    && op.dest() == r
                    && p.loop_var != Some(r)
                    && ops.iter().all(|o| o.dest() != r || o.stored().is_some())
            }) else {
                continue;
            };
            if carried.len() < 2 && !carried.iter().any(|c| c.0 == r) {
                carried.push((r, s));
            }
        }
        let slot_of = |r: u8| carried.iter().position(|c| c.0 == r).map(|k| k as u8);
        // Decided last to first: an op inlines when every op between
        // it and its reader does.
        let mut inline = vec![false; ops.len()];
        for i in (0..ops.len()).rev() {
            let stack = ops[i].stored().is_none() && usize::from(ops[i].dest()) < FUSE_MAX_STACK;
            inline[i] =
                stack && sole_reader(ops, i).is_some_and(|j| inline[i + 1..j].iter().all(|&x| x));
        }
        let mut pending: [Option<Tree>; FUSE_MAX_STACK] = Default::default();
        let operand = |pending: &mut [Option<Tree>; FUSE_MAX_STACK], a: Src| match a {
            Src::Mem(s) => Tree::Stream(s),
            Src::Reg(r) => match slot_of(r) {
                Some(slot) => Tree::Carried(slot),
                None => pending
                    .get_mut(r as usize)
                    .and_then(Option::take)
                    .unwrap_or(Tree::Reg(r)),
            },
        };
        let store = |s: u8, fwd: u8| match slot_of(fwd) {
            Some(slot) => Dest::Carry { s, slot },
            None => Dest::Store { s, fwd },
        };
        let mut steps = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let args: Vec<Tree> = op.srcs().map(|a| operand(&mut pending, a)).collect();
            let mut args = args.into_iter().map(Box::new);
            let mut arg = || args.next().expect("one tree per operand");
            let (tree, to) = match *op {
                RegOp::Bin { op, d, .. } => (Tree::Bin(op, arg(), arg()), Dest::Reg(d)),
                RegOp::Un { op, d, .. } => (Tree::Un(op, arg()), Dest::Reg(d)),
                RegOp::Mov { d, .. } => (*arg(), Dest::Reg(d)),
                RegOp::Store { s, fwd, .. } => (*arg(), store(s, fwd)),
                RegOp::BinStore { op, s, fwd, .. } => (Tree::Bin(op, arg(), arg()), store(s, fwd)),
            };
            match to {
                Dest::Reg(d) if inline[i] => pending[d as usize] = Some(tree),
                to => steps.push(Step {
                    f: node(&tree),
                    to,
                    tree,
                }),
            }
        }
        let reach = ops
            .iter()
            .flat_map(|op| op.mem_reads().chain(op.stored()))
            .chain(carried.iter().map(|c| c.1))
            .map(|s| usize::from(s) + 1)
            .max()
            .unwrap_or(0);
        CompiledBody {
            steps,
            carried: [0, 1].map(|k| carried.get(k).map(|c| c.1)),
            reach,
        }
    }
}

/// The op that alone reads the value op `i` writes, when that read
/// comes later in the same iteration and before the register is
/// written again.
fn sole_reader(ops: &[RegOp], i: usize) -> Option<usize> {
    let d = Src::Reg(ops[i].dest());
    let mut reader = None;
    // Past the body's end the scan wraps to the next iteration, where a
    // read would see this value too.
    for j in (i + 1..ops.len()).chain(0..=i) {
        for _ in ops[j].srcs().filter(|&a| a == d) {
            if reader.is_some() || j <= i {
                return None;
            }
            reader = Some(j);
        }
        if Src::Reg(ops[j].dest()) == d {
            break;
        }
    }
    reader
}

/// An operand of a compiled node, read at ordinal `q` with carried
/// arguments `k0`, `k1`.
trait Leaf: Send + Sync + 'static {
    fn at(&self, c: &Ctx, q: isize, k0: f64, k1: f64) -> f64;
}

struct AtStream(u8);
struct AtReg(u8);
struct AtCarry0;
struct AtCarry1;

impl Leaf for AtStream {
    #[inline(always)]
    fn at(&self, c: &Ctx, q: isize, _: f64, _: f64) -> f64 {
        // SAFETY: nodes run only inside `run_fused_generic`'s loops,
        // at `q < done` and on streams below the body's `reach`, all
        // inside the windows it asserted for `c`.
        unsafe { c.at(self.0, q) }
    }
}

impl Leaf for AtReg {
    #[inline(always)]
    fn at(&self, c: &Ctx, _: isize, _: f64, _: f64) -> f64 {
        c.regs[self.0 as usize]
    }
}

impl Leaf for AtCarry0 {
    #[inline(always)]
    fn at(&self, _: &Ctx, _: isize, k0: f64, _: f64) -> f64 {
        k0
    }
}

impl Leaf for AtCarry1 {
    #[inline(always)]
    fn at(&self, _: &Ctx, _: isize, _: f64, k1: f64) -> f64 {
        k1
    }
}

impl Leaf for Node {
    #[inline(always)]
    fn at(&self, c: &Ctx, q: isize, k0: f64, k1: f64) -> f64 {
        self(c, q, k0, k1)
    }
}

fn boxed(f: impl Fn(&Ctx, isize, f64, f64) -> f64 + Send + Sync + 'static) -> Node {
    Box::new(f)
}

/// Bind `$l` to tree `$t` as a [`Leaf`] of its kind (a subtree compiles
/// to a [`Node`]), then evaluate `$body` — one instantiation per kind.
macro_rules! with_leaf {
    ($t:expr, |$l:ident| $body:expr) => {
        match $t {
            Tree::Stream(s) => {
                let $l = AtStream(*s);
                $body
            }
            Tree::Reg(r) => {
                let $l = AtReg(*r);
                $body
            }
            Tree::Carried(0) => {
                let $l = AtCarry0;
                $body
            }
            Tree::Carried(_) => {
                let $l = AtCarry1;
                $body
            }
            t => {
                let $l = node(t);
                $body
            }
        }
    };
}

/// Compile a tree to closures, monomorphized over operand kinds.
fn node(t: &Tree) -> Node {
    match t {
        Tree::Bin(op, a, b) => with_leaf!(&**a, |a| with_leaf!(&**b, |b| bin(*op, a, b))),
        Tree::Un(op, a) => {
            let op = *op;
            with_leaf!(&**a, |a| boxed(move |c, q, k0, k1| apply_un(
                op,
                a.at(c, q, k0, k1)
            )))
        }
        leaf => with_leaf!(leaf, |a| boxed(move |c, q, k0, k1| a.at(c, q, k0, k1))),
    }
}

/// `a op b`: `+ − × ÷` inline, every other operator through
/// `apply_bin`.
fn bin<A: Leaf, B: Leaf>(op: BinOp, a: A, b: B) -> Node {
    match op {
        BinOp::Add => boxed(move |c, q, k0, k1| a.at(c, q, k0, k1) + b.at(c, q, k0, k1)),
        BinOp::Sub => boxed(move |c, q, k0, k1| a.at(c, q, k0, k1) - b.at(c, q, k0, k1)),
        BinOp::Mul => boxed(move |c, q, k0, k1| a.at(c, q, k0, k1) * b.at(c, q, k0, k1)),
        BinOp::Div => boxed(move |c, q, k0, k1| a.at(c, q, k0, k1) / b.at(c, q, k0, k1)),
        op => boxed(move |c, q, k0, k1| apply_bin(op, a.at(c, q, k0, k1), b.at(c, q, k0, k1))),
    }
}

/// Operand-stack depth limit of a fused body (deeper bodies stay
/// scalar); the stack occupies the register program's low registers.
pub const FUSE_MAX_STACK: usize = 16;

/// Compute a linear access's offset, running the per-dimension checks
/// when the compile-time proof did not discharge them.
#[inline]
fn lin_offset(lin: &LinEntry, iregs: &[i64], names: &[String]) -> Result<usize, RuntimeError> {
    match &lin.checks {
        None => {
            let mut off = lin.base;
            for &(r, s) in &lin.terms {
                off = off.wrapping_add(s.wrapping_mul(iregs[r as usize]));
            }
            Ok(off as usize)
        }
        Some(dims) => {
            let mut off: i64 = 0;
            for d in dims {
                let v = d.value(iregs);
                if v < d.lo || v > d.hi {
                    return Err(RuntimeError::OutOfBounds {
                        array: names[lin.name as usize].clone(),
                        index: dims.iter().map(|d| d.value(iregs)).collect(),
                        bounds: dims.iter().map(|d| (d.lo, d.hi)).collect(),
                    });
                }
                off = off * (d.hi - d.lo + 1) + (v - d.lo);
            }
            Ok(off as usize)
        }
    }
}

/// Compile a Limp program to a bytecode tape. Total: every program
/// compiles; anything unresolvable becomes a lazy runtime error op,
/// and anything non-affine falls back to the dynamic subscript path.
pub fn compile_tape(prog: &LProgram, ctx: &TapeCtx) -> TapeProgram {
    let mut c = Compiler::new(ctx);
    c.scan_shapes(&prog.stmts);
    c.compile_stmts(&prog.stmts);
    c.emit(Op::Halt, 0, 0);
    c.finish()
}

/// Resolution of a variable reference at compile time.
enum VarRef {
    /// A frame slot (global or local).
    Slot(u32),
    /// A loop variable: frame slot plus integer register and range.
    Loop { slot: u32, ireg: u32 },
    /// A compile-time constant (program parameter).
    Const(i64),
    /// No binding — compiles to a lazy error.
    Unbound,
}

struct ScopeVar {
    name: String,
    slot: u32,
    /// Loop variables carry their integer register.
    ireg: Option<u32>,
}

/// An affine form `c + Σ coeff·ireg` with exact integer arithmetic;
/// construction bails out (→ dynamic path) on any overflow.
#[derive(Debug, Clone)]
struct AffForm {
    c: i64,
    /// Sorted by register for deterministic output.
    terms: Vec<(u32, i64)>,
}

impl AffForm {
    fn konst(c: i64) -> AffForm {
        AffForm { c, terms: vec![] }
    }

    fn add_scaled(&self, other: &AffForm, k: i64) -> Option<AffForm> {
        let mut out = self.clone();
        out.c = out.c.checked_add(other.c.checked_mul(k)?)?;
        for &(r, a) in &other.terms {
            let a = a.checked_mul(k)?;
            match out.terms.iter_mut().find(|(rr, _)| *rr == r) {
                Some((_, acc)) => *acc = acc.checked_add(a)?,
                None => out.terms.push((r, a)),
            }
        }
        out.terms.retain(|&(_, a)| a != 0);
        out.terms.sort_unstable_by_key(|&(r, _)| r);
        Some(out)
    }
}

struct Compiler<'a> {
    ctx: &'a TapeCtx,
    ops: Vec<Op>,
    names: Vec<String>,
    name_map: HashMap<String, u32>,
    arrays: Vec<String>,
    array_map: HashMap<String, u32>,
    funcs: Vec<String>,
    func_map: HashMap<String, u32>,
    lins: Vec<LinEntry>,
    allocs: Vec<AllocEntry>,
    /// Canonical name → shape; `None` = statically unknown (dynamic
    /// subscript path only).
    shapes: HashMap<&'a str, Option<&'a [(i64, i64)]>>,
    scope: Vec<ScopeVar>,
    next_slot: usize,
    frame_size: usize,
    next_ireg: usize,
    ireg_count: usize,
    /// Loop ranges per register (conservative `[min, max]` superset).
    ireg_range: Vec<(i64, i64)>,
    cur_stack: usize,
    max_stack: usize,
    cur_idx: usize,
    max_idx: usize,
    loop_vars: Vec<(u32, String)>,
}

impl<'a> Compiler<'a> {
    fn new(ctx: &'a TapeCtx) -> Compiler<'a> {
        let mut c = Compiler {
            ctx,
            ops: vec![],
            names: vec![],
            name_map: HashMap::new(),
            arrays: vec![],
            array_map: HashMap::new(),
            funcs: vec![],
            func_map: HashMap::new(),
            lins: vec![],
            allocs: vec![],
            shapes: HashMap::new(),
            scope: vec![],
            next_slot: ctx.globals.len(),
            frame_size: ctx.globals.len(),
            next_ireg: 0,
            ireg_count: 0,
            ireg_range: vec![],
            cur_stack: 0,
            max_stack: 0,
            cur_idx: 0,
            max_idx: 0,
            loop_vars: vec![],
        };
        for (name, shape) in &ctx.shapes {
            let canon = c.canonical(name);
            match c.shapes.get(canon) {
                Some(Some(s)) if *s != shape.as_slice() => {
                    c.shapes.insert(canon, None);
                }
                Some(_) => {}
                None => {
                    c.shapes.insert(canon, Some(shape));
                }
            }
        }
        c
    }

    fn finish(self) -> TapeProgram {
        TapeProgram {
            ops: self.ops,
            names: self.names,
            arrays: self.arrays,
            funcs: self.funcs,
            lins: self.lins,
            allocs: self.allocs,
            globals: self.ctx.globals.clone(),
            fused: vec![],
            loop_vars: self.loop_vars,
            frame_size: self.frame_size,
            ireg_count: self.ireg_count,
            max_stack: self.max_stack,
            max_idx: self.max_idx,
        }
    }

    fn canonical<'n>(&self, name: &'n str) -> &'n str
    where
        'a: 'n,
    {
        let mut cur = name;
        while let Some(next) = self.ctx.aliases.get(cur) {
            cur = next;
        }
        cur
    }

    /// Pre-pass: collect static shapes from `Alloc`/`CopyArray`, on top
    /// of the context's shapes. Conflicts poison a name to "unknown".
    fn scan_shapes(&mut self, stmts: &'a [LStmt]) {
        for s in stmts {
            match s {
                LStmt::Alloc { array, bounds, .. } => {
                    let canon = self.canonical(array);
                    match self.shapes.get(canon) {
                        Some(Some(b)) if *b != bounds.as_slice() => {
                            self.shapes.insert(canon, None);
                        }
                        Some(_) => {}
                        None => {
                            self.shapes.insert(canon, Some(bounds));
                        }
                    }
                }
                LStmt::CopyArray { dst, src } => {
                    let sshape = self.shapes.get(self.canonical(src)).copied().flatten();
                    let canon = self.canonical(dst);
                    match (self.shapes.get(canon), &sshape) {
                        (Some(Some(d)), Some(s)) if d == s => {}
                        (None, Some(_)) => {
                            self.shapes.insert(canon, sshape);
                        }
                        _ => {
                            self.shapes.insert(canon, None);
                        }
                    }
                }
                LStmt::For { body, .. } | LStmt::Let { body, .. } => self.scan_shapes(body),
                LStmt::If { then, els, .. } => {
                    self.scan_shapes(then);
                    self.scan_shapes(els);
                }
                LStmt::Store { .. } | LStmt::CheckComplete { .. } => {}
            }
        }
    }

    // ---- interning ----

    fn intern_name(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.name_map.get(s) {
            return i;
        }
        let i = self.names.len() as u32;
        self.names.push(s.to_string());
        self.name_map.insert(s.to_string(), i);
        i
    }

    fn intern_array(&mut self, raw: &str) -> ArrayId {
        let canon = self.canonical(raw).to_string();
        if let Some(&i) = self.array_map.get(&canon) {
            return i;
        }
        let i = self.arrays.len() as u32;
        self.arrays.push(canon.clone());
        self.array_map.insert(canon, i);
        i
    }

    fn intern_func(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.func_map.get(s) {
            return i;
        }
        let i = self.funcs.len() as u32;
        self.funcs.push(s.to_string());
        self.func_map.insert(s.to_string(), i);
        i
    }

    // ---- emission ----

    fn emit(&mut self, op: Op, sdelta: i32, idelta: i32) {
        self.ops.push(op);
        self.cur_stack = (self.cur_stack as i64 + i64::from(sdelta)) as usize;
        self.max_stack = self.max_stack.max(self.cur_stack);
        self.cur_idx = (self.cur_idx as i64 + i64::from(idelta)) as usize;
        self.max_idx = self.max_idx.max(self.cur_idx);
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn patch(&mut self, at: u32) {
        let target = self.here();
        match &mut self.ops[at as usize] {
            Op::AndJump(t)
            | Op::OrJump(t)
            | Op::JumpIfZero(t)
            | Op::Jump(t)
            | Op::LoopHead { exit: t, .. } => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    /// If the ops emitted since `start` are exactly one `Const`, remove
    /// it and return its value (constant-folding hook).
    fn take_const(&mut self, start: usize) -> Option<f64> {
        if self.ops.len() == start + 1 {
            if let Op::Const(v) = self.ops[start] {
                self.ops.pop();
                self.cur_stack -= 1;
                return Some(v);
            }
        }
        None
    }

    // ---- scopes ----

    fn alloc_slot(&mut self) -> u32 {
        let s = self.next_slot;
        self.next_slot += 1;
        self.frame_size = self.frame_size.max(self.next_slot);
        s as u32
    }

    fn alloc_ireg(&mut self, range: (i64, i64)) -> u32 {
        let r = self.next_ireg;
        self.next_ireg += 1;
        self.ireg_count = self.ireg_count.max(self.next_ireg);
        if r == self.ireg_range.len() {
            self.ireg_range.push(range);
        } else {
            self.ireg_range[r] = range;
        }
        r as u32
    }

    fn resolve_var(&self, name: &str) -> VarRef {
        for v in self.scope.iter().rev() {
            if v.name == name {
                return match v.ireg {
                    Some(ireg) => VarRef::Loop { slot: v.slot, ireg },
                    None => VarRef::Slot(v.slot),
                };
            }
        }
        // Runtime globals shadow compile-time parameters (they are
        // pushed after them in the VM), and the last binding of a name
        // wins.
        if let Some(pos) = self.ctx.globals.iter().rposition(|g| g == name) {
            return VarRef::Slot(pos as u32);
        }
        if let Some(&c) = self.ctx.consts.get(name) {
            return VarRef::Const(c);
        }
        VarRef::Unbound
    }

    // ---- affine analysis ----

    fn affine_of(&self, e: &Expr) -> Option<AffForm> {
        match e {
            Expr::Int(v) => Some(AffForm::konst(*v)),
            Expr::Num(v) if v.fract() == 0.0 && v.is_finite() && v.abs() < 2e12 => {
                Some(AffForm::konst(*v as i64))
            }
            Expr::Var(n) => match self.resolve_var(n) {
                VarRef::Loop { ireg, .. } => Some(AffForm {
                    c: 0,
                    terms: vec![(ireg, 1)],
                }),
                VarRef::Const(c) => Some(AffForm::konst(c)),
                _ => None,
            },
            Expr::Unary {
                op: UnOp::Neg,
                expr,
            } => AffForm::konst(0).add_scaled(&self.affine_of(expr)?, -1),
            Expr::Binary { op, lhs, rhs } => {
                let l = self.affine_of(lhs)?;
                let r = self.affine_of(rhs)?;
                match op {
                    BinOp::Add => l.add_scaled(&r, 1),
                    BinOp::Sub => l.add_scaled(&r, -1),
                    BinOp::Mul if l.terms.is_empty() => AffForm::konst(0).add_scaled(&r, l.c),
                    BinOp::Mul if r.terms.is_empty() => AffForm::konst(0).add_scaled(&l, r.c),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Conservative `[min, max]` of an affine form over the loop
    /// ranges; `None` on overflow or if too large for exact `f64`
    /// subscript arithmetic (→ dynamic path keeps tree-walk parity).
    fn interval(&self, f: &AffForm) -> Option<(i64, i64)> {
        let mut mn = f.c;
        let mut mx = f.c;
        for &(r, a) in &f.terms {
            let (rlo, rhi) = self.ireg_range[r as usize];
            let (tlo, thi) = if a >= 0 {
                (a.checked_mul(rlo)?, a.checked_mul(rhi)?)
            } else {
                (a.checked_mul(rhi)?, a.checked_mul(rlo)?)
            };
            mn = mn.checked_add(tlo)?;
            mx = mx.checked_add(thi)?;
        }
        const EXACT: i64 = 1 << 52;
        if mn.abs() >= EXACT || mx.abs() >= EXACT {
            return None;
        }
        Some((mn, mx))
    }

    /// Try to strength-reduce an access into a [`LinEntry`].
    fn try_lin(&mut self, array_raw: &str, subs: &[Expr]) -> Option<u32> {
        let shape = self
            .shapes
            .get(self.canonical(array_raw))
            .copied()
            .flatten()?;
        if shape.len() != subs.len() {
            return None;
        }
        let forms: Vec<AffForm> = subs
            .iter()
            .map(|s| self.affine_of(s))
            .collect::<Option<_>>()?;
        let mut in_bounds = true;
        let mut ivals = Vec::with_capacity(forms.len());
        for (f, &(lo, hi)) in forms.iter().zip(shape) {
            let (mn, mx) = self.interval(f)?;
            ivals.push((mn, mx));
            if !(mn >= lo && mx <= hi) {
                in_bounds = false;
            }
        }
        let array = self.intern_array(array_raw);
        let name = self.intern_name(array_raw);
        let entry = if in_bounds {
            // Fuse strides: offset = Σ (v_k - lo_k)·stride_k.
            let mut strides = vec![1i64; shape.len()];
            for k in (0..shape.len()).rev().skip(1) {
                let extent = shape[k + 1].1 - shape[k + 1].0 + 1;
                strides[k] = strides[k + 1].checked_mul(extent)?;
            }
            let mut base = 0i64;
            let mut terms: Vec<(u32, i64)> = vec![];
            for (k, f) in forms.iter().enumerate() {
                base = base.checked_add(f.c.checked_sub(shape[k].0)?.checked_mul(strides[k])?)?;
                for &(r, a) in &f.terms {
                    let fused = a.checked_mul(strides[k])?;
                    match terms.iter_mut().find(|(rr, _)| *rr == r) {
                        Some((_, acc)) => *acc = acc.checked_add(fused)?,
                        None => terms.push((r, fused)),
                    }
                }
            }
            terms.retain(|&(_, a)| a != 0);
            terms.sort_unstable_by_key(|&(r, _)| r);
            LinEntry {
                array,
                name,
                base,
                terms,
                checks: None,
            }
        } else {
            LinEntry {
                array,
                name,
                base: 0,
                terms: vec![],
                checks: Some(
                    forms
                        .iter()
                        .zip(shape)
                        .map(|(f, &(lo, hi))| LinDim {
                            c: f.c,
                            terms: f.terms.clone(),
                            lo,
                            hi,
                        })
                        .collect(),
                ),
            }
        };
        let id = self.lins.len() as u32;
        self.lins.push(entry);
        Some(id)
    }

    // ---- expressions ----

    fn compile_expr(&mut self, e: &Expr) {
        match e {
            Expr::Num(v) => self.emit(Op::Const(*v), 1, 0),
            Expr::Int(v) => self.emit(Op::Const(*v as f64), 1, 0),
            Expr::Var(n) => match self.resolve_var(n) {
                VarRef::Slot(s) | VarRef::Loop { slot: s, .. } => self.emit(Op::LoadSlot(s), 1, 0),
                VarRef::Const(c) => self.emit(Op::Const(c as f64), 1, 0),
                VarRef::Unbound => {
                    let n = self.intern_name(n);
                    self.emit(Op::ErrVar(n), 1, 0);
                }
            },
            Expr::Index { array, subs } => {
                if let Some(lin) = self.try_lin(array, subs) {
                    self.emit(Op::ReadLin(lin), 1, 0);
                } else {
                    let name = self.intern_name(array);
                    for s in subs {
                        self.compile_expr(s);
                        self.emit(Op::ToIdx(name), -1, 1);
                    }
                    let id = self.intern_array(array);
                    self.emit(
                        Op::ReadDyn {
                            array: id,
                            name,
                            rank: subs.len() as u32,
                        },
                        1,
                        -(subs.len() as i32),
                    );
                }
            }
            Expr::Binary { op, lhs, rhs } => self.compile_binary(*op, lhs, rhs),
            Expr::Unary { op, expr } => {
                let start = self.ops.len();
                self.compile_expr(expr);
                if let Some(v) = self.take_const(start) {
                    self.emit(Op::Const(apply_un(*op, v)), 1, 0);
                } else {
                    self.emit(Op::Un(*op), 0, 0);
                }
            }
            Expr::If { cond, then, els } => {
                let start = self.ops.len();
                self.compile_expr(cond);
                if let Some(c) = self.take_const(start) {
                    // Dead branch eliminated: the tree-walker would not
                    // evaluate it either, so no counter divergence.
                    self.compile_expr(if c != 0.0 { then } else { els });
                    return;
                }
                let jz = self.here();
                self.emit(Op::JumpIfZero(0), -1, 0);
                let base = self.cur_stack;
                self.compile_expr(then);
                let jend = self.here();
                self.emit(Op::Jump(0), 0, 0);
                self.patch(jz);
                self.cur_stack = base;
                self.compile_expr(els);
                self.patch(jend);
            }
            Expr::Let { binds, body } => {
                let scope_depth = self.scope.len();
                let slot_mark = self.next_slot;
                for (name, rhs) in binds {
                    self.compile_expr(rhs);
                    let slot = self.alloc_slot();
                    self.emit(Op::StoreSlot(slot), -1, 0);
                    self.scope.push(ScopeVar {
                        name: name.clone(),
                        slot,
                        ireg: None,
                    });
                }
                self.compile_expr(body);
                self.scope.truncate(scope_depth);
                self.next_slot = slot_mark;
            }
            Expr::Call { func, args } => {
                let f = self.intern_func(func);
                self.emit(Op::ResolveFunc(f), 0, 0);
                for a in args {
                    self.compile_expr(a);
                }
                self.emit(
                    Op::Call {
                        func: f,
                        argc: args.len() as u32,
                    },
                    1 - args.len() as i32,
                    0,
                );
            }
        }
    }

    fn compile_binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) {
        match op {
            BinOp::And => {
                let start = self.ops.len();
                self.compile_expr(lhs);
                if let Some(l) = self.take_const(start) {
                    if l == 0.0 {
                        self.emit(Op::Const(0.0), 1, 0);
                    } else {
                        // Tree-walk `&&` returns the rhs value raw.
                        self.compile_expr(rhs);
                    }
                    return;
                }
                let j = self.here();
                self.emit(Op::AndJump(0), -1, 0);
                self.compile_expr(rhs);
                self.patch(j);
            }
            BinOp::Or => {
                let start = self.ops.len();
                self.compile_expr(lhs);
                if let Some(l) = self.take_const(start) {
                    if l != 0.0 {
                        self.emit(Op::Const(1.0), 1, 0);
                    } else {
                        let rstart = self.ops.len();
                        self.compile_expr(rhs);
                        match self.take_const(rstart) {
                            Some(r) => self.emit(Op::Const(if r != 0.0 { 1.0 } else { 0.0 }), 1, 0),
                            None => self.emit(Op::OrNorm, 0, 0),
                        }
                    }
                    return;
                }
                let j = self.here();
                self.emit(Op::OrJump(0), -1, 0);
                self.compile_expr(rhs);
                self.emit(Op::OrNorm, 0, 0);
                self.patch(j);
            }
            _ => {
                let lstart = self.ops.len();
                self.compile_expr(lhs);
                let rstart = self.ops.len();
                self.compile_expr(rhs);
                if lstart + 1 == rstart && rstart + 1 == self.ops.len() {
                    if let (Op::Const(l), Op::Const(r)) = (&self.ops[lstart], &self.ops[rstart]) {
                        let (l, r) = (*l, *r);
                        self.ops.truncate(lstart);
                        self.cur_stack -= 2;
                        self.emit(Op::Const(apply_bin(op, l, r)), 1, 0);
                        return;
                    }
                }
                self.emit(Op::Bin(op), -1, 0);
            }
        }
    }

    // ---- statements ----

    fn compile_stmts(&mut self, stmts: &[LStmt]) {
        for s in stmts {
            self.compile_stmt(s);
        }
    }

    fn compile_stmt(&mut self, s: &LStmt) {
        match s {
            LStmt::Alloc {
                array,
                bounds,
                fill,
                temp,
                checked,
            } => {
                let id = self.intern_array(array);
                let a = self.allocs.len() as u32;
                self.allocs.push(AllocEntry {
                    array: id,
                    bounds: bounds.clone(),
                    fill: *fill,
                    temp: *temp,
                    checked: *checked,
                });
                self.emit(Op::Alloc(a), 0, 0);
            }
            LStmt::For {
                var,
                start,
                end,
                step,
                par,
                red,
                body,
            } => {
                let slot = self.alloc_slot();
                let ireg_mark = self.next_ireg;
                let range = (*start.min(end), *start.max(end));
                let ireg = self.alloc_ireg(range);
                self.emit(
                    Op::LoopInit {
                        ireg,
                        start: *start,
                    },
                    0,
                    0,
                );
                let head = self.here();
                self.loop_vars.push((head, var.clone()));
                self.emit(
                    Op::LoopHead {
                        ireg,
                        slot,
                        end: *end,
                        step: *step,
                        exit: 0,
                        par: *par,
                        red: *red,
                    },
                    0,
                    0,
                );
                self.scope.push(ScopeVar {
                    name: var.clone(),
                    slot,
                    ireg: Some(ireg),
                });
                self.compile_stmts(body);
                self.scope.pop();
                self.emit(
                    Op::LoopNext {
                        ireg,
                        step: *step,
                        head,
                    },
                    0,
                    0,
                );
                self.patch(head);
                self.next_slot = slot as usize;
                self.next_ireg = ireg_mark;
            }
            LStmt::Store {
                array,
                subs,
                value,
                check,
            } => {
                let checked = *check == StoreCheck::Monolithic;
                if let Some(lin) = self.try_lin(array, subs) {
                    self.compile_expr(value);
                    self.emit(Op::StoreLin { lin, checked }, -1, 0);
                } else {
                    let name = self.intern_name(array);
                    for sub in subs {
                        self.compile_expr(sub);
                        self.emit(Op::ToIdx(name), -1, 1);
                    }
                    self.compile_expr(value);
                    let id = self.intern_array(array);
                    self.emit(
                        Op::StoreDyn {
                            array: id,
                            name,
                            rank: subs.len() as u32,
                            checked,
                        },
                        -1,
                        -(subs.len() as i32),
                    );
                }
            }
            LStmt::If { cond, then, els } => {
                let start = self.ops.len();
                self.compile_expr(cond);
                if let Some(c) = self.take_const(start) {
                    self.compile_stmts(if c != 0.0 { then } else { els });
                    return;
                }
                let jz = self.here();
                self.emit(Op::JumpIfZero(0), -1, 0);
                self.compile_stmts(then);
                if els.is_empty() {
                    self.patch(jz);
                } else {
                    let jend = self.here();
                    self.emit(Op::Jump(0), 0, 0);
                    self.patch(jz);
                    self.compile_stmts(els);
                    self.patch(jend);
                }
            }
            LStmt::Let { binds, body } => {
                let scope_depth = self.scope.len();
                let slot_mark = self.next_slot;
                for (name, rhs) in binds {
                    self.compile_expr(rhs);
                    let slot = self.alloc_slot();
                    self.emit(Op::StoreSlot(slot), -1, 0);
                    self.scope.push(ScopeVar {
                        name: name.clone(),
                        slot,
                        ireg: None,
                    });
                }
                self.compile_stmts(body);
                self.scope.truncate(scope_depth);
                self.next_slot = slot_mark;
            }
            LStmt::CopyArray { dst, src } => {
                let did = self.intern_array(dst);
                let sid = self.intern_array(src);
                let src_name = self.intern_name(src);
                self.emit(
                    Op::Copy {
                        dst: did,
                        src: sid,
                        src_name,
                    },
                    0,
                    0,
                );
            }
            LStmt::CheckComplete { array } => {
                let id = self.intern_array(array);
                let name = self.intern_name(array);
                self.emit(Op::CheckComplete { array: id, name }, 0, 0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limp::Vm;
    use hac_lang::parser::parse_expr;

    /// Dividing by a power of two whose reciprocal is normal equals
    /// multiplying by that reciprocal, bit for bit, for normal,
    /// subnormal, zero, infinite and NaN operands, and for quotients
    /// that overflow or underflow.
    #[test]
    fn power_of_two_division_equals_reciprocal_multiplication() {
        let mut xs = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            3.0,
            0.1,
            f64::EPSILON,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
            f64::MAX,
            -f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..2048 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            xs.push(f64::from_bits(state));
        }
        let mut divisors = 0;
        for e in -1100..=1100 {
            for sign in [1.0, -1.0] {
                let c: f64 = sign * 2f64.powi(e);
                let Some(r) = exact_reciprocal(c) else {
                    assert!(!(c.is_normal() && (1.0 / c).is_normal()), "{c:e}");
                    continue;
                };
                assert_eq!(r, 1.0 / c);
                for &x in &xs {
                    assert_eq!((x / c).to_bits(), (x * r).to_bits(), "{x:e} / {c:e}");
                }
                divisors += 1;
            }
        }
        // 2^-1022 ..= 2^1022, both signs.
        assert_eq!(divisors, 2 * 2045);
    }

    /// Any other divisor keeps its division: the rounded reciprocal of
    /// 3 would move the last bit of some quotients.
    #[test]
    fn other_divisors_keep_their_division() {
        for c in [
            3.0,
            -3.0,
            0.1,
            10.0,
            1.5,
            f64::MIN_POSITIVE / 2.0,
            2f64.powi(1023),
            0.0,
            f64::INFINITY,
            f64::NAN,
        ] {
            assert_eq!(exact_reciprocal(c), None, "{c:e}");
        }
        assert!((1..100).any(|k| (k as f64 / 3.0).to_bits() != (k as f64 * (1.0 / 3.0)).to_bits()));
    }

    fn store(array: &str, sub: &str, value: &str, check: StoreCheck) -> LStmt {
        LStmt::Store {
            array: array.into(),
            subs: vec![parse_expr(sub).unwrap()],
            value: parse_expr(value).unwrap(),
            check,
        }
    }

    fn squares() -> LProgram {
        LProgram {
            stmts: vec![
                LStmt::Alloc {
                    array: "a".into(),
                    bounds: vec![(1, 5)],
                    fill: 0.0,
                    temp: false,
                    checked: false,
                },
                LStmt::For {
                    var: "i".into(),
                    start: 1,
                    end: 5,
                    step: 1,
                    par: false,
                    red: false,
                    body: vec![store("a", "i", "i * i", StoreCheck::None)],
                },
            ],
            result: "a".into(),
        }
    }

    #[test]
    fn compiles_affine_store_to_unchecked_lin() {
        let tape = compile_tape(&squares(), &TapeCtx::default());
        assert_eq!(tape.lins.len(), 1);
        assert!(tape.lins[0].checks.is_none(), "interval proof succeeded");
        assert_eq!(tape.lins[0].terms, vec![(0, 1)]);
        assert_eq!(tape.lins[0].base, -1, "lo = 1 folds into the base");
    }

    #[test]
    fn tape_matches_tree_walk_on_squares() {
        let prog = squares();
        let tape = compile_tape(&prog, &TapeCtx::default());
        let mut vm = Vm::new();
        vm.run_tape(&tape, 1).unwrap();
        assert_eq!(vm.array("a").unwrap().data(), &[1.0, 4.0, 9.0, 16.0, 25.0]);
        assert_eq!(vm.counters.stores, 5);
        assert_eq!(vm.counters.loop_iterations, 5);
        assert_eq!(vm.counters.loads, 0);
        assert!(vm.counters.tape_ops > 0);

        let mut tw = Vm::new();
        tw.run(&prog).unwrap();
        assert_eq!(tw.array("a").unwrap().data(), vm.array("a").unwrap().data());
    }

    #[test]
    fn constant_folding_removes_arithmetic() {
        let prog = LProgram {
            stmts: vec![
                LStmt::Alloc {
                    array: "a".into(),
                    bounds: vec![(1, 1)],
                    fill: 0.0,
                    temp: false,
                    checked: false,
                },
                store("a", "1", "2 * 3 + 1", StoreCheck::None),
            ],
            result: "a".into(),
        };
        let tape = compile_tape(&prog, &TapeCtx::default());
        assert!(
            tape.ops
                .iter()
                .any(|o| matches!(o, Op::Const(v) if *v == 7.0)),
            "folded to 7: {:?}",
            tape.ops
        );
        assert!(!tape.ops.iter().any(|o| matches!(o, Op::Bin(_))));
    }

    #[test]
    fn lazy_unbound_names_only_error_when_reached() {
        // Zero-trip loop over a store to an unbound array: fine.
        let prog = LProgram {
            stmts: vec![LStmt::For {
                var: "i".into(),
                start: 5,
                end: 4,
                step: 1,
                par: false,
                red: false,
                body: vec![store("zzz", "i", "nope + 1", StoreCheck::None)],
            }],
            result: String::new(),
        };
        let tape = compile_tape(&prog, &TapeCtx::default());
        let mut vm = Vm::new();
        vm.run_tape(&tape, 1).unwrap();
        assert_eq!(vm.counters.loop_iterations, 0);
    }

    #[test]
    fn short_circuit_parity() {
        // `0 > 1 && nope > 0` must not touch the unbound rhs.
        let prog = LProgram {
            stmts: vec![
                LStmt::Alloc {
                    array: "a".into(),
                    bounds: vec![(1, 1)],
                    fill: 9.0,
                    temp: false,
                    checked: false,
                },
                LStmt::If {
                    cond: parse_expr("0 > 1 && nope > 0").unwrap(),
                    then: vec![store("a", "1", "1", StoreCheck::None)],
                    els: vec![],
                },
            ],
            result: "a".into(),
        };
        let tape = compile_tape(&prog, &TapeCtx::default());
        let mut vm = Vm::new();
        vm.run_tape(&tape, 1).unwrap();
        assert_eq!(vm.array("a").unwrap().data(), &[9.0]);
    }

    #[test]
    fn out_of_bounds_parity() {
        let prog = LProgram {
            stmts: vec![
                LStmt::Alloc {
                    array: "a".into(),
                    bounds: vec![(1, 3)],
                    fill: 0.0,
                    temp: false,
                    checked: false,
                },
                store("a", "7", "1", StoreCheck::None),
            ],
            result: "a".into(),
        };
        let tape = compile_tape(&prog, &TapeCtx::default());
        let e1 = Vm::new().run_tape(&tape, 1).unwrap_err();
        let e2 = Vm::new().run(&prog).unwrap_err();
        assert_eq!(e1, e2);
        assert!(matches!(e1, RuntimeError::OutOfBounds { .. }));
    }
}
