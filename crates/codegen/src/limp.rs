//! "Limp" — the loop-imperative target IR of thunkless code generation,
//! and its instrumented virtual machine.
//!
//! A [`LProgram`] is what the paper means by compiling a comprehension
//! "into DO loops" (§3.1): concrete-bounds counted loops, direct
//! stores into flat `f64` buffers, and (only where the analysis could
//! not discharge them) runtime collision/definedness checks. The VM
//! counts stores, loads, check operations, loop iterations, and
//! temporary allocations so benchmarks can report exactly which runtime
//! work each optimization removed.

use std::collections::HashMap;

use hac_lang::ast::Expr;
use hac_runtime::error::RuntimeError;
use hac_runtime::governor::{FaultPlan, Meter};
use hac_runtime::value::{
    as_int, builtin, eval_expr_metered, ArrayBuf, ArrayReader, FuncTable, IdxBuf, Scalars,
};

use crate::tape::{HostFn, TapeProgram, TapeScratch, TapeState};

/// Per-store checking mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreCheck {
    /// The analysis proved no collision is possible: plain store.
    None,
    /// Track definedness and fail on a second definition (§4/§7).
    Monolithic,
}

/// One Limp statement.
#[derive(Debug, Clone, PartialEq)]
pub enum LStmt {
    /// Allocate (or reallocate) an array filled with `fill`.
    Alloc {
        array: String,
        bounds: Vec<(i64, i64)>,
        fill: f64,
        /// Temporaries are counted separately (node-splitting buffers).
        temp: bool,
        /// Track a definedness bitmap for this array.
        checked: bool,
    },
    /// A counted loop: iterates `var = start, start+step, ...` while
    /// `step > 0 ? var <= end : var >= end`.
    For {
        var: String,
        start: i64,
        end: i64,
        step: i64,
        /// §10 verdict: iterations are proven mutually independent, so
        /// an engine may execute them in any order or concurrently.
        /// Purely an enabling annotation — `false` is always safe.
        par: bool,
        /// Reduction verdict: every carried dependence is a
        /// reassociable accumulator recurrence, so a fused engine may
        /// stream the fold left-to-right in one dispatch (preserving
        /// the scalar operation order). Like `par`, an enabling
        /// annotation only — `false` is always safe.
        red: bool,
        body: Vec<LStmt>,
    },
    /// `array!(subs) := value`.
    Store {
        array: String,
        subs: Vec<Expr>,
        value: Expr,
        check: StoreCheck,
    },
    /// Conditional execution.
    If {
        cond: Expr,
        then: Vec<LStmt>,
        els: Vec<LStmt>,
    },
    /// Scoped scalar bindings.
    Let {
        binds: Vec<(String, Expr)>,
        body: Vec<LStmt>,
    },
    /// Copy `src` into `dst` (same shape), counting the elements.
    CopyArray { dst: String, src: String },
    /// Verify every element of a checked array is defined (§4).
    CheckComplete { array: String },
}

/// A complete Limp program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LProgram {
    pub stmts: Vec<LStmt>,
    /// The array holding the program's result.
    pub result: String,
}

impl LProgram {
    /// Render an indented listing (reports/tests).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.stmts {
            render(s, 0, &mut out);
        }
        out
    }

    /// Count statements of each kind (structure metrics for tests).
    pub fn store_count(&self) -> usize {
        fn go(stmts: &[LStmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    LStmt::Store { .. } => 1,
                    LStmt::For { body, .. } | LStmt::Let { body, .. } => go(body),
                    LStmt::If { then, els, .. } => go(then) + go(els),
                    _ => 0,
                })
                .sum()
        }
        go(&self.stmts)
    }
}

fn render(s: &LStmt, indent: usize, out: &mut String) {
    use std::fmt::Write as _;
    let pad = "  ".repeat(indent);
    match s {
        LStmt::Alloc {
            array,
            bounds,
            temp,
            checked,
            ..
        } => {
            let kind = if *temp { "temp" } else { "array" };
            let chk = if *checked { " checked" } else { "" };
            let _ = writeln!(out, "{pad}alloc {kind} {array} {bounds:?}{chk}");
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
            let tag = if *par {
                " par"
            } else if *red {
                " red"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{pad}for {var} = {start},{},..{end}{tag}:",
                start + step
            );
            for b in body {
                render(b, indent + 1, out);
            }
        }
        LStmt::Store {
            array,
            subs,
            value,
            check,
        } => {
            let ss = subs
                .iter()
                .map(hac_lang::pretty::expr_str)
                .collect::<Vec<_>>()
                .join(",");
            let chk = match check {
                StoreCheck::None => "",
                StoreCheck::Monolithic => " [checked]",
            };
            let _ = writeln!(
                out,
                "{pad}{array}!({ss}) := {}{chk}",
                hac_lang::pretty::expr_str(value)
            );
        }
        LStmt::If { cond, then, els } => {
            let _ = writeln!(out, "{pad}if {}:", hac_lang::pretty::expr_str(cond));
            for b in then {
                render(b, indent + 1, out);
            }
            if !els.is_empty() {
                let _ = writeln!(out, "{pad}else:");
                for b in els {
                    render(b, indent + 1, out);
                }
            }
        }
        LStmt::Let { binds, body } => {
            let names: Vec<&str> = binds.iter().map(|(n, _)| n.as_str()).collect();
            let _ = writeln!(out, "{pad}let {}:", names.join(", "));
            for b in body {
                render(b, indent + 1, out);
            }
        }
        LStmt::CopyArray { dst, src } => {
            let _ = writeln!(out, "{pad}copy {src} -> {dst}");
        }
        LStmt::CheckComplete { array } => {
            let _ = writeln!(out, "{pad}check-complete {array}");
        }
    }
}

/// VM instrumentation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmCounters {
    pub stores: u64,
    pub loads: u64,
    /// Collision / definedness checks executed.
    pub check_ops: u64,
    pub loop_iterations: u64,
    /// Elements allocated for node-splitting temporaries.
    pub temp_elements: u64,
    /// Elements copied by `CopyArray`.
    pub elements_copied: u64,
    /// Whole arrays allocated (result + temporaries).
    pub array_allocs: u64,
    /// Bytecode instructions dispatched by the tape engine. Zero when
    /// the tree-walking evaluator ran; every other counter means the
    /// same thing under both engines. A fused `Op::VecLoop`
    /// superinstruction counts the scalar span it overlays (per the
    /// accounting contract in `tape`), not the single dispatch it
    /// took, so fusion never changes this counter.
    pub tape_ops: u64,
    /// Parallel-engine worker faults absorbed by the sequential
    /// fallback. Main-thread bookkeeping only: never merged from
    /// worker chunks, so it stays zero on fault-free runs and the
    /// other counters remain bit-identical across engines.
    pub engine_faults: u64,
}

/// The Limp virtual machine.
#[derive(Debug, Default)]
pub struct Vm {
    arrays: HashMap<String, ArrayBuf>,
    defined: HashMap<String, Vec<bool>>,
    aliases: HashMap<String, String>,
    globals: Vec<(String, f64)>,
    funcs: FuncTable,
    /// Reusable tape scratch (operand stack, frame, registers): kept on
    /// the VM so repeated `run_tape` calls never reallocate.
    scratch: TapeScratch,
    /// Resource budget charged as the program runs; unlimited unless
    /// installed with [`Vm::with_meter`].
    meter: Meter,
    /// Deterministic fault-injection plan for the parallel engine
    /// (tests / `--fault-plan`).
    faults: Option<FaultPlan>,
    pub counters: VmCounters,
}

impl Vm {
    /// A VM with no arrays bound.
    pub fn new() -> Vm {
        Vm::default()
    }

    /// Bind an input array.
    pub fn bind(&mut self, name: impl Into<String>, buf: ArrayBuf) -> &mut Self {
        self.arrays.insert(name.into(), buf);
        self
    }

    /// Move a whole environment of arrays in (no copies).
    pub fn bind_all(&mut self, arrays: HashMap<String, ArrayBuf>) -> &mut Self {
        if self.arrays.is_empty() {
            self.arrays = arrays;
        } else {
            self.arrays.extend(arrays);
        }
        self
    }

    /// Consume the VM, returning every bound array (no copies).
    pub fn into_arrays(self) -> HashMap<String, ArrayBuf> {
        self.arrays
    }

    /// Register scalar functions callable from expressions.
    pub fn with_funcs(&mut self, funcs: FuncTable) -> &mut Self {
        self.funcs = funcs;
        self
    }

    /// Install a resource meter. The meter is charged in place, so a
    /// caller running several programs on one budget moves the meter
    /// from VM to VM with [`Vm::take_meter`].
    pub fn with_meter(&mut self, meter: Meter) -> &mut Self {
        self.meter = meter;
        self
    }

    /// Remove the meter (leaving an unlimited one), returning it with
    /// whatever budget is left.
    pub fn take_meter(&mut self) -> Meter {
        std::mem::take(&mut self.meter)
    }

    /// Install a fault-injection plan for the parallel engine. `None`
    /// (the default) injects nothing.
    pub fn with_faults(&mut self, faults: Option<FaultPlan>) -> &mut Self {
        self.faults = faults;
        self
    }

    /// Bind a global scalar (program parameters like `n`) visible to
    /// every expression.
    pub fn set_global(&mut self, name: impl Into<String>, v: f64) -> &mut Self {
        self.globals.push((name.into(), v));
        self
    }

    /// Route every access to `name` to `target`'s buffer (in-place
    /// `bigupd`: the result name aliases the base array).
    pub fn alias(&mut self, name: impl Into<String>, target: impl Into<String>) -> &mut Self {
        self.aliases.insert(name.into(), target.into());
        self
    }

    fn resolve<'n>(&'n self, name: &'n str) -> &'n str {
        let mut cur = name;
        while let Some(next) = self.aliases.get(cur) {
            cur = next;
        }
        cur
    }

    /// The buffer bound to `name` (after aliasing).
    pub fn array(&self, name: &str) -> Option<&ArrayBuf> {
        self.arrays.get(self.resolve(name))
    }

    /// Remove and return a buffer.
    pub fn take(&mut self, name: &str) -> Option<ArrayBuf> {
        let key = self.resolve(name).to_string();
        self.arrays.remove(&key)
    }

    /// Execute a program.
    ///
    /// # Errors
    /// Propagates evaluation failures, collisions, and incomplete
    /// checked arrays.
    pub fn run(&mut self, prog: &LProgram) -> Result<(), RuntimeError> {
        let mut scalars = Scalars::new();
        for (name, v) in &self.globals {
            scalars.push(name.clone(), *v);
        }
        self.exec(&prog.stmts, &mut scalars)
    }

    /// Execute a compiled bytecode tape on `threads` workers.
    ///
    /// The tape must have been compiled with the same aliases this VM
    /// routes through (`compile_tape` canonicalizes array names at
    /// compile time; the pipeline guarantees the two agree). Buffers
    /// are moved out of the name map into dense slots for the duration
    /// of the run and restored afterwards — on success *and* on error,
    /// so partial results stay observable exactly as with [`Vm::run`].
    ///
    /// With more than one worker, top-level passes proven free of
    /// carried dependences are partitioned over the workers (§10, see
    /// [`crate::partape`]); everything else runs on the sequential
    /// path. The worker count is invisible: values, errors (lowest
    /// faulting iteration wins) and counters are bit-identical at
    /// every count.
    ///
    /// # Errors
    /// Identical failures, lazily raised, as the tree-walking [`Vm::run`].
    pub fn run_tape(&mut self, tape: &TapeProgram, threads: usize) -> Result<(), RuntimeError> {
        let faults = self.faults.clone();
        self.run_tape_with(tape, |tape, st| {
            crate::partape::exec_par(tape, st, threads, faults.as_ref())
        })
    }

    /// Run a chain of units' tapes whose last loops `merged` merges (see
    /// [`MergedLoop`](crate::tape::MergedLoop)): every tape's prefix in
    /// chain order, then the merged loop once. Values, counters and fuel
    /// come out as running the tapes one after another, provided
    /// [`MergedLoop::can_run`](crate::tape::MergedLoop::can_run) held
    /// for this VM's meter and bindings.
    ///
    /// # Errors
    /// None when that holds; a prefix's failure otherwise.
    pub fn run_merged(
        &mut self,
        tapes: &[&TapeProgram],
        merged: &crate::tape::MergedLoop,
    ) -> Result<(), RuntimeError> {
        for (tape, part) in tapes.iter().zip(&merged.parts) {
            self.run_tape_with(tape, |tape, st| tape.run_prefix(st, part))?;
        }
        self.run_tape_with(&merged.tape, |_, st| {
            merged.run_loop(st);
            Ok(())
        })
    }

    fn run_tape_with(
        &mut self,
        tape: &TapeProgram,
        exec: impl FnOnce(&TapeProgram, &mut TapeState<'_>) -> Result<(), RuntimeError>,
    ) -> Result<(), RuntimeError> {
        let mut bufs: Vec<Option<ArrayBuf>> = tape
            .arrays
            .iter()
            .map(|n| {
                let key = self.resolve(n).to_string();
                self.arrays.remove(&key)
            })
            .collect();
        let mut defined: Vec<Option<Vec<bool>>> = tape
            .arrays
            .iter()
            .map(|n| {
                let key = self.resolve(n).to_string();
                self.defined.remove(&key)
            })
            .collect();
        let funcs: Vec<Option<HostFn>> = tape
            .funcs
            .iter()
            .map(|f| builtin(f).or_else(|| self.funcs.get(f).copied()))
            .collect();
        let mut scratch = std::mem::take(&mut self.scratch);
        tape.prepare(&mut scratch, &self.globals);
        let out = {
            let mut st = TapeState {
                bufs: &mut bufs,
                defined: &mut defined,
                funcs: &funcs,
                scratch: &mut scratch,
                counters: &mut self.counters,
                meter: &mut self.meter,
            };
            exec(tape, &mut st)
        };
        self.scratch = scratch;
        for (name, buf) in tape.arrays.iter().zip(bufs) {
            if let Some(buf) = buf {
                let key = self.resolve(name).to_string();
                self.arrays.insert(key, buf);
            }
        }
        for (name, bits) in tape.arrays.iter().zip(defined) {
            if let Some(bits) = bits {
                let key = self.resolve(name).to_string();
                self.defined.insert(key, bits);
            }
        }
        out
    }

    fn exec(&mut self, stmts: &[LStmt], scalars: &mut Scalars) -> Result<(), RuntimeError> {
        for s in stmts {
            self.exec_one(s, scalars)?;
        }
        Ok(())
    }

    fn exec_one(&mut self, s: &LStmt, scalars: &mut Scalars) -> Result<(), RuntimeError> {
        match s {
            LStmt::Alloc {
                array,
                bounds,
                fill,
                temp,
                checked,
            } => {
                self.meter
                    .charge_mem(ArrayBuf::footprint_bytes(bounds, *checked))?;
                let buf = ArrayBuf::new(bounds, *fill);
                self.counters.array_allocs += 1;
                if *temp {
                    self.counters.temp_elements += buf.len() as u64;
                }
                if *checked {
                    self.defined.insert(array.clone(), vec![false; buf.len()]);
                }
                self.arrays.insert(array.clone(), buf);
                Ok(())
            }
            LStmt::For {
                var,
                start,
                end,
                step,
                par: _,
                red: _,
                body,
            } => {
                debug_assert!(*step != 0);
                let mut i = *start;
                loop {
                    if (*step > 0 && i > *end) || (*step < 0 && i < *end) {
                        break;
                    }
                    self.meter.charge_fuel()?;
                    self.counters.loop_iterations += 1;
                    scalars.push(var.clone(), i as f64);
                    self.exec(body, scalars)?;
                    scalars.pop();
                    i += step;
                }
                Ok(())
            }
            LStmt::Store {
                array,
                subs,
                value,
                check,
            } => {
                let mut idx = IdxBuf::new();
                for e in subs {
                    let v = self.eval(e, scalars)?;
                    idx.push(as_int(array, v)?);
                }
                let v = self.eval(value, scalars)?;
                let key = self.resolve(array).to_string();
                if *check == StoreCheck::Monolithic {
                    self.counters.check_ops += 1;
                    let buf = self
                        .arrays
                        .get(&key)
                        .ok_or_else(|| RuntimeError::UnboundArray(array.clone()))?;
                    let off =
                        buf.offset(idx.as_slice())
                            .ok_or_else(|| RuntimeError::OutOfBounds {
                                array: array.clone(),
                                index: idx.as_slice().to_vec(),
                                bounds: buf.bounds(),
                            })?;
                    let d = self
                        .defined
                        .get_mut(&key)
                        .expect("checked store requires checked alloc");
                    if d[off] {
                        return Err(RuntimeError::WriteCollision {
                            array: array.clone(),
                            index: idx.as_slice().to_vec(),
                        });
                    }
                    d[off] = true;
                }
                let buf = self
                    .arrays
                    .get_mut(&key)
                    .ok_or_else(|| RuntimeError::UnboundArray(array.clone()))?;
                buf.set(array, idx.as_slice(), v)?;
                self.counters.stores += 1;
                Ok(())
            }
            LStmt::If { cond, then, els } => {
                let c = self.eval(cond, scalars)?;
                if c != 0.0 {
                    self.exec(then, scalars)
                } else {
                    self.exec(els, scalars)
                }
            }
            LStmt::Let { binds, body } => {
                let depth = scalars.depth();
                for (n, e) in binds {
                    let v = self.eval(e, scalars)?;
                    scalars.push(n.clone(), v);
                }
                let out = self.exec(body, scalars);
                scalars.truncate(depth);
                out
            }
            LStmt::CopyArray { dst, src } => {
                let skey = self.resolve(src).to_string();
                let len = self
                    .arrays
                    .get(&skey)
                    .ok_or_else(|| RuntimeError::UnboundArray(src.clone()))?
                    .len();
                self.meter.charge_mem(len as u64 * 8)?;
                // Charged and counted as a copy; the clone shares the
                // elements until the update's first store copies them.
                let buf = self.arrays[&skey].clone();
                self.counters.elements_copied += buf.len() as u64;
                self.counters.array_allocs += 1;
                self.arrays.insert(dst.clone(), buf);
                Ok(())
            }
            LStmt::CheckComplete { array } => {
                let key = self.resolve(array).to_string();
                let d = self
                    .defined
                    .get(&key)
                    .ok_or_else(|| RuntimeError::UnboundArray(array.clone()))?;
                self.counters.check_ops += d.len() as u64;
                if let Some(off) = d.iter().position(|x| !x) {
                    let buf = &self.arrays[&key];
                    let idx = unravel(buf, off);
                    return Err(RuntimeError::UndefinedElement {
                        array: array.clone(),
                        index: idx,
                    });
                }
                Ok(())
            }
        }
    }

    fn eval(&mut self, e: &Expr, scalars: &mut Scalars) -> Result<f64, RuntimeError> {
        // Split the borrow: reads go through a counting reader over the
        // arrays map.
        let mut reader = CountingReader {
            arrays: &self.arrays,
            aliases: &self.aliases,
            loads: &mut self.counters.loads,
        };
        eval_expr_metered(e, scalars, &mut reader, &self.funcs, &mut self.meter)
    }
}

pub(crate) fn unravel(buf: &ArrayBuf, mut off: usize) -> Vec<i64> {
    let bounds = buf.bounds();
    let mut idx = vec![0i64; bounds.len()];
    for k in (0..bounds.len()).rev() {
        let (lo, hi) = bounds[k];
        let extent = (hi - lo + 1).max(0) as usize;
        idx[k] = lo + (off % extent) as i64;
        off /= extent;
    }
    idx
}

struct CountingReader<'a> {
    arrays: &'a HashMap<String, ArrayBuf>,
    aliases: &'a HashMap<String, String>,
    loads: &'a mut u64,
}

impl ArrayReader for CountingReader<'_> {
    fn read_element(&mut self, array: &str, idx: &[i64]) -> Result<f64, RuntimeError> {
        let mut key = array;
        while let Some(next) = self.aliases.get(key) {
            key = next;
        }
        let buf = self
            .arrays
            .get(key)
            .ok_or_else(|| RuntimeError::UnboundArray(array.to_string()))?;
        *self.loads += 1;
        buf.get(array, idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_lang::parser::parse_expr;

    fn store(array: &str, sub: &str, value: &str, check: StoreCheck) -> LStmt {
        LStmt::Store {
            array: array.into(),
            subs: vec![parse_expr(sub).unwrap()],
            value: parse_expr(value).unwrap(),
            check,
        }
    }

    #[test]
    fn squares_program() {
        let prog = LProgram {
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
        };
        let mut vm = Vm::new();
        vm.run(&prog).unwrap();
        assert_eq!(vm.array("a").unwrap().data(), &[1.0, 4.0, 9.0, 16.0, 25.0]);
        assert_eq!(vm.counters.stores, 5);
        assert_eq!(vm.counters.loop_iterations, 5);
        assert_eq!(vm.counters.loads, 0);
    }

    #[test]
    fn backward_loop() {
        let prog = LProgram {
            stmts: vec![
                LStmt::Alloc {
                    array: "a".into(),
                    bounds: vec![(1, 4)],
                    fill: 0.0,
                    temp: false,
                    checked: false,
                },
                store("a", "4", "1", StoreCheck::None),
                LStmt::For {
                    var: "i".into(),
                    start: 3,
                    end: 1,
                    step: -1,
                    par: false,
                    red: false,
                    body: vec![store("a", "i", "a!(i+1) * 2", StoreCheck::None)],
                },
            ],
            result: "a".into(),
        };
        let mut vm = Vm::new();
        vm.run(&prog).unwrap();
        assert_eq!(vm.array("a").unwrap().data(), &[8.0, 4.0, 2.0, 1.0]);
        assert_eq!(vm.counters.loads, 3);
    }

    #[test]
    fn checked_store_detects_collision_and_empties() {
        let alloc = LStmt::Alloc {
            array: "a".into(),
            bounds: vec![(1, 3)],
            fill: 0.0,
            temp: false,
            checked: true,
        };
        // Collision.
        let prog = LProgram {
            stmts: vec![
                alloc.clone(),
                store("a", "2", "1", StoreCheck::Monolithic),
                store("a", "2", "2", StoreCheck::Monolithic),
            ],
            result: "a".into(),
        };
        let err = Vm::new().run(&prog).unwrap_err();
        assert!(matches!(err, RuntimeError::WriteCollision { .. }));
        // Empties.
        let prog2 = LProgram {
            stmts: vec![
                alloc,
                store("a", "2", "1", StoreCheck::Monolithic),
                LStmt::CheckComplete { array: "a".into() },
            ],
            result: "a".into(),
        };
        let err2 = Vm::new().run(&prog2).unwrap_err();
        assert!(matches!(err2, RuntimeError::UndefinedElement { index, .. } if index == vec![1]));
    }

    #[test]
    fn aliasing_routes_reads_and_writes() {
        let mut vm = Vm::new();
        let mut base = ArrayBuf::new(&[(1, 3)], 0.0);
        base.set("a", &[1], 5.0).unwrap();
        vm.bind("a", base);
        vm.alias("b", "a");
        let prog = LProgram {
            stmts: vec![store("b", "2", "b!1 + 1", StoreCheck::None)],
            result: "b".into(),
        };
        vm.run(&prog).unwrap();
        assert_eq!(vm.array("a").unwrap().get("a", &[2]).unwrap(), 6.0);
        assert_eq!(vm.array("b").unwrap().get("b", &[2]).unwrap(), 6.0);
    }

    #[test]
    fn copy_array_counts_elements() {
        let mut vm = Vm::new();
        vm.bind("src", ArrayBuf::new(&[(1, 10)], 3.0));
        let prog = LProgram {
            stmts: vec![LStmt::CopyArray {
                dst: "dst".into(),
                src: "src".into(),
            }],
            result: "dst".into(),
        };
        vm.run(&prog).unwrap();
        assert_eq!(vm.counters.elements_copied, 10);
        assert_eq!(vm.array("dst").unwrap().data()[0], 3.0);
    }

    #[test]
    fn if_and_let_scoping() {
        let prog = LProgram {
            stmts: vec![
                LStmt::Alloc {
                    array: "a".into(),
                    bounds: vec![(1, 2)],
                    fill: 0.0,
                    temp: true,
                    checked: false,
                },
                LStmt::Let {
                    binds: vec![("v".into(), parse_expr("21").unwrap())],
                    body: vec![LStmt::If {
                        cond: parse_expr("v > 10").unwrap(),
                        then: vec![store("a", "1", "v * 2", StoreCheck::None)],
                        els: vec![store("a", "1", "0", StoreCheck::None)],
                    }],
                },
            ],
            result: "a".into(),
        };
        let mut vm = Vm::new();
        vm.run(&prog).unwrap();
        assert_eq!(vm.array("a").unwrap().data()[0], 42.0);
        assert_eq!(vm.counters.temp_elements, 2);
    }

    #[test]
    fn zero_trip_loop() {
        let prog = LProgram {
            stmts: vec![LStmt::For {
                var: "i".into(),
                start: 5,
                end: 4,
                step: 1,
                par: false,
                red: false,
                body: vec![store("zzz", "i", "1", StoreCheck::None)],
            }],
            result: String::new(),
        };
        let mut vm = Vm::new();
        vm.run(&prog).unwrap();
        assert_eq!(vm.counters.loop_iterations, 0);
    }

    #[test]
    fn render_is_readable() {
        let prog = LProgram {
            stmts: vec![LStmt::For {
                var: "i".into(),
                start: 1,
                end: 3,
                step: 1,
                par: false,
                red: false,
                body: vec![store("a", "i", "i", StoreCheck::Monolithic)],
            }],
            result: "a".into(),
        };
        let r = prog.render();
        assert!(r.contains("for i"));
        assert!(r.contains("[checked]"));
        assert_eq!(prog.store_count(), 1);
    }
}
