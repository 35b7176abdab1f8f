//! Flat array buffers and the scalar expression evaluator.
//!
//! [`ArrayBuf`] is the dense row-major `f64` storage every execution
//! strategy shares; its elements are copy-on-write. [`eval_expr`]
//! evaluates the language's scalar expressions; array selections are
//! routed through an [`ArrayReader`] so the same evaluator serves strict
//! buffers, the demand-driven thunked runtime, and the loop-IR VM (each
//! with its own read semantics and instrumentation). Booleans are
//! represented as `0.0` / `1.0`. [`XorShift`] seeds reproducible input
//! arrays.

use std::collections::HashMap;
use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

use hac_lang::ast::{BinOp, Expr, UnOp};

use crate::error::RuntimeError;
use crate::governor::Meter;

/// Elements along one `(lo, hi)` dimension: 0 when `hi < lo`.
fn extent(&(lo, hi): &(i64, i64)) -> i128 {
    (i128::from(hi) - i128::from(lo) + 1).max(0)
}

/// A dense row-major array of `f64` with per-dimension inclusive
/// bounds.
///
/// The elements are shared between clones: `clone` copies the bounds
/// and bumps a reference count, and the first write to a buffer whose
/// elements are shared copies them (once) so the other holders never
/// see it. Equality compares elements by value, so an array holding a
/// NaN is unequal even to a clone that shares its storage.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayBuf {
    lo: Vec<i64>,
    hi: Vec<i64>,
    /// Never downgraded to a `Weak`: a strong count of one therefore
    /// means this buffer is the elements' only holder.
    data: Arc<[f64]>,
}

impl ArrayBuf {
    /// Allocate an array with the given `(lo, hi)` bounds, filled with
    /// `fill`. A dimension with `hi < lo` is empty (length 0), as in
    /// Haskell, however far `hi` falls below `lo`.
    pub fn new(bounds: &[(i64, i64)], fill: f64) -> ArrayBuf {
        let lo: Vec<i64> = bounds.iter().map(|b| b.0).collect();
        let hi: Vec<i64> = bounds.iter().map(|b| b.1).collect();
        let len = bounds
            .iter()
            .try_fold(1usize, |len, b| {
                len.checked_mul(usize::try_from(extent(b)).ok()?)
            })
            .expect("array length overflows usize");
        let data = if fill.to_bits() == 0 {
            // Zeroed pages straight from the allocator, as `vec![0.0; len]`.
            // SAFETY: the all-zero bit pattern is the `f64` `+0.0`.
            unsafe { Arc::<[f64]>::new_zeroed_slice(len).assume_init() }
        } else {
            std::iter::repeat_n(fill, len).collect()
        };
        ArrayBuf { lo, hi, data }
    }

    /// The array's rank.
    pub fn rank(&self) -> usize {
        self.lo.len()
    }

    /// Element-storage bytes an allocation with `bounds` will occupy —
    /// the figure charged against a memory-metered run *before* the
    /// buffer is built. See [`ArrayBuf::footprint_bytes`] for the full
    /// metered footprint including the definedness bitmap. Saturates
    /// at `u64::MAX`, which no memory limit admits.
    pub fn data_bytes(bounds: &[(i64, i64)]) -> u64 {
        bounds
            .iter()
            .map(|b| u64::try_from(extent(b)).unwrap_or(u64::MAX))
            .fold(8u64, u64::saturating_mul)
    }

    /// Metered footprint of an allocation: payload bytes plus, for a
    /// `checked` array, one byte per element for the definedness
    /// bitmap (`Vec<bool>`). Charged as a *single* amount before the
    /// buffer is built so the exhaustion payload (`used`/`requested`)
    /// is identical across engines. VM bookkeeping (name tables,
    /// scratch) stays uncounted: it is engine-specific and would make
    /// the accounting diverge between engines for the same program.
    pub fn footprint_bytes(bounds: &[(i64, i64)], checked: bool) -> u64 {
        let data = Self::data_bytes(bounds);
        data.saturating_add(if checked { data / 8 } else { 0 })
    }

    /// Per-dimension `(lo, hi)` bounds.
    pub fn bounds(&self) -> Vec<(i64, i64)> {
        self.lo
            .iter()
            .zip(self.hi.iter())
            .map(|(&l, &h)| (l, h))
            .collect()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` for a zero-element array.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major offset of a multi-index, or `None` when out of bounds
    /// or of the wrong rank.
    pub fn offset(&self, idx: &[i64]) -> Option<usize> {
        if idx.len() != self.lo.len() {
            return None;
        }
        let mut off = 0usize;
        for (k, &i) in idx.iter().enumerate() {
            if i < self.lo[k] || i > self.hi[k] {
                return None;
            }
            let extent = (self.hi[k] - self.lo[k] + 1) as usize;
            off = off * extent + (i - self.lo[k]) as usize;
        }
        Some(off)
    }

    /// Read an element.
    ///
    /// # Errors
    /// [`RuntimeError::OutOfBounds`] when the index escapes the bounds.
    pub fn get(&self, name: &str, idx: &[i64]) -> Result<f64, RuntimeError> {
        match self.offset(idx) {
            Some(o) => Ok(self.data[o]),
            None => Err(RuntimeError::OutOfBounds {
                array: name.to_string(),
                index: idx.to_vec(),
                bounds: self.bounds(),
            }),
        }
    }

    /// Write an element.
    ///
    /// # Errors
    /// [`RuntimeError::OutOfBounds`] when the index escapes the bounds.
    pub fn set(&mut self, name: &str, idx: &[i64], v: f64) -> Result<(), RuntimeError> {
        match self.offset(idx) {
            Some(o) => {
                self.data_mut()[o] = v;
                Ok(())
            }
            None => Err(RuntimeError::OutOfBounds {
                array: name.to_string(),
                index: idx.to_vec(),
                bounds: self.bounds(),
            }),
        }
    }

    /// The raw data, row-major.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data, row-major. Copies the elements first when
    /// they are shared with a clone.
    ///
    /// No reference count is modified when the elements are already
    /// this buffer's alone: the check is one atomic load. Engines that
    /// hand one buffer to several threads at once (the parallel tape)
    /// must therefore call [`ArrayBuf::make_unique`] on every buffer
    /// they will write *before* sharing it, so no worker ever copies.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        self.make_unique();
        // SAFETY: `&mut self` excludes every other use of this handle,
        // and no other handle exists: the strong count is one and the
        // field is never downgraded to a `Weak`. The acquire fence in
        // `is_unique` orders every access a dropped clone made before
        // this write, exactly as `Arc::get_mut` does.
        unsafe { &mut *Arc::as_ptr(&self.data).cast_mut() }
    }

    /// Copy the elements out of shared storage now (no-op when this
    /// buffer already holds them alone), so later writes through
    /// [`ArrayBuf::data_mut`] never copy.
    #[inline]
    pub fn make_unique(&mut self) {
        if !self.is_unique() {
            self.unshare();
        }
    }

    /// Whether this buffer holds its elements alone: a write would not
    /// copy them.
    #[inline]
    fn is_unique(&self) -> bool {
        let unique = Arc::strong_count(&self.data) == 1;
        fence(Ordering::Acquire);
        unique
    }

    /// Whether two buffers share one element storage (a clone that
    /// neither side has written since).
    pub fn shares_storage(&self, other: &ArrayBuf) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    #[cold]
    #[inline(never)]
    fn unshare(&mut self) {
        self.data = Arc::from(&self.data[..]);
    }

    /// Row-major element strides, one per dimension: the offset of
    /// `idx` is `Σ strides[k] * (idx[k] - lo[k])`. Compile-once
    /// consumers (the bytecode tape) fold these into fused linear
    /// accesses.
    pub fn strides(&self) -> Vec<i64> {
        let mut s = vec![1i64; self.lo.len()];
        for k in (0..self.lo.len()).rev().skip(1) {
            let extent = (self.hi[k + 1] - self.lo[k + 1] + 1).max(0);
            s[k] = s[k + 1] * extent;
        }
        s
    }

    /// Read by precomputed row-major offset (no bounds mapping).
    ///
    /// # Panics
    /// Panics if `off >= len()`; callers are expected to have proven
    /// the offset valid (e.g. by the tape compiler's interval check).
    pub fn linear(&self, off: usize) -> f64 {
        self.data[off]
    }

    /// Write by precomputed row-major offset (no bounds mapping).
    ///
    /// # Panics
    /// Panics if `off >= len()`.
    #[inline]
    pub fn set_linear(&mut self, off: usize, v: f64) {
        self.data_mut()[off] = v;
    }
}

/// A lifetime-erased, thread-shareable view of a mutable slice, for
/// engines that proved their concurrent accesses disjoint *at compile
/// time* (the §10 parallel tape: chunks of a dependence-free loop pass
/// write to disjoint elements of the shared buffers).
///
/// This is the split-borrow primitive `std::slice::split_at_mut`
/// cannot express: the disjointness here is per *element access*, not
/// per contiguous range — iteration `i` of a parallel pass may write
/// `a[p(i)]` for an arbitrary injective subscript map `p`. Each worker
/// therefore rematerializes a full `&mut [T]` and the *caller*
/// guarantees no two workers touch the same element with a write.
pub struct SharedSlots<T> {
    ptr: *mut T,
    len: usize,
}

// Safety: moving/sharing the view between threads is safe because the
// view itself is just a pointer; all dereferencing goes through the
// `unsafe` [`SharedSlots::slice_mut`], whose contract covers aliasing.
unsafe impl<T: Send> Send for SharedSlots<T> {}
unsafe impl<T: Send> Sync for SharedSlots<T> {}

impl<T> SharedSlots<T> {
    /// Capture a view of `slice`. The borrow ends at the call; the
    /// caller is responsible for keeping the backing storage alive and
    /// unmoved for as long as the view is dereferenced.
    pub fn new(slice: &mut [T]) -> SharedSlots<T> {
        SharedSlots {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// Rematerialize the mutable slice.
    ///
    /// # Safety
    /// The backing slice must still be live and unmoved, and for the
    /// lifetime of the returned borrow every concurrent holder must
    /// access *disjoint elements* (two readers of one element are fine;
    /// a writer excludes every other access to that element). The
    /// parallel tape discharges this with the §10 dependence proof:
    /// no carried dependence and no possible write collision means no
    /// two iterations of the partitioned pass touch a common element
    /// conflictingly.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self) -> &mut [T] {
        std::slice::from_raw_parts_mut(self.ptr, self.len)
    }
}

/// Resolves array selections during expression evaluation.
pub trait ArrayReader {
    /// Read element `idx` of `array`; demand-driven implementations may
    /// trigger further evaluation.
    fn read_element(&mut self, array: &str, idx: &[i64]) -> Result<f64, RuntimeError>;
}

/// An [`ArrayReader`] over a map of finished strict buffers.
pub struct MapReader<'a> {
    arrays: &'a HashMap<String, ArrayBuf>,
}

impl<'a> MapReader<'a> {
    /// Wrap a map of arrays.
    pub fn new(arrays: &'a HashMap<String, ArrayBuf>) -> MapReader<'a> {
        MapReader { arrays }
    }
}

impl ArrayReader for MapReader<'_> {
    fn read_element(&mut self, array: &str, idx: &[i64]) -> Result<f64, RuntimeError> {
        let buf = self
            .arrays
            .get(array)
            .ok_or_else(|| RuntimeError::UnboundArray(array.to_string()))?;
        buf.get(array, idx)
    }
}

/// A lexically scoped stack of scalar bindings.
///
/// Bindings carry a precomputed name hash so [`Scalars::lookup`]
/// rejects non-matching entries with one integer compare instead of a
/// string compare per stack slot.
#[derive(Debug, Clone, Default)]
pub struct Scalars {
    stack: Vec<(u64, String, f64)>,
}

/// FNV-1a over the binding name — cheap, and collisions only cost a
/// confirming byte compare.
fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl Scalars {
    /// An empty scope.
    pub fn new() -> Scalars {
        Scalars::default()
    }

    /// Push a binding; shadowing is by stack order.
    pub fn push(&mut self, name: impl Into<String>, v: f64) {
        let name = name.into();
        self.stack.push((name_hash(&name), name, v));
    }

    /// Pop the most recent binding.
    pub fn pop(&mut self) {
        self.stack.pop();
    }

    /// Look up the innermost binding of `name`.
    pub fn lookup(&self, name: &str) -> Option<f64> {
        let h = name_hash(name);
        self.stack
            .iter()
            .rev()
            .find(|(nh, n, _)| *nh == h && n == name)
            .map(|(_, _, v)| *v)
    }

    /// Current depth (for save/restore).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Truncate back to a saved depth.
    pub fn truncate(&mut self, depth: usize) {
        self.stack.truncate(depth);
    }

    /// Snapshot of all bindings (outermost first) — captured by thunks.
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        self.stack.iter().map(|(_, n, v)| (n.clone(), *v)).collect()
    }
}

/// User-registered scalar functions, plus maths builtins.
pub type FuncTable = HashMap<String, fn(&[f64]) -> f64>;

/// The practical maximum array rank; subscript vectors up to this
/// length live on the stack instead of the heap.
const INLINE_RANK: usize = 8;

/// A subscript buffer that avoids heap allocation for every realistic
/// rank: inline storage for up to `INLINE_RANK` dimensions, spilling
/// to a `Vec` beyond that.
#[derive(Debug)]
pub enum IdxBuf {
    /// Stack-resident subscripts (the common case).
    Inline { buf: [i64; INLINE_RANK], len: usize },
    /// Heap spill for pathological ranks.
    Heap(Vec<i64>),
}

impl IdxBuf {
    /// An empty buffer (no heap allocation).
    pub fn new() -> IdxBuf {
        IdxBuf::Inline {
            buf: [0; INLINE_RANK],
            len: 0,
        }
    }

    /// Append one subscript, spilling to the heap past the inline cap.
    pub fn push(&mut self, v: i64) {
        match self {
            IdxBuf::Inline { buf, len } => {
                if *len < INLINE_RANK {
                    buf[*len] = v;
                    *len += 1;
                } else {
                    let mut heap = buf.to_vec();
                    heap.push(v);
                    *self = IdxBuf::Heap(heap);
                }
            }
            IdxBuf::Heap(heap) => heap.push(v),
        }
    }

    /// The collected subscripts.
    pub fn as_slice(&self) -> &[i64] {
        match self {
            IdxBuf::Inline { buf, len } => &buf[..*len],
            IdxBuf::Heap(heap) => heap,
        }
    }
}

impl Default for IdxBuf {
    fn default() -> IdxBuf {
        IdxBuf::new()
    }
}

/// Evaluate a scalar expression without resource metering.
///
/// # Errors
/// Propagates unbound names, bad subscripts, and array read failures.
pub fn eval_expr(
    e: &Expr,
    scalars: &mut Scalars,
    arrays: &mut dyn ArrayReader,
    funcs: &FuncTable,
) -> Result<f64, RuntimeError> {
    let mut meter = Meter::unlimited();
    eval_expr_metered(e, scalars, arrays, funcs, &mut meter)
}

/// Evaluate a scalar expression, charging one fuel unit per function
/// call (after the arguments, matching the bytecode tape's `Call` op).
///
/// # Errors
/// Propagates unbound names, bad subscripts, array read failures, and
/// [`RuntimeError::FuelExhausted`].
pub fn eval_expr_metered(
    e: &Expr,
    scalars: &mut Scalars,
    arrays: &mut dyn ArrayReader,
    funcs: &FuncTable,
    meter: &mut Meter,
) -> Result<f64, RuntimeError> {
    match e {
        Expr::Num(v) => Ok(*v),
        Expr::Int(v) => Ok(*v as f64),
        Expr::Var(name) => scalars
            .lookup(name)
            .ok_or_else(|| RuntimeError::UnboundVariable(name.clone())),
        Expr::Index { array, subs } => {
            let mut idx = IdxBuf::new();
            for s in subs {
                let v = eval_expr_metered(s, scalars, arrays, funcs, meter)?;
                idx.push(as_int(array, v)?);
            }
            arrays.read_element(array, idx.as_slice())
        }
        Expr::Binary { op, lhs, rhs } => {
            // && and || short-circuit.
            match op {
                BinOp::And => {
                    let l = eval_expr_metered(lhs, scalars, arrays, funcs, meter)?;
                    if l == 0.0 {
                        return Ok(0.0);
                    }
                    return eval_expr_metered(rhs, scalars, arrays, funcs, meter);
                }
                BinOp::Or => {
                    let l = eval_expr_metered(lhs, scalars, arrays, funcs, meter)?;
                    if l != 0.0 {
                        return Ok(1.0);
                    }
                    let r = eval_expr_metered(rhs, scalars, arrays, funcs, meter)?;
                    return Ok(if r != 0.0 { 1.0 } else { 0.0 });
                }
                _ => {}
            }
            let l = eval_expr_metered(lhs, scalars, arrays, funcs, meter)?;
            let r = eval_expr_metered(rhs, scalars, arrays, funcs, meter)?;
            Ok(apply_bin(*op, l, r))
        }
        Expr::Unary { op, expr } => {
            let v = eval_expr_metered(expr, scalars, arrays, funcs, meter)?;
            Ok(apply_un(*op, v))
        }
        Expr::If { cond, then, els } => {
            let c = eval_expr_metered(cond, scalars, arrays, funcs, meter)?;
            if c != 0.0 {
                eval_expr_metered(then, scalars, arrays, funcs, meter)
            } else {
                eval_expr_metered(els, scalars, arrays, funcs, meter)
            }
        }
        Expr::Let { binds, body } => {
            let depth = scalars.depth();
            for (name, rhs) in binds {
                let v = eval_expr_metered(rhs, scalars, arrays, funcs, meter)?;
                scalars.push(name.clone(), v);
            }
            let out = eval_expr_metered(body, scalars, arrays, funcs, meter);
            scalars.truncate(depth);
            out
        }
        Expr::Call { func, args } => {
            let f = builtin(func)
                .or_else(|| funcs.get(func).copied())
                .ok_or_else(|| RuntimeError::UnknownFunction(func.clone()))?;
            let mut vs = Vec::with_capacity(args.len());
            for a in args {
                vs.push(eval_expr_metered(a, scalars, arrays, funcs, meter)?);
            }
            meter.charge_fuel()?;
            Ok(f(&vs))
        }
    }
}

/// Apply a (non-short-circuiting) binary operator.
pub fn apply_bin(op: BinOp, l: f64, r: f64) -> f64 {
    let b = |x: bool| if x { 1.0 } else { 0.0 };
    match op {
        BinOp::Add => l + r,
        BinOp::Sub => l - r,
        BinOp::Mul => l * r,
        BinOp::Div => l / r,
        // `mod 0` and `i64::MIN mod -1` have no integer result: NaN,
        // as a float division by zero has no finite one.
        BinOp::Mod => (l as i64)
            .checked_rem_euclid(r as i64)
            .map_or(f64::NAN, |m| m as f64),
        BinOp::Lt => b(l < r),
        BinOp::Le => b(l <= r),
        BinOp::Gt => b(l > r),
        BinOp::Ge => b(l >= r),
        BinOp::Eq => b(l == r),
        BinOp::Ne => b(l != r),
        BinOp::And => b(l != 0.0 && r != 0.0),
        BinOp::Or => b(l != 0.0 || r != 0.0),
        BinOp::Min => l.min(r),
        BinOp::Max => l.max(r),
    }
}

/// Apply a unary operator: the one definition the tree walker, the
/// tape dispatcher, its fused kernels and its constant folder share,
/// so every engine computes the same bits.
#[inline]
pub fn apply_un(op: UnOp, v: f64) -> f64 {
    match op {
        UnOp::Neg => -v,
        UnOp::Not => {
            if v == 0.0 {
                1.0
            } else {
                0.0
            }
        }
        UnOp::Abs => v.abs(),
        UnOp::Sqrt => v.sqrt(),
        UnOp::Exp => v.exp(),
        UnOp::Log => v.ln(),
        UnOp::Sin => v.sin(),
        UnOp::Cos => v.cos(),
    }
}

/// The builtin maths function bound to `name`, if any. Builtins take
/// precedence over user registrations in [`FuncTable`].
pub fn builtin(name: &str) -> Option<fn(&[f64]) -> f64> {
    Some(match name {
        "sqrt" => |a: &[f64]| a[0].sqrt(),
        "abs" => |a: &[f64]| a[0].abs(),
        "exp" => |a: &[f64]| a[0].exp(),
        "log" => |a: &[f64]| a[0].ln(),
        "sin" => |a: &[f64]| a[0].sin(),
        "cos" => |a: &[f64]| a[0].cos(),
        "pow" => |a: &[f64]| a[0].powf(a[1]),
        "hypot" => |a: &[f64]| a[0].hypot(a[1]),
        "floor" => |a: &[f64]| a[0].floor(),
        _ => return None,
    })
}

/// Coerce an evaluated subscript to an integer.
///
/// # Errors
/// [`RuntimeError::NonIntegerSubscript`] if the value has a fractional
/// part.
pub fn as_int(array: &str, v: f64) -> Result<i64, RuntimeError> {
    if v.fract() == 0.0 && v.is_finite() {
        Ok(v as i64)
    } else {
        Err(RuntimeError::NonIntegerSubscript {
            array: array.to_string(),
            value: v,
        })
    }
}

/// A tiny deterministic xorshift PRNG for reproducible inputs.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// Seeded generator (seed must be nonzero; zero is remapped).
    pub fn new(seed: u64) -> XorShift {
        XorShift(if seed == 0 { 0x9E3779B97F4A7C15 } else { seed })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform-ish f64 in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_lang::parser::parse_expr;

    fn eval(src: &str, arrays: &HashMap<String, ArrayBuf>, binds: &[(&str, f64)]) -> f64 {
        let e = parse_expr(src).unwrap();
        let mut sc = Scalars::new();
        for (n, v) in binds {
            sc.push(*n, *v);
        }
        let mut reader = MapReader::new(arrays);
        eval_expr(&e, &mut sc, &mut reader, &FuncTable::new()).unwrap()
    }

    #[test]
    fn arraybuf_roundtrip_2d() {
        let mut b = ArrayBuf::new(&[(1, 3), (1, 4)], 0.0);
        assert_eq!(b.len(), 12);
        b.set("a", &[2, 3], 7.5).unwrap();
        assert_eq!(b.get("a", &[2, 3]).unwrap(), 7.5);
        assert_eq!(b.get("a", &[1, 1]).unwrap(), 0.0);
        assert!(b.get("a", &[0, 1]).is_err());
        assert!(b.get("a", &[2, 5]).is_err());
        assert!(b.get("a", &[2]).is_err());
    }

    #[test]
    fn clones_share_elements_until_one_writes() {
        let mut a = ArrayBuf::new(&[(1, 4)], 1.5);
        a.set("a", &[2], 7.0).unwrap();
        let mut b = a.clone();
        assert!(b.shares_storage(&a));
        assert!(!a.is_unique() && !b.is_unique());
        // The first write copies; the other holder keeps its elements.
        b.set_linear(0, 9.0);
        assert!(!b.shares_storage(&a));
        assert!(a.is_unique() && b.is_unique());
        assert_eq!(a.data(), &[1.5, 7.0, 1.5, 1.5]);
        assert_eq!(b.data(), &[9.0, 7.0, 1.5, 1.5]);
        // A unique buffer writes in place: no further copy.
        let before = b.data().as_ptr();
        b.data_mut()[3] = 0.5;
        assert_eq!(b.data().as_ptr(), before);
        let mut c = b.clone();
        c.make_unique();
        assert!(!c.shares_storage(&b));
        assert_eq!(c, b);
    }

    #[test]
    fn equality_is_by_value_even_over_shared_storage() {
        let a = ArrayBuf::new(&[(1, 2)], f64::NAN);
        let b = a.clone();
        assert!(b.shares_storage(&a));
        assert_ne!(a, b, "NaN never equals NaN, shared or not");
        let z = ArrayBuf::new(&[(1, 3)], 0.0);
        assert_eq!(z, ArrayBuf::new(&[(1, 3)], 0.0));
        assert_eq!(z.data(), &[0.0, 0.0, 0.0]);
        assert_ne!(z, ArrayBuf::new(&[(0, 2)], 0.0), "bounds count too");
    }

    #[test]
    fn offsets_are_row_major() {
        let b = ArrayBuf::new(&[(0, 1), (0, 2)], 0.0);
        assert_eq!(b.offset(&[0, 0]), Some(0));
        assert_eq!(b.offset(&[0, 2]), Some(2));
        assert_eq!(b.offset(&[1, 0]), Some(3));
    }

    #[test]
    fn zero_size_dimension() {
        for bounds in [[(1, 0)], [(2, 0)], [(5, -3)]] {
            let b = ArrayBuf::new(&bounds, 0.0);
            assert!(b.is_empty());
            assert_eq!(b.offset(&[1]), None);
            assert_eq!(ArrayBuf::data_bytes(&bounds), 0);
        }
        let b = ArrayBuf::new(&[(1, 3), (2, 0)], 0.0);
        assert!(b.is_empty());
        assert_eq!(b.bounds(), vec![(1, 3), (2, 0)]);
    }

    #[test]
    fn mod_without_an_integer_result_is_nan() {
        assert_eq!(apply_bin(BinOp::Mod, -7.0, 3.0), 2.0);
        assert!(apply_bin(BinOp::Mod, 7.0, 0.0).is_nan());
        assert!(apply_bin(BinOp::Mod, 7.0, 0.5).is_nan());
        assert!(apply_bin(BinOp::Mod, i64::MIN as f64, -1.0).is_nan());
    }

    #[test]
    fn arithmetic_and_comparison() {
        let arrays = HashMap::new();
        assert_eq!(eval("1 + 2 * 3", &arrays, &[]), 7.0);
        assert_eq!(eval("7 mod 3", &arrays, &[]), 1.0);
        assert_eq!(eval("if 2 < 3 then 10 else 20", &arrays, &[]), 10.0);
        assert_eq!(eval("min(4, 9)", &arrays, &[]), 4.0);
        assert_eq!(eval("-i + 1", &arrays, &[("i", 5.0)]), -4.0);
    }

    #[test]
    fn array_selection() {
        let mut arrays = HashMap::new();
        let mut b = ArrayBuf::new(&[(1, 5)], 0.0);
        b.set("a", &[3], 42.0).unwrap();
        arrays.insert("a".to_string(), b);
        assert_eq!(eval("a!3 * 2", &arrays, &[]), 84.0);
        assert_eq!(eval("a!(i+1)", &arrays, &[("i", 2.0)]), 42.0);
    }

    #[test]
    fn let_scoping_and_shadowing() {
        let arrays = HashMap::new();
        assert_eq!(
            eval("let v = i + 1; w = v * 2 in v + w", &arrays, &[("i", 1.0)]),
            2.0 + 4.0
        );
        assert_eq!(eval("let i = i + 1 in i", &arrays, &[("i", 10.0)]), 11.0);
    }

    #[test]
    fn short_circuit() {
        // Unbound RHS variable must not be touched.
        let arrays = HashMap::new();
        assert_eq!(eval("0 > 1 && nope > 0", &arrays, &[]), 0.0);
        assert_eq!(eval("1 > 0 || nope > 0", &arrays, &[]), 1.0);
    }

    #[test]
    fn errors_propagate() {
        let e = parse_expr("a!(1)").unwrap();
        let arrays = HashMap::new();
        let mut reader = MapReader::new(&arrays);
        let r = eval_expr(&e, &mut Scalars::new(), &mut reader, &FuncTable::new());
        assert!(matches!(r, Err(RuntimeError::UnboundArray(_))));
        let e2 = parse_expr("x + 1").unwrap();
        let r2 = eval_expr(&e2, &mut Scalars::new(), &mut reader, &FuncTable::new());
        assert!(matches!(r2, Err(RuntimeError::UnboundVariable(_))));
    }

    #[test]
    fn fractional_subscript_rejected() {
        let mut arrays = HashMap::new();
        arrays.insert("a".to_string(), ArrayBuf::new(&[(1, 5)], 0.0));
        let e = parse_expr("a!(i)").unwrap();
        let mut sc = Scalars::new();
        sc.push("i", 1.5);
        let mut reader = MapReader::new(&arrays);
        let r = eval_expr(&e, &mut sc, &mut reader, &FuncTable::new());
        assert!(matches!(r, Err(RuntimeError::NonIntegerSubscript { .. })));
    }

    #[test]
    fn custom_functions() {
        let e = parse_expr("omega(2, 3)").unwrap();
        let mut funcs = FuncTable::new();
        funcs.insert("omega".to_string(), |a: &[f64]| a[0] * 10.0 + a[1]);
        let arrays = HashMap::new();
        let mut reader = MapReader::new(&arrays);
        let v = eval_expr(&e, &mut Scalars::new(), &mut reader, &funcs).unwrap();
        assert_eq!(v, 23.0);
    }
}
