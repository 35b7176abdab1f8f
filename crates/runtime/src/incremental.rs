//! Incremental-array substrates (§9 and its related work [5, 11]):
//! the run-time schemes whose costs the paper's compile-time analysis
//! avoids.
//!
//! * [`CowArray`] — reference-counted copy-on-write: `update` copies
//!   the whole buffer when the array is shared, writes in place when it
//!   is not ("reference counting").
//! * [`TrailerArray`] — Baker-style version arrays ("array trailers"):
//!   updates are O(1) and old versions stay readable through difference
//!   nodes; reads of a stale version pay a reroot.
//! * [`bigupd_copy`] / [`bigupd_inplace`] — the two ends of the §9
//!   spectrum the benchmarks compare.
//!
//! All substrates count the copies they perform.

use std::cell::RefCell;
use std::rc::Rc;

use crate::error::RuntimeError;
use crate::value::ArrayBuf;

/// Copy statistics shared by the incremental substrates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CopyCounters {
    /// Whole-buffer copies.
    pub array_copies: u64,
    /// Individual elements copied (`array_copies` × length plus any
    /// partial copies).
    pub elements_copied: u64,
}

/// A reference-counted copy-on-write functional array.
#[derive(Debug, Clone)]
pub struct CowArray {
    buf: Rc<ArrayBuf>,
}

impl CowArray {
    /// Wrap a buffer.
    pub fn new(buf: ArrayBuf) -> CowArray {
        CowArray { buf: Rc::new(buf) }
    }

    /// Read an element.
    ///
    /// # Errors
    /// [`RuntimeError::OutOfBounds`].
    pub fn get(&self, name: &str, idx: &[i64]) -> Result<f64, RuntimeError> {
        self.buf.get(name, idx)
    }

    /// Functional single-element update: in place when this is the only
    /// reference, full copy otherwise.
    ///
    /// # Errors
    /// [`RuntimeError::OutOfBounds`].
    pub fn update(
        mut self,
        name: &str,
        idx: &[i64],
        v: f64,
        counters: &mut CopyCounters,
    ) -> Result<CowArray, RuntimeError> {
        if Rc::get_mut(&mut self.buf).is_none() {
            counters.array_copies += 1;
            counters.elements_copied += self.buf.len() as u64;
            self.buf = Rc::new((*self.buf).clone());
        }
        Rc::get_mut(&mut self.buf)
            .expect("unshared after clone")
            .set(name, idx, v)?;
        Ok(self)
    }
}

/// A persistent array implemented with trailers (difference nodes).
///
/// The newest version holds the flat buffer; older versions chain
/// `Diff { idx, old value }` nodes toward it. Reading a stale version
/// reroots the structure so the read version becomes the master —
/// classic Baker "shallow binding".
#[derive(Debug, Clone)]
pub struct TrailerArray {
    node: Rc<RefCell<VNode>>,
}

#[derive(Debug)]
enum VNode {
    Master(ArrayBuf),
    Diff {
        off: usize,
        val: f64,
        next: TrailerArray,
    },
}

/// Instrumentation for trailer arrays.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrailerCounters {
    /// Difference nodes created by updates.
    pub diff_nodes: u64,
    /// Diff-node inversions performed by reroots.
    pub reroot_steps: u64,
}

impl TrailerArray {
    /// Wrap a buffer as the master version.
    pub fn new(buf: ArrayBuf) -> TrailerArray {
        TrailerArray {
            node: Rc::new(RefCell::new(VNode::Master(buf))),
        }
    }

    /// Functional update: O(1), returning the new version; the old
    /// version remains readable.
    ///
    /// # Errors
    /// [`RuntimeError::OutOfBounds`].
    pub fn update(
        &self,
        name: &str,
        idx: &[i64],
        v: f64,
        counters: &mut TrailerCounters,
    ) -> Result<TrailerArray, RuntimeError> {
        self.reroot(counters);
        let mut node = self.node.borrow_mut();
        let VNode::Master(buf) = &mut *node else {
            unreachable!("reroot leaves self as master")
        };
        let off = buf.offset(idx).ok_or_else(|| RuntimeError::OutOfBounds {
            array: name.to_string(),
            index: idx.to_vec(),
            bounds: buf.bounds(),
        })?;
        let old = buf.data()[off];
        buf.data_mut()[off] = v;
        // Move the master into the new version; self becomes a diff.
        let master = match std::mem::replace(
            &mut *node,
            VNode::Diff {
                off,
                val: old,
                next: TrailerArray {
                    node: Rc::new(RefCell::new(VNode::Master(ArrayBuf::new(&[], 0.0)))),
                },
            },
        ) {
            VNode::Master(b) => b,
            VNode::Diff { .. } => unreachable!(),
        };
        let new = TrailerArray {
            node: Rc::new(RefCell::new(VNode::Master(master))),
        };
        *node = VNode::Diff {
            off,
            val: old,
            next: new.clone(),
        };
        counters.diff_nodes += 1;
        drop(node);
        Ok(new)
    }

    /// Read an element; reroots first so repeated reads of the same
    /// version are O(1) amortized.
    ///
    /// # Errors
    /// [`RuntimeError::OutOfBounds`].
    pub fn get(
        &self,
        name: &str,
        idx: &[i64],
        counters: &mut TrailerCounters,
    ) -> Result<f64, RuntimeError> {
        self.reroot(counters);
        let node = self.node.borrow();
        let VNode::Master(buf) = &*node else {
            unreachable!("reroot leaves self as master")
        };
        buf.get(name, idx)
    }

    /// Make `self` the master by inverting the diff chain.
    fn reroot(&self, counters: &mut TrailerCounters) {
        // Collect the chain from self to the current master.
        let mut chain: Vec<TrailerArray> = vec![self.clone()];
        loop {
            let last = chain.last().expect("nonempty").clone();
            let next = {
                let node = last.node.borrow();
                match &*node {
                    VNode::Master(_) => None,
                    VNode::Diff { next, .. } => Some(next.clone()),
                }
            };
            match next {
                Some(n) => chain.push(n),
                None => break,
            }
        }
        // Invert from master back toward self.
        for w in (0..chain.len() - 1).rev() {
            let cur = &chain[w]; // a Diff pointing at chain[w+1]
            let nxt = &chain[w + 1]; // currently the master
            let (off, val) = {
                let node = cur.node.borrow();
                match &*node {
                    VNode::Diff { off, val, .. } => (*off, *val),
                    VNode::Master(_) => unreachable!("chain interior must be a diff"),
                }
            };
            let mut master = match std::mem::replace(
                &mut *nxt.node.borrow_mut(),
                VNode::Diff {
                    off,
                    val: 0.0,
                    next: cur.clone(),
                },
            ) {
                VNode::Master(b) => b,
                VNode::Diff { .. } => unreachable!("next must be master"),
            };
            let new_old = master.data()[off];
            master.data_mut()[off] = val;
            *nxt.node.borrow_mut() = VNode::Diff {
                off,
                val: new_old,
                next: cur.clone(),
            };
            *cur.node.borrow_mut() = VNode::Master(master);
            counters.reroot_steps += 1;
        }
    }
}

/// Apply a batch of updates by copying the whole array first (the naive
/// §9 baseline).
pub fn bigupd_copy(
    base: &ArrayBuf,
    updates: impl IntoIterator<Item = (Vec<i64>, f64)>,
    counters: &mut CopyCounters,
) -> Result<ArrayBuf, RuntimeError> {
    counters.array_copies += 1;
    counters.elements_copied += base.len() as u64;
    let mut out = base.clone();
    for (idx, v) in updates {
        out.set("<bigupd>", &idx, v)?;
    }
    Ok(out)
}

/// Apply a batch of updates in place (legal only when the caller has
/// proven single-threadedness — that is what §9's analysis is for).
pub fn bigupd_inplace(
    base: &mut ArrayBuf,
    updates: impl IntoIterator<Item = (Vec<i64>, f64)>,
) -> Result<(), RuntimeError> {
    for (idx, v) in updates {
        base.set("<bigupd>", &idx, v)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota(n: i64) -> ArrayBuf {
        let mut b = ArrayBuf::new(&[(1, n)], 0.0);
        for i in 1..=n {
            b.set("a", &[i], i as f64).unwrap();
        }
        b
    }

    #[test]
    fn cow_updates_in_place_when_unshared() {
        let mut counters = CopyCounters::default();
        let a = CowArray::new(iota(4));
        let a = a.update("a", &[2], 20.0, &mut counters).unwrap();
        assert_eq!(a.get("a", &[2]).unwrap(), 20.0);
        assert_eq!(counters.array_copies, 0, "unshared update must not copy");
    }

    #[test]
    fn cow_copies_when_shared() {
        let mut counters = CopyCounters::default();
        let a = CowArray::new(iota(4));
        let b = a.clone();
        let c = a.update("a", &[2], 20.0, &mut counters).unwrap();
        assert_eq!(counters.array_copies, 1);
        assert_eq!(counters.elements_copied, 4);
        assert_eq!(b.get("a", &[2]).unwrap(), 2.0, "old version unchanged");
        assert_eq!(c.get("a", &[2]).unwrap(), 20.0);
    }

    #[test]
    fn trailer_versions_coexist() {
        let mut tc = TrailerCounters::default();
        let v0 = TrailerArray::new(iota(3));
        let v1 = v0.update("a", &[1], 10.0, &mut tc).unwrap();
        let v2 = v1.update("a", &[2], 20.0, &mut tc).unwrap();
        assert_eq!(v2.get("a", &[1], &mut tc).unwrap(), 10.0);
        assert_eq!(v2.get("a", &[2], &mut tc).unwrap(), 20.0);
        assert_eq!(v0.get("a", &[1], &mut tc).unwrap(), 1.0);
        assert_eq!(v0.get("a", &[2], &mut tc).unwrap(), 2.0);
        // Reading v2 again after touching v0 must reroot back.
        assert_eq!(v2.get("a", &[2], &mut tc).unwrap(), 20.0);
        assert_eq!(v1.get("a", &[1], &mut tc).unwrap(), 10.0);
        assert_eq!(v1.get("a", &[2], &mut tc).unwrap(), 2.0);
        assert_eq!(tc.diff_nodes, 2);
        assert!(tc.reroot_steps > 0);
    }

    #[test]
    fn trailer_single_threaded_is_cheap() {
        // Threaded use (always newest version) never reroots.
        let mut tc = TrailerCounters::default();
        let mut v = TrailerArray::new(iota(8));
        for i in 1..=8 {
            v = v.update("a", &[i], 0.0, &mut tc).unwrap();
        }
        assert_eq!(tc.reroot_steps, 0);
        assert_eq!(tc.diff_nodes, 8);
    }

    #[test]
    fn bigupd_copy_vs_inplace_agree() {
        let base = iota(5);
        let updates = vec![(vec![1], 9.0), (vec![4], 7.0)];
        let mut counters = CopyCounters::default();
        let copied = bigupd_copy(&base, updates.clone(), &mut counters).unwrap();
        let mut inplace = base.clone();
        bigupd_inplace(&mut inplace, updates).unwrap();
        assert_eq!(copied, inplace);
        assert_eq!(counters.array_copies, 1);
    }

    #[test]
    fn out_of_bounds_update_fails() {
        let mut counters = CopyCounters::default();
        let a = CowArray::new(iota(3));
        assert!(a.update("a", &[9], 0.0, &mut counters).is_err());
    }
}
