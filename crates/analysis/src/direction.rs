//! Dependence direction vectors (§5, §6).
//!
//! A direction vector labels a dependence edge with one component per
//! *shared* loop surrounding both the source and the sink reference,
//! outermost first. Component semantics relate the **source** instance
//! `x_k` to the **sink** instance `y_k` of loop `k`:
//!
//! * `<` — `x_k < y_k`: the source is computed at an "earlier" value of
//!   the loop index than the sink (earlier in *index space*, not time —
//!   the paper is explicit that functional arrays have no a-priori
//!   temporal order).
//! * `=` — `x_k = y_k`: same loop instance.
//! * `>` — `x_k > y_k`: source at a "later" index value.
//! * `*` — unconstrained.

use std::fmt;

/// One direction-vector component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    Lt,
    Eq,
    Gt,
    /// Unconstrained (`*`).
    Any,
}

impl Dir {
    /// The three refinements of `*`; a concrete component refines only
    /// to itself.
    pub fn refinements(self) -> &'static [Dir] {
        match self {
            Dir::Any => &[Dir::Lt, Dir::Eq, Dir::Gt],
            Dir::Lt => &[Dir::Lt],
            Dir::Eq => &[Dir::Eq],
            Dir::Gt => &[Dir::Gt],
        }
    }

    /// Swap `<` and `>` (used when re-orienting an edge).
    pub fn flip(self) -> Dir {
        match self {
            Dir::Lt => Dir::Gt,
            Dir::Gt => Dir::Lt,
            other => other,
        }
    }

    /// `true` if `other` satisfies this constraint (`*` admits all).
    pub fn admits(self, other: Dir) -> bool {
        self == Dir::Any || self == other
    }

    /// The surface symbol.
    pub fn symbol(self) -> char {
        match self {
            Dir::Lt => '<',
            Dir::Eq => '=',
            Dir::Gt => '>',
            Dir::Any => '*',
        }
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// A direction vector over the shared loops of an edge, outermost
/// first. The empty vector labels loop-independent dependences between
/// references that share no loop (the paper's `()` edges).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DirVec(pub Vec<Dir>);

impl DirVec {
    /// The all-`*` vector of length `n` (the refinement-tree root).
    pub fn any(n: usize) -> DirVec {
        DirVec(vec![Dir::Any; n])
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` for the empty vector.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The outermost component, if any.
    pub fn first(&self) -> Option<Dir> {
        self.0.first().copied()
    }

    /// Drop the outermost component (recursing into an inner loop,
    /// §8.2.3: "strip off the leading `=`").
    pub fn strip_first(&self) -> DirVec {
        DirVec(self.0.iter().skip(1).copied().collect())
    }

    /// Flip every component (re-orient the edge).
    pub fn flip(&self) -> DirVec {
        DirVec(self.0.iter().map(|d| d.flip()).collect())
    }

    /// `true` if `other` (of the same length) refines this vector
    /// componentwise.
    pub fn admits(&self, other: &DirVec) -> bool {
        self.len() == other.len() && self.0.iter().zip(other.0.iter()).all(|(a, b)| a.admits(*b))
    }

    /// Index of the first non-`=` component, i.e. the loop level that
    /// *carries* the dependence (`None` when loop-independent: all `=`
    /// or empty). Level 0 is the outermost loop, matching the paper's
    /// "loop-carried at level 0" terminology.
    pub fn carried_level(&self) -> Option<usize> {
        self.0.iter().position(|d| *d != Dir::Eq)
    }

    /// `true` when all components are `=` (or the vector is empty):
    /// source and sink are in the same instance of every shared loop.
    pub fn is_loop_independent(&self) -> bool {
        self.carried_level().is_none()
    }

    /// A dependence whose outermost non-`=` component is `>` (or `*`,
    /// which includes `>`) is *implausible* as written: it would mean
    /// the source instance follows the sink in every legal sequential
    /// order of that loop... but for functional arrays **no** order is
    /// prescribed, so such vectors are genuine and kept. This helper
    /// instead reports whether the vector could be realized by a
    /// *forward* run of every loop (used to pick default directions).
    pub fn forward_realizable(&self) -> bool {
        match self.carried_level() {
            None => true,
            Some(k) => matches!(self.0[k], Dir::Lt | Dir::Any),
        }
    }

    /// All fully concrete (no `*`) refinements of this vector, in
    /// lexicographic `<`,`=`,`>` order.
    pub fn concretizations(&self) -> Vec<DirVec> {
        let mut out = vec![Vec::new()];
        for d in &self.0 {
            let mut next = Vec::with_capacity(out.len() * 3);
            for prefix in &out {
                for r in d.refinements() {
                    let mut v = prefix.clone();
                    v.push(*r);
                    next.push(v);
                }
            }
            out = next;
        }
        out.into_iter().map(DirVec).collect()
    }
}

impl fmt::Display for DirVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Dir>> for DirVec {
    fn from(v: Vec<Dir>) -> DirVec {
        DirVec(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_notation() {
        let dv = DirVec(vec![Dir::Eq, Dir::Gt]);
        assert_eq!(dv.to_string(), "(=,>)");
        assert_eq!(DirVec::default().to_string(), "()");
        assert_eq!(DirVec::any(3).to_string(), "(*,*,*)");
    }

    #[test]
    fn carried_level() {
        assert_eq!(DirVec(vec![Dir::Eq, Dir::Lt]).carried_level(), Some(1));
        assert_eq!(DirVec(vec![Dir::Gt, Dir::Lt]).carried_level(), Some(0));
        assert_eq!(DirVec(vec![Dir::Eq, Dir::Eq]).carried_level(), None);
        assert!(DirVec::default().is_loop_independent());
    }

    #[test]
    fn admits_and_refine() {
        let root = DirVec::any(2);
        let leaf = DirVec(vec![Dir::Lt, Dir::Gt]);
        assert!(root.admits(&leaf));
        assert!(!leaf.admits(&root));
        assert!(!root.admits(&DirVec::any(3)));
        assert_eq!(root.concretizations().len(), 9);
        assert_eq!(leaf.concretizations(), vec![leaf.clone()]);
    }

    #[test]
    fn flip_swaps_lt_gt() {
        let dv = DirVec(vec![Dir::Lt, Dir::Eq, Dir::Gt, Dir::Any]);
        assert_eq!(dv.flip(), DirVec(vec![Dir::Gt, Dir::Eq, Dir::Lt, Dir::Any]));
        assert_eq!(dv.flip().flip(), dv);
    }

    #[test]
    fn strip_first_for_inner_loops() {
        let dv = DirVec(vec![Dir::Eq, Dir::Lt]);
        assert_eq!(dv.strip_first(), DirVec(vec![Dir::Lt]));
        assert_eq!(dv.first(), Some(Dir::Eq));
    }

    #[test]
    fn forward_realizability() {
        assert!(DirVec(vec![Dir::Lt, Dir::Gt]).forward_realizable());
        assert!(!DirVec(vec![Dir::Eq, Dir::Gt]).forward_realizable());
        assert!(DirVec(vec![Dir::Eq, Dir::Eq]).forward_realizable());
    }
}
