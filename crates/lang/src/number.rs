//! Clause and loop numbering, and loop-nest extraction.
//!
//! Subscript analysis and scheduling both work with *identities*: two
//! array references share a loop when they sit under the same generator
//! *node*, not merely under generators that happen to use the same index
//! name. This pass assigns a [`ClauseId`] to every s/v clause and a
//! [`LoopId`] to every generator, in left-to-right source order, and can
//! then extract each clause's *path*: the exact interleaving of loops,
//! guards and `let` bindings from the comprehension root down to the
//! clause.

use crate::ast::{ClauseId, Comp, Expr, LoopId, Program, Range, SvClause};

/// One generator on the path to a clause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopFrame<'a> {
    pub id: LoopId,
    pub var: &'a str,
    pub range: &'a Range,
}

/// One step on the path from a comprehension root to a clause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathStep<'a> {
    Loop(LoopFrame<'a>),
    Guard(&'a Expr),
    Let(&'a [(String, Expr)]),
}

/// A clause together with its full context inside the comprehension,
/// borrowed from the comprehension tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ClauseContext<'a> {
    pub clause: &'a SvClause,
    /// Outside-in path of loops/guards/lets enclosing the clause.
    pub path: Vec<PathStep<'a>>,
}

impl<'a> ClauseContext<'a> {
    /// The enclosing loops, outermost first.
    pub fn loops(&self) -> impl Iterator<Item = &LoopFrame<'a>> + '_ {
        self.path.iter().filter_map(|s| match s {
            PathStep::Loop(f) => Some(f),
            _ => None,
        })
    }

    /// Depth of loop nesting around the clause.
    pub fn depth(&self) -> usize {
        self.loops().count()
    }

    /// The number of leading loops shared with another clause context
    /// (shared = same [`LoopId`]).
    pub fn shared_prefix_len(&self, other: &ClauseContext<'_>) -> usize {
        self.loops()
            .zip(other.loops())
            .take_while(|(a, b)| a.id == b.id)
            .count()
    }

    /// `true` when the clause sits under at least one guard.
    pub fn guarded(&self) -> bool {
        self.path.iter().any(|s| matches!(s, PathStep::Guard(_)))
    }
}

/// Assign ids to every clause and generator in the tree, in source
/// order, starting from `next_clause` / `next_loop`. Returns the next
/// unused ids, allowing several comprehensions in one program to share
/// an id space.
pub fn number_comp(comp: &mut Comp, next_clause: &mut u32, next_loop: &mut u32) {
    match comp {
        Comp::Append(cs) => {
            for c in cs {
                number_comp(c, next_clause, next_loop);
            }
        }
        Comp::Gen { id, body, .. } => {
            *id = LoopId(*next_loop);
            *next_loop += 1;
            number_comp(body, next_clause, next_loop);
        }
        Comp::Guard { body, .. } | Comp::Let { body, .. } => {
            number_comp(body, next_clause, next_loop);
        }
        Comp::Clause(sv) => {
            sv.id = ClauseId(*next_clause);
            *next_clause += 1;
        }
    }
}

/// Number every comprehension of `program` in one id space, in binding
/// order: the numbering compilation analyzes under. The parser and the
/// builder hand out programs numbered this way.
pub fn number_program(program: &mut Program) {
    let (mut c, mut l) = (0, 0);
    for comp in program.comps_mut() {
        number_comp(comp, &mut c, &mut l);
    }
}

/// Whether `program` already carries [`number_program`]'s numbering,
/// so numbering it again would change nothing.
pub fn is_numbered(program: &Program) -> bool {
    let (mut c, mut l) = (0, 0);
    let mut ok = true;
    for comp in program.comps() {
        comp.walk(&mut |x| match x {
            Comp::Gen { id, .. } => {
                ok &= *id == LoopId(l);
                l += 1;
            }
            Comp::Clause(sv) => {
                ok &= sv.id == ClauseId(c);
                c += 1;
            }
            _ => {}
        });
    }
    ok
}

/// Assign ids starting at zero. Returns `(clause_count, loop_count)`.
pub fn number_clauses(comp: &mut Comp) -> (u32, u32) {
    let (mut c, mut l) = (0, 0);
    number_comp(comp, &mut c, &mut l);
    (c, l)
}

/// Extract every clause's [`ClauseContext`], in source (= id) order.
///
/// Call [`number_clauses`] first; contexts of unnumbered trees are still
/// produced but carry the placeholder ids.
pub fn clause_contexts(comp: &Comp) -> Vec<ClauseContext<'_>> {
    let mut out = Vec::new();
    let mut path = Vec::new();
    collect(comp, &mut path, &mut out);
    out
}

fn collect<'a>(comp: &'a Comp, path: &mut Vec<PathStep<'a>>, out: &mut Vec<ClauseContext<'a>>) {
    match comp {
        Comp::Append(cs) => {
            for c in cs {
                collect(c, path, out);
            }
        }
        Comp::Gen {
            id,
            var,
            range,
            body,
        } => {
            path.push(PathStep::Loop(LoopFrame {
                id: *id,
                var,
                range,
            }));
            collect(body, path, out);
            path.pop();
        }
        Comp::Guard { cond, body } => {
            path.push(PathStep::Guard(cond));
            collect(body, path, out);
            path.pop();
        }
        Comp::Let { binds, body } => {
            path.push(PathStep::Let(binds));
            collect(body, path, out);
            path.pop();
        }
        Comp::Clause(sv) => {
            out.push(ClauseContext {
                clause: sv,
                path: path.clone(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, Comp, Expr, Range};

    /// letrec* a = [* [3i := ..] ++ [3i-1 := ..] | i <- [1..100] *]
    fn two_clause_loop() -> Comp {
        Comp::gen(
            "i",
            Range::new(Expr::int(1), Expr::int(100)),
            Comp::append(vec![
                Comp::clause(vec![Expr::mul(Expr::int(3), Expr::var("i"))], Expr::int(0)),
                Comp::clause(
                    vec![Expr::sub(
                        Expr::mul(Expr::int(3), Expr::var("i")),
                        Expr::int(1),
                    )],
                    Expr::int(0),
                ),
            ]),
        )
    }

    #[test]
    fn numbering_is_source_order() {
        let mut c = two_clause_loop();
        let (nc, nl) = number_clauses(&mut c);
        assert_eq!((nc, nl), (2, 1));
        let ids: Vec<u32> = c.clauses().iter().map(|s| s.id.0).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn contexts_capture_loops() {
        let mut c = two_clause_loop();
        number_clauses(&mut c);
        let ctxs = clause_contexts(&c);
        assert_eq!(ctxs.len(), 2);
        for ctx in &ctxs {
            assert_eq!(ctx.depth(), 1);
            assert_eq!(ctx.loops().next().unwrap().var, "i");
        }
        assert_eq!(ctxs[0].shared_prefix_len(&ctxs[1]), 1);
    }

    #[test]
    fn same_name_different_loops_not_shared() {
        // [ [i := 0] | i <- [1..2] ] ++ [ [i := 1] | i <- [3..4] ]
        let mut c = Comp::append(vec![
            Comp::gen(
                "i",
                Range::new(Expr::int(1), Expr::int(2)),
                Comp::clause(vec![Expr::var("i")], Expr::int(0)),
            ),
            Comp::gen(
                "i",
                Range::new(Expr::int(3), Expr::int(4)),
                Comp::clause(vec![Expr::var("i")], Expr::int(1)),
            ),
        ]);
        number_clauses(&mut c);
        let ctxs = clause_contexts(&c);
        assert_eq!(ctxs[0].shared_prefix_len(&ctxs[1]), 0);
    }

    #[test]
    fn guards_and_lets_recorded_in_path() {
        let mut c = Comp::gen(
            "i",
            Range::new(Expr::int(1), Expr::int(10)),
            Comp::Let {
                binds: vec![("v".into(), Expr::var("i"))],
                body: Box::new(Comp::Guard {
                    cond: Expr::bin(BinOp::Gt, Expr::var("i"), Expr::int(1)),
                    body: Box::new(Comp::clause(vec![Expr::var("i")], Expr::var("v"))),
                }),
            },
        );
        number_clauses(&mut c);
        let ctxs = clause_contexts(&c);
        assert_eq!(ctxs.len(), 1);
        assert_eq!(ctxs[0].path.len(), 3);
        assert!(matches!(ctxs[0].path[0], PathStep::Loop(_)));
        assert!(matches!(ctxs[0].path[1], PathStep::Let(_)));
        assert!(matches!(ctxs[0].path[2], PathStep::Guard(_)));
    }

    #[test]
    fn nested_loops_count() {
        let mut c = Comp::gen(
            "i",
            Range::new(Expr::int(1), Expr::int(10)),
            Comp::gen(
                "j",
                Range::new(Expr::int(1), Expr::int(20)),
                Comp::clause(vec![Expr::var("i"), Expr::var("j")], Expr::int(0)),
            ),
        );
        let (nc, nl) = number_clauses(&mut c);
        assert_eq!((nc, nl), (1, 2));
        let ctxs = clause_contexts(&c);
        assert_eq!(ctxs[0].depth(), 2);
    }
}
