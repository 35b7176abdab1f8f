//! The schedule IR: an explicitly ordered, direction-annotated loop
//! program produced by the static scheduler (§8).
//!
//! A [`Plan`] is what "thunkless code generation" means operationally:
//! the comprehension's generators become loops with *chosen* directions,
//! possibly split into multiple passes, and the s/v clauses appear in an
//! order that computes every dependence source before its sink.

use std::fmt;

use hac_analysis::parallel::LoopParallelism;
use hac_lang::ast::{ClauseId, Expr, LoopId, Range};

/// A loop traversal direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dirn {
    /// Low to high index (the generator's own orientation).
    Forward,
    /// High to low index.
    Backward,
}

impl Dirn {
    /// The opposite direction.
    pub fn reverse(self) -> Dirn {
        match self {
            Dirn::Forward => Dirn::Backward,
            Dirn::Backward => Dirn::Forward,
        }
    }
}

impl fmt::Display for Dirn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dirn::Forward => write!(f, "forward"),
            Dirn::Backward => write!(f, "backward"),
        }
    }
}

/// One step of a scheduled plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// A pass over a generator in a chosen direction. The same
    /// [`LoopId`] may appear in several consecutive `Loop` steps when
    /// the scheduler split the loop into passes (§8.1.3).
    Loop {
        id: LoopId,
        var: String,
        range: Range,
        dirn: Dirn,
        body: Vec<Step>,
    },
    /// Execute one s/v clause instance.
    Clause(ClauseId),
    /// A guard scoped over sub-steps.
    Guard { cond: Expr, body: Vec<Step> },
    /// `let` bindings scoped over sub-steps.
    Let {
        binds: Vec<(String, Expr)>,
        body: Vec<Step>,
    },
}

impl Step {
    /// All clause ids under this step, in schedule order.
    pub fn clauses(&self) -> Vec<ClauseId> {
        let mut out = Vec::new();
        self.collect_clauses(&mut out);
        out
    }

    fn collect_clauses(&self, out: &mut Vec<ClauseId>) {
        match self {
            Step::Clause(id) => out.push(*id),
            Step::Loop { body, .. } | Step::Guard { body, .. } | Step::Let { body, .. } => {
                for s in body {
                    s.collect_clauses(out);
                }
            }
        }
    }

    /// Number of `Loop` steps in this subtree (pass-count metric).
    pub fn loop_count(&self) -> usize {
        match self {
            Step::Clause(_) => 0,
            Step::Loop { body, .. } => 1 + body.iter().map(Step::loop_count).sum::<usize>(),
            Step::Guard { body, .. } | Step::Let { body, .. } => {
                body.iter().map(Step::loop_count).sum()
            }
        }
    }
}

/// A complete thunkless schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Plan {
    pub steps: Vec<Step>,
    /// Loops proven free of carried dependences (§10): every id listed
    /// here may run its iterations in any order — or concurrently. The
    /// verdict is computed against the edge set the plan was scheduled
    /// under (flow for monolithic arrays; the *full* flow + anti set
    /// for in-place updates, see `split::plan_update`).
    pub par_loops: Vec<LoopId>,
    /// Loops whose only carried dependence is a reassociable
    /// accumulator recurrence (`acc = acc + e`, `min`, `max`): a fused
    /// backend may stream the fold left-to-right without per-iteration
    /// dispatch, but must preserve the scalar order of operations.
    /// Computed against the same edge set as `par_loops`.
    pub red_loops: Vec<LoopId>,
    /// The §10 classification of every generator, computed once per
    /// schedule: against the flow edges for a monolithic array, and
    /// against the full flow + anti set for an update (which may then
    /// narrow `par_loops` and `red_loops`). Reports read it.
    pub loops: Vec<LoopParallelism>,
}

impl Plan {
    /// A plan whose `par_loops` and `red_loops` are exactly the
    /// parallelizable and reducible loops of `loops`.
    pub fn new(steps: Vec<Step>, loops: Vec<LoopParallelism>) -> Plan {
        let ids = |keep: fn(&LoopParallelism) -> bool| {
            loops.iter().filter(|l| keep(l)).map(|l| l.id).collect()
        };
        Plan {
            steps,
            par_loops: ids(LoopParallelism::parallelizable),
            red_loops: ids(LoopParallelism::reducible),
            loops,
        }
    }

    /// All clause ids in schedule order (with repetition if a clause
    /// appears in several passes — it never should).
    pub fn clauses(&self) -> Vec<ClauseId> {
        let mut out = Vec::new();
        for s in &self.steps {
            s.collect_clauses(&mut out);
        }
        out
    }

    /// Total number of loop passes.
    pub fn loop_count(&self) -> usize {
        self.steps.iter().map(Step::loop_count).sum()
    }

    /// Render an indented text form (used in reports and tests).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.steps {
            render_step(s, 0, &mut out);
        }
        out
    }
}

fn render_step(s: &Step, indent: usize, out: &mut String) {
    use std::fmt::Write as _;
    let pad = "  ".repeat(indent);
    match s {
        Step::Loop {
            id,
            var,
            dirn,
            body,
            ..
        } => {
            let _ = writeln!(out, "{pad}for {var} ({id}) {dirn}:");
            for b in body {
                render_step(b, indent + 1, out);
            }
        }
        Step::Clause(id) => {
            let _ = writeln!(out, "{pad}{id}");
        }
        Step::Guard { cond, body } => {
            let _ = writeln!(out, "{pad}if {}:", hac_lang::pretty::expr_str(cond));
            for b in body {
                render_step(b, indent + 1, out);
            }
        }
        Step::Let { binds, body } => {
            let names: Vec<&str> = binds.iter().map(|(n, _)| n.as_str()).collect();
            let _ = writeln!(out, "{pad}let {}:", names.join(", "));
            for b in body {
                render_step(b, indent + 1, out);
            }
        }
    }
}

/// Why thunkless compilation is impossible (§8.1.2, §8.1.4): compile
/// with thunks instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThunkReason {
    /// An SCC's dependence cycle contains both `(<)` and `(>)` carried
    /// edges at the same loop level — no direction satisfies it.
    MixedDirectionCycle { clauses: Vec<ClauseId> },
    /// A cycle of loop-independent (`=`/`()`-labeled) edges: within one
    /// instance the clauses need each other.
    LoopIndependentCycle { clauses: Vec<ClauseId> },
    /// A clause instance depends on itself (e.g. `a!i` inside the
    /// clause defining `i`): the value is ⊥.
    SelfDependentInstance { clause: ClauseId },
}

impl fmt::Display for ThunkReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let list = |cs: &[ClauseId]| {
            cs.iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        match self {
            ThunkReason::MixedDirectionCycle { clauses } => write!(
                f,
                "cycle through {{{}}} carries both (<) and (>) edges; no loop direction \
                 is safe",
                list(clauses)
            ),
            ThunkReason::LoopIndependentCycle { clauses } => write!(
                f,
                "loop-independent dependence cycle through {{{}}}",
                list(clauses)
            ),
            ThunkReason::SelfDependentInstance { clause } => {
                write!(f, "clause {clause} depends on its own instance (⊥)")
            }
        }
    }
}

/// Outcome of scheduling an array expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleOutcome {
    /// A safe static schedule exists: compile without thunks.
    Thunkless(Plan),
    /// No safe schedule: fall back to thunked evaluation.
    NeedsThunks(ThunkReason),
}

impl ScheduleOutcome {
    /// The plan, if thunkless.
    pub fn plan(&self) -> Option<&Plan> {
        match self {
            ScheduleOutcome::Thunkless(p) => Some(p),
            ScheduleOutcome::NeedsThunks(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_lang::ast::Expr;

    #[test]
    fn plan_collects_clauses_in_order() {
        let plan = Plan {
            steps: vec![
                Step::Loop {
                    id: LoopId(0),
                    var: "i".into(),
                    range: Range::new(Expr::int(1), Expr::int(10)),
                    dirn: Dirn::Forward,
                    body: vec![Step::Clause(ClauseId(1)), Step::Clause(ClauseId(0))],
                },
                Step::Clause(ClauseId(2)),
            ],
            par_loops: Vec::new(),
            red_loops: Vec::new(),
            loops: Vec::new(),
        };
        assert_eq!(plan.clauses(), vec![ClauseId(1), ClauseId(0), ClauseId(2)]);
        assert_eq!(plan.loop_count(), 1);
    }

    #[test]
    fn render_is_readable() {
        let plan = Plan {
            steps: vec![Step::Loop {
                id: LoopId(0),
                var: "i".into(),
                range: Range::new(Expr::int(1), Expr::int(3)),
                dirn: Dirn::Backward,
                body: vec![Step::Guard {
                    cond: Expr::bin(hac_lang::ast::BinOp::Gt, Expr::var("i"), Expr::int(1)),
                    body: vec![Step::Clause(ClauseId(0))],
                }],
            }],
            par_loops: Vec::new(),
            red_loops: Vec::new(),
            loops: Vec::new(),
        };
        let r = plan.render();
        assert!(r.contains("for i (L0) backward:"));
        assert!(r.contains("if i > 1:"));
        assert!(r.contains("c0"));
    }

    #[test]
    fn dirn_reverse_roundtrips() {
        assert_eq!(Dirn::Forward.reverse(), Dirn::Backward);
        assert_eq!(Dirn::Backward.reverse().reverse(), Dirn::Backward);
    }

    #[test]
    fn thunk_reasons_display() {
        let r = ThunkReason::MixedDirectionCycle {
            clauses: vec![ClauseId(0), ClauseId(1)],
        };
        assert!(r.to_string().contains("c0, c1"));
        let r2 = ThunkReason::SelfDependentInstance {
            clause: ClauseId(3),
        };
        assert!(r2.to_string().contains("c3"));
    }
}
