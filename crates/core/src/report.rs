//! Human-readable compilation reports: what the analysis proved, which
//! dependence edges it found, and what the scheduler decided — the
//! compiler's explanation of every optimization it did or did not
//! apply. A [`Report`] holds the compiler's own values (verdicts,
//! edges, plans, fusion decisions); [`Report::render`] writes the text.
//!
//! Runtime counters accompany these reports in [`ExecOutput`]
//! (`counters.vm`, a [`hac_codegen::limp::VmCounters`]). Since the
//! bytecode-tape engine landed, that struct also carries `tape_ops` —
//! the number of tape instructions dispatched by `Vm::run_tape`. It is
//! an engine-level dispatch count, not a semantic one: it is zero when
//! running under `Engine::TreeWalk`, while every other counter (stores,
//! loads, check ops, loop iterations, copies, allocations) means the
//! same thing and takes the same value under both engines.
//!
//! [`ExecOutput`]: crate::pipeline::ExecOutput

use std::fmt::{self, Write as _};

use hac_analysis::analyze::{BoundsVerdict, CollisionVerdict, EmptiesVerdict};
use hac_analysis::depgraph::{DepEdge, DepKind};
use hac_analysis::direction::DirVec;
use hac_analysis::parallel::{parallelism_summary, LoopParallelism};
use hac_analysis::search::{Confidence, TestStats};
use hac_codegen::fuse::FuseDecision;
use hac_lang::ast::{BinOp, ClauseId};
use hac_schedule::plan::Plan;
use hac_schedule::split::UpdateStrategy;

/// A dependence edge as the report prints it, e.g. `c0 → c1 flow (<)
/// dist [1] [exact]`: the witness, array name and read ordinals are
/// dropped.
#[derive(Debug, Clone)]
pub struct EdgeFact {
    pub src: ClauseId,
    pub dst: ClauseId,
    pub kind: DepKind,
    pub dv: DirVec,
    pub distance: Option<Vec<i64>>,
    /// The exact test confirmed the edge.
    pub exact: bool,
}

impl From<DepEdge> for EdgeFact {
    fn from(e: DepEdge) -> EdgeFact {
        EdgeFact {
            src: e.src,
            dst: e.dst,
            kind: e.kind,
            dv: e.dv,
            distance: e.distance,
            exact: matches!(e.confidence, Confidence::Confirmed(_)),
        }
    }
}

impl fmt::Display for EdgeFact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} → {} {} {}", self.src, self.dst, self.kind, self.dv)?;
        if let Some(d) = &self.distance {
            write!(f, " dist {d:?}")?;
        }
        f.write_str(if self.exact {
            " [exact]"
        } else {
            " [possible]"
        })
    }
}

/// The facts of a list of edges.
pub(crate) fn edge_facts(edges: Vec<DepEdge>) -> Vec<EdgeFact> {
    edges.into_iter().map(EdgeFact::from).collect()
}

/// How an array was compiled.
#[derive(Debug, Clone)]
pub enum ArrayOutcome {
    Thunkless { plan: Plan, checks_elided: bool },
    Thunked { reason: String },
    Accumulated,
}

impl fmt::Display for ArrayOutcome {
    /// The outcome's first report line; a thunkless plan follows it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrayOutcome::Thunkless { .. } => f.write_str("thunkless"),
            ArrayOutcome::Thunked { reason } => write!(f, "thunked ({reason})"),
            ArrayOutcome::Accumulated => f.write_str("accumulated (strict, list order)"),
        }
    }
}

/// Report for one array definition.
#[derive(Debug, Clone)]
pub struct ArrayReport {
    pub name: String,
    /// Flow edges; empty for an accumulated array.
    pub edges: Vec<EdgeFact>,
    pub collisions: CollisionVerdict,
    pub empties: EmptiesVerdict,
    pub bounds: BoundsVerdict,
    pub outcome: ArrayOutcome,
    /// §10 verdicts against `edges` (a thunkless plan's own `loops`).
    pub loops: Vec<LoopParallelism>,
    /// Per-loop fusion verdicts from the tape fusion pass (kernel
    /// shape, or the reason fusion was declined). Empty when the pass
    /// did not run (tree-walk engine or `--no-fuse`).
    pub fusion: Vec<FuseDecision>,
}

/// Report for one `bigupd`.
#[derive(Debug, Clone)]
pub struct UpdateReport {
    pub name: String,
    pub base: String,
    pub flow: Vec<EdgeFact>,
    pub anti: Vec<EdgeFact>,
    pub strategy: UpdateStrategy,
    pub in_place: bool,
    /// §10 verdicts over the full (flow + anti) edge set — what the
    /// tape's parallel plan consults, so a loop listed `sequential` here
    /// explains why the pass falls back to one worker.
    pub loops: Vec<LoopParallelism>,
    /// Per-loop fusion verdicts from the tape fusion pass.
    pub fusion: Vec<FuseDecision>,
}

/// The whole program's compilation report.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub arrays: Vec<ArrayReport>,
    pub updates: Vec<UpdateReport>,
    /// Scalar reductions (§3.1 folds compiled to DO loops): name and
    /// fold operator.
    pub reductions: Vec<(String, BinOp)>,
    /// Loops merged across bindings: the chain's array names and the
    /// merged loop's fusion decision.
    pub merges: Vec<(Vec<String>, FuseDecision)>,
    /// The rendered cost certificate — `cost fuel: n-1 = 999, mem: 8n
    /// = 8000` when the bound closed, `cost: open (<reason>)` when it
    /// did not. `None` only for reports built outside [`compile`].
    ///
    /// [`compile`]: crate::pipeline::compile
    pub cost: Option<String>,
    pub stats: TestStats,
}

/// The `loops <verdict>: ...` and `fusion ...` lines of one unit.
fn render_loops(out: &mut String, loops: &[LoopParallelism], fusion: &[FuseDecision]) {
    for (verdict, loops) in parallelism_summary(loops) {
        let _ = writeln!(out, "  loops {verdict}: {}", loops.join(", "));
    }
    for f in fusion {
        let _ = writeln!(out, "  fusion {}", f.render());
    }
}

impl Report {
    /// Render as indented text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for a in &self.arrays {
            let _ = writeln!(out, "array `{}`:", a.name);
            if a.edges.is_empty() {
                let _ = writeln!(out, "  dependences: none");
            } else {
                let _ = writeln!(out, "  dependences:");
                for e in &a.edges {
                    let _ = writeln!(out, "    {e}");
                }
            }
            if let ArrayOutcome::Accumulated = a.outcome {
                let _ = writeln!(out, "  write collisions: combined by accumArray");
                let _ = writeln!(out, "  empties: filled by default value");
            } else {
                let _ = writeln!(out, "  write collisions: {}", a.collisions);
                let _ = writeln!(out, "  empties: {}", a.empties);
            }
            let _ = writeln!(out, "  bounds: {}", a.bounds);
            let _ = writeln!(out, "  outcome: {}", a.outcome);
            if let ArrayOutcome::Thunkless { plan, .. } = &a.outcome {
                for line in plan.render().lines() {
                    let _ = writeln!(out, "    {line}");
                }
            }
            render_loops(&mut out, &a.loops, &a.fusion);
        }
        for (name, op) in &self.reductions {
            let _ = writeln!(out, "scalar `{name}` = fold ({op}) over comprehension");
        }
        for u in &self.updates {
            let _ = writeln!(out, "update `{}` of `{}`:", u.name, u.base);
            for e in &u.flow {
                let _ = writeln!(out, "  flow {e}");
            }
            for e in &u.anti {
                let _ = writeln!(out, "  anti {e}");
            }
            let _ = writeln!(out, "  strategy: {}", u.strategy);
            let _ = writeln!(out, "  in place: {}", u.in_place);
            render_loops(&mut out, &u.loops, &u.fusion);
        }
        for (names, decision) in &self.merges {
            let names: Vec<String> = names.iter().map(|n| format!("`{n}`")).collect();
            let _ = writeln!(
                out,
                "merged loop of {}: {}",
                names.join(", "),
                decision.render()
            );
        }
        if let Some(cost) = &self.cost {
            let _ = writeln!(out, "{cost}");
        }
        let _ = writeln!(
            out,
            "tests: {} gcd, {} banerjee, {} exact, {} search nodes",
            self.stats.gcd_calls,
            self.stats.banerjee_calls,
            self.stats.exact_calls,
            self.stats.nodes
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_renders_stats_line() {
        let r = Report::default();
        let text = r.render();
        assert!(text.contains("tests: 0 gcd"));
    }
}
