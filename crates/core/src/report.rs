//! Human-readable compilation reports: what the analysis proved, which
//! dependence edges it found, and what the scheduler decided — the
//! compiler's explanation of every optimization it did or did not
//! apply.
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

use std::fmt::Write as _;
use std::ops::Deref;
use std::sync::OnceLock;

use hac_analysis::analyze::{BoundsVerdict, CollisionVerdict, EmptiesVerdict};
use hac_analysis::depgraph::{DepEdge, DepKind};
use hac_analysis::direction::DirVec;
use hac_analysis::parallel::{parallelism_summary, LoopParallelism};
use hac_analysis::search::{Confidence, TestStats};
use hac_codegen::fuse::FuseDecision;
use hac_lang::ast::{BinOp, ClauseId};
use hac_schedule::plan::Plan;
use hac_schedule::split::UpdateStrategy;

/// Report for one array definition.
#[derive(Debug, Clone)]
pub struct ArrayReport {
    pub name: String,
    /// Rendered dependence edges, e.g. `c0 → c1 flow (<) dist [1] [exact]`.
    pub edges: Vec<String>,
    pub collisions: String,
    pub empties: String,
    pub bounds: String,
    /// `thunkless`, `thunked`, or `accumulated` plus detail.
    pub outcome: String,
    pub checks_elided: bool,
    /// §10: per-verdict loop lists (vectorizable / parallelizable /
    /// sequential).
    pub parallelism: Vec<(String, Vec<String>)>,
    /// Per-loop fusion verdicts from the tape fusion pass (kernel
    /// shape, or the reason fusion was declined). Empty when the pass
    /// did not run (tree-walk engine or `--no-fuse`).
    pub fusion: Vec<String>,
}

fn parallelism_lines(loops: &[LoopParallelism]) -> Vec<(String, Vec<String>)> {
    parallelism_summary(loops)
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// A dependence edge as the report prints it: the witness, array name
/// and read ordinals are dropped, since a cached program keeps these
/// facts for its whole life.
#[derive(Debug, Clone)]
pub(crate) struct EdgeFact {
    src: ClauseId,
    dst: ClauseId,
    kind: DepKind,
    dv: DirVec,
    distance: Option<Vec<i64>>,
    exact: bool,
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

/// The facts of a list of edges.
pub(crate) fn edge_facts(edges: Vec<DepEdge>) -> Vec<EdgeFact> {
    edges.into_iter().map(EdgeFact::from).collect()
}

fn render_edge(e: &EdgeFact) -> String {
    let conf = if e.exact { " [exact]" } else { " [possible]" };
    let dist = match &e.distance {
        Some(d) => format!(" dist {d:?}"),
        None => String::new(),
    };
    format!("{} → {} {} {}{}{}", e.src, e.dst, e.kind, e.dv, dist, conf)
}

fn render_collisions(v: &CollisionVerdict) -> String {
    match v {
        CollisionVerdict::Impossible => "impossible (checks elided)".to_string(),
        CollisionVerdict::Possible(pairs) => {
            format!("possible between {pairs:?} (runtime checks compiled)")
        }
        CollisionVerdict::Certain { pair, .. } => {
            format!("certain between {} and {} (error)", pair.0, pair.1)
        }
    }
}

fn render_empties(v: &EmptiesVerdict) -> String {
    match v {
        EmptiesVerdict::Impossible => "impossible (checks elided)".to_string(),
        EmptiesVerdict::Possible(reason) => format!("possible: {reason}"),
    }
}

fn render_bounds(v: &BoundsVerdict) -> String {
    match v {
        BoundsVerdict::InBounds => "all writes in bounds".to_string(),
        BoundsVerdict::MayExceed(sites) => format!("{} write(s) may escape bounds", sites.len()),
    }
}

fn render_fusion(decisions: &[FuseDecision]) -> Vec<String> {
    decisions.iter().map(FuseDecision::render).collect()
}

/// How an array was compiled, as far as its report tells.
#[derive(Debug, Clone)]
pub(crate) enum ArrayOutcome {
    Thunkless { plan: Plan, checks_elided: bool },
    Thunked { reason: String },
    Accumulated,
}

/// What compilation established about one array definition, kept
/// unrendered until a report is asked for.
#[derive(Debug, Clone)]
pub(crate) struct ArrayFacts {
    pub name: String,
    /// Flow edges; empty for an accumulated array.
    pub edges: Vec<EdgeFact>,
    pub collisions: CollisionVerdict,
    pub empties: EmptiesVerdict,
    pub oob: BoundsVerdict,
    pub outcome: ArrayOutcome,
    /// §10 verdicts against `edges` (a thunkless plan's own `loops`).
    pub loops: Vec<LoopParallelism>,
    pub fusion: Vec<FuseDecision>,
}

impl ArrayFacts {
    fn render(&self) -> ArrayReport {
        let accumulated = matches!(self.outcome, ArrayOutcome::Accumulated);
        let (collisions, empties) = if accumulated {
            (
                "combined by accumArray".to_string(),
                "filled by default value".to_string(),
            )
        } else {
            (
                render_collisions(&self.collisions),
                render_empties(&self.empties),
            )
        };
        let (outcome, checks_elided) = match &self.outcome {
            ArrayOutcome::Thunkless {
                plan,
                checks_elided,
            } => (
                format!("thunkless\n{}", indent(&plan.render())),
                *checks_elided,
            ),
            ArrayOutcome::Thunked { reason } => (format!("thunked ({reason})"), false),
            ArrayOutcome::Accumulated => ("accumulated (strict, list order)".to_string(), true),
        };
        ArrayReport {
            name: self.name.clone(),
            edges: self.edges.iter().map(render_edge).collect(),
            collisions,
            empties,
            bounds: render_bounds(&self.oob),
            outcome,
            checks_elided,
            parallelism: parallelism_lines(&self.loops),
            fusion: render_fusion(&self.fusion),
        }
    }
}

/// Report for one `bigupd`.
#[derive(Debug, Clone)]
pub struct UpdateReport {
    pub name: String,
    pub base: String,
    pub anti_edges: Vec<String>,
    pub flow_edges: Vec<String>,
    pub strategy: String,
    pub in_place: bool,
    /// §10 verdicts over the full (flow + anti) edge set — what the
    /// tape's parallel plan consults, so a loop listed `sequential` here
    /// explains why the pass falls back to one worker.
    pub parallelism: Vec<(String, Vec<String>)>,
    /// Per-loop fusion verdicts from the tape fusion pass.
    pub fusion: Vec<String>,
}

/// What compilation established about one `bigupd`, kept unrendered
/// until a report is asked for.
#[derive(Debug, Clone)]
pub(crate) struct UpdateFacts {
    pub name: String,
    pub base: String,
    pub flow: Vec<EdgeFact>,
    pub anti: Vec<EdgeFact>,
    pub strategy: UpdateStrategy,
    pub in_place: bool,
    /// §10 verdicts over the full (flow + anti) edge set.
    pub loops: Vec<LoopParallelism>,
    pub fusion: Vec<FuseDecision>,
}

impl UpdateFacts {
    fn render(&self) -> UpdateReport {
        let strategy = match &self.strategy {
            UpdateStrategy::InPlace => "in place, zero copies".to_string(),
            UpdateStrategy::Split(actions) => format!(
                "in place after node splitting: {}",
                actions
                    .iter()
                    .map(|a| format!("{a:?}"))
                    .collect::<Vec<_>>()
                    .join("; ")
            ),
            UpdateStrategy::CopyWhole => "whole-array copy".to_string(),
        };
        UpdateReport {
            name: self.name.clone(),
            base: self.base.clone(),
            anti_edges: self.anti.iter().map(render_edge).collect(),
            flow_edges: self.flow.iter().map(render_edge).collect(),
            strategy,
            in_place: self.in_place,
            parallelism: parallelism_lines(&self.loops),
            fusion: render_fusion(&self.fusion),
        }
    }
}

/// Everything a compilation [`Report`] says, as the compiler's own
/// values: verdicts, edges, plans and fusion decisions. Rendering them
/// to text is left to the first reader.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReportFacts {
    pub arrays: Vec<ArrayFacts>,
    pub updates: Vec<UpdateFacts>,
    /// Scalar reductions: name and fold operator.
    pub reductions: Vec<(String, BinOp)>,
    /// Merged loops: the chain's array names and the merged loop's
    /// fusion decision.
    pub merges: Vec<(Vec<String>, FuseDecision)>,
    /// The rendered certificate line: one short string, where the
    /// certificate's polynomials would take kilobytes in every cached
    /// program.
    pub cost: Option<String>,
    pub stats: TestStats,
}

impl ReportFacts {
    fn render(&self) -> Report {
        Report {
            arrays: self.arrays.iter().map(ArrayFacts::render).collect(),
            updates: self.updates.iter().map(UpdateFacts::render).collect(),
            reductions: self
                .reductions
                .iter()
                .map(|(name, op)| format!("scalar `{name}` = fold ({op}) over comprehension"))
                .collect(),
            merges: self
                .merges
                .iter()
                .map(|(names, decision)| {
                    let names: Vec<String> = names.iter().map(|n| format!("`{n}`")).collect();
                    format!("merged loop of {}: {}", names.join(", "), decision.render())
                })
                .collect(),
            cost: self.cost.clone(),
            stats: self.stats,
        }
    }
}

/// A compilation [`Report`] rendered on first use: [`compile`] records
/// the [`ReportFacts`] it derives anyway, and only a reader of the
/// report (through `Deref`) pays for the text.
///
/// [`compile`]: crate::pipeline::compile
#[derive(Debug, Clone, Default)]
pub struct LazyReport {
    facts: ReportFacts,
    text: OnceLock<Report>,
}

impl LazyReport {
    pub(crate) fn new(mut facts: ReportFacts) -> LazyReport {
        // A cached program keeps these for its whole life.
        facts.arrays.shrink_to_fit();
        facts.updates.shrink_to_fit();
        LazyReport {
            facts,
            text: OnceLock::new(),
        }
    }
}

impl Deref for LazyReport {
    type Target = Report;

    fn deref(&self) -> &Report {
        self.text.get_or_init(|| self.facts.render())
    }
}

/// The whole program's compilation report.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub arrays: Vec<ArrayReport>,
    pub updates: Vec<UpdateReport>,
    /// Scalar reductions (§3.1 folds compiled to DO loops).
    pub reductions: Vec<String>,
    /// Loops merged across bindings, e.g. `merged loop of `cp`, `dp`:
    /// for i in [2..9]: fused (generic micro-kernel)`.
    pub merges: Vec<String>,
    /// The rendered cost certificate — `cost fuel: n-1 = 999, mem: 8n
    /// = 8000` when the bound closed, `cost: open (<reason>)` when it
    /// did not. `None` only for reports built outside [`compile`].
    ///
    /// [`compile`]: crate::pipeline::compile
    pub cost: Option<String>,
    pub stats: TestStats,
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
            let _ = writeln!(out, "  write collisions: {}", a.collisions);
            let _ = writeln!(out, "  empties: {}", a.empties);
            let _ = writeln!(out, "  bounds: {}", a.bounds);
            let _ = writeln!(out, "  outcome: {}", a.outcome);
            for (verdict, loops) in &a.parallelism {
                let _ = writeln!(out, "  loops {verdict}: {}", loops.join(", "));
            }
            for f in &a.fusion {
                let _ = writeln!(out, "  fusion {f}");
            }
        }
        for r in &self.reductions {
            let _ = writeln!(out, "{r}");
        }
        for u in &self.updates {
            let _ = writeln!(out, "update `{}` of `{}`:", u.name, u.base);
            for e in &u.flow_edges {
                let _ = writeln!(out, "  flow {e}");
            }
            for e in &u.anti_edges {
                let _ = writeln!(out, "  anti {e}");
            }
            let _ = writeln!(out, "  strategy: {}", u.strategy);
            let _ = writeln!(out, "  in place: {}", u.in_place);
            for (verdict, loops) in &u.parallelism {
                let _ = writeln!(out, "  loops {verdict}: {}", loops.join(", "));
            }
            for f in &u.fusion {
                let _ = writeln!(out, "  fusion {f}");
            }
        }
        for m in &self.merges {
            let _ = writeln!(out, "{m}");
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

fn indent(s: &str) -> String {
    s.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
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
