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

use hac_analysis::analyze::{
    ArrayAnalysis, BoundsVerdict, CollisionVerdict, EmptiesVerdict, UpdateAnalysis,
};
use hac_analysis::depgraph::DepEdge;
use hac_analysis::parallel::{loop_parallelism, parallelism_summary};
use hac_analysis::search::{Confidence, TestStats};
use hac_codegen::lower::LoweredUpdate;
use hac_lang::ast::{ArrayDef, Comp};
use hac_schedule::plan::Plan;
use hac_schedule::split::{UpdatePlan, UpdateStrategy};

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

fn parallelism_lines(comp: &Comp, edges: &[DepEdge]) -> Vec<(String, Vec<String>)> {
    let loops = loop_parallelism(comp, edges);
    parallelism_summary(&loops)
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

fn render_edge(e: &DepEdge) -> String {
    let conf = match &e.confidence {
        Confidence::Confirmed(_) => " [exact]",
        Confidence::Possible => " [possible]",
    };
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

impl ArrayReport {
    /// Report a thunkless compilation.
    pub fn thunkless(
        def: &ArrayDef,
        analysis: &ArrayAnalysis,
        plan: &Plan,
        checks_elided: bool,
    ) -> ArrayReport {
        ArrayReport {
            name: def.name.clone(),
            edges: analysis.flow.edges.iter().map(render_edge).collect(),
            collisions: render_collisions(&analysis.collisions),
            empties: render_empties(&analysis.empties),
            bounds: render_bounds(&analysis.oob),
            outcome: format!("thunkless\n{}", indent(&plan.render())),
            checks_elided,
            parallelism: parallelism_lines(&def.comp, &analysis.flow.edges),
            fusion: Vec::new(),
        }
    }

    /// Report a thunked fallback.
    pub fn thunked(def: &ArrayDef, analysis: &ArrayAnalysis, reason: &str) -> ArrayReport {
        ArrayReport {
            name: def.name.clone(),
            edges: analysis.flow.edges.iter().map(render_edge).collect(),
            collisions: render_collisions(&analysis.collisions),
            empties: render_empties(&analysis.empties),
            bounds: render_bounds(&analysis.oob),
            outcome: format!("thunked ({reason})"),
            checks_elided: false,
            parallelism: parallelism_lines(&def.comp, &analysis.flow.edges),
            fusion: Vec::new(),
        }
    }

    /// Report an accumulated array.
    pub fn accumulated(def: &ArrayDef, analysis: &ArrayAnalysis) -> ArrayReport {
        ArrayReport {
            name: def.name.clone(),
            edges: Vec::new(),
            collisions: "combined by accumArray".to_string(),
            empties: "filled by default value".to_string(),
            bounds: render_bounds(&analysis.oob),
            outcome: "accumulated (strict, list order)".to_string(),
            checks_elided: true,
            parallelism: Vec::new(),
            fusion: Vec::new(),
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

impl UpdateReport {
    /// Build from the analysis and planning artifacts.
    pub fn new(
        name: &str,
        base: &str,
        comp: &Comp,
        analysis: &UpdateAnalysis,
        update: &UpdatePlan,
        lowered: &LoweredUpdate,
    ) -> UpdateReport {
        let full: Vec<DepEdge> = analysis
            .flow
            .edges
            .iter()
            .chain(analysis.anti.edges.iter())
            .cloned()
            .collect();
        let strategy = match &update.strategy {
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
            name: name.to_string(),
            base: base.to_string(),
            anti_edges: analysis.anti.edges.iter().map(render_edge).collect(),
            flow_edges: analysis.flow.edges.iter().map(render_edge).collect(),
            strategy,
            in_place: lowered.in_place,
            parallelism: parallelism_lines(comp, &full),
            fusion: Vec::new(),
        }
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
