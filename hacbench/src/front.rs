//! A stage-by-stage replay of `hac_core::pipeline::compile`, timing
//! the public entry point of each front-end crate.
//!
//! The replay mirrors `compile` for the bindings the benchmark's
//! programs use (inputs, single-array `let`/`letrec*`, and `bigupd`) and
//! checks that the tapes it builds equal the compiled units', so the
//! stages timed are the stages that ran. Numbering, certificate
//! assembly and the report are not replayed: they remain in
//! `front.other`, the compile time no stage accounts for.

use std::hint::black_box;
use std::time::Instant;

use hac_analysis::analyze::{analyze_array, analyze_bigupd, BoundsVerdict};
use hac_codegen::cost::program_cost;
use hac_codegen::fuse::fuse_tape;
use hac_codegen::limp::LProgram;
use hac_codegen::lower::{lower_array, lower_update, CheckMode};
use hac_codegen::partape::plan_tape;
use hac_codegen::tape::{compile_tape, TapeCtx, TapeProgram};
use hac_core::pipeline::{compile, CompileOptions, Compiled, Engine, ExecMode, Unit};
use hac_lang::ast::{ArrayDef, ArrayKind, Binding};
use hac_lang::env::ConstEnv;
use hac_lang::number::number_comp;
use hac_lang::parser::parse_program;
use hac_schedule::plan::ScheduleOutcome;
use hac_schedule::scheduler::schedule;
use hac_schedule::split::plan_update;

/// The front-end stages, as span layers `front.<stage>`.
pub const STAGES: [&str; 8] = [
    "parse", "analyze", "schedule", "lower", "tape", "fuse", "par_plan", "cost",
];

/// One timed stage call: `front.<stage>`, start, end.
pub type StageSpan = (&'static str, Instant, Instant);

#[derive(Default)]
struct Clock(Vec<StageSpan>);

impl Clock {
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let v = black_box(f());
        self.0.push((layer, start, Instant::now()));
        v
    }
}

/// Parse and compile `source`: the front end as one call.
pub fn compile_source(
    source: &str,
    env: &ConstEnv,
    options: &CompileOptions,
) -> Result<Compiled, String> {
    let program = parse_program(source).map_err(|e| format!("parse error: {e}"))?;
    compile(&program, env, options).map_err(|e| format!("compile error: {e}"))
}

/// Replay the front end of `compiled` (built from `source` under `env`
/// and `options`), one span per stage call.
///
/// # Errors
/// A binding the replay does not cover, or a tape that differs from
/// the compiled unit's.
pub fn replay_stages(
    source: &str,
    env: &ConstEnv,
    options: &CompileOptions,
    compiled: &Compiled,
) -> Result<Vec<StageSpan>, String> {
    let mut clock = Clock::default();
    let mut program = clock
        .time("front.parse", || parse_program(source))
        .map_err(|e| format!("parse: {e}"))?;
    let (mut clauses, mut loops) = (0u32, 0u32);
    for b in &mut program.bindings {
        match b {
            Binding::Let(d) => number_comp(&mut d.comp, &mut clauses, &mut loops),
            Binding::LetrecStar(ds) => {
                for d in ds {
                    number_comp(&mut d.comp, &mut clauses, &mut loops);
                }
            }
            Binding::BigUpd { comp, .. } | Binding::Reduce { comp, .. } => {
                number_comp(comp, &mut clauses, &mut loops);
            }
            Binding::Input { .. } => {}
        }
    }
    let mut known = TapeCtx {
        consts: env.iter().map(|(n, v)| (n.to_string(), v)).collect(),
        ..TapeCtx::default()
    };
    let mut units = compiled.units.iter();
    for b in &program.bindings {
        let unit = units.next();
        match (b, unit) {
            (Binding::Input { name, .. }, Some(Unit::Input { bounds, .. })) => {
                known.shapes.insert(name.clone(), bounds.clone());
            }
            (Binding::Let(def), Some(Unit::Thunkless { tape, .. })) => {
                replay_array(def, env, options, &mut known, tape.as_ref(), &mut clock)?;
            }
            (Binding::LetrecStar(defs), Some(Unit::Thunkless { tape, .. })) if defs.len() == 1 => {
                replay_array(
                    &defs[0],
                    env,
                    options,
                    &mut known,
                    tape.as_ref(),
                    &mut clock,
                )?;
            }
            (Binding::BigUpd { name, base, comp }, Some(Unit::Update { tape: want, .. })) => {
                let analysis = clock
                    .time("front.analyze", || {
                        analyze_bigupd(base, name, comp, env, &options.policy)
                    })
                    .map_err(|e| format!("analyze `{name}`: {e}"))?;
                let update = clock
                    .time("front.schedule", || plan_update(comp, &analysis))
                    .map_err(|e| format!("plan `{name}`: {e}"))?;
                let lowered = clock
                    .time("front.lower", || {
                        lower_update(base, name, &analysis.refs, &update, env)
                    })
                    .map_err(|e| format!("lower `{name}`: {e}"))?;
                let mut ctx = known.clone();
                if lowered.in_place {
                    ctx.aliases.insert(name.clone(), base.clone());
                }
                let tape = build_tape(&lowered.prog, &ctx, options, &mut clock);
                check_tape(name, want.as_ref(), tape.as_ref())?;
                if let Some(b) = known.shapes.get(base).cloned() {
                    known.shapes.insert(name.clone(), b);
                }
                clock.time("front.cost", || program_cost(&lowered.prog, &known.shapes));
            }
            _ => {
                return Err(
                    "stage replay covers inputs, single thunkless arrays and bigupd only".into(),
                );
            }
        }
    }
    Ok(clock.0)
}

fn replay_array(
    def: &ArrayDef,
    env: &ConstEnv,
    options: &CompileOptions,
    known: &mut TapeCtx,
    want: Option<&TapeProgram>,
    clock: &mut Clock,
) -> Result<(), String> {
    let name = &def.name;
    if matches!(def.kind, ArrayKind::Accumulated { .. }) || options.mode == ExecMode::ForceThunked {
        return Err(format!("stage replay does not cover `{name}`'s strategy"));
    }
    let analysis = clock
        .time("front.analyze", || analyze_array(def, env, &options.policy))
        .map_err(|e| format!("analyze `{name}`: {e}"))?;
    let ScheduleOutcome::Thunkless(plan) = clock.time("front.schedule", || {
        schedule(&def.comp, &analysis.flow.edges)
    }) else {
        return Err(format!("`{name}` needs thunks"));
    };
    let elidable = analysis.collisions.checks_elidable()
        && analysis.empties.checks_elidable()
        && analysis.oob == BoundsVerdict::InBounds;
    let checks = if options.mode == ExecMode::ForceChecked || !elidable {
        CheckMode::Checked
    } else {
        CheckMode::Elide
    };
    let prog = clock
        .time("front.lower", || {
            lower_array(name, &analysis.bounds, &analysis.refs, &plan, env, checks)
        })
        .map_err(|e| format!("lower `{name}`: {e}"))?;
    clock.time("front.cost", || program_cost(&prog, &known.shapes));
    let tape = build_tape(&prog, known, options, clock);
    check_tape(name, want, tape.as_ref())?;
    known.shapes.insert(name.clone(), analysis.bounds);
    Ok(())
}

fn build_tape(
    prog: &LProgram,
    ctx: &TapeCtx,
    options: &CompileOptions,
    clock: &mut Clock,
) -> Option<TapeProgram> {
    if options.engine == Engine::TreeWalk {
        return None;
    }
    let mut tape = clock.time("front.tape", || compile_tape(prog, ctx));
    if options.fuse {
        clock.time("front.fuse", || fuse_tape(&mut tape));
    }
    if options.engine == Engine::ParTape {
        clock.time("front.par_plan", || plan_tape(&tape));
    }
    Some(tape)
}

fn check_tape(
    name: &str,
    want: Option<&TapeProgram>,
    got: Option<&TapeProgram>,
) -> Result<(), String> {
    if want == got {
        Ok(())
    } else {
        Err(format!(
            "replayed tape for `{name}` differs from the compiled unit's"
        ))
    }
}
