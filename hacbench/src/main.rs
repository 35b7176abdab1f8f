//! `hacbench`: the end-to-end benchmark of `hac`.
//!
//! ```text
//! hacbench [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Three workloads drive a `hacc daemon` child process over loopback
//! TCP (`hot_repeat`, `sliding_delta`, `cold_mix`); `kernels` compiles
//! and runs the shipped programs in process. Every output is checked
//! against an oracle. Each metric prints as `<workload> <metric> <value>
//! <unit>`, and the last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, whose metrics are the
//! end-to-end ones, or with `--trace 1` the per-layer ones. A traced
//! run first repeats the untraced run, then replays every request of a
//! second run in process to time each layer (see `README.md`).
//!
//! `hacc` is expected next to this executable; `run.py` builds both.

mod daemon;
mod front;
mod kernels;
mod load;
mod oracle;
mod stats;
mod trace;
mod twin;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use hac_serve::json::Json;

use crate::daemon::DaemonKind;
use crate::stats::Metric;
use crate::trace::Trace;
use crate::workloads::{Sizes, Workload, FULL};

/// The tail latency reported: the highest percentile with at least ten
/// samples beyond it in every workload's window.
pub const TAIL: (f64, &str) = (0.9, "latency_p90_ms");

/// An untraced run sets up at least [`Config::setups`] times, then again
/// until the set-ups took [`Config::setup_budget`], up to this many;
/// `setup_s` is their median. A set-up of a few milliseconds varied by
/// a fifth between runs with five samples.
const MAX_SETUPS: usize = 100;

pub struct Config {
    pub seed: u64,
    pub window: Duration,
    pub setups: usize,
    pub setup_budget: Duration,
    pub sizes: &'static Sizes,
    pub daemon: DaemonKind,
}

impl Config {
    /// Whether an untraced run should set up once more, given the
    /// set-up times so far. A traced run sets up once.
    pub fn more_setups(&self, traced: bool, done: &[f64]) -> bool {
        !traced
            && (done.len() < self.setups
                || (done.iter().sum::<f64>() < self.setup_budget.as_secs_f64()
                    && done.len() < MAX_SETUPS))
    }
}

/// What one measured run of a workload yields.
#[derive(Default)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub e2e: Vec<Metric>,
    /// Supporting numbers: printed, but not part of the JSON result.
    pub info: Vec<Metric>,
    /// The daemon's cache and admission counters at the end of the run.
    pub ledger: Vec<Metric>,
    pub trace: Option<Trace>,
}

impl Phase {
    /// An operation that failed outright.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(why);
    }
}

/// Everything one workload reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub e2e: Vec<Metric>,
    pub info: Vec<Metric>,
    /// `Some` in a traced run.
    pub layers: Option<Vec<Metric>>,
    pub table: Option<String>,
    pub spans: Option<Json>,
}

fn metric<'a>(ms: &'a [Metric], name: &str) -> Option<&'a Metric> {
    ms.iter().find(|m| m.name == name)
}

fn run_phase(w: Workload, cfg: &Config, traced: bool) -> Phase {
    match w {
        Workload::Kernels => kernels::run(cfg, traced),
        _ => load::run(w, cfg, traced),
    }
}

/// Run one workload: untraced, then, with `trace`, a traced run whose
/// spans give the per-layer metrics. End-to-end metrics always come
/// from the untraced run.
pub fn run_workload(w: Workload, cfg: &Config, trace: bool) -> Outcome {
    let plain = run_phase(w, cfg, false);
    let mut out = Outcome {
        attempted: plain.attempted,
        failed: plain.failed,
        problems: plain.problems,
        e2e: plain.e2e,
        info: plain.info,
        layers: None,
        table: None,
        spans: None,
    };
    out.info.push(Metric::new(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    ));
    if !trace {
        return out;
    }
    let traced = run_phase(w, cfg, true);
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    out.problems.extend(traced.problems);
    let p50 = |ms: &[Metric]| metric(ms, "latency_p50_ms").map_or(0.0, |m| m.value);
    let overhead = p50(&traced.e2e) / p50(&out.e2e).max(f64::MIN_POSITIVE);
    if let Some(t) = traced.trace {
        let mut layers = t.metrics();
        layers.extend(plain.ledger);
        layers.push(Metric::new("trace.overhead", overhead, "ratio"));
        out.layers = Some(layers);
        out.table = Some(t.table());
        out.spans = Some(t.to_json());
    }
    out
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                args.workloads =
                    vec![Workload::parse(&w).ok_or_else(|| format!("unknown workload `{w}`"))?];
            }
            "--seed" => {
                let s = value("--seed")?;
                args.seed = s.parse().map_err(|_| format!("bad --seed `{s}`"))?;
            }
            "--seconds" => {
                let s = value("--seconds")?;
                args.seconds = s
                    .parse()
                    .ok()
                    .filter(|&s: &f64| s > 0.0 && s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds `{s}`"))?;
            }
            // `--trace 0|1`, or a bare `--trace`.
            "--trace" => {
                args.trace = it.peek().map(String::as_str) != Some("0");
                if matches!(it.peek().map(String::as_str), Some("0" | "1")) {
                    it.next();
                }
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(args)
}

fn metrics_json(ms: &[Metric], prefix: &str) -> Vec<(String, Json)> {
    ms.iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            (
                format!("{prefix}{}", m.name),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: hacbench [--workload W] [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let exe = std::env::current_exe().expect("the running executable has a path");
    let bin_dir = exe.parent().expect("the executable lives in a directory");
    let hacc = bin_dir.join("hacc");
    let needs_daemon = args.workloads.iter().any(|w| *w != Workload::Kernels);
    if needs_daemon && !hacc.is_file() {
        eprintln!(
            "no hacc at {}: build it first (run.py does)",
            hacc.display()
        );
        return ExitCode::from(2);
    }
    // Results go to <target>/hacbench, next to the build.
    let out_dir: PathBuf = bin_dir.parent().unwrap_or(bin_dir).join("hacbench");
    let cfg = Config {
        seed: args.seed,
        window: Duration::from_secs_f64(args.seconds),
        setups: 5,
        setup_budget: Duration::from_secs(1),
        sizes: &FULL,
        daemon: DaemonKind::Child(hacc),
    };
    let single = args.workloads.len() == 1;
    let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
    for w in &args.workloads {
        let out = run_workload(*w, &cfg, args.trace);
        let name = w.name();
        for p in out.problems.iter().take(20) {
            eprintln!("{name}: FAILED {p}");
        }
        let shown: Vec<&Metric> = out
            .e2e
            .iter()
            .chain(&out.info)
            .chain(out.layers.iter().flatten())
            .collect();
        for m in &shown {
            println!("{name} {} {} {}", m.name, m.value, m.unit);
        }
        if let Some(t) = &out.table {
            println!("{name} self-time per layer (traced run):\n{t}");
        }
        let reported = out.layers.as_deref().unwrap_or(&out.e2e);
        let prefix = if single {
            String::new()
        } else {
            format!("{name}.")
        };
        metrics.extend(metrics_json(reported, &prefix));
        attempted += out.attempted;
        failed += out.failed;
        let shown: Vec<Metric> = shown.into_iter().cloned().collect();
        let results = Json::Obj(vec![
            ("workload".into(), Json::Str(name.into())),
            ("seed".into(), Json::Num(args.seed as f64)),
            ("seconds".into(), Json::Num(args.seconds)),
            ("attempted".into(), Json::Num(out.attempted as f64)),
            ("failed".into(), Json::Num(out.failed as f64)),
            ("metrics".into(), Json::Obj(metrics_json(&shown, ""))),
        ]);
        let written = std::fs::create_dir_all(&out_dir).and_then(|()| {
            std::fs::write(
                out_dir.join(format!("results-{name}-{}.json", args.seed)),
                results.to_string(),
            )?;
            match &out.spans {
                Some(s) => {
                    std::fs::write(out_dir.join(format!("trace-{name}.json")), s.to_string())
                }
                None => Ok(()),
            }
        });
        if let Err(e) = written {
            eprintln!("cannot write results under {}: {e}", out_dir.display());
        }
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::Num(attempted.max(1) as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_serve::json;

    /// The metric names `BENCHMARK.json` lists under `key`.
    fn declared(key: &str) -> Vec<String> {
        let spec =
            json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        spec.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    fn names(ms: &[Metric]) -> Vec<String> {
        ms.iter().map(|m| m.name.clone()).collect()
    }

    /// Every workload, traced, with 1 s windows against an in-process
    /// daemon and small problem sizes, oracles on.
    fn smoke(w: Workload) {
        let cfg = Config {
            seed: 7,
            window: Duration::from_secs(1),
            setups: 1,
            setup_budget: Duration::ZERO,
            sizes: &workloads::SMOKE,
            daemon: DaemonKind::InProcess,
        };
        let out = run_workload(w, &cfg, true);
        assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.problems);
        assert!(out.attempted > 0);
        assert_eq!(names(&out.e2e), declared("end_to_end"));
        assert_eq!(
            names(out.layers.as_deref().expect("traced")),
            declared("per_layer")
        );
        let get = |n: &str| metric(&out.e2e, n).expect("emitted").value;
        assert!(get("latency_p50_ms") > 0.0);
        assert!(get("latency_p50_ms") <= get(TAIL.1));
        assert!(get("setup_s") > 0.0 && get("throughput_rps") > 0.0 && get("peak_rss_mb") > 0.0);
    }

    #[test]
    fn smoke_kernels() {
        smoke(Workload::Kernels);
    }

    #[test]
    fn smoke_hot_repeat() {
        smoke(Workload::HotRepeat);
    }

    #[test]
    fn smoke_sliding_delta() {
        smoke(Workload::SlidingDelta);
    }

    #[test]
    fn smoke_cold_mix() {
        smoke(Workload::ColdMix);
    }
}
