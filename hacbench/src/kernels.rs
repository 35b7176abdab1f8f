//! `kernels`: parse+compile and run of the seven shipped programs in
//! process — the library and `hacc PROGRAM.hac` path, with no socket —
//! checked against the hand-written oracles of `hac_workloads`.

use std::collections::HashMap;
use std::time::Instant;

use hac_core::pipeline::{run_with_options, CompileOptions, Compiled, RunOptions};
use hac_lang::env::ConstEnv;
use hac_runtime::governor::{FaultPlan, Limits};
use hac_runtime::value::{ArrayBuf, FuncTable};
use hac_workloads::{
    assert_close, dot_oracle, jacobi_step_oracle, matmul_oracle, matvec_oracle, sor_oracle,
    thomas_oracle, wavefront_oracle,
};

use crate::front::{compile_source, replay_stages};
use crate::stats::{geomean, median, peak_rss_mb, quantile, Metric};
use crate::trace::Trace;
use crate::workloads::{fill_inputs, mix, Program, PROGRAMS};
use crate::{Config, Phase, TAIL};

/// The oracle for a shipped program: the result array it checks and
/// that array's expected value. `jacobi.hac` is the out-of-place step
/// and `tridiag.hac` the Thomas solve.
fn oracle(name: &str, n: i64, inputs: &HashMap<String, ArrayBuf>) -> (&'static str, ArrayBuf) {
    let i = |k: &str| &inputs[k];
    match name {
        "dot" => ("r", dot_oracle(i("a"), i("b"), n)),
        "jacobi" => ("b", jacobi_step_oracle(i("a"), n)),
        "matmul" => ("c", matmul_oracle(i("x"), i("y"), n)),
        "matvec" => ("y", matvec_oracle(i("m"), i("x"), n)),
        "sor" => ("b", sor_oracle(i("a"), n)),
        "tridiag" => ("x", thomas_oracle(i("d"), n)),
        "wavefront" => ("a", wavefront_oracle(n)),
        other => unreachable!("no oracle for `{other}`"),
    }
}

/// Consecutive compile+runs of one program before the next program's
/// turn. Interleaving programs one op at a time left each program's
/// multi-megabyte arrays sometimes reusing freed heap and sometimes
/// faulting in fresh pages, which differed from run to run by up to 2.5×.
const BURST: usize = 16;

/// The window is cut into this many equal time slices, and the
/// end-to-end numbers come from the best slice. Contention from other
/// tenants of the host only ever adds time, and it came in episodes
/// that slowed every program of a run by up to 1.7×.
const SLICES: usize = 5;

struct Kernel {
    program: &'static Program,
    env: ConstEnv,
    n: i64,
    inputs: HashMap<String, ArrayBuf>,
    /// The first run's arrays: every later run must reproduce them
    /// exactly, and the oracle checks them after the window.
    first: Option<HashMap<String, ArrayBuf>>,
    /// Per compile+run in the window: time slice, compile ms, run ms.
    samples: Vec<(usize, f64, f64)>,
    /// Whether the traced run has summed this program's engine counts.
    counted: bool,
}

impl Kernel {
    fn new(p: usize, cfg: &Config) -> Result<Kernel, String> {
        let program = &PROGRAMS[p];
        let n = cfg.sizes.kernel_n[p];
        let env = ConstEnv::from_pairs([("n", n)]);
        let compiled = compile_program(program, &env)?;
        Ok(Kernel {
            program,
            env,
            n,
            inputs: fill_inputs(&compiled, mix(cfg.seed, p as u64)),
            first: None,
            samples: Vec::new(),
            counted: false,
        })
    }

    /// One compile and run in time slice `slice`, checked against the
    /// first run's output.
    fn op(&mut self, slice: usize, trace: Option<&mut Trace>) -> Result<(), String> {
        let name = self.program.name;
        let t0 = Instant::now();
        let compiled = compile_program(self.program, &self.env)?;
        let t1 = Instant::now();
        let options = RunOptions {
            threads: Some(1),
            limits: Limits::unlimited(),
            faults: Some(FaultPlan::default()),
            ceiling: None,
        };
        let out = run_with_options(&compiled, &self.inputs, &FuncTable::new(), &options)
            .map_err(|e| format!("{name}: {e}"))?;
        let t2 = Instant::now();
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        self.samples.push((slice, ms(t1 - t0), ms(t2 - t1)));
        if let Some(tr) = trace {
            let req = tr.request();
            let root = tr.span(req, 0, "op", t0, t2, None);
            let c = tr.span(req, 0, "core.compile", t0, t1, Some(root));
            tr.span(req, 0, "core.run", t1, t2, Some(root));
            tr.program_time(name, 0, t0, t1);
            tr.program_time(name, 1, t1, t2);
            let stages = replay_stages(
                self.program.source,
                &self.env,
                &CompileOptions::default(),
                &compiled,
            )
            .map_err(|e| format!("{name}: {e}"))?;
            for (layer, a, b) in stages {
                tr.span(req, 0, layer, a, b, Some(c));
            }
            if !self.counted {
                tr.add_counters(&out.counters);
                self.counted = true;
            }
        }
        match &self.first {
            None => self.first = Some(out.arrays),
            Some(first) if *first == out.arrays => {}
            Some(_) => return Err(format!("{name}: output differs from the first run")),
        }
        Ok(())
    }

    /// Compile+run times in ms, in slice `slice` or (`None`) all.
    fn op_ms(&self, slice: Option<usize>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(s, ..)| slice.is_none_or(|want| *s == want))
            .map(|(_, c, r)| c + r)
            .collect()
    }

    /// Compare the first run's result with the hand-written oracle.
    fn check_oracle(&self) -> Result<(), String> {
        let name = self.program.name;
        let (array, want) = oracle(name, self.n, &self.inputs);
        let got = self
            .first
            .as_ref()
            .and_then(|f| f.get(array))
            .ok_or_else(|| format!("{name}: no `{array}` output"))?;
        std::panic::catch_unwind(|| assert_close(got, &want, 1e-9))
            .map_err(|_| format!("{name}: `{array}` differs from the oracle"))
    }
}

fn compile_program(program: &Program, env: &ConstEnv) -> Result<Compiled, String> {
    compile_source(program.source, env, &CompileOptions::default())
        .map_err(|e| format!("{}: {e}", program.name))
}

pub fn run(cfg: &Config, traced: bool) -> Phase {
    let mut phase = Phase::default();
    // Set-up: inputs plus one warm-up compile+run per program, repeated;
    // `setup_s` is the median.
    let mut setup_s = Vec::new();
    let mut kernels = Vec::new();
    while kernels.is_empty() || cfg.more_setups(traced, &setup_s) {
        let t = Instant::now();
        let built: Result<Vec<Kernel>, String> = (0..PROGRAMS.len())
            .map(|p| {
                let mut k = Kernel::new(p, cfg)?;
                k.op(0, None)?;
                k.samples.clear();
                Ok(k)
            })
            .collect();
        setup_s.push(t.elapsed().as_secs_f64());
        phase.attempted += PROGRAMS.len() as u64;
        match built {
            Ok(k) => kernels = k,
            Err(e) => {
                phase.fail(e);
                return phase;
            }
        }
    }

    let mut trace = traced.then(Trace::new);
    let start = Instant::now();
    let deadline = start + cfg.window;
    let mut ops = 0u64;
    'window: loop {
        for k in &mut kernels {
            for _ in 0..BURST {
                let now = Instant::now();
                if now >= deadline {
                    break 'window;
                }
                ops += 1;
                let elapsed = (now - start).as_secs_f64();
                let slice = (elapsed / cfg.window.as_secs_f64() * SLICES as f64) as usize;
                if let Err(e) = k.op(slice.min(SLICES - 1), trace.as_mut()) {
                    phase.fail(e);
                    break 'window;
                }
            }
        }
    }
    phase.attempted += ops;
    let rss = peak_rss_mb("self").unwrap_or_else(|e| {
        phase.fail(e);
        0.0
    });
    for k in &kernels {
        if let Err(e) = k.check_oracle() {
            phase.fail(e);
        }
    }

    // Per slice: the median weighs every program the same (a geometric
    // mean of per-program medians), the tail is pooled over all
    // operations, and throughput is a round of all programs at their
    // median times.
    let slice_stats = |slice: Option<usize>| -> Option<[f64; 3]> {
        let per: Vec<Vec<f64>> = kernels.iter().map(|k| k.op_ms(slice)).collect();
        if per.iter().any(Vec::is_empty) {
            return None;
        }
        let medians: Vec<f64> = per.iter().map(|v| median(v)).collect();
        Some([
            geomean(&medians),
            quantile(&per.concat(), TAIL.0),
            1e3 * per.len() as f64 / medians.iter().sum::<f64>(),
        ])
    };
    let [p50, tail, rps] = (0..SLICES)
        .filter_map(|s| slice_stats(Some(s)))
        .reduce(|a, b| [a[0].min(b[0]), a[1].min(b[1]), a[2].max(b[2])])
        .or_else(|| slice_stats(None))
        .unwrap_or_default();
    phase.e2e = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("latency_p50_ms", p50, "ms"),
        Metric::new(TAIL.1, tail, "ms"),
        Metric::new("throughput_rps", rps, "1/s"),
        Metric::new("peak_rss_mb", rss, "MB"),
    ];
    let part = |k: &Kernel, f: fn(&(usize, f64, f64)) -> f64| -> f64 {
        median(&k.samples.iter().map(f).collect::<Vec<_>>())
    };
    let compile = |k: &Kernel| part(k, |s| s.1);
    let run = |k: &Kernel| part(k, |s| s.2);
    let per_program =
        |f: &dyn Fn(&Kernel) -> f64| geomean(&kernels.iter().map(f).collect::<Vec<_>>());
    phase.info = vec![
        Metric::new("samples", ops as f64, "count"),
        Metric::new("compile_ms", per_program(&compile), "ms"),
        Metric::new("run_ms", per_program(&run), "ms"),
    ];
    for k in &kernels {
        let name = k.program.name;
        phase
            .info
            .push(Metric::new(format!("{name}.compile_ms"), compile(k), "ms"));
        phase
            .info
            .push(Metric::new(format!("{name}.run_ms"), run(k), "ms"));
    }
    phase.ledger = crate::load::ledger(None);
    phase.trace = trace;
    phase
}
