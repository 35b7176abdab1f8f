//! `hacc` — the command-line driver: compile a `.hac` program, explain
//! the analysis, and run it.
//!
//! ```text
//! hacc PROGRAM.hac [name=value ...] [options]
//! hacc batch JOBS.json [serve options]    run a batch of requests
//! hacc serve [serve options]              JSON-lines requests on stdin
//! hacc daemon --listen ADDR [serve options]  persistent TCP daemon
//!
//! options:
//!   --mode auto|thunked|checked   execution strategy (default auto)
//!   --engine treewalk|tape        evaluation engine (default tape;
//!                                 `partape` is an alias of `tape`)
//!   --threads N                   tape worker count (default: all cores)
//!   --fill zero|random[:SEED]     how to fill `input` arrays (default random)
//!   --fuel N                      abort after N metered ops (loop iterations + calls)
//!   --mem-limit BYTES             cap bytes of array payload allocated
//!   --deadline-ms N               convert a deadline to fuel before running
//!   --ops-per-ms N                the deadline's rate (default: calibrated)
//!   --fault-plan SPEC             inject deterministic worker faults (testing)
//!   --no-run                      only explain, do not execute
//!   --no-fuse                     disable vector-kernel fusion of parallel
//!                                 affine loops (scalar tape dispatch)
//!   --quiet                       suppress the compilation report
//!   --print NAME                  print one array (repeatable; default: results)
//!   --emit limp                   print the generated loop IR per unit
//!
//! serve options:
//!   --workers N                   concurrent requests (default: all cores)
//!   --threads N                   tape workers within one request (default 1)
//!   --ceiling-fuel N              global fuel pool shared by all requests
//!   --ceiling-mem BYTES           global memory pool
//!   --cache-cap N                 compiled-program cache entries (default 256;
//!                                 0 = unbounded)
//!   --result-cache-cap N          materialized-result cache entries — memoized
//!                                 outcomes plus `bigupd` family snapshots for
//!                                 delta recomputation (default 256;
//!                                 0 = caching off)
//!   --no-fuse                     compile request programs without the
//!                                 vector-fusion pass (scalar tape dispatch)
//!   --ops-per-ms N                inject the deadline rate (skip calibration)
//!   --engine / --mode             defaults for requests that don't pick
//!   --shed-watermark N            batch queue depth past which the lowest-
//!                                 share tenant's newest arrivals are shed
//!                                 with `overloaded` + a `retry_after_ops`
//!                                 hint (default 0 = never shed)
//!   --retry-budget N              extra attempts granted on an unabsorbed
//!                                 engine fault (default 1)
//!
//! daemon options (besides the serve options):
//!   --listen ADDR                 address to bind, e.g. 127.0.0.1:7070
//!                                 (port 0 picks a free port; the bound
//!                                 address is printed on stdout)
//!   --max-conns N                 concurrent connections (default 8)
//!   --io-timeout-ms N             per-connection read/write deadline
//!                                 (default: none)
//!   --max-line-bytes N            request-line byte cap (default 1 MiB)
//!   --chaos-plan SPEC             deterministic I/O fault plan, e.g.
//!                                 `c1:drop,c2r1:garbage`; engine tokens
//!                                 like `r0c0:panic` ride in the same spec
//! ```
//!
//! Requests carry optional `tenant` and `weight` fields: `hacc batch`
//! admits in the weighted fair (stride) order across tenants, and a
//! daemon connection can attribute its requests to a tenant with
//! `{"control":"tenant","tenant":"acme"}`. `{"control":"shutdown"}`
//! stops the daemon gracefully; `{"control":"stats"}` reports cache
//! counters and per-tenant request totals.
//!
//! Deadlines never reach the engines as clocks: `--deadline-ms` (and a
//! request's `deadline_ms`) is multiplied into a fuel budget by a
//! `DeadlineGovernor` calibrated once at startup — injectable via
//! `--ops-per-ms` for reproducible runs.
//!
//! Exit codes: 0 success, 1 usage or I/O error, 2 parse or compile
//! error, 3 runtime error, 4 resource limit exhausted. `batch` and
//! `serve` report per-request statuses in their JSON output and exit 0
//! whenever the batch itself was processed.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::process::ExitCode;

use hac::core::deadline::DeadlineGovernor;
use hac::core::pipeline::{
    compile, default_threads, run_with_options, CompileOptions, Engine, ExecMode, RunOptions, Unit,
};
use hac::lang::parser::parse_program;
use hac::lang::ConstEnv;
use hac::serve::{engine_from_str, json, mode_from_str, Request, ServeOptions, Server};
use hac_runtime::governor::{FaultPlan, Limits};
use hac_runtime::value::{ArrayBuf, FuncTable};
use hac_runtime::RuntimeError;
use hac_workloads::XorShift;

struct Options {
    file: String,
    env: ConstEnv,
    mode: ExecMode,
    engine: Engine,
    threads: usize,
    limits: Limits,
    deadline_ms: Option<u64>,
    ops_per_ms: Option<u64>,
    faults: Option<FaultPlan>,
    fill_random: bool,
    seed: u64,
    run_it: bool,
    quiet: bool,
    fuse: bool,
    emit_limp: bool,
    print: Vec<String>,
}

fn usage() -> &'static str {
    "usage: hacc PROGRAM.hac [name=value ...] \
     [--mode auto|thunked|checked] [--engine treewalk|tape] \
     [--threads N] [--fill zero|random[:SEED]] \
     [--fuel N] [--mem-limit BYTES] [--deadline-ms N] [--ops-per-ms N] \
     [--fault-plan SPEC] [--no-run] [--no-fuse] [--quiet] [--print NAME]\n\
     \x20      hacc batch JOBS.json [--workers N] [--threads N] \
     [--ceiling-fuel N] [--ceiling-mem BYTES] [--cache-cap N] \
     [--result-cache-cap N] [--no-fuse] [--ops-per-ms N]\n\
     [--shed-watermark N] [--retry-budget N]\n\
     \x20      hacc serve [same options as batch]\n\
     \x20      hacc daemon --listen ADDR [--max-conns N] [--io-timeout-ms N] \
     [--max-line-bytes N] [--chaos-plan SPEC] [same options as batch]"
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        file: String::new(),
        env: ConstEnv::new(),
        mode: ExecMode::Auto,
        engine: Engine::Tape,
        threads: default_threads(),
        limits: Limits::default(),
        deadline_ms: None,
        ops_per_ms: None,
        faults: None,
        fill_random: true,
        seed: 0xC0FFEE,
        run_it: true,
        quiet: false,
        fuse: true,
        emit_limp: false,
        print: Vec::new(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--mode" => {
                let m = args.next().ok_or("--mode needs a value")?;
                opts.mode = mode_from_str(&m)?;
            }
            "--engine" => {
                let e = args.next().ok_or("--engine needs a value")?;
                opts.engine = engine_from_str(&e)?;
            }
            "--threads" => {
                let n = args.next().ok_or("--threads needs a value")?;
                opts.threads = n
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| format!("--threads needs a positive integer, got `{n}`"))?;
            }
            "--fill" => {
                let f = args.next().ok_or("--fill needs a value")?;
                if f == "zero" {
                    opts.fill_random = false;
                } else if let Some(rest) = f.strip_prefix("random") {
                    opts.fill_random = true;
                    if let Some(seed) = rest.strip_prefix(':') {
                        opts.seed = seed.parse().map_err(|_| "bad seed")?;
                    }
                } else {
                    return Err(format!("unknown fill `{f}`"));
                }
            }
            "--fuel" => {
                let n = args.next().ok_or("--fuel needs a value")?;
                opts.limits.fuel = Some(
                    n.parse()
                        .map_err(|_| format!("--fuel needs a non-negative integer, got `{n}`"))?,
                );
            }
            "--mem-limit" => {
                let n = args.next().ok_or("--mem-limit needs a value")?;
                opts.limits.mem_bytes = Some(n.parse().map_err(|_| {
                    format!("--mem-limit needs a non-negative byte count, got `{n}`")
                })?);
            }
            "--deadline-ms" => {
                let n = args.next().ok_or("--deadline-ms needs a value")?;
                opts.deadline_ms = Some(n.parse().map_err(|_| {
                    format!("--deadline-ms needs a non-negative integer, got `{n}`")
                })?);
            }
            "--ops-per-ms" => {
                let n = args.next().ok_or("--ops-per-ms needs a value")?;
                opts.ops_per_ms =
                    Some(n.parse().map_err(|_| {
                        format!("--ops-per-ms needs a positive integer, got `{n}`")
                    })?);
            }
            "--fault-plan" => {
                let spec = args.next().ok_or("--fault-plan needs a value")?;
                opts.faults =
                    Some(FaultPlan::parse(&spec).map_err(|e| format!("bad --fault-plan: {e}"))?);
            }
            "--no-run" => opts.run_it = false,
            "--no-fuse" => opts.fuse = false,
            "--quiet" => opts.quiet = true,
            "--emit" => {
                let what = args.next().ok_or("--emit needs a value")?;
                if what == "limp" {
                    opts.emit_limp = true;
                } else {
                    return Err(format!("unknown emit target `{what}`"));
                }
            }
            "--print" => opts.print.push(args.next().ok_or("--print needs a name")?),
            "--help" | "-h" => return Err(usage().to_string()),
            other if other.contains('=') => {
                let (name, value) = other.split_once('=').expect("checked");
                let v: i64 = value
                    .parse()
                    .map_err(|_| format!("parameter `{name}` needs an integer, got `{value}`"))?;
                opts.env.bind(name, v);
            }
            other if opts.file.is_empty() => opts.file = other.to_string(),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if opts.file.is_empty() {
        return Err(usage().to_string());
    }
    Ok(opts)
}

fn fill_inputs(
    compiled: &hac::core::pipeline::Compiled,
    opts: &Options,
) -> HashMap<String, ArrayBuf> {
    let mut rng = XorShift::new(opts.seed);
    let mut out = HashMap::new();
    for unit in &compiled.units {
        if let Unit::Input { name, bounds } = unit {
            let mut buf = ArrayBuf::new(bounds, 0.0);
            if opts.fill_random {
                for v in buf.data_mut() {
                    *v = (rng.next_f64() * 10.0).round() / 10.0;
                }
            }
            out.insert(name.clone(), buf);
        }
    }
    out
}

fn print_array(name: &str, buf: &ArrayBuf) {
    let bounds = buf.bounds();
    println!("array `{name}` bounds {bounds:?}:");
    match bounds.len() {
        1 => {
            let (lo, hi) = bounds[0];
            let vals: Vec<String> = (lo..=hi.min(lo + 19))
                .map(|i| format!("{:.4}", buf.get(name, &[i]).unwrap()))
                .collect();
            let ell = if hi - lo + 1 > 20 { " ..." } else { "" };
            println!("  [{}{}]", vals.join(", "), ell);
        }
        2 => {
            let (ilo, ihi) = bounds[0];
            let (jlo, jhi) = bounds[1];
            for i in ilo..=ihi.min(ilo + 9) {
                let row: Vec<String> = (jlo..=jhi.min(jlo + 9))
                    .map(|j| format!("{:>9.4}", buf.get(name, &[i, j]).unwrap()))
                    .collect();
                println!("  {}", row.join(" "));
            }
            if ihi - ilo + 1 > 10 || jhi - jlo + 1 > 10 {
                println!("  ... (truncated)");
            }
        }
        _ => println!("  ({} elements)", buf.len()),
    }
}

/// Distinct nonzero exit codes so callers can tell failure classes
/// apart without scraping stderr.
const EXIT_USAGE: u8 = 1;
const EXIT_COMPILE: u8 = 2;
const EXIT_RUNTIME: u8 = 3;
const EXIT_LIMIT: u8 = 4;

/// Serving-layer options shared by `hacc batch`, `hacc serve`, and
/// `hacc daemon`.
struct ServeCli {
    options: ServeOptions,
    workers: usize,
    /// Positional argument: the jobs file for `batch`.
    jobs_file: Option<String>,
    /// `--listen` address for `daemon`.
    listen: Option<String>,
    /// `--max-conns` for `daemon`.
    max_conns: usize,
    /// `--io-timeout-ms` for `daemon`.
    io_timeout_ms: Option<u64>,
    /// `--max-line-bytes` for `daemon`.
    max_line_bytes: usize,
    /// `--chaos-plan` for `daemon`.
    chaos_plan: Option<String>,
}

fn parse_serve_args(mut args: std::env::Args) -> Result<ServeCli, String> {
    let mut engine = Engine::Tape;
    let mut mode = ExecMode::Auto;
    let mut threads = 1usize;
    let mut workers = default_threads();
    let mut ceiling = Limits::default();
    let mut cache_cap = hac::serve::DEFAULT_CACHE_CAP;
    let mut result_cache_cap = hac::serve::DEFAULT_RESULT_CACHE_CAP;
    let mut fuse = true;
    let mut ops_per_ms: Option<u64> = None;
    let mut need_deadline = false;
    let mut jobs_file = None;
    let mut listen = None;
    let mut max_conns = 8usize;
    let mut shed_watermark = 0usize;
    let mut retry_budget = hac::serve::DEFAULT_RETRY_BUDGET;
    let mut io_timeout_ms = None;
    let mut max_line_bytes = hac::serve::daemon::DEFAULT_MAX_LINE_BYTES;
    let mut chaos_plan = None;
    while let Some(arg) = args.next() {
        let mut uint = |flag: &str| -> Result<u64, String> {
            let n = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            n.parse()
                .map_err(|_| format!("{flag} needs a non-negative integer, got `{n}`"))
        };
        match arg.as_str() {
            "--engine" => {
                let e = args.next().ok_or("--engine needs a value")?;
                engine = engine_from_str(&e)?;
            }
            "--mode" => {
                let m = args.next().ok_or("--mode needs a value")?;
                mode = mode_from_str(&m)?;
            }
            "--threads" => {
                let n = args.next().ok_or("--threads needs a value")?;
                threads = n
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| format!("--threads needs a positive integer, got `{n}`"))?;
            }
            "--workers" => {
                let n = args.next().ok_or("--workers needs a value")?;
                workers = n
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| format!("--workers needs a positive integer, got `{n}`"))?;
            }
            "--ceiling-fuel" => ceiling.fuel = Some(uint("--ceiling-fuel")?),
            "--ceiling-mem" => ceiling.mem_bytes = Some(uint("--ceiling-mem")?),
            "--cache-cap" => cache_cap = uint("--cache-cap")? as usize,
            "--result-cache-cap" => result_cache_cap = uint("--result-cache-cap")? as usize,
            "--no-fuse" => fuse = false,
            "--ops-per-ms" => ops_per_ms = Some(uint("--ops-per-ms")?),
            "--deadlines" => need_deadline = true,
            "--listen" => {
                listen = Some(args.next().ok_or("--listen needs an address")?);
            }
            "--max-conns" => max_conns = uint("--max-conns")?.max(1) as usize,
            "--shed-watermark" => shed_watermark = uint("--shed-watermark")? as usize,
            "--retry-budget" => {
                retry_budget = u32::try_from(uint("--retry-budget")?)
                    .map_err(|_| "--retry-budget is too large".to_string())?;
            }
            "--io-timeout-ms" => io_timeout_ms = Some(uint("--io-timeout-ms")?.max(1)),
            "--max-line-bytes" => {
                max_line_bytes = uint("--max-line-bytes")?.max(1) as usize;
            }
            "--chaos-plan" => {
                chaos_plan = Some(args.next().ok_or("--chaos-plan needs a spec")?);
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other if jobs_file.is_none() && !other.starts_with("--") => {
                jobs_file = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    // A governor is built whenever the rate is known without a clock
    // read; calibration is deferred to first use otherwise (requests
    // without deadlines shouldn't pay for it — `--deadlines` forces
    // it at startup).
    let deadline = ops_per_ms
        .map(DeadlineGovernor::with_rate)
        .or_else(|| need_deadline.then(DeadlineGovernor::calibrate));
    Ok(ServeCli {
        options: ServeOptions {
            engine,
            mode,
            threads,
            ceiling,
            deadline,
            cache_cap,
            shed_watermark,
            retry_budget,
            faults: None,
            result_cache_cap,
            fuse,
        },
        workers,
        jobs_file,
        listen,
        max_conns,
        io_timeout_ms,
        max_line_bytes,
        chaos_plan,
    })
}

/// Resolve one request object: a `file` key is read here (the serve
/// library only understands inline `source`).
fn resolve_request(v: &json::Json) -> Result<Request, String> {
    let v = match (v.get("file"), v.get("source")) {
        (Some(f), None) => {
            let path = f.as_str().ok_or("`file` must be a string")?;
            let source =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let json::Json::Obj(fields) = v else {
                return Err("request must be an object".to_string());
            };
            let mut fields = fields.clone();
            fields.retain(|(k, _)| k != "file");
            fields.push(("source".to_string(), json::Json::Str(source)));
            json::Json::Obj(fields)
        }
        _ => v.clone(),
    };
    Request::from_json(&v)
}

fn batch_main(cli: ServeCli) -> ExitCode {
    let Some(jobs_file) = cli.jobs_file.clone() else {
        eprintln!("batch needs a JOBS.json argument");
        return ExitCode::from(EXIT_USAGE);
    };
    let text = match std::fs::read_to_string(&jobs_file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read `{jobs_file}`: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let parsed = match json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bad jobs file: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    // Either a bare array of requests or {"jobs": [...]}.
    let jobs = parsed
        .get("jobs")
        .and_then(json::Json::as_arr)
        .or_else(|| parsed.as_arr());
    let Some(jobs) = jobs else {
        eprintln!("jobs file must be an array of requests or {{\"jobs\": [...]}}");
        return ExitCode::from(EXIT_USAGE);
    };
    let mut reqs = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        match resolve_request(job) {
            Ok(r) => reqs.push(r),
            Err(e) => {
                eprintln!("job {i}: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }
    let server = Server::new(cli.options);
    let mut responses = server.run_batch(&reqs, cli.workers);
    // Honor `retry_after_ops`: an overloaded response asks the client
    // to come back once the admitted backlog's fuel has drained, and
    // `run_batch` returns only after that backlog completed — so one
    // immediate resubmission of the shed requests honors the hint
    // exactly (no clock involved). Requests shed twice stay
    // overloaded: the queue is genuinely past capacity.
    let shed: Vec<usize> = (0..responses.len())
        .filter(|&i| responses[i].status == hac::serve::Status::Overloaded)
        .collect();
    if !shed.is_empty() {
        let hint = responses[shed[0]].retry_after_ops.unwrap_or(0);
        eprintln!(
            "batch: {} overloaded response(s), resubmitting after a backlog of {} op(s)",
            shed.len(),
            hint,
        );
        let again: Vec<Request> = shed.iter().map(|&i| reqs[i].clone()).collect();
        let retried = server.run_batch(&again, cli.workers);
        for (resp, &i) in retried.into_iter().zip(&shed) {
            responses[i] = resp;
        }
    }
    let out = json::Json::Arr(responses.iter().map(|r| r.to_json()).collect());
    println!("{out}");
    let stats = server.cache_stats();
    let sv = server.server_stats();
    eprintln!(
        "batch: {} request(s), cache {} hit(s) / {} miss(es) / {} eviction(s), {} live of cap {}, \
         {} shed, {} retried",
        responses.len(),
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.live,
        stats.cap,
        sv.shed,
        sv.retried,
    );
    ExitCode::SUCCESS
}

fn daemon_main(mut cli: ServeCli) -> ExitCode {
    let Some(listen) = cli.listen.clone() else {
        eprintln!("daemon needs --listen ADDR (e.g. --listen 127.0.0.1:7070)");
        return ExitCode::from(EXIT_USAGE);
    };
    // The plan's engine-level tokens are routed to the server so one
    // spec faults both the sockets and the engines.
    let chaos = match cli
        .chaos_plan
        .as_deref()
        .map(hac::serve::chaos::ChaosPlan::parse)
    {
        None => None,
        Some(Ok(plan)) => Some(plan),
        Some(Err(e)) => {
            eprintln!("bad chaos plan: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    cli.options.faults = chaos
        .as_ref()
        .map(|plan| plan.engine.clone())
        .filter(FaultPlan::is_active);
    let listener = match std::net::TcpListener::bind(&listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind `{listen}`: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let addr = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot read bound address: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    // The one line clients (and the CI smoke) parse to find the port —
    // printed before the first accept so a scripted parent can connect
    // as soon as it sees it.
    println!("daemon listening on {addr}");
    let _ = std::io::stdout().flush();
    let server = std::sync::Arc::new(Server::new(cli.options));
    let opts = hac::serve::daemon::DaemonOptions {
        max_conns: cli.max_conns,
        io_timeout_ms: cli.io_timeout_ms,
        max_line_bytes: cli.max_line_bytes,
        chaos,
    };
    match hac::serve::daemon::run(server, listener, opts) {
        Ok(()) => {
            eprintln!("daemon: shut down cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("daemon error: {e}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

fn serve_main(cli: ServeCli) -> ExitCode {
    let server = Server::new(cli.options);
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("stdin error: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match json::parse(&line).and_then(|v| resolve_request(&v)) {
            Ok(req) => server.handle(&req),
            Err(e) => {
                // The same structured shape the daemon's armor uses:
                // a stable code in `error`, specifics in `detail`.
                let err = json::Json::Obj(vec![
                    ("id".to_string(), json::Json::Null),
                    (
                        "status".to_string(),
                        json::Json::Str("rejected".to_string()),
                    ),
                    (
                        "error".to_string(),
                        json::Json::Str("bad-request".to_string()),
                    ),
                    ("detail".to_string(), json::Json::Str(e)),
                ]);
                let _ = writeln!(stdout, "{err}");
                let _ = stdout.flush();
                continue;
            }
        };
        let _ = writeln!(stdout, "{}", response.to_json());
        let _ = stdout.flush();
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // Subcommand dispatch: `hacc serve` / `hacc batch` take their own
    // flags; everything else is the classic single-program driver.
    let mut peek = std::env::args();
    peek.next(); // argv[0]
    if let Some(sub @ ("serve" | "batch" | "daemon")) = peek.next().as_deref() {
        let sub = sub.to_string();
        let mut args = std::env::args();
        args.next();
        args.next();
        let cli = match parse_serve_args(args) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(EXIT_USAGE);
            }
        };
        return match sub.as_str() {
            "batch" => batch_main(cli),
            "daemon" => daemon_main(cli),
            _ => serve_main(cli),
        };
    }
    let mut opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    // Convert a wall-clock deadline into fuel *before* execution: the
    // engines never read the clock, so the run stays deterministic for
    // a given rate (inject `--ops-per-ms` to pin it).
    if let Some(ms) = opts.deadline_ms {
        let governor = opts
            .ops_per_ms
            .map_or_else(DeadlineGovernor::calibrate, DeadlineGovernor::with_rate);
        let budget = governor.fuel_for_deadline(ms);
        opts.limits.fuel = Some(opts.limits.fuel.map_or(budget, |f| f.min(budget)));
    }
    let opts = opts;
    let source = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read `{}`: {e}", opts.file);
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let program = match parse_program(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("parse error: {e}");
            return ExitCode::from(EXIT_COMPILE);
        }
    };
    let compiled = match compile(
        &program,
        &opts.env,
        &CompileOptions {
            mode: opts.mode,
            engine: opts.engine,
            fuse: opts.fuse,
            ..CompileOptions::default()
        },
    ) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("compile error: {e}");
            return ExitCode::from(EXIT_COMPILE);
        }
    };
    if !opts.quiet {
        print!("{}", compiled.report.render());
    }
    if opts.emit_limp {
        for unit in &compiled.units {
            match unit {
                Unit::Thunkless { name, prog, .. } => {
                    println!("--- limp for array `{name}` ---");
                    print!("{}", prog.render());
                }
                Unit::Update { name, lowered, .. } => {
                    println!(
                        "--- limp for update `{name}`{} ---",
                        if lowered.in_place { " (in place)" } else { "" }
                    );
                    print!("{}", lowered.prog.render());
                }
                _ => {}
            }
        }
    }
    if !opts.run_it {
        return ExitCode::SUCCESS;
    }
    let inputs = fill_inputs(&compiled, &opts);
    let run_opts = RunOptions {
        threads: Some(opts.threads),
        limits: opts.limits,
        faults: opts.faults.clone(),
        ceiling: None,
    };
    let out = match run_with_options(&compiled, &inputs, &FuncTable::new(), &run_opts) {
        Ok(o) => o,
        Err(
            e @ (RuntimeError::FuelExhausted { .. }
            | RuntimeError::MemLimitExceeded { .. }
            | RuntimeError::CeilingExhausted { .. }),
        ) => {
            eprintln!("limit exceeded: {e}");
            return ExitCode::from(EXIT_LIMIT);
        }
        Err(e) => {
            eprintln!("runtime error: {e}");
            return ExitCode::from(EXIT_RUNTIME);
        }
    };
    let names: Vec<String> = if opts.print.is_empty() {
        program.result_names()
    } else {
        opts.print.clone()
    };
    for name in &names {
        if let Some(buf) = out.arrays.get(name) {
            print_array(name, buf);
        } else if let Some(v) = out.scalars.get(name) {
            println!("scalar `{name}` = {v}");
        } else {
            eprintln!("no array or scalar `{name}` in output");
        }
    }
    for (name, v) in &out.scalars {
        if !names.contains(name) {
            println!("scalar `{name}` = {v}");
        }
    }
    println!(
        "counters: {} stores, {} loads, {} checks, {} thunks, {} copies, {} temp elems",
        out.counters.vm.stores,
        out.counters.vm.loads,
        out.counters.vm.check_ops,
        out.counters.thunked.thunks_allocated,
        out.counters.vm.elements_copied,
        out.counters.vm.temp_elements
    );
    if out.counters.vm.engine_faults > 0 {
        println!(
            "engine faults: {} parallel region(s) recovered sequentially",
            out.counters.vm.engine_faults
        );
    }
    ExitCode::SUCCESS
}
