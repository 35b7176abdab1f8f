//! The traced daemon run's in-process twin: a `Server` with the
//! daemon's options that replays every exchange in reply-arrival order,
//! followed by a replay of the front end and the run for the twin's
//! class, each timed around the public entry point of its crate.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use hac_core::pipeline::{
    run_delta, run_units, run_with_meter, CompileOptions, Compiled, ExecState, RunOptions,
};
use hac_lang::env::ConstEnv;
use hac_runtime::governor::{FaultPlan, Limits, Meter};
use hac_runtime::value::FuncTable;
use hac_serve::json::{self, Json};
use hac_serve::{Request, Response, ServeOptions, Server, Status};

use crate::front::{compile_source, replay_stages};
use crate::load::Sample;
use crate::trace::Trace;
use crate::workloads::fill_inputs;

/// The class a reply reports: `reject` for an over-certificate
/// rejection, else its `result_cache` route (`bypass` when absent).
pub fn reply_class(reply: &Json) -> &'static str {
    if reply.get("status").and_then(Json::as_str) == Some("over-certificate") {
        return "reject";
    }
    match reply.get("result_cache").and_then(Json::as_str) {
        Some("hit") => "hit",
        Some("delta") => "delta",
        Some("miss") => "miss",
        _ => "bypass",
    }
}

fn response_class(resp: &Response) -> &'static str {
    if resp.status == Status::OverCertificate {
        return "reject";
    }
    resp.result_cache.map_or("bypass", |c| c.as_str())
}

fn sorted_params(req: &Request, skip: &[String]) -> Vec<(String, i64)> {
    let mut params: Vec<(String, i64)> = req
        .params
        .iter()
        .filter(|(k, _)| !skip.contains(k))
        .cloned()
        .collect();
    params.sort();
    params
}

/// A program-cache key: source and sorted parameters.
type ProgramKey = (String, Vec<(String, i64)>);

pub struct Twin {
    server: Server,
    pub trace: Trace,
    /// Compiled programs by source and parameters, for runs replayed on
    /// requests the daemon served from its program cache.
    compiled: HashMap<ProgramKey, Arc<Compiled>>,
    /// Prefix states of `bigupd` families, for replaying deltas.
    families: HashMap<String, ExecState>,
    /// Runs already summed into the engine counts.
    counted: HashSet<String>,
    pub problems: Vec<String>,
}

impl Twin {
    pub fn new() -> Twin {
        Twin {
            // The daemon's options, with the ambient fault plan pinned off.
            server: Server::new(ServeOptions {
                faults: Some(FaultPlan::default()),
                ..ServeOptions::default()
            }),
            trace: Trace::new(),
            compiled: HashMap::new(),
            families: HashMap::new(),
            counted: HashSet::new(),
            problems: Vec::new(),
        }
    }

    fn run_options(&self) -> RunOptions {
        RunOptions {
            threads: Some(self.server.options().threads),
            limits: Limits::unlimited(),
            faults: Some(FaultPlan::default()),
            ceiling: None,
        }
    }

    /// Replay one exchange. Spans: the round trip, then decode, handle
    /// and encode on the twin; under handle, the compile (when the
    /// daemon missed its program cache) with its stages, and the full
    /// or delta run for the twin's class.
    pub fn replay(&mut self, s: &Sample) {
        let req_id = self.trace.request();
        let root = self.trace.span(req_id, s.conn, "rtt", s.start, s.end, None);
        let Some(daemon) = s.reply.as_ref().ok().and_then(|r| json::parse(r).ok()) else {
            return;
        };
        self.trace.request_bytes.push((s.line.len() + 1) as f64);
        self.trace
            .response_bytes
            .push((s.reply.as_ref().map_or(0, String::len) + 1) as f64);

        let t0 = Instant::now();
        let req = json::parse(&s.line).and_then(|v| Request::from_json(&v));
        let t1 = Instant::now();
        self.trace
            .span(req_id, s.conn, "serve.decode", t0, t1, Some(root));
        let req = match req {
            Ok(r) => r,
            Err(e) => return self.problems.push(format!("{}: {e}", s.sent.req.id)),
        };
        let resp = self.server.handle(&req);
        let t2 = Instant::now();
        let class = response_class(&resp);
        let handle = self.trace.span(
            req_id,
            s.conn,
            format!("serve.handle.{class}"),
            t1,
            t2,
            Some(root),
        );
        black_box(resp.to_json().to_string());
        let t3 = Instant::now();
        self.trace
            .span(req_id, s.conn, "serve.encode", t2, t3, Some(root));
        if class != reply_class(&daemon) {
            self.trace.class_mismatches += 1;
        }

        let options = CompileOptions {
            mode: req.mode.unwrap_or(self.server.options().mode),
            engine: req.engine.unwrap_or(self.server.options().engine),
            fuse: self.server.options().fuse,
            ..CompileOptions::default()
        };
        let mut env = ConstEnv::new();
        for (k, v) in &req.params {
            env.bind(k, *v);
        }
        let key = (req.source.clone(), sorted_params(&req, &[]));
        let run_key = format!("{key:?}{:?}", (req.fuel, req.mem_bytes));
        let compiled = if daemon.get("cache").and_then(Json::as_str) == Some("miss") {
            let t4 = Instant::now();
            let compiled = compile_source(&req.source, &env, &options);
            let t5 = Instant::now();
            let compiled = match compiled {
                Ok(c) => Arc::new(c),
                // Compile errors are served as such; nothing to replay.
                Err(_) => return,
            };
            let span = self
                .trace
                .span(req_id, s.conn, "core.compile", t4, t5, Some(handle));
            self.trace.program_time(s.sent.program, 0, t4, t5);
            match replay_stages(&req.source, &env, &options, &compiled) {
                Ok(stages) => {
                    for (layer, a, b) in stages {
                        self.trace.span(req_id, s.conn, layer, a, b, Some(span));
                    }
                }
                Err(e) => self.problems.push(format!("{}: {e}", req.id)),
            }
            self.compiled.insert(key, Arc::clone(&compiled));
            compiled
        } else if class == "miss" || class == "delta" {
            match self.compiled.get(&key) {
                Some(c) => Arc::clone(c),
                None => match compile_source(&req.source, &env, &options) {
                    Ok(c) => Arc::new(c),
                    Err(_) => return,
                },
            }
        } else {
            return;
        };

        let funcs = FuncTable::new();
        let opts = self.run_options();
        let limits = Limits {
            fuel: req.fuel,
            mem_bytes: req.mem_bytes,
        };
        match class {
            "miss" => {
                let inputs = fill_inputs(&compiled, req.seed);
                let mut meter = Meter::new(limits);
                let t6 = Instant::now();
                let out = run_with_meter(&compiled, &inputs, &funcs, &opts, &mut meter);
                let t7 = Instant::now();
                self.trace
                    .span(req_id, s.conn, "core.run", t6, t7, Some(handle));
                self.trace.program_time(s.sent.program, 1, t6, t7);
                if let Ok(out) = &out {
                    self.trace.add_digest_bytes(out);
                    if self.counted.insert(run_key) {
                        self.trace.add_counters(&out.counters);
                    }
                }
                if compiled.delta.is_some() {
                    self.family(&req, &compiled);
                }
            }
            "delta" => {
                let Some(state) = self.family(&req, &compiled) else {
                    return;
                };
                let state = state.clone();
                let mut meter = Meter::new(limits);
                let t6 = Instant::now();
                let out = run_delta(&compiled, &state, &funcs, &opts, &mut meter);
                let t7 = Instant::now();
                self.trace
                    .span(req_id, s.conn, "core.run_delta", t6, t7, Some(handle));
                if let Ok(out) = &out {
                    self.trace.add_digest_bytes(out);
                }
            }
            _ => {}
        }
    }

    /// The prefix state `req`'s family shares (everything before the
    /// trailing `bigupd`), computed on first use.
    fn family(&mut self, req: &Request, compiled: &Compiled) -> Option<&ExecState> {
        let plan = compiled.delta.as_ref()?;
        let key = format!(
            "{}{:?}{}",
            req.source,
            sorted_params(req, &plan.params),
            req.seed
        );
        if !self.families.contains_key(&key) {
            let inputs = fill_inputs(compiled, req.seed);
            let mut state = ExecState::default();
            let last = compiled.units.len() - 1;
            let mut meter = Meter::new(Limits::unlimited());
            let opts = self.run_options();
            if let Err(e) = run_units(
                compiled,
                0..last,
                &mut state,
                &inputs,
                &FuncTable::new(),
                &opts,
                &mut meter,
            ) {
                self.problems
                    .push(format!("{}: prefix run failed: {e}", req.id));
                return None;
            }
            self.families.insert(key.clone(), state);
        }
        self.families.get(&key)
    }
}
