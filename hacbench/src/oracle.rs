//! Reply oracles for the daemon workloads. They run after the window,
//! so they cost the measurement nothing.

use std::collections::{HashMap, HashSet};

use hac_core::pipeline::Engine;
use hac_runtime::governor::FaultPlan;
use hac_serve::json::{self, Json};
use hac_serve::{Request, Response, ServeOptions, Server, Status};

use crate::load::Sample;

/// A server with no result cache, so every outcome is computed cold.
fn cold_server(engine: Engine, fuse: bool) -> Server {
    Server::new(ServeOptions {
        engine,
        fuse,
        result_cache_cap: 0,
        faults: Some(FaultPlan::default()),
        ..ServeOptions::default()
    })
}

/// Everything a request's outcome is a function of.
fn outcome_key(req: &Request) -> String {
    let mut params = req.params.clone();
    params.sort();
    format!(
        "{}{params:?}{}{:?}{:?}",
        req.source, req.seed, req.fuel, req.mem_bytes
    )
}

/// The first outcome field in which `got` differs from `want`.
fn first_difference(got: &Json, want: &Response) -> Option<&'static str> {
    let text = |k: &str| got.get(k).and_then(Json::as_str).map(str::to_string);
    if text("status").as_deref() != Some(want.status.as_str()) {
        Some("status")
    } else if text("answer_digest") != want.answer_digest {
        Some("answer_digest")
    } else if text("counters_digest") != want.counters_digest {
        Some("counters_digest")
    } else if got.get("fuel_left").and_then(Json::as_u64) != want.fuel_left {
        Some("fuel_left")
    } else if text("error") != want.error {
        Some("error")
    } else {
        None
    }
}

/// Tree-walk checks per program and run. The tree walker is several
/// times slower than the tape, and `sliding_delta` sends a new
/// parameter pair almost every request; the first pairs seen are checked.
const WALKS_PER_PROGRAM: usize = 8;

/// Check every reply field for field against a control server (no
/// result cache, no fusion, `Engine::Tape`), and the answer of each
/// distinct (program, parameters) pair once against the tree-walking
/// engine, up to [`WALKS_PER_PROGRAM`]. Transport errors count too.
/// Returns the number of failed requests and a description of each.
pub fn check(samples: &[Sample]) -> (u64, Vec<String>) {
    let control = cold_server(Engine::Tape, false);
    let treewalk = cold_server(Engine::TreeWalk, true);
    let mut expected: HashMap<String, Response> = HashMap::new();
    let mut walked: HashSet<String> = HashSet::new();
    let mut walks: HashMap<&str, usize> = HashMap::new();
    let mut problems = Vec::new();
    for s in samples {
        let id = &s.sent.req.id;
        let got = match &s.reply {
            Ok(r) => json::parse(r),
            Err(e) => Err(e.clone()),
        };
        let got = match got {
            Ok(g) => g,
            Err(e) => {
                problems.push(format!("{id}: {e}"));
                continue;
            }
        };
        let want = expected
            .entry(outcome_key(&s.sent.req))
            .or_insert_with(|| control.handle(&s.sent.req));
        if let Some(field) = first_difference(&got, want) {
            problems.push(format!("{id}: `{field}` differs from the control server"));
            continue;
        }
        let walks = walks.entry(s.sent.program).or_default();
        let pair = format!("{}{:?}", s.sent.program, s.sent.req.params);
        if want.status == Status::Ok && *walks < WALKS_PER_PROGRAM && walked.insert(pair) {
            *walks += 1;
            let walk = treewalk.handle(&s.sent.req);
            if walk.answer_digest != want.answer_digest {
                problems.push(format!("{id}: the tree-walking engine's answer differs"));
            }
        }
    }
    (problems.len() as u64, problems)
}
