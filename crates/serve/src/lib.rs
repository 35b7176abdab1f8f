//! # hac-serve
//!
//! A multi-tenant serving layer over the `hac` pipeline: one process
//! hosts many concurrent requests, each compiled once (a cache keyed
//! by source, parameters, mode and engine skips parse/schedule/lower
//! on repeats) and executed under a per-request [`Meter`] admitted
//! against a process-wide [`SharedCeiling`].
//!
//! The layer inherits the repo's determinism contract: a request's
//! outcome — answer digest, exhaustion point, fuel left, counters — is
//! a pure function of its own program, inputs, and budget. Admission
//! follows a weighted fair schedule across tenants (see [`sched`]);
//! execution may be concurrent, and the ceiling's settlement rule (see
//! [`SharedCeiling`]) guarantees a heavy tenant exhausting its budget
//! can never perturb a light tenant's result. Deadlines are converted
//! to fuel *before* execution by a [`DeadlineGovernor`], so no engine
//! ever reads the clock. The compiled-program cache is bounded
//! ([`cache`]) and a persistent TCP daemon ([`daemon`]) serves the
//! same JSON-lines protocol over real sockets.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use hac_core::deadline::DeadlineGovernor;
use hac_core::pipeline::{
    compile, fill_inputs, run_delta, run_units, run_with_meter, CompileOptions, Compiled, Engine,
    ExecMode, ExecState, RunOptions, Unit,
};
use hac_core::report::Report;
use hac_runtime::error::RuntimeError;
use hac_runtime::governor::{FaultPlan, Limits, Meter, SharedCeiling};
use hac_runtime::value::{ArrayBuf, FuncTable};

pub mod cache;
pub mod chaos;
pub mod daemon;
pub mod json;
pub mod ledger;
pub mod sched;

use cache::{
    CachedOutcome, FamilyEntry, FamilyKey, Payload, Probe, ProgramCache, ProgramKey, ResultCache,
    ResultKey,
};
use json::Json;
use ledger::{Counter, Ledger};

/// Server-wide configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Default engine for requests that don't pick one.
    pub engine: Engine,
    /// Default execution mode.
    pub mode: ExecMode,
    /// Tape workers *within* one request.
    pub threads: usize,
    /// Global resource pool shared by all requests; `None` caps are
    /// uncapped.
    pub ceiling: Limits,
    /// Deadline→fuel converter; `None` means `deadline_ms` requests
    /// are rejected.
    pub deadline: Option<DeadlineGovernor>,
    /// Compiled-program cache capacity in entries; 0 means unbounded.
    /// Defaults to a finite 256 — an unbounded cache lets a tenant
    /// cycling unique programs grow the process without limit.
    pub cache_cap: usize,
    /// Queue-depth watermark for overload shedding in
    /// [`Server::run_batch`]: past this many pending requests, new
    /// arrivals from the lowest-stride-share tenant are shed with a
    /// structured `"overloaded"` response carrying a clock-free
    /// `retry_after_ops` hint (see [`sched::fair_schedule`]). `0`
    /// (the default) disables shedding.
    pub shed_watermark: usize,
    /// Default per-request retry budget for [`EngineFault`] outcomes
    /// the engine layer could not absorb: the server re-admits and
    /// re-executes up to this many extra attempts before surfacing
    /// the fault (requests override with their own `retry_budget`).
    ///
    /// [`EngineFault`]: RuntimeError::EngineFault
    pub retry_budget: u32,
    /// Engine fault plan applied to every request's *first* attempt;
    /// `None` injects nothing. The daemon routes a chaos plan's engine
    /// tokens here, and tests use it to inject faults. Retries always
    /// run without a plan (the injected fault is modeled as
    /// transient).
    pub faults: Option<FaultPlan>,
    /// Materialized-result cache capacity in entries (full outcomes +
    /// family snapshots combined); **0 disables result caching**
    /// (every request bypasses the cache) — note the asymmetry with
    /// [`ServeOptions::cache_cap`], where 0 means unbounded.
    pub result_cache_cap: usize,
    /// Run the vector-fusion pass when compiling request programs (the
    /// pipeline's default); `--no-fuse` serving pins the scalar tape,
    /// so the differential suites can compare fused and unfused
    /// servers end to end.
    pub fuse: bool,
}

/// Default [`ServeOptions::cache_cap`].
pub const DEFAULT_CACHE_CAP: usize = 256;

/// Default [`ServeOptions::result_cache_cap`].
pub const DEFAULT_RESULT_CACHE_CAP: usize = 256;

/// Default [`ServeOptions::retry_budget`].
pub const DEFAULT_RETRY_BUDGET: u32 = 1;

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            engine: Engine::Tape,
            mode: ExecMode::Auto,
            threads: 1,
            ceiling: Limits::unlimited(),
            deadline: None,
            cache_cap: DEFAULT_CACHE_CAP,
            shed_watermark: 0,
            retry_budget: DEFAULT_RETRY_BUDGET,
            faults: None,
            result_cache_cap: DEFAULT_RESULT_CACHE_CAP,
            fuse: true,
        }
    }
}

/// One tenant request.
#[derive(Debug, Clone)]
pub struct Request {
    pub id: String,
    pub source: String,
    /// `param` bindings, in the order given.
    pub params: Vec<(String, i64)>,
    /// Per-request fuel cap (reserved from the ceiling at admission).
    pub fuel: Option<u64>,
    /// Per-request memory cap in bytes.
    pub mem_bytes: Option<u64>,
    /// Wall-clock deadline, converted to fuel by the server's
    /// [`DeadlineGovernor`] before execution.
    pub deadline_ms: Option<u64>,
    /// Seed for deterministic `input` array filling.
    pub seed: u64,
    pub engine: Option<Engine>,
    pub mode: Option<ExecMode>,
    /// Tenant this request bills to; `None` joins the shared default
    /// tenant `""` for fair-scheduling purposes.
    pub tenant: Option<String>,
    /// Fair-share weight (≥ 1). A tenant's effective weight is the one
    /// declared on its first-arriving request; see [`sched`].
    pub weight: Option<u64>,
    /// Extra execution attempts granted when a run dies with an
    /// [`EngineFault`](RuntimeError::EngineFault) the engine layer
    /// could not absorb; `None` takes the server's
    /// [`ServeOptions::retry_budget`].
    pub retry_budget: Option<u32>,
}

impl Request {
    /// A request with defaults for everything but id and source.
    pub fn new(id: impl Into<String>, source: impl Into<String>) -> Request {
        Request {
            id: id.into(),
            source: source.into(),
            params: Vec::new(),
            fuel: None,
            mem_bytes: None,
            deadline_ms: None,
            seed: 0xC0FFEE,
            engine: None,
            mode: None,
            tenant: None,
            weight: None,
            retry_budget: None,
        }
    }

    /// Parse the wire form. Unknown keys are ignored so the schema can
    /// grow; `file` is *not* resolved here (the CLI reads files and
    /// substitutes `source` before handing requests over).
    ///
    /// # Errors
    /// A message naming the offending field.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        let id = v
            .get("id")
            .and_then(Json::as_str)
            .ok_or("request needs a string `id`")?
            .to_string();
        let source = v
            .get("source")
            .and_then(Json::as_str)
            .ok_or("request needs a string `source`")?
            .to_string();
        let mut req = Request::new(id, source);
        if let Some(params) = v.get("params") {
            let obj = params.as_obj().ok_or("`params` must be an object")?;
            for (k, pv) in obj {
                let n = pv
                    .as_i64()
                    .ok_or_else(|| format!("param `{k}` must be an integer"))?;
                req.params.push((k.clone(), n));
            }
        }
        if let Some(f) = v.get("fuel") {
            req.fuel = Some(f.as_u64().ok_or("`fuel` must be a non-negative integer")?);
        }
        if let Some(m) = v.get("mem_bytes") {
            req.mem_bytes = Some(
                m.as_u64()
                    .ok_or("`mem_bytes` must be a non-negative integer")?,
            );
        }
        if let Some(d) = v.get("deadline_ms") {
            req.deadline_ms = Some(
                d.as_u64()
                    .ok_or("`deadline_ms` must be a non-negative integer")?,
            );
        }
        if let Some(s) = v.get("seed") {
            req.seed = s.as_u64().ok_or("`seed` must be a non-negative integer")?;
        }
        if let Some(e) = v.get("engine") {
            let e = e.as_str().ok_or("`engine` must be a string")?;
            req.engine = Some(engine_from_str(e)?);
        }
        if let Some(m) = v.get("mode") {
            let m = m.as_str().ok_or("`mode` must be a string")?;
            req.mode = Some(mode_from_str(m)?);
        }
        if let Some(t) = v.get("tenant") {
            req.tenant = Some(t.as_str().ok_or("`tenant` must be a string")?.to_string());
        }
        // `priority` is accepted as an alias for `weight`.
        if let Some(w) = v.get("weight").or_else(|| v.get("priority")) {
            let w = w
                .as_u64()
                .filter(|&w| w >= 1)
                .ok_or("`weight` must be a positive integer")?;
            req.weight = Some(w);
        }
        if let Some(r) = v.get("retry_budget") {
            let r = r
                .as_u64()
                .filter(|&r| r <= u64::from(u32::MAX))
                .ok_or("`retry_budget` must be a non-negative integer")?;
            req.retry_budget = Some(r as u32);
        }
        Ok(req)
    }

    /// The wire form (inverse of [`Request::from_json`]); used by
    /// clients driving the daemon and by the simulator tests.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id".to_string(), Json::Str(self.id.clone())),
            ("source".to_string(), Json::Str(self.source.clone())),
        ];
        if !self.params.is_empty() {
            let params = self
                .params
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                .collect();
            fields.push(("params".to_string(), Json::Obj(params)));
        }
        if let Some(f) = self.fuel {
            fields.push(("fuel".to_string(), Json::Num(f as f64)));
        }
        if let Some(m) = self.mem_bytes {
            fields.push(("mem_bytes".to_string(), Json::Num(m as f64)));
        }
        if let Some(d) = self.deadline_ms {
            fields.push(("deadline_ms".to_string(), Json::Num(d as f64)));
        }
        fields.push(("seed".to_string(), Json::Num(self.seed as f64)));
        if let Some(e) = self.engine {
            let name = match e {
                Engine::TreeWalk => "treewalk",
                Engine::Tape => "tape",
            };
            fields.push(("engine".to_string(), Json::Str(name.to_string())));
        }
        if let Some(m) = self.mode {
            let name = match m {
                ExecMode::Auto => "auto",
                ExecMode::ForceThunked => "thunked",
                ExecMode::ForceChecked => "checked",
            };
            fields.push(("mode".to_string(), Json::Str(name.to_string())));
        }
        if let Some(t) = &self.tenant {
            fields.push(("tenant".to_string(), Json::Str(t.clone())));
        }
        if let Some(w) = self.weight {
            fields.push(("weight".to_string(), Json::Num(w as f64)));
        }
        if let Some(r) = self.retry_budget {
            fields.push(("retry_budget".to_string(), Json::Num(f64::from(r))));
        }
        Json::Obj(fields)
    }
}

/// Parse an engine name (the CLI's `--engine` vocabulary). `partape`
/// is kept as an alias of `tape`.
///
/// # Errors
/// Unknown names.
pub fn engine_from_str(s: &str) -> Result<Engine, String> {
    match s {
        "treewalk" => Ok(Engine::TreeWalk),
        "tape" | "partape" => Ok(Engine::Tape),
        other => Err(format!("unknown engine `{other}`")),
    }
}

/// Parse a mode name (the CLI's `--mode` vocabulary).
///
/// # Errors
/// Unknown names.
pub fn mode_from_str(s: &str) -> Result<ExecMode, String> {
    match s {
        "auto" => Ok(ExecMode::Auto),
        "thunked" => Ok(ExecMode::ForceThunked),
        "checked" => Ok(ExecMode::ForceChecked),
        other => Err(format!("unknown mode `{other}`")),
    }
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Ran to completion.
    Ok,
    /// Its own budget (or the shared pool, for lazily-drawing
    /// requests) ran out mid-execution.
    Limit,
    /// Admission failed: the ceiling could not cover the requested
    /// reservation, or the request itself was malformed.
    Rejected,
    /// Parse or compile failure.
    CompileError,
    /// Any other runtime failure.
    RuntimeError,
    /// Shed before admission: the batch queue was past the server's
    /// [`shed watermark`](ServeOptions::shed_watermark) and this was a
    /// newest arrival of the lowest-share tenant. The response carries
    /// a `retry_after_ops` hint.
    Overloaded,
    /// Rejected at admission by the cost certificate: the compiler
    /// proved the declared budget cannot cover the program's exact
    /// cost, so the run never started. The error carries the evaluated
    /// bound.
    OverCertificate,
}

impl Status {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Limit => "limit",
            Status::Rejected => "rejected",
            Status::CompileError => "compile_error",
            Status::RuntimeError => "runtime_error",
            Status::Overloaded => "overloaded",
            Status::OverCertificate => "over-certificate",
        }
    }
}

/// How the materialized-result cache served a request. Absent (JSON
/// `null`) when the request bypassed the cache: caching off, an
/// active fault plan, a lazily-drawing meter, or a failure before
/// execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultClass {
    /// Served verbatim from a cached outcome — zero engine ops spent.
    Hit,
    /// Served by replaying only the trailing `bigupd` over a family
    /// snapshot, metered for exactly the recomputed elements.
    Delta,
    /// Full recomputation: cold, or any delta/wait fallback.
    Miss,
}

impl ResultClass {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ResultClass::Hit => "hit",
            ResultClass::Delta => "delta",
            ResultClass::Miss => "miss",
        }
    }

    /// The ledger counter a realized request of this class bumps.
    fn counter(self) -> Counter {
        match self {
            ResultClass::Hit => Counter::ResultHits,
            ResultClass::Delta => Counter::ResultDeltas,
            ResultClass::Miss => Counter::ResultMisses,
        }
    }
}

/// Compilation-report verdict counts, echoed per response so tenants
/// can see what the scheduler did with their program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdicts {
    pub units: usize,
    pub thunkless: usize,
    pub thunked: usize,
    pub updates: usize,
}

/// One tenant response.
#[derive(Debug, Clone)]
pub struct Response {
    pub id: String,
    pub status: Status,
    /// Tenant the request billed to (echoed back; daemon connections
    /// may attribute it).
    pub tenant: Option<String>,
    /// Admission ordinal: the position in the server's realized
    /// admission sequence (dense, starting at 0). `None` only for
    /// requests rejected before admission processing began.
    pub admitted: Option<u64>,
    /// `Some(true)` = compiled-program cache hit; `None` when the
    /// request never reached the cache.
    pub cache_hit: Option<bool>,
    /// Cache entries evicted to make room for this request's program
    /// (0 on hits and when the cache is under capacity).
    pub evictions: u64,
    /// How the result cache served this request; `None` when it was
    /// bypassed. Hit- and delta-served responses are byte-identical
    /// (digest and error class) to the cold full recomputation — this
    /// field and `delta_elems` are the only tells.
    pub result_cache: Option<ResultClass>,
    /// Elements recomputed by a delta-served response (the update's
    /// static write count); `None` otherwise.
    pub delta_elems: Option<u64>,
    /// FNV-1a digest over every output array and scalar (sorted by
    /// name), so equality of answers is checkable without shipping
    /// arrays.
    pub answer_digest: Option<String>,
    /// Fuel remaining at the end, when the request was fuel-limited.
    pub fuel_left: Option<u64>,
    /// Parallel regions that faulted and were recovered sequentially.
    pub engine_faults: u64,
    /// FNV-1a digest over every VM and thunked-path work counter, in a
    /// fixed field order — two runs with equal digests did bit-equal
    /// metered work. `None` when the run produced no counters.
    pub counters_digest: Option<String>,
    pub verdicts: Option<Verdicts>,
    /// Execution attempts consumed (1 = no retry). Stays 1 for
    /// requests that never reached execution.
    pub attempts: u64,
    /// Only on `overloaded` responses: the admitted fuel of the
    /// backlog that displaced this request. Clock-free; dividing by a
    /// calibrated ops/ms rate yields a wall-clock backoff.
    pub retry_after_ops: Option<u64>,
    pub error: Option<String>,
}

impl Response {
    fn failed(id: &str, status: Status, cache_hit: Option<bool>, error: String) -> Response {
        Response {
            id: id.to_string(),
            status,
            tenant: None,
            admitted: None,
            cache_hit,
            evictions: 0,
            result_cache: None,
            delta_elems: None,
            answer_digest: None,
            fuel_left: None,
            engine_faults: 0,
            counters_digest: None,
            verdicts: None,
            attempts: 1,
            retry_after_ops: None,
            error: Some(error),
        }
    }

    /// The wire form.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id".to_string(), Json::Str(self.id.clone())),
            (
                "status".to_string(),
                Json::Str(self.status.as_str().to_string()),
            ),
            (
                "tenant".to_string(),
                self.tenant
                    .as_ref()
                    .map_or(Json::Null, |t| Json::Str(t.clone())),
            ),
            (
                "admitted".to_string(),
                self.admitted.map_or(Json::Null, |o| Json::Num(o as f64)),
            ),
            (
                "cache".to_string(),
                match self.cache_hit {
                    Some(true) => Json::Str("hit".to_string()),
                    Some(false) => Json::Str("miss".to_string()),
                    None => Json::Null,
                },
            ),
            ("evictions".to_string(), Json::Num(self.evictions as f64)),
            (
                "result_cache".to_string(),
                self.result_cache
                    .map_or(Json::Null, |c| Json::Str(c.as_str().to_string())),
            ),
            (
                "delta_elems".to_string(),
                self.delta_elems.map_or(Json::Null, |d| Json::Num(d as f64)),
            ),
            (
                "answer_digest".to_string(),
                self.answer_digest
                    .as_ref()
                    .map_or(Json::Null, |d| Json::Str(d.clone())),
            ),
            (
                "fuel_left".to_string(),
                self.fuel_left.map_or(Json::Null, |f| Json::Num(f as f64)),
            ),
            (
                "engine_faults".to_string(),
                Json::Num(self.engine_faults as f64),
            ),
            (
                "counters_digest".to_string(),
                self.counters_digest
                    .as_ref()
                    .map_or(Json::Null, |d| Json::Str(d.clone())),
            ),
        ];
        fields.push((
            "verdicts".to_string(),
            self.verdicts.map_or(Json::Null, |v| {
                Json::Obj(vec![
                    ("units".to_string(), Json::Num(v.units as f64)),
                    ("thunkless".to_string(), Json::Num(v.thunkless as f64)),
                    ("thunked".to_string(), Json::Num(v.thunked as f64)),
                    ("updates".to_string(), Json::Num(v.updates as f64)),
                ])
            }),
        ));
        fields.push(("attempts".to_string(), Json::Num(self.attempts as f64)));
        fields.push((
            "retry_after_ops".to_string(),
            self.retry_after_ops
                .map_or(Json::Null, |r| Json::Num(r as f64)),
        ));
        fields.push((
            "error".to_string(),
            self.error
                .as_ref()
                .map_or(Json::Null, |e| Json::Str(e.clone())),
        ));
        Json::Obj(fields)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Digest the outputs of a run: every array and scalar, sorted by
/// name, values as exact bit patterns. Two runs with equal digests
/// produced bit-identical answers.
fn digest_output(out: &hac_core::pipeline::ExecOutput) -> String {
    let mut h = FNV_OFFSET;
    let mut names: Vec<&String> = out.arrays.keys().collect();
    names.sort();
    for n in names {
        h = fnv1a(h, n.as_bytes());
        h = fnv1a(h, &[0]);
        for v in out.arrays[n].data() {
            h = fnv1a(h, &v.to_bits().to_le_bytes());
        }
    }
    let mut snames: Vec<&String> = out.scalars.keys().collect();
    snames.sort();
    for n in snames {
        h = fnv1a(h, n.as_bytes());
        h = fnv1a(h, &[1]);
        h = fnv1a(h, &out.scalars[n].to_bits().to_le_bytes());
    }
    format!("{h:016x}")
}

/// Digest every work counter in a fixed field order. Engine-fault
/// recoveries are deliberately included: a run that recovered is
/// observable in `engine_faults`, never in answers or the other
/// counters.
fn digest_counters(c: &hac_core::pipeline::ExecCounters) -> String {
    let mut h = FNV_OFFSET;
    for v in [
        c.vm.stores,
        c.vm.loads,
        c.vm.check_ops,
        c.vm.loop_iterations,
        c.vm.temp_elements,
        c.vm.elements_copied,
        c.vm.array_allocs,
        c.vm.tape_ops,
        c.vm.engine_faults,
        c.thunked.thunks_allocated,
        c.thunked.demands,
        c.thunked.memo_hits,
    ] {
        h = fnv1a(h, &v.to_le_bytes());
    }
    format!("{h:016x}")
}

/// The outcome of a run that succeeded.
fn ok_outcome(out: &hac_core::pipeline::ExecOutput) -> CachedOutcome {
    CachedOutcome {
        status: Status::Ok,
        answer_digest: Some(digest_output(out)),
        counters_digest: Some(digest_counters(&out.counters)),
        fuel_left: out.fuel_left,
        engine_faults: out.counters.vm.engine_faults,
        error: None,
    }
}

fn verdicts_of(compiled: &Compiled) -> Verdicts {
    let mut v = Verdicts {
        units: compiled.units.len(),
        ..Verdicts::default()
    };
    for u in &compiled.units {
        match u {
            Unit::Thunkless { .. } => v.thunkless += 1,
            Unit::Thunked { .. } => v.thunked += 1,
            Unit::Update { .. } => v.updates += 1,
            _ => {}
        }
    }
    v
}

/// The request's effective limits: its own caps, with a deadline
/// converted to fuel at the calibrated rate (the *tighter* of the two
/// fuel numbers wins when both are given).
fn effective_limits(deadline: Option<&DeadlineGovernor>, req: &Request) -> Result<Limits, String> {
    let mut fuel = req.fuel;
    if let Some(ms) = req.deadline_ms {
        let gov = deadline
            .ok_or("deadline_ms given but the server has no calibrated deadline governor")?;
        let budget = gov.fuel_for_deadline(ms);
        fuel = Some(fuel.map_or(budget, |f| f.min(budget)));
    }
    Ok(Limits {
        fuel,
        mem_bytes: req.mem_bytes,
    })
}

/// How the result cache serves an admitted request, decided on the
/// sequential admission path. Every variant but `Bypass` and `Hit`
/// names `Pending` slots this request must resolve before returning;
/// it installed them, so their token is its admission ordinal.
enum ResultRoute {
    /// Result caching is off for this request.
    Bypass,
    /// A cached outcome was `Ready` at admission: serve it verbatim.
    Hit(Arc<CachedOutcome>),
    /// An earlier-admitted filler is computing this exact outcome:
    /// wait for it (safe — waits only ever target earlier ordinals).
    WaitHit { key: ResultKey, token: u64 },
    /// A family snapshot was `Ready`: replay only the update.
    Delta {
        key: ResultKey,
        fam: Arc<FamilyEntry>,
    },
    /// An earlier-admitted filler (install `ftoken`) is snapshotting
    /// this family: wait, then replay the update against its snapshot.
    WaitDelta {
        key: ResultKey,
        fkey: FamilyKey,
        ftoken: u64,
    },
    /// Cold: run the full pipeline and fill the result slot — and the
    /// `family` slot, when this request was elected the family filler
    /// (its bytes were ceiling-reserved at admission).
    Miss {
        key: ResultKey,
        family: Option<FamilyKey>,
    },
}

/// Drop guard for a filler's `Pending` slots: any path that returns
/// (or panics) without resolving them marks the slots `Failed` and
/// refunds family bytes, so waiters never block on a dead filler.
/// Disarmed piecewise as each obligation is met.
struct FillGuard<'a> {
    server: &'a Server,
    /// The filler's admission ordinal: the token of its slots.
    token: u64,
    full: Option<ResultKey>,
    family: Option<FamilyKey>,
}

impl Drop for FillGuard<'_> {
    fn drop(&mut self) {
        if self.full.is_none() && self.family.is_none() {
            return;
        }
        let mut rc = self.server.results.lock().expect("result cache lock");
        if let Some(key) = self.full.take() {
            rc.fail::<CachedOutcome>(&key, self.token);
        }
        if let Some(fkey) = self.family.take() {
            let bytes = rc.fail::<FamilyEntry>(&fkey, self.token);
            self.server.ceiling.refund_mem(bytes);
        }
        drop(rc);
        self.server.results_cv.notify_all();
    }
}

/// A multi-tenant server: bounded compiled-program cache + shared
/// ceiling + weighted fair admission.
///
/// `Server` is `Sync`; one instance serves concurrent callers.
pub struct Server {
    options: ServeOptions,
    ceiling: Arc<SharedCeiling>,
    /// Bounded cache of compiled programs keyed by source, params,
    /// mode, and engine; recency is stamped in admission ordinals.
    cache: Mutex<ProgramCache>,
    /// Materialized-result cache: memoized outcomes and family
    /// snapshots. Membership changes only on the admission path;
    /// execution threads resolve `Pending` slots and wake waiters
    /// through `results_cv`.
    results: Mutex<ResultCache>,
    /// Wakes requests parked on a `Pending` result/family slot.
    results_cv: Condvar,
    /// Life-to-date counters of the `cache`, `result_cache`, `server`
    /// and `certificates` sections, shared with both caches.
    ledger: Arc<Ledger>,
}

/// A request past compilation and admission, ready to execute.
struct Admitted {
    id: String,
    tenant: Option<String>,
    ordinal: u64,
    compiled: Arc<Compiled>,
    meter: Meter,
    /// Effective limits the meter was admitted under, kept so a retry
    /// can re-admit an identical meter from the ceiling.
    limits: Limits,
    /// Extra attempts allowed on an unabsorbed engine fault.
    retry_budget: u32,
    cache_hit: bool,
    evictions: u64,
    seed: u64,
    /// How the result cache serves this request (decided at
    /// admission).
    route: ResultRoute,
}

impl Server {
    /// Build a server; the ceiling is allocated once here and shared
    /// by every request the server ever admits.
    pub fn new(options: ServeOptions) -> Server {
        let ceiling = SharedCeiling::new(options.ceiling);
        let ledger = Arc::new(Ledger::default());
        let cache = Mutex::new(ProgramCache::new(options.cache_cap, Arc::clone(&ledger)));
        let results = Mutex::new(ResultCache::new(
            options.result_cache_cap,
            Arc::clone(&ledger),
        ));
        Server {
            options,
            ceiling,
            cache,
            results,
            results_cv: Condvar::new(),
            ledger,
        }
    }

    /// The server-wide configuration (read-only).
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// The shared pool (tests observe accounting through this).
    pub fn ceiling(&self) -> &Arc<SharedCeiling> {
        &self.ceiling
    }

    /// Life-to-date counters: program cache, result cache, sheds and
    /// retries, certificate admissions.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The fair admission order the scheduler predicts for `reqs` —
    /// the exact permutation [`Server::run_batch`] realizes. Exposed
    /// so tests (and capacity planners) can check realized order
    /// against the prediction.
    pub fn predicted_order(reqs: &[Request]) -> Vec<usize> {
        Self::predicted_schedule(reqs, 0).order
    }

    /// The full schedule — admission order *and* shed set — the server
    /// realizes for `reqs` under `shed_watermark` (0 disables
    /// shedding). A pure function of the request list, so a simulator
    /// predicts sheds exactly; [`Server::run_batch`] realizes this
    /// with the server's own watermark.
    pub fn predicted_schedule(reqs: &[Request], shed_watermark: usize) -> sched::Schedule {
        let arrivals: Vec<(&str, u64)> = reqs
            .iter()
            .map(|r| {
                (
                    r.tenant.as_deref().unwrap_or(""),
                    r.weight.unwrap_or(sched::DEFAULT_WEIGHT),
                )
            })
            .collect();
        sched::fair_schedule(&arrivals, shed_watermark)
    }

    /// The result-cache classification — `hit`, `delta`, `miss`, or
    /// `None` (bypass / shed / rejected / compile error) — a fresh
    /// server built from `options` realizes for each request of
    /// `reqs`, in input order, as a *pure* function of the request list
    /// (the result-cache sibling of [`Server::predicted_schedule`]).
    ///
    /// The prediction *is* the admission code: a scratch server admits
    /// the requests in the scheduled order, each route's class is
    /// read off, every meter settles untouched, and every fill
    /// obligation resolves at once as if its run had succeeded. It is
    /// therefore exact under any ceiling, provided every admitted run
    /// succeeds on its route (a delta that falls back to a full run
    /// realizes `miss`) and the pool covers the batch's spend.
    pub fn predicted_result_classes(
        options: &ServeOptions,
        reqs: &[Request],
    ) -> Vec<Option<ResultClass>> {
        let server = Server::new(options.clone());
        let outcome = Arc::new(CachedOutcome {
            status: Status::Ok,
            answer_digest: None,
            counters_digest: None,
            fuel_left: None,
            engine_faults: 0,
            error: None,
        });
        let snapshot = Arc::new(FamilyEntry {
            state: ExecState::default(),
            prefix_fuel: None,
            prefix_mem: None,
        });
        let mut classes = vec![None; reqs.len()];
        for &i in &Self::predicted_schedule(reqs, options.shed_watermark).order {
            let Ok(mut adm) = server.admit(&reqs[i]) else {
                continue;
            };
            adm.meter.settle();
            let (class, full, family) = match adm.route {
                ResultRoute::Bypass => (None, None, None),
                ResultRoute::Hit(_) | ResultRoute::WaitHit { .. } => {
                    (Some(ResultClass::Hit), None, None)
                }
                ResultRoute::Delta { key, .. } | ResultRoute::WaitDelta { key, .. } => {
                    (Some(ResultClass::Delta), Some(key), None)
                }
                ResultRoute::Miss { key, family } => (Some(ResultClass::Miss), Some(key), family),
            };
            classes[i] = class;
            let mut rc = server.results.lock().expect("result cache lock");
            if let Some(key) = full {
                rc.fill(&key, adm.ordinal, Arc::clone(&outcome));
            }
            if let Some(fkey) = family {
                rc.fill(&fkey, adm.ordinal, Arc::clone(&snapshot));
            }
        }
        classes
    }

    /// Compile via the bounded cache, stamping recency (and any
    /// eviction) with the request's admission ordinal. Returns the
    /// program, whether it was a hit, and how many entries were
    /// evicted to make room. Compile *errors* are not cached: they are
    /// cheap to reproduce (the front end rejects early) and rare. Nor
    /// is the compilation report: no response reads it, and a cached
    /// program would keep it for its whole life.
    fn compile_cached(
        &self,
        key: &ProgramKey,
        ordinal: u64,
    ) -> Result<(Arc<Compiled>, bool, u64), String> {
        if let Some(hit) = self.cache.lock().expect("cache lock").lookup(key, ordinal) {
            return Ok((hit, true, 0));
        }
        let program = hac_lang::parser::parse_program(&key.source)
            .map_err(|e| format!("parse error: {e}"))?;
        let mut compiled = compile(
            &program,
            &key.env,
            &CompileOptions {
                mode: key.mode,
                engine: key.engine,
                fuse: self.options.fuse,
                ..CompileOptions::default()
            },
        )
        .map_err(|e| format!("compile error: {e}"))?;
        compiled.report = Report::default();
        let compiled = Arc::new(compiled);
        let evicted = self.cache.lock().expect("cache lock").insert(
            key.clone(),
            Arc::clone(&compiled),
            ordinal,
        );
        Ok((compiled, false, evicted))
    }

    /// Decide how the result cache serves an admitted request. Runs
    /// on the sequential admission path, so cache membership,
    /// eviction, and filler election are pure functions of the
    /// admission sequence — execution threads later only resolve the
    /// slots installed here.
    fn route_result(
        &self,
        key: ResultKey,
        compiled: &Compiled,
        meter: &Meter,
        ordinal: u64,
    ) -> ResultRoute {
        // Bypass gates, all admission-computable: caching off, a fault
        // plan in force, or a meter that draws the shared pool lazily
        // (its exhaustion point depends on sibling requests, so its
        // outcome is not a pure function of the request).
        let faulted = self
            .options
            .faults
            .as_ref()
            .is_some_and(FaultPlan::is_active);
        if self.options.result_cache_cap == 0
            || faulted
            || meter.draws_lazily()
            || meter.draws_mem_lazily()
        {
            return ResultRoute::Bypass;
        }
        let cost = compiled.units.len() as u64;
        let mut rc = self.results.lock().expect("result cache lock");
        match rc.probe::<CachedOutcome>(&key, ordinal) {
            Probe::Ready(o) => return ResultRoute::Hit(o),
            Probe::Pending { token } => return ResultRoute::WaitHit { key, token },
            Probe::Absent | Probe::Failed => {}
        }
        // Cold at the full key: this request becomes its filler.
        let mut freed = rc.install::<CachedOutcome>(key.clone(), ordinal, cost, 0);
        let route = match &compiled.delta {
            None => ResultRoute::Miss { key, family: None },
            Some(plan) => {
                let fkey = FamilyKey::new(&key.program, &plan.params, key.seed);
                match rc.probe::<FamilyEntry>(&fkey, ordinal) {
                    Probe::Ready(fam) => ResultRoute::Delta { key, fam },
                    Probe::Pending { token } => ResultRoute::WaitDelta {
                        key,
                        fkey,
                        ftoken: token,
                    },
                    Probe::Absent | Probe::Failed => {
                        // Elect this request the family filler — if
                        // the pool covers the snapshot's residency
                        // (charged now, deterministically, from the
                        // plan's static byte count).
                        let family = self.ceiling.reserve_mem(plan.prefix_bytes).then(|| {
                            let family_cost = cost.saturating_sub(1);
                            let bytes = plan.prefix_bytes;
                            freed += rc.install::<FamilyEntry>(
                                fkey.clone(),
                                ordinal,
                                family_cost,
                                bytes,
                            );
                            fkey
                        });
                        ResultRoute::Miss { key, family }
                    }
                }
            }
        };
        drop(rc);
        if freed > 0 {
            self.ceiling.refund_mem(freed);
        }
        route
    }

    /// Compile and admit one request (the sequential admission phase).
    /// Every request that reaches this point consumes one reservation
    /// ordinal from the ceiling — the deterministic clock that stamps
    /// cache recency and the response's `admitted` field. `Err` is an
    /// early response (boxed — it is much larger than the `Ok` arm):
    /// malformed, compile failure, or rejection.
    fn admit(&self, req: &Request) -> Result<Admitted, Box<Response>> {
        let ordinal = self.ceiling.take_ordinal();
        let stamp = |mut resp: Response| {
            resp.tenant = req.tenant.clone();
            resp.admitted = Some(ordinal);
            Box::new(resp)
        };
        let mode = req.mode.unwrap_or(self.options.mode);
        let engine = req.engine.unwrap_or(self.options.engine);
        let mut limits = effective_limits(self.options.deadline.as_ref(), req)
            .map_err(|e| stamp(Response::failed(&req.id, Status::Rejected, None, e)))?;
        let program_key = ProgramKey::new(req.source.as_str().into(), &req.params, mode, engine);
        let (compiled, cache_hit, evictions) =
            self.compile_cached(&program_key, ordinal).map_err(|e| {
                stamp(Response::failed(
                    &req.id,
                    Status::CompileError,
                    Some(false),
                    e,
                ))
            })?;
        // Certificate admission: when the compiler proved an exact
        // cost, a budget below it certifiably cannot finish — reject
        // before spending any execution, quoting the evaluated bound.
        // A request that declared no fuel under a fuel-capped ceiling
        // is admitted all-or-nothing at exactly its certified cost
        // instead of drawing lazy blocks from the pool. Inexact
        // (upper-bound) and open certificates never reject: the
        // metered path remains the authority there.
        let cert = &compiled.cert;
        self.ledger.add(
            if cert.is_closed() {
                Counter::CertCertified
            } else {
                Counter::CertOpen
            },
            1,
        );
        if cert.is_exact() {
            let cert_fuel = cert.fuel_value().unwrap_or(u64::MAX);
            let cert_mem = cert.mem_value().unwrap_or(u64::MAX);
            let mut why = Vec::new();
            if let Some(f) = limits.fuel {
                if f < cert_fuel {
                    why.push(format!("fuel budget {f} < certified cost {cert_fuel}"));
                }
            }
            if let Some(m) = limits.mem_bytes {
                if m < cert_mem {
                    why.push(format!("mem budget {m} < certified peak {cert_mem} bytes"));
                }
            }
            if !why.is_empty() {
                self.ledger.add(Counter::CertRejected, 1);
                let mut resp = Response::failed(
                    &req.id,
                    Status::OverCertificate,
                    Some(cache_hit),
                    format!("over certificate: {}", why.join("; ")),
                );
                resp.evictions = evictions;
                return Err(stamp(resp));
            }
            if limits.fuel.is_none() && self.ceiling.fuel_capped() {
                limits.fuel = Some(cert_fuel);
            }
        }
        let meter = Meter::admit(limits, &self.ceiling).map_err(|e| {
            let mut resp =
                Response::failed(&req.id, Status::Rejected, Some(cache_hit), e.to_string());
            resp.evictions = evictions;
            stamp(resp)
        })?;
        let key = ResultKey {
            program: program_key,
            seed: req.seed,
            limits,
        };
        let route = self.route_result(key, &compiled, &meter, ordinal);
        Ok(Admitted {
            id: req.id.clone(),
            tenant: req.tenant.clone(),
            ordinal,
            compiled,
            meter,
            limits,
            retry_budget: req.retry_budget.unwrap_or(self.options.retry_budget),
            cache_hit,
            evictions,
            seed: req.seed,
            route,
        })
    }

    /// Admission's rejection of a request that no retry could admit: it
    /// declares more fuel or memory than the ceiling's whole pool.
    /// `None` when a later attempt could be admitted. Holds nothing and
    /// takes no ordinal.
    fn never_admissible(&self, req: &Request) -> Option<Response> {
        let limits = effective_limits(self.options.deadline.as_ref(), req).ok()?;
        let pool = self.options.ceiling;
        let over = |want: Option<u64>, cap: Option<u64>| {
            want.zip(cap).is_some_and(|(want, cap)| want > cap)
        };
        if !over(limits.fuel, pool.fuel) && !over(limits.mem_bytes, pool.mem_bytes) {
            return None;
        }
        // The pool never holds more than its capacity, so this
        // admission fails, holding nothing.
        let error = Meter::admit(limits, &self.ceiling).err()?;
        let mut resp = Response::failed(&req.id, Status::Rejected, None, error.to_string());
        resp.tenant = req.tenant.clone();
        Some(resp)
    }

    /// Execute an admitted request along its result route and settle
    /// its meter. Hit- and delta-served responses are byte-identical
    /// (digest and error class) to the cold full recomputation — the
    /// `result_cache`/`delta_elems` fields are the only tells — and
    /// every fallback lands on the full metered run, which stays the
    /// authority for outcomes.
    fn execute(&self, mut adm: Admitted) -> Response {
        match std::mem::replace(&mut adm.route, ResultRoute::Bypass) {
            ResultRoute::Bypass => self.execute_full(adm, None, None, false),
            ResultRoute::Hit(o) => self.serve_cached(adm, &o),
            ResultRoute::WaitHit { key, token } => match self.await_slot(&key, token) {
                Some(o) => self.serve_cached(adm, &o),
                // The filler died (or its slot was evicted): run full.
                // No fill — membership changed only at admission.
                None => self.execute_full(adm, None, None, true),
            },
            ResultRoute::Delta { key, fam } => self.serve_delta(adm, key, &fam),
            ResultRoute::WaitDelta { key, fkey, ftoken } => match self.await_slot(&fkey, ftoken) {
                Some(fam) => self.serve_delta(adm, key, &fam),
                None => self.execute_full(adm, Some(key), None, true),
            },
            ResultRoute::Miss { key, family } => self.execute_full(adm, Some(key), family, true),
        }
    }

    /// Block until the `Pending` slot installed as `(key, token)`
    /// resolves; `None` means the filler failed or the slot vanished.
    /// Waits only while that exact install is pending — a re-installed
    /// slot belongs to a *later* ordinal, and waiting on one could
    /// deadlock a single-worker batch. The install this waits on was
    /// admitted earlier, so its filler is already running (workers
    /// drain in admission order): the wait always makes progress.
    fn await_slot<T: Payload>(&self, key: &T::Key, token: u64) -> Option<Arc<T>> {
        let mut rc = self.results.lock().expect("result cache lock");
        loop {
            match rc.peek::<T>(key) {
                Probe::Ready(v) => return Some(v),
                Probe::Pending { token: t } if t == token => {
                    rc = self.results_cv.wait(rc).expect("result cache lock");
                }
                _ => return None,
            }
        }
    }

    /// Serve a memoized outcome verbatim. Zero engine ops: the meter
    /// settles untouched, refunding the whole reservation to the pool.
    fn serve_cached(&self, mut adm: Admitted, o: &CachedOutcome) -> Response {
        adm.meter.settle();
        self.respond(adm, o, Some(ResultClass::Hit), None, 1)
    }

    /// Serve by replaying only the trailing update over a family
    /// snapshot. The probe runs on a standalone meter priced at
    /// `budget − prefix`, so exhaustion lands exactly where the cold
    /// run's would; *any* probe failure is discarded and the full
    /// metered run on the admitted meter becomes the authority (its
    /// error text embeds the request's own limits, the probe's would
    /// not). On success the admitted meter is charged for precisely
    /// what the cold run would have spent, so the pool's settlement
    /// is identical.
    fn serve_delta(&self, mut adm: Admitted, key: ResultKey, fam: &FamilyEntry) -> Response {
        let writes = adm
            .compiled
            .delta
            .as_ref()
            .expect("delta route requires a plan")
            .writes;
        // A budget the snapshot cannot price (unmeasured prefix) or
        // cannot cover (prefix alone exceeds it) falls back to the
        // full run, which reproduces cold's outcome — including a
        // cold prefix exhaustion — exactly.
        let probe_fuel = match (adm.limits.fuel, fam.prefix_fuel) {
            (None, _) => None,
            (Some(f), Some(pf)) if pf <= f => Some(f - pf),
            _ => return self.execute_full(adm, Some(key), None, true),
        };
        let probe_mem = match (adm.limits.mem_bytes, fam.prefix_mem) {
            (None, _) => None,
            (Some(m), Some(pm)) if pm <= m => Some(m - pm),
            _ => return self.execute_full(adm, Some(key), None, true),
        };
        let mut probe = Meter::new(Limits {
            fuel: probe_fuel,
            mem_bytes: probe_mem,
        });
        let funcs = FuncTable::new();
        let run_opts = RunOptions {
            threads: Some(self.options.threads),
            limits: Limits::unlimited(),
            faults: self.options.faults.clone(),
            ceiling: None,
        };
        match run_delta(&adm.compiled, &fam.state, &funcs, &run_opts, &mut probe) {
            Ok(out) => {
                // The probe's closing balance *is* the cold run's:
                // (budget − prefix) − delta = budget − total. Charge
                // the admitted meter down to it and settle, so the
                // pool sees exactly the recomputed work spent.
                if let (Some(f), Some(left)) = (adm.limits.fuel, out.fuel_left) {
                    adm.meter.consume_fuel(f - left);
                }
                adm.meter.settle();
                let outcome = Arc::new(ok_outcome(&out));
                self.results.lock().expect("result cache lock").fill(
                    &key,
                    adm.ordinal,
                    Arc::clone(&outcome),
                );
                self.results_cv.notify_all();
                self.respond(adm, &outcome, Some(ResultClass::Delta), Some(writes), 1)
            }
            Err(_) => self.execute_full(adm, Some(key), None, true),
        }
    }

    /// Run the full pipeline split at the trailing update, publishing
    /// the family snapshot between the halves. Byte-equivalent to
    /// [`run_with_meter`] — same units, same state threading, same
    /// meter — plus a clone of the prefix state (and its measured
    /// cost) published for the family. The clone shares every array's
    /// elements; the trailing update copies only the array it writes.
    #[allow(clippy::too_many_arguments)]
    fn run_split(
        &self,
        compiled: &Compiled,
        limits: Limits,
        inputs: &HashMap<String, ArrayBuf>,
        funcs: &FuncTable,
        opts: &RunOptions,
        meter: &mut Meter,
        guard: &mut FillGuard<'_>,
    ) -> Result<hac_core::pipeline::ExecOutput, RuntimeError> {
        let last = compiled.units.len() - 1;
        let mut state = ExecState::default();
        run_units(compiled, 0..last, &mut state, inputs, funcs, opts, meter)?;
        // What the prefix charged — measurable whenever the cap is
        // finite (routing already excluded lazily-drawing meters).
        let prefix_fuel = limits.fuel.map(|f| f - meter.fuel_left());
        let prefix_mem = limits.mem_bytes.map(|m| m - meter.mem_left());
        if let Some(fkey) = guard.family.take() {
            let entry = Arc::new(FamilyEntry {
                state: state.clone(),
                prefix_fuel,
                prefix_mem,
            });
            // A fill that misses (slot evicted meanwhile) wastes only
            // the clone; the eviction already refunded its bytes.
            self.results
                .lock()
                .expect("result cache lock")
                .fill(&fkey, guard.token, entry);
            self.results_cv.notify_all();
        }
        run_units(
            compiled,
            last..compiled.units.len(),
            &mut state,
            inputs,
            funcs,
            opts,
            meter,
        )?;
        Ok(state.into_output(meter))
    }

    /// Resolve a filler's full-slot obligation, if it has one, with its
    /// final outcome.
    fn fill_full(&self, guard: &mut FillGuard<'_>, outcome: &Arc<CachedOutcome>) {
        if let Some(key) = guard.full.take() {
            self.results.lock().expect("result cache lock").fill(
                &key,
                guard.token,
                Arc::clone(outcome),
            );
            self.results_cv.notify_all();
        }
    }

    /// The response of an executed request: its outcome, stamped with
    /// what admission decided and how the result cache served it. The
    /// class is counted here, so each class counter is the number of
    /// responses that report it.
    fn respond(
        &self,
        adm: Admitted,
        o: &CachedOutcome,
        result_cache: Option<ResultClass>,
        delta_elems: Option<u64>,
        attempts: u64,
    ) -> Response {
        if let Some(class) = result_cache {
            self.ledger.add(class.counter(), 1);
        }
        Response {
            id: adm.id,
            status: o.status,
            tenant: adm.tenant,
            admitted: Some(adm.ordinal),
            cache_hit: Some(adm.cache_hit),
            evictions: adm.evictions,
            result_cache,
            delta_elems,
            answer_digest: o.answer_digest.clone(),
            fuel_left: o.fuel_left,
            engine_faults: o.engine_faults,
            counters_digest: o.counters_digest.clone(),
            verdicts: Some(verdicts_of(&adm.compiled)),
            attempts,
            retry_after_ops: None,
            error: o.error.clone(),
        }
    }

    /// Execute an admitted request on the full pipeline and settle its
    /// meter, resolving any fill obligations (`fill` = this request's
    /// `Pending` full slot, `family` = its family-filler election;
    /// `routed` marks requests the result cache classifies). A run
    /// that dies with an [`EngineFault`](RuntimeError::EngineFault)
    /// the engine layer could not absorb is treated as transient: the
    /// meter is settled (refunding the pool), a fresh one is
    /// re-admitted under the same limits, and the run repeats — up to
    /// `retry_budget` extra attempts. Retries run without a fault
    /// plan: a plan-driven fault would recur at the same coordinates
    /// forever, and the retry models the fault not recurring. A
    /// successful retry is therefore byte-identical to a fault-free run
    /// except for `attempts`.
    /// (Routed requests never carry a fault plan, so fills and retries
    /// cannot co-occur.)
    fn execute_full(
        &self,
        mut adm: Admitted,
        fill: Option<ResultKey>,
        family: Option<FamilyKey>,
        routed: bool,
    ) -> Response {
        // No input is allocated past what the request may charge: its
        // own memory cap, else the ceiling's whole pool.
        let mem_cap = adm.limits.mem_bytes.or(self.options.ceiling.mem_bytes);
        let inputs = fill_inputs(&adm.compiled, Some(adm.seed), mem_cap);
        let funcs = FuncTable::new();
        let mut guard = FillGuard {
            server: self,
            token: adm.ordinal,
            full: fill,
            family,
        };
        let mut attempts: u64 = 1;
        loop {
            let run_opts = RunOptions {
                threads: Some(self.options.threads),
                limits: Limits::unlimited(), // the meter already embodies them
                faults: if attempts == 1 {
                    self.options.faults.clone()
                } else {
                    None
                },
                ceiling: None,
            };
            let out = if guard.family.is_some() {
                self.run_split(
                    &adm.compiled,
                    adm.limits,
                    &inputs,
                    &funcs,
                    &run_opts,
                    &mut adm.meter,
                    &mut guard,
                )
            } else {
                run_with_meter(&adm.compiled, &inputs, &funcs, &run_opts, &mut adm.meter)
            };
            let fuel_left = adm.meter.fuel_limited().then(|| adm.meter.fuel_left());
            adm.meter.settle();
            let outcome = match out {
                Ok(out) => ok_outcome(&out),
                Err(e) => {
                    if matches!(e, RuntimeError::EngineFault { .. })
                        && attempts <= u64::from(adm.retry_budget)
                    {
                        // The settle above refunded the pool; if the
                        // re-admission loses a race for that budget,
                        // surface the original fault rather than a
                        // confusing rejection.
                        if let Ok(meter) = Meter::admit(adm.limits, &self.ceiling) {
                            adm.meter = meter;
                            attempts += 1;
                            self.ledger.add(Counter::Retried, 1);
                            continue;
                        }
                    }
                    let status = match &e {
                        RuntimeError::FuelExhausted { .. }
                        | RuntimeError::MemLimitExceeded { .. }
                        | RuntimeError::CeilingExhausted { .. } => Status::Limit,
                        _ => Status::RuntimeError,
                    };
                    CachedOutcome {
                        status,
                        answer_digest: None,
                        counters_digest: None,
                        fuel_left,
                        engine_faults: 0,
                        error: Some(e.to_string()),
                    }
                }
            };
            let outcome = Arc::new(outcome);
            self.fill_full(&mut guard, &outcome);
            let class = routed.then_some(ResultClass::Miss);
            return self.respond(adm, &outcome, class, None, attempts);
        }
    }

    /// Serve one request start to finish.
    pub fn handle(&self, req: &Request) -> Response {
        match self.admit(req) {
            Ok(adm) => self.execute(adm),
            Err(resp) => *resp,
        }
    }

    /// Serve a batch: admission strictly in the weighted fair order
    /// ([`Server::predicted_order`] — a pure function of the request
    /// list, so rejection and cache eviction are deterministic), then
    /// execution on up to `workers` threads, which drain jobs in
    /// admission order. Responses come back in **input order**. Each
    /// admitted request's outcome is independent of sibling scheduling
    /// — the settlement rule fixes its budget at admission.
    ///
    /// When the batch exceeds [`ServeOptions::shed_watermark`] (and
    /// the watermark is non-zero), the excess is shed per
    /// [`sched::fair_schedule`] with `overloaded` responses carrying a
    /// `retry_after_ops` hint — the surviving backlog priced by
    /// effective fuel caps, with certified-but-uncapped survivors
    /// priced at their evaluated certificate bound. A shed request no
    /// retry could admit (it asks more than the ceiling's whole pool)
    /// is answered `rejected` with admission's message instead, as it
    /// would be without a watermark. Survivors are then
    /// scheduled **as if the shed requests never arrived**: their
    /// responses are byte-identical (ordinals included) to a batch of
    /// only the survivors.
    pub fn run_batch(&self, reqs: &[Request], workers: usize) -> Vec<Response> {
        let schedule = Self::predicted_schedule(reqs, self.options.shed_watermark);
        let mut slots: Vec<Option<Response>> = (0..reqs.len()).map(|_| None).collect();
        // `jobs` holds (input index, admitted request) in admission
        // order; workers pull from its front, so execution starts in
        // the same fair order admission ran in.
        let mut jobs: Vec<(usize, Admitted)> = Vec::with_capacity(reqs.len());
        for &i in &schedule.order {
            match self.admit(&reqs[i]) {
                Ok(adm) => jobs.push((i, adm)),
                Err(resp) => slots[i] = Some(*resp),
            }
        }
        if !schedule.shed.is_empty() {
            // The hint prices the surviving backlog: an admitted
            // request contributes its effective fuel cap, falling back
            // to its certificate's evaluated fuel bound when it ran
            // uncapped (certified survivors no longer count as 0); a
            // request that failed admission contributes its declared
            // fuel — it was part of the queue when the shed decision
            // was made, and nothing tighter was proved for it.
            let mut admitted_fuel: HashMap<usize, u64> = HashMap::new();
            for (i, adm) in &jobs {
                let fuel = adm
                    .limits
                    .fuel
                    .or_else(|| adm.compiled.cert.fuel_value())
                    .unwrap_or(0);
                admitted_fuel.insert(*i, fuel);
            }
            let backlog_ops: u64 = schedule
                .order
                .iter()
                .map(|&i| {
                    admitted_fuel
                        .get(&i)
                        .copied()
                        .unwrap_or_else(|| reqs[i].fuel.unwrap_or(0))
                })
                .sum();
            for &i in &schedule.shed {
                if let Some(resp) = self.never_admissible(&reqs[i]) {
                    slots[i] = Some(resp);
                    continue;
                }
                self.ledger.add(Counter::Shed, 1);
                let mut resp = Response::failed(
                    &reqs[i].id,
                    Status::Overloaded,
                    None,
                    format!(
                        "shed: queue depth {} past watermark {}",
                        reqs.len(),
                        self.options.shed_watermark
                    ),
                );
                resp.tenant = reqs[i].tenant.clone();
                resp.retry_after_ops = Some(backlog_ops);
                slots[i] = Some(resp);
            }
        }
        let workers = workers.max(1).min(reqs.len().max(1));
        if workers == 1 {
            for (i, adm) in jobs {
                slots[i] = Some(self.execute(adm));
            }
        } else {
            let queue: Vec<Mutex<Option<(usize, Admitted)>>> =
                jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
            let next = AtomicUsize::new(0);
            let done = Mutex::new(&mut slots);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= queue.len() {
                            break;
                        }
                        let job = queue[k].lock().expect("job lock").take();
                        if let Some((i, adm)) = job {
                            let resp = self.execute(adm);
                            done.lock().expect("slot lock")[i] = Some(resp);
                        }
                    });
                }
            });
        }
        slots
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RECURRENCE: &str = "param n;\nletrec* a = array (1,n) \
        ([ 1 := 1 ] ++ [ i := a!(i-1) * 2 | i <- [2..n] ]);\n";

    fn req(id: &str, n: i64) -> Request {
        let mut r = Request::new(id, RECURRENCE);
        r.params.push(("n".to_string(), n));
        r
    }

    /// The `certificates` section: (certified, open, rejected).
    fn cert_counts(server: &Server) -> (u64, u64, u64) {
        let l = server.ledger();
        (
            l.get(Counter::CertCertified),
            l.get(Counter::CertOpen),
            l.get(Counter::CertRejected),
        )
    }

    /// Realized result-cache classes: (hits, deltas, misses).
    fn class_counts(server: &Server) -> (u64, u64, u64) {
        let l = server.ledger();
        (
            l.get(Counter::ResultHits),
            l.get(Counter::ResultDeltas),
            l.get(Counter::ResultMisses),
        )
    }

    #[test]
    fn repeat_requests_hit_the_cache() {
        let server = Server::new(ServeOptions::default());
        let a = server.handle(&req("a", 16));
        let b = server.handle(&req("b", 16));
        assert_eq!(a.status, Status::Ok);
        assert_eq!(a.cache_hit, Some(false));
        assert_eq!(b.cache_hit, Some(true));
        assert_eq!(a.answer_digest, b.answer_digest);
        assert_eq!(a.counters_digest, b.counters_digest);
        let l = server.ledger();
        assert_eq!(
            (l.get(Counter::CacheHits), l.get(Counter::CacheMisses)),
            (1, 1)
        );
        assert_eq!(l.get(Counter::CacheLive), 1);
    }

    #[test]
    fn cached_programs_drop_their_report() {
        let server = Server::new(ServeOptions::default());
        let r = req("a", 16);
        assert_eq!(server.handle(&r).status, Status::Ok);
        let key = ProgramKey::new(
            RECURRENCE.into(),
            &r.params,
            server.options.mode,
            server.options.engine,
        );
        let cached = server.cache.lock().unwrap().lookup(&key, u64::MAX).unwrap();
        assert!(cached.report.arrays.is_empty());
        assert_eq!(cached.report.cost, None);

        let program = hac_lang::parser::parse_program(RECURRENCE).unwrap();
        let direct = compile(&program, &key.env, &CompileOptions::default()).unwrap();
        assert!(!direct.report.arrays.is_empty());
        assert!(direct.report.cost.is_some());
    }

    #[test]
    fn different_params_compile_separately() {
        let server = Server::new(ServeOptions::default());
        let a = server.handle(&req("a", 16));
        let b = server.handle(&req("b", 17));
        assert_ne!(a.answer_digest, b.answer_digest);
        let l = server.ledger();
        assert_eq!(
            (l.get(Counter::CacheHits), l.get(Counter::CacheMisses)),
            (0, 2)
        );
    }

    #[test]
    fn over_budget_requests_are_rejected_at_admission() {
        let server = Server::new(ServeOptions {
            ceiling: Limits {
                fuel: Some(100),
                mem_bytes: None,
            },
            ..ServeOptions::default()
        });
        let mut r = req("big", 16);
        r.fuel = Some(1_000);
        let resp = server.handle(&r);
        assert_eq!(resp.status, Status::Rejected);
        assert!(resp.error.as_deref().unwrap().contains("ceiling"));
        // Nothing held: a fitting request still runs.
        let mut ok = req("small", 16);
        ok.fuel = Some(100);
        assert_eq!(server.handle(&ok).status, Status::Ok);
    }

    #[test]
    fn deadline_without_governor_is_rejected() {
        let server = Server::new(ServeOptions::default());
        let mut r = req("d", 16);
        r.deadline_ms = Some(5);
        let resp = server.handle(&r);
        assert_eq!(resp.status, Status::Rejected);
    }

    #[test]
    fn deadline_converts_to_fuel_deterministically() {
        let server = Server::new(ServeOptions {
            deadline: Some(DeadlineGovernor::with_rate(10)),
            ..ServeOptions::default()
        });
        // 2 ms × 10 ops/ms = 20 fuel: not enough for n=1000 — and the
        // recurrence has an exact certificate (n-1 = 999 fuel), so the
        // shortfall is proved at admission, before any execution.
        let mut r = req("d", 1000);
        r.deadline_ms = Some(2);
        let resp = server.handle(&r);
        assert_eq!(resp.status, Status::OverCertificate);
        assert!(resp.error.as_deref().unwrap().contains("fuel budget 20"));
        // Same deadline, tiny program: plenty.
        let mut ok = req("ok", 8);
        ok.deadline_ms = Some(2);
        assert_eq!(server.handle(&ok).status, Status::Ok);
    }

    #[test]
    fn exact_certificates_reject_before_execution() {
        let server = Server::new(ServeOptions::default());
        // RECURRENCE at n=16 certifies fuel n-1 = 15 and mem 8n = 128.
        let mut short_fuel = req("f", 16);
        short_fuel.fuel = Some(10);
        let resp = server.handle(&short_fuel);
        assert_eq!(resp.status, Status::OverCertificate);
        assert_eq!(
            resp.error.as_deref(),
            Some("over certificate: fuel budget 10 < certified cost 15")
        );
        // Never executed: no digests, no verdicts, no fuel accounting.
        assert_eq!(resp.answer_digest, None);
        assert_eq!(resp.counters_digest, None);
        assert_eq!(resp.verdicts, None);
        assert_eq!(resp.fuel_left, None);

        let mut short_mem = req("m", 16);
        short_mem.mem_bytes = Some(100);
        let resp = server.handle(&short_mem);
        assert_eq!(resp.status, Status::OverCertificate);
        assert_eq!(
            resp.error.as_deref(),
            Some("over certificate: mem budget 100 < certified peak 128 bytes")
        );

        // Budgets exactly at the certificate run — and run to zero.
        let mut at = req("at", 16);
        at.fuel = Some(15);
        at.mem_bytes = Some(128);
        let resp = server.handle(&at);
        assert_eq!(resp.status, Status::Ok, "{:?}", resp.error);
        assert_eq!(resp.fuel_left, Some(0), "the certificate is tight");

        assert_eq!(cert_counts(&server), (3, 0, 2));
    }

    #[test]
    fn uncapped_requests_admit_all_or_nothing_at_their_certificate() {
        let server = Server::new(ServeOptions {
            ceiling: Limits {
                fuel: Some(100),
                mem_bytes: None,
            },
            ..ServeOptions::default()
        });
        // No declared fuel under a fuel-capped ceiling: admission
        // draws exactly the certified cost from the pool instead of
        // lazy blocks — all-or-nothing, and tight.
        let resp = server.handle(&req("u", 16));
        assert_eq!(resp.status, Status::Ok, "{:?}", resp.error);
        assert_eq!(resp.fuel_left, Some(0));
        assert_eq!(server.ceiling().fuel_available(), 100 - 15);
        // The pool has 85 left; a certified 15-op run still fits. (A
        // fresh seed keeps it a result-cache miss — a hit would spend
        // nothing and leave the pool at 85.)
        let mut u2 = req("u2", 16);
        u2.seed = 7;
        assert_eq!(server.handle(&u2).status, Status::Ok);
        assert_eq!(server.ceiling().fuel_available(), 100 - 30);
        // … and one certified past the remaining pool is rejected by
        // the ceiling at admission, not run partially.
        let big = req("big", 1000); // certifies 999 > 70 remaining
        let resp = server.handle(&big);
        assert_eq!(resp.status, Status::Rejected);
        assert!(resp.error.as_deref().unwrap().contains("ceiling"));
    }

    #[test]
    fn open_certificates_fall_back_to_the_metered_path() {
        // Mutually recursive groups are thunked: demand-driven cost,
        // so the certificate is open and starved budgets surface as
        // plain runtime limits, not certificate rejections.
        const MUTUAL: &str = "param n;\nletrec* a = array (1,n) \
            ([ 1 := 1 ] ++ [ i := b!(i-1) + 1 | i <- [2..n] ])\n\
            and b = array (1,n) [ i := a!i * 2 | i <- [1..n] ];\n";
        let server = Server::new(ServeOptions::default());
        let mut r = Request::new("open", MUTUAL);
        r.params.push(("n".to_string(), 64));
        r.fuel = Some(1);
        let resp = server.handle(&r);
        assert_eq!(resp.status, Status::Limit, "{:?}", resp.error);
        assert_eq!(cert_counts(&server), (0, 1, 0));
    }

    #[test]
    fn shed_hint_prices_uncapped_survivors_by_certificate() {
        let server = Server::new(ServeOptions {
            shed_watermark: 3,
            ..ServeOptions::default()
        });
        // Four undeclared-budget requests from one tenant, one from
        // another: two shed. Under an uncapped ceiling the survivors
        // run meterless — but their certificates still price the
        // backlog, so the hint is 3 × (n-1) instead of 0.
        let mut reqs: Vec<Request> = (0..4)
            .map(|i| {
                let mut r = req(&format!("a{i}"), 16);
                r.tenant = Some("a".to_string());
                r
            })
            .collect();
        let mut b = req("b0", 16);
        b.tenant = Some("b".to_string());
        reqs.push(b);
        let schedule = Server::predicted_schedule(&reqs, 3);
        assert_eq!(schedule.shed, vec![2, 3]);
        let out = server.run_batch(&reqs, 2);
        for &i in &schedule.shed {
            assert_eq!(out[i].status, Status::Overloaded);
            assert_eq!(out[i].retry_after_ops, Some(15 * 3));
        }
    }

    #[test]
    fn batch_preserves_queue_order_and_ids() {
        let server = Server::new(ServeOptions::default());
        let reqs: Vec<Request> = (0..6).map(|i| req(&format!("r{i}"), 8 + i)).collect();
        let out = server.run_batch(&reqs, 3);
        assert_eq!(out.len(), 6);
        for (i, resp) in out.iter().enumerate() {
            assert_eq!(resp.id, format!("r{i}"));
            assert_eq!(resp.status, Status::Ok);
        }
    }

    #[test]
    fn request_json_round_trip() {
        let wire = r#"{"id":"r1","source":"param n;","params":{"n":4},
            "fuel":50,"mem_bytes":4096,"deadline_ms":7,"seed":9,
            "engine":"tape","mode":"thunked","tenant":"acme","weight":3}"#;
        let req = Request::from_json(&json::parse(wire).unwrap()).unwrap();
        assert_eq!(req.id, "r1");
        assert_eq!(req.params, vec![("n".to_string(), 4)]);
        assert_eq!(req.fuel, Some(50));
        assert_eq!(req.mem_bytes, Some(4096));
        assert_eq!(req.deadline_ms, Some(7));
        assert_eq!(req.seed, 9);
        assert_eq!(req.engine, Some(Engine::Tape));
        assert_eq!(req.mode, Some(ExecMode::ForceThunked));
        assert_eq!(req.tenant.as_deref(), Some("acme"));
        assert_eq!(req.weight, Some(3));
        // `to_json` is the exact inverse.
        let back = Request::from_json(&req.to_json()).unwrap();
        assert_eq!(format!("{:?}", back), format!("{:?}", req));
        // `priority` aliases `weight`; zero weights are malformed.
        let alias = json::parse(r#"{"id":"p","source":"x","priority":5}"#).unwrap();
        assert_eq!(Request::from_json(&alias).unwrap().weight, Some(5));
        let zero = json::parse(r#"{"id":"p","source":"x","weight":0}"#).unwrap();
        assert!(Request::from_json(&zero).is_err());
        // `partape` is an alias of `tape` and re-encodes as `tape`.
        let par = json::parse(r#"{"id":"p","source":"x","engine":"partape"}"#).unwrap();
        let par = Request::from_json(&par).unwrap();
        assert_eq!(par.engine, Some(Engine::Tape));
        assert_eq!(
            par.to_json().get("engine").and_then(Json::as_str),
            Some("tape")
        );
    }

    #[test]
    fn batch_admits_in_fair_order_and_stamps_ordinals() {
        let server = Server::new(ServeOptions::default());
        // Tenant a floods 4 requests ahead of b's 2; weights equal, so
        // the fair schedule interleaves them: a0 b4 a1 b5 a2 a3.
        let mut reqs: Vec<Request> = (0..4)
            .map(|i| {
                let mut r = req(&format!("a{i}"), 8);
                r.tenant = Some("a".to_string());
                r
            })
            .collect();
        for i in 0..2 {
            let mut r = req(&format!("b{i}"), 8);
            r.tenant = Some("b".to_string());
            reqs.push(r);
        }
        let predicted = Server::predicted_order(&reqs);
        assert_eq!(predicted, vec![0, 4, 1, 5, 2, 3]);
        let out = server.run_batch(&reqs, 2);
        // Responses in input order; ordinals realize the prediction.
        let mut realized: Vec<usize> = (0..reqs.len()).collect();
        realized.sort_by_key(|&i| out[i].admitted.expect("all admitted"));
        assert_eq!(realized, predicted);
        for (i, resp) in out.iter().enumerate() {
            assert_eq!(resp.id, reqs[i].id);
            assert_eq!(resp.status, Status::Ok);
            assert_eq!(resp.tenant, reqs[i].tenant);
        }
    }

    #[test]
    fn response_json_has_the_full_schema() {
        let server = Server::new(ServeOptions::default());
        let resp = server.handle(&req("a", 8));
        let j = resp.to_json();
        for key in [
            "id",
            "status",
            "tenant",
            "admitted",
            "cache",
            "evictions",
            "result_cache",
            "delta_elems",
            "answer_digest",
            "fuel_left",
            "engine_faults",
            "counters_digest",
            "verdicts",
            "attempts",
            "retry_after_ops",
            "error",
        ] {
            assert!(j.get(key).is_some(), "missing `{key}` in {j}");
        }
        assert_eq!(j.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(j.get("attempts").unwrap().as_u64(), Some(1));
        let v = j.get("verdicts").unwrap();
        assert_eq!(v.get("thunkless").unwrap().as_u64(), Some(1));
    }

    /// A delta-eligible kernel: `ui`/`uv` touch only the trailing
    /// `bigupd`, so sliding them reuses the cached prefix.
    const POKE: &str = "param n; param ui; param uv;\n\
        input a (1,n);\n\
        b = bigupd a [ ui := uv / 10 ];\n\
        result b;\n";

    fn poke(id: &str, n: i64, ui: i64, uv: i64) -> Request {
        let mut r = Request::new(id, POKE);
        r.params.push(("n".to_string(), n));
        r.params.push(("ui".to_string(), ui));
        r.params.push(("uv".to_string(), uv));
        r
    }

    #[test]
    fn repeat_requests_hit_the_result_cache() {
        let server = Server::new(ServeOptions::default());
        let a = server.handle(&req("a", 16));
        let b = server.handle(&req("b", 16));
        assert_eq!(a.result_cache, Some(ResultClass::Miss));
        assert_eq!(b.result_cache, Some(ResultClass::Hit));
        assert_eq!(b.delta_elems, None);
        assert_eq!(a.answer_digest, b.answer_digest);
        assert_eq!(a.counters_digest, b.counters_digest);
        assert_eq!(a.fuel_left, b.fuel_left);
        assert_eq!(class_counts(&server), (1, 0, 1));
        assert_eq!(server.ledger().get(Counter::ResultLive), 1);
    }

    #[test]
    fn result_cache_cap_zero_bypasses() {
        let server = Server::new(ServeOptions {
            result_cache_cap: 0,
            ..ServeOptions::default()
        });
        let a = server.handle(&req("a", 16));
        let b = server.handle(&req("b", 16));
        assert_eq!(a.result_cache, None);
        assert_eq!(b.result_cache, None);
        let l = server.ledger();
        assert_eq!(
            (
                l.get(Counter::ResultLookups),
                l.get(Counter::ResultHits),
                l.get(Counter::ResultMisses)
            ),
            (0, 0, 0)
        );
    }

    #[test]
    fn cached_hits_spend_no_pool_fuel() {
        let server = Server::new(ServeOptions {
            ceiling: Limits {
                fuel: Some(100),
                mem_bytes: None,
            },
            ..ServeOptions::default()
        });
        assert_eq!(server.handle(&req("a", 16)).status, Status::Ok);
        assert_eq!(server.ceiling().fuel_available(), 100 - 15);
        // The hit settles its untouched reservation back: the pool is
        // exactly where the first run left it.
        let b = server.handle(&req("b", 16));
        assert_eq!(b.result_cache, Some(ResultClass::Hit));
        assert_eq!(b.fuel_left, Some(0));
        assert_eq!(server.ceiling().fuel_available(), 100 - 15);
    }

    #[test]
    fn sliding_update_params_serve_deltas_byte_identically() {
        let server = Server::new(ServeOptions::default());
        let a = server.handle(&poke("a", 8, 3, 55));
        assert_eq!(a.status, Status::Ok, "{:?}", a.error);
        assert_eq!(a.result_cache, Some(ResultClass::Miss));
        let b = server.handle(&poke("b", 8, 5, 99));
        assert_eq!(b.status, Status::Ok, "{:?}", b.error);
        assert_eq!(b.result_cache, Some(ResultClass::Delta));
        assert_eq!(b.delta_elems, Some(1));
        // Byte-identical to a cold full run of the same request.
        let cold = Server::new(ServeOptions {
            result_cache_cap: 0,
            ..ServeOptions::default()
        });
        let c = cold.handle(&poke("c", 8, 5, 99));
        assert_eq!(c.result_cache, None);
        assert_eq!(b.answer_digest, c.answer_digest);
        assert_eq!(b.counters_digest, c.counters_digest);
        assert_eq!(b.fuel_left, c.fuel_left);
        assert_eq!(class_counts(&server), (0, 1, 1));
    }

    #[test]
    fn delta_exhaustion_falls_back_to_the_metered_full_run() {
        // A fuel budget the *prefix alone* fits but the whole run does
        // not: the probe exhausts mid-delta, and the fallback full run
        // must reproduce the cold error class and text.
        let server = Server::new(ServeOptions::default());
        let mut warm = poke("warm", 8, 3, 55);
        warm.fuel = Some(1_000);
        assert_eq!(server.handle(&warm).status, Status::Ok);
        let mut tight = poke("tight", 8, 5, 99);
        tight.fuel = Some(8); // the input copy alone spends the budget
        let t = server.handle(&tight);
        let cold = Server::new(ServeOptions {
            result_cache_cap: 0,
            ..ServeOptions::default()
        });
        let mut ctl = poke("ctl", 8, 5, 99);
        ctl.fuel = Some(8);
        let c = cold.handle(&ctl);
        assert_eq!(t.status, c.status);
        assert_eq!(t.error, c.error);
        assert_eq!(t.fuel_left, c.fuel_left);
    }

    #[test]
    fn realized_classes_match_the_pure_prediction() {
        use ResultClass::{Delta, Hit, Miss};
        let mut over_ceiling = req("big", 16);
        over_ceiling.fuel = Some(1_000);
        let slide = |id: &str, ui, uv| {
            let mut r = poke(id, 64, ui, uv);
            r.mem_bytes = Some(900);
            r
        };
        let ceiling = |fuel, mem_bytes| ServeOptions {
            ceiling: Limits { fuel, mem_bytes },
            ..ServeOptions::default()
        };
        let cases = [
            (
                ServeOptions::default(),
                vec![
                    req("a", 16),
                    poke("p1", 8, 3, 55),
                    req("b", 16),
                    poke("p2", 8, 5, 99),
                    req("c", 17),
                    poke("p3", 8, 3, 55),
                ],
                vec![
                    Some(Miss),
                    Some(Miss),
                    Some(Hit),
                    Some(Delta),
                    Some(Miss),
                    Some(Hit),
                ],
            ),
            // The pool cannot cover the request's reservation: the
            // ceiling rejects it before the result cache is consulted.
            (ceiling(Some(100), None), vec![over_ceiling], vec![None]),
            // Each slide's 900-byte reservation leaves no room in the
            // pool for the family snapshot, so no slide is elected
            // family filler and none can be served as a delta.
            (
                ceiling(None, Some(1_000)),
                vec![slide("s1", 3, 55), slide("s2", 5, 99), slide("s3", 7, 11)],
                vec![Some(Miss); 3],
            ),
        ];
        for (options, reqs, want) in cases {
            let predicted = Server::predicted_result_classes(&options, &reqs);
            assert_eq!(predicted, want);
            let server = Server::new(options);
            let realized: Vec<Option<ResultClass>> =
                reqs.iter().map(|r| server.handle(r).result_cache).collect();
            assert_eq!(realized, predicted);
        }
    }

    #[test]
    fn keys_split_on_exactly_the_content_they_cover() {
        let params = |pairs: &[(&str, i64)]| -> Vec<(String, i64)> {
            pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
        };
        let key = |source: &str, params: &[(String, i64)], seed, mode, engine, limits| ResultKey {
            program: ProgramKey::new(source.into(), params, mode, engine),
            seed,
            limits,
        };
        let poke = params(&[("n", 8), ("ui", 3), ("uv", 55)]);
        let (mode, engine) = (ExecMode::Auto, Engine::Tape);
        let fuel = |fuel| Limits {
            fuel,
            mem_bytes: None,
        };
        let k = key(POKE, &poke, 7, mode, engine, fuel(Some(100)));
        let other = |source, pairs: &[(&str, i64)]| {
            key(source, &params(pairs), 7, mode, engine, fuel(Some(100)))
        };
        // The order bindings were given in never splits a key, and a
        // name given twice binds its last value.
        assert_eq!(other(POKE, &[("uv", 55), ("n", 8), ("ui", 3)]), k);
        assert_eq!(other(POKE, &[("n", 9), ("ui", 3), ("n", 8), ("uv", 55)]), k);
        // Everything else a result depends on does.
        let moved_name = format!("{POKE}n");
        for split in [
            other("param n;\n", &[("n", 8), ("ui", 3), ("uv", 55)]),
            other(&moved_name, &[("", 8), ("ui", 3), ("uv", 55)]),
            other(POKE, &[("m", 8), ("ui", 3), ("uv", 55)]),
            other(POKE, &[("n", 9), ("ui", 3), ("uv", 55)]),
            other(POKE, &[("n", 8), ("ui", 3), ("uv", 56)]),
            other(POKE, &[("n", 8), ("ui", 3), ("n", 9), ("uv", 55)]),
            key(POKE, &poke, 8, mode, engine, fuel(Some(100))),
            key(
                POKE,
                &poke,
                7,
                ExecMode::ForceChecked,
                engine,
                fuel(Some(100)),
            ),
            key(POKE, &poke, 7, mode, Engine::TreeWalk, fuel(Some(100))),
            key(POKE, &poke, 7, mode, engine, fuel(Some(101))),
            key(POKE, &poke, 7, mode, engine, fuel(None)),
            key(
                POKE,
                &poke,
                7,
                mode,
                engine,
                Limits {
                    fuel: Some(100),
                    mem_bytes: Some(1),
                },
            ),
        ] {
            assert_ne!(split, k);
        }
        // Seed and limits change a run, not its program.
        let rerun = key(POKE, &poke, 8, mode, engine, Limits::unlimited());
        assert_eq!(rerun.program, k.program);
        // A family spans the delta params' values and the limits, but
        // not their names, the other params, or the seed.
        let delta = ["uv".to_string(), "ui".to_string()];
        let family = |k: &ResultKey| FamilyKey::new(&k.program, &delta, k.seed);
        let slid = other(POKE, &[("n", 8), ("ui", 5), ("uv", 99)]);
        assert_ne!(slid, k);
        assert_eq!(family(&slid), family(&k));
        let unlimited = key(POKE, &poke, 7, mode, engine, Limits::unlimited());
        assert_eq!(family(&unlimited), family(&k));
        assert_ne!(family(&rerun), family(&k));
        assert_ne!(
            family(&other(POKE, &[("n", 9), ("ui", 3), ("uv", 55)])),
            family(&k)
        );
        let narrower = FamilyKey::new(&k.program, &delta[..1], k.seed);
        assert_ne!(narrower, family(&k));
    }

    #[test]
    fn fault_plans_bypass_the_result_cache() {
        let mut plan = FaultPlan::default();
        plan.points.push(hac_runtime::FaultPoint {
            region: 0,
            chunk: 0,
            kind: hac_runtime::FaultKind::Panic,
        });
        let server = Server::new(ServeOptions {
            faults: Some(plan),
            ..ServeOptions::default()
        });
        let resp = server.handle(&req("a", 16));
        assert_eq!(resp.result_cache, None);
        assert_eq!(server.ledger().get(Counter::ResultLookups), 0);
    }

    #[test]
    fn batch_sheds_past_the_watermark_with_a_backlog_hint() {
        let server = Server::new(ServeOptions {
            shed_watermark: 3,
            ..ServeOptions::default()
        });
        // Tenant a floods 4 requests, b sends 1: depth 5 is 2 past the
        // watermark, and a (the diluted share) loses its two newest.
        let mut reqs: Vec<Request> = (0..4)
            .map(|i| {
                let mut r = req(&format!("a{i}"), 8);
                r.tenant = Some("a".to_string());
                r.fuel = Some(1_000);
                r
            })
            .collect();
        let mut b = req("b0", 8);
        b.tenant = Some("b".to_string());
        b.fuel = Some(500);
        reqs.push(b);
        let schedule = Server::predicted_schedule(&reqs, 3);
        assert_eq!(schedule.shed, vec![2, 3]);
        let out = server.run_batch(&reqs, 2);
        for &i in &schedule.shed {
            assert_eq!(out[i].status, Status::Overloaded, "{}", out[i].id);
            assert_eq!(out[i].admitted, None, "shed before admission");
            // The hint is the surviving backlog's declared fuel.
            assert_eq!(out[i].retry_after_ops, Some(1_000 + 1_000 + 500));
            assert_eq!(out[i].tenant.as_deref(), Some("a"));
        }
        assert_eq!(server.ledger().get(Counter::Shed), 2);
        // Survivors are byte-identical to a batch of only the
        // survivors on a fresh server — the shed never happened, as
        // far as they can tell.
        let survivors: Vec<usize> = (0..reqs.len())
            .filter(|i| !schedule.shed.contains(i))
            .collect();
        let alone: Vec<Request> = survivors.iter().map(|&i| reqs[i].clone()).collect();
        let fresh = Server::new(ServeOptions {
            shed_watermark: 3,
            ..ServeOptions::default()
        });
        let alone_out = fresh.run_batch(&alone, 2);
        for (k, &i) in survivors.iter().enumerate() {
            assert_eq!(
                out[i].to_json().to_string(),
                alone_out[k].to_json().to_string()
            );
        }
        assert_eq!(fresh.ledger().get(Counter::Shed), 0);
    }

    #[test]
    fn watermark_zero_never_sheds() {
        let server = Server::new(ServeOptions::default());
        let reqs: Vec<Request> = (0..8).map(|i| req(&format!("r{i}"), 8)).collect();
        let out = server.run_batch(&reqs, 2);
        assert!(out.iter().all(|r| r.status == Status::Ok));
        assert_eq!(server.ledger().get(Counter::Shed), 0);
    }

    #[test]
    fn a_shed_request_past_the_pools_capacity_is_rejected() {
        // The over-ask declares more fuel than the whole pool holds, so
        // no retry can admit it: past the watermark it gets admission's
        // `rejected`, as without one, and no hint invites a retry.
        let mut reqs: Vec<Request> = (0..3)
            .map(|i| {
                let mut r = req(&format!("r{i}"), 8);
                r.fuel = Some(1_000);
                r
            })
            .collect();
        let mut over = req("over-ask", 8);
        over.fuel = Some(1_000_000_000);
        reqs.push(over);
        for watermark in [0, 2] {
            let server = Server::new(ServeOptions {
                ceiling: Limits {
                    fuel: Some(100_000),
                    mem_bytes: None,
                },
                shed_watermark: watermark,
                ..ServeOptions::default()
            });
            let schedule = Server::predicted_schedule(&reqs, watermark);
            let shed_over = schedule.shed.contains(&3);
            assert_eq!(shed_over, watermark > 0);
            let out = server.run_batch(&reqs, 2);
            let resp = &out[3];
            assert_eq!(resp.status, Status::Rejected, "watermark {watermark}");
            let error = resp.error.as_deref().unwrap_or_default();
            assert!(
                error.starts_with("global fuel ceiling exhausted: 1000000000 requested"),
                "{error}"
            );
            assert_eq!(resp.retry_after_ops, None);
            // Only the sheds a retry could admit count as shed, and the
            // realized admission order is still the predicted one.
            let shed = schedule.shed.len() - usize::from(shed_over);
            assert_eq!(server.ledger().get(Counter::Shed), shed as u64);
            let overloaded = out.iter().filter(|r| r.status == Status::Overloaded);
            assert_eq!(overloaded.count(), shed);
            let mut realized = schedule.order.clone();
            realized.sort_by_key(|&i| out[i].admitted.expect("admitted"));
            assert_eq!(realized, schedule.order);
        }
    }

    #[test]
    fn engine_fault_retry_restores_the_fault_free_outcome() {
        // An in-place update region (write set ∩ read set ≠ ∅) is not
        // retry-safe; with `nosnapshot` an injected worker panic
        // surfaces as an EngineFault the engine layer cannot absorb.
        let mut r = Request::new("s", hac_workloads::saxpy_source());
        r.params = vec![("m".to_string(), 4), ("n".to_string(), 64)];
        let clean_server = Server::new(ServeOptions {
            threads: 2,
            ..ServeOptions::default()
        });
        let clean = clean_server.handle(&r);
        assert_eq!(clean.status, Status::Ok);
        assert_eq!(clean.attempts, 1);

        let faulty = ServeOptions {
            threads: 2,
            faults: Some(FaultPlan::parse("nosnapshot,r0c0:panic").unwrap()),
            ..ServeOptions::default()
        };

        // Budget 0: the fault surfaces as a runtime error.
        let no_retry = Server::new(ServeOptions {
            retry_budget: 0,
            ..faulty.clone()
        });
        let resp = no_retry.handle(&r);
        assert_eq!(resp.status, Status::RuntimeError);
        assert!(resp.error.as_deref().unwrap().contains("engine fault"));
        assert_eq!(resp.attempts, 1);
        assert_eq!(no_retry.ledger().get(Counter::Retried), 0);

        // Default budget (1): the retry runs the empty plan and the
        // outcome is the clean one, except `attempts`.
        let retrying = Server::new(faulty.clone());
        let resp = retrying.handle(&r);
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.attempts, 2);
        assert_eq!(resp.answer_digest, clean.answer_digest);
        assert_eq!(resp.counters_digest, clean.counters_digest);
        assert_eq!(retrying.ledger().get(Counter::Retried), 1);

        // A request's own budget overrides the server default.
        let server = Server::new(faulty);
        let mut stubborn = r.clone();
        stubborn.retry_budget = Some(0);
        assert_eq!(server.handle(&stubborn).status, Status::RuntimeError);
    }
}
