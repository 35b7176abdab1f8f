//! Spans recorded by a traced run, their per-layer self times, and the
//! per-layer metrics derived from them.
//!
//! Every span belongs to one request and names its layer; its parent is
//! the span whose work it is part of. A layer's self time is its span's
//! duration minus its children's, so the self times of one request sum
//! to its root span: the round trip (`rtt`) of a daemon request, or one
//! compile+run (`op`) in `kernels`. Replayed spans run after the reply
//! they explain, so a child need not lie inside its parent in time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use hac_core::pipeline::{ExecCounters, ExecOutput};
use hac_serve::json::Json;

use crate::front::STAGES;
use crate::stats::{median, quantile, Metric};
use crate::workloads::PROGRAMS;

/// Result-cache classes with their own `serve.handle_us` row.
const CLASSES: [&str; 4] = ["hit", "delta", "miss", "reject"];

struct Span {
    req: u64,
    conn: usize,
    layer: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

impl Span {
    fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Everything a traced run records, kept in memory until it ends.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    requests: u64,
    /// `engine.*` counts, summed over one run of each distinct program,
    /// parameters and limits replayed.
    engine: [u64; 5],
    /// Bytes of every output array a non-hit reply digests, computed
    /// from the replayed run's shapes.
    pub digest_bytes: Vec<f64>,
    pub request_bytes: Vec<f64>,
    pub response_bytes: Vec<f64>,
    /// Requests the in-process twin classed differently from the daemon.
    pub class_mismatches: u64,
    /// Per shipped program: compile and run durations in µs.
    programs: BTreeMap<&'static str, [Vec<f64>; 2]>,
}

const ENGINE: [&str; 5] = [
    "tape_ops",
    "stores",
    "loads",
    "loop_iterations",
    "temp_elements",
];

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            requests: 0,
            engine: [0; 5],
            digest_bytes: Vec::new(),
            request_bytes: Vec::new(),
            response_bytes: Vec::new(),
            class_mismatches: 0,
            programs: BTreeMap::new(),
        }
    }

    /// A new request id.
    pub fn request(&mut self) -> u64 {
        self.requests += 1;
        self.requests - 1
    }

    /// Record a span; returns its id for use as a parent.
    pub fn span(
        &mut self,
        req: u64,
        conn: usize,
        layer: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            req,
            conn,
            layer: layer.into(),
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            parent,
        });
        self.spans.len() - 1
    }

    pub fn add_counters(&mut self, c: &ExecCounters) {
        let vm = &c.vm;
        for (total, v) in self.engine.iter_mut().zip([
            vm.tape_ops,
            vm.stores,
            vm.loads,
            vm.loop_iterations,
            vm.temp_elements,
        ]) {
            *total += v;
        }
    }

    pub fn add_digest_bytes(&mut self, out: &ExecOutput) {
        let arrays: usize = out.arrays.values().map(|a| a.len()).sum();
        self.digest_bytes
            .push(((arrays + out.scalars.len()) * std::mem::size_of::<f64>()) as f64);
    }

    /// Record a compile (`phase` 0) or run (1) of shipped program `name`.
    pub fn program_time(&mut self, name: &'static str, phase: usize, start: Instant, end: Instant) {
        self.programs.entry(name).or_default()[phase].push((end - start).as_secs_f64() * 1e6);
    }

    /// Per layer, one `(duration, self time)` in µs per request that
    /// has the layer, summed over that request's spans of it.
    fn per_request(&self) -> BTreeMap<&str, Vec<(f64, f64)>> {
        let mut children = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.dur_us();
            }
        }
        let mut acc: BTreeMap<(&str, u64), (f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&children) {
            let e = acc.entry((s.layer.as_str(), s.req)).or_default();
            e.0 += s.dur_us();
            e.1 += s.dur_us() - child;
        }
        let mut layers: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
        for ((layer, _), v) in acc {
            layers.entry(layer).or_default().push(v);
        }
        layers
    }

    /// The per-layer metrics this trace yields, in a fixed order and
    /// with a fixed set of names: a layer no request of the workload
    /// passes through reads 0.
    pub fn metrics(&self) -> Vec<Metric> {
        let layers = self.per_request();
        let med = |layer: &str, self_time: bool| {
            let v: Vec<f64> = layers.get(layer).map_or(Vec::new(), |v| {
                v.iter()
                    .map(|&(d, s)| if self_time { s } else { d })
                    .collect()
            });
            median(&v)
        };
        let mut m = vec![
            Metric::new("daemon.io_us", med("rtt", true), "us"),
            Metric::new("serve.decode_us", med("serve.decode", false), "us"),
            Metric::new("serve.encode_us", med("serve.encode", false), "us"),
        ];
        for c in CLASSES {
            let v = med(&format!("serve.handle.{c}"), false);
            m.push(Metric::new(format!("serve.handle_us.{c}"), v, "us"));
        }
        for c in ["delta", "miss"] {
            let v = med(&format!("serve.handle.{c}"), true);
            m.push(Metric::new(format!("serve.self_us.{c}"), v, "us"));
        }
        m.push(Metric::new(
            "core.compile_us",
            med("core.compile", false),
            "us",
        ));
        for s in STAGES {
            let v = med(&format!("front.{s}"), false);
            m.push(Metric::new(format!("front.{s}_us"), v, "us"));
        }
        m.push(Metric::new(
            "front.other_us",
            med("core.compile", true),
            "us",
        ));
        m.push(Metric::new("core.run_us", med("core.run", false), "us"));
        m.push(Metric::new(
            "core.run_delta_us",
            med("core.run_delta", false),
            "us",
        ));
        for (name, v) in ENGINE.iter().zip(self.engine) {
            m.push(Metric::new(format!("engine.{name}"), v as f64, "count"));
        }
        m.push(Metric::new(
            "serve.digest_bytes",
            median(&self.digest_bytes),
            "bytes",
        ));
        m.push(Metric::new(
            "serve.request_bytes",
            median(&self.request_bytes),
            "bytes",
        ));
        m.push(Metric::new(
            "serve.response_bytes",
            median(&self.response_bytes),
            "bytes",
        ));
        for p in &PROGRAMS {
            let [compile, run] = self.programs.get(p.name).cloned().unwrap_or_default();
            m.push(Metric::new(
                format!("program.{}.compile_us", p.name),
                median(&compile),
                "us",
            ));
            m.push(Metric::new(
                format!("program.{}.run_us", p.name),
                median(&run),
                "us",
            ));
        }
        let mismatch = self.class_mismatches as f64 / self.requests.max(1) as f64;
        m.push(Metric::new("trace.class_mismatch", mismatch, "ratio"));
        m
    }

    /// The self-time table: per layer, requests through it, median and
    /// p90 self time, and its share of all root time. Shares sum to 100%.
    pub fn table(&self) -> String {
        let layers = self.per_request();
        let root_total: f64 = ["rtt", "op"]
            .iter()
            .filter_map(|r| layers.get(r))
            .flatten()
            .map(|&(d, _)| d)
            .sum();
        let mut rows: Vec<(String, &Vec<(f64, f64)>)> = layers
            .iter()
            .map(|(layer, v)| {
                let label = match *layer {
                    "rtt" => "daemon.io".to_string(),
                    "op" => "kernels.op".to_string(),
                    "core.compile" => "front.other".to_string(),
                    l => l.replace("serve.handle.", "serve.self."),
                };
                (label, v)
            })
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = format!(
            "{:<24} {:>8} {:>12} {:>12} {:>7}\n",
            "layer (self time)", "requests", "median_us", "p90_us", "share"
        );
        let mut shares = 0.0;
        for (label, v) in rows {
            let selfs: Vec<f64> = v.iter().map(|&(_, s)| s).collect();
            let share = 100.0 * selfs.iter().sum::<f64>() / root_total.max(f64::MIN_POSITIVE);
            shares += share;
            let _ = writeln!(
                out,
                "{label:<24} {:>8} {:>12.1} {:>12.1} {share:>6.2}%",
                v.len(),
                median(&selfs),
                quantile(&selfs, 0.9),
            );
        }
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>12} {:>12} {shares:>6.2}%",
            "total", "", "", ""
        );
        out
    }

    pub fn to_json(&self) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("req".into(), num(s.req)),
                    ("conn".into(), num(s.conn as u64)),
                    ("layer".into(), Json::Str(s.layer.clone())),
                    ("start_ns".into(), num(s.start_ns)),
                    ("end_ns".into(), num(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| num(p as u64)),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![("spans".into(), Json::Arr(spans))])
    }
}
