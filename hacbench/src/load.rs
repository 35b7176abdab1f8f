//! The daemon workloads: a fresh daemon, two closed-loop client
//! connections, a timed window, and the oracles that check every reply.

use std::sync::Mutex;
use std::time::Instant;

use hac_serve::json::{self, Json};

use crate::daemon::{Conn, Daemon};
use crate::oracle;
use crate::stats::{median, quantile, Metric};
use crate::twin::{reply_class, Twin};
use crate::workloads::{Sent, Stream, Workload};
use crate::{Config, Phase, TAIL};

/// One request and its reply as the client saw them.
pub struct Sample {
    pub conn: usize,
    pub sent: Sent,
    /// The request line as sent, without its newline.
    pub line: String,
    pub reply: Result<String, String>,
    /// Before the first request byte was written.
    pub start: Instant,
    /// When the reply's newline was read.
    pub end: Instant,
    /// Sent during set-up, outside the timed window.
    pub primed: bool,
}

/// Send one request and record the exchange; a traced run replays it
/// on the twin before the connection sends its next request.
fn exchange(
    conn: usize,
    c: &mut Conn,
    sent: Sent,
    primed: bool,
    twin: Option<&Mutex<Twin>>,
) -> Sample {
    let line = sent.req.to_json().to_string();
    let (reply, start, end) = match c.round_trip(&line) {
        Ok((reply, start, end)) => (Ok(reply), start, end),
        Err(e) => {
            let now = Instant::now();
            (Err(e), now, now)
        }
    };
    let s = Sample {
        conn,
        sent,
        line,
        reply,
        start,
        end,
        primed,
    };
    if let Some(t) = twin {
        t.lock().expect("twin lock poisoned").replay(&s);
    }
    s
}

struct Client {
    conn: Conn,
    stream: Stream,
}

/// Start a daemon, connect both clients, and send their priming
/// requests (the two connections in parallel).
fn set_up(
    workload: Workload,
    cfg: &Config,
    twin: Option<&Mutex<Twin>>,
    samples: &mut Vec<Sample>,
) -> Result<(Daemon, Vec<Client>), String> {
    let daemon = Daemon::start(&cfg.daemon)?;
    let mut clients = Vec::new();
    for c in 0..2 {
        clients.push(Client {
            conn: Conn::connect(daemon.addr())?,
            stream: Stream::new(workload, c, cfg.seed, cfg.sizes),
        });
    }
    let primed: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for sent in client.stream.priming() {
                        let s = exchange(c, &mut client.conn, sent, true, twin);
                        let broken = s.reply.is_err();
                        out.push(s);
                        if broken {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    samples.extend(primed.into_iter().flatten());
    Ok((daemon, clients))
}

/// Ratios and counters from the daemon's `stats` control, in a fixed
/// order; all 0 without a daemon.
pub fn ledger(stats: Option<&Json>) -> Vec<Metric> {
    let get = |section: &str, key: &str| {
        stats
            .and_then(|s| s.get(section))
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let program_lookups = get("cache", "lookups");
    let result_lookups = get("result_cache", "lookups");
    vec![
        Metric::new(
            "cache.program_hit_ratio",
            ratio(get("cache", "hits"), program_lookups),
            "ratio",
        ),
        Metric::new(
            "cache.program_evictions",
            get("cache", "evictions"),
            "count",
        ),
        Metric::new(
            "cache.result_hit_ratio",
            ratio(get("result_cache", "hits"), result_lookups),
            "ratio",
        ),
        Metric::new(
            "cache.result_delta_ratio",
            ratio(get("result_cache", "deltas"), result_lookups),
            "ratio",
        ),
        Metric::new(
            "cache.result_evictions",
            get("result_cache", "evictions"),
            "count",
        ),
        Metric::new("cert.rejected", get("certificates", "rejected"), "count"),
        Metric::new(
            "daemon.lines_rejected",
            get("daemon", "lines_rejected"),
            "count",
        ),
    ]
}

pub fn run(workload: Workload, cfg: &Config, traced: bool) -> Phase {
    let mut phase = Phase::default();
    let twin_cell = traced.then(|| Mutex::new(Twin::new()));
    let twin = twin_cell.as_ref();
    let mut samples = Vec::new();
    // Set up repeatedly and keep the last: `setup_s` is the median.
    let mut setup_s = Vec::new();
    let (daemon, mut clients) = loop {
        let t = Instant::now();
        match set_up(workload, cfg, twin, &mut samples) {
            Ok((daemon, clients)) => {
                setup_s.push(t.elapsed().as_secs_f64());
                if !cfg.more_setups(traced, &setup_s) {
                    break (daemon, clients);
                }
                drop(clients);
                if let Err(e) = daemon.shutdown() {
                    phase.fail(e);
                }
            }
            Err(e) => {
                phase.fail(e);
                return phase;
            }
        }
    };

    let start = Instant::now();
    let deadline = start + cfg.window;
    let window: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let sent = client.stream.next();
                        let s = exchange(c, &mut client.conn, sent, false, twin);
                        let broken = s.reply.is_err();
                        out.push(s);
                        if broken {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    samples.extend(window.into_iter().flatten());

    // Read the peak as the window left it, then close the clients: the
    // daemon serves at most two connections.
    let rss = daemon.peak_rss_mb();
    drop(clients);
    let stats = daemon.stats();
    if let Err(e) = daemon.shutdown() {
        phase.fail(e);
    }
    let stats = match stats {
        Ok(s) => Some(s),
        Err(e) => {
            phase.fail(format!("stats: {e}"));
            None
        }
    };
    phase.ledger = ledger(stats.as_ref());
    let rejected = stats
        .as_ref()
        .and_then(|s| s.get("daemon")?.get("lines_rejected")?.as_u64())
        .unwrap_or(0);
    if rejected > 0 {
        phase.failed += rejected;
        phase
            .problems
            .push(format!("the daemon rejected {rejected} line(s)"));
    }

    let (failed, problems) = oracle::check(&samples);
    phase.failed += failed;
    phase.problems.extend(problems);
    phase.attempted += samples.len() as u64;

    let mut rtt_ms = Vec::new();
    let mut by_class: Vec<(&str, Vec<f64>)> = Vec::new();
    for s in samples.iter().filter(|s| !s.primed) {
        let Some(reply) = s.reply.as_ref().ok().and_then(|r| json::parse(r).ok()) else {
            continue;
        };
        let ms = (s.end - s.start).as_secs_f64() * 1e3;
        rtt_ms.push(ms);
        let mut class = reply_class(&reply);
        if class == "miss" && reply.get("status").and_then(Json::as_str) != Some("ok") {
            class = "limit";
        }
        match by_class.iter_mut().find(|(c, _)| *c == class) {
            Some((_, v)) => v.push(ms),
            None => by_class.push((class, vec![ms])),
        }
    }
    let rss = rss.unwrap_or_else(|e| {
        phase.fail(e);
        0.0
    });
    phase.e2e = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("latency_p50_ms", median(&rtt_ms), "ms"),
        Metric::new(TAIL.1, quantile(&rtt_ms, TAIL.0), "ms"),
        Metric::new("throughput_rps", rtt_ms.len() as f64 / elapsed, "1/s"),
        Metric::new("peak_rss_mb", rss, "MB"),
    ];
    phase
        .info
        .push(Metric::new("samples", rtt_ms.len() as f64, "count"));
    by_class.sort_by(|a, b| a.0.cmp(b.0));
    for (class, v) in by_class {
        phase
            .info
            .push(Metric::new(format!("{class}_p50_ms"), median(&v), "ms"));
        phase.info.push(Metric::new(
            format!("{class}_samples"),
            v.len() as f64,
            "count",
        ));
    }
    if let Some(t) = twin_cell {
        let t = t.into_inner().expect("twin lock poisoned");
        phase.failed += t.problems.len() as u64;
        phase.problems.extend(t.problems);
        phase.trace = Some(t.trace);
    }
    phase
}
