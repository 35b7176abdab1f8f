//! A persistent serving daemon over real TCP sockets.
//!
//! `hacc daemon --listen ADDR` binds a std-library [`TcpListener`] and
//! serves the exact JSON-lines protocol `hacc serve` speaks on
//! stdin/stdout — one request object per line, one response per line —
//! reusing [`Server`] unchanged underneath, so every determinism
//! guarantee (admission ordinals, bounded-cache eviction, settlement)
//! carries over to the socket path verbatim.
//!
//! Besides plain requests, a connection may send **control objects**:
//!
//! * `{"control":"tenant","tenant":"acme"}` — attribute every later
//!   request on this connection that names no tenant of its own to
//!   `acme` (per-connection tenant attribution).
//! * `{"control":"stats"}` — cache counters, per-tenant served request
//!   counts (sorted by tenant name, so the reply is reproducible), the
//!   daemon's armor ledger, and the server's overload/retry counters.
//! * `{"control":"shutdown"}` — graceful shutdown: the daemon replies
//!   `{"control":"shutdown","ok":true}`, stops accepting, lets every
//!   in-flight connection finish, and returns.
//!
//! The accept loop is **bounded**: at most
//! [`DaemonOptions::max_conns`] connections are served concurrently;
//! excess connections wait in the listen backlog until a slot frees.
//!
//! ## Connection armor
//!
//! A public listener must survive clients that are slow, hostile, or
//! broken, without perturbing any other tenant's outcome:
//!
//! * **Deadlines** — [`DaemonOptions::io_timeout_ms`] arms
//!   `set_read_timeout`/`set_write_timeout` on every accepted socket.
//!   A fired read deadline produces a structured
//!   `{"error":"io-timeout"}` line and closes that one connection.
//! * **Bounded lines** — request lines are accumulated through a
//!   [`BufReader`] but never past
//!   [`DaemonOptions::max_line_bytes`]; an oversized line is drained
//!   and answered with `{"error":"line-too-long"}`, and the
//!   connection keeps serving. Malformed JSON and bad requests get
//!   `{"error":"bad-request"}` the same way — a parse failure never
//!   kills the connection, let alone the process.
//! * **Panic isolation** — each connection handler runs under
//!   [`catch_unwind`](std::panic::catch_unwind); a panicking handler
//!   is counted in `panics_recovered` and its slot freed, and the
//!   accept loop keeps serving.
//!
//! Every armor action increments exactly one counter in the `stats`
//! ledger, and connection/request ordinals (dense, assigned at accept
//! and per line read) drive the deterministic chaos plans of
//! [`chaos`](crate::chaos), installed through [`DaemonOptions::chaos`].

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::chaos::{ChaosPlan, ConnFaultKind};
use crate::json::{self, Json};
use crate::{Request, Server};

/// Default [`DaemonOptions::max_line_bytes`]: 1 MiB.
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// Daemon-specific knobs (everything else lives in
/// [`ServeOptions`](crate::ServeOptions) on the wrapped server).
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Connections served concurrently; further accepts wait until a
    /// slot frees.
    pub max_conns: usize,
    /// Per-connection read/write deadline in milliseconds; `None`
    /// disarms both (a dead client can then hold a slot forever —
    /// fine for tests, not for a public listener).
    pub io_timeout_ms: Option<u64>,
    /// Hard cap on one request line's bytes (newline excluded). An
    /// oversized line is drained, answered with a structured
    /// `line-too-long` error, and the connection keeps serving. Also
    /// the bound on the per-connection read buffer the daemon will
    /// hold for a single line.
    pub max_line_bytes: usize,
    /// Deterministic I/O fault plan (see [`chaos`](crate::chaos));
    /// `None` injects nothing.
    pub chaos: Option<ChaosPlan>,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        DaemonOptions {
            max_conns: 8,
            io_timeout_ms: None,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            chaos: None,
        }
    }
}

/// The daemon's armor ledger: every counter is bumped by exactly one
/// event kind, so chaos tests can assert the whole ledger exactly.
#[derive(Debug, Default)]
struct Counters {
    /// Connections accepted (also the source of dense connection
    /// ordinals for chaos coordinates).
    conns: AtomicU64,
    /// Handler panics contained by `catch_unwind`.
    panics_recovered: AtomicU64,
    /// Lines refused before reaching the server: oversized, malformed
    /// JSON, bad request shapes, unknown controls, injected garbage.
    lines_rejected: AtomicU64,
    /// Request-line bytes consumed off sockets, newlines included
    /// (oversized lines count in full — the bytes were read, then
    /// discarded).
    line_bytes_read: AtomicU64,
    /// Read deadlines that fired.
    io_timeouts: AtomicU64,
    /// Chaos: responses computed and then deliberately not written.
    dropped: AtomicU64,
    /// Chaos: simulated read-deadline firings.
    stalled: AtomicU64,
    /// Chaos: garbage lines injected ahead of real requests.
    garbage_injected: AtomicU64,
    /// Chaos: responses truncated to their first half.
    short_writes: AtomicU64,
}

/// A snapshot of the armor ledger (exposed for tests; the wire form is
/// the `daemon` object in the `stats` control reply).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    pub conns: u64,
    pub panics_recovered: u64,
    pub lines_rejected: u64,
    pub line_bytes_read: u64,
    pub io_timeouts: u64,
    pub dropped: u64,
    pub stalled: u64,
    pub garbage_injected: u64,
    pub short_writes: u64,
}

/// State shared between the accept loop and connection handlers.
struct Shared {
    server: Arc<Server>,
    options: DaemonOptions,
    addr: SocketAddr,
    shutdown: AtomicBool,
    active: Mutex<usize>,
    slot_freed: Condvar,
    /// Requests served per tenant, in first-seen order.
    tenants: Mutex<Vec<(String, u64)>>,
    counters: Counters,
}

impl Shared {
    fn record_tenant(&self, tenant: &str) {
        let mut tenants = self.tenants.lock().expect("tenant lock");
        match tenants.iter_mut().find(|(t, _)| t == tenant) {
            Some((_, n)) => *n += 1,
            None => tenants.push((tenant.to_string(), 1)),
        }
    }

    fn stats(&self) -> DaemonStats {
        let c = &self.counters;
        DaemonStats {
            conns: c.conns.load(Ordering::SeqCst),
            panics_recovered: c.panics_recovered.load(Ordering::SeqCst),
            lines_rejected: c.lines_rejected.load(Ordering::SeqCst),
            line_bytes_read: c.line_bytes_read.load(Ordering::SeqCst),
            io_timeouts: c.io_timeouts.load(Ordering::SeqCst),
            dropped: c.dropped.load(Ordering::SeqCst),
            stalled: c.stalled.load(Ordering::SeqCst),
            garbage_injected: c.garbage_injected.load(Ordering::SeqCst),
            short_writes: c.short_writes.load(Ordering::SeqCst),
        }
    }
}

/// A daemon running on a background thread (the in-process form the
/// simulator tests drive; the CLI calls [`run`] on its main thread).
pub struct Daemon {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the daemon to shut down (send `{"control":"shutdown"}`
    /// over a connection first, or this blocks forever).
    ///
    /// # Errors
    /// Propagates accept-loop I/O errors.
    ///
    /// # Panics
    /// Panics if the daemon thread itself panicked.
    pub fn join(self) -> std::io::Result<()> {
        self.thread.join().expect("daemon thread panicked")
    }
}

/// Spawn the accept loop on a background thread and return immediately.
///
/// # Errors
/// Fails when the listener's local address cannot be read.
pub fn spawn(
    server: Arc<Server>,
    listener: TcpListener,
    options: DaemonOptions,
) -> std::io::Result<Daemon> {
    let addr = listener.local_addr()?;
    let thread = std::thread::spawn(move || run(server, listener, options));
    Ok(Daemon { addr, thread })
}

/// Serve connections until a `{"control":"shutdown"}` arrives, then
/// drain in-flight connections and return. Blocking; the CLI's
/// `hacc daemon` calls this on the main thread.
///
/// # Errors
/// Propagates listener I/O failures.
pub fn run(
    server: Arc<Server>,
    listener: TcpListener,
    options: DaemonOptions,
) -> std::io::Result<()> {
    let addr = listener.local_addr()?;
    let max_conns = options.max_conns.max(1);
    let io_timeout = options
        .io_timeout_ms
        .map(|ms| std::time::Duration::from_millis(ms.max(1)));
    let shared = Arc::new(Shared {
        server,
        options,
        addr,
        shutdown: AtomicBool::new(false),
        active: Mutex::new(0),
        slot_freed: Condvar::new(),
        tenants: Mutex::new(Vec::new()),
        counters: Counters::default(),
    });
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        // Bounded accept: hold here until a connection slot frees (a
        // finishing handler notifies; a shutdown handler also frees
        // its slot, so this wait always wakes).
        {
            let mut active = shared.active.lock().expect("active lock");
            while *active >= max_conns && !shared.shutdown.load(Ordering::SeqCst) {
                active = shared.slot_freed.wait(active).expect("active lock");
            }
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            *active += 1;
        }
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) => {
                *shared.active.lock().expect("active lock") -= 1;
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                return Err(e);
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // The wake-up connection a shutdown handler made to
            // unblock `accept`; nothing will be read from it.
            drop(stream);
            *shared.active.lock().expect("active lock") -= 1;
            break;
        }
        if let Some(t) = io_timeout {
            // Failure to arm a deadline is not fatal: the connection
            // is still served, just unarmored against slow peers.
            let _ = stream.set_read_timeout(Some(t));
            let _ = stream.set_write_timeout(Some(t));
        }
        // Dense connection ordinal: the accept loop is sequential, so
        // ordinals are assigned in accept order — the coordinate
        // system chaos plans aim at.
        let conn = shared.counters.conns.fetch_add(1, Ordering::SeqCst);
        // Reap finished handlers so a long-lived daemon's handle list
        // stays proportional to live connections.
        handlers.retain(|h| !h.is_finished());
        let sh = Arc::clone(&shared);
        handlers.push(std::thread::spawn(move || {
            // Panic isolation: a handler panic (a bug, or an injected
            // `cN:panic` chaos fault) closes its own socket and frees
            // its slot; the daemon keeps serving everyone else.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                serve_connection(&sh, stream, conn);
            }));
            if outcome.is_err() {
                sh.counters.panics_recovered.fetch_add(1, Ordering::SeqCst);
            }
            *sh.active.lock().expect("active lock") -= 1;
            sh.slot_freed.notify_one();
        }));
    }
    for h in handlers {
        let _ = h.join();
    }
    Ok(())
}

/// One structured error line: `error` is a stable machine-readable
/// code (`bad-request`, `line-too-long`, `io-timeout`), `detail` the
/// human-readable specifics.
fn error_line(code: &str, detail: String) -> Json {
    Json::Obj(vec![
        ("id".to_string(), Json::Null),
        ("status".to_string(), Json::Str("rejected".to_string())),
        ("error".to_string(), Json::Str(code.to_string())),
        ("detail".to_string(), Json::Str(detail)),
    ])
}

/// Handle one control object; returns `true` when the connection
/// should stop reading (shutdown).
fn handle_control(shared: &Shared, control: &str, v: &Json, out: &mut TcpStream) -> bool {
    match control {
        "shutdown" => {
            let reply = Json::Obj(vec![
                ("control".to_string(), Json::Str("shutdown".to_string())),
                ("ok".to_string(), Json::Bool(true)),
            ]);
            let _ = writeln!(out, "{reply}");
            let _ = out.flush();
            shared.shutdown.store(true, Ordering::SeqCst);
            // Unblock the accept loop; it drops this wake-up
            // connection on arrival.
            let _ = TcpStream::connect(shared.addr);
            shared.slot_freed.notify_one();
            true
        }
        "stats" => {
            let s = shared.server.cache_stats();
            let cache = Json::Obj(vec![
                ("lookups".to_string(), Json::Num(s.lookups as f64)),
                ("hits".to_string(), Json::Num(s.hits as f64)),
                ("misses".to_string(), Json::Num(s.misses as f64)),
                ("insertions".to_string(), Json::Num(s.insertions as f64)),
                ("evictions".to_string(), Json::Num(s.evictions as f64)),
                ("live".to_string(), Json::Num(s.live as f64)),
                ("cap".to_string(), Json::Num(s.cap as f64)),
            ]);
            let r = shared.server.result_cache_stats();
            let result_cache = Json::Obj(vec![
                ("lookups".to_string(), Json::Num(r.lookups as f64)),
                ("hits".to_string(), Json::Num(r.hits as f64)),
                ("deltas".to_string(), Json::Num(r.deltas as f64)),
                ("misses".to_string(), Json::Num(r.misses as f64)),
                ("insertions".to_string(), Json::Num(r.insertions as f64)),
                ("evictions".to_string(), Json::Num(r.evictions as f64)),
                ("live".to_string(), Json::Num(r.live as f64)),
                ("cap".to_string(), Json::Num(r.cap as f64)),
                (
                    "resident_bytes".to_string(),
                    Json::Num(r.resident_bytes as f64),
                ),
            ]);
            let mut tenants = shared.tenants.lock().expect("tenant lock").clone();
            tenants.sort();
            let tenants = Json::Obj(
                tenants
                    .into_iter()
                    .map(|(t, n)| (t, Json::Num(n as f64)))
                    .collect(),
            );
            let d = shared.stats();
            let daemon = Json::Obj(vec![
                ("conns".to_string(), Json::Num(d.conns as f64)),
                (
                    "panics_recovered".to_string(),
                    Json::Num(d.panics_recovered as f64),
                ),
                (
                    "lines_rejected".to_string(),
                    Json::Num(d.lines_rejected as f64),
                ),
                (
                    "line_bytes_read".to_string(),
                    Json::Num(d.line_bytes_read as f64),
                ),
                (
                    "max_line_bytes".to_string(),
                    Json::Num(shared.options.max_line_bytes as f64),
                ),
                ("io_timeouts".to_string(), Json::Num(d.io_timeouts as f64)),
                ("dropped".to_string(), Json::Num(d.dropped as f64)),
                ("stalled".to_string(), Json::Num(d.stalled as f64)),
                (
                    "garbage_injected".to_string(),
                    Json::Num(d.garbage_injected as f64),
                ),
                ("short_writes".to_string(), Json::Num(d.short_writes as f64)),
            ]);
            let sv = shared.server.server_stats();
            let server = Json::Obj(vec![
                ("shed".to_string(), Json::Num(sv.shed as f64)),
                ("retried".to_string(), Json::Num(sv.retried as f64)),
            ]);
            let cs = shared.server.cert_stats();
            let certificates = Json::Obj(vec![
                ("certified".to_string(), Json::Num(cs.certified as f64)),
                ("open".to_string(), Json::Num(cs.open as f64)),
                ("rejected".to_string(), Json::Num(cs.rejected as f64)),
            ]);
            let reply = Json::Obj(vec![
                ("control".to_string(), Json::Str("stats".to_string())),
                ("cache".to_string(), cache),
                ("result_cache".to_string(), result_cache),
                ("tenants".to_string(), tenants),
                ("daemon".to_string(), daemon),
                ("server".to_string(), server),
                ("certificates".to_string(), certificates),
            ]);
            let _ = writeln!(out, "{reply}");
            let _ = out.flush();
            false
        }
        "tenant" => {
            // Handled by the caller (needs the connection-local
            // default); this arm only validates the shape.
            let ok = v.get("tenant").and_then(Json::as_str).is_some();
            let reply = if ok {
                Json::Obj(vec![
                    ("control".to_string(), Json::Str("tenant".to_string())),
                    ("ok".to_string(), Json::Bool(true)),
                ])
            } else {
                shared
                    .counters
                    .lines_rejected
                    .fetch_add(1, Ordering::SeqCst);
                error_line(
                    "bad-request",
                    "`tenant` control needs a string `tenant`".to_string(),
                )
            };
            let _ = writeln!(out, "{reply}");
            let _ = out.flush();
            false
        }
        other => {
            shared
                .counters
                .lines_rejected
                .fetch_add(1, Ordering::SeqCst);
            let _ = writeln!(
                out,
                "{}",
                error_line("bad-request", format!("unknown control `{other}`"))
            );
            let _ = out.flush();
            false
        }
    }
}

/// Outcome of one bounded line read.
enum LineRead {
    /// A complete line (newline and any trailing `\r` stripped;
    /// invalid UTF-8 replaced, so it fails JSON parsing downstream
    /// with a structured error instead of killing the read loop).
    Line(String),
    /// The line exceeded the cap; its bytes were drained and dropped.
    TooLong,
    /// The read deadline fired.
    TimedOut,
    /// EOF or a hard socket error.
    Closed,
}

/// Read one newline-terminated line without ever buffering more than
/// `max` payload bytes, no matter how much the peer sends.
/// `bytes_read` is credited with every byte consumed (newlines and
/// discarded overflow included — they were read off the socket).
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    max: usize,
    bytes_read: &AtomicU64,
) -> LineRead {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflow = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return LineRead::TimedOut;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return LineRead::Closed,
        };
        if chunk.is_empty() {
            // EOF. A partial unterminated line is served as-is (the
            // same contract as `BufRead::lines`); nothing pending is
            // a clean close.
            return if overflow {
                LineRead::TooLong
            } else if buf.is_empty() {
                LineRead::Closed
            } else {
                LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
            };
        }
        let nl = chunk.iter().position(|&b| b == b'\n');
        let take = nl.map_or(chunk.len(), |p| p + 1);
        bytes_read.fetch_add(take as u64, Ordering::SeqCst);
        if !overflow {
            let keep = nl.map_or(take, |p| p);
            if buf.len() + keep > max {
                // Stop accumulating; keep draining to the newline so
                // the connection can resynchronize on the next line.
                overflow = true;
                buf = Vec::new();
            } else {
                buf.extend_from_slice(&chunk[..keep]);
            }
        }
        reader.consume(take);
        if nl.is_some() {
            if overflow {
                return LineRead::TooLong;
            }
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return LineRead::Line(String::from_utf8_lossy(&buf).into_owned());
        }
    }
}

/// Write one reply line, honoring any write-path chaos fault aimed at
/// it. Returns `false` when the connection must close (fault fired or
/// the write failed).
fn write_reply(
    shared: &Shared,
    out: &mut TcpStream,
    line: &str,
    fault: Option<ConnFaultKind>,
) -> bool {
    match fault {
        Some(ConnFaultKind::Drop) => {
            shared.counters.dropped.fetch_add(1, Ordering::SeqCst);
            false
        }
        Some(ConnFaultKind::ShortWrite) => {
            shared.counters.short_writes.fetch_add(1, Ordering::SeqCst);
            let bytes = line.as_bytes();
            let _ = out.write_all(&bytes[..bytes.len() / 2]);
            let _ = out.flush();
            false
        }
        _ => {
            let ok = writeln!(out, "{line}").is_ok();
            out.flush().is_ok() && ok
        }
    }
}

/// Serve one connection's JSON-lines until EOF, a deadline, a chaos
/// fault that closes it, or shutdown.
fn serve_connection(shared: &Shared, stream: TcpStream, conn: u64) {
    let Ok(reader) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader);
    let mut out = stream;
    // The connection's default tenant: applied to any request that
    // names none of its own.
    let mut conn_tenant: Option<String> = None;
    // Skip per-line chaos lookups entirely on untouched connections.
    let chaos = shared
        .options
        .chaos
        .as_ref()
        .filter(|p| p.touches_conn(conn));
    // Dense request ordinal: every non-empty line this connection
    // sends, in arrival order (controls and rejected lines included).
    let mut request: u64 = 0;
    loop {
        let line = match read_bounded_line(
            &mut reader,
            shared.options.max_line_bytes,
            &shared.counters.line_bytes_read,
        ) {
            LineRead::Line(l) => l,
            LineRead::TooLong => {
                shared
                    .counters
                    .lines_rejected
                    .fetch_add(1, Ordering::SeqCst);
                request += 1;
                let reply = error_line(
                    "line-too-long",
                    format!(
                        "request line exceeds {} bytes",
                        shared.options.max_line_bytes
                    ),
                );
                let _ = writeln!(out, "{reply}");
                let _ = out.flush();
                continue;
            }
            LineRead::TimedOut => {
                shared.counters.io_timeouts.fetch_add(1, Ordering::SeqCst);
                let reply = error_line("io-timeout", "read deadline elapsed".to_string());
                let _ = writeln!(out, "{reply}");
                let _ = out.flush();
                return;
            }
            LineRead::Closed => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let ordinal = request;
        request += 1;
        let fault = chaos.and_then(|p| p.lookup(conn, ordinal));
        match fault {
            Some(ConnFaultKind::Stall) => {
                // The read deadline "fires" on this request — same
                // wire behavior as a real timeout, no clock involved.
                shared.counters.stalled.fetch_add(1, Ordering::SeqCst);
                let reply = error_line("io-timeout", "read deadline elapsed".to_string());
                let _ = writeln!(out, "{reply}");
                let _ = out.flush();
                return;
            }
            Some(ConnFaultKind::Panic) => {
                // Contained by the accept loop's catch_unwind.
                panic!("chaos: injected connection panic at c{conn}r{ordinal}");
            }
            Some(ConnFaultKind::Garbage) => {
                // A garbage line "arrived" just ahead of this request:
                // the malformed-line path fires, then the real request
                // is served completely unperturbed.
                shared
                    .counters
                    .garbage_injected
                    .fetch_add(1, Ordering::SeqCst);
                shared
                    .counters
                    .lines_rejected
                    .fetch_add(1, Ordering::SeqCst);
                let reply = error_line("bad-request", "chaos: injected garbage line".to_string());
                let _ = writeln!(out, "{reply}");
                let _ = out.flush();
            }
            _ => {}
        }
        let parsed = match json::parse(&line) {
            Ok(v) => v,
            Err(e) => {
                shared
                    .counters
                    .lines_rejected
                    .fetch_add(1, Ordering::SeqCst);
                if !write_reply(
                    shared,
                    &mut out,
                    &error_line("bad-request", e).to_string(),
                    fault,
                ) {
                    return;
                }
                continue;
            }
        };
        if let Some(control) = parsed.get("control").and_then(Json::as_str) {
            let control = control.to_string();
            if control == "tenant" {
                if let Some(t) = parsed.get("tenant").and_then(Json::as_str) {
                    conn_tenant = Some(t.to_string());
                }
            }
            if handle_control(shared, &control, &parsed, &mut out) {
                return;
            }
            continue;
        }
        let mut req = match Request::from_json(&parsed) {
            Ok(r) => r,
            Err(e) => {
                shared
                    .counters
                    .lines_rejected
                    .fetch_add(1, Ordering::SeqCst);
                if !write_reply(
                    shared,
                    &mut out,
                    &error_line("bad-request", e).to_string(),
                    fault,
                ) {
                    return;
                }
                continue;
            }
        };
        if req.tenant.is_none() {
            req.tenant.clone_from(&conn_tenant);
        }
        let resp = shared.server.handle(&req);
        shared.record_tenant(req.tenant.as_deref().unwrap_or(""));
        if !write_reply(shared, &mut out, &resp.to_json().to_string(), fault) {
            return;
        }
    }
}
