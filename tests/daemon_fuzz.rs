//! Byte-level fuzz of the daemon's JSON-lines protocol: arbitrary
//! bytes, truncated JSON, pathological nesting, and oversized lines
//! are thrown at a loopback daemon, and the armor contract is asserted
//! for every stimulus:
//!
//!   * the daemon never panics and never hangs (a 30-second client
//!     deadline converts a hang into a test failure),
//!   * every non-empty garbage line gets exactly one structured JSON
//!     response (`status` present) — the connection survives and a
//!     well-formed sentinel request sent right after is still served
//!     with `status:"ok"`,
//!   * after the whole barrage, the `stats` ledger shows zero
//!     recovered panics and the daemon shuts down cleanly.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use hac::serve::daemon::{self, Daemon, DaemonOptions};
use hac::serve::{Request, ServeOptions, Server};
use hac_runtime::governor::FaultPlan;
use proptest::collection;
use proptest::prelude::*;

const RECURRENCE: &str = "param n;\nletrec* a = array (1,n) \
    ([ 1 := 1 ] ++ [ i := a!(i-1) * 2 | i <- [2..n] ]);\n";

/// Keep lines small so the fuzz exercises `line-too-long` cheaply.
const MAX_LINE: usize = 1024;

fn sentinel(case: usize) -> Request {
    let mut r = Request::new(format!("sentinel-{case}"), RECURRENCE);
    r.params.push(("n".to_string(), 4));
    r.fuel = Some(100_000);
    r
}

fn spawn_daemon() -> Daemon {
    let server = Server::new(ServeOptions {
        faults: Some(FaultPlan::default()),
        ..ServeOptions::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    daemon::spawn(
        Arc::new(server),
        listener,
        DaemonOptions {
            max_line_bytes: MAX_LINE,
            ..DaemonOptions::default()
        },
    )
    .expect("spawn daemon")
}

/// Expand one generated `(kind, bytes, n)` triple into a stimulus blob
/// (newline appended by the driver).
fn blob(kind: u8, bytes: &[u8], n: usize) -> Vec<u8> {
    match kind {
        // Raw bytes: embedded newlines, invalid UTF-8, control chars.
        0 => bytes.to_vec(),
        // A truncated but otherwise valid request: always malformed
        // JSON (the closing brace is cut off).
        1 => {
            let full = sentinel(usize::MAX).to_json().to_string().into_bytes();
            let cut = full.len() - 1 - (n % (full.len() / 2));
            full[..cut].to_vec()
        }
        // Pathological nesting: past the parser's depth cap (or the
        // line cap, when long enough — both must answer structurally).
        2 => b"[".repeat(50 * n.max(2)),
        // Oversized line: always past `max_line_bytes`.
        3 => b"y".repeat(MAX_LINE + 1 + n),
        // Valid JSON that is not a request object.
        4 => format!("[{n},2,3]").into_bytes(),
        // A request object missing its required fields.
        _ => b"{\"id\":\"q\"}".to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn garbage_bytes_get_structured_answers_and_never_kill_the_daemon(
        stimuli in collection::vec(
            (0u8..6u8, collection::vec(any::<u8>(), 0..120), 1usize..40usize),
            1..5,
        )
    ) {
        let daemon = spawn_daemon();
        for (case, (kind, bytes, n)) in stimuli.iter().enumerate() {
            let stream = TcpStream::connect(daemon.addr()).expect("connect");
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(30)))
                .expect("hang guard");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut out = stream;
            out.write_all(&blob(*kind, bytes, *n)).expect("send blob");
            out.write_all(b"\n").expect("send newline");
            let probe = sentinel(case);
            writeln!(out, "{}", probe.to_json()).expect("send sentinel");
            // Read until the sentinel's response: every line before it
            // must be a structured rejection, and the sentinel itself
            // must be served — garbage never desynchronizes or kills
            // the connection.
            let marker = format!("\"id\":\"sentinel-{case}\"");
            let mut saw_sentinel = false;
            for _ in 0..64 {
                let mut line = String::new();
                let got = reader.read_line(&mut line).expect("recv");
                prop_assert!(got > 0, "kind {}: EOF before the sentinel response", kind);
                if line.contains(&marker) {
                    prop_assert!(
                        line.contains("\"status\":\"ok\""),
                        "kind {}: sentinel not served: {}", kind, line
                    );
                    saw_sentinel = true;
                    break;
                }
                let parsed = hac::serve::json::parse(line.trim_end());
                let structured = parsed
                    .as_ref()
                    .ok()
                    .and_then(|v| v.get("status"))
                    .is_some();
                prop_assert!(
                    structured,
                    "kind {}: unstructured reply to garbage: {}", kind, line
                );
            }
            prop_assert!(saw_sentinel, "kind {}: sentinel response never arrived", kind);
        }

        // The barrage is over: no panic was recovered (garbage must be
        // rejected, not crash handlers), and shutdown is clean.
        let stream = TcpStream::connect(daemon.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut out = stream;
        out.write_all(b"{\"control\":\"stats\"}\n").expect("stats");
        let mut stats = String::new();
        reader.read_line(&mut stats).expect("stats reply");
        prop_assert!(
            stats.contains("\"panics_recovered\":0"),
            "garbage crashed a handler: {}", stats
        );
        out.write_all(b"{\"control\":\"shutdown\"}\n").expect("shutdown");
        let mut ack = String::new();
        reader.read_line(&mut ack).expect("ack");
        prop_assert!(ack.contains("\"ok\":true"), "unclean shutdown: {}", ack);
        daemon.join().expect("daemon exits cleanly");
    }
}

/// A tenant's `mod 0` is ordinary arithmetic (NaN), not a handler
/// crash: the reply is a normal `ok` and no panic is recovered.
#[test]
fn mod_by_zero_request_gets_a_normal_reply() {
    let daemon = spawn_daemon();
    let stream = TcpStream::connect(daemon.addr()).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("hang guard");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut out = stream;
    let mut r = Request::new(
        "mod0",
        "param n;\nlet a = array (1,n) ([ i := i mod 0 | i <- [1..n-1] ] ++ [ n := 7 mod 0 ]);\n",
    );
    r.params.push(("n".to_string(), 4));
    writeln!(out, "{}", r.to_json()).expect("send request");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply");
    assert!(
        reply.contains("\"id\":\"mod0\"") && reply.contains("\"status\":\"ok\""),
        "{reply}"
    );
    out.write_all(b"{\"control\":\"stats\"}\n").expect("stats");
    let mut stats = String::new();
    reader.read_line(&mut stats).expect("stats reply");
    assert!(stats.contains("\"panics_recovered\":0"), "{stats}");
    out.write_all(b"{\"control\":\"shutdown\"}\n")
        .expect("shutdown");
    let mut ack = String::new();
    reader.read_line(&mut ack).expect("ack");
    assert!(ack.contains("\"ok\":true"), "{ack}");
    daemon.join().expect("daemon exits cleanly");
}
