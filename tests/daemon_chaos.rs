//! The deterministic chaos harness for the daemon: a fixed request
//! script is driven twice over loopback TCP — once fault-free, once
//! under a chaos plan that drops, stalls, garbages, short-writes, and
//! panics at exact connection/request coordinates — and the two runs
//! are compared **differentially**:
//!
//!   * every request the plan does not touch produces a response
//!     byte-identical to the fault-free run,
//!   * every touched request produces a structured error line or a
//!     clean socket close — never a hang, never a dead daemon,
//!   * the daemon's armor ledger (the `daemon` object in the `stats`
//!     control reply) accounts for every injected fault exactly.
//!
//! The differential holds at every engine thread count because chaos
//! coordinates are ordinals, not clocks. A golden-file test pins the
//! full `stats` wire line for a fixed armor workout
//! (`tests/golden/daemon_stats.txt`, regenerate with `UPDATE_GOLDEN=1`).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use hac::serve::chaos::ChaosPlan;
use hac::serve::daemon::{self, Daemon, DaemonOptions};
use hac::serve::json::{self, Json};
use hac::serve::{Request, ServeOptions, Server};
use hac_runtime::governor::FaultPlan;

/// Inline kernel: no file dependence, so byte counts in the golden
/// ledger cannot drift with `programs/*.hac` edits.
const RECURRENCE: &str = "param n;\nletrec* a = array (1,n) \
    ([ 1 := 1 ] ++ [ i := a!(i-1) * 2 | i <- [2..n] ]);\n";

fn req(id: &str, n: i64) -> Request {
    let mut r = Request::new(id, RECURRENCE);
    r.params.push(("n".to_string(), n));
    r.seed = 7;
    r.fuel = Some(100_000);
    r
}

/// A daemon wrapping a fresh server at `threads` workers per request.
fn spawn_daemon(threads: usize, options: DaemonOptions) -> Daemon {
    let server = Server::new(ServeOptions {
        threads,
        ..ServeOptions::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    daemon::spawn(Arc::new(server), listener, options).expect("spawn daemon")
}

struct Conn {
    reader: BufReader<TcpStream>,
    out: TcpStream,
}

impl Conn {
    fn open(addr: std::net::SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .expect("hang guard");
        Conn {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            out: stream,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.out, "{line}").expect("send");
    }

    /// One reply line, newline stripped; panics on EOF (the test
    /// expected a response here).
    fn recv(&mut self) -> String {
        let mut s = String::new();
        let n = self.reader.read_line(&mut s).expect("recv");
        assert!(n > 0, "unexpected EOF");
        s.trim_end().to_string()
    }

    /// Everything until EOF, raw (for asserting dropped and truncated
    /// responses byte-exactly).
    fn drain(mut self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.reader.read_to_end(&mut bytes).expect("drain");
        bytes
    }
}

/// The fault-free run: the same server-side arrival sequence the chaos
/// run produces (stall/panic victims never reach the server, so they
/// are simply absent here). Returns wire lines by request id.
fn baseline(threads: usize) -> BTreeMap<String, String> {
    let daemon = spawn_daemon(threads, DaemonOptions::default());
    let mut lines = BTreeMap::new();
    for pair in [
        [("a0", 4), ("a1", 5)],
        [("b0", 6), ("b1", 4)],
        [("c0", 5), ("c1", 6)],
        [("f0", 4), ("f1", 7)],
    ] {
        let mut conn = Conn::open(daemon.addr());
        for (id, n) in pair {
            conn.send(&req(id, n).to_json().to_string());
            lines.insert(id.to_string(), conn.recv());
        }
    }
    let mut conn = Conn::open(daemon.addr());
    conn.send("{\"control\":\"shutdown\"}");
    assert!(conn.recv().contains("\"ok\":true"));
    daemon.join().expect("clean shutdown");
    lines
}

const IO_TIMEOUT_LINE: &str =
    "{\"id\":null,\"status\":\"rejected\",\"error\":\"io-timeout\",\"detail\":\"read deadline elapsed\"}";
const GARBAGE_LINE: &str =
    "{\"id\":null,\"status\":\"rejected\",\"error\":\"bad-request\",\"detail\":\"chaos: injected garbage line\"}";

/// Pull a named field out of a `stats` reply's sub-object.
fn stat(reply: &Json, obj: &str, key: &str) -> u64 {
    reply
        .get(obj)
        .and_then(|o| o.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats field {obj}.{key}"))
}

#[test]
fn chaos_touches_exactly_the_planned_coordinates_at_every_thread_count() {
    for threads in [1usize, 2, 4, 8] {
        let want = baseline(threads);
        let plan = ChaosPlan::parse("c1r0:garbage,c2r1:drop,c3r0:stall,c4r0:panic,c5r1:shortwrite")
            .expect("parse plan");
        let daemon = spawn_daemon(
            threads,
            DaemonOptions {
                chaos: Some(plan),
                ..DaemonOptions::default()
            },
        );
        let addr = daemon.addr();
        let mut sent_bytes: u64 = 0;
        let mut send_req = |conn: &mut Conn, id: &str, n: i64| {
            let line = req(id, n).to_json().to_string();
            sent_bytes += line.len() as u64 + 1;
            conn.send(&line);
        };

        // conn 0: untouched — byte-identical responses.
        let mut c0 = Conn::open(addr);
        for (id, n) in [("a0", 4), ("a1", 5)] {
            send_req(&mut c0, id, n);
            assert_eq!(c0.recv(), want[id], "threads {threads}: untouched {id}");
        }
        drop(c0);

        // conn 1: garbage injected ahead of b0 — one structured error
        // line, then the real response, byte-identical.
        let mut c1 = Conn::open(addr);
        send_req(&mut c1, "b0", 6);
        assert_eq!(c1.recv(), GARBAGE_LINE, "threads {threads}: garbage line");
        assert_eq!(c1.recv(), want["b0"], "threads {threads}: b0 after garbage");
        send_req(&mut c1, "b1", 4);
        assert_eq!(c1.recv(), want["b1"], "threads {threads}: b1 untouched");
        drop(c1);

        // conn 2: c1's response is computed, then dropped — the client
        // sees EOF with zero bytes, and the daemon survives.
        let mut c2 = Conn::open(addr);
        send_req(&mut c2, "c0", 5);
        assert_eq!(c2.recv(), want["c0"], "threads {threads}: c0 before drop");
        send_req(&mut c2, "c1", 6);
        assert_eq!(
            c2.drain(),
            b"",
            "threads {threads}: dropped response leaks bytes"
        );

        // conn 3: the read deadline "fires" on d0 — structured
        // io-timeout line, then close; d0 never reaches the server.
        let mut c3 = Conn::open(addr);
        send_req(&mut c3, "d0", 8);
        assert_eq!(c3.recv(), IO_TIMEOUT_LINE, "threads {threads}: stall line");
        assert_eq!(
            c3.drain(),
            b"",
            "threads {threads}: stall closes the connection"
        );

        // conn 4: the handler panics before serving e0 — clean EOF,
        // nothing served, daemon keeps accepting.
        let mut c4 = Conn::open(addr);
        send_req(&mut c4, "e0", 9);
        assert_eq!(
            c4.drain(),
            b"",
            "threads {threads}: panic closes without bytes"
        );

        // conn 5: f1's response is truncated to its first half.
        let mut c5 = Conn::open(addr);
        send_req(&mut c5, "f0", 4);
        assert_eq!(
            c5.recv(),
            want["f0"],
            "threads {threads}: f0 before shortwrite"
        );
        send_req(&mut c5, "f1", 7);
        let full = want["f1"].as_bytes();
        assert_eq!(
            c5.drain(),
            &full[..full.len() / 2],
            "threads {threads}: shortwrite is exactly the first half"
        );

        // conn 6: the ledger accounts for every injection exactly. The
        // panic counter is bumped just after the panicking handler's
        // socket closes, so poll the stats control until it lands,
        // then assert the whole ledger (each stats line we send is
        // itself read off the socket, so the byte ledger grows by a
        // known amount per attempt).
        let mut c6 = Conn::open(addr);
        let stats_line = "{\"control\":\"stats\"}";
        let mut ledger = None;
        for attempt in 1..=200u64 {
            c6.send(stats_line);
            sent_bytes += stats_line.len() as u64 + 1;
            let reply = json::parse(&c6.recv()).expect("stats reply parses");
            if stat(&reply, "daemon", "panics_recovered") == 1 {
                ledger = Some((reply, attempt));
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let (reply, _) = ledger.expect("panic recovery never reached the ledger");
        for (key, expect) in [
            ("conns", 7),
            ("panics_recovered", 1),
            ("lines_rejected", 1),
            ("line_bytes_read", sent_bytes),
            ("io_timeouts", 0),
            ("dropped", 1),
            ("stalled", 1),
            ("garbage_injected", 1),
            ("short_writes", 1),
        ] {
            assert_eq!(
                stat(&reply, "daemon", key),
                expect,
                "threads {threads}: ledger field {key}"
            );
        }
        assert_eq!(stat(&reply, "server", "shed"), 0);
        assert_eq!(stat(&reply, "server", "retried"), 0);

        c6.send("{\"control\":\"shutdown\"}");
        assert!(c6.recv().contains("\"ok\":true"));
        daemon.join().expect("daemon survives the whole plan");
    }
}

/// Engine-level tokens ride in the same spec: `nosnapshot,r0c0:panic`
/// reaches the engines through `ChaosPlan::engine` (the CLI routes it
/// into `ServeOptions::faults`), while `c<N>` tokens stay on the I/O
/// path. Here we only pin the split — the daemon itself must ignore
/// the engine half.
#[test]
fn engine_tokens_do_not_leak_into_the_io_path() {
    let plan = ChaosPlan::parse("c0r1:drop,nosnapshot,r0c0:panic").expect("parse");
    assert_eq!(plan.conns.len(), 1);
    assert!(!plan.engine.snapshot);
    assert_eq!(plan.engine.points.len(), 1);
    // A daemon given only the connection half serves request 0 fine.
    let daemon = spawn_daemon(
        1,
        DaemonOptions {
            chaos: Some(ChaosPlan {
                engine: FaultPlan::default(),
                ..plan
            }),
            ..DaemonOptions::default()
        },
    );
    let mut conn = Conn::open(daemon.addr());
    conn.send(&req("only", 4).to_json().to_string());
    assert!(conn.recv().contains("\"status\":\"ok\""));
    conn.send(&req("gone", 4).to_json().to_string());
    assert_eq!(conn.drain(), b"");
    let mut ctl = Conn::open(daemon.addr());
    ctl.send("{\"control\":\"shutdown\"}");
    assert!(ctl.recv().contains("\"ok\":true"));
    daemon.join().expect("clean shutdown");
}

/// The armor ledger's full wire form, pinned against a golden file: a
/// fixed script exercises tenant attribution, a cache hit, a malformed
/// line, and an oversized line, and the resulting `stats` reply must
/// not drift by a byte. Regenerate with `UPDATE_GOLDEN=1`.
#[test]
fn stats_reply_matches_the_golden_ledger() {
    let daemon = spawn_daemon(
        2,
        DaemonOptions {
            max_conns: 2,
            max_line_bytes: 512,
            ..DaemonOptions::default()
        },
    );
    let addr = daemon.addr();

    let mut c0 = Conn::open(addr);
    c0.send("{\"control\":\"tenant\",\"tenant\":\"acme\"}");
    assert!(c0.recv().contains("\"ok\":true"));
    c0.send(&req("g0", 6).to_json().to_string());
    assert!(c0.recv().contains("\"status\":\"ok\""));
    c0.send("{oops");
    assert!(c0.recv().contains("\"error\":\"bad-request\""));
    drop(c0);

    let mut c1 = Conn::open(addr);
    c1.send(&"x".repeat(600));
    assert!(c1.recv().contains("\"error\":\"line-too-long\""));
    c1.send(&req("g1", 6).to_json().to_string());
    assert!(c1.recv().contains("\"cache\":\"hit\""));
    drop(c1);

    let mut c2 = Conn::open(addr);
    c2.send("{\"control\":\"stats\"}");
    let rendered = format!("{}\n", c2.recv());

    let golden_path = "tests/golden/daemon_stats.txt";
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).expect("write golden");
    } else {
        let want = std::fs::read_to_string(golden_path)
            .expect("golden file exists (regenerate with UPDATE_GOLDEN=1)");
        assert_eq!(
            rendered, want,
            "stats ledger drifted from {golden_path}; regenerate with UPDATE_GOLDEN=1"
        );
    }

    c2.send("{\"control\":\"shutdown\"}");
    assert!(c2.recv().contains("\"ok\":true"));
    daemon.join().expect("clean shutdown");
}
