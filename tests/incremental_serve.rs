//! The incremental-serving differential oracle: every response the
//! materialized-result cache produces — memoized hits and `bigupd`
//! delta recomputations alike — must be **byte-identical** (answer
//! digest, work-counter digest, remaining fuel, error class and text)
//! to a cold full recomputation of the same request on a cache-disabled
//! server, across every engine, thread count, and fusion mode:
//!
//!   * the (cold, warm hit, warm delta) triple for each bigupd-rooted
//!     `programs/*.hac` kernel, over treewalk plus tape × threads
//!     {1, 2, 4, 8}, × {fuse, no-fuse};
//!   * fuel and memory limit ladders: exhaustion mid-delta must fall
//!     back to the metered full run and reproduce the cold error
//!     byte-for-byte;
//!   * proptest-driven random update sets — empty bands, single pokes,
//!     overlapping (colliding) clauses, and out-of-footprint writes —
//!     against a fresh full-recompute oracle per request;
//!   * a golden file pinning the daemon's `result_cache` stats ledger
//!     (`tests/golden/result_cache_stats.txt`, regenerate with
//!     `UPDATE_GOLDEN=1`).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use hac::core::pipeline::Engine;
use hac::serve::daemon::{self, DaemonOptions};
use hac::serve::{Request, Response, ResultClass, ServeOptions, Server, Status};
use hac_workloads::XorShift;
use proptest::prelude::*;

/// The engine × threads matrix: the tree-walk oracle on one worker,
/// then the tape engine at every thread count.
const MATRIX: [(Engine, usize); 5] = [
    (Engine::TreeWalk, 1),
    (Engine::Tape, 1),
    (Engine::Tape, 2),
    (Engine::Tape, 4),
    (Engine::Tape, 8),
];

/// One bigupd-rooted kernel with a base parameter set and a "slide"
/// that differs only in update-only parameters (for `sor.hac` no such
/// parameters exist, so the slide repeats the base and the warm path
/// serves a plain hit instead of a delta).
struct Prog {
    path: &'static str,
    base: &'static [(&'static str, i64)],
    slide: &'static [(&'static str, i64)],
    delta_capable: bool,
    /// Full element count of the result — `delta_elems` may never
    /// exceed it.
    max_elems: u64,
}

const PROGS: [Prog; 3] = [
    Prog {
        path: "programs/incremental/jacobi_poke.hac",
        base: &[("n", 6), ("ui", 3), ("uj", 4), ("uv", 55)],
        slide: &[("n", 6), ("ui", 2), ("uj", 5), ("uv", 99)],
        delta_capable: true,
        max_elems: 36,
    },
    Prog {
        path: "programs/incremental/band_poke.hac",
        base: &[("n", 8), ("lo", 3), ("hi", 5), ("uv", 70)],
        slide: &[("n", 8), ("lo", 2), ("hi", 7), ("uv", 10)],
        delta_capable: true,
        max_elems: 8,
    },
    Prog {
        path: "programs/sor.hac",
        base: &[("n", 6)],
        slide: &[("n", 6)],
        delta_capable: false,
        max_elems: 36,
    },
];

fn opts(engine: Engine, threads: usize, fuse: bool, result_cache_cap: usize) -> ServeOptions {
    ServeOptions {
        engine,
        threads,
        fuse,
        result_cache_cap,
        ..ServeOptions::default()
    }
}

fn request(id: &str, src: &str, params: &[(&str, i64)]) -> Request {
    let mut r = Request::new(id, src);
    for (k, v) in params {
        r.params.push(((*k).to_string(), *v));
    }
    r
}

/// The byte-identity contract: everything except the request identity
/// and the `result_cache`/`delta_elems` classification fields.
fn assert_same_outcome(got: &Response, want: &Response, context: &str) {
    assert_eq!(got.status, want.status, "{context}: status");
    assert_eq!(got.error, want.error, "{context}: error text");
    assert_eq!(
        got.answer_digest, want.answer_digest,
        "{context}: answer digest"
    );
    assert_eq!(
        got.counters_digest, want.counters_digest,
        "{context}: counters digest"
    );
    assert_eq!(got.fuel_left, want.fuel_left, "{context}: remaining fuel");
    assert_eq!(
        got.engine_faults, want.engine_faults,
        "{context}: fault counter"
    );
}

/// The full matrix: (cold miss, warm hit, warm delta) per kernel, per
/// engine, per thread count, fused and unfused — the warm responses
/// must be byte-identical to a cache-disabled server's cold runs.
#[test]
fn warm_serving_is_byte_identical_to_cold_across_engines_threads_and_fusion() {
    for prog in &PROGS {
        let src = std::fs::read_to_string(prog.path).expect(prog.path);
        for (engine, threads) in MATRIX {
            for fuse in [true, false] {
                let ctx = format!("{} {engine:?} t{threads} fuse={fuse}", prog.path);
                let warm = Server::new(opts(engine, threads, fuse, 256));
                let cold = Server::new(opts(engine, threads, fuse, 0));

                let base_cold = cold.handle(&request("base", &src, prog.base));
                assert_eq!(base_cold.status, Status::Ok, "{ctx}: {:?}", base_cold.error);
                assert_eq!(base_cold.result_cache, None, "{ctx}: cap 0 bypasses");

                let miss = warm.handle(&request("miss", &src, prog.base));
                assert_eq!(miss.result_cache, Some(ResultClass::Miss), "{ctx}");
                assert_same_outcome(&miss, &base_cold, &format!("{ctx}: miss vs cold"));

                let hit = warm.handle(&request("hit", &src, prog.base));
                assert_eq!(hit.result_cache, Some(ResultClass::Hit), "{ctx}");
                assert_eq!(hit.delta_elems, None, "{ctx}");
                assert_same_outcome(&hit, &base_cold, &format!("{ctx}: hit vs cold"));

                let slide_cold = cold.handle(&request("slide-cold", &src, prog.slide));
                let slide = warm.handle(&request("slide", &src, prog.slide));
                if prog.delta_capable {
                    assert_eq!(slide.result_cache, Some(ResultClass::Delta), "{ctx}");
                    let elems = slide.delta_elems.expect("delta carries its dirty count");
                    assert!(
                        elems <= prog.max_elems,
                        "{ctx}: delta_elems {elems} > {}",
                        prog.max_elems
                    );
                } else {
                    assert_eq!(slide.result_cache, Some(ResultClass::Hit), "{ctx}");
                }
                assert_same_outcome(&slide, &slide_cold, &format!("{ctx}: delta vs cold"));
            }
        }
    }
}

/// Fuel and memory ladders: the same sliding request is served warm
/// (after a generously-budgeted family fill) and cold, under budgets
/// from certainly-exhausting to comfortable. Exhaustion mid-delta must
/// fall back to the metered full run, so status, error text, and
/// remaining fuel match the cold run at every rung.
#[test]
fn limit_ladders_match_cold_outcomes_byte_for_byte() {
    for prog in &PROGS[..2] {
        let src = std::fs::read_to_string(prog.path).expect(prog.path);
        for fuel in [0u64, 1, 2, 4, 8, 12, 20, 40, 100, 10_000] {
            let warm = Server::new(opts(Engine::Tape, 2, true, 256));
            let mut fill = request("fill", &src, prog.base);
            fill.fuel = Some(10_000);
            assert_eq!(warm.handle(&fill).status, Status::Ok, "{}", prog.path);
            let mut tight = request("tight", &src, prog.slide);
            tight.fuel = Some(fuel);
            let w = warm.handle(&tight);

            let cold = Server::new(opts(Engine::Tape, 2, true, 0));
            let mut ctl = request("ctl", &src, prog.slide);
            ctl.fuel = Some(fuel);
            let c = cold.handle(&ctl);
            assert_same_outcome(&w, &c, &format!("{} fuel={fuel}", prog.path));
        }
        for mem in [64u64, 256, 1024, 4096, 1 << 20] {
            let warm = Server::new(opts(Engine::Tape, 2, true, 256));
            let mut fill = request("fill", &src, prog.base);
            fill.mem_bytes = Some(1 << 20);
            warm.handle(&fill);
            let mut tight = request("tight", &src, prog.slide);
            tight.mem_bytes = Some(mem);
            let w = warm.handle(&tight);

            let cold = Server::new(opts(Engine::Tape, 2, true, 0));
            let mut ctl = request("ctl", &src, prog.slide);
            ctl.mem_bytes = Some(mem);
            let c = cold.handle(&ctl);
            assert_same_outcome(&w, &c, &format!("{} mem={mem}", prog.path));
        }
    }
}

/// Overlapping update clauses write the same cell twice. Whatever the
/// pipeline decides (a certain-collision compile error, per the
/// paper's semantics), the warm server must decide it identically.
#[test]
fn duplicate_coordinate_updates_match_cold_decisions() {
    let src = "param n; param lo; param uv;\n\
        input u (1,n);\n\
        let v = array (1,n) [ i := (u!i + 1) / 2 | i <- [1..n] ];\n\
        w = bigupd v ([ lo := uv ] ++ [ lo := uv + 1 ]);\n\
        result w;\n";
    let params: &[(&str, i64)] = &[("n", 8), ("lo", 3), ("uv", 9)];
    let warm = Server::new(opts(Engine::Tape, 1, true, 256));
    let cold = Server::new(opts(Engine::Tape, 1, true, 0));
    let c = cold.handle(&request("c", src, params));
    let a = warm.handle(&request("a", src, params));
    let b = warm.handle(&request("b", src, params));
    assert_eq!(a.status, c.status);
    assert_eq!(a.error, c.error);
    assert_eq!(b.status, c.status);
    assert_eq!(b.error, c.error);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random update sets against the full-recompute oracle: one warm
    /// server absorbs a stream of sliding band and point updates —
    /// empty bands (`lo > hi`), single cells, full-array bands, and
    /// out-of-footprint coordinates that must fail with the cold
    /// run's exact bounds error — and every response is checked
    /// against a fresh cache-disabled server.
    #[test]
    fn random_update_sets_match_the_full_recompute_oracle(seed in any::<u64>()) {
        let band = std::fs::read_to_string("programs/incremental/band_poke.hac").expect("band_poke");
        let jacobi = std::fs::read_to_string("programs/incremental/jacobi_poke.hac").expect("jacobi_poke");
        let mut rng = XorShift::new(seed | 1);
        let warm = Server::new(opts(Engine::Tape, 2, true, 256));
        let mut deltas = 0u64;
        for i in 0..12 {
            let r = if rng.next_u64().is_multiple_of(2) {
                // lo/hi in [-1, n+2]: empty, interior, and out of
                // footprint are all reachable.
                let lo = (rng.next_u64() % 10) as i64 - 1;
                let hi = (rng.next_u64() % 10) as i64 - 1;
                let uv = (rng.next_u64() % 100) as i64;
                request(
                    &format!("b{i}"),
                    &band,
                    &[("n", 8), ("lo", lo), ("hi", hi), ("uv", uv)],
                )
            } else {
                let ui = (rng.next_u64() % 8) as i64; // 0..7: 0 is out of bounds
                let uj = (rng.next_u64() % 8) as i64;
                let uv = (rng.next_u64() % 100) as i64;
                request(
                    &format!("j{i}"),
                    &jacobi,
                    &[("n", 6), ("ui", ui), ("uj", uj), ("uv", uv)],
                )
            };
            let w = warm.handle(&r);
            let cold = Server::new(opts(Engine::Tape, 2, true, 0));
            let c = cold.handle(&r);
            prop_assert_eq!(w.status, c.status, "seed {} req {}", seed, r.id);
            prop_assert_eq!(&w.error, &c.error, "seed {} req {}", seed, r.id);
            prop_assert_eq!(&w.answer_digest, &c.answer_digest, "seed {} req {}", seed, r.id);
            prop_assert_eq!(&w.counters_digest, &c.counters_digest, "seed {} req {}", seed, r.id);
            if w.result_cache == Some(ResultClass::Delta) {
                deltas += 1;
                let elems = w.delta_elems.expect("delta carries its dirty count");
                prop_assert!(elems <= 36, "seed {}: delta_elems {} too large", seed, elems);
            }
        }
        // The stream reuses two prefix families across 12 requests:
        // deltas must actually happen or the test is vacuous.
        prop_assert!(deltas >= 1, "seed {}: no deltas exercised", seed);
    }
}

/// The daemon's `result_cache` stats ledger over a fixed loopback
/// script — one miss, one hit, one delta — pinned against a golden
/// file. Regenerate with `UPDATE_GOLDEN=1`.
#[test]
fn daemon_result_cache_ledger_matches_the_golden_file() {
    let src = std::fs::read_to_string("programs/incremental/band_poke.hac").expect("band_poke");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server = Arc::new(Server::new(opts(Engine::Tape, 1, true, 256)));
    let daemon =
        daemon::spawn(Arc::clone(&server), listener, DaemonOptions::default()).expect("spawn");
    let stream = TcpStream::connect(daemon.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut out = stream;
    let mut send_recv = |line: &str| {
        writeln!(out, "{line}").expect("send");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("recv");
        resp.trim_end().to_string()
    };

    let base: &[(&str, i64)] = &[("n", 8), ("lo", 3), ("hi", 5), ("uv", 70)];
    let slide: &[(&str, i64)] = &[("n", 8), ("lo", 2), ("hi", 7), ("uv", 10)];
    let miss = send_recv(&request("m", &src, base).to_json().to_string());
    assert!(miss.contains(r#""result_cache":"miss""#), "{miss}");
    let hit = send_recv(&request("h", &src, base).to_json().to_string());
    assert!(hit.contains(r#""result_cache":"hit""#), "{hit}");
    let delta = send_recv(&request("d", &src, slide).to_json().to_string());
    assert!(delta.contains(r#""result_cache":"delta""#), "{delta}");
    assert!(delta.contains(r#""delta_elems":6"#), "{delta}");

    let stats = send_recv("{\"control\":\"stats\"}");
    let key = "\"result_cache\":";
    let at = stats.find(key).expect("stats carry a result_cache section") + key.len();
    let end = stats[at..].find('}').expect("object closes") + at + 1;
    let rendered = format!("{}\n", &stats[at..end]);

    let golden_path = "tests/golden/result_cache_stats.txt";
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).expect("write golden");
    } else {
        let want = std::fs::read_to_string(golden_path)
            .expect("golden file exists (regenerate with UPDATE_GOLDEN=1)");
        assert_eq!(
            rendered, want,
            "result-cache ledger drifted from {golden_path}; regenerate with UPDATE_GOLDEN=1"
        );
    }

    assert!(send_recv("{\"control\":\"shutdown\"}").contains(r#""ok":true"#));
    daemon.join().expect("clean shutdown");
}
