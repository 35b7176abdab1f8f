//! The deterministic serve simulator: randomly generated multi-tenant
//! workloads — N tenants with assorted weights sending mixes of the
//! `programs/*.hac` kernels, some comfortably budgeted, some starved —
//! are pushed through every serving path the crate offers:
//!
//!   (a) sequential `Server::handle` calls in the scheduler's
//!       predicted admission order,
//!   (b) `Server::run_batch` at 1, 2, 4, and 8 workers,
//!   (c) the TCP daemon over a loopback socket.
//!
//! Every path must produce **bit-identical responses** per request —
//! status, cache hit/miss, answer digest, remaining fuel, fault and
//! work counters, admission ordinal — and the batch path's *realized*
//! admission order must equal `Server::predicted_order`. Nothing here
//! reads a clock: the whole simulation is a pure function of the
//! proptest seed.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use hac::serve::daemon::{self, DaemonOptions};
use hac::serve::ledger::Counter;
use hac::serve::{Request, Response, ServeOptions, Server};
use hac_workloads::XorShift;
use proptest::prelude::*;

const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// The kernel menu: every `programs/*.hac` file, with a size range
/// each stays cheap in.
struct Kernel {
    path: &'static str,
    n_lo: i64,
    n_hi: i64,
}

const KERNELS: [Kernel; 3] = [
    Kernel {
        path: "programs/wavefront.hac",
        n_lo: 4,
        n_hi: 9,
    },
    Kernel {
        path: "programs/tridiag.hac",
        n_lo: 4,
        n_hi: 16,
    },
    Kernel {
        path: "programs/sor.hac",
        n_lo: 4,
        n_hi: 8,
    },
];

/// Generate one workload: up to 4 tenants with weights 1..=5, 6..=14
/// requests mixing kernels, parameters, seeds, and budgets. Roughly a
/// quarter of the requests are starved (single-digit fuel, guaranteed
/// `limit`), and one request in each workload is a compile error, so
/// every status class flows through every path.
fn workload(seed: u64, sources: &[String; 3]) -> Vec<Request> {
    let mut rng = XorShift::new(seed | 1);
    let tenant_count = 1 + (rng.next_u64() % 4) as usize;
    let tenants: Vec<(String, u64)> = (0..tenant_count)
        .map(|t| (format!("tenant-{t}"), 1 + rng.next_u64() % 5))
        .collect();
    let count = 6 + (rng.next_u64() % 9) as usize;
    let broken_at = rng.next_u64() % count as u64;
    (0..count)
        .map(|i| {
            let (tenant, weight) = &tenants[(rng.next_u64() % tenant_count as u64) as usize];
            let which = (rng.next_u64() % 3) as usize;
            let k = &KERNELS[which];
            let mut req = if i as u64 == broken_at {
                Request::new(format!("r{i}"), "param n;\nlet a = ")
            } else {
                Request::new(format!("r{i}"), &sources[which])
            };
            req.params.push((
                "n".to_string(),
                k.n_lo + (rng.next_u64() % (k.n_hi - k.n_lo + 1) as u64) as i64,
            ));
            // Keep seeds under 2^32: the wire format carries them as
            // f64 and the round-trip must be exact.
            req.seed = rng.next_u64() % (1 << 32);
            req.fuel = if rng.next_u64().is_multiple_of(4) {
                Some(3 + rng.next_u64() % 15) // starved: exhausts mid-run
            } else {
                Some(100_000) // comfortable
            };
            req.tenant = Some(tenant.clone());
            req.weight = Some(*weight);
            req
        })
        .collect()
}

fn server() -> Server {
    // Uncapped ceiling: per-request budgets decide every outcome, so
    // outcomes are independent of sibling scheduling and the parity
    // assertion is exact.
    Server::new(ServeOptions::default())
}

/// A response collapsed to its wire line — covers every field the
/// protocol exposes, including ordinal, cache verdict, and digests.
fn line(resp: &Response) -> String {
    resp.to_json().to_string()
}

/// Path (a): fresh server, sequential `handle` in predicted order.
/// Returns wire lines indexed by the request's position in `reqs`.
fn run_sequential(reqs: &[Request]) -> Vec<String> {
    let order = Server::predicted_order(reqs);
    let server = server();
    let mut out = vec![String::new(); reqs.len()];
    for &i in &order {
        out[i] = line(&server.handle(&reqs[i]));
    }
    out
}

/// Path (c): daemon over a loopback socket, one connection, requests
/// written in predicted order. Returns wire lines by request position.
fn run_daemon(reqs: &[Request]) -> Vec<String> {
    run_daemon_with(server(), reqs)
}

fn run_daemon_with(server: Server, reqs: &[Request]) -> Vec<String> {
    let order = Server::predicted_order(reqs);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let daemon = daemon::spawn(
        Arc::new(server),
        listener,
        DaemonOptions {
            max_conns: 2,
            ..DaemonOptions::default()
        },
    )
    .expect("spawn daemon");
    let stream = TcpStream::connect(daemon.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut out_stream = stream;
    let mut out = vec![String::new(); reqs.len()];
    for &i in &order {
        writeln!(out_stream, "{}", reqs[i].to_json()).expect("send");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("recv");
        out[i] = resp.trim_end().to_string();
    }
    out_stream
        .write_all(b"{\"control\":\"shutdown\"}\n")
        .expect("send shutdown");
    let mut ack = String::new();
    reader.read_line(&mut ack).expect("shutdown ack");
    assert!(ack.contains(r#""ok":true"#), "clean shutdown ack: {ack}");
    drop(out_stream);
    daemon.join().expect("daemon exits cleanly");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn all_serving_paths_agree_request_by_request(seed in any::<u64>()) {
        let sources: [String; 3] = [
            std::fs::read_to_string(KERNELS[0].path).expect("wavefront.hac"),
            std::fs::read_to_string(KERNELS[1].path).expect("tridiag.hac"),
            std::fs::read_to_string(KERNELS[2].path).expect("sor.hac"),
        ];
        let reqs = workload(seed, &sources);
        let predicted = Server::predicted_order(&reqs);
        let want = run_sequential(&reqs);

        // (b) run_batch at every worker count: responses (returned in
        // input order) must be bit-identical to the sequential path,
        // and the realized admission order — the requests sorted by
        // their stamped ordinals — must equal the prediction.
        for workers in WORKERS {
            let srv = server();
            let out = srv.run_batch(&reqs, workers);
            for (i, resp) in out.iter().enumerate() {
                prop_assert_eq!(
                    &line(resp), &want[i],
                    "seed {}: batch@{} request {} diverged from sequential",
                    seed, workers, reqs[i].id
                );
            }
            let mut realized: Vec<usize> = (0..reqs.len()).collect();
            realized.sort_by_key(|&i| out[i].admitted.expect("every response is stamped"));
            prop_assert_eq!(
                &realized, &predicted,
                "seed {}: batch@{} realized admission order vs predicted", seed, workers
            );
        }

        // (c) the daemon path speaks the same lines over TCP.
        let daemon_lines = run_daemon(&reqs);
        for (i, got) in daemon_lines.iter().enumerate() {
            prop_assert_eq!(
                got, &want[i],
                "seed {}: daemon request {} diverged from sequential", seed, reqs[i].id
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Overload shedding is part of the simulator contract: with a
    /// watermark armed, `run_batch` sheds exactly the requests
    /// `Server::predicted_schedule` says it will (`overloaded` status,
    /// clock-free `retry_after_ops` hint equal to the survivors' total
    /// fuel), and every survivor's response is byte-identical to a
    /// batch in which the shed requests never arrived at all.
    #[test]
    fn shedding_matches_the_prediction_and_spares_survivors_byte_for_byte(seed in any::<u64>()) {
        let sources: [String; 3] = [
            std::fs::read_to_string(KERNELS[0].path).expect("wavefront.hac"),
            std::fs::read_to_string(KERNELS[1].path).expect("tridiag.hac"),
            std::fs::read_to_string(KERNELS[2].path).expect("sor.hac"),
        ];
        let reqs = workload(seed, &sources);
        let watermark = reqs.len() / 2 + 1;
        let schedule = hac::serve::Server::predicted_schedule(&reqs, watermark);
        prop_assert_eq!(
            schedule.shed.len(), reqs.len() - watermark,
            "seed {}: shed down to exactly the watermark", seed
        );
        let backlog: u64 = schedule.order.iter().map(|&i| reqs[i].fuel.unwrap_or(0)).sum();
        let kept: Vec<Request> = (0..reqs.len())
            .filter(|i| !schedule.shed.contains(i))
            .map(|i| reqs[i].clone())
            .collect();

        for workers in WORKERS {
            let srv = Server::new(ServeOptions {
                shed_watermark: watermark,
                ..ServeOptions::default()
            });
            let out = srv.run_batch(&reqs, workers);
            for &i in &schedule.shed {
                prop_assert_eq!(
                    out[i].status, hac::serve::Status::Overloaded,
                    "seed {}: batch@{} request {} predicted shed", seed, workers, reqs[i].id
                );
                prop_assert_eq!(
                    out[i].retry_after_ops, Some(backlog),
                    "seed {}: batch@{} shed hint for {}", seed, workers, reqs[i].id
                );
            }
            prop_assert_eq!(srv.ledger().get(Counter::Shed), schedule.shed.len() as u64);

            // Survivors must be untouched by the sheds: byte-identical
            // to a fresh batch of only the survivors.
            let srv2 = Server::new(ServeOptions {
                shed_watermark: watermark,
                ..ServeOptions::default()
            });
            let kept_out = srv2.run_batch(&kept, workers);
            let mut k = 0;
            for i in 0..reqs.len() {
                if schedule.shed.contains(&i) {
                    continue;
                }
                prop_assert_eq!(
                    &line(&out[i]), &line(&kept_out[k]),
                    "seed {}: batch@{} survivor {} perturbed by sheds",
                    seed, workers, reqs[i].id
                );
                k += 1;
            }

            // Realized admission order over the survivors equals the
            // watermarked prediction.
            let mut realized: Vec<usize> = schedule.order.clone();
            realized.sort_by_key(|&i| out[i].admitted.expect("survivors are stamped"));
            prop_assert_eq!(
                &realized, &schedule.order,
                "seed {}: batch@{} realized survivor order vs predicted", seed, workers
            );
        }
    }
}

/// Sliding-parameter workload over the bigupd-rooted poke kernels:
/// the first three requests pin a (miss, hit, delta) prelude, then a
/// random tail mixes exact repeats (hits), slides of the update-only
/// parameters (deltas), and fresh mesh sizes (misses). Budgets are
/// ample and the ceiling uncapped, so the realized classification is
/// exactly `Server::predicted_result_classes`.
fn sliding_workload(seed: u64, poke_src: &str, band_src: &str) -> Vec<Request> {
    let mut rng = XorShift::new(seed | 1);
    let poke = |id: String, n: i64, ui: i64, uj: i64, uv: i64| {
        let mut r = Request::new(id, poke_src);
        r.params = vec![
            ("n".to_string(), n),
            ("ui".to_string(), ui),
            ("uj".to_string(), uj),
            ("uv".to_string(), uv),
        ];
        r
    };
    let band = |id: String, n: i64, lo: i64, hi: i64, uv: i64| {
        let mut r = Request::new(id, band_src);
        r.params = vec![
            ("n".to_string(), n),
            ("lo".to_string(), lo),
            ("hi".to_string(), hi),
            ("uv".to_string(), uv),
        ];
        r
    };
    let mut reqs = vec![
        poke("p0".to_string(), 6, 3, 4, 55), // cold: miss
        poke("p1".to_string(), 6, 3, 4, 55), // exact repeat: hit
        poke("p2".to_string(), 6, 2, 5, 99), // slid poke: delta
    ];
    let count = 5 + (rng.next_u64() % 8) as usize;
    for i in 0..count {
        let r = match rng.next_u64() % 4 {
            0 => poke(format!("t{i}"), 6, 3, 4, 55), // repeat of the prelude
            1 => poke(
                format!("t{i}"),
                6,
                1 + (rng.next_u64() % 6) as i64,
                1 + (rng.next_u64() % 6) as i64,
                (rng.next_u64() % 100) as i64,
            ),
            2 => band(
                format!("t{i}"),
                8,
                1 + (rng.next_u64() % 8) as i64,
                1 + (rng.next_u64() % 8) as i64,
                (rng.next_u64() % 100) as i64,
            ),
            // A fresh mesh size starts a new family: always a miss.
            _ => poke(format!("t{i}"), 4 + (rng.next_u64() % 5) as i64, 2, 2, 7),
        };
        reqs.push(r);
    }
    reqs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Incremental serving rides the same simulator contract: under a
    /// repeated-and-sliding-parameter workload, sequential `handle`,
    /// `run_batch` at every worker count, and the loopback daemon all
    /// speak byte-identical lines (which now carry `result_cache` and
    /// `delta_elems`), and the classification each request realizes
    /// equals the pure prediction.
    #[test]
    fn sliding_workloads_classify_identically_on_every_path(seed in any::<u64>()) {
        let poke_src = std::fs::read_to_string("programs/incremental/jacobi_poke.hac").expect("jacobi_poke");
        let band_src = std::fs::read_to_string("programs/incremental/band_poke.hac").expect("band_poke");
        let reqs = sliding_workload(seed, &poke_src, &band_src);
        let options = ServeOptions::default();

        let predicted = Server::predicted_result_classes(&options, &reqs);
        prop_assert_eq!(predicted[0], Some(hac::serve::ResultClass::Miss));
        prop_assert_eq!(predicted[1], Some(hac::serve::ResultClass::Hit));
        prop_assert_eq!(predicted[2], Some(hac::serve::ResultClass::Delta));

        // Path (a), collecting classifications alongside wire lines.
        let order = Server::predicted_order(&reqs);
        let srv = Server::new(options.clone());
        let mut want = vec![String::new(); reqs.len()];
        let mut realized = vec![None; reqs.len()];
        for &i in &order {
            let resp = srv.handle(&reqs[i]);
            realized[i] = resp.result_cache;
            want[i] = line(&resp);
        }
        prop_assert_eq!(&realized, &predicted, "seed {}: realized vs predicted classes", seed);

        for workers in WORKERS {
            let srv = Server::new(options.clone());
            let out = srv.run_batch(&reqs, workers);
            for (i, resp) in out.iter().enumerate() {
                prop_assert_eq!(
                    &line(resp), &want[i],
                    "seed {}: batch@{} request {} diverged from sequential",
                    seed, workers, reqs[i].id
                );
            }
            // The result-cache ledger reconciles with the responses:
            // every lookup realized exactly one class, and each class
            // counter is the number of responses reporting it.
            let l = srv.ledger();
            let classes = [
                (hac::serve::ResultClass::Hit, Counter::ResultHits),
                (hac::serve::ResultClass::Delta, Counter::ResultDeltas),
                (hac::serve::ResultClass::Miss, Counter::ResultMisses),
            ];
            let realized: u64 = classes.iter().map(|&(_, c)| l.get(c)).sum();
            prop_assert_eq!(
                l.get(Counter::ResultLookups), realized,
                "seed {}: batch@{} lookups vs hits + deltas + misses", seed, workers
            );
            for (class, counter) in classes {
                let n = out.iter().filter(|r| r.result_cache == Some(class)).count() as u64;
                prop_assert_eq!(
                    l.get(counter), n,
                    "seed {}: batch@{} {} counter vs responses", seed, workers, class.as_str()
                );
            }
        }

        let daemon_lines = run_daemon_with(Server::new(options), &reqs);
        for (i, got) in daemon_lines.iter().enumerate() {
            prop_assert_eq!(
                got, &want[i],
                "seed {}: daemon request {} diverged from sequential", seed, reqs[i].id
            );
        }
    }
}

/// The daemon's per-connection tenant attribution: a connection that
/// declares `{"control":"tenant",...}` stamps that tenant onto every
/// later request that names none of its own, and `{"control":"stats"}`
/// reports the served counts per tenant.
#[test]
fn daemon_attributes_untagged_requests_to_the_connection_tenant() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let daemon = daemon::spawn(Arc::new(server()), listener, DaemonOptions::default())
        .expect("spawn daemon");
    let stream = TcpStream::connect(daemon.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut out = stream;
    let mut recv = || {
        let mut s = String::new();
        reader.read_line(&mut s).expect("recv");
        s
    };

    out.write_all(b"{\"control\":\"tenant\",\"tenant\":\"acme\"}\n")
        .unwrap();
    assert!(recv().contains(r#""ok":true"#));

    let src = std::fs::read_to_string("programs/wavefront.hac").unwrap();
    let mut req = Request::new("conn-default", &src);
    req.params.push(("n".to_string(), 4));
    writeln!(out, "{}", req.to_json()).unwrap();
    let resp = recv();
    assert!(
        resp.contains(r#""tenant":"acme""#),
        "connection tenant applied: {resp}"
    );

    // An explicit tenant on the request wins over the connection's.
    req.id = "explicit".to_string();
    req.tenant = Some("globex".to_string());
    writeln!(out, "{}", req.to_json()).unwrap();
    let resp = recv();
    assert!(
        resp.contains(r#""tenant":"globex""#),
        "request tenant wins: {resp}"
    );

    out.write_all(b"{\"control\":\"stats\"}\n").unwrap();
    let stats = recv();
    assert!(
        stats.contains(r#""acme":1"#) && stats.contains(r#""globex":1"#),
        "per-tenant counts: {stats}"
    );

    out.write_all(b"{\"control\":\"shutdown\"}\n").unwrap();
    assert!(recv().contains(r#""ok":true"#));
    daemon.join().expect("clean shutdown");
}

/// The bounded accept loop: more concurrent connections than
/// `max_conns` all still get served (excess waits in the backlog), and
/// the daemon drains them before shutting down.
#[test]
fn daemon_serves_more_connections_than_slots() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let daemon = daemon::spawn(
        Arc::new(server()),
        listener,
        DaemonOptions {
            max_conns: 2,
            ..DaemonOptions::default()
        },
    )
    .expect("spawn daemon");
    let addr = daemon.addr();
    let src = std::fs::read_to_string("programs/wavefront.hac").unwrap();

    let digests: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|c| {
                let src = &src;
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    let mut out = stream;
                    let mut req = Request::new(format!("conn{c}"), src);
                    req.params.push(("n".to_string(), 6));
                    writeln!(out, "{}", req.to_json()).expect("send");
                    let mut resp = String::new();
                    reader.read_line(&mut resp).expect("recv");
                    assert!(resp.contains(r#""status":"ok""#), "conn {c}: {resp}");
                    let key = r#""answer_digest":""#;
                    let at = resp.find(key).expect("digest present") + key.len();
                    resp[at..at + 16].to_string()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Same program, same params: every connection saw the same answer.
    assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:?}");

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut out = stream;
    out.write_all(b"{\"control\":\"shutdown\"}\n").unwrap();
    let mut ack = String::new();
    reader.read_line(&mut ack).expect("ack");
    assert!(ack.contains(r#""ok":true"#));
    daemon.join().expect("clean shutdown");
}
