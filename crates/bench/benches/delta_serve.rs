//! E26 — incremental serving: full recomputation vs memoized hit vs
//! `bigupd` delta recomputation.
//!
//! Three request streams. `full` and `delta` both slide the update
//! value every iteration — a slid parameter is a fresh compile
//! environment, so both streams pay parse + compile per request and
//! the measured gap is exactly the execution work the delta path
//! avoids. `hit` repeats one request verbatim; the hit route resolves
//! on the result key alone (a source/param/limit digest), before any
//! parse or compile, so it prices the cache-lookup floor.
//!
//!   * `full`  — result caching disabled (`result_cache_cap: 0`):
//!     every slid request re-fills inputs and re-runs the whole
//!     pipeline cold.
//!   * `hit`   — the identical request repeated against a warm cache:
//!     admission plus one cache probe, no parse, no execution.
//!   * `delta` — slid requests against a warm family snapshot: the
//!     server clones the cached prefix state and replays only the
//!     trailing update.
//!
//! A second group scales the update-set size: a band update over an
//! n=32768 vector at widths 1..n, against the cold recomputation of
//! the same slid request. Delta cost = compile + snapshot clone
//! (O(n) memcpy) + dirty-element replay (O(width)), so the curve
//! flattens toward `full` as the band approaches the whole array.

use criterion::{criterion_group, criterion_main, Criterion};
use hac_serve::{Request, ResultClass, ServeOptions, Server};

const JACOBI_N: i64 = 256;
const BAND_N: i64 = 32768;
const WIDTHS: [i64; 4] = [1, 256, 4096, 32768];

const JACOBI_SRC: &str = include_str!("../../../programs/incremental/jacobi_poke.hac");
const BAND_SRC: &str = include_str!("../../../programs/incremental/band_poke.hac");

fn opts(result_cache_cap: usize) -> ServeOptions {
    ServeOptions {
        result_cache_cap,
        ..ServeOptions::default()
    }
}

fn poke(id: &str, uv: i64) -> Request {
    let mut r = Request::new(id, JACOBI_SRC);
    r.params = vec![
        ("n".to_string(), JACOBI_N),
        ("ui".to_string(), JACOBI_N / 2),
        ("uj".to_string(), JACOBI_N / 2),
        ("uv".to_string(), uv),
    ];
    r
}

fn band(id: &str, width: i64, uv: i64) -> Request {
    let mut r = Request::new(id, BAND_SRC);
    r.params = vec![
        ("n".to_string(), BAND_N),
        ("lo".to_string(), 1),
        ("hi".to_string(), width),
        ("uv".to_string(), uv),
    ];
    r
}

fn bench_delta_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("delta_serve");

    // Point poke on a 256×256 stencil: full vs hit vs delta.
    {
        let full_srv = Server::new(opts(0));
        assert_eq!(full_srv.handle(&poke("seed", 7)).status.as_str(), "ok");
        let mut uv = 8i64;
        group.bench_function("full/jacobi256", |b| {
            b.iter(|| {
                uv += 1;
                full_srv.handle(&poke("f", uv))
            })
        });

        let hit_srv = Server::new(opts(256));
        let r = poke("h", 7);
        assert_eq!(hit_srv.handle(&r).result_cache, Some(ResultClass::Miss));
        assert_eq!(hit_srv.handle(&r).result_cache, Some(ResultClass::Hit));
        group.bench_function("hit/jacobi256", |b| b.iter(|| hit_srv.handle(&r)));

        let delta_srv = Server::new(opts(256));
        assert_eq!(
            delta_srv.handle(&poke("seed", 7)).result_cache,
            Some(ResultClass::Miss)
        );
        let probe = delta_srv.handle(&poke("probe", 8));
        assert_eq!(probe.result_cache, Some(ResultClass::Delta));
        assert_eq!(probe.delta_elems, Some(1));
        let mut uv = 9i64;
        group.bench_function("delta/jacobi256", |b| {
            b.iter(|| {
                uv += 1;
                delta_srv.handle(&poke("d", uv))
            })
        });
    }

    // Band update on an n=32768 vector: delta cost vs update-set size.
    {
        let full_srv = Server::new(opts(0));
        assert_eq!(
            full_srv.handle(&band("seed", BAND_N, 7)).status.as_str(),
            "ok"
        );
        let mut uv = 8i64;
        group.bench_function(format!("band_full/{BAND_N}"), |b| {
            b.iter(|| {
                uv += 1;
                full_srv.handle(&band("f", BAND_N, uv))
            })
        });

        for width in WIDTHS {
            let srv = Server::new(opts(256));
            assert_eq!(
                srv.handle(&band("seed", width, 7)).result_cache,
                Some(ResultClass::Miss)
            );
            let probe = srv.handle(&band("probe", width, 8));
            assert_eq!(probe.result_cache, Some(ResultClass::Delta));
            assert_eq!(probe.delta_elems, Some(width as u64));
            let mut uv = 9i64;
            group.bench_function(format!("band_delta/{width}"), |b| {
                b.iter(|| {
                    uv += 1;
                    srv.handle(&band("d", width, uv))
                })
            });
        }
    }

    group.finish();
}

criterion_group!(benches, bench_delta_serve);
criterion_main!(benches);
