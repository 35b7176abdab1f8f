//! The bounded program cache's ledger, under fire: random
//! lookup/insert interleavings must keep the reconciliation
//! invariants (`hits + misses == lookups`,
//! `insertions - evictions == live`, `live <= cap`) at *every* step,
//! eviction must be harmless — a re-admitted evicted program answers
//! bit-identically — and the default capacity must actually hold
//! against a flood of unique programs.

use std::sync::Arc;

use hac::core::pipeline::{compile, CompileOptions, Engine, ExecMode};
use hac::lang::env::ConstEnv;
use hac::serve::cache::{ProgramCache, ProgramKey};
use hac::serve::ledger::{Counter, Ledger};
use hac::serve::{Request, ServeOptions, Server, Status, DEFAULT_CACHE_CAP};
use hac_workloads::XorShift;
use proptest::prelude::*;

/// The cheapest compilable program: one 1-element array per unique
/// parameter binding, so thousands of distinct cache keys stay cheap.
const TINY: &str = "param n;\nlet a = array (1,1) [ i := n | i <- [1..1] ];\n";

fn tiny_compiled() -> Arc<hac::core::pipeline::Compiled> {
    let program = hac::lang::parser::parse_program(TINY).unwrap();
    let mut env = ConstEnv::new();
    env.bind("n", 1);
    Arc::new(compile(&program, &env, &CompileOptions::default()).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random op sequences over random capacities: the counters
    /// reconcile and the capacity holds after every single operation,
    /// not just at the end.
    #[test]
    fn cache_ledger_reconciles_at_every_step(seed in any::<u64>()) {
        let mut rng = XorShift::new(seed | 1);
        let cap = (rng.next_u64() % 8) as usize; // includes 0 = unbounded
        let ledger = Arc::new(Ledger::default());
        let mut cache = ProgramCache::new(cap, Arc::clone(&ledger));
        let program = tiny_compiled();
        let source: Arc<str> = Arc::from(TINY);
        let keys: Vec<ProgramKey> = (0..24)
            .map(|n| {
                let params = [("n".to_string(), n)];
                ProgramKey::new(Arc::clone(&source), &params, ExecMode::Auto, Engine::Tape)
            })
            .collect();
        for ordinal in 0..200u64 {
            let key = &keys[(rng.next_u64() % 24) as usize];
            if rng.next_u64().is_multiple_of(2) {
                cache.lookup(key, ordinal);
            } else {
                cache.insert(key.clone(), Arc::clone(&program), ordinal);
            }
            let get = |c| ledger.get(c);
            let live = get(Counter::CacheLive);
            prop_assert_eq!(
                get(Counter::CacheHits) + get(Counter::CacheMisses),
                get(Counter::CacheLookups),
                "seed {}", seed
            );
            prop_assert_eq!(
                get(Counter::CacheInsertions) - get(Counter::CacheEvictions),
                live,
                "seed {}", seed
            );
            prop_assert_eq!(live as usize, cache.len(), "seed {}", seed);
            if cap > 0 {
                prop_assert!(
                    cache.len() <= cap,
                    "seed {}: {} entries over cap {}", seed, cache.len(), cap
                );
            } else {
                prop_assert_eq!(
                    get(Counter::CacheEvictions), 0,
                    "seed {}: unbounded never evicts", seed
                );
            }
        }
    }
}

/// Eviction is never incorrect, only slower: force a program out of a
/// tiny cache, re-admit it, and demand the recompiled run is
/// bit-identical — digest, remaining fuel, counters, verdicts.
#[test]
fn rerunning_an_evicted_program_is_bit_identical() {
    let server = Server::new(ServeOptions {
        cache_cap: 2,
        ..ServeOptions::default()
    });
    let req = |id: &str, n: i64| {
        let mut r = Request::new(id, hac_workloads::wavefront_source());
        r.params.push(("n".to_string(), n));
        r.fuel = Some(10_000);
        r
    };
    let first = server.handle(&req("first", 6));
    assert_eq!(first.status, Status::Ok);
    assert_eq!(first.cache_hit, Some(false));

    // Two different programs push `n=6` out of the 2-entry cache.
    assert_eq!(server.handle(&req("fill1", 7)).status, Status::Ok);
    let fill2 = server.handle(&req("fill2", 8));
    assert_eq!(fill2.status, Status::Ok);
    let evictions = server.ledger().get(Counter::CacheEvictions);
    assert!(
        evictions >= 1,
        "the 2-entry cache evicted: {evictions} eviction(s)"
    );

    let again = server.handle(&req("again", 6));
    assert_eq!(again.cache_hit, Some(false), "n=6 was evicted: recompiles");
    assert_eq!(again.status, first.status);
    assert_eq!(again.answer_digest, first.answer_digest);
    assert_eq!(again.fuel_left, first.fuel_left);
    assert_eq!(again.counters_digest, first.counters_digest);
    assert_eq!(again.verdicts, first.verdicts);
}

/// A starved request exhausts at the identical point before and after
/// its program is evicted and recompiled — the limit path is as
/// deterministic as the success path.
#[test]
fn evicted_limit_outcomes_are_bit_identical_too() {
    let server = Server::new(ServeOptions {
        cache_cap: 1,
        ..ServeOptions::default()
    });
    let starved = || {
        // Gauss–Seidel: its certificate is only an upper bound, so the
        // shortfall is found by the meter mid-run, not at admission.
        let mut r = Request::new("s", hac_workloads::sor_source());
        r.params.push(("n".to_string(), 8));
        r.fuel = Some(17);
        r
    };
    let first = server.handle(&starved());
    assert_eq!(first.status, Status::Limit);
    // Any other program evicts it from the singleton cache.
    let mut other = Request::new("o", TINY);
    other.params.push(("n".to_string(), 3));
    assert_eq!(server.handle(&other).status, Status::Ok);
    let again = server.handle(&starved());
    assert_eq!(again.cache_hit, Some(false));
    assert_eq!(again.fuel_left, first.fuel_left);
    assert_eq!(again.error, first.error);
}

/// The default capacity holds against a flood: ten thousand unique
/// programs leave exactly `DEFAULT_CACHE_CAP` residents, with the
/// ledger accounting for every eviction.
#[test]
fn ten_thousand_unique_programs_hold_the_cache_at_cap() {
    let server = Server::new(ServeOptions::default());
    assert_eq!(server.options().cache_cap, DEFAULT_CACHE_CAP);
    const FLOOD: usize = 10_000;
    let reqs: Vec<Request> = (0..FLOOD)
        .map(|i| {
            // A unique parameter binding is a unique compiled program,
            // hence a unique cache key.
            let mut r = Request::new(format!("u{i}"), TINY);
            r.params.push(("n".to_string(), i as i64));
            r
        })
        .collect();
    let out = server.run_batch(&reqs, 8);
    assert!(out.iter().all(|r| r.status == Status::Ok));
    assert!(out.iter().all(|r| r.cache_hit == Some(false)));
    let l = server.ledger();
    assert_eq!(
        l.get(Counter::CacheLive),
        DEFAULT_CACHE_CAP as u64,
        "held at cap"
    );
    assert_eq!(server.options().cache_cap, DEFAULT_CACHE_CAP);
    assert_eq!(l.get(Counter::CacheInsertions), FLOOD as u64);
    assert_eq!(
        l.get(Counter::CacheEvictions),
        (FLOOD - DEFAULT_CACHE_CAP) as u64
    );
    assert_eq!(l.get(Counter::CacheHits), 0);
    assert_eq!(l.get(Counter::CacheMisses), FLOOD as u64);
}

/// Two requests whose source-and-parameter bytes run together
/// identically: B's source is A's plus the name of A's parameter, and
/// B binds the empty name. They are different programs — B does not
/// compile — so B must get exactly the response it gets on a fresh
/// server, whether or not the result cache is on, while a repeat of A
/// still hits.
#[test]
fn a_source_that_absorbs_a_parameter_name_is_a_different_program() {
    let source = "param n;\nlet a = array (1,n) [ i := i * 2 | i <- [1..n] ];\nresult a;\n-- x";
    let mut a = Request::new("A", source);
    a.params.push(("n".to_string(), 8));
    let mut b = Request::new("B", format!("{source}n"));
    b.params.push((String::new(), 8));
    let unstamped = |resp: &hac::serve::Response| {
        let mut resp = resp.clone();
        resp.admitted = None;
        resp.to_json().to_string()
    };
    for result_cache_cap in [ServeOptions::default().result_cache_cap, 0] {
        let options = ServeOptions {
            result_cache_cap,
            ..ServeOptions::default()
        };
        let server = Server::new(options.clone());
        let first = server.handle(&a);
        assert_eq!(first.status, Status::Ok);
        let shared = server.handle(&b);
        let alone = Server::new(options).handle(&b);
        assert_eq!(alone.status, Status::CompileError);
        assert_eq!(
            unstamped(&shared),
            unstamped(&alone),
            "cap {result_cache_cap}"
        );
        let again = server.handle(&a);
        assert_eq!(again.cache_hit, Some(true), "cap {result_cache_cap}");
        assert_eq!(again.answer_digest, first.answer_digest);
    }
}

/// A parameter given twice binds its last value, so the same bindings
/// in another order are another program: each must get the answer it
/// gets alone.
#[test]
fn a_repeated_parameter_binds_its_last_value_in_the_cache_too() {
    let source = "param n;\nlet a = array (1,n) [ i := i * 2 | i <- [1..n] ];\nresult a;\n";
    let twice = |id: &str, first: i64, last: i64| {
        let mut r = Request::new(id, source);
        r.params = vec![("n".to_string(), first), ("n".to_string(), last)];
        r
    };
    let server = Server::new(ServeOptions::default());
    let four = server.handle(&twice("X", 8, 4));
    let eight = server.handle(&twice("Y", 4, 8));
    let alone = Server::new(ServeOptions::default()).handle(&twice("Y", 4, 8));
    assert_ne!(four.answer_digest, eight.answer_digest);
    assert_eq!(eight.answer_digest, alone.answer_digest);
    assert_eq!(eight.cache_hit, Some(false));
}
