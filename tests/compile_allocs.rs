//! Heap allocations of the front end: `parse_program` plus `compile`
//! of every shipped program, at the size the `kernels` benchmark
//! compiles it with, must stay under a pinned bound.
//!
//! A counting global allocator tallies `alloc` and `realloc` calls per
//! thread, so the harness's own threads do not add to the count. The
//! counts are deterministic; each bound is the count measured when the
//! front end last shrank, plus 10%. A change that allocates more has to
//! raise a bound here, on purpose.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hac_core::pipeline::{compile, CompileOptions};
use hac_lang::env::ConstEnv;
use hac_lang::parser::parse_program;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a plain thread-local cell that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `(name, source, n, bound on the allocations of parse + compile)`.
const PROGRAMS: [(&str, &str, i64, u64); 7] = [
    ("dot", include_str!("../programs/dot.hac"), 65536, 638),
    ("jacobi", include_str!("../programs/jacobi.hac"), 512, 621),
    ("matmul", include_str!("../programs/matmul.hac"), 48, 1540),
    ("matvec", include_str!("../programs/matvec.hac"), 256, 1088),
    ("sor", include_str!("../programs/sor.hac"), 256, 742),
    (
        "tridiag",
        include_str!("../programs/tridiag.hac"),
        65536,
        1438,
    ),
    (
        "wavefront",
        include_str!("../programs/wavefront.hac"),
        256,
        1028,
    ),
];

fn front_end_allocs(source: &str, n: i64) -> u64 {
    let env = ConstEnv::from_pairs([("n", n)]);
    let options = CompileOptions::default();
    let before = ALLOCS.with(Cell::get);
    let program = parse_program(source).unwrap();
    let compiled = compile(&program, &env, &options).unwrap();
    let after = ALLOCS.with(Cell::get);
    drop((program, compiled));
    after - before
}

#[test]
fn front_end_allocations_stay_under_their_bounds() {
    let mut over = Vec::new();
    for (name, source, n, bound) in PROGRAMS {
        let count = front_end_allocs(source, n);
        assert_eq!(
            count,
            front_end_allocs(source, n),
            "{name}: not deterministic"
        );
        println!("{name}: {count} allocations (bound {bound})");
        if count > bound {
            over.push(format!("{name}: {count} > {bound}"));
        }
    }
    assert!(over.is_empty(), "over budget: {over:?}");
}
