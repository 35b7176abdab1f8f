//! Second round of property tests: multi-dimensional exactness,
//! strided-generator differential testing, graph-algorithm laws, and
//! update-strategy semantic agreement.

use std::collections::HashMap;

use proptest::prelude::*;

use hac_analysis::analyze::analyze_bigupd;
use hac_analysis::direction::{Dir, DirVec};
use hac_analysis::equation::{DimEquation, LoopTerm, UnsharedTerm};
use hac_analysis::exact::{exact_test, ExactResult, Witness};
use hac_analysis::search::TestPolicy;
use hac_codegen::limp::Vm;
use hac_codegen::lower::lower_update;
use hac_core::pipeline::{compile, run, CompileOptions, ExecMode};
use hac_graph::{is_topological, tarjan_scc, topo_sort, DiGraph, NodeId, TopoResult};
use hac_lang::env::ConstEnv;
use hac_lang::number::number_clauses;
use hac_lang::parser::{parse_comp, parse_program};
use hac_runtime::value::{ArrayBuf, FuncTable};
use hac_schedule::split::plan_update;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The exact test solves 2-D simultaneous systems exactly.
    #[test]
    fn exact_two_dims_simultaneous(
        a0 in -2i64..=2, b0 in -2i64..=2, r0 in -4i64..=4,
        a1 in -2i64..=2, b1 in -2i64..=2, r1 in -4i64..=4,
        m in 1i64..=4,
        dir in prop_oneof![Just(Dir::Any), Just(Dir::Lt), Just(Dir::Eq), Just(Dir::Gt)],
    ) {
        let eqs = vec![
            DimEquation {
                shared: vec![LoopTerm { size: m, a: a0, b: b0 }],
                src_only: vec![],
                snk_only: vec![],
                a0: 0,
                b0: r0,
            },
            DimEquation {
                shared: vec![LoopTerm { size: m, a: a1, b: b1 }],
                src_only: vec![],
                snk_only: vec![],
                a0: 0,
                b0: r1,
            },
        ];
        let dv = DirVec(vec![dir]);
        let mut want = false;
        for x in 1..=m {
            for y in 1..=m {
                let ok = match dir {
                    Dir::Any => true,
                    Dir::Lt => x < y,
                    Dir::Eq => x == y,
                    Dir::Gt => x > y,
                };
                if ok && a0 * x - b0 * y == r0 && a1 * x - b1 * y == r1 {
                    want = true;
                }
            }
        }
        let got = exact_test(&eqs, &dv, 1_000_000);
        prop_assert_eq!(matches!(got, ExactResult::Dependent(_)), want, "{:?}", got);
    }

    /// The exact test returns the lexicographically first solution of
    /// random multi-loop, multi-dimension systems, in its documented
    /// search order, or proves there is none.
    #[test]
    fn exact_witness_is_lexicographically_first(
        ndims in 1usize..=2,
        shared in proptest::collection::vec(
            (1i64..=5, prop_oneof![Just(Dir::Any), Just(Dir::Lt), Just(Dir::Eq), Just(Dir::Gt)]),
            0..3,
        ),
        src_sizes in proptest::collection::vec(1i64..=5, 0..3),
        snk_sizes in proptest::collection::vec(1i64..=5, 0..3),
        // Zero half the time, so loops vanish from some or all dimensions.
        coeffs in proptest::collection::vec(prop_oneof![Just(0i64), -3i64..=3], 16..17),
        rhs in proptest::collection::vec(-6i64..=6, 2..3),
    ) {
        let mut c = coeffs.into_iter().cycle();
        let eqs: Vec<DimEquation> = (0..ndims)
            .map(|d| DimEquation {
                shared: shared
                    .iter()
                    .map(|&(size, _)| LoopTerm { size, a: c.next().unwrap(), b: c.next().unwrap() })
                    .collect(),
                src_only: src_sizes
                    .iter()
                    .map(|&size| UnsharedTerm { coeff: c.next().unwrap(), size })
                    .collect(),
                snk_only: snk_sizes
                    .iter()
                    .map(|&size| UnsharedTerm { coeff: c.next().unwrap(), size })
                    .collect(),
                a0: 0,
                b0: rhs[d],
            })
            .collect();
        let dv = DirVec(shared.iter().map(|&(_, dir)| dir).collect());
        let want = match brute_first_solution(&eqs, &dv) {
            Some(w) => ExactResult::Dependent(w),
            None => ExactResult::Independent,
        };
        prop_assert_eq!(exact_test(&eqs, &dv, 1_000_000), want, "{:?} under {:?}", eqs, dv);
    }

    /// Strided recurrences agree between thunkless and thunked for
    /// random strides and offsets (the loop-normalization differential).
    #[test]
    fn strided_recurrences_agree(stride in 2i64..=4, reps in 3i64..=8) {
        // Chain over multiples of `stride`, other slots zero-filled.
        let hi = stride * reps;
        let src = format!(
            "param n;\nletrec* a = array (1,{hi}) \
             ([ {stride} := 1 ] ++ \
              [ i := a!(i-{stride}) + 1 | i <- [{},{}..{hi}] ] ++ \
              [ i := 0 | i <- [1..{hi}], i mod {stride} /= 0 ]);\n",
            2 * stride,
            3 * stride
        );
        let env = ConstEnv::from_pairs([("n", hi)]);
        let program = parse_program(&src).unwrap();
        let funcs = FuncTable::new();
        let auto = compile(&program, &env, &CompileOptions::default())
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let thunked = compile(&program, &env, &CompileOptions {
            mode: ExecMode::ForceThunked,
            ..CompileOptions::default()
        }).unwrap();
        let a = run(&auto, &HashMap::new(), &funcs).unwrap();
        let t = run(&thunked, &HashMap::new(), &funcs).unwrap();
        prop_assert_eq!(a.array("a").data(), t.array("a").data());
        // The strided chain itself must be thunkless (guards on the
        // zero-fill clause don't affect it).
        prop_assert_eq!(a.counters.thunked.thunks_allocated, 0);
    }

    /// Tarjan + topo laws on random graphs: the condensation is always
    /// a DAG, and topo_sort's output (when acyclic) is topological.
    #[test]
    fn graph_laws(edges in proptest::collection::vec((0usize..8, 0usize..8), 0..24)) {
        let mut g: DiGraph<()> = DiGraph::with_nodes(8);
        for (a, b) in &edges {
            g.add_edge(NodeId(*a), NodeId(*b), ());
        }
        let sccs = tarjan_scc(&g);
        // Partition: every node in exactly one component.
        let mut seen = [0usize; 8];
        for members in &sccs.members {
            for m in members {
                seen[m.0] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
        // Condensation acyclic.
        let cond = sccs.condensation(&g);
        match topo_sort(&cond) {
            TopoResult::Sorted(order) => prop_assert!(is_topological(&cond, &order)),
            TopoResult::Cycle(_) => prop_assert!(false, "condensation must be a DAG"),
        }
        // topo_sort on g itself: sorted iff every SCC is trivial.
        let has_cycle = (0..sccs.len()).any(|i| sccs.is_cyclic(i, &g));
        match topo_sort(&g) {
            TopoResult::Sorted(order) => {
                prop_assert!(!has_cycle);
                prop_assert!(is_topological(&g, &order));
            }
            TopoResult::Cycle(_) => prop_assert!(has_cycle),
        }
    }

    /// Random shift updates: the planned in-place/split update always
    /// matches copy semantics.
    #[test]
    fn shift_updates_match_copy_semantics(offset in -3i64..=3, n in 6i64..=12) {
        prop_assume!(offset != 0);
        let (lo, hi) = if offset > 0 {
            (1, n - offset)
        } else {
            (1 - offset, n)
        };
        let src = format!("[ i := a!(i+{offset}) * 2 + 1 | i <- [{lo}..{hi}] ]");
        let mut c = parse_comp(&src).unwrap();
        number_clauses(&mut c);
        let env = ConstEnv::from_pairs([("n", n)]);
        let u = analyze_bigupd("a", "b", &c, &env, &TestPolicy::default()).unwrap();
        let up = plan_update(&c, &u).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let lowered = lower_update("a", "b", &u.refs, &up, &env).unwrap();

        let mut base = ArrayBuf::new(&[(1, n)], 0.0);
        for i in 1..=n {
            base.set("a", &[i], (i * 3 % 7) as f64).unwrap();
        }
        // Oracle: all reads from the pristine array.
        let mut want = base.clone();
        for i in lo..=hi {
            let v = base.get("a", &[i + offset]).unwrap() * 2.0 + 1.0;
            want.set("a", &[i], v).unwrap();
        }
        let mut vm = Vm::new();
        vm.set_global("n", n as f64);
        vm.bind("a", base);
        if lowered.in_place {
            vm.alias("b", "a");
        }
        vm.run(&lowered.prog).unwrap();
        let got = vm.array("b").unwrap();
        prop_assert_eq!(got.data(), want.data(), "offset {} plan:\n{}", offset, lowered.prog.render());
        // Never a whole-array copy for a linear shift.
        prop_assert_eq!(vm.counters.elements_copied, 0);
    }

    /// Pretty-printing round-trips random builder-generated programs.
    #[test]
    fn builder_pretty_parse_roundtrip(
        border in -5i64..=5,
        scale in 1i64..=4,
        off in 1i64..=3,
    ) {
        use hac_lang::build::{comp, e, program};
        let p = program()
            .param("n")
            .letrec_star(
                "a",
                [(e(1), e("n"))],
                comp()
                    .clause([e(off)], e(border))
                    .append(
                        comp()
                            .clause(
                                [e("i")],
                                e("a").idx([e("i") - e(off)]) * e(scale) + e(1),
                            )
                            .generate("i", e(off) + e(1), e("n")),
                    ),
            )
            .finish();
        let text = hac_lang::pretty::program_to_string(&p);
        let back = parse_program(&text).unwrap();
        prop_assert_eq!(p, back, "{}", text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// 2-D legality: schedules for random single-stencil recurrences
    /// (one neighbor read with random offsets) always satisfy every
    /// dependence edge per the instance-level oracle.
    #[test]
    fn two_d_schedules_are_legal(di in -2i64..=2, dj in -2i64..=2, n in 4i64..=7) {
        prop_assume!(di != 0 || dj != 0);
        // Border clauses seed everything the interior read can touch;
        // the interior reads a!(i+di, j+dj) within a safe sub-box.
        let (ilo, ihi) = (1 + di.abs(), n - di.abs());
        let (jlo, jhi) = (1 + dj.abs(), n - dj.abs());
        prop_assume!(ilo < ihi && jlo < jhi);
        let src = format!(
            "[ (i,j) := i + j | i <- [1..n], j <- [1..n], \
               i < {ilo} || i > {ihi} || j < {jlo} || j > {jhi} ] ++ \
             [ (i,j) := a!(i+{di},j+{dj}) + 1 \
               | i <- [{ilo}..{ihi}], j <- [{jlo}..{jhi}] ]"
        );
        let mut c = parse_comp(&src).unwrap();
        number_clauses(&mut c);
        let env = ConstEnv::from_pairs([("n", n)]);
        let refs = hac_analysis::refs::collect_refs(&c, "a", &env).unwrap();
        let flow =
            hac_analysis::depgraph::flow_dependences(&refs, "a", &TestPolicy::default());
        match hac_schedule::scheduler::schedule(&c, &flow.edges) {
            hac_schedule::plan::ScheduleOutcome::Thunkless(plan) => {
                hac_schedule::check::check_plan(&plan, &c, &flow.edges, &env)
                    .map_err(|e| {
                        TestCaseError::fail(format!("{e}\n{}", plan.render()))
                    })?;
                // And the semantics agree with the thunked evaluator.
                let full = format!(
                    "param n;\nletrec* a = array ((1,1),(n,n)) ({src});\n"
                );
                let program = parse_program(&full).unwrap();
                let funcs = FuncTable::new();
                let auto = compile(&program, &env, &CompileOptions::default()).unwrap();
                let thunked = compile(&program, &env, &CompileOptions {
                    mode: ExecMode::ForceThunked,
                    ..CompileOptions::default()
                }).unwrap();
                let a = run(&auto, &HashMap::new(), &funcs).unwrap();
                let t = run(&thunked, &HashMap::new(), &funcs).unwrap();
                prop_assert_eq!(a.array("a").data(), t.array("a").data());
            }
            hac_schedule::plan::ScheduleOutcome::NeedsThunks(_) => {
                // A guarded single-offset stencil is always acyclic in
                // one direction; fallback would be a scheduler bug.
                return Err(TestCaseError::fail("unexpected thunk fallback"));
            }
        }
    }
}

/// Enumerate every assignment in the exact test's search order — shared
/// pairs `(x, y)` outermost first, then source-only, then sink-only
/// indices, each ascending — and return the first that solves every
/// dimension. A loop whose coefficients vanish in every dimension only
/// takes its canonical value (`(1, 1)`, `(1, 2)` under `<`, `(2, 1)`
/// under `>`, or `1`), provided its region is not empty.
fn brute_first_solution(eqs: &[DimEquation], dv: &DirVec) -> Option<Witness> {
    /// One loop: its candidate `(x, y)` values (`y = 0` for an unshared
    /// loop) and its `(a, b)` per dimension.
    struct Loop {
        values: Vec<(i64, i64)>,
        coef: Vec<(i64, i64)>,
    }
    let first = &eqs[0];
    let mut loops = Vec::new();
    for (k, &dir) in dv.0.iter().enumerate() {
        let coef: Vec<(i64, i64)> = eqs.iter().map(|e| (e.shared[k].a, e.shared[k].b)).collect();
        let m = first.shared[k].size;
        let mut values: Vec<(i64, i64)> = (1..=m)
            .flat_map(|x| (1..=m).map(move |y| (x, y)))
            .filter(|&(x, y)| match dir {
                Dir::Any => true,
                Dir::Lt => x < y,
                Dir::Eq => x == y,
                Dir::Gt => x > y,
            })
            .collect();
        if !values.is_empty() && coef.iter().all(|&c| c == (0, 0)) {
            values = vec![match dir {
                Dir::Lt => (1, 2),
                Dir::Gt => (2, 1),
                _ => (1, 1),
            }];
        }
        loops.push(Loop { values, coef });
    }
    let unshared = |e: &DimEquation, k: usize| {
        e.src_only
            .get(k)
            .copied()
            .unwrap_or_else(|| e.snk_only[k - e.src_only.len()])
    };
    for k in 0..first.src_only.len() + first.snk_only.len() {
        let coef: Vec<(i64, i64)> = eqs.iter().map(|e| (unshared(e, k).coeff, 0)).collect();
        let values = if coef.iter().all(|&c| c == (0, 0)) {
            vec![(1, 0)]
        } else {
            (1..=unshared(first, k).size).map(|x| (x, 0)).collect()
        };
        loops.push(Loop { values, coef });
    }
    if loops.iter().any(|l| l.values.is_empty()) {
        return None;
    }
    // Odometer over the candidate lists, first loop most significant.
    let mut pick = vec![0usize; loops.len()];
    loop {
        let value = |k: usize| loops[k].values[pick[k]];
        let solves = eqs.iter().enumerate().all(|(d, e)| {
            let sum: i64 = (0..loops.len())
                .map(|k| loops[k].coef[d].0 * value(k).0 - loops[k].coef[d].1 * value(k).1)
                .sum();
            sum == e.rhs()
        });
        if solves {
            let s = first.shared.len();
            let p = first.src_only.len();
            return Some(Witness {
                shared: (0..s).map(value).collect(),
                src_only: (s..s + p).map(|k| value(k).0).collect(),
                snk_only: (s + p..loops.len()).map(|k| value(k).0).collect(),
            });
        }
        let mut k = loops.len();
        loop {
            if k == 0 {
                return None;
            }
            k -= 1;
            pick[k] += 1;
            if pick[k] < loops[k].values.len() {
                break;
            }
            pick[k] = 0;
        }
    }
}
