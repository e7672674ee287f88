//! End-to-end over the whole benchmark suite: automatic function selection
//! (call-graph cut), complexity-guided seed choice, splitting, and
//! original-vs-split equivalence — the full paper pipeline on every
//! program.

use hps_core::{
    harden_split, mark_deferrable, select_functions, split_program, SplitPlan, SplitTarget,
};
use hps_ir::{FuncId, LocalId, Program, StmtKind};
use hps_runtime::{run_program, Executor};
use hps_security::{
    analyze_split, default_targets, AcType, OptimizeLadder, PlanCostModel, SeedRule,
};
use std::sync::Arc;

fn paper_plan(program: &hps_ir::Program) -> SplitPlan {
    assert!(
        !select_functions(program).is_empty(),
        "selection found nothing to split"
    );
    let plan = default_targets(program, SeedRule::CostRestricted);
    assert!(!plan.targets.is_empty(), "no seeds chosen");
    plan
}

#[test]
fn every_benchmark_splits_and_stays_equivalent() {
    for b in hps_suite::benchmarks() {
        let program = b.program().expect("parses");
        let plan = paper_plan(&program);
        let split = split_program(&program, &plan)
            .unwrap_or_else(|e| panic!("{}: split failed: {e}", b.name));
        assert!(
            split.functions_sliced() >= 2,
            "{}: only {} functions sliced",
            b.name,
            split.functions_sliced()
        );
        assert!(
            split.total_ilps() >= 3,
            "{}: only {} ILPs",
            b.name,
            split.total_ilps()
        );
        // Arrays have reference semantics and the benchmarks mutate their
        // input, so each run gets its own deep copy.
        let input = b.workload(600, 77);
        let original = run_program(&program, &[input.deep_clone()])
            .unwrap_or_else(|e| panic!("{}: original failed: {e}", b.name));
        let replay = Executor::new(&split.open, &split.hidden)
            .run(&[input.deep_clone()])
            .unwrap_or_else(|e| panic!("{}: split run failed: {e}", b.name));
        assert_eq!(
            original.output, replay.outcome.output,
            "{}: split changed behaviour",
            b.name
        );
        assert!(
            replay.interactions > 0,
            "{}: split program never interacted",
            b.name
        );
    }
}

#[test]
fn security_analysis_covers_every_benchmark() {
    for b in hps_suite::benchmarks() {
        let program = b.program().expect("parses");
        let plan = paper_plan(&program);
        let split = split_program(&program, &plan).expect("splits");
        let report = analyze_split(&program, &split);
        assert_eq!(
            report.total(),
            split.total_ilps(),
            "{}: analysis missed ILPs",
            b.name
        );
        let counts = report.counts_by_type();
        assert!(
            counts.iter().sum::<usize>() > 0,
            "{}: empty complexity table",
            b.name
        );
    }
}

#[test]
fn figkit_shows_polynomial_and_rational_ilps() {
    // The paper: "Since jfig contains many more arithmetic computations, it
    // does contain many polynomial and rational hidden computations."
    let b = hps_suite::benchmark("figkit").unwrap();
    let program = b.program().unwrap();
    let plan = paper_plan(&program);
    let split = split_program(&program, &plan).unwrap();
    let report = analyze_split(&program, &split);
    let counts = report.counts_by_type();
    // counts: [Constant, Linear, Polynomial, Rational, Arbitrary]
    assert!(
        counts[2] + counts[3] > 0,
        "figkit should produce polynomial/rational ILPs, got {counts:?}"
    );
}

#[test]
fn promotion_ablation_trades_traffic_for_hidden_control_flow() {
    // Ablation: disabling control promotion must (a) preserve behaviour
    // and (b) eliminate hidden control flow in the CC table — the security
    // property promotion buys. (Its traffic effect cuts both ways: whole
    // promoted loops need one call instead of one per iteration, but
    // clause promotions call their fragment unconditionally.)
    for name in ["calcc", "rulekit"] {
        let b = hps_suite::benchmark(name).unwrap();
        let program = b.program().unwrap();
        let mut plan = paper_plan(&program);
        let split = split_program(&program, &plan).unwrap();
        let with_promo = Executor::new(&split.open, &split.hidden)
            .run(&[b.workload(300, 5).deep_clone()])
            .unwrap();
        let report = analyze_split(&program, &split);
        plan.promote_control = false;
        let split_flat = split_program(&program, &plan).unwrap();
        let without = Executor::new(&split_flat.open, &split_flat.hidden)
            .run(&[b.workload(300, 5).deep_clone()])
            .unwrap();
        let report_flat = analyze_split(&program, &split_flat);
        assert_eq!(with_promo.outcome.output, without.outcome.output);
        assert_eq!(
            report_flat.flow_hidden(),
            0,
            "{name}: no promotion must mean no hidden flow"
        );
        assert!(
            report.flow_hidden() > 0,
            "{name}: promotion produced no hidden flow"
        );
    }
}

/// Asserts that `open` shares every function outside `changed` with
/// `original` (the same `Arc`), and that `changed` is exactly the set of
/// functions that differ.
fn assert_shares_unchanged(what: &str, original: &Program, open: &Program, changed: &[FuncId]) {
    let differ: Vec<FuncId> = original
        .iter_funcs()
        .filter(|&(fid, f)| open.func(fid) != f)
        .map(|(fid, _)| fid)
        .collect();
    assert_eq!(changed, differ, "{what}: changed list");
    for (i, f) in original.functions.iter().enumerate() {
        if !changed.contains(&FuncId::new(i)) {
            assert!(
                Arc::ptr_eq(f, &open.functions[i]),
                "{what}: unchanged `{}` was cloned",
                f.name
            );
        }
    }
}

/// Splits `program` by `plan` and checks that the split copies only the
/// functions it rewrites, before and after hardening its weak leaks, and
/// that hardening's partial re-marking matches a full one. Returns `false`
/// when the plan does not split.
fn check_sharing(what: &str, program: &Program, plan: &SplitPlan) -> bool {
    let Ok(mut split) = split_program(program, plan) else {
        return false;
    };
    assert_shares_unchanged(what, program, &split.open, &split.changed_funcs);
    let mut weak: Vec<_> = analyze_split(program, &split)
        .iter()
        .filter(|c| matches!(c.ac.ty, AcType::Constant | AcType::Linear))
        .map(|c| (c.ilp.component, c.ilp.label))
        .collect();
    weak.dedup();
    harden_split(&mut split, &weak);
    assert_shares_unchanged(what, program, &split.open, &split.changed_funcs);
    // Hardening re-marks only the functions it rewrote; clearing and
    // re-marking every changed function must agree.
    let mut fresh = split.open.clone();
    for &fid in &split.changed_funcs {
        hps_ir::visit::for_each_stmt_mut(&mut fresh.func_mut(fid).body, &mut |s| {
            if let StmtKind::HiddenCall { deferred, .. } = &mut s.kind {
                *deferred = false;
            }
        });
    }
    let stats = mark_deferrable(&mut fresh, &split.changed_funcs);
    assert_eq!(fresh, split.open, "{what}: deferred marks after hardening");
    assert_eq!(
        stats, split.defer,
        "{what}: deferral statistics after hardening"
    );
    true
}

/// A split copies only the functions it rewrites. For every seed candidate
/// of every selected function, and for every level of the planner's
/// downgrade ladder, the split's changed list is exactly the functions
/// that differ, and every other function is the original's own `Arc` —
/// also after hardening. A whole-program deep clone anywhere on this path
/// fails the test.
#[test]
fn splits_share_every_function_they_do_not_rewrite() {
    let mut candidates = 0;
    let mut levels = 0;
    for b in hps_suite::benchmarks() {
        let program = b.program().expect("parses");
        let mut renumbered = program.clone();
        renumbered.renumber_all();
        assert_shares_unchanged(b.name, &program, &renumbered, &[]);
        for func in select_functions(&program) {
            let f = program.func(func);
            for (i, local) in f.locals.iter().enumerate() {
                let seed = LocalId::new(i);
                if f.is_param(seed) || !local.ty.is_scalar() {
                    continue;
                }
                let plan = SplitPlan::from_targets(vec![SplitTarget::Function { func, seed }]);
                let what = format!("{} {}.{}", b.name, f.name, local.name);
                candidates += usize::from(check_sharing(&what, &program, &plan));
            }
        }
        let mut ladder =
            OptimizeLadder::new(&program, SeedRule::default(), PlanCostModel::default());
        loop {
            let plan = ladder.outcome(None).plan;
            let what = format!("{} level {}", b.name, ladder.level());
            levels += usize::from(check_sharing(&what, &program, &plan));
            if !ladder.descend() {
                break;
            }
        }
    }
    assert!(candidates > 200, "only {candidates} candidates split");
    assert!(levels > 50, "only {levels} ladder levels split");
}
