//! The planner pays only for the plan it returns, and that changes nothing.
//!
//! `Planner::plan` audits and re-analyzes only the ladder level it returns,
//! takes the split the ladder already built, and predicts every candidate's
//! contribution while ranking it. The reference below is the plain loop
//! built from public APIs only: at every level it splits the plan again,
//! analyzes, hardens, re-analyzes, audits, measures and predicts. Over the
//! five suite programs, hardening on and off, no budget and budgets of 0, 5,
//! 15 and 100%, with and without the canonical measurer, both must return
//! the same report: the same `hps-plan/v2` bytes, the same text, the same
//! split, audit, hardening and downgrade count.

use hps_audit::{audit_split, plan_to_json, render_plan, PlanReport, Planner};
use hps_core::{harden_split, split_program, SplitPlan, SplitResult};
use hps_ir::{ComponentId, FragLabel, HiddenProgram, Program};
use hps_security::{
    analyze_split, default_targets, predict, AcType, MeasuredCost, OptimizeLadder, PlanCostModel,
    SecurityReport, SeedRule,
};
use hps_suite::{measure_split, plan_workload};
use std::cell::RefCell;

type Measure<'a> = &'a dyn Fn(&Program, &SplitResult) -> Result<MeasuredCost, String>;

const BUDGETS: [Option<f64>; 5] = [None, Some(0.0), Some(5.0), Some(15.0), Some(100.0)];

fn weak_groups(security: &SecurityReport) -> Vec<(ComponentId, FragLabel)> {
    let mut groups: Vec<_> = security
        .iter()
        .filter(|c| matches!(c.ac.ty, AcType::Constant | AcType::Linear))
        .map(|c| (c.ilp.component, c.ilp.label))
        .collect();
    groups.sort();
    groups.dedup();
    groups
}

fn weak_count(security: &SecurityReport) -> usize {
    security
        .iter()
        .filter(|c| matches!(c.ac.ty, AcType::Constant | AcType::Linear))
        .count()
}

/// The full pipeline for one plan: split, analyze, harden, re-analyze,
/// audit, measure, predict, verdict. Every analysis here is the uncached
/// `analyze_split`, which builds fresh facts of the original program per
/// call, so the comparison checks the planner's shared facts instead of
/// reusing them.
fn reference_level(
    program: &Program,
    mut report: PlanReport,
    harden: bool,
    measure: Option<Measure<'_>>,
) -> PlanReport {
    let model = PlanCostModel::default();
    let mut split = split_program(program, &report.plan).expect("plan splits");
    let before = analyze_split(program, &split);
    report.lattice_before = before.counts_by_type();
    report.weak_before = weak_count(&before);
    if harden {
        report.hardening = harden_split(&mut split, &weak_groups(&before));
    }
    report.security = analyze_split(program, &split);
    report.lattice_after = report.security.counts_by_type();
    report.lattice_wire = report.security.counts_by_wire_type();
    report.weak_after = weak_count(&report.security);
    report.masked_after = report
        .weak_after
        .saturating_sub(report.security.weak_unmasked());
    report.audit = audit_split(program, &split);
    report.measured = measure.map(|m| m(program, &split).expect("measures"));
    let (model, base_units) = match &report.measured {
        Some(m) => (model.calibrated(m), Some(m.base_units)),
        None => (model, None),
    };
    report.predicted_cost = predict(program, &split, &model, base_units);
    report.split = split;
    report.within_budget = report
        .budget_percent
        .map(|b| report.overhead_percent() <= b);
    report
}

/// The budget search, running the full pipeline at every level it visits.
fn reference_plan(
    program: &Program,
    harden: bool,
    budget: Option<f64>,
    measure: Option<Measure<'_>>,
) -> PlanReport {
    let mut ladder = OptimizeLadder::new(program, SeedRule::default(), PlanCostModel::default());
    loop {
        let outcome = ladder.outcome(None);
        assert!(
            !outcome.plan.targets.is_empty() || outcome.level > 0,
            "suite programs have targets"
        );
        let mut report = PlanReport::default()
            .with_plan(outcome.plan)
            .with_budget_percent(budget);
        report.downgrades = outcome.level;
        report.choices = outcome.choices;
        report.dropped = outcome.dropped;
        report.rule = outcome.rule;
        report.rule_fallback = outcome.rule_fallback;
        let report = reference_level(program, report, harden, measure);
        let over = report.within_budget == Some(false);
        if !over || ladder.level() + 1 >= 64 || !ladder.descend() {
            return report;
        }
    }
}

fn planner<'p>(
    program: &'p Program,
    harden: bool,
    budget: Option<f64>,
    measure: Option<Measure<'p>>,
) -> Planner<'p> {
    let mut planner = Planner::new(program).harden(harden);
    if let Some(b) = budget {
        planner = planner.budget(b);
    }
    if let Some(m) = measure {
        planner = planner.measure_with(m);
    }
    planner
}

fn assert_same(what: &str, fast: &PlanReport, slow: &PlanReport) {
    assert_eq!(
        plan_to_json(fast).pretty(),
        plan_to_json(slow).pretty(),
        "{what}: hps-plan/v2 bytes"
    );
    assert_eq!(render_plan(fast), render_plan(slow), "{what}: text report");
    assert_eq!(fast.split.open, slow.split.open, "{what}: open program");
    assert_eq!(
        fast.split.hidden, slow.split.hidden,
        "{what}: hidden program"
    );
    assert_eq!(fast.audit, slow.audit, "{what}: audit");
    assert_eq!(fast.hardening, slow.hardening, "{what}: hardening");
    assert_eq!(fast.downgrades, slow.downgrades, "{what}: downgrades");
}

/// Every harden × budget × measurer combination for one benchmark.
fn check_benchmark(name: &str) {
    let bench = hps_suite::benchmark(name).expect("suite benchmark");
    let program = bench.program().expect("suite program parses");
    let input = plan_workload(&bench);
    // `measure_split` is deterministic, and the budgets walk prefixes of the
    // same two ladders, so each distinct split is measured once and its
    // result handed to every later caller.
    let seen: RefCell<Vec<(Program, HiddenProgram, MeasuredCost)>> = RefCell::default();
    let measurer = |prog: &Program, split: &SplitResult| -> Result<MeasuredCost, String> {
        let hit = seen
            .borrow()
            .iter()
            .find(|(open, hidden, _)| *open == split.open && *hidden == split.hidden)
            .map(|(_, _, cost)| cost.clone());
        if let Some(cost) = hit {
            return Ok(cost);
        }
        let cost = measure_split(prog, split, &input)?;
        seen.borrow_mut()
            .push((split.open.clone(), split.hidden.clone(), cost.clone()));
        Ok(cost)
    };
    for measure in [None, Some(&measurer as Measure<'_>)] {
        for harden in [false, true] {
            for budget in BUDGETS {
                let what = format!(
                    "{} harden={harden} budget={budget:?} measured={}",
                    bench.name,
                    measure.is_some()
                );
                let fast = planner(&program, harden, budget, measure)
                    .plan()
                    .expect("plans");
                let slow = reference_plan(&program, harden, budget, measure);
                assert_same(&what, &fast, &slow);
            }
        }
    }
}

#[test]
fn calcc_matches_full_pipeline_reference() {
    check_benchmark("calcc");
}

#[test]
fn rulekit_matches_full_pipeline_reference() {
    check_benchmark("rulekit");
}

#[test]
fn asmkit_matches_full_pipeline_reference() {
    check_benchmark("asmkit");
}

#[test]
fn optkit_matches_full_pipeline_reference() {
    check_benchmark("optkit");
}

#[test]
fn figkit_matches_full_pipeline_reference() {
    check_benchmark("figkit");
}

#[test]
fn the_suite_is_covered() {
    let names: Vec<_> = hps_suite::benchmarks().iter().map(|b| b.name).collect();
    assert_eq!(names, ["calcc", "rulekit", "asmkit", "optkit", "figkit"]);
}

#[test]
fn explicit_targets_match_full_pipeline_reference() {
    for bench in hps_suite::benchmarks() {
        let program = bench.program().expect("suite program parses");
        let plan: SplitPlan = default_targets(&program, SeedRule::default());
        for harden in [false, true] {
            for budget in [None, Some(0.0)] {
                let what = format!("{} explicit harden={harden} budget={budget:?}", bench.name);
                let fast = planner(&program, harden, budget, None)
                    .targets(plan.clone())
                    .plan()
                    .expect("plans");
                let report = PlanReport::default()
                    .with_plan(plan.clone())
                    .with_budget_percent(budget);
                let slow = reference_level(&program, report, harden, None);
                assert_same(&what, &fast, &slow);
            }
        }
    }
}
