//! `plan_suite`: what a developer waits for in `hps split --budget 15
//! --harden` — parse plus the budget-aware, auto-hardening `Planner` with
//! no measurer (predicted cost) — over all five suite programs, one
//! worker. No interpreter runs inside an op, so the analysis layers do all
//! of the work. A round plans each program once; a window runs whole
//! rounds until the ops' own time reaches the window length.
//!
//! Each op's plan is checked outside its timed interval: no weak leak may
//! ship unmasked, the plan must equal the program's plan from set-up, and
//! the planned (hardened) split must reproduce the unsplit output when run
//! in process. (At a 15% predicted budget the ladder ends by dropping every
//! target, so that run makes no round trips.)

use crate::chan::Timed;
use crate::inproc::{in_process, run_split, Prog};
use crate::spans::SpanLog;
use crate::{bench, stats, Args, Layers, Phase, Report};
use hps_audit::{audit_split, Planner};
use hps_core::{harden_split, split_program, SplitPlan, SplitResult};
use hps_ir::{ComponentId, FragLabel, Program};
use hps_runtime::SplitMeta;
use hps_security::{
    analyze_split, default_targets, predict, AcType, OptimizeLadder, PlanCostModel, SecurityReport,
    SeedRule,
};
use std::time::Instant;

const BUDGET_PERCENT: f64 = 15.0;

/// A program's reference plan and the checks its later ops must pass.
struct Planned {
    plan: SplitPlan,
    levels: usize,
}

/// One op: parse plus plan, timed. Returns the planner's report.
fn plan_op(source: &str) -> Result<(Program, hps_audit::PlanReport), String> {
    let program = hps_lang::parse(source).map_err(|e| format!("parse: {e}"))?;
    let report = Planner::new(&program)
        .budget(BUDGET_PERCENT)
        .harden(true)
        .plan()
        .map_err(|e| format!("plan: {e}"))?;
    Ok((program, report))
}

/// The checks every op's plan must pass, outside its timed interval.
fn check(
    prog: &Prog,
    reference: &Planned,
    report: &hps_audit::PlanReport,
    input: usize,
    phase: &mut Phase,
) -> bool {
    if report.weak_unmasked_after() != 0 {
        phase.fail(format!(
            "{}: {} weak leaks ship unmasked",
            prog.name,
            report.weak_unmasked_after()
        ));
        return false;
    }
    if report.plan != reference.plan || report.downgrades + 1 != reference.levels {
        phase.fail(format!("{}: plan differs from the set-up plan", prog.name));
        return false;
    }
    let meta = SplitMeta::derive(&report.split.open, &report.split.hidden);
    let mut timed = Timed::new(in_process(&report.split, None));
    let outcome = run_split(
        &report.split,
        &meta,
        &prog.pool[input],
        &mut timed,
        None,
        None,
        0,
    );
    phase.rtt_ns.extend(timed.rtt_ns.iter().map(|&n| n as f64));
    match outcome {
        Ok(o) if o.output == prog.expected[input] => true,
        Ok(_) => {
            phase.fail(format!("{}: planned split output differs", prog.name));
            false
        }
        Err(e) => {
            phase.fail(format!("{}: planned split failed: {e}", prog.name));
            false
        }
    }
}

fn setup(seed: u64) -> Result<(Vec<Prog>, Vec<Planned>), String> {
    let (progs, _, _) = crate::inproc::setup(seed)?;
    let mut planned = Vec::new();
    for p in &progs {
        let (_, report) = plan_op(bench(p.name).source).map_err(|e| format!("{}: {e}", p.name))?;
        let reference = Planned {
            plan: report.plan.clone(),
            levels: report.downgrades + 1,
        };
        let mut phase = Phase::default();
        if !check(p, &reference, &report, 0, &mut phase) {
            return Err(phase.errors.join("; "));
        }
        planned.push(reference);
    }
    Ok((progs, planned))
}

/// Traced-window totals of the planner ops and their replayed calls.
#[derive(Default)]
struct PlanTimes {
    plan_ns: Vec<Vec<f64>>,
    plan_total_ns: u64,
    attributed_ns: u64,
}

fn window(
    progs: &[Prog],
    planned: &[Planned],
    args: &Args,
    mut log: Option<&mut SpanLog>,
) -> (Phase, PlanTimes) {
    let mut phase = Phase::default();
    let mut times = PlanTimes {
        plan_ns: vec![Vec::new(); progs.len()],
        ..PlanTimes::default()
    };
    let mut busy_ns = 0u128;
    let mut round = 0;
    while busy_ns < args.window.as_nanos() {
        for (p, prog) in progs.iter().enumerate() {
            let op = phase.attempted;
            phase.attempted += 1;
            let source = bench(prog.name).source;
            let t0 = Instant::now();
            let result = match log.as_deref_mut() {
                None => plan_op(source),
                Some(log) => {
                    let root = log.open("op", None, op);
                    let (program, _) =
                        log.time("lang.parse", Some(root), op, || hps_lang::parse(source));
                    let result = match program {
                        Ok(program) => {
                            let (report, ns) = log.time("audit.plan", Some(root), op, || {
                                Planner::new(&program)
                                    .budget(BUDGET_PERCENT)
                                    .harden(true)
                                    .plan()
                            });
                            times.plan_ns[p].push(ns as f64);
                            times.plan_total_ns += ns;
                            report
                                .map(|r| (program, r))
                                .map_err(|e| format!("plan: {e}"))
                        }
                        Err(e) => Err(format!("parse: {e}")),
                    };
                    log.close(root);
                    result
                }
            };
            let op_ns = t0.elapsed().as_nanos();
            busy_ns += op_ns;
            let mut ok = match &result {
                Ok((_, report)) => check(
                    prog,
                    &planned[p],
                    report,
                    round % prog.pool.len(),
                    &mut phase,
                ),
                Err(e) => {
                    phase.fail(format!("{}: {e}", prog.name));
                    false
                }
            };
            if let (true, Some(log), Ok((program, report))) = (ok, log.as_deref_mut(), &result) {
                ok = match replay(program, planned[p].levels, log, op) {
                    Ok((plan, ns)) if plan == report.plan => {
                        times.attributed_ns += ns;
                        true
                    }
                    Ok(_) => {
                        phase.fail(format!("{}: replayed ladder ends elsewhere", prog.name));
                        false
                    }
                    Err(e) => {
                        phase.fail(format!("{}: replay: {e}", prog.name));
                        false
                    }
                };
            }
            if ok {
                phase.op_ns.push(op_ns as f64);
            }
        }
        round += 1;
    }
    phase.secs = busy_ns as f64 / 1e9;
    (phase, times)
}

/// Weak (`Constant`/`Linear`) ILP groups, as the planner hardens them.
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

/// Walks `levels` levels of the public `OptimizeLadder` making the calls
/// the planner makes at each level, each in its own span under one
/// `replay` span. Returns the last level's plan and the time those calls
/// took.
fn replay(
    program: &Program,
    levels: usize,
    log: &mut SpanLog,
    op: u64,
) -> Result<(SplitPlan, u64), String> {
    let root = log.open("replay", None, op);
    let first = log.spans.len();
    let parent = Some(root);
    let model = PlanCostModel::default();
    let (mut ladder, _) = log.time("security.ladder_new", parent, op, || {
        OptimizeLadder::new(program, SeedRule::default(), model.clone())
    });
    let mut plan = SplitPlan::default();
    for level in 0..levels {
        if level > 0
            && !log
                .time("security.ladder_descend", parent, op, || ladder.descend())
                .0
        {
            return Err(format!("ladder ran out of moves at level {level}"));
        }
        let (outcome, _) = log.time("security.ladder_outcome", parent, op, || {
            ladder.outcome(None)
        });
        let (split, _) = log.time("core.split", parent, op, || {
            split_program(program, &outcome.plan)
        });
        let mut split: SplitResult = split.map_err(|e| format!("split: {e}"))?;
        let (before, _) = log.time("security.analyze", parent, op, || {
            analyze_split(program, &split)
        });
        let groups = weak_groups(&before);
        log.time("core.harden", parent, op, || {
            harden_split(&mut split, &groups)
        });
        log.time("security.analyze", parent, op, || {
            analyze_split(program, &split)
        });
        log.time("audit.audit", parent, op, || audit_split(program, &split));
        log.time("security.predict", parent, op, || {
            predict(program, &split, &model, None)
        });
        if level == 0 && !outcome.rule_fallback {
            // Not a planner call: timed outside `replay`'s children.
            let (targets, _) = log.time("security.targets", None, op, || {
                default_targets(program, SeedRule::CostRestricted)
            });
            if targets != outcome.plan {
                return Err("default_targets differs from the ladder's level 0".to_string());
            }
        }
        plan = outcome.plan;
    }
    log.close(root);
    let attributed = log.spans[first..]
        .iter()
        .filter(|s| s.parent == parent)
        .map(|s| s.ns())
        .sum();
    Ok((plan, attributed))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..args.setups() {
        let started = Instant::now();
        state = Some(setup(args.seed)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let (progs, planned) = state.expect("at least one set-up");
    let (untraced, _) = window(&progs, &planned, args, None);
    if !args.trace {
        return Ok(Report::end_to_end(&setups, untraced));
    }

    let mut log = SpanLog::new(Instant::now());
    let (traced, totals) = window(&progs, &planned, args, Some(&mut log));
    let mut layers = Layers::default();
    let per_call = |name: &str| {
        let (ns, n) = log.total(name);
        (stats::ratio(ns as f64, n as f64) / 1e6, n as usize)
    };
    for (metric, span) in [
        ("security.targets_ms", "security.targets"),
        ("security.analyze_ms", "security.analyze"),
        ("security.predict_ms", "security.predict"),
        ("core.split_ms", "core.split"),
        ("core.harden_ms", "core.harden"),
        ("audit.audit_ms", "audit.audit"),
    ] {
        let (ms, n) = per_call(span);
        layers.set(metric, ms, n);
    }
    let levels: usize = planned.iter().map(|p| p.levels).sum();
    layers.set(
        "audit.plan_levels",
        levels as f64 / planned.len() as f64,
        planned.len(),
    );
    for (p, ns) in progs.iter().zip(&totals.plan_ns) {
        layers.set(
            &format!("audit.plan_ms.{}", p.name),
            stats::median(ns) / 1e6,
            ns.len(),
        );
    }
    let unattributed = totals.plan_total_ns as f64 - totals.attributed_ns as f64;
    layers.set(
        "audit.unattributed_pct",
        stats::ratio(unattributed, totals.plan_total_ns as f64) * 100.0,
        traced.op_ns.len(),
    );
    crate::layers::suite_passes(&mut layers, &mut log, crate::PASS_OPS)?;
    Ok(Report::per_layer(untraced, traced, layers, log))
}
