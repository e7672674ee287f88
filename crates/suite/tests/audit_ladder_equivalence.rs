//! The incremental open-flow analysis is exact. `analyze_open_flow` keeps
//! each function's taint analysis across interprocedural rounds and
//! re-solves, warm, only the functions whose summaries grew; the reference
//! below re-solves every function from scratch every round. On every
//! `OptimizeLadder` level of the five suite programs, unhardened and
//! hardened, and with both the audit's label set (fragments returning
//! hidden-dependent values) and every fragment as a label, the two
//! `OpenFlow` results must be equal — `rounds` included. The security
//! reports that pick the hardened groups come from the uncached
//! `analyze_split`, and on every level they must equal the reports read
//! through the ladder's shared facts.

use hps_analysis::taint::{TaintAnalysis, TaintModel};
use hps_analysis::{BitSet, CallGraph, Cfg, ControlDeps, DomTree, ModRef, VarId};
use hps_audit::flow::{analyze_open_flow, FuncFlow, LeakLabel, OpenFlow};
use hps_audit::fragment::analyze_fragments;
use hps_audit::lints::declared_ilps;
use hps_core::{harden_split, split_program, SplitResult};
use hps_ir::{ComponentId, Expr, FragLabel, FuncId, Program, Stmt, StmtKind};
use hps_security::{
    analyze_split, analyze_split_with, AcType, OptimizeLadder, PlanCostModel, SeedRule,
};
use std::collections::HashMap;

/// The reference's per-function model: the current summaries.
struct RefModel<'a> {
    n: usize,
    frag_labels: &'a HashMap<(ComponentId, FragLabel), usize>,
    params: &'a [BitSet],
    shared: &'a HashMap<VarId, BitSet>,
    ret_taint: &'a HashMap<FuncId, BitSet>,
    modref: &'a ModRef,
}

impl TaintModel for RefModel<'_> {
    fn labels(&self) -> usize {
        self.n
    }

    fn gen(&self, stmt: &Stmt, out: &mut BitSet) {
        if let StmtKind::HiddenCall {
            component, label, ..
        } = &stmt.kind
        {
            if let Some(&i) = self.frag_labels.get(&(*component, *label)) {
                out.insert(i);
            }
        }
    }

    fn ambient(&self, v: VarId, out: &mut BitSet) {
        let t = match v {
            VarId::Local(l) => self.params.get(l.index()),
            VarId::Global(_) | VarId::Field(..) => self.shared.get(&v),
        };
        if let Some(t) = t {
            out.union_with(t);
        }
    }

    fn call_result(&self, callee: FuncId, out: &mut BitSet) {
        if let Some(t) = self.ret_taint.get(&callee) {
            out.union_with(t);
        }
    }

    fn call_effect(&self, callee: FuncId) -> (Vec<VarId>, Vec<VarId>) {
        let globals = |gs: &std::collections::BTreeSet<hps_ir::GlobalId>| {
            gs.iter().copied().map(VarId::Global).collect()
        };
        (
            globals(self.modref.mods(callee)),
            globals(self.modref.refs(callee)),
        )
    }
}

/// Interprocedural propagation that cold-solves every function in every
/// round until no summary changes.
fn reference_flow(
    open: &Program,
    hidden_frags: &[(ComponentId, FragLabel)],
    declared: &[(ComponentId, FragLabel)],
) -> OpenFlow {
    let mut keys = hidden_frags.to_vec();
    keys.sort();
    keys.dedup();
    let frag_labels: HashMap<_, _> = keys.iter().enumerate().map(|(i, k)| (*k, i)).collect();
    let labels: Vec<LeakLabel> = keys
        .iter()
        .map(|&(component, label)| LeakLabel {
            component,
            label,
            declared: declared.contains(&(component, label)),
        })
        .collect();
    let n = labels.len();
    let callgraph = CallGraph::build(open);
    let mut funcs: Vec<FuncId> = match open.entry() {
        Some(main) => callgraph.reachable_from(main),
        None => (0..open.functions.len()).map(FuncId::new).collect(),
    };
    funcs.sort();
    let modref = ModRef::compute(open);
    let mut param_taint: HashMap<FuncId, Vec<BitSet>> = funcs
        .iter()
        .map(|&f| (f, vec![BitSet::new(n); open.func(f).num_params]))
        .collect();
    let mut ret_taint: HashMap<FuncId, BitSet> =
        funcs.iter().map(|&f| (f, BitSet::new(n))).collect();
    let mut shared: HashMap<VarId, BitSet> = HashMap::new();
    let prepared: Vec<(FuncId, Cfg, ControlDeps)> = funcs
        .iter()
        .map(|&f| {
            let cfg = Cfg::build(open.func(f));
            let control = ControlDeps::compute(&cfg, &DomTree::postdominators(&cfg));
            (f, cfg, control)
        })
        .collect();
    let mut analyses: HashMap<FuncId, TaintAnalysis> = HashMap::new();
    let mut rounds = 0;
    loop {
        rounds += 1;
        assert!(rounds < 10_000, "reference summaries did not stabilize");
        let mut changed = false;
        for (f, cfg, control) in &prepared {
            let func = open.func(*f);
            let model = RefModel {
                n,
                frag_labels: &frag_labels,
                params: &param_taint[f],
                shared: &shared,
                ret_taint: &ret_taint,
                modref: &modref,
            };
            let ta = TaintAnalysis::compute(func, cfg, control, &model);
            let mut arg_updates = Vec::new();
            let mut shared_updates = Vec::new();
            for node in cfg.node_ids() {
                let Some(id) = cfg.stmt_of(node) else {
                    continue;
                };
                let stmt = func.stmt(id).expect("stmt in cfg");
                hps_ir::visit::for_each_expr_in_stmt(stmt, &mut |e| {
                    if let Expr::Call { callee, args } = e {
                        for (i, arg) in args.iter().enumerate() {
                            let t = ta.expr_taint_at(node, arg, &model);
                            if !t.is_empty() {
                                arg_updates.push((callee.func(), i, t));
                            }
                        }
                    }
                });
                for &v in &ta.vars {
                    if matches!(v, VarId::Global(_) | VarId::Field(..)) {
                        let t = ta.var_taint_after(node, v, &model);
                        if !t.is_empty() {
                            shared_updates.push((v, t));
                        }
                    }
                }
            }
            changed |= ret_taint
                .get_mut(f)
                .expect("summary")
                .union_with(&ta.ret_taint);
            for (callee, i, t) in arg_updates {
                if let Some(p) = param_taint.get_mut(&callee).and_then(|ps| ps.get_mut(i)) {
                    changed |= p.union_with(&t);
                }
            }
            for (v, t) in shared_updates {
                changed |= shared
                    .entry(v)
                    .or_insert_with(|| BitSet::new(n))
                    .union_with(&t);
            }
            analyses.insert(*f, ta);
        }
        if !changed {
            break;
        }
    }
    let per_func = prepared
        .iter()
        .map(|(f, cfg, _)| {
            let ta = &analyses[f];
            let model = RefModel {
                n,
                frag_labels: &frag_labels,
                params: &param_taint[f],
                shared: &shared,
                ret_taint: &ret_taint,
                modref: &modref,
            };
            let func = open.func(*f);
            let mut tainted_stmts = Vec::new();
            let mut stmts_per_label = vec![0usize; n];
            for node in cfg.node_ids() {
                let Some(id) = cfg.stmt_of(node) else {
                    continue;
                };
                let stmt = func.stmt(id).expect("stmt in cfg");
                let mut present = BitSet::new(n);
                hps_ir::visit::for_each_expr_in_stmt(stmt, &mut |e| {
                    present.union_with(&ta.expr_taint_at(node, e, &model));
                });
                let eff =
                    hps_analysis::vars::stmt_effect(func, stmt, &mut |_| (Vec::new(), Vec::new()));
                for (v, _) in &eff.defs {
                    present.union_with(&ta.var_taint_after(node, *v, &model));
                }
                if !present.is_empty() {
                    tainted_stmts.push(id);
                }
                for label in present.iter() {
                    stmts_per_label[label] += 1;
                }
            }
            tainted_stmts.sort();
            tainted_stmts.dedup();
            (
                *f,
                FuncFlow {
                    tainted_stmts,
                    stmts_per_label,
                },
            )
        })
        .collect();
    OpenFlow {
        labels,
        per_func,
        rounds,
    }
}

/// Compares both analyses on one split under both label sets; returns the
/// number of comparisons made.
fn check_split(bench: &str, level: usize, hardened: bool, split: &SplitResult) -> usize {
    let facts = analyze_fragments(&split.hidden.components);
    let declared = declared_ilps(split);
    let mut audit_set: Vec<_> = facts
        .values()
        .filter(|f| f.ret_hidden)
        .map(|f| (f.component, f.label))
        .collect();
    audit_set.sort();
    let mut every: Vec<_> = facts.keys().copied().collect();
    every.sort();
    for (name, set) in [("audit", &audit_set), ("every-fragment", &every)] {
        let modref = ModRef::compute(&split.open);
        let fast = analyze_open_flow(&split.open, &modref, set, &declared);
        let slow = reference_flow(&split.open, set, &declared);
        assert_eq!(
            fast, slow,
            "{bench} level {level} hardened={hardened} labels={name}: incremental \
             analysis disagrees with the re-solve-everything reference"
        );
    }
    2
}

#[test]
fn incremental_open_flow_matches_full_resolve_on_every_ladder_level() {
    let mut compared = 0;
    for bench in hps_suite::benchmarks() {
        let program = bench.program().expect("suite program parses");
        let mut ladder =
            OptimizeLadder::new(&program, SeedRule::default(), PlanCostModel::default());
        loop {
            let plan = ladder.outcome(None).plan;
            if !plan.targets.is_empty() {
                let mut split = split_program(&program, &plan).expect("ladder plans split");
                compared += check_split(bench.name, ladder.level(), false, &split);
                // Harden exactly as the planner does: the weak (Constant or
                // Linear) leak groups of the unhardened split. The analysis
                // here is the uncached one; the ladder's shared facts must
                // give the same report.
                let before = analyze_split(&program, &split);
                assert_eq!(before, analyze_split_with(ladder.facts(), &split));
                let mut weak: Vec<_> = before
                    .iter()
                    .filter(|c| matches!(c.ac.ty, AcType::Constant | AcType::Linear))
                    .map(|c| (c.ilp.component, c.ilp.label))
                    .collect();
                weak.sort();
                weak.dedup();
                harden_split(&mut split, &weak);
                assert_eq!(
                    analyze_split(&program, &split),
                    analyze_split_with(ladder.facts(), &split)
                );
                compared += check_split(bench.name, ladder.level(), true, &split);
            }
            if !ladder.descend() {
                break;
            }
        }
    }
    assert!(compared > 0, "the ladders produced no splits to compare");
}
