//! Property tests for the taint lattice and propagation engine:
//!
//! * the join (bit-set union) is commutative, associative, idempotent and
//!   monotone — the algebraic laws the fixpoint argument rests on;
//! * fixpoint iteration terminates on randomly generated structured CFGs
//!   (nested loops and branches) and the computed solution really is a
//!   post-fixpoint: one more full pass changes nothing;
//! * the solution is sound for the generated seeds: every seeded
//!   statement's defined variable carries its label immediately after the
//!   statement executes;
//! * the dense engine agrees with a straightforward reference solver (one
//!   heap-allocated set per variable per node, every model hook queried on
//!   every pass) on every node, variable, return taint, tainted statement
//!   and fixpoint verdict, for label universes of 0 to 130 labels, cold
//!   and warm-started from a smaller model.

use hps_analysis::taint::{TaintAnalysis, TaintModel};
use hps_analysis::{BitSet, Cfg, ControlDeps, DomTree, VarId};
use hps_ir::{FuncId, GlobalId, Stmt, StmtId};
use proptest::prelude::*;
use std::fmt::Write;

const LABELS: usize = 8;

fn bitset_strategy() -> BoxedStrategy<BitSet> {
    prop::collection::vec(0usize..LABELS, 0..6)
        .prop_map(|bits| {
            let mut s = BitSet::new(LABELS);
            for b in bits {
                s.insert(b);
            }
            s
        })
        .boxed()
}

fn join(a: &BitSet, b: &BitSet) -> BitSet {
    let mut out = a.clone();
    out.union_with(b);
    out
}

fn leq(a: &BitSet, b: &BitSet) -> bool {
    a.iter().all(|x| b.contains(x))
}

/// Structured-function generator mirroring `tests/invariants.rs`.
#[derive(Debug, Clone)]
enum GS {
    Assign(u8),
    /// `v = g(v, x)` with one of two callees.
    Call(u8, u8),
    /// `gl = gl + v`.
    StoreGlobal(u8),
    /// `v = v + gl`.
    LoadGlobal(u8),
    /// `if (v > 7) { return v; }`.
    Return(u8),
    If(Vec<GS>, Vec<GS>),
    Loop(Vec<GS>),
}

fn gs_strategy(depth: u32) -> BoxedStrategy<GS> {
    if depth == 0 {
        return (0u8..4).prop_map(GS::Assign).boxed();
    }
    let block = prop::collection::vec(gs_strategy(depth - 1), 1..4);
    prop_oneof![
        3 => (0u8..4).prop_map(GS::Assign),
        1 => (0u8..4, 0u8..2).prop_map(|(v, g)| GS::Call(v, g)),
        1 => (0u8..4).prop_map(GS::StoreGlobal),
        1 => (0u8..4).prop_map(GS::LoadGlobal),
        1 => (0u8..4).prop_map(GS::Return),
        1 => (block.clone(), block.clone()).prop_map(|(t, e)| GS::If(t, e)),
        1 => block.prop_map(GS::Loop),
    ]
    .boxed()
}

fn count_loops(stmts: &[GS]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            GS::Loop(b) => 1 + count_loops(b),
            GS::If(t, e) => count_loops(t) + count_loops(e),
            GS::Assign(_)
            | GS::Call(..)
            | GS::StoreGlobal(_)
            | GS::LoadGlobal(_)
            | GS::Return(_) => 0,
        })
        .sum()
}

fn render(stmts: &[GS], out: &mut String, indent: usize, loops: &mut usize) {
    let pad = "    ".repeat(indent);
    for s in stmts {
        match s {
            GS::Assign(v) => {
                let _ = writeln!(out, "{pad}v{v} = v{v} + v{};", (v + 1) % 4);
            }
            GS::Call(v, g) => {
                let _ = writeln!(out, "{pad}v{v} = g{g}(v{v}, x);");
            }
            GS::StoreGlobal(v) => {
                let _ = writeln!(out, "{pad}gl = gl + v{v};");
            }
            GS::LoadGlobal(v) => {
                let _ = writeln!(out, "{pad}v{v} = v{v} + gl;");
            }
            GS::Return(v) => {
                let _ = writeln!(out, "{pad}if (v{v} > 7) {{ return v{v}; }}");
            }
            GS::If(t, e) => {
                let _ = writeln!(out, "{pad}if (v0 < v1) {{");
                render(t, out, indent + 1, loops);
                let _ = writeln!(out, "{pad}}} else {{");
                render(e, out, indent + 1, loops);
                let _ = writeln!(out, "{pad}}}");
            }
            GS::Loop(b) => {
                let c = *loops;
                *loops += 1;
                let _ = writeln!(out, "{pad}c{c} = 0;");
                let _ = writeln!(out, "{pad}while (c{c} < 3) {{");
                render(b, out, indent + 1, loops);
                let _ = writeln!(out, "{}c{c} = c{c} + 1;", "    ".repeat(indent + 1));
                let _ = writeln!(out, "{pad}}}");
            }
        }
    }
}

/// Renders `f` (function 0) plus the two callees `g0` (which writes the
/// global `gl`) and `g1`.
fn build(stmts: &[GS]) -> hps_ir::Program {
    let mut src = String::from("global gl: int = 0;\nfn f(x: int) -> int {\n");
    for v in 0..4 {
        let _ = writeln!(src, "    var v{v}: int = {v};");
    }
    for c in 0..count_loops(stmts) {
        let _ = writeln!(src, "    var c{c}: int;");
    }
    let mut loops = 0;
    render(stmts, &mut src, 1, &mut loops);
    src.push_str("    return v0;\n}\n");
    src.push_str("fn g0(a: int, b: int) -> int { gl = gl + a; return a + b; }\n");
    src.push_str("fn g1(a: int, b: int) -> int { return a * b; }\n");
    hps_lang::parse(&src).expect("generated program parses")
}

/// Seeds a label at every statement whose id is ≡ its label (mod stride).
struct StrideSeeds {
    stride: usize,
    implicit: bool,
}

impl TaintModel for StrideSeeds {
    fn labels(&self) -> usize {
        LABELS
    }
    fn gen(&self, stmt: &Stmt, out: &mut BitSet) {
        let id = stmt.id.index();
        if id.is_multiple_of(self.stride) {
            out.insert(id % LABELS);
        }
    }
    fn implicit_flows(&self) -> bool {
        self.implicit
    }
}

/// The reference solver the dense engine is checked against: the textbook
/// formulation with one heap-allocated [`BitSet`] per variable per node,
/// fresh states every pass and every model hook queried at every transfer.
struct Oracle {
    vars: Vec<VarId>,
    n_labels: usize,
    iterations: usize,
    in_states: Vec<Vec<BitSet>>,
    out_states: Vec<Vec<BitSet>>,
    effects: Vec<hps_analysis::vars::StmtEffect>,
    ret_taint: BitSet,
}

impl Oracle {
    fn compute(
        func: &hps_ir::Function,
        cfg: &Cfg,
        control: &ControlDeps,
        model: &dyn TaintModel,
    ) -> Oracle {
        let n_labels = model.labels();
        let mut call_effect = |callee: FuncId| model.call_effect(callee);
        let effects: Vec<_> = cfg
            .node_ids()
            .map(|node| match cfg.stmt_of(node) {
                Some(id) => hps_analysis::vars::stmt_effect(
                    func,
                    func.stmt(id).expect("stmt in cfg"),
                    &mut call_effect,
                ),
                None => hps_analysis::vars::StmtEffect::default(),
            })
            .collect();
        let mut vars: Vec<VarId> = (0..func.locals.len())
            .map(|l| VarId::Local(hps_ir::LocalId::new(l)))
            .collect();
        for eff in &effects {
            vars.extend(eff.defs.iter().map(|(v, _)| *v));
            vars.extend(eff.uses.iter().copied());
        }
        vars.sort();
        vars.dedup();
        let bottom = vec![BitSet::new(n_labels); vars.len()];
        let mut oracle = Oracle {
            vars,
            n_labels,
            iterations: 0,
            in_states: vec![bottom.clone(); cfg.len()],
            out_states: vec![bottom; cfg.len()],
            effects,
            ret_taint: BitSet::new(n_labels),
        };
        let order = cfg.reverse_postorder();
        loop {
            oracle.iterations += 1;
            if !oracle.pass(func, cfg, control, model, &order) {
                break;
            }
        }
        for node in cfg.node_ids() {
            if let Some(stmt) = cfg.stmt_of(node).and_then(|id| func.stmt(id)) {
                if let hps_ir::StmtKind::Return(Some(e)) = &stmt.kind {
                    let t = oracle.expr_taint_at(node, e, model);
                    oracle.ret_taint.union_with(&t);
                }
            }
        }
        oracle
    }

    fn pass(
        &mut self,
        func: &hps_ir::Function,
        cfg: &Cfg,
        control: &ControlDeps,
        model: &dyn TaintModel,
        order: &[usize],
    ) -> bool {
        let mut changed = false;
        for &node in order {
            if node != 0 {
                let mut joined = vec![BitSet::new(self.n_labels); self.vars.len()];
                for &p in cfg.preds(node) {
                    for (j, o) in joined.iter_mut().zip(&self.out_states[p]) {
                        j.union_with(o);
                    }
                }
                if joined != self.in_states[node] {
                    self.in_states[node] = joined;
                    changed = true;
                }
            }
            let out = self.transfer(func, cfg, control, model, node);
            if out != self.out_states[node] {
                self.out_states[node] = out;
                changed = true;
            }
        }
        changed
    }

    fn transfer(
        &self,
        func: &hps_ir::Function,
        cfg: &Cfg,
        control: &ControlDeps,
        model: &dyn TaintModel,
        node: usize,
    ) -> Vec<BitSet> {
        let mut state = self.in_states[node].clone();
        let Some(id) = cfg.stmt_of(node) else {
            return state;
        };
        let stmt = func.stmt(id).expect("stmt in cfg");
        let eff = &self.effects[node];
        if eff.defs.is_empty() {
            return state;
        }
        let mut rhs = BitSet::new(self.n_labels);
        for u in &eff.uses {
            rhs.union_with(&self.read(&self.in_states[node], *u, model));
        }
        hps_ir::visit::for_each_expr_in_stmt(stmt, &mut |e| {
            e.walk(&mut |e| {
                if let hps_ir::Expr::Call { callee, .. } = e {
                    model.call_result(callee.func(), &mut rhs);
                }
            });
        });
        model.gen(stmt, &mut rhs);
        if model.implicit_flows() {
            for b in control.transitive_controllers(node) {
                let Some(cond_stmt) = cfg.stmt_of(b).and_then(|id| func.stmt(id)) else {
                    continue;
                };
                if let hps_ir::StmtKind::If { cond, .. } | hps_ir::StmtKind::While { cond, .. } =
                    &cond_stmt.kind
                {
                    rhs.union_with(&self.expr_taint_at(b, cond, model));
                }
            }
        }
        for (v, strong) in &eff.defs {
            let i = self.vars.binary_search(v).expect("defs are tracked");
            if *strong {
                state[i] = rhs.clone();
            } else {
                state[i].union_with(&rhs);
            }
        }
        state
    }

    fn read(&self, state: &[BitSet], v: VarId, model: &dyn TaintModel) -> BitSet {
        let mut t = match self.vars.binary_search(&v) {
            Ok(i) => state[i].clone(),
            Err(_) => BitSet::new(self.n_labels),
        };
        model.ambient(v, &mut t);
        t
    }

    fn expr_taint_at(&self, node: usize, e: &hps_ir::Expr, model: &dyn TaintModel) -> BitSet {
        let mut t = BitSet::new(self.n_labels);
        let state = &self.in_states[node];
        e.walk(&mut |e| match e {
            hps_ir::Expr::Local(l) => {
                t.union_with(&self.read(state, VarId::Local(*l), model));
            }
            hps_ir::Expr::Global(g) => {
                t.union_with(&self.read(state, VarId::Global(*g), model));
            }
            hps_ir::Expr::FieldGet { class, field, .. } => {
                t.union_with(&self.read(state, VarId::Field(*class, *field), model));
            }
            hps_ir::Expr::Call { callee, .. } => model.call_result(callee.func(), &mut t),
            _ => {}
        });
        t
    }

    fn var_taint_before(&self, node: usize, v: VarId, model: &dyn TaintModel) -> BitSet {
        self.read(&self.in_states[node], v, model)
    }

    fn var_taint_after(&self, node: usize, v: VarId, model: &dyn TaintModel) -> BitSet {
        self.read(&self.out_states[node], v, model)
    }

    fn tainted_stmts(&self, cfg: &Cfg) -> Vec<StmtId> {
        cfg.node_ids()
            .filter_map(|node| match cfg.node(node) {
                hps_analysis::CfgNode::Stmt(id)
                    if self.in_states[node].iter().any(|t| !t.is_empty()) =>
                {
                    Some(id)
                }
                _ => None,
            })
            .collect()
    }

    fn is_fixpoint(
        &self,
        func: &hps_ir::Function,
        cfg: &Cfg,
        control: &ControlDeps,
        model: &dyn TaintModel,
    ) -> bool {
        let mut probe = Oracle {
            vars: self.vars.clone(),
            n_labels: self.n_labels,
            iterations: 0,
            in_states: self.in_states.clone(),
            out_states: self.out_states.clone(),
            effects: self.effects.clone(),
            ret_taint: self.ret_taint.clone(),
        };
        !probe.pass(func, cfg, control, model, &cfg.reverse_postorder())
    }
}

/// Label universe sizes the differential test cycles through: empty, one
/// word, and every word-boundary case up to three words.
const LABEL_COUNTS: [usize; 6] = [0, 1, 63, 64, 65, 130];

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A pseudo-random model: every hook answers with labels hashed from one
/// seed per layer, so adding a layer grows every answer (the shape the
/// open-flow analysis's warm re-solve relies on). `g0` writes and
/// reads the global `gl`.
struct RandModel {
    n: usize,
    layers: Vec<u64>,
    implicit: bool,
}

impl RandModel {
    fn add(&self, domain: u64, key: u64, out: &mut BitSet) {
        if self.n == 0 {
            return;
        }
        for &seed in &self.layers {
            let h = splitmix(seed ^ splitmix(domain.wrapping_mul(1 << 40) ^ key));
            if h.is_multiple_of(3) {
                continue;
            }
            out.insert((h >> 8) as usize % self.n);
            if h.is_multiple_of(5) {
                out.insert((h >> 24) as usize % self.n);
                out.insert((h >> 40) as usize % self.n);
            }
        }
    }
}

fn var_key(v: VarId) -> u64 {
    match v {
        VarId::Local(l) => l.index() as u64 * 4,
        VarId::Global(g) => g.index() as u64 * 4 + 1,
        VarId::Field(c, f) => (c.index() as u64 * 64 + f.index() as u64) * 4 + 2,
    }
}

impl TaintModel for RandModel {
    fn labels(&self) -> usize {
        self.n
    }
    fn gen(&self, stmt: &Stmt, out: &mut BitSet) {
        self.add(1, stmt.id.index() as u64, out);
    }
    fn ambient(&self, v: VarId, out: &mut BitSet) {
        self.add(2, var_key(v), out);
    }
    fn call_result(&self, callee: FuncId, out: &mut BitSet) {
        self.add(3, callee.index() as u64, out);
    }
    fn call_effect(&self, callee: FuncId) -> (Vec<VarId>, Vec<VarId>) {
        if callee == FuncId::new(1) {
            let gl = VarId::Global(GlobalId::new(0));
            (vec![gl], vec![gl])
        } else {
            (Vec::new(), Vec::new())
        }
    }
    fn implicit_flows(&self) -> bool {
        self.implicit
    }
}

/// Asserts that `dense` and `oracle` answer every query the same way.
fn assert_agree(
    dense: &TaintAnalysis,
    oracle: &Oracle,
    func: &hps_ir::Function,
    cfg: &Cfg,
    control: &ControlDeps,
    model: &RandModel,
) {
    assert_eq!(dense.vars, oracle.vars);
    assert_eq!(dense.n_labels, oracle.n_labels);
    let mut probes = dense.vars.clone();
    probes.push(VarId::Global(GlobalId::new(0)));
    probes.push(VarId::Local(hps_ir::LocalId::new(func.locals.len())));
    for node in cfg.node_ids() {
        for &v in &probes {
            assert_eq!(
                dense.var_taint_before(node, v, model),
                oracle.var_taint_before(node, v, model),
                "IN of {v:?} at node {node}"
            );
            assert_eq!(
                dense.var_taint_after(node, v, model),
                oracle.var_taint_after(node, v, model),
                "OUT of {v:?} at node {node}"
            );
        }
    }
    assert_eq!(dense.ret_taint, oracle.ret_taint);
    assert_eq!(dense.tainted_stmts(cfg), oracle.tainted_stmts(cfg));
    assert_eq!(
        dense.is_fixpoint(func, cfg, control, model),
        oracle.is_fixpoint(func, cfg, control, model)
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn join_is_commutative(a in bitset_strategy(), b in bitset_strategy()) {
        prop_assert_eq!(join(&a, &b), join(&b, &a));
    }

    #[test]
    fn join_is_associative(
        a in bitset_strategy(),
        b in bitset_strategy(),
        c in bitset_strategy()
    ) {
        prop_assert_eq!(join(&join(&a, &b), &c), join(&a, &join(&b, &c)));
    }

    #[test]
    fn join_is_idempotent_with_bottom_identity(a in bitset_strategy()) {
        prop_assert_eq!(join(&a, &a), a.clone());
        prop_assert_eq!(join(&a, &BitSet::new(LABELS)), a);
    }

    #[test]
    fn join_is_monotone(
        a in bitset_strategy(),
        b in bitset_strategy(),
        c in bitset_strategy()
    ) {
        // a ⊑ a ⊔ b, and joining a common element preserves order.
        let ab = join(&a, &b);
        prop_assert!(leq(&a, &ab));
        prop_assert!(leq(&b, &ab));
        if leq(&a, &b) {
            prop_assert!(leq(&join(&a, &c), &join(&b, &c)));
        }
    }

    #[test]
    fn fixpoint_terminates_on_random_cfgs(
        stmts in prop::collection::vec(gs_strategy(2), 1..6),
        stride in 1usize..4,
        implicit in any::<bool>(),
    ) {
        let program = build(&stmts);
        let f = program.func(FuncId::new(0));
        let cfg = Cfg::build(f);
        let postdom = DomTree::postdominators(&cfg);
        let control = ControlDeps::compute(&cfg, &postdom);
        let model = StrideSeeds { stride, implicit };
        // `compute` panics internally if iteration exceeds its lattice-height
        // bound; reaching this point at all is the termination property.
        let ta = TaintAnalysis::compute(f, &cfg, &control, &model);
        prop_assert!(ta.iterations <= 2 + cfg.len() * (ta.vars.len() + 1) * (LABELS + 1));
        // The result is a genuine post-fixpoint: one more pass is a no-op.
        prop_assert!(ta.is_fixpoint(f, &cfg, &control, &model));
    }

    #[test]
    fn seeded_defs_carry_their_label(
        stmts in prop::collection::vec(gs_strategy(2), 1..6),
        stride in 1usize..4,
    ) {
        let program = build(&stmts);
        let f = program.func(FuncId::new(0));
        let cfg = Cfg::build(f);
        let postdom = DomTree::postdominators(&cfg);
        let control = ControlDeps::compute(&cfg, &postdom);
        let model = StrideSeeds { stride, implicit: true };
        let ta = TaintAnalysis::compute(f, &cfg, &control, &model);
        hps_ir::visit::for_each_stmt(&f.body, &mut |stmt| {
            if stmt.id.index() % stride != 0 {
                return;
            }
            if let hps_ir::StmtKind::Assign { place: hps_ir::Place::Local(l), .. } = &stmt.kind {
                let node = cfg.node_of(stmt.id);
                let after = ta.var_taint_after(node, hps_analysis::VarId::Local(*l), &model);
                assert!(
                    after.contains(stmt.id.index() % LABELS),
                    "stmt {:?} lost its seeded label",
                    StmtId::new(stmt.id.index())
                );
            }
        });
    }

    #[test]
    fn dense_engine_matches_oracle(
        stmts in prop::collection::vec(gs_strategy(2), 1..6),
        labels in 0usize..LABEL_COUNTS.len(),
        seed in any::<u64>(),
        grow in any::<u64>(),
        implicit in any::<bool>(),
    ) {
        let program = build(&stmts);
        let f = program.func(FuncId::new(0));
        let cfg = Cfg::build(f);
        let postdom = DomTree::postdominators(&cfg);
        let control = ControlDeps::compute(&cfg, &postdom);
        let n = LABEL_COUNTS[labels];
        let small = RandModel { n, layers: vec![seed], implicit };
        let dense = TaintAnalysis::compute(f, &cfg, &control, &small);
        let oracle = Oracle::compute(f, &cfg, &control, &small);
        assert_agree(&dense, &oracle, f, &cfg, &control, &small);
        prop_assert_eq!(dense.iterations, oracle.iterations);
        prop_assert!(dense.is_fixpoint(f, &cfg, &control, &small));

        // Grow the model: the stale solution's fixpoint verdict agrees, and
        // a warm re-solve lands on the cold solution of the grown model.
        let big = RandModel { n, layers: vec![seed, grow], implicit };
        prop_assert_eq!(
            dense.is_fixpoint(f, &cfg, &control, &big),
            oracle.is_fixpoint(f, &cfg, &control, &big)
        );
        let mut warm = dense.clone();
        warm.update(f, &cfg, &big);
        let oracle_big = Oracle::compute(f, &cfg, &control, &big);
        assert_agree(&warm, &oracle_big, f, &cfg, &control, &big);
    }
}
