//! Budget-aware split planning: the cost model and the deterministic
//! search over the hide-set space.
//!
//! The paper's pipeline picks seeds heuristically and stops; this module
//! closes the loop (ROADMAP item 1, after PrettyCat's guarantee-controlled
//! partitioning): given an overhead **budget**, search the space of seed
//! choices — per-function candidate rankings from [`ranked_seeds_with`] —
//! for the most secure combination whose predicted (and, when a measurer
//! is attached, measured) overhead fits the budget.
//!
//! The search is fully deterministic:
//!
//! 1. Functions come from [`select_functions`] in declaration order; each
//!    gets its candidate ranking from [`ranked_seeds_with`] (score
//!    descending, declaration-order tie-break). If the cost-restricted
//!    rule yields nothing anywhere, the search falls back to
//!    [`SeedRule::MaxComplexity`] (recorded in the outcome).
//! 2. Level 0 takes every function's best candidate — exactly the paper
//!    pipeline ([`default_targets`]).
//! 3. Each downgrade **level** applies one more move: the function with
//!    the highest predicted overhead contribution (ties: lowest function
//!    id) steps down to its next-ranked seed, or is dropped from the plan
//!    once its candidates are exhausted. Levels are monotone, so a caller
//!    (the `hps-audit` `Planner`) can walk level 0, 1, 2, … until the
//!    *measured* overhead fits the budget.
//!
//! Prediction charges transport only — the hidden side executes the same
//! statements the original would — using [`PlanCostModel`]: one round
//! trip per non-deferred hidden call (deferred calls coalesce
//! `batch_factor`-to-one, per the `hps-core` defer analysis), per-call
//! overhead, and a `loop_trip` multiplier per enclosing non-constant-trip
//! loop. [`PlanCostModel::calibrated`] replaces the round-trip weight with
//! the telemetry-measured cost breakdown of a real run.
//!
//! [`ranked_seeds_with`]: crate::ranked_seeds_with

use crate::choose::{rank_seeds, SeedCandidate, SeedRule};
use crate::lattice::Ac;
use hps_analysis::ProgramFacts;
use hps_core::{select_functions, split_program, SplitError, SplitPlan, SplitResult, SplitTarget};
use hps_ir::{FuncId, Function, LocalId, Program, StmtKind};

/// Per-operation weights for the static overhead prediction, in the same
/// abstract units as the runtime's deterministic cost model.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlanCostModel {
    /// Units per open↔hidden round trip (default: the runtime cost
    /// model's LAN round trip, 3000 units).
    pub rtt_units: u64,
    /// Per-call fixed overhead (frame + marshalling), both sides.
    pub call_units: u64,
    /// Assumed iterations of a loop whose trip count is not a
    /// compile-time constant.
    pub loop_trip: u64,
    /// Deferred calls coalesced into one round trip by a batching
    /// runtime.
    pub batch_factor: u64,
    /// Units charged per statement when statically estimating the
    /// original program's run cost (no measurement attached).
    pub stmt_units: u64,
}

impl Default for PlanCostModel {
    fn default() -> PlanCostModel {
        PlanCostModel {
            rtt_units: 3000,
            call_units: 25,
            loop_trip: 16,
            batch_factor: 4,
            stmt_units: 3,
        }
    }
}

impl PlanCostModel {
    /// Calibrates the round-trip weight from a measured telemetry cost
    /// breakdown: the observed round-trip units per interaction replace
    /// `self.rtt_units`, so later predictions speak the measured run's
    /// language. Every other weight (`call_units`, `loop_trip`,
    /// `batch_factor`, `stmt_units`) is kept from `self` — a
    /// caller-supplied model survives calibration.
    pub fn calibrated(&self, measured: &MeasuredCost) -> PlanCostModel {
        let mut m = self.clone();
        if measured.interactions > 0 && measured.rtt_units > 0 {
            m.rtt_units = measured.rtt_units / measured.interactions;
        }
        m
    }
}

/// A measured cost breakdown of one split run against its original, in
/// the runtime's deterministic virtual cost units (the telemetry counters
/// `hps_run_cost_units_total` / `hps_rtt_cost_units_total` /
/// `hps_server_cost_units_total`). Produced by whatever measurer the
/// caller attaches — the `hps-audit` `Planner` takes a closure so this
/// crate stays independent of the runtime.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MeasuredCost {
    /// Critical-path cost of the original program.
    pub base_units: u64,
    /// Critical-path cost of the split program (batched transport).
    pub split_units: u64,
    /// Round-trip share of the split run.
    pub rtt_units: u64,
    /// Secure-device share of the split run.
    pub server_units: u64,
    /// Open↔hidden round trips.
    pub interactions: u64,
}

impl MeasuredCost {
    /// Measured overhead percentage, the paper's Table 5 column.
    pub fn overhead_percent(&self) -> f64 {
        if self.base_units == 0 {
            return 0.0;
        }
        (self.split_units as f64 - self.base_units as f64) / self.base_units as f64 * 100.0
    }

    /// Open-side share of the split run's critical path.
    pub fn open_units(&self) -> u64 {
        self.split_units
            .saturating_sub(self.rtt_units)
            .saturating_sub(self.server_units)
    }
}

/// The statically predicted cost of a split.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct PredictedCost {
    /// Hidden-call sites in the open program.
    pub call_sites: usize,
    /// Sites inside non-constant-trip open loops.
    pub in_loop_sites: usize,
    /// Estimated dynamic round trips (loop-weighted, deferred calls
    /// coalesced).
    pub interactions: u64,
    /// Estimated extra units versus the original (transport + call
    /// overhead; hidden execution replaces open execution).
    pub extra_units: u64,
    /// The baseline the percentage is taken against: measured when a
    /// measurer calibrated the model, otherwise a static estimate.
    pub base_units: u64,
}

impl PredictedCost {
    /// Predicted overhead percentage.
    pub fn overhead_percent(&self) -> f64 {
        if self.base_units == 0 {
            return 0.0;
        }
        self.extra_units as f64 / self.base_units as f64 * 100.0
    }
}

/// Statement-weight walk shared by the base estimate and the per-site
/// weights: every statement counts `loop_trip^depth` (depth capped at 3)
/// for its enclosing non-constant-trip loops.
fn loop_weight(model: &PlanCostModel, depth: usize) -> u64 {
    model.loop_trip.saturating_pow(depth.min(3) as u32)
}

/// Statically estimates the original program's run cost in model units
/// (used as the prediction baseline when no measurement is attached).
pub fn estimate_base_units(program: &Program, model: &PlanCostModel) -> u64 {
    let mut total = 0u64;
    for func in &program.functions {
        let structure = hps_analysis::StructInfo::compute(func);
        let loops = hps_analysis::LoopInfo::compute(func, &structure);
        hps_ir::visit::for_each_stmt(&func.body, &mut |stmt| {
            let depth = structure
                .enclosing_loops(stmt.id)
                .iter()
                .filter(|&&l| !constant_trip(&loops, l))
                .count();
            total = total.saturating_add(model.stmt_units * loop_weight(model, depth));
        });
    }
    total.max(1)
}

fn constant_trip(loops: &hps_analysis::LoopInfo, l: hps_ir::StmtId) -> bool {
    matches!(
        loops.loop_at(l).map(|m| &m.trip),
        Some(hps_analysis::TripCount::Counted { init, bound, .. })
            if bound.as_const().is_some()
                && init.as_ref().is_some_and(|e| e.as_const().is_some())
    )
}

fn has_hidden_call(func: &Function) -> bool {
    let mut found = false;
    hps_ir::visit::for_each_stmt(&func.body, &mut |stmt| {
        found |= matches!(stmt.kind, StmtKind::HiddenCall { .. });
    });
    found
}

/// Predicts the overhead of a split. `base_units` is the baseline for the
/// percentage: pass a measured original-run cost when available, `None`
/// for the static estimate. Only the split's changed functions can hold
/// hidden calls; the rest add nothing and are not analyzed.
pub fn predict(
    program: &Program,
    split: &SplitResult,
    model: &PlanCostModel,
    base_units: Option<u64>,
) -> PredictedCost {
    let mut call_sites = 0usize;
    let mut in_loop_sites = 0usize;
    let mut demand_weight = 0u64;
    let mut deferred_weight = 0u64;
    let funcs = split.changed_funcs.iter().map(|&fid| split.open.func(fid));
    for func in funcs.filter(|f| has_hidden_call(f)) {
        let structure = hps_analysis::StructInfo::compute(func);
        let loops = hps_analysis::LoopInfo::compute(func, &structure);
        hps_ir::visit::for_each_stmt(&func.body, &mut |stmt| {
            if let StmtKind::HiddenCall { deferred, .. } = &stmt.kind {
                let depth = structure
                    .enclosing_loops(stmt.id)
                    .iter()
                    .filter(|&&l| !constant_trip(&loops, l))
                    .count();
                call_sites += 1;
                if depth > 0 {
                    in_loop_sites += 1;
                }
                let w = loop_weight(model, depth);
                if *deferred {
                    deferred_weight = deferred_weight.saturating_add(w);
                } else {
                    demand_weight = demand_weight.saturating_add(w);
                }
            }
        });
    }
    let batch = model.batch_factor.max(1);
    let interactions = demand_weight + deferred_weight.div_ceil(batch);
    let extra_units = interactions.saturating_mul(model.rtt_units)
        + (demand_weight + deferred_weight).saturating_mul(model.call_units);
    PredictedCost {
        call_sites,
        in_loop_sites,
        interactions,
        extra_units,
        base_units: base_units.unwrap_or_else(|| estimate_base_units(program, model)),
    }
}

/// One function's chosen seed in an optimized plan.
#[derive(Clone, PartialEq, Debug)]
pub struct SeedChoice {
    /// The split function.
    pub func: FuncId,
    /// Its name (for reports).
    pub func_name: String,
    /// The chosen seed variable.
    pub seed: LocalId,
    /// Its name (for reports).
    pub seed_name: String,
    /// Position in the function's candidate ranking (0 = most secure).
    pub rank: usize,
    /// Number of viable candidates the function had.
    pub n_candidates: usize,
    /// The candidate's maximum ILP arithmetic complexity.
    pub max_ac: Ac,
    /// How many ILPs the candidate's split creates.
    pub n_ilps: usize,
}

/// What an [`OptimizeLadder`] plans at its current downgrade level.
#[derive(Clone, PartialEq, Debug)]
pub struct OptimizeOutcome {
    /// The plan to split with.
    pub plan: SplitPlan,
    /// Chosen seed per function, in plan order.
    pub choices: Vec<SeedChoice>,
    /// Functions dropped from the plan by downgrade moves (names).
    pub dropped: Vec<String>,
    /// The seed rule actually used.
    pub rule: SeedRule,
    /// Whether the cost-restricted rule found nothing and the search fell
    /// back to the unrestricted §4 rule.
    pub rule_fallback: bool,
    /// Predicted cost of the planned split.
    pub predicted: PredictedCost,
    /// Whether a further downgrade level would change the plan.
    pub more_moves: bool,
    /// The downgrade level this outcome realizes.
    pub level: usize,
}

/// The paper pipeline's plan — call-graph-cut function selection plus the
/// best-ranked seed per function — as a [`SplitPlan`]. This is exactly a
/// fresh [`OptimizeLadder`]'s level-0 plan and the plan behind every
/// pre-existing golden.
pub fn default_targets(program: &Program, rule: SeedRule) -> SplitPlan {
    let facts = ProgramFacts::new(program);
    SplitPlan::from_targets(
        select_functions(program)
            .into_iter()
            .filter_map(|func| {
                let seed = rank_seeds(&facts, func, rule, |_| ()).first()?.0.seed;
                Some(SplitTarget::Function { func, seed })
            })
            .collect(),
    )
}

/// The downgrade ladder as a reusable value: ranking, per-function
/// position and the contribution memo survive across levels, so a caller
/// walking levels 0, 1, 2, … (the `hps-audit` `Planner`) pays for each
/// candidate's single-target split *once* — while ranking it — and never
/// splits a single candidate again.
///
/// The ladder also owns the original program's [`ProgramFacts`]: ranking
/// grades every candidate against them, and a caller analyzing the
/// ladder's splits reads them through [`OptimizeLadder::facts`].
pub struct OptimizeLadder<'p> {
    program: &'p Program,
    facts: ProgramFacts<'p>,
    rule: SeedRule,
    rule_fallback: bool,
    model: PlanCostModel,
    ranked: Vec<(FuncId, Vec<SeedCandidate>)>,
    /// `contrib[i][rank]`: predicted extra units of ranked function `i`'s
    /// single-target split at `rank`, computed while ranking.
    contrib: Vec<Vec<u64>>,
    /// Current position per ranked function: `Some(rank)` or `None` once
    /// dropped from the plan.
    pos: Vec<Option<usize>>,
    /// The static base estimate `outcome(None)` predicts against.
    base_estimate: u64,
    dropped: Vec<String>,
    level: usize,
}

impl<'p> OptimizeLadder<'p> {
    /// Ranks every selectable function's seeds (with the cost-restricted →
    /// max-complexity fallback) and positions the ladder at level 0, the
    /// paper pipeline's maximum-security plan. Each candidate's
    /// contribution is predicted from the split that scored it.
    pub fn new(program: &'p Program, rule: SeedRule, model: PlanCostModel) -> OptimizeLadder<'p> {
        let selected = select_functions(program);
        let facts = ProgramFacts::new(program);
        let rank_all = |rule: SeedRule| -> Vec<(FuncId, Vec<(SeedCandidate, u64)>)> {
            selected
                .iter()
                .map(|&f| {
                    let scored = rank_seeds(&facts, f, rule, |split| {
                        predict(program, split, &model, Some(1)).extra_units
                    });
                    (f, scored)
                })
                .collect()
        };
        let mut used_rule = rule;
        let mut rule_fallback = false;
        let mut scored = rank_all(used_rule);
        if scored.iter().all(|(_, c)| c.is_empty()) && used_rule == SeedRule::CostRestricted {
            used_rule = SeedRule::MaxComplexity;
            rule_fallback = true;
            scored = rank_all(used_rule);
        }
        let mut ranked = Vec::new();
        let mut contrib = Vec::new();
        for (f, cands) in scored.into_iter().filter(|(_, c)| !c.is_empty()) {
            let (cands, extra) = cands.into_iter().unzip();
            ranked.push((f, cands));
            contrib.push(extra);
        }
        let pos = vec![Some(0); ranked.len()];
        let base_estimate = estimate_base_units(program, &model);
        OptimizeLadder {
            program,
            facts,
            rule: used_rule,
            rule_fallback,
            model,
            ranked,
            contrib,
            pos,
            base_estimate,
            dropped: Vec::new(),
            level: 0,
        }
    }

    /// Downgrade levels applied so far.
    pub fn level(&self) -> usize {
        self.level
    }

    /// The original program's shared analysis facts.
    pub fn facts(&self) -> &ProgramFacts<'p> {
        &self.facts
    }

    /// The static estimate of the original program's run cost that
    /// [`OptimizeLadder::outcome`] predicts against when no measured
    /// baseline is given ([`estimate_base_units`] under the ladder's
    /// model).
    pub fn base_estimate(&self) -> u64 {
        self.base_estimate
    }

    /// Applies one downgrade move: the most expensive still-planned
    /// function (ties: lowest function index) steps to its next-ranked
    /// seed, or is dropped once its candidates are exhausted. Returns
    /// `false` — without counting a level — when no move remains.
    pub fn descend(&mut self) -> bool {
        let mut worst: Option<(u64, usize)> = None;
        for i in 0..self.pos.len() {
            let Some(rank) = self.pos[i] else { continue };
            let c = self.contrib[i][rank];
            if worst.map(|(w, _)| c > w).unwrap_or(true) {
                worst = Some((c, i));
            }
        }
        let Some((_, i)) = worst else { return false };
        let rank = self.pos[i].expect("picked a planned function");
        if rank + 1 < self.ranked[i].1.len() {
            self.pos[i] = Some(rank + 1);
        } else {
            self.pos[i] = None;
            self.dropped
                .push(self.program.func(self.ranked[i].0).name.clone());
        }
        self.level += 1;
        true
    }

    /// The plan, choices and prediction at the ladder's current level.
    pub fn outcome(&self, base_units: Option<u64>) -> OptimizeOutcome {
        self.outcome_and_split(base_units).0
    }

    /// [`OptimizeLadder::outcome`] together with the split of its plan that
    /// the prediction was made on (or the split error, in which case the
    /// prediction is the default), so a caller that goes on to work with
    /// the split does not split the program again.
    pub fn outcome_and_split(
        &self,
        base_units: Option<u64>,
    ) -> (OptimizeOutcome, Result<SplitResult, SplitError>) {
        let mut targets = Vec::new();
        let mut choices = Vec::new();
        for (i, p) in self.pos.iter().enumerate() {
            let Some(rank) = *p else { continue };
            let (func, cands) = &self.ranked[i];
            let c = &cands[rank];
            targets.push(SplitTarget::Function {
                func: *func,
                seed: c.seed,
            });
            choices.push(SeedChoice {
                func: *func,
                func_name: self.program.func(*func).name.clone(),
                seed: c.seed,
                seed_name: self.program.func(*func).local(c.seed).name.clone(),
                rank,
                n_candidates: cands.len(),
                max_ac: c.max_ac.clone(),
                n_ilps: c.n_ilps,
            });
        }
        let plan = SplitPlan::from_targets(targets);
        let split = split_program(self.program, &plan);
        let predicted = match &split {
            Ok(split) => predict(
                self.program,
                split,
                &self.model,
                Some(base_units.unwrap_or(self.base_estimate)),
            ),
            Err(_) => PredictedCost::default(),
        };
        let outcome = OptimizeOutcome {
            plan,
            choices,
            dropped: self.dropped.clone(),
            rule: self.rule,
            rule_fallback: self.rule_fallback,
            predicted,
            more_moves: self.pos.iter().any(|p| p.is_some()),
            level: self.level,
        };
        (outcome, split)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::choose::ranked_seeds_with;

    const SRC: &str = "
        fn f(x: int, y: int) -> int {
            var a: int = 3 * x + y;
            var b: int = a * a;
            return b;
        }
        fn g(n: int) -> int {
            var t: int = n * 7;
            return t;
        }
        fn main() { print(f(1, 2) + g(3)); }";

    /// The outcome of a fresh ladder stepped down to `level`.
    fn outcome_at(p: &Program, model: &PlanCostModel, level: usize) -> OptimizeOutcome {
        let mut ladder = OptimizeLadder::new(p, SeedRule::CostRestricted, model.clone());
        for _ in 0..level {
            if !ladder.descend() {
                break;
            }
        }
        ladder.outcome(None)
    }

    #[test]
    fn level_zero_matches_paper_pipeline() {
        let p = hps_lang::parse(SRC).unwrap();
        let model = PlanCostModel::default();
        let out = outcome_at(&p, &model, 0);
        assert_eq!(out.plan, default_targets(&p, SeedRule::CostRestricted));
        assert!(!out.choices.is_empty());
        assert!(out.choices.iter().all(|c| c.rank == 0));
        assert_eq!(out.level, 0);
    }

    #[test]
    fn optimize_is_deterministic() {
        let p = hps_lang::parse(SRC).unwrap();
        let model = PlanCostModel::default();
        for level in 0..4 {
            let a = outcome_at(&p, &model, level);
            let b = outcome_at(&p, &model, level);
            assert_eq!(a, b, "level {level}");
        }
    }

    #[test]
    fn levels_eventually_exhaust_moves() {
        let p = hps_lang::parse(SRC).unwrap();
        let model = PlanCostModel::default();
        let mut level = 0;
        loop {
            let out = outcome_at(&p, &model, level);
            if !out.more_moves {
                assert!(out.plan.targets.is_empty());
                break;
            }
            level += 1;
            assert!(level < 64, "downgrade ladder must terminate");
        }
    }

    #[test]
    fn prediction_charges_transport() {
        let p = hps_lang::parse(SRC).unwrap();
        let model = PlanCostModel::default();
        let out = outcome_at(&p, &model, 0);
        let split = split_program(&p, &out.plan).unwrap();
        let pred = predict(&p, &split, &model, None);
        assert!(pred.call_sites > 0);
        assert!(pred.interactions > 0);
        assert!(pred.extra_units >= pred.interactions * model.rtt_units);
        assert!(pred.base_units > 0);
    }

    #[test]
    fn calibration_uses_measured_rtt_share() {
        let m = MeasuredCost {
            base_units: 1000,
            split_units: 1500,
            rtt_units: 400,
            server_units: 100,
            interactions: 8,
        };
        let model = PlanCostModel::default().calibrated(&m);
        assert_eq!(model.rtt_units, 50);
        assert!((m.overhead_percent() - 50.0).abs() < 1e-9);
        assert_eq!(m.open_units(), 1000);
    }

    #[test]
    fn calibration_preserves_caller_overrides() {
        let custom = PlanCostModel {
            call_units: 99,
            loop_trip: 5,
            batch_factor: 2,
            stmt_units: 7,
            ..PlanCostModel::default()
        };
        let m = MeasuredCost {
            base_units: 1000,
            split_units: 1500,
            rtt_units: 400,
            server_units: 100,
            interactions: 8,
        };
        let calibrated = custom.calibrated(&m);
        assert_eq!(calibrated.rtt_units, 50, "rtt re-derived from telemetry");
        assert_eq!(
            calibrated,
            PlanCostModel {
                rtt_units: 50,
                ..custom
            },
            "every non-rtt weight survives calibration"
        );
    }

    #[test]
    fn ladder_matches_one_shot_optimize_at_every_level() {
        let p = hps_lang::parse(SRC).unwrap();
        let model = PlanCostModel::default();
        let mut ladder = OptimizeLadder::new(&p, SeedRule::CostRestricted, model.clone());
        for level in 0..6 {
            let one_shot = outcome_at(&p, &model, level);
            let (outcome, split) = ladder.outcome_and_split(None);
            assert_eq!(outcome, one_shot, "level {level}");
            let split = split.expect("ladder plans split");
            let fresh = split_program(&p, &outcome.plan).unwrap();
            assert_eq!(split.open, fresh.open, "level {level}");
            assert_eq!(split.hidden, fresh.hidden, "level {level}");
            if !ladder.descend() {
                break;
            }
        }
    }

    #[test]
    fn contribution_memo_matches_fresh_single_target_splits() {
        // `h` has several seeds, and under the unrestricted rule some of
        // their splits call the hidden side from inside the loop, so the
        // contributions differ by rank.
        const LOOPY: &str = "
            fn h(n: int, b: int[]) -> int {
                var acc: int = 0;
                var i: int = 0;
                var k: int = n * 3;
                while (i < n) {
                    acc = acc + i * k;
                    b[i] = acc;
                    i = i + 1;
                }
                var z: int = acc + k;
                return z;
            }
            fn main() { var b: int[] = new int[64]; print(h(10, b)); }";
        let model = PlanCostModel::default();
        let mut deeper_ranks = 0;
        let mut rejected = 0;
        for src in [SRC, LOOPY] {
            let p = hps_lang::parse(src).unwrap();
            for rule in [SeedRule::CostRestricted, SeedRule::MaxComplexity] {
                let ladder = OptimizeLadder::new(&p, rule, model.clone());
                assert_eq!(ladder.contrib.len(), ladder.ranked.len());
                for (i, (func, cands)) in ladder.ranked.iter().enumerate() {
                    assert_eq!(*cands, ranked_seeds_with(&p, *func, ladder.rule));
                    // The ranker checks the cost rule before the deferral
                    // pass; the reference splits in full and checks after.
                    let (reference, n_rejected) = rank_after_full_splits(&p, *func, ladder.rule);
                    assert_eq!(*cands, reference, "{rule:?} ({i})");
                    rejected += n_rejected;
                    assert_eq!(ladder.contrib[i].len(), cands.len());
                    for (rank, c) in cands.iter().enumerate() {
                        let plan = SplitPlan::from_targets(vec![SplitTarget::Function {
                            func: *func,
                            seed: c.seed,
                        }]);
                        let split = split_program(&p, &plan).unwrap();
                        let fresh = predict(&p, &split, &model, Some(1)).extra_units;
                        assert_eq!(ladder.contrib[i][rank], fresh, "{rule:?} ({i}, {rank})");
                        deeper_ranks += usize::from(rank > 0);
                    }
                }
            }
        }
        assert!(
            deeper_ranks > 0,
            "some function has more than one candidate"
        );
        assert!(rejected > 0, "the cost rule rejects some candidate");
    }

    /// The seed ranking computed the straightforward way: split each
    /// candidate completely, then apply the cost rule, then score it
    /// against a fresh analysis of the original program. Also returns how
    /// many candidates the cost rule rejected.
    fn rank_after_full_splits(
        p: &Program,
        func: FuncId,
        rule: SeedRule,
    ) -> (Vec<SeedCandidate>, usize) {
        let f = p.func(func);
        let mut rejected = 0;
        let mut out = Vec::new();
        for (i, local) in f.locals.iter().enumerate() {
            let seed = LocalId::new(i);
            if f.is_param(seed) || !local.ty.is_scalar() {
                continue;
            }
            let plan = SplitPlan::from_targets(vec![SplitTarget::Function { func, seed }]);
            let Ok(split) = split_program(p, &plan) else {
                continue;
            };
            if rule == SeedRule::CostRestricted
                && crate::choose::in_loop_hidden_calls(&split, func) > 0
            {
                rejected += 1;
                continue;
            }
            let report = &split.reports[0];
            if report.ilps.is_empty() && report.hidden_vars.is_empty() {
                continue;
            }
            let complexities = crate::analyze_report(p, report);
            let max_ac = complexities
                .iter()
                .map(|c| c.ac.clone())
                .max_by(|a, b| (a.ty, a.degree).cmp(&(b.ty, b.degree)))
                .unwrap_or_else(|| Ac {
                    ty: crate::AcType::Constant,
                    inputs: crate::Inputs::none(),
                    degree: 0,
                });
            out.push(SeedCandidate {
                seed,
                max_ac,
                n_ilps: complexities.len(),
            });
        }
        out.sort_by_key(|c| std::cmp::Reverse((c.max_ac.ty, c.max_ac.degree, c.n_ilps)));
        (out, rejected)
    }
}
