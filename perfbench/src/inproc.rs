//! `inproc_suite`: all five suite programs, each at a quarter of its first
//! Table 5 input size, split by the paper pipeline and run in process with
//! batching on — the configuration the planner measures — by one worker.
//! A round runs one op per program; a window runs whole rounds.

use crate::chan::{ChanTrace, Timed};
use crate::spans::SpanLog;
use crate::{bench, input_pool, quarter_size, stats, Args, Layers, Phase, Report, SUITE};
use hps_core::SplitResult;
use hps_ir::Program;
use hps_runtime::telemetry::metrics::names;
use hps_runtime::{
    run_program, ExecConfig, Executor, InProcessChannel, Interp, MetricsRecorder, Outcome,
    RecorderHandle, RtValue, RuntimeError, SecureServer, SplitMeta,
};
use hps_security::{predict, PlanCostModel};
use std::rc::Rc;
use std::time::Instant;

/// Distinct seeded inputs per program; round `r` uses input `r % POOL`.
const POOL: usize = 3;
/// Split/unsplit run pairs per pooled input when timing the wall-clock
/// overhead.
const OVERHEAD_REPS: usize = 5;

/// One suite program, split, with its inputs and reference outputs.
pub struct Prog {
    pub name: &'static str,
    pub program: Program,
    pub split: SplitResult,
    pub meta: SplitMeta,
    pub pool: Vec<Vec<i64>>,
    pub expected: Vec<Vec<String>>,
}

/// A fresh in-process secure server for `split` behind its channel, as
/// `Executor` builds for every run; `recorder` (traced runs) hears both.
pub fn in_process(split: &SplitResult, recorder: Option<&RecorderHandle>) -> InProcessChannel {
    let server = SecureServer::new(split.hidden.clone());
    match recorder {
        Some(r) => InProcessChannel::new(server.with_recorder(r.clone())).with_recorder(r.clone()),
        None => InProcessChannel::new(server),
    }
}

/// Runs `split` on `input` with batching on over `timed`, which times
/// each round trip. When `timed` is traced, records an `interp.run` span
/// under `parent`, with the channel spans under it.
pub fn run_split(
    split: &SplitResult,
    meta: &SplitMeta,
    input: &[i64],
    timed: &mut Timed<InProcessChannel>,
    recorder: Option<&RecorderHandle>,
    parent: Option<usize>,
    op: u64,
) -> Result<Outcome, RuntimeError> {
    let run_span = timed.trace.as_mut().map(|t| {
        let id = t.log.open("interp.run", parent, op);
        t.parent = Some(id);
        t.op = op;
        id
    });
    let input = RtValue::from_ints(input);
    let outcome = {
        let config = ExecConfig::new().with_batching(true);
        let mut interp = Interp::new(&split.open, config).with_channel(timed, meta);
        if let Some(r) = recorder {
            interp = interp.with_recorder(r.clone());
        }
        interp.run("main", &[input])
    };
    if let (Some(t), Some(id)) = (timed.trace.as_mut(), run_span) {
        t.log.close(id);
    }
    outcome
}

/// Parses and splits every suite program, builds its input pool and
/// reference outputs, and checks that the in-process `Executor` with
/// batching on reproduces every reference. Returns the programs and the
/// time spent in `default_targets` and `split_program`.
pub fn setup(seed: u64) -> Result<(Vec<Prog>, u64, u64), String> {
    let (mut targets_ns, mut split_ns) = (0, 0);
    let mut progs = Vec::new();
    for name in SUITE {
        let b = bench(name);
        let program = hps_lang::parse(b.source).map_err(|e| format!("{name}: {e}"))?;
        let started = Instant::now();
        let plan = hps_security::default_targets(&program, hps_security::SeedRule::CostRestricted);
        targets_ns += started.elapsed().as_nanos() as u64;
        let started = Instant::now();
        let split = hps_core::split_program(&program, &plan).map_err(|e| format!("{name}: {e}"))?;
        split_ns += started.elapsed().as_nanos() as u64;
        let meta = SplitMeta::derive(&split.open, &split.hidden);
        let pool = input_pool(&b, quarter_size(&b), seed, POOL);
        let mut expected = Vec::new();
        for input in &pool {
            let reference = run_program(&program, &[RtValue::from_ints(input)])
                .map_err(|e| format!("{name}: reference run: {e}"))?
                .output;
            let split_out = Executor::new(&split.open, &split.hidden)
                .batching(true)
                .run(&[RtValue::from_ints(input)])
                .map_err(|e| format!("{name}: Executor run: {e}"))?
                .outcome
                .output;
            if split_out != reference {
                return Err(format!(
                    "{name}: Executor output differs from the reference"
                ));
            }
            expected.push(reference);
        }
        progs.push(Prog {
            name,
            program,
            split,
            meta,
            pool,
            expected,
        });
    }
    Ok((progs, targets_ns, split_ns))
}

/// Per-op numbers a traced window sums per program.
#[derive(Default, Clone)]
struct Sums {
    ops: u64,
    self_ns: u64,
    busy_ns: u64,
    open_units: u64,
    round_trips: u64,
    calls: u64,
    compile_ns: u64,
}

/// Runs whole rounds until the window closes. Returns the window's
/// end-to-end view, (traced) sums per program and the span log.
fn window(
    progs: &[Prog],
    args: &Args,
    recorder: Option<&RecorderHandle>,
) -> (Phase, Vec<Sums>, Option<SpanLog>) {
    let mut phase = Phase::default();
    let mut sums = vec![Sums::default(); progs.len()];
    let mut timed = Timed::new(in_process(&progs[0].split, None));
    if recorder.is_some() {
        timed.trace = Some(ChanTrace {
            log: SpanLog::new(Instant::now()),
            parent: None,
            op: 0,
            frames: Vec::new(),
        });
    }
    let started = Instant::now();
    let mut round = 0;
    while started.elapsed() < args.window {
        for (p, prog) in progs.iter().enumerate() {
            let idx = round % prog.pool.len();
            let op = phase.attempted;
            phase.attempted += 1;
            let before = (timed.round_trips, timed.calls, timed.server_cost);
            let first_span = timed.trace.as_ref().map_or(0, |t| t.log.spans.len());
            let op_span = timed.trace.as_mut().map(|t| t.log.open("op", None, op));
            let t0 = Instant::now();
            timed.inner = in_process(&prog.split, recorder);
            let outcome = run_split(
                &prog.split,
                &prog.meta,
                &prog.pool[idx],
                &mut timed,
                recorder,
                op_span,
                op,
            );
            let cost = match outcome {
                Ok(o) if o.output == prog.expected[idx] => Some(o.cost),
                Ok(_) => {
                    phase.fail(format!("{} input {idx}: output differs", prog.name));
                    None
                }
                Err(e) => {
                    phase.fail(format!("{} input {idx}: {e}", prog.name));
                    None
                }
            };
            let op_ns = t0.elapsed().as_nanos() as f64;
            if let (Some(t), Some(id)) = (timed.trace.as_mut(), op_span) {
                t.log.close(id);
                if let Some(cost) = cost {
                    let spans = &t.log.spans[first_span..];
                    let run_ns: u64 = spans
                        .iter()
                        .filter(|s| s.name == "interp.run")
                        .map(|s| s.ns())
                        .sum();
                    let busy: u64 = spans
                        .iter()
                        .filter(|s| s.name.starts_with("channel."))
                        .map(|s| s.ns())
                        .sum();
                    let s = &mut sums[p];
                    s.ops += 1;
                    s.self_ns += run_ns.saturating_sub(busy);
                    s.busy_ns += busy;
                    s.open_units += cost.saturating_sub(timed.server_cost - before.2);
                    s.round_trips += timed.round_trips - before.0;
                    s.calls += timed.calls - before.1;
                    s.compile_ns += timed.inner.server().vm_compile_nanos();
                }
            }
            if cost.is_some() {
                phase.op_ns.push(op_ns);
            }
        }
        round += 1;
    }
    phase.secs = started.elapsed().as_secs_f64();
    phase.rtt_ns = timed.rtt_ns.iter().map(|&n| n as f64).collect();
    (phase, sums, timed.trace.map(|t| t.log))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..args.setups() {
        let started = Instant::now();
        let (progs, targets_ns, split_ns) = setup(args.seed)?;
        // Warm-up: one op per program (allocator, caches), checked.
        for p in &progs {
            let mut timed = Timed::new(in_process(&p.split, None));
            match run_split(&p.split, &p.meta, &p.pool[0], &mut timed, None, None, 0) {
                Ok(o) if o.output == p.expected[0] => {}
                _ => return Err(format!("{}: warm-up op failed", p.name)),
            }
        }
        setups.push(started.elapsed().as_secs_f64());
        state = Some((progs, targets_ns, split_ns));
    }
    let (progs, targets_ns, split_ns) = state.expect("at least one set-up");
    let (untraced, _, _) = window(&progs, args, None);
    if !args.trace {
        return Ok(Report::end_to_end(&setups, untraced));
    }

    let recorder = Rc::new(MetricsRecorder::new());
    let handle = RecorderHandle::new(recorder.clone());
    let (traced, sums, log) = window(&progs, args, Some(&handle));
    let mut log = log.expect("traced window keeps spans");
    let mut layers = Layers::default();
    let total = sums.iter().fold(Sums::default(), |mut t, s| {
        t.ops += s.ops;
        t.self_ns += s.self_ns;
        t.busy_ns += s.busy_ns;
        t.open_units += s.open_units;
        t.round_trips += s.round_trips;
        t.calls += s.calls;
        t.compile_ns += s.compile_ns;
        t
    });
    let ops = total.ops.max(1) as f64;
    let n = total.ops as usize;
    layers.set("interp.self_ms", total.self_ns as f64 / 1e6 / ops, n);
    layers.set(
        "interp.ns_per_unit",
        stats::ratio(total.self_ns as f64, total.open_units as f64),
        n,
    );
    for (p, s) in progs.iter().zip(&sums) {
        layers.set(
            &format!("interp.ns_per_unit.{}", p.name),
            stats::ratio(s.self_ns as f64, s.open_units as f64),
            s.ops as usize,
        );
    }
    // In process the channel is the secure server: its busy time is
    // hidden execution, and there is no transport.
    let busy_ms = total.busy_ns as f64 / 1e6 / ops;
    layers.set("channel.busy_ms", busy_ms, n);
    layers.set("server.exec_ms", busy_ms, n);
    layers.set("server.transport_ms", 0.0, n);
    layers.set("server.compile_ms", total.compile_ns as f64 / 1e6 / ops, n);
    layers.set(
        "channel.round_trips_per_op",
        total.round_trips as f64 / ops,
        n,
    );
    layers.set(
        "channel.calls_per_round_trip",
        stats::ratio(total.calls as f64, total.round_trips as f64),
        total.round_trips as usize,
    );
    let m = recorder.snapshot();
    let count = |name: &str| m.counter(name) as f64;
    layers.set(
        "defer.deferred_calls_per_op",
        count(names::DEFERRED_CALLS) / ops,
        n,
    );
    layers.set(
        "defer.demand_flushes_per_op",
        count(names::DEMAND_FLUSHES) / ops,
        n,
    );
    if let Some(h) = m.histogram(names::FLUSH_PENDING) {
        layers.set(
            "defer.batch_size_mean",
            stats::ratio(h.sum() as f64, h.count() as f64),
            h.count() as usize,
        );
    }
    let (compiles, hits) = (
        count(names::SERVER_VM_COMPILES),
        count(names::SERVER_VM_CACHE_HITS),
    );
    let (memo_hits, memo_misses) = (
        count(names::SERVER_MEMO_HITS),
        count(names::SERVER_MEMO_MISSES),
    );
    layers.set(
        "server.vm_hit_ratio",
        stats::ratio(hits, compiles + hits),
        (compiles + hits) as usize,
    );
    layers.set(
        "server.memo_hit_ratio",
        stats::ratio(memo_hits, memo_hits + memo_misses),
        (memo_hits + memo_misses) as usize,
    );
    let fragments = count(names::FRAGMENTS);
    layers.check(compiles + hits + memo_hits == fragments, || {
        format!(
            "vm_compiles + vm_cache_hits + memo_hits = {} != {fragments} fragments",
            compiles + hits + memo_hits
        )
    });
    layers.check(
        count(names::CALLS) == fragments && fragments == total.calls as f64,
        || {
            format!(
            "in process: {} calls recorded, {fragments} fragments, {} calls seen by the channel",
            count(names::CALLS),
            total.calls
        )
        },
    );
    layers.set(
        "security.targets_ms",
        targets_ns as f64 / 1e6 / progs.len() as f64,
        progs.len(),
    );
    layers.set(
        "core.split_ms",
        split_ns as f64 / 1e6 / progs.len() as f64,
        progs.len(),
    );
    overhead(&mut layers, &progs)?;
    crate::layers::suite_passes(&mut layers, &mut log, crate::PASS_OPS)?;
    Ok(Report::per_layer(untraced, traced, layers, log))
}

/// Table 5 overhead per program: split vs unsplit wall time on the same
/// inputs (alternating runs, so a drift in host speed hits both sides),
/// the virtual-cost overhead with the LAN round trip, and how far the
/// static model's prediction for a zero-round-trip transport is from the
/// wall overhead.
fn overhead(layers: &mut Layers, progs: &[Prog]) -> Result<(), String> {
    // In process a round trip costs no virtual time; `calibrated` keeps
    // the LAN default when the measured round-trip cost is 0, so the
    // zero-RTT model is set explicitly.
    let model = PlanCostModel {
        rtt_units: 0,
        ..PlanCostModel::default()
    };
    let mut errors = Vec::new();
    for p in progs {
        let (mut split_ns, mut base_ns) = (Vec::new(), Vec::new());
        for _ in 0..OVERHEAD_REPS {
            for (input, expected) in p.pool.iter().zip(&p.expected) {
                let t0 = Instant::now();
                let mut timed = Timed::new(in_process(&p.split, None));
                let out = run_split(&p.split, &p.meta, input, &mut timed, None, None, 0);
                split_ns.push(t0.elapsed().as_nanos() as f64);
                let t0 = Instant::now();
                let base = run_program(&p.program, &[RtValue::from_ints(input)]);
                base_ns.push(t0.elapsed().as_nanos() as f64);
                match (out, base) {
                    (Ok(s), Ok(b)) if s.output == *expected && b.output == *expected => {}
                    _ => {
                        return Err(format!(
                            "{}: overhead runs differ from the reference",
                            p.name
                        ))
                    }
                }
            }
        }
        let wall_pct = (stats::median(&split_ns) / stats::median(&base_ns) - 1.0) * 100.0;
        layers.set(
            &format!("overhead.wall_pct.{}", p.name),
            wall_pct,
            split_ns.len(),
        );

        let base = run_program(&p.program, &[RtValue::from_ints(&p.pool[0])])
            .map_err(|e| format!("{}: {e}", p.name))?;
        let lan = ExecConfig::new().cost_model.lan_round_trip();
        let split = Executor::new(&p.split.open, &p.split.hidden)
            .batching(true)
            .rtt(lan)
            .run(&[RtValue::from_ints(&p.pool[0])])
            .map_err(|e| format!("{}: {e}", p.name))?;
        let virtual_pct = (split.outcome.cost as f64 / base.cost as f64 - 1.0) * 100.0;
        layers.set(&format!("overhead.virtual_pct.{}", p.name), virtual_pct, 1);

        let predicted = predict(&p.program, &p.split, &model, Some(base.cost)).overhead_percent();
        errors.push((predicted - wall_pct).abs());
    }
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    layers.set("overhead.model_error_pct", mean, errors.len());
    Ok(())
}
