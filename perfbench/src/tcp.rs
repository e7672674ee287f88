//! `tcp_demand` / `tcp_batched`: `calcc` served over loopback TCP by an
//! in-process one-shard `SessionServer`, driven by one closed-loop
//! reliable client. `tcp_batched` turns on deferrable-call batching, so
//! several calls share one `Request::Batch` frame.
//!
//! One client, because the benchmark runs pinned to one CPU: a second
//! closed-loop client adds no parallelism there, only a scheduler-dependent
//! overlap of the two clients' ops that made `op_p50_ms` jump between 2.7
//! and 4.1 ms on identical runs.

use crate::chan::{ChanTrace, Timed};
use crate::spans::SpanLog;
use crate::{bench, input_pool, stats, Args, Layers, Phase, Report};
use hps_core::SplitResult;
use hps_runtime::tcp::{RetryPolicy, SessionServer, SessionServerHandle, TcpChannel};
use hps_runtime::telemetry::metrics::names;
use hps_runtime::telemetry::Histogram;
use hps_runtime::{
    run_program, Channel, ExecConfig, Executor, Interp, MetricsRecorder, RecorderHandle, RtValue,
    RuntimeError, ShardStats, SplitMeta,
};
use std::rc::Rc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const PROGRAM: &str = "calcc";
const SIZE: usize = 100;
const SHARDS: usize = 1;
/// Distinct seeded inputs each run cycles through.
const POOL: usize = 16;

/// One set-up: the split, its reference outputs, a running server and a
/// connected, warmed-up client.
struct Rig {
    split: SplitResult,
    meta: SplitMeta,
    config: ExecConfig,
    pool: Vec<Vec<i64>>,
    expected: Vec<Vec<String>>,
    handle: SessionServerHandle,
    serve: JoinHandle<Result<(), RuntimeError>>,
    client: Timed<TcpChannel>,
    targets_ns: u64,
    split_ns: u64,
}

/// Totals of a traced window.
#[derive(Default)]
struct Counts {
    open_units: u64,
    round_trips: u64,
    calls: u64,
}

pub fn run(args: &Args, batching: bool) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut rig = None;
    for _ in 0..args.setups() {
        if let Some(old) = rig.take() {
            teardown(old)?;
        }
        let started = Instant::now();
        rig = Some(setup(args, batching)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");
    // Untraced end-to-end runs drop round-trip samples as they go, so the
    // samples do not grow peak RSS; a traced run reports their percentiles.
    let (untraced, _) = window(&mut rig, args.window, None, args.trace);
    if !args.trace {
        teardown(rig)?;
        return Ok(Report::end_to_end(&setups, untraced));
    }

    // The in-process Executor's round trips and logical calls per pooled
    // input: every traced TCP op must reproduce them exactly.
    let expect: Vec<(u64, u64)> = rig
        .pool
        .iter()
        .map(|input| {
            let report = Executor::new(&rig.split.open, &rig.split.hidden)
                .batching(batching)
                .recorder(MetricsRecorder::new())
                .run(&[RtValue::from_ints(input)])
                .map_err(|e| format!("in-process reference run: {e}"))?;
            Ok((report.interactions, report.telemetry.counter(names::CALLS)))
        })
        .collect::<Result<_, String>>()?;
    let recorder = Rc::new(MetricsRecorder::new());
    let before = rig.handle.shard_stats();
    let queue_before = rig.handle.queue_depth();
    rig.client.trace = Some(ChanTrace {
        log: SpanLog::new(Instant::now()),
        parent: None,
        op: 0,
        frames: Vec::new(),
    });
    let tracing = Some((&expect[..], RecorderHandle::new(recorder.clone())));
    let (traced, c) = window(&mut rig, args.window, tracing, true);
    let after = rig.handle.shard_stats();
    let queue_after = rig.handle.queue_depth();
    let server = rig.handle.stats();
    let transport = rig.client.inner.transport_stats();
    let trace = rig.client.trace.take().expect("traced window keeps spans");
    let mut log = trace.log;

    let mut layers = Layers::default();
    let ops = traced.op_ns.len().max(1) as f64;
    let n = traced.op_ns.len();
    let self_ns = log.self_ns("interp.run") as f64;
    let busy_ns = ["channel.call", "channel.call_batch", "channel.release"]
        .iter()
        .map(|name| log.total(name).0)
        .sum::<u64>() as f64;
    let delta = |f: fn(&ShardStats) -> u64| -> u64 {
        after.iter().map(f).sum::<u64>() - before.iter().map(f).sum::<u64>()
    };
    let exec_ms = delta(|s| s.exec_nanos) as f64 / 1e6 / ops;
    let busy_ms = busy_ns / 1e6 / ops;
    layers.set("interp.self_ms", self_ns / 1e6 / ops, n);
    let ns_per_unit = stats::ratio(self_ns, c.open_units as f64);
    layers.set("interp.ns_per_unit", ns_per_unit, n);
    layers.set(&format!("interp.ns_per_unit.{PROGRAM}"), ns_per_unit, n);
    layers.set("channel.busy_ms", busy_ms, n);
    layers.set("channel.round_trips_per_op", c.round_trips as f64 / ops, n);
    layers.set(
        "channel.calls_per_round_trip",
        stats::ratio(c.calls as f64, c.round_trips as f64),
        c.round_trips as usize,
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
    crate::layers::wire_codec(&mut layers, &trace.frames);
    layers.set("server.exec_ms", exec_ms, n);
    let compile_ms = delta(|s| s.compile_nanos) as f64 / 1e6 / ops;
    layers.set("server.compile_ms", compile_ms, n);
    layers.set("server.transport_ms", busy_ms - exec_ms, n);
    let (depth_p50, depths) = queue_depth_p50(&queue_before, &queue_after);
    layers.set("shard.queue_depth_p50", depth_p50, depths);
    let depth_max = after.iter().map(|s| s.max_queue_depth).max().unwrap_or(0);
    layers.set("shard.queue_depth_max", depth_max as f64, after.len());
    let (compiles, hits) = (delta(|s| s.vm_compiles), delta(|s| s.vm_cache_hits));
    let (memo_hits, memo_misses) = (delta(|s| s.memo_hits), delta(|s| s.memo_misses));
    layers.set(
        "server.vm_hit_ratio",
        stats::ratio(hits as f64, (compiles + hits) as f64),
        (compiles + hits) as usize,
    );
    layers.set(
        "server.memo_hit_ratio",
        stats::ratio(memo_hits as f64, (memo_hits + memo_misses) as f64),
        (memo_hits + memo_misses) as usize,
    );
    layers.set("transport.retries", transport.retries as f64, 1);
    layers.set("transport.reconnects", transport.reconnects as f64, 1);
    layers.set("security.targets_ms", rig.targets_ns as f64 / 1e6, 1);
    layers.set("core.split_ms", rig.split_ns as f64 / 1e6, 1);

    // Server counters reconcile with each other and with the client.
    let fragments: u64 = after.iter().map(|s| s.fragments).sum();
    let engine = server.vm_compiles + server.vm_cache_hits + server.memo_hits;
    layers.check(engine == fragments, || {
        format!("vm_compiles + vm_cache_hits + memo_hits = {engine} != {fragments} fragments")
    });
    let served = delta(|s| s.calls);
    layers.check(served == c.calls, || {
        format!(
            "server executed {served} calls in the traced window, the client sent {}",
            c.calls
        )
    });
    let shard_calls: u64 = after.iter().map(|s| s.calls).sum();
    layers.check(shard_calls == server.calls, || {
        format!("shard calls {shard_calls} != server calls {}", server.calls)
    });

    crate::layers::suite_passes(&mut layers, &mut log, crate::PASS_OPS)?;
    teardown(rig)?;
    Ok(Report::per_layer(untraced, traced, layers, log))
}

/// Median of the shard queue depths sampled during a window: the
/// histogram delta between two reads (its buckets are exact below 4).
fn queue_depth_p50(before: &Histogram, after: &Histogram) -> (f64, usize) {
    let old: Vec<(u64, u64, u64)> = before.nonzero_buckets().collect();
    let buckets: Vec<(u64, u64)> = after
        .nonzero_buckets()
        .map(|(lo, hi, n)| {
            let prev = old
                .iter()
                .find(|(l, h, _)| (*l, *h) == (lo, hi))
                .map_or(0, |b| b.2);
            (lo, n - prev)
        })
        .collect();
    let total: u64 = buckets.iter().map(|b| b.1).sum();
    let mut seen = 0;
    for (lo, n) in &buckets {
        seen += n;
        if seen * 2 >= total && total > 0 {
            return (*lo as f64, total as usize);
        }
    }
    (0.0, 0)
}

fn setup(args: &Args, batching: bool) -> Result<Rig, String> {
    let b = bench(PROGRAM);
    let program = hps_lang::parse(b.source).map_err(|e| format!("{PROGRAM}: {e}"))?;
    let started = Instant::now();
    let plan = hps_security::default_targets(&program, hps_security::SeedRule::CostRestricted);
    let targets_ns = started.elapsed().as_nanos() as u64;
    let started = Instant::now();
    let split = hps_core::split_program(&program, &plan).map_err(|e| format!("split: {e}"))?;
    let split_ns = started.elapsed().as_nanos() as u64;
    let pool = input_pool(&b, SIZE, args.seed, POOL);
    let expected = pool
        .iter()
        .map(|input| {
            run_program(&program, &[RtValue::from_ints(input)])
                .map(|o| o.output)
                .map_err(|e| format!("reference run: {e}"))
        })
        .collect::<Result<_, _>>()?;

    let server = SessionServer::bind("127.0.0.1:0", split.hidden.clone())
        .map_err(|e| format!("bind: {e}"))?
        .with_shards(SHARDS);
    let handle = server.handle().map_err(|e| format!("server handle: {e}"))?;
    let serve = std::thread::spawn(move || server.serve(|_, _| {}));
    let policy = RetryPolicy::new()
        .with_base_backoff(Duration::from_millis(1))
        .with_jitter_seed(args.seed);
    // A pinned session id, so a run is reproducible modulo timing.
    let client = match TcpChannel::connect_reliable_with_session(handle.addr(), policy, 1) {
        Ok(chan) => Timed::new(chan),
        Err(e) => {
            handle.stop();
            let _ = serve.join();
            return Err(format!("connect: {e}"));
        }
    };
    let mut rig = Rig {
        meta: SplitMeta::derive(&split.open, &split.hidden),
        split,
        config: ExecConfig::new().with_batching(batching),
        pool,
        expected,
        handle,
        serve,
        client,
        targets_ns,
        split_ns,
    };
    // Warm-up: the first op compiles the fragments it touches.
    if let Err(e) = op(&mut rig, None, 0, 0) {
        let _ = teardown(rig);
        return Err(format!("warm-up: {e}"));
    }
    Ok(rig)
}

/// Runs ops until `len` has passed. With `tracing`, each op must make the
/// given (round trips, calls) for its input, and the interpreter reports
/// to the recorder. `keep_rtt` keeps every round-trip sample.
fn window(
    rig: &mut Rig,
    len: Duration,
    tracing: Option<(&[(u64, u64)], RecorderHandle)>,
    keep_rtt: bool,
) -> (Phase, Counts) {
    let mut phase = Phase::default();
    let mut counts = Counts::default();
    rig.client.rtt_ns.clear();
    let started = Instant::now();
    let mut k = 0;
    while started.elapsed() < len {
        let idx = k % rig.pool.len();
        let before = (
            rig.client.round_trips,
            rig.client.calls,
            rig.client.server_cost,
        );
        let t0 = Instant::now();
        let recorder = tracing.as_ref().map(|t| &t.1);
        let result = op(rig, recorder, idx, k as u64);
        let op_ns = t0.elapsed().as_nanos() as f64;
        k += 1;
        phase.attempted += 1;
        if !keep_rtt {
            rig.client.rtt_ns.clear();
        }
        let cost = match result {
            Ok(cost) => cost,
            Err(e) => {
                phase.fail(format!("input {idx}: {e}"));
                continue;
            }
        };
        let rt = rig.client.round_trips - before.0;
        let calls = rig.client.calls - before.1;
        if let Some((expect, _)) = &tracing {
            if expect[idx] != (rt, calls) {
                phase.fail(format!(
                    "input {idx}: {rt} round trips / {calls} calls over TCP, \
                     in-process Executor made {} / {}",
                    expect[idx].0, expect[idx].1
                ));
                continue;
            }
        }
        phase.op_ns.push(op_ns);
        counts.round_trips += rt;
        counts.calls += calls;
        counts.open_units += cost
            .saturating_sub(rig.client.server_cost - before.2)
            .saturating_sub(rt * rig.client.rtt_cost());
    }
    phase.secs = started.elapsed().as_secs_f64();
    phase.rtt_ns = rig.client.rtt_ns.iter().map(|&n| n as f64).collect();
    (phase, counts)
}

/// One op: the open program on pooled input `idx` over the TCP channel,
/// checked against the unsplit reference. Returns the run's virtual cost.
fn op(
    rig: &mut Rig,
    recorder: Option<&RecorderHandle>,
    idx: usize,
    op_id: u64,
) -> Result<u64, String> {
    let spans = rig.client.trace.as_mut().map(|t| {
        let op = t.log.open("op", None, op_id);
        let run = t.log.open("interp.run", Some(op), op_id);
        t.parent = Some(run);
        t.op = op_id;
        (op, run)
    });
    let input = RtValue::from_ints(&rig.pool[idx]);
    let outcome = {
        let mut interp = Interp::new(&rig.split.open, rig.config.clone())
            .with_channel(&mut rig.client, &rig.meta);
        if let Some(r) = recorder {
            interp = interp.with_recorder(r.clone());
        }
        interp.run("main", &[input])
    };
    if let (Some(t), Some((_, run))) = (rig.client.trace.as_mut(), spans) {
        t.log.close(run);
    }
    let result = match outcome {
        Ok(o) if o.output == rig.expected[idx] => Ok(o.cost),
        Ok(_) => Err("split output differs from the unsplit reference".to_string()),
        Err(e) => Err(format!("split run failed: {e}")),
    };
    if let (Some(t), Some((op, _))) = (rig.client.trace.as_mut(), spans) {
        t.log.close(op);
    }
    result
}

fn teardown(rig: Rig) -> Result<(), String> {
    let closed = rig.client.inner.shutdown();
    rig.handle.stop();
    match rig.serve.join() {
        Ok(Ok(())) => closed.map_err(|e| format!("client shutdown: {e}")),
        Ok(Err(e)) => Err(format!("server: {e}")),
        Err(_) => Err("server thread panicked".to_string()),
    }
}
