//! Adversary-view invariance under transport faults, over the whole
//! benchmark suite: for every benchmark and every (seed, fault-kind) cell
//! of the reliability matrix, a run under injected faults must produce
//! byte-identical program output, identical server-side logical call
//! counts and an identical adversary trace to the fault-free run — with
//! the turbulence visible only in the transport stats.
//!
//! Every cell writes its chaos log to `target/chaos-logs/`, which CI
//! uploads when the suite fails.

use hps_core::{split_program, SplitPlan};
use hps_runtime::fault::{CrashFault, FaultKind, FaultPlan, FaultyChannel};
use hps_runtime::journal::truncate_tail;
use hps_runtime::tcp::TcpChannel;
use hps_runtime::telemetry::metrics::names;
use hps_runtime::{
    Channel, ChaosConfig, CrashConfig, ExecConfig, InProcessChannel, Interp, MetricsRecorder,
    Recorder, RecorderHandle, RetryPolicy, SecureServer, SessionServer, SplitMeta, Trace,
    TraceChannel, TransportStats,
};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

fn paper_plan(program: &hps_ir::Program) -> SplitPlan {
    hps_security::default_targets(program, hps_security::SeedRule::CostRestricted)
}

/// Every (seed, fault kind) cell of the transport-fault matrix.
fn matrix() -> impl Iterator<Item = (u64, FaultKind)> {
    (1..=4u64).flat_map(|s| FaultKind::ALL.iter().map(move |k| (s, *k)))
}

struct RunResult {
    output: Vec<String>,
    trace: Trace,
    interactions: u64,
    calls_served: u64,
    stats: TransportStats,
    chaos_log: Vec<String>,
}

/// Runs one split benchmark over `channel`, recording the adversary view.
fn run_traced(
    open: &hps_ir::Program,
    meta: &SplitMeta,
    input: hps_runtime::RtValue,
    channel: &mut dyn Channel,
) -> (Vec<String>, Trace) {
    let mut trace = TraceChannel::new(channel);
    let outcome = {
        let mut interp = Interp::new(open, ExecConfig::new()).with_channel(&mut trace, meta);
        interp.run("main", &[input]).expect("split run")
    };
    (outcome.output, trace.into_trace())
}

fn chaos_log_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/chaos-logs");
    std::fs::create_dir_all(&dir).expect("create chaos log dir");
    dir
}

#[test]
fn faulty_runs_match_fault_free_runs_exactly() {
    let mut total_faults = 0u64;
    for (seed, kind) in matrix() {
        for b in hps_suite::benchmarks() {
            let program = b.program().expect("parses");
            let plan = paper_plan(&program);
            if plan.targets.is_empty() {
                continue;
            }
            let split = split_program(&program, &plan).expect("splits");
            let meta = SplitMeta::derive(&split.open, &split.hidden);

            let baseline = {
                let server = SecureServer::new(split.hidden.clone());
                let mut chan = InProcessChannel::new(server);
                let (output, trace) =
                    run_traced(&split.open, &meta, b.workload(600, 77), &mut chan);
                RunResult {
                    output,
                    trace,
                    interactions: chan.interactions(),
                    calls_served: chan.server().calls_served(),
                    stats: chan.transport_stats(),
                    chaos_log: Vec::new(),
                }
            };
            // The faulty run carries a telemetry recorder: recording must
            // survive chaos without perturbing anything, and the fault
            // counters it aggregates must agree with the transport stats.
            let recorder = Rc::new(MetricsRecorder::new());
            let faulty = {
                let handle = RecorderHandle::new(Rc::clone(&recorder) as Rc<dyn Recorder>);
                let server = SecureServer::new(split.hidden.clone()).with_recorder(handle.clone());
                let inner = InProcessChannel::new(server).with_recorder(handle.clone());
                let mut chan = FaultyChannel::new(inner, FaultPlan::new(seed, &[kind], 200))
                    .with_recorder(handle);
                let (output, trace) =
                    run_traced(&split.open, &meta, b.workload(600, 77), &mut chan);
                RunResult {
                    output,
                    trace,
                    interactions: chan.interactions(),
                    calls_served: chan.inner().server().calls_served(),
                    stats: chan.transport_stats(),
                    chaos_log: chan.chaos_log().to_vec(),
                }
            };

            // Persist the injected-fault schedule for the CI artifact.
            let log_path = chaos_log_dir().join(format!("{}-seed{seed}-{kind}.log", b.name));
            std::fs::write(&log_path, faulty.chaos_log.join("\n")).expect("write chaos log");

            let cell = format!("{} seed={seed} fault={kind}", b.name);
            assert_eq!(
                baseline.output, faulty.output,
                "{cell}: program output diverged"
            );
            assert_eq!(
                baseline.calls_served, faulty.calls_served,
                "{cell}: server-side logical call count diverged"
            );
            assert_eq!(
                baseline.interactions, faulty.interactions,
                "{cell}: interaction count diverged"
            );
            assert_eq!(
                baseline.trace, faulty.trace,
                "{cell}: adversary trace diverged"
            );
            assert_eq!(
                baseline.stats,
                TransportStats::default(),
                "{cell}: fault-free run reported transport turbulence"
            );
            let m = recorder.snapshot();
            assert_eq!(
                m.counter(names::FAULTS),
                faulty.stats.faults,
                "{cell}: telemetry fault counter drifted from transport stats"
            );
            assert_eq!(
                m.counter(names::RETRIES),
                faulty.stats.retries,
                "{cell}: telemetry retry counter drifted from transport stats"
            );
            assert_eq!(
                m.counter(names::REPLAYS),
                faulty.stats.replays,
                "{cell}: telemetry replay counter drifted from transport stats"
            );
            assert_eq!(
                m.counter(names::INTERACTIONS),
                faulty.interactions,
                "{cell}: telemetry interaction counter drifted from the channel"
            );
            total_faults += faulty.stats.faults;
        }
    }
    assert!(
        total_faults > 0,
        "a 20% fault rate across the whole suite must inject something"
    );
}

/// The same chaos matrix, but sharded: each cell runs its faulty client
/// against a real four-shard TCP [`SessionServer`] whose connections are
/// additionally killed at random by [`ChaosConfig`]. Channel faults ride
/// on [`FaultyChannel`] (which delivers each logical call to the wrapped
/// reliable TCP channel exactly once), connection kills exercise the
/// reconnect + server-side replay path — and none of it may leak into the
/// program output, the adversary trace, the interaction count or the
/// server's logical call count.
#[test]
fn chaos_matrix_holds_on_sharded_tcp_server() {
    let mut total_faults = 0u64;
    let mut total_kills = 0u64;
    for (seed, kind) in matrix() {
        for b in hps_suite::benchmarks() {
            let program = b.program().expect("parses");
            let plan = paper_plan(&program);
            if plan.targets.is_empty() {
                continue;
            }
            let split = split_program(&program, &plan).expect("splits");
            let meta = SplitMeta::derive(&split.open, &split.hidden);

            let baseline = {
                let server = SecureServer::new(split.hidden.clone());
                let mut chan = InProcessChannel::new(server);
                let (output, trace) =
                    run_traced(&split.open, &meta, b.workload(300, 77), &mut chan);
                (
                    output,
                    trace,
                    chan.interactions(),
                    chan.server().calls_served(),
                )
            };

            let server = SessionServer::bind("127.0.0.1:0", split.hidden.clone())
                .expect("bind")
                .with_shards(4)
                .with_chaos(ChaosConfig {
                    seed,
                    kill_per_mille: 20,
                });
            let handle = server.handle().expect("handle");
            let addr = handle.addr();
            let serve = std::thread::spawn(move || server.serve(|_, _| {}));

            let policy = RetryPolicy::new()
                .with_base_backoff(Duration::from_millis(1))
                .with_jitter_seed(seed);
            let inner =
                TcpChannel::connect_reliable_with_session(addr, policy, seed).expect("connect");
            let mut chan = FaultyChannel::new(inner, FaultPlan::new(seed, &[kind], 200));
            let (output, trace) = run_traced(&split.open, &meta, b.workload(300, 77), &mut chan);
            let interactions = chan.interactions();
            let faults = chan.transport_stats().faults;
            chan.into_inner().shutdown().expect("shutdown");

            handle.stop();
            serve.join().expect("serve thread").expect("serve ok");
            let stats = handle.stats();

            let cell = format!("{} seed={seed} fault={kind} shards=4", b.name);
            assert_eq!(baseline.0, output, "{cell}: program output diverged");
            assert_eq!(baseline.1, trace, "{cell}: adversary trace diverged");
            assert_eq!(
                baseline.2, interactions,
                "{cell}: interaction count diverged"
            );
            assert_eq!(
                baseline.3, stats.calls,
                "{cell}: server-side logical call count diverged"
            );
            total_faults += faults;
            total_kills += stats.chaos_kills;
        }
    }
    assert!(
        total_faults > 0,
        "a 20% channel fault rate across the sharded matrix must inject something"
    );
    assert!(
        total_kills > 0,
        "a 2% connection kill rate across the sharded matrix must kill something"
    );
}

/// Every (seed, crash fault) cell of the crash-recovery matrix.
fn crash_matrix() -> impl Iterator<Item = (u64, CrashFault)> {
    (1..=2u64).flat_map(|s| CrashFault::ALL.iter().map(move |f| (s, *f)))
}

/// The crash-recovery matrix (DESIGN.md §12): for every suite benchmark
/// and every (seed, crash-fault) cell — shard executors killed mid-session,
/// injected mid-fragment panics, or a full server restart over a torn
/// `--journal-dir` journal — the client-observed program output, the
/// interaction count and the adversary's wiretap trace must be
/// byte-identical to the fault-free run. Recovery may spend wall-clock
/// time; it may never change what the adversary sees.
#[test]
fn recovery_matrix_is_invisible_to_the_adversary() {
    let mut total_restarts = 0u64;
    let mut total_panics = 0u64;
    let mut total_replays = 0u64;
    for (seed, fault) in crash_matrix() {
        for b in hps_suite::benchmarks() {
            let program = b.program().expect("parses");
            let plan = paper_plan(&program);
            if plan.targets.is_empty() {
                continue;
            }
            let split = split_program(&program, &plan).expect("splits");
            let meta = SplitMeta::derive(&split.open, &split.hidden);

            let baseline = {
                let server = SecureServer::new(split.hidden.clone());
                let mut chan = InProcessChannel::new(server);
                let (output, trace) =
                    run_traced(&split.open, &meta, b.workload(300, 77), &mut chan);
                (
                    output,
                    trace,
                    chan.interactions(),
                    chan.server().calls_served(),
                )
            };

            let session = seed.max(1);
            let policy = RetryPolicy::new()
                .with_base_backoff(Duration::from_millis(1))
                .with_max_attempts(20)
                .with_jitter_seed(seed);
            let cell = format!("{} seed={seed} crash={fault}", b.name);

            let (output, trace, interactions, report) = match fault {
                CrashFault::ShardKill | CrashFault::Panic => {
                    let crash = if fault == CrashFault::ShardKill {
                        CrashConfig {
                            seed,
                            shard_kill_per_mille: 60,
                            panic_per_mille: 0,
                        }
                    } else {
                        CrashConfig {
                            seed,
                            shard_kill_per_mille: 0,
                            panic_per_mille: 30,
                        }
                    };
                    let server = SessionServer::bind("127.0.0.1:0", split.hidden.clone())
                        .expect("bind")
                        .with_shards(2)
                        .with_crash(crash);
                    let handle = server.handle().expect("handle");
                    let addr = handle.addr();
                    let serve = std::thread::spawn(move || server.serve(|_, _| {}));
                    let mut chan = TcpChannel::connect_reliable_with_session(addr, policy, session)
                        .expect("connect");
                    let (output, trace) =
                        run_traced(&split.open, &meta, b.workload(300, 77), &mut chan);
                    let interactions = chan.interactions();
                    let _ = chan.shutdown();
                    handle.stop();
                    serve.join().expect("serve thread").expect("serve ok");
                    let stats = handle.stats();
                    // One live server the whole run: exactly-once must hold
                    // across every respawn and rebuild.
                    assert_eq!(
                        baseline.3, stats.calls,
                        "{cell}: server-side logical call count diverged"
                    );
                    total_restarts += stats.shard_restarts;
                    total_panics += stats.panics_caught;
                    total_replays += stats.journal_replays;
                    (output, trace, interactions, stats)
                }
                CrashFault::Truncate => {
                    // Full restart over a torn disk journal, mid-run: a
                    // controller thread stops the server once the run is in
                    // flight, tears the journal tail, and rebinds the same
                    // address; the client rides through on reconnect +
                    // session resume.
                    let dir = std::env::temp_dir().join(format!(
                        "hps-crash-{}-{}-{seed}",
                        std::process::id(),
                        b.name
                    ));
                    let _ = std::fs::remove_dir_all(&dir);
                    let server = SessionServer::bind("127.0.0.1:0", split.hidden.clone())
                        .expect("bind")
                        .with_journal_dir(&dir);
                    let handle = server.handle().expect("handle");
                    let addr = handle.addr();
                    let serve = std::thread::spawn(move || server.serve(|_, _| {}));
                    let controller = {
                        let hidden = split.hidden.clone();
                        let dir = dir.clone();
                        std::thread::spawn(move || {
                            // Strike once the run is demonstrably mid-flight
                            // (fast benchmarks may finish first; the cell
                            // then simply restarts an idle server).
                            let t0 = Instant::now();
                            while handle.stats().calls < 10
                                && t0.elapsed() < Duration::from_millis(500)
                            {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            handle.stop();
                            serve.join().expect("serve thread").expect("serve ok");
                            let _ = truncate_tail(&dir, session);
                            let deadline = Instant::now() + Duration::from_secs(5);
                            let server = loop {
                                match SessionServer::bind(addr, hidden.clone()) {
                                    Ok(s) => break s.with_journal_dir(&dir),
                                    Err(e) => {
                                        assert!(Instant::now() < deadline, "rebind: {e}");
                                        std::thread::sleep(Duration::from_millis(5));
                                    }
                                }
                            };
                            let handle = server.handle().expect("handle");
                            let serve = std::thread::spawn(move || server.serve(|_, _| {}));
                            (handle, serve)
                        })
                    };
                    let mut chan = TcpChannel::connect_reliable_with_session(addr, policy, session)
                        .expect("connect");
                    let (output, trace) =
                        run_traced(&split.open, &meta, b.workload(300, 77), &mut chan);
                    let interactions = chan.interactions();
                    let _ = chan.shutdown();
                    let (handle, serve) = controller.join().expect("controller");
                    handle.stop();
                    serve.join().expect("serve thread").expect("serve ok");
                    let stats = handle.stats();
                    total_replays += stats.journal_replays;
                    let _ = std::fs::remove_dir_all(&dir);
                    (output, trace, interactions, stats)
                }
            };

            // Persist the recovery telemetry for the CI artifact.
            let log_path =
                chaos_log_dir().join(format!("recovery-{}-seed{seed}-{fault}.log", b.name));
            std::fs::write(
                &log_path,
                format!(
                    "cell: {cell}\nshard_restarts: {}\npanics_caught: {}\njournal_replays: {}\n",
                    report.shard_restarts, report.panics_caught, report.journal_replays
                ),
            )
            .expect("write recovery log");

            assert_eq!(baseline.0, output, "{cell}: program output diverged");
            assert_eq!(baseline.1, trace, "{cell}: adversary trace diverged");
            assert_eq!(
                baseline.2, interactions,
                "{cell}: interaction count diverged"
            );
        }
    }
    // Each crash kind must actually have fired somewhere across the
    // suite — a recovery matrix that recovers from nothing proves nothing.
    assert!(total_restarts > 0, "shard-kill cells never killed a shard");
    assert!(total_panics > 0, "panic cells never panicked a fragment");
    assert!(
        total_replays > 0,
        "no cell ever rebuilt a session from its journal"
    );
}
