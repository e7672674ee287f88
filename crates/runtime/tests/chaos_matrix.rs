//! The reliability matrix: deterministic fault injection across seeds
//! 1–4 and every fault kind, both in-process ([`FaultyChannel`]) and over
//! real sockets ([`SessionServer`] chaos mode). On failure the chaos log
//! names every injected fault so the schedule can be replayed locally.

use hps_ir::{
    BinOp, Block, ComponentId, ComponentKind, Expr, FragLabel, Fragment, HiddenComponent,
    HiddenProgram, HiddenVar, LocalId, Place, Stmt, StmtKind, Ty, Value,
};
use hps_runtime::fault::{FaultKind, FaultPlan, FaultyChannel};
use hps_runtime::tcp::{ChaosConfig, RetryPolicy, SessionServer, TcpChannel};
use hps_runtime::{Channel, InProcessChannel, SecureServer};
use std::time::Duration;

/// One hidden accumulator component: L0(p) { acc = acc + p; return acc }.
/// Stateful on purpose — a duplicated or replayed execution would visibly
/// corrupt the running sum.
fn accumulator_program() -> HiddenProgram {
    let mut hp = HiddenProgram::new();
    hp.add(HiddenComponent {
        id: ComponentId::new(0),
        kind: ComponentKind::Function {
            func_name: "f".into(),
        },
        vars: vec![HiddenVar {
            name: "acc".into(),
            ty: Ty::Int,
            init: None,
        }],
        fragments: vec![Fragment {
            label: FragLabel::new(0),
            params: vec![("p".into(), Ty::Int)],
            body: Block::of(vec![Stmt::new(StmtKind::Assign {
                place: Place::Local(LocalId::new(0)),
                value: Expr::binary(
                    BinOp::Add,
                    Expr::local(LocalId::new(0)),
                    Expr::local(LocalId::new(1)),
                ),
            })]),
            ret: Some(Expr::local(LocalId::new(0))),
        }],
    });
    hp
}

/// Every (seed, fault kind) cell of the matrix.
fn matrix() -> impl Iterator<Item = (u64, FaultKind)> {
    (1..=4u64).flat_map(|s| FaultKind::ALL.iter().map(move |k| (s, *k)))
}

#[test]
fn in_process_matrix_is_invisible_to_the_accumulator() {
    for (seed, kind) in matrix() {
        let inner = InProcessChannel::new(SecureServer::new(accumulator_program()));
        let plan = FaultPlan::new(seed, &[kind], 300);
        let mut chan = FaultyChannel::new(inner, plan);
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        for n in 1..=25i64 {
            let r = chan.call(c, 1, l, &[Value::Int(n)]).unwrap_or_else(|e| {
                panic!(
                    "seed {seed} {kind}: call {n}: {e}\nchaos log:\n{}",
                    chan.chaos_log().join("\n")
                )
            });
            assert_eq!(
                r.value,
                Value::Int(n * (n + 1) / 2),
                "seed {seed} {kind}: wrong sum at call {n}"
            );
        }
        assert_eq!(chan.interactions(), 25, "seed {seed} {kind}");
        assert_eq!(
            chan.inner().server().calls_served(),
            25,
            "seed {seed} {kind}: exactly-once violated"
        );
    }
}

#[test]
fn tcp_chaos_matrix_round_trips_every_seed() {
    for (seed, kind) in matrix() {
        // The socket layer cannot express per-kind faults; chaos kills the
        // connection at seeded points instead, which subsumes drop-style
        // faults for every kind cell.
        let server = SessionServer::bind("127.0.0.1:0", accumulator_program())
            .expect("bind")
            .with_chaos(ChaosConfig {
                seed,
                kill_per_mille: 200,
            });
        let handle = server.handle().expect("handle");
        let addr = handle.addr();
        let serve = std::thread::spawn(move || server.serve(|_, _| {}));
        let policy = RetryPolicy::new()
            .with_base_backoff(Duration::from_millis(1))
            .with_max_attempts(12)
            .with_jitter_seed(seed);
        let mut chan = TcpChannel::connect_reliable(addr, policy)
            .unwrap_or_else(|e| panic!("seed {seed} {kind}: connect: {e}"));
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        for n in 1..=20i64 {
            let r = chan
                .call(c, 1, l, &[Value::Int(n)])
                .unwrap_or_else(|e| panic!("seed {seed} {kind}: call {n}: {e}"));
            assert_eq!(r.value, Value::Int(n * (n + 1) / 2), "seed {seed} {kind}");
        }
        assert_eq!(chan.interactions(), 20);
        let stats = handle.stats();
        assert_eq!(
            stats.calls, 20,
            "seed {seed} {kind}: server executed a retransmit"
        );
        chan.shutdown().expect("shutdown");
        handle.stop();
        serve.join().expect("join").expect("serve");
    }
}

#[test]
fn fault_plans_are_reproducible() {
    // Same seed, same schedule: the chaos log (the artifact CI uploads on
    // failure) must be identical across runs.
    let run = || {
        let inner = InProcessChannel::new(SecureServer::new(accumulator_program()));
        let mut chan = FaultyChannel::new(inner, FaultPlan::new(99, &FaultKind::ALL, 400));
        for n in 1..=15i64 {
            chan.call(ComponentId::new(0), 1, FragLabel::new(0), &[Value::Int(n)])
                .expect("call");
        }
        (chan.transport_stats(), chan.chaos_log().to_vec())
    };
    let (stats_a, log_a) = run();
    let (stats_b, log_b) = run();
    assert_eq!(stats_a, stats_b);
    assert_eq!(log_a, log_b);
    assert!(!log_a.is_empty(), "a 40% fault rate must inject something");
}
