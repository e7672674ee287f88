//! Crash-recovery suite (DESIGN.md §12): panic isolation, shard
//! supervision, journal replay, disk persistence across a full server
//! restart, and the client-transparent session-resume path.
//!
//! Every test asserts the robustness contract from the client's seat:
//! injected crashes may cost wall-clock time, but never change observed
//! values, interaction counts, or exactly-once execution.

use hps_ir::{
    BinOp, Block, ComponentId, ComponentKind, Expr, FragLabel, Fragment, HiddenComponent,
    HiddenProgram, HiddenVar, LocalId, Place, Stmt, StmtKind, Ty, Value,
};
use hps_runtime::journal::truncate_tail;
use hps_runtime::tcp::{RetryPolicy, SessionServer, SessionServerHandle, TcpChannel};
use hps_runtime::wire::{read_frame, write_frame, Request, Response, WIRE_VERSION};
use hps_runtime::{Channel, CrashConfig, FaultClass, RuntimeError};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One hidden accumulator: L0(p) { acc = acc + p; return acc }. Stateful
/// on purpose — a lost, doubled or wrongly-rebuilt execution shows up as a
/// wrong running sum.
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

fn quick_policy() -> RetryPolicy {
    RetryPolicy::new()
        .with_base_backoff(Duration::from_millis(1))
        .with_timeout(Duration::from_secs(5))
        .with_max_attempts(10)
        .with_jitter_seed(7)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hps-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Polls a handle predicate with a bounded wait (supervisor ticks are
/// asynchronous; nothing here is load-bearing for determinism).
fn wait_for(handle: &SessionServerHandle, pred: impl Fn(&SessionServerHandle) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !pred(handle) {
        assert!(Instant::now() < deadline, "condition not reached in 5s");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn injected_panics_are_invisible_to_the_client() {
    let server = SessionServer::bind("127.0.0.1:0", accumulator_program())
        .expect("bind")
        .with_crash(CrashConfig {
            seed: 11,
            shard_kill_per_mille: 0,
            panic_per_mille: 300,
        });
    let handle = server.handle().expect("handle");
    let addr = handle.addr();
    let serve = std::thread::spawn(move || server.serve(|_, _| {}));
    let mut chan =
        TcpChannel::connect_reliable_with_session(addr, quick_policy(), 1).expect("connect");
    let c = ComponentId::new(0);
    let l = FragLabel::new(0);
    for n in 1..=30i64 {
        let r = chan.call(c, 1, l, &[Value::Int(n)]).expect("call");
        assert_eq!(r.value, Value::Int(n * (n + 1) / 2), "call {n}");
    }
    assert_eq!(chan.interactions(), 30);
    let stats = handle.stats();
    assert!(stats.panics_caught > 0, "a 30% panic rate must fire");
    assert_eq!(
        stats.calls, 30,
        "rebuild-and-retry must not double-count logical calls"
    );
    assert!(
        stats.journal_replays >= stats.panics_caught,
        "every caught panic rebuilds from the journal"
    );
    // The recovery counters flow into the live metrics scrape.
    let m = handle.metrics();
    assert_eq!(
        m.counter("hps_server_panics_caught_total"),
        stats.panics_caught
    );
    assert_eq!(
        m.counter("hps_server_journal_replays_total"),
        stats.journal_replays
    );
    assert!(
        m.histogram("hps_server_recovery_latency_micros")
            .is_some_and(|h| h.count() == stats.journal_replays),
        "one recovery-latency sample per rebuild"
    );
    chan.shutdown().expect("shutdown");
    handle.stop();
    serve.join().expect("join").expect("serve");
}

#[test]
fn unrecoverable_panic_poisons_only_the_session() {
    // journal_limit 1: by the third call the ring has dropped history, so
    // the second rebuild is impossible and the session must poison rather
    // than silently rebuild wrong state.
    let server = SessionServer::bind("127.0.0.1:0", accumulator_program())
        .expect("bind")
        .with_journal_limit(1)
        .with_crash(CrashConfig {
            seed: 5,
            shard_kill_per_mille: 0,
            panic_per_mille: 1000,
        });
    let handle = server.handle().expect("handle");
    let addr = handle.addr();
    let serve = std::thread::spawn(move || server.serve(|_, _| {}));
    let c = ComponentId::new(0);
    let l = FragLabel::new(0);
    let mut chan =
        TcpChannel::connect_reliable_with_session(addr, quick_policy(), 1).expect("connect");
    // Calls 1 and 2 panic once each, rebuild from the (still complete)
    // journal, and succeed transparently.
    assert_eq!(
        chan.call(c, 1, l, &[Value::Int(1)]).expect("call 1").value,
        Value::Int(1)
    );
    assert_eq!(
        chan.call(c, 1, l, &[Value::Int(2)]).expect("call 2").value,
        Value::Int(3)
    );
    // Call 3: the ring overflowed, rebuild fails, the session poisons.
    let err = chan
        .call(c, 1, l, &[Value::Int(3)])
        .expect_err("poisoned session must reject");
    assert!(
        matches!(
            &err,
            RuntimeError::Transport {
                class: FaultClass::Terminal,
                op: "panic",
                ..
            }
        ),
        "got {err:?}"
    );
    // Poisoning is sticky for the session...
    let again = chan
        .call(c, 1, l, &[Value::Int(4)])
        .expect_err("still poisoned");
    assert!(!again.is_retryable());
    // ...but the blast radius is one session: a different session on the
    // same (single) shard still works, panicking and rebuilding as usual.
    let mut other =
        TcpChannel::connect_reliable_with_session(addr, quick_policy(), 2).expect("connect 2");
    assert_eq!(
        other.call(c, 1, l, &[Value::Int(9)]).expect("call").value,
        Value::Int(9)
    );
    other.shutdown().expect("shutdown");
    handle.stop();
    serve.join().expect("join").expect("serve");
}

#[test]
fn killed_shard_is_respawned_and_sessions_rebuild() {
    let server = SessionServer::bind("127.0.0.1:0", accumulator_program()).expect("bind");
    let handle = server.handle().expect("handle");
    let addr = handle.addr();
    let serve = std::thread::spawn(move || server.serve(|_, _| {}));
    let c = ComponentId::new(0);
    let l = FragLabel::new(0);
    let mut chan =
        TcpChannel::connect_reliable_with_session(addr, quick_policy(), 1).expect("connect");
    for n in 1..=5i64 {
        let r = chan.call(c, 1, l, &[Value::Int(n)]).expect("call");
        assert_eq!(r.value, Value::Int(n * (n + 1) / 2));
    }
    // Crash drill: kill the only shard, wait for the supervisor.
    handle.kill_shard(0);
    wait_for(&handle, |h| h.stats().shard_restarts >= 1);
    // The session's hidden accumulator survives via journal replay.
    for n in 6..=10i64 {
        let r = chan.call(c, 1, l, &[Value::Int(n)]).expect("call");
        assert_eq!(r.value, Value::Int(n * (n + 1) / 2), "after respawn");
    }
    assert_eq!(chan.interactions(), 10);
    let stats = handle.stats();
    assert!(stats.shard_restarts >= 1);
    assert!(stats.journal_replays >= 1, "rebuild must come from replay");
    assert_eq!(stats.calls, 10, "exactly-once across the respawn");
    chan.shutdown().expect("shutdown");
    handle.stop();
    serve.join().expect("join").expect("serve");
}

/// Binds a fresh server on a *specific* addr, retrying briefly: the old
/// listener's port frees asynchronously after its serve thread joins.
fn rebind(addr: SocketAddr, dir: &PathBuf) -> SessionServer {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match SessionServer::bind(addr, accumulator_program()) {
            Ok(s) => return s.with_journal_dir(dir),
            Err(e) => {
                assert!(Instant::now() < deadline, "rebind {addr}: {e}");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

#[test]
fn sessions_survive_a_full_server_restart_via_disk_journal() {
    let dir = fresh_dir("restart");
    let server = SessionServer::bind("127.0.0.1:0", accumulator_program())
        .expect("bind")
        .with_journal_dir(&dir);
    let handle = server.handle().expect("handle");
    let addr = handle.addr();
    let serve = std::thread::spawn(move || server.serve(|_, _| {}));
    let c = ComponentId::new(0);
    let l = FragLabel::new(0);
    let mut chan =
        TcpChannel::connect_reliable_with_session(addr, quick_policy(), 42).expect("connect");
    for n in 1..=10i64 {
        let r = chan.call(c, 1, l, &[Value::Int(n)]).expect("call");
        assert_eq!(r.value, Value::Int(n * (n + 1) / 2));
    }
    // Full process-restart equivalent: stop the server, then bind a brand
    // new one on the same addr with the same journal directory.
    handle.stop();
    serve.join().expect("join").expect("serve");
    let server = rebind(addr, &dir);
    let handle = server.handle().expect("handle");
    let serve = std::thread::spawn(move || server.serve(|_, _| {}));
    // The same channel keeps going: its next call reconnects, the new
    // server rebuilds session 42 from disk, sequences line up.
    for n in 11..=20i64 {
        let r = chan.call(c, 1, l, &[Value::Int(n)]).expect("call");
        assert_eq!(r.value, Value::Int(n * (n + 1) / 2), "after restart");
    }
    assert_eq!(chan.interactions(), 20);
    let stats = handle.stats();
    assert!(stats.journal_replays >= 1, "restart must rebuild by replay");
    assert_eq!(stats.calls, 10, "only post-restart units execute anew");
    chan.shutdown().expect("shutdown");
    handle.stop();
    serve.join().expect("join").expect("serve");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_tail_is_re_driven_by_session_resume() {
    let dir = fresh_dir("truncate");
    let server = SessionServer::bind("127.0.0.1:0", accumulator_program())
        .expect("bind")
        .with_journal_dir(&dir);
    let handle = server.handle().expect("handle");
    let addr = handle.addr();
    let serve = std::thread::spawn(move || server.serve(|_, _| {}));
    let c = ComponentId::new(0);
    let l = FragLabel::new(0);
    let mut chan =
        TcpChannel::connect_reliable_with_session(addr, quick_policy(), 42).expect("connect");
    for n in 1..=10i64 {
        chan.call(c, 1, l, &[Value::Int(n)]).expect("call");
    }
    handle.stop();
    serve.join().expect("join").expect("serve");
    // Tear the last committed frame off the disk journal: recovery now
    // comes up one unit short of what the client observed.
    truncate_tail(&dir, 42).expect("truncate fault");
    let server = rebind(addr, &dir);
    let handle = server.handle().expect("handle");
    let serve = std::thread::spawn(move || server.serve(|_, _| {}));
    // The reconnect handshake detects the short server and re-drives the
    // missing frame from the client's resume window — transparently.
    for n in 11..=20i64 {
        let r = chan.call(c, 1, l, &[Value::Int(n)]).expect("call");
        assert_eq!(r.value, Value::Int(n * (n + 1) / 2), "after torn tail");
    }
    assert_eq!(
        chan.interactions(),
        20,
        "the re-driven frame is a retransmit, not a logical interaction"
    );
    let stats = handle.stats();
    assert_eq!(
        stats.calls, 11,
        "the torn unit re-executes once, the rest are new"
    );
    chan.shutdown().expect("shutdown");
    handle.stop();
    serve.join().expect("join").expect("serve");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn back_pressure_blocks_only_the_busy_shard() {
    // Two shards, queue bound 1. Sessions 1/3 hash to shard 1, session 2
    // to shard 0. A huge batch occupies shard 1 while another client
    // queues behind it; shard 0 must keep serving throughout. Shard 1 is
    // held by an executor-side pause from before the batch is sent until
    // the fast client's calls have returned, so the outcome does not
    // depend on how fast the batch executes.
    let server = SessionServer::bind("127.0.0.1:0", accumulator_program())
        .expect("bind")
        .with_shards(2)
        .with_queue_capacity(1);
    let handle = server.handle().expect("handle");
    let addr = handle.addr();
    let serve = std::thread::spawn(move || server.serve(|_, _| {}));
    let c = ComponentId::new(0);
    let l = FragLabel::new(0);
    let (pause_tx, pause_rx) = std::sync::mpsc::channel();
    let pauser = handle.clone();
    let busy = std::thread::spawn(move || {
        let mut chan =
            TcpChannel::connect_reliable_with_session(addr, quick_policy(), 1).expect("connect");
        // Hold shard 1 before sending the batch, which then waits behind
        // the pause; the main thread releases it.
        let pause = pauser.pause_shard(1).expect("pause shard 1");
        pause_tx.send(pause).expect("hand over the pause");
        let calls: Vec<_> = (1..=80_000i64)
            .map(|n| hps_runtime::PendingCall {
                component: c,
                key: 1,
                label: l,
                args: vec![Value::Int(n)],
            })
            .collect();
        let replies = chan.call_batch(&calls).expect("batch");
        assert_eq!(replies.len(), 80_000);
        assert_eq!(
            replies.last().expect("last").value,
            Value::Int(80_000 * 80_001 / 2)
        );
        chan.shutdown().expect("shutdown");
    });
    // Once shard 1 is held, pile a second client onto the same shard: it
    // queues behind the held executor with the batch.
    let pause = pause_rx.recv().expect("busy client paused shard 1");
    let queued = std::thread::spawn(move || {
        let mut chan =
            TcpChannel::connect_reliable_with_session(addr, quick_policy(), 3).expect("connect");
        let r = chan.call(c, 1, l, &[Value::Int(7)]).expect("call");
        assert_eq!(r.value, Value::Int(7));
        chan.shutdown().expect("shutdown");
    });
    // Shard 0 keeps serving while shard 1 is saturated.
    let mut fast =
        TcpChannel::connect_reliable_with_session(addr, quick_policy(), 2).expect("connect");
    for n in 1..=50i64 {
        let r = fast.call(c, 1, l, &[Value::Int(n)]).expect("fast call");
        assert_eq!(r.value, Value::Int(n * (n + 1) / 2));
    }
    assert!(
        !busy.is_finished(),
        "the fast shard finished 50 calls while the busy shard was still \
         chewing its batch — back-pressure stayed local"
    );
    drop(pause);
    fast.shutdown().expect("shutdown");
    busy.join().expect("busy client");
    queued.join().expect("queued client");
    let shards = handle.shard_stats();
    assert_eq!(
        shards[0].calls, 50,
        "shard 0 served exactly the fast client"
    );
    assert_eq!(
        shards[1].calls, 80_001,
        "shard 1 served batch + queued call"
    );
    handle.stop();
    serve.join().expect("join").expect("serve");
}

#[test]
fn call_deadline_fails_fast_against_a_hung_server() {
    // A hand-rolled server that completes the handshake and then never
    // answers another frame — the pathological hang --timeout exists for.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let hang = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = std::io::BufReader::new(&stream);
        let mut writer = std::io::BufWriter::new(&stream);
        let payload = read_frame(&mut reader).expect("read").expect("frame");
        let Request::Hello { session, .. } = Request::decode(&payload).expect("decode") else {
            panic!("expected Hello");
        };
        let mut buf = Vec::new();
        Response::HelloAck {
            version: WIRE_VERSION,
            session,
            next_seq: 1,
        }
        .encode_into(&mut buf);
        write_frame(&mut writer, &buf).expect("ack");
        // Hold the socket open without ever reading or replying again.
        std::thread::sleep(Duration::from_secs(10));
    });
    let policy = quick_policy()
        .with_max_attempts(50)
        .with_call_deadline(Some(Duration::from_millis(300)));
    let mut chan = TcpChannel::connect_reliable_with_session(addr, policy, 1).expect("connect");
    let started = Instant::now();
    let err = chan
        .call(ComponentId::new(0), 1, FragLabel::new(0), &[Value::Int(1)])
        .expect_err("hung server must trip the deadline");
    let elapsed = started.elapsed();
    assert!(
        matches!(
            &err,
            RuntimeError::Transport {
                class: FaultClass::Terminal,
                op: "deadline",
                ..
            }
        ),
        "got {err:?}"
    );
    assert!(!err.is_retryable());
    assert!(
        elapsed < Duration::from_secs(3),
        "deadline must beat the full backoff budget (took {elapsed:?})"
    );
    drop(chan);
    // The hang thread sleeps out its 10s on its own; don't join it.
    drop(hang);
}
