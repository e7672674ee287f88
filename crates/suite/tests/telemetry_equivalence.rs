//! Recording must be a pure observation: across the whole benchmark
//! suite, runs with and without a recorder attached are byte-identical in
//! everything the program, the paper's measurements and the adversary can
//! see — output, virtual cost, step counts, interaction counts, transport
//! stats and the wiretap trace. The recorder only *adds* the snapshot.

use std::rc::Rc;

use hps_core::{split_program, SplitPlan};
use hps_runtime::tcp::TcpChannel;
use hps_runtime::telemetry::metrics::names;
use hps_runtime::{
    Channel, ExecConfig, Executor, InProcessChannel, Interp, MetricsRecorder, RecorderHandle,
    RetryPolicy, SecureServer, SessionServer, SplitMeta, Trace, TraceChannel,
};
use std::time::Duration;

fn paper_plan(program: &hps_ir::Program) -> SplitPlan {
    hps_security::default_targets(program, hps_security::SeedRule::CostRestricted)
}

#[test]
fn executor_reports_identical_with_and_without_recorder() {
    for b in hps_suite::benchmarks() {
        let program = b.program().expect("parses");
        let split = split_program(&program, &paper_plan(&program)).expect("splits");
        for &batching in &[false, true] {
            let plain = Executor::new(&split.open, &split.hidden)
                .batching(batching)
                .rtt(10)
                .run(&[b.workload(600, 77)])
                .expect("plain run");
            let recorded = Executor::new(&split.open, &split.hidden)
                .batching(batching)
                .rtt(10)
                .recorder(MetricsRecorder::new())
                .run(&[b.workload(600, 77)])
                .expect("recorded run");
            let cell = format!("{} batching={batching}", b.name);
            assert_eq!(plain.outcome, recorded.outcome, "{cell}: outcome diverged");
            assert_eq!(
                plain.interactions, recorded.interactions,
                "{cell}: interactions diverged"
            );
            assert_eq!(
                plain.server_cost, recorded.server_cost,
                "{cell}: server cost diverged"
            );
            assert_eq!(
                plain.transport, recorded.transport,
                "{cell}: transport stats diverged"
            );
            // The only difference the recorder makes: the snapshot exists.
            assert!(plain.telemetry.is_empty(), "{cell}: phantom telemetry");
            assert!(
                !recorded.telemetry.is_empty(),
                "{cell}: recorder captured nothing"
            );
        }
    }
}

/// One wiretapped run; `recorder` optionally observes every layer.
fn traced_run(
    split: &hps_core::SplitResult,
    input: hps_runtime::RtValue,
    recorder: Option<&Rc<MetricsRecorder>>,
) -> (Vec<String>, Trace, u64) {
    let handle = match recorder {
        Some(r) => RecorderHandle::new(Rc::clone(r) as Rc<dyn hps_runtime::Recorder>),
        None => RecorderHandle::none(),
    };
    let meta = SplitMeta::derive(&split.open, &split.hidden);
    let server = SecureServer::new(split.hidden.clone()).with_recorder(handle.clone());
    let mut chan = InProcessChannel::new(server).with_recorder(handle.clone());
    let mut trace = TraceChannel::new(&mut chan).with_recorder(handle.clone());
    let outcome = {
        let mut interp = Interp::new(&split.open, ExecConfig::new())
            .with_channel(&mut trace, &meta)
            .with_recorder(handle);
        interp.run("main", &[input]).expect("split run")
    };
    let trace = trace.into_trace();
    (outcome.output, trace, chan.interactions())
}

#[test]
fn adversary_trace_is_identical_with_recorder_attached() {
    // The wiretap (what the attacker sees) must not notice telemetry: the
    // recorded run's trace is the same event-for-event, value-for-value.
    for b in hps_suite::benchmarks() {
        let program = b.program().expect("parses");
        let plan = paper_plan(&program);
        if plan.targets.is_empty() {
            continue;
        }
        let split = split_program(&program, &plan).expect("splits");
        let (plain_out, plain_trace, plain_inter) = traced_run(&split, b.workload(600, 77), None);
        let recorder = Rc::new(MetricsRecorder::new());
        let (rec_out, rec_trace, rec_inter) =
            traced_run(&split, b.workload(600, 77), Some(&recorder));

        assert_eq!(plain_out, rec_out, "{}: output diverged", b.name);
        assert_eq!(plain_trace, rec_trace, "{}: wiretap diverged", b.name);
        assert_eq!(plain_inter, rec_inter, "{}: interactions diverged", b.name);

        // And the recorder saw the same world the wiretap did.
        let m = recorder.snapshot();
        assert_eq!(
            m.counter(names::TRACE_EVENTS),
            plain_trace.events.len() as u64,
            "{}: trace-event counter drifted from the wiretap",
            b.name
        );
        assert_eq!(
            m.counter(names::INTERACTIONS),
            plain_inter,
            "{}: interaction counter drifted from the channel",
            b.name
        );
    }
}

/// Every executed fragment is either lowered or served from compiled
/// bytecode, so `vm_compiles + vm_cache_hits == fragments` — in process
/// (recorder snapshot) and live (per-shard stats and the server's metrics
/// scrape, with sessions spread over two shards).
#[test]
fn engine_counters_reconcile_with_fragments_in_process_and_live() {
    for b in hps_suite::benchmarks() {
        let program = b.program().expect("parses");
        let split = split_program(&program, &paper_plan(&program)).expect("splits");

        let report = Executor::new(&split.open, &split.hidden)
            .recorder(MetricsRecorder::new())
            .run(&[b.workload(200, 5)])
            .expect("in-process run");
        let m = &report.telemetry;
        let fragments = m.counter(names::FRAGMENTS);
        assert!(fragments > 0, "{}: no fragments ran", b.name);
        assert_eq!(
            m.counter(names::SERVER_VM_COMPILES) + m.counter(names::SERVER_VM_CACHE_HITS),
            fragments,
            "{}: in-process engine counters drifted from fragments",
            b.name
        );

        let server = SessionServer::bind("127.0.0.1:0", split.hidden.clone())
            .expect("bind")
            .with_shards(2);
        let handle = server.handle().expect("handle");
        let serve = std::thread::spawn(move || server.serve(|_, _| {}));
        let meta = SplitMeta::derive(&split.open, &split.hidden);
        for session in 1..=2 {
            let policy = RetryPolicy::new().with_base_backoff(Duration::from_millis(1));
            let mut chan =
                TcpChannel::connect_reliable_with_session(handle.addr(), policy, session)
                    .expect("connect");
            Interp::new(&split.open, ExecConfig::new())
                .with_channel(&mut chan, &meta)
                .run("main", &[b.workload(200, 5)])
                .expect("live run");
            chan.shutdown().expect("shutdown");
        }
        handle.stop();
        serve.join().expect("serve thread").expect("serve ok");

        let shards = handle.shard_stats();
        let engine: u64 = shards.iter().map(|s| s.vm_compiles + s.vm_cache_hits).sum();
        let live: u64 = shards.iter().map(|s| s.fragments).sum();
        assert!(
            shards.iter().all(|s| s.fragments > 0),
            "{}: both shards must serve a session",
            b.name
        );
        assert_eq!(
            engine, live,
            "{}: live engine counters drifted from fragments",
            b.name
        );
        assert_eq!(
            handle.metrics().counter(names::FRAGMENTS),
            live,
            "{}: scraped hps_fragments_total drifted from the shards",
            b.name
        );
    }
}
