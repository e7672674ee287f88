//! `perfbench` — one benchmark for the split-program system.
//!
//! ```text
//! perfbench --workload <tcp_demand|tcp_batched|inproc_suite|plan_suite>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run sets up several times (median reported as
//! `setup_s`), measures the workload for `--seconds` with no tracing and
//! prints the end-to-end metrics. With `--trace 1` it sets up once,
//! measures an untraced window and then a traced window of the same
//! length, and prints the per-layer metrics (layer self times, counts and
//! cross-checks, plus the tracing overhead between the two windows).
//! Spans of the traced window go to `out/spans-<workload>-seed<n>.jsonl`
//! in this package's directory.
//!
//! Every op's output is checked; the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` and the exit code is
//! non-zero when any op failed or any cross-check did not hold. See
//! `README.md` for the workloads and what each metric predicts.

mod chan;
mod inproc;
mod layers;
mod plan;
mod spans;
mod stats;
mod tcp;

use hps_runtime::RtValue;
use hps_suite::Benchmark;
use spans::SpanLog;
use std::fmt::Write as _;
use std::time::Duration;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// First op id of the suite passes a traced run ends with, above any op
/// id a workload window reaches.
pub const PASS_OPS: u64 = 1 << 40;

/// The workloads, by the name `--workload` takes.
const WORKLOADS: [&str; 4] = ["tcp_demand", "tcp_batched", "inproc_suite", "plan_suite"];

pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        const USAGE: &str = "usage: perfbench --workload <tcp_demand|tcp_batched|inproc_suite|\
                             plan_suite> --seed <n> --seconds <s> --trace <0|1>";
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        for pair in args.chunks(2) {
            let [flag, value] = pair else {
                return Err(format!("{} needs a value\n{USAGE}", pair[0]));
            };
            match flag.as_str() {
                "--workload" => {
                    workload = WORKLOADS.into_iter().find(|w| w == value);
                    if workload.is_none() {
                        return Err(format!("unknown workload {value}\n{USAGE}"));
                    }
                }
                "--seed" => seed = value.parse::<u64>().ok(),
                "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => Some(false),
                        "1" => Some(true),
                        _ => None,
                    }
                }
                other => return Err(format!("unknown flag {other}\n{USAGE}")),
            }
        }
        match (workload, seed, seconds, trace) {
            (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Args {
                workload,
                seed,
                window: Duration::from_secs_f64(seconds),
                trace,
            }),
            _ => Err(USAGE.to_string()),
        }
    }

    /// How many times a run sets up: several for `setup_s`, once when
    /// tracing (the traced run reports no end-to-end metrics).
    pub fn setups(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUPS
        }
    }
}

// ------------------------------------------------------------ inputs

/// The suite benchmark `name`.
pub fn bench(name: &str) -> Benchmark {
    hps_suite::benchmark(name).expect("suite benchmark")
}

/// A program's first Table 5 input size divided by four.
pub fn quarter_size(b: &Benchmark) -> usize {
    b.workloads()[0].1 / 4
}

/// The seed of pooled input `i` of a run seeded with `seed`.
pub fn input_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64)
}

/// `n` seeded inputs of `size` elements for `b`, as plain integers: the
/// interpreter may mutate an input array, so each op builds a fresh
/// `RtValue` from these (and plain data crosses threads).
pub fn input_pool(b: &Benchmark, size: usize, seed: u64, n: usize) -> Vec<Vec<i64>> {
    (0..n)
        .map(|i| match b.workload(size, input_seed(seed, i)) {
            RtValue::Array(arr) => arr
                .borrow()
                .iter()
                .map(|v| match v {
                    RtValue::Int(x) => *x,
                    other => panic!("suite inputs are int arrays, got {other:?}"),
                })
                .collect(),
            other => panic!("suite inputs are arrays, got {other:?}"),
        })
        .collect()
}

// ------------------------------------------------------------ results

/// The end-to-end view of one measured window.
#[derive(Default)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    /// Measured time the window's ops took, in seconds.
    pub secs: f64,
    /// Wall nanoseconds of each successful op.
    pub op_ns: Vec<f64>,
    /// Wall nanoseconds of each hidden-call round trip (reported per
    /// layer: `plan_suite` makes none).
    pub rtt_ns: Vec<f64>,
    pub errors: Vec<String>,
}

impl Phase {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Successful ops over the window's measured time. A mean, not a
    /// median of per-interval rates: on the reference host the CPU speed
    /// toggles between two levels every few seconds, and a median of
    /// intervals jumps between them while the mean averages them.
    pub fn ops_per_s(&self) -> f64 {
        stats::ratio(self.op_ns.len() as f64, self.secs)
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The per-bench suffixes of per-layer metric families.
pub const SUITE: [&str; 5] = ["calcc", "rulekit", "asmkit", "optkit", "figkit"];

/// Every per-layer metric with its unit, in output order. A traced run
/// prints all of them; a layer the workload does not exercise reads 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: &str, u: &'static str| names.push((n.to_string(), u));
    add("interp.self_ms", "ms");
    add("interp.ns_per_unit", "ns/unit");
    for b in SUITE {
        add(&format!("interp.ns_per_unit.{b}"), "ns/unit");
    }
    add("channel.busy_ms", "ms");
    add("channel.rtt_p50_us", "us");
    add("channel.rtt_p99_us", "us");
    add("channel.round_trips_per_op", "count");
    add("channel.calls_per_round_trip", "count");
    add("defer.deferred_calls_per_op", "count");
    add("defer.demand_flushes_per_op", "count");
    add("defer.batch_size_mean", "count");
    add("wire.encode_ns", "ns");
    add("wire.decode_ns", "ns");
    add("server.exec_ms", "ms");
    add("server.compile_ms", "ms");
    add("server.transport_ms", "ms");
    add("shard.queue_depth_p50", "count");
    add("shard.queue_depth_max", "count");
    add("server.vm_hit_ratio", "ratio");
    add("server.memo_hit_ratio", "ratio");
    add("transport.retries", "count");
    add("transport.reconnects", "count");
    for b in SUITE {
        add(&format!("overhead.wall_pct.{b}"), "%");
    }
    for b in SUITE {
        add(&format!("overhead.virtual_pct.{b}"), "%");
    }
    add("overhead.model_error_pct", "%");
    add("lang.lex_ms", "ms");
    add("lang.parse_ms", "ms");
    add("lang.lower_ms", "ms");
    add("analysis.facts_ms", "ms");
    add("security.targets_ms", "ms");
    add("security.analyze_ms", "ms");
    add("security.predict_ms", "ms");
    add("core.split_ms", "ms");
    add("core.harden_ms", "ms");
    add("audit.audit_ms", "ms");
    add("audit.plan_levels", "count");
    for b in SUITE {
        add(&format!("audit.plan_ms.{b}"), "ms");
    }
    add("audit.unattributed_pct", "%");
    add("trace.overhead_ops_per_s", "1/s");
    add("trace.overhead_pct", "%");
    names
}

/// Per-layer values of a traced run plus its cross-check failures.
pub struct Layers {
    metrics: Vec<Metric>,
    pub errors: Vec<String>,
}

impl Default for Layers {
    /// Every per-layer metric at 0, no cross-check failures.
    fn default() -> Layers {
        Layers {
            metrics: per_layer_names()
                .into_iter()
                .map(|(name, unit)| Metric {
                    name,
                    value: 0.0,
                    unit,
                    samples: 0,
                })
                .collect(),
            errors: Vec::new(),
        }
    }
}

impl Layers {
    /// Sets a per-layer metric measured from `samples` observations.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let m = self
            .metrics
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        m.value = value;
        m.samples = samples;
    }

    /// Records a cross-check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok && self.errors.len() < 8 {
            self.errors.push(msg());
        }
    }
}

pub struct Report {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<Metric>,
    spans: Option<SpanLog>,
}

impl Report {
    /// The untraced run's report: the seven end-to-end metrics.
    pub fn end_to_end(setups: &[f64], phase: Phase) -> Report {
        let ms = |q: f64| stats::quantile(&phase.op_ns, q).unwrap_or(0.0) / 1e6;
        let ops = phase.op_ns.len();
        let metric = |name: &str, value: f64, unit: &'static str, samples: usize| Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        };
        let metrics = vec![
            metric("setup_s", stats::median(setups), "s", setups.len()),
            metric("ops_per_s", phase.ops_per_s(), "1/s", ops),
            metric("op_p50_ms", ms(0.5), "ms", ops),
            metric("op_p90_ms", ms(0.9), "ms", ops),
            metric("peak_rss_mib", peak_rss_mib(), "MiB", 1),
        ];
        Report {
            attempted: phase.attempted,
            failed: phase.failed,
            errors: phase.errors,
            metrics,
            spans: None,
        }
    }

    /// The traced run's report: every per-layer metric, with the tracing
    /// overhead between the untraced and traced windows. Round-trip
    /// percentiles come from the untraced window, which times each round
    /// trip but records no spans.
    pub fn per_layer(untraced: Phase, traced: Phase, mut layers: Layers, spans: SpanLog) -> Report {
        let rtt = &untraced.rtt_ns;
        for (name, q) in [("channel.rtt_p50_us", 0.5), ("channel.rtt_p99_us", 0.99)] {
            let us = stats::quantile(rtt, q).unwrap_or(0.0) / 1e3;
            layers.set(name, us, rtt.len());
        }
        let (plain, with) = (untraced.ops_per_s(), traced.ops_per_s());
        layers.set("trace.overhead_ops_per_s", with - plain, 2);
        layers.set(
            "trace.overhead_pct",
            stats::ratio(with - plain, plain) * 100.0,
            2,
        );
        let mut errors = layers.errors;
        errors.extend(untraced.errors);
        errors.extend(traced.errors);
        Report {
            attempted: untraced.attempted + traced.attempted,
            failed: untraced.failed + traced.failed,
            errors,
            metrics: layers.metrics,
            spans: Some(spans),
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    fn print(&self, args: &Args) {
        let online = std::fs::read_to_string("/proc/cpuinfo").map_or(0, |s| {
            s.lines().filter(|l| l.starts_with("processor")).count()
        });
        let host = format!(
            "host nproc={online} cpus_allowed={} profile={} workload={} seed={} seconds={} trace={}",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            if cfg!(debug_assertions) { "debug" } else { "release" },
            args.workload,
            args.seed,
            args.window.as_secs_f64(),
            u8::from(args.trace),
        );
        println!("# {host}");
        for m in &self.metrics {
            println!("# {} = {:.6} {} (n={})", m.name, m.value, m.unit, m.samples);
        }
        for e in &self.errors {
            println!("# FAILED: {e}");
        }
        if let Some(spans) = &self.spans {
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
            let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
            let header = format!("{{\"host\":\"{host}\",\"spans\":{}}}", spans.spans.len());
            match std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, spans.to_jsonl(&header)))
            {
                Ok(()) => println!("# spans written to {}", path.display()),
                Err(e) => println!("# spans not written: {e}"),
            }
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let report = match args.workload {
        "tcp_demand" => tcp::run(&args, false),
        "tcp_batched" => tcp::run(&args, true),
        "inproc_suite" => inproc::run(&args),
        // `Args::parse` admits only `WORKLOADS`: this is `plan_suite`.
        _ => plan::run(&args),
    };
    match report {
        Ok(report) => {
            report.print(&args);
            std::process::exit(if report.correct() { 0 } else { 1 });
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names this binary prints are the ones `BENCHMARK.json`
    /// declares, in both directions.
    #[test]
    fn names_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let declared: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        let mut printed: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
        let e2e = Report::end_to_end(&[1.0], Phase::default());
        printed.extend(e2e.metrics.into_iter().map(|m| m.name));
        printed.extend(WORKLOADS.iter().map(|n| n.to_string()));
        for name in &printed {
            assert!(declared.contains(&name.as_str()), "{name} not declared");
        }
        for name in &declared {
            assert!(printed.iter().any(|p| p == name), "{name} not printed");
        }
    }
}
