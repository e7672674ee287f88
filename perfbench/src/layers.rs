//! Per-layer timings that do not depend on the workload's own ops: one
//! pass of the front end and of the program-fact analyses over the five
//! suite sources, and the wire codec over frames a traced run carried.

use crate::chan::Frame;
use crate::spans::SpanLog;
use crate::{stats, Layers, SUITE};
use hps_analysis::{CallGraph, Cfg, DataDeps, DefUse, ModRef, ReachingDefs};
use hps_runtime::wire::{Request, Response};
use std::hint::black_box;
use std::time::Instant;

/// Suite passes per traced run; the per-pass median is reported.
const PASSES: usize = 5;

/// `lang.{lex,parse,lower}_ms` and `analysis.facts_ms`: the median over
/// [`PASSES`] passes of the time one pass over the whole suite spends in
/// each call. `op` numbers the passes' spans after the workload's ops.
pub fn suite_passes(layers: &mut Layers, log: &mut SpanLog, op: u64) -> Result<(), String> {
    let sources: Vec<&str> = SUITE.iter().map(|n| crate::bench(n).source).collect();
    let mut per_pass: [Vec<f64>; 4] = Default::default();
    for pass in 0..PASSES {
        let op = op + pass as u64;
        let root = log.open("suite_pass", None, op);
        let mut ns = [0u64; 4];
        for src in &sources {
            let (tokens, t) = log.time("lang.lex", Some(root), op, || {
                hps_lang::lexer::lex(black_box(src))
            });
            ns[0] += t;
            let tokens = tokens.map_err(|e| format!("lex: {e}"))?;
            let (ast, t) = log.time("lang.parse", Some(root), op, || {
                hps_lang::parser::parse_tokens(&tokens)
            });
            ns[1] += t;
            let ast = ast.map_err(|e| format!("parse: {e}"))?;
            let (program, t) = log.time("lang.lower", Some(root), op, || {
                hps_lang::lower::lower(&ast)
            });
            ns[2] += t;
            let program = program.map_err(|e| format!("lower: {e}"))?;
            let (_, t) = log.time("analysis.facts", Some(root), op, || {
                black_box(CallGraph::build(&program));
                black_box(ModRef::compute(&program));
                for (fid, func) in program.iter_funcs() {
                    let cfg = Cfg::build(func);
                    let reaching = ReachingDefs::compute(&program, fid, &cfg);
                    let def_use = DefUse::compute(&cfg, &reaching);
                    black_box(DataDeps::compute(&cfg, &reaching, &def_use));
                }
            });
            ns[3] += t;
        }
        log.close(root);
        for (series, v) in per_pass.iter_mut().zip(ns) {
            series.push(v as f64 / 1e6);
        }
    }
    let names = [
        "lang.lex_ms",
        "lang.parse_ms",
        "lang.lower_ms",
        "analysis.facts_ms",
    ];
    for (name, series) in names.iter().zip(&per_pass) {
        layers.set(name, stats::median(series), series.len());
    }
    Ok(())
}

/// `wire.encode_ns` / `wire.decode_ns`: nanoseconds per frame to encode
/// (decode) the request and its response — both directions — of the
/// round trips a traced TCP run carried, in their sequenced form.
pub fn wire_codec(layers: &mut Layers, frames: &[Frame]) {
    if frames.is_empty() {
        return;
    }
    let encoded: Vec<(Request, Response)> = frames
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let seq = i as u64 + 1;
            if f.batch {
                (
                    Request::SeqBatch {
                        seq,
                        calls: f.calls.clone(),
                    },
                    Response::Batch(f.replies.clone()),
                )
            } else {
                (
                    Request::SeqCall {
                        seq,
                        call: f.calls[0].clone(),
                    },
                    Response::Reply {
                        value: f.replies[0].value,
                        server_cost: f.replies[0].server_cost,
                    },
                )
            }
        })
        .collect();
    let bytes: Vec<(Vec<u8>, Vec<u8>)> = encoded
        .iter()
        .map(|(q, r)| (q.encode(), r.encode()))
        .collect();
    // Enough passes for ~200k frames per direction, at least one.
    let passes = (200_000 / frames.len()).max(1);
    let mut buf = Vec::with_capacity(256);
    let started = Instant::now();
    for _ in 0..passes {
        for (q, r) in &encoded {
            q.encode_into(&mut buf);
            black_box(&buf);
            r.encode_into(&mut buf);
            black_box(&buf);
        }
    }
    let encode_ns = started.elapsed().as_nanos() as f64;
    let started = Instant::now();
    for _ in 0..passes {
        for (q, r) in &bytes {
            black_box(Request::decode(black_box(q)).ok());
            black_box(Response::decode(black_box(r)).ok());
        }
    }
    let decode_ns = started.elapsed().as_nanos() as f64;
    let n = (passes * frames.len()) as f64;
    layers.set("wire.encode_ns", encode_ns / n, frames.len());
    layers.set("wire.decode_ns", decode_ns / n, frames.len());
}
