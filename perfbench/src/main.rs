//! The repository's benchmark: three seeded workloads over the Meta-SGCL
//! trainer and server, end-to-end metrics from untraced runs and
//! per-layer metrics from a separate traced run. See `perfbench/README.md`.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-append --seed 1 --seconds 32 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! the result: `{"correct", "attempted", "failed", "metrics"}`; the lines
//! before it give provenance, per-level and per-repetition detail, and
//! every metric with its unit and sample count. The exit code is 0 only
//! when every correctness check passed.

mod child;
mod gen;
mod load;
mod reference;
mod serving;
mod spans;
mod stats;
mod sys;
mod training;

use std::process::ExitCode;

use gen::Workload;

/// End-to-end metrics: (name, unit), printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_p50_ms.light", "ms"),
    ("latency_p99_ms.light", "ms"),
    ("latency_p50_ms.heavy", "ms"),
    ("latency_p99_ms.heavy", "ms"),
    ("max_rate_rps", "1/s"),
    ("cpu_ms_per_kop", "ms"),
    ("quality_at_10", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: (name, unit), printed by every traced run. A layer
/// a workload does not exercise reads 0 with 0 samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.server.wire_ms.p50", "ms"),
    ("serve.server.wire_ms.p99", "ms"),
    ("serve.proto.parse_us.p50", "us"),
    ("serve.proto.format_us.p50", "us"),
    ("serve.proto.reply_bytes.mean", "bytes"),
    ("serve.batcher.batch_size.mean", "count"),
    ("serve.batcher.assemble_us.mean", "us"),
    ("serve.batcher.enqueue_us.p50", "us"),
    ("serve.batcher.enqueue_us.p99", "us"),
    ("serve.engine.cache_hit_ratio", "ratio"),
    ("serve.engine.reencode_per_req", "ratio"),
    ("serve.engine.sessions", "count"),
    ("serve.engine.cold_start_frac", "ratio"),
    ("serve.engine.top_k_us.p50", "us"),
    ("meta_sgcl.infer.append_us.p50", "us"),
    ("meta_sgcl.infer.append_us_per_row", "us"),
    ("meta_sgcl.infer.begin_us.p50", "us"),
    ("meta_sgcl.infer.query_embedding_us.p50", "us"),
    ("meta_sgcl.infer.query_embedding_us.p99", "us"),
    ("serve.ann.search_us.p50", "us"),
    ("serve.ann.search_us.p99", "us"),
    ("serve.ann.fallback_frac", "ratio"),
    ("serve.obs.complete_us.p50", "us"),
    ("tensor.flops_per_req", "flop"),
    ("tensor.gflops_achieved", "GFLOP/s"),
    ("tensor.pool.miss_per_op", "ratio"),
    ("tensor.gemm.calls_per_step", "count"),
    ("tensor.gemm.cells_per_step", "count"),
    ("autograd.tape_nodes_per_step", "count"),
    ("meta_sgcl.train.forward_ms_per_step", "ms"),
    ("meta_sgcl.train.backward_ms_per_step", "ms"),
    ("meta_sgcl.train.opt_step_ms_per_step", "ms"),
    ("meta_sgcl.train.stage2_share", "ratio"),
    ("meta_sgcl.train.unattributed_share", "ratio"),
    ("meta_sgcl.exec.shard_skew", "ratio"),
    ("recdata.batch_build_ms_per_epoch", "ms"),
    ("perfbench.trace_overhead_frac", "ratio"),
];

/// Correctness bookkeeping: every failed check is a mismatch with a note.
#[derive(Default)]
pub struct Check {
    /// Failed checks.
    pub mismatches: usize,
    /// What failed (the first few).
    pub notes: Vec<String>,
}

impl Check {
    /// Records a check; `what` describes a failure.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches += 1;
            if self.notes.len() < 10 {
                self.notes.push(what());
            }
        }
    }
}

/// One run's outcome.
#[derive(Default)]
pub struct RunResult {
    /// Operations attempted (requests, or training repetitions).
    pub attempted: u64,
    /// Operations failed, including failed correctness checks.
    pub failed: u64,
    /// Measured metrics: (name, value, samples).
    pub metrics: Vec<(String, f64, usize)>,
    /// Detail lines printed before the result.
    pub report: Vec<String>,
    /// Failed-check descriptions.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Records a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.metrics.push((name.into(), value, samples));
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Result<Args, (Workload, u64)>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, 1u64, 32.0f64, false, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--serve-child" => child = Some(value.clone()),
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed: bad value {value:?}"))?
            }
            "--seconds" => seconds = num(value)?,
            "--trace" => trace = num(value)? != 0.0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let parse =
        |name: &str| Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"));
    if let Some(name) = child {
        return Ok(Err((parse(&name)?, seed)));
    }
    let workload = parse(&workload.ok_or("--workload is required")?)?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// A JSON number with all its digits; non-finite values become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns -0 (an empty sum) into 0.
        format!("{}", v + 0.0)
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Ok(a)) => a,
        Ok(Err((w, seed))) => {
            return match child::run(w, seed) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("serve child: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let prov = sys::Provenance::begin();
    let (w, seed, secs) = (args.workload, args.seed, args.seconds);
    let result = match (w, args.trace) {
        (Workload::TrainMeta, false) => training::run(seed, secs),
        (Workload::TrainMeta, true) => training::run_traced(seed),
        (_, false) => serving::run(w, seed, secs),
        (_, true) => serving::run_traced(w, seed, secs),
    };
    let res = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{{\"provenance\":{},\"workload\":\"{}\",\"seed\":{seed},\"seconds\":{secs},\"trace\":{}}}",
        prov.finish_json(),
        w.name(),
        args.trace
    );
    for line in &res.report {
        println!("{line}");
    }
    for note in &res.notes {
        eprintln!("check failed: {note}");
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        let found = res.metrics.iter().find(|(n, _, _)| n == name);
        let (value, samples) = match found {
            Some((_, v, n)) => (*v, *n),
            // A layer this workload does not exercise.
            None if args.trace => (0.0, 0),
            None => {
                eprintln!("perfbench: metric {name} was not measured");
                return ExitCode::FAILURE;
            }
        };
        println!("metric {name:<42} {:>14} {unit:<8} n={samples}", num(value));
        fields.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            num(value)
        ));
    }
    let correct = res.failed == 0 && res.notes.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        res.attempted.max(1),
        res.failed,
        fields.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json::{parse, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn own(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(names(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        // `serve-score-ann` runs only by hand: on a shared host its CPU-bound
        // metrics spread past their bounds from run to run.
        let ours: Vec<String> = [Workload::ServeAppend, Workload::TrainMeta]
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
    }
}
