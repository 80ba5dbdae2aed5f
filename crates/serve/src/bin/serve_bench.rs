//! Serving benchmark and parity client (BENCH_6 + BENCH_10).
//!
//! Two modes:
//!
//! * **Bench** (default): in-process load generation against the batching
//!   engine. Reports p50/p99 request latency and sustained throughput, and
//!   gates on the incremental append being at least 5× faster than a full
//!   re-encode of the same window on the transformer backbone. Writes
//!   `BENCH_6.json` into the current directory and exits nonzero when the
//!   gate fails.
//!
//!   The same run also writes `BENCH_10.json` (serving observability):
//!
//!   * `sketch` — the streaming DDSketch p50/p99 over the loadgen
//!     latencies vs the exact sorted quantiles, gated on the sketch's
//!     relative-error bound;
//!   * `tracing` — per-request cost of the full observability path
//!     (request ids, phase timing, 1-in-16 span emission) vs the bare
//!     batcher, gated on a generous overhead budget;
//!   * `disabled` — per-request cost with the telemetry registry enabled
//!     vs disabled (reported against the ≤2% budget; the hard guarantee
//!     is the zero-allocation test in `telemetry/tests/alloc.rs`).
//!
//!   ```sh
//!   cargo run --release -p serve --bin serve_bench
//!   ```
//!
//!   Geometry scales with `META_SGCL_SCALE` (`quick`/`full`).
//!
//! * **Check** (`--connect ADDR`): connects to a running `msgc serve`,
//!   replays user histories from `--data`, and asserts the served top-k
//!   (items *and* scores) is bitwise-identical to the offline autograd
//!   `score_sequence` on the same checkpoint. Exits nonzero on any
//!   mismatch. Used by the CI `serve-smoke` job.
//!
//!   ```sh
//!   serve_bench --connect 127.0.0.1:7878 --data synth:toys:42 \
//!       --model model.msgc --dim 16 --max-len 10 --users 20 --k 10
//!   ```
//!
//!   With `--ann-recall MIN` the check additionally replays every user's
//!   history as a `"topk":"ann"` request and gates mean recall@k of the
//!   served ANN top-k against the offline exact top-k (set overlap, not
//!   scores — ANN is recall-gated, not bitwise). Requires the server to
//!   have been started with `--ann`.
//!
//!   With `--admin-out FILE` the check additionally fetches the server's
//!   admin snapshot (`{"op":"admin","cmd":"snapshot"}`), validates it
//!   against the telemetry schema, and writes the raw line to `FILE` for
//!   the CI artifact. Requires the server to expose the admin endpoint
//!   (`msgc serve` with observability on).

#![allow(clippy::expect_used)] // CI smoke binary: panicking with context IS the failure path

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use meta_sgcl::{MetaSgcl, MetaSgclConfig};
use models::NetConfig;
use nn::Freeze;
use serve::{proto, top_k, Batcher, Engine, Mode, Request};

fn quantile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn parse_args() -> std::collections::HashMap<String, String> {
    let mut out = std::collections::HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if let Some(name) = a.strip_prefix("--") {
            let v = args.next().unwrap_or_default();
            out.insert(name.to_string(), v);
        }
    }
    out
}

fn get_or<T: std::str::FromStr>(
    args: &std::collections::HashMap<String, String>,
    key: &str,
    default: T,
) -> T {
    args.get(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args = parse_args();
    let code = if args.contains_key("connect") {
        run_check(&args)
    } else {
        run_bench(&args)
    };
    std::process::exit(code);
}

// ---------------------------------------------------------------------------
// Bench mode
// ---------------------------------------------------------------------------

fn run_bench(args: &std::collections::HashMap<String, String>) -> i32 {
    let scale = std::env::var("META_SGCL_SCALE").unwrap_or_else(|_| "quick".into());
    let full_scale = scale == "full";
    // Transformer-backbone geometry: long enough that a full window
    // re-encode dwarfs a single-row append.
    let max_len = if full_scale { 128 } else { 64 };
    let dim = 32;
    let num_items = 500;
    let appends = get_or(args, "requests", if full_scale { 400 } else { 120 });
    let loadgen_threads = 8usize;
    let loadgen_per_thread = if full_scale { 200 } else { 60 };

    let model = MetaSgcl::new(MetaSgclConfig {
        net: NetConfig {
            max_len,
            dim,
            layers: 2,
            ..NetConfig::for_items(num_items)
        },
        ..MetaSgclConfig::for_items(num_items)
    });
    let frozen = model.freeze();
    let history: Vec<usize> = (0..max_len - 1).map(|i| 1 + (i * 7) % num_items).collect();

    // --- single-request speedup gate: full window re-encode vs one append.
    let window = &history[..max_len - 1];
    let mut full_ms = f64::INFINITY;
    for _ in 0..3 {
        let iters = 10;
        let t0 = Instant::now();
        for _ in 0..iters {
            let (_state, scores) = frozen.begin_incremental(window);
            assert_eq!(scores.len(), num_items + 1);
        }
        full_ms = full_ms.min(t0.elapsed().as_secs_f64() * 1e3 / iters as f64);
    }

    let mut incr_samples: Vec<f64> = Vec::with_capacity(appends);
    let mut done = 0usize;
    'outer: loop {
        // Re-begin with room to append without sliding.
        let (mut state, _) = frozen.begin_incremental(&history[..max_len / 2]);
        while state.len() < max_len {
            let item = 1 + (state.len() * 13) % num_items;
            let t0 = Instant::now();
            let scores = frozen.append_incremental(&[item], &mut [&mut state]);
            incr_samples.push(t0.elapsed().as_secs_f64() * 1e3);
            assert_eq!(scores[0].len(), num_items + 1);
            done += 1;
            if done >= appends {
                break 'outer;
            }
        }
    }
    incr_samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let incr_p50 = quantile_ms(&incr_samples, 0.5);
    let speedup = full_ms / incr_p50;

    // --- load generator: concurrent users through the micro-batcher.
    telemetry::set_enabled(true);
    let engine = Arc::new(Engine::new(frozen, Mode::Incremental));
    // Mirror production: warm the pools and dispatch probes before the
    // measured phase, so p99 reflects steady state rather than the
    // first-request cold path (the BENCH_6 tail diagnosis).
    engine.warm_up();
    let batcher = Arc::new(Batcher::new(
        Arc::clone(&engine),
        16,
        Duration::from_micros(200),
    ));
    let t0 = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..loadgen_threads)
            .map(|t| {
                let b = Arc::clone(&batcher);
                let seed_history: Vec<usize> = (0..max_len / 2)
                    .map(|i| 1 + (i * 3 + t) % num_items)
                    .collect();
                s.spawn(move || {
                    let mut lats = Vec::with_capacity(loadgen_per_thread + 1);
                    let user = t as u64;
                    let t1 = Instant::now();
                    b.submit(Request::Score {
                        user,
                        history: seed_history,
                        k: 10,
                        topk: None,
                    });
                    lats.push(t1.elapsed().as_secs_f64() * 1e3);
                    for i in 0..loadgen_per_thread {
                        let item = 1 + (i * 11 + t) % num_items;
                        let t1 = Instant::now();
                        b.submit(Request::Append {
                            user,
                            item,
                            k: 10,
                            topk: None,
                        });
                        lats.push(t1.elapsed().as_secs_f64() * 1e3);
                    }
                    lats
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("loadgen thread"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let total_requests = latencies.len();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let p50 = quantile_ms(&latencies, 0.5);
    let p99 = quantile_ms(&latencies, 0.99);
    let rps = total_requests as f64 / wall_s;
    // Queueing delay the micro-batcher added (first-job receipt → batch
    // dispatch). Distinguishes coalescing wait from scoring time when
    // reading the p99 tail.
    let (wait_count, wait_sum, _) =
        telemetry::metrics::histogram("serve.batch.wait_us", false).totals();
    let wait_mean_us = if wait_count > 0 {
        wait_sum as f64 / wait_count as f64
    } else {
        0.0
    };

    const GATE: f64 = 5.0;
    let pass = speedup >= GATE;
    let json = format!(
        "{{\n  \"bench\": \"BENCH_6\",\n  \"scale\": \"{scale}\",\n  \
         \"geometry\": {{\"dim\": {dim}, \"layers\": 2, \"max_len\": {max_len}, \"num_items\": {num_items}}},\n  \
         \"loadgen\": {{\"threads\": {loadgen_threads}, \"requests\": {total_requests}, \
         \"p50_ms\": {p50:.4}, \"p99_ms\": {p99:.4}, \"throughput_rps\": {rps:.1}, \
         \"batches\": {wait_count}, \"batch_wait_mean_us\": {wait_mean_us:.1}}},\n  \
         \"incremental_vs_full\": {{\"full_reencode_ms\": {full_ms:.4}, \
         \"incremental_append_ms\": {incr_p50:.4}, \"speedup\": {speedup:.2}, \
         \"gate\": {GATE:.1}, \"pass\": {pass}}}\n}}\n"
    );
    std::fs::write("BENCH_6.json", &json).expect("write BENCH_6.json");
    print!("{json}");

    let obs_pass = run_bench10(&engine, &latencies, full_scale);

    if !pass {
        eprintln!("GATE FAILED: incremental speedup {speedup:.2}x < {GATE}x");
    }
    i32::from(!(pass && obs_pass))
}

// ---------------------------------------------------------------------------
// BENCH_10: observability cost and accuracy
// ---------------------------------------------------------------------------

/// One timed pass of `n` scoring requests for `user` through the batcher,
/// optionally through the full observability path. Every request scores
/// the same short window, so per-request cost is identical across passes
/// (appends would slide into re-encodes once the window cap fills).
/// Returns µs/request.
fn timed_pass(
    batcher: &Batcher<impl serve::FrozenScorer>,
    obs: Option<&serve::ServeObs>,
    user: u64,
    n: usize,
    num_items: usize,
) -> f64 {
    let history: Vec<usize> = (0..8).map(|i| 1 + (i * 7) % num_items).collect();
    let t0 = Instant::now();
    for _ in 0..n {
        let req = Request::Score {
            user,
            history: history.clone(),
            k: 10,
            topk: None,
        };
        match obs {
            None => {
                batcher.submit(req);
            }
            Some(obs) => {
                // The per-request work `server::run_obs` does (there, in
                // the reply callback on the batch worker).
                let id = obs.next_id();
                let sampled = obs.sampled(id);
                let t1 = Instant::now();
                let (resp, report) = batcher.submit_obs(req, sampled);
                let ser = Instant::now();
                let text = serve::proto::format_response(&resp);
                std::hint::black_box(&text);
                obs.complete(&serve::ReqCtx {
                    id,
                    op: "score",
                    user,
                    sampled,
                    total_ns: t1.elapsed().as_nanos() as u64,
                    enqueue_ns: report.enqueue_ns,
                    assemble_ns: report.assemble_ns,
                    serialize_ns: ser.elapsed().as_nanos() as u64,
                    obs: report.obs,
                });
            }
        }
    }
    t0.elapsed().as_secs_f64() * 1e6 / n as f64
}

fn run_bench10(
    engine: &Arc<Engine<impl serve::FrozenScorer>>,
    loadgen_latencies_ms: &[f64],
    full_scale: bool,
) -> bool {
    // --- sketch accuracy: streaming DDSketch vs exact sorted quantiles
    // over the BENCH_6 loadgen latencies (integer µs, like the serving
    // sketch records).
    let us: Vec<u64> = loadgen_latencies_ms
        .iter()
        .map(|ms| (ms * 1e3) as u64)
        .collect();
    let sketch = telemetry::DdSketch::new(telemetry::sketch::DEFAULT_ALPHA);
    for &v in &us {
        sketch.record(v);
    }
    let mut sorted = us;
    sorted.sort_unstable();
    let exact = |q: f64| sorted[((sorted.len() - 1) as f64 * q).floor() as usize] as f64;
    let rel = |est: f64, want: f64| (est - want).abs() / want.max(1.0);
    let n = sorted.len();
    let (p50_exact, p99_exact) = (exact(0.50), exact(0.99));
    let p50_sketch = sketch.quantile(0.50).expect("non-empty sketch");
    let p99_sketch = sketch.quantile(0.99).expect("non-empty sketch");
    let (rel_p50, rel_p99) = (rel(p50_sketch, p50_exact), rel(p99_sketch, p99_exact));
    // 2× the sketch's α: the bucket-midpoint guarantee plus integer-µs
    // truncation slack at small values.
    let bound = 2.0 * telemetry::sketch::DEFAULT_ALPHA;
    let sketch_pass = rel_p50 <= bound && rel_p99 <= bound;

    // --- observability overhead: a dedicated single-threaded batcher so
    // queueing noise from the loadgen doesn't pollute the comparison.
    let num_items = engine.model().num_items();
    let batcher = Batcher::new(Arc::clone(engine), 1, Duration::from_micros(0));
    let reqs = if full_scale { 1500 } else { 400 };
    let obs = serve::ServeObs::new(serve::ObsConfig {
        tracer: Some(Arc::new(telemetry::trace::Tracer::to_writer(Box::new(
            std::io::sink(),
        )))),
        sample_every: 16,
        ..serve::ObsConfig::default()
    });
    // Warm both paths, then best-of-5 each to shed scheduler noise.
    timed_pass(&batcher, None, 1001, 64, num_items);
    timed_pass(&batcher, Some(&obs), 1002, 64, num_items);
    let mut base_us = f64::INFINITY;
    let mut traced_us = f64::INFINITY;
    for _ in 0..5 {
        base_us = base_us.min(timed_pass(&batcher, None, 1001, reqs, num_items));
        traced_us = traced_us.min(timed_pass(&batcher, Some(&obs), 1002, reqs, num_items));
    }
    let tracing_overhead = (traced_us - base_us).max(0.0) / base_us;
    // Generous: covers id allocation, phase clocks, sketch/window updates,
    // and the 1-in-16 span emission, on a request path measured in tens of
    // µs — plus headroom for single-core CI hosts, where the requester and
    // batcher worker share one core and the min-of-5 ratio still jitters by
    // tens of percent (quiet-host measurements sit near 5%).
    let tracing_budget = 0.35;
    let tracing_pass = tracing_overhead <= tracing_budget;

    // --- disabled-registry cost: the same bare pass with telemetry
    // enabled vs disabled. Reported against the ≤2% budget; the binding
    // guarantee is telemetry's zero-allocation test, since a few hundred
    // ns of atomics sit below timer noise here.
    let mut enabled_us = f64::INFINITY;
    let mut disabled_us = f64::INFINITY;
    for _ in 0..3 {
        telemetry::set_enabled(true);
        enabled_us = enabled_us.min(timed_pass(&batcher, None, 1003, reqs, num_items));
        telemetry::set_enabled(false);
        disabled_us = disabled_us.min(timed_pass(&batcher, None, 1003, reqs, num_items));
    }
    telemetry::set_enabled(true);
    let disabled_overhead = (enabled_us - disabled_us).max(0.0) / disabled_us;
    let disabled_budget = 0.02;

    let pass = sketch_pass && tracing_pass;
    let json = format!(
        "{{\n  \"bench\": \"BENCH_10\",\n  \"pass\": {pass},\n  \
         \"sketch\": {{\"n\": {n}, \"p50_sketch_us\": {p50_sketch:.1}, \"p50_exact_us\": {p50_exact:.1}, \
         \"p99_sketch_us\": {p99_sketch:.1}, \"p99_exact_us\": {p99_exact:.1}, \
         \"rel_err_p50\": {rel_p50:.5}, \"rel_err_p99\": {rel_p99:.5}, \
         \"bound\": {bound:.3}, \"pass\": {sketch_pass}}},\n  \
         \"tracing\": {{\"requests\": {reqs}, \"base_us_per_req\": {base_us:.2}, \
         \"traced_us_per_req\": {traced_us:.2}, \"overhead_frac\": {tracing_overhead:.4}, \
         \"budget\": {tracing_budget:.2}, \"pass\": {tracing_pass}}},\n  \
         \"disabled\": {{\"requests\": {reqs}, \"enabled_us_per_req\": {enabled_us:.2}, \
         \"disabled_us_per_req\": {disabled_us:.2}, \"overhead_frac\": {disabled_overhead:.4}, \
         \"budget\": {disabled_budget:.2}}}\n}}\n"
    );
    telemetry::schema::validate_bench10(&json).expect("BENCH_10 self-validates");
    std::fs::write("BENCH_10.json", &json).expect("write BENCH_10.json");
    print!("{json}");
    if !sketch_pass {
        eprintln!(
            "GATE FAILED: sketch quantile error p50 {rel_p50:.5} / p99 {rel_p99:.5} exceeds {bound}"
        );
    }
    if !tracing_pass {
        eprintln!(
            "GATE FAILED: tracing overhead {tracing_overhead:.4} exceeds budget {tracing_budget}"
        );
    }
    pass
}

// ---------------------------------------------------------------------------
// Check mode
// ---------------------------------------------------------------------------

fn load_data(spec: &str) -> recdata::Dataset {
    let rest = spec
        .strip_prefix("synth:")
        .expect("check mode supports synth:<preset>:<seed> specs");
    let mut parts = rest.split(':');
    let preset = parts.next().unwrap_or("toys");
    let seed: u64 = parts.next().unwrap_or("42").parse().expect("seed");
    let cfg = match preset {
        "clothing" => recdata::synth::SynthConfig::clothing_like(seed),
        "ml1m" => recdata::synth::SynthConfig::ml1m_like(seed),
        _ => recdata::synth::SynthConfig::toys_like(seed),
    };
    recdata::synth::generate(&cfg)
}

fn run_check(args: &std::collections::HashMap<String, String>) -> i32 {
    let addr = args.get("connect").expect("--connect set").clone();
    let data_spec = args.get("data").expect("--data required");
    let model_path = args.get("model").expect("--model required");
    let dim: usize = get_or(args, "dim", 32);
    let max_len: usize = get_or(args, "max-len", 20);
    let seed: u64 = get_or(args, "seed", 42);
    let users: usize = get_or(args, "users", 20);
    let k: usize = get_or(args, "k", 10);
    let ann_recall_min: Option<f64> = args
        .get("ann-recall")
        .map(|v| v.parse().expect("--ann-recall is a fraction"));

    let data = load_data(data_spec);
    let mut model = MetaSgcl::new(MetaSgclConfig {
        net: NetConfig {
            dim,
            max_len,
            seed,
            ..NetConfig::for_items(data.num_items)
        },
        ..MetaSgclConfig::for_items(data.num_items)
    });
    model.load(model_path).expect("load checkpoint");

    let mut stream = TcpStream::connect(&addr).expect("connect to msgc serve");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));

    let mut send = |line: &str| -> String {
        stream.write_all(line.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send");
        stream.flush().expect("flush");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("recv");
        resp.trim().to_string()
    };

    assert_eq!(send(r#"{"op":"ping"}"#), proto::PONG, "server not ready");

    let mut checked = 0usize;
    let mut mismatches = 0usize;
    for (u, seq) in data.sequences.iter().enumerate() {
        if seq.len() < 2 {
            continue;
        }
        if checked >= users {
            break;
        }
        checked += 1;

        // Parity 1: full-history score request vs offline score_sequence.
        let prefix = &seq[..seq.len() - 1];
        let history_json: Vec<String> = prefix.iter().map(|i| i.to_string()).collect();
        let line = format!(
            "{{\"op\":\"score\",\"user\":{u},\"history\":[{}],\"k\":{k}}}",
            history_json.join(",")
        );
        let served = proto::parse_response(&send(&line)).expect("parse response");
        let (want_items, want_scores) = top_k(&model.score_sequence(prefix), k);
        if served.items != want_items || served.scores != want_scores {
            eprintln!(
                "MISMATCH user {u} (score): served {:?} want {:?}",
                (&served.items, &served.scores),
                (&want_items, &want_scores)
            );
            mismatches += 1;
            continue;
        }

        // Parity 2: append the held-out item vs offline on the full seq.
        let last = seq[seq.len() - 1];
        let line = format!("{{\"op\":\"append\",\"user\":{u},\"item\":{last},\"k\":{k}}}");
        let served = proto::parse_response(&send(&line)).expect("parse response");
        let (want_items, want_scores) = top_k(&model.score_sequence(seq), k);
        if served.items != want_items || served.scores != want_scores {
            eprintln!("MISMATCH user {u} (append)");
            mismatches += 1;
        }
    }
    println!(
        "serve check: {checked} users, {} score+append round-trips, {mismatches} mismatches",
        checked * 2
    );
    if mismatches != 0 || checked == 0 {
        return 1;
    }

    // --- optional ANN recall gate: served approximate top-k vs offline
    // exact top-k, as set overlap. Appends above already mutated server
    // state, so replay full histories through stateless score requests.
    if let Some(min_recall) = ann_recall_min {
        let mut hits = 0usize;
        let mut total = 0usize;
        let mut ann_users = 0usize;
        for (u, seq) in data.sequences.iter().enumerate() {
            if seq.len() < 2 {
                continue;
            }
            if ann_users >= users {
                break;
            }
            ann_users += 1;
            let prefix = &seq[..seq.len() - 1];
            let history_json: Vec<String> = prefix.iter().map(|i| i.to_string()).collect();
            let line = format!(
                "{{\"op\":\"score\",\"user\":{u},\"history\":[{}],\"k\":{k},\"topk\":\"ann\"}}",
                history_json.join(",")
            );
            let served = proto::parse_response(&send(&line)).expect("parse ann response");
            let (want_items, _) = top_k(&model.score_sequence(prefix), k);
            assert!(
                !served.items.contains(&0),
                "user {u}: ANN ranking contains padding id 0"
            );
            total += want_items.len();
            hits += want_items
                .iter()
                .filter(|i| served.items.contains(i))
                .count();
        }
        let recall = if total > 0 {
            hits as f64 / total as f64
        } else {
            0.0
        };
        println!(
            "serve check: ANN recall@{k} = {recall:.4} over {ann_users} users (gate {min_recall})"
        );
        if recall < min_recall {
            eprintln!("GATE FAILED: ANN recall@{k} {recall:.4} < {min_recall}");
            return 1;
        }
    }

    // --- optional admin snapshot: fetch, schema-validate, save for CI.
    if let Some(path) = args.get("admin-out") {
        let snap = send(r#"{"op":"admin","cmd":"snapshot"}"#);
        match telemetry::schema::validate_admin_snapshot(&snap) {
            Ok((n_metrics, n_slos)) => {
                println!("serve check: admin snapshot ok ({n_metrics} metrics, {n_slos} SLOs)");
            }
            Err(e) => {
                eprintln!("ADMIN SNAPSHOT INVALID: {e}\n  {snap}");
                return 1;
            }
        }
        let health = send(r#"{"op":"admin","cmd":"health"}"#);
        println!("serve check: {health}");
        std::fs::write(path, format!("{snap}\n")).expect("write --admin-out");
        if !health.contains("\"status\":\"pass\"") {
            eprintln!("GATE FAILED: server SLOs degraded: {health}");
            return 1;
        }
    }
    0
}
