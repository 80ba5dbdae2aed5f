//! `train-meta`: Meta-SGCL's two-step meta-optimised training with full
//! softmax, timed around `MetaSgcl::train_model_observed`.
//!
//! The timed run alternates two-epoch repetitions at batch 32 (`heavy`)
//! and one-epoch repetitions at batch 16 (`light`), both on `nproc`
//! threads, while its time lasts. By the determinism contract every
//! repetition must produce the same per-step losses, bit for bit, as the
//! first repetition of its kind over the steps they share.

use std::path::Path;
use std::time::Instant;

use meta_sgcl::{BatchStats, FrozenMetaSgcl, MetaSgcl, TrainObserver};
use models::{evaluate_test, evaluate_valid, SequentialRecommender, TrainConfig};
use nn::Freeze;
use rand::rngs::StdRng;
use rand::SeedableRng;
use recdata::{ItemId, LeaveOneOut};
use telemetry::json::Json;

use crate::gen::{self, Workload};
use crate::spans::Spans;
use crate::stats;
use crate::sys;
use crate::{Check, RunResult};

/// Epochs per heavy repetition; quality is measured after them.
const HEAVY_EPOCHS: usize = 2;
/// Epochs per light repetition.
const LIGHT_EPOCHS: usize = 1;
/// Mini-batch size of the heavy repetitions and the traced run.
const BATCH: usize = 32;
/// Mini-batch size of the light repetitions. They run on `nproc` threads
/// like the heavy ones: on a shared 2-core VM, one-thread step times
/// followed the host's single-core speed and spread by a third across
/// ten runs.
const LIGHT_BATCH: usize = 16;
/// Set-ups per timed run (their median is `setup_s`).
const SETUP_REPS: usize = 15;

const W: Workload = Workload::TrainMeta;

fn train_config(seed: u64, threads: usize, epochs: usize, batch_size: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size,
        max_len: gen::MAX_LEN,
        seed: gen::sub_seed(seed, 5),
        threads,
        ..TrainConfig::default()
    }
}

/// Data generation, split and model initialisation.
fn setup(seed: u64) -> (LeaveOneOut, Vec<Vec<ItemId>>, MetaSgcl) {
    let data = gen::dataset(W, seed);
    let split = LeaveOneOut::split(&data);
    let train = split.train_sequences();
    (split, train, gen::model(W, seed))
}

/// A frozen model behind the evaluation interface.
struct FrozenRecommender(FrozenMetaSgcl);

impl SequentialRecommender for FrozenRecommender {
    fn name(&self) -> String {
        "Meta-SGCL (frozen)".into()
    }

    fn num_items(&self) -> usize {
        self.0.num_items()
    }

    fn fit(&mut self, _train: &[Vec<ItemId>], _cfg: &TrainConfig) {}

    fn score(&mut self, _user: usize, seq: &[ItemId]) -> Vec<f32> {
        self.0.score_padded(seq)
    }
}

/// Times the interval between successive `on_batch_end` callbacks and
/// keeps each step's loss bits.
struct StepClock {
    last: Option<Instant>,
    steps_ms: Vec<f64>,
    losses: Vec<u64>,
    spans: Spans,
    step: u64,
}

impl TrainObserver for StepClock {
    fn on_batch_end(&mut self, stats: &BatchStats) {
        let now = Instant::now();
        self.losses.push(stats.total.to_bits());
        if let Some(last) = self.last {
            self.steps_ms.push((now - last).as_secs_f64() * 1e3);
        }
        self.step += 1;
        let opened = self.spans.open();
        self.last = Some(Instant::now());
        self.spans
            .close("meta_sgcl.observer.on_batch_end", opened, 0, self.step);
    }
}

struct Rep {
    wall_s: f64,
    cpu_ms: f64,
    seqs: usize,
    steps_ms: Vec<f64>,
    losses: Vec<u64>,
    digest: u64,
    final_loss: f64,
}

fn param_digest(model: &MetaSgcl) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in model.all_parameters() {
        for v in p.borrow().value.data() {
            h ^= u64::from(v.to_bits());
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Trains a fresh model for one repetition; returns its timings and the
/// trained model.
fn train_rep(
    seed: u64,
    train: &[Vec<ItemId>],
    cfg: &TrainConfig,
    clock: &mut StepClock,
) -> Result<(Rep, MetaSgcl), String> {
    let mut model = gen::model(W, seed);
    let pid = std::process::id();
    let cpu0 = sys::cpu_ms(pid);
    let t0 = Instant::now();
    model
        .train_model_observed(train, cfg, clock)
        .map_err(|e| format!("training failed: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_ms = sys::cpu_ms(pid) - cpu0;
    let seqs = train.iter().filter(|s| s.len() >= 2).count() * cfg.epochs;
    let rep = Rep {
        wall_s,
        cpu_ms,
        seqs,
        steps_ms: std::mem::take(&mut clock.steps_ms),
        losses: std::mem::take(&mut clock.losses),
        digest: param_digest(&model),
        final_loss: model.history().last().map_or(f64::NAN, |e| e.total),
    };
    clock.last = None;
    Ok((rep, model))
}

fn clock(spans: bool) -> StepClock {
    StepClock {
        last: None,
        steps_ms: Vec::new(),
        losses: Vec::new(),
        spans: Spans::new(spans, Instant::now(), 1),
        step: 0,
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let p = std::hint::black_box(setup(seed));
        setups.push(t0.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let (split, train, _) = prepared.ok_or("no set-up")?;
    let threads = sys::nproc();
    let t0 = Instant::now();
    let (mut heavy, mut light): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let mut check = Check::default();
    // The first repetition's per-step loss bits, light then heavy.
    let mut first_losses: [Option<Vec<u64>>; 2] = [None, None];
    let mut trained = None;
    let mut peak_rss = None;
    let mut observer = clock(false);
    loop {
        // Alternate, starting with heavy; always at least one of each.
        let use_heavy = heavy.len() <= light.len();
        let (reps, epochs, batch) = if use_heavy {
            (&heavy, HEAVY_EPOCHS, BATCH)
        } else {
            (&light, LIGHT_EPOCHS, LIGHT_BATCH)
        };
        let expected = reps.last().map_or(0.0, |r| r.wall_s);
        if !heavy.is_empty() && !light.is_empty() && t0.elapsed().as_secs_f64() + expected > seconds
        {
            break;
        }
        let cfg = train_config(seed, threads, epochs, batch);
        let (rep, model) = train_rep(seed, &train, &cfg, &mut observer)?;
        check.expect(rep.final_loss.is_finite(), || {
            format!("final loss {}", rep.final_loss)
        });
        let first = first_losses[usize::from(use_heavy)].get_or_insert_with(|| rep.losses.clone());
        let shared = first.len().min(rep.losses.len());
        check.expect(rep.losses[..shared] == first[..shared], || {
            format!("per-step losses at batch {batch} differ from the first such repetition's")
        });
        res.report.push(format!(
            "{{\"repetition\":\"{}\",\"threads\":{threads},\"batch\":{batch},\"wall_s\":{:.3},\"cpu_ms\":{:.0},\"seqs\":{},\"steps\":{},\
             \"final_loss\":{:.6},\"param_digest\":\"{:016x}\"}}",
            if use_heavy { "heavy" } else { "light" },
            rep.wall_s,
            rep.cpu_ms,
            rep.seqs,
            rep.steps_ms.len() + 1,
            rep.final_loss,
            rep.digest
        ));
        if use_heavy {
            trained = Some(model);
        }
        if peak_rss.is_none() {
            // The first repetition's peak: later ones add allocator and
            // pool high-water marks that vary from run to run.
            peak_rss = Some(sys::peak_rss_mb(std::process::id()));
        }
        if use_heavy {
            heavy.push(rep);
        } else {
            light.push(rep);
        }
    }
    // The frozen forward is bitwise-equal to `score_sequence` and twice
    // as fast; test and validation targets together halve the variance
    // across seeds of test alone.
    let mut frozen = FrozenRecommender(trained.ok_or("no heavy repetition")?.freeze());
    let ndcg_test = evaluate_test(&mut frozen, &split, &[10]).ndcg(10);
    let ndcg_valid = evaluate_valid(&mut frozen, &split, &[10]).ndcg(10);
    let ndcg = (ndcg_test + ndcg_valid) / 2.0;
    check.expect(ndcg.is_finite() && ndcg > 0.0, || format!("ndcg@10 {ndcg}"));
    res.report.push(format!(
        "{{\"ndcg_at_10\":{{\"test\":{ndcg_test},\"valid\":{ndcg_valid}}}}}"
    ));

    for (level, reps) in [("light", &light), ("heavy", &heavy)] {
        let steps: Vec<f64> = reps
            .iter()
            .flat_map(|r| r.steps_ms.iter().copied())
            .collect();
        let s = stats::summarize(&steps, 99.0);
        res.put(format!("latency_p50_ms.{level}"), s.p50, s.n);
        res.put(format!("latency_p99_ms.{level}"), s.tail, s.n);
        res.report.push(format!(
            "{{\"steps\":\"{level}\",\"n\":{},\"p50_ms\":{:.3},\"tail_pct\":{:.2},\"tail_ms\":{:.3}}}",
            s.n, s.p50, s.tail_pct, s.tail
        ));
    }
    let seqs: usize = heavy.iter().map(|r| r.seqs).sum();
    let wall: f64 = heavy.iter().map(|r| r.wall_s).sum();
    let cpu: f64 = heavy.iter().map(|r| r.cpu_ms).sum();
    res.put("max_rate_rps", seqs as f64 / wall, heavy.len());
    res.put(
        "cpu_ms_per_kop",
        cpu / seqs.max(1) as f64 * 1e3,
        heavy.len(),
    );
    res.put("quality_at_10", ndcg, split.num_users());
    res.put("setup_s", stats::median(&setups), setups.len());
    res.put("peak_rss_mb", peak_rss.unwrap_or(0.0), 1);
    res.attempted = (heavy.len() + light.len()) as u64;
    res.failed = check.mismatches as u64;
    res.notes = check.notes;
    Ok(res)
}

/// One span line of the trainer's `trace_out` stream.
struct TraceSpan {
    id: u64,
    parent: u64,
    name: String,
    dur_ms: f64,
    shard: Option<u64>,
}

/// Counter and gauge values of the trace's metric snapshot.
type Counters = Vec<(String, f64)>;

fn read_trace(path: &Path) -> Result<(Vec<TraceSpan>, Counters), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut spans = Vec::new();
    let mut counters = Vec::new();
    for line in text.lines() {
        let j = telemetry::json::parse(line).map_err(|e| format!("trace line: {e}"))?;
        let num = |k: &str| j.get(k).and_then(Json::as_num);
        let name = j
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        match j.get("ev").and_then(Json::as_str) {
            Some("span") => spans.push(TraceSpan {
                id: num("id").unwrap_or(0.0) as u64,
                parent: num("parent").unwrap_or(0.0) as u64,
                dur_ms: num("dur_ns").unwrap_or(0.0) / 1e6,
                shard: num("shard").map(|v| v as u64),
                name,
            }),
            Some("metric") => {
                if let Some(v) = num("value") {
                    counters.push((name, v));
                }
            }
            _ => {}
        }
    }
    Ok((spans, counters))
}

/// The traced run: one untraced and one traced `nproc`-thread epoch (the
/// difference is the tracing overhead), the trainer's own `trace_out`
/// spans and `metrics_out` stream, and benchmark-side spans around
/// `recdata::Batcher` and the observer callbacks.
pub fn run_traced(seed: u64) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let (_, train, _) = setup(seed);
    let threads = sys::nproc();
    let mut check = Check::default();
    let (plain, _) = train_rep(
        seed,
        &train,
        &train_config(seed, threads, LIGHT_EPOCHS, BATCH),
        &mut clock(false),
    )?;

    let dir = Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let trace = dir.join(format!("train-trace-{seed}.jsonl"));
    let metrics = dir.join(format!("train-metrics-{seed}.jsonl"));
    let cfg = TrainConfig {
        trace_out: Some(trace.to_string_lossy().into_owned()),
        metrics_out: Some(metrics.to_string_lossy().into_owned()),
        ..train_config(seed, threads, LIGHT_EPOCHS, BATCH)
    };
    telemetry::metrics::reset();
    let mut observer = clock(true);
    let (traced, _) = train_rep(seed, &train, &cfg, &mut observer)?;
    check.expect(traced.digest == plain.digest, || {
        "tracing changed the trained parameters".into()
    });
    res.put(
        "perfbench.trace_overhead_frac",
        traced.wall_s / plain.wall_s - 1.0,
        2,
    );

    // recdata::Batcher building one epoch, as the trainer does.
    let mut spans = observer.spans;
    let mut rng = StdRng::seed_from_u64(gen::sub_seed(seed, 6));
    let mut build_ms = Vec::new();
    for _ in 0..5 {
        let opened = spans.open();
        let batches = recdata::Batcher::new(train.clone(), gen::MAX_LEN, BATCH).epoch(&mut rng);
        std::hint::black_box(batches);
        spans.close("recdata.batcher.epoch", opened, 0, 0);
        build_ms.push(spans.spans.last().map_or(0.0, |s| s.us() / 1e3));
    }
    res.put(
        "recdata.batch_build_ms_per_epoch",
        stats::median(&build_ms),
        build_ms.len(),
    );
    let bench_spans = dir.join(format!("train-spans-{seed}.jsonl"));
    crate::spans::write_jsonl(&bench_spans, &spans.spans).map_err(|e| e.to_string())?;

    let (tspans, counters) = read_trace(&trace)?;
    let counter = |name: &str| {
        counters
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let total = |name: &str| {
        tspans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ms)
            .sum::<f64>()
    };
    let steps = tspans.iter().filter(|s| s.name == "batch").count().max(1) as f64;
    res.put(
        "meta_sgcl.train.forward_ms_per_step",
        total("forward") / steps,
        steps as usize,
    );
    res.put(
        "meta_sgcl.train.backward_ms_per_step",
        total("backward") / steps,
        steps as usize,
    );
    res.put(
        "meta_sgcl.train.opt_step_ms_per_step",
        total("opt_step") / steps,
        steps as usize,
    );
    res.put(
        "meta_sgcl.train.stage2_share",
        total("stage2") / total("batch").max(1e-9),
        steps as usize,
    );
    // Per stage: the slowest shard's forward + backward is the stage's
    // critical path; opt_step follows it. The rest of the batch span is
    // unattributed.
    let mut covered = 0.0;
    let mut skews = Vec::new();
    for stage in tspans
        .iter()
        .filter(|s| s.name == "stage1" || s.name == "stage2")
    {
        let mut shard_ms: std::collections::BTreeMap<u64, f64> = Default::default();
        let mut opt = 0.0;
        for c in tspans.iter().filter(|c| c.parent == stage.id) {
            match (c.name.as_str(), c.shard) {
                ("forward" | "backward", Some(sh)) => *shard_ms.entry(sh).or_default() += c.dur_ms,
                ("opt_step", _) => opt += c.dur_ms,
                _ => {}
            }
        }
        let max = shard_ms.values().copied().fold(0.0, f64::max);
        let mean = shard_ms.values().sum::<f64>() / shard_ms.len().max(1) as f64;
        if mean > 0.0 {
            skews.push(max / mean);
        }
        covered += max + opt;
    }
    res.put(
        "meta_sgcl.train.unattributed_share",
        1.0 - covered / total("batch").max(1e-9),
        steps as usize,
    );
    res.put(
        "meta_sgcl.exec.shard_skew",
        skews.iter().sum::<f64>() / skews.len().max(1) as f64,
        skews.len(),
    );
    res.put(
        "tensor.gemm.calls_per_step",
        counter("tensor.gemm.calls") / steps,
        steps as usize,
    );
    res.put(
        "tensor.gemm.cells_per_step",
        counter("tensor.gemm.cells") / steps,
        steps as usize,
    );
    res.put(
        "autograd.tape_nodes_per_step",
        counter("autograd.tape.nodes") / steps,
        steps as usize,
    );
    let (hit, miss) = (counter("tensor.pool.hit"), counter("tensor.pool.miss"));
    res.put(
        "tensor.pool.miss_per_op",
        miss / (hit + miss).max(1.0),
        (hit + miss) as usize,
    );
    res.report.push(format!(
        "{{\"traced_epoch\":{{\"plain_wall_s\":{:.3},\"traced_wall_s\":{:.3},\"steps\":{steps},\"trace\":\"{}\",\"metrics\":\"{}\"}}}}",
        plain.wall_s,
        traced.wall_s,
        trace.display(),
        metrics.display()
    ));
    res.attempted = 2;
    res.failed = check.mismatches as u64;
    res.notes = check.notes;
    Ok(res)
}
