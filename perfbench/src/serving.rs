//! The serving workloads, timed from the client side of the TCP front
//! end: open-loop Poisson load at two fixed rates, a search for the
//! highest rate that meets the latency limit, correctness checks against
//! the offline reference, and a cross-check of the server's counters.

use std::time::{Duration, Instant};

use meta_sgcl::FrozenMetaSgcl;
use nn::Freeze;
use serve::{proto, top_k, Engine};

use crate::gen::{self, Req, ReqKind, Stream, Workload, K};
use crate::load::{run_level, Conn, Outcome, ServerProc, Snapshot};
use crate::reference::{Answer, RefSessions};
use crate::spans::Spans;
use crate::stats::{self, Summary};
use crate::sys;
use crate::{Check, RunResult};

/// Latency limit on p99: `msgc serve --slo-p99-ms`'s default.
pub const LIMIT_MS: f64 = 50.0;
/// A level whose generator ran later than this (tail) misses the limit.
const LATE_LIMIT_MS: f64 = 10.0;
/// How long a level waits for replies after its last due time.
const DRAIN: Duration = Duration::from_secs(3);
/// Length of one level of the max-rate search.
const SEARCH_LEVEL_S: f64 = 1.0;
/// Length of the untimed level that warms the server up.
const WARM_UP_S: f64 = 1.0;
/// Alternating light/heavy rounds in a timed run.
const ROUNDS: usize = 4;
/// First rate step of the max-rate staircase.
const SEARCH_STEP: f64 = 1.2;
/// Reversals after which the staircase has bracketed the limit, takes its
/// settled steps, and counts its rates towards the estimate.
const SETTLE_REVERSALS: usize = 2;
/// The settled staircase's rate step after a level that meets the limit.
const SETTLED_UP: f64 = 1.02 * 1.02 * 1.02;
/// The settled staircase's rate step after a miss: a third of the step up,
/// in log terms, so the staircase settles where a quarter of levels meet
/// the limit.
const SETTLED_DOWN: f64 = 1.02;

/// The fixed `light` and `heavy` rates (req/s) of a serving workload,
/// frozen from its `max_rate_rps` on the seed commit (about 1,300 and
/// 920 req/s on a quiet 2-core Xeon VM): `light` is about 20% of it and
/// `heavy` about 30%. The host is shared, and in contended stretches its
/// capacity drops by a third or more. At 50% or 70% that saturated the
/// server and the heavy tail swung from 15 ms to 450 ms between runs.
pub fn rates(w: Workload) -> (f64, f64) {
    match w {
        Workload::ServeAppend => (260.0, 390.0),
        _ => (185.0, 280.0),
    }
}

/// Server set-ups per timed run (their median is `setup_s`).
fn setup_reps(w: Workload) -> usize {
    // The HNSW build makes `serve-score-ann`'s set-up seconds long;
    // `serve-append`'s takes milliseconds, so more repetitions steady it.
    if w == Workload::ServeScoreAnn {
        3
    } else {
        15
    }
}

/// One level's outcome.
pub struct Level {
    name: String,
    rate: f64,
    sent: usize,
    failed: usize,
    lat: Summary,
    late: Summary,
    outstanding_end: usize,
    pass: bool,
}

impl Level {
    fn new(name: &str, rate: f64, outs: &[Outcome], conns: usize) -> Level {
        let failed = outs.iter().filter(|o| !replied_ok(o)).count();
        // A failed request misses every latency limit.
        let lat: Vec<f64> = outs
            .iter()
            .map(|o| match (replied_ok(o), o.latency_ms) {
                (true, Some(ms)) => ms,
                _ => f64::MAX,
            })
            .collect();
        let late: Vec<f64> = outs.iter().filter(|o| o.sent).map(|o| o.late_ms).collect();
        let end = outs.iter().map(|o| o.due_s).fold(0.0, f64::max);
        let outstanding_end = outs
            .iter()
            .filter(|o| o.latency_ms.is_none_or(|ms| o.due_s + ms / 1e3 > end))
            .count();
        let lat = stats::summarize(&lat, 99.0);
        let late = stats::summarize(&late, 99.0);
        // Little's law: more than a limit's worth of arrivals still queued
        // at the end means the backlog was growing.
        let backlog_ok = outstanding_end as f64 <= rate * LIMIT_MS / 1e3 + conns as f64;
        let pass = failed == 0 && lat.tail <= LIMIT_MS && late.tail <= LATE_LIMIT_MS && backlog_ok;
        Level {
            name: name.to_string(),
            rate,
            sent: outs.iter().filter(|o| o.sent).count(),
            failed,
            lat,
            late,
            outstanding_end,
            pass,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"level\":\"{}\",\"rate_rps\":{:.1},\"attempted\":{},\"sent\":{},\"succeeded\":{},\"failed\":{},\
             \"latency_p50_ms\":{:.3},\"latency_tail_pct\":{:.2},\"latency_tail_ms\":{:.3},\
             \"generator_late_p50_ms\":{:.3},\"generator_late_tail_ms\":{:.3},\"outstanding_at_end\":{},\"meets_limit\":{}}}",
            self.name,
            self.rate,
            self.lat.n,
            self.sent,
            self.lat.n - self.failed,
            self.failed,
            self.lat.p50,
            self.lat.tail_pct,
            finite(self.lat.tail),
            self.late.p50,
            self.late.tail,
            self.outstanding_end,
            self.pass
        )
    }
}

fn finite(v: f64) -> f64 {
    if v == f64::MAX {
        -1.0
    } else {
        v
    }
}

fn replied_ok(o: &Outcome) -> bool {
    o.reply
        .as_deref()
        .is_some_and(|r| !r.starts_with("{\"error\""))
}

/// A TCP session against one serving process: persistent connections,
/// the seeded request streams, and a log of every request sent.
struct Session {
    seed: u64,
    conns: Vec<Conn>,
    stream: Stream,
    /// The max-rate search's own stream, on users of its own, so the
    /// fixed-rate levels send the same requests on every run of a seed
    /// however many the search sent between them.
    search_stream: Stream,
    levels: u64,
    log: Vec<(Req, Outcome)>,
}

/// Added to the user ids of the search's stream.
const SEARCH_USER_OFFSET: u64 = 1 << 40;

impl Session {
    fn new(
        w: Workload,
        seed: u64,
        server: &ServerProc,
        data: &recdata::Dataset,
    ) -> Result<Session, String> {
        // At most nproc connections, each driven by one generator thread.
        let conns = (0..sys::nproc().clamp(1, 2))
            .map(|_| Conn::open(&server.addr))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Session {
            seed,
            conns,
            stream: Stream::new(w, data, seed),
            search_stream: Stream::new(w, data, gen::sub_seed(seed, 2)),
            levels: 0,
            log: Vec::new(),
        })
    }

    /// Runs one open-loop level at `rate` for `secs`, from the search's
    /// stream when `search` is set. Each user is pinned to one connection
    /// so its requests stay in order.
    fn level(&mut self, name: &str, rate: f64, secs: f64, search: bool) -> Level {
        self.levels += 1;
        let arrivals =
            gen::poisson_arrivals(rate, secs, gen::sub_seed(self.seed, 1_000 + self.levels));
        let reqs: Vec<Req> = arrivals
            .iter()
            .map(|_| {
                if search {
                    let mut r = self.search_stream.next_req();
                    r.user += SEARCH_USER_OFFSET;
                    r
                } else {
                    self.stream.next_req()
                }
            })
            .collect();
        let n = self.conns.len() as u64;
        let plan: Vec<(f64, usize, String)> = arrivals
            .iter()
            .zip(&reqs)
            .map(|(&t, r)| (t, (r.user % n) as usize, r.line()))
            .collect();
        let outs = run_level(&mut self.conns, &plan, DRAIN);
        let level = Level::new(name, rate, &outs, self.conns.len());
        self.log.extend(reqs.into_iter().zip(outs));
        level
    }
}

/// The search for the highest rate meeting the limit: a staircase that
/// raises the rate after each level meeting the limit and lowers it
/// after each miss. The step starts at [`SEARCH_STEP`] both ways and is
/// square-rooted at each reversal. After [`SETTLE_REVERSALS`] reversals
/// it steps up by [`SETTLED_UP`] and down by
/// [`SETTLED_DOWN`], so it settles around the rate where one level in
/// four meets the limit, and the estimate is the geometric mean of the
/// rates it visits. A one-second level on a shared host can miss at any
/// rate when the host stalls the server. Aiming at one level in four
/// rather than one in two keeps such misses from walking the estimate
/// down, the way the retry of a missed level does in a bisection, and
/// one level moves the estimate by one step instead of fixing a bracket
/// end.
struct Staircase {
    rate: f64,
    step: f64,
    reversals: usize,
    last: Option<bool>,
    settled: Vec<f64>,
}

impl Staircase {
    fn new(start: f64) -> Staircase {
        Staircase {
            rate: start,
            step: SEARCH_STEP,
            reversals: 0,
            last: None,
            settled: Vec::new(),
        }
    }

    /// Runs the next level and moves the rate.
    fn level(&mut self, sess: &mut Session, levels: &mut Vec<Level>) {
        let l = sess.level("search", self.rate, SEARCH_LEVEL_S, true);
        if self.last.is_some_and(|p| p != l.pass) {
            self.reversals += 1;
            self.step = self.step.sqrt();
        }
        self.last = Some(l.pass);
        let (up, down) = if self.reversals >= SETTLE_REVERSALS {
            self.settled.push(self.rate);
            (SETTLED_UP, SETTLED_DOWN)
        } else {
            (self.step, self.step)
        };
        self.rate = if l.pass {
            self.rate * up
        } else {
            self.rate / down
        };
        levels.push(l);
    }

    /// The estimate and the number of levels it averages (before the
    /// staircase settles, the rate it reached).
    fn estimate(&self) -> (f64, usize) {
        if self.settled.is_empty() {
            return (self.rate, 0);
        }
        let mean_ln = self.settled.iter().map(|r| r.ln()).sum::<f64>() / self.settled.len() as f64;
        (mean_ln.exp(), self.settled.len())
    }
}

fn parse_answer(line: &str) -> Option<Answer> {
    proto::parse_response(line)
        .ok()
        .map(|r| (r.items, r.scores))
}

fn same_bits(a: &Answer, b: &Answer) -> bool {
    a.0 == b.0
        && a.1.len() == b.1.len()
        && a.1
            .iter()
            .zip(&b.1)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The engine's cold-start answer for this workload's data.
fn cold_answer(w: Workload, data: &recdata::Dataset, model: FrozenMetaSgcl) -> Answer {
    Engine::new(model, crate::child::mode(w))
        .with_popularity(&gen::popularity_counts(data))
        .cold_start_top_k(K)
}

/// Replies of `serve-append` against the offline incremental reference:
/// every reply of a sample of users (the three hottest and one rank in
/// sixteen, of both streams), up to `CHECK_PER_USER` each, bitwise. Returns recall@10 of
/// the checked replies against the reference.
fn check_append(
    model: &FrozenMetaSgcl,
    cold: Answer,
    log: &[(Req, Outcome)],
    check: &mut Check,
) -> f64 {
    const CHECK_PER_USER: usize = 80;
    let mut reference = RefSessions::new(model, true, None, cold);
    let mut spans = Spans::new(false, Instant::now(), 0);
    let mut per_user: std::collections::HashMap<u64, usize> = Default::default();
    let mut broken: std::collections::HashSet<u64> = Default::default();
    let (mut hits, mut total) = (0usize, 0usize);
    for (req, out) in log {
        let u = req.user;
        let rank = u % SEARCH_USER_OFFSET;
        if !(rank < 3 || rank % 16 == 5) || broken.contains(&u) {
            continue;
        }
        let n = per_user.entry(u).or_default();
        if *n >= CHECK_PER_USER {
            continue;
        }
        *n += 1;
        let Some(served) = out.reply.as_deref().and_then(parse_answer) else {
            // Already failed; the server's state for this user is unknown.
            broken.insert(u);
            continue;
        };
        let want = reference.handle_chunk(&[req], &mut spans).remove(0);
        hits += served.0.iter().filter(|i| want.0.contains(i)).count();
        total += want.0.len();
        check.expect(same_bits(&served, &want), || {
            format!("user {u}: served {:?} != reference {:?}", served.0, want.0)
        });
    }
    hits as f64 / total.max(1) as f64
}

/// Replies of `serve-score-ann`: exactly k real items each, cold starts
/// equal to the popularity ranking bitwise; returns recall@10 against
/// offline exact `score_full` + `top_k` on the first
/// `RECALL_SAMPLE` non-empty histories.
fn check_ann(
    model: &FrozenMetaSgcl,
    cold: Answer,
    log: &[(Req, Outcome)],
    check: &mut Check,
) -> f64 {
    const RECALL_SAMPLE: usize = 300;
    let n_items = model.num_items();
    let (mut hits, mut total, mut sampled) = (0usize, 0usize, 0usize);
    for (req, out) in log {
        let Some(served) = out.reply.as_deref().and_then(parse_answer) else {
            continue;
        };
        check.expect(
            served.0.len() == K && served.0.iter().all(|&i| (1..=n_items).contains(&i)),
            || format!("user {}: reply items {:?}", req.user, served.0),
        );
        let ReqKind::Score { history, .. } = &req.kind else {
            continue;
        };
        if history.is_empty() {
            check.expect(same_bits(&served, &cold), || {
                format!("cold start {:?} != popularity {:?}", served.0, cold.0)
            });
        } else if sampled < RECALL_SAMPLE {
            sampled += 1;
            let (exact, _) = top_k(&model.score_padded(history), K);
            hits += served.0.iter().filter(|i| exact.contains(i)).count();
            total += exact.len();
        }
    }
    hits as f64 / total.max(1) as f64
}

/// The server's counters against the generator's own counts.
fn cross_check(snap: &Snapshot, log: &[(Req, Outcome)], check: &mut Check) {
    let sent = log.iter().filter(|(_, o)| o.sent).count() as f64;
    let cold = log
        .iter()
        .filter(|(r, o)| {
            o.sent && matches!(&r.kind, ReqKind::Score { history, .. } if history.is_empty())
        })
        .count() as f64;
    let requests = snap.counter("serve.requests");
    let answered = snap.counter("serve.cache.hit")
        + snap.counter("serve.cache.miss")
        + snap.counter("serve.cold_start")
        + snap.counter("serve.ann.query");
    let (sketched, _) = snap.sketch("serve.latency_us", "count");
    for (what, got, want) in [
        ("serve.requests vs requests sent", requests, sent),
        (
            "cache.hit + cache.miss + cold_start + ann.query vs scoring requests",
            answered,
            sent,
        ),
        (
            "serve.cold_start vs empty histories sent",
            snap.counter("serve.cold_start"),
            cold,
        ),
        ("serve.latency_us count vs requests sent", sketched, sent),
        (
            "serve.reencode vs cache.miss + ann.query",
            snap.counter("serve.reencode"),
            snap.counter("serve.cache.miss") + snap.counter("serve.ann.query"),
        ),
    ] {
        check.expect(got == want, || {
            format!("counter cross-check: {what}: {got} != {want}")
        });
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..setup_reps(w) {
        // Each earlier server is stopped before the next starts.
        drop(server.take());
        let s = ServerProc::start(w, seed)?;
        setups.push(s.setup_s);
        server = Some(s);
    }
    let server = server.ok_or("no server")?;
    let data = gen::dataset(w, seed);
    let mut sess = Session::new(w, seed, &server, &data)?;
    let (light, heavy) = rates(w);
    let pid = server.pid();
    // One untimed level first, so the rounds start on warm caches.
    let mut search_levels = vec![sess.level("warm-up", light, WARM_UP_S, false)];
    // Light and heavy alternate in short rounds, and each metric is the
    // median over its rounds, so one contended moment on a shared host
    // moves one round, not the result. The max-rate staircase takes the
    // other half of each round, so it too spans the whole run. It starts
    // near the seed commit's rate, so its levels are spent around the
    // limit.
    let round = seconds / 4.0 / ROUNDS as f64;
    let search_per_round = (seconds / 2.0 / ROUNDS as f64 / SEARCH_LEVEL_S).round() as usize;
    let mut stair = Staircase::new(3.5 * heavy);
    // The server's on-CPU time per 1,000 requests of each fixed-rate
    // level.
    let mut cpu_per_kop = Vec::new();
    let mut runqueue_wait_ns = 0;
    let mut levels = Vec::new();
    for _ in 0..ROUNDS {
        for (name, rate) in [("light", light), ("heavy", heavy)] {
            let before = sys::schedstat(pid);
            let l = sess.level(name, rate, round, false);
            let after = sys::schedstat(pid);
            cpu_per_kop.push(after.0.saturating_sub(before.0) as f64 / 1e3 / l.sent.max(1) as f64);
            runqueue_wait_ns += after.1.saturating_sub(before.1);
            levels.push(l);
        }
        for _ in 0..search_per_round {
            stair.level(&mut sess, &mut search_levels);
        }
    }
    let rss = sys::peak_rss_mb(pid);
    let (max_rate, settled) = stair.estimate();
    let snap = server.snapshot()?;
    drop(server);

    let mut check = Check::default();
    cross_check(&snap, &sess.log, &mut check);
    let model = gen::model(w, seed).freeze();
    let cold = cold_answer(w, &data, gen::model(w, seed).freeze());
    let quality = match w {
        Workload::ServeScoreAnn => check_ann(&model, cold, &sess.log, &mut check),
        _ => check_append(&model, cold, &sess.log, &mut check),
    };

    let sent = sess.log.iter().filter(|(_, o)| o.sent).count();
    res.attempted = sess.log.len() as u64;
    res.failed =
        (sess.log.iter().filter(|(_, o)| !replied_ok(o)).count() + check.mismatches) as u64;
    res.notes = check.notes;
    for l in levels.iter().chain(&search_levels) {
        res.report.push(l.json());
    }
    res.report.push(format!(
        "{{\"server\":{{\"cpu_ms_per_kop_by_level\":{cpu_per_kop:.1?},\"levels_runqueue_wait_ms\":{:.1},\
         \"peak_rss_mb\":{rss:.2},\"setups_s\":{setups:?},\"staircase_rates\":{:.1?},\
         \"requests_sent\":{sent},\"checked_mismatches\":{}}}}}",
        runqueue_wait_ns as f64 / 1e6,
        stair.settled,
        check.mismatches,
    ));
    for (name, first) in [("light", 0), ("heavy", 1)] {
        let rounds: Vec<&Level> = levels[first..2 * ROUNDS].iter().step_by(2).collect();
        let n = rounds.iter().map(|l| l.lat.n).sum();
        let p50: Vec<f64> = rounds.iter().map(|l| l.lat.p50).collect();
        let tail: Vec<f64> = rounds.iter().map(|l| l.lat.tail).collect();
        res.put(format!("latency_p50_ms.{name}"), stats::median(&p50), n);
        res.put(format!("latency_p99_ms.{name}"), stats::median(&tail), n);
    }
    res.put("max_rate_rps", max_rate, settled);
    let round_sent = levels.iter().map(|l| l.sent).sum();
    res.put("cpu_ms_per_kop", stats::median(&cpu_per_kop), round_sent);
    res.put("quality_at_10", quality, sent);
    res.put("setup_s", stats::median(&setups), setups.len());
    res.put("peak_rss_mb", rss, 1);
    Ok(res)
}

/// The traced run: the same stream over TCP at the two fixed rates with
/// an admin snapshot after each, then an in-process replay through the
/// layers' public functions with a span around every call.
pub fn run_traced(w: Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let server = ServerProc::start(w, seed)?;
    let data = gen::dataset(w, seed);
    let mut sess = Session::new(w, seed, &server, &data)?;
    let (light, heavy) = rates(w);
    let phase = seconds * 0.25;
    let lt = sess.level("light", light, phase, false);
    let snap_light = server.snapshot()?;
    let hv = sess.level("heavy", heavy, phase, false);
    let snap = server.snapshot()?;
    drop(server);
    res.report.push(lt.json());
    res.report.push(hv.json());
    let mut check = Check::default();
    cross_check(&snap, &sess.log, &mut check);

    // Wire: client latency minus the server's own latency sketch.
    let (srv_p50_us, _) = snap_light.sketch("serve.latency_us", "p50");
    let (srv_p99_us, _) = snap_light.sketch("serve.latency_us", "p99");
    res.put(
        "serve.server.wire_ms.p50",
        lt.lat.p50 - srv_p50_us / 1e3,
        lt.lat.n,
    );
    res.put(
        "serve.server.wire_ms.p99",
        lt.lat.tail - srv_p99_us / 1e3,
        lt.lat.n,
    );
    let requests = snap.counter("serve.requests");
    let (batches, batched) = snap.hist("serve.batch.size");
    res.put(
        "serve.batcher.batch_size.mean",
        batched / batches.max(1.0),
        batches as usize,
    );
    let (waits, wait_sum) = snap.hist("serve.batch.wait_us");
    res.put(
        "serve.batcher.assemble_us.mean",
        wait_sum / waits.max(1.0),
        waits as usize,
    );
    let hit = snap.counter("serve.cache.hit");
    let miss = snap.counter("serve.cache.miss");
    res.put(
        "serve.engine.cache_hit_ratio",
        hit / (hit + miss).max(1.0),
        (hit + miss) as usize,
    );
    res.put(
        "serve.engine.reencode_per_req",
        snap.counter("serve.reencode") / requests.max(1.0),
        requests as usize,
    );
    res.put(
        "serve.engine.cold_start_frac",
        snap.counter("serve.cold_start") / requests.max(1.0),
        requests as usize,
    );
    let ann_reqs = sess
        .log
        .iter()
        .filter(|(r, _)| matches!(r.kind, ReqKind::Score { ann: true, .. }))
        .count() as f64;
    res.put(
        "serve.ann.fallback_frac",
        snap.counter("serve.ann.fallback") / ann_reqs.max(1.0),
        ann_reqs as usize,
    );
    let (phit, pmiss) = (
        snap.counter("tensor.pool.hit"),
        snap.counter("tensor.pool.miss"),
    );
    res.put(
        "tensor.pool.miss_per_op",
        pmiss / (phit + pmiss).max(1.0),
        (phit + pmiss) as usize,
    );

    replay(
        w,
        seed,
        &sess.log,
        (batched / batches.max(1.0)).round().max(1.0) as usize,
        &mut res,
    )?;

    res.attempted = sess.log.len() as u64;
    res.failed =
        (sess.log.iter().filter(|(_, o)| !replied_ok(o)).count() + check.mismatches) as u64;
    res.notes = check.notes;
    Ok(res)
}

/// Requests replayed in process by the traced run.
const REPLAY_MAX: usize = 3_000;

/// The in-process replay: the front end's sequence (`parse_request` →
/// `Batcher::submit_obs` → `format_response` → `ServeObs::complete`) on
/// one thread per connection, once untraced and once with spans (the
/// difference is the tracing overhead), then the model, `top_k` and
/// HNSW calls directly on the same inputs.
fn replay(
    w: Workload,
    seed: u64,
    log: &[(Req, Outcome)],
    batch: usize,
    res: &mut RunResult,
) -> Result<(), String> {
    use std::sync::Arc;
    telemetry::set_enabled(true);
    let engine = Arc::new(crate::child::build_engine(w, seed));
    let batcher = serve::Batcher::new(
        Arc::clone(&engine),
        crate::child::BATCH_MAX,
        Duration::from_micros(crate::child::BATCH_WAIT_US),
    );
    let obs = serve::ServeObs::new(serve::ObsConfig::default());
    let reqs: Vec<&Req> = log.iter().take(REPLAY_MAX).map(|(r, _)| r).collect();
    let conns = sys::nproc().clamp(1, 2) as u64;
    let origin = Instant::now();
    let front = |traced: bool, user_offset: u64| -> (f64, Vec<Spans>, Vec<u64>, usize) {
        let t0 = Instant::now();
        let results: Vec<(Spans, Vec<u64>, usize)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..conns)
                .map(|c| {
                    let (batcher, obs, reqs) = (&batcher, &obs, &reqs);
                    s.spawn(move || {
                        let mut spans = Spans::new(traced, origin, c + 1 + 2 * u64::from(traced));
                        let mut enqueue = Vec::new();
                        let mut bytes = 0usize;
                        for r in reqs.iter().filter(|r| r.user % conns == c) {
                            let mut r = (*r).clone();
                            r.user += user_offset;
                            let line = r.line();
                            let root = spans.open();
                            let id = obs.next_id();
                            let parsed =
                                spans.time("serve.proto.parse_request", root.0, id, || {
                                    proto::parse_request(&line)
                                });
                            let Ok(proto::Incoming::Req(req)) = parsed else {
                                continue;
                            };
                            let start = Instant::now();
                            let (resp, report) =
                                spans.time("serve.batcher.submit_obs", root.0, id, || {
                                    batcher.submit_obs(req, false)
                                });
                            let ser = Instant::now();
                            let text =
                                spans.time("serve.proto.format_response", root.0, id, || {
                                    proto::format_response(&resp)
                                });
                            let serialize_ns = ser.elapsed().as_nanos() as u64;
                            bytes += text.len();
                            enqueue.push(report.enqueue_ns);
                            let ctx = serve::ReqCtx {
                                id,
                                op: if matches!(r.kind, ReqKind::Append { .. }) {
                                    "append"
                                } else {
                                    "score"
                                },
                                user: r.user,
                                sampled: false,
                                total_ns: start.elapsed().as_nanos() as u64,
                                enqueue_ns: report.enqueue_ns,
                                assemble_ns: report.assemble_ns,
                                serialize_ns,
                                obs: report.obs,
                            };
                            spans.time("serve.obs.complete", root.0, id, || obs.complete(&ctx));
                            spans.close("request", root, 0, id);
                        }
                        (spans, enqueue, bytes)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay thread panicked"))
                .collect()
        });
        let wall = t0.elapsed().as_secs_f64();
        let mut spans = Vec::new();
        let mut enqueue = Vec::new();
        let mut bytes = 0;
        for (s, e, b) in results {
            spans.push(s);
            enqueue.extend(e);
            bytes += b;
        }
        (wall, spans, enqueue, bytes)
    };
    // Untraced first, then traced on fresh user ids so both see the same
    // session history.
    let (plain_s, _, _, _) = front(false, 0);
    let sessions = engine.num_sessions();
    let (traced_s, recorders, enqueue, bytes) = front(true, 1 << 40);
    res.put(
        "perfbench.trace_overhead_frac",
        traced_s / plain_s - 1.0,
        reqs.len(),
    );
    res.put("serve.engine.sessions", sessions as f64, reqs.len());
    let mut all: Vec<crate::spans::Span> = recorders.into_iter().flat_map(|s| s.spans).collect();
    let selfs = crate::spans::self_times(&all);
    let p50 = |name: &str| {
        let v = crate::spans::self_us(&selfs, name);
        (stats::summarize(&v, 99.0), v.len())
    };
    let (parse, n) = p50("serve.proto.parse_request");
    res.put("serve.proto.parse_us.p50", parse.p50, n);
    let (format, n) = p50("serve.proto.format_response");
    res.put("serve.proto.format_us.p50", format.p50, n);
    res.put(
        "serve.proto.reply_bytes.mean",
        bytes as f64 / n.max(1) as f64,
        n,
    );
    let (complete, n) = p50("serve.obs.complete");
    res.put("serve.obs.complete_us.p50", complete.p50, n);
    let enq: Vec<f64> = enqueue.iter().map(|&ns| ns as f64 / 1e3).collect();
    let enq = stats::summarize(&enq, 99.0);
    res.put("serve.batcher.enqueue_us.p50", enq.p50, enq.n);
    res.put("serve.batcher.enqueue_us.p99", enq.tail, enq.n);

    // Direct calls into the model, top-k and HNSW on the same inputs, in
    // chunks of the batch size the TCP run observed.
    let model = engine.model();
    let mut reference = RefSessions::new(
        model,
        w == Workload::ServeAppend,
        engine.ann(),
        engine.cold_start_top_k(K),
    );
    let mut spans = Spans::new(true, origin, 9);
    for chunk in reqs.chunks(batch) {
        reference.handle_chunk(chunk, &mut spans);
    }
    if engine.ann().is_none() {
        // `serve-append` serves exact top-k. Its replay also times the ANN
        // path on its own catalog, so the benchmark's workloads measure the
        // `serve::ann` layer: the query embedding of each scoring
        // request's history, then an HNSW search at ef 64.
        let index = crate::child::ann_index(model);
        for r in &reqs {
            let ReqKind::Score { history, .. } = &r.kind else {
                continue;
            };
            let opened = spans.open();
            let q = model.query_embedding(history);
            spans.close("meta_sgcl.infer.query_embedding", opened, 0, r.user);
            if let Some(q) = q {
                spans.time("serve.ann.search", 0, r.user, || index.search(&q, K, 0));
            }
        }
    }
    let direct = spans.spans;
    let durs = |name: &str| -> Vec<f64> {
        direct
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.us())
            .collect()
    };
    let top = stats::summarize(&durs("serve.top_k"), 99.0);
    res.put("serve.engine.top_k_us.p50", top.p50, top.n);
    let app = durs("meta_sgcl.infer.append_batch");
    let app_s = stats::summarize(&app, 99.0);
    res.put("meta_sgcl.infer.append_us.p50", app_s.p50, app_s.n);
    let rows = reqs
        .iter()
        .filter(|r| matches!(r.kind, ReqKind::Append { .. }))
        .count();
    res.put(
        "meta_sgcl.infer.append_us_per_row",
        app.iter().sum::<f64>() / rows.max(1) as f64,
        rows,
    );
    let begin = stats::summarize(&durs("meta_sgcl.infer.begin"), 99.0);
    res.put("meta_sgcl.infer.begin_us.p50", begin.p50, begin.n);
    let q = stats::summarize(&durs("meta_sgcl.infer.query_embedding"), 99.0);
    res.put("meta_sgcl.infer.query_embedding_us.p50", q.p50, q.n);
    res.put("meta_sgcl.infer.query_embedding_us.p99", q.tail, q.n);
    let search = stats::summarize(&durs("serve.ann.search"), 99.0);
    res.put("serve.ann.search_us.p50", search.p50, search.n);
    res.put("serve.ann.search_us.p99", search.tail, search.n);
    res.put(
        "tensor.flops_per_req",
        reference.flops / reqs.len().max(1) as f64,
        reqs.len(),
    );
    res.put(
        "tensor.gflops_achieved",
        reference.flops / (reference.forward_us * 1e3).max(1.0),
        reqs.len(),
    );
    all.extend(direct);
    let path = std::path::PathBuf::from(format!("perfbench/out/spans-{}-{seed}.jsonl", w.name()));
    crate::spans::write_jsonl(&path, &all).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(())
}
