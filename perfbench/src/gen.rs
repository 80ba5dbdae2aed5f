//! Seeded inputs: datasets, model geometry and request streams.
//!
//! Everything here is a pure function of the workload seed. The program
//! under test only ever sees what these functions generate.

use meta_sgcl::{MetaSgcl, MetaSgclConfig};
use models::NetConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recdata::{synth, Dataset, ItemId};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Incremental serving: one `score` per user, then `append`s.
    ServeAppend,
    /// Full-mode serving with HNSW top-k and mostly new users.
    ServeScoreAnn,
    /// Meta-SGCL two-step training with full softmax.
    TrainMeta,
}

impl Workload {
    /// All workloads the command runs.
    pub const ALL: [Workload; 3] = [
        Workload::ServeAppend,
        Workload::ServeScoreAnn,
        Workload::TrainMeta,
    ];

    /// Parses the command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeAppend => "serve-append",
            Workload::ServeScoreAnn => "serve-score-ann",
            Workload::TrainMeta => "train-meta",
        }
    }

    /// Catalog size.
    pub fn num_items(self) -> usize {
        match self {
            Workload::ServeAppend => 2_000,
            Workload::ServeScoreAnn => 10_000,
            Workload::TrainMeta => 1_000,
        }
    }

    /// Users in the generated dataset.
    fn num_users(self) -> usize {
        match self {
            Workload::ServeAppend | Workload::TrainMeta => 2_000,
            // Histories are drawn from these sequences; user ids on the
            // wire come from a far larger population (see `AnnStream`).
            Workload::ServeScoreAnn => 5_000,
        }
    }
}

/// Model window length, embedding width and depth for every workload.
pub const MAX_LEN: usize = 50;
/// Embedding width.
pub const DIM: usize = 32;
/// Transformer layers.
pub const LAYERS: usize = 2;
/// Items per reply.
pub const K: usize = 10;

/// Derives an independent stream seed from the workload seed.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut x = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The workload's dataset: toys-like shape, scaled.
pub fn dataset(w: Workload, seed: u64) -> Dataset {
    let mut cfg = synth::SynthConfig::toys_like(sub_seed(seed, 1));
    cfg.num_users = w.num_users();
    cfg.num_items = w.num_items();
    synth::generate(&cfg)
}

/// The model configuration: Meta-SGCL with the paper's two-step schedule,
/// seeded from the workload seed.
pub fn model_config(w: Workload, seed: u64) -> MetaSgclConfig {
    let n = w.num_items();
    MetaSgclConfig {
        net: NetConfig {
            max_len: MAX_LEN,
            dim: DIM,
            layers: LAYERS,
            seed: sub_seed(seed, 2),
            ..NetConfig::for_items(n)
        },
        ..MetaSgclConfig::for_items(n)
    }
}

/// A freshly initialised model.
pub fn model(w: Workload, seed: u64) -> MetaSgcl {
    MetaSgcl::new(model_config(w, seed))
}

/// Per-item interaction counts (index 0 = padding), the cold-start
/// popularity ranking's input.
pub fn popularity_counts(data: &Dataset) -> Vec<u64> {
    let mut counts = vec![0u64; data.num_items + 1];
    for seq in &data.sequences {
        for &item in seq {
            if let Some(c) = counts.get_mut(item) {
                *c += 1;
            }
        }
    }
    counts
}

/// One request on the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct Req {
    /// User (session) key.
    pub user: u64,
    /// Score with a history, or append one item.
    pub kind: ReqKind,
}

/// What a request asks for.
#[derive(Clone, Debug, PartialEq)]
pub enum ReqKind {
    /// `{"op":"score",...}` with a full history.
    Score {
        /// History, oldest first.
        history: Vec<ItemId>,
        /// `"topk":"ann"` on the wire.
        ann: bool,
    },
    /// `{"op":"append",...}`.
    Append {
        /// The new interaction.
        item: ItemId,
    },
}

impl Req {
    /// The request line (no trailing newline), as an ordinary client
    /// would write it.
    pub fn line(&self) -> String {
        match &self.kind {
            ReqKind::Score { history, ann } => {
                let items: Vec<String> = history.iter().map(ToString::to_string).collect();
                format!(
                    "{{\"op\":\"score\",\"user\":{},\"history\":[{}],\"k\":{K}{}}}",
                    self.user,
                    items.join(","),
                    if *ann { ",\"topk\":\"ann\"" } else { "" }
                )
            }
            ReqKind::Append { item } => format!(
                "{{\"op\":\"append\",\"user\":{},\"item\":{item},\"k\":{K}}}",
                self.user
            ),
        }
    }
}

/// Zipf exponent for picking `serve-append` users.
const USER_ZIPF: f64 = 1.0;

/// `serve-append`: users picked by a Zipf draw over popularity rank. A
/// user's first request scores the first half of its sequence; later
/// requests append the following items, wrapping to the start, so hot
/// users fill their window and slide.
pub struct AppendStream {
    seqs: Vec<Vec<ItemId>>,
    cdf: Vec<f64>,
    cursor: Vec<Option<usize>>,
    rng: StdRng,
}

impl AppendStream {
    /// The stream for a dataset.
    pub fn new(data: &Dataset, seed: u64) -> AppendStream {
        let seqs: Vec<Vec<ItemId>> = data
            .sequences
            .iter()
            .filter(|s| !s.is_empty())
            .cloned()
            .collect();
        let mut acc = 0.0;
        let cdf = (0..seqs.len())
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(USER_ZIPF);
                acc
            })
            .collect();
        AppendStream {
            cursor: vec![None; seqs.len()],
            seqs,
            cdf,
            rng: StdRng::seed_from_u64(sub_seed(seed, 3)),
        }
    }

    /// The next request.
    pub fn next_req(&mut self) -> Req {
        let total = self.cdf.last().copied().unwrap_or(1.0);
        let x = self.rng.gen::<f64>() * total;
        let u = self
            .cdf
            .partition_point(|&c| c < x)
            .min(self.seqs.len() - 1);
        let seq = &self.seqs[u];
        let kind = match self.cursor[u] {
            None => {
                let prefix = (seq.len() / 2).max(1);
                self.cursor[u] = Some(prefix);
                ReqKind::Score {
                    history: seq[..prefix].to_vec(),
                    ann: false,
                }
            }
            Some(c) => {
                self.cursor[u] = Some(c + 1);
                ReqKind::Append {
                    item: seq[c % seq.len()],
                }
            }
        };
        Req {
            user: u as u64,
            kind,
        }
    }
}

/// Size of the `serve-score-ann` user-id population.
pub const ANN_USERS: u64 = 100_000;
/// Share of `serve-score-ann` requests with an empty history.
pub const ANN_COLD_FRAC: f64 = 0.02;

/// `serve-score-ann`: every request scores a full history through the
/// ANN index. User ids are uniform over [`ANN_USERS`], so most are new;
/// histories are prefixes (up to the window) of dataset sequences.
pub struct AnnStream {
    seqs: Vec<Vec<ItemId>>,
    rng: StdRng,
}

impl AnnStream {
    /// The stream for a dataset.
    pub fn new(data: &Dataset, seed: u64) -> AnnStream {
        AnnStream {
            seqs: data
                .sequences
                .iter()
                .filter(|s| !s.is_empty())
                .cloned()
                .collect(),
            rng: StdRng::seed_from_u64(sub_seed(seed, 4)),
        }
    }

    /// The next request.
    pub fn next_req(&mut self) -> Req {
        let user = self.rng.gen_range(0..ANN_USERS);
        let history = if self.rng.gen::<f64>() < ANN_COLD_FRAC {
            Vec::new()
        } else {
            let seq = &self.seqs[self.rng.gen_range(0..self.seqs.len())];
            let len = self.rng.gen_range(1..=seq.len());
            seq[len.saturating_sub(MAX_LEN)..len].to_vec()
        };
        Req {
            user,
            kind: ReqKind::Score { history, ann: true },
        }
    }
}

/// Either workload's request stream.
pub enum Stream {
    /// `serve-append`.
    Append(AppendStream),
    /// `serve-score-ann`.
    Ann(AnnStream),
}

impl Stream {
    /// The stream of a serving workload.
    pub fn new(w: Workload, data: &Dataset, seed: u64) -> Stream {
        match w {
            Workload::ServeScoreAnn => Stream::Ann(AnnStream::new(data, seed)),
            _ => Stream::Append(AppendStream::new(data, seed)),
        }
    }

    /// The next request.
    pub fn next_req(&mut self) -> Req {
        match self {
            Stream::Append(s) => s.next_req(),
            Stream::Ann(s) => s.next_req(),
        }
    }
}

/// Poisson arrival offsets (seconds from the level start) at `rate` per
/// second over `secs` seconds.
pub fn poisson_arrivals(rate: f64, secs: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * secs * 1.1) as usize + 8);
    loop {
        // Inverse-CDF exponential gap; 1 - u avoids ln(0).
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= secs {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(w: Workload, seed: u64, n: usize) -> Vec<String> {
        let data = dataset(w, seed);
        let mut s = Stream::new(w, &data, seed);
        (0..n).map(|_| s.next_req().line()).collect()
    }

    #[test]
    fn datasets_are_pure_functions_of_the_seed() {
        for w in Workload::ALL {
            let a = dataset(w, 7);
            assert_eq!(a.sequences, dataset(w, 7).sequences, "{}", w.name());
            assert_ne!(a.sequences, dataset(w, 8).sequences, "{}", w.name());
            assert_eq!(a.num_items, w.num_items());
        }
    }

    #[test]
    fn request_streams_are_pure_functions_of_the_seed() {
        for w in [Workload::ServeAppend, Workload::ServeScoreAnn] {
            assert_eq!(take(w, 3, 500), take(w, 3, 500), "{}", w.name());
            assert_ne!(take(w, 3, 500), take(w, 4, 500), "{}", w.name());
        }
        assert_eq!(
            poisson_arrivals(300.0, 2.0, 9),
            poisson_arrivals(300.0, 2.0, 9)
        );
    }

    #[test]
    fn model_init_is_a_pure_function_of_the_seed() {
        use nn::Freeze;
        let w = Workload::ServeAppend;
        let h = [3usize, 9, 1];
        let a = model(w, 5).freeze().score_padded(&h);
        let b = model(w, 5).freeze().score_padded(&h);
        let c = model(w, 6).freeze().score_padded(&h);
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_ne!(a, c);
    }

    #[test]
    fn append_stream_scores_once_then_appends() {
        let data = dataset(Workload::ServeAppend, 1);
        let mut s = AppendStream::new(&data, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2_000 {
            let r = s.next_req();
            let first = seen.insert(r.user);
            assert_eq!(first, matches!(r.kind, ReqKind::Score { .. }));
        }
    }

    #[test]
    fn ann_stream_shape() {
        let data = dataset(Workload::ServeScoreAnn, 1);
        let mut s = AnnStream::new(&data, 1);
        let reqs: Vec<Req> = (0..20_000).map(|_| s.next_req()).collect();
        let cold = reqs
            .iter()
            .filter(|r| matches!(&r.kind, ReqKind::Score { history, .. } if history.is_empty()))
            .count();
        let frac = cold as f64 / reqs.len() as f64;
        assert!((0.01..0.03).contains(&frac), "cold share {frac}");
        let users: std::collections::HashSet<u64> = reqs.iter().map(|r| r.user).collect();
        assert!(users.len() > 15_000, "most user ids are new");
        assert!(reqs.iter().all(|r| match &r.kind {
            ReqKind::Score { history, ann } => *ann && history.len() <= MAX_LEN,
            ReqKind::Append { .. } => false,
        }));
    }

    #[test]
    fn poisson_rate_is_close() {
        let a = poisson_arrivals(500.0, 10.0, 1);
        assert!((4_700..5_300).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}
