//! Offline references: the answers a server must give, computed by
//! calling the frozen model directly, and the GEMM FLOP counts of those
//! calls computed from tensor shapes.

use std::collections::HashMap;

use meta_sgcl::infer::State;
use meta_sgcl::FrozenMetaSgcl;
use recdata::ItemId;
use serve::{top_k, FrozenScorer, HnswIndex};

use crate::gen::{self, Req, ReqKind, K};
use crate::spans::Spans;

/// Items and scores of one reply.
pub type Answer = (Vec<ItemId>, Vec<f32>);

/// GEMM FLOPs (2 per multiply-add) of encoding `n` positions through the
/// backbone and `Enc_μ`, with attention over `n` keys. Counts the Q/K/V/O
/// projections, QKᵀ, AV and the feed-forward (hidden = dim); leaves out
/// layer norms, softmax and element-wise ops.
pub fn encode_flops(n: usize) -> f64 {
    let (n, d) = (n as f64, gen::DIM as f64);
    gen::LAYERS as f64 * (12.0 * n * d * d + 4.0 * n * n * d) + 2.0 * n * d * d
}

/// GEMM FLOPs of appending one row to a cache of `len` rows.
pub fn append_flops(len: usize) -> f64 {
    let d = gen::DIM as f64;
    gen::LAYERS as f64 * (12.0 * d * d + 4.0 * (len + 1) as f64 * d) + 2.0 * d * d
}

/// GEMM FLOPs of projecting one hidden row against the catalog.
pub fn project_flops(num_items: usize) -> f64 {
    2.0 * gen::DIM as f64 * (num_items + 1) as f64
}

struct Session {
    history: Vec<ItemId>,
    state: Option<State>,
}

/// Replays requests against the frozen model with the engine's session
/// rules (incremental append while the window has room, re-encode of
/// the last `max_len` items otherwise, popularity for empty histories,
/// ANN for `"topk":"ann"` in full mode), timing each model call when the
/// recorder is on.
pub struct RefSessions<'m> {
    model: &'m FrozenMetaSgcl,
    incremental: bool,
    ann: Option<&'m HnswIndex>,
    cold: Answer,
    sessions: HashMap<u64, Session>,
    /// GEMM FLOPs of every model call made.
    pub flops: f64,
    /// Model calls' wall time, µs (recorded only while timing).
    pub forward_us: f64,
}

impl<'m> RefSessions<'m> {
    /// A reference over `model`; `cold` is the engine's cold-start answer.
    pub fn new(
        model: &'m FrozenMetaSgcl,
        incremental: bool,
        ann: Option<&'m HnswIndex>,
        cold: Answer,
    ) -> RefSessions<'m> {
        RefSessions {
            model,
            incremental,
            ann,
            cold,
            sessions: HashMap::new(),
            flops: 0.0,
            forward_us: 0.0,
        }
    }

    fn can_append(&self, user: u64) -> bool {
        let cap = self.model.max_len();
        self.sessions
            .get(&user)
            .and_then(|s| s.state.as_ref())
            .is_some_and(|st| st.len() < cap)
    }

    /// Answers a chunk of requests the way `Engine::handle_batch` does:
    /// appends of distinct users with room in their cache run as one
    /// `append_batch` call; everything else runs alone.
    pub fn handle_chunk(&mut self, reqs: &[&Req], spans: &mut Spans) -> Vec<Answer> {
        let mut out: Vec<Option<Answer>> = vec![None; reqs.len()];
        let mut group: Vec<usize> = Vec::new();
        for (i, r) in reqs.iter().enumerate() {
            let fast = self.incremental
                && matches!(r.kind, ReqKind::Append { .. })
                && self.can_append(r.user)
                && !group.iter().any(|&g| reqs[g].user == r.user);
            if fast {
                group.push(i);
            } else {
                self.flush(reqs, &mut group, &mut out, spans);
                out[i] = Some(self.handle_slow(r, spans));
            }
        }
        self.flush(reqs, &mut group, &mut out, spans);
        out.into_iter().map(|a| a.unwrap_or_default()).collect()
    }

    fn flush(
        &mut self,
        reqs: &[&Req],
        group: &mut Vec<usize>,
        out: &mut [Option<Answer>],
        spans: &mut Spans,
    ) {
        if group.is_empty() {
            return;
        }
        let items: Vec<ItemId> = group
            .iter()
            .map(|&g| match reqs[g].kind {
                ReqKind::Append { item } => item,
                ReqKind::Score { .. } => 0,
            })
            .collect();
        let mut taken: Vec<Session> = group
            .iter()
            .filter_map(|&g| self.sessions.remove(&reqs[g].user))
            .collect();
        let n_items = self.model.num_items();
        for s in &taken {
            self.flops +=
                append_flops(s.state.as_ref().map_or(0, State::len)) + project_flops(n_items);
        }
        let model = self.model;
        let opened = spans.open();
        let scores = {
            let mut states: Vec<&mut State> =
                taken.iter_mut().filter_map(|s| s.state.as_mut()).collect();
            model.append_batch(&items, &mut states)
        };
        spans.close(
            "meta_sgcl.infer.append_batch",
            opened,
            0,
            reqs[group[0]].user,
        );
        self.forward_us += span_us(spans, opened);
        for (((&g, &item), mut s), sc) in group.iter().zip(&items).zip(taken).zip(scores) {
            s.history.push(item);
            out[g] = Some(spans.time("serve.top_k", 0, reqs[g].user, || top_k(&sc, K)));
            self.sessions.insert(reqs[g].user, s);
        }
        group.clear();
    }

    fn handle_slow(&mut self, r: &Req, spans: &mut Spans) -> Answer {
        let session = self.sessions.entry(r.user).or_insert(Session {
            history: Vec::new(),
            state: None,
        });
        let ann = match &r.kind {
            ReqKind::Score { history, ann } => {
                session.history = history.clone();
                *ann
            }
            ReqKind::Append { item } => {
                session.history.push(*item);
                false
            }
        };
        let model = self.model;
        let n_items = model.num_items();
        if !self.incremental {
            let history = session.history.clone();
            if history.is_empty() {
                return self.cold.clone();
            }
            if let (true, Some(index)) = (ann, self.ann) {
                self.flops += encode_flops(model.max_len());
                let opened = spans.open();
                let q = model.query_embedding(&history);
                spans.close("meta_sgcl.infer.query_embedding", opened, 0, r.user);
                self.forward_us += span_us(spans, opened);
                if let Some(q) = q {
                    return spans
                        .time("serve.ann.search", 0, r.user, || index.search(&q, K, 0))
                        .into_iter()
                        .unzip();
                }
            }
            self.flops += encode_flops(model.max_len()) + project_flops(n_items);
            let opened = spans.open();
            let scores = model.score_full(&history);
            spans.close("meta_sgcl.infer.score_full", opened, 0, r.user);
            self.forward_us += span_us(spans, opened);
            return spans.time("serve.top_k", 0, r.user, || top_k(&scores, K));
        }
        let cap = model.max_len();
        let window = session.history[session.history.len().saturating_sub(cap)..].to_vec();
        if window.is_empty() {
            return self.cold.clone();
        }
        self.flops += encode_flops(window.len()) + project_flops(n_items);
        let opened = spans.open();
        let (state, scores) = model.begin(&window);
        spans.close("meta_sgcl.infer.begin", opened, 0, r.user);
        self.forward_us += span_us(spans, opened);
        session.state = Some(state);
        spans.time("serve.top_k", 0, r.user, || top_k(&scores, K))
    }
}

/// Duration of the span just closed with `opened`'s id, µs.
fn span_us(spans: &Spans, opened: (u64, u64)) -> f64 {
    spans
        .spans
        .last()
        .filter(|s| s.id == opened.0 && opened.0 != 0)
        .map_or(0.0, |s| s.us())
}
