//! Line-delimited JSON wire protocol for `msgc serve`.
//!
//! Requests (one JSON object per line):
//!
//! ```json
//! {"op":"ping"}
//! {"op":"score","user":3,"history":[1,2,3],"k":10}
//! {"op":"score","user":3,"history":[1,2,3],"k":10,"topk":"ann"}
//! {"op":"append","user":3,"item":4,"k":10}
//! {"op":"admin","cmd":"snapshot"}
//! ```
//!
//! The optional `"topk"` field selects the retrieval path: `"exact"`
//! (full-catalog projection, bitwise-identical to offline scoring) or
//! `"ann"` (HNSW approximate top-k). Omitted → the server's default.
//!
//! `"admin"` requests are read-only and bypass the batcher: `"snapshot"`
//! (default) returns the name-sorted registry metrics, sketch quantiles
//! and SLO states; `"health"` returns pass/degraded with reasons;
//! `"prom"` returns the Prometheus text exposition wrapped in one JSON
//! line. See DESIGN.md §15 for the response schemas.
//!
//! Responses:
//!
//! ```json
//! {"ok":true}
//! {"user":3,"items":[7,2],"scores":[1.25,0.5]}
//! {"error":"..."}
//! ```
//!
//! Every request line gets exactly one response line, and a connection
//! gets its responses in request order even when it writes many requests
//! before reading any (see [`crate::server`] for the pipelining contract:
//! at most 64 unwritten replies per connection, the 100 ms write-timeout
//! close, the 1 MiB line cap). Responses are formatted on the batch
//! worker.
//!
//! Scores are printed with Rust's shortest-round-trip float formatting and
//! parsed back as `f64` before narrowing to `f32`; since `f64` carries more
//! than double an `f32`'s significand, the narrowing recovers the exact
//! served bits — the wire never loses score precision.

use recdata::ItemId;
use telemetry::json::{parse, Json};

use crate::engine::{Request, Response, TopK};

/// A read-only admin command (answered by [`crate::obs::ServeObs`]
/// without entering the batcher).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdminCmd {
    /// Name-sorted metrics + sketch quantiles + SLO states.
    Snapshot,
    /// Pass/degraded with per-monitor reasons.
    Health,
    /// Prometheus text exposition (JSON-wrapped).
    Prom,
}

impl AdminCmd {
    /// Parses the wire spelling.
    pub fn parse(s: &str) -> Option<AdminCmd> {
        match s {
            "snapshot" => Some(AdminCmd::Snapshot),
            "health" => Some(AdminCmd::Health),
            "prom" => Some(AdminCmd::Prom),
            _ => None,
        }
    }
}

/// A parsed inbound line.
#[derive(Clone, Debug)]
pub enum Incoming {
    /// Liveness probe (used by CI to await readiness).
    Ping,
    /// A scoring request for the engine.
    Req(Request),
    /// A read-only observability query.
    Admin(AdminCmd),
}

/// Response line for a ping.
pub const PONG: &str = "{\"ok\":true}";

fn get_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_num)
        .filter(|v| *v >= 0.0 && v.fract() == 0.0)
        .map(|v| v as u64)
        .ok_or_else(|| format!("missing or invalid \"{key}\""))
}

fn get_topk(obj: &Json) -> Result<Option<TopK>, String> {
    match obj.get("topk") {
        None => Ok(None),
        Some(j) => {
            let s = j.as_str().ok_or("non-string \"topk\"")?;
            TopK::parse(s)
                .map(Some)
                .ok_or_else(|| format!("unknown \"topk\" value \"{s}\" (exact|ann)"))
        }
    }
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Incoming, String> {
    let obj = parse(line).map_err(|e| format!("bad json: {e}"))?;
    let op = obj
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing \"op\"")?;
    match op {
        "ping" => Ok(Incoming::Ping),
        "score" => {
            let user = get_u64(&obj, "user")?;
            let history: Vec<ItemId> = obj
                .get("history")
                .and_then(Json::as_arr)
                .ok_or("missing \"history\"")?
                .iter()
                .map(|j| {
                    j.as_num()
                        .filter(|v| *v >= 0.0 && v.fract() == 0.0)
                        .map(|v| v as ItemId)
                        .ok_or_else(|| "non-integer item in \"history\"".to_string())
                })
                .collect::<Result<_, _>>()?;
            let k = obj.get("k").map_or(Ok(10), |_| get_u64(&obj, "k"))? as usize;
            let topk = get_topk(&obj)?;
            Ok(Incoming::Req(Request::Score {
                user,
                history,
                k,
                topk,
            }))
        }
        "append" => {
            let user = get_u64(&obj, "user")?;
            let item = get_u64(&obj, "item")? as ItemId;
            let k = obj.get("k").map_or(Ok(10), |_| get_u64(&obj, "k"))? as usize;
            let topk = get_topk(&obj)?;
            Ok(Incoming::Req(Request::Append {
                user,
                item,
                k,
                topk,
            }))
        }
        "admin" => {
            let cmd = match obj.get("cmd") {
                None => AdminCmd::Snapshot,
                Some(j) => {
                    let s = j.as_str().ok_or("non-string \"cmd\"")?;
                    AdminCmd::parse(s).ok_or_else(|| {
                        format!("unknown \"cmd\" value \"{s}\" (snapshot|health|prom)")
                    })?
                }
            };
            Ok(Incoming::Admin(cmd))
        }
        other => Err(format!("unknown op \"{other}\"")),
    }
}

/// Formats a response as one JSON line (no trailing newline).
pub fn format_response(r: &Response) -> String {
    let mut s = String::with_capacity(32 + r.items.len() * 12);
    s.push_str("{\"user\":");
    s.push_str(&r.user.to_string());
    s.push_str(",\"items\":[");
    for (i, item) in r.items.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&item.to_string());
    }
    s.push_str("],\"scores\":[");
    for (i, score) in r.scores.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        // {:?} always includes a decimal point or exponent → valid JSON,
        // and round-trips the f32 exactly.
        s.push_str(&format!("{score:?}"));
    }
    s.push_str("]}");
    s
}

/// Formats an error as one JSON line.
pub fn format_error(msg: &str) -> String {
    let escaped: String = msg
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect();
    format!("{{\"error\":\"{escaped}\"}}")
}

/// Parses a response line back into items and scores (used by the bench
/// client and CI parity check).
pub fn parse_response(line: &str) -> Result<Response, String> {
    let obj = parse(line).map_err(|e| format!("bad json: {e}"))?;
    if let Some(err) = obj.get("error").and_then(Json::as_str) {
        return Err(format!("server error: {err}"));
    }
    let user = get_u64(&obj, "user")?;
    let items: Vec<ItemId> = obj
        .get("items")
        .and_then(Json::as_arr)
        .ok_or("missing \"items\"")?
        .iter()
        .map(|j| {
            j.as_num()
                .map(|v| v as ItemId)
                .ok_or_else(|| "non-numeric item".to_string())
        })
        .collect::<Result<_, _>>()?;
    let scores: Vec<f32> = obj
        .get("scores")
        .and_then(Json::as_arr)
        .ok_or("missing \"scores\"")?
        .iter()
        .map(|j| {
            j.as_num()
                .map(|v| v as f32)
                .ok_or_else(|| "non-numeric score".to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok(Response {
        user,
        items,
        scores,
    })
}
