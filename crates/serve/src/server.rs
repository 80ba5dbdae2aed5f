//! TCP front end: line-delimited JSON over per-connection threads, all
//! funneled through one [`Batcher`] so concurrent connections share
//! batches. With a [`ServeObs`] attached ([`run_obs`]), every request is
//! metered (latency sketch, SLO windows) and a deterministic 1-in-N
//! sample carries a full phase trace; `"admin"` requests are answered
//! directly from the observer without entering the batcher.
//!
//! # Pipelining
//!
//! A client may write many requests without waiting for replies. The
//! connection's thread only reads: it parses each line, numbers it, and
//! queues scoring requests with [`Batcher::enqueue`]. The batch worker
//! then serializes each reply (`format_response`, [`ServeObs::complete`])
//! and hands it to the connection's ordered outbox. The contract:
//!
//! * replies come back one line each, in request order — including
//!   `ping`, `admin` and error replies, which the reader thread puts into
//!   the same outbox;
//! * at most [`MAX_IN_FLIGHT`] replies per connection are unwritten; past
//!   that the reader stops reading until the client drains replies;
//! * a write must finish within one [`WRITE_TIMEOUT`], counted over the
//!   whole write, not per `send`. When it expires the connection is shut
//!   down and counted under `serve.conn.write_timeout`, so one write holds
//!   the batch worker at most that long and a client that stops reading
//!   stalls it once;
//! * a request line longer than [`MAX_LINE`] bytes is answered
//!   `{"error":"line too long"}` and the connection is closed
//!   (`serve.rejected.line_too_long`); a line that is not UTF-8 gets a
//!   structured error and the connection stays open
//!   (`serve.rejected.bad_utf8`).
//!
//! Sockets run with `TCP_NODELAY`, and a reply goes out as one write of
//! `reply + "\n"` — together with every later reply that is already
//! waiting — so no reply waits on Nagle's algorithm and the client's
//! delayed ACK.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use telemetry::metrics;
use tensor::bug::OrBug;

use crate::batcher::Batcher;
use crate::engine::{FrozenScorer, Request};
use crate::obs::{ReqCtx, ServeObs};
use crate::proto::{format_error, format_response, parse_request, AdminCmd, Incoming, PONG};

/// Most replies one connection may have unwritten before its reader
/// stops reading.
pub const MAX_IN_FLIGHT: u64 = 64;

/// Deadline for writing one batch of replies, from the first `send` to
/// the last; a connection whose write misses it is shut down.
pub const WRITE_TIMEOUT: Duration = Duration::from_millis(100);

/// Longest accepted request line, in bytes (newline excluded).
pub const MAX_LINE: usize = 1 << 20;

/// Accepts connections forever, one thread per connection.
///
/// Returns only when the listener errors (e.g. the socket is closed).
pub fn run<M: FrozenScorer>(
    listener: TcpListener,
    batcher: Arc<Batcher<M>>,
) -> std::io::Result<()> {
    run_obs(listener, batcher, None)
}

/// [`run`] with request observability: when `obs` is present, every
/// request feeds the latency sketch and SLO windows, sampled requests
/// emit trace spans, and `"admin"` queries return live snapshots.
pub fn run_obs<M: FrozenScorer>(
    listener: TcpListener,
    batcher: Arc<Batcher<M>>,
    obs: Option<Arc<ServeObs>>,
) -> std::io::Result<()> {
    for stream in listener.incoming() {
        let stream = stream?;
        let batcher = Arc::clone(&batcher);
        let obs = obs.clone();
        std::thread::spawn(move || {
            // A dropped connection mid-request is the client's problem.
            let _ = handle_connection(stream, &batcher, obs.as_ref());
        });
    }
    Ok(())
}

fn admin_reply(obs: Option<&Arc<ServeObs>>, cmd: AdminCmd) -> String {
    match obs {
        None => format_error("observability disabled (no admin endpoint)"),
        Some(obs) => match cmd {
            AdminCmd::Snapshot => obs.snapshot_json(),
            AdminCmd::Health => obs.health_json(),
            AdminCmd::Prom => obs.prom_json(),
        },
    }
}

/// A connection's write side: replies are put in by sequence number from
/// any thread and written in sequence order.
struct Outbox {
    state: Mutex<OutState>,
    /// Signalled whenever `next_seq` advances or the connection closes.
    progress: Condvar,
}

struct OutState {
    stream: TcpStream,
    /// Sequence number of the next reply to write.
    next_seq: u64,
    /// Replies that finished before an earlier one, by sequence number.
    early: BTreeMap<u64, String>,
    /// Set once the connection is shut down; later replies are dropped.
    closed: bool,
}

impl Outbox {
    fn new(stream: TcpStream) -> Outbox {
        Outbox {
            state: Mutex::new(OutState {
                stream,
                next_seq: 0,
                early: BTreeMap::new(),
                closed: false,
            }),
            progress: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, OutState> {
        self.state.lock().or_bug("outbox lock poisoned")
    }

    /// Hands over reply `seq`. If it is the next one due, it is written
    /// together with every consecutive reply already waiting, as one
    /// write.
    fn put(&self, seq: u64, reply: String) {
        let mut st = self.lock();
        if st.closed {
            return;
        }
        if seq != st.next_seq {
            st.early.insert(seq, reply);
            return;
        }
        let mut buf = reply;
        buf.push('\n');
        let mut next = seq + 1;
        while let Some(r) = st.early.remove(&next) {
            buf.push_str(&r);
            buf.push('\n');
            next += 1;
        }
        match write_within(&mut st.stream, buf.as_bytes()) {
            Ok(()) => st.next_seq = next,
            Err(e) => {
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                    metrics::counter("serve.conn.write_timeout", false).inc();
                }
                st.close();
            }
        }
        drop(st);
        self.progress.notify_all();
    }

    /// Blocks until fewer than `limit` of the replies numbered below
    /// `seq` are unwritten. Returns `false` once the connection is closed.
    fn wait_below(&self, seq: u64, limit: u64) -> bool {
        let mut st = self.lock();
        while !st.closed && seq - st.next_seq >= limit {
            st = self.progress.wait(st).or_bug("outbox lock poisoned");
        }
        !st.closed
    }

    /// Shuts the connection down in both directions.
    fn close(&self) {
        self.lock().close();
        self.progress.notify_all();
    }
}

/// Writes all of `buf` within one [`WRITE_TIMEOUT`], counted from the
/// first send. The socket's timeout bounds a single send, and a send
/// that moves some bytes returns early, so each retry gets only what is
/// left of the deadline: a client that drains slowly cannot hold the
/// writer longer than one timeout.
fn write_within(stream: &mut TcpStream, mut buf: &[u8]) -> std::io::Result<()> {
    let deadline = Instant::now() + WRITE_TIMEOUT;
    let mut shortened = false;
    loop {
        match stream.write(buf) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) if n == buf.len() => break,
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        stream.set_write_timeout(Some(left))?;
        shortened = true;
    }
    if shortened {
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    }
    Ok(())
}

impl OutState {
    fn close(&mut self) {
        self.closed = true;
        self.early.clear();
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

fn handle_connection<M: FrozenScorer>(
    stream: TcpStream,
    batcher: &Batcher<M>,
    obs: Option<&Arc<ServeObs>>,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let outbox = Arc::new(Outbox::new(stream));
    let mut line = Vec::new();
    let mut seq = 0u64;
    loop {
        line.clear();
        let n = (&mut reader)
            .take(MAX_LINE as u64 + 1)
            .read_until(b'\n', &mut line)?;
        if n == 0 {
            break;
        }
        if n > MAX_LINE && line.last() != Some(&b'\n') {
            metrics::counter("serve.rejected.line_too_long", false).inc();
            if outbox.wait_below(seq, MAX_IN_FLIGHT) {
                outbox.put(seq, format_error("line too long"));
                // Every earlier reply and the error go out before the close.
                outbox.wait_below(seq + 1, 1);
                outbox.close();
            }
            break;
        }
        let incoming = match std::str::from_utf8(&line) {
            Err(_) => {
                metrics::counter("serve.rejected.bad_utf8", false).inc();
                Err("request line is not valid UTF-8".to_string())
            }
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => parse_request(text.trim()),
        };
        if !outbox.wait_below(seq, MAX_IN_FLIGHT) {
            break;
        }
        match incoming {
            Ok(Incoming::Ping) => outbox.put(seq, PONG.to_string()),
            Ok(Incoming::Admin(cmd)) => outbox.put(seq, admin_reply(obs, cmd)),
            Ok(Incoming::Req(req)) => enqueue(batcher, obs, req, seq, Arc::clone(&outbox)),
            Err(e) => outbox.put(seq, format_error(&e)),
        }
        seq += 1;
    }
    Ok(())
}

/// Queues a scoring request whose reply the batch worker serializes,
/// meters and puts into `outbox` as reply `seq`.
fn enqueue<M: FrozenScorer>(
    batcher: &Batcher<M>,
    obs: Option<&Arc<ServeObs>>,
    req: Request,
    seq: u64,
    outbox: Arc<Outbox>,
) {
    let Some(obs) = obs else {
        batcher.enqueue(
            req,
            false,
            Box::new(move |resp, _| outbox.put(seq, format_response(&resp))),
        );
        return;
    };
    let obs = Arc::clone(obs);
    let id = obs.next_id();
    let sampled = obs.sampled(id);
    let (op, user) = match &req {
        Request::Score { user, .. } => ("score", *user),
        Request::Append { user, .. } => ("append", *user),
    };
    let start = Instant::now();
    batcher.enqueue(
        req,
        sampled,
        Box::new(move |resp, report| {
            let ser_start = Instant::now();
            let text = format_response(&resp);
            let serialize_ns = ser_start.elapsed().as_nanos() as u64;
            obs.complete(&ReqCtx {
                id,
                op,
                user,
                sampled,
                total_ns: start.elapsed().as_nanos() as u64,
                enqueue_ns: report.enqueue_ns,
                assemble_ns: report.assemble_ns,
                serialize_ns,
                obs: report.obs,
            });
            outbox.put(seq, text);
        }),
    );
}
