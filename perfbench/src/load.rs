//! The client side: the serving process's lifecycle and an open-loop
//! load generator over plain TCP.
//!
//! Clients behave like ordinary ones: default socket options (Nagle on,
//! no quick-ACK) and one `write` per request line. Each connection has
//! one generator thread, which sleeps to each request's due time and
//! writes it, and one reader thread, which blocks on the socket and
//! timestamps replies as they arrive.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use telemetry::json::Json;

use crate::gen::Workload;

/// How long the server may take to come up (the HNSW build dominates).
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// A running serving process. Dropping it closes its stdin, kills it and
/// waits for it to end.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Address it listens on.
    pub addr: String,
    /// Spawn to first `ping` reply, in seconds.
    pub setup_s: f64,
}

impl ServerProc {
    /// Starts the serving process and waits for its first `ping` reply.
    pub fn start(w: Workload, seed: u64) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let mut child = Command::new(exe)
            .args(["--serve-child", w.name(), "--seed", &seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let mut proc = ServerProc {
            addr: String::new(),
            setup_s: 0.0,
            stdin,
            child,
        };
        let stdout = proc.child.stdout.take().ok_or("server stdout")?;
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("server stdout: {e}"))?;
        proc.addr = line
            .trim()
            .strip_prefix("listening ")
            .ok_or_else(|| format!("server did not start: {line:?}"))?
            .to_string();
        loop {
            if let Ok(reply) = request_line(&proc.addr, "{\"op\":\"ping\"}") {
                if reply == serve::proto::PONG {
                    break;
                }
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err("server never answered ping".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        proc.setup_s = t0.elapsed().as_secs_f64();
        Ok(proc)
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One `{"op":"admin","cmd":"snapshot"}` round trip, parsed into
    /// `name → metric object`.
    pub fn snapshot(&self) -> Result<Snapshot, String> {
        let line = request_line(&self.addr, "{\"op\":\"admin\",\"cmd\":\"snapshot\"}")?;
        let doc = telemetry::json::parse(&line).map_err(|e| format!("snapshot: {e}"))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or("snapshot without metrics")?;
        Ok(Snapshot(
            metrics
                .iter()
                .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.clone())))
                .collect(),
        ))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The server's registry as one admin snapshot returned it.
pub struct Snapshot(Vec<(String, Json)>);

impl Snapshot {
    fn get(&self, name: &str) -> Option<&Json> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, j)| j)
    }

    fn field(&self, name: &str, key: &str) -> f64 {
        self.get(name)
            .and_then(|m| m.get(key))
            .and_then(Json::as_num)
            .unwrap_or(0.0)
    }

    /// A counter's value (0 when never registered).
    pub fn counter(&self, name: &str) -> f64 {
        self.field(name, "value")
    }

    /// A histogram's (count, sum).
    pub fn hist(&self, name: &str) -> (f64, f64) {
        (self.field(name, "count"), self.field(name, "sum"))
    }

    /// A sketch quantile (`"p50"`, `"p99"`, ...) and its sample count.
    pub fn sketch(&self, name: &str, q: &str) -> (f64, f64) {
        (self.field(name, q), self.field(name, "count"))
    }
}

/// One request/reply round trip on a fresh connection.
fn request_line(addr: &str, line: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    s.write_all(format!("{line}\n").as_bytes())
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    BufReader::new(s)
        .read_line(&mut reply)
        .map_err(|e| e.to_string())?;
    Ok(reply.trim_end().to_string())
}

/// A persistent client connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Replies still owed to requests of an earlier level that timed out;
    /// discarded when they arrive so replies stay matched in order.
    stale: usize,
    broken: bool,
}

impl Conn {
    /// Connects with default socket options.
    pub fn open(addr: &str) -> Result<Conn, String> {
        Ok(Conn {
            stream: TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?,
            buf: Vec::new(),
            stale: 0,
            broken: false,
        })
    }
}

/// What happened to one request.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Due time, seconds from the level start.
    pub due_s: f64,
    /// Whether the request was written.
    pub sent: bool,
    /// Send time minus due time, ms (how late the generator ran).
    pub late_ms: f64,
    /// Reply time minus due time, ms; `None` when no reply came.
    pub latency_ms: Option<f64>,
    /// The reply line.
    pub reply: Option<String>,
}

/// Runs one open-loop level: `plan[i] = (due seconds, connection, line)`,
/// due times ascending per connection, lines without the newline. Waits
/// up to `drain` after the last due time for outstanding replies.
pub fn run_level(
    conns: &mut [Conn],
    plan: &[(f64, usize, String)],
    drain: Duration,
) -> Vec<Outcome> {
    let mut per_conn: Vec<Vec<usize>> = vec![Vec::new(); conns.len()];
    for (i, (_, c, _)) in plan.iter().enumerate() {
        per_conn[*c].push(i);
    }
    // A short lead so every generator thread is parked before the start.
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut out: Vec<Outcome> = plan
        .iter()
        .map(|(due_s, _, _)| Outcome {
            due_s: *due_s,
            ..Outcome::default()
        })
        .collect();
    let results: Vec<Vec<(usize, Outcome)>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&per_conn)
            .map(|(conn, idx)| s.spawn(move || drive(conn, plan, idx, t0, drain)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    for (i, o) in results.into_iter().flatten() {
        out[i] = o;
    }
    out
}

fn drive(
    conn: &mut Conn,
    plan: &[(f64, usize, String)],
    idx: &[usize],
    t0: Instant,
    drain: Duration,
) -> Vec<(usize, Outcome)> {
    let mut out: Vec<(usize, Outcome)> = idx
        .iter()
        .map(|&i| {
            (
                i,
                Outcome {
                    due_s: plan[i].0,
                    ..Outcome::default()
                },
            )
        })
        .collect();
    if conn.broken {
        return out;
    }
    let due = |k: usize| t0 + Duration::from_secs_f64(plan[idx[k]].0);
    let deadline = idx.last().map_or(t0, |_| due(idx.len() - 1)) + drain;
    let Ok(mut writer) = conn.stream.try_clone() else {
        conn.broken = true;
        return out;
    };
    // The generator thread sleeps to each due time and writes; this
    // thread blocks on the socket and timestamps replies as they land.
    let (sent, late) = std::thread::scope(|s| {
        let gen = s.spawn(move || {
            let mut late = Vec::with_capacity(idx.len());
            for k in 0..idx.len() {
                let d = due(k);
                let now = Instant::now();
                if d > now {
                    std::thread::sleep(d - now);
                }
                let at = Instant::now();
                if writer
                    .write_all(format!("{}\n", plan[idx[k]].2).as_bytes())
                    .is_err()
                {
                    break;
                }
                late.push((at - d).as_secs_f64() * 1e3);
            }
            late
        });
        read_replies(conn, idx.len(), deadline, |k, at, line| {
            let o = &mut out[k].1;
            o.latency_ms = Some(at.saturating_duration_since(due(k)).as_secs_f64() * 1e3);
            o.reply = Some(line);
        });
        let late = gen.join().expect("generator thread panicked");
        (late.len(), late)
    });
    if sent < idx.len() {
        conn.broken = true;
    }
    for (k, ms) in late.into_iter().enumerate() {
        out[k].1.sent = true;
        out[k].1.late_ms = ms;
    }
    let received = out.iter().filter(|(_, o)| o.reply.is_some()).count();
    conn.stale += sent.saturating_sub(received);
    out
}

/// Reads reply lines until `expected` arrived or `deadline` passed,
/// calling `on_reply(k, arrival, line)` for the k-th reply of this level.
fn read_replies(
    conn: &mut Conn,
    expected: usize,
    deadline: Instant,
    mut on_reply: impl FnMut(usize, Instant, String),
) -> usize {
    let mut chunk = vec![0u8; 1 << 16];
    let mut got = 0usize;
    while got < expected {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let _ = conn.stream.set_read_timeout(Some(deadline - now));
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.broken = true;
                break;
            }
            Ok(n) => {
                let at = Instant::now();
                conn.buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = conn.buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = conn.buf.drain(..=pos).collect();
                    if conn.stale > 0 {
                        conn.stale -= 1;
                        continue;
                    }
                    if got < expected {
                        on_reply(got, at, String::from_utf8_lossy(&line[..pos]).into_owned());
                    }
                    got += 1;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => {
                conn.broken = true;
                break;
            }
        }
    }
    got
}
