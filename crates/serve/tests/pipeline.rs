//! The pipelined TCP front end: replies in request order while many
//! requests are in flight, no Nagle stall for an ordinary client, the
//! write-timeout close for a client that stops reading, bounded stalls
//! for everyone else while a client reads slowly, and the bounded
//! request line.
#![allow(clippy::expect_used)]

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use meta_sgcl::{FrozenMetaSgcl, MetaSgcl, MetaSgclConfig};
use models::NetConfig;
use nn::Freeze;
use serve::{
    proto, server, top_k, Batcher, Engine, FrozenScorer, Mode, ObsConfig, Response, ServeObs,
};
use telemetry::metrics;

const MAX_LEN: usize = 6;

/// Held by the tests that may trip `serve.conn.write_timeout`, so one
/// test's count is not moved by another running in parallel.
static WRITE_TIMEOUT_TESTS: Mutex<()> = Mutex::new(());

fn model(num_items: usize) -> MetaSgcl {
    MetaSgcl::new(MetaSgclConfig {
        net: NetConfig {
            max_len: MAX_LEN,
            dim: 8,
            layers: 1,
            ..NetConfig::for_items(num_items)
        },
        ..MetaSgclConfig::for_items(num_items)
    })
}

/// Starts a metered server (batch-max 16, batch-wait 200 µs, as
/// `msgc serve` defaults) and returns its address.
fn start_server(frozen: FrozenMetaSgcl, mode: Mode) -> SocketAddr {
    telemetry::set_enabled(true);
    let engine = Arc::new(Engine::new(frozen, mode));
    let batcher = Arc::new(Batcher::new(engine, 16, Duration::from_micros(200)));
    let obs = ServeObs::new(ObsConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        let _ = server::run_obs(listener, batcher, Some(obs));
    });
    addr
}

/// A client with default socket options that writes each request line,
/// newline included, as one write.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
    }

    fn recv(&mut self) -> String {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read");
        reply.trim_end().to_string()
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

fn append(user: u64, item: usize, k: usize) -> String {
    format!(r#"{{"op":"append","user":{user},"item":{item},"k":{k}}}"#)
}

fn bits(r: &Response) -> (u64, Vec<usize>, Vec<u32>) {
    (
        r.user,
        r.items.clone(),
        r.scores.iter().map(|s| s.to_bits()).collect(),
    )
}

/// Offline answers for one user's history, one request at a time:
/// `score_full` in [`Mode::Full`]; in [`Mode::Incremental`], the
/// incremental state the engine keeps (extend while it has room,
/// re-begin from the last `window_cap` items when full).
struct Reference<'a> {
    model: &'a FrozenMetaSgcl,
    mode: Mode,
    history: Vec<usize>,
    state: Option<<FrozenMetaSgcl as FrozenScorer>::State>,
}

impl Reference<'_> {
    fn score(&mut self, history: &[usize], k: usize) -> Response {
        self.history = history.to_vec();
        self.state = None;
        let scores = match self.mode {
            Mode::Full => self.model.score_full(&self.history),
            Mode::Incremental => {
                let (state, scores) = FrozenScorer::begin(self.model, &self.history);
                self.state = Some(state);
                scores
            }
        };
        self.respond(&scores, k)
    }

    fn append(&mut self, item: usize, k: usize) -> Response {
        self.history.push(item);
        let cap = self.model.window_cap();
        let scores = match (self.mode, self.state.as_mut()) {
            (Mode::Incremental, Some(state)) if self.model.state_len(state) < cap => {
                self.model.append_batch(&[item], &mut [state]).remove(0)
            }
            (Mode::Incremental, _) => {
                let window = &self.history[self.history.len().saturating_sub(cap)..];
                let (state, scores) = FrozenScorer::begin(self.model, window);
                self.state = Some(state);
                scores
            }
            (Mode::Full, _) => self.model.score_full(&self.history),
        };
        self.respond(&scores, k)
    }

    fn respond(&self, scores: &[f32], k: usize) -> Response {
        let (items, scores) = top_k(scores, k);
        Response {
            user: 1,
            items,
            scores,
        }
    }
}

#[test]
fn pipelined_replies_come_back_in_order_and_exact() {
    for mode in [Mode::Full, Mode::Incremental] {
        let m = model(12);
        let addr = start_server(m.freeze(), mode);
        let offline = m.freeze();
        let mut reference = Reference {
            model: &offline,
            mode,
            history: Vec::new(),
            state: None,
        };

        // Everything is written before any reply is read.
        let mut lines = vec![
            r#"{"op":"score","user":1,"history":[3,9,1],"k":5}"#.to_string(),
            r#"{"op":"ping"}"#.to_string(),
        ];
        lines.extend((0..20).map(|i| append(1, 1 + (i * 7) % 12, 5)));
        lines.push("{not json".to_string());
        lines.push(r#"{"op":"admin","cmd":"health"}"#.to_string());
        lines.push(append(1, 4, 5));
        let mut c = Client::connect(addr);
        c.writer
            .write_all(format!("{}\n", lines.join("\n")).as_bytes())
            .expect("write");

        let mut want = vec![bits(&reference.score(&[3, 9, 1], 5))];
        want.extend((0..20).map(|i| bits(&reference.append(1 + (i * 7) % 12, 5))));
        want.push(bits(&reference.append(4, 5)));
        let mut scored = want.into_iter();
        for (i, line) in lines.iter().enumerate() {
            let reply = c.recv();
            match i {
                1 => assert_eq!(reply, proto::PONG, "{mode:?}"),
                22 => assert!(reply.starts_with(r#"{"error":"bad json"#), "{reply}"),
                23 => assert!(reply.contains(r#""kind":"health""#), "{reply}"),
                _ => {
                    let got = proto::parse_response(&reply).expect("scored reply");
                    let want = scored.next().expect("a reference answer");
                    assert_eq!(bits(&got), want, "{mode:?} request {i}: {line}");
                }
            }
        }
        assert!(scored.next().is_none());
    }
}

#[test]
fn a_lone_default_client_is_not_stalled_by_nagle() {
    let addr = start_server(model(12).freeze(), Mode::Incremental);
    let mut c = Client::connect(addr);
    let first = c.roundtrip(r#"{"op":"score","user":5,"history":[1,2],"k":10}"#);
    assert!(first.contains("\"items\""), "{first}");
    let mut rtts: Vec<Duration> = (0..21)
        .map(|i| {
            let t = Instant::now();
            let reply = c.roundtrip(&append(5, 1 + i % 12, 10));
            assert!(reply.contains("\"items\""), "{reply}");
            t.elapsed()
        })
        .collect();
    rtts.sort();
    // With the Nagle stall a round trip waits out the client's delayed
    // ACK, about 40 ms.
    assert!(
        rtts[10] < Duration::from_millis(10),
        "median round trip {:?}",
        rtts[10]
    );
}

#[test]
fn a_client_that_never_reads_is_closed_and_others_keep_being_served() {
    let _serial = WRITE_TIMEOUT_TESTS
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    // k = catalog size, so each reply is a few KiB and unread replies
    // fill the socket buffers long before 10,000 requests are answered.
    let items = 400;
    let addr = start_server(model(items).freeze(), Mode::Incremental);
    let timeouts = metrics::counter("serve.conn.write_timeout", false);
    let before = timeouts.get();

    let mut stuck = TcpStream::connect(addr).expect("connect");
    let mut writer = stuck.try_clone().expect("clone");
    let flood = std::thread::spawn(move || {
        let _ = writer.write_all(b"{\"op\":\"score\",\"user\":9,\"history\":[1,2],\"k\":1}\n");
        for i in 0..10_000 {
            // The server shuts the connection down part-way; later writes
            // fail, which is expected.
            if writer
                .write_all(format!("{}\n", append(9, 1 + i % items, items)).as_bytes())
                .is_err()
            {
                break;
            }
        }
    });

    let mut other = Client::connect(addr);
    other.roundtrip(r#"{"op":"score","user":2,"history":[1],"k":3}"#);
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut served = 0;
    while timeouts.get() == before {
        assert!(
            Instant::now() < deadline,
            "the stuck client was never closed"
        );
        let reply = other.roundtrip(&append(2, 1 + served % items, 3));
        assert!(reply.contains("\"items\""), "{reply}");
        served += 1;
    }
    // The other connection is still served after the close.
    for i in 0..5 {
        let reply = other.roundtrip(&append(2, 1 + i, 3));
        assert!(reply.contains("\"items\""), "{reply}");
    }
    flood.join().expect("flood thread");
    assert_eq!(
        timeouts.get() - before,
        1,
        "one timeout closes the connection"
    );

    // The stuck connection ends: after the buffered replies, EOF or reset.
    stuck
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut buf = vec![0u8; 1 << 16];
    loop {
        match stuck.read(&mut buf) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                assert!(
                    !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                    "the stuck connection is still open"
                );
                break;
            }
        }
    }
}

#[test]
fn a_slow_reader_never_stalls_other_connections_for_long() {
    let _serial = WRITE_TIMEOUT_TESTS
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    // k = catalog size: each reply is a few KiB, so the slow reader's
    // socket buffers fill and the server's writes to it must wait.
    let items = 400;
    let addr = start_server(model(items).freeze(), Mode::Incremental);

    let slow = TcpStream::connect(addr).expect("connect");
    let mut writer = slow.try_clone().expect("clone");
    let flood = std::thread::spawn(move || {
        for i in 0..20_000 {
            // The server may close the connection part-way.
            if writer
                .write_all(format!("{}\n", append(7, 1 + i % items, items)).as_bytes())
                .is_err()
            {
                break;
            }
        }
    });
    let drain = std::thread::spawn(move || {
        // 64 KiB every 20 ms: steady progress, but far slower than the
        // server produces replies.
        let mut slow = slow;
        let mut buf = vec![0u8; 64 << 10];
        let end = Instant::now() + Duration::from_secs(3);
        while Instant::now() < end {
            match slow.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        let _ = slow.shutdown(std::net::Shutdown::Both);
    });

    let mut other = Client::connect(addr);
    other.roundtrip(r#"{"op":"score","user":3,"history":[1],"k":3}"#);
    let end = Instant::now() + Duration::from_secs(2);
    let mut worst = Duration::ZERO;
    let mut served = 0;
    while Instant::now() < end {
        let t = Instant::now();
        let reply = other.roundtrip(&append(3, 1 + served % items, 3));
        assert!(reply.contains("\"items\""), "{reply}");
        worst = worst.max(t.elapsed());
        served += 1;
    }
    drain.join().expect("drain thread");
    flood.join().expect("flood thread");
    // A write to the slow client gives up after one write timeout. A
    // timeout per send would not: each send moves a little, so the batch
    // worker would stay with the slow client, and the other connection
    // would get ~20 replies in these 2 s.
    assert!(
        worst < 3 * server::WRITE_TIMEOUT && served >= 100,
        "worst round trip {worst:?} over {served} requests"
    );
}

#[test]
fn over_long_and_non_utf8_lines_get_structured_errors() {
    let addr = start_server(model(12).freeze(), Mode::Incremental);
    let too_long = metrics::counter("serve.rejected.line_too_long", false);
    let bad_utf8 = metrics::counter("serve.rejected.bad_utf8", false);
    let (long_before, utf8_before) = (too_long.get(), bad_utf8.get());

    // Not UTF-8: an error reply, and the connection keeps serving.
    let mut c = Client::connect(addr);
    c.writer
        .write_all(b"{\"op\":\"\xff\xfe\"}\n")
        .expect("write");
    let reply = c.recv();
    assert!(reply.starts_with(r#"{"error":"#), "{reply}");
    assert_eq!(c.roundtrip(r#"{"op":"ping"}"#), proto::PONG);
    assert_eq!(bad_utf8.get() - utf8_before, 1);

    // Longer than 1 MiB: the replies before it, the error, then the close.
    c.send(r#"{"op":"ping"}"#);
    let mut long = vec![b' '; server::MAX_LINE + 10];
    long.push(b'\n');
    c.writer.write_all(&long).expect("write");
    assert_eq!(c.recv(), proto::PONG);
    assert_eq!(c.recv(), r#"{"error":"line too long"}"#);
    let mut rest = String::new();
    let end = c.reader.read_line(&mut rest);
    assert!(
        matches!(end, Ok(0)) || end.is_err(),
        "connection still open: {end:?} {rest:?}"
    );
    assert_eq!(too_long.get() - long_before, 1);
}
