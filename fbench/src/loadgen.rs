//! The single-threaded load generator behind the `serve_*` workloads.
//!
//! Two lanes, each one keep-alive connection with at most one request in
//! flight: the read lane and the ingest lane. The read lane first follows
//! a seeded schedule (an open loop: every read has a due time, and its
//! latency is timed from that due time, so a stall also counts against
//! the reads queued behind it), then switches to a closed loop that sends
//! each read as soon as the previous one completes. The ingest lane
//! follows its own schedule during the open loop and is idle in the
//! closed one, so the closed loop measures reads alone on a warm cache.
//! One `ppoll` waits on both sockets and on the next due time.

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::Hasher;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Duration;

use crate::stats::SplitMix64;
use crate::sys;

/// `fahana-loadgen`'s six-endpoint read mix (target, weight); the weights
/// sum to 100.
pub const READ_MIX: &[(&str, u64)] = &[
    ("/query?device=raspberry_pi_4&max_latency_ms=50", 20),
    ("/query?device=odroid_xu4", 15),
    ("/catalog", 25),
    ("/leaderboard/raspberry_pi_4?top=5", 20),
    ("/campaigns", 10),
    ("/healthz", 10),
];

/// How long before a due send the generator stops sleeping and spins: a
/// timed wake-up may land up to the kernel's 50 µs timer slack, plus the
/// wake-up itself, after its deadline.
const SPIN_NS: u64 = 100_000;

/// What one operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `GET` of `READ_MIX[index]`.
    Read(usize),
    /// `POST /ingest` of the `index`-th pre-generated report.
    Ingest(usize),
}

/// Which part of the run an operation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Open,
    Closed,
}

/// A scheduled operation: due time in nanoseconds from the start of the
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled {
    pub due_ns: u64,
    pub kind: OpKind,
    pub phase: Phase,
}

/// Everything a run sends, derived from the seed alone.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Scheduled reads of the open loop, in due order.
    pub reads: Vec<Scheduled>,
    /// Scheduled ingests of the open loop, in due order (ids are their
    /// index).
    pub ingests: Vec<Scheduled>,
    /// Start and end of the closed-loop read phase.
    pub closed_from_ns: u64,
    pub closed_until_ns: u64,
    /// Seed of the closed loop's read targets, drawn as it goes.
    pub closed_seed: u64,
}

impl Plan {
    /// The open-loop operations (reads and ingests) in due order — the
    /// stream the traced replay re-runs in-process.
    pub fn open_stream(&self) -> Vec<Scheduled> {
        let mut ops: Vec<Scheduled> = self.reads.iter().chain(&self.ingests).copied().collect();
        ops.sort_by_key(|op| op.due_ns);
        ops
    }
}

/// Phase lengths and rates of a plan.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub open: Duration,
    pub closed: Duration,
    pub read_rate: f64,
    /// Ingests per second during the open loop.
    pub ingest_rate: f64,
}

fn pick_read(rng: &mut SplitMix64) -> usize {
    let mut draw = rng.below(100);
    for (index, &(_, weight)) in READ_MIX.iter().enumerate() {
        if draw < weight {
            return index;
        }
        draw -= weight;
    }
    unreachable!("READ_MIX weights sum to 100")
}

/// Derives the plan from `seed`. Reads are evenly spaced with ±25 %
/// seeded jitter; the endpoint sequence is seeded, so two workloads with
/// one seed send the same reads.
pub fn plan(seed: u64, shape: Shape) -> Plan {
    let mut rng = SplitMix64::new(seed ^ 0x6c6f_6164_6765_6e21);
    let interval = 1e9 / shape.read_rate;
    let open_ns = shape.open.as_nanos() as f64;
    let mut reads = Vec::new();
    let mut due = 0.0;
    while due < open_ns {
        reads.push(Scheduled {
            due_ns: due as u64,
            kind: OpKind::Read(pick_read(&mut rng)),
            phase: Phase::Open,
        });
        due += interval * (0.75 + 0.5 * rng.next_f64());
    }
    let closed_from_ns = shape.open.as_nanos() as u64;
    let closed_until_ns = closed_from_ns + shape.closed.as_nanos() as u64;
    let closed_seed = rng.next_u64();

    let mut ingests = Vec::new();
    let step = 1e9 / shape.ingest_rate;
    let mut due = step / 2.0;
    while (due as u64) < closed_from_ns {
        ingests.push(Scheduled {
            due_ns: due as u64,
            kind: OpKind::Ingest(ingests.len()),
            phase: Phase::Open,
        });
        due += step;
    }
    Plan {
        reads,
        ingests,
        closed_from_ns,
        closed_until_ns,
        closed_seed,
    }
}

/// The exact request bytes for an operation (`bodies` holds the ingest
/// reports).
pub fn request_bytes(kind: OpKind, bodies: &[String]) -> Vec<u8> {
    match kind {
        OpKind::Read(index) => format!(
            "GET {} HTTP/1.1\r\nHost: fahana\r\nConnection: keep-alive\r\n\r\n",
            READ_MIX[index].0
        )
        .into_bytes(),
        OpKind::Ingest(index) => {
            let body = &bodies[index];
            let mut bytes = format!(
                "POST /ingest?id={} HTTP/1.1\r\nHost: fahana\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
                ingest_id(index),
                body.len()
            )
            .into_bytes();
            bytes.extend_from_slice(body.as_bytes());
            bytes
        }
    }
}

/// The store id the `index`-th ingest publishes under.
pub fn ingest_id(index: usize) -> String {
    format!("ingest-{index:04}")
}

/// A hash of a response body, compared against a direct render later.
pub fn body_hash(body: &[u8]) -> u64 {
    let mut hasher = DefaultHasher::new();
    hasher.write(body);
    hasher.finish()
}

/// One finished (or failed) operation.
#[derive(Debug, Clone, Copy)]
pub struct Completed {
    pub kind: OpKind,
    pub phase: Phase,
    pub due_ns: u64,
    pub done_ns: u64,
    /// HTTP status; 0 when the connection failed.
    pub status: u16,
    pub generation: Option<u64>,
    pub body_hash: u64,
}

impl Completed {
    /// An operation whose connection failed (status 0).
    fn failed(op: Scheduled, done_ns: u64) -> Completed {
        Completed {
            kind: op.kind,
            phase: op.phase,
            due_ns: op.due_ns,
            done_ns,
            status: 0,
            generation: None,
            body_hash: 0,
        }
    }

    /// Latency from the due time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }
}

/// How the generator itself kept to the schedule.
#[derive(Debug, Clone, Default)]
pub struct Lateness {
    /// For every scheduled read, then every ingest: how long after the
    /// later of its due time and its lane becoming free it actually went
    /// out (ns), less the time the server spent meanwhile on the other
    /// lane's request — delay the generator added, not backlog the server
    /// caused. (The server runs one worker: a read due during an ingest
    /// waits for it whether it goes out on time or not.)
    pub own_read_ns: Vec<u64>,
    pub own_ingest_ns: Vec<u64>,
    /// For every scheduled send: send time minus due time (ns), backlog
    /// included.
    pub backlog_ns: Vec<u64>,
}

/// The delay the generator added to a send that could have gone out at
/// `ready` and went out at `sent`: the time between, less the part of it
/// the server spent on the other lane's request `(taken up, done)`.
fn own_delay(ready: u64, sent: u64, (other_sent, other_done): (u64, u64)) -> u64 {
    let overlap = other_done.min(sent).saturating_sub(other_sent.max(ready));
    (sent - ready).saturating_sub(overlap)
}

/// A parsed response head.
struct Head {
    status: u16,
    content_length: usize,
    generation: Option<u64>,
    /// The server announced it closes the connection after this response
    /// (it does so every `MAX_REQUESTS_PER_CONNECTION` requests).
    close: bool,
    len: usize,
}

fn parse_head(buf: &[u8]) -> Option<Result<Head, String>> {
    let end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let Ok(text) = std::str::from_utf8(&buf[..end]) else {
        return Some(Err("response head is not UTF-8".into()));
    };
    let mut lines = text.split("\r\n");
    let Some(status) = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|c| c.parse().ok())
    else {
        return Some(Err("malformed status line".into()));
    };
    let mut content_length = 0;
    let mut generation = None;
    let mut close = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                match value.trim().parse() {
                    Ok(n) => content_length = n,
                    Err(_) => return Some(Err("malformed Content-Length".into())),
                }
            } else if name.eq_ignore_ascii_case("x-fahana-generation") {
                generation = value.trim().parse().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.trim().eq_ignore_ascii_case("close");
            }
        }
    }
    Some(Ok(Head {
        status,
        content_length,
        generation,
        close,
        len: end,
    }))
}

struct Lane {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    inflight: Option<Scheduled>,
    sent_ns: u64,
    free_since_ns: u64,
}

impl Lane {
    fn new(addr: SocketAddr) -> Lane {
        Lane {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
            inflight: None,
            sent_ns: 0,
            free_since_ns: 0,
        }
    }

    /// When the server last took up a request of this lane, and when it
    /// was done with it (`u64::MAX` while the request is in flight).
    fn busy_span(&self) -> (u64, u64) {
        let done = match self.inflight {
            Some(_) => u64::MAX,
            None => self.free_since_ns,
        };
        (self.sent_ns, done)
    }

    fn send(&mut self, op: Scheduled, bytes: &[u8]) -> Result<(), String> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        self.inflight = Some(op);
        self.buf.clear();
        stream.write_all(bytes).map_err(|e| {
            self.stream = None;
            format!("send: {e}")
        })
    }

    /// Reads what is available; returns the finished response, if any.
    fn receive(&mut self, done_ns: impl Fn() -> u64) -> Option<Result<Completed, String>> {
        let stream = self.stream.as_mut()?;
        let mut chunk = [0u8; 64 * 1024];
        match stream.read(&mut chunk) {
            Ok(0) => {
                self.stream = None;
                return Some(Err("server closed the connection".into()));
            }
            Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => return None,
            Err(e) => {
                self.stream = None;
                return Some(Err(format!("receive: {e}")));
            }
        }
        let head = match parse_head(&self.buf)? {
            Ok(head) => head,
            Err(message) => {
                self.stream = None;
                return Some(Err(message));
            }
        };
        if self.buf.len() < head.len + head.content_length {
            return None;
        }
        let done = done_ns();
        let op = self.inflight.take().expect("a response answers a request");
        self.free_since_ns = done;
        let body_hash = body_hash(&self.buf[head.len..head.len + head.content_length]);
        if head.close {
            // the next request on this lane opens a new connection
            self.stream = None;
        }
        Some(Ok(Completed {
            kind: op.kind,
            phase: op.phase,
            due_ns: op.due_ns,
            done_ns: done,
            status: head.status,
            generation: head.generation,
            body_hash,
        }))
    }
}

/// What a run of the generator produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub completed: Vec<Completed>,
    /// Connection-level failures (refused, reset, malformed response).
    pub errors: Vec<String>,
    pub lateness: Lateness,
    /// When the closed loop started and how long it ran (ns).
    pub closed_from_ns: u64,
    pub closed_ns: u64,
}

/// Runs `plan` against `addr`.
pub fn drive(addr: SocketAddr, plan: &Plan, bodies: &[String]) -> Outcome {
    let epoch = sys::now();
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut out = Outcome::default();
    let mut lanes = [Lane::new(addr), Lane::new(addr)];
    let mut queues: [VecDeque<Scheduled>; 2] = [
        plan.reads.iter().copied().collect(),
        plan.ingests.iter().copied().collect(),
    ];
    let mut closed_targets = SplitMix64::new(plan.closed_seed);
    let mut closed_started: Option<u64> = None;

    loop {
        let t = now();
        // the read lane turns closed-loop once its schedule is exhausted
        if queues[0].is_empty()
            && lanes[0].inflight.is_none()
            && t >= plan.closed_from_ns
            && t < plan.closed_until_ns
        {
            closed_started.get_or_insert(t);
            queues[0].push_back(Scheduled {
                due_ns: t,
                kind: OpKind::Read(pick_read(&mut closed_targets)),
                phase: Phase::Closed,
            });
        }
        let spans = [lanes[0].busy_span(), lanes[1].busy_span()];
        for (index, (lane, queue)) in lanes.iter_mut().zip(queues.iter_mut()).enumerate() {
            if lane.inflight.is_some() {
                continue;
            }
            let Some(&op) = queue.front() else { continue };
            if op.due_ns > t {
                continue;
            }
            queue.pop_front();
            if op.phase != Phase::Closed {
                let ready = op.due_ns.max(lane.free_since_ns);
                let own = own_delay(ready, t, spans[1 - index]);
                match op.kind {
                    OpKind::Read(_) => out.lateness.own_read_ns.push(own),
                    OpKind::Ingest(_) => out.lateness.own_ingest_ns.push(own),
                }
                out.lateness.backlog_ns.push(t - op.due_ns);
            }
            lane.sent_ns = t;
            if let Err(message) = lane.send(op, &request_bytes(op.kind, bodies)) {
                lane.inflight = None;
                lane.free_since_ns = now();
                out.errors.push(message);
                out.completed
                    .push(Completed::failed(op, lane.free_since_ns));
            }
        }

        let busy: Vec<usize> = (0..2).filter(|&i| lanes[i].inflight.is_some()).collect();
        let closed_pending = t < plan.closed_until_ns;
        if busy.is_empty() && queues.iter().all(VecDeque::is_empty) && !closed_pending {
            break;
        }
        // sleep until the next due send, or a response arrives
        let t = now();
        let mut wake = queues
            .iter()
            .zip(&lanes)
            .filter(|(_, lane)| lane.inflight.is_none())
            .filter_map(|(queue, _)| queue.front().map(|op| op.due_ns))
            .min()
            .unwrap_or(u64::MAX);
        if queues[0].is_empty() && lanes[0].inflight.is_none() && closed_pending {
            wake = wake.min(plan.closed_from_ns);
        }
        let until_wake = wake.saturating_sub(t);
        // with nothing in flight, the last stretch before a due send is
        // spun, not slept: a timed wake-up lands tens of microseconds
        // late, and that delay would be charged to the request. With a
        // request in flight the server is busy, and spinning would take
        // the CPU it shares with the generator.
        if busy.is_empty() && until_wake <= SPIN_NS {
            while now() < wake {
                std::hint::spin_loop();
            }
            continue;
        }
        let early = if busy.is_empty() { SPIN_NS } else { 0 };
        let timeout = Duration::from_nanos((until_wake - early).min(1_000_000_000));
        let fds: Vec<i32> = busy
            .iter()
            .map(|&i| {
                lanes[i]
                    .stream
                    .as_ref()
                    .expect("busy lanes are connected")
                    .as_raw_fd()
            })
            .collect();
        let ready = if fds.is_empty() {
            std::thread::sleep(timeout);
            Vec::new()
        } else {
            match sys::wait_readable(&fds, timeout) {
                Ok(ready) => ready,
                Err(e) => {
                    out.errors.push(format!("ppoll: {e}"));
                    break;
                }
            }
        };
        for (&lane_index, readable) in busy.iter().zip(ready) {
            if !readable {
                continue;
            }
            let lane = &mut lanes[lane_index];
            match lane.receive(now) {
                None => {}
                Some(Ok(done)) => out.completed.push(done),
                Some(Err(message)) => {
                    let op = lane.inflight.take().expect("failed lane had a request");
                    lane.free_since_ns = now();
                    out.errors.push(message);
                    out.completed
                        .push(Completed::failed(op, lane.free_since_ns));
                }
            }
        }
    }
    if let Some(start) = closed_started {
        let end = out
            .completed
            .iter()
            .filter(|c| c.phase == Phase::Closed)
            .map(|c| c.done_ns)
            .max()
            .unwrap_or(start);
        out.closed_from_ns = start;
        out.closed_ns = end - start;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> Shape {
        Shape {
            open: Duration::from_secs(2),
            closed: Duration::from_millis(500),
            read_rate: 500.0,
            ingest_rate: 4.0,
        }
    }

    #[test]
    fn plan_is_a_function_of_the_seed() {
        let a = plan(3, shape());
        let b = plan(3, shape());
        let c = plan(4, shape());
        assert_eq!(a.reads, b.reads);
        assert_eq!(a.closed_seed, b.closed_seed);
        assert_ne!(a.reads, c.reads);
        assert!(a.reads.windows(2).all(|w| w[0].due_ns < w[1].due_ns));
        assert!((900..1100).contains(&a.reads.len()));
        // 4 per second over the open phase, none in the closed one
        assert_eq!(a.ingests.len(), 8);
        let stream = a.open_stream();
        assert!(stream.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(stream.iter().all(|op| op.due_ns < a.closed_from_ns));
    }

    #[test]
    fn read_mix_follows_the_weights() {
        let mut rng = SplitMix64::new(9);
        let reads: Vec<usize> = (0..100_000).map(|_| pick_read(&mut rng)).collect();
        let catalog = reads.iter().filter(|&&r| r == 2).count() as f64 / reads.len() as f64;
        assert!((catalog - 0.25).abs() < 0.02, "catalog share {catalog}");
    }

    #[test]
    fn response_heads_parse() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Fahana-Generation: 7\r\n\r\n{}";
        let head = parse_head(raw).unwrap().unwrap();
        assert_eq!(head.status, 200);
        assert_eq!(head.content_length, 2);
        assert_eq!(head.generation, Some(7));
        assert!(!head.close);
        assert_eq!(head.len, raw.len() - 2);
        assert!(parse_head(b"HTTP/1.1 200 OK\r\n").is_none());
    }

    #[test]
    fn time_the_server_spent_on_the_other_lane_is_not_own_delay() {
        // server idle: all of the lateness is the generator's
        assert_eq!(own_delay(1_000, 1_500, (0, 200)), 500);
        // due during an ingest (300..1_400), sent right after it
        assert_eq!(own_delay(1_000, 1_450, (300, 1_400)), 50);
        // ingest still in flight when the send goes out
        assert_eq!(own_delay(1_000, 1_450, (900, u64::MAX)), 0);
        // ingest taken up after this send was ready
        assert_eq!(own_delay(1_000, 1_450, (1_100, u64::MAX)), 100);
    }
}
