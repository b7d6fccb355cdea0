//! The `serve_ingest` workload: the release `fahana-serve` as a child
//! process (`--threads 1`, default cache), driven over loopback by
//! [`crate::loadgen`] with the six-endpoint read mix beside a steady
//! stream of `POST /ingest`s.
//!
//! The store is generated from the seed: campaigns whose artifacts are
//! large enough, and numerous enough, that a render or a reload costs
//! clearly more than a response-cache hit. Every read response is checked
//! against a direct render (`answer_query`, `catalog_json`, `leaderboard`,
//! and the two summary documents) of the store as it was at the response's
//! `X-Fahana-Generation`.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use edgehw::DeviceKind;
use fahana_runtime::serve::http::RequestParser;
use fahana_runtime::serve::router::route;
use fahana_runtime::serve::{Response, ServeTelemetry};
use fahana_runtime::{
    answer_query, catalog_json, leaderboard, ArtifactStore, CampaignConfig, CampaignEngine, Json,
    ResponseCache, ServeOptions, StoreQuery, StoreView, StoredCampaign,
};

use crate::campaign::canonical_report;
use crate::loadgen::{self, body_hash, ingest_id, OpKind, Phase, Plan, Scheduled, Shape, READ_MIX};
use crate::output::RunResult;
use crate::stats::{median, quantile, windowed_quantile};
use crate::sys;
use crate::trace::{self, Tracer};

/// Campaigns in the seeded store. With about 6 KB per artifact, a
/// `/catalog` render or a reload of this store costs far more than a
/// cache hit.
const STORE_CAMPAIGNS: usize = 32;

/// Reads per second in the open loop, well below one connection's
/// closed-loop rate against one server thread.
const READ_RATE: f64 = 1000.0;

/// `POST /ingest`s per second. Each holds the one server thread for
/// about 12 ms, so about 2 % of reads queue behind one: the 99th
/// percentile lands well inside that group rather than at its edge.
const INGEST_RATE: f64 = 1.5;

/// Window of the per-window latency percentiles: 2000 reads, and exactly
/// three ingests, so every window sees the same mix.
const LATENCY_WINDOW: Duration = Duration::from_secs(2);

/// Window of the per-window closed-loop throughput.
const THROUGHPUT_WINDOW: Duration = Duration::from_millis(250);

/// How many times set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// The phases of one run of `seconds` seconds: 70 % open loop, 30 %
/// closed loop.
pub fn shape(seconds: f64) -> Shape {
    Shape {
        open: Duration::from_secs_f64(seconds * 0.7),
        closed: Duration::from_secs_f64(seconds * 0.3),
        read_rate: READ_RATE,
        ingest_rate: INGEST_RATE,
    }
}

/// The campaign behind the `index`-th generated report: the default grid
/// at one episode per scenario (a report's size hardly depends on the
/// episode count), each report with its own seed.
fn report_config(seed: u64, index: usize) -> CampaignConfig {
    CampaignConfig {
        episodes: 1,
        samples: 120,
        threads: 1,
        seed: seed.wrapping_mul(1_000_003).wrapping_add(index as u64),
        ..CampaignConfig::default()
    }
}

/// Generates the seeded store's reports and the ingest pool.
fn generate_reports(seed: u64, count: usize) -> Result<Vec<String>, String> {
    (0..count)
        .map(|index| {
            let outcome = CampaignEngine::new(report_config(seed, index))
                .and_then(|engine| engine.run())
                .map_err(|e| e.to_string())?;
            Ok(canonical_report(&outcome))
        })
        .collect()
}

/// Writes the seeded store at `root` (fresh) from `reports`.
fn write_store(root: &Path, reports: &[String]) -> Result<(), String> {
    let staging = root.join("reports");
    std::fs::create_dir_all(&staging).map_err(|e| e.to_string())?;
    let files: Vec<PathBuf> = reports
        .iter()
        .enumerate()
        .map(|(index, report)| {
            let path = staging.join(format!("seeded-{index:03}.json"));
            std::fs::write(&path, report).map(|_| path)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    ArtifactStore::open(root.join("store"))
        .and_then(|store| store.ingest_files(&files))
        .map_err(|e| e.to_string())?;
    std::fs::remove_dir_all(&staging).map_err(|e| e.to_string())
}

/// A running `fahana-serve` child. Killed and reaped on drop.
struct ServerChild {
    child: Child,
    addr: SocketAddr,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl ServerChild {
    /// Spawns the server on an ephemeral port and waits until it answers
    /// `/healthz`. The child inherits the caller's CPU affinity.
    fn spawn(bin_dir: &Path, store: &Path) -> Result<ServerChild, String> {
        let mut command = Command::new(bin_dir.join("fahana-serve"));
        command
            .arg("--store")
            .arg(store)
            .args(["--addr", "127.0.0.1:0", "--threads", "1"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let child = command
            .spawn()
            .map_err(|e| format!("cannot start fahana-serve: {e}"))?;
        // from here on, an early return kills and reaps the child
        let mut server = ServerChild {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            drain: None,
        };
        let mut stderr = BufReader::new(server.child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            if stderr.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("fahana-serve exited before listening".into());
            }
            if let Some(rest) = line.split("listening on http://").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                server.addr = addr
                    .parse()
                    .map_err(|e| format!("bad address {addr}: {e}"))?;
                break;
            }
        }
        // keep draining so the child never blocks on a full stderr pipe
        server.drain = Some(std::thread::spawn(move || {
            let mut sink = Vec::new();
            stderr.read_to_end(&mut sink).ok();
        }));
        let (status, _) = get(server.addr, "/healthz")?;
        if status != 200 {
            return Err(format!("/healthz answered {status}"));
        }
        Ok(server)
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
        if let Some(drain) = self.drain.take() {
            drain.join().ok();
        }
    }
}

/// One `GET` on a fresh connection; returns status and body.
fn get(addr: SocketAddr, target: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: fahana\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| e.to_string())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| e.to_string())?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or("no response head")?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    Ok((status, body.to_string()))
}

/// Reads a counter's value from a Prometheus text rendering.
fn prometheus_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|line| line.starts_with(name))
        .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// The direct render of a read target over `campaigns` — the answer the
/// server must give at the generation `campaigns` belongs to. The
/// `/healthz` and `/campaigns` documents are rebuilt field by field.
pub fn direct_render(target: &str, campaigns: &[StoredCampaign]) -> Result<String, String> {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let pairs: Vec<(&str, &str)> = query
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|p| p.split_once('=').unwrap_or((p, "")))
        .collect();
    let param = |key: &str| pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
    Ok(match path {
        "/query" => {
            let mut store_query = StoreQuery::default();
            for (key, value) in &pairs {
                store_query.set(key, value)?;
            }
            answer_query(campaigns, &store_query).to_json().render()
        }
        "/catalog" => catalog_json(campaigns).render(),
        "/healthz" => Json::Obj(vec![
            ("status".into(), Json::str("ok")),
            ("campaigns".into(), Json::Int(campaigns.len() as i64)),
            (
                "scenarios".into(),
                Json::Int(
                    campaigns
                        .iter()
                        .map(|c| c.report.scenarios.len() as i64)
                        .sum(),
                ),
            ),
        ])
        .render(),
        "/campaigns" => Json::Obj(vec![(
            "campaigns".into(),
            Json::Arr(
                campaigns
                    .iter()
                    .map(|c| {
                        Json::Obj(vec![
                            ("id".into(), Json::str(&c.id)),
                            (
                                "scenarios".into(),
                                Json::Int(c.report.scenarios.len() as i64),
                            ),
                            ("threads".into(), Json::Int(c.report.threads as i64)),
                            ("wall_clock_ms".into(), Json::Num(c.report.wall_clock_ms)),
                        ])
                    })
                    .collect(),
            ),
        )])
        .render(),
        _ => {
            let slug = path
                .strip_prefix("/leaderboard/")
                .ok_or_else(|| format!("no direct render for {target}"))?;
            let device = DeviceKind::from_slug(slug).ok_or("unknown device")?;
            let top = param("top")
                .map_or(Ok(10), str::parse)
                .map_err(|_| "bad top")?;
            leaderboard(campaigns, device, top).to_json().render()
        }
    })
}

/// The span name of a read target's direct render.
fn render_span(index: usize) -> &'static str {
    let target = READ_MIX[index].0;
    if target.starts_with("/query") {
        "store.query"
    } else if target.starts_with("/catalog") {
        "store.catalog"
    } else if target.starts_with("/leaderboard") {
        "store.leaderboard"
    } else {
        "store.summary"
    }
}

/// Set-up state shared by the measured and the traced run.
struct Prepared {
    seeded: Vec<String>,
    bodies: Vec<String>,
    server: ServerChild,
}

fn setup(
    seed: u64,
    ingests: usize,
    work_dir: &Path,
    bin_dir: &Path,
) -> Result<(Prepared, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for round in 0..SETUP_REPEATS {
        // stop the previous round's server before timing the next
        drop(prepared.take());
        let root = work_dir.join(format!("setup-{round}"));
        let started = sys::now();
        let mut reports = generate_reports(seed, STORE_CAMPAIGNS + ingests)?;
        let bodies = reports.split_off(STORE_CAMPAIGNS);
        write_store(&root, &reports)?;
        let server = ServerChild::spawn(bin_dir, &root.join("store"))?;
        times.push(started.elapsed().as_secs_f64());
        prepared = Some(Prepared {
            seeded: reports,
            bodies,
            server,
        });
    }
    Ok((prepared.expect("at least one set-up"), median(&times)))
}

/// Runs the workload.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    work_dir: &Path,
    bin_dir: &Path,
) -> Result<RunResult, String> {
    let plan = loadgen::plan(seed, shape(seconds));
    let mut result = RunResult::default();
    // the generator and the server share one CPU: no request then waits
    // for another (virtual) CPU to wake, which is where most of the
    // run-to-run spread of loopback latency comes from on a VM
    let cpu = sys::first_allowed_cpu()?;
    sys::pin_to(cpu).map_err(|e| format!("cannot pin to CPU {cpu}: {e}"))?;
    let (prepared, setup_s) = setup(seed, plan.ingests.len(), work_dir, bin_dir)?;
    result.metrics.set("setup_s", setup_s);

    let outcome = loadgen::drive(prepared.server.addr, &plan, &prepared.bodies);
    let (_, metrics_text) = get(prepared.server.addr, "/metrics")?;
    let peak_rss = sys::peak_rss_mb(Some(prepared.server.child.id()))?;

    record_outcome(&outcome, &mut result);
    let m = &mut result.metrics;
    m.set("peak_rss_mb", peak_rss);
    let wakeups = prometheus_value(&metrics_text, "fahana_serve_reactor_wakeups_total");
    let dispatches = prometheus_value(&metrics_text, "fahana_serve_reactor_dispatches_total");
    m.set("reactor.wakeups_per_req", wakeups / dispatches.max(1.0));

    check_responses(&outcome, &prepared, work_dir, &mut result)?;

    if traced {
        traced_replay(&plan, &prepared, work_dir, &mut result)?;
    }
    drop(prepared);
    Ok(result)
}

fn record_outcome(outcome: &loadgen::Outcome, result: &mut RunResult) {
    let reads: Vec<(u64, f64)> = outcome
        .completed
        .iter()
        .filter(|c| c.phase == Phase::Open && matches!(c.kind, OpKind::Read(_)))
        .map(|c| (c.due_ns, c.latency_ms()))
        .collect();
    let window = LATENCY_WINDOW.as_nanos() as u64;
    let (p50, windows) = windowed_quantile(&reads, window, 0.5);
    let (p99, _) = windowed_quantile(&reads, window, 0.99);
    let ingests: Vec<f64> = outcome
        .completed
        .iter()
        .filter(|c| matches!(c.kind, OpKind::Ingest(_)))
        .map(|c| c.latency_ms())
        .collect();
    // closed-loop reads per second, per full window
    let step = THROUGHPUT_WINDOW.as_nanos() as u64;
    let mut per_window: BTreeMap<u64, f64> = BTreeMap::new();
    for done in outcome
        .completed
        .iter()
        .filter(|c| c.phase == Phase::Closed)
    {
        *per_window
            .entry((done.done_ns - outcome.closed_from_ns) / step)
            .or_insert(0.0) += 1.0;
    }
    let full = outcome.closed_ns / step;
    let rates: Vec<f64> = per_window
        .range(..full)
        .map(|(_, count)| count / THROUGHPUT_WINDOW.as_secs_f64())
        .collect();

    let to_ms = |ns: &[u64]| -> Vec<f64> { ns.iter().map(|&ns| ns as f64 / 1e6).collect() };
    let own_reads = to_ms(&outcome.lateness.own_read_ns);
    let own_ingests = to_ms(&outcome.lateness.own_ingest_ns);
    let backlog = to_ms(&outcome.lateness.backlog_ns);
    let max = |ms: &[f64]| ms.iter().copied().fold(0.0, f64::max);
    // The generator shares its CPU with the server, so it is sometimes
    // held up while the server works, and since latency is timed from the
    // due time, that delay is charged to the request. The run fell behind
    // when, at a percentile reported with a bound, the delay the generator
    // added itself is over a tenth of the latency reported there.
    let behind: Vec<&str> = [
        ("p50_ms", median(&own_reads), p50),
        ("ingest_p50_ms", median(&own_ingests), median(&ingests)),
        (
            "ingest_p90_ms",
            quantile(&own_ingests, 0.9),
            quantile(&ingests, 0.9),
        ),
    ]
    .into_iter()
    .filter(|&(_, own, reported)| own > 0.1 * reported)
    .map(|(name, _, _)| name)
    .collect();
    println!(
        "generator: {} scheduled sends; own delay of reads p50 {:.4} ms, p99 {:.4} ms, \
         max {:.3} ms; of ingests p50 {:.4} ms, p90 {:.4} ms, max {:.3} ms; \
         backlog p99 {:.3} ms, max {:.3} ms; fell_behind={}",
        backlog.len(),
        median(&own_reads),
        quantile(&own_reads, 0.99),
        max(&own_reads),
        median(&own_ingests),
        quantile(&own_ingests, 0.9),
        max(&own_ingests),
        quantile(&backlog, 0.99),
        max(&backlog),
        !behind.is_empty(),
    );
    println!(
        "samples: p50_ms/p99_ms are medians over {windows} windows of {} s ({} open-loop reads); \
         max_rps is the median over {} windows of {} ms ({} closed-loop reads); \
         ingest_p50_ms/ingest_p90_ms over {} ingests",
        LATENCY_WINDOW.as_secs_f64(),
        reads.len(),
        rates.len(),
        THROUGHPUT_WINDOW.as_millis(),
        outcome
            .completed
            .iter()
            .filter(|c| c.phase == Phase::Closed)
            .count(),
        ingests.len()
    );
    let m = &mut result.metrics;
    let last_done = outcome
        .completed
        .iter()
        .map(|c| c.done_ns)
        .max()
        .unwrap_or(0);
    // a stand-in: the schedule is fixed, so this moves only if the server
    // falls seconds behind it
    m.set("wall_s", last_done as f64 / 1e9);
    m.set("p50_ms", p50);
    m.set("p99_ms", p99);
    m.set("max_rps", median(&rates));
    m.set("ingest_p50_ms", median(&ingests));
    m.set("ingest_p90_ms", quantile(&ingests, 0.9));
    result.attempted += outcome.completed.len() as u64;
    for error in &outcome.errors {
        result.errors.push(error.clone());
    }
    // those figures would be partly the generator's, not the server's:
    // the run counts as failed rather than reporting them as if they held
    if !behind.is_empty() {
        result.fail(format!(
            "the load generator fell behind its schedule: its own delay is over a tenth of {}",
            behind.join(", ")
        ));
    }
}

/// Checks every response: reads against a direct render at their
/// generation, ingests for `201 Created`.
fn check_responses(
    outcome: &loadgen::Outcome,
    prepared: &Prepared,
    work_dir: &Path,
    result: &mut RunResult,
) -> Result<(), String> {
    let mut seen: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for done in &outcome.completed {
        match (done.kind, done.status) {
            (_, 0) => result.fail("connection failed"),
            (_, status) if status >= 500 => result.fail(format!("server error {status}")),
            (OpKind::Ingest(index), status) if status != 201 => {
                result.fail(format!("ingest {index} answered {status}"))
            }
            (OpKind::Read(index), 200) => match done.generation {
                Some(generation) => seen.entry(generation).or_default().push(index),
                None => result.fail("read without X-Fahana-Generation"),
            },
            (OpKind::Read(index), status) => {
                result.fail(format!("{} answered {status}", READ_MIX[index].0))
            }
            _ => {}
        }
    }
    // replay the store's history: generation g is the seeded store plus
    // the first g ingests, in the order the ingest lane sent them
    let oracle_root = work_dir.join("oracle");
    write_store(&oracle_root, &prepared.seeded)?;
    let view =
        StoreView::open(ArtifactStore::open(oracle_root.join("store")).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
    let mut expected: HashMap<(u64, usize), u64> = HashMap::new();
    for (&generation, targets) in &seen {
        while view.generation() < generation {
            let next = view.generation() as usize;
            let body = prepared
                .bodies
                .get(next)
                .ok_or_else(|| format!("a response claims generation {generation}"))?;
            view.ingest(&ingest_id(next), body)
                .map_err(|e| e.to_string())?;
        }
        let campaigns = view.campaigns();
        for &index in targets {
            if let Entry::Vacant(slot) = expected.entry((generation, index)) {
                slot.insert(body_hash(
                    direct_render(READ_MIX[index].0, &campaigns)?.as_bytes(),
                ));
            }
        }
    }
    for done in &outcome.completed {
        if let (OpKind::Read(index), 200, Some(generation)) =
            (done.kind, done.status, done.generation)
        {
            if expected[&(generation, index)] != done.body_hash {
                result.fail(format!(
                    "{} at generation {generation} differs from the direct render",
                    READ_MIX[index].0
                ));
            }
        }
    }
    std::fs::remove_dir_all(&oracle_root).map_err(|e| e.to_string())
}

/// Per-replay results the traced metrics are computed from.
#[derive(Debug, Default)]
struct ServeReplay {
    /// Per read op: parse + route + encode, in ns.
    request_ns: Vec<u64>,
    bytes_out: u64,
    campaigns_parsed: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    evictions: u64,
    mismatches: Vec<String>,
}

/// Replays `ops` in-process on this thread: parse, route, encode — no
/// sockets. Ingests go through `ArtifactStore::ingest` and
/// `StoreView::reload` directly so their two halves are timed apart.
fn replay_ops(
    ops: &[Scheduled],
    store: &Path,
    bodies: &[String],
    tracer: &mut Tracer,
) -> Result<ServeReplay, String> {
    let view = StoreView::open(ArtifactStore::open(store).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let options = ServeOptions::default();
    let cache = ResponseCache::new(options.cache_capacity);
    let obs = ServeTelemetry::disabled();
    let mut checked: HashMap<(u64, usize), String> = HashMap::new();
    let mut replay = ServeReplay::default();
    for (op_index, op) in ops.iter().enumerate() {
        tracer.begin_op(op_index as u64);
        let bytes = loadgen::request_bytes(op.kind, bodies);
        let started = sys::now();
        let root = tracer.enter("request");
        let parsed = tracer.span("http.parse", |_| {
            RequestParser::new(options.max_body_bytes).feed(&bytes)
        });
        let Ok(Some(request)) = parsed else {
            tracer.exit(root);
            replay
                .mismatches
                .push(format!("op {op_index} did not parse"));
            continue;
        };
        let response = match op.kind {
            OpKind::Read(_) => {
                let before = cache.stats();
                let span = tracer.enter("router.route");
                let response = route(&request, &view, &obs, &cache);
                let after = cache.stats();
                let name = if after.invalidations > before.invalidations || op_index == 0 {
                    "router.flush"
                } else if after.hits > before.hits {
                    "router.hit"
                } else {
                    "router.render"
                };
                tracer.exit_as(span, name);
                response
            }
            OpKind::Ingest(index) => {
                let id = ingest_id(index);
                let stored = tracer.span("store.publish", |_| {
                    view.store().ingest(&id, &bodies[index])
                });
                let parsed = tracer.span("view.reload", |_| view.reload());
                replay.campaigns_parsed += parsed.as_ref().map_or(0, |&n| n as u64);
                match stored {
                    Ok(_) => Response {
                        status: 201,
                        ..Response::ok(Json::Obj(vec![("id".into(), Json::str(&id))]).render())
                    },
                    Err(e) => Response::error(500, e.to_string()),
                }
            }
        };
        let encoded = tracer.span("http.encode", |_| response.to_bytes(request.keep_alive));
        tracer.exit(root);
        let elapsed = started.elapsed().as_nanos() as u64;
        replay.bytes_out += encoded.len() as u64;

        match op.kind {
            OpKind::Read(index) => {
                replay.request_ns.push(elapsed);
                let generation = response.generation.unwrap_or(u64::MAX);
                let expected = match checked.entry((generation, index)) {
                    Entry::Occupied(known) => known.into_mut(),
                    Entry::Vacant(slot) => {
                        let campaigns = view.campaigns();
                        let check = tracer.enter("check");
                        let rendered = tracer.span(render_span(index), |_| {
                            direct_render(READ_MIX[index].0, &campaigns)
                        })?;
                        tracer.exit(check);
                        slot.insert(rendered)
                    }
                };
                if response.status != 200 || *expected != response.body {
                    replay.mismatches.push(format!(
                        "replayed {} differs from the direct render",
                        READ_MIX[index].0
                    ));
                }
            }
            OpKind::Ingest(index) if response.status != 201 => {
                replay
                    .mismatches
                    .push(format!("replayed ingest {index} failed"));
            }
            OpKind::Ingest(_) => {}
        }
    }
    let stats = cache.stats();
    replay.hits = stats.hits;
    replay.misses = stats.misses;
    replay.invalidations = stats.invalidations;
    replay.evictions = stats.evictions;
    Ok(replay)
}

fn traced_replay(
    plan: &Plan,
    prepared: &Prepared,
    work_dir: &Path,
    result: &mut RunResult,
) -> Result<(), String> {
    let ops = plan.open_stream();
    let copies = [
        work_dir.join("replay-plain"),
        work_dir.join("replay-traced"),
    ];
    for copy in &copies {
        write_store(copy, &prepared.seeded)?;
    }
    let started = sys::now();
    let plain = replay_ops(
        &ops,
        &copies[0].join("store"),
        &prepared.bodies,
        &mut Tracer::new(false),
    )?;
    let untraced_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut tracer = Tracer::new(true);
    let started = sys::now();
    let replay = replay_ops(
        &ops,
        &copies[1].join("store"),
        &prepared.bodies,
        &mut tracer,
    )?;
    let traced_ms = started.elapsed().as_secs_f64() * 1e3;
    for copy in &copies {
        std::fs::remove_dir_all(copy).map_err(|e| e.to_string())?;
    }
    for mismatch in plain.mismatches.iter().chain(&replay.mismatches) {
        result.fail(mismatch.clone());
    }
    result.attempted += 2 * ops.len() as u64;

    let spans = tracer.spans();
    trace::check_nesting(spans)?;
    tracer
        .write_jsonl(&work_dir.join("trace.jsonl"))
        .map_err(|e| e.to_string())?;
    let p50_us = |name: &str| {
        let values: Vec<f64> = trace::self_ns_of(spans, name)
            .into_iter()
            .map(|ns| ns as f64 / 1e3)
            .collect();
        median(&values)
    };
    let p50_ms = |name: &str| p50_us(name) / 1e3;
    let request_us: Vec<f64> = replay
        .request_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let untraced_p50_us = result.metrics.get("p50_ms").unwrap_or(0.0) * 1e3;
    let m = &mut result.metrics;
    m.set("http.parse_us", p50_us("http.parse"));
    m.set("http.encode_us", p50_us("http.encode"));
    m.set("http.bytes_out", replay.bytes_out as f64);
    m.set("router.hit_us", p50_us("router.hit"));
    m.set("router.render_us", p50_us("router.render"));
    m.set("router.flush_us", p50_us("router.flush"));
    m.set(
        "cache.serve_hit_ratio",
        replay.hits as f64 / (replay.hits + replay.misses).max(1) as f64,
    );
    m.set("cache.invalidations", replay.invalidations as f64);
    m.set("cache.evictions", replay.evictions as f64);
    m.set("store.query_us", p50_us("store.query"));
    m.set("store.catalog_us", p50_us("store.catalog"));
    m.set("store.leaderboard_us", p50_us("store.leaderboard"));
    m.set("store.publish_ms", p50_ms("store.publish"));
    m.set("view.reload_ms", p50_ms("view.reload"));
    m.set("view.campaigns_parsed", replay.campaigns_parsed as f64);
    m.set(
        "transport.residual_us",
        untraced_p50_us - median(&request_us),
    );
    m.set("trace.overhead_ms", traced_ms - untraced_ms);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_renders_cover_the_read_mix() {
        let campaigns: Vec<StoredCampaign> = Vec::new();
        for (target, _) in READ_MIX {
            let body = direct_render(target, &campaigns).unwrap();
            assert!(Json::parse(&body).is_ok(), "{target} renders JSON");
        }
        assert!(direct_render("/nope", &campaigns).is_err());
    }

    #[test]
    fn prometheus_counters_are_summed_across_labels() {
        let text = "# HELP x\nfahana_a_total{k=\"1\"} 3\nfahana_a_total{k=\"2\"} 4\nfahana_b 9\n";
        assert_eq!(prometheus_value(text, "fahana_a_total"), 7.0);
    }
}
