//! `bi-loadgen` — seeded workload replay against `bi-serve` (or a
//! `bi-router` front door, or a fleet of servers directly).
//!
//! Two phases over one deterministic workload (`--profile mixed` is the
//! matrix-form + NCS mix, `--profile light` is 2×2 games cheap enough
//! to push 100k+ unique keys — see `bi_service::workload`):
//!
//! 1. **cold** — every unique game once: all cache misses, measuring
//!    engine-bound throughput;
//! 2. **hot** — `--hot` requests sampled (seeded) from the same pool:
//!    all cache hits, measuring the served-from-cache ceiling.
//!
//! With `--targets a,b,c` the generator shards client-side: each
//! request body is pinned to `fnv1a(body) % n` so every key lands on
//! one node's cache, and the report carries per-target hit/error
//! counts. With a single `--addr` everything flows to that one
//! address (point it at a `bi-router` to exercise server-side
//! routing instead).
//!
//! Then one `POST /solve_batch` exercises the batch path, an optional
//! `--sweep-clients` pass replays the warm pool at each requested
//! concurrency level, and `GET /metrics` is scraped into the report.
//! Results land in `--out` (default `BENCH_service.json`); with
//! `--merge-section NAME` the run is written *into* the existing
//! report under that top-level key instead of replacing the file —
//! how cluster runs ride alongside the single-node sections.
//!
//! Errors are broken down per phase by cause — `429` (queue full),
//! `503` (overloaded/no backend), transport (connect/read failures),
//! other — so a smoke job can distinguish shed load from broken
//! routing. Exit status is non-zero if any request failed, if
//! `--min-hit-rate` was given and the hot phase fell below it, or if
//! `--max-hot-p50-us` was given and the hot median exceeded it.
//!
//! With `--trace`, every phase request carries a generator-minted
//! `X-Bi-Trace` id; afterwards each target's `GET /debug/trace` window
//! is scraped and folded into a per-stage latency breakdown (a text
//! table on stdout, the `trace_stages` section in the report).

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::process::exit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bi_core::solve::SolverConfig;
use bi_obs::log as olog;
use bi_service::http::{read_response, write_request, HttpClient};
use bi_service::service::{BatchRequest, SolveRequest};
use bi_service::workload::{light_workload, mixed_workload};
use bi_util::rng::{derive_seed, seeded};
use bi_util::table::TextTable;
use bi_util::{fnv1a, Encode, Json};
use rand::Rng;

const USAGE: &str = "\
bi-loadgen — seeded load generator for bi-serve / bi-router

USAGE: bi-loadgen --addr HOST:PORT [OPTIONS]
       bi-loadgen --targets HOST:PORT,... [OPTIONS]

OPTIONS:
  --addr HOST:PORT    single server (or router) address
  --targets LIST      comma-separated server addresses; requests shard
                      client-side by fnv1a(body) so each key is pinned
                      to one node, with per-target accounting
  --seed N            workload seed (default 1)
  --unique N          distinct games in the pool (default 64)
  --profile NAME      workload profile: mixed | light (default mixed)
  --hot N             hot-phase requests over the pool (default 1500)
  --clients N         concurrent client connections (default 4)
  --sweep-clients L   comma-separated concurrency levels to replay the warm
                      pool at (e.g. 4,64,256,1024); recorded as client_sweep
  --out FILE          benchmark report path (default BENCH_service.json)
  --merge-section K   merge this run under top-level key K of an existing
                      report instead of overwriting the file
  --min-hit-rate F    fail unless the hot-phase cache-hit rate reaches F
  --max-hot-p50-us N  fail if the hot-phase median latency exceeds N µs
  --trace             inject an X-Bi-Trace id per request, scrape each
                      target's /debug/trace afterwards, and print a
                      per-stage latency breakdown table
  --help              print this help
";

struct Args {
    targets: Vec<String>,
    seed: u64,
    unique: usize,
    profile: String,
    hot: usize,
    clients: usize,
    sweep_clients: Vec<usize>,
    out: String,
    merge_section: Option<String>,
    min_hit_rate: Option<f64>,
    max_hot_p50_us: Option<u64>,
    trace: bool,
}

/// Monotonic counter behind [`next_trace_id`].
static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh nonzero trace id: the generator's pid in the high half, a
/// process-wide counter in the low — distinguishable from server-minted
/// ids and unique across concurrent loadgen processes.
fn next_trace_id() -> u64 {
    let n = TRACE_SEQ.fetch_add(1, Ordering::Relaxed) + 1;
    (u64::from(std::process::id()) << 32) | (n & 0xffff_ffff)
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        targets: Vec::new(),
        seed: 1,
        unique: 64,
        profile: "mixed".into(),
        hot: 1500,
        clients: 4,
        sweep_clients: Vec::new(),
        out: "BENCH_service.json".into(),
        merge_section: None,
        min_hit_rate: None,
        max_hot_p50_us: None,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" {
            print!("{USAGE}");
            exit(0);
        }
        if flag == "--trace" {
            parsed.trace = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let num = |v: &str| -> Result<usize, String> {
            v.parse()
                .map_err(|_| format!("flag {flag} needs an integer, got `{v}`"))
        };
        match flag.as_str() {
            "--addr" => parsed.targets = vec![value],
            "--targets" => {
                parsed.targets = value
                    .split(',')
                    .map(str::trim)
                    .filter(|a| !a.is_empty())
                    .map(String::from)
                    .collect();
            }
            "--seed" => parsed.seed = num(&value)? as u64,
            "--unique" => parsed.unique = num(&value)?.max(1),
            "--profile" => {
                if value != "mixed" && value != "light" {
                    return Err(format!("--profile takes mixed|light, got `{value}`"));
                }
                parsed.profile = value;
            }
            "--hot" => parsed.hot = num(&value)?,
            "--clients" => parsed.clients = num(&value)?.max(1),
            "--sweep-clients" => {
                parsed.sweep_clients = value
                    .split(',')
                    .map(|v| num(v.trim()).map(|n| n.max(1)))
                    .collect::<Result<_, _>>()?;
            }
            "--out" => parsed.out = value,
            "--merge-section" => parsed.merge_section = Some(value),
            "--min-hit-rate" => {
                parsed.min_hit_rate = Some(
                    value
                        .parse()
                        .map_err(|_| format!("flag {flag} needs a number, got `{value}`"))?,
                );
            }
            "--max-hot-p50-us" => parsed.max_hot_p50_us = Some(num(&value)? as u64),
            other => return Err(format!("unknown flag {other} (see --help)")),
        }
    }
    if parsed.targets.is_empty() {
        return Err("--addr or --targets is required (see --help)".into());
    }
    Ok(parsed)
}

/// The client-side shard of one request body: every replay of the same
/// body lands on the same target, so each key is pinned to one node's
/// cache exactly like a server-side consistent-hash route would.
fn target_of(body: &[u8], targets: usize) -> usize {
    if targets <= 1 {
        0
    } else {
        (fnv1a(body) % targets as u64) as usize
    }
}

/// Per-target accounting within one phase.
#[derive(Clone, Copy, Default)]
struct TargetStats {
    requests: u64,
    hits: u64,
    errors: u64,
}

/// Aggregated results of one phase, with errors broken down by cause.
#[derive(Clone, Default)]
struct PhaseStats {
    latencies_us: Vec<u64>,
    hits: u64,
    misses: u64,
    errors_429: u64,
    errors_503: u64,
    errors_transport: u64,
    errors_other: u64,
    retried_429: u64,
    per_target: Vec<TargetStats>,
    seconds: f64,
}

impl PhaseStats {
    fn with_targets(targets: usize) -> PhaseStats {
        PhaseStats {
            per_target: vec![TargetStats::default(); targets],
            ..PhaseStats::default()
        }
    }

    fn requests(&self) -> usize {
        self.latencies_us.len()
    }

    fn errors(&self) -> u64 {
        self.errors_429 + self.errors_503 + self.errors_transport + self.errors_other
    }

    /// Folds one request outcome into the phase totals and the target's
    /// own row.
    fn record(&mut self, target: usize, outcome: std::io::Result<(u64, u16, bool)>) {
        let row = &mut self.per_target[target];
        row.requests += 1;
        match outcome {
            Ok((micros, status, hit)) => {
                self.latencies_us.push(micros);
                if (200..300).contains(&status) {
                    if hit {
                        self.hits += 1;
                        row.hits += 1;
                    } else {
                        self.misses += 1;
                    }
                } else {
                    row.errors += 1;
                    match status {
                        429 => self.errors_429 += 1,
                        503 => self.errors_503 += 1,
                        _ => self.errors_other += 1,
                    }
                }
            }
            Err(_) => {
                row.errors += 1;
                self.errors_transport += 1;
            }
        }
    }

    fn absorb(&mut self, other: PhaseStats) {
        self.latencies_us.extend(other.latencies_us);
        self.hits += other.hits;
        self.misses += other.misses;
        self.errors_429 += other.errors_429;
        self.errors_503 += other.errors_503;
        self.errors_transport += other.errors_transport;
        self.errors_other += other.errors_other;
        self.retried_429 += other.retried_429;
        for (mine, theirs) in self.per_target.iter_mut().zip(&other.per_target) {
            mine.requests += theirs.requests;
            mine.hits += theirs.hits;
            mine.errors += theirs.errors;
        }
    }

    fn throughput_rps(&self) -> f64 {
        if self.seconds > 0.0 {
            self.requests() as f64 / self.seconds
        } else {
            0.0
        }
    }

    fn percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    fn to_json(&self, targets: &[String]) -> Json {
        let mut doc = vec![
            ("requests".into(), Json::num(self.requests() as f64)),
            ("seconds".into(), Json::num(self.seconds)),
            ("throughput_rps".into(), Json::num(self.throughput_rps())),
            (
                "latency_us".into(),
                Json::Obj(vec![
                    ("p50".into(), Json::num(self.percentile_us(0.50) as f64)),
                    ("p90".into(), Json::num(self.percentile_us(0.90) as f64)),
                    ("p99".into(), Json::num(self.percentile_us(0.99) as f64)),
                    (
                        "max".into(),
                        Json::num(self.latencies_us.iter().copied().max().unwrap_or(0) as f64),
                    ),
                ]),
            ),
            ("cache_hits".into(), Json::from_u64(self.hits)),
            ("cache_misses".into(), Json::from_u64(self.misses)),
            ("errors".into(), Json::from_u64(self.errors())),
            (
                "errors_by_cause".into(),
                Json::Obj(vec![
                    ("status_429".into(), Json::from_u64(self.errors_429)),
                    ("retried_429".into(), Json::from_u64(self.retried_429)),
                    ("status_503".into(), Json::from_u64(self.errors_503)),
                    ("transport".into(), Json::from_u64(self.errors_transport)),
                    ("other".into(), Json::from_u64(self.errors_other)),
                ]),
            ),
        ];
        if targets.len() > 1 {
            doc.push((
                "per_target".into(),
                Json::Arr(
                    targets
                        .iter()
                        .zip(&self.per_target)
                        .map(|(addr, row)| {
                            Json::Obj(vec![
                                ("addr".into(), Json::str(addr)),
                                ("requests".into(), Json::from_u64(row.requests)),
                                ("cache_hits".into(), Json::from_u64(row.hits)),
                                ("errors".into(), Json::from_u64(row.errors)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Json::Obj(doc)
    }
}

/// Retries a 429 response grants before it counts as a terminal error.
const RETRY_429_MAX: u32 = 2;
/// Ceiling on the honored `Retry-After` sleep, so a pathological header
/// cannot stall the generator.
const RETRY_429_CAP_MS: u64 = 500;
/// Sleep before retrying a 429 that carried no `Retry-After` header.
const RETRY_429_DEFAULT_MS: u64 = 25;

/// One client thread's keep-alive connections, one slot per target,
/// connected lazily and dropped on transport error so the next request
/// reconnects fresh.
struct ClientSet<'a> {
    targets: &'a [String],
    conns: Vec<Option<HttpClient>>,
}

impl<'a> ClientSet<'a> {
    fn new(targets: &'a [String]) -> ClientSet<'a> {
        ClientSet {
            targets,
            conns: (0..targets.len()).map(|_| None).collect(),
        }
    }

    /// Pre-opens the connection to `target` (used to keep connection
    /// setup out of the timed window and sequential across clients).
    fn warm(&mut self, target: usize) -> std::io::Result<()> {
        if self.conns[target].is_none() {
            self.conns[target] = Some(HttpClient::connect(&self.targets[target])?);
        }
        Ok(())
    }

    /// One solve with shed-load handling: a 429 is retried up to
    /// [`RETRY_429_MAX`] times, honoring the server's `Retry-After`
    /// header (capped at [`RETRY_429_CAP_MS`]); each retry bumps
    /// `retried` so the report separates absorbed backpressure from
    /// terminal 429s.
    fn solve(
        &mut self,
        target: usize,
        path: &str,
        body: &[u8],
        trace: Option<u64>,
        retried: &mut u64,
    ) -> std::io::Result<(u64, u16, bool)> {
        let mut attempts_left = RETRY_429_MAX;
        loop {
            let (micros, status, hit, retry_after) = self.solve_once(target, path, body, trace)?;
            if status != 429 || attempts_left == 0 {
                return Ok((micros, status, hit));
            }
            attempts_left -= 1;
            *retried += 1;
            let wait_ms = retry_after
                .map(|secs| secs.saturating_mul(1000))
                .unwrap_or(RETRY_429_DEFAULT_MS)
                .min(RETRY_429_CAP_MS);
            std::thread::sleep(std::time::Duration::from_millis(wait_ms));
        }
    }

    /// One request to `target` (with an `X-Bi-Trace` header when
    /// `trace` is set); returns `(latency_us, status, cache_hit,
    /// retry_after_secs)`. A transport error drops the connection.
    fn solve_once(
        &mut self,
        target: usize,
        path: &str,
        body: &[u8],
        trace: Option<u64>,
    ) -> std::io::Result<(u64, u16, bool, Option<u64>)> {
        self.warm(target)?;
        let client = self.conns[target]
            .as_mut()
            .expect("connection just ensured");
        let trace_header = trace.map(|id| ("X-Bi-Trace", id.to_string()));
        let start = Instant::now();
        let response = match client.request("POST", path, body, trace_header.as_slice()) {
            Ok(response) => response,
            Err(e) => {
                self.conns[target] = None;
                return Err(e);
            }
        };
        let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let hit = response.header("x-cache") == Some("hit");
        let retry_after = response
            .header("retry-after")
            .and_then(|secs| secs.trim().parse::<u64>().ok());
        Ok((micros, response.status, hit, retry_after))
    }
}

/// Runs one phase: `schedule[c]` is client `c`'s sequence of
/// `(target, body)` requests; clients run concurrently, each with its
/// own keep-alive connection per target.
fn run_phase(
    targets: &[String],
    schedule: Vec<Vec<(usize, Arc<Vec<u8>>)>>,
    trace: bool,
) -> PhaseStats {
    let start = Instant::now();
    let per_client: Vec<PhaseStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedule
            .into_iter()
            .map(|requests| {
                scope.spawn(move || {
                    let mut stats = PhaseStats::with_targets(targets.len());
                    let mut clients = ClientSet::new(targets);
                    for (target, body) in requests {
                        let id = trace.then(next_trace_id);
                        let outcome =
                            clients.solve(target, "/solve", &body, id, &mut stats.retried_429);
                        stats.record(target, outcome);
                    }
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = PhaseStats::with_targets(targets.len());
    for stats in per_client {
        total.absorb(stats);
    }
    total.seconds = start.elapsed().as_secs_f64();
    total
}

/// Requests each sweep client fires after the barrier drops.
const SWEEP_PER_CLIENT: usize = 4;

/// Replays the warm pool at a fixed concurrency level: every connection
/// is opened (sequentially, so the listen backlog never overflows a SYN
/// burst) and stays open, then all clients fire together off a barrier.
fn run_sweep_step(
    targets: &[String],
    clients: usize,
    bodies: &[Arc<Vec<u8>>],
    seed: u64,
) -> PhaseStats {
    // Draw each client's requests first so its connections can be
    // pre-opened to exactly the targets it will hit.
    let schedules: Vec<Vec<(usize, Arc<Vec<u8>>)>> = (0..clients)
        .map(|c| {
            let mut rng = seeded(derive_seed(seed, &format!("sweep{clients}c{c}")));
            (0..SWEEP_PER_CLIENT)
                .map(|_| {
                    let body = Arc::clone(&bodies[rng.random_range(0..bodies.len())]);
                    (target_of(&body, targets.len()), body)
                })
                .collect()
        })
        .collect();
    let mut ready = Vec::with_capacity(clients);
    let mut failed = PhaseStats::with_targets(targets.len());
    for requests in schedules {
        let mut set = ClientSet::new(targets);
        let mut connected = true;
        for &(target, _) in &requests {
            if set.warm(target).is_err() {
                connected = false;
                break;
            }
        }
        if connected {
            ready.push((set, requests));
        } else {
            for (target, _) in requests {
                failed.record(target, Err(std::io::Error::other("connect failed")));
            }
        }
    }
    let barrier = std::sync::Barrier::new(ready.len());
    let start = Instant::now();
    let per_client: Vec<PhaseStats> = std::thread::scope(|scope| {
        let barrier = &barrier;
        let handles: Vec<_> = ready
            .into_iter()
            .map(|(mut set, requests)| {
                // 1,024 default-sized stacks would be wasteful; the
                // client loop needs almost none.
                std::thread::Builder::new()
                    .stack_size(256 * 1024)
                    .spawn_scoped(scope, move || {
                        barrier.wait();
                        let mut stats = PhaseStats::with_targets(set.targets.len());
                        for (target, body) in requests {
                            let outcome =
                                set.solve(target, "/solve", &body, None, &mut stats.retried_429);
                            stats.record(target, outcome);
                        }
                        stats
                    })
                    .expect("spawn sweep client")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep client panicked"))
            .collect()
    });
    let mut total = failed;
    for stats in per_client {
        total.absorb(stats);
    }
    total.seconds = start.elapsed().as_secs_f64();
    total
}

/// Writes the report: whole-file by default, or merged under one
/// top-level key of the existing report with `--merge-section`.
fn write_report(out: &str, merge_section: Option<&str>, report: Json) -> std::io::Result<()> {
    let document = match merge_section {
        None => report,
        Some(key) => {
            let mut doc = match std::fs::read_to_string(out) {
                Ok(text) => match Json::parse(&text) {
                    Ok(Json::Obj(fields)) => fields,
                    _ => Vec::new(),
                },
                Err(_) => Vec::new(),
            };
            match doc.iter_mut().find(|(k, _)| k == key) {
                Some(slot) => slot.1 = report,
                None => doc.push((key.into(), report)),
            }
            Json::Obj(doc)
        }
    };
    let mut file = std::fs::File::create(out)?;
    file.write_all(document.to_string().as_bytes())?;
    file.write_all(b"\n")
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            olog::error("bi-loadgen", "bad arguments", &[("detail", Json::str(msg))]);
            exit(2);
        }
    };
    olog::info(
        "bi-loadgen",
        "starting",
        &[
            ("targets", Json::str(args.targets.join(","))),
            ("seed", Json::from_u64(args.seed)),
            ("unique", Json::from_u64(args.unique as u64)),
            ("profile", Json::str(&args.profile)),
            ("hot", Json::from_u64(args.hot as u64)),
            ("clients", Json::from_u64(args.clients as u64)),
            ("trace", Json::Bool(args.trace)),
        ],
    );

    // Build the workload once; request bodies are shared across clients
    // and each body is pinned to its client-side shard up front.
    let games = if args.profile == "light" {
        light_workload(args.seed, args.unique)
    } else {
        mixed_workload(args.seed, args.unique)
    };
    let bodies: Vec<Arc<Vec<u8>>> = games
        .iter()
        .map(|game| {
            Arc::new(
                SolveRequest {
                    game: game.clone(),
                    config: SolverConfig::default(),
                }
                .canonical_bytes(),
            )
        })
        .collect();
    let sharded: Vec<(usize, Arc<Vec<u8>>)> = bodies
        .iter()
        .map(|body| (target_of(body, args.targets.len()), Arc::clone(body)))
        .collect();

    // Cold phase: every unique game exactly once, split across clients.
    let clients = args.clients.min(bodies.len());
    let mut cold_schedule: Vec<Vec<(usize, Arc<Vec<u8>>)>> = vec![Vec::new(); clients];
    for (i, request) in sharded.iter().enumerate() {
        cold_schedule[i % clients].push(request.clone());
    }
    let cold = run_phase(&args.targets, cold_schedule, args.trace);
    olog::info(
        "bi-loadgen",
        "cold phase done",
        &[
            ("requests", Json::from_u64(cold.requests() as u64)),
            ("seconds", Json::num(cold.seconds)),
            ("rps", Json::num(cold.throughput_rps())),
            ("errors", Json::from_u64(cold.errors())),
        ],
    );

    // Hot phase: seeded sampling over the now-cached pool.
    let hot_schedule: Vec<Vec<(usize, Arc<Vec<u8>>)>> = (0..args.clients)
        .map(|c| {
            let mut rng = seeded(derive_seed(args.seed, &format!("client{c}")));
            let count = args.hot / args.clients + usize::from(c < args.hot % args.clients);
            (0..count)
                .map(|_| sharded[rng.random_range(0..sharded.len())].clone())
                .collect()
        })
        .collect();
    let hot = run_phase(&args.targets, hot_schedule, args.trace);
    let hot_hit_rate = if hot.requests() > 0 {
        hot.hits as f64 / hot.requests() as f64
    } else {
        0.0
    };
    olog::info(
        "bi-loadgen",
        "hot phase done",
        &[
            ("requests", Json::from_u64(hot.requests() as u64)),
            ("seconds", Json::num(hot.seconds)),
            ("rps", Json::num(hot.throughput_rps())),
            ("hit_rate", Json::num(hot_hit_rate)),
            ("errors", Json::from_u64(hot.errors())),
        ],
    );

    // One batch over a slice of the pool (all cached by now). Sharded
    // like any other body: the batch lands on one node — or on the
    // router, which splits it server-side.
    let batch_games = games.iter().take(8.min(games.len())).cloned().collect();
    let batch_body = BatchRequest {
        games: batch_games,
        config: SolverConfig::default(),
    }
    .canonical_bytes();
    let batch_target = target_of(&batch_body, args.targets.len());
    let mut batch_ok = false;
    let mut batch_errors = 0u64;
    {
        let mut set = ClientSet::new(&args.targets);
        let id = args.trace.then(next_trace_id);
        let mut batch_retried = 0u64;
        match set.solve(
            batch_target,
            "/solve_batch",
            &batch_body,
            id,
            &mut batch_retried,
        ) {
            Ok((_, status, _)) => {
                batch_ok = (200..300).contains(&status);
                if !batch_ok {
                    batch_errors += 1;
                }
            }
            Err(_) => batch_errors += 1,
        }
    }

    // The scaling sweep: the pool is warm, so every request should be a
    // hit — what moves across levels is concurrency, not work.
    let mut sweep_errors = 0u64;
    let mut sweep_json = Vec::new();
    for &level in &args.sweep_clients {
        let step = run_sweep_step(&args.targets, level, &bodies, args.seed);
        let hit_rate = if step.requests() > 0 {
            step.hits as f64 / step.requests() as f64
        } else {
            0.0
        };
        olog::info(
            "bi-loadgen",
            "sweep step done",
            &[
                ("clients", Json::from_u64(level as u64)),
                ("requests", Json::from_u64(step.requests() as u64)),
                ("seconds", Json::num(step.seconds)),
                ("rps", Json::num(step.throughput_rps())),
                ("p50_us", Json::from_u64(step.percentile_us(0.50))),
                ("p99_us", Json::from_u64(step.percentile_us(0.99))),
                ("errors", Json::from_u64(step.errors())),
            ],
        );
        sweep_errors += step.errors();
        sweep_json.push(Json::Obj(vec![
            ("clients".into(), Json::num(level as f64)),
            ("requests".into(), Json::num(step.requests() as f64)),
            ("seconds".into(), Json::num(step.seconds)),
            ("throughput_rps".into(), Json::num(step.throughput_rps())),
            ("p50_us".into(), Json::num(step.percentile_us(0.50) as f64)),
            ("p99_us".into(), Json::num(step.percentile_us(0.99) as f64)),
            ("hit_rate".into(), Json::num(hit_rate)),
            ("errors".into(), Json::from_u64(step.errors())),
        ]));
    }

    // Scrape each target's own view for the report.
    let server_metrics = if args.targets.len() == 1 {
        scrape(&args.targets[0], "/metrics").unwrap_or(Json::Null)
    } else {
        Json::Arr(
            args.targets
                .iter()
                .map(|addr| {
                    Json::Obj(vec![
                        ("addr".into(), Json::str(addr)),
                        (
                            "metrics".into(),
                            scrape(addr, "/metrics").unwrap_or(Json::Null),
                        ),
                    ])
                })
                .collect(),
        )
    };

    // With --trace, scrape the span flight recorders and fold every
    // stage's spans into a breakdown table (human-readable on stdout,
    // `trace_stages` in the report).
    let trace_stages = if args.trace {
        let breakdown = stage_breakdown(&args.targets);
        let mut table = TextTable::new(vec!["stage", "spans", "mean_us", "max_us"]);
        for row in &breakdown {
            table.add_row(vec![
                row.stage.clone(),
                row.spans.to_string(),
                format!("{:.1}", row.mean_us()),
                row.max_us.to_string(),
            ]);
        }
        if table.is_empty() {
            println!("bi-loadgen: no spans in any /debug/trace dump");
        } else {
            println!("bi-loadgen: per-stage span breakdown (recent window)");
            print!("{table}");
        }
        Json::Obj(
            breakdown
                .iter()
                .map(|row| {
                    (
                        row.stage.clone(),
                        Json::Obj(vec![
                            ("spans".into(), Json::from_u64(row.spans)),
                            ("mean_us".into(), Json::num(row.mean_us())),
                            ("max_us".into(), Json::from_u64(row.max_us)),
                        ]),
                    )
                })
                .collect(),
        )
    } else {
        Json::Null
    };

    let speedup = if cold.throughput_rps() > 0.0 {
        hot.throughput_rps() / cold.throughput_rps()
    } else {
        0.0
    };
    let report = Json::Obj(vec![
        (
            "workload".into(),
            Json::Obj(vec![
                ("seed".into(), Json::from_u64(args.seed)),
                ("profile".into(), Json::str(&args.profile)),
                ("unique_games".into(), Json::num(games.len() as f64)),
                ("clients".into(), Json::num(args.clients as f64)),
                (
                    "targets".into(),
                    Json::Arr(args.targets.iter().map(Json::str).collect()),
                ),
                (
                    "total_requests".into(),
                    Json::num((cold.requests() + hot.requests() + 1) as f64),
                ),
            ]),
        ),
        ("cold".into(), cold.to_json(&args.targets)),
        ("hot".into(), hot.to_json(&args.targets)),
        ("hot_hit_rate".into(), Json::num(hot_hit_rate)),
        ("hot_over_cold_throughput".into(), Json::num(speedup)),
        ("batch_2xx".into(), Json::Bool(batch_ok)),
        ("client_sweep".into(), Json::Arr(sweep_json)),
        ("trace_stages".into(), trace_stages),
        ("server_metrics".into(), server_metrics),
    ]);
    if let Err(e) = write_report(&args.out, args.merge_section.as_deref(), report) {
        olog::error(
            "bi-loadgen",
            "cannot write report",
            &[
                ("path", Json::str(&args.out)),
                ("error", Json::str(e.to_string())),
            ],
        );
        exit(1);
    }
    println!(
        "bi-loadgen: cold {:.0} rps | hot {:.0} rps | speedup {:.1}x | hit rate {:.3} -> {}",
        cold.throughput_rps(),
        hot.throughput_rps(),
        speedup,
        hot_hit_rate,
        args.out
    );

    let total_errors = cold.errors() + hot.errors() + batch_errors + sweep_errors;
    if total_errors > 0 {
        olog::error(
            "bi-loadgen",
            "requests failed",
            &[("failed", Json::from_u64(total_errors))],
        );
        exit(1);
    }
    if let Some(min) = args.min_hit_rate {
        if hot_hit_rate < min {
            olog::error(
                "bi-loadgen",
                "hot hit rate below threshold",
                &[
                    ("hit_rate", Json::num(hot_hit_rate)),
                    ("required", Json::num(min)),
                ],
            );
            exit(1);
        }
    }
    if let Some(max) = args.max_hot_p50_us {
        let p50 = hot.percentile_us(0.50);
        if p50 > max {
            olog::error(
                "bi-loadgen",
                "hot p50 over budget",
                &[
                    ("p50_us", Json::from_u64(p50)),
                    ("allowed_us", Json::from_u64(max)),
                ],
            );
            exit(1);
        }
    }
}

/// One stage's aggregate across every scraped `/debug/trace` dump.
struct StageRow {
    stage: String,
    spans: u64,
    total_us: u64,
    max_us: u64,
}

impl StageRow {
    fn mean_us(&self) -> f64 {
        if self.spans == 0 {
            0.0
        } else {
            self.total_us as f64 / self.spans as f64
        }
    }
}

/// Scrapes `/debug/trace` from every target and folds the span windows
/// into per-stage rows, ordered by the pipeline's stage order.
fn stage_breakdown(targets: &[String]) -> Vec<StageRow> {
    let mut rows: Vec<StageRow> = Vec::new();
    for addr in targets {
        let Some(doc) = scrape(addr, "/debug/trace") else {
            olog::warn(
                "bi-loadgen",
                "debug/trace scrape failed",
                &[("addr", Json::str(addr))],
            );
            continue;
        };
        let Some(spans) = doc.get("spans").and_then(Json::as_arr) else {
            continue;
        };
        for span in spans {
            let Some(event) = bi_obs::SpanEvent::from_json(span) else {
                continue;
            };
            let micros = event.t_end_ns.saturating_sub(event.t_start_ns) / 1_000;
            let name = event.stage.name();
            let row = match rows.iter_mut().find(|r| r.stage == name) {
                Some(row) => row,
                None => {
                    rows.push(StageRow {
                        stage: name.to_string(),
                        spans: 0,
                        total_us: 0,
                        max_us: 0,
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.spans += 1;
            row.total_us += micros;
            row.max_us = row.max_us.max(micros);
        }
    }
    rows.sort_by_key(|row| {
        bi_obs::Stage::ALL
            .iter()
            .position(|s| s.name() == row.stage)
            .unwrap_or(usize::MAX)
    });
    rows
}

/// One `GET path` on a fresh `Connection: close` socket, parsed as JSON.
fn scrape(addr: &str, path: &str) -> Option<Json> {
    let mut stream = TcpStream::connect(addr).ok()?;
    write_request(&mut stream, "GET", path, b"", false, &[]).ok()?;
    let response = read_response(&mut BufReader::new(stream)).ok()?;
    Json::parse(std::str::from_utf8(&response.body).ok()?).ok()
}
