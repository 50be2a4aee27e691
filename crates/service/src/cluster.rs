//! The `bi-router` engine: consistent-hash routing of solve traffic
//! across N `bi-serve` backends.
//!
//! Every measure the engine serves is a pure function of the canonical
//! request bytes, so the content-addressed cache key
//! ([`SolveService::cache_key`]) *is* the result identity — which makes
//! horizontal sharding trivially correct: route each request to the
//! backend owning its key and that backend's cache concentrates exactly
//! its arc of the key space. The ring is a classic consistent hash with
//! 64 virtual nodes per backend over the same 64-bit space the cache
//! indexes with: keys hash with FNV-1a ([`bi_util::fnv1a`]), and each
//! virtual node's point is the FNV-1a hash of its name passed through the
//! splitmix64 finalizer ([`bi_util::hash::mix64`]), which spreads the
//! near-identical vnode names evenly, so every backend owns close to
//! `1/N` of the space.
//!
//! ```text
//!   client ──► bi-router ──hash(cache_key)──► ring ──► backend k
//!                 │                            │ backend k dead
//!                 │                            ▼
//!                 │                  clockwise successor walk
//!                 │ every backend dead
//!                 ▼
//!        fallback: local solve (X-Backend: local)
//! ```
//!
//! **Routing is deterministic**: the ring is built once from the
//! configured backend list, so the same key always maps to the same
//! backend while the live set is unchanged. Liveness is handled by
//! walking clockwise past dead backends at lookup time — ejecting a
//! backend therefore moves **only the ejected backend's arcs** (every
//! key whose first live point belonged to someone else keeps its
//! mapping), and readmission restores the original assignment exactly.
//! Both properties are locked by unit tests below.
//!
//! **Framing**: downstream requests are read with [`parse_head`], the
//! same incremental parser `bi-serve`'s reactor uses, into one reusable
//! buffer per connection (thread-per-connection, blocking sockets).
//! Pipelined requests are answered in order, and a protocol error gets
//! the same status from the router as from a backend, then a close.
//!
//! Health is probed (`GET /healthz`) on an interval; forwarding failures
//! count against the same consecutive-failure threshold, so a backend
//! that dies mid-burst is ejected by the traffic itself rather than
//! waiting for the next probe cycle. Upstream connections are pooled and
//! kept alive per backend. `/solve_batch` bodies are split by each
//! game's key, forwarded as sub-batches, and re-merged in request order.
//!
//! **Replication** (`--replication R`): each key's *intended owners* are
//! its first R distinct ring successors, liveness-blind
//! ([`HashRing::route_replicas`]). Serving still walks the live ring —
//! when the primary is dead the next live replica answers from its own
//! copy — and a background worker brings the owners back in sync over
//! `POST /cache_put`: freshly solved misses are **written through** to
//! the other live owners, and owners that were dead at serve time get a
//! **read-repair** queued until they return, so a restarted backend is
//! repopulated without re-solving anything. Responses are pure functions
//! of the canonical request bytes, which is what makes shipping them
//! byte-for-byte between replicas correct.
//!
//! **Retries**: every `/solve` gets a deadline budget. Transport
//! failures fail over to the next live replica immediately (and feed
//! ejection); retryable statuses (`429`, `5xx`) are retried across
//! replicas and rounds with capped, deterministically jittered
//! exponential backoff, honoring an upstream `Retry-After`. An exhausted
//! budget falls back to a local solve, exactly like a dead cluster.
//!
//! **Tracing**: every downstream request gets a 64-bit trace id —
//! adopted from a nonzero `X-Bi-Trace` header when present, minted
//! otherwise — and a root `route` span. The router records
//! `ring_lookup` and one `upstream` span per forward attempt into its
//! [`Recorder`], and forwards the trace id plus the upstream span id
//! (`X-Bi-Trace` / `X-Bi-Parent`) so the backend's own spans nest under
//! this hop. The local fallback engine shares the router's recorder, so
//! fallback solves land in the same `GET /debug/trace` dump.

use std::collections::{HashSet, VecDeque};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bi_obs::{Recorder, Stage, StageTimings, TraceCtx};
use bi_util::hash::mix64;
use bi_util::{fnv1a, Decode, Encode, Json};

use crate::cache::{CacheConfig, ShardedLru};
use crate::http::{parse_head, ClientResponse, Head, HttpClient, Response};
use crate::server::READ_CHUNK;
use crate::service::{error_body, BatchRequest, FastOutcome, SolveRequest, SolveService};

/// Virtual points per backend on the [`HashRing`] the router builds.
const VNODES: usize = 64;
/// Connect deadline for upstream sockets (forwarding and probing).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Response deadline for a forwarded request.
const UPSTREAM_TIMEOUT: Duration = Duration::from_secs(30);
/// Pooled keep-alive connections retained per backend.
const POOL_CAPACITY: usize = 8;
/// Pending write-through/read-repair deliveries retained; overflow is
/// dropped (and counted) rather than growing without bound.
const REPAIR_QUEUE_CAPACITY: usize = 4096;

/// A consistent-hash ring: `vnodes` virtual points per backend over the
/// 64-bit key-hash space, routing a key hash to the first live backend at
/// or clockwise after it.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// `(point, backend index)`, sorted by point; ties (64-bit point
    /// collisions across backends) keep the lowest index, so the ring is
    /// a pure function of the backend list.
    points: Vec<(u64, usize)>,
    backends: usize,
}

impl HashRing {
    /// Builds the ring for `backends` with `vnodes` virtual points each
    /// (point `v` of backend `b` is `mix64(fnv1a("vnode:{b}:{v}"))`). The
    /// [`mix64`] finalizer matters: the vnode strings differ only in their
    /// last bytes, and raw FNV-1a values of such strings cluster enough to
    /// leave one of three loopback backends under 9% of the space.
    #[must_use]
    pub fn new<S: AsRef<str>>(backends: &[S], vnodes: usize) -> HashRing {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(backends.len() * vnodes);
        for (i, backend) in backends.iter().enumerate() {
            for v in 0..vnodes {
                let point = mix64(fnv1a(format!("vnode:{}:{v}", backend.as_ref()).as_bytes()));
                points.push((point, i));
            }
        }
        points.sort_unstable();
        points.dedup_by(|a, b| a.0 == b.0);
        HashRing {
            points,
            backends: backends.len(),
        }
    }

    /// How many backends the ring was built over.
    #[must_use]
    pub fn backends(&self) -> usize {
        self.backends
    }

    /// The backend owning `hash`: the first point at or clockwise after
    /// it whose backend `live` accepts, or `None` when none does.
    /// Skipping dead backends *here* (rather than rebuilding the ring)
    /// is what makes an eject move only the ejected arcs.
    pub fn route(&self, hash: u64, live: impl Fn(usize) -> bool) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let start = self.points.partition_point(|&(p, _)| p < hash);
        let n = self.points.len();
        (0..n)
            .map(|k| self.points[(start + k) % n].1)
            .find(|&idx| live(idx))
    }

    /// The first `r` **distinct** backends at or clockwise after `hash`
    /// that `live` accepts, in ring order — the key's replica owners.
    /// `route` is exactly the first element. Returns fewer than `r`
    /// owners when fewer distinct backends qualify. Because dead
    /// backends are skipped at lookup time (never rebuilt into the
    /// ring), an eject moves only the ejected backend's arcs: every
    /// surviving owner keeps its position in every key's owner list.
    pub fn route_replicas(&self, hash: u64, r: usize, live: impl Fn(usize) -> bool) -> Vec<usize> {
        let mut owners = Vec::with_capacity(r.min(self.backends));
        if self.points.is_empty() || r == 0 {
            return owners;
        }
        let start = self.points.partition_point(|&(p, _)| p < hash);
        let n = self.points.len();
        for k in 0..n {
            let idx = self.points[(start + k) % n].1;
            if live(idx) && !owners.contains(&idx) {
                owners.push(idx);
                if owners.len() == r {
                    break;
                }
            }
        }
        owners
    }
}

/// Router addressing, ring shape, health policy, and timeouts.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Bind address; port `0` for ephemeral.
    pub addr: String,
    /// Backend `host:port` addresses the ring is built over.
    pub backends: Vec<String>,
    /// How often the prober sweeps `/healthz` across backends.
    pub probe_interval: Duration,
    /// Consecutive failures (probe or forward) that eject a backend.
    pub fail_threshold: u32,
    /// Idle keep-alive timeout for downstream client connections.
    pub read_timeout: Duration,
    /// When set, any request whose end-to-end routing time reaches this
    /// many microseconds gets its span tree logged at `warn`.
    pub trace_slow_us: Option<u64>,
    /// Replica owners per key (clamped to ≥ 1). At `1` the router
    /// shards exactly as before (plus read-repair after a failover); at
    /// `R` each solved result is written through to all `R` owners, so
    /// killing any single backend loses no cached work.
    pub replication: usize,
    /// Total deadline budget per `/solve`: retries and backoff sleeps
    /// stop once it is spent and the request is solved locally.
    pub request_deadline: Duration,
    /// First-round retry backoff (doubled per round, deterministically
    /// jittered, capped by `retry_max_backoff`).
    pub retry_base_backoff: Duration,
    /// Backoff ceiling across retry rounds.
    pub retry_max_backoff: Duration,
    /// Retry rounds per `/solve` (clamped to ≥ 1): each round walks
    /// every live replica once; later rounds re-try backends that
    /// answered a retryable status (`429`/`5xx`) earlier.
    pub max_retry_rounds: u32,
}

impl Default for RouterConfig {
    /// Ephemeral port, no backends, 500 ms probes, 2-failure ejection.
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends: Vec::new(),
            probe_interval: Duration::from_millis(500),
            fail_threshold: 2,
            read_timeout: Duration::from_secs(10),
            trace_slow_us: None,
            replication: 1,
            request_deadline: Duration::from_secs(30),
            retry_base_backoff: Duration::from_millis(10),
            retry_max_backoff: Duration::from_millis(500),
            max_retry_rounds: 3,
        }
    }
}

/// One upstream backend: liveness, failure accounting, and the
/// keep-alive connection pool.
struct Backend {
    addr: String,
    alive: AtomicBool,
    consecutive_failures: AtomicU64,
    pool: Mutex<Vec<HttpClient>>,
    forwarded: AtomicU64,
    upstream_errors: AtomicU64,
    ejects: AtomicU64,
    readmits: AtomicU64,
    /// Milliseconds since router start of the last `/healthz` probe
    /// (`u64::MAX` until the first probe lands) — surfaced by the
    /// router's aggregated `/healthz`.
    last_probe_ms: AtomicU64,
}

impl Backend {
    fn new(addr: String) -> Backend {
        Backend {
            addr,
            alive: AtomicBool::new(true),
            consecutive_failures: AtomicU64::new(0),
            pool: Mutex::new(Vec::new()),
            forwarded: AtomicU64::new(0),
            upstream_errors: AtomicU64::new(0),
            ejects: AtomicU64::new(0),
            readmits: AtomicU64::new(0),
            last_probe_ms: AtomicU64::new(u64::MAX),
        }
    }

    /// A successful probe or forward: clears the failure streak and
    /// readmits the backend if it was ejected.
    fn record_success(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        if !self.alive.swap(true, Ordering::Relaxed) {
            self.readmits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A failed probe or forward: ejects at the threshold. Forwarding
    /// failures land here too, so a backend killed mid-burst is ejected
    /// by the very traffic that notices, not the next probe cycle.
    fn record_failure(&self, threshold: u32) {
        let failures = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if failures >= u64::from(threshold) && self.alive.swap(false, Ordering::Relaxed) {
            self.ejects.fetch_add(1, Ordering::Relaxed);
            // A dead backend's pooled connections are dead too.
            self.pool.lock().expect("pool poisoned").clear();
        }
    }
}

/// The router's own counters (`GET /metrics`).
#[derive(Default)]
struct RouterMetrics {
    requests_total: AtomicU64,
    solve_requests: AtomicU64,
    batch_requests: AtomicU64,
    connections_total: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    fallback_local: AtomicU64,
    /// Forward attempts that failed at the transport (connect/read) —
    /// these feed ejection and fail over to the next replica.
    retries_transport: AtomicU64,
    /// Forward attempts answered a retryable `5xx` (the backend is
    /// alive; the work was lost — retried without ejection credit).
    retries_5xx: AtomicU64,
    /// Forward attempts answered `429` (shed load; retried after the
    /// upstream's `Retry-After` when present).
    retries_429: AtomicU64,
    /// Write-through `cache_put` deliveries to owners that were live
    /// when the result was solved.
    replication_writes: AtomicU64,
    /// Read-repair `cache_put` deliveries to owners that were dead at
    /// serve time and have since returned.
    read_repairs: AtomicU64,
    /// Repair jobs dropped (queue overflow or delivery given up).
    repair_drops: AtomicU64,
    /// Per-stage latency histograms (`route`, `ring_lookup`,
    /// `upstream`, …) — fed on every request regardless of tracing.
    stages: StageTimings,
}

impl RouterMetrics {
    fn record_status(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// One pending `POST /cache_put` delivery: bring `backend` a copy of
/// the response for the key hashing to `hash`.
struct RepairJob {
    backend: usize,
    hash: u64,
    /// The framed `cache_put` body (`[request_len][request][response]`).
    body: Vec<u8>,
    /// `true` when the owner was dead at serve time (a read-repair);
    /// `false` for a write-through to a live owner.
    repair: bool,
    /// Delivery attempts so far (given up — and counted dropped — at
    /// [`REPAIR_MAX_ATTEMPTS`]).
    attempts: u32,
}

/// The bounded write-through/read-repair delivery queue, deduplicated
/// by `(backend, key hash)` so a hot key enqueues at most one pending
/// delivery per owner.
#[derive(Default)]
struct RepairQueue {
    jobs: VecDeque<RepairJob>,
    pending: HashSet<(usize, u64)>,
}

/// Delivery attempts before a repair job is dropped (the target keeps
/// refusing while nominally alive).
const REPAIR_MAX_ATTEMPTS: u32 = 64;

/// Everything the accept loop, connection threads, and prober share.
struct Shared {
    config: RouterConfig,
    ring: HashRing,
    backends: Vec<Backend>,
    metrics: RouterMetrics,
    /// Exact canonical body bytes → routing hash (skips re-decode).
    key_cache: ShardedLru<u64>,
    /// The local-solve fallback engine (shares `recorder`): answers
    /// whatever no live backend can.
    local: SolveService,
    /// The span flight recorder behind `GET /debug/trace`.
    recorder: Arc<Recorder>,
    /// Pending replica deliveries, drained by the repair worker.
    repair: Mutex<RepairQueue>,
    /// Router start time — the epoch of `last_probe_ms`.
    started: Instant,
    shutdown: AtomicBool,
}

/// A bound (but not yet serving) router.
pub struct Router {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Router {
    /// Binds the listener and builds the ring over `config.backends`.
    ///
    /// # Errors
    ///
    /// Returns the bind failure.
    pub fn bind(config: RouterConfig) -> io::Result<Router> {
        let listener = TcpListener::bind(&config.addr)?;
        let ring = HashRing::new(&config.backends, VNODES);
        let backends = config.backends.iter().cloned().map(Backend::new).collect();
        // The body-bytes → routing-hash cache (skips re-decoding hot
        // canonical bodies) and the local fallback engine, default-sized.
        let key_cache = ShardedLru::new(CacheConfig::default());
        let recorder = Arc::new(Recorder::default());
        let shared = Arc::new(Shared {
            ring,
            backends,
            metrics: RouterMetrics::default(),
            key_cache,
            local: SolveService::with_recorder(CacheConfig::default(), None, Arc::clone(&recorder)),
            recorder,
            repair: Mutex::new(RepairQueue::default()),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            config,
        });
        Ok(Router { listener, shared })
    }

    /// The actually bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the OS query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the accept loop and health prober; returns the stop handle.
    ///
    /// # Errors
    ///
    /// Propagates socket setup failures.
    pub fn start(self) -> io::Result<RouterHandle> {
        let addr = self.local_addr()?;
        self.listener.set_nonblocking(true)?;
        let accept = {
            let shared = Arc::clone(&self.shared);
            let listener = self.listener;
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        let prober = {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || probe_loop(&shared))
        };
        let repairer = {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || repair_loop(&shared))
        };
        Ok(RouterHandle {
            addr,
            shared: self.shared,
            accept: Some(accept),
            prober: Some(prober),
            repairer: Some(repairer),
        })
    }

    /// Binds-and-routes forever (the `bi-router` binary's main loop).
    ///
    /// # Errors
    ///
    /// Propagates startup failures; never returns otherwise.
    pub fn run(self) -> io::Result<()> {
        let handle = self.start()?;
        if let Some(accept) = handle.accept {
            let _ = accept.join();
        }
        Ok(())
    }
}

/// A running router: address plus the stop switch.
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
    repairer: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The routing address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The `GET /metrics` document (for asserting in tests without a
    /// socket round-trip).
    #[must_use]
    pub fn metrics_json(&self) -> Json {
        metrics_json(&self.shared)
    }

    /// Stops the accept loop and prober, joining every thread (open
    /// connection handlers included).
    pub fn stop(mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
        if let Some(repairer) = self.repairer.take() {
            let _ = repairer.join();
        }
    }
}

/// Accepts connections until shutdown, one handler thread each.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                shared
                    .metrics
                    .connections_total
                    .fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                handlers.push(std::thread::spawn(move || handle_conn(&stream, &shared)));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                handlers.retain(|h| !h.is_finished());
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    for handler in handlers {
        let _ = handler.join();
    }
}

/// One downstream connection: frame requests with [`parse_head`] in one
/// reusable buffer, answer each in order (pipelined ones included),
/// until the idle timeout, EOF, a protocol error, or shutdown.
fn handle_conn(stream: &TcpStream, shared: &Shared) {
    // One read timeout for the connection's life: short, so a blocked
    // read wakes to check shutdown and the idle deadline.
    let poll = Duration::from_millis(100).min(shared.config.read_timeout);
    if stream.set_nonblocking(false).is_err()
        || stream.set_nodelay(true).is_err()
        || stream.set_read_timeout(Some(poll)).is_err()
    {
        return;
    }
    let mut buf: Vec<u8> = Vec::with_capacity(READ_CHUNK);
    let mut chunk = [0u8; READ_CHUNK];
    let mut last_activity = Instant::now();
    loop {
        // Answer every complete request already buffered before reading
        // again.
        loop {
            let head = match parse_head(&buf) {
                Ok(Some(head)) if buf.len() >= head.total_len() => head,
                Ok(_) => break, // head or body still in flight
                Err(e) => {
                    // Protocol errors poison framing: answer and close.
                    shared.metrics.record_status(e.status);
                    let response = Response::json(e.status, error_body(&e.msg));
                    let _ = response.write(&mut &*stream, false);
                    return;
                }
            };
            if !serve_request(stream, shared, &buf, &head) {
                return;
            }
            buf.drain(..head.total_len());
            last_activity = Instant::now();
        }
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match (&mut &*stream).read(&mut chunk) {
            Ok(0) => return, // EOF
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                last_activity = Instant::now();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if last_activity.elapsed() > shared.config.read_timeout {
                    return; // idle (or stalled mid-request) too long
                }
            }
            Err(_) => return,
        }
    }
}

/// Answers the complete request `head` frames at the front of `buf`;
/// returns whether the connection stays open.
fn serve_request(stream: &TcpStream, shared: &Shared, buf: &[u8], head: &Head) -> bool {
    shared
        .metrics
        .requests_total
        .fetch_add(1, Ordering::Relaxed);
    // Adopt the caller's trace id (mint one otherwise) and pre-allocate
    // the root `route` span so the stages recorded below parent under it.
    let t_start = shared.recorder.now_ns();
    let trace_id = head
        .trace_id
        .unwrap_or_else(|| shared.recorder.new_trace_id());
    let root = shared.recorder.next_span_id();
    let ctx = TraceCtx {
        trace_id,
        parent: root,
    };
    let body = &buf[head.head_len..head.total_len()];
    let response = match (&buf[head.method.clone()], &buf[head.path.clone()]) {
        (b"POST", b"/solve") => handle_solve(shared, body, ctx),
        (b"POST", b"/solve_batch") => handle_batch(shared, body, ctx),
        (b"GET", b"/healthz") => Response::json(200, healthz_json(shared).canonical_bytes()),
        (b"GET", b"/metrics") => Response::json(200, metrics_json(shared).to_string().into_bytes()),
        (b"GET", b"/debug/trace") => {
            Response::json(200, shared.recorder.to_json().to_string().into_bytes())
        }
        (_, b"/solve" | b"/solve_batch" | b"/healthz" | b"/metrics" | b"/debug/trace") => {
            Response::json(405, error_body("method not allowed"))
        }
        _ => Response::json(404, error_body("unknown endpoint")),
    };
    shared.metrics.record_status(response.status);
    let written = response.write(&mut &*stream, head.keep_alive).is_ok();
    // Close the root `route` span (response write included).
    let now = shared.recorder.now_ns();
    let total_us = now.saturating_sub(t_start) / 1_000;
    shared.metrics.stages.record(Stage::Route, total_us);
    shared.recorder.record_span(
        root,
        trace_id,
        head.parent_span.unwrap_or(0),
        Stage::Route,
        t_start,
        now,
    );
    bi_obs::log::slow_request(
        "bi-router",
        &shared.recorder,
        shared.config.trace_slow_us,
        trace_id,
        total_us,
    );
    written && head.keep_alive
}

/// The routing hash of a `/solve` body: the FNV-1a of its canonical
/// cache key. Canonical bodies consult (and warm) the body-bytes →
/// hash cache so hot traffic skips the JSON decode entirely.
fn routing_hash(shared: &Shared, body: &[u8]) -> Result<u64, Response> {
    let canonical = bi_util::json::canon_check(body);
    if canonical {
        if let Some(hash) = shared.key_cache.get(body) {
            return Ok(hash);
        }
    }
    let text = std::str::from_utf8(body)
        .map_err(|_| Response::json(400, error_body("request body is not valid UTF-8")))?;
    let request = SolveRequest::decode_str(text)
        .map_err(|e| Response::json(400, error_body(&e.to_string())))?;
    let key = SolveService::cache_key(&request.game, &request.config);
    let hash = fnv1a(&key);
    if canonical {
        shared.key_cache.insert(body, hash);
    }
    Ok(hash)
}

/// The router's aggregated `GET /healthz`: overall status plus one row
/// per backend with liveness, ejection/readmission counts, the failure
/// streak, and probe recency — canonical JSON, so two routers over the
/// same cluster state answer byte-identically (modulo probe timing).
fn healthz_json(shared: &Shared) -> Json {
    let now_ms = u64::try_from(shared.started.elapsed().as_millis()).unwrap_or(u64::MAX);
    let mut live = 0u64;
    let rows: Vec<Json> = shared
        .backends
        .iter()
        .map(|b| {
            let alive = b.alive.load(Ordering::Relaxed);
            live += u64::from(alive);
            let last_probe = b.last_probe_ms.load(Ordering::Relaxed);
            Json::Obj(vec![
                ("addr".into(), Json::str(b.addr.clone())),
                ("alive".into(), Json::Bool(alive)),
                ("ejected".into(), Json::Bool(!alive)),
                (
                    "consecutive_failures".into(),
                    Json::from_u64(b.consecutive_failures.load(Ordering::Relaxed)),
                ),
                (
                    "ejects".into(),
                    Json::from_u64(b.ejects.load(Ordering::Relaxed)),
                ),
                (
                    "readmits".into(),
                    Json::from_u64(b.readmits.load(Ordering::Relaxed)),
                ),
                (
                    "last_probe_ms_ago".into(),
                    if last_probe == u64::MAX {
                        Json::Null
                    } else {
                        Json::from_u64(now_ms.saturating_sub(last_probe))
                    },
                ),
            ])
        })
        .collect();
    let status = if shared.backends.is_empty() || live > 0 {
        "ok"
    } else {
        "degraded"
    };
    Json::Obj(vec![
        ("status".into(), Json::str(status)),
        ("live_backends".into(), Json::from_u64(live)),
        (
            "replication".into(),
            Json::from_u64(shared.config.replication.max(1) as u64),
        ),
        ("backends".into(), Json::Arr(rows)),
    ])
}

/// Records `stage` ending now: histogram always, a span event only when
/// the request carries an active trace.
fn finish_stage(shared: &Shared, ctx: TraceCtx, stage: Stage, t0: u64) {
    let t1 = shared.recorder.now_ns();
    shared
        .metrics
        .stages
        .record(stage, t1.saturating_sub(t0) / 1_000);
    if ctx.active() {
        shared
            .recorder
            .record(ctx.trace_id, ctx.parent, stage, t0, t1);
    }
}

/// A status the router retries on another replica (or a later round)
/// instead of returning: the backend answered — it is alive and earns no
/// ejection credit — but the work was shed (`429`) or lost (`5xx`).
fn retryable_status(status: u16) -> bool {
    matches!(status, 429 | 500 | 502..=504)
}

/// The sleep before retry round `round + 1`: exponential in the round,
/// capped, with deterministic jitter in `[cap/2, cap]` drawn from the
/// key hash — two routers never thundering-herd the same backend on the
/// same schedule, yet a rerun of the same traffic backs off identically.
fn retry_backoff(config: &RouterConfig, hash: u64, round: u32) -> Duration {
    let base = u64::try_from(config.retry_base_backoff.as_millis().max(1)).unwrap_or(u64::MAX);
    let cap = u64::try_from(config.retry_max_backoff.as_millis().max(1)).unwrap_or(u64::MAX);
    let exp = base.saturating_mul(1u64 << round.min(16)).min(cap).max(1);
    let mut seed = [0u8; 16];
    seed[..8].copy_from_slice(&hash.to_le_bytes());
    seed[8..].copy_from_slice(&u64::from(round).to_le_bytes());
    Duration::from_millis(exp / 2 + fnv1a(&seed) % (exp / 2 + 1))
}

/// Routes one `/solve` body under a deadline budget: forward to the
/// key's backend, failing over clockwise on transport errors (each
/// feeds the ejection counter), retrying retryable statuses across
/// replicas and rounds with capped jittered backoff (honoring upstream
/// `Retry-After`), then falling back to a local solve. A served
/// `200` schedules write-through/read-repair to the key's other
/// intended owners.
fn handle_solve(shared: &Shared, body: &[u8], ctx: TraceCtx) -> Response {
    shared
        .metrics
        .solve_requests
        .fetch_add(1, Ordering::Relaxed);
    let t_lookup = shared.recorder.now_ns();
    let hash = match routing_hash(shared, body) {
        Ok(hash) => hash,
        Err(response) => return response,
    };
    finish_stage(shared, ctx, Stage::RingLookup, t_lookup);
    // The key's intended owners, liveness-blind: where its value should
    // live. The serve walk below skips dead backends; `schedule_repairs`
    // reconciles the difference after a successful serve.
    let owners = shared
        .ring
        .route_replicas(hash, shared.config.replication.max(1), |_| true);
    let deadline = Instant::now() + shared.config.request_deadline;
    let mut retry_hint: Option<Duration> = None;
    for round in 0..shared.config.max_retry_rounds.max(1) {
        let mut tried = vec![false; shared.backends.len()];
        let mut attempted = false;
        while let Some(idx) = shared.ring.route(hash, |i| {
            !tried[i] && shared.backends[i].alive.load(Ordering::Relaxed)
        }) {
            tried[idx] = true;
            attempted = true;
            let backend = &shared.backends[idx];
            match forward(shared, idx, "/solve", body, ctx) {
                Ok(upstream) if retryable_status(upstream.status) => {
                    backend.record_success();
                    let cause = if upstream.status == 429 {
                        &shared.metrics.retries_429
                    } else {
                        &shared.metrics.retries_5xx
                    };
                    cause.fetch_add(1, Ordering::Relaxed);
                    retry_hint = upstream
                        .header("retry-after")
                        .and_then(|v| v.parse::<u64>().ok())
                        .map(Duration::from_secs)
                        .or(retry_hint);
                }
                Ok(upstream) => {
                    backend.record_success();
                    backend.forwarded.fetch_add(1, Ordering::Relaxed);
                    let cache = upstream.header("x-cache").map(str::to_string);
                    if upstream.status == 200 {
                        schedule_repairs(
                            shared,
                            &owners,
                            Some(idx),
                            hash,
                            body,
                            &upstream.body,
                            cache.as_deref() == Some("miss"),
                        );
                    }
                    let mut response = Response::json(upstream.status, upstream.body)
                        .with_header("X-Backend", backend.addr.clone());
                    if let Some(cache) = cache {
                        response = response.with_header("X-Cache", cache);
                    }
                    return response;
                }
                Err(_) => {
                    shared
                        .metrics
                        .retries_transport
                        .fetch_add(1, Ordering::Relaxed);
                    backend.upstream_errors.fetch_add(1, Ordering::Relaxed);
                    backend.record_failure(shared.config.fail_threshold);
                }
            }
        }
        if !attempted || round + 1 >= shared.config.max_retry_rounds.max(1) {
            break; // nobody live, or rounds exhausted
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break; // deadline budget spent
        }
        let wait = retry_hint
            .take()
            .unwrap_or_else(|| retry_backoff(&shared.config, hash, round));
        std::thread::sleep(wait.min(remaining));
    }
    let response = fallback_solve(shared, body, ctx);
    if response.status == 200 {
        // A local fallback solve is still a solved result: bring the
        // (currently dead or overloaded) owners a copy for when they
        // return.
        schedule_repairs(shared, &owners, None, hash, body, &response.body, true);
    }
    response
}

/// Queues `POST /cache_put` deliveries reconciling a just-served `200`
/// with the key's intended owners: write-through of fresh misses to
/// live owners that did not serve it, read-repair to dead owners so a
/// returning backend is repopulated without re-solving. Live owners are
/// skipped on cache hits (steady state — they were written through when
/// the result was first solved). Deduplicated by `(owner, key hash)`
/// and bounded; overflow is dropped and counted.
fn schedule_repairs(
    shared: &Shared,
    owners: &[usize],
    served_by: Option<usize>,
    hash: u64,
    request: &[u8],
    response: &[u8],
    miss: bool,
) {
    let Ok(request_len) = u32::try_from(request.len()) else {
        return;
    };
    for &owner in owners {
        if Some(owner) == served_by {
            continue;
        }
        let owner_alive = shared.backends[owner].alive.load(Ordering::Relaxed);
        if owner_alive && !miss {
            continue;
        }
        let mut queue = shared.repair.lock().expect("repair queue poisoned");
        if !queue.pending.insert((owner, hash)) {
            continue; // a delivery for this (owner, key) is already queued
        }
        if queue.jobs.len() >= REPAIR_QUEUE_CAPACITY {
            queue.pending.remove(&(owner, hash));
            shared.metrics.repair_drops.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let mut framed = Vec::with_capacity(4 + request.len() + response.len());
        framed.extend_from_slice(&request_len.to_le_bytes());
        framed.extend_from_slice(request);
        framed.extend_from_slice(response);
        queue.jobs.push_back(RepairJob {
            backend: owner,
            hash,
            body: framed,
            repair: !owner_alive,
            attempts: 0,
        });
    }
}

/// The repair worker: drains queued deliveries, holding jobs whose
/// target is still ejected (re-queued until the prober readmits it —
/// that is what repopulates a restarted backend), and giving up on jobs
/// a live target keeps refusing.
fn repair_loop(shared: &Shared) {
    while !shared.shutdown.load(Ordering::Relaxed) {
        let job = shared
            .repair
            .lock()
            .expect("repair queue poisoned")
            .jobs
            .pop_front();
        let Some(mut job) = job else {
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        if !shared.backends[job.backend].alive.load(Ordering::Relaxed) {
            // The target is ejected: hold the job for its return.
            shared
                .repair
                .lock()
                .expect("repair queue poisoned")
                .jobs
                .push_back(job);
            std::thread::sleep(Duration::from_millis(20));
            continue;
        }
        match send(shared, job.backend, "/cache_put", &job.body, &[]) {
            Ok(response) if response.status == 200 => {
                shared
                    .repair
                    .lock()
                    .expect("repair queue poisoned")
                    .pending
                    .remove(&(job.backend, job.hash));
                let counter = if job.repair {
                    &shared.metrics.read_repairs
                } else {
                    &shared.metrics.replication_writes
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                job.attempts += 1;
                let mut queue = shared.repair.lock().expect("repair queue poisoned");
                if job.attempts >= REPAIR_MAX_ATTEMPTS {
                    queue.pending.remove(&(job.backend, job.hash));
                    shared.metrics.repair_drops.fetch_add(1, Ordering::Relaxed);
                } else {
                    queue.jobs.push_back(job);
                }
                drop(queue);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Forwards one request to backend `idx` as an `upstream` span of `ctx`:
/// the span id is minted up front so it rides the `X-Bi-Trace` /
/// `X-Bi-Parent` headers as the backend's parent, and the hop feeds the
/// `upstream` histogram whether or not the request is traced.
fn forward(
    shared: &Shared,
    idx: usize,
    path: &str,
    body: &[u8],
    ctx: TraceCtx,
) -> io::Result<ClientResponse> {
    let span = shared.recorder.next_span_id();
    let headers = if ctx.active() {
        vec![
            ("X-Bi-Trace", ctx.trace_id.to_string()),
            ("X-Bi-Parent", span.to_string()),
        ]
    } else {
        Vec::new()
    };
    let t0 = shared.recorder.now_ns();
    let outcome = send(shared, idx, path, body, &headers);
    let t1 = shared.recorder.now_ns();
    shared
        .metrics
        .stages
        .record(Stage::Upstream, t1.saturating_sub(t0) / 1_000);
    if ctx.active() {
        shared
            .recorder
            .record_span(span, ctx.trace_id, ctx.parent, Stage::Upstream, t0, t1);
    }
    outcome
}

/// Sends one request to backend `idx` over a pooled connection,
/// retrying once on a fresh socket (a pooled connection may have idled
/// out on the backend side between bursts).
fn send(
    shared: &Shared,
    idx: usize,
    path: &str,
    body: &[u8],
    extra: &[(&str, String)],
) -> io::Result<ClientResponse> {
    let backend = &shared.backends[idx];
    let pooled = backend.pool.lock().expect("pool poisoned").pop();
    if let Some(mut client) = pooled {
        if let Ok(response) = client.request_with("POST", path, body, extra) {
            release(shared, idx, client);
            return Ok(response);
        }
        // Stale pooled socket: drop it and retry on a fresh connection.
    }
    let mut client = HttpClient::connect_timeout(&backend.addr, CONNECT_TIMEOUT)?;
    client.set_read_timeout(Some(UPSTREAM_TIMEOUT))?;
    let response = client.request_with("POST", path, body, extra)?;
    release(shared, idx, client);
    Ok(response)
}

/// Returns a healthy connection to backend `idx`'s pool (dropped when
/// the pool is full).
fn release(shared: &Shared, idx: usize, client: HttpClient) {
    let mut pool = shared.backends[idx].pool.lock().expect("pool poisoned");
    if pool.len() < POOL_CAPACITY {
        pool.push(client);
    }
}

/// Answers a `/solve` when no live backend is left: the router embeds a
/// full [`SolveService`], so a dead cluster costs latency, not
/// availability. The local engine shares the router's recorder, so its
/// `cache`/`solve`/`encode` spans land in the same trace as the routing
/// stages.
fn fallback_solve(shared: &Shared, body: &[u8], ctx: TraceCtx) -> Response {
    shared
        .metrics
        .fallback_local
        .fetch_add(1, Ordering::Relaxed);
    let served = match shared.local.try_serve_fast(body, ctx) {
        Ok(FastOutcome::Hit(served)) => served,
        Ok(FastOutcome::Miss(prepared)) => match shared.local.complete_solve(*prepared) {
            Ok(served) => served,
            Err(e) => return Response::json(422, error_body(&e.to_string())),
        },
        Err(e) => return Response::json(400, error_body(&e.to_string())),
    };
    Response::json(200, served.body.to_vec())
        .with_header("X-Cache", if served.cache_hit { "hit" } else { "miss" })
        .with_header("X-Backend", "local")
}

/// Splits a `/solve_batch` by each game's cache key, forwards the
/// sub-batches, and re-merges the reports in request order. A sub-batch
/// whose backend fails (transport or non-200) falls back whole; a batch
/// answered entirely locally carries `X-Backend: local`.
fn handle_batch(shared: &Shared, body: &[u8], ctx: TraceCtx) -> Response {
    shared
        .metrics
        .batch_requests
        .fetch_add(1, Ordering::Relaxed);
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return Response::json(400, error_body("request body is not valid UTF-8")),
    };
    let batch = match BatchRequest::decode_str(text) {
        Ok(batch) => batch,
        Err(e) => return Response::json(400, error_body(&e.to_string())),
    };
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); shared.backends.len()];
    let mut unrouted: Vec<usize> = Vec::new();
    for (i, game) in batch.games.iter().enumerate() {
        let key = SolveService::cache_key(game, &batch.config);
        match shared.ring.route(fnv1a(&key), |b| {
            shared.backends[b].alive.load(Ordering::Relaxed)
        }) {
            Some(idx) => groups[idx].push(i),
            None => unrouted.push(i),
        }
    }
    let mut merged: Vec<Option<Json>> = batch.games.iter().map(|_| None).collect();
    for (idx, group) in groups.iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        let sub = BatchRequest {
            games: group.iter().map(|&i| batch.games[i].clone()).collect(),
            config: batch.config,
        };
        let sub_body = sub.encode().canonical_bytes();
        let backend = &shared.backends[idx];
        match forward(shared, idx, "/solve_batch", &sub_body, ctx) {
            Ok(upstream) if upstream.status == 200 => {
                backend.record_success();
                backend.forwarded.fetch_add(1, Ordering::Relaxed);
                match split_reports(&upstream.body, group.len()) {
                    Some(reports) => {
                        for (&orig, report) in group.iter().zip(reports) {
                            merged[orig] = Some(report);
                        }
                        continue;
                    }
                    None => {
                        backend.upstream_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Ok(_) => {
                // The backend answered but refused (429/5xx): not a
                // liveness failure, but the games still need answers.
                backend.upstream_errors.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                backend.upstream_errors.fetch_add(1, Ordering::Relaxed);
                backend.record_failure(shared.config.fail_threshold);
            }
        }
        unrouted.extend_from_slice(group);
    }
    let all_local = !batch.games.is_empty() && unrouted.len() == batch.games.len();
    if !unrouted.is_empty() {
        fallback_batch(shared, &batch, &unrouted, &mut merged);
    }
    let reports: Vec<Json> = merged
        .into_iter()
        .map(|r| r.expect("every game is routed, merged, or fallen back"))
        .collect();
    let response = Response::json(
        200,
        Json::Obj(vec![("reports".into(), Json::Arr(reports))]).canonical_bytes(),
    );
    // Mark a batch the router answered entirely by itself, as `/solve`
    // marks a local solve.
    if all_local {
        response.with_header("X-Backend", "local")
    } else {
        response
    }
}

/// Parses an upstream `/solve_batch` body into its per-game report
/// values; `None` when the shape (or count) is wrong.
fn split_reports(body: &[u8], expected: usize) -> Option<Vec<Json>> {
    let text = std::str::from_utf8(body).ok()?;
    let doc = Json::parse(text).ok()?;
    let reports = doc.get("reports")?.as_arr()?;
    (reports.len() == expected).then(|| reports.to_vec())
}

/// Answers the still-unanswered games of a batch locally.
fn fallback_batch(
    shared: &Shared,
    batch: &BatchRequest,
    pending: &[usize],
    merged: &mut [Option<Json>],
) {
    shared
        .metrics
        .fallback_local
        .fetch_add(1, Ordering::Relaxed);
    let sub = BatchRequest {
        games: pending.iter().map(|&i| batch.games[i].clone()).collect(),
        config: batch.config,
    };
    let results = shared.local.solve_batch(&sub);
    for (&orig, result) in pending.iter().zip(results) {
        merged[orig] = Some(match result {
            Ok(outcome) => {
                let text = std::str::from_utf8(&outcome.body).expect("canonical JSON is UTF-8");
                Json::Obj(vec![(
                    "report".into(),
                    Json::parse(text).expect("cached bodies are valid JSON"),
                )])
            }
            Err(e) => Json::Obj(vec![("error".into(), Json::str(e.to_string()))]),
        });
    }
}

/// Probes every backend's `/healthz` on the configured interval.
fn probe_loop(shared: &Shared) {
    while !shared.shutdown.load(Ordering::Relaxed) {
        for backend in &shared.backends {
            if shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            if probe(backend) {
                backend.record_success();
            } else {
                backend.record_failure(shared.config.fail_threshold);
            }
            backend.last_probe_ms.store(
                u64::try_from(shared.started.elapsed().as_millis()).unwrap_or(u64::MAX),
                Ordering::Relaxed,
            );
        }
        let deadline = Instant::now() + shared.config.probe_interval;
        while Instant::now() < deadline {
            if shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// One `/healthz` round-trip on a fresh connection.
fn probe(backend: &Backend) -> bool {
    let Ok(mut client) = HttpClient::connect_timeout(&backend.addr, CONNECT_TIMEOUT) else {
        return false;
    };
    if client.set_read_timeout(Some(CONNECT_TIMEOUT)).is_err() {
        return false;
    }
    client
        .request("GET", "/healthz", b"")
        .is_ok_and(|response| response.status == 200)
}

/// The router's `GET /metrics` document, per-backend array included.
fn metrics_json(shared: &Shared) -> Json {
    let load = |a: &AtomicU64| Json::from_u64(a.load(Ordering::Relaxed));
    let key_cache = shared.key_cache.stats();
    let backends: Vec<Json> = shared
        .backends
        .iter()
        .map(|b| {
            Json::Obj(vec![
                ("addr".into(), Json::str(b.addr.clone())),
                ("alive".into(), Json::Bool(b.alive.load(Ordering::Relaxed))),
                ("consecutive_failures".into(), load(&b.consecutive_failures)),
                ("forwarded".into(), load(&b.forwarded)),
                ("upstream_errors".into(), load(&b.upstream_errors)),
                ("ejects".into(), load(&b.ejects)),
                ("readmits".into(), load(&b.readmits)),
                (
                    "pooled_connections".into(),
                    Json::from_u64(b.pool.lock().expect("pool poisoned").len() as u64),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "requests_total".into(),
            load(&shared.metrics.requests_total),
        ),
        (
            "solve_requests".into(),
            load(&shared.metrics.solve_requests),
        ),
        (
            "batch_requests".into(),
            load(&shared.metrics.batch_requests),
        ),
        (
            "connections_total".into(),
            load(&shared.metrics.connections_total),
        ),
        (
            "responses".into(),
            Json::Obj(vec![
                ("status_2xx".into(), load(&shared.metrics.responses_2xx)),
                ("status_4xx".into(), load(&shared.metrics.responses_4xx)),
                ("status_5xx".into(), load(&shared.metrics.responses_5xx)),
            ]),
        ),
        (
            "fallback".into(),
            Json::Obj(vec![(
                "local_solves".into(),
                load(&shared.metrics.fallback_local),
            )]),
        ),
        (
            "retries".into(),
            Json::Obj(vec![
                ("transport".into(), load(&shared.metrics.retries_transport)),
                ("status_5xx".into(), load(&shared.metrics.retries_5xx)),
                ("status_429".into(), load(&shared.metrics.retries_429)),
            ]),
        ),
        (
            "replication".into(),
            Json::Obj(vec![
                (
                    "factor".into(),
                    Json::from_u64(shared.config.replication.max(1) as u64),
                ),
                ("writes".into(), load(&shared.metrics.replication_writes)),
                ("read_repairs".into(), load(&shared.metrics.read_repairs)),
                ("repair_drops".into(), load(&shared.metrics.repair_drops)),
                (
                    "repair_queue_depth".into(),
                    Json::from_u64(
                        shared
                            .repair
                            .lock()
                            .expect("repair queue poisoned")
                            .jobs
                            .len() as u64,
                    ),
                ),
            ]),
        ),
        ("stages".into(), shared.metrics.stages.to_json()),
        (
            "key_cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::from_u64(key_cache.hits)),
                ("misses".into(), Json::from_u64(key_cache.misses)),
                ("entries".into(), Json::from_u64(key_cache.entries as u64)),
            ]),
        ),
        ("backends".into(), Json::Arr(backends)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:4000")).collect()
    }

    /// The full assignment of `count` deterministic key hashes.
    fn assignment(ring: &HashRing, live: &[bool], count: u64) -> Vec<Option<usize>> {
        (0..count)
            .map(|i| ring.route(fnv1a(format!("key-{i}").as_bytes()), |b| live[b]))
            .collect()
    }

    #[test]
    fn routing_is_deterministic() {
        let backends = addrs(3);
        let a = HashRing::new(&backends, 64);
        let b = HashRing::new(&backends, 64);
        let all = vec![true; 3];
        assert_eq!(assignment(&a, &all, 1000), assignment(&b, &all, 1000));
    }

    /// Each backend's exact share of the 64-bit space: a point owns the
    /// arc from its predecessor (exclusive) up to itself.
    fn arc_shares(ring: &HashRing) -> Vec<f64> {
        let mut shares = vec![0.0; ring.backends()];
        let mut prev = ring.points.last().expect("non-empty ring").0;
        for &(point, owner) in &ring.points {
            shares[owner] += point.wrapping_sub(prev) as f64 / 2f64.powi(64);
            prev = point;
        }
        shares
    }

    #[test]
    fn every_backend_owns_a_share_of_the_space() {
        let ring = HashRing::new(&addrs(3), 64);
        let all = vec![true; 3];
        let mut counts = [0usize; 3];
        for owner in assignment(&ring, &all, 3000) {
            counts[owner.unwrap()] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            assert!(
                count > 300,
                "backend {i} owns {count}/3000 keys — vnodes are not spreading"
            );
        }
        // Seeded sets of 2–4 loopback backends (the shape of a local
        // cluster): every backend owns between 0.5/N and 1.5/N.
        for set in 0..1000u64 {
            let n = 2 + (mix64(set) % 3) as usize;
            let backends: Vec<String> = (0..n as u64)
                .map(|j| format!("127.0.0.1:{}", 1024 + mix64(set << 8 | j) % 64_512))
                .collect();
            let shares = arc_shares(&HashRing::new(&backends, 64));
            let total: f64 = shares.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
            for (b, share) in backends.iter().zip(&shares) {
                let scaled = share * n as f64;
                assert!(
                    (0.5..=1.5).contains(&scaled),
                    "{b} owns {scaled:.2}/N of the space in {backends:?}"
                );
            }
        }
    }

    #[test]
    fn eject_moves_only_the_ejected_arc_and_readmit_restores_it() {
        let ring = HashRing::new(&addrs(3), 64);
        let before = assignment(&ring, &[true, true, true], 2000);
        let after = assignment(&ring, &[true, false, true], 2000);
        let mut moved = 0usize;
        for (b, a) in before.iter().zip(&after) {
            let (b, a) = (b.unwrap(), a.unwrap());
            if b == 1 {
                // The ejected backend's keys must land elsewhere …
                assert_ne!(a, 1, "a key still routes to the ejected backend");
                moved += 1;
            } else {
                // … and every other key must keep its mapping exactly.
                assert_eq!(a, b, "an unrelated arc moved on eject");
            }
        }
        assert!(moved > 0, "the ejected backend owned no keys");
        // Readmission restores the original assignment bit-for-bit.
        let restored = assignment(&ring, &[true, true, true], 2000);
        assert_eq!(before, restored);
    }

    #[test]
    fn route_is_none_only_when_every_backend_is_dead() {
        let ring = HashRing::new(&addrs(2), 16);
        assert_eq!(ring.route(12345, |_| false), None);
        assert!(ring.route(12345, |i| i == 1).is_some());
        let empty: Vec<String> = Vec::new();
        assert_eq!(HashRing::new(&empty, 16).route(1, |_| true), None);
    }

    #[test]
    fn route_replicas_yields_distinct_owners_led_by_the_primary() {
        let ring = HashRing::new(&addrs(4), 64);
        for i in 0..500u64 {
            let hash = fnv1a(format!("key-{i}").as_bytes());
            let owners = ring.route_replicas(hash, 2, |_| true);
            assert_eq!(owners.len(), 2);
            assert_ne!(owners[0], owners[1]);
            assert_eq!(Some(owners[0]), ring.route(hash, |_| true));
        }
        // Asking for more replicas than backends yields every backend.
        let mut all = ring.route_replicas(fnv1a(b"k"), 9, |_| true);
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
        assert!(ring.route_replicas(fnv1a(b"k"), 0, |_| true).is_empty());
    }

    #[test]
    fn ejecting_a_backend_keeps_every_surviving_owner_in_place() {
        let ring = HashRing::new(&addrs(4), 64);
        for i in 0..500u64 {
            let hash = fnv1a(format!("key-{i}").as_bytes());
            let before = ring.route_replicas(hash, 2, |_| true);
            let after = ring.route_replicas(hash, 2, |b| b != 1);
            // Surviving owners keep their relative order; the ejected
            // backend's slot is backfilled by the next ring successor.
            let survivors: Vec<usize> = before.iter().copied().filter(|&b| b != 1).collect();
            assert_eq!(&after[..survivors.len()], &survivors[..]);
            assert!(!after.contains(&1));
            assert_eq!(after.len(), 2);
        }
    }

    #[test]
    fn single_backend_owns_everything() {
        let backends = addrs(1);
        let ring = HashRing::new(&backends, 8);
        for i in 0..100u64 {
            assert_eq!(ring.route(fnv1a(&i.to_le_bytes()), |_| true), Some(0));
        }
    }
}
