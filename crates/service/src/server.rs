//! The event-driven HTTP server: a single reactor thread multiplexing
//! every connection over [`crate::reactor`] readiness, plus a small
//! solver pool that **only cache misses** cross into.
//!
//! ```text
//!                        ┌──────────────────────────────┐
//!   clients ──accept──▶  │        reactor thread        │
//!     ▲                  │  poll(listener, conns, wake) │
//!     │   hits, errors,  │  read → parse → dispatch     │
//!     └── 4xx, metrics ◀─│  write staged responses      │
//!                        └──────┬──────────────▲────────┘
//!                     misses    │              │ wake pipe +
//!                 (bounded try_send)           │ completion queue
//!                        ┌──────▼──────────────┴────────┐
//!                        │       solver pool (N)        │
//!                        │  complete_solve / batches    │
//!                        └──────────────────────────────┘
//! ```
//!
//! Each connection is a small state machine (reading → dispatch →
//! writing) over two reusable buffers. Cache hits, protocol errors, and
//! the GET endpoints are answered **on the reactor thread** — a hit never
//! queues behind a cold solve. `POST /solve` bodies go through
//! [`SolveService::try_serve_fast`], so a byte-identical canonical body
//! is served straight off the raw-byte index without building a JSON
//! value tree at all.
//!
//! Backpressure is explicit at two levels: the pending-solve queue is a
//! bounded `sync_channel` whose overflow is answered `429 Too Many
//! Requests` + `Retry-After` (the request was understood — retry
//! shortly), and a connection cap above which new arrivals get `503` and
//! an immediate close. Responses are staged one at a time per
//! connection, so pipelined requests are answered strictly in order; the
//! connection's read interest is dropped while a response is pending,
//! letting the TCP window push back on floods.
//!
//! Endpoints:
//!
//! | Endpoint            | Behavior                                        |
//! |---------------------|-------------------------------------------------|
//! | `POST /solve`       | one game through cache + [`Solver`]; `X-Cache: hit\|miss` |
//! | `POST /solve_batch` | many games, one config; misses go through `solve_many` |
//! | `GET /metrics`      | service counters + reactor counters + cache stats |
//! | `GET /healthz`      | liveness probe                                  |
//! | `GET /debug/trace`  | the span flight recorder as JSON                |
//!
//! Every request is traced: the reactor adopts the trace id from an
//! `X-Bi-Trace` header (how a router hop correlates with the backend)
//! or mints one, records `parse`/`cache`/`encode`/`write` spans around
//! its own work plus a root `request` span, and the solver pool
//! records `solve`/`encode` under the same trace. Recording is a few
//! relaxed atomic stores per stage — the zero-copy hit path stays
//! intact. Requests slower than `--trace-slow-us` get their whole span
//! tree logged as one JSON line.
//!
//! [`Solver`]: bi_core::solve::Solver

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bi_obs::{Stage, TraceCtx};
use bi_util::Json;

use crate::cache::CacheConfig;
use crate::fault::{FaultKind, FaultPlan};
use crate::http::{parse_head, write_head_into, Response};
use crate::persist::DiskTierConfig;
use crate::reactor::{
    listener_fd, raw_fd, PollFd, Poller, WakePair, Waker, POLLERR, POLLHUP, POLLIN, POLLNVAL,
    POLLOUT,
};
use crate::service::{error_body, BatchRequest, FastOutcome, PreparedSolve, SolveService};

/// Server sizing and addressing.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port `0` for an ephemeral port (the bound
    /// address is available via [`Server::local_addr`]).
    pub addr: String,
    /// Solver threads (`0` = one per available core). Only cache misses
    /// cross into this pool; everything else is served on the reactor.
    pub workers: usize,
    /// Pending-solve queue bound; overflow is answered `429` with
    /// `Retry-After`.
    pub queue_capacity: usize,
    /// Solve-cache sizing.
    pub cache: CacheConfig,
    /// Idle keep-alive timeout per connection (stalled writers count as
    /// idle too; connections waiting on a solve do not).
    pub read_timeout: Duration,
    /// Maximum simultaneously open connections; arrivals beyond the cap
    /// are answered `503` and closed immediately.
    pub max_connections: usize,
    /// Path of the disk-backed cache log (`None` runs memory-only). The
    /// log is opened (and its torn tail repaired) at bind time; a
    /// restarted node replays its old key space warm.
    pub disk_path: Option<std::path::PathBuf>,
    /// Disk-tier sizing: the write-behind queue bound and the log
    /// compaction trigger (ignored when `disk_path` is `None`).
    pub disk: DiskTierConfig,
    /// Deterministic fault injection (`--fault-plan` on `bi-serve`).
    /// `None` serves faithfully; `Some` threads the seeded plan through
    /// the reactor's accept/read/write/dispatch seams for chaos tests.
    pub fault: Option<Arc<FaultPlan>>,
    /// Slow-request sampling: a request whose end-to-end latency
    /// reaches this many µs gets its full span tree logged as one JSON
    /// line (`None` disables the sampler; spans are recorded either
    /// way).
    pub trace_slow_us: Option<u64>,
}

impl Default for ServerConfig {
    /// Ephemeral port on localhost, one solver per core, a queue of 128
    /// pending solves, the default cache, 10 s idle timeout, 8192
    /// connections.
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_capacity: 128,
            cache: CacheConfig::default(),
            read_timeout: Duration::from_secs(10),
            max_connections: 8192,
            disk_path: None,
            disk: DiskTierConfig::default(),
            fault: None,
            trace_slow_us: None,
        }
    }
}

/// A bound (but not yet serving) solve server.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    service: Arc<SolveService>,
}

impl Server {
    /// Binds the listener and builds the shared service state.
    ///
    /// # Errors
    ///
    /// Returns the bind failure.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let disk = match &config.disk_path {
            Some(path) => Some(crate::persist::DiskTier::open(path, config.disk)?),
            None => None,
        };
        let service = Arc::new(SolveService::with_disk(config.cache, disk));
        Ok(Server {
            listener,
            config,
            service,
        })
    }

    /// The actually bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the OS query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared service state (for tests and embedding).
    #[must_use]
    pub fn service(&self) -> Arc<SolveService> {
        Arc::clone(&self.service)
    }

    /// Starts the reactor and solver pool; returns a handle that stops
    /// everything on [`ServerHandle::stop`].
    ///
    /// # Errors
    ///
    /// Propagates socket setup failures.
    pub fn start(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        self.listener.set_nonblocking(true)?;
        let workers = if self.config.workers == 0 {
            std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
        } else {
            self.config.workers
        };
        self.service.metrics().set_config_gauges(
            self.config.queue_capacity.max(1),
            u64::try_from(self.config.read_timeout.as_millis()).unwrap_or(u64::MAX),
            workers,
            self.config.max_connections.max(1),
        );
        let shutdown = Arc::new(AtomicBool::new(false));
        let (job_tx, job_rx) = sync_channel::<Job>(self.config.queue_capacity.max(1));
        let job_rx = Arc::new(Mutex::new(job_rx));
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
        let wake = WakePair::new()?;
        let stop_waker = wake.waker()?;
        let mut worker_handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let rx = Arc::clone(&job_rx);
            let service = Arc::clone(&self.service);
            let completions = Arc::clone(&completions);
            let mut waker = wake.waker()?;
            worker_handles.push(std::thread::spawn(move || {
                solver_loop(&rx, &service, &completions, &mut waker);
            }));
        }
        let mut reactor = Reactor {
            listener: self.listener,
            service: Arc::clone(&self.service),
            poller: Poller::new(),
            wake,
            completions,
            job_tx,
            slots: Vec::new(),
            free: Vec::new(),
            shutdown: Arc::clone(&shutdown),
            read_timeout: self.config.read_timeout,
            max_connections: self.config.max_connections.max(1),
            trace_slow_us: self.config.trace_slow_us,
            fault: self.config.fault.clone(),
        };
        let reactor_handle = std::thread::spawn(move || reactor.run());
        Ok(ServerHandle {
            addr,
            shutdown,
            reactor: Some(reactor_handle),
            workers: worker_handles,
            service: self.service,
            waker: stop_waker,
        })
    }

    /// Binds-and-serves forever (the `bi-serve` binary's main loop).
    ///
    /// # Errors
    ///
    /// Propagates startup failures; never returns otherwise.
    pub fn run(self) -> io::Result<()> {
        let handle = self.start()?;
        if let Some(reactor) = handle.reactor {
            let _ = reactor.join();
        }
        Ok(())
    }
}

/// A running server: address plus the stop switch.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    service: Arc<SolveService>,
    waker: Waker,
}

impl ServerHandle {
    /// The serving address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service state (for asserting on metrics in tests).
    #[must_use]
    pub fn service(&self) -> Arc<SolveService> {
        Arc::clone(&self.service)
    }

    /// Stops the reactor, drains the pool, and joins all threads.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.waker.wake();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        // The reactor owned the job sender; its exit disconnects the
        // solver pool's `recv` and ends every worker.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One unit of work for the solver pool — only cache misses become jobs.
enum Job {
    /// A decoded `POST /solve` miss.
    Solve {
        slot: usize,
        generation: u64,
        prepared: Box<PreparedSolve>,
    },
    /// A `POST /solve_batch` body (parsed on the worker: batches are
    /// bulk work by definition, so their decode cost stays off the
    /// reactor).
    Batch {
        slot: usize,
        generation: u64,
        body: Vec<u8>,
        /// The request's trace context — the worker records the batch
        /// decode + solve as one `solve` span under it.
        ctx: TraceCtx,
    },
}

/// A finished job traveling back to the reactor over the wake channel.
struct Completion {
    slot: usize,
    generation: u64,
    response: Response,
}

fn solver_loop(
    rx: &Mutex<Receiver<Job>>,
    service: &SolveService,
    completions: &Mutex<Vec<Completion>>,
    waker: &mut Waker,
) {
    loop {
        let job = match rx.lock().expect("job lock poisoned").recv() {
            Ok(job) => job,
            Err(_) => return, // reactor gone
        };
        let completion = run_job(service, job);
        service
            .metrics()
            .solves_in_flight
            .fetch_sub(1, Ordering::Relaxed);
        completions
            .lock()
            .expect("completion lock poisoned")
            .push(completion);
        waker.wake();
    }
}

fn run_job(service: &SolveService, job: Job) -> Completion {
    match job {
        Job::Solve {
            slot,
            generation,
            prepared,
        } => {
            let response = match service.complete_solve(*prepared) {
                Ok(served) => {
                    Response::json(200, served.body.to_vec()).with_header("X-Cache", "miss")
                }
                // The request was well-formed; the game is unsolvable as
                // asked (budget, no equilibrium, …) — a semantic 422.
                Err(e) => Response::json(422, error_body(&e.to_string())),
            };
            Completion {
                slot,
                generation,
                response,
            }
        }
        Job::Batch {
            slot,
            generation,
            body,
            ctx,
        } => {
            let t0 = service.recorder().now_ns();
            let response = handle_batch(service, &body);
            if ctx.active() {
                let t1 = service.recorder().now_ns();
                service
                    .recorder()
                    .record(ctx.trace_id, ctx.parent, Stage::Solve, t0, t1);
            }
            Completion {
                slot,
                generation,
                response,
            }
        }
    }
}

/// Per-connection read burst size (the router's connection threads read
/// in the same bursts).
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// One connection's state machine: reading into `buf`, at most one
/// staged response in `out`, and the in-flight marker while a solve is
/// in the pool.
struct Conn {
    stream: TcpStream,
    /// Accumulated request bytes (consumed per request, capacity kept).
    buf: Vec<u8>,
    /// The staged response (head + body), written from `out_pos`.
    out: Vec<u8>,
    out_pos: usize,
    /// A solve for this connection is in the pool; parsing is paused.
    in_flight: bool,
    /// Keep-alive of the request currently being answered.
    req_keep_alive: bool,
    /// Close once `out` drains (protocol error or `Connection: close`).
    close_after_write: bool,
    /// The peer finished sending; drop the connection once quiet.
    eof: bool,
    last_activity: Instant,
    /// The trace of the request currently being answered, closed (root
    /// `request` span + `write` span recorded) once its response is
    /// fully flushed.
    trace: Option<ConnTrace>,
}

/// Trace state of one in-progress request on a connection.
struct ConnTrace {
    /// The trace id (adopted from `X-Bi-Trace` or minted).
    trace_id: u64,
    /// The root `request` span id — pre-allocated so every stage span
    /// can parent under it before the root itself is recorded.
    root_span: u64,
    /// The upstream parent span (from `X-Bi-Parent`; 0 when this node
    /// is the trace origin).
    parent: u64,
    /// When the request's bytes were first seen complete (ns).
    req_start_ns: u64,
    /// When its response was staged (ns); 0 until then. The gap to the
    /// final flush is the `write` span.
    staged_ns: u64,
}

/// A slab slot: its occupant plus a generation counter so completions
/// for closed connections are discarded instead of answering whoever
/// reused the slot.
struct Slot {
    conn: Option<Conn>,
    generation: u64,
}

/// What to do with a connection after an I/O pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnAction {
    Keep,
    Remove,
}

/// The reactor: owns the listener, the connection slab, and the poll
/// loop; everything it serves inline never touches the solver pool.
struct Reactor {
    listener: TcpListener,
    service: Arc<SolveService>,
    poller: Poller,
    wake: WakePair,
    completions: Arc<Mutex<Vec<Completion>>>,
    job_tx: SyncSender<Job>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    shutdown: Arc<AtomicBool>,
    read_timeout: Duration,
    max_connections: usize,
    trace_slow_us: Option<u64>,
    /// The seeded fault plan, consulted at each seam (accept, read,
    /// write, dispatch); `None` on a faithful server.
    fault: Option<Arc<FaultPlan>>,
}

impl Reactor {
    fn run(&mut self) {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut fd_slots: Vec<usize> = Vec::new();
        let timeout_ms = u32::try_from(self.read_timeout.as_millis() / 4)
            .unwrap_or(u32::MAX)
            .clamp(10, 200);
        while !self.shutdown.load(Ordering::Relaxed) {
            fds.clear();
            fd_slots.clear();
            fds.push(PollFd::new(self.wake.read_fd(), POLLIN));
            fd_slots.push(usize::MAX);
            fds.push(PollFd::new(listener_fd(&self.listener), POLLIN));
            fd_slots.push(usize::MAX);
            for (i, slot) in self.slots.iter().enumerate() {
                if let Some(conn) = &slot.conn {
                    let mut events = 0i16;
                    if !conn.in_flight && conn.out.is_empty() && !conn.eof {
                        events |= POLLIN;
                    }
                    if !conn.out.is_empty() {
                        events |= POLLOUT;
                    }
                    fds.push(PollFd::new(raw_fd(&conn.stream), events));
                    fd_slots.push(i);
                }
            }
            let ready = match self.poller.wait(&mut fds, timeout_ms) {
                Ok(n) => n,
                Err(_) => continue,
            };
            if ready > 0 {
                self.service
                    .metrics()
                    .reactor_wakeups
                    .fetch_add(1, Ordering::Relaxed);
            }
            if fds[0].ready(POLLIN) {
                self.wake.drain();
            }
            self.drain_completions();
            if fds[1].ready(POLLIN) {
                self.accept_ready();
            }
            for k in 2..fds.len() {
                let fd = fds[k];
                if fd.revents() == 0 {
                    continue;
                }
                self.handle_conn_event(fd_slots[k], fd);
            }
            self.sweep_idle();
        }
    }

    /// Applies readiness to one connection and removes it on failure.
    fn handle_conn_event(&mut self, idx: usize, fd: PollFd) {
        let generation = self.slots[idx].generation;
        let fault = self.fault.as_deref();
        let action = {
            let Some(conn) = self.slots[idx].conn.as_mut() else {
                return;
            };
            let result = if fd.ready(POLLOUT) && !conn.out.is_empty() {
                pump(
                    conn,
                    &self.service,
                    &self.job_tx,
                    idx,
                    generation,
                    self.trace_slow_us,
                    fault,
                )
            } else if fd.ready(POLLIN) && !conn.in_flight && conn.out.is_empty() && !conn.eof {
                on_readable(
                    conn,
                    &self.service,
                    &self.job_tx,
                    idx,
                    generation,
                    self.trace_slow_us,
                    fault,
                )
            } else if fd.revents() & (POLLERR | POLLHUP | POLLNVAL) != 0 {
                // An errored or hung-up peer we have nothing staged for
                // (including one we are mid-solve for): drop it; any
                // completion is discarded by the generation check.
                Ok(ConnAction::Remove)
            } else {
                Ok(ConnAction::Keep)
            };
            result.unwrap_or(ConnAction::Remove)
        };
        if action == ConnAction::Remove {
            self.remove_conn(idx);
        }
    }

    /// Accepts until the backlog is dry, registering connections up to
    /// the cap and answering `503` beyond it.
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            self.service
                .metrics()
                .connections_total
                .fetch_add(1, Ordering::Relaxed);
            // The accept seam: a refused connection is dropped before a
            // byte is exchanged, as if the listener's backlog reset it.
            if let Some(plan) = &self.fault {
                if plan.next() == Some(FaultKind::Refuse) {
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    continue;
                }
            }
            let open = self.slots.iter().filter(|s| s.conn.is_some()).count();
            if open >= self.max_connections {
                reject_busy(stream, &self.service);
                continue;
            }
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                continue; // the socket died before it ever registered
            }
            let conn = Conn {
                stream,
                buf: Vec::new(),
                out: Vec::new(),
                out_pos: 0,
                in_flight: false,
                req_keep_alive: true,
                close_after_write: false,
                eof: false,
                last_activity: Instant::now(),
                trace: None,
            };
            let idx = match self.free.pop() {
                Some(idx) => idx,
                None => {
                    self.slots.push(Slot {
                        conn: None,
                        generation: 0,
                    });
                    self.slots.len() - 1
                }
            };
            self.slots[idx].conn = Some(conn);
            self.service
                .metrics()
                .open_connections
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Stages every completed solve onto its (still-live) connection and
    /// pushes the response out.
    fn drain_completions(&mut self) {
        let done = std::mem::take(&mut *self.completions.lock().expect("completion lock poisoned"));
        for completion in done {
            let idx = completion.slot;
            let action = {
                if self.slots[idx].generation != completion.generation {
                    continue; // the connection closed mid-solve
                }
                let Some(conn) = self.slots[idx].conn.as_mut() else {
                    continue;
                };
                conn.in_flight = false;
                stage_response(conn, &self.service, &completion.response);
                pump(
                    conn,
                    &self.service,
                    &self.job_tx,
                    idx,
                    completion.generation,
                    self.trace_slow_us,
                    self.fault.as_deref(),
                )
                .unwrap_or(ConnAction::Remove)
            };
            if action == ConnAction::Remove {
                self.remove_conn(idx);
            }
        }
    }

    /// Closes connections quiet for longer than the timeout. In-flight
    /// connections are exempt — their clock is the solve, not the peer.
    fn sweep_idle(&mut self) {
        let now = Instant::now();
        for idx in 0..self.slots.len() {
            let stale = self.slots[idx].conn.as_ref().is_some_and(|c| {
                !c.in_flight && now.duration_since(c.last_activity) > self.read_timeout
            });
            if stale {
                self.remove_conn(idx);
            }
        }
    }

    fn remove_conn(&mut self, idx: usize) {
        if self.slots[idx].conn.take().is_some() {
            self.slots[idx].generation += 1;
            self.free.push(idx);
            self.service
                .metrics()
                .open_connections
                .fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Reads everything available, then drives the state machine.
fn on_readable(
    conn: &mut Conn,
    service: &SolveService,
    job_tx: &SyncSender<Job>,
    slot: usize,
    generation: u64,
    trace_slow_us: Option<u64>,
    fault: Option<&FaultPlan>,
) -> io::Result<ConnAction> {
    // The read seam: a disconnect drops the peer mid-body, a delay
    // stalls the whole pass, a short read caps it at one byte (the
    // request still completes — across many passes).
    let mut read_cap = READ_CHUNK;
    if let Some(plan) = fault {
        match plan.next() {
            Some(FaultKind::Disconnect) => return Ok(ConnAction::Remove),
            Some(FaultKind::Delay) => std::thread::sleep(plan.delay()),
            Some(FaultKind::ShortRead) => read_cap = 1,
            _ => {}
        }
    }
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut chunk[..read_cap]) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                conn.last_activity = Instant::now();
                if n < read_cap || read_cap < READ_CHUNK {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    pump(
        conn,
        service,
        job_tx,
        slot,
        generation,
        trace_slow_us,
        fault,
    )
}

/// Drives one connection as far as it can go without blocking:
/// parse → dispatch → write, looping while pipelined requests complete.
fn pump(
    conn: &mut Conn,
    service: &SolveService,
    job_tx: &SyncSender<Job>,
    slot: usize,
    generation: u64,
    trace_slow_us: Option<u64>,
    fault: Option<&FaultPlan>,
) -> io::Result<ConnAction> {
    loop {
        process_buffered(conn, service, job_tx, slot, generation, fault);
        if conn.out.is_empty() {
            // Waiting on more bytes or on the solver pool. A peer that
            // finished sending and owes us nothing is done.
            if conn.eof && !conn.in_flight {
                return Ok(ConnAction::Remove);
            }
            return Ok(ConnAction::Keep);
        }
        if !flush_out(conn, fault)? {
            return Ok(ConnAction::Keep); // socket full; wait for POLLOUT
        }
        conn.out.clear();
        conn.out_pos = 0;
        finish_trace(conn, service, trace_slow_us);
        if conn.close_after_write {
            return Ok(ConnAction::Remove);
        }
        // Response delivered — loop to answer the next pipelined request.
    }
}

/// Closes the flushed request's trace: records the `write` span (staged
/// → fully flushed), the root `request` span covering the whole
/// exchange, and — when the total crosses the slow threshold — logs the
/// entire span tree as one JSON line.
fn finish_trace(conn: &mut Conn, service: &SolveService, trace_slow_us: Option<u64>) {
    let Some(trace) = conn.trace.take() else {
        return;
    };
    let recorder = service.recorder();
    let now = recorder.now_ns();
    let staged = if trace.staged_ns == 0 {
        now
    } else {
        trace.staged_ns
    };
    recorder.record(trace.trace_id, trace.root_span, Stage::Write, staged, now);
    recorder.record_span(
        trace.root_span,
        trace.trace_id,
        trace.parent,
        Stage::Request,
        trace.req_start_ns,
        now,
    );
    let stages = &service.metrics().stages;
    stages.record(Stage::Write, now.saturating_sub(staged) / 1_000);
    let total_us = now.saturating_sub(trace.req_start_ns) / 1_000;
    stages.record(Stage::Request, total_us);
    bi_obs::log::slow_request(
        "bi-serve",
        recorder,
        trace_slow_us,
        trace.trace_id,
        total_us,
    );
}

/// Parses and dispatches buffered requests while the connection has no
/// staged response and no solve in flight (one response at a time keeps
/// pipelined answers in order).
fn process_buffered(
    conn: &mut Conn,
    service: &SolveService,
    job_tx: &SyncSender<Job>,
    slot: usize,
    generation: u64,
    fault: Option<&FaultPlan>,
) {
    while conn.out.is_empty() && !conn.in_flight {
        let recorder = service.recorder();
        let t_parse = recorder.now_ns();
        let head = match parse_head(&conn.buf) {
            Ok(None) => return, // need more bytes
            Ok(Some(head)) => head,
            Err(e) => {
                // Protocol errors poison framing: answer and close.
                conn.close_after_write = true;
                stage_bytes(conn, service, e.status, &error_body(&e.msg), &[]);
                return;
            }
        };
        let total = head.total_len();
        if conn.buf.len() < total {
            return; // body still in flight
        }
        let metrics = service.metrics();
        metrics.requests_total.fetch_add(1, Ordering::Relaxed);
        conn.req_keep_alive = head.keep_alive;
        // Adopt the peer's trace id (a router hop) or mint one; the
        // root span id is allocated now so every stage nests under it,
        // and the root itself is recorded when the response flushes.
        let trace_id = head.trace_id.unwrap_or_else(|| recorder.new_trace_id());
        let root_span = recorder.next_span_id();
        conn.trace = Some(ConnTrace {
            trace_id,
            root_span,
            parent: head.parent_span.unwrap_or(0),
            req_start_ns: t_parse,
            staged_ns: 0,
        });
        let ctx = TraceCtx {
            trace_id,
            parent: root_span,
        };
        let t_parsed = recorder.now_ns();
        recorder.record(trace_id, root_span, Stage::Parse, t_parse, t_parsed);
        metrics
            .stages
            .record(Stage::Parse, t_parsed.saturating_sub(t_parse) / 1_000);
        let target = classify(&conn.buf[head.method.clone()], &conn.buf[head.path.clone()]);
        let body_range = head.head_len..total;
        // The dispatch seam: serving endpoints can answer an injected
        // 500 — the request was understood, the work was "lost". Probes
        // and metrics stay faithful so chaos runs remain observable.
        if matches!(target, Target::Solve | Target::Batch | Target::CachePut) {
            if let Some(plan) = fault {
                if plan.next() == Some(FaultKind::Err500) {
                    conn.buf.drain(..total);
                    stage_bytes(conn, service, 500, &error_body("injected fault"), &[]);
                    continue;
                }
            }
        }
        match target {
            Target::Solve => {
                metrics.solve_requests.fetch_add(1, Ordering::Relaxed);
                match service.try_serve_fast(&conn.buf[body_range], ctx) {
                    Ok(FastOutcome::Hit(served)) => {
                        let body = served.body;
                        conn.buf.drain(..total);
                        // Staging the cached bytes is the hit path's
                        // `encode` stage (head build + body copy).
                        let t_enc = recorder.now_ns();
                        stage_bytes(conn, service, 200, &body, &[("X-Cache", "hit")]);
                        service.finish_encode_stage(ctx, t_enc);
                    }
                    Ok(FastOutcome::Miss(prepared)) => {
                        conn.buf.drain(..total);
                        submit_job(
                            conn,
                            service,
                            job_tx,
                            Job::Solve {
                                slot,
                                generation,
                                prepared,
                            },
                        );
                    }
                    Err(e) => {
                        conn.buf.drain(..total);
                        stage_bytes(conn, service, 400, &error_body(&e.to_string()), &[]);
                    }
                }
            }
            Target::Batch => {
                metrics.batch_requests.fetch_add(1, Ordering::Relaxed);
                let body = conn.buf[body_range].to_vec();
                conn.buf.drain(..total);
                submit_job(
                    conn,
                    service,
                    job_tx,
                    Job::Batch {
                        slot,
                        generation,
                        body,
                        ctx,
                    },
                );
            }
            Target::Healthz => {
                conn.buf.drain(..total);
                stage_bytes(conn, service, 200, &healthz_body(), &[]);
            }
            Target::CachePut => {
                let (status, body) = handle_cache_put(service, &conn.buf[body_range]);
                conn.buf.drain(..total);
                stage_bytes(conn, service, status, &body, &[]);
            }
            Target::Metrics => {
                conn.buf.drain(..total);
                let mut doc = service.metrics_json();
                if let Some(plan) = fault {
                    if let Json::Obj(fields) = &mut doc {
                        fields.push(("faults".into(), plan.to_json()));
                    }
                }
                let body = doc.to_string().into_bytes();
                stage_bytes(conn, service, 200, &body, &[]);
            }
            Target::DebugTrace => {
                conn.buf.drain(..total);
                let body = service.trace_json().to_string().into_bytes();
                stage_bytes(conn, service, 200, &body, &[]);
            }
            Target::MethodNotAllowed => {
                conn.buf.drain(..total);
                stage_bytes(conn, service, 405, &error_body("method not allowed"), &[]);
            }
            Target::NotFound => {
                conn.buf.drain(..total);
                stage_bytes(conn, service, 404, &error_body("unknown endpoint"), &[]);
            }
        }
    }
}

/// Hands a miss to the solver pool, answering `429` + `Retry-After` when
/// the bounded queue is full — backpressure, not failure.
fn submit_job(conn: &mut Conn, service: &SolveService, job_tx: &SyncSender<Job>, job: Job) {
    match job_tx.try_send(job) {
        Ok(()) => {
            conn.in_flight = true;
            service
                .metrics()
                .solves_in_flight
                .fetch_add(1, Ordering::Relaxed);
        }
        Err(TrySendError::Full(_)) => {
            service
                .metrics()
                .backpressure_429
                .fetch_add(1, Ordering::Relaxed);
            stage_bytes(
                conn,
                service,
                429,
                &error_body("solver queue is full, retry shortly"),
                &[("Retry-After", "1")],
            );
        }
        Err(TrySendError::Disconnected(_)) => {
            conn.close_after_write = true;
            stage_bytes(
                conn,
                service,
                503,
                &error_body("server is shutting down"),
                &[],
            );
        }
    }
}

/// Writes as much of the staged response as the socket accepts; `true`
/// once fully flushed.
fn flush_out(conn: &mut Conn, fault: Option<&FaultPlan>) -> io::Result<bool> {
    // The write seam: a disconnect resets the peer mid-response, a
    // delay stalls the flush, a short write pushes one byte and yields
    // back to the poll loop (POLLOUT is level-triggered, so the rest
    // follows on later passes).
    let mut write_cap = usize::MAX;
    if let Some(plan) = fault {
        match plan.next() {
            Some(FaultKind::Disconnect) => return Err(io::ErrorKind::ConnectionReset.into()),
            Some(FaultKind::Delay) => std::thread::sleep(plan.delay()),
            Some(FaultKind::ShortWrite) => write_cap = 1,
            _ => {}
        }
    }
    while conn.out_pos < conn.out.len() {
        let end = conn.out_pos.saturating_add(write_cap).min(conn.out.len());
        match conn.stream.write(&conn.out[conn.out_pos..end]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                conn.out_pos += n;
                conn.last_activity = Instant::now();
                if write_cap != usize::MAX && conn.out_pos < conn.out.len() {
                    return Ok(false); // short write injected; resume on POLLOUT
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Stages a response into the connection's reusable output buffer and
/// records its status (the one place statuses are counted).
fn stage_bytes(
    conn: &mut Conn,
    service: &SolveService,
    status: u16,
    body: &[u8],
    extra: &[(&str, &str)],
) {
    service.metrics().record_status(status);
    let keep = conn.req_keep_alive && !conn.close_after_write;
    write_head_into(
        &mut conn.out,
        status,
        "application/json",
        body.len(),
        keep,
        extra,
    );
    conn.out.extend_from_slice(body);
    conn.out_pos = 0;
    if let Some(trace) = &mut conn.trace {
        if trace.staged_ns == 0 {
            trace.staged_ns = service.recorder().now_ns();
        }
    }
    if !keep {
        conn.close_after_write = true;
    }
}

/// Stages a solver-pool [`Response`] (carries its own extra headers).
fn stage_response(conn: &mut Conn, service: &SolveService, response: &Response) {
    let extra: Vec<(&str, &str)> = response
        .extra_headers
        .iter()
        .map(|(k, v)| (*k, v.as_str()))
        .collect();
    stage_bytes(conn, service, response.status, &response.body, &extra);
}

/// What one parsed request asks the reactor to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Target {
    Solve,
    Batch,
    CachePut,
    Healthz,
    Metrics,
    DebugTrace,
    MethodNotAllowed,
    NotFound,
}

fn classify(method: &[u8], path: &[u8]) -> Target {
    match (method, path) {
        (b"POST", b"/solve") => Target::Solve,
        (b"POST", b"/solve_batch") => Target::Batch,
        (b"POST", b"/cache_put") => Target::CachePut,
        (b"GET", b"/healthz") => Target::Healthz,
        (b"GET", b"/metrics") => Target::Metrics,
        (b"GET", b"/debug/trace") => Target::DebugTrace,
        (
            _,
            b"/healthz" | b"/metrics" | b"/debug/trace" | b"/solve" | b"/solve_batch"
            | b"/cache_put",
        ) => Target::MethodNotAllowed,
        _ => Target::NotFound,
    }
}

fn healthz_body() -> Vec<u8> {
    Json::Obj(vec![("status".into(), Json::str("ok"))]).canonical_bytes()
}

/// Answers `503` on the reactor when the connection cap is reached — the
/// rejection path must stay cheap and never block on a worker. The
/// freshly accepted socket is still in blocking mode; the response is a
/// handful of bytes, so the write cannot stall meaningfully.
fn reject_busy(mut stream: TcpStream, service: &SolveService) {
    service
        .metrics()
        .rejected_busy
        .fetch_add(1, Ordering::Relaxed);
    service.metrics().record_status(503);
    let response = Response::json(503, error_body("connection limit reached, retry later"));
    let _ = response.write(&mut stream, false);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Installs a peer-shipped response (`POST /cache_put`). The body is
/// binary-framed — `[request_len u32 LE][request bytes][response
/// bytes]` — so the solve request and its canonical response travel as
/// one opaque payload with no JSON re-encoding on either side.
fn handle_cache_put(service: &SolveService, body: &[u8]) -> (u16, Vec<u8>) {
    let framing_error = |msg: &str| {
        service
            .metrics()
            .cache_put_rejected
            .fetch_add(1, Ordering::Relaxed);
        (400, error_body(msg))
    };
    if body.len() < 4 {
        return framing_error("cache_put body is shorter than its length prefix");
    }
    let req_len = u32::from_le_bytes(body[..4].try_into().expect("four bytes checked")) as usize;
    let rest = &body[4..];
    if req_len > rest.len() {
        return framing_error("cache_put request length exceeds the body");
    }
    let (request, response) = rest.split_at(req_len);
    match service.cache_put(request, response) {
        Ok(()) => (
            200,
            Json::Obj(vec![("status".into(), Json::str("stored"))]).canonical_bytes(),
        ),
        Err(e) => (400, error_body(&e.to_string())),
    }
}

fn parse_body<T: bi_util::Decode>(body: &[u8]) -> Result<T, Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Response::json(400, error_body("body must be UTF-8 JSON")))?;
    T::decode_str(text).map_err(|e| Response::json(400, error_body(&e.to_string())))
}

fn handle_batch(service: &SolveService, body: &[u8]) -> Response {
    let batch: BatchRequest = match parse_body(body) {
        Ok(batch) => batch,
        Err(response) => return response,
    };
    let results = service.solve_batch(&batch);
    let (mut hits, mut misses) = (0u64, 0u64);
    // The per-game bodies are already canonical JSON bytes; splice them
    // instead of re-parsing.
    let mut out = String::from(r#"{"reports":["#);
    for (i, result) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match result {
            Ok(outcome) => {
                if outcome.cache_hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
                out.push_str(r#"{"report":"#);
                out.push_str(std::str::from_utf8(&outcome.body).expect("canonical JSON is UTF-8"));
                out.push('}');
            }
            Err(e) => {
                out.push_str(
                    std::str::from_utf8(&error_body(&e.to_string()))
                        .expect("canonical JSON is UTF-8"),
                );
            }
        }
    }
    out.push_str("]}");
    Response::json(200, out.into_bytes())
        .with_header("X-Cache-Hits", hits.to_string())
        .with_header("X-Cache-Misses", misses.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_every_endpoint() {
        assert_eq!(classify(b"POST", b"/solve"), Target::Solve);
        assert_eq!(classify(b"POST", b"/solve_batch"), Target::Batch);
        assert_eq!(classify(b"POST", b"/cache_put"), Target::CachePut);
        assert_eq!(classify(b"GET", b"/cache_put"), Target::MethodNotAllowed);
        assert_eq!(classify(b"GET", b"/healthz"), Target::Healthz);
        assert_eq!(classify(b"GET", b"/metrics"), Target::Metrics);
        assert_eq!(classify(b"GET", b"/debug/trace"), Target::DebugTrace);
        assert_eq!(classify(b"DELETE", b"/solve"), Target::MethodNotAllowed);
        assert_eq!(classify(b"POST", b"/healthz"), Target::MethodNotAllowed);
        assert_eq!(classify(b"POST", b"/debug/trace"), Target::MethodNotAllowed);
        assert_eq!(classify(b"GET", b"/nope"), Target::NotFound);
    }

    #[test]
    fn cache_put_handler_answers_400_to_invalid_bodies() {
        let service = SolveService::new(CacheConfig::default());
        let request = br#"{"game":{"kind":"matrix","game":{}}}"#;
        let mut framed = (request.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(request);
        framed.extend_from_slice(b"not a report");
        for body in [&b"ab"[..], &[9, 0, 0, 0, b'x'], &framed] {
            assert_eq!(handle_cache_put(&service, body).0, 400);
        }
        let metrics = service.metrics();
        assert_eq!(metrics.cache_put_rejected.load(Ordering::Relaxed), 3);
        assert_eq!(metrics.cache_puts.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn batch_handler_maps_parse_errors_to_400() {
        let service = SolveService::new(CacheConfig::default());
        assert_eq!(handle_batch(&service, b"not json").status, 400);
        assert_eq!(handle_batch(&service, &[0xff, 0xfe]).status, 400);
        assert_eq!(handle_batch(&service, b"{}").status, 400);
    }
}
