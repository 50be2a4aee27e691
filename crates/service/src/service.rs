//! The transport-independent service core: typed requests, the
//! content-addressed cache keying, and the solve/batch handlers the HTTP
//! server (and any future transport) routes into.
//!
//! Request wire forms:
//!
//! * `POST /solve` — `{"game": {"kind": "matrix"|"ncs", "game": …},
//!   "config": SolverConfig}` (`config` optional, defaults to
//!   [`SolverConfig::default`]); the response body is the canonical
//!   [`SolveReport`] JSON — byte-identical to encoding an in-process
//!   [`Solver::solve`] result.
//! * `POST /solve_batch` — `{"games": [GameSpec, …], "config": …}`: one
//!   shared config, many games (e.g. a family of priors over one
//!   underlying graph). Uncached games go through
//!   [`Solver::solve_many`], so the batch parallelizes across games; the
//!   response is `{"reports": [{"report": …} | {"error": …}, …]}`,
//!   aligned by index.
//!
//! The cache key is the canonical bytes of `{game, backend, budget,
//! symmetry}` — the thread count is deliberately **excluded** (sweeps are
//! bit-for-bit identical across thread counts, so results are shareable
//! across differently-threaded clients), but the symmetry mode is
//! **included**: orbit-reduced reports carry different `orbit` stats and
//! `profiles_evaluated` counts than full sweeps, so the bodies differ.

use std::sync::Arc;

use bi_core::solve::{SolveError, SolveReport, Solver, SolverConfig};
use bi_core::BayesianGame;
use bi_ncs::BayesianNcsGame;
use bi_obs::{Recorder, Stage, TraceCtx};
use bi_util::json::field;
use bi_util::{CodecError, Decode, Encode, Json};

use crate::cache::{CacheConfig, CacheStats, ShardedLru};
use crate::metrics::ServiceMetrics;
use crate::persist::{DiskTier, DiskTierStats};

/// A solvable game in either representation the solver serves.
#[derive(Clone, Debug)]
pub enum GameSpec {
    /// A matrix-form Bayesian game (`bi-core`).
    Matrix(BayesianGame),
    /// A Bayesian network cost-sharing game (`bi-ncs`).
    Ncs(BayesianNcsGame),
}

impl Encode for GameSpec {
    fn encode(&self) -> Json {
        let (kind, game) = match self {
            GameSpec::Matrix(g) => ("matrix", g.encode()),
            GameSpec::Ncs(g) => ("ncs", g.encode()),
        };
        Json::Obj(vec![
            ("kind".into(), Json::str(kind)),
            ("game".into(), game),
        ])
    }
}

impl Decode for GameSpec {
    fn decode(v: &Json) -> Result<Self, CodecError> {
        match bi_util::json::field_str(v, "kind")? {
            "matrix" => Ok(GameSpec::Matrix(
                BayesianGame::decode(field(v, "game")?).map_err(|e| e.context("game"))?,
            )),
            "ncs" => Ok(GameSpec::Ncs(
                BayesianNcsGame::decode(field(v, "game")?).map_err(|e| e.context("game"))?,
            )),
            other => Err(CodecError::new(format!("unknown game kind `{other}`"))),
        }
    }
}

/// One `POST /solve` request: a game plus the solver configuration.
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// The game to solve.
    pub game: GameSpec,
    /// How to solve it.
    pub config: SolverConfig,
}

impl Encode for SolveRequest {
    fn encode(&self) -> Json {
        Json::Obj(vec![
            ("game".into(), self.game.encode()),
            ("config".into(), self.config.encode()),
        ])
    }
}

impl Decode for SolveRequest {
    fn decode(v: &Json) -> Result<Self, CodecError> {
        let game = GameSpec::decode(field(v, "game")?).map_err(|e| e.context("game"))?;
        let config = match v.get("config") {
            None | Some(Json::Null) => SolverConfig::default(),
            Some(c) => SolverConfig::decode(c).map_err(|e| e.context("config"))?,
        };
        Ok(SolveRequest { game, config })
    }
}

/// One `POST /solve_batch` request: many games, one shared configuration.
#[derive(Clone, Debug)]
pub struct BatchRequest {
    /// The games to solve, answered in order.
    pub games: Vec<GameSpec>,
    /// The shared solver configuration.
    pub config: SolverConfig,
}

impl Encode for BatchRequest {
    fn encode(&self) -> Json {
        Json::Obj(vec![
            (
                "games".into(),
                Json::Arr(self.games.iter().map(Encode::encode).collect()),
            ),
            ("config".into(), self.config.encode()),
        ])
    }
}

impl Decode for BatchRequest {
    fn decode(v: &Json) -> Result<Self, CodecError> {
        let games = bi_util::json::field_arr(v, "games")?
            .iter()
            .enumerate()
            .map(|(i, g)| GameSpec::decode(g).map_err(|e| e.context(&format!("games[{i}]"))))
            .collect::<Result<Vec<_>, _>>()?;
        let config = match v.get("config") {
            None | Some(Json::Null) => SolverConfig::default(),
            Some(c) => SolverConfig::decode(c).map_err(|e| e.context("config"))?,
        };
        Ok(BatchRequest { games, config })
    }
}

/// The result of routing one solve through the cache.
#[derive(Clone, Debug)]
pub struct SolveOutcome {
    /// The canonical [`SolveReport`] JSON bytes (shared with the cache).
    pub body: Arc<[u8]>,
    /// Whether the cache answered (no engine work happened).
    pub cache_hit: bool,
}

/// A `POST /solve` answer the service produced without blocking the
/// transport: either a cache hit served inline or a completed solve.
#[derive(Clone, Debug)]
pub struct ServedResponse {
    /// The canonical [`SolveReport`] JSON bytes (shared with the cache).
    pub body: Arc<[u8]>,
    /// Whether the cache answered (no engine work happened).
    pub cache_hit: bool,
    /// Whether the answer came straight off the raw-byte index: the
    /// request body was already canonical and byte-identical to a prior
    /// one, so no JSON value tree was built at any point.
    pub zero_copy: bool,
}

/// A decoded cache miss, ready to cross into the solver pool. Produced by
/// [`SolveService::try_serve_fast`], consumed by
/// [`SolveService::complete_solve`] — the decode work happens exactly
/// once, on the transport thread, and only the solve itself moves.
#[derive(Debug)]
pub struct PreparedSolve {
    request: SolveRequest,
    key: Vec<u8>,
    /// The raw body bytes when they were canonical — inserted into the
    /// raw index on success so the next byte-identical body is zero-copy.
    raw: Option<Vec<u8>>,
    /// The trace context this miss was prepared under; the solver thread
    /// records its `solve`/`encode` spans into the same trace.
    ctx: TraceCtx,
}

impl PreparedSolve {
    /// The decoded request (for transports that need to inspect it).
    #[must_use]
    pub fn request(&self) -> &SolveRequest {
        &self.request
    }

    /// The trace context the miss carries into the solver pool.
    #[must_use]
    pub fn ctx(&self) -> TraceCtx {
        self.ctx
    }
}

/// What [`SolveService::try_serve_fast`] decided for one `POST /solve`
/// body.
#[derive(Debug)]
pub enum FastOutcome {
    /// Answered from cache — the transport can write the bytes
    /// immediately without involving the solver pool.
    Hit(ServedResponse),
    /// A cache miss: hand the prepared solve to a solver thread and
    /// finish with [`SolveService::complete_solve`].
    Miss(Box<PreparedSolve>),
}

/// The serving core: a solve cache plus service counters, shared by all
/// worker threads.
///
/// Two caches back the service. The primary cache is keyed by the
/// content address ([`SolveService::cache_key`]) and is what `solve` /
/// `solve_batch` consult. The **raw index** maps exact request-body
/// bytes (only bodies [`bi_util::json::canon_check`] accepts) to the
/// same shared response `Arc`s, giving the transport a zero-parse hit
/// path: byte-identical body ⟹ identical parse ⟹ identical result, so
/// exact-byte keying is correct regardless of how conservatively the
/// canonicality check classifies a body.
pub struct SolveService {
    cache: ShardedLru<Arc<[u8]>>,
    /// Exact request-body bytes → response bytes, canonical bodies only.
    raw_index: ShardedLru<Arc<[u8]>>,
    /// The second tier: LRU misses are looked up here (and promoted on a
    /// hit); every computed report is appended behind the hot path. A
    /// restarted node answers its old key space warm.
    disk: Option<DiskTier>,
    metrics: ServiceMetrics,
    /// The span flight recorder every stage of this node records into
    /// (`GET /debug/trace` dumps it). The router shares its recorder
    /// with its fallback service so local-serve spans land in the same
    /// dump as routing spans.
    recorder: Arc<Recorder>,
}

impl SolveService {
    /// Creates a service with the given cache sizing (the raw-byte index
    /// is sized identically) and no disk tier.
    #[must_use]
    pub fn new(cache: CacheConfig) -> Self {
        Self::with_disk(cache, None)
    }

    /// [`SolveService::new`] with an optional disk-backed second tier.
    #[must_use]
    pub fn with_disk(cache: CacheConfig, disk: Option<DiskTier>) -> Self {
        Self::with_recorder(cache, disk, Arc::new(Recorder::default()))
    }

    /// [`SolveService::with_disk`] recording spans into a caller-owned
    /// flight recorder (how the router and its local fallback service
    /// share one `/debug/trace` dump).
    #[must_use]
    pub fn with_recorder(
        cache: CacheConfig,
        disk: Option<DiskTier>,
        recorder: Arc<Recorder>,
    ) -> Self {
        SolveService {
            cache: ShardedLru::new(cache),
            raw_index: ShardedLru::new(cache),
            disk,
            metrics: ServiceMetrics::default(),
            recorder,
        }
    }

    /// The disk tier's snapshot (`None` when the node runs memory-only).
    #[must_use]
    pub fn disk_stats(&self) -> Option<DiskTierStats> {
        self.disk.as_ref().map(DiskTier::stats)
    }

    /// Blocks until every disk append queued so far is durable — orderly
    /// shutdown and the restart tests; the serving path never calls this.
    pub fn sync_disk(&self) {
        if let Some(disk) = &self.disk {
            disk.sync();
        }
    }

    /// Looks `key` up in the disk tier, promoting a hit into the LRU so
    /// the next lookup stays in memory. A hit records the promotion as
    /// a `disk_promote` stage (read + decompress + LRU insert).
    fn disk_lookup(&self, key: &[u8], ctx: TraceCtx) -> Option<Arc<[u8]>> {
        let disk = self.disk.as_ref()?;
        let t0 = self.recorder.now_ns();
        let bytes = disk.get(key)?;
        let body: Arc<[u8]> = Arc::from(bytes);
        self.cache.insert(key, Arc::clone(&body));
        self.finish_stage(ctx, Stage::DiskPromote, t0);
        Some(body)
    }

    /// Closes one pipeline stage: feeds the per-stage histogram always,
    /// and records a span when the request is traced.
    fn finish_stage(&self, ctx: TraceCtx, stage: Stage, t0: u64) {
        let t1 = self.recorder.now_ns();
        self.metrics
            .stages
            .record(stage, t1.saturating_sub(t0) / 1_000);
        if ctx.active() {
            self.recorder
                .record(ctx.trace_id, ctx.parent, stage, t0, t1);
        }
    }

    /// Closes a transport-side `encode` stage opened at `t0` (the hit
    /// path's response staging): histogram always, a span when traced.
    pub fn finish_encode_stage(&self, ctx: TraceCtx, t0: u64) {
        self.finish_stage(ctx, Stage::Encode, t0);
    }

    /// The span flight recorder this node records into.
    #[must_use]
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// The `GET /debug/trace` document.
    #[must_use]
    pub fn trace_json(&self) -> Json {
        self.recorder.to_json()
    }

    /// The service counters (the server records statuses here too).
    #[must_use]
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The cache effectiveness snapshot.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The `GET /metrics` document.
    #[must_use]
    pub fn metrics_json(&self) -> Json {
        self.metrics.to_json(self.cache.stats(), self.disk_stats())
    }

    /// The content address of a request: canonical bytes of
    /// `{game, backend, budget, symmetry}` (threads excluded — they never
    /// change results; the symmetry mode is included because it changes
    /// the report's `orbit` stats and `profiles_evaluated`).
    #[must_use]
    pub fn cache_key(game: &GameSpec, config: &SolverConfig) -> Vec<u8> {
        Json::Obj(vec![
            ("game".into(), game.encode()),
            ("backend".into(), config.backend.encode()),
            ("budget".into(), config.budget.encode()),
            ("symmetry".into(), config.symmetry.encode()),
        ])
        .canonical_bytes()
    }

    /// Solves one request through the cache. On a miss the report is
    /// computed by [`Solver::solve`], encoded canonically, and inserted;
    /// on a hit the engine is never invoked.
    ///
    /// # Errors
    ///
    /// Returns the engine's [`SolveError`] (never cached).
    pub fn solve(&self, request: &SolveRequest) -> Result<SolveOutcome, SolveError> {
        let key = Self::cache_key(&request.game, &request.config);
        if let Some(body) = self.cache.get(&key) {
            return Ok(SolveOutcome {
                body,
                cache_hit: true,
            });
        }
        if let Some(body) = self.disk_lookup(&key, TraceCtx::NONE) {
            return Ok(SolveOutcome {
                body,
                cache_hit: true,
            });
        }
        let solver = Solver::from_config(request.config);
        let started = std::time::Instant::now();
        let result = match &request.game {
            GameSpec::Matrix(g) => solver.solve(g),
            GameSpec::Ncs(g) => solver.solve(g),
        };
        // Recorded before the `?` so failed invocations count too, same
        // as the batch path: the histogram tracks engine invocations, not
        // successes.
        self.record_solve_time(started);
        let report = result?;
        self.record_computed(&report);
        Ok(SolveOutcome {
            body: self.insert_report(key, &report),
            cache_hit: false,
        })
    }

    /// The transport fast path for one `POST /solve` body. Canonical
    /// bodies are first looked up in the raw-byte index — a hit there is
    /// served without building any JSON value tree. Otherwise the body is
    /// decoded once, the primary cache consulted, and on a miss the
    /// decoded request comes back as a [`PreparedSolve`] for the solver
    /// pool; the transport never decodes twice.
    ///
    /// # Errors
    ///
    /// Returns the [`CodecError`] when the body is not valid UTF-8 or
    /// fails to decode as a solve request.
    pub fn try_serve_fast(&self, body: &[u8], ctx: TraceCtx) -> Result<FastOutcome, CodecError> {
        // The whole lookup — raw index, decode, LRU, disk probe — is the
        // `cache` stage of the request; the disk tier additionally
        // records a nested `disk_promote` on a second-tier hit.
        let t0 = self.recorder.now_ns();
        let canonical = bi_util::json::canon_check(body);
        if canonical {
            if let Some(cached) = self.raw_index.get(body) {
                self.metrics
                    .zero_copy_hits
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.finish_stage(ctx, Stage::Cache, t0);
                return Ok(FastOutcome::Hit(ServedResponse {
                    body: cached,
                    cache_hit: true,
                    zero_copy: true,
                }));
            }
        }
        let text = std::str::from_utf8(body)
            .map_err(|_| CodecError::new("request body is not valid UTF-8"))?;
        let request = SolveRequest::decode_str(text)?;
        let key = Self::cache_key(&request.game, &request.config);
        let raw = canonical.then(|| body.to_vec());
        let cached = self.cache.get(&key).or_else(|| self.disk_lookup(&key, ctx));
        if let Some(cached) = cached {
            self.metrics
                .parsed_hits
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            // Warm the raw index so the next byte-identical body skips
            // the parse entirely.
            if let Some(raw) = &raw {
                self.raw_index.insert(raw, Arc::clone(&cached));
            }
            self.finish_stage(ctx, Stage::Cache, t0);
            return Ok(FastOutcome::Hit(ServedResponse {
                body: cached,
                cache_hit: true,
                zero_copy: false,
            }));
        }
        self.finish_stage(ctx, Stage::Cache, t0);
        Ok(FastOutcome::Miss(Box::new(PreparedSolve {
            request,
            key,
            raw,
            ctx,
        })))
    }

    /// Finishes a [`PreparedSolve`] on a solver thread: runs the engine,
    /// populates both caches, and returns the response bytes.
    ///
    /// # Errors
    ///
    /// Returns the engine's [`SolveError`] (never cached).
    pub fn complete_solve(&self, prepared: PreparedSolve) -> Result<ServedResponse, SolveError> {
        let PreparedSolve {
            request,
            key,
            raw,
            ctx,
        } = prepared;
        let solver = Solver::from_config(request.config);
        let t_solve = self.recorder.now_ns();
        let started = std::time::Instant::now();
        let result = match &request.game {
            GameSpec::Matrix(g) => solver.solve(g),
            GameSpec::Ncs(g) => solver.solve(g),
        };
        self.record_solve_time(started);
        if ctx.active() {
            let t1 = self.recorder.now_ns();
            self.recorder
                .record(ctx.trace_id, ctx.parent, Stage::Solve, t_solve, t1);
        }
        let report = result?;
        self.record_computed(&report);
        let t_encode = self.recorder.now_ns();
        let body = self.insert_report(key, &report);
        if let Some(raw) = &raw {
            self.raw_index.insert(raw, Arc::clone(&body));
        }
        self.finish_stage(ctx, Stage::Encode, t_encode);
        Ok(ServedResponse {
            body,
            cache_hit: false,
            zero_copy: false,
        })
    }

    /// Solves a batch: answers cached games immediately, routes the
    /// misses of each representation through one [`Solver::solve_many`]
    /// call (games parallelize across the solver's threads), and returns
    /// per-game results aligned with the input order.
    pub fn solve_batch(&self, batch: &BatchRequest) -> Vec<Result<SolveOutcome, SolveError>> {
        let solver = Solver::from_config(batch.config);
        let mut results: Vec<Option<Result<SolveOutcome, SolveError>>> =
            batch.games.iter().map(|_| None).collect();
        let mut matrix_misses: Vec<(usize, Vec<u8>, &BayesianGame)> = Vec::new();
        let mut ncs_misses: Vec<(usize, Vec<u8>, &BayesianNcsGame)> = Vec::new();
        for (i, game) in batch.games.iter().enumerate() {
            let key = Self::cache_key(game, &batch.config);
            if let Some(body) = self
                .cache
                .get(&key)
                .or_else(|| self.disk_lookup(&key, TraceCtx::NONE))
            {
                results[i] = Some(Ok(SolveOutcome {
                    body,
                    cache_hit: true,
                }));
            } else {
                match game {
                    GameSpec::Matrix(g) => matrix_misses.push((i, key, g)),
                    GameSpec::Ncs(g) => ncs_misses.push((i, key, g)),
                }
            }
        }
        let matrix_refs: Vec<&BayesianGame> = matrix_misses.iter().map(|(_, _, g)| *g).collect();
        if !matrix_refs.is_empty() {
            let started = std::time::Instant::now();
            let matrix_results = solver.solve_many(&matrix_refs);
            self.record_solve_time(started);
            for ((i, key, _), result) in matrix_misses.into_iter().zip(matrix_results) {
                results[i] = Some(self.finish_miss(key, result));
            }
        }
        let ncs_refs: Vec<&BayesianNcsGame> = ncs_misses.iter().map(|(_, _, g)| *g).collect();
        if !ncs_refs.is_empty() {
            let started = std::time::Instant::now();
            let ncs_results = solver.solve_many(&ncs_refs);
            self.record_solve_time(started);
            for ((i, key, _), result) in ncs_misses.into_iter().zip(ncs_results) {
                results[i] = Some(self.finish_miss(key, result));
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every game is either a hit or a routed miss"))
            .collect()
    }

    /// Feeds one engine invocation's wall-clock into the cold-path
    /// histogram (`solve_us` in `GET /metrics`) and the `solve` stage
    /// histogram.
    fn record_solve_time(&self, started: std::time::Instant) {
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.metrics.solve_us.record(micros);
        self.metrics.stages.record(Stage::Solve, micros);
    }

    /// Bumps the per-solve counters for a freshly computed report,
    /// including the orbit-reduction counters when the sweep was
    /// symmetry-reduced.
    fn record_computed(&self, report: &SolveReport) {
        self.metrics
            .solves_computed
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if let Some(orbit) = &report.orbit {
            self.metrics
                .record_orbit_sweep(orbit.orbits_evaluated, orbit.profiles_represented);
        }
    }

    fn finish_miss(
        &self,
        key: Vec<u8>,
        result: Result<SolveReport, SolveError>,
    ) -> Result<SolveOutcome, SolveError> {
        let report = result?;
        self.record_computed(&report);
        Ok(SolveOutcome {
            body: self.insert_report(key, &report),
            cache_hit: false,
        })
    }

    /// Installs a peer-shipped response without solving — the handler
    /// behind `POST /cache_put`, which a router uses for replication
    /// write-through and read-repair. The embedded solve request is
    /// decoded to recompute the content address. The response must be a
    /// [`SolveReport`] whose canonical encoding is byte-identical to it
    /// and whose measures pass [`verify_chain`]; it is then stored
    /// verbatim, so a repaired node serves byte-identical answers to the
    /// node that solved them.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the request is not a valid solve
    /// request or the response fails validation. Nothing is stored, and
    /// the rejection is counted (`cache_put_rejected` in `GET /metrics`).
    ///
    /// [`verify_chain`]: bi_core::Measures::verify_chain
    pub fn cache_put(&self, request_body: &[u8], response_body: &[u8]) -> Result<(), CodecError> {
        let key = match Self::validate_cache_put(request_body, response_body) {
            Ok(key) => key,
            Err(e) => {
                self.metrics
                    .cache_put_rejected
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                return Err(e);
            }
        };
        let body: Arc<[u8]> = Arc::from(response_body.to_vec());
        self.cache.insert(&key, Arc::clone(&body));
        if bi_util::json::canon_check(request_body) {
            // Canonical request bytes warm the zero-copy index too, so a
            // repaired node's next hit skips the parse entirely.
            self.raw_index.insert(request_body, Arc::clone(&body));
        }
        if let Some(disk) = &self.disk {
            disk.append_shared(&key, body);
        }
        self.metrics
            .cache_puts
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    /// The cache key of a peer-shipped pair, once the response is shown
    /// to be a canonical report that satisfies Observation 2.2's chain.
    fn validate_cache_put(
        request_body: &[u8],
        response_body: &[u8],
    ) -> Result<Vec<u8>, CodecError> {
        let utf8 = |bytes, what: &str| {
            std::str::from_utf8(bytes)
                .map_err(|_| CodecError::new(format!("cache_put {what} bytes are not valid UTF-8")))
        };
        let request = SolveRequest::decode_str(utf8(request_body, "request")?)?;
        let report = SolveReport::decode_str(utf8(response_body, "response")?)
            .map_err(|e| e.context("cache_put response"))?;
        if report.canonical_bytes() != response_body {
            return Err(CodecError::new(
                "cache_put response is not the canonical report encoding",
            ));
        }
        report
            .measures
            .verify_chain()
            .map_err(|e| CodecError::new(format!("cache_put response: {e}")))?;
        Ok(Self::cache_key(&request.game, &request.config))
    }

    fn insert_report(&self, key: Vec<u8>, report: &SolveReport) -> Arc<[u8]> {
        let body: Arc<[u8]> = Arc::from(report.canonical_bytes());
        self.cache.insert(&key, Arc::clone(&body));
        if let Some(disk) = &self.disk {
            // Write-behind: the append is queued, never blocking a
            // solver or transport thread.
            disk.append_shared(&key, Arc::clone(&body));
        }
        body
    }
}

/// A JSON error body: `{"error": "..."}`.
#[must_use]
pub fn error_body(msg: &str) -> Vec<u8> {
    Json::Obj(vec![("error".into(), Json::str(msg))])
        .canonical_string()
        .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bi_core::random_games::random_bayesian_potential_game;
    use bi_core::solve::Backend;
    use bi_graph::{Direction, Graph};
    use bi_ncs::Prior;

    fn matrix_game(seed: u64) -> GameSpec {
        GameSpec::Matrix(random_bayesian_potential_game(&[2, 2], &[2, 2], 2, seed).0)
    }

    fn ncs_game() -> GameSpec {
        let mut g = Graph::new(Direction::Directed);
        let s = g.add_node();
        let m = g.add_node();
        let t = g.add_node();
        g.add_edge(s, m, 1.0);
        g.add_edge(m, t, 1.0);
        g.add_edge(s, t, 3.0);
        let prior = Prior::independent(vec![
            vec![((s, t), 1.0)],
            vec![((s, t), 0.5), ((s, s), 0.5)],
        ]);
        GameSpec::Ncs(BayesianNcsGame::new(g, prior).unwrap())
    }

    fn request(game: GameSpec) -> SolveRequest {
        SolveRequest {
            game,
            config: SolverConfig::default(),
        }
    }

    #[test]
    fn solve_results_match_the_in_process_engine_exactly() {
        let service = SolveService::new(CacheConfig::default());
        for game in [matrix_game(1), ncs_game()] {
            let outcome = service.solve(&request(game.clone())).unwrap();
            assert!(!outcome.cache_hit);
            let direct = match &game {
                GameSpec::Matrix(g) => Solver::default().solve(g).unwrap(),
                GameSpec::Ncs(g) => Solver::default().solve(g).unwrap(),
            };
            assert_eq!(
                outcome.body.as_ref(),
                direct.canonical_bytes().as_slice(),
                "service bytes must be identical to the in-process report"
            );
        }
    }

    #[test]
    fn resubmission_hits_the_cache() {
        let service = SolveService::new(CacheConfig::default());
        let req = request(matrix_game(2));
        let cold = service.solve(&req).unwrap();
        let warm = service.solve(&req).unwrap();
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit);
        assert_eq!(cold.body, warm.body);
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn thread_count_does_not_split_the_cache() {
        let service = SolveService::new(CacheConfig::default());
        let game = matrix_game(3);
        let one = SolveRequest {
            game: game.clone(),
            config: SolverConfig {
                threads: 1,
                ..SolverConfig::default()
            },
        };
        let four = SolveRequest {
            game,
            config: SolverConfig {
                threads: 4,
                ..SolverConfig::default()
            },
        };
        assert_eq!(
            SolveService::cache_key(&one.game, &one.config),
            SolveService::cache_key(&four.game, &four.config)
        );
        service.solve(&one).unwrap();
        assert!(service.solve(&four).unwrap().cache_hit);
    }

    /// Three interchangeable binary agents — `Auto` symmetry reduces its
    /// 8-profile sweep to 4 orbits.
    fn symmetric_game() -> GameSpec {
        let g = bi_core::MatrixFormGame::from_fn(3, &[2, 2, 2], |_, a| {
            a.iter().map(|&x| (x + 1) as f64).sum()
        });
        GameSpec::Matrix(BayesianGame::new(vec![1, 1, 1], vec![(vec![0, 0, 0], 1.0, g)]).unwrap())
    }

    #[test]
    fn symmetry_mode_splits_the_cache_and_feeds_orbit_metrics() {
        let service = SolveService::new(CacheConfig::default());
        let game = symmetric_game();
        let off = SolveRequest {
            game: game.clone(),
            config: SolverConfig::default(),
        };
        let auto = SolveRequest {
            game,
            config: SolverConfig {
                symmetry: bi_core::SymmetryMode::Auto,
                ..SolverConfig::default()
            },
        };
        // Orbit-reduced reports carry different bytes, so the key must
        // differ — an `Auto` request after an `Off` one is a miss.
        assert_ne!(
            SolveService::cache_key(&off.game, &off.config),
            SolveService::cache_key(&auto.game, &auto.config)
        );
        let full = service.solve(&off).unwrap();
        let reduced = service.solve(&auto).unwrap();
        assert!(!reduced.cache_hit);
        assert_ne!(full.body, reduced.body);
        // Only the reduced solve feeds the orbit counters: 4 orbits
        // representing all 8 profiles.
        let m = service.metrics();
        assert_eq!(m.orbit_sweeps.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(
            m.orbits_evaluated
                .load(std::sync::atomic::Ordering::Relaxed),
            4
        );
        assert_eq!(
            m.orbit_profiles_represented
                .load(std::sync::atomic::Ordering::Relaxed),
            8
        );
        let doc = service.metrics_json();
        let orbit = doc.get("orbit").unwrap();
        assert_eq!(orbit.get("sweeps").unwrap().as_u64(), Some(1));
        // And both measures agree (the reduced body differs only in the
        // orbit/profiles fields).
        assert!(service.solve(&auto).unwrap().cache_hit);
    }

    #[test]
    fn different_backends_are_different_content() {
        let game = matrix_game(4);
        let exhaustive = request(game.clone());
        let sampled = SolveRequest {
            game,
            config: SolverConfig {
                backend: Backend::MonteCarloSampling {
                    samples: 16,
                    seed: 1,
                },
                ..SolverConfig::default()
            },
        };
        assert_ne!(
            SolveService::cache_key(&exhaustive.game, &exhaustive.config),
            SolveService::cache_key(&sampled.game, &sampled.config)
        );
    }

    #[test]
    fn batches_mix_hits_misses_and_representations() {
        let service = SolveService::new(CacheConfig::default());
        // Pre-warm one of the games.
        service.solve(&request(matrix_game(5))).unwrap();
        let batch = BatchRequest {
            games: vec![matrix_game(5), matrix_game(6), ncs_game()],
            config: SolverConfig::default(),
        };
        let results = service.solve_batch(&batch);
        assert_eq!(results.len(), 3);
        assert!(results[0].as_ref().unwrap().cache_hit);
        assert!(!results[1].as_ref().unwrap().cache_hit);
        assert!(!results[2].as_ref().unwrap().cache_hit);
        // Each answer matches a direct solve.
        for (game, result) in batch.games.iter().zip(&results) {
            let direct = match game {
                GameSpec::Matrix(g) => Solver::default().solve(g).unwrap(),
                GameSpec::Ncs(g) => Solver::default().solve(g).unwrap(),
            };
            assert_eq!(
                result.as_ref().unwrap().body.as_ref(),
                direct.canonical_bytes().as_slice()
            );
        }
    }

    #[test]
    fn engine_errors_pass_through_and_are_not_cached() {
        let service = SolveService::new(CacheConfig::default());
        let req = SolveRequest {
            game: matrix_game(7),
            config: SolverConfig {
                budget: bi_core::solve::Budget {
                    max_profiles: 1,
                    max_iterations: 8,
                },
                ..SolverConfig::default()
            },
        };
        assert!(matches!(
            service.solve(&req),
            Err(SolveError::BudgetExceeded { .. })
        ));
        assert_eq!(service.cache_stats().insertions, 0);
        // Batch errors stay per-game.
        let results = service.solve_batch(&BatchRequest {
            games: vec![req.game.clone()],
            config: req.config,
        });
        assert!(matches!(results[0], Err(SolveError::BudgetExceeded { .. })));
    }

    #[test]
    fn cold_solves_feed_the_latency_histogram() {
        let service = SolveService::new(CacheConfig::default());
        let req = request(matrix_game(9));
        service.solve(&req).unwrap();
        assert_eq!(service.metrics().solve_us.count(), 1);
        // A cache hit never touches the engine or the histogram.
        service.solve(&req).unwrap();
        assert_eq!(service.metrics().solve_us.count(), 1);
        // A batch with misses records one engine sample per representation
        // batch; a fully-cached batch records none.
        let batch = BatchRequest {
            games: vec![req.game.clone(), matrix_game(10), ncs_game()],
            config: req.config,
        };
        service.solve_batch(&batch);
        assert_eq!(service.metrics().solve_us.count(), 3);
        service.solve_batch(&batch);
        assert_eq!(service.metrics().solve_us.count(), 3);
        // Failed engine invocations count too (same population as the
        // batch path).
        let unsolvable = SolveRequest {
            game: matrix_game(11),
            config: SolverConfig {
                budget: bi_core::solve::Budget {
                    max_profiles: 1,
                    max_iterations: 8,
                },
                ..SolverConfig::default()
            },
        };
        assert!(service.solve(&unsolvable).is_err());
        assert_eq!(service.metrics().solve_us.count(), 4);
        let doc = service.metrics_json();
        let solve = doc.get("solve_us").unwrap();
        assert_eq!(solve.get("count").unwrap().as_u64(), Some(4));
        assert!(solve.get("p99").unwrap().as_u64().is_some());
    }

    #[test]
    fn fast_path_goes_zero_copy_after_first_sighting() {
        let service = SolveService::new(CacheConfig::default());
        let req = request(matrix_game(12));
        let body = req.encode().canonical_bytes();
        // First sighting: decode once, miss, solve.
        let prepared = match service.try_serve_fast(&body, TraceCtx::NONE).unwrap() {
            FastOutcome::Miss(p) => p,
            other => panic!("expected a miss, got {other:?}"),
        };
        let cold = service.complete_solve(*prepared).unwrap();
        assert!(!cold.cache_hit && !cold.zero_copy);
        // Second sighting of the exact same canonical bytes: answered
        // off the raw index, no parse.
        let warm = match service.try_serve_fast(&body, TraceCtx::NONE).unwrap() {
            FastOutcome::Hit(r) => r,
            other => panic!("expected a hit, got {other:?}"),
        };
        assert!(warm.cache_hit && warm.zero_copy);
        assert_eq!(cold.body, warm.body);
        // A non-canonical spelling of the same request still hits — via
        // the parse path — and yields byte-identical response bytes.
        let mut spaced = b" ".to_vec();
        spaced.extend_from_slice(&body);
        let parsed = match service.try_serve_fast(&spaced, TraceCtx::NONE).unwrap() {
            FastOutcome::Hit(r) => r,
            other => panic!("expected a hit, got {other:?}"),
        };
        assert!(parsed.cache_hit && !parsed.zero_copy);
        assert_eq!(parsed.body, warm.body);
        // And the blocking path agrees byte-for-byte.
        assert_eq!(service.solve(&req).unwrap().body, warm.body);
        let m = service.metrics();
        assert_eq!(
            m.zero_copy_hits.load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        assert_eq!(m.parsed_hits.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn parsed_hits_warm_the_raw_index() {
        let service = SolveService::new(CacheConfig::default());
        let req = request(matrix_game(13));
        // Populate the primary cache through the blocking path — the raw
        // index has never seen these bytes.
        service.solve(&req).unwrap();
        let body = req.encode().canonical_bytes();
        let first = match service.try_serve_fast(&body, TraceCtx::NONE).unwrap() {
            FastOutcome::Hit(r) => r,
            other => panic!("expected a hit, got {other:?}"),
        };
        assert!(!first.zero_copy, "first sighting must take the parse path");
        let second = match service.try_serve_fast(&body, TraceCtx::NONE).unwrap() {
            FastOutcome::Hit(r) => r,
            other => panic!("expected a hit, got {other:?}"),
        };
        assert!(second.zero_copy, "the parsed hit must warm the raw index");
        assert_eq!(first.body, second.body);
    }

    #[test]
    fn traced_requests_record_cache_solve_and_encode_spans() {
        let service = SolveService::new(CacheConfig::default());
        let trace = service.recorder().new_trace_id();
        let root = service.recorder().next_span_id();
        let ctx = TraceCtx {
            trace_id: trace,
            parent: root,
        };
        let body = request(matrix_game(20)).encode().canonical_bytes();
        let prepared = match service.try_serve_fast(&body, ctx).unwrap() {
            FastOutcome::Miss(p) => p,
            other => panic!("expected a miss, got {other:?}"),
        };
        assert_eq!(prepared.ctx(), ctx);
        service.complete_solve(*prepared).unwrap();
        let spans = service.recorder().trace_spans(trace);
        let stages: Vec<&str> = spans.iter().map(|s| s.stage.name()).collect();
        assert!(stages.contains(&"cache"), "stages: {stages:?}");
        assert!(stages.contains(&"solve"), "stages: {stages:?}");
        assert!(stages.contains(&"encode"), "stages: {stages:?}");
        assert!(
            spans.iter().all(|s| s.parent == root),
            "every service span nests under the request root"
        );
        // The stage histograms fill regardless of tracing.
        let m = service.metrics();
        assert_eq!(m.stages.get(bi_obs::Stage::Cache).count(), 1);
        assert_eq!(m.stages.get(bi_obs::Stage::Solve).count(), 1);
        assert_eq!(m.stages.get(bi_obs::Stage::Encode).count(), 1);
        // An untraced request fills histograms but records no spans.
        let before = service.recorder().spans().len();
        let warm = request(matrix_game(20)).encode().canonical_bytes();
        match service.try_serve_fast(&warm, TraceCtx::NONE).unwrap() {
            FastOutcome::Hit(r) => assert!(r.cache_hit),
            other => panic!("expected a hit, got {other:?}"),
        }
        assert_eq!(service.recorder().spans().len(), before);
        assert_eq!(m.stages.get(bi_obs::Stage::Cache).count(), 2);
    }

    #[test]
    fn fast_path_rejects_malformed_bodies_without_solving() {
        let service = SolveService::new(CacheConfig::default());
        assert!(service.try_serve_fast(b"not json", TraceCtx::NONE).is_err());
        assert!(service
            .try_serve_fast(&[0xff, 0xfe], TraceCtx::NONE)
            .is_err());
        let err = service
            .try_serve_fast(br#"{"game":{"kind":"cubic"}}"#, TraceCtx::NONE)
            .unwrap_err();
        assert!(err.to_string().contains("unknown game kind"));
        assert_eq!(service.cache_stats().insertions, 0);
    }

    #[test]
    fn requests_round_trip_on_the_wire() {
        let req = request(matrix_game(8));
        let decoded = SolveRequest::decode(&req.encode()).unwrap();
        assert_eq!(
            SolveService::cache_key(&decoded.game, &decoded.config),
            SolveService::cache_key(&req.game, &req.config)
        );
        // Config defaults when omitted.
        let bare = Json::Obj(vec![("game".into(), req.game.encode())]);
        let decoded = SolveRequest::decode(&bare).unwrap();
        assert_eq!(decoded.config, SolverConfig::default());
        let batch = BatchRequest {
            games: vec![matrix_game(8), ncs_game()],
            config: SolverConfig::default(),
        };
        let decoded = BatchRequest::decode(&batch.encode()).unwrap();
        assert_eq!(decoded.games.len(), 2);
    }

    #[test]
    fn malformed_requests_name_the_offending_field() {
        let err = SolveRequest::decode_str(r#"{"game":{"kind":"cubic"}}"#).unwrap_err();
        assert!(err.to_string().contains("unknown game kind"));
        let err = SolveRequest::decode_str(r#"{}"#).unwrap_err();
        assert!(err.to_string().contains("missing field `game`"));
        let err = BatchRequest::decode_str(r#"{"games":[{"kind":"cubic"}]}"#).unwrap_err();
        assert!(err.to_string().contains("games[0]"));
    }

    #[test]
    fn cache_put_refuses_responses_that_are_not_canonical_valid_reports() {
        let service = SolveService::new(CacheConfig::default());
        let game = matrix_game(3);
        let request_bytes = request(game.clone()).canonical_bytes();
        let GameSpec::Matrix(g) = &game else {
            unreachable!()
        };
        let report = Solver::default().solve(g).unwrap();
        let genuine = report.canonical_bytes();
        let mut spaced = b"{ ".to_vec();
        spaced.extend_from_slice(&genuine[1..]);
        let mut broken = report;
        broken.measures.opt_p = broken.measures.worst_eq_p + 1.0;
        for body in [b"garbage".to_vec(), spaced, broken.canonical_bytes()] {
            assert!(service.cache_put(&request_bytes, &body).is_err());
            let next = service.try_serve_fast(&request_bytes, TraceCtx::NONE);
            assert!(
                matches!(next, Ok(FastOutcome::Miss(_))),
                "a refused body was stored"
            );
        }
        let count = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(count(&service.metrics().cache_put_rejected), 3);
        assert_eq!(count(&service.metrics().cache_puts), 0);
        // The genuine report is stored and served verbatim.
        service.cache_put(&request_bytes, &genuine).unwrap();
        match service.try_serve_fast(&request_bytes, TraceCtx::NONE) {
            Ok(FastOutcome::Hit(served)) => assert_eq!(&served.body[..], &genuine[..]),
            _ => panic!("the genuine report was not stored"),
        }
    }
}
