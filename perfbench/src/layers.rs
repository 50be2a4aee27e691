//! Per-layer probes: the benchmark times calls into the public functions
//! of each layer of the program, on the workload's own inputs, under
//! spans of the [`Tracer`]. Nothing here adds tracing to the program.

use std::path::Path;
use std::sync::Arc;

use bi_core::compiled::CompiledSpace;
use bi_core::solve::{SolveError, SolveReport, Solver};
use bi_core::symmetry::{Symmetry, SymmetryMode};
use bi_core::BayesianModel;
use bi_service::cluster::HashRing;
use bi_service::http::parse_head;
use bi_service::persist::{DiskTier, DiskTierConfig};
use bi_service::service::{FastOutcome, GameSpec, SolveRequest, SolveService};
use bi_service::{CacheConfig, ShardedLru, TraceCtx};
use bi_util::hash::fnv1a;
use bi_util::{Decode, Encode};

use crate::games::http_request;
use crate::report::Metric;
use crate::stats::median;
use crate::trace::Tracer;

/// What one traced solve spent in each separately timed layer call.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveTimes {
    /// `Solver::solve`, end to end.
    pub solve_ns: u64,
    /// `CompiledSpace::compile` plus `BayesianModel::lower`.
    pub lower_ns: u64,
    /// `Symmetry::detect`.
    pub detect_ns: u64,
    /// Whether `solve` itself ran detection (the `Auto` gate passed).
    pub detect_ran: bool,
    /// `BayesianModel::complete_info`.
    pub ci_ns: u64,
    /// Profiles of the full strategy space.
    pub space: u128,
}

impl SolveTimes {
    /// The sweep's share, derived: solve time minus the lower, detect (when
    /// `solve` ran it) and complete-information calls timed on their own.
    #[must_use]
    pub fn derived_sweep_ns(&self) -> f64 {
        let detect = if self.detect_ran { self.detect_ns } else { 0 };
        self.solve_ns as f64 - (self.lower_ns + detect + self.ci_ns) as f64
    }
}

/// Runs one operation's `Solver::solve` and then times the lower, detect
/// and complete-information calls on their own, each under a span whose
/// parent is `parent`.
pub fn traced_solve(
    tracer: &mut Tracer,
    op: u64,
    parent: Option<usize>,
    spec: &GameSpec,
    solver: &Solver,
) -> (Result<SolveReport, SolveError>, SolveTimes) {
    match spec {
        GameSpec::Matrix(g) => traced_model(tracer, op, parent, g, solver),
        GameSpec::Ncs(g) => traced_model(tracer, op, parent, g, solver),
    }
}

fn traced_model<M: BayesianModel>(
    tracer: &mut Tracer,
    op: u64,
    parent: Option<usize>,
    model: &M,
    solver: &Solver,
) -> (Result<SolveReport, SolveError>, SolveTimes) {
    let (report, solve_ns) = tracer.span("solve", op, parent, || solver.solve(model));
    let (space, lower_ns) = tracer.span("compiled.lower", op, parent, || {
        let space = CompiledSpace::compile(model).expect("the game compiles");
        drop(model.lower(&space));
        space
    });
    let (_, detect_ns) = tracer.span("symmetry.detect", op, parent, || {
        Symmetry::detect(model, &space)
    });
    let (_, ci_ns) = tracer.span("complete_info", op, parent, || model.complete_info());
    let size = space.space_size().expect("sized space");
    // The gate `Solver::solve` applies under `Auto` before detecting.
    let check_bill = model
        .interchangeable_check_cost()
        .saturating_mul(model.num_agents().saturating_sub(1) as u128);
    let detect_ran = solver.symmetry() == SymmetryMode::Auto
        && (check_bill < size || size > solver.budget().max_profiles);
    (
        report,
        SolveTimes {
            solve_ns,
            lower_ns,
            detect_ns,
            detect_ran,
            ci_ns,
            space: size,
        },
    )
}

/// Solver-layer metrics from a traced phase's per-operation times and
/// reports (one report per operation).
pub fn solver_metrics(
    times: &[SolveTimes],
    reports: &[SolveReport],
    pool_pass_profiles: u128,
    scaling_2t: f64,
) -> Vec<Metric> {
    let n = times.len().max(1) as f64;
    let total_solve: f64 = times.iter().map(|t| t.solve_ns as f64).sum();
    let total_ci: f64 = times.iter().map(|t| t.ci_ns as f64).sum();
    let total_sweep: f64 = times.iter().map(SolveTimes::derived_sweep_ns).sum();
    let evaluated: f64 = reports.iter().map(|r| r.profiles_evaluated as f64).sum();
    let represented: f64 = times.iter().map(|t| t.space as f64).sum();
    let fallbacks = reports.iter().filter(|r| r.orbit.is_none()).count();
    let us = |f: fn(&SolveTimes) -> u64| -> Vec<f64> {
        times.iter().map(|t| f(t) as f64 / 1e3).collect()
    };
    vec![
        Metric::median_of("compiled.lower_us", "us", &us(|t| t.lower_ns)),
        Metric::value(
            "compiled.profiles_per_s",
            "1/s",
            evaluated / (total_sweep / 1e9).max(1e-9),
        ),
        Metric::value("solve.sweep_ms", "ms", total_sweep / n / 1e6),
        Metric::value(
            "solve.profiles_evaluated",
            "count",
            pool_pass_profiles as f64,
        ),
        Metric::value("solve.scaling_2t", "x", scaling_2t),
        Metric::median_of("symmetry.detect_us", "us", &us(|t| t.detect_ns)),
        Metric::value(
            "symmetry.orbit_reduction",
            "x",
            represented / evaluated.max(1.0),
        ),
        Metric::value("symmetry.auto_fallback_frac", "frac", fallbacks as f64 / n),
        Metric::value("complete_info.ms", "ms", total_ci / n / 1e6),
        Metric::value(
            "complete_info.share",
            "frac",
            total_ci / total_solve.max(1.0),
        ),
    ]
}

/// 1-thread time over `threads`-thread time of the same solve: the
/// median of `repeats` solves each way, geometric mean over the games.
pub fn thread_scaling(games: &[&GameSpec], base: &Solver, threads: usize, repeats: usize) -> f64 {
    let time = |solver: &Solver, spec: &GameSpec| {
        let samples: Vec<f64> = (0..repeats)
            .map(|_| {
                let t = std::time::Instant::now();
                crate::games::solve(spec, solver).expect("solvable");
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&samples)
    };
    let mut config = base.config();
    config.threads = 1;
    let one = Solver::from_config(config);
    config.threads = threads;
    let many = Solver::from_config(config);
    let logs: f64 = games
        .iter()
        .map(|g| (time(&one, g) / time(&many, g)).ln())
        .sum();
    (logs / games.len().max(1) as f64).exp()
}

/// Probes the codec, service fast path, cache, disk tier, HTTP head
/// parser and hash ring on the workload's canonical request bodies, at
/// least 2,000 calls each. `scratch` is a directory the disk-tier probe
/// may write its log in.
pub fn probe_service_layers(
    tracer: &mut Tracer,
    bodies: &[Vec<u8>],
    scratch: &Path,
) -> Vec<Metric> {
    const MIN_SAMPLES: usize = 2000;
    // Operation ids of the probes start far above any workload operation.
    const OP_BASE: u64 = 1 << 40;
    let passes = MIN_SAMPLES.div_ceil(bodies.len().max(1));
    let us = |v: Vec<f64>| -> Vec<f64> { v.into_iter().map(|x| x / 1e3).collect() };

    // Warm an in-process service; its answers double as the reference
    // response bodies.
    let svc = SolveService::new(CacheConfig::default());
    let responses: Vec<Arc<[u8]>> = bodies
        .iter()
        .map(
            |b| match svc.try_serve_fast(b, TraceCtx::NONE).expect("valid body") {
                FastOutcome::Hit(hit) => hit.body,
                FastOutcome::Miss(prepared) => {
                    svc.complete_solve(*prepared).expect("solvable").body
                }
            },
        )
        .collect();
    let requests: Vec<SolveRequest> = bodies
        .iter()
        .map(|b| SolveRequest::decode_str(std::str::from_utf8(b).expect("utf-8")).expect("valid"))
        .collect();
    let reports: Vec<SolveReport> = responses
        .iter()
        .map(|r| SolveReport::decode_str(std::str::from_utf8(r).expect("utf-8")).expect("valid"))
        .collect();
    let keys: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| SolveService::cache_key(&r.game, &r.config))
        .collect();
    let heads: Vec<Vec<u8>> = bodies.iter().map(|b| http_request(b)).collect();

    let mut decode = Vec::new();
    let mut encode = Vec::new();
    let mut cache_key = Vec::new();
    let mut fast_hit = Vec::new();
    let mut parse = Vec::new();
    let mut route = Vec::new();
    let ring = HashRing::new(&["127.0.0.1:7001", "127.0.0.1:7002"], 64);
    let mut op = OP_BASE;
    for _ in 0..passes {
        for i in 0..bodies.len() {
            op += 1;
            let text = std::str::from_utf8(&bodies[i]).expect("utf-8");
            decode.push(
                tracer
                    .span("codec.decode", op, None, || SolveRequest::decode_str(text))
                    .1 as f64,
            );
            encode.push(
                tracer
                    .span("codec.encode", op, None, || reports[i].canonical_bytes())
                    .1 as f64,
            );
            let r = &requests[i];
            cache_key.push(
                tracer
                    .span("codec.cache_key", op, None, || {
                        SolveService::cache_key(&r.game, &r.config)
                    })
                    .1 as f64,
            );
            fast_hit.push(
                tracer
                    .span("service.fast_hit", op, None, || {
                        svc.try_serve_fast(&bodies[i], TraceCtx::NONE)
                    })
                    .1 as f64,
            );
            parse.push(
                tracer
                    .span("http.parse_head", op, None, || parse_head(&heads[i]))
                    .1 as f64,
            );
            let hash = fnv1a(&keys[i]);
            route.push(
                tracer
                    .span("cluster.route", op, None, || {
                        ring.route_replicas(hash, 2, |_| true)
                    })
                    .1 as f64,
            );
        }
    }

    let lru: ShardedLru<Arc<[u8]>> = ShardedLru::new(CacheConfig::default());
    let mut inserts = Vec::new();
    let mut gets = Vec::new();
    for _ in 0..passes {
        for (k, v) in keys.iter().zip(&responses) {
            op += 1;
            inserts.push(
                tracer
                    .span("cache.insert", op, None, || lru.insert(k, Arc::clone(v)))
                    .1 as f64,
            );
        }
        for k in &keys {
            op += 1;
            gets.push(tracer.span("cache.get", op, None, || lru.get(k)).1 as f64);
        }
    }

    let log = scratch.join("probe-disk.log");
    let _ = std::fs::remove_file(&log);
    let disk = DiskTier::open(&log, DiskTierConfig::default()).expect("open the probe log");
    let mut appends = Vec::new();
    let mut disk_gets = Vec::new();
    for (k, v) in keys.iter().zip(&responses).cycle().take(MIN_SAMPLES) {
        op += 1;
        appends.push(
            tracer
                .span("persist.append", op, None, || disk.append(k, v))
                .1 as f64,
        );
    }
    disk.sync();
    for k in keys.iter().cycle().take(MIN_SAMPLES) {
        op += 1;
        disk_gets.push(tracer.span("persist.get", op, None, || disk.get(k)).1 as f64);
    }
    drop(disk);
    let _ = std::fs::remove_file(&log);

    let mean_bytes =
        bodies.iter().map(|b| b.len() as f64).sum::<f64>() / bodies.len().max(1) as f64;
    vec![
        Metric::median_of("codec.decode_us", "us", &us(decode)),
        Metric::median_of("codec.encode_us", "us", &us(encode)),
        Metric::median_of("codec.cache_key_us", "us", &us(cache_key)),
        Metric::value("codec.request_bytes", "bytes", mean_bytes),
        Metric::median_of("service.fast_hit_us", "us", &us(fast_hit)),
        Metric::median_of("cache.get_us", "us", &us(gets)),
        Metric::median_of("cache.insert_us", "us", &us(inserts)),
        Metric::median_of("persist.append_us", "us", &us(appends)),
        Metric::median_of("persist.get_us", "us", &us(disk_gets)),
        Metric::median_of("http.parse_head_ns", "ns", &parse),
        Metric::median_of("cluster.route_ns", "ns", &route),
    ]
}
