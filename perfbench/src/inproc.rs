//! The in-process workloads, `sweep` and `symmetric`: `Solver::solve`
//! under `SymmetryMode::Auto` on one worker per core, cycling through a
//! seeded pool of games in whole rounds.

use std::path::Path;
use std::time::Instant;

use bi_core::solve::{SolveReport, Solver};
use bi_core::symmetry::SymmetryMode;
use bi_service::service::GameSpec;

use crate::games::{self, request_body, PoolGame};
use crate::hostref::HostRef;
use crate::layers::{
    probe_service_layers, solver_metrics, thread_scaling, traced_solve, SolveTimes,
};
use crate::procs::{peak_rss_mb, Bins, Cluster};
use crate::report::{Metric, RunResult};
use crate::serving::{
    self, hop_metrics, latency_metric, tail_note, traced_service_phase, window_min, Traffic,
    WINDOW_S,
};
use crate::stats::{median, window_ratios};
use crate::trace::Tracer;

/// The fixed parameters of one in-process workload.
#[derive(Clone, Copy, Debug)]
pub struct InprocSpec {
    /// The seeded game pool.
    pub pool: fn(u64) -> Vec<PoolGame>,
    /// The per-solve latency limit behind `goodput_frac`, µs.
    pub limit_us: f64,
}

/// `sweep`: asymmetric games above the parallel threshold.
pub const SWEEP: InprocSpec = InprocSpec {
    pool: games::sweep_pool,
    limit_us: 40_000.0,
};

/// `symmetric`: `G_worst` and symmetric matrix games.
pub const SYMMETRIC: InprocSpec = InprocSpec {
    pool: games::symmetric_pool,
    limit_us: 60_000.0,
};

/// Set-ups per run; the median is reported as `setup_s`.
const SETUP_REPEATS: usize = 7;
/// Rounds of the pool each set-up solves before timing starts: they let
/// the allocator and caches settle, and make one set-up long enough
/// (about 0.1 s) to time steadily.
const WARM_ROUNDS: usize = 4;

/// Worker threads: one per core.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The solver every in-process operation uses.
#[must_use]
pub fn solver() -> Solver {
    Solver::builder()
        .symmetry(SymmetryMode::Auto)
        .threads(nproc())
        .build()
}

/// The reference: the same game with symmetry off, on one thread.
fn reference(spec: &GameSpec) -> SolveReport {
    let solver = Solver::builder()
        .symmetry(SymmetryMode::Off)
        .threads(1)
        .build();
    games::solve(spec, &solver).expect("pool games are solvable")
}

/// Whether `report` passes Observation 2.2's chain and matches the
/// reference measures bit for bit.
fn report_ok(report: &SolveReport, reference: &SolveReport) -> bool {
    let bits = |r: &SolveReport| {
        let m = r.measures;
        [
            m.opt_p,
            m.best_eq_p,
            m.worst_eq_p,
            m.opt_c,
            m.best_eq_c,
            m.worst_eq_c,
        ]
        .map(f64::to_bits)
    };
    report.measures.verify_chain().is_ok() && bits(report) == bits(reference)
}

/// Runs an in-process workload untraced.
pub fn run(spec: InprocSpec, seed: u64, seconds: f64) -> RunResult {
    let solver = solver();
    let mut setups = Vec::new();
    let mut pool = Vec::new();
    for _ in 0..SETUP_REPEATS {
        drop(std::mem::take(&mut pool));
        let t0 = Instant::now();
        pool = (spec.pool)(seed);
        for _ in 0..WARM_ROUNDS {
            for g in &pool {
                games::solve(&g.spec, &solver).expect("pool games are solvable");
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
    }

    // The host reference runs once before every round of the pool.
    let mut host = HostRef::default();
    // (s since start, host reference µs)
    let mut refs: Vec<(f64, f64)> = Vec::new();
    // (pool index, report, latency µs, completion s since start)
    let mut ops: Vec<(usize, Option<SolveReport>, f64, f64)> = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        refs.push((start.elapsed().as_secs_f64(), host.time_us()));
        for (i, g) in pool.iter().enumerate() {
            let t = Instant::now();
            let report = games::solve(&g.spec, &solver).ok();
            ops.push((
                i,
                report,
                t.elapsed().as_secs_f64() * 1e6,
                start.elapsed().as_secs_f64(),
            ));
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb("/proc/self/status");

    // Output checks, outside every timed window.
    let checks: Vec<SolveReport> = pool.iter().map(|g| reference(&g.spec)).collect();
    let bad: Vec<bool> = ops
        .iter()
        .map(|(i, r, ..)| !r.as_ref().is_some_and(|r| report_ok(r, &checks[*i])))
        .collect();
    let failed = bad.iter().filter(|&&b| b).count() as u64;
    let lat: Vec<(f64, f64)> = ops.iter().map(|o| (o.3, o.2)).collect();
    let good = ops
        .iter()
        .zip(&bad)
        .filter(|(o, b)| !**b && o.2 <= spec.limit_us)
        .count();
    // One caller waiting on each solve: its throughput, and the highest
    // rate it can sustain, is the rate at which solves complete while it
    // solves (the host reference's time left out).
    let solving_s: f64 = ops.iter().map(|o| o.2).sum::<f64>() / 1e6;
    let throughput = ops.len() as f64 / solving_s;
    let mut notes = vec![format!(
        "pool: {}; {} rounds, {} solves in {elapsed:.3} s; limit {} us",
        pool.iter()
            .map(|g| g.name.as_str())
            .collect::<Vec<_>>()
            .join(", "),
        ops.len() / pool.len(),
        ops.len(),
        spec.limit_us
    )];
    for (i, g) in pool.iter().enumerate() {
        let own: Vec<f64> = ops.iter().filter(|o| o.0 == i).map(|o| o.2).collect();
        notes.push(format!(
            "{:<20} median {:>10.1} us over {} solves",
            g.name,
            median(&own),
            own.len()
        ));
    }
    notes.push(tail_note(&lat));
    let ref_us: Vec<f64> = refs.iter().map(|r| r.1).collect();
    RunResult {
        correct: failed == 0,
        attempted: ops.len() as u64,
        failed,
        metrics: vec![
            Metric::median_of("setup_s", "s", &setups),
            Metric::median_of(
                "latency_p50_ref",
                "x",
                &window_ratios(&lat, &refs, WINDOW_S, 0.5, window_min(0.5)),
            ),
            Metric::value(
                "goodput_frac",
                "frac",
                good as f64 / ops.len().max(1) as f64,
            ),
            Metric::value("peak_rss_mb", "MiB", rss),
            latency_metric("latency_us_p50", &lat, 0.5),
            latency_metric("latency_us_p90", &lat, 0.9),
            Metric::value("throughput_ops_s", "1/s", throughput),
            Metric::value("max_rate_rps", "1/s", throughput),
            Metric::median_of("ref_us", "us", &ref_us),
        ],
        notes,
        info: Vec::new(),
    }
}

/// The outcome of [`solver_probe`].
pub struct SolverProbe {
    /// Solver-layer metrics.
    pub metrics: Vec<Metric>,
    /// Traced over untraced median solve latency, minus one.
    pub overhead: f64,
    /// Reports that failed their check.
    pub bad: u64,
    /// Operations run.
    pub ops: u64,
}

/// Solves `games` in whole rounds for `budget_s` seconds, alternating
/// untraced and traced rounds so that drift of the host cancels out of
/// the overhead. In a traced round the lower, detect and
/// complete-information calls of each operation are also timed on
/// their own.
pub fn solver_probe(tracer: &mut Tracer, games: &[&GameSpec], budget_s: f64) -> SolverProbe {
    let solver = solver();
    let refs: Vec<SolveReport> = games.iter().map(|g| reference(g)).collect();
    let mut bad = 0u64;
    let mut plain = Vec::new();
    let mut times: Vec<SolveTimes> = Vec::new();
    let mut reports: Vec<SolveReport> = Vec::new();
    let mut pass_profiles = 0u128;
    let mut op = 0u64;
    let start = Instant::now();
    let mut round = 0usize;
    while round < 2 || start.elapsed().as_secs_f64() < budget_s {
        for (i, g) in games.iter().enumerate() {
            op += 1;
            if round.is_multiple_of(2) {
                let t = Instant::now();
                let report = games::solve(g, &solver);
                plain.push(t.elapsed().as_secs_f64());
                bad += u64::from(!report.is_ok_and(|r| report_ok(&r, &refs[i])));
                continue;
            }
            let root = tracer.begin("op", op, None);
            let (report, t) = traced_solve(tracer, op, Some(root), g, &solver);
            tracer.end(root);
            match report {
                Ok(r) if report_ok(&r, &refs[i]) => {
                    if round == 1 {
                        pass_profiles += r.profiles_evaluated;
                    }
                    reports.push(r);
                    times.push(t);
                }
                _ => bad += 1,
            }
        }
        round += 1;
    }
    let traced: Vec<f64> = times.iter().map(|t| t.solve_ns as f64 / 1e9).collect();
    let scaling = thread_scaling(games, &solver, 2, 3);
    SolverProbe {
        metrics: solver_metrics(&times, &reports, pass_profiles, scaling),
        overhead: median(&traced) / median(&plain) - 1.0,
        bad,
        ops: op,
    }
}

/// Runs an in-process workload traced: the solver probes on the pool,
/// the codec/cache/disk/HTTP/ring probes on the pool's request bodies,
/// and a short hot pass of those bodies through `bi-router` → `bi-serve`
/// for the server-side layers.
///
/// # Errors
///
/// Spawn or transport failures of the harness itself.
pub fn run_traced(
    spec: InprocSpec,
    seed: u64,
    seconds: f64,
    bins: &Bins,
    dir: &Path,
) -> std::io::Result<(RunResult, Tracer)> {
    let mut tracer = Tracer::default();
    let pool = (spec.pool)(seed);
    let specs: Vec<&GameSpec> = pool.iter().map(|g| &g.spec).collect();
    let probe = solver_probe(&mut tracer, &specs, seconds * 2.0 / 3.0);
    let mut metrics = probe.metrics;
    metrics.push(Metric::value("trace.overhead_frac", "frac", probe.overhead));

    let bodies: Vec<Vec<u8>> = pool.iter().map(|g| request_body(&g.spec)).collect();
    metrics.extend(probe_service_layers(&mut tracer, &bodies, dir));

    let cluster = Cluster::start(bins, &[None], 1)?;
    let mut traffic = Traffic::pool(seed, bodies);
    serving::warm(&cluster, &traffic)?;
    let (service_metrics, outcomes, reqs) =
        traced_service_phase(&mut tracer, &cluster, &mut traffic, 500.0, 500)?;
    metrics.extend(
        service_metrics
            .into_iter()
            .filter(|m| m.name != "trace.overhead_frac"),
    );
    metrics.extend(hop_metrics(&cluster, &traffic.requests[0])?);
    drop(cluster);
    let service_bad = serving::mismatches(&traffic, &outcomes, &reqs);

    let failed = probe.bad + service_bad + outcomes.iter().filter(|o| !o.ok()).count() as u64;
    Ok((
        RunResult {
            correct: probe.bad == 0 && service_bad == 0,
            attempted: probe.ops + outcomes.len() as u64,
            failed,
            metrics,
            notes: Vec::new(),
            info: Vec::new(),
        },
        tracer,
    ))
}
