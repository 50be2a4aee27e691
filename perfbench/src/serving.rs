//! The service workloads, `hot-read` and `churn`: open-loop traffic
//! through `bi-router` into `bi-serve` processes.
//!
//! The untraced run measures, in order, on each of several fresh
//! clusters: the set-up, a no-op relay probe (the latency reference, see
//! `hostref`), a fixed-rate segment (latency percentiles, throughput,
//! goodput) and a second relay probe; the segments together take two
//! thirds of the run. A rate ladder (`max_rate_rps`) takes the last third
//! on the last cluster. Every 2xx body of the segments and the ladder is
//! then compared with the in-process `SolveService` encoding of the same
//! request.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bi_service::persist::frame_record;
use bi_service::service::{SolveRequest, SolveService};
use bi_service::workload::{light_game, mixed_workload};
use bi_service::CacheConfig;
use bi_util::rng::derive_seed;
use bi_util::Decode;
use rand::rngs::StdRng;
use rand::Rng;

use crate::games::{http_request, request_body};
use crate::hostref::relay_probe;
use crate::layers::probe_service_layers;
use crate::loadgen::{self, Due, Outcome};
use crate::procs::{Bins, Cluster, Scrape};
use crate::report::{Metric, RunResult};
use crate::stats::{highest_percentile, median, quantile, window_quantiles, window_rates};
use crate::trace::Tracer;

/// Length of the windows latency and throughput are summarised over,
/// seconds: each is reported as its median over the run's windows.
pub const WINDOW_S: f64 = 1.0;
/// The no-op relay probe before and after each fixed-rate segment runs
/// for this long at the segment's rate (see `hostref`).
const RELAY_PROBE_S: f64 = 1.0;
/// The relay probe draws its requests from this many of the table's.
const RELAY_PROBE_KEYS: usize = 256;
/// Ladder rungs grow by this factor: 4%, finer than the bound of
/// `max_rate_rps`.
const LADDER_STEP: f64 = 1.04;
/// Rungs on each workload's ladder.
const LADDER_RUNGS: i32 = 48;
/// Minimum requests per ladder probe (p99 needs 1,000 samples).
const PROBE_MIN: usize = 1000;
/// Target length of one ladder probe.
const PROBE_SECONDS: f64 = 0.2;

/// The fixed parameters of one service workload.
#[derive(Clone, Copy, Debug)]
pub struct ServiceSpec {
    /// Offered rate of the fixed-rate phase, requests/s: about half the
    /// `max_rate_rps` measured at the commit that defined the benchmark.
    pub rate: f64,
    /// The latency limit on p99 and on each request's goodput, µs.
    pub limit_us: f64,
    /// The lowest rung of the rate ladder, requests/s.
    pub ladder_base: f64,
    /// The rung the staircase starts from: about the capacity the
    /// defining commit measured, requests/s.
    pub ladder_start: f64,
    /// Set-ups per run; the median is reported as `setup_s`.
    pub setups: usize,
}

/// `hot-read`: all hits over a warm pool of `mixed`-profile games.
pub const HOT_READ: ServiceSpec = ServiceSpec {
    rate: 500.0,
    limit_us: 5000.0,
    ladder_base: 250.0,
    ladder_start: 2000.0,
    setups: 5,
};

/// `churn`: first-seen, evicted and hot `light` keys with replication 2
/// over two disk-backed backends.
pub const CHURN: ServiceSpec = ServiceSpec {
    rate: 200.0,
    limit_us: 10000.0,
    ladder_base: 100.0,
    ladder_start: 600.0,
    setups: 5,
};

/// Games in the `hot-read` pool.
const HOT_POOL: usize = 48;
/// The backend LRU and router key-cache capacity (the `bi-serve` and
/// `bi-router` default).
const CHURN_LRU: usize = 4096;
/// Keys written to each `churn` backend's disk log before it boots:
/// three times the LRU and key-cache capacity.
const CHURN_OLD_KEYS: usize = 3 * CHURN_LRU;
/// How many of the most recently requested keys the `churn` stream
/// re-requests from (they are LRU hits).
const CHURN_RECENT: usize = 256;

/// The request table of a service workload and its seeded picker.
pub struct Traffic {
    seed: u64,
    /// Canonical request bodies.
    pub bodies: Vec<Vec<u8>>,
    /// The same bodies as complete HTTP requests.
    pub requests: Vec<Vec<u8>>,
    /// `churn` only: how many keys were pre-populated on disk.
    old: usize,
    /// `churn` only: fresh keys are being drawn.
    churn: bool,
    recent: VecDeque<usize>,
}

impl Traffic {
    fn new(seed: u64, bodies: Vec<Vec<u8>>, churn: bool) -> Traffic {
        let requests = bodies.iter().map(|b| http_request(b)).collect();
        Traffic {
            seed,
            old: if churn { bodies.len() } else { 0 },
            bodies,
            requests,
            churn,
            recent: VecDeque::new(),
        }
    }

    /// The `hot-read` pool: `mixed`-profile games (large bodies).
    #[must_use]
    pub fn hot_read(seed: u64) -> Traffic {
        let games = mixed_workload(derive_seed(seed, "hot-read"), HOT_POOL);
        Traffic::new(seed, games.iter().map(request_body).collect(), false)
    }

    /// The `churn` key universe so far: the pre-populated keys.
    #[must_use]
    pub fn churn(seed: u64) -> Traffic {
        let bodies = (0..CHURN_OLD_KEYS).map(|j| churn_body(seed, j)).collect();
        Traffic::new(seed, bodies, true)
    }

    /// A fixed pool of canonical bodies, requested uniformly.
    #[must_use]
    pub fn pool(seed: u64, bodies: Vec<Vec<u8>>) -> Traffic {
        Traffic::new(seed, bodies, false)
    }

    fn push(&mut self, body: Vec<u8>) -> usize {
        self.requests.push(http_request(&body));
        self.bodies.push(body);
        self.bodies.len() - 1
    }

    /// Draws the request of one arrival.
    fn pick(&mut self, rng: &mut StdRng) -> usize {
        if !self.churn {
            return rng.random_range(0..self.bodies.len());
        }
        // A third each: a first-seen key, a pre-populated key (mostly
        // evicted from every LRU, so a disk promote), a recent key (an
        // LRU hit).
        let idx = match rng.random_range(0..3u32) {
            0 => {
                let j = self.bodies.len();
                let body = churn_body(self.seed, j);
                self.push(body)
            }
            1 => rng.random_range(0..self.old),
            _ if self.recent.is_empty() => rng.random_range(0..self.old),
            _ => self.recent[rng.random_range(0..self.recent.len())],
        };
        self.recent.push_back(idx);
        if self.recent.len() > CHURN_RECENT {
            self.recent.pop_front();
        }
        idx
    }

    /// A seeded Poisson schedule of `n` arrivals at `rate`.
    pub fn schedule(&mut self, label: &str, rate: f64, n: usize) -> Vec<Due> {
        let seed = derive_seed(self.seed, label);
        loadgen::poisson(seed, rate, n, |rng| self.pick(rng))
    }
}

fn churn_body(seed: u64, j: usize) -> Vec<u8> {
    request_body(&light_game(derive_seed(seed, &format!("churn{j}"))))
}

/// The canonical in-process answer to each body.
fn reference_bodies(bodies: &[Vec<u8>]) -> Vec<Arc<[u8]>> {
    let svc = SolveService::new(CacheConfig::default());
    bodies
        .iter()
        .map(|b| {
            let req = SolveRequest::decode_str(std::str::from_utf8(b).expect("utf-8"))
                .expect("generated bodies decode");
            svc.solve(&req).expect("generated games solve").body
        })
        .collect()
}

/// Writes the `churn` pre-populated disk log: one record per key, as a
/// previous run of `bi-serve --disk-cache` would have left it.
fn write_churn_log(path: &Path, bodies: &[Vec<u8>]) -> std::io::Result<()> {
    let answers = reference_bodies(bodies);
    let mut log = Vec::new();
    for (body, answer) in bodies.iter().zip(&answers) {
        let req = SolveRequest::decode_str(std::str::from_utf8(body).expect("utf-8"))
            .expect("generated bodies decode");
        let key = SolveService::cache_key(&req.game, &req.config);
        log.extend_from_slice(&frame_record(&key, answer));
    }
    std::fs::write(path, log)
}

/// Sends the whole request table through the router twice: the first
/// pass solves and fills every cache, the second confirms the table is
/// served hot.
///
/// # Errors
///
/// Transport failures, or any non-2xx answer.
pub fn warm(cluster: &Cluster, traffic: &Traffic) -> std::io::Result<()> {
    for _ in 0..2 {
        let out = loadgen::run(
            &cluster.router.addr,
            &traffic.requests,
            &loadgen::burst(traffic.requests.len()),
            false,
        )?;
        if !out.iter().all(Outcome::ok) {
            return Err(std::io::Error::other("warm-up answered non-2xx"));
        }
    }
    Ok(())
}

/// A running service workload: its cluster and traffic.
struct Live {
    cluster: Cluster,
    traffic: Traffic,
}

fn set_up(workload: &str, seed: u64, bins: &Bins, dir: &Path) -> std::io::Result<Live> {
    match workload {
        "hot-read" => {
            let traffic = Traffic::hot_read(seed);
            let cluster = Cluster::start(bins, &[None], 1)?;
            warm(&cluster, &traffic)?;
            Ok(Live { cluster, traffic })
        }
        "churn" => {
            let traffic = Traffic::churn(seed);
            let logs: Vec<PathBuf> = (0..2)
                .map(|i| dir.join(format!("churn-node{i}.log")))
                .collect();
            write_churn_log(&logs[0], &traffic.bodies)?;
            std::fs::copy(&logs[0], &logs[1])?;
            let cluster = Cluster::start(bins, &[Some(logs[0].clone()), Some(logs[1].clone())], 2)?;
            // Fill every backend LRU straight from its disk log, so the
            // first new key of the measured window already evicts.
            let warm = loadgen::burst(CHURN_LRU);
            for backend in &cluster.backends {
                let out = loadgen::run(&backend.addr, &traffic.requests, &warm, false)?;
                if !out.iter().all(Outcome::ok) {
                    return Err(std::io::Error::other("churn warm-up answered non-2xx"));
                }
            }
            Ok(Live { cluster, traffic })
        }
        other => Err(std::io::Error::other(format!(
            "unknown service workload {other}"
        ))),
    }
}

/// The median latency, µs, of a [`RELAY_PROBE_S`] Poisson burst at
/// `rate` through the no-op relay, over the first of `traffic`'s
/// requests; probe `k` of a run draws its own schedule.
///
/// # Errors
///
/// The relay failing to start, or answering anything but 2xx.
fn relay_p50_us(traffic: &Traffic, rate: f64, seed: u64, k: usize) -> std::io::Result<f64> {
    let keys = traffic.requests.len().min(RELAY_PROBE_KEYS);
    let schedule = loadgen::poisson(
        derive_seed(seed, &format!("relay{k}")),
        rate,
        (rate * RELAY_PROBE_S) as usize,
        |rng| rng.random_range(0..keys),
    );
    let out = relay_probe(&traffic.requests, &schedule)?;
    if !out.iter().all(Outcome::ok) {
        return Err(std::io::Error::other("the relay probe failed"));
    }
    Ok(median(&ok_latencies_us(&out)))
}

/// Latency percentiles (µs) over the 2xx outcomes.
fn ok_latencies_us(out: &[Outcome]) -> Vec<f64> {
    out.iter()
        .filter(|o| o.ok())
        .map(|o| o.latency_ns as f64 / 1e3)
        .collect()
}

/// One ladder probe passes when every request succeeds, p99 meets the
/// limit, and the backlog did not grow: the last quarter's median is at
/// most twice the first quarter's (plus 50 µs of slack).
fn probe_passes(out: &[Outcome], limit_us: f64) -> bool {
    if !out.iter().all(Outcome::ok) {
        return false;
    }
    let lat = ok_latencies_us(out);
    let q = lat.len() / 4;
    quantile(&lat, 0.99) <= limit_us
        && median(&lat[lat.len() - q..]) <= 2.0 * median(&lat[..q]) + 50.0
}

/// Walks the fixed rate ladder as a staircase for `budget`: one rung up
/// after a passing probe, one down after a failing one. The result is
/// the median of the rungs that passed just before a failure (the
/// highest passing rung if none failed).
fn max_rate(
    live: &mut Live,
    spec: ServiceSpec,
    budget: Duration,
    checked: &mut Vec<Outcome>,
    checked_req: &mut Vec<usize>,
) -> std::io::Result<(f64, usize)> {
    let rung = |i: i32| spec.ladder_base * LADDER_STEP.powi(i);
    let mut i = ((spec.ladder_start / spec.ladder_base).ln() / LADDER_STEP.ln()).round() as i32;
    let started = Instant::now();
    let mut probes: Vec<(i32, bool)> = Vec::new();
    while started.elapsed() < budget {
        let rate = rung(i);
        let n = PROBE_MIN.max((rate * PROBE_SECONDS) as usize);
        let sched = live
            .traffic
            .schedule(&format!("ladder{}", probes.len()), rate, n);
        let out = loadgen::run(
            &live.cluster.router.addr,
            &live.traffic.requests,
            &sched,
            true,
        )?;
        let pass = probe_passes(&out, spec.limit_us);
        checked_req.extend(sched.iter().map(|d| d.req));
        checked.extend(out);
        probes.push((i, pass));
        i = if pass {
            (i + 1).min(LADDER_RUNGS - 1)
        } else {
            (i - 1).max(0)
        };
        std::thread::sleep(Duration::from_millis(20));
    }
    let reversals: Vec<f64> = probes
        .windows(2)
        .filter(|w| w[0].1 && !w[1].1)
        .map(|w| rung(w[0].0))
        .collect();
    let estimate = if reversals.is_empty() {
        probes
            .iter()
            .filter(|p| p.1)
            .map(|p| rung(p.0))
            .fold(0.0, f64::max)
    } else {
        median(&reversals)
    };
    Ok((estimate, probes.len()))
}

/// Compares every 2xx body with the in-process encoding of its request;
/// returns the number of mismatches.
pub fn mismatches(traffic: &Traffic, outcomes: &[Outcome], reqs: &[usize]) -> u64 {
    let mut used: Vec<usize> = reqs.to_vec();
    used.sort_unstable();
    used.dedup();
    let bodies: Vec<Vec<u8>> = used.iter().map(|&i| traffic.bodies[i].clone()).collect();
    let expected: HashMap<usize, Arc<[u8]>> =
        used.into_iter().zip(reference_bodies(&bodies)).collect();
    let bad: Vec<(usize, &Outcome, usize)> = outcomes
        .iter()
        .zip(reqs)
        .enumerate()
        .filter(|(_, (o, r))| o.ok() && o.body[..] != expected[r][..])
        .map(|(i, (o, r))| (i, o, *r))
        .collect();
    if let Some((i, o, r)) = bad.first() {
        eprintln!(
            "perfbench: {} mismatched bodies; first: request #{i} (key {r}), status {}\n  got:      {}\n  expected: {}",
            bad.len(),
            o.status,
            String::from_utf8_lossy(&o.body),
            String::from_utf8_lossy(&expected[r])
        );
    }
    bad.len() as u64
}

/// Runs a service workload untraced.
///
/// Each of the `spec.setups` set-ups boots a fresh cluster and measures
/// one fixed-rate segment on it; the ladder runs on the last one. The
/// latency and throughput windows of all segments are pooled before the
/// median is taken, so a cluster that happens to land in a slow state of
/// the host (the same seed and load can run twice as slow from one boot
/// to the next) moves only its own windows.
///
/// # Errors
///
/// Spawn or transport failures of the harness itself.
pub fn run(
    workload: &str,
    spec: ServiceSpec,
    seed: u64,
    seconds: f64,
    bins: &Bins,
    dir: &Path,
) -> std::io::Result<RunResult> {
    // Two thirds of the run at the fixed rate, split over the segments.
    let n = (spec.rate * seconds * 2.0 / 3.0 / spec.setups as f64) as usize;
    let limit_ns = (spec.limit_us * 1e3) as u64;
    let mut setups = Vec::new();
    let (mut p50s, mut p90s, mut rates, mut all_lat) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut ok, mut good, mut bad) = (0u64, 0u64, 0u64, 0u64);
    let mut notes = Vec::new();
    let (mut max_rps, mut probes, mut ladder_requests, mut ladder_bad) = (0.0, 0, 0, 0u64);
    let mut rss = 0.0;
    let (mut ratios, mut ref_us) = (Vec::new(), Vec::new());
    for segment in 0..spec.setups {
        let t0 = Instant::now();
        let mut live = set_up(workload, seed, bins, dir)?;
        setups.push(t0.elapsed().as_secs_f64());

        let sched = live
            .traffic
            .schedule(&format!("fixed{segment}"), spec.rate, n);
        let before = relay_p50_us(&live.traffic, spec.rate, seed, 2 * segment)?;
        let fixed = loadgen::run(
            &live.cluster.router.addr,
            &live.traffic.requests,
            &sched,
            true,
        )?;
        let after = relay_p50_us(&live.traffic, spec.rate, seed, 2 * segment + 1)?;
        let segment_ref = median(&[before, after]);
        ref_us.push(segment_ref);
        let mut ladder_out = Vec::new();
        let mut ladder_req = Vec::new();
        if segment + 1 == spec.setups {
            (max_rps, probes) = max_rate(
                &mut live,
                spec,
                Duration::from_secs_f64(seconds / 3.0),
                &mut ladder_out,
                &mut ladder_req,
            )?;
            rss = live.cluster.peak_rss_mb();
            notes = server_notes(&live.cluster);
            ladder_requests = ladder_out.len();
        }
        drop(live.cluster);

        // Output checks, outside every timed window.
        let reqs: Vec<usize> = sched.iter().map(|d| d.req).collect();
        let fixed_bad = mismatches(&live.traffic, &fixed, &reqs);
        ladder_bad += mismatches(&live.traffic, &ladder_out, &ladder_req);

        // Latencies by due time; completions by completion time.
        let answered = || fixed.iter().zip(&sched).filter(|(o, _)| o.ok());
        let lat: Vec<(f64, f64)> = answered()
            .map(|(o, d)| (d.at_ns as f64 / 1e9, o.latency_ns as f64 / 1e3))
            .collect();
        let done: Vec<f64> = answered()
            .map(|(o, d)| (d.at_ns + o.latency_ns) as f64 / 1e9)
            .collect();
        let span_s = sched.last().map_or(0.0, |d| d.at_ns as f64 / 1e9);
        let segment_p50s = window_quantiles(&lat, WINDOW_S, 0.5, window_min(0.5));
        ratios.extend(segment_p50s.iter().map(|p50| p50 / segment_ref));
        p50s.extend(segment_p50s);
        p90s.extend(window_quantiles(&lat, WINDOW_S, 0.9, window_min(0.9)));
        rates.extend(window_rates(&done, WINDOW_S, span_s));
        all_lat.extend(lat);
        attempted += fixed.len() as u64;
        ok += answered().count() as u64;
        good += fixed.iter().filter(|o| o.good(limit_ns)).count() as u64;
        bad += fixed_bad;
    }
    notes.insert(0, tail_note(&all_lat));
    notes.insert(
        0,
        format!(
            "offered {} req/s, {n} requests on each of {} fresh clusters; limit {} us; \
             ladder: {probes} probes, {ladder_requests} requests, {ladder_bad} mismatches",
            spec.rate, spec.setups, spec.limit_us,
        ),
    );
    Ok(RunResult {
        correct: bad == 0 && ladder_bad == 0,
        attempted,
        failed: attempted - ok + bad,
        metrics: vec![
            Metric::median_of("setup_s", "s", &setups),
            Metric::median_of("latency_p50_ref", "x", &ratios),
            Metric::value(
                "goodput_frac",
                "frac",
                good as f64 / attempted.max(1) as f64,
            ),
            Metric::value("peak_rss_mb", "MiB", rss),
            Metric::median_of("latency_us_p50", "us", &p50s),
            Metric::median_of("latency_us_p90", "us", &p90s),
            Metric::median_of("throughput_ops_s", "1/s", &rates),
            Metric::value("max_rate_rps", "1/s", max_rps),
            Metric::median_of("ref_us", "us", &ref_us),
        ],
        notes,
        info: Vec::new(),
    })
}

/// The samples a window needs to report its `p`-quantile: ten beyond it
/// (20 for the median, 100 for p90).
#[must_use]
pub fn window_min(p: f64) -> usize {
    (10.0 / (1.0 - p) - 1e-9).ceil() as usize
}

/// A latency percentile: the `p`-quantile of every [`WINDOW_S`] window
/// of `(seconds, µs)` samples, reported as the median over windows with
/// their quartiles and count.
pub fn latency_metric(name: &'static str, lat: &[(f64, f64)], p: f64) -> Metric {
    Metric::median_of(
        name,
        "us",
        &window_quantiles(lat, WINDOW_S, p, window_min(p)),
    )
}

/// The highest percentile the whole run's samples support, as a note.
pub fn tail_note(lat: &[(f64, f64)]) -> String {
    let all: Vec<f64> = lat.iter().map(|l| l.1).collect();
    match highest_percentile(all.len()) {
        Some(p) => format!(
            "tail: p{} = {:.1} us over {} samples (whole run)",
            100.0 * p,
            quantile(&all, p),
            all.len()
        ),
        None => format!("tail: {} samples are too few for any percentile", all.len()),
    }
}

fn server_notes(cluster: &Cluster) -> Vec<String> {
    match cluster.scrape() {
        Ok(s) => vec![format!(
            "servers: solves {} evictions {} disk promotes {} zero-copy hits {} 429s {} forwarded {:?}",
            s.backend_sum(&["solves_computed"]),
            s.backend_sum(&["cache", "evictions"]),
            s.backend_sum(&["disk", "hits"]),
            s.backend_sum(&["reactor", "zero_copy_hits"]),
            s.backend_sum(&["reactor", "backpressure_429"]),
            s.forwarded()
        )],
        Err(e) => vec![format!("servers: scrape failed: {e}")],
    }
}

/// Server-side per-layer metrics between two scrapes.
#[must_use]
pub fn server_side_metrics(before: &Scrape, after: &Scrape) -> Vec<Metric> {
    let d = |path: &[&str]| after.backend_sum(path) - before.backend_sum(path);
    let r = |path: &[&str]| {
        crate::procs::num(&after.router, path) - crate::procs::num(&before.router, path)
    };
    let solve_requests = d(&["solve_requests"]).max(1.0);
    let promotes = d(&["disk", "hits"]);
    let memory_hits = d(&["reactor", "zero_copy_hits"]) + d(&["reactor", "parsed_hits"]) - promotes;
    let key_hits = r(&["key_cache", "hits"]);
    let key_total = key_hits + r(&["key_cache", "misses"]);
    let forwarded: Vec<f64> = after
        .forwarded()
        .iter()
        .zip(before.forwarded().iter().chain(std::iter::repeat(&0.0)))
        .map(|(a, b)| a - b)
        .collect();
    let total_fwd: f64 = forwarded.iter().sum();
    let writes = r(&["replication", "writes"]) + r(&["replication", "read_repairs"]);
    let drops = r(&["replication", "repair_drops"]);
    vec![
        Metric::value(
            "service.zero_copy_frac",
            "frac",
            d(&["reactor", "zero_copy_hits"]) / solve_requests,
        ),
        Metric::value("cache.hit_ratio", "frac", memory_hits / solve_requests),
        Metric::value("cache.evictions", "count", d(&["cache", "evictions"])),
        Metric::value("persist.promotes", "count", promotes),
        Metric::value(
            "server.wakeups_per_request",
            "count",
            d(&["reactor", "wakeups"]) / d(&["requests_total"]).max(1.0),
        ),
        Metric::value(
            "server.rejected_429",
            "count",
            d(&["reactor", "backpressure_429"]),
        ),
        Metric::value("server.solves_computed", "count", d(&["solves_computed"])),
        Metric::value(
            "cluster.key_cache_hit_ratio",
            "frac",
            key_hits / key_total.max(1.0),
        ),
        Metric::value(
            "cluster.max_backend_share",
            "frac",
            forwarded.iter().copied().fold(0.0, f64::max) / total_fwd.max(1.0),
        ),
        Metric::value(
            "cluster.replica_write_ok_frac",
            "frac",
            if writes + drops > 0.0 {
                writes / (writes + drops)
            } else {
                1.0
            },
        ),
        Metric::value("cluster.repair_drops", "count", drops),
        Metric::value(
            "cluster.repair_queue_depth",
            "count",
            crate::procs::num(&after.router, &["replication", "repair_queue_depth"]),
        ),
        Metric::value(
            "cluster.retries",
            "count",
            r(&["retries", "transport"])
                + r(&["retries", "status_5xx"])
                + r(&["retries", "status_429"]),
        ),
    ]
}

/// Single-connection round trips for the same hot request, alternating
/// straight to a backend and through the router: `server.direct_rtt_us`
/// and `cluster.hop_us` (router minus direct, medians).
pub fn hop_metrics(cluster: &Cluster, request: &[u8]) -> std::io::Result<Vec<Metric>> {
    const ROUNDS: usize = 300;
    let mut direct = Vec::with_capacity(ROUNDS);
    let mut routed = Vec::with_capacity(ROUNDS);
    let mut conns = [
        std::net::TcpStream::connect(&cluster.backends[0].addr)?,
        std::net::TcpStream::connect(&cluster.router.addr)?,
    ];
    for c in &conns {
        c.set_nodelay(true)?;
    }
    for _ in 0..ROUNDS {
        for (k, conn) in conns.iter_mut().enumerate() {
            let t = Instant::now();
            std::io::Write::write_all(conn, request)?;
            let (status, _) = loadgen::read_response(&mut std::io::BufReader::new(&*conn))?;
            let us = t.elapsed().as_secs_f64() * 1e6;
            if status != 200 {
                return Err(std::io::Error::other(format!(
                    "hop probe answered {status}"
                )));
            }
            if k == 0 {
                direct.push(us)
            } else {
                routed.push(us)
            }
        }
    }
    let d = median(&direct);
    Ok(vec![
        Metric::median_of("server.direct_rtt_us", "us", &direct),
        Metric::value("cluster.hop_us", "us", median(&routed) - d),
    ])
}

/// The open-loop part of a traced run: `n` requests at `rate` over
/// `traffic` in four alternating chunks, untraced and traced, so that
/// drift of the host cancels out of `trace.overhead_frac`. The server-side
/// metrics are scraped around all four (tracing lives in the generator;
/// the servers cannot tell the chunks apart). Returns the metrics and the
/// outcomes with their request indices for the output checks.
pub fn traced_service_phase(
    tracer: &mut Tracer,
    cluster: &Cluster,
    traffic: &mut Traffic,
    rate: f64,
    n: usize,
) -> std::io::Result<(Vec<Metric>, Vec<Outcome>, Vec<usize>)> {
    let before = cluster.scrape()?;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut outcomes = Vec::new();
    let mut reqs = Vec::new();
    let mut late = Vec::new();
    for chunk in 0..4 {
        let sched = traffic.schedule(&format!("trace-chunk{chunk}"), rate, n / 4);
        let epoch = tracer.now_ns();
        let out = loadgen::run(&cluster.router.addr, &traffic.requests, &sched, true)?;
        if chunk % 2 == 1 {
            for (k, (o, d)) in out.iter().zip(&sched).enumerate() {
                if !o.ok() {
                    continue;
                }
                let op = (reqs.len() + k) as u64;
                let due = epoch + d.at_ns;
                let done = due + o.latency_ns;
                let sent = due + o.late_ns;
                let root = tracer.record("gen.request", op, None, due, done);
                tracer.record("gen.late", op, Some(root), due, sent);
                tracer.record("gen.send", op, Some(root), sent, sent + o.send_ns);
                tracer.record("server.wait", op, Some(root), sent + o.send_ns, done);
            }
            traced.extend(ok_latencies_us(&out));
            late.extend(out.iter().map(|o| o.late_ns as f64 / 1e3));
        } else {
            plain.extend(ok_latencies_us(&out));
        }
        reqs.extend(sched.iter().map(|d| d.req));
        outcomes.extend(out);
    }
    cluster.drain_repairs(Duration::from_secs(2));
    let after = cluster.scrape()?;
    let mut metrics = server_side_metrics(&before, &after);
    metrics.push(Metric::value(
        "gen.late_us_p99",
        "us",
        quantile(&late, 0.99),
    ));
    metrics.push(Metric::value(
        "trace.overhead_frac",
        "frac",
        median(&traced) / median(&plain) - 1.0,
    ));
    Ok((metrics, outcomes, reqs))
}

/// Runs a service workload traced: every per-layer metric.
///
/// # Errors
///
/// Spawn or transport failures of the harness itself.
pub fn run_traced(
    workload: &str,
    spec: ServiceSpec,
    seed: u64,
    seconds: f64,
    bins: &Bins,
    dir: &Path,
) -> std::io::Result<(RunResult, Tracer)> {
    let mut tracer = Tracer::default();
    let mut live = set_up(workload, seed, bins, dir)?;
    let n = (spec.rate * seconds / 4.0) as usize;
    let (mut metrics, outcomes, reqs) =
        traced_service_phase(&mut tracer, &live.cluster, &mut live.traffic, spec.rate, n)?;
    metrics.extend(hop_metrics(&live.cluster, &live.traffic.requests[0])?);
    drop(live.cluster);
    let bad = mismatches(&live.traffic, &outcomes, &reqs);

    // In-process probes on the workload's own bodies and games.
    let probe_bodies: Vec<Vec<u8>> = live.traffic.bodies.iter().take(256).cloned().collect();
    metrics.extend(probe_service_layers(&mut tracer, &probe_bodies, dir));
    let games: Vec<bi_service::service::GameSpec> = probe_bodies
        .iter()
        .take(9)
        .map(|b| {
            SolveRequest::decode_str(std::str::from_utf8(b).expect("utf-8"))
                .expect("valid")
                .game
        })
        .collect();
    let refs: Vec<&bi_service::service::GameSpec> = games.iter().collect();
    let probe = crate::inproc::solver_probe(&mut tracer, &refs, seconds / 4.0);
    metrics.extend(probe.metrics);

    let result = RunResult {
        correct: bad == 0 && probe.bad == 0,
        attempted: outcomes.len() as u64 + probe.ops,
        failed: outcomes.iter().filter(|o| !o.ok()).count() as u64 + bad + probe.bad,
        metrics,
        notes: Vec::new(),
        info: Vec::new(),
    };
    Ok((result, tracer))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_reproduces_identical_request_bytes() {
        let (a, b, c) = (
            Traffic::hot_read(5),
            Traffic::hot_read(5),
            Traffic::hot_read(6),
        );
        assert_eq!(a.requests, b.requests);
        assert_ne!(a.requests, c.requests);

        let stream = |seed: u64| {
            let mut t = Traffic::churn(seed);
            let sched = t.schedule("fixed", 300.0, 600);
            let bytes: Vec<Vec<u8>> = sched.iter().map(|d| t.requests[d.req].clone()).collect();
            (sched, bytes)
        };
        let (sched_a, bytes_a) = stream(5);
        let (sched_b, bytes_b) = stream(5);
        assert_eq!(sched_a, sched_b);
        assert_eq!(bytes_a, bytes_b);
        assert_ne!(bytes_a, stream(6).1);
    }

    #[test]
    fn churn_mixes_fresh_old_and_recent_keys() {
        let mut t = Traffic::churn(5);
        let sched = t.schedule("fixed", 300.0, 3000);
        // Fresh keys are appended in first-request order, so the number
        // of keys past the pre-populated ones is the number first seen.
        let fresh = t.bodies.len() - CHURN_OLD_KEYS;
        let share = fresh as f64 / sched.len() as f64;
        assert!((0.30..0.37).contains(&share), "fresh share {share}");
        let old = sched.iter().filter(|d| d.req < CHURN_OLD_KEYS).count();
        assert!(
            old > sched.len() / 3,
            "old keys plus recent re-requests of them"
        );
        let mut distinct: Vec<usize> = sched.iter().map(|d| d.req).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() < sched.len(), "recent keys repeat");
    }
}
