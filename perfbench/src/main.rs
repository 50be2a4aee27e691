//! `perfbench` — one run of one workload of the repository benchmark.
//!
//! ```text
//! perfbench --workload sweep|symmetric|hot-read|churn --seed N --seconds S \
//!           --trace 0|1 --bin-dir DIR --out-dir DIR
//! ```
//!
//! `--bin-dir` holds the release `bi-serve` and `bi-router`; `--out-dir`
//! receives disk logs and span dumps. Human-readable tables go to
//! stdout first; the last stdout line is the JSON result. The exit code
//! is nonzero when any output failed its check. `perfbench/run.py` builds
//! everything and is the command to use.

mod games;
mod hostref;
mod inproc;
mod layers;
mod loadgen;
mod procs;
mod report;
mod serving;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::exit;

use procs::Bins;
use report::RunResult;
use trace::Tracer;

/// Every end-to-end metric, in report order.
const END_TO_END: [&str; 4] = ["setup_s", "latency_p50_ref", "goodput_frac", "peak_rss_mb"];

/// End-to-end metrics every untraced run also measures and prints, but
/// which do not repeat well enough on a small shared host to gate on:
/// raw times move with the host's speed by more than any bound
/// `BENCHMARK.json` allows (see `hostref`), and a closed loop's
/// throughput is the inverse of its latency. `ref_us` is the reference
/// time the gated latency is divided by: the kernel's time in process,
/// the no-op relay's median latency for the services.
const END_TO_END_INFO: [&str; 5] = [
    "latency_us_p50",
    "latency_us_p90",
    "throughput_ops_s",
    "max_rate_rps",
    "ref_us",
];

/// Every per-layer metric, in report order.
const PER_LAYER: [&str; 38] = [
    "compiled.lower_us",
    "compiled.profiles_per_s",
    "solve.sweep_ms",
    "solve.profiles_evaluated",
    "solve.scaling_2t",
    "symmetry.detect_us",
    "symmetry.orbit_reduction",
    "symmetry.auto_fallback_frac",
    "complete_info.ms",
    "complete_info.share",
    "codec.decode_us",
    "codec.encode_us",
    "codec.cache_key_us",
    "codec.request_bytes",
    "service.fast_hit_us",
    "service.zero_copy_frac",
    "cache.get_us",
    "cache.insert_us",
    "cache.hit_ratio",
    "cache.evictions",
    "persist.append_us",
    "persist.get_us",
    "persist.promotes",
    "http.parse_head_ns",
    "server.direct_rtt_us",
    "server.wakeups_per_request",
    "server.rejected_429",
    "server.solves_computed",
    "cluster.hop_us",
    "cluster.route_ns",
    "cluster.key_cache_hit_ratio",
    "cluster.max_backend_share",
    "cluster.replica_write_ok_frac",
    "cluster.repair_drops",
    "cluster.repair_queue_depth",
    "cluster.retries",
    "gen.late_us_p99",
    "trace.overhead_frac",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        bin_dir: PathBuf::new(),
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad.clone())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad.clone())?,
            "--trace" => args.trace = value == "1",
            "--bin-dir" => args.bin_dir = value.into(),
            "--out-dir" => args.out_dir = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run(args: &Args, bins: &Bins) -> std::io::Result<(RunResult, Option<Tracer>)> {
    let dir = &args.out_dir;
    let (seed, secs) = (args.seed, args.seconds);
    Ok(match (args.workload.as_str(), args.trace) {
        ("sweep", false) => (inproc::run(inproc::SWEEP, seed, secs), None),
        ("symmetric", false) => (inproc::run(inproc::SYMMETRIC, seed, secs), None),
        ("hot-read", false) => (
            serving::run("hot-read", serving::HOT_READ, seed, secs, bins, dir)?,
            None,
        ),
        ("churn", false) => (
            serving::run("churn", serving::CHURN, seed, secs, bins, dir)?,
            None,
        ),
        ("sweep", true) => {
            let (r, t) = inproc::run_traced(inproc::SWEEP, seed, secs, bins, dir)?;
            (r, Some(t))
        }
        ("symmetric", true) => {
            let (r, t) = inproc::run_traced(inproc::SYMMETRIC, seed, secs, bins, dir)?;
            (r, Some(t))
        }
        ("hot-read", true) => {
            let (r, t) = serving::run_traced("hot-read", serving::HOT_READ, seed, secs, bins, dir)?;
            (r, Some(t))
        }
        ("churn", true) => {
            let (r, t) = serving::run_traced("churn", serving::CHURN, seed, secs, bins, dir)?;
            (r, Some(t))
        }
        (other, _) => return Err(std::io::Error::other(format!("unknown workload `{other}`"))),
    })
}

/// Whether the traced metrics show the workload stressing the layer it
/// was chosen for. A miss is reported, not failed: a later change may
/// legitimately shrink the layer the workload was built around.
fn stress_checks(workload: &str, m: &dyn Fn(&str) -> f64) -> Vec<(String, bool)> {
    match workload {
        "sweep" => {
            let share = m("solve.sweep_ms")
                / (m("solve.sweep_ms") + m("complete_info.ms") + m("compiled.lower_us") / 1e3);
            vec![(
                format!("sweep share of solve {share:.3} >= 0.9"),
                share >= 0.9,
            )]
        }
        "symmetric" => vec![(
            format!("complete_info.share {:.3} >= 0.8", m("complete_info.share")),
            m("complete_info.share") >= 0.8,
        )],
        "churn" => vec![
            (
                format!("persist.promotes {} > 0", m("persist.promotes")),
                m("persist.promotes") > 0.0,
            ),
            (
                format!("cache.evictions {} > 0", m("cache.evictions")),
                m("cache.evictions") > 0.0,
            ),
        ],
        "hot-read" => vec![
            (
                format!("persist.promotes {} == 0", m("persist.promotes")),
                m("persist.promotes") == 0.0,
            ),
            (
                format!("cache.evictions {} == 0", m("cache.evictions")),
                m("cache.evictions") == 0.0,
            ),
            (
                format!(
                    "server.solves_computed {} == 0",
                    m("server.solves_computed")
                ),
                m("server.solves_computed") == 0.0,
            ),
        ],
        _ => Vec::new(),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        exit(2);
    }
    let bins = Bins {
        serve: args.bin_dir.join("bi-serve"),
        router: args.bin_dir.join("bi-router"),
    };
    let (mut result, tracer) = match run(&args, &bins) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            exit(2);
        }
    };
    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if !args.trace {
        result.info = result
            .metrics
            .iter()
            .filter(|m| END_TO_END_INFO.contains(&m.name))
            .cloned()
            .collect();
    }
    result.metrics.retain(|m| wanted.contains(&m.name));
    result
        .metrics
        .sort_by_key(|m| wanted.iter().position(|w| *w == m.name));
    let names: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
    let non_finite: Vec<&str> = result
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    if names != wanted || !non_finite.is_empty() {
        eprintln!(
            "perfbench: metrics {names:?}; not finite: {non_finite:?} (is the run too short?)"
        );
        exit(2);
    }
    if let Some(tracer) = tracer {
        let lookup = |name: &str| {
            result
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(f64::NAN, |m| m.value)
        };
        for (what, ok) in stress_checks(&args.workload, &lookup) {
            result.notes.push(format!(
                "stress check {}: {what}",
                if ok { "met" } else { "NOT MET" }
            ));
        }
        result.notes.extend(tracer.self_time_lines());
        let path = args
            .out_dir
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => result.notes.push(format!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => result.notes.push(format!("span dump failed: {e}")),
        }
    }
    result.print(&args.workload, args.seed, args.trace);
    exit(if result.correct { 0 } else { 1 });
}
