//! Spawning the release `bi-serve` / `bi-router` binaries, scraping
//! their `/metrics`, and reading their peak memory.

use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

use bi_util::Json;

use crate::loadgen;

/// A spawned server process; killed and reaped on drop.
pub struct Proc {
    child: Child,
    /// Kept open so the process never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The bound `host:port`.
    pub addr: String,
}

impl Proc {
    /// Spawns `bin` with `args` and waits for its `listening on` line.
    ///
    /// # Errors
    ///
    /// Spawn failures, or the process exiting before it listens.
    pub fn spawn(bin: &Path, args: &[String]) -> io::Result<Proc> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!(
                    "{} exited before listening",
                    bin.display()
                )));
            }
            if line.contains("listening on ") {
                break;
            }
        }
        let addr = line
            .split_whitespace()
            .last()
            .unwrap_or_default()
            .to_string();
        Ok(Proc {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// Peak resident memory (`VmHWM`) in MiB.
    #[must_use]
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// `GET /metrics`, parsed.
    ///
    /// # Errors
    ///
    /// Transport errors or an unparsable document.
    pub fn metrics(&self) -> io::Result<Json> {
        let (status, body) = loadgen::get(&self.addr, "/metrics")?;
        if status != 200 {
            return Err(io::Error::other(format!("/metrics answered {status}")));
        }
        Json::parse(&String::from_utf8_lossy(&body)).map_err(|e| io::Error::other(e.to_string()))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB (0 when unreadable).
#[must_use]
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A number at `path` in a `/metrics` document: counters are decimal
/// strings, gauges plain numbers. Missing fields read as 0.
#[must_use]
pub fn num(doc: &Json, path: &[&str]) -> f64 {
    let mut v = doc;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_f64()
        .or_else(|| v.as_str().and_then(|s| s.parse().ok()))
        .unwrap_or(0.0)
}

/// The program's binaries, built by the benchmark's launcher.
#[derive(Clone, Debug)]
pub struct Bins {
    /// `bi-serve`.
    pub serve: PathBuf,
    /// `bi-router`.
    pub router: PathBuf,
}

/// A router in front of `n` backends.
pub struct Cluster {
    /// The backends, in ring order.
    pub backends: Vec<Proc>,
    /// The router.
    pub router: Proc,
}

impl Cluster {
    /// Spawns one backend per entry of `disk_logs` (`None` = memory only)
    /// and a router with `replication` over them.
    ///
    /// # Errors
    ///
    /// Spawn failures.
    pub fn start(
        bins: &Bins,
        disk_logs: &[Option<PathBuf>],
        replication: usize,
    ) -> io::Result<Cluster> {
        let backends = disk_logs
            .iter()
            .map(|log| {
                let mut args: Vec<String> = vec!["--addr".into(), "127.0.0.1:0".into()];
                if let Some(log) = log {
                    args.push("--disk-cache".into());
                    args.push(log.display().to_string());
                }
                Proc::spawn(&bins.serve, &args)
            })
            .collect::<io::Result<Vec<_>>>()?;
        let list = backends
            .iter()
            .map(|b| b.addr.clone())
            .collect::<Vec<_>>()
            .join(",");
        let router = Proc::spawn(
            &bins.router,
            &[
                "--addr".into(),
                "127.0.0.1:0".into(),
                "--backends".into(),
                list,
                "--replication".into(),
                replication.to_string(),
            ],
        )?;
        Ok(Cluster { backends, router })
    }

    /// Summed peak resident memory of every server process, MiB.
    #[must_use]
    pub fn peak_rss_mb(&self) -> f64 {
        self.backends.iter().map(Proc::peak_rss_mb).sum::<f64>() + self.router.peak_rss_mb()
    }

    /// Every `/metrics` document: backends in order, then the router.
    ///
    /// # Errors
    ///
    /// Scrape failures.
    pub fn scrape(&self) -> io::Result<Scrape> {
        Ok(Scrape {
            backends: self
                .backends
                .iter()
                .map(Proc::metrics)
                .collect::<io::Result<_>>()?,
            router: self.router.metrics()?,
        })
    }

    /// Waits (up to `max`) until the router's replica queue is empty.
    pub fn drain_repairs(&self, max: std::time::Duration) {
        let until = std::time::Instant::now() + max;
        while std::time::Instant::now() < until {
            match self.router.metrics() {
                Ok(m) if num(&m, &["replication", "repair_queue_depth"]) == 0.0 => return,
                _ => std::thread::sleep(std::time::Duration::from_millis(20)),
            }
        }
    }
}

/// One scrape of a whole cluster.
pub struct Scrape {
    /// Backend documents, in ring order.
    pub backends: Vec<Json>,
    /// The router document.
    pub router: Json,
}

impl Scrape {
    /// A backend counter summed over backends.
    #[must_use]
    pub fn backend_sum(&self, path: &[&str]) -> f64 {
        self.backends.iter().map(|b| num(b, path)).sum()
    }

    /// Per-backend `forwarded` counts from the router.
    #[must_use]
    pub fn forwarded(&self) -> Vec<f64> {
        self.router
            .get("backends")
            .and_then(Json::as_arr)
            .map(|rows| rows.iter().map(|r| num(r, &["forwarded"])).collect())
            .unwrap_or_default()
    }
}
