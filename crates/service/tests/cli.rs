//! Argument parsing of the `bi-serve` and `bi-router` binaries, run as
//! real child processes: the `--help` flag lists, the exit status of a
//! flag the binaries do not take, the router's required `--backends`,
//! and the machine-readable `listening on` line.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const SERVE: &str = env!("CARGO_BIN_EXE_bi-serve");
const ROUTER: &str = env!("CARGO_BIN_EXE_bi-router");

/// How long a run that should exit at once may take before it counts as
/// hung (a flag parsed as valid makes the binary start serving).
const EXIT_DEADLINE: Duration = Duration::from_secs(10);

fn spawn(bin: &str, args: &[&str]) -> Child {
    Command::new(bin)
        .args(args)
        .env("BI_LOG", "error")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn binary")
}

/// Runs `bin` to completion: its exit code, stdout and stderr. A child
/// still running after [`EXIT_DEADLINE`] is killed and reported with
/// code `None`.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let mut child = spawn(bin, args);
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on child") {
            break Some(status);
        }
        if start.elapsed() > EXIT_DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stdout = String::new();
    let mut stderr = String::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut stdout)
        .expect("read stdout");
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    (status.and_then(|s| s.code()), stdout, stderr)
}

/// The flags a `--help` text lists, in order.
fn listed_flags(help: &str) -> Vec<String> {
    help.lines()
        .filter_map(|line| line.trim_start().strip_prefix("--"))
        .map(|rest| format!("--{}", rest.split_whitespace().next().unwrap_or("")))
        .collect()
}

#[test]
fn serve_help_lists_exactly_its_flags() {
    let (code, stdout, _) = run(SERVE, &["--help"]);
    assert_eq!(code, Some(0));
    assert_eq!(
        listed_flags(&stdout),
        [
            "--addr",
            "--workers",
            "--queue",
            "--cache-capacity",
            "--cache-shards",
            "--disk-cache",
            "--fault-plan",
            "--trace-slow-us",
            "--help",
        ]
    );
}

#[test]
fn router_help_lists_exactly_its_flags() {
    let (code, stdout, _) = run(ROUTER, &["--help"]);
    assert_eq!(code, Some(0));
    assert_eq!(
        listed_flags(&stdout),
        [
            "--addr",
            "--backends",
            "--probe-ms",
            "--fail-threshold",
            "--replication",
            "--backoff-max-ms",
            "--trace-slow-us",
            "--help",
        ]
    );
}

/// Asserts `bin` refuses `flag value` with exit status 2 and names the
/// flag as unknown, before binding anything.
fn assert_unknown(bin: &str, flag: &str, value: &str, rest: &[&str]) {
    let mut args = vec![flag, value, "--addr", "127.0.0.1:0"];
    args.extend_from_slice(rest);
    let (code, stdout, stderr) = run(bin, &args);
    assert_eq!(code, Some(2), "{bin} {flag}: stdout {stdout:?}");
    assert!(
        stderr.contains("unknown flag") && stderr.contains(flag),
        "{bin} {flag}: stderr {stderr:?}"
    );
    assert!(!stdout.contains("listening on"), "{bin} {flag} started");
}

#[test]
fn serve_rejects_its_removed_flags() {
    for (flag, value) in [
        ("--timeout-secs", "10"),
        ("--max-connections", "8192"),
        ("--compact-ratio", "2"),
    ] {
        assert_unknown(SERVE, flag, value, &[]);
    }
}

#[test]
fn router_rejects_its_removed_flags() {
    for (flag, value) in [
        ("--timeout-secs", "10"),
        ("--deadline-ms", "30000"),
        ("--retry-rounds", "3"),
        ("--backoff-ms", "10"),
    ] {
        assert_unknown(ROUTER, flag, value, &["--backends", "127.0.0.1:9"]);
    }
}

#[test]
fn router_requires_backends() {
    let (code, stdout, stderr) = run(ROUTER, &["--addr", "127.0.0.1:0"]);
    assert_eq!(code, Some(2), "stdout {stdout:?}");
    assert!(stderr.contains("--backends"), "stderr {stderr:?}");
}

/// Starts `bin`, waits for its `listening on` line, then kills it.
fn assert_listens(bin: &str, args: &[&str]) {
    let mut child = spawn(bin, args);
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut line = String::new();
        let _ = BufReader::new(stdout).read_line(&mut line);
        let _ = tx.send(line);
    });
    let line = rx.recv_timeout(EXIT_DEADLINE);
    let _ = child.kill();
    let _ = child.wait();
    let line = line.expect("no stdout line before the deadline");
    assert!(
        line.contains("listening on 127.0.0.1:"),
        "{bin}: first stdout line {line:?}"
    );
}

#[test]
fn serve_prints_its_listening_address() {
    assert_listens(SERVE, &["--addr", "127.0.0.1:0"]);
}

#[test]
fn router_prints_its_listening_address() {
    assert_listens(
        ROUTER,
        &["--addr", "127.0.0.1:0", "--backends", "127.0.0.1:9"],
    );
}
