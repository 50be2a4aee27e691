//! Cluster end-to-end tests: a real [`Router`] in front of real
//! [`Server`] backends, all on ephemeral ports, driven over TCP.
//!
//! These pin the bi-cluster acceptance behaviors: routing is
//! deterministic (same body → same backend, visible in `X-Backend`),
//! responses through the router are byte-identical to direct solves,
//! batches split per backend and re-merge in request order, a killed
//! backend is ejected by its own failing traffic and its keys fail
//! over without a 5xx, a disk-backed server reboots warm — the
//! whole pool replayed as byte-identical cache hits — and one injected
//! `X-Bi-Trace` id stitches router and backend `/debug/trace` dumps
//! into a single parent/child span tree. The router frames requests
//! with the backend's parser: malformed requests get the same status
//! from both, and pipelined requests are answered in order. With every
//! backend dead the router solves locally, byte-identically.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bi_core::solve::{Solver, SolverConfig};
use bi_service::http::{read_response, write_request, write_request_with, ClientResponse};
use bi_service::workload::{light_workload, mixed_workload};
use bi_service::{
    BatchRequest, GameSpec, Router, RouterConfig, RouterHandle, Server, ServerConfig, ServerHandle,
    SolveRequest, SpanEvent, Stage,
};
use bi_util::{Encode, Json};

fn start_backend() -> ServerHandle {
    let server = Server::bind(ServerConfig {
        workers: 1,
        queue_capacity: 64,
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    })
    .expect("bind backend");
    server.start().expect("start backend")
}

/// Spins up `n` backends and a router over them.
fn start_cluster(n: usize, config: RouterConfig) -> (Vec<ServerHandle>, RouterHandle) {
    let backends: Vec<ServerHandle> = (0..n).map(|_| start_backend()).collect();
    let addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    let router = Router::bind(RouterConfig {
        backends: addrs,
        ..config
    })
    .expect("bind router");
    let handle = router.start().expect("start router");
    (backends, handle)
}

/// One request over a fresh connection.
fn call(addr: std::net::SocketAddr, method: &str, path: &str, body: &[u8]) -> ClientResponse {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    write_request(&mut writer, method, path, body, false).expect("write request");
    read_response(&mut reader).expect("read response")
}

fn solve_body(game: &GameSpec) -> Vec<u8> {
    SolveRequest {
        game: game.clone(),
        config: SolverConfig::default(),
    }
    .canonical_bytes()
}

/// One `/solve` over a fresh connection carrying an `X-Bi-Trace` id.
fn call_traced(addr: std::net::SocketAddr, body: &[u8], trace_id: u64) -> ClientResponse {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    write_request_with(
        &mut writer,
        "POST",
        "/solve",
        body,
        false,
        &[("X-Bi-Trace", trace_id.to_string())],
    )
    .expect("write request");
    read_response(&mut reader).expect("read response")
}

/// Scrapes `GET /debug/trace` and returns the spans of `trace_id`.
fn trace_spans_of(addr: std::net::SocketAddr, trace_id: u64) -> Vec<SpanEvent> {
    let response = call(addr, "GET", "/debug/trace", b"");
    assert_eq!(response.status, 200);
    let doc = Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
    doc.get("spans")
        .and_then(Json::as_arr)
        .expect("spans array")
        .iter()
        .filter_map(SpanEvent::from_json)
        .filter(|span| span.trace_id == trace_id)
        .collect()
}

#[test]
fn one_trace_id_stitches_router_and_backend_span_trees() {
    let (backends, router) = start_cluster(2, RouterConfig::default());
    let game = &mixed_workload(111, 1)[0];
    let body = solve_body(game);
    let trace_id = 0xfeed_f00d_0dd5_beefu64;
    let response = call_traced(router.addr(), &body, trace_id);
    assert_eq!(response.status, 200);
    assert_eq!(response.header("x-cache"), Some("miss"));

    let router_spans = trace_spans_of(router.addr(), trace_id);
    let backend_spans: Vec<SpanEvent> = backends
        .iter()
        .flat_map(|backend| trace_spans_of(backend.addr(), trace_id))
        .collect();
    let span_of = |spans: &[SpanEvent], stage: Stage| -> SpanEvent {
        let matches: Vec<&SpanEvent> = spans.iter().filter(|s| s.stage == stage).collect();
        assert_eq!(
            matches.len(),
            1,
            "expected exactly one {} span for the trace",
            stage.name()
        );
        matches[0].clone()
    };

    // Router tree: `route` is the root (no inbound parent), with
    // `ring_lookup` and the forwarding `upstream` hop nested under it.
    let route = span_of(&router_spans, Stage::Route);
    assert_eq!(route.parent, 0, "no X-Bi-Parent was sent");
    let ring = span_of(&router_spans, Stage::RingLookup);
    let upstream = span_of(&router_spans, Stage::Upstream);
    assert_eq!(ring.parent, route.span_id);
    assert_eq!(upstream.parent, route.span_id);

    // Backend tree: its `request` root adopted the forwarded upstream
    // span as parent, and every serving stage nests under the root. A
    // cold solve covers parse → cache (miss) → solve → encode → write.
    let request = span_of(&backend_spans, Stage::Request);
    assert_eq!(
        request.parent, upstream.span_id,
        "the backend root must nest under the router's upstream hop"
    );
    for stage in [
        Stage::Parse,
        Stage::Cache,
        Stage::Solve,
        Stage::Encode,
        Stage::Write,
    ] {
        let span = span_of(&backend_spans, stage);
        assert_eq!(
            span.parent,
            request.span_id,
            "{} must nest under the backend request root",
            stage.name()
        );
    }

    // The acceptance bar: one id, at least five named stages, spread
    // over the two dumps.
    let mut stages: Vec<&str> = router_spans
        .iter()
        .chain(&backend_spans)
        .map(|s| s.stage.name())
        .collect();
    stages.sort_unstable();
    stages.dedup();
    assert!(
        stages.len() >= 5,
        "expected >= 5 distinct stages for the trace, got {stages:?}"
    );
    router.stop();
    for backend in backends {
        backend.stop();
    }
}

#[test]
fn routing_is_deterministic_and_byte_identical_to_direct_solves() {
    let (backends, router) = start_cluster(3, RouterConfig::default());
    let games = mixed_workload(71, 9);
    let mut owners = std::collections::BTreeSet::new();
    for game in &games {
        let body = solve_body(game);
        let cold = call(router.addr(), "POST", "/solve", &body);
        assert_eq!(cold.status, 200);
        assert_eq!(cold.header("x-cache"), Some("miss"));
        let owner = cold.header("x-backend").expect("owner header").to_string();
        let warm = call(router.addr(), "POST", "/solve", &body);
        assert_eq!(warm.status, 200);
        assert_eq!(
            warm.header("x-cache"),
            Some("hit"),
            "the rerouted key must land on the cache it warmed"
        );
        assert_eq!(
            warm.header("x-backend"),
            Some(owner.as_str()),
            "same body must route to the same backend"
        );
        let direct = match game {
            GameSpec::Matrix(g) => Solver::default().solve(g).unwrap(),
            GameSpec::Ncs(g) => Solver::default().solve(g).unwrap(),
        };
        assert_eq!(cold.body, direct.canonical_bytes());
        assert_eq!(warm.body, cold.body);
        owners.insert(owner);
    }
    assert!(
        owners.len() > 1,
        "nine keys across three backends must spread: got {owners:?}"
    );
    let metrics = router.metrics_json();
    let total_forwarded: u64 = metrics
        .get("backends")
        .and_then(Json::as_arr)
        .expect("backends section")
        .iter()
        .map(|b| b.get("forwarded").and_then(|v| v.as_u64()).unwrap_or(0))
        .sum();
    assert_eq!(total_forwarded, 18, "every request was forwarded upstream");
    router.stop();
    for backend in backends {
        backend.stop();
    }
}

#[test]
fn batches_split_per_backend_and_remerge_in_request_order() {
    let (backends, router) = start_cluster(3, RouterConfig::default());
    let games = mixed_workload(81, 6);
    let body = BatchRequest {
        games: games.clone(),
        config: SolverConfig::default(),
    }
    .canonical_bytes();
    let routed = call(router.addr(), "POST", "/solve_batch", &body);
    assert_eq!(routed.status, 200);

    // The same batch against one standalone server is the oracle: the
    // split/re-merge must reproduce its response byte for byte.
    let standalone = start_backend();
    let direct = call(standalone.addr(), "POST", "/solve_batch", &body);
    assert_eq!(direct.status, 200);
    assert_eq!(
        routed.body, direct.body,
        "split-and-remerge must be invisible in the response bytes"
    );
    let doc = Json::parse(std::str::from_utf8(&routed.body).unwrap()).unwrap();
    assert_eq!(doc.get("reports").unwrap().as_arr().unwrap().len(), 6);
    standalone.stop();
    router.stop();
    for backend in backends {
        backend.stop();
    }
}

#[test]
fn a_killed_backend_is_ejected_and_only_its_keys_move() {
    let (mut backends, router) = start_cluster(
        3,
        RouterConfig {
            fail_threshold: 1,
            probe_interval: Duration::from_millis(50),
            ..RouterConfig::default()
        },
    );
    let games = mixed_workload(91, 9);
    let bodies: Vec<Vec<u8>> = games.iter().map(solve_body).collect();
    let owners: Vec<String> = bodies
        .iter()
        .map(|body| {
            let response = call(router.addr(), "POST", "/solve", body);
            assert_eq!(response.status, 200);
            response.header("x-backend").expect("owner").to_string()
        })
        .collect();

    // Kill the backend that owns the first key.
    let victim = owners[0].clone();
    let index = backends
        .iter()
        .position(|b| b.addr().to_string() == victim)
        .expect("victim is a cluster backend");
    backends.remove(index).stop();

    // Every key must still answer 200 — the victim's keys fail over to
    // a live backend (re-solved there: a miss is fine), everyone else's
    // stay put on the cache they warmed.
    for (body, owner) in bodies.iter().zip(&owners) {
        let response = call(router.addr(), "POST", "/solve", body);
        assert_eq!(
            response.status, 200,
            "no request may surface a 5xx while the ring heals"
        );
        let now = response.header("x-backend").expect("owner");
        if owner == &victim {
            assert_ne!(now, victim, "the dead backend must not be routed to");
        } else {
            assert_eq!(
                now,
                owner.as_str(),
                "ejection must move only the ejected backend's arc"
            );
            assert_eq!(response.header("x-cache"), Some("hit"));
        }
    }
    let metrics = router.metrics_json();
    let rows = metrics.get("backends").and_then(Json::as_arr).unwrap();
    let victim_row = rows
        .iter()
        .find(|row| row.get("addr").and_then(|v| v.as_str()) == Some(victim.as_str()))
        .expect("victim row");
    assert_eq!(victim_row.get("alive"), Some(&Json::Bool(false)));
    assert_eq!(victim_row.get("ejects").and_then(|v| v.as_u64()), Some(1));
    router.stop();
    for backend in backends {
        backend.stop();
    }
}

/// Polls `check` every 25 ms until it passes or `timeout` elapses.
fn poll_until(timeout: Duration, mut check: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        if check() {
            return true;
        }
        if std::time::Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn replication_two_survives_a_kill_and_read_repairs_the_returning_backend() {
    let (mut backends, router) = start_cluster(
        3,
        RouterConfig {
            replication: 2,
            fail_threshold: 1,
            probe_interval: Duration::from_millis(50),
            ..RouterConfig::default()
        },
    );
    let games = light_workload(131, 40);
    let bodies: Vec<Vec<u8>> = games.iter().map(solve_body).collect();

    // The aggregated health document must carry the replication factor.
    let health = call(router.addr(), "GET", "/healthz", b"");
    assert_eq!(health.status, 200);
    let health = Json::parse(std::str::from_utf8(&health.body).unwrap()).unwrap();
    assert_eq!(health.get("replication").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(
        health.get("live_backends").and_then(|v| v.as_u64()),
        Some(3)
    );

    // Cold pass: every key solved once on its primary; the write-through
    // ships each result to the key's second owner.
    let owners: Vec<String> = bodies
        .iter()
        .map(|body| {
            let response = call(router.addr(), "POST", "/solve", body);
            assert_eq!(response.status, 200);
            response.header("x-backend").expect("owner").to_string()
        })
        .collect();
    let replication_metrics = |key: &str| -> u64 {
        router
            .metrics_json()
            .get("replication")
            .and_then(|section| section.get(key).and_then(|v| v.as_u64()))
            .unwrap_or(0)
    };
    assert!(
        poll_until(Duration::from_secs(10), || {
            replication_metrics("writes") > 0 && replication_metrics("repair_queue_depth") == 0
        }),
        "replica write-through must drain: writes {}, queue {}",
        replication_metrics("writes"),
        replication_metrics("repair_queue_depth"),
    );

    // Kill the primary of the first key.
    let victim = owners[0].clone();
    let index = backends
        .iter()
        .position(|b| b.addr().to_string() == victim)
        .expect("victim is a cluster backend");
    backends.remove(index).stop();

    // Hot pass with one owner down: zero client-visible 5xx, and the
    // victim's keys are *hits* on their surviving replica — the cached
    // work was not lost.
    let mut hits = 0usize;
    for body in &bodies {
        let response = call(router.addr(), "POST", "/solve", body);
        assert_eq!(
            response.status, 200,
            "no request may surface a 5xx while one replica is down"
        );
        assert_ne!(response.header("x-backend"), Some(victim.as_str()));
        if response.header("x-cache") == Some("hit") {
            hits += 1;
        }
    }
    let hit_rate = hits as f64 / bodies.len() as f64;
    assert!(
        hit_rate >= 0.99,
        "failover must serve from the replica caches: hit rate {hit_rate}"
    );

    // Restart the victim on its old address (retrying while the OS
    // releases the port). It comes back cold; the router's prober
    // readmits it and the queued read-repairs repopulate it.
    let restarted = {
        let config = ServerConfig {
            addr: victim.clone(),
            workers: 1,
            queue_capacity: 64,
            read_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        };
        let mut bound = None;
        for _ in 0..100 {
            match Server::bind(config.clone()) {
                Ok(server) => {
                    bound = Some(server.start().expect("restart victim"));
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        bound.expect("rebind the victim's address")
    };

    assert!(
        poll_until(Duration::from_secs(10), || {
            replication_metrics("read_repairs") > 0
                && replication_metrics("repair_queue_depth") == 0
        }),
        "read-repairs must deliver once the backend is readmitted: repairs {}, queue {}",
        replication_metrics("read_repairs"),
        replication_metrics("repair_queue_depth"),
    );
    let backend_metrics = call(restarted.addr(), "GET", "/metrics", b"");
    let doc = Json::parse(std::str::from_utf8(&backend_metrics.body).unwrap()).unwrap();
    assert!(
        doc.get("cache_puts").and_then(|v| v.as_u64()).unwrap_or(0) > 0,
        "the restarted backend must be repopulated by read-repair"
    );
    assert_eq!(
        doc.get("cache_put_rejected").and_then(|v| v.as_u64()),
        Some(0),
        "validation refused a genuine read-repair body"
    );

    // The repaired keys serve as hits from their rightful primary again.
    let repaired = bodies
        .iter()
        .zip(&owners)
        .find(|(_, owner)| *owner == &victim)
        .map(|(body, _)| body)
        .expect("the victim owned at least the first key");
    assert!(
        poll_until(Duration::from_secs(10), || {
            let response = call(router.addr(), "POST", "/solve", repaired);
            response.status == 200
                && response.header("x-backend") == Some(victim.as_str())
                && response.header("x-cache") == Some("hit")
        }),
        "a repaired key must come back as a hit on its readmitted primary"
    );

    router.stop();
    restarted.stop();
    for backend in backends {
        backend.stop();
    }
}

/// A unique temp path per call so parallel tests never collide.
fn temp_log(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("bi-cluster-{}-{tag}-{n}.log", std::process::id()))
}

#[test]
fn a_disk_backed_server_reboots_warm_and_byte_identical() {
    let path = temp_log("warm");
    let disk_config = ServerConfig {
        workers: 1,
        read_timeout: Duration::from_secs(5),
        disk_path: Some(path.clone()),
        ..ServerConfig::default()
    };
    let games = light_workload(101, 50);
    let bodies: Vec<Vec<u8>> = games.iter().map(solve_body).collect();

    // First life: solve the whole pool cold over the socket.
    let first_run: Vec<Vec<u8>> = {
        let handle = Server::bind(disk_config.clone())
            .expect("bind disk-backed server")
            .start()
            .expect("start");
        let responses: Vec<Vec<u8>> = bodies
            .iter()
            .map(|body| {
                let response = call(handle.addr(), "POST", "/solve", body);
                assert_eq!(response.status, 200);
                response.body
            })
            .collect();
        handle.service().sync_disk();
        handle.stop();
        responses
    };

    // Second life: same log, every replay must be a warm hit with the
    // exact bytes of the first life.
    let handle = Server::bind(disk_config)
        .expect("rebind on the same log")
        .start()
        .expect("restart");
    let mut hits = 0usize;
    for (body, expected) in bodies.iter().zip(&first_run) {
        let response = call(handle.addr(), "POST", "/solve", body);
        assert_eq!(response.status, 200);
        if response.header("x-cache") == Some("hit") {
            hits += 1;
        }
        assert_eq!(
            &response.body, expected,
            "a disk-recovered report must be byte-identical"
        );
    }
    let hit_rate = hits as f64 / bodies.len() as f64;
    assert!(
        hit_rate >= 0.99,
        "warm restart must serve from the recovered log: hit rate {hit_rate}"
    );
    let metrics = call(handle.addr(), "GET", "/metrics", b"");
    let doc = Json::parse(std::str::from_utf8(&metrics.body).unwrap()).unwrap();
    let disk = doc.get("disk").expect("disk section in metrics");
    assert_eq!(
        disk.get("recovered_records").and_then(|v| v.as_u64()),
        Some(bodies.len() as u64)
    );
    handle.stop();
    std::fs::remove_file(&path).ok();
}

/// Writes raw `wire` bytes on a fresh connection and returns the
/// answer's status, or `None` when the peer closed without one. Write
/// errors are ignored: a server may reject (and close) before the
/// client has finished sending an oversized head.
fn raw_status(addr: std::net::SocketAddr, wire: &[u8]) -> Option<u16> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let _ = writer.write_all(wire).and_then(|()| writer.flush());
    read_response(&mut reader).ok().map(|r| r.status)
}

#[test]
fn router_and_backend_answer_protocol_errors_with_the_same_status() {
    let (backends, router) = start_cluster(1, RouterConfig::default());
    let mut long_line = b"GET /healthz HTTP/1.1\r\nX-Long: ".to_vec();
    long_line.resize(70 * 1024, b'a');
    long_line.extend_from_slice(b"\r\n\r\n");
    let mut many_lines = b"GET /healthz HTTP/1.1\r\n".to_vec();
    while many_lines.len() <= 70 * 1024 {
        many_lines.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaa\r\n");
    }
    many_lines.extend_from_slice(b"\r\n");
    let oversized = format!(
        "POST /solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        128 * 1024 * 1024
    );
    let cases: Vec<(&str, Vec<u8>, u16)> = vec![
        ("bad request line", b"NONSENSE\r\n\r\n".to_vec(), 400),
        ("bad version", b"GET /healthz SPDY/3\r\n\r\n".to_vec(), 400),
        (
            "bad Content-Length",
            b"POST /solve HTTP/1.1\r\nContent-Length: nine\r\n\r\n".to_vec(),
            400,
        ),
        (
            "header without a colon",
            b"POST /solve HTTP/1.1\r\nno-colon-header\r\n\r\n".to_vec(),
            400,
        ),
        ("oversized Content-Length", oversized.into_bytes(), 413),
        ("one header line over the cap", long_line, 431),
        ("a head over the cap in many lines", many_lines, 431),
        (
            "chunked transfer encoding",
            b"POST /solve HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
            501,
        ),
    ];
    for (name, wire, status) in &cases {
        let direct = raw_status(backends[0].addr(), wire);
        let routed = raw_status(router.addr(), wire);
        assert_eq!(direct, Some(*status), "{name}: backend status");
        assert_eq!(routed, direct, "{name}: router and backend disagree");
    }
    router.stop();
    for backend in backends {
        backend.stop();
    }
}

#[test]
fn pipelined_keep_alive_requests_through_the_router_are_answered_in_order() {
    let (backends, router) = start_cluster(2, RouterConfig::default());
    let games = mixed_workload(141, 2);
    let bodies: Vec<Vec<u8>> = games.iter().map(solve_body).collect();
    let expected: Vec<Vec<u8>> = bodies
        .iter()
        .map(|body| call(backends[0].addr(), "POST", "/solve", body).body)
        .collect();
    // Both requests leave in one write, so the router finds the second
    // already buffered when it has answered the first.
    let mut wire = Vec::new();
    for body in &bodies {
        write_request(&mut wire, "POST", "/solve", body, true).expect("encode request");
    }
    let stream = TcpStream::connect(router.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer.write_all(&wire).expect("write pipelined requests");
    writer.flush().expect("flush");
    for (i, expected) in expected.iter().enumerate() {
        let response = read_response(&mut reader).expect("read response");
        assert_eq!(response.status, 200);
        assert_eq!(&response.body, expected, "response {i} out of order");
        assert_eq!(response.header("connection"), Some("keep-alive"));
    }
    // The connection stays usable after the pipelined pair.
    write_request(&mut writer, "GET", "/healthz", b"", false).expect("write");
    assert_eq!(read_response(&mut reader).expect("read").status, 200);
    router.stop();
    for backend in backends {
        backend.stop();
    }
}

#[test]
fn with_every_backend_dead_the_router_solves_locally_and_byte_identically() {
    let (backends, router) = start_cluster(
        2,
        RouterConfig {
            fail_threshold: 1,
            probe_interval: Duration::from_millis(50),
            ..RouterConfig::default()
        },
    );
    // The oracle: a standalone bi-serve, alive for the whole test so its
    // port cannot be handed to a restarted cluster member.
    let standalone = start_backend();
    let games = mixed_workload(151, 3);
    let solve = solve_body(&games[0]);
    let batch = BatchRequest {
        games: games.clone(),
        config: SolverConfig::default(),
    }
    .canonical_bytes();
    let direct_solve = call(standalone.addr(), "POST", "/solve", &solve);
    let direct_batch = call(standalone.addr(), "POST", "/solve_batch", &batch);
    assert_eq!(direct_solve.status, 200);
    assert_eq!(direct_batch.status, 200);

    for backend in backends {
        backend.stop();
    }
    let live_backends = || -> Option<u64> {
        let health = call(router.addr(), "GET", "/healthz", b"");
        let doc = Json::parse(std::str::from_utf8(&health.body).ok()?).ok()?;
        doc.get("live_backends").and_then(|v| v.as_u64())
    };
    assert!(
        poll_until(Duration::from_secs(10), || live_backends() == Some(0)),
        "the prober must eject both stopped backends"
    );

    let routed_solve = call(router.addr(), "POST", "/solve", &solve);
    assert_eq!(routed_solve.status, 200);
    assert_eq!(routed_solve.header("x-backend"), Some("local"));
    assert_eq!(routed_solve.body, direct_solve.body);
    let routed_batch = call(router.addr(), "POST", "/solve_batch", &batch);
    assert_eq!(routed_batch.status, 200);
    assert_eq!(routed_batch.header("x-backend"), Some("local"));
    assert_eq!(routed_batch.body, direct_batch.body);

    let local_solves = router
        .metrics_json()
        .get("fallback")
        .and_then(|f| f.get("local_solves").and_then(|v| v.as_u64()))
        .unwrap_or(0);
    assert!(local_solves > 0, "the fallback counter never moved");
    router.stop();
    standalone.stop();
}
