//! The open-loop generator: one connection, one sender thread writing
//! each request at its due time, and the calling thread reading the
//! pipelined responses in order. Every latency is timed from the
//! request's due time, so a stall that delays later sends is charged to
//! those requests too; how late the sender itself ran is reported
//! separately.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bi_util::rng::seeded;
use rand::Rng;

/// One scheduled request: when it is due and which request it sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Due {
    /// Due time, nanoseconds after the schedule starts.
    pub at_ns: u64,
    /// Index into the request table.
    pub req: usize,
}

/// The fate of one scheduled request.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// HTTP status; 0 for a transport failure.
    pub status: u16,
    /// Due time to response read, ns (`u64::MAX` when it never came).
    pub latency_ns: u64,
    /// Due time to the start of the send, ns.
    pub late_ns: u64,
    /// Start of the send to the end of the send, ns.
    pub send_ns: u64,
    /// The response body (kept only when asked for).
    pub body: Vec<u8>,
}

impl Outcome {
    /// A 2xx answer.
    #[must_use]
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// A 2xx answer within `limit_ns` of its due time. Refused and failed
    /// requests always miss the limit.
    #[must_use]
    pub fn good(&self, limit_ns: u64) -> bool {
        self.ok() && self.latency_ns <= limit_ns
    }
}

/// A Poisson arrival schedule of `n` requests at `rate` per second; the
/// request of each arrival is drawn by `pick`. A pure function of `seed`.
pub fn poisson(
    seed: u64,
    rate: f64,
    n: usize,
    mut pick: impl FnMut(&mut rand::rngs::StdRng) -> usize,
) -> Vec<Due> {
    let mut rng = seeded(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.random_range(0.0..1.0);
            t += -(1.0 - u).ln() / rate;
            Due {
                at_ns: (t * 1e9) as u64,
                req: pick(&mut rng),
            }
        })
        .collect()
}

/// A burst: every request due at once, in table order.
#[must_use]
pub fn burst(n: usize) -> Vec<Due> {
    (0..n).map(|req| Due { at_ns: 0, req }).collect()
}

/// Sleeps until `deadline`, finishing the last stretch by spinning so
/// the wake-up is not left to timer slack (yielding instead can lose the
/// core for a whole scheduler slice).
fn wait_until(deadline: Instant) {
    const SPIN: Duration = Duration::from_micros(60);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Sends `schedule` over one keep-alive connection to `addr` and returns
/// one [`Outcome`] per scheduled request, in schedule order. `requests`
/// holds complete HTTP requests.
///
/// # Errors
///
/// Only a failed connect is an error; later transport failures mark the
/// affected requests with status 0.
pub fn run(
    addr: &str,
    requests: &[Vec<u8>],
    schedule: &[Due],
    keep_bodies: bool,
) -> io::Result<Vec<Outcome>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(20)))?;
    let mut writer = stream.try_clone()?;
    let stop = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(1);
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(schedule.len());
    let sends = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut sends = Vec::with_capacity(schedule.len());
            for due in schedule {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let at = start + Duration::from_nanos(due.at_ns);
                wait_until(at);
                let t0 = Instant::now();
                if writer.write_all(&requests[due.req]).is_err() {
                    break;
                }
                let t1 = Instant::now();
                sends.push(((t0 - at).as_nanos() as u64, (t1 - t0).as_nanos() as u64));
            }
            sends
        });
        let mut reader = BufReader::with_capacity(1 << 16, &stream);
        for due in schedule {
            match read_response(&mut reader) {
                Ok((status, body)) => {
                    let at = start + Duration::from_nanos(due.at_ns);
                    outcomes.push(Outcome {
                        status,
                        latency_ns: Instant::now().saturating_duration_since(at).as_nanos() as u64,
                        late_ns: 0,
                        send_ns: 0,
                        body: if keep_bodies { body } else { Vec::new() },
                    });
                }
                Err(_) => {
                    stop.store(true, Ordering::Relaxed);
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    break;
                }
            }
        }
        sender.join().expect("sender thread")
    });
    for (o, (late, send)) in outcomes.iter_mut().zip(&sends) {
        o.late_ns = *late;
        o.send_ns = *send;
    }
    while outcomes.len() < schedule.len() {
        outcomes.push(Outcome {
            status: 0,
            latency_ns: u64::MAX,
            late_ns: sends.get(outcomes.len()).map_or(0, |s| s.0),
            send_ns: 0,
            body: Vec::new(),
        });
    }
    Ok(outcomes)
}

/// Reads one HTTP/1.1 response with a `Content-Length` body.
///
/// # Errors
///
/// Transport errors, end of stream, or a malformed response.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<(u16, Vec<u8>)> {
    let (line, body) = read_message(reader)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, body))
}

/// Reads one HTTP/1.1 message (request or response) with a
/// `Content-Length` body; returns its first line and its body.
///
/// # Errors
///
/// Transport errors, end of stream, or a malformed message.
pub fn read_message<R: BufRead>(reader: &mut R) -> io::Result<(String, Vec<u8>)> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut first = String::new();
    if reader.read_line(&mut first)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    let mut line = String::new();
    let mut len = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated head",
            ));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                len = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok((first, body))
}

/// One blocking request on a fresh connection (for `/metrics` scrapes).
///
/// # Errors
///
/// Transport errors or a malformed response.
pub fn get(addr: &str, path: &str) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )?;
    read_response(&mut BufReader::new(stream))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// A server answering each request with the status `status_of(i)`
    /// after sleeping `delay_of(i)`; it closes after `n` requests.
    fn fake_server(
        n: usize,
        delay_of: fn(usize) -> Duration,
        status_of: fn(usize) -> u16,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for i in 0..n {
                let mut len = 0usize;
                let mut line = String::new();
                loop {
                    line.clear();
                    reader.read_line(&mut line).unwrap();
                    if line.trim_end().is_empty() {
                        break;
                    }
                    if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                        len = v.trim().parse().unwrap();
                    }
                }
                let mut body = vec![0u8; len];
                reader.read_exact(&mut body).unwrap();
                std::thread::sleep(delay_of(i));
                let status = status_of(i);
                write!(
                    writer,
                    "HTTP/1.1 {status} X\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .unwrap();
                writer.write_all(&body).unwrap();
            }
            // Let the client read every answer before the hang-up.
            std::thread::sleep(Duration::from_millis(50));
        });
        (addr, handle)
    }

    fn requests() -> Vec<Vec<u8>> {
        vec![crate::games::http_request(b"{\"x\":1}")]
    }

    #[test]
    fn a_stalled_server_charges_the_wait_to_every_request_due_during_it() {
        // The first answer stalls 60 ms; ten requests are due 5 ms apart.
        let (addr, server) = fake_server(
            10,
            |i| Duration::from_millis(if i == 0 { 60 } else { 0 }),
            |_| 200,
        );
        let schedule: Vec<Due> = (0..10)
            .map(|i| Due {
                at_ns: i * 5_000_000,
                req: 0,
            })
            .collect();
        let out = run(&addr, &requests(), &schedule, true).unwrap();
        server.join().unwrap();
        for (i, o) in out.iter().enumerate() {
            assert!(o.ok());
            assert_eq!(o.body, b"{\"x\":1}");
            // Nothing is answered before the stall ends at ~60 ms, so a
            // request due at 5·i ms waits at least (60 − 5·i) ms.
            let floor_ns = 60_000_000u64.saturating_sub(i as u64 * 5_000_000);
            assert!(
                o.latency_ns >= floor_ns,
                "request {i}: latency {} ns below the stall floor {floor_ns} ns",
                o.latency_ns
            );
        }
        // The sender itself kept to the schedule: it is never blocked by
        // the stall, so it was never tens of milliseconds late.
        assert!(out.iter().all(|o| o.late_ns < 20_000_000));
    }

    #[test]
    fn refused_failed_and_missing_answers_count_as_failed() {
        // 429 on the 2nd, 500 on the 4th, then the server hangs up after
        // five answers of the eight scheduled.
        let (addr, server) = fake_server(
            5,
            |_| Duration::ZERO,
            |i| match i {
                1 => 429,
                3 => 500,
                _ => 200,
            },
        );
        let schedule: Vec<Due> = (0..8)
            .map(|i| Due {
                at_ns: i * 1_000_000,
                req: 0,
            })
            .collect();
        let out = run(&addr, &requests(), &schedule, false).unwrap();
        server.join().unwrap();
        assert_eq!(out.len(), 8);
        let failed = out.iter().filter(|o| !o.ok()).count();
        assert_eq!(failed, 5, "429 + 500 + three unanswered");
        assert_eq!(out.iter().filter(|o| o.status == 0).count(), 3);
        let limit = u64::MAX - 1;
        assert_eq!(out.iter().filter(|o| o.good(limit)).count(), 3);
    }

    #[test]
    fn a_seed_reproduces_the_schedule() {
        let a = poisson(9, 1000.0, 500, |r| r.random_range(0..7));
        let b = poisson(9, 1000.0, 500, |r| r.random_range(0..7));
        let c = poisson(10, 1000.0, 500, |r| r.random_range(0..7));
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Mean spacing is 1/rate.
        let mean_gap_ns = a.last().unwrap().at_ns as f64 / 500.0;
        assert!((mean_gap_ns - 1e6).abs() < 2e5, "mean gap {mean_gap_ns}");
    }
}
