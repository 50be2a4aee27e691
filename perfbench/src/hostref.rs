//! The host references: a fixed kernel and a no-op relay of the
//! benchmark's own, timed in between the program's operations.
//!
//! A shared host runs the same code 10–40% slower for minutes at a time
//! when its other tenants are busy. Every timing of the program moves
//! with it, so two sets of runs made minutes apart disagree by more than
//! any bound a regression check can use. The kernel below never changes
//! with the program; timed in the same run, it measures how fast the host
//! was running at that moment. The gated latency is the program's latency
//! divided by the kernel's time: a change to the program moves it, a slow
//! spell of the host moves both parts and cancels out. The raw latencies
//! are still printed next to it.
//!
//! The kernel runs on the calling thread only: a kernel spread over
//! threads would also time where the scheduler happens to place them.
//! The service workloads' latency is mostly wake-ups and loopback
//! copies, which drift with the host differently from its compute speed;
//! their reference is [`relay_probe`], the same open-loop traffic through
//! two no-op hops.

use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use crate::games::http_request;
use crate::loadgen::{self, read_message, Due, Outcome};

/// Words in the kernel's buffer: 256 KiB, well inside one core's L2.
const WORDS: usize = 1 << 15;
/// Timed passes over the buffer per run: about 1 ms on a 2.1 GHz Xeon.
const PASSES: usize = 16;

/// The reference kernel and its buffer.
pub struct HostRef {
    buf: Vec<u64>,
}

impl Default for HostRef {
    fn default() -> HostRef {
        HostRef {
            buf: vec![0u64; WORDS],
        }
    }
}

impl HostRef {
    /// Runs the kernel once and returns its time, µs. One untimed pass
    /// comes first, so the program's last operation, which evicted the
    /// buffer from the caches, does not count.
    pub fn time_us(&mut self) -> f64 {
        kernel(&mut self.buf, 1);
        let t = Instant::now();
        kernel(&mut self.buf, PASSES);
        t.elapsed().as_secs_f64() * 1e6
    }
}

/// Seeded read-modify-writes at random words of `buf`: integer multiply
/// and dependent loads and stores in L1/L2.
fn kernel(buf: &mut [u64], passes: usize) {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..passes {
        for k in 0..buf.len() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = (x >> 49) as usize % buf.len();
            buf[j] ^= x.rotate_left(k as u32 & 63);
        }
    }
    std::hint::black_box(&buf);
}

/// Sends `schedule` (indexes into `requests`, complete HTTP requests)
/// through a no-op service on loopback: a relay thread that forwards
/// each request to an echo thread and the echo's answer back, the same
/// two hops as `bi-router` → `bi-serve`, with no work at either hop. The
/// echo answers `200` with the request's own body. Both threads end when
/// the generator closes its connection, and are joined before returning.
///
/// # Errors
///
/// Bind or connect failures, and transport failures of either hop.
pub fn relay_probe(requests: &[Vec<u8>], schedule: &[Due]) -> io::Result<Vec<Outcome>> {
    let echo = TcpListener::bind("127.0.0.1:0")?;
    let relay = TcpListener::bind("127.0.0.1:0")?;
    let relay_addr = relay.local_addr()?;
    // Connected before either thread starts, so the echo's accept cannot
    // wait for a connection that never comes.
    let upstream = TcpStream::connect(echo.local_addr()?)?;
    std::thread::scope(|s| {
        let echo = s.spawn(move || echo_loop(&echo));
        let relay = s.spawn(move || relay_loop(&relay, upstream));
        let out = loadgen::run(&relay_addr.to_string(), requests, schedule, false);
        if out.is_err() {
            // The generator never connected: release the relay's accept.
            let _ = TcpStream::connect(relay_addr);
        }
        for hop in [echo.join(), relay.join()] {
            hop.expect("a relay probe thread panicked")?;
        }
        out
    })
}

/// Answers every request on one connection with its own body.
fn echo_loop(listener: &TcpListener) -> io::Result<()> {
    let (conn, _) = listener.accept()?;
    conn.set_nodelay(true)?;
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = conn;
    while let Ok((_, body)) = read_message(&mut reader) {
        let mut answer =
            format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", body.len()).into_bytes();
        answer.extend_from_slice(&body);
        writer.write_all(&answer)?;
    }
    Ok(())
}

/// Forwards every request of one client connection to `upstream` and
/// the answer back. Returning drops `upstream`, which ends the echo.
fn relay_loop(listener: &TcpListener, upstream: TcpStream) -> io::Result<()> {
    let (client, _) = listener.accept()?;
    client.set_nodelay(true)?;
    upstream.set_nodelay(true)?;
    let mut from_client = BufReader::new(client.try_clone()?);
    let mut from_upstream = BufReader::new(upstream.try_clone()?);
    let (mut to_client, mut to_upstream) = (client, upstream);
    while let Ok((_, body)) = read_message(&mut from_client) {
        to_upstream.write_all(&http_request(&body))?;
        let (status, answer) = loadgen::read_response(&mut from_upstream)?;
        let mut out = format!(
            "HTTP/1.1 {status} OK\r\nContent-Length: {}\r\n\r\n",
            answer.len()
        )
        .into_bytes();
        out.extend_from_slice(&answer);
        to_client.write_all(&out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_takes_measurable_time() {
        let t = HostRef::default().time_us();
        assert!(t.is_finite() && t > 10.0, "{t} us");
    }

    #[test]
    fn the_relay_answers_every_request_with_its_body() {
        let requests: Vec<Vec<u8>> = ["{}", "{\"a\":1}"]
            .iter()
            .map(|b| http_request(b.as_bytes()))
            .collect();
        let schedule =
            loadgen::poisson(3, 2000.0, 50, |rng| rand::Rng::random_range(rng, 0..2usize));
        let out = relay_probe(&requests, &schedule).unwrap();
        assert_eq!(out.len(), 50);
        assert!(out.iter().all(Outcome::ok));
        assert!(out
            .iter()
            .all(|o| o.latency_ns > 0 && o.latency_ns < u64::MAX));
    }
}
