//! Deterministic fault injection for chaos testing the serving tier.
//!
//! A [`FaultPlan`] is a *seeded, replayable* sequence of fault decisions
//! threaded through the reactor's stream seams (`bi-serve
//! --fault-plan SPEC`): the accept path can refuse connections, the
//! read path can disconnect mid-body, throttle to short reads, or stall
//! on an injected delay, the write path can throttle to short writes,
//! and the dispatch path can answer an injected `500`. The n-th
//! decision is a pure function of `(seed, n)` — a splitmix64-style hash
//! with no shared RNG state — so two runs with the same seed and the
//! same traffic order inject byte-identical fault sequences, which is
//! what lets a chaos test assert exact outcomes instead of "something
//! probably broke".
//!
//! # Spec grammar
//!
//! ```text
//! seed=<u64>[,rate=<faults-per-million>][,kinds=<kind>+<kind>+…][,delay-ms=<u64>]
//! ```
//!
//! Kinds: `refuse`, `disconnect`, `short-read`, `short-write`, `delay`,
//! `err500`. Defaults: every kind enabled, `rate=50000` (5% of
//! decisions), `delay-ms=5`.
//!
//! # Examples
//!
//! ```
//! use bi_service::fault::{FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::parse("seed=7,rate=500000,kinds=refuse+err500").unwrap();
//! let first: Vec<Option<FaultKind>> = (0..8).map(|_| plan.next()).collect();
//! // Replay from the same seed: the identical sequence.
//! let replay = FaultPlan::parse("seed=7,rate=500000,kinds=refuse+err500").unwrap();
//! let second: Vec<Option<FaultKind>> = (0..8).map(|_| replay.next()).collect();
//! assert_eq!(first, second);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bi_util::hash::{mix64, GOLDEN_GAMMA};
use bi_util::Json;

/// One injectable fault at a reactor seam.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Drop a freshly accepted connection before reading a byte.
    Refuse,
    /// Close the connection mid-exchange (the peer sees a reset/EOF).
    Disconnect,
    /// Cap the next read pass at one byte (a pathologically slow peer).
    ShortRead,
    /// Cap the next write pass at one byte (a congested return path).
    ShortWrite,
    /// Sleep the configured delay before serving the event.
    Delay,
    /// Answer the request with an injected `500` instead of serving it.
    Err500,
}

impl FaultKind {
    /// Every kind, in spec order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::Refuse,
        FaultKind::Disconnect,
        FaultKind::ShortRead,
        FaultKind::ShortWrite,
        FaultKind::Delay,
        FaultKind::Err500,
    ];

    /// The spec/metrics name of this kind.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Refuse => "refuse",
            FaultKind::Disconnect => "disconnect",
            FaultKind::ShortRead => "short-read",
            FaultKind::ShortWrite => "short-write",
            FaultKind::Delay => "delay",
            FaultKind::Err500 => "err500",
        }
    }

    fn from_name(name: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Decisions are drawn per million: `rate=1000000` faults every event.
const RATE_DENOMINATOR: u64 = 1_000_000;

/// A seeded, deterministic fault schedule plus its injection counters.
///
/// The plan owns one atomic decision counter; every seam that might
/// inject calls [`FaultPlan::next`], consuming the next decision of the
/// sequence. Decisions are pure in `(seed, n)` (see
/// [`FaultPlan::decision`]), so the consumed sequence replays exactly
/// under the same traffic order.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rate_per_million: u64,
    kinds: Vec<FaultKind>,
    delay: Duration,
    counter: AtomicU64,
    injected: [AtomicU64; FaultKind::ALL.len()],
}

impl FaultPlan {
    /// Parses a plan spec (see the module docs for the grammar).
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed field; `seed` is required.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut seed = None;
        let mut rate = 50_000u64;
        let mut kinds = FaultKind::ALL.to_vec();
        let mut delay_ms = 5u64;
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (field, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault-plan field `{part}` is not `name=value`"))?;
            match field {
                "seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("fault-plan seed `{value}` is not a u64"))?,
                    );
                }
                "rate" => {
                    rate = value
                        .parse::<u64>()
                        .ok()
                        .filter(|&r| r <= RATE_DENOMINATOR)
                        .ok_or_else(|| {
                            format!("fault-plan rate `{value}` is not in 0..={RATE_DENOMINATOR}")
                        })?;
                }
                "kinds" => {
                    kinds = value
                        .split('+')
                        .map(|name| {
                            FaultKind::from_name(name)
                                .ok_or_else(|| format!("unknown fault kind `{name}`"))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    if kinds.is_empty() {
                        return Err("fault-plan kinds list is empty".into());
                    }
                }
                "delay-ms" => {
                    delay_ms = value
                        .parse::<u64>()
                        .map_err(|_| format!("fault-plan delay-ms `{value}` is not a u64"))?;
                }
                other => return Err(format!("unknown fault-plan field `{other}`")),
            }
        }
        let seed = seed.ok_or("fault-plan requires seed=<u64>")?;
        Ok(FaultPlan {
            seed,
            rate_per_million: rate,
            kinds,
            delay: Duration::from_millis(delay_ms),
            counter: AtomicU64::new(0),
            injected: Default::default(),
        })
    }

    /// The pure decision function: what the `n`-th event of a plan with
    /// this seed/rate/kinds does. [`FaultPlan::next`] is exactly
    /// `decision(counter++)` — exposed so tests can assert the schedule
    /// without consuming it.
    #[must_use]
    pub fn decision(&self, n: u64) -> Option<FaultKind> {
        let h = mix(self.seed, n);
        if h % RATE_DENOMINATOR >= self.rate_per_million {
            return None;
        }
        Some(self.kinds[(h >> 32) as usize % self.kinds.len()])
    }

    /// Draws the next fault decision, counting any injection per kind.
    #[must_use]
    pub fn next(&self) -> Option<FaultKind> {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let fault = self.decision(n)?;
        let slot = FaultKind::ALL
            .iter()
            .position(|&k| k == fault)
            .expect("every kind is in ALL");
        self.injected[slot].fetch_add(1, Ordering::Relaxed);
        Some(fault)
    }

    /// The injected-delay duration for [`FaultKind::Delay`] events.
    #[must_use]
    pub fn delay(&self) -> Duration {
        self.delay
    }

    /// Total faults injected so far (all kinds).
    #[must_use]
    pub fn injected_total(&self) -> u64 {
        self.injected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// The `faults` section of `GET /metrics`: the seed, the decisions
    /// drawn, and per-kind injection counts.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("seed".into(), Json::from_u64(self.seed)),
            (
                "decisions".into(),
                Json::from_u64(self.counter.load(Ordering::Relaxed)),
            ),
            (
                "injected_total".into(),
                Json::from_u64(self.injected_total()),
            ),
        ];
        for (kind, count) in FaultKind::ALL.iter().zip(&self.injected) {
            fields.push((
                format!("injected_{}", kind.name().replace('-', "_")),
                Json::from_u64(count.load(Ordering::Relaxed)),
            ));
        }
        Json::Obj(fields)
    }
}

/// The splitmix64 finalizer over `(seed, n)` — a statistically flat
/// 64-bit hash, pure and lock-free.
fn mix(seed: u64, n: u64) -> u64 {
    mix64(seed ^ n.wrapping_mul(GOLDEN_GAMMA))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_yields_the_same_injected_sequence() {
        let a = FaultPlan::parse("seed=42,rate=300000").unwrap();
        let b = FaultPlan::parse("seed=42,rate=300000").unwrap();
        let seq_a: Vec<Option<FaultKind>> = (0..512).map(|_| a.next()).collect();
        let seq_b: Vec<Option<FaultKind>> = (0..512).map(|_| b.next()).collect();
        assert_eq!(seq_a, seq_b);
        assert_eq!(a.injected_total(), b.injected_total());
        assert!(a.injected_total() > 0, "a 30% rate must fire in 512 draws");
        // And the pure form agrees with the consumed sequence.
        let pure: Vec<Option<FaultKind>> = (0..512).map(|n| a.decision(n)).collect();
        assert_eq!(seq_a, pure);
    }

    #[test]
    fn decisions_are_pinned() {
        // Chaos runs replay by seed: the first 64 draws of this plan, one
        // character each (`.` none, else the kind's index in `ALL`).
        let plan = FaultPlan::parse("seed=42,rate=300000").unwrap();
        let drawn: String = (0..64)
            .map(|n| match plan.decision(n) {
                None => '.',
                Some(k) => {
                    char::from(b'0' + FaultKind::ALL.iter().position(|&x| x == k).unwrap() as u8)
                }
            })
            .collect();
        assert_eq!(
            drawn,
            "10235.3...1..5...3.5...0..2....20........5.1.....35..3.51...1.5."
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::parse("seed=1,rate=300000").unwrap();
        let b = FaultPlan::parse("seed=2,rate=300000").unwrap();
        let seq_a: Vec<Option<FaultKind>> = (0..256).map(|n| a.decision(n)).collect();
        let seq_b: Vec<Option<FaultKind>> = (0..256).map(|n| b.decision(n)).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn rate_bounds_hold() {
        let never = FaultPlan::parse("seed=9,rate=0").unwrap();
        assert!((0..1000).all(|n| never.decision(n).is_none()));
        let always = FaultPlan::parse("seed=9,rate=1000000").unwrap();
        assert!((0..1000).all(|n| always.decision(n).is_some()));
        // The default 5% rate lands in a loose band over 10k draws.
        let plan = FaultPlan::parse("seed=9").unwrap();
        let hits = (0..10_000).filter(|&n| plan.decision(n).is_some()).count();
        assert!((200..=800).contains(&hits), "5% of 10k drew {hits}");
    }

    #[test]
    fn kinds_filter_restricts_the_draw() {
        let plan = FaultPlan::parse("seed=3,rate=1000000,kinds=delay+err500").unwrap();
        for n in 0..1000 {
            let kind = plan.decision(n).unwrap();
            assert!(matches!(kind, FaultKind::Delay | FaultKind::Err500));
        }
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        for (spec, needle) in [
            ("", "requires seed"),
            ("rate=10", "requires seed"),
            ("seed=x", "not a u64"),
            ("seed=1,rate=2000000", "not in 0..="),
            ("seed=1,kinds=frobnicate", "unknown fault kind"),
            ("seed=1,bogus=2", "unknown fault-plan field"),
            ("seed", "not `name=value`"),
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn metrics_json_counts_per_kind() {
        let plan = FaultPlan::parse("seed=5,rate=1000000,kinds=refuse").unwrap();
        for _ in 0..3 {
            let _ = plan.next();
        }
        let doc = plan.to_json();
        assert_eq!(doc.get("decisions").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("injected_total").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("injected_refuse").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("injected_err500").unwrap().as_u64(), Some(0));
    }
}
