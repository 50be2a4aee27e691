//! Run results: the human-readable table and the one-line JSON result.

use crate::stats::Summary;

/// One reported metric of a run.
#[derive(Clone, Debug)]
pub struct Metric {
    /// The metric's name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// The spread behind the value: quartiles and sample count of what
    /// the value summarises (`None` for counts and ratios of totals).
    pub spread: Option<Summary>,
}

impl Metric {
    /// A metric summarising samples by their median.
    pub fn median_of(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        let spread = Summary::of(samples);
        Metric {
            name,
            unit,
            value: spread.median,
            spread: Some(spread),
        }
    }

    /// A metric reported as one value (a count, a ratio of totals).
    pub fn value(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            spread: None,
        }
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every output matched its reference.
    pub correct: bool,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed: wrong output, transport error, 429, 5xx.
    pub failed: u64,
    /// The reported metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (checks, self times, notes).
    pub notes: Vec<String>,
    /// Metrics printed for information only, not in the JSON result.
    pub info: Vec<Metric>,
}

impl RunResult {
    /// Prints the table and notes to stdout, then the JSON result line
    /// last.
    pub fn print(&self, workload: &str, seed: u64, trace: bool) {
        println!(
            "perfbench: workload={workload} seed={seed} trace={} correct={} attempted={} failed={} failed_frac={:.6}",
            u8::from(trace),
            self.correct,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for note in &self.notes {
            println!("  {note}");
        }
        println!(
            "  {:<32} {:>8} {:>14} {:>14} {:>14} {:>8}",
            "metric", "unit", "value", "q1", "q3", "n"
        );
        let info = self.info.iter().map(|m| (m, " (info)"));
        for (m, tag) in self.metrics.iter().map(|m| (m, "")).chain(info) {
            let (q1, q3, n) = match m.spread {
                Some(s) => (fmt(s.q1), fmt(s.q3), s.n.to_string()),
                None => ("-".into(), "-".into(), "-".into()),
            };
            println!(
                "  {:<32} {:>8} {:>14} {:>14} {:>14} {:>8}",
                format!("{}{tag}", m.name),
                m.unit,
                fmt(m.value),
                q1,
                q3,
                n
            );
        }
        println!("{}", self.json());
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`,
    /// with every value written out in full.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn fmt(v: f64) -> String {
    if v.abs() >= 1000.0 || v == 0.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}
