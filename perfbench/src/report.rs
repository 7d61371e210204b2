//! The result: named metrics with units and sample counts, rendered as
//! text lines and as the one-line JSON result.

use std::fmt::Write as _;

use crate::stats::{percentile, Blocked};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit (`us`, `ms`, `s`, `1/s`, `MiB`, `count`, `ratio`).
    pub unit: &'static str,
    /// Samples the value was computed over, where it is a statistic.
    pub samples: Option<usize>,
    /// For a percentile: samples strictly above it.
    pub beyond: Option<usize>,
}

impl Metric {
    /// A plain value.
    pub fn value(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples: None,
            beyond: None,
        }
    }

    /// A value computed over `samples` samples.
    pub fn over(name: &str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            samples: Some(samples),
            ..Metric::value(name, value, unit)
        }
    }

    /// The `p`-th percentile of ascending ns samples, converted by `scale`
    /// (ns per unit); 0 with 0 samples if there were none.
    pub fn percentile(name: &str, sorted: &[u64], p: f64, unit: &'static str, scale: f64) -> Self {
        match percentile(sorted, p) {
            Some(p) => Metric {
                samples: Some(p.samples),
                beyond: Some(p.beyond),
                ..Metric::value(name, p.value as f64 / scale, unit)
            },
            None => Metric::over(name, 0.0, unit, 0),
        }
    }

    /// A blocked percentile (see [`crate::stats::blocked_percentile`]) of
    /// ns samples converted by `scale` (ns per unit).
    pub fn blocked(name: &str, b: Option<Blocked>, unit: &'static str, scale: f64) -> Self {
        match b {
            Some(b) => Metric {
                samples: Some(b.samples),
                beyond: Some(b.beyond),
                ..Metric::value(name, b.value / scale, unit)
            },
            None => Metric::over(name, 0.0, unit, 0),
        }
    }

    /// The text line printed for this metric.
    pub fn line(&self) -> String {
        let mut out = format!("{:<34} {:>14.4} {:<6}", self.name, self.value, self.unit);
        if let Some(n) = self.samples {
            write!(out, " n={n}").expect("String write");
        }
        if let Some(b) = self.beyond {
            write!(out, " beyond={b}").expect("String write");
        }
        out
    }
}

/// Escape `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": u}, …}`: the contract's metrics object.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// Metrics with their sample counts, for the detailed report.
pub fn detailed_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            let mut fields = vec![
                format!("\"value\": {}", json_num(m.value)),
                format!("\"unit\": {}", json_str(m.unit)),
            ];
            if let Some(n) = m.samples {
                fields.push(format!("\"samples\": {n}"));
            }
            if let Some(b) = m.beyond {
                fields.push(format!("\"beyond\": {b}"));
            }
            format!("{}: {{{}}}", json_str(&m.name), fields.join(", "))
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// What one run produced.
pub struct Outcome {
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Metrics printed and kept in the report but not in the result line.
    pub extra: Vec<Metric>,
    /// Keystrokes and Runs attempted.
    pub attempted: u64,
    /// Requests that failed, were refused, or failed the guard.
    pub failed: u64,
    /// Extra report fields: name and rendered JSON value.
    pub notes: Vec<(String, String)>,
}
