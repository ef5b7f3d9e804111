//! The benchmark's own bookkeeping: the percentile rule, the failure
//! tally, the counter-drift check and the result line. Everything here
//! is pure, so it is unit-tested below.

/// A metric as printed: name, value, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile (`0 < p <= 1`) of samples sorted ascending.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// One-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of `candidates` that still has [`MIN_TAIL`] samples
/// beyond it, among `n` samples.
pub fn tail_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| n > 0 && samples_beyond(n, p) >= MIN_TAIL)
        .reduce(f64::max)
}

/// Median of unsorted samples (mean of the middle two for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Operations attempted and failed in one run. `failed_share` is the
/// failed count over the attempted count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Parses the committed counter file: `<workload> <counter> <value>`
/// per line, `#` comments and blank lines ignored.
pub fn parse_counters(text: &str, workload: &str) -> Result<Vec<(String, u64)>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [w, name, value] = fields[..] else {
            return Err(format!("counters line {}: expected 3 fields", i + 1));
        };
        let value = value
            .parse::<u64>()
            .map_err(|e| format!("counters line {}: {e}", i + 1))?;
        if w == workload {
            out.push((name.to_string(), value));
        }
    }
    Ok(out)
}

/// Compares measured deterministic counters against the committed ones
/// and returns one line per counter that drifted, is missing, or is not
/// committed. An empty result means every counter repeated exactly.
pub fn counter_drift(expected: &[(String, u64)], measured: &[(String, u64)]) -> Vec<String> {
    let mut out = Vec::new();
    for (name, want) in expected {
        match measured.iter().find(|(n, _)| n == name) {
            Some((_, got)) if got == want => {}
            Some((_, got)) => out.push(format!(
                "counter drift: {name} committed {want}, measured {got} ({:+})",
                *got as i128 - *want as i128
            )),
            None => out.push(format!(
                "counter drift: {name} committed {want}, not measured"
            )),
        }
    }
    for (name, got) in measured {
        if !expected.iter().any(|(n, _)| n == name) {
            out.push(format!(
                "counter drift: {name} not committed, measured {got}"
            ));
        }
    }
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`. Values print with every digit
/// (shortest round-trip form). A non-finite value is an error.
pub fn result_json(correct: bool, tally: Tally, metrics: &[Metric]) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        body.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            m.value,
            json_str(m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_is_the_tail_percentile_for_a_day_of_intervals() {
        // 288 five-minute intervals: p99 leaves only 2 samples beyond
        // it, p95 leaves 14.
        assert_eq!(samples_beyond(288, 0.99), 2);
        assert_eq!(samples_beyond(288, 0.95), 14);
        assert_eq!(
            tail_percentile(288, &[0.5, 0.9, 0.95, 0.99, 0.999]),
            Some(0.95)
        );
        // Below 200 samples p95 no longer has 10 beyond it.
        assert_eq!(tail_percentile(199, &[0.5, 0.9, 0.95, 0.99]), Some(0.9));
        assert_eq!(tail_percentile(5, &[0.5, 0.95]), None);

        let sorted: Vec<f64> = (1..=288).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 0.95), 274.0);
        assert_eq!(nearest_rank(&sorted, 0.5), 144.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 288.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn failed_share_counts_failures_over_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_share(), 0.0);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.failed_share(), 0.25);
    }

    #[test]
    fn drift_names_each_changed_missing_and_new_counter() {
        let committed = parse_counters(
            "# comment\n\
             table2-cold lp.a 10\n\
             table2-cold lp.b 20   # trailing\n\
             table2-cold lp.c 30\n\
             snet-day lp.a 99\n",
            "table2-cold",
        )
        .expect("parse");
        assert_eq!(committed.len(), 3);
        let measured = vec![
            ("lp.a".to_string(), 10),
            ("lp.b".to_string(), 17),
            ("lp.d".to_string(), 4),
        ];
        assert_eq!(
            counter_drift(&committed, &measured),
            vec![
                "counter drift: lp.b committed 20, measured 17 (-3)",
                "counter drift: lp.c committed 30, not measured",
                "counter drift: lp.d not committed, measured 4",
            ]
        );
        assert!(counter_drift(&committed[..1], &measured[..1]).is_empty());
        assert!(parse_counters("w name notanumber\n", "w").is_err());
        assert!(parse_counters("w name\n", "w").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let t = Tally {
            attempted: 3,
            failed: 0,
        };
        let line = result_json(true, t, &[Metric::new("setup_s", 0.8127, "s")]).expect("json");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(result_json(true, t, &[Metric::new("x", f64::NAN, "s")]).is_err());
    }
}
