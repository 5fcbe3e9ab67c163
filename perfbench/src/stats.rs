//! Summaries and the result line.

use std::fmt::Write as _;

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank quantile `q` of sorted values; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p50, p90, p99, p99.9 and p99.99 with at least ten
/// samples above it, as (name, value).
pub fn tail(sorted: &[f64]) -> (&'static str, f64) {
    let ladder = [
        ("p99.99", 0.9999),
        ("p99.9", 0.999),
        ("p99", 0.99),
        ("p90", 0.9),
        ("p50", 0.5),
    ];
    for (name, q) in ladder {
        let beyond = sorted.len() as f64 * (1.0 - q);
        if beyond >= 10.0 {
            return (name, quantile(sorted, q));
        }
    }
    ("p50", quantile(sorted, 0.5))
}

/// One reported metric.
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// What one run reports.
#[derive(Default)]
pub struct Report {
    /// Checks attempted.
    pub attempted: u64,
    /// Checks whose answer was wrong, or that failed outright.
    pub failed: u64,
    /// Whole-run checks that failed (parity, cache cross-check).
    pub broken: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Every check and cross-check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.broken.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&sorted), ("p99", 990.0));
        let sorted: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&sorted), ("p99.9", 9990.0));
    }

    #[test]
    fn median_of_even_count_is_the_middle_mean() {
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
