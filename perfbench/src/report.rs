//! Sample statistics and the result line the benchmark prints last.

use std::fmt::Write as _;

/// Median of `samples` (0 for an empty set).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Nearest-rank percentile `q` in `0..=1` of `samples` (0 when empty).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Blocks a window's samples are cut into; see [`block_mean`].
const BLOCKS: usize = 10;

/// `stat` of `samples` (in time order) as the mean over [`BLOCKS`]
/// consecutive blocks of `stat` of each block. When host load slows part
/// of the window, this moves in proportion to the slowed share, where a
/// median or a tail over the whole window jumps between the fast and the
/// slow mode.
pub fn block_mean(samples: &[f64], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let block = samples.len().div_ceil(BLOCKS).max(1);
    let stats: Vec<f64> = samples.chunks(block).map(stat).collect();
    stats.iter().sum::<f64>() / stats.len().max(1) as f64
}

/// [`block_mean`] of the median.
pub fn block_median(samples: &[f64]) -> f64 {
    block_mean(samples, median)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one benchmark run reports: operation counts, failed
/// checks, and named metrics in print order.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (trials or jobs, plus checked operations).
    pub attempted: u64,
    /// Failure descriptions: panicked or rejected operations and failed
    /// correctness checks.
    pub failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Records one failed operation or check.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Checks `ok`, recording `what()` as a failure when it does not hold.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Adds (or replaces) a named metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// True when a metric named `name` was recorded.
    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|(n, _, _)| n == name)
    }

    /// Keeps only the metrics named in `names`, in that order.
    pub fn select(&mut self, names: &[&str]) {
        self.metrics.retain(|(n, _, _)| names.contains(&n.as_str()));
        self.metrics
            .sort_by_key(|(n, _, _)| names.iter().position(|m| m == n));
    }

    /// True when no operation failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN/infinity; an undefined ratio reads as 0.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failures.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Half the window twice as slow: the block median moves halfway.
        let mix: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 2.0 }).collect();
        assert_eq!(block_median(&mix), 1.5);
    }

    #[test]
    fn result_line_shape() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("x_ms", 1.5, "ms");
        o.check(false, || "bad".into());
        assert_eq!(
            o.json(),
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": {\"x_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
