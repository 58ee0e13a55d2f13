//! Percentiles, medians, process memory and the metric list a run prints.

use std::time::Duration;

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it, so a p99 needs 1,000 samples and a p50 needs 20.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0..1`) of ascending `sorted` samples,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
#[must_use]
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    // 1-based nearest rank: the smallest rank whose share reaches q.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of a non-empty slice of durations (the upper median for an even
/// count, so the value is always one that was measured).
#[must_use]
pub fn median(values: &[Duration]) -> Duration {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size (`VmHWM`) of this process in MB, or 0 when the
/// platform does not report it.
#[must_use]
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

/// Nanoseconds to milliseconds.
#[must_use]
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nanoseconds to microseconds.
#[must_use]
pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit of the value.
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends (or replaces) `name`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let metric = Metric {
            name: name.to_string(),
            value,
            unit,
        };
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(slot) => *slot = metric,
            None => self.0.push(metric),
        }
    }

    /// The value of `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Renders the metrics as the body of a JSON object:
    /// `"name": {"value": v, "unit": "u"}, ...`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON number with every digit of `value` (Rust's shortest round-trip
/// form), written with a decimal point.
fn json_number(value: f64) -> String {
    let s = format!("{value:?}");
    if s.contains('e') || s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Width of the windows a timed phase is cut into; `ops_per_s` is the
/// median of the windows' rates.
pub const WINDOW: Duration = Duration::from_millis(1_000);

/// A run's p99 is the median of the p99s of this many consecutive slices
/// of its samples (fewer when the slices would be too small), so one
/// slice disturbed by the machine does not decide it.
pub const P99_SLICES: usize = 5;

/// Latency summary of one sample set: count, p50 and p99 in ms (a
/// percentile is `None` when the sample set is too small for it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub samples: usize,
    /// Median in ms.
    pub p50_ms: Option<f64>,
    /// Median of the slices' 99th percentiles, in ms.
    pub p99_ms: Option<f64>,
    /// How many slices the p99 is the median of.
    pub p99_slices: usize,
}

impl LatencySummary {
    /// Summarises nanosecond samples given as streams, each in the order
    /// it was measured (one per client). Slice `i` of the run is slice `i`
    /// of every stream.
    #[must_use]
    pub fn of(streams: &[Vec<u64>]) -> Self {
        let mut all: Vec<u64> = streams.concat();
        all.sort_unstable();
        let slice_p99 = |slices: usize| -> Option<f64> {
            let mut p99s = (0..slices)
                .map(|i| {
                    let mut part: Vec<u64> = streams
                        .iter()
                        .flat_map(|s| &s[i * s.len() / slices..(i + 1) * s.len() / slices])
                        .copied()
                        .collect();
                    part.sort_unstable();
                    percentile(&part, 0.99)
                })
                .collect::<Option<Vec<u64>>>()?;
            p99s.sort_unstable();
            Some(ns_to_ms(p99s[slices / 2]))
        };
        let (p99_ms, p99_slices) = [P99_SLICES, 3]
            .into_iter()
            .find_map(|n| slice_p99(n).map(|p| (Some(p), n)))
            .unwrap_or((percentile(&all, 0.99).map(ns_to_ms), 1));
        LatencySummary {
            samples: all.len(),
            p50_ms: percentile(&all, 0.50).map(ns_to_ms),
            p99_ms,
            p99_slices,
        }
    }
}

/// Median of the per-window counts of the first `full` windows, as a rate
/// per second of windows `width` wide; `None` without a full window.
#[must_use]
pub fn median_rate(windows: &[u64], full: usize, width: Duration) -> Option<f64> {
    let mut counts: Vec<u64> = windows.iter().copied().take(full).collect();
    counts.resize(full, 0);
    counts.sort_unstable();
    let mid = *counts.get(full / 2)?;
    Some(mid as f64 / width.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1,000 samples has 10 beyond it; of 999 only 9.
        let big: Vec<u64> = (1..=1_000).collect();
        assert_eq!(percentile(&big, 0.99), Some(990));
        let short: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&short, 0.99), None);
        // p50 needs 20 samples: rank 10 of 20 leaves 10 beyond.
        let twenty: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&twenty, 0.5), Some(10));
        let nineteen: Vec<u64> = (1..=19).collect();
        assert_eq!(percentile(&nineteen, 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_is_a_measured_value() {
        let samples: Vec<u64> = (0..100).map(|i| i * 7).collect();
        let p50 = percentile(&samples, 0.5).unwrap();
        assert!(samples.contains(&p50));
        assert_eq!(p50, 49 * 7);
    }

    #[test]
    fn latency_summary_reports_counts_beside_percentiles() {
        let samples: Vec<u64> = (0..50).map(|i| 1_000_000 * (50 - i)).collect();
        let s = LatencySummary::of(&[samples]);
        assert_eq!(s.samples, 50);
        assert_eq!(s.p50_ms, Some(25.0));
        assert_eq!(s.p99_ms, None);
    }

    #[test]
    fn p99_is_the_median_of_slice_p99s() {
        // Five slices of 1,010 samples; one slice is slow throughout.
        let mut stream = Vec::new();
        for slice in 0..5u64 {
            let base = if slice == 2 {
                1_000_000_000
            } else {
                1_000_000 * (slice + 1)
            };
            stream.extend((0..1_010).map(|i| base + i));
        }
        let s = LatencySummary::of(&[stream.clone()]);
        assert_eq!(s.p99_slices, 5);
        // Slice p99s are base + 999; the median is slice 3's (4 ms base).
        assert_eq!(s.p99_ms, Some(ns_to_ms(4_000_000 + 999)));
        // Too few samples for three slices: one p99 over the whole run.
        let s = LatencySummary::of(&[stream[..2_000].to_vec()]);
        assert_eq!(s.p99_slices, 1);
        assert_eq!(s.p99_ms, Some(ns_to_ms(2_000_000 + 969)));
    }

    #[test]
    fn median_rate_uses_full_windows_only() {
        let d = Duration::from_millis(500);
        assert_eq!(median_rate(&[10, 30, 20, 1], 3, d), Some(40.0));
        assert_eq!(median_rate(&[10], 3, d), Some(0.0));
        assert_eq!(median_rate(&[10], 0, d), None);
    }

    #[test]
    fn metrics_render_as_json_numbers() {
        let mut m = Metrics::default();
        m.set("ops_per_s", 1234.5678, "req/s");
        m.set("setup_s", 2.0, "s");
        m.set("setup_s", 3.0, "s");
        assert_eq!(
            m.to_json(),
            "{\"ops_per_s\": {\"value\": 1234.5678, \"unit\": \"req/s\"}, \
             \"setup_s\": {\"value\": 3.0, \"unit\": \"s\"}}"
        );
    }

    #[test]
    fn median_picks_a_measured_value() {
        let d = |ms| Duration::from_millis(ms);
        assert_eq!(median(&[d(3), d(1), d(2)]), d(2));
        assert_eq!(median(&[d(4), d(1), d(2), d(3)]), d(3));
    }
}
