//! Statistics, failure counting, process readings and the result line.

use std::fmt::Write as _;

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; `NaN`
/// when there are none. Infinite samples (failed operations) sort last,
/// so a failure counts as missing every latency limit.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Whether one HTTP exchange succeeded: a 200 whose body decoded and
/// passed its output check. A 429 (shed), any other status, a body that
/// does not decode and a failed check each count as failed.
pub fn succeeded(status: u16, decoded: bool, checked: bool) -> bool {
    status == 200 && decoded && checked
}

/// Attempted and failed operations of one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Peak resident set size of a process in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of them, in clock ticks (100 per second on Linux).
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. A value that is not finite (a percentile over
/// failed operations) is written as 1e300 so the line stays valid JSON.
pub fn result_line(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 1e300 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), 50.0);
        assert_eq!(percentile(&samples, 0.9), 90.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn failed_operations_sort_past_every_latency() {
        let mut samples = vec![1.0; 95];
        samples.extend([f64::INFINITY; 5]);
        assert_eq!(percentile(&samples, 0.9), 1.0);
        assert_eq!(percentile(&samples, 0.99), f64::INFINITY);
    }

    #[test]
    fn shed_and_undecodable_responses_count_as_failed() {
        let mut tally = Tally::default();
        tally.count(succeeded(200, true, true));
        tally.count(succeeded(429, true, true)); // load shed
        tally.count(succeeded(200, false, true)); // body does not decode
        tally.count(succeeded(200, true, false)); // output check failed
        tally.count(succeeded(503, true, true));
        assert_eq!(
            tally,
            Tally {
                attempted: 5,
                failed: 4
            }
        );
        assert_eq!(tally.error_rate(), 0.8);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_line(
            true,
            Tally {
                attempted: 3,
                failed: 0,
            },
            &[
                metric("p50_ms", 1.2034567891, "ms"),
                metric("x", f64::NAN, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_ms\": \
             {\"value\": 1.2034567891, \"unit\": \"ms\"}, \"x\": {\"value\": 1e300, \"unit\": \"s\"}}}"
        );
    }
}
