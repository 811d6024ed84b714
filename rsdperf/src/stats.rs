//! Sample statistics, metric naming and digests shared by every workload.

use std::io::Write;

/// Percentiles a timing may be reported at, in increasing order, in
/// hundredths of a percent (9_900 is p99).
const PERCENTILES: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (hundredths of a percent)
/// among `n` samples: `ceil(n * p / 10_000)`, at least 1.
fn rank(n: usize, p: u64) -> usize {
    ((n as u64 * p).div_ceil(10_000) as usize).max(1)
}

/// Nearest-rank percentile `p` (hundredths of a percent) of `sorted`
/// (ascending).
pub fn percentile(sorted: &[f64], p: u64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p).min(sorted.len()) - 1])
}

/// The highest percentile in [`PERCENTILES`] (hundredths of a percent)
/// with at least [`MIN_BEYOND`] of `n` samples strictly beyond its
/// nearest rank, or `None` when `n` is too small for any.
pub fn tail_percentile(n: usize) -> Option<u64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| n.saturating_sub(rank(n, p)) >= MIN_BEYOND)
}

/// A timing reported the way every metric here is: median, highest
/// supported tail percentile, and sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// `(percentile in hundredths of a percent, value)` when the sample
    /// supports one.
    pub tail: Option<(u64, f64)>,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarise `samples` (any order). `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = median_sorted(&sorted)?;
        let tail =
            tail_percentile(sorted.len()).and_then(|p| percentile(&sorted, p).map(|v| (p, v)));
        Some(Summary {
            median,
            tail,
            n: sorted.len(),
        })
    }

    /// Human-readable form: `median 1.2 p99 3.4 (n=1000)`.
    pub fn render(&self, unit: &str) -> String {
        let tail = self
            .tail
            .map(|(p, v)| format!(" p{} {v:.4}{unit}", p as f64 / 100.0))
            .unwrap_or_default();
        format!("median {:.4}{unit}{tail} (n={})", self.median, self.n)
    }
}

fn median_sorted(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Completions per second pooled over `(completed, seconds)` parts: all
/// completions over all the time they took, so a long part weighs as
/// much as its time. `None` when no time was spent.
pub fn pooled_rate(parts: impl IntoIterator<Item = (u64, f64)>) -> Option<f64> {
    let (done, secs) = parts
        .into_iter()
        .fold((0u64, 0.0), |(d, t), (n, s)| (d + n, t + s));
    (secs > 0.0).then(|| done as f64 / secs)
}

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 characters of letters, digits, `_`, `.`
/// and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// 64-bit FNV-1a over everything written to it: the digest recorded for
/// built datasets and replayed traffic.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl Write for Fnv {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(5_000));
        assert_eq!(tail_percentile(99), Some(5_000));
        assert_eq!(tail_percentile(100), Some(9_000));
        assert_eq!(tail_percentile(999), Some(9_000));
        assert_eq!(tail_percentile(1_000), Some(9_900));
        assert_eq!(tail_percentile(9_999), Some(9_900));
        assert_eq!(tail_percentile(10_000), Some(9_990));
        assert_eq!(tail_percentile(100_000), Some(9_999));
    }

    #[test]
    fn summary_reports_nearest_rank_tail() {
        let samples: Vec<f64> = (1..=1_000).rev().map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.n, 1_000);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.tail, Some((9_900, 990.0)));
        // Exactly ten samples lie beyond the reported p99.
        assert_eq!(samples.iter().filter(|&&v| v > 990.0).count(), 10);
        let small = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((small.median, small.tail, small.n), (2.0, None, 3));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn pooled_rate_weighs_parts_by_their_time() {
        assert_eq!(pooled_rate([(1_000, 0.5)]), Some(2_000.0));
        // 3,000 done in 2 s, not the mean of 2,000/s and 500/s.
        assert_eq!(pooled_rate([(1_000, 0.5), (2_000, 1.5)]), Some(1_500.0));
        assert_eq!(pooled_rate([]), None);
        assert_eq!(pooled_rate([(0, 0.0)]), None);
    }

    #[test]
    fn names_and_units_follow_the_benchmark_rules() {
        for ok in [
            "setup_s",
            "dataset.window_apply_us.p99",
            "9lives",
            "a-b_c.d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_lead", ".dot", "has space", "slash/no", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "MiB", "%", "req/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "two words", "seventeen_letters"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::default();
        h.update(b"");
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.update(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }
}
