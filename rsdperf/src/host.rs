//! What the benchmark reads about the host it runs on.

use std::time::Instant;

use crate::stats::Fnv;

/// Aggregate CPU tick counters since boot, from `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTicks {
    /// Ticks the hypervisor ran something else while a vCPU was runnable.
    pub steal: u64,
    /// All ticks.
    pub total: u64,
}

impl CpuTicks {
    /// Read the counters now (`None` where `/proc/stat` is unavailable).
    pub fn now() -> Option<CpuTicks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        parse_cpu_line(stat.lines().next()?)
    }

    /// Share of the ticks between `self` and `later` that were stolen.
    pub fn steal_share(self, later: CpuTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Parse the aggregate `cpu` line: user nice system idle iowait irq
/// softirq steal ...
fn parse_cpu_line(line: &str) -> Option<CpuTicks> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let ticks: Vec<u64> = fields.map(|f| f.parse().ok()).collect::<Option<_>>()?;
    Some(CpuTicks {
        steal: *ticks.get(7)?,
        total: ticks.iter().sum(),
    })
}

/// Bytes one calibration folds through FNV-1a per pass, and its passes.
const CALIBRATION_BYTES: usize = 64 * 1024;
const CALIBRATION_PASSES: usize = 40;

/// Calibrations per probe; a probe reads the fastest.
const PROBE_CALIBRATIONS: usize = 5;

/// What a probe reads on the host the benchmark was sized on, s: the
/// speed every normalized time is expressed at.
pub const REFERENCE_PROBE_S: f64 = 0.003;

/// Wall-clock, s, of one calibration: a fixed single-threaded CPU task
/// (FNV-1a over a 64 KiB buffer, 40 passes, about 3 ms). No code of the
/// program runs in it, so its time moves only with the host's speed.
fn calibrate() -> f64 {
    let buf: Vec<u8> = (0..CALIBRATION_BYTES).map(|i| (i * 31) as u8).collect();
    let t = Instant::now();
    let mut h = Fnv::default();
    for _ in 0..CALIBRATION_PASSES {
        h.update(std::hint::black_box(&buf));
    }
    std::hint::black_box(h.0);
    t.elapsed().as_secs_f64()
}

/// The speed of the host's cores: the fastest of
/// [`PROBE_CALIBRATIONS`] calibrations, s. The fastest, so that a burst
/// of hypervisor steal inside the probe's 15 ms does not read as a slow
/// core; steal is accounted for separately (see [`speed_factor`]).
pub fn probe() -> f64 {
    (0..PROBE_CALIBRATIONS)
        .map(|_| calibrate())
        .fold(f64::INFINITY, f64::min)
}

/// Factor that takes a time measured between probes reading `before`
/// and `after`, while the hypervisor stole `steal` of the CPU, to the
/// reference host's speed: below 1 when the host ran slow or stole time,
/// above 1 when it ran fast.
pub fn speed_factor(before: f64, after: f64, steal: f64) -> f64 {
    2.0 * REFERENCE_PROBE_S / (before + after) * (1.0 - steal)
}

/// Probes the host's speed between measurements. On a shared host a
/// core's speed moves by up to 1.6x over minutes and by less over
/// seconds, and every part of the program moves with it; a measurement
/// scaled by [`speed_factor`] moves less.
pub struct HostSpeed {
    /// The latest probe, s.
    last: f64,
    /// Every probe, s.
    pub probes: Vec<f64>,
}

impl HostSpeed {
    /// Probe once, as the "before" of the first measurement.
    pub fn new() -> HostSpeed {
        let last = probe();
        HostSpeed {
            last,
            probes: vec![last],
        }
    }

    /// Run `f`, probe again, and return its output with the
    /// [`speed_factor`] over it.
    pub fn measure<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.last;
        let ticks = CpuTicks::now();
        let out = f();
        let steal = ticks
            .zip(CpuTicks::now())
            .map_or(0.0, |(a, b)| a.steal_share(b));
        self.last = probe();
        self.probes.push(self.last);
        (out, speed_factor(before, self.last, steal))
    }
}

/// Peak resident set (VmHWM) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out revision, read from `.git` when the benchmark runs
/// inside a clone.
pub fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().chars().take(12).collect())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.chars().take(12).collect(),
        None => "unknown".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_factor_scales_to_the_reference_host() {
        assert_eq!(speed_factor(REFERENCE_PROBE_S, REFERENCE_PROBE_S, 0.0), 1.0);
        // A host at half speed: times halve back to the reference.
        assert_eq!(speed_factor(0.006, 0.006, 0.0), 0.5);
        // The probes either side are averaged.
        assert!((speed_factor(0.002, 0.004, 0.0) - 1.0).abs() < 1e-12);
        // A quarter of the CPU stolen: the program had three quarters.
        assert_eq!(speed_factor(0.003, 0.003, 0.25), 0.75);
        let mut speed = HostSpeed::new();
        let ((), factor) = speed.measure(|| ());
        assert!(factor.is_finite() && factor > 0.0);
        assert_eq!(speed.probes.len(), 2);
    }

    #[test]
    fn parses_the_aggregate_cpu_line() {
        let t = parse_cpu_line("cpu  304203 0 14576 513278 363 0 1268 14732 0 0").unwrap();
        assert_eq!(t.steal, 14732);
        assert_eq!(t.total, 304203 + 14576 + 513278 + 363 + 1268 + 14732);
        assert!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8").is_none());
        let later = CpuTicks {
            steal: t.steal + 25,
            total: t.total + 100,
        };
        assert_eq!(t.steal_share(later), 0.25);
        assert_eq!(t.steal_share(t), 0.0);
    }
}
