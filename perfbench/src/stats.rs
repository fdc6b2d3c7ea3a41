//! Order statistics and process memory.

/// Median of `values` (mean of the middle pair for even lengths); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A copy of `values` in ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of `values` that has at least [`TAIL_BEYOND`]
/// samples beyond it: the value with exactly that many larger samples.
/// Returns `(value, percentile)`; with too few samples, the maximum at
/// percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return (0.0, 100.0);
    }
    if n <= TAIL_BEYOND {
        return (sorted[n - 1], 100.0);
    }
    let rank = n - TAIL_BEYOND;
    (sorted[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in MiB.
pub fn proc_status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line
        .trim_start_matches(field)
        .trim_start_matches(':')
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Memory the measured work added on top of what was resident when the
/// high-water mark was reset: `VmHWM` now minus `VmRSS` then, in MiB.
pub struct PeakRss {
    baseline_mib: f64,
}

impl PeakRss {
    /// Resets the high-water mark to the current RSS (Linux: `5` written
    /// to `/proc/self/clear_refs`) and notes that resident baseline.
    pub fn start() -> Result<Self, String> {
        std::fs::write("/proc/self/clear_refs", "5")
            .map_err(|e| format!("cannot reset the RSS high-water mark: {e}"))?;
        let baseline_mib = proc_status_mib("VmRSS").ok_or("no VmRSS in /proc/self/status")?;
        Ok(PeakRss { baseline_mib })
    }

    /// Peak growth over the baseline so far, in MiB.
    pub fn read(&self) -> Result<f64, String> {
        let hwm = proc_status_mib("VmHWM").ok_or("no VmHWM in /proc/self/status")?;
        Ok(hwm - self.baseline_mib)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&values);
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > value).count(), TAIL_BEYOND);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
