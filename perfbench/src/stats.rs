//! Raw-sample statistics, reply fingerprints and process memory.

use std::time::{Duration, Instant};

/// Raw latency samples in microseconds. Percentiles are read from the
/// sorted samples themselves (nearest rank), never from histogram
/// bucket edges.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn push_duration(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e6);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Makes room for `n` more samples up front, so recording them does
    /// not reallocate (see [`crate::wireloop::Phase::record_mb`]).
    pub fn reserve(&mut self, n: usize) {
        self.values.reserve(n);
    }

    /// How many samples are at most `limit`.
    pub fn count_at_most(&self, limit: f64) -> usize {
        self.values.iter().filter(|&&v| v <= limit).count()
    }

    /// Nearest-rank quantile `q` in `[0, 1]`; 0 for an empty set.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let rank = (q * self.values.len() as f64).ceil() as usize;
        self.values[rank.clamp(1, self.values.len()) - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }
}

/// Samples split into equal time windows of a run. A figure is the
/// median of its per-window values, so a short burst of host noise
/// moves only the windows it falls in.
#[derive(Debug, Default, Clone)]
pub struct Windowed {
    start: Option<Instant>,
    width: Duration,
    pub windows: Vec<Samples>,
}

impl Windowed {
    pub fn new(start: Instant, duration: Duration, k: usize) -> Windowed {
        Windowed {
            start: Some(start),
            width: duration / k as u32,
            windows: vec![Samples::new(); k],
        }
    }

    /// Makes room for `total` samples spread evenly over the windows.
    pub fn reserve(&mut self, total: usize) {
        let per = total / self.windows.len().max(1) + 1;
        for w in &mut self.windows {
            w.reserve(per);
        }
    }

    /// Adds a sample taken at `at`.
    pub fn push(&mut self, at: Instant, v: f64) {
        let (Some(start), Some(last)) = (self.start, self.windows.len().checked_sub(1)) else {
            return;
        };
        let k = (at.saturating_duration_since(start).as_secs_f64()
            / self.width.as_secs_f64().max(1e-12)) as usize;
        self.windows[k.min(last)].push(v);
    }

    /// The median over non-empty windows of each window's quantile `q`.
    pub fn median_of(&mut self, q: f64) -> f64 {
        let per: Vec<f64> = self
            .windows
            .iter_mut()
            .filter(|w| w.len() > 0)
            .map(|w| w.quantile(q))
            .collect();
        median(&per)
    }

    /// The median over windows of each window's rate of samples at most
    /// `limit`, per second (`f64::INFINITY` counts every sample).
    pub fn median_rate(&self, limit: f64) -> f64 {
        let secs = self.width.as_secs_f64().max(1e-12);
        let per: Vec<f64> = self
            .windows
            .iter()
            .map(|w| w.count_at_most(limit) as f64 / secs)
            .collect();
        median(&per)
    }

    /// Samples held, over all windows.
    pub fn len(&self) -> usize {
        self.windows.iter().map(Samples::len).sum()
    }
}

/// Median of a small set of values (0 for an empty set).
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::new();
    for &v in values {
        s.push(v);
    }
    s.median()
}

/// A 64-bit fingerprint of a row's exact bit pattern: a sum of each
/// element's bits times a distinct odd constant, so changing any one
/// element (even by one bit) always changes the fingerprint.
pub fn fingerprint(row: &[f32]) -> u64 {
    const STEP: u64 = 0x9E37_79B9_7F4A_7C16;
    let mut h = row.len() as u64;
    let mut k = 0x2545_F491_4F6C_DD1D_u64;
    for v in row {
        h = h.wrapping_add(u64::from(v.to_bits()).wrapping_mul(k));
        // Even step from an odd start: every multiplier stays odd.
        k = k.wrapping_add(STEP);
    }
    h
}

/// Folds row fingerprints in order into one fingerprint of a reply.
pub fn fold_fingerprints(fps: impl Iterator<Item = u64>) -> u64 {
    fps.fold(0xCBF2_9CE4_8422_2325, |h, fp| {
        h.wrapping_mul(0x0000_0100_0000_01B3).wrapping_add(fp)
    })
}

/// The `--corrupt-reply` test hook: flips the top exponent bit of `v`,
/// which moves it far outside any error bound. A last-bit flip would
/// not do: a score one ulp off is still within the certified bound.
pub fn corrupt(v: &mut f32) {
    *v = f32::from_bits(v.to_bits() ^ 0x4000_0000);
}

/// Largest absolute element-wise difference of two equal-length rows.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| f64::from((x - y).abs()))
        .fold(0.0, f64::max)
}

/// Clock ticks of all CPUs so far, as `(steal, total)`, from the first
/// line of `/proc/stat`. Steal is time the hypervisor ran something
/// else while this machine's vCPUs had work.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // user nice system idle iowait irq softirq steal (guest time is
    // already in user and nice).
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of CPU time stolen by the host between two [`cpu_ticks`]
/// readings, percent.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1).max(1);
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Resets the process's peak resident set mark (`VmHWM`) to its
/// current resident set, so [`peak_rss_mb`] covers only what runs after.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
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
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.push(f64::from(v));
        }
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.9), 90.0);
        assert_eq!(s.quantile(0.999), 100.0);
        assert_eq!(s.quantile(0.0), 1.0);
    }

    #[test]
    fn fingerprint_sees_one_bit() {
        let row = vec![0.25f32, -1.5, 3.0, 0.0];
        let mut flipped = row.clone();
        flipped[2] = f32::from_bits(flipped[2].to_bits() ^ 1);
        assert_ne!(fingerprint(&row), fingerprint(&flipped));
        let mut swapped = row.clone();
        swapped.swap(0, 1);
        assert_ne!(fingerprint(&row), fingerprint(&swapped));
    }
}
