//! Seeded randomness, percentiles and process memory.

/// SplitMix64: a small, fast, well-mixed generator.  Kept in this file so
/// the benchmark's inputs depend on nothing but the seed it is given.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`stream`) of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    /// Uniform in `lo..=hi`.
    pub fn int(&mut self, lo: i32, hi: i32) -> i32 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i32
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise it is missing, never estimated.
pub const MIN_TAIL: usize = 10;

/// The nearest-rank `pct`-th percentile of `samples`, or `None` when fewer
/// than [`MIN_TAIL`] samples lie above it (p50 needs 20 samples, p90 100).
pub fn percentile(samples: &[f64], pct: usize) -> Option<f64> {
    let n = samples.len();
    let rank = (pct * n).div_ceil(100).max(1);
    if n == 0 || n - rank.min(n) < MIN_TAIL {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of a handful of repeated measurements (no tail rule: used
/// for the few set-ups a run makes).
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// `part / whole`, or 0 when nothing was attempted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), where the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_a_hundred_samples() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90), None, "99 samples leave only 9 beyond p90");
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90), Some(90.0));
        assert_eq!(percentile(&xs, 50), Some(50.0));
    }

    #[test]
    fn p50_needs_twenty_samples() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), None);
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), Some(10.0), "input order does not matter");
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn median_of_few() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn rng_is_seeded_and_streams_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]), "same seed, same stream, same draw");
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        let mut r = Rng::new(1, 1);
        for _ in 0..1000 {
            let x = r.range(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
            let i = r.int(-60, 60);
            assert!((-60..=60).contains(&i));
            assert!(r.below(3) < 3);
        }
    }
}
