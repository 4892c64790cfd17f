//! Sample sets, the output hash and process measurements.

use sdf::Rational;
use std::time::Duration;

/// Latency samples of one kind of call, in microseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, elapsed: Duration) {
        self.0.push(elapsed.as_secs_f64() * 1e6);
    }

    pub fn push_us(&mut self, micros: f64) {
        self.0.push(micros);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile; 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.0, q)
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }
}

/// Nearest-rank quantile of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `part / whole`, 0 when `whole` is 0.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// FNV-1a over a canonical byte encoding of the outputs a workload checks.
#[derive(Debug, Clone, Copy)]
pub struct OutputHash(u64);

impl Default for OutputHash {
    fn default() -> Self {
        OutputHash(0xCBF2_9CE4_8422_2325)
    }
}

impl OutputHash {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    /// An exact rational, as its reduced numerator and denominator.
    pub fn rational(&mut self, value: Rational) {
        self.bytes(&value.numer().to_le_bytes());
        self.bytes(&value.denom().to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
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
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 0.99), 99.0);
        assert_eq!(quantile(&values, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn hash_depends_on_every_byte() {
        let mut a = OutputHash::default();
        a.rational(Rational::new(1075, 3));
        let mut b = OutputHash::default();
        b.rational(Rational::new(1076, 3));
        assert_ne!(a.finish(), b.finish());
    }
}
