//! The benchmark's own stream generator.
//!
//! Every workload stream is drawn from this SplitMix64, not from the
//! repository's `rand` stand-in, so a change to the program's PRNG cannot
//! change what the benchmark feeds it.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for sub-stream `stream` of `seed`: each stream a workload
    /// draws (its calls, its sweep order, its accuracy sample) is its own.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is below 2⁻⁵⁰ for the `n` used
    /// here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `percent`/100.
    pub fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}
