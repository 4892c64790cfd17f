//! Committed output hashes at the paper's seed.
//!
//! A run at seed 2007 fails unless its output hash matches; at any other
//! seed the hash is printed so two builds can be compared by hand.

use experiments::workload::DEFAULT_SEED;

const AT_DEFAULT_SEED: [(&str, u64); 3] = [
    ("device-admit", 0xb522_ff71_8bf1_b3a8),
    ("signoff-sweep", 0x5be2_4618_fba6_aa67),
    ("serve-remote", 0xe41a_1ece_5db8_5d21),
];

/// `signoff-sweep`'s Composability period inaccuracy against the simulator
/// on its 32-use-case sample at seed 2007, in percent.
pub const PREDICTION_ERROR_PCT: f64 = 6.881678541336222;

pub fn hash(workload: &str, seed: u64) -> Option<u64> {
    if seed != DEFAULT_SEED {
        return None;
    }
    AT_DEFAULT_SEED
        .iter()
        .find(|(name, _)| *name == workload)
        .map(|&(_, hash)| hash)
}
