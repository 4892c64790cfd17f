//! Pins what the benchmark's sign-off hash does not cover: every period and
//! waiting time, as an exact numerator and denominator, of `Method::Exact`
//! and `Method::WorstCaseTdma` on the paper's seed-2007 workload.
//!
//! The digest was recorded with the Euclidean gcd that preceded `sdf`'s
//! binary one. A fraction in lowest terms is unique, so no change to how
//! `Rational` reduces may move it. (Every gcd these estimates take has
//! both operands within `u64`; `sdf`'s own tests cover the wide path.)

use contention::{estimate, Method};
use experiments::workload::{paper_workload, DEFAULT_SEED, PAPER_APP_COUNT};
use platform::UseCase;
use sdf::Rational;

/// Every 4th of the 1,023 use-cases: about 2 s in a debug build.
const STRIDE: usize = 4;

/// The digest of the sampled estimates, and how many values it covers.
const RECORDED: (u64, usize) = (0x8939_76b0_eba9_33ff, 26_112);

/// FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, x: i128) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn rational(&mut self, r: Rational) {
        self.word(r.numer());
        self.word(r.denom());
    }
}

#[test]
fn exact_and_tdma_estimates_match_their_recorded_digest() {
    let spec = paper_workload(DEFAULT_SEED).expect("paper workload");
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    let mut values = 0;
    for use_case in UseCase::all(PAPER_APP_COUNT).into_iter().step_by(STRIDE) {
        for (m, method) in [Method::Exact, Method::WorstCaseTdma]
            .into_iter()
            .enumerate()
        {
            let est = estimate(&spec, use_case, method).expect("estimates");
            digest.word(m as i128);
            digest.word(use_case.mask().into());
            for (app, &period) in est.periods() {
                digest.word(app.0 as i128);
                digest.rational(period);
            }
            for (&(app, actor), &wait) in est.waiting_times() {
                digest.word(app.0 as i128);
                digest.word(actor.0 as i128);
                digest.rational(wait);
            }
            values += est.periods().len() + est.waiting_times().len();
        }
    }
    assert_eq!(
        (digest.0, values),
        RECORDED,
        "digest {:#018x} over {values} values",
        digest.0
    );
}
