//! Classic media-application SDF benchmarks.
//!
//! The paper's domain is "multi-featured media devices"; its evaluation uses
//! random DSP-like graphs. This module additionally provides the classic
//! hand-modelled application graphs from the SDF literature — the workloads
//! a downstream user of this library would actually map onto a platform:
//!
//! * [`cd2dat`] — the CD→DAT sample-rate converter (Lee/Bhattacharyya), the
//!   canonical multi-rate chain with repetition vector `[147, 98, 28, 32, 160]`;
//! * [`h263_decoder`] — QCIF H.263 decoder (after Stuijk et al.): one VLD
//!   firing fans out 594 macroblocks through IQ/IDCT into motion
//!   compensation;
//! * [`mp3_decoder`] — a simplified MP3 decoder granule pipeline;
//! * [`modem`] — a compact V.32-style modem loop (after Bhattacharyya et
//!   al.'s classic example).
//!
//! All graphs are made strongly connected with a full-iteration feedback
//! channel (so every analysis in this crate applies) and carry one-token
//! self-loops bounding auto-concurrency, matching the platform model.
//!
//! Execution times follow the commonly used literature values where
//! published and representative magnitudes otherwise; rates (and therefore
//! repetition vectors) are the published ones.
//!
//! # Examples
//!
//! ```
//! use sdf::{benchmarks, repetition_vector};
//!
//! let g = benchmarks::cd2dat();
//! let q = repetition_vector(&g)?;
//! assert_eq!(q.as_slice(), &[147, 98, 28, 32, 160]);
//! # Ok::<(), sdf::SdfError>(())
//! ```

use crate::graph::{SdfGraph, SdfGraphBuilder};
use crate::rational::gcd;

/// The CD→DAT sample-rate converter: 44.1 kHz → 48 kHz through four
/// fractional stages (`2/3 · 2/7 · 8/7 · 5/1`), repetition vector
/// `[147, 98, 28, 32, 160]`.
///
/// # Examples
///
/// ```
/// let g = sdf::benchmarks::cd2dat();
/// assert_eq!(g.actor_count(), 5);
/// assert!(sdf::validate_analyzable(&g).is_ok());
/// ```
pub fn cd2dat() -> SdfGraph {
    let mut b = SdfGraphBuilder::new("cd2dat");
    let stages = [
        ("cd", 10u64),
        ("fir1", 12),
        ("fir2", 14),
        ("fir3", 16),
        ("dat", 10),
    ];
    let ids: Vec<_> = stages
        .iter()
        .map(|(name, tau)| b.actor(*name, *tau))
        .collect();
    // Balance: q = [147, 98, 28, 32, 160].
    let rates: [(u64, u64); 4] = [(2, 3), (2, 7), (8, 7), (5, 1)];
    for (i, &(p, c)) in rates.iter().enumerate() {
        b.channel(ids[i], ids[i + 1], p, c, 0)
            .expect("literature rates are positive");
    }
    // Feedback with one iteration of tokens: dat fires 160× per iteration,
    // cd consumes 160 of its productions … close the loop at rate
    // (147, 160): 160·q[dat] = 147·… — balance: p·q[dat] = c·q[cd]
    // ⇒ p/c = 147/160.
    b.channel(ids[4], ids[0], 147, 160, 147 * 160 / gcd(147, 160) as u64)
        .expect("feedback rates are positive");
    for &a in &ids {
        b.self_loop(a, 1);
    }
    b.build().expect("cd2dat is structurally valid")
}

/// QCIF H.263 decoder: `vld → iq → idct → mc`, with 594 macroblocks per
/// frame (`q = [1, 594, 594, 1]`) and the literature's execution times.
///
/// # Examples
///
/// ```
/// use sdf::{benchmarks, repetition_vector};
/// let g = benchmarks::h263_decoder();
/// assert_eq!(repetition_vector(&g)?.as_slice(), &[1, 594, 594, 1]);
/// # Ok::<(), sdf::SdfError>(())
/// ```
pub fn h263_decoder() -> SdfGraph {
    let mut b = SdfGraphBuilder::new("h263-decoder");
    let vld = b.actor("vld", 26_018);
    let iq = b.actor("iq", 559);
    let idct = b.actor("idct", 486);
    let mc = b.actor("mc", 10_958);
    b.channel(vld, iq, 594, 1, 0).expect("valid");
    b.channel(iq, idct, 1, 1, 0).expect("valid");
    b.channel(idct, mc, 1, 594, 0).expect("valid");
    // Frame feedback: the next VLD firing needs the previous frame done.
    b.channel(mc, vld, 1, 1, 1).expect("valid");
    for a in [vld, iq, idct, mc] {
        b.self_loop(a, 1);
    }
    b.build().expect("h263 decoder is structurally valid")
}

/// Simplified MP3 decoder granule pipeline:
/// `huffman → requantize → stereo → imdct → synthesis`, two granules per
/// frame feeding 18-sample IMDCT blocks (`q = [1, 2, 2, 36, 36]`).
///
/// # Examples
///
/// ```
/// use sdf::{benchmarks, repetition_vector};
/// let g = benchmarks::mp3_decoder();
/// assert_eq!(repetition_vector(&g)?.as_slice(), &[1, 2, 2, 36, 36]);
/// # Ok::<(), sdf::SdfError>(())
/// ```
pub fn mp3_decoder() -> SdfGraph {
    let mut b = SdfGraphBuilder::new("mp3-decoder");
    let huff = b.actor("huffman", 2_600);
    let req = b.actor("requantize", 1_100);
    let stereo = b.actor("stereo", 420);
    let imdct = b.actor("imdct", 210);
    let synth = b.actor("synthesis", 280);
    b.channel(huff, req, 2, 1, 0).expect("valid"); // 2 granules per frame
    b.channel(req, stereo, 1, 1, 0).expect("valid");
    b.channel(stereo, imdct, 18, 1, 0).expect("valid"); // 18 blocks per granule
    b.channel(imdct, synth, 1, 1, 0).expect("valid");
    b.channel(synth, huff, 1, 36, 36).expect("valid"); // frame feedback
    for a in [huff, req, stereo, imdct, synth] {
        b.self_loop(a, 1);
    }
    b.build().expect("mp3 decoder is structurally valid")
}

/// A compact modem loop (after the classic Bhattacharyya/Lee example):
/// `filter → equalizer → detector → decoder`, single-rate with a
/// decision-feedback cycle.
///
/// # Examples
///
/// ```
/// let g = sdf::benchmarks::modem();
/// assert_eq!(g.actor_count(), 4);
/// assert!(sdf::period(&g).is_ok());
/// ```
pub fn modem() -> SdfGraph {
    let mut b = SdfGraphBuilder::new("modem");
    let filter = b.actor("filter", 70);
    let eq = b.actor("equalizer", 120);
    let detect = b.actor("detector", 30);
    let decode = b.actor("decoder", 90);
    b.channel(filter, eq, 1, 1, 0).expect("valid");
    b.channel(eq, detect, 1, 1, 0).expect("valid");
    b.channel(detect, decode, 1, 1, 0).expect("valid");
    // Decision feedback into the equalizer, plus the outer sample loop.
    b.channel(detect, eq, 1, 1, 1).expect("valid");
    b.channel(decode, filter, 1, 1, 1).expect("valid");
    for a in [filter, eq, detect, decode] {
        b.self_loop(a, 1);
    }
    b.build().expect("modem is structurally valid")
}

/// Every benchmark graph, with its name (for sweeping in tests/benches).
pub fn all() -> Vec<SdfGraph> {
    vec![cd2dat(), h263_decoder(), mp3_decoder(), modem()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liveness::validate_analyzable;
    use crate::rational::Rational;
    use crate::repetition::repetition_vector;
    use crate::state_space::{analyze_period_with, AnalysisOptions};

    #[test]
    fn all_benchmarks_are_analyzable() {
        for g in all() {
            validate_analyzable(&g).unwrap_or_else(|e| panic!("{}: {e}", g.name()));
        }
    }

    #[test]
    fn cd2dat_repetition_vector() {
        let q = repetition_vector(&cd2dat()).unwrap();
        assert_eq!(q.as_slice(), &[147, 98, 28, 32, 160]);
        assert_eq!(q.total_firings(), 465);
    }

    #[test]
    fn h263_period_is_serial_frame_time() {
        // Single token in the frame loop serialises the decoder:
        // Per = τ(vld) + 594·(τ(iq) + τ(idct)) + τ(mc).
        let g = h263_decoder();
        let opts = AnalysisOptions {
            max_steps: 10_000_000,
            ..Default::default()
        };
        let per = analyze_period_with(&g, opts).unwrap().period;
        // IQ and IDCT pipeline (different resources in pure SDF semantics);
        // the IQ chain dominates (559 > 486), so the frame finishes at
        // τ(vld) + 594·τ(iq) + τ(idct) + τ(mc).
        let expected = 26_018 + 594 * 559 + 486 + 10_958;
        assert_eq!(per, Rational::integer(expected));
    }

    #[test]
    fn mp3_repetition_vector_and_period() {
        let g = mp3_decoder();
        let q = repetition_vector(&g).unwrap();
        assert_eq!(q.as_slice(), &[1, 2, 2, 36, 36]);
        let per = crate::state_space::period(&g).unwrap();
        // Stages pipeline within the frame; the measured self-timed frame
        // time (regression-pinned) sits between the slowest single chain
        // (36·280 = 10 080) and the fully serial sum (23 280).
        assert_eq!(per, Rational::integer(14_410));
        let serial = 2_600 + 2_200 + 840 + 7_560 + 10_080;
        assert!(per < Rational::integer(serial));
        assert!(per > Rational::integer(10_080));
    }

    #[test]
    fn modem_feedback_serialises_inner_loop() {
        let per = crate::state_space::period(&modem()).unwrap();
        // Outer loop: 70 + 120 + 30 + 90 = 310 (single token everywhere).
        assert_eq!(per, Rational::integer(310));
    }

    #[test]
    fn benchmarks_have_distinct_names() {
        let names: Vec<String> = all().iter().map(|g| g.name().to_string()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
