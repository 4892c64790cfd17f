//! Maximum cycle ratio (MCR) analysis of HSDF graphs.
//!
//! For a strongly connected HSDF graph with vertex durations `τ(v)` and edge
//! delays `d(e)`, the self-timed period equals the *maximum cycle ratio*
//!
//! ```text
//! λ* = max over cycles C of  Σ_{v ∈ C} τ(v) / Σ_{e ∈ C} d(e)
//! ```
//!
//! (Dasdan \[4\] surveys the algorithm family the paper cites.) This module
//! computes λ* **exactly**: a bisection over λ with integer-scaled
//! Bellman-Ford positive-cycle detection narrows an interval around λ*, after
//! which the unique simplest rational in the interval (Stern–Brocot descent)
//! is the answer — exact because λ* is a ratio of a cycle-duration sum to a
//! cycle-token count, both bounded integers.
//!
//! This is the classical exponential-in-the-SDF-size path (expand, then solve
//! the expansion) that the paper's probabilistic method sidesteps; here it
//! serves to cross-validate [`crate::state_space`].
//!
//! # Examples
//!
//! ```
//! use sdf::{figure2_graphs, HsdfGraph, maximum_cycle_ratio, Rational};
//!
//! let (a, _) = figure2_graphs();
//! let h = HsdfGraph::expand(&a)?;
//! assert_eq!(maximum_cycle_ratio(&h)?, Rational::integer(300));
//! # Ok::<(), sdf::SdfError>(())
//! ```

use crate::graph::SdfError;
use crate::hsdf::HsdfGraph;
use crate::rational::{gcd, Rational};

/// Computes the exact maximum cycle ratio of `hsdf`.
///
/// # Errors
///
/// * [`SdfError::Deadlocked`] if the graph contains a cycle with zero total
///   delay (such a graph cannot execute).
/// * [`SdfError::Empty`] if the graph has no nodes or no cycle at all.
///
/// # Examples
///
/// See the [module documentation](self).
pub fn maximum_cycle_ratio(hsdf: &HsdfGraph) -> Result<Rational, SdfError> {
    let n = hsdf.node_count();
    if n == 0 {
        return Err(SdfError::Empty);
    }

    // Scale all durations to integers: common denominator L.
    let l = hsdf
        .durations()
        .iter()
        .fold(1i128, |acc, r| lcm(acc, r.denom()));
    let tau: Vec<i128> = hsdf
        .durations()
        .iter()
        .map(|r| r.numer() * (l / r.denom()))
        .collect();

    // Zero-delay cycles make execution impossible.
    if zero_delay_cycle_exists(hsdf) {
        return Err(SdfError::Deadlocked);
    }

    let total_tau: i128 = tau.iter().map(|t| t.max(&0)).sum();
    if hsdf.edges().is_empty() {
        return Err(SdfError::Empty);
    }

    // λ* ∈ (0, total_tau]; denominator of λ* divides L and its token count
    // is ≤ total delay, so denominator(λ*) ≤ L · D.
    let d_total = (hsdf.total_delay() as i128).max(1);
    let max_denom = l.saturating_mul(d_total);

    // Bisection until the interval is narrower than 1/(2·max_denom²), at
    // which point it contains exactly one rational with denominator
    // ≤ max_denom, namely λ*.
    let mut lo = Rational::ZERO; // positive cycle exists at lo (λ* > lo)
    let mut hi = Rational::integer(total_tau) + Rational::ONE; // none at hi
    if !has_positive_cycle_at(hsdf, &tau, l, lo) {
        // Acyclic expansion: no cycle, no ratio.
        return Err(SdfError::Empty);
    }
    let gap = Rational::new(1, 2) / (Rational::integer(max_denom) * Rational::integer(max_denom));

    let mut guard = 0;
    while hi - lo > gap {
        guard += 1;
        assert!(guard < 256, "MCR bisection failed to converge");
        let mid = (lo + hi) / Rational::integer(2);
        if has_positive_cycle_at(hsdf, &tau, l, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }

    // λ* is the unique rational in (lo, hi] with denominator ≤ max_denom;
    // the simplest rational in the interval has the smallest denominator, so
    // it is λ*.
    Ok(simplest_in_half_open(lo, hi))
}

/// Least common multiple of two positive denominators.
fn lcm(a: i128, b: i128) -> i128 {
    a / gcd(a as u128, b as u128) as i128 * b
}

fn zero_delay_cycle_exists(hsdf: &HsdfGraph) -> bool {
    // DFS cycle detection over zero-delay edges only.
    let n = hsdf.node_count();
    let mut adj = vec![Vec::new(); n];
    for e in hsdf.edges() {
        if e.delay == 0 {
            adj[e.src].push(e.dst);
        }
    }
    // 0 = unvisited, 1 = in progress, 2 = done.
    let mut colour = vec![0u8; n];
    for start in 0..n {
        if colour[start] != 0 {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        colour[start] = 1;
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            if *i < adj[v].len() {
                let w = adj[v][*i];
                *i += 1;
                match colour[w] {
                    0 => {
                        colour[w] = 1;
                        stack.push((w, 0));
                    }
                    1 => return true,
                    _ => {}
                }
            } else {
                colour[v] = 2;
                stack.pop();
            }
        }
    }
    false
}

/// Positive-cycle detection for edge weights `τ(src) − λ·d(e)` with
/// `λ = p/q`, scaled by `q` (the `τ` array is already scaled by `l`).
fn has_positive_cycle_at(hsdf: &HsdfGraph, tau: &[i128], l: i128, lambda: Rational) -> bool {
    // Scaled integer weight: w(e) = τ_scaled(src)·qλ − pλ·d(e)·l
    let p = lambda.numer();
    let q = lambda.denom();
    let n = hsdf.node_count();
    let mut dist = vec![0i128; n];

    // Bellman-Ford longest-path relaxation; if any distance still improves
    // after n iterations, a positive cycle exists.
    for _ in 0..n {
        let mut improved = false;
        for e in hsdf.edges() {
            let w = tau[e.src]
                .checked_mul(q)
                .expect("MCR weight overflow")
                .checked_sub(
                    p.checked_mul(e.delay as i128)
                        .and_then(|x| x.checked_mul(l))
                        .expect("MCR weight overflow"),
                )
                .expect("MCR weight overflow");
            if dist[e.src] + w > dist[e.dst] {
                dist[e.dst] = dist[e.src] + w;
                improved = true;
            }
        }
        if !improved {
            return false;
        }
    }
    true
}

/// The simplest rational `x` with `lo < x <= hi` (Stern–Brocot descent).
fn simplest_in_half_open(lo: Rational, hi: Rational) -> Rational {
    debug_assert!(lo < hi);
    // Work on the open/closed interval by continued-fraction recursion:
    // simplest x in (a, b]:
    //   if floor(a) + 1 <= b  -> floor(a) + 1   (an integer fits)
    //   else both in same unit interval: x = floor(a) + 1/(simplest in
    //   [1/(b - floor(a)), 1/(a - floor(a)) ) mirrored)
    fn go(lo: Rational, hi: Rational) -> Rational {
        let f = lo.floor();
        let candidate = Rational::integer(f + 1);
        if candidate <= hi {
            return candidate;
        }
        // lo and hi share the integer part f; recurse on reciprocals.
        let fl = Rational::integer(f);
        let a = lo - fl;
        let b = hi - fl;
        if a.is_zero() {
            // Interval (f, f+b] with 0 < b < 1: simplest offset is 1/⌈1/b⌉.
            return fl + Rational::integer(b.recip().ceil()).recip();
        }
        // simplest x in (a, b] with 0 < a < b < 1:
        // x = 1 / y where y is simplest in [1/b, 1/a).
        let inner = go_half_open_lower(b.recip(), a.recip());
        fl + inner.recip()
    }
    // simplest y in [lo, hi)
    fn go_half_open_lower(lo: Rational, hi: Rational) -> Rational {
        let f = lo.floor();
        let fr = Rational::integer(f);
        if fr == lo {
            return lo; // integer lower bound included
        }
        let candidate = Rational::integer(f + 1);
        if candidate < hi {
            return candidate;
        }
        let a = lo - fr;
        let b = hi - fr;
        let inner = go(b.recip(), a.recip());
        fr + inner.recip()
    }
    go(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{figure2_graphs, SdfGraphBuilder};
    use crate::hsdf::HsdfGraph;
    use crate::state_space::period;

    fn mcr_of(b: SdfGraphBuilder) -> Rational {
        let g = b.build().unwrap();
        maximum_cycle_ratio(&HsdfGraph::expand(&g).unwrap()).unwrap()
    }

    #[test]
    fn simple_ring() {
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 3);
        let y = b.actor("y", 7);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        assert_eq!(mcr_of(b), Rational::integer(10));
    }

    #[test]
    fn pipelined_ring_fractional() {
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 6);
        let y = b.actor("y", 2);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 3).unwrap();
        assert_eq!(mcr_of(b), Rational::new(8, 3));
    }

    #[test]
    fn self_loop_bound_dominates() {
        // Cycle ratio of the ring is (3+7)/2 = 5, but the self-loop on y
        // forces 7 per firing: λ* = 7.
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 3);
        let y = b.actor("y", 7);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 2).unwrap();
        b.self_loop(x, 1);
        b.self_loop(y, 1);
        assert_eq!(mcr_of(b), Rational::integer(7));
    }

    #[test]
    fn figure2_mcr_matches_state_space() {
        let (a, b) = figure2_graphs();
        for g in [a, b] {
            let h = HsdfGraph::expand(&g).unwrap();
            assert_eq!(
                maximum_cycle_ratio(&h).unwrap(),
                period(&g).unwrap() * Rational::ONE
            );
        }
    }

    #[test]
    fn rational_durations() {
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor_rational("x", Rational::new(50, 3));
        let y = b.actor("y", 3);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        assert_eq!(mcr_of(b), Rational::new(59, 3));
    }

    #[test]
    fn zero_delay_cycle_is_deadlock() {
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 0).unwrap();
        let h = HsdfGraph::expand(&b.build().unwrap()).unwrap();
        assert_eq!(maximum_cycle_ratio(&h).unwrap_err(), SdfError::Deadlocked);
    }

    #[test]
    fn simplest_rational_search() {
        // (1/3, 1/2] -> 1/2 ; (0.28, 0.35] -> 1/3 ; (2.1, 3.5] -> 3
        assert_eq!(
            simplest_in_half_open(Rational::new(1, 3), Rational::new(1, 2)),
            Rational::new(1, 2)
        );
        assert_eq!(
            simplest_in_half_open(Rational::new(28, 100), Rational::new(35, 100)),
            Rational::new(1, 3)
        );
        assert_eq!(
            simplest_in_half_open(Rational::new(21, 10), Rational::new(35, 10)),
            Rational::integer(3)
        );
        // Exact hit at the upper (closed) end.
        assert_eq!(
            simplest_in_half_open(Rational::new(299, 1), Rational::new(300, 1)),
            Rational::integer(300)
        );
    }

    #[test]
    fn simplest_rational_brute_force_agreement() {
        // For all small intervals with denominators <= 12, compare against a
        // brute-force scan of fractions with denominator <= 24.
        for ad in 1..=6i128 {
            for an in 0..=(3 * ad) {
                for bd in 1..=6i128 {
                    for bn in 0..=(3 * bd) {
                        let lo = Rational::new(an, ad);
                        let hi = Rational::new(bn, bd);
                        if lo >= hi {
                            continue;
                        }
                        let got = simplest_in_half_open(lo, hi);
                        assert!(lo < got && got <= hi, "{lo} < {got} <= {hi}");
                        // No rational with a smaller denominator fits.
                        for d in 1..got.denom() {
                            let n_low = (lo * Rational::integer(d)).floor() + 1;
                            let candidate = Rational::new(n_low, d);
                            assert!(
                                !(lo < candidate && candidate <= hi),
                                "simpler {candidate} fits in ({lo}, {hi}] than {got}"
                            );
                        }
                    }
                }
            }
        }
    }
}
