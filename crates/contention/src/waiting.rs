//! Expected waiting-time formulae: exact (Equation 4) and m-th order
//! approximations (Equation 5).
//!
//! Given the loads of the *other* actors mapped on a node, these functions
//! compute the expected time an arriving actor waits before the node is
//! free. The derivation (Section 3.2) enumerates which subset of the other
//! actors is present and, within a subset, which permutation of the queue
//! holds; collapsing the combinatorics yields
//!
//! ```text
//! W = Σᵢ µᵢPᵢ · ( 1 + Σ_{j=1}^{n-1} (-1)^{j+1}/(j+1) · e_j(P₁…P_{i-1},P_{i+1}…P_n) )
//! ```
//!
//! where `e_j` is the elementary symmetric polynomial of degree `j`
//! ([`crate::symmetric`]). Truncating the inner sum at `j ≤ m-1` gives the
//! *m-th order approximation*; the paper evaluates the second and fourth
//! orders. Because higher-order terms are alternating products of
//! probabilities, even-order truncations **over**-estimate waiting (are
//! conservative) relative to the next odd refinement — the paper observes
//! "the second order estimate is always more conservative than the fourth
//! order estimate".
//!
//! The paper reports the exact formula as `O(n·nⁿ)`; evaluating the
//! symmetric polynomials by dynamic programming with leave-one-out
//! deconvolution makes the exact value computable in `O(n²)` here. The
//! truncated orders still matter: they are what make the *composability*
//! algebra ([`crate::compose`]) associative and incrementally updatable.
//!
//! # Examples
//!
//! The paper's two-actor node (Section 3.1): an actor arriving at a node
//! shared with `a0` (`P = 1/3`, `µ = 50`) waits `50/3 ≈ 17` time units:
//!
//! ```
//! use contention::{waiting_time, ActorLoad, Order};
//! use sdf::Rational;
//!
//! let a0 = ActorLoad::new(Rational::new(1, 3), Rational::integer(50))?;
//! let w = waiting_time(&[a0], Order::Exact);
//! assert_eq!(w, Rational::new(50, 3));
//! # Ok::<(), contention::ContentionError>(())
//! ```

use crate::load::ActorLoad;
use crate::symmetric::{elementary_symmetric_quantized, leave_one_out_quantized};
use sdf::Rational;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Quantisation lattice for all intermediate values of the waiting-time
/// formulae and the composability algebra: `2520³ = (2³·3²·5·7)³ ≈
/// 1.6·10¹⁰`.
///
/// Exact `i128` rationals cannot hold products of dozens of arbitrary
/// probabilities (Equation 4 multiplies up to `n−1` of them), so every
/// intermediate is snapped to the nearest `1/LATTICE ≈ 6·10⁻¹¹`. Inputs
/// whose denominators divide the lattice — including every value in the
/// paper's worked examples (halves, thirds, quarters, …) — pass through
/// exactly; everything else carries an error around ten orders of magnitude
/// below the model's own accuracy.
///
/// A load quantised to [`crate::estimator::PROBABILITY_GRID`] is on this
/// lattice: `P` is a multiple of `1/2520` and `W = µ·P` of `1/2520²`, so
/// both are whole multiples of `1/LATTICE`. That is what lets
/// [`crate::Composite`] store `P` and `W` as integer counts of
/// `1/LATTICE` and stay exact.
pub const LATTICE: i128 = 2520 * 2520 * 2520;

/// Selects how many queueing terms of Equation 4 are kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Order {
    /// The full formula (all `n-1` symmetric-polynomial terms).
    Exact,
    /// m-th order approximation: inner terms up to degree `m - 1`
    /// (Equation 5 is `Truncated(2)`).
    Truncated(u32),
}

impl Order {
    /// The paper's second-order approximation (Equation 5).
    pub const SECOND: Order = Order::Truncated(2);
    /// The paper's fourth-order approximation.
    pub const FOURTH: Order = Order::Truncated(4);

    /// Highest symmetric-polynomial degree retained for `n` other actors.
    fn max_degree(&self, n: usize) -> usize {
        let cap = n.saturating_sub(1);
        match self {
            Order::Exact => cap,
            Order::Truncated(m) => cap.min((*m as usize).saturating_sub(1)),
        }
    }
}

impl fmt::Display for Order {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Order::Exact => write!(f, "exact"),
            Order::Truncated(m) => write!(f, "order-{m}"),
        }
    }
}

/// Expected waiting time inflicted by `others` on an arriving actor,
/// evaluated at the given [`Order`].
///
/// Returns zero for an empty slice (an uncontended node).
///
/// # Panics
///
/// * Panics if `Order::Truncated(0)` is passed — a zeroth-order truncation
///   discards the leading `µᵢPᵢ` terms themselves and is meaningless.
/// * [`Order::Exact`] (and truncation orders beyond ~30) can panic on
///   `i128` overflow past roughly 128 co-mapped actors: the elementary
///   symmetric polynomials' *values* grow like `C(n, j)`, the combinatorial
///   blow-up the paper's low-order truncations exist to avoid. Real nodes
///   host a handful of actors; use [`Order::SECOND`]/[`Order::FOURTH`] (any
///   `n`) when they do not.
///
/// # Examples
///
/// Two co-mapped actors, the `n = 2` case worked out in Section 3.2:
///
/// ```
/// use contention::{waiting_time, ActorLoad, Order};
/// use sdf::Rational;
///
/// let a = ActorLoad::new(Rational::new(1, 3), Rational::integer(50))?;
/// let b = ActorLoad::new(Rational::new(1, 3), Rational::integer(25))?;
/// // W = µaPa(1 + Pb/2) + µbPb(1 + Pa/2)
/// let w = waiting_time(&[a, b], Order::Exact);
/// assert_eq!(w, Rational::new(175, 6));
/// // For n = 2 the second order is already exact:
/// assert_eq!(waiting_time(&[a, b], Order::SECOND), w);
/// # Ok::<(), contention::ContentionError>(())
/// ```
pub fn waiting_time(others: &[ActorLoad], order: Order) -> Rational {
    if let Order::Truncated(0) = order {
        panic!("zeroth-order truncation is meaningless");
    }
    let n = others.len();
    if n == 0 {
        return Rational::ZERO;
    }

    // All intermediates live on the 1/LATTICE lattice (see [`LATTICE`]).
    let probs: Vec<Rational> = others
        .iter()
        .map(|l| l.probability().quantize(LATTICE))
        .collect();
    let jmax = order.max_degree(n);

    // Full-set polynomials up to degree jmax + 1 so the leave-one-out
    // deconvolution yields degrees 0..=jmax.
    let e = elementary_symmetric_quantized(&probs, (jmax + 1).min(n), LATTICE);

    let mut total = Rational::ZERO;
    for (i, load) in others.iter().enumerate() {
        if load.is_idle() {
            continue;
        }
        let loo = leave_one_out_quantized(&e, probs[i], LATTICE);
        let mut factor = Rational::ONE;
        for (j, &ej) in loo.iter().enumerate().skip(1).take(jmax) {
            // (-1)^{j+1} / (j+1)
            let sign = if j % 2 == 1 { 1 } else { -1 };
            factor = (factor + Rational::new(sign, (j + 1) as i128) * ej).quantize(LATTICE);
        }
        let waiting =
            (load.blocking_time().quantize(LATTICE) * probs[i] * factor).quantize(LATTICE);
        total += waiting;
    }
    total
}

/// Second-order waiting time (Equation 5) — shorthand for
/// [`waiting_time`] with [`Order::SECOND`].
///
/// # Examples
///
/// ```
/// use contention::{second_order_waiting_time, ActorLoad};
/// use sdf::Rational;
/// let a = ActorLoad::new(Rational::new(1, 2), Rational::integer(10))?;
/// assert_eq!(second_order_waiting_time(&[a]), Rational::integer(5));
/// # Ok::<(), contention::ContentionError>(())
/// ```
pub fn second_order_waiting_time(others: &[ActorLoad]) -> Rational {
    waiting_time(others, Order::SECOND)
}

/// Fourth-order waiting time — shorthand for [`waiting_time`] with
/// [`Order::FOURTH`].
pub fn fourth_order_waiting_time(others: &[ActorLoad]) -> Rational {
    waiting_time(others, Order::FOURTH)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(p: Rational, mu: Rational) -> ActorLoad {
        ActorLoad::new(p, mu).unwrap()
    }

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn empty_node_no_waiting() {
        assert_eq!(waiting_time(&[], Order::Exact), Rational::ZERO);
        assert_eq!(waiting_time(&[], Order::SECOND), Rational::ZERO);
    }

    #[test]
    fn single_actor_all_orders_agree() {
        let a = load(r(1, 3), Rational::integer(50));
        for order in [
            Order::Exact,
            Order::SECOND,
            Order::FOURTH,
            Order::Truncated(1),
        ] {
            assert_eq!(waiting_time(&[a], order), r(50, 3), "{order}");
        }
    }

    #[test]
    fn two_actor_closed_form() {
        // W = µaPa(1+Pb/2) + µbPb(1+Pa/2), cross-checked by hand.
        let a = load(r(1, 2), Rational::integer(10));
        let b = load(r(1, 4), Rational::integer(20));
        let expect = Rational::integer(10) * r(1, 2) * (Rational::ONE + r(1, 8))
            + Rational::integer(20) * r(1, 4) * (Rational::ONE + r(1, 4));
        assert_eq!(waiting_time(&[a, b], Order::Exact), expect);
        assert_eq!(waiting_time(&[a, b], Order::SECOND), expect);
    }

    #[test]
    fn three_actor_equation3() {
        // Equation 3: each term µᵢPᵢ(1 + ½(Pⱼ+Pₖ) − ⅓PⱼPₖ).
        let pa = r(1, 3);
        let pb = r(1, 4);
        let pc = r(1, 5);
        let (ma, mb, mc) = (
            Rational::integer(6),
            Rational::integer(8),
            Rational::integer(10),
        );
        let term = |m: Rational, p: Rational, p1: Rational, p2: Rational| {
            m * p * (Rational::ONE + r(1, 2) * (p1 + p2) - r(1, 3) * p1 * p2)
        };
        let expect = term(ma, pa, pb, pc) + term(mb, pb, pa, pc) + term(mc, pc, pa, pb);
        let loads = [load(pa, ma), load(pb, mb), load(pc, mc)];
        assert_eq!(waiting_time(&loads, Order::Exact), expect);
        // Third order retains exactly the j ≤ 2 terms, which for n = 3 is
        // everything: also exact.
        assert_eq!(waiting_time(&loads, Order::Truncated(3)), expect);
    }

    #[test]
    fn second_order_is_conservative() {
        // The paper: second order over-estimates contention vs fourth order,
        // which in turn upper-bounds the exact value for these loads.
        let loads: Vec<ActorLoad> = (1..=6)
            .map(|i| load(r(1, i + 1), Rational::integer(10 * i)))
            .collect();
        let w2 = waiting_time(&loads, Order::SECOND);
        let w4 = waiting_time(&loads, Order::FOURTH);
        let we = waiting_time(&loads, Order::Exact);
        assert!(w2 >= w4, "second ({w2}) >= fourth ({w4})");
        assert!(w4 >= we, "fourth ({w4}) >= exact ({we})");
    }

    #[test]
    fn truncation_converges_to_exact() {
        let loads: Vec<ActorLoad> = (1..=5)
            .map(|i| load(r(1, i + 2), Rational::integer(7 * i)))
            .collect();
        let exact = waiting_time(&loads, Order::Exact);
        // Order n (or anything ≥ n) is identical to exact.
        assert_eq!(waiting_time(&loads, Order::Truncated(5)), exact);
        assert_eq!(waiting_time(&loads, Order::Truncated(50)), exact);
    }

    #[test]
    fn idle_actors_are_transparent() {
        let a = load(r(1, 3), Rational::integer(50));
        let idle = load(Rational::ZERO, Rational::integer(99));
        assert_eq!(
            waiting_time(&[a, idle], Order::Exact),
            waiting_time(&[a], Order::Exact)
        );
    }

    #[test]
    #[should_panic(expected = "zeroth-order")]
    fn zeroth_order_panics() {
        waiting_time(&[], Order::Truncated(0));
    }

    #[test]
    fn order_display() {
        assert_eq!(Order::Exact.to_string(), "exact");
        assert_eq!(Order::SECOND.to_string(), "order-2");
    }

    #[test]
    fn paper_figure2_waiting_times() {
        // Section 3.1: each node hosts one actor of A and one of B, all with
        // P = 1/3. twait(b0) = µ(a0)P(a0) = 50/3, twait(a0) = µ(b0)P(b0) = 25/3.
        let a0 = load(r(1, 3), Rational::integer(50));
        let b0 = load(r(1, 3), Rational::integer(25));
        assert_eq!(waiting_time(&[a0], Order::Exact), r(50, 3));
        assert_eq!(waiting_time(&[b0], Order::Exact), r(25, 3));
    }
}
