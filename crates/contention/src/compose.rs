//! The composability algebra (Section 4.2): `⊕`, `⊗` and their inverses.
//!
//! Two actors `a`, `b` are merged into one pseudo-actor whose blocking
//! probability and expected waiting follow Equations 6 and 7:
//!
//! ```text
//! P_ab       = Pa ⊕ Pb = Pa + Pb − Pa·Pb
//! µ_ab·P_ab  = µaPa ⊗ µbPb = µaPa(1 + Pb/2) + µbPb(1 + Pa/2)
//! ```
//!
//! `⊕` is exactly associative; `⊗` is associative *to second order* (the
//! deviation between the two association orders is a product of three
//! probabilities — property-tested in this crate's test-suite). Folding all
//! co-mapped actors into a single [`Composite`] costs `O(1)` per actor, and
//! the inverse operators (Equations 8/9) remove an actor in `O(1)` — the key
//! to the paper's run-time admission control ([`crate::admission`]): adding
//! or removing an application updates the analysis incrementally in `O(n)`
//! instead of recomputing `O(n²)` from scratch.
//!
//! # Representation
//!
//! A [`Composite`] holds `P` and `W` as `i128` counts of `1/L`, where
//! `L = ` [`crate::waiting::LATTICE`], the lattice every result snaps to.
//! With `a`, `b` the operands' `P` counts, `Wx`, `Wy` their `W` counts and
//! `⌊n/d⌉` rounding half up, the four equations become closed-form integer
//! expressions with one division each:
//!
//! ```text
//! compose    P = ⌊(aL + bL − ab) / L⌉
//!            W = ⌊(Wx(2L + b) + Wy(2L + a)) / 2L⌉
//! decompose  r = ⌊(a − b)L / (L − b)⌉              (b ≠ L)
//!            W = ⌊(2L·Wx − Wy(2L + r)) / (2L + b)⌉
//! ```
//!
//! These are bit for bit the exact-rational equations snapped to the
//! lattice, at a fraction of the cost of `gcd`-normalised rationals.
//! Lattice-aligned loads (see [`Composite`]) enter exactly; other loads are
//! snapped to the nearest lattice point by [`Composite::from_actor`].
//!
//! # Examples
//!
//! ```
//! use contention::{ActorLoad, Composite};
//! use sdf::Rational;
//!
//! let a = ActorLoad::new(Rational::new(1, 3), Rational::integer(50))?;
//! let b = ActorLoad::new(Rational::new(1, 3), Rational::integer(25))?;
//!
//! let ab = Composite::from_actor(a).compose(Composite::from_actor(b));
//! // P_ab = 1/3 + 1/3 − 1/9 = 5/9
//! assert_eq!(ab.probability(), Rational::new(5, 9));
//! // Expected waiting an arriving actor suffers from {a, b}:
//! let w = ab.expected_waiting();
//! assert!(w > Rational::ZERO);
//!
//! // Remove b again: exact round-trip.
//! let back = ab.decompose(Composite::from_actor(b))?;
//! assert_eq!(back.probability(), a.probability());
//! # Ok::<(), contention::ContentionError>(())
//! ```

use crate::load::ActorLoad;
use crate::waiting::LATTICE;
use crate::ContentionError;
use sdf::Rational;
use std::fmt;

const OVERFLOW: &str = "composite arithmetic overflowed i128";

/// The composition of zero or more actor loads under `⊕`/`⊗`.
///
/// Stores the combined blocking probability `P` and the combined expected
/// waiting `W = µ·P` (the paper keeps `µ·P` as one quantity — `⊗` operates
/// on it directly), each as an integer count of `1/LATTICE` (see
/// [`crate::waiting::LATTICE`] and the [module documentation](self) for the
/// equations over those counts).
///
/// The algebra is exact for lattice-aligned loads: a probability that is a
/// multiple of `1/2520` and a blocking time that is a multiple of `1/5040`
/// (every load quantised to [`crate::estimator::PROBABILITY_GRID`] is) give
/// a `W` whose denominator divides `LATTICE`. [`Composite::from_actor`]
/// snaps any other load to the nearest lattice point.
///
/// Arithmetic that would overflow `i128` (an expected waiting beyond
/// roughly `10¹⁷` time units) panics in every build profile, as
/// [`Rational`]'s operators do; it never wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Composite {
    /// `P·LATTICE`, at most `LATTICE`: no operation takes `P` above 1
    /// (Equations 6 and 8 keep it there), so `2L + p` never overflows.
    p: i128,
    /// `W·LATTICE`.
    w: i128,
}

/// `x` as a count of `1/LATTICE`, rounded half up to the nearest step.
fn lattice_count(x: Rational) -> i128 {
    let q = x.quantize(LATTICE);
    q.numer().checked_mul(LATTICE / q.denom()).expect(OVERFLOW)
}

/// `⌊n/d⌉`: `n/d` rounded half up to an integer (`d ≠ 0`), the rounding
/// [`Rational::quantize`] applies. `None` on `i128` overflow.
///
/// `d` is negative only in Equation 9 when `other` is not a member of the
/// composition (a composite with `P < −2`, left by removing a load from a
/// node that never held it).
fn round_div(n: i128, d: i128) -> Option<i128> {
    let (n, d) = if d < 0 {
        (n.checked_neg()?, -d)
    } else {
        (n, d)
    };
    Some(
        n.checked_mul(2)?
            .checked_add(d)?
            .div_euclid(d.checked_mul(2)?),
    )
}

impl Composite {
    /// The neutral element: an empty node (`P = 0`, `W = 0`).
    ///
    /// # Examples
    ///
    /// ```
    /// use contention::Composite;
    /// let id = Composite::identity();
    /// assert!(id.probability().is_zero());
    /// assert_eq!(id.compose(id), id);
    /// ```
    pub fn identity() -> Composite {
        Composite { p: 0, w: 0 }
    }

    /// Lifts a single actor load into the algebra: its `P` and `µ·P`,
    /// each snapped to the nearest lattice step (exact for lattice-aligned
    /// loads).
    ///
    /// # Panics
    ///
    /// Panics if `µ·P·LATTICE` overflows `i128`.
    pub fn from_actor(load: ActorLoad) -> Composite {
        Composite {
            p: lattice_count(load.probability()),
            w: lattice_count(load.expected_waiting()),
        }
    }

    /// Builds the composition of every load in an iterator (left fold).
    ///
    /// # Examples
    ///
    /// ```
    /// use contention::{ActorLoad, Composite};
    /// use sdf::Rational;
    /// let loads = vec![
    ///     ActorLoad::new(Rational::new(1, 4), Rational::integer(8))?,
    ///     ActorLoad::new(Rational::new(1, 2), Rational::integer(6))?,
    /// ];
    /// let c = Composite::from_actors(loads.iter().copied());
    /// assert_eq!(c.probability(), Rational::new(5, 8));
    /// # Ok::<(), contention::ContentionError>(())
    /// ```
    pub fn from_actors(loads: impl IntoIterator<Item = ActorLoad>) -> Composite {
        loads.into_iter().fold(Composite::identity(), |acc, l| {
            acc.compose(Composite::from_actor(l))
        })
    }

    /// Combined blocking probability `P`.
    pub fn probability(&self) -> Rational {
        Rational::new(self.p, LATTICE)
    }

    /// Combined expected waiting `W = µ·P` — the waiting time an arriving
    /// actor suffers from everything composed so far.
    pub fn expected_waiting(&self) -> Rational {
        Rational::new(self.w, LATTICE)
    }

    /// Equations 6 and 7: `self ⊕/⊗ other`.
    ///
    /// Results are snapped to the [`crate::waiting::LATTICE`] lattice so
    /// that arbitrarily long compose chains (an admission controller running
    /// for months) never overflow; lattice-aligned inputs compose exactly.
    ///
    /// # Panics
    ///
    /// Panics on `i128` overflow (see [`Composite`]).
    #[must_use]
    pub fn compose(self, other: Composite) -> Composite {
        let (a, b) = (self.p, other.p);
        let compose = || {
            // Equation 6 over counts: (aL + bL − ab) / L.
            let p = a
                .checked_add(b)?
                .checked_mul(LATTICE)?
                .checked_sub(a.checked_mul(b)?)?;
            // Equation 7 over counts: (Wx(2L + b) + Wy(2L + a)) / 2L.
            let w = self
                .w
                .checked_mul(2 * LATTICE + b)?
                .checked_add(other.w.checked_mul(2 * LATTICE + a)?)?;
            Some(Composite {
                p: round_div(p, LATTICE)?,
                w: round_div(w, 2 * LATTICE)?,
            })
        };
        compose().expect(OVERFLOW)
    }

    /// Equations 8 and 9: removes `other` from the composition, recovering
    /// `rest` such that `rest.compose(other) == self`.
    ///
    /// # Errors
    ///
    /// Returns [`ContentionError::SaturatedInverse`] when
    /// `other.probability() == 1` (the paper's side condition `P_b ≠ 1`).
    ///
    /// # Panics
    ///
    /// Panics on `i128` overflow (see [`Composite`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use contention::{ActorLoad, Composite};
    /// use sdf::Rational;
    /// let a = Composite::from_actor(ActorLoad::new(Rational::new(1, 3), Rational::integer(9))?);
    /// let b = Composite::from_actor(ActorLoad::new(Rational::new(1, 5), Rational::integer(4))?);
    /// let ab = a.compose(b);
    /// assert_eq!(ab.decompose(b)?, a);
    /// assert_eq!(ab.decompose(a)?, b);
    /// # Ok::<(), contention::ContentionError>(())
    /// ```
    pub fn decompose(self, other: Composite) -> Result<Composite, ContentionError> {
        let (a, b) = (self.p, other.p);
        if b == LATTICE {
            return Err(ContentionError::SaturatedInverse);
        }
        let decompose = || {
            // Equation 8 over counts: r = (a − b)L / (L − b).
            let r = round_div(
                a.checked_sub(b)?.checked_mul(LATTICE)?,
                LATTICE.checked_sub(b)?,
            )?;
            // Equation 9 over counts: (2L·Wx − Wy(2L + r)) / (2L + b).
            let w = (2 * LATTICE)
                .checked_mul(self.w)?
                .checked_sub(other.w.checked_mul(2 * LATTICE + r)?)?;
            Some(Composite {
                p: r,
                w: round_div(w, 2 * LATTICE + b)?,
            })
        };
        Ok(decompose().expect(OVERFLOW))
    }

    /// Whether the composition is the identity (empty node).
    pub fn is_identity(&self) -> bool {
        self.p == 0 && self.w == 0
    }
}

impl Default for Composite {
    fn default() -> Self {
        Composite::identity()
    }
}

impl fmt::Display for Composite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P={}, W={}", self.probability(), self.expected_waiting())
    }
}

/// Waiting time via the composability approach: fold all other actors and
/// read off the combined `µ·P`.
///
/// Functionally close to the second-order approximation (identical for up to
/// two other actors, and within higher-order probability products beyond) —
/// the paper's Figure 6 shows the two curves nearly coincide.
///
/// # Examples
///
/// ```
/// use contention::{composability_waiting_time, second_order_waiting_time, ActorLoad};
/// use sdf::Rational;
/// let a = ActorLoad::new(Rational::new(1, 3), Rational::integer(50))?;
/// let b = ActorLoad::new(Rational::new(1, 3), Rational::integer(25))?;
/// assert_eq!(
///     composability_waiting_time(&[a, b]),
///     second_order_waiting_time(&[a, b]),
/// );
/// # Ok::<(), contention::ContentionError>(())
/// ```
pub fn composability_waiting_time(others: &[ActorLoad]) -> Rational {
    Composite::from_actors(others.iter().copied()).expected_waiting()
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
    fn identity_laws() {
        let a = Composite::from_actor(load(r(1, 3), Rational::integer(50)));
        let id = Composite::identity();
        assert_eq!(a.compose(id), a);
        assert_eq!(id.compose(a), a);
        assert!(id.is_identity());
        assert!(!a.is_identity());
        assert_eq!(Composite::default(), id);
    }

    #[test]
    fn commutativity() {
        let a = Composite::from_actor(load(r(1, 3), Rational::integer(50)));
        let b = Composite::from_actor(load(r(2, 5), Rational::integer(7)));
        assert_eq!(a.compose(b), b.compose(a));
    }

    #[test]
    fn probability_composition_exactly_associative() {
        let a = Composite::from_actor(load(r(1, 3), Rational::integer(3)));
        let b = Composite::from_actor(load(r(1, 4), Rational::integer(4)));
        let c = Composite::from_actor(load(r(1, 5), Rational::integer(5)));
        let left = a.compose(b).compose(c);
        let right = a.compose(b.compose(c));
        assert_eq!(left.probability(), right.probability());
    }

    #[test]
    fn waiting_associative_only_to_second_order() {
        // The ⊗ deviation between association orders is O(P³): non-zero in
        // general, but small.
        let a = Composite::from_actor(load(r(1, 3), Rational::integer(3)));
        let b = Composite::from_actor(load(r(1, 4), Rational::integer(4)));
        let c = Composite::from_actor(load(r(1, 5), Rational::integer(5)));
        let left = a.compose(b).compose(c);
        let right = a.compose(b.compose(c));
        let dev = (left.expected_waiting() - right.expected_waiting()).abs();
        assert!(dev.is_positive(), "⊗ is not exactly associative");
        // Deviation bounded by a third-order product of the inputs.
        assert!(dev < r(1, 10));
    }

    #[test]
    fn decompose_round_trip() {
        let a = Composite::from_actor(load(r(1, 3), Rational::integer(50)));
        let b = Composite::from_actor(load(r(2, 7), Rational::integer(11)));
        let ab = a.compose(b);
        assert_eq!(ab.decompose(b).unwrap(), a);
        assert_eq!(ab.decompose(a).unwrap(), b);
    }

    #[test]
    fn decompose_identity_is_noop() {
        let a = Composite::from_actor(load(r(1, 3), Rational::integer(50)));
        assert_eq!(a.decompose(Composite::identity()).unwrap(), a);
    }

    #[test]
    fn saturated_inverse_rejected() {
        let sat = Composite::from_actor(load(Rational::ONE, Rational::integer(5)));
        let a = Composite::from_actor(load(r(1, 2), Rational::integer(5)));
        let all = a.compose(sat);
        assert_eq!(
            all.decompose(sat).unwrap_err(),
            ContentionError::SaturatedInverse
        );
    }

    #[test]
    fn two_actor_matches_equation7() {
        let a = load(r(1, 3), Rational::integer(50));
        let b = load(r(1, 3), Rational::integer(25));
        let c = Composite::from_actors([a, b]);
        // Equation 7 expanded by hand:
        let expect = Rational::integer(50) * r(1, 3) * (Rational::ONE + r(1, 6))
            + Rational::integer(25) * r(1, 3) * (Rational::ONE + r(1, 6));
        assert_eq!(c.expected_waiting(), expect);
    }

    #[test]
    fn probability_never_exceeds_one() {
        let mut c = Composite::identity();
        for i in 1..20 {
            c = c.compose(Composite::from_actor(load(r(9, 10), Rational::integer(i))));
            assert!(c.probability() <= Rational::ONE);
            assert!(!c.probability().is_negative());
        }
    }

    #[test]
    fn off_lattice_load_snaps_to_nearest_lattice_point() {
        let c = Composite::from_actor(load(r(1, 7919), Rational::integer(3)));
        let lattice = crate::waiting::LATTICE;
        assert_eq!(c.probability(), r(1, 7919).quantize(lattice));
        assert_eq!(c.expected_waiting(), r(3, 7919).quantize(lattice));
    }

    #[test]
    fn display() {
        let c = Composite::from_actor(load(r(1, 2), Rational::integer(4)));
        assert_eq!(c.to_string(), "P=1/2, W=2");
    }
}
