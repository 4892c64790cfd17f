//! Exact rational arithmetic used throughout the analysis side of the
//! library.
//!
//! Waiting times produced by the probabilistic contention model are ratios of
//! integers (e.g. `50/3` time units in the paper's worked example). The
//! self-timed state-space analysis of [`crate::state_space`] detects periodic
//! behaviour through *exact* state equality, so times must not be subjected
//! to floating-point rounding. [`Rational`] provides the minimal exact
//! arithmetic the library needs, over `i128` with eager normalisation.
//!
//! # One gcd
//!
//! Every constructor and operator reduces its result with one gcd:
//! Stein's binary algorithm (Stein, *J. Comput. Phys.* 1967; Knuth, TAOCP
//! vol. 2, §4.5.2) on unsigned magnitudes, in `u64` when both operands fit
//! and in `u128` until they do. Its steps are shifts and subtractions,
//! where each step of Euclid's is an `i128` remainder, a library call. The
//! repetition vector, [`crate::mcm`], the generator and the benchmark
//! graphs call the same function. Lowest terms are unique, so the algorithm
//! never changes a value. Magnitudes also keep `i128::MIN` out of every
//! [`Rational`] (see its invariants).
//!
//! # Examples
//!
//! ```
//! use sdf::Rational;
//!
//! let third = Rational::new(1, 3);
//! let half = Rational::new(1, 2);
//! assert_eq!(third + half, Rational::new(5, 6));
//! assert_eq!(Rational::new(100, 300), third);
//! assert!(half > third);
//! ```

use serde::{Deserialize, Deserializer, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number with an `i128` numerator and denominator.
///
/// Invariants maintained by every constructor and operator:
/// * the denominator is strictly positive,
/// * numerator and denominator are coprime,
/// * zero is represented as `0/1`,
/// * the numerator is never `i128::MIN`, which has no negation: a result
///   that would need it is `None` from the checked operators and a panic
///   from `new`, `integer` and the operators, so `-x` never overflows.
///
/// Deserialization holds decoded values to the same invariants: a
/// `{"numer", "denom"}` pair that breaks one is a typed error, never a
/// value that compares or prints wrongly.
///
/// # Examples
///
/// ```
/// use sdf::Rational;
///
/// let p = Rational::new(2, 6);
/// assert_eq!(p.numer(), 1);
/// assert_eq!(p.denom(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Rational {
    numer: i128,
    denom: i128,
}

impl Deserialize for Rational {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Raw {
            numer: i128,
            denom: i128,
        }
        let Raw { numer, denom } = Raw::deserialize(d)?;
        if denom > 0 && numer != i128::MIN && coprime(numer.unsigned_abs(), denom.unsigned_abs()) {
            Ok(Rational { numer, denom })
        } else {
            Err(serde::Error(format!(
                "rational {numer}/{denom} is not in lowest terms over a positive denominator"
            )))
        }
    }
}

/// Zero constant (`0/1`).
pub const ZERO: Rational = Rational { numer: 0, denom: 1 };
/// One constant (`1/1`).
pub const ONE: Rational = Rational { numer: 1, denom: 1 };

/// Panic message of a constructor whose reduced value needs `i128::MIN`.
const OUT_OF_RANGE: &str = "rational out of range: i128::MIN has no negation";

/// Whether `gcd(a, b) == 1` (so `0` is coprime only to `1`).
fn coprime(a: u128, b: u128) -> bool {
    gcd(a, b) == 1
}

/// Greatest common divisor (`gcd(0, a) = a`), by Stein's binary algorithm:
/// the `u64` core when both operands fit, otherwise the same steps on
/// `u128` until they do.
pub(crate) fn gcd(a: u128, b: u128) -> u128 {
    if let (Ok(a), Ok(b)) = (u64::try_from(a), u64::try_from(b)) {
        return u128::from(gcd_u64(a, b));
    }
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    let (mut a, mut b) = (a >> a.trailing_zeros(), b >> b.trailing_zeros());
    loop {
        // Both odd: their difference is even, and gcd(a, b) = gcd(a, b − a).
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        if let Ok(b64) = u64::try_from(b) {
            return u128::from(gcd_u64(a as u64, b64)) << shift;
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
        b >>= b.trailing_zeros();
    }
}

/// The `u64` core of [`gcd`].
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

impl Rational {
    /// Zero (`0/1`).
    pub const ZERO: Rational = ZERO;
    /// One (`1/1`).
    pub const ONE: Rational = ONE;

    /// Creates a rational `numer/denom`, normalising sign and common factors.
    ///
    /// # Panics
    ///
    /// Panics if `denom == 0`, or if the reduced numerator or denominator
    /// would have magnitude 2¹²⁷ (as `new(i128::MIN, 3)` and
    /// `new(1, i128::MIN)` would).
    ///
    /// # Examples
    ///
    /// ```
    /// use sdf::Rational;
    /// assert_eq!(Rational::new(4, -8), Rational::new(-1, 2));
    /// ```
    pub fn new(numer: i128, denom: i128) -> Self {
        assert!(denom != 0, "rational denominator must be non-zero");
        Rational::reduced(numer, denom).expect(OUT_OF_RANGE)
    }

    /// `numer/denom` in lowest terms over a positive denominator, or `None`
    /// when either part would have magnitude 2¹²⁷. `denom` is non-zero.
    fn reduced(numer: i128, denom: i128) -> Option<Self> {
        debug_assert!(denom != 0);
        let (n, d) = (numer.unsigned_abs(), denom.unsigned_abs());
        let g = gcd(n, d);
        let (n, d) = (i128::try_from(n / g).ok()?, i128::try_from(d / g).ok()?);
        Some(Rational {
            numer: if (numer < 0) == (denom < 0) { n } else { -n },
            denom: d,
        })
    }

    /// Creates an integral rational `n/1`.
    ///
    /// # Panics
    ///
    /// Panics if `n == i128::MIN`.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdf::Rational;
    /// assert_eq!(Rational::integer(5), Rational::new(5, 1));
    /// ```
    pub const fn integer(n: i128) -> Self {
        assert!(n != i128::MIN, "{}", OUT_OF_RANGE);
        Rational { numer: n, denom: 1 }
    }

    /// The normalised numerator.
    pub const fn numer(&self) -> i128 {
        self.numer
    }

    /// The normalised (strictly positive) denominator.
    pub const fn denom(&self) -> i128 {
        self.denom
    }

    /// Returns `true` iff the value is exactly zero.
    pub const fn is_zero(&self) -> bool {
        self.numer == 0
    }

    /// Returns `true` iff the value is an integer.
    pub const fn is_integer(&self) -> bool {
        self.denom == 1
    }

    /// Returns `true` iff the value is strictly positive.
    pub const fn is_positive(&self) -> bool {
        self.numer > 0
    }

    /// Returns `true` iff the value is strictly negative.
    pub const fn is_negative(&self) -> bool {
        self.numer < 0
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdf::Rational;
    /// assert_eq!(Rational::new(2, 3).recip(), Rational::new(3, 2));
    /// ```
    pub fn recip(&self) -> Self {
        assert!(self.numer != 0, "cannot invert zero");
        Rational::new(self.denom, self.numer)
    }

    /// Absolute value.
    pub fn abs(&self) -> Self {
        Rational {
            numer: self.numer.abs(),
            denom: self.denom,
        }
    }

    /// Lossy conversion to `f64`, for reporting only.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdf::Rational;
    /// assert!((Rational::new(1, 3).to_f64() - 0.333333).abs() < 1e-5);
    /// ```
    pub fn to_f64(&self) -> f64 {
        self.numer as f64 / self.denom as f64
    }

    /// Floor of the value as an integer.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdf::Rational;
    /// assert_eq!(Rational::new(7, 2).floor(), 3);
    /// assert_eq!(Rational::new(-7, 2).floor(), -4);
    /// ```
    pub fn floor(&self) -> i128 {
        self.numer.div_euclid(self.denom)
    }

    /// Ceiling of the value as an integer.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdf::Rational;
    /// assert_eq!(Rational::new(7, 2).ceil(), 4);
    /// assert_eq!(Rational::new(-7, 2).ceil(), -3);
    /// ```
    pub fn ceil(&self) -> i128 {
        -(-*self).floor()
    }

    /// Smaller of two rationals.
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Larger of two rationals.
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Checked addition, `None` when the sum does not fit `i128` (a
    /// numerator of `i128::MIN` included).
    ///
    /// # Examples
    ///
    /// ```
    /// use sdf::Rational;
    /// let tiny = Rational::new(1, 1 << 100);
    /// assert_eq!(tiny.checked_add(tiny), Some(Rational::new(1, 1 << 99)));
    /// assert_eq!(Rational::integer(i128::MAX).checked_add(Rational::ONE), None);
    /// ```
    pub fn checked_add(self, rhs: Self) -> Option<Self> {
        // lcm-based addition keeps intermediates as small as possible.
        let g = gcd(self.denom as u128, rhs.denom as u128) as i128;
        let (ls, rs) = (self.denom / g, rhs.denom / g);
        let fits_i64 = |x: i128| x == i128::from(x as i64);
        if [self.numer, self.denom, rhs.numer, rhs.denom]
            .into_iter()
            .all(fits_i64)
        {
            // Products of i64 values and their sum cannot overflow i128.
            return Rational::reduced(self.numer * rs + rhs.numer * ls, ls * rhs.denom);
        }
        let n = self
            .numer
            .checked_mul(rs)?
            .checked_add(rhs.numer.checked_mul(ls)?)?;
        Rational::reduced(n, ls.checked_mul(rhs.denom)?)
    }

    /// Checked multiplication, `None` when the product does not fit `i128`
    /// (a numerator of `i128::MIN` included).
    pub fn checked_mul(self, rhs: Self) -> Option<Self> {
        // Cross-reduce first to keep the intermediate products small.
        let g1 = gcd(self.numer.unsigned_abs(), rhs.denom as u128) as i128;
        let g2 = gcd(rhs.numer.unsigned_abs(), self.denom as u128) as i128;
        let n = (self.numer / g1).checked_mul(rhs.numer / g2)?;
        let d = (self.denom / g2).checked_mul(rhs.denom / g1)?;
        Rational::reduced(n, d)
    }

    /// Rounds to the nearest multiple of `1/grid` (ties toward `+∞`).
    ///
    /// Values already on the grid — any value whose denominator divides
    /// `grid` — are returned unchanged, so quantisation is exact for "nice"
    /// rationals. Analyses use this to bound denominator growth where exact
    /// arithmetic would overflow `i128` (see the `contention` crate's
    /// estimator).
    ///
    /// # Panics
    ///
    /// Panics if `grid <= 0`, or if the rounded value does not fit `i128`.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdf::Rational;
    /// // 1/3 is on the 2520 grid: unchanged.
    /// assert_eq!(Rational::new(1, 3).quantize(2520), Rational::new(1, 3));
    /// // 1/7919 (prime) is snapped to the nearest 1/2520 step.
    /// let q = Rational::new(1, 7919).quantize(2520);
    /// assert_eq!(q.denom() % 1, 0);
    /// assert!((q - Rational::new(1, 7919)).abs() <= Rational::new(1, 2 * 2520));
    /// ```
    pub fn quantize(&self, grid: i128) -> Rational {
        assert!(grid > 0, "quantisation grid must be positive");
        if grid % self.denom == 0 {
            return *self;
        }
        // Exact integer path: ⌊(2·n·g + d) / (2·d)⌋ / g (round half up).
        if let Some(scaled) = self
            .numer
            .checked_mul(grid)
            .and_then(|x| x.checked_mul(2))
            .and_then(|x| x.checked_add(self.denom))
        {
            if let Some(two_d) = self.denom.checked_mul(2) {
                return Rational::new(scaled.div_euclid(two_d), grid);
            }
        }
        // Overflow-safe path for huge numerators/denominators: split off the
        // integer part and round the fractional part via f64. The fraction
        // is in [0, 1), so the f64 error (≤ 2⁻⁵² relative) is far below half
        // a grid step for any practical grid.
        let whole = self.numer.div_euclid(self.denom);
        let rem = self.numer.rem_euclid(self.denom);
        let frac = ((rem as f64) / (self.denom as f64) * (grid as f64)).round() as i128;
        whole
            .checked_mul(grid)
            .and_then(|n| n.checked_add(frac))
            .and_then(|n| Rational::reduced(n, grid))
            .expect("rational quantisation overflowed i128")
    }

    /// Raises the value to a non-negative integer power.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdf::Rational;
    /// assert_eq!(Rational::new(1, 2).pow(3), Rational::new(1, 8));
    /// assert_eq!(Rational::new(5, 7).pow(0), Rational::ONE);
    /// ```
    pub fn pow(&self, exp: u32) -> Self {
        let mut acc = ONE;
        for _ in 0..exp {
            acc *= *self;
        }
        acc
    }
}

impl Default for Rational {
    fn default() -> Self {
        ZERO
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.denom == 1 {
            write!(f, "{}", self.numer)
        } else {
            write!(f, "{}/{}", self.numer, self.denom)
        }
    }
}

impl From<i128> for Rational {
    fn from(n: i128) -> Self {
        Rational::integer(n)
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::integer(n as i128)
    }
}

impl From<u64> for Rational {
    fn from(n: u64) -> Self {
        Rational::integer(n as i128)
    }
}

impl From<u32> for Rational {
    fn from(n: u32) -> Self {
        Rational::integer(n as i128)
    }
}

impl From<i32> for Rational {
    fn from(n: i32) -> Self {
        Rational::integer(n as i128)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Self) -> Self {
        self.checked_add(rhs)
            .expect("rational addition overflowed i128")
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Self) -> Self {
        self + (-rhs)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Self) -> Self {
        self.checked_mul(rhs)
            .expect("rational multiplication overflowed i128")
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Self) -> Self {
        assert!(!rhs.is_zero(), "division of rational by zero");
        self * rhs.recip()
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Self {
        Rational {
            numer: -self.numer,
            denom: self.denom,
        }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rational {
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Fast path: cross-multiplication (denominators are positive).
        if let (Some(l), Some(r)) = (
            self.numer.checked_mul(other.denom),
            other.numer.checked_mul(self.denom),
        ) {
            return l.cmp(&r);
        }
        // Overflow-proof exact path: continued-fraction comparison.
        cmp_fraction(self.numer, self.denom, other.numer, other.denom)
    }
}

/// Compares `a/b` with `c/d` (b, d > 0) without overflowing, by comparing
/// Euclidean quotients and recursing on the remainders.
fn cmp_fraction(a: i128, b: i128, c: i128, d: i128) -> Ordering {
    debug_assert!(b > 0 && d > 0);
    let (qa, ra) = (a.div_euclid(b), a.rem_euclid(b));
    let (qc, rc) = (c.div_euclid(d), c.rem_euclid(d));
    match qa.cmp(&qc) {
        Ordering::Equal => {}
        other => return other,
    }
    match (ra == 0, rc == 0) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        // a/b vs c/d with equal integer parts: compare remainders
        // ra/b vs rc/d ⇔ d/rc vs b/ra (reversed).
        (false, false) => cmp_fraction(d, rc, b, ra),
    }
}

impl Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Self {
        iter.fold(ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, 7), ZERO);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic_identities() {
        let x = Rational::new(3, 7);
        assert_eq!(x + ZERO, x);
        assert_eq!(x * ONE, x);
        assert_eq!(x - x, ZERO);
        assert_eq!(x / x, ONE);
        assert_eq!(-(-x), x);
    }

    #[test]
    fn paper_waiting_time_example() {
        // µ(a0)·P(a0) = 50 · 1/3 = 50/3 ≈ 17 from the paper's Section 3.
        let mu = Rational::integer(50);
        let p = Rational::new(1, 3);
        let w = mu * p;
        assert_eq!(w, Rational::new(50, 3));
        assert_eq!(w.floor(), 16);
        assert_eq!(w.ceil(), 17);
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::new(-1, 3));
        assert_eq!(
            Rational::new(2, 6).cmp(&Rational::new(1, 3)),
            Ordering::Equal
        );
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(10, 2).to_string(), "5");
        assert_eq!(Rational::new(50, 3).to_string(), "50/3");
        assert_eq!(Rational::new(-1, 2).to_string(), "-1/2");
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rational::integer(4).floor(), 4);
        assert_eq!(Rational::integer(4).ceil(), 4);
        assert_eq!(Rational::new(9, 4).floor(), 2);
        assert_eq!(Rational::new(9, 4).ceil(), 3);
    }

    #[test]
    fn sum_iterator() {
        let total: Rational = (1..=3).map(|n| Rational::new(1, n)).sum();
        assert_eq!(total, Rational::new(11, 6));
    }

    #[test]
    fn checked_ops_catch_overflow() {
        let huge = Rational::integer(i128::MAX / 2);
        assert!(huge.checked_mul(huge).is_none());
        assert!(huge.checked_add(huge).is_some());
        assert!(Rational::integer(i128::MAX)
            .checked_add(Rational::integer(i128::MAX))
            .is_none());
        // A sum that fits is found even when the product of the
        // denominators would not.
        assert_eq!(
            Rational::new(1, 1 << 100).checked_add(Rational::new(1, 1 << 100)),
            Some(Rational::new(1, 1 << 99))
        );
    }

    #[test]
    #[should_panic(expected = "rational addition overflowed i128")]
    fn addition_overflow_panics() {
        let _ = Rational::integer(1 << 126) + Rational::integer(1 << 126);
    }

    #[test]
    fn checked_ops_never_yield_i128_min() {
        // Both results are exactly -2¹²⁷: no i128 operation overflows on
        // the way, but the value has no negation.
        let min_product = (Rational::integer(-(1 << 63)), Rational::integer(1 << 64));
        assert_eq!(min_product.0.checked_mul(min_product.1), None);
        assert_eq!(min_product.1.checked_mul(min_product.0), None);
        let min_sum = Rational::integer(-(1 << 126));
        assert_eq!(min_sum.checked_add(min_sum), None);
        assert_eq!(Rational::integer(i128::MIN + 1).checked_add(-ONE), None);
        let min_third = Rational::new(-(1 << 126), 3);
        assert_eq!(min_third.checked_add(min_third), None);
        // One step inside the range still works.
        assert_eq!(
            Rational::integer(-(1 << 62)).checked_mul(Rational::integer(1 << 64)),
            Some(Rational::integer(-(1 << 126)))
        );
        let half_third = Rational::new(-(1 << 125), 3);
        assert_eq!(half_third.checked_add(half_third), Some(min_third));
        // `new` reduces by magnitude: i128::MIN itself is a fine input
        // when the reduced numerator is not.
        assert_eq!(Rational::new(i128::MIN, 2), Rational::integer(-(1 << 126)));
        assert_eq!(Rational::new(i128::MIN, -2), Rational::integer(1 << 126));
        assert_eq!(Rational::new(2, i128::MIN), Rational::new(-1, 1 << 126));
        assert_eq!(Rational::new(i128::MIN, i128::MIN), ONE);
    }

    #[test]
    #[should_panic(expected = "rational multiplication overflowed i128")]
    fn multiplication_to_i128_min_panics() {
        let _ = Rational::integer(-(1 << 63)) * Rational::integer(1 << 64);
    }

    #[test]
    #[should_panic(expected = "i128::MIN has no negation")]
    fn new_refuses_an_i128_min_numerator() {
        let _ = Rational::new(i128::MIN, 3);
    }

    #[test]
    #[should_panic(expected = "i128::MIN has no negation")]
    fn new_refuses_an_i128_min_denominator() {
        let _ = Rational::new(1, i128::MIN);
    }

    #[test]
    #[should_panic(expected = "i128::MIN has no negation")]
    fn integer_refuses_i128_min() {
        let _ = Rational::integer(i128::MIN);
    }

    #[test]
    fn gcd_matches_euclid_on_both_paths() {
        fn euclid(mut a: u128, mut b: u128) -> u128 {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        }
        let u64_max = u128::from(u64::MAX);
        let mut edges = vec![0, 1, 2, 3, 6, 2520, 2520u128.pow(6), u128::MAX, 1 << 127];
        for k in [1, 31, 32, 63, 64, 65, 100, 126] {
            edges.extend([(1u128 << k) - 1, 1 << k, (1 << k) + 1, 3 << k]);
        }
        for k in 0..4 {
            edges.extend([u64_max - k, u64_max + k + 1, i128::MAX as u128 - k]);
        }
        for &a in &edges {
            for &b in &edges {
                assert_eq!(gcd(a, b), euclid(a, b), "gcd({a}, {b})");
            }
        }
    }

    #[test]
    fn quantize_exact_values_unchanged() {
        for r in [
            Rational::new(1, 3),
            Rational::new(50, 3),
            Rational::new(-7, 8),
            Rational::integer(42),
            ZERO,
        ] {
            assert_eq!(r.quantize(2520), r, "{r}");
        }
    }

    #[test]
    fn quantize_rounds_to_grid() {
        // 1/3 on a grid of 2: 0.333 → 1/2 (round half up of 0.666 is 1).
        assert_eq!(Rational::new(1, 3).quantize(2), Rational::new(1, 2));
        assert_eq!(Rational::new(1, 5).quantize(2), ZERO); // 0.4 → 0
        assert_eq!(Rational::new(3, 10).quantize(5), Rational::new(2, 5)); // 0.3·5 = 1.5 ties up → 2/5
                                                                           // Verify the tie rule explicitly: 1.5 rounds up.
        assert_eq!(Rational::new(3, 2).quantize(1), Rational::integer(2));
        assert_eq!(Rational::new(-3, 2).quantize(1), Rational::integer(-1));
        // Error is at most half a grid step.
        let x = Rational::new(355, 113);
        let q = x.quantize(1000);
        assert!((q - x).abs() <= Rational::new(1, 2000));
    }

    #[test]
    #[should_panic(expected = "grid must be positive")]
    fn quantize_zero_grid_panics() {
        let _ = ONE.quantize(0);
    }

    #[test]
    fn quantize_wide_path_rounds_in_range() {
        // i128::MAX = 3·w + 1 with w = (2¹²⁷ − 2)/3: scaling by the grid
        // overflows, so the integer part is split off, and 1/3 rounds to
        // 1/2 on a grid of 2.
        let w = (i128::MAX - 1) / 3;
        let q = Rational::new(i128::MAX, 3).quantize(2);
        assert_eq!(q, Rational::new(2 * w + 1, 2));
    }

    #[test]
    #[should_panic(expected = "rational quantisation overflowed i128")]
    fn quantize_overflow_panics_instead_of_wrapping() {
        // (2¹²⁵ + 2)/3 · 1000 does not fit: the wide path used to wrap to
        // a negative value.
        let _ = Rational::new((1 << 125) + 2, 3).quantize(1000);
    }

    #[test]
    fn pow() {
        assert_eq!(Rational::new(2, 3).pow(2), Rational::new(4, 9));
        assert_eq!(Rational::new(-1, 2).pow(3), Rational::new(-1, 8));
    }

    #[test]
    fn min_max() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn coprime_fast_and_wide_paths() {
        for (a, b, want) in [
            (0, 1, true),
            (1, 0, true),
            (0, 2, false),
            (0, 0, false),
            (2, 4, false),
            (3, 4, true),
            (6, 9, false),
            (1, 1_000_000, true),
            (u64::MAX as u128, u64::MAX as u128 - 1, true),
            (1 << 70, 3, true),
            (1 << 70, 6, false),
            (3 * (1 << 80), 9, false),
        ] {
            assert_eq!(coprime(a, b), want, "{a}/{b}");
        }
    }

    #[test]
    fn decoding_enforces_the_invariants() {
        use serde::Value;
        let raw = |n: i128, d: i128| {
            let mut v = Value::object();
            v.insert("numer", Value::Int(n));
            v.insert("denom", Value::Int(d));
            serde::from_value::<Rational>(&v)
        };
        for r in [
            Rational::new(-1, 1_000_000),
            ZERO,
            ONE,
            Rational::new(50, 3),
        ] {
            assert_eq!(serde::from_value::<Rational>(&serde::to_value(&r)), Ok(r));
        }
        assert_eq!(raw(i128::MAX, 1), Ok(Rational::integer(i128::MAX)));
        for (n, d) in [
            (-1, -1_000_000),
            (1, 0),
            (0, 0),
            (2, 4),
            (0, 5),
            (3, -1),
            (i128::MIN, 1),
        ] {
            let err = raw(n, d).expect_err("not canonical");
            assert!(err.to_string().contains("lowest terms"), "{n}/{d}: {err}");
        }
    }
}
