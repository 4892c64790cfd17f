//! Property-based tests over the SDF substrate: generated graphs satisfy
//! their structural contract, the two period analyses agree, and rational
//! arithmetic behaves like ℚ and reduces exactly as Euclid's gcd would.

use proptest::prelude::*;
use sdf::{
    analyze_period, buffer_requirements, generate_graph, is_live, is_strongly_connected,
    iteration_latency, maximum_cycle_ratio, period_with_times, repetition_vector, GeneratorConfig,
    HsdfGraph, Rational,
};
use std::cmp::Ordering;

/// Euclid's gcd on magnitudes: the reference for `Rational`'s binary gcd.
fn euclid(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A rational as `(numer, denom)`, reduced with [`euclid`]. Each operation
/// takes the same steps as `Rational`'s, so both overflow on the same
/// operands, and `None` stands for overflow or for a value `Rational`
/// cannot hold (a magnitude of 2¹²⁷).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ref(i128, i128);

impl Ref {
    fn new(n: i128, d: i128) -> Option<Ref> {
        let g = euclid(n.unsigned_abs(), d.unsigned_abs());
        let rn = i128::try_from(n.unsigned_abs() / g).ok()?;
        let rd = i128::try_from(d.unsigned_abs() / g).ok()?;
        Some(Ref(if (n < 0) == (d < 0) { rn } else { -rn }, rd))
    }

    fn of(r: Rational) -> Ref {
        Ref(r.numer(), r.denom())
    }

    fn add(self, rhs: Ref) -> Option<Ref> {
        let g = euclid(self.1 as u128, rhs.1 as u128) as i128;
        let (ls, rs) = (self.1 / g, rhs.1 / g);
        let n = self
            .0
            .checked_mul(rs)?
            .checked_add(rhs.0.checked_mul(ls)?)?;
        Ref::new(n, ls.checked_mul(rhs.1)?)
    }

    fn mul(self, rhs: Ref) -> Option<Ref> {
        let g1 = euclid(self.0.unsigned_abs(), rhs.1 as u128) as i128;
        let g2 = euclid(rhs.0.unsigned_abs(), self.1 as u128) as i128;
        let n = (self.0 / g1).checked_mul(rhs.0 / g2)?;
        Ref::new(n, (self.1 / g2).checked_mul(rhs.1 / g1)?)
    }

    fn neg(self) -> Ref {
        Ref(-self.0, self.1)
    }

    fn recip(self) -> Option<Ref> {
        Ref::new(self.1, self.0)
    }

    /// Sign of `self − rhs`, from cross products in 256 bits.
    fn cmp(self, rhs: Ref) -> Ordering {
        /// `x · y` as a (high, low) pair of `u128`s.
        fn wide_mul(x: u128, y: u128) -> (u128, u128) {
            const LOW: u128 = u64::MAX as u128;
            let (x1, x0, y1, y0) = (x >> 64, x & LOW, y >> 64, y & LOW);
            let (p00, p01, p10) = (x0 * y0, x0 * y1, x1 * y0);
            let mid = (p00 >> 64) + (p01 & LOW) + (p10 & LOW);
            let low = (p00 & LOW) | (mid << 64);
            (x1 * y1 + (p01 >> 64) + (p10 >> 64) + (mid >> 64), low)
        }
        let sign = |x: i128| x.cmp(&0);
        match sign(self.0).cmp(&sign(rhs.0)) {
            Ordering::Equal => {}
            other => return other,
        }
        let left = wide_mul(self.0.unsigned_abs(), rhs.1 as u128);
        let right = wide_mul(rhs.0.unsigned_abs(), self.1 as u128);
        if self.0 < 0 {
            right.cmp(&left)
        } else {
            left.cmp(&right)
        }
    }

    /// Round half up to the grid: the exact path, or the split-off integer
    /// part plus an `f64`-rounded fraction when scaling overflows.
    fn quantize(self, grid: i128) -> Option<Ref> {
        let Ref(n, d) = self;
        if grid % d == 0 {
            return Some(self);
        }
        let exact = n
            .checked_mul(grid)
            .and_then(|x| x.checked_mul(2))
            .and_then(|x| x.checked_add(d))
            .zip(d.checked_mul(2));
        if let Some((scaled, two_d)) = exact {
            return Ref::new(scaled.div_euclid(two_d), grid);
        }
        let frac = ((n.rem_euclid(d) as f64) / (d as f64) * (grid as f64)).round() as i128;
        Ref::new(n.div_euclid(d).checked_mul(grid)?.checked_add(frac)?, grid)
    }
}

/// Integers at the edges of the gcd's `u64` and `u128` paths, either sign:
/// 0 to 8, 2^k ± 4, u64::MAX ± 4, i128::MAX − k and i128::MIN + 1 + k.
fn edge_int() -> impl Strategy<Value = i128> {
    (0u32..5, 0u32..=126, 0i128..=8, 0u32..2).prop_map(|(kind, k, off, negate)| {
        let x = match kind {
            0 => off,
            1 => (1i128 << k) + off - 4,
            2 => i128::from(u64::MAX) + off - 4,
            3 => i128::MAX - off,
            _ => i128::MIN + 1 + off,
        };
        if negate == 1 {
            -x
        } else {
            x
        }
    })
}

/// Non-zero integers on both sides of 2⁶⁴, with powers of two and of 2520
/// as common factors: up to 2³² · 2⁴⁰ · 2520².
fn straddling_int() -> impl Strategy<Value = i128> {
    (1i128..1 << 32, 0u32..=40, 0u32..=2, 0u32..2).prop_map(|(m, shift, p, negate)| {
        let x = (m << shift) * 2520i128.pow(p);
        if negate == 1 {
            -x
        } else {
            x
        }
    })
}

fn small_config() -> impl Strategy<Value = GeneratorConfig> {
    (2usize..=6, 1u64..=3, 1u64..=40, 0.0f64..1.0).prop_map(|(actors, max_rep, max_tau, extra)| {
        GeneratorConfig {
            min_actors: actors,
            max_actors: actors,
            min_repetition: 1,
            max_repetition: max_rep,
            min_execution_time: 1,
            max_execution_time: max_tau,
            extra_channel_fraction: extra,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_graphs_satisfy_contract(config in small_config(), seed in 0u64..10_000) {
        let g = generate_graph(&config, seed);
        prop_assert!(is_strongly_connected(&g));
        prop_assert!(is_live(&g).expect("consistent"));
        let q = repetition_vector(&g).expect("consistent");
        // Balance equations hold on every channel.
        for (_, c) in g.channels() {
            prop_assert_eq!(
                c.production() * q.get(c.src()),
                c.consumption() * q.get(c.dst())
            );
        }
    }

    #[test]
    fn period_analyses_agree(config in small_config(), seed in 0u64..2_000) {
        let g = generate_graph(&config, seed);
        let state_space = analyze_period(&g).expect("analyzes").period;
        let mcr = maximum_cycle_ratio(&HsdfGraph::expand(&g).expect("expands"))
            .expect("solves");
        prop_assert_eq!(state_space, mcr);
    }

    #[test]
    fn period_bounds(config in small_config(), seed in 0u64..2_000) {
        let g = generate_graph(&config, seed);
        let q = repetition_vector(&g).expect("consistent");
        let analysis = analyze_period(&g).expect("analyzes");
        // Lower bound: the busiest actor (one-token self-loops serialise
        // each actor's q firings).
        let mut lower = Rational::ZERO;
        for a in g.actor_ids() {
            lower = lower.max(g.execution_time(a) * Rational::integer(q.get(a) as i128));
        }
        // Upper bound: fully serialised iteration.
        let mut upper = Rational::ZERO;
        for a in g.actor_ids() {
            upper += g.execution_time(a) * Rational::integer(q.get(a) as i128);
        }
        prop_assert!(analysis.period >= lower, "{} < {}", analysis.period, lower);
        prop_assert!(analysis.period <= upper, "{} > {}", analysis.period, upper);
    }

    #[test]
    fn latency_between_period_and_serial(config in small_config(), seed in 0u64..2_000) {
        let g = generate_graph(&config, seed);
        let q = repetition_vector(&g).expect("consistent");
        let latency = iteration_latency(&g).expect("live");
        let mut serial = Rational::ZERO;
        let mut longest = Rational::ZERO;
        for a in g.actor_ids() {
            serial += g.execution_time(a) * Rational::integer(q.get(a) as i128);
            longest = longest.max(g.execution_time(a));
        }
        prop_assert!(latency >= longest);
        prop_assert!(latency <= serial);
    }

    #[test]
    fn hsdf_node_count_is_total_firings(config in small_config(), seed in 0u64..2_000) {
        let g = generate_graph(&config, seed);
        let q = repetition_vector(&g).expect("consistent");
        let h = HsdfGraph::expand(&g).expect("expands");
        prop_assert_eq!(h.node_count() as u64, q.total_firings());
    }

    #[test]
    fn buffers_cover_initial_tokens(config in small_config(), seed in 0u64..2_000) {
        let g = generate_graph(&config, seed);
        let report = buffer_requirements(&g).expect("analyzes");
        for (cid, c) in g.channels() {
            prop_assert!(report.capacity(cid) >= c.initial_tokens());
        }
    }

    #[test]
    fn scaling_execution_times_scales_period(seed in 0u64..500, factor in 2i128..5) {
        // Period is 1-homogeneous in the execution times.
        let g = generate_graph(&GeneratorConfig::with_actors(4), seed);
        let base = analyze_period(&g).expect("analyzes").period;
        let scaled_times: Vec<Rational> = g
            .actor_ids()
            .map(|a| g.execution_time(a) * Rational::integer(factor))
            .collect();
        let scaled = analyze_period(&g.with_execution_times(&scaled_times))
            .expect("analyzes")
            .period;
        prop_assert_eq!(scaled, base * Rational::integer(factor));
    }

    #[test]
    fn period_with_times_matches_both_checked_analyses(
        config in small_config(),
        seed in 0u64..2_000,
        waits in prop::collection::vec(0i128..=50 * 2520 * 2520, 6..7),
    ) {
        // Inflated times as the contention estimator makes them: each
        // actor's own time plus a waiting time on the 1/2520² grid.
        // `platform::Application::period_with_times` is this call on the
        // application's stored repetition vector.
        let g = generate_graph(&config, seed);
        let q = repetition_vector(&g).expect("consistent");
        let times: Vec<Rational> = g
            .actor_ids()
            .zip(&waits)
            .map(|(a, &w)| g.execution_time(a) + Rational::new(w, 2520 * 2520))
            .collect();
        let inflated = g.with_execution_times(&times);
        let trusted = period_with_times(&g, &times, &q).expect("analyzes");
        prop_assert_eq!(trusted, analyze_period(&inflated).expect("analyzes").period);
        // The MCR oracle on the HSDF expansion, where it stays small.
        if q.total_firings() <= 12 {
            let mcr = maximum_cycle_ratio(&HsdfGraph::expand(&inflated).expect("expands"))
                .expect("solves");
            prop_assert_eq!(trusted, mcr);
        }
    }

    #[test]
    fn rational_quantize_idempotent(n in -10_000i128..10_000, d in 1i128..10_000, g in 1i128..100_000) {
        let x = Rational::new(n, d);
        let q = x.quantize(g);
        prop_assert_eq!(q.quantize(g), q);
        prop_assert!(q.denom() <= g);
    }

    #[test]
    fn rational_cmp_consistent_with_sub(a in -100_000i128..100_000, b in 1i128..10_000,
                                        c in -100_000i128..100_000, d in 1i128..10_000) {
        let x = Rational::new(a, b);
        let y = Rational::new(c, d);
        prop_assert_eq!(x < y, (x - y).is_negative());
        prop_assert_eq!(x == y, (x - y).is_zero());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn gcd_matches_euclid_at_the_edges(a in edge_int(), b in edge_int(), c in 1i128..1 << 40) {
        // `new` divides both parts by the gcd of their magnitudes, so the
        // reduced denominator gives the gcd away. A zero denominator is
        // swapped with the numerator; a common factor `c` is tried too.
        let scaled = a.checked_mul(c).zip(b.checked_mul(c));
        for (n, d) in [Some((a, b)), scaled].into_iter().flatten() {
            let (n, d) = if d == 0 { (d, n) } else { (n, d) };
            if d == 0 {
                continue;
            }
            let r = Rational::new(n, d);
            let g = euclid(n.unsigned_abs(), d.unsigned_abs());
            prop_assert_eq!(r.denom() as u128, d.unsigned_abs() / g);
            prop_assert_eq!(r.numer().unsigned_abs(), n.unsigned_abs() / g);
            prop_assert_eq!(r.is_negative(), n != 0 && (n < 0) != (d < 0));
        }
    }

    #[test]
    fn rational_ops_match_a_euclid_reference(
        a in straddling_int(),
        b in straddling_int(),
        c in straddling_int(),
        d in straddling_int(),
    ) {
        let (x, y) = (Rational::new(a, b), Rational::new(c, d));
        let (rx, ry) = (Ref::of(x), Ref::of(y));
        prop_assert_eq!(Some(rx), Ref::new(a, b));
        prop_assert_eq!(Some(Ref::of(x.recip())), rx.recip());
        prop_assert_eq!(x.cmp(&y), rx.cmp(ry));
        // Checked forms agree everywhere, operators wherever they succeed.
        let sum = rx.add(ry);
        prop_assert_eq!(x.checked_add(y).map(Ref::of), sum);
        if let Some(sum) = sum {
            prop_assert_eq!(Ref::of(x + y), sum);
        }
        let difference = rx.add(ry.neg());
        prop_assert_eq!(x.checked_add(-y).map(Ref::of), difference);
        if let Some(difference) = difference {
            prop_assert_eq!(Ref::of(x - y), difference);
        }
        let product = rx.mul(ry);
        prop_assert_eq!(x.checked_mul(y).map(Ref::of), product);
        if let Some(product) = product {
            prop_assert_eq!(Ref::of(x * y), product);
        }
        let quotient = rx.mul(ry.recip().expect("y is non-zero"));
        prop_assert_eq!(x.checked_mul(y.recip()).map(Ref::of), quotient);
        if let Some(quotient) = quotient {
            prop_assert_eq!(Ref::of(x / y), quotient);
        }
        for grid in [2520, 2520 * 2520, 2520 * 2520 * 2520] {
            if let Some(q) = rx.quantize(grid) {
                prop_assert_eq!(Ref::of(x.quantize(grid)), q);
            }
        }
    }
}
