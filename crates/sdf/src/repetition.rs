//! Repetition vector computation and consistency checking.
//!
//! The *repetition vector* `q` of an SDF graph assigns to every actor the
//! number of firings per graph iteration, such that every channel is in
//! balance: `production(c) · q[src(c)] = consumption(c) · q[dst(c)]`. A graph
//! admitting a positive integer solution is *consistent*; only consistent
//! graphs can execute with bounded memory.
//!
//! The solver propagates rational firing ratios over the undirected channel
//! structure and scales to the smallest positive integer vector, the standard
//! algorithm from Lee & Messerschmitt (1987).
//!
//! # Examples
//!
//! ```
//! use sdf::{figure2_graphs, repetition_vector};
//!
//! let (a, _) = figure2_graphs();
//! let q = repetition_vector(&a)?;
//! assert_eq!(q.as_slice(), &[1, 2, 1]);
//! assert_eq!(q.total_firings(), 4);
//! # Ok::<(), sdf::SdfError>(())
//! ```

use crate::graph::{ActorId, ChannelId, SdfError, SdfGraph};
use crate::rational::{gcd, Rational};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The repetition vector of a consistent SDF graph.
///
/// Indexable by [`ActorId`]; entries are the minimal positive firing counts
/// per iteration.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RepetitionVector {
    entries: Vec<u64>,
}

impl RepetitionVector {
    /// Firing count `q(a)` for actor `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn get(&self, a: ActorId) -> u64 {
        self.entries[a.0]
    }

    /// All entries in actor-id order.
    pub fn as_slice(&self) -> &[u64] {
        &self.entries
    }

    /// Total firings in one graph iteration (`Σ_a q(a)`).
    ///
    /// This is the number of HSDF vertices the graph expands to.
    pub fn total_firings(&self) -> u64 {
        self.entries.iter().sum()
    }

    /// Number of actors covered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the vector is empty (never true for vectors produced by
    /// [`repetition_vector`]).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterator over `(ActorId, q)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ActorId, u64)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, &q)| (ActorId(i), q))
    }
}

impl fmt::Display for RepetitionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, q) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{q}")?;
        }
        write!(f, "]")
    }
}

impl std::ops::Index<ActorId> for RepetitionVector {
    type Output = u64;
    fn index(&self, a: ActorId) -> &u64 {
        &self.entries[a.0]
    }
}

/// Computes the minimal repetition vector of `graph`.
///
/// # Errors
///
/// Returns [`SdfError::Inconsistent`] if the balance equations admit no
/// positive solution, and [`SdfError::Overflow`] if the rates are so far
/// apart that the solution does not fit the exact arithmetic. Disconnected
/// graphs are solved per connected component (each component is scaled
/// independently to its minimal solution).
///
/// # Examples
///
/// ```
/// use sdf::{repetition_vector, SdfGraphBuilder};
///
/// let mut b = SdfGraphBuilder::new("g");
/// let x = b.actor("x", 1);
/// let y = b.actor("y", 1);
/// b.channel(x, y, 3, 2, 0)?;
/// b.channel(y, x, 2, 3, 6)?;
/// let q = repetition_vector(&b.build()?)?;
/// assert_eq!(q.as_slice(), &[2, 3]);
/// # Ok::<(), sdf::SdfError>(())
/// ```
pub fn repetition_vector(graph: &SdfGraph) -> Result<RepetitionVector, SdfError> {
    let n = graph.actor_count();
    let mut ratio: Vec<Option<Rational>> = vec![None; n];
    let mut stack: Vec<ActorId> = Vec::new();

    for start in graph.actor_ids() {
        if ratio[start.0].is_some() {
            continue;
        }
        ratio[start.0] = Some(Rational::ONE);
        stack.push(start);
        let mut component = vec![start];

        while let Some(a) = stack.pop() {
            let ra = ratio[a.0].expect("visited actors have a ratio");
            // Outgoing: prod·r[a] = cons·r[dst] => r[dst] = r[a]·prod/cons
            let mut visit =
                |other: ActorId, expected: Rational, chan: ChannelId| -> Result<(), SdfError> {
                    match ratio[other.0] {
                        None => {
                            ratio[other.0] = Some(expected);
                            stack.push(other);
                            component.push(other);
                            Ok(())
                        }
                        Some(r) if r == expected => Ok(()),
                        Some(_) => Err(SdfError::Inconsistent { channel: chan }),
                    }
                };
            for &cid in graph.outgoing(a) {
                let c = graph.channel(cid);
                let expected = ra
                    .checked_mul(Rational::new(
                        c.production() as i128,
                        c.consumption() as i128,
                    ))
                    .ok_or(SdfError::Overflow)?;
                if c.is_self_loop() {
                    if c.production() != c.consumption() {
                        return Err(SdfError::Inconsistent { channel: cid });
                    }
                    continue;
                }
                visit(c.dst(), expected, cid)?;
            }
            for &cid in graph.incoming(a) {
                let c = graph.channel(cid);
                if c.is_self_loop() {
                    continue;
                }
                let expected = ra
                    .checked_mul(Rational::new(
                        c.consumption() as i128,
                        c.production() as i128,
                    ))
                    .ok_or(SdfError::Overflow)?;
                visit(c.src(), expected, cid)?;
            }
        }

        // Scale this component to the smallest positive integer vector.
        let mut denom_lcm = 1i128;
        for a in &component {
            let d = ratio[a.0].expect("component actors have ratios").denom();
            denom_lcm = (denom_lcm / gcd(denom_lcm as u128, d as u128) as i128)
                .checked_mul(d)
                .ok_or(SdfError::Overflow)?;
        }
        let scaled = |r: Rational| {
            r.numer()
                .checked_mul(denom_lcm / r.denom())
                .ok_or(SdfError::Overflow)
        };
        let mut numer_gcd = 0i128;
        for a in &component {
            numer_gcd = gcd(
                numer_gcd as u128,
                scaled(ratio[a.0].expect("component actors have ratios"))?.unsigned_abs(),
            ) as i128;
        }
        for a in &component {
            let r = ratio[a.0].expect("component actors have ratios");
            ratio[a.0] = Some(Rational::integer(scaled(r)? / numer_gcd));
        }
    }

    let mut entries = Vec::with_capacity(n);
    for r in ratio {
        let r = r.expect("all actors visited");
        debug_assert!(r.is_integer() && r.is_positive());
        entries.push(u64::try_from(r.numer()).map_err(|_| SdfError::Overflow)?);
    }
    Ok(RepetitionVector { entries })
}

/// Checks graph consistency without materialising the vector.
///
/// # Examples
///
/// ```
/// use sdf::{figure2_graphs, is_consistent};
/// let (a, _) = figure2_graphs();
/// assert!(is_consistent(&a));
/// ```
pub fn is_consistent(graph: &SdfGraph) -> bool {
    repetition_vector(graph).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{figure2_graphs, SdfGraphBuilder};

    #[test]
    fn figure2_vectors() {
        let (a, b) = figure2_graphs();
        assert_eq!(repetition_vector(&a).unwrap().as_slice(), &[1, 2, 1]);
        assert_eq!(repetition_vector(&b).unwrap().as_slice(), &[2, 1, 1]);
    }

    #[test]
    fn single_actor_self_loop() {
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 5);
        b.self_loop(x, 1);
        let q = repetition_vector(&b.build().unwrap()).unwrap();
        assert_eq!(q.as_slice(), &[1]);
    }

    #[test]
    fn inconsistent_graph_detected() {
        // x -(1,1)-> y and x -(2,1)-> y demand q[y] = q[x] and q[y] = 2q[x].
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(x, y, 2, 1, 0).unwrap();
        let err = repetition_vector(&b.build().unwrap()).unwrap_err();
        assert!(matches!(err, SdfError::Inconsistent { .. }));
    }

    #[test]
    fn inconsistent_self_loop_detected() {
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 1);
        b.channel(x, x, 2, 1, 1).unwrap();
        let err = repetition_vector(&b.build().unwrap()).unwrap_err();
        assert!(matches!(err, SdfError::Inconsistent { .. }));
    }

    #[test]
    fn minimality() {
        // Rates with a common factor must still give the minimal vector.
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 4, 6, 0).unwrap();
        b.channel(y, x, 6, 4, 12).unwrap();
        let q = repetition_vector(&b.build().unwrap()).unwrap();
        assert_eq!(q.as_slice(), &[3, 2]);
    }

    #[test]
    fn disconnected_components_scaled_independently() {
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.self_loop(x, 1);
        b.self_loop(y, 1);
        let q = repetition_vector(&b.build().unwrap()).unwrap();
        assert_eq!(q.as_slice(), &[1, 1]);
    }

    #[test]
    fn balance_holds_for_every_channel() {
        let (a, _) = figure2_graphs();
        let q = repetition_vector(&a).unwrap();
        for (_, c) in a.channels() {
            assert_eq!(
                c.production() * q.get(c.src()),
                c.consumption() * q.get(c.dst())
            );
        }
    }

    #[test]
    fn vector_accessors() {
        let (a, _) = figure2_graphs();
        let q = repetition_vector(&a).unwrap();
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
        assert_eq!(q.total_firings(), 4);
        assert_eq!(q[ActorId(1)], 2);
        assert_eq!(q.to_string(), "[1, 2, 1]");
        let pairs: Vec<_> = q.iter().collect();
        assert_eq!(pairs[1], (ActorId(1), 2));
    }

    #[test]
    fn rates_too_far_apart_overflow_typed() {
        // Each channel multiplies the firing ratio by 2^40: four of them
        // need 2^160 firings, past i128. A typed error, not a panic.
        let mut b = SdfGraphBuilder::new("g");
        let actors: Vec<ActorId> = (0..5).map(|i| b.actor(format!("a{i}"), 1)).collect();
        for pair in actors.windows(2) {
            b.channel(pair[0], pair[1], 1 << 40, 1, 0).unwrap();
        }
        assert_eq!(
            repetition_vector(&b.build().unwrap()).unwrap_err(),
            SdfError::Overflow
        );
    }
}
