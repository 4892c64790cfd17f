//! Seeded random SDF graph generation (the library's stand-in for the SDF³
//! tool the paper uses).
//!
//! The paper's evaluation generates "ten random SDFGs with eight to ten
//! actors each …, mimicking DSP or a multimedia application, … a strongly
//! connected component", with random execution times and rates. This module
//! reproduces those structural guarantees deterministically from a seed:
//!
//! * **consistent** — the repetition vector is chosen first and every
//!   channel's rates are derived from it, so the balance equations hold by
//!   construction;
//! * **strongly connected** — the channels always include a random Hamilton
//!   cycle over all actors;
//! * **live** — the cycle's closing edge (and every extra "backward" edge)
//!   carries enough initial tokens for a full iteration;
//! * **bounded auto-concurrency** — each actor gets a one-token self-loop,
//!   matching the paper's model of an actor occupying a processor while it
//!   fires.
//!
//! # Examples
//!
//! ```
//! use sdf::{GeneratorConfig, generate_graph, validate_analyzable};
//!
//! let g = generate_graph(&GeneratorConfig::default(), 42);
//! validate_analyzable(&g)?;
//! assert!(g.actor_count() >= 8 && g.actor_count() <= 10);
//! # Ok::<(), sdf::SdfError>(())
//! ```

use crate::graph::{SdfGraph, SdfGraphBuilder};
use crate::rational::gcd;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of the random graph generator.
///
/// The defaults reproduce the paper's workload: 8–10 actors, rates such that
/// repetition entries stay small (DSP-like), execution times in the tens to
/// hundreds of time units.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Minimum number of actors (inclusive).
    pub min_actors: usize,
    /// Maximum number of actors (inclusive).
    pub max_actors: usize,
    /// Minimum repetition-vector entry (inclusive).
    pub min_repetition: u64,
    /// Maximum repetition-vector entry (inclusive).
    pub max_repetition: u64,
    /// Minimum actor execution time (inclusive).
    pub min_execution_time: u64,
    /// Maximum actor execution time (inclusive).
    pub max_execution_time: u64,
    /// Number of extra channels added on top of the Hamilton cycle, as a
    /// fraction of the actor count (e.g. `0.5` adds `n/2` extra channels).
    pub extra_channel_fraction: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            min_actors: 8,
            max_actors: 10,
            min_repetition: 1,
            max_repetition: 4,
            min_execution_time: 10,
            max_execution_time: 100,
            extra_channel_fraction: 0.5,
        }
    }
}

impl GeneratorConfig {
    /// Convenience constructor fixing the actor count to exactly `n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdf::{generate_graph, GeneratorConfig};
    /// let g = generate_graph(&GeneratorConfig::with_actors(5), 1);
    /// assert_eq!(g.actor_count(), 5);
    /// ```
    pub fn with_actors(n: usize) -> Self {
        GeneratorConfig {
            min_actors: n,
            max_actors: n,
            ..Self::default()
        }
    }
}

/// Generates one random graph from `config` and `seed`.
///
/// The same `(config, seed)` pair always yields the same graph.
///
/// # Panics
///
/// Panics if `config` is degenerate (`min > max` for any range, or zero
/// actors).
///
/// # Examples
///
/// ```
/// use sdf::{generate_graph, GeneratorConfig};
/// let a = generate_graph(&GeneratorConfig::default(), 7);
/// let b = generate_graph(&GeneratorConfig::default(), 7);
/// assert_eq!(a, b); // deterministic
/// ```
pub fn generate_graph(config: &GeneratorConfig, seed: u64) -> SdfGraph {
    assert!(config.min_actors >= 1, "need at least one actor");
    assert!(config.min_actors <= config.max_actors, "actor range empty");
    assert!(
        config.min_repetition >= 1 && config.min_repetition <= config.max_repetition,
        "repetition range empty"
    );
    assert!(
        config.min_execution_time >= 1 && config.min_execution_time <= config.max_execution_time,
        "execution-time range empty"
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(config.min_actors..=config.max_actors);

    // Repetition vector first: consistency by construction.
    let q: Vec<u64> = (0..n)
        .map(|_| rng.gen_range(config.min_repetition..=config.max_repetition))
        .collect();

    let mut b = SdfGraphBuilder::new(format!("rand-{seed}"));
    let ids: Vec<_> = (0..n)
        .map(|i| {
            b.actor(
                format!("a{i}"),
                rng.gen_range(config.min_execution_time..=config.max_execution_time),
            )
        })
        .collect();

    // Random Hamilton cycle: a permutation visited in order.
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);

    // Rates derived from q: channel u→v uses (prod, cons) =
    // (q[v]/g, q[u]/g) with g = gcd(q[u], q[v]), so prod·q[u] = cons·q[v].
    let rates = |qu: u64, qv: u64| -> (u64, u64) {
        let g = gcd(qu.into(), qv.into()) as u64;
        (qv / g, qu / g)
    };

    for w in 0..n {
        let u = order[w];
        let v = order[(w + 1) % n];
        let (prod, cons) = rates(q[u], q[v]);
        // The closing edge (w == n-1) carries one full iteration of tokens
        // (cons·q[v]) so the cycle is live; forward edges start empty.
        let tokens = if w == n - 1 { cons * q[v] } else { 0 };
        b.channel(ids[u], ids[v], prod, cons, tokens)
            .expect("generator rates are positive");
    }

    // Extra channels between random distinct pairs; every extra channel is
    // pre-loaded with a full iteration of tokens so it can never deadlock
    // the graph (it only adds pipelining constraints).
    let extra = ((n as f64) * config.extra_channel_fraction).round() as usize;
    for _ in 0..extra {
        let u = rng.gen_range(0..n);
        let mut v = rng.gen_range(0..n);
        if u == v {
            v = (v + 1) % n;
        }
        let (prod, cons) = rates(q[u], q[v]);
        b.channel(ids[u], ids[v], prod, cons, cons * q[v])
            .expect("generator rates are positive");
    }

    // One-token self-loops: an actor occupies its processor per firing.
    for &a in &ids {
        b.self_loop(a, 1);
    }

    b.build().expect("generated graph is structurally valid")
}

/// Generates `count` graphs with consecutive seeds `base_seed..`.
///
/// # Examples
///
/// ```
/// use sdf::{generate_graphs, GeneratorConfig};
/// let graphs = generate_graphs(&GeneratorConfig::default(), 100, 10);
/// assert_eq!(graphs.len(), 10);
/// ```
pub fn generate_graphs(config: &GeneratorConfig, base_seed: u64, count: usize) -> Vec<SdfGraph> {
    (0..count as u64)
        .map(|i| generate_graph(config, base_seed + i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liveness::validate_analyzable;
    use crate::repetition::repetition_vector;
    use crate::state_space::period;
    use crate::topology::is_strongly_connected;

    #[test]
    fn deterministic() {
        let c = GeneratorConfig::default();
        assert_eq!(generate_graph(&c, 5), generate_graph(&c, 5));
    }

    #[test]
    fn different_seeds_differ() {
        let c = GeneratorConfig::default();
        assert_ne!(generate_graph(&c, 1), generate_graph(&c, 2));
    }

    #[test]
    fn structural_guarantees_hold_for_many_seeds() {
        let c = GeneratorConfig::default();
        for seed in 0..50 {
            let g = generate_graph(&c, seed);
            assert!(g.actor_count() >= 8 && g.actor_count() <= 10, "seed {seed}");
            assert!(is_strongly_connected(&g), "seed {seed}");
            validate_analyzable(&g).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn periods_are_computable() {
        let c = GeneratorConfig::default();
        for seed in 0..10 {
            let g = generate_graph(&c, seed);
            let p = period(&g).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(p.is_positive());
        }
    }

    #[test]
    fn repetition_entries_within_bounds() {
        // The generated q must divide the requested entries (the minimal
        // vector can be smaller after gcd scaling, but never larger).
        let c = GeneratorConfig::default();
        for seed in 0..20 {
            let g = generate_graph(&c, seed);
            let q = repetition_vector(&g).unwrap();
            for (_, entry) in q.iter() {
                assert!(entry <= c.max_repetition, "seed {seed}");
            }
        }
    }

    #[test]
    fn fixed_actor_count() {
        let g = generate_graph(&GeneratorConfig::with_actors(9), 3);
        assert_eq!(g.actor_count(), 9);
    }

    #[test]
    fn batch_generation() {
        let graphs = generate_graphs(&GeneratorConfig::default(), 7, 10);
        assert_eq!(graphs.len(), 10);
        assert_eq!(graphs[0], generate_graph(&GeneratorConfig::default(), 7));
        assert_eq!(graphs[9], generate_graph(&GeneratorConfig::default(), 16));
    }

    #[test]
    #[should_panic(expected = "actor range empty")]
    fn degenerate_config_panics() {
        let c = GeneratorConfig {
            min_actors: 5,
            max_actors: 3,
            ..GeneratorConfig::default()
        };
        generate_graph(&c, 0);
    }
}
