//! Property-based tests over the SDF substrate: generated graphs satisfy
//! their structural contract, the two period analyses agree, and rational
//! arithmetic behaves like ℚ.

use proptest::prelude::*;
use sdf::{
    analyze_period, buffer_requirements, generate_graph, is_live, is_strongly_connected,
    iteration_latency, maximum_cycle_ratio, period_with_times, repetition_vector, GeneratorConfig,
    HsdfGraph, Rational,
};

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
