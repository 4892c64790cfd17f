//! Property-based tests over the core algebra and data structures.

mod common;

use common::journaled;
use contention::symmetric::{elementary_symmetric, elementary_symmetric_naive, leave_one_out};
use contention::{waiting_time, ActorLoad, Composite, Order};
use proptest::prelude::*;
use sdf::Rational;

/// Strategy: a rational in [0, 1] with a lattice-friendly denominator (the
/// algebra quantises to multiples of 2520⁻³, so test inputs stay exact).
fn prob() -> impl Strategy<Value = Rational> {
    (0i128..=2520).prop_map(|n| Rational::new(n, 2520))
}

/// Strategy: a small non-negative blocking time on the half-integer grid.
fn blocking_time() -> impl Strategy<Value = Rational> {
    (0i128..=400).prop_map(|n| Rational::new(n, 2))
}

fn load() -> impl Strategy<Value = ActorLoad> {
    (prob(), blocking_time()).prop_map(|(p, mu)| ActorLoad::new(p, mu).expect("valid"))
}

proptest! {
    #[test]
    fn rational_field_laws(a in -2000i128..2000, b in 1i128..300, c in -2000i128..2000, d in 1i128..300) {
        let x = Rational::new(a, b);
        let y = Rational::new(c, d);
        prop_assert_eq!(x + y, y + x);
        prop_assert_eq!(x * y, y * x);
        prop_assert_eq!(x + Rational::ZERO, x);
        prop_assert_eq!(x * Rational::ONE, x);
        prop_assert_eq!((x + y) - y, x);
        if !y.is_zero() {
            prop_assert_eq!((x / y) * y, x);
        }
    }

    #[test]
    fn rational_ordering_total(a in -500i128..500, b in 1i128..100, c in -500i128..500, d in 1i128..100) {
        let x = Rational::new(a, b);
        let y = Rational::new(c, d);
        // Exactly one of <, ==, > holds, and it matches f64 up to exactness.
        let by_cmp = x.cmp(&y);
        let diff = x - y;
        prop_assert_eq!(diff.is_positive(), by_cmp == std::cmp::Ordering::Greater);
        prop_assert_eq!(diff.is_zero(), by_cmp == std::cmp::Ordering::Equal);
    }

    #[test]
    fn quantize_error_bounded(a in -100_000i128..100_000, b in 1i128..100_000, grid in 1i128..100_000) {
        let x = Rational::new(a, b);
        let q = x.quantize(grid);
        // Error at most half a grid step, and exact multiples unchanged.
        prop_assert!((q - x).abs() <= Rational::new(1, 2 * grid));
        prop_assert_eq!(q.quantize(grid), q);
    }

    #[test]
    fn symmetric_dp_matches_naive(values in prop::collection::vec(prob(), 0..7)) {
        let e = elementary_symmetric(&values, values.len());
        for (j, &ej) in e.iter().enumerate() {
            prop_assert_eq!(ej, elementary_symmetric_naive(&values, j), "degree {}", j);
        }
    }

    #[test]
    fn leave_one_out_consistent(values in prop::collection::vec(prob(), 1..7), idx in 0usize..6) {
        let idx = idx % values.len();
        let e = elementary_symmetric(&values, values.len());
        let rest: Vec<Rational> = values
            .iter()
            .enumerate()
            .filter(|(k, _)| *k != idx)
            .map(|(_, &v)| v)
            .collect();
        let expected = elementary_symmetric(&rest, rest.len());
        prop_assert_eq!(leave_one_out(&e, values[idx]), expected);
    }

    #[test]
    fn compose_probability_stays_in_unit_interval(loads in prop::collection::vec(load(), 0..12)) {
        let c = Composite::from_actors(loads);
        prop_assert!(!c.probability().is_negative());
        prop_assert!(c.probability() <= Rational::ONE);
        prop_assert!(!c.expected_waiting().is_negative());
    }

    #[test]
    fn compose_is_commutative(a in load(), b in load()) {
        let ca = Composite::from_actor(a);
        let cb = Composite::from_actor(b);
        prop_assert_eq!(ca.compose(cb), cb.compose(ca));
    }

    #[test]
    fn probability_composition_associative(a in load(), b in load(), c in load()) {
        // ⊕ is exactly associative (Section 4.2) — quantisation preserves
        // this for lattice-aligned inputs.
        let (ca, cb, cc) = (
            Composite::from_actor(a),
            Composite::from_actor(b),
            Composite::from_actor(c),
        );
        let left = ca.compose(cb).compose(cc).probability();
        let right = ca.compose(cb.compose(cc)).probability();
        // Lattice rounding of intermediate w does not touch p; p itself is
        // re-quantised identically on both sides, so demand near-equality
        // within one lattice step.
        let lattice = Rational::new(1, contention::waiting::LATTICE);
        prop_assert!((left - right).abs() <= lattice, "{} vs {}", left, right);
    }

    #[test]
    fn waiting_associativity_deviation_is_third_order(a in load(), b in load(), c in load()) {
        // ⊗ is associative to second order: the deviation between the two
        // association orders is bounded by a third-order product of the
        // probabilities (paper, Section 4.2).
        let (ca, cb, cc) = (
            Composite::from_actor(a),
            Composite::from_actor(b),
            Composite::from_actor(c),
        );
        let left = ca.compose(cb).compose(cc).expected_waiting();
        let right = ca.compose(cb.compose(cc)).expected_waiting();
        let mu_max = a.blocking_time().max(b.blocking_time()).max(c.blocking_time());
        let bound = mu_max * (a.probability() * b.probability() * c.probability()
            + a.probability() * b.probability()
            + b.probability() * c.probability()
            + a.probability() * c.probability())
            + Rational::new(1, 1_000_000); // lattice slack
        prop_assert!(
            (left - right).abs() <= bound,
            "deviation {} exceeds third-order bound {}",
            (left - right).abs(),
            bound
        );
    }

    #[test]
    fn decompose_inverts_compose(rest in prop::collection::vec(load(), 0..6), b in load()) {
        prop_assume!(!b.is_saturating());
        let base = Composite::from_actors(rest);
        let with_b = base.compose(Composite::from_actor(b));
        let recovered = with_b.decompose(Composite::from_actor(b)).expect("P(b) != 1");
        // Round-trip exact up to accumulated lattice rounding (≤ 1e-6,
        // roughly one lattice step per compose plus inverse amplification).
        let tol = Rational::new(1, 1_000_000);
        prop_assert!((recovered.probability() - base.probability()).abs() <= tol);
        prop_assert!((recovered.expected_waiting() - base.expected_waiting()).abs() <= tol);
    }

    #[test]
    fn waiting_time_nonnegative_and_monotone_in_load(others in prop::collection::vec(load(), 0..8), extra in load()) {
        for order in [Order::Exact, Order::SECOND, Order::FOURTH] {
            let w = waiting_time(&others, order);
            prop_assert!(!w.is_negative(), "{:?}", order);
        }
        // Adding one more contender can only increase second-order waiting.
        let w_before = waiting_time(&others, Order::SECOND);
        let mut more = others.clone();
        more.push(extra);
        let w_after = waiting_time(&more, Order::SECOND);
        prop_assert!(w_after >= w_before);
    }

    #[test]
    fn truncation_order_n_equals_exact(loads in prop::collection::vec(load(), 1..7)) {
        let exact = waiting_time(&loads, Order::Exact);
        let full_trunc = waiting_time(&loads, Order::Truncated(loads.len() as u32));
        prop_assert_eq!(exact, full_trunc);
    }

    #[test]
    fn second_order_at_least_exact_under_light_load(loads in prop::collection::vec(
        (1i128..=630, 0i128..=400).prop_map(|(n, t)| ActorLoad::new(
            Rational::new(n, 2520), Rational::new(t, 2)).expect("valid")), 2..8)) {
        // For probabilities ≤ 1/4 the alternating inner series has strictly
        // decreasing terms, so the j=1 truncation upper-bounds the series.
        let second = waiting_time(&loads, Order::SECOND);
        let exact = waiting_time(&loads, Order::Exact);
        prop_assert!(
            second >= exact,
            "second {} < exact {}",
            second,
            exact
        );
    }
}

/// Equations 6–9 over exact rationals, each result snapped to the lattice:
/// the reference `Composite`'s integer formulas must reproduce bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RationalComposite {
    p: Rational,
    w: Rational,
}

impl RationalComposite {
    const IDENTITY: RationalComposite = RationalComposite {
        p: Rational::ZERO,
        w: Rational::ZERO,
    };

    fn from_actor(load: ActorLoad) -> RationalComposite {
        RationalComposite {
            p: load.probability(),
            w: load.expected_waiting(),
        }
    }

    fn compose(self, other: RationalComposite) -> RationalComposite {
        let half = Rational::new(1, 2);
        let lattice = contention::waiting::LATTICE;
        RationalComposite {
            p: (self.p + other.p - self.p * other.p).quantize(lattice),
            w: (self.w * (Rational::ONE + half * other.p)
                + other.w * (Rational::ONE + half * self.p))
                .quantize(lattice),
        }
    }

    fn decompose(
        self,
        other: RationalComposite,
    ) -> Result<RationalComposite, contention::ContentionError> {
        if other.p == Rational::ONE {
            return Err(contention::ContentionError::SaturatedInverse);
        }
        let half = Rational::new(1, 2);
        let lattice = contention::waiting::LATTICE;
        let p = ((self.p - other.p) / (Rational::ONE - other.p)).quantize(lattice);
        let w = ((self.w - other.w * (Rational::ONE + half * p))
            / (Rational::ONE + half * other.p))
            .quantize(lattice);
        Ok(RationalComposite { p, w })
    }
}

/// Strategy: a load on the lattice the estimator and admission controller
/// feed the algebra — `P` a multiple of 1/2520 (one in fifteen saturating,
/// so the inverse's side condition is exercised) and `µ` a multiple of
/// 1/2520 or 1/5040, from below 1 up to 10⁶.
fn lattice_load() -> impl Strategy<Value = ActorLoad> {
    (
        0i128..=2700,
        1i128..=2,
        0u32..=6,
        0i128..=i128::from(i64::MAX),
    )
        .prop_map(|(p, half_steps, digits, raw)| {
            let grid = 2520 * half_steps;
            let mu = raw % (grid * 10i128.pow(digits) + 1);
            ActorLoad::new(Rational::new(p.min(2520), 2520), Rational::new(mu, grid))
                .expect("valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn integer_composites_equal_rational_formulas(
        loads in prop::collection::vec(lattice_load(), 0..=12)
    ) {
        let check = |c: &Composite, r: &RationalComposite| {
            prop_assert!(
                r.p == c.probability() && r.w == c.expected_waiting(),
                "integer {} vs rational {:?}",
                c,
                r
            );
            Ok(())
        };
        let decompose = |(c, r): (Composite, RationalComposite),
                         (cm, rm): (Composite, RationalComposite)| {
            match (c.decompose(cm), r.decompose(rm)) {
                (Ok(cd), Ok(rd)) => {
                    check(&cd, &rd)?;
                    Ok(Some((cd, rd)))
                }
                (cd, rd) => {
                    prop_assert_eq!(cd.err(), rd.err());
                    Ok(None)
                }
            }
        };
        // Every compose of the chain, from the identity.
        let identity = (Composite::identity(), RationalComposite::IDENTITY);
        let mut all = identity;
        let mut members = Vec::new();
        for &load in &loads {
            let m = (Composite::from_actor(load), RationalComposite::from_actor(load));
            check(&m.0, &m.1)?;
            members.push(m);
            all = (all.0.compose(m.0), all.1.compose(m.1));
            check(&all.0, &all.1)?;
        }
        prop_assert_eq!(Composite::from_actors(loads.iter().copied()), all.0);
        for &m in &members {
            decompose(all, m)?;
            // A member removed from an empty node leaves a negative
            // probability; removing that in turn takes Equation 9 through a
            // negative denominator (or, at P = −2, a zero one, where both
            // sides divide by zero).
            if let Some(negative) = decompose(identity, m)? {
                if negative.1.p != Rational::integer(-2) {
                    decompose(all, negative)?;
                }
            }
        }
        // The chain peeled one member at a time, each step's rounding
        // residue carried into the next.
        let mut rest = all;
        for &m in &members {
            match decompose(rest, m)? {
                Some(next) => rest = next,
                None => break,
            }
        }
    }
}

/// Strategy: one arbitrary journal decision event (all variants, all
/// outcome kinds, exact rational periods).
fn journal_event() -> impl Strategy<Value = runtime::DecisionEvent> {
    use runtime::{DecisionEvent, JournalOutcome};
    (
        0u64..5,
        0u64..8,
        0u64..64,
        0u64..8,
        (1i128..5000, 1i128..500),
    )
        .prop_map(|(kind, group, resident, other, (num, den))| {
            let period = Rational::new(num, den);
            match kind {
                0 => DecisionEvent::Admit {
                    group,
                    app_index: resident % 6,
                    required_throughput: Some(period.recip()),
                    outcome: JournalOutcome::Admitted {
                        resident,
                        predicted_period: period,
                    },
                    affinity: None,
                },
                1 => DecisionEvent::Admit {
                    group,
                    app_index: resident % 6,
                    required_throughput: None,
                    outcome: JournalOutcome::Rejected { violations: other },
                    affinity: None,
                },
                2 => DecisionEvent::Admit {
                    group,
                    app_index: resident % 6,
                    required_throughput: None,
                    outcome: JournalOutcome::Saturated,
                    affinity: None,
                },
                3 => DecisionEvent::Release { resident },
                _ => DecisionEvent::Rebalance {
                    resident,
                    from_group: group,
                    to_group: other,
                    predicted_period: period,
                },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn journal_roundtrips_serde_for_arbitrary_decisions(
        events in prop::collection::vec(journal_event(), 0..40)
    ) {
        use runtime::{Journal, JournalHeader};
        // Individual events round-trip through the serde value model.
        for event in &events {
            let json = serde_json::to_string(event)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let back: runtime::DecisionEvent = serde_json::from_str(&json)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(&back, event);
        }
        // Whole journals round-trip through render/parse with checksums
        // and sequence numbers intact.
        let journal = Journal::new(JournalHeader::default());
        for event in &events {
            journal.append(event.clone());
        }
        let parsed = Journal::parse(&journal.render().expect("journal renders"))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(journaled(&parsed), events);
        prop_assert_eq!(parsed.try_entries().expect("journal reads"), journal.try_entries().expect("journal reads"));
    }
}

proptest! {
    // Each case drives real admissions (milliseconds apiece), so keep the
    // case count small; the op streams still cover admit/release/rebalance
    // interleavings across varying fleet shapes.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fleet_invariants_hold_under_arbitrary_op_streams(
        groups in 2usize..5,
        capacity in 1usize..4,
        ops in prop::collection::vec((0u64..100, 0usize..6), 1..25)
    ) {
        use platform::Application;
        use runtime::{AdmissionRequest, AdmissionService, FleetConfig, FleetManager, RoutingPolicy};
        use sdf::figure2_graphs;

        let (a, b) = figure2_graphs();
        let spec = platform::SystemSpec::builder()
            .application(Application::new("A", a).expect("valid"))
            .application(Application::new("B", b).expect("valid"))
            .mapping(platform::Mapping::by_actor_index(3))
            .build()
            .expect("valid spec");
        let fleet = FleetManager::new(
            spec,
            FleetConfig::uniform(groups, 1, capacity, RoutingPolicy::LeastUtilised),
        )
        .expect("valid fleet");

        let mut residents = Vec::new();
        for &(roll, pick) in &ops {
            if roll < 50 {
                let mut request = AdmissionRequest::new(pick % 2);
                if roll % 2 == 0 {
                    request = request.with_contract(Rational::new(1, 500));
                }
                if let Ok(decision) = fleet.admit(&request) {
                    residents.extend(decision.resident());
                }
            } else if roll < 80 {
                if !residents.is_empty() {
                    let resident = residents.remove(pick % residents.len());
                    prop_assert!(fleet.release_resident(resident));
                }
            } else {
                fleet.rebalance();
            }

            // Invariant: the sum of per-group residents equals the fleet's
            // resident count...
            let per_group: usize = (0..groups)
                .map(|g| fleet.resident_count_of(g).expect("valid group"))
                .sum();
            prop_assert_eq!(per_group, fleet.resident_count());
            // ... and no group — rebalancing included — ever exceeds its
            // capacity.
            for g in 0..groups {
                prop_assert!(
                    fleet.resident_count_of(g).expect("valid group")
                        <= fleet.capacity_of(g).expect("valid group"),
                    "group {} over capacity", g
                );
            }
        }

        // Releasing every held resident drains the fleet and balances the
        // books.
        for resident in residents {
            prop_assert!(fleet.release_resident(resident));
        }
        prop_assert_eq!(fleet.resident_count(), 0);
        let snapshot = fleet.snapshot();
        prop_assert_eq!(snapshot.admitted, snapshot.released);
        // Journal length equals total decisions made.
        let decisions = snapshot.admitted + snapshot.rejected + snapshot.saturated
            + snapshot.released + snapshot.rebalances;
        prop_assert_eq!(fleet.journal().len() as u64, decisions);
        fleet.journal().verify().map_err(|e| TestCaseError::fail(e.to_string()))?;
    }
}

/// Strategy: one spec-relative admission request (mixed contracts,
/// affinities and explicit targets, like real client traffic).
fn admission_request(groups: usize) -> impl Strategy<Value = runtime::AdmissionRequest> {
    use runtime::AdmissionRequest;
    (0usize..4, 0u64..4, 0usize..groups.max(1)).prop_map(move |(app_index, kind, target)| {
        let request = AdmissionRequest::new(app_index);
        match kind {
            0 => request.with_contract(Rational::new(1, 500)),
            1 => request.with_affinity(format!("uc{}", app_index % groups.max(1))),
            2 => request.on(target),
            _ => request,
        }
    })
}

proptest! {
    // Each case drives real admissions; keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The middleware-composition satellite: `Cached<Metered<S>>` and
    // `Metered<Cached<S>>` produce identical decisions against the bare
    // service and leave identical fleet journals, and the same holds when
    // the stream is pipelined over one remote connection (all in flight
    // at once; the server decides a connection's frames one at a time in
    // arrival order, so the decision sequence stays comparable).
    #[test]
    fn middleware_composes_in_either_order_with_equivalent_decisions(
        groups in 1usize..4,
        capacity in 1usize..4,
        requests in prop::collection::vec(admission_request(3), 1..20)
    ) {
        use platform::Application;
        use runtime::{
            AdmissionService, Cached, Completion, FleetConfig, FleetManager, Metered,
            RemoteClient, RemoteServer, RoutingPolicy,
        };
        use std::sync::Arc;
        use sdf::figure2_graphs;

        let spec = || {
            let (a, b) = figure2_graphs();
            platform::SystemSpec::builder()
                .application(Application::new("A", a).expect("valid"))
                .application(Application::new("B", b).expect("valid"))
                .mapping(platform::Mapping::by_actor_index(3))
                .build()
                .expect("valid spec")
        };
        let fleet = |spec| FleetManager::new(
            spec,
            FleetConfig::uniform(groups, 1, capacity, RoutingPolicy::Affinity),
        ).expect("valid fleet");
        // Targets beyond the group count are domain errors on every stack
        // alike; keep the streams to valid domains so decisions compare.
        let requests: Vec<runtime::AdmissionRequest> = requests
            .into_iter()
            .map(|mut r| {
                r.target = r.target.map(|t| t % groups);
                r
            })
            .collect();

        let bare = fleet(spec());
        let cached_outer = Cached::new(Metered::new(fleet(spec())), 8);
        let metered_outer = Metered::new(Cached::new(fleet(spec()), 8));

        // Sequential application: identical decision for every request.
        for request in &requests {
            let expected = AdmissionService::admit(&bare, request).unwrap();
            prop_assert_eq!(&cached_outer.admit(request).unwrap(), &expected);
            prop_assert_eq!(&metered_outer.admit(request).unwrap(), &expected);
        }
        // Both stacks' fleets recorded the bare fleet's decision stream.
        let cached_journal = cached_outer.inner().inner().journal();
        prop_assert_eq!(journaled(cached_journal), journaled(bare.journal()));
        prop_assert_eq!(
            journaled(metered_outer.inner().inner().journal()),
            journaled(bare.journal())
        );
        cached_journal
            .verify()
            .map_err(|e| TestCaseError::fail(e.to_string()))?;

        // Pipelined submission: send the whole stream on one connection
        // per served stack, then reap. Arrival order == decision order, so
        // the decision sequences still match the bare sequential run
        // exactly.
        let bare2 = fleet(spec());
        let expected: Vec<_> = requests
            .iter()
            .map(|r| AdmissionService::admit(&bare2, r).unwrap())
            .collect();
        for stack in [
            Arc::new(Cached::new(Metered::new(fleet(spec())), 8))
                as Arc<dyn AdmissionService>,
            Arc::new(Metered::new(Cached::new(fleet(spec()), 8))),
        ] {
            let server = RemoteServer::bind(&"tcp:127.0.0.1:0".parse().unwrap(), stack)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let client = RemoteClient::connect(server.local_addr())
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let completions: Vec<Completion> = requests
                .iter()
                .map(|r| client.submit(r.clone()))
                .collect();
            for (completion, expected) in completions.iter().zip(&expected) {
                prop_assert_eq!(&completion.wait().unwrap(), expected);
            }
            client.close();
            server.shutdown();
        }
    }
}

proptest! {
    // Each case records, folds and then counterfactually replays real
    // admissions; twelve cases are enough to fold after a mid-run grow
    // with residents above the recorded capacity.
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The planner ≡ replayer anchor: for the IDENTICAL shape, a plan run
    // over any recorded journal reports zero flips — whatever the fleet
    // shape, routing policy or request mix was, whether every group grew
    // mid-run, and wherever a snapshot checkpoint folds the history. The
    // replay of the same folded journal is EQUIVALENT. (The replayer
    // additionally verifies exact periods; the planner's claim is outcome
    // classes and routing, which is what flips measure.)
    #[test]
    fn planner_identity_shape_never_flips(
        seed in 0u64..1_000,
        groups in 1usize..4,
        capacity in 1usize..4,
        policy_pick in 0u8..3,
        count in 20usize..70,
        grow in 0u8..2,
        fold_pick in 0usize..1_000,
    ) {
        use platform::Application;
        use runtime::{
            fold_checkpoint, run_requests, seeded_fleet_requests, FleetConfig, FleetManager,
            Journal, JournalReplayer, PlanRun, RoutingPolicy, ScaleAction,
        };
        use sdf::figure2_graphs;

        let (a, b) = figure2_graphs();
        let spec = platform::SystemSpec::builder()
            .application(Application::new("A", a).expect("valid"))
            .application(Application::new("B", b).expect("valid"))
            .mapping(platform::Mapping::by_actor_index(3))
            .build()
            .expect("valid spec");
        let policy = [
            RoutingPolicy::LeastUtilised,
            RoutingPolicy::RoundRobin,
            RoutingPolicy::Affinity,
        ][policy_pick as usize];
        let fleet = FleetManager::new(
            spec.clone(),
            FleetConfig::uniform(groups, 1, capacity, policy),
        )
        .expect("valid fleet");
        // Single-threaded seeded run: admits (with contracts/affinities),
        // releases, rebalances — all journaled deterministically — with
        // every group optionally grown by 3 after the first third.
        let mut requests = seeded_fleet_requests(&spec, groups, count, seed);
        let rest = requests.split_off(count / 3);
        run_requests(&fleet, Some(&fleet), requests, 1, None, None);
        if grow == 1 {
            for group in 0..groups {
                fleet.resize(ScaleAction::Grow { group: group as u64, capacity_per_shard: (capacity + 3) as u64 }).expect("grow decides");
            }
        }
        run_requests(&fleet, Some(&fleet), rest, 1, None, None);

        // Fold the history up to entry k into a snapshot checkpoint.
        let journal = Journal::parse(&fleet.journal().render().expect("journal renders")).expect("round-trips");
        let entries = journal.try_entries().expect("entries");
        let k = fold_pick % (entries.len() + 1);
        journal
            .install_checkpoint(fold_checkpoint(None, &entries[..k]))
            .expect("installs");

        let shape = FleetConfig::from_header(journal.header()).expect("shape");
        let report = PlanRun::new(&spec, &journal, &shape)
            .execute()
            .expect("plans");
        prop_assert_eq!(&report.flips, &vec![], "identity must not flip");
        prop_assert_eq!(report.recorded, report.hypothetical);
        prop_assert_eq!(report.events, journal.len());
        prop_assert_eq!(report.releases_skipped, 0);
        prop_assert_eq!(report.untracked_admissions, 0);
        // The counterfactual fleet ends in the recording's final state.
        prop_assert_eq!(report.residents_at_end, fleet.resident_count());

        let config = FleetConfig::from_header(journal.header()).expect("config");
        let (replay, _) = JournalReplayer::new(&spec)
            .replay(&journal, config)
            .expect("replays");
        prop_assert!(replay.is_equivalent(), "{}", replay.render());

        // The journal keeps the fold of its whole log (installing a
        // prefix's checkpoint leaves it alone), and a restart seats it:
        // the live fleet's residents on the same groups, at the same
        // capacities.
        prop_assert_eq!(journal.checkpoint(), fold_checkpoint(None, &entries));
        let recovered = FleetManager::recover(spec.clone(), journal).expect("recovers");
        prop_assert_eq!(recovered.group_count(), fleet.group_count());
        for resident in 0..entries.len() as u64 {
            prop_assert_eq!(recovered.group_of(resident).ok(), fleet.group_of(resident).ok());
        }
        for group in 0..fleet.group_count() {
            prop_assert_eq!(recovered.capacity_of(group).ok(), fleet.capacity_of(group).ok());
        }
    }

}

proptest! {
    // Each case records and splits real journals; keep the case count
    // small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Split/merge is lossless for any interleaving of client scopes: the
    // merged journal reproduces the original event order and attribution.
    #[test]
    fn journal_split_merge_roundtrip(pattern in prop::collection::vec(0u8..4, 1..40)) {
        use runtime::{ClientScope, DecisionEvent, Journal, JournalHeader};

        let journal = Journal::new(JournalHeader::default());
        for (i, &pick) in pattern.iter().enumerate() {
            let _scope = match pick {
                0 => Some(ClientScope::enter("alpha")),
                1 => Some(ClientScope::enter("beta")),
                2 => Some(ClientScope::enter("gamma")),
                _ => None,
            };
            journal.append(DecisionEvent::Release { resident: i as u64 });
        }
        let parts = journal
            .split_by_client()
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let mut sizes = 0usize;
        for (_, part) in &parts {
            part.verify().map_err(|e| TestCaseError::fail(e.to_string()))?;
            sizes += part.len();
        }
        prop_assert_eq!(sizes, journal.len());
        // Fold the parts back together pairwise.
        let mut merged = Journal::parse(&parts[0].1.render().expect("journal renders"))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        for (_, part) in &parts[1..] {
            merged = Journal::merge(&merged, part)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        merged.verify().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(journaled(&merged), journaled(&journal));
        let clients = |j: &Journal| -> Vec<Option<String>> {
            j.try_entries().expect("journal reads").iter().map(|e| e.client.clone()).collect()
        };
        prop_assert_eq!(clients(&merged), clients(&journal));
    }

    // The same losslessness holds when the recording lives in a segmented
    // WAL: tiny segments force rotation every three appends, so the
    // per-client split and the pairwise re-merge both cross segment
    // boundaries — and a reopen from disk sees the identical journal.
    #[test]
    fn wal_journal_split_merge_roundtrip(pattern in prop::collection::vec(0u8..4, 1..40)) {
        use runtime::{ClientScope, DecisionEvent, FsyncPolicy, Journal, JournalHeader, WalConfig};

        let config = WalConfig {
            segment_max_entries: 3,
            fsync: FsyncPolicy::OnRotate,
            keep_snapshots: 1,
        };
        let dir = std::env::temp_dir().join(format!(
            "probcon-prop-wal-{}-{}",
            std::process::id(),
            pattern.iter().map(u8::to_string).collect::<String>(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = Journal::create_wal(&dir, JournalHeader::default(), config)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        for (i, &pick) in pattern.iter().enumerate() {
            let _scope = match pick {
                0 => Some(ClientScope::enter("alpha")),
                1 => Some(ClientScope::enter("beta")),
                2 => Some(ClientScope::enter("gamma")),
                _ => None,
            };
            journal.append(DecisionEvent::Release { resident: i as u64 });
        }
        journal.sync().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(journal.io_errors(), 0);
        drop(journal);

        let (journal, recovery) = Journal::open_wal(&dir, config)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(recovery.truncated_bytes, 0);
        // Rotation fires on the third append: the active segment holds
        // the remainder.
        prop_assert_eq!(recovery.recovered_entries as usize, pattern.len() % 3);
        prop_assert_eq!(journal.len(), pattern.len());
        journal.verify().map_err(|e| TestCaseError::fail(e.to_string()))?;

        let parts = journal
            .split_by_client()
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let mut merged = Journal::parse(&parts[0].1.render().expect("journal renders"))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        for (_, part) in &parts[1..] {
            merged = Journal::merge(&merged, part)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        merged.verify().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(journaled(&merged), journaled(&journal));
        let clients = |j: &Journal| -> Vec<Option<String>> {
            j.try_entries().expect("journal reads").iter().map(|e| e.client.clone()).collect()
        };
        prop_assert_eq!(clients(&merged), clients(&journal));
        // (Render equality is NOT expected: split stamps each entry's
        // origin_seq provenance and merge preserves it.)
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    // The autoscaler's hysteresis contract: under constant load — the
    // same observation every tick — the controller never flaps. Whatever
    // the band, streak thresholds and cooldown, (a) two actions are
    // always separated by strictly more than `cooldown` ticks, and
    // (b) every action fired points the same direction (a constant
    // breach can only ever argue for one of grow/shrink).
    #[test]
    fn autoscaler_never_flaps_within_one_cooldown_under_constant_load(
        utilisation_millis in 0u64..=1000,
        low_millis in 0u64..=1000,
        band_millis in 0u64..=1000,
        grow_after in 1u32..5,
        shrink_after in 1u32..5,
        cooldown in 0u32..10,
        step in 1u64..4,
    ) {
        use runtime::{
            evaluate, ControllerState, GroupObservation, Observation, ScaleAction, TargetPolicy,
        };

        let policy = TargetPolicy {
            low: low_millis as f64 / 1000.0,
            high: (low_millis + band_millis).min(1000) as f64 / 1000.0,
            grow_after,
            shrink_after,
            cooldown,
            min_capacity_per_shard: 1,
            max_capacity_per_shard: 32,
            step,
            add_group_at_max: true,
            drain_at_min: true,
        }
        .normalized();
        // Constant load: the controller sees the identical sample every
        // tick (capacity 8 sits strictly between the bounds, so both a
        // grow and a shrink are always *available* — only hysteresis
        // stands between the controller and flapping).
        let observation = Observation {
            groups: vec![
                GroupObservation {
                    group: 0,
                    residents: 4,
                    capacity: 8,
                    capacity_per_shard: 8,
                    shards: 1,
                    retired: false,
                },
                GroupObservation {
                    group: 1,
                    residents: 4,
                    capacity: 8,
                    capacity_per_shard: 8,
                    shards: 1,
                    retired: false,
                },
            ],
            utilisation: utilisation_millis as f64 / 1000.0,
        };

        let mut state = ControllerState::default();
        let mut fired: Vec<(u32, bool)> = Vec::new();
        for tick in 0..64u32 {
            if let Some(action) = evaluate(&policy, &observation, &mut state) {
                let is_grow = matches!(
                    action,
                    ScaleAction::Grow { .. } | ScaleAction::AddGroup { .. }
                );
                fired.push((tick, is_grow));
                state.acted(policy.cooldown);
            }
        }

        for pair in fired.windows(2) {
            let (prev, next) = (pair[0], pair[1]);
            prop_assert!(
                next.0 - prev.0 > policy.cooldown,
                "actions at ticks {} and {} violate cooldown {}",
                prev.0,
                next.0,
                policy.cooldown,
            );
            prop_assert_eq!(
                prev.1,
                next.1,
                "constant load flapped: {} then {}",
                if prev.1 { "grow" } else { "shrink" },
                if next.1 { "grow" } else { "shrink" },
            );
        }
    }
}

/// Applications for the admission lockstep: small generated graphs (3–4
/// actors, repetition ≤ 2), so a case of a dozen admissions stays cheap in
/// a debug build.
fn lockstep_apps() -> Vec<platform::Application> {
    let config = sdf::GeneratorConfig {
        min_actors: 3,
        max_actors: 4,
        min_repetition: 1,
        max_repetition: 2,
        min_execution_time: 5,
        max_execution_time: 40,
        extra_channel_fraction: 0.3,
    };
    (0..6)
        .map(|seed| {
            platform::Application::new(format!("g{seed}"), sdf::generate_graph(&config, seed))
                .expect("generated graphs are analysable")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // `decide` is `admit` without the contract-free residents' periods:
    // two controllers fed the same admit/remove stream, one through each
    // entry, reach the same decisions, ids, violations and mixes, and the
    // candidate's period is the one `admit` reports for it.
    #[test]
    fn decide_and_admit_decide_alike_in_lockstep(
        ops in prop::collection::vec((0u8..10, 0usize..6, 0usize..3, 0u8..8), 1..14),
    ) {
        use contention::{AdmissionController, AdmissionOutcome, Decision, KernelCounters};
        use platform::{AppId, NodeId};
        use std::collections::BTreeMap;

        let apps = lockstep_apps();
        let mut by_admit = AdmissionController::new();
        let mut by_decide = AdmissionController::new();
        let mut contracts: BTreeMap<AppId, Rational> = BTreeMap::new();
        let mut expect_admit = KernelCounters::default();
        let mut expect_decide = KernelCounters::default();
        for (roll, pick, offset, tightness) in ops {
            let residents: Vec<AppId> = by_admit.resident_ids().collect();
            if roll >= 7 {
                if !residents.is_empty() {
                    let id = residents[pick % residents.len()];
                    by_admit.remove(id).expect("resident");
                    by_decide.remove(id).expect("resident");
                    contracts.remove(&id);
                }
                continue;
            }
            let app = &apps[pick];
            // Actor i on node (i + offset) mod 3: the apps share nodes.
            let assignment: Vec<NodeId> = (0..app.graph().actor_count())
                .map(|i| NodeId((i + offset) % 3))
                .collect();
            // No contract, or 60–100% of the isolation throughput (never
            // above it, so every admit reaches the analysis).
            let contract = (tightness >= 3).then(|| {
                app.isolation_throughput() * Rational::new(i128::from(tightness) + 3, 10)
            });
            let holders = contracts.len() as u64;
            let free = residents.len() as u64 - holders;

            let outcome = by_admit.admit(app.clone(), &assignment, contract).expect("analyses");
            let decision = by_decide.decide(app.clone(), &assignment, contract).expect("analyses");
            expect_decide.period_analyses += 1 + holders;
            expect_decide.contract_free_skipped += free;
            expect_admit.period_analyses += 1 + holders;
            match (outcome, decision) {
                (
                    AdmissionOutcome::Admitted { id, predicted_periods },
                    Decision::Admitted { id: decided_id, predicted_period },
                ) => {
                    prop_assert_eq!(id, decided_id);
                    prop_assert_eq!(predicted_periods.get(&id), Some(&predicted_period));
                    expect_admit.period_analyses += free;
                    // admit reports every resident, each as it now reads;
                    // every contract, the new one included, holds.
                    if let Some(required) = contract {
                        contracts.insert(id, required);
                    }
                    prop_assert_eq!(
                        predicted_periods.keys().copied().collect::<Vec<_>>(),
                        by_admit.resident_ids().collect::<Vec<_>>()
                    );
                    for (&resident, &period) in &predicted_periods {
                        prop_assert_eq!(by_admit.predicted_period(resident), Ok(period));
                        prop_assert_eq!(by_decide.predicted_period(resident), Ok(period));
                        if let Some(required) = contracts.get(&resident) {
                            prop_assert!(period.recip() >= *required, "{} breaks its contract", resident);
                        }
                    }
                }
                (
                    AdmissionOutcome::Rejected { violations },
                    Decision::Rejected { violations: decided },
                ) => {
                    prop_assert!(!violations.is_empty());
                    prop_assert_eq!(violations, decided);
                    expect_admit.contract_free_skipped += free;
                }
                (outcome, decision) => {
                    return Err(TestCaseError::fail(format!(
                        "admit gave {outcome}, decide gave {decision:?}"
                    )));
                }
            }
            prop_assert_eq!(
                by_admit.resident_ids().collect::<Vec<_>>(),
                by_decide.resident_ids().collect::<Vec<_>>()
            );
            for node in 0..3 {
                prop_assert_eq!(by_admit.node_load(NodeId(node)), by_decide.node_load(NodeId(node)));
            }
        }
        prop_assert_eq!(by_admit.kernel_counters(), expect_admit);
        prop_assert_eq!(by_decide.kernel_counters(), expect_decide);
    }

    // The trusted exploration `Application::period_with_times` runs equals
    // the checked analysis of the inflated graph copy.
    #[test]
    fn application_period_with_times_matches_the_checked_analysis(
        pick in 0usize..6,
        waits in prop::collection::vec(0i128..=50 * 2520 * 2520, 4..5),
    ) {
        let app = &lockstep_apps()[pick];
        let graph = app.graph();
        let times: Vec<Rational> = graph
            .actor_ids()
            .zip(&waits)
            .map(|(a, &w)| graph.execution_time(a) + Rational::new(w, 2520 * 2520))
            .collect();
        let checked = sdf::analyze_period(&graph.with_execution_times(&times))
            .expect("analyzes")
            .period;
        prop_assert_eq!(app.period_with_times(&times), Ok(checked));
    }
}

#[test]
fn use_case_roundtrip_mask() {
    use platform::{AppId, UseCase};
    for mask in 1u64..512 {
        let uc = UseCase::from_mask(mask);
        let rebuilt = UseCase::of(&uc.app_ids().collect::<Vec<AppId>>());
        assert_eq!(uc, rebuilt);
        assert_eq!(uc.len(), mask.count_ones() as usize);
    }
}
