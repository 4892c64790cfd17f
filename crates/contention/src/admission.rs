//! Run-time admission control (the paper's Section 6 application).
//!
//! "Since the approach is fast, it is feasible to employ this technique for
//! run-time admission control. … The application, for example, can be
//! admitted only if its expected throughput is above the desired
//! throughput."
//!
//! [`AdmissionController`] keeps one [`Composite`] per processing node.
//! Admitting an application *composes* its actors onto their nodes in
//! `O(actors)` (Equations 6/7); removing one *decomposes* them with the
//! inverse operators (Equations 8/9) — no re-analysis of the resident
//! applications is ever needed, which is the paper's complexity argument for
//! the composability approach (`O(n)` incremental vs `O(n²)` recompute).
//!
//! # What an admission analyses
//!
//! A decision reads the predicted periods of the candidate and of the
//! residents that hold a throughput contract, and nothing else. Both entry
//! points run one evaluation that analyses exactly those first (one
//! state-space exploration each, through
//! [`Application::period_with_times`]).
//! [`decide`](AdmissionController::decide) stops there and returns the
//! candidate's period. [`admit`](AdmissionController::admit) also reports
//! every resident's period, so when it admits it then analyses the
//! contract-free residents too; when it rejects, it skips them.
//! [`kernel_counters`](AdmissionController::kernel_counters) counts the
//! analyses run and the contract-free residents skipped.
//!
//! # Examples
//!
//! ```
//! use contention::AdmissionController;
//! use platform::{Application, Mapping, NodeId};
//! use sdf::{figure2_graphs, Rational};
//!
//! let (a, b) = figure2_graphs();
//! let mut ctrl = AdmissionController::new();
//!
//! // Admit A unconditionally, then B only if every resident application
//! // keeps a throughput of at least 1/400.
//! let id_a = ctrl.admit(
//!     Application::new("A", a)?,
//!     &[NodeId(0), NodeId(1), NodeId(2)],
//!     None,
//! )?.admitted_id().expect("first application always fits");
//!
//! let outcome = ctrl.admit(
//!     Application::new("B", b)?,
//!     &[NodeId(0), NodeId(1), NodeId(2)],
//!     Some(Rational::new(1, 400)),
//! )?;
//! assert!(outcome.admitted_id().is_some()); // predicted period ≈ 358.3 < 400
//!
//! ctrl.remove(id_a)?;
//! assert_eq!(ctrl.resident_count(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Rejections versus errors
//!
//! [`AdmissionController::admit`] and [`AdmissionController::decide`] draw
//! a hard line between the two:
//! *admission decisions* — including a candidate that violates **its own**
//! requirement, or one whose requirement exceeds even its isolation
//! throughput — come back as `Ok(Rejected { .. })` with
//! the violated contracts listed; `Err(ContentionError)` is reserved for
//! *analysis failures* (malformed loads, saturated inverses, period
//! divergence) where no admission decision could be computed at all.
//!
//! # Concurrency
//!
//! The controller itself is single-threaded state (`&mut self` on
//! [`admit`](AdmissionController::admit) /
//! [`remove`](AdmissionController::remove)); it is `Send + Sync` and
//! `Clone`, so concurrent front-ends wrap it in their own locking and take
//! cheap snapshots for read-only analysis. The `runtime` crate's
//! `FleetManager` does exactly that: each platform group holds one
//! controller per shard behind a mutex and answers every request at once
//! through [`decide`](AdmissionController::decide) (admit, reject on a
//! violated contract, or saturate when the shard is full, without running
//! the controller) — the "run-time manager" deployment the paper's
//! conclusions sketch.

use crate::compose::Composite;
use crate::load::ActorLoad;
use crate::ContentionError;
use platform::{AppId, Application, NodeId};
use sdf::Rational;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A throughput violation that caused a rejection.
///
/// Serializable so rejections can cross process boundaries intact (the
/// `runtime::remote` wire protocol ships the full violation list, not just
/// a count).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// The application whose requirement would be violated (`None`
    /// identifies the candidate application itself).
    pub app: Option<AppId>,
    /// Required minimum throughput.
    pub required: Rational,
    /// Throughput predicted if the candidate were admitted.
    pub predicted: Rational,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.app {
            Some(a) => write!(
                f,
                "{a}: predicted throughput {} < required {}",
                self.predicted, self.required
            ),
            None => write!(
                f,
                "candidate: predicted throughput {} < required {}",
                self.predicted, self.required
            ),
        }
    }
}

/// Outcome of an admission attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// The application was admitted under the returned id; the map holds the
    /// predicted period of every resident application (including the new
    /// one).
    Admitted {
        /// Id assigned to the admitted application.
        id: AppId,
        /// Predicted period per resident application.
        predicted_periods: BTreeMap<AppId, Rational>,
    },
    /// The application was rejected; the controller state is unchanged.
    Rejected {
        /// Every violated throughput requirement.
        violations: Vec<Violation>,
    },
}

impl fmt::Display for AdmissionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionOutcome::Admitted {
                id,
                predicted_periods,
            } => {
                write!(f, "admitted as {id}")?;
                if let Some(period) = predicted_periods.get(id) {
                    write!(f, " (predicted period {period})")?;
                }
                Ok(())
            }
            AdmissionOutcome::Rejected { violations } => {
                write!(f, "rejected: ")?;
                for (i, v) in violations.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{v}")?;
                }
                Ok(())
            }
        }
    }
}

impl AdmissionOutcome {
    /// The assigned id, if admitted.
    pub fn admitted_id(&self) -> Option<AppId> {
        match self {
            AdmissionOutcome::Admitted { id, .. } => Some(*id),
            AdmissionOutcome::Rejected { .. } => None,
        }
    }
}

/// What [`AdmissionController::decide`] concluded: the decision and the
/// candidate's period, without the periods of the residents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// The application was admitted under `id`.
    Admitted {
        /// Id assigned to the admitted application.
        id: AppId,
        /// The admitted application's predicted period under the new mix.
        predicted_period: Rational,
    },
    /// The application was rejected; the controller state is unchanged.
    Rejected {
        /// Every violated throughput requirement.
        violations: Vec<Violation>,
    },
}

/// What a controller's admissions have cost so far, counted over every
/// [`admit`](AdmissionController::admit) and
/// [`decide`](AdmissionController::decide) since it was created.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelCounters {
    /// Period analyses run: one state-space exploration each.
    pub period_analyses: u64,
    /// Contract-free residents whose analysis an evaluation skipped,
    /// because its output did not need their period.
    pub contract_free_skipped: u64,
}

impl std::iter::Sum for KernelCounters {
    fn sum<I: Iterator<Item = KernelCounters>>(iter: I) -> KernelCounters {
        iter.fold(KernelCounters::default(), |a, b| KernelCounters {
            period_analyses: a.period_analyses + b.period_analyses,
            contract_free_skipped: a.contract_free_skipped + b.contract_free_skipped,
        })
    }
}

#[derive(Clone)]
struct Resident {
    app: Application,
    assignment: Vec<NodeId>,
    loads: Vec<ActorLoad>,
    required_throughput: Option<Rational>,
}

impl fmt::Debug for Resident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Resident")
            .field("app", &self.app.name())
            .field("assignment", &self.assignment)
            .finish_non_exhaustive()
    }
}

/// Incremental admission controller over the composability algebra.
///
/// The fast path extracts every actor's "others" from the per-node
/// [`Composite`] with the inverse operators (`O(1)` per actor). When a
/// co-resident load saturates its node (`P = 1` — Equation 8's excluded
/// case) the controller falls back to re-folding the node's member list
/// without the actor (`O(n)`), exactly like the estimator does.
///
/// The controller is `Clone`: a clone is an independent snapshot of the
/// whole resident mix (cheap — composites are `Copy`, member lists are
/// small), which concurrent front-ends use for lock-free read-only
/// analysis. See the [module documentation](self) for an end-to-end
/// example and the rejection-versus-error contract.
#[derive(Debug, Default, Clone)]
pub struct AdmissionController {
    nodes: BTreeMap<NodeId, Composite>,
    /// Per-node member loads, for the saturated-inverse fallback.
    members: BTreeMap<NodeId, Vec<(AppId, ActorLoad)>>,
    residents: BTreeMap<AppId, Resident>,
    next_id: usize,
    counters: KernelCounters,
}

impl AdmissionController {
    /// Creates an empty controller.
    pub fn new() -> AdmissionController {
        AdmissionController::default()
    }

    /// Analyses run and contract-free residents skipped by this
    /// controller's admissions so far (see [`KernelCounters`]).
    /// [`predicted_period`](Self::predicted_period) is a read and is not
    /// counted.
    pub fn kernel_counters(&self) -> KernelCounters {
        self.counters
    }

    /// Number of currently resident applications.
    pub fn resident_count(&self) -> usize {
        self.residents.len()
    }

    /// Ids of the resident applications.
    pub fn resident_ids(&self) -> impl Iterator<Item = AppId> + '_ {
        self.residents.keys().copied()
    }

    /// The composite load currently on `node`.
    pub fn node_load(&self, node: NodeId) -> Composite {
        self.nodes.get(&node).copied().unwrap_or_default()
    }

    /// Attempts to admit `app`, mapping actor `i` onto `assignment[i]`.
    ///
    /// The candidate (with optional `required_throughput`) is admitted iff
    /// the predicted throughput of *every* resident application with a
    /// requirement — and of the candidate itself — stays at or above its
    /// requirement. On rejection the controller is left untouched.
    ///
    /// An admission reports the predicted period of every resident
    /// application (including the new one), so after the decision it also
    /// analyses the residents without a requirement. A rejection reports
    /// only the violations and skips those residents. Callers that need
    /// only the candidate's period use [`decide`](Self::decide).
    ///
    /// A candidate that cannot satisfy its own requirement — even one whose
    /// requirement exceeds its *isolation* throughput, which no admission
    /// decision could ever meet — is **rejected** (`Ok(Rejected)` with the
    /// candidate violation, `app: None`), never an error: an unsatisfiable
    /// contract is an admission decision, not an analysis failure.
    ///
    /// # Errors
    ///
    /// * panics are never used for admission decisions; hard failures
    ///   (period analysis divergence, saturated inverse) in any analysis
    ///   the call runs surface as [`ContentionError`], and nothing is
    ///   admitted.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len()` differs from the actor count of `app`.
    pub fn admit(
        &mut self,
        app: Application,
        assignment: &[NodeId],
        required_throughput: Option<Rational>,
    ) -> Result<AdmissionOutcome, ContentionError> {
        let mut predicted_periods = BTreeMap::new();
        let decision = self.evaluate(
            app,
            assignment,
            required_throughput,
            Some(&mut predicted_periods),
        )?;
        Ok(match decision {
            Decision::Admitted { id, .. } => AdmissionOutcome::Admitted {
                id,
                predicted_periods,
            },
            Decision::Rejected { violations } => AdmissionOutcome::Rejected { violations },
        })
    }

    /// Decides the admission of `app` exactly as [`admit`](Self::admit)
    /// does — the same decision, id and violations, and the same resident
    /// mix afterwards — but analyses only what the decision reads: the
    /// candidate and the residents with a requirement. It returns the
    /// candidate's predicted period in place of every resident's.
    ///
    /// # Errors
    ///
    /// A hard failure in one of the analyses the decision reads surfaces
    /// as [`ContentionError`], and nothing is admitted. A contract-free
    /// resident is never analysed here, so a failure in its analysis
    /// cannot fail this call: that period could not change the decision.
    /// `admit`, which analyses such a resident once it has decided to
    /// admit, returns that error instead.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len()` differs from the actor count of `app`.
    pub fn decide(
        &mut self,
        app: Application,
        assignment: &[NodeId],
        required_throughput: Option<Rational>,
    ) -> Result<Decision, ContentionError> {
        self.evaluate(app, assignment, required_throughput, None)
    }

    /// The one evaluation behind [`admit`](Self::admit) and
    /// [`decide`](Self::decide). It analyses the contract holders and the
    /// candidate, decides, and — only for an admission that asked for
    /// `every_period` — analyses the contract-free residents as well,
    /// filling `every_period` with every resident's period before the
    /// commit.
    fn evaluate(
        &mut self,
        app: Application,
        assignment: &[NodeId],
        required_throughput: Option<Rational>,
        mut every_period: Option<&mut BTreeMap<AppId, Rational>>,
    ) -> Result<Decision, ContentionError> {
        assert_eq!(
            assignment.len(),
            app.graph().actor_count(),
            "one node per actor required"
        );

        // Fast reject: a requirement above the candidate's isolation
        // throughput is unsatisfiable under any mix — report the decision
        // without composing anything.
        if let Some(required) = required_throughput {
            let isolation = app.isolation_period().recip();
            if isolation < required {
                return Ok(Decision::Rejected {
                    violations: vec![Violation {
                        app: None,
                        required,
                        predicted: isolation,
                    }],
                });
            }
        }

        // Candidate loads at its isolation period (the paper's single-pass
        // probabilities).
        let per = app.isolation_period();
        let mut loads = Vec::with_capacity(assignment.len());
        for actor in app.graph().actor_ids() {
            let tau = app.graph().execution_time(actor);
            let q = app.repetition_vector().get(actor);
            // Same quantisation as the estimator: bounds denominator growth
            // across arbitrarily many compose/decompose cycles.
            loads.push(
                ActorLoad::from_constant_time(tau, q, per)?
                    .quantized(crate::estimator::PROBABILITY_GRID)?,
            );
        }

        // Tentatively compose onto the nodes (cheap, and trivially
        // reversible because we keep the old composites).
        let candidate_id = AppId(self.next_id);
        let mut new_nodes = self.nodes.clone();
        let mut new_members = self.members.clone();
        for (node, load) in assignment.iter().zip(&loads) {
            let entry = new_nodes.entry(*node).or_default();
            *entry = entry.compose(Composite::from_actor(*load));
            new_members
                .entry(*node)
                .or_default()
                .push((candidate_id, *load));
        }

        let analyses = &mut self.counters.period_analyses;
        let mut period_of =
            |owner: AppId, app: &Application, assignment: &[NodeId], loads: &[ActorLoad]| {
                *analyses += 1;
                predict_period(app, owner, assignment, loads, &new_nodes, &new_members)
            };

        // The decision's inputs: every contract holder, then the candidate.
        let mut violations = Vec::new();
        for (&id, r) in &self.residents {
            let Some(required) = r.required_throughput else {
                continue;
            };
            let period = period_of(id, &r.app, &r.assignment, &r.loads)?;
            violations.extend(violation(Some(id), required, period));
            if let Some(periods) = every_period.as_deref_mut() {
                periods.insert(id, period);
            }
        }
        let candidate_period = period_of(candidate_id, &app, assignment, &loads)?;
        if let Some(required) = required_throughput {
            violations.extend(violation(None, required, candidate_period));
        }

        // Contract-free residents cannot move the decision: analyse them
        // only for an admission that reports every period.
        let contract_free = self
            .residents
            .iter()
            .filter(|(_, r)| r.required_throughput.is_none());
        match every_period.as_deref_mut() {
            Some(periods) if violations.is_empty() => {
                for (&id, r) in contract_free {
                    periods.insert(id, period_of(id, &r.app, &r.assignment, &r.loads)?);
                }
            }
            _ => self.counters.contract_free_skipped += contract_free.count() as u64,
        }

        if !violations.is_empty() {
            return Ok(Decision::Rejected { violations });
        }

        // Commit.
        self.nodes = new_nodes;
        self.members = new_members;
        self.next_id += 1;
        self.residents.insert(
            candidate_id,
            Resident {
                app,
                assignment: assignment.to_vec(),
                loads,
                required_throughput,
            },
        );
        if let Some(periods) = every_period {
            periods.insert(candidate_id, candidate_period);
        }
        Ok(Decision::Admitted {
            id: candidate_id,
            predicted_period: candidate_period,
        })
    }

    /// Removes a resident application, re-folding each touched node's
    /// composite from its exact member list (`O(members per node)`).
    ///
    /// The paper's `O(1)` inverse operators (Equation 8) remain the *read*
    /// path — see period prediction — but they are **not** used to mutate
    /// controller state: [`Composite::compose`] snaps to a lattice, which
    /// makes `decompose` an approximate inverse, and the per-cycle residue
    /// used to accumulate monotonically across admit/release cycles until
    /// blocking probabilities crossed 1 and period prediction failed on a
    /// long-running controller (after a few hundred cycles). Re-folding
    /// keeps the error of a node's composite bounded by one fold, however
    /// long the controller runs; an emptied node is exactly empty.
    ///
    /// # Errors
    ///
    /// * [`ContentionError::UnknownApplication`] if `id` is not resident.
    pub fn remove(&mut self, id: AppId) -> Result<(), ContentionError> {
        let resident = self
            .residents
            .get(&id)
            .ok_or(ContentionError::UnknownApplication(id))?;
        for (node, load) in resident.assignment.iter().zip(&resident.loads) {
            let list = self.members.entry(*node).or_default();
            if let Some(pos) = list.iter().position(|(a, l)| *a == id && l == load) {
                list.remove(pos);
            }
            let refolded = Composite::from_actors(list.iter().map(|(_, l)| *l));
            self.nodes.insert(*node, refolded);
        }
        self.residents.remove(&id);
        Ok(())
    }

    /// Predicted period of a resident application under the current mix.
    ///
    /// # Errors
    ///
    /// * [`ContentionError::UnknownApplication`] if `id` is not resident.
    pub fn predicted_period(&self, id: AppId) -> Result<Rational, ContentionError> {
        let resident = self
            .residents
            .get(&id)
            .ok_or(ContentionError::UnknownApplication(id))?;
        predict_period(
            &resident.app,
            id,
            &resident.assignment,
            &resident.loads,
            &self.nodes,
            &self.members,
        )
    }
}

/// The violation of `required` by an application predicted to run at
/// `period`, if its throughput falls short.
fn violation(app: Option<AppId>, required: Rational, period: Rational) -> Option<Violation> {
    let predicted = period.recip();
    (predicted < required).then_some(Violation {
        app,
        required,
        predicted,
    })
}

/// Period of `app` when its actors see `nodes` (which *includes* their own
/// contribution — removed via the inverse per actor, or by re-folding the
/// node's member list when a saturating load blocks the inverse).
fn predict_period(
    app: &Application,
    owner: AppId,
    assignment: &[NodeId],
    loads: &[ActorLoad],
    nodes: &BTreeMap<NodeId, Composite>,
    members: &BTreeMap<NodeId, Vec<(AppId, ActorLoad)>>,
) -> Result<Rational, ContentionError> {
    let mut times = Vec::with_capacity(assignment.len());
    for (actor, (node, load)) in app.graph().actor_ids().zip(assignment.iter().zip(loads)) {
        let all = nodes.get(node).copied().unwrap_or_default();
        let others = match all.decompose(Composite::from_actor(*load)) {
            Ok(rest) => rest,
            Err(ContentionError::SaturatedInverse) => {
                // O(n) fallback: fold everything on the node except one
                // occurrence of this very load.
                let list = members.get(node).map(Vec::as_slice).unwrap_or(&[]);
                let skip = list.iter().position(|(a, l)| *a == owner && l == load);
                Composite::from_actors(
                    list.iter()
                        .enumerate()
                        .filter(|(i, _)| Some(*i) != skip)
                        .map(|(_, (_, l))| *l),
                )
            }
            Err(e) => return Err(e),
        };
        let twait = others
            .expected_waiting()
            .quantize(crate::estimator::WAITING_TIME_GRID);
        times.push(app.graph().execution_time(actor) + twait);
    }
    app.period_with_times(&times)
        .map_err(ContentionError::Graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdf::figure2_graphs;

    fn apps() -> (Application, Application) {
        let (a, b) = figure2_graphs();
        (
            Application::new("A", a).unwrap(),
            Application::new("B", b).unwrap(),
        )
    }

    const N3: [NodeId; 3] = [NodeId(0), NodeId(1), NodeId(2)];

    #[test]
    fn admit_predicts_paper_period() {
        let (a, b) = apps();
        let mut ctrl = AdmissionController::new();
        let o1 = ctrl.admit(a, &N3, None).unwrap();
        assert!(o1.admitted_id().is_some());
        let o2 = ctrl.admit(b, &N3, None).unwrap();
        let AdmissionOutcome::Admitted {
            predicted_periods, ..
        } = o2
        else {
            panic!("B must be admitted");
        };
        // Composability == exact for one other actor per node: 1075/3.
        for p in predicted_periods.values() {
            assert_eq!(*p, Rational::new(1075, 3));
        }
    }

    #[test]
    fn admit_release_cycles_do_not_drift() {
        // Regression: remove() used to mutate node composites with the
        // lattice-quantized decompose inverse, whose per-cycle residue
        // accumulated until blocking probabilities crossed 1 and period
        // prediction died after a few hundred admit/release cycles. A
        // long-running controller must stay exact through arbitrarily many
        // cycles: every emptied node returns to the identity, and the
        // predicted periods never change.
        let (a, b) = apps();
        let mut ctrl = AdmissionController::new();
        let mut reference_periods = None;
        for cycle in 0..600 {
            let ida = ctrl.admit(a.clone(), &N3, None).unwrap();
            let out_b = ctrl.admit(b.clone(), &N3, None).unwrap();
            let AdmissionOutcome::Admitted {
                id: idb,
                predicted_periods,
            } = out_b
            else {
                panic!("cycle {cycle}: B must be admitted into an empty mix");
            };
            let periods: Vec<Rational> = predicted_periods.values().copied().collect();
            match &reference_periods {
                None => reference_periods = Some(periods),
                Some(reference) => {
                    assert_eq!(&periods, reference, "cycle {cycle}: predictions drifted");
                }
            }
            ctrl.remove(ida.admitted_id().unwrap()).unwrap();
            ctrl.remove(idb).unwrap();
            for node in N3 {
                assert!(
                    ctrl.node_load(node).is_identity(),
                    "cycle {cycle}: emptied node {node} kept residue {:?}",
                    ctrl.node_load(node)
                );
            }
        }
    }

    #[test]
    fn rejection_preserves_state() {
        let (a, b) = apps();
        let mut ctrl = AdmissionController::new();
        ctrl.admit(a, &N3, Some(Rational::new(1, 300))).unwrap();
        // A demands its full isolation throughput; adding B would break it.
        let out = ctrl.admit(b, &N3, None).unwrap();
        let AdmissionOutcome::Rejected { violations } = out else {
            panic!("B must be rejected");
        };
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].app, Some(AppId(0)));
        assert_eq!(ctrl.resident_count(), 1);
        // Node composites untouched by the rejected attempt.
        let p = ctrl.predicted_period(AppId(0)).unwrap();
        assert_eq!(p, Rational::integer(300));
    }

    #[test]
    fn candidate_own_requirement_checked() {
        let (a, b) = apps();
        let mut ctrl = AdmissionController::new();
        ctrl.admit(a, &N3, None).unwrap();
        let out = ctrl.admit(b, &N3, Some(Rational::new(1, 300))).unwrap();
        let AdmissionOutcome::Rejected { violations } = out else {
            panic!("candidate must be rejected by its own requirement");
        };
        assert_eq!(violations[0].app, None);
        assert!(violations[0].to_string().contains("candidate"));
    }

    #[test]
    fn remove_restores_isolation() {
        let (a, b) = apps();
        let mut ctrl = AdmissionController::new();
        let ida = ctrl.admit(a, &N3, None).unwrap().admitted_id().unwrap();
        let idb = ctrl.admit(b, &N3, None).unwrap().admitted_id().unwrap();
        assert_eq!(ctrl.predicted_period(ida).unwrap(), Rational::new(1075, 3));
        ctrl.remove(idb).unwrap();
        // With B gone, A's predicted period returns to isolation exactly
        // (the inverse is an exact round-trip).
        assert_eq!(ctrl.predicted_period(ida).unwrap(), Rational::integer(300));
        assert_eq!(ctrl.resident_ids().collect::<Vec<_>>(), vec![ida]);
    }

    #[test]
    fn remove_unknown_app() {
        let mut ctrl = AdmissionController::new();
        assert_eq!(
            ctrl.remove(AppId(3)).unwrap_err(),
            ContentionError::UnknownApplication(AppId(3))
        );
        assert_eq!(
            ctrl.predicted_period(AppId(3)).unwrap_err(),
            ContentionError::UnknownApplication(AppId(3))
        );
    }

    #[test]
    fn node_load_accumulates() {
        let (a, b) = apps();
        let mut ctrl = AdmissionController::new();
        assert!(ctrl.node_load(NodeId(0)).is_identity());
        ctrl.admit(a, &N3, None).unwrap();
        let after_a = ctrl.node_load(NodeId(0)).probability();
        assert_eq!(after_a, Rational::new(1, 3));
        ctrl.admit(b, &N3, None).unwrap();
        // P = 1/3 ⊕ 1/3 = 5/9.
        assert_eq!(ctrl.node_load(NodeId(0)).probability(), Rational::new(5, 9));
    }

    #[test]
    fn unsatisfiable_requirement_rejected_not_error() {
        let (a, _) = apps();
        let iso = a.isolation_period(); // 300
        let mut ctrl = AdmissionController::new();
        // Demands more throughput than the candidate achieves in isolation:
        // an admission decision (rejection), not an analysis error.
        let impossible = iso.recip() * Rational::new(3, 2);
        let out = ctrl.admit(a, &N3, Some(impossible)).unwrap();
        let AdmissionOutcome::Rejected { violations } = out else {
            panic!("unsatisfiable requirement must reject");
        };
        assert_eq!(violations[0].app, None);
        assert_eq!(violations[0].predicted, iso.recip());
        assert_eq!(ctrl.resident_count(), 0);
    }

    #[test]
    fn outcome_display() {
        let (a, b) = apps();
        let mut ctrl = AdmissionController::new();
        let o1 = ctrl.admit(a, &N3, Some(Rational::new(1, 300))).unwrap();
        assert!(o1.to_string().starts_with("admitted as app#0"));
        assert!(o1.to_string().contains("predicted period 300"));
        let o2 = ctrl.admit(b, &N3, None).unwrap();
        let text = o2.to_string();
        assert!(text.starts_with("rejected: "), "{text}");
        assert!(text.contains("app#0"), "{text}");
    }

    #[test]
    fn controller_is_send_sync_and_clonable() {
        fn check<T: Send + Sync + Clone>() {}
        check::<AdmissionController>();

        // A clone is an independent snapshot.
        let (a, b) = apps();
        let mut ctrl = AdmissionController::new();
        ctrl.admit(a, &N3, None).unwrap();
        let snapshot = ctrl.clone();
        ctrl.admit(b, &N3, None).unwrap();
        assert_eq!(snapshot.resident_count(), 1);
        assert_eq!(ctrl.resident_count(), 2);
        assert_eq!(
            snapshot.predicted_period(AppId(0)).unwrap(),
            Rational::integer(300)
        );
    }

    #[test]
    #[should_panic(expected = "one node per actor")]
    fn wrong_assignment_length_panics() {
        let (a, _) = apps();
        AdmissionController::new()
            .admit(a, &[NodeId(0)], None)
            .unwrap();
    }

    #[test]
    fn decide_analyses_only_what_the_decision_reads() {
        let (a, b) = apps();
        let mut by_admit = AdmissionController::new();
        let mut by_decide = AdmissionController::new();
        // A holds no contract; B asks for 1/400 (it gets ≈ 1/358).
        by_admit.admit(a.clone(), &N3, None).unwrap();
        by_decide.decide(a, &N3, None).unwrap();
        let AdmissionOutcome::Admitted {
            id,
            predicted_periods,
        } = by_admit
            .admit(b.clone(), &N3, Some(Rational::new(1, 400)))
            .unwrap()
        else {
            panic!("B fits");
        };
        let decision = by_decide
            .decide(b, &N3, Some(Rational::new(1, 400)))
            .unwrap();
        assert_eq!(
            decision,
            Decision::Admitted {
                id,
                predicted_period: Rational::new(1075, 3)
            }
        );
        // admit also analysed A to report its period; decide skipped it.
        assert_eq!(predicted_periods.len(), 2);
        assert_eq!(
            by_admit.kernel_counters(),
            KernelCounters {
                period_analyses: 3,
                contract_free_skipped: 0
            }
        );
        assert_eq!(
            by_decide.kernel_counters(),
            KernelCounters {
                period_analyses: 2,
                contract_free_skipped: 1
            }
        );
        // Both controllers hold the same mix afterwards.
        assert_eq!(
            by_admit.resident_ids().collect::<Vec<_>>(),
            by_decide.resident_ids().collect::<Vec<_>>()
        );
        for id in by_admit.resident_ids() {
            assert_eq!(
                by_admit.predicted_period(id).unwrap(),
                by_decide.predicted_period(id).unwrap()
            );
        }
    }

    #[test]
    fn a_rejecting_admit_skips_contract_free_residents() {
        let (a, b) = apps();
        let mut ctrl = AdmissionController::new();
        ctrl.admit(a, &N3, None).unwrap();
        let out = ctrl.admit(b, &N3, Some(Rational::new(1, 300))).unwrap();
        assert!(out.admitted_id().is_none());
        assert_eq!(
            ctrl.kernel_counters(),
            KernelCounters {
                period_analyses: 2,
                contract_free_skipped: 1
            }
        );
    }
}
