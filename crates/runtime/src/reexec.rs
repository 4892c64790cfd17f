//! The one journal re-execution engine behind
//! [`JournalReplayer`](crate::JournalReplayer) and
//! [`PlanRun`](crate::PlanRun).
//!
//! A [`Reexecutor`] restores a journal's base checkpoint through
//! [`FleetManager::restore`], keeps the recorded → live resident-id map,
//! and answers each recorded event it is handed with the event the live
//! fleet journals for it, in recorded ids — or with why it could not
//! re-drive the event. Callers pick the events and judge the (recorded,
//! replayed) pairs: replay calls every unequal pair a divergence, plan
//! sorts the pairs into flips.

use crate::fleet::{FleetError, FleetManager, Restored};
use crate::journal::{DecisionEvent, JournalOutcome, ScaleOutcome, ScaleRefusal};
use crate::planner::RouteMode;
use crate::service::{AdmissionDecision, AdmissionRequest, AdmissionService, ServiceError};
use crate::wal::FleetCheckpoint;
use std::collections::HashMap;

/// Why a recorded event could not be re-driven.
#[derive(Debug)]
pub(crate) enum Undriven {
    /// A release or rebalance named a recorded resident with no live
    /// counterpart.
    UnknownResident(u64),
    /// The fleet refused a move (an absent target group included) or
    /// failed a resize.
    Fleet(FleetError),
    /// The service failed an admission or a release.
    Service(ServiceError),
}

/// Re-drives one journal's events through one fleet (see the
/// [module docs](self)).
pub(crate) struct Reexecutor<'f> {
    fleet: &'f FleetManager,
    /// [`RouteMode::Replan`] decides every admission by policy; any other
    /// mode targets the recorded group when the fleet has it.
    routing: RouteMode,
    /// Recorded resident id -> live resident id.
    live: HashMap<u64, u64>,
}

impl<'f> Reexecutor<'f> {
    pub(crate) fn new(fleet: &'f FleetManager, routing: RouteMode) -> Reexecutor<'f> {
        Reexecutor {
            fleet,
            routing,
            live: HashMap::new(),
        }
    }

    /// Restores `checkpoint` into the fleet, mapping every seated resident
    /// to itself (a restore keeps the recorded id), and returns each
    /// resident's result in admission order: whether a failure is fatal
    /// is the caller's rule. Fails as [`FleetManager::restore`] does.
    pub(crate) fn restore<'c>(
        &mut self,
        checkpoint: &'c FleetCheckpoint,
    ) -> Result<Restored<'c>, FleetError> {
        let results = self.fleet.restore(checkpoint)?;
        for (resident, _) in results.iter().filter(|(_, seated)| seated.is_ok()) {
            self.live.insert(resident.resident, resident.resident);
        }
        Ok(results)
    }

    /// Re-drives one recorded event and returns the event the fleet
    /// journaled for it, with resident ids mapped back to the recording's.
    /// An admission the recording denied keeps its live id: nothing
    /// recorded names it.
    pub(crate) fn drive(&mut self, event: &DecisionEvent) -> Result<DecisionEvent, Undriven> {
        match event {
            DecisionEvent::Admit {
                group,
                app_index,
                required_throughput,
                outcome,
                affinity,
            } => {
                let recorded_group = *group as usize;
                let request = AdmissionRequest {
                    app_index: *app_index as usize,
                    required_throughput: *required_throughput,
                    affinity: affinity.clone(),
                    target: (self.routing != RouteMode::Replan
                        && recorded_group < self.fleet.group_count())
                    .then_some(recorded_group),
                    span: None,
                };
                let decision =
                    AdmissionService::admit(self.fleet, &request).map_err(Undriven::Service)?;
                let replayed = match &decision {
                    AdmissionDecision::Admitted {
                        resident,
                        predicted_period,
                        ..
                    } => {
                        let resident = match outcome {
                            JournalOutcome::Admitted {
                                resident: recorded, ..
                            } => {
                                self.live.insert(*recorded, *resident);
                                *recorded
                            }
                            _ => *resident,
                        };
                        JournalOutcome::Admitted {
                            resident,
                            predicted_period: *predicted_period,
                        }
                    }
                    AdmissionDecision::Rejected { violations, .. } => JournalOutcome::Rejected {
                        violations: violations.len() as u64,
                    },
                    AdmissionDecision::Saturated { .. } => JournalOutcome::Saturated,
                };
                Ok(DecisionEvent::Admit {
                    group: decision.domain() as u64,
                    app_index: *app_index,
                    required_throughput: *required_throughput,
                    outcome: replayed,
                    affinity: affinity.clone(),
                })
            }
            DecisionEvent::Release { resident } => {
                let id = self
                    .live
                    .remove(resident)
                    .ok_or(Undriven::UnknownResident(*resident))?;
                self.fleet.release(id).map_err(Undriven::Service)?;
                Ok(event.clone())
            }
            DecisionEvent::Rebalance {
                resident, to_group, ..
            } => {
                let id = *self
                    .live
                    .get(resident)
                    .ok_or(Undriven::UnknownResident(*resident))?;
                // The observed source group is part of the decision:
                // drifted state may host the resident elsewhere.
                let from_group = self.fleet.group_of(id).map_err(Undriven::Fleet)? as u64;
                let moved = self.fleet.move_resident(id, *to_group as usize);
                Ok(DecisionEvent::Rebalance {
                    resident: *resident,
                    from_group,
                    to_group: *to_group,
                    predicted_period: moved.map_err(Undriven::Fleet)?,
                })
            }
            // Applied or refused, a resize is a function of the resident
            // mix the replayed prefix rebuilt. A recorded drain's moves
            // precede it as Rebalance entries, so it finds its group empty.
            DecisionEvent::Resize { action, .. } => {
                let mut outcome = self.fleet.resize(action.clone()).map_err(Undriven::Fleet)?;
                if let ScaleOutcome::Refused {
                    reason: ScaleRefusal::Unplaceable { resident },
                } = &mut outcome
                {
                    // The refusal names a live id; the recording names its own.
                    if let Some((&recorded, _)) = self.live.iter().find(|(_, &id)| id == *resident)
                    {
                        *resident = recorded;
                    }
                }
                Ok(DecisionEvent::Resize {
                    action: action.clone(),
                    outcome,
                })
            }
        }
    }
}
