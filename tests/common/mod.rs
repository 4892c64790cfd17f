//! Helpers shared by the integration tests.

/// Every decision `journal` holds.
pub fn journaled(journal: &runtime::Journal) -> Vec<runtime::DecisionEvent> {
    journal
        .try_entries()
        .expect("journal reads")
        .into_iter()
        .map(|e| e.event)
        .collect()
}
