//! Actor-to-processor mappings.

use crate::application::AppId;
use sdf::ActorId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a processing node.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Dense index of this node.
    pub const fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(i)
    }
}

/// How actors are assigned to processing nodes.
///
/// Two forms are supported:
/// * **By actor index** (the paper's setup, Section 3.1: "actors `ai` and
///   `bi` are mapped on `Proci`"): actor `j` of any application goes to node
///   `j mod node_count`.
/// * **Explicit**: a per-`(application, actor)` table, for arbitrary
///   heterogeneous mappings.
///
/// # Examples
///
/// ```
/// use platform::{AppId, Mapping, NodeId};
/// use sdf::ActorId;
///
/// let m = Mapping::by_actor_index(3);
/// assert_eq!(m.node_of(AppId(0), ActorId(2)), NodeId(2));
/// assert_eq!(m.node_of(AppId(5), ActorId(4)), NodeId(1)); // 4 mod 3
///
/// let mut e = Mapping::explicit();
/// e.assign(AppId(0), ActorId(0), NodeId(7));
/// assert_eq!(e.node_of(AppId(0), ActorId(0)), NodeId(7));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mapping {
    /// Actor `j` of every application maps to node `j mod node_count`.
    ByActorIndex {
        /// Number of processing nodes.
        node_count: usize,
    },
    /// Explicit per-actor assignment.
    Explicit {
        /// `(application, actor) → node` table.
        table: BTreeMap<(AppId, ActorId), NodeId>,
    },
}

impl Mapping {
    /// The paper's mapping: actor `j` → node `j mod node_count`.
    ///
    /// # Panics
    ///
    /// Panics if `node_count == 0`.
    pub fn by_actor_index(node_count: usize) -> Mapping {
        assert!(node_count > 0, "a platform needs at least one node");
        Mapping::ByActorIndex { node_count }
    }

    /// An empty explicit mapping; populate with [`Mapping::assign`].
    pub fn explicit() -> Mapping {
        Mapping::Explicit {
            table: BTreeMap::new(),
        }
    }

    /// Assigns one actor to a node (explicit mappings only).
    ///
    /// # Panics
    ///
    /// Panics when called on a [`Mapping::ByActorIndex`] mapping.
    pub fn assign(&mut self, app: AppId, actor: ActorId, node: NodeId) {
        match self {
            Mapping::Explicit { table } => {
                table.insert((app, actor), node);
            }
            Mapping::ByActorIndex { .. } => {
                panic!("cannot assign individual actors in a by-actor-index mapping")
            }
        }
    }

    /// The node actor `actor` of application `app` runs on.
    ///
    /// # Panics
    ///
    /// For explicit mappings, panics if the pair was never assigned (a
    /// mapping must be total over the actors it is used with; see
    /// [`crate::SystemSpec`] which validates totality at build time).
    pub fn node_of(&self, app: AppId, actor: ActorId) -> NodeId {
        match self {
            Mapping::ByActorIndex { node_count } => NodeId(actor.index() % node_count),
            Mapping::Explicit { table } => *table
                .get(&(app, actor))
                .unwrap_or_else(|| panic!("unmapped actor: {app}/{actor}")),
        }
    }

    /// Whether the pair has an assignment (true for every pair of a
    /// [`Mapping::ByActorIndex`] with at least one node).
    pub fn is_mapped(&self, app: AppId, actor: ActorId) -> bool {
        match self {
            Mapping::ByActorIndex { node_count } => *node_count > 0,
            Mapping::Explicit { table } => table.contains_key(&(app, actor)),
        }
    }

    /// Number of nodes referenced by the mapping.
    ///
    /// For explicit mappings this is `max(node index) + 1`, or 0 when empty.
    pub fn node_count(&self) -> usize {
        match self {
            Mapping::ByActorIndex { node_count } => *node_count,
            Mapping::Explicit { table } => table
                .values()
                .map(|n| n.index().saturating_add(1))
                .max()
                .unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_index_wraps() {
        let m = Mapping::by_actor_index(4);
        assert_eq!(m.node_of(AppId(0), ActorId(0)), NodeId(0));
        assert_eq!(m.node_of(AppId(1), ActorId(5)), NodeId(1));
        assert_eq!(m.node_count(), 4);
        assert!(m.is_mapped(AppId(9), ActorId(9)));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        Mapping::by_actor_index(0);
    }

    #[test]
    fn explicit_assignment() {
        let mut m = Mapping::explicit();
        m.assign(AppId(0), ActorId(1), NodeId(2));
        m.assign(AppId(1), ActorId(0), NodeId(5));
        assert_eq!(m.node_of(AppId(1), ActorId(0)), NodeId(5));
        assert_eq!(m.node_count(), 6);
        assert!(!m.is_mapped(AppId(2), ActorId(2)));
    }

    #[test]
    fn node_count_saturates_at_the_largest_index() {
        // A decoded explicit mapping may name any index; counting nodes
        // past it must not overflow.
        let mut m = Mapping::explicit();
        m.assign(AppId(0), ActorId(0), NodeId(usize::MAX));
        assert_eq!(m.node_count(), usize::MAX);
        assert!(!Mapping::ByActorIndex { node_count: 0 }.is_mapped(AppId(0), ActorId(0)));
    }

    #[test]
    #[should_panic(expected = "unmapped actor")]
    fn unmapped_lookup_panics() {
        Mapping::explicit().node_of(AppId(0), ActorId(0));
    }

    #[test]
    #[should_panic(expected = "cannot assign")]
    fn assign_on_by_index_panics() {
        Mapping::by_actor_index(2).assign(AppId(0), ActorId(0), NodeId(0));
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(3).to_string(), "node#3");
        assert_eq!(NodeId::from(1).index(), 1);
    }
}
