//! The complete system specification: applications + mapping.

use crate::application::{AppId, Application};
use crate::mapping::{Mapping, NodeId};
use crate::usecase::UseCase;
use sdf::{ActorId, SdfError};
use serde::{Deserialize, Deserializer, Serialize};
use std::fmt;

/// Errors produced while assembling or querying a [`SystemSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlatformError {
    /// An application's graph failed validation or analysis.
    Graph(SdfError),
    /// The spec has no applications.
    NoApplications,
    /// The spec has no mapping.
    NoMapping,
    /// An explicit mapping misses an actor.
    UnmappedActor {
        /// Application owning the unmapped actor.
        app: AppId,
        /// The unmapped actor.
        actor: ActorId,
    },
    /// A use-case references an application id outside the spec.
    UnknownApplication(AppId),
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::Graph(e) => write!(f, "graph error: {e}"),
            PlatformError::NoApplications => write!(f, "system has no applications"),
            PlatformError::NoMapping => write!(f, "system has no mapping"),
            PlatformError::UnmappedActor { app, actor } => {
                write!(f, "actor {actor} of {app} is not mapped")
            }
            PlatformError::UnknownApplication(a) => write!(f, "unknown application {a}"),
        }
    }
}

impl std::error::Error for PlatformError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlatformError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SdfError> for PlatformError {
    fn from(e: SdfError) -> Self {
        PlatformError::Graph(e)
    }
}

/// A validated multiprocessor system: applications plus a total mapping.
///
/// See the [crate documentation](crate) for an example. Deserialization
/// runs the [builder](SystemSpecBuilder::build)'s checks, and the stored
/// `node_count` must be the one the mapping implies.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SystemSpec {
    applications: Vec<Application>,
    mapping: Mapping,
    node_count: usize,
}

impl Deserialize for SystemSpec {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Raw {
            applications: Vec<Application>,
            mapping: Mapping,
            node_count: usize,
        }
        let raw = Raw::deserialize(d)?;
        let spec = SystemSpec::builder()
            .applications(raw.applications)
            .mapping(raw.mapping)
            .build()
            .map_err(|e| serde::Error(format!("invalid system spec: {e}")))?;
        if spec.node_count != raw.node_count {
            return Err(serde::Error(format!(
                "invalid system spec: node_count {} but the mapping uses {}",
                raw.node_count, spec.node_count
            )));
        }
        Ok(spec)
    }
}

impl SystemSpec {
    /// Starts building a spec.
    pub fn builder() -> SystemSpecBuilder {
        SystemSpecBuilder::default()
    }

    /// The applications, indexable by [`AppId`].
    pub fn applications(&self) -> &[Application] {
        &self.applications
    }

    /// Number of applications.
    pub fn application_count(&self) -> usize {
        self.applications.len()
    }

    /// The application with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn application(&self, id: AppId) -> &Application {
        &self.applications[id.index()]
    }

    /// Iterator over `(AppId, &Application)`.
    pub fn iter(&self) -> impl Iterator<Item = (AppId, &Application)> {
        self.applications
            .iter()
            .enumerate()
            .map(|(i, a)| (AppId(i), a))
    }

    /// The actor-to-node mapping.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// Number of processing nodes the mapping uses.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Node hosting actor `actor` of application `app`.
    pub fn node_of(&self, app: AppId, actor: ActorId) -> NodeId {
        self.mapping.node_of(app, actor)
    }

    /// All `(app, actor)` pairs mapped on `node`, restricted to applications
    /// active in `use_case`.
    ///
    /// This is the "set of other actors on my node" that the paper's
    /// waiting-time computation consumes.
    ///
    /// # Examples
    ///
    /// ```
    /// use platform::{Application, Mapping, NodeId, SystemSpec, UseCase};
    /// use sdf::figure2_graphs;
    ///
    /// let (a, b) = figure2_graphs();
    /// let spec = SystemSpec::builder()
    ///     .application(Application::new("A", a)?)
    ///     .application(Application::new("B", b)?)
    ///     .mapping(Mapping::by_actor_index(3))
    ///     .build()?;
    /// let on0 = spec.actors_on_node(NodeId(0), UseCase::full(2));
    /// assert_eq!(on0.len(), 2); // a0 and b0
    /// # Ok::<(), platform::PlatformError>(())
    /// ```
    pub fn actors_on_node(&self, node: NodeId, use_case: UseCase) -> Vec<(AppId, ActorId)> {
        let mut out = Vec::new();
        for (app_id, app) in self.iter() {
            if !use_case.contains(app_id) {
                continue;
            }
            for actor in app.graph().actor_ids() {
                if self.mapping.node_of(app_id, actor) == node {
                    out.push((app_id, actor));
                }
            }
        }
        out
    }

    /// Validates that `use_case` only references applications in this spec.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::UnknownApplication`] otherwise.
    pub fn validate_use_case(&self, use_case: UseCase) -> Result<(), PlatformError> {
        for a in use_case.app_ids() {
            if a.index() >= self.applications.len() {
                return Err(PlatformError::UnknownApplication(a));
            }
        }
        Ok(())
    }
}

/// Builder for [`SystemSpec`]; see [`SystemSpec::builder`].
#[derive(Debug, Default)]
pub struct SystemSpecBuilder {
    applications: Vec<Application>,
    mapping: Option<Mapping>,
}

impl SystemSpecBuilder {
    /// Adds an application; its id is its insertion index.
    #[must_use]
    pub fn application(mut self, app: Application) -> Self {
        self.applications.push(app);
        self
    }

    /// Adds every application from an iterator.
    #[must_use]
    pub fn applications(mut self, apps: impl IntoIterator<Item = Application>) -> Self {
        self.applications.extend(apps);
        self
    }

    /// Sets the mapping.
    #[must_use]
    pub fn mapping(mut self, mapping: Mapping) -> Self {
        self.mapping = Some(mapping);
        self
    }

    /// Validates totality of the mapping and finalises the spec.
    ///
    /// # Errors
    ///
    /// * [`PlatformError::NoApplications`] / [`PlatformError::NoMapping`] on
    ///   missing parts;
    /// * [`PlatformError::UnmappedActor`] if an explicit mapping misses an
    ///   actor of any application.
    pub fn build(self) -> Result<SystemSpec, PlatformError> {
        if self.applications.is_empty() {
            return Err(PlatformError::NoApplications);
        }
        let mapping = self.mapping.ok_or(PlatformError::NoMapping)?;
        for (i, app) in self.applications.iter().enumerate() {
            for actor in app.graph().actor_ids() {
                if !mapping.is_mapped(AppId(i), actor) {
                    return Err(PlatformError::UnmappedActor {
                        app: AppId(i),
                        actor,
                    });
                }
            }
        }
        let node_count = mapping.node_count();
        Ok(SystemSpec {
            applications: self.applications,
            mapping,
            node_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdf::figure2_graphs;

    fn figure2_spec() -> SystemSpec {
        let (a, b) = figure2_graphs();
        SystemSpec::builder()
            .application(Application::new("A", a).unwrap())
            .application(Application::new("B", b).unwrap())
            .mapping(Mapping::by_actor_index(3))
            .build()
            .unwrap()
    }

    #[test]
    fn builds_and_queries() {
        let spec = figure2_spec();
        assert_eq!(spec.application_count(), 2);
        assert_eq!(spec.node_count(), 3);
        assert_eq!(spec.node_of(AppId(1), ActorId(2)), NodeId(2));
        assert_eq!(spec.application(AppId(0)).name(), "A");
    }

    #[test]
    fn actors_on_node_respects_use_case() {
        let spec = figure2_spec();
        let full = spec.actors_on_node(NodeId(1), UseCase::full(2));
        assert_eq!(full, vec![(AppId(0), ActorId(1)), (AppId(1), ActorId(1))]);
        let only_b = spec.actors_on_node(NodeId(1), UseCase::single(AppId(1)));
        assert_eq!(only_b, vec![(AppId(1), ActorId(1))]);
    }

    #[test]
    fn missing_parts_rejected() {
        assert_eq!(
            SystemSpec::builder().build().unwrap_err(),
            PlatformError::NoApplications
        );
        let (a, _) = figure2_graphs();
        let err = SystemSpec::builder()
            .application(Application::new("A", a).unwrap())
            .build()
            .unwrap_err();
        assert_eq!(err, PlatformError::NoMapping);
    }

    #[test]
    fn partial_explicit_mapping_rejected() {
        let (a, _) = figure2_graphs();
        let mut m = Mapping::explicit();
        m.assign(AppId(0), ActorId(0), NodeId(0));
        // actors 1 and 2 unmapped
        let err = SystemSpec::builder()
            .application(Application::new("A", a).unwrap())
            .mapping(m)
            .build()
            .unwrap_err();
        assert!(matches!(err, PlatformError::UnmappedActor { .. }));
    }

    #[test]
    fn use_case_validation() {
        let spec = figure2_spec();
        assert!(spec.validate_use_case(UseCase::full(2)).is_ok());
        assert_eq!(
            spec.validate_use_case(UseCase::single(AppId(5)))
                .unwrap_err(),
            PlatformError::UnknownApplication(AppId(5))
        );
    }

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let e = PlatformError::Graph(SdfError::Deadlocked);
        assert!(e.to_string().contains("deadlock"));
        assert!(e.source().is_some());
        assert!(PlatformError::NoMapping.source().is_none());
    }

    #[test]
    fn decoding_runs_the_builder_checks() {
        use serde::Value;
        let spec = figure2_spec();
        let tree = serde::to_value(&spec);
        assert_eq!(serde::from_value::<SystemSpec>(&tree), Ok(spec));
        let with = |key: &str, value: Value| {
            let mut tree = tree.clone();
            if let Value::Object(fields) = &mut tree {
                for (k, v) in fields.iter_mut() {
                    if k == key {
                        *v = value.clone();
                    }
                }
            }
            serde::from_value::<SystemSpec>(&tree)
                .expect_err("invalid spec decoded")
                .to_string()
        };
        let err = with("applications", Value::Array(Vec::new()));
        assert!(err.contains("no applications"), "{err}");
        let err = with("node_count", Value::Int(7));
        assert!(err.contains("node_count 7"), "{err}");
        // A zero-node mapping maps no actor (its `node_of` would divide by
        // zero).
        let mut zero = Value::object();
        let mut nodes = Value::object();
        nodes.insert("node_count", Value::Int(0));
        zero.insert("ByActorIndex", nodes);
        let err = with("mapping", zero);
        assert!(err.contains("not mapped"), "{err}");
    }
}
