//! Applications: named SDF graphs with pre-computed analysis metadata.

use sdf::{
    analyze_period, is_strongly_connected, repetition_vector, Rational, RepetitionVector, SdfError,
    SdfGraph,
};
use serde::{Deserialize, Deserializer, Serialize};
use std::fmt;

/// Identifier of an application within a [`crate::SystemSpec`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct AppId(pub usize);

impl AppId {
    /// Dense index of this application.
    pub const fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app#{}", self.0)
    }
}

impl From<usize> for AppId {
    fn from(i: usize) -> Self {
        AppId(i)
    }
}

/// An application: an SDF graph plus the analysis results every consumer
/// needs (repetition vector and isolation period).
///
/// Constructing an `Application` validates the graph (consistent, strongly
/// connected, live) and computes its period in isolation — `Per(A)` of the
/// paper's Definition 3 — once, so downstream analyses never repeat the
/// state-space exploration for the unloaded graph.
///
/// A deserialized `Application` is checked without exploring: its graph
/// passes [`SdfGraph`]'s own decoding checks, its stored repetition vector
/// must equal the graph's, the graph must be strongly connected, and the
/// stored isolation period must be positive. Those are the facts
/// [`Application::period_with_times`] trusts, so a file or a peer cannot
/// hand it a graph it was not checked for.
///
/// # Examples
///
/// ```
/// use platform::Application;
/// use sdf::{figure2_graphs, Rational};
///
/// let (graph_a, _) = figure2_graphs();
/// let app = Application::new("A", graph_a)?;
/// assert_eq!(app.isolation_period(), Rational::integer(300));
/// assert_eq!(app.repetition_vector().as_slice(), &[1, 2, 1]);
/// # Ok::<(), platform::PlatformError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Application {
    name: String,
    graph: SdfGraph,
    repetition: RepetitionVector,
    isolation_period: Rational,
}

impl Deserialize for Application {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Raw {
            name: String,
            graph: SdfGraph,
            repetition: RepetitionVector,
            isolation_period: Rational,
        }
        let raw = Raw::deserialize(d)?;
        let invalid =
            |why: String| serde::Error(format!("invalid application `{}`: {why}", raw.name));
        let q = repetition_vector(&raw.graph).map_err(|e| invalid(e.to_string()))?;
        if q != raw.repetition {
            return Err(invalid(format!(
                "stored repetition vector {} is not the graph's {q}",
                raw.repetition
            )));
        }
        if !is_strongly_connected(&raw.graph) {
            return Err(invalid(SdfError::NotStronglyConnected.to_string()));
        }
        if !raw.isolation_period.is_positive() {
            return Err(invalid(format!(
                "isolation period {} is not positive",
                raw.isolation_period
            )));
        }
        Ok(Application {
            name: raw.name,
            graph: raw.graph,
            repetition: raw.repetition,
            isolation_period: raw.isolation_period,
        })
    }
}

impl Application {
    /// Wraps and validates `graph` under the given display name.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SdfError`] (wrapped in
    /// [`crate::PlatformError::Graph`]) if the graph is inconsistent, not
    /// strongly connected, deadlocked, or its period analysis diverges.
    pub fn new(
        name: impl Into<String>,
        graph: SdfGraph,
    ) -> Result<Application, crate::PlatformError> {
        let analysis = analyze_period(&graph).map_err(crate::PlatformError::Graph)?;
        Ok(Application {
            name: name.into(),
            graph,
            repetition: analysis.repetition_vector,
            isolation_period: analysis.period,
        })
    }

    /// The display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying SDF graph.
    pub fn graph(&self) -> &SdfGraph {
        &self.graph
    }

    /// The repetition vector `q`.
    pub fn repetition_vector(&self) -> &RepetitionVector {
        &self.repetition
    }

    /// Period achieved when the application runs alone on the platform
    /// (`Per(A)`, Definition 3).
    pub fn isolation_period(&self) -> Rational {
        self.isolation_period
    }

    /// Throughput in isolation (`1 / Per(A)`).
    pub fn isolation_throughput(&self) -> Rational {
        self.isolation_period.recip()
    }

    /// Re-analyzes the application with replaced execution times (the
    /// estimator's response-time inflation step, and every admission
    /// prediction) and returns the resulting period.
    ///
    /// The exploration starts straight from the stored repetition vector:
    /// no graph copy, and no repetition-vector or strong-connectivity
    /// recomputation (see [`sdf::period_with_times`]). That trust is sound
    /// because every `Application` has passed those checks — in
    /// [`Application::new`], or when it was deserialized — and neither
    /// fact depends on execution times.
    ///
    /// # Errors
    ///
    /// * [`SdfError::NonPositiveExecutionTime`] if some time is `<= 0`;
    /// * other analysis failures (deadlock, exhausted step budget).
    ///
    /// # Panics
    ///
    /// Panics if `times.len()` differs from the actor count.
    pub fn period_with_times(&self, times: &[Rational]) -> Result<Rational, SdfError> {
        sdf::period_with_times(&self.graph, times, &self.repetition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdf::figure2_graphs;

    #[test]
    fn validates_and_precomputes() {
        let (a, _) = figure2_graphs();
        let app = Application::new("A", a).unwrap();
        assert_eq!(app.name(), "A");
        assert_eq!(app.isolation_period(), Rational::integer(300));
        assert_eq!(app.isolation_throughput(), Rational::new(1, 300));
        assert_eq!(app.repetition_vector().total_firings(), 4);
    }

    #[test]
    fn rejects_invalid_graph() {
        let mut b = sdf::SdfGraphBuilder::new("dead");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 0).unwrap();
        assert!(Application::new("dead", b.build().unwrap()).is_err());
    }

    #[test]
    fn period_with_times() {
        let (a, _) = figure2_graphs();
        let app = Application::new("A", a).unwrap();
        let p = app
            .period_with_times(&[
                Rational::integer(100) + Rational::new(25, 3),
                Rational::integer(50) + Rational::new(50, 3),
                Rational::integer(100) + Rational::new(50, 3),
            ])
            .unwrap();
        assert_eq!(p, Rational::new(1075, 3));
    }

    #[test]
    fn app_id_display() {
        assert_eq!(AppId(4).to_string(), "app#4");
        assert_eq!(AppId::from(2).index(), 2);
    }

    #[test]
    fn period_with_times_rejects_non_positive_times_typed() {
        let (a, _) = figure2_graphs();
        let app = Application::new("A", a).unwrap();
        assert_eq!(
            app.period_with_times(&[Rational::integer(-5), Rational::ONE, Rational::ONE])
                .unwrap_err(),
            SdfError::NonPositiveExecutionTime(sdf::ActorId(0))
        );
    }

    #[test]
    fn decoding_checks_what_period_with_times_trusts() {
        use serde::Value;
        let (a, _) = figure2_graphs();
        let app = Application::new("A", a).unwrap();
        let tree = serde::to_value(&app);
        assert_eq!(serde::from_value::<Application>(&tree), Ok(app.clone()));
        let with = |key: &str, value: Value| {
            let mut tree = tree.clone();
            if let Value::Object(fields) = &mut tree {
                for (k, v) in fields.iter_mut() {
                    if k == key {
                        *v = value.clone();
                    }
                }
            }
            serde::from_value::<Application>(&tree)
                .expect_err("invalid application decoded")
                .to_string()
        };

        let mut wrong_q = Value::object();
        wrong_q.insert("entries", serde::to_value(&vec![2u64, 4, 2]));
        let err = with("repetition", wrong_q);
        assert!(err.contains("repetition vector [2, 4, 2]"), "{err}");

        for period in [Rational::ZERO, Rational::integer(-300)] {
            let err = with("isolation_period", serde::to_value(&period));
            assert!(err.contains("not positive"), "{err}");
        }

        // Consistent and live, but y never feeds back into x.
        let mut b = sdf::SdfGraphBuilder::new("open");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.self_loop(x, 1);
        b.self_loop(y, 1);
        b.channel(x, y, 1, 1, 0).unwrap();
        let open = b.build().unwrap();
        let mut tree = serde::to_value(&app);
        if let Value::Object(fields) = &mut tree {
            for (k, v) in fields.iter_mut() {
                match k.as_str() {
                    "graph" => *v = serde::to_value(&open),
                    "repetition" => *v = serde::to_value(&repetition_vector(&open).unwrap()),
                    _ => {}
                }
            }
        }
        let err = serde::from_value::<Application>(&tree).expect_err("open graph decoded");
        assert!(err.to_string().contains("not strongly connected"), "{err}");
    }
}
