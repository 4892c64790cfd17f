//! The paper's experimental workload (Section 5).
//!
//! "Ten random SDFGs were generated with eight to ten actors each using the
//! SDF³ tool, mimicking DSP or a multimedia application, and was a strongly
//! connected component. The execution time and the rates of actors were also
//! set randomly."
//!
//! [`paper_workload`] builds exactly that: ten seeded random applications
//! named `A`–`J` on a ten-node platform with the paper's by-actor-index
//! mapping (actor *j* of every application on node *j*).

use platform::{Application, Mapping, PlatformError, SystemSpec};
use sdf::{generate_graph, GeneratorConfig};

/// Number of applications in the paper's evaluation.
pub const PAPER_APP_COUNT: usize = 10;

/// Application display names used by the paper's Figure 5 (`A`–`J`).
pub const PAPER_APP_NAMES: [&str; PAPER_APP_COUNT] =
    ["A", "B", "C", "D", "E", "F", "G", "H", "I", "J"];

/// Builds the paper's ten-application workload from a seed.
///
/// Different seeds give different (but structurally equivalent) workloads;
/// the experiments fix a default seed so every artefact is reproducible
/// bit-for-bit.
///
/// # Errors
///
/// Propagates [`PlatformError`] if a generated graph fails validation
/// (cannot happen — the generator guarantees analyzable graphs — but the
/// error path is kept honest rather than unwrapped).
///
/// # Examples
///
/// ```
/// use experiments::workload::paper_workload;
/// let spec = paper_workload(2007)?;
/// assert_eq!(spec.application_count(), 10);
/// assert_eq!(spec.node_count(), 10);
/// # Ok::<(), platform::PlatformError>(())
/// ```
pub fn paper_workload(seed: u64) -> Result<SystemSpec, PlatformError> {
    workload_with(seed, PAPER_APP_COUNT, &GeneratorConfig::default())
}

/// Builds a workload of `count` applications with an explicit generator
/// configuration (the CLI's `--apps`/`--actors` workloads).
///
/// Applications are mapped with [`Mapping::by_actor_index`] over
/// `max_actors` nodes, the paper's setup.
///
/// # Errors
///
/// See [`paper_workload`].
pub fn workload_with(
    seed: u64,
    count: usize,
    config: &GeneratorConfig,
) -> Result<SystemSpec, PlatformError> {
    let mut builder = SystemSpec::builder();
    for i in 0..count {
        let name = PAPER_APP_NAMES
            .get(i)
            .map(|s| s.to_string())
            .unwrap_or_else(|| format!("App{i}"));
        let graph = generate_graph(config, seed.wrapping_add(i as u64));
        builder = builder.application(Application::new(name, graph)?);
    }
    builder
        .mapping(Mapping::by_actor_index(config.max_actors))
        .build()
}

/// The default workload seed used by every experiment artefact in this
/// repository.
pub const DEFAULT_SEED: u64 = 2007;

#[cfg(test)]
mod tests {
    use super::*;
    use platform::AppId;

    #[test]
    fn paper_workload_shape() {
        let spec = paper_workload(DEFAULT_SEED).unwrap();
        assert_eq!(spec.application_count(), 10);
        assert_eq!(spec.node_count(), 10);
        for (i, (_, app)) in spec.iter().enumerate() {
            assert_eq!(app.name(), PAPER_APP_NAMES[i]);
            let n = app.graph().actor_count();
            assert!((8..=10).contains(&n), "{}: {n} actors", app.name());
            assert!(app.isolation_period().is_positive());
        }
    }

    #[test]
    fn deterministic() {
        let a = paper_workload(42).unwrap();
        let b = paper_workload(42).unwrap();
        assert_eq!(
            a.application(AppId(3)).graph(),
            b.application(AppId(3)).graph()
        );
    }

    #[test]
    fn custom_counts_get_fallback_names() {
        let spec = workload_with(1, 12, &sdf::GeneratorConfig::default()).unwrap();
        assert_eq!(spec.application(AppId(11)).name(), "App11");
    }
}
