//! The Synchronous Data Flow graph data structure.
//!
//! An SDF graph consists of *actors* (vertices) connected by *channels*
//! (edges). Each channel carries a production rate (tokens written per firing
//! of its source actor), a consumption rate (tokens read per firing of its
//! destination actor) and a number of initial tokens. An actor may fire when
//! every incoming channel holds at least the consumption rate of tokens; the
//! firing takes the actor's execution time and then atomically produces
//! tokens on every outgoing channel.
//!
//! Graphs are immutable after construction through [`SdfGraphBuilder`], which
//! validates the structure eagerly.
//!
//! # Examples
//!
//! Building application `A` of the paper's Figure 2:
//!
//! ```
//! use sdf::{Rational, SdfGraphBuilder};
//!
//! let mut b = SdfGraphBuilder::new("A");
//! let a0 = b.actor("a0", 100);
//! let a1 = b.actor("a1", 50);
//! let a2 = b.actor("a2", 100);
//! b.channel(a0, a1, 2, 1, 0)?;
//! b.channel(a1, a2, 1, 2, 0)?;
//! b.channel(a2, a0, 1, 1, 1)?;
//! let graph = b.build()?;
//!
//! assert_eq!(graph.actor_count(), 3);
//! assert_eq!(graph.execution_time(a0), Rational::integer(100));
//! # Ok::<(), sdf::SdfError>(())
//! ```

use crate::rational::Rational;
use serde::{Deserialize, Deserializer, Serialize};
use std::fmt;

/// Identifier of an actor within one [`SdfGraph`].
///
/// Indices are dense: a graph with `n` actors uses ids `0..n`.
///
/// # Examples
///
/// ```
/// use sdf::ActorId;
/// let id = ActorId(3);
/// assert_eq!(id.index(), 3);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ActorId(pub usize);

impl ActorId {
    /// The dense index of this actor.
    pub const fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

impl From<usize> for ActorId {
    fn from(i: usize) -> Self {
        ActorId(i)
    }
}

/// Identifier of a channel within one [`SdfGraph`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ChannelId(pub usize);

impl ChannelId {
    /// The dense index of this channel.
    pub const fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "channel#{}", self.0)
    }
}

impl From<usize> for ChannelId {
    fn from(i: usize) -> Self {
        ChannelId(i)
    }
}

/// An actor (task) of an SDF graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Actor {
    name: String,
    execution_time: Rational,
}

impl Actor {
    /// The actor's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The actor's execution time `τ(a)`.
    pub fn execution_time(&self) -> Rational {
        self.execution_time
    }
}

/// A channel (edge) of an SDF graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Channel {
    src: ActorId,
    dst: ActorId,
    production: u64,
    consumption: u64,
    initial_tokens: u64,
}

impl Channel {
    /// Source actor (producer).
    pub const fn src(&self) -> ActorId {
        self.src
    }

    /// Destination actor (consumer).
    pub const fn dst(&self) -> ActorId {
        self.dst
    }

    /// Tokens produced per firing of [`Channel::src`].
    pub const fn production(&self) -> u64 {
        self.production
    }

    /// Tokens consumed per firing of [`Channel::dst`].
    pub const fn consumption(&self) -> u64 {
        self.consumption
    }

    /// Tokens present on the channel before any firing.
    pub const fn initial_tokens(&self) -> u64 {
        self.initial_tokens
    }

    /// Whether this channel is a self-loop (`src == dst`).
    pub const fn is_self_loop(&self) -> bool {
        self.src.0 == self.dst.0
    }
}

/// Errors produced while building or analysing SDF graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SdfError {
    /// A channel referenced an actor id outside the graph.
    UnknownActor(ActorId),
    /// A channel rate was zero; SDF rates must be strictly positive.
    ZeroRate {
        /// The offending channel's source.
        src: ActorId,
        /// The offending channel's destination.
        dst: ActorId,
    },
    /// The graph has no actors.
    Empty,
    /// The balance equations have no non-trivial solution.
    Inconsistent {
        /// Channel on which the contradiction was detected.
        channel: ChannelId,
    },
    /// The graph deadlocks: no actor can fire before one iteration completes.
    Deadlocked,
    /// The graph is not strongly connected where the analysis requires it.
    NotStronglyConnected,
    /// An actor's execution time was not positive.
    NonPositiveExecutionTime(ActorId),
    /// An analysis exceeded its configured step budget.
    BudgetExhausted {
        /// Steps executed before giving up.
        steps: u64,
    },
    /// The graph's rates or execution times are so far apart that an
    /// exact result (its repetition vector, or the clock of its self-timed
    /// execution) does not fit the integer arithmetic.
    Overflow,
}

impl fmt::Display for SdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdfError::UnknownActor(a) => write!(f, "unknown actor {a}"),
            SdfError::ZeroRate { src, dst } => {
                write!(f, "channel {src}->{dst} has a zero rate")
            }
            SdfError::Empty => write!(f, "graph has no actors"),
            SdfError::Inconsistent { channel } => {
                write!(f, "graph is inconsistent (balance equation of {channel})")
            }
            SdfError::Deadlocked => write!(f, "graph deadlocks"),
            SdfError::NotStronglyConnected => write!(f, "graph is not strongly connected"),
            SdfError::NonPositiveExecutionTime(a) => {
                write!(f, "execution time of {a} is not positive")
            }
            SdfError::BudgetExhausted { steps } => {
                write!(f, "analysis budget exhausted after {steps} steps")
            }
            SdfError::Overflow => write!(f, "graph rates or times overflow exact arithmetic"),
        }
    }
}

impl std::error::Error for SdfError {}

/// An immutable, validated Synchronous Data Flow graph.
///
/// Construct through [`SdfGraphBuilder`]. See the [module-level
/// documentation](self) for an example. Deserialization goes through the
/// builder too, so a decoded graph passes the same checks, and its
/// serialized `outgoing`/`incoming` adjacency must be the one its channels
/// imply.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SdfGraph {
    name: String,
    actors: Vec<Actor>,
    channels: Vec<Channel>,
    /// outgoing[a] = channel ids with src == a
    outgoing: Vec<Vec<ChannelId>>,
    /// incoming[a] = channel ids with dst == a
    incoming: Vec<Vec<ChannelId>>,
}

impl Deserialize for SdfGraph {
    fn deserialize<'de, D: Deserializer<'de>>(d: &mut D) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Raw {
            name: String,
            actors: Vec<Actor>,
            channels: Vec<Channel>,
            outgoing: Vec<Vec<ChannelId>>,
            incoming: Vec<Vec<ChannelId>>,
        }
        let raw = Raw::deserialize(d)?;
        let invalid = |e: SdfError| serde::Error(format!("invalid graph: {e}"));
        let mut b = SdfGraphBuilder::new(raw.name);
        for actor in raw.actors {
            b.actor_rational(actor.name, actor.execution_time);
        }
        for c in raw.channels {
            b.channel(c.src, c.dst, c.production, c.consumption, c.initial_tokens)
                .map_err(invalid)?;
        }
        let graph = b.build().map_err(invalid)?;
        if graph.outgoing != raw.outgoing || graph.incoming != raw.incoming {
            return Err(serde::Error(format!(
                "invalid graph: the adjacency of `{}` disagrees with its channels",
                graph.name
            )));
        }
        Ok(graph)
    }
}

impl SdfGraph {
    /// The graph's name (e.g. the application it models).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Iterator over `(ActorId, &Actor)` pairs in id order.
    pub fn actors(&self) -> impl Iterator<Item = (ActorId, &Actor)> {
        self.actors.iter().enumerate().map(|(i, a)| (ActorId(i), a))
    }

    /// Iterator over actor ids `0..n`.
    pub fn actor_ids(&self) -> impl Iterator<Item = ActorId> {
        (0..self.actors.len()).map(ActorId)
    }

    /// Iterator over `(ChannelId, &Channel)` pairs in id order.
    pub fn channels(&self) -> impl Iterator<Item = (ChannelId, &Channel)> {
        self.channels
            .iter()
            .enumerate()
            .map(|(i, c)| (ChannelId(i), c))
    }

    /// The actor with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn actor(&self, id: ActorId) -> &Actor {
        &self.actors[id.0]
    }

    /// The channel with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.0]
    }

    /// Execution time `τ(a)` of actor `a`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn execution_time(&self, id: ActorId) -> Rational {
        self.actors[id.0].execution_time
    }

    /// Channels leaving actor `a`.
    pub fn outgoing(&self, a: ActorId) -> &[ChannelId] {
        &self.outgoing[a.0]
    }

    /// Channels entering actor `a`.
    pub fn incoming(&self, a: ActorId) -> &[ChannelId] {
        &self.incoming[a.0]
    }

    /// Finds an actor by name.
    ///
    /// # Examples
    ///
    /// ```
    /// # use sdf::SdfGraphBuilder;
    /// let mut b = SdfGraphBuilder::new("g");
    /// let x = b.actor("x", 1);
    /// b.self_loop(x, 1);
    /// let g = b.build()?;
    /// assert_eq!(g.actor_by_name("x"), Some(x));
    /// assert_eq!(g.actor_by_name("y"), None);
    /// # Ok::<(), sdf::SdfError>(())
    /// ```
    pub fn actor_by_name(&self, name: &str) -> Option<ActorId> {
        self.actors.iter().position(|a| a.name == name).map(ActorId)
    }

    /// Returns a copy of the graph with every actor's execution time replaced
    /// by `times[actor.index()]`.
    ///
    /// This is the hook the contention estimator uses: waiting time is added
    /// to each actor's execution time, and the period of the *inflated* graph
    /// is recomputed.
    ///
    /// # Panics
    ///
    /// Panics if `times.len() != self.actor_count()` or any time is not
    /// positive.
    ///
    /// # Examples
    ///
    /// ```
    /// # use sdf::{Rational, SdfGraphBuilder};
    /// # let mut b = SdfGraphBuilder::new("g");
    /// # let x = b.actor("x", 10);
    /// # b.self_loop(x, 1);
    /// # let g = b.build()?;
    /// let inflated = g.with_execution_times(&[Rational::new(67, 1)]);
    /// assert_eq!(inflated.execution_time(x), Rational::integer(67));
    /// # Ok::<(), sdf::SdfError>(())
    /// ```
    pub fn with_execution_times(&self, times: &[Rational]) -> SdfGraph {
        assert_eq!(
            times.len(),
            self.actors.len(),
            "one execution time per actor required"
        );
        let mut g = self.clone();
        for (actor, t) in g.actors.iter_mut().zip(times) {
            assert!(t.is_positive(), "execution times must be positive");
            actor.execution_time = *t;
        }
        g
    }

    /// Sum of all execution times (a crude lower bound on the serialised
    /// iteration length, useful for sanity checks).
    pub fn total_execution_time(&self) -> Rational {
        self.actors.iter().map(|a| a.execution_time).sum()
    }
}

/// Builder for [`SdfGraph`]. See the [module-level documentation](self) for
/// an example.
#[derive(Debug, Clone, Default)]
pub struct SdfGraphBuilder {
    name: String,
    actors: Vec<Actor>,
    channels: Vec<Channel>,
}

impl SdfGraphBuilder {
    /// Starts building a graph with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        SdfGraphBuilder {
            name: name.into(),
            actors: Vec::new(),
            channels: Vec::new(),
        }
    }

    /// Adds an actor with an integral execution time and returns its id.
    pub fn actor(&mut self, name: impl Into<String>, execution_time: u64) -> ActorId {
        self.actor_rational(name, Rational::integer(execution_time as i128))
    }

    /// Adds an actor with a rational execution time and returns its id.
    pub fn actor_rational(&mut self, name: impl Into<String>, execution_time: Rational) -> ActorId {
        let id = ActorId(self.actors.len());
        self.actors.push(Actor {
            name: name.into(),
            execution_time,
        });
        id
    }

    /// Adds a channel `src → dst` with the given production/consumption rates
    /// and initial tokens.
    ///
    /// # Errors
    ///
    /// Returns [`SdfError::UnknownActor`] if either endpoint has not been
    /// added, or [`SdfError::ZeroRate`] if a rate is zero.
    pub fn channel(
        &mut self,
        src: ActorId,
        dst: ActorId,
        production: u64,
        consumption: u64,
        initial_tokens: u64,
    ) -> Result<ChannelId, SdfError> {
        for id in [src, dst] {
            if id.0 >= self.actors.len() {
                return Err(SdfError::UnknownActor(id));
            }
        }
        if production == 0 || consumption == 0 {
            return Err(SdfError::ZeroRate { src, dst });
        }
        let id = ChannelId(self.channels.len());
        self.channels.push(Channel {
            src,
            dst,
            production,
            consumption,
            initial_tokens,
        });
        Ok(id)
    }

    /// Adds a single-rate self-loop on `actor` carrying `tokens` initial
    /// tokens. A self-loop with one token disables auto-concurrency, i.e.
    /// limits the actor to one simultaneous firing.
    ///
    /// # Panics
    ///
    /// Panics if `actor` has not been added yet.
    pub fn self_loop(&mut self, actor: ActorId, tokens: u64) -> ChannelId {
        self.channel(actor, actor, 1, 1, tokens)
            .expect("self_loop requires a previously added actor")
    }

    /// Number of actors added so far.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Finalises the graph.
    ///
    /// # Errors
    ///
    /// Returns [`SdfError::Empty`] for an actor-less graph and
    /// [`SdfError::NonPositiveExecutionTime`] if any execution time is `<= 0`.
    pub fn build(self) -> Result<SdfGraph, SdfError> {
        if self.actors.is_empty() {
            return Err(SdfError::Empty);
        }
        for (i, a) in self.actors.iter().enumerate() {
            if !a.execution_time.is_positive() {
                return Err(SdfError::NonPositiveExecutionTime(ActorId(i)));
            }
        }
        let mut outgoing = vec![Vec::new(); self.actors.len()];
        let mut incoming = vec![Vec::new(); self.actors.len()];
        for (i, c) in self.channels.iter().enumerate() {
            outgoing[c.src.0].push(ChannelId(i));
            incoming[c.dst.0].push(ChannelId(i));
        }
        Ok(SdfGraph {
            name: self.name,
            actors: self.actors,
            channels: self.channels,
            outgoing,
            incoming,
        })
    }
}

/// Builds both applications of the paper's Figure 2; used pervasively in
/// tests and examples.
///
/// Application `A` is the cycle `a0 → a1 → a2 → a0` with `τ = [100, 50, 100]`
/// and repetition vector `q = [1, 2, 1]`; application `B` is the cycle
/// `b0 → b1 → b2 → b0` with `τ = [50, 100, 100]` and `q = [2, 1, 1]`. Both
/// have period 300 in isolation. Every actor carries a one-token self-loop
/// (no auto-concurrency), matching the paper's execution model.
///
/// # Examples
///
/// ```
/// let (a, b) = sdf::figure2_graphs();
/// assert_eq!(a.actor_count(), 3);
/// assert_eq!(b.actor_count(), 3);
/// ```
pub fn figure2_graphs() -> (SdfGraph, SdfGraph) {
    // Application A: q = [1, 2, 1], Per(A) = 300.
    // a0 --(2,1)--> a1 --(1,2)--> a2 --(1,1), 1 token--> a0
    let mut b = SdfGraphBuilder::new("A");
    let a0 = b.actor("a0", 100);
    let a1 = b.actor("a1", 50);
    let a2 = b.actor("a2", 100);
    b.channel(a0, a1, 2, 1, 0).expect("valid channel");
    b.channel(a1, a2, 1, 2, 0).expect("valid channel");
    b.channel(a2, a0, 1, 1, 1).expect("valid channel");
    for a in [a0, a1, a2] {
        b.self_loop(a, 1);
    }
    let graph_a = b.build().expect("figure 2 graph A is valid");

    // Application B: q = [2, 1, 1], Per(B) = 300.
    // b0 --(1,2)--> b1 --(1,1)--> b2 --(2,1), 2 tokens--> b0
    let mut b = SdfGraphBuilder::new("B");
    let b0 = b.actor("b0", 50);
    let b1 = b.actor("b1", 100);
    let b2 = b.actor("b2", 100);
    b.channel(b0, b1, 1, 2, 0).expect("valid channel");
    b.channel(b1, b2, 1, 1, 0).expect("valid channel");
    b.channel(b2, b0, 2, 1, 2).expect("valid channel");
    for a in [b0, b1, b2] {
        b.self_loop(a, 1);
    }
    let graph_b = b.build().expect("figure 2 graph B is valid");

    (graph_a, graph_b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_graph() -> SdfGraph {
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 10);
        let y = b.actor("y", 20);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_roundtrip() {
        let g = simple_graph();
        assert_eq!(g.actor_count(), 2);
        assert_eq!(g.channel_count(), 2);
        assert_eq!(g.actor(ActorId(0)).name(), "x");
        assert_eq!(g.execution_time(ActorId(1)), Rational::integer(20));
        assert_eq!(g.outgoing(ActorId(0)).len(), 1);
        assert_eq!(g.incoming(ActorId(0)).len(), 1);
    }

    #[test]
    fn empty_graph_rejected() {
        assert_eq!(
            SdfGraphBuilder::new("e").build().unwrap_err(),
            SdfError::Empty
        );
    }

    #[test]
    fn zero_rate_rejected() {
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 1);
        let err = b.channel(x, x, 0, 1, 0).unwrap_err();
        assert!(matches!(err, SdfError::ZeroRate { .. }));
    }

    #[test]
    fn unknown_actor_rejected() {
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 1);
        let err = b.channel(x, ActorId(5), 1, 1, 0).unwrap_err();
        assert_eq!(err, SdfError::UnknownActor(ActorId(5)));
    }

    #[test]
    fn zero_execution_time_rejected() {
        let mut b = SdfGraphBuilder::new("g");
        b.actor("x", 0);
        assert_eq!(
            b.build().unwrap_err(),
            SdfError::NonPositiveExecutionTime(ActorId(0))
        );
    }

    #[test]
    fn with_execution_times_replaces_all() {
        let g = simple_graph();
        let g2 = g.with_execution_times(&[Rational::new(67, 1), Rational::new(50, 3)]);
        assert_eq!(g2.execution_time(ActorId(0)), Rational::integer(67));
        assert_eq!(g2.execution_time(ActorId(1)), Rational::new(50, 3));
        // Original untouched.
        assert_eq!(g.execution_time(ActorId(0)), Rational::integer(10));
    }

    #[test]
    #[should_panic(expected = "one execution time per actor")]
    fn with_execution_times_wrong_len_panics() {
        simple_graph().with_execution_times(&[Rational::ONE]);
    }

    #[test]
    fn figure2_shapes() {
        let (a, b) = figure2_graphs();
        assert_eq!(a.name(), "A");
        assert_eq!(b.name(), "B");
        assert_eq!(a.channel_count(), 6); // 3 cycle edges + 3 self-loops
        assert_eq!(a.actor_by_name("a1"), Some(ActorId(1)));
        assert_eq!(b.execution_time(ActorId(0)), Rational::integer(50));
    }

    #[test]
    fn display_impls() {
        assert_eq!(ActorId(2).to_string(), "actor#2");
        assert_eq!(ChannelId(7).to_string(), "channel#7");
        let e = SdfError::Deadlocked.to_string();
        assert!(e.contains("deadlock"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<SdfError>();
    }

    /// The value under `key` of an encoded object.
    fn field<'a>(object: &'a mut serde::Value, key: &str) -> &'a mut serde::Value {
        let serde::Value::Object(fields) = object else {
            panic!("not an object")
        };
        &mut fields.iter_mut().find(|(k, _)| k == key).expect("field").1
    }

    /// Element `i` of an encoded array.
    fn item(array: &mut serde::Value, i: usize) -> &mut serde::Value {
        let serde::Value::Array(items) = array else {
            panic!("not an array")
        };
        &mut items[i]
    }

    #[test]
    fn decoding_goes_through_the_builder() {
        use serde::Value;
        let (a, _) = figure2_graphs();
        let tree = serde::to_value(&a);
        assert_eq!(serde::from_value::<SdfGraph>(&tree), Ok(a));
        let rejects = |tree: Value, why: &str| {
            let err = serde::from_value::<SdfGraph>(&tree).expect_err(why);
            assert!(err.to_string().contains(why), "{err}");
        };

        let mut edited = tree.clone();
        *item(item(field(&mut edited, "incoming"), 0), 0) = Value::Int(99);
        rejects(edited, "adjacency");

        let mut edited = tree.clone();
        *field(item(field(&mut edited, "channels"), 0), "src") = Value::Int(42);
        rejects(edited, "unknown actor");

        let mut edited = tree.clone();
        *field(item(field(&mut edited, "actors"), 1), "execution_time") =
            serde::to_value(&Rational::integer(-5));
        rejects(edited, "not positive");

        let mut edited = tree;
        for key in ["actors", "channels"] {
            *field(&mut edited, key) = Value::Array(Vec::new());
        }
        rejects(edited, "no actors");
    }
}
