//! Error type for the OCTOPUS engine.

use std::fmt;

/// Errors surfaced by the engine facade and analysis services.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The keyword query resolved to no known keyword.
    NoKnownKeywords {
        /// The words that failed to resolve.
        unknown: Vec<String>,
    },
    /// A user lookup failed.
    UnknownUser(String),
    /// The engine was asked for zero seeds/keywords.
    ZeroK,
    /// The target user has no keyword candidates to suggest from.
    NoCandidates {
        /// The user in question.
        user: String,
    },
    /// A memory-mapped artifact section failed its (lazily verified)
    /// integrity check — the on-disk bytes this engine is serving from are
    /// damaged, and the query cannot be answered from them. The check is
    /// sticky: every later query touching the section fails the same way
    /// (fail closed; reopen or rebuild the artifact to recover).
    Artifact(String),
    /// A graph delta's edge footprint spans two shards of a sharded
    /// service. The locality partition never cuts an edge, so an insert
    /// whose endpoints live in different shards cannot be routed — it
    /// would merge two components and invalidate the partition. The batch
    /// carrying it is rejected (and eventually dropped after its retries);
    /// repartition with fewer shards to accept such an edge.
    CrossShardDelta {
        /// Influencing endpoint and its shard.
        src: (octopus_graph::NodeId, usize),
        /// Influenced endpoint and its shard.
        dst: (octopus_graph::NodeId, usize),
    },
    /// The serving layer shed this query: every inflight slot was busy
    /// and the arriving query's priority-class queue was already at its
    /// cap. The query was never executed; retry later or at a higher
    /// priority class.
    Overloaded {
        /// Label of the priority class that was shed.
        class: &'static str,
        /// The class's wait-queue occupancy when the query arrived (at
        /// its configured cap by definition of shedding).
        queued: usize,
    },
    /// An [`OctopusConfig`](crate::engine::OctopusConfig) field is out of
    /// its domain; no engine is built from it.
    Config(String),
    /// Propagated graph-layer error.
    Graph(octopus_graph::GraphError),
    /// Propagated topic-layer error.
    Topic(octopus_topics::TopicError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NoKnownKeywords { unknown } => {
                write!(f, "no known keywords in query (unknown: {unknown:?})")
            }
            CoreError::UnknownUser(name) => write!(f, "unknown user {name:?}"),
            CoreError::ZeroK => write!(f, "k must be at least 1"),
            CoreError::NoCandidates { user } => {
                write!(
                    f,
                    "user {user:?} has no keyword candidates (no authored items)"
                )
            }
            CoreError::Artifact(m) => write!(f, "artifact integrity error: {m}"),
            CoreError::CrossShardDelta { src, dst } => write!(
                f,
                "delta edge {}→{} crosses shards ({} → {}): the locality \
                 partition cannot route it",
                src.0 .0, dst.0 .0, src.1, dst.1
            ),
            CoreError::Overloaded { class, queued } => write!(
                f,
                "query shed: service overloaded ({class} queue full at {queued})"
            ),
            CoreError::Config(m) => write!(f, "invalid config: {m}"),
            CoreError::Graph(e) => write!(f, "graph error: {e}"),
            CoreError::Topic(e) => write!(f, "topic error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<octopus_graph::GraphError> for CoreError {
    fn from(e: octopus_graph::GraphError) -> Self {
        CoreError::Graph(e)
    }
}

impl From<octopus_topics::TopicError> for CoreError {
    fn from(e: octopus_topics::TopicError) -> Self {
        CoreError::Topic(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::NoKnownKeywords {
            unknown: vec!["blorp".into()],
        };
        assert!(e.to_string().contains("blorp"));
        assert!(CoreError::ZeroK.to_string().contains("at least 1"));
        let e: CoreError = octopus_topics::TopicError::EmptyKeywordSet.into();
        assert!(e.to_string().contains("topic error"));
    }
}
