//! Error types for RStore operations.

use std::fmt;

use rdma::RdmaError;

/// Errors returned by RStore control- and data-path operations.
///
/// An error a master or memory server answers with crosses the wire as a
/// value (`proto`): `NameExists`, `NotFound`, `InsufficientCapacity`,
/// `NotEnoughServers`, `Protocol` and `Remote` arrive as themselves. The
/// others are only ever constructed by the side that observed them; a peer
/// hears of them as `Remote`. `Display` is for people — nothing parses it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RStoreError {
    /// An underlying verbs-layer failure.
    Rdma(RdmaError),
    /// `alloc` with a name that already exists.
    NameExists(String),
    /// `map`/`free` of a name the master does not know.
    NotFound(String),
    /// The cluster lacks contiguous free capacity for the request.
    InsufficientCapacity {
        /// Bytes that were requested.
        requested: u64,
    },
    /// Not enough *distinct* live servers to satisfy the replication factor.
    NotEnoughServers {
        /// Replicas requested.
        replicas: usize,
        /// Live servers available.
        available: usize,
    },
    /// The region has extents on servers the master believes are dead.
    Degraded(String),
    /// A data-path operation ran past the end of the region.
    OutOfRange {
        /// Offset of the access.
        offset: u64,
        /// Length of the access.
        len: u64,
        /// Size of the region.
        size: u64,
    },
    /// A malformed control message (version skew or corruption).
    Protocol(String),
    /// The remote side answered with an application-level error that has no
    /// variant of its own — its own transport failing included.
    Remote(String),
    /// A data-path operation failed on the wire (timeout / flushed QP).
    Io(rdma::CqStatus),
    /// A checksummed READ failed verification on every reachable replica.
    CorruptionDetected {
        /// Node holding the last replica that failed verification.
        node: u32,
        /// Region the access targeted.
        region: String,
        /// Stripe index (offset / stripe_size) that failed.
        stripe: u64,
    },
}

impl fmt::Display for RStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RStoreError::Rdma(e) => write!(f, "rdma: {e}"),
            RStoreError::NameExists(n) => write!(f, "region name already exists: {n:?}"),
            RStoreError::NotFound(n) => write!(f, "no such region: {n:?}"),
            RStoreError::InsufficientCapacity { requested } => {
                write!(f, "cluster cannot satisfy allocation of {requested} bytes")
            }
            RStoreError::NotEnoughServers {
                replicas,
                available,
            } => write!(
                f,
                "replication factor {replicas} exceeds live servers ({available})"
            ),
            RStoreError::Degraded(n) => {
                write!(f, "region {n:?} is degraded (memory server down)")
            }
            RStoreError::OutOfRange { offset, len, size } => {
                write!(
                    f,
                    "access [{offset}, +{len}) outside region of {size} bytes"
                )
            }
            RStoreError::Protocol(m) => write!(f, "protocol error: {m}"),
            RStoreError::Remote(m) => write!(f, "remote error: {m}"),
            RStoreError::Io(s) => write!(f, "io failed with completion status {s:?}"),
            RStoreError::CorruptionDetected {
                node,
                region,
                stripe,
            } => write!(
                f,
                "corruption detected in region {region:?}: stripe {stripe} unreadable (last replica on node {node})"
            ),
        }
    }
}

impl std::error::Error for RStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RStoreError::Rdma(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RdmaError> for RStoreError {
    fn from(e: RdmaError) -> Self {
        RStoreError::Rdma(e)
    }
}

/// Result alias for RStore operations.
pub type Result<T> = std::result::Result<T, RStoreError>;

/// Classifies an error for the black-box flight recorder: `Some(reason)`
/// for the structured failures worth a triage bundle (corruption, wire
/// timeout, failover exhaustion, capacity exhaustion), `None` for ordinary
/// control-path outcomes (name clashes, out-of-range accesses, …) that a
/// caller handles inline.
pub fn forensic_reason(e: &RStoreError) -> Option<&'static str> {
    match e {
        RStoreError::CorruptionDetected { .. } => Some("corruption"),
        RStoreError::Io(rdma::CqStatus::Timeout) => Some("timeout"),
        RStoreError::Io(_) => Some("io_failover_exhausted"),
        RStoreError::InsufficientCapacity { .. } => Some("insufficient_capacity"),
        RStoreError::Rdma(RdmaError::Timeout) => Some("timeout"),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RStoreError::OutOfRange {
            offset: 10,
            len: 20,
            size: 16,
        };
        assert!(e.to_string().contains("[10, +20)"));
        let e: RStoreError = RdmaError::Timeout.into();
        assert!(e.to_string().contains("timed out"));
    }

    #[test]
    fn forensic_reason_classifies_structured_errors() {
        assert_eq!(
            forensic_reason(&RStoreError::Io(rdma::CqStatus::Timeout)),
            Some("timeout")
        );
        assert_eq!(
            forensic_reason(&RStoreError::Io(rdma::CqStatus::Flushed)),
            Some("io_failover_exhausted")
        );
        assert_eq!(
            forensic_reason(&RStoreError::InsufficientCapacity { requested: 1 }),
            Some("insufficient_capacity")
        );
        assert_eq!(
            forensic_reason(&RStoreError::CorruptionDetected {
                node: 1,
                region: "r".into(),
                stripe: 0,
            }),
            Some("corruption")
        );
        assert_eq!(forensic_reason(&RStoreError::NotFound("x".into())), None);
        assert_eq!(
            forensic_reason(&RStoreError::OutOfRange {
                offset: 0,
                len: 1,
                size: 0,
            }),
            None
        );
    }

    #[test]
    fn source_chains_rdma_errors() {
        use std::error::Error;
        let e = RStoreError::Rdma(RdmaError::AccessDenied);
        assert!(e.source().is_some());
        assert!(RStoreError::NotFound("x".into()).source().is_none());
    }
}
