use snapedge_tensor::TensorError;
use std::fmt;

/// Error type for network construction, parameter handling and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum DnnError {
    /// A builder constraint was violated (bad wiring, duplicate names, ...).
    Build(String),
    /// A node id referenced a node that does not exist.
    UnknownNode(String),
    /// A named cut point does not exist in the network.
    UnknownCut(String),
    /// Parameters were missing or had the wrong shape for a node.
    Params {
        /// Node whose parameters are bad.
        node: String,
        /// Why they were rejected.
        reason: String,
    },
    /// A tensor kernel failed during forward execution.
    Tensor(TensorError),
    /// Model bundle decoding failed.
    Format(String),
    /// A layer's FLOPs or parameter file bytes, or the network's running
    /// totals of them, do not fit in 64 bits.
    TooLarge {
        /// The layer that overflowed.
        node: String,
    },
}

impl fmt::Display for DnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnnError::Build(msg) => write!(f, "network build error: {msg}"),
            DnnError::UnknownNode(name) => write!(f, "unknown node {name:?}"),
            DnnError::UnknownCut(name) => write!(f, "unknown cut point {name:?}"),
            DnnError::Params { node, reason } => {
                write!(f, "bad parameters for node {node:?}: {reason}")
            }
            DnnError::Tensor(e) => write!(f, "tensor error: {e}"),
            DnnError::Format(msg) => write!(f, "model format error: {msg}"),
            DnnError::TooLarge { node } => {
                write!(
                    f,
                    "node {node:?}: FLOPs or parameter bytes overflow 64 bits"
                )
            }
        }
    }
}

impl std::error::Error for DnnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DnnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for DnnError {
    fn from(e: TensorError) -> Self {
        DnnError::Tensor(e)
    }
}
