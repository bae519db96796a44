use std::fmt;

/// Error type for tensor construction and kernel execution.
///
/// Every fallible operation in this crate returns `Result<_, TensorError>`.
/// The variants carry enough context to diagnose shape mismatches without a
/// debugger, which matters because the DNN crate assembles layer graphs
/// programmatically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The number of data elements does not match the product of the shape
    /// dimensions.
    LengthMismatch {
        /// Product of the requested dimensions.
        expected: usize,
        /// Number of elements actually supplied.
        actual: usize,
    },
    /// A shape with zero dimensions or a zero-sized dimension was supplied
    /// where a non-empty tensor is required.
    EmptyShape,
    /// Two tensors that must agree in shape do not.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        left: Vec<usize>,
        /// Shape of the right-hand operand.
        right: Vec<usize>,
    },
    /// A tensor had the wrong rank for the requested kernel
    /// (e.g. `conv2d` requires a rank-3 input and rank-4 weights).
    RankMismatch {
        /// Operation that was attempted.
        op: &'static str,
        /// Rank the kernel requires.
        expected: usize,
        /// Rank of the supplied tensor.
        actual: usize,
    },
    /// Kernel hyper-parameters are invalid (zero stride, kernel larger than
    /// padded input, channel-count disagreement, ...).
    InvalidKernel {
        /// Operation that was attempted.
        op: &'static str,
        /// Human-readable reason.
        reason: String,
    },
    /// An index was out of bounds for the tensor's shape.
    IndexOutOfBounds {
        /// The offending index.
        index: Vec<usize>,
        /// The tensor's dimensions.
        dims: Vec<usize>,
    },
    /// Binary deserialization failed (truncated or malformed buffer).
    Decode(String),
    /// The element count of a shape, or the byte length of its data, does
    /// not fit in a `usize`.
    TooLarge {
        /// The dimensions whose product overflows.
        dims: Vec<usize>,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => write!(
                f,
                "data length {actual} does not match shape volume {expected}"
            ),
            TensorError::EmptyShape => write!(f, "shape must be non-empty with non-zero dims"),
            TensorError::ShapeMismatch { left, right } => {
                write!(f, "shape mismatch: {left:?} vs {right:?}")
            }
            TensorError::RankMismatch {
                op,
                expected,
                actual,
            } => write!(f, "{op}: expected rank {expected}, got rank {actual}"),
            TensorError::InvalidKernel { op, reason } => write!(f, "{op}: {reason}"),
            TensorError::IndexOutOfBounds { index, dims } => {
                write!(f, "index {index:?} out of bounds for dims {dims:?}")
            }
            TensorError::Decode(msg) => write!(f, "decode error: {msg}"),
            TensorError::TooLarge { dims } => {
                write!(f, "the element count of dims {dims:?} overflows")
            }
        }
    }
}

impl std::error::Error for TensorError {}
