use snapedge_dnn::DnnError;
use snapedge_net::NetError;
use snapedge_tensor::TensorError;
use snapedge_webapp::WebError;
use std::fmt;

/// Error type for the offloading runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum OffloadError {
    /// Tensor-level failure.
    Tensor(TensorError),
    /// DNN engine failure.
    Dnn(DnnError),
    /// Web runtime / snapshot failure.
    Web(WebError),
    /// Network failure (possibly injected).
    Net(NetError),
    /// Protocol violation (e.g. snapshot before model on a server that
    /// requires pre-sending, unknown model, double ACK).
    Protocol(String),
    /// Configuration error (unknown strategy parameters, bad cut, ...).
    Config(String),
    /// Static effect analysis rejected the app before any bytes shipped:
    /// it reaches nondeterministic host APIs (clock/random/IO), so
    /// replaying its snapshot on another browser could diverge. This is
    /// a property of the *app*, not of one capture — no retry or server
    /// change can fix it.
    Analyze(snapedge_analyze::AnalyzeError),
}

impl fmt::Display for OffloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OffloadError::Tensor(e) => write!(f, "tensor: {e}"),
            OffloadError::Dnn(e) => write!(f, "dnn: {e}"),
            OffloadError::Web(e) => write!(f, "web: {e}"),
            OffloadError::Net(e) => write!(f, "net: {e}"),
            OffloadError::Protocol(msg) => write!(f, "protocol: {msg}"),
            OffloadError::Config(msg) => write!(f, "config: {msg}"),
            OffloadError::Analyze(e) => write!(f, "effect analysis: {e}"),
        }
    }
}

impl std::error::Error for OffloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OffloadError::Tensor(e) => Some(e),
            OffloadError::Dnn(e) => Some(e),
            OffloadError::Web(e) => Some(e),
            OffloadError::Net(e) => Some(e),
            OffloadError::Analyze(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for OffloadError {
    fn from(e: TensorError) -> Self {
        OffloadError::Tensor(e)
    }
}
impl From<DnnError> for OffloadError {
    fn from(e: DnnError) -> Self {
        OffloadError::Dnn(e)
    }
}
impl From<WebError> for OffloadError {
    fn from(e: WebError) -> Self {
        OffloadError::Web(e)
    }
}
impl From<NetError> for OffloadError {
    fn from(e: NetError) -> Self {
        OffloadError::Net(e)
    }
}
