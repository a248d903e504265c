//! Runtime error type.

use core::fmt;

/// Errors from the networked runtime. Undecodable datagrams are not
/// errors: the runtime drops them as loss, per the gossip model.
#[derive(Debug)]
pub enum NetError {
    /// Socket creation/configuration or polling failed.
    Io(std::io::Error),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}
