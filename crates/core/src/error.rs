//! The unified error surface of the facade.
//!
//! Before this module the facade mixed three conventions: build/save/update
//! paths returned `io::Result`, cold-start returned `Result<_, OpenError>`,
//! and the serving layer would have needed a third family. [`ClimberError`]
//! folds them into one top-level enum with `From` impls in every
//! direction, and maps each variant onto a stable wire status code so the
//! network protocol can carry any facade failure as a typed response.

use climber_dfs::manifest::OpenError;
use std::fmt;
use std::io;

/// Wire status codes for [`ClimberError`] / [`ServeError`]: a stable `u8`
/// per failure family, carried in the serving protocol's error responses.
pub mod status {
    /// Success (never carried by an error response).
    pub const OK: u8 = 0;
    /// The request failed validation ([`SearchRequest::validate`]).
    ///
    /// [`SearchRequest::validate`]: climber_query::search::SearchRequest::validate
    pub const BAD_REQUEST: u8 = 1;
    /// The admission queue was full; retry with backoff.
    pub const OVERLOADED: u8 = 2;
    /// The server is draining and accepts no new requests.
    pub const SHUTTING_DOWN: u8 = 3;
    /// A malformed frame or codec failure on the wire.
    pub const PROTOCOL: u8 = 4;
    /// An I/O failure underneath the index.
    pub const IO: u8 = 5;
    /// A cold-start validation failure ([`OpenError`]).
    ///
    /// [`OpenError`]: climber_dfs::manifest::OpenError
    pub const OPEN: u8 = 6;
    /// The request's per-request deadline expired before a worker
    /// answered; the search may still complete server-side, but the
    /// response was abandoned.
    pub const DEADLINE_EXCEEDED: u8 = 7;
    /// The backend panicked while executing the request's batch; the
    /// worker survived and keeps serving.
    pub const INTERNAL: u8 = 8;
}

/// Every way the facade can fail, in one enum.
///
/// Constructed via `From` from the layer-specific errors, so internal code
/// keeps its precise types and only the public boundary widens:
///
/// ```
/// use climber_core::ClimberError;
///
/// fn load(dir: &std::path::Path) -> Result<(), ClimberError> {
///     let bytes = std::fs::read(dir.join("manifest.clm"))?; // io::Error
///     let _ = bytes;
///     Ok(())
/// }
/// assert!(load(std::path::Path::new("/nonexistent")).is_err());
/// ```
#[derive(Debug)]
pub enum ClimberError {
    /// Cold-start validation failed (manifest, checksums, journal, ...).
    Open(OpenError),
    /// An I/O failure underneath a build, save, or update path.
    Io(io::Error),
    /// A serving-layer failure (queueing, protocol, remote status).
    Serve(ServeError),
}

impl ClimberError {
    /// The wire status code this error maps onto.
    pub fn wire_status(&self) -> u8 {
        match self {
            ClimberError::Open(_) => status::OPEN,
            ClimberError::Io(_) => status::IO,
            ClimberError::Serve(e) => e.wire_status(),
        }
    }
}

impl fmt::Display for ClimberError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClimberError::Open(e) => write!(f, "open failed: {e}"),
            ClimberError::Io(e) => write!(f, "I/O error: {e}"),
            ClimberError::Serve(e) => write!(f, "serving error: {e}"),
        }
    }
}

impl std::error::Error for ClimberError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClimberError::Open(e) => Some(e),
            ClimberError::Io(e) => Some(e),
            ClimberError::Serve(e) => Some(e),
        }
    }
}

impl From<OpenError> for ClimberError {
    fn from(e: OpenError) -> Self {
        ClimberError::Open(e)
    }
}

impl From<io::Error> for ClimberError {
    fn from(e: io::Error) -> Self {
        ClimberError::Io(e)
    }
}

impl From<ServeError> for ClimberError {
    fn from(e: ServeError) -> Self {
        ClimberError::Serve(e)
    }
}

/// Failures of the network serving layer.
///
/// Defined here (not in `climber-serve`) so [`ClimberError`] can embed it
/// without inverting the crate dependency: the server crate depends on the
/// facade, never the other way around. The overload and shutdown variants
/// are unit variants so callers can `match` on them for retry policy.
#[derive(Debug)]
pub enum ServeError {
    /// The admission queue was full — the typed backpressure response.
    /// The request was **not** enqueued; retry with backoff.
    Overloaded,
    /// The server is draining: in-flight requests finish, new ones are
    /// refused.
    ShuttingDown,
    /// The request failed validation before admission.
    BadRequest(String),
    /// The per-request deadline expired before the query executor answered.
    /// The request itself was valid and read-only; retrying is safe but a
    /// client should treat repeated deadline misses as overload.
    DeadlineExceeded,
    /// The backend panicked while executing this request's batch. The
    /// server caught it and keeps serving; the same request is likely to
    /// fail the same way, so clients do not retry it.
    Internal,
    /// A malformed or unexpected frame on the wire.
    Protocol(String),
    /// A failure reported by the remote server that is not one of the
    /// typed families above (e.g. a server-side I/O error).
    Remote {
        /// The wire status code the server sent.
        status: u8,
        /// The server's human-readable message.
        message: String,
    },
}

impl ServeError {
    /// The wire status code this error maps onto.
    pub fn wire_status(&self) -> u8 {
        match self {
            ServeError::Overloaded => status::OVERLOADED,
            ServeError::ShuttingDown => status::SHUTTING_DOWN,
            ServeError::BadRequest(_) => status::BAD_REQUEST,
            ServeError::DeadlineExceeded => status::DEADLINE_EXCEEDED,
            ServeError::Internal => status::INTERNAL,
            ServeError::Protocol(_) => status::PROTOCOL,
            ServeError::Remote { status, .. } => *status,
        }
    }

    /// Reconstructs the typed error a wire error response encodes, so a
    /// client `match`es the same variants a local caller would.
    pub fn from_wire(code: u8, message: String) -> Self {
        match code {
            status::OVERLOADED => ServeError::Overloaded,
            status::SHUTTING_DOWN => ServeError::ShuttingDown,
            status::BAD_REQUEST => ServeError::BadRequest(message),
            status::DEADLINE_EXCEEDED => ServeError::DeadlineExceeded,
            status::INTERNAL => ServeError::Internal,
            status::PROTOCOL => ServeError::Protocol(message),
            code => ServeError::Remote {
                status: code,
                message,
            },
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "admission queue full (overloaded)"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            ServeError::Internal => write!(f, "internal error: the backend panicked"),
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServeError::Remote { status, message } => {
                write!(f, "remote error (status {status}): {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_status_roundtrips_typed_variants() {
        let cases = [
            ServeError::Overloaded,
            ServeError::ShuttingDown,
            ServeError::BadRequest("k must be positive".into()),
            ServeError::DeadlineExceeded,
            ServeError::Internal,
            ServeError::Protocol("bad frame".into()),
        ];
        for e in cases {
            let code = e.wire_status();
            let back = ServeError::from_wire(code, e.to_string());
            assert_eq!(back.wire_status(), code);
            assert_eq!(std::mem::discriminant(&back), std::mem::discriminant(&e));
        }
        // unknown codes collapse into Remote but keep the status
        let r = ServeError::from_wire(status::IO, "disk died".into());
        assert_eq!(r.wire_status(), status::IO);
        assert!(matches!(r, ServeError::Remote { .. }));
    }

    #[test]
    fn climber_error_converts_from_every_layer() {
        let io_err: ClimberError = io::Error::other("boom").into();
        assert_eq!(io_err.wire_status(), status::IO);
        let open_err: ClimberError =
            OpenError::MissingManifest(std::path::PathBuf::from("/x")).into();
        assert_eq!(open_err.wire_status(), status::OPEN);
        let serve_err: ClimberError = ServeError::Overloaded.into();
        assert_eq!(serve_err.wire_status(), status::OVERLOADED);
        // Display + source chain are wired
        assert!(open_err.to_string().contains("open failed"));
        assert!(std::error::Error::source(&io_err).is_some());
    }
}
