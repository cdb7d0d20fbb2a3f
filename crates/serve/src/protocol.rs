//! The wire protocol: length-prefixed frames over TCP, bodies encoded with
//! the `climber_dfs::format` codec.
//!
//! ## Frame layout
//!
//! ```text
//! +----------------+---------------------------+
//! | length: u32 LE | payload (length bytes)    |
//! +----------------+---------------------------+
//! payload = tag: u8 | body (tag-specific codec bytes)
//! ```
//!
//! Requests: `REQ_SEARCH` carries a [`SearchRequest`]; `REQ_STATS` and
//! `REQ_PING` carry no body. Responses: `RESP_OK` carries a
//! [`QueryOutcome`], `RESP_ERR` a status byte plus a length-prefixed
//! UTF-8 message, `RESP_STATS` a [`StatsReport`], `RESP_PONG` nothing.
//!
//! Frames above [`MAX_FRAME`] are refused before allocation, and every
//! decode error is a typed [`ServeError::Protocol`] — a malformed client
//! can never panic a connection handler.
//!
//! Both ends hold their stream in a [`Framed`]: a frame goes out as one
//! `write` (length prefix and payload encoded into one reused buffer) and
//! normally comes in as one `read` (header and payload land in the read
//! buffer together; bytes past the frame wait there for the next one).

use crate::metrics::StatsReport;
use climber_core::error::status;
use climber_core::{BackendHealth, ClimberError, QueryOutcome, SearchRequest, ServeError};
use climber_dfs::format::{ByteReader, Decode, Encode};
use std::io::{BufReader, Read, Write};

/// Hard cap on a frame's payload size (64 MiB): large enough for any
/// realistic query or outcome, small enough that a hostile length prefix
/// cannot balloon allocation.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Request tag: a [`SearchRequest`] follows.
pub const REQ_SEARCH: u8 = 1;
/// Request tag: return a [`StatsReport`]; no body.
pub const REQ_STATS: u8 = 2;
/// Request tag: liveness probe; no body.
pub const REQ_PING: u8 = 3;
/// Request tag: return a [`HealthReport`]; no body.
pub const REQ_HEALTH: u8 = 4;

/// Response tag: a [`QueryOutcome`] follows.
pub const RESP_OK: u8 = 1;
/// Response tag: status byte + length-prefixed UTF-8 message.
pub const RESP_ERR: u8 = 2;
/// Response tag: a [`StatsReport`] follows.
pub const RESP_STATS: u8 = 3;
/// Response tag: pong; no body.
pub const RESP_PONG: u8 = 4;
/// Response tag: a [`HealthReport`] follows.
pub const RESP_HEALTH: u8 = 5;

/// One decoded client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute a search.
    Search(SearchRequest),
    /// Return serving metrics.
    Stats,
    /// Liveness probe.
    Ping,
    /// Return the backend's recovery health.
    Health,
}

/// What the health endpoint answers: the backend's shard/quarantine state
/// plus the admission queue's depth — everything a load balancer needs to
/// tell a degraded node from a healthy one without issuing a real query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthReport {
    /// The backend's shard liveness and quarantine counts.
    pub backend: BackendHealth,
    /// Admission-queue depth at snapshot time.
    pub queue_depth: u64,
    /// Bytes resident in the backend's block cache (0 without one) — a
    /// cheap warmth signal: a balancer draining-in a node can hold back
    /// until the cache fills.
    pub cache_resident_bytes: u64,
}

impl HealthReport {
    /// True when nothing is dead, quarantined, or queued over capacity.
    pub fn is_healthy(&self) -> bool {
        self.backend.is_healthy()
    }
}

impl Encode for HealthReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.backend.shards.encode(out);
        self.backend.dead_shards.encode(out);
        self.backend.quarantined_partitions.encode(out);
        self.queue_depth.encode(out);
        self.cache_resident_bytes.encode(out);
    }
}

impl Decode for HealthReport {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, String> {
        Ok(Self {
            backend: BackendHealth {
                shards: r.u32()?,
                dead_shards: r.u32()?,
                quarantined_partitions: r.u64()?,
            },
            queue_depth: r.u64()?,
            cache_resident_bytes: r.u64()?,
        })
    }
}

/// One decoded server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The outcome of a successfully executed search.
    Outcome(QueryOutcome),
    /// A typed failure: wire status code + human-readable message.
    Error {
        /// One of the [`status`] codes.
        status: u8,
        /// Human-readable detail.
        message: String,
    },
    /// Serving metrics.
    Stats(StatsReport),
    /// Liveness answer.
    Pong,
    /// The backend's recovery health.
    Health(HealthReport),
}

/// [`Request::Search`] by reference: the same bytes on the wire, without
/// owning (so without cloning) the caller's request.
#[derive(Debug, Clone, Copy)]
pub struct SearchRef<'a>(pub &'a SearchRequest);

impl Encode for SearchRef<'_> {
    fn encode(&self, out: &mut Vec<u8>) {
        REQ_SEARCH.encode(out);
        self.0.encode(out);
    }
}

impl Encode for Request {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Search(req) => SearchRef(req).encode(out),
            Request::Stats => REQ_STATS.encode(out),
            Request::Ping => REQ_PING.encode(out),
            Request::Health => REQ_HEALTH.encode(out),
        }
    }
}

impl Decode for Request {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, String> {
        match r.u8()? {
            REQ_SEARCH => Ok(Request::Search(SearchRequest::decode(r)?)),
            REQ_STATS => Ok(Request::Stats),
            REQ_PING => Ok(Request::Ping),
            REQ_HEALTH => Ok(Request::Health),
            other => Err(format!("unknown request tag {other}")),
        }
    }
}

impl Encode for Response {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Outcome(o) => {
                RESP_OK.encode(out);
                o.encode(out);
            }
            Response::Error { status, message } => {
                RESP_ERR.encode(out);
                status.encode(out);
                message.as_bytes().encode(out);
            }
            Response::Stats(s) => {
                RESP_STATS.encode(out);
                s.encode(out);
            }
            Response::Pong => RESP_PONG.encode(out),
            Response::Health(h) => {
                RESP_HEALTH.encode(out);
                h.encode(out);
            }
        }
    }
}

impl Decode for Response {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, String> {
        match r.u8()? {
            RESP_OK => Ok(Response::Outcome(QueryOutcome::decode(r)?)),
            RESP_ERR => {
                let status = r.u8()?;
                let bytes = Vec::<u8>::decode(r)?;
                let message = String::from_utf8(bytes).map_err(|_| "error message is not UTF-8")?;
                Ok(Response::Error { status, message })
            }
            RESP_STATS => Ok(Response::Stats(StatsReport::decode(r)?)),
            RESP_PONG => Ok(Response::Pong),
            RESP_HEALTH => Ok(Response::Health(HealthReport::decode(r)?)),
            other => Err(format!("unknown response tag {other}")),
        }
    }
}

/// Bytes of the `u32` LE length prefix.
const HEADER: usize = 4;

/// Encodes `msg` as one frame into `frame` — its previous content is
/// dropped, its capacity reused — and writes it with a single `write_all`:
/// the payload is encoded behind a placeholder for the length prefix,
/// which is filled in once the length is known.
fn write_message(
    w: &mut impl Write,
    frame: &mut Vec<u8>,
    msg: &impl Encode,
) -> Result<(), ClimberError> {
    frame.clear();
    frame.extend_from_slice(&[0; HEADER]);
    msg.encode(frame);
    let len = frame.len() - HEADER;
    if len as u64 > MAX_FRAME as u64 {
        return Err(ServeError::Protocol(format!(
            "outgoing frame of {len} bytes exceeds MAX_FRAME"
        ))
        .into());
    }
    frame[..HEADER].copy_from_slice(&(len as u32).to_le_bytes());
    w.write_all(frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame's payload. `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed the connection); any mid-frame truncation,
/// oversized length, or I/O failure is an error. Reads exactly the frame
/// and no further, so over a bare socket that is two or more `read`s — a
/// connection reads through its [`Framed`] buffer instead.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ClimberError> {
    let mut len_buf = [0u8; 4];
    // Distinguish "no next frame" from "torn frame": EOF before the first
    // header byte is a clean close, EOF after it is truncation.
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(ServeError::Protocol("EOF inside frame header".into()).into());
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(ServeError::Protocol(format!(
            "frame of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        ))
        .into());
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|e| ServeError::Protocol(format!("EOF inside frame body: {e}")))?;
    Ok(Some(payload))
}

/// Reads and decodes one message. `Ok(None)` on clean EOF.
pub fn read_message<T: Decode>(r: &mut impl Read) -> Result<Option<T>, ClimberError> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    let msg =
        T::decode_vec(&payload).map_err(|e| ServeError::Protocol(format!("bad frame: {e}")))?;
    Ok(Some(msg))
}

/// The largest frame buffer a connection keeps between replies: a frame
/// that grew it past this releases it, so one huge reply does not pin its
/// capacity for the connection's lifetime.
const RETAINED_FRAME: usize = 64 * 1024;

/// One end of a connection: the stream, a read buffer in front of it and
/// the buffer outgoing frames are built in — both reused for every frame
/// the connection carries (the frame buffer up to 64 KiB).
#[derive(Debug)]
pub struct Framed<S> {
    reader: BufReader<S>,
    frame: Vec<u8>,
}

impl<S: Read + Write> Framed<S> {
    /// Wraps a connected stream.
    pub fn new(stream: S) -> Self {
        Self {
            reader: BufReader::new(stream),
            frame: Vec::new(),
        }
    }

    /// The stream underneath (for socket options and `shutdown`).
    pub fn get_ref(&self) -> &S {
        self.reader.get_ref()
    }

    /// Encodes one message into the connection's frame buffer and writes
    /// it as one frame: one `write` on the stream.
    pub fn write_message(&mut self, msg: &impl Encode) -> Result<(), ClimberError> {
        let written = write_message(self.reader.get_mut(), &mut self.frame, msg);
        if self.frame.capacity() > RETAINED_FRAME {
            self.frame = Vec::new();
        }
        written
    }

    /// Reads and decodes one message through the read buffer; `Ok(None)`
    /// on clean EOF (see [`read_message`]).
    pub fn read_message<T: Decode>(&mut self) -> Result<Option<T>, ClimberError> {
        read_message(&mut self.reader)
    }
}

/// Builds the error [`Response`] for a facade error, preserving its typed
/// wire status.
pub fn error_response(e: &ClimberError) -> Response {
    Response::Error {
        status: e.wire_status(),
        message: e.to_string(),
    }
}

/// Builds the bad-request [`Response`] for a validation failure.
pub fn bad_request(message: String) -> Response {
    Response::Error {
        status: status::BAD_REQUEST,
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use climber_core::query::QueryPlan;
    use climber_core::SearchMode;

    // The call shapes these tests were written against: a frame written in
    // one call with no buffer to pass. They shadow the glob import, so the
    // test bodies below read exactly as they did before `Framed`.
    fn write_message(w: &mut Vec<u8>, msg: &impl Encode) -> Result<(), ClimberError> {
        super::write_message(w, &mut Vec::new(), msg)
    }

    struct Raw<'a>(&'a [u8]);

    impl Encode for Raw<'_> {
        fn encode(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(self.0);
        }
    }

    fn write_frame(w: &mut Vec<u8>, payload: &[u8]) -> Result<(), ClimberError> {
        write_message(w, &Raw(payload))
    }

    fn sample_request() -> Request {
        Request::Search(
            SearchRequest::new(vec![1.0f32, -2.5, 0.25], 7)
                .adaptive(2)
                .with_budget(9),
        )
    }

    #[test]
    fn requests_roundtrip_through_frames() {
        let mut wire = Vec::new();
        for msg in [
            sample_request(),
            Request::Stats,
            Request::Ping,
            Request::Health,
        ] {
            write_message(&mut wire, &msg).unwrap();
        }
        let mut r = &wire[..];
        let a: Request = read_message(&mut r).unwrap().unwrap();
        let b: Request = read_message(&mut r).unwrap().unwrap();
        let c: Request = read_message(&mut r).unwrap().unwrap();
        let d: Request = read_message(&mut r).unwrap().unwrap();
        match a {
            Request::Search(req) => {
                assert_eq!(req.k, 7);
                assert_eq!(req.mode, SearchMode::Adaptive(2));
                assert_eq!(req.budget, Some(9));
            }
            other => panic!("wrong decode: {other:?}"),
        }
        assert_eq!(b, Request::Stats);
        assert_eq!(c, Request::Ping);
        assert_eq!(d, Request::Health);
        // clean EOF at the frame boundary
        assert!(read_message::<Request>(&mut r).unwrap().is_none());
    }

    #[test]
    fn health_reports_roundtrip() {
        let report = HealthReport {
            backend: BackendHealth {
                shards: 4,
                dead_shards: 1,
                quarantined_partitions: 9,
            },
            queue_depth: 17,
            cache_resident_bytes: 64 * 1024,
        };
        assert!(!report.is_healthy());
        let mut wire = Vec::new();
        write_message(&mut wire, &Response::Health(report)).unwrap();
        let back: Response = read_message(&mut &wire[..]).unwrap().unwrap();
        assert_eq!(back, Response::Health(report));
    }

    #[test]
    fn error_responses_carry_status_and_message() {
        for (err, code, text) in [
            (ServeError::Overloaded, status::OVERLOADED, "overloaded"),
            (ServeError::Internal, status::INTERNAL, "panicked"),
        ] {
            let resp = error_response(&err.into());
            let mut wire = Vec::new();
            write_message(&mut wire, &resp).unwrap();
            let back: Response = read_message(&mut &wire[..]).unwrap().unwrap();
            match back {
                Response::Error { status: s, message } => {
                    assert_eq!(s, code);
                    assert!(message.contains(text), "{message}");
                }
                other => panic!("wrong decode: {other:?}"),
            }
        }
    }

    #[test]
    fn torn_frames_are_protocol_errors_not_eof() {
        let mut wire = Vec::new();
        write_message(&mut wire, &Request::Ping).unwrap();
        // cut inside the header and inside the body
        for cut in [2, wire.len() - 1] {
            let err = read_message::<Request>(&mut &wire[..cut]).unwrap_err();
            assert!(
                matches!(err, ClimberError::Serve(ServeError::Protocol(_))),
                "cut {cut}: {err:?}"
            );
        }
    }

    /// Every cut and every bit flip of a framed message decodes to an
    /// error or a value — never a panic — and every cut is an error.
    fn sweep<T: Encode + Decode + PartialEq + std::fmt::Debug>(msg: &T) {
        let mut wire = Vec::new();
        write_message(&mut wire, msg).unwrap();
        assert_eq!(
            read_message::<T>(&mut &wire[..]).unwrap().as_ref(),
            Some(msg)
        );
        assert!(read_message::<T>(&mut &wire[..0]).unwrap().is_none());
        for cut in 1..wire.len() {
            let torn = read_message::<T>(&mut &wire[..cut]);
            assert!(torn.is_err(), "cut {cut}: {torn:?}");
        }
        for (at, bit) in (0..wire.len()).flat_map(|at| (0..8).map(move |bit| (at, bit))) {
            let mut flipped = wire.clone();
            flipped[at] ^= 1 << bit;
            let _ = read_message::<T>(&mut &flipped[..]);
        }
    }

    #[test]
    fn every_cut_and_bit_flip_of_a_search_or_an_outcome_is_survived() {
        sweep(&sample_request());
        let mut plan = QueryPlan::default();
        for (pid, node) in [(6, 1), (2, 5), (6, 3), (4, 2), (4, 6)] {
            plan.add_read(pid, node);
        }
        plan.groups = vec![3, 1];
        assert_eq!(plan.num_partitions(), 3);
        sweep(&Response::Outcome(QueryOutcome {
            results: vec![(9, 0.0), (2, 1.25), (17, f64::MAX)],
            partitions_opened: 3,
            records_scanned: 314,
            plan,
        }));
    }

    #[test]
    fn oversized_frames_are_refused_before_allocation() {
        let mut wire = (MAX_FRAME + 1).to_le_bytes().to_vec();
        wire.extend_from_slice(&[0; 8]);
        let err = read_frame(&mut &wire[..]).unwrap_err();
        assert!(matches!(err, ClimberError::Serve(ServeError::Protocol(_))));
    }

    #[test]
    fn a_large_reply_does_not_pin_the_frame_buffer() {
        let large = Response::Outcome(QueryOutcome {
            results: (0..10_000u64).map(|id| (id, id as f64)).collect(),
            partitions_opened: 1,
            records_scanned: 10_000,
            plan: Default::default(),
        });
        let mut framed = Framed::new(std::io::Cursor::new(Vec::new()));
        framed.write_message(&large).unwrap();
        framed.write_message(&Response::Pong).unwrap();
        assert!(framed.frame.capacity() <= RETAINED_FRAME);
        let mut wire = &framed.get_ref().get_ref()[..];
        assert_eq!(read_message::<Response>(&mut wire).unwrap(), Some(large));
        assert_eq!(
            read_message::<Response>(&mut wire).unwrap(),
            Some(Response::Pong)
        );
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[99u8]).unwrap();
        assert!(read_message::<Request>(&mut &wire[..]).is_err());
        assert!(read_message::<Response>(&mut &wire[..]).is_err());
    }
}
