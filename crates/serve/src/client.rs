//! A small blocking client for the serving protocol — used by the
//! example, the equivalence tests, and the load generator.
//!
//! The client is resilient by default: every request is read-only
//! (searches, stats, ping, health), so a transport failure — connection
//! refused, reset, torn frame, socket timeout — is retried against a
//! fresh connection under a capped jittered exponential backoff
//! ([`RetryPolicy`]). Typed server responses (overloaded, bad request,
//! deadline exceeded, internal error) are **not** retried: the server
//! answered; retrying is the caller's policy decision. The one exception
//! is a draining server's refusal, replayed because a replacement may be
//! coming up on the same address.

use crate::metrics::StatsReport;
use crate::protocol::{Framed, HealthReport, Request, Response, SearchRef};
use climber_core::error::status;
use climber_core::{ClimberError, QueryOutcome, SearchRequest, ServeError};
use climber_dfs::format::Encode;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::thread;
use std::time::Duration;

/// Reconnect/retry policy for transport failures: capped exponential
/// backoff with deterministic jitter. Attempt `n` (0-based) sleeps
/// `min(cap, base * 2^n)` scaled by a jitter factor in `[0.5, 1.0)` —
/// jitter spreads a thundering herd of clients reconnecting to a
/// restarted server.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast on any transport
    /// error).
    pub max_retries: u32,
    /// First backoff delay.
    pub base: Duration,
    /// Upper bound on any single backoff delay.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 5,
            base: Duration::from_millis(20),
            cap: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// The jittered delay before retry `attempt` (0-based). `jitter` is a
    /// raw random word; only its low bits are used.
    fn delay(&self, attempt: u32, jitter: u64) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cap);
        // scale into [0.5, 1.0): half deterministic floor, half jitter
        let frac = 0.5 + (jitter & 0xFFFF) as f64 / (2.0 * 65536.0);
        exp.mul_f64(frac)
    }
}

/// One logical connection to a [`Server`](crate::server::Server):
/// requests go out one frame at a time, responses come back in order.
/// Underneath, the TCP stream is re-established on demand — a client
/// created before a server restart keeps working across it, replaying
/// the in-flight read-only request per [`RetryPolicy`].
#[derive(Debug)]
pub struct ServeClient {
    addrs: Vec<SocketAddr>,
    stream: Option<Framed<TcpStream>>,
    retry: RetryPolicy,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    /// xorshift64* state for backoff jitter; deterministic per client.
    jitter_state: u64,
}

impl ServeClient {
    /// Connects to a serving instance. Fails fast if no address is
    /// reachable right now; transient failures later are retried per
    /// [`RetryPolicy`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClimberError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "address resolved to nothing",
            )
            .into());
        }
        let mut client = Self {
            // Seed from the target address so two clients of different
            // servers never share a jitter sequence, yet runs reproduce.
            jitter_state: 0x9E37_79B9_7F4A_7C15 ^ u64::from(addrs[0].port()),
            addrs,
            stream: None,
            retry: RetryPolicy::default(),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
        };
        client.reconnect()?;
        Ok(client)
    }

    /// Replaces the transport retry policy.
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the socket read timeout (response wait bound; default 30 s).
    /// `None` blocks forever. Applies to the current connection and every
    /// reconnect after it.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClimberError> {
        self.read_timeout = timeout;
        if let Some(s) = &self.stream {
            s.get_ref().set_read_timeout(timeout)?;
        }
        Ok(())
    }

    /// Sets the socket write timeout (request send bound; default 30 s).
    /// `None` blocks forever. Applies to the current connection and every
    /// reconnect after it.
    pub fn set_write_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClimberError> {
        self.write_timeout = timeout;
        if let Some(s) = &self.stream {
            s.get_ref().set_write_timeout(timeout)?;
        }
        Ok(())
    }

    /// Executes one search on the server. The outcome is bit-identical to
    /// calling [`Climber::search`] locally with the same request; typed
    /// failures ([`ServeError::Overloaded`], [`ServeError::ShuttingDown`],
    /// [`ServeError::DeadlineExceeded`], [`ServeError::Internal`], bad
    /// requests) come back as the matching error variant. Searches are read-only, so a transport
    /// failure mid-request is replayed on a fresh connection — a server
    /// killed and restarted between calls (or mid-call) costs retries,
    /// never a wrong or duplicated answer.
    ///
    /// [`Climber::search`]: climber_core::Climber::search
    pub fn search(&mut self, req: &SearchRequest) -> Result<QueryOutcome, ClimberError> {
        match self.request(&SearchRef(req))? {
            Response::Outcome(outcome) => Ok(outcome),
            Response::Error { status, message } => {
                Err(ServeError::from_wire(status, message).into())
            }
            other => Err(
                ServeError::Protocol(format!("expected outcome or error, got {other:?}")).into(),
            ),
        }
    }

    /// Fetches the server's metrics snapshot.
    pub fn stats(&mut self) -> Result<StatsReport, ClimberError> {
        match self.request(&Request::Stats)? {
            Response::Stats(report) => Ok(report),
            Response::Error { status, message } => {
                Err(ServeError::from_wire(status, message).into())
            }
            other => Err(ServeError::Protocol(format!("expected stats, got {other:?}")).into()),
        }
    }

    /// Fetches the server's health: backend shard/quarantine state plus
    /// queue depth — the endpoint a load balancer polls.
    pub fn health(&mut self) -> Result<HealthReport, ClimberError> {
        match self.request(&Request::Health)? {
            Response::Health(report) => Ok(report),
            Response::Error { status, message } => {
                Err(ServeError::from_wire(status, message).into())
            }
            other => Err(ServeError::Protocol(format!("expected health, got {other:?}")).into()),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClimberError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ServeError::Protocol(format!("expected pong, got {other:?}")).into()),
        }
    }

    /// Sends one request frame and reads the response, replaying the
    /// exchange on a fresh connection after transport failures. Every
    /// protocol request is read-only, so the replay cannot duplicate
    /// work the caller observes.
    fn request(&mut self, msg: &impl Encode) -> Result<Response, ClimberError> {
        let mut attempt = 0u32;
        loop {
            match self.try_once(msg) {
                Ok(resp) => {
                    // A draining server refused the request without
                    // executing it — the one typed answer worth retrying,
                    // because a replacement may be coming up on the same
                    // address (rolling restart). Reconnect and replay.
                    let draining = matches!(
                        &resp,
                        Response::Error { status: s, .. } if *s == status::SHUTTING_DOWN
                    );
                    if !draining || attempt >= self.retry.max_retries {
                        return Ok(resp);
                    }
                    self.stream = None;
                    let jitter = self.next_jitter();
                    thread::sleep(self.retry.delay(attempt, jitter));
                    attempt += 1;
                }
                Err(e) => {
                    // Typed server answers are definitive — only transport
                    // failures (I/O, torn frames) mean "try another
                    // connection".
                    let transport = matches!(
                        e,
                        ClimberError::Io(_) | ClimberError::Serve(ServeError::Protocol(_))
                    );
                    if !transport || attempt >= self.retry.max_retries {
                        return Err(e);
                    }
                    self.stream = None;
                    let jitter = self.next_jitter();
                    thread::sleep(self.retry.delay(attempt, jitter));
                    attempt += 1;
                }
            }
        }
    }

    fn try_once(&mut self, msg: &impl Encode) -> Result<Response, ClimberError> {
        if self.stream.is_none() {
            self.reconnect()?;
        }
        let stream = self.stream.as_mut().expect("just connected");
        let result = stream.write_message(msg).and_then(|()| {
            stream.read_message::<Response>()?.ok_or_else(|| {
                ServeError::Protocol("server closed the connection mid-request".into()).into()
            })
        });
        if result.is_err() {
            // The stream is unsynchronised (torn frame) or dead; never
            // reuse it.
            self.stream = None;
        }
        result
    }

    fn reconnect(&mut self) -> Result<(), ClimberError> {
        let mut last: Option<io::Error> = None;
        for addr in &self.addrs {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(self.read_timeout)?;
                    stream.set_write_timeout(self.write_timeout)?;
                    self.stream = Some(Framed::new(stream));
                    return Ok(());
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("addrs is non-empty").into())
    }

    fn next_jitter(&mut self) -> u64 {
        // xorshift64*: tiny, deterministic, plenty for backoff spreading.
        let mut x = self.jitter_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.jitter_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_and_jittered_into_the_lower_half() {
        let p = RetryPolicy {
            max_retries: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
        };
        // attempt 0: exp = 10ms, jitter scales into [5, 10) ms
        let d0 = p.delay(0, 0);
        assert_eq!(d0, Duration::from_millis(5));
        let d0j = p.delay(0, 0xFFFF);
        assert!(d0j < Duration::from_millis(10), "{d0j:?}");
        // large attempts saturate at the cap (scaled by jitter)
        let d9 = p.delay(9, 0xFFFF);
        assert!(d9 >= Duration::from_millis(50) && d9 < Duration::from_millis(100));
        // the shift guard: attempt numbers past 16 must not overflow
        let _ = p.delay(40, 1);
    }

    #[test]
    fn connect_to_nothing_fails_fast_with_io() {
        // port 1 on localhost: refused immediately, no server needed
        let err = ServeClient::connect("127.0.0.1:1").unwrap_err();
        assert!(matches!(err, ClimberError::Io(_)));
    }
}
