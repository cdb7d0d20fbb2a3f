//! Framing over real sockets, under the buffered reader and the
//! one-write frame writer: requests that arrive in pieces or glued
//! together, frames that lie about their length or stop short, the bytes
//! on the wire compared with the ones the two-write encoder produced, and
//! a count of the `read`/`write` calls a frame costs at each end.

mod common;

use climber_core::error::status;
use climber_core::SearchRequest;
use climber_dfs::format::{Decode, Encode};
use climber_serve::protocol::{Framed, Request, Response, MAX_FRAME};
use climber_serve::{ServeConfig, Server};
use common::{build_climber, queries_of};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// A frame the way the parent's encoder built it: the payload encoded on
/// its own, then a length prefix in front.
fn frame_of(msg: &impl Encode) -> Vec<u8> {
    let payload = msg.encode_vec();
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    // a lost reply fails the test instead of hanging it
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
}

/// Reads one raw reply frame (header included) off the socket.
fn read_raw_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut frame = vec![0u8; 4];
    stream.read_exact(&mut frame).unwrap();
    let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    frame.resize(4 + len, 0);
    stream.read_exact(&mut frame[4..]).unwrap();
    frame
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

/// The error reply the server sends before dropping a torn connection.
fn read_protocol_error(stream: &mut TcpStream) -> String {
    let frame = read_raw_frame(stream);
    let Response::Error { status: s, message } = Response::decode_vec(&frame[4..]).unwrap() else {
        panic!("expected an error frame");
    };
    assert_eq!(s, status::PROTOCOL, "{message}");
    // ... and then the connection is gone
    assert_eq!(stream.read(&mut [0u8; 1]).unwrap(), 0, "not disconnected");
    message
}

#[test]
fn a_request_delivered_one_byte_per_write_is_answered() {
    let climber = build_climber(200, 67);
    let server =
        Server::start(Arc::clone(&climber), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let req = SearchRequest::new(queries_of(&climber, 1).remove(0), 4);
    let mut stream = connect(server.local_addr());
    for byte in frame_of(&Request::Search(req.clone())) {
        stream.write_all(&[byte]).unwrap();
    }
    let reply = read_raw_frame(&mut stream);
    assert_eq!(reply, frame_of(&Response::Outcome(climber.search(&req))));
    server.shutdown();
}

#[test]
fn two_requests_in_one_segment_are_both_answered_in_order() {
    let climber = build_climber(200, 69);
    let server =
        Server::start(Arc::clone(&climber), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let queries = queries_of(&climber, 2);
    let first = SearchRequest::new(queries[0].clone(), 3);
    let second = SearchRequest::new(queries[1].clone(), 7).exact();
    let mut stream = connect(server.local_addr());
    // One write carries both frames and a ping: whatever the handler's
    // first `read` picks up beyond the first frame must wait in its
    // buffer, not be dropped.
    let mut segment = frame_of(&Request::Search(first.clone()));
    segment.extend(frame_of(&Request::Search(second.clone())));
    segment.extend(frame_of(&Request::Ping));
    stream.write_all(&segment).unwrap();
    assert_eq!(
        read_raw_frame(&mut stream),
        frame_of(&Response::Outcome(climber.search(&first)))
    );
    assert_eq!(
        read_raw_frame(&mut stream),
        frame_of(&Response::Outcome(climber.search(&second)))
    );
    assert_eq!(read_raw_frame(&mut stream), frame_of(&Response::Pong));
    let stats = server.stats();
    assert_eq!((stats.admitted, stats.completed, stats.internal), (2, 2, 0));
    server.shutdown();
}

#[test]
fn an_oversized_header_is_refused_without_waiting_for_its_payload() {
    let climber = build_climber(200, 71);
    let server =
        Server::start(Arc::clone(&climber), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut stream = connect(server.local_addr());
    // Only the header is ever sent. A server that allocated and waited for
    // the 64 MiB + 1 it announces would sit in `read` until the timeout.
    stream.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
    let message = read_protocol_error(&mut stream);
    assert!(message.contains("exceeds MAX_FRAME"), "{message}");
    server.shutdown();
}

#[test]
fn eof_inside_the_header_and_inside_the_payload_stay_distinct() {
    let climber = build_climber(200, 73);
    let server =
        Server::start(Arc::clone(&climber), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let frame = frame_of(&Request::Search(SearchRequest::new(
        queries_of(&climber, 1).remove(0),
        4,
    )));
    for (cut, expected) in [
        (3, "EOF inside frame header"),
        (frame.len() - 5, "EOF inside frame body"),
    ] {
        let mut stream = connect(server.local_addr());
        stream.write_all(&frame[..cut]).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let message = read_protocol_error(&mut stream);
        assert!(message.contains(expected), "cut {cut}: {message}");
    }
    // EOF at a frame boundary is a clean close: no error frame, just EOF.
    let mut stream = connect(server.local_addr());
    stream.write_all(&frame_of(&Request::Ping)).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    assert_eq!(read_raw_frame(&mut stream), frame_of(&Response::Pong));
    assert_eq!(stream.read(&mut [0u8; 1]).unwrap(), 0);
    server.shutdown();
}

/// Request and reply frames captured from the commit before the frame
/// writer changed (its `write_message` into a `Vec`, its server's answer
/// read raw off the socket), over `build_climber(200, 71)`. Old clients
/// and new servers — and the reverse — meet on exactly these bytes.
#[test]
fn wire_bytes_are_the_parents() {
    const SEARCH: (&str, &str) = (
        "3b0000000108000000000000000000003f0000a0bf000000400000000000006040000040bf0000803f\
         0000803e030000000000000002020000000000000000",
        "7d000000010300000091000000000000009b4fa317cb377640c6000000000000004c196fbd774f7640\
         9700000000000000b25db50ed6697740010000000000000013000000000000000000000000000000\
         000000000000000000000000000000000000000001000000000000000100000000000000010000000000\
         000000000000",
    );
    const BAD_REQUEST: (&str, &str) = (
        "3b0000000108000000000000000000003f0000a0bf000000400000000000006040000040bf0000803f\
         0000803e000000000000000001040000000000000000",
        "1c000000020112000000000000006b206d75737420626520706f736974697665",
    );
    const PING: (&str, &str) = ("0100000003", "0100000004");

    let climber = build_climber(200, 71);
    let server =
        Server::start(Arc::clone(&climber), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let query = vec![0.5f32, -1.25, 2.0, 0.0, 3.5, -0.75, 1.0, 0.25];
    let search = SearchRequest::new(query.clone(), 3).resampled(2);
    let messages = [
        (Request::Search(search.clone()), SEARCH),
        (Request::Search(SearchRequest::new(query, 0)), BAD_REQUEST),
        (Request::Ping, PING),
    ];
    // through this commit's writer and reader, on one connection ...
    let mut conn = Framed::new(connect(server.local_addr()));
    for (msg, (request, reply)) in &messages {
        let mut sent = Vec::new();
        Framed::new(io::Cursor::new(&mut sent))
            .write_message(msg)
            .unwrap();
        assert_eq!(sent, unhex(request), "request bytes moved: {msg:?}");
        conn.write_message(msg).unwrap();
        let answer: Response = conn.read_message().unwrap().unwrap();
        assert_eq!(frame_of(&answer), unhex(reply), "reply moved: {msg:?}");
    }
    // ... and the captured bytes fed to the server as they are
    let mut stream = connect(server.local_addr());
    for (_, (request, reply)) in &messages {
        stream.write_all(&unhex(request)).unwrap();
        assert_eq!(read_raw_frame(&mut stream), unhex(reply));
    }
    let direct = frame_of(&Response::Outcome(climber.search(&search)));
    assert_eq!(direct, unhex(SEARCH.1), "the direct answer itself moved");
    server.shutdown();
}

/// Counts the calls that reach the stream underneath a [`Framed`].
struct Counting {
    stream: TcpStream,
    reads: usize,
    writes: usize,
}

impl Read for Counting {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
        self.stream.read(buf)
    }
}

impl Write for Counting {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

fn counting(stream: TcpStream) -> Framed<Counting> {
    stream.set_nodelay(true).unwrap();
    Framed::new(Counting {
        stream,
        reads: 0,
        writes: 0,
    })
}

#[test]
fn a_frame_costs_one_write_and_at_most_two_reads_at_each_end() {
    const ROUNDS: usize = 50;
    let climber = build_climber(200, 79);
    // a 1 KB request and its real answer: the frames the server carries
    let req = SearchRequest::new(queries_of(&climber, 1).remove(0), 10);
    let request = Request::Search(req.clone());
    let response = Response::Outcome(climber.search(&req));

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let echo = {
        let response = response.clone();
        thread::spawn(move || {
            let mut conn = counting(listener.accept().unwrap().0);
            while let Some(msg) = conn.read_message::<Request>().unwrap() {
                assert!(matches!(msg, Request::Search(_)));
                conn.write_message(&response).unwrap();
            }
            (conn.get_ref().reads, conn.get_ref().writes)
        })
    };
    let mut conn = counting(connect(addr));
    for _ in 0..ROUNDS {
        conn.write_message(&request).unwrap();
        let back: Response = conn.read_message().unwrap().unwrap();
        assert_eq!(back, response);
    }
    let (reads, writes) = (conn.get_ref().reads, conn.get_ref().writes);
    conn.get_ref().stream.shutdown(Shutdown::Write).unwrap();
    let (server_reads, server_writes) = echo.join().unwrap();

    // One `write` per frame, whoever sends it: the length prefix no longer
    // travels as a segment of its own.
    assert_eq!((writes, server_writes), (ROUNDS, ROUNDS));
    // A frame smaller than the read buffer takes one `read` when it
    // arrived whole and two when the kernel delivered it split; the two
    // reads per frame of the unbuffered reader were the floor before.
    assert!(reads <= 2 * ROUNDS, "{reads} reads for {ROUNDS} replies");
    // (the server's last read is the EOF)
    assert!(server_reads <= 2 * ROUNDS + 1, "{server_reads} reads");
    // In a strict ping-pong every frame is whole before it is read.
    assert!(reads < 2 * ROUNDS, "never one read per frame: {reads}");
}
