//! Shared helpers for the service integration tests: a minimal HTTP/1.1
//! client over `std::net` (responses are read with the crate's own
//! [`read_response`]) and temp-dir plumbing.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dcs_service::read_response;

/// A unique scratch directory per call; callers clean up on success.
/// Not every test binary uses it.
#[allow(dead_code)]
pub fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("dcs-service-{}-{}-{}", tag, std::process::id(), n))
}

/// How long a test waits on any one response.
const RESPONSE_DEADLINE: Duration = Duration::from_secs(30);

/// Reads one response with the crate's own reader; returns
/// `(status, body)`.
fn read(reader: &mut BufReader<TcpStream>) -> (u16, String) {
    let (status, body, _) = read_response(reader, RESPONSE_DEADLINE).expect("response");
    (status, String::from_utf8(body).expect("utf8 body"))
}

/// Opens a loopback connection with the tests' read deadline.
fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(RESPONSE_DEADLINE))
        .expect("read timeout");
    stream
}

/// One `connection: close` exchange; returns `(status, body)`. Not every
/// test binary uses it.
#[allow(dead_code)]
pub fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut stream = connect(addr);
    let body = body.unwrap_or("");
    let message = format!(
        "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes()).expect("write request");
    read(&mut BufReader::new(stream))
}

/// `POST /step` with the given demand; returns `(status, body)`. Not
/// every test binary uses it.
#[allow(dead_code)]
pub fn step(addr: SocketAddr, demand: f64) -> (u16, String) {
    request(
        addr,
        "POST",
        "/step",
        Some(&format!(r#"{{"demand":{demand:?}}}"#)),
    )
}

/// A persistent keep-alive connection. Not every test binary uses it.
#[allow(dead_code)]
pub struct KeepAlive {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

#[allow(dead_code)]
impl KeepAlive {
    pub fn connect(addr: SocketAddr) -> KeepAlive {
        let stream = connect(addr);
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        KeepAlive {
            writer: stream,
            reader,
        }
    }

    /// One keep-alive exchange; returns `(status, body)`.
    pub fn send(&mut self, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
        let body = body.unwrap_or("");
        let message = format!(
            "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer
            .write_all(message.as_bytes())
            .expect("write request");
        read(&mut self.reader)
    }

    pub fn get(&mut self, path: &str) -> (u16, String) {
        self.send("GET", path, None)
    }
}
