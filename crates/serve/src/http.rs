//! A std-only HTTP/1.1 front end over the admission batcher.
//!
//! The build environment has no crates-registry access, so — like the
//! `crates/compat` shims — the server is hand-rolled on
//! [`std::net::TcpListener`]: an accept loop hands each connection to its
//! own thread, and every request a connection thread decodes is submitted
//! to the shared [`Batcher`], where concurrently arriving singles
//! coalesce into micro-batches for the tiled kernel.
//!
//! Routes:
//!
//! * `POST /query` — body `{"query": [...], "k": K, "p": P}`; answers
//!   `200` with `{"neighbors": [...], "distances": [...]}` or `400` with
//!   the typed error shape (see [`crate::wire`]).
//! * `GET /healthz` — `200` with backend kind, object count and
//!   dimensionality.
//! * `GET /info` — the full [`IndexInfo`](crate::api::IndexInfo) card
//!   (backend, len, dim, mutability, epoch).
//! * `POST /insert` — body `{"object": [...]}`; appends to a concurrent
//!   backend and answers `{"id": ..., "len": ..., "epoch": ...}`. Reads
//!   keep draining against their pinned epoch snapshots while the write
//!   applies — mutations go straight to the facade, never through the
//!   read batcher's admission queue.
//! * `POST /remove` — body `{"id": N}`; swap-removes the live id, same
//!   response shape. Both mutation routes answer
//!   `{"error": {"kind": "mutation_unsupported", ...}}` on the immutable
//!   backends and `"bad_id"` for a stale id.
//!
//! Whatever a client sends — garbage bytes, oversized bodies, malformed
//! JSON, out-of-range parameters — the connection answers with a typed
//! error (or drops a connection that cannot even carry a response) and
//! the process keeps serving. Request handling is additionally wrapped in
//! `catch_unwind`, so even a bug reached by a hostile payload answers
//! `500` instead of killing the connection thread.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::api::QseApi;
use crate::batcher::{Batcher, BatcherConfig, BatcherStats, RequestError};
use crate::wire;

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port (the bound address
    /// is available from [`QseServer::addr`]).
    pub addr: String,
    /// Admission-batching knobs. The default is work-conserving (a free
    /// worker takes everything queued); a nonzero
    /// [`BatcherConfig::latency_budget`] opts into a batch window that
    /// trades per-request latency for batch locality.
    pub batcher: BatcherConfig,
    /// Per-connection socket read timeout; a stalled or abandoned
    /// connection frees its thread after this long.
    pub read_timeout: Duration,
    /// Largest accepted request body, in bytes.
    pub max_body: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            batcher: BatcherConfig::default(),
            read_timeout: Duration::from_secs(10),
            max_body: 1 << 20,
        }
    }
}

/// The running server: an accept loop feeding per-connection threads,
/// all of them submitting into one shared [`Batcher`]. Dropping the
/// handle shuts the server down and joins the accept loop.
pub struct QseServer {
    addr: SocketAddr,
    /// Shared with the accept thread so [`Self::shutdown`] can unblock a
    /// thread parked in `accept()` by shutting the socket down directly
    /// (see [`wake::unblock_accept`]).
    listener: Arc<TcpListener>,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    batcher: Arc<Batcher>,
}

impl QseServer {
    /// Bind `config.addr` and start serving `api`.
    ///
    /// # Errors
    /// Any [`std::io::Error`] from binding the listener.
    pub fn start(api: QseApi, config: ServeConfig) -> std::io::Result<Self> {
        let listener = Arc::new(TcpListener::bind(&config.addr)?);
        let addr = listener.local_addr()?;
        let batcher = Arc::new(Batcher::start(Arc::new(api), config.batcher));
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept = {
            let listener = Arc::clone(&listener);
            let batcher = Arc::clone(&batcher);
            let shutdown = Arc::clone(&shutdown);
            let read_timeout = config.read_timeout;
            let max_body = config.max_body;
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let batcher = Arc::clone(&batcher);
                    std::thread::spawn(move || {
                        let _ = stream.set_read_timeout(Some(read_timeout));
                        let _ = stream.set_nodelay(true);
                        serve_connection(&batcher, stream, max_body);
                    });
                }
            })
        };
        Ok(Self {
            addr,
            listener,
            shutdown,
            accept: Some(accept),
            batcher,
        })
    }

    /// The bound address (resolves port `0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served facade.
    pub fn api(&self) -> &Arc<QseApi> {
        self.batcher.api()
    }

    /// Admission-batching counters, for the bench suite and health
    /// reporting.
    pub fn batcher_stats(&self) -> BatcherStats {
        self.batcher.stats()
    }

    /// Stop accepting, unblock the accept loop and join it. Idempotent;
    /// also run by `Drop`. Prompt by construction: the accept thread is
    /// unblocked directly (see [`wake::unblock_accept`]), not by waiting
    /// for the next client connection to arrive.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            wake::unblock_accept(&self.listener);
            let _ = handle.join();
        }
    }
}

impl Drop for QseServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Unblocking a thread parked in `accept()`.
///
/// On unix the listening socket is shut down directly (`shutdown(2)` on
/// its fd, the same libc-free FFI pattern as `qse_distance`'s mmap
/// loader): every pending and future `accept` on it fails immediately,
/// whatever address it was bound to. Elsewhere the historical self-
/// connect runs — hardened to dial loopback when the bind address is
/// unspecified (`0.0.0.0` is not connectable on every platform) and to
/// give up after a short timeout instead of wedging `shutdown()` behind
/// an unreachable address.
#[cfg(unix)]
mod wake {
    use std::net::TcpListener;
    use std::os::unix::io::AsRawFd;

    mod ffi {
        use std::os::raw::c_int;
        pub const SHUT_RDWR: c_int = 2;
        extern "C" {
            pub fn shutdown(fd: c_int, how: c_int) -> c_int;
        }
    }

    pub fn unblock_accept(listener: &TcpListener) {
        // The fd stays owned (and open) for the listener's lifetime; the
        // shared Arc guarantees it outlives this call, so the fd cannot
        // have been reused. Failure is fine — the accept loop then just
        // waits for the next connection, the historical behavior.
        unsafe { ffi::shutdown(listener.as_raw_fd(), ffi::SHUT_RDWR) };
    }
}

#[cfg(not(unix))]
mod wake {
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
    use std::time::Duration;

    pub fn unblock_accept(listener: &TcpListener) {
        let Ok(mut addr) = listener.local_addr() else {
            return;
        };
        if addr.ip().is_unspecified() {
            let loopback = match addr {
                SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            };
            addr.set_ip(loopback);
        }
        let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
    }
}

/// One decoded request head.
struct RequestHead {
    method: String,
    path: String,
    content_length: Option<usize>,
    close: bool,
}

/// What reading a request head can yield.
enum ReadHead {
    /// A parseable head (the body, if any, is still on the wire).
    Head(RequestHead),
    /// Clean end of stream before any bytes — the client is done.
    Eof,
    /// Unparseable bytes; answer 400 and drop the connection (the wire
    /// position is unknown, so it cannot carry another request).
    Malformed(&'static str),
}

const MAX_LINE: usize = 8 << 10;
const MAX_HEADERS: usize = 64;

fn serve_connection(batcher: &Batcher, stream: TcpStream, max_body: usize) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = write_half;
    loop {
        let head = match read_head(&mut reader) {
            ReadHead::Head(head) => head,
            ReadHead::Eof => return,
            ReadHead::Malformed(reason) => {
                let body = wire::error_json("bad_request", reason);
                let _ = write_response(&mut writer, 400, "Bad Request", &body, true);
                return;
            }
        };
        // Read (and bound) the body before dispatching, so the wire is
        // positioned at the next request whatever the handler answers.
        let body = match head.content_length {
            Some(len) if len > max_body => {
                let body = wire::error_json("bad_request", "request body too large");
                let _ = write_response(&mut writer, 413, "Payload Too Large", &body, true);
                return;
            }
            Some(len) => {
                let mut buf = vec![0u8; len];
                if reader.read_exact(&mut buf).is_err() {
                    return;
                }
                match String::from_utf8(buf) {
                    Ok(text) => Some(text),
                    Err(_) => {
                        let body = wire::error_json("bad_request", "request body is not UTF-8");
                        let _ = write_response(&mut writer, 400, "Bad Request", &body, true);
                        return;
                    }
                }
            }
            None => None,
        };
        // A handler bug reached by a hostile payload answers 500; the
        // connection (and the process) keeps serving.
        let (status, reason, response) = catch_unwind(AssertUnwindSafe(|| {
            dispatch(batcher, &head.method, &head.path, body.as_deref())
        }))
        .unwrap_or_else(|_| {
            (
                500,
                "Internal Server Error",
                wire::error_json("internal", "request handler panicked"),
            )
        });
        if write_response(&mut writer, status, reason, &response, head.close).is_err() {
            return;
        }
        if head.close {
            return;
        }
    }
}

fn dispatch(
    batcher: &Batcher,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, &'static str, String) {
    match (method, path) {
        ("GET", "/healthz") => {
            let api = batcher.api();
            let info = api.info();
            (
                200,
                "OK",
                wire::health_json(info.backend, info.len, info.dim),
            )
        }
        ("GET", "/info") => (200, "OK", wire::info_json(&batcher.api().info())),
        ("POST", "/insert") => {
            // Mutations bypass the batcher: they serialize on the
            // facade's write handle, and the admission queue keeps
            // draining reads against pinned snapshots meanwhile.
            let Some(body) = body else {
                return (
                    411,
                    "Length Required",
                    wire::error_json("bad_request", "POST /insert needs a Content-Length body"),
                );
            };
            let object = match wire::parse_insert_request(body) {
                Ok(object) => object,
                Err(reason) => {
                    return (400, "Bad Request", wire::error_json("bad_request", &reason))
                }
            };
            match batcher.api().try_insert(object) {
                Ok(report) => (200, "OK", wire::mutation_json(&report)),
                Err(e) => (
                    400,
                    "Bad Request",
                    wire::error_json(wire::query_error_kind(&e), &e.to_string()),
                ),
            }
        }
        ("POST", "/remove") => {
            let Some(body) = body else {
                return (
                    411,
                    "Length Required",
                    wire::error_json("bad_request", "POST /remove needs a Content-Length body"),
                );
            };
            let id = match wire::parse_remove_request(body) {
                Ok(id) => id,
                Err(reason) => {
                    return (400, "Bad Request", wire::error_json("bad_request", &reason))
                }
            };
            match batcher.api().try_remove(id) {
                Ok(report) => (200, "OK", wire::mutation_json(&report)),
                Err(e) => (
                    400,
                    "Bad Request",
                    wire::error_json(wire::query_error_kind(&e), &e.to_string()),
                ),
            }
        }
        ("POST", "/query") => {
            let Some(body) = body else {
                return (
                    411,
                    "Length Required",
                    wire::error_json("bad_request", "POST /query needs a Content-Length body"),
                );
            };
            let request = match wire::parse_query_request(body) {
                Ok(request) => request,
                Err(reason) => {
                    return (400, "Bad Request", wire::error_json("bad_request", &reason))
                }
            };
            match batcher.query(request.query, request.k, request.p) {
                Ok(result) => (200, "OK", wire::result_json(&result)),
                Err(e @ RequestError::Query(_)) => (
                    400,
                    "Bad Request",
                    wire::error_json(wire::request_error_kind(&e), &e.to_string()),
                ),
                Err(e @ RequestError::Internal(_)) => (
                    500,
                    "Internal Server Error",
                    wire::error_json(wire::request_error_kind(&e), &e.to_string()),
                ),
            }
        }
        _ => (
            404,
            "Not Found",
            wire::error_json("not_found", "no such route"),
        ),
    }
}

fn read_head(reader: &mut BufReader<TcpStream>) -> ReadHead {
    let line = match read_line(reader) {
        Ok(Some(line)) => line,
        Ok(None) => return ReadHead::Eof,
        Err(reason) => return ReadHead::Malformed(reason),
    };
    if line.is_empty() {
        return ReadHead::Malformed("empty request line");
    }
    let mut parts = line.split(' ');
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return ReadHead::Malformed("request line is not `METHOD PATH VERSION`");
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return ReadHead::Malformed("request line is not HTTP/1.x");
    }
    let http10 = version == "HTTP/1.0";
    let mut content_length = None;
    let mut close = http10;
    for _ in 0..MAX_HEADERS {
        let header = match read_line(reader) {
            Ok(Some(line)) => line,
            Ok(None) => return ReadHead::Malformed("connection closed inside headers"),
            Err(reason) => return ReadHead::Malformed(reason),
        };
        if header.is_empty() {
            return ReadHead::Head(RequestHead {
                method: method.to_string(),
                path: path.to_string(),
                content_length,
                close,
            });
        }
        let Some((name, value)) = header.split_once(':') else {
            return ReadHead::Malformed("header line has no colon");
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            match value.parse::<usize>() {
                Ok(len) => content_length = Some(len),
                Err(_) => return ReadHead::Malformed("unparseable Content-Length"),
            }
        } else if name == "connection" {
            let value = value.to_ascii_lowercase();
            if value == "close" {
                close = true;
            } else if value == "keep-alive" {
                close = false;
            }
        }
    }
    ReadHead::Malformed("too many header lines")
}

/// One CRLF- (or bare-LF-) terminated line, without its terminator.
/// `Ok(None)` is clean EOF before any byte; a line longer than
/// [`MAX_LINE`] or EOF mid-line is malformed.
fn read_line(reader: &mut BufReader<TcpStream>) -> Result<Option<String>, &'static str> {
    let mut buf = Vec::new();
    let mut limited = reader.by_ref().take((MAX_LINE + 1) as u64);
    match limited.read_until(b'\n', &mut buf) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(_) => return Err("read failed"),
    }
    if buf.last() != Some(&b'\n') {
        return Err(if buf.len() > MAX_LINE {
            "line too long"
        } else {
            "connection closed mid-line"
        });
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| "line is not UTF-8")
}

/// Write one response — status line, headers and body — with a single
/// `write_all` on a buffer formatted up front. On an unbuffered socket
/// under `TCP_NODELAY`, each `write` call would leave as its own segment.
fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    reason: &str,
    body: &str,
    close: bool,
) -> std::io::Result<()> {
    let connection = if close { "close" } else { "keep-alive" };
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        body.len()
    );
    writer.write_all(response.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write() {
        for (close, connection) in [(false, "keep-alive"), (true, "close")] {
            let mut writer = CountingWriter::default();
            let body = r#"{"neighbors":[3,1],"distances":[0.5,1.25]}"#;
            write_response(&mut writer, 200, "OK", body, close).unwrap();
            assert_eq!(writer.writes, 1, "one write per response");
            let expected = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 42\r\nConnection: {connection}\r\n\r\n{body}"
            );
            assert_eq!(String::from_utf8(writer.bytes).unwrap(), expected);
        }
    }
}
