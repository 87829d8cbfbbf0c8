//! The load generator: a keep-alive HTTP/1.1 client and the open-loop
//! replay of a precomputed schedule over one connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long one request may take before it counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// One HTTP response.
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// One keep-alive connection; reconnects after any transport error.
pub struct Conn {
    addr: SocketAddr,
    io: Option<(BufReader<TcpStream>, TcpStream)>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, io: None }
    }

    fn open(&mut self) -> std::io::Result<&mut (BufReader<TcpStream>, TcpStream)> {
        if self.io.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, REQUEST_TIMEOUT)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
            stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
            let writer = stream.try_clone()?;
            self.io = Some((BufReader::new(stream), writer));
        }
        Ok(self.io.as_mut().expect("connection opened above"))
    }

    /// `POST path` with a JSON body. Transport errors (connect, timeout,
    /// malformed response) come back as `Err` and drop the connection.
    pub fn post(&mut self, path: &str, body: &str) -> Result<Response, String> {
        let result = self.exchange(path, body);
        if result.is_err() {
            self.io = None;
        }
        result
    }

    fn exchange(&mut self, path: &str, body: &str) -> Result<Response, String> {
        let (reader, writer) = self.open().map_err(|e| format!("connect: {e}"))?;
        let request = format!(
            "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("read status: {e}"))?;
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let mut length = None;
        loop {
            line.clear();
            reader
                .read_line(&mut line)
                .map_err(|e| format!("read header: {e}"))?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or("response without Content-Length")?;
        let mut bytes = vec![0u8; length];
        reader
            .read_exact(&mut bytes)
            .map_err(|e| format!("read body: {e}"))?;
        let body = String::from_utf8(bytes).map_err(|_| "body is not UTF-8")?;
        Ok(Response { status, body })
    }
}

/// One scheduled request.
pub struct Request {
    /// When it is due, from the start of its phase.
    pub at: Duration,
    pub path: &'static str,
    pub body: String,
    /// Keep the response body for a correctness check.
    pub keep: bool,
}

/// What happened to one scheduled request.
pub struct Completion {
    /// Response minus due time: includes any wait for the connection.
    pub latency: Duration,
    /// Response minus actual send time.
    pub rtt: Duration,
    /// How late the generator itself sent it: send time minus the later
    /// of its due time and the moment the connection became free.
    pub late: Duration,
    /// Completion time, from the start of the phase.
    pub done: Duration,
    pub ok: bool,
    pub body: Option<String>,
}

/// Replay one schedule per connection, each on its own client thread, all
/// against a common start instant; completions come back per connection
/// in schedule order.
pub fn drive_all(addr: SocketAddr, schedules: &[Vec<Request>]) -> (Instant, Vec<Vec<Completion>>) {
    // A little lead so every thread is parked before the first request
    // is due.
    let start = Instant::now() + Duration::from_millis(5);
    let out = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter()
            .map(|s| scope.spawn(move || drive(addr, start, s)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (start, out)
}

/// Replay `requests` (ascending `at`) over one connection: sleep until
/// each is due unless the connection is still busy, then send. Every
/// request is sent, however late; a failed one counts with at least
/// [`REQUEST_TIMEOUT`] of latency, so it misses any latency limit.
fn drive(addr: SocketAddr, start: Instant, requests: &[Request]) -> Vec<Completion> {
    let mut conn = Conn::new(addr);
    let mut out = Vec::with_capacity(requests.len());
    let mut free_at = start;
    for request in requests {
        let due = start + request.at;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let late = sent.saturating_duration_since(due.max(free_at));
        let result = conn.post(request.path, &request.body);
        let done = Instant::now();
        free_at = done;
        let (ok, body) = match result {
            Ok(r) if r.status == 200 => (true, request.keep.then_some(r.body)),
            _ => (false, None),
        };
        let mut latency = done.saturating_duration_since(due);
        if !ok {
            latency = latency.max(REQUEST_TIMEOUT);
        }
        out.push(Completion {
            latency,
            rtt: done - sent,
            late,
            done: done.saturating_duration_since(start),
            ok,
            body,
        });
    }
    out
}
