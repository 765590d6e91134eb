//! A minimal blocking HTTP/1.1 layer: just enough protocol for the
//! study server and its bench/test clients, hand-rolled on `std::net`
//! (the workspace is air-gapped — no hyper, no tokio).
//!
//! Supported surface: `GET` requests with a query string, response
//! streaming via `Transfer-Encoding: chunked` (one chunk per event;
//! events are buffered and flushed in one write each time the study
//! runner is about to wait, not eagerly per event), and
//! `Connection: close` framing. Request handling never `unwrap()`s on
//! IO — a torn or malformed request yields an error response or a
//! dropped connection, not a worker panic.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;

/// A parsed request line + query parameters.
#[derive(Debug, Clone)]
pub struct Request {
    /// The HTTP method (only `GET` is served).
    pub method: String,
    /// The path without the query string, e.g. `/study`.
    pub path: String,
    /// Decoded query parameters, last occurrence wins.
    pub query: HashMap<String, String>,
}

impl Request {
    /// A query parameter by name.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.get(name).map(String::as_str)
    }
}

/// Reads and parses one request head (request line + headers) from the
/// stream. Returns `None` on a malformed or prematurely closed
/// request.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> Option<Request> {
    let mut line = String::new();
    if reader.read_line(&mut line).ok()? == 0 {
        return None;
    }
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") {
        return None;
    }
    // Drain headers; the server doesn't need any of them (no bodies on
    // GET, no keep-alive).
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header).ok()? == 0 {
            return None;
        }
        if header == "\r\n" || header == "\n" {
            break;
        }
    }
    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut query = HashMap::new();
    for pair in query_text.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.insert(percent_decode(k), percent_decode(v));
    }
    Some(Request { method, path: path.to_string(), query })
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h).ok().and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Writes a complete (non-streamed) response, head and body in one
/// write.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let mut response = Vec::with_capacity(128 + body.len());
    write!(
        response,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    response.extend_from_slice(body.as_bytes());
    stream.write_all(&response)?;
    stream.flush()
}

/// A chunked-transfer streaming response: one chunk per event. The
/// response head and every event are framed into one buffer, and
/// nothing reaches `W` until [`ChunkedWriter::flush`] or
/// [`ChunkedWriter::finish`]: the study runner flushes right before it
/// waits, and a replayed document, which never waits, leaves in a
/// single write.
pub struct ChunkedWriter<W: Write> {
    out: W,
    buf: Vec<u8>,
}

impl<W: Write> ChunkedWriter<W> {
    /// Frames the response head; it leaves with the first flush.
    pub fn start(out: W, content_type: &str) -> ChunkedWriter<W> {
        let mut buf = Vec::with_capacity(16 << 10);
        // Writing into a `Vec` cannot fail.
        let _ = write!(
            buf,
            "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nCache-Control: no-store\r\nConnection: close\r\n\r\n"
        );
        ChunkedWriter { out, buf }
    }

    /// Frames one chunk (an event) holding `parts` back to back.
    pub fn chunk(&mut self, parts: &[&str]) {
        let len: usize = parts.iter().map(|part| part.len()).sum();
        if len == 0 {
            return; // an empty chunk would terminate the stream
        }
        let _ = write!(self.buf, "{len:x}\r\n"); // into a `Vec`: cannot fail
        for part in parts {
            self.buf.extend_from_slice(part.as_bytes());
        }
        self.buf.extend_from_slice(b"\r\n");
    }

    /// Sends everything framed so far in one write. An `Err` here is
    /// the client-disconnect signal the study runner reacts to.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.out.write_all(&self.buf)?;
            self.buf.clear();
        }
        self.out.flush()
    }

    /// Sends what is framed together with the terminating zero-length
    /// chunk, in one write.
    pub fn finish(mut self) -> io::Result<()> {
        self.buf.extend_from_slice(b"0\r\n\r\n");
        self.flush()
    }
}

/// Reads one chunked-transfer body to completion from `reader`,
/// returning the de-chunked bytes — the client half of
/// [`ChunkedWriter`]. Stops at the zero-length chunk.
pub fn read_chunked(reader: &mut impl BufRead) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        let mut size_line = String::new();
        if reader.read_line(&mut size_line)? == 0 {
            // Stream ended without the terminal chunk: disconnected
            // mid-stream. Return what arrived.
            return Ok(out);
        }
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
        if size == 0 {
            let mut trailer = String::new();
            let _ = reader.read_line(&mut trailer);
            return Ok(out);
        }
        let mut chunk = vec![0u8; size + 2]; // payload + CRLF
        reader.read_exact(&mut chunk)?;
        chunk.truncate(size);
        out.extend_from_slice(&chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding_handles_common_escapes() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("%zz"), "%zz", "bad hex passes through");
        assert_eq!(percent_decode("100%"), "100%", "trailing percent survives");
    }

    #[test]
    fn chunked_round_trip() {
        // Frame two chunks by hand and read them back.
        let wire = b"5\r\nhello\r\n7\r\n, world\r\n0\r\n\r\n";
        let mut reader = std::io::BufReader::new(&wire[..]);
        let body = read_chunked(&mut reader).expect("well-formed chunks");
        assert_eq!(body, b"hello, world");
    }

    /// Counts `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_finished_stream_leaves_in_one_write_with_the_old_framing() {
        let events: Vec<String> =
            (0..18).map(|i| format!("{{\"event\":\"section\",\"n\":{i}}}")).collect();
        let mut out = CountingWriter::default();
        let mut writer = ChunkedWriter::start(&mut out, "application/x-ndjson");
        for line in &events {
            writer.chunk(&[line, "\n"]);
        }
        writer.chunk(&[]);
        writer.finish().expect("counting writer never fails");

        let mut want = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                        Transfer-Encoding: chunked\r\nCache-Control: no-store\r\n\
                        Connection: close\r\n\r\n"
            .to_string();
        for line in &events {
            let data = format!("{line}\n");
            want.push_str(&format!("{:x}\r\n{data}\r\n", data.len()));
        }
        want.push_str("0\r\n\r\n");
        assert_eq!(out.writes, 1, "head, 18 events and the finish in one write");
        assert_eq!(String::from_utf8(out.bytes).expect("utf-8"), want);
    }

    #[test]
    fn flush_sends_what_is_framed_and_nothing_when_empty() {
        let mut out = CountingWriter::default();
        let mut writer = ChunkedWriter::start(&mut out, "text/event-stream");
        writer.chunk(&["data: ", "{}", "\n\n"]);
        writer.flush().expect("flush");
        writer.flush().expect("empty flush");
        writer.finish().expect("finish");
        assert_eq!(out.writes, 2, "one write per non-empty flush");
        assert!(out.bytes.ends_with(b"a\r\ndata: {}\n\n\r\n0\r\n\r\n"));
    }

    #[test]
    fn truncated_chunked_stream_returns_partial_body() {
        let wire = b"5\r\nhello\r\n"; // no terminal chunk: disconnect
        let mut reader = std::io::BufReader::new(&wire[..]);
        let body = read_chunked(&mut reader).expect("partial ok");
        assert_eq!(body, b"hello");
    }
}
