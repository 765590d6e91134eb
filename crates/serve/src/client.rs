//! A minimal blocking client for the study server: used by the serve
//! tests and the repository benchmark (`studybench/`) to drive real TCP
//! round trips against a server.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::doctor::Timing;
use crate::json;

/// An open event stream: the response head has been parsed and each
/// [`EventStream::next_event`] call reads one chunk (= one event).
pub struct EventStream {
    reader: BufReader<TcpStream>,
    status: u16,
    sse: bool,
}

impl EventStream {
    /// The response status code (streams only start on 200).
    pub fn status(&self) -> u16 {
        self.status
    }

    /// The next event line, `None` at the end of the stream. Strips
    /// the SSE `data: ` framing when present, so callers always see
    /// the bare JSON line.
    pub fn next_event(&mut self) -> io::Result<Option<String>> {
        let mut size_line = String::new();
        if self.reader.read_line(&mut size_line)? == 0 {
            return Ok(None); // server closed without terminal chunk
        }
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
        if size == 0 {
            let mut trailer = String::new();
            let _ = self.reader.read_line(&mut trailer);
            return Ok(None);
        }
        let mut chunk = vec![0u8; size + 2]; // payload + CRLF
        self.reader.read_exact(&mut chunk)?;
        chunk.truncate(size);
        let text = String::from_utf8(chunk)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 event"))?;
        let line = if self.sse {
            text.strip_prefix("data: ")
                .unwrap_or(&text)
                .trim_end_matches('\n')
        } else {
            text.trim_end_matches('\n')
        };
        Ok(Some(line.to_string()))
    }
}

/// Sends `GET path_query` and parses the response head. For a 200
/// chunked response the returned stream yields events; for anything
/// else use [`get`] to read the whole body.
pub fn open_stream(addr: SocketAddr, path_query: &str) -> io::Result<EventStream> {
    let mut stream = TcpStream::connect(addr)?;
    let request =
        format!("GET {path_query} HTTP/1.1\r\nHost: panoptes\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let (status, headers) = read_head(&mut reader)?;
    let sse = headers.iter().any(|h| {
        h.to_ascii_lowercase()
            .contains("content-type: text/event-stream")
    });
    Ok(EventStream {
        reader,
        status,
        sse,
    })
}

/// Sends `GET path_query` and reads the whole response body
/// (content-length or chunked), for non-streaming endpoints and
/// error statuses.
pub fn get(addr: SocketAddr, path_query: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let request =
        format!("GET {path_query} HTTP/1.1\r\nHost: panoptes\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let (status, headers) = read_head(&mut reader)?;
    let chunked = headers.iter().any(|h| {
        h.to_ascii_lowercase()
            .contains("transfer-encoding: chunked")
    });
    let body = if chunked {
        crate::http::read_chunked(&mut reader)?
    } else {
        let length = headers
            .iter()
            .find_map(|h| {
                h.to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .map(|v| v.trim().parse::<usize>())
            })
            .transpose()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?
            .unwrap_or(0);
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body)?;
        body
    };
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

fn read_head(reader: &mut BufReader<TcpStream>) -> io::Result<(u16, Vec<String>)> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated head",
            ));
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
        headers.push(line.trim_end().to_string());
    }
    Ok((status, headers))
}

/// Everything one streamed study produced, plus client-side timings.
#[derive(Debug, Clone)]
pub struct StudyCapture {
    /// Raw event lines in arrival order.
    pub events: Vec<String>,
    /// Concatenated `header` + `section` payload bytes — must equal
    /// offline `repro` stdout for the same parameters.
    pub doc: String,
    /// Whether the server answered from the document cache.
    pub cached: bool,
    /// Connect → first event (the `header`).
    pub ttfe: Duration,
    /// Connect → stream end.
    pub total: Duration,
    /// The server's latency-attribution trailer, when it sent one
    /// (absent only on very old servers — the trailer precedes `done`).
    pub timing: Option<Timing>,
}

/// Runs one study request to completion, reassembling the document
/// from the stream. Errors on non-200 responses or a stream that ends
/// without a `done` event.
pub fn collect_study(addr: SocketAddr, path_query: &str) -> io::Result<StudyCapture> {
    let started = Instant::now();
    let mut stream = open_stream(addr, path_query)?;
    if stream.status() != 200 {
        return Err(io::Error::other(format!(
            "study request failed with status {}",
            stream.status()
        )));
    }
    let mut capture = StudyCapture {
        events: Vec::new(),
        doc: String::new(),
        cached: false,
        ttfe: Duration::ZERO,
        total: Duration::ZERO,
        timing: None,
    };
    let mut done = false;
    while let Some(line) = stream.next_event()? {
        if capture.events.is_empty() {
            capture.ttfe = started.elapsed();
        }
        match json::field(&line, "event").as_deref() {
            Some("header") | Some("section") => {
                if let Some(data) = json::field(&line, "data") {
                    capture.doc.push_str(&data);
                }
            }
            Some("timing") => {
                capture.timing = Timing::parse(&line);
            }
            Some("done") => {
                capture.cached = line.contains("\"cached\":true");
                done = true;
            }
            Some("error") => {
                let message =
                    json::field(&line, "message").unwrap_or_else(|| "unknown".to_string());
                return Err(io::Error::other(format!(
                    "study failed server-side: {message}"
                )));
            }
            _ => {}
        }
        capture.events.push(line);
    }
    if !done {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "stream ended without done event",
        ));
    }
    capture.total = started.elapsed();
    Ok(capture)
}
