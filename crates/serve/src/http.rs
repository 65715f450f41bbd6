//! A deliberately tiny HTTP/1.0 layer over `std::net` — just enough to
//! serve `/metrics` and the JSON/HTML report endpoints to curl and a
//! Prometheus scraper, with no external dependencies (the workspace is
//! fully vendored/offline). One request per connection, `Connection:
//! close`, bounded header reads.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Maximum accepted request head (request line + headers) in bytes.
const MAX_HEAD: usize = 16 * 1024;

/// A parsed request head: method and path (query strings are not split —
/// no endpoint takes one).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// The request target, e.g. `/jobs/alpha/report`.
    pub path: String,
}

/// Read one `\n`-terminated line into `buf` (appending), spending at
/// most `budget` bytes and deducting what it read. Returns the bytes read
/// (0 at EOF), or `None` when the budget ran out before a newline — a peer
/// that never ends its line cannot grow `buf` past the bound.
pub(crate) fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    buf: &mut String,
    budget: &mut usize,
) -> io::Result<Option<usize>> {
    let n = reader.take(*budget as u64).read_line(buf)?;
    let overrun = n == *budget && !buf.ends_with('\n');
    *budget -= n;
    Ok((!overrun).then_some(n))
}

/// Read and parse one request head off a stream. Returns `None` on
/// malformed input, heads over `MAX_HEAD` bytes, or early EOF.
pub fn read_request(stream: &mut TcpStream) -> Option<Request> {
    let mut reader = BufReader::new(stream);
    let mut budget = MAX_HEAD;
    let mut line = String::new();
    read_line_bounded(&mut reader, &mut line, &mut budget).ok()??;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let path = parts.next()?.to_string();
    if !path.starts_with('/') {
        return None;
    }
    // Drain headers until the blank line so the peer sees a clean close.
    loop {
        let mut h = String::new();
        let n = read_line_bounded(&mut reader, &mut h, &mut budget).ok()??;
        if n == 0 || h == "\r\n" || h == "\n" {
            break;
        }
    }
    Some(Request { method, path })
}

/// Write a complete response with `Content-Length` and close semantics.
pub fn respond(stream: &mut TcpStream, status: u32, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Blocking single-shot GET client used by gates, examples, and tests.
/// Returns `(status, body)`.
pub fn http_get<A: ToSocketAddrs>(addr: A, path: &str) -> std::io::Result<(u32, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").as_bytes())?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .or_else(|| raw.split_once("\n\n"))
        .unwrap_or((raw.as_str(), ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    Ok((status, body.to_string()))
}

/// Percent-decode a URL path segment (enough for job ids in paths; invalid
/// escapes are passed through verbatim).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if let (Some(h), Some(l)) = (
                bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)),
                bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)),
            ) {
                out.push((h * 16 + l) as u8);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding_handles_escapes_and_passthrough() {
        assert_eq!(percent_decode("plain-job"), "plain-job");
        assert_eq!(percent_decode("job%20one"), "job one");
        assert_eq!(percent_decode("a%2Fb"), "a/b");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
        assert_eq!(percent_decode("trail%2"), "trail%2");
    }

    #[test]
    fn request_response_over_a_real_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let req = read_request(&mut s).expect("parses");
            assert_eq!(req.method, "GET");
            assert_eq!(req.path, "/metrics");
            respond(&mut s, 200, "text/plain", "hello 1\n");
        });
        let (status, body) = http_get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "hello 1\n");
        server.join().unwrap();
    }

    #[test]
    fn a_head_without_newlines_is_cut_off_at_the_bound() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut s, _) = listener.accept().unwrap();
        // The client keeps its connection open: without the bound the
        // server would wait for a newline forever.
        client.write_all(&vec![b'a'; MAX_HEAD + 1]).unwrap();
        assert_eq!(read_request(&mut s), None);

        // A head that ends its lines, within the bound, still parses.
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut s, _) = listener.accept().unwrap();
        let pad = "x".repeat(MAX_HEAD / 2);
        write!(client, "GET / HTTP/1.0\r\nX-Pad: {pad}\r\n\r\n").unwrap();
        let req = read_request(&mut s).expect("parses");
        assert_eq!(req.path, "/");
    }

    #[test]
    fn bounded_lines_stop_at_the_bound_or_the_newline() {
        let mut r = io::Cursor::new("ab\ncdefg");
        let mut buf = String::new();
        let mut read = |max: usize| {
            buf.clear();
            let n = read_line_bounded(&mut r, &mut buf, &mut { max }).unwrap();
            (n, buf.clone())
        };
        assert_eq!(read(3), (Some(3), "ab\n".into()));
        assert_eq!(read(3), (None, "cde".into()));
        assert_eq!(
            read(3),
            (Some(2), "fg".into()),
            "a short final line is a line"
        );
        assert_eq!(read(3), (Some(0), String::new()));
    }
}
