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
    use proptest::prelude::*;

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

    /// Send `bytes` to `read_request` over loopback and return its result
    /// and how many of the bytes it took off the socket.
    fn read_over_loopback(bytes: &[u8]) -> (Option<Request>, usize) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut s, _) = listener.accept().unwrap();
        let sent = bytes.to_vec();
        let writer = std::thread::spawn(move || {
            // The server may stop reading early; a reset is not a failure.
            let _ = client.write_all(&sent);
            let _ = client.shutdown(std::net::Shutdown::Write);
        });
        let req = read_request(&mut s);
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).unwrap();
        writer.join().expect("writer thread");
        (req, bytes.len() - rest.len())
    }

    /// What one `BufReader` fill adds to the bytes taken off the socket.
    const ONE_FILL: usize = 8 * 1024;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn arbitrary_bytes_never_panic_or_overread(
            bytes in prop::collection::vec(any::<u8>(), 0..40_000)
        ) {
            let (_, taken) = read_over_loopback(&bytes);
            prop_assert!(taken <= MAX_HEAD + ONE_FILL, "took {taken} bytes");
        }

        #[test]
        fn heads_without_newlines_are_refused_within_the_bound(
            bytes in prop::collection::vec(
                any::<u8>().prop_map(|b| if b == b'\n' { b'a' } else { b }),
                0..40_000,
            )
        ) {
            let (req, taken) = read_over_loopback(&bytes);
            prop_assert!(taken <= MAX_HEAD + ONE_FILL, "took {taken} bytes");
            if bytes.len() >= MAX_HEAD {
                prop_assert_eq!(req, None);
            }
        }

        #[test]
        fn heads_with_arbitrary_header_lines_never_panic_or_overread(
            lines in prop::collection::vec(
                prop::collection::vec(any::<u8>(), 0..3_000),
                0..12,
            )
        ) {
            let mut bytes = b"GET /metrics HTTP/1.0\r\n".to_vec();
            for l in &lines {
                bytes.extend_from_slice(l);
                bytes.extend_from_slice(b"\r\n");
            }
            let (_, taken) = read_over_loopback(&bytes);
            prop_assert!(taken <= MAX_HEAD + ONE_FILL, "took {taken} bytes");
        }
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
