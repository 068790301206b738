//! A minimal keep-alive HTTP/1.1 client for the load generator: one
//! request in flight per connection, responses read into a reused buffer
//! so the generator allocates nothing per request.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use dcs_service::StepBody;

/// How long a response may take before the request counts as failed.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(2);

/// One keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
}

impl Conn {
    /// Connects with Nagle off and a read deadline.
    ///
    /// # Errors
    ///
    /// Returns the transport error.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            writer,
            reader: BufReader::with_capacity(64 * 1024, stream),
            line: Vec::with_capacity(256),
        })
    }

    /// Writes one pre-rendered request.
    ///
    /// # Errors
    ///
    /// Returns the transport error.
    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.writer.write_all(request)
    }

    /// Reads one response; its body replaces `body`. Returns the status.
    ///
    /// # Errors
    ///
    /// Returns the transport error, or `InvalidData` for a malformed head.
    pub fn receive(&mut self, body: &mut Vec<u8>) -> io::Result<u16> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        self.read_line()?;
        let status = std::str::from_utf8(&self.line)
            .ok()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = None;
        loop {
            self.read_line()?;
            if self.line == b"\r\n" || self.line.is_empty() {
                break;
            }
            let text = std::str::from_utf8(&self.line).map_err(|_| bad("non-UTF-8 header"))?;
            if let Some((name, value)) = text.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without content-length"))?;
        body.clear();
        body.resize(length, 0);
        self.reader.read_exact(body)?;
        Ok(status)
    }

    fn read_line(&mut self) -> io::Result<()> {
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        Ok(())
    }
}

/// Renders a bodiless `GET`.
#[must_use]
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: sprintd\r\n\r\n").into_bytes()
}

/// Renders `POST /step` for `demand`, tagged with `expect_index` the way
/// `RetryClient` tags its steps, into `out`.
pub fn render_step(out: &mut Vec<u8>, demand: f64, expect_index: u64) {
    let body = serde_json::to_string(&StepBody {
        demand,
        dt_secs: None,
        expect_index: Some(expect_index),
    })
    .expect("a step body always serializes");
    out.clear();
    out.extend_from_slice(
        format!(
            "POST /step HTTP/1.1\r\nhost: sprintd\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    );
    out.extend_from_slice(body.as_bytes());
}
