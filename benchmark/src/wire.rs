//! The two clients the benchmark talks to the server with: the line
//! protocol (one surface form out, one JSON line back) and one-shot HTTP.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A line-protocol connection. Closed loop: `request` returns when the
/// reply line has arrived.
pub struct LineClient {
    reader: BufReader<TcpStream>,
    line: String,
}

impl LineClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<LineClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(LineClient {
            reader: BufReader::with_capacity(1 << 16, stream),
            line: String::new(),
        })
    }

    /// Send one form; the reply line, without its newline, is valid until
    /// the next call.
    pub fn request(&mut self, form: &str) -> std::io::Result<&str> {
        let stream = self.reader.get_mut();
        stream.write_all(form.as_bytes())?;
        stream.write_all(b"\n")?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }
}

/// One HTTP request on a connection of its own (the server answers with
/// `Connection: close`). Returns the status code and the body.
pub fn http(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: benchmark\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status line"))?;
    let body_at = response
        .find("\r\n\r\n")
        .ok_or_else(|| bad("no header end"))?;
    Ok((status, response[body_at + 4..].to_owned()))
}
