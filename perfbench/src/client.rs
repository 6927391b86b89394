//! A blocking client for the binary framing lane of the wire front end:
//! one keep-alive TCP connection, one request in flight.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::api::{decode_response, encode_request, Row};

/// What one request got back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Whether the reply echoed the request's id.
    pub matched: bool,
    pub status: u16,
    pub labels: Vec<u32>,
}

pub struct Client {
    stream: TcpStream,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    next_id: u64,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client { stream, wbuf: Vec::new(), rbuf: Vec::new(), next_id: 1 })
    }

    /// Sends one single-row request and blocks for its reply.
    pub fn request(&mut self, row: Row) -> io::Result<Reply> {
        let id = self.next_id;
        self.next_id += 1;
        self.wbuf.clear();
        encode_request(id, None, &[row.0], &mut self.wbuf);
        self.stream.write_all(&self.wbuf)?;
        loop {
            match decode_response(&self.rbuf, 1 << 20) {
                Ok(Some((frame, consumed))) => {
                    self.rbuf.drain(..consumed);
                    return Ok(Reply {
                        matched: frame.request_id == id,
                        status: frame.status,
                        labels: frame.labels,
                    });
                }
                Ok(None) => {}
                Err(e) => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, format!("{e}")));
                }
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
            }
            self.rbuf.extend_from_slice(&chunk[..n]);
        }
    }
}
