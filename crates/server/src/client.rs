//! A small blocking client for the `lgc-server` protocol, used by the
//! loopback tests, the doc example, and `benchmark/`'s `serve` workload.
//!
//! [`Client::query`] is the simple call-and-wait path. For closed-loop
//! load generation and for exercising the shed paths, the pipelined
//! pair [`Client::submit`] / [`Client::recv_response`] sends many
//! queries before reading any responses; responses arrive in
//! *completion* order and are correlated by the returned request id.

use crate::frame::{read_frame, write_frame, FrameKind, ProtocolError};
use crate::wire::{
    decode_error, decode_names, decode_result, encode_query_request, Priority, QueryRequest,
    WireError,
};
use lgc_core::{ClusterResult, Query};
use std::fmt;
use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failure: transport/protocol trouble, as opposed to a
/// [`WireError`], which is a well-formed *answer* from the server.
#[derive(Debug)]
pub enum ClientError {
    /// Frame- or payload-level protocol violation (including a closed
    /// connection).
    Protocol(ProtocolError),
    /// The server answered with a frame kind this call cannot accept.
    UnexpectedKind(FrameKind),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::UnexpectedKind(k) => write!(f, "unexpected response frame {k:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Protocol(ProtocolError::Io(e))
    }
}

/// A decoded response to one request.
#[derive(Debug)]
pub enum Response {
    /// A completed clustering result.
    Result(ClusterResult),
    /// A typed error (shed, trip, bad request, …).
    Error(WireError),
    /// Graph-name listing (`LIST`).
    Names(Vec<String>),
    /// Metrics page (`METRICS`).
    MetricsText(String),
    /// `PING` acknowledgement.
    Pong,
}

/// Blocking protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u32,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            next_id: 1,
        })
    }

    fn send(&mut self, kind: FrameKind, payload: &[u8]) -> Result<u32, ClientError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        write_frame(&mut self.writer, kind, id, payload)?;
        self.writer.flush()?;
        Ok(id)
    }

    /// Submits a query without waiting for its response; returns the
    /// request id to correlate with [`Client::recv_response`].
    pub fn submit(
        &mut self,
        tenant: &str,
        priority: Priority,
        query: &Query,
    ) -> Result<u32, ClientError> {
        let req = QueryRequest {
            tenant: tenant.to_string(),
            priority,
            query: query.clone(),
        };
        self.send(FrameKind::Query, &encode_query_request(&req))
    }

    /// Blocks for the next response frame (any request id) and decodes
    /// it.
    pub fn recv_response(&mut self) -> Result<(u32, Response), ClientError> {
        let frame = read_frame(&mut self.reader)?;
        let resp = match frame.kind {
            FrameKind::Result => Response::Result(decode_result(&frame.payload)?),
            FrameKind::Error => Response::Error(decode_error(&frame.payload)?),
            FrameKind::Names => Response::Names(decode_names(&frame.payload)?),
            FrameKind::MetricsText => {
                Response::MetricsText(String::from_utf8(frame.payload).map_err(|_| {
                    ProtocolError::Malformed {
                        context: "metrics text",
                    }
                })?)
            }
            FrameKind::Pong => Response::Pong,
            k => return Err(ClientError::UnexpectedKind(k)),
        };
        Ok((frame.id, resp))
    }

    /// Runs one query and waits for its answer: `Ok(Ok(result))` on
    /// success, `Ok(Err(wire_error))` when the server answered with a
    /// typed error, `Err(_)` on transport trouble.
    pub fn query(
        &mut self,
        tenant: &str,
        priority: Priority,
        query: &Query,
    ) -> Result<Result<ClusterResult, WireError>, ClientError> {
        let want = self.submit(tenant, priority, query)?;
        loop {
            let (id, resp) = self.recv_response()?;
            if id != want {
                // A stale response from an earlier pipelined submit;
                // skip it — ids are monotonic per connection.
                continue;
            }
            return match resp {
                Response::Result(r) => Ok(Ok(r)),
                Response::Error(e) => Ok(Err(e)),
                Response::Names(_) | Response::MetricsText(_) | Response::Pong => {
                    Err(ClientError::UnexpectedKind(FrameKind::Names))
                }
            };
        }
    }

    /// Round-trips a `PING`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let want = self.send(FrameKind::Ping, &[])?;
        match self.recv_response()? {
            (id, Response::Pong) if id == want => Ok(()),
            (_, r) => Err(unexpected(&r)),
        }
    }

    /// Fetches the sorted graph-name listing.
    pub fn list(&mut self) -> Result<Vec<String>, ClientError> {
        let want = self.send(FrameKind::List, &[])?;
        match self.recv_response()? {
            (id, Response::Names(names)) if id == want => Ok(names),
            (_, r) => Err(unexpected(&r)),
        }
    }

    /// Fetches the Prometheus-style metrics page.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let want = self.send(FrameKind::Metrics, &[])?;
        match self.recv_response()? {
            (id, Response::MetricsText(text)) if id == want => Ok(text),
            (_, r) => Err(unexpected(&r)),
        }
    }

    /// Sends raw bytes on the connection (test helper for malformed
    /// input; not part of the protocol surface).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Reads the next raw frame (test helper).
    pub fn recv_raw(&mut self) -> Result<crate::frame::Frame, ProtocolError> {
        read_frame(&mut self.reader)
    }
}

fn unexpected(resp: &Response) -> ClientError {
    let kind = match resp {
        Response::Result(_) => FrameKind::Result,
        Response::Error(_) => FrameKind::Error,
        Response::Names(_) => FrameKind::Names,
        Response::MetricsText(_) => FrameKind::MetricsText,
        Response::Pong => FrameKind::Pong,
    };
    ClientError::UnexpectedKind(kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{self, WirePartial};

    // Transport-free check that the response decode paths agree with
    // the encoders (the full TCP paths live in tests/loopback.rs).
    #[test]
    fn response_decoding_matches_encoders() {
        let e = WireError::Tripped(lgc_core::Tripped {
            trip: lgc_core::Trip::Cancelled,
            partial: WirePartial {
                stats: Default::default(),
                cluster: vec![4],
                conductance: 0.5,
            },
        });
        let payload = wire::encode_error(&e);
        assert_eq!(wire::decode_error(&payload).unwrap(), e);
    }
}
