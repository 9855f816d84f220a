//! The client library: a blocking, typed façade over the wire protocol.
//!
//! One [`Client`] is one connection — and therefore one server-side
//! session/handle namespace. The client computes the permutation
//! fingerprint locally before a [`Client::register`], so the server can
//! verify the bytes survived the trip; BMMC registrations
//! ([`Client::register_bmmc`]) send the O(log² n) matrix instead of the
//! O(n) map and skip the claim (the server fingerprints the expansion).

use std::io::BufReader;
use std::marker::PhantomData;
use std::net::{TcpStream, ToSocketAddrs};

use hmm_perm::{Bmmc, Permutation};

use crate::framing::{
    check_body_len, encode_permute, encode_permute_batch, read_frame_into, send, shed,
};
use crate::proto::{
    bytes_to_elems, kind, split_permuted_batch, Elem, ErrCode, Frame, PermRepr, ProtoError,
    ServerStats, PROTOCOL_VERSION,
};

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    /// Wire-level failure (codec or socket).
    Proto(ProtoError),
    /// The server answered with a typed `ERR` frame.
    Server {
        /// Machine-readable error class.
        code: ErrCode,
        /// The server's diagnosis.
        message: String,
    },
    /// The server answered with a well-formed frame of the wrong kind.
    Unexpected {
        /// Kind name of the frame received.
        got: &'static str,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server refused ({code}): {message}")
            }
            ClientError::Unexpected { got } => write!(f, "unexpected {got} frame from server"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// Client-side result alias.
pub type Result<T> = std::result::Result<T, ClientError>;

/// A registered plan, typed by element width. Only valid on the
/// [`Client`] that registered it (handles are session-scoped).
#[derive(Debug, Clone, Copy)]
pub struct PlanHandle<T> {
    id: u64,
    n: usize,
    _elem: PhantomData<T>,
}

impl<T> PlanHandle<T> {
    /// The wire handle id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The plan's permutation length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the (degenerate) empty plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// One blocking connection to an `hmm-server`.
pub struct Client {
    reader: BufReader<TcpStream>,
    /// Unbuffered: every request is built whole in `request` and sent in
    /// one write.
    writer: TcpStream,
    /// The request frame, reused from request to request.
    request: Vec<u8>,
    /// The reply body, reused from frame to frame.
    body: Vec<u8>,
}

impl Client {
    /// Connect to a server. The socket is set to `TCP_NODELAY`: a request
    /// leaves in one write, but Nagle's algorithm would still hold its
    /// last, partial segment for the server's delayed ACK (see
    /// [`framing`](crate::framing)).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let connect_err = |e: std::io::Error| {
            ClientError::Proto(ProtoError::Io {
                kind: e.kind(),
                context: "connect",
            })
        };
        let stream = TcpStream::connect(addr).map_err(connect_err)?;
        stream.set_nodelay(true).map_err(connect_err)?;
        let reader_stream = stream.try_clone().map_err(connect_err)?;
        Ok(Client {
            reader: BufReader::new(reader_stream),
            writer: stream,
            request: Vec::new(),
            body: Vec::new(),
        })
    }

    /// Send the request built in the reused request buffer, in one
    /// write, then read one reply into the reused body buffer and return
    /// its kind.
    fn exchange(&mut self) -> Result<u8> {
        let sent = send(&mut self.writer, &self.request);
        shed(&mut self.request);
        sent?;
        Ok(read_frame_into(&mut self.reader, &mut self.body)?.0)
    }

    /// Decode a reply body read by [`Client::exchange`]; `ERR` frames
    /// become [`ClientError::Server`].
    fn decode_reply(&mut self, kind: u8) -> Result<Frame> {
        let decoded = Frame::decode_body(kind, &self.body);
        shed(&mut self.body);
        match decoded? {
            Frame::Err { code, message } => Err(ClientError::Server { code, message }),
            reply => Ok(reply),
        }
    }

    /// One request/response round trip; `ERR` frames become
    /// [`ClientError::Server`].
    fn roundtrip(&mut self, request: &Frame) -> Result<Frame> {
        check_body_len(request.body_len())?;
        request.encode_into(PROTOCOL_VERSION, &mut self.request);
        let kind = self.exchange()?;
        self.decode_reply(kind)
    }

    /// Register an explicit permutation; the fingerprint claim is
    /// computed here and verified server-side.
    pub fn register<T: Elem>(&mut self, p: &Permutation) -> Result<PlanHandle<T>> {
        let map: Vec<u32> = p.as_slice().iter().map(|&v| v as u32).collect();
        let request = Frame::Register {
            fingerprint: p.fingerprint(),
            n: p.len() as u64,
            elem_width: T::WIDTH as u8,
            perm: PermRepr::Index(map),
        };
        self.finish_register(request, p.len())
    }

    /// Register an affine (BMMC) permutation by its GF(2) matrix —
    /// O(log² n) bytes on the wire; the server expands and fingerprints
    /// it.
    pub fn register_bmmc<T: Elem>(&mut self, m: &Bmmc) -> Result<PlanHandle<T>> {
        let bits = m.bits();
        let cols: Vec<u64> = (0..bits).map(|j| m.col(j) as u64).collect();
        let request = Frame::Register {
            fingerprint: 0,
            n: m.len() as u64,
            elem_width: T::WIDTH as u8,
            perm: PermRepr::Bmmc {
                bits: bits as u8,
                offset: m.offset() as u64,
                cols,
            },
        };
        self.finish_register(request, m.len())
    }

    fn finish_register<T: Elem>(&mut self, request: Frame, n: usize) -> Result<PlanHandle<T>> {
        match self.roundtrip(&request)? {
            Frame::Registered { handle } => Ok(PlanHandle {
                id: handle,
                n,
                _elem: PhantomData,
            }),
            other => Err(ClientError::Unexpected {
                got: other.kind_name(),
            }),
        }
    }

    /// Apply a registered plan to one payload. The request is built from
    /// `src` in one pass into the reused request buffer and sent in one
    /// write; the reply is decoded from the reused body buffer into the
    /// returned `Vec` in one pass.
    pub fn permute<T: Elem>(&mut self, handle: &PlanHandle<T>, src: &[T]) -> Result<Vec<T>> {
        encode_permute(&mut self.request, PROTOCOL_VERSION, handle.id, src)?;
        let kind = self.exchange()?;
        if kind == kind::PERMUTED {
            let out = bytes_to_elems(&self.body).ok_or_else(malformed_payload);
            shed(&mut self.body);
            return out;
        }
        let other = self.decode_reply(kind)?;
        Err(ClientError::Unexpected {
            got: other.kind_name(),
        })
    }

    /// Apply a registered plan to many payloads in one request;
    /// outputs come back in request order. Like [`Client::permute`], the
    /// request is built in the reused buffer and sent in one write, and
    /// each output is decoded straight from the reused reply body.
    pub fn permute_batch<T: Elem>(
        &mut self,
        handle: &PlanHandle<T>,
        srcs: &[Vec<T>],
    ) -> Result<Vec<Vec<T>>> {
        encode_permute_batch(&mut self.request, PROTOCOL_VERSION, handle.id, srcs)?;
        let kind = self.exchange()?;
        if kind == kind::PERMUTED_BATCH {
            let outs = split_permuted_batch(&self.body)
                .map_err(ClientError::from)
                .and_then(|payloads| {
                    payloads
                        .into_iter()
                        .map(|p| bytes_to_elems(p).ok_or_else(malformed_payload))
                        .collect()
                });
            shed(&mut self.body);
            return outs;
        }
        let other = self.decode_reply(kind)?;
        Err(ClientError::Unexpected {
            got: other.kind_name(),
        })
    }

    /// Fetch the server's aggregated counters.
    pub fn stats(&mut self) -> Result<ServerStats> {
        match self.roundtrip(&Frame::Stats)? {
            Frame::StatsReport(s) => Ok(s),
            other => Err(ClientError::Unexpected {
                got: other.kind_name(),
            }),
        }
    }

    /// Ask the server to drain: stop accepting, finish the requests in
    /// flight, close.
    /// Returns once `DRAIN_OK` arrives (the connection is then dead).
    pub fn drain(&mut self) -> Result<()> {
        match self.roundtrip(&Frame::Drain)? {
            Frame::DrainOk => Ok(()),
            other => Err(ClientError::Unexpected {
                got: other.kind_name(),
            }),
        }
    }
}

fn malformed_payload() -> ClientError {
    ClientError::Proto(ProtoError::Malformed {
        reason: "permuted payload length not a multiple of width".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn client_sockets_are_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        assert!(client.writer.nodelay().unwrap());
        assert!(client.reader.get_ref().nodelay().unwrap());
    }
}
