//! # aldsp-client — a small blocking client for `aldspd`
//!
//! Speaks the `aldsp-protocol` wire protocol over one TCP connection:
//! handshake with principal + roles, `prepare`/`execute`/
//! `execute_prepared`, streamed result consumption, typed server
//! errors. Used by the end-to-end tests, the `wire` differential cell,
//! the loopback bench, and the `aldsp-client` command-line binary.
//!
//! A request is encoded from the caller's borrowed text and options
//! into one reused buffer and leaves in one `write`; replies are read
//! through one buffered [`proto::FrameReader`], so a reply that fits
//! its buffer costs one `read` however many frames it holds.
//! [`Client::wire_stats`] reports the exact counts.

#![forbid(unsafe_code)]

use aldsp_protocol as proto;
use aldsp_protocol::{
    code, ClientMsg, FrameReader, FrameWriter, ServerMsg, WireCounters, WireError, WireOptions,
    WireStats,
};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server sent bytes this client cannot decode.
    Wire(WireError),
    /// The request cannot be encoded — more roles than
    /// [`proto::MAX_ROLES`], or a text over [`proto::MAX_FRAME_LEN`].
    /// Nothing was sent; the connection is as it was.
    Request(std::io::Error),
    /// A typed [`proto::code`] error frame from the server.
    Server {
        /// One of the [`proto::code`] constants.
        code: u16,
        /// Human-readable rendering from the server.
        message: String,
    },
    /// The server closed the connection where a reply was expected,
    /// or replied out of protocol.
    Closed,
    /// A streaming callback asked to stop; the connection was torn
    /// down mid-stream on purpose.
    Aborted,
}

impl ClientError {
    /// The typed wire code, when this is a server error frame.
    pub fn code(&self) -> Option<u16> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }

    /// Was the request shed by admission control?
    pub fn is_overloaded(&self) -> bool {
        self.code() == Some(code::OVERLOADED)
    }

    /// Did the per-query deadline elapse?
    pub fn is_deadline_exceeded(&self) -> bool {
        self.code() == Some(code::DEADLINE)
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Request(e) => write!(f, "request not sent: {e}"),
            ClientError::Server { code: c, message } => {
                write!(f, "server error [{}]: {message}", code::name(*c))
            }
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::Aborted => write!(f, "stream aborted by the consumer"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A prepared plan handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prepared {
    /// Server-side handle, valid across sessions.
    pub handle: u64,
    /// `true` when the handle already existed on the server (prepared
    /// by this or another session) — the plan-sharing signal.
    pub shared: bool,
}

/// One streamed result item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireItem {
    /// Atomic items rejoin with a single space between neighbors.
    pub atomic: bool,
    /// The item's individual serialization.
    pub text: String,
}

/// A fully drained result stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireResultSet {
    /// The streamed items, in order.
    pub items: Vec<WireItem>,
    /// The server's delivered count (after security filtering).
    pub delivered: u64,
}

impl WireResultSet {
    /// Reassemble the full serialization, byte-identical to a
    /// server-side serialization of the whole sequence.
    pub fn text(&self) -> String {
        proto::join_items(self.items.iter().map(|i| (i.atomic, i.text.as_str())))
    }
}

/// A blocking connection to an `aldspd` server, authenticated as one
/// principal for its whole lifetime.
pub struct Client {
    stream: TcpStream,
    frames: FrameReader,
    out: FrameWriter,
    counters: WireCounters,
    alive: bool,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("peer", &self.stream.peer_addr().ok())
            .field("alive", &self.alive)
            .finish()
    }
}

impl Client {
    /// Connect and handshake without a token.
    pub fn connect(
        addr: impl ToSocketAddrs,
        principal: &str,
        roles: &[&str],
    ) -> Result<Client, ClientError> {
        Client::connect_with_token(addr, principal, roles, "")
    }

    /// Connect and handshake, presenting `token` to a token-guarded
    /// server.
    pub fn connect_with_token(
        addr: impl ToSocketAddrs,
        principal: &str,
        roles: &[&str],
        token: &str,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Client {
            stream,
            frames: FrameReader::new(),
            out: FrameWriter::new(),
            counters: WireCounters::default(),
            alive: true,
        };
        client
            .send(|b| proto::encode_hello(b, proto::PROTOCOL_VERSION, principal, roles, token))?;
        match client.recv()? {
            ServerMsg::HelloAck { .. } => Ok(client),
            ServerMsg::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::Closed),
        }
    }

    /// Compile `source` server-side and get a cross-session plan
    /// handle.
    pub fn prepare(&mut self, source: &str) -> Result<Prepared, ClientError> {
        self.send(|b| proto::encode_prepare(b, source))?;
        match self.recv()? {
            ServerMsg::Prepared { handle, shared } => Ok(Prepared { handle, shared }),
            ServerMsg::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::Closed),
        }
    }

    /// One-shot execute, draining the whole stream.
    pub fn execute(
        &mut self,
        source: &str,
        options: &WireOptions,
    ) -> Result<WireResultSet, ClientError> {
        self.send(|b| proto::encode_execute(b, source, options))?;
        self.drain_result()
    }

    /// Execute a prepared handle, draining the whole stream.
    pub fn execute_prepared(
        &mut self,
        handle: u64,
        options: &WireOptions,
    ) -> Result<WireResultSet, ClientError> {
        self.send(|b| proto::encode_execute_prepared(b, handle, options))?;
        self.drain_result()
    }

    /// Execute, delivering items to `on_item` as frames arrive. A
    /// `false` return tears the connection down mid-stream (the
    /// client-disconnect path the server must survive) and yields
    /// [`ClientError::Aborted`]; otherwise the server's delivered
    /// count is returned.
    pub fn execute_streaming(
        &mut self,
        source: &str,
        options: &WireOptions,
        mut on_item: impl FnMut(&WireItem) -> bool,
    ) -> Result<u64, ClientError> {
        self.send(|b| proto::encode_execute(b, source, options))?;
        loop {
            match self.recv()? {
                ServerMsg::Item { atomic, text } => {
                    if !on_item(&WireItem { atomic, text }) {
                        self.alive = false;
                        let _ = self.stream.shutdown(Shutdown::Both);
                        return Err(ClientError::Aborted);
                    }
                }
                ServerMsg::Done { delivered } => return Ok(delivered),
                ServerMsg::Error { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                _ => return Err(ClientError::Closed),
            }
        }
    }

    /// Release this session's reference on a plan handle; `Ok(false)`
    /// when the session did not hold it.
    pub fn close_handle(&mut self, handle: u64) -> Result<bool, ClientError> {
        self.send(|b| ClientMsg::CloseHandle { handle }.encode_into(b))?;
        match self.recv()? {
            ServerMsg::HandleClosed { released } => Ok(released),
            ServerMsg::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::Closed),
        }
    }

    /// Orderly close: Goodbye, wait for Bye.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        self.send(|b| ClientMsg::Goodbye.encode_into(b))?;
        match self.recv()? {
            ServerMsg::Bye => {
                self.alive = false;
                Ok(())
            }
            _ => Err(ClientError::Closed),
        }
    }

    fn drain_result(&mut self) -> Result<WireResultSet, ClientError> {
        let mut items = Vec::new();
        loop {
            match self.recv()? {
                ServerMsg::Item { atomic, text } => items.push(WireItem { atomic, text }),
                ServerMsg::Done { delivered } => return Ok(WireResultSet { items, delivered }),
                ServerMsg::Error { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                _ => return Err(ClientError::Closed),
            }
        }
    }

    /// Exact socket work of this connection so far: calls, frames and
    /// bytes per direction.
    pub fn wire_stats(&self) -> WireStats {
        self.counters.snapshot()
    }

    /// Encode one request into the send buffer and write it out.
    fn send(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>,
    ) -> Result<(), ClientError> {
        self.out.push(encode).map_err(ClientError::Request)?;
        self.out.flush(&mut self.stream, &self.counters)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<ServerMsg, ClientError> {
        match self.frames.read_server(&mut self.stream, &self.counters) {
            Ok(Some(m)) => Ok(m),
            Ok(None) | Err(WireError::Truncated) => {
                self.alive = false;
                Err(ClientError::Closed)
            }
            Err(e) => {
                self.alive = false;
                Err(e.into())
            }
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        if self.alive {
            // best-effort orderly close; the server also cleans up on
            // a plain disconnect
            let _ = self.send(|b| ClientMsg::Goodbye.encode_into(b));
        }
    }
}
