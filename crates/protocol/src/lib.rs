//! # aldsp-protocol — the `aldspd` wire protocol
//!
//! A deliberately small length-prefixed binary protocol between
//! `aldsp-client` and the `aldspd` network server. The paper's ALDSP is
//! a *server*: clients connect, authenticate, and run queries whose
//! cached plans stay user-independent because element-level security is
//! applied post-cache (§7) — so the protocol carries a principal once
//! per connection (the handshake) and query text / plan handles per
//! request, never per-user plans.
//!
//! ## Frame layout
//!
//! ```text
//! +----------------+-----------+------------------+
//! | len: u32 (BE)  | kind: u8  | payload: len-1 B |
//! +----------------+-----------+------------------+
//! ```
//!
//! `len` counts the kind byte plus the payload and is bounded by
//! [`MAX_FRAME_LEN`]; a longer announcement is rejected *before* any
//! allocation ([`WireError::Oversized`]). EOF on a frame boundary is a
//! clean close (`Ok(None)`); EOF inside a frame is
//! [`WireError::Truncated`].
//!
//! Integers are big-endian. Strings are `u32` byte length + UTF-8
//! bytes, validated on decode. Every decoder checks its bounds and a
//! message must consume its payload exactly — trailing bytes are
//! malformed, so a frame can never smuggle a second message.
//!
//! ## Conversation
//!
//! ```text
//! client                              server
//!   Hello{version, principal, …}  ->
//!                                 <-  HelloAck          (or Error + close)
//!   Prepare{source}               ->
//!                                 <-  Prepared{handle, shared}
//!   Execute{source, options}      ->
//!   ExecutePrepared{handle, opts} ->
//!                                 <-  Item* then Done   (streamed)
//!                                 <-  Item* then Error  (typed mid-stream)
//!   CloseHandle{handle}           ->
//!                                 <-  HandleClosed
//!   Goodbye                       ->
//!                                 <-  Bye + close
//! ```
//!
//! Result items are one [`ServerMsg::Item`] frame each, carrying the
//! item's individual serialization plus an `atomic` flag; the client
//! rejoins them under the XQuery rule (a single space between adjacent
//! atomics) so the reassembled text is byte-identical to a server-side
//! [`serialize_sequence`] of the whole result — the property the
//! differential `wire` cell pins.
//!
//! ## Frames are the protocol, syscalls are not
//!
//! A sender encodes frames in place at the end of one buffer
//! (`encode_into`, [`encode_item`], the borrowed `encode_*` requests)
//! and writes the buffer out whole ([`FrameWriter`]); a receiver reads
//! through a buffer and decodes frames from slices of it
//! ([`FrameReader`]). How many frames share a `write` or a `read` is
//! each side's business — a peer that reads or writes frame by frame
//! ([`read_frame`], [`ServerMsg::read`]) interoperates unchanged — and
//! [`WireCounters`] counts both exactly.
//!
//! [`serialize_sequence`]: https://www.w3.org/TR/xslt-xquery-serialization/

#![forbid(unsafe_code)]

mod framing;

pub use framing::{
    read_frame, write_frame, FrameReader, FrameWriter, RawFrame, WireCounters, WireStats,
    WIRE_BUF_LEN,
};
use std::io::{Read, Write};

/// Protocol version spoken by this build. A [`ClientMsg::Hello`]
/// carrying any other value is answered with a
/// [`code::VERSION_MISMATCH`] error frame and the connection is closed.
/// Version 2 dropped two `u32` fields from [`WireExec`]; a version-1
/// peer is refused here rather than mis-framed at its first override.
pub const PROTOCOL_VERSION: u16 = 2;

/// Upper bound on `len` (kind byte + payload). Announcing more is
/// rejected before allocating — a 4-byte header must not be able to
/// reserve gigabytes.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Upper bound on roles in a handshake (sanity bound, not a feature).
pub const MAX_ROLES: usize = 64;

/// Upper bound on [`WireExec::ppk_prefetch_depth`]: the engine runs one
/// helper thread per staged block of a multi-block PP-k join, so a peer
/// must not be able to name the count freely. A lone block the outer
/// input ended inside (fewer than k tuples), whose fetch nothing could
/// overlap, runs on the query's own thread at any depth, and
/// `ppk_prefetched_blocks` counts helper fetches only.
/// Measured depths stop paying at 2–4 (EXPERIMENTS.md).
pub const MAX_PPK_PREFETCH_DEPTH: u32 = 8;

/// Typed wire error codes carried by [`ServerMsg::Error`] frames.
///
/// The server maps its internal error taxonomy onto these so clients
/// can branch (retry on [`code::OVERLOADED`], surface
/// [`code::DEADLINE`], fail fast on [`code::COMPILE`]) without parsing
/// message strings.
pub mod code {
    /// Handshake version differs from [`super::PROTOCOL_VERSION`].
    pub const VERSION_MISMATCH: u16 = 1;
    /// Unparseable or protocol-violating frame; the connection closes.
    pub const MALFORMED: u16 = 2;
    /// Handshake token rejected.
    pub const AUTH: u16 = 3;
    /// Query compilation failed.
    pub const COMPILE: u16 = 4;
    /// Function-level access denied for the session principal.
    pub const SECURITY: u16 = 5;
    /// Shed by admission control — the governor refused at the socket.
    pub const OVERLOADED: u16 = 6;
    /// Per-query deadline elapsed (possibly mid-stream).
    pub const DEADLINE: u16 = 7;
    /// Per-query memory budget exceeded by a blocking operator.
    pub const BUDGET: u16 = 8;
    /// Runtime execution error (source failure, type error, …).
    pub const EXECUTE: u16 = 9;
    /// `ExecutePrepared`/`CloseHandle` named a handle this server does
    /// not hold; the connection stays usable.
    pub const UNKNOWN_HANDLE: u16 = 10;
    /// A structurally valid message arrived in the wrong state (e.g.
    /// anything before `Hello`).
    pub const UNSUPPORTED: u16 = 11;
    /// Anything else server-side.
    pub const INTERNAL: u16 = 12;

    /// Stable mnemonic for a code (for logs and error displays).
    pub fn name(c: u16) -> &'static str {
        match c {
            VERSION_MISMATCH => "version-mismatch",
            MALFORMED => "malformed",
            AUTH => "auth",
            COMPILE => "compile",
            SECURITY => "security",
            OVERLOADED => "overloaded",
            DEADLINE => "deadline",
            BUDGET => "budget",
            EXECUTE => "execute",
            UNKNOWN_HANDLE => "unknown-handle",
            UNSUPPORTED => "unsupported",
            INTERNAL => "internal",
            _ => "unknown",
        }
    }
}

/// Wire values for [`WireExec::pushdown`].
pub mod pushdown {
    /// No SQL pushdown — everything interpreted in the middleware.
    pub const OFF: u8 = 0;
    /// Joins only.
    pub const JOINS: u8 = 1;
    /// Full pushdown (server default).
    pub const FULL: u8 = 2;
}

/// Wire values for [`WireExec::join_strategy`]. Codes 2 (index nested
/// loop) and 4 (sort-merge) are retired and never reused; servers
/// answer them, like any unknown code, with a typed `MALFORMED`.
pub mod join {
    /// Cost-based selection (server default).
    pub const AUTO: u8 = 0;
    /// Force per-tuple nested loop.
    pub const NESTED_LOOP: u8 = 1;
    /// Force symmetric hash join.
    pub const HASH: u8 = 3;
}

/// Framing / decoding failures.
#[derive(Debug)]
pub enum WireError {
    /// Underlying transport error.
    Io(std::io::Error),
    /// The peer closed the connection inside a frame.
    Truncated,
    /// A frame announced more than [`MAX_FRAME_LEN`] bytes.
    Oversized {
        /// The announced length.
        len: u32,
    },
    /// A frame or payload violated the protocol grammar.
    Malformed(&'static str),
    /// A frame kind this side does not understand.
    UnknownFrame(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Truncated => write!(f, "connection closed mid-frame"),
            WireError::Oversized { len } => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
                )
            }
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::UnknownFrame(k) => write!(f, "unknown frame kind 0x{k:02x}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Per-request workload terms, all expressible on the wire so the
/// governor sheds *at the socket*: deadline, priority class, memory
/// budget, and an optional full [`WireExec`] override.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireOptions {
    /// Per-query deadline in milliseconds; `0` = none.
    pub deadline_ms: u64,
    /// `true` queues as batch (interactive queues ahead of batch).
    pub batch: bool,
    /// Memory budget in bytes for blocking operators; `0` = none.
    pub memory_budget: u64,
    /// Optional execution-options override (the whole set at once,
    /// mirroring `QueryRequest::execution`).
    pub exec: Option<WireExec>,
}

/// The wire form of the server's `ExecutionOptions`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireExec {
    /// PP-k prefetch depth, at most [`MAX_PPK_PREFETCH_DEPTH`].
    pub ppk_prefetch_depth: u32,
    /// One of the [`pushdown`] constants.
    pub pushdown: u8,
    /// One of the [`join`] constants.
    pub join_strategy: u8,
}

impl Default for WireExec {
    fn default() -> WireExec {
        WireExec {
            ppk_prefetch_depth: 1,
            pushdown: pushdown::FULL,
            join_strategy: join::AUTO,
        }
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientMsg {
    /// The handshake: protocol version plus the session's security
    /// principal (name + roles) and an optional authentication token.
    /// Must be the first frame on a connection.
    Hello {
        /// Protocol version the client speaks.
        version: u16,
        /// Principal name for the whole session.
        principal: String,
        /// Roles granted to the principal.
        roles: Vec<String>,
        /// Shared-secret token; empty when the server requires none.
        token: String,
    },
    /// Compile `source` and return a server-side plan handle, shared
    /// across sessions preparing the same text.
    Prepare {
        /// Ad-hoc XQuery source text.
        source: String,
    },
    /// One-shot: compile (or hit the plan cache) and execute.
    Execute {
        /// Ad-hoc XQuery source text.
        source: String,
        /// Workload terms for this request.
        options: WireOptions,
    },
    /// Execute a previously prepared plan handle.
    ExecutePrepared {
        /// Handle from a [`ServerMsg::Prepared`] reply.
        handle: u64,
        /// Workload terms for this request.
        options: WireOptions,
    },
    /// Release this session's reference on a plan handle.
    CloseHandle {
        /// Handle to release.
        handle: u64,
    },
    /// Orderly end of session.
    Goodbye,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerMsg {
    /// Handshake accepted.
    HelloAck {
        /// Protocol version the server speaks.
        version: u16,
    },
    /// A [`ClientMsg::Prepare`] succeeded.
    Prepared {
        /// The plan handle.
        handle: u64,
        /// `true` when the handle already existed (created by this or
        /// another session) — the cross-session sharing signal.
        shared: bool,
    },
    /// One result item.
    Item {
        /// Is the item atomic? Adjacent atomics rejoin with a space.
        atomic: bool,
        /// The item's individual serialization.
        text: String,
    },
    /// Successful end of a result stream.
    Done {
        /// Items delivered (after element-level security filtering).
        delivered: u64,
    },
    /// Typed failure — possibly mid-stream, after some [`Self::Item`]s.
    Error {
        /// One of the [`code`] constants.
        code: u16,
        /// Human-readable rendering of the underlying error.
        message: String,
    },
    /// A [`ClientMsg::CloseHandle`] was processed.
    HandleClosed {
        /// `false` when the session did not hold the handle.
        released: bool,
    },
    /// Orderly close acknowledgement; the server closes after sending.
    Bye,
}

// ---- frame kinds ------------------------------------------------------------

const K_HELLO: u8 = 0x01;
const K_PREPARE: u8 = 0x02;
const K_EXECUTE: u8 = 0x03;
const K_EXECUTE_PREPARED: u8 = 0x04;
const K_CLOSE_HANDLE: u8 = 0x05;
const K_GOODBYE: u8 = 0x06;

const K_HELLO_ACK: u8 = 0x81;
const K_PREPARED: u8 = 0x82;
const K_ITEM: u8 = 0x83;
const K_DONE: u8 = 0x84;
const K_ERROR: u8 = 0x85;
const K_HANDLE_CLOSED: u8 = 0x86;
const K_BYE: u8 = 0x87;

// ---- primitive encoding -----------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    // the `as u32` cast cannot corrupt framing: any string long enough
    // to truncate (> 4 GiB) also pushes the frame past MAX_FRAME_LEN,
    // so `frame` refuses to emit it
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_options(buf: &mut Vec<u8>, o: &WireOptions) {
    put_u64(buf, o.deadline_ms);
    buf.push(o.batch as u8);
    put_u64(buf, o.memory_budget);
    match &o.exec {
        None => buf.push(0),
        Some(e) => {
            buf.push(1);
            put_u32(buf, e.ppk_prefetch_depth);
            buf.push(e.pushdown);
            buf.push(e.join_strategy);
        }
    }
}

/// Bounds-checked payload reader: every decode step validates against
/// the remaining buffer, so corrupt length fields surface as
/// [`WireError::Malformed`] instead of panics or giant allocations.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(WireError::Malformed("payload shorter than declared field"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("boolean byte not 0 or 1")),
        }
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("string field is not UTF-8"))
    }

    fn options(&mut self) -> Result<WireOptions, WireError> {
        let deadline_ms = self.u64()?;
        let batch = self.bool()?;
        let memory_budget = self.u64()?;
        let exec = match self.u8()? {
            0 => None,
            1 => Some(WireExec {
                ppk_prefetch_depth: self.u32()?,
                pushdown: self.u8()?,
                join_strategy: self.u8()?,
            }),
            _ => return Err(WireError::Malformed("exec-present byte not 0 or 1")),
        };
        Ok(WireOptions {
            deadline_ms,
            batch,
            memory_budget,
            exec,
        })
    }

    /// A message must consume its payload exactly.
    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after message"))
        }
    }
}

// ---- in-place frame encoding -------------------------------------------------

/// Append one frame to `buf`: the length word is reserved, `payload`
/// writes after the kind byte, and the length is patched in once it is
/// known. A frame over [`MAX_FRAME_LEN`] is taken back out — `buf`
/// ends where it began — and fails with
/// [`std::io::ErrorKind::InvalidData`] exactly as [`write_frame`]
/// does, so nothing of an undeliverable frame can reach the wire.
fn frame(buf: &mut Vec<u8>, kind: u8, payload: impl FnOnce(&mut Vec<u8>)) -> std::io::Result<()> {
    let at = buf.len();
    buf.extend_from_slice(&[0, 0, 0, 0, kind]);
    payload(buf);
    let len = (buf.len() - at - 4) as u64;
    if len > MAX_FRAME_LEN as u64 {
        buf.truncate(at);
        return Err(framing::over_cap(len));
    }
    buf[at..at + 4].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(())
}

/// The text of an [`ServerMsg::Item`] frame under construction: the
/// tail of the frame buffer, so a serializer writes the item where it
/// will be sent from. Only `str`s can be appended, which keeps the
/// field valid UTF-8.
pub struct ItemText<'a>(&'a mut Vec<u8>);

impl ItemText<'_> {
    /// Append a string slice.
    pub fn push_str(&mut self, s: &str) {
        self.0.extend_from_slice(s.as_bytes());
    }
}

/// An `Item` payload whose text is written in place, its length
/// patched in afterwards (see [`put_str`] on the cast).
fn put_item(buf: &mut Vec<u8>, atomic: bool, text: impl FnOnce(&mut ItemText<'_>)) {
    buf.push(atomic as u8);
    let at = buf.len();
    put_u32(buf, 0);
    text(&mut ItemText(buf));
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_be_bytes());
}

/// Append an [`ServerMsg::Item`] frame whose text `text` writes
/// straight into `buf` — no `String`, no payload copy. Fails like
/// [`ServerMsg::encode_into`].
pub fn encode_item(
    buf: &mut Vec<u8>,
    atomic: bool,
    text: impl FnOnce(&mut ItemText<'_>),
) -> std::io::Result<()> {
    frame(buf, K_ITEM, |b| put_item(b, atomic, text))
}

/// Append a [`ClientMsg::Hello`] frame from borrowed parts. More than
/// [`MAX_ROLES`] roles fails with [`std::io::ErrorKind::InvalidInput`]
/// — the server would reject it as malformed anyway (and past
/// `u16::MAX` roles the count field would silently truncate and desync
/// the payload), so misuse fails locally with a clear error instead.
pub fn encode_hello(
    buf: &mut Vec<u8>,
    version: u16,
    principal: &str,
    roles: &[impl AsRef<str>],
    token: &str,
) -> std::io::Result<()> {
    if roles.len() > MAX_ROLES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "{} roles exceeds the {MAX_ROLES}-role handshake cap",
                roles.len()
            ),
        ));
    }
    frame(buf, K_HELLO, |b| {
        put_u16(b, version);
        put_str(b, principal);
        put_u16(b, roles.len() as u16);
        for r in roles {
            put_str(b, r.as_ref());
        }
        put_str(b, token);
    })
}

/// Append a [`ClientMsg::Prepare`] frame from a borrowed text.
pub fn encode_prepare(buf: &mut Vec<u8>, source: &str) -> std::io::Result<()> {
    frame(buf, K_PREPARE, |b| put_str(b, source))
}

/// Append a [`ClientMsg::Execute`] frame from borrowed parts.
pub fn encode_execute(
    buf: &mut Vec<u8>,
    source: &str,
    options: &WireOptions,
) -> std::io::Result<()> {
    frame(buf, K_EXECUTE, |b| {
        put_str(b, source);
        put_options(b, options);
    })
}

/// Append a [`ClientMsg::ExecutePrepared`] frame.
pub fn encode_execute_prepared(
    buf: &mut Vec<u8>,
    handle: u64,
    options: &WireOptions,
) -> std::io::Result<()> {
    frame(buf, K_EXECUTE_PREPARED, |b| {
        put_u64(b, handle);
        put_options(b, options);
    })
}

// ---- message encode/decode --------------------------------------------------

impl ClientMsg {
    /// Append as one frame to `buf`, which on failure ends where it
    /// began: [`std::io::ErrorKind::InvalidInput`] for a `Hello` with
    /// more than [`MAX_ROLES`] roles, `InvalidData` for a frame over
    /// [`MAX_FRAME_LEN`].
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> std::io::Result<()> {
        match self {
            ClientMsg::Hello {
                version,
                principal,
                roles,
                token,
            } => encode_hello(buf, *version, principal, roles, token),
            ClientMsg::Prepare { source } => encode_prepare(buf, source),
            ClientMsg::Execute { source, options } => encode_execute(buf, source, options),
            ClientMsg::ExecutePrepared { handle, options } => {
                encode_execute_prepared(buf, *handle, options)
            }
            ClientMsg::CloseHandle { handle } => {
                frame(buf, K_CLOSE_HANDLE, |b| put_u64(b, *handle))
            }
            ClientMsg::Goodbye => frame(buf, K_GOODBYE, |_| {}),
        }
    }

    /// Decode from a raw frame.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<ClientMsg, WireError> {
        let mut r = Reader::new(payload);
        let msg = match kind {
            K_HELLO => {
                let version = r.u16()?;
                let principal = r.str()?;
                let n = r.u16()? as usize;
                if n > MAX_ROLES {
                    return Err(WireError::Malformed("too many roles in handshake"));
                }
                let mut roles = Vec::with_capacity(n);
                for _ in 0..n {
                    roles.push(r.str()?);
                }
                let token = r.str()?;
                ClientMsg::Hello {
                    version,
                    principal,
                    roles,
                    token,
                }
            }
            K_PREPARE => ClientMsg::Prepare { source: r.str()? },
            K_EXECUTE => ClientMsg::Execute {
                source: r.str()?,
                options: r.options()?,
            },
            K_EXECUTE_PREPARED => ClientMsg::ExecutePrepared {
                handle: r.u64()?,
                options: r.options()?,
            },
            K_CLOSE_HANDLE => ClientMsg::CloseHandle { handle: r.u64()? },
            K_GOODBYE => ClientMsg::Goodbye,
            other => return Err(WireError::UnknownFrame(other)),
        };
        r.finish()?;
        Ok(msg)
    }

    /// Write as one frame with one `write_all`; fails like
    /// [`Self::encode_into`] with nothing written.
    pub fn write(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf)?;
        w.write_all(&buf)
    }

    /// Read one client message; `Ok(None)` is a clean close.
    pub fn read(r: &mut impl Read) -> Result<Option<ClientMsg>, WireError> {
        match read_frame(r)? {
            None => Ok(None),
            Some((kind, payload)) => Ok(Some(ClientMsg::decode(kind, &payload)?)),
        }
    }
}

impl ServerMsg {
    fn kind(&self) -> u8 {
        match self {
            ServerMsg::HelloAck { .. } => K_HELLO_ACK,
            ServerMsg::Prepared { .. } => K_PREPARED,
            ServerMsg::Item { .. } => K_ITEM,
            ServerMsg::Done { .. } => K_DONE,
            ServerMsg::Error { .. } => K_ERROR,
            ServerMsg::HandleClosed { .. } => K_HANDLE_CLOSED,
            ServerMsg::Bye => K_BYE,
        }
    }

    fn put_payload(&self, buf: &mut Vec<u8>) {
        match self {
            ServerMsg::HelloAck { version } => put_u16(buf, *version),
            ServerMsg::Prepared { handle, shared } => {
                put_u64(buf, *handle);
                buf.push(*shared as u8);
            }
            ServerMsg::Item { atomic, text } => put_item(buf, *atomic, |t| t.push_str(text)),
            ServerMsg::Done { delivered } => put_u64(buf, *delivered),
            ServerMsg::Error { code, message } => {
                put_u16(buf, *code);
                put_str(buf, message);
            }
            ServerMsg::HandleClosed { released } => buf.push(*released as u8),
            ServerMsg::Bye => {}
        }
    }

    /// Serialize to a `(kind, payload)` of its own — for a caller that
    /// frames payloads itself with [`write_frame`]; a connection uses
    /// [`Self::encode_into`].
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut buf = Vec::new();
        self.put_payload(&mut buf);
        (self.kind(), buf)
    }

    /// Append as one frame to `buf`; a frame over [`MAX_FRAME_LEN`]
    /// fails with `InvalidData` and leaves `buf` ending where it began.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> std::io::Result<()> {
        frame(buf, self.kind(), |b| self.put_payload(b))
    }

    /// Decode from a raw frame.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<ServerMsg, WireError> {
        let mut r = Reader::new(payload);
        let msg = match kind {
            K_HELLO_ACK => ServerMsg::HelloAck { version: r.u16()? },
            K_PREPARED => ServerMsg::Prepared {
                handle: r.u64()?,
                shared: r.bool()?,
            },
            K_ITEM => ServerMsg::Item {
                atomic: r.bool()?,
                text: r.str()?,
            },
            K_DONE => ServerMsg::Done {
                delivered: r.u64()?,
            },
            K_ERROR => ServerMsg::Error {
                code: r.u16()?,
                message: r.str()?,
            },
            K_HANDLE_CLOSED => ServerMsg::HandleClosed {
                released: r.bool()?,
            },
            K_BYE => ServerMsg::Bye,
            other => return Err(WireError::UnknownFrame(other)),
        };
        r.finish()?;
        Ok(msg)
    }

    /// Write as one frame with one `write_all`.
    pub fn write(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf)?;
        w.write_all(&buf)
    }

    /// Read one server message; `Ok(None)` is a clean close.
    pub fn read(r: &mut impl Read) -> Result<Option<ServerMsg>, WireError> {
        match read_frame(r)? {
            None => Ok(None),
            Some((kind, payload)) => Ok(Some(ServerMsg::decode(kind, &payload)?)),
        }
    }
}

/// Rejoin per-item frames into the full serialization: a single space
/// between adjacent atomics, nothing otherwise — the exact rule the
/// server's `serialize_sequence` applies, so the reassembly is
/// byte-identical to a server-side serialization of the whole result.
pub fn join_items<'a>(items: impl IntoIterator<Item = (bool, &'a str)>) -> String {
    let mut out = String::new();
    let mut prev_atomic = false;
    for (atomic, text) in items {
        if atomic && prev_atomic {
            out.push(' ');
        }
        out.push_str(text);
        prev_atomic = atomic;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_client(msg: ClientMsg) {
        let mut buf = Vec::new();
        msg.write(&mut buf).unwrap();
        let got = ClientMsg::read(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(got, msg);
    }

    fn roundtrip_server(msg: ServerMsg) {
        let mut buf = Vec::new();
        msg.write(&mut buf).unwrap();
        let got = ServerMsg::read(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn every_message_roundtrips() {
        roundtrip_client(ClientMsg::Hello {
            version: PROTOCOL_VERSION,
            principal: "alice".into(),
            roles: vec!["admin".into(), "csr".into()],
            token: "s3cret".into(),
        });
        roundtrip_client(ClientMsg::Prepare {
            source: "for $i in (1,2) return $i".into(),
        });
        roundtrip_client(ClientMsg::Execute {
            source: "1 + 1".into(),
            options: WireOptions {
                deadline_ms: 250,
                batch: true,
                memory_budget: 1 << 20,
                exec: Some(WireExec {
                    ppk_prefetch_depth: 0,
                    pushdown: pushdown::JOINS,
                    join_strategy: join::HASH,
                }),
            },
        });
        roundtrip_client(ClientMsg::ExecutePrepared {
            handle: 7,
            options: WireOptions::default(),
        });
        roundtrip_client(ClientMsg::CloseHandle { handle: 7 });
        roundtrip_client(ClientMsg::Goodbye);
        roundtrip_server(ServerMsg::HelloAck {
            version: PROTOCOL_VERSION,
        });
        roundtrip_server(ServerMsg::Prepared {
            handle: 42,
            shared: true,
        });
        roundtrip_server(ServerMsg::Item {
            atomic: false,
            text: "<P><CID>C0001</CID></P>".into(),
        });
        roundtrip_server(ServerMsg::Done { delivered: 12 });
        roundtrip_server(ServerMsg::Error {
            code: code::DEADLINE,
            message: "deadline of 250ms exceeded".into(),
        });
        roundtrip_server(ServerMsg::HandleClosed { released: false });
        roundtrip_server(ServerMsg::Bye);
    }

    #[test]
    fn clean_eof_is_none_but_mid_frame_eof_is_truncated() {
        let empty: &[u8] = &[];
        assert!(ClientMsg::read(&mut &*empty).unwrap().is_none());
        let mut buf = Vec::new();
        ClientMsg::Goodbye.write(&mut buf).unwrap();
        for cut in 1..buf.len() {
            let err = ClientMsg::read(&mut &buf[..cut]).unwrap_err();
            assert!(matches!(err, WireError::Truncated), "cut at {cut}: {err:?}");
        }
    }

    /// Yields one byte per read and a `WouldBlock` error between every
    /// byte — the worst-case model of a polling socket whose 50ms read
    /// timeout keeps firing mid-frame.
    struct Trickle<'a> {
        data: &'a [u8],
        pos: usize,
        ready: bool,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.ready = false;
            if self.pos == self.data.len() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn frame_reader_resumes_across_timeouts_without_desyncing() {
        // two back-to-back messages so a lost prefix in the first
        // would misparse or corrupt the second
        let first = ClientMsg::Prepare {
            source: "for $i in (1,2,3) return $i * $i".into(),
        };
        let second = ClientMsg::CloseHandle { handle: 7 };
        let mut wire = Vec::new();
        first.write(&mut wire).unwrap();
        second.write(&mut wire).unwrap();
        let mut trickle = Trickle {
            data: &wire,
            pos: 0,
            ready: false,
        };
        let mut frames = FrameReader::new();
        let counters = WireCounters::default();
        let mut got = Vec::new();
        loop {
            match frames.read_client(&mut trickle, &counters) {
                Ok(None) => break,
                Ok(Some(m)) => got.push(m),
                Err(WireError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
                Err(e) => panic!("stream desynced: {e:?}"),
            }
        }
        assert_eq!(got, vec![first, second]);
        let stats = counters.snapshot();
        assert_eq!(stats.frames_in, 2);
        assert_eq!(stats.bytes_in, wire.len() as u64);
        // one byte per read, plus the read that saw EOF
        assert_eq!(stats.reads, wire.len() as u64 + 1);
    }

    #[test]
    fn write_frame_refuses_frames_the_peer_would_reject() {
        let payload = vec![0u8; MAX_FRAME_LEN as usize]; // +1 kind byte puts it over
        let mut out = Vec::new();
        let err = write_frame(&mut out, K_ITEM, &payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(out.is_empty(), "no partial frame may reach the wire");
        // exactly at the cap is fine
        let payload = vec![0u8; MAX_FRAME_LEN as usize - 1];
        write_frame(&mut out, K_ITEM, &payload).unwrap();
    }

    #[test]
    fn hello_with_too_many_roles_fails_at_encode_time() {
        let msg = ClientMsg::Hello {
            version: PROTOCOL_VERSION,
            principal: "alice".into(),
            roles: (0..=MAX_ROLES).map(|i| format!("r{i}")).collect(),
            token: String::new(),
        };
        let mut out = Vec::new();
        let err = msg.write(&mut out).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(out.is_empty());
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        buf.push(K_GOODBYE);
        let err = ClientMsg::read(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::Oversized { .. }), "{err:?}");
    }

    #[test]
    fn corrupt_payloads_are_malformed_not_panics() {
        // string length pointing past the payload
        let mut payload = Vec::new();
        put_u32(&mut payload, 10_000);
        payload.extend_from_slice(b"short");
        let err = ClientMsg::decode(K_PREPARE, &payload).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err:?}");
        // trailing garbage after a complete message
        let err = ClientMsg::decode(K_GOODBYE, &[0xFF]).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err:?}");
        // invalid UTF-8 in a string field
        let mut payload = Vec::new();
        put_u32(&mut payload, 2);
        payload.extend_from_slice(&[0xC3, 0x28]);
        let err = ClientMsg::decode(K_PREPARE, &payload).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err:?}");
        // unknown frame kind
        let err = ClientMsg::decode(0x7F, &[]).unwrap_err();
        assert!(matches!(err, WireError::UnknownFrame(0x7F)), "{err:?}");
    }

    #[test]
    fn join_items_matches_xquery_atomic_separation() {
        assert_eq!(
            join_items([(true, "1"), (true, "2"), (false, "<a/>"), (true, "3")]),
            "1 2<a/>3"
        );
        assert_eq!(join_items([]), "");
        assert_eq!(join_items([(false, "<a/>"), (false, "<b/>")]), "<a/><b/>");
    }

    #[test]
    fn item_written_in_place_is_the_same_frame_as_the_message() {
        let mut in_place = b"earlier frames".to_vec();
        let mut by_message = in_place.clone();
        encode_item(&mut in_place, true, |t| {
            t.push_str("caf");
            t.push_str("\u{e9}");
        })
        .unwrap();
        ServerMsg::Item {
            atomic: true,
            text: "caf\u{e9}".into(),
        }
        .encode_into(&mut by_message)
        .unwrap();
        assert_eq!(in_place, by_message);
    }

    #[test]
    fn over_cap_frame_leaves_the_buffer_where_it_began() {
        let mut buf = Vec::new();
        ServerMsg::Done { delivered: 1 }
            .encode_into(&mut buf)
            .unwrap();
        let before = buf.clone();
        // payload = atomic byte + u32 length + text; +1 kind byte puts it over
        let text = "x".repeat(MAX_FRAME_LEN as usize - 5);
        let err = encode_item(&mut buf, false, |t| t.push_str(&text)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(buf, before, "nothing of an undeliverable item stays");
        // exactly at the cap is fine
        encode_item(&mut buf, false, |t| t.push_str(&text[1..])).unwrap();
        // and an over-cap request fails the same way
        let mut buf = before.clone();
        let err = encode_prepare(&mut buf, &"x".repeat(MAX_FRAME_LEN as usize)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(buf, before);
    }
}
