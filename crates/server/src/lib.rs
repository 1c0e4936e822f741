//! # aldsp-server — the `aldspd` network front door
//!
//! The paper's ALDSP is a *server*: clients connect, authenticate, and
//! run queries whose cached plans stay user-independent because
//! element-level security is applied post-cache (§7). This crate is
//! that front door: a threaded TCP server speaking the
//! `aldsp-protocol` length-prefixed wire protocol over an existing
//! [`AldspServer`].
//!
//! * **Session security.** The handshake carries the protocol version,
//!   the session's [`Principal`] (name + roles), and an optional
//!   shared-secret token. The principal is pinned into per-connection
//!   session state and stamped onto every [`QueryRequest`], so results
//!   flow through the existing post-cache element-level security path —
//!   one cached plan, per-principal redaction.
//! * **Plan-handle cache.** `Prepare` compiles through the engine's
//!   options-qualified plan cache and returns a numeric handle shared
//!   across sessions: two connections preparing the same text get the
//!   *same* handle (and the same cached plan). Handles are
//!   session-refcounted and evicted when the last holder closes.
//! * **Governance at the socket.** Deadline, priority class, memory
//!   budget and a full `ExecutionOptions` override are all expressible
//!   on the wire; admission shed, mid-stream deadline and budget trips
//!   surface as *typed* error frames ([`aldsp_protocol::code`]), after
//!   any already-streamed result prefix.
//!
//! Result items stream one frame each (individual serialization + an
//! atomic flag); the client reassembles them byte-identically to a
//! server-side serialization — the property the differential `wire`
//! cell pins against the in-process engine.

pub mod demo;

use aldsp::security::Principal;
use aldsp::workload::WorkloadError;
use aldsp::xdm::item::Item;
use aldsp::xdm::xml::serialize_sequence;
use aldsp::{
    AldspServer, ExecutionOptions, JoinStrategy, Priority, PushdownLevel, QueryRequest, ServerError,
};
use aldsp_protocol as proto;
use aldsp_protocol::{code, ClientMsg, ServerMsg, WireError, WireOptions};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often blocked reads wake up to check the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);

/// Write timeout on session sockets: a peer that stops *reading*
/// mid-stream fills the send buffer and would otherwise park the
/// session thread in `write_all` forever (and with it, shutdown's
/// join). A timed-out write is treated as a disconnect.
const WRITE_STALL: Duration = Duration::from_secs(10);

/// Front-door configuration.
#[derive(Debug, Clone, Default)]
pub struct WireConfig {
    /// When set, every handshake must present exactly this token;
    /// anything else is rejected with [`code::AUTH`] and the
    /// connection is closed. `None` accepts any principal unchecked
    /// (the paper delegates authentication to the container).
    pub token: Option<String>,
}

/// The server half of the §2.2 plan cache seen from the wire: a
/// process-wide map from prepared query text to a numeric handle.
/// Handles are deliberately *not* per-session — the whole point of the
/// paper's post-cache security design is that one compiled plan (and
/// one handle) serves every principal, with redaction applied to each
/// session's results afterwards. Entries are refcounted by holding
/// sessions and evicted when the last reference closes.
#[derive(Default)]
pub struct HandleRegistry {
    state: Mutex<HandleState>,
}

#[derive(Default)]
struct HandleState {
    by_source: HashMap<Arc<str>, u64>,
    by_id: HashMap<u64, HandleEntry>,
    next: u64,
}

struct HandleEntry {
    source: Arc<str>,
    sessions: usize,
}

impl HandleRegistry {
    /// Register a reference to `source` for one session; returns
    /// `(handle, shared)` where `shared` is `true` when the handle
    /// already existed (created by this or another session).
    fn acquire(&self, source: &str, already_held: bool) -> (u64, bool) {
        let mut st = self.state.lock();
        if let Some(&id) = st.by_source.get(source) {
            if !already_held {
                st.by_id
                    .get_mut(&id)
                    .expect("by_source and by_id agree")
                    .sessions += 1;
            }
            return (id, true);
        }
        st.next += 1;
        let id = st.next;
        let source: Arc<str> = source.into();
        st.by_source.insert(source.clone(), id);
        st.by_id.insert(
            id,
            HandleEntry {
                source,
                sessions: 1,
            },
        );
        (id, false)
    }

    /// Release one session's reference; the entry (and its source-text
    /// key) is dropped when the last reference goes.
    fn release(&self, id: u64) {
        let mut st = self.state.lock();
        let Some(entry) = st.by_id.get_mut(&id) else {
            return;
        };
        entry.sessions -= 1;
        if entry.sessions == 0 {
            let source = entry.source.clone();
            st.by_id.remove(&id);
            st.by_source.remove(&source);
        }
    }

    fn source_of(&self, id: u64) -> Option<Arc<str>> {
        self.state.lock().by_id.get(&id).map(|e| e.source.clone())
    }

    /// The existing handle for `source`, if any.
    fn id_of(&self, source: &str) -> Option<u64> {
        self.state.lock().by_source.get(source).copied()
    }

    /// Live (referenced) handles.
    pub fn len(&self) -> usize {
        self.state.lock().by_id.len()
    }

    /// No live handles?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A live session: its thread plus a handle on the socket so
/// [`WireListener::shutdown`] can force blocked reads *and writes* to
/// error out before joining.
struct SessionSlot {
    thread: std::thread::JoinHandle<()>,
    stream: TcpStream,
}

/// A running front door. Dropping (or [`WireListener::shutdown`])
/// stops accepting, wakes every session, and joins all threads.
pub struct WireListener {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<SessionSlot>>>,
    handles: Arc<HandleRegistry>,
}

impl WireListener {
    /// The bound address (`--port 0` binds an ephemeral port; read the
    /// real one here).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared plan-handle registry (for tests and introspection).
    pub fn handles(&self) -> &Arc<HandleRegistry> {
        &self.handles
    }

    /// Stop accepting, wake blocked sessions, and join every thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // wake the blocking accept with a throwaway connection
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // accept is joined, so no new slots can appear after the take
        let sessions = std::mem::take(&mut *self.sessions.lock());
        // force-close the sockets first: a session parked in write_all
        // behind a peer that stopped reading errors out immediately
        // instead of holding the join until its write timeout fires
        for s in &sessions {
            let _ = s.stream.shutdown(Shutdown::Both);
        }
        for s in sessions {
            let _ = s.thread.join();
        }
    }
}

impl Drop for WireListener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start serving `server` on `addr` (e.g. `"127.0.0.1:0"` for an
/// ephemeral port): one accept thread, one thread per connection.
pub fn serve(
    addr: impl ToSocketAddrs,
    server: Arc<AldspServer>,
    config: WireConfig,
) -> std::io::Result<WireListener> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let sessions: Arc<Mutex<Vec<SessionSlot>>> = Arc::default();
    let handles = Arc::new(HandleRegistry::default());
    let accept_thread = {
        let shutdown = shutdown.clone();
        let sessions = sessions.clone();
        let handles = handles.clone();
        std::thread::Builder::new()
            .name("aldspd-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // without a second handle shutdown() could never
                    // unblock this socket, so refuse the connection
                    let Ok(stream_handle) = stream.try_clone() else {
                        continue;
                    };
                    let session = Session {
                        server: server.clone(),
                        handles: handles.clone(),
                        config: config.clone(),
                        shutdown: shutdown.clone(),
                        held: HashSet::new(),
                        principal: Principal::new("anonymous", &[]),
                    };
                    let t = std::thread::Builder::new()
                        .name("aldspd-session".into())
                        .spawn(move || session.run(stream))
                        .expect("spawn session thread");
                    let mut live = sessions.lock();
                    // reap finished sessions so a long-lived server
                    // doesn't accumulate join handles forever
                    live.retain(|s: &SessionSlot| !s.thread.is_finished());
                    live.push(SessionSlot {
                        thread: t,
                        stream: stream_handle,
                    });
                }
            })?
    };
    Ok(WireListener {
        local_addr,
        shutdown,
        accept_thread: Some(accept_thread),
        sessions,
        handles,
    })
}

/// Map a [`ServerError`] onto its typed wire code.
pub fn error_code(e: &ServerError) -> u16 {
    match e {
        ServerError::Compile(_) => code::COMPILE,
        ServerError::Security(_) => code::SECURITY,
        ServerError::Workload(WorkloadError::Overloaded { .. }) => code::OVERLOADED,
        ServerError::Workload(WorkloadError::DeadlineExceeded { .. }) => code::DEADLINE,
        ServerError::Workload(WorkloadError::BudgetExceeded { .. }) => code::BUDGET,
        ServerError::Execute(_) => code::EXECUTE,
        ServerError::Submit(_) | ServerError::Io(_) | ServerError::Other(_) => code::INTERNAL,
    }
}

/// Encode `msg` into one buffer and write it with a single syscall —
/// `write_frame` directly on a `TcpStream` would issue three. Encoding
/// fails (`InvalidData`, nothing written) when the frame would exceed
/// `MAX_FRAME_LEN`; see the oversized-item handling in `run_query`.
fn send(writer: &mut TcpStream, msg: &ServerMsg) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(64);
    msg.write(&mut buf)?;
    writer.write_all(&buf)
}

/// Constant-time handshake-token check: both values are digested
/// through one per-call randomly keyed SipHash and the fixed-width
/// digests compared without early exit, so neither the outcome's
/// timing nor its variance leaks prefix or length information about
/// the required token to unauthenticated peers. (A forged collision
/// would need to beat a keyed 64-bit PRF blind, once per connection.)
fn token_matches(presented: &str, required: &str) -> bool {
    use std::hash::{BuildHasher, Hasher};
    let keys = std::collections::hash_map::RandomState::new();
    let digest = |s: &str| {
        let mut h = keys.build_hasher();
        h.write(s.as_bytes());
        h.finish().to_be_bytes()
    };
    let (a, b) = (digest(presented), digest(required));
    a.iter().zip(b).fold(0u8, |diff, (x, y)| diff | (x ^ y)) == 0
}

/// Why a session loop ended (internal control flow).
enum SessionEnd {
    /// Peer said Goodbye, closed cleanly between frames, or broke the
    /// protocol and was told so.
    Clean,
    /// Transport failed or the peer vanished; nothing more to say.
    Disconnected,
}

struct Session {
    server: Arc<AldspServer>,
    handles: Arc<HandleRegistry>,
    config: WireConfig,
    shutdown: Arc<AtomicBool>,
    held: HashSet<u64>,
    principal: Principal,
}

impl Session {
    fn run(mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(READ_POLL));
        let _ = stream.set_write_timeout(Some(WRITE_STALL));
        let _ = self.serve_connection(&stream);
        // close the TCP connection explicitly: the listener's
        // SessionSlot holds a clone of this socket (so shutdown() can
        // unblock it), and dropping our handles alone would leave the
        // peer without a FIN until that slot is reaped
        let _ = stream.shutdown(Shutdown::Both);
        // release this session's plan-handle references whatever the
        // exit path — clean Goodbye, mid-stream disconnect, or error
        for id in std::mem::take(&mut self.held) {
            self.handles.release(id);
        }
    }

    /// Read frames until the peer leaves, a protocol error closes the
    /// connection, or the listener shuts down.
    fn serve_connection(&mut self, stream: &TcpStream) -> std::io::Result<SessionEnd> {
        let mut reader = stream.try_clone()?;
        let mut writer = stream.try_clone()?;
        // one resumable frame reader for the connection's lifetime, so
        // a poll timeout mid-frame never discards consumed bytes
        let mut frames = proto::FrameReader::new();
        if !self.handshake(&mut frames, &mut reader, &mut writer)? {
            return Ok(SessionEnd::Clean);
        }
        loop {
            let msg = match self.read_polling(&mut frames, &mut reader) {
                Ok(None) => return Ok(SessionEnd::Clean),
                Ok(Some(m)) => m,
                Err(WireError::Io(_)) | Err(WireError::Truncated) => {
                    return Ok(SessionEnd::Disconnected)
                }
                Err(e) => {
                    // malformed/oversized/unknown frames get a typed
                    // reply, then the connection closes — resyncing a
                    // corrupt byte stream is not possible
                    let _ = send(
                        &mut writer,
                        &ServerMsg::Error {
                            code: code::MALFORMED,
                            message: e.to_string(),
                        },
                    );
                    return Ok(SessionEnd::Clean);
                }
            };
            match msg {
                ClientMsg::Hello { .. } => {
                    send(
                        &mut writer,
                        &ServerMsg::Error {
                            code: code::UNSUPPORTED,
                            message: "duplicate handshake".into(),
                        },
                    )?;
                    return Ok(SessionEnd::Clean);
                }
                ClientMsg::Prepare { source } => self.prepare(&mut writer, &source)?,
                ClientMsg::Execute { source, options } => {
                    if let SessionEnd::Disconnected =
                        self.run_query(&mut writer, &source, &options)?
                    {
                        return Ok(SessionEnd::Disconnected);
                    }
                }
                ClientMsg::ExecutePrepared { handle, options } => {
                    match self.handles.source_of(handle) {
                        None => {
                            // typed and survivable: the connection
                            // stays usable after naming a bad handle
                            send(
                                &mut writer,
                                &ServerMsg::Error {
                                    code: code::UNKNOWN_HANDLE,
                                    message: format!("no prepared plan handle {handle}"),
                                },
                            )?;
                        }
                        Some(source) => {
                            if let SessionEnd::Disconnected =
                                self.run_query(&mut writer, &source, &options)?
                            {
                                return Ok(SessionEnd::Disconnected);
                            }
                        }
                    }
                }
                ClientMsg::CloseHandle { handle } => {
                    let released = self.held.remove(&handle);
                    if released {
                        self.handles.release(handle);
                    }
                    send(&mut writer, &ServerMsg::HandleClosed { released })?;
                }
                ClientMsg::Goodbye => {
                    send(&mut writer, &ServerMsg::Bye)?;
                    return Ok(SessionEnd::Clean);
                }
            }
        }
    }

    /// First frame must be a version-matching, token-passing Hello.
    /// Returns `false` when the connection was rejected (reply already
    /// sent).
    fn handshake(
        &mut self,
        frames: &mut proto::FrameReader,
        reader: &mut TcpStream,
        writer: &mut TcpStream,
    ) -> std::io::Result<bool> {
        let hello = match self.read_polling(frames, reader) {
            Ok(Some(m)) => m,
            Ok(None) | Err(WireError::Io(_)) | Err(WireError::Truncated) => return Ok(false),
            Err(e) => {
                let _ = send(
                    writer,
                    &ServerMsg::Error {
                        code: code::MALFORMED,
                        message: e.to_string(),
                    },
                );
                return Ok(false);
            }
        };
        let ClientMsg::Hello {
            version,
            principal,
            roles,
            token,
        } = hello
        else {
            let _ = send(
                writer,
                &ServerMsg::Error {
                    code: code::UNSUPPORTED,
                    message: "expected Hello as the first frame".into(),
                },
            );
            return Ok(false);
        };
        if version != proto::PROTOCOL_VERSION {
            let _ = send(
                writer,
                &ServerMsg::Error {
                    code: code::VERSION_MISMATCH,
                    message: format!(
                        "client speaks protocol v{version}, server speaks v{}",
                        proto::PROTOCOL_VERSION
                    ),
                },
            );
            return Ok(false);
        }
        if let Some(required) = &self.config.token {
            if !token_matches(&token, required) {
                let _ = send(
                    writer,
                    &ServerMsg::Error {
                        code: code::AUTH,
                        message: "handshake token rejected".into(),
                    },
                );
                return Ok(false);
            }
        }
        let role_refs: Vec<&str> = roles.iter().map(String::as_str).collect();
        self.principal = Principal::new(&principal, &role_refs);
        send(
            writer,
            &ServerMsg::HelloAck {
                version: proto::PROTOCOL_VERSION,
            },
        )?;
        Ok(true)
    }

    /// Blocking read that honors the listener's shutdown flag: the
    /// stream has a [`READ_POLL`] read timeout, so a quiet connection
    /// re-checks the flag a few times a second. The timeout can fire
    /// *inside* a frame (a client that stalls >50ms mid-send is
    /// legitimate); `frames` keeps the consumed prefix buffered so the
    /// retry resumes mid-frame instead of desyncing the stream.
    fn read_polling(
        &self,
        frames: &mut proto::FrameReader,
        reader: &mut TcpStream,
    ) -> Result<Option<ClientMsg>, WireError> {
        loop {
            match frames.read_client(reader) {
                Err(WireError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return Ok(None);
                    }
                }
                other => return other,
            }
        }
    }

    /// Compile-check `source` (which lands it in the engine's plan
    /// cache) and hand out a cross-session handle.
    fn prepare(&mut self, writer: &mut TcpStream, source: &str) -> std::io::Result<()> {
        // the explain-only probe compiles through the cached_plan path
        // without executing, so prepare errors surface here and the
        // compiled plan is hot for every later ExecutePrepared
        if let Err(e) = self
            .server
            .execute(QueryRequest::new(source).explain_only())
        {
            return send(
                writer,
                &ServerMsg::Error {
                    code: error_code(&e),
                    message: e.to_string(),
                },
            );
        }
        let already_held = self
            .handles
            .id_of(source)
            .is_some_and(|id| self.held.contains(&id));
        let (handle, shared) = self.handles.acquire(source, already_held);
        self.held.insert(handle);
        send(writer, &ServerMsg::Prepared { handle, shared })
    }

    /// Execute and stream: Item frames as results arrive, then Done —
    /// or a typed Error frame after any already-streamed prefix.
    fn run_query(
        &self,
        writer: &mut TcpStream,
        source: &str,
        options: &WireOptions,
    ) -> std::io::Result<SessionEnd> {
        let mut req = QueryRequest::new(source).principal(self.principal.clone());
        if options.deadline_ms > 0 {
            req = req.deadline(Duration::from_millis(options.deadline_ms));
        }
        if options.batch {
            req = req.priority(Priority::Batch);
        }
        if options.memory_budget > 0 {
            req = req.memory_budget(options.memory_budget);
        }
        if let Some(exec) = &options.exec {
            match decode_exec(exec) {
                Ok(e) => req = req.execution(e),
                Err(msg) => {
                    send(
                        writer,
                        &ServerMsg::Error {
                            code: code::MALFORMED,
                            message: msg.into(),
                        },
                    )?;
                    return Ok(SessionEnd::Clean);
                }
            }
        }
        let mut write_err: Option<std::io::Error> = None;
        let mut oversized: Option<std::io::Error> = None;
        let mut sink = |item: Item| {
            let atomic = matches!(item, Item::Atomic(_));
            let text = serialize_sequence(&[item]);
            match send(&mut *writer, &ServerMsg::Item { atomic, text }) {
                Ok(()) => true,
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    // the item exceeds MAX_FRAME_LEN — undeliverable
                    // in one frame; abort the stream and report a
                    // typed error (nothing was written, so the
                    // connection stays framed and usable)
                    oversized = Some(e);
                    false
                }
                Err(e) => {
                    // peer gone mid-stream: abort the query cleanly
                    write_err = Some(e);
                    false
                }
            }
        };
        let outcome = self.server.execute(req.stream_to(&mut sink));
        if write_err.is_some() {
            return Ok(SessionEnd::Disconnected);
        }
        if let Some(e) = oversized {
            send(
                writer,
                &ServerMsg::Error {
                    code: code::INTERNAL,
                    message: format!("result item undeliverable: {e}"),
                },
            )?;
            return Ok(SessionEnd::Clean);
        }
        match outcome {
            Ok(resp) => send(
                writer,
                &ServerMsg::Done {
                    delivered: resp.delivered(),
                },
            )?,
            // shed / deadline / budget / runtime errors all surface as
            // typed frames — mid-stream ones arrive after the intact
            // prefix of Item frames
            Err(e) => send(
                writer,
                &ServerMsg::Error {
                    code: error_code(&e),
                    message: e.to_string(),
                },
            )?,
        }
        Ok(SessionEnd::Clean)
    }
}

/// Lift a wire execution override into typed [`ExecutionOptions`].
fn decode_exec(e: &proto::WireExec) -> Result<ExecutionOptions, &'static str> {
    let pushdown = match e.pushdown {
        proto::pushdown::OFF => PushdownLevel::Off,
        proto::pushdown::JOINS => PushdownLevel::Joins,
        proto::pushdown::FULL => PushdownLevel::Full,
        _ => return Err("unknown pushdown level on the wire"),
    };
    let join_strategy = match e.join_strategy {
        proto::join::AUTO => JoinStrategy::Auto,
        proto::join::NESTED_LOOP => JoinStrategy::NestedLoop,
        proto::join::HASH => JoinStrategy::Hash,
        _ => return Err("unknown join strategy on the wire"),
    };
    Ok(ExecutionOptions::new()
        .workers(e.workers as usize)
        .morsel_size((e.morsel_size as usize).max(1))
        .ppk_prefetch_depth(e.ppk_prefetch_depth as usize)
        .pushdown(pushdown)
        .join_strategy(join_strategy))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_registry_shares_and_refcounts() {
        let reg = HandleRegistry::default();
        let (h1, shared1) = reg.acquire("q1", false);
        assert!(!shared1);
        let (h2, shared2) = reg.acquire("q1", false);
        assert_eq!(h1, h2, "same text, same handle across sessions");
        assert!(shared2);
        let (h3, _) = reg.acquire("q2", false);
        assert_ne!(h1, h3);
        assert_eq!(reg.len(), 2);
        reg.release(h1);
        assert_eq!(reg.len(), 2, "still referenced by the second session");
        reg.release(h1);
        assert_eq!(reg.len(), 1, "dropped at zero references");
        // a fresh prepare after full release mints a new handle
        let (h4, shared4) = reg.acquire("q1", false);
        assert!(!shared4);
        assert_ne!(h1, h4);
    }

    #[test]
    fn token_comparison_is_exact_across_lengths() {
        assert!(token_matches("s3cret", "s3cret"));
        assert!(token_matches("", ""));
        assert!(!token_matches("s3cret", "s3crex"));
        assert!(!token_matches("s3cre", "s3cret"));
        assert!(!token_matches("s3cret-and-more", "s3cret"));
        assert!(!token_matches("", "s3cret"));
    }

    #[test]
    fn exec_decoding_validates_enums() {
        let mut e = proto::WireExec::default();
        assert!(decode_exec(&e).is_ok());
        e.pushdown = 9;
        assert!(decode_exec(&e).is_err());
        e.pushdown = proto::pushdown::OFF;
        // 2 and 4 are the retired index-NL / sort-merge codes
        for code in [2, 4, 9] {
            e.join_strategy = code;
            assert!(decode_exec(&e).is_err(), "join code {code}");
        }
        e.join_strategy = proto::join::HASH;
        assert!(decode_exec(&e).is_ok());
    }
}
