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
//! Result items are one frame each (individual serialization + an
//! atomic flag); the client reassembles them byte-identically to a
//! server-side serialization — the property the differential `wire`
//! cell pins against the in-process engine.
//!
//! **One write per reply.** A session owns one reused reply buffer.
//! Every frame it sends is encoded in place at the buffer's end — an
//! item is serialized straight into its frame — and the buffer goes
//! out with a single `write` when the reply ends (`Done`, `Error`, or
//! any one-frame reply), or earlier each time it passes
//! [`proto::WIRE_BUF_LEN`], so a long result still streams with
//! bounded memory. Requests are read through one buffered
//! [`proto::FrameReader`]. [`WireListener::wire_stats`] counts the
//! calls, frames and bytes exactly.

#![forbid(unsafe_code)]

pub mod demo;

use aldsp::security::Principal;
use aldsp::workload::WorkloadError;
use aldsp::xdm::item::Item;
use aldsp::xdm::xml::{write_item, XmlSink};
use aldsp::{
    AldspServer, ExecutionOptions, JoinStrategy, Priority, PushdownLevel, QueryRequest, ServerError,
};
use aldsp_protocol as proto;
use aldsp_protocol::{
    code, ClientMsg, FrameReader, FrameWriter, ServerMsg, WireCounters, WireError, WireOptions,
    WireStats,
};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    counters: Arc<WireCounters>,
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

    /// Exact socket work of every session so far, summed: calls,
    /// frames and bytes per direction. A reply is counted before it is
    /// written, so a client holding a reply finds it here.
    pub fn wire_stats(&self) -> WireStats {
        self.counters.snapshot()
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
    let counters = Arc::new(WireCounters::default());
    let accept_thread = {
        let shutdown = shutdown.clone();
        let sessions = sessions.clone();
        let handles = handles.clone();
        let counters = counters.clone();
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
                        counters: counters.clone(),
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
        counters,
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
    counters: Arc<WireCounters>,
    held: HashSet<u64>,
    principal: Principal,
}

/// The session's reply path: every frame the server sends is encoded
/// into `frames` and leaves through [`Reply::flush`].
struct Reply<'a> {
    stream: &'a TcpStream,
    frames: FrameWriter,
    counters: Arc<WireCounters>,
}

/// Lets the XML serializer write into an `Item` frame's text.
struct FrameText<'a, 'b>(&'a mut proto::ItemText<'b>);

impl XmlSink for FrameText<'_, '_> {
    fn push_str(&mut self, s: &str) {
        self.0.push_str(s)
    }
}

impl Reply<'_> {
    /// Buffer one result item, serialized straight into its frame, and
    /// send what is buffered once it passes [`proto::WIRE_BUF_LEN`].
    /// An item over `MAX_FRAME_LEN` fails with `InvalidData` and
    /// leaves the buffer (and so the wire) without a byte of it.
    fn item(&mut self, item: &Item) -> std::io::Result<()> {
        let atomic = matches!(item, Item::Atomic(_));
        self.frames.push(|buf| {
            proto::encode_item(buf, atomic, |text| write_item(item, &mut FrameText(text)))
        })?;
        if self.frames.buffered() >= proto::WIRE_BUF_LEN {
            self.flush()?;
        }
        Ok(())
    }

    /// Buffer `msg` behind whatever the reply already holds and send it
    /// all with one write: the end of every reply.
    fn finish(&mut self, msg: &ServerMsg) -> std::io::Result<()> {
        self.frames.push(|buf| msg.encode_into(buf))?;
        self.flush()
    }

    fn error(&mut self, code: u16, message: String) -> std::io::Result<()> {
        self.finish(&ServerMsg::Error { code, message })
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.frames.flush(&mut self.stream, &self.counters)
    }
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
        // one resumable frame reader for the connection's lifetime, so
        // a poll timeout mid-frame never discards consumed bytes
        let mut frames = FrameReader::new();
        let mut out = Reply {
            stream,
            frames: FrameWriter::new(),
            counters: self.counters.clone(),
        };
        if !self.handshake(&mut frames, stream, &mut out)? {
            return Ok(SessionEnd::Clean);
        }
        loop {
            let msg = match self.read_polling(&mut frames, stream) {
                Ok(None) => return Ok(SessionEnd::Clean),
                Ok(Some(m)) => m,
                Err(WireError::Io(_)) | Err(WireError::Truncated) => {
                    return Ok(SessionEnd::Disconnected)
                }
                Err(e) => {
                    // malformed/oversized/unknown frames get a typed
                    // reply, then the connection closes — resyncing a
                    // corrupt byte stream is not possible
                    let _ = out.error(code::MALFORMED, e.to_string());
                    return Ok(SessionEnd::Clean);
                }
            };
            match msg {
                ClientMsg::Hello { .. } => {
                    out.error(code::UNSUPPORTED, "duplicate handshake".into())?;
                    return Ok(SessionEnd::Clean);
                }
                ClientMsg::Prepare { source } => self.prepare(&mut out, &source)?,
                ClientMsg::Execute { source, options } => {
                    if let SessionEnd::Disconnected = self.run_query(&mut out, &source, &options)? {
                        return Ok(SessionEnd::Disconnected);
                    }
                }
                ClientMsg::ExecutePrepared { handle, options } => {
                    match self.handles.source_of(handle) {
                        // typed and survivable: the connection stays
                        // usable after naming a bad handle
                        None => out.error(
                            code::UNKNOWN_HANDLE,
                            format!("no prepared plan handle {handle}"),
                        )?,
                        Some(source) => {
                            if let SessionEnd::Disconnected =
                                self.run_query(&mut out, &source, &options)?
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
                    out.finish(&ServerMsg::HandleClosed { released })?;
                }
                ClientMsg::Goodbye => {
                    out.finish(&ServerMsg::Bye)?;
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
        frames: &mut FrameReader,
        stream: &TcpStream,
        out: &mut Reply<'_>,
    ) -> std::io::Result<bool> {
        let hello = match self.read_polling(frames, stream) {
            Ok(Some(m)) => m,
            Ok(None) | Err(WireError::Io(_)) | Err(WireError::Truncated) => return Ok(false),
            Err(e) => {
                let _ = out.error(code::MALFORMED, e.to_string());
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
            let _ = out.error(
                code::UNSUPPORTED,
                "expected Hello as the first frame".into(),
            );
            return Ok(false);
        };
        if version != proto::PROTOCOL_VERSION {
            let _ = out.error(
                code::VERSION_MISMATCH,
                format!(
                    "client speaks protocol v{version}, server speaks v{}",
                    proto::PROTOCOL_VERSION
                ),
            );
            return Ok(false);
        }
        if let Some(required) = &self.config.token {
            if !token_matches(&token, required) {
                let _ = out.error(code::AUTH, "handshake token rejected".into());
                return Ok(false);
            }
        }
        let role_refs: Vec<&str> = roles.iter().map(String::as_str).collect();
        self.principal = Principal::new(&principal, &role_refs);
        out.finish(&ServerMsg::HelloAck {
            version: proto::PROTOCOL_VERSION,
        })?;
        Ok(true)
    }

    /// Blocking read that honors the listener's shutdown flag: the
    /// stream has a [`READ_POLL`] read timeout, so a quiet connection
    /// re-checks the flag a few times a second. The timeout can fire
    /// *inside* a frame (a client that stalls >50ms mid-send is
    /// legitimate); `frames` keeps what has arrived buffered so the
    /// retry resumes mid-frame instead of desyncing the stream.
    fn read_polling(
        &self,
        frames: &mut FrameReader,
        mut stream: &TcpStream,
    ) -> Result<Option<ClientMsg>, WireError> {
        loop {
            match frames.read_client(&mut stream, &self.counters) {
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
    fn prepare(&mut self, out: &mut Reply<'_>, source: &str) -> std::io::Result<()> {
        // the explain-only probe compiles through the cached_plan path
        // without executing, so prepare errors surface here and the
        // compiled plan is hot for every later ExecutePrepared
        if let Err(e) = contained("prepare", || {
            self.server
                .execute(QueryRequest::new(source).explain_only())
        }) {
            return out.error(error_code(&e), e.to_string());
        }
        let already_held = self
            .handles
            .id_of(source)
            .is_some_and(|id| self.held.contains(&id));
        let (handle, shared) = self.handles.acquire(source, already_held);
        self.held.insert(handle);
        out.finish(&ServerMsg::Prepared { handle, shared })
    }

    /// Execute and reply: Item frames as results arrive, then Done — or
    /// a typed Error frame after the intact prefix of Items, whether
    /// the query failed, an item was undeliverable, or an operator
    /// panicked. The frames leave together when the reply ends, or
    /// earlier whenever they pass the buffer size (see [`Reply::item`]).
    fn run_query(
        &self,
        out: &mut Reply<'_>,
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
                    out.error(code::MALFORMED, msg.into())?;
                    return Ok(SessionEnd::Clean);
                }
            }
        }
        let mut undelivered: Option<std::io::Error> = None;
        let mut sink = |item: Item| match out.item(&item) {
            Ok(()) => true,
            Err(e) => {
                undelivered = Some(e);
                false
            }
        };
        let outcome = contained("query", || self.server.execute(req.stream_to(&mut sink)));
        match undelivered {
            // the item exceeds MAX_FRAME_LEN — undeliverable in one
            // frame; the stream was aborted and nothing of the item
            // was buffered, so the connection stays framed and usable
            Some(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                out.error(code::INTERNAL, format!("result item undeliverable: {e}"))?;
                return Ok(SessionEnd::Clean);
            }
            // peer gone mid-stream: the query was aborted cleanly
            Some(_) => return Ok(SessionEnd::Disconnected),
            None => {}
        }
        match outcome {
            Ok(resp) => out.finish(&ServerMsg::Done {
                delivered: resp.delivered(),
            })?,
            // shed / deadline / budget / runtime errors all surface as
            // typed frames — mid-stream ones arrive after the intact
            // prefix of Item frames
            Err(e) => out.error(error_code(&e), e.to_string())?,
        }
        Ok(SessionEnd::Clean)
    }
}

/// The panic boundary of a session: whatever the engine does with a
/// request's bytes — parse, lift, compile, execute — a panic costs that
/// request (a typed `INTERNAL` error), not the connection or the server.
fn contained<T>(
    what: &str,
    engine: impl FnOnce() -> Result<T, ServerError>,
) -> Result<T, ServerError> {
    catch_unwind(AssertUnwindSafe(engine)).unwrap_or_else(|panic| {
        let payload = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".into());
        Err(ServerError::Other(format!("{what} panicked: {payload}")))
    })
}

/// Lift a wire execution override into typed [`ExecutionOptions`],
/// refusing codes this build does not know and a prefetch depth over
/// the cap.
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
    if e.ppk_prefetch_depth > proto::MAX_PPK_PREFETCH_DEPTH {
        return Err("PP-k prefetch depth on the wire exceeds MAX_PPK_PREFETCH_DEPTH");
    }
    Ok(ExecutionOptions::new()
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

    #[test]
    fn exec_decoding_caps_the_prefetch_depth() {
        let mut e = proto::WireExec {
            ppk_prefetch_depth: proto::MAX_PPK_PREFETCH_DEPTH,
            ..proto::WireExec::default()
        };
        let at_cap = decode_exec(&e).expect("the cap itself is allowed");
        assert_eq!(
            at_cap.ppk_prefetch_depth,
            proto::MAX_PPK_PREFETCH_DEPTH as usize
        );
        for depth in [proto::MAX_PPK_PREFETCH_DEPTH + 1, u32::MAX] {
            e.ppk_prefetch_depth = depth;
            assert!(decode_exec(&e).is_err(), "depth {depth}");
        }
    }
}
