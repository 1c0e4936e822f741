//! Frames on a byte stream: the buffered reader and writer both ends
//! of a connection use, the exact counters that witness their socket
//! work, and the unbuffered frame-by-frame pair ([`read_frame`],
//! [`write_frame`]) for callers that own no buffer.

use crate::{ClientMsg, ServerMsg, WireError, MAX_FRAME_LEN};
use std::borrow::Cow;
use std::io::{ErrorKind, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

/// The one buffer size of the wire path. A [`FrameReader`] reads
/// through a buffer of this size, the server sends a reply's frames
/// once they pass it (or the reply ends), and a [`FrameWriter`] gives
/// back anything beyond four times it after a flush — so a reply under
/// 16 KiB is one `write` on one side and one `read` on the other, and
/// one huge frame does not stay pinned to an idle connection.
pub const WIRE_BUF_LEN: usize = 16 * 1024;

/// Exact socket-level work of one side of a connection (a `Client`) or
/// of every session of a listener, summed: calls, frames and bytes per
/// direction. `reads` counts calls that returned (a poll timeout is
/// not one); `writes` counts every call issued.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Socket `read` calls that returned.
    pub reads: u64,
    /// Frames decoded.
    pub frames_in: u64,
    /// Bytes read.
    pub bytes_in: u64,
    /// Socket `write` calls.
    pub writes: u64,
    /// Frames sent.
    pub frames_out: u64,
    /// Bytes sent.
    pub bytes_out: u64,
}

impl WireStats {
    /// The work done since `earlier`, a snapshot of the same counters.
    pub fn since(&self, earlier: &WireStats) -> WireStats {
        WireStats {
            reads: self.reads - earlier.reads,
            frames_in: self.frames_in - earlier.frames_in,
            bytes_in: self.bytes_in - earlier.bytes_in,
            writes: self.writes - earlier.writes,
            frames_out: self.frames_out - earlier.frames_out,
            bytes_out: self.bytes_out - earlier.bytes_out,
        }
    }
}

/// The live form of [`WireStats`]. Outgoing work is counted *before*
/// its `write` is issued, so a peer that has seen a reply also sees
/// that reply in the sender's snapshot.
#[derive(Debug, Default)]
pub struct WireCounters {
    reads: AtomicU64,
    frames_in: AtomicU64,
    bytes_in: AtomicU64,
    writes: AtomicU64,
    frames_out: AtomicU64,
    bytes_out: AtomicU64,
}

impl WireCounters {
    /// The counts so far.
    pub fn snapshot(&self) -> WireStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        WireStats {
            reads: get(&self.reads),
            frames_in: get(&self.frames_in),
            bytes_in: get(&self.bytes_in),
            writes: get(&self.writes),
            frames_out: get(&self.frames_out),
            bytes_out: get(&self.bytes_out),
        }
    }
}

fn bump(c: &AtomicU64, by: usize) {
    c.fetch_add(by as u64, Ordering::Relaxed);
}

/// Counts the reads a [`FrameReader`] makes on behalf of its caller.
struct CountedRead<'a, R> {
    inner: &'a mut R,
    counters: &'a WireCounters,
}

impl<R: Read> Read for CountedRead<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        bump(&self.counters.reads, 1);
        bump(&self.counters.bytes_in, n);
        Ok(n)
    }
}

/// Validate a frame header; the length it announces counts the kind
/// byte plus the payload.
fn frame_len(header: [u8; 4]) -> Result<usize, WireError> {
    let len = u32::from_be_bytes(header);
    if len == 0 {
        return Err(WireError::Malformed("zero-length frame"));
    }
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized { len });
    }
    Ok(len as usize)
}

pub(crate) fn over_cap(len: u64) -> std::io::Error {
    std::io::Error::new(
        ErrorKind::InvalidData,
        format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"),
    )
}

/// Write one frame: `u32` length, kind byte, payload. The encoded
/// length is validated against [`MAX_FRAME_LEN`] *at the sender*: a
/// frame the peer is guaranteed to reject as oversized (or, past
/// `u32::MAX`, one whose length field would silently truncate and
/// corrupt the framing) fails here with
/// [`std::io::ErrorKind::InvalidData`] instead of on the wire.
///
/// This is the payload-at-a-time form; a connection encodes in place
/// (`encode_into`) through a [`FrameWriter`] instead.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> std::io::Result<()> {
    let len = payload.len() as u64 + 1;
    if len > MAX_FRAME_LEN as u64 {
        return Err(over_cap(len));
    }
    w.write_all(&(len as u32).to_be_bytes())?;
    w.write_all(&[kind])?;
    w.write_all(payload)
}

/// Read exactly one raw frame from a *blocking* stream, consuming not
/// a byte beyond it — the frame-by-frame reader for a caller that
/// keeps no [`FrameReader`]. `Ok(None)` is a clean close (EOF before
/// any header byte); EOF anywhere later is [`WireError::Truncated`].
/// The announced length is validated against [`MAX_FRAME_LEN`]
/// *before* any allocation.
///
/// Every call starts from a frame boundary, so an [`WireError::Io`]
/// failure mid-frame loses the consumed prefix — correct only when
/// `Io` is fatal to the connection. A socket with a read timeout must
/// use a [`FrameReader`] instead.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, WireError> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = frame_len(header)?;
    let mut kind = [0u8];
    let mut payload = vec![0u8; len - 1];
    let truncated = |e: std::io::Error| match e.kind() {
        ErrorKind::UnexpectedEof => WireError::Truncated,
        _ => WireError::Io(e),
    };
    r.read_exact(&mut kind).map_err(truncated)?;
    r.read_exact(&mut payload).map_err(truncated)?;
    Ok(Some((kind[0], payload)))
}

/// A frame as `(kind, payload)` with the payload borrowed from its
/// [`FrameReader`]'s buffer — always `Cow::Borrowed`; the type is what
/// lets a caller written for an owned payload pass `&payload` on
/// unchanged.
pub type RawFrame<'a> = (u8, Cow<'a, [u8]>);

/// Buffered, resumable frame reader: one per connection side.
///
/// Reads go through a [`WIRE_BUF_LEN`] buffer and frames are decoded
/// from a slice of it, so a reply that fits costs one `read` however
/// many frames it holds, and no frame is copied or allocated for. (A
/// frame longer than the buffer grows it for that frame only.)
///
/// A socket with a read *timeout* (the server polls its shutdown flag
/// this way) can time out after part of a frame has arrived; what was
/// read stays buffered across the [`WireError::Io`] failure, so the
/// next call resumes exactly where the timeout hit instead of
/// desyncing the stream. `Interrupted` reads are retried.
#[derive(Default)]
pub struct FrameReader {
    /// Storage; `start..end` holds bytes read but not yet returned.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    /// A reader positioned at a frame boundary.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// The next raw frame. `Ok(None)` is a clean close on a frame
    /// boundary, EOF inside a frame is [`WireError::Truncated`], and
    /// the announced length is validated against [`MAX_FRAME_LEN`]
    /// *before* the buffer grows for it.
    pub fn read_frame(&mut self, r: &mut impl Read) -> Result<Option<RawFrame<'_>>, WireError> {
        let len = loop {
            let have = self.end - self.start;
            let mut need = 4;
            if have >= 4 {
                let header = &self.buf[self.start..self.start + 4];
                let len = frame_len(header.try_into().expect("four bytes"))?;
                if have >= 4 + len {
                    break len;
                }
                need += len;
            }
            if self.fill(r, need)? == 0 {
                return match have {
                    0 => Ok(None),
                    _ => Err(WireError::Truncated),
                };
            }
        };
        let kind_at = self.start + 4;
        self.start = kind_at + len;
        let payload = &self.buf[kind_at + 1..self.start];
        Ok(Some((self.buf[kind_at], Cow::Borrowed(payload))))
    }

    /// One `read` into the free tail of the buffer, after making room
    /// for a frame of `need` bytes at `start`.
    fn fill(&mut self, r: &mut impl Read, need: usize) -> std::io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            if self.buf.len() > WIRE_BUF_LEN {
                // the long frame this grew for has been handed out
                self.buf.truncate(WIRE_BUF_LEN);
                self.buf.shrink_to_fit();
            }
        }
        if self.start + need > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if need > self.buf.len() {
                self.buf.resize(need.max(WIRE_BUF_LEN), 0);
            }
        }
        loop {
            match r.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Read one client message, counting the work; `Ok(None)` is a
    /// clean close.
    pub fn read_client(
        &mut self,
        r: &mut impl Read,
        counters: &WireCounters,
    ) -> Result<Option<ClientMsg>, WireError> {
        self.read_msg(r, counters, ClientMsg::decode)
    }

    /// Read one server message, counting the work; `Ok(None)` is a
    /// clean close.
    pub fn read_server(
        &mut self,
        r: &mut impl Read,
        counters: &WireCounters,
    ) -> Result<Option<ServerMsg>, WireError> {
        self.read_msg(r, counters, ServerMsg::decode)
    }

    fn read_msg<M>(
        &mut self,
        r: &mut impl Read,
        counters: &WireCounters,
        decode: fn(u8, &[u8]) -> Result<M, WireError>,
    ) -> Result<Option<M>, WireError> {
        let mut r = CountedRead { inner: r, counters };
        let Some((kind, payload)) = self.read_frame(&mut r)? else {
            return Ok(None);
        };
        bump(&counters.frames_in, 1);
        decode(kind, &payload).map(Some)
    }
}

/// `write_all`, counting each `write` before it is issued.
fn write_all_counted(
    w: &mut impl Write,
    mut rest: &[u8],
    counters: &WireCounters,
) -> std::io::Result<()> {
    while !rest.is_empty() {
        bump(&counters.writes, 1);
        match w.write(rest) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => rest = &rest[n..],
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The outgoing frames of one connection side: encoded in place into
/// one reused buffer and written together.
#[derive(Default)]
pub struct FrameWriter {
    buf: Vec<u8>,
    /// Frames in `buf`.
    frames: usize,
}

impl FrameWriter {
    /// An empty buffer.
    pub fn new() -> FrameWriter {
        FrameWriter::default()
    }

    /// Append one frame through `encode` (an `encode_into` or
    /// `encode_*` call). The buffer only ever holds whole frames: when
    /// `encode` fails — or unwinds — what it wrote is taken back.
    pub fn push(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        struct Whole<'a> {
            buf: &'a mut Vec<u8>,
            keep: usize,
        }
        impl Drop for Whole<'_> {
            fn drop(&mut self) {
                self.buf.truncate(self.keep);
            }
        }
        let mut whole = Whole {
            keep: self.buf.len(),
            buf: &mut self.buf,
        };
        encode(whole.buf)?;
        whole.keep = whole.buf.len();
        self.frames += 1;
        Ok(())
    }

    /// Bytes buffered and not yet written.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Write everything buffered — one `write` unless the stream takes
    /// less — and empty the buffer, whatever the outcome: after a
    /// failed write the connection is gone. Capacity beyond four
    /// [`WIRE_BUF_LEN`] is released.
    pub fn flush(&mut self, w: &mut impl Write, counters: &WireCounters) -> std::io::Result<()> {
        bump(&counters.frames_out, self.frames);
        bump(&counters.bytes_out, self.buf.len());
        let outcome = write_all_counted(w, &self.buf, counters);
        self.buf.clear();
        self.frames = 0;
        if self.buf.capacity() > 4 * WIRE_BUF_LEN {
            self.buf.shrink_to(WIRE_BUF_LEN);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_item, ClientMsg, ServerMsg};

    /// Fails with `Interrupted` at the given byte offsets (once each),
    /// otherwise hands out everything it has.
    struct Interrupting<'a> {
        data: &'a [u8],
        pos: usize,
        interrupt_at: Vec<usize>,
    }

    impl Read for Interrupting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if let Some(i) = self.interrupt_at.iter().position(|&at| at == self.pos) {
                self.interrupt_at.remove(i);
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            // stop at the next interruption point so it is reached
            let stop = self
                .interrupt_at
                .iter()
                .copied()
                .filter(|&at| at > self.pos)
                .min()
                .unwrap_or(self.data.len());
            let n = buf.len().min(stop - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn interrupted_reads_are_retried_not_fatal() {
        let msg = ClientMsg::Prepare {
            source: "for $i in (1,2,3) return $i".into(),
        };
        let mut wire = Vec::new();
        msg.write(&mut wire).unwrap();
        // once inside the header, once mid-body
        let interrupting = || Interrupting {
            data: &wire,
            pos: 0,
            interrupt_at: vec![2, 11],
        };
        let counters = WireCounters::default();
        let got = FrameReader::new()
            .read_client(&mut interrupting(), &counters)
            .expect("EINTR is not a transport failure");
        assert_eq!(got, Some(msg.clone()));
        assert_eq!(
            counters.snapshot().reads,
            3,
            "the failed calls are not reads"
        );
        // and the frame-by-frame reader retries the same way
        assert_eq!(ClientMsg::read(&mut interrupting()).unwrap(), Some(msg));
    }

    #[test]
    fn frame_reader_decodes_a_whole_reply_from_one_read() {
        let mut wire = Vec::new();
        let items: Vec<ServerMsg> = (0..20)
            .map(|i| ServerMsg::Item {
                atomic: false,
                text: format!("<P><CID>C{i:04}</CID></P>"),
            })
            .collect();
        for m in &items {
            m.encode_into(&mut wire).unwrap();
        }
        ServerMsg::Done { delivered: 20 }
            .encode_into(&mut wire)
            .unwrap();
        assert!(wire.len() < WIRE_BUF_LEN);
        let counters = WireCounters::default();
        let mut frames = FrameReader::new();
        let mut cursor = wire.as_slice();
        for m in &items {
            let got = frames.read_server(&mut cursor, &counters).unwrap();
            assert_eq!(got.as_ref(), Some(m));
        }
        assert_eq!(
            frames.read_server(&mut cursor, &counters).unwrap(),
            Some(ServerMsg::Done { delivered: 20 })
        );
        let stats = counters.snapshot();
        assert_eq!((stats.reads, stats.frames_in), (1, 21));
        assert_eq!(stats.bytes_in, wire.len() as u64);
        // the next call is the one that sees the clean close
        assert_eq!(frames.read_server(&mut cursor, &counters).unwrap(), None);
    }

    #[test]
    fn frame_reader_grows_for_a_long_frame_and_gives_the_memory_back() {
        let long = ServerMsg::Item {
            atomic: true,
            text: "x".repeat(5 * WIRE_BUF_LEN),
        };
        let short = ServerMsg::Done { delivered: 1 };
        let mut wire = Vec::new();
        short.encode_into(&mut wire).unwrap();
        long.encode_into(&mut wire).unwrap();
        short.encode_into(&mut wire).unwrap();
        let mut frames = FrameReader::new();
        let mut cursor = wire.as_slice();
        let mut next = |frames: &mut FrameReader| {
            let (kind, payload) = frames.read_frame(&mut cursor).unwrap()?;
            Some(ServerMsg::decode(kind, &payload).unwrap())
        };
        assert_eq!(next(&mut frames), Some(short.clone()));
        assert_eq!(next(&mut frames), Some(long));
        assert_eq!(next(&mut frames), Some(short));
        assert_eq!(next(&mut frames), None);
        assert_eq!(frames.buf.capacity(), WIRE_BUF_LEN);
    }

    #[test]
    fn frame_by_frame_read_consumes_nothing_past_its_frame() {
        let mut wire = Vec::new();
        ServerMsg::Bye.write(&mut wire).unwrap();
        ServerMsg::Done { delivered: 3 }.write(&mut wire).unwrap();
        let mut cursor = wire.as_slice();
        assert_eq!(ServerMsg::read(&mut cursor).unwrap(), Some(ServerMsg::Bye));
        assert_eq!(
            ServerMsg::read(&mut cursor).unwrap(),
            Some(ServerMsg::Done { delivered: 3 })
        );
    }

    /// Accepts at most `cap` bytes per call.
    struct ShortWrites {
        got: Vec<u8>,
        cap: usize,
    }

    impl Write for ShortWrites {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.got.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_writer_sends_whole_frames_in_one_write_and_counts_them() {
        let counters = WireCounters::default();
        let mut out = FrameWriter::new();
        let mut sink = ShortWrites {
            got: Vec::new(),
            cap: usize::MAX,
        };
        for i in 0..3u64 {
            out.push(|b| ServerMsg::Done { delivered: i }.encode_into(b))
                .unwrap();
        }
        // a failed encode takes back what it wrote …
        let err = out
            .push(|b| {
                b.extend_from_slice(b"half a frame");
                Err(std::io::ErrorKind::InvalidData.into())
            })
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // … and so does one that unwinds
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            out.push(|b| {
                b.extend_from_slice(b"half a frame");
                panic!("serializer bug")
            })
        }));
        assert!(unwound.is_err());
        let buffered = out.buffered();
        out.flush(&mut sink, &counters).unwrap();
        assert_eq!(out.buffered(), 0);
        let stats = counters.snapshot();
        assert_eq!((stats.writes, stats.frames_out), (1, 3));
        assert_eq!(stats.bytes_out, buffered as u64);
        let mut cursor = sink.got.as_slice();
        for i in 0..3u64 {
            assert_eq!(
                ServerMsg::read(&mut cursor).unwrap(),
                Some(ServerMsg::Done { delivered: i })
            );
        }
        assert!(cursor.is_empty());
        // a stream that takes less is written to until it has it all
        sink.cap = 5;
        out.push(|b| ServerMsg::Done { delivered: 9 }.encode_into(b))
            .unwrap();
        out.flush(&mut sink, &counters).unwrap();
        assert_eq!(counters.snapshot().writes, 1 + 3, "13 bytes, 5 at a time");
    }

    #[test]
    fn frame_writer_releases_the_capacity_of_a_long_frame() {
        let counters = WireCounters::default();
        let mut out = FrameWriter::new();
        let text = "x".repeat(10 * 1024 * 1024);
        out.push(|b| encode_item(b, true, |t| t.push_str(&text)))
            .unwrap();
        assert!(out.buf.capacity() > text.len());
        out.flush(&mut std::io::sink(), &counters).unwrap();
        assert!(
            out.buf.capacity() <= 4 * WIRE_BUF_LEN,
            "an idle connection pins {} bytes",
            out.buf.capacity()
        );
    }
}
