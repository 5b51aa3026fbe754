//! The process fabric's wire protocol.
//!
//! One frame = `[u32 LE length][u16 LE kind][body]`, where `length` covers
//! the kind tag plus the body (so every valid frame has `length >= 2`).
//! Multi-byte integers are little-endian; strings are `u16` length +
//! UTF-8 bytes; byte blobs are `u32` length + bytes.
//!
//! The codec is written for adversarial input: a frame header is fully
//! validated **before** any allocation (a claimed length beyond
//! [`MAX_FRAME`] is rejected without reserving a byte), truncated bodies
//! and trailing garbage are hard errors, and decode never panics — the
//! proptests in `crates/fedci/tests/proptest_proto.rs` hold it to that.
//!
//! Message flow (client = the [`ProcessFabric`](crate::process::ProcessFabric)
//! manager, daemon = `unifaas-endpointd`):
//!
//! ```text
//! daemon → client   HELLO          once per connection: identity + generation
//! client → daemon   TRANSFER       stage an input blob        → TRANSFER_ACK
//! client → daemon   DISPATCH       run a function attempt     → RESULT
//!                                  (an ok output is kept as blob `task`)
//! client → daemon   HEARTBEAT      liveness, seq-numbered,
//!                                  timestamped for clock sync → HEARTBEAT_ACK
//! client → daemon   POLL           queue-depth snapshot       → POLL_ACK
//! client → daemon   TELEMETRY_SUB  enable/disable daemon telemetry
//! daemon → client   TELEMETRY      batched trace events + metric deltas
//! client → daemon   DRAIN          finish queued work, stop   → DRAIN_ACK
//! ```
//!
//! The observability plane rides on three things: DISPATCH/RESULT carry
//! the span context `(task, attempt, generation)` so daemon-side spans
//! can be stitched to the client attempt that caused them; HEARTBEAT /
//! HEARTBEAT_ACK carry send/receive timestamps (client monotonic micros
//! out, daemon monotonic micros back, client stamp echoed) feeding the
//! NTP-style offset estimator in [`crate::clock`]; and TELEMETRY frames
//! batch-ship the daemon's trace ring ([`TelemetryEvent`]s in daemon
//! monotonic micros), cumulative counters, and execution-latency sketch
//! buckets back to the supervisor.

use std::io::{Read, Write};

/// Protocol revision carried in HELLO; peers with a different revision
/// must disconnect. Revision 2 added clock-sync timestamps on the
/// heartbeat exchange, the `generation` span context on DISPATCH/RESULT,
/// and the TELEMETRY_SUB/TELEMETRY pair. Revision 3 changes no frame: a
/// daemon now keeps every ok RESULT's payload in its blob store under the
/// task id, and a client relies on that instead of staging the output
/// back to the endpoint that produced it.
pub const PROTO_VERSION: u16 = 3;

/// Upper bound on `length` (kind + body). Chosen comfortably above any
/// real frame so the only way to hit it is corruption or attack; checked
/// before allocating.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Most [`TelemetryEvent`]s a daemon packs into one TELEMETRY frame.
/// 8192 events × 29 bytes ≈ 232 KiB — far under [`MAX_FRAME`], so even a
/// full ring ships as a short burst of well-bounded frames.
pub const TEL_MAX_EVENTS: usize = 8192;

/// [`TelemetryEvent::stage`]: DISPATCH frame decoded on the daemon
/// (`arg` = queue depth at that instant).
pub const TEL_STAGE_RECV: u8 = 1;
/// [`TelemetryEvent::stage`]: a worker began executing (`arg` unused).
pub const TEL_STAGE_EXEC_BEGIN: u8 = 2;
/// [`TelemetryEvent::stage`]: execution finished (`arg` = 1 ok, 0 error).
pub const TEL_STAGE_EXEC_END: u8 = 3;
/// [`TelemetryEvent::stage`]: the RESULT frame was handed to the socket
/// writer, just before the write that carries it (`arg` = 1 ok, 0 error).
pub const TEL_STAGE_SENT: u8 = 4;
/// [`TelemetryEvent::stage`]: chaos swallowed the attempt — no RESULT
/// will ever come (`arg` unused).
pub const TEL_STAGE_CHAOS_SWALLOW: u8 = 5;
/// [`TelemetryEvent::stage`]: chaos delayed the attempt (`arg` = ms).
pub const TEL_STAGE_CHAOS_DELAY: u8 = 6;

/// Telemetry counter code: DISPATCH frames received.
pub const TEL_CTR_DISPATCHES: u16 = 1;
/// Telemetry counter code: attempts that produced an ok RESULT.
pub const TEL_CTR_RESULTS_OK: u16 = 2;
/// Telemetry counter code: attempts that produced an error RESULT.
pub const TEL_CTR_RESULTS_ERR: u16 = 3;
/// Telemetry counter code: attempts swallowed by chaos injection.
pub const TEL_CTR_CHAOS_SWALLOWED: u16 = 4;
/// Telemetry counter code: attempts delayed by chaos injection.
pub const TEL_CTR_CHAOS_DELAYS: u16 = 5;
/// Telemetry counter code: trace events dropped by the daemon ring.
pub const TEL_CTR_RING_DROPPED: u16 = 6;

/// One daemon-side trace event, stamped in the daemon's local monotonic
/// clock (micros since daemon start). The client maps `t_us` onto its own
/// timeline with the per-generation clock offset from [`crate::clock`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryEvent {
    /// What happened — one of the `TEL_STAGE_*` codes. Unknown codes
    /// pass through the codec untouched (forward compatibility).
    pub stage: u8,
    /// Daemon monotonic micros since daemon start.
    pub t_us: u64,
    /// Task id the event belongs to.
    pub task: u64,
    /// Attempt number the event belongs to.
    pub attempt: u32,
    /// Stage-specific argument (see the `TEL_STAGE_*` docs).
    pub arg: u64,
}

/// Decode/IO failures. Every variant is a clean error — no panics, no
/// partial state.
#[derive(Debug)]
pub enum ProtoError {
    /// The input ended before the frame did.
    Truncated,
    /// The header claims a length over [`MAX_FRAME`] (or under the
    /// 2-byte kind tag).
    Oversized(u32),
    /// Unrecognized kind tag.
    UnknownKind(u16),
    /// A string field was not UTF-8.
    BadUtf8,
    /// Bytes left over after a complete message was decoded.
    TrailingBytes(usize),
    /// A field held a value the encoder can never produce (e.g. a bool
    /// byte other than 0/1) — rejected so the codec stays a bijection on
    /// its valid set.
    Malformed(&'static str),
    /// Underlying socket/file error.
    Io(std::io::Error),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame truncated"),
            ProtoError::Oversized(n) => write!(f, "frame length {n} out of bounds"),
            ProtoError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            ProtoError::BadUtf8 => write!(f, "string field is not UTF-8"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
            ProtoError::Malformed(what) => write!(f, "malformed field: {what}"),
            ProtoError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Every message the process fabric exchanges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Daemon → client, once per connection: who am I, how many workers,
    /// and which spawn *generation* — a client that respawned the daemon
    /// knows whether it is talking to the incarnation it expects.
    Hello {
        /// Protocol revision ([`PROTO_VERSION`]).
        proto: u16,
        /// Endpoint name.
        name: String,
        /// Worker thread count.
        workers: u32,
        /// Spawn generation (incremented by the supervisor per respawn).
        generation: u64,
    },
    /// Client → daemon: execute one attempt of a task.
    Dispatch {
        /// Task id (stable across attempts).
        task: u64,
        /// Attempt number — echoed in RESULT; the client drops stale ones.
        attempt: u32,
        /// Span context: the daemon generation the client believes it is
        /// dispatching to (from HELLO). Lets daemon-side telemetry be
        /// stitched to the exact client attempt → incarnation pair.
        generation: u64,
        /// Registered function name.
        function: String,
        /// Staged blob keys, concatenated in order as the input prefix.
        deps: Vec<u64>,
        /// Inline argument bytes, appended after the dep blobs.
        payload: Vec<u8>,
    },
    /// Daemon → client: outcome of one dispatch.
    Result {
        /// Task id from the dispatch.
        task: u64,
        /// Attempt from the dispatch (the exactly-once guard).
        attempt: u32,
        /// Span context: the generation of the daemon incarnation that
        /// actually executed this attempt — a replay from a resurrected
        /// daemon is distinguishable from a fresh result.
        generation: u64,
        /// 1 = payload is the function result; 0 = payload is an
        /// error message.
        ok: bool,
        /// Result bytes or UTF-8 error message.
        payload: Vec<u8>,
    },
    /// Client → daemon: request a queue-depth snapshot.
    Poll,
    /// Daemon → client: answer to [`Frame::Poll`].
    PollAck {
        /// Workers currently executing.
        busy: u32,
        /// Jobs queued and not yet started.
        queued: u32,
        /// Jobs completed since the daemon started.
        completed: u64,
    },
    /// Client → daemon: stage blob `key` for later dispatch deps.
    Transfer {
        /// Blob key.
        key: u64,
        /// Blob bytes.
        payload: Vec<u8>,
    },
    /// Daemon → client: blob stored.
    TransferAck {
        /// Blob key being acknowledged.
        key: u64,
        /// Bytes stored.
        stored: u64,
    },
    /// Client → daemon: liveness probe, doubling as a clock-sync probe.
    Heartbeat {
        /// Monotone sequence number per connection.
        seq: u64,
        /// Client monotonic micros when the probe left — NTP `t0`,
        /// echoed back in the ack so the client never has to remember
        /// which probe an ack answers.
        t_client_us: u64,
    },
    /// Daemon → client: answer to [`Frame::Heartbeat`].
    HeartbeatAck {
        /// Echoed sequence number.
        seq: u64,
        /// Workers currently executing (free liveness piggyback).
        busy: u32,
        /// Echo of the probe's `t_client_us` (NTP `t0`).
        t_client_us: u64,
        /// Daemon monotonic micros when the probe was handled — NTP
        /// `t1`≈`t2` (turnaround inside the daemon is sub-millisecond).
        t_daemon_us: u64,
    },
    /// Client → daemon: finish queued work, then exit cleanly.
    Drain,
    /// Daemon → client: drain accepted.
    DrainAck {
        /// Jobs still queued or executing at the time of the ack.
        remaining: u32,
    },
    /// Client → daemon: subscribe to (or mute) the daemon's telemetry
    /// stream. Strictly opt-in: a daemon never ships TELEMETRY frames
    /// unsolicited, so a telemetry-off client sees a byte-identical
    /// conversation.
    TelemetrySub {
        /// 0 = off, 1 = spans, 2 = full — mirrors
        /// `simkit::trace::TraceLevel`.
        level: u8,
    },
    /// Daemon → client: a batch of trace events plus metric state,
    /// shipped opportunistically on the heartbeat cadence and flushed
    /// once more on DRAIN.
    Telemetry {
        /// The sending incarnation's spawn generation. The client drops
        /// batches whose generation is not the one it is connected to —
        /// a resurrected daemon's replayed telemetry never merges.
        generation: u64,
        /// Per-generation batch sequence number, strictly increasing;
        /// the client drops reordered or replayed batches.
        seq: u64,
        /// Trace events in daemon monotonic time, oldest first.
        events: Vec<TelemetryEvent>,
        /// Cumulative (since daemon start) counters as
        /// (`TEL_CTR_*`, value) pairs — cumulative, not deltas, so a
        /// lost batch undercounts nothing.
        counters: Vec<(u16, u64)>,
        /// Cumulative execution-latency sketch as sparse
        /// `LogHistogram` bucket counts (`bucket_counts()` form).
        exec_buckets: Vec<(i32, u64)>,
    },
}

impl Frame {
    /// The frame's kind tag.
    pub fn kind(&self) -> u16 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::Dispatch { .. } => 2,
            Frame::Result { .. } => 3,
            Frame::Poll => 4,
            Frame::PollAck { .. } => 5,
            Frame::Transfer { .. } => 6,
            Frame::TransferAck { .. } => 7,
            Frame::Heartbeat { .. } => 8,
            Frame::HeartbeatAck { .. } => 9,
            Frame::Drain => 10,
            Frame::DrainAck { .. } => 11,
            Frame::TelemetrySub { .. } => 12,
            Frame::Telemetry { .. } => 13,
        }
    }

    /// Encodes the frame, header included.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the encoded frame, header included, to `out` in one pass:
    /// the length header is written as a placeholder and patched once the
    /// body is in place, so frames can be packed back to back into one
    /// write buffer without an intermediate allocation.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0; 4]);
        self.put_body(out);
        let len = (out.len() - start - 4) as u32;
        out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Length of [`Frame::encode`]'s output, computed without encoding.
    pub fn encoded_len(&self) -> usize {
        let mut n = ByteCount(4);
        self.put_body(&mut n);
        n.0
    }

    /// The header of a TRANSFER frame for a `payload_len`-byte blob: the
    /// frame is exactly these bytes followed by the blob, so a sender can
    /// ship a blob it holds behind a shared pointer without copying it
    /// into a [`Frame::Transfer`].
    pub fn transfer_header(key: u64, payload_len: usize) -> [u8; 18] {
        let mut h = [0u8; 18];
        h[..4].copy_from_slice(&((2 + 8 + 4 + payload_len) as u32).to_le_bytes());
        h[4..6].copy_from_slice(&6u16.to_le_bytes());
        h[6..14].copy_from_slice(&key.to_le_bytes());
        h[14..].copy_from_slice(&(payload_len as u32).to_le_bytes());
        h
    }

    /// The header of a RESULT frame for a `payload_len`-byte payload: like
    /// [`Frame::transfer_header`], the frame is these bytes followed by the
    /// payload, so a daemon can send an output it also keeps without a copy.
    pub fn result_header(
        task: u64,
        attempt: u32,
        generation: u64,
        ok: bool,
        payload_len: usize,
    ) -> [u8; 31] {
        let mut h = [0u8; 31];
        h[..4].copy_from_slice(&((2 + 8 + 4 + 8 + 1 + 4 + payload_len) as u32).to_le_bytes());
        h[4..6].copy_from_slice(&3u16.to_le_bytes());
        h[6..14].copy_from_slice(&task.to_le_bytes());
        h[14..18].copy_from_slice(&attempt.to_le_bytes());
        h[18..26].copy_from_slice(&generation.to_le_bytes());
        h[26] = u8::from(ok);
        h[27..].copy_from_slice(&(payload_len as u32).to_le_bytes());
        h
    }

    /// Writes the kind tag and body (everything after the length header).
    fn put_body<S: Sink>(&self, body: &mut S) {
        body.put(&self.kind().to_le_bytes());
        match self {
            Frame::Hello {
                proto,
                name,
                workers,
                generation,
            } => {
                body.put(&proto.to_le_bytes());
                put_str(body, name);
                body.put(&workers.to_le_bytes());
                body.put(&generation.to_le_bytes());
            }
            Frame::Dispatch {
                task,
                attempt,
                generation,
                function,
                deps,
                payload,
            } => {
                body.put(&task.to_le_bytes());
                body.put(&attempt.to_le_bytes());
                body.put(&generation.to_le_bytes());
                put_str(body, function);
                body.put(&(deps.len() as u16).to_le_bytes());
                for d in deps {
                    body.put(&d.to_le_bytes());
                }
                put_bytes(body, payload);
            }
            Frame::Result {
                task,
                attempt,
                generation,
                ok,
                payload,
            } => {
                body.put(&task.to_le_bytes());
                body.put(&attempt.to_le_bytes());
                body.put(&generation.to_le_bytes());
                body.put(&[u8::from(*ok)]);
                put_bytes(body, payload);
            }
            Frame::Poll | Frame::Drain => {}
            Frame::PollAck {
                busy,
                queued,
                completed,
            } => {
                body.put(&busy.to_le_bytes());
                body.put(&queued.to_le_bytes());
                body.put(&completed.to_le_bytes());
            }
            Frame::Transfer { key, payload } => {
                body.put(&key.to_le_bytes());
                put_bytes(body, payload);
            }
            Frame::TransferAck { key, stored } => {
                body.put(&key.to_le_bytes());
                body.put(&stored.to_le_bytes());
            }
            Frame::Heartbeat { seq, t_client_us } => {
                body.put(&seq.to_le_bytes());
                body.put(&t_client_us.to_le_bytes());
            }
            Frame::HeartbeatAck {
                seq,
                busy,
                t_client_us,
                t_daemon_us,
            } => {
                body.put(&seq.to_le_bytes());
                body.put(&busy.to_le_bytes());
                body.put(&t_client_us.to_le_bytes());
                body.put(&t_daemon_us.to_le_bytes());
            }
            Frame::DrainAck { remaining } => {
                body.put(&remaining.to_le_bytes());
            }
            Frame::TelemetrySub { level } => {
                body.put(&[*level]);
            }
            Frame::Telemetry {
                generation,
                seq,
                events,
                counters,
                exec_buckets,
            } => {
                body.put(&generation.to_le_bytes());
                body.put(&seq.to_le_bytes());
                body.put(&(events.len() as u32).to_le_bytes());
                for e in events {
                    body.put(&[e.stage]);
                    body.put(&e.t_us.to_le_bytes());
                    body.put(&e.task.to_le_bytes());
                    body.put(&e.attempt.to_le_bytes());
                    body.put(&e.arg.to_le_bytes());
                }
                body.put(&(counters.len() as u16).to_le_bytes());
                for (code, value) in counters {
                    body.put(&code.to_le_bytes());
                    body.put(&value.to_le_bytes());
                }
                body.put(&(exec_buckets.len() as u16).to_le_bytes());
                for (bucket, count) in exec_buckets {
                    body.put(&bucket.to_le_bytes());
                    body.put(&count.to_le_bytes());
                }
            }
        }
    }

    /// Decodes one frame from `buf`, which must contain exactly the frame
    /// (header included) and nothing else.
    pub fn decode(buf: &[u8]) -> Result<Frame, ProtoError> {
        let mut c = Cursor { buf, pos: 0 };
        let len = c.u32()?;
        if !(2..=MAX_FRAME).contains(&len) {
            return Err(ProtoError::Oversized(len));
        }
        if buf.len() as u64 - 4 != len as u64 {
            return if (buf.len() as u64) < 4 + len as u64 {
                Err(ProtoError::Truncated)
            } else {
                Err(ProtoError::TrailingBytes(buf.len() - 4 - len as usize))
            };
        }
        let frame = decode_body(&mut c)?;
        if c.pos != buf.len() {
            return Err(ProtoError::TrailingBytes(buf.len() - c.pos));
        }
        Ok(frame)
    }

    /// Reads one frame from `r` (blocking). The length header is bounds
    /// checked before the body buffer is allocated, so a hostile peer
    /// cannot make the reader reserve [`MAX_FRAME`]-scale memory with a
    /// 4-byte header alone — the allocation happens only once, capped.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Frame, ProtoError> {
        let mut head = [0u8; 4];
        read_exact_or_truncated(r, &mut head)?;
        let len = u32::from_le_bytes(head);
        if !(2..=MAX_FRAME).contains(&len) {
            return Err(ProtoError::Oversized(len));
        }
        let mut body = vec![0u8; len as usize];
        read_exact_or_truncated(r, &mut body)?;
        let mut c = Cursor { buf: &body, pos: 0 };
        let frame = decode_body(&mut c)?;
        if c.pos != body.len() {
            return Err(ProtoError::TrailingBytes(body.len() - c.pos));
        }
        Ok(frame)
    }

    /// Writes the encoded frame to `w` and flushes.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), ProtoError> {
        w.write_all(&self.encode())?;
        w.flush()?;
        Ok(())
    }
}

fn decode_body(c: &mut Cursor<'_>) -> Result<Frame, ProtoError> {
    let kind = c.u16()?;
    Ok(match kind {
        1 => Frame::Hello {
            proto: c.u16()?,
            name: c.string()?,
            workers: c.u32()?,
            generation: c.u64()?,
        },
        2 => {
            let task = c.u64()?;
            let attempt = c.u32()?;
            let generation = c.u64()?;
            let function = c.string()?;
            let n = c.u16()? as usize;
            let mut deps = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                deps.push(c.u64()?);
            }
            let payload = c.bytes()?;
            Frame::Dispatch {
                task,
                attempt,
                generation,
                function,
                deps,
                payload,
            }
        }
        3 => Frame::Result {
            task: c.u64()?,
            attempt: c.u32()?,
            generation: c.u64()?,
            ok: c.bool()?,
            payload: c.bytes()?,
        },
        4 => Frame::Poll,
        5 => Frame::PollAck {
            busy: c.u32()?,
            queued: c.u32()?,
            completed: c.u64()?,
        },
        6 => Frame::Transfer {
            key: c.u64()?,
            payload: c.bytes()?,
        },
        7 => Frame::TransferAck {
            key: c.u64()?,
            stored: c.u64()?,
        },
        8 => Frame::Heartbeat {
            seq: c.u64()?,
            t_client_us: c.u64()?,
        },
        9 => Frame::HeartbeatAck {
            seq: c.u64()?,
            busy: c.u32()?,
            t_client_us: c.u64()?,
            t_daemon_us: c.u64()?,
        },
        10 => Frame::Drain,
        11 => Frame::DrainAck {
            remaining: c.u32()?,
        },
        12 => Frame::TelemetrySub { level: c.u8()? },
        13 => {
            let generation = c.u64()?;
            let seq = c.u64()?;
            let n = c.u32()? as usize;
            let mut events = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                events.push(TelemetryEvent {
                    stage: c.u8()?,
                    t_us: c.u64()?,
                    task: c.u64()?,
                    attempt: c.u32()?,
                    arg: c.u64()?,
                });
            }
            let n = c.u16()? as usize;
            let mut counters = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                counters.push((c.u16()?, c.u64()?));
            }
            let n = c.u16()? as usize;
            let mut exec_buckets = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                exec_buckets.push((c.i32()?, c.u64()?));
            }
            Frame::Telemetry {
                generation,
                seq,
                events,
                counters,
                exec_buckets,
            }
        }
        k => return Err(ProtoError::UnknownKind(k)),
    })
}

/// Where [`Frame::put_body`] writes: a byte buffer when encoding, a
/// running total when sizing, so both follow the one layout.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

struct ByteCount(usize);

impl Sink for ByteCount {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

fn put_str<S: Sink>(out: &mut S, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize, "string field too long");
    out.put(&(s.len() as u16).to_le_bytes());
    out.put(s.as_bytes());
}

fn put_bytes<S: Sink>(out: &mut S, b: &[u8]) {
    out.put(&(b.len() as u32).to_le_bytes());
    out.put(b);
}

/// `read_exact` with EOF mapped to [`ProtoError::Truncated`]; other IO
/// errors pass through.
fn read_exact_or_truncated<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), ProtoError> {
    match r.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(ProtoError::Truncated),
        Err(e) => Err(ProtoError::Io(e)),
    }
}

/// Bounds-checked little-endian reader over a byte slice. Every accessor
/// fails with [`ProtoError::Truncated`] instead of slicing out of range;
/// variable-length fields validate the claimed length against the
/// remaining input before copying, so a hostile length cannot force an
/// allocation larger than the data actually present.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], ProtoError> {
        if self.buf.len() - self.pos < n {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Strict bool: only 0/1 are valid, so decode(encode) stays a
    /// bijection even under single-byte corruption.
    fn bool(&mut self) -> Result<bool, ProtoError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ProtoError::Malformed("bool byte out of range")),
        }
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn i32(&mut self) -> Result<i32, ProtoError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::BadUtf8)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, ProtoError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                proto: PROTO_VERSION,
                name: "taiyi".into(),
                workers: 32,
                generation: 3,
            },
            Frame::Dispatch {
                task: 7,
                attempt: 2,
                generation: 4,
                function: "fnv".into(),
                deps: vec![1, 2, 3],
                payload: b"xyz".to_vec(),
            },
            Frame::Result {
                task: 7,
                attempt: 2,
                generation: 4,
                ok: true,
                payload: vec![0xde, 0xad],
            },
            Frame::Result {
                task: 8,
                attempt: 1,
                generation: 0,
                ok: false,
                payload: b"boom".to_vec(),
            },
            Frame::Poll,
            Frame::PollAck {
                busy: 3,
                queued: 9,
                completed: 1234,
            },
            Frame::Transfer {
                key: 42,
                payload: vec![1; 100],
            },
            Frame::TransferAck {
                key: 42,
                stored: 100,
            },
            Frame::Heartbeat {
                seq: 99,
                t_client_us: 123_456,
            },
            Frame::HeartbeatAck {
                seq: 99,
                busy: 2,
                t_client_us: 123_456,
                t_daemon_us: 7_890,
            },
            Frame::Drain,
            Frame::DrainAck { remaining: 5 },
            Frame::TelemetrySub { level: 2 },
            Frame::Telemetry {
                generation: 1,
                seq: 9,
                events: vec![
                    TelemetryEvent {
                        stage: TEL_STAGE_RECV,
                        t_us: 1_000,
                        task: 7,
                        attempt: 2,
                        arg: 3,
                    },
                    TelemetryEvent {
                        stage: TEL_STAGE_EXEC_END,
                        t_us: 2_000,
                        task: 7,
                        attempt: 2,
                        arg: 1,
                    },
                ],
                counters: vec![(TEL_CTR_DISPATCHES, 12), (TEL_CTR_RESULTS_OK, 11)],
                exec_buckets: vec![(i32::MIN, 1), (-3, 2), (17, 9)],
            },
            Frame::Telemetry {
                generation: 0,
                seq: 0,
                events: vec![],
                counters: vec![],
                exec_buckets: vec![],
            },
        ]
    }

    #[test]
    fn round_trips_every_kind() {
        for f in all_frames() {
            let bytes = f.encode();
            assert_eq!(f.encoded_len(), bytes.len());
            assert_eq!(Frame::decode(&bytes).unwrap(), f, "decode(encode) != id");
            let mut r = std::io::Cursor::new(bytes.clone());
            assert_eq!(Frame::read_from(&mut r).unwrap(), f);
            let mut w = Vec::new();
            f.write_to(&mut w).unwrap();
            assert_eq!(w, bytes);
        }
    }

    #[test]
    fn stream_of_frames_reads_in_order() {
        let frames = all_frames();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode());
        }
        let mut r = std::io::Cursor::new(stream);
        for f in &frames {
            assert_eq!(&Frame::read_from(&mut r).unwrap(), f);
        }
        assert!(matches!(
            Frame::read_from(&mut r),
            Err(ProtoError::Truncated)
        ));
    }

    #[test]
    fn truncation_at_every_byte_errors_cleanly() {
        for f in all_frames() {
            let bytes = f.encode();
            for cut in 0..bytes.len() {
                match Frame::decode(&bytes[..cut]) {
                    Err(_) => {}
                    Ok(got) => panic!("decoded {got:?} from {cut}/{} bytes", bytes.len()),
                }
            }
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = (MAX_FRAME + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 8]);
        assert!(matches!(
            Frame::decode(&bytes),
            Err(ProtoError::Oversized(_))
        ));
        // And from a reader claiming 4 GiB with only 4 real bytes: the
        // error must come back without trying to read (or allocate) more.
        let huge = u32::MAX.to_le_bytes();
        let mut r = std::io::Cursor::new(huge.to_vec());
        assert!(matches!(
            Frame::read_from(&mut r),
            Err(ProtoError::Oversized(_))
        ));
    }

    #[test]
    fn zero_and_one_byte_lengths_rejected() {
        for len in [0u32, 1] {
            let mut bytes = len.to_le_bytes().to_vec();
            bytes.extend_from_slice(&vec![0; len as usize]);
            assert!(matches!(
                Frame::decode(&bytes),
                Err(ProtoError::Oversized(_))
            ));
        }
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_rejected() {
        let mut bad = Frame::Poll.encode();
        bad[4] = 0xff; // kind := 0x00ff
        assert!(matches!(
            Frame::decode(&bad),
            Err(ProtoError::UnknownKind(255))
        ));

        let mut trailing = Frame::Heartbeat {
            seq: 1,
            t_client_us: 0,
        }
        .encode();
        trailing.push(0);
        assert!(matches!(
            Frame::decode(&trailing),
            Err(ProtoError::TrailingBytes(1))
        ));

        // Inner trailing bytes: length header admits one more byte than
        // the message consumes.
        let mut inner = Frame::Poll.encode();
        inner.push(7);
        let len = (inner.len() - 4) as u32;
        inner[..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            Frame::decode(&inner),
            Err(ProtoError::TrailingBytes(1))
        ));
    }

    #[test]
    fn bad_utf8_in_string_field_rejected() {
        let f = Frame::Hello {
            proto: 1,
            name: "ab".into(),
            workers: 1,
            generation: 0,
        };
        let mut bytes = f.encode();
        // name bytes start after len(4) + kind(2) + proto(2) + strlen(2).
        bytes[10] = 0xff;
        bytes[11] = 0xfe;
        assert!(matches!(Frame::decode(&bytes), Err(ProtoError::BadUtf8)));
    }

    #[test]
    fn errors_display() {
        let e = ProtoError::Oversized(99);
        assert!(e.to_string().contains("99"));
        assert!(ProtoError::Truncated.to_string().contains("truncated"));
        assert!(ProtoError::UnknownKind(7).to_string().contains('7'));
        assert!(ProtoError::TrailingBytes(3).to_string().contains('3'));
        assert!(ProtoError::BadUtf8.to_string().contains("UTF-8"));
        assert!(ProtoError::Malformed("bool").to_string().contains("bool"));
        let io = ProtoError::from(std::io::Error::other("x"));
        assert!(io.to_string().contains("io"));
    }

    #[test]
    fn non_canonical_bool_byte_rejected() {
        let f = Frame::Result {
            task: 1,
            attempt: 1,
            generation: 0,
            ok: true,
            payload: vec![],
        };
        let mut bytes = f.encode();
        // ok byte sits after len(4) + kind(2) + task(8) + attempt(4) + gen(8).
        bytes[26] = 2;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn full_telemetry_batch_fits_the_frame_cap() {
        let f = Frame::Telemetry {
            generation: u64::MAX,
            seq: u64::MAX,
            events: vec![
                TelemetryEvent {
                    stage: u8::MAX,
                    t_us: u64::MAX,
                    task: u64::MAX,
                    attempt: u32::MAX,
                    arg: u64::MAX,
                };
                TEL_MAX_EVENTS
            ],
            counters: vec![(u16::MAX, u64::MAX); 16],
            exec_buckets: vec![(i32::MIN, u64::MAX); 512],
        };
        let bytes = f.encode();
        assert!((bytes.len() as u32) < MAX_FRAME / 32, "batch far under cap");
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
    }
}
