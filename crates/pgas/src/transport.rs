//! Process transport: ranks' mailboxes held by real OS worker processes.
//!
//! The default [`crate::Bsp`] path exchanges coalesced batches through
//! in-process double-buffered mailboxes — fast, but every "rank death" is
//! simulated. This module adds the second transport the paper's UPC++ layer
//! implies: each rank is backed by a forked **worker process** that holds
//! the rank's in-flight inbox frames, reached over localhost TCP sockets.
//! Killing a worker is a genuine crash: its sockets reset, its retained
//! frames are gone, and the parent discovers the loss the way a distributed
//! runtime does — at the barrier.
//!
//! # Wire protocol
//!
//! Every socket message is `[kind: u8][aux: u64][len: u64][body]` (little
//! endian), read on both ends by one function over [`frame`]'s fill loop.
//! The 17-byte header is not a sealed [`frame`]: the metered wire volume
//! counts these exact bytes, and the batch frames inside are sealed
//! already. The parent drives; workers only ever reply to `FLUSH`:
//!
//! | kind  | direction | aux       | body                                  |
//! |-------|-----------|-----------|---------------------------------------|
//! | HELLO | w → p     | rank      | session token (8 bytes)               |
//! | BEGIN | p → w     | superstep | — (worker drops retained frames)      |
//! | PUT   | p → w     | src rank  | one CRC64-sealed batch frame          |
//! | FLUSH | p → w     | nonce     | — (worker replies INBOX)              |
//! | INBOX | w → p     | nonce     | `[n][src u64][frame]*`, ascending src |
//! | STALL | p → w     | ns        | — (worker sleeps before next reply)   |
//!
//! There is no exit message: teardown is SIGKILL, because a worker wedged
//! writing an INBOX nobody reads would block a graceful wait forever, and
//! workers hold nothing durable.
//!
//! A batch frame is exactly [`crate::mailbox::frame`]'s sealed layout with
//! the bucket's messages encoded via [`WireCodec`]; the INBOX body carries
//! no per-frame length because frames are self-delimiting (parsed with the
//! partial-read-hardened [`frame::read_frame`]).
//!
//! # Superstep round trip
//!
//! Rank compute stays in the parent (that is what keeps the recovered
//! trajectory bitwise identical to the in-process run); what crosses the
//! wire is the *entire barrier exchange*. Per superstep the parent sends
//! `BEGIN`, `PUT`s each non-empty (src, dst) bucket to dst's worker,
//! `FLUSH`es, and decodes each worker's `INBOX` back into the very outbox
//! buckets the logical exchange then delivers — so a frame garbled or lost
//! on the wire really does corrupt or lose the delivered messages unless
//! the retry machinery heals it.
//!
//! # Faults
//!
//! The wire faults ride the run's one [`FaultPlan`](crate::fault::FaultPlan):
//! [`Bsp::try_superstep`](crate::Bsp::try_superstep) hands each superstep's
//! due events to [`ExchangeTransport::round_trip`]. A `RankDeath` SIGKILLs
//! the rank's worker before `BEGIN`, so the parent discovers the crash
//! through its socket; a `SlowRank` sends `STALL`; `InboxGarble` and
//! `InboxDrop` damage or lose the received inbox, which the retry ladder
//! below heals.
//!
//! # Deadlines, retry, and failure classification
//!
//! Every connection carries read/write deadlines. A `FLUSH` whose reply
//! misses the read deadline (with zero bytes consumed) is retried with
//! exponential backoff — `FLUSH` is idempotent because workers retain their
//! frames until the next `BEGIN`, so a re-`FLUSH` *is* the retransmit path.
//! A garbled or short inbox is likewise re-requested. At the barrier each
//! peer is classified:
//!
//! - **closed** (EOF / reset / broken pipe) → the worker crashed → its rank
//!   joins [`SuperstepFailure::dead_ranks`];
//! - **timed out** (deadline + retry budget exhausted, or a deadline struck
//!   mid-message where the stream can no longer be re-framed) → likewise;
//! - **garbage frame** beyond the retry budget → an
//!   [`IntegrityFailure`](crate::fault::IntegrityFailure), the same typed
//!   escalation an unhealed in-process corruption takes.
//!
//! Either way the driver's existing ladder (retransmit → rollback → elastic
//! re-partition) takes over, and [`ExchangeTransport::rebuilt`] respawns a
//! fresh worker set for the surviving rank count — or degrades gracefully
//! back to the in-process path if respawning fails.
//!
//! [`SuperstepFailure::dead_ranks`]: crate::fault::SuperstepFailure

use crate::fault::{FaultEvent, FaultKind};
use crate::mailbox::frame::{self, FrameStreamError};
use crate::mailbox::Outbox;
use crate::wire::{decode_bucket, encode_bucket, WireCodec, WireReader, WireWrite};
use simcov_telemetry::WireStats;
use std::io::{self, Read, Write};
use std::marker::PhantomData;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

const MSG_HELLO: u8 = 1;
const MSG_BEGIN: u8 = 2;
const MSG_PUT: u8 = 3;
const MSG_FLUSH: u8 = 4;
const MSG_INBOX: u8 = 5;
const MSG_STALL: u8 = 6;

/// `[kind][aux][len]` framing of every socket message.
const MSG_HEADER_BYTES: usize = 17;

/// Upper bound on any single socket message body or frame payload; a
/// hostile or corrupted length field can never drive a larger allocation.
const MAX_BODY_BYTES: u64 = 1 << 30;

/// Stale `INBOX` replies tolerated while hunting the current nonce before
/// the peer is declared protocol-broken.
const MAX_STALE_REPLIES: u32 = 64;

const SIGKILL: i32 = 9;

extern "C" {
    fn fork() -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
    fn _exit(code: i32) -> !;
}

/// Socket/process tuning for the transport. Retry semantics deliberately
/// mirror the driver's `RecoveryPolicy`: a bounded retry count with
/// exponential backoff `base << (attempt - 1)`.
#[derive(Clone, Debug)]
pub struct ProcessTransportConfig {
    /// Per-connection read deadline (one `FLUSH` → `INBOX` wait).
    pub read_timeout_ns: u64,
    /// Per-connection write deadline.
    pub write_timeout_ns: u64,
    /// Delivery attempts beyond the first before a peer is classified.
    pub max_retries: u32,
    /// Exponential backoff base between retries.
    pub backoff_base_ns: u64,
    /// Worker handshake deadline at spawn/respawn.
    pub handshake_timeout_ns: u64,
}

impl ProcessTransportConfig {
    /// Forked workers with 1 s deadlines, 8 retries and a 1 ms backoff
    /// base — the same retry/backoff shape as `RecoveryPolicy::default()`.
    pub fn forked() -> Self {
        ProcessTransportConfig {
            read_timeout_ns: 1_000_000_000,
            write_timeout_ns: 1_000_000_000,
            max_retries: 8,
            backoff_base_ns: 1_000_000,
            handshake_timeout_ns: 10_000_000_000,
        }
    }

    pub fn with_deadlines(mut self, read_ns: u64, write_ns: u64) -> Self {
        self.read_timeout_ns = read_ns;
        self.write_timeout_ns = write_ns;
        self
    }

    pub fn with_retry(mut self, max_retries: u32, backoff_base_ns: u64) -> Self {
        self.max_retries = max_retries;
        self.backoff_base_ns = backoff_base_ns;
        self
    }
}

/// Which transport a simulation's BSP runtime exchanges through. The
/// executor configs accept this so callers pick per run; trajectories are
/// bitwise identical either way.
#[derive(Clone, Debug, Default)]
pub enum TransportMode {
    /// In-process double-buffered mailboxes (the default).
    #[default]
    InProcess,
    /// One worker process per rank over local sockets.
    Process(ProcessTransportConfig),
}

/// Aggregate wire-side counters. Strictly separate from
/// [`CommCounters`](crate::CommCounters): logical volume metering is
/// transport-invariant (that is what keeps step records bitwise identical
/// across transports), while everything here is wire overhead.
#[derive(Clone, Debug, Default)]
pub struct TransportCounters {
    pub frames_sent: u64,
    pub frames_received: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// Inbox deliveries re-requested after a garbled or dropped reply.
    pub wire_retransmits: u64,
    /// Read-deadline expiries that were retried.
    pub deadline_retries: u64,
    /// Peers whose socket closed under the parent (worker crashed).
    pub peers_closed: u64,
    /// Peers that exhausted the deadline retry budget.
    pub peers_timed_out: u64,
    pub workers_spawned: u64,
    pub workers_respawned: u64,
    /// Times the runtime fell back to the in-process path because a worker
    /// set could not be (re)spawned.
    pub degraded: u64,
    /// Per-connection statistics, one entry per current peer.
    pub per_peer: Vec<WireStats>,
}

/// What one barrier round trip concluded about the peer set.
#[derive(Clone, Debug, Default)]
pub struct WireOutcome {
    /// Ranks whose worker is gone (closed or timed out), ascending.
    pub dead_peers: Vec<usize>,
    /// Ranks whose inbox stayed garbage past the retry budget, ascending.
    pub unhealed_garbled: Vec<usize>,
}

/// The transport seam [`crate::Bsp`] drives when a process transport is
/// attached. The in-process mailbox path is the `None` side of the seam;
/// implementations of this trait put a real wire (and a real failure
/// domain) under the same exchange.
pub trait ExchangeTransport<M>: Send {
    /// Ship every non-empty outbox bucket to its destination worker and
    /// read back what the workers actually hold, replacing the buckets with
    /// the round-tripped contents. `due` is the superstep's fault events
    /// from the run's plan; the wire ones strike here (see the module
    /// docs). Never fails outright: per-peer faults are classified in the
    /// returned [`WireOutcome`].
    fn round_trip(
        &mut self,
        superstep: u64,
        outboxes: &mut [Outbox<M>],
        due: &[FaultEvent],
    ) -> WireOutcome;

    /// Replace the worker set for a rebuilt domain of `n_ranks`. Returning
    /// `false` means the transport could not re-establish itself; the
    /// caller degrades to the in-process path.
    fn rebuilt(&mut self, n_ranks: usize) -> bool;

    /// Current wire counters (cumulative across rebuilds).
    fn counters(&self) -> TransportCounters;
}

struct Worker {
    /// The forked process; `None` once it has been SIGKILLed and reaped.
    pid: Option<i32>,
    stream: Option<TcpStream>,
}

impl Worker {
    /// SIGKILL and reap. Idempotent. The parent's end of the socket stays
    /// open, so the next exchange discovers the crash as a closed peer.
    fn kill(&mut self) {
        if let Some(pid) = self.pid.take() {
            sigkill(pid);
        }
    }
}

/// SIGKILL and reap a forked worker that has not been reaped yet.
fn sigkill(pid: i32) {
    // SAFETY: plain syscalls on a child pid this transport forked; callers
    // reap each pid once, so it cannot name a recycled process.
    unsafe {
        kill(pid, SIGKILL);
        waitpid(pid, std::ptr::null_mut(), 0);
    }
}

/// Socket-backed [`ExchangeTransport`] over one worker process per rank.
pub struct ProcessTransport<M> {
    cfg: ProcessTransportConfig,
    n_ranks: usize,
    listener: TcpListener,
    addr: String,
    token: u64,
    workers: Vec<Worker>,
    nonce: u64,
    counters: TransportCounters,
    _msg: PhantomData<fn() -> M>,
}

/// Why a deadline-bounded read gave up.
enum ReadFailure {
    /// EOF / reset / broken pipe: the peer process is gone.
    Closed,
    /// Deadline expired with zero bytes consumed — the stream is still
    /// aligned on a message boundary, so a retry is safe.
    TimedOutClean,
    /// Deadline expired mid-message: the stream can no longer be framed.
    TimedOutDirty,
    /// Anything else — an unclassifiable I/O error or a protocol violation
    /// (fatal for the peer either way).
    Protocol,
}

/// Read one `[kind][aux][len][body]` socket message — the one header
/// reader both ends use, over [`frame`]'s fill loop. A failure carries the
/// I/O error and whether any byte of the message had already arrived.
fn read_msg<R: Read>(stream: &mut R) -> Result<(u8, u64, Vec<u8>), (io::Error, bool)> {
    let mut head = [0u8; MSG_HEADER_BYTES];
    frame::fill_exact(stream, &mut head).map_err(|(e, filled)| (e, filled > 0))?;
    let mut h = WireReader::new(&head);
    let (Some(kind), Some(aux), Some(len)) = (h.read_u8(), h.read_u64(), h.read_u64()) else {
        unreachable!("the header is {MSG_HEADER_BYTES} bytes");
    };
    if len > MAX_BODY_BYTES {
        let e = io::Error::new(io::ErrorKind::InvalidData, "oversized message body");
        return Err((e, true));
    }
    let mut body = vec![0u8; len as usize];
    frame::fill_exact(stream, &mut body).map_err(|(e, _)| (e, true))?;
    Ok((kind, aux, body))
}

/// [`read_msg`] under the stream's read deadline, with the failure
/// classified for the retry ladder.
fn read_msg_deadline(stream: &mut TcpStream) -> Result<(u8, u64, Vec<u8>), ReadFailure> {
    read_msg(stream).map_err(|(e, partial)| match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut if partial => {
            ReadFailure::TimedOutDirty
        }
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ReadFailure::TimedOutClean,
        io::ErrorKind::UnexpectedEof
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe => ReadFailure::Closed,
        _ => ReadFailure::Protocol,
    })
}

fn write_msg(stream: &mut TcpStream, kind: u8, aux: u64, body: &[u8]) -> io::Result<()> {
    let mut msg = Vec::with_capacity(MSG_HEADER_BYTES + body.len());
    msg.put_u8(kind);
    msg.put_u64(aux);
    msg.put_u64(body.len() as u64);
    msg.put_bytes(body);
    stream.write_all(&msg)
}

/// Exponential backoff matching `RecoveryPolicy`: `base << (attempt - 1)`,
/// saturating.
fn backoff_ns(base: u64, attempt: u32) -> u64 {
    if attempt <= 1 {
        base
    } else {
        base.checked_shl(attempt - 1).unwrap_or(u64::MAX)
    }
}

/// A best-effort unique session token: workers echo it in `HELLO` so a
/// stray local connection cannot impersonate a rank.
fn session_token() -> u64 {
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    t ^ (std::process::id() as u64).rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15
}

impl<M: WireCodec> ProcessTransport<M> {
    /// Bind the rendezvous socket and spawn one worker per rank.
    pub fn spawn(n_ranks: usize, cfg: ProcessTransportConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?.to_string();
        let mut t = ProcessTransport {
            cfg,
            n_ranks: 0,
            listener,
            addr,
            token: session_token(),
            workers: Vec::new(),
            nonce: 0,
            counters: TransportCounters::default(),
            _msg: PhantomData,
        };
        t.spawn_all(n_ranks)?;
        Ok(t)
    }

    /// Spawn `n` workers and complete their handshakes. All processes are
    /// created *before* any connection is accepted so no child inherits a
    /// duplicate of another worker's accepted socket — a SIGKILL must
    /// surface as EOF at the parent, and a stray inherited file descriptor
    /// would keep the dead worker's connection artificially open.
    fn spawn_all(&mut self, n: usize) -> io::Result<()> {
        let mut pids = Vec::with_capacity(n);
        for rank in 0..n {
            pids.push(self.spawn_one(rank)?);
        }
        self.counters.workers_spawned += n as u64;

        self.listener.set_nonblocking(true)?;
        let deadline = Instant::now() + Duration::from_nanos(self.cfg.handshake_timeout_ns);
        let mut streams: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
        let mut accepted = 0;
        while accepted < n {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    stream.set_nonblocking(false)?;
                    stream.set_nodelay(true)?;
                    stream
                        .set_read_timeout(Some(Duration::from_nanos(self.cfg.read_timeout_ns)))?;
                    stream
                        .set_write_timeout(Some(Duration::from_nanos(self.cfg.write_timeout_ns)))?;
                    let (kind, aux, body) = match read_msg_deadline(&mut stream) {
                        Ok(m) => m,
                        Err(_) => continue, // a broken dialer; keep waiting
                    };
                    let rank = aux as usize;
                    if kind != MSG_HELLO
                        || rank >= n
                        || body != self.token.to_le_bytes()
                        || streams[rank].is_some()
                    {
                        continue; // wrong token / duplicate rank: reject
                    }
                    streams[rank] = Some(stream);
                    accepted += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        pids.into_iter().for_each(sigkill);
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("worker handshake: {accepted}/{n} ranks reported in time"),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(e),
            }
        }

        self.workers = pids
            .into_iter()
            .zip(streams)
            .map(|(pid, stream)| Worker {
                pid: Some(pid),
                stream,
            })
            .collect();
        self.n_ranks = n;
        self.counters.per_peer = (0..n).map(WireStats::new).collect();
        Ok(())
    }

    fn spawn_one(&self, rank: usize) -> io::Result<i32> {
        // SAFETY: the child only runs the worker loop over its own copies of
        // the parent's memory and then `_exit`s; it never returns here.
        let pid = unsafe { fork() };
        if pid < 0 {
            return Err(io::Error::last_os_error());
        }
        if pid == 0 {
            // Child. Run the worker loop and leave via _exit so no
            // parent-side destructors or test harness code runs in this
            // process, whatever happens — including a panic.
            let code = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_rank_worker(&self.addr, rank, self.token)
            }))
            .map(|r| if r.is_ok() { 0 } else { 1 })
            .unwrap_or(2);
            // SAFETY: `_exit` ends the child without running destructors.
            unsafe { _exit(code) }
        }
        Ok(pid)
    }

    fn peer_stat(&mut self, dst: usize) -> &mut WireStats {
        &mut self.counters.per_peer[dst]
    }

    /// Mark a peer dead by closure and meter it (idempotent per peer).
    fn close_peer(&mut self, dst: usize) {
        if self.workers[dst].stream.take().is_some() {
            self.counters.peers_closed += 1;
            self.peer_stat(dst).alive = false;
        }
    }

    fn timeout_peer(&mut self, dst: usize) {
        if self.workers[dst].stream.take().is_some() {
            self.counters.peers_timed_out += 1;
            self.peer_stat(dst).alive = false;
        }
    }

    /// Send one message to a peer, classifying any failure as closure.
    /// Returns whether the peer is still usable.
    fn send_to(&mut self, dst: usize, kind: u8, aux: u64, body: &[u8]) -> bool {
        let Some(stream) = self.workers[dst].stream.as_mut() else {
            return false;
        };
        match write_msg(stream, kind, aux, body) {
            Ok(()) => {
                self.counters.bytes_sent += (MSG_HEADER_BYTES + body.len()) as u64;
                self.peer_stat(dst).bytes_sent += (MSG_HEADER_BYTES + body.len()) as u64;
                true
            }
            Err(_) => {
                self.close_peer(dst);
                false
            }
        }
    }

    /// Read `INBOX` replies until the current nonce appears, skipping stale
    /// replies left over from earlier deadline retries.
    fn read_inbox(&mut self, dst: usize, nonce: u64) -> Result<Vec<u8>, ReadFailure> {
        let Some(stream) = self.workers[dst].stream.as_mut() else {
            return Err(ReadFailure::Closed);
        };
        for _ in 0..MAX_STALE_REPLIES {
            let (kind, aux, body) = read_msg_deadline(stream)?;
            if kind != MSG_INBOX {
                return Err(ReadFailure::Protocol);
            }
            if aux == nonce {
                return Ok(body);
            }
            let _ = body; // stale reply from a timed-out FLUSH: discard
        }
        Err(ReadFailure::Protocol) // peer floods stale INBOX replies
    }

    /// Parse an `INBOX` body into per-source decoded buckets, enforcing the
    /// canonical ascending-src layout.
    fn parse_inbox(&self, body: &[u8]) -> Option<Vec<(usize, Vec<M>)>> {
        let mut cur: &[u8] = body;
        let mut count_buf = [0u8; 8];
        cur.read_exact(&mut count_buf).ok()?;
        let n_entries = u64::from_le_bytes(count_buf);
        if n_entries > self.n_ranks as u64 {
            return None;
        }
        let mut entries = Vec::with_capacity(n_entries as usize);
        let mut last_src: Option<usize> = None;
        for _ in 0..n_entries {
            let mut src_buf = [0u8; 8];
            cur.read_exact(&mut src_buf).ok()?;
            let src = u64::from_le_bytes(src_buf) as usize;
            if src >= self.n_ranks || last_src.is_some_and(|p| p >= src) {
                return None;
            }
            last_src = Some(src);
            let (count, payload) = match frame::read_frame(&mut cur, MAX_BODY_BYTES) {
                Ok(f) => f,
                Err(FrameStreamError::Io(_)) | Err(FrameStreamError::Frame(_)) => return None,
            };
            entries.push((src, decode_bucket::<M>(count, &payload)?));
        }
        if !cur.is_empty() {
            return None;
        }
        Some(entries)
    }
}

impl<M: WireCodec> ExchangeTransport<M> for ProcessTransport<M> {
    fn round_trip(
        &mut self,
        superstep: u64,
        outboxes: &mut [Outbox<M>],
        due: &[FaultEvent],
    ) -> WireOutcome {
        let n = self.n_ranks;
        debug_assert_eq!(outboxes.len(), n, "one outbox per rank");
        let mut outcome = WireOutcome::default();

        // Scheduled rank deaths first: a real crash "just before the
        // barrier", found below through the dead worker's socket.
        for ev in due.iter().filter(|ev| ev.kind == FaultKind::RankDeath) {
            self.workers[ev.rank % n].kill();
        }

        // BEGIN: workers drop frames retained from the previous superstep.
        for dst in 0..n {
            self.send_to(dst, MSG_BEGIN, superstep, &[]);
        }

        // PUT every staged batch to its destination's worker as one sealed
        // frame. Sources iterate ascending, the canonical inbox order the
        // worker reproduces, and so does each destination's sender list.
        let mut senders: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (src, outbox) in outboxes.iter().enumerate() {
            for (dst, bucket) in &outbox.batches {
                senders[*dst].push(src);
                let payload = encode_bucket(bucket);
                let sealed = frame::encode(bucket.len() as u64, &payload);
                if self.send_to(*dst, MSG_PUT, src as u64, &sealed) {
                    self.counters.frames_sent += 1;
                    self.peer_stat(*dst).frames_sent += 1;
                }
            }
        }

        // FLUSH each peer and install what actually came back, healing
        // garbled/dropped/late replies through deadline + backoff retries.
        for (dst, expected) in senders.iter().enumerate() {
            if self.workers[dst].stream.is_none() {
                continue;
            }
            let (mut stall_ns, mut garble, mut drop_once) = (None, None, false);
            for ev in due.iter().filter(|ev| ev.rank % n == dst) {
                match ev.kind {
                    FaultKind::SlowRank { stall_ns: ns } => stall_ns = Some(ns),
                    FaultKind::InboxGarble { seed, sticky } => garble = Some((seed, sticky)),
                    FaultKind::InboxDrop => drop_once = true,
                    _ => {}
                }
            }
            let mut garble_pending = garble.is_some();
            if let Some(ns) = stall_ns {
                if !self.send_to(dst, MSG_STALL, ns, &[]) {
                    continue;
                }
            }

            let mut attempt: u32 = 0;
            loop {
                self.nonce += 1;
                let nonce = self.nonce;
                if !self.send_to(dst, MSG_FLUSH, nonce, &[]) {
                    break;
                }
                let mut retry = |this: &mut Self| -> bool {
                    attempt += 1;
                    if attempt > this.cfg.max_retries {
                        return false;
                    }
                    std::thread::sleep(Duration::from_nanos(backoff_ns(
                        this.cfg.backoff_base_ns,
                        attempt,
                    )));
                    true
                };
                match self.read_inbox(dst, nonce) {
                    Ok(mut body) => {
                        self.counters.bytes_received += (MSG_HEADER_BYTES + body.len()) as u64;
                        self.peer_stat(dst).bytes_received +=
                            (MSG_HEADER_BYTES + body.len()) as u64;
                        if drop_once {
                            // The reply evaporates on the wire: re-request.
                            drop_once = false;
                            self.counters.wire_retransmits += 1;
                            self.peer_stat(dst).retries += 1;
                            if retry(self) {
                                continue;
                            }
                            self.timeout_peer(dst);
                            break;
                        }
                        if let Some((seed, sticky)) = garble {
                            if (sticky || garble_pending) && !body.is_empty() {
                                garble_pending = false;
                                let bit = seed % (body.len() as u64 * 8);
                                body[(bit / 8) as usize] ^= 1 << (bit % 8);
                            }
                        }
                        // Everything PUT must have come back; a missing
                        // source is indistinguishable from a damaged inbox
                        // and retries the same way.
                        let delivered = self
                            .parse_inbox(&body)
                            .filter(|entries| entries.iter().map(|(src, _)| src).eq(expected));
                        let Some(entries) = delivered else {
                            self.counters.wire_retransmits += 1;
                            self.peer_stat(dst).retries += 1;
                            if retry(self) {
                                continue;
                            }
                            self.timeout_peer(dst);
                            outcome.unhealed_garbled.push(dst);
                            break;
                        };
                        for (src, msgs) in entries {
                            self.counters.frames_received += 1;
                            self.peer_stat(dst).frames_received += 1;
                            outboxes[src].replace_bucket(dst, msgs);
                        }
                        break;
                    }
                    Err(ReadFailure::TimedOutClean) => {
                        self.counters.deadline_retries += 1;
                        self.peer_stat(dst).retries += 1;
                        if retry(self) {
                            continue;
                        }
                        self.timeout_peer(dst);
                        break;
                    }
                    Err(ReadFailure::TimedOutDirty) => {
                        // Mid-message deadline: the stream cannot be
                        // re-framed, so the peer is lost however alive the
                        // process might be.
                        self.timeout_peer(dst);
                        break;
                    }
                    Err(ReadFailure::Closed | ReadFailure::Protocol) => {
                        self.close_peer(dst);
                        break;
                    }
                }
            }
        }

        for (rank, w) in self.workers.iter().enumerate() {
            if w.stream.is_none() && !outcome.unhealed_garbled.contains(&rank) {
                outcome.dead_peers.push(rank);
            }
        }
        outcome.dead_peers.sort_unstable();
        outcome.unhealed_garbled.sort_unstable();
        outcome
    }

    fn rebuilt(&mut self, n_ranks: usize) -> bool {
        for w in &mut self.workers {
            w.kill();
        }
        self.workers.clear();
        match self.spawn_all(n_ranks) {
            Ok(()) => {
                self.counters.workers_respawned += n_ranks as u64;
                true
            }
            Err(_) => {
                self.n_ranks = 0;
                self.counters.degraded += 1;
                false
            }
        }
    }

    fn counters(&self) -> TransportCounters {
        self.counters.clone()
    }
}

impl<M> Drop for ProcessTransport<M> {
    fn drop(&mut self) {
        // SIGKILL: see the module docs on teardown.
        for w in &mut self.workers {
            w.kill();
        }
    }
}

/// The forked worker's body: connect back to the parent, identify (`HELLO`
/// with the session token), then serve the frame-holder protocol until a
/// protocol violation, the parent's disappearance, or SIGKILL.
fn run_rank_worker(connect: &str, rank: usize, token: u64) -> io::Result<()> {
    let mut stream = TcpStream::connect(connect)?;
    stream.set_nodelay(true)?;
    write_msg(&mut stream, MSG_HELLO, rank as u64, &token.to_le_bytes())?;

    // Frames retained for the current superstep, by source rank. Retention
    // until the next BEGIN is what makes FLUSH idempotent — a re-FLUSH
    // after a lost or garbled reply is a genuine retransmission.
    let mut retained: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut pending_stall_ns: u64 = 0;
    loop {
        // No deadline on this side: a worker's life is bounded by its
        // parent's socket.
        let (kind, aux, body) = match read_msg(&mut stream) {
            Ok(m) => m,
            Err(_) => return Ok(()), // parent gone: nothing to clean up
        };
        match kind {
            MSG_BEGIN => retained.clear(),
            MSG_PUT => retained.push((aux, body)),
            MSG_STALL => pending_stall_ns = aux,
            MSG_FLUSH => {
                if pending_stall_ns > 0 {
                    std::thread::sleep(Duration::from_nanos(pending_stall_ns));
                    pending_stall_ns = 0;
                }
                retained.sort_by_key(|(src, _)| *src);
                let mut out = Vec::new();
                out.put_u64(retained.len() as u64);
                for (src, sealed) in &retained {
                    out.put_u64(*src);
                    out.extend_from_slice(sealed);
                }
                write_msg(&mut stream, MSG_INBOX, aux, &out)?;
            }
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown message kind {kind}"),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::Outbox;

    fn staged(n: usize) -> Vec<Outbox<u64>> {
        let mut obs: Vec<Outbox<u64>> = (0..n).map(|_| Outbox::for_ranks(n)).collect();
        for (src, outbox) in obs.iter_mut().enumerate() {
            for dst in 0..n {
                if src != dst {
                    for k in 0..3u64 {
                        outbox.send(dst, (src as u64) * 1000 + (dst as u64) * 10 + k);
                    }
                }
            }
        }
        obs
    }

    fn fast_cfg() -> ProcessTransportConfig {
        ProcessTransportConfig::forked()
            .with_deadlines(500_000_000, 500_000_000)
            .with_retry(3, 100_000)
    }

    /// One due event at superstep 0.
    fn due(rank: usize, kind: FaultKind) -> [FaultEvent; 1] {
        [FaultEvent {
            superstep: 0,
            rank,
            kind,
        }]
    }

    #[test]
    fn healthy_round_trip_is_lossless_and_bit_identical() {
        let n = 4;
        let mut t: ProcessTransport<u64> =
            ProcessTransport::spawn(n, fast_cfg()).expect("spawn workers");
        let reference = staged(n);
        let mut obs = staged(n);
        for superstep in 0..3u64 {
            let outcome = t.round_trip(superstep, &mut obs, &[]);
            assert!(outcome.dead_peers.is_empty(), "{outcome:?}");
            assert!(outcome.unhealed_garbled.is_empty());
        }
        for (src, (a, b)) in reference.iter().zip(&obs).enumerate() {
            for dst in 0..n {
                assert_eq!(
                    a.bucket(dst),
                    b.bucket(dst),
                    "bucket ({src}, {dst}) changed across the wire"
                );
            }
        }
        let c = t.counters();
        assert_eq!(c.frames_sent, 3 * (n * (n - 1)) as u64);
        assert_eq!(c.frames_received, c.frames_sent);
        assert_eq!(c.wire_retransmits, 0);
        assert_eq!(c.peers_closed + c.peers_timed_out, 0);
        assert_eq!(c.per_peer.len(), n);
        assert!(c.per_peer.iter().all(|p| p.alive));
    }

    #[test]
    fn killed_worker_classifies_as_closed_peer() {
        let n = 3;
        let mut t: ProcessTransport<u64> =
            ProcessTransport::spawn(n, fast_cfg()).expect("spawn workers");
        let mut obs = staged(n);
        // Rank 4 is rank 1 of a 3-rank domain.
        let outcome = t.round_trip(0, &mut obs, &due(4, FaultKind::RankDeath));
        assert_eq!(outcome.dead_peers, vec![1]);
        assert!(outcome.unhealed_garbled.is_empty());
        // Survivors still round-tripped cleanly.
        assert_eq!(obs[0].bucket(2), staged(n)[0].bucket(2));
        let c = t.counters();
        assert!(!c.per_peer[1].alive, "peer 1 marked down");
        assert_eq!(c.peers_closed, 1, "the socket saw the crash");
    }

    #[test]
    fn garbled_inbox_heals_by_retransmit() {
        let n = 2;
        let mut t: ProcessTransport<u64> =
            ProcessTransport::spawn(n, fast_cfg()).expect("spawn workers");
        let reference = staged(n);
        let mut obs = staged(n);
        let garble = FaultKind::InboxGarble {
            seed: 0xBEEF,
            sticky: false,
        };
        let outcome = t.round_trip(0, &mut obs, &due(1, garble));
        assert!(outcome.dead_peers.is_empty(), "{outcome:?}");
        assert!(outcome.unhealed_garbled.is_empty());
        assert_eq!(obs[0].bucket(1), reference[0].bucket(1), "healed delivery");
        assert!(
            t.counters().wire_retransmits >= 1,
            "the heal was a re-FLUSH"
        );
    }

    #[test]
    fn sticky_garble_exhausts_budget_into_unhealed() {
        let n = 2;
        let cfg = fast_cfg().with_retry(2, 50_000);
        let mut t: ProcessTransport<u64> = ProcessTransport::spawn(n, cfg).expect("spawn workers");
        let mut obs = staged(n);
        let garble = FaultKind::InboxGarble {
            seed: 0x1CE,
            sticky: true,
        };
        let outcome = t.round_trip(0, &mut obs, &due(1, garble));
        assert_eq!(outcome.unhealed_garbled, vec![1]);
        assert!(!outcome.dead_peers.contains(&1), "garbage is not death");
    }

    #[test]
    fn dropped_inbox_heals_by_retransmit() {
        let n = 2;
        let mut t: ProcessTransport<u64> =
            ProcessTransport::spawn(n, fast_cfg()).expect("spawn workers");
        let reference = staged(n);
        let mut obs = staged(n);
        let outcome = t.round_trip(0, &mut obs, &due(0, FaultKind::InboxDrop));
        assert!(outcome.dead_peers.is_empty());
        assert_eq!(obs[1].bucket(0), reference[1].bucket(0));
        assert!(t.counters().wire_retransmits >= 1);
    }

    #[test]
    fn stalled_peer_past_deadline_times_out() {
        let n = 2;
        // 30 ms deadline, 1 retry: a 500 ms stall cannot be survived.
        let cfg = ProcessTransportConfig::forked()
            .with_deadlines(30_000_000, 500_000_000)
            .with_retry(1, 100_000);
        let mut t: ProcessTransport<u64> = ProcessTransport::spawn(n, cfg).expect("spawn workers");
        let mut obs = staged(n);
        let stall = FaultKind::SlowRank {
            stall_ns: 500_000_000,
        };
        let outcome = t.round_trip(0, &mut obs, &due(1, stall));
        assert_eq!(outcome.dead_peers, vec![1]);
        assert!(t.counters().peers_timed_out >= 1);
        assert!(t.counters().deadline_retries >= 1);
    }

    #[test]
    fn short_stall_is_survived_by_deadline_retries() {
        let n = 2;
        // 40 ms deadline, 6 retries: a 100 ms stall heals through retries.
        let cfg = ProcessTransportConfig::forked()
            .with_deadlines(40_000_000, 500_000_000)
            .with_retry(6, 100_000);
        let mut t: ProcessTransport<u64> = ProcessTransport::spawn(n, cfg).expect("spawn workers");
        let reference = staged(n);
        let mut obs = staged(n);
        let stall = FaultKind::SlowRank {
            stall_ns: 100_000_000,
        };
        let outcome = t.round_trip(0, &mut obs, &due(1, stall));
        assert!(outcome.dead_peers.is_empty(), "{outcome:?}");
        assert_eq!(obs[0].bucket(1), reference[0].bucket(1));
        assert!(t.counters().deadline_retries >= 1);
    }

    #[test]
    fn rebuilt_respawns_a_fresh_worker_set() {
        let n = 4;
        let mut t: ProcessTransport<u64> =
            ProcessTransport::spawn(n, fast_cfg()).expect("spawn workers");
        let mut obs = staged(n);
        let outcome = t.round_trip(0, &mut obs, &due(3, FaultKind::RankDeath));
        assert_eq!(outcome.dead_peers, vec![3]);
        assert!(t.rebuilt(3), "respawn over survivors");
        let reference = staged(3);
        let mut obs = staged(3);
        let outcome = t.round_trip(7, &mut obs, &[]);
        assert!(outcome.dead_peers.is_empty(), "{outcome:?}");
        for src in 0..3 {
            for dst in 0..3 {
                assert_eq!(obs[src].bucket(dst), reference[src].bucket(dst));
            }
        }
        let c = t.counters();
        assert_eq!(c.workers_spawned, 7);
        assert_eq!(c.workers_respawned, 3);
        assert_eq!(c.per_peer.len(), 3);
    }
}
