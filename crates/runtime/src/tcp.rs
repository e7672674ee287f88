//! TCP transport: run the hidden component in another process or on
//! another machine, as in the paper's evaluation ("ran them on two separate
//! linux based machines that communicated over the local area network").
//!
//! Frames are the [`crate::wire`] protocol. Each connection keeps a
//! persistent buffered reader/writer pair and reuses one encode buffer, so
//! steady-state calls perform no per-call allocation for framing. Batched
//! calls ([`Channel::call_batch`]) travel as one `Request::SeqBatch` frame
//! and count as a single interaction.
//!
//! ## Reliability layer
//!
//! Two cooperating halves make the transport survive flaky links and
//! server restarts without changing the adversary-visible interaction
//! sequence (DESIGN.md §7b):
//!
//! * **Client** — [`TcpChannel::connect`] opens a *session*
//!   (`Hello`/`HelloAck` handshake, version-checked), applies read/write
//!   timeouts from its [`RetryPolicy`], and sends every logical round trip
//!   as a sequenced frame. On a retryable fault it reconnects with
//!   exponential backoff plus deterministic jitter (vendored rand shim)
//!   and retransmits the same sequence number.
//! * **Server** — [`SessionServer`] accepts many clients (thread per
//!   connection), keys one [`crate::server::SecureServer`] per session
//!   id, and deduplicates retransmits through a
//!   [`crate::server::ReplayCache`] of encoded response frames: a retried
//!   call whose response was lost is answered from the cache, never
//!   re-executed. Sequence gaps are terminal. A connection whose first
//!   frame is not a `Hello` gets a `0x11 error` frame and is closed.
//!   Sessions execute on a pool of shard threads ([`crate::shard`]), each
//!   owning the state of the sessions hashed to it — lock-free hidden
//!   execution that scales with cores while keeping every per-session
//!   guarantee above.
//!
//! Retries, reconnects and replays are visible only in
//! [`Channel::transport_stats`] — never in [`Channel::interactions`],
//! server-side call counts, or [`crate::trace::TraceChannel`] events.

use crate::channel::{CallReply, Channel, PendingCall, TransportStats};
use crate::error::{FaultClass, RuntimeError};
use crate::fault::CrashConfig;
use crate::shard::{ExecMsg, ShardConfig, ShardPool, ShardSenders, StatsInner};
use crate::wire::{read_frame, write_frame, Request, Response, WIRE_VERSION};
use hps_ir::{ComponentId, FragLabel, HiddenProgram, Value};
use hps_telemetry::{metrics::names, Event, Histogram, MetricsSnapshot, RecorderHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client-side retry configuration for [`TcpChannel::connect_reliable`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryPolicy {
    /// Attempts per logical round trip (including the first).
    pub max_attempts: u32,
    /// First backoff delay; attempt `n` waits `base_backoff · 2ⁿ` plus
    /// jitter drawn from `[0, base_backoff)`.
    pub base_backoff: Duration,
    /// Read/write/connect timeout per attempt.
    pub timeout: Duration,
    /// Optional wall-clock deadline per *logical call* (`hps client
    /// --timeout MS`). Where `timeout` bounds one attempt, this bounds the
    /// whole retry loop: a hung or unreachable server fails fast with a
    /// terminal `deadline` fault instead of exhausting the backoff budget.
    pub call_deadline: Option<Duration>,
    /// How many committed sequenced frames the client retains for the
    /// session-resume path: if a recovered server comes back missing a
    /// tail of committed units (lost journal frames), the handshake
    /// re-drives up to this many frames byte-identically.
    pub resume_window: usize,
    /// Seed for the deterministic jitter stream (and session-id salt).
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// Defaults: 6 attempts, 10 ms base backoff, 5 s timeout, no per-call
    /// deadline, 64-frame resume window.
    pub fn new() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(10),
            timeout: Duration::from_secs(5),
            call_deadline: None,
            resume_window: 64,
            jitter_seed: 0x5eed_cafe,
        }
    }

    /// Overrides the attempt budget (builder style).
    pub fn with_max_attempts(mut self, n: u32) -> RetryPolicy {
        self.max_attempts = n.max(1);
        self
    }

    /// Overrides the base backoff (builder style).
    pub fn with_base_backoff(mut self, d: Duration) -> RetryPolicy {
        self.base_backoff = d;
        self
    }

    /// Overrides the per-attempt timeout (builder style).
    pub fn with_timeout(mut self, d: Duration) -> RetryPolicy {
        self.timeout = d;
        self
    }

    /// Overrides the jitter seed (builder style).
    pub fn with_jitter_seed(mut self, seed: u64) -> RetryPolicy {
        self.jitter_seed = seed;
        self
    }

    /// Sets the per-logical-call deadline (builder style). `None` (the
    /// default) keeps only the per-attempt timeout.
    pub fn with_call_deadline(mut self, deadline: Option<Duration>) -> RetryPolicy {
        self.call_deadline = deadline;
        self
    }

    /// Overrides the session-resume window (builder style; min 1).
    pub fn with_resume_window(mut self, frames: usize) -> RetryPolicy {
        self.resume_window = frames.max(1);
        self
    }

    /// The socket timeout per attempt: the per-attempt timeout, capped by
    /// the per-call deadline when one is set — a hung server must not eat
    /// the whole deadline in a single blocked read.
    fn socket_timeout(&self) -> Duration {
        match self.call_deadline {
            Some(d) => self.timeout.min(d.max(Duration::from_millis(1))),
            None => self.timeout,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::new()
    }
}

/// Client side: a [`Channel`] that ships every call over one session of a
/// remote [`SessionServer`].
#[derive(Debug)]
pub struct TcpChannel {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    scratch: Vec<u8>,
    interactions: u64,
    rtt_cost: u64,
    batch_cap: usize,
    /// Where to reconnect after a retryable fault.
    addrs: Vec<SocketAddr>,
    policy: RetryPolicy,
    session: u64,
    next_seq: u64,
    /// The last `policy.resume_window` committed sequenced frames,
    /// byte-identical as sent, keyed by sequence number. A recovered
    /// server that lost a committed tail (dead executor, torn disk
    /// journal) is caught up from here during the handshake — see
    /// [`TcpChannel::resume_session`].
    history: std::collections::VecDeque<(u64, Vec<u8>)>,
    rng: StdRng,
    stats: TransportStats,
    recorder: RecorderHandle,
}

fn split_stream(
    stream: TcpStream,
) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>), RuntimeError> {
    stream
        .set_nodelay(true)
        .map_err(|e| RuntimeError::transport("set_nodelay", &e))?;
    let reader = stream
        .try_clone()
        .map_err(|e| RuntimeError::transport("clone", &e))?;
    Ok((BufReader::new(reader), BufWriter::new(stream)))
}

fn connect_stream(addrs: &[SocketAddr], timeout: Duration) -> Result<TcpStream, RuntimeError> {
    let mut last: Option<std::io::Error> = None;
    for addr in addrs {
        match TcpStream::connect_timeout(addr, timeout) {
            Ok(s) => {
                s.set_read_timeout(Some(timeout))
                    .map_err(|e| RuntimeError::transport("set_read_timeout", &e))?;
                s.set_write_timeout(Some(timeout))
                    .map_err(|e| RuntimeError::transport("set_write_timeout", &e))?;
                return Ok(s);
            }
            Err(e) => last = Some(e),
        }
    }
    match last {
        Some(e) => Err(RuntimeError::transport("connect", &e)),
        None => Err(RuntimeError::Transport {
            class: FaultClass::Terminal,
            op: "connect",
            detail: "address resolved to nothing".into(),
        }),
    }
}

impl TcpChannel {
    /// [`TcpChannel::connect_reliable`] under the default [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// As [`TcpChannel::connect_reliable`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<TcpChannel, RuntimeError> {
        TcpChannel::connect_reliable(addr, RetryPolicy::default())
    }

    /// Opens a session with the `Hello` handshake and transparently
    /// retries each round trip under `policy` (timeouts, reconnect with
    /// exponential backoff + jitter, sequenced exactly-once replay).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] if no connection can be
    /// established within the policy's attempt budget, and
    /// [`RuntimeError::Channel`] on a protocol/version mismatch.
    pub fn connect_reliable(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
    ) -> Result<TcpChannel, RuntimeError> {
        // Session ids only need uniqueness across concurrent clients of one
        // server; salt the seeded stream with wall clock and pid.
        let clock = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let mut rng =
            StdRng::seed_from_u64(policy.jitter_seed ^ clock ^ u64::from(std::process::id()));
        let session = rng.gen_range(1..u64::MAX);
        TcpChannel::connect_reliable_with_session(addr, policy, session)
    }

    /// [`TcpChannel::connect_reliable`] with a caller-chosen session id
    /// (must be non-zero and unique among this server's live clients).
    /// Session ids decide shard placement (`session % shards` on a sharded
    /// [`SessionServer`]), so benchmarks and tests use this to spread — or
    /// deliberately collide — clients across shards deterministically.
    ///
    /// # Errors
    ///
    /// As [`TcpChannel::connect_reliable`].
    pub fn connect_reliable_with_session(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
        session: u64,
    ) -> Result<TcpChannel, RuntimeError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| RuntimeError::transport("resolve", &e))?
            .collect();
        let rng = StdRng::seed_from_u64(policy.jitter_seed);
        let stream = connect_stream(&addrs, policy.socket_timeout())?;
        let (reader, writer) = split_stream(stream)?;
        let mut chan = TcpChannel {
            reader,
            writer,
            scratch: Vec::with_capacity(256),
            interactions: 0,
            rtt_cost: 0,
            batch_cap: usize::from(u16::MAX),
            addrs,
            policy,
            session,
            next_seq: 1,
            history: std::collections::VecDeque::new(),
            rng,
            stats: TransportStats::default(),
            recorder: RecorderHandle::none(),
        };
        chan.handshake()?;
        Ok(chan)
    }

    /// Sets the virtual round-trip cost charged per call (builder style).
    /// Wall-clock latency is real on this channel; the virtual cost only
    /// matters if the caller also reads virtual time.
    pub fn with_rtt_cost(mut self, rtt: u64) -> TcpChannel {
        self.rtt_cost = rtt;
        self
    }

    /// Overrides the per-frame batch chunking cap (builder style). The wire
    /// format caps one batch frame at `u16::MAX` calls; tests inject a
    /// small cap to exercise the chunking boundary cheaply. Values above
    /// `u16::MAX` are clamped.
    pub fn with_batch_cap(mut self, cap: usize) -> TcpChannel {
        self.batch_cap = cap.clamp(1, usize::from(u16::MAX));
        self
    }

    /// Attaches a telemetry recorder (builder style). Recording never
    /// changes frames on the wire, retries or interaction counts.
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> TcpChannel {
        self.recorder = recorder;
        self
    }

    /// The session id.
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// Asks the remote server to stop serving this connection. The server
    /// keeps the session state for a later reconnect.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] on I/O failure.
    pub fn shutdown(mut self) -> Result<(), RuntimeError> {
        Request::Shutdown.encode_into(&mut self.scratch);
        write_frame(&mut self.writer, &self.scratch)
    }

    /// Performs the `Hello`/`HelloAck` handshake on the current connection.
    fn handshake(&mut self) -> Result<(), RuntimeError> {
        let hello = Request::Hello {
            version: WIRE_VERSION,
            session: self.session,
        };
        let mut buf = Vec::with_capacity(16);
        hello.encode_into(&mut buf);
        write_frame(&mut self.writer, &buf)?;
        let payload = read_frame(&mut self.reader)?.ok_or_else(|| RuntimeError::Transport {
            class: FaultClass::Retryable,
            op: "handshake",
            detail: "server closed during handshake".into(),
        })?;
        match Response::decode(&payload)? {
            Response::HelloAck {
                version,
                session,
                next_seq,
            } => {
                if version != WIRE_VERSION || session != self.session {
                    return Err(RuntimeError::Channel(format!(
                        "handshake mismatch: version {version} session {session}"
                    )));
                }
                // The server may be ahead by exactly one: it executed our
                // outstanding seq but the response was lost, so the
                // retransmit will hit the replay cache. Further ahead is a
                // protocol violation.
                if next_seq > self.next_seq + 1 {
                    return Err(RuntimeError::Channel(format!(
                        "server expects seq {next_seq}, client is at {}",
                        self.next_seq
                    )));
                }
                // The server may also come back *behind*: a recovered
                // server whose journal lost a committed tail. Re-drive
                // the missing frames from the resume window.
                if next_seq < self.next_seq {
                    return self.resume_session(next_seq);
                }
                Ok(())
            }
            Response::Error(msg) => Err(RuntimeError::Channel(format!("remote: {msg}"))),
            other => Err(RuntimeError::Channel(format!(
                "unexpected handshake reply: {other:?}"
            ))),
        }
    }

    /// Re-drives committed-but-lost sequenced frames after the server came
    /// back behind the client (an executor died before journaling its
    /// tail, or a torn disk journal frame was dropped on restart). The
    /// retransmits are the byte-identical original frames, so on the wire
    /// this is indistinguishable from the lost-response retransmits the
    /// protocol always had — the adversary's view is unchanged, and no
    /// interaction or transport counter moves. Responses are discarded:
    /// the client already delivered these calls' results.
    fn resume_session(&mut self, server_next: u64) -> Result<(), RuntimeError> {
        let frames: Vec<Vec<u8>> = self
            .history
            .iter()
            .filter(|(seq, _)| *seq >= server_next)
            .map(|(_, frame)| frame.clone())
            .collect();
        let missing = self.next_seq - server_next;
        if frames.len() as u64 != missing {
            return Err(RuntimeError::Transport {
                class: FaultClass::Terminal,
                op: "resume",
                detail: format!(
                    "server lost {missing} committed units but the resume \
                     window holds {} (cap {})",
                    frames.len(),
                    self.policy.resume_window
                ),
            });
        }
        for frame in frames {
            write_frame(&mut self.writer, &frame)?;
            let payload = read_frame(&mut self.reader)?.ok_or_else(|| RuntimeError::Transport {
                class: FaultClass::Retryable,
                op: "resume",
                detail: "server closed during session resume".into(),
            })?;
            // Any decodable response completes the re-drive: the server's
            // sequence advances on success and execution errors alike.
            let _ = Response::decode(&payload)?;
        }
        Ok(())
    }

    /// Re-establishes the connection and re-opens the session.
    fn reconnect(&mut self) -> Result<(), RuntimeError> {
        let stream = connect_stream(&self.addrs, self.policy.socket_timeout())?;
        let (reader, writer) = split_stream(stream)?;
        self.reader = reader;
        self.writer = writer;
        self.handshake()?;
        self.stats.reconnects += 1;
        self.recorder.record(Event::Reconnect);
        Ok(())
    }

    /// One send/receive over the current connection (no retries).
    fn try_round_trip(&mut self) -> Result<Response, RuntimeError> {
        write_frame(&mut self.writer, &self.scratch)?;
        let payload = read_frame(&mut self.reader)?.ok_or_else(|| RuntimeError::Transport {
            class: FaultClass::Retryable,
            op: "read",
            detail: "server closed connection".into(),
        })?;
        Response::decode(&payload)
    }

    /// Sleeps `base_backoff · 2^attempt` plus deterministic jitter.
    fn backoff(&mut self, attempt: u32) {
        let base = self.policy.base_backoff;
        let exp = base.saturating_mul(1u32 << attempt.min(10));
        let jitter_us = self.rng.gen_range(0..=base.as_micros().max(1) as u64);
        std::thread::sleep(exp + Duration::from_micros(jitter_us));
    }

    /// Sends the request already encoded in `scratch`, retrying retryable
    /// faults with backoff + reconnect and retransmitting the identical
    /// frame so the server's replay cache can deduplicate.
    fn round_trip_encoded(&mut self) -> Result<Response, RuntimeError> {
        let policy = self.policy;
        let started = Instant::now();
        let mut attempt = 0u32;
        loop {
            match self.try_round_trip() {
                Ok(resp) => return Ok(resp),
                Err(_e) if policy.call_deadline.is_some_and(|d| started.elapsed() >= d) => {
                    return Err(RuntimeError::Transport {
                        class: FaultClass::Terminal,
                        op: "deadline",
                        detail: format!(
                            "call exceeded its {}ms deadline after {attempt} retries",
                            policy.call_deadline.expect("checked").as_millis()
                        ),
                    });
                }
                Err(e) if e.is_retryable() && attempt + 1 < policy.max_attempts => {
                    self.stats.faults += 1;
                    self.stats.retries += 1;
                    self.recorder.record(Event::Fault { kind: "io" });
                    self.recorder.record(Event::Retry);
                    self.backoff(attempt);
                    attempt += 1;
                    // A failed reconnect burns attempts too; terminal
                    // connect errors abort immediately.
                    if let Err(re) = self.reconnect() {
                        if re.is_retryable() && attempt + 1 < policy.max_attempts {
                            self.stats.faults += 1;
                            self.recorder.record(Event::Fault { kind: "io" });
                            continue;
                        }
                        return Err(re);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one sequenced call/batch frame and advances the sequence
    /// only after a reply arrived.
    fn sequenced(&mut self, req: &Request) -> Result<Response, RuntimeError> {
        req.encode_into(&mut self.scratch);
        let resp = self.round_trip_encoded()?;
        // Keep the committed frame so a recovered server that lost its
        // journal tail can be re-driven (resume_session); the window is
        // bounded by `RetryPolicy::resume_window`.
        self.history
            .push_back((self.next_seq, self.scratch.clone()));
        while self.history.len() > self.policy.resume_window {
            self.history.pop_front();
        }
        self.next_seq += 1;
        Ok(resp)
    }
}

impl Channel for TcpChannel {
    fn call(
        &mut self,
        component: ComponentId,
        key: u64,
        label: FragLabel,
        args: &[Value],
    ) -> Result<CallReply, RuntimeError> {
        self.interactions += 1;
        let resp = self.sequenced(&Request::SeqCall {
            seq: self.next_seq,
            call: PendingCall {
                component,
                key,
                label,
                args: args.to_vec(),
            },
        })?;
        match resp {
            Response::Reply { value, server_cost } => {
                self.recorder.record(Event::Call {
                    args: args.len() as u64,
                    server_cost,
                });
                self.recorder.record(Event::RoundTrip {
                    calls: 1,
                    rtt_cost: self.rtt_cost,
                });
                Ok(CallReply { value, server_cost })
            }
            Response::Error(msg) => Err(RuntimeError::from_remote(&msg)),
            other => Err(RuntimeError::Channel(format!(
                "unexpected reply to call: {other:?}"
            ))),
        }
    }

    fn call_batch(&mut self, calls: &[PendingCall]) -> Result<Vec<CallReply>, RuntimeError> {
        // The wire format caps one batch frame at u16::MAX calls (tests may
        // inject a smaller cap); larger buffers ride in multiple frames
        // (each its own interaction).
        if calls.len() > self.batch_cap {
            let mut out = Vec::with_capacity(calls.len());
            for chunk in calls.chunks(self.batch_cap) {
                out.extend(self.call_batch(chunk)?);
            }
            return Ok(out);
        }
        self.interactions += 1;
        let resp = self.sequenced(&Request::SeqBatch {
            seq: self.next_seq,
            calls: calls.to_vec(),
        })?;
        match resp {
            Response::Batch(replies) if replies.len() == calls.len() => {
                for (call, reply) in calls.iter().zip(&replies) {
                    self.recorder.record(Event::Call {
                        args: call.args.len() as u64,
                        server_cost: reply.server_cost,
                    });
                }
                self.recorder.record(Event::RoundTrip {
                    calls: calls.len() as u64,
                    rtt_cost: self.rtt_cost,
                });
                Ok(replies)
            }
            Response::Batch(replies) => Err(RuntimeError::Channel(format!(
                "batch reply count mismatch: sent {}, got {}",
                calls.len(),
                replies.len()
            ))),
            Response::Error(msg) => Err(RuntimeError::from_remote(&msg)),
            other => Err(RuntimeError::Channel(format!(
                "unexpected reply to batch: {other:?}"
            ))),
        }
    }

    fn release(&mut self, component: ComponentId, key: u64) -> Result<(), RuntimeError> {
        // Fire-and-forget: no reply expected for release, and the server
        // treats it idempotently, so it is never sequenced or retried.
        Request::Release { component, key }.encode_into(&mut self.scratch);
        write_frame(&mut self.writer, &self.scratch)?;
        self.recorder.record(Event::Release);
        Ok(())
    }

    fn interactions(&self) -> u64 {
        self.interactions
    }

    fn rtt_cost(&self) -> u64 {
        self.rtt_cost
    }

    fn transport_stats(&self) -> TransportStats {
        self.stats
    }
}

/// Server-side chaos: deterministically kill sockets mid-call to exercise
/// client reconnect + replay. With probability `kill_per_mille`/1000 per
/// served frame, the connection dies — half the time before executing the
/// request (client retransmit finds a fresh sequence), half after
/// executing but before responding (retransmit hits the replay cache).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChaosConfig {
    /// Seed for the per-connection kill schedule.
    pub seed: u64,
    /// Kill probability per frame, in thousandths.
    pub kill_per_mille: u32,
}

/// Snapshot of a [`SessionServer`]'s counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Distinct sessions created.
    pub sessions: u64,
    /// Logical calls executed (batch entries count; replays do not).
    pub calls: u64,
    /// Retransmits answered from the replay cache.
    pub replays: u64,
    /// Cached responses evicted from bounded replay windows.
    pub replay_evictions: u64,
    /// Connections killed by [`ChaosConfig`].
    pub chaos_kills: u64,
    /// Fragments lowered to bytecode by the shards' compile-once caches.
    pub vm_compiles: u64,
    /// Fragment executions served from already-compiled bytecode.
    pub vm_cache_hits: u64,
    /// Pure-fragment calls answered from the shards' memo tables without
    /// running the fragment (0 with memo off).
    pub memo_hits: u64,
    /// Fragment executions that ran in full and were considered for
    /// memoization (memoizable or not).
    pub memo_misses: u64,
    /// Memo entries evicted by the tables' FIFO capacity bounds.
    pub memo_evictions: u64,
    /// Fragment panics caught by per-request `catch_unwind` (injected and
    /// genuine alike); each poisons at most one session, never a shard.
    pub panics_caught: u64,
    /// Dead shard executors respawned by the supervisor.
    pub shard_restarts: u64,
    /// Sessions rebuilt by replaying their committed-call journal.
    pub journal_replays: u64,
}

impl ServerStats {
    /// The counters as a telemetry snapshot under the `hps_server_*`
    /// registry names — what `hps serve --metrics` exposes.
    pub fn to_metrics(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::new();
        m.add(names::SERVER_CONNECTIONS, self.connections);
        m.add(names::SERVER_SESSIONS, self.sessions);
        m.add(names::SERVER_CALLS, self.calls);
        m.add(names::SERVER_REPLAYS, self.replays);
        m.add(names::SERVER_REPLAY_EVICTIONS, self.replay_evictions);
        m.add(names::SERVER_CHAOS_KILLS, self.chaos_kills);
        m.add(names::SERVER_VM_COMPILES, self.vm_compiles);
        m.add(names::SERVER_VM_CACHE_HITS, self.vm_cache_hits);
        m.add(names::SERVER_MEMO_HITS, self.memo_hits);
        m.add(names::SERVER_MEMO_MISSES, self.memo_misses);
        m.add(names::SERVER_MEMO_EVICTIONS, self.memo_evictions);
        m.add(names::SERVER_PANICS_CAUGHT, self.panics_caught);
        m.add(names::SERVER_SHARD_RESTARTS, self.shard_restarts);
        m.add(names::SERVER_JOURNAL_REPLAYS, self.journal_replays);
        m
    }
}

/// Remote control for a running [`SessionServer`]: read stats, stop it.
#[derive(Clone, Debug)]
pub struct SessionServerHandle {
    addr: SocketAddr,
    stats: Arc<StatsInner>,
    stop: Arc<AtomicBool>,
}

impl SessionServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        let shards = self.stats.shard_stats();
        ServerStats {
            connections: self.stats.connections.load(Ordering::Relaxed),
            sessions: self.stats.sessions.load(Ordering::Relaxed),
            calls: self.stats.calls.load(Ordering::Relaxed),
            replays: self.stats.replays.load(Ordering::Relaxed),
            replay_evictions: self.stats.replay_evictions.load(Ordering::Relaxed),
            chaos_kills: self.stats.chaos_kills.load(Ordering::Relaxed),
            vm_compiles: shards.iter().map(|s| s.vm_compiles).sum(),
            vm_cache_hits: shards.iter().map(|s| s.vm_cache_hits).sum(),
            memo_hits: shards.iter().map(|s| s.memo_hits).sum(),
            memo_misses: shards.iter().map(|s| s.memo_misses).sum(),
            memo_evictions: shards.iter().map(|s| s.memo_evictions).sum(),
            panics_caught: self.stats.panics_caught.load(Ordering::Relaxed),
            shard_restarts: self.stats.shard_restarts.load(Ordering::Relaxed),
            journal_replays: self.stats.journal_replays.load(Ordering::Relaxed),
        }
    }

    /// Asks the supervisor to kill one shard executor (crash drill): the
    /// executor thread exits at its next message, the supervisor respawns
    /// it, and its sessions are rebuilt from their journals on demand.
    /// Out-of-range shard indices are ignored.
    pub fn kill_shard(&self, shard: usize) {
        self.stats
            .kill_requests
            .lock()
            .expect("kill-request lock")
            .push(shard);
    }

    /// Holds one shard executor between two messages until the returned
    /// [`ShardPause`](crate::shard::ShardPause) is dropped, so a test can
    /// keep a shard busy for exactly as long as it needs instead of
    /// racing a sleep. The pause queues behind everything already sent
    /// to the shard, and the call returns once the executor has reached
    /// it; messages sent later wait behind it, bounded queue included.
    /// Other shards are unaffected.
    ///
    /// Returns `None` when the shard index is out of range or the
    /// executor did not reach the pause within 5 s (the server is not
    /// serving). Drop the pause before [`SessionServerHandle::stop`]: the
    /// drain waits for a held executor.
    pub fn pause_shard(&self, shard: usize) -> Option<crate::shard::ShardPause> {
        let (parked, parked_rx) = std::sync::mpsc::channel();
        let (resume, resume_rx) = std::sync::mpsc::channel();
        self.stats
            .pause_requests
            .lock()
            .expect("pause-request lock")
            .push(crate::shard::PauseRequest {
                shard,
                parked,
                resume: resume_rx,
            });
        parked_rx.recv_timeout(Duration::from_secs(5)).ok()?;
        Some(crate::shard::ShardPause::new(resume))
    }

    /// Per-shard call/session/queue-depth counters, one entry per shard.
    pub fn shard_stats(&self) -> Vec<crate::shard::ShardStats> {
        self.stats.shard_stats()
    }

    /// Enqueue-time queue-depth distribution across every shard.
    pub fn queue_depth(&self) -> Histogram {
        self.stats.queue_depth_histogram()
    }

    /// Full telemetry snapshot: the `hps_server_*` counters plus the
    /// `hps_server_shard_queue_depth` histogram. Virtual cost is summed
    /// across the shard executors.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = self.stats().to_metrics();
        let cost: u64 = self.shard_stats().iter().map(|s| s.cost_units).sum();
        m.add(names::SERVER_COST_UNITS, cost);
        m.merge_histogram(names::SERVER_SHARD_QUEUE_DEPTH, &self.queue_depth());
        // Recovery latency is wall-clock (like the ShardStats nanos
        // fields): live-scrape only, never part of deterministic
        // snapshots — see OBSERVABILITY.md.
        m.merge_histogram(
            names::SERVER_RECOVERY_LATENCY,
            &self.stats.recovery_latency_histogram(),
        );
        m
    }

    /// Asks the server to shut down cleanly: the accept loop exits at its
    /// next poll, live connections are served to completion, and the shard
    /// pool drains every in-flight request before its threads exit.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// Multi-client accept loop: one I/O thread per client, sessions executed
/// on a pool of shard threads (each owning the sessions hashed to it) with
/// sequenced exactly-once replay. Sessions survive disconnects — a client
/// reconnecting with the same session id resumes its hidden state on the
/// same shard.
pub struct SessionServer {
    listener: TcpListener,
    hidden: HiddenProgram,
    chaos: Option<ChaosConfig>,
    shards: usize,
    queue_capacity: usize,
    replay_capacity: usize,
    fragment_memo: bool,
    journal_limit: usize,
    journal_dir: Option<PathBuf>,
    crash: Option<CrashConfig>,
    stats: Arc<StatsInner>,
    stop: Arc<AtomicBool>,
}

impl SessionServer {
    /// Binds a listener (use port 0 for an ephemeral port) serving `hidden`
    /// to every session. Defaults to a single shard — byte-compatible with
    /// the previous one-executor design; use [`SessionServer::with_shards`]
    /// to scale across cores.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] if the bind fails.
    pub fn bind(
        addr: impl ToSocketAddrs,
        hidden: HiddenProgram,
    ) -> Result<SessionServer, RuntimeError> {
        let listener = TcpListener::bind(addr).map_err(|e| RuntimeError::transport("bind", &e))?;
        Ok(SessionServer {
            listener,
            hidden,
            chaos: None,
            shards: 1,
            queue_capacity: crate::shard::DEFAULT_QUEUE_CAPACITY,
            replay_capacity: crate::shard::DEFAULT_REPLAY_CAPACITY,
            fragment_memo: crate::memo::memo_enabled_by_default(),
            journal_limit: crate::journal::DEFAULT_JOURNAL_LIMIT,
            journal_dir: None,
            crash: None,
            stats: Arc::new(StatsInner::default()),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Persists every session's committed-call journal under `dir`
    /// (builder style; one checksummed append-only file per session). A
    /// server re-bound with the same directory rebuilds hidden state by
    /// replay, so sessions survive a full process restart.
    pub fn with_journal_dir(mut self, dir: impl Into<PathBuf>) -> SessionServer {
        self.journal_dir = Some(dir.into());
        self
    }

    /// Caps the in-memory journal ring per session (builder style; min 1).
    /// A session whose ring overflowed can no longer be rebuilt after an
    /// executor crash and is poisoned instead of silently diverging.
    pub fn with_journal_limit(mut self, ops: usize) -> SessionServer {
        self.journal_limit = ops.max(1);
        self
    }

    /// Enables executor-side crash injection (builder style): seeded
    /// schedules of shard kills and mid-fragment panics, for drills and
    /// the chaos-recovery CI matrix.
    pub fn with_crash(mut self, crash: CrashConfig) -> SessionServer {
        self.crash = Some(crash);
        self
    }

    /// Enables or disables pure-fragment memoization (builder style;
    /// defaults to on unless `HPS_FRAGMENT_MEMO=0`). Either mode serves
    /// byte-identical responses with identical metering; with memo on,
    /// each shard keeps one content-addressed table shared across its
    /// sessions.
    pub fn with_fragment_memo(mut self, enabled: bool) -> SessionServer {
        self.fragment_memo = enabled;
        self
    }

    /// Enables server-side chaos (builder style).
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> SessionServer {
        self.chaos = Some(chaos);
        self
    }

    /// Sets the shard-executor count (builder style; min 1). Sessions are
    /// routed by `session_id % shards`, so any count yields the same
    /// per-session behaviour — more shards only adds parallelism across
    /// sessions.
    pub fn with_shards(mut self, shards: usize) -> SessionServer {
        self.shards = shards.max(1);
        self
    }

    /// Sets the per-session replay-window capacity (builder style; min 1).
    /// Each session retains at most this many cached response frames;
    /// older entries are evicted (counted in
    /// [`ServerStats::replay_evictions`]).
    pub fn with_replay_capacity(mut self, capacity: usize) -> SessionServer {
        self.replay_capacity = capacity.max(1);
        self
    }

    /// Sets the per-shard request-queue bound (builder style; min 1). A
    /// full queue blocks the enqueueing connection threads — back-pressure
    /// on exactly the sessions of the busy shard.
    pub fn with_queue_capacity(mut self, capacity: usize) -> SessionServer {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] if the socket is gone.
    pub fn local_addr(&self) -> Result<SocketAddr, RuntimeError> {
        self.listener
            .local_addr()
            .map_err(|e| RuntimeError::transport("local_addr", &e))
    }

    /// A handle for stopping the server and reading its stats.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] if the socket is gone.
    pub fn handle(&self) -> Result<SessionServerHandle, RuntimeError> {
        Ok(SessionServerHandle {
            addr: self.local_addr()?,
            stats: Arc::clone(&self.stats),
            stop: Arc::clone(&self.stop),
        })
    }

    /// Runs the accept loop until [`SessionServerHandle::stop`] is called.
    /// Each connection is served on its own thread; per-connection
    /// transport errors are contained to that thread (reported via
    /// `on_event`, may be a no-op).
    ///
    /// On stop the shutdown is graceful and ordered: the accept loop exits
    /// first, then every live connection thread is joined (their in-flight
    /// requests still reach the shards), and only then is the shard pool
    /// drained — so no connection ever observes a dead executor during a
    /// clean shutdown.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Transport`] only for terminal accept
    /// failures; retryable accept errors (e.g. fd exhaustion) are reported
    /// and the loop continues.
    pub fn serve(
        self,
        on_event: impl Fn(SocketAddr, &str) + Send + Sync + 'static,
    ) -> Result<(), RuntimeError> {
        let on_event = Arc::new(on_event);
        let pool = ShardPool::spawn(
            ShardConfig {
                shards: self.shards,
                queue_capacity: self.queue_capacity,
                replay_capacity: self.replay_capacity,
                fragment_memo: self.fragment_memo,
                journal_limit: self.journal_limit,
                journal_dir: self.journal_dir.clone(),
                crash: self.crash,
            },
            &self.hidden,
            &self.stats,
        );
        // Poll the listener so stop() needs no nudge connection: WouldBlock
        // means "check the stop flag, nap briefly, try again".
        self.listener
            .set_nonblocking(true)
            .map_err(|e| RuntimeError::transport("set_nonblocking", &e))?;
        let mut conns: Vec<(TcpStream, std::thread::JoinHandle<()>)> = Vec::new();
        let mut conn_index = 0u64;
        let result = loop {
            if self.stop.load(Ordering::SeqCst) {
                break Ok(());
            }
            let (stream, peer) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    conns.retain(|(_, c)| !c.is_finished());
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                Err(e) => {
                    let err = RuntimeError::transport("accept", &e);
                    if err.is_retryable() {
                        on_event(
                            "0.0.0.0:0".parse().expect("static addr"),
                            &format!("accept retry: {err}"),
                        );
                        continue;
                    }
                    break Err(err);
                }
            };
            // Accepted sockets do not inherit the listener's non-blocking
            // mode portably; force blocking I/O for the connection thread.
            if let Err(e) = stream.set_nonblocking(false) {
                on_event(peer, &format!("set_blocking: {e}"));
                continue;
            }
            conn_index += 1;
            self.stats.connections.fetch_add(1, Ordering::Relaxed);
            let stats = Arc::clone(&self.stats);
            let exec = pool.senders();
            let chaos = self
                .chaos
                .map(|c| (c, StdRng::seed_from_u64(c.seed ^ conn_index)));
            let on_event = Arc::clone(&on_event);
            let watch = match stream.try_clone() {
                Ok(w) => w,
                Err(e) => {
                    on_event(peer, &format!("clone stream: {e}"));
                    continue;
                }
            };
            conns.push((
                watch,
                std::thread::spawn(move || {
                    match serve_session_connection(stream, &exec, chaos, &stats) {
                        Ok(served) => on_event(peer, &format!("served {served} calls")),
                        Err(e) => on_event(peer, &e.with_peer(peer).to_string()),
                    }
                }),
            ));
        };
        // Graceful drain, in order. First close the *read* half of every
        // live connection: a thread idle in read_frame sees EOF and exits
        // at a frame boundary, while a thread mid-request still executes
        // it, writes the response over the intact write half, and exits on
        // its next read. Then join those threads (they hold shard
        // senders), and only then drain the pool — so no in-flight request
        // ever finds its executor gone.
        for (watch, _) in &conns {
            let _ = watch.shutdown(std::net::Shutdown::Read);
        }
        for (_, c) in conns {
            let _ = c.join();
        }
        pool.drain();
        result
    }
}

/// Chaos verdict for one frame.
enum ChaosAction {
    None,
    KillBeforeExec,
    KillAfterExec,
}

fn chaos_draw(chaos: &mut Option<(ChaosConfig, StdRng)>) -> ChaosAction {
    match chaos {
        Some((cfg, rng)) if cfg.kill_per_mille > 0 => {
            if rng.gen_range(0u32..1000) < cfg.kill_per_mille {
                if rng.gen_range(0u32..2) == 0 {
                    ChaosAction::KillBeforeExec
                } else {
                    ChaosAction::KillAfterExec
                }
            } else {
                ChaosAction::None
            }
        }
        _ => ChaosAction::None,
    }
}

/// How long a connection thread keeps re-driving a request whose executor
/// died mid-flight before giving up on the supervisor.
const EXEC_RETRY_WAIT: Duration = Duration::from_secs(10);

/// Forwards one sequenced unit to the owning shard and waits for the
/// encoded response frame. If the executor dies mid-flight (the reply
/// sender is dropped without an answer), the unit is re-sent to the
/// supervisor's replacement executor: the respawned shard rebuilds the
/// session from its journal, so the re-drive either executes the unit
/// fresh or answers it from the rebuilt replay cache — exactly-once either
/// way, and invisible to the client.
fn exec_round_trip(
    exec: &ShardSenders,
    session: u64,
    seq: u64,
    calls: Arc<Vec<PendingCall>>,
    batch: bool,
) -> Result<Vec<u8>, RuntimeError> {
    let deadline = Instant::now() + EXEC_RETRY_WAIT;
    loop {
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        exec.send(
            session,
            ExecMsg::Seq {
                session,
                seq,
                calls: Arc::clone(&calls),
                batch,
                reply: reply_tx,
            },
        )
        .map_err(|_| RuntimeError::Channel("executor is gone".into()))?;
        match reply_rx.recv() {
            Ok(bytes) => return Ok(bytes),
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return Err(RuntimeError::Channel("executor dropped a request".into())),
        }
    }
}

/// Forwards a `Hello` to the owning shard, re-driving across executor
/// respawns like [`exec_round_trip`]. Returns the session's next expected
/// sequence number.
fn exec_hello(exec: &ShardSenders, session: u64) -> Result<u64, RuntimeError> {
    let deadline = Instant::now() + EXEC_RETRY_WAIT;
    loop {
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        exec.send(
            session,
            ExecMsg::Hello {
                session,
                reply: reply_tx,
            },
        )
        .map_err(|_| RuntimeError::Channel("executor is gone".into()))?;
        match reply_rx.recv() {
            Ok(next_seq) => return Ok(next_seq),
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return Err(RuntimeError::Channel("executor dropped a request".into())),
        }
    }
}

/// Answers a frame the session protocol does not accept with an error
/// frame carrying `msg`; the caller then closes the connection with the
/// returned error.
fn reject(writer: &mut BufWriter<&TcpStream>, scratch: &mut Vec<u8>, msg: String) -> RuntimeError {
    Response::Error(msg.clone()).encode_into(scratch);
    match write_frame(writer, scratch) {
        Ok(()) => RuntimeError::Channel(msg),
        Err(e) => e,
    }
}

/// Serves one connection of a [`SessionServer`]: handshake, then sequenced
/// frames executed (or replayed) by the session's shard executor. A first
/// frame that is not a `Hello` — or any frame that does not decode — is
/// answered with `0x11 error` and the connection is closed.
fn serve_session_connection(
    stream: TcpStream,
    exec: &ShardSenders,
    mut chaos: Option<(ChaosConfig, StdRng)>,
    stats: &StatsInner,
) -> Result<u64, RuntimeError> {
    stream
        .set_nodelay(true)
        .map_err(|e| RuntimeError::transport("set_nodelay", &e))?;
    let mut reader = BufReader::new(&stream);
    let mut writer = BufWriter::new(&stream);
    let mut scratch = Vec::with_capacity(256);
    let mut served = 0u64;

    let Some(payload) = read_frame(&mut reader)? else {
        return Ok(0);
    };
    let session = match Request::decode(&payload) {
        Ok(Request::Hello { version, session }) if version == WIRE_VERSION => {
            let next_seq = exec_hello(exec, session)?;
            Response::HelloAck {
                version: WIRE_VERSION,
                session,
                next_seq,
            }
            .encode_into(&mut scratch);
            write_frame(&mut writer, &scratch)?;
            session
        }
        Ok(Request::Hello { version, .. }) => {
            return Err(reject(
                &mut writer,
                &mut scratch,
                format!("version mismatch: server speaks {WIRE_VERSION}, client sent {version}"),
            ));
        }
        Ok(_) => {
            return Err(reject(
                &mut writer,
                &mut scratch,
                "a connection must open with a session Hello".into(),
            ));
        }
        Err(e) => {
            return Err(reject(&mut writer, &mut scratch, e.to_string()));
        }
    };

    loop {
        let Some(payload) = read_frame(&mut reader)? else {
            return Ok(served);
        };
        let req = match Request::decode(&payload) {
            Ok(req) => req,
            Err(e) => {
                return Err(reject(&mut writer, &mut scratch, e.to_string()));
            }
        };
        let action = chaos_draw(&mut chaos);
        if matches!(action, ChaosAction::KillBeforeExec) {
            // Drop the connection before the request reaches the executor:
            // the client's retransmit finds a fresh sequence.
            stats.chaos_kills.fetch_add(1, Ordering::Relaxed);
            return Ok(served);
        }
        let kill_after = matches!(action, ChaosAction::KillAfterExec);
        match req {
            Request::SeqCall { seq, call } => {
                let bytes = exec_round_trip(exec, session, seq, Arc::new(vec![call]), false)?;
                served += 1;
                if kill_after {
                    // Executed and cached, but the response never leaves:
                    // the retransmit must hit the replay cache.
                    stats.chaos_kills.fetch_add(1, Ordering::Relaxed);
                    return Ok(served);
                }
                write_frame(&mut writer, &bytes)?;
            }
            Request::SeqBatch { seq, calls } => {
                let n = calls.len() as u64;
                let bytes = exec_round_trip(exec, session, seq, Arc::new(calls), true)?;
                served += n;
                if kill_after {
                    stats.chaos_kills.fetch_add(1, Ordering::Relaxed);
                    return Ok(served);
                }
                write_frame(&mut writer, &bytes)?;
            }
            Request::Release { component, key } => {
                let _ = exec.send(
                    session,
                    ExecMsg::Release {
                        session,
                        component,
                        key,
                    },
                );
            }
            Request::Shutdown => return Ok(served),
            Request::Hello { .. } => {
                return Err(reject(
                    &mut writer,
                    &mut scratch,
                    "unexpected Hello on an open session".into(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_ir::{
        BinOp, Block, ComponentKind, Expr, Fragment, HiddenComponent, HiddenProgram, HiddenVar,
        LocalId, Place, Stmt, StmtKind, Ty,
    };
    use std::thread;

    fn accumulator_program() -> HiddenProgram {
        let mut hp = HiddenProgram::new();
        hp.add(HiddenComponent {
            id: ComponentId::new(0),
            kind: ComponentKind::Function {
                func_name: "f".into(),
            },
            vars: vec![HiddenVar {
                name: "acc".into(),
                ty: Ty::Int,
                init: None,
            }],
            fragments: vec![Fragment {
                label: FragLabel::new(0),
                params: vec![("p".into(), Ty::Int)],
                body: Block::of(vec![Stmt::new(StmtKind::Assign {
                    place: Place::Local(LocalId::new(0)),
                    value: Expr::binary(
                        BinOp::Add,
                        Expr::local(LocalId::new(0)),
                        Expr::local(LocalId::new(1)),
                    ),
                })]),
                ret: Some(Expr::local(LocalId::new(0))),
            }],
        });
        hp
    }

    fn quick_policy() -> RetryPolicy {
        RetryPolicy::new()
            .with_base_backoff(Duration::from_millis(1))
            .with_timeout(Duration::from_secs(5))
            .with_max_attempts(8)
            .with_jitter_seed(42)
    }

    /// A one-shard session server for [`accumulator_program`], serving on
    /// a background thread.
    fn serve_accumulator() -> (
        SessionServerHandle,
        thread::JoinHandle<Result<(), RuntimeError>>,
    ) {
        let server = SessionServer::bind("127.0.0.1:0", accumulator_program()).expect("bind");
        let handle = server.handle().expect("handle");
        (handle, thread::spawn(move || server.serve(|_, _| {})))
    }

    fn stop(handle: &SessionServerHandle, serve: thread::JoinHandle<Result<(), RuntimeError>>) {
        handle.stop();
        serve.join().expect("serve thread").expect("serve ok");
    }

    #[test]
    fn loopback_round_trips() {
        let (handle, serve) = serve_accumulator();
        let mut chan = TcpChannel::connect(handle.addr()).expect("connect");
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let r1 = chan.call(c, 1, l, &[Value::Int(4)]).unwrap();
        assert_eq!(r1.value, Value::Int(4));
        let r2 = chan.call(c, 1, l, &[Value::Int(6)]).unwrap();
        assert_eq!(r2.value, Value::Int(10));
        assert!(r2.server_cost > 0);
        // Fresh key -> fresh state.
        let r3 = chan.call(c, 9, l, &[Value::Int(1)]).unwrap();
        assert_eq!(r3.value, Value::Int(1));
        // Release, then the same key restarts at zero.
        chan.release(c, 1).unwrap();
        let r4 = chan.call(c, 1, l, &[Value::Int(2)]).unwrap();
        assert_eq!(r4.value, Value::Int(2));
        assert_eq!(chan.interactions(), 4);
        chan.shutdown().unwrap();
        stop(&handle, serve);
        assert_eq!(handle.stats().calls, 4);
    }

    #[test]
    fn loopback_batch_is_one_interaction() {
        let (handle, serve) = serve_accumulator();
        let mut chan = TcpChannel::connect(handle.addr()).expect("connect");
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let calls: Vec<PendingCall> = [2, 3, 5]
            .into_iter()
            .map(|n| PendingCall {
                component: c,
                key: 1,
                label: l,
                args: vec![Value::Int(n)],
            })
            .collect();
        let replies = chan.call_batch(&calls).unwrap();
        // The accumulator sees each logical call in order.
        let values: Vec<Value> = replies.iter().map(|r| r.value).collect();
        assert_eq!(values, [Value::Int(2), Value::Int(5), Value::Int(10)]);
        // ... but the transport made a single round trip.
        assert_eq!(chan.interactions(), 1);
        chan.shutdown().unwrap();
        stop(&handle, serve);
        assert_eq!(
            handle.stats().calls,
            3,
            "every logical call is served and counted"
        );
    }

    #[test]
    fn remote_errors_are_reported() {
        let (handle, serve) = serve_accumulator();
        let mut chan = TcpChannel::connect(handle.addr()).expect("connect");
        let err = chan
            .call(ComponentId::new(7), 0, FragLabel::new(0), &[])
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Channel(msg) if msg.contains("remote:")));
        chan.shutdown().unwrap();
        stop(&handle, serve);
    }

    #[test]
    fn batch_chunking_at_the_cap_boundary() {
        // The satellite case: exactly cap and cap+1 buffered calls. A small
        // injected cap keeps it fast; the default cap is the wire maximum.
        let (handle, serve) = serve_accumulator();
        let addr = handle.addr();
        let mut chan = TcpChannel::connect(addr)
            .expect("connect")
            .with_batch_cap(3);
        assert_eq!(
            TcpChannel::connect(addr).expect("connect").batch_cap,
            usize::from(u16::MAX),
            "default cap is the wire-format maximum 65535"
        );
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let mk = |n: i64| PendingCall {
            component: c,
            key: 1,
            label: l,
            args: vec![Value::Int(n)],
        };
        // Exactly at the cap: one frame.
        let replies = chan.call_batch(&[mk(1), mk(2), mk(3)]).unwrap();
        assert_eq!(replies.len(), 3);
        assert_eq!(chan.interactions(), 1);
        // One past the cap: two frames, replies still in order and the
        // accumulator state carries across the chunk boundary.
        let replies = chan.call_batch(&[mk(1), mk(1), mk(1), mk(1)]).unwrap();
        let values: Vec<Value> = replies.iter().map(|r| r.value).collect();
        assert_eq!(
            values,
            [Value::Int(7), Value::Int(8), Value::Int(9), Value::Int(10)]
        );
        assert_eq!(chan.interactions(), 3, "cap+1 calls cost two interactions");
        chan.shutdown().unwrap();
        stop(&handle, serve);
    }

    #[test]
    fn session_server_serves_many_clients() {
        let server = SessionServer::bind("127.0.0.1:0", accumulator_program()).expect("bind");
        let handle = server.handle().expect("handle");
        let addr = handle.addr();
        let serve = thread::spawn(move || server.serve(|_, _| {}));
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let workers: Vec<_> = (0..4)
            .map(|w| {
                thread::spawn(move || {
                    let mut chan =
                        TcpChannel::connect_reliable(addr, quick_policy().with_jitter_seed(w))
                            .expect("connect");
                    // Each client accumulates privately in its own session.
                    for n in 1..=5i64 {
                        let r = chan.call(c, 1, l, &[Value::Int(n)]).expect("call");
                        assert_eq!(r.value, Value::Int(n * (n + 1) / 2));
                    }
                    chan.shutdown().expect("shutdown");
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
        let stats = handle.stats();
        assert_eq!(stats.calls, 20);
        assert_eq!(stats.sessions, 4);
        assert!(stats.connections >= 4);
        handle.stop();
        serve.join().expect("serve thread").expect("serve ok");
    }

    #[test]
    fn sharded_server_matches_single_shard_behaviour() {
        // Same workload as session_server_serves_many_clients, but spread
        // over four shard executors: per-session results are identical and
        // the shard counters account for every call and session.
        let server = SessionServer::bind("127.0.0.1:0", accumulator_program())
            .expect("bind")
            .with_shards(4);
        let handle = server.handle().expect("handle");
        let addr = handle.addr();
        let serve = thread::spawn(move || server.serve(|_, _| {}));
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let workers: Vec<_> = (0..8)
            .map(|w| {
                thread::spawn(move || {
                    let mut chan =
                        TcpChannel::connect_reliable(addr, quick_policy().with_jitter_seed(w))
                            .expect("connect");
                    for n in 1..=5i64 {
                        let r = chan.call(c, 1, l, &[Value::Int(n)]).expect("call");
                        assert_eq!(r.value, Value::Int(n * (n + 1) / 2));
                    }
                    chan.shutdown().expect("shutdown");
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
        let stats = handle.stats();
        assert_eq!(stats.calls, 40);
        assert_eq!(stats.sessions, 8);
        let shards = handle.shard_stats();
        assert_eq!(shards.len(), 4);
        assert_eq!(shards.iter().map(|s| s.calls).sum::<u64>(), 40);
        assert_eq!(shards.iter().map(|s| s.fragments).sum::<u64>(), 40);
        assert!(shards.iter().map(|s| s.cost_units).sum::<u64>() > 0);
        assert_eq!(shards.iter().map(|s| s.sessions).sum::<u64>(), 8);
        // Every enqueue (8 Hellos + 40 sequenced calls) was observed into
        // the queue-depth histogram, and the full snapshot carries it.
        assert_eq!(handle.queue_depth().count(), 48);
        let m = handle.metrics();
        assert_eq!(m.counter(names::SERVER_CALLS), 40);
        assert_eq!(
            m.histogram(names::SERVER_SHARD_QUEUE_DEPTH)
                .expect("histogram in snapshot")
                .count(),
            48
        );
        handle.stop();
        serve.join().expect("serve thread").expect("serve ok");
    }

    #[test]
    fn stop_drains_in_flight_requests() {
        // Regression: a clean stop() must let a request already accepted by
        // a shard finish and deliver its response — no connection may
        // observe "executor is gone" mid-call during shutdown.
        let server = SessionServer::bind("127.0.0.1:0", accumulator_program()).expect("bind");
        let handle = server.handle().expect("handle");
        let addr = handle.addr();
        let serve = thread::spawn(move || server.serve(|_, _| {}));
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let (pause_tx, pause_rx) = std::sync::mpsc::channel();
        let pauser = handle.clone();
        let worker = thread::spawn(move || {
            let calls: Vec<PendingCall> = (0..50_000)
                .map(|_| PendingCall {
                    component: c,
                    key: 1,
                    label: l,
                    args: vec![Value::Int(1)],
                })
                .collect();
            let mut chan = TcpChannel::connect_reliable(addr, quick_policy()).expect("connect");
            chan.call(c, 1, l, &[Value::Int(1)]).expect("warm-up call");
            // Hold the shard before sending the batch frame, which then
            // waits in the shard queue; the main thread stops the server
            // with the batch queued and releases the shard afterwards.
            let pause = pauser.pause_shard(0).expect("pause the shard");
            pause_tx.send(pause).expect("hand over the pause");
            let replies = chan
                .call_batch(&calls)
                .expect("in-flight batch survives a clean stop");
            replies.len()
        });
        let pause = pause_rx.recv().expect("worker paused the shard");
        // Three enqueues reach the shard: the Hello, the warm-up call and
        // the batch frame. Once the third is counted, the batch is queued.
        while handle.queue_depth().count() < 3 {
            thread::yield_now();
        }
        handle.stop();
        drop(pause);
        serve.join().expect("serve thread").expect("serve ok");
        assert_eq!(worker.join().expect("worker"), 50_000);
        assert_eq!(handle.stats().calls, 50_001);
    }

    #[test]
    fn bounded_replay_window_evicts_and_counts() {
        let server = SessionServer::bind("127.0.0.1:0", accumulator_program())
            .expect("bind")
            .with_shards(2)
            .with_replay_capacity(2);
        let handle = server.handle().expect("handle");
        let addr = handle.addr();
        let serve = thread::spawn(move || server.serve(|_, _| {}));
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let mut chan = TcpChannel::connect_reliable(addr, quick_policy()).expect("connect");
        for n in 1..=5i64 {
            chan.call(c, 1, l, &[Value::Int(n)]).expect("call");
        }
        chan.shutdown().expect("shutdown");
        handle.stop();
        serve.join().expect("serve thread").expect("serve ok");
        let stats = handle.stats();
        assert_eq!(stats.calls, 5);
        // Window of 2: storing responses 1..=5 evicts 1, 2 and 3.
        assert_eq!(stats.replay_evictions, 3);
        assert_eq!(handle.metrics().counter(names::SERVER_REPLAY_EVICTIONS), 3);
    }

    #[test]
    fn session_survives_reconnect_with_state() {
        let server = SessionServer::bind("127.0.0.1:0", accumulator_program()).expect("bind");
        let handle = server.handle().expect("handle");
        let addr = handle.addr();
        let serve = thread::spawn(move || server.serve(|_, _| {}));
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let mut chan = TcpChannel::connect_reliable(addr, quick_policy()).expect("connect");
        assert_eq!(
            chan.call(c, 1, l, &[Value::Int(5)]).unwrap().value,
            Value::Int(5)
        );
        // Simulate a dropped link: kill the socket under the channel.
        chan.reconnect().expect("reconnect");
        assert_eq!(
            chan.call(c, 1, l, &[Value::Int(6)]).unwrap().value,
            Value::Int(11),
            "hidden state survives the reconnect"
        );
        chan.shutdown().unwrap();
        handle.stop();
        serve.join().expect("serve thread").expect("serve ok");
    }

    #[test]
    fn chaos_kills_are_survived_exactly_once() {
        // Aggressive server-side chaos: connections die around every ~4th
        // frame, both before and after execution. The reliable client must
        // still see every accumulator value exactly once.
        let server = SessionServer::bind("127.0.0.1:0", accumulator_program())
            .expect("bind")
            .with_chaos(ChaosConfig {
                seed: 0xc405,
                kill_per_mille: 250,
            });
        let handle = server.handle().expect("handle");
        let addr = handle.addr();
        let serve = thread::spawn(move || server.serve(|_, _| {}));
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let mut chan = TcpChannel::connect_reliable(addr, quick_policy().with_max_attempts(12))
            .expect("connect");
        for n in 1..=30i64 {
            let r = chan.call(c, 1, l, &[Value::Int(n)]).expect("call");
            assert_eq!(r.value, Value::Int(n * (n + 1) / 2), "call {n}");
        }
        let stats = handle.stats();
        assert_eq!(stats.calls, 30, "every logical call executed exactly once");
        assert!(stats.chaos_kills > 0, "chaos must actually fire");
        assert!(chan.transport_stats().reconnects > 0);
        assert_eq!(chan.interactions(), 30);
        chan.shutdown().unwrap();
        handle.stop();
        serve.join().expect("serve thread").expect("serve ok");
    }

    #[test]
    fn sequence_gap_is_terminal() {
        let server = SessionServer::bind("127.0.0.1:0", accumulator_program()).expect("bind");
        let handle = server.handle().expect("handle");
        let addr = handle.addr();
        let serve = thread::spawn(move || server.serve(|_, _| {}));
        let mut chan = TcpChannel::connect_reliable(addr, quick_policy()).expect("connect");
        // Corrupt the client's sequence counter to skip ahead.
        chan.next_seq = 40;
        let err = chan
            .call(ComponentId::new(0), 1, FragLabel::new(0), &[Value::Int(1)])
            .expect_err("gap must be rejected");
        assert!(
            matches!(&err, RuntimeError::SequenceGap { got: 40, .. }),
            "got {err:?}"
        );
        assert!(!err.is_retryable());
        handle.stop();
        serve.join().expect("serve thread").expect("serve ok");
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let server = SessionServer::bind("127.0.0.1:0", accumulator_program()).expect("bind");
        let handle = server.handle().expect("handle");
        let addr = handle.addr();
        let serve = thread::spawn(move || server.serve(|_, _| {}));
        // Hand-roll a bad Hello.
        let stream = TcpStream::connect(addr).expect("connect");
        let (mut reader, mut writer) = split_stream(stream).expect("split");
        let mut buf = Vec::new();
        Request::Hello {
            version: WIRE_VERSION + 1,
            session: 1,
        }
        .encode_into(&mut buf);
        write_frame(&mut writer, &buf).expect("write");
        let payload = read_frame(&mut reader).expect("read").expect("frame");
        let resp = Response::decode(&payload).expect("decode");
        assert!(
            matches!(&resp, Response::Error(msg) if msg.contains("version mismatch")),
            "got {resp:?}"
        );
        handle.stop();
        serve.join().expect("serve thread").expect("serve ok");
    }

    #[test]
    fn unsequenced_frames_are_rejected() {
        // Raw frames with the tags of the retired unsequenced protocol:
        // 0x01 call and 0x04 batch, each carrying the call body
        // component 0, key 1, label 0, args [Int(3)].
        let mut body = Vec::new();
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&1u16.to_le_bytes());
        body.push(0x00);
        body.extend_from_slice(&3i64.to_le_bytes());
        let call = [&[0x01][..], &body].concat();
        let batch = [&[0x04, 1, 0][..], &body].concat();
        let (handle, serve) = serve_accumulator();
        for frame in [call, batch] {
            let stream = TcpStream::connect(handle.addr()).expect("connect");
            let (mut reader, mut writer) = split_stream(stream).expect("split");
            write_frame(&mut writer, &frame).expect("write");
            let payload = read_frame(&mut reader).expect("read").expect("frame");
            let resp = Response::decode(&payload).expect("decode");
            assert!(matches!(resp, Response::Error(_)), "got {resp:?}");
            assert_eq!(
                read_frame(&mut reader).expect("clean close"),
                None,
                "the server closes the connection"
            );
        }
        // The server is unharmed and serves the next session client.
        let mut chan = TcpChannel::connect(handle.addr()).expect("connect");
        let r = chan
            .call(ComponentId::new(0), 1, FragLabel::new(0), &[Value::Int(3)])
            .expect("call");
        assert_eq!(r.value, Value::Int(3));
        chan.shutdown().unwrap();
        stop(&handle, serve);
        assert_eq!(handle.stats().calls, 1, "rejected frames execute nothing");
        assert_eq!(handle.stats().sessions, 1);
    }

    #[test]
    fn retries_are_not_logical_interactions() {
        // Chaos forces retransmits; the interaction count and the trace
        // (per-logical-call) must match a fault-free run.
        let server = SessionServer::bind("127.0.0.1:0", accumulator_program())
            .expect("bind")
            .with_chaos(ChaosConfig {
                seed: 7,
                kill_per_mille: 300,
            });
        let handle = server.handle().expect("handle");
        let addr = handle.addr();
        let serve = thread::spawn(move || server.serve(|_, _| {}));
        let mut chan = TcpChannel::connect_reliable(addr, quick_policy().with_max_attempts(12))
            .expect("connect");
        let c = ComponentId::new(0);
        let l = FragLabel::new(0);
        let mut trace = crate::trace::TraceChannel::new(&mut chan);
        for n in 1..=10i64 {
            crate::channel::Channel::call(&mut trace, c, 1, l, &[Value::Int(n)]).expect("call");
        }
        let events = trace.into_trace().events;
        assert_eq!(events.len(), 10, "one trace event per logical call");
        let stats = chan.transport_stats();
        assert!(
            stats.retries > 0 || handle.stats().chaos_kills == 0,
            "kills force retries"
        );
        assert_eq!(chan.interactions(), 10);
        chan.shutdown().unwrap();
        handle.stop();
        serve.join().expect("serve thread").expect("serve ok");
    }
}
