//! The batched sharded authoritative server.
//!
//! Layout per worker shard: one thread owns a cloned handle of the shared
//! UDP socket (the std-only stand-in for an SO_REUSEPORT socket set — the
//! kernel delivers each datagram to exactly one blocked receiver), a
//! [`PacketArena`] of receive/send slots allocated once at spawn, and a
//! [`crate::mmsg::BatchIo`] implementation: `recvmmsg`/`sendmmsg` on
//! supported Linux targets, a one-packet portable fallback elsewhere (or
//! when `batch = 1`). The loop is: receive up to `batch` datagrams in one
//! syscall, load the compiled table pointer once, answer every packet in
//! place — the templated fast path patches pre-encoded bytes straight
//! into the send slot; anything unusual falls back to the full
//! decode/encode path — flush the batch's counters, and send every
//! response in one syscall. Steady state performs **no allocation and no
//! lock acquisition per packet**. A single **TCP acceptor** thread serves
//! the RFC 1035 fallback path for clients that saw TC=1.
//!
//! Backpressure is the kernel's: there is no userspace ingress queue, so
//! overload manifests as socket-buffer drops (the client retries), which
//! bounds memory without copying packets around. The **overload valve**
//! watches for sustained full batches — `batch` consecutive datagrams per
//! recv call means the socket never drains — and, past the watermark,
//! answers with the anycast VIP at a short TTL without consulting the
//! policy. Degrading to anycast is always safe (the paper's central
//! observation) and sheds the table-lookup cost exactly when the shard
//! is drowning.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use anycast_dns::{LdnsId, QueryContext, RedirectionPolicy};
use anycast_geo::GeoPoint;
use anycast_netsim::Day;
use anycast_obs::live::{
    BatchEvent, FlightRecorder, RecorderConfig, ShardRecorder, TraceRecord, TRACE_OVERLOAD,
    TRACE_TEMPLATE_HIT, TRACE_UNKNOWN_LDNS, TRACE_VALVE,
};
use anycast_obs::{counter, histogram};

use crate::message::{decode_query, encode_chaos_txt, encode_response, CHAOS_METRICS_QNAME};
use crate::mmsg::{batch_io, PacketArena, MAX_BATCH};
use crate::store::TableStore;
use crate::template::{response_len, write_response, AnswerRr, QueryView};
use crate::wire::{Flags, Header, CLASSIC_UDP_LIMIT, CLASS_CHAOS, CLASS_IN, TYPE_A, TYPE_TXT};

/// UDP payload size the server advertises in its OPT records.
pub const SERVER_UDP_PAYLOAD: u16 = 1232;

/// RCODE: format error.
pub const RCODE_FORMERR: u8 = 1;
/// RCODE: refused.
pub const RCODE_REFUSED: u8 = 5;

/// Maximum TCP message size (16-bit length prefix).
const TCP_MAX_MESSAGE: usize = 65535;
/// Receive buffer per datagram; larger than any advertised payload.
const RECV_BUF: usize = 4096;
/// How often blocked receivers re-check the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Number of worker shards (one thread + arena + socket clone each).
    pub workers: usize,
    /// Datagrams moved per `recvmmsg`/`sendmmsg` syscall (1 selects the
    /// portable one-packet path; clamped to [`MAX_BATCH`]).
    pub batch: usize,
    /// Sustained-backlog threshold, in packets, at or above which the
    /// overload valve answers the anycast VIP without consulting the
    /// policy. A shard estimates its backlog as `batch` × the number of
    /// consecutive completely-full batches it has received; 0 valves
    /// every query (useful in tests).
    pub overload_watermark: usize,
    /// TTL of valve (degraded) answers — short, so clients re-ask once
    /// the shard recovers.
    pub valve_ttl_s: u32,
    /// Simulation day stamped into [`QueryContext`]s.
    pub day: Day,
    /// The anycast VIP used by the valve and for unknown-resolver queries.
    pub anycast_vip: Ipv4Addr,
    /// Server-side cap on UDP response size regardless of what the client
    /// advertises (BIND's `max-udp-size`; operators clamp it to dodge
    /// fragmentation). Oversized answers come back truncated and the
    /// client retries over TCP. `None` honors the client's advertisement.
    pub udp_response_cap: Option<usize>,
    /// Whether the flight recorder samples query traces on the hot path.
    /// Disabling reduces every recorder hook to one predictable branch;
    /// answers are byte-identical either way (the recorder only observes).
    pub recorder: bool,
}

impl ServeConfig {
    /// Sensible defaults for loopback serving: 2 workers, batches of 32,
    /// valve at 256, 30 s degraded TTL.
    pub fn new(anycast_vip: Ipv4Addr) -> ServeConfig {
        ServeConfig {
            workers: 2,
            batch: 32,
            overload_watermark: 256,
            valve_ttl_s: 30,
            day: Day(0),
            anycast_vip,
            udp_response_cap: None,
            recorder: true,
        }
    }
}

/// Maps a query's source address to the LDNS identity the simulator knows
/// it as. The serving-plane analogue of the CDN knowing "which LDNS
/// forwarded the request" (§2).
#[derive(Debug, Clone, Default)]
pub struct LdnsDirectory {
    by_ip: HashMap<Ipv4Addr, (LdnsId, GeoPoint)>,
}

impl LdnsDirectory {
    /// An empty directory (every query becomes an unknown-resolver VIP
    /// answer).
    pub fn new() -> LdnsDirectory {
        LdnsDirectory::default()
    }

    /// Registers a resolver's source address and believed location.
    pub fn insert(&mut self, addr: Ipv4Addr, ldns: LdnsId, location: GeoPoint) {
        self.by_ip.insert(addr, (ldns, location));
    }

    /// Looks up a source address.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<(LdnsId, GeoPoint)> {
        self.by_ip.get(&addr).copied()
    }

    /// Number of registered resolvers.
    pub fn len(&self) -> usize {
        self.by_ip.len()
    }

    /// Whether no resolvers are registered.
    pub fn is_empty(&self) -> bool {
        self.by_ip.is_empty()
    }
}

/// Monotonic serving counters, shared across workers.
///
/// Plain atomics (readable in tests without obs plumbing); increments are
/// mirrored to the obs registry under `serve_*` counter names. The hot
/// path accumulates into a per-batch `BatchCounts` and flushes once per
/// batch, so per-packet cost is a couple of local integer bumps.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Queries received over UDP.
    pub udp_queries: AtomicU64,
    /// Queries received over TCP (truncation fallback).
    pub tcp_queries: AtomicU64,
    /// TCP fallback connections accepted.
    pub tcp_fallbacks: AtomicU64,
    /// Packets that failed to decode.
    pub decode_errors: AtomicU64,
    /// Queries answered by the overload valve.
    pub degraded: AtomicU64,
    /// Responses truncated to fit the client's UDP payload limit.
    pub truncated: AtomicU64,
    /// Queries from source addresses not in the [`LdnsDirectory`].
    pub unknown_ldns: AtomicU64,
    /// UDP answers produced by the zero-alloc templated fast path.
    pub template_hits: AtomicU64,
    /// Decodable UDP queries that needed the full encoder.
    pub template_misses: AtomicU64,
    /// Per answered-address tallies — how many A answers named each
    /// front-end address (the anycast VIP included). This is the control
    /// plane's live offered-load feed: the plain map is authoritative
    /// (deterministic, independent of whether obs recording is enabled),
    /// and each increment is mirrored to the labeled obs counter
    /// `serve_answers_total{addr=...}`. Counts depend only on which
    /// queries were answered, so they are worker-count invariant.
    answered: Mutex<HashMap<Ipv4Addr, (u64, Arc<anycast_obs::Counter>)>>,
}

impl ServeStats {
    /// Merges a batch of per-address tallies under one lock acquisition.
    fn note_answered_bulk(&self, tallies: &[(Ipv4Addr, u64)]) {
        if tallies.is_empty() {
            return;
        }
        let mut map = self.answered.lock().unwrap_or_else(|p| p.into_inner());
        for &(addr, n) in tallies {
            let (count, obs) = map.entry(addr).or_insert_with(|| {
                let label = addr.to_string();
                (
                    0,
                    anycast_obs::global().counter_with("serve_answers_total", &[("addr", &label)]),
                )
            });
            *count += n;
            obs.add(n);
        }
    }

    /// Snapshot of the per-address answered-query tallies, sorted by
    /// address (deterministic iteration for feeds and tests).
    pub fn answered_by_addr(&self) -> Vec<(Ipv4Addr, u64)> {
        let map = self.answered.lock().unwrap_or_else(|p| p.into_inner());
        let mut out: Vec<(Ipv4Addr, u64)> = map.iter().map(|(a, (c, _))| (*a, *c)).collect();
        out.sort_unstable_by_key(|&(a, _)| a);
        out
    }
}

/// Counter deltas for one batch (or one TCP query), accumulated locally
/// and flushed to [`ServeStats`] + obs in one step. Flushing *before* the
/// batch's responses are sent keeps the invariant that a client observing
/// its answer also observes the matching tallies.
#[derive(Debug, Default)]
struct BatchCounts {
    udp: u64,
    tcp: u64,
    decode_errors: u64,
    degraded: u64,
    truncated: u64,
    unknown_ldns: u64,
    template_hits: u64,
    template_misses: u64,
    /// Per-address answer tallies; batches touch a handful of addresses,
    /// so a linear-scanned vec beats a map.
    answered: Vec<(Ipv4Addr, u64)>,
}

impl BatchCounts {
    fn tally(&mut self, addr: Ipv4Addr) {
        for (a, n) in self.answered.iter_mut() {
            if *a == addr {
                *n += 1;
                return;
            }
        }
        self.answered.push((addr, 1));
    }

    fn flush(&mut self, stats: &ServeStats) {
        if self.udp > 0 {
            stats.udp_queries.fetch_add(self.udp, Ordering::Relaxed);
            counter!("serve_udp_queries_total").add(self.udp);
        }
        if self.tcp > 0 {
            stats.tcp_queries.fetch_add(self.tcp, Ordering::Relaxed);
            counter!("serve_tcp_queries_total").add(self.tcp);
        }
        if self.decode_errors > 0 {
            stats
                .decode_errors
                .fetch_add(self.decode_errors, Ordering::Relaxed);
            counter!("serve_decode_errors_total").add(self.decode_errors);
        }
        if self.degraded > 0 {
            stats.degraded.fetch_add(self.degraded, Ordering::Relaxed);
            counter!("serve_degraded_answers_total").add(self.degraded);
        }
        if self.truncated > 0 {
            stats.truncated.fetch_add(self.truncated, Ordering::Relaxed);
            counter!("serve_truncated_responses_total").add(self.truncated);
        }
        if self.unknown_ldns > 0 {
            stats
                .unknown_ldns
                .fetch_add(self.unknown_ldns, Ordering::Relaxed);
            counter!("serve_unknown_ldns_total").add(self.unknown_ldns);
        }
        if self.template_hits > 0 {
            stats
                .template_hits
                .fetch_add(self.template_hits, Ordering::Relaxed);
            counter!("serve_template_hit").add(self.template_hits);
        }
        if self.template_misses > 0 {
            stats
                .template_misses
                .fetch_add(self.template_misses, Ordering::Relaxed);
            counter!("serve_template_miss").add(self.template_misses);
        }
        stats.note_answered_bulk(&self.answered);
        self.answered.clear();
        self.udp = 0;
        self.tcp = 0;
        self.decode_errors = 0;
        self.degraded = 0;
        self.truncated = 0;
        self.unknown_ldns = 0;
        self.template_hits = 0;
        self.template_misses = 0;
    }
}

/// A running server; dropping it stops all threads.
pub struct DnsServer {
    addr: SocketAddr,
    stats: Arc<ServeStats>,
    stop: Arc<AtomicBool>,
    workers: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
    recorder: Arc<FlightRecorder>,
}

impl std::fmt::Debug for DnsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DnsServer")
            .field("addr", &self.addr)
            .field("workers", &self.workers)
            .finish()
    }
}

impl DnsServer {
    /// Binds UDP + TCP on an ephemeral loopback port and spawns the
    /// worker set around an arbitrary policy. Every decodable query runs
    /// the full decode → policy → encode path (no templates: a generic
    /// policy's answers cannot be pre-encoded).
    pub fn spawn<P>(
        cfg: ServeConfig,
        policy: P,
        directory: LdnsDirectory,
    ) -> std::io::Result<DnsServer>
    where
        P: RedirectionPolicy + Send + Sync + 'static,
    {
        DnsServer::spawn_inner(cfg, Arc::new(policy), None, directory)
    }

    /// Binds and spawns around a [`TableStore`], enabling the zero-alloc
    /// templated fast path: each batch loads the current
    /// [`crate::store::CompiledTable`] once and patches its pre-encoded
    /// answers straight into the send slots. Non-templatable queries
    /// still take the full path against the same table, so the wire
    /// bytes are identical either way.
    pub fn spawn_tables(
        cfg: ServeConfig,
        store: Arc<TableStore>,
        directory: LdnsDirectory,
    ) -> std::io::Result<DnsServer> {
        DnsServer::spawn_inner(cfg, store.clone(), Some(store), directory)
    }

    fn spawn_inner<P>(
        cfg: ServeConfig,
        policy: Arc<P>,
        tables: Option<Arc<TableStore>>,
        directory: LdnsDirectory,
    ) -> std::io::Result<DnsServer>
    where
        P: RedirectionPolicy + Send + Sync + 'static,
    {
        let (udp, tcp) = bind_pair()?;
        let addr = udp.local_addr()?;
        udp.set_read_timeout(Some(POLL_INTERVAL))?;
        tcp.set_nonblocking(true)?;

        let directory = Arc::new(directory);
        let stats = Arc::new(ServeStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();

        // One socket clone per worker; a clone failure degrades to a
        // single listener on the primary socket (observable, never fatal).
        let workers = cfg.workers.max(1);
        let mut socks = vec![udp];
        for _ in 1..workers {
            match socks[0].try_clone() {
                Ok(c) => socks.push(c),
                Err(_) => {
                    socks.truncate(1);
                    counter!("serve_single_listener_fallbacks_total").inc();
                    break;
                }
            }
        }
        let spawned = socks.len();
        let recorder = Arc::new(FlightRecorder::new(
            spawned,
            RecorderConfig {
                enabled: cfg.recorder,
                ..RecorderConfig::default()
            },
        ));
        for (worker, sock) in socks.into_iter().enumerate() {
            handles.push(spawn_worker(
                sock,
                cfg,
                policy.clone(),
                tables.clone(),
                directory.clone(),
                stats.clone(),
                stop.clone(),
                recorder.shard(worker),
                format!("serve-wk-{worker}"),
            ));
        }

        handles.push(spawn_tcp_acceptor(
            tcp,
            cfg,
            policy,
            directory,
            stats.clone(),
            stop.clone(),
        ));

        // The drain side of the flight recorder: folds ring contents into
        // registry metrics off the hot path, at the poll cadence. The
        // final fold happens in `stop()` after every worker has exited,
        // so post-stop totals include the last batches.
        if recorder.enabled() {
            let rec = recorder.clone();
            let stop_flag = stop.clone();
            handles.push(
                std::thread::Builder::new()
                    .name("serve-obs".to_string())
                    .spawn(move || {
                        while !stop_flag.load(Ordering::Relaxed) {
                            rec.drain();
                            std::thread::sleep(POLL_INTERVAL);
                        }
                    })
                    .expect("spawn recorder drain thread"),
            );
        }

        Ok(DnsServer {
            addr,
            stats,
            stop,
            workers: spawned,
            handles,
            recorder,
        })
    }

    /// The bound loopback address (UDP and TCP share the port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The hot-path flight recorder (disabled when
    /// [`ServeConfig::recorder`] is false).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Stops all threads and waits for them to exit. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // Workers are gone: fold whatever the periodic drain missed.
        self.recorder.drain();
    }
}

impl Drop for DnsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds a UDP socket and a TCP listener on the *same* ephemeral loopback
/// port, retrying with fresh ports if the TCP side of a chosen port is
/// already taken.
fn bind_pair() -> std::io::Result<(UdpSocket, TcpListener)> {
    let mut last_err = None;
    for _ in 0..16 {
        let udp = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
        let port = udp.local_addr()?.port();
        match TcpListener::bind((Ipv4Addr::LOCALHOST, port)) {
            Ok(tcp) => return Ok((udp, tcp)),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| std::io::Error::other("could not pair UDP/TCP ports")))
}

/// One worker shard: arena + batch I/O + the per-batch answer loop.
#[allow(clippy::too_many_arguments)]
fn spawn_worker<P>(
    sock: UdpSocket,
    cfg: ServeConfig,
    policy: Arc<P>,
    tables: Option<Arc<TableStore>>,
    directory: Arc<LdnsDirectory>,
    stats: Arc<ServeStats>,
    stop: Arc<AtomicBool>,
    rec: Arc<ShardRecorder>,
    name: String,
) -> std::thread::JoinHandle<()>
where
    P: RedirectionPolicy + Send + Sync + 'static,
{
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            let batch = cfg.batch.clamp(1, MAX_BATCH);
            let mut io = batch_io(batch);
            let mut arena = PacketArena::new(batch, RECV_BUF);
            let valve = AnswerRr::new(cfg.anycast_vip, cfg.valve_ttl_s);
            let mut counts = BatchCounts::default();
            // Consecutive completely-full batches: the overload signal.
            // A full batch means the socket had more queued than one
            // syscall drained; a streak of them means the shard is not
            // keeping up. `batch == 1` carries no backlog information
            // (every busy recv is "full"), so the streak stays 0 there
            // and only `overload_watermark == 0` valves.
            let mut full_streak: usize = 0;
            while !stop.load(Ordering::Relaxed) {
                let n = match io.recv_batch(&sock, &mut arena) {
                    Ok(n) => n,
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock
                                | std::io::ErrorKind::TimedOut
                                | std::io::ErrorKind::Interrupted
                        ) =>
                    {
                        full_streak = 0;
                        continue;
                    }
                    Err(_) => break,
                };
                histogram!("serve_batch_size").observe(n as f64);
                if batch > 1 && n == batch {
                    full_streak += 1;
                } else {
                    full_streak = 0;
                }
                let overloaded = full_streak.saturating_mul(batch) >= cfg.overload_watermark;
                rec.record_batch(BatchEvent {
                    fill: n as u16,
                    overloaded,
                });
                // One atomic load of the hot-swapped table per batch.
                let table = tables.as_ref().map(|t| t.load());
                for i in 0..n {
                    if arena.packet(i).is_empty() {
                        arena.set_response_len(i, 0);
                        continue;
                    }
                    let src = arena.peer(i);
                    let len = serve_packet(
                        &cfg,
                        &*policy,
                        table.as_deref(),
                        &directory,
                        &valve,
                        &mut counts,
                        i,
                        &mut arena,
                        src,
                        overloaded,
                        &rec,
                    );
                    arena.set_response_len(i, len);
                }
                // Flush tallies before the responses hit the wire, so a
                // client that sees its answer also sees the counts.
                counts.flush(&stats);
                let _ = io.send_batch(&sock, &mut arena, n);
            }
        })
        .expect("spawn worker thread")
}

/// Answers the packet in arena slot `i`, returning the response length
/// written into the matching send slot (0 = no response).
#[allow(clippy::too_many_arguments)]
fn serve_packet<P>(
    cfg: &ServeConfig,
    policy: &P,
    table: Option<&crate::store::CompiledTable>,
    directory: &LdnsDirectory,
    valve: &AnswerRr,
    counts: &mut BatchCounts,
    i: usize,
    arena: &mut PacketArena,
    src: SocketAddr,
    overloaded: bool,
    rec: &ShardRecorder,
) -> usize
where
    P: RedirectionPolicy + ?Sized,
{
    counts.udp += 1;
    let (data, out, _) = arena.io_slot(i);
    // Arrival: the deterministic sampling decision (a txid-independent
    // hash over the packet bytes — the same packet is sampled under any
    // worker count). One branch when the recorder is off.
    let sampled = rec.sample(data);
    let txid = if data.len() >= 2 {
        u16::from_be_bytes([data[0], data[1]])
    } else {
        0
    };
    // The zero-alloc fast path: a templatable query against a compiled
    // table whose response provably fits. Any gate failing falls through
    // to the full decode/encode path, the behavioral reference.
    if let Some(table) = table {
        if let Some(view) = QueryView::parse(data) {
            let advertised = view
                .udp_payload()
                .map(|p| usize::from(p).max(CLASSIC_UDP_LIMIT))
                .unwrap_or(CLASSIC_UDP_LIMIT);
            let max_payload = match cfg.udp_response_cap {
                Some(cap) => advertised.min(cap),
                None => advertised,
            };
            let len = response_len(&view);
            // All gates checked before any count mutation, so the slow
            // path never double-counts a query the fast path rejected.
            if len <= max_payload && len <= out.len() {
                let mut flags = TRACE_TEMPLATE_HIT;
                if overloaded {
                    flags |= TRACE_OVERLOAD;
                }
                let (rr, scope) = if overloaded {
                    counts.degraded += 1;
                    flags |= TRACE_VALVE;
                    (valve, 0)
                } else {
                    match directory.lookup(source_ip(src)) {
                        Some((ldns, _)) => {
                            let ecs = view.edns.and_then(|e| e.ecs).and_then(|e| e.to_option());
                            table.answer_rr(ldns, ecs.as_ref())
                        }
                        None => {
                            counts.unknown_ldns += 1;
                            flags |= TRACE_VALVE | TRACE_UNKNOWN_LDNS;
                            (valve, 0)
                        }
                    }
                };
                counts.template_hits += 1;
                counts.tally(rr.addr());
                let written = write_response(out, &view, rr, scope);
                if sampled {
                    // Send: the completed trace — lookup depth is the
                    // matched ECS prefix length the answer advertises.
                    rec.record(TraceRecord {
                        txid,
                        depth: scope,
                        flags,
                        resp_len: written as u16,
                    });
                }
                return written;
            }
        }
    }
    let resp = respond(
        cfg,
        policy,
        directory,
        counts,
        data,
        src,
        Transport::Udp { overloaded },
    );
    // Re-borrow the slot: `respond` needed `data` immutably while the
    // response Vec was built.
    let (_, out, _) = arena.io_slot(i);
    let written = match resp {
        Some(resp) if resp.len() <= out.len() => {
            out[..resp.len()].copy_from_slice(&resp);
            resp.len()
        }
        _ => 0,
    };
    if sampled {
        rec.record(TraceRecord {
            txid,
            depth: 0,
            flags: if overloaded { TRACE_OVERLOAD } else { 0 },
            resp_len: written as u16,
        });
    }
    written
}

fn source_ip(src: SocketAddr) -> Ipv4Addr {
    match src.ip() {
        std::net::IpAddr::V4(v4) => v4,
        std::net::IpAddr::V6(_) => Ipv4Addr::UNSPECIFIED,
    }
}

fn spawn_tcp_acceptor<P>(
    listener: TcpListener,
    cfg: ServeConfig,
    policy: Arc<P>,
    directory: Arc<LdnsDirectory>,
    stats: Arc<ServeStats>,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()>
where
    P: RedirectionPolicy + Send + Sync + 'static,
{
    std::thread::Builder::new()
        .name("serve-tcp".to_string())
        .spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, src)) => {
                        stats.tcp_fallbacks.fetch_add(1, Ordering::Relaxed);
                        counter!("tcp_fallback_total").inc();
                        let _ = serve_tcp_conn(stream, src, &cfg, &*policy, &directory, &stats);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        })
        .expect("spawn tcp acceptor thread")
}

/// Serves queries on one TCP connection (RFC 1035 §4.2.2 framing) until
/// the peer closes or times out. The query scratch and the length-prefixed
/// response frame are per-connection buffers reused across messages.
fn serve_tcp_conn<P>(
    mut stream: TcpStream,
    src: SocketAddr,
    cfg: &ServeConfig,
    policy: &P,
    directory: &LdnsDirectory,
    stats: &ServeStats,
) -> std::io::Result<()>
where
    P: RedirectionPolicy + ?Sized,
{
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut data: Vec<u8> = Vec::new();
    let mut frame: Vec<u8> = Vec::new();
    let mut counts = BatchCounts::default();
    loop {
        let mut len_buf = [0u8; 2];
        if stream.read_exact(&mut len_buf).is_err() {
            return Ok(()); // peer closed or timed out
        }
        let len = usize::from(u16::from_be_bytes(len_buf));
        data.resize(len, 0);
        stream.read_exact(&mut data)?;
        counts.tcp += 1;
        let resp = respond(
            cfg,
            policy,
            directory,
            &mut counts,
            &data,
            src,
            Transport::Tcp,
        );
        counts.flush(stats);
        if let Some(resp) = resp {
            debug_assert!(resp.len() <= TCP_MAX_MESSAGE);
            // One write_all of [len | message]: a single segment on the
            // wire instead of two, and no fresh buffer per message.
            frame.clear();
            frame.extend_from_slice(&(resp.len() as u16).to_be_bytes());
            frame.extend_from_slice(&resp);
            stream.write_all(&frame)?;
        }
    }
}

/// How a query arrived — decides the response-size rule and whether the
/// overload valve can apply.
#[derive(Debug, Clone, Copy)]
enum Transport {
    /// UDP: payload limited by the EDNS advertisement (and
    /// `udp_response_cap`); the valve engages when the shard is drowning.
    Udp {
        /// The worker observed a sustained backlog past the watermark.
        overloaded: bool,
    },
    /// TCP: up to the 16-bit frame limit; never valved (the connection
    /// already survived the socket).
    Tcp,
}

/// Decodes one query and produces the response bytes, if any. The full
/// (allocating) path: behavioral reference for FORMERR, REFUSED,
/// truncation, and every non-templatable shape.
fn respond<P>(
    cfg: &ServeConfig,
    policy: &P,
    directory: &LdnsDirectory,
    counts: &mut BatchCounts,
    data: &[u8],
    src: SocketAddr,
    transport: Transport,
) -> Option<Vec<u8>>
where
    P: RedirectionPolicy + ?Sized,
{
    let q = match decode_query(data) {
        Ok(q) => q,
        Err(_) => {
            counts.decode_errors += 1;
            return formerr_response(data);
        }
    };
    if matches!(transport, Transport::Udp { .. }) {
        counts.template_misses += 1;
    }
    let overloaded = matches!(transport, Transport::Udp { overloaded: true });
    let max_payload = match transport {
        Transport::Tcp => TCP_MAX_MESSAGE,
        Transport::Udp { .. } => {
            let advertised = q
                .edns
                .map(|e| usize::from(e.udp_payload).max(CLASSIC_UDP_LIMIT))
                .unwrap_or(CLASSIC_UDP_LIMIT);
            match cfg.udp_response_cap {
                Some(cap) => advertised.min(cap),
                None => advertised,
            }
        }
    };
    if q.qclass == CLASS_CHAOS {
        // The in-band scrape endpoint: `TXT metrics.bind CH` answers a
        // Prometheus-text snapshot of the metrics registry over the same
        // wire path queries take — no side listener. Oversized snapshots
        // come back TC=1 over UDP, steering the scraper onto the TCP
        // fallback; any other CHAOS question is refused like any other
        // class we don't serve.
        if q.qtype == TYPE_TXT && q.qname.as_str() == CHAOS_METRICS_QNAME {
            counter!("serve_chaos_scrapes_total").inc();
            let text = anycast_obs::global().snapshot().to_prometheus();
            return Some(encode_chaos_txt(
                &q,
                &text,
                max_payload,
                matches!(transport, Transport::Tcp),
            ));
        }
        return Some(encode_response(&q, None, RCODE_REFUSED, max_payload));
    }
    if q.qclass != CLASS_IN {
        return Some(encode_response(&q, None, RCODE_REFUSED, max_payload));
    }
    if q.qtype != TYPE_A {
        return Some(encode_response(&q, None, 0, max_payload));
    }
    let answer = if overloaded {
        counts.degraded += 1;
        anycast_dns::DnsAnswer::global(cfg.anycast_vip, cfg.valve_ttl_s)
    } else {
        match directory.lookup(source_ip(src)) {
            Some((ldns, ldns_location)) => {
                let ecs = q.edns.and_then(|e| e.ecs).and_then(|e| e.to_option());
                let ctx = QueryContext {
                    qname: &q.qname,
                    ldns,
                    ldns_location,
                    ecs,
                    day: cfg.day,
                    time_s: 0.0,
                };
                policy.answer(&ctx)
            }
            None => {
                counts.unknown_ldns += 1;
                anycast_dns::DnsAnswer::global(cfg.anycast_vip, cfg.valve_ttl_s)
            }
        }
    };
    counts.tally(answer.addr);
    let resp = encode_response(&q, Some(&answer), 0, max_payload);
    if resp.len() >= crate::wire::HEADER_LEN && resp[2] & 0x02 != 0 {
        // TC bit set in the encoded header.
        counts.truncated += 1;
    }
    Some(resp)
}

/// A question-less FORMERR response, if the packet at least carries an id.
fn formerr_response(data: &[u8]) -> Option<Vec<u8>> {
    if data.len() < 2 {
        return None;
    }
    let header = Header {
        id: u16::from_be_bytes([data[0], data[1]]),
        flags: Flags {
            qr: true,
            rcode: RCODE_FORMERR,
            ..Flags::default()
        },
        ..Header::default()
    };
    let mut out = Vec::with_capacity(crate::wire::HEADER_LEN);
    header.encode(&mut out);
    Some(out)
}
