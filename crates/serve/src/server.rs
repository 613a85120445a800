//! The batched sharded authoritative server.
//!
//! Layout per worker shard: one thread owns a cloned handle of the shared
//! UDP socket (the std-only stand-in for an SO_REUSEPORT socket set — the
//! kernel delivers each datagram to exactly one blocked receiver), a
//! [`PacketArena`] of receive/send slots allocated once at spawn, and a
//! [`crate::mmsg::BatchIo`] implementation: `recvmmsg`/`sendmmsg` on
//! supported Linux targets, a one-packet portable fallback elsewhere (or
//! when `batch = 1`). The loop is: receive up to `batch` datagrams in one
//! syscall, load the compiled table **once**, answer every packet of the
//! batch in place from that one generation — the templated fast path
//! patches pre-encoded bytes straight into the send slot; anything unusual
//! falls back to the full decode/encode path against the *same* table —
//! flush the batch's counters, and send every response in one syscall.
//! Steady state performs **no allocation and no lock acquisition per
//! packet**. A single **TCP acceptor** thread serves the RFC 1035 fallback
//! path for clients that saw TC=1, loading the table once per message.
//!
//! What the server serves is a table and nothing else: whichever encoder
//! a query's shape selects, its `(answer, scope)` comes from the one
//! decision function (`ServeCtx::decide`: valve → unknown resolver → table
//! lookup) over the `CompiledTable` its batch loaded, so a batch never mixes
//! generations and a shard's generation never goes backwards inside one.
//!
//! Backpressure is the kernel's: there is no userspace ingress queue, so
//! overload manifests as socket-buffer drops (the client retries), which
//! bounds memory without copying packets around. The **overload valve**
//! watches for sustained full batches — `batch` consecutive datagrams per
//! recv call means the socket never drains — and, past the watermark,
//! answers with the anycast VIP at a short TTL without consulting the
//! table. Degrading to anycast is always safe (the paper's central
//! observation) and sheds the table-lookup cost exactly when the shard
//! is drowning.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use anycast_dns::LdnsId;
use anycast_geo::GeoPoint;
use anycast_obs::{counter, histogram, HistogramSnapshot};

use crate::message::{decode_echo, encode_reply, Body, Echo, Edns, CHAOS_METRICS_QNAME};
use crate::mmsg::{batch_io, BatchIo, PacketArena, MAX_BATCH};
use crate::store::{CompiledTable, TableStore};
use crate::template::{response_len, write_response, AnswerRr, QueryView};
use crate::wire::{CLASSIC_UDP_LIMIT, CLASS_CHAOS, CLASS_IN, HEADER_LEN, TYPE_A, TYPE_TXT};

/// UDP payload size the server advertises in its OPT records.
pub const SERVER_UDP_PAYLOAD: u16 = 1232;

/// The most bytes a UDP reply can exceed its query by: one A record whose
/// owner is a pointer to the question. The rest of a reply copies the
/// query's header and question, its OPT is no longer than the query's,
/// and a scrape is cut to the query's length, so a spoofed source gets
/// back at most this much more than it sent. `reply_conformance.rs`
/// asserts it over its whole query domain.
pub const MAX_UDP_REPLY_GROWTH: usize = 16;

/// RCODE: format error.
pub const RCODE_FORMERR: u8 = 1;
/// RCODE: not implemented — the answer to every opcode but QUERY.
pub const RCODE_NOTIMP: u8 = 4;
/// RCODE: refused.
pub const RCODE_REFUSED: u8 = 5;

/// Maximum TCP message size (16-bit length prefix).
const TCP_MAX_MESSAGE: usize = 65535;
/// Most TCP connections served at once, each on its own thread; one
/// accepted beyond them is closed unanswered.
const TCP_MAX_CONNS: usize = 16;
/// Most of those one source address may hold (RFC 7766 §6.2 lets a server
/// manage its TCP resources): one accepted beyond them is closed too, so
/// no single source can take the whole plane.
const TCP_MAX_CONNS_PER_SOURCE: usize = 4;
/// How long one TCP message may take to arrive, its length prefix
/// included, and one reply write may block. A peer idle or trickling past
/// it is disconnected; until then it holds only its own thread.
const TCP_IO_TIMEOUT: Duration = Duration::from_millis(500);
/// Bytes per arena slot, receive and send alike: the largest datagram a
/// worker reads and the largest UDP reply it sends.
const SLOT_BYTES: usize = 4096;
/// How often blocked receivers re-check the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// TTL of valve (degraded) answers, seconds — short, so clients re-ask
/// once the shard recovers.
pub const VALVE_TTL_S: u32 = 30;

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
    /// table. A shard estimates its backlog as `batch` × the number of
    /// consecutive completely-full batches it has received; 0 valves
    /// every query (useful in tests).
    pub overload_watermark: usize,
    /// The anycast VIP used by the valve and for unknown-resolver queries.
    pub anycast_vip: Ipv4Addr,
    /// Server-side cap on UDP response size regardless of what the client
    /// advertises (BIND's `max-udp-size`; operators clamp it to dodge
    /// fragmentation). Oversized answers come back truncated and the
    /// client retries over TCP. `None` honors the client's advertisement
    /// up to the 4,096-byte send slot, which bounds any cap as well.
    pub udp_response_cap: Option<usize>,
    /// Whether workers tally the answer-scope and response-size
    /// histograms and the overloaded-batch count
    /// (`serve_answer_scope`, `serve_response_bytes`,
    /// `serve_overload_batches_total`). Off, none of the three is
    /// recorded; answers are byte-identical either way.
    pub recorder: bool,
}

impl ServeConfig {
    /// Sensible defaults for loopback serving: 2 workers, batches of 32,
    /// valve at 256.
    pub fn new(anycast_vip: Ipv4Addr) -> ServeConfig {
        ServeConfig {
            workers: 2,
            batch: 32,
            overload_watermark: 256,
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
    /// TCP connections closed unanswered at accept: the plane was full, or
    /// their source held its share of it already (mirrored to
    /// `serve_tcp_refused_total`).
    pub tcp_refused: AtomicU64,
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
    /// Unexpected socket errors on a worker's batch receive or send
    /// (mirrored to `serve_io_errors_total{op="recv"|"send"}`). The
    /// worker stays up through either.
    pub io_errors: AtomicU64,
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
    /// Counts one unexpected socket error; `op` is `"recv"` or `"send"`.
    fn note_io_error(&self, op: &str) {
        self.io_errors.fetch_add(1, Ordering::Relaxed);
        anycast_obs::global()
            .counter_with("serve_io_errors_total", &[("op", op)])
            .inc();
    }

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

/// Counter and histogram deltas for one batch (or one TCP query),
/// accumulated locally and flushed to [`ServeStats`] + obs in one step.
/// Flushing *before* the batch's responses are sent keeps the invariant
/// that a client observing its answer also observes the matching tallies.
#[derive(Debug, Default)]
struct BatchCounts {
    /// [`ServeConfig::recorder`]: whether the scope, response-size and
    /// overloaded-batch tallies below are kept.
    recorder: bool,
    /// Datagrams in the batch (`serve_batch_size`); `None` for TCP.
    fill: Option<usize>,
    /// Batches received with the valve engaged.
    overload_batches: u64,
    /// ECS scope of each answer decision.
    scopes: HistogramSnapshot,
    /// Length of each response sent.
    response_bytes: HistogramSnapshot,
    udp_queries: u64,
    tcp_queries: u64,
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
    fn new(recorder: bool) -> BatchCounts {
        BatchCounts {
            recorder,
            ..BatchCounts::default()
        }
    }

    /// One received batch of `n` datagrams.
    fn batch(&mut self, n: usize, overloaded: bool) {
        self.fill = Some(n);
        self.overload_batches += u64::from(self.recorder && overloaded);
    }

    /// One answer decision: `addr` answered at ECS scope `scope`.
    fn answer(&mut self, addr: Ipv4Addr, scope: u8) {
        if self.recorder {
            self.scopes.observe(f64::from(scope));
        }
        match self.answered.iter_mut().find(|(a, _)| *a == addr) {
            Some((_, n)) => *n += 1,
            None => self.answered.push((addr, 1)),
        }
    }

    /// One response of `len` bytes sent.
    fn response(&mut self, len: usize) {
        if self.recorder {
            self.response_bytes.observe(len as f64);
        }
    }

    fn flush(&mut self, stats: &ServeStats) {
        if let Some(n) = self.fill.take() {
            histogram!("serve_batch_size").observe(n as f64);
        }
        if self.overload_batches > 0 {
            counter!("serve_overload_batches_total").add(self.overload_batches);
        }
        if self.recorder {
            histogram!("serve_answer_scope").merge(&self.scopes);
            histogram!("serve_response_bytes").merge(&self.response_bytes);
            self.scopes.clear();
            self.response_bytes.clear();
        }
        // Each tally goes to its `ServeStats` atomic and its obs counter,
        // then back to zero; a zero tally registers nothing.
        macro_rules! flush {
            ($($field:ident => $name:literal,)*) => {$(
                let n = std::mem::take(&mut self.$field);
                if n > 0 {
                    stats.$field.fetch_add(n, Ordering::Relaxed);
                    counter!($name).add(n);
                }
            )*};
        }
        flush! {
            udp_queries => "serve_udp_queries_total",
            tcp_queries => "serve_tcp_queries_total",
            decode_errors => "serve_decode_errors_total",
            degraded => "serve_degraded_answers_total",
            truncated => "serve_truncated_responses_total",
            unknown_ldns => "serve_unknown_ldns_total",
            template_hits => "serve_template_hits_total",
            template_misses => "serve_template_misses_total",
        }
        stats.note_answered_bulk(&self.answered);
        self.answered.clear();
        self.overload_batches = 0;
    }
}

/// Everything the serving threads share, built once at spawn and held
/// behind one `Arc`.
#[derive(Debug)]
struct ServeCtx {
    cfg: ServeConfig,
    tables: Arc<TableStore>,
    directory: LdnsDirectory,
    /// The baked degraded answer (anycast VIP at the valve TTL) the valve
    /// and unknown-resolver branches share.
    valve: AnswerRr,
    stats: ServeStats,
    stop: AtomicBool,
}

impl ServeCtx {
    fn new(cfg: ServeConfig, tables: Arc<TableStore>, directory: LdnsDirectory) -> ServeCtx {
        ServeCtx {
            cfg,
            tables,
            directory,
            valve: AnswerRr::new(cfg.anycast_vip, VALVE_TTL_S),
            stats: ServeStats::default(),
            stop: AtomicBool::new(false),
        }
    }

    /// The UDP response-size rule: the client's EDNS advertisement (never
    /// below the classic 512, which is also the no-EDNS limit), clamped by
    /// the operator's `udp_response_cap` and by the send slot. A reply
    /// over the limit comes back TC=1, so every UDP reply fits its slot.
    fn udp_payload_limit(&self, advertised: Option<u16>) -> usize {
        let advertised =
            advertised.map_or(CLASSIC_UDP_LIMIT, |p| usize::from(p).max(CLASSIC_UDP_LIMIT));
        let cap = self
            .cfg
            .udp_response_cap
            .map_or(SLOT_BYTES, |cap| cap.min(SLOT_BYTES));
        advertised.min(cap)
    }

    /// The one answer decision: overload valve → unknown resolver → table
    /// lookup. Returns the baked answer and the ECS scope to advertise;
    /// counts the branch and tallies the answer. The templated fast path, the
    /// full-encoder slow path and TCP all answer through here, against the
    /// table their batch (or message) loaded.
    #[inline]
    fn decide<'a>(
        &'a self,
        table: &'a CompiledTable,
        src: SocketAddr,
        edns: Option<Edns>,
        overloaded: bool,
        counts: &mut BatchCounts,
    ) -> (&'a AnswerRr, u8) {
        let (rr, scope) = if overloaded {
            counts.degraded += 1;
            (&self.valve, 0)
        } else {
            match self.directory.lookup(source_ip(src)) {
                Some((ldns, _)) => {
                    let ecs = edns.and_then(|e| e.ecs).and_then(|e| e.to_option());
                    table.answer_rr(ldns, ecs.as_ref())
                }
                None => {
                    counts.unknown_ldns += 1;
                    (&self.valve, 0)
                }
            }
        };
        counts.answer(rr.addr(), scope);
        (rr, scope)
    }
}

/// A running server; dropping it stops all threads.
pub struct DnsServer {
    addr: SocketAddr,
    ctx: Arc<ServeCtx>,
    workers: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
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
    /// Binds UDP + TCP on an ephemeral loopback port and spawns the worker
    /// set around a [`TableStore`]. Each batch loads the current
    /// [`CompiledTable`] once: templatable queries get its pre-encoded
    /// answers patched straight into the send slots, everything else takes
    /// the full decode/encode path against the same table, so the wire
    /// bytes are identical either way and no batch mixes generations. Keep
    /// a second `Arc` handle to the store to swap tables while the server
    /// runs.
    pub fn spawn_tables(
        cfg: ServeConfig,
        store: Arc<TableStore>,
        directory: LdnsDirectory,
    ) -> std::io::Result<DnsServer> {
        let (udp, tcp) = bind_pair()?;
        let addr = udp.local_addr()?;
        udp.set_read_timeout(Some(POLL_INTERVAL))?;
        tcp.set_nonblocking(true)?;

        let ctx = Arc::new(ServeCtx::new(cfg, store, directory));
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
        for (worker, sock) in socks.into_iter().enumerate() {
            handles.push(spawn_worker(
                ctx.clone(),
                sock,
                format!("serve-wk-{worker}"),
            ));
        }

        handles.push(spawn_tcp_acceptor(ctx.clone(), tcp));

        Ok(DnsServer {
            addr,
            ctx,
            workers: spawned,
            handles,
        })
    }

    /// The bound loopback address (UDP and TCP share the port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &ServeStats {
        &self.ctx.stats
    }

    /// Stops all threads and waits for them to exit. Idempotent.
    pub fn stop(&mut self) {
        self.ctx.stop.store(true, Ordering::SeqCst);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
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

/// One worker shard: a thread running [`worker_loop`] over its socket
/// clone and the platform's best [`BatchIo`].
fn spawn_worker(ctx: Arc<ServeCtx>, sock: UdpSocket, name: String) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            let mut io = batch_io(ctx.cfg.batch);
            worker_loop(&ctx, &sock, &mut *io);
        })
        .expect("spawn worker thread")
}

/// The shard loop: receive a batch, answer it from one table generation,
/// flush its counters, send it — until the stop flag is raised. Socket
/// errors other than a quiet-socket timeout are counted and survived.
fn worker_loop(ctx: &ServeCtx, sock: &UdpSocket, io: &mut dyn BatchIo) {
    let batch = ctx.cfg.batch.clamp(1, MAX_BATCH);
    let mut arena = PacketArena::new(batch, SLOT_BYTES);
    let mut counts = BatchCounts::new(ctx.cfg.recorder);
    // Consecutive completely-full batches: the overload signal. A full
    // batch means the socket had more queued than one syscall drained; a
    // streak of them means the shard is not keeping up. `batch == 1`
    // carries no backlog information (every busy recv is "full"), so the
    // streak stays 0 there and only `overload_watermark == 0` valves.
    let mut full_streak: usize = 0;
    while !ctx.stop.load(Ordering::Relaxed) {
        let n = match io.recv_batch(sock, &mut arena) {
            Ok(n) => n,
            Err(e) => {
                full_streak = 0;
                if !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) {
                    // Not a quiet socket: count it and back off one poll
                    // interval, so a persistent failure neither kills the
                    // shard silently nor spins it.
                    ctx.stats.note_io_error("recv");
                    std::thread::sleep(POLL_INTERVAL);
                }
                continue;
            }
        };
        if batch > 1 && n == batch {
            full_streak += 1;
        } else {
            full_streak = 0;
        }
        let overloaded = full_streak.saturating_mul(batch) >= ctx.cfg.overload_watermark;
        counts.batch(n, overloaded);
        // One load of the hot-swapped table per batch: every packet below
        // is answered from this generation.
        let table = ctx.tables.load();
        answer_batch(ctx, &table, &mut arena, n, overloaded, &mut counts);
        // Flush tallies before the responses hit the wire, so a client
        // that sees its answer also sees the counts.
        counts.flush(&ctx.stats);
        if io.send_batch(sock, &mut arena, n).is_err() {
            ctx.stats.note_io_error("send");
        }
    }
}

/// Answers arena slots `0..n` in place from one table generation: each
/// received packet's response lands in the matching send slot (length 0 =
/// no response). Socket-free, so a batch can be answered in a unit test.
fn answer_batch(
    ctx: &ServeCtx,
    table: &CompiledTable,
    arena: &mut PacketArena,
    n: usize,
    overloaded: bool,
    counts: &mut BatchCounts,
) {
    for i in 0..n {
        let len = serve_packet(ctx, table, arena, i, overloaded, counts);
        arena.set_response_len(i, len);
    }
}

/// Answers the packet in arena slot `i`, returning the response length
/// written into the matching send slot (0 = no response).
fn serve_packet(
    ctx: &ServeCtx,
    table: &CompiledTable,
    arena: &mut PacketArena,
    i: usize,
    overloaded: bool,
    counts: &mut BatchCounts,
) -> usize {
    counts.udp_queries += 1;
    let (data, out, src) = arena.io_slot(i);
    // The zero-alloc fast path: a templatable query whose response fits
    // the UDP limit. Any gate failing falls through to the full
    // decode/encode path, the behavioral reference.
    let fast = QueryView::parse(data)
        .filter(|view| response_len(view) <= ctx.udp_payload_limit(view.udp_payload()));
    // All gates are checked before any count mutation, so the slow path
    // never double-counts a query the fast path rejected.
    let written = match fast {
        Some(view) => {
            let (rr, scope) = ctx.decide(table, src, view.edns, overloaded, counts);
            counts.template_hits += 1;
            write_response(out, &view, rr, scope)
        }
        None => match respond(ctx, table, counts, data, src, Transport::Udp { overloaded }) {
            // The UDP limit never exceeds the send slot, and a reply over
            // the limit shrinks to header and question: every reply fits.
            Some(resp) => {
                out[..resp.len()].copy_from_slice(&resp);
                resp.len()
            }
            None => 0,
        },
    };
    if written > 0 {
        counts.response(written);
    }
    written
}

fn source_ip(src: SocketAddr) -> Ipv4Addr {
    match src.ip() {
        std::net::IpAddr::V4(v4) => v4,
        std::net::IpAddr::V6(_) => Ipv4Addr::UNSPECIFIED,
    }
}

/// Accepts TCP connections and serves each on a thread of its own, at most
/// [`TCP_MAX_CONNS`] at once and [`TCP_MAX_CONNS_PER_SOURCE`] of them from
/// one address; the connection threads are joined before the acceptor's
/// own thread ends.
fn spawn_tcp_acceptor(ctx: Arc<ServeCtx>, listener: TcpListener) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("serve-tcp".to_string())
        .spawn(move || {
            // The source address of each connection being served.
            let (ctx, open) = (&*ctx, &Mutex::new(Vec::with_capacity(TCP_MAX_CONNS)));
            let close = |source| {
                let mut open = open.lock().unwrap_or_else(|p| p.into_inner());
                let at = open.iter().position(|&ip| ip == source);
                open.swap_remove(at.expect("an open connection's source"));
            };
            std::thread::scope(|scope| {
                while !ctx.stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, src)) => {
                            counter!("serve_tcp_fallbacks_total").inc();
                            let source = src.ip();
                            let mut held = open.lock().unwrap_or_else(|p| p.into_inner());
                            let from_source = held.iter().filter(|&&ip| ip == source).count();
                            if held.len() >= TCP_MAX_CONNS
                                || from_source >= TCP_MAX_CONNS_PER_SOURCE
                            {
                                ctx.stats.tcp_refused.fetch_add(1, Ordering::Relaxed);
                                counter!("serve_tcp_refused_total").inc();
                                continue; // dropping the stream closes it
                            }
                            held.push(source);
                            drop(held);
                            let spawned = std::thread::Builder::new()
                                .name("serve-tcp-conn".to_string())
                                .spawn_scoped(scope, move || {
                                    let _ = serve_tcp_conn(ctx, stream, src);
                                    close(source);
                                });
                            if spawned.is_err() {
                                close(source);
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            });
        })
        .expect("spawn tcp acceptor thread")
}

/// Fills `buf` from `stream`, or fails once `deadline` has passed.
fn read_by(stream: &mut TcpStream, buf: &mut [u8], deadline: Instant) -> std::io::Result<()> {
    let mut got = 0;
    while got < buf.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
        match stream.read(&mut buf[got..]) {
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Serves queries on one TCP connection (RFC 1035 §4.2.2 framing) until
/// the peer closes, the server stops, or a message or reply overruns
/// [`TCP_IO_TIMEOUT`]. The query scratch and the length-prefixed response
/// frame are per-connection buffers reused across messages; the table is
/// loaded once per message.
fn serve_tcp_conn(ctx: &ServeCtx, mut stream: TcpStream, src: SocketAddr) -> std::io::Result<()> {
    // Some platforms hand an accepted socket the listener's non-blocking
    // mode; the deadlines below need blocking reads.
    stream.set_nonblocking(false)?;
    stream.set_write_timeout(Some(TCP_IO_TIMEOUT))?;
    let mut data: Vec<u8> = Vec::new();
    let mut frame: Vec<u8> = Vec::new();
    let mut counts = BatchCounts::new(ctx.cfg.recorder);
    while !ctx.stop.load(Ordering::Relaxed) {
        let deadline = Instant::now() + TCP_IO_TIMEOUT;
        let mut len_buf = [0u8; 2];
        if read_by(&mut stream, &mut len_buf, deadline).is_err() {
            return Ok(()); // peer closed, idle or trickling
        }
        let len = usize::from(u16::from_be_bytes(len_buf));
        data.resize(len, 0);
        read_by(&mut stream, &mut data, deadline)?;
        counts.tcp_queries += 1;
        let table = ctx.tables.load();
        let resp = respond(ctx, &table, &mut counts, &data, src, Transport::Tcp);
        if let Some(resp) = &resp {
            counts.response(resp.len());
        }
        counts.flush(&ctx.stats);
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
    Ok(())
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

/// Decodes one packet and encodes its reply, if it draws one: the full
/// (allocating) path, for every packet the template declines. This is the
/// one decision of which body a packet gets; [`encode_reply`] lays it out
/// and applies the size rule.
fn respond(
    ctx: &ServeCtx,
    table: &CompiledTable,
    counts: &mut BatchCounts,
    data: &[u8],
    src: SocketAddr,
    transport: Transport,
) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(128);
    let (q, echo) = match decode_echo(data) {
        Ok(decoded) => decoded,
        Err(_) => {
            counts.decode_errors += 1;
            let echo = Echo::header_only(data)?;
            encode_reply(&mut out, &echo, Body::Rcode(RCODE_FORMERR), HEADER_LEN);
            return Some(out);
        }
    };
    let (mut max_payload, overloaded) = match transport {
        Transport::Tcp => (TCP_MAX_MESSAGE, false),
        Transport::Udp { overloaded } => {
            counts.template_misses += 1;
            let limit = ctx.udp_payload_limit(q.edns.map(|e| e.udp_payload));
            (limit, overloaded)
        }
    };
    let text;
    let body = if echo.opcode != 0 {
        Body::Rcode(RCODE_NOTIMP)
    } else if q.qclass == CLASS_CHAOS
        && q.qtype == TYPE_TXT
        && q.qname.as_str() == CHAOS_METRICS_QNAME
    {
        // The in-band scrape endpoint: `TXT metrics.bind CH` answers a
        // Prometheus-text snapshot of the metrics registry over the same
        // wire path queries take — no side listener. Over UDP the answer
        // is always TC=1, no longer than the query, steering the scraper
        // onto the TCP fallback: a UDP source can be spoofed, and a
        // snapshot is kilobytes.
        counter!("serve_chaos_scrapes_total").inc();
        match transport {
            Transport::Udp { .. } => {
                max_payload = max_payload.min(data.len());
                Body::Truncated
            }
            Transport::Tcp => {
                text = anycast_obs::global().snapshot().to_prometheus();
                Body::Text(&text)
            }
        }
    } else if q.qclass != CLASS_IN {
        // Any other CHAOS question, and every class we don't serve.
        Body::Rcode(RCODE_REFUSED)
    } else if q.qtype != TYPE_A {
        Body::Rcode(0)
    } else {
        let (rr, scope) = ctx.decide(table, src, q.edns, overloaded, counts);
        Body::Answer(rr, scope)
    };
    if encode_reply(&mut out, &echo, body, max_payload) {
        counts.truncated += 1;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{decode_response, encode_query, WireEcs, WireQuery};
    use anycast_core::prediction::{GroupKey, Grouping};
    use anycast_dns::DnsName;
    use anycast_netsim::{CdnAddressing, Prefix, SiteId};

    const RESOLVER: Ipv4Addr = Ipv4Addr::new(127, 0, 0, 9);
    const TRAINED: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 0);

    fn plan() -> CdnAddressing {
        CdnAddressing::standard(8)
    }

    /// An ECS table sending `TRAINED`/24 to `site`, everything at `ttl_s`.
    fn table(site: u16, ttl_s: u32) -> CompiledTable {
        CompiledTable::empty(Grouping::Ecs, plan(), ttl_s)
            .with_entry(GroupKey::Ecs(Prefix::new(TRAINED, 24)), SiteId(site))
    }

    fn ctx(store: Arc<TableStore>) -> ServeCtx {
        let mut directory = LdnsDirectory::new();
        directory.insert(RESOLVER, LdnsId(0), GeoPoint::new(0.0, 0.0));
        ServeCtx::new(ServeConfig::new(plan().anycast_ip()), store, directory)
    }

    fn ecs(subnet: Ipv4Addr) -> Option<Edns> {
        Some(Edns {
            udp_payload: 1232,
            ecs: Some(WireEcs {
                addr: subnet,
                source_prefix_len: 24,
                scope_prefix_len: 0,
            }),
        })
    }

    fn query(id: u16, qtype: u16, edns: Option<Edns>) -> Vec<u8> {
        encode_query(&WireQuery {
            id,
            rd: true,
            qname: DnsName::new("www.cdn.example").unwrap(),
            qtype,
            qclass: CLASS_IN,
            edns,
        })
    }

    /// `query`, with the first QNAME byte upper-cased: the raw question no
    /// longer equals its canonical re-encoding, so the template declines it.
    fn mixed_case(mut wire: Vec<u8>) -> Vec<u8> {
        wire[HEADER_LEN + 1] = b'W';
        assert!(QueryView::parse(&wire).is_none());
        wire
    }

    #[test]
    fn a_batch_is_answered_from_the_one_generation_it_loaded() {
        // Table A is what the batch loaded; by the time it is answered the
        // store already holds B (other site, other TTL — so even VIP
        // misses tell the generations apart).
        let store = Arc::new(TableStore::new(table(2, 60)));
        let ctx = ctx(store.clone());
        let a = store.load();
        store.swap(table(5, 61));

        let elsewhere = Ipv4Addr::new(203, 0, 113, 0);
        let batch = [
            query(1, TYPE_A, ecs(TRAINED)),               // template, table hit
            mixed_case(query(2, TYPE_A, ecs(TRAINED))),   // encoder, table hit
            query(3, TYPE_A, None),                       // template, no EDNS: miss
            mixed_case(query(4, TYPE_A, ecs(elsewhere))), // encoder, miss
            query(5, 28, Some(Edns::plain(1232))),        // encoder, AAAA: no answer
        ];
        let src = SocketAddr::from((RESOLVER, 5353));
        let mut arena = PacketArena::new(batch.len(), SLOT_BYTES);
        let mut answer_from = |table: &CompiledTable| {
            for (i, wire) in batch.iter().enumerate() {
                arena.set_incoming(i, wire, src);
            }
            let mut counts = BatchCounts::new(false);
            answer_batch(&ctx, table, &mut arena, batch.len(), false, &mut counts);
            assert_eq!((counts.template_hits, counts.template_misses), (2, 3));
            (0..batch.len())
                .map(|i| decode_response(arena.send_slot(i)).expect("response decodes"))
                .collect::<Vec<_>>()
        };

        let from_a = answer_from(&a);
        let (hit, vip) = (plan().site_ip(SiteId(2)), plan().anycast_ip());
        let want = [
            Some((hit, 60)),
            Some((hit, 60)),
            Some((vip, 60)),
            Some((vip, 60)),
            None,
        ];
        for (r, want) in from_a.iter().zip(want) {
            assert_eq!(r.rcode, 0);
            assert_eq!(
                r.answer, want,
                "query {} must be answered from table A",
                r.id
            );
        }
        assert_eq!(from_a[0].ecs.unwrap().scope_prefix_len, 24);
        assert_eq!(from_a[1].ecs.unwrap().scope_prefix_len, 24);
        assert_eq!(from_a[3].ecs.unwrap().scope_prefix_len, 0);

        // The same batch loaded after the swap is answered wholly from B.
        let from_b = answer_from(&store.load());
        let hit = plan().site_ip(SiteId(5));
        let want = [
            Some((hit, 61)),
            Some((hit, 61)),
            Some((vip, 61)),
            Some((vip, 61)),
            None,
        ];
        for (r, want) in from_b.iter().zip(want) {
            assert_eq!(
                r.answer, want,
                "query {} must be answered from table B",
                r.id
            );
        }
    }

    /// A scripted [`BatchIo`]: an unexpected receive error, then one query
    /// whose send fails, then a quiet socket that raises the stop flag.
    struct FlakyIo {
        ctx: Arc<ServeCtx>,
        recv_calls: usize,
        tried_to_send: usize,
    }

    impl BatchIo for FlakyIo {
        fn recv_batch(&mut self, _: &UdpSocket, arena: &mut PacketArena) -> std::io::Result<usize> {
            self.recv_calls += 1;
            match self.recv_calls {
                1 => Err(std::io::Error::other("receive broke")),
                2 => {
                    let src = SocketAddr::from((RESOLVER, 5353));
                    arena.set_incoming(0, &query(9, TYPE_A, ecs(TRAINED)), src);
                    Ok(1)
                }
                _ => {
                    self.ctx.stop.store(true, Ordering::SeqCst);
                    Err(std::io::ErrorKind::WouldBlock.into())
                }
            }
        }

        fn send_batch(
            &mut self,
            _: &UdpSocket,
            arena: &mut PacketArena,
            n: usize,
        ) -> std::io::Result<()> {
            self.tried_to_send += (0..n).filter(|&i| !arena.send_slot(i).is_empty()).count();
            Err(std::io::Error::other("send broke"))
        }
    }

    #[test]
    fn socket_errors_are_counted_and_the_worker_survives_them() {
        let ctx = Arc::new(ctx(Arc::new(TableStore::new(table(2, 60)))));
        let mut io = FlakyIo {
            ctx: ctx.clone(),
            recv_calls: 0,
            tried_to_send: 0,
        };
        let sock = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        worker_loop(&ctx, &sock, &mut io);
        // The receive error did not end the loop (the query after it was
        // served), nor did the send error (the loop came back to receive).
        assert_eq!(io.recv_calls, 3);
        assert_eq!(io.tried_to_send, 1);
        assert_eq!(ctx.stats.udp_queries.load(Ordering::Relaxed), 1);
        assert_eq!(ctx.stats.io_errors.load(Ordering::Relaxed), 2);
        let by_op = |op| {
            anycast_obs::global()
                .snapshot()
                .counter_with("serve_io_errors_total", &[("op", op)])
        };
        assert!(by_op("recv") >= 1 && by_op("send") >= 1);
    }
}
