//! The wire load generator: one thread, one or two UDP sockets.
//!
//! It replaces the closed-loop generator of `figures serve-bench` and
//! fixes that harness's flaws:
//!
//! * the **open loop** sends on a fixed clock, at most 32 queries per
//!   `sendmmsg`, and never skips a due query — a stall is followed by
//!   back-to-back batches until the schedule is caught up;
//! * open-loop latency runs **from each query's due time**, so a stalled
//!   generator charges the wait to the queries it delayed, and how late
//!   the generator itself ran is reported beside it;
//! * the **closed loop** keeps 128 queries in flight (256 overflows the
//!   server's default `SO_RCVBUF` and loses queries deterministically),
//!   re-sends a query unanswered after 100 ms up to five times, and
//!   verifies every answer it counts;
//! * results are per-slice medians, never a best-of-N.

use std::collections::VecDeque;
use std::time::Instant;

use crate::adapter::{BatchSocket, Compiled, Store};
use crate::trace::Tracer;
use crate::wire::{self, Reply};

/// Most queries handed to one `sendmmsg`.
pub const SEND_BATCH: usize = 32;
/// Queries the closed loop keeps in flight.
pub const CLOSED_WINDOW: usize = 128;
/// A closed-loop query unanswered this long is sent again.
const RESEND_AFTER_NS: u64 = 100_000_000;
/// Re-sends before a closed-loop query counts as failed.
const MAX_RESENDS: u8 = 5;
/// How long the open loop waits for stragglers once its schedule is done.
const OPEN_DRAIN_NS: u64 = 50_000_000;
/// A query due this soon after a table swap counts towards the swap shift.
const POST_SWAP_NS: u64 = 2_000_000;

// ------------------------------------------------------------ schedule --

/// The open loop's fixed clock: query `k` is due `k / rate` seconds after
/// the phase starts. Pure arithmetic over caller-supplied times, so it is
/// tested against a fake clock.
#[derive(Debug, Clone)]
pub struct DueSchedule {
    rate_qps: u64,
    total: u64,
    sent: u64,
}

impl DueSchedule {
    /// A schedule of `rate_qps` for `duration_ns`.
    pub fn new(rate_qps: u64, duration_ns: u64) -> DueSchedule {
        DueSchedule {
            rate_qps,
            total: (u128::from(duration_ns) * u128::from(rate_qps) / 1_000_000_000) as u64,
            sent: 0,
        }
    }

    /// When query `k` is due, ns after the phase start.
    pub fn due_ns(&self, k: u64) -> u64 {
        (u128::from(k) * 1_000_000_000 / u128::from(self.rate_qps)) as u64
    }

    /// Queries the schedule holds in all.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether every query has been handed out.
    pub fn finished(&self) -> bool {
        self.sent >= self.total
    }

    /// The next queries due at `now_ns` (since phase start) and not yet
    /// handed out, at most `max` of them. Call again until it returns an
    /// empty range: a due query is delayed by a stall, never dropped.
    pub fn take_due(&mut self, now_ns: u64, max: usize) -> std::ops::Range<u64> {
        // Queries with due_ns(k) <= now, i.e. k <= now * rate / 1e9.
        let due_count = (u128::from(now_ns) * u128::from(self.rate_qps) / 1_000_000_000) as u64 + 1;
        let upto = due_count.min(self.total).min(self.sent + max as u64);
        let range = self.sent..upto.max(self.sent);
        self.sent = range.end;
        range
    }
}

// ---------------------------------------------------------------- ring --

/// What the generator remembers about a query in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlight {
    /// Send sequence number; its low 16 bits are the transaction id.
    pub seq: u64,
    /// Index into the query pool.
    pub pool: u32,
    /// Due time (open loop) or first send time (closed loop), ns.
    pub t_ns: u64,
    /// Table epoch in force when the query was first sent.
    pub epoch: u32,
    /// Re-sends so far.
    pub resends: u8,
}

/// Transaction-id ring: slot `seq mod capacity` holds the query whose
/// transaction id is `seq mod 65536`.
#[derive(Debug)]
pub struct TxRing {
    slots: Vec<Option<InFlight>>,
    mask: u64,
}

impl TxRing {
    /// A ring of `capacity` slots: a power of two, at most 65,536 so a
    /// 16-bit transaction id names its slot.
    pub fn new(capacity: usize) -> TxRing {
        assert!(capacity.is_power_of_two() && capacity <= 1 << 16);
        TxRing {
            slots: vec![None; capacity],
            mask: capacity as u64 - 1,
        }
    }

    /// Records a query in flight. Returns the still-unanswered query the
    /// slot held, if any: it has been overwritten and can no longer be
    /// matched, so the caller counts it lost.
    pub fn insert(&mut self, q: InFlight) -> Option<InFlight> {
        self.slots[(q.seq & self.mask) as usize].replace(q)
    }

    /// Matches a response's transaction id to the query in flight and
    /// removes it. `None` for a duplicate, a stale id, or an id whose
    /// slot now belongs to a later query.
    pub fn take(&mut self, txid: u16) -> Option<InFlight> {
        let slot = &mut self.slots[(u64::from(txid) & self.mask) as usize];
        match slot {
            Some(q) if q.seq as u16 == txid => slot.take(),
            _ => None,
        }
    }

    /// The query with sequence number `seq`, if it is still in flight.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut InFlight> {
        self.slots[(seq & self.mask) as usize]
            .as_mut()
            .filter(|q| q.seq == seq)
    }

    /// Forgets every query in flight.
    pub fn clear(&mut self) {
        self.slots.fill(None);
    }

    /// Forgets `seq` (a query given up on).
    pub fn remove(&mut self, seq: u64) {
        if self.get_mut(seq).is_some() {
            self.slots[(seq & self.mask) as usize] = None;
        }
    }
}

// ------------------------------------------------------------- swapper --

/// Hot-swaps the served table on a fixed period from the generator's own
/// thread, cycling through tables compiled in set-up.
pub struct Swapper {
    store: Store,
    tables: Vec<Compiled>,
    staged: Option<Compiled>,
    period_ns: u64,
    next_swap_ns: u64,
    /// Which table each epoch serves; epoch 0 is the table in the store
    /// when the generator starts.
    table_of_epoch: Vec<u8>,
    /// When each swap happened, ns.
    pub swap_at_ns: Vec<u64>,
    /// What each `TableStore::swap` cost, ns.
    pub swap_cost_ns: Vec<u64>,
}

impl Swapper {
    /// A swapper over `tables`; `tables[0]` must be what `store` holds.
    /// With one table, or a zero period, it never swaps.
    pub fn new(store: Store, tables: Vec<Compiled>, period_ns: u64) -> Swapper {
        Swapper {
            store,
            tables,
            staged: None,
            period_ns,
            next_swap_ns: u64::MAX,
            table_of_epoch: vec![0],
            swap_at_ns: Vec::new(),
            swap_cost_ns: Vec::new(),
        }
    }

    fn active(&self) -> bool {
        self.tables.len() > 1 && self.period_ns > 0
    }

    /// Starts (or restarts) the swap clock at `now_ns`.
    pub fn arm(&mut self, now_ns: u64) {
        if self.active() {
            self.next_swap_ns = now_ns + self.period_ns;
        }
    }

    /// Stops swapping until the next [`Swapper::arm`].
    pub fn disarm(&mut self) {
        self.next_swap_ns = u64::MAX;
    }

    /// The current epoch.
    pub fn epoch(&self) -> u32 {
        (self.table_of_epoch.len() - 1) as u32
    }

    /// Table index served during `epoch`.
    pub fn table_of(&self, epoch: u32) -> usize {
        usize::from(self.table_of_epoch[epoch as usize])
    }

    /// Swaps when the period has elapsed. The copy the swap consumes is
    /// made half a period earlier, so cloning never lands in the window
    /// the swap shift is measured over.
    pub fn tick(&mut self, now_ns: u64, tracer: &mut Tracer, trace_id: u64) {
        if self.next_swap_ns == u64::MAX {
            return;
        }
        let next_table = (self.table_of(self.epoch()) + 1) % self.tables.len();
        if self.staged.is_none() && now_ns + self.period_ns / 2 >= self.next_swap_ns {
            self.staged = Some(tracer.span("bench.table_clone", trace_id, || {
                self.tables[next_table].clone()
            }));
        }
        if now_ns >= self.next_swap_ns {
            let next = self.staged.take().expect("staged half a period ago");
            let t = Instant::now();
            tracer.span("serve.swap", trace_id, || self.store.swap(next));
            self.swap_cost_ns.push(t.elapsed().as_nanos() as u64);
            self.swap_at_ns.push(now_ns);
            self.table_of_epoch.push(next_table as u8);
            self.next_swap_ns += self.period_ns;
        }
    }
}

// ----------------------------------------------------------- generator --

/// Result of one closed-loop slice.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClosedStats {
    /// Distinct queries sent.
    pub attempted: u64,
    /// Queries unanswered after every re-send.
    pub unanswered: u64,
    /// Answers that parsed but matched no live table, or did not parse.
    pub wrong: u64,
    /// Verified answers.
    pub answered: u64,
    /// Re-sends issued.
    pub resends: u64,
    /// Wall time of the slice including the final drain, ns.
    pub wall_ns: u64,
}

impl ClosedStats {
    /// Verified answers per second.
    pub fn qps(&self) -> f64 {
        self.answered as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// Adds another slice's counts.
    pub fn absorb(&mut self, other: &ClosedStats) {
        self.attempted += other.attempted;
        self.unanswered += other.unanswered;
        self.wrong += other.wrong;
        self.answered += other.answered;
        self.resends += other.resends;
        self.wall_ns += other.wall_ns;
    }
}

/// Result of one open-loop slice.
#[derive(Debug, Default)]
pub struct OpenStats {
    /// Queries sent (every due query is sent).
    pub sent: u64,
    /// Queries with no answer when the drain ended, or overwritten.
    pub lost: u64,
    /// Answers that parsed but matched no live table, or did not parse.
    pub wrong: u64,
    /// Latency of each answered query from its due time, ns.
    pub latency_ns: Vec<u32>,
    /// How long after its due time each query reached `sendmmsg`, ns.
    pub lateness_ns: Vec<u32>,
    /// Latency of queries due within 2 ms after a table swap, ns.
    pub post_swap_ns: Vec<u32>,
}

/// The load generator.
pub struct Generator {
    sockets: Vec<BatchSocket>,
    staged: Vec<usize>,
    wires: Vec<Vec<u8>>,
    socket_of: Vec<u8>,
    expected: Vec<Vec<Reply>>,
    ring: TxRing,
    epoch: Instant,
    seq: u64,
    cursor: usize,
    /// The table swapper; inert for a single-table workload.
    pub swapper: Swapper,
}

impl Generator {
    /// A generator over pre-encoded `wires`. `socket_of[i]` names the
    /// socket query `i` leaves from and `expected[i][t]` is its reference
    /// answer under table `t`.
    pub fn new(
        sockets: Vec<BatchSocket>,
        wires: Vec<Vec<u8>>,
        socket_of: Vec<u8>,
        expected: Vec<Vec<Reply>>,
        swapper: Swapper,
    ) -> Generator {
        assert!(sockets.iter().all(|s| s.batch() >= SEND_BATCH));
        Generator {
            staged: vec![0; sockets.len()],
            sockets,
            wires,
            socket_of,
            expected,
            ring: TxRing::new(1 << 16),
            epoch: Instant::now(),
            seq: 0,
            cursor: 0,
            swapper,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Stages pool query `pool` under sequence `seq`, flushing its socket
    /// when a batch is full.
    fn stage(&mut self, pool: usize, seq: u64) -> std::io::Result<()> {
        let s = usize::from(self.socket_of[pool]);
        let wire = &mut self.wires[pool];
        wire[0..2].copy_from_slice(&(seq as u16).to_be_bytes());
        self.sockets[s].stage(self.staged[s], wire);
        self.staged[s] += 1;
        if self.staged[s] == SEND_BATCH {
            self.flush(s)?;
        }
        Ok(())
    }

    fn flush(&mut self, s: usize) -> std::io::Result<()> {
        if self.staged[s] > 0 {
            self.sockets[s].send(self.staged[s])?;
            self.staged[s] = 0;
        }
        Ok(())
    }

    fn flush_all(&mut self) -> std::io::Result<()> {
        for s in 0..self.sockets.len() {
            self.flush(s)?;
        }
        Ok(())
    }

    /// Whether `reply` is the reference answer of a table live since the
    /// query was first sent.
    fn verified(&self, q: &InFlight, reply: Option<Reply>) -> bool {
        let Some(reply) = reply else { return false };
        let want = &self.expected[q.pool as usize];
        (q.epoch..=self.swapper.epoch()).any(|e| want[self.swapper.table_of(e)] == reply)
    }

    /// Drains every socket once; calls `on_answer(query, verified, at)`
    /// for each response that matches a query in flight, where `at` is
    /// when the receive call that delivered it returned.
    fn pump(&mut self, mut on_answer: impl FnMut(InFlight, bool, u64)) -> std::io::Result<()> {
        for s in 0..self.sockets.len() {
            let n = self.sockets[s].recv()?;
            let at = self.now_ns();
            for i in 0..n {
                let packet = self.sockets[s].packet(i);
                let Some(txid) = wire::response_id(packet) else {
                    continue;
                };
                let reply = wire::read_reply(packet);
                if let Some(q) = self.ring.take(txid) {
                    let ok = self.verified(&q, reply);
                    on_answer(q, ok, at);
                }
            }
        }
        Ok(())
    }

    /// A short untimed closed-loop burst that warms sockets, the server's
    /// arenas and the table's cache lines.
    pub fn warm_up(
        &mut self,
        duration_ns: u64,
        tracer: &mut Tracer,
    ) -> std::io::Result<ClosedStats> {
        self.closed_loop(duration_ns, tracer, u64::MAX)
    }

    /// Closed loop: [`CLOSED_WINDOW`] queries in flight for `duration_ns`,
    /// then a drain of what is still out.
    pub fn closed_loop(
        &mut self,
        duration_ns: u64,
        tracer: &mut Tracer,
        trace_id: u64,
    ) -> std::io::Result<ClosedStats> {
        let start = self.now_ns();
        let end = start + duration_ns;
        let mut out = ClosedStats::default();
        let mut in_flight = 0usize;
        let mut deadlines: VecDeque<(u64, u64)> = VecDeque::with_capacity(2 * CLOSED_WINDOW);
        self.swapper.arm(start);
        loop {
            let now = self.now_ns();
            if now >= end && in_flight == 0 {
                break;
            }
            self.swapper.tick(now, tracer, trace_id);
            if now < end {
                while in_flight < CLOSED_WINDOW {
                    let (pool, seq) = (self.cursor, self.seq);
                    self.cursor = (self.cursor + 1) % self.wires.len();
                    self.seq += 1;
                    self.ring.insert(InFlight {
                        seq,
                        pool: pool as u32,
                        t_ns: now,
                        epoch: self.swapper.epoch(),
                        resends: 0,
                    });
                    deadlines.push_back((seq, now + RESEND_AFTER_NS));
                    self.stage(pool, seq)?;
                    in_flight += 1;
                    out.attempted += 1;
                }
                self.flush_all()?;
            }
            let mut answered = 0usize;
            let mut wrong = 0u64;
            self.pump(|_, ok, _| {
                answered += 1;
                wrong += u64::from(!ok);
            })?;
            if answered > 0 {
                in_flight -= answered;
                out.wrong += wrong;
                out.answered += answered as u64 - wrong;
            }
            // Re-send or give up on queries past their deadline.
            while deadlines.front().is_some_and(|&(_, due)| due <= now) {
                let (seq, _) = deadlines.pop_front().expect("front exists");
                let Some(q) = self.ring.get_mut(seq) else {
                    continue; // answered
                };
                if q.resends >= MAX_RESENDS {
                    self.ring.remove(seq);
                    in_flight -= 1;
                    out.unanswered += 1;
                    continue;
                }
                q.resends += 1;
                let pool = q.pool as usize;
                out.resends += 1;
                deadlines.push_back((seq, now + RESEND_AFTER_NS));
                self.stage(pool, seq)?;
            }
            self.flush_all()?;
        }
        self.swapper.disarm();
        out.wall_ns = self.now_ns() - start;
        Ok(out)
    }

    /// Open loop at `rate_qps` for `duration_ns`: sends on the fixed
    /// clock of a [`DueSchedule`], times each answer from its due time,
    /// then waits up to 50 ms for stragglers.
    pub fn open_loop(
        &mut self,
        rate_qps: u64,
        duration_ns: u64,
        tracer: &mut Tracer,
        trace_id: u64,
    ) -> std::io::Result<OpenStats> {
        let mut schedule = DueSchedule::new(rate_qps, duration_ns);
        let mut out = OpenStats {
            latency_ns: Vec::with_capacity(schedule.total() as usize),
            lateness_ns: Vec::with_capacity(schedule.total() as usize),
            ..OpenStats::default()
        };
        let start = self.now_ns();
        let mut outstanding = 0u64;
        self.swapper.arm(start);
        loop {
            let now = self.now_ns();
            self.swapper.tick(now, tracer, trace_id);
            let due = schedule.take_due(now - start, SEND_BATCH);
            if !due.is_empty() {
                for k in due {
                    let due_ns = start + schedule.due_ns(k);
                    let (pool, seq) = (self.cursor, self.seq);
                    self.cursor = (self.cursor + 1) % self.wires.len();
                    self.seq += 1;
                    let overwritten = self.ring.insert(InFlight {
                        seq,
                        pool: pool as u32,
                        t_ns: due_ns,
                        epoch: self.swapper.epoch(),
                        resends: 0,
                    });
                    if overwritten.is_some() {
                        out.lost += 1;
                        outstanding -= 1;
                    }
                    out.lateness_ns.push(now.saturating_sub(due_ns) as u32);
                    self.stage(pool, seq)?;
                    outstanding += 1;
                    out.sent += 1;
                }
                self.flush_all()?;
            }
            let swap_at = self.swapper.swap_at_ns.last().copied();
            let mut answered = 0u64;
            let mut wrong = 0u64;
            let latencies = &mut out.latency_ns;
            let post_swap = &mut out.post_swap_ns;
            self.pump(|q, ok, at| {
                answered += 1;
                wrong += u64::from(!ok);
                let lat = at.saturating_sub(q.t_ns).min(u64::from(u32::MAX)) as u32;
                latencies.push(lat);
                if swap_at.is_some_and(|at| q.t_ns >= at && q.t_ns - at <= POST_SWAP_NS) {
                    post_swap.push(lat);
                }
            })?;
            outstanding -= answered;
            out.wrong += wrong;
            if schedule.finished()
                && (outstanding == 0 || self.now_ns() > start + duration_ns + OPEN_DRAIN_NS)
            {
                break;
            }
        }
        self.swapper.disarm();
        out.lost += outstanding;
        // Whatever is still in the ring must not match a later slice.
        self.ring.clear();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_follows_a_fake_clock_and_never_skips() {
        // 50,000 qps for 10 ms: 500 queries, one every 20 µs.
        let mut s = DueSchedule::new(50_000, 10_000_000);
        assert_eq!(s.total(), 500);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 20_000);
        assert_eq!(s.due_ns(499), 9_980_000);
        // t = 0: only query 0 is due.
        assert_eq!(s.take_due(0, SEND_BATCH), 0..1);
        assert_eq!(s.take_due(0, SEND_BATCH), 1..1);
        // t = 19.999 µs: still nothing new; t = 20 µs: query 1.
        assert!(s.take_due(19_999, SEND_BATCH).is_empty());
        assert_eq!(s.take_due(20_000, SEND_BATCH), 1..2);
        // A 2 ms stall: queries 2..=101 are due. They come out in batches
        // of at most 32, back to back, none skipped.
        let now = 2_020_000;
        assert_eq!(s.take_due(now, SEND_BATCH), 2..34);
        assert_eq!(s.take_due(now, SEND_BATCH), 34..66);
        assert_eq!(s.take_due(now, SEND_BATCH), 66..98);
        assert_eq!(s.take_due(now, SEND_BATCH), 98..102);
        assert!(s.take_due(now, SEND_BATCH).is_empty());
        // Far past the end: the schedule stops at its total.
        let mut handed = 102;
        loop {
            let r = s.take_due(1_000_000_000, SEND_BATCH);
            if r.is_empty() {
                break;
            }
            assert_eq!(r.start, handed);
            assert!(r.end - r.start <= SEND_BATCH as u64);
            handed = r.end;
        }
        assert_eq!(handed, 500);
        assert!(s.finished());
    }

    fn q(seq: u64) -> InFlight {
        InFlight {
            seq,
            pool: seq as u32,
            t_ns: seq * 10,
            epoch: 0,
            resends: 0,
        }
    }

    #[test]
    fn the_ring_matches_ids_once_and_reports_overwrites() {
        let mut ring = TxRing::new(8);
        for seq in 0..8 {
            assert_eq!(ring.insert(q(seq)), None);
        }
        // A response matches once; its duplicate does not.
        assert_eq!(ring.take(3), Some(q(3)));
        assert_eq!(ring.take(3), None);
        // Sequence 8 reuses slot 0 while query 0 is unanswered: the
        // overwrite is reported, and query 0's late answer is stale.
        assert_eq!(ring.insert(q(8)), Some(q(0)));
        assert_eq!(ring.take(0), None);
        assert_eq!(ring.take(8), Some(q(8)));
        // Sequence 11 takes the freed slot 3 without an overwrite.
        assert_eq!(ring.insert(q(11)), None);
        assert_eq!(ring.take(3), None);
        assert_eq!(ring.take(11), Some(q(11)));
        // Transaction ids wrap at 16 bits.
        let far = 65_536 + 5;
        assert_eq!(ring.insert(q(far)), Some(q(5)));
        assert_eq!(ring.take(5), Some(q(far)));
    }

    #[test]
    fn the_ring_finds_and_forgets_by_sequence() {
        let mut ring = TxRing::new(4);
        ring.insert(q(6));
        assert!(ring.get_mut(2).is_none());
        ring.get_mut(6).expect("in flight").resends = 2;
        assert_eq!(ring.get_mut(6).map(|q| q.resends), Some(2));
        ring.remove(2); // not in flight: a no-op
        assert!(ring.get_mut(6).is_some());
        ring.remove(6);
        assert!(ring.get_mut(6).is_none());
        assert_eq!(ring.take(6), None);
        ring.insert(q(9));
        ring.clear();
        assert_eq!(ring.take(9), None);
    }
}
