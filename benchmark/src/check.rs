//! `check`: the output contracts the workloads' verification rests on,
//! run on their own and in full.

use std::time::{Duration, Instant};

use crate::adapter::{self, BatchSocket, Campaign, Server, Store, TrainingDay, World};
use crate::loadgen::SEND_BATCH;
use crate::synth::{day_digest, day_rows, query_pool, DaySpec, Mix, POOL_LEN};
use crate::wire;

// The wire check sends query `i` under transaction id `i`.
const _: () = assert!(POOL_LEN <= 1 << 16);

/// One named check and what it found.
pub struct Finding {
    /// What was checked.
    pub name: &'static str,
    /// `Ok(detail)` or `Err(why it failed)`.
    pub result: Result<String, String>,
}

fn finding(name: &'static str, result: Result<String, String>) -> Finding {
    Finding { name, result }
}

/// A study day is the same bytes for one worker and for two.
fn worker_invariance(seed: u64) -> Result<String, String> {
    let digest = |workers| {
        let (mut c, _) = Campaign::build(World::Legacy, seed, workers);
        let rows = c.run_day(1);
        (rows, c.day_digest(1))
    };
    let (one, two) = (digest(1), digest(2));
    if one == two && one.0 > 0 {
        Ok(format!("{} rows, digest {:016x}", one.0, one.1))
    } else {
        Err(format!("1 worker {one:x?} against 2 workers {two:x?}"))
    }
}

/// `AggregationConfig::disabled()` trains the table `train` trains.
fn disabled_aggregation(day: &TrainingDay) -> Result<String, String> {
    let (exact, flat) = (day.train_exact(), day.train_unaggregated());
    if exact.digest() == flat.digest() && exact.len() == flat.len() {
        Ok(format!(
            "{} entries, digest {:016x}",
            exact.len(),
            exact.digest()
        ))
    } else {
        Err(format!(
            "train: {} entries {:016x}; disabled aggregation: {} entries {:016x}",
            exact.len(),
            exact.digest(),
            flat.len(),
            flat.digest()
        ))
    }
}

/// Every pool query, over the wire, under each of the three tables, gets
/// the in-process answer — and the generator's reader and the library's
/// full decoder read it alike.
fn wire_equivalence(day: &TrainingDay, seed: u64, spec: &DaySpec) -> Result<String, String> {
    let pool = query_pool(seed, spec, Mix::Mixed, 2, POOL_LEN);
    let mut wires = adapter::encode_pool(&pool);
    let tables = [day.train_exact(), day.train_aggregated(), day.train_ldns()];
    let io = |e: std::io::Error| e.to_string();
    let mut checked = 0usize;
    for (g, table) in tables.iter().enumerate() {
        let compiled = table.compile(day, g as u64 + 1);
        let store = Store::new(compiled.clone());
        let server = Server::spawn(&store, spec, true).map_err(io)?;
        let mut sockets = [
            BatchSocket::bind(0, server.addr(), SEND_BATCH).map_err(io)?,
            BatchSocket::bind(1, server.addr(), SEND_BATCH).map_err(io)?,
        ];
        let mut base = 0;
        while base < pool.len() {
            // Whole sixteen-query patterns share a socket, so a batch of
            // 32 is two patterns, one per socket.
            for (s, socket) in sockets.iter_mut().enumerate() {
                let chunk: Vec<usize> = (base..base + SEND_BATCH)
                    .filter(|&i| usize::from(pool[i].socket) == s)
                    .collect();
                for (slot, &i) in chunk.iter().enumerate() {
                    wires[i][0..2].copy_from_slice(&(i as u16).to_be_bytes());
                    socket.stage(slot, &wires[i]);
                }
                socket.send(chunk.len()).map_err(io)?;
                let mut pending = chunk.len();
                let deadline = Instant::now() + Duration::from_secs(2);
                while pending > 0 {
                    if Instant::now() > deadline {
                        return Err(format!(
                            "table {g}: {pending} queries near {base} unanswered"
                        ));
                    }
                    for p in 0..socket.recv().map_err(io)? {
                        let packet = socket.packet(p);
                        let Some(id) = wire::response_id(packet) else {
                            continue;
                        };
                        let i = usize::from(id); // POOL_LEN is 65,536: the id is the index
                        let want = compiled.expected(&pool[i], s as u32);
                        let light = wire::read_reply(packet);
                        let full = adapter::decode_reply(packet);
                        if light != Some(want) || full != Some(want) {
                            return Err(format!(
                                "table {g}, query {i} {:?}: expected {want:?}, reader {light:?}, decoder {full:?}",
                                pool[i].kind
                            ));
                        }
                        pending -= 1;
                        checked += 1;
                    }
                }
            }
            base += SEND_BATCH;
        }
        server.stop();
    }
    Ok(format!(
        "{checked} answers over the wire match the in-process tables"
    ))
}

/// The synthetic day is a function of its seed.
fn day_determinism(seed: u64, spec: DaySpec) -> Result<String, String> {
    let (a, again, other) = (
        day_digest(seed, spec),
        day_digest(seed, spec),
        day_digest(seed + 1, spec),
    );
    if a == again && a != other {
        Ok(format!(
            "seed {seed} → {a:016x} twice; seed {} → {other:016x}",
            seed + 1
        ))
    } else {
        Err(format!("digests {a:016x}, {again:016x}, {other:016x}"))
    }
}

/// Runs every check.
pub fn run(seed: u64) -> Vec<Finding> {
    let spec = DaySpec::PINNED;
    let mut out = vec![
        finding(
            "worker-count invariance of a study day",
            worker_invariance(seed),
        ),
        finding("synthetic-day determinism", day_determinism(seed, spec)),
    ];
    let day = TrainingDay::load(day_rows(seed, spec), &spec);
    out.push(finding(
        "disabled aggregation ≡ train",
        disabled_aggregation(&day),
    ));
    out.push(finding(
        "wire ≡ in-process answers, three tables",
        wire_equivalence(&day, seed, &spec),
    ));
    out
}
