//! What a training pass may hold above the day it reads, and the largest
//! block it may ask the allocator for.
//!
//! The trainer holds a bit a row and a `u32` pair id a run of consecutive
//! rows of one pair beside its per-pair arrays, and scores one chunk of
//! pairs at a time a thread; its peak above the rows is pinned near its
//! measured size, so it cannot grow silently, and no block of it holds a
//! sample for every row.
//!
//! The day is built here, seeded: 4,000 /24s in /21 blocks, each measured
//! against anycast and three unicast front ends, 16–40 samples a pair —
//! the shape of the benchmark's training day at a tenth of its /24s. It is
//! trained as built, client by client, and again sorted by time.
//!
//! A dedicated integration-test binary, one test: the counting allocator
//! is this binary's alone (every library crate forbids `unsafe`), and
//! nothing else allocates while a trainer runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use anycast_beacon::{BeaconDataset, BeaconMeasurement, Slot, Target};
use anycast_core::prediction::{Predictor, PredictorConfig};
use anycast_dns::LdnsId;
use anycast_netsim::stream::mix64;
use anycast_netsim::{Day, Prefix24, SiteId};

/// The system allocator, tracking live and peak bytes and the largest
/// single block asked for.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    LARGEST.fetch_max(bytes, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no memory the allocator hands
// out and do not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations are passed on as they are.
        let block = unsafe { System.alloc(layout) };
        if !block.is_null() {
            grew(layout.size());
        }
        block
    }

    unsafe fn dealloc(&self, block: *mut u8, layout: Layout) {
        // SAFETY: `block` came from `System` through this type with `layout`.
        unsafe { System.dealloc(block, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, block: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `block` came from `System` through this type with `layout`,
        // and the caller vouches for `new_size`.
        let moved = unsafe { System.realloc(block, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Client /24s of the day, eight to a /21 block, four pairs each.
const GROUPS: u32 = 4_000;

/// The seeded day: per block a base latency and three unicast sites, per
/// (group, target) pair 16–40 samples around the target's centre.
fn day(seed: u64) -> BeaconDataset {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(state)
    };
    let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
    let mut rows = Vec::new();
    for block in 0..GROUPS / 8 {
        let base_ms = 10.0 + 150.0 * unit();
        let sites = [0, 1, 2].map(|i| SiteId((3 * block + i) as u16 % 44));
        for k in 0..8 {
            let prefix = Prefix24::from_raw(0x0a00_0000 | block << 11 | k << 8);
            for t in 0..4 {
                let (target, served, centre_ms) = match t {
                    0 => (Target::Anycast, sites[0], base_ms),
                    _ => {
                        let site = sites[t - 1];
                        (Target::Unicast(site), site, base_ms + 40.0 * unit() - 15.0)
                    }
                };
                let n = 16 + (unit() * 25.0) as usize;
                for _ in 0..n {
                    rows.push(BeaconMeasurement {
                        measurement_id: rows.len() as u64,
                        slot: Slot::Anycast,
                        prefix,
                        ldns: LdnsId(block % 200),
                        ecs: Some(prefix.into()),
                        target,
                        served_site: served,
                        rtt_ms: centre_ms.max(2.0) * (0.9 + 0.4 * unit()),
                        failed: false,
                        day: Day(0),
                        time_s: 86_400.0 * unit(),
                    });
                }
            }
        }
    }
    let mut data = BeaconDataset::new();
    data.extend(rows);
    data
}

/// Runs `train` and returns its table's entry count, the bytes its heap
/// peaked at above where it started, and the largest block it allocated.
fn measured(train: impl FnOnce() -> usize) -> (usize, usize, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    LARGEST.store(0, Relaxed);
    let entries = train();
    (entries, PEAK.load(Relaxed) - before, LARGEST.load(Relaxed))
}

#[test]
fn training_holds_a_few_bytes_a_sample_and_no_slab_doubles() {
    let mut data = day(2015);
    let rows = data.len();
    assert!((400_000..500_000).contains(&rows), "{rows} rows");
    let predictor = Predictor::new(PredictorConfig::default());
    let exact = |data: &BeaconDataset| predictor.train(data, Day(0)).len();
    // The first call registers the trainer's obs counters; measure the
    // next. (A /24 whose four pairs all hold under 20 samples has no
    // entry.)
    let table = exact(&data);
    assert!(table > GROUPS as usize * 99 / 100, "{table}");

    // Client order: a run a pair, so the run ids are a few KB and the
    // peak is a bit a row, the key maps, key lists, counts, first and last
    // rows and scored pairs; the keying pass scores nearly every pair and
    // the sweep holds only the samples of the pairs a range seam splits.
    // Measured 2.72 B a row at one range and 2.53 at two; a `u32` pair id
    // a row read 6.45 and 6.22. The largest block is a key map or the
    // scored pairs.
    let (entries, peak, largest) = measured(|| exact(&data));
    assert_eq!(entries, table);
    println!(
        "client order: peak {peak} B above the day ({:.2} B a row), largest block {largest} B",
        peak as f64 / rows as f64
    );
    assert!(peak <= 4 * rows, "{peak} B for {rows} rows in client order");
    assert!(largest <= 4 * rows, "a {largest} B block for {rows} rows");

    // Time order: nearly a run a row, so a `u32` id a row again beside
    // the bits, and every pair recurs: the sweep cuts chunks of 2^16
    // samples or more and deals them to the ranges, one a core, up to one
    // a 2^16 rows, each with a buffer of its chunk's samples. Measured
    // 7.38 B a row at one range and 8.78 at two; a `u32` pair id a row
    // read 7.26 and 8.65, a `(u32, u32)` record a run 14.01 at two, and a
    // window-sized sample arena 14.1–14.5. Each range past two adds a
    // buffer. The largest block is a range's run ids, which grow to no
    // more than one a row; the arena was one of 8 B a row.
    let mut by_time = data.measurements().to_vec();
    by_time.sort_by(|a, b| { a.time_s }.total_cmp(&{ b.time_s }));
    data = BeaconDataset::new();
    data.extend(by_time);
    let (entries, peak, largest) = measured(|| exact(&data));
    assert_eq!(entries, table);
    println!(
        "time order: peak {peak} B above the day ({:.2} B a row), largest block {largest} B",
        peak as f64 / rows as f64
    );
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let buffers_past_two = cores.min(rows >> 16).saturating_sub(2) * (8 << 16);
    assert!(
        peak <= 9 * rows + buffers_past_two,
        "{peak} B for {rows} rows in time order"
    );
    assert!(largest <= 4 * rows, "a {largest} B block for {rows} rows");
}
