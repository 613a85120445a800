//! What a campaign day may allocate, and how far above its own rows its
//! heap may rise.
//!
//! A worker's working set is a block of beacons: hostnames live in their
//! rows, and the HTTP buffer, the authoritative log and the join map are
//! emptied and reused block after block. So a day allocates per block,
//! not per measurement, and what it holds beyond the rows it keeps is the
//! ranges' rows awaiting the append, the event list, the route snapshot
//! and one block. Both are budgets here: a hostname that goes back to the
//! heap costs four allocations a beacon, a range-sized log or HTTP buffer
//! a multiple of the rows.
//!
//! A dedicated integration-test binary, one test: the counting allocator
//! is this binary's alone (every library crate forbids `unsafe`), and
//! nothing else allocates while the day runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use anycast_beacon::BeaconMeasurement;
use anycast_core::{Study, StudyConfig};
use anycast_netsim::Day;
use anycast_workload::{Scenario, ScenarioConfig};

/// The system allocator, counting calls and tracking live and peak bytes.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    CALLS.fetch_add(1, Relaxed);
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

#[test]
fn a_day_allocates_by_the_block_and_holds_little_beyond_its_rows() {
    let cfg = StudyConfig {
        workers: 1,
        ..StudyConfig::default()
    };
    // The paper-scale population: 4,000 /24s, some 16k beacons a day.
    let world = ScenarioConfig {
        seed: 21,
        ..ScenarioConfig::default()
    };
    let mut study = Study::new(Scenario::build(world).expect("valid config"), cfg);

    let calls_before = CALLS.load(Relaxed);
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    study.run_day(Day(0));
    let calls = CALLS.load(Relaxed) - calls_before;
    let (peak, after) = (PEAK.load(Relaxed), LIVE.load(Relaxed));

    let rows = study.dataset().len();
    let beacons = rows / 4;
    assert!(beacons > 10_000, "only {beacons} beacons");
    // Measured 5,908 on this seed; the bound is that plus 5%.
    assert!(calls <= 6_204, "{calls} allocations for {beacons} beacons");
    let kept = rows * std::mem::size_of::<BeaconMeasurement>();
    let transient = peak - after;
    assert!(
        2 * transient <= 5 * kept,
        "the day's heap peaked {transient} bytes above what it left, {kept} of them rows"
    );
    println!(
        "{beacons} beacons: {calls} allocations, peak {transient} B above the {kept} B of rows kept"
    );
}
