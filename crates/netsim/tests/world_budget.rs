//! What building a policy world and warming its catchment tables may
//! allocate, counted rather than read off a clock: the calls the
//! allocator sees and how high the heap rises while `Internet::new`
//! generates and bridges the graph and `warm_tables` computes the steady
//! table, the unicast base and one cone per site. A per-edge, per-node or
//! per-session allocation in the generator, or a hash map in place of an
//! indexed vector, shows here as calls; a buffer sized by the graph that
//! outlives its step shows as peak bytes; a per-AS record or copy the
//! world keeps shows as live bytes.
//!
//! A dedicated integration-test binary, one test: the counting allocator
//! is this binary's alone (every library crate forbids `unsafe`), and
//! nothing else allocates while the world is built.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use anycast_netsim::{BorderId, Internet, NetConfig, WorldGenConfig};

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

/// `relaxed_nodes.rs`'s world: 10,000 ASes at seed 3.
const N_ASES: usize = 10_000;

/// Allocation calls for the build and the warm-up together, measured at
/// 8,549: under one per AS. A session's border list is one allocation;
/// the per-AS columns (footprints, peerings, transits, the metro index)
/// are a few tables in all, not a list per AS.
const MAX_CALLS: usize = 8_950;
/// Heap high-water above where it started, in bytes; measured at
/// 1,927,155.
const MAX_PEAK_BYTES: usize = 2_020_000;
/// Heap the built and warmed world keeps, in bytes: the graph, the per-AS
/// columns and the warmed tables; measured at 1,912,747.
const MAX_LIVE_BYTES: usize = 2_000_000;

#[test]
fn building_and_warming_a_world_stays_within_its_allocation_budget() {
    let cfg = NetConfig {
        worldgen: Some(WorldGenConfig::with_ases(N_ASES)),
        ..NetConfig::default()
    };
    let (calls_before, live_before) = (CALLS.load(Relaxed), LIVE.load(Relaxed));
    PEAK.store(live_before, Relaxed);

    let net = Internet::new(cfg, 3).unwrap();
    let pw = net.policy_world().unwrap();
    let cdn = &net.topology().cdn;
    let borders: Vec<BorderId> = cdn
        .site_ids()
        .map(|s| cdn.unicast_announcement_border(s))
        .collect();
    pw.warm_tables(&borders, 1);

    let calls = CALLS.load(Relaxed) - calls_before;
    let peak = PEAK.load(Relaxed) - live_before;
    let live = LIVE.load(Relaxed) - live_before;
    println!(
        "{N_ASES} ASes: {calls} allocations, heap peak {peak} B above the start, {live} B kept"
    );
    assert!(
        calls <= MAX_CALLS,
        "{calls} allocations to build and warm a {N_ASES}-AS world"
    );
    assert!(
        peak <= MAX_PEAK_BYTES,
        "building and warming a {N_ASES}-AS world peaked {peak} B above the start"
    );
    assert!(
        live <= MAX_LIVE_BYTES,
        "a built and warmed {N_ASES}-AS world keeps {live} B"
    );
}
