//! Allocation budget of the per-request path: a transfer's route is a
//! handle to the environment's shared node sequence and a batch is one
//! flat `Vec`, so a service cycle — intake, partition, both phases, commit
//! and strict replay — costs a bounded number of allocator calls per
//! served request. The ceiling sits 25 % above the measured value; a
//! per-request `Vec` route (16.1 calls per request before routes were shared),
//! a per-residency service list (7.54 before a residency counted its
//! services) or the solver's per-video hash maps and per-run greedy buffers
//! (5.71 before they became position-indexed tables and per-pass scratch)
//! cannot come back under it.
//!
//! This file holds one test on purpose: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use vod_paradigm::core::{ExecMode, SchedCtx, ServiceLoop};
use vod_paradigm::experiments::Scenario;
use vod_paradigm::prelude::*;
use vod_paradigm::simulator::{cycle_is_clean, replay_service_cycle};

/// Calls that obtain or resize memory (`dealloc` mirrors them and is not
/// counted).
static CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the counter touches no memory
// the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const CYCLES: usize = 25;
/// 25 % above the 4.41 calls per served request measured when the ceiling
/// was set. This cell reads 5.12 under `cargo test` and 4.71 in a release
/// build: in the test profile, each solve's debug check that a video's
/// batch slice is its delivered requests allocates those requests.
const CEILING: f64 = 5.51;

#[test]
fn a_service_cycle_stays_within_its_allocation_budget() {
    // The benchmark's `steady` cell: paper Fig. 4, 5 GB stores, 190 users
    // asking twice a cycle out of 500 titles, four regional shards.
    let (topo, catalog, arrivals, cfg) =
        Scenario { cycles: CYCLES, ..Scenario::named("steady") }.build();
    let horizon = cfg.horizon;
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);
    let mut service = ServiceLoop::new(&topo, cfg).expect("no faults to validate");

    let (mut next, mut served, mut calls) = (0, 0, 0);
    for k in 0..CYCLES {
        let before = CALLS.load(Ordering::Relaxed);
        while next < arrivals.len() && arrivals[next].at <= k as f64 * horizon {
            service.offer(arrivals[next].request).expect("unbounded queue");
            next += 1;
        }
        let cycle = service.run_cycle(&ctx, ExecMode::Sequential);
        let sim = replay_service_cycle(&topo, &catalog, &model, &cycle);
        let spent = CALLS.load(Ordering::Relaxed) - before;
        assert!(cycle_is_clean(&sim), "cycle {k}: {:?}", sim.violations);
        // Cycle 0 is the warm-up: it fills the route cells and sizes the
        // loop's own buffers.
        if k > 0 {
            served += cycle.served.len();
            calls += spent;
        }
    }
    assert!(served >= 20 * 300, "the cell serves about 380 requests a cycle, got {served}");
    let per_request = calls as f64 / served as f64;
    assert!(
        per_request <= CEILING,
        "{per_request:.2} allocator calls per served request over {} cycles (ceiling {CEILING})",
        CYCLES - 1
    );
}
