//! Memory guard of the arrival trace: `generate_arrivals` reserves the
//! trace at its exact length and sorts each cycle's block in place, so
//! while it runs the heap holds the trace plus one cycle's draw. A
//! growing `Vec` (up to twice the trace while it reallocates) or a
//! whole-trace stable sort (its scratch buffer) cannot come back under the
//! ceiling of the trace's own bytes plus 1 MB.
//!
//! This file holds one test on purpose: the allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use vod_paradigm::experiments::Scenario;
use vod_paradigm::workload::{generate_arrivals, Arrival, ArrivalConfig};

/// Bytes currently allocated, as requested by the callers.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`LIVE`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Tracking;

impl Tracking {
    fn grow(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(by: usize) {
        LIVE.fetch_sub(by, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the counters touch no memory
// the allocator manages.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            Self::grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            Self::grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            // A moving realloc holds both blocks for a moment; count the
            // larger one so growth is charged at its new size.
            Self::grow(new_size);
            Self::shrink(layout.size());
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        Self::shrink(layout.size());
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

const CYCLES: usize = 60;
const SLACK: usize = 1 << 20;

#[test]
fn generating_a_trace_holds_little_beyond_the_trace() {
    // The benchmark's `ample_wide` cell, 60 cycles: a random 24-storage
    // network with 6 users per neighborhood asking 28 times a cycle out of
    // regional catalogs of 240 titles.
    let cell = Scenario::named("ample_wide");
    let arrival_cfg = ArrivalConfig { cycles: CYCLES, ..cell.arrivals.clone() };
    // The cell's network and catalog; its trace is the one measured below.
    let (topo, catalog, _, _) =
        Scenario { arrivals: ArrivalConfig { cycles: 0, ..cell.arrivals }, ..cell }.build();

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let trace = generate_arrivals(&topo, &catalog, &arrival_cfg, cell.seed);
    let peak = PEAK.load(Ordering::Relaxed) - before;

    assert_eq!(trace.len(), CYCLES * topo.user_count() * 28);
    let trace_bytes = trace.len() * std::mem::size_of::<Arrival>();
    assert!(
        peak <= trace_bytes + SLACK,
        "generate_arrivals peaked at {peak} bytes for a {trace_bytes}-byte trace \
         ({:.2}x; ceiling is the trace plus {SLACK})",
        peak as f64 / trace_bytes as f64
    );
}
