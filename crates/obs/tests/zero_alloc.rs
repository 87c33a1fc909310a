//! Allocation-count guard for steady-state metric recording.
//!
//! Counters are plain integer fields in the layers that own them; the
//! only recorded type in this crate is the histogram, which allocates
//! its buckets at construction. After that, `record`, quantile reads and
//! `merge_from` are pure indexed arithmetic. This pins that with the same
//! counting-global-allocator idiom as `crates/fleet/tests/zero_alloc.rs`,
//! so recording into histograms inside the fleet's guarded steady-state
//! loops cannot regress their own zero-alloc proofs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn record() {
        let _ = ARMED.try_with(|armed| {
            if armed.get() {
                let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            }
        });
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn count_allocs(f: impl FnOnce()) -> usize {
    ALLOCS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(|c| c.get())
}

use sad_obs::Histogram;

#[test]
fn steady_state_recording_is_allocation_free() {
    let mut latency = Histogram::log2(1e-6, 16.0);
    let mut scores = Histogram::linear(0.0, 1.0, 20);

    // Touch everything once before arming (nothing lazy should exist, but
    // the guard must measure steady state, not first use).
    latency.record(1e-4);
    scores.record(0.5);

    let n = count_allocs(|| {
        for i in 0..10_000u64 {
            latency.record(1e-6 * (1 + i % 1000) as f64);
            scores.record((i % 100) as f64 / 100.0);
        }
    });
    assert_eq!(n, 0, "steady-state recording must not allocate, saw {n}");
    assert_eq!(latency.count(), 10_001);
}

#[test]
fn histogram_reads_are_allocation_free() {
    let mut h = Histogram::log2(1e-6, 16.0);
    for i in 0..1000u64 {
        h.record(1e-6 * (1 + i) as f64);
    }
    let mut acc = 0.0f64;
    let n = count_allocs(|| {
        for _ in 0..1000 {
            acc += h.quantile(0.50) + h.quantile(0.99) + h.mean();
        }
    });
    assert_eq!(n, 0, "quantile/mean reads must not allocate, saw {n}");
    assert!(acc.is_finite());
}

#[test]
fn merge_of_preallocated_histograms_is_allocation_free() {
    let mut a = Histogram::linear(0.0, 1.0, 8);
    let mut b = Histogram::linear(0.0, 1.0, 8);
    b.record(0.4);
    let n = count_allocs(|| {
        a.merge_from(&b);
    });
    assert_eq!(n, 0, "same-bounds merge must not allocate, saw {n}");
    assert_eq!(a.count(), 1);
}
