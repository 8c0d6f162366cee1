//! Plant measurements read the rack's shared servers in place:
//! `measure_active` and `measure` allocate only their result, and the
//! throughput totals the Manual policy's oracle searches with allocate
//! nothing.
//!
//! A test binary of its own because it installs a counting global
//! allocator. Counts are kept per thread, so tests running beside these
//! on other threads do not disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use greenhetero_core::types::{Ratio, Watts};
use greenhetero_server::rack::{Combination, Rack};
use greenhetero_server::workload::WorkloadKind;

struct CountingAlloc;

thread_local! {
    /// Heap allocation calls made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while this thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: defers every operation to `System`; the counter is a
// const-initialised thread-local `Cell`, which never allocates and has no
// destructor.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocation calls it made on
/// this thread.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = std::hint::black_box(f());
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Comb1 (two groups) and Comb5 (three) with per-server allocations and
/// online counts: one group partly crashed and, on Comb5, one dark.
fn cases() -> [(Combination, Vec<Watts>, Vec<u32>); 2] {
    [
        (
            Combination::Comb1,
            vec![Watts::new(120.0), Watts::new(75.0)],
            vec![5, 3],
        ),
        (
            Combination::Comb5,
            vec![Watts::new(120.0), Watts::new(90.0), Watts::new(75.0)],
            vec![5, 0, 3],
        ),
    ]
}

#[test]
fn measurements_allocate_only_their_result() {
    for (comb, alloc, online) in cases() {
        let rack = Rack::combination(comb, 5, WorkloadKind::SpecJbb).unwrap();
        let (m, n) = allocations_during(|| rack.measure_active(&alloc, &online, Ratio::ONE));
        assert_eq!(n, 1, "{comb}: measure_active made {n} allocations");
        assert_eq!(m.groups.len(), alloc.len());
        let (m, n) = allocations_during(|| rack.measure(&alloc, Ratio::ONE));
        assert_eq!(n, 1, "{comb}: measure made {n} allocations");
        assert_eq!(m.groups.len(), alloc.len());
    }
}

#[test]
fn oracle_totals_allocate_nothing() {
    for (comb, alloc, online) in cases() {
        let rack = Rack::combination(comb, 5, WorkloadKind::SpecJbb).unwrap();
        let (total, n) =
            allocations_during(|| rack.measured_throughput_active(&alloc, &online, Ratio::ONE));
        assert_eq!(n, 0, "{comb}: the oracle total made {n} allocations");
        assert!(total.value() > 0.0);
        let (total, n) = allocations_during(|| rack.measured_throughput(&alloc, Ratio::ONE));
        assert_eq!(n, 0, "{comb}: measured_throughput made {n} allocations");
        assert!(total.value() > 0.0);
    }
}
