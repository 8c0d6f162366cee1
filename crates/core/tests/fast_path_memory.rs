//! A rack's solver fast path holds one previous solve and its engine
//! scratch, whatever the number of distinct problems it has seen: the
//! answers other racks already computed live in the fleet's one
//! `SharedSolveCache`, not in a per-rack copy. It overwrites that
//! previous solve in place, so an answer the shared cache holds costs
//! only the copy handed back.
//!
//! A test binary of its own because it installs a counting global
//! allocator. Live bytes and allocation calls are kept per thread, so
//! tests running beside these on other threads do not disturb them.

// Integration-test helpers sit outside `#[test]` fns, where the
// allow-*-in-tests clippy knobs do not reach; panicking is fine here.
#![allow(clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use greenhetero_core::database::{PerfModel, Quadratic};
use greenhetero_core::solver::{
    AllocationProblem, ServerGroup, SharedSolveCache, SolverFastPath, DEFAULT_SHARED_SOLVE_CAPACITY,
};
use greenhetero_core::types::{ConfigId, PowerRange, Watts};

struct CountingAlloc;

thread_local! {
    /// Heap bytes this thread has allocated and not yet freed.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// Allocation and reallocation calls this thread has made.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn track(delta: i64) {
    // `try_with`: the allocator also runs while this thread's locals are
    // being torn down.
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + delta));
}

fn track_alloc(delta: i64) {
    track(delta);
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn bytes(size: usize) -> i64 {
    i64::try_from(size).unwrap_or(i64::MAX)
}

// SAFETY: defers every operation to `System`; the counter is a
// const-initialised thread-local `Cell`, which never allocates and has no
// destructor.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track_alloc(bytes(layout.size()));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track_alloc(bytes(layout.size()));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track_alloc(bytes(new_size) - bytes(layout.size()));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-bytes(layout.size()));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A three-type rack at `budget` watts.
fn problem(budget: f64) -> AllocationProblem {
    let groups = (0..3u32)
        .map(|i| {
            let idle = 40.0 + f64::from(i) * 12.0;
            let peak = 90.0 + f64::from(i) * 22.0;
            let envelope =
                PowerRange::new(Watts::new(idle), Watts::new(peak)).expect("idle is below peak");
            let curve = Quadratic {
                l: -500.0 - f64::from(i) * 100.0,
                m: 30.0 + f64::from(i) * 5.0,
                n: -0.06 - f64::from(i) * 0.01,
            };
            ServerGroup::new(ConfigId::new(i), 5, PerfModel::new(curve, envelope))
                .expect("group is valid")
        })
        .collect();
    AllocationProblem::new(groups, Watts::new(budget)).expect("problem is valid")
}

/// 100 problems whose budgets all differ, so reuse never answers.
fn distinct_problems() -> Vec<AllocationProblem> {
    (0..100)
        .map(|i| problem(900.0 + 2.5 * f64::from(i)))
        .collect()
}

#[test]
fn distinct_solves_do_not_grow_the_fast_path() {
    let problems = distinct_problems();
    let mut fast = SolverFastPath::default();
    let start = live_bytes();
    let solve = |fast: &mut SolverFastPath, p: &AllocationProblem| {
        drop(std::hint::black_box(fast.solve(p).expect("solve succeeds")));
    };
    solve(&mut fast, &problems[0]);
    let after_first = live_bytes() - start;
    for p in &problems[1..] {
        solve(&mut fast, p);
    }
    let after_all = live_bytes() - start;
    assert_eq!(fast.stats().warm_starts, 0, "every budget is distinct");
    assert!(
        after_all <= after_first,
        "the fast path grew from {after_first} to {after_all} live heap bytes over 100 \
         distinct solves"
    );
}

#[test]
fn a_shared_cache_answer_costs_only_the_returned_copy() {
    let problems = distinct_problems();
    let cache = Arc::new(SharedSolveCache::new(DEFAULT_SHARED_SOLVE_CAPACITY));
    let mut filler = SolverFastPath::new();
    filler.set_shared_cache(Some(Arc::clone(&cache)));
    for p in &problems {
        filler.solve(p).expect("filling solve succeeds");
    }
    let mut reader = SolverFastPath::new();
    reader.set_shared_cache(Some(cache));
    let solve = |fast: &mut SolverFastPath, p: &AllocationProblem| {
        drop(std::hint::black_box(fast.solve(p).expect("solve succeeds")));
    };
    solve(&mut reader, &problems[0]);
    let start = allocs();
    for p in &problems[1..] {
        solve(&mut reader, p);
    }
    let solves = problems.len() as u64 - 1;
    let made = allocs() - start;
    assert_eq!(reader.stats().warm_starts, 0, "every budget is distinct");
    // The two buffers of the allocation the shared cache hands back;
    // the fast path's own copy of the last solve is overwritten in place.
    assert_eq!(
        made,
        2 * solves,
        "{made} allocations over {solves} shared-cache hits"
    );
}
