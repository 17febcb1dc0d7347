//! Allocation counts of the oracle's cold path, measured by a counting
//! global allocator: the path window allocates nothing once warm,
//! candidate collection allocates per distinct (branch, prior branch)
//! pair, never per record, and the window sweep allocates the same
//! however long the trace.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bp_core::{SweepMatrix, TagCandidates};
use bp_trace::{BranchKind, BranchRecord, PathWindow, Trace};

/// Forwards to the system allocator, counting allocations made by the
/// current thread (the test harness runs tests on parallel threads).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// A loop nest with a data-dependent branch, a back-edge, an outer loop
/// exit and a call: same-pc collisions under both tagging schemes.
fn pattern() -> Vec<BranchRecord> {
    let mut recs = Vec::new();
    for outer in 0..40u64 {
        for inner in 0..6u64 {
            recs.push(BranchRecord::conditional(0x100, (inner + outer) % 3 == 0));
            recs.push(BranchRecord::conditional(0x140, inner % 2 == 0));
            recs.push(BranchRecord::conditional(0x180, inner < 5).with_target(0x100));
        }
        recs.push(BranchRecord {
            pc: 0x1c0,
            target: 0x800,
            taken: true,
            kind: BranchKind::Call,
        });
        recs.push(BranchRecord::conditional(0x804, outer % 4 == 0));
        recs.push(BranchRecord::conditional(0x1c8, outer < 39).with_target(0x100));
    }
    recs
}

#[test]
fn warm_window_push_and_listing_allocate_nothing() {
    let recs = pattern();
    let mut window = PathWindow::new(16);
    let mut tags = Vec::with_capacity(64);
    let mut with_distance = Vec::with_capacity(64);
    let (allocations, listed) = allocations_in(|| {
        let mut listed = 0;
        for rec in &recs {
            window.visible_tags(&mut tags);
            window.visible_tags_with_distance(&mut with_distance);
            listed += tags.len() + window.entries().count();
            window.push(rec);
        }
        listed
    });
    assert!(listed > 0);
    assert_eq!(allocations, 0, "steady-state window work allocated");
}

#[test]
fn candidate_collection_allocates_per_pair_not_per_record() {
    let once = Trace::from_records(pattern());
    let four_times = Trace::from_records(pattern().repeat(4));
    // Settle any one-time, per-thread set-up before counting.
    let _ = TagCandidates::collect(&once, 16, 48);
    let (short, a) = allocations_in(|| TagCandidates::collect(&once, 16, 48));
    let (long, b) = allocations_in(|| TagCandidates::collect(&four_times, 16, 48));
    assert!(short > 0);
    assert_eq!(a.branch_count(), b.branch_count());
    assert_eq!(
        short, long,
        "allocations grew with trace length: {short} over 1x, {long} over 4x"
    );
}

#[test]
fn sweep_build_allocates_per_branch_not_per_record() {
    const WINDOWS: [usize; 3] = [4, 8, 16];
    const CAPS: [usize; 3] = [8, 16, 32];
    let once = Trace::from_records(pattern());
    let sixteen_times = Trace::from_records(pattern().repeat(16));
    let _ = SweepMatrix::build(&once, &WINDOWS, &CAPS);
    let (short, a) = allocations_in(|| SweepMatrix::build(&once, &WINDOWS, &CAPS));
    let (long, b) = allocations_in(|| SweepMatrix::build(&sixteen_times, &WINDOWS, &CAPS));
    assert!(short > 0);
    assert_eq!(
        a.materialize(0).branch_count(),
        b.materialize(0).branch_count()
    );
    // The first pass counts each branch's executions, so its plane buffer
    // is allocated once at its final size: 16x the records, same count.
    assert_eq!(
        short, long,
        "allocations grew with trace length: {short} over 1x, {long} over 16x"
    );
}
