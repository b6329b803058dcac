//! The process-wide payload pool: a scheduler built after another has
//! drained writes from the first one's buffers. (An integration test of
//! its own because it counts allocations, which takes a global
//! allocator, and because the pool is shared by every scheduler in the
//! process, so no other test may run beside it.)

use qos::{QosConfig, QosScheduler, TenantSpec};
use sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use workloads::{SchedCompletion, SharedScheduler, ZonedTarget};
use zns::{ZnsConfig, ZnsDevice, SECTOR_SIZE};

thread_local! {
    /// Allocations made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates directly to `System`; the counter is a const-
// initialized thread-local `Cell` (no lazy init, no destructor), so
// touching it never re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Ops in flight in a round: each holds its own payload buffer.
const DEPTH: u64 = 8;

/// Submits `DEPTH` sequential 64 KiB writes from `*off`, then steps until
/// all complete. Returns the allocations the round made.
fn round(sched: &QosScheduler, off: &mut u64, comps: &mut Vec<SchedCompletion>) -> u64 {
    let data = vec![0x5Au8; 16 * SECTOR_SIZE as usize];
    let before = ALLOCS.with(Cell::get);
    for _ in 0..DEPTH {
        sched
            .submit_write(0, 0, SimTime::ZERO, *off, &data)
            .unwrap()
            .admitted("pool round write")
            .unwrap();
        *off += 16;
    }
    let mut done = 0;
    while done < DEPTH {
        comps.clear();
        assert!(sched.step(comps).unwrap(), "idle with ops outstanding");
        done += comps.len() as u64;
    }
    ALLOCS.with(Cell::get) - before
}

#[test]
fn a_second_scheduler_writes_from_the_first_ones_buffers() {
    let target = Arc::new(ZonedTarget::new(Arc::new(ZnsDevice::new(
        ZnsConfig::builder()
            .zones(4, 4096, 4096)
            .store_data(false)
            .build(),
    ))));
    let build = || {
        QosScheduler::new(
            target.clone(),
            QosConfig::default(),
            vec![TenantSpec::new("t")],
        )
        .unwrap()
    };
    let mut comps = Vec::with_capacity(DEPTH as usize);
    let mut off = 0;
    let first = build();
    // Every op in flight copies its payload into a buffer of its own.
    assert!(round(&first, &mut off, &mut comps) >= DEPTH);
    drop(first);
    let second = build();
    assert_eq!(
        round(&second, &mut off, &mut comps),
        0,
        "a drained scheduler's payload buffers serve the next one"
    );
}
