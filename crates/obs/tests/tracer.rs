//! `obs::Tracer`: the detached handle is free, attached events carry the
//! ambient context, and `begin`/`root` close trees the recorder
//! reassembles. (An integration test because counting allocations takes
//! a global allocator, which `obs` itself — `forbid(unsafe_code)` —
//! cannot define.)

use obs::{
    actor_scope, span_scope, Actor, OpClass, Outcome, PathKind, Recorder, Span, SpanConfig, Stage,
    Tracer, NONE,
};
use sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (tests run on parallel threads).
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

fn us(n: u64) -> SimTime {
    SimTime::from_micros(n)
}

fn write(stage: Stage, start: u64, end: u64) -> Span {
    Span::new(OpClass::Write, stage, us(start), us(end))
}

#[test]
fn detached_tracer_records_nothing_and_allocates_nothing() {
    let rec = Recorder::new(64, 1);
    rec.enable_spans(SpanConfig::default());
    let tracer = Tracer::new();
    assert_eq!(tracer.device(), None);

    let before = ALLOCS.with(Cell::get);
    for i in 0..1000u64 {
        let open = tracer.begin();
        assert_eq!(open.id(), 0, "a detached tracer allocates no span ids");
        tracer.lock_mark(OpClass::Write, 3, us(i));
        tracer.leaf(write(Stage::DeviceIo, i, i + 1).zone(3).lba(i).sectors(8));
        tracer.root(&open, write(Stage::WholeOp, i, i + 1));
    }
    assert_eq!(ALLOCS.with(Cell::get), before, "detached calls allocated");

    // The recorder nobody attached saw none of it.
    assert_eq!(rec.next_seq(), 0);
    assert_eq!(rec.span_roots(), 0);
}

#[test]
fn attached_events_allocate_nothing_after_warm_up() {
    let rec = Recorder::new(64, 1);
    rec.enable_spans(SpanConfig::default());
    let tracer = Tracer::new();
    tracer.attach(rec.clone(), NONE);
    let op = |i: u64| {
        let open = tracer.begin();
        tracer.leaf(write(Stage::DeviceIo, i, i + 1));
        tracer.root(&open, write(Stage::WholeOp, i, i + 2));
    };
    (0..256).for_each(op); // thread-local tree buffer reaches capacity
    let before = ALLOCS.with(Cell::get);
    (256..512).for_each(op);
    assert_eq!(ALLOCS.with(Cell::get), before);
    assert_eq!(rec.span_roots(), 512);
}

#[test]
fn ambient_span_and_actor_become_parent_and_blame() {
    let rec = Recorder::new(64, 1);
    let tracer = Tracer::new();
    tracer.attach(rec.clone(), 4);
    assert_eq!(tracer.device(), Some(4));

    tracer.leaf(write(Stage::Xor, 0, 1));
    {
        let _span = span_scope(77);
        let _actor = actor_scope(Actor::Gc);
        tracer.leaf(
            write(Stage::DeviceIo, 1, 2)
                .path(PathKind::PpLog)
                .zone(9)
                .lba(40)
                .sectors(8)
                .outcome(Outcome::Transient),
        );
        // Overrides: another device id, a stall behind someone else's
        // work, a stall behind our own, and a top-level event.
        tracer.leaf(write(Stage::QueueWait, 2, 3).device(12));
        tracer.leaf(write(Stage::DeviceWait, 3, 4).behind(Actor::Lifecycle));
        tracer.leaf(write(Stage::DeviceWait, 4, 5).behind(Actor::Gc));
        tracer.leaf(write(Stage::WholeOp, 5, 6).top());
    }

    let ev = rec.events();
    assert_eq!(ev.len(), 6);
    // Outside any scope: root-level, unblamed, every default in place.
    assert_eq!((ev[0].parent, ev[0].blame, ev[0].span), (0, Actor::None, 0));
    assert_eq!(
        (ev[0].device, ev[0].zone, ev[0].lba, ev[0].sectors),
        (4, NONE, 0, 0)
    );
    assert_eq!((ev[0].path, ev[0].outcome), (None, Outcome::Success));
    // Inside: the ambient span is the parent, the ambient actor the blame.
    assert_eq!((ev[1].parent, ev[1].blame), (77, Actor::Gc));
    assert_eq!((ev[1].zone, ev[1].lba, ev[1].sectors), (9, 40, 8));
    assert_eq!(
        (ev[1].path, ev[1].outcome),
        (Some(PathKind::PpLog), Outcome::Transient)
    );
    assert_eq!((ev[2].device, ev[2].parent), (12, 77));
    assert_eq!(ev[3].blame, Actor::Lifecycle);
    assert_eq!(
        ev[4].blame,
        Actor::None,
        "queueing behind one's own actor is no interference"
    );
    assert_eq!((ev[5].parent, ev[5].blame), (0, Actor::None));
}

#[test]
fn begin_and_root_close_a_tree_the_recorder_reassembles() {
    let rec = Recorder::new(256, 1);
    rec.enable_spans(SpanConfig {
        slow: Some(sim::SimDuration::from_nanos(1)),
        keep_slowest: None,
    });
    let tracer = Tracer::new();
    tracer.attach(rec.clone(), NONE);

    // An engine-level op wrapping a volume-level op with two leaves.
    let outer = tracer.begin();
    assert_eq!(obs::current_span(), outer.id());
    {
        let inner = tracer.begin();
        assert_ne!(inner.id(), outer.id());
        tracer.lock_mark(OpClass::Write, 2, us(0));
        tracer.leaf(write(Stage::DeviceIo, 0, 6).device(1));
        tracer.leaf(write(Stage::MetaAppend, 6, 8));
        tracer.root(&inner, write(Stage::WholeOp, 0, 8).zone(2));
    }
    assert_eq!(
        obs::current_span(),
        outer.id(),
        "inner guard restores the ambient span"
    );
    assert_eq!(rec.span_roots(), 0, "a nested root does not close the tree");
    tracer.root(&outer, write(Stage::WholeOp, 0, 10).top());
    drop(outer);
    assert_eq!(obs::current_span(), 0);

    assert_eq!(rec.span_roots(), 1);
    assert_eq!(rec.span_orphans(), 0);
    let slow = rec.slow_ops();
    assert_eq!(slow.len(), 1);
    let tree = &slow[0];
    assert_eq!(
        tree.events.len(),
        5,
        "root, nested root, lock mark, two leaves"
    );
    assert_eq!(tree.latency_ns, 10_000);
    assert_eq!(tree.segments.iter().sum::<u64>(), tree.latency_ns);
    let seg = |name: &str| {
        let k = obs::BLAME_CATEGORIES
            .iter()
            .position(|c| *c == name)
            .unwrap();
        tree.segments[k]
    };
    assert_eq!(seg("device_service"), 6_000);
    assert_eq!(seg("meta"), 2_000);
    assert_eq!(seg("other"), 2_000, "the uncovered tail of the outer op");

    // With span tracing off the lock marker is skipped, the rest records.
    let plain = Recorder::new(16, 1);
    let t2 = Tracer::new();
    t2.attach(plain.clone(), NONE);
    let open = t2.begin();
    assert_eq!(open.id(), 0);
    t2.lock_mark(OpClass::Read, 0, us(0));
    t2.root(
        &open,
        Span::new(OpClass::Read, Stage::WholeOp, us(0), us(1)),
    );
    assert_eq!(plain.events().len(), 1);
}

#[test]
#[should_panic(expected = "already attached")]
fn a_tracer_attaches_once() {
    let tracer = Tracer::new();
    tracer.attach(Recorder::new(8, 1), NONE);
    tracer.attach(Recorder::new(8, 1), NONE);
}
