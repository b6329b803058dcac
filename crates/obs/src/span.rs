//! Causal span tracing: per-op blame trees, critical-path attribution
//! and tail-sampled slow-op capture.
//!
//! Every top-level operation (a volume write, an engine op, a QoS
//! dispatch batch) allocates a `span_id` from its recorder
//! ([`crate::Recorder::new_span`]) and publishes it as the thread's
//! *ambient* span ([`span_scope`]); every child event recorded while the
//! scope is active carries a `parent_span` link back to it. When the
//! root's own event is recorded (span set, parent 0) the recorder
//! reassembles the per-op **blame tree** from a thread-local buffer and
//! feeds it to the critical-path analyzer ([`blame_segments`]), which
//! partitions the op's wall latency into exclusive per-category
//! segments ([`BLAME_CATEGORIES`]).
//!
//! Design constraints (mirroring the recorder's):
//!
//! - **Allocation-free steady state.** The thread-local tree buffer, the
//!   membership/order scratch, the latency reservoir and the K-slowest
//!   store all reach a fixed footprint during warm-up and are reused
//!   (cleared, never shrunk) afterwards, so the 0-alloc write-path gate
//!   holds with span tracing enabled.
//! - **Tail sampling.** Full trees are retained only for ops whose
//!   latency meets the slow threshold — a rolling p99 of recent root
//!   latencies by default, or an explicit cutoff
//!   ([`SpanConfig::slow`]). Every root still contributes to the
//!   per-tenant blame table; only the event-level tree is sampled.
//! - **Deterministic.** Span ids come from one per-recorder counter and
//!   all tree timestamps are virtual, so single-threaded same-seed runs
//!   produce byte-identical span trees (asserted by the replay suites).
//!   Wall-clock lock waits never enter the tree: `LockWait` events are
//!   zero-width virtual markers.

use crate::{Recorder, Stage, TraceEvent, NONE};
use parking_lot::Mutex;
use sim::{SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// The actor a traced span runs on behalf of.
///
/// Foreground IO that stalls on a device occupancy unit last used by a
/// *different* actor records that actor in the `DeviceWait` event's
/// blame field; the analyzer maps it to the interference categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum Actor {
    /// No attributed actor (the ambient default).
    #[default]
    None = 0,
    /// Foreground (tenant) IO.
    Foreground = 1,
    /// Background zone-lifecycle management.
    Lifecycle = 2,
    /// Failed-device rebuild.
    Rebuild = 3,
    /// Background scrub.
    Scrub = 4,
    /// Log-structured RAID garbage collection.
    Gc = 5,
}

impl Actor {
    /// Stable lower-case name (used by the JSON exporters).
    pub fn name(self) -> &'static str {
        match self {
            Actor::None => "none",
            Actor::Foreground => "foreground",
            Actor::Lifecycle => "lifecycle",
            Actor::Rebuild => "rebuild",
            Actor::Scrub => "scrub",
            Actor::Gc => "gc",
        }
    }

    /// The wire encoding used where layers cannot depend on `obs` (the
    /// sim occupancy model tags units with a raw `u8`).
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Actor::as_u8`]; unknown values decode to `None`.
    pub fn from_u8(v: u8) -> Actor {
        match v {
            1 => Actor::Foreground,
            2 => Actor::Lifecycle,
            3 => Actor::Rebuild,
            4 => Actor::Scrub,
            5 => Actor::Gc,
            _ => Actor::None,
        }
    }
}

thread_local! {
    static CUR_SPAN: Cell<u64> = const { Cell::new(0) };
    static CUR_ACTOR: Cell<u8> = const { Cell::new(0) };
    static TREE: RefCell<TreeBuf> = RefCell::new(TreeBuf::new());
}

/// The thread's ambient span id (0 when none is active). Layers record
/// it as their events' `parent` so child work links to the enclosing op.
pub fn current_span() -> u64 {
    CUR_SPAN.with(|c| c.get())
}

/// The thread's ambient actor ([`Actor::None`] when none is active).
pub fn current_actor() -> Actor {
    CUR_ACTOR.with(|c| Actor::from_u8(c.get()))
}

/// Drop guard restoring the previous ambient span (see [`span_scope`]).
#[derive(Debug)]
pub struct SpanScope {
    prev: u64,
    _not_send: PhantomData<*const ()>,
}

/// Publishes `id` as the thread's ambient span until the guard drops.
/// Passing 0 (spans disabled) is cheap and harmless.
pub fn span_scope(id: u64) -> SpanScope {
    let prev = CUR_SPAN.with(|c| c.replace(id));
    SpanScope {
        prev,
        _not_send: PhantomData,
    }
}

impl Drop for SpanScope {
    fn drop(&mut self) {
        CUR_SPAN.with(|c| c.set(self.prev));
    }
}

/// Drop guard restoring the previous ambient actor (see [`actor_scope`]).
#[derive(Debug)]
pub struct ActorScope {
    prev: u8,
    _not_send: PhantomData<*const ()>,
}

/// Publishes `actor` as the thread's ambient actor until the guard
/// drops. Device occupancy units touched inside the scope are tagged
/// with it, which is what lets a later foreground stall blame this
/// actor.
pub fn actor_scope(actor: Actor) -> ActorScope {
    let prev = CUR_ACTOR.with(|c| c.replace(actor.as_u8()));
    ActorScope {
        prev,
        _not_send: PhantomData,
    }
}

impl Drop for ActorScope {
    fn drop(&mut self) {
        CUR_ACTOR.with(|c| c.set(self.prev));
    }
}

/// Number of exclusive blame categories.
pub const NCATS: usize = 11;

/// Exclusive blame categories, in [`blame_segments`] index order.
pub const BLAME_CATEGORIES: [&str; NCATS] = [
    "queue",
    "lock",
    "device_wait",
    "device_service",
    "xor_gf",
    "meta",
    "flush",
    "interference_lifecycle",
    "interference_rebuild",
    "interference_gc",
    "other",
];

const CAT_QUEUE: usize = 0;
const CAT_LOCK: usize = 1;
const CAT_DEVICE_WAIT: usize = 2;
const CAT_DEVICE_SERVICE: usize = 3;
const CAT_XOR: usize = 4;
const CAT_META: usize = 5;
const CAT_FLUSH: usize = 6;
const CAT_INT_LIFECYCLE: usize = 7;
const CAT_INT_REBUILD: usize = 8;
const CAT_INT_GC: usize = 9;
const CAT_OTHER: usize = 10;

/// The category an event's *own* (exclusive) time is attributed to.
fn category(ev: &TraceEvent) -> usize {
    match ev.stage {
        Stage::QueueWait => CAT_QUEUE,
        Stage::LockWait => CAT_LOCK,
        Stage::DeviceWait => match ev.blame {
            Actor::Lifecycle => CAT_INT_LIFECYCLE,
            Actor::Rebuild | Actor::Scrub => CAT_INT_REBUILD,
            Actor::Gc => CAT_INT_GC,
            _ => CAT_DEVICE_WAIT,
        },
        Stage::DeviceIo => CAT_DEVICE_SERVICE,
        Stage::Xor => CAT_XOR,
        Stage::MetaAppend => CAT_META,
        Stage::Flush => CAT_FLUSH,
        Stage::Service | Stage::WholeOp => CAT_OTHER,
    }
}

/// Bound on pathological parent chains (a well-formed tree is ~5 deep).
const MAX_DEPTH: usize = 32;

/// Per-level sweep stack capacity: the most simultaneously-overlapping
/// children of one span that still get innermost-wins resolution.
/// Further children are claimed inline in start order — deterministic
/// and still an exact partition, just coarser.
const SWEEP_STACK: usize = 64;

struct Attribution<'a> {
    tree: &'a [TraceEvent],
    order: &'a [usize],
    out: [u64; NCATS],
}

impl Attribution<'_> {
    /// Claims `[cs, ce)` for child `i`: sub-spans recurse, leaves add
    /// their category.
    fn claim(&mut self, i: usize, cs: u64, ce: u64, depth: usize) {
        let e = &self.tree[i];
        if e.span != 0 {
            self.attribute(e.span, cs, ce, category(e), depth + 1);
        } else {
            self.out[category(e)] += ce - cs;
        }
    }

    /// Attributes the window `[ws, we)` owned by span `span` (whose own
    /// stage maps to `self_cat`). An interval sweep over the span's
    /// children resolves overlap innermost-first: at any instant the
    /// covering child with the latest start (ties: later end of
    /// [`tree_order`], i.e. shortest interval, leaves inside sub-spans)
    /// claims it, so an enveloping event — a parity-pipeline `Xor`
    /// overlapping its device legs — keeps only the time none of its
    /// overlapped siblings explains. Time no child covers falls to the
    /// owner's category.
    fn attribute(&mut self, span: u64, ws: u64, we: u64, self_cat: usize, depth: usize) {
        let mut cursor = ws;
        if depth < MAX_DEPTH {
            // `(end, child)` entries, pushed in [`tree_order`]: the top
            // is the innermost child active at the cursor.
            let mut stack = [(0u64, 0usize); SWEEP_STACK];
            let mut top = 0usize;
            for &i in self.order {
                let e = &self.tree[i];
                if e.parent != span || e.span == span {
                    continue;
                }
                let cs = e.start.as_nanos().clamp(ws, we);
                let ce = e.end.as_nanos().clamp(cs, we);
                // Settle inner children that end before this one starts.
                while top > 0 && stack[top - 1].0 <= cs {
                    let (end, j) = stack[top - 1];
                    top -= 1;
                    if end > cursor {
                        self.claim(j, cursor, end, depth);
                        cursor = end;
                    }
                }
                if cs > cursor {
                    // Up to this child's start the enclosing sibling
                    // resumes; with none active the owner keeps the gap.
                    if top > 0 {
                        self.claim(stack[top - 1].1, cursor, cs, depth);
                    } else {
                        self.out[self_cat] += cs - cursor;
                    }
                    cursor = cs;
                }
                if top < SWEEP_STACK {
                    stack[top] = (ce, i);
                    top += 1;
                } else if ce > cursor {
                    self.claim(i, cursor, ce, depth);
                    cursor = ce;
                }
            }
            while top > 0 {
                let (end, j) = stack[top - 1];
                top -= 1;
                let end = end.min(we);
                if end > cursor {
                    self.claim(j, cursor, end, depth);
                    cursor = end;
                }
            }
        }
        if we > cursor {
            self.out[self_cat] += we - cursor;
        }
    }
}

/// Attribution sweep sort key: by start, then longest interval first
/// (an envelope precedes — and in the sweep sits below — the inner
/// events it covers), leaves before sub-spans at exact interval ties
/// (the sub-span's detailed children win over a flat `Service`
/// envelope), record order last for determinism.
pub fn tree_order(e: &TraceEvent) -> (SimTime, std::cmp::Reverse<SimTime>, bool, u64) {
    (e.start, std::cmp::Reverse(e.end), e.span != 0, e.seq)
}

/// Critical-path analyzer: partitions `root`'s wall latency into
/// exclusive per-category segments.
///
/// `tree` holds the root plus its descendants (any order); `order` must
/// index `tree` in [`tree_order`]. The partition is exact: the returned
/// segments sum to `root.duration()` in nanoseconds. Overlap between
/// siblings is resolved innermost-first (latest start wins, so a fully
/// hidden pipeline stage gets zero exclusive time); time not covered by
/// any child falls to the covering span's own category (`other` for
/// `WholeOp`/`Service` envelopes).
pub fn blame_segments(tree: &[TraceEvent], order: &[usize], root: &TraceEvent) -> [u64; NCATS] {
    let mut a = Attribution {
        tree,
        order,
        out: [0; NCATS],
    };
    a.attribute(
        root.span,
        root.start.as_nanos(),
        root.end.as_nanos(),
        category(root),
        0,
    );
    a.out
}

/// Tail-sampling configuration for [`crate::Recorder::enable_spans`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanConfig {
    /// Explicit slow-op threshold. `None` (default) uses a rolling p99
    /// of recent root latencies, recomputed every 128 closed roots over
    /// a 512-sample reservoir.
    pub slow: Option<SimDuration>,
    /// How many slowest ops retain their full event tree (default 8).
    pub keep_slowest: Option<usize>,
}

/// Default number of slowest ops whose full tree is retained.
pub const DEFAULT_KEEP_SLOWEST: usize = 8;

/// Maximum events retained per captured slow-op tree; longer trees are
/// truncated (counted in the `truncated_events` export field).
pub const MAX_TREE_EVENTS: usize = 96;

/// Per-thread buffer capacity backstop: if error paths leak this many
/// unclosed events, the buffer is flushed and counted as orphans.
const TREE_BUF_CAP: usize = 8192;

const RESERVOIR: usize = 512;
const RECOMPUTE_EVERY: u64 = 128;
const WARM_MIN: usize = 64;

/// Blame-table rows: tenants 0..15 get their own row, everything else
/// (untenanted roots, tenants >= 16) folds into the last row.
const TENANT_ROWS: usize = 17;
const ROW_WIDTH: usize = 2 + NCATS; // count, total_ns, categories

struct TreeBuf {
    rec_id: u64,
    events: Vec<TraceEvent>,
    members: Vec<u64>,
    order: Vec<usize>,
}

impl TreeBuf {
    fn new() -> Self {
        TreeBuf {
            rec_id: 0,
            events: Vec::new(),
            members: Vec::new(),
            order: Vec::new(),
        }
    }
}

struct Reservoir {
    ring: Vec<u64>,
    n: usize,
    idx: usize,
    closes: u64,
    scratch: Vec<u64>,
}

impl Reservoir {
    fn new() -> Self {
        Reservoir {
            ring: vec![0; RESERVOIR],
            n: 0,
            idx: 0,
            closes: 0,
            scratch: Vec::with_capacity(RESERVOIR),
        }
    }

    fn push(&mut self, lat: u64) {
        self.ring[self.idx] = lat;
        self.idx = (self.idx + 1) % RESERVOIR;
        self.n = (self.n + 1).min(RESERVOIR);
        self.closes += 1;
    }

    fn due(&self) -> bool {
        self.n >= WARM_MIN && self.closes.is_multiple_of(RECOMPUTE_EVERY)
    }

    fn p99(&mut self) -> u64 {
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.ring[..self.n]);
        self.scratch.sort_unstable();
        self.scratch[(self.n * 99 / 100).min(self.n - 1)]
    }
}

struct SlowSlot {
    latency_ns: u64, // 0 = empty
    root: TraceEvent,
    segments: [u64; NCATS],
    events: Vec<TraceEvent>,
    truncated: u64,
}

struct SlowStore {
    slots: Vec<SlowSlot>,
}

impl SlowStore {
    fn new(k: usize) -> Self {
        SlowStore {
            slots: (0..k.max(1))
                .map(|_| SlowSlot {
                    latency_ns: 0,
                    root: TraceEvent::empty(),
                    segments: [0; NCATS],
                    events: Vec::with_capacity(MAX_TREE_EVENTS),
                    truncated: 0,
                })
                .collect(),
        }
    }

    /// The latency a new op must exceed to enter the store: 0 while any
    /// slot is empty, else the minimum retained latency.
    fn gate(&self) -> u64 {
        self.slots.iter().map(|s| s.latency_ns).min().unwrap_or(0)
    }
}

/// A retained slow operation: its root, exclusive blame segments and
/// (possibly truncated) event tree, start-sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowOp {
    /// The root (whole-op) event.
    pub root: TraceEvent,
    /// Root wall latency in virtual nanoseconds.
    pub latency_ns: u64,
    /// Exclusive per-category segments, [`BLAME_CATEGORIES`] order.
    pub segments: [u64; NCATS],
    /// The tree's events sorted by start (root included).
    pub events: Vec<TraceEvent>,
    /// Tree events dropped because the tree exceeded
    /// [`MAX_TREE_EVENTS`].
    pub truncated: u64,
}

/// One tenant row of the aggregate blame table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlameRow {
    /// Tenant id (the root event's `device` field), or [`NONE`] for the
    /// catch-all row.
    pub tenant: u32,
    /// Roots closed into this row.
    pub count: u64,
    /// Total root wall latency (virtual ns).
    pub total_ns: u64,
    /// Exclusive per-category ns, [`BLAME_CATEGORIES`] order.
    pub categories: [u64; NCATS],
}

/// Per-recorder span-tracing state. All memory is allocated at
/// [`SpanState::new`]; the close path only touches preallocated
/// structures and atomics.
pub(crate) struct SpanState {
    pub(crate) rec_id: u64,
    next_span: AtomicU64,
    explicit_slow_ns: AtomicU64,
    threshold_ns: AtomicU64,
    reservoir: Mutex<Reservoir>,
    blame: Vec<AtomicU64>,
    slow: Mutex<SlowStore>,
    slow_gate: AtomicU64,
    roots: AtomicU64,
    orphans: AtomicU64,
    truncated: AtomicU64,
}

/// Distinguishes recorders for the thread-local tree buffer binding.
static REC_IDS: AtomicU64 = AtomicU64::new(1);

impl SpanState {
    pub(crate) fn new(cfg: SpanConfig) -> Self {
        let state = SpanState {
            rec_id: REC_IDS.fetch_add(1, Ordering::Relaxed),
            next_span: AtomicU64::new(1),
            explicit_slow_ns: AtomicU64::new(0),
            threshold_ns: AtomicU64::new(0),
            reservoir: Mutex::new(Reservoir::new()),
            blame: (0..TENANT_ROWS * ROW_WIDTH)
                .map(|_| AtomicU64::new(0))
                .collect(),
            slow: Mutex::new(SlowStore::new(
                cfg.keep_slowest.unwrap_or(DEFAULT_KEEP_SLOWEST),
            )),
            slow_gate: AtomicU64::new(0),
            roots: AtomicU64::new(0),
            orphans: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
        };
        state.configure(cfg);
        state
    }

    pub(crate) fn configure(&self, cfg: SpanConfig) {
        let ns = cfg.slow.map_or(0, |d| d.as_nanos());
        self.explicit_slow_ns.store(ns, Ordering::Relaxed);
        if ns != 0 {
            self.threshold_ns.store(ns, Ordering::Relaxed);
        }
    }

    pub(crate) fn alloc_span(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn roots(&self) -> u64 {
        self.roots.load(Ordering::Relaxed)
    }

    pub(crate) fn orphans(&self) -> u64 {
        self.orphans.load(Ordering::Relaxed)
    }

    pub(crate) fn truncated(&self) -> u64 {
        self.truncated.load(Ordering::Relaxed)
    }

    pub(crate) fn threshold_ns(&self) -> u64 {
        self.threshold_ns.load(Ordering::Relaxed)
    }

    pub(crate) fn blame_rows(&self) -> Vec<BlameRow> {
        (0..TENANT_ROWS)
            .filter_map(|row| {
                let base = row * ROW_WIDTH;
                let count = self.blame[base].load(Ordering::Relaxed);
                if count == 0 {
                    return None;
                }
                let mut categories = [0u64; NCATS];
                for (k, c) in categories.iter_mut().enumerate() {
                    *c = self.blame[base + 2 + k].load(Ordering::Relaxed);
                }
                Some(BlameRow {
                    tenant: if row + 1 == TENANT_ROWS {
                        NONE
                    } else {
                        row as u32
                    },
                    count,
                    total_ns: self.blame[base + 1].load(Ordering::Relaxed),
                    categories,
                })
            })
            .collect()
    }

    pub(crate) fn slow_ops(&self) -> Vec<SlowOp> {
        let store = self.slow.lock();
        let mut out: Vec<SlowOp> = store
            .slots
            .iter()
            .filter(|s| s.latency_ns > 0)
            .map(|s| SlowOp {
                root: s.root,
                latency_ns: s.latency_ns,
                segments: s.segments,
                events: s.events.clone(),
                truncated: s.truncated,
            })
            .collect();
        out.sort_by_key(|s| (std::cmp::Reverse(s.latency_ns), s.root.seq));
        out
    }

    /// Folds another recorder's span aggregates into this one
    /// (end-of-run; allocation here is fine).
    pub(crate) fn absorb(&self, other: &SpanState) {
        for (mine, theirs) in self.blame.iter().zip(other.blame.iter()) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.roots.fetch_add(other.roots(), Ordering::Relaxed);
        self.orphans.fetch_add(other.orphans(), Ordering::Relaxed);
        self.truncated
            .fetch_add(other.truncated(), Ordering::Relaxed);
        self.next_span
            .fetch_add(other.next_span.load(Ordering::Relaxed), Ordering::Relaxed);
        let threshold = self.threshold_ns().max(other.threshold_ns());
        self.threshold_ns.store(threshold, Ordering::Relaxed);
        for op in other.slow_ops() {
            let mut store = self.slow.lock();
            offer(&mut store, &op.root, op.latency_ns, &op.segments, |slot| {
                slot.events.clear();
                slot.events.extend_from_slice(&op.events);
                slot.truncated = op.truncated;
            });
            self.slow_gate.store(store.gate(), Ordering::Relaxed);
        }
    }

    pub(crate) fn reset(&self) {
        for c in &self.blame {
            c.store(0, Ordering::Relaxed);
        }
        self.roots.store(0, Ordering::Relaxed);
        self.orphans.store(0, Ordering::Relaxed);
        self.truncated.store(0, Ordering::Relaxed);
        self.slow_gate.store(0, Ordering::Relaxed);
        let explicit = self.explicit_slow_ns.load(Ordering::Relaxed);
        self.threshold_ns.store(explicit, Ordering::Relaxed);
        {
            let mut r = self.reservoir.lock();
            r.n = 0;
            r.idx = 0;
            r.closes = 0;
        }
        let mut store = self.slow.lock();
        for s in &mut store.slots {
            s.latency_ns = 0;
            s.events.clear();
            s.truncated = 0;
        }
    }
}

/// Replaces the emptiest/lowest slot with the offered op when it
/// qualifies; `fill` copies the event tree into the chosen slot.
fn offer<F: FnOnce(&mut SlowSlot)>(
    store: &mut SlowStore,
    root: &TraceEvent,
    latency_ns: u64,
    segments: &[u64; NCATS],
    fill: F,
) {
    let (mut min_i, mut min_lat) = (0usize, u64::MAX);
    for (i, s) in store.slots.iter().enumerate() {
        if s.latency_ns < min_lat {
            min_i = i;
            min_lat = s.latency_ns;
        }
    }
    if latency_ns <= min_lat {
        return;
    }
    let slot = &mut store.slots[min_i];
    slot.latency_ns = latency_ns;
    slot.root = *root;
    slot.segments = *segments;
    fill(slot);
}

/// Hot-path hook: buffers the event in the thread-local tree buffer and
/// closes the tree when a root event (span set, parent 0) arrives.
pub(crate) fn on_event(state: &SpanState, ev: &TraceEvent) {
    TREE.with(|t| {
        let mut buf = t.borrow_mut();
        if buf.rec_id != state.rec_id {
            // Rebind to this recorder; anything buffered belonged to a
            // previous recorder and can no longer close.
            buf.events.clear();
            buf.rec_id = state.rec_id;
        }
        if buf.events.len() >= TREE_BUF_CAP {
            state
                .orphans
                .fetch_add(buf.events.len() as u64, Ordering::Relaxed);
            buf.events.clear();
        }
        buf.events.push(*ev);
        if ev.span != 0 && ev.parent == 0 {
            close_root(state, &mut buf);
        }
    });
}

/// Assembles the tree ending in the buffer's last event, attributes it,
/// and drains the buffer.
fn close_root(state: &SpanState, buf: &mut TreeBuf) {
    let root_idx = buf.events.len() - 1;
    let root = buf.events[root_idx];
    buf.members.clear();
    buf.order.clear();
    buf.members.push(root.span);
    buf.order.push(root_idx);
    // Parents are recorded after their children, so a reverse scan sees
    // every span-carrying event before the events it parents.
    for i in (0..root_idx).rev() {
        let e = &buf.events[i];
        if e.parent != 0 && buf.members.contains(&e.parent) {
            if e.span != 0 && !buf.members.contains(&e.span) {
                buf.members.push(e.span);
            }
            buf.order.push(i);
        }
    }
    let orphaned = buf.events.len() - buf.order.len();
    if orphaned > 0 {
        state.orphans.fetch_add(orphaned as u64, Ordering::Relaxed);
    }
    let TreeBuf { events, order, .. } = buf;
    order.sort_unstable_by_key(|&i| tree_order(&events[i]));

    let segments = blame_segments(events, order, &root);
    let latency_ns = root.duration().as_nanos();
    state.roots.fetch_add(1, Ordering::Relaxed);

    // Blame-table row: per-tenant for small tenant ids, catch-all else.
    let row = if (root.device as usize) < TENANT_ROWS - 1 {
        root.device as usize
    } else {
        TENANT_ROWS - 1
    };
    let base = row * ROW_WIDTH;
    state.blame[base].fetch_add(1, Ordering::Relaxed);
    state.blame[base + 1].fetch_add(latency_ns, Ordering::Relaxed);
    for (k, &v) in segments.iter().enumerate() {
        if v != 0 {
            state.blame[base + 2 + k].fetch_add(v, Ordering::Relaxed);
        }
    }

    // Tail sampling: rolling-p99 threshold unless explicitly pinned.
    let threshold = if state.explicit_slow_ns.load(Ordering::Relaxed) != 0 {
        state.threshold_ns.load(Ordering::Relaxed)
    } else {
        let mut r = state.reservoir.lock();
        r.push(latency_ns);
        if r.due() {
            let p99 = r.p99();
            state.threshold_ns.store(p99, Ordering::Relaxed);
        }
        state.threshold_ns.load(Ordering::Relaxed)
    };
    if latency_ns >= threshold && latency_ns > state.slow_gate.load(Ordering::Relaxed) {
        let mut store = state.slow.lock();
        let copied = order.len().min(MAX_TREE_EVENTS);
        let dropped = (order.len() - copied) as u64;
        offer(&mut store, &root, latency_ns, &segments, |slot| {
            slot.events.clear();
            for &i in order.iter().take(copied) {
                slot.events.push(events[i]);
            }
            slot.truncated = dropped;
        });
        if dropped > 0 {
            state.truncated.fetch_add(dropped, Ordering::Relaxed);
        }
        state.slow_gate.store(store.gate(), Ordering::Relaxed);
    }
    buf.events.clear();
}

fn push_segments_json(out: &mut String, segments: &[u64; NCATS]) {
    out.push('{');
    for (k, name) in BLAME_CATEGORIES.iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}_ns\": {}", name, segments[k]));
    }
    out.push('}');
}

fn tenant_label(tenant: u32) -> String {
    if tenant == NONE {
        "all".to_string()
    } else {
        tenant.to_string()
    }
}

/// Renders the span artifact: tail-sampling counters, the per-tenant
/// blame table, the K slowest ops with their segments and event trees,
/// and a Chrome `trace_event` array (`traceEvents`, `ph: "X"`) loadable
/// in Perfetto / `chrome://tracing`. `name` tags the producing
/// experiment.
pub fn spans_json(name: &str, recorder: &Recorder) -> String {
    let rows = recorder.blame_rows();
    let slow = recorder.slow_ops();
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str(&format!("  \"name\": \"{}\",\n", crate::escape(name)));
    out.push_str("  \"kind\": \"spans\",\n");
    out.push_str(&format!(
        "  \"threshold_ns\": {},\n",
        recorder.span_threshold_ns()
    ));
    out.push_str(&format!("  \"roots\": {},\n", recorder.span_roots()));
    out.push_str(&format!(
        "  \"orphan_events\": {},\n",
        recorder.span_orphans()
    ));
    out.push_str(&format!(
        "  \"truncated_events\": {},\n",
        recorder.span_truncated()
    ));

    out.push_str("  \"blame\": [");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"tenant\": \"{}\", \"count\": {}, \"total_ns\": {}, \"segments\": ",
            tenant_label(row.tenant),
            row.count,
            row.total_ns
        ));
        push_segments_json(&mut out, &row.categories);
        out.push('}');
    }
    out.push_str("\n  ],\n");

    out.push_str("  \"slow_ops\": [");
    for (i, op) in slow.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"latency_ns\": {}, \"op\": \"{}\", \"tenant\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}, \"truncated_events\": {}, \"segments\": ",
            op.latency_ns,
            op.root.op.name(),
            tenant_label(op.root.device),
            op.root.start.as_nanos(),
            op.root.end.as_nanos(),
            op.truncated
        ));
        push_segments_json(&mut out, &op.segments);
        out.push_str(", \"events\": [");
        for (j, ev) in op.events.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&crate::event_json(ev));
        }
        out.push_str("]}");
    }
    out.push_str("\n  ],\n");

    // Chrome trace_event format: pid groups by tenant, tid by device.
    out.push_str("  \"traceEvents\": [");
    let mut first = true;
    for op in &slow {
        let pid = if op.root.device == NONE {
            0
        } else {
            op.root.device
        };
        for ev in &op.events {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            let tid = if ev.device == NONE { 0 } else { ev.device + 1 };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \
                 \"pid\": {}, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"seq\": {}, \"span\": {}, \"parent\": {}, \
                 \"blame\": \"{}\", \"zone\": {}, \"lba\": {}, \"sectors\": {}, \
                 \"outcome\": \"{}\"}}}}",
                ev.stage.name(),
                ev.op.name(),
                pid,
                tid,
                ev.start.as_nanos() as f64 / 1000.0,
                ev.duration().as_nanos() as f64 / 1000.0,
                ev.seq,
                ev.span,
                ev.parent,
                ev.blame.name(),
                ev.zone,
                ev.lba,
                ev.sectors,
                ev.outcome.name(),
            ));
        }
    }
    out.push_str("\n  ]\n}\n");
    out
}
