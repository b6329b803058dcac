//! Observability layer: structured op tracing and latency attribution.
//!
//! Every layer of the stack (ZNS device model, conventional-SSD FTL, the
//! RAIZN volume, the mdraid comparison target, the workload engine) can be
//! handed a shared [`Recorder`] and will then emit [`TraceEvent`]s through
//! its [`Tracer`]:
//! one per IO span, carrying the op kind, the layer-specific *stage*
//! (device IO, XOR, metadata append, flush), the device/zone/LBA range it
//! touched, its virtual start/end instants, and the path the IO took
//! ([`PathKind`] — e.g. full-parity vs partial-parity-log on RAIZN,
//! full-stripe vs read-modify-write on mdraid).
//!
//! Design constraints (see DESIGN.md "Observability"):
//!
//! - **Allocation-free recording.** The ring buffer and stage histograms
//!   are allocated once in [`Recorder::new`]; recording an
//!   event is an atomic sequence claim, one shard-mutex acquisition and a
//!   few array writes. This preserves the zero-alloc steady-state
//!   write-path gate of `BENCH_hotpath.json`.
//! - **Shard-parallel.** The ring and stage histograms are split over up
//!   to eight shards selected by sequence number, so concurrent writers
//!   on a multi-threaded volume do not serialize on one recorder mutex. Read-side snapshots
//!   ([`Recorder::events`], [`Recorder::stage_histogram`]) merge shards.
//! - **Deterministic.** Timestamps are [`SimTime`] (virtual) only; the
//!   recorder never consults a wall clock, so two runs with the same seed
//!   produce byte-identical traces — which is what lets tests use traces
//!   as an *oracle* (assert which path an IO took, not just its result).
//! - **Bounded.** The ring keeps the most recent `capacity` sampled
//!   events; older events are overwritten (counted in
//!   [`Recorder::dropped`]). Histograms always see every event
//!   regardless of sampling. Counts of what a layer did (parity writes,
//!   pp-log appends, degraded reads) live in that layer's own stats.
//!
//! # Examples
//!
//! Layers never build a [`TraceEvent`] themselves: they hold a [`Tracer`],
//! describe what happened as a [`Span`], and the tracer fills in the rest
//! (sequence number, ambient causal parent, ambient actor, outcome).
//!
//! ```
//! use obs::{OpClass, Recorder, Span, Stage, Tracer};
//! use sim::SimTime;
//!
//! let rec = Recorder::new(1024, 1);
//! let tracer = Tracer::new(); // detached: every call is a no-op
//! tracer.attach(rec.clone(), 0); // this layer is device 0
//! let (start, end) = (SimTime::ZERO, SimTime::from_micros(20));
//! tracer.leaf(
//!     Span::new(OpClass::Write, Stage::DeviceIo, start, end)
//!         .zone(3)
//!         .lba(192)
//!         .sectors(8),
//! );
//! let events = rec.events();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].stage, Stage::DeviceIo);
//! assert_eq!(events[0].device, 0);
//! assert!(rec.breakdown_json("demo").contains("device_io"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use parking_lot::Mutex;
use sim::{Histogram, SimDuration, SimTime};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

pub mod span;
pub mod timeline;
mod tracer;

pub use span::{
    actor_scope, blame_segments, current_actor, current_span, span_scope, spans_json, Actor,
    ActorScope, BlameRow, SlowOp, SpanConfig, SpanScope, BLAME_CATEGORIES, NCATS,
};
pub use timeline::timeline_json;
pub use tracer::{OpenSpan, Span, Tracer};

/// The class of operation a trace event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// A read command.
    Read,
    /// A positional write command.
    Write,
    /// A zone append command.
    Append,
    /// A cache flush (explicit or preflush).
    Flush,
    /// A zone reset (or TRIM on block devices).
    Reset,
    /// A zone finish.
    Finish,
    /// A zone open/close (lifecycle management traffic that is neither
    /// data nor a seal/reset).
    ZoneMgmt,
}

impl OpClass {
    /// Stable lower-case name (used by the JSON exporters).
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Read => "read",
            OpClass::Write => "write",
            OpClass::Append => "append",
            OpClass::Flush => "flush",
            OpClass::Reset => "reset",
            OpClass::Finish => "finish",
            OpClass::ZoneMgmt => "zone_mgmt",
        }
    }
}

/// The pipeline stage a span is attributed to. Each logical write on the
/// RAIZN path decomposes into `DeviceIo` + `Xor` + `MetaAppend` + `Flush`
/// spans; `WholeOp` spans bracket the entire logical operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Time spent in a device data command (read/write/append/reset).
    DeviceIo,
    /// Parity / reconstruction XOR compute. Host compute is instantaneous
    /// on the virtual clock, so these spans have zero duration; they exist
    /// for path attribution and counting.
    Xor,
    /// Metadata-zone log appends (superblock, pp-log, relocation, WAL).
    MetaAppend,
    /// Cache-flush / persistence barriers (FUA closure, explicit flush).
    Flush,
    /// Time an op spent queued in the QoS scheduler (arrival to dispatch).
    QueueWait,
    /// Scheduler-observed service time of an op (dispatch to completion).
    Service,
    /// The whole logical operation as seen by the caller.
    WholeOp,
    /// Time a device command stalled waiting for a busy occupancy unit
    /// (channel/die), split out of [`Stage::DeviceIo`]; the event's
    /// blame field names the actor that last held the unit.
    DeviceWait,
    /// Zone-shard / metadata lock acquisition marker. Locks cost no
    /// *virtual* time, so these spans are zero-width; wall-clock
    /// contention is not measured.
    LockWait,
}

impl Stage {
    /// All stages, in index order.
    pub const ALL: [Stage; 9] = [
        Stage::DeviceIo,
        Stage::Xor,
        Stage::MetaAppend,
        Stage::Flush,
        Stage::QueueWait,
        Stage::Service,
        Stage::WholeOp,
        Stage::DeviceWait,
        Stage::LockWait,
    ];

    /// Stable lower-case name (used by the JSON exporters).
    pub fn name(self) -> &'static str {
        match self {
            Stage::DeviceIo => "device_io",
            Stage::Xor => "xor",
            Stage::MetaAppend => "meta_append",
            Stage::Flush => "flush",
            Stage::QueueWait => "queue_wait",
            Stage::Service => "service",
            Stage::WholeOp => "whole_op",
            Stage::DeviceWait => "device_wait",
            Stage::LockWait => "lock_wait",
        }
    }

    /// Stable index into [`Stage::ALL`]-ordered arrays (e.g.
    /// [`WindowSummary::stages`]).
    pub fn index(self) -> usize {
        match self {
            Stage::DeviceIo => 0,
            Stage::Xor => 1,
            Stage::MetaAppend => 2,
            Stage::Flush => 3,
            Stage::QueueWait => 4,
            Stage::Service => 5,
            Stage::WholeOp => 6,
            Stage::DeviceWait => 7,
            Stage::LockWait => 8,
        }
    }
}

/// Which internal path an operation took — the trace-as-oracle field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathKind {
    /// RAIZN: a completed stripe wrote its full parity unit.
    FullParity,
    /// RAIZN: a partial stripe logged partial parity to the metadata zone.
    PpLog,
    /// RAIZN: the write was relocated to a metadata zone (conflicted unit).
    Relocated,
    /// RAIZN/mdraid: data served by parity reconstruction (degraded).
    Degraded,
    /// RAIZN-2: a completed stripe wrote its Q (Reed–Solomon) parity unit.
    QParity,
    /// RAIZN-2: data served by two-erasure RS reconstruction (two
    /// devices missing/failed).
    DoubleDegraded,
    /// mdraid: aligned full-stripe write (no pre-reads).
    FullStripe,
    /// mdraid: read-modify-write partial-stripe update.
    Rmw,
    /// mdraid: reconstruct-write partial-stripe update.
    Rcw,
}

impl PathKind {
    /// Stable lower-case name (used by the JSON exporters).
    pub fn name(self) -> &'static str {
        match self {
            PathKind::FullParity => "full_parity",
            PathKind::PpLog => "pp_log",
            PathKind::Relocated => "relocated",
            PathKind::Degraded => "degraded",
            PathKind::QParity => "q_parity",
            PathKind::DoubleDegraded => "double_degraded",
            PathKind::FullStripe => "full_stripe",
            PathKind::Rmw => "rmw",
            PathKind::Rcw => "rcw",
        }
    }
}

/// How a traced span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The operation completed.
    Success,
    /// The operation failed with an injected transient error.
    Transient,
    /// The operation failed with a media error.
    Media,
    /// The operation failed with any other error.
    Error,
}

impl Outcome {
    /// Stable lower-case name (used by the JSON exporters).
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Success => "ok",
            Outcome::Transient => "transient",
            Outcome::Media => "media",
            Outcome::Error => "error",
        }
    }
}

/// Sentinel for [`TraceEvent::device`] / [`TraceEvent::zone`] when the
/// span is not attributable to one device or zone (e.g. a volume-wide
/// flush).
pub const NONE: u32 = u32::MAX;

/// One traced span. `Copy` and fixed-size so the ring buffer never
/// allocates after construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic sequence number, assigned by the recorder.
    pub seq: u64,
    /// Operation class.
    pub op: OpClass,
    /// Attributed pipeline stage.
    pub stage: Stage,
    /// Path taken, when the layer records one (the oracle field).
    pub path: Option<PathKind>,
    /// Device index within its array, or [`NONE`].
    pub device: u32,
    /// Zone number, or [`NONE`].
    pub zone: u32,
    /// Starting LBA of the affected range (0 when not applicable).
    pub lba: u64,
    /// Length of the affected range in sectors (0 when not applicable).
    pub sectors: u64,
    /// Virtual instant the span started.
    pub start: SimTime,
    /// Virtual instant the span ended (`>= start`).
    pub end: SimTime,
    /// How the span ended.
    pub outcome: Outcome,
    /// Causal span identity ([`Recorder::new_span`]); 0 for leaf events
    /// that own no identity of their own.
    pub span: u64,
    /// Span id of the causal parent (the enclosing op), or 0 for a
    /// tree root. Layers normally record the ambient [`current_span`].
    pub parent: u64,
    /// Actor the span's time is blamed on (only meaningful on
    /// [`Stage::DeviceWait`], where it names the unit's last occupant).
    pub blame: Actor,
}

impl TraceEvent {
    const EMPTY: TraceEvent = TraceEvent {
        seq: 0,
        op: OpClass::Read,
        stage: Stage::WholeOp,
        path: None,
        device: NONE,
        zone: NONE,
        lba: 0,
        sectors: 0,
        start: SimTime::ZERO,
        end: SimTime::ZERO,
        outcome: Outcome::Success,
        span: 0,
        parent: 0,
        blame: Actor::None,
    };

    /// A zeroed placeholder event (ring slot initializer).
    pub const fn empty() -> TraceEvent {
        TraceEvent::EMPTY
    }

    /// The span's duration on the virtual clock.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// Per-stage digest of one tumbling window (extracted from the window's
/// histogram when the window closes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowStageStats {
    /// Spans attributed to this stage inside the window.
    pub count: u64,
    /// Total sectors those spans covered.
    pub sectors: u64,
    /// Median span duration.
    pub p50: SimDuration,
    /// 95th-percentile span duration.
    pub p95: SimDuration,
    /// 99th-percentile span duration.
    pub p99: SimDuration,
    /// Longest span in the window.
    pub max: SimDuration,
}

impl WindowStageStats {
    const EMPTY: WindowStageStats = WindowStageStats {
        count: 0,
        sectors: 0,
        p50: SimDuration::ZERO,
        p95: SimDuration::ZERO,
        p99: SimDuration::ZERO,
        max: SimDuration::ZERO,
    };
}

/// One closed (or currently open) tumbling window of latency digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSummary {
    /// Window ordinal: `start = index × interval` on the virtual clock.
    pub index: u64,
    /// Virtual instant the window opened.
    pub start: SimTime,
    /// Spans in the window that ended with a non-success outcome.
    pub errors: u64,
    /// Per-stage digests, indexed by [`Stage::index`].
    pub stages: [WindowStageStats; Stage::ALL.len()],
}

impl WindowSummary {
    fn empty(index: u64, interval_ns: u64) -> Self {
        WindowSummary {
            index,
            start: SimTime::from_nanos(index * interval_ns),
            errors: 0,
            stages: [WindowStageStats::EMPTY; Stage::ALL.len()],
        }
    }
}

/// Tumbling-window state, co-located with the trace ring behind the same
/// mutex so the hot path never takes a second lock. Windows roll
/// *passively*: each recorded event's end instant decides which window it
/// belongs to, and crossing into a later window finalizes the earlier
/// ones (no callbacks, no background thread).
struct WindowState {
    interval_ns: u64,
    /// Closed-window ring (preallocated to `cap`; overflow is counted in
    /// `dropped`, keeping the earliest windows).
    summaries: Vec<WindowSummary>,
    cap: usize,
    /// Ordinal of the currently open window.
    cur_index: u64,
    /// Per-stage histograms of the open window (cleared on roll, never
    /// reallocated).
    cur_stages: [Histogram; Stage::ALL.len()],
    cur_sectors: [u64; Stage::ALL.len()],
    cur_errors: u64,
    cur_count: u64,
    /// Events whose end instant fell before the open window (recorded into
    /// the open window instead, since closed digests are immutable).
    late_events: u64,
    /// Closed windows not retained because the ring was full.
    dropped: u64,
}

impl WindowState {
    fn new(interval: SimDuration, cap: usize) -> Self {
        WindowState {
            interval_ns: interval.as_nanos(),
            summaries: Vec::with_capacity(cap),
            cap,
            cur_index: 0,
            cur_stages: std::array::from_fn(|_| Histogram::new()),
            cur_sectors: [0; Stage::ALL.len()],
            cur_errors: 0,
            cur_count: 0,
            late_events: 0,
            dropped: 0,
        }
    }

    fn open_summary(&self) -> WindowSummary {
        let mut w = WindowSummary::empty(self.cur_index, self.interval_ns);
        w.errors = self.cur_errors;
        for (i, h) in self.cur_stages.iter().enumerate() {
            w.stages[i] = WindowStageStats {
                count: h.count(),
                sectors: self.cur_sectors[i],
                p50: h.percentile(50.0),
                p95: h.percentile(95.0),
                p99: h.percentile(99.0),
                max: h.max(),
            };
        }
        w
    }

    fn push_summary(&mut self, w: WindowSummary) {
        if self.summaries.len() < self.cap {
            self.summaries.push(w);
        } else {
            self.dropped += 1;
        }
    }

    /// Closes the open window and any empty gap windows up to (excluding)
    /// `target`, then re-opens at `target`. Bounded work: at most `cap`
    /// empty summaries are materialized, the rest are counted as dropped.
    fn roll_to(&mut self, target: u64) {
        let closed = self.open_summary();
        self.push_summary(closed);
        for h in &mut self.cur_stages {
            h.clear();
        }
        self.cur_sectors = [0; Stage::ALL.len()];
        self.cur_errors = 0;
        self.cur_count = 0;
        let mut gap = self.cur_index + 1;
        let room = self.cap - self.summaries.len();
        let emit_until = gap + (room as u64).min(target - gap);
        while gap < emit_until {
            let w = WindowSummary::empty(gap, self.interval_ns);
            self.summaries.push(w);
            gap += 1;
        }
        self.dropped += target - gap;
        self.cur_index = target;
    }

    fn observe(&mut self, ev: &TraceEvent) {
        let target = ev.end.as_nanos() / self.interval_ns;
        if target > self.cur_index {
            self.roll_to(target);
        } else if target < self.cur_index {
            self.late_events += 1;
        }
        let i = ev.stage.index();
        self.cur_stages[i].record(ev.duration());
        self.cur_sectors[i] += ev.sectors;
        self.cur_count += 1;
        if ev.outcome != Outcome::Success {
            self.cur_errors += 1;
        }
    }
}

/// One shard of the recorder: a slice of the event ring plus its own
/// per-stage histograms. Shard `i` owns the events whose
/// `(seq / sample_every) % nshards == i`, so consecutive *sampled* events
/// rotate across shards and concurrent recorders rarely collide.
struct RecShard {
    /// Fixed-capacity ring; `ring[(first + i) % cap]` is the i-th oldest.
    ring: Vec<TraceEvent>,
    first: usize,
    len: usize,
    /// Events not stored in this shard's ring (sampled out or overwritten).
    dropped: u64,
    stages: [Histogram; Stage::ALL.len()],
}

impl RecShard {
    fn new(capacity: usize) -> Self {
        RecShard {
            ring: vec![TraceEvent::EMPTY; capacity],
            first: 0,
            len: 0,
            dropped: 0,
            stages: std::array::from_fn(|_| Histogram::new()),
        }
    }
}

/// Maximum number of recorder shards (bounded so read-side merges stay
/// cheap; eight matches the widest worker pools the bench drives).
const MAX_SHARDS: usize = 8;

/// A bounded, shareable trace recorder. Cheap to clone behind an [`Arc`];
/// all layers of one experiment normally share a single recorder so the
/// breakdown covers the whole stack.
///
/// Internally sharded: sequence numbers come from one atomic, and the
/// ring/histograms are split over up to
/// eight mutex-protected shards, so concurrent writers do not serialize.
/// Within one shard, concurrent inserts may land slightly out of sequence
/// order; snapshots ([`Recorder::events`]) sort by `seq` before returning.
pub struct Recorder {
    sample_every: u64,
    capacity: usize,
    /// Next sequence number to assign.
    seq: AtomicU64,
    shards: Vec<Mutex<RecShard>>,
    /// Fast-path skip flag so the hot path never touches the windows
    /// mutex while windowing is disabled.
    windows_on: AtomicBool,
    /// Tumbling-window digests, when enabled ([`Recorder::enable_windows`]).
    /// Central (unsharded): windows roll on virtual end instants, which
    /// requires a total observation order.
    windows: Mutex<Option<WindowState>>,
    /// Fast-path skip flag for causal span tracing.
    spans_on: AtomicBool,
    /// Span-tracing state, when enabled ([`Recorder::enable_spans`]).
    spans: OnceLock<span::SpanState>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("capacity", &self.capacity)
            .field("sample_every", &self.sample_every)
            .field("recorded", &self.seq.load(Ordering::Relaxed))
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Recorder {
    /// Creates a recorder whose ring holds `capacity` events and stores
    /// every `sample_every`-th event (1 = keep all). Histograms are
    /// updated for *every* event regardless of sampling.
    ///
    /// All memory is allocated here; recording never allocates.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `sample_every` is zero.
    pub fn new(capacity: usize, sample_every: u64) -> Arc<Self> {
        assert!(capacity > 0, "recorder ring capacity must be nonzero");
        assert!(sample_every > 0, "sample_every must be nonzero");
        let nshards = MAX_SHARDS.min(capacity);
        // Distribute the ring capacity across shards, earliest shards
        // taking the remainder, so the total stays exactly `capacity`.
        let shards = (0..nshards)
            .map(|i| {
                let cap = capacity / nshards + usize::from(i < capacity % nshards);
                Mutex::new(RecShard::new(cap))
            })
            .collect();
        Arc::new(Recorder {
            sample_every,
            capacity,
            seq: AtomicU64::new(0),
            shards,
            windows_on: AtomicBool::new(false),
            windows: Mutex::new(None),
            spans_on: AtomicBool::new(false),
            spans: OnceLock::new(),
        })
    }

    /// The shard owning sequence number `seq`. Dividing by the sampling
    /// period first makes consecutive *sampled* events rotate shards
    /// (plain `seq % nshards` would pin every sampled event of a
    /// `sample_every >= nshards` recorder to shard 0).
    fn shard_of(&self, seq: u64) -> &Mutex<RecShard> {
        &self.shards[((seq / self.sample_every) % self.shards.len() as u64) as usize]
    }

    /// Enables tumbling-window latency digests: every recorded event also
    /// lands in a per-stage histogram of the window containing its end
    /// instant; crossing into a later window extracts p50/p95/p99/max and
    /// retains up to `max_windows` summaries (plus empty summaries for
    /// wholly idle windows). All window memory is allocated here, so
    /// recording stays allocation-free. Re-enabling resets window state.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or `max_windows` is zero.
    pub fn enable_windows(&self, interval: SimDuration, max_windows: usize) {
        assert!(
            interval > SimDuration::ZERO,
            "window interval must be positive"
        );
        assert!(max_windows > 0, "max_windows must be nonzero");
        *self.windows.lock() = Some(WindowState::new(interval, max_windows));
        self.windows_on.store(true, Ordering::Release);
    }

    /// The window interval, if windowing is enabled.
    pub fn window_interval(&self) -> Option<SimDuration> {
        self.windows
            .lock()
            .as_ref()
            .map(|w| SimDuration::from_nanos(w.interval_ns))
    }

    /// Snapshot of the window summaries, oldest first: every closed
    /// window plus the currently open one (if it has seen any event).
    /// Empty when windowing is disabled.
    pub fn windows(&self) -> Vec<WindowSummary> {
        match &*self.windows.lock() {
            None => Vec::new(),
            Some(w) => {
                let mut out = w.summaries.clone();
                if w.cur_count > 0 {
                    out.push(w.open_summary());
                }
                out
            }
        }
    }

    /// Events that arrived with an end instant before the open window
    /// (they are folded into the open window instead).
    pub fn late_events(&self) -> u64 {
        self.windows.lock().as_ref().map_or(0, |w| w.late_events)
    }

    /// Closed windows discarded because the summary ring was full.
    pub fn windows_dropped(&self) -> u64 {
        self.windows.lock().as_ref().map_or(0, |w| w.dropped)
    }

    /// Folds another recorder's whole-run aggregates (stage histograms,
    /// event/drop totals) into this one. Used by benches that
    /// give each sub-run a fresh windowed recorder (virtual clocks restart
    /// per run) while keeping one cumulative breakdown: the sub-run
    /// recorder is absorbed after each run. Ring events and window state
    /// are *not* transferred.
    pub fn absorb(&self, other: &Recorder) {
        let mut stages: [Histogram; Stage::ALL.len()] = std::array::from_fn(|_| Histogram::new());
        let mut dropped = 0u64;
        for shard in &other.shards {
            let s = shard.lock();
            for (mine, theirs) in stages.iter_mut().zip(s.stages.iter()) {
                mine.merge(theirs);
            }
            dropped += s.dropped;
        }
        // Fold the merged aggregates into this recorder's first shard;
        // read-side accessors merge across shards anyway.
        {
            let mut s = self.shards[0].lock();
            for (mine, theirs) in s.stages.iter_mut().zip(stages.iter()) {
                mine.merge(theirs);
            }
            s.dropped += dropped;
        }
        self.seq
            .fetch_add(other.seq.load(Ordering::Relaxed), Ordering::Relaxed);
        if let (Some(mine), Some(theirs)) = (self.spans.get(), other.spans.get()) {
            mine.absorb(theirs);
        }
    }

    /// Records one span. The event's `seq` field is overwritten with the
    /// recorder's own monotonic sequence number, which is also returned.
    pub fn record(&self, mut ev: TraceEvent) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        ev.seq = seq;
        {
            let mut s = self.shard_of(seq).lock();
            let s = &mut *s;
            s.stages[ev.stage.index()].record(ev.duration());
            if seq.is_multiple_of(self.sample_every) {
                let cap = s.ring.len();
                if s.len == cap {
                    // Overwrite the oldest slot.
                    s.ring[s.first] = ev;
                    s.first = (s.first + 1) % cap;
                    s.dropped += 1;
                } else {
                    let slot = (s.first + s.len) % cap;
                    s.ring[slot] = ev;
                    s.len += 1;
                }
            } else {
                s.dropped += 1;
            }
        }
        if self.windows_on.load(Ordering::Acquire) {
            if let Some(w) = self.windows.lock().as_mut() {
                w.observe(&ev);
            }
        }
        if self.spans_on.load(Ordering::Acquire) && (ev.span != 0 || ev.parent != 0) {
            if let Some(s) = self.spans.get() {
                span::on_event(s, &ev);
            }
        }
        seq
    }

    /// Enables causal span tracing: ops allocate span ids
    /// ([`Recorder::new_span`]), child events buffered per thread are
    /// reassembled into blame trees when the root's event lands, every
    /// tree feeds the per-tenant blame table, and trees whose latency
    /// meets the tail-sampling threshold are retained in full (see
    /// [`span::SpanConfig`]). All span memory of fixed size is
    /// allocated here; per-thread buffers reach steady-state capacity
    /// during warm-up. Re-enabling reapplies the threshold config but
    /// keeps accumulated state (use [`Recorder::clear`] to reset).
    pub fn enable_spans(&self, cfg: SpanConfig) {
        let state = self.spans.get_or_init(|| span::SpanState::new(cfg));
        state.configure(cfg);
        self.spans_on.store(true, Ordering::Release);
    }

    /// Whether span tracing is enabled.
    pub fn spans_enabled(&self) -> bool {
        self.spans_on.load(Ordering::Acquire)
    }

    /// Allocates a fresh span id for a top-level op, or 0 when span
    /// tracing is disabled (callers then skip all scope work).
    pub fn new_span(&self) -> u64 {
        if !self.spans_on.load(Ordering::Acquire) {
            return 0;
        }
        self.spans.get().map_or(0, |s| s.alloc_span())
    }

    /// Blame trees closed so far (roots observed).
    pub fn span_roots(&self) -> u64 {
        self.spans.get().map_or(0, |s| s.roots())
    }

    /// Span-linked events that could not be attached to a closing tree
    /// (stale buffers, aborted ops, overflowed thread buffers).
    pub fn span_orphans(&self) -> u64 {
        self.spans.get().map_or(0, |s| s.orphans())
    }

    /// Events dropped from captured slow-op trees that exceeded the
    /// per-tree retention bound.
    pub fn span_truncated(&self) -> u64 {
        self.spans.get().map_or(0, |s| s.truncated())
    }

    /// The current slow-op threshold in virtual nanoseconds (0 until
    /// the rolling estimate warms up, unless pinned explicitly).
    pub fn span_threshold_ns(&self) -> u64 {
        self.spans.get().map_or(0, |s| s.threshold_ns())
    }

    /// Snapshot of the per-tenant blame table (rows with activity only).
    pub fn blame_rows(&self) -> Vec<BlameRow> {
        self.spans.get().map_or_else(Vec::new, |s| s.blame_rows())
    }

    /// Snapshot of the retained slowest ops, slowest first.
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        self.spans.get().map_or_else(Vec::new, |s| s.slow_ops())
    }

    /// Total events recorded so far (including sampled-out ones). The next
    /// event gets this sequence number — use as a cursor for
    /// [`Recorder::events_since`].
    pub fn next_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Events not retained in the ring (sampled out or overwritten).
    pub fn dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().dropped).sum()
    }

    /// Snapshot of the retained events, oldest first (merged across
    /// shards and sorted by sequence number). Allocates; intended for
    /// tests and end-of-run export, not the IO path.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let s = shard.lock();
            let cap = s.ring.len();
            out.extend((0..s.len).map(|i| s.ring[(s.first + i) % cap]));
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Retained events with `seq >= since`, oldest first.
    pub fn events_since(&self, since: u64) -> Vec<TraceEvent> {
        let mut evs = self.events();
        evs.retain(|e| e.seq >= since);
        evs
    }

    /// Snapshot of one stage's latency histogram (merged across shards).
    pub fn stage_histogram(&self, stage: Stage) -> Histogram {
        let mut out = Histogram::new();
        for shard in &self.shards {
            out.merge(&shard.lock().stages[stage.index()]);
        }
        out
    }

    /// Clears the ring and histograms (sequence numbers keep
    /// increasing so cursors stay valid).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock();
            s.first = 0;
            s.len = 0;
            s.dropped = 0;
            for h in &mut s.stages {
                h.clear();
            }
        }
        if let Some(w) = self.windows.lock().as_mut() {
            let (interval_ns, cap) = (w.interval_ns, w.cap);
            *w = WindowState::new(SimDuration::from_nanos(interval_ns), cap);
        }
        if let Some(s) = self.spans.get() {
            s.reset();
        }
    }

    /// A machine-readable latency breakdown: per-stage count / p50 / p99 /
    /// mean / max (virtual nanoseconds). `name` tags
    /// the producing experiment.
    pub fn breakdown_json(&self, name: &str) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"name\": \"{}\",\n", escape(name)));
        out.push_str(&format!("  \"events_recorded\": {},\n", self.next_seq()));
        out.push_str(&format!("  \"events_dropped\": {},\n", self.dropped()));
        out.push_str("  \"stages\": {\n");
        for (i, stage) in Stage::ALL.iter().enumerate() {
            let h = self.stage_histogram(*stage);
            out.push_str(&format!(
                "    \"{}\": {{\"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
                 \"mean_ns\": {}, \"max_ns\": {}}}{}\n",
                stage.name(),
                h.count(),
                h.percentile(50.0).as_nanos(),
                h.percentile(99.0).as_nanos(),
                h.mean().as_nanos(),
                h.max().as_nanos(),
                if i + 1 < Stage::ALL.len() { "," } else { "" },
            ));
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// Serializes one event as a single-line JSON object.
pub fn event_json(ev: &TraceEvent) -> String {
    let mut s = format!(
        "{{\"seq\": {}, \"op\": \"{}\", \"stage\": \"{}\"",
        ev.seq,
        ev.op.name(),
        ev.stage.name()
    );
    if let Some(p) = ev.path {
        s.push_str(&format!(", \"path\": \"{}\"", p.name()));
    }
    if ev.device != NONE {
        s.push_str(&format!(", \"device\": {}", ev.device));
    }
    if ev.zone != NONE {
        s.push_str(&format!(", \"zone\": {}", ev.zone));
    }
    s.push_str(&format!(
        ", \"lba\": {}, \"sectors\": {}, \"start_ns\": {}, \"end_ns\": {}, \
         \"outcome\": \"{}\"",
        ev.lba,
        ev.sectors,
        ev.start.as_nanos(),
        ev.end.as_nanos(),
        ev.outcome.name()
    ));
    if ev.span != 0 {
        s.push_str(&format!(", \"span\": {}", ev.span));
    }
    if ev.parent != 0 {
        s.push_str(&format!(", \"parent\": {}", ev.parent));
    }
    if ev.blame != Actor::None {
        s.push_str(&format!(", \"blame\": \"{}\"", ev.blame.name()));
    }
    s.push('}');
    s
}

pub(crate) fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(stage: Stage, start_us: u64, end_us: u64) -> TraceEvent {
        TraceEvent {
            seq: 0,
            op: OpClass::Write,
            stage,
            path: None,
            device: 0,
            zone: 1,
            lba: 64,
            sectors: 8,
            start: SimTime::from_micros(start_us),
            end: SimTime::from_micros(end_us),
            outcome: Outcome::Success,
            span: 0,
            parent: 0,
            blame: Actor::None,
        }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let r = Recorder::new(4, 1);
        for i in 0..10u64 {
            r.record(ev(Stage::DeviceIo, i, i + 1));
        }
        let evs = r.events();
        assert_eq!(evs.len(), 4);
        let seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(r.dropped(), 6);
        // Histograms saw all ten.
        assert_eq!(r.stage_histogram(Stage::DeviceIo).count(), 10);
    }

    #[test]
    fn sampling_thins_the_ring_but_not_histograms() {
        let r = Recorder::new(64, 4);
        for i in 0..16u64 {
            r.record(ev(Stage::Flush, i, i + 2));
        }
        assert_eq!(r.events().len(), 4); // seq 0, 4, 8, 12
        assert_eq!(r.stage_histogram(Stage::Flush).count(), 16);
    }

    #[test]
    fn events_since_cursor() {
        let r = Recorder::new(64, 1);
        r.record(ev(Stage::DeviceIo, 0, 1));
        let cursor = r.next_seq();
        r.record(ev(Stage::Flush, 1, 2));
        r.record(ev(Stage::Xor, 2, 2));
        let tail = r.events_since(cursor);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].stage, Stage::Flush);
        assert_eq!(tail[1].stage, Stage::Xor);
    }

    #[test]
    fn json_lines_export_roundtrip_shape() {
        let r = Recorder::new(8, 1);
        let mut e = ev(Stage::MetaAppend, 3, 5);
        e.path = Some(PathKind::PpLog);
        r.record(e);
        let events = r.events();
        assert_eq!(events.len(), 1);
        let line = event_json(&events[0]);
        assert!(line.contains("\"stage\": \"meta_append\""));
        assert!(line.contains("\"path\": \"pp_log\""));
        assert!(line.contains("\"start_ns\": 3000"));
        assert!(line.ends_with('}') && !line.contains('\n'));
    }

    #[test]
    fn breakdown_json_has_every_stage() {
        let r = Recorder::new(8, 1);
        r.record(ev(Stage::DeviceIo, 0, 10));
        r.record(ev(Stage::DeviceIo, 0, 20));
        let j = r.breakdown_json("unit \"test\"");
        assert!(j.contains("\"device_io\": {\"count\": 2"));
        assert!(j.contains("unit \\\"test\\\""));
        for s in Stage::ALL {
            assert!(j.contains(s.name()), "missing stage {}", s.name());
        }
        assert!(!j.contains("counters"));
    }

    #[test]
    fn clear_resets_aggregates_but_not_seq() {
        let r = Recorder::new(8, 1);
        r.record(ev(Stage::WholeOp, 0, 9));
        r.clear();
        assert!(r.events().is_empty());
        assert_eq!(r.stage_histogram(Stage::WholeOp).count(), 0);
        assert_eq!(r.next_seq(), 1);
    }

    #[test]
    fn windows_roll_on_end_instants() {
        let r = Recorder::new(64, 1);
        r.enable_windows(SimDuration::from_millis(10), 64);
        // Two events in window 0, one in window 2 (window 1 idle).
        r.record(ev(Stage::WholeOp, 0, 1_000)); // ends at 1 ms
        r.record(ev(Stage::WholeOp, 2_000, 3_000)); // ends at 3 ms
        r.record(ev(Stage::WholeOp, 24_000, 25_000)); // ends at 25 ms
        let ws = r.windows();
        assert_eq!(ws.len(), 3); // closed 0, empty 1, open 2
        assert_eq!(ws[0].index, 0);
        assert_eq!(ws[0].stages[Stage::WholeOp.index()].count, 2);
        assert_eq!(ws[0].stages[Stage::WholeOp.index()].sectors, 16);
        assert_eq!(
            ws[0].stages[Stage::WholeOp.index()].max,
            SimDuration::from_millis(1)
        );
        assert_eq!(ws[1].index, 1);
        assert_eq!(ws[1].stages[Stage::WholeOp.index()].count, 0);
        assert_eq!(ws[1].start, SimTime::from_millis(10));
        assert_eq!(ws[2].index, 2);
        assert_eq!(ws[2].stages[Stage::WholeOp.index()].count, 1);
        assert_eq!(r.late_events(), 0);
        assert_eq!(r.windows_dropped(), 0);
    }

    #[test]
    fn late_events_fold_into_open_window() {
        let r = Recorder::new(64, 1);
        r.enable_windows(SimDuration::from_millis(1), 16);
        r.record(ev(Stage::DeviceIo, 5_000, 5_500)); // window 5
        r.record(ev(Stage::DeviceIo, 1_000, 1_200)); // window 1: late
        assert_eq!(r.late_events(), 1);
        let ws = r.windows();
        // Open window 5 holds both events.
        let open = ws.last().unwrap();
        assert_eq!(open.index, 5);
        assert_eq!(open.stages[Stage::DeviceIo.index()].count, 2);
    }

    #[test]
    fn window_overflow_keeps_earliest_and_counts_drops() {
        let r = Recorder::new(64, 1);
        r.enable_windows(SimDuration::from_micros(1), 4);
        for i in 0..10u64 {
            r.record(ev(Stage::WholeOp, i, i + 1)); // one event per window
        }
        let ws = r.windows();
        // Event i ends at (i+1) µs, i.e. in window i+1; closed windows
        // 0..=3 are retained (0 empty), 4..=9 dropped, window 10 open.
        assert_eq!(ws.len(), 5);
        assert_eq!(ws[0].index, 0);
        assert_eq!(ws[3].index, 3);
        assert_eq!(ws[4].index, 10);
        assert_eq!(r.windows_dropped(), 6);
    }

    #[test]
    fn huge_time_jump_is_bounded() {
        let r = Recorder::new(64, 1);
        r.enable_windows(SimDuration::from_nanos(1), 8);
        r.record(ev(Stage::WholeOp, 0, 1));
        // Jump ~3600 s forward: the idle-gap materialization must stay
        // bounded by the ring capacity, with the rest counted as dropped.
        r.record(ev(Stage::WholeOp, 3_600_000_000, 3_600_000_001));
        let ws = r.windows();
        assert_eq!(ws.len(), 9); // 8 retained + the open window
        assert!(r.windows_dropped() > 1_000_000_000);
    }

    #[test]
    fn window_errors_counted() {
        let r = Recorder::new(64, 1);
        r.enable_windows(SimDuration::from_millis(10), 8);
        let mut bad = ev(Stage::DeviceIo, 0, 5);
        bad.outcome = Outcome::Transient;
        r.record(bad);
        r.record(ev(Stage::DeviceIo, 5, 9));
        let ws = r.windows();
        assert_eq!(ws[0].errors, 1);
    }

    #[test]
    fn absorb_merges_aggregates() {
        let a = Recorder::new(16, 1);
        let b = Recorder::new(16, 1);
        a.record(ev(Stage::DeviceIo, 0, 10));
        b.record(ev(Stage::DeviceIo, 0, 30));
        b.record(ev(Stage::Flush, 0, 2));
        a.absorb(&b);
        assert_eq!(a.stage_histogram(Stage::DeviceIo).count(), 2);
        assert_eq!(a.stage_histogram(Stage::Flush).count(), 1);
        assert_eq!(a.next_seq(), 3);
        // b untouched.
        assert_eq!(b.next_seq(), 2);
    }

    #[test]
    fn windows_disabled_by_default() {
        let r = Recorder::new(16, 1);
        r.record(ev(Stage::WholeOp, 0, 5));
        assert!(r.windows().is_empty());
        assert_eq!(r.window_interval(), None);
    }

    #[test]
    fn clear_resets_window_state() {
        let r = Recorder::new(16, 1);
        r.enable_windows(SimDuration::from_millis(1), 8);
        r.record(ev(Stage::WholeOp, 0, 5_000));
        r.record(ev(Stage::WholeOp, 0, 1_000)); // late
        assert!(!r.windows().is_empty());
        r.clear();
        assert!(r.windows().is_empty());
        assert_eq!(r.late_events(), 0);
        assert_eq!(r.window_interval(), Some(SimDuration::from_millis(1)));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let r = Recorder::new(1024, 1);
        let threads = 4;
        let per_thread = 500u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let r = r.clone();
                s.spawn(move || {
                    for i in 0..per_thread {
                        r.record(ev(Stage::DeviceIo, i, i + 1));
                    }
                });
            }
        });
        let total = threads * per_thread;
        assert_eq!(r.next_seq(), total);
        assert_eq!(r.stage_histogram(Stage::DeviceIo).count(), total);
        // Every event retained (capacity not exceeded), seqs unique and
        // sorted.
        let evs = r.events();
        assert_eq!(evs.len(), 1024.min(total as usize));
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn deterministic_timestamps_only() {
        // Two identical recordings produce identical traces.
        let mk = || {
            let r = Recorder::new(16, 1);
            r.record(ev(Stage::DeviceIo, 1, 4));
            r.record(ev(Stage::Flush, 4, 6));
            r.events()
        };
        assert_eq!(mk(), mk());
    }

    fn cat(name: &str) -> usize {
        BLAME_CATEGORIES.iter().position(|c| *c == name).unwrap()
    }

    #[test]
    fn span_ids_are_zero_when_disabled() {
        let r = Recorder::new(16, 1);
        assert!(!r.spans_enabled());
        assert_eq!(r.new_span(), 0);
        r.record(ev(Stage::WholeOp, 0, 5));
        assert_eq!(r.span_roots(), 0);
        assert!(r.blame_rows().is_empty());
        assert!(r.slow_ops().is_empty());
    }

    #[test]
    fn span_tree_closes_and_attributes_blame() {
        let r = Recorder::new(64, 1);
        r.enable_spans(SpanConfig::default());
        let rid = r.new_span();
        assert!(rid > 0);
        // Children record before their parent (the op closes last).
        let mut wait = ev(Stage::DeviceWait, 0, 2);
        wait.parent = rid;
        wait.blame = Actor::Lifecycle;
        r.record(wait);
        let mut io = ev(Stage::DeviceIo, 2, 8);
        io.parent = rid;
        r.record(io);
        let mut root = ev(Stage::WholeOp, 0, 10);
        root.span = rid;
        root.device = 3;
        r.record(root);
        assert_eq!(r.span_roots(), 1);
        assert_eq!(r.span_orphans(), 0);
        let rows = r.blame_rows();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!((row.tenant, row.count, row.total_ns), (3, 1, 10_000));
        assert_eq!(row.categories[cat("interference_lifecycle")], 2_000);
        assert_eq!(row.categories[cat("device_service")], 6_000);
        assert_eq!(row.categories[cat("other")], 2_000);
        // Exact partition: exclusive segments sum to the root latency.
        assert_eq!(row.categories.iter().sum::<u64>(), row.total_ns);
    }

    #[test]
    fn blame_partition_clips_overlap_and_nests() {
        let r = Recorder::new(64, 1);
        r.enable_spans(SpanConfig::default());
        let (mid, rid) = (r.new_span(), r.new_span());
        let mut a = ev(Stage::DeviceIo, 2, 8);
        a.parent = mid;
        r.record(a);
        // Overlapping fan-out leg: the later-starting (innermost)
        // sibling claims the overlap; same category either way here.
        let mut b = ev(Stage::DeviceIo, 6, 12);
        b.parent = mid;
        r.record(b);
        let mut m = ev(Stage::WholeOp, 1, 14);
        m.span = mid;
        m.parent = rid;
        r.record(m);
        let mut root = ev(Stage::WholeOp, 0, 20);
        root.span = rid;
        root.device = 0;
        r.record(root);
        let rows = r.blame_rows();
        let row = &rows[0];
        assert_eq!(row.categories[cat("device_service")], 10_000);
        assert_eq!(row.categories[cat("other")], 10_000);
        assert_eq!(row.categories.iter().sum::<u64>(), 20_000);
        // The full tree is retained for the slowest op.
        let slow = r.slow_ops();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].events.len(), 4);
        assert_eq!(slow[0].latency_ns, 20_000);
        assert_eq!(slow[0].segments, row.categories);
        // Events come out start-sorted with the root first.
        assert!(slow[0].events.windows(2).all(|w| w[0].start <= w[1].start));
    }

    #[test]
    fn hidden_pipeline_stage_gets_zero_exclusive_time() {
        // An Xor envelope covering its device legs keeps only the time
        // the legs don't explain — exclusive critical-path semantics.
        let r = Recorder::new(64, 1);
        r.enable_spans(SpanConfig::default());
        let rid = r.new_span();
        let mut x = ev(Stage::Xor, 0, 10);
        x.parent = rid;
        r.record(x);
        let mut d1 = ev(Stage::DeviceIo, 2, 6);
        d1.parent = rid;
        r.record(d1);
        let mut d2 = ev(Stage::DeviceIo, 4, 9);
        d2.parent = rid;
        r.record(d2);
        let mut root = ev(Stage::WholeOp, 0, 10);
        root.span = rid;
        r.record(root);
        let row = &r.blame_rows()[0];
        // Legs claim [2,9); xor keeps the [0,2) prefix and [9,10) tail.
        assert_eq!(row.categories[cat("device_service")], 7_000);
        assert_eq!(row.categories[cat("xor_gf")], 3_000);
        assert_eq!(row.categories.iter().sum::<u64>(), 10_000);
    }

    #[test]
    fn tail_sampling_keeps_k_slowest_above_threshold() {
        let r = Recorder::new(256, 1);
        r.enable_spans(SpanConfig {
            slow: Some(SimDuration::from_micros(5)),
            keep_slowest: Some(2),
        });
        assert_eq!(r.span_threshold_ns(), 5_000);
        for lat_us in [1u64, 6, 7, 8, 2] {
            let rid = r.new_span();
            let mut root = ev(Stage::WholeOp, 0, lat_us);
            root.span = rid;
            r.record(root);
        }
        assert_eq!(r.span_roots(), 5);
        let slow = r.slow_ops();
        let lats: Vec<u64> = slow.iter().map(|s| s.latency_ns).collect();
        assert_eq!(lats, vec![8_000, 7_000]);
        // Blame still saw every root, not just the sampled ones.
        assert_eq!(r.blame_rows()[0].count, 5);
    }

    #[test]
    fn rolling_threshold_warms_up() {
        let r = Recorder::new(16, 1);
        r.enable_spans(SpanConfig::default());
        assert_eq!(r.span_threshold_ns(), 0);
        for i in 0..128u64 {
            let rid = r.new_span();
            let mut root = ev(Stage::WholeOp, 0, i + 1);
            root.span = rid;
            r.record(root);
        }
        // After 128 closes the rolling p99 is in place.
        assert!(r.span_threshold_ns() >= 100_000);
    }

    #[test]
    fn unattached_events_count_as_orphans() {
        let r = Recorder::new(64, 1);
        r.enable_spans(SpanConfig::default());
        let rid = r.new_span();
        let mut stray = ev(Stage::DeviceIo, 0, 1);
        stray.parent = rid + 999; // no such span in this tree
        r.record(stray);
        let mut root = ev(Stage::WholeOp, 0, 2);
        root.span = rid;
        r.record(root);
        assert_eq!(r.span_roots(), 1);
        assert_eq!(r.span_orphans(), 1);
    }

    #[test]
    fn absorb_merges_span_aggregates() {
        let a = Recorder::new(16, 1);
        let b = Recorder::new(16, 1);
        a.enable_spans(SpanConfig::default());
        b.enable_spans(SpanConfig::default());
        let rid = b.new_span();
        let mut root = ev(Stage::WholeOp, 0, 10);
        root.span = rid;
        root.device = 2;
        b.record(root);
        a.absorb(&b);
        assert_eq!(a.span_roots(), 1);
        let rows = a.blame_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].tenant, 2);
        assert_eq!(a.slow_ops().len(), 1);
    }

    #[test]
    fn clear_resets_span_state() {
        let r = Recorder::new(16, 1);
        r.enable_spans(SpanConfig::default());
        let rid = r.new_span();
        let mut root = ev(Stage::WholeOp, 0, 10);
        root.span = rid;
        r.record(root);
        assert_eq!(r.span_roots(), 1);
        r.clear();
        assert_eq!(r.span_roots(), 0);
        assert!(r.blame_rows().is_empty());
        assert!(r.slow_ops().is_empty());
    }

    #[test]
    fn ambient_scopes_nest_and_restore() {
        assert_eq!(current_span(), 0);
        assert_eq!(current_actor(), Actor::None);
        {
            let _outer = span_scope(7);
            let _actor = actor_scope(Actor::Lifecycle);
            assert_eq!(current_span(), 7);
            assert_eq!(current_actor(), Actor::Lifecycle);
            {
                let _inner = span_scope(9);
                assert_eq!(current_span(), 9);
            }
            assert_eq!(current_span(), 7);
        }
        assert_eq!(current_span(), 0);
        assert_eq!(current_actor(), Actor::None);
    }

    #[test]
    fn spans_json_has_blame_and_trace_events() {
        let r = Recorder::new(64, 1);
        r.enable_spans(SpanConfig::default());
        let rid = r.new_span();
        let mut io = ev(Stage::DeviceIo, 1, 6);
        io.parent = rid;
        r.record(io);
        let mut root = ev(Stage::WholeOp, 0, 8);
        root.span = rid;
        root.device = 1;
        r.record(root);
        let j = spans_json("unit", &r);
        assert!(j.contains("\"kind\": \"spans\""));
        assert!(j.contains("\"tenant\": \"1\""));
        assert!(j.contains("\"ph\": \"X\""));
        for c in BLAME_CATEGORIES {
            assert!(j.contains(&format!("{c}_ns")), "missing category {c}");
        }
    }
}
