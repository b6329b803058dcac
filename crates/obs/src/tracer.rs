//! The one handle a layer holds to emit trace events.
//!
//! A layer describes *what happened* as a [`Span`] (op, stage, where,
//! when) and hands it to its [`Tracer`]; the tracer owns everything the
//! layer should not have to retype — the attached [`Recorder`] (if any),
//! the layer's device id, the ambient causal parent and actor, and the
//! `seq`/`span`/`outcome` defaults of a [`TraceEvent`].

use crate::{
    current_actor, current_span, span_scope, Actor, Counter, OpClass, Outcome, PathKind, Recorder,
    SpanScope, Stage, TraceEvent, NONE,
};
use sim::SimTime;
use std::sync::{Arc, OnceLock};

/// What one traced span did, where and when: the fields only the emitting
/// layer knows. Unset fields take the defaults every layer wants — no
/// path, the tracer's own device, no zone, `lba`/`sectors` 0, a successful
/// outcome, the ambient span as parent and the ambient actor as blame.
#[derive(Debug, Clone, Copy)]
#[must_use = "a Span records nothing until a Tracer emits it"]
pub struct Span {
    op: OpClass,
    stage: Stage,
    path: Option<PathKind>,
    device: Option<u32>,
    zone: u32,
    lba: u64,
    sectors: u64,
    start: SimTime,
    end: SimTime,
    outcome: Outcome,
    blame: Blame,
    top: bool,
}

/// Who a span's time is blamed on, resolved when the event is emitted.
#[derive(Debug, Clone, Copy)]
enum Blame {
    /// The ambient actor.
    Ambient,
    /// Nobody.
    Nobody,
    /// The previous occupant of a busy unit, unless that was the ambient
    /// actor's own work.
    Behind(Actor),
}

impl Span {
    /// A span of `stage` for an `op` command over `[start, end]`.
    pub fn new(op: OpClass, stage: Stage, start: SimTime, end: SimTime) -> Span {
        Span {
            op,
            stage,
            path: None,
            device: None,
            zone: NONE,
            lba: 0,
            sectors: 0,
            start,
            end,
            outcome: Outcome::Success,
            blame: Blame::Ambient,
            top: false,
        }
    }

    /// The internal path the op took (the trace-as-oracle field).
    pub fn path(mut self, path: PathKind) -> Span {
        self.path = Some(path);
        self
    }

    /// Overrides the tracer's own device id (schedulers and engines put
    /// the tenant index here).
    pub fn device(mut self, device: u32) -> Span {
        self.device = Some(device);
        self
    }

    /// The zone the span touched.
    pub fn zone(mut self, zone: u32) -> Span {
        self.zone = zone;
        self
    }

    /// Starting LBA of the affected range.
    pub fn lba(mut self, lba: u64) -> Span {
        self.lba = lba;
        self
    }

    /// Length of the affected range in sectors.
    pub fn sectors(mut self, sectors: u64) -> Span {
        self.sectors = sectors;
        self
    }

    /// How the span ended (device layers tag injected faults).
    pub fn outcome(mut self, outcome: Outcome) -> Span {
        self.outcome = outcome;
        self
    }

    /// Marks a stall behind work `prev` left on a busy unit: the span is
    /// blamed on `prev`, or on nobody when `prev` is the ambient actor —
    /// queueing behind one's own class is not interference.
    pub fn behind(mut self, prev: Actor) -> Span {
        self.blame = Blame::Behind(prev);
        self
    }

    /// Marks a top-level event: it ignores the ambient span and actor
    /// (`parent` 0, no blame), so it closes or stays outside a tree no
    /// matter whose scope the emitting code happens to run under.
    pub fn top(mut self) -> Span {
        self.top = true;
        self.blame = Blame::Nobody;
        self
    }

    fn event(self, own_device: u32, span: u64, parent: u64) -> TraceEvent {
        TraceEvent {
            seq: 0,
            op: self.op,
            stage: self.stage,
            path: self.path,
            device: self.device.unwrap_or(own_device),
            zone: self.zone,
            lba: self.lba,
            sectors: self.sectors,
            start: self.start,
            end: self.end,
            outcome: self.outcome,
            span,
            parent: if self.top { 0 } else { parent },
            blame: match self.blame {
                Blame::Ambient => current_actor(),
                Blame::Nobody => Actor::None,
                Blame::Behind(prev) if prev == current_actor() => Actor::None,
                Blame::Behind(prev) => prev,
            },
        }
    }
}

/// A causal span opened by [`Tracer::begin`]: its id is the thread's
/// ambient span until this guard drops, so every event recorded meanwhile
/// links under it. Close it with [`Tracer::root`].
#[derive(Debug)]
pub struct OpenSpan {
    id: u64,
    parent: u64,
    _scope: SpanScope,
}

impl OpenSpan {
    /// The span's id (0 when span tracing is off or no recorder is
    /// attached).
    pub fn id(&self) -> u64 {
        self.id
    }
}

#[derive(Debug, Clone)]
struct Attached {
    recorder: Arc<Recorder>,
    device: u32,
}

/// A layer's handle on the observability plane: detached until a
/// [`Recorder`] is attached, after which every call lands on it.
///
/// Attaching works through `&self` at any time after construction;
/// emitting is lock-free, and on a detached tracer it is one atomic load.
/// A tracer attaches once: a second [`Tracer::attach`] is a caller bug
/// and panics.
#[derive(Debug, Default, Clone)]
pub struct Tracer {
    slot: OnceLock<Attached>,
}

impl Tracer {
    /// A detached tracer: every call is a no-op.
    pub const fn new() -> Tracer {
        Tracer {
            slot: OnceLock::new(),
        }
    }

    /// Attaches `recorder`. Events carry `device` unless their [`Span`]
    /// names another; layers that are not a device pass [`NONE`].
    ///
    /// # Panics
    ///
    /// Panics if the tracer is already attached.
    pub fn attach(&self, recorder: Arc<Recorder>, device: u32) {
        let fresh = self.slot.set(Attached { recorder, device }).is_ok();
        assert!(fresh, "Tracer::attach: a recorder is already attached");
    }

    /// The device id given at attach time, once attached.
    pub fn device(&self) -> Option<u32> {
        self.slot.get().map(|a| a.device)
    }

    /// Records a leaf event: no span identity of its own, linked under
    /// the ambient span.
    #[inline]
    pub fn leaf(&self, span: Span) {
        if let Some(a) = self.slot.get() {
            a.recorder.record(span.event(a.device, 0, current_span()));
        }
    }

    /// Opens a causal span for a top-level operation: allocates an id (0
    /// when span tracing is off), remembers the enclosing span as its
    /// parent and makes it the ambient span until the guard drops.
    #[inline]
    pub fn begin(&self) -> OpenSpan {
        let parent = current_span();
        let id = self.slot.get().map_or(0, |a| a.recorder.new_span());
        OpenSpan {
            id,
            parent,
            _scope: span_scope(id),
        }
    }

    /// Records the event that carries `open`'s identity; once it lands the
    /// recorder reassembles everything recorded under the span into the
    /// op's blame tree.
    #[inline]
    pub fn root(&self, open: &OpenSpan, span: Span) {
        if let Some(a) = self.slot.get() {
            a.recorder
                .record(span.event(a.device, open.id, open.parent));
        }
    }

    /// Drops a zero-width [`Stage::LockWait`] marker at `at` into the
    /// ambient span (only while span tracing is on). Wall-clock lock
    /// contention never enters the virtual timeline, but the marker places
    /// the acquisition in the op's blame tree and exported waterfalls.
    #[inline]
    pub fn lock_mark(&self, op: OpClass, zone: u32, at: SimTime) {
        if self.slot.get().is_some_and(|a| a.recorder.spans_enabled()) {
            self.leaf(Span::new(op, Stage::LockWait, at, at).zone(zone));
        }
    }

    /// Increments `counter` by one.
    #[inline]
    pub fn bump(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Adds `n` to `counter`.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(a) = self.slot.get() {
            a.recorder.add(counter, n);
        }
    }
}
