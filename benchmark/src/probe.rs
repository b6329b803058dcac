//! The benchmark's own measuring points, set around the calls into each
//! layer: exact per-op virtual latencies (always) and host-clock spans
//! (traced repetitions only).
//!
//! The stack is interposed where it takes trait objects — the engine's
//! [`IoTarget`] and [`SharedScheduler`] — so spans nest engine → qos →
//! volume. Everything below the volume takes concrete `Arc<ZnsDevice>` and
//! is not reachable from outside; its host share is estimated elsewhere.

use sim::SimTime;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use workloads::{Admission, IoTarget, SchedCompletion, SharedScheduler, TenantId};
use zns::Result;

/// One host-clock span. `parent` is the index of the enclosing span in the
/// log (`None` for a root); spans caused by the same engine-level call
/// share `op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
struct Log {
    write_ns: Vec<u64>,
    read_ns: Vec<u64>,
    spans: Vec<Span>,
    /// Indices of the spans currently open, outermost first.
    open: Vec<u32>,
    next_op: u64,
}

/// Sink shared by every wrapper of one repetition. Single driver thread, so
/// the mutex is never contended; it exists because the wrapped traits are
/// `Sync`.
pub struct Probe {
    log: Mutex<Log>,
    /// Host clock on: record spans. Off: only virtual latencies.
    trace: bool,
    epoch: Instant,
}

impl Probe {
    pub fn new(trace: bool) -> Arc<Probe> {
        Arc::new(Probe {
            log: Mutex::new(Log::default()),
            trace,
            epoch: Instant::now(),
        })
    }

    fn log(&self) -> MutexGuard<'_, Log> {
        self.log
            .lock()
            .expect("probe log poisoned: a wrapper panicked")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. Returns `None` (and costs
    /// one branch) when the host clock is off.
    pub fn begin(&self, name: &'static str) -> Option<u32> {
        if !self.trace {
            return None;
        }
        let start_ns = self.now_ns();
        let mut log = self.log();
        let parent = log.open.last().copied();
        // A call made directly by the engine (under the root) starts a new op.
        let op = match parent.map(|p| log.spans[p as usize]) {
            Some(p) if p.parent.is_some() => p.op,
            _ => {
                log.next_op += 1;
                log.next_op
            }
        };
        let id = log.spans.len() as u32;
        log.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        log.open.push(id);
        Some(id)
    }

    /// Closes the span [`Probe::begin`] returned.
    pub fn end(&self, id: Option<u32>) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        let mut log = self.log();
        log.spans[id as usize].end_ns = end_ns;
        let top = log.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    fn record_latency(&self, write: bool, issue: SimTime, done: SimTime) {
        let ns = done.saturating_since(issue).as_nanos();
        let mut log = self.log();
        if write {
            log.write_ns.push(ns);
        } else {
            log.read_ns.push(ns);
        }
    }

    /// Takes the spans recorded so far.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut self.log().spans)
    }

    /// Takes the (write, read) virtual latencies recorded so far, in ns.
    pub fn take_latencies(&self) -> (Vec<u64>, Vec<u64>) {
        let mut log = self.log();
        (
            std::mem::take(&mut log.write_ns),
            std::mem::take(&mut log.read_ns),
        )
    }
}

/// Wraps any [`IoTarget`]: a `volume.write` or `volume.read` span per call
/// and, when it is the engine's direct target, the op's virtual latency.
pub struct ProbeTarget {
    inner: Arc<dyn IoTarget>,
    probe: Arc<Probe>,
    /// Off under a scheduler, whose completions carry the latency that
    /// includes queueing.
    latencies: bool,
}

impl ProbeTarget {
    pub fn new(inner: Arc<dyn IoTarget>, probe: Arc<Probe>, latencies: bool) -> Self {
        ProbeTarget {
            inner,
            probe,
            latencies,
        }
    }

    fn call(
        &self,
        write: bool,
        at: SimTime,
        f: impl FnOnce() -> Result<SimTime>,
    ) -> Result<SimTime> {
        let span = self
            .probe
            .begin(if write { "volume.write" } else { "volume.read" });
        let done = f();
        self.probe.end(span);
        if self.latencies {
            if let Ok(done) = done {
                self.probe.record_latency(write, at, done);
            }
        }
        done
    }
}

impl IoTarget for ProbeTarget {
    fn capacity_sectors(&self) -> u64 {
        self.inner.capacity_sectors()
    }

    fn read(&self, at: SimTime, off: u64, buf: &mut [u8]) -> Result<SimTime> {
        self.call(false, at, || self.inner.read(at, off, buf))
    }

    fn write(&self, at: SimTime, off: u64, data: &[u8]) -> Result<SimTime> {
        self.call(true, at, || self.inner.write(at, off, data))
    }

    fn write_vectored(&self, at: SimTime, off: u64, segments: &[&[u8]]) -> Result<SimTime> {
        self.call(true, at, || self.inner.write_vectored(at, off, segments))
    }

    fn flush(&self, at: SimTime) -> Result<SimTime> {
        self.inner.flush(at)
    }

    fn manage_zone(&self, at: SimTime, zone: u32, op: zns::ZoneMgmtOp) -> Result<SimTime> {
        self.inner.manage_zone(at, zone, op)
    }

    fn max_io_at(&self, off: u64) -> u64 {
        self.inner.max_io_at(off)
    }
}

/// Wraps any [`SharedScheduler`]: a `qos` span per submit/step and each
/// completion's arrival-to-done virtual latency. `tag_is_write[tag]` says
/// which of the engine's jobs (the tag is the job index) write.
pub struct ProbeScheduler<'a> {
    inner: &'a dyn SharedScheduler,
    probe: Arc<Probe>,
    tag_is_write: Vec<bool>,
}

impl<'a> ProbeScheduler<'a> {
    pub fn new(inner: &'a dyn SharedScheduler, probe: Arc<Probe>, tag_is_write: Vec<bool>) -> Self {
        ProbeScheduler {
            inner,
            probe,
            tag_is_write,
        }
    }
}

impl SharedScheduler for ProbeScheduler<'_> {
    fn capacity_sectors(&self) -> u64 {
        self.inner.capacity_sectors()
    }

    fn max_io_at(&self, off: u64) -> u64 {
        self.inner.max_io_at(off)
    }

    fn submit_write(
        &self,
        tenant: TenantId,
        tag: u64,
        arrival: SimTime,
        off: u64,
        data: &[u8],
    ) -> Result<Admission> {
        let span = self.probe.begin("qos");
        let r = self.inner.submit_write(tenant, tag, arrival, off, data);
        self.probe.end(span);
        r
    }

    fn submit_read(
        &self,
        tenant: TenantId,
        tag: u64,
        arrival: SimTime,
        off: u64,
        sectors: u64,
    ) -> Result<Admission> {
        let span = self.probe.begin("qos");
        let r = self.inner.submit_read(tenant, tag, arrival, off, sectors);
        self.probe.end(span);
        r
    }

    fn step(&self, out: &mut Vec<SchedCompletion>) -> Result<bool> {
        let first = out.len();
        let span = self.probe.begin("qos");
        let r = self.inner.step(out);
        self.probe.end(span);
        for c in &out[first..] {
            let write = self
                .tag_is_write
                .get(c.tag as usize)
                .copied()
                .unwrap_or(false);
            self.probe.record_latency(write, c.arrival, c.done);
        }
        r
    }
}

/// Host time per span name: total inside spans of that name, and the part
/// not covered by their child spans (the layer's self time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTime {
    pub name: &'static str,
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span's self time is its duration minus the part of its interval that
/// its children cover; children are clipped to the parent and overlapping
/// children counted once. Layers come out in first-seen order. Because
/// every child's interval is removed from exactly one parent, the self
/// times of a tree sum to its root's duration. The spans of one log are
/// added to `out`, so several repetitions can be summed.
pub fn add_layer_times(spans: &[Span], out: &mut Vec<LayerTime>) {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (start, end) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for &(start, end) in kids.iter() {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        let total = s.end_ns - s.start_ns;
        let layer = match out.iter_mut().find(|l| l.name == s.name) {
            Some(l) => l,
            None => {
                out.push(LayerTime {
                    name: s.name,
                    spans: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                out.last_mut().expect("just pushed")
            }
        };
        layer.spans += 1;
        layer.total_ns += total;
        layer.self_ns += total - covered;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    fn layer_times(spans: &[Span]) -> Vec<LayerTime> {
        let mut out = Vec::new();
        add_layer_times(spans, &mut out);
        out
    }

    fn self_of(layers: &[LayerTime], name: &str) -> u64 {
        layers
            .iter()
            .find(|l| l.name == name)
            .map_or(0, |l| l.self_ns)
    }

    #[test]
    fn children_are_subtracted_once_and_sum_to_root() {
        let spans = [
            span("engine", None, 0, 1000),
            span("qos", Some(0), 100, 500),
            span("volume", Some(1), 200, 300),
            span("volume", Some(1), 350, 450),
            span("qos", Some(0), 600, 700),
        ];
        let l = layer_times(&spans);
        assert_eq!(self_of(&l, "engine"), 1000 - 400 - 100);
        assert_eq!(self_of(&l, "qos"), (400 - 200) + 100);
        assert_eq!(self_of(&l, "volume"), 200);
        assert_eq!(l.iter().map(|x| x.self_ns).sum::<u64>(), 1000);
        assert_eq!(l[1].spans, 2);
        assert_eq!(l[1].total_ns, 500);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("a", None, 100, 200),
            span("b", Some(0), 90, 150),  // clipped to [100, 150)
            span("b", Some(0), 140, 180), // overlaps the first by 10
            span("b", Some(0), 190, 250), // clipped to [190, 200)
        ];
        assert_eq!(self_of(&layer_times(&spans), "a"), 100 - 50 - 30 - 10);
    }

    #[test]
    fn zero_length_spans_are_harmless() {
        let spans = [
            span("a", None, 5, 5),
            span("b", Some(0), 5, 5),
            span("c", None, 7, 9),
            span("d", Some(2), 8, 8),
        ];
        let l = layer_times(&spans);
        assert_eq!(self_of(&l, "a"), 0);
        assert_eq!(self_of(&l, "b"), 0);
        assert_eq!(self_of(&l, "c"), 2);
        assert_eq!(l.len(), 4);
    }

    #[test]
    fn probe_nests_spans_and_numbers_ops() {
        let p = Probe::new(true);
        let root = p.begin("engine");
        let a = p.begin("qos");
        let b = p.begin("volume");
        p.end(b);
        p.end(a);
        let c = p.begin("qos");
        p.end(c);
        p.end(root);
        let s = p.take_spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[2].op, s[1].op, "nested call belongs to its caller's op");
        assert_ne!(s[3].op, s[1].op, "each engine-level call is its own op");
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));

        let off = Probe::new(false);
        assert_eq!(off.begin("engine"), None);
        off.end(None);
        assert!(off.take_spans().is_empty());
    }
}
