//! The job engine: queue depths, issue scheduling and reporting.

use crate::sched::{Admission, SchedCompletion, SharedScheduler, TenantId};
use crate::series::LatencySeries;
use crate::target::{io_buffer, IoTarget};
use sim::{Histogram, SimDuration, SimRng, SimTime, Timeseries, TimeseriesPoint};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use zns::{Result, ZnsError, SECTOR_SIZE};

/// Live pipeline occupancy gauge: how many IOs the engine currently keeps
/// in flight across all jobs (and the high-water mark). Attach with
/// [`Engine::depth_gauge`] and register on an [`obs::Timeline`] to get a
/// `pipeline_queue_depth` series; multi-threaded runs share one gauge
/// across workers.
#[derive(Debug, Default)]
pub struct PipelineDepth {
    cur: AtomicU64,
    peak: AtomicU64,
}

impl PipelineDepth {
    /// Creates a zeroed gauge.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Current in-flight IO count.
    pub fn current(&self) -> u64 {
        self.cur.load(Ordering::Relaxed)
    }

    /// Highest in-flight IO count observed.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    fn enter(&self) {
        let now = self.cur.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn exit(&self) {
        self.cur.fetch_sub(1, Ordering::Relaxed);
    }
}

impl obs::GaugeSource for PipelineDepth {
    fn source_label(&self) -> &'static str {
        "engine"
    }

    fn sample_gauges(&self, out: &mut Vec<obs::GaugeReading>) {
        out.push(obs::GaugeReading::new(
            "pipeline_queue_depth",
            obs::NONE,
            self.current() as f64,
        ));
        out.push(obs::GaugeReading::new(
            "pipeline_queue_depth_peak",
            obs::NONE,
            self.peak() as f64,
        ));
    }
}

/// Operation type of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Direct reads.
    Read,
    /// Direct writes.
    Write,
}

impl OpKind {
    fn class(self) -> obs::OpClass {
        match self {
            OpKind::Read => obs::OpClass::Read,
            OpKind::Write => obs::OpClass::Write,
        }
    }
}

/// Address pattern of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Ascending offsets from the job's start, wrapping within its region.
    Sequential,
    /// Uniform block-aligned offsets within the job's region.
    Random,
}

/// One fio-style job: a stream of same-sized IOs with a private queue
/// depth over a region of the target.
#[derive(Debug, Clone)]
pub struct JobSpec {
    kind: OpKind,
    pattern: Pattern,
    block_sectors: u64,
    queue_depth: usize,
    ops: u64,
    region: Option<(u64, u64)>,
    tenant: TenantId,
}

impl JobSpec {
    /// Creates a job issuing `block_sectors`-sized IOs.
    ///
    /// # Panics
    ///
    /// Panics if `block_sectors` is zero.
    pub fn new(kind: OpKind, pattern: Pattern, block_sectors: u64) -> Self {
        assert!(block_sectors > 0, "block size must be nonzero");
        JobSpec {
            kind,
            pattern,
            block_sectors,
            queue_depth: 1,
            ops: 0,
            region: None,
            tenant: 0,
        }
    }

    /// Sets the queue depth (fio `iodepth`).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "queue depth must be nonzero");
        self.queue_depth = depth;
        self
    }

    /// Sets the number of IOs to issue. Zero (the default) means "cover
    /// the region exactly once" for sequential jobs and is invalid for
    /// random jobs.
    pub fn ops(mut self, ops: u64) -> Self {
        self.ops = ops;
        self
    }

    /// Restricts the job to dense sector range `[start, end)`.
    pub fn region(mut self, start: u64, end: u64) -> Self {
        assert!(start < end, "empty job region");
        self.region = Some((start, end));
        self
    }

    /// Binds the job to a scheduler tenant (used by
    /// [`Engine::run_shared`]; plain [`Engine::run`] ignores it).
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// The tenant this job is bound to.
    pub fn tenant_id(&self) -> TenantId {
        self.tenant
    }
}

/// Per-job results of a run: op counts and the job's own latency
/// distribution, so multi-tenant runs can report per-tenant tails
/// without a custom recorder.
#[derive(Debug, Clone, Default)]
pub struct JobReport {
    /// IOs completed by this job.
    pub ops: u64,
    /// Bytes transferred by this job.
    pub bytes: u64,
    /// Ops rejected at scheduler admission (always 0 for [`Engine::run`]).
    pub shed: u64,
    /// Ops whose queue wait exceeded the tenant deadline (still
    /// completed; always 0 for [`Engine::run`]).
    pub deferred: u64,
    /// This job's per-IO latency distribution (arrival to completion).
    pub latency: Histogram,
}

impl JobReport {
    /// Median latency.
    pub fn p50(&self) -> SimDuration {
        self.latency.percentile(50.0)
    }

    /// 95th-percentile latency.
    pub fn p95(&self) -> SimDuration {
        self.latency.percentile(95.0)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> SimDuration {
        self.latency.percentile(99.0)
    }
}

/// Aggregate results of a run.
#[derive(Debug)]
pub struct RunReport {
    /// IOs completed.
    pub total_ops: u64,
    /// Bytes transferred.
    pub total_bytes: u64,
    /// Wall (virtual) time from first issue to last completion.
    pub duration: SimDuration,
    /// Per-IO latency distribution.
    pub latency: Histogram,
    /// Throughput timeseries, when sampling was enabled.
    pub throughput_series: Option<Vec<TimeseriesPoint>>,
    /// Latency timeseries, when sampling was enabled.
    pub latency_series: Option<Vec<(SimTime, SimDuration, SimDuration)>>,
    /// The virtual instant the run finished (for chaining phases).
    pub end: SimTime,
    /// Per-job results, in job order.
    pub jobs: Vec<JobReport>,
}

impl RunReport {
    /// Mean throughput in MiB/s over the run.
    pub fn throughput_mib_s(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.total_bytes as f64 / (1024.0 * 1024.0) / secs
    }

    /// Operations per second over the run.
    pub fn iops(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.total_ops as f64 / secs
    }
}

struct JobState {
    spec: JobSpec,
    region: (u64, u64),
    next_seq: u64,
    remaining: u64,
    in_flight: BinaryHeap<Reverse<u64>>,
    frontier: SimTime,
    /// Ops submitted to a shared scheduler whose completions are pending
    /// (only used by [`Engine::run_shared`]).
    outstanding: usize,
}

impl JobState {
    /// Picks the next dense offset per the job's pattern, advancing the
    /// sequential cursor. `max_io_at` reports the largest IO that may
    /// start at an offset (random picks retry to stay inside a boundary).
    fn next_offset(&mut self, rng: &mut SimRng, max_io_at: &dyn Fn(u64) -> u64) -> u64 {
        let block = self.spec.block_sectors;
        match self.spec.pattern {
            Pattern::Sequential => {
                if self.next_seq + block > self.region.1 {
                    self.next_seq = self.region.0;
                }
                let o = self.next_seq;
                self.next_seq += block;
                o
            }
            Pattern::Random => {
                let slots = (self.region.1 - self.region.0) / block;
                let mut o = self.region.0 + rng.gen_range(slots) * block;
                let mut tries = 0;
                while max_io_at(o) < block && tries < 32 {
                    o = self.region.0 + rng.gen_range(slots) * block;
                    tries += 1;
                }
                o
            }
        }
    }
}

/// Completion accounting of one run, shared by every run loop: the
/// latency distributions, per-job and total counts, the sampled series,
/// the op's whole-op trace event, the gauge-timeline tick and the run's
/// end instant.
struct Tally {
    tracer: obs::Tracer,
    timeline: Option<Arc<obs::Timeline>>,
    latency: Histogram,
    per_job: Vec<JobReport>,
    throughput: Option<Timeseries>,
    latencies: Option<LatencySeries>,
    total_ops: u64,
    total_bytes: u64,
    end: SimTime,
}

impl Tally {
    /// A zeroed tally for a run of `jobs` jobs observed through
    /// `engine`'s tracer and timeline, sampling series at `sample`.
    fn new(engine: &Engine, jobs: usize, sample: Option<SimDuration>) -> Tally {
        Tally {
            tracer: engine.tracer.clone(),
            timeline: engine.timeline.clone(),
            latency: Histogram::new(),
            per_job: (0..jobs).map(|_| JobReport::default()).collect(),
            throughput: sample.map(Timeseries::new),
            latencies: sample.map(LatencySeries::new),
            total_ops: 0,
            total_bytes: 0,
            end: engine.start,
        }
    }

    /// Accounts one op of job `ji` that moved `bytes` and completed at
    /// `done`, `latency` after it was issued (or arrived). `event` is the
    /// op's whole-op trace event; it closes the blame tree of `root` when
    /// the engine opened one for the op.
    fn complete(
        &mut self,
        ji: usize,
        bytes: u64,
        latency: SimDuration,
        done: SimTime,
        root: Option<obs::OpenSpan>,
        event: obs::Span,
    ) {
        self.latency.record(latency);
        let job = &mut self.per_job[ji];
        job.ops += 1;
        job.bytes += bytes;
        job.latency.record(latency);
        match root {
            Some(open) => self.tracer.root(&open, event),
            None => self.tracer.leaf(event),
        }
        if let Some(tl) = self.timeline.as_ref() {
            tl.maybe_sample(done);
        }
        if let Some(ts) = self.throughput.as_mut() {
            ts.record(done, bytes);
        }
        if let Some(ls) = self.latencies.as_mut() {
            ls.record(done, latency);
        }
        self.total_ops += 1;
        self.total_bytes += bytes;
        self.end = self.end.max(done);
    }

    /// Folds a worker's finished report in; its jobs are this run's jobs
    /// `first`, `first + stride`, …
    fn absorb(&mut self, report: RunReport, first: usize, stride: usize) {
        for (k, jr) in report.jobs.into_iter().enumerate() {
            self.per_job[first + k * stride] = jr;
        }
        self.latency.merge(&report.latency);
        self.total_ops += report.total_ops;
        self.total_bytes += report.total_bytes;
        self.end = self.end.max(report.end);
    }

    fn report(self, start: SimTime) -> RunReport {
        RunReport {
            total_ops: self.total_ops,
            total_bytes: self.total_bytes,
            duration: self.end.saturating_since(start),
            latency: self.latency,
            throughput_series: self.throughput.map(|t| t.points()),
            latency_series: self.latencies.map(|l| l.points()),
            end: self.end,
            jobs: self.per_job,
        }
    }
}

/// The workload engine. Deterministic given its seed.
#[derive(Debug)]
pub struct Engine {
    rng: SimRng,
    seed: u64,
    start: SimTime,
    sample: Option<SimDuration>,
    time_limit: Option<SimDuration>,
    tracer: obs::Tracer,
    timeline: Option<Arc<obs::Timeline>>,
    depth: Option<Arc<PipelineDepth>>,
}

impl Engine {
    /// Creates an engine with a deterministic seed, starting at t = 0.
    pub fn new(seed: u64) -> Self {
        Engine {
            rng: SimRng::new(seed),
            seed,
            start: SimTime::ZERO,
            sample: None,
            time_limit: None,
            tracer: obs::Tracer::new(),
            timeline: None,
            depth: None,
        }
    }

    /// Attaches a shared [`PipelineDepth`] gauge the run updates on every
    /// issue and retire.
    pub fn depth_gauge(mut self, gauge: Arc<PipelineDepth>) -> Self {
        self.depth = Some(gauge);
        self
    }

    /// Attaches an observability recorder: every issued IO lands on it as
    /// a whole-op span (kind, offset, size, issue and completion times),
    /// making the engine's op stream replayable and comparable across
    /// runs.
    pub fn recorder(self, recorder: Arc<obs::Recorder>) -> Self {
        self.tracer.attach(recorder, obs::NONE);
        self
    }

    /// Attaches a gauge timeline: after every IO completion the engine
    /// offers the completion instant to [`obs::Timeline::maybe_sample`],
    /// which samples all registered gauge sources whenever the virtual
    /// clock has crossed the timeline's sampling interval. The engine is
    /// the natural driver because it is the only component that observes
    /// virtual time advancing with no device or volume lock held.
    pub fn timeline(mut self, timeline: Arc<obs::Timeline>) -> Self {
        self.timeline = Some(timeline);
        self
    }

    /// Starts issuing at `at` instead of t = 0 (for chaining phases).
    pub fn start_at(mut self, at: SimTime) -> Self {
        self.start = at;
        self
    }

    /// Enables throughput/latency timeseries sampling at `interval`.
    pub fn sample_interval(mut self, interval: SimDuration) -> Self {
        self.sample = Some(interval);
        self
    }

    /// Stops issuing new IOs once this much virtual time has elapsed.
    pub fn time_limit(mut self, limit: SimDuration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Validates `jobs` against a target of `cap` sectors and builds the
    /// per-job runtime states.
    fn init_states(&self, jobs: &[JobSpec], cap: u64) -> Result<Vec<JobState>> {
        if jobs.is_empty() {
            return Err(ZnsError::InvalidArgument(
                "at least one job required".to_string(),
            ));
        }
        let mut states = Vec::with_capacity(jobs.len());
        for spec in jobs {
            let region = spec.region.unwrap_or((0, cap));
            if region.1 > cap {
                return Err(ZnsError::InvalidArgument(format!(
                    "job region end {} exceeds target capacity {cap}",
                    region.1
                )));
            }
            let region_blocks = (region.1 - region.0) / spec.block_sectors;
            if region_blocks == 0 {
                return Err(ZnsError::InvalidArgument(
                    "job region smaller than one block".to_string(),
                ));
            }
            if spec.ops == 0 && spec.pattern != Pattern::Sequential {
                return Err(ZnsError::InvalidArgument(
                    "random jobs must set an explicit op count".to_string(),
                ));
            }
            let remaining = if spec.ops > 0 {
                spec.ops
            } else {
                region_blocks
            };
            states.push(JobState {
                spec: spec.clone(),
                region,
                next_seq: region.0,
                remaining,
                in_flight: BinaryHeap::new(),
                frontier: self.start,
                outstanding: 0,
            });
        }
        Ok(states)
    }

    /// Runs `jobs` against `target` to completion.
    ///
    /// # Errors
    ///
    /// Propagates the first target IO error.
    pub fn run(&mut self, target: &dyn IoTarget, jobs: &[JobSpec]) -> Result<RunReport> {
        let cap = target.capacity_sectors();
        let mut states = self.init_states(jobs, cap)?;

        let max_block =
            jobs.iter().map(|j| j.block_sectors).max().ok_or_else(|| {
                ZnsError::InvalidArgument("at least one job required".to_string())
            })?;
        let mut buf = io_buffer(max_block);
        let mut tally = Tally::new(self, jobs.len(), self.sample);
        let deadline = self.time_limit.map(|l| self.start + l);

        loop {
            // Pick the issuable job with the earliest issue instant;
            // break ties toward the job with the fewest IOs in flight so
            // concurrent jobs interleave their submissions (like racing
            // fio threads) instead of bursting one queue at a time.
            let mut best: Option<(usize, SimTime, usize)> = None;
            for (i, j) in states.iter().enumerate() {
                if j.remaining == 0 {
                    continue;
                }
                let t = if j.in_flight.len() < j.spec.queue_depth {
                    j.frontier
                } else {
                    match j.in_flight.peek() {
                        Some(Reverse(n)) => SimTime::from_nanos(*n),
                        None => j.frontier,
                    }
                };
                let depth = j.in_flight.len();
                if best
                    .map(|(_, bt, bd)| (t, depth) < (bt, bd))
                    .unwrap_or(true)
                {
                    best = Some((i, t, depth));
                }
            }
            let Some((ji, issue, _)) = best else { break };
            if let Some(d) = deadline {
                if issue >= d {
                    break;
                }
            }
            let job = &mut states[ji];
            // Retire completions that free the queue slot.
            while job.in_flight.len() >= job.spec.queue_depth {
                let Some(Reverse(done)) = job.in_flight.pop() else {
                    break;
                };
                job.frontier = job.frontier.max(SimTime::from_nanos(done));
                if let Some(g) = self.depth.as_ref() {
                    g.exit();
                }
            }
            let issue = job.frontier.max(issue);

            // Choose the offset.
            let block = job.spec.block_sectors;
            let off = job.next_offset(&mut self.rng, &|o| target.max_io_at(o));
            let bytes = (block * SECTOR_SIZE) as usize;
            // The engine op is the causal root: the target's own span and
            // everything below it link under it, whatever scope the engine
            // itself runs under.
            let root = self.tracer.begin();
            let done = match job.spec.kind {
                OpKind::Read => target.read(issue, off, &mut buf[..bytes])?,
                OpKind::Write => target.write(issue, off, &buf[..bytes])?,
            };
            let event = obs::Span::new(job.spec.kind.class(), obs::Stage::WholeOp, issue, done)
                .lba(off)
                .sectors(block)
                .top();
            let lat = done.since(issue);
            tally.complete(ji, bytes as u64, lat, done, Some(root), event);
            job.in_flight.push(Reverse(done.as_nanos()));
            if let Some(g) = self.depth.as_ref() {
                g.enter();
            }
            job.remaining -= 1;
        }
        if let Some(g) = self.depth.as_ref() {
            for job in &states {
                for _ in 0..job.in_flight.len() {
                    g.exit();
                }
            }
        }

        Ok(tally.report(self.start))
    }

    /// A worker engine for `run_threaded`: this engine's settings and
    /// shared observers, its own RNG stream, no timeseries sampling.
    fn worker(&self, stream: u64) -> Engine {
        Engine {
            rng: SimRng::new_stream(self.seed, stream),
            seed: self.seed,
            start: self.start,
            sample: None,
            time_limit: self.time_limit,
            tracer: self.tracer.clone(),
            timeline: self.timeline.clone(),
            depth: self.depth.clone(),
        }
    }

    /// Runs `jobs` against `target` on `threads` OS threads: worker `w`
    /// owns the jobs whose index is congruent to `w` modulo `threads` and
    /// drives them with its own closed loop and a private RNG stream
    /// ([`SimRng::new_stream`] of this engine's seed). Workers merge back
    /// in worker order and per-job reports land at their original indices,
    /// so the logical outcome (ops, bytes, read-back data) of a given
    /// `(seed, jobs, threads)` triple is reproducible; per-IO virtual
    /// latencies may differ across runs when workers contend for the same
    /// device service units.
    ///
    /// Jobs should target disjoint regions (for zoned targets: disjoint
    /// zones) — RAIZN serializes same-zone writers, and the zone-reset
    /// heuristic of [`ZonedTarget`](crate::ZonedTarget) is not atomic
    /// across racing jobs. Timeseries sampling is disabled for workers;
    /// the recorder, timeline and depth gauge (all thread-safe) are
    /// shared.
    ///
    /// # Errors
    ///
    /// Propagates the first worker error (lowest worker index wins).
    pub fn run_threaded(
        &self,
        target: &dyn IoTarget,
        jobs: &[JobSpec],
        threads: usize,
    ) -> Result<RunReport> {
        let threads = threads.max(1).min(jobs.len().max(1));
        if threads == 1 {
            // Degenerate case: keep the exact single-threaded loop (and
            // its bit-identical op order).
            return self.worker(0).run(target, jobs);
        }
        let results: Vec<Result<RunReport>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let subset: Vec<JobSpec> =
                        jobs.iter().skip(w).step_by(threads).cloned().collect();
                    let mut worker = self.worker(w as u64);
                    scope.spawn(move || worker.run(target, &subset))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        // Deterministic merge: workers in index order, each job report back
        // at its original position.
        let mut tally = Tally::new(self, jobs.len(), None);
        for (w, result) in results.into_iter().enumerate() {
            tally.absorb(result?, w, threads);
        }
        Ok(tally.report(self.start))
    }

    /// Runs `jobs` closed-loop against a shared multi-tenant scheduler:
    /// each job keeps up to its queue depth submitted, the scheduler
    /// dispatches in its own (mClock) order, and completions drive the
    /// next submissions. Deterministic: the submission sequence depends
    /// only on specs, seed and the scheduler's own deterministic replies.
    ///
    /// # Errors
    ///
    /// Propagates target IO errors and scheduler protocol violations
    /// (e.g. a scheduler going idle with ops still outstanding).
    pub fn run_shared(
        &mut self,
        sched: &dyn SharedScheduler,
        jobs: &[JobSpec],
    ) -> Result<RunReport> {
        let cap = sched.capacity_sectors();
        let mut states = self.init_states(jobs, cap)?;

        let max_block =
            jobs.iter().map(|j| j.block_sectors).max().ok_or_else(|| {
                ZnsError::InvalidArgument("at least one job required".to_string())
            })?;
        let buf = io_buffer(max_block);
        let mut tally = Tally::new(self, jobs.len(), self.sample);
        let deadline = self.time_limit.map(|l| self.start + l);
        let mut comps: Vec<SchedCompletion> = Vec::with_capacity(64);

        // Submits one op for job `ji` at its frontier. Sheds count as
        // consumed ops (the scheduler has already accounted them) and
        // push the job's frontier to the advised retry instant so the
        // loop always terminates.
        fn submit_one(
            engine: &mut Engine,
            sched: &dyn SharedScheduler,
            states: &mut [JobState],
            per_job: &mut [JobReport],
            buf: &[u8],
            ji: usize,
        ) -> Result<()> {
            let job = &mut states[ji];
            let block = job.spec.block_sectors;
            let off = job.next_offset(&mut engine.rng, &|o| sched.max_io_at(o));
            let arrival = job.frontier;
            let tenant = job.spec.tenant;
            let admission = match job.spec.kind {
                OpKind::Write => {
                    let bytes = (block * SECTOR_SIZE) as usize;
                    sched.submit_write(tenant, ji as u64, arrival, off, &buf[..bytes])?
                }
                OpKind::Read => sched.submit_read(tenant, ji as u64, arrival, off, block)?,
            };
            match admission {
                Admission::Admitted(_) => {
                    states[ji].outstanding += 1;
                    states[ji].remaining -= 1;
                }
                Admission::Shed { retry_at, .. } => {
                    per_job[ji].shed += 1;
                    states[ji].remaining -= 1;
                    let bumped = arrival + SimDuration::from_nanos(1);
                    states[ji].frontier = retry_at.max(bumped);
                }
            }
            Ok(())
        }

        // Initial fill: give every job its full queue depth up front.
        // Ops are not dispatch-eligible before their arrival instants,
        // so early submission does not perturb scheduling.
        for ji in 0..states.len() {
            while states[ji].remaining > 0 && states[ji].outstanding < states[ji].spec.queue_depth {
                submit_one(self, sched, &mut states, &mut tally.per_job, &buf, ji)?;
            }
        }

        loop {
            comps.clear();
            let any = sched.step(&mut comps)?;
            if !any {
                let idle = states
                    .iter()
                    .all(|s| s.remaining == 0 && s.outstanding == 0);
                if idle {
                    break;
                }
                return Err(ZnsError::InvalidArgument(
                    "shared scheduler went idle with ops outstanding".to_string(),
                ));
            }
            for c in &comps {
                let ji = c.tag as usize;
                if ji >= states.len() || states[ji].outstanding == 0 {
                    return Err(ZnsError::InvalidArgument(format!(
                        "shared scheduler returned unknown completion tag {}",
                        c.tag
                    )));
                }
                states[ji].outstanding -= 1;
                let spec = &states[ji].spec;
                // The scheduler already records the batch root; this
                // per-op completion stays outside the tree.
                let event =
                    obs::Span::new(spec.kind.class(), obs::Stage::WholeOp, c.arrival, c.done)
                        .device(spec.tenant)
                        .sectors(spec.block_sectors)
                        .top();
                let bytes = spec.block_sectors * SECTOR_SIZE;
                tally.complete(ji, bytes, c.done.since(c.arrival), c.done, None, event);
                if c.deferred {
                    tally.per_job[ji].deferred += 1;
                }
                states[ji].frontier = states[ji].frontier.max(c.done);
                if let Some(d) = deadline {
                    if states[ji].frontier >= d {
                        states[ji].remaining = 0;
                    }
                }
            }
            // Refill the queues the completions just drained.
            for ji in 0..states.len() {
                while states[ji].remaining > 0
                    && states[ji].outstanding < states[ji].spec.queue_depth
                {
                    submit_one(self, sched, &mut states, &mut tally.per_job, &buf, ji)?;
                }
            }
        }

        Ok(tally.report(self.start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::ZonedTarget;
    use std::sync::Arc;
    use zns::{LatencyConfig, ZnsConfig, ZnsDevice, ZonedVolume};

    fn timed_device() -> Arc<ZnsDevice> {
        Arc::new(ZnsDevice::new(
            ZnsConfig::builder()
                .zones(16, 1024, 1024)
                .open_limits(8, 12)
                .latency(LatencyConfig::zns_ssd())
                .store_data(false)
                .build(),
        ))
    }

    #[test]
    fn sequential_write_covers_region_once_by_default() {
        let t = ZonedTarget::new(timed_device());
        let job = JobSpec::new(OpKind::Write, Pattern::Sequential, 64).region(0, 1024);
        let report = Engine::new(1).run(&t, &[job]).unwrap();
        assert_eq!(report.total_ops, 16);
        assert_eq!(report.total_bytes, 1024 * 4096);
        assert!(report.throughput_mib_s() > 0.0);
    }

    #[test]
    fn queue_depth_improves_read_throughput() {
        let dev = timed_device();
        let t = ZonedTarget::new(dev);
        // Prime.
        let w = JobSpec::new(OpKind::Write, Pattern::Sequential, 64).region(0, 4096);
        let mut e = Engine::new(2);
        let fill = e.run(&t, &[w]).unwrap();
        let run_read = |qd: usize, start: SimTime| {
            let job = JobSpec::new(OpKind::Read, Pattern::Random, 8)
                .region(0, 4096)
                .ops(512)
                .queue_depth(qd);
            Engine::new(3).start_at(start).run(&t, &[job]).unwrap()
        };
        let qd1 = run_read(1, fill.end);
        let qd16 = run_read(16, qd1.end);
        assert!(
            qd16.throughput_mib_s() > 2.0 * qd1.throughput_mib_s(),
            "qd16 {} <= 2x qd1 {}",
            qd16.throughput_mib_s(),
            qd1.throughput_mib_s()
        );
    }

    #[test]
    fn multiple_jobs_share_the_target() {
        let t = ZonedTarget::new(timed_device());
        let jobs: Vec<JobSpec> = (0..4)
            .map(|i| {
                JobSpec::new(OpKind::Write, Pattern::Sequential, 64)
                    .region(i * 1024, (i + 1) * 1024)
                    .queue_depth(8)
            })
            .collect();
        let report = Engine::new(4).run(&t, &jobs).unwrap();
        assert_eq!(report.total_ops, 64);
    }

    #[test]
    fn sequential_wrap_overwrites() {
        let t = ZonedTarget::new(timed_device());
        // 2x the region size -> second pass resets zones.
        let job = JobSpec::new(OpKind::Write, Pattern::Sequential, 64)
            .region(0, 1024)
            .ops(32);
        let report = Engine::new(5).run(&t, &[job]).unwrap();
        assert_eq!(report.total_ops, 32);
    }

    #[test]
    fn time_limit_caps_run() {
        let t = ZonedTarget::new(timed_device());
        let job = JobSpec::new(OpKind::Write, Pattern::Sequential, 64).ops(1_000_000);
        let mut e = Engine::new(6).time_limit(SimDuration::from_millis(10));
        let report = e.run(&t, &[job]).unwrap();
        assert!(report.total_ops < 1_000_000);
        assert!(report.duration <= SimDuration::from_millis(20));
    }

    #[test]
    fn sampling_produces_series() {
        let t = ZonedTarget::new(timed_device());
        let job = JobSpec::new(OpKind::Write, Pattern::Sequential, 64).region(0, 4096);
        let mut e = Engine::new(7).sample_interval(SimDuration::from_millis(100));
        let report = e.run(&t, &[job]).unwrap();
        let ts = report.throughput_series.expect("sampling enabled");
        assert!(!ts.is_empty());
        assert_eq!(ts.iter().map(|p| p.bytes).sum::<u64>(), report.total_bytes);
        assert!(report.latency_series.is_some());
    }

    #[test]
    fn latency_histogram_counts_every_op() {
        let t = ZonedTarget::new(timed_device());
        let job = JobSpec::new(OpKind::Write, Pattern::Sequential, 16).ops(100);
        let report = Engine::new(8).run(&t, &[job]).unwrap();
        assert_eq!(report.latency.count(), 100);
        assert!(report.latency.percentile(99.9) >= report.latency.median());
    }

    #[test]
    fn timeline_sampled_on_virtual_clock() {
        let dev = timed_device();
        let t = ZonedTarget::new(dev.clone());
        let tl = obs::Timeline::new(SimDuration::from_millis(1));
        tl.register(dev.clone());
        let job = JobSpec::new(OpKind::Write, Pattern::Sequential, 64).region(0, 8192);
        let report = Engine::new(12)
            .timeline(tl.clone())
            .run(&t, &[job])
            .unwrap();
        assert!(report.duration > SimDuration::from_millis(2));
        // At least one sample per elapsed millisecond window was possible;
        // the engine must have taken several.
        assert!(tl.samples_taken() >= 2, "samples: {}", tl.samples_taken());
        let wp = tl
            .series()
            .into_iter()
            .find(|s| s.gauge == "wp_sectors")
            .expect("zns gauge registered");
        // Write pointer advances monotonically across samples.
        assert!(wp.points.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(wp.points.last().unwrap().1 > 0.0);
    }

    #[test]
    fn threaded_run_matches_job_totals() {
        let t = ZonedTarget::new(timed_device());
        let jobs: Vec<JobSpec> = (0..4)
            .map(|i| {
                JobSpec::new(OpKind::Write, Pattern::Sequential, 64)
                    .region(i * 1024, (i + 1) * 1024)
                    .queue_depth(4)
            })
            .collect();
        let report = Engine::new(21).run_threaded(&t, &jobs, 4).unwrap();
        assert_eq!(report.total_ops, 64);
        assert_eq!(report.total_bytes, 64 * 64 * 4096);
        assert_eq!(report.jobs.len(), 4);
        for jr in &report.jobs {
            assert_eq!(jr.ops, 16);
        }
        assert_eq!(report.latency.count(), 64);
    }

    #[test]
    fn threaded_run_deterministic_logical_outcome() {
        let run_once = || {
            let dev = Arc::new(ZnsDevice::new(
                ZnsConfig::builder()
                    .zones(16, 1024, 1024)
                    .open_limits(8, 12)
                    .latency(LatencyConfig::zns_ssd())
                    .build(),
            ));
            let t = ZonedTarget::new(dev.clone());
            let jobs: Vec<JobSpec> = (0..4)
                .map(|i| {
                    JobSpec::new(OpKind::Write, Pattern::Sequential, 32)
                        .region(i * 2048, (i + 1) * 2048)
                        .queue_depth(2)
                })
                .collect();
            let report = Engine::new(33).run_threaded(&t, &jobs, 4).unwrap();
            let wps: Vec<u64> = (0..16)
                .map(|z| dev.zone_info(z).unwrap().write_pointer)
                .collect();
            (report.total_ops, report.total_bytes, wps)
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn depth_gauge_tracks_in_flight() {
        let t = ZonedTarget::new(timed_device());
        let gauge = PipelineDepth::new();
        let job = JobSpec::new(OpKind::Write, Pattern::Sequential, 64)
            .region(0, 4096)
            .queue_depth(8);
        Engine::new(13)
            .depth_gauge(gauge.clone())
            .run(&t, &[job])
            .unwrap();
        assert_eq!(gauge.current(), 0, "all IOs retired at run end");
        assert!(
            gauge.peak() >= 1 && gauge.peak() <= 8,
            "peak {}",
            gauge.peak()
        );
        let mut out = Vec::new();
        obs::GaugeSource::sample_gauges(&*gauge, &mut out);
        assert!(out.iter().any(|g| g.gauge == "pipeline_queue_depth"));
        assert!(out.iter().any(|g| g.gauge == "pipeline_queue_depth_peak"));
    }

    #[test]
    fn random_without_ops_rejected() {
        let t = ZonedTarget::new(timed_device());
        let job = JobSpec::new(OpKind::Read, Pattern::Random, 8);
        let err = Engine::new(9).run(&t, &[job]).unwrap_err();
        assert!(matches!(err, zns::ZnsError::InvalidArgument(ref m)
            if m.contains("random jobs must set an explicit op count")));
    }

    #[test]
    fn empty_job_list_rejected() {
        let t = ZonedTarget::new(timed_device());
        let err = Engine::new(10).run(&t, &[]).unwrap_err();
        assert!(matches!(err, zns::ZnsError::InvalidArgument(_)));
    }

    #[test]
    fn oversized_region_rejected() {
        let t = ZonedTarget::new(timed_device());
        let cap = t.capacity_sectors();
        let job = JobSpec::new(OpKind::Write, Pattern::Sequential, 8).region(0, cap + 8);
        let err = Engine::new(11).run(&t, &[job]).unwrap_err();
        assert!(matches!(err, zns::ZnsError::InvalidArgument(ref m)
            if m.contains("exceeds target capacity")));
    }
}
