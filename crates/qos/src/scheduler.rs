//! The multi-tenant scheduler: admission, mClock dispatch, coalescing.

use crate::config::{QosConfig, TenantSpec};
use crate::mclock::{TagState, NO_RESERVATION};
use crate::stats::TenantSnapshot;
use parking_lot::Mutex;
use sim::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use workloads::{Admission, IoTarget, OpToken, SchedCompletion, SharedScheduler, TenantId};
use zns::{Result, ZnsError, SECTOR_SIZE};

/// Ops merged into one coalesced batch at most (also the size of the
/// stack-allocated segment table of its gather write).
const MAX_COALESCE_OPS: usize = 32;

/// Retired payload buffers kept for reuse across ops.
const POOL_CAP: usize = 1024;

/// Ops each tenant queue holds before it first grows. Submitters bound
/// their own queues (the engine keeps at most `queue_depth` outstanding
/// per job, internal tenants drain after every submit), so in steady
/// state a queue never outgrows this and never allocates.
const QUEUE_PREALLOC: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpDir {
    Read,
    Write,
    /// A zone-management command; `off` carries the zone index.
    Mgmt(zns::ZoneMgmtOp),
}

impl OpDir {
    /// The trace op class of a queued op.
    fn class(self) -> obs::OpClass {
        match self {
            OpDir::Read => obs::OpClass::Read,
            OpDir::Write => obs::OpClass::Write,
            OpDir::Mgmt(zns::ZoneMgmtOp::Finish) => obs::OpClass::Finish,
            OpDir::Mgmt(zns::ZoneMgmtOp::Reset) => obs::OpClass::Reset,
            OpDir::Mgmt(_) => obs::OpClass::ZoneMgmt,
        }
    }
}

struct QueuedOp {
    token: OpToken,
    tag: u64,
    dir: OpDir,
    off: u64,
    sectors: u64,
    arrival_ns: u64,
    r_tag: u64,
    p_tag: u64,
    /// Pooled payload for writes; `None` for reads.
    buf: Option<Vec<u8>>,
}

#[derive(Debug, Default)]
struct TenantTotals {
    admitted: u64,
    completed: u64,
    batches: u64,
    merged: u64,
    bytes: u64,
}

struct TenantState {
    spec: TenantSpec,
    queue: VecDeque<QueuedOp>,
    tags: TagState,
    totals: TenantTotals,
}

struct Inner {
    tenants: Vec<TenantState>,
    /// Free-at instants (nanos) of the `server_depth` dispatch slots.
    slots: BinaryHeap<Reverse<u64>>,
    /// Global proportional virtual time: p-tag of the last dispatch.
    vtime: u64,
    next_token: OpToken,
    /// Recycled payload buffers.
    pool: Vec<Vec<u8>>,
    /// Scratch: constituents of the batch being dispatched.
    batch: Vec<QueuedOp>,
    /// Scratch: read landing buffer.
    read_buf: Vec<u8>,
}

/// A deterministic virtual-time I/O scheduler wrapping one
/// [`IoTarget`] with per-tenant mClock scheduling (reservation and
/// weight) and stripe-aware write coalescing. It admits every
/// well-formed submission.
///
/// Drive it with [`workloads::Engine::run_shared`], or directly through
/// the [`SharedScheduler`] trait. All state sits behind one mutex and
/// every method takes `&self`, so multiple engine workers may submit
/// concurrently; dispatch order is then serialized by the mutex and
/// deterministic only for a deterministic call sequence (the benchmarks
/// drive it single-threaded for exactly that reason).
pub struct QosScheduler {
    target: Arc<dyn IoTarget>,
    config: QosConfig,
    tracer: obs::Tracer,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for QosScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QosScheduler")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl QosScheduler {
    /// Creates a scheduler over `target` with one queue per tenant spec.
    ///
    /// # Errors
    ///
    /// Fails if `tenants` is empty or the server depth is zero.
    pub fn new(
        target: Arc<dyn IoTarget>,
        config: QosConfig,
        tenants: Vec<TenantSpec>,
    ) -> Result<Self> {
        if tenants.is_empty() {
            return Err(ZnsError::InvalidArgument(
                "at least one tenant required".to_string(),
            ));
        }
        if config.server_depth == 0 {
            return Err(ZnsError::InvalidArgument(
                "server depth must be nonzero".to_string(),
            ));
        }
        let states = tenants
            .into_iter()
            .map(|spec| TenantState {
                queue: VecDeque::with_capacity(QUEUE_PREALLOC),
                tags: TagState::new(&spec),
                totals: TenantTotals::default(),
                spec,
            })
            .collect::<Vec<_>>();
        let mut slots = BinaryHeap::with_capacity(config.server_depth);
        for _ in 0..config.server_depth {
            slots.push(Reverse(0));
        }
        Ok(QosScheduler {
            target,
            config,
            tracer: obs::Tracer::new(),
            inner: Mutex::new(Inner {
                tenants: states,
                slots,
                vtime: 0,
                next_token: 0,
                pool: Vec::with_capacity(POOL_CAP),
                batch: Vec::with_capacity(MAX_COALESCE_OPS),
                read_buf: Vec::new(),
            }),
        })
    }

    /// Attaches an observability recorder: each completed op emits a
    /// queue-wait span (arrival to dispatch) and a service span
    /// (dispatch to completion) tagged with its tenant index, and
    /// coalesced and management ops bump their counters.
    pub fn with_recorder(self, recorder: Arc<obs::Recorder>) -> Self {
        self.tracer.attach(recorder, obs::NONE);
        self
    }

    /// Per-tenant accounting snapshots, in registration order.
    pub fn stats(&self) -> Vec<TenantSnapshot> {
        let inner = self.inner.lock();
        inner
            .tenants
            .iter()
            .map(|t| TenantSnapshot {
                name: t.spec.name.clone(),
                admitted: t.totals.admitted,
                completed: t.totals.completed,
                shed: 0,
                deferred: 0,
                batches: t.totals.batches,
                merged: t.totals.merged,
                bytes: t.totals.bytes,
            })
            .collect()
    }

    /// Enqueues a zone-management operation for `tenant`: it competes for
    /// dispatch under the same mClock tags as data IO (weighted as one
    /// sector), so a low-priority internal tenant's management traffic
    /// can never starve foreground tenants. `zone` is the logical zone
    /// index on the wrapped target.
    ///
    /// # Errors
    ///
    /// Fails on an unknown tenant.
    pub fn submit_mgmt(
        &self,
        tenant: TenantId,
        tag: u64,
        arrival: SimTime,
        zone: u32,
        op: zns::ZoneMgmtOp,
    ) -> Result<Admission> {
        self.submit_dir(tenant, tag, arrival, zone as u64, 1, None, OpDir::Mgmt(op))
    }

    fn submit(
        &self,
        tenant: TenantId,
        tag: u64,
        arrival: SimTime,
        off: u64,
        sectors: u64,
        data: Option<&[u8]>,
    ) -> Result<Admission> {
        let dir = if data.is_some() {
            OpDir::Write
        } else {
            OpDir::Read
        };
        if off + sectors > self.target.capacity_sectors() {
            return Err(ZnsError::OutOfRange { lba: off, sectors });
        }
        self.submit_dir(tenant, tag, arrival, off, sectors, data, dir)
    }

    #[allow(clippy::too_many_arguments)]
    fn submit_dir(
        &self,
        tenant: TenantId,
        tag: u64,
        arrival: SimTime,
        off: u64,
        sectors: u64,
        data: Option<&[u8]>,
        dir: OpDir,
    ) -> Result<Admission> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let ti = tenant as usize;
        if ti >= inner.tenants.len() {
            return Err(ZnsError::InvalidArgument(format!(
                "unknown tenant {tenant}"
            )));
        }
        if sectors == 0 {
            return Err(ZnsError::InvalidArgument(
                "zero-length submission".to_string(),
            ));
        }
        if let Some(d) = data {
            if d.len() as u64 != sectors * SECTOR_SIZE {
                return Err(ZnsError::InvalidArgument(format!(
                    "payload length {} does not match {sectors} sectors",
                    d.len()
                )));
            }
        }
        let token = inner.next_token;
        inner.next_token += 1;
        let vtime = inner.vtime;
        let t = &mut inner.tenants[ti];
        let arrival_ns = arrival.as_nanos();
        let r_tag = t.tags.next_r_tag(arrival_ns);
        let p_tag = t.tags.next_p_tag(vtime, sectors);
        let buf = data.map(|d| {
            let mut b = inner.pool.pop().unwrap_or_default();
            b.clear();
            b.extend_from_slice(d);
            b
        });
        t.queue.push_back(QueuedOp {
            token,
            tag,
            dir,
            off,
            sectors,
            arrival_ns,
            r_tag,
            p_tag,
            buf,
        });
        t.totals.admitted += 1;
        Ok(Admission::Admitted(token))
    }

    /// Picks the tenant to serve at `now_ns`: overdue reservation tags
    /// first (smallest tag wins), then the smallest proportional tag
    /// among heads that have arrived. Ties break toward the lower tenant
    /// index, keeping dispatch fully deterministic.
    fn pick(&self, inner: &Inner, now_ns: u64) -> Option<usize> {
        let mut best_r: Option<(u64, usize)> = None;
        let mut best_p: Option<(u64, usize)> = None;
        for (i, t) in inner.tenants.iter().enumerate() {
            let Some(head) = t.queue.front() else {
                continue;
            };
            if head.arrival_ns > now_ns {
                continue;
            }
            if head.r_tag != NO_RESERVATION && head.r_tag <= now_ns {
                let cand = (head.r_tag, i);
                if best_r.map(|b| cand < b).unwrap_or(true) {
                    best_r = Some(cand);
                }
            }
            let cand = (head.p_tag, i);
            if best_p.map(|b| cand < b).unwrap_or(true) {
                best_p = Some(cand);
            }
        }
        best_r.or(best_p).map(|(_, i)| i)
    }
}

impl SharedScheduler for QosScheduler {
    fn capacity_sectors(&self) -> u64 {
        self.target.capacity_sectors()
    }

    fn max_io_at(&self, off: u64) -> u64 {
        self.target.max_io_at(off)
    }

    fn submit_write(
        &self,
        tenant: TenantId,
        tag: u64,
        arrival: SimTime,
        off: u64,
        data: &[u8],
    ) -> Result<Admission> {
        let sectors = data.len() as u64 / SECTOR_SIZE;
        self.submit(tenant, tag, arrival, off, sectors, Some(data))
    }

    fn submit_read(
        &self,
        tenant: TenantId,
        tag: u64,
        arrival: SimTime,
        off: u64,
        sectors: u64,
    ) -> Result<Admission> {
        self.submit(tenant, tag, arrival, off, sectors, None)
    }

    fn step(&self, out: &mut Vec<SchedCompletion>) -> Result<bool> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;

        // Earliest instant any head could dispatch: its arrival.
        let Some(min_arrival) = inner
            .tenants
            .iter()
            .filter_map(|t| t.queue.front().map(|head| head.arrival_ns))
            .min()
        else {
            return Ok(false);
        };
        let slot_free = inner.slots.peek().map(|Reverse(n)| *n).unwrap_or(0);
        let now_ns = slot_free.max(min_arrival);

        let ti = match self.pick(inner, now_ns) {
            Some(ti) => ti,
            // Unreachable: the head achieving `min_arrival` has arrived
            // by `now_ns` by construction. Keep a defensive error.
            None => {
                return Err(ZnsError::InvalidArgument(
                    "scheduler found no eligible tenant".to_string(),
                ))
            }
        };

        // Pop the head, then greedily absorb adjacent queued sequential
        // writes into a stripe-aligned batch.
        inner.batch.clear();
        let coalesce_on = inner.tenants[ti].spec.coalesce;
        let head = inner.tenants[ti]
            .queue
            .pop_front()
            .expect("picked tenant has a head op");
        let start_off = head.off;
        let head_p_tag = head.p_tag;
        let dir = head.dir;
        let mut end_off = head.off + head.sectors;
        inner.batch.push(head);
        if coalesce_on && dir == OpDir::Write {
            // Batches never cross the next stripe boundary after their
            // start (so merged batches land stripe-aligned) nor the
            // target's own boundary at the start offset.
            let stripe = self.config.stripe_sectors;
            let stripe_end = start_off
                .checked_div(stripe)
                .map_or(u64::MAX, |q| (q + 1) * stripe);
            let hard_end = stripe_end.min(start_off + self.target.max_io_at(start_off));
            while inner.batch.len() < MAX_COALESCE_OPS {
                let Some(next) = inner.tenants[ti].queue.front() else {
                    break;
                };
                if next.dir != OpDir::Write
                    || next.off != end_off
                    || next.arrival_ns > now_ns
                    || end_off + next.sectors > hard_end
                {
                    break;
                }
                let op = inner.tenants[ti]
                    .queue
                    .pop_front()
                    .expect("front checked above");
                end_off += op.sectors;
                inner.batch.push(op);
            }
        }

        // One batch consumes one dispatch slot.
        inner.slots.pop();
        inner.vtime = inner.vtime.max(head_p_tag);

        // The batch is the causal root: the target's own op span and the
        // per-op QueueWait/Service events all link under it. Management
        // dispatches run as the lifecycle actor so device stalls they
        // cause are blamed as interference.
        let batch_span = self.tracer.begin();
        let actor_guard = obs::actor_scope(match inner.tenants[ti].spec.actor {
            Some(actor) => actor,
            None => match dir {
                OpDir::Mgmt(_) => obs::Actor::Lifecycle,
                _ => obs::Actor::Foreground,
            },
        });
        let batch_arrival = inner
            .batch
            .iter()
            .map(|o| o.arrival_ns)
            .min()
            .unwrap_or(now_ns);

        let dispatch = SimTime::from_nanos(now_ns);
        let total_sectors = end_off - start_off;
        let done = match dir {
            OpDir::Write => {
                let mut segs: [&[u8]; MAX_COALESCE_OPS] = [&[]; MAX_COALESCE_OPS];
                for (i, op) in inner.batch.iter().enumerate() {
                    segs[i] = op.buf.as_deref().expect("write op carries payload");
                }
                self.target
                    .write_vectored(dispatch, start_off, &segs[..inner.batch.len()])?
            }
            OpDir::Read => {
                let bytes = (total_sectors * SECTOR_SIZE) as usize;
                if inner.read_buf.len() < bytes {
                    inner.read_buf.resize(bytes, 0);
                }
                self.target
                    .read(dispatch, start_off, &mut inner.read_buf[..bytes])?
            }
            // Never coalesced: one management command per dispatch slot.
            OpDir::Mgmt(op) => self.target.manage_zone(dispatch, start_off as u32, op)?,
        };
        inner.slots.push(Reverse(done.as_nanos()));

        let merged = inner.batch.len() as u64 - 1;
        let t = &mut inner.tenants[ti];
        t.totals.batches += 1;
        t.totals.merged += merged;
        self.tracer.add(obs::Counter::SchedCoalescedOps, merged);
        for mut op in inner.batch.drain(..) {
            let arrival = SimTime::from_nanos(op.arrival_ns);
            t.totals.completed += 1;
            if matches!(op.dir, OpDir::Mgmt(_)) {
                self.tracer.bump(obs::Counter::SchedMgmtOps);
            } else {
                t.totals.bytes += op.sectors * SECTOR_SIZE;
            }
            let class = op.dir.class();
            let tenant = ti as u32;
            self.tracer.leaf(
                obs::Span::new(class, obs::Stage::QueueWait, arrival, dispatch)
                    .device(tenant)
                    .lba(op.off)
                    .sectors(op.sectors),
            );
            self.tracer.leaf(
                obs::Span::new(class, obs::Stage::Service, dispatch, done)
                    .device(tenant)
                    .lba(op.off)
                    .sectors(op.sectors),
            );
            if let Some(buf) = op.buf.take() {
                if inner.pool.len() < POOL_CAP {
                    inner.pool.push(buf);
                }
            }
            out.push(SchedCompletion {
                token: op.token,
                tenant: ti as TenantId,
                tag: op.tag,
                arrival,
                dispatched: dispatch,
                done,
            });
        }
        // Close the batch's blame tree: the root is recorded after every
        // child event and as a top-level event, so it carries `parent ==
        // 0` and no blame whatever scope `step` runs under. Zero sectors —
        // the per-op Service events already account the batch's bytes in
        // window throughput.
        drop(actor_guard);
        if batch_span.id() != 0 {
            let arrival = SimTime::from_nanos(batch_arrival);
            self.tracer.root(
                &batch_span,
                obs::Span::new(dir.class(), obs::Stage::WholeOp, arrival, done)
                    .device(ti as u32)
                    .lba(start_off)
                    .top(),
            );
        }
        Ok(true)
    }
}
