//! The shared-scheduler protocol: how the engine drives a multi-tenant
//! I/O scheduler (e.g. `qos::QosScheduler`) without the two crates
//! depending on each other.
//!
//! A [`SharedScheduler`] decouples *submission* from *completion*: the
//! engine submits ops tagged with a tenant and an arrival instant, the
//! scheduler queues them, and [`SharedScheduler::step`] dispatches the
//! next op (or coalesced batch) in the scheduler's own order, returning
//! one [`SchedCompletion`] per original op. This lets a scheduler reorder
//! ops across tenants and merge a tenant's ops into batches, which the
//! synchronous [`IoTarget`](crate::IoTarget) interface cannot express.
//!
//! Determinism contract: given the same sequence of `submit_*`/`step`
//! calls, a scheduler must produce the same admissions, dispatch order
//! and completion times. The engine guarantees a deterministic call
//! sequence, so whole runs replay exactly.

use sim::SimTime;
use zns::{Result, ZnsError};

/// Index of a tenant registered with the scheduler.
pub type TenantId = u32;

/// Scheduler-assigned identifier of an admitted op.
pub type OpToken = u64;

/// Why an op was rejected at admission. Nothing in the workspace sheds;
/// kept, with [`Admission::Shed`], because the stand-alone `benchmark/`
/// package matches on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant's bounded queue was full.
    QueueFull,
}

/// Outcome of a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The op was queued; a completion carrying this token will follow.
    Admitted(OpToken),
    /// The op was rejected. No scheduler in the workspace constructs
    /// this; it stays because the stand-alone `benchmark/` package
    /// matches on it.
    Shed {
        /// Why admission failed.
        reason: ShedReason,
    },
}

impl Admission {
    /// The admitted op's token.
    ///
    /// # Errors
    ///
    /// A shed op is a [`ZnsError::InvalidArgument`] naming `what`.
    pub fn admitted(self, what: impl std::fmt::Display) -> Result<OpToken> {
        match self {
            Admission::Admitted(token) => Ok(token),
            Admission::Shed { reason } => Err(ZnsError::InvalidArgument(format!(
                "{what} shed ({reason:?})"
            ))),
        }
    }
}

/// Completion record of one admitted op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedCompletion {
    /// Token returned at admission.
    pub token: OpToken,
    /// Tenant the op belonged to.
    pub tenant: TenantId,
    /// Caller tag echoed from submission (the engine stores a job index).
    pub tag: u64,
    /// Instant the op arrived at the scheduler.
    pub arrival: SimTime,
    /// Instant the scheduler dispatched it to the underlying target.
    pub dispatched: SimTime,
    /// Instant the underlying target completed it.
    pub done: SimTime,
}

/// A multi-tenant I/O scheduler the engine can drive op by op.
pub trait SharedScheduler: Send + Sync {
    /// Usable capacity of the underlying target in sectors.
    fn capacity_sectors(&self) -> u64;

    /// Largest IO (sectors) that may start at dense offset `off` on the
    /// underlying target.
    fn max_io_at(&self, off: u64) -> u64;

    /// Submits a write of `data` at dense offset `off` for `tenant`.
    ///
    /// # Errors
    ///
    /// Fails only on malformed submissions (unknown tenant, unaligned
    /// length).
    fn submit_write(
        &self,
        tenant: TenantId,
        tag: u64,
        arrival: SimTime,
        off: u64,
        data: &[u8],
    ) -> Result<Admission>;

    /// Submits a read of `sectors` at dense offset `off` for `tenant`.
    ///
    /// # Errors
    ///
    /// Fails only on malformed submissions.
    fn submit_read(
        &self,
        tenant: TenantId,
        tag: u64,
        arrival: SimTime,
        off: u64,
        sectors: u64,
    ) -> Result<Admission>;

    /// Dispatches the next queued op (or coalesced batch) to the
    /// underlying target, appending one completion per original op to
    /// `out`. Returns `false` when nothing is queued.
    ///
    /// # Errors
    ///
    /// Propagates IO errors from the underlying target.
    fn step(&self, out: &mut Vec<SchedCompletion>) -> Result<bool>;
}
