//! Per-tenant accounting snapshots.

/// Cumulative per-tenant accounting, snapshotted from the scheduler.
/// Every well-formed submission is admitted, so `admitted == completed +
/// queued`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Tenant label from its [`TenantSpec`](crate::TenantSpec).
    pub name: String,
    /// Ops accepted at admission.
    pub admitted: u64,
    /// Ops dispatched and completed.
    pub completed: u64,
    /// Always 0: the scheduler sheds nothing. Kept because the
    /// stand-alone `benchmark/` package reads it.
    pub shed: u64,
    /// Always 0: the scheduler defers nothing. Kept because the
    /// stand-alone `benchmark/` package reads it.
    pub deferred: u64,
    /// Device dispatches (coalesced batches count once).
    pub batches: u64,
    /// Ops absorbed into batches beyond each batch's first op.
    pub merged: u64,
    /// Bytes transferred.
    pub bytes: u64,
}

impl TenantSnapshot {
    /// Fraction of completed ops that rode along in a coalesced batch.
    /// 0 before the first completion.
    pub fn coalesce_ratio(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.merged as f64 / self.completed as f64
        }
    }
}
