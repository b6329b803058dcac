//! Submit-and-drain adapter for background actors that ride the
//! scheduler as an internal tenant.

use crate::QosScheduler;
use sim::SimTime;
use workloads::{Admission, SchedCompletion, SharedScheduler, TenantId};
use zns::Result;

/// A background actor's seat at the scheduler: zone-lifecycle management,
/// garbage collection and the like submit their IO as one (low-weight)
/// tenant, so mClock arbitrates it against foreground tenants instead of
/// letting it bypass the queue.
///
/// Each [`InternalTenant::submit_and_drain`] submits one op and then
/// steps the scheduler until it goes idle, so the op is dispatched before
/// the actor — or the next foreground op — proceeds, and leaves the
/// tenant's queue empty between submits.
pub struct InternalTenant<'a> {
    sched: &'a QosScheduler,
    tenant: TenantId,
    completions: Vec<SchedCompletion>,
    next_tag: u64,
}

impl<'a> InternalTenant<'a> {
    /// Seats an actor as `tenant` of `sched`.
    pub fn new(sched: &'a QosScheduler, tenant: TenantId) -> Self {
        InternalTenant {
            sched,
            tenant,
            completions: Vec::with_capacity(64),
            next_tag: 0,
        }
    }

    /// Submits one op — `submit` gets the scheduler, this tenant and a
    /// fresh tag — then drains the scheduler, and returns the latest
    /// completion instant it saw (`at` if nothing completed). `what`
    /// names the op in the error a shed produces.
    ///
    /// # Errors
    ///
    /// Propagates scheduler and target errors; a shed op is an
    /// [`zns::ZnsError::InvalidArgument`].
    pub fn submit_and_drain(
        &mut self,
        at: SimTime,
        what: std::fmt::Arguments<'_>,
        submit: impl FnOnce(&QosScheduler, TenantId, u64) -> Result<Admission>,
    ) -> Result<SimTime> {
        submit(self.sched, self.tenant, self.next_tag)?.admitted(what)?;
        self.next_tag += 1;
        self.completions.clear();
        while self.sched.step(&mut self.completions)? {}
        Ok(self.completions.iter().fold(at, |t, c| t.max(c.done)))
    }
}
