//! Tenant and scheduler configuration.

use sim::SimDuration;

/// Quality-of-service contract for one tenant: reservation (floor),
/// weight (proportional share), limit (ceiling), queue bound, deadline,
/// and whether its sequential writes may be coalesced.
///
/// The tag algebra follows mClock (Gulati et al., OSDI 2010): every op
/// receives a reservation tag spaced `1/reservation_iops` apart and a
/// proportional tag advanced by `cost / weight`; the dispatcher serves
/// overdue reservation tags first and otherwise the smallest
/// proportional tag among limit-eligible tenants.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Human-readable tenant label (reports, artifacts).
    pub name: String,
    /// Minimum IOPS floor honored under overload (0 = no reservation).
    pub reservation_iops: u64,
    /// Proportional-share weight (must be nonzero).
    pub weight: u64,
    /// IOPS ceiling enforced by a token bucket (0 = unlimited).
    pub limit_iops: u64,
    /// Token-bucket capacity: ops that may burst above the limit rate.
    pub burst_ops: u64,
    /// Bounded queue length; submissions beyond it are shed.
    pub queue_cap: usize,
    /// Queue-wait deadline: ops waiting longer complete but are counted
    /// as deferred ([`SimDuration::ZERO`] disables the accounting).
    pub deadline: SimDuration,
    /// Merge adjacent sequential writes into stripe-aligned batches.
    pub coalesce: bool,
    /// Actor identity the tenant's dispatches run under. `None` keeps
    /// the default mapping (management → lifecycle, IO → foreground);
    /// internal tenants (e.g. log-structured GC) override it so device
    /// stalls they cause are blamed to the right interference category.
    pub actor: Option<obs::Actor>,
}

impl TenantSpec {
    /// A best-effort tenant: weight 1, no reservation, no limit.
    pub fn new(name: impl Into<String>) -> Self {
        TenantSpec {
            name: name.into(),
            reservation_iops: 0,
            weight: 1,
            limit_iops: 0,
            burst_ops: 16,
            queue_cap: 256,
            deadline: SimDuration::ZERO,
            coalesce: false,
            actor: None,
        }
    }

    /// Sets the reservation floor in IOPS.
    pub fn reservation(mut self, iops: u64) -> Self {
        self.reservation_iops = iops;
        self
    }

    /// Sets the proportional-share weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is zero.
    pub fn weight(mut self, weight: u64) -> Self {
        assert!(weight > 0, "tenant weight must be nonzero");
        self.weight = weight;
        self
    }

    /// Sets the IOPS ceiling and burst allowance.
    pub fn limit(mut self, iops: u64, burst_ops: u64) -> Self {
        self.limit_iops = iops;
        self.burst_ops = burst_ops.max(1);
        self
    }

    /// Sets the bounded queue length.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn queue_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "tenant queue cap must be nonzero");
        self.queue_cap = cap;
        self
    }

    /// Sets the queue-wait deadline for deferral accounting.
    pub fn deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Enables stripe-aware write coalescing for this tenant.
    pub fn coalesce(mut self, on: bool) -> Self {
        self.coalesce = on;
        self
    }

    /// Runs every dispatch for this tenant under the given actor
    /// identity (overrides the default management/foreground mapping).
    pub fn actor(mut self, actor: obs::Actor) -> Self {
        self.actor = Some(actor);
        self
    }
}

/// Scheduler-wide knobs.
#[derive(Debug, Clone)]
pub struct QosConfig {
    /// Concurrent ops the underlying device absorbs (dispatch slots).
    /// Small depths make the scheduler the bottleneck, which is what
    /// exposes fairness; large depths approach device limits.
    pub server_depth: usize,
    /// Stripe size in sectors for coalescing alignment: batches never
    /// cross the next multiple of this after their start (0 disables
    /// alignment capping).
    pub stripe_sectors: u64,
    /// Service-latency EWMA above which the scheduler is congested and
    /// halves effective queue caps ([`SimDuration::ZERO`] disables).
    pub congestion_threshold: SimDuration,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            server_depth: 4,
            stripe_sectors: 0,
            congestion_threshold: SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let t = TenantSpec::new("t")
            .weight(3)
            .reservation(100)
            .limit(500, 8);
        assert_eq!(t.weight, 3);
        assert_eq!(t.reservation_iops, 100);
        assert_eq!(t.limit_iops, 500);
        assert_eq!(t.burst_ops, 8);
        assert!(!t.coalesce);
        assert!(QosConfig::default().server_depth > 0);
    }

    #[test]
    #[should_panic(expected = "weight must be nonzero")]
    fn zero_weight_rejected() {
        let _ = TenantSpec::new("t").weight(0);
    }
}
