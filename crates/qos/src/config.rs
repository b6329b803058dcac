//! Tenant and scheduler configuration.

/// Quality-of-service contract for one tenant: reservation (floor),
/// weight (proportional share), whether its sequential writes may be
/// coalesced, and the actor its dispatches run under.
///
/// The tag algebra follows mClock (Gulati et al., OSDI 2010): every op
/// receives a reservation tag spaced `1/reservation_iops` apart and a
/// proportional tag advanced by `cost / weight`; the dispatcher serves
/// overdue reservation tags first and otherwise the smallest
/// proportional tag.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Human-readable tenant label (reports, artifacts).
    pub name: String,
    /// Minimum IOPS floor honored under overload (0 = no reservation).
    pub reservation_iops: u64,
    /// Proportional-share weight (must be nonzero).
    pub weight: u64,
    /// Merge adjacent sequential writes into stripe-aligned batches.
    pub coalesce: bool,
    /// Actor identity the tenant's dispatches run under. `None` keeps
    /// the default mapping (management → lifecycle, IO → foreground);
    /// internal tenants (e.g. log-structured GC) override it so device
    /// stalls they cause are blamed to the right interference category.
    pub actor: Option<obs::Actor>,
}

impl TenantSpec {
    /// A best-effort tenant: weight 1, no reservation.
    pub fn new(name: impl Into<String>) -> Self {
        TenantSpec {
            name: name.into(),
            reservation_iops: 0,
            weight: 1,
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
}

/// Four dispatch slots, no stripe alignment. Kept because the
/// stand-alone `benchmark/` package builds its configs with
/// `..QosConfig::default()`.
impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            server_depth: 4,
            stripe_sectors: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let t = TenantSpec::new("t").weight(3).reservation(100);
        assert_eq!(t.weight, 3);
        assert_eq!(t.reservation_iops, 100);
        assert!(!t.coalesce);
        assert!(t.actor.is_none());
        assert!(QosConfig::default().server_depth > 0);
    }

    #[test]
    #[should_panic(expected = "weight must be nonzero")]
    fn zero_weight_rejected() {
        let _ = TenantSpec::new("t").weight(0);
    }
}
