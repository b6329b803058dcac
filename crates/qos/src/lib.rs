//! Multi-tenant QoS scheduling over any [`workloads::IoTarget`].
//!
//! The RAIZN paper's evaluation stacks several applications (F2FS,
//! RocksDB, MySQL) on one volume; this crate supplies the arbitration
//! layer that scenario needs, as a deterministic virtual-time scheduler:
//!
//! - **mClock tag scheduling** ([`TenantSpec`]): per-tenant reservation
//!   (IOPS floor) and weight (proportional share). Every well-formed
//!   submission is admitted; each submitter bounds its own queue (the
//!   engine by its jobs' queue depths, an [`InternalTenant`] by draining
//!   after every submit).
//! - **Stripe-aware write coalescing**: adjacent sequential writes merge
//!   into stripe-aligned batches submitted through the target's gather
//!   path, converting RAIZN partial-parity log appends into full-stripe
//!   parity writes.
//!
//! Everything runs on the `sim` virtual clock and is bit-for-bit
//! deterministic given a deterministic submission sequence.
//!
//! # Examples
//!
//! ```
//! use qos::{QosConfig, QosScheduler, TenantSpec};
//! use std::sync::Arc;
//! use workloads::{Engine, JobSpec, OpKind, Pattern, ZonedTarget};
//! use zns::{ZnsConfig, ZnsDevice};
//!
//! let dev = Arc::new(ZnsDevice::new(ZnsConfig::small_test()));
//! let target = Arc::new(ZonedTarget::new(dev));
//! let sched = QosScheduler::new(
//!     target,
//!     QosConfig::default(),
//!     vec![TenantSpec::new("a").weight(2), TenantSpec::new("b")],
//! )
//! .unwrap();
//! let jobs = vec![
//!     JobSpec::new(OpKind::Write, Pattern::Sequential, 4).ops(8).tenant(0),
//!     JobSpec::new(OpKind::Write, Pattern::Sequential, 4)
//!         .ops(8)
//!         .region(64, 128)
//!         .tenant(1),
//! ];
//! let report = Engine::new(7).run_shared(&sched, &jobs).unwrap();
//! assert_eq!(report.total_ops, 16);
//! assert_eq!(report.jobs[0].ops, 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod internal;
mod mclock;
mod scheduler;
mod stats;

pub use config::{QosConfig, TenantSpec};
pub use internal::InternalTenant;
pub use scheduler::QosScheduler;
pub use stats::TenantSnapshot;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use workloads::{Engine, JobSpec, OpKind, Pattern, SharedScheduler, ZonedTarget};
    use zns::{LatencyConfig, ZnsConfig, ZnsDevice};

    fn target() -> Arc<ZonedTarget<ZnsDevice>> {
        Arc::new(ZonedTarget::new(Arc::new(ZnsDevice::new(
            ZnsConfig::builder()
                .zones(16, 1024, 1024)
                .open_limits(8, 12)
                .latency(LatencyConfig::zns_ssd())
                .store_data(false)
                .build(),
        ))))
    }

    #[test]
    fn empty_tenants_rejected() {
        let err = QosScheduler::new(target(), QosConfig::default(), vec![]).unwrap_err();
        assert!(matches!(err, zns::ZnsError::InvalidArgument(_)));
    }

    #[test]
    fn unknown_tenant_rejected() {
        let s = QosScheduler::new(
            target(),
            QosConfig::default(),
            vec![TenantSpec::new("only")],
        )
        .unwrap();
        let err = s.submit_read(7, 0, sim::SimTime::ZERO, 0, 8).unwrap_err();
        assert!(matches!(err, zns::ZnsError::InvalidArgument(_)));
    }

    #[test]
    fn single_tenant_completes_all_ops() {
        let s =
            QosScheduler::new(target(), QosConfig::default(), vec![TenantSpec::new("t")]).unwrap();
        let job = JobSpec::new(OpKind::Write, Pattern::Sequential, 16)
            .ops(64)
            .queue_depth(8);
        let rep = Engine::new(1).run_shared(&s, &[job]).unwrap();
        assert_eq!(rep.total_ops, 64);
        let st = s.stats();
        assert_eq!(st[0].admitted, 64);
        assert_eq!(st[0].completed, 64);
        assert_eq!(st[0].shed, 0);
    }

    #[test]
    fn queue_deeper_than_its_preallocation_admits_every_op() {
        // The engine keeps all 300 ops outstanding at once, more than a
        // queue holds before it grows; every one is admitted and served.
        let s =
            QosScheduler::new(target(), QosConfig::default(), vec![TenantSpec::new("t")]).unwrap();
        let job = JobSpec::new(OpKind::Write, Pattern::Sequential, 8)
            .ops(300)
            .queue_depth(300);
        let rep = Engine::new(6).run_shared(&s, &[job]).unwrap();
        assert_eq!(rep.total_ops, 300);
        let st = s.stats();
        assert_eq!((st[0].admitted, st[0].completed, st[0].shed), (300, 300, 0));
    }

    #[test]
    fn coalescer_merges_adjacent_writes() {
        let s = QosScheduler::new(
            target(),
            QosConfig {
                stripe_sectors: 64,
                ..QosConfig::default()
            },
            vec![TenantSpec::new("t").coalesce(true)],
        )
        .unwrap();
        let job = JobSpec::new(OpKind::Write, Pattern::Sequential, 8)
            .ops(128)
            .queue_depth(32);
        let rep = Engine::new(5).run_shared(&s, &[job]).unwrap();
        assert_eq!(rep.total_ops, 128);
        let st = s.stats();
        assert!(st[0].merged > 0, "adjacent sequential writes must merge");
        assert!(st[0].batches < st[0].completed);
    }
}
