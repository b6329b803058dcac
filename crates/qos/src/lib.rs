//! Multi-tenant QoS scheduling over any [`workloads::IoTarget`].
//!
//! The RAIZN paper's evaluation stacks several applications (F2FS,
//! RocksDB, MySQL) on one volume; this crate supplies the arbitration
//! layer that scenario needs, as a deterministic virtual-time scheduler:
//!
//! - **mClock tag scheduling** ([`TenantSpec`]): per-tenant reservation
//!   (IOPS floor), weight (proportional share) and limit (IOPS ceiling,
//!   enforced by a token bucket with burst credit).
//! - **Admission control**: bounded per-tenant queues; rejected
//!   submissions are counted and carry a deterministic retry estimate —
//!   never silently dropped. A device service-latency EWMA acts as the
//!   congestion signal, halving effective queue caps when it exceeds its
//!   threshold.
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
    fn bounded_queue_sheds_with_accounting() {
        // queue_cap 1 with deep engine queue: most submissions shed, but
        // every one is accounted and the run still terminates.
        let s = QosScheduler::new(
            target(),
            QosConfig::default(),
            vec![TenantSpec::new("t").queue_cap(1)],
        )
        .unwrap();
        let job = JobSpec::new(OpKind::Write, Pattern::Sequential, 16)
            .ops(64)
            .queue_depth(16);
        let rep = Engine::new(2).run_shared(&s, &[job]).unwrap();
        let st = s.stats();
        assert!(st[0].shed > 0, "expected sheds with queue_cap=1");
        assert_eq!(st[0].admitted + st[0].shed, 64);
        assert_eq!(rep.jobs[0].shed, st[0].shed);
        assert_eq!(rep.jobs[0].ops, st[0].completed);
    }

    #[test]
    fn limit_caps_throughput() {
        // 1000 IOPS limit -> 64 ops takes >= ~48ms even though the
        // device is far faster (burst of 16 rides for free).
        let s = QosScheduler::new(
            target(),
            QosConfig::default(),
            vec![TenantSpec::new("t").limit(1000, 16)],
        )
        .unwrap();
        let job = JobSpec::new(OpKind::Write, Pattern::Sequential, 16)
            .ops(64)
            .queue_depth(8);
        let rep = Engine::new(3).run_shared(&s, &[job]).unwrap();
        assert!(
            rep.duration >= sim::SimDuration::from_millis(40),
            "limited run finished too fast: {}",
            rep.duration
        );
    }

    #[test]
    fn deadline_marks_deferred() {
        let s = QosScheduler::new(
            target(),
            QosConfig {
                server_depth: 1,
                ..QosConfig::default()
            },
            vec![TenantSpec::new("t").deadline(sim::SimDuration::from_nanos(1))],
        )
        .unwrap();
        let job = JobSpec::new(OpKind::Write, Pattern::Sequential, 16)
            .ops(32)
            .queue_depth(8);
        let rep = Engine::new(4).run_shared(&s, &[job]).unwrap();
        assert!(rep.jobs[0].deferred > 0, "1ns deadline must defer ops");
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

    #[test]
    fn gauges_emit_stable_series() {
        use obs::GaugeSource;
        let s = QosScheduler::new(
            target(),
            QosConfig::default(),
            vec![TenantSpec::new("a"), TenantSpec::new("b")],
        )
        .unwrap();
        let mut out = Vec::new();
        s.sample_gauges(&mut out);
        assert_eq!(out.len(), 13, "5 gauges x 2 tenants + 3 lock gauges");
        let mut again = Vec::new();
        s.sample_gauges(&mut again);
        assert_eq!(
            out.iter().map(|g| (g.gauge, g.device)).collect::<Vec<_>>(),
            again
                .iter()
                .map(|g| (g.gauge, g.device))
                .collect::<Vec<_>>(),
            "gauge set must be stable across samples"
        );
    }
}
