//! Determinism regression: the same seed must produce identical
//! per-tenant reports and identical observability event traces across
//! two independent scheduler runs.

use qos::{QosConfig, QosScheduler, TenantSpec};
use std::sync::Arc;
use workloads::{Engine, JobSpec, OpKind, Pattern, RunReport, ZonedTarget};
use zns::{LatencyConfig, ZnsConfig, ZnsDevice};

const ZONE_SECTORS: u64 = 2048;

fn run_once(seed: u64) -> (RunReport, Vec<obs::TraceEvent>, Vec<qos::TenantSnapshot>) {
    let target = Arc::new(ZonedTarget::new(Arc::new(ZnsDevice::new(
        ZnsConfig::builder()
            .zones(16, ZONE_SECTORS, ZONE_SECTORS)
            .open_limits(8, 12)
            .latency(LatencyConfig::zns_ssd())
            .store_data(false)
            .build(),
    ))));
    let recorder = obs::Recorder::new(4096, 1);
    let sched = QosScheduler::new(
        target,
        QosConfig {
            server_depth: 2,
            stripe_sectors: 64,
        },
        vec![
            TenantSpec::new("reserved").reservation(1000),
            TenantSpec::new("weighted").weight(4),
            TenantSpec::new("reserved-weighted")
                .reservation(2000)
                .weight(2),
            TenantSpec::new("coalesced").coalesce(true),
        ],
    )
    .unwrap()
    .with_recorder(recorder.clone());
    let region = |i: u64| (i * 4 * ZONE_SECTORS, (i + 1) * 4 * ZONE_SECTORS);
    let jobs = vec![
        JobSpec::new(OpKind::Write, Pattern::Sequential, 16)
            .ops(150)
            .queue_depth(8)
            .region(region(0).0, region(0).1)
            .tenant(0),
        JobSpec::new(OpKind::Write, Pattern::Sequential, 16)
            .ops(150)
            .queue_depth(16)
            .region(region(1).0, region(1).1)
            .tenant(1),
        JobSpec::new(OpKind::Write, Pattern::Sequential, 16)
            .ops(150)
            .queue_depth(8)
            .region(region(2).0, region(2).1)
            .tenant(2),
        JobSpec::new(OpKind::Write, Pattern::Sequential, 8)
            .ops(150)
            .queue_depth(32)
            .region(region(3).0, region(3).1)
            .tenant(3),
    ];
    let report = Engine::new(seed)
        .recorder(recorder.clone())
        .run_shared(&sched, &jobs)
        .unwrap();
    (report, recorder.events(), sched.stats())
}

#[test]
fn same_seed_identical_reports_and_traces() {
    let (rep_a, events_a, stats_a) = run_once(99);
    let (rep_b, events_b, stats_b) = run_once(99);

    assert_eq!(rep_a.total_ops, rep_b.total_ops);
    assert_eq!(rep_a.total_bytes, rep_b.total_bytes);
    assert_eq!(rep_a.duration, rep_b.duration);
    assert_eq!(rep_a.jobs.len(), rep_b.jobs.len());
    for (a, b) in rep_a.jobs.iter().zip(rep_b.jobs.iter()) {
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.p50(), b.p50());
        assert_eq!(a.p95(), b.p95());
        assert_eq!(a.p99(), b.p99());
    }
    assert_eq!(stats_a, stats_b, "per-tenant accounting diverged");
    assert_eq!(
        events_a.len(),
        events_b.len(),
        "trace lengths diverged: {} vs {}",
        events_a.len(),
        events_b.len()
    );
    for (i, (a, b)) in events_a.iter().zip(events_b.iter()).enumerate() {
        assert_eq!(a, b, "trace event {i} diverged");
    }
}

#[test]
fn different_seeds_may_differ_but_complete() {
    for seed in [1, 2] {
        let (rep, _, stats) = run_once(seed);
        assert_eq!(rep.total_ops, 600);
        for t in &stats {
            assert_eq!((t.admitted, t.completed), (150, 150), "tenant {}", t.name);
        }
        assert!(stats[3].merged > 0, "the coalescing tenant merged nothing");
    }
}
