//! Property-based scheduler invariants: work conservation,
//! weight-proportional sharing, reservation floors under overload, and
//! byte-identical read-back through the coalescer.

use proptest::prelude::*;
use qos::{QosConfig, QosScheduler, TenantSpec};
use sim::{SimDuration, SimRng, SimTime};
use std::sync::Arc;
use workloads::{Engine, JobSpec, OpKind, Pattern, SharedScheduler, ZonedTarget};
use zns::{LatencyConfig, ZnsConfig, ZnsDevice, SECTOR_SIZE};

const ZONE_SECTORS: u64 = 2048;
const ZONES: u32 = 16;

fn target(store_data: bool) -> Arc<ZonedTarget<ZnsDevice>> {
    Arc::new(ZonedTarget::new(Arc::new(ZnsDevice::new(
        ZnsConfig::builder()
            .zones(ZONES, ZONE_SECTORS, ZONE_SECTORS)
            .open_limits(8, 12)
            .latency(LatencyConfig::zns_ssd())
            .store_data(store_data)
            .build(),
    ))))
}

/// One zone-aligned region per tenant, so concurrent sequential writers
/// never interleave within a zone.
fn region(i: u64) -> (u64, u64) {
    (i * 4 * ZONE_SECTORS, (i + 1) * 4 * ZONE_SECTORS)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Work conservation: a tenant that submits nothing changes nothing —
    /// the active tenant's run is identical to its solo run, byte for
    /// byte and nanosecond for nanosecond (idle tenants donate all
    /// bandwidth and claim none).
    #[test]
    fn idle_tenants_donate_bandwidth(
        ops in 32u64..128,
        block in prop_oneof![Just(8u64), Just(16), Just(32)],
        idle_weight in 1u64..32,
    ) {
        let run = |tenants: Vec<TenantSpec>| {
            let s = QosScheduler::new(target(false), QosConfig::default(), tenants).unwrap();
            let job = JobSpec::new(OpKind::Write, Pattern::Sequential, block)
                .ops(ops)
                .queue_depth(8)
                .region(region(0).0, region(0).1)
                .tenant(0);
            Engine::new(11).run_shared(&s, &[job]).unwrap()
        };
        let solo = run(vec![TenantSpec::new("a")]);
        let shared = run(vec![
            TenantSpec::new("a"),
            TenantSpec::new("idle").weight(idle_weight).reservation(5000),
        ]);
        prop_assert_eq!(solo.total_ops, shared.total_ops);
        prop_assert_eq!(solo.duration, shared.duration,
            "an idle competitor must not slow the active tenant");
    }

    /// Weight-proportional sharing: backlogged equal-block tenants get
    /// throughput in proportion to their weights (loose tolerance here;
    /// the bench gate enforces 10%).
    #[test]
    fn throughput_follows_weights(
        w2 in 2u64..5,
        w3 in 1u64..3,
        ops in 200u64..400,
    ) {
        let weights = [1u64, w2, w2 * w3];
        let tenants: Vec<TenantSpec> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| TenantSpec::new(format!("t{i}")).weight(w))
            .collect();
        let s = QosScheduler::new(
            target(false),
            QosConfig { server_depth: 2, ..QosConfig::default() },
            tenants,
        )
        .unwrap();
        let jobs: Vec<JobSpec> = (0..3)
            .map(|i| {
                JobSpec::new(OpKind::Write, Pattern::Sequential, 16)
                    .ops(ops)
                    .queue_depth(16)
                    .region(region(i).0, region(i).1)
                    .tenant(i as u32)
            })
            .collect();
        // Cut the run while all tenants are still backlogged, so shares
        // reflect contention rather than drain-out.
        let rep = Engine::new(12)
            .time_limit(SimDuration::from_millis(20))
            .run_shared(&s, &jobs)
            .unwrap();
        let done: Vec<f64> = rep.jobs.iter().map(|j| j.ops as f64).collect();
        prop_assert!(done.iter().all(|&d| d > 0.0), "every tenant must progress");
        let norm: Vec<f64> = done
            .iter()
            .zip(weights.iter())
            .map(|(d, &w)| d / w as f64)
            .collect();
        let mean = norm.iter().sum::<f64>() / norm.len() as f64;
        for (i, n) in norm.iter().enumerate() {
            let dev = (n - mean).abs() / mean;
            prop_assert!(
                dev < 0.30,
                "tenant {i} normalized share {n:.1} deviates {dev:.2} from mean {mean:.1} \
                 (ops {done:?}, weights {weights:?})"
            );
        }
    }

    /// Reservations under overload: a reserved tenant competing against a
    /// heavily weighted noisy neighbor still gets its IOPS floor.
    #[test]
    fn reservation_floor_honored(
        reservation in 500u64..2000,
        noisy_weight in 8u64..32,
    ) {
        let s = QosScheduler::new(
            target(false),
            QosConfig { server_depth: 2, ..QosConfig::default() },
            vec![
                TenantSpec::new("victim").reservation(reservation),
                TenantSpec::new("noisy").weight(noisy_weight),
            ],
        )
        .unwrap();
        let window = SimDuration::from_millis(50);
        let jobs = vec![
            JobSpec::new(OpKind::Write, Pattern::Sequential, 16)
                .ops(100_000)
                .queue_depth(8)
                .region(region(0).0, region(0).1)
                .tenant(0),
            JobSpec::new(OpKind::Write, Pattern::Sequential, 16)
                .ops(100_000)
                .queue_depth(32)
                .region(region(1).0, region(1).1)
                .tenant(1),
        ];
        let rep = Engine::new(13)
            .time_limit(window)
            .run_shared(&s, &jobs)
            .unwrap();
        let expected = reservation as f64 * window.as_secs_f64();
        let got = rep.jobs[0].ops as f64;
        prop_assert!(
            got >= 0.75 * expected,
            "victim got {got} ops, reservation floor expects ~{expected}"
        );
    }

    /// Coalescer correctness: data written through the coalescing
    /// scheduler reads back byte-identical to an uncoalesced oracle
    /// given the same chunk sequence.
    #[test]
    fn coalesced_writes_read_back_identically(
        seed in 0u64..1000,
        nchunks in 8usize..40,
    ) {
        let mut rng = SimRng::new(seed);
        // Random-sized sequential chunks over the start of zone 0.
        let sizes: Vec<u64> = (0..nchunks).map(|_| 1 + rng.gen_range(8)).collect();
        let total: u64 = sizes.iter().sum();
        let mut content = vec![0u8; (total * SECTOR_SIZE) as usize];
        rng.fill_bytes(&mut content);

        // Coalescing scheduler path.
        let sched_target = target(true);
        let s = QosScheduler::new(
            sched_target.clone(),
            QosConfig { stripe_sectors: 64, ..QosConfig::default() },
            vec![TenantSpec::new("w").coalesce(true)],
        )
        .unwrap();
        let mut off = 0u64;
        for &sz in &sizes {
            let bytes = &content[(off * SECTOR_SIZE) as usize..((off + sz) * SECTOR_SIZE) as usize];
            let adm = s.submit_write(0, 0, SimTime::ZERO, off, bytes).unwrap();
            prop_assert!(
                matches!(adm, workloads::Admission::Admitted(_)),
                "oracle test must not shed"
            );
            off += sz;
        }
        let mut comps = Vec::new();
        let mut completed = 0usize;
        while s.step(&mut comps).unwrap() {
            completed += comps.len();
            comps.clear();
        }
        prop_assert_eq!(completed, nchunks);
        let stats = s.stats();
        prop_assert!(stats[0].merged > 0 || nchunks < 2, "expected some coalescing");

        // Uncoalesced oracle path.
        let oracle = target(true);
        let mut t = SimTime::ZERO;
        let mut off = 0u64;
        for &sz in &sizes {
            let bytes = &content[(off * SECTOR_SIZE) as usize..((off + sz) * SECTOR_SIZE) as usize];
            t = workloads::IoTarget::write(oracle.as_ref(), t, off, bytes).unwrap();
            off += sz;
        }

        // Both targets must hold exactly the source bytes.
        let mut got_sched = vec![0u8; content.len()];
        let mut got_oracle = vec![0u8; content.len()];
        workloads::IoTarget::read(sched_target.as_ref(), t, 0, &mut got_sched).unwrap();
        workloads::IoTarget::read(oracle.as_ref(), t, 0, &mut got_oracle).unwrap();
        prop_assert!(got_sched == content, "coalesced read-back diverges from source");
        prop_assert!(got_oracle == got_sched, "oracle and coalesced contents diverge");
    }
}
