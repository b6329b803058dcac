//! Fault-injection tests: latent sector errors heal on the read path of
//! every engine, transient command errors are absorbed by bounded retries, the
//! per-device error budget auto-degrades a flaky device, and scrub passes
//! verify and repair parity.

use obs::Counter;
use raizn::{RaiznConfig, RaiznVolume};
use sim::{SimRng, SimTime};
use std::sync::Arc;
use workloads::harness::{roomy_config, FaultTarget, Ls, Pair, Raizn, CACHED};
use zns::array::{DEVICE_ERROR_BUDGET, TRANSIENT_RETRY_LIMIT};
use zns::{
    FaultOp, FaultPlan, WriteFlags, ZnsConfig, ZnsDevice, ZnsError, ZonedVolume, SECTOR_SIZE,
};

const T0: SimTime = SimTime::ZERO;

fn devices(n: usize) -> Vec<Arc<ZnsDevice>> {
    (0..n)
        .map(|_| Arc::new(ZnsDevice::new(ZnsConfig::small_test())))
        .collect()
}

fn bytes(sectors: u64, seed: u64) -> Vec<u8> {
    let mut v = vec![0u8; (sectors * SECTOR_SIZE) as usize];
    SimRng::new(seed).fill_bytes(&mut v);
    v
}

fn read_all(v: &RaiznVolume, sectors: u64) -> Vec<u8> {
    let mut out = vec![0u8; (sectors * SECTOR_SIZE) as usize];
    v.read(T0, 0, &mut out).unwrap();
    out
}

/// The acceptance scenario, one row per engine and parity level: a seeded
/// plan poisons one stripe unit of a flushed zone with latent read errors;
/// a read of the zone completes anyway, byte-identical, and repairs the
/// unit, and later reads of it never touch the bad sectors again —
/// including after a flush and a remount.
#[test]
fn latent_read_errors_self_heal() {
    fn row<T: FaultTarget>(target: &T, config: ZnsConfig) {
        let name = target.name();
        let fresh = || {
            let member = |_| Arc::new(ZnsDevice::new(config.clone()));
            (0..5).map(member).collect()
        };
        let mut pair = Pair::format(target, &fresh).unwrap();
        let recorder = obs::Recorder::new(1 << 12, 1);
        pair.attach(recorder.clone());
        let cap = pair.vol.geometry().zone_cap();
        pair.write(0, cap, CACHED).unwrap();
        pair.flush().unwrap();

        let (dev, bad) = target.locate(&pair.vol, cap / 2);
        let poisoned = pair.members[dev].clone();
        poisoned.set_fault_plan(FaultPlan::new(42).latent_range(bad.start, bad.end - bad.start));

        let read_all = |pair: &Pair<T>| {
            pair.read(0, 0, cap)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        read_all(&pair);
        let repairs = recorder.count(Counter::ReadRepairs);
        assert!(repairs > 0, "{name}: repair not recorded");
        let degraded = recorder.count(Counter::DegradedReads);
        assert_eq!(degraded, 0, "{name}: heal is a repair, not degraded IO");
        assert!(pair.members.iter().all(|d| !d.is_failed()), "{name}");

        // Re-read: served from the repaired copy, no new media errors hit.
        let media_hits = poisoned.stats().injected_media_errors;
        read_all(&pair);
        assert_eq!(recorder.count(Counter::ReadRepairs), repairs, "{name}");
        assert_eq!(poisoned.stats().injected_media_errors, media_hits, "{name}");

        // The repair is durable: after a remount reads still avoid the unit.
        pair.flush().unwrap();
        pair.vol = Arc::new(target.mount(pair.members.clone()).unwrap());
        read_all(&pair);
        assert_eq!(poisoned.stats().injected_media_errors, media_hits, "{name}");
    }
    row(&Raizn::small(1), ZnsConfig::small_test());
    row(&Raizn::small(2), ZnsConfig::small_test());
    row(&Ls::small(1), roomy_config());
    row(&Ls::small(2), roomy_config());
}

#[test]
fn transient_read_errors_are_retried() {
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    let data = bytes(48, 12);
    v.write(T0, 0, &data, WriteFlags::default()).unwrap();
    v.flush(T0).unwrap();
    for (i, d) in devs.iter().enumerate() {
        d.set_fault_plan(FaultPlan::new(100 + i as u64).transient_rate(FaultOp::Read, 0.2));
    }
    for _ in 0..4 {
        assert_eq!(read_all(&v, 48), data);
    }
    assert!(v.stats().transient_retries > 0, "no retry was exercised");
    assert!(v.failed_device().is_none(), "flakiness must not degrade");
}

#[test]
fn transient_write_errors_are_retried() {
    let devs = devices(5);
    for (i, d) in devs.iter().enumerate() {
        d.set_fault_plan(
            FaultPlan::new(200 + i as u64)
                .transient_rate(FaultOp::Write, 0.1)
                .transient_rate(FaultOp::Append, 0.1),
        );
    }
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    let data = bytes(48, 13);
    v.write(T0, 0, &data, WriteFlags::default()).unwrap();
    v.flush(T0).unwrap();
    for d in &devs {
        d.clear_fault_plan();
    }
    assert_eq!(read_all(&v, 48), data);
    assert!(v.stats().transient_retries > 0, "no retry was exercised");
    assert!(v.failed_device().is_none());
}

#[test]
fn error_budget_auto_degrades_device() {
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    let data = bytes(48, 14);
    v.write(T0, 0, &data, WriteFlags::default()).unwrap();
    v.flush(T0).unwrap();

    // Device 2 starts failing every read, permanently.
    devs[2].set_fault_plan(FaultPlan::new(7).transient_rate(FaultOp::Read, 1.0));
    let mut degraded_after = None;
    for i in 0..64 {
        assert_eq!(read_all(&v, 48), data, "reads must stay correct");
        if v.failed_device().is_some() {
            degraded_after = Some(i + 1);
            break;
        }
    }
    assert!(
        degraded_after.is_some(),
        "persistent failures never exhausted the error budget"
    );
    assert_eq!(v.failed_device(), Some(2));
    let stats = v.stats();
    assert_eq!(stats.auto_degrades, 1);
    assert!(stats.transient_retries > 0);
    assert!(stats.degraded_reads > 0);
}

#[test]
fn scrub_on_clean_volume_finds_nothing() {
    let devs = devices(5);
    let v = RaiznVolume::format(devs, RaiznConfig::small_test(), T0).unwrap();
    let data = bytes(32, 15); // two complete stripes
    v.write(T0, 0, &data, WriteFlags::default()).unwrap();
    v.flush(T0).unwrap();
    let report = v.scrub(T0).unwrap();
    assert_eq!(report.stripes_checked, 2);
    assert_eq!(report.parity_repairs, 0);
    assert_eq!(report.units_healed, 0);
    let stats = v.stats();
    assert_eq!(stats.scrub_runs, 1);
    assert_eq!(stats.scrub_repairs, 0);
}

#[test]
fn scrub_repairs_corrupted_parity() {
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    let layout = v.layout();
    let data = bytes(32, 16);
    v.write(T0, 0, &data, WriteFlags::default()).unwrap();
    v.flush(T0).unwrap();

    // Flip bits in the stored parity of (lz 0, stripe 0).
    let pdev = layout.parity_device(0, 0) as usize;
    devs[pdev].corrupt_sector_for_test(layout.stripe_pba(0, 0), 0xFF);

    let report = v.scrub(T0).unwrap();
    assert_eq!(report.parity_repairs, 1, "corruption not detected");
    assert_eq!(report.units_healed, 0);
    assert_eq!(v.stats().scrub_repairs, 1);

    // Second pass: the repaired parity verifies clean.
    let report2 = v.scrub(T0).unwrap();
    assert_eq!(report2.parity_repairs, 0);

    // The repaired parity actually reconstructs: fail a data device of
    // stripe 0 and re-read everything.
    let ddev = layout.data_device(0, 0, 0) as usize;
    v.fail_device(ddev).unwrap();
    assert_eq!(read_all(&v, 32), data);
}

#[test]
fn scrub_heals_latent_data_unit() {
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    let layout = v.layout();
    let su = layout.stripe_unit();
    let data = bytes(32, 17);
    v.write(T0, 0, &data, WriteFlags::default()).unwrap();
    v.flush(T0).unwrap();

    let dev = layout.data_device(0, 1, 2) as usize;
    devs[dev].set_fault_plan(FaultPlan::new(5).latent_range(layout.stripe_pba(0, 1), su));

    let report = v.scrub(T0).unwrap();
    assert_eq!(report.units_healed, 1, "latent unit not healed");
    assert_eq!(report.parity_repairs, 0, "healed unit must match parity");

    // Reads of the healed range never touch the poisoned sectors.
    let media_hits = devs[dev].stats().injected_media_errors;
    assert_eq!(read_all(&v, 32), data);
    assert_eq!(devs[dev].stats().injected_media_errors, media_hits);
    assert_eq!(v.stats().read_repairs, 0, "scrub healed it, not the read");
}

#[test]
fn scrub_refuses_degraded_array() {
    let devs = devices(5);
    let v = RaiznVolume::format(devs, RaiznConfig::small_test(), T0).unwrap();
    v.write(T0, 0, &bytes(16, 18), WriteFlags::default())
        .unwrap();
    v.flush(T0).unwrap();
    v.fail_device(1).unwrap();
    assert!(matches!(v.scrub(T0), Err(ZnsError::DeviceFailed)));
}

/// What a member command that exhausted its retries turns into, seen from
/// the volume: per command kind, whether the charge degraded the member
/// (with its budget spent, the next charge does) or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exhaustion {
    /// The volume op succeeds: the command was omitted (write, reset),
    /// its metadata replica dropped (append), or the data reconstructed
    /// from parity (read).
    Absorbed,
    /// The transient error surfaces to the caller.
    Surfaces,
}

/// One row per member-command kind: the device command under test is the
/// first of its class on `target` after the plan is installed.
struct RetryCase {
    op: FaultOp,
    /// Whether the volume needs one flushed stripe before the op.
    prefill: bool,
    /// The device whose command fails.
    target: fn(&raizn::RaiznLayout) -> usize,
    /// The volume op that issues the command.
    run: fn(&RaiznVolume) -> zns::Result<()>,
    /// Exhaustion outcome while the member stays in the array.
    exhausted_healthy: Exhaustion,
}

const RETRY_CASES: [RetryCase; 4] = [
    RetryCase {
        op: FaultOp::Read,
        prefill: true,
        target: |l| l.data_device(0, 0, 1) as usize,
        run: |v| {
            let mut out = vec![0u8; (16 * SECTOR_SIZE) as usize];
            v.read(T0, 0, &mut out)?;
            assert_eq!(out, bytes(16, 77), "read served wrong data");
            Ok(())
        },
        // A read the device cannot serve is reconstructed from parity.
        exhausted_healthy: Exhaustion::Absorbed,
    },
    RetryCase {
        op: FaultOp::Write,
        prefill: false,
        target: |l| l.data_device(0, 0, 2) as usize,
        run: |v| {
            v.write(T0, 0, &bytes(16, 77), WriteFlags::default())
                .map(drop)
        },
        exhausted_healthy: Exhaustion::Surfaces,
    },
    RetryCase {
        op: FaultOp::Append,
        prefill: false,
        // A sub-stripe write logs partial parity on the parity device.
        target: |l| l.parity_device(0, 0) as usize,
        run: |v| {
            v.write(T0, 0, &bytes(4, 77), WriteFlags::default())
                .map(drop)
        },
        exhausted_healthy: Exhaustion::Surfaces,
    },
    RetryCase {
        op: FaultOp::Reset,
        prefill: true,
        target: |l| l.data_device(0, 0, 3) as usize,
        run: |v| v.reset_zone(T0, 0).map(drop),
        exhausted_healthy: Exhaustion::Surfaces,
    },
];

/// Spends member `dev`'s whole error budget through the volume:
/// `DEVICE_ERROR_BUDGET` reads of a unit it holds in zone 1, each failing
/// past the retry limit, charged once and served from parity.
fn spend_budget(v: &RaiznVolume, devs: &[Arc<ZnsDevice>], dev: usize) {
    let layout = v.layout();
    let start = layout.logical_geometry().zone_start(1);
    let sectors = 3 * layout.stripe_data_sectors();
    v.write(T0, start, &bytes(sectors, 78), WriteFlags::default())
        .unwrap();
    v.flush(T0).unwrap();
    let lba = (start..start + sectors)
        .find(|&lba| {
            let at = layout.locate(lba);
            layout.data_device(at.lzone, at.stripe, at.unit) as usize == dev
        })
        .expect("every member holds data in three stripes");
    devs[dev].set_fault_plan(FaultPlan::new(1).transient_rate(FaultOp::Read, 1.0));
    let mut out = vec![0u8; SECTOR_SIZE as usize];
    for _ in 0..DEVICE_ERROR_BUDGET {
        v.read(T0, lba, &mut out).unwrap();
    }
    assert_eq!(v.device_errors(dev), DEVICE_ERROR_BUDGET, "budget spent");
    assert!(
        v.failed_devices().is_empty(),
        "a spent budget alone degrades nothing"
    );
}

/// The one member-command retry, pinned per command kind: bursts up to the
/// retry limit are absorbed uncharged; one more failure charges the member
/// exactly once after exactly `limit` retries, and what the caller then
/// sees depends on the command kind and on whether the charge degraded
/// the member.
#[test]
fn member_command_retry_counts_charges_and_outcomes() {
    let limit = TRANSIENT_RETRY_LIMIT;
    for case in &RETRY_CASES {
        // (consecutive failures, error budget already spent)
        for (failures, spent) in [(limit, false), (limit + 1, false), (limit + 1, true)] {
            let ctx = format!("{} x{failures} spent {spent}", case.op);
            let devs = devices(5);
            let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
            if case.prefill {
                v.write(T0, 0, &bytes(16, 77), WriteFlags::default())
                    .unwrap();
                v.flush(T0).unwrap();
            }
            let dev = (case.target)(&v.layout());
            if spent {
                spend_budget(&v, &devs, dev);
            }
            let (before, injected) = (v.stats(), devs[dev].stats().injected_transients);
            let plan = (1..=u64::from(failures))
                .fold(FaultPlan::new(1), |plan, n| plan.fail_nth(case.op, n));
            devs[dev].set_fault_plan(plan);

            let result = (case.run)(&v);

            let stats = v.stats();
            let exhausted = failures > limit;
            assert_eq!(
                stats.transient_retries - before.transient_retries,
                u64::from(limit.min(failures)),
                "{ctx}"
            );
            assert_eq!(
                u64::from(failures),
                devs[dev].stats().injected_transients - injected,
                "{ctx}: every planned failure was consumed by the one command"
            );
            let degraded = exhausted && spent;
            assert_eq!(stats.auto_degrades, u64::from(degraded), "{ctx}");
            assert_eq!(
                v.failed_devices(),
                if degraded { vec![dev] } else { vec![] },
                "{ctx}"
            );
            let charged = u64::from(exhausted) + if spent { DEVICE_ERROR_BUDGET } else { 0 };
            assert_eq!(v.device_errors(dev), charged, "{ctx}");
            let expect = match (exhausted, degraded) {
                (false, _) | (true, true) => Exhaustion::Absorbed,
                (true, false) => case.exhausted_healthy,
            };
            match expect {
                Exhaustion::Absorbed => result.unwrap_or_else(|e| panic!("{ctx}: {e}")),
                Exhaustion::Surfaces => assert!(
                    matches!(result, Err(ZnsError::TransientError { op }) if op == case.op),
                    "{ctx}: {result:?}"
                ),
            }
            // A read the member could not serve is a degraded read, once.
            let reconstructed = case.op == FaultOp::Read && exhausted;
            assert_eq!(
                stats.degraded_reads - before.degraded_reads,
                u64::from(reconstructed),
                "{ctx}"
            );
        }
    }
}
