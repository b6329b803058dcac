//! RAIZN-2 (dual rotating parity) integration tests: two-failure
//! survival across every device pair, the double-fault rebuild
//! acceptance scenario, and crash recovery with two missing devices via
//! the partial-parity Q leg.

use raizn::{RaiznConfig, RaiznVolume};
use sim::{SimRng, SimTime};
use std::sync::Arc;
use zns::{FaultPlan, WriteFlags, ZnsConfig, ZnsDevice, ZnsError, ZonedVolume, SECTOR_SIZE};

const T0: SimTime = SimTime::ZERO;

fn devices(n: usize) -> Vec<Arc<ZnsDevice>> {
    (0..n)
        .map(|_| Arc::new(ZnsDevice::new(ZnsConfig::small_test())))
        .collect()
}

fn fresh_device() -> Arc<ZnsDevice> {
    Arc::new(ZnsDevice::new(ZnsConfig::small_test()))
}

fn bytes(sectors: u64, seed: u64) -> Vec<u8> {
    let mut v = vec![0u8; (sectors * SECTOR_SIZE) as usize];
    SimRng::new(seed).fill_bytes(&mut v);
    v
}

fn read_back(v: &RaiznVolume, lba: u64, sectors: u64) -> Vec<u8> {
    let mut out = vec![0u8; (sectors * SECTOR_SIZE) as usize];
    v.read(T0, lba, &mut out).unwrap();
    out
}

/// Every pair of failed devices still serves byte-identical reads: full
/// stripes, a partial stripe tail, and data whose P, Q, or data holders
/// are among the failed pair.
#[test]
fn every_device_pair_failure_reads_back() {
    for a in 0..5usize {
        for b in (a + 1)..5usize {
            let v = RaiznVolume::format(devices(5), RaiznConfig::small_test_raizn2(), T0).unwrap();
            let g = v.geometry();
            let full = bytes(g.zone_cap(), 7);
            v.write(T0, 0, &full, WriteFlags::default()).unwrap();
            let tail = bytes(9, 8); // partial stripe: stripe-buffer reads
            v.write(T0, g.zone_start(1), &tail, WriteFlags::default())
                .unwrap();
            v.fail_device(a).unwrap();
            v.fail_device(b).unwrap();
            assert_eq!(
                read_back(&v, 0, g.zone_cap()),
                full,
                "pair ({a},{b}): full zone mismatch"
            );
            assert_eq!(
                read_back(&v, g.zone_start(1), 9),
                tail,
                "pair ({a},{b}): partial stripe mismatch"
            );
            assert!(
                v.stats().double_degraded_reads > 0,
                "pair ({a},{b}): two-erasure decode never exercised"
            );
        }
    }
}

/// A third failure must be rejected, and the failed set reported.
#[test]
fn third_failure_is_rejected() {
    let v = RaiznVolume::format(devices(5), RaiznConfig::small_test_raizn2(), T0).unwrap();
    v.fail_device(4).unwrap();
    v.fail_device(1).unwrap();
    assert_eq!(v.failed_devices(), vec![1, 4]);
    let err = v.fail_device(2).unwrap_err();
    assert!(matches!(
        err,
        ZnsError::TooManyFailures {
            failed: 2,
            parity: 2
        }
    ));
}

/// Writes landed while two devices are gone are still reconstructable
/// and both rebuilds restore full redundancy.
#[test]
fn double_degraded_writes_then_two_rebuilds() {
    let v = RaiznVolume::format(devices(5), RaiznConfig::small_test_raizn2(), T0).unwrap();
    let g = v.geometry();
    v.fail_device(0).unwrap();
    v.fail_device(3).unwrap();
    let data = bytes(g.zone_cap(), 21);
    v.write(T0, 0, &data, WriteFlags::FUA).unwrap();
    assert_eq!(read_back(&v, 0, g.zone_cap()), data);

    let r1 = v.rebuild(T0, fresh_device()).unwrap();
    assert!(r1.zones_rebuilt >= 1);
    assert_eq!(v.failed_devices(), vec![3]);
    let r2 = v.rebuild(T0, fresh_device()).unwrap();
    assert!(r2.zones_rebuilt >= 1);
    assert!(v.failed_devices().is_empty());
    assert_eq!(v.stats().rebuilds_completed, 2);

    assert_eq!(read_back(&v, 0, g.zone_cap()), data);
    let rep = v.scrub(T0).unwrap();
    assert_eq!(
        (rep.parity_repairs, rep.units_healed),
        (0, 0),
        "scrub after double rebuild must be clean: {rep:?}"
    );
}

/// The acceptance scenario: a latent media error on device A, device B
/// fails outright, reads stay byte-identical (healing around A while
/// decoding around B), both devices are restored, and a final scrub is
/// clean.
#[test]
fn acceptance_latent_error_plus_device_loss() {
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test_raizn2(), T0).unwrap();
    let layout = v.layout();
    let su = layout.stripe_unit();
    let data = bytes(36, 31); // three complete stripes (3 data units/stripe)
    v.write(T0, 0, &data, WriteFlags::default()).unwrap();
    v.flush(T0).unwrap();

    // Latent media error on device A's unit for (zone 0, stripe 1).
    let dev_a = layout.data_device(0, 1, 1) as usize;
    let bad_pba = layout.stripe_pba(0, 1);
    devs[dev_a].set_fault_plan(FaultPlan::new(42).latent_range(bad_pba, su));

    // Device B (a different data holder of the same stripe) dies.
    let dev_b = layout.data_device(0, 1, 0) as usize;
    v.fail_device(dev_b).unwrap();

    // Reads are byte-identical: healing A's unit requires decoding with
    // both B's slot and A's bad unit unavailable — a two-erasure solve.
    assert_eq!(read_back(&v, 0, 36), data);
    let stats = v.stats();
    assert!(stats.read_repairs > 0, "latent error was not healed");
    assert!(
        stats.double_degraded_reads > 0,
        "healing around the lost device must use the two-erasure path"
    );

    // Mid-rebuild story: A degrades too (operator action after more
    // errors), leaving two failed devices; both rebuilds complete.
    v.fail_device(dev_a).unwrap();
    assert_eq!(read_back(&v, 0, 36), data);
    v.rebuild(T0, fresh_device()).unwrap();
    v.rebuild(T0, fresh_device()).unwrap();
    assert!(v.failed_devices().is_empty());
    assert_eq!(read_back(&v, 0, 36), data);
    let rep = v.scrub(T0).unwrap();
    assert_eq!(
        (rep.parity_repairs, rep.units_healed),
        (0, 0),
        "final scrub must be clean: {rep:?}"
    );
}

/// Crash with a partial stripe in flight, then lose BOTH data holders of
/// the staged units: mount reconstructs the stripe buffer from the P and
/// Q partial-parity logs jointly (the two-erasure replay).
#[test]
fn crash_then_two_missing_devices_replays_pp_q() {
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test_raizn2(), T0).unwrap();
    let layout = v.layout();
    // 9 sectors with su=4: units 0 (4 rows), 1 (4 rows), 2 (1 row) of
    // stripe 0 — the pp log (P and Q legs) covers the staged prefix.
    let data = bytes(9, 51);
    v.write(T0, 0, &data, WriteFlags::FUA).unwrap();
    drop(v);

    let d0 = layout.data_device(0, 0, 0) as usize;
    let d1 = layout.data_device(0, 0, 1) as usize;
    devs[d0].fail();
    devs[d1].fail();
    let v = RaiznVolume::mount(devs, RaiznConfig::small_test_raizn2(), T0).unwrap();
    assert_eq!(v.failed_devices(), {
        let mut f = vec![d0, d1];
        f.sort_unstable();
        f
    });
    assert_eq!(
        read_back(&v, 0, 9),
        data,
        "two-erasure pp replay must restore the staged stripe prefix"
    );
}

/// Crash recovery when the P holder itself is one of the missing
/// devices: the Q-leg pp log alone must cover the staged data.
#[test]
fn crash_with_p_holder_missing_uses_q_leg() {
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test_raizn2(), T0).unwrap();
    let layout = v.layout();
    let data = bytes(6, 52);
    v.write(T0, 0, &data, WriteFlags::FUA).unwrap();
    drop(v);

    let pdev = layout.parity_device(0, 0) as usize;
    let d0 = layout.data_device(0, 0, 0) as usize;
    devs[pdev].fail();
    devs[d0].fail();
    let v = RaiznVolume::mount(devs, RaiznConfig::small_test_raizn2(), T0).unwrap();
    assert_eq!(
        read_back(&v, 0, 6),
        data,
        "Q-leg replay must cover the staged stripe when P's log is gone"
    );
}

/// Single-parity arrays are unchanged: no Q device, `parity: 2` requires
/// at least four devices.
#[test]
fn config_floor_for_dual_parity() {
    let err = RaiznVolume::format(devices(3), RaiznConfig::small_test_raizn2(), T0).unwrap_err();
    assert!(matches!(err, ZnsError::InvalidArgument(_)));
    // Four devices (2 data + P + Q) is the floor.
    let v = RaiznVolume::format(devices(4), RaiznConfig::small_test_raizn2(), T0).unwrap();
    let data = bytes(16, 71);
    v.write(T0, 0, &data, WriteFlags::default()).unwrap();
    v.fail_device(0).unwrap();
    v.fail_device(3).unwrap();
    assert_eq!(read_back(&v, 0, 16), data);
}
