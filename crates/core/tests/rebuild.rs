//! Rebuild-path tests (§4.2): priority ordering, interaction with
//! relocations, rebuild after crash recovery, and double-fault rejection.

use raizn::{RaiznConfig, RaiznVolume};
use sim::{SimRng, SimTime};
use std::sync::Arc;
use zns::{CrashPolicy, WriteFlags, ZnsConfig, ZnsDevice, ZnsError, ZonedVolume, SECTOR_SIZE};

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

#[test]
fn rebuild_without_failure_is_rejected() {
    let v = RaiznVolume::format(devices(3), RaiznConfig::small_test(), T0).unwrap();
    let err = v.rebuild(T0, fresh_device()).unwrap_err();
    assert!(matches!(err, ZnsError::InvalidArgument(_)));
}

#[test]
fn second_failure_is_rejected() {
    let v = RaiznVolume::format(devices(4), RaiznConfig::small_test(), T0).unwrap();
    v.fail_device(0).unwrap();
    let err = v.fail_device(1).unwrap_err();
    assert!(
        matches!(
            err,
            ZnsError::TooManyFailures {
                failed: 1,
                parity: 1
            }
        ),
        "double failure must be rejected with TooManyFailures, got {err:?}"
    );
    // Idempotent re-fail of the already-failed device stays fine.
    v.fail_device(0).unwrap();
}

#[test]
fn rebuild_with_wrong_geometry_rejected() {
    let v = RaiznVolume::format(devices(3), RaiznConfig::small_test(), T0).unwrap();
    v.fail_device(0).unwrap();
    let wrong = Arc::new(ZnsDevice::new(
        ZnsConfig::builder().zones(8, 64, 64).build(),
    ));
    let err = v.rebuild(T0, wrong).unwrap_err();
    assert!(matches!(err, ZnsError::InvalidArgument(_)));
}

#[test]
fn rebuild_covers_multiple_zones_and_partial_stripes() {
    let v = RaiznVolume::format(devices(5), RaiznConfig::small_test(), T0).unwrap();
    let g = v.geometry();
    // Zone 0: full. Zone 1: complete stripes + partial stripe. Zone 2: a
    // few sectors only.
    let full = bytes(g.zone_cap(), 1);
    v.write(T0, 0, &full, WriteFlags::default()).unwrap();
    let partial = bytes(19, 2);
    v.write(T0, g.zone_start(1), &partial, WriteFlags::default())
        .unwrap();
    let tiny = bytes(2, 3);
    v.write(T0, g.zone_start(2), &tiny, WriteFlags::default())
        .unwrap();

    v.fail_device(3).unwrap();
    let report = v.rebuild(T0, fresh_device()).unwrap();
    assert_eq!(report.zones_rebuilt, 3);

    // All data intact, including under a different failure.
    v.fail_device(1).unwrap();
    let mut out = vec![0u8; full.len()];
    v.read(T0, 0, &mut out).unwrap();
    assert_eq!(out, full);
    let mut out = vec![0u8; partial.len()];
    v.read(T0, g.zone_start(1), &mut out).unwrap();
    assert_eq!(out, partial);
    let mut out = vec![0u8; tiny.len()];
    v.read(T0, g.zone_start(2), &mut out).unwrap();
    assert_eq!(out, tiny);
}

#[test]
fn rebuild_heals_relocated_units() {
    // Create a relocation via crash rollback, then fail the device whose
    // slot is ghosted and rebuild: the relocation should be healed back
    // into the arithmetic slot.
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    v.write(T0, 0, &bytes(8, 4), WriteFlags::default()).unwrap();
    drop(v);
    for (i, d) in devs.iter().enumerate() {
        if i == 2 {
            d.crash(&mut CrashPolicy::KeepCache);
        } else {
            d.crash(&mut CrashPolicy::LoseCache);
        }
    }
    let v = RaiznVolume::mount(devs, RaiznConfig::small_test(), T0).unwrap();
    let fresh = bytes(16, 5);
    v.write(T0, 0, &fresh, WriteFlags::default()).unwrap();
    assert!(v.relocated_count() > 0, "setup: no relocation happened");

    v.fail_device(2).unwrap();
    v.rebuild(T0, fresh_device()).unwrap();
    assert_eq!(
        v.relocated_count(),
        0,
        "rebuild should heal relocations on the replaced device"
    );
    let mut out = vec![0u8; fresh.len()];
    v.read(T0, 0, &mut out).unwrap();
    assert_eq!(out, fresh);
}

#[test]
fn rebuild_after_crash_recovery() {
    // Crash -> mount -> fail -> rebuild: the recovered (repaired) state
    // must survive the rebuild round trip.
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    let data = bytes(24, 6);
    v.write(T0, 0, &data, WriteFlags::FUA).unwrap();
    drop(v);
    let mut rng = SimRng::new(99);
    for d in &devs {
        d.crash(&mut CrashPolicy::Random(rng.fork()));
    }
    let v = RaiznVolume::mount(devs, RaiznConfig::small_test(), T0).unwrap();
    let wp = v.zone_info(0).unwrap().write_pointer;
    assert!(wp >= 24);
    v.fail_device(4).unwrap();
    v.rebuild(T0, fresh_device()).unwrap();
    v.fail_device(0).unwrap();
    let mut out = vec![0u8; data.len()];
    v.read(T0, 0, &mut out).unwrap();
    assert_eq!(out, data);
}

#[test]
fn degraded_writes_then_rebuild_round_trip() {
    let v = RaiznVolume::format(devices(4), RaiznConfig::small_test(), T0).unwrap();
    let before = bytes(12, 7);
    v.write(T0, 0, &before, WriteFlags::default()).unwrap();
    v.fail_device(1).unwrap();
    let during = bytes(24, 8);
    v.write(T0, 12, &during, WriteFlags::default()).unwrap();
    v.rebuild(T0, fresh_device()).unwrap();
    // Everything written before and during degraded mode must be present
    // on the rebuilt array, including via reconstruction.
    v.fail_device(2).unwrap();
    let mut out = vec![0u8; before.len() + during.len()];
    v.read(T0, 0, &mut out).unwrap();
    assert_eq!(&out[..before.len()], &before[..]);
    assert_eq!(&out[before.len()..], &during[..]);
}

#[test]
fn rebuild_prioritizes_active_zones() {
    let v = RaiznVolume::format(devices(4), RaiznConfig::small_test(), T0).unwrap();
    let g = v.geometry();
    // Zone 0: full (inactive). Zone 1: open (active).
    v.write(T0, 0, &bytes(g.zone_cap(), 9), WriteFlags::default())
        .unwrap();
    v.write(T0, g.zone_start(1), &bytes(5, 10), WriteFlags::default())
        .unwrap();
    v.fail_device(0).unwrap();
    let report = v.rebuild(T0, fresh_device()).unwrap();
    assert_eq!(report.zones_rebuilt, 2);
    // Both zones usable afterwards: the open zone accepts writes at its wp.
    v.write(
        T0,
        g.zone_start(1) + 5,
        &bytes(3, 11),
        WriteFlags::default(),
    )
    .unwrap();
}

/// `rebuild` serves the lost member's slot of an incomplete stripe from the
/// zone's stripe buffer and refuses to go on without one: mount and
/// `finish_zone` always leave it seeded. Single and dual parity × seven
/// lengths (inside a unit, on a unit boundary, mid-stripe, on either
/// layout's stripe boundary, stripes plus a tail) × finished or not ×
/// remounted or not × each lost member — 280 histories; the degraded read,
/// the rebuild, the read-back and a scrub must all come out clean.
#[test]
fn rebuild_of_an_incomplete_stripe_finds_its_buffer() {
    use workloads::harness::{Crash, Loss, Pair, Raizn};
    let fresh = || devices(5);
    let mut bad = Vec::new();
    for parity in [1, 2] {
        let target = Raizn::small(parity);
        for (len, finished, remounted, lost) in [1, 4, 7, 12, 16, 21, 45]
            .into_iter()
            .flat_map(|len| [false, true].map(|f| (len, f)))
            .flat_map(|(len, f)| [false, true].map(|r| (len, f, r)))
            .flat_map(|(len, f, r)| [0, 1, 2, 3, 4].map(|lost| (len, f, r, lost)))
        {
            let history = || {
                let mut p = Pair::format(&target, &fresh)?;
                p.write(0, len, WriteFlags::default())?;
                if finished {
                    p.finish(0)?;
                }
                if remounted {
                    p.power_cycle(&Crash::uniform("remount", Loss::Keep, 5))?;
                }
                p.vol.fail_device(lost).map_err(|e| e.to_string())?;
                p.read(0, 0, len)?;
                p.rebuild_absent()?;
                p.read(0, 0, len)
            };
            if let Err(e) = history() {
                bad.push(format!(
                    "p{parity} len {len} finished {finished} remounted {remounted} lost {lost}: {e}"
                ));
            }
        }
    }
    assert!(
        bad.is_empty(),
        "{} of 280 bad:\n{}",
        bad.len(),
        bad.join("\n")
    );
}
