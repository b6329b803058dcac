//! Tests for the §5.2 relocation-threshold zone rewrite: physical zones
//! accumulating more than `RELOCATION_THRESHOLD` relocated stripe units
//! are rewritten through a swap zone at mount, restoring every unit to its
//! arithmetic slot.

use raizn::{RaiznConfig, RaiznVolume, RELOCATION_THRESHOLD};
use sim::{SimRng, SimTime};
use std::sync::Arc;
use zns::{CrashPolicy, LatencyConfig, WriteFlags, ZnsConfig, ZnsDevice, ZonedVolume, SECTOR_SIZE};

const T0: SimTime = SimTime::ZERO;

/// The member that keeps its cache across a crash. It holds neither the
/// first data unit of stripe 0 nor that of stripe `RELOCATION_THRESHOLD -
/// 1`, where the two sessions' rolled-back runs start, so what it keeps
/// never extends the zone's readable prefix: every unit it keeps past the
/// frontier is a ghost.
const GHOST: usize = 3;

/// `small_test` devices with 64 stripes per zone: a `small_test` zone
/// holds 16, so one member could never pass the threshold in it.
fn devices() -> Vec<Arc<ZnsDevice>> {
    (0..5)
        .map(|_| {
            Arc::new(ZnsDevice::new(
                ZnsConfig::builder()
                    .zones(8, 256, 256)
                    .open_limits(4, 6)
                    .latency(LatencyConfig::instant())
                    .build(),
            ))
        })
        .collect()
}

fn bytes(sectors: u64, seed: u64) -> Vec<u8> {
    let mut v = vec![0u8; (sectors * SECTOR_SIZE) as usize];
    SimRng::new(seed).fill_bytes(&mut v);
    v
}

/// Power loss in which member [`GHOST`] keeps its cache and every other
/// member loses theirs: each stripe written since the last flush rolls
/// back, leaving a ghost slot on `GHOST` that the next mount records as a
/// relocation.
fn ghost_crash(devs: &[Arc<ZnsDevice>]) {
    for (i, d) in devs.iter().enumerate() {
        if i == GHOST {
            d.crash(&mut CrashPolicy::KeepCache);
        } else {
            d.crash(&mut CrashPolicy::LoseCache);
        }
    }
}

/// Devices, powered off, whose next mount finds `relocations` relocated
/// stripe units in zone 0, all on member [`GHOST`]; and the zone's data.
/// The first session leaves at most `RELOCATION_THRESHOLD - 1` ghosts, so
/// its own mount stays clear of the boundary; the rest roll back in a
/// second session, and only the mount under test meets it.
fn devices_with_relocations(relocations: usize) -> (Vec<Arc<ZnsDevice>>, Vec<u8>) {
    let devs = devices();
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    let stripe = v.layout().stripe_data_sectors();
    let first = relocations.min(RELOCATION_THRESHOLD - 1);
    let sectors = first as u64 * stripe;
    v.write(T0, 0, &bytes(sectors, 1), WriteFlags::default())
        .unwrap();
    drop(v);
    ghost_crash(&devs);
    let v = RaiznVolume::mount(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    let wp = v.zone_info(0).unwrap().write_pointer;
    assert_eq!(wp, 0, "setup: zone should have rolled back");
    // Rewriting the zone redirects every slot that meets a ghost.
    let data = bytes(sectors, 2);
    v.write(T0, 0, &data, WriteFlags::default()).unwrap();
    v.flush(T0).unwrap();
    assert_eq!(v.relocated_count(), first, "setup: relocations");
    let rest = (relocations - first) as u64 * stripe;
    if rest > 0 {
        v.write(T0, sectors, &bytes(rest, 3), WriteFlags::default())
            .unwrap();
    }
    drop(v);
    ghost_crash(&devs);
    (devs, data)
}

/// One row of the rewrite's boundary table: mounts devices holding
/// `relocations` relocations on one member and checks whether the mount
/// rewrote that member's zone. Either way the data reads back; after a
/// rewrite, degraded reads go through the arithmetic slots.
fn boundary_row(relocations: usize, rewritten: bool) {
    let ctx = format!("{relocations} relocations");
    let (devs, fresh) = devices_with_relocations(relocations);
    let v = RaiznVolume::mount(devs, RaiznConfig::small_test(), T0).unwrap();
    assert_eq!(v.stats().zone_rewrites, u64::from(rewritten), "{ctx}");
    let left = if rewritten { 0 } else { relocations };
    assert_eq!(v.relocated_count(), left, "{ctx}");
    let mut out = vec![0u8; fresh.len()];
    v.read(T0, 0, &mut out).unwrap();
    assert!(out == fresh, "{ctx}: data corrupted");
    if rewritten {
        v.fail_device(GHOST).unwrap();
        v.read(T0, 0, &mut out).unwrap();
        assert!(out == fresh, "{ctx}: degraded read");
    }
}

/// Row 1: exactly `RELOCATION_THRESHOLD` relocations are kept.
#[test]
fn below_threshold_keeps_relocations() {
    boundary_row(RELOCATION_THRESHOLD, false);
}

/// Row 2: one relocation past the threshold triggers the rewrite.
#[test]
fn rewrite_heals_relocations_at_mount() {
    boundary_row(RELOCATION_THRESHOLD + 1, true);
}

#[test]
fn rewritten_zone_continues_normally() {
    let (devs, fresh) = devices_with_relocations(RELOCATION_THRESHOLD + 1);
    let v = RaiznVolume::mount(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    assert_eq!(v.stats().zone_rewrites, 1);
    // Continue writing past the rewritten region; no relocations needed.
    let more = bytes(32, 3);
    let end = fresh.len() as u64 / SECTOR_SIZE;
    v.write(T0, end, &more, WriteFlags::FUA).unwrap();
    assert_eq!(v.relocated_count(), 0);
    // Full round trip across another crash.
    drop(v);
    for d in &devs {
        d.crash(&mut CrashPolicy::LoseCache);
    }
    let v = RaiznVolume::mount(devs, RaiznConfig::small_test(), T0).unwrap();
    let mut out = vec![0u8; fresh.len() + more.len()];
    v.read(T0, 0, &mut out).unwrap();
    assert!(out[..fresh.len()] == fresh[..]);
    assert!(out[fresh.len()..] == more[..]);
}
