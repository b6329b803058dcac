//! Tests of invariants only the engine's internals can set up.

use super::*;
use zns::{LatencyConfig, ZnsConfig};

const T0: SimTime = SimTime::ZERO;

/// Accounting-only devices: nothing here reads data back.
fn devices(zone_sectors: u64) -> Vec<Arc<ZnsDevice>> {
    (0..5)
        .map(|_| {
            Arc::new(ZnsDevice::new(
                ZnsConfig::builder()
                    .zones(16, zone_sectors, zone_sectors)
                    .open_limits(8, 12)
                    .latency(LatencyConfig::instant())
                    .store_data(false)
                    .build(),
            ))
        })
        .collect()
}

/// The worst case the headroom is sized for: the slot is as full as a
/// commit may leave it, every stream sits mid-stripe, and the largest
/// foreground write — a whole logical zone, entered mid-stripe — seals
/// its stripes and finds no room for their summary. The rotation must
/// fit that batch plus its own three pad-seal entries into what is left
/// of the old slot.
#[test]
fn headroom_covers_a_rotations_own_batch() {
    let vol = LsVolume::format(devices(1024), LsConfig::default(), T0).unwrap();
    let cap = vol.phys.zone_cap();
    let zone = vol.geo.zone_cap();
    let sector = vec![0x5Au8; SECTOR_SIZE as usize];
    let mut inner = vol.inner.lock();
    let inner = &mut *inner;
    for (stream, lzone) in [(HOT, 0u64), (COLD, 2), (COLD + 1, 3)] {
        vol.log_data(inner, T0, &sector, LogMode::User, lzone * zone, stream)
            .unwrap();
    }
    // One-sector records up to the brink: one more would rotate.
    while !vol.slot_full(inner, 1) {
        vol.commit_record(inner, T0, kind::ZONE_FINISH, |_, buf| put_u32(buf, 7))
            .unwrap();
    }
    assert_eq!(inner.meta.epoch, 1);
    let brink = inner.meta.used;
    assert_eq!(brink + vol.meta_headroom, cap);

    let data = vec![0xA5u8; (zone * SECTOR_SIZE) as usize];
    vol.log_data(inner, T0, &data, LogMode::User, zone, HOT)
        .unwrap();
    assert_eq!(inner.meta.epoch, 2, "the write's summary had to rotate");
    assert!(!inner.meta.has_staged());
    // 16 stripes sealed by the write, one pad-seal per stream.
    let batch = meta::record_sectors(19 * meta::summary_entry_bytes(vol.kd as usize));
    assert_eq!(batch, vol.meta_headroom, "the case is the tight one");
    for dev in vol.devices.iter().take(META_DEVICES) {
        assert_eq!(dev.zone_info(0).unwrap().written(), brink + batch);
    }
    assert_eq!(inner.c_pads, 3 * (vol.kd - 1));
}

/// A reclaimed group goes back to the pool with the state `open_group`
/// relies on and no longer resets: no valid sectors, a reverse map that
/// names none.
#[test]
fn reopened_group_starts_with_an_empty_reverse_map() {
    let vol = LsVolume::format(devices(64), LsConfig::default(), T0).unwrap();
    let group = vol.group_cap;
    let data = vec![0xC3u8; (vol.geo.zone_cap() * SECTOR_SIZE) as usize];
    let mut inner = vol.inner.lock();
    let inner = &mut *inner;
    // Fill the first hot group with four logical zones, then overwrite
    // them: every slot of that group is mapped once and garbage after.
    for pass in 0..2 {
        for lba in (0..group).step_by(data.len() / SECTOR_SIZE as usize) {
            vol.log_data(inner, T0, &data, LogMode::User, lba, HOT)
                .unwrap();
        }
        assert_eq!(inner.groups[0].valid, if pass == 0 { group } else { 0 });
    }
    assert_eq!(inner.groups[0].state, GState::Sealed);
    vol.reclaim_inner(inner, T0, 0).unwrap();
    assert_eq!(inner.groups[0].state, GState::Free);
    // The pool is a stack: the next open takes the group just freed.
    let (g, _) = vol.open_group(inner, T0, COLD).unwrap();
    assert_eq!(g, 0);
    let grp = &inner.groups[0];
    assert_eq!(grp.state, GState::Open(COLD as u8));
    assert_eq!((grp.valid, grp.fill, grp.sealed), (0, 0, 0));
    assert!(grp.lbas.iter().all(|&l| l == NONE64));
}
