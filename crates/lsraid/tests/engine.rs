//! Engine-level tests for the log-structured RAID volume: read/write
//! semantics, padding and WAF accounting, scrub, GC, crash recovery and
//! metadata-log rotation.

use lsraid::{DirectSink, GcConfig, GcManager, LsConfig, LsVolume};
use proptest::prelude::*;
use sim::{SimDuration, SimRng, SimTime};
use std::sync::Arc;
use zns::{CrashPolicy, LatencyConfig, WriteFlags, ZnsConfig, ZnsDevice, ZonedVolume, SECTOR_SIZE};

const T0: SimTime = SimTime::ZERO;

fn devices(n: usize) -> Vec<Arc<ZnsDevice>> {
    (0..n)
        .map(|_| {
            Arc::new(ZnsDevice::new(
                ZnsConfig::builder()
                    .zones(16, 64, 64)
                    .open_limits(8, 12)
                    .build(),
            ))
        })
        .collect()
}

/// Deterministic content for `sectors` sectors starting at logical `lba`,
/// salted by `version` so overwrites are distinguishable.
fn pattern(lba: u64, sectors: u64, version: u64) -> Vec<u8> {
    let mut buf = vec![0u8; (sectors * SECTOR_SIZE) as usize];
    for s in 0..sectors {
        let tag = (lba + s) * 31 + version * 7 + 1;
        for (i, b) in buf[(s * SECTOR_SIZE) as usize..((s + 1) * SECTOR_SIZE) as usize]
            .iter_mut()
            .enumerate()
        {
            *b = (tag as u8).wrapping_add(i as u8);
        }
    }
    buf
}

fn write_zone(vol: &LsVolume, zone: u32, version: u64) {
    let geo = vol.geometry();
    let start = geo.zone_start(zone);
    let data = pattern(start, geo.zone_cap(), version);
    vol.write(T0, start, &data, WriteFlags::default()).unwrap();
}

fn verify_zone(vol: &LsVolume, zone: u32, version: u64) {
    let geo = vol.geometry();
    let start = geo.zone_start(zone);
    let want = pattern(start, geo.zone_cap(), version);
    let mut got = vec![0u8; want.len()];
    vol.read(T0, start, &mut got).unwrap();
    assert_eq!(got, want, "zone {zone} content mismatch");
}

#[test]
fn format_exposes_dense_logical_geometry() {
    let vol = LsVolume::format(devices(5), LsConfig::default(), T0).unwrap();
    let geo = vol.geometry();
    // 16 phys zones - 2 meta = 14 groups; (14-2) * 256 slots * 0.8 OP
    // = 2457 usable sectors = 38 zones of 64.
    assert_eq!(geo.num_zones(), 38);
    assert_eq!(geo.zone_size(), geo.zone_cap());
    assert_eq!(vol.group_capacity(), 256);
    assert_eq!(vol.free_group_count(), 14);
}

#[test]
fn write_read_roundtrip_and_unit_waf() {
    let vol = LsVolume::format(devices(5), LsConfig::default(), T0).unwrap();
    let geo = vol.geometry();
    // Write zone 0 in 8-sector chunks.
    for c in 0..8u64 {
        let lba = c * 8;
        let data = pattern(lba, 8, 0);
        vol.write(T0, lba, &data, WriteFlags::default()).unwrap();
    }
    verify_zone(&vol, 0, 0);
    assert_eq!(vol.stats().user_sectors, geo.zone_cap());
    // No GC, no flush: nothing but user data has been logged.
    assert!((vol.waf() - 1.0).abs() < f64::EPSILON);
    assert_eq!(vol.stats().pad_sectors, 0);
    let info = vol.zone_info(0).unwrap();
    assert_eq!(info.written(), geo.zone_cap());
}

#[test]
fn relaxed_overwrite_remaps_in_place() {
    let vol = LsVolume::format(devices(5), LsConfig::default(), T0).unwrap();
    write_zone(&vol, 0, 1);
    // Overwrite the middle of the zone: allowed (rel <= wp) and the read
    // must observe the newest version.
    let data = pattern(10, 4, 9);
    vol.write(T0, 10, &data, WriteFlags::default()).unwrap();
    let mut got = vec![0u8; data.len()];
    vol.read(T0, 10, &mut got).unwrap();
    assert_eq!(got, data);
    // Sectors around the overwrite keep version 1.
    let want = pattern(14, 4, 1);
    let mut got = vec![0u8; want.len()];
    vol.read(T0, 14, &mut got).unwrap();
    assert_eq!(got, want);
}

#[test]
fn append_advances_write_pointer() {
    let vol = LsVolume::format(devices(5), LsConfig::default(), T0).unwrap();
    let a = vol
        .append(T0, 3, &pattern(0, 4, 0), WriteFlags::default())
        .unwrap();
    let b = vol
        .append(T0, 3, &pattern(4, 4, 0), WriteFlags::default())
        .unwrap();
    let geo = vol.geometry();
    assert_eq!(a.lba, geo.zone_start(3));
    assert_eq!(b.lba, geo.zone_start(3) + 4);
    assert_eq!(vol.zone_info(3).unwrap().written(), 8);
}

#[test]
fn flush_pads_open_stripe_and_waf_is_honest() {
    let vol = LsVolume::format(devices(5), LsConfig::default(), T0).unwrap();
    let data = pattern(0, 8, 0);
    vol.write(T0, 0, &data, WriteFlags::default()).unwrap();
    assert!((vol.waf() - 1.0).abs() < f64::EPSILON);
    vol.flush(T0).unwrap();
    // kd = 16 * 4 = 64 data slots per stripe; 8 written, 56 padded.
    let st = vol.stats();
    assert_eq!(st.pad_sectors, 56);
    assert!((vol.waf() - 8.0).abs() < 1e-9);
    // Padding is not user data: read-back still works and the zone wp
    // is untouched.
    let mut got = vec![0u8; data.len()];
    vol.read(T0, 0, &mut got).unwrap();
    assert_eq!(got, data);
    assert_eq!(vol.zone_info(0).unwrap().written(), 8);
}

#[test]
fn scrub_is_clean_and_detects_corruption() {
    let devs = devices(5);
    let vol = LsVolume::format(devs.clone(), LsConfig::default(), T0).unwrap();
    for z in 0..4 {
        write_zone(&vol, z, 0);
    }
    vol.flush(T0).unwrap();
    let rep = vol.scrub(T0).unwrap();
    assert!(rep.stripes >= 4);
    assert_eq!(rep.parity_errors, 0);
    // Stripe 0 of the first group lives at physical zone 2 (the lowest
    // free zone); its parity is on device 0, so device 1 holds data.
    let plba = devs[1].config().geometry().zone_start(2);
    devs[1].corrupt_sector_for_test(plba, 0x5a);
    let rep = vol.scrub(T0).unwrap();
    assert!(rep.parity_errors >= 1);
}

#[test]
fn dual_parity_scrub_checks_q() {
    let devs = devices(6);
    let cfg = LsConfig::default().parity(2);
    let vol = LsVolume::format(devs.clone(), cfg, T0).unwrap();
    for z in 0..4 {
        write_zone(&vol, z, 0);
    }
    vol.flush(T0).unwrap();
    let rep = vol.scrub(T0).unwrap();
    assert!(rep.stripes >= 4);
    assert_eq!(rep.parity_errors, 0);
    assert_eq!(rep.q_errors, 0);
    // Corrupt a data sector: both P and Q must notice.
    let plba = devs[2].config().geometry().zone_start(2);
    devs[2].corrupt_sector_for_test(plba, 0xa5);
    let rep = vol.scrub(T0).unwrap();
    assert!(rep.parity_errors >= 1);
    assert!(rep.q_errors >= 1);
}

#[test]
fn remount_preserves_data_and_zone_state() {
    let devs = devices(5);
    {
        let vol = LsVolume::format(devs.clone(), LsConfig::default(), T0).unwrap();
        for z in 0..6 {
            write_zone(&vol, z, z as u64);
        }
        // A partial zone too.
        vol.write(
            T0,
            vol.geometry().zone_start(7),
            &pattern(vol.geometry().zone_start(7), 12, 3),
            WriteFlags::default(),
        )
        .unwrap();
        vol.finish_zone(T0, 5).unwrap();
        vol.flush(T0).unwrap();
    }
    let vol = LsVolume::mount(devs, LsConfig::default(), T0).unwrap();
    for z in 0..5 {
        verify_zone(&vol, z, z as u64);
    }
    verify_zone(&vol, 5, 5);
    assert_eq!(vol.zone_info(5).unwrap().state, zns::ZoneState::Full);
    assert_eq!(vol.zone_info(7).unwrap().written(), 12);
    let want = pattern(vol.geometry().zone_start(7), 12, 3);
    let mut got = vec![0u8; want.len()];
    vol.read(T0, vol.geometry().zone_start(7), &mut got)
        .unwrap();
    assert_eq!(got, want);
    assert_eq!(vol.scrub(T0).unwrap().parity_errors, 0);
}

#[test]
fn crash_recovers_durable_prefix_only() {
    let devs = devices(5);
    {
        let vol = LsVolume::format(devs.clone(), LsConfig::default(), T0).unwrap();
        write_zone(&vol, 0, 0);
        vol.flush(T0).unwrap();
        // Never flushed: this data is volatile on the devices.
        write_zone(&vol, 1, 0);
    }
    for d in &devs {
        d.crash(&mut CrashPolicy::LoseCache);
    }
    let vol = LsVolume::mount(devs, LsConfig::default(), T0).unwrap();
    verify_zone(&vol, 0, 0);
    // Zone 1's stripes never became durable: the roll-forward validation
    // against surviving write pointers must refuse them.
    assert_eq!(vol.zone_info(1).unwrap().written(), 0);
    assert_eq!(vol.scrub(T0).unwrap().parity_errors, 0);
    // The recovered array keeps working.
    write_zone(&vol, 1, 7);
    verify_zone(&vol, 1, 7);
}

#[test]
fn gc_manager_reclaims_and_preserves_data() {
    let devs = devices(5);
    let vol = Arc::new(LsVolume::format(devs, LsConfig::default(), T0).unwrap());
    let zones = vol.geometry().num_zones();
    let mut version = vec![0u64; zones as usize];
    for z in 0..zones {
        write_zone(&vol, z, 0);
    }
    // Overwrite a third of the zones to create garbage.
    for z in (0..zones).step_by(3) {
        write_zone(&vol, z, 1);
        version[z as usize] = 1;
    }
    vol.flush(T0).unwrap();
    let free_before = vol.free_group_count();
    let mut gc = GcManager::new(vol.clone(), GcConfig::default());
    let mut sink = DirectSink::new(&vol);
    for _ in 0..200 {
        gc.pump(T0, &mut sink).unwrap();
        if gc.reclaimed_groups() >= 2 {
            break;
        }
    }
    assert!(gc.reclaimed_groups() >= 2, "GC never reclaimed a group");
    assert!(gc.migrated_sectors() > 0);
    assert!(vol.free_group_count() > free_before);
    assert!(vol.waf() > 1.0);
    for z in 0..zones {
        verify_zone(&vol, z, version[z as usize]);
    }
    assert_eq!(vol.scrub(T0).unwrap().parity_errors, 0);
}

/// Forwards to a [`DirectSink`] and records each move's size in sectors.
struct SizingSink<'a> {
    inner: DirectSink<'a>,
    moves: Vec<u64>,
}

impl lsraid::GcSink for SizingSink<'_> {
    fn migrate(&mut self, at: SimTime, lba: u64, data: &[u8]) -> zns::Result<SimTime> {
        self.moves.push(data.len() as u64 / SECTOR_SIZE);
        self.inner.migrate(at, lba, data)
    }
}

#[test]
fn gc_moves_are_stripe_sized() {
    let vol = Arc::new(LsVolume::format(devices(5), LsConfig::default(), T0).unwrap());
    let zones = vol.geometry().num_zones();
    for z in 0..zones {
        write_zone(&vol, z, 0);
    }
    // Every fourth zone dies: each group keeps three whole zones, i.e.
    // valid runs of a full stripe (a 64-sector zone is one stripe).
    for z in (0..zones).step_by(4) {
        write_zone(&vol, z, 1);
    }
    vol.flush(T0).unwrap();
    let stripe = vol.stripe_data_sectors();
    let cfg = GcConfig {
        budget_sectors: 2 * stripe + 8,
        low_water: 64,
        threshold_water: 65,
        high_water: 65,
        ..GcConfig::default()
    };
    let mut gc = GcManager::new(vol.clone(), cfg);
    let mut sink = SizingSink {
        inner: DirectSink::new(&vol),
        moves: Vec::new(),
    };
    gc.pump(T0, &mut sink).unwrap();
    // Two whole stripes, then what is left of the budget.
    assert_eq!(sink.moves, [stripe, stripe, 8]);
}

#[test]
fn emergency_reclaim_keeps_writes_flowing() {
    let vol = LsVolume::format(devices(5), LsConfig::default(), T0).unwrap();
    let zones = vol.geometry().num_zones();
    let mut version = vec![0u64; zones as usize];
    for z in 0..zones {
        write_zone(&vol, z, 0);
    }
    // No background GC: sustained overwrite must eventually hit the
    // reserve and trigger inline emergency collection instead of
    // failing with an allocation error.
    let mut v = 1u64;
    while vol.stats().emergency_reclaims == 0 {
        assert!(v < 300, "emergency collection never fired");
        let z = (v % u64::from(zones)) as u32;
        write_zone(&vol, z, v);
        version[z as usize] = v;
        v += 1;
    }
    for z in 0..zones {
        verify_zone(&vol, z, version[z as usize]);
    }
    let st = vol.stats();
    assert!(st.group_reclaims >= 1);
    assert!(st.migrated_sectors > 0 || st.group_reclaims > 0);
}

#[test]
fn meta_rotation_survives_remount() {
    let devs = devices(5);
    let version;
    {
        let vol = LsVolume::format(devs.clone(), LsConfig::default(), T0).unwrap();
        let zones = vol.geometry().num_zones();
        let mut ver = vec![0u64; zones as usize];
        for z in 0..zones {
            write_zone(&vol, z, 0);
        }
        let mut v = 1u64;
        // Each full-zone write seals a stripe (one summary record); the
        // 64-sector meta zone rotates after a few dozen.
        while vol.stats().meta_rotations < 2 {
            assert!(v < 400, "metadata log never rotated");
            let z = (v % u64::from(zones)) as u32;
            write_zone(&vol, z, v);
            ver[z as usize] = v;
            v += 1;
        }
        vol.flush(T0).unwrap();
        version = ver;
    }
    let vol = LsVolume::mount(devs, LsConfig::default(), T0).unwrap();
    for (z, &ver) in version.iter().enumerate() {
        verify_zone(&vol, z as u32, ver);
    }
    assert_eq!(vol.scrub(T0).unwrap().parity_errors, 0);
}

#[test]
fn zone_reset_unmaps_and_reclaims_capacity() {
    let vol = LsVolume::format(devices(5), LsConfig::default(), T0).unwrap();
    write_zone(&vol, 0, 0);
    vol.flush(T0).unwrap();
    vol.reset_zone(T0, 0).unwrap();
    assert_eq!(vol.zone_info(0).unwrap().written(), 0);
    let mut buf = vec![0u8; SECTOR_SIZE as usize];
    assert!(vol.read(T0, 0, &mut buf).is_err());
    // The old blocks are garbage now; a fresh write works.
    write_zone(&vol, 0, 2);
    verify_zone(&vol, 0, 2);
}

#[test]
fn sequential_rule_enforced_for_foreground() {
    let vol = LsVolume::format(devices(5), LsConfig::default(), T0).unwrap();
    let data = pattern(8, 4, 0);
    let err = vol.write(T0, 8, &data, WriteFlags::default()).unwrap_err();
    assert!(matches!(err, zns::ZnsError::NotSequential { zone: 0, .. }));
    // Reading past the write pointer is refused.
    let mut buf = vec![0u8; SECTOR_SIZE as usize];
    assert!(matches!(
        vol.read(T0, 0, &mut buf),
        Err(zns::ZnsError::ReadUnwritten { .. })
    ));
}

/// Logs `stream[from..to]` at logical sectors `from..to` in calls of the
/// lengths `cut` hands out (clamped to what is left), then flushes.
fn log_span(vol: &LsVolume, stream: &[u8], from: u64, to: u64, mut cut: impl FnMut() -> u64) {
    let mut at = from;
    while at < to {
        let n = cut().min(to - at);
        let bytes = (at * SECTOR_SIZE) as usize..((at + n) * SECTOR_SIZE) as usize;
        vol.write(T0, at, &stream[bytes], WriteFlags::default())
            .unwrap();
        at += n;
    }
    vol.flush(T0).unwrap();
}

/// Everything below the write pointer of every stripe-group zone (zones
/// 0 and 1 hold the metadata log, whose records follow the call cuts).
fn member_zones(devs: &[Arc<ZnsDevice>]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for dev in devs {
        for z in 2..dev.config().geometry().num_zones() {
            let info = dev.zone_info(z).unwrap();
            let mut buf = vec![0u8; (info.written() * SECTOR_SIZE) as usize];
            if !buf.is_empty() {
                dev.read(T0, info.start, &mut buf).unwrap();
            }
            out.push(buf);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The log is append-only, so where calls are cut decides only which
    /// slice a stripe's parity is encoded from — the caller's, when one
    /// call covers an empty stripe, or the stream's stage — never what
    /// lands on the members. One byte stream goes into two arrays, once
    /// in stripe-aligned whole-stripe calls and once cut raggedly, with
    /// the same two flush pads at the same stream offsets.
    #[test]
    fn ragged_cuts_leave_the_members_a_whole_stripe_log_does(
        parity in 1u32..=2,
        seed in 0u64..1 << 32,
    ) {
        let format = || {
            let devs: Vec<Arc<ZnsDevice>> = (0..5)
                .map(|_| {
                    Arc::new(ZnsDevice::new(
                        ZnsConfig::builder().zones(16, 384, 384).open_limits(8, 12).build(),
                    ))
                })
                .collect();
            let cfg = LsConfig::default().parity(parity);
            (LsVolume::format(devs.clone(), cfg, T0).unwrap(), devs)
        };
        let (whole, whole_devs) = format();
        let (ragged, ragged_devs) = format();
        let (unit, stripe) = (whole.stripe_unit(), whole.stripe_data_sectors());
        // One logical zone holds the stream: six stripes at one parity,
        // eight at two.
        let zone = whole.geometry().zone_cap();
        prop_assert_eq!(zone % stripe, 0);

        let mut rng = SimRng::new(seed);
        let total = zone - rng.gen_range(stripe);
        let mid = 1 + rng.gen_range(total - 1);
        let mut stream = vec![0u8; (total * SECTOR_SIZE) as usize];
        rng.fill_bytes(&mut stream);
        // Sub-unit, exactly one unit, unit-straddling, stripe-straddling,
        // multi-stripe.
        let mut ragged_cut = || match rng.gen_range(5) {
            0 => 1 + rng.gen_range(unit - 1),
            1 => unit,
            2 => unit + 1 + rng.gen_range(unit - 1),
            3 => stripe - unit + 1 + rng.gen_range(2 * unit - 1),
            _ => stripe + 1 + rng.gen_range(2 * stripe),
        };
        for (from, to) in [(0, mid), (mid, total)] {
            // Each flush pads to a stripe boundary, so whole-stripe calls
            // from `from` stay stripe-aligned in the log.
            log_span(&whole, &stream, from, to, || stripe);
            log_span(&ragged, &stream, from, to, &mut ragged_cut);
        }

        prop_assert!(member_zones(&whole_devs) == member_zones(&ragged_devs));
        for vol in [&whole, &ragged] {
            let rep = vol.scrub(T0).unwrap();
            prop_assert_eq!((rep.parity_errors, rep.q_errors), (0, 0));
            let mut got = vec![0u8; stream.len()];
            vol.read(T0, 0, &mut got).unwrap();
            prop_assert!(got == stream);
        }
        let (w, r) = (whole.stats(), ragged.stats());
        prop_assert_eq!(
            (w.user_sectors, w.pad_sectors, w.parity_sectors),
            (r.user_sectors, r.pad_sectors, r.parity_sectors)
        );
        prop_assert_eq!(w.user_sectors, total);
        prop_assert!(w.pad_sectors < 2 * stripe);
    }
}

/// The metadata log lives on `parity + 1` members: a dual-parity array
/// that loses members 0 and 1 still has a replica, mounts, and serves
/// every byte by decoding around both.
#[test]
fn dual_parity_mount_without_members_0_and_1_reads_back() {
    let devs = devices(5);
    let cfg = LsConfig::default().parity(2);
    {
        let vol = LsVolume::format(devs.clone(), cfg.clone(), T0).unwrap();
        for z in 0..6 {
            write_zone(&vol, z, z.into());
        }
        vol.flush(T0).unwrap();
    }
    devs[0].fail();
    devs[1].fail();
    let vol = LsVolume::mount(devs, cfg, T0).unwrap();
    assert_eq!(vol.failed_devices(), [0, 1]);
    for z in 0..6 {
        verify_zone(&vol, z, z.into());
    }
}

/// A member failed at run time is read around — sealed stripes by
/// decoding, the open stripe from the stage — and written around; a
/// rebuild restores it from the live groups only (a dead one is
/// reclaimed, not copied), after which the array scrubs clean and
/// remounts whole. At two parity levels: one member, then two; and
/// metadata replicas rebuilt while a stripe is still open and no dead
/// group forces a flush.
#[test]
fn failed_members_are_read_around_and_rebuilt() {
    let rows = [
        (1u32, vec![2usize], true),
        (2, vec![1, 3], true),
        (1, vec![0], false),
        (2, vec![0, 1], false),
    ];
    for (parity, failed, overwrite) in rows {
        let mut devs = devices(5);
        let cfg = LsConfig::default().parity(parity);
        let vol = LsVolume::format(devs.clone(), cfg.clone(), T0).unwrap();
        for z in 0..6 {
            write_zone(&vol, z, 1);
        }
        // Zones 0..4 again: the group that held zones 0..2 dies.
        if overwrite {
            for z in 0..4 {
                write_zone(&vol, z, 2);
            }
        }
        vol.flush(T0).unwrap();
        for &dev in &failed {
            vol.fail_device(dev).unwrap();
        }
        assert!(vol.fail_device(4).is_err(), "parity {parity} headroom");
        let version = |z: u32| if overwrite && z < 4 { 2 } else { 1 };
        for z in 0..6 {
            verify_zone(&vol, z, version(z));
        }
        // Degraded writes: a whole zone, then a partial stripe whose bytes
        // only the stage holds on the failed members.
        write_zone(&vol, 6, 3);
        let start = vol.geometry().zone_start(7);
        let tail = pattern(start, 20, 4);
        vol.write(T0, start, &tail, WriteFlags::default()).unwrap();
        let mut got = vec![0u8; tail.len()];
        vol.read(T0, start, &mut got).unwrap();
        assert_eq!(got, tail, "open stripe read around a failed member");

        let reclaims = vol.stats().group_reclaims;
        for &dev in &failed {
            let replacement = devices(1).remove(0);
            let report = vol.rebuild(T0, replacement.clone()).unwrap();
            assert!(report.zones_rebuilt > 0 && report.bytes_written > 0);
            devs[dev] = replacement;
        }
        let dead = u64::from(overwrite);
        assert_eq!(vol.stats().group_reclaims, reclaims + dead, "dead groups");
        assert!(vol.failed_devices().is_empty());
        let check = |vol: &LsVolume| {
            for z in 0..7 {
                verify_zone(vol, z, if z == 6 { 3 } else { version(z) });
            }
            let rep = vol.scrub(T0).unwrap();
            assert_eq!(
                (rep.parity_errors, rep.q_errors, rep.units_healed),
                (0, 0, 0)
            );
        };
        check(&vol);
        vol.flush(T0).unwrap();
        drop(vol);
        check(&LsVolume::mount(devs, cfg, T0).unwrap());
    }
}

/// A latent media error on a data unit: scrub decodes the unit from the
/// rest of its stripe and re-logs the stripe's valid sectors, so reads
/// never touch the bad sectors again.
#[test]
fn scrub_relogs_a_stripe_with_a_latent_data_unit() {
    let devs = devices(5);
    let vol = LsVolume::format(devs.clone(), LsConfig::default(), T0).unwrap();
    for z in 0..4 {
        write_zone(&vol, z, 0);
    }
    vol.flush(T0).unwrap();
    // Stripe 0 of the first group (physical zone 2): device 1 holds its
    // first data unit.
    let plba = devs[1].config().geometry().zone_start(2);
    devs[1].set_fault_plan(zns::FaultPlan::new(5).latent_range(plba, vol.stripe_unit()));
    let rep = vol.scrub(T0).unwrap();
    assert_eq!((rep.units_healed, rep.parity_errors), (1, 0));
    assert_eq!(rep.sectors_relogged, vol.stripe_data_sectors());
    let hits = devs[1].stats().injected_media_errors;
    for z in 0..4 {
        verify_zone(&vol, z, 0);
    }
    assert_eq!(devs[1].stats().injected_media_errors, hits);
}

/// lsraid answers to the observability plane as RAIZN does: a read around
/// a failed member counts a degraded read and emits one `Degraded` span,
/// and a foreground read queued behind a scrub's reads is blamed on the
/// scrub (`interference_rebuild`), not on nobody.
#[test]
fn degraded_reads_and_scrub_interference_are_traced() {
    let recorder = obs::Recorder::new(1 << 14, 1);
    recorder.enable_spans(obs::SpanConfig::default());
    let config = ZnsConfig::builder()
        .zones(16, 64, 64)
        .open_limits(8, 12)
        .latency(LatencyConfig::zns_ssd())
        .build();
    let devs: Vec<_> = (0..5u32)
        .map(|i| {
            let dev = Arc::new(ZnsDevice::new(config.clone()));
            dev.set_recorder(recorder.clone(), i);
            dev
        })
        .collect();
    let vol = LsVolume::format(devs, LsConfig::default(), T0).unwrap();
    vol.set_recorder(recorder.clone());
    for z in 0..2 {
        write_zone(&vol, z, 0);
    }
    vol.flush(T0).unwrap();

    // Long after the fill drained: the scrub's reads and a foreground read
    // of the same stripes, issued at one instant.
    let at = T0 + SimDuration::from_secs(1);
    assert_eq!(vol.scrub(at).unwrap().parity_errors, 0);
    let mut buf = vec![0u8; (vol.stripe_unit() * SECTOR_SIZE) as usize];
    vol.read(at, 0, &mut buf).unwrap();
    let col = obs::BLAME_CATEGORIES
        .iter()
        .position(|&c| c == "interference_rebuild")
        .unwrap();
    let blamed: u64 = recorder
        .blame_rows()
        .iter()
        .map(|r| r.categories[col])
        .sum();
    assert!(blamed > 0, "a read behind the scrub is not blamed on it");

    vol.fail_device(1).unwrap();
    let spans = || {
        let degraded = |e: &obs::TraceEvent| e.path == Some(obs::PathKind::Degraded);
        recorder.events().iter().filter(|e| degraded(e)).count() as u64
    };
    let before = spans();
    verify_zone(&vol, 0, 0);
    let stats = vol.stats();
    assert!(stats.degraded_reads > 0, "no read went around member 1");
    assert_eq!(spans() - before, stats.degraded_reads, "one span per read");
    assert_eq!(stats.read_repairs, 0);
}

/// The mapping state is 32-bit words, so a geometry with more data slots
/// than a packed address can name is refused at format — before the map
/// (here tens of gigabytes of words) is allocated.
#[test]
fn format_refuses_more_slots_than_32_bit_words_name() {
    // 1 030 zones of 2^22 sectors: 1 028 groups of 4 · 2^22 = 2^24 data
    // slots, 2^34 in all.
    let devs: Vec<Arc<ZnsDevice>> = (0..5)
        .map(|_| {
            Arc::new(ZnsDevice::new(
                ZnsConfig::builder()
                    .zones(1030, 1 << 22, 1 << 22)
                    .open_limits(8, 12)
                    .latency(LatencyConfig::instant())
                    .store_data(false)
                    .build(),
            ))
        })
        .collect();
    let err = LsVolume::format(devs, LsConfig::default(), T0).unwrap_err();
    assert!(
        matches!(&err, zns::ZnsError::InvalidArgument(m) if m.contains("32-bit")),
        "{err}"
    );
}

/// A map that random 4 KiB overwrites have cut into short runs survives
/// metadata rotations and a power loss: after `CrashPolicy::LoseCache` the
/// mount (checkpoint runs, then the summaries after them) reads back every
/// sector as of the last flush, and a tail of writes that never sealed a
/// stripe is gone. At two parity levels; at two, it also mounts and reads
/// back with a member absent.
#[test]
fn fragmented_map_survives_rotations_and_a_crash() {
    for parity in [1u32, 2] {
        let devs = devices(5);
        let cfg = LsConfig::default().parity(parity);
        let vol = LsVolume::format(devs.clone(), cfg.clone(), T0).unwrap();
        // Half the logical zones: victims are half garbage, so an inline
        // collection always frees more than its flush pads.
        let zones = vol.geometry().num_zones() / 2;
        let sectors = u64::from(zones) * vol.geometry().zone_cap();
        for z in 0..zones {
            write_zone(&vol, z, 0);
        }
        let mut version = vec![0u64; sectors as usize];
        let mut rng = SimRng::new(0x5EC7 + u64::from(parity));
        let mut overwrite = |vol: &LsVolume, version: &mut [u64], v: u64| {
            let lba = rng.gen_range(sectors);
            vol.write(T0, lba, &pattern(lba, 1, v), WriteFlags::default())
                .unwrap();
            version[lba as usize] = v;
        };
        let mut v = 1u64;
        while vol.stats().meta_rotations < 2 {
            assert!(v < 50_000, "p{parity}: metadata log never rotated twice");
            overwrite(&vol, &mut version, v);
            v += 1;
        }
        vol.flush(T0).unwrap();
        let durable = version.clone();
        // Less than a stripe after the barrier: nothing seals, nothing is
        // collected, so nothing of it is durable.
        let before = vol.stats();
        for _ in 0..vol.stripe_data_sectors() / 2 {
            overwrite(&vol, &mut version, v);
            v += 1;
        }
        let after = vol.stats();
        assert_eq!(after.meta_records, before.meta_records, "p{parity}");
        assert_eq!(after.group_reclaims, before.group_reclaims, "p{parity}");
        drop(vol);
        for d in &devs {
            d.crash(&mut CrashPolicy::LoseCache);
        }

        let read_back = |vol: &LsVolume| {
            let mut got = vec![0u8; SECTOR_SIZE as usize];
            for (lba, &ver) in (0..).zip(&durable) {
                vol.read(T0, lba, &mut got).unwrap();
                assert!(got == pattern(lba, 1, ver), "p{parity}: lba {lba}");
            }
        };
        let vol = LsVolume::mount(devs.clone(), cfg.clone(), T0).unwrap();
        read_back(&vol);
        assert_eq!(vol.scrub(T0).unwrap().parity_errors, 0, "p{parity}");
        drop(vol);
        if parity == 2 {
            devs[0].fail();
            let vol = LsVolume::mount(devs, cfg, T0).unwrap();
            assert_eq!(vol.failed_devices(), [0]);
            read_back(&vol);
        }
    }
}

/// Every logical zone written, then random single-sector overwrites with
/// no background collector: each inline collection's victim is mostly
/// valid, and its reclaim barrier pads the open cold stripes by about as
/// much as the victim freed. Every write must come back after a bounded
/// number of collection passes — done, or refused with "out of free
/// stripe groups" once a pass nets no headroom — and a refused volume
/// still reads back every acknowledged sector and takes writes again
/// once zones are reset. The writes run on a second thread while this one
/// counts the flushes that bound the passes, so a write that never
/// returns fails the test instead of hanging it.
#[test]
fn inline_collection_on_a_full_volume_ends_in_bounded_passes() {
    /// Passes the whole run may take: it takes one (p1) or three (p2).
    const MAX_PASSES: u64 = 64;
    for parity in [1u32, 2] {
        let recorder = obs::Recorder::new(1, u64::MAX);
        let vol = LsVolume::format(devices(5), LsConfig::default().parity(parity), T0).unwrap();
        vol.set_recorder(recorder.clone());
        let zones = vol.geometry().num_zones();
        for z in 0..zones {
            write_zone(&vol, z, 0);
        }
        // Each pass ends in a reclaim barrier that records one volume
        // flush span; other flushes (metadata rotations) only add to the
        // count. Stage histograms see every event, sampled out or not, and
        // are read without the volume's lock, so the flush count bounds
        // the passes while a write is still running.
        let flushes = || recorder.stage_histogram(obs::Stage::Flush).count();
        let base = flushes();
        let sectors = u64::from(zones) * vol.geometry().zone_cap();
        let vol = Arc::new(vol);
        let writer = {
            let vol = vol.clone();
            std::thread::spawn(move || {
                let mut version = vec![0u64; sectors as usize];
                let mut rng = SimRng::new(0xF011 + u64::from(parity));
                for v in 1..=20_000u64 {
                    let lba = rng.gen_range(sectors);
                    match vol.write(T0, lba, &pattern(lba, 1, v), WriteFlags::default()) {
                        Ok(_) => version[lba as usize] = v,
                        Err(zns::ZnsError::InvalidArgument(m))
                            if m.contains("out of free stripe groups") =>
                        {
                            return (version, v);
                        }
                        Err(e) => panic!("p{parity}: overwrite {v}: {e}"),
                    }
                }
                panic!("p{parity}: never refused");
            })
        };
        // A write that never returns fails here and leaves its thread
        // looping, detached, until the test process exits.
        while !writer.is_finished() {
            let flushed = flushes() - base;
            assert!(
                flushed <= MAX_PASSES,
                "p{parity}: {flushed} flushes (inline collection passes and more) \
                 and a write has not returned"
            );
            std::thread::yield_now();
        }
        let (version, refused_at) = writer.join().unwrap();
        let passes = vol.stats().emergency_reclaims;
        assert!(passes <= MAX_PASSES, "p{parity}: {passes} passes");
        // Every pass flushed, so the bound above held the passes too.
        assert!(
            flushes() - base >= passes,
            "p{parity}: a pass flushed nothing"
        );
        let mut got = vec![0u8; SECTOR_SIZE as usize];
        for (lba, &ver) in (0..).zip(&version) {
            vol.read(T0, lba, &mut got).unwrap();
            assert!(got == pattern(lba, 1, ver), "p{parity}: lba {lba}");
        }
        // Half the zones reset: their sectors are garbage to collect.
        for z in 0..zones / 2 {
            vol.reset_zone(T0, z).unwrap();
        }
        for z in 0..zones / 2 {
            write_zone(&vol, z, refused_at);
        }
        for z in 0..zones / 2 {
            verify_zone(&vol, z, refused_at);
        }
    }
}
