//! Crash-consistency tests: power loss at device-chosen points, partial
//! stripe writes ("stripe holes", Fig. 1), partial zone resets (§5.2),
//! FUA durability guarantees (§5.3), metadata GC interruption (§4.3) and
//! combined power + device failures (§5.1).

use raizn::{RaiznConfig, RaiznVolume};
use sim::{SimRng, SimTime};
use std::sync::Arc;
use workloads::harness::{
    keep_subsets, matrix_absent_sets, oracle, sweep, Crash, Loss, Ls, Pair, Raizn, ABSENT_PAIRS,
};
use zns::{
    CrashPolicy, LatencyConfig, WriteFlags, ZnsConfig, ZnsDevice, ZoneState, ZonedVolume,
    SECTOR_SIZE,
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

/// Crashes every device with the given policy (fresh policy per device
/// would share RNG state; a single policy is fine since it is called per
/// zone anyway).
fn crash_all(devs: &[Arc<ZnsDevice>], policy: &mut CrashPolicy) {
    for d in devs {
        d.crash(policy);
    }
}

#[test]
fn clean_shutdown_remount_preserves_data() {
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    let data = bytes(40, 1);
    v.write(T0, 0, &data, WriteFlags::default()).unwrap();
    v.flush(T0).unwrap();
    drop(v);
    crash_all(&devs, &mut CrashPolicy::LoseCache); // flushed: nothing to lose
    let v2 = RaiznVolume::mount(devs, RaiznConfig::small_test(), T0).unwrap();
    assert_eq!(v2.zone_info(0).unwrap().write_pointer, 40);
    let mut out = vec![0u8; data.len()];
    v2.read(T0, 0, &mut out).unwrap();
    assert_eq!(out, data);
}

#[test]
fn remount_continues_writing_mid_stripe() {
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    // 7 sectors = partial stripe (stripe = 16 sectors).
    let a = bytes(7, 2);
    v.write(T0, 0, &a, WriteFlags::default()).unwrap();
    v.flush(T0).unwrap();
    drop(v);
    crash_all(&devs, &mut CrashPolicy::LoseCache);
    let v2 = RaiznVolume::mount(devs, RaiznConfig::small_test(), T0).unwrap();
    assert_eq!(v2.zone_info(0).unwrap().write_pointer, 7);
    // Continue the stripe and verify everything.
    let b = bytes(9, 3);
    v2.write(T0, 7, &b, WriteFlags::default()).unwrap();
    let mut out = vec![0u8; ((7 + 9) * SECTOR_SIZE) as usize];
    v2.read(T0, 0, &mut out).unwrap();
    assert_eq!(&out[..a.len()], &a[..]);
    assert_eq!(&out[a.len()..], &b[..]);
    // The completed stripe is fault tolerant: fail a device and re-read.
    v2.fail_device(1).unwrap();
    let mut out2 = vec![0u8; out.len()];
    v2.read(T0, 0, &mut out2).unwrap();
    assert_eq!(out2, out);
}

#[test]
fn unflushed_data_may_be_lost_but_volume_stays_consistent() {
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    let data = bytes(48, 4);
    v.write(T0, 0, &data, WriteFlags::default()).unwrap();
    drop(v);
    crash_all(&devs, &mut CrashPolicy::LoseCache);
    let v2 = RaiznVolume::mount(devs, RaiznConfig::small_test(), T0).unwrap();
    // Nothing was flushed; the zone may have rolled back to any point, but
    // whatever is below the write pointer must be the original data.
    let wp = v2.zone_info(0).unwrap().write_pointer;
    if wp > 0 {
        let mut out = vec![0u8; (wp * SECTOR_SIZE) as usize];
        v2.read(T0, 0, &mut out).unwrap();
        assert_eq!(&out[..], &data[..out.len()]);
    }
}

#[test]
fn fua_write_survives_power_loss() {
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    let a = bytes(5, 5);
    v.write(T0, 0, &a, WriteFlags::default()).unwrap();
    let b = bytes(2, 6);
    v.write(T0, 5, &b, WriteFlags::FUA).unwrap();
    // Unacknowledged-as-durable tail:
    let c = bytes(3, 7);
    v.write(T0, 7, &c, WriteFlags::default()).unwrap();
    drop(v);
    crash_all(&devs, &mut CrashPolicy::LoseCache);
    let v2 = RaiznVolume::mount(devs, RaiznConfig::small_test(), T0).unwrap();
    // The FUA guarantee: sectors [0, 7) must be readable after power loss.
    let wp = v2.zone_info(0).unwrap().write_pointer;
    assert!(wp >= 7, "FUA-acknowledged data lost: wp = {wp}");
    let mut out = vec![0u8; (7 * SECTOR_SIZE) as usize];
    v2.read(T0, 0, &mut out).unwrap();
    assert_eq!(&out[..a.len()], &a[..]);
    assert_eq!(&out[a.len()..], &b[..]);
}

#[test]
fn stripe_hole_repaired_from_partial_parity() {
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    // Write 2 units + 1 sector; FUA persists data + pp logs.
    let data = bytes(9, 8);
    v.write(T0, 0, &data, WriteFlags::FUA).unwrap();
    drop(v);
    // Lose the cached data on ONE device only (the others keep all);
    // durable data survives everywhere, so this mainly exercises repair
    // when one device lags.
    devs[0].crash(&mut CrashPolicy::LoseCache);
    for d in &devs[1..] {
        d.crash(&mut CrashPolicy::KeepCache);
    }
    let v2 = RaiznVolume::mount(devs, RaiznConfig::small_test(), T0).unwrap();
    let wp = v2.zone_info(0).unwrap().write_pointer;
    assert!(wp >= 9, "FUA data lost after single-device cache loss");
    let mut out = vec![0u8; (9 * SECTOR_SIZE) as usize];
    v2.read(T0, 0, &mut out).unwrap();
    assert_eq!(&out[..], &data[..]);
}

#[test]
fn stripe_hole_rollback_and_relocation() {
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    // Build a scenario the paper's Fig. 1 describes: within one stripe,
    // a later unit persists while an earlier one is lost, and the partial
    // parity log is lost too (nothing was FUA).
    let data = bytes(16, 9); // exactly one full stripe
    v.write(T0, 0, &data, WriteFlags::default()).unwrap();
    drop(v);
    // Device holding unit 0 of stripe 0 loses its cache; everyone else
    // keeps theirs. unit0 of zone 0 lives on device (z + s + 1) % 5 = 1.
    devs[1].crash(&mut CrashPolicy::LoseCache);
    for (i, d) in devs.iter().enumerate() {
        if i != 1 {
            d.crash(&mut CrashPolicy::KeepCache);
        }
    }
    let v2 = RaiznVolume::mount(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    let wp = v2.zone_info(0).unwrap().write_pointer;
    // Either the hole was repaired from surviving parity (parity device
    // kept its cache, so the full-stripe parity may exist) or the zone
    // rolled back. Both are consistent; what is below wp must match.
    if wp > 0 {
        let mut out = vec![0u8; (wp * SECTOR_SIZE) as usize];
        v2.read(T0, 0, &mut out).unwrap();
        assert_eq!(&out[..], &data[..out.len()]);
    }
    // New writes at the write pointer must work, even onto ghost slots.
    let more = bytes(16, 10);
    v2.write(T0, wp, &more, WriteFlags::default()).unwrap();
    let mut out = vec![0u8; (16 * SECTOR_SIZE) as usize];
    v2.read(T0, wp, &mut out).unwrap();
    assert_eq!(out, more);
}

#[test]
fn forced_rollback_relocates_conflicting_writes() {
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    // Partial stripe: 2 full units (devices 1 and 2 for zone 0/stripe 0).
    let data = bytes(8, 11);
    v.write(T0, 0, &data, WriteFlags::default()).unwrap();
    drop(v);
    // Unit 0 (device 1) and the pp log (device 0 = parity of stripe 0)
    // lose their caches; unit 1 (device 2) keeps its data -> unreadable
    // ghost, forcing rollback to 0 and a conflicted slot on device 2.
    for (i, d) in devs.iter().enumerate() {
        if i == 2 {
            d.crash(&mut CrashPolicy::KeepCache);
        } else {
            d.crash(&mut CrashPolicy::LoseCache);
        }
    }
    let v2 = RaiznVolume::mount(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    let wp = v2.zone_info(0).unwrap().write_pointer;
    assert_eq!(wp, 0, "zone should have rolled back fully");
    // Rewrite the zone: the write to the ghost slot must be relocated.
    let fresh = bytes(16, 12);
    v2.write(T0, 0, &fresh, WriteFlags::default()).unwrap();
    assert!(
        v2.relocated_count() > 0,
        "expected a relocated stripe unit, stats: {:?}",
        v2.stats()
    );
    let mut out = vec![0u8; fresh.len()];
    v2.read(T0, 0, &mut out).unwrap();
    assert_eq!(out, fresh);
    // Degraded read through the relocated unit (fail a non-ghost device).
    v2.fail_device(3).unwrap();
    let mut out2 = vec![0u8; fresh.len()];
    v2.read(T0, 0, &mut out2).unwrap();
    assert_eq!(out2, fresh);
}

#[test]
fn relocated_units_survive_remount() {
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    v.write(T0, 0, &bytes(8, 13), WriteFlags::default())
        .unwrap();
    drop(v);
    for (i, d) in devs.iter().enumerate() {
        if i == 2 {
            d.crash(&mut CrashPolicy::KeepCache);
        } else {
            d.crash(&mut CrashPolicy::LoseCache);
        }
    }
    let v2 = RaiznVolume::mount(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    let fresh = bytes(16, 14);
    v2.write(T0, 0, &fresh, WriteFlags::default()).unwrap();
    assert!(v2.relocated_count() > 0);
    v2.flush(T0).unwrap();
    drop(v2);
    crash_all(&devs, &mut CrashPolicy::LoseCache);
    let v3 = RaiznVolume::mount(devs, RaiznConfig::small_test(), T0).unwrap();
    assert!(v3.relocated_count() > 0, "relocation map lost on remount");
    let mut out = vec![0u8; fresh.len()];
    v3.read(T0, 0, &mut out).unwrap();
    assert_eq!(out, fresh);
}

#[test]
fn partial_zone_reset_completed_on_mount() {
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    let data = bytes(32, 15);
    v.write(T0, 0, &data, WriteFlags::default()).unwrap();
    v.flush(T0).unwrap();
    // Reset interrupted after only 2 of 5 physical zones were reset.
    v.interrupted_reset_for_test(T0, 0, 2).unwrap();
    drop(v);
    crash_all(&devs, &mut CrashPolicy::LoseCache);
    let v2 = RaiznVolume::mount(devs, RaiznConfig::small_test(), T0).unwrap();
    // The WAL forces the remaining zones to be reset: zone 0 is empty.
    let info = v2.zone_info(0).unwrap();
    assert_eq!(info.write_pointer, 0, "partial reset not completed");
    // And writable again.
    let fresh = bytes(4, 16);
    v2.write(T0, 0, &fresh, WriteFlags::default()).unwrap();
    let mut out = vec![0u8; fresh.len()];
    v2.read(T0, 0, &mut out).unwrap();
    assert_eq!(out, fresh);
}

#[test]
fn partial_zone_finish_completed_on_mount() {
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    let data = bytes(32, 35);
    v.write(T0, 0, &data, WriteFlags::default()).unwrap();
    v.flush(T0).unwrap();
    // Background finish interrupted after only 2 of 5 physical zones
    // were sealed (no WAL exists for finishes; the sealed minority is
    // the only witness).
    v.interrupted_finish_for_test(T0, 0, 2).unwrap();
    drop(v);
    crash_all(&devs, &mut CrashPolicy::LoseCache);
    let v2 = RaiznVolume::mount(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    // Recovery rolls the finish forward: the zone is sealed, the prefix
    // intact, and no physical zone is left active under it.
    let info = v2.zone_info(0).unwrap();
    assert_eq!(info.state, ZoneState::Full, "finish not rolled forward");
    assert_eq!(info.write_pointer, 32);
    assert_eq!(v2.stats().finish_rollforwards, 1);
    let mut out = vec![0u8; data.len()];
    v2.read(T0, 0, &mut out).unwrap();
    assert_eq!(out, data);
    let phys = v2.layout().phys_zone(0);
    for d in &devs {
        assert_eq!(d.zone_info(phys).unwrap().state, ZoneState::Full);
    }
    // Sealed means sealed: the zone rejects writes until reset.
    assert!(v2
        .write(T0, 32, &bytes(1, 36), WriteFlags::default())
        .is_err());
    v2.reset_zone(T0, 0).unwrap();
    let fresh = bytes(4, 37);
    v2.write(T0, 0, &fresh, WriteFlags::default()).unwrap();
    let mut out = vec![0u8; fresh.len()];
    v2.read(T0, 0, &mut out).unwrap();
    assert_eq!(out, fresh);
}

#[test]
fn partial_finish_of_empty_zone_undone_on_mount() {
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    // A finish caught before the zone ever held data: rolling it forward
    // would seal an empty zone forever, so mount resets the sealed
    // stragglers instead and the zone stays writable.
    v.interrupted_finish_for_test(T0, 0, 3).unwrap();
    drop(v);
    crash_all(&devs, &mut CrashPolicy::LoseCache);
    let v2 = RaiznVolume::mount(devs, RaiznConfig::small_test(), T0).unwrap();
    let info = v2.zone_info(0).unwrap();
    assert_eq!(info.state, ZoneState::Empty);
    assert_eq!(v2.stats().finish_rollforwards, 0);
    let fresh = bytes(4, 38);
    v2.write(T0, 0, &fresh, WriteFlags::default()).unwrap();
    let mut out = vec![0u8; fresh.len()];
    v2.read(T0, 0, &mut out).unwrap();
    assert_eq!(out, fresh);
}

/// A zone finished at a stripe boundary below capacity: once the members
/// holding the last data unit(s) of the last stripe are gone, nothing on
/// the survivors tells a complete final stripe from an absent one (a
/// sealed zone's parity slot never witnesses completion) — only the
/// finish WAL does. It must therefore survive a remount: the mount-time
/// metadata refresh resets the zone the WAL was appended to, so it has to
/// checkpoint the record along with everything else that is live.
fn sealed_wp_survives_a_remount(config: RaiznConfig) {
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), config, T0).unwrap();
    let layout = v.layout();
    let sealed = 3 * layout.stripe_data_sectors();
    let data = bytes(sealed, 50);
    v.write(T0, 0, &data, WriteFlags::default()).unwrap();
    v.finish_zone(T0, 0).unwrap();
    v.flush(T0).unwrap();
    drop(v);
    // One healthy power cycle...
    crash_all(&devs, &mut CrashPolicy::KeepCache);
    let v = RaiznVolume::mount(devs.clone(), config, T0).unwrap();
    assert_eq!(v.zone_info(0).unwrap().write_pointer, sealed);
    drop(v);
    // ...then one that also takes as many members as parity tolerates:
    // the holders of the last stripe's last data units.
    crash_all(&devs, &mut CrashPolicy::KeepCache);
    for lost in 1..=layout.parity_units() as u64 {
        devs[layout.data_device(0, 2, layout.data_units() - lost) as usize].fail();
    }
    let v = RaiznVolume::mount(devs, config, T0).unwrap();
    let info = v.zone_info(0).unwrap();
    assert_eq!(info.state, ZoneState::Full);
    assert_eq!(info.write_pointer, sealed, "sealed write pointer lost");
    let mut out = vec![0u8; data.len()];
    v.read(T0, 0, &mut out).unwrap();
    assert_eq!(out, data);
}

#[test]
fn finish_wal_survives_remount_then_member_loss() {
    sealed_wp_survives_a_remount(RaiznConfig::small_test());
}

#[test]
fn finish_wal_survives_remount_then_double_member_loss() {
    sealed_wp_survives_a_remount(RaiznConfig::small_test_raizn2());
}

#[test]
fn completed_reset_stays_empty_on_mount() {
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    v.write(T0, 0, &bytes(16, 17), WriteFlags::default())
        .unwrap();
    v.reset_zone(T0, 0).unwrap();
    let gen_after_reset = v.generation(0);
    drop(v);
    crash_all(&devs, &mut CrashPolicy::LoseCache);
    let v2 = RaiznVolume::mount(devs, RaiznConfig::small_test(), T0).unwrap();
    assert_eq!(v2.zone_info(0).unwrap().write_pointer, 0);
    // Empty zones get their generation bumped at mount (§4.3).
    assert!(v2.generation(0) > gen_after_reset);
}

#[test]
fn stale_metadata_invalidated_by_generation() {
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    // Partial write creates pp logs for gen g.
    v.write(T0, 0, &bytes(3, 18), WriteFlags::FUA).unwrap();
    // Reset the zone (gen becomes g+1), write different data.
    v.reset_zone(T0, 0).unwrap();
    let fresh = bytes(5, 19);
    v.write(T0, 0, &fresh, WriteFlags::FUA).unwrap();
    drop(v);
    crash_all(&devs, &mut CrashPolicy::LoseCache);
    let v2 = RaiznVolume::mount(devs, RaiznConfig::small_test(), T0).unwrap();
    // The old pp logs (gen g) must not corrupt recovery of gen g+1 data.
    let mut out = vec![0u8; fresh.len()];
    v2.read(T0, 0, &mut out).unwrap();
    assert_eq!(out, fresh);
}

#[test]
fn power_plus_device_failure_recovers_via_pp_logs() {
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    // FUA partial-stripe write: data + pp logs are durable.
    let data = bytes(6, 20);
    v.write(T0, 0, &data, WriteFlags::FUA).unwrap();
    drop(v);
    crash_all(&devs, &mut CrashPolicy::LoseCache);
    // One device dies entirely (it held data unit 0 of stripe 0).
    devs[1].fail();
    let v2 = RaiznVolume::mount(devs, RaiznConfig::small_test(), T0).unwrap();
    assert!(v2.is_degraded());
    let wp = v2.zone_info(0).unwrap().write_pointer;
    assert!(
        wp >= 6,
        "acknowledged FUA data lost in degraded mount: {wp}"
    );
    let mut out = vec![0u8; data.len()];
    v2.read(T0, 0, &mut out).unwrap();
    assert_eq!(out, data, "degraded pp reconstruction produced wrong data");
}

#[test]
fn metadata_gc_interruption_preserves_metadata() {
    // Force pp-log GC by many small writes, then crash immediately and
    // remount: records from old + swap zones must merge without
    // conflicts.
    let devs = devices(3);
    let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    let g = v.geometry();
    let mut lba = 0;
    let mut z = 0;
    // Write until at least one metadata GC has happened.
    while v.stats().md_gc_runs == 0 {
        if lba >= g.zone_cap() {
            z += 1;
            lba = 0;
            assert!(z < g.num_zones(), "ran out of zones before metadata GC");
        }
        v.write(
            T0,
            g.zone_start(z) + lba,
            &bytes(1, 21 + lba),
            WriteFlags::FUA,
        )
        .unwrap();
        lba += 1;
    }
    let snapshot_wp: Vec<u64> = (0..=z)
        .map(|zz| v.zone_info(zz).unwrap().write_pointer - g.zone_start(zz))
        .collect();
    drop(v);
    crash_all(&devs, &mut CrashPolicy::LoseCache);
    let v2 = RaiznVolume::mount(devs, RaiznConfig::small_test(), T0).unwrap();
    for (zz, wp) in snapshot_wp.iter().enumerate() {
        let got = v2.zone_info(zz as u32).unwrap().write_pointer - g.zone_start(zz as u32);
        assert!(
            got >= *wp,
            "zone {zz} lost FUA data across GC + crash: {got} < {wp}"
        );
    }
}

#[test]
fn randomized_crash_storm_oracle() {
    // Randomized campaign on small_test's tight zone budget (three data
    // zones beside the metadata zones): the harness's seeded oracle —
    // random writes/appends/flushes/FUAs/resets/finishes, two random-loss
    // power cycles, the rest of each run on the recovered state (ghost
    // slots, relocations, reseeded stripe buffers) — on every engine.
    for seed in 4242..4282 {
        for parity in [1, 2] {
            let config = ZnsConfig::small_test();
            oracle(&Raizn::small(parity), &config, seed, 100, 2).unwrap_or_else(|e| panic!("{e}"));
            oracle(&Ls::small(parity), &config, seed, 100, 2).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

/// Metadata GC re-logs a zone's running partial parity from its
/// incrementally maintained checkpoint snapshot and resets the log zone
/// that held the original records, so after the GC the checkpoint record
/// is all recovery has. Zone 0 stages a partial stripe in four sub-stripe
/// writes (three incremental captures, one wrapping a unit boundary);
/// zone 5 — whose stripes rotate their parity onto the same members —
/// then appends until every parity leg's log zone of zone 0 has been
/// collected. Power loss, then a mount without the holder of the partial
/// stripe's first data unit (and, on a dual-parity array, without the P
/// holder either): the stripe must read back byte-identical.
///
/// The collection is driven from a second zone; one tripped by zone 0's
/// own append is `own_append_md_gc_keeps_earlier_parity_rows`.
fn checkpointed_partial_parity_is_what_recovery_consumes(config: RaiznConfig) {
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), config, T0).unwrap();
    let layout = v.layout();
    let stripe_data = layout.stripe_data_sectors();
    let parity = layout.parity_units();
    let mut model = Vec::new();
    for (i, sectors) in [2u64, 1, 3, 1].into_iter().enumerate() {
        let chunk = bytes(sectors, 60 + i as u64);
        let lba = model.len() as u64 / SECTOR_SIZE;
        v.write(T0, lba, &chunk, WriteFlags::default()).unwrap();
        model.extend_from_slice(&chunk);
    }
    let staged = model.len() as u64 / SECTOR_SIZE;
    assert!(staged > config.stripe_unit_sectors && staged < stripe_data);

    // Zone 5: single sectors through the stripes whose parity lives where
    // zone 0 stripe 0's does, whole stripes through the others, until the
    // pp-log zone of every parity holder has been collected once. The
    // stripe the last collection interrupts is completed, so zone 5 needs
    // no partial parity of its own at mount.
    let start = v.geometry().zone_start(5);
    let mut wp = 0u64;
    while v.stats().md_gc_runs < u64::from(parity) {
        let stripe = wp / stripe_data;
        let shared = layout.parity_device(5, stripe) == layout.parity_device(0, 0);
        let sectors = if shared { 1 } else { stripe_data };
        v.write(
            T0,
            start + wp,
            &bytes(sectors, 70 + wp),
            WriteFlags::default(),
        )
        .unwrap();
        wp += sectors;
    }
    assert_eq!(v.stats().md_gc_runs, u64::from(parity));
    let rest = wp.next_multiple_of(stripe_data) - wp;
    if rest > 0 {
        v.write(T0, start + wp, &bytes(rest, 71), WriteFlags::default())
            .unwrap();
    }
    v.flush(T0).unwrap();
    drop(v);

    crash_all(&devs, &mut CrashPolicy::LoseCache);
    devs[layout.data_device(0, 0, 0) as usize].fail();
    if parity == 2 {
        devs[layout.parity_device(0, 0) as usize].fail();
    }
    let v = RaiznVolume::mount(devs, config, T0).unwrap();
    assert_eq!(v.zone_info(0).unwrap().write_pointer, staged);
    let mut out = vec![0u8; model.len()];
    v.read(T0, 0, &mut out).unwrap();
    assert!(out == model, "partial stripe differs after degraded mount");
}

#[test]
fn md_gc_checkpoint_of_incremental_snapshot_recovers_partial_stripe() {
    checkpointed_partial_parity_is_what_recovery_consumes(RaiznConfig::small_test());
}

#[test]
fn md_gc_checkpoint_of_incremental_snapshot_recovers_partial_stripe_p2() {
    checkpointed_partial_parity_is_what_recovery_consumes(RaiznConfig::small_test_raizn2());
}

/// The pp-log append that trips metadata GC on its own parity holder runs
/// after the write pointer mirror moved: were the zone's snapshot captured
/// after the append, it would read as stale, the checkpoint would skip it,
/// and the old log zone — with every earlier row of the stripe — would be
/// reset. Flushed sectors of the partial stripe must survive a mount that
/// has to reconstruct one of its units.
#[test]
fn own_append_md_gc_keeps_earlier_parity_rows() {
    let config = RaiznConfig::small_test();
    let devs = devices(5);
    let v = RaiznVolume::format(devs.clone(), config, T0).unwrap();
    let layout = v.layout();
    let stripe_data = layout.stripe_data_sectors();
    // Small writes of drifting sizes until a collection fires at least a
    // unit into a stripe (logical zones are contiguous: size == capacity
    // here, so `wp` is also the LBA).
    let mut wp = 0u64;
    loop {
        let runs = v.stats().md_gc_runs;
        let sectors = 1 + wp % 3;
        v.write(T0, wp, &bytes(sectors, 80 + wp), WriteFlags::default())
            .unwrap();
        wp += sectors;
        if v.stats().md_gc_runs > runs && wp % stripe_data > config.stripe_unit_sectors {
            break;
        }
    }
    let zone = v.geometry().zone_of(wp);
    let stripe = (wp - v.geometry().zone_start(zone)) / stripe_data;
    v.flush(T0).unwrap();
    drop(v);
    crash_all(&devs, &mut CrashPolicy::LoseCache);
    devs[layout.data_device(zone, stripe, 0) as usize].fail();
    let v = RaiznVolume::mount(devs, config, T0).unwrap();
    let recovered = v.zone_info(zone).unwrap().write_pointer;
    assert_eq!(recovered, wp, "flushed tail lost");
}

/// A member of zone 0's first stripe, named by the slot it holds.
enum Holder {
    P,
    Unit(u64),
}

/// One decode shape a mount relies on: writes into zone 0 (sectors, FUA),
/// then a power loss in which the `lose` members lose their caches and
/// the `absent` ones are gone.
struct Shape {
    name: &'static str,
    parity: u32,
    writes: &'static [(u64, bool)],
    lose: &'static [Holder],
    absent: &'static [Holder],
}

/// One row per shape of decode from replayed parity: each crashes, mounts,
/// passes the harness's recovery check and, with its absent members
/// rebuilt, a scrub. A mount that cannot decode a row's shape rolls the
/// zone back past its durable data, or exposes a parity slot it never
/// repaired, and the row fails by name. Zone 0's first stripe holds P on
/// member 0, Q (dual parity) on member 1 and its four-sector data units
/// on the rest, in order.
#[test]
fn every_mount_decode_shape_recovers() {
    use Holder::{Unit, P};
    let shapes = [
        Shape {
            name: "P at the newest extent",
            parity: 1,
            writes: &[(6, true)],
            lose: &[],
            absent: &[Unit(0)],
        },
        Shape {
            // The newest image needs unit 1, whose rows staged past the
            // barrier died; the image at the barrier decodes unit 0's
            // durable rows.
            name: "P at an older extent",
            parity: 1,
            writes: &[(2, true), (4, false)],
            lose: &[Unit(1)],
            absent: &[Unit(0)],
        },
        Shape {
            name: "Q alone, the P holder absent",
            parity: 2,
            writes: &[(6, true)],
            lose: &[],
            absent: &[P, Unit(0)],
        },
        Shape {
            // Unit 1 holds two of the four rows decoded for unit 0.
            name: "P+Q, the second lost unit part-written",
            parity: 2,
            writes: &[(6, true)],
            lose: &[],
            absent: &[Unit(0), Unit(1)],
        },
        Shape {
            name: "short parity slot of a complete stripe, a data unit absent",
            parity: 2,
            writes: &[(12, false)],
            lose: &[P],
            absent: &[Unit(2)],
        },
    ];
    let fresh = || devices(5);
    let mut bad = Vec::new();
    for shape in &shapes {
        let config = match shape.parity {
            1 => RaiznConfig::small_test(),
            _ => RaiznConfig::small_test_raizn2(),
        };
        let target = Raizn(config);
        let row = || -> Result<(), String> {
            let mut p = Pair::format(&target, &fresh)?;
            let layout = p.vol.layout();
            let member = |h: &Holder| match *h {
                P => layout.parity_device(0, 0) as usize,
                Unit(k) => layout.data_device(0, 0, k) as usize,
            };
            for &(sectors, fua) in shape.writes {
                let flags = if fua {
                    WriteFlags::FUA
                } else {
                    WriteFlags::default()
                };
                p.write(0, sectors, flags)?;
            }
            let mut crash = Crash::uniform(shape.name, Loss::Keep, 5);
            for h in shape.lose {
                crash.policy[member(h)] = Loss::Lose;
            }
            let absent: Vec<usize> = shape.absent.iter().map(member).collect();
            p.power_cycle(&crash.without(&absent))?;
            p.rebuild_absent()
        };
        if let Err(e) = row() {
            bad.push(format!("{}: {e}", shape.name));
        }
    }
    assert_no_bad_histories(&bad, shapes.len());
}

/// Sweeps `history` on `members` fresh `zns` devices under `crashes`;
/// returns the histories run and, of each bad one, `row` and what went
/// wrong.
fn bad_histories(
    row: &str,
    (config, members, zns): (RaiznConfig, usize, &ZnsConfig),
    history: impl Fn(&mut Pair<Raizn>) -> Result<(), String>,
    crashes: Vec<Crash>,
) -> (usize, Vec<String>) {
    let fresh = || -> Vec<_> {
        (0..members)
            .map(|_| Arc::new(ZnsDevice::new(zns.clone())))
            .collect()
    };
    let history = |p: &mut Pair<Raizn>, crash: &Crash| {
        history(p)?;
        p.power_cycle(crash)
    };
    let (total, bad) = sweep(&Raizn(config), &fresh, history, |_| crashes).unwrap();
    let bad = bad.iter().map(|(c, e)| format!("{row} {}: {e}", c.point));
    (total, bad.collect())
}

/// Fails listing `bad` when any of `total` histories went wrong.
fn assert_no_bad_histories(bad: &[String], total: usize) {
    assert!(
        bad.is_empty(),
        "{} of {total} histories bad, the first:\n{}",
        bad.len(),
        bad[..bad.len().min(8)].join("\n")
    );
}

/// A recovery defect, now fixed: a zone that fills after the last flush
/// looks sealed to a mount — every surviving member whose cache held is
/// `Full` — yet members that lost their cache kept only the flushed prefix.
/// The write pointer a mount exposes must be one the survivors (plus
/// parity) can serve, whatever the line-up: `[0, f)` flushed at four flush
/// points and the rest of the zone written in one call, every subset of
/// members keeping its cache, every absent set of `matrix_absent_sets`.
/// Scrubbed when no member is absent. The last row is the fixed residual
/// (i): a near-full zone written in 5-sector writes, nothing flushed,
/// whose long rollback left more ghost slots than a metadata zone could
/// checkpoint while an empty relocation cost a whole stripe unit.
#[test]
fn filled_zone_lost_tail_exposes_only_what_it_can_serve() {
    let mut bad = Vec::new();
    let mut total = 0;
    let mut rows = Vec::new();
    for config in [RaiznConfig::small_test(), RaiznConfig::small_test_raizn2()] {
        let cap = (5 - u64::from(config.parity)) * 64;
        rows.extend([0, 6, 16, 25].map(|f| (config, f, cap, cap)));
    }
    rows.push((RaiznConfig::small_test(), 0, 251, 5));
    for (config, f, len, step) in rows {
        let row = format!(
            "p{} flushed {f} of {len} in writes of {step}",
            config.parity
        );
        let crashes = keep_subsets(5, &matrix_absent_sets(config.parity as usize));
        let (n, b) = bad_histories(
            &row,
            (config, 5, &ZnsConfig::small_test()),
            |p| {
                p.write_in(0, f, step)?;
                p.flush()?;
                p.write_in(0, len - f, step)
            },
            crashes,
        );
        total += n;
        bad.extend(b);
    }
    assert_no_bad_histories(&bad, total);
}

/// A second recovery defect, now fixed: everything was flushed, every cache is
/// lost, and a dual-parity array mounts with two members absent — on five
/// and six members, with 64- and 60-sector zone capacities, one and two
/// zones written fully or five sectors short, in writes of five sizes.
/// Every written sector must read back.
#[test]
fn dual_parity_mount_with_two_members_absent_keeps_everything_flushed() {
    let short_zones = ZnsConfig::builder()
        .zones(16, 64, 60)
        .open_limits(4, 6)
        .latency(LatencyConfig::instant())
        .build();
    let mut bad = Vec::new();
    let mut total = 0;
    for members in [5, 6] {
        for zns in [ZnsConfig::small_test(), short_zones.clone()] {
            for (zones, short) in [(1, 0), (1, 5), (2, 0), (2, 5)] {
                for step in [1, 3, 7, 16, 64] {
                    let row = format!(
                        "{members} members, capacity {}, {zones} zone(s) {short} short, \
                         writes of {step}",
                        zns.geometry().zone_cap()
                    );
                    let lose_all = Crash::uniform("", Loss::Lose, members);
                    let (n, b) = bad_histories(
                        &row,
                        (RaiznConfig::small_test_raizn2(), members, &zns),
                        |p| {
                            let written = p.vol.geometry().zone_cap() - short;
                            for zone in 0..zones {
                                p.write_in(zone, written, step)?;
                            }
                            p.flush()
                        },
                        ABSENT_PAIRS
                            .map(|pair| lose_all.clone().without(&pair))
                            .into(),
                    );
                    total += n;
                    bad.extend(b);
                }
            }
        }
    }
    assert_no_bad_histories(&bad, total);
}
