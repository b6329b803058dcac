//! The submit/complete rules of the log write path: every leg of a call
//! is issued at one instant, the stripes a call seals share one summary
//! record issued beside them, and neither a summary that outlives its
//! data nor a summary that never lands can cost flushed data.
//!
//! Metadata records are FUA writes, which the device model makes durable
//! at once, so a power-loss policy alone cannot lose one: the cases that
//! need a record gone fail its write through a [`FaultPlan`] and crash
//! right after. A failed write is one the member layer gave up on: its
//! first attempt and every retry fail.

use lsraid::{LsConfig, LsVolume};
use sim::{SimDuration, SimTime};
use std::sync::Arc;
use zns::array::TRANSIENT_RETRY_LIMIT;
use zns::{
    CrashPolicy, FaultOp, FaultPlan, LatencyConfig, WriteFlags, ZnsConfig, ZnsDevice, ZonedVolume,
    SECTOR_SIZE,
};

const T0: SimTime = SimTime::ZERO;
const DEVICES: usize = 5;
/// Data sectors per stripe at the default 16-sector unit over 4 + 1.
const STRIPE: u64 = 64;
/// The first stripe group takes the lowest free physical zone on every
/// device (zones 0 and 1 hold the metadata log).
const FIRST_GROUP_ZONE: u32 = 2;

fn config(zone_sectors: u64, latency: LatencyConfig) -> ZnsConfig {
    ZnsConfig::builder()
        .zones(16, zone_sectors, zone_sectors)
        .open_limits(8, 12)
        .latency(latency)
        .build()
}

fn devices(zone_sectors: u64) -> Vec<Arc<ZnsDevice>> {
    (0..DEVICES)
        .map(|_| {
            Arc::new(ZnsDevice::new(config(
                zone_sectors,
                LatencyConfig::instant(),
            )))
        })
        .collect()
}

fn pattern(lba: u64, sectors: u64) -> Vec<u8> {
    let mut buf = vec![0u8; (sectors * SECTOR_SIZE) as usize];
    for (s, sector) in buf.chunks_exact_mut(SECTOR_SIZE as usize).enumerate() {
        let tag = (lba + s as u64) * 31 + 1;
        for (i, b) in sector.iter_mut().enumerate() {
            *b = (tag as u8).wrapping_add(i as u8);
        }
    }
    buf
}

/// Fails write `nth` of a device, retries included, without using up the
/// member's error budget.
fn fail_write(nth: u64) -> FaultPlan {
    (nth..=nth + u64::from(TRANSIENT_RETRY_LIMIT)).fold(FaultPlan::new(1), |plan, n| {
        plan.fail_nth(FaultOp::Write, n)
    })
}

fn write(vol: &LsVolume, lba: u64, sectors: u64) -> zns::Result<SimTime> {
    vol.write(T0, lba, &pattern(lba, sectors), WriteFlags::default())
        .map(|c| c.done)
}

fn assert_reads_back(vol: &LsVolume, lba: u64, sectors: u64) {
    let mut got = vec![0u8; (sectors * SECTOR_SIZE) as usize];
    vol.read(T0, lba, &mut got).unwrap();
    assert!(
        got == pattern(lba, sectors),
        "content mismatch at lba {lba}"
    );
}

fn written(vol: &LsVolume, zone: u32) -> u64 {
    vol.zone_info(zone).unwrap().written()
}

fn crash_all(devs: &[Arc<ZnsDevice>], mut policy_for: impl FnMut(usize) -> CrashPolicy) {
    for (i, dev) in devs.iter().enumerate() {
        dev.crash(&mut policy_for(i));
    }
}

fn remount(devs: Vec<Arc<ZnsDevice>>) -> LsVolume {
    let vol = LsVolume::mount(devs, LsConfig::default(), T0).unwrap();
    let rep = vol.scrub(T0).unwrap();
    assert_eq!((rep.parity_errors, rep.q_errors), (0, 0));
    vol
}

#[test]
fn full_stripe_write_completes_within_one_and_a_half_legs() {
    let cfg = config(256, LatencyConfig::zns_ssd());
    let devs: Vec<Arc<ZnsDevice>> = (0..DEVICES)
        .map(|_| Arc::new(ZnsDevice::new(cfg.clone())))
        .collect();
    let vol = LsVolume::format(devs, LsConfig::default(), T0).unwrap();
    assert_eq!(vol.stripe_data_sectors(), STRIPE);
    // The first stripe pays for the group open; measure the second, on
    // an array that has been idle for a second.
    let opened = vol
        .write(T0, 0, &pattern(0, STRIPE), WriteFlags::default())
        .unwrap()
        .done;
    let idle = opened + SimDuration::from_millis(1000);
    let done = vol
        .write(
            idle,
            STRIPE,
            &pattern(STRIPE, STRIPE),
            WriteFlags::default(),
        )
        .unwrap()
        .done;

    let bare = ZnsDevice::new(cfg);
    let unit = vol.stripe_unit();
    let leg = bare
        .write(T0, 0, &pattern(0, unit), WriteFlags::default())
        .unwrap()
        .done
        .since(T0);
    let took = done.since(idle);
    assert!(
        took.as_nanos() * 2 <= leg.as_nanos() * 3,
        "a full stripe took {took} against {leg} for one unit: its legs are not overlapped"
    );
}

#[test]
fn one_mib_write_commits_one_summary_of_four_entries() {
    let devs = devices(256);
    let vol = LsVolume::format(devs.clone(), LsConfig::default(), T0).unwrap();
    let zone = vol.geometry().zone_cap();
    assert_eq!(zone, 4 * STRIPE);
    // Zone 0 opens the group; zone 1 is four more stripes of it.
    write(&vol, 0, zone).unwrap();
    let fua = |devs: &[Arc<ZnsDevice>]| devs.iter().map(|d| d.stats().fua_writes).sum::<u64>();
    let (records, fuas) = (vol.stats().meta_records, fua(&devs));
    write(&vol, zone, zone).unwrap();
    assert_eq!(vol.stats().meta_records, records + 1);
    assert_eq!(fua(&devs), fuas + 2, "one record, two replicas");

    // That one record carries all four stripes: with every cache kept,
    // replay restores the whole write from it.
    drop(vol);
    crash_all(&devs, |_| CrashPolicy::KeepCache);
    let vol = remount(devs);
    assert_eq!(written(&vol, 1), zone);
    assert_reads_back(&vol, zone, zone);
}

#[test]
fn durable_summary_with_a_lost_data_leg_caps_the_group_there() {
    let devs = devices(256);
    let vol = LsVolume::format(devs.clone(), LsConfig::default(), T0).unwrap();
    let zone = vol.geometry().zone_cap();
    write(&vol, 0, zone).unwrap();
    vol.flush(T0).unwrap();
    // Stripes 4..8 of the group, acknowledged but never flushed; their
    // summary is an FUA write and is durable already.
    write(&vol, zone, zone).unwrap();
    drop(vol);
    // Device 2 holds a data unit of stripes 5 and 6 (parity sits on
    // device `stripe % 5`). It keeps six stripes' worth of its zone;
    // everyone else keeps everything.
    let unit = STRIPE / 4;
    crash_all(&devs, |i| {
        if i == 2 {
            CrashPolicy::pin_zone(FIRST_GROUP_ZONE, 6 * unit)
        } else {
            CrashPolicy::KeepCache
        }
    });
    let vol = remount(devs);
    // Entries 4 and 5 are proven by every member's write pointer; entry 6
    // is not, and nothing past it may be trusted.
    assert_eq!(written(&vol, 0), zone);
    assert_reads_back(&vol, 0, zone);
    assert_eq!(written(&vol, 1), 2 * STRIPE);
    assert_reads_back(&vol, zone, 2 * STRIPE);
    // The recovered array takes the lost tail again.
    write(&vol, zone + 2 * STRIPE, 2 * STRIPE).unwrap();
    assert_reads_back(&vol, zone, zone);
}

/// Writes zone 0 and flushes it, then fails the summary batch of a
/// four-stripe write to zone 1 on the primary metadata replica (device 0
/// takes one leg per stripe first, so the record is its fifth write).
fn lose_the_batch_of_zone_one() -> (Vec<Arc<ZnsDevice>>, LsVolume, u64) {
    let devs = devices(256);
    let vol = LsVolume::format(devs.clone(), LsConfig::default(), T0).unwrap();
    let zone = vol.geometry().zone_cap();
    write(&vol, 0, zone).unwrap();
    vol.flush(T0).unwrap();
    devs[0].set_fault_plan(fail_write(5));
    let records = vol.stats().meta_records;
    assert!(
        write(&vol, zone, zone).is_err(),
        "the batch write must fail"
    );
    assert_eq!(vol.stats().meta_records, records);
    (devs, vol, zone)
}

#[test]
fn lost_batch_loses_the_unflushed_write_only() {
    let (devs, vol, zone) = lose_the_batch_of_zone_one();
    drop(vol);
    // Every data and parity leg of the write is on the devices; only the
    // record that would have named them is not.
    crash_all(&devs, |_| CrashPolicy::KeepCache);
    let vol = remount(devs);
    assert_eq!(written(&vol, 0), zone);
    assert_reads_back(&vol, 0, zone);
    assert_eq!(written(&vol, 1), 0);
}

#[test]
fn failed_batch_stays_staged_for_the_next_barrier() {
    let (devs, vol, zone) = lose_the_batch_of_zone_one();
    // The entries were not dropped with the failed write: the flush
    // commits them ahead of its barrier.
    vol.flush(T0).unwrap();
    drop(vol);
    crash_all(&devs, |_| CrashPolicy::LoseCache);
    let vol = remount(devs);
    assert_eq!(written(&vol, 1), zone);
    assert_reads_back(&vol, zone, zone);
}

/// Flushed data in zone 0, then 20 unflushed sectors that leave stripe 1
/// of the group open with its first unit — the one on device 0 — full.
/// A pad-seal of that stripe touches devices 1 to 4 only.
fn open_partial_stripe() -> (Vec<Arc<ZnsDevice>>, LsVolume) {
    let devs = devices(64);
    let vol = LsVolume::format(devs.clone(), LsConfig::default(), T0).unwrap();
    write(&vol, 0, STRIPE).unwrap();
    vol.flush(T0).unwrap();
    write(&vol, STRIPE, 20).unwrap();
    (devs, vol)
}

#[test]
fn crash_between_staging_and_commit_inside_a_rotation() {
    // Resetting an empty logical zone logs one record and touches no
    // stripe. A twin array says how many of them fill the slot.
    let (_, twin) = open_partial_stripe();
    let mut resets = 0;
    while twin.stats().meta_rotations == 0 {
        twin.reset_zone(T0, 5).unwrap();
        resets += 1;
    }
    assert_eq!(twin.stats().pad_sectors, STRIPE - 20, "the rotation pads");

    let (devs, vol) = open_partial_stripe();
    for _ in 1..resets {
        vol.reset_zone(T0, 5).unwrap();
    }
    assert_eq!(vol.stats().meta_rotations, 0);
    // The next reset rotates: pad-seal (entry staged, legs on devices 1
    // to 4), then the batch into the old slot — device 0's first write of
    // the op — which fails. Power goes before anything else happens.
    devs[0].set_fault_plan(fail_write(1));
    assert!(vol.reset_zone(T0, 5).is_err());
    assert_eq!(vol.stats().pad_sectors, STRIPE - 20);
    assert_eq!(vol.stats().meta_rotations, 0);
    drop(vol);
    crash_all(&devs, |_| CrashPolicy::KeepCache);
    let vol = remount(devs);
    assert_eq!(written(&vol, 0), STRIPE);
    assert_reads_back(&vol, 0, STRIPE);
    // The padded stripe is whole on the devices, but nothing durable
    // names it: the 20 sectors were never flushed and are gone.
    assert_eq!(written(&vol, 1), 0);
    write(&vol, STRIPE, 20).unwrap();
    assert_reads_back(&vol, STRIPE, 20);
}

/// A whole-stripe call encodes from the caller's slice and stages
/// nothing, so a leg that fails inside one leaves the stripe open with
/// its bytes in no stage: what did reach the devices has to be staged
/// before the error returns, or the writes that complete the stripe seal
/// it with parity over the wrong bytes. Fails write `nth` of device
/// `victim` inside the second stripe of a four-stripe call.
fn failed_leg_inside_a_whole_stripe_write(parity: u32, victim: usize, nth: u64) {
    let cfg = LsConfig::default().parity(parity);
    let devs = devices(1024);
    let vol = LsVolume::format(devs.clone(), cfg.clone(), T0).unwrap();
    let stripe = vol.stripe_data_sectors();
    devs[victim].set_fault_plan(fail_write(nth));
    assert!(write(&vol, 0, 4 * stripe).is_err(), "the leg must fail");
    assert_eq!(written(&vol, 0), 0);
    // The retry completes the open stripe through the stage, goes on in
    // whole stripes, and leaves a tail of its own; then a sub-stripe
    // write and the barrier's pad.
    write(&vol, 0, 4 * stripe).unwrap();
    write(&vol, 4 * stripe, 20).unwrap();
    vol.flush(T0).unwrap();
    let check = |vol: &LsVolume| {
        let rep = vol.scrub(T0).unwrap();
        assert!(rep.stripes >= 5);
        assert_eq!((rep.parity_errors, rep.q_errors), (0, 0));
        assert_reads_back(vol, 0, 4 * stripe + 20);
    };
    check(&vol);
    drop(vol);
    crash_all(&devs, |_| CrashPolicy::LoseCache);
    check(&LsVolume::mount(devs, cfg, T0).unwrap());
}

/// The third data unit of stripe 1: P (and Q) of that stripe sit on
/// device 1 (and 2), so the unit is on device 3 (4), whose only earlier
/// write is its data unit of stripe 0. The stripe is left half full.
#[test]
fn failed_data_leg_of_a_whole_stripe_write_keeps_parity_right() {
    failed_leg_inside_a_whole_stripe_write(1, 3, 2);
    failed_leg_inside_a_whole_stripe_write(2, 4, 2);
}

/// The P leg of stripe 1, device 1's third write after the group-open
/// record and its unit of stripe 0 (data at one parity, Q at two). The
/// stripe is left full and unsealed; the retry seals it first.
#[test]
fn failed_parity_leg_of_a_whole_stripe_write_keeps_parity_right() {
    failed_leg_inside_a_whole_stripe_write(1, 1, 3);
    failed_leg_inside_a_whole_stripe_write(2, 1, 3);
}
