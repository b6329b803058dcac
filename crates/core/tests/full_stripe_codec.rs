//! The whole-stripe write path (one-pass encode straight from the
//! caller's payload, no staging) against the staged sub-stripe path
//! (stripe-buffer fill): the same zone contents written either way must
//! leave byte-identical slots on every member — data, P and Q — scrub
//! clean, and read back identically under every single and double
//! failure, including writes that land while members are already gone
//! (where the whole-stripe path skips the parity legs it would drop).

use raizn::{RaiznConfig, RaiznVolume};
use sim::{SimRng, SimTime};
use std::sync::Arc;
use zns::{WriteFlags, ZnsConfig, ZnsDevice, ZonedVolume, SECTOR_SIZE};

const T0: SimTime = SimTime::ZERO;
const N: usize = 5;

fn devices() -> Vec<Arc<ZnsDevice>> {
    (0..N)
        .map(|_| Arc::new(ZnsDevice::new(ZnsConfig::small_test())))
        .collect()
}

fn bytes(sectors: u64, seed: u64) -> Vec<u8> {
    let mut v = vec![0u8; (sectors * SECTOR_SIZE) as usize];
    SimRng::new(seed).fill_bytes(&mut v);
    v
}

/// Writes `data` at the start of logical zone `lzone` in chunks of
/// `chunk` sectors.
fn write_chunked(v: &RaiznVolume, lzone: u32, data: &[u8], chunk: u64) {
    let mut lba = v.geometry().zone_start(lzone);
    for c in data.chunks((chunk * SECTOR_SIZE) as usize) {
        v.write(T0, lba, c, WriteFlags::default()).unwrap();
        lba += c.len() as u64 / SECTOR_SIZE;
    }
}

fn read_zone(v: &RaiznVolume, lzone: u32, sectors: u64) -> Vec<u8> {
    let mut out = vec![0u8; (sectors * SECTOR_SIZE) as usize];
    v.read(T0, v.geometry().zone_start(lzone), &mut out)
        .unwrap();
    out
}

/// Everything member `dev` holds below its write pointer in the physical
/// zone backing logical zone `lzone`.
fn raw_slots(v: &RaiznVolume, dev: &ZnsDevice, lzone: u32) -> Vec<u8> {
    let zone = v.layout().phys_zone(lzone);
    let info = dev.zone_info(zone).unwrap();
    let mut out = vec![0u8; ((info.write_pointer - info.start) * SECTOR_SIZE) as usize];
    if !out.is_empty() {
        dev.read(T0, info.start, &mut out).unwrap();
    }
    out
}

fn assert_scrub_clean(v: &RaiznVolume, what: &str) {
    let rep = v.scrub(T0).unwrap();
    assert!(rep.stripes_checked > 0, "{what}: nothing scrubbed");
    assert_eq!(
        (rep.parity_repairs, rep.units_healed),
        (0, 0),
        "{what}: scrub found work: {rep:?}"
    );
}

/// A volume and handles on its members.
struct Array {
    vol: RaiznVolume,
    devs: Vec<Arc<ZnsDevice>>,
}

impl Array {
    fn format(config: RaiznConfig) -> Array {
        let devs = devices();
        let vol = RaiznVolume::format(devs.clone(), config, T0).unwrap();
        Array { vol, devs }
    }
}

/// Two arrays holding the same zone of data, one written a whole stripe
/// per call and one in sub-stripe chunks that never cover a stripe.
fn twin_arrays(config: RaiznConfig, seed: u64) -> (Array, Array, Vec<u8>) {
    let (whole, chunked) = (Array::format(config), Array::format(config));
    let cap = whole.vol.geometry().zone_cap();
    let stripe = whole.vol.layout().stripe_data_sectors();
    let data = bytes(cap, seed);
    write_chunked(&whole.vol, 0, &data, stripe);
    // 3 sectors divides neither the unit (4) nor the stripe (12 or 16):
    // chunks straddle unit and stripe boundaries.
    write_chunked(&chunked.vol, 0, &data, 3);
    (whole, chunked, data)
}

#[test]
fn whole_stripe_and_chunked_writes_leave_identical_slots() {
    for (config, name) in [
        (RaiznConfig::small_test(), "p1"),
        (RaiznConfig::small_test_raizn2(), "p2"),
    ] {
        let (whole, chunked, data) = twin_arrays(config, 0xC0DEC);
        let cap = whole.vol.geometry().zone_cap();
        // The two paths really were different paths.
        let (ws, cs) = (whole.vol.stats(), chunked.vol.stats());
        assert_eq!(ws.pp_log_entries, 0, "{name}: whole staged");
        assert!(cs.pp_log_entries > 0, "{name}: chunked not staged");
        assert_eq!(ws.full_parity_writes, cs.full_parity_writes);
        for dev in 0..N {
            assert_eq!(
                raw_slots(&whole.vol, &whole.devs[dev], 0),
                raw_slots(&chunked.vol, &chunked.devs[dev], 0),
                "{name}: member {dev} differs between whole-stripe and chunked writes"
            );
        }
        assert_eq!(read_zone(&whole.vol, 0, cap), data);
        assert_eq!(read_zone(&chunked.vol, 0, cap), data);
        assert_scrub_clean(&whole.vol, name);
        assert_scrub_clean(&chunked.vol, name);
    }
}

#[test]
fn reads_agree_under_every_single_and_double_failure() {
    for parity in [1u32, 2] {
        let config = if parity == 2 {
            RaiznConfig::small_test_raizn2()
        } else {
            RaiznConfig::small_test()
        };
        // Failure sets: every single member, and every pair when Q exists.
        let mut sets: Vec<Vec<usize>> = (0..N).map(|a| vec![a]).collect();
        if parity == 2 {
            for a in 0..N {
                for b in a + 1..N {
                    sets.push(vec![a, b]);
                }
            }
        }
        for set in sets {
            let (whole, chunked, data) = twin_arrays(config, 0xFA11);
            let cap = whole.vol.geometry().zone_cap();
            for array in [&whole, &chunked] {
                for &d in &set {
                    array.vol.fail_device(d).unwrap();
                }
            }
            assert_eq!(read_zone(&whole.vol, 0, cap), data, "whole, {set:?}");
            assert_eq!(read_zone(&chunked.vol, 0, cap), data, "chunked, {set:?}");
        }
    }
}

/// Whole-stripe writes issued while members are gone skip the parity legs
/// those members would have held. What is left must still decode, and
/// rebuilding the members must restore exactly the slots a healthy array
/// holds.
#[test]
fn degraded_whole_stripe_writes_rebuild_to_the_healthy_image() {
    let config = RaiznConfig::small_test_raizn2();
    for a in 0..N {
        for b in a + 1..N {
            let (healthy, degraded) = (Array::format(config), Array::format(config).vol);
            let cap = degraded.geometry().zone_cap();
            let stripe = degraded.layout().stripe_data_sectors();
            let data = bytes(cap, 0xDE6 + (a * N + b) as u64);
            write_chunked(&healthy.vol, 0, &data, stripe);
            degraded.fail_device(a).unwrap();
            degraded.fail_device(b).unwrap();
            write_chunked(&degraded, 0, &data, stripe);
            assert_eq!(read_zone(&degraded, 0, cap), data, "failed ({a},{b})");

            for lost in [a, b] {
                let fresh = Arc::new(ZnsDevice::new(ZnsConfig::small_test()));
                degraded.rebuild(T0, fresh.clone()).unwrap();
                assert_eq!(
                    raw_slots(&degraded, &fresh, 0),
                    raw_slots(&healthy.vol, &healthy.devs[lost], 0),
                    "rebuilt member {lost} (pair ({a},{b}))"
                );
            }
            assert_eq!(read_zone(&degraded, 0, cap), data);
            assert_scrub_clean(&degraded, "after double rebuild");
        }
    }
}
