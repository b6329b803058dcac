//! Deterministic crash-point sweep: a scripted workload (partial
//! stripes, FUA, flush, zone reset, zone finish) is crashed at *every*
//! possible surviving write pointer of every device zone, one point at a
//! time, and recovery invariants are asserted for each point:
//!
//! - the volume mounts;
//! - every zone's recovered write pointer lies in `[durable, written]`;
//! - everything below the recovered write pointer reads back as the
//!   written prefix;
//! - a scrub pass finds no parity mismatch (no stripe holes survive);
//! - a second, loss-free power cycle that also takes any one member
//!   mounts degraded to the same write pointers and the same data (the
//!   first mount rewrote the metadata log; whatever it did not carry over
//!   is missing exactly when a member's absence makes it the only
//!   witness).

use raizn::{RaiznConfig, RaiznVolume};
use sim::{SimRng, SimTime};
use std::sync::Arc;
use zns::{CrashPolicy, WriteFlags, ZnsConfig, ZnsDevice, ZonedVolume, SECTOR_SIZE};

const T0: SimTime = SimTime::ZERO;
const DEVICES: usize = 5;

fn devices() -> Vec<Arc<ZnsDevice>> {
    (0..DEVICES)
        .map(|_| Arc::new(ZnsDevice::new(ZnsConfig::small_test())))
        .collect()
}

fn bytes(sectors: u64, seed: u64) -> Vec<u8> {
    let mut v = vec![0u8; (sectors * SECTOR_SIZE) as usize];
    SimRng::new(seed).fill_bytes(&mut v);
    v
}

/// Expected post-workload state of one logical zone.
struct ZoneModel {
    /// Everything written since the last reset, in order.
    data: Vec<u8>,
    /// Sectors acknowledged as durable (flush / FUA).
    durable: u64,
}

impl ZoneModel {
    fn written(&self) -> u64 {
        self.data.len() as u64 / SECTOR_SIZE
    }
}

/// The scripted workload: five zones exercising stripe buffers, partial
/// parity, FUA barriers, a logged zone reset, and zone finish (mid-stripe
/// and at a stripe boundary). Stays within the device's 6-active-zone
/// budget (2 metadata + 4 data; zone 4 opens after zone 3 is sealed).
fn run_workload(v: &RaiznVolume) -> Vec<ZoneModel> {
    let lgeo = v.layout().logical_geometry();
    let z = |zone: u32| lgeo.zone_start(zone);

    // `flush` is volume-global, so the durable phase comes first and the
    // cached (crash-vulnerable) tails are written after the last flush.
    let a0 = bytes(24, 0xA0);
    let a1 = bytes(20, 0xA1);
    let b0 = bytes(16, 0xB0);
    let b1 = bytes(11, 0xB1);
    let c0 = bytes(5, 0xC0);
    let c1 = bytes(2, 0xC1);
    let c2 = bytes(6, 0xC2);
    let d0 = bytes(8, 0xD0);
    let d1 = bytes(10, 0xD1);
    let e0 = bytes(32, 0xE0);

    // Durable phase.
    v.write(T0, z(0), &a0, WriteFlags::default()).unwrap();
    v.write(T0, z(1), &b0, WriteFlags::FUA).unwrap();
    v.write(T0, z(2), &c0, WriteFlags::default()).unwrap();
    v.write(T0, z(2) + 5, &c1, WriteFlags::FUA).unwrap();
    v.write(T0, z(3), &d0, WriteFlags::default()).unwrap();
    v.flush(T0).unwrap();
    // Zone 3: logged reset, rewrite, finish (sealed durable).
    v.reset_zone(T0, 3).unwrap();
    v.write(T0, z(3), &d1, WriteFlags::default()).unwrap();
    v.flush(T0).unwrap();
    v.finish_zone(T0, 3).unwrap();
    // Zone 4: sealed durable at a stripe boundary, where no surviving
    // slot can tell a complete last stripe from an absent one.
    v.write(T0, z(4), &e0, WriteFlags::default()).unwrap();
    v.flush(T0).unwrap();
    v.finish_zone(T0, 4).unwrap();

    // Cached tails: partial stripes (and one cached stripe completion
    // with its parity write) whose fate the crash point decides.
    v.write(T0, z(0) + 24, &a1, WriteFlags::default()).unwrap();
    v.write(T0, z(1) + 16, &b1, WriteFlags::default()).unwrap();
    v.write(T0, z(2) + 7, &c2, WriteFlags::default()).unwrap();

    vec![
        ZoneModel {
            data: [a0, a1].concat(),
            durable: 24,
        },
        ZoneModel {
            data: [b0, b1].concat(),
            durable: 16,
        },
        ZoneModel {
            data: [c0, c1, c2].concat(),
            durable: 7,
        },
        ZoneModel {
            data: d1,
            durable: 10,
        },
        ZoneModel {
            data: e0,
            durable: 32,
        },
    ]
}

/// Asserts the recovery invariants for every modelled zone, then scrubs.
fn verify(v: &RaiznVolume, models: &[ZoneModel], point: &str) {
    let lgeo = v.layout().logical_geometry();
    for (zi, m) in models.iter().enumerate() {
        let info = v.zone_info(zi as u32).unwrap();
        let wp = info.write_pointer - info.start;
        assert!(
            wp >= m.durable,
            "{point}: zone {zi} lost durable data (wp {wp} < durable {})",
            m.durable
        );
        assert!(
            wp <= m.written(),
            "{point}: zone {zi} invented data (wp {wp} > written {})",
            m.written()
        );
        if wp > 0 {
            let mut out = vec![0u8; (wp * SECTOR_SIZE) as usize];
            v.read(T0, lgeo.zone_start(zi as u32), &mut out)
                .unwrap_or_else(|e| panic!("{point}: zone {zi} read failed: {e}"));
            assert!(
                out[..] == m.data[..out.len()],
                "{point}: zone {zi} recovered data is not the written prefix (wp {wp})"
            );
        }
    }
    let rep = v
        .scrub(T0)
        .unwrap_or_else(|e| panic!("{point}: scrub failed: {e}"));
    assert!(
        rep.parity_repairs == 0 && rep.units_healed == 0,
        "{point}: scrub found damage after recovery: {rep:?}"
    );
}

/// The degraded axis, run on a volume `verify` just accepted: power-cycle
/// again losing nothing but member `lost`, and the degraded mount must
/// report what the healthy one did.
fn verify_after_member_loss(
    v: RaiznVolume,
    devs: &[Arc<ZnsDevice>],
    models: &[ZoneModel],
    lost: usize,
    point: &str,
) {
    let lgeo = v.layout().logical_geometry();
    let healthy: Vec<u64> = (0..models.len() as u32)
        .map(|zi| v.zone_info(zi).unwrap().write_pointer)
        .collect();
    drop(v);
    for dev in devs {
        dev.crash(&mut CrashPolicy::KeepCache);
    }
    devs[lost].fail();
    let v = RaiznVolume::mount(devs.to_vec(), RaiznConfig::small_test(), T0)
        .unwrap_or_else(|e| panic!("{point}: mount without member {lost} failed: {e}"));
    for (zi, m) in models.iter().enumerate() {
        let start = lgeo.zone_start(zi as u32);
        let wp = v.zone_info(zi as u32).unwrap().write_pointer;
        assert_eq!(
            wp, healthy[zi],
            "{point}: zone {zi} write pointer moved without member {lost}"
        );
        let mut out = vec![0u8; ((wp - start) * SECTOR_SIZE) as usize];
        if !out.is_empty() {
            v.read(T0, start, &mut out).unwrap_or_else(|e| {
                panic!("{point}: zone {zi} read without member {lost} failed: {e}")
            });
        }
        assert!(
            out[..] == m.data[..out.len()],
            "{point}: zone {zi} reads differently without member {lost}"
        );
    }
}

/// Every crash point of the scripted workload: for each device and each
/// of its zones, every surviving write pointer in `[durable, wp)` (the
/// `wp` endpoint is the no-loss case, covered by the KeepCache run).
#[test]
fn every_crash_point_recovers() {
    // Baseline run (no crash): snapshot each device's per-zone durable
    // and volatile write pointers to enumerate the crash points.
    let base_devs = devices();
    let v = RaiznVolume::format(base_devs.clone(), RaiznConfig::small_test(), T0).unwrap();
    let models = run_workload(&v);
    verify(&v, &models, "baseline");
    drop(v);
    let num_zones = base_devs[0].geometry().num_zones();
    let mut points: Vec<(usize, u32, u64)> = Vec::new();
    for (d, dev) in base_devs.iter().enumerate() {
        for zone in 0..num_zones {
            let durable = dev.durable_wp(zone);
            let info = dev.zone_info(zone).unwrap();
            let wp = info.write_pointer - info.start;
            for s in durable..wp {
                points.push((d, zone, s));
            }
        }
    }
    assert!(
        points.len() > 50,
        "workload exposes too few crash points ({})",
        points.len()
    );

    // The two global extremes, then every single-zone pin point.
    for lose in [false, true] {
        let devs = devices();
        let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
        let models = run_workload(&v);
        drop(v);
        for dev in &devs {
            let mut p = if lose {
                CrashPolicy::LoseCache
            } else {
                CrashPolicy::KeepCache
            };
            dev.crash(&mut p);
        }
        let v = RaiznVolume::mount(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
        let point = if lose { "lose-cache" } else { "keep-cache" };
        verify(&v, &models, point);
        verify_after_member_loss(v, &devs, &models, 4, point);
    }

    for (i, (d, zone, s)) in points.into_iter().enumerate() {
        let point = format!("dev {d} zone {zone} survivor {s}");
        let devs = devices();
        let v = RaiznVolume::format(devs.clone(), RaiznConfig::small_test(), T0).unwrap();
        let models = run_workload(&v);
        drop(v);
        for (i, dev) in devs.iter().enumerate() {
            let mut p = if i == d {
                CrashPolicy::pin_zone(zone, s)
            } else {
                CrashPolicy::KeepCache
            };
            dev.crash(&mut p);
        }
        let v = RaiznVolume::mount(devs.clone(), RaiznConfig::small_test(), T0)
            .unwrap_or_else(|e| panic!("{point}: mount failed: {e}"));
        verify(&v, &models, &point);
        verify_after_member_loss(v, &devs, &models, i % DEVICES, &point);
    }
}
