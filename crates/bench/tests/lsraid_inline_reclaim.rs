//! Regression: the log-structured engine at its default 20 %
//! over-provisioning, driven by the `lsgc` overwrite pattern with a
//! background collector too weak to keep up, must reclaim inline once
//! the free pool reaches its reserve and keep every acknowledged block
//! readable.
//!
//! An inline reclaim that interrupts the collector mid-victim flushes
//! with two cold streams holding partial stripes. While summaries were
//! committed stripe by stripe from inside the pad-seal, the first
//! stream's summary could fill the metadata slot and rotate the log; the
//! rotation flushed again, and the re-entered pad-seal sliced a zero
//! source its outer frame had taken away (benchmark/README.md, "Known
//! defects" 3).

use bench::lsgc::{overwrite_offsets, BLOCK};
use lsraid::{DirectSink, GcConfig, GcManager, LsConfig, LsVolume};
use sim::SimTime;
use std::sync::Arc;
use zns::{WriteFlags, ZnsConfig, ZnsDevice, ZonedVolume, SECTOR_SIZE};

const T0: SimTime = SimTime::ZERO;
/// Sectors per overwrite: not a multiple of the 64-sector stripe, so
/// migration runs leave the cold streams mid-stripe.
const WRITE_SECTORS: u64 = 48;
/// Logical zone capacity: four overwrite slots.
const ZONE_SECTORS: u64 = 4 * WRITE_SECTORS;

fn pattern(slot: u64, version: u64) -> Vec<u8> {
    let mut buf = vec![0u8; (WRITE_SECTORS * SECTOR_SIZE) as usize];
    for (s, sector) in buf.chunks_exact_mut(SECTOR_SIZE as usize).enumerate() {
        let tag = (slot * WRITE_SECTORS + s as u64) * 131 + version * 17 + 1;
        for (i, b) in sector.iter_mut().enumerate() {
            *b = (tag as u8).wrapping_add(i as u8);
        }
    }
    buf
}

#[test]
fn inline_reclaim_at_default_op_keeps_every_block() {
    let devs: Vec<Arc<ZnsDevice>> = (0..5)
        .map(|_| {
            Arc::new(ZnsDevice::new(
                ZnsConfig::builder()
                    .zones(26, ZONE_SECTORS, ZONE_SECTORS)
                    .open_limits(8, 12)
                    .build(),
            ))
        })
        .collect();
    let vol = Arc::new(LsVolume::format(devs, LsConfig::default(), T0).unwrap());
    assert!((vol.config().op_ratio - 0.20).abs() < f64::EPSILON);
    let geo = vol.geometry();
    let slots = u64::from(geo.num_zones()) * geo.zone_cap() / WRITE_SECTORS;
    let lba_of = |slot: u64| slot * WRITE_SECTORS;

    let mut version = vec![0u64; slots as usize];
    for slot in 0..slots {
        vol.write(T0, lba_of(slot), &pattern(slot, 0), WriteFlags::default())
            .unwrap();
    }
    // A collector that always has a victim in hand but moves a handful
    // of sectors per pump: the foreground outruns it to the reserve.
    let mut gc = GcManager::new(
        vol.clone(),
        GcConfig {
            budget_sectors: 8,
            low_water: 64,
            threshold_water: 65,
            high_water: 65,
            ..GcConfig::default()
        },
    );
    let mut sink = DirectSink::new(&vol);
    // The skewed sequence of the lsgc scenario, one slot per block index,
    // long enough for reclaim-time flushes to meet metadata rotations
    // many times over.
    let offsets = overwrite_offsets(slots, 12_000, 0x6C5C_0001);
    for (i, off) in offsets.iter().enumerate() {
        let slot = off / BLOCK;
        let v = i as u64 + 1;
        vol.write(T0, lba_of(slot), &pattern(slot, v), WriteFlags::default())
            .unwrap();
        version[slot as usize] = v;
        gc.pump(T0, &mut sink).unwrap();
    }
    let st = vol.stats();
    assert!(st.emergency_reclaims > 0, "pool never reached its reserve");
    assert!(st.migrated_sectors > 0, "inline reclaim never migrated");

    let mut got = vec![0u8; (WRITE_SECTORS * SECTOR_SIZE) as usize];
    for slot in 0..slots {
        vol.read(T0, lba_of(slot), &mut got).unwrap();
        assert!(
            got == pattern(slot, version[slot as usize]),
            "slot {slot} lost version {}",
            version[slot as usize]
        );
    }
    let rep = vol.scrub(T0).unwrap();
    assert_eq!((rep.parity_errors, rep.q_errors), (0, 0));
}
