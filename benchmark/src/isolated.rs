//! Isolated host-clock cost of each layer's kernel operations, measured on
//! bare public items at the workloads' sizes (64 KiB stripe unit). These
//! feed the per-layer ledger directly and price the *estimated* host
//! shares of the layers below the volume, which cannot be interposed.

use crate::stats::median;
use crate::workload::STRIPE_UNIT;
use qos::{QosConfig, QosScheduler, TenantSpec};
use raizn::{MdPayloadRef, MdRecordRef, RaiznConfig, RaiznLayout, StripeBuffer};
use sim::{Histogram, OccupancyModel, SimDuration, SimTime};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use workloads::{Admission, IoTarget, SharedScheduler};
use zns::{LatencyConfig, Result, WriteFlags, ZnsConfig, ZnsDevice, ZonedVolume, SECTOR_SIZE};

const UNIT_BYTES: usize = (STRIPE_UNIT * SECTOR_SIZE) as usize;
const GIB: f64 = (1u64 << 30) as f64;

/// Batches per measurement; the median batch is reported.
const BATCHES: usize = 7;
/// Target host time of one batch.
const BATCH_NS: u128 = 3_000_000;

/// Median ns per call of `f`, over [`BATCHES`] batches sized to about
/// [`BATCH_NS`] each.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t0.elapsed().as_nanos() >= BATCH_NS / 2 || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Isolated costs, in the units of the per-layer metrics they become.
#[derive(Debug, Clone, Copy, Default)]
pub struct Isolated {
    pub qos_null_target_ns_per_op: f64,
    pub stripe_fill_ns_per_stripe: f64,
    pub md_encode_ns_per_record: f64,
    pub layout_locate_ns: f64,
    pub xor_into_gib_s: f64,
    pub gf_mul_into_gib_s: f64,
    pub rs_solve_two_gib_s: f64,
    pub occupy_ns_per_call: f64,
    pub histogram_record_ns: f64,
    pub zns_write_ns_4k: f64,
    pub zns_write_ns_64k: f64,
    pub zns_read_ns_4k: f64,
    pub zns_reset_ns: f64,
    pub zns_store_write_gib_s: f64,
    pub zns_store_read_gib_s: f64,
}

/// An [`IoTarget`] that completes everything 10 µs after issue and does
/// nothing else: what is left is the scheduler's own cost.
struct NullTarget;

impl IoTarget for NullTarget {
    fn capacity_sectors(&self) -> u64 {
        1 << 30
    }
    fn read(&self, at: SimTime, _off: u64, _buf: &mut [u8]) -> Result<SimTime> {
        Ok(at + SimDuration::from_micros(10))
    }
    fn write(&self, at: SimTime, _off: u64, _data: &[u8]) -> Result<SimTime> {
        Ok(at + SimDuration::from_micros(10))
    }
    fn flush(&self, at: SimTime) -> Result<SimTime> {
        Ok(at)
    }
    fn max_io_at(&self, _off: u64) -> u64 {
        u64::MAX
    }
}

/// ns per 4 KiB write submitted to and dispatched by a one-tenant
/// scheduler over [`NullTarget`], closed loop at queue depth 8.
fn qos_null_target() -> Result<f64> {
    let sched = QosScheduler::new(
        Arc::new(NullTarget),
        QosConfig::default(),
        vec![TenantSpec::new("t")],
    )?;
    let data = vec![0u8; SECTOR_SIZE as usize];
    let mut comps = Vec::with_capacity(64);
    let (mut off, mut now, mut inflight) = (0u64, SimTime::ZERO, 0usize);
    let mut failed = None;
    let ns = ns_per_call(|| {
        while inflight < 8 {
            match sched.submit_write(0, 0, now, off, &data) {
                Ok(Admission::Admitted(_)) => {}
                Ok(Admission::Shed { .. }) => failed = Some("shed"),
                Err(_) => failed = Some("error"),
            }
            off += 1;
            inflight += 1;
        }
        comps.clear();
        if !matches!(sched.step(&mut comps), Ok(true)) {
            failed = Some("idle");
        }
        for c in &comps {
            now = now.max(c.done);
            inflight -= 1;
        }
    });
    match failed {
        // One call dispatches one op (no coalescing), so ns per call is ns
        // per op.
        None => Ok(ns),
        Some(why) => Err(zns::ZnsError::InvalidArgument(format!(
            "isolated qos loop failed: {why}"
        ))),
    }
}

fn bare_device(zones: u32, zone_sectors: u64, store_data: bool) -> ZnsDevice {
    ZnsDevice::new(
        ZnsConfig::builder()
            .zones(zones, zone_sectors, zone_sectors)
            .open_limits(14, 28)
            .latency(LatencyConfig::zns_ssd())
            .store_data(store_data)
            .build(),
    )
}

/// Median ns per command over [`BATCHES`] passes of one bare
/// accounting-only device: each pass writes every zone in `sectors`-sized
/// commands, reads 4 KiB commands back and resets every zone, timing each
/// phase on its own. Returns (write, read, reset).
fn zns_commands(sectors: u64) -> Result<(f64, f64, f64)> {
    const ZONES: u32 = 16;
    const ZONE_SECTORS: u64 = 1024;
    let dev = bare_device(ZONES, ZONE_SECTORS, false);
    let data = vec![0u8; (sectors * SECTOR_SIZE) as usize];
    let mut buf = vec![0u8; SECTOR_SIZE as usize];
    let geo = dev.geometry();
    let (mut w, mut r, mut z) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for zone in 0..ZONES {
            for off in (0..ZONE_SECTORS).step_by(sectors as usize) {
                dev.write(
                    SimTime::ZERO,
                    geo.zone_start(zone) + off,
                    &data,
                    WriteFlags::default(),
                )?;
            }
        }
        let writes = u64::from(ZONES) * ZONE_SECTORS / sectors;
        w.push(t0.elapsed().as_nanos() as f64 / writes as f64);
        let t0 = Instant::now();
        for zone in 0..ZONES {
            for off in 0..ZONE_SECTORS {
                dev.read(SimTime::ZERO, geo.zone_start(zone) + off, &mut buf)?;
            }
        }
        r.push(t0.elapsed().as_nanos() as f64 / (u64::from(ZONES) * ZONE_SECTORS) as f64);
        let t0 = Instant::now();
        for zone in 0..ZONES {
            dev.reset_zone(SimTime::ZERO, zone)?;
        }
        z.push(t0.elapsed().as_nanos() as f64 / f64::from(ZONES));
    }
    Ok((median(&w), median(&r), median(&z)))
}

/// GiB/s of 64 KiB writes and reads on a data-carrying device across
/// reset cycles: a reset frees the zone's buffer, so every pass faults its
/// pages in again. This is the cost the verify pass pays and the timed
/// repetitions (accounting-only devices) do not.
fn zns_store() -> Result<(f64, f64)> {
    const ZONES: u32 = 4;
    const ZONE_SECTORS: u64 = 4096;
    let dev = bare_device(ZONES, ZONE_SECTORS, true);
    let data = vec![0xA5u8; UNIT_BYTES];
    let mut buf = vec![0u8; UNIT_BYTES];
    let geo = dev.geometry();
    let bytes = (u64::from(ZONES) * ZONE_SECTORS * SECTOR_SIZE) as f64;
    let (mut w, mut r) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for zone in 0..ZONES {
            for off in (0..ZONE_SECTORS).step_by(STRIPE_UNIT as usize) {
                dev.write(
                    SimTime::ZERO,
                    geo.zone_start(zone) + off,
                    &data,
                    WriteFlags::default(),
                )?;
            }
        }
        w.push(bytes / GIB / t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for zone in 0..ZONES {
            for off in (0..ZONE_SECTORS).step_by(STRIPE_UNIT as usize) {
                dev.read(SimTime::ZERO, geo.zone_start(zone) + off, &mut buf)?;
            }
        }
        r.push(bytes / GIB / t0.elapsed().as_secs_f64());
        for zone in 0..ZONES {
            dev.reset_zone(SimTime::ZERO, zone)?;
        }
    }
    black_box(buf[0]);
    Ok((median(&w), median(&r)))
}

/// Measures everything; `parity` (1 or 2) shapes the stripe buffer as the
/// workload's volume does.
pub fn measure(parity: u32) -> Result<Isolated> {
    let data_units = 5 - u64::from(parity);
    let src = vec![0xA5u8; UNIT_BYTES];
    let mut dst = vec![0x5Au8; UNIT_BYTES];
    let mut dst2 = vec![0x3Cu8; UNIT_BYTES];
    let gib_s = |ns: f64| UNIT_BYTES as f64 / GIB / (ns / 1e9);

    let xor_ns = ns_per_call(|| sim::xor_into(&mut dst, black_box(&src)));
    // The multiplier's cost depends on its bits; the stripe codec scales
    // data unit k by 2^k, so one call is the mean over the workload's units.
    let mut k = 0u32;
    let gf_ns = ns_per_call(|| {
        k = (k + 1) % data_units as u32;
        sim::gf_mul_into(&mut dst, black_box(&src), sim::gf_pow(2, k));
    });
    let rs_ns = ns_per_call(|| sim::rs_solve_two(&mut dst, &mut dst2, 0, 2));
    black_box((dst[0], dst2[0]));

    let occupancy = OccupancyModel::new(8, 1, 1);
    let mut t = SimTime::ZERO;
    let occupy_ns = ns_per_call(|| {
        t = occupancy.occupy(t, SimDuration::from_nanos(29_500));
    });
    let mut hist = Histogram::new();
    let mut v = 1u64;
    let hist_ns = ns_per_call(|| {
        v = v
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        hist.record(SimDuration::from_nanos(v >> 40));
    });
    black_box((t, hist.count()));

    let stripe = vec![0x11u8; UNIT_BYTES * data_units as usize];
    let mut buffer = StripeBuffer::with_parity(0, data_units, STRIPE_UNIT, parity);
    let fill_ns = ns_per_call(|| {
        black_box(buffer.fill(black_box(&stripe)));
        buffer.recycle(1);
    });

    let payload = vec![0x22u8; SECTOR_SIZE as usize];
    let mut encoded = Vec::new();
    let mut lba = 0u64;
    let encode_ns = ns_per_call(|| {
        lba += 1;
        MdRecordRef::new(
            MdPayloadRef::PartialParity {
                first_row: lba % STRIPE_UNIT,
                data: &payload,
            },
            false,
            lba,
            lba + 1,
            7,
        )
        .encode_into(&mut encoded);
        black_box(encoded.len());
    });

    let config = RaiznConfig {
        stripe_unit_sectors: STRIPE_UNIT,
        parity,
        ..RaiznConfig::default()
    };
    let layout = RaiznLayout::new(5, config, zns::ZoneGeometry::new(64, 4096, 4096));
    let lgeo = layout.logical_geometry();
    let (zones, cap) = (u64::from(lgeo.num_zones()), lgeo.zone_cap());
    let mut i = 0u64;
    let locate_ns = ns_per_call(|| {
        i = i.wrapping_add(0x9E37_79B9);
        let lba = lgeo.zone_start((i % zones) as u32) + (i >> 8) % cap;
        black_box(layout.device_pba(layout.locate(black_box(lba))));
    });

    let (write_4k, read_4k, reset) = zns_commands(1)?;
    let (write_64k, _, _) = zns_commands(STRIPE_UNIT)?;
    let (store_write, store_read) = zns_store()?;

    Ok(Isolated {
        qos_null_target_ns_per_op: qos_null_target()?,
        stripe_fill_ns_per_stripe: fill_ns,
        md_encode_ns_per_record: encode_ns,
        layout_locate_ns: locate_ns,
        xor_into_gib_s: gib_s(xor_ns),
        gf_mul_into_gib_s: gib_s(gf_ns),
        rs_solve_two_gib_s: gib_s(rs_ns),
        occupy_ns_per_call: occupy_ns,
        histogram_record_ns: hist_ns,
        zns_write_ns_4k: write_4k,
        zns_write_ns_64k: write_64k,
        zns_read_ns_4k: read_4k,
        zns_reset_ns: reset,
        zns_store_write_gib_s: store_write,
        zns_store_read_gib_s: store_read,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_isolated_cost_is_measured() {
        let i = measure(2).unwrap();
        for v in [
            i.qos_null_target_ns_per_op,
            i.stripe_fill_ns_per_stripe,
            i.md_encode_ns_per_record,
            i.layout_locate_ns,
            i.xor_into_gib_s,
            i.gf_mul_into_gib_s,
            i.rs_solve_two_gib_s,
            i.occupy_ns_per_call,
            i.histogram_record_ns,
            i.zns_write_ns_4k,
            i.zns_write_ns_64k,
            i.zns_read_ns_4k,
            i.zns_reset_ns,
            i.zns_store_write_gib_s,
            i.zns_store_read_gib_s,
        ] {
            assert!(v.is_finite() && v > 0.0, "{i:?}");
        }
    }
}
