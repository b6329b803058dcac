//! RAIZN-2 acceptance bench: dual-parity (P+Q) write cost against the
//! paper's single-parity baseline, two-device sequential rebuild
//! throughput, and the end-to-end double-failure survival scenario.
//!
//! Emits `BENCH_raizn2.json` with:
//!
//! - `p1_write_mib_s` / `p2_write_mib_s`: virtual-time sequential
//!   full-stripe write throughput of otherwise identical parity = 1 and
//!   parity = 2 arrays (gate: dual parity keeps >= 55% of single-parity
//!   throughput — the theoretical data-share ratio is 75%, the margin
//!   absorbs the Q math and the second pp-log leg).
//! - `rebuild_mib_s`: valid-data throughput of rebuilding BOTH failed
//!   devices onto fresh replacements (gate: >= 200 MiB/s of virtual
//!   time — deterministic, so the floor is tight), with
//!   `rebuild_vs_fill` (total rebuild time over initial fill time)
//!   reported for context: the fill pipelines stripes across zones
//!   while the rebuild walks zones sequentially.
//! - double-failure scenario gates (no numeric output): byte-identical
//!   reads with any two devices failed, two-erasure decodes actually
//!   exercised, degraded writes durable, a second (different) pair
//!   failure after the rebuilds still reads byte-identical, and a final
//!   clean scrub.
//!
//! All timing is virtual (the device latency model), so the figures are
//! deterministic across hosts.

use bench::{gate, BenchError};
use raizn::{RaiznConfig, RaiznVolume};
use sim::{SimRng, SimTime};
use std::sync::Arc;
use zns::{LatencyConfig, WriteFlags, ZnsConfig, ZnsDevice, ZonedVolume, SECTOR_SIZE};

const T0: SimTime = SimTime::ZERO;
const DEVICES: usize = 5;
const ZONES: u32 = 16;
const ZONE_SECTORS: u64 = 1024;
const FILL_ZONES: u32 = 4;

fn devices(base: u32) -> Vec<Arc<ZnsDevice>> {
    (0..DEVICES)
        .map(|i| {
            let dev = Arc::new(ZnsDevice::new(
                ZnsConfig::builder()
                    .zones(ZONES, ZONE_SECTORS, ZONE_SECTORS)
                    .open_limits(14, 28)
                    .latency(LatencyConfig::zns_ssd())
                    .build(),
            ));
            dev.set_recorder(bench::recorder(), base + i as u32);
            dev
        })
        .collect()
}

fn fresh_device() -> Arc<ZnsDevice> {
    Arc::new(ZnsDevice::new(
        ZnsConfig::builder()
            .zones(ZONES, ZONE_SECTORS, ZONE_SECTORS)
            .open_limits(14, 28)
            .latency(LatencyConfig::zns_ssd())
            .build(),
    ))
}

fn volume(parity: u32, dev_base: u32) -> bench::BenchResult<Arc<RaiznVolume>> {
    let cfg = RaiznConfig {
        parity,
        ..RaiznConfig::default()
    };
    Ok(Arc::new(RaiznVolume::format(devices(dev_base), cfg, T0)?))
}

fn bytes(sectors: u64, seed: u64) -> Vec<u8> {
    let mut v = vec![0u8; (sectors * SECTOR_SIZE) as usize];
    SimRng::new(seed).fill_bytes(&mut v);
    v
}

/// Fills the first `zones` logical zones with full-stripe sequential
/// writes, returning (logical MiB written, virtual seconds, end time).
fn fill(v: &RaiznVolume, zones: u32, seed: u64) -> bench::BenchResult<(f64, f64, SimTime)> {
    let g = v.geometry();
    let stripe = v.layout().stripe_data_sectors();
    let data = bytes(stripe, seed);
    let mut end = T0;
    let mut sectors = 0u64;
    for z in 0..zones {
        let mut lba = g.zone_start(z);
        let zone_end = lba + g.zone_cap();
        while lba < zone_end {
            end = end.max(v.write(T0, lba, &data, WriteFlags::default())?.done);
            lba += stripe;
            sectors += stripe;
        }
    }
    let mib = (sectors * SECTOR_SIZE) as f64 / (1024.0 * 1024.0);
    let secs = end.since(T0).as_secs_f64();
    Ok((mib, secs, end))
}

/// Reads `sectors` from `lba` and compares against `expect`.
fn check(v: &RaiznVolume, lba: u64, expect: &[u8], what: &str) -> bench::BenchResult {
    let mut out = vec![0u8; expect.len()];
    v.read(T0, lba, &mut out)
        .map_err(|e| BenchError::Gate(format!("{what}: read failed: {e}")))?;
    gate!(out == expect, "{what}: data mismatch after reconstruction");
    Ok(())
}

fn main() -> bench::BenchResult {
    // --- Write cost: parity = 1 vs parity = 2 ---------------------------
    let v1 = volume(1, 0)?;
    let (mib1, secs1, _) = fill(&v1, FILL_ZONES, 0x11)?;
    let p1_mib_s = mib1 / secs1;
    drop(v1);

    let v2 = volume(2, 10)?;
    let (mib2, secs2, _) = fill(&v2, FILL_ZONES, 0x22)?;
    let p2_mib_s = mib2 / secs2;
    let cost_ratio = p2_mib_s / p1_mib_s;
    let s2 = v2.stats();
    gate!(
        s2.q_parity_writes > 0,
        "dual-parity fill never wrote a Q unit"
    );

    // --- Two-device rebuild throughput ----------------------------------
    // Fail two devices of the filled dual-parity array, verify a sample
    // degraded read, then rebuild both sequentially onto replacements.
    let g = v2.geometry();
    let stripe = v2.layout().stripe_data_sectors();
    let sample = {
        // First stripe of zone 1, as written by fill's per-stripe pattern.
        bytes(stripe, 0x22)
    };
    v2.fail_device(1)
        .map_err(|e| BenchError::Gate(format!("fail_device(1): {e}")))?;
    v2.fail_device(3)
        .map_err(|e| BenchError::Gate(format!("fail_device(3): {e}")))?;
    check(&v2, g.zone_start(1), &sample, "double-degraded sample read")?;
    let mut rebuild_bytes = 0u64;
    let mut rebuild_secs = 0.0f64;
    let mut zones_rebuilt = 0u32;
    for _ in 0..2 {
        let r = v2
            .rebuild(T0, fresh_device())
            .map_err(|e| BenchError::Gate(format!("rebuild failed: {e}")))?;
        rebuild_bytes += r.bytes_written;
        rebuild_secs += r.duration.as_secs_f64();
        zones_rebuilt += r.zones_rebuilt;
    }
    gate!(
        v2.failed_devices().is_empty(),
        "devices still failed after both rebuilds"
    );
    gate!(
        zones_rebuilt >= 2 * FILL_ZONES,
        "rebuilds covered {zones_rebuilt} zones, expected >= {}",
        2 * FILL_ZONES
    );
    let rebuild_mib_s = rebuild_bytes as f64 / (1024.0 * 1024.0) / rebuild_secs;
    let rebuild_vs_fill = rebuild_secs / secs2;
    let rep = v2
        .scrub(T0)
        .map_err(|e| BenchError::Gate(format!("scrub after rebuilds: {e}")))?;
    gate!(
        rep.parity_repairs == 0 && rep.units_healed == 0,
        "scrub found damage after rebuilds: {rep:?}"
    );
    drop(v2);

    // --- Double-failure survival scenario --------------------------------
    // Durable writes, fail a pair, byte-identical reads through the
    // two-erasure decode, degraded writes, both rebuilds, then a second
    // (different) pair failure and a final clean scrub.
    let v = volume(2, 20)?;
    let g = v.geometry();
    let durable = bytes(g.zone_cap(), 0x33);
    v.write(T0, 0, &durable, WriteFlags::FUA)?;
    let tail = bytes(9, 0x34); // partial stripe: stripe-buffer reads
    v.write(T0, g.zone_start(1), &tail, WriteFlags::default())?;
    v.flush(T0)?;
    v.fail_device(0)
        .map_err(|e| BenchError::Gate(format!("fail_device(0): {e}")))?;
    v.fail_device(4)
        .map_err(|e| BenchError::Gate(format!("fail_device(4): {e}")))?;
    check(&v, 0, &durable, "scenario: full zone, pair (0,4) failed")?;
    check(&v, g.zone_start(1), &tail, "scenario: partial stripe")?;
    gate!(
        v.stats().double_degraded_reads > 0,
        "scenario never exercised a two-erasure decode"
    );
    // Writes landed while double-degraded must survive the rebuilds.
    let during = bytes(g.zone_cap(), 0x35);
    v.write(T0, g.zone_start(2), &during, WriteFlags::FUA)?;
    for _ in 0..2 {
        v.rebuild(T0, fresh_device())
            .map_err(|e| BenchError::Gate(format!("scenario rebuild: {e}")))?;
    }
    v.fail_device(2)
        .map_err(|e| BenchError::Gate(format!("fail_device(2): {e}")))?;
    v.fail_device(3)
        .map_err(|e| BenchError::Gate(format!("fail_device(3): {e}")))?;
    check(&v, 0, &durable, "scenario: full zone, pair (2,3) failed")?;
    check(
        &v,
        g.zone_start(2),
        &during,
        "scenario: degraded-written zone",
    )?;

    let json = format!(
        "{{\n  \"p1_write_mib_s\": {p1_mib_s:.1},\n  \"p2_write_mib_s\": {p2_mib_s:.1},\n  \"p2_over_p1\": {cost_ratio:.3},\n  \"rebuild_mib_s\": {rebuild_mib_s:.1},\n  \"rebuild_vs_fill\": {rebuild_vs_fill:.2},\n  \"zones_rebuilt\": {zones_rebuilt},\n  \"q_parity_writes\": {}\n}}\n",
        s2.q_parity_writes
    );
    std::fs::write("BENCH_raizn2.json", &json)?;
    print!("{json}");

    gate!(
        cost_ratio >= 0.55,
        "dual-parity write throughput below budget: {cost_ratio:.3} of single parity (need >= 0.55)"
    );
    gate!(
        rebuild_mib_s >= 200.0,
        "two-device rebuild below budget: {rebuild_mib_s:.1} MiB/s (need >= 200, virtual time)"
    );

    bench::write_breakdown("raizn2")
}
