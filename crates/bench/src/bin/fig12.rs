//! Figure 12: time to repair (TTR) a replaced device vs the amount of
//! valid data. RAIZN rebuilds only written stripes (TTR scales with
//! data); mdraid resyncs the whole address space (constant TTR).

use bench::{conv_devices, mdraid_volume, print_table, raizn_volume, zns_devices, TimelineRun};
use ftl::BlockDevice;
use sim::SimTime;
use std::sync::Arc;
use workloads::{BlockTarget, Engine, IoTarget, JobSpec, OpKind, Pattern, ZonedTarget};
use zns::ZnsDevice;

const ZONES: u32 = 64;
const ZONE_SECTORS: u64 = 4096; // 1 GiB per device

fn fill(target: &dyn IoTarget, fraction: f64) -> bench::BenchResult<SimTime> {
    let cap = target.capacity_sectors();
    let sectors = ((cap as f64 * fraction) as u64) / ZONE_SECTORS * ZONE_SECTORS;
    if sectors == 0 {
        return Ok(SimTime::ZERO);
    }
    let job = JobSpec::new(OpKind::Write, Pattern::Sequential, 256)
        .region(0, sectors)
        .queue_depth(64);
    Ok(Engine::new(12).run(target, &[job])?.end)
}

fn main() -> bench::BenchResult {
    // Timeline capture rides on the full-data RAIZN rebuild: the rebuild
    // is volume-driven (no engine loop), so windows come from recorded
    // spans and gauges from phase-boundary samples.
    let capture = TimelineRun::new("fig12");
    let mut capture_end = SimTime::ZERO;
    let mut rows = Vec::new();
    for fraction in [0.125, 0.25, 0.5, 0.75, 1.0] {
        let flagship = fraction == 1.0;
        // RAIZN: fill, fail, rebuild.
        let raizn = if flagship {
            capture.raizn_volume(ZONES, ZONE_SECTORS, 16)?
        } else {
            raizn_volume(ZONES, ZONE_SECTORS, 16)?
        };
        let rt = ZonedTarget::new(raizn.clone());
        let t = fill(&rt, fraction)?;
        raizn.fail_device(0).unwrap();
        if flagship {
            capture.timeline().force_sample(t);
        }
        let replacement: Arc<ZnsDevice> = zns_devices(1, ZONES, ZONE_SECTORS).remove(0);
        let report = raizn.rebuild(t, replacement)?;
        if flagship {
            capture_end = t + report.duration;
        }

        // mdraid: fill, fail, resync.
        let md = mdraid_volume(ZONES as u64 * ZONE_SECTORS, 16)?;
        let mt = BlockTarget::new(md.clone());
        let t = fill(&mt, fraction)?;
        md.fail_device(0);
        let repl: Arc<dyn BlockDevice> = conv_devices(1, ZONES as u64 * ZONE_SECTORS).remove(0);
        let resync = md.resync(t, repl)?;

        rows.push(vec![
            format!("{:.0}%", fraction * 100.0),
            format!("{:.2}", report.bytes_written as f64 / (1 << 30) as f64),
            format!("{:.3}", report.duration.as_secs_f64()),
            format!("{:.2}", resync.bytes_written as f64 / (1 << 30) as f64),
            format!("{:.3}", resync.duration.as_secs_f64()),
        ]);
    }
    print_table(
        "Figure 12: time to repair a replaced device",
        &[
            "valid data",
            "rz GiB written",
            "rz TTR (s)",
            "md GiB written",
            "md TTR (s)",
        ],
        &rows,
    );

    capture.finish(capture_end)?;
    bench::write_breakdown("fig12")
}
