//! Figure 12: time to repair (TTR) a replaced device vs the amount of
//! valid data. RAIZN rebuilds only written stripes (TTR scales with
//! data); mdraid resyncs the whole address space (constant TTR). The
//! log-structured engine fills the same share of its capacity, then
//! overwrites the first half of it again before the failure: its rebuild
//! walks the live groups of its map, reclaims the dead ones instead of
//! copying them, and so scales with valid data, not with what was written.

use bench::{
    conv_devices, lsraid_volume, mdraid_volume, print_table, raizn_volume, zns_devices, TimelineRun,
};
use ftl::BlockDevice;
use lsraid::LsConfig;
use sim::SimTime;
use std::sync::Arc;
use workloads::{BlockTarget, Engine, IoTarget, JobSpec, OpKind, Pattern, ZonedTarget};
use zns::ZnsDevice;

const ZONES: u32 = 64;
const ZONE_SECTORS: u64 = 4096; // 1 GiB per device

/// Writes the first `fraction` of `target` sequentially from `at`, in
/// whole zones; returns the end time and the sectors written.
fn fill_from(
    target: &dyn IoTarget,
    fraction: f64,
    at: SimTime,
) -> bench::BenchResult<(SimTime, u64)> {
    let cap = target.capacity_sectors();
    let sectors = ((cap as f64 * fraction) as u64) / ZONE_SECTORS * ZONE_SECTORS;
    if sectors == 0 {
        return Ok((at, 0));
    }
    let job = JobSpec::new(OpKind::Write, Pattern::Sequential, 256)
        .region(0, sectors)
        .queue_depth(64);
    Ok((
        Engine::new(12).start_at(at).run(target, &[job])?.end,
        sectors,
    ))
}

fn fill(target: &dyn IoTarget, fraction: f64) -> bench::BenchResult<SimTime> {
    Ok(fill_from(target, fraction, SimTime::ZERO)?.0)
}

fn main() -> bench::BenchResult {
    // Timeline capture rides on the full-data RAIZN rebuild: the rebuild
    // is volume-driven (no engine loop), so windows come from recorded
    // spans.
    let capture = TimelineRun::new("fig12");
    let ls_capture = TimelineRun::new("fig12_lsraid");
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
        let replacement: Arc<ZnsDevice> = zns_devices(1, ZONES, ZONE_SECTORS).remove(0);
        let report = raizn.rebuild(t, replacement)?;

        // mdraid: fill, fail, resync.
        let md = mdraid_volume(ZONES as u64 * ZONE_SECTORS, 16)?;
        let mt = BlockTarget::new(md.clone());
        let t = fill(&mt, fraction)?;
        md.fail_device(0);
        let repl: Arc<dyn BlockDevice> = conv_devices(1, ZONES as u64 * ZONE_SECTORS).remove(0);
        let resync = md.resync(t, repl)?;

        // lsraid: fill, overwrite the first half of the fill (its old
        // groups die), fail, rebuild. The full-data run's timeline covers
        // the rebuild alone.
        let ls = if flagship {
            ls_capture.lsraid_volume(ZONES, ZONE_SECTORS, LsConfig::default())?
        } else {
            lsraid_volume(ZONES, ZONE_SECTORS, LsConfig::default())?
        };
        let lt = ZonedTarget::new(ls.clone());
        let (t, _) = fill_from(&lt, fraction, SimTime::ZERO)?;
        let (t, _) = fill_from(&lt, fraction / 2.0, t)?;
        ls.fail_device(0)?;
        if flagship {
            ls_capture.reset_capture();
        }
        let reclaims = ls.stats().group_reclaims;
        let replacement: Arc<ZnsDevice> = zns_devices(1, ZONES, ZONE_SECTORS).remove(0);
        let ls_report = ls.rebuild(t, replacement)?;
        let dead = ls.stats().group_reclaims - reclaims;

        let gib = |bytes: u64| format!("{:.2}", bytes as f64 / (1 << 30) as f64);
        rows.push(vec![
            format!("{:.0}%", fraction * 100.0),
            gib(report.bytes_written),
            format!("{:.3}", report.duration.as_secs_f64()),
            gib(resync.bytes_written),
            format!("{:.3}", resync.duration.as_secs_f64()),
            gib(ls_report.bytes_written),
            format!("{:.3}", ls_report.duration.as_secs_f64()),
            format!("{dead}"),
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
            "ls GiB written",
            "ls TTR (s)",
            "ls dead groups reclaimed",
        ],
        &rows,
    );

    capture.finish()?;
    ls_capture.finish()?;
    bench::write_breakdown("fig12")
}
