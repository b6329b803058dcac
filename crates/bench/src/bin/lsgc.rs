//! Sustained random-overwrite GC pressure: log-structured RAID vs
//! mdraid-5 (new scenario; complements fig-10's fresh-device overwrite).
//!
//! Both targets are prefilled to 100% of their logical capacity, then
//! take the identical skewed random-overwrite sequence (90% of 1 MiB
//! writes into the first 10% of the space) for several times the
//! array's spare capacity. The log-structured engine rides its
//! background collector — an internal weight-1 tenant on the same QoS
//! scheduler as the foreground — and must hold a flat throughput band
//! with bounded write amplification. The mdraid baseline on conventional
//! SSDs declines as device FTL GC sets in.
//!
//! Artifacts: `BENCH_lsgc.json` (summary, `kind: "lsgc"`), one timeline
//! per target, and the span-blame/breakdown pair (`report --explain`
//! bounds the GC interference share from the spans artifact).
//!
//! Gates (all hard): measured-phase WAF at most
//! [`WAF_MAX`], at least one background reclaim, emergency reclaims at
//! most a quarter of all reclaims, lsraid band ratio at least
//! [`FLAT_MIN`], mdraid cliff below [`DECLINE_MAX`], and the lsraid
//! band must beat the mdraid cliff.

use bench::lifecycle::{cliff_ratio, flat_ratio, median_active};
use bench::lsgc::{
    gc_config, lsgc_json, lsgc_scheduler, overwrite_offsets, phase_waf, LsOutcome, MdOutcome,
    QosGcSink, AGE_OPS, APP_TENANT, BAND_WINDOW, BLOCK, OVERWRITE_OPS, PUMP_OPS, WAF_MAX, ZONES,
    ZONE_SECTORS,
};
use bench::{drive, gate, lsraid_volume, mdraid_volume, BenchError, TimelineRun};
use lsraid::{GcManager, LsConfig};
use qos::QosScheduler;
use sim::SimTime;
use std::sync::Arc;
use workloads::{BlockTarget, ZonedTarget};
use zns::{ZonedVolume, SECTOR_SIZE};

/// Minimum min/max band ratio for the log-structured run.
const FLAT_MIN: f64 = 0.8;
/// Maximum trough/peak ratio for the mdraid baseline (it must decline).
const DECLINE_MAX: f64 = 0.9;
/// Offset-sequence seed (fixed: artifacts are bit-identical across runs).
const SEED: u64 = 0x6C5C_0001;

fn main() -> bench::BenchResult {
    // ------------------------------------------------------------------
    // Log-structured engine under GC pressure.
    // ------------------------------------------------------------------
    let run = TimelineRun::new("lsgc_lsraid");
    let vol = lsraid_volume(&run.recorder(), ZONES, ZONE_SECTORS, LsConfig::default())?;
    let geo = vol.geometry();
    let total_sectors = u64::from(geo.num_zones()) * geo.zone_cap();
    let total_blocks = total_sectors / BLOCK;
    let sched = lsgc_scheduler(&run, Arc::new(ZonedTarget::overwriting(vol.clone())))?;
    let block = vec![0x5Au8; (BLOCK * SECTOR_SIZE) as usize];
    let offsets = overwrite_offsets(total_blocks, OVERWRITE_OPS, SEED);

    println!(
        "lsgc: {} logical blocks of {} sectors, {} overwrite ops",
        total_blocks, BLOCK, OVERWRITE_OPS
    );

    // Prefill the full logical space sequentially, then age the engine
    // with the same overwrite pattern (collector live) until the
    // garbage distribution reaches steady state. Both phases are
    // unmeasured; the capture is scoped to the sustained phase after.
    let prefill: Vec<u64> = (0..total_blocks).map(|b| b * BLOCK).collect();
    // Every phase on either target writes the app tenant's blocks into
    // band windows; only the GC pump after each op differs.
    type AfterOp<'a> = &'a mut dyn FnMut(u64, SimTime) -> bench::BenchResult;
    let app = |sched: &QosScheduler, start, offsets: &[u64], after_op: AfterOp| {
        drive(
            sched,
            APP_TENANT,
            start,
            offsets,
            &block,
            BAND_WINDOW,
            after_op,
        )
    };
    let (_, t) = app(&sched, SimTime::ZERO, &prefill, &mut |_, _| Ok(()))?;
    let t = vol.flush(t)?.done;
    let mut mgr = GcManager::new(vol.clone(), gc_config());
    let mut sink = QosGcSink::new(&sched);
    let mut pump_gc = |i: u64, now| -> bench::BenchResult {
        if (i + 1).is_multiple_of(PUMP_OPS) {
            mgr.pump(now, &mut sink)?;
        }
        Ok(())
    };
    let aging = overwrite_offsets(total_blocks, AGE_OPS, SEED ^ 0xA6E);
    let (_, t) = app(&sched, t, &aging, &mut pump_gc)?;
    run.reset_capture();

    let pre = vol.stats();
    let (ls_windows, ls_end) = app(&sched, t, &offsets, &mut pump_gc)?;
    let post = vol.stats();

    let waf = phase_waf(&pre, &post);
    gate!(
        waf <= WAF_MAX,
        "measured-phase WAF {waf:.3} exceeds {WAF_MAX}"
    );
    let reclaims = post.group_reclaims - pre.group_reclaims;
    let emergency = post.emergency_reclaims - pre.emergency_reclaims;
    gate!(reclaims > 0, "background GC never reclaimed a group");
    gate!(
        emergency * 4 <= reclaims,
        "emergency reclaims dominate ({emergency} of {reclaims}): GC cannot keep up"
    );
    let ls = LsOutcome {
        windows_mib_s: ls_windows,
        end: ls_end,
        waf,
        stats: post,
        reclaims,
        emergency,
        migrated: post.migrated_sectors - pre.migrated_sectors,
        tenants: sched.stats(),
    };
    let ls_flat = flat_ratio(&ls.windows_mib_s)
        .ok_or_else(|| BenchError::Gate("lsraid run produced no active windows".into()))?;
    gate!(
        ls_flat >= FLAT_MIN,
        "lsraid band ratio {ls_flat:.3} under sustained overwrite (need >= {FLAT_MIN})"
    );
    bench::write_spans("lsgc", &run.recorder())?;
    run.finish()?;

    // ------------------------------------------------------------------
    // mdraid-5 baseline: identical op sequence, conventional SSDs.
    // ------------------------------------------------------------------
    let md_run = TimelineRun::new("lsgc_mdraid");
    // Match the log-structured logical capacity (4 data devices).
    let md = mdraid_volume(&md_run.recorder(), total_sectors / 4, 16)?;
    let md_sched = lsgc_scheduler(&md_run, Arc::new(BlockTarget::new(md)))?;
    let (_, mt) = app(&md_sched, SimTime::ZERO, &prefill, &mut |_, _| Ok(()))?;
    md_run.reset_capture();
    let (md_windows, md_end) = app(&md_sched, mt, &offsets, &mut |_, _| Ok(()))?;
    let md = MdOutcome {
        windows_mib_s: md_windows,
        end: md_end,
        tenants: md_sched.stats(),
    };
    let md_cliff = cliff_ratio(&md.windows_mib_s)
        .ok_or_else(|| BenchError::Gate("mdraid run produced no active windows".into()))?;
    gate!(
        md_cliff <= DECLINE_MAX,
        "mdraid baseline did not decline (cliff {md_cliff:.3}); the scenario lost its contrast"
    );
    gate!(
        ls_flat > md_cliff,
        "lsraid band ({ls_flat:.3}) does not beat the mdraid cliff ({md_cliff:.3})"
    );
    md_run.finish()?;

    bench::print_table(
        "Sustained skewed overwrite (median MiB/s, band ratio)",
        &["system", "MiB/s", "band", "WAF"],
        &[
            vec![
                "lsraid".into(),
                format!("{:.0}", median_active(&ls.windows_mib_s)),
                format!("{ls_flat:.3}"),
                format!("{waf:.3}"),
            ],
            vec![
                "mdraid".into(),
                format!("{:.0}", median_active(&md.windows_mib_s)),
                format!("{md_cliff:.3}"),
                "1.000".into(),
            ],
        ],
    );
    println!(
        "\nlsraid: {reclaims} reclaims ({emergency} emergency), {} sectors migrated, WAF {waf:.3}",
        ls.migrated
    );

    std::fs::write("BENCH_lsgc.json", lsgc_json(&ls, ls_flat, &md, md_cliff))?;
    println!("summary -> BENCH_lsgc.json");
    bench::write_breakdown("lsgc")
}
