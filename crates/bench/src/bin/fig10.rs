//! Figure 10: full-device overwrite timeseries. Phase 1: five threads
//! concurrently fill the array (20% regions each). Phase 2: one thread
//! sequentially overwrites the whole address space. mdraid collapses when
//! the conventional SSDs exhaust spare blocks and garbage-collect; RAIZN
//! stays flat because ZNS devices have no device-side GC. The
//! log-structured engine fills at RAIZN's rate (gated: at least
//! [`LS_FILL_MIN`] of it) but pays RAID-level GC in the overwrite phase:
//! the five fill jobs interleave their regions inside every stripe
//! group, so an LBA-sequential overwrite rots all groups evenly and the
//! inline collections — there is no background collector in this figure
//! — first find victims that are three quarters valid. Throughput troughs
//! while they migrate and recovers as the pass leaves fully-garbage
//! groups behind.
//!
//! Each system emits a `BENCH_fig10_<system>_timeline.json` artifact
//! covering the overwrite phase (the phase the paper plots): per-window
//! throughput and stage percentiles, and the log-structured run a
//! `BENCH_fig10_spans.json` blame artifact. The `report` binary renders
//! and gates them (`scripts/check.sh`).

use bench::{print_table, TimelineRun};
use lsraid::LsConfig;
use sim::SimDuration;
use workloads::{BlockTarget, Engine, IoTarget, JobSpec, OpKind, Pattern, ZonedTarget};

const ZONES: u32 = 64;
const ZONE_SECTORS: u64 = 4096; // 16 MiB zones, 1 GiB per device
const BS: u64 = 256; // 1 MiB writes
/// Floor on the log-structured fill rate relative to RAIZN's (gated).
const LS_FILL_MIN: f64 = 0.8;

fn run_overwrite(
    target: &dyn IoTarget,
    label: &str,
    capture: &TimelineRun,
) -> bench::BenchResult<Vec<Vec<String>>> {
    let cap = target.capacity_sectors();
    let fifth = cap / 5 / ZONE_SECTORS * ZONE_SECTORS;
    // Phase 1: 5 threads, 20% regions.
    let phase1: Vec<JobSpec> = (0..5u64)
        .map(|i| {
            JobSpec::new(OpKind::Write, Pattern::Sequential, BS)
                .region(i * fifth, (i + 1) * fifth)
                .queue_depth(32)
        })
        .collect();
    let mut e = Engine::new(10).sample_interval(SimDuration::from_millis(100));
    let p1 = e.run(target, &phase1)?;
    // The paper's figure plots the overwrite phase; scope the timeline
    // artifact to it so its windows are not diluted by the concurrent
    // 5-job fill (which has a different throughput level by design).
    capture.reset_capture();
    // Phase 2: single-thread full overwrite.
    let phase2 = vec![JobSpec::new(OpKind::Write, Pattern::Sequential, BS)
        .region(0, fifth * 5)
        .queue_depth(32)];
    let mut e2 = Engine::new(11)
        .start_at(p1.end)
        .sample_interval(SimDuration::from_millis(100));
    let p2 = e2.run(target, &phase2)?;
    capture.write_to(std::path::Path::new("."))?;

    let mut rows = Vec::new();
    let collect = |rows: &mut Vec<Vec<String>>, rep: &workloads::RunReport, phase: &str| {
        let (Some(ts), Some(ls)) = (rep.throughput_series.as_ref(), rep.latency_series.as_ref())
        else {
            return;
        };
        for (p, l) in ts.iter().zip(ls.iter()) {
            if p.bytes == 0 {
                continue;
            }
            rows.push(vec![
                label.to_string(),
                phase.to_string(),
                format!("{:.2}", p.time.as_secs_f64()),
                format!("{:.0}", p.mib_per_sec),
                format!("{}", l.1),
                format!("{}", l.2),
            ]);
        }
    };
    collect(&mut rows, &p1, "fill");
    collect(&mut rows, &p2, "overwrite");
    Ok(rows)
}

fn main() -> bench::BenchResult {
    let rz_capture = TimelineRun::new("fig10_raizn");
    let raizn = rz_capture.raizn_volume(ZONES, ZONE_SECTORS, 16)?;
    let rt = ZonedTarget::new(raizn);
    let mut rows = run_overwrite(&rt, "raizn", &rz_capture)?;

    let ls_capture = TimelineRun::new("fig10_lsraid");
    let ls = ls_capture.lsraid_volume(ZONES, ZONE_SECTORS, LsConfig::default())?;
    let lt = ZonedTarget::overwriting(ls);
    rows.extend(run_overwrite(&lt, "lsraid", &ls_capture)?);
    // Blame trees of the overwrite phase: `report --explain` on this
    // artifact says what a group open costs the write that pays for it.
    bench::write_spans("fig10", &ls_capture.recorder())?;

    let md_capture = TimelineRun::new("fig10_mdraid");
    let md = md_capture.mdraid_volume(ZONES as u64 * ZONE_SECTORS, 16)?;
    let mt = BlockTarget::new(md.clone());
    rows.extend(run_overwrite(&mt, "mdraid", &md_capture)?);

    print_table(
        "Figure 10: overwrite timeseries (100 ms samples)",
        &["system", "phase", "t (s)", "MiB/s", "mean lat", "max lat"],
        &rows,
    );

    // Summary: fill-phase vs overwrite-phase median throughput (edge
    // samples excluded to avoid ramp artifacts).
    let median_tput =
        |rows: &[Vec<String>], system: &str, phase: &str| -> bench::BenchResult<f64> {
            let mut tputs = Vec::new();
            for r in rows.iter().filter(|r| r[0] == system && r[1] == phase) {
                tputs.push(r[3].parse::<f64>().map_err(|e| {
                    bench::BenchError::Gate(format!("unparseable throughput cell {:?}: {e}", r[3]))
                })?);
            }
            if tputs.len() > 4 {
                tputs.remove(0);
                tputs.pop();
            }
            Ok(sim::Summary::from_values(&tputs).median())
        };
    let mut summary = Vec::new();
    for system in ["raizn", "lsraid", "mdraid"] {
        let fill = median_tput(&rows, system, "fill")?;
        let over = median_tput(&rows, system, "overwrite")?;
        summary.push(vec![
            system.to_string(),
            format!("{fill:.0}"),
            format!("{over:.0}"),
            format!("{:.0}%", (1.0 - over / fill) * 100.0),
        ]);
    }
    print_table(
        "Figure 10 summary: median throughput per phase",
        &["system", "fill MiB/s", "overwrite MiB/s", "drop"],
        &summary,
    );
    let (rz_fill, ls_fill) = (
        median_tput(&rows, "raizn", "fill")?,
        median_tput(&rows, "lsraid", "fill")?,
    );
    bench::gate!(
        ls_fill >= LS_FILL_MIN * rz_fill,
        "lsraid fill {ls_fill:.0} MiB/s is below {LS_FILL_MIN} x raizn's {rz_fill:.0}"
    );

    // Timelines were already written at the end of each overwrite phase;
    // fold the captures' aggregates into the shared breakdown.
    rz_capture.reset_capture();
    ls_capture.reset_capture();
    md_capture.reset_capture();
    println!("timeline -> BENCH_fig10_raizn_timeline.json");
    println!("timeline -> BENCH_fig10_lsraid_timeline.json");
    println!("timeline -> BENCH_fig10_mdraid_timeline.json");
    bench::write_breakdown("fig10")
}
