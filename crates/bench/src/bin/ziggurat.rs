//! Zone-lifecycle benchmark: the open/active-budget cliff vs proactive
//! background management.
//!
//! Two identical zone-spray runs on fresh 5-device arrays (see
//! `bench::lifecycle` for the shared geometry):
//!
//! 1. **nomgr**: foreground reclaim only. Once the devices' active-zone
//!    budget is exhausted, every new zone activation inline-finishes a
//!    victim zone — fill writes over its unwritten tail — on the write
//!    path. Throughput falls off a cliff (gate: post-peak trough <= 70%
//!    of the early peak, evaluated by `report --lifecycle`).
//! 2. **mgr**: a [`raizn::ZoneLifecycleManager`] pumps between
//!    foreground ops, submitting finishes/pre-opens/batched resets
//!    through the QoS scheduler as a weight-1 internal tenant. The band
//!    stays flat (gate: min/max active windows >= 0.9) and the
//!    foreground reclaim path never fires.
//!
//! Emits `BENCH_ziggurat.json` plus per-run timeline artifacts
//! (`BENCH_ziggurat_nomgr_timeline.json` feeds `report
//! --expect-decline`, `BENCH_ziggurat_mgr_timeline.json` feeds
//! `--expect-flat`).

use bench::lifecycle::{
    cliff_ratio, flat_ratio, lifecycle_json, lifecycle_scheduler, lifecycle_volume, spray,
    SprayOutcome, ACTIVE_LIMIT, SPRAY_ZONES, STRIPES_PER_ZONE,
};
use raizn::ZoneLifecycleManager;

fn run(managed: bool) -> bench::BenchResult<SprayOutcome> {
    let name = if managed {
        "ziggurat_mgr"
    } else {
        "ziggurat_nomgr"
    };
    let run = bench::TimelineRun::new(name);
    let (volume, devices) = lifecycle_volume(&run, !managed)?;
    let sched = lifecycle_scheduler(&run, volume.clone())?;
    let manager = managed.then(|| ZoneLifecycleManager::new(volume.clone()));
    let outcome = spray(&run, &volume, &devices, &sched, manager.as_ref())?;
    run.finish()?;
    Ok(outcome)
}

fn main() -> bench::BenchResult {
    let nomgr = run(false)?;
    let total_stripes = SPRAY_ZONES as u64 * STRIPES_PER_ZONE;
    bench::gate!(
        nomgr.raizn.foreground_reclaims > 0,
        "unmanaged run never hit the reclaim path: the cliff oracle is dead"
    );
    let nomgr_cliff = cliff_ratio(&nomgr.windows_mib_s)
        .ok_or_else(|| bench::BenchError::Gate("nomgr run produced too few windows".into()))?;

    let mgr = run(true)?;
    bench::gate!(
        mgr.raizn.foreground_reclaims == 0,
        "managed run fell back to foreground reclaim {} times",
        mgr.raizn.foreground_reclaims
    );
    let stats = mgr.mgmt.unwrap_or_default();
    bench::gate!(
        stats.finishes > 0 && stats.resets > 0,
        "manager did no work (finishes {}, resets {})",
        stats.finishes,
        stats.resets
    );
    bench::gate!(
        mgr.sched_mgmt_ops >= stats.finishes + stats.resets,
        "management ops bypassed the scheduler ({} dispatched < {} issued)",
        mgr.sched_mgmt_ops,
        stats.finishes + stats.resets
    );
    bench::gate!(
        mgr.max_active_seen <= ACTIVE_LIMIT && nomgr.max_active_seen <= ACTIVE_LIMIT,
        "active budget exceeded (mgr {} nomgr {} limit {})",
        mgr.max_active_seen,
        nomgr.max_active_seen,
        ACTIVE_LIMIT
    );
    let mgr_flat = flat_ratio(&mgr.windows_mib_s)
        .ok_or_else(|| bench::BenchError::Gate("mgr run produced too few windows".into()))?;

    let json = lifecycle_json(&nomgr, nomgr_cliff, &mgr, mgr_flat);
    std::fs::write("BENCH_ziggurat.json", &json)?;
    println!("ziggurat results -> BENCH_ziggurat.json");

    bench::print_table(
        "ziggurat zone spray (40 zones to 86% of capacity)",
        &[
            "run",
            "stripes",
            "fg reclaims",
            "max active",
            "cliff/flat",
            "duration",
        ],
        &[
            vec![
                "nomgr".into(),
                total_stripes.to_string(),
                nomgr.raizn.foreground_reclaims.to_string(),
                format!("{}/{}", nomgr.max_active_seen, ACTIVE_LIMIT),
                format!("cliff {nomgr_cliff:.2}"),
                format!("{:.1} ms", nomgr.end.as_nanos() as f64 / 1e6),
            ],
            vec![
                "mgr".into(),
                total_stripes.to_string(),
                mgr.raizn.foreground_reclaims.to_string(),
                format!("{}/{}", mgr.max_active_seen, ACTIVE_LIMIT),
                format!("flat {mgr_flat:.2}"),
                format!("{:.1} ms", mgr.end.as_nanos() as f64 / 1e6),
            ],
        ],
    );
    println!(
        "manager: {} finishes, {} resets ({} pre-opens) over {} pumps, \
         {:.1}% of device write traffic",
        stats.finishes,
        stats.resets,
        stats.pre_opens,
        stats.pumps,
        mgr.mgmt_io_share * 100.0
    );

    bench::write_breakdown("ziggurat")?;
    bench::write_spans("ziggurat", &bench::recorder())?;
    Ok(())
}
