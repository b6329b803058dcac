//! Multi-tenant QoS benchmark: noisy-neighbor isolation, weighted
//! fairness, and stripe-aware write coalescing, all through the `qos`
//! scheduler over shared RAIZN volumes.
//!
//! Three experiments, each on a fresh 5-device array:
//!
//! 1. **Isolation**: a reserved victim tenant runs solo, then again
//!    beside a noisy neighbor offering ~10x its load. The victim's p99
//!    must barely move (gate: ratio < 1.25, evaluated by `report`).
//! 2. **Fairness**: three backlogged tenants with weights 1/2/4 share a
//!    depth-2 server for a fixed virtual-time window; completed ops per
//!    weight must be near-uniform (gates: Jain index >= 0.95, per-tenant
//!    deviation from the mean share <= 10%).
//! 3. **Coalescing**: an unaligned sequential write stream (half a
//!    stripe unit per IO) runs with the coalescer off, then on. Merged
//!    stripe-aligned batches must convert partial-parity log appends
//!    into full-stripe parity writes (gate: the full-parity/pp-log
//!    ratio rises).
//!
//! Emits `BENCH_qos.json` (all numbers above, plus per-tenant
//! accounting) and `BENCH_qos_timeline.json` (window digests captured
//! during the contended isolation phase). SLO gates over the JSON run in
//! `report --qos` and are wired into `scripts/check.sh`.

use bench::lifecycle::{join, tenant_json};
use qos::{QosConfig, QosScheduler, TenantSnapshot, TenantSpec};
use sim::SimDuration;
use std::sync::Arc;
use workloads::{Engine, JobSpec, OpKind, Pattern, RunReport, ZonedTarget};
use zns::ZonedVolume;

/// Physical zones per device and their capacity (bench scale).
const ZONES: u32 = 64;
const ZONE_SECTORS: u64 = 4096;
/// Stripe unit, matching the default RAIZN config used by the harness.
const STRIPE_UNIT: u64 = 16;
/// Stripe data width: 4 data devices x the stripe unit.
const STRIPE_DATA: u64 = 64;

/// Victim profile shared by the solo and contended isolation runs.
const VICTIM_OPS: u64 = 600;
const VICTIM_BLOCK: u64 = STRIPE_DATA;
/// Noisy neighbor: ~10x the victim's byte load, in small blocks.
const NOISY_OPS: u64 = 48_000;
const NOISY_BLOCK: u64 = 8;

/// Isolation dispatch window: depth 2 keeps the device from being
/// saturated by noisy in-flight ops, so the reservation actually
/// translates into bounded victim latency (a deep window would let the
/// neighbor queue up device-level service ahead of every victim op).
fn sched_config() -> QosConfig {
    QosConfig {
        server_depth: 2,
        stripe_sectors: STRIPE_DATA,
    }
}

/// The experiment's RAIZN array, recording into `rec`.
fn raizn_volume(rec: &Arc<obs::Recorder>) -> bench::BenchResult<Arc<raizn::RaiznVolume>> {
    let config = raizn::RaiznConfig {
        stripe_unit_sectors: STRIPE_UNIT,
        ..raizn::RaiznConfig::default()
    };
    bench::raizn_volume(rec, ZONES, ZONE_SECTORS, config)
}

/// Jain's fairness index over per-tenant normalized shares.
fn jain(x: &[f64]) -> f64 {
    let n = x.len() as f64;
    let sum: f64 = x.iter().sum();
    let sq: f64 = x.iter().map(|v| v * v).sum();
    if sq == 0.0 {
        0.0
    } else {
        sum * sum / (n * sq)
    }
}

struct Isolation {
    solo: RunReport,
    contended: RunReport,
    tenants: Vec<TenantSnapshot>,
}

impl Isolation {
    fn p99_ratio(&self) -> f64 {
        let solo = self.solo.jobs[0].p99().as_nanos().max(1) as f64;
        self.contended.jobs[0].p99().as_nanos() as f64 / solo
    }
}

/// Isolation experiment: identical victim job and tenant set in both
/// runs; only the noisy neighbor's job joins in the contended run, so
/// any victim latency shift is attributable to the contention itself.
fn isolation() -> bench::BenchResult<Isolation> {
    let tenants = || {
        vec![
            TenantSpec::new("victim").reservation(50_000),
            TenantSpec::new("noisy").weight(4),
        ]
    };
    let victim_job = |zone_cap: u64| {
        JobSpec::new(OpKind::Write, Pattern::Sequential, VICTIM_BLOCK)
            .ops(VICTIM_OPS)
            .queue_depth(1)
            .region(0, 12 * zone_cap)
            .tenant(0)
    };
    let noisy_job = |zone_cap: u64| {
        JobSpec::new(OpKind::Write, Pattern::Sequential, NOISY_BLOCK)
            .ops(NOISY_OPS)
            .queue_depth(64)
            .region(12 * zone_cap, 40 * zone_cap)
            .tenant(1)
    };

    // Solo reference run.
    let vol = raizn_volume(&bench::recorder())?;
    let zc = vol.geometry().zone_cap();
    let sched = QosScheduler::new(Arc::new(ZonedTarget::new(vol)), sched_config(), tenants())?
        .with_recorder(bench::recorder());
    let solo = Engine::new(0xA105).run_shared(&sched, &[victim_job(zc)])?;

    // Contended run, on the timeline artifact.
    let run = bench::TimelineRun::new("qos");
    let vol = raizn_volume(&run.recorder())?;
    let zc = vol.geometry().zone_cap();
    let sched = QosScheduler::new(Arc::new(ZonedTarget::new(vol)), sched_config(), tenants())?
        .with_recorder(run.recorder());
    let contended = Engine::new(0xA105).run_shared(&sched, &[victim_job(zc), noisy_job(zc)])?;
    let tenants = sched.stats();
    run.finish()?;
    Ok(Isolation {
        solo,
        contended,
        tenants,
    })
}

struct Fairness {
    weights: Vec<u64>,
    report: RunReport,
    tenants: Vec<TenantSnapshot>,
}

impl Fairness {
    /// Completed ops per unit weight, per tenant.
    fn normalized(&self) -> Vec<f64> {
        self.report
            .jobs
            .iter()
            .zip(self.weights.iter())
            .map(|(j, &w)| j.ops as f64 / w as f64)
            .collect()
    }

    fn max_weight_dev(&self) -> f64 {
        let norm = self.normalized();
        let mean = norm.iter().sum::<f64>() / norm.len() as f64;
        norm.iter()
            .map(|n| (n - mean).abs() / mean)
            .fold(0.0, f64::max)
    }
}

/// Fairness experiment: equal-block backlogged tenants, cut off while
/// everyone is still queueing so shares reflect contention.
fn fairness() -> bench::BenchResult<Fairness> {
    let weights = vec![1u64, 2, 4];
    let vol = raizn_volume(&bench::recorder())?;
    let zc = vol.geometry().zone_cap();
    let tenants = weights
        .iter()
        .map(|w| TenantSpec::new(format!("w{w}")).weight(*w))
        .collect();
    let sched = QosScheduler::new(Arc::new(ZonedTarget::new(vol)), sched_config(), tenants)?
        .with_recorder(bench::recorder());
    let jobs: Vec<JobSpec> = (0..weights.len() as u64)
        .map(|i| {
            JobSpec::new(OpKind::Write, Pattern::Sequential, 16)
                .ops(1_000_000)
                .queue_depth(16)
                .region(i * 4 * zc, (i + 1) * 4 * zc)
                .tenant(i as u32)
        })
        .collect();
    let report = Engine::new(0xFA12)
        .time_limit(SimDuration::from_millis(50))
        .run_shared(&sched, &jobs)?;
    let tenants = sched.stats();
    Ok(Fairness {
        weights,
        report,
        tenants,
    })
}

struct CoalesceRun {
    tenant: TenantSnapshot,
    raizn: raizn::RaiznStats,
}

impl CoalesceRun {
    /// Full-stripe parity writes per partial-parity log append.
    fn full_per_pp(&self) -> f64 {
        self.raizn.full_parity_writes as f64 / self.raizn.pp_log_entries.max(1) as f64
    }
}

/// One coalescing run: unaligned (half a stripe unit) sequential writes
/// through the scheduler, coalescer on or off.
fn coalesce_run(enable: bool) -> bench::BenchResult<CoalesceRun> {
    let vol = raizn_volume(&bench::recorder())?;
    let zc = vol.geometry().zone_cap();
    let sched = QosScheduler::new(
        Arc::new(ZonedTarget::new(vol.clone())),
        QosConfig {
            stripe_sectors: STRIPE_DATA,
            ..QosConfig::default()
        },
        vec![TenantSpec::new("fs").coalesce(enable)],
    )?
    .with_recorder(bench::recorder());
    let job = JobSpec::new(OpKind::Write, Pattern::Sequential, STRIPE_UNIT / 2)
        .ops(4096)
        .queue_depth(32)
        .region(0, 8 * zc)
        .tenant(0);
    let report = Engine::new(0xC0A1).run_shared(&sched, &[job])?;
    bench::gate!(
        report.total_ops == 4096,
        "coalesce run (enable={enable}) completed {} of 4096 ops",
        report.total_ops
    );
    Ok(CoalesceRun {
        tenant: sched.stats().remove(0),
        raizn: vol.stats(),
    })
}

fn main() -> bench::BenchResult {
    let iso = isolation()?;
    bench::gate!(
        iso.solo.jobs[0].ops == VICTIM_OPS && iso.contended.jobs[0].ops == VICTIM_OPS,
        "victim did not complete all ops: solo {} contended {}",
        iso.solo.jobs[0].ops,
        iso.contended.jobs[0].ops
    );
    let noisy_load = iso.contended.jobs[1].bytes as f64 / iso.contended.jobs[0].bytes as f64;

    let fair = fairness()?;
    bench::gate!(
        fair.report.jobs.iter().all(|j| j.ops > 0),
        "a fairness tenant made no progress"
    );
    let norm = fair.normalized();
    let jain_idx = jain(&norm);
    let max_dev = fair.max_weight_dev();

    let off = coalesce_run(false)?;
    let on = coalesce_run(true)?;
    bench::gate!(
        on.tenant.merged > 0,
        "coalescer merged nothing on an adjacent sequential stream"
    );
    let uplift = on.full_per_pp() / off.full_per_pp().max(f64::MIN_POSITIVE);

    let json = format!(
        "{{\n  \"kind\": \"qos\",\n  \"isolation\": {{\n    \"victim_solo_p50_ns\": {},\n    \
         \"victim_solo_p99_ns\": {},\n    \"victim_contended_p50_ns\": {},\n    \
         \"victim_contended_p99_ns\": {},\n    \"p99_ratio\": {:.4},\n    \
         \"noisy_load_factor\": {:.2},\n    \"victim_ops\": {},\n    \"noisy_ops\": {},\n    \
         \"tenants\": [{}]\n  }},\n  \"fairness\": {{\n    \"weights\": [{}],\n    \
         \"ops\": [{}],\n    \"normalized_share\": [{}],\n    \"jain\": {:.4},\n    \
         \"max_weight_dev\": {:.4},\n    \"duration_ms\": {:.2},\n    \"tenants\": [{}]\n  }},\n  \
         \"coalesce\": {{\n    \"off\": {{\"pp_log_entries\": {}, \"full_parity_writes\": {}, \
         \"full_per_pp\": {:.4}}},\n    \"on\": {{\"pp_log_entries\": {}, \
         \"full_parity_writes\": {}, \"full_per_pp\": {:.4}, \"merged\": {}, \"batches\": {}, \
         \"coalesce_ratio\": {:.4}}},\n    \"uplift\": {:.4}\n  }}\n}}\n",
        iso.solo.jobs[0].p50().as_nanos(),
        iso.solo.jobs[0].p99().as_nanos(),
        iso.contended.jobs[0].p50().as_nanos(),
        iso.contended.jobs[0].p99().as_nanos(),
        iso.p99_ratio(),
        noisy_load,
        iso.contended.jobs[0].ops,
        iso.contended.jobs[1].ops,
        join(iso.tenants.iter().map(tenant_json)),
        join(fair.weights.iter().map(u64::to_string)),
        join(fair.report.jobs.iter().map(|j| j.ops.to_string())),
        join(norm.iter().map(|n| format!("{n:.2}"))),
        jain_idx,
        max_dev,
        fair.report.duration.as_secs_f64() * 1e3,
        join(fair.tenants.iter().map(tenant_json)),
        off.raizn.pp_log_entries,
        off.raizn.full_parity_writes,
        off.full_per_pp(),
        on.raizn.pp_log_entries,
        on.raizn.full_parity_writes,
        on.full_per_pp(),
        on.tenant.merged,
        on.tenant.batches,
        on.tenant.coalesce_ratio(),
        uplift,
    );
    std::fs::write("BENCH_qos.json", &json)?;
    println!("qos results -> BENCH_qos.json");

    bench::print_table(
        "qos isolation (reserved victim vs noisy neighbor)",
        &["run", "victim p50", "victim p99", "p99 ratio"],
        &[
            vec![
                "solo".into(),
                format!("{}", iso.solo.jobs[0].p50()),
                format!("{}", iso.solo.jobs[0].p99()),
                "1.00".into(),
            ],
            vec![
                format!("contended ({noisy_load:.1}x noisy)"),
                format!("{}", iso.contended.jobs[0].p50()),
                format!("{}", iso.contended.jobs[0].p99()),
                format!("{:.2}", iso.p99_ratio()),
            ],
        ],
    );
    bench::print_table(
        "qos fairness (weighted shares over a 50 ms window)",
        &["tenant", "weight", "ops", "ops/weight"],
        &fair
            .weights
            .iter()
            .zip(fair.report.jobs.iter())
            .enumerate()
            .map(|(i, (w, j))| {
                vec![
                    format!("w{w}"),
                    w.to_string(),
                    j.ops.to_string(),
                    format!("{:.1}", norm[i]),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("jain index {jain_idx:.4}, max weight deviation {max_dev:.3}");
    bench::print_table(
        "qos coalescing (8-sector sequential writes)",
        &[
            "coalescer",
            "pp-log entries",
            "full-parity writes",
            "full/pp",
        ],
        &[
            vec![
                "off".into(),
                off.raizn.pp_log_entries.to_string(),
                off.raizn.full_parity_writes.to_string(),
                format!("{:.3}", off.full_per_pp()),
            ],
            vec![
                "on".into(),
                on.raizn.pp_log_entries.to_string(),
                on.raizn.full_parity_writes.to_string(),
                format!("{:.3}", on.full_per_pp()),
            ],
        ],
    );
    println!(
        "coalesce uplift {uplift:.1}x ({} ops merged into {} batches)",
        on.tenant.merged, on.tenant.batches
    );

    bench::write_breakdown("qos")?;
    bench::write_spans("qos", &bench::recorder())?;
    Ok(())
}
