//! Ablations of RAIZN design choices (DESIGN.md):
//!
//! 1. **Partial-parity scope** — paper's affected-rows logging vs logging
//!    the full running parity unit per partial write (§5.1's
//!    write-amplification argument).
//! 2. **Stripe unit size** — small-write metadata overhead across stripe
//!    unit sizes.

use bench::{bs_label, print_table, TimelineRun};
use raizn::{RaiznConfig, RaiznVolume};
use sim::SimTime;
use std::sync::Arc;
use workloads::{Engine, JobSpec, OpKind, Pattern, ZonedTarget};
use zns::{LatencyConfig, ZnsConfig, ZnsDevice};

const ZONES: u32 = 64;
const ZONE_SECTORS: u64 = 4096;

/// Builds the volume. Custom configs (pp variants, stripe units) mean the
/// harness volume builders don't fit; when `run` is set the devices and
/// volume are wired into its recorder instead of the process-wide
/// recorder.
fn build(config: RaiznConfig, run: Option<&TimelineRun>) -> bench::BenchResult<Arc<RaiznVolume>> {
    let rec = run.map_or_else(bench::recorder, TimelineRun::recorder);
    let devices: Vec<Arc<ZnsDevice>> = (0..5)
        .map(|_| {
            let config = ZnsConfig::builder()
                .zones(ZONES, ZONE_SECTORS, ZONE_SECTORS)
                .open_limits(14, 28)
                .latency(LatencyConfig::zns_ssd())
                .store_data(false)
                .build();
            Arc::new(ZnsDevice::new(config))
        })
        .collect();
    for (i, dev) in devices.iter().enumerate() {
        dev.set_recorder(rec.clone(), i as u32);
    }
    let vol = Arc::new(RaiznVolume::format(devices, config, SimTime::ZERO)?);
    vol.set_recorder(rec);
    Ok(vol)
}

fn small_write_run(
    config: RaiznConfig,
    run: Option<&TimelineRun>,
) -> bench::BenchResult<(f64, u64, u64)> {
    let vol = build(config, run)?;
    let target = ZonedTarget::new(vol.clone());
    // 4 KiB sequential writes: every one logs partial parity.
    let job = JobSpec::new(OpKind::Write, Pattern::Sequential, 1)
        .ops(16_384)
        .queue_depth(64);
    let report = Engine::new(77).run(&target, &[job])?;
    let stats = vol.stats();
    Ok((
        report.throughput_mib_s(),
        stats.pp_log_entries,
        stats.pp_log_bytes,
    ))
}

fn main() -> bench::BenchResult {
    // Timeline capture rides on the paper-default variant.
    let capture = TimelineRun::new("ablations");

    // --- Ablation 1: pp scope at 4 KiB writes. ------------------------
    let base = RaiznConfig::default();
    let full_unit = RaiznConfig {
        pp_log_full_unit: true,
        ..base
    };
    let mut rows = Vec::new();
    for (label, cfg) in [
        ("affected-rows pp + header (paper)", base),
        ("full-unit pp + header", full_unit),
    ] {
        let flagship = label.contains("(paper)");
        let (mib_s, entries, bytes) = small_write_run(cfg, flagship.then_some(&capture))?;
        let wa = (bytes + entries * 4096) as f64 / (16_384.0 * 4096.0);
        rows.push(vec![
            label.to_string(),
            format!("{mib_s:.0}"),
            format!("{entries}"),
            format!("{:.1}", bytes as f64 / (1024.0 * 1024.0)),
            format!("{wa:.2}"),
        ]);
    }
    print_table(
        "Ablation: partial-parity logging strategy (16k x 4 KiB writes)",
        &["variant", "MiB/s", "pp entries", "pp MiB", "pp write-amp"],
        &rows,
    );

    // --- Ablation 2: stripe unit size vs small-write overhead. --------
    let mut rows = Vec::new();
    for su in [2u64, 4, 16, 32] {
        let cfg = RaiznConfig {
            stripe_unit_sectors: su,
            ..RaiznConfig::default()
        };
        let (mib_s, entries, bytes) = small_write_run(cfg, None)?;
        rows.push(vec![
            bs_label(su),
            format!("{mib_s:.0}"),
            format!("{entries}"),
            format!("{:.1}", bytes as f64 / (1024.0 * 1024.0)),
        ]);
    }
    print_table(
        "Ablation: stripe unit size at 4 KiB writes",
        &["stripe unit", "MiB/s", "pp entries", "pp MiB"],
        &rows,
    );

    capture.finish()?;
    bench::write_breakdown("ablations")
}
