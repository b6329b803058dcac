//! Shared harness for the sustained-overwrite GC-pressure experiment
//! (the `lsgc` binary and the schema suite).
//!
//! The experiment is the log-structured engine's headline scenario:
//! a skewed random-overwrite workload (most writes hammer a small hot
//! region) running long past the array's spare capacity. The
//! log-structured engine absorbs every overwrite as an append, lets the
//! hot groups rot to near-total garbage, and reclaims them with a
//! budgeted background collector running as a low-weight internal tenant
//! on the same QoS scheduler as the foreground — so its interference is
//! arbitrated, bounded, and visible in the span-blame artifact. The
//! mdraid-5 baseline on conventional SSDs takes the same op sequence
//! and declines as device-level FTL GC sets in.

use crate::lifecycle::{join, tenant_json, windows_json};
use crate::{BenchResult, TimelineRun};
use lsraid::{GcManager, GcSink, LsStats};
use qos::{QosConfig, QosScheduler, TenantSnapshot, TenantSpec};
use sim::{SimRng, SimTime};
use std::sync::Arc;
use workloads::{IoTarget, SchedCompletion, SharedScheduler, TenantId};
use zns::{Lba, SECTOR_SIZE};

/// Physical zones per device. Many small stripe groups (rather than a
/// few huge ones) give the victim picker a fine-grained garbage
/// distribution to exploit, as in a real log-structured cleaner.
pub const ZONES: u32 = 128;
/// Physical zone capacity in sectors.
pub const ZONE_SECTORS: u64 = 2048;
/// Foreground block size in sectors (1 MiB, stripe-aligned on both
/// targets so neither pays read-modify-write on the measured path).
pub const BLOCK: u64 = 256;
/// The foreground application tenant index on the scheduler.
pub const APP_TENANT: TenantId = 0;
/// The internal GC tenant index on the scheduler.
pub const GC_TENANT: TenantId = 1;
/// Foreground ops between GC pumps: frequent, small-budget pumps spread
/// migration IO thinly instead of bursting it.
pub const PUMP_OPS: u64 = 1;

/// The collector policy for the experiment: only groups that have
/// rotted to mostly-garbage qualify (collecting earlier migrates data
/// that is about to die anyway — the classic eager-GC write-amp trap),
/// the force-pick watermark sits well above the engine's emergency
/// reserve, and each pump's budget bounds its interference burst.
pub fn gc_config() -> lsraid::GcConfig {
    lsraid::GcConfig {
        threshold: 0.5,
        low_water: 4,
        threshold_water: 8,
        high_water: 32,
        budget_sectors: 112,
    }
}
/// Fraction of the logical space that is hot, in percent.
pub const HOT_REGION_PCT: u64 = 5;
/// Fraction of overwrites that land in the hot region, in percent.
pub const HOT_WRITE_PCT: u64 = 95;
/// Size of the warm region (right after the hot region), in percent of
/// the logical space.
pub const WARM_REGION_PCT: u64 = 5;
/// Fraction of overwrites that land in the warm region, in percent.
/// The residual (100 - hot - warm) percent is uniform over the cold
/// remainder. The three-tier shape is deliberately Zipf-like: a
/// perfectly uniform cold tail is the degenerate worst case for any
/// garbage collector (every cold group rots at the same rate, so no
/// victim is ever better than the average), while real workloads give
/// the collector differential rot to exploit.
pub const WARM_WRITE_PCT: u64 = 4;
/// Measured overwrite ops (1 MiB each): ~25x turnover of the hot region,
/// several times the array's spare capacity.
pub const OVERWRITE_OPS: u64 = 4096;
/// Unmeasured aging ops before the measured phase: the overwrite
/// pattern runs with the collector live until the garbage distribution
/// (and thus the GC duty cycle) reaches steady state, so the measured
/// band reflects sustained operation rather than the post-prefill
/// transient. Standard preconditioning practice for GC benchmarks.
pub const AGE_OPS: u64 = 6 * OVERWRITE_OPS;
/// Write-amplification ceiling for the measured phase (gated).
pub const WAF_MAX: f64 = 1.5;

/// Builds the two-tenant scheduler both runs use: the foreground
/// application (weight 8) and the internal GC tenant (weight 1),
/// dispatched under [`obs::Actor::Gc`] so device stalls it causes are
/// blamed to the GC interference category.
///
/// # Errors
///
/// Propagates scheduler construction errors.
pub fn lsgc_scheduler(
    run: &TimelineRun,
    target: Arc<dyn IoTarget>,
) -> BenchResult<Arc<QosScheduler>> {
    let sched = Arc::new(
        QosScheduler::new(
            target,
            QosConfig {
                stripe_sectors: BLOCK,
                ..QosConfig::default()
            },
            vec![
                TenantSpec::new("app").weight(8),
                TenantSpec::new("gc").weight(1).actor(obs::Actor::Gc),
            ],
        )?
        .with_recorder(run.recorder()),
    );
    Ok(sched)
}

/// The deterministic skewed-overwrite offset sequence: each op picks a
/// [`BLOCK`]-aligned offset, [`HOT_WRITE_PCT`]% of them inside the first
/// [`HOT_REGION_PCT`]% of the space, [`WARM_WRITE_PCT`]% in the warm
/// region after it, the rest uniform over the cold remainder. Both
/// targets replay the identical sequence.
pub fn overwrite_offsets(total_blocks: u64, ops: u64, seed: u64) -> Vec<u64> {
    let hot_blocks = (total_blocks * HOT_REGION_PCT / 100).max(1);
    let warm_blocks = (total_blocks * WARM_REGION_PCT / 100).max(1);
    let cold_blocks = (total_blocks - hot_blocks - warm_blocks).max(1);
    let mut rng = SimRng::new(seed);
    (0..ops)
        .map(|_| {
            let r = rng.gen_range(100);
            let b = if r < HOT_WRITE_PCT {
                rng.gen_range(hot_blocks)
            } else if r < HOT_WRITE_PCT + WARM_WRITE_PCT {
                hot_blocks + rng.gen_range(warm_blocks)
            } else {
                hot_blocks + warm_blocks + rng.gen_range(cold_blocks)
            };
            b * BLOCK
        })
        .collect()
}

/// [`GcSink`] adapter submitting migration writes to a [`QosScheduler`]
/// as tenant [`GC_TENANT`], then draining the scheduler so each
/// migration is dispatched under mClock arbitration before the collector
/// proceeds.
pub struct QosGcSink<'a>(qos::InternalTenant<'a>);

impl<'a> QosGcSink<'a> {
    /// Wraps `sched`; migration writes go to [`GC_TENANT`].
    pub fn new(sched: &'a QosScheduler) -> Self {
        QosGcSink(qos::InternalTenant::new(sched, GC_TENANT))
    }
}

impl GcSink for QosGcSink<'_> {
    fn migrate(&mut self, at: SimTime, lba: Lba, data: &[u8]) -> zns::Result<SimTime> {
        self.0.submit_and_drain(
            at,
            format_args!("gc migration write at lba {lba}"),
            |sched, tenant, tag| sched.submit_write(tenant, tag, at, lba, data),
        )
    }
}

/// Band-measurement window. Wider than [`crate::TIMELINE_WINDOW`] so the
/// min/max band ratio measures macro flatness rather than op-count
/// quantization noise (each op is [`BLOCK`] sectors; a 100 ms window
/// holds only ~20 ops, so a one-op boundary shift reads as a 5% swing).
pub const BAND_WINDOW: sim::SimDuration = sim::SimDuration::from_millis(300);

/// Drives `offsets` as [`BLOCK`]-sized writes through `sched` (tenant
/// [`APP_TENANT`]), pacing by completion and accounting data throughput
/// into [`BAND_WINDOW`] tumbling windows. With a collector, pumps it
/// every [`PUMP_OPS`] ops; the foreground clock does not wait for
/// migration completions — interference is modeled where it belongs, in
/// device occupancy and scheduler arbitration.
///
/// # Errors
///
/// Propagates scheduler/volume errors.
pub fn drive(
    sched: &QosScheduler,
    start: SimTime,
    offsets: &[u64],
    block: &[u8],
    mut gc: Option<(&mut GcManager, &mut QosGcSink)>,
) -> BenchResult<(Vec<f64>, SimTime)> {
    let window_ns = BAND_WINDOW.as_nanos();
    let sectors = block.len() as u64 / SECTOR_SIZE;
    let mut completions: Vec<SchedCompletion> = Vec::with_capacity(8);
    let mut windows: Vec<u64> = Vec::new();
    let mut now = start;
    for (i, &off) in offsets.iter().enumerate() {
        sched
            .submit_write(APP_TENANT, i as u64, now, off, block)?
            .admitted(format_args!("foreground write at op {i}"))?;
        completions.clear();
        while sched.step(&mut completions)? {}
        for c in &completions {
            if c.tenant == APP_TENANT {
                now = now.max(c.done);
                // Windows are phase-relative so the first one is full,
                // not a partial that breaks the flat-band ratio.
                let w = (c.done.as_nanos().saturating_sub(start.as_nanos()) / window_ns) as usize;
                if windows.len() <= w {
                    windows.resize(w + 1, 0);
                }
                windows[w] += sectors;
            }
        }
        if let Some((mgr, sink)) = gc.as_mut() {
            if (i as u64 + 1).is_multiple_of(PUMP_OPS) {
                mgr.pump(now, *sink)?;
            }
        }
    }
    let mib_per_window =
        |s: u64| s as f64 * SECTOR_SIZE as f64 / (1 << 20) as f64 / (window_ns as f64 / 1e9);
    Ok((windows.iter().map(|&s| mib_per_window(s)).collect(), now))
}

/// Outcome of the log-structured side of the experiment.
pub struct LsOutcome {
    /// Data throughput per tumbling window, MiB/s.
    pub windows_mib_s: Vec<f64>,
    /// Virtual end time of the measured phase.
    pub end: SimTime,
    /// Write amplification of the measured phase alone
    /// (`(user + migrated + pads) / user` over the phase's deltas).
    pub waf: f64,
    /// Engine counters at the end of the run (cumulative).
    pub stats: LsStats,
    /// Groups reclaimed during the measured phase.
    pub reclaims: u64,
    /// Emergency (inline, foreground-blocking) reclaims during the phase.
    pub emergency: u64,
    /// Sectors the collector migrated during the phase.
    pub migrated: u64,
    /// Scheduler tenant accounting (app, then gc).
    pub tenants: Vec<TenantSnapshot>,
}

/// Outcome of the mdraid-5 baseline side.
pub struct MdOutcome {
    /// Data throughput per tumbling window, MiB/s.
    pub windows_mib_s: Vec<f64>,
    /// Virtual end time of the measured phase.
    pub end: SimTime,
    /// Scheduler tenant accounting.
    pub tenants: Vec<TenantSnapshot>,
}

/// Marginal write amplification from a pair of stat snapshots.
pub fn phase_waf(pre: &LsStats, post: &LsStats) -> f64 {
    let user = post.user_sectors - pre.user_sectors;
    if user == 0 {
        return 1.0;
    }
    let migrated = post.migrated_sectors - pre.migrated_sectors;
    let pads = post.pad_sectors - pre.pad_sectors;
    (user + migrated + pads) as f64 / user as f64
}

/// Renders the `kind: "lsgc"` artifact (`BENCH_lsgc.json`) from the two
/// run outcomes and their precomputed band ratios. The schema suite
/// validates this emitter directly, so the artifact the `lsgc` binary
/// writes and the one the tests check cannot drift apart.
pub fn lsgc_json(ls: &LsOutcome, ls_flat: f64, md: &MdOutcome, md_cliff: f64) -> String {
    format!(
        "{{\n  \"kind\": \"lsgc\",\n  \"block_sectors\": {},\n  \"overwrite_ops\": {},\n  \
         \"hot_region_pct\": {},\n  \"hot_write_pct\": {},\n  \"lsraid\": {{\n    \
         \"windows_mib_s\": [{}],\n    \"flat_ratio\": {:.4},\n    \"waf\": {:.4},\n    \
         \"group_reclaims\": {},\n    \"emergency_reclaims\": {},\n    \
         \"migrated_sectors\": {},\n    \"pad_sectors\": {},\n    \"pp_log_writes\": 0,\n    \
         \"duration_ms\": {:.2},\n    \"tenants\": [{}]\n  }},\n  \"mdraid\": {{\n    \
         \"windows_mib_s\": [{}],\n    \"cliff_ratio\": {:.4},\n    \"duration_ms\": {:.2},\n    \
         \"tenants\": [{}]\n  }}\n}}\n",
        BLOCK,
        OVERWRITE_OPS,
        HOT_REGION_PCT,
        HOT_WRITE_PCT,
        windows_json(&ls.windows_mib_s),
        ls_flat,
        ls.waf,
        ls.reclaims,
        ls.emergency,
        ls.migrated,
        ls.stats.pad_sectors,
        ls.end.as_nanos() as f64 / 1e6,
        join(ls.tenants.iter().map(tenant_json)),
        windows_json(&md.windows_mib_s),
        md_cliff,
        md.end.as_nanos() as f64 / 1e6,
        join(md.tenants.iter().map(tenant_json)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_skewed_and_aligned() {
        let total_blocks = 3072u64;
        let hot = total_blocks * HOT_REGION_PCT / 100;
        let offs = overwrite_offsets(total_blocks, 2000, 7);
        assert_eq!(offs.len(), 2000);
        let hot_hits = offs.iter().filter(|&&o| o < hot * BLOCK).count();
        assert!(
            (hot_hits as f64 / 2000.0) > 0.8,
            "skew lost: {hot_hits}/2000 hot"
        );
        for &o in &offs {
            assert_eq!(o % BLOCK, 0, "unaligned offset {o}");
            assert!(o < total_blocks * BLOCK, "offset {o} out of range");
        }
        // Determinism pin.
        assert_eq!(offs, overwrite_offsets(total_blocks, 2000, 7));
    }
}
