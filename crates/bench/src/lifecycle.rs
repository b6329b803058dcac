//! Shared harness for the zone-lifecycle experiments (the `ziggurat`
//! binary and the lifecycle test batteries).
//!
//! The experiment models the open/active-zone-budget cliff: a zone-spray
//! workload fills logical zones to just under capacity and moves on,
//! accumulating active zones until the devices' active budget is
//! exhausted. Without management every new zone activation then pays a
//! foreground finish (fill writes over a victim's remainder) inline on
//! the write path — a reproducible throughput cliff. With a
//! [`ZoneLifecycleManager`] pumping in the background through the QoS
//! scheduler (as a low-priority internal tenant), near-full zones are
//! finished off the critical path and the band stays flat.

use crate::{BenchResult, TimelineRun, ARRAY_DEVICES, TIMELINE_WINDOW};
use qos::{QosConfig, QosScheduler, TenantSnapshot, TenantSpec};
use raizn::{LifecycleStats, MgmtSink, RaiznConfig, RaiznStats, RaiznVolume, ZoneLifecycleManager};
use sim::SimTime;
use std::sync::Arc;
use workloads::{SchedCompletion, SharedScheduler, TenantId, ZonedTarget};
use zns::{LatencyConfig, ZnsConfig, ZnsDevice, ZonedVolume, SECTOR_SIZE};

/// Physical zones per device and their capacity.
pub const ZONES: u32 = 64;
/// Physical zone capacity in sectors (16 MiB).
pub const ZONE_SECTORS: u64 = 4096;
/// Stripe unit in sectors (64 KiB, the paper's default).
pub const STRIPE_UNIT: u64 = 16;
/// Data sectors per logical stripe (4 data devices).
pub const STRIPE_DATA: u64 = STRIPE_UNIT * (ARRAY_DEVICES as u64 - 1);
/// Open/active zone budget per device. Two metadata zones stay active
/// throughout, so the data budget is `ACTIVE_LIMIT - 2`.
pub const OPEN_LIMIT: u32 = 6;
/// Active-zone budget per device (the binding constraint of the cliff).
pub const ACTIVE_LIMIT: u32 = 9;
/// Logical zones the spray workload touches.
pub const SPRAY_ZONES: u32 = 40;
/// Stripes written per sprayed zone: 220/256 ≈ 86% of the logical zone
/// capacity — past the manager's finish threshold (85%), while leaving a
/// remainder whose foreground fill cost is the cliff.
pub const STRIPES_PER_ZONE: u64 = 220;
/// Foreground ops between manager pumps. Frequent pumps with the
/// manager's one-finish-per-pump cap spread management IO thinly instead
/// of bursting it, which is what keeps the band flat.
pub const PUMP_OPS: u64 = 8;
/// Sprayed-zone age (in zones) at which the workload queues its reset.
pub const RESET_LAG: u32 = 30;
/// The foreground tenant index on the scheduler.
pub const FG_TENANT: TenantId = 0;
/// The internal management tenant index on the scheduler.
pub const MGMT_TENANT: TenantId = 1;

/// Device timing for the lifecycle experiments: ZN540-like, but with
/// 2 ways × 4 planes (8 die groups) so zone-affine background fills and
/// resets mostly run on other die groups than the zone being written —
/// on the single-die profile every background fill would serialize
/// against foreground IO and no amount of management could keep the
/// band flat.
pub fn lifecycle_latency() -> LatencyConfig {
    LatencyConfig {
        ways: 2,
        planes: 4,
        ..LatencyConfig::zns_ssd()
    }
}

/// Builds the experiment's device array wired into `run`.
pub fn lifecycle_devices(run: &TimelineRun) -> Vec<Arc<ZnsDevice>> {
    let rec = run.recorder();
    (0..ARRAY_DEVICES)
        .map(|i| {
            let dev = Arc::new(ZnsDevice::new(
                ZnsConfig::builder()
                    .zones(ZONES, ZONE_SECTORS, ZONE_SECTORS)
                    .open_limits(OPEN_LIMIT, ACTIVE_LIMIT)
                    .latency(lifecycle_latency())
                    .store_data(false)
                    .build(),
            ));
            dev.set_recorder(rec.clone(), i as u32);
            dev
        })
        .collect()
}

/// Builds the experiment's RAIZN volume over [`lifecycle_devices`].
/// `reclaim` enables the foreground reclaim path (the cliff). Returns
/// the device handles too so callers can watch their active zones.
///
/// # Errors
///
/// Returns an error if the configuration is invalid.
pub fn lifecycle_volume(
    run: &TimelineRun,
    reclaim: bool,
) -> BenchResult<(Arc<RaiznVolume>, Vec<Arc<ZnsDevice>>)> {
    let devices = lifecycle_devices(run);
    let volume = Arc::new(RaiznVolume::format(
        devices.clone(),
        RaiznConfig {
            stripe_unit_sectors: STRIPE_UNIT,
            reclaim_on_exhaustion: reclaim,
            ..RaiznConfig::default()
        },
        SimTime::ZERO,
    )?);
    volume.set_recorder(run.recorder());
    Ok((volume, devices))
}

/// [`MgmtSink`] adapter submitting management IO to a [`QosScheduler`]
/// as tenant [`MGMT_TENANT`], then draining the scheduler so each pump's
/// management work is dispatched under mClock arbitration before the
/// next foreground op.
pub struct QosMgmtSink<'a>(qos::InternalTenant<'a>);

impl<'a> QosMgmtSink<'a> {
    /// Wraps `sched`; management ops go to [`MGMT_TENANT`].
    pub fn new(sched: &'a QosScheduler) -> Self {
        QosMgmtSink(qos::InternalTenant::new(sched, MGMT_TENANT))
    }
}

impl MgmtSink for QosMgmtSink<'_> {
    fn submit_mgmt(&mut self, at: SimTime, zone: u32, op: zns::ZoneMgmtOp) -> zns::Result<SimTime> {
        self.0.submit_and_drain(
            at,
            format_args!("management {op} of zone {zone}"),
            |sched, tenant, tag| sched.submit_mgmt(tenant, tag, at, zone, op),
        )
    }
}

/// Outcome of one spray run.
pub struct SprayOutcome {
    /// Data throughput per tumbling window, MiB/s (window =
    /// [`TIMELINE_WINDOW`]).
    pub windows_mib_s: Vec<f64>,
    /// Virtual end time of the run.
    pub end: SimTime,
    /// Highest per-device active-zone count observed at any sample.
    pub max_active_seen: u32,
    /// Volume counters at the end of the run.
    pub raizn: RaiznStats,
    /// Scheduler tenant accounting (foreground, then management).
    pub tenants: Vec<TenantSnapshot>,
    /// Manager counters (`None` on the unmanaged run).
    pub mgmt: Option<LifecycleStats>,
    /// Management share of device write traffic (fill padding fraction).
    pub mgmt_io_share: f64,
    /// `sched_mgmt_ops` counter: management ops dispatched by the
    /// scheduler.
    pub sched_mgmt_ops: u64,
}

/// Runs the zone-spray workload through `sched` (foreground tenant
/// [`FG_TENANT`]), pumping `manager` every [`PUMP_OPS`] ops when given.
/// All IO — foreground writes and background management — dispatches
/// through the scheduler, so the artifact's tenant accounting covers the
/// whole experiment.
///
/// # Errors
///
/// Propagates scheduler/volume errors.
pub fn spray(
    run: &TimelineRun,
    volume: &Arc<RaiznVolume>,
    devices: &[Arc<ZnsDevice>],
    sched: &QosScheduler,
    manager: Option<&ZoneLifecycleManager>,
) -> BenchResult<SprayOutcome> {
    let zone_cap = volume.geometry().zone_cap();
    let window_ns = TIMELINE_WINDOW.as_nanos();
    let block = vec![0x5Au8; (STRIPE_DATA * SECTOR_SIZE) as usize];
    let mut sink = manager.map(|_| QosMgmtSink::new(sched));
    let mut completions: Vec<SchedCompletion> = Vec::with_capacity(8);
    let mut windows: Vec<u64> = Vec::new();
    let mut now = SimTime::ZERO;
    let mut ops = 0u64;
    let mut max_active = 0u32;

    let sample_active = |max_active: &mut u32| {
        for dev in devices {
            *max_active = (*max_active).max(dev.active_zones());
        }
    };

    for zone in 0..SPRAY_ZONES {
        for stripe in 0..STRIPES_PER_ZONE {
            let off = zone as u64 * zone_cap + stripe * STRIPE_DATA;
            sched
                .submit_write(FG_TENANT, ops, now, off, &block)?
                .admitted(format_args!(
                    "foreground write at zone {zone} stripe {stripe}"
                ))?;
            completions.clear();
            while sched.step(&mut completions)? {}
            for c in &completions {
                if c.tenant == FG_TENANT {
                    now = now.max(c.done);
                    let w = (c.done.as_nanos() / window_ns) as usize;
                    if windows.len() <= w {
                        windows.resize(w + 1, 0);
                    }
                    windows[w] += STRIPE_DATA;
                }
            }
            ops += 1;
            if ops.is_multiple_of(PUMP_OPS) {
                sample_active(&mut max_active);
                if let (Some(mgr), Some(sink)) = (manager, sink.as_mut()) {
                    // Background work: the foreground clock does not wait
                    // for the management completion time — interference
                    // is modeled where it belongs, in device occupancy
                    // (fills collide with writes on shared die groups).
                    mgr.pump_with(now, sink)?;
                }
            }
        }
        if let Some(mgr) = manager {
            if zone >= RESET_LAG {
                mgr.request_reset(zone - RESET_LAG);
            }
        }
    }
    sample_active(&mut max_active);

    let mib_per_window = |sectors: u64| {
        sectors as f64 * SECTOR_SIZE as f64 / (1 << 20) as f64 / (window_ns as f64 / 1e9)
    };
    Ok(SprayOutcome {
        windows_mib_s: windows.iter().map(|&s| mib_per_window(s)).collect(),
        end: now,
        max_active_seen: max_active,
        raizn: volume.stats(),
        tenants: sched.stats(),
        mgmt: manager.map(|m| m.stats()),
        mgmt_io_share: manager.map(|m| m.mgmt_io_share()).unwrap_or(0.0),
        sched_mgmt_ops: run.recorder().count(obs::Counter::SchedMgmtOps),
    })
}

/// The scheduler used by both runs: a foreground tenant and the
/// low-priority internal management tenant (weight 8:1).
///
/// # Errors
///
/// Propagates scheduler construction errors.
pub fn lifecycle_scheduler(
    run: &TimelineRun,
    volume: Arc<RaiznVolume>,
) -> BenchResult<Arc<QosScheduler>> {
    let sched = Arc::new(
        QosScheduler::new(
            Arc::new(ZonedTarget::new(volume)),
            QosConfig {
                stripe_sectors: STRIPE_DATA,
                ..QosConfig::default()
            },
            vec![
                TenantSpec::new("fg").weight(8),
                TenantSpec::new("mgmt").weight(1),
            ],
        )?
        .with_recorder(run.recorder()),
    );
    Ok(sched)
}

/// Active analysis windows: leading/trailing zeros trimmed and the final
/// (typically partial) window dropped when at least two remain.
pub fn active_windows(windows: &[f64]) -> &[f64] {
    let Some(first) = windows.iter().position(|&w| w > 0.0) else {
        return &[];
    };
    let last = windows.iter().rposition(|&w| w > 0.0).unwrap_or(first);
    let end = if last > first { last } else { last + 1 };
    &windows[first..end]
}

/// Median throughput over the active windows (0.0 when there are none).
pub fn median_active(windows: &[f64]) -> f64 {
    let mut v = active_windows(windows).to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// Cliff ratio: post-peak trough over the early peak (best window of the
/// first quarter), like `report`'s decline check. `None` with too few
/// windows.
pub fn cliff_ratio(windows: &[f64]) -> Option<f64> {
    let active = active_windows(windows);
    let head = active.len().div_ceil(4);
    let (peak_at, peak) = active[..head]
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))?;
    let trough = active[peak_at + 1..]
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    (trough.is_finite() && *peak > 0.0).then(|| trough / peak)
}

/// Flat ratio: min/max over the active windows. `None` when empty.
pub fn flat_ratio(windows: &[f64]) -> Option<f64> {
    let active = active_windows(windows);
    let min = active.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = active.iter().cloned().fold(0.0f64, f64::max);
    (max > 0.0).then(|| min / max)
}

/// One tenant's scheduler counters as a JSON object (the `tenants` rows of
/// the qos, lifecycle and lsgc artifacts).
pub fn tenant_json(t: &TenantSnapshot) -> String {
    format!(
        "{{\"name\": \"{}\", \"admitted\": {}, \"completed\": {}, \"shed\": {}, \
         \"deferred\": {}, \"batches\": {}, \"merged\": {}, \"bytes\": {}}}",
        t.name, t.admitted, t.completed, t.shed, t.deferred, t.batches, t.merged, t.bytes
    )
}

/// Joins rendered JSON elements with `", "`.
pub fn join(parts: impl IntoIterator<Item = String>) -> String {
    parts.into_iter().collect::<Vec<_>>().join(", ")
}

pub(crate) fn windows_json(w: &[f64]) -> String {
    join(w.iter().map(|v| format!("{v:.2}")))
}

/// Renders the `kind: "lifecycle"` artifact (`BENCH_ziggurat.json`)
/// from the two spray outcomes and their precomputed band ratios. The
/// schema suite validates this emitter directly, so the artifact the
/// `ziggurat` binary writes and the one the tests check cannot drift
/// apart.
pub fn lifecycle_json(
    nomgr: &SprayOutcome,
    nomgr_cliff: f64,
    mgr: &SprayOutcome,
    mgr_flat: f64,
) -> String {
    let stats = mgr.mgmt.unwrap_or_default();
    format!(
        "{{\n  \"kind\": \"lifecycle\",\n  \"active_limit\": {},\n  \"spray_zones\": {},\n  \
         \"stripes_per_zone\": {},\n  \"reset_lag\": {},\n  \"nomgr\": {{\n    \
         \"windows_mib_s\": [{}],\n    \"cliff_ratio\": {:.4},\n    \
         \"foreground_reclaims\": {},\n    \"zone_finishes\": {},\n    \
         \"max_active_seen\": {},\n    \"duration_ms\": {:.2},\n    \"tenants\": [{}]\n  }},\n  \
         \"mgr\": {{\n    \"windows_mib_s\": [{}],\n    \"flat_ratio\": {:.4},\n    \
         \"foreground_reclaims\": {},\n    \"max_active_seen\": {},\n    \
         \"mgmt_finishes\": {},\n    \"mgmt_resets\": {},\n    \"mgmt_pre_opens\": {},\n    \
         \"mgmt_pumps\": {},\n    \"mgmt_io_share\": {:.4},\n    \"sched_mgmt_ops\": {},\n    \
         \"duration_ms\": {:.2},\n    \"tenants\": [{}]\n  }}\n}}\n",
        ACTIVE_LIMIT,
        SPRAY_ZONES,
        STRIPES_PER_ZONE,
        RESET_LAG,
        windows_json(&nomgr.windows_mib_s),
        nomgr_cliff,
        nomgr.raizn.foreground_reclaims,
        nomgr.raizn.zone_finishes,
        nomgr.max_active_seen,
        nomgr.end.as_nanos() as f64 / 1e6,
        join(nomgr.tenants.iter().map(tenant_json)),
        windows_json(&mgr.windows_mib_s),
        mgr_flat,
        mgr.raizn.foreground_reclaims,
        mgr.max_active_seen,
        stats.finishes,
        stats.resets,
        stats.pre_opens,
        stats.pumps,
        mgr.mgmt_io_share,
        mgr.sched_mgmt_ops,
        mgr.end.as_nanos() as f64 / 1e6,
        join(mgr.tenants.iter().map(tenant_json)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_helpers() {
        // Cliff: peak 100 early, trough 60 later.
        let w = [0.0, 100.0, 95.0, 60.0, 62.0, 61.0, 0.0];
        let cliff = cliff_ratio(&w).unwrap();
        assert!((cliff - 0.6).abs() < 1e-9, "cliff {cliff}");
        // Flat band.
        let w = [0.0, 95.0, 100.0, 96.0, 97.0, 0.0];
        let flat = flat_ratio(&w).unwrap();
        assert!(flat >= 0.95, "flat {flat}");
        assert!(cliff_ratio(&[]).is_none());
        assert!(flat_ratio(&[0.0]).is_none());
        // The trailing partial window is excluded from the band.
        let w = [100.0, 100.0, 12.0];
        assert!(flat_ratio(&w).unwrap() > 0.99);
    }

    #[test]
    fn spray_geometry_is_consistent() {
        // The spray must cross the manager's finish threshold but stay
        // short of full, or the experiment degenerates.
        let cap = ZONE_SECTORS * (ARRAY_DEVICES as u64 - 1);
        let sprayed = STRIPES_PER_ZONE * STRIPE_DATA;
        let threshold = cap * raizn::FINISH_FILL_PERMILLE / 1000;
        assert!(sprayed >= threshold, "spray below finish threshold");
        assert!(sprayed < cap, "spray must not fill the zone");
        const { assert!(SPRAY_ZONES < ZONES - 4, "spray exceeds device zones") };
    }
}
