//! Proactive zone-lifecycle management.
//!
//! With realistic lifecycle costs (finish = fill writes over the
//! unwritten remainder, reset = a multi-millisecond die-group hold,
//! bounded open/active budgets), zone management left to the write path
//! becomes a first-order cost: activating a fresh zone with the active
//! budget exhausted forces a foreground finish, and the triggering write
//! stalls for the victim zone's entire remainder fill (the
//! `reclaim_on_exhaustion` cliff in [`RaiznVolume`]).
//!
//! The [`ZoneLifecycleManager`] takes that work off the critical path:
//!
//! - **Background finish**: zones written past [`FINISH_FILL_PERMILLE`]
//!   and idle across consecutive pumps are finished in the background,
//!   one per pump, releasing their open/active slots before a foreground
//!   write needs them.
//! - **Pre-open**: one empty zone is kept explicitly open ahead of
//!   projected demand, under the open budget, so zone activation never
//!   pays open/eviction stalls inline.
//! - **Reset batching**: resets are queued ([`request_reset`]) and
//!   drained in batches, keeping their die-group holds off the write
//!   path.
//!
//! The policy is fixed: one finish per pump and a two-reset batch keep any
//! single window from absorbing a burst of management IO.
//!
//! The manager is pumped on virtual time (no threads): callers invoke
//! [`pump`](ZoneLifecycleManager::pump) at workload-chosen intervals.
//! Management IO is issued through a [`MgmtSink`] — directly against the
//! volume by default, or through a QoS scheduler adapter so management
//! competes as a low-priority internal tenant instead of preempting
//! foreground IO. Steady-state pumps allocate nothing (the hot-path
//! 0-alloc gate runs with a manager attached).
//!
//! [`request_reset`]: ZoneLifecycleManager::request_reset

use crate::volume::RaiznVolume;
use crate::Result;
use parking_lot::Mutex;
use sim::SimTime;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use zns::{ZoneMgmtOp, ZonedVolume};

/// Where the manager's management IO goes. The direct implementation
/// calls straight into the volume; schedulers adapt this to enqueue the
/// operation as an internal low-priority tenant instead.
pub trait MgmtSink {
    /// Submits one management operation against logical `zone`,
    /// returning its completion (or enqueue) time.
    ///
    /// # Errors
    ///
    /// Propagates volume/scheduler errors.
    fn submit_mgmt(&mut self, at: SimTime, zone: u32, op: ZoneMgmtOp) -> Result<SimTime>;
}

/// Direct-to-volume sink: management operations execute synchronously on
/// the volume at submission time.
struct DirectSink<'a> {
    volume: &'a RaiznVolume,
}

impl MgmtSink for DirectSink<'_> {
    fn submit_mgmt(&mut self, at: SimTime, zone: u32, op: ZoneMgmtOp) -> Result<SimTime> {
        Ok(self.volume.manage(at, zone, op)?.done)
    }
}

/// Fill, in permille of the logical zone capacity, past which an idle
/// zone becomes a background-finish candidate (85 %).
pub const FINISH_FILL_PERMILLE: u64 = 850;

/// Consecutive pumps a candidate's write pointer must hold still before it
/// is finished: a zone still being written is never sealed under the
/// writer.
const IDLE_PUMPS: u32 = 2;

/// Background finishes issued per pump at most; the rest stay pending for
/// later pumps.
const FINISHES_PER_PUMP: usize = 1;

/// Empty zones kept explicitly open ahead of demand.
const PRE_OPEN_ZONES: usize = 1;

/// Open-zone slots left free on every device when pre-opening.
const OPEN_SLACK: u32 = 1;

/// Active-zone slots left free on every device when pre-opening.
const ACTIVE_SLACK: u32 = 2;

/// Queued resets that trigger a drain on the next pump; a smaller queue
/// waits for more requests. `flush_resets` drains regardless.
const RESET_BATCH: usize = 2;

/// Cumulative counters of one manager instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleStats {
    /// Background zone finishes submitted.
    pub finishes: u64,
    /// Batched zone resets submitted.
    pub resets: u64,
    /// Zones pre-opened ahead of demand.
    pub pre_opens: u64,
    /// Pumps executed.
    pub pumps: u64,
}

/// Background zone-lifecycle manager over a [`RaiznVolume`]. See the
/// module docs for the policy; construct with
/// [`ZoneLifecycleManager::new`] and drive with
/// [`pump`](ZoneLifecycleManager::pump).
pub struct ZoneLifecycleManager {
    volume: Arc<RaiznVolume>,
    /// Write pointer observed at the previous pump, per logical zone.
    last_wp: Vec<AtomicU64>,
    /// Consecutive pumps the zone has been an idle finish candidate.
    idle: Vec<AtomicU32>,
    /// Zones this manager already finished (cleared when the zone
    /// returns to empty).
    sealed: Vec<AtomicBool>,
    /// Zones this manager pre-opened that are still unwritten.
    pre_opened: Vec<AtomicBool>,
    /// Reset queue, drained in batches off the critical path.
    pending_resets: Mutex<Vec<u32>>,
    finishes: AtomicU64,
    resets: AtomicU64,
    pre_opens: AtomicU64,
    pumps: AtomicU64,
}

impl ZoneLifecycleManager {
    /// Creates a manager for `volume`. All per-zone state is allocated
    /// here; pumps allocate nothing.
    pub fn new(volume: Arc<RaiznVolume>) -> Self {
        let zones = volume.layout().logical_zones() as usize;
        ZoneLifecycleManager {
            volume,
            last_wp: (0..zones).map(|_| AtomicU64::new(0)).collect(),
            idle: (0..zones).map(|_| AtomicU32::new(0)).collect(),
            sealed: (0..zones).map(|_| AtomicBool::new(false)).collect(),
            pre_opened: (0..zones).map(|_| AtomicBool::new(false)).collect(),
            pending_resets: Mutex::new(Vec::with_capacity(zones)),
            finishes: AtomicU64::new(0),
            resets: AtomicU64::new(0),
            pre_opens: AtomicU64::new(0),
            pumps: AtomicU64::new(0),
        }
    }

    /// The managed volume.
    pub fn volume(&self) -> &Arc<RaiznVolume> {
        &self.volume
    }

    /// Cumulative management counters.
    pub fn stats(&self) -> LifecycleStats {
        LifecycleStats {
            finishes: self.finishes.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
            pre_opens: self.pre_opens.load(Ordering::Relaxed),
            pumps: self.pumps.load(Ordering::Relaxed),
        }
    }

    /// Queues logical `zone` for a batched background reset. The reset
    /// executes on a later [`pump`](Self::pump) (once two requests are
    /// queued) or on [`flush_resets`](Self::flush_resets).
    pub fn request_reset(&self, zone: u32) {
        let mut q = self.pending_resets.lock();
        if !q.contains(&zone) {
            q.push(zone);
        }
    }

    /// Queued resets not yet executed.
    pub fn pending_resets(&self) -> usize {
        self.pending_resets.lock().len()
    }

    /// One management pass at virtual time `now`, issuing management IO
    /// directly against the volume. Returns the latest management
    /// completion time (`now` when nothing was done).
    ///
    /// # Errors
    ///
    /// Propagates volume errors.
    pub fn pump(&self, now: SimTime) -> Result<SimTime> {
        self.pump_with(
            now,
            &mut DirectSink {
                volume: &self.volume,
            },
        )
    }

    /// One management pass at virtual time `now`, issuing management IO
    /// through `sink` (e.g. a QoS-scheduler adapter).
    ///
    /// # Errors
    ///
    /// Propagates sink errors.
    pub fn pump_with(&self, now: SimTime, sink: &mut dyn MgmtSink) -> Result<SimTime> {
        self.pumps.fetch_add(1, Ordering::Relaxed);
        // Every reset/finish/open the pump issues runs as the lifecycle
        // actor: device units it occupies are tagged so foreground ops
        // stalled behind them attribute the wait to lifecycle
        // interference.
        let _actor = obs::actor_scope(obs::Actor::Lifecycle);
        let mut done = now;
        done = done.max(self.drain_resets(now, sink, false)?);
        done = done.max(self.finish_pass(now, sink)?);
        done = done.max(self.pre_open_pass(now, sink)?);
        Ok(done)
    }

    /// Drains the entire reset queue immediately (end-of-phase barrier).
    ///
    /// # Errors
    ///
    /// Propagates sink errors.
    pub fn flush_resets(&self, now: SimTime, sink: &mut dyn MgmtSink) -> Result<SimTime> {
        let _actor = obs::actor_scope(obs::Actor::Lifecycle);
        self.drain_resets(now, sink, true)
    }

    /// Drains the reset queue when it reached the batch threshold (or
    /// unconditionally with `force`).
    fn drain_resets(&self, now: SimTime, sink: &mut dyn MgmtSink, force: bool) -> Result<SimTime> {
        let mut done = now;
        if !force && self.pending_resets.lock().len() < RESET_BATCH {
            return Ok(done);
        }
        // Threshold reached: drain the whole batch.
        loop {
            let zone = {
                let mut q = self.pending_resets.lock();
                if q.is_empty() {
                    return Ok(done);
                }
                q.remove(0)
            };
            done = done.max(sink.submit_mgmt(now, zone, ZoneMgmtOp::Reset)?);
            self.resets.fetch_add(1, Ordering::Relaxed);
            self.sealed[zone as usize].store(false, Ordering::Relaxed);
        }
    }

    /// Finds near-full idle zones and background-finishes up to the
    /// per-pump limit.
    fn finish_pass(&self, now: SimTime, sink: &mut dyn MgmtSink) -> Result<SimTime> {
        let cap = self.volume.layout().logical_geometry().zone_cap();
        let threshold = cap * FINISH_FILL_PERMILLE / 1000;
        let mut done = now;
        let mut issued = 0usize;
        for z in 0..self.last_wp.len() {
            let wp = self.volume.zone_wp[z].load(Ordering::Acquire);
            let last = self.last_wp[z].swap(wp, Ordering::AcqRel);
            if wp == 0 {
                self.idle[z].store(0, Ordering::Relaxed);
                self.sealed[z].store(false, Ordering::Relaxed);
                continue;
            }
            self.pre_opened[z].store(false, Ordering::Relaxed);
            if wp >= cap || self.sealed[z].load(Ordering::Relaxed) || wp < threshold {
                self.idle[z].store(0, Ordering::Relaxed);
                continue;
            }
            let idle = if wp == last {
                self.idle[z].fetch_add(1, Ordering::Relaxed) + 1
            } else {
                self.idle[z].store(0, Ordering::Relaxed);
                0
            };
            if idle < IDLE_PUMPS || issued >= FINISHES_PER_PUMP {
                continue;
            }
            // Re-check under the shard lock: a racing writer may have
            // filled (or a racing reset emptied) the zone since the scan.
            if !self.volume.zone_info(z as u32)?.state.is_writable() {
                self.idle[z].store(0, Ordering::Relaxed);
                continue;
            }
            done = done.max(sink.submit_mgmt(now, z as u32, ZoneMgmtOp::Finish)?);
            self.sealed[z].store(true, Ordering::Relaxed);
            self.idle[z].store(0, Ordering::Relaxed);
            self.finishes.fetch_add(1, Ordering::Relaxed);
            issued += 1;
        }
        Ok(done)
    }

    /// Keeps [`PRE_OPEN_ZONES`] empty zones explicitly open ahead of
    /// demand, under the open/active budgets minus the slack.
    fn pre_open_pass(&self, now: SimTime, sink: &mut dyn MgmtSink) -> Result<SimTime> {
        let mut held = 0usize;
        for z in 0..self.pre_opened.len() {
            if self.pre_opened[z].load(Ordering::Relaxed)
                && self.volume.zone_wp[z].load(Ordering::Acquire) == 0
            {
                held += 1;
            }
        }
        let mut done = now;
        let mut z = 0usize;
        while held < PRE_OPEN_ZONES && z < self.pre_opened.len() {
            if !self.budget_headroom() {
                break;
            }
            let zi = z as u32;
            z += 1;
            if self.pre_opened[zi as usize].load(Ordering::Relaxed)
                || self.volume.zone_wp[zi as usize].load(Ordering::Acquire) != 0
                || self.volume.zone_info(zi)?.state != zns::ZoneState::Empty
            {
                continue;
            }
            done = done.max(sink.submit_mgmt(now, zi, ZoneMgmtOp::Open)?);
            self.pre_opened[zi as usize].store(true, Ordering::Relaxed);
            self.pre_opens.fetch_add(1, Ordering::Relaxed);
            held += 1;
        }
        Ok(done)
    }

    /// Whether every device has open/active headroom beyond the slack for
    /// one more pre-open.
    fn budget_headroom(&self) -> bool {
        let devices = self.volume.members.read();
        devices.devices().iter().all(|dev| {
            let cfg = dev.config();
            dev.open_zones() + OPEN_SLACK < cfg.max_open_zones()
                && dev.active_zones() + ACTIVE_SLACK < cfg.max_active_zones()
        })
    }

    /// Management-IO share of all device write traffic: finish-fill
    /// padding sectors over (padding + host sectors), 0.0 when idle.
    pub fn mgmt_io_share(&self) -> f64 {
        let devices = self.volume.members.read();
        let mut fill = 0u64;
        let mut host = 0u64;
        for dev in devices.devices() {
            let s = dev.stats();
            fill += s.finish_fill_sectors;
            host += s.sectors_written;
        }
        if fill + host == 0 {
            0.0
        } else {
            fill as f64 / (fill + host) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RaiznConfig;
    use zns::{WriteFlags, ZnsConfig, ZnsDevice, SECTOR_SIZE};

    const T0: SimTime = SimTime::ZERO;

    fn volume() -> Arc<RaiznVolume> {
        let devices: Vec<Arc<ZnsDevice>> = (0..5)
            .map(|_| Arc::new(ZnsDevice::new(ZnsConfig::small_test())))
            .collect();
        Arc::new(RaiznVolume::format(devices, RaiznConfig::small_test(), T0).unwrap())
    }

    fn fill(v: &RaiznVolume, zone: u32, sectors: u64) {
        let lgeo = v.layout().logical_geometry();
        let data = vec![0x5Au8; (sectors * SECTOR_SIZE) as usize];
        v.write(T0, lgeo.zone_start(zone), &data, WriteFlags::default())
            .unwrap();
    }

    #[test]
    fn finishes_idle_near_full_zone_after_idle_pumps() {
        let v = volume();
        let mgr = ZoneLifecycleManager::new(v.clone());
        let cap = v.layout().logical_geometry().zone_cap();
        fill(&v, 0, cap * 9 / 10);
        // Pump 1 + 2 observe the idle wp; pump 3 crosses the idle bar.
        for _ in 0..3 {
            mgr.pump(T0).unwrap();
        }
        assert_eq!(v.zone_info(0).unwrap().state, zns::ZoneState::Full);
        assert_eq!(mgr.stats().finishes, 1);
        // Sealed zones are not re-finished.
        mgr.pump(T0).unwrap();
        assert_eq!(mgr.stats().finishes, 1);
    }

    #[test]
    fn below_threshold_or_moving_zones_left_alone() {
        let v = volume();
        let mgr = ZoneLifecycleManager::new(v.clone());
        let cap = v.layout().logical_geometry().zone_cap();
        fill(&v, 0, cap / 2); // below threshold
        for _ in 0..4 {
            mgr.pump(T0).unwrap();
        }
        assert_eq!(mgr.stats().finishes, 0);
        // A near-full zone that keeps moving is never sealed mid-write.
        let lgeo = v.layout().logical_geometry();
        let step = vec![0u8; SECTOR_SIZE as usize];
        let wp = cap / 2;
        let more = vec![0x5Au8; ((cap * 9 / 10 - wp) * SECTOR_SIZE) as usize];
        v.write(T0, lgeo.zone_start(0) + wp, &more, WriteFlags::default())
            .unwrap();
        for wp in cap * 9 / 10..cap * 9 / 10 + 4 {
            v.write(T0, lgeo.zone_start(0) + wp, &step, WriteFlags::default())
                .unwrap();
            mgr.pump(T0).unwrap();
        }
        assert_eq!(mgr.stats().finishes, 0);
    }

    #[test]
    fn reset_batching_waits_for_batch_then_drains() {
        let v = volume();
        let mgr = ZoneLifecycleManager::new(v.clone());
        let cap = v.layout().logical_geometry().zone_cap();
        fill(&v, 0, cap);
        fill(&v, 1, cap);
        mgr.request_reset(0);
        assert_eq!(mgr.pending_resets(), 1);
        mgr.pump(T0).unwrap();
        // One queued reset stays below the batch threshold.
        assert_eq!(mgr.pending_resets(), 1);
        mgr.request_reset(1);
        mgr.pump(T0).unwrap();
        assert_eq!(mgr.pending_resets(), 0);
        assert_eq!(mgr.stats().resets, 2);
        assert_eq!(v.zone_info(0).unwrap().state, zns::ZoneState::Empty);
        assert_eq!(v.zone_info(1).unwrap().state, zns::ZoneState::Empty);
    }

    #[test]
    fn pre_open_respects_budget_slack() {
        let v = volume();
        let mgr = ZoneLifecycleManager::new(v.clone());
        let base: Vec<u32> = v
            .members
            .read()
            .devices()
            .iter()
            .map(|d| d.open_zones())
            .collect();
        let state = |zone| v.zone_info(zone).unwrap().state;
        mgr.pump(T0).unwrap();
        assert_eq!(mgr.stats().pre_opens, 1);
        assert_eq!(state(0), zns::ZoneState::ExplicitlyOpen);
        assert_eq!(state(1), zns::ZoneState::Empty);
        // Every device opened exactly the pre-opened data zone on top of
        // whatever metadata zones it already held open.
        let devs = v.members.read().devices().to_vec();
        for (d, b) in devs.iter().zip(&base) {
            assert_eq!(d.open_zones(), b + 1);
        }
        // A second pump sees the pre-open still held and does nothing.
        mgr.pump(T0).unwrap();
        assert_eq!(mgr.stats().pre_opens, 1);
        // Once written, zone 0 is no longer held, but the partial-parity
        // log the write opened leaves its device only `OPEN_SLACK` open
        // slots: the pump holds back.
        fill(&v, 0, 4);
        mgr.pump(T0).unwrap();
        assert_eq!(mgr.stats().pre_opens, 1);
        assert_eq!(state(1), zns::ZoneState::Empty);
        let pdev = &devs[v.layout().parity_device(0, 0) as usize];
        assert_eq!(
            pdev.open_zones() + OPEN_SLACK,
            pdev.config().max_open_zones()
        );
    }

    #[test]
    fn mgmt_io_share_counts_fill_padding() {
        let v = volume();
        let mgr = ZoneLifecycleManager::new(v.clone());
        assert_eq!(mgr.mgmt_io_share(), 0.0);
        fill(&v, 0, 8);
        // small_test devices model finishes flat (finish_block_sectors =
        // 0), so the share stays 0 here; the ziggurat bench exercises the
        // fill-cost profile.
        assert_eq!(mgr.mgmt_io_share(), 0.0);
    }
}
