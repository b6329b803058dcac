//! The ZNS SSD device model.

use crate::config::{sectors_to_bytes, ZnsConfig};
use crate::crash::CrashPolicy;
use crate::error::ZnsError;
use crate::fault::{FaultOp, FaultPlan};
use crate::geometry::{Lba, ZoneGeometry, SECTOR_SIZE};
use crate::stats::DeviceStats;
use crate::volume::{AppendCompletion, IoCompletion, WriteFlags, ZonedVolume};
use crate::zone::{Zone, ZoneInfo, ZoneState};
use crate::Result;
use parking_lot::Mutex;
use sim::{OccupancyModel, SimTime};

/// A simulated ZNS SSD.
///
/// The device enforces full ZNS write semantics (sequential writes at the
/// write pointer, zone capacity, open/active zone limits with implicit
/// close), models a volatile write cache with in-order durability, and
/// accounts service time on a channel-parallel virtual-time latency model.
///
/// All methods take `&self`; internal state is protected by a mutex so
/// devices can be shared (`Arc<ZnsDevice>`) between a RAIZN volume and test
/// harnesses.
///
/// # Examples
///
/// Sequential-write enforcement:
///
/// ```
/// use zns::{ZnsConfig, ZnsDevice, ZnsError, WriteFlags, ZonedVolume};
/// use sim::SimTime;
///
/// let dev = ZnsDevice::new(ZnsConfig::small_test());
/// let sector = vec![0u8; 4096];
/// dev.write(SimTime::ZERO, 0, &sector, WriteFlags::default()).unwrap();
/// // Skipping a sector is rejected:
/// let err = dev.write(SimTime::ZERO, 2, &sector, WriteFlags::default());
/// assert!(matches!(err, Err(ZnsError::NotSequential { .. })));
/// ```
#[derive(Debug)]
pub struct ZnsDevice {
    config: ZnsConfig,
    /// Discrete-event occupancy model. Lives *outside* the state mutex —
    /// it is lock-free, so concurrent writers to different zones account
    /// service time in parallel without serializing on `inner`.
    timing: OccupancyModel,
    inner: Mutex<Inner>,
    /// Span/counter handle; lives outside the state mutex like `timing`.
    tracer: obs::Tracer,
}

#[derive(Debug)]
struct Inner {
    zones: Vec<Zone>,
    open_count: u32,
    active_count: u32,
    stats: DeviceStats,
    failed: bool,
    write_seq: u64,
    faults: Option<FaultPlan>,
}

impl Inner {
    /// Moves `zone` to `next`; the open/active counters follow from the
    /// (old, new) state pair.
    fn set_state(&mut self, zone: u32, next: ZoneState) {
        let prev = std::mem::replace(&mut self.zones[zone as usize].state, next);
        self.open_count = self.open_count + u32::from(next.is_open()) - u32::from(prev.is_open());
        self.active_count =
            self.active_count + u32::from(next.is_active()) - u32::from(prev.is_active());
    }
}

impl ZnsDevice {
    /// Creates a fresh (all-zones-empty) device.
    pub fn new(config: ZnsConfig) -> Self {
        let zones = (0..config.geometry().num_zones())
            .map(|_| Zone::new())
            .collect();
        let lat = config.latency();
        let timing = OccupancyModel::new(lat.channels, lat.ways, lat.planes);
        ZnsDevice {
            timing,
            inner: Mutex::new(Inner {
                zones,
                open_count: 0,
                active_count: 0,
                stats: DeviceStats::default(),
                failed: false,
                write_seq: 0,
                faults: None,
            }),
            tracer: obs::Tracer::new(),
            config,
        }
    }

    /// Attaches a trace recorder; every subsequent command emits spans
    /// tagged with `dev_id` (the device's index within its array).
    pub fn set_recorder(&self, recorder: std::sync::Arc<obs::Recorder>, dev_id: u32) {
        self.tracer.attach(recorder, dev_id);
    }

    /// Accounts a command's queueing stall behind a busy flash unit: bumps
    /// the device-wait counters and, when the stall is non-zero, emits a
    /// [`obs::Stage::DeviceWait`] span `[at, at + wait)` blamed on the
    /// actor whose work last held the unit (no blame when it was our own
    /// actor class — that is plain queueing, not interference). Returns
    /// the instant the command actually started service, so the caller's
    /// `DeviceIo` span can begin there and the two partition the original
    /// window exactly.
    fn record_wait(
        &self,
        inner: &mut Inner,
        op: obs::OpClass,
        zone: u32,
        lba: Lba,
        at: SimTime,
        occ: sim::Occupied,
    ) -> SimTime {
        if occ.wait_ns == 0 {
            return at;
        }
        inner.stats.device_wait_ns += occ.wait_ns;
        let stalled_until = at + sim::SimDuration::from_nanos(occ.wait_ns);
        self.tracer.add(obs::Counter::DeviceWaitNanos, occ.wait_ns);
        self.tracer.leaf(
            obs::Span::new(op, obs::Stage::DeviceWait, at, stalled_until)
                .zone(zone)
                .lba(lba)
                .behind(obs::Actor::from_u8(occ.prev_tag)),
        );
        stalled_until
    }

    /// The device configuration.
    pub fn config(&self) -> &ZnsConfig {
        &self.config
    }

    /// Cumulative operation counters.
    pub fn stats(&self) -> DeviceStats {
        self.inner.lock().stats
    }

    /// Marks the device failed: every subsequent operation returns
    /// [`ZnsError::DeviceFailed`]. Used for degraded-mode and rebuild
    /// experiments.
    pub fn fail(&self) {
        self.inner.lock().failed = true;
    }

    /// Whether the device is failed.
    pub fn is_failed(&self) -> bool {
        self.inner.lock().failed
    }

    /// Installs (or replaces) the fault-injection plan. Faults persist
    /// across [`crash`](Self::crash) — power loss does not cure media.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.inner.lock().faults = Some(plan);
    }

    /// Removes the fault plan; subsequent operations are fault-free.
    pub fn clear_fault_plan(&self) {
        self.inner.lock().faults = None;
    }

    /// Poisons `[lba, lba + sectors)` with latent read errors, installing
    /// an inert plan if none is set.
    pub fn inject_latent_errors(&self, lba: Lba, sectors: u64) {
        let mut inner = self.inner.lock();
        inner
            .faults
            .get_or_insert_with(|| FaultPlan::new(0))
            .add_latent_range(lba, sectors);
    }

    /// Test support: flips bits (`mask`) in the first stored byte of
    /// `lba`'s sector, simulating silent corruption that only a parity
    /// scrub can detect. No-op when the device discards data or the
    /// sector is unwritten.
    #[doc(hidden)]
    pub fn corrupt_sector_for_test(&self, lba: Lba, mask: u8) {
        let geo = self.config.geometry();
        let zone = geo.zone_of(lba);
        let rel = geo.offset_in_zone(lba);
        let mut inner = self.inner.lock();
        if let Some(data) = inner.zones[zone as usize].data.as_mut() {
            data[sectors_to_bytes(rel)] ^= mask;
        }
    }

    /// Counts one operation of class `op` against the fault plan and
    /// fails it transiently if the plan says so. Called before any state
    /// changes, so a retry of the same command can succeed.
    fn inject_fault(inner: &mut Inner, op: FaultOp) -> Result<()> {
        if let Some(plan) = inner.faults.as_mut() {
            if plan.fire_transient(op) {
                inner.stats.injected_transients += 1;
                return Err(ZnsError::TransientError { op });
            }
        }
        Ok(())
    }

    /// Fails a read that touches a poisoned (latent-error) sector.
    fn check_latent(inner: &mut Inner, lba: Lba, sectors: u64) -> Result<()> {
        if let Some(bad) = inner
            .faults
            .as_ref()
            .and_then(|plan| plan.first_latent_in(lba, sectors))
        {
            inner.stats.injected_media_errors += 1;
            return Err(ZnsError::MediaError { lba: bad });
        }
        Ok(())
    }

    /// Simulates power loss: for every zone, a policy-chosen prefix of the
    /// cached (non-durable) data survives; the rest is lost. Open zones
    /// drop to closed/empty/full as appropriate and the command pipeline is
    /// cleared.
    ///
    /// Returns the per-zone surviving write pointers (relative sectors) for
    /// test assertions.
    pub fn crash(&self, policy: &mut CrashPolicy) -> Vec<u64> {
        let mut inner = self.inner.lock();
        let cap = self.config.geometry().zone_cap();
        let mut survivors = Vec::with_capacity(inner.zones.len());
        let mut open = 0;
        let mut active = 0;
        for (idx, z) in inner.zones.iter_mut().enumerate() {
            match z.state {
                ZoneState::ReadOnly | ZoneState::Offline => {
                    survivors.push(z.wp);
                    continue;
                }
                _ => {}
            }
            let was_full = z.state == ZoneState::Full;
            let survive = policy.survivor(idx as u32, z.durable, z.wp);
            let lost_nothing = survive == z.wp;
            z.wp = survive;
            z.durable = survive;
            if survive == 0 {
                z.data = None;
            }
            z.state = if was_full && lost_nothing {
                // A finished zone is durably sealed (finish implies
                // durability), so it stays full across power loss — even a
                // finished-while-empty zone.
                ZoneState::Full
            } else if survive == 0 {
                ZoneState::Empty
            } else if survive == cap {
                ZoneState::Full
            } else {
                ZoneState::Closed
            };
            if z.state.is_open() {
                open += 1;
            }
            if z.state.is_active() {
                active += 1;
            }
            survivors.push(survive);
        }
        inner.open_count = open;
        inner.active_count = active;
        self.timing.reset();
        survivors
    }

    /// Reads back the durable write pointer of `zone` (relative sectors),
    /// for test assertions about cache behaviour.
    pub fn durable_wp(&self, zone: u32) -> u64 {
        self.inner.lock().zones[zone as usize].durable
    }

    /// Number of currently open zones (implicit + explicit), for
    /// open-budget headroom checks.
    pub fn open_zones(&self) -> u32 {
        self.inner.lock().open_count
    }

    /// Number of currently active zones (open + closed), for active-budget
    /// headroom checks.
    pub fn active_zones(&self) -> u32 {
        self.inner.lock().active_count
    }

    /// The earliest instant every flash parallelism unit is free — i.e.
    /// when in-flight service (including lifecycle fills and reset holds)
    /// has drained.
    pub fn drained_at(&self) -> SimTime {
        self.timing.drained_at()
    }

    /// Forces `zone` into the read-only failure state (media wear
    /// injection).
    pub fn set_zone_read_only(&self, zone: u32) {
        self.inner.lock().set_state(zone, ZoneState::ReadOnly);
    }

    /// Forces `zone` offline (media failure injection); its data is gone.
    pub fn set_zone_offline(&self, zone: u32) {
        let mut inner = self.inner.lock();
        inner.set_state(zone, ZoneState::Offline);
        inner.zones[zone as usize].data = None;
    }

    fn check_alive(inner: &Inner) -> Result<()> {
        if inner.failed {
            Err(ZnsError::DeviceFailed)
        } else {
            Ok(())
        }
    }

    /// The open/active budgets of a writable zone in `state` that is about
    /// to be opened: an empty zone takes an active slot, and a zone not yet
    /// open takes an open slot, made by implicit-close eviction when none
    /// is free. Returns when the zone is ready: `at` unless an eviction had
    /// to run first, whose management stall delays the triggering command.
    fn admit_open(&self, inner: &mut Inner, state: ZoneState, at: SimTime) -> Result<SimTime> {
        if state == ZoneState::Empty && inner.active_count >= self.config.max_active_zones() {
            return Err(ZnsError::TooManyActiveZones {
                limit: self.config.max_active_zones(),
            });
        }
        if !state.is_open() && inner.open_count >= self.config.max_open_zones() {
            return self.evict_implicitly_open(inner, at);
        }
        Ok(at)
    }

    /// Implicitly closes the least-recently-written implicitly-open zone,
    /// as real controllers do to make room (NVMe ZNS §2.4.4). The close is
    /// not free: it occupies the device for a management slot, and the
    /// returned completion time delays whatever write forced it.
    fn evict_implicitly_open(&self, inner: &mut Inner, at: SimTime) -> Result<SimTime> {
        let victim = inner
            .zones
            .iter()
            .enumerate()
            .filter(|(_, z)| z.state == ZoneState::ImplicitlyOpen)
            .min_by_key(|(_, z)| z.last_write_seq)
            .map(|(i, _)| i);
        match victim {
            Some(i) => {
                // A zone with wp == 0 cannot be implicitly open (it would be
                // empty), so the victim transitions to closed.
                inner.set_state(i as u32, ZoneState::Closed);
                inner.stats.implicit_closes += 1;
                let tag = obs::current_actor().as_u8();
                Ok(self
                    .timing
                    .occupy_tagged(at, self.config.latency().zone_mgmt, tag)
                    .done)
            }
            None => Err(ZnsError::TooManyOpenZones {
                limit: self.config.max_open_zones(),
            }),
        }
    }

    /// Shared implementation for write and append, whose arguments the
    /// caller checked: `rel` is the write's offset in `zone` (an append
    /// has none: it lands at the write pointer), `op` tells the two apart
    /// for fault accounting.
    fn do_write(
        &self,
        at: SimTime,
        zone: u32,
        rel: Option<u64>,
        data: &[u8],
        flags: WriteFlags,
        op: FaultOp,
    ) -> Result<AppendCompletion> {
        let geo = self.config.geometry();
        let sectors = data.len() as u64 / SECTOR_SIZE;
        let opclass = if op == FaultOp::Append {
            obs::OpClass::Append
        } else {
            obs::OpClass::Write
        };
        let mut inner = self.inner.lock();
        Self::check_alive(&inner)?;
        if let Err(e) = Self::inject_fault(&mut inner, op) {
            self.tracer.leaf(
                obs::Span::new(opclass, obs::Stage::DeviceIo, at, at)
                    .zone(zone)
                    .lba(geo.zone_start(zone))
                    .sectors(sectors)
                    .outcome(obs::Outcome::Transient),
            );
            return Err(e);
        }
        let (state, wp) = {
            let z = &inner.zones[zone as usize];
            (z.state, z.wp)
        };
        state.check_write(&geo, zone, wp, rel.unwrap_or(wp), sectors)?;
        let ready = self.admit_open(&mut inner, state, at)?;

        // A preflush makes all *prior* cached writes durable before this
        // write's data lands; the new write itself is only durable if FUA
        // is also set.
        let lat = self.config.latency().clone();
        let mut issue = ready;
        if flags.preflush {
            for z in inner.zones.iter_mut() {
                z.durable = z.wp;
            }
            issue = self.timing.drained_at().max(issue) + lat.flush;
            inner.stats.flushes += 1;
            self.tracer.bump(obs::Counter::CacheFlushes);
            self.tracer
                .leaf(obs::Span::new(obs::OpClass::Flush, obs::Stage::Flush, at, issue).zone(zone));
        }

        let assigned = geo.zone_start(zone) + wp;
        inner.write_seq += 1;
        let seq = inner.write_seq;
        let store = self.config.stores_data();
        let cap_bytes = sectors_to_bytes(geo.zone_cap());
        {
            let z = &mut inner.zones[zone as usize];
            if store {
                let buf = z
                    .data
                    .get_or_insert_with(|| vec![0u8; cap_bytes].into_boxed_slice());
                let off = sectors_to_bytes(wp);
                buf[off..off + data.len()].copy_from_slice(data);
            }
            z.wp += sectors;
            z.last_write_seq = seq;
        }
        inner.set_state(zone, state.after_write(wp + sectors, geo.zone_cap()));

        let start = issue + lat.command_overhead;
        let (done, first) = self.occupy_chunks(zone, start, sectors, lat.write_per_sector);
        if flags.fua {
            let z = &mut inner.zones[zone as usize];
            z.durable = z.wp;
            inner.stats.fua_writes += 1;
        }
        inner.stats.writes += 1;
        inner.stats.sectors_written += sectors;
        let served = match first {
            Some(occ) => self.record_wait(&mut inner, opclass, zone, assigned, start, occ),
            None => start,
        };
        self.tracer.leaf(
            obs::Span::new(opclass, obs::Stage::DeviceIo, served.min(done), done)
                .zone(zone)
                .lba(assigned)
                .sectors(sectors),
        );
        Ok(AppendCompletion {
            lba: assigned,
            done,
        })
    }

    /// Occupies `zone`'s flash units with `sectors` of service at
    /// `per_sector` from `start`, in chunks that run in parallel; returns
    /// the completion and the first chunk's occupancy. Only that first
    /// chunk's stall is genuine queueing: later chunks issued at the same
    /// instant wait behind this command's own earlier chunks, which is
    /// pipelined service, not device wait.
    fn occupy_chunks(
        &self,
        zone: u32,
        start: SimTime,
        sectors: u64,
        per_sector: sim::SimDuration,
    ) -> (SimTime, Option<sim::Occupied>) {
        let chunk_sectors = self.config.latency().chunk_sectors;
        let tag = obs::current_actor().as_u8();
        let mut done = start;
        let mut first = None;
        let mut remaining = sectors;
        while remaining > 0 {
            let chunk = remaining.min(chunk_sectors);
            let dur = per_sector.saturating_mul(chunk);
            let occ = self
                .timing
                .occupy_affine_tagged(zone as u64, start, dur, tag);
            done = done.max(occ.done);
            first.get_or_insert(occ);
            remaining -= chunk;
        }
        (done, first)
    }

    fn mgmt_completion(&self, at: SimTime, dur: sim::SimDuration) -> SimTime {
        // Management commands stamp the unit with the ambient actor so a
        // later foreground stall behind them is blamed on the right party.
        self.timing
            .occupy_tagged(at, dur, obs::current_actor().as_u8())
            .done
    }
}

impl ZonedVolume for ZnsDevice {
    fn geometry(&self) -> ZoneGeometry {
        self.config.geometry()
    }

    fn read(&self, at: SimTime, lba: Lba, buf: &mut [u8]) -> Result<IoCompletion> {
        let geo = self.config.geometry();
        let (zone, rel, sectors) = geo.check_io(lba, buf.len())?;
        let mut inner = self.inner.lock();
        Self::check_alive(&inner)?;
        Self::inject_fault(&mut inner, FaultOp::Read)?;
        {
            let z = &inner.zones[zone as usize];
            z.state.check_read(&geo, zone, z.wp, rel, sectors)?;
        }
        if let Err(e) = Self::check_latent(&mut inner, lba, sectors) {
            self.tracer.leaf(
                obs::Span::new(obs::OpClass::Read, obs::Stage::DeviceIo, at, at)
                    .zone(zone)
                    .lba(lba)
                    .sectors(sectors)
                    .outcome(obs::Outcome::Media),
            );
            return Err(e);
        }
        {
            let z = &inner.zones[zone as usize];
            if self.config.stores_data() {
                let data = z.data.as_ref().expect("written zone has a buffer");
                let off = sectors_to_bytes(rel);
                buf.copy_from_slice(&data[off..off + buf.len()]);
            } else {
                buf.fill(0);
            }
        }
        let lat = self.config.latency();
        let start = at + lat.command_overhead;
        let (done, first) = self.occupy_chunks(zone, start, sectors, lat.read_per_sector);
        inner.stats.reads += 1;
        inner.stats.sectors_read += sectors;
        let served = match first {
            Some(occ) => self.record_wait(&mut inner, obs::OpClass::Read, zone, lba, start, occ),
            None => start,
        };
        self.tracer.leaf(
            obs::Span::new(
                obs::OpClass::Read,
                obs::Stage::DeviceIo,
                served.min(done),
                done,
            )
            .zone(zone)
            .lba(lba)
            .sectors(sectors),
        );
        Ok(IoCompletion { done })
    }

    fn write(&self, at: SimTime, lba: Lba, data: &[u8], flags: WriteFlags) -> Result<IoCompletion> {
        let (zone, rel, _) = self.config.geometry().check_io(lba, data.len())?;
        self.do_write(at, zone, Some(rel), data, flags, FaultOp::Write)
            .map(|c| IoCompletion { done: c.done })
    }

    fn append(
        &self,
        at: SimTime,
        zone: u32,
        data: &[u8],
        flags: WriteFlags,
    ) -> Result<AppendCompletion> {
        self.config.geometry().check_append(zone, data.len())?;
        self.do_write(at, zone, None, data, flags, FaultOp::Append)
    }

    fn reset_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        let geo = self.config.geometry();
        geo.check_zone(zone)?;
        let mut inner = self.inner.lock();
        Self::check_alive(&inner)?;
        Self::inject_fault(&mut inner, FaultOp::Reset)?;
        let next = inner.zones[zone as usize].state.reset(zone)?;
        inner.set_state(zone, next);
        {
            let z = &mut inner.zones[zone as usize];
            z.wp = 0;
            z.durable = 0;
            z.data = None;
        }
        // Resetting remaps the zone's media, curing its latent sectors.
        if let Some(plan) = inner.faults.as_mut() {
            plan.clear_latent_range(geo.zone_start(zone), geo.zone_size());
        }
        inner.stats.zone_resets += 1;
        // A reset holds the zone's die group busy for the erase window
        // (~3 ms on the ZN540-like profile), so foreground IO mapped to
        // the same flash parallelism units queues behind it.
        let dur = self.config.latency().reset;
        let tag = obs::current_actor().as_u8();
        let occ = self.timing.occupy_affine_tagged(zone as u64, at, dur, tag);
        let done = occ.done;
        let served = self.record_wait(
            &mut inner,
            obs::OpClass::Reset,
            zone,
            geo.zone_start(zone),
            at,
            occ,
        );
        self.tracer.leaf(
            obs::Span::new(
                obs::OpClass::Reset,
                obs::Stage::DeviceIo,
                served.min(done),
                done,
            )
            .zone(zone)
            .lba(geo.zone_start(zone)),
        );
        Ok(IoCompletion { done })
    }

    fn finish_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        let geo = self.config.geometry();
        geo.check_zone(zone)?;
        let mut inner = self.inner.lock();
        Self::check_alive(&inner)?;
        let state = inner.zones[zone as usize].state;
        let next = state.finish(zone)?;
        let lat = self.config.latency().clone();
        let tag = obs::current_actor().as_u8();
        let mut first: Option<sim::Occupied> = None;
        let mut fill_done = at;
        // Finishing a full zone changes nothing but still costs the command.
        if next != state {
            inner.set_state(zone, next);
            // Finishing durably seals the written prefix.
            let wp = {
                let z = &mut inner.zones[zone as usize];
                z.durable = z.wp;
                z.wp
            };
            // The controller pads the unwritten remainder with
            // block-sized program operations (ConfZNS++'s
            // FINISH_BLOCK_SIZE model). The fills are sequential
            // within the zone, so they chain on the zone's die group
            // rather than spreading across the whole device.
            if lat.finish_block_sectors > 0 {
                let mut left = geo.zone_cap() - wp;
                inner.stats.finish_fill_sectors += left;
                while left > 0 {
                    let blk = left.min(lat.finish_block_sectors);
                    let occ = self.timing.occupy_affine_tagged(
                        zone as u64,
                        fill_done,
                        lat.write_per_sector.saturating_mul(blk),
                        tag,
                    );
                    fill_done = occ.done;
                    first.get_or_insert(occ);
                    left -= blk;
                }
            }
        }
        inner.stats.zone_finishes += 1;
        let occ = self.timing.occupy_tagged(fill_done, lat.finish, tag);
        let done = occ.done;
        let occ0 = *first.get_or_insert(occ);
        let served = self.record_wait(&mut inner, obs::OpClass::Finish, zone, 0, at, occ0);
        self.tracer.leaf(
            obs::Span::new(
                obs::OpClass::Finish,
                obs::Stage::DeviceIo,
                served.min(done),
                done,
            )
            .zone(zone),
        );
        Ok(IoCompletion { done })
    }

    fn open_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        self.config.geometry().check_zone(zone)?;
        let mut inner = self.inner.lock();
        Self::check_alive(&inner)?;
        let state = inner.zones[zone as usize].state;
        let next = state.open(zone)?;
        let issue = self.admit_open(&mut inner, state, at)?;
        inner.set_state(zone, next);
        let dur = self.config.latency().zone_mgmt;
        let done = self.mgmt_completion(issue, dur);
        Ok(IoCompletion { done })
    }

    fn close_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        self.config.geometry().check_zone(zone)?;
        let mut inner = self.inner.lock();
        Self::check_alive(&inner)?;
        let z = &inner.zones[zone as usize];
        let next = z.state.close(zone, z.wp)?;
        inner.set_state(zone, next);
        let dur = self.config.latency().zone_mgmt;
        let done = self.mgmt_completion(at, dur);
        Ok(IoCompletion { done })
    }

    fn flush(&self, at: SimTime) -> Result<IoCompletion> {
        let mut inner = self.inner.lock();
        Self::check_alive(&inner)?;
        for z in inner.zones.iter_mut() {
            z.durable = z.wp;
        }
        inner.stats.flushes += 1;
        let done = self.timing.drained_at().max(at) + self.config.latency().flush;
        self.tracer.bump(obs::Counter::CacheFlushes);
        self.tracer.leaf(obs::Span::new(
            obs::OpClass::Flush,
            obs::Stage::Flush,
            at,
            done,
        ));
        Ok(IoCompletion { done })
    }

    fn zone_info(&self, zone: u32) -> Result<ZoneInfo> {
        let geo = self.config.geometry();
        geo.check_zone(zone)?;
        let inner = self.inner.lock();
        let z = &inner.zones[zone as usize];
        Ok(geo.info(zone, z.state, z.wp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatencyConfig;

    fn dev() -> ZnsDevice {
        ZnsDevice::new(ZnsConfig::small_test())
    }

    fn sectors(n: u64) -> Vec<u8> {
        vec![0xAB; (n * SECTOR_SIZE) as usize]
    }

    #[test]
    fn write_then_read_roundtrip() {
        let d = dev();
        let mut data = sectors(2);
        data[0] = 1;
        data[4096] = 2;
        d.write(SimTime::ZERO, 0, &data, WriteFlags::default())
            .unwrap();
        let mut out = sectors(2);
        d.read(SimTime::ZERO, 0, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn nonsequential_write_rejected() {
        let d = dev();
        let err = d
            .write(SimTime::ZERO, 5, &sectors(1), WriteFlags::default())
            .unwrap_err();
        assert!(matches!(
            err,
            ZnsError::NotSequential {
                expected: 0,
                got: 5,
                ..
            }
        ));
    }

    #[test]
    fn write_pointer_advances_and_fills_zone() {
        // zone_size (64) > zone_cap (48): the cap..size gap is unwritable.
        let cfg = ZnsConfig::builder().zones(4, 64, 48).build();
        let d = ZnsDevice::new(cfg);
        d.write(SimTime::ZERO, 0, &sectors(48), WriteFlags::default())
            .unwrap();
        let info = d.zone_info(0).unwrap();
        assert_eq!(info.state, ZoneState::Full);
        assert_eq!(info.write_pointer, 48);
        // Writing into the cap..size gap of the now-full zone fails.
        let err = d
            .write(SimTime::ZERO, 48, &sectors(1), WriteFlags::default())
            .unwrap_err();
        assert!(matches!(err, ZnsError::ZoneFull { zone: 0 }));
        // The next zone starts at the zone_size stride, not at cap.
        d.write(SimTime::ZERO, 64, &sectors(1), WriteFlags::default())
            .unwrap();
    }

    #[test]
    fn write_beyond_capacity_rejected() {
        let d = dev();
        let cap = d.geometry().zone_cap();
        let err = d
            .write(SimTime::ZERO, 0, &sectors(cap + 1), WriteFlags::default())
            .unwrap_err();
        assert!(matches!(
            err,
            ZnsError::ZoneFull { zone: 0 } | ZnsError::ZoneBoundary { .. }
        ));
    }

    #[test]
    fn read_unwritten_rejected() {
        let d = dev();
        d.write(SimTime::ZERO, 0, &sectors(1), WriteFlags::default())
            .unwrap();
        let mut buf = sectors(2);
        let err = d.read(SimTime::ZERO, 0, &mut buf).unwrap_err();
        assert!(matches!(err, ZnsError::ReadUnwritten { lba: 1 }));
    }

    #[test]
    fn append_returns_assigned_lba() {
        let d = dev();
        let a = d
            .append(SimTime::ZERO, 3, &sectors(2), WriteFlags::default())
            .unwrap();
        let start = d.geometry().zone_start(3);
        assert_eq!(a.lba, start);
        let b = d
            .append(SimTime::ZERO, 3, &sectors(1), WriteFlags::default())
            .unwrap();
        assert_eq!(b.lba, start + 2);
    }

    #[test]
    fn reset_empties_zone() {
        let d = dev();
        d.write(SimTime::ZERO, 0, &sectors(4), WriteFlags::default())
            .unwrap();
        d.reset_zone(SimTime::ZERO, 0).unwrap();
        let info = d.zone_info(0).unwrap();
        assert_eq!(info.state, ZoneState::Empty);
        assert_eq!(info.write_pointer, 0);
        // After reset the zone is writable from the start again.
        d.write(SimTime::ZERO, 0, &sectors(1), WriteFlags::default())
            .unwrap();
    }

    #[test]
    fn finish_seals_zone() {
        let d = dev();
        d.write(SimTime::ZERO, 0, &sectors(2), WriteFlags::default())
            .unwrap();
        d.finish_zone(SimTime::ZERO, 0).unwrap();
        let info = d.zone_info(0).unwrap();
        assert_eq!(info.state, ZoneState::Full);
        assert_eq!(info.write_pointer, 2); // readable prefix preserved
        let err = d
            .write(SimTime::ZERO, 2, &sectors(1), WriteFlags::default())
            .unwrap_err();
        assert!(matches!(err, ZnsError::ZoneFull { zone: 0 }));
    }

    #[test]
    fn open_limit_evicts_implicitly_open_lru() {
        let d = dev(); // max_open = 4
        for z in 0..5u32 {
            let start = d.geometry().zone_start(z);
            d.write(SimTime::ZERO, start, &sectors(1), WriteFlags::default())
                .unwrap();
        }
        // Zone 0 (LRU) was implicitly closed to admit zone 4.
        assert_eq!(d.zone_info(0).unwrap().state, ZoneState::Closed);
        assert_eq!(d.zone_info(4).unwrap().state, ZoneState::ImplicitlyOpen);
    }

    #[test]
    fn active_limit_enforced() {
        let d = dev(); // max_active = 6
        for z in 0..6u32 {
            let start = d.geometry().zone_start(z);
            d.write(SimTime::ZERO, start, &sectors(1), WriteFlags::default())
                .unwrap();
        }
        let start = d.geometry().zone_start(6);
        let err = d
            .write(SimTime::ZERO, start, &sectors(1), WriteFlags::default())
            .unwrap_err();
        assert!(matches!(err, ZnsError::TooManyActiveZones { limit: 6 }));
        // Filling a zone to Full releases an active slot.
        let cap = d.geometry().zone_cap();
        let wp = d.zone_info(0).unwrap().write_pointer;
        d.write(SimTime::ZERO, wp, &sectors(cap - 1), WriteFlags::default())
            .unwrap();
        d.write(SimTime::ZERO, start, &sectors(1), WriteFlags::default())
            .unwrap();
    }

    #[test]
    fn explicit_open_close_lifecycle() {
        let d = dev();
        d.open_zone(SimTime::ZERO, 2).unwrap();
        assert_eq!(d.zone_info(2).unwrap().state, ZoneState::ExplicitlyOpen);
        // Closing an unwritten explicitly-open zone returns it to empty.
        d.close_zone(SimTime::ZERO, 2).unwrap();
        assert_eq!(d.zone_info(2).unwrap().state, ZoneState::Empty);
        // Closing a written zone parks it at closed.
        d.write(SimTime::ZERO, 0, &sectors(1), WriteFlags::default())
            .unwrap();
        d.close_zone(SimTime::ZERO, 0).unwrap();
        assert_eq!(d.zone_info(0).unwrap().state, ZoneState::Closed);
        let err = d.close_zone(SimTime::ZERO, 0).unwrap_err();
        assert!(matches!(err, ZnsError::BadZoneState { .. }));
    }

    #[test]
    fn cached_writes_lost_on_crash_durable_kept() {
        let d = dev();
        d.write(SimTime::ZERO, 0, &sectors(2), WriteFlags::default())
            .unwrap();
        d.flush(SimTime::ZERO).unwrap();
        d.write(SimTime::ZERO, 2, &sectors(3), WriteFlags::default())
            .unwrap();
        assert_eq!(d.durable_wp(0), 2);
        d.crash(&mut CrashPolicy::LoseCache);
        let info = d.zone_info(0).unwrap();
        assert_eq!(info.write_pointer, 2);
        assert_eq!(info.state, ZoneState::Closed);
        // Data below the survivor is still readable.
        let mut buf = sectors(2);
        d.read(SimTime::ZERO, 0, &mut buf).unwrap();
    }

    #[test]
    fn fua_write_makes_prefix_durable() {
        let d = dev();
        d.write(SimTime::ZERO, 0, &sectors(2), WriteFlags::default())
            .unwrap();
        d.write(SimTime::ZERO, 2, &sectors(1), WriteFlags::FUA)
            .unwrap();
        assert_eq!(d.durable_wp(0), 3);
        d.crash(&mut CrashPolicy::LoseCache);
        assert_eq!(d.zone_info(0).unwrap().write_pointer, 3);
    }

    #[test]
    fn preflush_makes_other_zones_durable() {
        let d = dev();
        d.write(SimTime::ZERO, 0, &sectors(2), WriteFlags::default())
            .unwrap();
        let z1 = d.geometry().zone_start(1);
        d.write(
            SimTime::ZERO,
            z1,
            &sectors(1),
            WriteFlags {
                fua: false,
                preflush: true,
            },
        )
        .unwrap();
        assert_eq!(d.durable_wp(0), 2);
        // The preflush write itself is not durable (no FUA).
        assert_eq!(d.durable_wp(1), 0);
    }

    #[test]
    fn crash_keep_cache_preserves_everything() {
        let d = dev();
        d.write(SimTime::ZERO, 0, &sectors(5), WriteFlags::default())
            .unwrap();
        d.crash(&mut CrashPolicy::KeepCache);
        assert_eq!(d.zone_info(0).unwrap().write_pointer, 5);
    }

    #[test]
    fn failed_device_rejects_everything() {
        let d = dev();
        d.write(SimTime::ZERO, 0, &sectors(1), WriteFlags::default())
            .unwrap();
        d.fail();
        assert!(d.is_failed());
        let mut buf = sectors(1);
        assert!(matches!(
            d.read(SimTime::ZERO, 0, &mut buf),
            Err(ZnsError::DeviceFailed)
        ));
        assert!(matches!(
            d.write(SimTime::ZERO, 1, &sectors(1), WriteFlags::default()),
            Err(ZnsError::DeviceFailed)
        ));
        assert!(matches!(
            d.flush(SimTime::ZERO),
            Err(ZnsError::DeviceFailed)
        ));
        assert!(matches!(
            d.reset_zone(SimTime::ZERO, 0),
            Err(ZnsError::DeviceFailed)
        ));
    }

    #[test]
    fn offline_zone_unreadable() {
        let d = dev();
        d.write(SimTime::ZERO, 0, &sectors(1), WriteFlags::default())
            .unwrap();
        d.set_zone_offline(0);
        let mut buf = sectors(1);
        assert!(matches!(
            d.read(SimTime::ZERO, 0, &mut buf),
            Err(ZnsError::ZoneOffline { zone: 0 })
        ));
        assert!(matches!(
            d.reset_zone(SimTime::ZERO, 0),
            Err(ZnsError::ZoneOffline { zone: 0 })
        ));
    }

    #[test]
    fn read_only_zone_readable_not_writable() {
        let d = dev();
        d.write(SimTime::ZERO, 0, &sectors(1), WriteFlags::default())
            .unwrap();
        d.set_zone_read_only(0);
        let mut buf = sectors(1);
        d.read(SimTime::ZERO, 0, &mut buf).unwrap();
        assert!(matches!(
            d.write(SimTime::ZERO, 1, &sectors(1), WriteFlags::default()),
            Err(ZnsError::ZoneReadOnly { zone: 0 })
        ));
    }

    #[test]
    fn stats_are_counted() {
        let d = dev();
        d.write(SimTime::ZERO, 0, &sectors(2), WriteFlags::FUA)
            .unwrap();
        let mut buf = sectors(1);
        d.read(SimTime::ZERO, 0, &mut buf).unwrap();
        d.flush(SimTime::ZERO).unwrap();
        d.reset_zone(SimTime::ZERO, 0).unwrap();
        let s = d.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.sectors_written, 2);
        assert_eq!(s.fua_writes, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.sectors_read, 1);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.zone_resets, 1);
    }

    #[test]
    fn timing_advances_virtual_time() {
        let cfg = ZnsConfig::builder()
            .zones(4, 1024, 1024)
            .open_limits(4, 4)
            .latency(LatencyConfig::zns_ssd())
            .build();
        let d = ZnsDevice::new(cfg);
        let c = d
            .write(SimTime::ZERO, 0, &sectors(1), WriteFlags::default())
            .unwrap();
        assert!(c.done > SimTime::ZERO);
        // A second write queues behind the first on the same channel set.
        let c2 = d
            .write(SimTime::ZERO, 1, &sectors(1), WriteFlags::default())
            .unwrap();
        assert!(c2.done >= c.done);
    }

    #[test]
    fn sustained_write_throughput_near_target() {
        // The ZNS latency preset should deliver ~1.0-1.1 GiB/s sequential
        // write throughput for large IOs.
        let cfg = ZnsConfig::builder()
            .zones(8, 262_144, 262_144)
            .open_limits(4, 4)
            .latency(LatencyConfig::zns_ssd())
            .store_data(false)
            .build();
        let d = ZnsDevice::new(cfg);
        let io = sectors(256); // 1 MiB
        let mut done = SimTime::ZERO;
        let total: u64 = 512 * 1024 * 1024; // 512 MiB
        let mut lba = 0;
        for _ in 0..(total / (1024 * 1024)) {
            done = d
                .write(SimTime::ZERO, lba, &io, WriteFlags::default())
                .unwrap()
                .done;
            lba += 256;
        }
        let mib_s = 512.0 / done.as_secs_f64();
        assert!(
            (900.0..1300.0).contains(&mib_s),
            "unexpected write throughput {mib_s} MiB/s"
        );
    }

    #[test]
    fn discard_mode_reads_zeros() {
        let cfg = ZnsConfig::builder().store_data(false).build();
        let d = ZnsDevice::new(cfg);
        d.write(SimTime::ZERO, 0, &sectors(1), WriteFlags::default())
            .unwrap();
        let mut buf = vec![9u8; SECTOR_SIZE as usize];
        d.read(SimTime::ZERO, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|b| *b == 0));
    }

    #[test]
    fn unaligned_buffer_rejected() {
        let d = dev();
        let err = d
            .write(SimTime::ZERO, 0, &[0u8; 100], WriteFlags::default())
            .unwrap_err();
        assert!(matches!(err, ZnsError::InvalidArgument(_)));
        let mut small = vec![0u8; 0];
        let err = d.read(SimTime::ZERO, 0, &mut small).unwrap_err();
        assert!(matches!(err, ZnsError::InvalidArgument(_)));
    }

    #[test]
    fn zone_report_covers_all_zones() {
        let d = dev();
        let report = d.zone_report().unwrap();
        assert_eq!(report.len(), 16);
        assert!(report.iter().all(|z| z.state == ZoneState::Empty));
    }

    #[test]
    fn nth_write_fault_fails_once_then_recovers() {
        let d = dev();
        d.set_fault_plan(FaultPlan::new(1).fail_nth(FaultOp::Write, 2));
        d.write(SimTime::ZERO, 0, &sectors(1), WriteFlags::default())
            .unwrap();
        let err = d
            .write(SimTime::ZERO, 1, &sectors(1), WriteFlags::default())
            .unwrap_err();
        assert_eq!(err, ZnsError::TransientError { op: FaultOp::Write });
        // The failed write changed no state: the retry lands at the same
        // write pointer.
        d.write(SimTime::ZERO, 1, &sectors(1), WriteFlags::default())
            .unwrap();
        assert_eq!(d.zone_info(0).unwrap().write_pointer, 2);
        assert_eq!(d.stats().injected_transients, 1);
    }

    #[test]
    fn latent_error_hits_reads_until_zone_reset() {
        let d = dev();
        d.write(SimTime::ZERO, 0, &sectors(4), WriteFlags::default())
            .unwrap();
        d.inject_latent_errors(2, 1);
        let mut buf = sectors(4);
        let err = d.read(SimTime::ZERO, 0, &mut buf).unwrap_err();
        assert_eq!(err, ZnsError::MediaError { lba: 2 });
        // Reads that avoid the poisoned sector still work.
        let mut two = sectors(2);
        d.read(SimTime::ZERO, 0, &mut two).unwrap();
        // A zone reset remaps the media and cures the sector.
        d.reset_zone(SimTime::ZERO, 0).unwrap();
        d.write(SimTime::ZERO, 0, &sectors(4), WriteFlags::default())
            .unwrap();
        d.read(SimTime::ZERO, 0, &mut buf).unwrap();
        assert_eq!(d.stats().injected_media_errors, 1);
    }

    #[test]
    fn transient_rates_replay_across_identical_runs() {
        let run = || {
            let d = dev();
            d.set_fault_plan(FaultPlan::new(9).transient_rate(FaultOp::Append, 0.4));
            (0..50)
                .map(|_| {
                    d.append(SimTime::ZERO, 0, &sectors(1), WriteFlags::default())
                        .is_err()
                })
                .collect::<Vec<bool>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.iter().any(|e| *e), "rate 0.4 never fired in 50 appends");
        assert!(a.iter().any(|e| !*e), "rate 0.4 always fired");
    }

    #[test]
    fn faults_survive_crash() {
        let d = dev();
        d.write(SimTime::ZERO, 0, &sectors(2), WriteFlags::FUA)
            .unwrap();
        d.inject_latent_errors(0, 1);
        d.crash(&mut CrashPolicy::LoseCache);
        let mut buf = sectors(1);
        assert_eq!(
            d.read(SimTime::ZERO, 0, &mut buf).unwrap_err(),
            ZnsError::MediaError { lba: 0 }
        );
    }

    #[test]
    fn reset_fault_leaves_zone_intact() {
        let d = dev();
        d.write(SimTime::ZERO, 0, &sectors(3), WriteFlags::default())
            .unwrap();
        d.set_fault_plan(FaultPlan::new(0).fail_nth(FaultOp::Reset, 1));
        let err = d.reset_zone(SimTime::ZERO, 0).unwrap_err();
        assert_eq!(err, ZnsError::TransientError { op: FaultOp::Reset });
        assert_eq!(d.zone_info(0).unwrap().write_pointer, 3);
        d.reset_zone(SimTime::ZERO, 0).unwrap();
        assert_eq!(d.zone_info(0).unwrap().write_pointer, 0);
    }

    #[test]
    fn recorder_sees_device_spans() {
        let d = dev();
        let rec = obs::Recorder::new(64, 1);
        d.set_recorder(rec.clone(), 3);
        d.write(SimTime::ZERO, 0, &sectors(2), WriteFlags::default())
            .unwrap();
        let mut buf = sectors(1);
        d.read(SimTime::ZERO, 0, &mut buf).unwrap();
        d.flush(SimTime::ZERO).unwrap();
        let evs = rec.events();
        assert_eq!(evs.len(), 3);
        assert!(evs.iter().all(|e| e.device == 3));
        assert_eq!(evs[0].op, obs::OpClass::Write);
        assert_eq!(evs[0].sectors, 2);
        assert_eq!(evs[1].op, obs::OpClass::Read);
        assert_eq!(evs[2].stage, obs::Stage::Flush);
        assert_eq!(rec.count(obs::Counter::CacheFlushes), 1);
    }

    #[test]
    fn recorder_tags_fault_outcomes() {
        let d = dev();
        let rec = obs::Recorder::new(64, 1);
        d.set_recorder(rec.clone(), 0);
        d.write(SimTime::ZERO, 0, &sectors(4), WriteFlags::default())
            .unwrap();
        d.set_fault_plan(FaultPlan::new(1).fail_nth(FaultOp::Write, 1));
        d.write(SimTime::ZERO, 4, &sectors(1), WriteFlags::default())
            .unwrap_err();
        d.inject_latent_errors(1, 1);
        let mut buf = sectors(4);
        d.read(SimTime::ZERO, 0, &mut buf).unwrap_err();
        let evs = rec.events();
        assert_eq!(evs[1].outcome, obs::Outcome::Transient);
        assert_eq!(evs[2].outcome, obs::Outcome::Media);
        assert_eq!(evs[2].op, obs::OpClass::Read);
    }

    #[test]
    fn corruption_helper_flips_stored_bytes() {
        let d = dev();
        d.write(SimTime::ZERO, 0, &sectors(1), WriteFlags::default())
            .unwrap();
        d.corrupt_sector_for_test(0, 0xFF);
        let mut buf = sectors(1);
        d.read(SimTime::ZERO, 0, &mut buf).unwrap();
        assert_eq!(buf[0], 0xAB ^ 0xFF);
        assert_eq!(&buf[1..], &sectors(1)[1..]);
    }
}
