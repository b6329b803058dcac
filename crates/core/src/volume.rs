//! The RAIZN logical volume: write/read paths, persistence, metadata
//! logging and GC, zone resets, degraded mode and rebuild.
//!
//! # Concurrency model
//!
//! The volume is sharded for multi-core scaling (see `DESIGN.md`,
//! "Concurrency model"): every logical zone owns a [`Mutex<LZone>`] shard
//! holding its write pointer, stripe buffer and conflict set, while the
//! global metadata that genuinely spans zones (generation counters,
//! relocation cache, metadata zone roles, partial-parity checkpoint
//! snapshots) lives in one [`MetaState`] mutex. Writes to independent
//! zones proceed concurrently; the meta lock is taken only on metadata
//! appends, relocations and resets.
//!
//! Lock order (deadlock freedom): **at most one zone shard → meta →
//! device**. The two buffer pools (the member layer's column sets,
//! [`Members::columns`], and the volume's stripe buffers) are innermost
//! locks, held only to pop or push one buffer, never across a device
//! command or while the meta lock is taken. Counters are relaxed atomics
//! ([`AtomicRaiznStats`]), the failed-device bitmask and read-only flag
//! are atomics, and per-zone write pointers are mirrored in lock-free
//! [`RaiznVolume::zone_wp`] cells so metadata GC can validate checkpoint
//! snapshots without touching shards.

use crate::bitmap::PersistenceBitmap;
use crate::config::{RaiznConfig, MD_ZONES};
use crate::layout::RaiznLayout;
use crate::metadata::{MdPayloadRef, MdRecordRef, MetadataType, Superblock, GEN_COUNTERS_PER_PAGE};
use crate::stats::{AtomicRaiznStats, RaiznStats};
use crate::stripe::StripeBuffer;
use crate::Result;
use parking_lot::Mutex;
use sim::codec::Role;
use sim::SimTime;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use zns::array::{unit_segments, Exhausted, Fill, Members, RebuildReport, Roster, Stripe};
use zns::{
    AppendCompletion, IoCompletion, Lba, WriteFlags, ZnsDevice, ZnsError, ZoneGeometry, ZoneInfo,
    ZoneState, ZonedVolume, SECTOR_SIZE,
};

/// Which metadata zone a record goes to (§4.3: partial parity is isolated
/// in its own zone; everything else shares the general zone).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MdRole {
    /// The general metadata zone (superblock, generation counters, reset
    /// WALs, relocated stripe units).
    General,
    /// The partial-parity log zone.
    PpLog,
}

/// One parity leg of a stripe: P (XOR) on every array, Q (Reed–Solomon)
/// on a dual-parity one. The write path's parity stages loop over
/// [`RaiznVolume::parity_legs`] rather than spelling the Q leg out again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParityLeg {
    P,
    Q,
}

impl ParityLeg {
    /// The leg's running parity column in a staged stripe.
    fn column(self, buf: &StripeBuffer) -> &[u8] {
        match self {
            ParityLeg::P => buf.parity(),
            ParityLeg::Q => buf.q_parity(),
        }
    }

    /// The partial-parity log payload carrying rows of the leg's column.
    fn pp_payload(self, first_row: u64, data: &[u8]) -> MdPayloadRef<'_> {
        match self {
            ParityLeg::P => MdPayloadRef::PartialParity { first_row, data },
            ParityLeg::Q => MdPayloadRef::PartialParityQ { first_row, data },
        }
    }
}

/// A logged zone-state transition (§5.2): the write-ahead records
/// [`RaiznVolume::log_zone_intent`] replicates before any device acts.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ZoneIntent {
    /// Reset of the whole zone; consumed by the mount-time replay.
    Reset,
    /// Finish, sealed at this write pointer. Unlike the reset intent the
    /// record stays live until the zone's next reset bumps its
    /// generation: it is the remount's only authoritative witness of the
    /// sealed fill when the devices holding the final stripe's data are
    /// gone, so every checkpoint re-logs it.
    Finish(u64),
}

/// Per-device metadata zone role assignment.
#[derive(Debug, Clone)]
pub(crate) struct MdRoles {
    pub general: u32,
    pub pplog: u32,
    pub swaps: Vec<u32>,
}

impl MdRoles {
    /// The assignment of a freshly formatted (or replaced) device.
    fn fresh() -> MdRoles {
        MdRoles {
            general: 0,
            pplog: 1,
            swaps: (2..MD_ZONES).collect(),
        }
    }

    /// The zone currently taking `role`'s records.
    pub fn zone(&self, role: MdRole) -> u32 {
        match role {
            MdRole::General => self.general,
            MdRole::PpLog => self.pplog,
        }
    }

    pub fn zone_mut(&mut self, role: MdRole) -> &mut u32 {
        match role {
            MdRole::General => &mut self.general,
            MdRole::PpLog => &mut self.pplog,
        }
    }
}

/// In-memory cached copy of a relocated stripe unit (§5.2). The key in
/// [`LiveMeta::relocated`] identifies the slot: `(lzone, stripe, device)`.
#[derive(Debug, Clone)]
pub(crate) struct RelocatedUnit {
    /// Full stripe unit bytes, zero padded beyond `valid`.
    pub data: Vec<u8>,
    /// Valid sectors at the start of `data`.
    pub valid: u64,
}

/// Per-logical-zone descriptor: one lock shard of the write pipeline.
#[derive(Debug)]
pub(crate) struct LZone {
    pub state: ZoneState,
    /// Write pointer, relative sectors within the logical zone capacity.
    /// Mirrored lock-free in [`RaiznVolume::zone_wp`] on every change.
    pub wp: u64,
    pub pbitmap: PersistenceBitmap,
    /// Stripe buffer of the current incomplete stripe, if any: drawn from
    /// the volume's pool when the stripe starts, back in it when the
    /// stripe completes or the zone fills or resets. A finished zone
    /// keeps its partial stripe's buffer: reads and rebuild serve from it.
    pub buffer: Option<StripeBuffer>,
    /// Slots `(stripe, device)` occupied by unreachable "ghost" data from
    /// a rolled-back crash suffix; writes to them are relocated.
    pub conflicts: HashSet<(u64, u32)>,
}

/// Checkpoint snapshot of a zone's running partial parity, maintained on
/// every pp-log append so metadata GC can re-log live parity without
/// locking the zone shard that owns the stripe buffer. One per logical
/// zone. Its columns are whole stripe units, reserved once and then passed
/// from dead snapshots to new ones through [`LiveMeta::pp_free`], so the
/// pp-log path never grows them again and only live snapshots need them.
///
/// Maintained incrementally: a stripe buffer only ever appends, so between
/// two frontiers of one stripe the running parity changes exactly on the
/// rows the sectors in between landed on, and `(stripe, filled)` is all a
/// capture needs to know about the last one.
#[derive(Debug, Default)]
pub(crate) struct PpSnapshot {
    /// Stripe index the snapshot describes.
    pub stripe: u64,
    /// Data sectors filled into the stripe at snapshot time; 0 means the
    /// zone has no snapshot. The snapshot is live iff the zone's mirrored
    /// write pointer still equals `stripe * stripe_data + filled`.
    pub filled: u64,
    /// Running parity prefix (`filled.min(stripe_unit)` rows).
    pub parity: Vec<u8>,
    /// Running Q-parity prefix, same shape as `parity`. Empty in
    /// single-parity mode.
    pub q: Vec<u8>,
}

impl PpSnapshot {
    /// Brings the snapshot to the frontier of `buf`, whose units are `su`
    /// sectors, by copying the parity rows of the sectors filled since the
    /// frontier it describes — since sector 0 when it describes another
    /// stripe or, after a zone reset, nothing (`filled == 0`). Its bytes
    /// equal a from-scratch copy of the buffer's parity prefix. A snapshot
    /// without columns takes a retired pair from `free` first.
    pub(crate) fn capture(&mut self, buf: &StripeBuffer, su: u64, free: &mut Vec<PpColumns>) {
        if self.parity.capacity() == 0 {
            if let Some((parity, q)) = free.pop() {
                (self.parity, self.q) = (parity, q);
            }
        }
        let filled = buf.filled_sectors();
        let same = self.stripe == buf.stripe() && self.filled <= filled;
        // The last `su` sectors touch every row once: no need to go back
        // further, however stale the snapshot.
        let from = if same { self.filled } else { 0 }.max(filled.saturating_sub(su));
        self.stripe = buf.stripe();
        self.filled = filled;
        let prefix = (filled.min(su) * SECTOR_SIZE) as usize;
        let advance = |snap: &mut Vec<u8>, col: &[u8]| {
            // A whole column on the first capture, nothing afterwards.
            snap.reserve_exact(col.len().saturating_sub(snap.len()));
            snap.resize(prefix, 0);
            for (_, row, run) in unit_segments(from, filled, su) {
                let rows = (row * SECTOR_SIZE) as usize..((row + run) * SECTOR_SIZE) as usize;
                snap[rows.clone()].copy_from_slice(&col[rows]);
            }
        };
        advance(&mut self.parity, buf.parity());
        if buf.parity_units() >= 2 {
            advance(&mut self.q, buf.q_parity());
        }
    }

    /// Ends the snapshot — the zone has none (`filled == 0`) — and hands
    /// its columns, if it holds any, to `free`.
    pub(crate) fn retire(&mut self, free: &mut Vec<PpColumns>) {
        let PpSnapshot { parity, q, .. } = std::mem::take(self);
        if parity.capacity() > 0 {
            free.push((parity, q));
        }
    }
}

/// The P and Q columns of a retired [`PpSnapshot`] (Q empty on a
/// single-parity array).
pub(crate) type PpColumns = (Vec<u8>, Vec<u8>);

/// The metadata log's write cursor: where each device's records go, and
/// the pooled buffer they are encoded in.
pub(crate) struct MdLog {
    pub md: Vec<MdRoles>,
    /// Encode buffer of [`RaiznVolume::md_write`], which alone names it.
    md_scratch: Vec<u8>,
}

/// The live metadata: everything the log exists to make recoverable, and
/// so everything a checkpoint ([`RaiznVolume::checkpoint_live`]) re-logs.
pub(crate) struct LiveMeta {
    pub gens: Vec<u64>,
    pub relocated: HashMap<(u32, u64, u32), RelocatedUnit>,
    /// Partial-parity checkpoint snapshots, indexed by logical zone (see
    /// [`PpSnapshot`]).
    pub pp_live: Vec<PpSnapshot>,
    /// Columns of dead snapshots, for the next capture that has none: as
    /// many pairs as snapshots were ever live at once.
    pub pp_free: Vec<PpColumns>,
}

impl LiveMeta {
    /// Ends zone `lz`'s pp snapshot, its columns to the free list.
    pub fn retire_snapshot(&mut self, lz: u32) {
        self.pp_live[lz as usize].retire(&mut self.pp_free);
    }
}

/// Cross-zone volume metadata: the single global lock domain. Split into
/// the log cursor and the live state so an append can encode a record
/// that borrows the live state into the log's own scratch — two disjoint
/// field borrows under the one lock.
pub(crate) struct MetaState {
    pub log: MdLog,
    pub live: LiveMeta,
    /// Scratch buffer for gather writes ([`zns::ZonedVolume::write_vectored`]);
    /// taken/restored around the staged write so steady-state batches
    /// allocate nothing.
    pub gather_scratch: Vec<u8>,
}

/// A logical host-managed zoned volume striped over an array of ZNS
/// devices with rotating parity. See the crate docs for the design and an
/// example; construct with [`RaiznVolume::format`] (fresh array) or
/// [`RaiznVolume::mount`] (crash recovery).
///
/// All IO entry points take `&self` and may be called from multiple
/// threads; writes to distinct logical zones run concurrently (see the
/// module docs for the locking discipline).
pub struct RaiznVolume {
    pub(crate) layout: RaiznLayout,
    pub(crate) config: RaiznConfig,
    /// Per-zone lock shards.
    pub(crate) zones: Vec<Mutex<LZone>>,
    /// The global metadata domain.
    pub(crate) meta: Mutex<MetaState>,
    /// The member devices, their failure mask and error budgets: every
    /// device command goes through [`Members::read`]'s roster.
    pub(crate) members: Members,
    read_only: AtomicBool,
    /// Lock-free mirror of each zone's write pointer, stored on every wp
    /// change under the shard lock. Readers that only need the frontier
    /// (metadata GC snapshot validation) use this instead of the shard.
    pub(crate) zone_wp: Vec<AtomicU64>,
    /// Lock-free per-zone "sealed" flags (finished, or filled to
    /// capacity). Every checkpoint re-logs a [`ZoneIntent::Finish`] for
    /// flagged zones so the sealed write pointer stays durable across
    /// metadata GC passes, remounts and rebuilds.
    pub(crate) zone_sealed: Vec<AtomicBool>,
    /// Lock-free mirror of `meta.live.relocated.len()`: hot reads skip the meta
    /// lock entirely while no relocations exist.
    relocated_len: AtomicUsize,
    pub(crate) stats: AtomicRaiznStats,
    /// Volume-layer spans (parity-path attribution, metadata appends,
    /// flush latency) and counters. Volume spans carry no device: device
    /// attribution lives in the spans [`zns::ZnsDevice`] emits itself.
    tracer: obs::Tracer,
    /// Stripe buffers between staged stripes: as many as were ever staged
    /// at once. An innermost lock (see the module docs).
    stripe_buffers: Mutex<Vec<StripeBuffer>>,
}

impl std::fmt::Debug for RaiznVolume {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RaiznVolume")
            .field("layout", &self.layout)
            .finish_non_exhaustive()
    }
}

/// An internal invariant violation surfaced as an error instead of a
/// panic, so injected device faults can never take the volume down
/// mid-operation.
pub(crate) fn internal(context: &'static str) -> ZnsError {
    ZnsError::InvalidArgument(format!("internal invariant violated: {context}"))
}

/// Outcome of a [`RaiznVolume::scrub`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Complete stripes whose parity was verified.
    pub stripes_checked: u64,
    /// Parity mismatches detected and repaired (corrected parity
    /// relocated via the metadata log).
    pub parity_repairs: u64,
    /// Stripe units healed from latent media errors during the walk.
    pub units_healed: u64,
}

impl RaiznVolume {
    // ------------------------------------------------------------------
    // Locking and lock-free helpers
    // ------------------------------------------------------------------

    /// Locks logical zone `lzone`'s shard.
    pub(crate) fn lock_shard(&self, lzone: u32) -> parking_lot::MutexGuard<'_, LZone> {
        self.zones[lzone as usize].lock()
    }

    /// Locks the global metadata domain. Callers may hold at most one
    /// zone shard (lock order: shard → meta).
    pub(crate) fn lock_meta(&self) -> parking_lot::MutexGuard<'_, MetaState> {
        self.meta.lock()
    }

    /// Refreshes the lock-free relocation count mirror after any mutation
    /// of `meta.live.relocated` (call with the meta lock still held).
    pub(crate) fn sync_relocated_count(&self, live: &LiveMeta) {
        self.relocated_len
            .store(live.relocated.len(), Ordering::Release);
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Initializes a fresh array: resets every zone, writes the superblock
    /// and initial generation counters to every device.
    ///
    /// # Errors
    ///
    /// Fails if the devices disagree on geometry, fewer than 3 are given,
    /// or device IO fails.
    pub fn format(
        devices: Vec<Arc<ZnsDevice>>,
        config: RaiznConfig,
        at: SimTime,
    ) -> Result<RaiznVolume> {
        let layout = Self::check_devices(&devices, config)?;
        let members = Self::array_members(devices, config)?;
        {
            // mkfs: wipe all zones.
            let devices = members.read();
            let zones = layout.phys_geometry().num_zones();
            for dev in 0..devices.len() {
                for z in 0..zones {
                    let info = devices.zone_info(dev, z)?;
                    if info.write_pointer > info.start || info.state == ZoneState::Full {
                        devices.command(at, dev, Exhausted::Surface, |d| {
                            Ok(d.reset_zone(at, z)?.done)
                        })?;
                    }
                }
            }
        }
        let vol = Self::assemble(
            members,
            config,
            layout,
            vec![0; layout.logical_zones() as usize],
        );
        {
            let devices = vol.members.read();
            let mut m = vol.lock_meta();
            let MetaState { log, live, .. } = &mut *m;
            // Two passes over the (fresh) live state: the superblock lands
            // on every member before any generation page is issued.
            let (mut t, role) = (at, MdRole::General);
            for pass in [MetadataType::Superblock, MetadataType::GenCounters] {
                let issue = t;
                for dev in 0..devices.len() {
                    vol.checkpoint_live(live, dev, role, false, |rec| {
                        if rec.header.md_type == pass {
                            let done =
                                vol.md_append(log, live, &devices, issue, dev, role, rec, true)?;
                            t = t.max(done);
                        }
                        Ok(())
                    })?;
                }
            }
        }
        Ok(vol)
    }

    /// Validates the device set and derives the layout.
    pub(crate) fn check_devices(
        devices: &[Arc<ZnsDevice>],
        config: RaiznConfig,
    ) -> Result<RaiznLayout> {
        let min_devices = config.parity as usize + 2;
        if devices.len() < min_devices {
            return Err(ZnsError::InvalidArgument(format!(
                "RAIZN needs >= {min_devices} devices with parity = {}, got {}",
                config.parity,
                devices.len()
            )));
        }
        let geo = devices[0].geometry();
        if devices.iter().any(|d| d.geometry() != geo) {
            return Err(ZnsError::InvalidArgument(
                "all array devices must share one geometry".to_string(),
            ));
        }
        Ok(RaiznLayout::new(devices.len() as u32, config, geo))
    }

    /// The member layer over `devices` under `config`'s parity and stripe
    /// unit.
    pub(crate) fn array_members(
        devices: Vec<Arc<ZnsDevice>>,
        config: RaiznConfig,
    ) -> Result<Members> {
        Members::new(devices, config.parity, config.stripe_unit_sectors)
    }

    /// Builds the in-memory volume object with default metadata roles.
    pub(crate) fn assemble(
        members: Members,
        config: RaiznConfig,
        layout: RaiznLayout,
        gens: Vec<u64>,
    ) -> RaiznVolume {
        let n = layout.devices() as usize;
        let nz = layout.logical_zones() as usize;
        let zones = (0..nz)
            .map(|_| {
                Mutex::new(LZone {
                    state: ZoneState::Empty,
                    wp: 0,
                    pbitmap: PersistenceBitmap::new(
                        layout.stripes_per_zone() * layout.data_units(),
                        layout.stripe_unit(),
                    ),
                    buffer: None,
                    conflicts: HashSet::new(),
                })
            })
            .collect();
        let md = (0..n).map(|_| MdRoles::fresh()).collect();
        // Room in the free lists for one buffer per zone the members can
        // hold active, where every partial stripe lives: returning one
        // allocates nothing.
        let active = members.read().devices()[0].config().max_active_zones() as usize;
        RaiznVolume {
            layout,
            config,
            zones,
            meta: Mutex::new(MetaState {
                log: MdLog {
                    md,
                    md_scratch: Vec::new(),
                },
                live: LiveMeta {
                    gens,
                    relocated: HashMap::new(),
                    pp_live: (0..nz).map(|_| PpSnapshot::default()).collect(),
                    pp_free: Vec::with_capacity(active),
                },
                gather_scratch: Vec::new(),
            }),
            members,
            read_only: AtomicBool::new(false),
            zone_wp: (0..nz).map(|_| AtomicU64::new(0)).collect(),
            zone_sealed: (0..nz).map(|_| AtomicBool::new(false)).collect(),
            relocated_len: AtomicUsize::new(0),
            stats: AtomicRaiznStats::default(),
            tracer: obs::Tracer::new(),
            stripe_buffers: Mutex::new(Vec::with_capacity(active)),
        }
    }

    /// The array layout (address arithmetic).
    pub fn layout(&self) -> RaiznLayout {
        self.layout
    }

    /// The array configuration.
    pub fn config(&self) -> RaiznConfig {
        self.config
    }

    /// Volume statistics; retries, auto-degrades, degraded reads, decodes
    /// and read repairs are the member layer's.
    pub fn stats(&self) -> RaiznStats {
        RaiznStats {
            transient_retries: self.members.transient_retries(),
            auto_degrades: self.members.auto_degrades(),
            degraded_reads: self.members.degraded_reads(),
            double_degraded_reads: self.members.double_degraded_reads(),
            read_repairs: self.members.read_repairs(),
            ..self.stats.snapshot()
        }
    }

    /// Attaches an observability recorder: volume-layer spans (parity-path
    /// attribution, metadata appends, flush latency) and counters land on
    /// it. To also capture device-layer spans, attach the same recorder to
    /// the member devices via [`zns::ZnsDevice::set_recorder`].
    pub fn set_recorder(&self, recorder: std::sync::Arc<obs::Recorder>) {
        self.members.set_recorder(recorder.clone());
        self.tracer.attach(recorder, obs::NONE);
    }

    /// The generation counter of logical zone `lzone`.
    pub fn generation(&self, lzone: u32) -> u64 {
        self.lock_meta().live.gens[lzone as usize]
    }

    /// Whether the array is running degraded (a device has failed).
    pub fn is_degraded(&self) -> bool {
        self.members.lowest_failed().is_some()
    }

    /// Number of currently relocated stripe units.
    pub fn relocated_count(&self) -> usize {
        self.relocated_len.load(Ordering::Acquire)
    }

    /// Marks device `index` failed. Subsequent reads reconstruct from
    /// parity; writes omit the device. Idempotent for an already-failed
    /// device.
    ///
    /// # Errors
    ///
    /// Returns [`ZnsError::InvalidArgument`] if `index` is out of range
    /// and [`ZnsError::TooManyFailures`] if the failure would exceed the
    /// array's parity count (one for RAIZN, two for RAIZN-2).
    pub fn fail_device(&self, index: usize) -> Result<()> {
        self.members.fail(index)
    }

    /// The lowest failed device index, if any. See
    /// [`failed_devices`](Self::failed_devices) for the full set.
    pub fn failed_device(&self) -> Option<usize> {
        self.members.lowest_failed()
    }

    /// All currently failed device indices, ascending.
    pub fn failed_devices(&self) -> Vec<usize> {
        self.members.failed()
    }

    /// Unrecovered errors charged to device `dev` so far (its error
    /// budget is [`zns::array::DEVICE_ERROR_BUDGET`]).
    pub fn device_errors(&self, dev: usize) -> u64 {
        self.members.errors(dev)
    }
}

/// The generation counter page `page` of `gens`, borrowing the live
/// counter table.
fn gen_page(gens: &[u64], page: usize, checkpoint: bool) -> MdRecordRef<'_> {
    let first = page * GEN_COUNTERS_PER_PAGE;
    let end = (first + GEN_COUNTERS_PER_PAGE).min(gens.len());
    let counters = &gens[first..end];
    let payload = MdPayloadRef::GenCounters {
        first_zone: first as u32,
        counters,
    };
    MdRecordRef::new(payload, checkpoint, 0, 0, 0)
}

impl RaiznVolume {
    // ------------------------------------------------------------------
    // Metadata log: one writer, one enumeration of live records
    // ------------------------------------------------------------------

    /// Serializes `rec` and appends it to `member`'s metadata zone for
    /// `role` (`member` is device `dev`, or the replacement about to take
    /// its place): the only place a record is encoded, and the only code
    /// that names the log's pooled scratch — whose capacity is why a
    /// steady-state append allocates nothing.
    #[allow(clippy::too_many_arguments)]
    fn md_write(
        &self,
        log: &mut MdLog,
        member: &ZnsDevice,
        at: SimTime,
        dev: usize,
        role: MdRole,
        rec: MdRecordRef<'_>,
        flags: WriteFlags,
    ) -> Result<SimTime> {
        rec.encode_into(&mut log.md_scratch);
        let done = member
            .append(at, log.md[dev].zone(role), &log.md_scratch, flags)?
            .done;
        AtomicRaiznStats::add(&self.stats.md_appends, 1);
        Ok(done)
    }

    /// Appends `rec` to `dev`'s metadata zone for `role`, running
    /// metadata GC if the zone is full (GC checkpoints `live`, which is
    /// why an append needs it). A failed device's replica is skipped.
    /// Returns the completion time.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn md_append(
        &self,
        log: &mut MdLog,
        live: &LiveMeta,
        devices: &Roster<'_>,
        at: SimTime,
        dev: usize,
        role: MdRole,
        rec: MdRecordRef<'_>,
        fua: bool,
    ) -> Result<SimTime> {
        if self.members.is_failed(dev) {
            return Ok(at);
        }
        let flags = WriteFlags {
            fua,
            preflush: false,
        };
        let write = |log: &mut MdLog, t: SimTime| {
            devices.command(t, dev, Exhausted::Surface, |d| {
                self.md_write(log, d, t, dev, role, rec, flags)
            })
        };
        let zone = log.md[dev].zone(role);
        let mut issued = at;
        let mut r = write(log, at);
        if matches!(r, Err(ZnsError::ZoneFull { .. })) {
            issued = self.md_gc(log, live, devices, at, dev, role)?;
            r = write(log, issued);
        }
        let done = match r {
            Ok(done) => done,
            // Retry exhaustion just degraded the device: its metadata
            // replica is gone with it, mirroring the failed-device
            // early-return above.
            Err(ZnsError::TransientError { .. }) if self.members.is_failed(dev) => issued,
            Err(e) => return Err(e),
        };
        self.tracer.leaf(
            obs::Span::new(obs::OpClass::Append, obs::Stage::MetaAppend, at, done)
                .zone(zone)
                .sectors(rec.encoded_sectors()),
        );
        Ok(done)
    }

    /// Visits, in log order, every record `dev`'s metadata zone for
    /// `role` must hold for the live state to be recoverable from that
    /// device: the one enumeration behind metadata GC, the mount-time
    /// refresh, the seeding of a rebuilt member and format.
    ///
    /// - `General`: the superblock, every generation page, one finish WAL
    ///   per sealed logical zone (live until the zone's next reset; the
    ///   lock-free mirrors carry the frozen frontier), and the relocated
    ///   units homed on `dev` in sorted key order.
    /// - `PpLog`: the running partial parity of every zone whose P or Q
    ///   leg homes on `dev`, from the [`PpSnapshot`]s rather than the
    ///   stripe buffers (which live behind per-zone shard locks). A
    ///   snapshot is live iff the zone's lock-free write-pointer mirror
    ///   still matches its frontier, which makes the walk identical to a
    ///   buffer walk without violating the shard → meta lock order.
    ///
    /// Records borrow `live`; `checkpoint` is their header flag.
    pub(crate) fn checkpoint_live<'a>(
        &self,
        live: &'a LiveMeta,
        dev: usize,
        role: MdRole,
        checkpoint: bool,
        mut visit: impl FnMut(MdRecordRef<'a>) -> Result<()>,
    ) -> Result<()> {
        let lgeo = self.layout.logical_geometry();
        let stripe_data = self.layout.stripe_data_sectors();
        let zones = 0..self.layout.logical_zones();
        match role {
            MdRole::General => {
                let phys = self.layout.phys_geometry();
                let superblock = MdPayloadRef::Superblock(Superblock {
                    num_devices: self.layout.devices(),
                    device_index: dev as u32,
                    stripe_unit_sectors: self.layout.stripe_unit(),
                    md_zones_per_device: MD_ZONES,
                    phys_zones: phys.num_zones(),
                    phys_zone_size: phys.zone_size(),
                    phys_zone_cap: phys.zone_cap(),
                });
                visit(MdRecordRef::new(superblock, checkpoint, 0, 0, 0))?;
                for page in 0..live.gens.len().div_ceil(GEN_COUNTERS_PER_PAGE) {
                    visit(gen_page(&live.gens, page, checkpoint))?;
                }
                for lz in zones {
                    if self.zone_sealed[lz as usize].load(Ordering::Acquire) {
                        let wp = self.zone_wp[lz as usize].load(Ordering::Acquire);
                        let sealed = ZoneIntent::Finish(wp);
                        visit(self.zone_intent_record(live, lz, sealed, checkpoint))?;
                    }
                }
                let mut keys: Vec<(u32, u64, u32)> = live
                    .relocated
                    .keys()
                    .filter(|(_, _, rdev)| *rdev as usize == dev)
                    .copied()
                    .collect();
                keys.sort_unstable();
                for key in keys {
                    visit(self.relocation_record(live, key, checkpoint))?;
                }
            }
            MdRole::PpLog => {
                let su = self.layout.stripe_unit();
                for lz in zones {
                    let snap = &live.pp_live[lz as usize];
                    if !self.snapshot_live(lz, snap) {
                        continue;
                    }
                    let (leg, column) =
                        if self.layout.parity_device(lz, snap.stripe) as usize == dev {
                            (ParityLeg::P, &snap.parity)
                        } else if self.layout.q_device(lz, snap.stripe) == Some(dev as u32) {
                            (ParityLeg::Q, &snap.q)
                        } else {
                            continue;
                        };
                    let rows = (snap.filled.min(su) * SECTOR_SIZE) as usize;
                    let sstart = lgeo.zone_start(lz) + snap.stripe * stripe_data;
                    visit(MdRecordRef::new(
                        leg.pp_payload(0, &column[..rows]),
                        checkpoint,
                        sstart,
                        sstart + snap.filled,
                        live.gens[lz as usize],
                    ))?;
                }
            }
        }
        Ok(())
    }

    /// Whether zone `lz`'s pp snapshot describes its write pointer (the
    /// lock-free mirror), so a checkpoint re-logs it. Once the write
    /// pointer moves past it without a capture — the stripe completed, the
    /// zone filled — or the zone resets, it never will again.
    fn snapshot_live(&self, lz: u32, snap: &PpSnapshot) -> bool {
        let stripe_data = self.layout.stripe_data_sectors();
        let wp = self.zone_wp[lz as usize].load(Ordering::Acquire);
        snap.filled != 0 && wp / stripe_data == snap.stripe && wp % stripe_data == snap.filled
    }

    /// Captures zone `lz`'s pp snapshot from `buf` under the meta lock. A
    /// snapshot without columns, with none free, first retires every other
    /// zone's dead snapshot: new columns are reserved only when every pair
    /// belongs to a live one.
    fn capture_snapshot(&self, live: &mut LiveMeta, lz: u32, buf: &StripeBuffer) {
        let LiveMeta {
            pp_live, pp_free, ..
        } = live;
        if pp_free.is_empty() && pp_live[lz as usize].parity.capacity() == 0 {
            for (other, snap) in (0..).zip(pp_live.iter_mut()) {
                if other != lz && !self.snapshot_live(other, snap) {
                    snap.retire(pp_free);
                }
            }
        }
        pp_live[lz as usize].capture(buf, self.layout.stripe_unit(), pp_free);
    }

    /// Re-captures every zone's pp checkpoint snapshot from its stripe
    /// buffer (shard → meta, one zone at a time), for a checkpoint that
    /// must not miss zones staging parity without pp appends: the buffers
    /// mount-time recovery seeds.
    pub(crate) fn sync_pp_snapshots(&self) {
        for lz in 0..self.layout.logical_zones() {
            let z = self.lock_shard(lz);
            let mut m = self.lock_meta();
            match &z.buffer {
                Some(buf) if buf.filled_sectors() > 0 => {
                    self.capture_snapshot(&mut m.live, lz, buf)
                }
                _ => m.live.retire_snapshot(lz),
            }
        }
    }

    /// A cleared stripe buffer for `stripe`, from the pool when it holds
    /// one.
    pub(crate) fn draw_stripe_buffer(&self, stripe: u64) -> StripeBuffer {
        let (units, su) = (self.layout.data_units(), self.layout.stripe_unit());
        let parity = self.layout.parity_units();
        match self.stripe_buffers.lock().pop() {
            Some(mut b) => {
                debug_assert!(b.shape_matches_parity(units, su, parity));
                b.recycle(stripe);
                AtomicRaiznStats::add(&self.stats.stripe_buffers_reused, 1);
                b
            }
            None => StripeBuffer::with_parity(stripe, units, su, parity),
        }
    }

    /// Returns a stripe buffer to the pool as it is (dirty: the one clear
    /// happens when it is drawn again).
    fn retire_stripe_buffer(&self, buf: StripeBuffer) {
        self.stripe_buffers.lock().push(buf);
    }

    /// Garbage collects `dev`'s metadata zone for `role` (§4.3, Fig. 4):
    /// designate a swap zone, checkpoint live metadata into it, flush, and
    /// reset the old zone back into the swap pool.
    pub(crate) fn md_gc(
        &self,
        log: &mut MdLog,
        live: &LiveMeta,
        devices: &Roster<'_>,
        at: SimTime,
        dev: usize,
        role: MdRole,
    ) -> Result<SimTime> {
        self.tracer.bump(obs::Counter::MdGcRuns);
        let new_zone = log.md[dev]
            .swaps
            .pop()
            .ok_or_else(|| internal("metadata GC requires at least one swap zone"))?;
        let old_zone = std::mem::replace(log.md[dev].zone_mut(role), new_zone);
        let mut t = at;
        self.checkpoint_live(live, dev, role, true, |rec| {
            let issue = t;
            t = devices.command(issue, dev, Exhausted::Surface, |d| {
                self.md_write(log, d, issue, dev, role, rec, WriteFlags::default())
            })?;
            Ok(())
        })?;
        // The checkpoint must be durable before the old zone disappears.
        t = devices.flush(t, 1 << dev)?;
        t = devices.command(t, dev, Exhausted::Omit, |d| {
            Ok(d.reset_zone(t, old_zone)?.done)
        })?;
        log.md[dev].swaps.insert(0, old_zone);
        AtomicRaiznStats::add(&self.stats.md_gc_runs, 1);
        Ok(t)
    }

    /// The relocation record of the cached unit at `key`, borrowing its
    /// payload bytes (no owned copy of the stripe unit).
    fn relocation_record<'a>(
        &self,
        live: &'a LiveMeta,
        key @ (lzone, stripe, _): (u32, u64, u32),
        checkpoint: bool,
    ) -> MdRecordRef<'a> {
        let unit = &live.relocated[&key];
        // Only the valid rows are logged: a ghost slot's empty relocation
        // costs its header sector, and replay pads the unit back out.
        let data = &unit.data[..(unit.valid * SECTOR_SIZE) as usize];
        let stripe_data = self.layout.stripe_data_sectors();
        let sstart = self.layout.logical_geometry().zone_start(lzone) + stripe * stripe_data;
        MdRecordRef::new(
            MdPayloadRef::RelocatedStripeUnit {
                lzone,
                stripe,
                valid_sectors: unit.valid,
                data,
            },
            checkpoint,
            sstart,
            sstart + stripe_data,
            live.gens[lzone as usize],
        )
    }

    /// Persists the relocation record of the cached unit `dev` holds for
    /// `(lzone, stripe)` on that device (§5.2).
    #[allow(clippy::too_many_arguments)]
    fn log_relocation(
        &self,
        m: &mut MetaState,
        devices: &Roster<'_>,
        at: SimTime,
        lzone: u32,
        stripe: u64,
        dev: u32,
        fua: bool,
    ) -> Result<SimTime> {
        let MetaState { log, live, .. } = m;
        let rec = self.relocation_record(live, (lzone, stripe, dev), false);
        let (dev, role) = (dev as usize, MdRole::General);
        self.md_append(log, live, devices, at, dev, role, rec, fua)
    }

    /// Persists the generation counter page containing `lzone` to every
    /// live device (one 4 KiB page per update, Table 1).
    pub(crate) fn persist_gen_page(
        &self,
        m: &mut MetaState,
        devices: &Roster<'_>,
        at: SimTime,
        lzone: u32,
    ) -> Result<SimTime> {
        let MetaState { log, live, .. } = m;
        let rec = gen_page(&live.gens, lzone as usize / GEN_COUNTERS_PER_PAGE, false);
        let mut done = at;
        for dev in 0..devices.len() {
            let t = self.md_append(log, live, devices, at, dev, MdRole::General, rec, true)?;
            done = done.max(t);
        }
        Ok(done)
    }
}

impl RaiznVolume {
    // ------------------------------------------------------------------
    // Unit fetch (relocation- and failure-aware)
    // ------------------------------------------------------------------

    /// Reads `out.len()` bytes starting at row `row0` of the unit held by
    /// `dev` for `(lzone, stripe)`, transparently serving relocated slots
    /// from the in-memory cache. Callers already holding the meta lock
    /// (recovery) pass their guard as `meta`; with `None` the relocation
    /// cache is consulted only when the lock-free relocation count says
    /// any entries exist, so steady-state reads never touch the meta lock.
    /// Device reads retry transients; retry exhaustion and media errors
    /// are charged against the device's error budget and surfaced for the
    /// caller to reconstruct around.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fetch_slot_rows(
        &self,
        meta: Option<&LiveMeta>,
        devices: &Roster<'_>,
        at: SimTime,
        lzone: u32,
        stripe: u64,
        dev: u32,
        row0: u64,
        out: &mut [u8],
    ) -> Result<SimTime> {
        let mut from_cache = |m: &LiveMeta| match m.relocated.get(&(lzone, stripe, dev)) {
            Some(rel) => {
                let off = (row0 * SECTOR_SIZE) as usize;
                out.copy_from_slice(&rel.data[off..off + out.len()]);
                true
            }
            None => false,
        };
        let cached = match meta {
            Some(m) => from_cache(m),
            None => {
                self.relocated_len.load(Ordering::Acquire) > 0 && from_cache(&self.lock_meta().live)
            }
        };
        if cached {
            return Ok(at);
        }
        if self.members.is_failed(dev as usize) {
            return Err(ZnsError::DeviceFailed);
        }
        let pba = self.layout.stripe_pba(lzone, stripe) + row0;
        devices.command(at, dev as usize, Exhausted::Surface, |d| {
            Ok(d.read(at, pba, out)?.done)
        })
    }

    /// Whether the relocation cache holds the slot `dev` has for
    /// `(lzone, stripe)`; takes the meta lock only while any entry exists.
    fn is_relocated(&self, lzone: u32, stripe: u64, dev: u32) -> bool {
        self.relocated_len.load(Ordering::Acquire) > 0
            && self
                .lock_meta()
                .live
                .relocated
                .contains_key(&(lzone, stripe, dev))
    }

    /// The role a device plays in one stripe: a data unit, the P (XOR)
    /// parity, or the Q (Reed–Solomon) parity.
    pub(crate) fn slot_role(&self, lzone: u32, stripe: u64, dev: u32) -> Role {
        match self.layout.unit_of_device(lzone, stripe, dev) {
            Some(k) => Role::Data(k as u32),
            None if dev == self.layout.parity_device(lzone, stripe) => Role::P,
            None => Role::Q,
        }
    }

    // ------------------------------------------------------------------
    // Self-healing read path
    // ------------------------------------------------------------------

    /// Installs a repaired copy `data` of the whole unit held by `dev` at
    /// `(lzone, stripe)` into the relocation cache (marking the physical
    /// slot conflicted) and persists a relocation record, mirroring the
    /// §5.2 write-conflict machinery. Failure to persist the record is
    /// tolerated: the cache still serves reads and metadata GC
    /// checkpoints re-log it. Runs under `lzone`'s shard lock.
    #[allow(clippy::too_many_arguments)]
    fn relocate_repaired_unit(
        &self,
        z: &mut LZone,
        devices: &Roster<'_>,
        at: SimTime,
        lzone: u32,
        stripe: u64,
        dev: u32,
        data: Vec<u8>,
    ) -> Result<SimTime> {
        let valid = self.layout.stripe_unit();
        z.conflicts.insert((stripe, dev));
        let mut m = self.lock_meta();
        m.live
            .relocated
            .insert((lzone, stripe, dev), RelocatedUnit { data, valid });
        self.sync_relocated_count(&m.live);
        match self.log_relocation(&mut m, devices, at, lzone, stripe, dev, true) {
            Ok(t) => Ok(t),
            Err(ZnsError::TransientError { .. } | ZnsError::DeviceFailed) => Ok(at),
            Err(e) => Err(e),
        }
    }

    /// Walks every complete stripe of the volume through the member
    /// layer's scrub ([`Members::scrub`], which refuses a degraded array
    /// and blames the pass on the scrub actor), repairing what each
    /// stripe's verify finds (§4.2 maintenance): a slot lost to a latent
    /// media error is relocated as decoded, and a stored P or Q slot that
    /// differs from the encode of the data is relocated as that encode.
    /// Refuses a read-only volume. Returns what was checked and repaired;
    /// counters land in [`stats`](Self::stats).
    ///
    /// Takes each zone's shard in turn; concurrent writers to other zones
    /// are unaffected.
    pub fn scrub(&self, at: SimTime) -> Result<ScrubReport> {
        let stripe_data = self.layout.stripe_data_sectors();
        let report = self.members.scrub(|devices, verify| {
            if self.read_only.load(Ordering::Acquire) {
                return Err(ZnsError::VolumeReadOnly);
            }
            let mut report = ScrubReport::default();
            for lz in 0..self.layout.logical_zones() {
                let mut z = self.lock_shard(lz);
                for stripe in 0..z.wp / stripe_data {
                    let src = SlotStripe {
                        vol: self,
                        devices,
                        lzone: lz,
                        stripe,
                    };
                    let damage = verify.stripe(at, &src)?;
                    report.stripes_checked += 1;
                    report.units_healed += u64::from(damage.lost.count_ones());
                    report.parity_repairs += u64::from(damage.differs.count_ones());
                    let lost = (0..self.layout.devices()).filter(|dev| damage.lost >> dev & 1 == 1);
                    let legs = self.parity_legs(lz, stripe).map(|(dev, _)| dev);
                    let wrong = legs.filter(|dev| damage.differs >> dev & 1 == 1);
                    for dev in lost.chain(wrong) {
                        let fixed = verify.slot(self.slot_role(lz, stripe, dev)).to_vec();
                        self.relocate_repaired_unit(&mut z, devices, at, lz, stripe, dev, fixed)?;
                        AtomicRaiznStats::add(&self.stats.scrub_repairs, 1);
                    }
                }
            }
            Ok(report)
        })?;
        AtomicRaiznStats::add(&self.stats.scrub_runs, 1);
        Ok(report)
    }
}

impl RaiznVolume {
    // ------------------------------------------------------------------
    // Write path helpers
    // ------------------------------------------------------------------

    /// The parity legs `(device, leg)` of `(lzone, stripe)`, P first.
    fn parity_legs(&self, lzone: u32, stripe: u64) -> impl Iterator<Item = (u32, ParityLeg)> {
        let p = self.layout.parity_device(lzone, stripe);
        let q = self.layout.q_device(lzone, stripe);
        [(Some(p), ParityLeg::P), (q, ParityLeg::Q)]
            .into_iter()
            .filter_map(|(dev, leg)| Some((dev?, leg)))
    }

    /// Parity stage of a chunk that completes its stripe: detaches
    /// whichever owns the parity columns — the staged buffer, or a column
    /// set drawn from the member layer after a one-pass encode of the
    /// caller's payload (`chunk` is then the whole stripe) — and hands
    /// them to the device layer as borrowed slices (no copy). The owner
    /// goes back to its pool whether or not a leg fails. Runs under
    /// `lzone`'s shard lock (`z`).
    #[allow(clippy::too_many_arguments)]
    fn store_parity_legs(
        &self,
        z: &mut LZone,
        devices: &Roster<'_>,
        issue: SimTime,
        lzone: u32,
        stripe: u64,
        chunk: &[u8],
        fua: bool,
    ) -> Result<SimTime> {
        // A parity leg whose device has failed (and whose slot is not
        // relocated) is dropped by `store_slot_rows`; it is neither
        // computed nor issued.
        let dropped = |z: &LZone, dev: u32| {
            self.members.is_failed(dev as usize) && !z.conflicts.contains(&(stripe, dev))
        };
        let want_p = !dropped(z, self.layout.parity_device(lzone, stripe));
        let want_q = self
            .layout
            .q_device(lzone, stripe)
            .is_some_and(|q| !dropped(z, q));
        match z.buffer.take() {
            Some(buf) => {
                let (p, q) = (want_p.then(|| buf.parity()), want_q.then(|| buf.q_parity()));
                let done = self.issue_parity_columns(z, devices, issue, lzone, stripe, p, q, fua);
                self.retire_stripe_buffer(buf);
                done
            }
            None => {
                let unit_bytes = (self.layout.stripe_unit() * SECTOR_SIZE) as usize;
                let mut cols = self.members.columns();
                let (p, q) = cols.split_at_mut(unit_bytes);
                let (mut p, mut q) = (want_p.then_some(p), want_q.then_some(q));
                sim::encode_pq(chunk, p.as_deref_mut(), q.as_deref_mut());
                let (p, q) = (p.as_deref(), q.as_deref());
                self.issue_parity_columns(z, devices, issue, lzone, stripe, p, q, fua)
            }
        }
    }

    /// Issues the parity legs of a completed stripe, the whole columns to
    /// the parity slots, and returns when the last one completes. `p` /
    /// `q` are `None` for a leg that does not exist (`q` on a
    /// single-parity array) or that
    /// `store_slot_rows` would drop (device failed, slot not relocated);
    /// a dropped leg is not issued, its span and counters still land at
    /// `issue`. Runs under `lzone`'s shard lock (`z`).
    #[allow(clippy::too_many_arguments)]
    fn issue_parity_columns(
        &self,
        z: &mut LZone,
        devices: &Roster<'_>,
        issue: SimTime,
        lzone: u32,
        stripe: u64,
        p: Option<&[u8]>,
        q: Option<&[u8]>,
        fua: bool,
    ) -> Result<SimTime> {
        let su = self.layout.stripe_unit();
        let pdev = self.layout.parity_device(lzone, stripe);
        let qdev = self.layout.q_device(lzone, stripe);
        let flags = WriteFlags {
            fua,
            preflush: false,
        };
        let mut completion = issue;
        let legs = [
            (Some(pdev), p, obs::PathKind::FullParity),
            (qdev, q, obs::PathKind::QParity),
        ];
        for (dev, col, path) in legs {
            let Some(dev) = dev else { continue };
            let done = match col {
                Some(col) => {
                    self.store_slot_rows(z, devices, issue, lzone, stripe, dev, 0, col, flags)?
                }
                None => issue,
            };
            completion = completion.max(done);
            self.tracer.leaf(
                obs::Span::new(obs::OpClass::Write, obs::Stage::Xor, issue, done)
                    .path(path)
                    .zone(lzone)
                    .sectors(su),
            );
        }
        AtomicRaiznStats::add(&self.stats.full_parity_writes, 1);
        self.tracer.bump(obs::Counter::FullParityWrites);
        if qdev.is_some() {
            AtomicRaiznStats::add(&self.stats.q_parity_writes, 1);
            self.tracer.bump(obs::Counter::QParityWrites);
        }
        Ok(completion)
    }

    /// Stores `data` rows of the slot held by `dev` at `(lzone, stripe)`,
    /// relocating to the device's metadata zone when the slot is
    /// conflicted, and skipping failed devices. `row0` is the first row.
    /// Runs under `lzone`'s shard lock (`z`).
    #[allow(clippy::too_many_arguments)]
    fn store_slot_rows(
        &self,
        z: &mut LZone,
        devices: &Roster<'_>,
        at: SimTime,
        lzone: u32,
        stripe: u64,
        dev: u32,
        row0: u64,
        data: &[u8],
        flags: WriteFlags,
    ) -> Result<SimTime> {
        let su = self.layout.stripe_unit();
        if z.conflicts.contains(&(stripe, dev)) {
            // Relocate: accumulate into the cached unit and persist a
            // relocation record on the affected device (§5.2).
            let unit_bytes = (su * SECTOR_SIZE) as usize;
            let mut m = self.lock_meta();
            let entry = m
                .live
                .relocated
                .entry((lzone, stripe, dev))
                .or_insert_with(|| RelocatedUnit {
                    data: vec![0u8; unit_bytes],
                    valid: 0,
                });
            let off = (row0 * SECTOR_SIZE) as usize;
            entry.data[off..off + data.len()].copy_from_slice(data);
            entry.valid = entry.valid.max(row0 + data.len() as u64 / SECTOR_SIZE);
            self.sync_relocated_count(&m.live);
            AtomicRaiznStats::add(&self.stats.relocated_units, 1);
            self.tracer.bump(obs::Counter::RelocatedWrites);
            self.tracer.leaf(
                obs::Span::new(obs::OpClass::Write, obs::Stage::WholeOp, at, at)
                    .path(obs::PathKind::Relocated)
                    .zone(lzone)
                    .sectors(data.len() as u64 / SECTOR_SIZE),
            );
            return self.log_relocation(&mut m, devices, at, lzone, stripe, dev, flags.fua);
        }
        if self.members.is_failed(dev as usize) {
            return Ok(at); // degraded write: omitted, covered by parity
        }
        // Retry exhaustion that degrades the device omits the write: the
        // unit stays covered by parity.
        let pba = self.layout.stripe_pba(lzone, stripe) + row0;
        devices.command(at, dev as usize, Exhausted::Omit, |d| {
            Ok(d.write(at, pba, data, flags)?.done)
        })
    }

    /// Foreground active-budget reclaim: when `reclaim_on_exhaustion` is
    /// set, a write that would activate a fresh logical zone while some
    /// device sits at its active-zone limit inline-finishes the most
    /// nearly full active logical zone to make room, and returns the
    /// finish completion as the write's new issue time — the write-stall
    /// cliff a [`crate::ZoneLifecycleManager`] exists to prevent.
    ///
    /// Takes no locks on entry; `zone_info`/`finish_zone` acquire their
    /// own (shard → meta → device), so this must run before `do_write`
    /// locks anything.
    fn reclaim_for_activation(&self, at: SimTime, lzone: u32) -> Result<SimTime> {
        if !self.config.reclaim_on_exhaustion
            || self.zone_wp[lzone as usize].load(Ordering::Acquire) != 0
        {
            return Ok(at);
        }
        let exhausted = {
            let devices = self.members.read();
            devices.devices().iter().enumerate().any(|(i, dev)| {
                !self.members.is_failed(i) && dev.active_zones() >= dev.config().max_active_zones()
            })
        };
        if !exhausted {
            return Ok(at);
        }
        // Victim: the most nearly full writable logical zone (the cheapest
        // remainder to fill), never the zone being activated.
        let mut candidates: Vec<(u64, u32)> = (0..self.layout.logical_zones())
            .filter(|z| *z != lzone)
            .filter_map(|z| {
                let wp = self.zone_wp[z as usize].load(Ordering::Acquire);
                (wp > 0).then_some((wp, z))
            })
            .collect();
        candidates.sort_unstable_by(|a, b| b.cmp(a));
        for (_, victim) in candidates {
            if !self.zone_info(victim)?.state.is_writable() {
                continue;
            }
            let done = self.finish_zone(at, victim)?.done;
            AtomicRaiznStats::add(&self.stats.foreground_reclaims, 1);
            return Ok(done);
        }
        // Nothing reclaimable: let the device report budget exhaustion.
        Ok(at)
    }

    /// Chunk stage: stages the chunk that starts `off_in_stripe` sectors
    /// into `stripe` in the zone's stripe buffer and returns the parity
    /// row hull it touched. A chunk that covers the whole stripe bypasses
    /// the buffer: its parity is encoded straight from the caller's
    /// payload once the data legs are out. Buffers are drawn from the
    /// volume's pool, so steady-state writes allocate nothing.
    fn stage_chunk(
        &self,
        z: &mut LZone,
        stripe: u64,
        off_in_stripe: u64,
        chunk: &[u8],
    ) -> (u64, u64) {
        let su = self.layout.stripe_unit();
        let whole = chunk.len() as u64 / SECTOR_SIZE == self.layout.stripe_data_sectors();
        let staged_here = matches!(&z.buffer, Some(b) if b.stripe() == stripe);
        if !staged_here {
            debug_assert_eq!(off_in_stripe, 0, "mid-stripe write without a staged buffer");
            if let Some(stale) = z.buffer.take() {
                self.retire_stripe_buffer(stale);
            }
            if !whole {
                z.buffer = Some(self.draw_stripe_buffer(stripe));
            }
        }
        match z.buffer.as_mut() {
            Some(buf) => buf.fill(chunk),
            None => (0, su),
        }
    }

    /// Chunk stage: issues the chunk's data legs, one sub-IO per stripe
    /// unit it touches, and returns when the last one completes.
    #[allow(clippy::too_many_arguments)]
    fn issue_data_legs(
        &self,
        z: &mut LZone,
        devices: &Roster<'_>,
        issue: SimTime,
        lzone: u32,
        stripe: u64,
        off_in_stripe: u64,
        chunk: &[u8],
        fua: bool,
    ) -> Result<SimTime> {
        let su = self.layout.stripe_unit();
        let flags = WriteFlags {
            fua,
            preflush: false,
        };
        let end = off_in_stripe + chunk.len() as u64 / SECTOR_SIZE;
        let mut completion = issue;
        for (sector, row0, rows) in unit_segments(off_in_stripe, end, su) {
            let dev = self.layout.data_device(lzone, stripe, sector / su);
            let off = ((sector - off_in_stripe) * SECTOR_SIZE) as usize;
            let bytes = &chunk[off..off + (rows * SECTOR_SIZE) as usize];
            let done =
                self.store_slot_rows(z, devices, issue, lzone, stripe, dev, row0, bytes, flags)?;
            completion = completion.max(done);
        }
        Ok(completion)
    }

    /// Parity stage of a chunk that leaves its stripe incomplete (§5.1):
    /// logs the affected rows of the running parity on the device that
    /// will hold the stripe's parity — and, on a dual-parity array, a
    /// second record tagged `PartialParityQ` on the future Q holder, so a
    /// crash plus two device losses can still close the write hole. The
    /// write's completion is withheld until every leg has landed. Rows
    /// are borrowed straight out of the stripe buffer: no owned payload
    /// copy. `z.wp` is already past the chunk.
    #[allow(clippy::too_many_arguments)]
    fn log_partial_parity(
        &self,
        z: &LZone,
        devices: &Roster<'_>,
        issue: SimTime,
        lzone: u32,
        stripe: u64,
        chunk_sectors: u64,
        (row_lo, row_hi): (u64, u64),
        fua: bool,
    ) -> Result<SimTime> {
        let su = self.layout.stripe_unit();
        let buf = z
            .buffer
            .as_ref()
            .ok_or_else(|| internal("stripe buffer staged for pp log"))?;
        // Ablation: optionally log the whole running parity unit instead
        // of only the affected rows (§5.1).
        let (lo, hi) = if self.config.pp_log_full_unit {
            (0, su)
        } else {
            (row_lo, row_hi)
        };
        let rows = (lo * SECTOR_SIZE) as usize..(hi * SECTOR_SIZE) as usize;
        let chunk_end = self.layout.logical_geometry().zone_start(lzone) + z.wp;
        let mut m = self.lock_meta();
        let MetaState { log, live, .. } = &mut *m;
        // Refresh the checkpoint snapshot for metadata GC first (the stripe
        // buffer itself stays behind this zone's shard): an append below
        // that collects its own log zone must checkpoint this frontier —
        // the write pointer mirror has already moved to it.
        self.capture_snapshot(live, lzone, buf);
        let mut pp_done = issue;
        for (dev, leg) in self.parity_legs(lzone, stripe) {
            let rec = MdRecordRef::new(
                leg.pp_payload(lo, &leg.column(buf)[rows.clone()]),
                false,
                chunk_end - chunk_sectors,
                chunk_end,
                live.gens[lzone as usize],
            );
            let dev = dev as usize;
            let done = self.md_append(log, live, devices, issue, dev, MdRole::PpLog, rec, fua)?;
            pp_done = pp_done.max(done);
        }
        drop(m);
        let legs = u64::from(self.layout.parity_units());
        AtomicRaiznStats::add(&self.stats.pp_log_entries, 1);
        AtomicRaiznStats::add(&self.stats.pp_q_log_entries, legs - 1);
        AtomicRaiznStats::add(&self.stats.pp_log_bytes, legs * (hi - lo) * SECTOR_SIZE);
        self.tracer.bump(obs::Counter::PpLogWrites);
        self.tracer.leaf(
            obs::Span::new(obs::OpClass::Write, obs::Stage::Xor, issue, pp_done)
                .path(obs::PathKind::PpLog)
                .zone(lzone)
                .sectors(hi - lo),
        );
        Ok(pp_done)
    }

    /// Write stage after the last chunk: the contract's state after the
    /// write; a zone filled to capacity returns its stripe buffer.
    fn settle_zone_state(&self, z: &mut LZone, lzone: u32) {
        z.state = z
            .state
            .after_write(z.wp, self.layout.logical_geometry().zone_cap());
        if z.state == ZoneState::Full {
            if let Some(buf) = z.buffer.take() {
                self.retire_stripe_buffer(buf);
            }
            // No WAL is written on the hot path, but the next metadata GC
            // checkpoints a finish record so the cap fill stays durable
            // under maximal device failures.
            self.zone_sealed[lzone as usize].store(true, Ordering::Release);
        }
    }

    /// The write-path core, shared by `write` and `append` once they have
    /// checked the arguments, of `data` at offset `rel` of `lzone`, as a
    /// sequence of named stages: validate → preflush → per stripe chunk {
    /// stage or bypass the stripe buffer → issue data legs → advance the
    /// write pointer → one parity stage } → settle zone state → FUA
    /// persist → root span. Takes only the target zone's shard lock (plus
    /// brief meta acquisitions in the metadata-logging stages), so writes
    /// to distinct zones run concurrently.
    fn do_write(
        &self,
        at: SimTime,
        lzone: u32,
        rel: u64,
        data: &[u8],
        flags: WriteFlags,
    ) -> Result<IoCompletion> {
        if self.read_only.load(Ordering::Acquire) {
            return Err(ZnsError::VolumeReadOnly);
        }
        let lgeo = self.layout.logical_geometry();
        let sectors = data.len() as u64 / SECTOR_SIZE;
        let op_span = self.tracer.begin();
        // Foreground reclaim (opt-in): activating a fresh zone with the
        // device active budget exhausted inline-finishes a victim zone
        // first, and this write absorbs the whole finish (fill writes
        // over the victim's remainder). Runs before any lock is taken:
        // it acquires shard/meta/device locks of its own.
        let at = self.reclaim_for_activation(at, lzone)?;
        let devices = self.members.read();
        let mut z = self.lock_shard(lzone);
        self.tracer.lock_mark(obs::OpClass::Write, lzone, at);
        z.state.check_write(&lgeo, lzone, z.wp, rel, sectors)?;

        let mut issue = at;
        if flags.preflush {
            // flush_all takes every shard in index order; release ours
            // first (lock order: at most one shard at a time), then
            // re-validate — a racing writer to the same zone surfaces as
            // an ordinary sequencing error.
            drop(z);
            issue = self.flush_all(&devices, at)?;
            z = self.lock_shard(lzone);
            z.state.check_write(&lgeo, lzone, z.wp, rel, sectors)?;
        }
        let mut completion = issue;

        let stripe_data = self.layout.stripe_data_sectors();
        let mut remaining = data;
        while !remaining.is_empty() {
            let stripe = z.wp / stripe_data;
            let off_in_stripe = z.wp % stripe_data;
            let chunk_sectors =
                (stripe_data - off_in_stripe).min(remaining.len() as u64 / SECTOR_SIZE);
            let (chunk, rest) = remaining.split_at((chunk_sectors * SECTOR_SIZE) as usize);
            remaining = rest;
            let rows = self.stage_chunk(&mut z, stripe, off_in_stripe, chunk);
            let done = self.issue_data_legs(
                &mut z,
                &devices,
                issue,
                lzone,
                stripe,
                off_in_stripe,
                chunk,
                flags.fua,
            )?;
            completion = completion.max(done);
            // The written units are volatile again until the next
            // flush/FUA, even if an earlier flush covered their heads.
            let wp = z.wp;
            z.pbitmap.clear_range(wp, wp + chunk_sectors);
            z.wp += chunk_sectors;
            self.zone_wp[lzone as usize].store(z.wp, Ordering::Release);
            // Exactly one parity stage per chunk: full parity when the
            // chunk completes its stripe, otherwise the affected rows in
            // the partial-parity log.
            let complete = z.buffer.as_ref().is_none_or(StripeBuffer::is_complete);
            let done = if complete {
                self.store_parity_legs(&mut z, &devices, issue, lzone, stripe, chunk, flags.fua)?
            } else {
                self.log_partial_parity(
                    &z,
                    &devices,
                    issue,
                    lzone,
                    stripe,
                    chunk_sectors,
                    rows,
                    flags.fua,
                )?
            };
            completion = completion.max(done);
        }
        self.settle_zone_state(&mut z, lzone);

        // FUA: everything below the new write pointer must be durable
        // before completion (§5.3).
        if flags.fua {
            let done = self.persist_zone(&mut z, &devices, completion, lzone)?;
            completion = completion.max(done);
        }
        self.tracer.root(
            &op_span,
            obs::Span::new(obs::OpClass::Write, obs::Stage::WholeOp, at, completion)
                .zone(lzone)
                .lba(lgeo.zone_start(lzone) + rel)
                .sectors(sectors),
        );
        Ok(IoCompletion { done: completion })
    }

    /// Flushes every device holding a non-persisted stripe unit of
    /// `lzone` below its write pointer, then marks the zone persisted.
    /// Runs under `lzone`'s shard lock.
    fn persist_zone(
        &self,
        z: &mut LZone,
        devices: &Roster<'_>,
        at: SimTime,
        lzone: u32,
    ) -> Result<SimTime> {
        let data_units = self.layout.data_units();
        let wp = z.wp;
        // A device bitmask like the failure mask: no allocation per FUA.
        let mut flush_mask = 0u64;
        for unit in z.pbitmap.unpersisted_below(wp) {
            let stripe = unit / data_units;
            let k = unit % data_units;
            flush_mask |= 1 << self.layout.data_device(lzone, stripe, k);
            // The parity (or its log) must be durable too for fault
            // tolerance of the acknowledged data.
            flush_mask |= 1 << self.layout.parity_device(lzone, stripe);
            if let Some(q) = self.layout.q_device(lzone, stripe) {
                flush_mask |= 1 << q;
            }
        }
        flush_mask &= !self.members.failure_mask();
        let done = devices.flush(at, flush_mask)?;
        let flushes = u64::from(flush_mask.count_ones());
        AtomicRaiznStats::add(&self.stats.persistence_flushes, flushes);
        z.pbitmap.mark_persisted_below(wp);
        self.tracer
            .leaf(obs::Span::new(obs::OpClass::Flush, obs::Stage::Flush, at, done).zone(lzone));
        Ok(done)
    }

    /// Flushes all devices and marks every zone persisted. Callers must
    /// not hold any shard lock: each zone's shard is taken in index order
    /// to update its persistence bitmap.
    fn flush_all(&self, devices: &Roster<'_>, at: SimTime) -> Result<SimTime> {
        let done = devices.flush(at, !0)?;
        for zm in &self.zones {
            let mut z = zm.lock();
            let wp = z.wp;
            z.pbitmap.mark_persisted_below(wp);
        }
        self.tracer.leaf(obs::Span::new(
            obs::OpClass::Flush,
            obs::Stage::Flush,
            at,
            done,
        ));
        Ok(done)
    }

    // ------------------------------------------------------------------
    // Zone reset (§5.2)
    // ------------------------------------------------------------------

    /// The WAL record of `intent` on `lzone`: the header's LBA range runs
    /// from the zone start to the zone's capacity (reset) or to the sealed
    /// write pointer (finish).
    fn zone_intent_record(
        &self,
        live: &LiveMeta,
        lzone: u32,
        intent: ZoneIntent,
        checkpoint: bool,
    ) -> MdRecordRef<'static> {
        let lgeo = self.layout.logical_geometry();
        let start = lgeo.zone_start(lzone);
        let (payload, end) = match intent {
            ZoneIntent::Reset => (MdPayloadRef::ZoneResetLog, start + lgeo.zone_cap()),
            ZoneIntent::Finish(wp) => (MdPayloadRef::ZoneFinishLog, start + wp),
        };
        MdRecordRef::new(payload, checkpoint, start, end, live.gens[lzone as usize])
    }

    /// Appends the write-ahead record of `intent` on `lzone` to the
    /// designated devices — the holders of the zone's first stripe unit
    /// and first parity unit (rotating per zone), plus the Q holder on a
    /// dual-parity array so the intent survives losing any two devices —
    /// and returns the completion time.
    fn log_zone_intent(
        &self,
        m: &mut MetaState,
        devices: &Roster<'_>,
        at: SimTime,
        lzone: u32,
        intent: ZoneIntent,
    ) -> Result<SimTime> {
        let MetaState { log, live, .. } = m;
        let rec = self.zone_intent_record(live, lzone, intent, false);
        let homes = [
            Some(self.layout.data_device(lzone, 0, 0)),
            Some(self.layout.parity_device(lzone, 0)),
            self.layout.q_device(lzone, 0),
        ];
        let mut done = at;
        for dev in homes.into_iter().flatten() {
            let dev = dev as usize;
            let t = self.md_append(log, live, devices, at, dev, MdRole::General, rec, true)?;
            done = done.max(t);
        }
        Ok(done)
    }

    /// Completes a logical zone reset: bumps the generation counter,
    /// persists its page, and clears the zone's in-memory state. Runs
    /// under `lzone`'s shard lock.
    fn finish_reset(
        &self,
        z: &mut LZone,
        devices: &Roster<'_>,
        t: SimTime,
        lzone: u32,
    ) -> Result<SimTime> {
        let done = {
            let mut m = self.lock_meta();
            m.live.gens[lzone as usize] += 1;
            if m.live.gens[lzone as usize] == u64::MAX {
                // Counter exhaustion: the volume goes read-only until
                // maintenance runs (§4.3).
                self.read_only.store(true, Ordering::Release);
            }
            let done = self.persist_gen_page(&mut m, devices, t, lzone)?;
            m.live.relocated.retain(|(lz, _, _), _| *lz != lzone);
            self.sync_relocated_count(&m.live);
            m.live.retire_snapshot(lzone);
            done
        };
        if let Some(buf) = z.buffer.take() {
            self.retire_stripe_buffer(buf);
        }
        z.state = ZoneState::Empty;
        z.wp = 0;
        z.pbitmap.clear();
        z.conflicts.clear();
        self.zone_wp[lzone as usize].store(0, Ordering::Release);
        // The generation bump above invalidates any finish WAL; stop
        // checkpointing it.
        self.zone_sealed[lzone as usize].store(false, Ordering::Release);
        AtomicRaiznStats::add(&self.stats.zone_resets, 1);
        Ok(done)
    }

    /// Test support: performs the reset WAL and then resets only the first
    /// `devices_reset` physical zones before "losing power" — the partial
    /// zone reset scenario of §5.2. The volume must be dropped and
    /// remounted afterwards.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    #[doc(hidden)]
    pub fn interrupted_reset_for_test(
        &self,
        at: SimTime,
        lzone: u32,
        devices_reset: usize,
    ) -> Result<()> {
        let devices = self.members.read();
        let _z = self.lock_shard(lzone);
        let t = {
            let mut m = self.lock_meta();
            self.log_zone_intent(&mut m, &devices, at, lzone, ZoneIntent::Reset)?
        };
        let phys = self.layout.phys_zone(lzone);
        for dev in 0..devices_reset {
            devices.command(t, dev, Exhausted::Surface, |d| {
                Ok(d.reset_zone(t, phys)?.done)
            })?;
        }
        Ok(())
    }

    /// Test support: performs the finish WAL and then finishes only the
    /// first `devices_finished` physical zones — a background finish
    /// interrupted partway across the array's per-device seal loop. No
    /// logical state is updated and no parity prefix is sealed; the
    /// volume must be dropped and remounted afterwards.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    #[doc(hidden)]
    pub fn interrupted_finish_for_test(
        &self,
        at: SimTime,
        lzone: u32,
        devices_finished: usize,
    ) -> Result<()> {
        let devices = self.members.read();
        let z = self.lock_shard(lzone);
        let t = {
            let mut m = self.lock_meta();
            self.log_zone_intent(&mut m, &devices, at, lzone, ZoneIntent::Finish(z.wp))?
        };
        let phys = self.layout.phys_zone(lzone);
        for dev in 0..devices_finished {
            devices.command(t, dev, Exhausted::Surface, |d| {
                Ok(d.finish_zone(t, phys)?.done)
            })?;
        }
        Ok(())
    }

    /// Generation-counter maintenance (§4.3): garbage collects every
    /// metadata zone, resets all generation counters to zero and clears
    /// read-only mode. The paper runs this when a counter would overflow;
    /// it is write-ahead logged there — atomic by construction in this
    /// synchronous model.
    ///
    /// # Errors
    ///
    /// Propagates device IO errors.
    pub fn maintenance(&self, at: SimTime) -> Result<SimTime> {
        let devices = self.members.read();
        self.sync_pp_snapshots();
        let mut m = self.lock_meta();
        let MetaState { log, live, .. } = &mut *m;
        live.gens.fill(0);
        let mut t = at;
        for dev in 0..devices.len() {
            if self.members.is_failed(dev) {
                continue;
            }
            t = t.max(self.md_gc(log, live, &devices, t, dev, MdRole::General)?);
            t = t.max(self.md_gc(log, live, &devices, t, dev, MdRole::PpLog)?);
        }
        drop(m);
        self.read_only.store(false, Ordering::Release);
        Ok(t)
    }

    // ------------------------------------------------------------------
    // Rebuild (§4.2)
    // ------------------------------------------------------------------

    /// Rebuilds the lowest-indexed failed device onto `replacement`, zone
    /// by zone with active zones first, rebuilding **only valid data** (up
    /// to each logical zone's write pointer) — the Fig. 12 behaviour.
    ///
    /// In dual-parity mode with two devices failed, each `rebuild` call
    /// restores one device (lowest index first); reconstruction during the
    /// first pass decodes around the second missing device with the
    /// two-erasure Reed–Solomon path. Call again with a second
    /// replacement to restore full redundancy.
    ///
    /// Locks one zone shard at a time; concurrent IO to other zones is
    /// not blocked, but callers should quiesce writes for a consistent
    /// rebuild point (see `DESIGN.md`).
    ///
    /// # Errors
    ///
    /// Fails if no device is failed, the replacement geometry mismatches,
    /// or device IO fails.
    pub fn rebuild(&self, at: SimTime, replacement: Arc<ZnsDevice>) -> Result<RebuildReport> {
        // Priority order: active zones first (open/closed), then full.
        let mut order: Vec<(u32, u8)> = Vec::new();
        for lz in 0..self.layout.logical_zones() {
            let z = self.lock_shard(lz);
            if z.wp == 0 {
                continue;
            }
            let pri = match z.state {
                ZoneState::ImplicitlyOpen | ZoneState::ExplicitlyOpen | ZoneState::Closed => 0,
                _ => 1,
            };
            order.push((lz, pri));
        }
        order.sort_by_key(|&(_, pri)| pri);
        let stripe_data = self.layout.stripe_data_sectors();
        let report = self.members.rebuild(at, replacement, |devices, rb| {
            let failed = rb.member() as u32;
            for (lzone, _) in order {
                let mut z = self.lock_shard(lzone);
                let wp = z.wp;
                let phys_zone = self.layout.phys_zone(lzone);
                for stripe in 0..wp.div_ceil(stripe_data) {
                    // What does the replacement hold for this stripe?
                    let needed = self.layout.slot_extent(lzone, stripe, failed, wp);
                    if needed == 0 {
                        continue;
                    }
                    let healed = {
                        let mut m = self.lock_meta();
                        let rel = m.live.relocated.remove(&(lzone, stripe, failed));
                        if rel.is_some() {
                            self.sync_relocated_count(&m.live);
                        }
                        rel
                    };
                    if let Some(rel) = healed {
                        // Heal the relocation: the true data returns to its
                        // arithmetic slot on the fresh device.
                        z.conflicts.remove(&(stripe, failed));
                        rb.extent(phys_zone, stripe, needed, Fill::Copy(&rel.data))?;
                    } else if (stripe + 1) * stripe_data <= wp {
                        let src = SlotStripe {
                            vol: self,
                            devices,
                            lzone,
                            stripe,
                        };
                        rb.extent(phys_zone, stripe, needed, Fill::Reconstruct(&src))?;
                    } else {
                        // Incomplete stripe: serve from the stripe buffer,
                        // which mount and `finish_zone` always leave seeded;
                        // fail rather than install zeros as data.
                        let k = self
                            .layout
                            .unit_of_device(lzone, stripe, failed)
                            .ok_or_else(|| internal("parity slot of an incomplete stripe"))?;
                        let buf = z.buffer.as_ref().filter(|b| b.stripe() == stripe);
                        let buf =
                            buf.ok_or_else(|| internal("incomplete stripe without its buffer"))?;
                        rb.extent(phys_zone, stripe, needed, Fill::Copy(buf.unit_data(k)))?;
                    }
                }
                // Seal the replacement's zone to match the logical state.
                if z.state == ZoneState::Full {
                    rb.seal(phys_zone)?;
                }
                rb.zone_done();
            }
            // The fresh device's metadata zones get every live record the
            // failed member's held.
            let mut m = self.lock_meta();
            let MetaState { log, live, .. } = &mut *m;
            let dev = failed as usize;
            log.md[dev] = MdRoles::fresh();
            rb.on_replacement(|fresh, mut t| {
                for role in [MdRole::General, MdRole::PpLog] {
                    self.checkpoint_live(live, dev, role, false, |rec| {
                        t = self.md_write(log, fresh, t, dev, role, rec, WriteFlags::FUA)?;
                        Ok(())
                    })?;
                }
                Ok(t)
            })
        })?;
        AtomicRaiznStats::add(&self.stats.rebuild_bytes, report.bytes_written);
        AtomicRaiznStats::add(&self.stats.rebuilds_completed, 1);
        Ok(report)
    }
}

/// One stripe of a logical zone as the member layer's decode sees it:
/// roles by the rotating layout, every slot but a failed member's served,
/// and a failed member's too when the relocation cache holds it.
struct SlotStripe<'a, 'r> {
    vol: &'a RaiznVolume,
    devices: &'a Roster<'r>,
    lzone: u32,
    stripe: u64,
}

impl Stripe for SlotStripe<'_, '_> {
    fn role(&self, dev: u32) -> Role {
        self.vol.slot_role(self.lzone, self.stripe, dev)
    }

    fn available(&self, dev: u32) -> bool {
        !self.vol.members.is_failed(dev as usize)
            || self.vol.is_relocated(self.lzone, self.stripe, dev)
    }

    fn fetch(&self, at: SimTime, dev: u32, row0: u64, out: &mut [u8]) -> Result<SimTime> {
        let (lz, stripe) = (self.lzone, self.stripe);
        self.vol
            .fetch_slot_rows(None, self.devices, at, lz, stripe, dev, row0, out)
    }

    fn zone(&self) -> u32 {
        self.lzone
    }
}

impl ZonedVolume for RaiznVolume {
    fn geometry(&self) -> ZoneGeometry {
        self.layout.logical_geometry()
    }

    fn read(&self, at: SimTime, lba: Lba, buf: &mut [u8]) -> Result<IoCompletion> {
        let lgeo = self.layout.logical_geometry();
        let (lzone, rel0, sectors) = lgeo.check_io(lba, buf.len())?;
        let op_span = self.tracer.begin();
        let devices = self.members.read();
        let mut z = self.lock_shard(lzone);
        self.tracer.lock_mark(obs::OpClass::Read, lzone, at);
        z.state.check_read(&lgeo, lzone, z.wp, rel0, sectors)?;
        let z = &mut *z;
        let su = self.layout.stripe_unit();
        let stripe_data = self.layout.stripe_data_sectors();
        let mut done = at;
        let mut cursor = rel0;
        let mut off = 0usize;
        // Unit by unit through the member layer's read path: a member that
        // cannot serve its rows is read around — from the stripe buffer
        // while the stripe has no parity, by decoding once it has — and a
        // latent unit comes back decoded whole and is relocated, so later
        // reads never touch the bad sectors.
        while cursor < rel0 + sectors {
            let stripe = cursor / stripe_data;
            let within = cursor % stripe_data;
            let dev = self.layout.data_device(lzone, stripe, within / su);
            let row0 = within % su;
            let rows = (su - row0).min(rel0 + sectors - cursor);
            let out = &mut buf[off..off + (rows * SECTOR_SIZE) as usize];
            let staged = z.buffer.as_ref().filter(|b| b.stripe() == stripe);
            let staged = staged.filter(|b| within + rows <= b.filled_sectors());
            let open = staged.map(|b| b.read_range(within, within + rows));
            let src = SlotStripe {
                vol: self,
                devices: &devices,
                lzone,
                stripe,
            };
            let (t, repaired) = self.members.read_slot(at, &src, dev, row0, out, open)?;
            done = done.max(t);
            if let Some(unit) = repaired {
                let t = self.relocate_repaired_unit(z, &devices, at, lzone, stripe, dev, unit)?;
                done = done.max(t);
            }
            cursor += rows;
            off += (rows * SECTOR_SIZE) as usize;
        }
        self.tracer.root(
            &op_span,
            obs::Span::new(obs::OpClass::Read, obs::Stage::WholeOp, at, done)
                .zone(lzone)
                .lba(lba)
                .sectors(sectors),
        );
        Ok(IoCompletion { done })
    }

    fn write(&self, at: SimTime, lba: Lba, data: &[u8], flags: WriteFlags) -> Result<IoCompletion> {
        let (lzone, rel, _) = self.layout.logical_geometry().check_io(lba, data.len())?;
        self.do_write(at, lzone, rel, data, flags)
    }

    /// Batch-write entry point: stages `segments` into a pooled scratch
    /// buffer and submits them as one contiguous extent, so a coalesced
    /// batch spanning full stripes takes the full-parity path instead of
    /// per-segment partial-parity logging.
    fn write_vectored(
        &self,
        at: SimTime,
        lba: Lba,
        segments: &[&[u8]],
        flags: WriteFlags,
    ) -> Result<IoCompletion> {
        match segments {
            [] => Ok(IoCompletion { done: at }),
            [only] => self.write(at, lba, only, flags),
            _ => {
                let mut scratch = std::mem::take(&mut self.lock_meta().gather_scratch);
                scratch.clear();
                for seg in segments {
                    scratch.extend_from_slice(seg);
                }
                let r = self.write(at, lba, &scratch, flags);
                self.lock_meta().gather_scratch = scratch;
                if r.is_ok() {
                    AtomicRaiznStats::add(&self.stats.gather_writes, 1);
                    AtomicRaiznStats::add(
                        &self.stats.gather_segments_merged,
                        segments.len() as u64 - 1,
                    );
                }
                r
            }
        }
    }

    fn append(
        &self,
        at: SimTime,
        zone: u32,
        data: &[u8],
        flags: WriteFlags,
    ) -> Result<AppendCompletion> {
        let lgeo = self.layout.logical_geometry();
        lgeo.check_append(zone, data.len())?;
        let rel = self.lock_shard(zone).wp;
        let c = self.do_write(at, zone, rel, data, flags)?;
        Ok(AppendCompletion {
            lba: lgeo.zone_start(zone) + rel,
            done: c.done,
        })
    }

    fn reset_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        let lgeo = self.layout.logical_geometry();
        lgeo.check_zone(zone)?;
        let op_span = self.tracer.begin();
        let devices = self.members.read();
        let mut z = self.lock_shard(zone);
        self.tracer.lock_mark(obs::OpClass::Reset, zone, at);
        if self.read_only.load(Ordering::Acquire) {
            return Err(ZnsError::VolumeReadOnly);
        }
        z.state.reset(zone)?;
        // WAL first (§5.2): the reset must be replayable before any
        // physical zone is touched.
        let t = {
            let mut m = self.lock_meta();
            self.tracer.lock_mark(obs::OpClass::Reset, obs::NONE, at);
            self.log_zone_intent(&mut m, &devices, at, zone, ZoneIntent::Reset)?
        };
        let phys = self.layout.phys_zone(zone);
        let mut done =
            devices.on_survivors(t, Exhausted::Omit, |_, d| Ok(d.reset_zone(t, phys)?.done))?;
        done = done.max(self.finish_reset(&mut z, &devices, done, zone)?);
        self.tracer.root(
            &op_span,
            obs::Span::new(obs::OpClass::Reset, obs::Stage::WholeOp, at, done)
                .zone(zone)
                .lba(lgeo.zone_start(zone)),
        );
        Ok(IoCompletion { done })
    }

    fn finish_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        let lgeo = self.layout.logical_geometry();
        lgeo.check_zone(zone)?;
        let op_span = self.tracer.begin();
        let devices = self.members.read();
        let mut z = self.lock_shard(zone);
        self.tracer.lock_mark(obs::OpClass::Finish, zone, at);
        if self.read_only.load(Ordering::Acquire) {
            return Err(ZnsError::VolumeReadOnly);
        }
        let next = z.state.finish(zone)?;
        if next == z.state {
            return Ok(IoCompletion { done: at });
        }
        let mut done = at;
        // Seal the incomplete stripe's parity prefix into the parity slot
        // so the finished zone stays single-fault tolerant. The buffer is
        // detached for the duration of the write so its parity can be
        // passed as a borrowed slice, then reattached (rebuild still
        // consults it for the incomplete stripe).
        let taken = z.buffer.take();
        let sealed = (|| -> Result<()> {
            let Some(buf) = taken.as_ref().filter(|b| b.filled_sectors() > 0) else {
                return Ok(());
            };
            let rows = buf.filled_sectors().min(self.layout.stripe_unit());
            let stripe = buf.stripe();
            for (dev, leg) in self.parity_legs(zone, stripe) {
                let prefix = &leg.column(buf)[..(rows * SECTOR_SIZE) as usize];
                let flags = WriteFlags::default();
                let t = self
                    .store_slot_rows(&mut z, &devices, at, zone, stripe, dev, 0, prefix, flags)?;
                done = done.max(t);
                let (writes, counter) = match leg {
                    ParityLeg::P => (
                        &self.stats.full_parity_writes,
                        obs::Counter::FullParityWrites,
                    ),
                    ParityLeg::Q => (&self.stats.q_parity_writes, obs::Counter::QParityWrites),
                };
                AtomicRaiznStats::add(writes, 1);
                self.tracer.bump(counter);
            }
            Ok(())
        })();
        z.buffer = taken;
        sealed?;
        // Write-ahead: the sealed write pointer goes to the metadata WAL
        // before any device seals, so a crash anywhere in the per-device
        // finish loop rolls forward to exactly this fill at mount.
        {
            let mut m = self.lock_meta();
            self.tracer.lock_mark(obs::OpClass::Finish, obs::NONE, at);
            let t = self.log_zone_intent(&mut m, &devices, at, zone, ZoneIntent::Finish(z.wp))?;
            done = done.max(t);
        }
        let phys = self.layout.phys_zone(zone);
        done = done.max(devices.on_survivors(at, Exhausted::Surface, |_, d| {
            Ok(d.finish_zone(at, phys)?.done)
        })?);
        self.zone_sealed[zone as usize].store(true, Ordering::Release);
        z.state = next;
        let wp = z.wp;
        z.pbitmap.mark_persisted_below(wp);
        AtomicRaiznStats::add(&self.stats.zone_finishes, 1);
        self.tracer.root(
            &op_span,
            obs::Span::new(obs::OpClass::Finish, obs::Stage::WholeOp, at, done)
                .zone(zone)
                .lba(lgeo.zone_start(zone)),
        );
        Ok(IoCompletion { done })
    }

    fn open_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        self.layout.logical_geometry().check_zone(zone)?;
        let devices = self.members.read();
        let mut z = self.lock_shard(zone);
        let next = z.state.open(zone)?;
        let phys = self.layout.phys_zone(zone);
        // A member zone already full holds its whole share of the logical
        // zone and takes no more writes; it stays full.
        let done =
            devices.on_survivors(at, Exhausted::Surface, |_, d| match d.open_zone(at, phys) {
                Ok(c) => Ok(c.done),
                Err(ZnsError::ZoneFull { .. }) => Ok(at),
                Err(e) => Err(e),
            })?;
        z.state = next;
        Ok(IoCompletion { done })
    }

    fn close_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        self.layout.logical_geometry().check_zone(zone)?;
        let devices = self.members.read();
        let mut z = self.lock_shard(zone);
        let next = z.state.close(zone, z.wp)?;
        let phys = self.layout.phys_zone(zone);
        // Physical zones that were never written cannot be closed; ignore
        // state errors from them.
        let done = devices.on_survivors(at, Exhausted::Surface, |_, d| {
            match d.close_zone(at, phys) {
                Ok(c) => Ok(c.done),
                Err(ZnsError::BadZoneState { .. }) => Ok(at),
                Err(e) => Err(e),
            }
        })?;
        z.state = next;
        Ok(IoCompletion { done })
    }

    fn flush(&self, at: SimTime) -> Result<IoCompletion> {
        let devices = self.members.read();
        let done = self.flush_all(&devices, at)?;
        Ok(IoCompletion { done })
    }

    fn zone_info(&self, zone: u32) -> Result<ZoneInfo> {
        let lgeo = self.layout.logical_geometry();
        lgeo.check_zone(zone)?;
        let z = self.lock_shard(zone);
        Ok(lgeo.info(zone, z.state, z.wp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use zns::{FaultOp, FaultPlan, ZnsConfig};

    /// A whole-stripe write whose parity leg fails hands its column set
    /// back to the member layer's pool: the next whole-stripe write or
    /// degraded read draws it again instead of allocating.
    #[test]
    fn failed_parity_leg_keeps_the_spare_columns() {
        let devices: Vec<Arc<ZnsDevice>> = (0..5)
            .map(|_| Arc::new(ZnsDevice::new(ZnsConfig::small_test())))
            .collect();
        let v =
            RaiznVolume::format(devices.clone(), RaiznConfig::small_test(), SimTime::ZERO).unwrap();
        let sectors = v.layout.stripe_data_sectors();
        let stripe = vec![7u8; (sectors * SECTOR_SIZE) as usize];
        v.write(SimTime::ZERO, 0, &stripe, WriteFlags::default())
            .unwrap();
        assert_eq!(v.members.pooled_columns(), 1);

        let pdev = v.layout.parity_device(0, 1) as usize;
        let plan = (1..=u64::from(zns::array::TRANSIENT_RETRY_LIMIT) + 1)
            .fold(FaultPlan::new(1), |plan, n| {
                plan.fail_nth(FaultOp::Write, n)
            });
        devices[pdev].set_fault_plan(plan);
        v.write(SimTime::ZERO, sectors, &stripe, WriteFlags::default())
            .unwrap_err();
        assert_eq!(v.members.pooled_columns(), 1);
    }

    /// RAIZN's host buffers follow the stripes in flight, not the zones
    /// ever written: whole-stripe writes to 16 zones, a sub-stripe tail in
    /// each of 16 more then the rest of the zone, and degraded reads over
    /// all 32 (one member failed at p1, two at p2) leave one column set
    /// and one stripe buffer pooled, and one pair of pp-snapshot columns —
    /// where a buffer per zone ever written held 32 column sets.
    #[test]
    fn buffers_do_not_grow_with_zones_written() {
        for config in [RaiznConfig::small_test(), RaiznConfig::small_test_raizn2()] {
            let parity = config.parity;
            let devices = (0..5)
                .map(|_| {
                    let c = ZnsConfig::builder()
                        .zones(40, 64, 64)
                        .open_limits(4, 6)
                        .latency(zns::LatencyConfig::instant())
                        .build();
                    Arc::new(ZnsDevice::new(c))
                })
                .collect();
            let v = RaiznVolume::format(devices, config, SimTime::ZERO).unwrap();
            let lgeo = v.layout.logical_geometry();
            let (cap, stripe) = (lgeo.zone_cap(), v.layout.stripe_data_sectors());
            assert!(lgeo.num_zones() >= 32);
            let bytes = |sectors: u64, seed: u64| -> Vec<u8> {
                let mut b = vec![0u8; (sectors * SECTOR_SIZE) as usize];
                sim::SimRng::new(seed).fill_bytes(&mut b);
                b
            };
            let write = |lba: u64, data: &[u8]| {
                v.write(SimTime::ZERO, lba, data, WriteFlags::default())
                    .unwrap();
            };
            let mut zones = Vec::new();
            for lz in 0..32u32 {
                let (start, data) = (lgeo.zone_start(lz), bytes(cap, u64::from(lz)));
                if lz < 16 {
                    let stripes = data.chunks((stripe * SECTOR_SIZE) as usize);
                    for (s, whole) in (0..).zip(stripes) {
                        write(start + s * stripe, whole);
                    }
                } else {
                    let (tail, rest) = data.split_at((stripe / 2 * SECTOR_SIZE) as usize);
                    write(start, tail);
                    write(start + stripe / 2, rest);
                }
                zones.push((start, data));
            }
            for dev in 0..parity as usize {
                v.fail_device(2 * dev).unwrap();
            }
            let degraded = v.stats().degraded_reads;
            for (start, data) in &zones {
                let mut out = vec![0u8; data.len()];
                v.read(SimTime::ZERO, *start, &mut out).unwrap();
                assert!(out == *data, "p{parity}: zone at {start} read back wrong");
            }
            assert!(v.stats().degraded_reads > degraded);
            assert_eq!(v.members.pooled_columns(), 1, "p{parity}: column sets");
            assert!(
                v.stripe_buffers.lock().len() <= 2,
                "p{parity}: stripe buffers"
            );
            assert!((0..32).all(|lz| v.lock_shard(lz).buffer.is_none()));
            let m = v.lock_meta();
            let held = m.live.pp_live.iter().filter(|s| s.parity.capacity() > 0);
            assert_eq!(
                held.count() + m.live.pp_free.len(),
                1,
                "p{parity}: pp-snapshot columns"
            );
        }
    }

    proptest! {
        /// The incrementally maintained pp snapshot equals a from-scratch
        /// copy of the buffer's parity prefix after every capture, for
        /// fills that cross unit and stripe boundaries, captures skipped
        /// for some fills (a buffer mount-time recovery seeds, caught up
        /// later as `sync_pp_snapshots` does) and zone resets that invalidate the
        /// snapshot and restage the same stripe index.
        #[test]
        fn pp_snapshot_equals_prefix_copy(
            parity in 1u32..3,
            ops in prop::collection::vec((1u64..41, 0u32..6), 1..40),
        ) {
            let (units, su) = (4u64, 16u64);
            let mut buf = StripeBuffer::with_parity(0, units, su, parity);
            let mut snap = PpSnapshot::default();
            let mut free = Vec::new();
            let capture_and_check =
                |snap: &mut PpSnapshot, buf: &StripeBuffer, free: &mut Vec<PpColumns>| {
                snap.capture(buf, su, free);
                let rows = (buf.filled_sectors().min(su) * SECTOR_SIZE) as usize;
                prop_assert_eq!(snap.stripe, buf.stripe());
                prop_assert_eq!(snap.filled, buf.filled_sectors());
                let at = (snap.stripe, snap.filled);
                prop_assert!(snap.parity[..] == buf.parity()[..rows], "P differs at {at:?}");
                if parity == 2 {
                    prop_assert!(snap.q[..] == buf.q_parity()[..rows], "Q differs at {at:?}");
                } else {
                    prop_assert!(snap.q.is_empty());
                }
                Ok(())
            };
            let mut rng = sim::SimRng::new(0x5EED);
            let mut data = vec![0u8; (40 * SECTOR_SIZE) as usize];
            for (n, action) in ops {
                if action == 0 {
                    // Zone reset: `finish_reset` retires the snapshot, the
                    // next capture takes its stale columns back; then
                    // stripe 0 again.
                    snap.retire(&mut free);
                    buf.recycle(0);
                }
                let mut left = n;
                while left > 0 {
                    if buf.is_complete() {
                        buf.recycle(buf.stripe() + 1);
                    }
                    let run = left.min(units * su - buf.filled_sectors());
                    let chunk = &mut data[..(run * SECTOR_SIZE) as usize];
                    rng.fill_bytes(chunk);
                    buf.fill(chunk);
                    left -= run;
                }
                // Action 1: the fill made no pp append (as when mount
                // seeds a buffer), no capture.
                if action != 1 {
                    capture_and_check(&mut snap, &buf, &mut free)?;
                }
            }
            capture_and_check(&mut snap, &buf, &mut free)?;
        }
    }
}
