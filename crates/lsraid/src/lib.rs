//! lsraid: a log-structured RAID engine behind the [`ZonedVolume`] trait.
//!
//! Where RAIZN (the `raizn` crate) preserves the physical zone layout and
//! pays for partial-stripe durability with a partial-parity log, this
//! engine takes the opposite point in the design space: **every** write —
//! user data, GC migration, or zero padding — is appended into a
//! dynamically allocated *stripe group*, and parity is only ever computed
//! over full stripes. There is no partial-parity log and no
//! read-modify-write, at the cost of a logical→physical mapping table and
//! a RAID-level garbage collector that migrates valid data out of victim
//! groups before their zones are reset.
//!
//! # Layout
//!
//! A stripe group owns one physical zone on each of the `n` devices.
//! Within a group, stripe `s` occupies sectors `[s*K, (s+1)*K)` of every
//! member zone (`K` = stripe unit). Parity placement rotates by stripe
//! (`P` on device `s % n`, `Q` on `(s+1) % n` for dual parity), so parity
//! load spreads across the array exactly like classic RAID-5/6 rotation.
//! Physical zones 0 and 1 on every device are reserved; the first
//! `parity + 1` devices use them as the two slots of a replicated,
//! checksummed metadata log, so losing as many members as parity covers
//! always leaves a replica.
//!
//! # Members
//!
//! Every device command goes through the member layer shared with RAIZN
//! ([`zns::array`]): bounded transient retries, the error budget and
//! auto-degrade, the failure mask. A failed member's legs are omitted
//! (parity covers them), reads decode around it, mount proves a stripe
//! from the present members alone, and [`LsVolume::rebuild`] restores it
//! from the live groups only — a dead group is reclaimed, not copied.
//!
//! # Crash consistency
//!
//! The mapping table is made durable by checkpoint + roll-forward: the
//! active metadata slot starts with a full checkpoint record and accrues
//! seal summaries, group open/free transitions and logical zone
//! reset/finish events, all FUA-written and individually checksummed. At
//! mount the highest-epoch slot is replayed in sequence order; a seal
//! summary entry is only applied when every member zone provably holds
//! the stripe's data (device write pointers survived the crash), which
//! truncates each logical zone to its durable prefix. Mount ends by
//! rotating to a fresh checkpoint so recovery repairs are durable.
//!
//! # Submit/complete
//!
//! One log call has one issue instant: every data leg and every parity
//! leg of every stripe it touches is handed to its device at that
//! instant (after any group-open work), the seal entries of the stripes
//! it filled are staged and committed as *one* summary record issued
//! beside the legs, and the call completes at the latest of those
//! completions. A summary that lands before its data is harmless (mount
//! refuses it) and a lost one only loses unflushed data, so nothing has
//! to wait for anything; staged entries are committed before whatever
//! is ordered after them — the flush barrier (hence `GroupFree`, which
//! follows one) and a rotation's checkpoint.
//!
//! Group reclaim follows a strict ordering invariant: migrated data is
//! sealed and flushed *before* the `GroupFree` record is written, and the
//! victim's zones are reset only after that record is durable. A crash at
//! any intermediate point either replays the group as live (zones still
//! hold data) or as free (all valid data already durable elsewhere).

#![warn(missing_docs)]

mod fwdmap;
mod gc;
mod meta;
mod revmap;
#[cfg(test)]
mod tests;

pub use gc::{DirectSink, GcConfig, GcManager, GcSink};

use fwdmap::FwdMap;
use meta::{
    finish_record, kind, parse_record, put_u32, put_u64, MetaLog, Record, HEADER_BYTES, UNMAPPED,
};
use parking_lot::Mutex;
use revmap::RevMap;
use sim::codec::Role;
use sim::SimTime;
use std::ops::Range;
use std::sync::Arc;
use zns::array::{unit_segments, Exhausted, Fill, Members, RebuildReport, Roster, Stripe};
use zns::{
    AppendCompletion, IoCompletion, Lba, Result, WriteFlags, ZnsDevice, ZnsError, ZoneGeometry,
    ZoneInfo, ZoneState, ZonedVolume, SECTOR_SIZE,
};

/// Sentinel for "no physical zone assigned".
const NO_ZONE: u32 = u32::MAX;
/// Physical zones 0..META_ZONES are reserved on every device.
const META_ZONES: u32 = 2;
/// Free stripe groups kept in reserve; dropping to the reserve triggers an
/// inline (emergency) collection that stalls the write. Two, because
/// draining a victim can consume one free group for survivors before the
/// victim's own reclaim returns a group, and the write that triggered the
/// collection takes another.
const RESERVE_GROUPS: u32 = 2;
/// Stream index for foreground (hot) data.
const HOT: usize = 0;
/// Stream index for GC-migrated (cold) data.
const COLD: usize = 1;
/// Number of write streams: the foreground hot stream plus two cold
/// generations. Survivors of a hot-group collection go to generation 1;
/// survivors of a cold-group collection have proven cold twice and go
/// to generation 2, where they stop being remixed with warm newcomers.
const STREAMS: usize = 3;

/// Configuration of a log-structured RAID volume.
#[derive(Debug, Clone)]
pub struct LsConfig {
    /// Stripe unit in sectors (must divide the device zone capacity).
    pub stripe_unit: u64,
    /// Parity units per stripe: 1 (RAID-5-like) or 2 (RAID-6-like).
    pub parity: u32,
    /// Fraction of spendable capacity held back as over-provisioning;
    /// raising it gives GC more slack and lowers write amplification.
    pub op_ratio: f64,
}

impl Default for LsConfig {
    fn default() -> Self {
        LsConfig {
            stripe_unit: 16,
            parity: 1,
            op_ratio: 0.20,
        }
    }
}

impl LsConfig {
    /// Sets the stripe unit in sectors.
    #[must_use]
    pub fn stripe_unit(mut self, sectors: u64) -> Self {
        self.stripe_unit = sectors;
        self
    }

    /// Sets the parity count (1 or 2).
    #[must_use]
    pub fn parity(mut self, parity: u32) -> Self {
        self.parity = parity;
        self
    }

    /// Sets the over-provisioning ratio in `[0, 0.9]`.
    #[must_use]
    pub fn op_ratio(mut self, ratio: f64) -> Self {
        self.op_ratio = ratio;
        self
    }
}

/// Write-accounting snapshot of a volume (sector counts on the data
/// path; parity is reported separately and excluded from
/// [`LsVolume::waf`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsStats {
    /// Sectors of user data logged (foreground writes and appends).
    pub user_sectors: u64,
    /// Valid sectors rewritten by GC migration.
    pub migrated_sectors: u64,
    /// Zero-pad sectors written to seal partial stripes at flush points.
    pub pad_sectors: u64,
    /// Parity sectors written (P and Q units).
    pub parity_sectors: u64,
    /// Stripe groups reclaimed (zones reset and returned to the pool).
    pub group_reclaims: u64,
    /// Inline collections that stalled a foreground write.
    pub emergency_reclaims: u64,
    /// Stripe groups opened.
    pub groups_opened: u64,
    /// Metadata records committed.
    pub meta_records: u64,
    /// Metadata slot rotations (checkpoint rewrites).
    pub meta_rotations: u64,
    /// Transient device errors absorbed by the member layer's retries.
    pub transient_retries: u64,
    /// Members auto-degraded after exceeding their error budget.
    pub auto_degrades: u64,
    /// Reads served around a member that could not serve them: from the
    /// stage while their stripe is open, else decoded.
    pub degraded_reads: u64,
    /// Latent units a read decoded whole and re-logged.
    pub read_repairs: u64,
}

/// Result of a full-array parity scrub.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsScrubReport {
    /// Sealed stripes verified.
    pub stripes: u64,
    /// Stripes whose XOR parity did not verify.
    pub parity_errors: u64,
    /// Stripes whose Q (Reed–Solomon) parity did not verify.
    pub q_errors: u64,
    /// Data units that failed to read (latent media errors) and were
    /// reconstructed from the rest of their stripe.
    pub units_healed: u64,
    /// Valid sectors re-logged out of damaged stripes; their old copies
    /// are garbage for GC to reclaim.
    pub sectors_relogged: u64,
}

/// Lifecycle state of a stripe group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GState {
    /// No zones assigned; available for allocation.
    Free,
    /// Accepting appends on the given stream (0 = hot, 1 = cold).
    Open(u8),
    /// All stripes sealed; immutable until reclaimed.
    Sealed,
}

/// One stripe group: a RAID stripe set over one zone per device.
#[derive(Debug)]
struct Group {
    state: GState,
    /// Member zone per device (`NO_ZONE` when free).
    zones: Vec<u32>,
    /// Stripes sealed so far (also the index of the open stripe).
    sealed: u64,
    /// Data slots filled in the open stripe (0..kd).
    fill: u64,
    /// Live mapped sectors in this group.
    valid: u64,
    /// Allocation sequence number (GC tie-break: older first).
    created: u64,
    /// Write-stream generation this group was filled under (0 = hot
    /// foreground, 1/2 = cold generations). Migration out of a victim
    /// targets `min(gen + 1, STREAMS - 1)`.
    gen: u8,
    /// Reverse map: the logical sector of each live data slot.
    rev: RevMap,
}

/// One logical zone exposed through [`ZonedVolume`].
#[derive(Debug, Clone, Copy)]
struct LZone {
    wp: u64,
    state: ZoneState,
}

/// How a run of sectors enters the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LogMode {
    /// Foreground data: maps unconditionally.
    User,
    /// GC migration: maps only if the source mapping is still current.
    Gc,
    /// Zero fill to a stripe boundary: never mapped.
    Pad,
}

#[derive(Debug)]
struct LsInner {
    /// Logical sector → packed physical address (`UNMAPPED` = unmapped).
    map: FwdMap,
    lz: Vec<LZone>,
    groups: Vec<Group>,
    /// Per-device free physical zones (popped lowest-index first).
    free_zones: Vec<Vec<u32>>,
    /// Free stripe groups (popped lowest-index first).
    free_groups: Vec<u32>,
    /// Open group per stream (`[hot, cold gen 1, cold gen 2]`).
    open: [Option<u32>; STREAMS],
    /// Group currently being drained by GC; guards migration remaps.
    migrating: Option<u32>,
    /// Set while an inline emergency collection runs (re-entrancy guard).
    in_emergency: bool,
    created_seq: u64,
    /// Data stage per stream (a stream has at most one open group),
    /// `kd` sectors: what a stripe that fills piecemeal holds so far.
    /// Only the first `fill` sectors of the open stripe mean anything.
    /// Empty until the stream's first partial stripe ([`stage`]): a
    /// stream whose stripes all arrive whole never holds one.
    stages: Vec<Vec<u8>>,
    /// The P (then Q) unit of the stripe being sealed: output scratch of
    /// [`LsVolume::seal_stripe`], dead outside it.
    parity: Vec<u8>,
    /// Bounce buffer for emergency-GC migration reads (one stripe),
    /// empty until the first inline collection.
    gc_buf: Vec<u8>,
    /// Reverse-map run vectors handed back by reclaimed groups, for the
    /// next groups opened ([`RevMap::release`]).
    spare_runs: Vec<Vec<(u32, u32)>>,
    meta: MetaLog,
    c_user: u64,
    c_migrated: u64,
    c_pads: u64,
    c_parity: u64,
    c_group_reclaims: u64,
    c_emergency: u64,
    c_groups_opened: u64,
}

/// A log-structured RAID array over a set of [`ZnsDevice`]s.
///
/// See the crate docs for the design. All methods take `&self`; one
/// internal mutex serializes engine state (device IO cost is accounted
/// on the virtual timeline, so the lock is never held across real
/// waiting).
pub struct LsVolume {
    /// The member devices, their failure mask and error budgets.
    members: Members,
    config: LsConfig,
    /// Physical (device) zone layout.
    phys: ZoneGeometry,
    /// Logical layout exposed through [`ZonedVolume`]; `zone_size ==
    /// zone_cap`, so logical LBAs are dense.
    geo: ZoneGeometry,
    n: usize,
    p: usize,
    /// Stripe unit in sectors.
    k: u64,
    /// Stripes per group (`zone_cap / k`).
    s: u64,
    /// Data slots per stripe (`k * (n - p)`).
    kd: u64,
    /// Data slots per group (`s * kd`).
    group_cap: u64,
    /// Low bits of a packed physical address that hold the in-group slot
    /// (the group index sits above them): `group_cap` rounded up to a
    /// power of two.
    slot_bits: u32,
    /// Metadata headroom (sectors) that forces early rotation so the
    /// rotation's own summary batch still fits the old slot.
    meta_headroom: u64,
    inner: Mutex<LsInner>,
    tracer: obs::Tracer,
}

impl std::fmt::Debug for LsVolume {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsVolume")
            .field("devices", &self.n)
            .field("parity", &self.p)
            .field("stripe_unit", &self.k)
            .field("group_cap", &self.group_cap)
            .finish_non_exhaustive()
    }
}

fn invalid(msg: &str) -> ZnsError {
    ZnsError::InvalidArgument(msg.to_string())
}

/// A stream's stage, sized to one stripe's data (`kd` sectors) on first
/// use. Every writer of a stage takes it through here, so a stream
/// whose stripes all arrive whole never holds one.
fn stage(stage: &mut Vec<u8>, kd: u64) -> &mut [u8] {
    let len = (kd * SECTOR_SIZE) as usize;
    if stage.len() < len {
        stage.resize(len, 0);
    }
    stage
}

fn zstate_code(s: ZoneState) -> u32 {
    match s {
        ZoneState::Empty => 0,
        ZoneState::ImplicitlyOpen => 1,
        ZoneState::ExplicitlyOpen => 2,
        ZoneState::Closed => 3,
        _ => 4,
    }
}

fn zstate_decode(c: u32) -> ZoneState {
    match c {
        0 => ZoneState::Empty,
        1 => ZoneState::ImplicitlyOpen,
        2 => ZoneState::ExplicitlyOpen,
        3 => ZoneState::Closed,
        _ => ZoneState::Full,
    }
}

fn gstate_code(s: GState) -> u32 {
    match s {
        GState::Free => 0,
        GState::Open(stream) => 1 + u32::from(stream),
        GState::Sealed => 4,
    }
}

fn gstate_decode(c: u32) -> GState {
    match c {
        0 => GState::Free,
        c @ 1..=3 => GState::Open((c - 1) as u8),
        _ => GState::Sealed,
    }
}

/// Bounds-checked little-endian reader for mount-path record parsing.
struct Rd<'a> {
    b: &'a [u8],
    off: usize,
}

impl<'a> Rd<'a> {
    fn new(b: &'a [u8]) -> Rd<'a> {
        Rd { b, off: 0 }
    }

    fn u32(&mut self) -> Result<u32> {
        if self.off + 4 > self.b.len() {
            return Err(invalid("lsraid: truncated metadata record"));
        }
        let v = meta::get_u32(self.b, self.off);
        self.off += 4;
        Ok(v)
    }

    fn u64(&mut self) -> Result<u64> {
        if self.off + 8 > self.b.len() {
            return Err(invalid("lsraid: truncated metadata record"));
        }
        let v = meta::get_u64(self.b, self.off);
        self.off += 8;
        Ok(v)
    }

    /// Everything not yet read.
    fn rest(&self) -> &'a [u8] {
        &self.b[self.off..]
    }
}

impl LsVolume {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Initializes a fresh array: wipes every zone on every device and
    /// writes the initial checkpoint (epoch 1) to metadata slot 0.
    ///
    /// # Errors
    ///
    /// Fails if the device set or configuration is invalid, or on device
    /// IO failure.
    pub fn format(devices: Vec<Arc<ZnsDevice>>, config: LsConfig, at: SimTime) -> Result<LsVolume> {
        let vol = Self::assemble(devices, config)?;
        {
            let mut inner = vol.inner.lock();
            let mut t = at;
            let devices = vol.members.read();
            for dev in 0..vol.n {
                let mut td = at;
                for z in 0..vol.phys.num_zones() {
                    if devices.zone_info(dev, z)?.state != ZoneState::Empty {
                        td = devices.command(td, dev, Exhausted::Surface, |d| {
                            Ok(d.reset_zone(td, z)?.done)
                        })?;
                    }
                }
                t = t.max(td);
            }
            drop(devices);
            inner.meta.epoch = 1;
            inner.meta.slot = 0;
            inner.meta.used = 0;
            inner.meta.seq = 0;
            vol.write_checkpoint(&mut inner, t)?;
        }
        Ok(vol)
    }

    /// Mounts an existing array: picks the highest-epoch metadata slot,
    /// replays its roll-forward records (validating every seal summary
    /// against the surviving device write pointers), trims each logical
    /// zone to its durable prefix, and rotates to a fresh checkpoint so
    /// the recovered state is durable. Up to `parity` members may be
    /// absent (failed): the array mounts degraded.
    ///
    /// # Errors
    ///
    /// Fails if more members are absent than parity covers, no slot holds
    /// a valid checkpoint, the on-disk layout disagrees with `config`, or
    /// device IO fails.
    pub fn mount(devices: Vec<Arc<ZnsDevice>>, config: LsConfig, at: SimTime) -> Result<LsVolume> {
        let vol = Self::assemble(devices, config)?;
        {
            let mut inner = vol.inner.lock();
            let s0 = vol.read_slot(0, at);
            let s1 = vol.read_slot(1, at);
            let (slot, epoch, records) = match (s0, s1) {
                (Some((e0, r0)), Some((e1, r1))) => {
                    if e0 >= e1 {
                        (0u32, e0, r0)
                    } else {
                        (1, e1, r1)
                    }
                }
                (Some((e0, r0)), None) => (0, e0, r0),
                (None, Some((e1, r1))) => (1, e1, r1),
                (None, None) => return Err(invalid("lsraid: no valid metadata checkpoint found")),
            };
            vol.replay(&mut inner, slot, epoch, &records)?;
            vol.finish_mount(&mut inner);
            // Rotating gives the repaired state a durable checkpoint and
            // guarantees post-mount records never interleave with the
            // pre-crash log.
            vol.rotate_meta(&mut inner, at)?;
        }
        Ok(vol)
    }

    fn assemble(devices: Vec<Arc<ZnsDevice>>, config: LsConfig) -> Result<LsVolume> {
        let n = devices.len();
        let p = config.parity as usize;
        if !(1..=2).contains(&p) {
            return Err(invalid("lsraid: parity must be 1 or 2"));
        }
        if n < p + 2 || n > 64 {
            return Err(invalid("lsraid: need parity + 2 ..= 64 devices"));
        }
        if !(0.0..=0.9).contains(&config.op_ratio) {
            return Err(invalid("lsraid: op_ratio must be in [0, 0.9]"));
        }
        let phys = devices[0].config().geometry();
        if devices.iter().any(|dev| dev.config().geometry() != phys) {
            return Err(invalid("lsraid: devices disagree on geometry"));
        }
        let k = config.stripe_unit;
        let members = Members::new(devices, p as u32, k)?;
        let c = phys.zone_cap();
        if k == 0 || !c.is_multiple_of(k) {
            return Err(invalid("lsraid: stripe unit must divide zone capacity"));
        }
        let d = n - p;
        let s = c / k;
        let kd = k * d as u64;
        let group_cap = s * kd;
        if phys.num_zones() < META_ZONES + RESERVE_GROUPS + 3 {
            return Err(invalid("lsraid: too few zones per device"));
        }
        let g_total = phys.num_zones() - META_ZONES;
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let user_sectors =
            ((u64::from(g_total) - 2) as f64 * group_cap as f64 * (1.0 - config.op_ratio)) as u64;
        let l_zones = (user_sectors / c) as u32;
        if l_zones == 0 {
            return Err(invalid("lsraid: capacity too small for one logical zone"));
        }
        let geo = ZoneGeometry::new(l_zones, c, c);
        // The mapping state is 32-bit words: a packed address (group index
        // above `slot_bits` slot bits) and a logical sector must both stay
        // below the sentinel. Refused before anything is allocated.
        let slot_bits = u64::BITS - (group_cap - 1).leading_zeros();
        let map_len = u64::from(l_zones) * c;
        if u128::from(g_total) << slot_bits > u128::from(UNMAPPED) || map_len > u64::from(UNMAPPED)
        {
            return Err(invalid("lsraid: geometry exceeds 32-bit mapping words"));
        }

        // Most seal entries one summary batch can hold: a foreground
        // write stays inside one logical zone (`c` sectors entered
        // mid-stripe seal at most `ceil(c / kd)` stripes), an inline
        // collection it triggers seals one more with its first migration
        // run (at most `kd` sectors) before that run's own commit drains
        // the batch, and a rotation pad-seals every stream on top. The
        // headroom keeps that much of the active slot free, so the batch
        // a rotation writes before its barrier always fits.
        let batch_entries = c.div_ceil(kd) as usize + 1 + STREAMS;
        let meta_headroom =
            meta::record_sectors(batch_entries * meta::summary_entry_bytes(kd as usize));
        // Ordinary records (group open/free, zone reset/finish) take
        // one sector; the checkpoint dominates everything. Its map runs
        // take at most 8 bytes an entry (`meta::put_runs`), so this bounds
        // every checkpoint the volume can write.
        let rec_cap = SECTOR_SIZE as usize;
        let ckpt_payload =
            32 + l_zones as usize * 16 + g_total as usize * (24 + n * 4) + map_len as usize * 8;
        let ckpt_sectors = meta::record_sectors(ckpt_payload);
        if ckpt_sectors + meta_headroom + 1 > c {
            return Err(invalid("lsraid: checkpoint does not fit the metadata zone"));
        }

        let map = FwdMap::new(map_len);
        let lz = vec![
            LZone {
                wp: 0,
                state: ZoneState::Empty,
            };
            l_zones as usize
        ];
        let groups: Vec<Group> = (0..g_total)
            .map(|_| Group {
                state: GState::Free,
                zones: vec![NO_ZONE; n],
                sealed: 0,
                fill: 0,
                valid: 0,
                created: 0,
                gen: 0,
                rev: RevMap::new(group_cap),
            })
            .collect();
        let free_zones: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let mut v = Vec::with_capacity(g_total as usize);
                for z in (META_ZONES..phys.num_zones()).rev() {
                    v.push(z);
                }
                v
            })
            .collect();
        let free_groups: Vec<u32> = (0..g_total).rev().collect();

        let inner = LsInner {
            map,
            lz,
            groups,
            free_zones,
            free_groups,
            open: [None; STREAMS],
            migrating: None,
            in_emergency: false,
            created_seq: 0,
            stages: vec![Vec::new(); STREAMS],
            parity: vec![0u8; (k * SECTOR_SIZE) as usize * p],
            gc_buf: Vec::new(),
            spare_runs: Vec::with_capacity(g_total as usize),
            meta: MetaLog {
                slot: 0,
                used: 0,
                seq: 0,
                epoch: 0,
                rec_buf: Vec::with_capacity(rec_cap),
                ckpt_buf: Vec::new(),
                staged: {
                    let mut staged = Vec::with_capacity((meta_headroom * SECTOR_SIZE) as usize);
                    staged.resize(HEADER_BYTES, 0);
                    staged
                },
            },
            c_user: 0,
            c_migrated: 0,
            c_pads: 0,
            c_parity: 0,
            c_group_reclaims: 0,
            c_emergency: 0,
            c_groups_opened: 0,
        };

        Ok(LsVolume {
            members,
            config,
            phys,
            geo,
            n,
            p,
            k,
            s,
            kd,
            group_cap,
            slot_bits,
            meta_headroom,
            inner: Mutex::new(inner),
            tracer: obs::Tracer::new(),
        })
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Attaches an observability recorder for volume-layer spans
    /// (device-layer spans attach via each device).
    pub fn set_recorder(&self, recorder: Arc<obs::Recorder>) {
        self.members.set_recorder(recorder.clone());
        self.tracer.attach(recorder, obs::NONE);
    }

    /// Marks member `index` failed: its legs are omitted from then on and
    /// reads decode around it. Idempotent for a failed member. Waits for
    /// the operation in flight, so none sees the member half failed.
    ///
    /// # Errors
    ///
    /// [`ZnsError::InvalidArgument`] if `index` is out of range,
    /// [`ZnsError::TooManyFailures`] past the parity level.
    pub fn fail_device(&self, index: usize) -> Result<()> {
        let _inner = self.inner.lock();
        self.members.fail(index)
    }

    /// All failed members, ascending.
    pub fn failed_devices(&self) -> Vec<usize> {
        self.members.failed()
    }

    /// The engine configuration.
    pub fn config(&self) -> &LsConfig {
        &self.config
    }

    /// Stripe unit in sectors.
    pub fn stripe_unit(&self) -> u64 {
        self.k
    }

    /// Data sectors per stripe (the GC migration granule: a run this
    /// long fills exactly one stripe of the cold stream).
    pub fn stripe_data_sectors(&self) -> u64 {
        self.kd
    }

    /// Data slots per stripe group.
    pub fn group_capacity(&self) -> u64 {
        self.group_cap
    }

    /// Write-accounting snapshot.
    pub fn stats(&self) -> LsStats {
        let inner = self.inner.lock();
        LsStats {
            user_sectors: inner.c_user,
            migrated_sectors: inner.c_migrated,
            pad_sectors: inner.c_pads,
            parity_sectors: inner.c_parity,
            group_reclaims: inner.c_group_reclaims,
            emergency_reclaims: inner.c_emergency,
            groups_opened: inner.c_groups_opened,
            meta_records: inner.meta.seq,
            meta_rotations: inner.meta.epoch.saturating_sub(1),
            transient_retries: self.members.transient_retries(),
            auto_degrades: self.members.auto_degrades(),
            degraded_reads: self.members.degraded_reads(),
            read_repairs: self.members.read_repairs(),
        }
    }

    /// Data-path write amplification: `(user + migrated + pads) / user`.
    /// Parity is excluded (it is the RAID tax, not a log-structuring
    /// cost) and reported via [`LsStats::parity_sectors`]. Exactly 1.0
    /// until GC migrates or a flush pads.
    #[allow(clippy::cast_precision_loss)]
    pub fn waf(&self) -> f64 {
        let inner = self.inner.lock();
        if inner.c_user == 0 {
            return 1.0;
        }
        (inner.c_user + inner.c_migrated + inner.c_pads) as f64 / inner.c_user as f64
    }

    /// Fraction of sealed-group capacity that is garbage (0.0 when no
    /// group is sealed).
    #[allow(clippy::cast_precision_loss)]
    pub fn garbage_ratio(&self) -> f64 {
        let inner = self.inner.lock();
        let mut garbage = 0u64;
        let mut total = 0u64;
        for g in &inner.groups {
            if g.state == GState::Sealed {
                garbage += self.group_cap - g.valid;
                total += self.group_cap;
            }
        }
        if total == 0 {
            0.0
        } else {
            garbage as f64 / total as f64
        }
    }

    // ------------------------------------------------------------------
    // Geometry helpers
    // ------------------------------------------------------------------

    /// The device holding data unit `unit` of `stripe` (parity rotates:
    /// P on `stripe % n`, Q on `stripe + 1 % n`; data units skip them).
    fn data_dev(&self, stripe: u64, unit: usize) -> usize {
        let p0 = (stripe % self.n as u64) as usize;
        if self.p == 1 {
            let mut dev = unit;
            if dev >= p0 {
                dev += 1;
            }
            dev
        } else {
            let p1 = (p0 + 1) % self.n;
            let (lo, hi) = if p0 < p1 { (p0, p1) } else { (p1, p0) };
            let mut dev = unit;
            if dev >= lo {
                dev += 1;
            }
            if dev >= hi {
                dev += 1;
            }
            dev
        }
    }

    /// The data unit member `dev` holds in `stripe`, `None` for a parity
    /// slot (the inverse of [`Self::data_dev`]).
    fn unit_of_dev(&self, stripe: u64, dev: usize) -> Option<usize> {
        let p0 = (stripe % self.n as u64) as usize;
        let parity = [p0, (p0 + 1) % self.n];
        let parity = &parity[..self.p];
        (!parity.contains(&dev)).then(|| dev - parity.iter().filter(|&&q| q < dev).count())
    }

    /// Packs a stripe-group index and in-group slot into one map word.
    fn enc(&self, g: u32, slot: u64) -> u32 {
        (g << self.slot_bits) | slot as u32
    }

    /// The stripe group a packed physical address lives in.
    fn group_of(&self, pa: u32) -> u32 {
        pa >> self.slot_bits
    }

    /// The in-group data-slot index of a packed physical address.
    fn slot_of(&self, pa: u32) -> u64 {
        u64::from(pa & ((1 << self.slot_bits) - 1))
    }

    /// Members holding the metadata log: one more than parity covers.
    fn meta_devices(&self) -> usize {
        self.p + 1
    }

    /// Device index and physical LBA of a data slot in group `g`.
    fn locate_slot(&self, inner: &LsInner, g: u32, slot: u64) -> (usize, Lba) {
        let stripe = slot / self.kd;
        let off = slot % self.kd;
        let unit = (off / self.k) as usize;
        let sec = off % self.k;
        let dev = self.data_dev(stripe, unit);
        let zone = inner.groups[g as usize].zones[dev];
        (dev, self.phys.zone_start(zone) + stripe * self.k + sec)
    }

    // ------------------------------------------------------------------
    // Metadata log
    // ------------------------------------------------------------------

    /// Writes `buf` (a finished record) at sector `used` of metadata
    /// slot `slot` on every live replica with FUA. The caller advances
    /// the log cursor on success.
    fn meta_write(&self, slot: usize, used: u64, t: SimTime, buf: &[u8]) -> Result<SimTime> {
        let lba = self.phys.zone_start(slot as u32) + used;
        let done = self.on_replicas(t, |d| Ok(d.write(t, lba, buf, WriteFlags::FUA)?.done))?;
        self.tracer.leaf(
            obs::Span::new(obs::OpClass::Write, obs::Stage::MetaAppend, t, done)
                .lba(lba)
                .sectors(buf.len() as u64 / SECTOR_SIZE),
        );
        Ok(done)
    }

    /// Whether a record of `sectors` may not enter the active slot
    /// without eating into the rotation headroom.
    fn slot_full(&self, inner: &LsInner, sectors: u64) -> bool {
        inner.meta.used + sectors + self.meta_headroom > self.phys.zone_cap()
    }

    /// Writes the staged seal entries as one `Summary` record into the
    /// active slot, unconditionally (the rotation headroom is what makes
    /// that safe). A failed write keeps the entries staged.
    fn write_staged(&self, inner: &mut LsInner, t: SimTime) -> Result<SimTime> {
        let meta = &mut inner.meta;
        if !meta.has_staged() {
            return Ok(t);
        }
        let len = meta.staged.len();
        let n = finish_record(&mut meta.staged, kind::SUMMARY, meta.epoch, meta.seq);
        let res = self.meta_write(meta.slot, meta.used, t, &meta.staged);
        if res.is_ok() {
            meta.staged.truncate(HEADER_BYTES);
            meta.advance(n);
        } else {
            meta.staged.truncate(len);
        }
        res
    }

    /// Commits the staged seal entries, rotating the log instead when
    /// the active slot is (almost) full: the rotation writes them itself
    /// ahead of its barrier.
    fn commit_staged(&self, inner: &mut LsInner, t: SimTime) -> Result<SimTime> {
        if !inner.meta.has_staged() {
            return Ok(t);
        }
        let sectors = meta::record_sectors(inner.meta.staged.len() - HEADER_BYTES);
        if self.slot_full(inner, sectors) {
            self.rotate_meta(inner, t)
        } else {
            self.write_staged(inner, t)
        }
    }

    /// Stamps the record under construction in `buf` (a scratch buffer
    /// detached from `inner`) and appends it at the log cursor.
    fn append_record(
        &self,
        inner: &mut LsInner,
        t: SimTime,
        rec_kind: u32,
        buf: &mut Vec<u8>,
    ) -> Result<SimTime> {
        let meta = &mut inner.meta;
        let n = finish_record(buf, rec_kind, meta.epoch, meta.seq);
        let done = self.meta_write(meta.slot, meta.used, t, buf)?;
        meta.advance(n);
        Ok(done)
    }

    /// Commits one roll-forward record built by `build`, rotating the
    /// log first when the active slot is (almost) full. `build` must not
    /// depend on anything a rotation changes (it pad-seals and moves the
    /// log cursor; the header is stamped afterwards).
    fn commit_record(
        &self,
        inner: &mut LsInner,
        t: SimTime,
        rec_kind: u32,
        build: impl FnOnce(&LsInner, &mut Vec<u8>),
    ) -> Result<SimTime> {
        // Nothing below touches `rec_buf`: the rotation has its own
        // buffers and never commits a record.
        let mut buf = std::mem::take(&mut inner.meta.rec_buf);
        buf.clear();
        buf.resize(HEADER_BYTES, 0);
        build(inner, &mut buf);
        let rotated = if self.slot_full(inner, meta::record_sectors(buf.len() - HEADER_BYTES)) {
            self.rotate_meta(inner, t)
        } else {
            Ok(t)
        };
        let res = rotated.and_then(|t| self.append_record(inner, t, rec_kind, &mut buf));
        inner.meta.rec_buf = buf;
        res
    }

    /// Rotates the metadata log: makes all logged state durable (pad-seal,
    /// the staged summaries, device flush), resets the inactive slot,
    /// bumps the epoch and writes a fresh checkpoint there. The
    /// durability barrier is what lets the checkpoint's mapping table be
    /// trusted verbatim at mount.
    ///
    /// Everything it calls — [`Self::pad_seal`], [`Self::write_staged`],
    /// the device barrier, the checkpoint write — appends at the log
    /// cursor at most and never checks it, so a rotation cannot start a
    /// rotation, a collection or a flush.
    fn rotate_meta(&self, inner: &mut LsInner, t: SimTime) -> Result<SimTime> {
        let padded = self.pad_seal(inner, t)?;
        let summarized = self.write_staged(inner, t)?;
        let t = self.flush_devices(padded.max(summarized))?;
        let other = 1 - inner.meta.slot;
        let done = self.on_replicas(t, |d| match d.zone_info(other as u32)?.state {
            ZoneState::Empty => Ok(t),
            _ => Ok(d.reset_zone(t, other as u32)?.done),
        })?;
        inner.meta.slot = other;
        inner.meta.used = 0;
        inner.meta.epoch += 1;
        self.write_checkpoint(inner, done)
    }

    /// Runs `cmd` on every live metadata replica; a replica whose command
    /// degrades it is dropped. Returns the latest completion.
    fn on_replicas(
        &self,
        t: SimTime,
        mut cmd: impl FnMut(&ZnsDevice) -> Result<SimTime>,
    ) -> Result<SimTime> {
        let devices = self.members.read();
        devices.on_survivors(t, Exhausted::Omit, |dev, d| {
            match dev < self.meta_devices() {
                true => cmd(d),
                false => Ok(t),
            }
        })
    }

    fn write_checkpoint(&self, inner: &mut LsInner, t: SimTime) -> Result<SimTime> {
        let mut buf = std::mem::take(&mut inner.meta.ckpt_buf);
        buf.clear();
        buf.resize(HEADER_BYTES, 0);
        self.build_checkpoint(inner, &mut buf);
        let done = self.append_record(inner, t, kind::CHECKPOINT, &mut buf);
        inner.meta.ckpt_buf = buf;
        done
    }

    fn build_checkpoint(&self, inner: &LsInner, buf: &mut Vec<u8>) {
        put_u32(buf, self.geo.num_zones());
        put_u32(buf, self.n as u32);
        put_u32(buf, inner.groups.len() as u32);
        put_u32(buf, 0);
        put_u64(buf, inner.map.len());
        put_u64(buf, inner.created_seq);
        for z in &inner.lz {
            put_u64(buf, z.wp);
            put_u32(buf, zstate_code(z.state));
            put_u32(buf, 0);
        }
        for g in &inner.groups {
            put_u32(buf, gstate_code(g.state));
            put_u32(buf, u32::from(g.gen));
            put_u64(buf, g.sealed);
            put_u64(buf, g.created);
            for &z in &g.zones {
                put_u32(buf, z);
            }
        }
        meta::put_runs(buf, &inner.map);
    }

    // ------------------------------------------------------------------
    // Mount path
    // ------------------------------------------------------------------

    /// Reads and parses one metadata slot from the first live replica
    /// that holds one.
    fn read_slot(&self, slot: u32, at: SimTime) -> Option<(u64, Vec<Record>)> {
        let devices = self.members.read();
        (0..self.meta_devices())
            .filter(|&di| !self.members.is_failed(di))
            .find_map(|di| Self::read_slot_from(&devices, di, slot, at))
    }

    fn read_slot_from(
        devices: &Roster<'_>,
        di: usize,
        slot: u32,
        at: SimTime,
    ) -> Option<(u64, Vec<Record>)> {
        let info = devices.zone_info(di, slot).ok()?;
        let written = info.written();
        if written == 0 {
            return None;
        }
        let mut buf = vec![0u8; (written * SECTOR_SIZE) as usize];
        let read = |d: &ZnsDevice| Ok(d.read(at, info.start, &mut buf)?.done);
        devices.command(at, di, Exhausted::Surface, read).ok()?;
        let mut records = Vec::new();
        let mut epoch = 0u64;
        let mut off = 0usize;
        while off < buf.len() {
            let Some((rec, n)) = parse_record(&buf[off..]) else {
                break;
            };
            if records.is_empty() {
                if rec.kind != kind::CHECKPOINT {
                    return None;
                }
                epoch = rec.epoch;
            } else if rec.epoch != epoch {
                break;
            }
            off += (n * SECTOR_SIZE) as usize;
            records.push(rec);
        }
        if records.is_empty() {
            None
        } else {
            Some((epoch, records))
        }
    }

    fn replay(&self, inner: &mut LsInner, slot: u32, epoch: u64, records: &[Record]) -> Result<()> {
        self.apply_checkpoint(inner, &records[0].payload)?;
        let mut capped = vec![false; inner.groups.len()];
        let mut last_seq = records[0].seq;
        let mut used = meta::record_sectors(records[0].payload.len());
        for rec in &records[1..] {
            last_seq = rec.seq;
            used += meta::record_sectors(rec.payload.len());
            match rec.kind {
                kind::SUMMARY => self.apply_summary(inner, &rec.payload, &mut capped)?,
                kind::GROUP_OPEN => self.apply_group_open(inner, &rec.payload, &mut capped)?,
                kind::GROUP_FREE => self.apply_group_free(inner, &rec.payload)?,
                kind::ZONE_RESET => self.apply_zone_reset(inner, &rec.payload)?,
                kind::ZONE_FINISH => self.apply_zone_finish(inner, &rec.payload)?,
                _ => {}
            }
        }
        inner.meta.slot = slot as usize;
        inner.meta.epoch = epoch;
        inner.meta.seq = last_seq + 1;
        inner.meta.used = used;
        Ok(())
    }

    fn apply_checkpoint(&self, inner: &mut LsInner, payload: &[u8]) -> Result<()> {
        let mut rd = Rd::new(payload);
        let l = rd.u32()?;
        let n = rd.u32()?;
        let g = rd.u32()?;
        let _pad = rd.u32()?;
        let map_len = rd.u64()?;
        let created_seq = rd.u64()?;
        if l != self.geo.num_zones()
            || n as usize != self.n
            || g as usize != inner.groups.len()
            || map_len != inner.map.len()
        {
            return Err(invalid("lsraid: checkpoint layout mismatch"));
        }
        inner.created_seq = created_seq;
        for zi in 0..l as usize {
            let wp = rd.u64()?;
            let state = zstate_decode(rd.u32()?);
            let _pad = rd.u32()?;
            inner.lz[zi] = LZone { wp, state };
        }
        for gi in 0..g as usize {
            let state = gstate_decode(rd.u32()?);
            let gen = rd.u32()?;
            let sealed = rd.u64()?;
            let created = rd.u64()?;
            let grp = &mut inner.groups[gi];
            grp.state = state;
            grp.gen = gen.min(STREAMS as u32 - 1) as u8;
            grp.sealed = sealed;
            grp.created = created;
            for zi in 0..self.n {
                grp.zones[zi] = rd.u32()?;
            }
        }
        let g_total = inner.groups.len() as u32;
        let names_a_slot =
            |pa: u32| self.group_of(pa) < g_total && self.slot_of(pa) < self.group_cap;
        if meta::get_runs(rd.rest(), &mut inner.map).is_none()
            || !inner.map.runs().all(|(first, len)| {
                first == UNMAPPED || (first..).take(len as usize).all(names_a_slot)
            })
        {
            return Err(invalid("lsraid: malformed checkpoint mapping runs"));
        }
        Ok(())
    }

    /// Applies a summary record entry by entry, in seal order.
    fn apply_summary(
        &self,
        inner: &mut LsInner,
        payload: &[u8],
        capped: &mut [bool],
    ) -> Result<()> {
        let devices = self.members.read();
        let map_len = inner.map.len();
        for entry in meta::summary_entries(payload, self.kd as usize) {
            let g = entry.group as usize;
            let stripe = entry.stripe;
            if g >= inner.groups.len() || capped[g] || stripe != inner.groups[g].sealed {
                continue;
            }
            // Only apply when every present member zone provably holds the
            // stripe (device write pointers survive a crash truncated to
            // the durable prefix; a lost data or parity write caps the
            // group) — an absent member's leg is one of the `p` the
            // present `n - p` durable legs decode. The record is issued
            // beside the stripe's legs, so it may well be durable when
            // they are not.
            for (di, &z) in inner.groups[g].zones.iter().enumerate() {
                if self.members.is_failed(di) {
                    continue;
                }
                if z == NO_ZONE || devices.zone_info(di, z)?.written() < (stripe + 1) * self.k {
                    capped[g] = true;
                    break;
                }
            }
            if capped[g] {
                continue;
            }
            // Consecutive slots holding consecutive sectors map as one run.
            let mut lbas = (0u64..)
                .zip(entry.lbas().map(u64::from))
                .filter(|&(_, l)| l < map_len)
                .peekable();
            while let Some((i, l)) = lbas.next() {
                let mut len = 1;
                while lbas
                    .next_if(|&(j, m)| (j, m) == (i + len, l + len))
                    .is_some()
                {
                    len += 1;
                }
                let pa = self.enc(g as u32, stripe * self.kd + i);
                inner.map.map_run(l, pa, len, |_, _| true);
            }
            inner.groups[g].sealed = stripe + 1;
        }
        Ok(())
    }

    fn apply_group_open(
        &self,
        inner: &mut LsInner,
        payload: &[u8],
        capped: &mut [bool],
    ) -> Result<()> {
        let mut rd = Rd::new(payload);
        let g = rd.u32()? as usize;
        let stream = rd.u32()?;
        let created = rd.u64()?;
        if g >= inner.groups.len() {
            return Ok(());
        }
        let grp = &mut inner.groups[g];
        let stream = stream.min(STREAMS as u32 - 1) as u8;
        grp.state = GState::Open(stream);
        grp.gen = stream;
        grp.sealed = 0;
        grp.created = created;
        inner.created_seq = inner.created_seq.max(created + 1);
        for zi in 0..self.n {
            grp.zones[zi] = rd.u32()?;
        }
        capped[g] = false;
        Ok(())
    }

    fn apply_group_free(&self, inner: &mut LsInner, payload: &[u8]) -> Result<()> {
        let mut rd = Rd::new(payload);
        let g = rd.u32()?;
        if g as usize >= inner.groups.len() {
            return Ok(());
        }
        // Defensive sweep: by the reclaim ordering invariant no live
        // mapping should point here, but a crash-truncated log replays
        // the same records deterministically either way.
        let len = inner.map.len();
        inner.map.unmap_range(0, len, |pa| self.group_of(pa) == g);
        let grp = &mut inner.groups[g as usize];
        grp.state = GState::Free;
        grp.sealed = 0;
        grp.zones.fill(NO_ZONE);
        Ok(())
    }

    fn apply_zone_reset(&self, inner: &mut LsInner, payload: &[u8]) -> Result<()> {
        let mut rd = Rd::new(payload);
        let zone = rd.u32()?;
        if zone >= self.geo.num_zones() {
            return Ok(());
        }
        let (c, base) = (self.geo.zone_cap(), self.geo.zone_start(zone));
        inner.map.unmap_range(base, c, |_| true);
        inner.lz[zone as usize] = LZone {
            wp: 0,
            state: ZoneState::Empty,
        };
        Ok(())
    }

    fn apply_zone_finish(&self, inner: &mut LsInner, payload: &[u8]) -> Result<()> {
        let mut rd = Rd::new(payload);
        let zone = rd.u32()?;
        if zone < self.geo.num_zones() {
            inner.lz[zone as usize].state = ZoneState::Full;
        }
        Ok(())
    }

    /// Repairs in-memory state after replay: interrupted open groups
    /// become sealed (or free), each logical zone is trimmed to its
    /// contiguous mapped prefix, and validity counts, reverse maps and
    /// free pools are rebuilt from the mapping table.
    fn finish_mount(&self, inner: &mut LsInner) {
        let c = self.geo.zone_cap();
        for (zi, z) in inner.lz.iter_mut().enumerate() {
            let base = zi as u64 * c;
            let mut prefix = 0u64;
            while prefix < c {
                match inner.map.run(base + prefix, c - prefix) {
                    (UNMAPPED, _) => break,
                    (_, len) => prefix += len,
                }
            }
            inner.map.unmap_range(base + prefix, c - prefix, |_| true);
            z.wp = prefix;
            z.state = match z.state {
                ZoneState::Full => ZoneState::Full,
                _ if prefix == c => ZoneState::Full,
                _ if prefix > 0 => ZoneState::Closed,
                _ => ZoneState::Empty,
            };
        }
        // The reverse maps take their slots in slot order, the map gives
        // them in logical order: its mapped runs, sorted by address, do.
        // A slot two sectors name (only a corrupt log says so) counts
        // once.
        let mut runs: Vec<(u32, u64, u64)> = Vec::new();
        let mut l = 0;
        for (first, len) in inner.map.runs() {
            if first != UNMAPPED {
                runs.push((first, l, len));
            }
            l += len;
        }
        runs.sort_unstable();
        for grp in &mut inner.groups {
            grp.valid = 0;
            grp.fill = 0;
            grp.rev.clear();
        }
        for (first, l, len) in runs {
            for i in 0..len {
                let pa = first + i as u32;
                let grp = &mut inner.groups[self.group_of(pa) as usize];
                let slot = self.slot_of(pa);
                grp.valid += u64::from(!grp.rev.is_live(slot));
                grp.rev.push(slot, l + i);
            }
        }
        // Dispose of interrupted open groups only after validity is
        // rebuilt: a checkpoint taken mid-seal can map data into a group
        // whose `sealed` count is still zero, and freeing such a group
        // would orphan durable, referenced data.
        for grp in &mut inner.groups {
            if let GState::Open(_) = grp.state {
                if grp.sealed > 0 || grp.valid > 0 {
                    grp.state = GState::Sealed;
                } else {
                    grp.state = GState::Free;
                    grp.zones.fill(NO_ZONE);
                }
            }
        }
        inner.free_groups.clear();
        for gi in (0..inner.groups.len()).rev() {
            if inner.groups[gi].state == GState::Free {
                inner.free_groups.push(gi as u32);
            }
        }
        let mut owned = vec![false; self.phys.num_zones() as usize];
        for di in 0..self.n {
            owned.fill(false);
            for grp in &inner.groups {
                if grp.state != GState::Free && grp.zones[di] != NO_ZONE {
                    owned[grp.zones[di] as usize] = true;
                }
            }
            inner.free_zones[di].clear();
            for z in (META_ZONES..self.phys.num_zones()).rev() {
                if !owned[z as usize] {
                    inner.free_zones[di].push(z);
                }
            }
        }
        inner.open = [None; STREAMS];
        inner.migrating = None;
        inner.in_emergency = false;
    }

    // ------------------------------------------------------------------
    // Log write path
    // ------------------------------------------------------------------

    /// Returns the open group for `stream`, allocating one (and running
    /// an emergency collection first if the free pool is at the reserve).
    fn open_group(
        &self,
        inner: &mut LsInner,
        at: SimTime,
        stream: usize,
    ) -> Result<(u32, SimTime)> {
        if let Some(g) = inner.open[stream] {
            return Ok((g, at));
        }
        let mut t = at;
        // Collect until the pool clears the reserve. A single pass is
        // not enough under high-valid victims: draining one group can
        // net almost nothing (survivors fill a cold group as fast as
        // the reclaim frees the victim), but a pass that converts the
        // victim's garbage to log headroom is progress, so the loop ends
        // when the pool recovers or no garbage is left anywhere. A pass
        // that nets no headroom — its reclaim barrier padded the open
        // streams by as much as the victim freed — would repeat forever:
        // the volume is full.
        while !inner.in_emergency && inner.free_groups.len() <= RESERVE_GROUPS as usize {
            let before = self.headroom(inner);
            let (done, collected) = self.emergency_collect(inner, t)?;
            t = done;
            if !collected {
                break;
            }
            // The collection migrates into the cold stream, so it may
            // have opened this very stream's group; don't open a second.
            if let Some(g) = inner.open[stream] {
                return Ok((g, t));
            }
            if self.headroom(inner) <= before {
                return Err(invalid("lsraid: out of free stripe groups"));
            }
        }
        let Some(g) = inner.free_groups.pop() else {
            return Err(invalid("lsraid: out of free stripe groups"));
        };
        let devices = self.members.read();
        for di in 0..self.n {
            let Some(z) = inner.free_zones[di].pop() else {
                return Err(invalid("lsraid: out of free physical zones"));
            };
            // A crash between a durable GroupFree record and the zone
            // resets leaves stale data behind; clean it up lazily here. A
            // failed member's zone is assigned untouched: the rebuild
            // writes it on the replacement.
            if !self.members.is_failed(di) && devices.zone_info(di, z)?.state != ZoneState::Empty {
                let reset = |d: &ZnsDevice| Ok(d.reset_zone(t, z)?.done);
                t = t.max(devices.command(t, di, Exhausted::Omit, reset)?);
            }
            inner.groups[g as usize].zones[di] = z;
        }
        drop(devices);
        let created = inner.created_seq;
        inner.created_seq += 1;
        // The longest runs vector a reclaimed group handed back.
        let spare = (0..inner.spare_runs.len()).max_by_key(|&i| inner.spare_runs[i].capacity());
        if let Some(i) = spare {
            let runs = inner.spare_runs.swap_remove(i);
            inner.groups[g as usize].rev.reuse(runs);
        }
        {
            let grp = &mut inner.groups[g as usize];
            grp.state = GState::Open(stream as u8);
            grp.gen = stream as u8;
            grp.sealed = 0;
            grp.fill = 0;
            grp.valid = 0;
            grp.created = created;
        }
        inner.c_groups_opened += 1;
        let done = self.commit_record(inner, t, kind::GROUP_OPEN, |inner, buf| {
            put_u32(buf, g);
            put_u32(buf, stream as u32);
            put_u64(buf, inner.groups[g as usize].created);
            for &z in &inner.groups[g as usize].zones {
                put_u32(buf, z);
            }
        })?;
        inner.open[stream] = Some(g);
        Ok((g, done))
    }

    /// Data slots the log can take before it needs a reclaim: every free
    /// group's, and what is left of each open group.
    fn headroom(&self, inner: &LsInner) -> u64 {
        let open = inner.open.iter().flatten().map(|&g| {
            let grp = &inner.groups[g as usize];
            self.group_cap - grp.sealed * self.kd - grp.fill
        });
        inner.free_groups.len() as u64 * self.group_cap + open.sum::<u64>()
    }

    /// Appends `data` into `stream`'s log, opening groups as they fill.
    /// Every device command of the call — data legs, the parity legs of
    /// each stripe it fills, and the one summary record carrying those
    /// stripes' seal entries — is issued at one instant: `at`, moved only
    /// by group-open work (its record, an inline collection). Returns the
    /// latest completion. `lba` is the first logical sector.
    fn log_data(
        &self,
        inner: &mut LsInner,
        at: SimTime,
        data: &[u8],
        mode: LogMode,
        lba: u64,
        stream: usize,
    ) -> Result<SimTime> {
        let total = data.len() as u64 / SECTOR_SIZE;
        let mut consumed = 0u64;
        let mut issue = at;
        let mut done = at;
        while consumed < total {
            let (g, opened) = self.open_group(inner, issue, stream)?;
            issue = opened;
            let rest = &data[(consumed * SECTOR_SIZE) as usize..];
            let (n, legs) =
                self.fill_stripe(inner, g, stream, issue, rest, mode, lba + consumed)?;
            consumed += n;
            done = done.max(legs);
        }
        Ok(done.max(self.commit_staged(inner, issue)?))
    }

    /// Appends the head of `data` into the open stripe of group `g`
    /// (the open group of `stream`), all legs issued at `t`, and seals
    /// the stripe if that fills it; [`LogMode::Pad`] takes no `data` and
    /// zero-fills the rest of the stripe. Returns the sectors taken and
    /// the latest completion. Touches neither the free pools nor the log
    /// cursor, so it is safe wherever a stripe may need filling —
    /// including the pad-seal inside a metadata rotation.
    ///
    /// Parity is encoded once, at the seal, from wherever the stripe's
    /// bytes are. A call that covers an empty stripe leaves them in
    /// `data`: legs and encode read the caller's slice and nothing is
    /// copied. Any other call copies its share into the stream's stage
    /// and issues its legs from there.
    #[allow(clippy::too_many_arguments)]
    fn fill_stripe(
        &self,
        inner: &mut LsInner,
        g: u32,
        stream: usize,
        t: SimTime,
        data: &[u8],
        mode: LogMode,
        lba: u64,
    ) -> Result<(u64, SimTime)> {
        let gi = g as usize;
        let bytes = |sectors: u64| (sectors * SECTOR_SIZE) as usize;
        let stripe = inner.groups[gi].sealed;
        let fill = inner.groups[gi].fill;
        let take = match mode {
            LogMode::Pad => self.kd - fill,
            _ => (data.len() as u64 / SECTOR_SIZE).min(self.kd - fill),
        };
        let whole = (take == self.kd && mode != LogMode::Pad).then(|| &data[..bytes(take)]);
        // The stripe's image: slot `i` of the open stripe is sector `i`.
        let image = whole.unwrap_or_else(|| {
            let stage = stage(&mut inner.stages[stream], self.kd);
            match mode {
                LogMode::Pad => stage[bytes(fill)..].fill(0),
                _ => stage[bytes(fill)..bytes(fill + take)].copy_from_slice(&data[..bytes(take)]),
            }
            stage
        });
        let zones = &inner.groups[gi].zones;
        let devices = self.members.read();
        let mut done = t;
        let mut issued = 0u64;
        let mut legs = Ok(());
        // A failed member's leg is omitted: the stage (or `data`) and then
        // the stripe's parity cover it.
        for (slot, sec, run) in unit_segments(fill, fill + take, self.k) {
            let dev = self.data_dev(stripe, (slot / self.k) as usize);
            let plba = self.phys.zone_start(zones[dev]) + stripe * self.k + sec;
            let chunk = &image[bytes(slot)..bytes(slot + run)];
            let write = |d: &ZnsDevice| Ok(d.write(t, plba, chunk, WriteFlags::default())?.done);
            let leg = match self.members.is_failed(dev) {
                true => Ok(t),
                false => devices.command(t, dev, Exhausted::Omit, write),
            };
            match leg {
                Ok(c) => done = done.max(c),
                Err(e) => {
                    legs = Err(e);
                    break;
                }
            }
            issued += run;
        }
        drop(devices);
        // Account for exactly what reached a device, failed call or not.
        match mode {
            LogMode::User => inner.c_user += issued,
            LogMode::Gc => inner.c_migrated += issued,
            LogMode::Pad => inner.c_pads += issued,
        }
        if mode != LogMode::Pad {
            self.map_log(inner, gi, stripe * self.kd + fill, lba, issued, mode);
        }
        inner.groups[gi].fill += issued;
        let seal = legs.and_then(|()| {
            if fill + take == self.kd {
                self.seal_stripe(inner, g, stream, t, whole)
            } else {
                Ok(t)
            }
        });
        if let (Some(data), Err(_)) = (whole, &seal) {
            // The stripe stays open — part-filled by the legs before the
            // failed one, or full and unsealed — and whoever completes it
            // encodes from the stage, which this call bypassed.
            let kept = bytes(inner.groups[gi].fill);
            stage(&mut inner.stages[stream], self.kd)[..kept].copy_from_slice(&data[..kept]);
        }
        Ok((take, done.max(seal?)))
    }

    /// Points logical sectors `l..l + len` at group `gi`'s slots from
    /// `slot` on, releasing each previous mapping. A [`LogMode::Gc`]
    /// move only remaps a sector that still lives in the group being
    /// drained: a concurrent overwrite wins and the migrated copy becomes
    /// garbage.
    fn map_log(&self, inner: &mut LsInner, gi: usize, slot: u64, l: u64, len: u64, mode: LogMode) {
        let LsInner {
            map,
            groups,
            migrating,
            ..
        } = inner;
        let pa = self.enc(gi as u32, slot);
        map.map_run(l, pa, len, |i, old| {
            let take = match mode {
                LogMode::Gc => old != UNMAPPED && *migrating == Some(self.group_of(old)),
                _ => true,
            };
            if take {
                if old != UNMAPPED {
                    self.release(groups, old);
                }
                groups[gi].rev.push(slot + i, l + i);
                groups[gi].valid += 1;
            }
            take
        });
    }

    /// Turns the slot a sector mapped to into garbage.
    fn release(&self, groups: &mut [Group], pa: u32) {
        let grp = &mut groups[self.group_of(pa) as usize];
        grp.rev.kill(self.slot_of(pa));
        grp.valid -= 1;
    }

    /// Encodes the full stripe's parity in one pass over its bytes —
    /// `whole` when one call brought them all, the stream's stage
    /// otherwise — issues the parity unit(s) at `t`, stages the stripe's
    /// seal entry for the caller's summary commit, and advances the
    /// group; closes it when its last stripe seals. Returns the parity
    /// legs' completion.
    fn seal_stripe(
        &self,
        inner: &mut LsInner,
        g: u32,
        stream: usize,
        t: SimTime,
        whole: Option<&[u8]>,
    ) -> Result<SimTime> {
        let gi = g as usize;
        let stripe = inner.groups[gi].sealed;
        let unit = (self.k * SECTOR_SIZE) as usize;
        let leg_dev = |leg: u64| ((stripe + leg) % self.n as u64) as usize;
        // A failed member's parity column is neither computed nor issued.
        let live = |leg: u64| !self.members.is_failed(leg_dev(leg));
        let (p, q) = inner.parity.split_at_mut(unit);
        sim::encode_pq(
            whole.unwrap_or(&inner.stages[stream]),
            live(0).then_some(p),
            (self.p == 2 && live(1)).then_some(q),
        );
        let legs = [obs::PathKind::FullParity, obs::PathKind::QParity];
        let devices = self.members.read();
        let mut done = t;
        for (i, (column, path)) in inner.parity.chunks_exact(unit).zip(legs).enumerate() {
            let dev = leg_dev(i as u64);
            let lba = self.phys.zone_start(inner.groups[gi].zones[dev]) + stripe * self.k;
            // A failed member's parity leg is omitted, like a data leg.
            let c = match live(i as u64) {
                false => t,
                true => devices.command(t, dev, Exhausted::Omit, |d| {
                    Ok(d.write(t, lba, column, WriteFlags::default())?.done)
                })?,
            };
            self.tracer.leaf(
                obs::Span::new(obs::OpClass::Write, obs::Stage::Xor, t, c)
                    .path(path)
                    .lba(lba)
                    .sectors(self.k),
            );
            done = done.max(c);
        }
        drop(devices);
        inner.c_parity += self.k * self.p as u64;
        // Garbage, pads and GC moves that lost their race are `UNMAPPED`.
        let base = stripe * self.kd;
        let lbas = inner.groups[gi].rev.lbas(base..base + self.kd);
        meta::put_summary_entry(
            &mut inner.meta.staged,
            g,
            stripe,
            lbas.map(|l| l.unwrap_or(UNMAPPED)),
        );
        let grp = &mut inner.groups[gi];
        grp.sealed = stripe + 1;
        grp.fill = 0;
        if grp.sealed == self.s {
            grp.state = GState::Sealed;
            inner.open[stream] = None;
        }
        Ok(done)
    }

    /// Zero-pads every open stream to its next stripe boundary so all
    /// logged data becomes parity-protected and its seal entry staged.
    /// A stream is only padded inside its open stripe, which
    /// [`Self::fill_stripe`] fills without opening, committing or
    /// collecting anything.
    fn pad_seal(&self, inner: &mut LsInner, at: SimTime) -> Result<SimTime> {
        let mut done = at;
        for stream in 0..STREAMS {
            let Some(g) = inner.open[stream] else {
                continue;
            };
            if inner.groups[g as usize].fill == 0 {
                continue;
            }
            let (_, legs) = self.fill_stripe(inner, g, stream, at, &[], LogMode::Pad, 0)?;
            done = done.max(legs);
        }
        Ok(done)
    }

    /// Durability barrier: pad-seals every stream and commits the staged
    /// summaries (all issued at `at`), then flushes every device cache.
    fn flush_inner(&self, inner: &mut LsInner, at: SimTime) -> Result<SimTime> {
        let padded = self.pad_seal(inner, at)?;
        let summarized = self.commit_staged(inner, at)?;
        self.flush_devices(padded.max(summarized))
    }

    fn flush_devices(&self, start: SimTime) -> Result<SimTime> {
        let devices = self.members.read();
        let done = devices.flush(start, !0)?;
        self.tracer.leaf(obs::Span::new(
            obs::OpClass::Flush,
            obs::Stage::Flush,
            start,
            done,
        ));
        Ok(done)
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Reads mapped sectors, coalescing physically contiguous runs
    /// (bounded by the stripe unit) into single device commands issued
    /// in parallel, each through the member layer's read path
    /// ([`Members::read_slot`]): a run its member cannot serve is copied
    /// from the stage while its stripe is open, else decoded from the rest
    /// of the stripe in columns the member layer lends. A latent unit comes back decoded whole, and its valid
    /// sectors are re-logged once the decode completes, so later reads find
    /// them elsewhere — unless this read is a migration out of the unit's
    /// group, which moves them anyway.
    fn read_inner(
        &self,
        inner: &mut LsInner,
        at: SimTime,
        lba: u64,
        buf: &mut [u8],
    ) -> Result<SimTime> {
        let nsec = buf.len() as u64 / SECTOR_SIZE;
        let mut done = at;
        let mut i = 0u64;
        while i < nsec {
            let Some((pa, run)) = self.read_run(&inner.map, lba + i, nsec - i) else {
                return Err(ZnsError::ReadUnwritten { lba: lba + i });
            };
            let (g, slot) = (self.group_of(pa), self.slot_of(pa));
            let within = slot % self.k;
            let (stripe, off) = (slot / self.kd, slot % self.kd);
            let out = &mut buf[(i * SECTOR_SIZE) as usize..((i + run) * SECTOR_SIZE) as usize];
            let grp = &inner.groups[g as usize];
            let from = (off * SECTOR_SIZE) as usize;
            let open = match grp.state {
                GState::Open(s) if stripe == grp.sealed => {
                    Some(&inner.stages[usize::from(s)][from..from + out.len()])
                }
                _ => None,
            };
            let dev = self.data_dev(stripe, (off / self.k) as usize) as u32;
            let (t, repaired) = {
                let devices = self.members.read();
                let src = GroupStripe {
                    vol: self,
                    devices: &devices,
                    zones: &grp.zones,
                    g,
                    stripe,
                };
                self.members.read_slot(at, &src, dev, within, out, open)?
            };
            done = done.max(t);
            if let Some(unit) = repaired.filter(|_| inner.migrating != Some(g)) {
                let first = slot - within;
                let (_, relogged) = self.relog(inner, t, g, first..first + self.k, &unit)?;
                done = done.max(relogged);
            }
            i += run;
        }
        Ok(done)
    }

    /// The run [`Self::read_inner`] reads as one command from sector `l`:
    /// its address and length, at most `limit` sectors and inside one
    /// stripe unit (whose slots pack to consecutive addresses); `None`
    /// where `l` is unmapped.
    fn read_run(&self, map: &FwdMap, l: u64, limit: u64) -> Option<(u32, u64)> {
        let pa = Some(map.get(l)).filter(|&pa| pa != UNMAPPED)?;
        Some(map.run(l, limit.min(self.k - self.slot_of(pa) % self.k)))
    }

    /// The member holding logical sector `lba` and the physical sectors of
    /// the stripe unit it lies in (`None` while unmapped), for tests that
    /// aim a fault at one unit.
    #[doc(hidden)]
    pub fn locate(&self, lba: Lba) -> Option<(usize, Range<Lba>)> {
        let inner = self.inner.lock();
        let pa = (lba < inner.map.len())
            .then(|| inner.map.get(lba))
            .filter(|&pa| pa != UNMAPPED)?;
        let slot = self.slot_of(pa);
        let (dev, plba) = self.locate_slot(&inner, self.group_of(pa), slot);
        let start = plba - slot % self.k;
        Some((dev, start..start + self.k))
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

    /// The stream migration out of the active victim targets: one
    /// generation colder than the victim, saturating at the coldest.
    fn migration_target(&self, inner: &LsInner) -> usize {
        inner
            .migrating
            .and_then(|v| inner.groups.get(v as usize))
            .map_or(COLD, |g| (usize::from(g.gen) + 1).min(STREAMS - 1))
    }

    /// Picks a GC victim by LFS-style cost-benefit: among sealed groups
    /// whose garbage fraction meets `threshold`, the one maximizing
    /// `garbage * age / valid` (fully-drained groups win outright,
    /// older wins ties). Pure greedy-by-garbage collects young
    /// half-rotted groups whose surviving data is still dying; weighting
    /// by age steers the collector toward old groups whose survivors
    /// have proven cold, so migration segregates stable data instead of
    /// endlessly remixing it. When the free pool is at or below
    /// `low_water` any garbage qualifies.
    pub fn pick_victim(&self, threshold: f64, low_water: usize) -> Option<u32> {
        let inner = self.inner.lock();
        let force = inner.free_groups.len() <= low_water;
        self.pick_victim_inner(&inner, threshold, force)
    }

    #[allow(clippy::cast_precision_loss)]
    fn pick_victim_inner(&self, inner: &LsInner, threshold: f64, force: bool) -> Option<u32> {
        // Age bonus saturation, in group creations. Age rewards groups
        // whose garbage has stopped accruing (their live data is cold,
        // so migrating it is a one-time cost), but an unbounded bonus
        // lets ancient, barely-rotted cold groups outbid heavily-rotted
        // young ones — draining a nearly-full group stalls the
        // foreground and wrecks write amplification.
        const AGE_SATURATION: u64 = 32;
        // Score components per candidate; compared via u128
        // cross-multiplication so selection is exact and deterministic.
        struct Cand {
            garbage: u64,
            age: u64,
            valid: u64,
            created: u64,
            g: u32,
        }
        let mut best: Option<Cand> = None;
        for (gi, grp) in inner.groups.iter().enumerate() {
            if grp.state != GState::Sealed || inner.migrating == Some(gi as u32) {
                continue;
            }
            let garbage = self.group_cap - grp.valid;
            if garbage == 0 {
                continue;
            }
            if !force && (garbage as f64) < threshold * self.group_cap as f64 {
                continue;
            }
            let cand = Cand {
                garbage,
                age: (inner.created_seq.saturating_sub(grp.created) + 1).min(AGE_SATURATION),
                valid: grp.valid,
                created: grp.created,
                g: gi as u32,
            };
            let better = match &best {
                None => true,
                Some(b) => {
                    // cand.score > best.score with score = garbage*age/valid;
                    // valid == 0 means infinite score (free reclaim).
                    let lhs = u128::from(cand.garbage) * u128::from(cand.age) * u128::from(b.valid);
                    let rhs = u128::from(b.garbage) * u128::from(b.age) * u128::from(cand.valid);
                    lhs > rhs || (lhs == rhs && cand.created < b.created)
                }
            };
            if better {
                best = Some(cand);
            }
        }
        best.map(|c| c.g)
    }

    /// Marks `g` as the group being drained. Migration writes (issued
    /// under [`obs::Actor::Gc`]) only remap sectors that still live in
    /// this group, so foreground overwrites racing the migration win.
    /// Returns `false` if a migration is already active or `g` is not
    /// sealed.
    pub fn begin_migration(&self, g: u32) -> bool {
        let mut inner = self.inner.lock();
        if inner.migrating.is_some()
            || g as usize >= inner.groups.len()
            || inner.groups[g as usize].state != GState::Sealed
        {
            return false;
        }
        inner.migrating = Some(g);
        true
    }

    /// Clears the active migration mark.
    pub fn end_migration(&self) {
        self.inner.lock().migrating = None;
    }

    /// Scans group `g`'s reverse map from slot `from` for the next run
    /// of valid sectors with consecutive logical addresses in one zone,
    /// at most `max` long. Returns `(lba, len, next_slot)`.
    pub fn next_valid_run(&self, g: u32, from: u64, max: u64) -> Option<(Lba, u64, u64)> {
        let inner = self.inner.lock();
        self.valid_run_inner(&inner, g, from, max)
    }

    fn valid_run_inner(
        &self,
        inner: &LsInner,
        g: u32,
        from: u64,
        max: u64,
    ) -> Option<(Lba, u64, u64)> {
        let rev = &inner.groups.get(g as usize)?.rev;
        let start = rev.next_live(from)?;
        let mut lbas = rev.lbas(start..self.group_cap.min(start + max.max(1)));
        let lba0 = u64::from(lbas.next()??);
        let zone = lba0 / self.geo.zone_cap();
        let len = 1 + lbas
            .zip(1..)
            .take_while(|&(l, i)| {
                l.map(u64::from) == Some(lba0 + i) && (lba0 + i) / self.geo.zone_cap() == zone
            })
            .count() as u64;
        Some((lba0, len, start + len))
    }

    /// Live mapped sectors in group `g`.
    pub fn group_valid(&self, g: u32) -> u64 {
        let inner = self.inner.lock();
        inner.groups.get(g as usize).map_or(0, |grp| grp.valid)
    }

    /// Free stripe groups available for allocation.
    pub fn free_group_count(&self) -> usize {
        self.inner.lock().free_groups.len()
    }

    /// Reclaims a fully drained sealed group: seals and flushes all
    /// in-flight data (so every migrated copy is durable), commits the
    /// `GroupFree` record, then resets the member zones and returns them
    /// to the free pools.
    ///
    /// # Errors
    ///
    /// Fails if `g` is not a sealed group with zero valid sectors, or on
    /// device IO failure.
    pub fn reclaim_group(&self, at: SimTime, g: u32) -> Result<SimTime> {
        let mut inner = self.inner.lock();
        let grp = inner
            .groups
            .get(g as usize)
            .ok_or_else(|| invalid("lsraid: no such stripe group"))?;
        if grp.state != GState::Sealed || grp.valid != 0 {
            return Err(invalid("lsraid: group is not drained"));
        }
        self.reclaim_inner(&mut inner, at, g)
    }

    fn reclaim_inner(&self, inner: &mut LsInner, at: SimTime, g: u32) -> Result<SimTime> {
        // Ordering invariant: (1) migrated data durable, (2) GroupFree
        // durable, (3) zones reset. See the crate docs.
        let t = self.flush_inner(inner, at)?;
        let mut t = self.commit_record(inner, t, kind::GROUP_FREE, |_, buf| {
            put_u32(buf, g);
        })?;
        let reset_at = t;
        let gi = g as usize;
        let devices = self.members.read();
        for di in 0..self.n {
            let z = inner.groups[gi].zones[di];
            if z == NO_ZONE {
                continue;
            }
            // A failed member's zone goes back to the pool untouched.
            if !self.members.is_failed(di) {
                let reset = |d: &ZnsDevice| Ok(d.reset_zone(reset_at, z)?.done);
                t = t.max(devices.command(reset_at, di, Exhausted::Omit, reset)?);
            }
            inner.free_zones[di].push(z);
            inner.groups[gi].zones[di] = NO_ZONE;
        }
        let grp = &mut inner.groups[gi];
        grp.state = GState::Free;
        grp.sealed = 0;
        grp.fill = 0;
        // A `Free` group has an empty reverse map (`assemble` and
        // `finish_mount` leave every group so), which is what lets
        // `open_group` hand it out without touching the map. Its runs
        // vector goes to the next group opened.
        let runs = grp.rev.release();
        inner.spare_runs.push(runs);
        inner.free_groups.push(g);
        inner.c_group_reclaims += 1;
        Ok(t)
    }

    /// Inline collection on the foreground write path: drains the best
    /// victim into the cold stream and reclaims it, stalling the caller.
    /// Runs when the free pool hits [`RESERVE_GROUPS`] (the
    /// background [`GcManager`] should normally keep ahead of this).
    fn emergency_collect(&self, inner: &mut LsInner, at: SimTime) -> Result<(SimTime, bool)> {
        let Some(victim) = self.pick_victim_inner(inner, 0.0, true) else {
            return Ok((at, false));
        };
        // A background GcManager may be mid-migration; its mark picked
        // the emergency victim apart from its own group above, and must
        // be restored so its remaining migrate writes stay guarded.
        let saved = inner.migrating;
        inner.in_emergency = true;
        inner.migrating = Some(victim);
        let guard = obs::actor_scope(obs::Actor::Gc);
        let res = self.drain_victim(inner, at, victim);
        drop(guard);
        inner.migrating = saved;
        inner.in_emergency = false;
        let done = res?;
        inner.c_emergency += 1;
        Ok((done, true))
    }

    fn drain_victim(&self, inner: &mut LsInner, at: SimTime, victim: u32) -> Result<SimTime> {
        let mut buf = std::mem::take(&mut inner.gc_buf);
        buf.resize((self.kd * SECTOR_SIZE) as usize, 0);
        let res = self.drain_victim_with(inner, at, victim, &mut buf);
        inner.gc_buf = buf;
        res
    }

    fn drain_victim_with(
        &self,
        inner: &mut LsInner,
        at: SimTime,
        victim: u32,
        buf: &mut [u8],
    ) -> Result<SimTime> {
        // Same shape as a foreground write: every move's read is issued
        // at `at`, its write when that read completes, and the drain
        // completes at the latest of them.
        let mut done = at;
        let mut cursor = 0u64;
        while let Some((lba, len, next)) = self.valid_run_inner(inner, victim, cursor, self.kd) {
            cursor = next;
            let bytes = (len * SECTOR_SIZE) as usize;
            let rd = self.read_inner(inner, at, lba, &mut buf[..bytes])?;
            let target = self.migration_target(inner);
            done = done.max(self.log_data(inner, rd, &buf[..bytes], LogMode::Gc, lba, target)?);
        }
        debug_assert_eq!(inner.groups[victim as usize].valid, 0);
        self.reclaim_inner(inner, done, victim)
    }

    // ------------------------------------------------------------------
    // Scrub
    // ------------------------------------------------------------------

    /// Verifies parity over every sealed stripe of every non-free group
    /// through the member layer's scrub ([`Members::scrub`], which refuses
    /// a degraded array and blames the pass on the scrub actor), and
    /// repairs by re-logging: a stripe whose stored P or Q does not match
    /// its data, or one of whose slots hit a latent media error (decoded
    /// from the rest of the stripe), has its valid sectors written back
    /// through the log as GC migrations, and GC later reclaims the old
    /// copies.
    ///
    /// # Errors
    ///
    /// [`ZnsError::DeviceFailed`] with a member failed; device IO failures.
    pub fn scrub(&self, at: SimTime) -> Result<LsScrubReport> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        self.members.scrub(|devices, verify| {
            let mut rep = LsScrubReport::default();
            for g in 0..inner.groups.len() as u32 {
                // A re-log may append to this very group: `sealed` is re-read.
                let mut stripe = 0;
                while inner.groups[g as usize].state != GState::Free
                    && stripe < inner.groups[g as usize].sealed
                {
                    rep.stripes += 1;
                    let src = GroupStripe {
                        vol: self,
                        devices,
                        zones: &inner.groups[g as usize].zones,
                        g,
                        stripe,
                    };
                    let damage = verify.stripe(at, &src)?;
                    let leg = |i: u64| 1u64 << ((stripe + i) % self.n as u64);
                    let (p, q) = (leg(0), if self.p == 2 { leg(1) } else { 0 });
                    let bad = damage.lost | damage.differs;
                    rep.parity_errors += u64::from(bad & p != 0);
                    rep.q_errors += u64::from(bad & q != 0);
                    rep.units_healed += u64::from((damage.lost & !(p | q)).count_ones());
                    if bad != 0 {
                        let first = stripe * self.kd;
                        let slots = first..first + self.kd;
                        rep.sectors_relogged += self.relog(inner, at, g, slots, verify.data())?.0;
                    }
                    stripe += 1;
                }
            }
            Ok(rep)
        })
    }

    /// Writes the valid sectors among data slots `slots` of group `g` —
    /// whose verified bytes are `data`, from the range's first slot on —
    /// back through the log as GC migrations out of `g`, all issued at
    /// `at`, so their copies in `g` become garbage. Returns the sectors
    /// moved and the latest completion.
    fn relog(
        &self,
        inner: &mut LsInner,
        at: SimTime,
        g: u32,
        slots: Range<u64>,
        data: &[u8],
    ) -> Result<(u64, SimTime)> {
        let saved = inner.migrating.replace(g);
        let target = self.migration_target(inner);
        let (mut cursor, mut moved, mut done) = (slots.start, 0, at);
        let mut res = Ok(());
        while let Some((lba, len, next)) = self.valid_run_inner(inner, g, cursor, self.kd) {
            let start = next - len;
            if start >= slots.end {
                break;
            }
            let len = len.min(slots.end - start);
            let off = ((start - slots.start) * SECTOR_SIZE) as usize;
            let run = &data[off..off + (len * SECTOR_SIZE) as usize];
            res = self
                .log_data(inner, at, run, LogMode::Gc, lba, target)
                .map(|t| done = done.max(t));
            if res.is_err() {
                break;
            }
            (cursor, moved) = (start + len, moved + len);
        }
        inner.migrating = saved;
        res.map(|()| (moved, done))
    }

    // ------------------------------------------------------------------
    // Rebuild
    // ------------------------------------------------------------------

    /// Rebuilds the lowest failed member onto `replacement` through the
    /// member layer's rebuild driver, walking only what the map says is
    /// live. A durability barrier goes first, while the member is still
    /// failed: it pad-seals every open stripe and commits the staged
    /// summaries, so every logged sector has parity and the log has
    /// nothing left to append to the replacement's empty slot. Then a
    /// sealed group with no valid sector left is reclaimed instead of
    /// copied; every other non-free group has the member's slot of each
    /// sealed stripe decoded onto the replacement, and its zone sealed once
    /// the group is. A rebuilt metadata replica then gets a fresh
    /// checkpoint by a log rotation. With two members failed, call again
    /// for the second.
    ///
    /// # Errors
    ///
    /// Fails if no member is failed, the replacement geometry mismatches,
    /// or device IO fails.
    pub fn rebuild(&self, at: SimTime, replacement: Arc<ZnsDevice>) -> Result<RebuildReport> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let dead = |grp: &Group| grp.state == GState::Sealed && grp.valid == 0;
        let mut member = 0;
        let mut report = self.members.rebuild(at, replacement, |devices, rb| {
            member = rb.member();
            self.flush_inner(inner, at)?;
            for g in 0..inner.groups.len() as u32 {
                if dead(&inner.groups[g as usize]) {
                    self.reclaim_inner(inner, at, g)?;
                }
            }
            for (g, grp) in (0..).zip(&inner.groups) {
                if grp.state == GState::Free {
                    continue;
                }
                let zone = grp.zones[member];
                for stripe in 0..grp.sealed {
                    let src = GroupStripe {
                        vol: self,
                        devices,
                        zones: &grp.zones,
                        g,
                        stripe,
                    };
                    rb.extent(zone, stripe, self.k, Fill::Reconstruct(&src))?;
                }
                if grp.state == GState::Sealed {
                    rb.seal(zone)?;
                }
                rb.zone_done();
            }
            Ok(())
        })?;
        if member < self.meta_devices() {
            let done = self.rotate_meta(inner, at + report.duration)?;
            report.duration = report.duration.max(done.since(at));
        }
        Ok(report)
    }

    // ------------------------------------------------------------------
    // Shared write body (write + append)
    // ------------------------------------------------------------------

    /// Validated logging of a foreground write at `rel` in `zone`
    /// (caller holds the lock and has validated bounds).
    #[allow(clippy::too_many_arguments)]
    fn write_body(
        &self,
        inner: &mut LsInner,
        at: SimTime,
        zone: u32,
        rel: u64,
        data: &[u8],
        flags: WriteFlags,
        gc_write: bool,
    ) -> Result<SimTime> {
        let nsec = data.len() as u64 / SECTOR_SIZE;
        let lba = self.geo.zone_start(zone) + rel;
        let mut t = at;
        if flags.preflush {
            t = self.flush_inner(inner, t)?;
        }
        let (mode, stream) = if gc_write {
            (LogMode::Gc, self.migration_target(inner))
        } else {
            (LogMode::User, HOT)
        };
        let mut done = self.log_data(inner, t, data, mode, lba, stream)?;
        if !gc_write {
            let z = &mut inner.lz[zone as usize];
            z.wp = z.wp.max(rel + nsec);
            z.state = z.state.after_write(z.wp, self.geo.zone_cap());
        }
        if flags.fua {
            done = self.flush_inner(inner, done)?;
        }
        Ok(done)
    }
}

/// One stripe of a group as the member layer's decode sees it: roles by
/// the rotation, a failed member's slot erased.
struct GroupStripe<'a, 'r> {
    vol: &'a LsVolume,
    devices: &'a Roster<'r>,
    zones: &'a [u32],
    g: u32,
    stripe: u64,
}

impl Stripe for GroupStripe<'_, '_> {
    fn role(&self, dev: u32) -> Role {
        match self.vol.unit_of_dev(self.stripe, dev as usize) {
            Some(u) => Role::Data(u as u32),
            None if u64::from(dev) == self.stripe % self.vol.n as u64 => Role::P,
            None => Role::Q,
        }
    }

    fn available(&self, dev: u32) -> bool {
        !self.vol.members.is_failed(dev as usize)
    }

    fn fetch(&self, at: SimTime, dev: u32, row0: u64, out: &mut [u8]) -> Result<SimTime> {
        let (vol, dev) = (self.vol, dev as usize);
        if vol.members.is_failed(dev) {
            return Err(ZnsError::DeviceFailed);
        }
        let lba = vol.phys.zone_start(self.zones[dev]) + self.stripe * vol.k + row0;
        self.devices.command(at, dev, Exhausted::Surface, |d| {
            Ok(d.read(at, lba, out)?.done)
        })
    }

    fn zone(&self) -> u32 {
        self.g
    }
}

impl ZonedVolume for LsVolume {
    fn geometry(&self) -> ZoneGeometry {
        self.geo
    }

    fn read(&self, at: SimTime, lba: Lba, buf: &mut [u8]) -> Result<IoCompletion> {
        let (zone, rel, nsec) = self.geo.check_io(lba, buf.len())?;
        let op_span = self.tracer.begin();
        let mut inner = self.inner.lock();
        self.tracer.lock_mark(obs::OpClass::Read, zone, at);
        let z = &inner.lz[zone as usize];
        z.state.check_read(&self.geo, zone, z.wp, rel, nsec)?;
        let done = self.read_inner(&mut inner, at, lba, buf)?;
        drop(inner);
        self.tracer.root(
            &op_span,
            obs::Span::new(obs::OpClass::Read, obs::Stage::WholeOp, at, done)
                .zone(zone)
                .lba(lba)
                .sectors(nsec),
        );
        Ok(IoCompletion { done })
    }

    fn write(&self, at: SimTime, lba: Lba, data: &[u8], flags: WriteFlags) -> Result<IoCompletion> {
        let (zone, rel, nsec) = self.geo.check_io(lba, data.len())?;
        let op_span = self.tracer.begin();
        let mut inner = self.inner.lock();
        self.tracer.lock_mark(obs::OpClass::Write, zone, at);
        // The contract's two exceptions (DESIGN.md "Zone contract"): GC
        // migration bypasses it, and a write below the write pointer is an
        // overwrite, remapped internally — even in a full zone.
        let gc_write = obs::current_actor() == obs::Actor::Gc && inner.migrating.is_some();
        let z = &inner.lz[zone as usize];
        if !gc_write && rel >= z.wp {
            z.state.check_write(&self.geo, zone, z.wp, rel, nsec)?;
        }
        let done = self.write_body(&mut inner, at, zone, rel, data, flags, gc_write)?;
        drop(inner);
        self.tracer.root(
            &op_span,
            obs::Span::new(obs::OpClass::Write, obs::Stage::WholeOp, at, done)
                .zone(zone)
                .lba(lba)
                .sectors(nsec),
        );
        Ok(IoCompletion { done })
    }

    fn append(
        &self,
        at: SimTime,
        zone: u32,
        data: &[u8],
        flags: WriteFlags,
    ) -> Result<AppendCompletion> {
        let nsec = self.geo.check_append(zone, data.len())?;
        let op_span = self.tracer.begin();
        let mut inner = self.inner.lock();
        self.tracer.lock_mark(obs::OpClass::Append, zone, at);
        let z = &inner.lz[zone as usize];
        let rel = z.wp;
        z.state.check_write(&self.geo, zone, rel, rel, nsec)?;
        let lba = self.geo.zone_start(zone) + rel;
        let done = self.write_body(&mut inner, at, zone, rel, data, flags, false)?;
        drop(inner);
        self.tracer.root(
            &op_span,
            obs::Span::new(obs::OpClass::Append, obs::Stage::WholeOp, at, done)
                .zone(zone)
                .lba(lba)
                .sectors(nsec),
        );
        Ok(AppendCompletion { lba, done })
    }

    fn reset_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        self.geo.check_zone(zone)?;
        let op_span = self.tracer.begin();
        let mut inner = self.inner.lock();
        self.tracer.lock_mark(obs::OpClass::Reset, zone, at);
        let state = inner.lz[zone as usize].state.reset(zone)?;
        let LsInner { map, groups, .. } = &mut *inner;
        map.unmap_range(self.geo.zone_start(zone), self.geo.zone_cap(), |pa| {
            self.release(groups, pa);
            true
        });
        inner.lz[zone as usize] = LZone { wp: 0, state };
        let done = self.commit_record(&mut inner, at, kind::ZONE_RESET, |_, buf| {
            put_u32(buf, zone);
        })?;
        drop(inner);
        self.tracer.root(
            &op_span,
            obs::Span::new(obs::OpClass::Reset, obs::Stage::WholeOp, at, done)
                .zone(zone)
                .lba(self.geo.zone_start(zone)),
        );
        Ok(IoCompletion { done })
    }

    fn finish_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        self.geo.check_zone(zone)?;
        let op_span = self.tracer.begin();
        let mut inner = self.inner.lock();
        self.tracer.lock_mark(obs::OpClass::Finish, zone, at);
        let state = inner.lz[zone as usize].state;
        let next = state.finish(zone)?;
        if next == state {
            return Ok(IoCompletion { done: at });
        }
        // Finishing is a durability point: everything logged so far is
        // sealed and flushed before the Full state is recorded.
        let t = self.flush_inner(&mut inner, at)?;
        inner.lz[zone as usize].state = next;
        let done = self.commit_record(&mut inner, t, kind::ZONE_FINISH, |_, buf| {
            put_u32(buf, zone);
        })?;
        drop(inner);
        self.tracer.root(
            &op_span,
            obs::Span::new(obs::OpClass::Finish, obs::Stage::WholeOp, at, done)
                .zone(zone)
                .lba(self.geo.zone_start(zone)),
        );
        Ok(IoCompletion { done })
    }

    fn open_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        self.geo.check_zone(zone)?;
        let mut inner = self.inner.lock();
        let z = &mut inner.lz[zone as usize];
        z.state = z.state.open(zone)?;
        Ok(IoCompletion { done: at })
    }

    fn close_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        self.geo.check_zone(zone)?;
        let mut inner = self.inner.lock();
        let z = &mut inner.lz[zone as usize];
        z.state = z.state.close(zone, z.wp)?;
        Ok(IoCompletion { done: at })
    }

    fn flush(&self, at: SimTime) -> Result<IoCompletion> {
        let op_span = self.tracer.begin();
        let mut inner = self.inner.lock();
        self.tracer.lock_mark(obs::OpClass::Flush, obs::NONE, at);
        let done = self.flush_inner(&mut inner, at)?;
        drop(inner);
        self.tracer.root(
            &op_span,
            obs::Span::new(obs::OpClass::Flush, obs::Stage::WholeOp, at, done),
        );
        Ok(IoCompletion { done })
    }

    fn zone_info(&self, zone: u32) -> Result<ZoneInfo> {
        self.geo.check_zone(zone)?;
        let inner = self.inner.lock();
        let z = &inner.lz[zone as usize];
        Ok(self.geo.info(zone, z.state, z.wp))
    }
}
