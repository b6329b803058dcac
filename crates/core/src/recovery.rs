//! Mount-time crash recovery (§4.3 zone descriptors, §5.1 parity
//! reconstruction, §5.2 reset logs and relocation).
//!
//! Mounting scans every metadata zone of every device, replays the log
//! records (validated against per-zone generation counters), then derives
//! each logical zone's write pointer from the physical write pointers:
//! missing stripe units ("stripe holes", Fig. 1) are rebuilt from parity or
//! partial-parity logs and written back at the physical write pointers; if
//! reconstruction is impossible the logical write pointer is rolled back to
//! hide the torn suffix, the orphaned "ghost" units are marked as
//! conflicted slots, and future writes to them are relocated to metadata
//! zones.
//!
//! Recovery runs before the volume is visible to other threads, but it
//! still follows the sharded volume's lock order (zone shard → metadata →
//! device) so the helpers it shares with the IO path stay uniform.

use crate::config::{RaiznConfig, MD_ZONES, RELOCATION_THRESHOLD};
use crate::metadata::{MdPayload, MdRecord, MD_HEADER_BYTES};
use crate::stats::AtomicRaiznStats;
use crate::volume::{internal, LiveMeta, MdRole, MdRoles, MetaState, RaiznVolume, RelocatedUnit};
use crate::Result;
use sim::codec::Role;
use sim::SimTime;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use zns::array::{unit_segments, Exhausted, Roster, Stripe};
use zns::{WriteFlags, ZnsDevice, ZnsError, ZoneState, ZonedVolume, SECTOR_SIZE};

/// A per-(zone, stripe) partial-parity image assembled by replaying pp
/// records in write order, snapshotted at one data extent.
#[derive(Debug, Clone)]
struct ParityImage {
    /// Parity bytes, one stripe unit.
    rows: Vec<u8>,
    /// Which rows hold valid parity.
    covered: Vec<bool>,
    /// Logical end LBA of the newest contributing record (the stripe's
    /// data extent when the parity was computed).
    end_lba: u64,
}

/// The partial-parity images replayed from the metadata logs: the XOR (P)
/// leg and, in dual-parity mode, the Reed–Solomon (Q) leg.
///
/// Each (zone, stripe) keeps one snapshot per distinct record extent,
/// sorted by `end_lba`. Later snapshots fold more data units in; the
/// earlier ones stay decodable when a unit staged *after* a FUA barrier
/// died with its device — the durable prefix must then be recovered from
/// the parity as it stood at the barrier, not as it stood at the crash.
#[derive(Debug, Default)]
struct PpImages {
    p: HashMap<(u32, u64), Vec<ParityImage>>,
    q: HashMap<(u32, u64), Vec<ParityImage>>,
}

impl PpImages {
    /// The highest fill (sectors into zone `lz`, which starts at
    /// `zone_start`) any replayed image of the zone was computed over.
    fn frontier(&self, lz: u32, zone_start: u64) -> Option<u64> {
        [&self.p, &self.q]
            .into_iter()
            .flatten()
            .filter(|((z2, _), _)| *z2 == lz)
            .filter_map(|(_, imgs)| imgs.last())
            .filter(|img| img.covered.iter().any(|c| *c))
            .map(|img| img.end_lba.saturating_sub(zone_start))
            .max()
    }
}

impl RaiznVolume {
    /// Mounts an existing array after shutdown, power loss, or a crash
    /// with up to `parity` failed devices (one for RAIZN, two for
    /// RAIZN-2). `config` must match the one used at
    /// [`format`](RaiznVolume::format) (it is validated against the
    /// persisted superblock).
    ///
    /// # Errors
    ///
    /// Fails if no valid superblock is found, parameters mismatch, more
    /// devices are failed than the parity count tolerates, or device IO
    /// fails.
    pub fn mount(
        devices: Vec<Arc<ZnsDevice>>,
        config: RaiznConfig,
        at: SimTime,
    ) -> Result<RaiznVolume> {
        let layout = Self::check_devices(&devices, config)?;
        // Members found failed are absent: at most `parity` of them.
        let members = Self::array_members(devices, config)?;

        // ---- 1. Scan metadata zones. -----------------------------------
        // (device, record) pairs in scan order.
        let mut harvest: Vec<(usize, MdRecord)> = Vec::new();
        {
            let devices = members.read();
            for di in 0..devices.len() {
                if members.is_failed(di) {
                    continue;
                }
                for mz in 0..MD_ZONES {
                    scan_md_zone(&devices, di, mz, at, &mut harvest)?;
                }
            }
        }

        // ---- 2. Ingest: superblock, generations, WALs, relocations. ----
        let mut saw_superblock = false;
        let n_lzones = layout.logical_zones() as usize;
        let mut gens = vec![0u64; n_lzones];
        for (_, rec) in &harvest {
            match &rec.payload {
                MdPayload::Superblock(sb) => {
                    saw_superblock = true;
                    if sb.num_devices != layout.devices()
                        || sb.stripe_unit_sectors != config.stripe_unit_sectors
                        || sb.md_zones_per_device != MD_ZONES
                    {
                        return Err(ZnsError::InvalidArgument(
                            "superblock parameters do not match the mount configuration"
                                .to_string(),
                        ));
                    }
                }
                MdPayload::GenCounters {
                    first_zone,
                    counters,
                } => {
                    for (i, c) in counters.iter().enumerate() {
                        let z = *first_zone as usize + i;
                        if z < n_lzones {
                            gens[z] = gens[z].max(*c);
                        }
                    }
                }
                _ => {}
            }
        }
        if !saw_superblock {
            return Err(ZnsError::InvalidArgument(
                "no valid superblock found; was the array formatted?".to_string(),
            ));
        }

        let lgeo = layout.logical_geometry();
        // Latest valid reset WAL per zone.
        let mut reset_wals = vec![false; n_lzones];
        // Sealed write pointer from the latest valid finish WAL per zone.
        let mut finish_wps: Vec<Option<u64>> = vec![None; n_lzones];
        // Relocations: best (highest valid) per slot.
        let mut relocated: HashMap<(u32, u64, u32), RelocatedUnit> = HashMap::new();
        // Partial parity images per (lzone, stripe): replay normal records
        // after checkpointed ones so normal entries win overlaps (§4.3).
        let mut pp = PpImages::default();
        let su = layout.stripe_unit();
        let su_bytes = (su * SECTOR_SIZE) as usize;
        let mut ordered: Vec<&(usize, MdRecord)> = harvest.iter().collect();
        ordered.sort_by_key(|(_, r)| {
            (
                !r.header.checkpoint, // checkpoints first (so normals overwrite)
                r.header.end_lba,
            )
        });
        for (dev, rec) in ordered {
            match &rec.payload {
                MdPayload::ZoneResetLog => {
                    let lz = lgeo.zone_of(rec.header.start_lba) as usize;
                    if rec.header.generation == gens[lz] {
                        reset_wals[lz] = true;
                    }
                }
                MdPayload::ZoneFinishLog => {
                    let lz = lgeo.zone_of(rec.header.start_lba) as usize;
                    if rec.header.generation == gens[lz] {
                        let wp = rec.header.end_lba.saturating_sub(rec.header.start_lba);
                        finish_wps[lz] = Some(finish_wps[lz].map_or(wp, |p| p.max(wp)));
                    }
                }
                MdPayload::RelocatedStripeUnit {
                    lzone,
                    stripe,
                    valid_sectors,
                    data,
                } if (*lzone as usize) < n_lzones
                    && rec.header.generation == gens[*lzone as usize] =>
                {
                    let key = (*lzone, *stripe, *dev as u32);
                    // Records always carry the full unit state and a
                    // non-decreasing `valid`, so among same-generation
                    // records the newest wins — on equal `valid` too:
                    // a slot re-relocated after a rollback re-logs the
                    // same extent with fresh contents, and the stable
                    // (checkpoints, then append-order) scan puts that
                    // newest record last.
                    let better = relocated
                        .get(&key)
                        .map(|r| r.valid <= *valid_sectors)
                        .unwrap_or(true);
                    if better {
                        // The record carries the valid rows (a full unit
                        // when an older mount wrote it).
                        let mut data = data.clone();
                        data.resize(su_bytes, 0);
                        relocated.insert(
                            key,
                            RelocatedUnit {
                                data,
                                valid: *valid_sectors,
                            },
                        );
                    }
                }
                MdPayload::PartialParity { first_row, data }
                | MdPayload::PartialParityQ { first_row, data } => {
                    let lz = lgeo.zone_of(rec.header.start_lba);
                    if rec.header.generation != gens[lz as usize] {
                        continue;
                    }
                    let zoff = lgeo.offset_in_zone(rec.header.start_lba);
                    let stripe = zoff / layout.stripe_data_sectors();
                    let map = if matches!(&rec.payload, MdPayload::PartialParityQ { .. }) {
                        &mut pp.q
                    } else {
                        &mut pp.p
                    };
                    let imgs = map.entry((lz, stripe)).or_default();
                    let e = rec.header.end_lba;
                    let pos = imgs.partition_point(|i| i.end_lba < e);
                    if imgs.get(pos).is_none_or(|i| i.end_lba != e) {
                        // New extent: snapshot continues from the previous
                        // one — rows this record does not touch kept their
                        // parity (and fold set) unchanged.
                        let mut next = match pos.checked_sub(1).map(|p| &imgs[p]) {
                            Some(prev) => prev.clone(),
                            None => ParityImage {
                                rows: vec![0u8; su_bytes],
                                covered: vec![false; su as usize],
                                end_lba: 0,
                            },
                        };
                        next.end_lba = e;
                        imgs.insert(pos, next);
                    }
                    let img = &mut imgs[pos];
                    let rows = data.len() as u64 / SECTOR_SIZE;
                    for r in 0..rows {
                        let dst = ((first_row + r) * SECTOR_SIZE) as usize;
                        let src = (r * SECTOR_SIZE) as usize;
                        img.rows[dst..dst + SECTOR_SIZE as usize]
                            .copy_from_slice(&data[src..src + SECTOR_SIZE as usize]);
                        img.covered[(first_row + r) as usize] = true;
                    }
                }
                _ => {}
            }
        }

        // ---- 3. Assemble and recover each logical zone. -----------------
        let vol = Self::assemble(members, config, layout, gens);
        {
            let devices = vol.members.read();
            // Seed per-zone conflict sets before the map moves into the
            // metadata domain (shard → meta lock order, one zone at a time).
            for (lz, stripe, dev) in relocated.keys() {
                vol.lock_shard(*lz).conflicts.insert((*stripe, *dev));
            }
            {
                let mut m = vol.lock_meta();
                m.live.relocated = relocated;
                vol.sync_relocated_count(&m.live);
            }

            for lz in 0..vol.layout.logical_zones() {
                vol.recover_zone(
                    &devices,
                    at,
                    lz,
                    reset_wals[lz as usize],
                    finish_wps[lz as usize],
                    &pp,
                )?;
            }

            // ---- 3b. Rewrite physical zones whose relocation count
            // exceeds the threshold (§5.2): data is bounced through a swap
            // zone so every relocated unit returns to its arithmetic slot.
            vol.rewrite_overloaded_zones(&devices, at)?;

            // ---- 4. Refresh metadata state (mount-time GC). -------------
            vol.mount_refresh_metadata(&devices, at)?;
        }
        Ok(vol)
    }

    /// Recovers one logical zone the same way whatever state the crash
    /// left it in; returns whether its generation was bumped.
    ///
    /// Three stages. **Claim**: the largest fill any witness supports
    /// ([`ZoneRecovery::claim`]) — never an understated one. **Walk**: the
    /// one repair and the one clamp ([`ZoneRecovery::readable_prefix`]),
    /// so the write pointer a mount exposes is one the members can serve
    /// (the stripe-hole rule, §5.2). **Settle**: stripe buffer, ghost
    /// slots, zone state. Holds the zone's shard and the metadata lock
    /// throughout (mount is single-threaded; the locks document the
    /// domains used).
    fn recover_zone(
        &self,
        devices: &Roster<'_>,
        at: SimTime,
        lz: u32,
        reset_logged: bool,
        finish_wp: Option<u64>,
        pp: &PpImages,
    ) -> Result<bool> {
        let layout = self.layout;
        let su = layout.stripe_unit();
        let stripe_data = layout.stripe_data_sectors();
        let phys_zone = layout.phys_zone(lz);
        let lgeo = layout.logical_geometry();
        let mut z = self.lock_shard(lz);
        let mut meta = self.lock_meta();
        let m = &mut meta.live;

        // Per-device physical write pointers (relative), None for failed.
        let mut wp: Vec<Option<u64>> = Vec::with_capacity(devices.len());
        let (mut live_full, mut any_full) = (true, false);
        for i in 0..devices.len() {
            wp.push(if self.members.is_failed(i) {
                None
            } else {
                let info = devices.zone_info(i, phys_zone)?;
                live_full &= info.state == ZoneState::Full;
                any_full |= info.state == ZoneState::Full;
                Some(info.write_pointer - info.start)
            });
        }
        // Generation-filtered pp images count as content: on a degraded
        // mount the failed devices may have held every written data unit,
        // leaving the parity logs as the zone's only witnesses.
        let pp_frontier = pp.frontier(lz, lgeo.zone_start(lz));
        let any_content = wp.iter().flatten().any(|w| *w > 0) || pp_frontier.is_some();
        // A sealed zone was finished, or filled. A finish is witnessed two
        // ways: by its WAL record (written before any device seals) and by
        // sealed physical zones — writes fill the array's physical zones
        // in lock-step, so only a crash mid-way through the per-device
        // finish loop, or one that took some members' cached tail, leaves
        // a mixed Full / not-Full line-up. Sealed zones reject writes
        // until reset — leaving the logical zone `Closed` would wedge it —
        // so the finish is rolled forward (the mirror image of the logged
        // reset replay below): the zone recovers as finished and the
        // straggler devices are sealed once its prefix is settled. A reset
        // intent supersedes: you cannot finish a zone after logging its
        // reset without the replay bumping the generation first.
        let sealed = live_full || any_full || finish_wp.is_some();
        let finish_roll = !reset_logged && !live_full && sealed;

        if reset_logged || !any_content {
            // Either the WAL says this zone should be empty — finish the
            // job (§5.2) — or it is: bump the generation so any stale
            // metadata for it is invalidated (§4.3). A sealed-but-empty
            // physical zone is a finish interrupted before the zone held
            // any data — reset the sealed stragglers so the empty logical
            // zone stays writable on every device.
            if any_content || finish_roll {
                devices.on_survivors(at, Exhausted::Surface, |_, d| {
                    Ok(d.reset_zone(at, phys_zone)?.done)
                })?;
            }
            m.gens[lz as usize] += 1;
            m.relocated.retain(|(z2, _, _), _| *z2 != lz);
            self.sync_relocated_count(m);
            z.conflicts.clear();
            if any_content {
                AtomicRaiznStats::add(&self.stats.zone_resets, 1);
            }
            return Ok(true);
        }

        // ---- Claim, then walk. -------------------------------------------
        let mut rec = ZoneRecovery {
            vol: self,
            m,
            devices,
            pp,
            at,
            lz,
            wp,
            decoded: Vec::new(),
            relocated_parity: Vec::new(),
        };
        let claim = rec.claim(pp_frontier, sealed, finish_wp);
        let fill = rec.readable_prefix(claim)?;
        let (wp, decoded, relocated_parity) = (rec.wp, rec.decoded, rec.relocated_parity);
        for (stripe, dev, row0, rows) in relocated_parity {
            let rel = m.relocated.get_mut(&(lz, stripe, dev));
            let rel = rel.ok_or_else(|| internal("walk rebuilt a relocation it did not find"))?;
            rel.data[(row0 * SECTOR_SIZE) as usize..][..rows.len()].copy_from_slice(&rows);
            rel.valid = row0 + rows.len() as u64 / SECTOR_SIZE;
        }
        // A rollback strands the rows a relocated unit holds past the
        // settled frontier: left valid they would be re-logged, claimed by
        // the next mount and exposed as data.
        for ((_, stripe, dev), rel) in m.relocated.iter_mut().filter(|((z2, ..), _)| *z2 == lz) {
            let keep = layout.slot_extent(lz, *stripe, *dev, fill).min(rel.valid);
            rel.data[(keep * SECTOR_SIZE) as usize..].fill(0);
            rel.valid = keep;
        }

        // ---- Settle. -----------------------------------------------------
        // Seed the stripe buffer for an incomplete final stripe ("up to one
        // stripe buffer ... per open logical zone", §5.1): healthy and
        // relocated units are fetched, an absent member's are the rows the
        // walk decoded to prove them readable. This runs BEFORE the ghost
        // sweep, which is about to mask rolled-back slots behind empty
        // relocations.
        if fill % stripe_data != 0 {
            let stripe = fill / stripe_data;
            let in_stripe = fill % stripe_data;
            let mut staged = vec![0u8; (in_stripe * SECTOR_SIZE) as usize];
            for (sector, row0, rows) in unit_segments(0, in_stripe, su) {
                let k = sector / su;
                let dev = layout.data_device(lz, stripe, k);
                let out =
                    &mut staged[(sector * SECTOR_SIZE) as usize..][..(rows * SECTOR_SIZE) as usize];
                if m.relocated.contains_key(&(lz, stripe, dev))
                    || !self.members.is_failed(dev as usize)
                {
                    self.fetch_slot_rows(Some(m), devices, at, lz, stripe, dev, row0, out)?;
                } else {
                    let unit = decoded
                        .iter()
                        .find_map(|(j, unit)| (*j == k).then_some(unit.as_slice()))
                        .filter(|unit| unit.len() >= out.len())
                        .ok_or_else(|| internal("walk exposed rows it did not decode"))?;
                    out.copy_from_slice(&unit[..out.len()]);
                }
            }
            let mut buf = self.draw_stripe_buffer(stripe);
            buf.fill(&staged);
            z.buffer = Some(buf);
        }

        // Consistency sweep: every device's physical extent must match what
        // the final logical write pointer implies, or the excess becomes a
        // conflicted "ghost" slot whose future writes are relocated. This
        // covers rollback ghosts and repairs that landed before a later
        // rollback alike. Sealed zones accept no writes until reset, so
        // no conflicts (or padding) are needed there.
        for (dev, w) in (0u32..).zip(&wp).filter(|_| !sealed) {
            let Some(w) = *w else {
                continue;
            };
            let mut ghost = false;
            for stripe in 0..w.div_ceil(su) {
                if m.relocated.contains_key(&(lz, stripe, dev)) {
                    continue; // already a conflicted slot from a past session
                }
                let have = (w - stripe * su).min(su);
                if have > layout.slot_extent(lz, stripe, dev, fill) {
                    z.conflicts.insert((stripe, dev));
                    // Record the conflict as an (empty) relocation so it
                    // survives future mounts: the padded ghost slot would
                    // otherwise masquerade as valid data next time.
                    let empty = RelocatedUnit {
                        data: vec![0u8; (su * SECTOR_SIZE) as usize],
                        valid: 0,
                    };
                    m.relocated.insert((lz, stripe, dev), empty);
                    ghost = true;
                }
            }
            // Pad a mid-unit ghost frontier to the next unit boundary so
            // later slots keep their arithmetic addresses.
            let pad_to = w.next_multiple_of(su);
            if ghost && pad_to > w {
                let zeros = vec![0u8; ((pad_to - w) * SECTOR_SIZE) as usize];
                let pba = layout.phys_geometry().zone_start(phys_zone) + w;
                devices.command(at, dev as usize, Exhausted::Surface, |d| {
                    Ok(d.write(at, pba, &zeros, WriteFlags::default())?.done)
                })?;
            }
        }
        self.sync_relocated_count(m);

        z.wp = fill;
        self.zone_wp[lz as usize].store(fill, Ordering::Release);
        z.state = if fill == 0 {
            ZoneState::Empty
        } else if sealed || fill == lgeo.zone_cap() {
            ZoneState::Full
        } else {
            ZoneState::Closed
        };
        // Complete an interrupted finish: seal the straggler devices
        // (idempotent on the already-Full ones) so the device-level zone
        // states agree with the recovered logical seal and no physical
        // zone is pinned active under a Full logical zone. The fills pad
        // each straggler's unwritten remainder at the modeled cost. When
        // the recovered prefix collapsed to empty the partial seal is
        // undone instead, so the zone stays writable.
        if finish_roll && z.state == ZoneState::Full {
            devices.on_survivors(at, Exhausted::Surface, |_, d| {
                Ok(d.finish_zone(at, phys_zone)?.done)
            })?;
            AtomicRaiznStats::add(&self.stats.zone_finishes, 1);
            AtomicRaiznStats::add(&self.stats.finish_rollforwards, 1);
        } else if finish_roll {
            devices.on_survivors(at, Exhausted::Surface, |_, d| {
                Ok(d.reset_zone(at, phys_zone)?.done)
            })?;
        }
        // Any Full zone keeps (or gains) a checkpointed finish WAL: the
        // next metadata GC re-logs the recovered fill, so it stays
        // durable even for witness-rolled or naturally filled zones.
        if z.state == ZoneState::Full {
            self.zone_sealed[lz as usize].store(true, Ordering::Release);
        }
        // Post-crash, everything on media is durable.
        z.pbitmap.mark_persisted_below(fill);
        Ok(false)
    }

    /// §5.2 maintenance: when a logical zone holds more relocated stripe
    /// units on one device than [`RELOCATION_THRESHOLD`], the physical
    /// zone on that device is rewritten — contents are bounced through a
    /// swap zone, the zone is reset, and everything is written back with
    /// each relocated unit restored to its arithmetic slot.
    pub(crate) fn rewrite_overloaded_zones(&self, devices: &Roster<'_>, at: SimTime) -> Result<()> {
        let mut targets: Vec<(u32, u32)> = {
            let m = self.lock_meta();
            let mut counts: HashMap<(u32, u32), usize> = HashMap::new();
            for (lz, _stripe, dev) in m.live.relocated.keys() {
                *counts.entry((*lz, *dev)).or_default() += 1;
            }
            counts
                .into_iter()
                .filter(|(_, c)| *c > RELOCATION_THRESHOLD)
                .map(|(k, _)| k)
                .collect()
        };
        targets.sort_unstable();
        for (lz, dev) in targets {
            if self.members.is_failed(dev as usize) {
                continue;
            }
            self.rewrite_zone_on_device(devices, at, lz, dev)?;
        }
        Ok(())
    }

    fn rewrite_zone_on_device(
        &self,
        devices: &Roster<'_>,
        at: SimTime,
        lz: u32,
        dev: u32,
    ) -> Result<()> {
        let layout = self.layout;
        let su = layout.stripe_unit();
        let phys_zone = layout.phys_zone(lz);
        let phys_start = layout.phys_geometry().zone_start(phys_zone);
        let mut z = self.lock_shard(lz);
        let mut m = self.lock_meta();
        let fill = z.wp;

        // Assemble the corrected contents of this device's column: every
        // slot at its arithmetic position, relocated units restored.
        let mut corrected: Vec<u8> = Vec::new();
        let mut stripe = 0u64;
        loop {
            let expected = layout.slot_extent(lz, stripe, dev, fill);
            if expected == 0 {
                break;
            }
            let bytes = (expected * SECTOR_SIZE) as usize;
            if let Some(rel) = m.live.relocated.get(&(lz, stripe, dev)) {
                corrected.extend_from_slice(&rel.data[..bytes]);
            } else {
                let off = corrected.len();
                corrected.resize(off + bytes, 0);
                let (pba, out) = (phys_start + stripe * su, &mut corrected[off..off + bytes]);
                devices.command(at, dev as usize, Exhausted::Surface, |d| {
                    Ok(d.read(at, pba, out)?.done)
                })?;
            }
            if expected < su {
                break; // frontier slot
            }
            stripe += 1;
        }

        // Bounce through a swap metadata zone so the data stays on stable
        // media across the reset window, then rewrite the zone in place.
        let swap = m.log.md[dev as usize]
            .swaps
            .first()
            .copied()
            .ok_or_else(|| internal("zone rewrite requires at least one swap zone"))?;
        let (member, flags, surface) = (dev as usize, WriteFlags::default(), Exhausted::Surface);
        let mut t = at;
        if !corrected.is_empty() {
            let c = devices.command(t, member, surface, |d| {
                Ok(d.append(t, swap, &corrected, flags)?.done)
            })?;
            t = devices.flush(c, 1 << member)?;
        }
        t = devices.command(t, member, surface, |d| Ok(d.reset_zone(t, phys_zone)?.done))?;
        if !corrected.is_empty() {
            let c = devices.command(t, member, surface, |d| {
                Ok(d.write(t, phys_start, &corrected, flags)?.done)
            })?;
            t = devices.flush(c, 1 << member)?;
        }
        devices.command(t, member, surface, |d| Ok(d.reset_zone(t, swap)?.done))?;

        // The relocations on this device's column are healed.
        m.live
            .relocated
            .retain(|(z2, _, d), _| !(*z2 == lz && *d == dev));
        self.sync_relocated_count(&m.live);
        z.conflicts.retain(|(_, d)| *d != dev);
        AtomicRaiznStats::add(&self.stats.zone_rewrites, 1);
        Ok(())
    }

    /// Mount-time metadata refresh: checkpoint all live metadata into the
    /// emptiest metadata zone per device, then reset the others — leaving
    /// a compact, bounded metadata footprint for the new session.
    fn mount_refresh_metadata(&self, devices: &Roster<'_>, at: SimTime) -> Result<()> {
        self.sync_pp_snapshots();
        let mut m = self.lock_meta();
        let MetaState { log, live, .. } = &mut *m;
        for dev in 0..devices.len() {
            if self.members.is_failed(dev) {
                continue;
            }
            // Choose the md zone with the most free space as the new
            // general zone.
            let mut best = 0u32;
            let mut best_free = 0u64;
            for mz in 0..MD_ZONES {
                let info = devices.zone_info(dev, mz)?;
                let free = info.remaining();
                if free >= best_free {
                    best = mz;
                    best_free = free;
                }
            }
            let others: Vec<u32> = (0..MD_ZONES).filter(|z| *z != best).collect();
            log.md[dev] = MdRoles {
                general: best,
                pplog: others[0],
                swaps: others[1..].to_vec(),
            };
            let mut t = at;
            self.checkpoint_live(live, dev, MdRole::General, true, |rec| {
                t = self.md_append(log, live, devices, t, dev, MdRole::General, rec, false)?;
                Ok(())
            })?;
            devices.flush(t, 1 << dev)?;
            // Reset the other metadata zones.
            for mz in others {
                let info = devices.zone_info(dev, mz)?;
                if info.write_pointer > info.start {
                    devices.command(t, dev, Exhausted::Surface, |d| {
                        Ok(d.reset_zone(t, mz)?.done)
                    })?;
                }
            }
            // Partial parity of the seeded stripe buffers goes back into
            // the emptied pp-log zone, so a failure of a data device before
            // the next write is still recoverable.
            self.checkpoint_live(live, dev, MdRole::PpLog, false, |rec| {
                self.md_append(log, live, devices, at, dev, MdRole::PpLog, rec, false)?;
                Ok(())
            })?;
        }
        Ok(())
    }
}

/// What the recovery stages of one logical zone share: the volume, the
/// replayed metadata, and the members' write pointers as the walk's
/// repairs advance them.
struct ZoneRecovery<'a> {
    vol: &'a RaiznVolume,
    m: &'a LiveMeta,
    devices: &'a Roster<'a>,
    pp: &'a PpImages,
    at: SimTime,
    lz: u32,
    /// Zone-relative physical write pointer per member, `None` for an
    /// absent one.
    wp: Vec<Option<u64>>,
    /// The walk's by-product: the rows it decoded for the data units the
    /// absent members held in the stripe its prefix ends in, by unit.
    decoded: Vec<(u64, Vec<u8>)>,
    /// Rows the walk rebuilt for relocated parity slots, as `(stripe,
    /// member, first row, rows)`; settle extends the relocations by them.
    relocated_parity: Vec<(u64, u32, u64, Vec<u8>)>,
}

impl<'a> ZoneRecovery<'a> {
    /// Available sectors of the slot `dev` holds for `stripe`: relocated
    /// slots count by their relocation extent.
    fn avail(&self, stripe: u64, dev: u32) -> Option<u64> {
        if let Some(rel) = self.m.relocated.get(&(self.lz, stripe, dev)) {
            return Some(rel.valid);
        }
        let su = self.vol.layout.stripe_unit();
        self.wp[dev as usize].map(|w| w.saturating_sub(stripe * su).min(su))
    }

    /// Reads rows `[row0, ..)` of the slot `dev` holds for `stripe`.
    fn fetch(&self, stripe: u64, dev: u32, row0: u64, out: &mut [u8]) -> Result<SimTime> {
        let (vol, m) = (self.vol, Some(self.m));
        vol.fetch_slot_rows(m, self.devices, self.at, self.lz, stripe, dev, row0, out)
    }

    /// Stage 1: the largest fill any witness supports. Understating it
    /// would hide data the members can serve; overstating it is harmless,
    /// the walk clamps.
    ///
    /// A `sealed` zone claims the fill its finish WAL recorded (`finish_wp`)
    /// or, absent one, the zone capacity — a finish always logs before it
    /// seals, so a sealed member without a record filled by being written
    /// to its last sector. (The survivors cannot say: a sealed zone's
    /// parity slot holds the final stripe's parity *prefix*, which does
    /// not tell a complete stripe from an absent one.) An open zone claims
    /// what its newest slot implies: a data slot the stripe's fill through
    /// its rows, a parity slot (either leg — in a degraded dual-parity
    /// mount the P holder may be the failed device) a complete stripe.
    /// Surviving write pointers alone can understate the frontier on a
    /// degraded mount: when the failed devices held the only data of the
    /// last stripe, its partial-parity images (`pp_frontier`) or a
    /// relocation are the only remaining witnesses.
    fn claim(&self, pp_frontier: Option<u64>, sealed: bool, finish_wp: Option<u64>) -> u64 {
        let layout = self.vol.layout;
        if sealed {
            return finish_wp.unwrap_or(layout.logical_geometry().zone_cap());
        }
        let (su, stripe_data) = (layout.stripe_unit(), layout.stripe_data_sectors());
        let slot_claim = |stripe: u64, dev: u32, rows: u64| {
            stripe * stripe_data
                + match layout.unit_of_device(self.lz, stripe, dev) {
                    _ if rows == 0 => 0,
                    Some(k) => k * su + rows,
                    None => stripe_data,
                }
        };
        let members = (0u32..).zip(&self.wp).filter_map(|(dev, w)| {
            let stripe = w.filter(|w| *w > 0)?.saturating_sub(1) / su;
            Some(slot_claim(stripe, dev, self.avail(stripe, dev)?))
        });
        let relocations = self
            .m
            .relocated
            .iter()
            .filter(|((z2, _, _), rel)| *z2 == self.lz && rel.valid > 0)
            .map(|((_, stripe, dev), rel)| slot_claim(*stripe, *dev, rel.valid));
        members
            .chain(relocations)
            .chain(pp_frontier)
            .max()
            .unwrap_or(0)
    }

    /// Attempts to rebuild rows `[have, needed)` of the slot `dev` holds
    /// for `stripe` into `out`; `Ok(false)` when no parity version decodes
    /// them (the walk then rolls the zone back).
    ///
    /// A data unit is decoded by the array layer from one [`ImageStripe`]
    /// after another: the complete stripe's parity slots first, then the
    /// replayed pp images, newest extent first (an older image can be the
    /// only decodable one when a unit staged after it died with its
    /// device). A parity slot, complete stripes only, is the fold of the
    /// data units, each absent one decoded first (a data unit never
    /// recurses).
    fn rebuild_rows(
        &self,
        stripe: u64,
        dev: u32,
        (have, needed): (u64, u64),
        complete: bool,
        out: &mut [u8],
    ) -> Result<bool> {
        let (lz, layout) = (self.lz, self.vol.layout);
        let full = layout.stripe_data_sectors();
        let decode = |extent, images, known: &[Option<Vec<u8>>], out: &mut [u8]| {
            let rows = (have, needed);
            let version = ImageStripe {
                rec: self,
                stripe,
                extent,
                rows,
                images,
                known,
            };
            self.vol.members.decode(self.at, &version, dev, have, out)
        };
        let Some(j) = layout.unit_of_device(lz, stripe, dev) else {
            let mut known = vec![None; layout.data_units() as usize];
            for (k, rows) in (0..).zip(&mut known) {
                let kdev = layout.data_device(lz, stripe, k);
                if self.avail(stripe, kdev).unwrap_or(0) < needed {
                    let rows = rows.insert(vec![0u8; out.len()]);
                    if !self.rebuild_rows(stripe, kdev, (have, needed), complete, rows)? {
                        return Ok(false);
                    }
                }
            }
            return decode(full, None, &known, out);
        };
        let first_lba = layout.logical_geometry().zone_start(lz) + stripe * full;
        let (ps, qs) = (self.pp.p.get(&(lz, stripe)), self.pp.q.get(&(lz, stripe)));
        let image = |imgs: Option<&'a Vec<ParityImage>>, end| {
            let img = imgs?.iter().find(|img| img.end_lba == end)?;
            (have..needed)
                .all(|r| img.covered[r as usize])
                .then_some(img.rows.as_slice())
        };
        let mut ends: Vec<u64> = ps
            .into_iter()
            .chain(qs)
            .flatten()
            .map(|img| img.end_lba)
            .collect();
        ends.sort_unstable_by(|a, b| b.cmp(a));
        ends.dedup();
        let images = ends.into_iter().map(|end| {
            let legs = [image(ps, end), image(qs, end)];
            (end.saturating_sub(first_lba), Some(legs))
        });
        for (extent, images) in complete.then_some((full, None)).into_iter().chain(images) {
            if j * layout.stripe_unit() + needed <= extent && decode(extent, images, &[], out)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Stage 2: the longest prefix of `claim` in which every sector is
    /// readable — directly or by reconstruction within the parity
    /// headroom. The only repair and the only clamp of a mount, for open
    /// and sealed zones alike: a sealed member already holds everything it
    /// should (a seal is durable), so only stragglers are ever written.
    ///
    /// Reconstructable holes on healthy devices are repaired in place;
    /// holes on failed devices are only probed — no repair write is
    /// possible, but the rows must still be reconstructable or the zone
    /// has to roll back (a cached tail can die with its device) — and
    /// left to the degraded read path; what was decoded for the stripe the
    /// prefix ends in stays in `self.decoded`, to seed the stripe buffer.
    ///
    /// Within each stripe the data units are probed before the parity
    /// legs: a parity slot is only reconstructable once the data holes it
    /// folds over are filled, and repairing in data-then-parity order
    /// keeps every healthy device's write pointer aligned with the slots
    /// the walk exposes.
    fn readable_prefix(&mut self, claim: u64) -> Result<u64> {
        let lz = self.lz;
        let layout = self.vol.layout;
        let su = layout.stripe_unit();
        let stripe_data = layout.stripe_data_sectors();
        // Once a healthy device's slot could not be fully repaired, its
        // physical write pointer is stuck short — later slots on it can
        // no longer be written in place (their addresses would misalign).
        let mut write_blocked = vec![false; layout.devices() as usize];
        for stripe in 0..claim.div_ceil(stripe_data) {
            let complete = claim >= (stripe + 1) * stripe_data;
            let order = (0..layout.data_units())
                .map(|k| layout.data_device(lz, stripe, k))
                .chain([layout.parity_device(lz, stripe)])
                .chain(layout.q_device(lz, stripe));
            // First sector of this stripe proven unreadable, if any.
            let mut stripe_cap: Option<u64> = None;
            self.decoded.clear();
            for dev in order {
                let unit = layout.unit_of_device(lz, stripe, dev);
                let needed = layout.slot_extent(lz, stripe, dev, claim);
                let have = self.avail(stripe, dev).unwrap_or(0).min(needed);
                if have >= needed {
                    continue;
                }
                let failed = self.vol.members.is_failed(dev as usize);
                if failed && unit.is_none() {
                    // A failed device's parity slot is neither repairable
                    // nor needed for the prefix to stay readable.
                    continue;
                }
                // Largest reconstructable prefix [have, best) of the short
                // rows: a durable prefix can be decodable from an older pp
                // snapshot even when the cached tail died with a device. Of
                // the short relocations only a parity slot's is extended
                // (its record died with the cache; settle re-logs it): later
                // probes of this stripe would not see a data unit's rows.
                let mut best = have;
                let mut repaired: Vec<u8> = Vec::new();
                let relocated = self.m.relocated.contains_key(&(lz, stripe, dev));
                if !relocated || unit.is_none() {
                    for want in (have + 1..=needed).rev() {
                        let mut out = vec![0u8; ((want - have) * SECTOR_SIZE) as usize];
                        if self.rebuild_rows(stripe, dev, (have, want), complete, &mut out)? {
                            best = want;
                            repaired = out;
                            break;
                        }
                    }
                }
                if let Some(k) = unit.filter(|_| best < needed) {
                    let pos = stripe * stripe_data + k * su + best;
                    stripe_cap = Some(stripe_cap.map_or(pos, |c| c.min(pos)));
                }
                if best > have && failed {
                    self.decoded.extend(unit.map(|k| (k, repaired)));
                } else if best > have && relocated {
                    self.relocated_parity.push((stripe, dev, have, repaired));
                } else if best > have && !write_blocked[dev as usize] {
                    // Repair in place so the exposed prefix stays directly
                    // readable on healthy devices.
                    let (pba, at) = (layout.stripe_pba(lz, stripe) + have, self.at);
                    self.devices
                        .command(at, dev as usize, Exhausted::Surface, |d| {
                            Ok(d.write(at, pba, &repaired, WriteFlags::default())?.done)
                        })?;
                    self.wp[dev as usize] = Some(stripe * su + best);
                    AtomicRaiznStats::add(&self.vol.stats.recovered_units, 1);
                }
                write_blocked[dev as usize] |= best < needed;
            }
            if let Some(c) = stripe_cap {
                return Ok(c.min(claim));
            }
        }
        Ok(claim)
    }
}

/// One parity version of a stripe as the array layer's decode sees it
/// (§5.1): each data unit as it stood at `extent` — zero past what it held
/// there — and P/Q from the complete stripe's parity slots or from the
/// replayed images of that extent. A slot the mount cannot serve for
/// `rows` is unavailable, an erasure.
struct ImageStripe<'a, 'r> {
    rec: &'a ZoneRecovery<'r>,
    stripe: u64,
    /// Data sectors of the stripe the parity was computed over.
    extent: u64,
    /// The rows `[have, needed)` being decoded.
    rows: (u64, u64),
    /// The P and Q image rows of the extent, where replayed; `None` for
    /// the complete stripe's parity slots.
    images: Option<[Option<&'a [u8]>; 2]>,
    /// Rows of data units decoded beforehand, by unit.
    known: &'a [Option<Vec<u8>>],
}

impl ImageStripe<'_, '_> {
    /// Rows of `rows` that data unit `k` held at the extent.
    fn held(&self, k: u32) -> u64 {
        let su = self.rec.vol.layout.stripe_unit();
        let (row0, end) = self.rows;
        self.extent
            .saturating_sub(u64::from(k) * su)
            .clamp(row0, end)
            - row0
    }

    fn known(&self, k: u32) -> Option<&[u8]> {
        self.known.get(k as usize).and_then(Option::as_deref)
    }
}

impl Stripe for ImageStripe<'_, '_> {
    fn role(&self, dev: u32) -> Role {
        self.rec.vol.slot_role(self.rec.lz, self.stripe, dev)
    }

    fn available(&self, dev: u32) -> bool {
        let have = self.rec.avail(self.stripe, dev).unwrap_or(0);
        match (self.role(dev), self.images) {
            (Role::Data(k), _) => {
                let held = self.held(k);
                self.known(k).is_some() || held == 0 || have >= self.rows.0 + held
            }
            (_, None) => have >= self.rows.1,
            (role, Some(legs)) => legs[usize::from(role == Role::Q)].is_some(),
        }
    }

    fn fetch(&self, at: SimTime, dev: u32, row0: u64, out: &mut [u8]) -> Result<SimTime> {
        let (rec, stripe) = (self.rec, self.stripe);
        let copy = |rows: &[u8], out: &mut [u8]| {
            out.copy_from_slice(&rows[..out.len()]);
            Ok(at)
        };
        let held = match (self.role(dev), self.images) {
            (Role::Data(k), _) => match self.known(k) {
                Some(rows) => return copy(rows, out),
                None => self.held(k),
            },
            (_, None) => return rec.fetch(stripe, dev, row0, out),
            (role, Some(legs)) => {
                let rows = legs[usize::from(role == Role::Q)].ok_or(ZnsError::DeviceFailed)?;
                return copy(&rows[(row0 * SECTOR_SIZE) as usize..], out);
            }
        };
        let (held, rest) = out.split_at_mut((held * SECTOR_SIZE) as usize);
        rest.fill(0);
        match held.is_empty() {
            true => Ok(at),
            false => rec.fetch(stripe, dev, row0, held),
        }
    }

    fn zone(&self) -> u32 {
        self.rec.lz
    }
}

/// Scans one metadata zone for records, stopping at the first invalid
/// header or truncated payload.
fn scan_md_zone(
    devices: &Roster<'_>,
    device_index: usize,
    zone: u32,
    at: SimTime,
    harvest: &mut Vec<(usize, MdRecord)>,
) -> Result<()> {
    let read = |lba: u64, out: &mut [u8]| {
        devices.command(at, device_index, Exhausted::Surface, |d| {
            Ok(d.read(at, lba, out)?.done)
        })
    };
    let info = devices.zone_info(device_index, zone)?;
    let wp = info.write_pointer - info.start;
    let start = info.start;
    let mut cursor = 0u64;
    let mut header = vec![0u8; MD_HEADER_BYTES];
    while cursor < wp {
        read(start + cursor, &mut header)?;
        let Some(payload_sectors) = MdRecord::payload_sectors(&header) else {
            break; // end of valid log
        };
        if cursor + 1 + payload_sectors > wp {
            break; // torn record (payload lost in the crash)
        }
        let mut payload = vec![0u8; (payload_sectors * SECTOR_SIZE) as usize];
        if payload_sectors > 0 {
            read(start + cursor + 1, &mut payload)?;
        }
        match MdRecord::decode(&header, &payload) {
            Ok(rec) => harvest.push((device_index, rec)),
            Err(_) => break,
        }
        cursor += 1 + payload_sectors;
    }
    Ok(())
}
