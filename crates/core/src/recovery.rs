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

use crate::config::RaiznConfig;
use crate::metadata::{MdPayload, MdRecord, MD_HEADER_BYTES};
use crate::stats::AtomicRaiznStats;
use crate::stripe::StripeBuffer;
use crate::volume::{internal, LiveMeta, MdRole, MdRoles, MetaState, RaiznVolume, RelocatedUnit};
use crate::Result;
use sim::codec::{Decode, Role};
use sim::SimTime;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
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

impl ParityImage {
    /// Data extent (sectors into the stripe) this image was computed over.
    fn extent(&self, lz: u32, stripe: u64, layout: &crate::RaiznLayout) -> u64 {
        let lgeo = layout.logical_geometry();
        (self.end_lba.saturating_sub(lgeo.zone_start(lz)))
            .saturating_sub(stripe * layout.stripe_data_sectors())
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
        let failed: Vec<usize> = devices
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_failed())
            .map(|(i, _)| i)
            .collect();
        if failed.len() > layout.parity_units() as usize {
            return Err(ZnsError::TooManyFailures {
                failed: failed.len() as u32,
                parity: layout.parity_units(),
            });
        }
        let failed_mask: u64 = failed.iter().fold(0, |m, d| m | (1u64 << d));

        // ---- 1. Scan metadata zones. -----------------------------------
        // (device, record) pairs in scan order.
        let mut harvest: Vec<(usize, MdRecord)> = Vec::new();
        for (di, dev) in devices.iter().enumerate() {
            if failed_mask & (1u64 << di) != 0 {
                continue;
            }
            for mz in 0..config.md_zones_per_device {
                scan_md_zone(dev, mz, at, di, &mut harvest)?;
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
                    if sb.num_devices as usize != devices.len()
                        || sb.stripe_unit_sectors != config.stripe_unit_sectors
                        || sb.md_zones_per_device != config.md_zones_per_device
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
                        relocated.insert(
                            key,
                            RelocatedUnit {
                                data: data.clone(),
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
        let vol = Self::assemble(devices, config, layout, gens);
        vol.failed_mask.store(failed_mask, Ordering::Release);
        {
            let devices = vol.devices.read();
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

    /// Recovers one logical zone; returns whether its generation was
    /// bumped. Holds the zone's shard and the metadata lock throughout
    /// (mount is single-threaded; the locks document the domains used).
    fn recover_zone(
        &self,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
        lz: u32,
        reset_logged: bool,
        finish_wp: Option<u64>,
        pp: &PpImages,
    ) -> Result<bool> {
        let layout = self.layout;
        let su = layout.stripe_unit();
        let d_units = layout.data_units();
        let stripe_data = layout.stripe_data_sectors();
        let phys_zone = layout.phys_zone(lz);
        let n = layout.devices();
        let mut z = self.lock_shard(lz);
        let mut meta = self.lock_meta();
        let m = &mut meta.live;

        // Per-device physical write pointers (relative), None for failed.
        let mut wp: Vec<Option<u64>> = Vec::with_capacity(n as usize);
        let mut live_full = true;
        let mut any_full = false;
        for (i, dev) in devices.iter().enumerate() {
            if self.is_failed(i) {
                wp.push(None);
            } else {
                let info = dev.zone_info(phys_zone)?;
                wp.push(Some(info.write_pointer - info.start));
                live_full &= info.state == ZoneState::Full;
                any_full |= info.state == ZoneState::Full;
            }
        }
        // Generation-filtered pp images count as content: on a degraded
        // mount the failed devices may have held every written data unit,
        // leaving the parity logs as the zone's only witnesses.
        let pp_witness = [&pp.p, &pp.q].into_iter().any(|map| {
            map.iter().any(|((z2, _), imgs)| {
                *z2 == lz
                    && imgs
                        .last()
                        .is_some_and(|img| img.covered.iter().any(|c| *c))
            })
        });
        let any_content = wp.iter().flatten().any(|w| *w > 0) || pp_witness;
        // Every surviving physical zone sealed => the logical zone was
        // finished (or filled). A finish writes the final stripe's parity
        // *prefix* into the parity slot, so the parity-presence shortcut
        // below must not be used to infer stripe completion here.
        //
        // An interrupted finish is witnessed two ways: by its WAL record
        // (written before any device seals) and by a sealed *minority* of
        // physical zones — writes fill the array's physical zones in
        // lock-step, so only a crash mid-way through the per-device
        // finish loop can leave a mixed Full / not-Full line-up (the
        // witness path also covers arrays from before the WAL existed).
        // Sealed zones reject writes until reset — leaving the logical
        // zone `Closed` would wedge it — so the finish is rolled forward
        // (the mirror image of the logged reset replay below): the zone
        // recovers as finished and the straggler devices are sealed once
        // its prefix is settled. A reset intent supersedes: you cannot
        // finish a zone after logging its reset without the replay
        // bumping the generation first.
        let finish_roll = !reset_logged && !live_full && (any_full || finish_wp.is_some());
        let finished = (live_full || any_full || finish_wp.is_some()) && any_content;

        // Replayed partial zone reset: the WAL says this zone should be
        // empty; finish the job (§5.2).
        if reset_logged && any_content {
            for (i, dev) in devices.iter().enumerate() {
                if self.is_failed(i) {
                    continue;
                }
                dev.reset_zone(at, phys_zone)?;
            }
            m.gens[lz as usize] += 1;
            m.relocated.retain(|(z2, _, _), _| *z2 != lz);
            self.sync_relocated_count(m);
            z.conflicts.clear();
            AtomicRaiznStats::add(&self.stats.zone_resets, 1);
            return Ok(true);
        }
        if !any_content {
            // Empty zone: bump the generation so any stale metadata for it
            // is invalidated (§4.3). A sealed-but-empty physical zone is a
            // finish interrupted before the zone held any data — reset the
            // sealed stragglers so the empty logical zone stays writable
            // on every device.
            if finish_roll {
                for (i, dev) in devices.iter().enumerate() {
                    if self.is_failed(i) {
                        continue;
                    }
                    dev.reset_zone(at, phys_zone)?;
                }
            }
            m.gens[lz as usize] += 1;
            m.relocated.retain(|(z2, _, _), _| *z2 != lz);
            self.sync_relocated_count(m);
            z.conflicts.clear();
            return Ok(true);
        }

        // Available sectors of the slot `dev` holds for `stripe`:
        // relocated slots count by their relocation extent.
        let avail = |m: &LiveMeta, wp: &[Option<u64>], stripe: u64, dev: u32| {
            avail_local(m, wp, lz, su, stripe, dev)
        };

        // Highest touched stripe and the intended data fill. Surviving
        // write pointers alone can understate the frontier on a degraded
        // mount: when the failed devices held the only data of the last
        // stripe, its partial-parity images (or a relocation) are the
        // only remaining witnesses.
        let max_wp = wp.iter().flatten().copied().max().unwrap_or(0);
        let mut max_stripe = max_wp.saturating_sub(1) / su;
        for map in [&pp.p, &pp.q] {
            for ((z2, s), imgs) in map.iter() {
                let witnessed = imgs
                    .last()
                    .is_some_and(|img| img.covered.iter().any(|c| *c));
                if *z2 == lz && witnessed {
                    max_stripe = max_stripe.max(*s);
                }
            }
        }
        for ((z2, s, _), rel) in m.relocated.iter() {
            if *z2 == lz && rel.valid > 0 {
                max_stripe = max_stripe.max(*s);
            }
        }
        let parity_dev = layout.parity_device(lz, max_stripe);
        let last_parity = if finished {
            0 // ignore the finish-written parity prefix
        } else {
            // Either parity leg witnesses stripe completion: in a degraded
            // dual-parity mount the P holder may be the failed device.
            let p = avail(m, &wp, max_stripe, parity_dev).unwrap_or(0);
            let q = layout
                .q_device(lz, max_stripe)
                .and_then(|qd| avail(m, &wp, max_stripe, qd))
                .unwrap_or(0);
            p.max(q)
        };
        let mut fill = if last_parity > 0 {
            // Parity present => the last stripe was completed.
            (max_stripe + 1) * stripe_data
        } else {
            let mut f = max_stripe * stripe_data;
            for k in 0..d_units {
                let dev = layout.data_device(lz, max_stripe, k);
                if let Some(a) = avail(m, &wp, max_stripe, dev) {
                    if a > 0 {
                        f = f.max(max_stripe * stripe_data + k * su + a);
                    }
                }
            }
            // Partial-parity logs may witness a higher extent than any
            // surviving device (degraded mounts) — either leg will do.
            let lgeo = layout.logical_geometry();
            for map in [&pp.p, &pp.q] {
                if let Some(img) = map.get(&(lz, max_stripe)).and_then(|v| v.last()) {
                    f = f.max(img.end_lba.saturating_sub(lgeo.zone_start(lz)));
                }
            }
            f
        };
        // The finish WAL is authoritative for sealed zones: it records
        // the exact fill at seal time, which the surviving-extent
        // heuristics above can only understate when the devices holding
        // the final stripe's data are among the failed (a sealed zone's
        // parity-prefix slot cannot distinguish a complete final stripe
        // from a prefix, so it never witnesses completion).
        if finished {
            if let Some(w) = finish_wp {
                fill = fill.max(w);
            }
        }

        // Repair pass: walk stripes, rebuilding missing unit suffixes.
        // Finished zones are sealed (no repair writes possible); their
        // readable prefix is served as-is, reconstructing on demand.
        let mut rollback: Option<u64> = None;
        let repair_limit = if finished { 0 } else { max_stripe + 1 };
        'stripes: for stripe in 0..repair_limit {
            let complete = fill >= (stripe + 1) * stripe_data;
            for dev in 0..n {
                let unit = layout.unit_of_device(lz, stripe, dev);
                let needed = layout.slot_extent(lz, stripe, dev, fill);
                let have = avail(m, &wp, stripe, dev).unwrap_or(0);
                if have >= needed {
                    continue;
                }
                let failed = self.is_failed(dev as usize);
                if failed && unit.is_none() {
                    // A failed device's parity slot is neither repairable
                    // nor needed for the prefix to stay readable.
                    continue;
                }
                // Stripe hole: rebuild rows [have, needed) of this slot.
                // For a failed device's data slot this is a probe only —
                // no repair write is possible, but the rows must still be
                // reconstructable or the zone has to roll back (a cached
                // tail can die with its device).
                let rows = needed - have;
                let mut out = vec![0u8; (rows * SECTOR_SIZE) as usize];
                let avail_now = wp.clone();
                let ok = self.rebuild_rows(
                    m, devices, at, lz, stripe, dev, have, needed, complete, pp, &avail_now,
                    &mut out,
                )?;
                if !ok {
                    rollback = Some(self.readable_prefix(m, devices, at, lz, &mut wp, pp, fill)?);
                    break 'stripes;
                }
                if failed {
                    continue;
                }
                // Write the recovered rows at the device's write pointer.
                let pba = layout.stripe_pba(lz, stripe) + have;
                devices[dev as usize].write(at, pba, &out, WriteFlags::default())?;
                if let Some(w) = wp.get_mut(dev as usize).and_then(|w| w.as_mut()) {
                    *w = stripe * su + needed;
                }
                AtomicRaiznStats::add(&self.stats.recovered_units, 1);
            }
        }

        if let Some(r) = rollback {
            fill = r;
        }

        // Seed the stripe buffer for an incomplete final stripe. This runs
        // BEFORE the ghost sweep: reconstruction may need rolled-back rows
        // still sitting on healthy devices as fold sources (they are
        // consistent with the pre-rollback parity that folds them), and the
        // sweep is about to mask those slots behind empty relocations.
        if fill % stripe_data != 0 {
            let stripe = fill / stripe_data;
            let mut buf = StripeBuffer::with_parity(stripe, d_units, su, layout.parity_units());
            let in_stripe = fill % stripe_data;
            let mut staged = vec![0u8; (in_stripe * SECTOR_SIZE) as usize];
            // Fetch every reachable unit first; collect the rest. Degraded
            // mounts reconstruct them from the parity slots and the
            // partial-parity images ("up to one stripe buffer ... per open
            // logical zone", §5.1) — one unit from the P leg, two from P
            // and Q jointly.
            let mut missing: Vec<u64> = Vec::new();
            let mut cursor = 0u64;
            while cursor < in_stripe {
                let k = cursor / su;
                let row0 = cursor % su;
                let rows = (su - row0).min(in_stripe - cursor);
                let dev = layout.data_device(lz, stripe, k);
                let off = (cursor * SECTOR_SIZE) as usize;
                if m.relocated.contains_key(&(lz, stripe, dev)) || !self.is_failed(dev as usize) {
                    let out = &mut staged[off..off + (rows * SECTOR_SIZE) as usize];
                    self.fetch_slot_rows(Some(m), devices, at, lz, stripe, dev, row0, out)?;
                } else {
                    missing.push(k);
                }
                cursor += rows;
            }
            if missing.len() > layout.parity_units() as usize {
                return Err(ZnsError::InvalidArgument(format!(
                    "degraded mount: {} data units of zone {lz} stripe {stripe} \
                     unreachable, parity tolerates {}",
                    missing.len(),
                    layout.parity_units()
                )));
            }
            // Decode each missing unit's staged rows through the shared
            // reconstruction kernel: it tries the physical parity slots
            // (the stripe may have completed in cache before the rollback),
            // the pp image snapshots, and two-erasure combinations of both.
            // A finished zone's parity slot holds a parity *prefix*, not
            // full-stripe parity, and a ZRWA slot tracks the in-place fill
            // — the slot-candidate extent is wrong for both, so candidates
            // stay image-only there.
            let slots_usable = !finished && !self.config.use_zrwa;
            for &j in &missing {
                let jw = (in_stripe.saturating_sub(j * su)).min(su);
                let jdev = layout.data_device(lz, stripe, j);
                let mut out = vec![0u8; (jw * SECTOR_SIZE) as usize];
                let ok = self.rebuild_rows(
                    m,
                    devices,
                    at,
                    lz,
                    stripe,
                    jdev,
                    0,
                    jw,
                    slots_usable,
                    pp,
                    &wp,
                    &mut out,
                )?;
                if !ok {
                    return Err(ZnsError::InvalidArgument(format!(
                        "degraded mount: no usable partial parity for zone {lz} stripe {stripe}"
                    )));
                }
                let off = (j * su * SECTOR_SIZE) as usize;
                staged[off..off + out.len()].copy_from_slice(&out);
            }
            buf.fill(&staged);
            z.buffer = Some(buf);
        }

        // Consistency sweep: every device's physical extent must match what
        // the final logical write pointer implies, or the excess becomes a
        // conflicted "ghost" slot whose future writes are relocated. This
        // covers rollback ghosts and repairs that landed before a later
        // rollback alike. Finished zones accept no writes until reset, so
        // no conflicts (or padding) are needed there.
        for dev in 0..if finished { 0 } else { n } {
            if self.is_failed(dev as usize) {
                continue;
            }
            let w = wp[dev as usize].unwrap_or(0);
            if w == 0 {
                continue;
            }
            let mut ghost = false;
            for stripe in 0..=max_stripe {
                let have = (w.saturating_sub(stripe * su)).min(su);
                if have == 0 {
                    break;
                }
                if m.relocated.contains_key(&(lz, stripe, dev)) {
                    continue; // already a conflicted slot from a past session
                }
                if have > layout.slot_extent(lz, stripe, dev, fill) {
                    z.conflicts.insert((stripe, dev));
                    // Record the conflict as an (empty) relocation so it
                    // survives future mounts: the padded ghost slot would
                    // otherwise masquerade as valid data next time.
                    m.relocated
                        .entry((lz, stripe, dev))
                        .or_insert_with(|| RelocatedUnit {
                            data: vec![0u8; (su * SECTOR_SIZE) as usize],
                            valid: 0,
                        });
                    ghost = true;
                }
            }
            // Pad a mid-unit ghost frontier to the next unit boundary so
            // later slots keep their arithmetic addresses.
            if ghost {
                let pad_to = w.div_ceil(su) * su;
                if pad_to > w {
                    let zeros = vec![0u8; ((pad_to - w) * SECTOR_SIZE) as usize];
                    let pba = layout.phys_geometry().zone_start(phys_zone) + w;
                    devices[dev as usize].write(at, pba, &zeros, WriteFlags::default())?;
                }
            }
        }
        self.sync_relocated_count(m);

        let z_wp = fill;
        let lgeo = layout.logical_geometry();
        z.wp = z_wp;
        self.zone_wp[lz as usize].store(z_wp, Ordering::Release);
        z.state = if z_wp == 0 {
            ZoneState::Empty
        } else if finished || z_wp == lgeo.zone_cap() {
            ZoneState::Full
        } else {
            ZoneState::Closed
        };
        // Complete an interrupted finish: seal the straggler devices
        // (idempotent on the already-Full ones) so the device-level zone
        // states agree with the recovered logical seal and no physical
        // zone is pinned active under a Full logical zone. The fills pad
        // each straggler's unwritten remainder at the modeled cost.
        if finish_roll {
            for (i, dev) in devices.iter().enumerate() {
                if self.is_failed(i) {
                    continue;
                }
                if z.state == ZoneState::Full {
                    dev.finish_zone(at, phys_zone)?;
                } else {
                    // The recovered prefix collapsed to empty: undo the
                    // partial seal instead so the zone stays writable.
                    dev.reset_zone(at, phys_zone)?;
                }
            }
            if z.state == ZoneState::Full {
                AtomicRaiznStats::add(&self.stats.zone_finishes, 1);
                AtomicRaiznStats::add(&self.stats.finish_rollforwards, 1);
            }
        }
        // Any Full zone keeps (or gains) a checkpointed finish WAL: the
        // next metadata GC re-logs the recovered fill, so it stays
        // durable even for witness-rolled or naturally filled zones.
        if z.state == ZoneState::Full {
            self.zone_sealed[lz as usize].store(true, Ordering::Release);
        }
        // Post-crash, everything on media is durable.
        z.pbitmap.mark_persisted_below(z_wp);
        Ok(false)
    }

    /// Attempts to rebuild rows `[have, needed)` of the slot `dev` holds
    /// for `(lz, stripe)`. Returns `Ok(false)` when reconstruction is
    /// impossible (triggering rollback).
    ///
    /// Parity sources are the full parity slots (complete stripes) or the
    /// partial-parity images replayed from the logs; in dual-parity mode
    /// the Reed–Solomon Q leg lets the repair decode around one *more*
    /// unavailable slot (a second failed device or a second stripe hole).
    #[allow(clippy::too_many_arguments)]
    fn rebuild_rows(
        &self,
        m: &LiveMeta,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
        lz: u32,
        stripe: u64,
        dev: u32,
        have: u64,
        needed: u64,
        complete: bool,
        pp: &PpImages,
        wp: &[Option<u64>],
        out: &mut [u8],
    ) -> Result<bool> {
        let layout = self.layout;
        let su = layout.stripe_unit();
        let d_units = layout.data_units();
        let rows = needed - have;
        let row0 = have;
        let bytes = (rows * SECTOR_SIZE) as usize;
        let avail = |m: &LiveMeta, stripe: u64, dev: u32| avail_local(m, wp, lz, su, stripe, dev);
        let pdev = layout.parity_device(lz, stripe);
        let qdev = layout.q_device(lz, stripe);

        // Load every usable version of one parity leg for rows
        // [row0, needed): the parity slot of a complete stripe first, then
        // the replayed pp image snapshots, newest extent first. Each
        // candidate carries the data extent its parity was computed over —
        // an older (smaller-extent) snapshot can be the only decodable one
        // when a unit staged after it died with its device.
        let leg_candidates = |leg_dev: u32,
                              imgs: Option<&Vec<ParityImage>>|
         -> Result<Vec<(Vec<u8>, u64)>> {
            let mut cands = Vec::new();
            if complete && avail(m, stripe, leg_dev).unwrap_or(0) >= needed.min(su) {
                let mut buf = vec![0u8; bytes];
                self.fetch_slot_rows(Some(m), devices, at, lz, stripe, leg_dev, row0, &mut buf)?;
                cands.push((buf, layout.stripe_data_sectors()));
            }
            for img in imgs.into_iter().flatten().rev() {
                if (row0..needed).all(|r| img.covered[r as usize]) {
                    let buf = img.rows
                        [(row0 * SECTOR_SIZE) as usize..(needed * SECTOR_SIZE) as usize]
                        .to_vec();
                    cands.push((buf, img.extent(lz, stripe, &layout)));
                }
            }
            Ok(cands)
        };

        // Data units short of `irows` rows at extent `fill`, excluding
        // `skip` (the unit being rebuilt, if any).
        let missing_at = |fill: u64, skip: Option<u64>| -> Vec<u64> {
            (0..d_units)
                .filter(|i| Some(*i) != skip)
                .filter(|&i| {
                    let written = fill.saturating_sub(i * su).min(su);
                    let irows = written.saturating_sub(row0).min(rows);
                    irows > 0
                        && avail(m, stripe, layout.data_device(lz, stripe, i)).unwrap_or(0)
                            < row0 + irows
                })
                .collect()
        };

        // Fold every available data unit (except `skips`) into the
        // syndromes of `plan`, zero-extended past each unit's written
        // extent at `fill`.
        let mut tmp = vec![0u8; bytes];
        let mut aux = vec![0u8; bytes];
        let absorb_data = |plan: &Decode,
                           out: &mut [u8],
                           aux: &mut [u8],
                           tmp: &mut Vec<u8>,
                           fill: u64,
                           skips: &[u64]|
         -> Result<()> {
            for i in 0..d_units {
                if skips.contains(&i) {
                    continue;
                }
                let written = fill.saturating_sub(i * su).min(su);
                let irows = written.saturating_sub(row0).min(rows);
                if irows == 0 {
                    continue;
                }
                let idev = layout.data_device(lz, stripe, i);
                tmp.fill(0);
                self.fetch_slot_rows(
                    Some(m),
                    devices,
                    at,
                    lz,
                    stripe,
                    idev,
                    row0,
                    &mut tmp[..(irows * SECTOR_SIZE) as usize],
                )?;
                plan.absorb(Role::Data(i as u32), tmp, out, aux);
            }
            Ok(())
        };
        // The codec never decodes a slot against itself.
        let plan_of = |target: Role, other: Option<Role>| {
            Decode::new(target, other).ok_or_else(|| internal("duplicate role in erasure set"))
        };

        match layout.unit_of_device(lz, stripe, dev) {
            // ---- Rebuilding a parity slot (P or Q). ----------------------
            None => {
                // With every data unit in hand (fetched, or recovered
                // below) the parity syndrome is the slot itself.
                let plan = plan_of(if qdev == Some(dev) { Role::Q } else { Role::P }, None)?;
                let fill = layout.stripe_data_sectors(); // parity slots exist only complete
                let missing = missing_at(fill, None);
                plan.begin(out, &mut aux);
                absorb_data(&plan, out, &mut aux, &mut tmp, fill, &missing)?;
                // Data units that are gone too: recover each one through
                // the full data-unit machinery (the other parity leg,
                // lower-extent pp snapshots, or a two-erasure solve), then
                // fold them in. Depth is bounded: the data arm never
                // recurses.
                for &k in &missing {
                    let kdev = layout.data_device(lz, stripe, k);
                    let mut dk = vec![0u8; bytes];
                    let ok = self.rebuild_rows(
                        m, devices, at, lz, stripe, kdev, have, needed, complete, pp, wp, &mut dk,
                    )?;
                    if !ok {
                        return Ok(false);
                    }
                    plan.absorb(Role::Data(k as u32), &dk, out, &mut aux);
                }
                Ok(true)
            }
            // ---- Rebuilding a data unit. ---------------------------------
            Some(j) => {
                let target = Role::Data(j as u32);
                let p_cands = leg_candidates(pdev, pp.p.get(&(lz, stripe)))?;
                let q_cands = match qdev {
                    Some(qd) => leg_candidates(qd, pp.q.get(&(lz, stripe)))?,
                    None => Vec::new(),
                };
                // Single-erasure via P, then via Q (decoding as if P were
                // the second loss): the leg plus every other unit.
                for (cands, leg, other) in [
                    (&p_cands, Role::P, None),
                    (&q_cands, Role::Q, Some(Role::P)),
                ] {
                    for (buf, extent) in cands {
                        if j * su + needed <= *extent && missing_at(*extent, Some(j)).is_empty() {
                            let plan = plan_of(target, other)?;
                            plan.begin(out, &mut aux);
                            plan.absorb(leg, buf, out, &mut aux);
                            absorb_data(&plan, out, &mut aux, &mut tmp, *extent, &[j])?;
                            plan.finish(out, &aux);
                            return Ok(true);
                        }
                    }
                }
                // Two-erasure: both legs at the same data extent, exactly
                // one other unit missing there.
                for (pbuf, ep) in &p_cands {
                    for (qbuf, eq) in &q_cands {
                        if ep != eq || j * su + needed > *ep {
                            continue;
                        }
                        let missing = missing_at(*ep, Some(j));
                        let [k] = missing.as_slice() else {
                            continue;
                        };
                        let k = *k;
                        let plan = plan_of(target, Some(Role::Data(k as u32)))?;
                        plan.begin(out, &mut aux);
                        plan.absorb(Role::P, pbuf, out, &mut aux);
                        plan.absorb(Role::Q, qbuf, out, &mut aux);
                        absorb_data(&plan, out, &mut aux, &mut tmp, *ep, &[j, k])?;
                        // Rows where unit k holds data need the 2x2 solve;
                        // rows past its written extent see D_k == 0, so the
                        // P syndrome (`aux`) is D_j there outright
                        // (staggered fill, §5.1).
                        let written_k = ep.saturating_sub(k * su).min(su);
                        let krows = written_k.saturating_sub(row0).min(rows);
                        let kb = (krows * SECTOR_SIZE) as usize;
                        plan.finish(&mut out[..kb], &aux[..kb]);
                        out[kb..].copy_from_slice(&aux[kb..]);
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }

    /// The longest prefix of the logical zone in which every sector is
    /// readable — directly or by reconstruction within the parity
    /// headroom — used as the rollback point after an irreparable slot.
    ///
    /// Reconstructable holes on healthy devices below the returned prefix
    /// are repaired in place (the main repair pass stops at the first
    /// irreparable slot, possibly leaving later reconstructable holes
    /// behind); holes on failed devices are left to the degraded read
    /// path. Without the reconstruction probe, a degraded dual-parity
    /// mount would roll back below durable data merely because the failed
    /// devices' slots are not directly readable.
    ///
    /// Within each stripe the data units are probed before the parity
    /// legs: a parity slot is only reconstructable once the data holes it
    /// folds over are filled, and repairing in data-then-parity order
    /// keeps every healthy device's write pointer aligned with the slots
    /// the walk exposes.
    #[allow(clippy::too_many_arguments)]
    fn readable_prefix(
        &self,
        m: &LiveMeta,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
        lz: u32,
        wp: &mut [Option<u64>],
        pp: &PpImages,
        fill: u64,
    ) -> Result<u64> {
        let layout = self.layout;
        let su = layout.stripe_unit();
        let stripe_data = layout.stripe_data_sectors();
        // Once a healthy device's slot could not be fully repaired, its
        // physical write pointer is stuck short — later slots on it can
        // no longer be written in place (their addresses would misalign).
        let mut write_blocked = vec![false; layout.devices() as usize];
        let mut stripe = 0u64;
        loop {
            let stripe_fill = (fill.saturating_sub(stripe * stripe_data)).min(stripe_data);
            if stripe_fill == 0 {
                return Ok(fill);
            }
            let complete = stripe_fill == stripe_data;
            let mut order: Vec<u32> = (0..layout.data_units())
                .map(|k| layout.data_device(lz, stripe, k))
                .collect();
            order.push(layout.parity_device(lz, stripe));
            order.extend(layout.q_device(lz, stripe));
            // First sector of this stripe proven unreadable, if any.
            let mut stripe_cap: Option<u64> = None;
            for dev in order {
                let unit = layout.unit_of_device(lz, stripe, dev);
                let needed = layout.slot_extent(lz, stripe, dev, fill);
                let have = avail_local(m, wp, lz, su, stripe, dev)
                    .unwrap_or(0)
                    .min(needed);
                if have >= needed {
                    continue;
                }
                let mut cap = |k: u64, rows: u64| {
                    let pos = stripe * stripe_data + k * su + rows;
                    stripe_cap = Some(stripe_cap.map_or(pos, |c| c.min(pos)));
                };
                if m.relocated.contains_key(&(lz, stripe, dev)) {
                    // A short relocation cannot be extended here.
                    if let Some(k) = unit {
                        cap(k, have);
                    }
                    write_blocked[dev as usize] = true;
                    continue;
                }
                // Largest reconstructable prefix [have, best) of the short
                // rows: a durable prefix can be decodable from an older pp
                // snapshot even when the cached tail died with a device.
                let avail_now: Vec<Option<u64>> = wp.to_vec();
                let mut best = have;
                let mut repaired: Vec<u8> = Vec::new();
                for want in (have + 1..=needed).rev() {
                    let mut out = vec![0u8; ((want - have) * SECTOR_SIZE) as usize];
                    let ok = self.rebuild_rows(
                        m, devices, at, lz, stripe, dev, have, want, complete, pp, &avail_now,
                        &mut out,
                    )?;
                    if ok {
                        best = want;
                        repaired = out;
                        break;
                    }
                }
                if best < needed {
                    if let Some(k) = unit {
                        cap(k, best);
                    }
                }
                let failed = self.is_failed(dev as usize);
                if !failed && !write_blocked[dev as usize] && best > have {
                    // Repair in place so the exposed prefix stays directly
                    // readable on healthy devices.
                    let pba = layout.stripe_pba(lz, stripe) + have;
                    devices[dev as usize].write(at, pba, &repaired, WriteFlags::default())?;
                    if let Some(w) = wp.get_mut(dev as usize).and_then(|w| w.as_mut()) {
                        *w = stripe * su + best;
                    }
                    AtomicRaiznStats::add(&self.stats.recovered_units, 1);
                }
                if best < needed {
                    write_blocked[dev as usize] = true;
                }
            }
            if let Some(c) = stripe_cap {
                return Ok(c.min(fill));
            }
            stripe += 1;
        }
    }

    /// §5.2 maintenance: when a logical zone holds more relocated stripe
    /// units on one device than the configured threshold, the physical
    /// zone on that device is rewritten — contents are bounced through a
    /// swap zone, the zone is reset, and everything is written back with
    /// each relocated unit restored to its arithmetic slot.
    pub(crate) fn rewrite_overloaded_zones(
        &self,
        devices: &[Arc<ZnsDevice>],
        at: SimTime,
    ) -> Result<()> {
        let threshold = self.config.relocation_threshold;
        let mut targets: Vec<(u32, u32)> = {
            let m = self.lock_meta();
            let mut counts: HashMap<(u32, u32), usize> = HashMap::new();
            for (lz, _stripe, dev) in m.live.relocated.keys() {
                *counts.entry((*lz, *dev)).or_default() += 1;
            }
            counts
                .into_iter()
                .filter(|(_, c)| *c > threshold)
                .map(|(k, _)| k)
                .collect()
        };
        targets.sort_unstable();
        for (lz, dev) in targets {
            if self.is_failed(dev as usize) {
                continue;
            }
            self.rewrite_zone_on_device(devices, at, lz, dev)?;
        }
        Ok(())
    }

    fn rewrite_zone_on_device(
        &self,
        devices: &[Arc<ZnsDevice>],
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
                devices[dev as usize].read(
                    at,
                    phys_start + stripe * su,
                    &mut corrected[off..off + bytes],
                )?;
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
        let device = devices[dev as usize].clone();
        let mut t = at;
        if !corrected.is_empty() {
            let c = device.append(t, swap, &corrected, WriteFlags::default())?;
            t = device.flush(c.done)?.done;
        }
        t = device.reset_zone(t, phys_zone)?.done;
        if !corrected.is_empty() {
            let c = device.write(t, phys_start, &corrected, WriteFlags::default())?;
            t = device.flush(c.done)?.done;
        }
        device.reset_zone(t, swap)?;

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
    fn mount_refresh_metadata(&self, devices: &[Arc<ZnsDevice>], at: SimTime) -> Result<()> {
        self.sync_pp_snapshots();
        let mdz = self.layout.md_zones();
        let mut m = self.lock_meta();
        let MetaState { log, live, .. } = &mut *m;
        for dev in 0..devices.len() {
            if self.is_failed(dev) {
                continue;
            }
            // Choose the md zone with the most free space as the new
            // general zone.
            let mut best = 0u32;
            let mut best_free = 0u64;
            for mz in 0..mdz {
                let info = devices[dev].zone_info(mz)?;
                let free = info.remaining();
                if free >= best_free {
                    best = mz;
                    best_free = free;
                }
            }
            let others: Vec<u32> = (0..mdz).filter(|z| *z != best).collect();
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
            devices[dev].flush(t)?;
            // Reset the other metadata zones.
            for mz in others {
                let info = devices[dev].zone_info(mz)?;
                if info.write_pointer > info.start {
                    devices[dev].reset_zone(t, mz)?;
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

/// Slot availability shared by the repair helpers.
fn avail_local(
    m: &LiveMeta,
    wp: &[Option<u64>],
    lz: u32,
    su: u64,
    stripe: u64,
    dev: u32,
) -> Option<u64> {
    if let Some(rel) = m.relocated.get(&(lz, stripe, dev)) {
        return Some(rel.valid);
    }
    wp[dev as usize].map(|w| w.saturating_sub(stripe * su).min(su))
}

/// Scans one metadata zone for records, stopping at the first invalid
/// header or truncated payload.
fn scan_md_zone(
    dev: &Arc<ZnsDevice>,
    zone: u32,
    at: SimTime,
    device_index: usize,
    harvest: &mut Vec<(usize, MdRecord)>,
) -> Result<()> {
    let info = dev.zone_info(zone)?;
    let wp = info.write_pointer - info.start;
    let start = info.start;
    let mut cursor = 0u64;
    let mut header = vec![0u8; MD_HEADER_BYTES];
    while cursor < wp {
        dev.read(at, start + cursor, &mut header)?;
        let Some(payload_sectors) = MdRecord::payload_sectors(&header) else {
            break; // end of valid log
        };
        if cursor + 1 + payload_sectors > wp {
            break; // torn record (payload lost in the crash)
        }
        let mut payload = vec![0u8; (payload_sectors * SECTOR_SIZE) as usize];
        if payload_sectors > 0 {
            dev.read(at, start + cursor + 1, &mut payload)?;
        }
        match MdRecord::decode(&header, &payload) {
            Ok(rec) => harvest.push((device_index, rec)),
            Err(_) => break,
        }
        cursor += 1 + payload_sectors;
    }
    Ok(())
}
