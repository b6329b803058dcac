//! Tests of invariants only the engine's internals can set up.

use super::*;
use fwdmap::FwdMap;
use sim::SimRng;
use zns::array::{DEVICE_ERROR_BUDGET, TRANSIENT_RETRY_LIMIT};
use zns::{FaultOp, FaultPlan, LatencyConfig, ZnsConfig};

const T0: SimTime = SimTime::ZERO;

/// Accounting-only devices: nothing here reads data back.
fn devices(zone_sectors: u64) -> Vec<Arc<ZnsDevice>> {
    (0..5)
        .map(|_| {
            Arc::new(ZnsDevice::new(
                ZnsConfig::builder()
                    .zones(16, zone_sectors, zone_sectors)
                    .open_limits(8, 12)
                    .latency(LatencyConfig::instant())
                    .store_data(false)
                    .build(),
            ))
        })
        .collect()
}

/// The worst case the headroom is sized for: the slot is as full as a
/// commit may leave it, every stream sits mid-stripe, and the largest
/// foreground write — a whole logical zone, entered mid-stripe — seals
/// its stripes and finds no room for their summary. The rotation must
/// fit that batch plus its own three pad-seal entries into what is left
/// of the old slot.
#[test]
fn headroom_covers_a_rotations_own_batch() {
    let vol = LsVolume::format(devices(1024), LsConfig::default(), T0).unwrap();
    let cap = vol.phys.zone_cap();
    let zone = vol.geo.zone_cap();
    let sector = vec![0x5Au8; SECTOR_SIZE as usize];
    let mut inner = vol.inner.lock();
    let inner = &mut *inner;
    for (stream, lzone) in [(HOT, 0u64), (COLD, 2), (COLD + 1, 3)] {
        vol.log_data(inner, T0, &sector, LogMode::User, lzone * zone, stream)
            .unwrap();
    }
    // One-sector records up to the brink: one more would rotate.
    while !vol.slot_full(inner, 1) {
        vol.commit_record(inner, T0, kind::ZONE_FINISH, |_, buf| put_u32(buf, 7))
            .unwrap();
    }
    assert_eq!(inner.meta.epoch, 1);
    let brink = inner.meta.used;
    assert_eq!(brink + vol.meta_headroom, cap);

    let data = vec![0xA5u8; (zone * SECTOR_SIZE) as usize];
    vol.log_data(inner, T0, &data, LogMode::User, zone, HOT)
        .unwrap();
    assert_eq!(inner.meta.epoch, 2, "the write's summary had to rotate");
    assert!(!inner.meta.has_staged());
    // 16 stripes sealed by the write, one pad-seal per stream.
    let batch = meta::record_sectors(19 * meta::summary_entry_bytes(vol.kd as usize));
    assert_eq!(batch, vol.meta_headroom, "the case is the tight one");
    let devices = vol.members.read();
    for dev in 0..vol.meta_devices() {
        assert_eq!(devices.zone_info(dev, 0).unwrap().written(), brink + batch);
    }
    assert_eq!(inner.c_pads, 3 * (vol.kd - 1));
}

/// A reclaimed group goes back to the pool with the state `open_group`
/// relies on and no longer resets: no valid sectors, a reverse map with
/// no live slot and no run.
#[test]
fn reopened_group_starts_with_an_empty_reverse_map() {
    let vol = LsVolume::format(devices(64), LsConfig::default(), T0).unwrap();
    let group = vol.group_cap;
    let data = vec![0xC3u8; (vol.geo.zone_cap() * SECTOR_SIZE) as usize];
    let mut inner = vol.inner.lock();
    let inner = &mut *inner;
    // Fill the first hot group with four logical zones, then overwrite
    // them: every slot of that group is mapped once and garbage after.
    for pass in 0..2 {
        for lba in (0..group).step_by(data.len() / SECTOR_SIZE as usize) {
            vol.log_data(inner, T0, &data, LogMode::User, lba, HOT)
                .unwrap();
        }
        assert_eq!(inner.groups[0].valid, if pass == 0 { group } else { 0 });
    }
    assert_eq!(inner.groups[0].state, GState::Sealed);
    vol.reclaim_inner(inner, T0, 0).unwrap();
    assert_eq!(inner.groups[0].state, GState::Free);
    let rev = &inner.groups[0].rev;
    assert_eq!((rev.live_count(), rev.run_count()), (0, 0));
    // The pool is a stack: the next open takes the group just freed.
    let (g, _) = vol.open_group(inner, T0, COLD).unwrap();
    assert_eq!(g, 0);
    let grp = &inner.groups[0];
    assert_eq!(grp.state, GState::Open(COLD as u8));
    assert_eq!((grp.valid, grp.fill, grp.sealed), (0, 0, 0));
    assert_eq!((grp.rev.live_count(), grp.rev.run_count()), (0, 0));
}

/// A reclaimed group hands its reverse-map runs vector back, and the
/// next group opened records into the longest one kept: runs allocate
/// only past the most any group has held.
#[test]
fn an_opened_group_takes_the_longest_spare_runs() {
    let vol = LsVolume::format(devices(64), LsConfig::default(), T0).unwrap();
    let group = vol.group_cap;
    let sector = vec![0x1Eu8; SECTOR_SIZE as usize];
    let run = vec![0xE1u8; (group * SECTOR_SIZE) as usize];
    let mut inner = vol.inner.lock();
    let inner = &mut *inner;
    let log = |inner: &mut LsInner, data: &[u8], lba: u64| {
        vol.log_data(inner, T0, data, LogMode::User, lba, HOT)
            .unwrap();
    };
    // Group 0: every other sector, a run each. Groups 1 and 2: one run
    // each, which leaves group 0 garbage; group 3 leaves group 1 so.
    for i in 0..group {
        log(inner, &sector, 2 * i);
    }
    for lba in [0, group, 0] {
        log(inner, &run, lba);
    }
    let long = inner.groups[0].rev.runs_capacity();
    let short = inner.groups[1].rev.runs_capacity();
    assert!(long >= group as usize && short < long);
    vol.reclaim_inner(inner, T0, 0).unwrap();
    vol.reclaim_inner(inner, T0, 1).unwrap();
    assert_eq!(
        inner.groups[1].rev.runs_capacity(),
        0,
        "a free group holds none"
    );
    assert_eq!(inner.spare_runs.len(), 2);

    // The pool is a stack: group 1 opens next, with group 0's vector.
    let (g, _) = vol.open_group(inner, T0, HOT).unwrap();
    assert_eq!(g, 1);
    assert_eq!(inner.groups[1].rev.runs_capacity(), long);
    assert_eq!(inner.groups[1].rev.run_count(), 0);
    assert_eq!(inner.spare_runs.len(), 1);
    assert_eq!(inner.spare_runs[0].capacity(), short);
}

/// Each stream's stage in bytes (capacity: what the stage holds).
fn stage_bytes(vol: &LsVolume) -> Vec<usize> {
    vol.inner.lock().stages.iter().map(Vec::capacity).collect()
}

/// Whole-stripe appends seal from the caller's slice: no stream's stage
/// is ever sized, and no inline collection sized the bounce buffer.
#[test]
fn whole_stripe_appends_leave_every_stage_unallocated() {
    let vol = LsVolume::format(devices(1024), LsConfig::default(), T0).unwrap();
    let stripe = vec![0x77u8; (vol.kd * SECTOR_SIZE) as usize];
    for i in 0..2 * vol.s {
        vol.write(T0, i * vol.kd, &stripe, WriteFlags::default())
            .unwrap();
    }
    assert_eq!(vol.stats().user_sectors, 2 * vol.s * vol.kd);
    assert_eq!(stage_bytes(&vol), [0; STREAMS]);
    assert_eq!(vol.inner.lock().gc_buf.capacity(), 0);
}

/// A 64 KiB append (a quarter of a stripe) is copied into its stream's
/// stage, which is sized to one stripe; the other streams hold none.
#[test]
fn a_64k_append_sizes_exactly_its_streams_stage() {
    let vol = LsVolume::format(devices(1024), LsConfig::default(), T0).unwrap();
    let unit = vec![0x88u8; 64 << 10];
    vol.write(T0, 0, &unit, WriteFlags::default()).unwrap();
    let stripe = (vol.kd * SECTOR_SIZE) as usize;
    assert!(stripe > unit.len());
    assert_eq!(stage_bytes(&vol), [stripe, 0, 0]);
}

/// The reverse map's memory follows the writes, not the slots: 1 MiB
/// writes fill a group with at most one run each, sequential or not.
#[test]
fn reverse_map_holds_a_run_per_megabyte_write() {
    const MIB: u64 = (1 << 20) / SECTOR_SIZE;
    let vol = LsVolume::format(devices(1024), LsConfig::default(), T0).unwrap();
    let data = vec![0x3Cu8; (MIB * SECTOR_SIZE) as usize];
    let sectors = u64::from(vol.geo.num_zones()) * vol.geo.zone_cap();
    let mut rng = SimRng::new(0x4E5);
    let mut inner = vol.inner.lock();
    let inner = &mut *inner;
    let shape = |inner: &LsInner, what: &str| {
        for (g, grp) in inner.groups.iter().enumerate() {
            let fill = grp.sealed * vol.kd + grp.fill;
            let runs = grp.rev.run_count() as u64;
            assert!(
                runs <= fill / MIB + 1,
                "{what}: group {g}: {runs} runs over {fill} slots"
            );
        }
    };
    // Sequential: the whole fill is one run.
    for lba in (0..vol.group_cap).step_by(MIB as usize) {
        vol.log_data(inner, T0, &data, LogMode::User, lba, HOT)
            .unwrap();
        shape(inner, "sequential");
    }
    assert_eq!(inner.groups[0].rev.run_count(), 1);
    // Overwrites at random 1 MiB-aligned sectors: a run per write.
    for _ in 0..2 * vol.group_cap / MIB {
        let lba = rng.gen_range(sectors / MIB) * MIB;
        vol.log_data(inner, T0, &data, LogMode::User, lba, HOT)
            .unwrap();
        shape(inner, "overwrite");
    }
}

/// Every non-free group's `(slot, lba)` pairs, read off the forward map.
fn forward_pairs(vol: &LsVolume, inner: &LsInner) -> Vec<Vec<(u64, u64)>> {
    let mut pairs = vec![Vec::new(); inner.groups.len()];
    for (l, pa) in (0..).zip(inner.map.to_vec()) {
        if pa != UNMAPPED {
            pairs[vol.group_of(pa) as usize].push((vol.slot_of(pa), l));
        }
    }
    pairs.iter_mut().for_each(|p| p.sort_unstable());
    pairs
}

/// The collector's walk of every group against the forward map, in
/// runs of at most `kd` slots and of at most three.
fn check_walk(vol: &LsVolume, inner: &LsInner, what: &str) {
    for (g, want) in (0..).zip(forward_pairs(vol, inner)) {
        let grp = &inner.groups[g as usize];
        assert_eq!(grp.valid, want.len() as u64, "{what}: group {g} valid");
        if grp.state == GState::Free {
            assert_eq!(grp.rev.live_count(), 0, "{what}: free group {g}");
            continue;
        }
        for max in [vol.kd, 3] {
            let mut got = Vec::new();
            let mut cursor = 0;
            while let Some((lba, len, next)) = vol.valid_run_inner(inner, g, cursor, max) {
                assert!((1..=max).contains(&len), "{what}: group {g}: run of {len}");
                got.extend((0..len).map(|i| (next - len + i, lba + i)));
                cursor = next;
            }
            assert_eq!(got, want, "{what}: group {g}, runs of at most {max}");
        }
    }
}

/// The seal entries staged from byte `from` on against what a flat
/// per-slot reverse map, read off the forward map, gives at the seal.
fn check_staged(vol: &LsVolume, inner: &LsInner, from: usize, what: &str) {
    if inner.meta.staged.len() == from {
        return;
    }
    let pairs = forward_pairs(vol, inner);
    for entry in meta::summary_entries(&inner.meta.staged[from..], vol.kd as usize) {
        let mut flat = vec![UNMAPPED; vol.group_cap as usize];
        for &(slot, l) in &pairs[entry.group as usize] {
            flat[slot as usize] = l as u32;
        }
        let base = (entry.stripe * vol.kd) as usize;
        let got: Vec<u32> = entry.lbas().collect();
        let ctx = format!("{what}: group {} stripe {}", entry.group, entry.stripe);
        assert_eq!(got, flat[base..base + vol.kd as usize], "{ctx}");
    }
}

/// `write_body` inside one logical zone, checking each stripe's seal
/// entry as it is staged. Returns where its sectors went: `(group, first
/// slot, sectors)` per stripe filled, in order.
fn log_checked(
    vol: &LsVolume,
    inner: &mut LsInner,
    data: &[u8],
    mode: LogMode,
    lba: u64,
) -> Vec<(u32, u64, u64)> {
    let nsec = data.len() as u64 / SECTOR_SIZE;
    let stream = match mode {
        LogMode::Gc => vol.migration_target(inner),
        _ => HOT,
    };
    if mode == LogMode::User {
        let (cap, rel) = (vol.geo.zone_cap(), lba % vol.geo.zone_cap());
        let z = &mut inner.lz[(lba / cap) as usize];
        z.wp = z.wp.max(rel + nsec);
        z.state = z.state.after_write(z.wp, cap);
    }
    let mut consumed = 0;
    let mut placed = Vec::new();
    while consumed < nsec {
        let (g, _) = vol.open_group(inner, T0, stream).unwrap();
        let from = inner.meta.staged.len();
        let grp = &inner.groups[g as usize];
        let slot = grp.sealed * vol.kd + grp.fill;
        let rest = &data[(consumed * SECTOR_SIZE) as usize..];
        let (n, _) = vol
            .fill_stripe(inner, g, stream, T0, rest, mode, lba + consumed)
            .unwrap();
        check_staged(vol, inner, from, "seal");
        placed.push((g, slot, n));
        consumed += n;
    }
    vol.commit_staged(inner, T0).unwrap();
    placed
}

/// The flush barrier with each stream's pad-seal entry checked.
fn flush_checked(vol: &LsVolume, inner: &mut LsInner) {
    for stream in 0..STREAMS {
        if let Some(g) = inner.open[stream].filter(|&g| inner.groups[g as usize].fill > 0) {
            let from = inner.meta.staged.len();
            vol.fill_stripe(inner, g, stream, T0, &[], LogMode::Pad, 0)
                .unwrap();
            check_staged(vol, inner, from, "pad");
        }
    }
    vol.flush_inner(inner, T0).unwrap();
}

/// The reverse map (live bits and write-once runs) stays what a flat word
/// per slot would hold, through every way slots are written and die:
/// whole-stripe and sub-stripe writes, overwrites, GC moves that win and
/// lose their race, zone resets, collector pumps, a scrub re-log, the
/// flush barrier's pads, and a crash and mount that rebuilds it from the
/// forward map.
#[test]
fn reverse_map_agrees_with_a_flat_one() {
    for parity in [1u32, 2] {
        let mut a = Array::new(parity);
        let vol = Arc::new(a.vol);
        let (kd, zone) = (vol.kd, vol.geo.zone_cap());
        let zones = u64::from(vol.geo.num_zones());
        let mut rng = SimRng::new(0x5EED + u64::from(parity));
        let mut gc = GcManager::new(vol.clone(), GcConfig::default());
        for step in 0..400u32 {
            let what = format!("p{parity} step {step}");
            let fill = (step % 251) as u8;
            match rng.gen_range(16) {
                0 => drop(vol.reset_zone(T0, rng.gen_range(zones) as u32).unwrap()),
                1 => {
                    let mut sink = DirectSink::new(&vol);
                    for _ in 0..4 {
                        gc.pump(T0, &mut sink).unwrap();
                    }
                }
                2 => flush_checked(&vol, &mut vol.inner.lock()),
                3 => {
                    // A GC move out of the best victim, one of whose
                    // sectors a foreground overwrite takes first.
                    let mut inner = vol.inner.lock();
                    let inner = &mut *inner;
                    if let Some(victim) = vol.pick_victim_inner(inner, 0.0, true) {
                        inner.migrating = Some(victim);
                        let (lba, len, _) = vol.valid_run_inner(inner, victim, 0, kd).unwrap();
                        let mut moved = vec![0u8; (len * SECTOR_SIZE) as usize];
                        vol.read_inner(inner, T0, lba, &mut moved).unwrap();
                        let one = vec![fill; SECTOR_SIZE as usize];
                        log_checked(&vol, inner, &one, LogMode::User, lba + len / 2);
                        log_checked(&vol, inner, &moved, LogMode::Gc, lba);
                        inner.migrating = None;
                    }
                }
                op => {
                    // One or two stripes' worth, or less than a stripe,
                    // anywhere inside one logical zone.
                    let len = match op % 2 {
                        0 => kd * (1 + rng.gen_range(2)),
                        _ => 1 + rng.gen_range(kd - 1),
                    };
                    let lba = rng.gen_range(zones) * zone + rng.gen_range(zone - len + 1);
                    let data = vec![fill; (len * SECTOR_SIZE) as usize];
                    log_checked(&vol, &mut vol.inner.lock(), &data, LogMode::User, lba);
                }
            }
            check_walk(&vol, &vol.inner.lock(), &what);
        }
        // A latent error on the unit of a sealed group's first live slot:
        // the scrub decodes it and re-logs the stripe's valid sectors.
        flush_checked(&vol, &mut vol.inner.lock());
        let (dev, plba) = {
            let inner = vol.inner.lock();
            let grp = inner
                .groups
                .iter()
                .find(|g| g.state == GState::Sealed && g.valid > 0);
            let grp = grp.unwrap();
            let slot = grp.rev.next_live(0).unwrap();
            let stripe = slot / kd;
            let dev = vol.data_dev(stripe, ((slot % kd) / vol.k) as usize);
            (dev, vol.phys.zone_start(grp.zones[dev]) + stripe * vol.k)
        };
        a.devs[dev].set_fault_plan(FaultPlan::new(5).latent_range(plba, vol.k));
        let rep = vol.scrub(T0).unwrap();
        assert!(rep.sectors_relogged > 0, "p{parity}: {rep:?}");
        check_walk(&vol, &vol.inner.lock(), &format!("p{parity} scrub"));
        a.devs[dev].set_fault_plan(FaultPlan::new(5));

        flush_checked(&vol, &mut vol.inner.lock());
        let before = forward_pairs(&vol, &vol.inner.lock());
        let cfg = vol.config.clone();
        drop((gc, vol));
        for d in &a.devs {
            d.crash(&mut zns::CrashPolicy::LoseCache);
        }
        a.vol = LsVolume::mount(a.devs.clone(), cfg, T0).unwrap();
        let inner = a.vol.inner.lock();
        check_walk(&a.vol, &inner, &format!("p{parity} mount"));
        // The mount trims each logical zone to its contiguous prefix, so
        // it keeps a subset of what was flushed.
        let after = forward_pairs(&a.vol, &inner);
        assert!(after.iter().map(Vec::len).sum::<usize>() > 0);
        for (g, (after, before)) in after.iter().zip(&before).enumerate() {
            let kept = after.iter().all(|p| before.binary_search(p).is_ok());
            assert!(kept, "p{parity}: group {g} gained a mapping at mount");
        }
    }
}

/// The checkpoint's map runs over a flat word per logical sector: `len`
/// entries reading `first, first + 1, …` (stopping short of the
/// sentinel) or all unmapped, each as `(len, first)`.
fn flat_runs(flat: &[u32]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut rest = flat;
    while let Some(&first) = rest.first() {
        let len = match first {
            UNMAPPED => rest.iter().take_while(|&&v| v == UNMAPPED).count(),
            _ => (rest.iter().zip(first..UNMAPPED))
                .take_while(|&(&v, e)| v == e)
                .count(),
        };
        put_u32(&mut bytes, len as u32);
        put_u32(&mut bytes, first);
        rest = &rest[len..];
    }
    bytes
}

/// The chunk map against the flat oracle: every sector's address, every
/// run a read issues from any sector, a run lookup from every seventh
/// sector (across chunk boundaries), and the checkpoint's run bytes.
fn check_flat(vol: &LsVolume, map: &FwdMap, flat: &[u32], what: &str) {
    let got = map.to_vec();
    if let Some(l) = (0..flat.len()).find(|&l| got[l] != flat[l]) {
        panic!(
            "{what}: sector {l} maps to {:#x}, not {:#x}",
            got[l], flat[l]
        );
    }
    let len = flat.len() as u64;
    for l in 0..len {
        for limit in [1, 3, vol.k] {
            let want = Some(flat[l as usize])
                .filter(|&pa| pa != UNMAPPED)
                .map(|pa| {
                    let max = (vol.k - vol.slot_of(pa) % vol.k).min(limit).min(len - l);
                    let same = |r: &u64| flat[(l + r) as usize] == pa + *r as u32;
                    (pa, 1 + (1..max).take_while(same).count() as u64)
                });
            let got = vol.read_run(map, l, limit);
            assert_eq!(got, want, "{what}: read run at {l}, at most {limit}");
        }
    }
    for l in (0..len).step_by(7) {
        let limit = 2 * fwdmap::CHUNK + 3;
        let first = flat[l as usize];
        let end = len.min(l + limit);
        let same = |r: &u64| match first {
            UNMAPPED => flat[*r as usize] == UNMAPPED,
            _ => u64::from(flat[*r as usize]) == u64::from(first) + (r - l),
        };
        let want = (first, (l..end).take_while(same).count() as u64);
        assert_eq!(map.run(l, limit), want, "{what}: run at {l}");
    }
    let mut bytes = Vec::new();
    meta::put_runs(&mut bytes, map);
    assert!(bytes == flat_runs(flat), "{what}: checkpoint runs differ");
}

/// Takes what the engine moved into the oracle, outside `skip`: a sector
/// whose address changed was mapped before and still is — a GC or re-log
/// move never maps or unmaps a sector.
fn adopt_moves(map: &FwdMap, flat: &mut [u32], skip: Range<usize>, what: &str) {
    for (l, (now, was)) in map.to_vec().into_iter().zip(flat.iter_mut()).enumerate() {
        if now != *was && !skip.contains(&l) {
            let moved = *was != UNMAPPED && now != UNMAPPED;
            assert!(moved, "{what}: sector {l} went from {was:#x} to {now:#x}");
            *was = now;
        }
    }
}

/// Logs `data` at `lba` and applies it to the oracle the flat way: a
/// user sector takes its new slot, a GC one only while it still lives in
/// the group being drained. Moves by an inline collection the log call
/// ran, outside its own sectors, are adopted.
fn log_flat(
    vol: &LsVolume,
    inner: &mut LsInner,
    flat: &mut [u32],
    data: &[u8],
    mode: LogMode,
    lba: u64,
) {
    let migrating = inner.migrating;
    let placed = log_checked(vol, inner, data, mode, lba);
    let own = lba as usize..lba as usize + data.len() / SECTOR_SIZE as usize;
    adopt_moves(&inner.map, flat, own, "inline collection");
    let mut l = lba as usize;
    for (g, slot, n) in placed {
        for i in 0..n {
            let old = flat[l];
            let current = old != UNMAPPED && migrating == Some(vol.group_of(old));
            if mode == LogMode::User || current {
                flat[l] = vol.enc(g, slot + i);
            }
            l += 1;
        }
    }
}

/// The chunk map (a word per 64 sectors, a page where a run boundary
/// cuts a chunk) reads exactly as a flat word per logical sector kept
/// beside it, through 1 MiB-aligned and sub-chunk writes, overwrites,
/// zone resets, collector pumps, a GC move that loses a sector to a
/// foreground overwrite, a scrub re-log, the flush barrier's pads, and a
/// crash and the mount that reads the map back from its checkpoint runs.
#[test]
fn forward_map_agrees_with_a_flat_one() {
    for parity in [1u32, 2] {
        let mut a = Array::new(parity);
        let vol = Arc::new(a.vol);
        let (kd, zone) = (vol.kd, vol.geo.zone_cap());
        assert_eq!(zone * SECTOR_SIZE, 1 << 20, "a logical zone is 1 MiB");
        let zones = u64::from(vol.geo.num_zones());
        let mut flat = vec![UNMAPPED; (zones * zone) as usize];
        let mut rng = SimRng::new(0xF1A7 + u64::from(parity));
        let mut gc = GcManager::new(vol.clone(), GcConfig::default());
        let (mut split, mut raced) = (0, 0);
        for step in 0..300u32 {
            let op = rng.gen_range(16);
            let what = format!("p{parity} step {step} op {op}");
            let fill = (step % 251) as u8;
            match op {
                0 => {
                    let z = rng.gen_range(zones);
                    vol.reset_zone(T0, z as u32).unwrap();
                    flat[(z * zone) as usize..((z + 1) * zone) as usize].fill(UNMAPPED);
                }
                1 => {
                    let mut sink = DirectSink::new(&vol);
                    for _ in 0..4 {
                        gc.pump(T0, &mut sink).unwrap();
                    }
                    adopt_moves(&vol.inner.lock().map, &mut flat, 0..0, &what);
                }
                2 => flush_checked(&vol, &mut vol.inner.lock()),
                3 => {
                    // A GC move out of the best victim, one of whose
                    // sectors a foreground overwrite takes first.
                    let mut inner = vol.inner.lock();
                    let inner = &mut *inner;
                    if let Some(victim) = vol.pick_victim_inner(inner, 0.0, true) {
                        inner.migrating = Some(victim);
                        let (lba, len, _) = vol.valid_run_inner(inner, victim, 0, kd).unwrap();
                        let mut moved = vec![0u8; (len * SECTOR_SIZE) as usize];
                        vol.read_inner(inner, T0, lba, &mut moved).unwrap();
                        let one = vec![fill; SECTOR_SIZE as usize];
                        let at = lba + len / 2;
                        log_flat(&vol, inner, &mut flat, &one, LogMode::User, at);
                        log_flat(&vol, inner, &mut flat, &moved, LogMode::Gc, lba);
                        inner.migrating = None;
                        raced += 1;
                    }
                }
                op => {
                    // A whole 1 MiB zone, one or two stripes anywhere in
                    // a zone, or less than a chunk anywhere in a zone.
                    let (len, aligned) = match op % 3 {
                        0 => (zone, true),
                        1 => (kd * (1 + rng.gen_range(2)), false),
                        _ => (1 + rng.gen_range(fwdmap::CHUNK - 1), false),
                    };
                    let z = rng.gen_range(zones) * zone;
                    let lba = if aligned {
                        z
                    } else {
                        z + rng.gen_range(zone - len + 1)
                    };
                    let data = vec![fill; (len * SECTOR_SIZE) as usize];
                    let mut inner = vol.inner.lock();
                    log_flat(&vol, &mut inner, &mut flat, &data, LogMode::User, lba);
                }
            }
            let inner = vol.inner.lock();
            check_flat(&vol, &inner.map, &flat, &what);
            split = split.max(inner.map.split_chunks());
        }
        assert!(
            split > 0 && raced > 0,
            "p{parity}: {split} split, {raced} races"
        );
        // A latent error on the unit of a sealed group's first live slot:
        // the scrub decodes it and re-logs the stripe's valid sectors.
        flush_checked(&vol, &mut vol.inner.lock());
        let (dev, plba) = {
            let inner = vol.inner.lock();
            let grp = inner
                .groups
                .iter()
                .find(|g| g.state == GState::Sealed && g.valid > 0);
            let grp = grp.unwrap();
            let slot = grp.rev.next_live(0).unwrap();
            let stripe = slot / kd;
            let dev = vol.data_dev(stripe, ((slot % kd) / vol.k) as usize);
            (dev, vol.phys.zone_start(grp.zones[dev]) + stripe * vol.k)
        };
        a.devs[dev].set_fault_plan(FaultPlan::new(5).latent_range(plba, vol.k));
        let rep = vol.scrub(T0).unwrap();
        assert!(rep.sectors_relogged > 0, "p{parity}: {rep:?}");
        let what = format!("p{parity} scrub");
        adopt_moves(&vol.inner.lock().map, &mut flat, 0..0, &what);
        check_flat(&vol, &vol.inner.lock().map, &flat, &what);
        a.devs[dev].set_fault_plan(FaultPlan::new(5));

        flush_checked(&vol, &mut vol.inner.lock());
        check_flat(
            &vol,
            &vol.inner.lock().map,
            &flat,
            &format!("p{parity} flush"),
        );
        let cfg = vol.config.clone();
        drop((gc, vol));
        for d in &a.devs {
            d.crash(&mut zns::CrashPolicy::LoseCache);
        }
        a.vol = LsVolume::mount(a.devs.clone(), cfg, T0).unwrap();
        // Everything was flushed; the mount trims each logical zone to
        // its contiguous mapped prefix.
        for z in flat.chunks_mut(zone as usize) {
            let prefix = z.iter().take_while(|&&pa| pa != UNMAPPED).count();
            z[prefix..].fill(UNMAPPED);
        }
        check_flat(
            &a.vol,
            &a.vol.inner.lock().map,
            &flat,
            &format!("p{parity} mount"),
        );
    }
}

/// 1 MiB writes at 1 MiB-aligned sectors map whole chunks to consecutive
/// slots: a fill and overwrites leave no chunk split. A sub-chunk write
/// splits one, and the aligned overwrite that covers it again makes it
/// one word once more.
#[test]
fn aligned_writes_keep_chunks_whole() {
    const MIB: u64 = (1 << 20) / SECTOR_SIZE;
    let vol = LsVolume::format(devices(1024), LsConfig::default(), T0).unwrap();
    let data = vec![0x6Du8; (MIB * SECTOR_SIZE) as usize];
    let mut rng = SimRng::new(0xA11);
    let mut inner = vol.inner.lock();
    let inner = &mut *inner;
    let put = |inner: &mut LsInner, lba: u64, sectors: u64| {
        vol.log_data(
            inner,
            T0,
            &data[..(sectors * SECTOR_SIZE) as usize],
            LogMode::User,
            lba,
            HOT,
        )
        .unwrap();
    };
    // A group's worth: no collection runs, so every write lands in the
    // hot stream's stripes in order.
    for lba in (0..vol.group_cap).step_by(MIB as usize) {
        put(inner, lba, MIB);
        assert_eq!(inner.map.split_chunks(), 0, "fill at {lba}");
    }
    for _ in 0..vol.group_cap / MIB {
        let lba = rng.gen_range(vol.group_cap / MIB) * MIB;
        put(inner, lba, MIB);
        assert_eq!(inner.map.split_chunks(), 0, "overwrite at {lba}");
    }
    put(inner, 3 * MIB + 5, 1);
    assert_eq!(inner.map.split_chunks(), 1, "a sub-chunk overwrite");
    put(inner, 3 * MIB, MIB);
    assert_eq!(inner.map.split_chunks(), 0, "covered again");
    assert_eq!(inner.c_emergency, 0);
}

/// What a member command that exhausted its retries turns into, seen from
/// the volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exhaustion {
    /// The volume op succeeds: the command was omitted (a leg or a reset
    /// of a member the charge degraded) or the read decoded.
    Absorbed,
    /// The transient error surfaces to the caller.
    Surfaces,
}

/// One row per member-command kind, the cases RAIZN's member contract is
/// pinned on: the command under test is the first of its class on member
/// `target` (no metadata replica at either parity) once the plan is in.
struct RetryCase {
    op: FaultOp,
    target: usize,
    /// Brings the array to the point where the op runs.
    setup: fn(&mut Array),
    run: fn(&mut Array) -> Result<()>,
    /// Exhaustion outcome while the member stays in the array.
    exhausted_healthy: Exhaustion,
}

/// A volume over data-keeping members and the bytes its logical sectors
/// should read back.
struct Array {
    devs: Vec<Arc<ZnsDevice>>,
    vol: LsVolume,
    image: Vec<u8>,
    version: u8,
}

impl Array {
    fn new(parity: u32) -> Array {
        let config = ZnsConfig::builder()
            .zones(16, 256, 256)
            .open_limits(8, 12)
            .latency(LatencyConfig::instant())
            .build();
        let devs: Vec<_> = (0..5)
            .map(|_| Arc::new(ZnsDevice::new(config.clone())))
            .collect();
        let vol = LsVolume::format(devs.clone(), LsConfig::default().parity(parity), T0).unwrap();
        Array {
            devs,
            vol,
            image: Vec::new(),
            version: 0,
        }
    }

    /// Writes `sectors` fresh bytes at `lba`, zone by zone.
    fn put(&mut self, lba: u64, sectors: u64) -> Result<()> {
        self.version += 1;
        let zone = self.vol.geo.zone_cap();
        let bytes = |s: u64| (s * SECTOR_SIZE) as usize;
        self.image
            .resize(self.image.len().max(bytes(lba + sectors)), 0);
        for start in (lba..lba + sectors).step_by(zone as usize) {
            let range = bytes(start)..bytes((start + zone).min(lba + sectors));
            self.image[range.clone()].fill(self.version);
            self.vol
                .write(T0, start, &self.image[range], WriteFlags::default())?;
        }
        Ok(())
    }

    /// Reads every logical sector written back.
    fn verify(&mut self) -> Result<()> {
        let mut got = vec![0u8; self.image.len()];
        let zone = (self.vol.geo.zone_cap() * SECTOR_SIZE) as usize;
        for (lba, chunk) in (0..)
            .step_by(zone / SECTOR_SIZE as usize)
            .zip(got.chunks_mut(zone))
        {
            self.vol.read(T0, lba, chunk)?;
        }
        assert!(got == self.image, "read back differs");
        Ok(())
    }
}

const RETRY_CASES: [RetryCase; 4] = [
    // A data leg: member 4 holds a data unit of stripe 0 at both parities.
    RetryCase {
        op: FaultOp::Write,
        target: 4,
        setup: |_| {},
        run: |a| a.put(0, a.vol.kd),
        exhausted_healthy: Exhaustion::Surfaces,
    },
    // A parity leg: P of stripe 3 is on member 3, whose data units of
    // stripes 0..3 land before the plan.
    RetryCase {
        op: FaultOp::Write,
        target: 3,
        setup: |a| {
            a.put(0, 3 * a.vol.kd).unwrap();
            a.vol.flush(T0).unwrap();
        },
        run: |a| a.put(3 * a.vol.kd, a.vol.kd),
        exhausted_healthy: Exhaustion::Surfaces,
    },
    // A read the member cannot serve is decoded from the stripe.
    RetryCase {
        op: FaultOp::Read,
        target: 4,
        setup: |a| {
            a.put(0, a.vol.kd).unwrap();
            a.vol.flush(T0).unwrap();
        },
        run: Array::verify,
        exhausted_healthy: Exhaustion::Absorbed,
    },
    // A reset: reclaiming the first group once every sector it held has
    // been written again.
    RetryCase {
        op: FaultOp::Reset,
        target: 4,
        setup: |a| {
            a.put(0, a.vol.group_cap).unwrap();
            a.put(0, a.vol.group_cap).unwrap();
            a.vol.flush(T0).unwrap();
        },
        run: |a| a.vol.reclaim_group(T0, 0).map(drop),
        exhausted_healthy: Exhaustion::Surfaces,
    },
];

/// The member contract RAIZN pins in `fault_injection.rs`, on lsraid at
/// both parities: a burst up to the retry limit is absorbed uncharged; one
/// more failure charges the member exactly once after exactly `limit`
/// retries, and what the caller sees depends on the command kind and on
/// whether the charge degraded the member — with its budget spent, the
/// member is failed and the volume keeps serving every byte.
#[test]
fn member_command_retry_counts_charges_and_outcomes() {
    let limit = TRANSIENT_RETRY_LIMIT;
    for parity in [1, 2] {
        for case in &RETRY_CASES {
            // (consecutive failures, error budget already spent)
            for (failures, spent) in [(limit, false), (limit + 1, false), (limit + 1, true)] {
                let ctx = format!("p{parity} {} x{failures} spent {spent}", case.op);
                let mut a = Array::new(parity);
                (case.setup)(&mut a);
                let dev = case.target;
                if spent {
                    let devices = a.vol.members.read();
                    (0..DEVICE_ERROR_BUDGET).for_each(|_| devices.charge(dev));
                }
                let plan = (1..=u64::from(failures))
                    .fold(FaultPlan::new(1), |plan, n| plan.fail_nth(case.op, n));
                a.devs[dev].set_fault_plan(plan);

                let result = (case.run)(&mut a);

                let stats = a.vol.stats();
                let exhausted = failures > limit;
                assert_eq!(
                    stats.transient_retries,
                    u64::from(limit.min(failures)),
                    "{ctx}"
                );
                assert_eq!(
                    u64::from(failures),
                    a.devs[dev].stats().injected_transients,
                    "{ctx}: every planned failure was consumed by the one command"
                );
                let degraded = exhausted && spent;
                assert_eq!(stats.auto_degrades, u64::from(degraded), "{ctx}");
                let expect_failed = if degraded { vec![dev] } else { vec![] };
                assert_eq!(a.vol.failed_devices(), expect_failed, "{ctx}");
                let charged = u64::from(exhausted) + if spent { DEVICE_ERROR_BUDGET } else { 0 };
                assert_eq!(a.vol.members.errors(dev), charged, "{ctx}");
                let expect = match (exhausted, degraded) {
                    (false, _) | (true, true) => Exhaustion::Absorbed,
                    (true, false) => case.exhausted_healthy,
                };
                match expect {
                    Exhaustion::Absorbed => {
                        result.unwrap_or_else(|e| panic!("{ctx}: {e}"));
                        a.verify().unwrap_or_else(|e| panic!("{ctx}: serving: {e}"));
                    }
                    Exhaustion::Surfaces => assert!(
                        matches!(result, Err(ZnsError::TransientError { op }) if op == case.op),
                        "{ctx}: {result:?}"
                    ),
                }
            }
        }
    }
}

/// A checkpoint whose map runs do not cover the map exactly fails the
/// mount with an error, never a panic: one newer checkpoint is written
/// into the other slot, well formed or edited after its group table.
#[test]
fn malformed_checkpoint_runs_fail_the_mount() {
    type Edit = fn(&mut Vec<u8>, usize);
    let cases: [(&str, Edit); 5] = [
        ("well formed", |_, _| {}),
        ("zero length", |b, at| {
            drop(b.splice(at..at, [0, 0, 0, 0, 5, 0, 0, 0]))
        }),
        ("overrun", |b, at| {
            let len = meta::get_u32(b, at) + 1;
            b[at..at + 4].copy_from_slice(&len.to_le_bytes());
        }),
        ("under-cover", |b, _| b.truncate(b.len() - 8)),
        ("ragged tail", |b, _| b.extend_from_slice(&[0; 4])),
    ];
    for (what, edit) in cases {
        let mut a = Array::new(1);
        a.put(0, 3 * a.vol.kd + 5).unwrap();
        a.put(7, 9).unwrap();
        a.vol.flush(T0).unwrap();
        let mut buf = vec![0u8; HEADER_BYTES];
        let inner = a.vol.inner.lock();
        a.vol.build_checkpoint(&inner, &mut buf);
        let runs =
            HEADER_BYTES + 32 + inner.lz.len() * 16 + inner.groups.len() * (24 + a.vol.n * 4);
        assert!(buf.len() - runs >= 3 * 8, "{what}: a few runs to edit");
        drop(inner);
        edit(&mut buf, runs);
        finish_record(&mut buf, kind::CHECKPOINT, 2, 0);
        let lba = a.vol.phys.zone_start(1);
        for d in &a.devs[..a.vol.meta_devices()] {
            d.write(T0, lba, &buf, WriteFlags::FUA).unwrap();
        }
        let cfg = a.vol.config.clone();
        drop(a.vol);
        match (what, LsVolume::mount(a.devs, cfg, T0)) {
            ("well formed", Ok(vol)) => assert_eq!(vol.stats().meta_rotations, 2),
            (_, Err(ZnsError::InvalidArgument(m))) if m.contains("mapping runs") => {}
            (_, res) => panic!("{what}: {:?}", res.map(drop)),
        }
    }
}
