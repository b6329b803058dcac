//! Exhaustive crash-point sweep over scripted workloads, on every engine
//! configuration in one run: RAIZN and RAIZN-2, lsraid at both parities.
//!
//! Each script is replayed through `workloads::harness::sweep` once per
//! crash of three enumerators — every device zone pinned at every surviving
//! write pointer in `[durable, written)` while the rest of the array keeps
//! or loses its cache (plus the two extremes); every subset of members
//! keeping its cache under every absent set the engine tolerates; seeded
//! whole-array random trials — and every replay must pass the harness's
//! recovery check: the volume mounts, each zone's write pointer lies in
//! `[durable, written]`, everything below it reads back as written, and a
//! scrub finds no damage.
//!
//! On the dual-parity layout every pin point, lifecycle point and random
//! trial also loses **two members**, cycling through the ten pairs: the
//! mount must replay the P and Q partial-parity legs, serve byte-identical
//! reads degraded, and — after both members are rebuilt onto fresh
//! replacements — pass the scrubbed check.
//!
//! Usage: `crash_sweep [--seed N]` (default seed 42, used for the random
//! trials; the enumerated sweeps are exhaustive and seed-free).
//!
//! Every violated invariant exits nonzero with engine, script and crash
//! point named on stderr (no panics: CI distinguishes a failed gate from a
//! crash).

use bench::BenchError;
use lsraid::{DirectSink, GcConfig, GcManager};
use sim::SimTime;
use std::cell::Cell;
use workloads::harness::{
    absent_sets, keep_subsets, pin_points, random_trials, roomy_config, sweep, Crash, FaultTarget,
    Loss, Ls, Pair, Raizn, ZoneModel, CACHED,
};
use zns::{WriteFlags, ZnsConfig, ZoneState, ZonedVolume};

const T0: SimTime = SimTime::ZERO;
const DEVICES: usize = 5;
const RANDOM_TRIALS: u64 = 64;
const LS_RANDOM_TRIALS: u64 = 16;

/// Scripted workload over four logical zones: stripe buffers, partial
/// parity logs, FUA barriers, a logged zone reset, zone finish, and
/// cached tails (including a cached stripe completion with its parity
/// write). `flush` is volume-global, so the durable phase comes first.
fn raizn_script(p: &mut Pair<Raizn>) -> Result<(), String> {
    p.write(0, 24, CACHED)?;
    p.write(1, 16, WriteFlags::FUA)?;
    p.write(2, 5, CACHED)?;
    p.write(2, 2, WriteFlags::FUA)?;
    p.write(3, 8, CACHED)?;
    p.flush()?;
    p.reset(3)?;
    p.write(3, 10, CACHED)?;
    p.flush()?;
    p.finish(3)?;
    // Cached tails.
    p.write(0, 20, CACHED)?;
    p.write(1, 11, CACHED)?;
    p.write(2, 6, CACHED)
}

/// Lifecycle crash point: a background zone finish or a batched zone
/// reset interrupted after `k` of the array's per-device operations
/// landed. Both are write-ahead logged: the remount replays the reset,
/// and rolls the finish forward to Full at the logged write pointer —
/// even when every already-sealed device is among the absent pair, the
/// replicated finish log is witness enough. Either way the remount must
/// agree with the model and leave the zone immediately usable.
fn lifecycle_point(
    target: &Raizn,
    absent: &[usize],
    mid_finish: bool,
    k: usize,
) -> Result<(), String> {
    let fresh = || bench::zns_devices(&bench::recorder(), DEVICES, &ZnsConfig::small_test());
    let mut p = Pair::format(target, &fresh)?;
    let stripe_data = p.vol.layout().stripe_data_sectors();
    // Zone 0 takes the interruption; zone 1 is an untouched control.
    p.write(0, 2 * stripe_data, CACHED)?;
    p.write(1, stripe_data + 3, CACHED)?;
    p.flush()?;
    if mid_finish {
        p.vol.interrupted_finish_for_test(T0, 0, k)
    } else {
        p.model[0] = ZoneModel::default();
        p.vol.interrupted_reset_for_test(T0, 0, k)
    }
    .map_err(|e| e.to_string())?;
    p.power_cycle(&Crash::uniform("", Loss::Lose, DEVICES).without(absent))?;

    if mid_finish {
        let state = p.vol.zone_info(0).map_err(|e| e.to_string())?.state;
        if state != ZoneState::Full {
            return Err(format!("finish not rolled forward ({state:?})"));
        }
        // Roll-forward work (and its stat) happens only when a surviving
        // device is still unsealed; if every live device already sealed,
        // the remount just acknowledges the completed finish.
        let surv_open = (k..DEVICES).any(|i| !absent.contains(&i));
        let rolled = p.vol.stats().finish_rollforwards;
        if rolled != u64::from(surv_open) {
            return Err(format!("rollforward count {rolled}, {surv_open} expected"));
        }
        let phys = p.vol.layout().phys_zone(0);
        for (i, dev) in p.members.iter().enumerate() {
            let sealed = absent.contains(&i)
                || dev.zone_info(phys).map_err(|e| e.to_string())?.state == ZoneState::Full;
            if !sealed {
                return Err(format!("device {i} left unsealed"));
            }
        }
    }
    p.rebuild_absent()?;
    // The zone is immediately usable: rolled-forward finishes reopen
    // via reset, replayed resets accept fresh data straight away.
    if mid_finish {
        p.reset(0)?;
    }
    p.write(0, 2, CACHED)?;
    p.read(0, 0, 2)
}

/// Scripted lsraid seal workload over five logical zones: flushed
/// prefixes, a FUA barrier, a logged zone reset, a zone finish, then a
/// cached tail that seals one full stripe (durable summary, cached data +
/// parity) and leaves a partial stripe in memory.
fn ls_seal_script(p: &mut Pair<Ls>) -> Result<(), String> {
    p.write(0, 40, CACHED)?;
    p.flush()?;
    p.write(1, 64, WriteFlags::FUA)?;
    p.write(2, 24, CACHED)?;
    p.flush()?;
    p.reset(2)?;
    p.write(2, 10, CACHED)?;
    p.flush()?;
    p.write(3, 64, CACHED)?;
    p.flush()?;
    p.finish(3)?;
    // Cached tail: 20 + 64 sectors fill one 64-sector stripe (sealed,
    // summary durable, data cached) and leave 20 in the stripe buffer.
    p.write(0, 20, CACHED)?;
    p.write(4, 64, CACHED)
}

/// Fills eight zones, overwrites enough of them to create a high-garbage
/// sealed group, flushes (so every logical sector is durable), then runs
/// GC: with `reclaim`, until the victim's group-free record is durable and
/// its zones are reset; without, until a victim is acquired and read, the
/// migrated copies sit in cached cold-stream writes and the victim is not
/// yet reclaimed. The crash must never lose a byte: the reclaim ordering
/// keeps old copies mapped until migrated ones are durable.
fn ls_gc_script(p: &mut Pair<Ls>, reclaim: bool) -> Result<(), String> {
    let geo = p.vol.geometry();
    for zone in 0..8 {
        p.write(zone, geo.zone_cap(), CACHED)?;
    }
    p.flush()?;
    // Overwrites in place (lsraid remaps below the write pointer): all but
    // the last zone of the first sealed group, the last of those by half —
    // at parity 1, zones 0 and 1 fully and zone 2 half of zones 0..3, so
    // the group is 5/8 garbage and the preferred victim with 96 sectors to
    // migrate at either parity.
    let last = (p.vol.group_capacity() / geo.zone_cap()) as u32 - 2;
    for zone in 0..=last {
        let sectors = geo.zone_cap() / if zone == last { 2 } else { 1 };
        let data = p.payload(sectors);
        p.vol
            .write(T0, geo.zone_start(zone), &data, CACHED)
            .map_err(|e| format!("overwrite: {e}"))?;
        p.model[zone as usize].data[..data.len()].copy_from_slice(&data);
    }
    p.flush()?;

    let mut mgr = GcManager::new(
        p.vol.clone(),
        // Watermarks above the pool size keep the collector at full
        // pressure, so every pump migrates regardless of free headroom.
        GcConfig {
            // Mid-migration: just enough to seal one cold stripe (cached)
            // and stop with the victim still acquired and unreclaimed.
            budget_sectors: if reclaim { 1 << 20 } else { 96 },
            low_water: 64,
            threshold_water: 65,
            high_water: 65,
            ..GcConfig::default()
        },
    );
    let mut sink = DirectSink::new(&p.vol);
    let mut reclaimed = 0;
    loop {
        mgr.pump(T0, &mut sink)
            .map_err(|e| format!("gc pump: {e}"))?;
        if !reclaim || (!mgr.active() && mgr.reclaimed_groups() > 0) {
            break;
        }
        if !mgr.active() && mgr.reclaimed_groups() == reclaimed {
            return Err("gc pump made no progress toward a reclaim".into());
        }
        reclaimed = mgr.reclaimed_groups();
    }
    let mid_flight = mgr.active() && mgr.migrated_sectors() >= p.vol.stripe_data_sectors();
    if !reclaim && !mid_flight {
        return Err(format!(
            "gc migration did not stop mid-flight with a cold stripe sealed ({} sectors)",
            mgr.migrated_sectors()
        ));
    }
    Ok(())
}

/// A scripted workload: its name, the pin points it must at least expose,
/// and the script.
type Script<'a, T> = (
    &'a str,
    usize,
    &'a dyn Fn(&mut Pair<T>) -> Result<(), String>,
);

/// The double-failure axis: the next of the ten member pairs, in turn.
fn next_pair(turn: &Cell<usize>) -> Vec<usize> {
    let mut pairs = absent_sets(DEVICES, 2);
    pairs.retain(|set| set.len() == 2);
    pairs.swap_remove(turn.replace(turn.get() + 1) % pairs.len())
}

/// Sweeps one script on one engine under the three enumerators. On a
/// dual-parity engine the pin points and random trials also lose a pair of
/// members, the next in `turn`; whatever is absent is rebuilt after the
/// degraded check and checked again, scrubbed. A script that enumerates
/// fewer than `floor` pin points has stopped leaving the state it names.
fn sweep_script<T: FaultTarget>(
    target: &T,
    config: &ZnsConfig,
    (name, floor, script): Script<T>,
    (seed, trials): (u64, u64),
    turn: &Cell<usize>,
) -> bench::BenchResult<String> {
    let fresh = || bench::zns_devices(&bench::recorder(), DEVICES, config);
    let history = |p: &mut Pair<T>, crash: &Crash| {
        script(p)?;
        p.power_cycle(crash)?;
        p.rebuild_absent()
    };
    let lose_pairs = |crashes: Vec<Crash>| match target.tolerates() {
        2 => crashes
            .into_iter()
            .map(|crash| crash.without(&next_pair(turn)))
            .collect(),
        _ => crashes,
    };
    let absent = absent_sets(DEVICES, target.tolerates());
    let mut counts = [0; 3];
    let swept = sweep(target, &fresh, history, |cached| {
        let crashes = [
            lose_pairs(pin_points(cached)),
            keep_subsets(DEVICES, &absent),
            lose_pairs(random_trials(DEVICES, seed, trials)),
        ];
        counts = [0, 1, 2].map(|i| crashes[i].len());
        crashes.concat()
    });
    let (points, bad) = swept.map_err(BenchError::Gate)?;
    if let Some((crash, violation)) = bad.first() {
        return Err(BenchError::Gate(format!(
            "{} {name} {}: {violation} ({} of {points} points bad)",
            target.name(),
            crash.point,
            bad.len()
        )));
    }
    let pins = (counts[0] - 2) / 2;
    bench::gate!(
        pins >= floor,
        "{} {name}: {pins} pin points, at least {floor} expected",
        target.name()
    );
    Ok(format!(
        "{name} {pins} pin points x 2 modes + 2 extremes, {} keep-subset points, {} random trials",
        counts[1], counts[2]
    ))
}

fn main() -> bench::BenchResult {
    let mut seed = 42u64;
    let mut args = bench::cli_args().into_iter();
    while let Some(a) = args.next() {
        seed = match (a.as_str(), args.next().and_then(|s| s.parse().ok())) {
            ("--seed", Some(seed)) => seed,
            _ => {
                return Err(BenchError::Gate(format!(
                    "bad argument {a:?} (usage: crash_sweep [--seed N])"
                )))
            }
        };
    }
    let (small, roomy) = (ZnsConfig::small_test(), roomy_config());
    for parity in [1, 2] {
        let (target, turn) = (Raizn::small(parity), Cell::new(0));
        let swept = sweep_script(
            &target,
            &small,
            ("mixed", [56, 83][parity as usize - 1], &raizn_script),
            (seed, RANDOM_TRIALS),
            &turn,
        )?;
        // Lifecycle crash points: a background finish interrupted after k
        // of 5 device seals, and a batched reset interrupted after k of 5
        // device resets (k = 0 leaves only the WAL intent in both cases).
        for (mid_finish, k) in [true, false]
            .into_iter()
            .flat_map(|f| (0..DEVICES).map(move |k| (f, k)))
        {
            let absent = match parity {
                2 => next_pair(&turn),
                _ => Vec::new(),
            };
            lifecycle_point(&target, &absent, mid_finish, k).map_err(|e| {
                let what = if mid_finish { "finish" } else { "reset" };
                BenchError::Gate(format!(
                    "{} lifecycle {what} k={k} absent {absent:?}: {e}",
                    target.name()
                ))
            })?;
        }
        println!(
            "crash sweep [{}]: PASS ({swept}, {} lifecycle points; seed {seed})",
            target.name(),
            2 * DEVICES
        );
    }
    // Log-structured engine: a stripe-group seal, a mid-flight GC
    // migration, and a completed GC reclaim (the extremes, subsets and
    // random trials cover the latter's all-durable state; it enumerates no
    // cached points).
    let scripts: [Script<Ls>; 3] = [
        ("seal", 100, &ls_seal_script),
        ("gc-migration", 112, &|p| ls_gc_script(p, false)),
        ("gc-reclaim", 0, &|p| ls_gc_script(p, true)),
    ];
    for parity in [1, 2] {
        let target = Ls::small(parity);
        for (script, seed) in scripts.iter().zip(seed..) {
            let trials = (seed, LS_RANDOM_TRIALS);
            let swept = sweep_script(&target, &roomy, *script, trials, &Cell::new(0))?;
            println!(
                "crash sweep [{}]: PASS ({swept}; seed {seed})",
                target.name()
            );
        }
    }
    bench::write_breakdown("crash_sweep")
}
