//! Spans and stats agree: every path an engine counts in its own stats is
//! also a tagged span, one per count, so a full trace of a run and the
//! engine's stats after it tell the same story. The stats are the counts
//! the benchmark reads; the spans are what the artifacts and the trace
//! oracles read.
//!
//! One row per engine and parity level runs a seeded mix of sub-stripe and
//! whole-stripe writes (some FUA), reads, flushes, finishes and resets,
//! with one member failed halfway, on a recorder that keeps every event.
//! A RAIZN finish that lands mid-stripe seals the open stripe's parity:
//! one more parity write per leg, and one more span.

use lsraid::LsVolume;
use raizn::RaiznVolume;
use sim::SimRng;
use std::sync::Arc;
use workloads::harness::{roomy_config, FaultTarget, Ls, Pair, Raizn};
use zns::{WriteFlags, ZnsDevice, ZonedVolume};

const OPS: u32 = 400;
const ZONES: u64 = 4;

/// The tagged paths, in the order a row's `stats` reports their counts.
const PATHS: [obs::PathKind; 4] = [
    obs::PathKind::PpLog,
    obs::PathKind::FullParity,
    obs::PathKind::QParity,
    obs::PathKind::Degraded,
];

/// Runs the workload of `seed` on `target`, failing member 1 halfway
/// through with `fail`, and checks the spans of every path in [`PATHS`]
/// against `stats` of the volume.
fn row<T: FaultTarget>(
    target: &T,
    seed: u64,
    stats: impl Fn(&T::Volume) -> [u64; 4],
    fail: fn(&T::Volume, usize) -> zns::Result<()>,
) {
    let name = format!("{} seed {seed:#x}", target.name());
    let recorder = obs::Recorder::new(1 << 16, 1);
    let fresh = || {
        let member = |_| Arc::new(ZnsDevice::new(roomy_config()));
        (0..5).map(member).collect()
    };
    let mut pair = Pair::format(target, &fresh).unwrap();
    pair.attach(recorder.clone());
    let cap = pair.vol.geometry().zone_cap();
    let mut rng = SimRng::new(seed);
    for op in 0..OPS {
        if op == OPS / 2 {
            fail(&pair.vol, 1).unwrap();
        }
        let z = rng.gen_range(ZONES) as u32;
        let (written, finished) = {
            let m = &pair.model[z as usize];
            (m.written(), m.finished)
        };
        let step = match rng.gen_range(100) {
            0..=54 if written == cap || finished => pair.reset(z),
            0..=54 => {
                let sectors = 1 + rng.gen_range((cap - written).min(32));
                let flags = WriteFlags {
                    fua: rng.gen_range(4) == 0,
                    preflush: false,
                };
                pair.write(z, sectors, flags)
            }
            55..=84 if written > 0 => {
                let off = rng.gen_range(written);
                pair.read(z, off, 1 + rng.gen_range((written - off).min(32)))
            }
            85..=92 => pair.flush(),
            93..=96 if written > 0 && !finished => pair.finish(z),
            93..=99 => pair.reset(z),
            _ => Ok(()),
        };
        step.unwrap_or_else(|e| panic!("{name} op {op}: {e}"));
    }
    assert_eq!(recorder.dropped(), 0, "{name}: the ring lost events");
    let events = recorder.events();
    let spans = PATHS.map(|path| {
        let tagged = events.iter().filter(|e| e.path == Some(path));
        tagged.count() as u64
    });
    let counted = stats(&pair.vol);
    assert_eq!(spans, counted, "{name}: spans vs stats of {PATHS:?}");
    // Both sides saw the paths the workload is there to exercise.
    assert!(counted[1] > 0 && counted[3] > 0, "{name}: {counted:?}");
}

/// RAIZN counts each path once, next to its span.
fn raizn_stats(v: &RaiznVolume) -> [u64; 4] {
    let s = v.stats();
    [
        s.pp_log_entries,
        s.full_parity_writes,
        s.q_parity_writes,
        s.degraded_reads,
    ]
}

/// lsraid logs no partial parity, and counts parity in sectors: a sealed
/// stripe writes a stripe unit per parity leg, each leg one span.
fn ls_stats(v: &LsVolume, legs: u64) -> [u64; 4] {
    let s = v.stats();
    let stripes = s.parity_sectors / v.stripe_unit() / legs;
    let q = if legs == 2 { stripes } else { 0 };
    [0, stripes, q, s.degraded_reads]
}

#[test]
fn spans_and_stats_count_the_same_paths() {
    let raizn_fail = |v: &RaiznVolume, dev| v.fail_device(dev);
    let ls_fail = |v: &LsVolume, dev| v.fail_device(dev);
    for seed in [0x5EED_0001, 0x5EED_0002] {
        for parity in [1, 2] {
            row(&Raizn::small(parity), seed, raizn_stats, raizn_fail);
            let ls = |v: &LsVolume| ls_stats(v, u64::from(parity));
            row(&Ls::small(parity), seed, ls, ls_fail);
        }
    }
}
