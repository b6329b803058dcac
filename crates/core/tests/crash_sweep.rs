//! Deterministic crash-point sweep: a scripted workload (partial stripes,
//! FUA, flush, zone reset, zone finish) is replayed on every engine
//! configuration once per crash the harness enumerates — every device zone
//! pinned at every surviving write pointer while the rest of the array
//! keeps or loses its cache, then every subset of members keeping its cache
//! under every absent set the engine tolerates — and every replay must pass
//! the harness's recovery check (`workloads::harness::Pair::check`), twice:
//! a second, loss-free power cycle that also takes any one member the
//! engine can spare mounts to the same write pointers and the same data
//! (the first mount rewrote the metadata log; whatever it did not carry
//! over is missing exactly when a member's absence makes it the only
//! witness).

use std::cell::Cell;
use std::sync::Arc;
use workloads::harness::{
    absent_sets, keep_subsets, pin_points, roomy_config, sweep, Crash, FaultTarget, Loss, Ls, Pair,
    Raizn, CACHED,
};
use zns::{WriteFlags, ZnsConfig, ZnsDevice};

const DEVICES: usize = 5;

fn devices(config: &ZnsConfig) -> Vec<Arc<ZnsDevice>> {
    (0..DEVICES)
        .map(|_| Arc::new(ZnsDevice::new(config.clone())))
        .collect()
}

/// The scripted workload: five zones exercising stripe buffers, partial
/// parity, FUA barriers, a logged zone reset, and zone finish (mid-stripe
/// and at a stripe boundary). Stays within small_test's 6-active-zone
/// budget (2 metadata + 4 data; zone 4 opens after zone 3 is sealed).
fn script<T: FaultTarget>(p: &mut Pair<T>) -> Result<(), String> {
    // `flush` is volume-global, so the durable phase comes first and the
    // cached (crash-vulnerable) tails are written after the last flush.
    p.write(0, 24, CACHED)?;
    p.write(1, 16, WriteFlags::FUA)?;
    p.write(2, 5, CACHED)?;
    p.write(2, 2, WriteFlags::FUA)?;
    p.write(3, 8, CACHED)?;
    p.flush()?;
    // Zone 3: logged reset, rewrite, finish (sealed durable).
    p.reset(3)?;
    p.write(3, 10, CACHED)?;
    p.flush()?;
    p.finish(3)?;
    // Zone 4: sealed durable at a stripe boundary, where no surviving
    // slot can tell a complete last stripe from an absent one.
    p.write(4, 32, CACHED)?;
    p.flush()?;
    p.finish(4)?;
    // Cached tails: partial stripes (and one cached stripe completion
    // with its parity write) whose fate the crash point decides.
    p.write(0, 20, CACHED)?;
    p.write(1, 11, CACHED)?;
    p.write(2, 6, CACHED)
}

/// Sweeps the script on one engine; the points enumerated per enumerator.
fn sweep_engine<T: FaultTarget>(target: &T, config: ZnsConfig) -> [usize; 2] {
    let fresh = || devices(&config);
    let turn = Cell::new(0);
    let history = |p: &mut Pair<T>, crash: &Crash| {
        script(p)?;
        p.power_cycle(crash)?;
        // The degraded axis: whoever was absent stays absent; a healthy
        // array loses the next member in turn, if the engine can spare one.
        let mut second = Crash::uniform("second power cycle", Loss::Keep, DEVICES);
        second.absent = crash.absent.clone();
        if second.absent.is_empty() && target.tolerates() > 0 {
            turn.set(turn.get() + 1);
            second.absent.push(turn.get() % DEVICES);
        }
        p.power_cycle(&second)
            .map_err(|e| format!("without {:?}: {e}", second.absent))
    };
    let absent = absent_sets(DEVICES, target.tolerates());
    [
        sweep(target, &fresh, history, pin_points),
        sweep(target, &fresh, history, |_| keep_subsets(DEVICES, &absent)),
    ]
    .map(|swept| {
        let (points, bad) = swept.unwrap_or_else(|e| panic!("{e}"));
        let first: Vec<_> = bad.iter().take(8).collect();
        assert!(
            bad.is_empty(),
            "{}: {} of {points} crash points bad, the first: {first:#?}",
            target.name(),
            bad.len()
        );
        points
    })
}

/// Every crash point of the scripted workload, on every engine and every
/// RAIZN mode a bin runs.
#[test]
fn every_crash_point_recovers() {
    let points = [
        sweep_engine(&Raizn::small(1), ZnsConfig::small_test()),
        sweep_engine(&Raizn::small(2), ZnsConfig::small_test()),
        sweep_engine(&Raizn::small_full_unit(1), ZnsConfig::small_test()),
        sweep_engine(&Raizn::small_full_unit(2), ZnsConfig::small_test()),
        sweep_engine(&Ls::small(1), roomy_config()),
        sweep_engine(&Ls::small(2), roomy_config()),
    ];
    for [pins, _] in points {
        assert!(pins > 50, "workload exposes too few crash points ({pins})");
    }
    let subsets = points.map(|[_, subsets]| subsets);
    assert_eq!(subsets, [192, 512, 192, 512, 192, 512]);
}
