//! Repeated crash/mount cycles: a volume that keeps crashing at random
//! points (and keeps writing between crashes) never loses acknowledged-
//! durable data and never serves anything but a prefix of what was
//! written.

use proptest::prelude::*;
use sim::SimRng;
use std::sync::Arc;
use workloads::harness::{random_trials, Pair, Raizn};
use zns::{WriteFlags, ZnsConfig, ZnsDevice};

const CYCLES: usize = 12;

fn devices(n: usize) -> Vec<Arc<ZnsDevice>> {
    (0..n)
        .map(|_| Arc::new(ZnsDevice::new(ZnsConfig::small_test())))
        .collect()
}

/// Drives CYCLES rounds of write → (sometimes) flush/FUA → crash at a
/// random point → mount, with the harness's recovery check (the
/// durable-prefix invariants and a scrub) after every mount. Returns the
/// first violated invariant as an error.
fn run_cycles(seed: u64) -> Result<(), String> {
    let mut rng = SimRng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let fresh = || devices(5);
    let target = Raizn::small(1);
    let mut p = Pair::format(&target, &fresh)?;
    for cycle in 0..CYCLES {
        let chunk = 1 + rng.gen_range(20).min(255 - p.model[0].written());
        let flags = match rng.gen_bool(0.3) {
            true => WriteFlags::FUA,
            false => WriteFlags::default(),
        };
        p.write(0, chunk, flags)?;
        if rng.gen_bool(0.3) {
            p.flush()?;
        }
        // Post-crash, whatever survived on media is durable; the next
        // cycle continues writing from the recovered frontier.
        let crash = &random_trials(5, seed, cycle as u64 + 1)[cycle];
        p.power_cycle(crash)
            .map_err(|e| format!("cycle {cycle}: {e}"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn crash_mount_cycles_preserve_durable_prefix(seed in 1u64..10_000) {
        if let Err(msg) = run_cycles(seed) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// Regressions. Repeated rollbacks re-relocate the same conflicted slot
/// with equal `valid` extents; mount must replay the *newest* relocation
/// record, not the first same-extent record it scans (seed 6966 found a
/// stale stripe unit resurrected after eight crash cycles; under the
/// harness's per-member loss it loses the record of a relocated parity slot
/// instead, which the walk must rebuild). And a rollback into a relocated
/// unit must drop the rows past the settled frontier, or the next mount
/// claims them and exposes sectors nobody wrote (seed 115, three cycles).
#[test]
fn stale_relocation_records_do_not_resurrect() {
    for seed in [6966, 115] {
        run_cycles(seed).unwrap();
    }
}
