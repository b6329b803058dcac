//! Bounded matrix of power-loss histories on one logical zone, counted by
//! how mount-time recovery gets them wrong (EXPERIMENTS.md "Mount-time
//! recovery"; the table-driven tests in `core/tests/crash_recovery.rs`
//! gate two slices of it).
//!
//! One history: write `[0, f)` in writes of `step` sectors, flush, write
//! `[f, len)` the same way, lose power with one subset of the five members
//! keeping its write cache, lose the `absent` members, mount, and pass the
//! harness's recovery check (`workloads::harness::Pair::check`; scrubbed
//! when no member is absent). The matrix is every RAIZN mode a bin runs
//! (affected-rows and full-unit partial parity) × single and dual parity ×
//! four lengths × four flush points × three write sizes × all 32
//! keep-cache subsets × the absent sets of `matrix_absent_sets` (none and
//! each single member; none and four pairs) — 33 792 histories.
//!
//! Prints the count per row and failure class; `--list` also prints every
//! bad history. A gate: exits nonzero on any bad history outside its row's
//! recorded class (a flushed tail rolled back with as many members absent
//! as the row has parity) or on more of those than the row's ceiling.

use std::collections::BTreeMap;
use std::sync::Arc;
use workloads::harness::{
    keep_subsets, matrix_absent_sets, sweep, FaultTarget, Raizn, LOST_DURABLE,
};
use zns::{ZnsConfig, ZnsDevice};

const MEMBERS: usize = 5;
const FLUSH_POINTS: [u64; 4] = [0, 6, 16, 25];
const STEPS: [u64; 3] = [1, 5, 64];

/// The matrix's rows, each with the ceiling of its recorded class: the
/// histories of that class at the commit that recorded it (ROADMAP item
/// 1). Dual parity is "Residual (ii)"; single parity with full-unit
/// records is the full-unit class found by this matrix.
fn rows() -> [(Raizn, u64); 4] {
    [
        (Raizn::small(1), 0),
        (Raizn::small(2), 224),
        (Raizn::small_full_unit(1), 116),
        (Raizn::small_full_unit(2), 248),
    ]
}

/// An error message with its numbers blanked, so one defect is one class.
fn strip_numbers(msg: &str) -> String {
    let mut out = String::new();
    for c in msg.chars() {
        match c {
            '0'..='9' if out.ends_with('N') => {}
            '0'..='9' => out.push('N'),
            c => out.push(c),
        }
    }
    out
}

fn main() -> bench::BenchResult {
    let list = std::env::args().any(|a| a == "--list");
    let fresh = || -> Vec<Arc<ZnsDevice>> {
        (0..MEMBERS)
            .map(|_| Arc::new(ZnsDevice::new(ZnsConfig::small_test())))
            .collect()
    };
    let mut classes: BTreeMap<(String, String), u64> = BTreeMap::new();
    let (mut total, mut bad_total, mut unrecorded) = (0, 0, 0);
    let mut over = Vec::new();
    for (target, ceiling) in rows() {
        let name = target.name();
        let row = name.trim_start_matches("raizn ");
        let parity = target.tolerates();
        let cap = (MEMBERS - parity) as u64 * 64;
        let absent = matrix_absent_sets(parity);
        let mut recorded = 0;
        for len in [30, cap / 2 + 3, cap - 5, cap] {
            for (flushed, step) in FLUSH_POINTS.iter().flat_map(|f| STEPS.map(|s| (*f, s))) {
                let (points, bad) = sweep(
                    &target,
                    &fresh,
                    |p, crash| {
                        p.write_in(0, flushed, step)?;
                        p.flush()?;
                        p.write_in(0, len - flushed, step)?;
                        p.power_cycle(crash)
                    },
                    |_| keep_subsets(MEMBERS, &absent),
                )
                .map_err(bench::BenchError::Gate)?;
                total += points;
                bad_total += bad.len();
                for (crash, violation) in bad {
                    let class = strip_numbers(&violation);
                    if list {
                        println!(
                            "{row} len {len} flushed {flushed} step {step} {}: {class}",
                            crash.point
                        );
                    }
                    match crash.absent.len() == parity && class.contains(LOST_DURABLE) {
                        true => recorded += 1,
                        false => unrecorded += 1,
                    }
                    *classes.entry((name.clone(), class)).or_default() += 1;
                }
            }
        }
        if recorded > ceiling {
            over.push(format!("{name}: {recorded} (ceiling {ceiling})"));
        }
    }
    println!("| row | class | histories |");
    println!("|---|---|---|");
    for ((row, class), n) in &classes {
        println!("| {row} | {class} | {n} |");
    }
    println!("| **bad / total** | | **{bad_total} / {total}** |");
    bench::gate!(
        unrecorded == 0 && over.is_empty(),
        "{unrecorded} bad histories outside the recorded classes; over a ceiling: {over:?}"
    );
    Ok(())
}
