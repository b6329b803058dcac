//! Bounded matrix of power-loss histories on one logical zone, counted by
//! how mount-time recovery gets them wrong (EXPERIMENTS.md "Mount-time
//! recovery"; the table-driven tests in `core/tests/crash_recovery.rs`
//! gate two slices of it).
//!
//! One history: write `[0, f)` in writes of `step` sectors, flush, write
//! `[f, len)` the same way, lose power with one subset of the five members
//! keeping its write cache, lose the `absent` members, mount, and pass the
//! harness's recovery check (`workloads::harness::Pair::check`; scrubbed
//! when no member is absent). The matrix is single and dual parity × four
//! lengths × four flush points × three write sizes × all 32 keep-cache
//! subsets × the absent sets of `matrix_absent_sets` (none and each single
//! member; none and four pairs) — 16 896 histories.
//!
//! Prints the count per failure class; `--list` also prints every bad
//! history. A gate: exits nonzero on any bad history outside ROADMAP
//! "Residual (ii)"'s recorded class (dual parity, two members absent, a flushed tail
//! rolled back) or on more of those than recorded.

use std::collections::BTreeMap;
use std::sync::Arc;
use workloads::harness::{keep_subsets, matrix_absent_sets, sweep, Raizn, LOST_DURABLE};
use zns::{ZnsConfig, ZnsDevice};

const MEMBERS: usize = 5;
const FLUSH_POINTS: [u64; 4] = [0, 6, 16, 25];
const STEPS: [u64; 3] = [1, 5, 64];
/// Histories of the recorded residual class at the commit that recorded it.
const RESIDUAL_CEILING: u64 = 224;

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
    let mut classes: BTreeMap<String, u64> = BTreeMap::new();
    let (mut total, mut residual, mut unrecorded) = (0, 0, 0);
    for parity in [1, 2] {
        let target = Raizn::small(parity);
        let cap = (MEMBERS as u64 - u64::from(parity)) * 64;
        let absent = matrix_absent_sets(parity as usize);
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
                for (crash, violation) in bad {
                    let class = strip_numbers(&violation);
                    if list {
                        println!(
                            "p{parity} len {len} flushed {flushed} step {step} {}: {class}",
                            crash.point
                        );
                    }
                    match parity == 2 && crash.absent.len() == 2 && class.contains(LOST_DURABLE) {
                        true => residual += 1,
                        false => unrecorded += 1,
                    }
                    *classes.entry(class).or_default() += 1;
                }
            }
        }
    }
    println!("| class | histories |");
    println!("|---|---|");
    for (class, n) in &classes {
        println!("| {class} | {n} |");
    }
    println!(
        "| **bad / total** | **{} / {total}** |",
        residual + unrecorded
    );
    bench::gate!(
        unrecorded == 0 && residual <= RESIDUAL_CEILING,
        "{unrecorded} bad histories outside the recorded residual class, {residual} inside \
         (ceiling {RESIDUAL_CEILING})"
    );
    Ok(())
}
