//! Bounded matrix of power-loss histories on one logical zone, counted by
//! how mount-time recovery gets them wrong (EXPERIMENTS.md "Mount-time
//! recovery"; the table-driven tests in `core/tests/crash_recovery.rs`
//! gate two slices of it).
//!
//! One history: write `[0, f)` in writes of `step` sectors, flush, write
//! `[f, len)` the same way, lose power with one subset of the five members
//! keeping its write cache, lose the `absent` members, mount, read every
//! sector below the recovered write pointer, scrub (when no member is
//! absent). The matrix is single and dual parity × four lengths × four
//! flush points × three write sizes × all 32 keep-cache subsets × the
//! absent sets the parity level tolerates (none and each single member;
//! none and four pairs) — 16 896 histories.
//!
//! A measurement, not a gate: prints the count per failure class and
//! exits zero. `--list` also prints every bad history.

use raizn::{RaiznConfig, RaiznVolume};
use sim::{SimRng, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;
use zns::{CrashPolicy, WriteFlags, ZnsConfig, ZnsDevice, ZonedVolume, SECTOR_SIZE};

const T0: SimTime = SimTime::ZERO;
const MEMBERS: usize = 5;
const FLUSH_POINTS: [u64; 4] = [0, 6, 16, 25];
const STEPS: [u64; 3] = [1, 5, 64];
const ABSENT_PAIRS: [[usize; 2]; 4] = [[0, 2], [1, 3], [1, 4], [2, 3]];

struct History {
    config: RaiznConfig,
    len: u64,
    flushed: u64,
    step: u64,
    keep: u32,
    absent: Vec<usize>,
}

/// Runs one history; `Err` names the failure class.
fn run(h: &History) -> Result<(), String> {
    let devs: Vec<Arc<ZnsDevice>> = (0..MEMBERS)
        .map(|_| Arc::new(ZnsDevice::new(ZnsConfig::small_test())))
        .collect();
    let v = RaiznVolume::format(devs.clone(), h.config, T0).map_err(|e| format!("format: {e}"))?;
    let mut model = vec![0u8; (h.len * SECTOR_SIZE) as usize];
    SimRng::new(h.len ^ h.flushed << 16).fill_bytes(&mut model);
    let write = |from: u64, to: u64| -> Result<(), String> {
        for lba in (from..to).step_by(h.step as usize) {
            let end = (lba + h.step).min(to);
            let chunk = &model[(lba * SECTOR_SIZE) as usize..(end * SECTOR_SIZE) as usize];
            v.write(T0, lba, chunk, WriteFlags::default())
                .map_err(|e| format!("write: {e}"))?;
        }
        Ok(())
    };
    write(0, h.flushed)?;
    v.flush(T0).map_err(|e| format!("flush: {e}"))?;
    write(h.flushed, h.len)?;
    drop(v);
    for (i, d) in devs.iter().enumerate() {
        d.crash(&mut if h.keep & (1 << i) != 0 {
            CrashPolicy::KeepCache
        } else {
            CrashPolicy::LoseCache
        });
    }
    for a in &h.absent {
        devs[*a].fail();
    }
    let v = RaiznVolume::mount(devs.clone(), h.config, T0)
        .map_err(|e| format!("mount fails: {}", strip_numbers(&e.to_string())))?;
    let wp = v
        .zone_info(0)
        .map_err(|e| format!("zone_info: {e}"))?
        .write_pointer;
    if wp < h.flushed {
        return Err("flushed sectors rolled back".into());
    }
    if wp > h.len {
        return Err("write pointer past what was written".into());
    }
    let mut out = vec![0u8; SECTOR_SIZE as usize];
    for s in 0..wp {
        let readable = v.read(T0, s, &mut out).is_ok();
        if !readable || out != model[(s * SECTOR_SIZE) as usize..][..out.len()] {
            return Err("write pointer exposed past an unreadable sector".into());
        }
    }
    if h.absent.is_empty() {
        v.scrub(T0).map_err(|_| "scrub errors".to_string())?;
    }
    Ok(())
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

fn main() {
    let list = std::env::args().any(|a| a == "--list");
    let mut classes: BTreeMap<String, u64> = BTreeMap::new();
    let mut total = 0u64;
    for config in [RaiznConfig::small_test(), RaiznConfig::small_test_raizn2()] {
        let cap = (MEMBERS as u64 - u64::from(config.parity)) * 64;
        let mut absent_sets = vec![vec![]];
        if config.parity == 2 {
            absent_sets.extend(ABSENT_PAIRS.map(|p| p.to_vec()));
        } else {
            absent_sets.extend((0..MEMBERS).map(|a| vec![a]));
        }
        for len in [30, cap / 2 + 3, cap - 5, cap] {
            for (flushed, step) in FLUSH_POINTS.iter().flat_map(|f| STEPS.map(|s| (*f, s))) {
                for (keep, absent) in
                    (0..32u32).flat_map(|k| absent_sets.iter().map(move |a| (k, a.clone())))
                {
                    let h = History {
                        config,
                        len,
                        flushed,
                        step,
                        keep,
                        absent,
                    };
                    total += 1;
                    if let Err(class) = run(&h) {
                        if list {
                            println!(
                                "p{} len {len} flushed {flushed} step {step} keep {keep:05b} \
                                 absent {:?}: {class}",
                                config.parity, h.absent
                            );
                        }
                        *classes.entry(class).or_default() += 1;
                    }
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
        classes.values().sum::<u64>()
    );
}
