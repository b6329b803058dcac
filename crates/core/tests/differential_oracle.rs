//! Differential oracle: the harness's seeded random workload (writes,
//! appends, reads, flushes with the flush-window trace check, resets,
//! finishes, power cycles under random cache loss) against the in-memory
//! model, on every engine configuration and every RAIZN mode a bin runs
//! (`workloads::harness::oracle`).
//!
//! The trace doubles as the oracle for *which* path ran: RAIZN's random
//! sub-stripe writes must exercise the partial-parity log.

use workloads::harness::{oracle, roomy_config, FaultTarget, Ls, Raizn};

const OPS: u32 = 160;
const MAX_CRASHES: u64 = 2;

/// Runs `seed` on one engine; the recorder that traced the run.
fn run<T: FaultTarget>(target: &T, seed: u64) -> std::sync::Arc<obs::Recorder> {
    oracle(target, &roomy_config(), seed, OPS, MAX_CRASHES).unwrap_or_else(|e| panic!("{e}"))
}

fn run_seed(seed: u64) {
    for parity in [1, 2] {
        for target in [Raizn::small(parity), Raizn::small_full_unit(parity)] {
            let recorder = run(&target, seed);
            assert!(
                recorder
                    .events()
                    .iter()
                    .any(|e| e.path == Some(obs::PathKind::PpLog)),
                "{} seed {seed:#x}: random sub-stripe writes never hit the pp-log path",
                target.name()
            );
        }
        run(&Ls::small(parity), seed);
    }
}

#[test]
fn differential_oracle_eight_seeds() {
    for seed in 0..8 {
        run_seed(0xD1FF_0000 + seed);
    }
}

#[test]
fn differential_oracle_adversarial_seeds() {
    // A second band of seeds far from the first, so a lucky pattern in
    // one band cannot hide a regression.
    for seed in [0xDEAD_BEEF, 0xBADC_0FFE, 0x0123_4567, 0xFEED_F00D] {
        run_seed(seed);
    }
}
