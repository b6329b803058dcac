//! Differential oracle for the log-structured engine: the harness's seeded
//! random workload (`workloads::harness::oracle` — the same op mix, power
//! cycles included, every engine runs) against the in-memory model, on all
//! four engine configurations. The log-structured engine must take zero
//! partial-parity-log paths (it has none) while sealing full stripes, and
//! the same seed must produce a bit-identical observability trace across
//! runs (determinism pin).

use std::sync::Arc;
use workloads::harness::{oracle, roomy_config, FaultTarget, Ls, Raizn};

const OPS: u32 = 160;
const MAX_CRASHES: u64 = 2;

fn run<T: FaultTarget>(target: &T, seed: u64) -> Arc<obs::Recorder> {
    oracle(target, &roomy_config(), seed, OPS, MAX_CRASHES).unwrap_or_else(|e| panic!("{e}"))
}

/// Events of the run tagged with `path`.
fn path_events(recorder: &obs::Recorder, path: obs::PathKind) -> usize {
    let events = recorder.events();
    events.iter().filter(|e| e.path == Some(path)).count()
}

/// A stable, comparable rendering of one trace event.
fn signature(e: &obs::TraceEvent) -> String {
    format!(
        "{:?}/{:?}/{:?}/d{}/z{}/l{}/s{}/{}..{}/sp{}<-{}/{:?}",
        e.op,
        e.stage,
        e.path,
        e.device,
        e.zone,
        e.lba,
        e.sectors,
        e.start.as_nanos(),
        e.end.as_nanos(),
        e.span,
        e.parent,
        e.blame,
    )
}

/// Runs `seed` on every engine configuration; returns the log-structured
/// engine's full trace signature at each parity.
fn run_differential(seed: u64) -> [Vec<String>; 2] {
    [1, 2].map(|parity| {
        // Path oracle: the log-structured engine never touches a
        // partial-parity log (it has none), while the classic engine does
        // on the same workload — the structural difference under test.
        // The ring kept every event, so a missing `PpLog` one was never
        // recorded.
        let ls = run(&Ls::small(parity), seed);
        assert_eq!(ls.dropped(), 0, "lsraid p{parity} seed {seed:#x}");
        assert_eq!(
            path_events(&ls, obs::PathKind::PpLog),
            0,
            "lsraid p{parity} seed {seed:#x}: took a pp-log path"
        );
        assert!(
            path_events(&ls, obs::PathKind::FullParity) > 0,
            "lsraid p{parity} seed {seed:#x}: sealed no full stripes"
        );
        assert!(
            path_events(&run(&Raizn::small(parity), seed), obs::PathKind::PpLog) > 0,
            "raizn p{parity} seed {seed:#x}: never exercised the pp-log on the shared workload"
        );
        ls.events_since(0).iter().map(signature).collect()
    })
}

#[test]
fn differential_oracle_shared_workload() {
    for seed in 0..4 {
        run_differential(0x15A1_D000 + seed);
    }
}

#[test]
fn differential_oracle_adversarial_seeds() {
    for seed in [0xDEAD_BEEF, 0xBADC_0FFE, 0x0123_4567, 0xFEED_F00D] {
        run_differential(seed);
    }
}

#[test]
fn same_seed_pins_identical_trace() {
    // Determinism pin: two runs of the same seed must produce the same
    // observability trace, event for event — timing, spans and blame
    // included. Any nondeterminism in the engine shows up here first.
    let a = run_differential(0x7EAC_E001);
    let b = run_differential(0x7EAC_E001);
    for (a, b) in a.iter().zip(&b) {
        assert_eq!(a.len(), b.len(), "trace length diverged across runs");
        for (i, (ea, eb)) in a.iter().zip(b).enumerate() {
            assert_eq!(ea, eb, "trace event {i} diverged across runs");
        }
    }
}
