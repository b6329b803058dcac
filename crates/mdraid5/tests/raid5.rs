//! Integration tests for the md-style RAID-5 baseline: parity
//! consistency under single-device failure, and write-path selection
//! (full-stripe vs read-modify-write vs reconstruct-write) pinned
//! through the trace ring rather than inferred from timing.

use ftl::{BlockDevice, ConvSsd, FtlConfig};
use mdraid5::{Md5Config, Md5Volume};
use sim::{SimRng, SimTime};
use std::sync::Arc;
use zns::{WriteFlags, SECTOR_SIZE};

const T0: SimTime = SimTime::ZERO;
const CHUNK: u64 = 4;
const N: usize = 5;

fn volume() -> Md5Volume {
    let devs: Vec<Arc<dyn BlockDevice>> = (0..N)
        .map(|_| Arc::new(ConvSsd::new(FtlConfig::small_test())) as Arc<dyn BlockDevice>)
        .collect();
    Md5Volume::new(
        devs,
        Md5Config {
            chunk_sectors: CHUNK,
            stripe_cache_bytes: 1024 * 1024,
        },
    )
    .unwrap()
}

fn bytes(sectors: u64, seed: u64) -> Vec<u8> {
    let mut v = vec![0u8; (sectors * SECTOR_SIZE) as usize];
    SimRng::new(seed).fill_bytes(&mut v);
    v
}

/// Parity must reconstruct every byte no matter which device dies:
/// write a multi-stripe extent plus sub-stripe updates, then read the
/// whole range back degraded, once per failed device.
#[test]
fn parity_reconstructs_any_single_failure() {
    let stripe = CHUNK * (N as u64 - 1);
    let span = 6 * stripe; // six full stripes
    for failed in 0..N {
        let v = volume();
        let base = bytes(span, 0x5EED);
        v.write(T0, 0, &base, WriteFlags::default()).unwrap();
        // Sub-stripe overwrites dirty a few parities through RMW/RCW.
        let patch = bytes(CHUNK, 0xF00 + failed as u64);
        let mut expect = base.clone();
        for s in [1u64, 3, 4] {
            let off = s * stripe + CHUNK;
            v.write(T0, off, &patch, WriteFlags::default()).unwrap();
            let lo = (off * SECTOR_SIZE) as usize;
            expect[lo..lo + patch.len()].copy_from_slice(&patch);
        }
        v.flush(T0).unwrap();
        v.fail_device(failed);
        assert_eq!(v.failed_device(), Some(failed));
        let mut out = vec![0u8; expect.len()];
        v.read(T0, 0, &mut out).unwrap();
        assert!(
            out == expect,
            "degraded read diverged with device {failed} failed"
        );
    }
}

/// The write path must pick full-stripe XOR for aligned full stripes,
/// read-modify-write for narrow updates and reconstruct-write for wide
/// partial updates — asserted on the trace events the paths emit.
#[test]
fn write_path_selection_is_traced() {
    let v = volume();
    let recorder = obs::Recorder::new(4096, 1);
    v.set_recorder(recorder.clone());
    let stripe = CHUNK * (N as u64 - 1);

    let path_events = |since: u64| -> Vec<obs::PathKind> {
        recorder
            .events_since(since)
            .iter()
            .filter(|e| e.stage == obs::Stage::Xor)
            .filter_map(|e| e.path)
            .collect()
    };

    // Aligned full stripe: one full-stripe XOR, no reads needed.
    let mut cursor = recorder.next_seq();
    v.write(T0, 0, &bytes(stripe, 1), WriteFlags::default())
        .unwrap();
    assert_eq!(path_events(cursor), vec![obs::PathKind::FullStripe]);

    // One chunk of four: RMW reads old data + parity (2 IOs) and beats
    // reconstruct-write (3 IOs).
    cursor = recorder.next_seq();
    v.write(T0, stripe, &bytes(CHUNK, 2), WriteFlags::default())
        .unwrap();
    assert_eq!(path_events(cursor), vec![obs::PathKind::Rmw]);

    // Three chunks of four: reconstruct-write reads the one untouched
    // chunk (1 IO) and beats RMW (4 IOs).
    cursor = recorder.next_seq();
    v.write(T0, 2 * stripe, &bytes(3 * CHUNK, 3), WriteFlags::default())
        .unwrap();
    assert_eq!(path_events(cursor), vec![obs::PathKind::Rcw]);

    // Degraded reads surface in the trace too.
    v.flush(T0).unwrap();
    v.fail_device(1);
    cursor = recorder.next_seq();
    let mut out = vec![0u8; (stripe * SECTOR_SIZE) as usize];
    v.read(T0, 0, &mut out).unwrap();
    assert!(
        recorder
            .events_since(cursor)
            .iter()
            .any(|e| e.path == Some(obs::PathKind::Degraded)),
        "degraded read emitted no Degraded trace event"
    );
}

/// Writes and reads straddling stripe boundaries stay byte-identical
/// to a flat reference model (no trace assertions — pure data oracle).
#[test]
fn unaligned_io_matches_model() {
    let v = volume();
    let cap = v.capacity_sectors().min(40 * CHUNK * (N as u64 - 1));
    let mut model = vec![0u8; (cap * SECTOR_SIZE) as usize];
    let mut rng = SimRng::new(0xA11E);
    for i in 0..200u64 {
        let off = rng.gen_range(cap);
        let len = 1 + rng.gen_range((cap - off).min(3 * CHUNK));
        let data = bytes(len, i);
        v.write(T0, off, &data, WriteFlags::default()).unwrap();
        let lo = (off * SECTOR_SIZE) as usize;
        model[lo..lo + data.len()].copy_from_slice(&data);
    }
    let mut out = vec![0u8; model.len()];
    v.read(T0, 0, &mut out).unwrap();
    assert!(out == model, "unaligned write/read stream diverged");
}

/// Error propagation: assembling with an empty device list must return
/// an error, not panic (regression pin for the former `expect`).
#[test]
fn empty_device_list_is_an_error() {
    assert!(Md5Volume::new(Vec::new(), Md5Config::default()).is_err());
}
