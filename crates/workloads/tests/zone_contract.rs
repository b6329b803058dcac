//! The zone contract's conformance battery (DESIGN.md "Zone contract").
//!
//! One table of requests, each issued from a scripted starting state on
//! every zoned target — a raw ZNS device, RAIZN at parity 1 and 2, lsraid,
//! and the block shim over a conventional SSD — and checked against one
//! expected column: the outcome (`ok`, or the error as the host reads it)
//! and the zone's `(state, write pointer)` after it. Every target exposes
//! 128-sector zones, so the LBAs inside the expected errors are the same
//! for all. lsraid's overwrite row is the one named exception. Then a
//! seeded proptest drives random op sequences on all five in lock-step
//! and compares them after every step.

use ftl::{ConvSsd, FtlConfig};
use lsraid::{LsConfig, LsVolume};
use mdraid5::ZonedBlockShim;
use proptest::prelude::*;
use raizn::{RaiznConfig, RaiznVolume};
use sim::SimTime;
use std::sync::Arc;
use zns::ZoneMgmtOp::{self, Close, Finish, Open, Reset};
use zns::ZoneState::{self, Closed, Empty, ExplicitlyOpen, Full, ImplicitlyOpen};
use zns::{LatencyConfig, WriteFlags, ZnsConfig, ZnsDevice, ZonedVolume, SECTOR_SIZE};

const T0: SimTime = SimTime::ZERO;
const CACHED: WriteFlags = WriteFlags {
    fua: false,
    preflush: false,
};
/// Zone size and capacity of every target.
const CAP: u64 = 128;
/// Sectors a scripted starting state writes.
const W: u64 = 2;
const OK: &str = "ok";

fn device(zone: u64) -> ZnsDevice {
    ZnsDevice::new(
        ZnsConfig::builder()
            .zones(16, zone, zone)
            .open_limits(8, 12)
            .latency(LatencyConfig::instant())
            .build(),
    )
}

fn members(n: usize, zone: u64) -> Vec<Arc<ZnsDevice>> {
    (0..n).map(|_| Arc::new(device(zone))).collect()
}

/// RAIZN over `n` members whose `n - parity` data units make 128-sector
/// logical zones.
fn raizn(parity: u32, n: usize) -> RaiznVolume {
    let config = RaiznConfig {
        parity,
        ..RaiznConfig::small_test()
    };
    let unit_zone = CAP / (n as u64 - u64::from(parity));
    RaiznVolume::format(members(n, unit_zone), config, T0).unwrap()
}

/// Every zoned target on fresh media, named.
fn targets() -> Vec<(&'static str, Box<dyn ZonedVolume>)> {
    let lsraid = LsVolume::format(members(5, CAP), LsConfig::default(), T0).unwrap();
    let ssd = Arc::new(ConvSsd::new(FtlConfig::small_test()));
    vec![
        ("device", Box::new(device(CAP))),
        ("raizn p1", Box::new(raizn(1, 5))),
        ("raizn p2", Box::new(raizn(2, 6))),
        ("lsraid", Box::new(lsraid)),
        ("shim", Box::new(ZonedBlockShim::new(ssd, CAP).unwrap())),
    ]
}

fn bytes(sectors: u64) -> Vec<u8> {
    vec![0x5A; (sectors * SECTOR_SIZE) as usize]
}

/// What the host reads back from a request.
fn outcome<T>(r: zns::Result<T>) -> String {
    r.map_or_else(|e| e.to_string(), |_| OK.to_string())
}

/// A zone's `(state, write pointer)`, the pointer relative to its start.
fn zone(v: &dyn ZonedVolume, z: u32) -> (ZoneState, u64) {
    let info = v.zone_info(z).unwrap();
    (info.state, info.written())
}

/// Zone 0's scripted starting state.
#[derive(Debug, Clone, Copy)]
enum Setup {
    Fresh,
    /// `W` sectors written.
    Written,
    /// Opened, then `W` sectors written.
    Opened,
    /// `W` sectors written, then closed.
    Shut,
    /// `W` sectors written, then finished.
    Finished,
    /// Written to capacity.
    Filled,
}

impl Setup {
    fn reach(self, v: &dyn ZonedVolume) -> zns::Result<()> {
        let write = |n| v.write(T0, 0, &bytes(n), CACHED).map(drop);
        match self {
            Setup::Fresh => Ok(()),
            Setup::Written => write(W),
            Setup::Opened => v.open_zone(T0, 0).and_then(|_| write(W)),
            Setup::Shut => write(W).and_then(|()| v.close_zone(T0, 0).map(drop)),
            Setup::Finished => write(W).and_then(|()| v.finish_zone(T0, 0).map(drop)),
            Setup::Filled => write(CAP),
        }
    }
}

/// One request against zone 0, or past the last zone.
#[derive(Debug, Clone, Copy)]
enum Req {
    Read(u64, u64),
    ReadPastEnd,
    /// A write of `.1` bytes at LBA `.0`.
    Write(u64, usize),
    Append(u64),
    Manage(ZoneMgmtOp),
    OpenPastEnd,
}

impl Req {
    fn issue(self, v: &dyn ZonedVolume) -> String {
        let end = v.geometry().total_sectors();
        let read = |lba, sectors| v.read(T0, lba, &mut bytes(sectors));
        match self {
            Req::Read(lba, sectors) => outcome(read(lba, sectors)),
            Req::ReadPastEnd => outcome(read(end, 1)),
            Req::Write(lba, len) => outcome(v.write(T0, lba, &vec![0; len], CACHED)),
            Req::Append(sectors) => outcome(v.append(T0, 0, &bytes(sectors), CACHED)),
            Req::Manage(op) => outcome(v.manage(T0, 0, op)),
            Req::OpenPastEnd => outcome(v.open_zone(T0, v.geometry().num_zones())),
        }
    }
}

/// `n` sectors' worth of bytes.
const fn s(n: u64) -> usize {
    (n * SECTOR_SIZE) as usize
}

/// What a target answers: the outcome, and the zone's `(state, wp)` after
/// it. `{end}` in the outcome stands for the target's address-space end.
type Answer = (&'static str, (ZoneState, u64));

/// A row: what every target answers to a request from a starting state.
type Row = (&'static str, Setup, Req, Answer);

/// The one named exception: lsraid remaps a write below the write pointer
/// as an overwrite, so it accepts the request and keeps its zone state.
const LSRAID_OVERWRITE: (&str, Answer) = ("write below the wp", (OK, (ImplicitlyOpen, W)));

#[rustfmt::skip]
const PROBES: [Row; 20] = [
    ("close on an empty zone", Setup::Fresh, Req::Manage(Close), ("cannot close zone 0 in state empty", (Empty, 0))),
    ("open on a full zone", Setup::Finished, Req::Manage(Open), ("zone 0 is full", (Full, W))),
    ("close on a full zone", Setup::Finished, Req::Manage(Close), ("cannot close zone 0 in state full", (Full, W))),
    ("finish on a finished zone", Setup::Finished, Req::Manage(Finish), (OK, (Full, W))),
    ("write at the wp past capacity", Setup::Written, Req::Write(W, s(CAP - W + 1)), ("io [2, +127) crosses a zone boundary", (ImplicitlyOpen, W))),
    ("read outside the address space", Setup::Written, Req::ReadPastEnd, ("lba range [{end}, +1) outside address space", (ImplicitlyOpen, W))),
    ("empty buffer", Setup::Written, Req::Write(W, 0), ("invalid argument: buffer length 0 is not a positive multiple of the sector size", (ImplicitlyOpen, W))),
    ("misaligned 4097-byte write", Setup::Fresh, Req::Write(0, 4097), ("invalid argument: buffer length 4097 is not a positive multiple of the sector size", (Empty, 0))),
    ("write ahead of the wp", Setup::Written, Req::Write(W + 1, s(1)), ("non-sequential write to zone 0: write pointer 2, got 3", (ImplicitlyOpen, W))),
    ("read past the wp", Setup::Written, Req::Read(0, W + 1), ("read of unwritten lba 2", (ImplicitlyOpen, W))),
    ("append to a filled zone", Setup::Filled, Req::Append(1), ("zone 0 is full", (Full, CAP))),
    ("open past the last zone", Setup::Fresh, Req::OpenPastEnd, ("lba range [{end}, +0) outside address space", (Empty, 0))),
    // Writes and appends at and off the write pointer.
    ("write at the wp", Setup::Written, Req::Write(W, s(1)), (OK, (ImplicitlyOpen, W + 1))),
    ("write to capacity", Setup::Written, Req::Write(W, s(CAP - W)), (OK, (Full, CAP))),
    ("write at the wp of a finished zone", Setup::Finished, Req::Write(W, s(1)), ("zone 0 is full", (Full, W))),
    ("write to a closed zone", Setup::Shut, Req::Write(W, s(1)), (OK, (ImplicitlyOpen, W + 1))),
    (LSRAID_OVERWRITE.0, Setup::Written, Req::Write(0, s(1)), ("non-sequential write to zone 0: write pointer 2, got 0", (ImplicitlyOpen, W))),
    ("append", Setup::Written, Req::Append(1), (OK, (ImplicitlyOpen, W + 1))),
    ("append past capacity", Setup::Written, Req::Append(CAP - W + 1), ("zone 0 is full", (ImplicitlyOpen, W))),
    ("append to an explicitly open zone", Setup::Opened, Req::Append(1), (OK, (ExplicitlyOpen, W + 1))),
];

/// Open, close, finish and reset from every state.
#[rustfmt::skip]
const TRANSITIONS: [(Setup, [Answer; 4]); 5] = [
    (Setup::Fresh, [(OK, (ExplicitlyOpen, 0)), ("cannot close zone 0 in state empty", (Empty, 0)), (OK, (Full, 0)), (OK, (Empty, 0))]),
    (Setup::Written, [(OK, (ExplicitlyOpen, W)), (OK, (Closed, W)), (OK, (Full, W)), (OK, (Empty, 0))]),
    (Setup::Opened, [(OK, (ExplicitlyOpen, W)), (OK, (Closed, W)), (OK, (Full, W)), (OK, (Empty, 0))]),
    (Setup::Shut, [(OK, (ExplicitlyOpen, W)), ("cannot close zone 0 in state closed", (Closed, W)), (OK, (Full, W)), (OK, (Empty, 0))]),
    (Setup::Finished, [("zone 0 is full", (Full, W)), ("cannot close zone 0 in state full", (Full, W)), (OK, (Full, W)), (OK, (Empty, 0))]),
];

#[test]
fn every_target_answers_every_request_alike() {
    let mut rows: Vec<(String, Setup, Req, Answer)> = PROBES
        .iter()
        .map(|&(name, setup, req, answer)| (name.to_string(), setup, req, answer))
        .collect();
    for (setup, answers) in TRANSITIONS {
        for (op, answer) in [Open, Close, Finish, Reset].into_iter().zip(answers) {
            let name = format!("{op} from {setup:?}");
            rows.push((name, setup, Req::Manage(op), answer));
        }
    }
    let mut wrong = Vec::new();
    for (row, setup, req, answer) in &rows {
        for (name, v) in targets() {
            let v = v.as_ref();
            setup
                .reach(v)
                .unwrap_or_else(|e| panic!("{name}: {setup:?}: {e}"));
            let got = (req.issue(v), zone(v, 0));
            let (want, after) = match LSRAID_OVERWRITE {
                (exception, answer) if exception == row && name == "lsraid" => answer,
                _ => *answer,
            };
            let want = want.replace("{end}", &v.geometry().total_sectors().to_string());
            if got != (want.clone(), after) {
                wrong.push(format!(
                    "{row}: {name} answers {:?} leaving {:?}; the contract: {want:?} leaving {after:?}",
                    got.0, got.1
                ));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "{} answers break the contract:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}

/// One random step against a zone.
#[derive(Debug, Clone)]
enum Step {
    /// A write of `.1` sectors `.0` sectors past the write pointer.
    Write(u64, u64),
    Append(u64),
    /// A read of `.1` sectors at offset `.0`.
    Read(u64, u64),
    Manage(ZoneMgmtOp),
}

/// A step against one of the first three zones.
fn op_strategy() -> impl Strategy<Value = (u32, Step)> {
    let ops = vec![Open, Close, Finish, Reset];
    let step = prop_oneof![
        6 => (1..48u64).prop_map(|sectors| Step::Write(0, sectors)),
        1 => (1..4u64, 1..8u64).prop_map(|(ahead, sectors)| Step::Write(ahead, sectors)),
        2 => (1..48u64).prop_map(Step::Append),
        2 => (0..CAP, 1..16u64).prop_map(|(off, sectors)| Step::Read(off, sectors)),
        3 => prop::sample::select(ops).prop_map(Step::Manage),
    ];
    (0..3u32, step)
}

impl Step {
    /// Issues the step against `zone`, whose write pointer is `wp`, short
    /// of the capacity for a write. A write lands inside its zone, at or
    /// past the write pointer: lsraid remaps one below it.
    fn issue(&self, v: &dyn ZonedVolume, zone: u32, wp: u64) -> String {
        let start = v.geometry().zone_start(zone);
        match *self {
            Step::Write(ahead, sectors) => {
                let lba = start + (wp + ahead).min(CAP - 1);
                outcome(v.write(T0, lba, &bytes(sectors), CACHED))
            }
            Step::Append(sectors) => outcome(v.append(T0, zone, &bytes(sectors), CACHED)),
            Step::Read(off, sectors) => outcome(v.read(T0, start + off, &mut bytes(sectors))),
            Step::Manage(op) => outcome(v.manage(T0, zone, op)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn targets_agree_step_by_step(ops in prop::collection::vec(op_strategy(), 1..48)) {
        let targets = targets();
        for (i, (z, step)) in ops.iter().enumerate() {
            let wp = zone(targets[0].1.as_ref(), *z).1;
            if wp == CAP && matches!(step, Step::Write(..)) {
                continue;
            }
            let answers: Vec<(String, Vec<(ZoneState, u64)>)> = targets
                .iter()
                .map(|(_, v)| {
                    let v = v.as_ref();
                    (step.issue(v, *z, wp), (0..4).map(|z| zone(v, z)).collect())
                })
                .collect();
            for ((name, _), got) in targets.iter().zip(&answers).skip(1) {
                prop_assert!(
                    got == &answers[0],
                    "step {i} {step:?} on zone {z}: {name} answers {got:?}, the device {:?}",
                    answers[0]
                );
            }
        }
    }
}
