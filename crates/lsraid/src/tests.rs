//! Tests of invariants only the engine's internals can set up.

use super::*;
use zns::array::{DEVICE_ERROR_BUDGET, TRANSIENT_RETRY_LIMIT};
use zns::{FaultOp, FaultPlan, LatencyConfig, ZnsConfig};

const T0: SimTime = SimTime::ZERO;

/// Accounting-only devices: nothing here reads data back.
fn devices(zone_sectors: u64) -> Vec<Arc<ZnsDevice>> {
    (0..5)
        .map(|_| {
            Arc::new(ZnsDevice::new(
                ZnsConfig::builder()
                    .zones(16, zone_sectors, zone_sectors)
                    .open_limits(8, 12)
                    .latency(LatencyConfig::instant())
                    .store_data(false)
                    .build(),
            ))
        })
        .collect()
}

/// The worst case the headroom is sized for: the slot is as full as a
/// commit may leave it, every stream sits mid-stripe, and the largest
/// foreground write — a whole logical zone, entered mid-stripe — seals
/// its stripes and finds no room for their summary. The rotation must
/// fit that batch plus its own three pad-seal entries into what is left
/// of the old slot.
#[test]
fn headroom_covers_a_rotations_own_batch() {
    let vol = LsVolume::format(devices(1024), LsConfig::default(), T0).unwrap();
    let cap = vol.phys.zone_cap();
    let zone = vol.geo.zone_cap();
    let sector = vec![0x5Au8; SECTOR_SIZE as usize];
    let mut inner = vol.inner.lock();
    let inner = &mut *inner;
    for (stream, lzone) in [(HOT, 0u64), (COLD, 2), (COLD + 1, 3)] {
        vol.log_data(inner, T0, &sector, LogMode::User, lzone * zone, stream)
            .unwrap();
    }
    // One-sector records up to the brink: one more would rotate.
    while !vol.slot_full(inner, 1) {
        vol.commit_record(inner, T0, kind::ZONE_FINISH, |_, buf| put_u32(buf, 7))
            .unwrap();
    }
    assert_eq!(inner.meta.epoch, 1);
    let brink = inner.meta.used;
    assert_eq!(brink + vol.meta_headroom, cap);

    let data = vec![0xA5u8; (zone * SECTOR_SIZE) as usize];
    vol.log_data(inner, T0, &data, LogMode::User, zone, HOT)
        .unwrap();
    assert_eq!(inner.meta.epoch, 2, "the write's summary had to rotate");
    assert!(!inner.meta.has_staged());
    // 16 stripes sealed by the write, one pad-seal per stream.
    let batch = meta::record_sectors(19 * meta::summary_entry_bytes(vol.kd as usize));
    assert_eq!(batch, vol.meta_headroom, "the case is the tight one");
    let devices = vol.members.read();
    for dev in 0..vol.meta_devices() {
        assert_eq!(devices.zone_info(dev, 0).unwrap().written(), brink + batch);
    }
    assert_eq!(inner.c_pads, 3 * (vol.kd - 1));
}

/// A reclaimed group goes back to the pool with the state `open_group`
/// relies on and no longer resets: no valid sectors, a reverse map that
/// names none.
#[test]
fn reopened_group_starts_with_an_empty_reverse_map() {
    let vol = LsVolume::format(devices(64), LsConfig::default(), T0).unwrap();
    let group = vol.group_cap;
    let data = vec![0xC3u8; (vol.geo.zone_cap() * SECTOR_SIZE) as usize];
    let mut inner = vol.inner.lock();
    let inner = &mut *inner;
    // Fill the first hot group with four logical zones, then overwrite
    // them: every slot of that group is mapped once and garbage after.
    for pass in 0..2 {
        for lba in (0..group).step_by(data.len() / SECTOR_SIZE as usize) {
            vol.log_data(inner, T0, &data, LogMode::User, lba, HOT)
                .unwrap();
        }
        assert_eq!(inner.groups[0].valid, if pass == 0 { group } else { 0 });
    }
    assert_eq!(inner.groups[0].state, GState::Sealed);
    vol.reclaim_inner(inner, T0, 0).unwrap();
    assert_eq!(inner.groups[0].state, GState::Free);
    // The pool is a stack: the next open takes the group just freed.
    let (g, _) = vol.open_group(inner, T0, COLD).unwrap();
    assert_eq!(g, 0);
    let grp = &inner.groups[0];
    assert_eq!(grp.state, GState::Open(COLD as u8));
    assert_eq!((grp.valid, grp.fill, grp.sealed), (0, 0, 0));
    assert!(grp.lbas.iter().all(|&l| l == UNMAPPED));
}

/// What a member command that exhausted its retries turns into, seen from
/// the volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exhaustion {
    /// The volume op succeeds: the command was omitted (a leg or a reset
    /// of a member the charge degraded) or the read decoded.
    Absorbed,
    /// The transient error surfaces to the caller.
    Surfaces,
}

/// One row per member-command kind, the cases RAIZN's member contract is
/// pinned on: the command under test is the first of its class on member
/// `target` (no metadata replica at either parity) once the plan is in.
struct RetryCase {
    op: FaultOp,
    target: usize,
    /// Brings the array to the point where the op runs.
    setup: fn(&mut Array),
    run: fn(&mut Array) -> Result<()>,
    /// Exhaustion outcome while the member stays in the array.
    exhausted_healthy: Exhaustion,
}

/// A volume over data-keeping members and the bytes its logical sectors
/// should read back.
struct Array {
    devs: Vec<Arc<ZnsDevice>>,
    vol: LsVolume,
    image: Vec<u8>,
    version: u8,
}

impl Array {
    fn new(parity: u32) -> Array {
        let config = ZnsConfig::builder()
            .zones(16, 256, 256)
            .open_limits(8, 12)
            .latency(LatencyConfig::instant())
            .build();
        let devs: Vec<_> = (0..5)
            .map(|_| Arc::new(ZnsDevice::new(config.clone())))
            .collect();
        let vol = LsVolume::format(devs.clone(), LsConfig::default().parity(parity), T0).unwrap();
        Array {
            devs,
            vol,
            image: Vec::new(),
            version: 0,
        }
    }

    /// Writes `sectors` fresh bytes at `lba`, zone by zone.
    fn put(&mut self, lba: u64, sectors: u64) -> Result<()> {
        self.version += 1;
        let zone = self.vol.geo.zone_cap();
        let bytes = |s: u64| (s * SECTOR_SIZE) as usize;
        self.image
            .resize(self.image.len().max(bytes(lba + sectors)), 0);
        for start in (lba..lba + sectors).step_by(zone as usize) {
            let range = bytes(start)..bytes((start + zone).min(lba + sectors));
            self.image[range.clone()].fill(self.version);
            self.vol
                .write(T0, start, &self.image[range], WriteFlags::default())?;
        }
        Ok(())
    }

    /// Reads every logical sector written back.
    fn verify(&mut self) -> Result<()> {
        let mut got = vec![0u8; self.image.len()];
        let zone = (self.vol.geo.zone_cap() * SECTOR_SIZE) as usize;
        for (lba, chunk) in (0..)
            .step_by(zone / SECTOR_SIZE as usize)
            .zip(got.chunks_mut(zone))
        {
            self.vol.read(T0, lba, chunk)?;
        }
        assert!(got == self.image, "read back differs");
        Ok(())
    }
}

const RETRY_CASES: [RetryCase; 4] = [
    // A data leg: member 4 holds a data unit of stripe 0 at both parities.
    RetryCase {
        op: FaultOp::Write,
        target: 4,
        setup: |_| {},
        run: |a| a.put(0, a.vol.kd),
        exhausted_healthy: Exhaustion::Surfaces,
    },
    // A parity leg: P of stripe 3 is on member 3, whose data units of
    // stripes 0..3 land before the plan.
    RetryCase {
        op: FaultOp::Write,
        target: 3,
        setup: |a| {
            a.put(0, 3 * a.vol.kd).unwrap();
            a.vol.flush(T0).unwrap();
        },
        run: |a| a.put(3 * a.vol.kd, a.vol.kd),
        exhausted_healthy: Exhaustion::Surfaces,
    },
    // A read the member cannot serve is decoded from the stripe.
    RetryCase {
        op: FaultOp::Read,
        target: 4,
        setup: |a| {
            a.put(0, a.vol.kd).unwrap();
            a.vol.flush(T0).unwrap();
        },
        run: Array::verify,
        exhausted_healthy: Exhaustion::Absorbed,
    },
    // A reset: reclaiming the first group once every sector it held has
    // been written again.
    RetryCase {
        op: FaultOp::Reset,
        target: 4,
        setup: |a| {
            a.put(0, a.vol.group_cap).unwrap();
            a.put(0, a.vol.group_cap).unwrap();
            a.vol.flush(T0).unwrap();
        },
        run: |a| a.vol.reclaim_group(T0, 0).map(drop),
        exhausted_healthy: Exhaustion::Surfaces,
    },
];

/// The member contract RAIZN pins in `fault_injection.rs`, on lsraid at
/// both parities: a burst up to the retry limit is absorbed uncharged; one
/// more failure charges the member exactly once after exactly `limit`
/// retries, and what the caller sees depends on the command kind and on
/// whether the charge degraded the member — with its budget spent, the
/// member is failed and the volume keeps serving every byte.
#[test]
fn member_command_retry_counts_charges_and_outcomes() {
    let limit = TRANSIENT_RETRY_LIMIT;
    for parity in [1, 2] {
        for case in &RETRY_CASES {
            // (consecutive failures, error budget already spent)
            for (failures, spent) in [(limit, false), (limit + 1, false), (limit + 1, true)] {
                let ctx = format!("p{parity} {} x{failures} spent {spent}", case.op);
                let mut a = Array::new(parity);
                (case.setup)(&mut a);
                let dev = case.target;
                if spent {
                    let devices = a.vol.members.read();
                    (0..DEVICE_ERROR_BUDGET).for_each(|_| devices.charge(dev));
                }
                let plan = (1..=u64::from(failures))
                    .fold(FaultPlan::new(1), |plan, n| plan.fail_nth(case.op, n));
                a.devs[dev].set_fault_plan(plan);

                let result = (case.run)(&mut a);

                let stats = a.vol.stats();
                let exhausted = failures > limit;
                assert_eq!(
                    stats.transient_retries,
                    u64::from(limit.min(failures)),
                    "{ctx}"
                );
                assert_eq!(
                    u64::from(failures),
                    a.devs[dev].stats().injected_transients,
                    "{ctx}: every planned failure was consumed by the one command"
                );
                let degraded = exhausted && spent;
                assert_eq!(stats.auto_degrades, u64::from(degraded), "{ctx}");
                let expect_failed = if degraded { vec![dev] } else { vec![] };
                assert_eq!(a.vol.failed_devices(), expect_failed, "{ctx}");
                let charged = u64::from(exhausted) + if spent { DEVICE_ERROR_BUDGET } else { 0 };
                assert_eq!(a.vol.members.errors(dev), charged, "{ctx}");
                let expect = match (exhausted, degraded) {
                    (false, _) | (true, true) => Exhaustion::Absorbed,
                    (true, false) => case.exhausted_healthy,
                };
                match expect {
                    Exhaustion::Absorbed => {
                        result.unwrap_or_else(|e| panic!("{ctx}: {e}"));
                        a.verify().unwrap_or_else(|e| panic!("{ctx}: serving: {e}"));
                    }
                    Exhaustion::Surfaces => assert!(
                        matches!(result, Err(ZnsError::TransientError { op }) if op == case.op),
                        "{ctx}: {result:?}"
                    ),
                }
            }
        }
    }
}

/// A checkpoint whose map runs do not cover the map exactly fails the
/// mount with an error, never a panic: one newer checkpoint is written
/// into the other slot, well formed or edited after its group table.
#[test]
fn malformed_checkpoint_runs_fail_the_mount() {
    type Edit = fn(&mut Vec<u8>, usize);
    let cases: [(&str, Edit); 5] = [
        ("well formed", |_, _| {}),
        ("zero length", |b, at| {
            drop(b.splice(at..at, [0, 0, 0, 0, 5, 0, 0, 0]))
        }),
        ("overrun", |b, at| {
            let len = meta::get_u32(b, at) + 1;
            b[at..at + 4].copy_from_slice(&len.to_le_bytes());
        }),
        ("under-cover", |b, _| b.truncate(b.len() - 8)),
        ("ragged tail", |b, _| b.extend_from_slice(&[0; 4])),
    ];
    for (what, edit) in cases {
        let mut a = Array::new(1);
        a.put(0, 3 * a.vol.kd + 5).unwrap();
        a.put(7, 9).unwrap();
        a.vol.flush(T0).unwrap();
        let mut buf = vec![0u8; HEADER_BYTES];
        let inner = a.vol.inner.lock();
        a.vol.build_checkpoint(&inner, &mut buf);
        let runs =
            HEADER_BYTES + 32 + inner.lz.len() * 16 + inner.groups.len() * (24 + a.vol.n * 4);
        assert!(buf.len() - runs >= 3 * 8, "{what}: a few runs to edit");
        drop(inner);
        edit(&mut buf, runs);
        finish_record(&mut buf, kind::CHECKPOINT, 2, 0);
        let lba = a.vol.phys.zone_start(1);
        for d in &a.devs[..a.vol.meta_devices()] {
            d.write(T0, lba, &buf, WriteFlags::FUA).unwrap();
        }
        let cfg = a.vol.config.clone();
        drop(a.vol);
        match (what, LsVolume::mount(a.devs, cfg, T0)) {
            ("well formed", Ok(vol)) => assert_eq!(vol.stats().meta_rotations, 2),
            (_, Err(ZnsError::InvalidArgument(m))) if m.contains("mapping runs") => {}
            (_, res) => panic!("{what}: {:?}", res.map(drop)),
        }
    }
}
