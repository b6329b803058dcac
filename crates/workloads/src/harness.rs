//! One correctness harness for every engine (DESIGN.md "Correctness
//! harness").
//!
//! An engine is a [`FaultTarget`]; a [`Pair`] drives one of its volumes and
//! the reference model ([`ZoneModel`]: bytes written, durable watermark) in
//! lock-step and returns `Err` naming the violated invariant, so a test
//! asserts, `crash_sweep` gates and `recovery_matrix` counts classes from
//! the same call. [`Pair::power_cycle`] is the one recovery check,
//! [`oracle`] the one seeded random workload, and [`sweep`] replays a
//! scripted history once per [`Crash`] an enumerator lists
//! ([`pin_points`], [`keep_subsets`], [`random_trials`]).

use lsraid::{LsConfig, LsVolume};
use raizn::{RaiznConfig, RaiznVolume};
use sim::{SimRng, SimTime};
use std::ops::Range;
use std::sync::Arc;
use zns::{
    CrashPolicy, LatencyConfig, Lba, WriteFlags, ZnsConfig, ZnsDevice, ZoneState, ZonedVolume,
    SECTOR_SIZE,
};

const T0: SimTime = SimTime::ZERO;

/// What [`Pair::check`] says of a zone that recovered below its durable
/// watermark (`recovery_matrix` recognises ROADMAP "Residual (ii)" by it).
pub const LOST_DURABLE: &str = "lost durable data";

/// Flags of a plain write: cached until a flush, a FUA or a finish.
pub const CACHED: WriteFlags = WriteFlags {
    fua: false,
    preflush: false,
};

/// `ZnsConfig::small_test` geometry with roomier zone limits (8 open, 12
/// active): four data zones stay active on top of RAIZN's metadata zones,
/// and lsraid's streams fit, where small_test's 6-active budget overflows
/// during recovery.
pub fn roomy_config() -> ZnsConfig {
    ZnsConfig::builder()
        .zones(16, 64, 64)
        .open_limits(8, 12)
        .latency(LatencyConfig::instant())
        .build()
}

/// The member pairs PR 21's recovery matrix mounts a dual-parity array
/// without: neighbours, one and two apart, with and without the first and
/// last member.
pub const ABSENT_PAIRS: [[usize; 2]; 4] = [[0, 2], [1, 3], [1, 4], [2, 3]];

/// An engine under fault injection: how to bring a volume up on a set of
/// members, and what it promises to survive.
pub trait FaultTarget {
    /// The engine's volume.
    type Volume: ZonedVolume;

    /// Engine and parity level, for failure messages.
    fn name(&self) -> String;

    /// Formats a fresh array.
    ///
    /// # Errors
    ///
    /// Propagates the engine's format failure.
    fn format(&self, members: Vec<Arc<ZnsDevice>>) -> zns::Result<Self::Volume>;

    /// Mounts after a power loss; failed members are absent.
    ///
    /// # Errors
    ///
    /// Propagates the engine's mount failure.
    fn mount(&self, members: Vec<Arc<ZnsDevice>>) -> zns::Result<Self::Volume>;

    /// Attaches a trace recorder to a freshly formatted or mounted volume.
    fn attach(&self, vol: &Self::Volume, recorder: Arc<obs::Recorder>);

    /// Members a mount may find absent.
    fn tolerates(&self) -> usize;

    /// Scrubs the array; the count of stripes found damaged.
    ///
    /// # Errors
    ///
    /// Propagates the engine's scrub failure.
    fn scrub_damage(&self, vol: &Self::Volume) -> zns::Result<u64>;

    /// Rebuilds one absent member onto `replacement`.
    ///
    /// # Errors
    ///
    /// Propagates the engine's rebuild failure.
    fn rebuild(&self, vol: &Self::Volume, replacement: Arc<ZnsDevice>) -> zns::Result<()>;

    /// The member holding written logical sector `lba` and the physical
    /// sectors of the stripe unit it lies in, where a fault plan can aim.
    fn locate(&self, vol: &Self::Volume, lba: Lba) -> (usize, Range<Lba>);
}

/// RAIZN (parity 1) and RAIZN-2 (parity 2).
pub struct Raizn(pub RaiznConfig);

impl Raizn {
    /// `RaiznConfig::small_test` at `parity` (1 or 2).
    pub fn small(parity: u32) -> Raizn {
        Raizn(RaiznConfig {
            parity,
            ..RaiznConfig::small_test()
        })
    }

    /// [`small`](Self::small) logging the full running parity unit on
    /// every partial write (`pp_log_full_unit`, the §5.1 ablation).
    pub fn small_full_unit(parity: u32) -> Raizn {
        Raizn(RaiznConfig {
            pp_log_full_unit: true,
            ..Self::small(parity).0
        })
    }
}

impl FaultTarget for Raizn {
    type Volume = RaiznVolume;

    fn name(&self) -> String {
        let mode = if self.0.pp_log_full_unit {
            " full-unit"
        } else {
            ""
        };
        format!("raizn p{}{mode}", self.0.parity)
    }
    fn format(&self, members: Vec<Arc<ZnsDevice>>) -> zns::Result<RaiznVolume> {
        RaiznVolume::format(members, self.0, T0)
    }
    fn mount(&self, members: Vec<Arc<ZnsDevice>>) -> zns::Result<RaiznVolume> {
        RaiznVolume::mount(members, self.0, T0)
    }
    fn attach(&self, vol: &RaiznVolume, recorder: Arc<obs::Recorder>) {
        vol.set_recorder(recorder);
    }
    fn tolerates(&self) -> usize {
        self.0.parity as usize
    }
    fn scrub_damage(&self, vol: &RaiznVolume) -> zns::Result<u64> {
        let rep = vol.scrub(T0)?;
        Ok(rep.parity_repairs + rep.units_healed)
    }
    fn rebuild(&self, vol: &RaiznVolume, replacement: Arc<ZnsDevice>) -> zns::Result<()> {
        vol.rebuild(T0, replacement).map(|_| ())
    }
    fn locate(&self, vol: &RaiznVolume, lba: Lba) -> (usize, Range<Lba>) {
        let (layout, loc) = (vol.layout(), vol.layout().locate(lba));
        let (dev, pba) = layout.device_pba(loc);
        let start = pba - loc.within_unit;
        (dev as usize, start..start + layout.stripe_unit())
    }
}

/// The log-structured engine (parity 1 or 2).
pub struct Ls(pub LsConfig);

impl Ls {
    /// `LsConfig::default` at `parity` (1 or 2).
    pub fn small(parity: u32) -> Ls {
        Ls(LsConfig::default().parity(parity))
    }
}

impl FaultTarget for Ls {
    type Volume = LsVolume;

    fn name(&self) -> String {
        format!("lsraid p{}", self.0.parity)
    }
    fn format(&self, members: Vec<Arc<ZnsDevice>>) -> zns::Result<LsVolume> {
        LsVolume::format(members, self.0.clone(), T0)
    }
    fn mount(&self, members: Vec<Arc<ZnsDevice>>) -> zns::Result<LsVolume> {
        LsVolume::mount(members, self.0.clone(), T0)
    }
    fn attach(&self, vol: &LsVolume, recorder: Arc<obs::Recorder>) {
        vol.set_recorder(recorder);
    }
    fn tolerates(&self) -> usize {
        self.0.parity as usize
    }
    fn scrub_damage(&self, vol: &LsVolume) -> zns::Result<u64> {
        let rep = vol.scrub(T0)?;
        Ok(rep.parity_errors + rep.q_errors + rep.units_healed)
    }
    fn rebuild(&self, vol: &LsVolume, replacement: Arc<ZnsDevice>) -> zns::Result<()> {
        vol.rebuild(T0, replacement).map(|_| ())
    }
    fn locate(&self, vol: &LsVolume, lba: Lba) -> (usize, Range<Lba>) {
        vol.locate(lba).expect("a written sector is mapped")
    }
}

/// Reference state of one logical zone.
#[derive(Debug, Clone, Default)]
pub struct ZoneModel {
    /// Everything written since the last reset, in order.
    pub data: Vec<u8>,
    /// Sectors acknowledged as durable (flush, FUA, finish, power cycle).
    pub durable: u64,
    /// Sealed: accepts no write until reset.
    pub finished: bool,
}

impl ZoneModel {
    /// Sectors written since the last reset.
    pub fn written(&self) -> u64 {
        self.data.len() as u64 / SECTOR_SIZE
    }
}

/// What one member's write cache does at a power loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loss {
    /// Every cached sector survives.
    Keep,
    /// Only flushed sectors survive.
    Lose,
    /// Device zone `zone` survives to `survivor` sectors; the member's
    /// other zones keep their cache, or lose it with `lose_rest`.
    Pin {
        /// The pinned device zone.
        zone: u32,
        /// Its surviving write pointer.
        survivor: u64,
        /// Whether the member's other zones lose their cache.
        lose_rest: bool,
    },
    /// Every zone rolls its own survivor from stream `stream` of `seed`.
    Random {
        /// RNG seed.
        seed: u64,
        /// RNG stream (one per member and trial).
        stream: u64,
    },
}

impl Loss {
    fn policy(self) -> CrashPolicy {
        match self {
            Loss::Keep => CrashPolicy::KeepCache,
            Loss::Lose => CrashPolicy::LoseCache,
            Loss::Pin {
                zone,
                survivor,
                lose_rest: false,
            } => CrashPolicy::pin_zone(zone, survivor),
            Loss::Pin { zone, survivor, .. } => CrashPolicy::pin_zone_lose_rest(zone, survivor),
            Loss::Random { seed, stream } => CrashPolicy::Random(SimRng::new_stream(seed, stream)),
        }
    }
}

/// One power loss: a cache policy per member, then the members a mount
/// finds absent.
#[derive(Debug, Clone)]
pub struct Crash {
    /// Names the crash in failure messages.
    pub point: String,
    /// Member `i`'s cache policy.
    pub policy: Vec<Loss>,
    /// Members lost with the power.
    pub absent: Vec<usize>,
}

impl Crash {
    /// Every one of `members` members under the same `loss`, none absent.
    pub fn uniform(point: impl Into<String>, loss: Loss, members: usize) -> Crash {
        Crash {
            point: point.into(),
            policy: vec![loss; members],
            absent: Vec::new(),
        }
    }

    /// The same crash, also losing `absent`.
    #[must_use]
    pub fn without(mut self, absent: &[usize]) -> Crash {
        self.absent = absent.to_vec();
        self.point = format!("{} absent {absent:?}", self.point);
        self
    }
}

/// Per member, per device zone: the surviving write pointers a power loss
/// could leave, `durable..wp`.
pub type Cached = Vec<Vec<Range<u64>>>;

fn ctx<V>(result: zns::Result<V>, what: &str) -> Result<V, String> {
    result.map_err(|e| format!("{what} failed: {e}"))
}

/// A volume and its reference model, driven in lock-step.
pub struct Pair<'a, T: FaultTarget> {
    /// The array's members (replaced in place by a rebuild).
    pub members: Vec<Arc<ZnsDevice>>,
    /// The live volume; engine-specific hooks go through it directly and
    /// then bring `model` up to date.
    pub vol: Arc<T::Volume>,
    /// One entry per logical zone.
    pub model: Vec<ZoneModel>,
    target: &'a T,
    /// Each member's cached ranges at the first power loss (what
    /// [`pin_points`] enumerates).
    cached: Option<Cached>,
    fresh: &'a dyn Fn() -> Vec<Arc<ZnsDevice>>,
    /// Attached recorder and the first sequence number of the open flush
    /// window.
    trace: Option<(Arc<obs::Recorder>, u64)>,
    payloads: u64,
}

impl<'a, T: FaultTarget> Pair<'a, T> {
    /// Formats a volume of `target` on `fresh()` members.
    ///
    /// # Errors
    ///
    /// Names the format failure.
    pub fn format(
        target: &'a T,
        fresh: &'a dyn Fn() -> Vec<Arc<ZnsDevice>>,
    ) -> Result<Self, String> {
        let members = fresh();
        let vol = Arc::new(ctx(target.format(members.clone()), "format")?);
        let model = vec![ZoneModel::default(); vol.geometry().num_zones() as usize];
        Ok(Pair {
            target,
            members,
            vol,
            model,
            cached: None,
            fresh,
            trace: None,
            payloads: 0,
        })
    }

    /// Attaches `recorder` to the volume (and to every volume a later
    /// mount brings up); [`flush`](Self::flush) then checks its trace.
    pub fn attach(&mut self, recorder: Arc<obs::Recorder>) {
        self.target.attach(&self.vol, recorder.clone());
        self.trace = Some((recorder.clone(), recorder.next_seq()));
    }

    /// `sectors` of bytes no earlier payload of this pair had.
    pub fn payload(&mut self, sectors: u64) -> Vec<u8> {
        self.payloads += 1;
        let mut data = vec![0u8; (sectors * SECTOR_SIZE) as usize];
        SimRng::new(0x9A71_0AD5 ^ self.payloads).fill_bytes(&mut data);
        data
    }

    fn start(&self, zone: u32) -> u64 {
        self.vol.geometry().zone_start(zone)
    }

    fn wrote(&mut self, zone: u32, data: &[u8], flags: WriteFlags) {
        if flags.preflush {
            self.all_durable();
        }
        let m = &mut self.model[zone as usize];
        m.data.extend_from_slice(data);
        if flags.fua {
            m.durable = m.written();
        }
    }

    fn all_durable(&mut self) {
        for m in &mut self.model {
            m.durable = m.written();
        }
    }

    /// Writes `sectors` at `zone`'s write pointer (nothing when zero).
    ///
    /// # Errors
    ///
    /// Names the write failure.
    pub fn write(&mut self, zone: u32, sectors: u64, flags: WriteFlags) -> Result<(), String> {
        if sectors == 0 {
            return Ok(());
        }
        let data = self.payload(sectors);
        let lba = self.start(zone) + self.model[zone as usize].written();
        ctx(self.vol.write(T0, lba, &data, flags), "write")?;
        self.wrote(zone, &data, flags);
        Ok(())
    }

    /// Writes `sectors` at `zone`'s write pointer in writes of `step`.
    ///
    /// # Errors
    ///
    /// Names the write failure.
    pub fn write_in(&mut self, zone: u32, sectors: u64, step: u64) -> Result<(), String> {
        for done in (0..sectors).step_by(step as usize) {
            self.write(zone, step.min(sectors - done), CACHED)?;
        }
        Ok(())
    }

    /// Zone-appends `sectors` to `zone`.
    ///
    /// # Errors
    ///
    /// Names the append failure, or an LBA other than the write pointer.
    pub fn append(&mut self, zone: u32, sectors: u64, flags: WriteFlags) -> Result<(), String> {
        let data = self.payload(sectors);
        let want = self.start(zone) + self.model[zone as usize].written();
        let got = ctx(self.vol.append(T0, zone, &data, flags), "append")?.lba;
        if got != want {
            return Err(format!("append to zone {zone} landed at {got}, not {want}"));
        }
        self.wrote(zone, &data, flags);
        Ok(())
    }

    /// Flushes the volume: everything written is durable. With a recorder
    /// attached, every device write of the flush window must precede the
    /// flush span that persisted it.
    ///
    /// # Errors
    ///
    /// Names the flush failure or the out-of-order trace.
    pub fn flush(&mut self) -> Result<(), String> {
        ctx(self.vol.flush(T0), "flush")?;
        self.all_durable();
        let Some((recorder, cursor)) = &mut self.trace else {
            return Ok(());
        };
        let events = recorder.events_since(*cursor);
        *cursor = recorder.next_seq();
        let last = |keep: &dyn Fn(&obs::TraceEvent) -> bool| {
            events.iter().filter(|e| keep(e)).map(|e| e.seq).max()
        };
        let write = last(&|e| {
            e.stage == obs::Stage::DeviceIo
                && matches!(e.op, obs::OpClass::Write | obs::OpClass::Append)
        });
        match (write, last(&|e| e.stage == obs::Stage::Flush)) {
            (Some(w), Some(f)) if f < w => Err(format!(
                "flush span (seq {f}) does not follow the device writes it persists (seq {w})"
            )),
            (Some(_), None) => Err("flush window with device writes has no flush span".into()),
            _ => Ok(()),
        }
    }

    /// Resets `zone`.
    ///
    /// # Errors
    ///
    /// Names the reset failure.
    pub fn reset(&mut self, zone: u32) -> Result<(), String> {
        ctx(self.vol.reset_zone(T0, zone), "reset")?;
        self.model[zone as usize] = ZoneModel::default();
        Ok(())
    }

    /// Finishes `zone`: sealed, and its prefix durable — unless it was full
    /// already, which a finish leaves as it is (DESIGN.md "Zone contract").
    ///
    /// # Errors
    ///
    /// Names the finish failure.
    pub fn finish(&mut self, zone: u32) -> Result<(), String> {
        ctx(self.vol.finish_zone(T0, zone), "finish")?;
        let cap = self.vol.geometry().zone_cap();
        let m = &mut self.model[zone as usize];
        if !m.finished && m.written() < cap {
            m.durable = m.written();
        }
        m.finished = true;
        if let Some((recorder, cursor)) = &mut self.trace {
            *cursor = recorder.next_seq();
        }
        Ok(())
    }

    /// Reads `sectors` at offset `off` of `zone`; they must be the model's.
    ///
    /// # Errors
    ///
    /// Names the read failure or the divergence.
    pub fn read(&self, zone: u32, off: u64, sectors: u64) -> Result<(), String> {
        let mut out = vec![0u8; (sectors * SECTOR_SIZE) as usize];
        ctx(self.vol.read(T0, self.start(zone) + off, &mut out), "read")?;
        if out[..] != self.model[zone as usize].data[(off * SECTOR_SIZE) as usize..][..out.len()] {
            return Err(format!("zone {zone} sectors {off}+{sectors} diverged"));
        }
        Ok(())
    }

    /// Power loss: each member's cache meets its policy, the absent
    /// members fail, the survivors mount, and [`check`](Self::check)
    /// settles the model on what recovery kept.
    ///
    /// # Errors
    ///
    /// Names the mount failure or the violated recovery invariant.
    pub fn power_cycle(&mut self, crash: &Crash) -> Result<(), String> {
        self.cached.get_or_insert_with(|| {
            let zones = 0..self.members[0].geometry().num_zones();
            let range = |d: &ZnsDevice, z| {
                let info = d.zone_info(z).expect("zone in range");
                d.durable_wp(z)..info.write_pointer - info.start
            };
            let per_member = |d: &Arc<ZnsDevice>| zones.clone().map(|z| range(d, z)).collect();
            self.members.iter().map(per_member).collect()
        });
        for (member, loss) in self.members.iter().zip(&crash.policy) {
            member.crash(&mut loss.policy());
        }
        for &a in &crash.absent {
            self.members[a].fail();
        }
        let vol = self.target.mount(self.members.clone());
        self.vol = Arc::new(vol.map_err(|e| format!("mount fails: {e}"))?);
        if let Some((recorder, _)) = &self.trace {
            self.target.attach(&self.vol, recorder.clone());
        }
        self.check()?;
        if let Some((recorder, cursor)) = &mut self.trace {
            *cursor = recorder.next_seq();
        }
        Ok(())
    }

    /// The recovery check, per zone in order: the write pointer is not
    /// below the durable watermark, not above what was written, and
    /// everything below it reads back as written; then, with every member
    /// present, a scrub finds nothing to repair. The model adopts what
    /// survived: a power cycle makes it durable.
    ///
    /// # Errors
    ///
    /// Names the first violated invariant.
    pub fn check(&mut self) -> Result<(), String> {
        for (z, m) in self.model.iter_mut().enumerate() {
            let info = ctx(self.vol.zone_info(z as u32), "zone_info")?;
            let (wp, durable, written) = (info.write_pointer - info.start, m.durable, m.written());
            if wp < durable {
                return Err(format!(
                    "zone {z} {LOST_DURABLE} (wp {wp} < durable {durable})"
                ));
            }
            if wp > written {
                return Err(format!(
                    "zone {z} invented data (wp {wp} > written {written})"
                ));
            }
            let mut out = vec![0u8; (wp * SECTOR_SIZE) as usize];
            if wp > 0 {
                self.vol
                    .read(T0, info.start, &mut out)
                    .map_err(|e| format!("zone {z} unreadable below wp {wp}: {e}"))?;
            }
            if out[..] != m.data[..out.len()] {
                return Err(format!(
                    "zone {z} recovered data is not the written prefix (wp {wp})"
                ));
            }
            m.data.truncate(out.len());
            (m.durable, m.finished) = (wp, info.state == ZoneState::Full);
        }
        if self.members.iter().any(|d| d.is_failed()) {
            return Ok(());
        }
        match ctx(self.target.scrub_damage(&self.vol), "scrub")? {
            0 => Ok(()),
            n => Err(format!("scrub found {n} damaged stripes after recovery")),
        }
    }

    /// With members absent: rebuilds each onto a fresh replacement, then
    /// [`check`](Self::check)s again — scrubbed this time.
    ///
    /// # Errors
    ///
    /// Names the rebuild failure or the violated invariant.
    pub fn rebuild_absent(&mut self) -> Result<(), String> {
        let absent: Vec<usize> = (0..self.members.len())
            .filter(|&i| self.members[i].is_failed())
            .collect();
        for &i in &absent {
            self.members[i] = (self.fresh)().swap_remove(i);
            let rebuilt = self.target.rebuild(&self.vol, self.members[i].clone());
            ctx(rebuilt, &format!("rebuild of member {i}"))?;
        }
        match absent.is_empty() {
            true => Ok(()),
            false => self.check(),
        }
    }
}

/// The seeded differential oracle: `ops` random operations — sequential
/// writes (some FUA, some preflush), zone appends, reads, flushes, resets,
/// finishes and up to `max_crashes` power cycles under a random policy per
/// member, each followed by the rest of the run on the recovered state —
/// against a five-member array of `config` devices, ending in one more
/// power cycle if none fell, a flush and a last check. Returns the
/// recorder that traced the run.
///
/// # Errors
///
/// Names engine, seed and op index (which replay the failure) and the
/// violated invariant.
pub fn oracle<T: FaultTarget>(
    target: &T,
    config: &ZnsConfig,
    seed: u64,
    ops: u32,
    max_crashes: u64,
) -> Result<Arc<obs::Recorder>, String> {
    let recorder = obs::Recorder::new(1 << 16, 1);
    let fresh = || {
        let member = |i| {
            let dev = Arc::new(ZnsDevice::new(config.clone()));
            dev.set_recorder(recorder.clone(), i);
            dev
        };
        (0..5).map(member).collect()
    };
    let at = |op: u32, e: String| format!("{} seed {seed:#x} op {op}: {e}", target.name());
    let mut pair = Pair::format(target, &fresh).map_err(|e| at(0, e))?;
    pair.attach(recorder.clone());
    // As many zones as a member's active-zone budget leaves beside three
    // metadata zones, at most four.
    let zones = u64::from((config.max_active_zones() - 3).min(4));
    let cap = pair.vol.geometry().zone_cap();
    let mut rng = SimRng::new(seed);
    let mut crashes = 0;
    let random = |nth| random_crash(5, seed ^ 0xC7A5, nth);
    for op in 0..ops {
        let z = rng.gen_range(zones) as u32;
        let (written, finished) = {
            let m = &pair.model[z as usize];
            (m.written(), m.finished)
        };
        let step = match rng.gen_range(100) {
            0..=54 if finished || written == cap => pair.reset(z),
            0..=54 => {
                let sectors = 1 + rng.gen_range((cap - written).min(16));
                let flags = WriteFlags {
                    fua: rng.gen_range(4) == 0,
                    preflush: rng.gen_range(10) == 0,
                };
                if rng.gen_range(8) == 0 {
                    pair.append(z, sectors, flags)
                } else {
                    pair.write(z, sectors, flags)
                }
            }
            55..=69 if written > 0 => {
                let off = rng.gen_range(written);
                pair.read(z, off, 1 + rng.gen_range((written - off).min(16)))
            }
            70..=77 => pair.flush(),
            78..=83 => pair.reset(z),
            84..=87 if written > 0 && !finished => pair.finish(z),
            88..=99 if crashes < max_crashes => {
                crashes += 1;
                pair.power_cycle(&random(crashes))
            }
            _ => Ok(()),
        };
        step.map_err(|e| at(op, e))?;
    }
    if crashes == 0 && max_crashes > 0 {
        pair.power_cycle(&random(1)).map_err(|e| at(ops, e))?;
    }
    pair.flush()
        .and_then(|()| pair.check())
        .map_err(|e| at(ops, e))?;
    Ok(recorder)
}

/// Every subset of `members` members a mount may find absent: none, then
/// each set of up to `tolerates`.
pub fn absent_sets(members: usize, tolerates: usize) -> Vec<Vec<usize>> {
    let mut sets = vec![Vec::new()];
    let mut from = 0;
    for _ in 0..tolerates {
        let grown = sets.len();
        for i in from..grown {
            let after = sets[i].last().map_or(0, |last| last + 1);
            for next in after..members {
                sets.push([&sets[i][..], &[next]].concat());
            }
        }
        from = grown;
    }
    sets
}

/// The absent sets of PR 21's recovery matrix on five members: none, then
/// each single member, or each of [`ABSENT_PAIRS`] (a pair covers what
/// either member alone would).
pub fn matrix_absent_sets(tolerates: usize) -> Vec<Vec<usize>> {
    match tolerates {
        2 => [vec![]]
            .into_iter()
            .chain(ABSENT_PAIRS.map(Vec::from))
            .collect(),
        t => absent_sets(5, t),
    }
}

/// Enumerator: every zone of every member pinned at every survivor in
/// `[durable, wp)` while the rest of the array keeps, then loses, its
/// cache — after the two extremes (everything kept, everything lost).
pub fn pin_points(cached: &Cached) -> Vec<Crash> {
    let members = cached.len();
    let mut crashes = vec![
        Crash::uniform("keep-cache", Loss::Keep, members),
        Crash::uniform("lose-cache", Loss::Lose, members),
    ];
    for (d, zones) in cached.iter().enumerate() {
        for (zone, range) in zones.iter().enumerate() {
            for survivor in range.clone() {
                for (mode, rest, lose_rest) in
                    [("pin", Loss::Keep, false), ("pin+lose", Loss::Lose, true)]
                {
                    let point = format!("{mode} dev {d} zone {zone} survivor {survivor}");
                    let mut crash = Crash::uniform(point, rest, members);
                    crash.policy[d] = Loss::Pin {
                        zone: zone as u32,
                        survivor,
                        lose_rest,
                    };
                    crashes.push(crash);
                }
            }
        }
    }
    crashes
}

/// Enumerator: every subset of `members` members keeping its cache while
/// the others lose theirs, crossed with every set of `absent`.
pub fn keep_subsets(members: usize, absent: &[Vec<usize>]) -> Vec<Crash> {
    let mut crashes = Vec::new();
    for keep in 0..1u32 << members {
        for set in absent {
            let mut crash = Crash::uniform(format!("keep {keep:05b}"), Loss::Lose, members);
            for (i, loss) in crash.policy.iter_mut().enumerate() {
                if keep & (1 << i) != 0 {
                    *loss = Loss::Keep;
                }
            }
            crashes.push(crash.without(set));
        }
    }
    crashes
}

fn random_crash(members: usize, seed: u64, trial: u64) -> Crash {
    let mut crash = Crash::uniform(format!("random trial {trial}"), Loss::Keep, members);
    for (i, loss) in crash.policy.iter_mut().enumerate() {
        let stream = trial * members as u64 + i as u64;
        *loss = Loss::Random { seed, stream };
    }
    crash
}

/// Enumerator: `trials` whole-array crashes in which every zone of every
/// member rolls its own survivor.
pub fn random_trials(members: usize, seed: u64, trials: u64) -> Vec<Crash> {
    (0..trials)
        .map(|t| random_crash(members, seed, t))
        .collect()
}

/// Replays `history` on `fresh()` members once per crash of `enumerate`.
/// A history drives its [`Pair`], calls [`Pair::power_cycle`] with the
/// crash it is handed where the power fails, and may go on from there (a
/// second power cycle, a rebuild). The first replay loses nothing; the
/// cached ranges it finds at its power cycle are what `enumerate` is
/// given. Returns the crashes enumerated and, of those that went wrong,
/// the crash and the violated invariant.
///
/// # Errors
///
/// Names the violation when the loss-free replay itself goes wrong.
pub fn sweep<T: FaultTarget>(
    target: &T,
    fresh: &dyn Fn() -> Vec<Arc<ZnsDevice>>,
    history: impl Fn(&mut Pair<T>, &Crash) -> Result<(), String>,
    enumerate: impl FnOnce(&Cached) -> Vec<Crash>,
) -> Result<(usize, Vec<(Crash, String)>), String> {
    let replay = |crash: &Crash| -> Result<Pair<T>, String> {
        let mut pair = Pair::format(target, fresh)?;
        history(&mut pair, crash)?;
        Ok(pair)
    };
    let members = fresh().len();
    let baseline = replay(&Crash::uniform("baseline", Loss::Keep, members))
        .map_err(|e| format!("{} baseline: {e}", target.name()))?;
    let crashes = enumerate(&baseline.cached.unwrap_or_default());
    let bad = crashes.iter().filter_map(|crash| {
        let violation = replay(crash).err()?;
        Some((crash.clone(), violation))
    });
    Ok((crashes.len(), bad.collect()))
}
