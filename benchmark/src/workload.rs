//! The four workloads: what each builds during set-up and which closed-loop
//! job mix one repetition runs.
//!
//! Every workload is a fixed set of fio-style jobs (job count × queue
//! depth × op count, never a time limit), so a repetition's virtual-time
//! results depend on the seed alone. The seed reaches only the generators:
//! which zone group each job gets, the jitter on each job's op count, the
//! engine's random offsets, the failed device pair and the skewed overwrite
//! sequence.

use crate::probe::{Probe, ProbeScheduler, ProbeTarget};
use crate::verify::PatternTarget;
use bench::lsgc::{overwrite_offsets, BLOCK};
use lsraid::{GcConfig, GcManager, GcSink, LsConfig, LsVolume};
use qos::{QosConfig, QosScheduler, TenantSpec};
use raizn::{RaiznConfig, RaiznVolume};
use sim::{SimDuration, SimRng, SimTime};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workloads::{
    Admission, Engine, IoTarget, JobSpec, OpKind, Pattern, RunReport, SchedCompletion,
    SharedScheduler, TenantId, ZonedTarget,
};
use zns::{
    CrashPolicy, DeviceStats, LatencyConfig, Lba, Result, ZnsConfig, ZnsDevice, ZnsError,
    ZonedVolume, SECTOR_SIZE,
};

/// Members per array (the paper's testbed).
pub const DEVICES: usize = 5;
/// Stripe unit in sectors: 64 KiB, the paper's and the repo's default.
pub const STRIPE_UNIT: u64 = 16;
/// Throughput window for the flatness metric (the paper's fig-10 sampling).
pub const WINDOW: SimDuration = SimDuration::from_millis(100);

/// Over-provisioning of the log-structured array. At the engine's default
/// of 0.20 this overwrite pattern is not sustainable: write amplification
/// climbs for some 80 000 overwrites until the collector's ceiling is
/// passed, the free pool drains, and writes reclaim inline — a path that
/// panics today (README, "Known defects"). `lsgc` stops after 28 672
/// overwrites and never gets there; a benchmark that runs for as long as
/// `--seconds` says must not either.
const LSRAID_OP_RATIO: f64 = 0.35;

/// The `lsgc` scenario's collector policy with 160 instead of 112 sectors
/// of migration budget per pump: with the over-provisioning above the free
/// pool then settles at 6 to 8 groups (4 at 112, two above the inline
/// reserve) and every reclaim stays in the background, for 120 repetitions
/// as for 5.
fn gc_config() -> GcConfig {
    GcConfig {
        budget_sectors: 160,
        ..bench::lsgc::gc_config()
    }
}

const APP: TenantId = 0;
const SCAN: TenantId = 1;
const GC: TenantId = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SeqFull,
    SmallMixed,
    Raizn2Degraded,
    LsraidGcQos,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::SeqFull,
        Kind::SmallMixed,
        Kind::Raizn2Degraded,
        Kind::LsraidGcQos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SeqFull => "seq_full",
            Kind::SmallMixed => "small_mixed",
            Kind::Raizn2Degraded => "raizn2_degraded",
            Kind::LsraidGcQos => "lsraid_gc_qos",
        }
    }

    /// Why the workload exists: the one line `BENCHMARK.json` carries.
    pub fn why(self) -> &'static str {
        match self {
            Kind::SeqFull => {
                "full-stripe sequential writes beside 256 KiB reads on RAIZN: XOR parity and \
                 stripe-buffer fill do the host work; pp-log, metadata GC, qos, GF and lsraid idle"
            }
            Kind::SmallMixed => {
                "4 KiB log, coalesced 16 KiB batch and 4 KiB random-read tenants behind qos on \
                 RAIZN: per-op cost of qos, pp-log, metadata appends and GC; parity kernel idle"
            }
            Kind::Raizn2Degraded => {
                "dual-parity RAIZN with two members failed: degraded full-stripe writes beside \
                 two-erasure 64 KiB reads; GF(2^8) kernels do most host work, nowhere else used"
            }
            Kind::LsraidGcQos => {
                "skewed 1 MiB overwrites and 64 KiB reads behind qos on full aged log-structured \
                 RAID with GC as weight-1 tenant: only lsraid map, GC and zone resets work, core idle"
            }
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn parity(self) -> u32 {
        match self {
            Kind::Raizn2Degraded => 2,
            _ => 1,
        }
    }
}

/// `Full` is what the timed and traced repetitions run. `Small` is the
/// same job mix at 1/50 of the ops on a 1/32-size array: the verify pass
/// (where the devices carry data) and the unit smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

impl Size {
    fn ops(self, full: u64) -> u64 {
        match self {
            Size::Full => full,
            Size::Small => (full / 50).max(8),
        }
    }

    /// (zones per device, sectors per zone, logical zones per job region)
    /// of the RAIZN arrays.
    fn raizn_geometry(self) -> (u32, u64, u64) {
        match self {
            Size::Full => (64, 4096, 8),
            Size::Small => (16, 512, 2),
        }
    }

    /// (zones per device, sectors per zone) of the log-structured array;
    /// `Full` is the geometry of the repo's `lsgc` scenario.
    fn lsraid_geometry(self) -> (u32, u64) {
        match self {
            Size::Full => (bench::lsgc::ZONES, bench::lsgc::ZONE_SECTORS),
            Size::Small => (32, 256),
        }
    }
}

pub enum Volume {
    Raizn(Arc<RaiznVolume>),
    Ls(Arc<LsVolume>),
}

impl Volume {
    fn target(&self) -> Arc<dyn IoTarget> {
        match self {
            Volume::Raizn(v) => Arc::new(ZonedTarget::new(v.clone())),
            Volume::Ls(v) => Arc::new(ZonedTarget::overwriting(v.clone())),
        }
    }

    fn zone_cap(&self) -> u64 {
        match self {
            Volume::Raizn(v) => v.geometry().zone_cap(),
            Volume::Ls(v) => v.geometry().zone_cap(),
        }
    }
}

/// Host and virtual cost of one crash recovery.
#[derive(Debug, Clone, Copy, Default)]
pub struct MountCost {
    pub host_ms: f64,
    pub virt_ms: f64,
}

/// Host and virtual cost of rebuilding one replaced member.
#[derive(Debug, Clone, Copy, Default)]
pub struct RebuildCost {
    pub host_s: f64,
    pub virt_mib_s: f64,
}

/// What one repetition did.
#[derive(Debug, Clone)]
pub struct RepReport {
    pub ops: u64,
    pub bytes: u64,
    pub write_sectors: u64,
    /// Ops the scheduler refused at admission (counted as failed).
    pub shed: u64,
    pub start: SimTime,
    pub end: SimTime,
    pub wall_s: f64,
    /// MiB/s of each whole [`WINDOW`] inside the repetition (the partial
    /// first and last windows are dropped).
    pub windows_mib_s: Vec<f64>,
}

/// One built array with its scheduler, ready to run repetitions that
/// continue each other's virtual clock.
pub struct Instance {
    pub kind: Kind,
    size: Size,
    seed: u64,
    pub devices: Vec<Arc<ZnsDevice>>,
    pub volume: Volume,
    /// What IO goes through: volume adapter, pattern check (verify), probe.
    target: Arc<dyn IoTarget>,
    pub pattern: Option<Arc<PatternTarget>>,
    pub sched: Option<Arc<QosScheduler>>,
    gc: Option<GcManager>,
    pub probe: Arc<Probe>,
    recorder: Option<Arc<obs::Recorder>>,
    /// Dense sector ranges of the seed-shuffled job regions.
    regions: Vec<(u64, u64)>,
    pub now: SimTime,
    reps: u64,
}

fn devices(zones: u32, zone_sectors: u64, store_data: bool) -> Vec<Arc<ZnsDevice>> {
    (0..DEVICES)
        .map(|_| {
            Arc::new(ZnsDevice::new(
                ZnsConfig::builder()
                    .zones(zones, zone_sectors, zone_sectors)
                    .open_limits(14, 28)
                    .latency(LatencyConfig::zns_ssd())
                    .store_data(store_data)
                    .build(),
            ))
        })
        .collect()
}

/// A closed-loop job mix. `JobSpec` keeps its fields private, so what the
/// harness needs back (which jobs write, how many `app` overwrites there
/// are) is kept beside the specs.
#[derive(Default)]
struct Mix {
    jobs: Vec<JobSpec>,
    writes: Vec<bool>,
    /// Ops of the `app` tenant of `lsraid_gc_qos` (0 elsewhere).
    app_ops: u64,
}

impl Mix {
    #[allow(clippy::too_many_arguments)]
    fn job(
        mut self,
        kind: OpKind,
        pattern: Pattern,
        block: u64,
        qd: usize,
        region: (u64, u64),
        ops: u64,
        tenant: TenantId,
    ) -> Mix {
        self.jobs.push(
            JobSpec::new(kind, pattern, block)
                .queue_depth(qd)
                .region(region.0, region.1)
                .ops(ops)
                .tenant(tenant),
        );
        self.writes.push(kind == OpKind::Write);
        self
    }
}

impl Instance {
    /// Set-up: builds and formats the array, primes what the readers read
    /// and brings the workload to the state its repetitions start from.
    ///
    /// `verify` gives data-carrying devices with a [`PatternTarget`] under
    /// everything (verify pass); otherwise the devices only account, as in
    /// every figure binary of the repo. `recorder` is the repo's own tracer,
    /// attached to devices, volume, scheduler and engine; with it the host
    /// clock of the instance's probe is on too (traced repetitions only).
    pub fn build(
        kind: Kind,
        seed: u64,
        size: Size,
        verify: bool,
        recorder: Option<Arc<obs::Recorder>>,
    ) -> Result<Instance> {
        let probe = Probe::new(recorder.is_some());
        let (devs, volume) = if kind == Kind::LsraidGcQos {
            let (zones, zone_sectors) = size.lsraid_geometry();
            let devs = devices(zones, zone_sectors, verify);
            let config = LsConfig::default()
                .stripe_unit(STRIPE_UNIT)
                .op_ratio(LSRAID_OP_RATIO);
            let vol = LsVolume::format(devs.clone(), config, SimTime::ZERO)?;
            (devs, Volume::Ls(Arc::new(vol)))
        } else {
            let (zones, zone_sectors, _) = size.raizn_geometry();
            let devs = devices(zones, zone_sectors, verify);
            let config = RaiznConfig {
                stripe_unit_sectors: STRIPE_UNIT,
                parity: kind.parity(),
                ..RaiznConfig::default()
            };
            let vol = RaiznVolume::format(devs.clone(), config, SimTime::ZERO)?;
            (devs, Volume::Raizn(Arc::new(vol)))
        };
        if let Some(rec) = &recorder {
            for (i, d) in devs.iter().enumerate() {
                d.set_recorder(rec.clone(), i as u32);
            }
            match &volume {
                Volume::Raizn(v) => v.set_recorder(rec.clone()),
                Volume::Ls(v) => v.set_recorder(rec.clone()),
            }
        }

        let mut target = volume.target();
        let mut pattern = None;
        if verify {
            let reset_cap = matches!(volume, Volume::Raizn(_)).then(|| volume.zone_cap());
            let p = Arc::new(PatternTarget::new(target, seed, reset_cap));
            pattern = Some(p.clone());
            target = p;
        }
        // The engine's direct target carries the latency tap; under a
        // scheduler the tap sits on the scheduler and the target is wrapped
        // only to give the traced run its `volume` spans.
        let scheduled = matches!(kind, Kind::SmallMixed | Kind::LsraidGcQos);
        target = Arc::new(ProbeTarget::new(target, probe.clone(), !scheduled));

        let sched = match kind {
            Kind::SmallMixed => Some((
                QosConfig {
                    server_depth: 8,
                    stripe_sectors: STRIPE_UNIT * 4,
                    ..QosConfig::default()
                },
                vec![
                    TenantSpec::new("log"),
                    TenantSpec::new("batch").coalesce(true),
                    TenantSpec::new("reader"),
                ],
            )),
            Kind::LsraidGcQos => Some((
                QosConfig {
                    stripe_sectors: BLOCK,
                    ..QosConfig::default()
                },
                vec![
                    TenantSpec::new("app").weight(8),
                    TenantSpec::new("scan").weight(4),
                    TenantSpec::new("gc").weight(1).actor(obs::Actor::Gc),
                ],
            )),
            _ => None,
        }
        .map(|(config, tenants)| {
            let s = QosScheduler::new(target.clone(), config, tenants)?;
            Ok::<_, ZnsError>(Arc::new(match &recorder {
                Some(rec) => s.with_recorder(rec.clone()),
                None => s,
            }))
        })
        .transpose()?;

        let mut inst = Instance {
            kind,
            size,
            seed,
            devices: devs,
            volume,
            target,
            pattern,
            sched,
            gc: None,
            probe,
            recorder,
            regions: Vec::new(),
            now: SimTime::ZERO,
            reps: 0,
        };
        inst.prepare()?;
        // Set-up IO is not part of any repetition's sample.
        inst.probe.take_latencies();
        inst.probe.take_spans();
        Ok(inst)
    }

    /// Sequentially fills `region` in `block`-sector writes.
    fn prime(&mut self, block: u64, region: (u64, u64)) -> Result<()> {
        let job = JobSpec::new(OpKind::Write, Pattern::Sequential, block)
            .queue_depth(32)
            .region(region.0, region.1);
        let end = Engine::new(self.seed)
            .start_at(self.now)
            .run(self.target.as_ref(), &[job])?
            .end;
        self.now = end;
        Ok(())
    }

    fn prepare(&mut self) -> Result<()> {
        let mut rng = SimRng::new(self.seed);
        if let Volume::Raizn(vol) = &self.volume {
            let (_, _, group_zones) = self.size.raizn_geometry();
            let geo = vol.geometry();
            let group = group_zones * geo.zone_cap();
            let mut groups: Vec<u64> = (0..u64::from(geo.num_zones()) / group_zones).collect();
            rng.shuffle(&mut groups);
            self.regions = groups
                .iter()
                .map(|g| (g * group, (g + 1) * group))
                .collect();
        }
        match self.kind {
            // Regions 0..4 take the writers, 4..6 are primed for the readers.
            Kind::SeqFull => {
                for r in 4..6 {
                    self.prime(256, self.regions[r])?;
                }
            }
            // Regions 0 and 1 take the writers, 2 is primed for the reader.
            Kind::SmallMixed => self.prime(256, self.regions[2])?,
            // Regions 0 and 1 take the writers, 2 and 3 are primed while
            // the array is whole, then two members fail.
            Kind::Raizn2Degraded => {
                for r in 2..4 {
                    self.prime(STRIPE_UNIT * 3 * 4, self.regions[r])?;
                }
                self.now = self.target.flush(self.now)?;
                // The seed picks which two members are lost.
                let a = rng.gen_range(DEVICES as u64) as usize;
                let b = (a + 1 + rng.gen_range(DEVICES as u64 - 1) as usize) % DEVICES;
                if let Volume::Raizn(vol) = &self.volume {
                    vol.fail_device(a)?;
                    vol.fail_device(b)?;
                }
            }
            // Prefill the whole logical space, then age with the measured
            // overwrite pattern and the collector live until reclaim runs
            // in steady state.
            Kind::LsraidGcQos => {
                let total = self.target.capacity_sectors() / BLOCK * BLOCK;
                self.prime(BLOCK, (0, total))?;
                self.now = self.target.flush(self.now)?;
                if let Volume::Ls(vol) = &self.volume {
                    self.gc = Some(GcManager::new(vol.clone(), gc_config()));
                }
                let age = self.size.ops(AGE_OPS);
                let mut mix = Mix::default().job(
                    OpKind::Write,
                    Pattern::Random,
                    BLOCK,
                    4,
                    (0, total),
                    age,
                    APP,
                );
                mix.app_ops = age;
                let mut engine = Engine::new(rng.next_u64()).start_at(self.now);
                self.now = self.run_mix(&mut engine, mix, rng.next_u64())?.end;
            }
        }
        Ok(())
    }

    /// The job mix of one repetition.
    fn mix(&self, rng: &mut SimRng) -> Mix {
        use OpKind::{Read, Write};
        use Pattern::{Random, Sequential};
        // Each job's op count carries up to 1/64 of seed-drawn jitter, so no
        // two seeds replay the same schedule against the zone boundaries.
        let mut ops = |full| {
            let n = self.size.ops(full);
            n + rng.gen_range(n / 64 + 1)
        };
        let r = &self.regions;
        match self.kind {
            Kind::SeqFull => {
                let stripe = STRIPE_UNIT * 4;
                let mut mix = Mix::default();
                for region in &r[..4] {
                    mix = mix.job(
                        Write,
                        Sequential,
                        stripe,
                        16,
                        *region,
                        ops(SEQ_WRITER_OPS),
                        0,
                    );
                }
                for region in &r[4..6] {
                    mix = mix.job(Read, Random, stripe, 16, *region, ops(SEQ_READER_OPS), 0);
                }
                mix
            }
            Kind::SmallMixed => Mix::default()
                .job(Write, Sequential, 1, 8, r[0], ops(MIXED_LOG_OPS), 0)
                .job(Write, Sequential, 4, 16, r[1], ops(MIXED_BATCH_OPS), 1)
                .job(Read, Random, 1, 16, r[2], ops(MIXED_READER_OPS), 2),
            Kind::Raizn2Degraded => {
                let stripe = STRIPE_UNIT * 3;
                Mix::default()
                    .job(
                        Write,
                        Sequential,
                        stripe,
                        16,
                        r[0],
                        ops(DEGRADED_WRITER_OPS),
                        0,
                    )
                    .job(
                        Write,
                        Sequential,
                        stripe,
                        16,
                        r[1],
                        ops(DEGRADED_WRITER_OPS),
                        0,
                    )
                    .job(
                        Read,
                        Random,
                        STRIPE_UNIT,
                        16,
                        r[2],
                        ops(DEGRADED_READER_OPS),
                        0,
                    )
                    .job(
                        Read,
                        Random,
                        STRIPE_UNIT,
                        16,
                        r[3],
                        ops(DEGRADED_READER_OPS),
                        0,
                    )
            }
            Kind::LsraidGcQos => {
                let all = (0, self.target.capacity_sectors() / BLOCK * BLOCK);
                let app_ops = ops(LSRAID_APP_OPS);
                let mut mix = Mix::default()
                    .job(Write, Random, BLOCK, 4, all, app_ops, APP)
                    .job(
                        Read,
                        Random,
                        STRIPE_UNIT,
                        4,
                        all,
                        ops(LSRAID_SCAN_OPS),
                        SCAN,
                    );
                mix.app_ops = app_ops;
                mix
            }
        }
    }

    /// Runs `mix` through the top of this workload's stack. `skew_seed`
    /// seeds the overwrite sequence of `lsraid_gc_qos`.
    fn run_mix(&mut self, engine: &mut Engine, mix: Mix, skew_seed: u64) -> Result<RunReport> {
        let Mix {
            jobs,
            writes,
            app_ops,
        } = mix;
        let Some(sched) = &self.sched else {
            return engine.run(self.target.as_ref(), &jobs);
        };
        let Some(mgr) = self.gc.as_mut() else {
            let top = ProbeScheduler::new(sched.as_ref(), self.probe.clone(), writes);
            return engine.run_shared(&top, &jobs);
        };
        let drive = GcDrive {
            sched,
            probe: &self.probe,
            state: Mutex::new(GcState {
                mgr,
                offsets: overwrite_offsets(sched.capacity_sectors() / BLOCK, app_ops, skew_seed),
                next: 0,
                pending: Vec::new(),
                scratch: Vec::new(),
                next_tag: 0,
            }),
        };
        let top = ProbeScheduler::new(&drive, self.probe.clone(), writes);
        engine.run_shared(&top, &jobs)
    }

    /// One repetition: the fixed job mix, started where the previous one
    /// ended on the virtual clock.
    pub fn rep(&mut self) -> Result<RepReport> {
        self.reps += 1;
        let mut rng = SimRng::new_stream(self.seed, self.reps);
        let mix = self.mix(&mut rng);
        let writes = mix.writes.clone();
        let start = self.now;
        let mut engine = Engine::new(rng.next_u64())
            .start_at(start)
            .sample_interval(WINDOW);
        if let Some(rec) = &self.recorder {
            engine = engine.recorder(rec.clone());
        }
        let shed_before = self.shed();
        let skew_seed = rng.next_u64();
        let root = self.probe.begin("engine");
        let t0 = Instant::now();
        let report = self.run_mix(&mut engine, mix, skew_seed);
        let wall_s = t0.elapsed().as_secs_f64();
        self.probe.end(root);
        let report = report?;
        self.now = report.end;

        let write_sectors = writes
            .iter()
            .zip(&report.jobs)
            .filter(|(w, _)| **w)
            .map(|(_, r)| r.bytes / SECTOR_SIZE)
            .sum();
        let window_ns = WINDOW.as_nanos();
        let (first, last) = (
            start.as_nanos() / window_ns,
            report.end.as_nanos() / window_ns,
        );
        let windows_mib_s = report
            .throughput_series
            .iter()
            .flatten()
            .filter(|p| {
                let slot = p.time.as_nanos() / window_ns;
                slot > first && slot < last
            })
            .map(|p| p.mib_per_sec)
            .collect();
        Ok(RepReport {
            ops: report.total_ops,
            bytes: report.total_bytes,
            write_sectors,
            shed: self.shed() - shed_before,
            start,
            end: report.end,
            wall_s,
            windows_mib_s,
        })
    }

    fn shed(&self) -> u64 {
        self.sched
            .as_ref()
            .map_or(0, |s| s.stats().iter().map(|t| t.shed).sum())
    }

    pub fn device_stats(&self) -> Vec<DeviceStats> {
        self.devices.iter().map(|d| d.stats()).collect()
    }

    /// Makes everything acknowledged so far durable.
    pub fn flush(&mut self) -> Result<()> {
        self.now = self.target.flush(self.now)?;
        Ok(())
    }

    /// Power loss on every member (volatile caches lost), then a mount of
    /// what survived. Returns the recovered volume's plain target.
    pub fn crash_and_mount(&mut self) -> Result<(Arc<dyn IoTarget>, MountCost)> {
        for d in &self.devices {
            d.crash(&mut CrashPolicy::LoseCache);
        }
        // The crash cleared the devices' pipelines: their clocks restart.
        let at = SimTime::ZERO;
        let t0 = Instant::now();
        self.volume = match &self.volume {
            Volume::Raizn(v) => Volume::Raizn(Arc::new(RaiznVolume::mount(
                self.devices.clone(),
                v.config(),
                at,
            )?)),
            Volume::Ls(v) => Volume::Ls(Arc::new(LsVolume::mount(
                self.devices.clone(),
                v.config().clone(),
                at,
            )?)),
        };
        let host_ms = t0.elapsed().as_secs_f64() * 1e3;
        let drained = self
            .devices
            .iter()
            .filter(|d| !d.is_failed())
            .map(|d| d.drained_at())
            .max()
            .unwrap_or(at);
        self.now = drained;
        let cost = MountCost {
            host_ms,
            virt_ms: drained.saturating_since(at).as_nanos() as f64 / 1e6,
        };
        Ok((self.volume.target(), cost))
    }

    /// Rebuilds the lowest failed member onto a fresh replacement.
    pub fn rebuild_one(&mut self) -> Result<RebuildCost> {
        let Volume::Raizn(vol) = &self.volume else {
            return Err(ZnsError::InvalidArgument(
                "rebuild needs a RAIZN volume".into(),
            ));
        };
        let failed = vol
            .failed_device()
            .ok_or_else(|| ZnsError::InvalidArgument("rebuild needs a failed member".into()))?;
        let replacement = Arc::new(ZnsDevice::new(self.devices[0].config().clone()));
        let t0 = Instant::now();
        let report = vol.rebuild(self.now, replacement.clone())?;
        let host_s = t0.elapsed().as_secs_f64();
        self.devices[failed] = replacement;
        self.now += report.duration;
        let secs = report.duration.as_secs_f64();
        Ok(RebuildCost {
            host_s,
            virt_mib_s: if secs > 0.0 {
                report.bytes_written as f64 / (1 << 20) as f64 / secs
            } else {
                0.0
            },
        })
    }

    /// Parity scrub of the whole array; returns how many stripes it had to
    /// repair or found inconsistent (0 on a healthy array).
    pub fn scrub_errors(&mut self) -> Result<u64> {
        Ok(match &self.volume {
            Volume::Raizn(v) => {
                let r = v.scrub(self.now)?;
                r.parity_repairs + r.units_healed
            }
            Volume::Ls(v) => {
                let r = v.scrub(self.now)?;
                r.parity_errors + r.q_errors
            }
        })
    }
}

// Op counts of one full-size repetition, sized to about one host second
// each on the 2-core reference host (see README, "Sizing").
const SEQ_WRITER_OPS: u64 = 6_000;
const SEQ_READER_OPS: u64 = 6_000;
const MIXED_LOG_OPS: u64 = 100_000;
const MIXED_BATCH_OPS: u64 = 60_000;
const MIXED_READER_OPS: u64 = 60_000;
const DEGRADED_WRITER_OPS: u64 = 4_000;
const DEGRADED_READER_OPS: u64 = 4_000;
const LSRAID_APP_OPS: u64 = 2_000;
const LSRAID_SCAN_OPS: u64 = 2_000;
/// Unmeasured aging overwrites during `lsraid_gc_qos` set-up.
const AGE_OPS: u64 = 4_000;

struct GcState<'a> {
    mgr: &'a mut GcManager,
    /// The skewed overwrite sequence that replaces the engine's uniform
    /// offsets for the `app` tenant.
    offsets: Vec<u64>,
    next: usize,
    /// Foreground completions a migration's drain dispatched; handed to
    /// the engine by the next `step`.
    pending: Vec<SchedCompletion>,
    scratch: Vec<SchedCompletion>,
    next_tag: u64,
}

/// Drives the log-structured workload through the scheduler: the `app`
/// tenant's writes follow `bench::lsgc::overwrite_offsets`, and the
/// collector is pumped on the virtual clock after every `app` completion,
/// its migration writes competing as the weight-1 `gc` tenant.
struct GcDrive<'a> {
    sched: &'a QosScheduler,
    probe: &'a Probe,
    state: Mutex<GcState<'a>>,
}

/// Submits one migration write as the `gc` tenant and dispatches until it
/// completes; foreground completions seen on the way are kept for the
/// engine (the repo's `QosGcSink` would drop them: it assumes an idle
/// foreground queue).
struct MigrateSink<'a> {
    sched: &'a QosScheduler,
    pending: &'a mut Vec<SchedCompletion>,
    scratch: &'a mut Vec<SchedCompletion>,
    next_tag: &'a mut u64,
}

impl GcSink for MigrateSink<'_> {
    fn migrate(&mut self, at: SimTime, lba: Lba, data: &[u8]) -> Result<SimTime> {
        *self.next_tag += 1;
        let token = match self.sched.submit_write(GC, *self.next_tag, at, lba, data)? {
            Admission::Admitted(token) => token,
            Admission::Shed { reason, .. } => {
                return Err(ZnsError::InvalidArgument(format!(
                    "gc migration write at lba {lba} shed ({reason:?})"
                )))
            }
        };
        loop {
            self.scratch.clear();
            if !self.sched.step(self.scratch)? {
                return Err(ZnsError::InvalidArgument(
                    "scheduler idle with a gc migration outstanding".into(),
                ));
            }
            let mut done = None;
            for c in self.scratch.drain(..) {
                if c.tenant == GC && c.token == token {
                    done = Some(c.done);
                } else {
                    self.pending.push(c);
                }
            }
            if let Some(done) = done {
                return Ok(done);
            }
        }
    }
}

impl SharedScheduler for GcDrive<'_> {
    fn capacity_sectors(&self) -> u64 {
        self.sched.capacity_sectors()
    }

    fn max_io_at(&self, off: u64) -> u64 {
        self.sched.max_io_at(off)
    }

    fn submit_write(
        &self,
        tenant: TenantId,
        tag: u64,
        arrival: SimTime,
        off: u64,
        data: &[u8],
    ) -> Result<Admission> {
        let off = if tenant == APP {
            let mut st = self.state.lock().expect("gc drive poisoned");
            let skewed = st.offsets[st.next];
            st.next += 1;
            skewed
        } else {
            off
        };
        self.sched.submit_write(tenant, tag, arrival, off, data)
    }

    fn submit_read(
        &self,
        tenant: TenantId,
        tag: u64,
        arrival: SimTime,
        off: u64,
        sectors: u64,
    ) -> Result<Admission> {
        self.sched.submit_read(tenant, tag, arrival, off, sectors)
    }

    fn step(&self, out: &mut Vec<SchedCompletion>) -> Result<bool> {
        let mut st = self.state.lock().expect("gc drive poisoned");
        let first = out.len();
        out.append(&mut st.pending);
        let any = self.sched.step(out)?;
        let GcState {
            mgr,
            pending,
            scratch,
            next_tag,
            ..
        } = &mut *st;
        for c in &out[first..] {
            if c.tenant == APP {
                let span = self.probe.begin("gc");
                let pumped = mgr.pump(
                    c.done,
                    &mut MigrateSink {
                        sched: self.sched,
                        pending,
                        scratch,
                        next_tag,
                    },
                );
                self.probe.end(span);
                pumped?;
            }
        }
        Ok(any || out.len() > first)
    }
}
