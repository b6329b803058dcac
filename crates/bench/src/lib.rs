//! Shared harness for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md's experiment index). This library
//! holds the common plumbing: array construction at benchmark scale and
//! plain-text table output.
//!
//! Scale note: the paper's testbed uses 5 × 2 TB SSDs; the simulated
//! arrays here are scaled down (capacities in the low GiB) so every
//! experiment runs in seconds of real time. Virtual-time throughput and
//! latency keep their *relative* behaviour (see EXPERIMENTS.md).

#![forbid(unsafe_code)]

use ftl::{BlockDevice, ConvSsd, FtlConfig};
use lsraid::{LsConfig, LsVolume};
use mdraid5::{Md5Config, Md5Volume};
use raizn::{RaiznConfig, RaiznVolume};
use sim::{SimDuration, SimTime};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use zns::{LatencyConfig, ZnsConfig, ZnsDevice};

pub mod json;
pub mod lifecycle;
pub mod lsgc;

/// Errors a benchmark binary can exit with. Binaries return
/// [`BenchResult`] from `main` so CI sees the cause on stderr and a
/// nonzero exit code instead of a panic backtrace.
#[derive(Debug)]
pub enum BenchError {
    /// Filesystem error writing or reading an artifact.
    Io(std::io::Error),
    /// An IO error from the simulated stack.
    Zns(zns::ZnsError),
    /// A benchmark-level invariant or SLO gate failed.
    Gate(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Io(e) => write!(f, "io error: {e}"),
            BenchError::Zns(e) => write!(f, "simulated-stack error: {e}"),
            BenchError::Gate(msg) => write!(f, "gate failed: {msg}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError::Io(e)
    }
}

impl From<zns::ZnsError> for BenchError {
    fn from(e: zns::ZnsError) -> Self {
        BenchError::Zns(e)
    }
}

/// Result alias for benchmark binaries and harness helpers.
pub type BenchResult<T = ()> = Result<T, BenchError>;

/// Fails a gate with a formatted message.
#[macro_export]
macro_rules! gate {
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return Err($crate::BenchError::Gate(format!($($arg)+)));
        }
    };
}

/// Number of array devices used throughout the evaluation (paper: 5).
pub const ARRAY_DEVICES: usize = 5;

/// The process command line minus the program name, for composition with
/// [`take_threads`] and binary-specific flags.
pub fn cli_args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// Consumes the `--threads N` flag from `args` (the binaries that drive
/// engine workers accept it: fig7/8/9/11, and hotpath for its sweep cap),
/// leaving all other arguments in place for the binary's own parsing.
/// Returns the requested engine worker count; defaults to 1, which
/// reproduces the single-threaded driver exactly, so default invocations
/// keep bit-identical artifacts.
///
/// # Errors
///
/// Fails if `--threads` is present without a positive integer value.
pub fn take_threads(args: &mut Vec<String>) -> BenchResult<usize> {
    let mut threads = 1usize;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--threads" {
            let value = args
                .get(i + 1)
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|n| *n >= 1)
                .ok_or_else(|| BenchError::Gate("--threads needs a positive integer".into()))?;
            threads = value;
            args.drain(i..i + 2);
        } else {
            i += 1;
        }
    }
    Ok(threads)
}

/// Parses a binary's command line when `--threads N` is its only flag,
/// rejecting anything else with a usage message naming `bin`.
///
/// # Errors
///
/// Fails on a malformed `--threads` value or any unrecognized argument.
pub fn threads_arg(bin: &str) -> BenchResult<usize> {
    let mut args = cli_args();
    let threads = take_threads(&mut args)?;
    if let Some(extra) = args.first() {
        return Err(BenchError::Gate(format!(
            "unknown argument {extra:?} (usage: {bin} [--threads N])"
        )));
    }
    Ok(threads)
}

/// Ring capacity of the shared benchmark recorder; long runs overflow it
/// (oldest events drop) but histograms and counters always see everything.
const RECORDER_CAPACITY: usize = 65_536;

/// Sample every N-th event into the ring: benchmarks only consume the
/// aggregate breakdown, so a thinned ring is plenty for spot-checks.
const RECORDER_SAMPLE: u64 = 16;

/// The process-wide benchmark recorder. Every volume and device built by
/// this harness attaches to it, so [`write_breakdown`] covers the whole
/// stack of the experiment that ran.
pub fn recorder() -> Arc<obs::Recorder> {
    static RECORDER: OnceLock<Arc<obs::Recorder>> = OnceLock::new();
    RECORDER
        .get_or_init(|| {
            let rec = obs::Recorder::new(RECORDER_CAPACITY, RECORDER_SAMPLE);
            rec.enable_spans(span_config());
            rec
        })
        .clone()
}

/// Tail-sampling configuration for benchmark recorders: the rolling-p99
/// threshold by default, or a pinned threshold when `BENCH_SLOW_US` is set
/// (virtual microseconds; ops at or above it are captured in full).
fn span_config() -> obs::SpanConfig {
    let slow = std::env::var("BENCH_SLOW_US")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(SimDuration::from_micros);
    obs::SpanConfig {
        slow,
        keep_slowest: None,
    }
}

/// Writes the recorder's causal-span artifact (per-tenant blame table,
/// tail-sampled slow-op trees, Chrome/Perfetto `traceEvents`) to
/// `BENCH_<name>_spans.json` in `dir`, returning the path.
///
/// # Errors
///
/// Returns an error if the file cannot be written.
pub fn write_spans_to(name: &str, rec: &obs::Recorder, dir: &Path) -> BenchResult<PathBuf> {
    let path = dir.join(format!("BENCH_{name}_spans.json"));
    std::fs::write(&path, obs::spans_json(name, rec))?;
    Ok(path)
}

/// Writes `BENCH_<name>_spans.json` in the working directory from the
/// given recorder and prints the path.
///
/// # Errors
///
/// Returns an error if the file cannot be written.
pub fn write_spans(name: &str, rec: &obs::Recorder) -> BenchResult {
    let path = write_spans_to(name, rec, Path::new("."))?;
    println!("span blame/trace -> {}", path.display());
    Ok(())
}

/// Writes the shared recorder's latency breakdown to
/// `BENCH_<name>_breakdown.json` in `dir` (per-stage p50/p99/mean/max
/// plus counters), returning the path.
///
/// # Errors
///
/// Returns an error if the file cannot be written.
pub fn write_breakdown_to(name: &str, dir: &Path) -> BenchResult<PathBuf> {
    let path = dir.join(format!("BENCH_{name}_breakdown.json"));
    let json = recorder().breakdown_json(name);
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Writes the shared recorder's latency breakdown to
/// `BENCH_<name>_breakdown.json` in the working directory and prints the
/// path.
///
/// # Errors
///
/// Returns an error if the file cannot be written.
pub fn write_breakdown(name: &str) -> BenchResult {
    let path = write_breakdown_to(name, Path::new("."))?;
    println!("\nlatency breakdown -> {}", path.display());
    Ok(())
}

/// Tumbling-window interval of timeline captures (matches the paper's
/// fig-10 100 ms sampling).
pub const TIMELINE_WINDOW: SimDuration = SimDuration::from_millis(100);

/// Maximum retained windows per timeline run (819 s of virtual time).
const TIMELINE_MAX_WINDOWS: usize = 8192;

/// One timeline-enabled benchmark run: a private windowed [`obs::Recorder`]
/// covering one contiguous span of virtual time.
///
/// Benchmarks that chain several sub-runs restart the virtual clock per
/// sub-run, which would interleave unrelated runs into the same windows if
/// they shared one windowed recorder. A `TimelineRun` therefore gives each
/// captured run fresh window state; [`TimelineRun::finish`] writes the
/// `BENCH_<name>_timeline.json` artifact and folds the run's aggregate
/// histograms/counters into the process-wide [`recorder`], so breakdown
/// artifacts still cover everything.
pub struct TimelineRun {
    name: String,
    recorder: Arc<obs::Recorder>,
}

impl TimelineRun {
    /// Creates a run that will emit `BENCH_<name>_timeline.json`.
    pub fn new(name: &str) -> Self {
        let recorder = obs::Recorder::new(RECORDER_CAPACITY, RECORDER_SAMPLE);
        recorder.enable_windows(TIMELINE_WINDOW, TIMELINE_MAX_WINDOWS);
        recorder.enable_spans(span_config());
        TimelineRun {
            name: name.to_string(),
            recorder,
        }
    }

    /// The run's private windowed recorder (attach to volumes/devices).
    pub fn recorder(&self) -> Arc<obs::Recorder> {
        self.recorder.clone()
    }

    /// Builds a RAIZN volume wired for this run: devices and volume
    /// record into the run's recorder.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn raizn_volume(
        &self,
        zones: u32,
        zone_sectors: u64,
        stripe_unit_sectors: u64,
    ) -> BenchResult<Arc<RaiznVolume>> {
        let devices = zns_devices_with(&self.recorder, ARRAY_DEVICES, zones, zone_sectors);
        let config = RaiznConfig {
            stripe_unit_sectors,
            ..RaiznConfig::default()
        };
        let volume = Arc::new(RaiznVolume::format(devices, config, SimTime::ZERO)?);
        volume.set_recorder(self.recorder());
        Ok(volume)
    }

    /// Builds a log-structured RAID volume wired for this run (see
    /// [`TimelineRun::raizn_volume`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn lsraid_volume(
        &self,
        zones: u32,
        zone_sectors: u64,
        config: LsConfig,
    ) -> BenchResult<Arc<LsVolume>> {
        let devices = zns_devices_with(&self.recorder, ARRAY_DEVICES, zones, zone_sectors);
        let volume = Arc::new(LsVolume::format(devices, config, SimTime::ZERO)?);
        volume.set_recorder(self.recorder());
        Ok(volume)
    }

    /// Builds an mdraid-5 volume wired for this run (see
    /// [`TimelineRun::raizn_volume`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn mdraid_volume(
        &self,
        user_sectors: u64,
        chunk_sectors: u64,
    ) -> BenchResult<Arc<Md5Volume>> {
        let devices: Vec<Arc<dyn BlockDevice>> =
            conv_devices_with(&self.recorder, ARRAY_DEVICES, user_sectors)
                .into_iter()
                .map(|d| d as Arc<dyn BlockDevice>)
                .collect();
        let volume = Arc::new(Md5Volume::new(
            devices,
            Md5Config {
                chunk_sectors,
                stripe_cache_bytes: 128 * 1024 * 1024,
            },
        )?);
        volume.set_recorder(self.recorder());
        Ok(volume)
    }

    /// Writes the timeline artifact into `dir`, returning its path.
    /// Callable repeatedly (e.g. once per phase); the artifact accumulates.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be written.
    pub fn write_to(&self, dir: &Path) -> BenchResult<PathBuf> {
        let path = dir.join(format!("BENCH_{}_timeline.json", self.name));
        let json = obs::timeline_json(&self.name, &self.recorder, SECTOR_BYTES);
        std::fs::write(&path, json)?;
        Ok(path)
    }

    /// Finishes the run: artifact written to the working directory,
    /// aggregates absorbed into the process-wide [`recorder`] so breakdown
    /// artifacts stay complete.
    ///
    /// # Errors
    ///
    /// Returns an error if the artifact cannot be written.
    pub fn finish(self) -> BenchResult<PathBuf> {
        let path = self.write_to(Path::new("."))?;
        println!("timeline -> {}", path.display());
        recorder().absorb(&self.recorder);
        Ok(path)
    }

    /// Discards everything captured so far (windows, histograms) after
    /// folding it into the process-wide [`recorder`].
    /// Used to scope the artifact to the phase of interest: call this at
    /// a phase boundary and the timeline covers only what follows.
    pub fn reset_capture(&self) {
        recorder().absorb(&self.recorder);
        self.recorder.clear();
    }
}

/// Bytes per sector, as a u64 (timeline throughput derivation).
const SECTOR_BYTES: u64 = zns::SECTOR_SIZE;

/// Builds `n` ZNS devices with `zones` zones of `zone_sectors` capacity
/// (accounting-only data mode, ZN540-like timing), recording into `rec`.
pub fn zns_devices_with(
    rec: &Arc<obs::Recorder>,
    n: usize,
    zones: u32,
    zone_sectors: u64,
) -> Vec<Arc<ZnsDevice>> {
    (0..n)
        .map(|i| {
            let dev = Arc::new(ZnsDevice::new(
                ZnsConfig::builder()
                    .zones(zones, zone_sectors, zone_sectors)
                    .open_limits(14, 28)
                    .latency(LatencyConfig::zns_ssd())
                    .store_data(false)
                    .build(),
            ));
            dev.set_recorder(rec.clone(), i as u32);
            dev
        })
        .collect()
}

/// Builds `n` ZNS devices recording into the process-wide [`recorder`].
pub fn zns_devices(n: usize, zones: u32, zone_sectors: u64) -> Vec<Arc<ZnsDevice>> {
    zns_devices_with(&recorder(), n, zones, zone_sectors)
}

/// Builds a formatted RAIZN volume over fresh ZNS devices.
///
/// # Errors
///
/// Returns an error if the configuration is invalid.
pub fn raizn_volume(
    zones: u32,
    zone_sectors: u64,
    stripe_unit_sectors: u64,
) -> BenchResult<Arc<RaiznVolume>> {
    let devices = zns_devices(ARRAY_DEVICES, zones, zone_sectors);
    let config = RaiznConfig {
        stripe_unit_sectors,
        ..RaiznConfig::default()
    };
    let volume = Arc::new(RaiznVolume::format(devices, config, SimTime::ZERO)?);
    volume.set_recorder(recorder());
    Ok(volume)
}

/// Builds a formatted log-structured RAID volume over fresh ZNS devices,
/// recording into the process-wide [`recorder`].
///
/// # Errors
///
/// Returns an error if the configuration is invalid.
pub fn lsraid_volume(
    zones: u32,
    zone_sectors: u64,
    config: LsConfig,
) -> BenchResult<Arc<LsVolume>> {
    let devices = zns_devices(ARRAY_DEVICES, zones, zone_sectors);
    let volume = Arc::new(LsVolume::format(devices, config, SimTime::ZERO)?);
    volume.set_recorder(recorder());
    Ok(volume)
}

/// Builds `n` conventional SSDs of `user_sectors` capacity (7% OP,
/// accounting-only), recording into `rec`.
pub fn conv_devices_with(
    rec: &Arc<obs::Recorder>,
    n: usize,
    user_sectors: u64,
) -> Vec<Arc<ConvSsd>> {
    (0..n)
        .map(|i| {
            let dev = Arc::new(ConvSsd::new(FtlConfig {
                user_sectors,
                pages_per_block: 256,
                op_ratio: 0.07,
                gc_low_blocks: 8,
                latency: LatencyConfig::conventional_ssd(),
                store_data: false,
            }));
            dev.set_recorder(rec.clone(), i as u32);
            dev
        })
        .collect()
}

/// Builds `n` conventional SSDs recording into the process-wide
/// [`recorder`].
pub fn conv_devices(n: usize, user_sectors: u64) -> Vec<Arc<ConvSsd>> {
    conv_devices_with(&recorder(), n, user_sectors)
}

/// Builds an mdraid-5 volume over fresh conventional SSDs.
///
/// # Errors
///
/// Returns an error if the configuration is invalid.
pub fn mdraid_volume(user_sectors: u64, chunk_sectors: u64) -> BenchResult<Arc<Md5Volume>> {
    let devices: Vec<Arc<dyn BlockDevice>> = conv_devices(ARRAY_DEVICES, user_sectors)
        .into_iter()
        .map(|d| d as Arc<dyn BlockDevice>)
        .collect();
    let volume = Arc::new(Md5Volume::new(
        devices,
        Md5Config {
            chunk_sectors,
            stripe_cache_bytes: 128 * 1024 * 1024,
        },
    )?);
    volume.set_recorder(recorder());
    Ok(volume)
}

/// Prints a fixed-width text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let cols: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        println!("| {} |", cols.join(" | "));
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row);
    }
}

/// Formats a byte count as a human-readable block size label (e.g. 64K).
pub fn bs_label(sectors: u64) -> String {
    let bytes = sectors * zns::SECTOR_SIZE;
    if bytes >= 1024 * 1024 {
        format!("{}M", bytes / (1024 * 1024))
    } else {
        format!("{}K", bytes / 1024)
    }
}

/// The three §6.1 microbenchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Micro {
    /// 8 jobs × QD 64, sequential writes at different offsets.
    SeqWrite,
    /// 8 jobs × QD 64, sequential reads at different offsets.
    SeqRead,
    /// 1 job × QD 256, random reads over the primed capacity.
    RandRead,
}

impl Micro {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Micro::SeqWrite => "seq-write",
            Micro::SeqRead => "seq-read",
            Micro::RandRead => "rand-read",
        }
    }
}

/// Fills the target sequentially with 1 MiB blocks (the paper's priming
/// pass before read benchmarks), returning the end time.
///
/// # Errors
///
/// Propagates IO errors from the simulated stack.
pub fn prime(target: &dyn workloads::IoTarget, at: SimTime) -> BenchResult<SimTime> {
    use workloads::{Engine, JobSpec, OpKind, Pattern};
    let job = JobSpec::new(OpKind::Write, Pattern::Sequential, 256).queue_depth(64);
    Ok(Engine::new(0xF111).start_at(at).run(target, &[job])?.end)
}

/// Runs one microbenchmark with the paper's job/queue-depth parameters,
/// with per-config op counts capped for simulation speed.
///
/// `threads` > 1 shards the jobs over that many OS threads (see
/// [`workloads::Engine::run_threaded`]): logical outcomes stay
/// reproducible, but virtual-time throughput may shift slightly under
/// device-service contention, so figure artifacts are only bit-identical
/// at the default of 1.
///
/// # Errors
///
/// Propagates IO errors from the simulated stack.
pub fn run_micro(
    target: &dyn workloads::IoTarget,
    micro: Micro,
    block_sectors: u64,
    align_sectors: u64,
    at: SimTime,
    threads: usize,
) -> BenchResult<workloads::RunReport> {
    use workloads::{Engine, JobSpec, OpKind, Pattern};
    let cap = target.capacity_sectors();
    let jobs: Vec<JobSpec> = match micro {
        Micro::SeqWrite | Micro::SeqRead => {
            let kind = if micro == Micro::SeqWrite {
                OpKind::Write
            } else {
                OpKind::Read
            };
            let per_job = cap / 8 / align_sectors * align_sectors;
            // Cap the written volume at ~50% of capacity so write runs
            // never run the conventional baseline into device GC — the
            // paper reformats devices before each write trial precisely
            // to keep GC out of this figure.
            let half_blocks = per_job / 2 / block_sectors;
            (0..8u64)
                .map(|i| {
                    let region = (i * per_job, (i + 1) * per_job);
                    let blocks = per_job / block_sectors;
                    JobSpec::new(kind, Pattern::Sequential, block_sectors)
                        .region(region.0, region.1)
                        .ops(blocks.min(8192).min(half_blocks.max(1)))
                        .queue_depth(64)
                })
                .collect()
        }
        Micro::RandRead => {
            let span = cap / align_sectors * align_sectors;
            vec![JobSpec::new(OpKind::Read, Pattern::Random, block_sectors)
                .region(0, span)
                .ops(32_768)
                .queue_depth(256)]
        }
    };
    let mut engine = Engine::new(0xB5 ^ block_sectors).start_at(at);
    if threads > 1 {
        Ok(engine.run_threaded(target, &jobs, threads)?)
    } else {
        Ok(engine.run(target, &jobs)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zns::ZonedVolume;

    #[test]
    fn arrays_assemble() {
        let r = raizn_volume(8, 4096, 16).unwrap();
        assert_eq!(r.geometry().num_zones(), 5);
        let m = mdraid_volume(262_144, 16).unwrap();
        assert!(m.capacity_sectors() > 0);
    }

    #[test]
    fn labels() {
        assert_eq!(bs_label(1), "4K");
        assert_eq!(bs_label(256), "1M");
    }

    #[test]
    fn timeline_run_isolated_from_global_recorder_until_finish() {
        let run = TimelineRun::new("unit_tlr");
        let v = run.raizn_volume(8, 4096, 16).unwrap();
        let data = vec![0u8; zns::SECTOR_SIZE as usize];
        v.write(SimTime::ZERO, 0, &data, zns::WriteFlags::default())
            .unwrap();
        assert!(run.recorder().next_seq() > 0, "run recorder saw spans");
        let global_before = recorder().next_seq();
        let dir = std::env::temp_dir();
        let path = run.write_to(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"kind\": \"timeline\""));
        assert!(!text.contains("\"gauges\""));
        let run_seq = run.recorder().next_seq();
        run.finish().unwrap();
        // finish() folded the run's aggregates into the global recorder.
        assert!(recorder().next_seq() >= global_before + run_seq);
        let _ = std::fs::remove_file(dir.join("BENCH_unit_tlr_timeline.json"));
        let _ = std::fs::remove_file("BENCH_unit_tlr_timeline.json");
    }

    #[test]
    fn harness_volumes_record_into_shared_recorder() {
        let before = recorder().next_seq();
        let v = raizn_volume(8, 4096, 16).unwrap();
        let data = vec![0u8; zns::SECTOR_SIZE as usize];
        v.write(SimTime::ZERO, 0, &data, zns::WriteFlags::default())
            .unwrap();
        assert!(
            recorder().next_seq() > before,
            "harness-built volume did not trace"
        );
        let json = recorder().breakdown_json("unit");
        assert!(json.contains("\"whole_op\""));
    }
}
