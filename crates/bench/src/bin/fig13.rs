//! Figure 13: RocksDB-style db_bench workloads (fillseq, fillrandom,
//! overwrite, readwhilewriting) at 4000- and 8000-byte values, on
//! zkv-over-RAIZN vs zkv-over-lsraid vs zkv-over-mdraid (via the
//! F2FS-like zone shim). The log-structured engine serves zkv's zone
//! writes from its append-only stripe log, so the store's own zone
//! resets become whole-group unmaps.

use bench::{conv_devices, lsraid_volume, print_table, raizn_volume, recorder, TimelineRun};
use ftl::BlockDevice;
use lsraid::LsConfig;
use mdraid5::{Md5Config, Md5Volume, ZonedBlockShim};
use raizn::RaiznConfig;
use sim::SimTime;
use std::sync::Arc;
use zkv::{DbBench, DbWorkload, ZkvConfig, ZkvStore};
use zns::ZonedVolume;

/// Rows of (workload label, ops/s, p99 us).
type SuiteRows = Vec<(String, f64, f64)>;

const ZONES: u32 = 64;
const ZONE_SECTORS: u64 = 4096; // 1 GiB per device
const OPS: u64 = 20_000;

/// Runs the four db_bench workloads. The store that serves the three
/// chained workloads records into `chained`; zkv drives the volume
/// directly (no engine loop), so a timeline's windows come from the
/// recorded volume spans.
fn run_suite<V: ZonedVolume>(
    mk: impl Fn(&Arc<obs::Recorder>) -> bench::BenchResult<Arc<V>>,
    value_size: usize,
    chained: &Arc<obs::Recorder>,
) -> bench::BenchResult<SuiteRows> {
    let bench = DbBench::new(OPS, value_size);
    let mut out = Vec::new();
    // fillseq runs on a fresh store.
    {
        let store = ZkvStore::create(mk(&recorder())?, ZkvConfig::default(), SimTime::ZERO)?;
        let r = bench.run(&store, DbWorkload::FillSeq, SimTime::ZERO)?;
        out.push((
            "fillseq".to_string(),
            r.ops_per_sec(),
            r.write_latency.percentile(99.0).as_secs_f64() * 1e6,
        ));
    }
    // The remaining three run in succession on one store (paper method).
    let store = ZkvStore::create(mk(chained)?, ZkvConfig::default(), SimTime::ZERO)?;
    let mut t = SimTime::ZERO;
    for wl in [
        DbWorkload::FillRandom,
        DbWorkload::Overwrite,
        DbWorkload::ReadWhileWriting,
    ] {
        let r = bench.run(&store, wl, t)?;
        t = r.end;
        let p99 = if wl == DbWorkload::ReadWhileWriting {
            r.read_latency.percentile(99.0)
        } else {
            r.write_latency.percentile(99.0)
        };
        out.push((
            wl.name().to_string(),
            r.ops_per_sec(),
            p99.as_secs_f64() * 1e6,
        ));
    }
    Ok(out)
}

fn main() -> bench::BenchResult {
    // Timeline capture rides on the flagship suite: 4000-byte values on
    // zkv-over-RAIZN, chained fillrandom/overwrite/readwhilewriting.
    let capture = TimelineRun::new("fig13");
    for value_size in [4000usize, 8000] {
        let flagship = value_size == 4000;
        let raizn = run_suite(
            |rec| raizn_volume(rec, ZONES, ZONE_SECTORS, RaiznConfig::default()),
            value_size,
            &capture.recorder_if(flagship),
        )?;
        let lsr = run_suite(
            |rec| lsraid_volume(rec, ZONES, ZONE_SECTORS, LsConfig::default()),
            value_size,
            &recorder(),
        )?;
        let mdraid = run_suite(
            |rec| {
                // The stripe cache is scaled with the dataset: the paper's
                // database is ~3000x md's 128 MiB cache, so a full-size
                // cache here would (unrealistically) hold the whole DB.
                let devices: Vec<Arc<dyn BlockDevice>> =
                    conv_devices(rec, 5, ZONES as u64 * ZONE_SECTORS)
                        .into_iter()
                        .map(|d| d as Arc<dyn BlockDevice>)
                        .collect();
                let md = Arc::new(Md5Volume::new(
                    devices,
                    Md5Config {
                        chunk_sectors: 16,
                        stripe_cache_bytes: 2 * 1024 * 1024,
                    },
                )?);
                // Zone shim plays F2FS: logical zones match RAIZN's 64 MiB.
                Ok(Arc::new(ZonedBlockShim::new(md, 4 * ZONE_SECTORS)?))
            },
            value_size,
            &recorder(),
        )?;
        let rows: Vec<Vec<String>> = raizn
            .iter()
            .zip(lsr.iter())
            .zip(mdraid.iter())
            .map(|((r, l), m)| {
                vec![
                    r.0.clone(),
                    format!("{:.0}", m.1),
                    format!("{:.0}", r.1),
                    format!("{:.0}", l.1),
                    format!("{:.2}", r.1 / m.1),
                    format!("{:.2}", l.1 / m.1),
                    format!("{:.0}", m.2),
                    format!("{:.0}", r.2),
                    format!("{:.0}", l.2),
                ]
            })
            .collect();
        print_table(
            &format!("Figure 13: db_bench, value size {value_size} B"),
            &[
                "workload",
                "md ops/s",
                "rz ops/s",
                "ls ops/s",
                "rz/md",
                "ls/md",
                "md p99 (us)",
                "rz p99 (us)",
                "ls p99 (us)",
            ],
            &rows,
        );
    }

    capture.finish()?;
    bench::write_breakdown("fig13")
}
