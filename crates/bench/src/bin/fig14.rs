//! Figure 14: sysbench-style OLTP (oltp_read_only / write_only /
//! read_write at 64 and 128 threads): TPS, average latency, p95 — on
//! zkv-over-RAIZN vs zkv-over-mdraid.

use bench::{conv_devices, print_table, raizn_volume, recorder, TimelineRun};
use ftl::BlockDevice;
use mdraid5::{Md5Config, Md5Volume, ZonedBlockShim};
use raizn::RaiznConfig;
use sim::{SimDuration, SimTime};
use std::sync::Arc;
use zkv::{OltpBench, OltpMix, ZkvConfig, ZkvStore};
use zns::ZonedVolume;

/// Rows of (mix label, TPS, average ms, p95 ms).
type MixRows = Vec<(String, f64, f64, f64)>;

const ZONES: u32 = 64;
const ZONE_SECTORS: u64 = 4096;
const TABLES: u32 = 8;
const ROWS: u64 = 10_000; // paper: 10M; scaled for simulation

/// Runs the three OLTP mixes. The read_write mix (the one that
/// exercises both planes) records into `read_write`, the others into the
/// process-wide recorder.
fn run_mixes<V: ZonedVolume>(
    mk: impl Fn(&Arc<obs::Recorder>) -> bench::BenchResult<Arc<V>>,
    threads: usize,
    read_write: &Arc<obs::Recorder>,
) -> bench::BenchResult<MixRows> {
    let mut out = Vec::new();
    for mix in [OltpMix::ReadOnly, OltpMix::WriteOnly, OltpMix::ReadWrite] {
        let rec = if mix == OltpMix::ReadWrite {
            read_write.clone()
        } else {
            recorder()
        };
        // Fresh database per trial, like the paper.
        let store = ZkvStore::create(mk(&rec)?, ZkvConfig::default(), SimTime::ZERO)?;
        let mut bench = OltpBench::new(TABLES, ROWS, threads);
        bench.duration = SimDuration::from_secs(5);
        let t = bench.prepare(&store, SimTime::ZERO)?;
        let r = bench.run(&store, mix, t)?;
        out.push((
            mix.name().to_string(),
            r.tps(),
            r.latency.mean().as_secs_f64() * 1e3,
            r.latency.percentile(95.0).as_secs_f64() * 1e3,
        ));
    }
    Ok(out)
}

fn main() -> bench::BenchResult {
    // Timeline capture rides on the flagship trial: 64-thread
    // oltp_read_write on zkv-over-RAIZN.
    let capture = TimelineRun::new("fig14");
    for threads in [64usize, 128] {
        let flagship = threads == 64;
        let raizn = run_mixes(
            |rec| raizn_volume(rec, ZONES, ZONE_SECTORS, RaiznConfig::default()),
            threads,
            &capture.recorder_if(flagship),
        )?;
        let mdraid = run_mixes(
            |rec| {
                // Stripe cache scaled with the dataset (see fig13).
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
                Ok(Arc::new(ZonedBlockShim::new(md, 4 * ZONE_SECTORS)?))
            },
            threads,
            &recorder(),
        )?;
        let rows: Vec<Vec<String>> = raizn
            .iter()
            .zip(mdraid.iter())
            .map(|(r, m)| {
                vec![
                    r.0.clone(),
                    format!("{:.0}", m.1),
                    format!("{:.0}", r.1),
                    format!("{:.2}", m.2),
                    format!("{:.2}", r.2),
                    format!("{:.2}", m.3),
                    format!("{:.2}", r.3),
                ]
            })
            .collect();
        print_table(
            &format!("Figure 14: sysbench OLTP, {threads} threads"),
            &[
                "mix",
                "md TPS",
                "rz TPS",
                "md avg ms",
                "rz avg ms",
                "md p95 ms",
                "rz p95 ms",
            ],
            &rows,
        );
    }

    capture.finish()?;
    bench::write_breakdown("fig14")
}
