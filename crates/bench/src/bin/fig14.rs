//! Figure 14: sysbench-style OLTP (oltp_read_only / write_only /
//! read_write at 64 and 128 threads): TPS, average latency, p95 — on
//! zkv-over-RAIZN vs zkv-over-mdraid.

use bench::{conv_devices, print_table, raizn_volume, TimelineRun};
use ftl::BlockDevice;
use mdraid5::{Md5Config, Md5Volume, ZonedBlockShim};
use sim::{SimDuration, SimTime};
use std::sync::Arc;
use zkv::{OltpBench, OltpMix, ZkvConfig, ZkvStore};
use zns::ZonedVolume;

/// Rows of (mix label, ktx/s, read MiB/s, write MiB/s) plus the run's end time.
type MixRows = (Vec<(String, f64, f64, f64)>, SimTime);

const ZONES: u32 = 64;
const ZONE_SECTORS: u64 = 4096;
const TABLES: u32 = 8;
const ROWS: u64 = 10_000; // paper: 10M; scaled for simulation

/// Runs the three OLTP mixes. `capture` rides on the read_write mix
/// (the mix that exercises both planes); zkv drives the volume directly,
/// so gauges are force-sampled at prepare/run boundaries.
fn run_mixes<V: ZonedVolume>(
    mk: impl Fn(Option<&TimelineRun>) -> bench::BenchResult<Arc<V>>,
    threads: usize,
    capture: Option<&TimelineRun>,
) -> bench::BenchResult<MixRows> {
    let mut out = Vec::new();
    let mut end = SimTime::ZERO;
    for mix in [OltpMix::ReadOnly, OltpMix::WriteOnly, OltpMix::ReadWrite] {
        let cap = capture.filter(|_| mix == OltpMix::ReadWrite);
        // Fresh database per trial, like the paper.
        let store = ZkvStore::create(mk(cap)?, ZkvConfig::default(), SimTime::ZERO)?;
        let mut bench = OltpBench::new(TABLES, ROWS, threads);
        bench.duration = SimDuration::from_secs(5);
        let t = bench.prepare(&store, SimTime::ZERO)?;
        if let Some(c) = cap {
            c.timeline().force_sample(t);
        }
        let r = bench.run(&store, mix, t)?;
        if let Some(c) = cap {
            c.timeline().force_sample(r.end);
            end = r.end;
        }
        out.push((
            mix.name().to_string(),
            r.tps(),
            r.latency.mean().as_secs_f64() * 1e3,
            r.latency.percentile(95.0).as_secs_f64() * 1e3,
        ));
    }
    Ok((out, end))
}

fn main() -> bench::BenchResult {
    // Timeline capture rides on the flagship trial: 64-thread
    // oltp_read_write on zkv-over-RAIZN.
    let capture = TimelineRun::new("fig14");
    let mut capture_end = SimTime::ZERO;
    for threads in [64usize, 128] {
        let flagship = threads == 64;
        let (raizn, rz_end) = run_mixes(
            |c| match c {
                Some(c) => c.raizn_volume(ZONES, ZONE_SECTORS, 16),
                None => raizn_volume(ZONES, ZONE_SECTORS, 16),
            },
            threads,
            flagship.then_some(&capture),
        )?;
        if flagship {
            capture_end = rz_end;
        }
        let (mdraid, _) = run_mixes(
            |_| {
                // Stripe cache scaled with the dataset (see fig13).
                let devices: Vec<Arc<dyn BlockDevice>> =
                    conv_devices(5, ZONES as u64 * ZONE_SECTORS)
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
            None,
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

    capture.finish(capture_end)?;
    bench::write_breakdown("fig14")
}
