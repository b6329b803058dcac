//! Figure 9: RAIZN vs mdraid — throughput, median and p99.9 latency
//! across block sizes for sequential write, sequential read and random
//! read (64 KiB stripe units, 8 jobs × QD64 / 1 job × QD256).

use bench::{
    bs_label, mdraid_volume, prime, print_table, raizn_volume, run_micro, Micro, TimelineRun,
};
use raizn::RaiznConfig;
use sim::SimTime;
use workloads::{BlockTarget, ZonedTarget};
use zns::ZonedVolume;

// Benchmark scale: 5 devices × 64 zones × 16 MiB ≈ 1 GiB per device.
const ZONES: u32 = 64;
const ZONE_SECTORS: u64 = 4096;
const SU: u64 = 16; // 64 KiB
const BLOCK_SIZES: [u64; 5] = [1, 4, 16, 64, 256];

fn main() -> bench::BenchResult {
    let threads = bench::threads_arg("fig9")?;
    // Per-system timeline captures ride on the flagship configuration
    // (sequential write, 1 MiB blocks).
    let rz_capture = TimelineRun::new("fig9_raizn");
    let md_capture = TimelineRun::new("fig9_mdraid");
    let config = RaiznConfig {
        stripe_unit_sectors: SU,
        ..RaiznConfig::default()
    };
    let mut rows = Vec::new();
    for micro in [Micro::SeqWrite, Micro::SeqRead, Micro::RandRead] {
        for bs in BLOCK_SIZES {
            let flagship = micro == Micro::SeqWrite && bs == 256;

            // RAIZN on fresh ZNS devices.
            let rec = rz_capture.recorder_if(flagship);
            let raizn = raizn_volume(&rec, ZONES, ZONE_SECTORS, config)?;
            let rt = ZonedTarget::new(raizn);
            let start = if micro == Micro::SeqWrite {
                SimTime::ZERO
            } else {
                prime(&rt, SimTime::ZERO)?
            };
            let align = rt.volume().geometry().zone_cap();
            let r = run_micro(&rt, micro, bs, align, start, threads)?;

            // mdraid on fresh conventional SSDs of the same capacity.
            let rec = md_capture.recorder_if(flagship);
            let md = mdraid_volume(&rec, ZONES as u64 * ZONE_SECTORS, SU)?;
            let mt = BlockTarget::new(md);
            let start = if micro == Micro::SeqWrite {
                SimTime::ZERO
            } else {
                prime(&mt, SimTime::ZERO)?
            };
            let m = run_micro(&mt, micro, bs, align, start, threads)?;

            rows.push(vec![
                micro.name().to_string(),
                bs_label(bs),
                format!("{:.0}", m.throughput_mib_s()),
                format!("{:.0}", r.throughput_mib_s()),
                format!("{}", m.latency.median()),
                format!("{}", r.latency.median()),
                format!("{}", m.latency.percentile(99.9)),
                format!("{}", r.latency.percentile(99.9)),
            ]);
        }
    }
    print_table(
        "Figure 9: RAIZN vs mdraid microbenchmarks (64 KiB stripe units)",
        &[
            "workload", "bs", "md MiB/s", "rz MiB/s", "md p50", "rz p50", "md p99.9", "rz p99.9",
        ],
        &rows,
    );

    rz_capture.finish()?;
    md_capture.finish()?;
    bench::write_breakdown("fig9")
}
