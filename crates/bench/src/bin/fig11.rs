//! Figure 11: degraded performance — sequential and random read
//! throughput/latency after one device fails (no replacement), for
//! mdraid, RAIZN and the log-structured engine (whose reads decode through
//! the member layer it shares with RAIZN).

use bench::{
    bs_label, lsraid_volume, mdraid_volume, prime, print_table, raizn_volume, recorder, run_micro,
    Micro, TimelineRun,
};
use lsraid::LsConfig;
use raizn::RaiznConfig;
use sim::SimTime;
use workloads::{BlockTarget, ZonedTarget};
use zns::ZonedVolume;

const ZONES: u32 = 64;
const ZONE_SECTORS: u64 = 4096;
const SU: u64 = 16;
const BLOCK_SIZES: [u64; 5] = [1, 4, 16, 64, 256];

fn main() -> bench::BenchResult {
    let threads = bench::threads_arg("fig11")?;
    // Timeline capture rides on the flagship degraded random-read run.
    let capture = TimelineRun::new("fig11");
    let config = RaiznConfig {
        stripe_unit_sectors: SU,
        ..RaiznConfig::default()
    };
    let mut rows = Vec::new();
    for micro in [Micro::SeqRead, Micro::RandRead] {
        for bs in BLOCK_SIZES {
            let flagship = micro == Micro::RandRead && bs == 256;
            let rec = capture.recorder_if(flagship);
            let raizn = raizn_volume(&rec, ZONES, ZONE_SECTORS, config)?;
            let rt = ZonedTarget::new(raizn.clone());
            let start = prime(&rt, SimTime::ZERO)?;
            raizn.fail_device(0).unwrap();
            let align = rt.volume().geometry().zone_cap();
            let r = run_micro(&rt, micro, bs, align, start, threads)?;

            let md = mdraid_volume(&recorder(), ZONES as u64 * ZONE_SECTORS, SU)?;
            let mt = BlockTarget::new(md.clone());
            let start = prime(&mt, SimTime::ZERO)?;
            md.fail_device(0);
            let m = run_micro(&mt, micro, bs, align, start, threads)?;

            let ls_config = LsConfig::default().stripe_unit(SU);
            let ls = lsraid_volume(&recorder(), ZONES, ZONE_SECTORS, ls_config)?;
            let lt = ZonedTarget::new(ls.clone());
            let start = prime(&lt, SimTime::ZERO)?;
            ls.fail_device(0)?;
            let l = run_micro(&lt, micro, bs, align, start, threads)?;

            rows.push(vec![
                micro.name().to_string(),
                bs_label(bs),
                format!("{:.0}", m.throughput_mib_s()),
                format!("{:.0}", r.throughput_mib_s()),
                format!("{:.0}", l.throughput_mib_s()),
                format!("{}", m.latency.percentile(99.9)),
                format!("{}", r.latency.percentile(99.9)),
                format!("{}", l.latency.percentile(99.9)),
            ]);
        }
    }
    print_table(
        "Figure 11: degraded read performance (device 0 failed)",
        &[
            "workload", "bs", "md MiB/s", "rz MiB/s", "ls MiB/s", "md p99.9", "rz p99.9",
            "ls p99.9",
        ],
        &rows,
    );

    capture.finish()?;
    bench::write_breakdown("fig11")
}
