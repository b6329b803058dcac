//! Figure 7: mdraid throughput vs block size for 8–128 KiB stripe units
//! (sequential write, sequential read, random read).

use bench::{bs_label, mdraid_volume, prime, print_table, run_micro, Micro, TimelineRun};
use sim::SimTime;
use workloads::BlockTarget;

const DEV_SECTORS: u64 = 64 * 4096; // 1 GiB per device
const STRIPE_UNITS: [u64; 4] = [2, 4, 16, 32]; // 8K, 16K, 64K, 128K
const BLOCK_SIZES: [u64; 5] = [1, 4, 16, 64, 256];

fn main() -> bench::BenchResult {
    let threads = bench::threads_arg("fig7")?;
    // Timeline capture rides on the flagship configuration (largest
    // stripe unit and block size, sequential write).
    let capture = TimelineRun::new("fig7");
    for micro in [Micro::SeqWrite, Micro::SeqRead, Micro::RandRead] {
        let mut rows = Vec::new();
        for su in STRIPE_UNITS {
            let mut cells = vec![format!("su={}", bs_label(su))];
            for bs in BLOCK_SIZES {
                let flagship = micro == Micro::SeqWrite && su == 32 && bs == 256;
                let md = mdraid_volume(&capture.recorder_if(flagship), DEV_SECTORS, su)?;
                let t = BlockTarget::new(md);
                let start = if micro == Micro::SeqWrite {
                    SimTime::ZERO
                } else {
                    prime(&t, SimTime::ZERO)?
                };
                let r = run_micro(&t, micro, bs, su * 4, start, threads)?;
                cells.push(format!("{:.0}", r.throughput_mib_s()));
            }
            rows.push(cells);
        }
        let headers: Vec<String> = std::iter::once("stripe unit".to_string())
            .chain(BLOCK_SIZES.iter().map(|b| bs_label(*b)))
            .collect();
        let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        print_table(
            &format!(
                "Figure 7: mdraid {} throughput (MiB/s) by stripe unit",
                micro.name()
            ),
            &headers_ref,
            &rows,
        );
    }

    capture.finish()?;
    bench::write_breakdown("fig7")
}
