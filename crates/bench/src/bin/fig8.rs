//! Figure 8: RAIZN throughput vs block size for 8–128 KiB stripe units
//! (sequential write, sequential read, random read).

use bench::{bs_label, prime, print_table, raizn_volume, run_micro, Micro, TimelineRun};
use sim::SimTime;
use workloads::ZonedTarget;
use zns::ZonedVolume;

const ZONES: u32 = 64;
const ZONE_SECTORS: u64 = 4096; // 16 MiB zones
const STRIPE_UNITS: [u64; 4] = [2, 4, 16, 32]; // 8K, 16K, 64K, 128K
const BLOCK_SIZES: [u64; 5] = [1, 4, 16, 64, 256];

fn main() -> bench::BenchResult {
    let threads = bench::threads_arg("fig8")?;
    // Timeline capture rides on the flagship configuration (largest
    // stripe unit and block size, sequential write).
    let capture = TimelineRun::new("fig8");
    for micro in [Micro::SeqWrite, Micro::SeqRead, Micro::RandRead] {
        let mut rows = Vec::new();
        for su in STRIPE_UNITS {
            let mut cells = vec![format!("su={}", bs_label(su))];
            for bs in BLOCK_SIZES {
                let flagship = micro == Micro::SeqWrite && su == 32 && bs == 256;
                let vol = if flagship {
                    capture.raizn_volume(ZONES, ZONE_SECTORS, su)?
                } else {
                    raizn_volume(ZONES, ZONE_SECTORS, su)?
                };
                let t = ZonedTarget::new(vol);
                let start = if micro == Micro::SeqWrite {
                    SimTime::ZERO
                } else {
                    prime(&t, SimTime::ZERO)?
                };
                let align = t.volume().geometry().zone_cap();
                let r = run_micro(&t, micro, bs, align, start, threads)?;
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
                "Figure 8: RAIZN {} throughput (MiB/s) by stripe unit",
                micro.name()
            ),
            &headers_ref,
            &rows,
        );
    }

    capture.finish()?;
    bench::write_breakdown("fig8")
}
