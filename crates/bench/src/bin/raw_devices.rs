//! §6.1 raw device microbenchmark: maximum sequential write and read
//! throughput of one ZNS SSD vs one conventional SSD. The paper reports
//! 1052 MiB/s write / 3265 MiB/s read for the ZNS device, 2% / 4% lower
//! than the conventional SSD.

use bench::{bs_label, conv_devices, prime, print_table, recorder, zns_config, zns_devices};
use sim::SimTime;
use workloads::{BlockTarget, Engine, IoTarget, JobSpec, OpKind, Pattern, ZonedTarget};

const ZONES: u32 = 64;
const ZONE_SECTORS: u64 = 4096;

fn one(target: &dyn IoTarget, kind: OpKind, bs: u64, start: SimTime) -> bench::BenchResult<f64> {
    let cap = target.capacity_sectors();
    let job = JobSpec::new(kind, Pattern::Sequential, bs)
        .region(0, cap)
        .ops((cap / bs).min(8192))
        .queue_depth(64);
    Ok(Engine::new(60 + bs)
        .start_at(start)
        .run(target, &[job])?
        .throughput_mib_s())
}

/// Fresh device per configuration, like the paper's reformat-per-trial.
fn sweep(zoned: bool, kind: OpKind) -> bench::BenchResult<Vec<(u64, f64)>> {
    let mut out = Vec::new();
    for bs in [16u64, 64, 256] {
        let tput = if zoned {
            let dev = zns_devices(&recorder(), 1, &zns_config(ZONES, ZONE_SECTORS)).remove(0);
            let t = ZonedTarget::new(dev);
            let start = if kind == OpKind::Read {
                prime(&t, SimTime::ZERO)?
            } else {
                SimTime::ZERO
            };
            one(&t, kind, bs, start)?
        } else {
            let dev = conv_devices(&recorder(), 1, ZONES as u64 * ZONE_SECTORS).remove(0);
            let t = BlockTarget::new(dev);
            let start = if kind == OpKind::Read {
                prime(&t, SimTime::ZERO)?
            } else {
                SimTime::ZERO
            };
            one(&t, kind, bs, start)?
        };
        out.push((bs, tput));
    }
    Ok(out)
}

fn main() -> bench::BenchResult {
    let zw = sweep(true, OpKind::Write)?;
    let cw = sweep(false, OpKind::Write)?;
    let zr = sweep(true, OpKind::Read)?;
    let cr = sweep(false, OpKind::Read)?;

    let rows: Vec<Vec<String>> = zw
        .iter()
        .zip(cw.iter())
        .zip(zr.iter().zip(cr.iter()))
        .map(|(((bs, zwt), (_, cwt)), ((_, zrt), (_, crt)))| {
            vec![
                bs_label(*bs),
                format!("{zwt:.0}"),
                format!("{cwt:.0}"),
                format!("{:.1}%", (zwt / cwt - 1.0) * 100.0),
                format!("{zrt:.0}"),
                format!("{crt:.0}"),
                format!("{:.1}%", (zrt / crt - 1.0) * 100.0),
            ]
        })
        .collect();
    print_table(
        "Raw devices (§6.1): sequential throughput, single device",
        &[
            "bs",
            "ZNS wr MiB/s",
            "conv wr MiB/s",
            "wr gap",
            "ZNS rd MiB/s",
            "conv rd MiB/s",
            "rd gap",
        ],
        &rows,
    );

    bench::write_breakdown("raw_devices")
}
