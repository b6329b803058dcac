//! Table 1: location and size of RAIZN metadata for a 5-device array with
//! 64 KiB stripe units and 1077 MiB physical zone capacity — computed
//! from this implementation's constants and layout math.

use bench::print_table;
use raizn::{RaiznConfig, RaiznLayout, MD_HEADER_BYTES};
use zns::ZoneGeometry;

fn main() -> bench::BenchResult {
    // The paper's geometry: 2 TB ZN540 — 1077 MiB capacity zones.
    let phys = ZoneGeometry::new(1900, 524_288, 275_712);
    let config = RaiznConfig::default(); // 64 KiB stripe units, 3 md zones
    let layout = RaiznLayout::new(5, config, phys);

    let su_bytes = layout.stripe_unit() * zns::SECTOR_SIZE;
    let lzones = layout.logical_zones() as u64;
    let units_per_zone = layout.stripes_per_zone() * layout.data_units();
    let pbitmap_bytes = units_per_zone.div_ceil(8);
    let gen_mem_per_zone = 8.0 + 32.0 / 508.0; // counter + amortized header
    let stripe_buffer_bytes = (layout.data_units() + 1) * layout.stripe_unit() * zns::SECTOR_SIZE;

    let rows = vec![
        vec![
            "Remapped stripe unit".into(),
            "affected device only".into(),
            format!(
                "{} KiB (header) + {} KiB (unit)",
                MD_HEADER_BYTES / 1024,
                su_bytes / 1024
            ),
            format!(
                "{} KiB + {} KiB (unit)",
                MD_HEADER_BYTES / 1024,
                su_bytes / 1024
            ),
        ],
        vec![
            "Zone reset log".into(),
            "two devices (rotating)".into(),
            format!("{} KiB", MD_HEADER_BYTES / 1024),
            "-".into(),
        ],
        vec![
            "Generation counters".into(),
            "all devices".into(),
            format!("{} KiB", MD_HEADER_BYTES / 1024),
            format!("{gen_mem_per_zone:.2} B per logical zone"),
        ],
        vec![
            "Partial parity".into(),
            "device with parity".into(),
            format!(
                "{} KiB (header) + <= {} KiB (rows)",
                MD_HEADER_BYTES / 1024,
                su_bytes / 1024
            ),
            "-".into(),
        ],
        vec![
            "Superblock".into(),
            "all devices".into(),
            format!("{} KiB", MD_HEADER_BYTES / 1024),
            format!("{} KiB", MD_HEADER_BYTES / 1024),
        ],
        vec![
            "Stripe buffers".into(),
            "-".into(),
            "-".into(),
            // What a zone shard holds (`LZone::buffer`): the staged buffer
            // of its incomplete stripe, drawn from and returned to one pool.
            format!(
                "{} KiB ({} units) per open stripe, pooled",
                stripe_buffer_bytes / 1024,
                layout.data_units() + 1,
            ),
        ],
        vec![
            "Persistence bitmaps".into(),
            "-".into(),
            "-".into(),
            format!("{} KiB per logical zone", pbitmap_bytes / 1024),
        ],
        vec![
            "Physical zone descriptors".into(),
            "-".into(),
            "-".into(),
            format!("64 B x {} zones x 5 devices", phys.num_zones()),
        ],
        vec![
            "Logical zone descriptors".into(),
            "-".into(),
            "-".into(),
            format!("64 B x {lzones} logical zones"),
        ],
    ];
    print_table(
        "Table 1: RAIZN metadata (5 devices, 64 KiB stripe units, 1077 MiB zones)",
        &[
            "metadata type",
            "persistent location",
            "storage per update",
            "memory footprint",
        ],
        &rows,
    );

    println!(
        "\nderived: logical zones = {lzones}, logical zone capacity = {} MiB, \
         stripes per zone = {}",
        layout.logical_geometry().zone_cap() * zns::SECTOR_SIZE / (1024 * 1024),
        layout.stripes_per_zone()
    );

    bench::write_breakdown("table1")
}
