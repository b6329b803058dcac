//! The `lsgc` geometry formats the log-structured engine, whose mapping
//! state is 32-bit words, and its metadata slot holds the largest
//! checkpoint the volume could write there.

use bench::lsgc::{ZONES, ZONE_SECTORS};
use lsraid::LsConfig;
use zns::ZonedVolume;

#[test]
fn lsgc_geometry_formats_at_both_parities() {
    for parity in [1, 2] {
        let config = LsConfig::default().parity(parity);
        let vol = bench::lsraid_volume(&bench::recorder(), ZONES, ZONE_SECTORS, config)
            .unwrap_or_else(|e| panic!("p{parity}: {e}"));
        assert!(vol.geometry().num_zones() > 0);
    }
}
