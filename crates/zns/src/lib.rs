//! A user-space model of an NVMe Zoned Namespace (ZNS) SSD.
//!
//! This crate is the device substrate for the RAIZN reproduction. It
//! implements the ZNS semantics the paper's design depends on:
//!
//! - the address space is divided into **zones** that must be written
//!   sequentially at their **write pointer** and reset as a unit;
//! - the zone **state machine** (empty / implicitly-open / explicitly-open /
//!   closed / full / read-only / offline) with per-device limits on open and
//!   active zones;
//! - **zone append**, which lets the host submit writes without knowing the
//!   write pointer and returns the assigned address;
//! - a **volatile write cache**: regular writes are acknowledged before they
//!   are durable, a **flush** or **FUA** write makes data durable, and data
//!   in a zone becomes durable strictly in LBA order (the "persisted in
//!   sequential order" guarantee in §1 of the paper);
//! - **power loss**: [`ZnsDevice::crash`] discards an arbitrary (policy-
//!   controlled) suffix of each zone's non-durable data, which is how the
//!   stripe-hole and partial-zone-reset scenarios of §3 are produced in
//!   tests;
//! - **device failure** injection for degraded-mode and rebuild experiments;
//! - a deterministic, channel-parallel **latency model** on virtual time;
//! - the **array layer** ([`array`](mod@array)) both RAID engines share:
//!   member commands with bounded retries and an error budget, the failure
//!   mask, erasure decode and the rebuild driver.
//!
//! # Examples
//!
//! ```
//! use zns::{ZnsConfig, ZnsDevice, WriteFlags, ZonedVolume};
//! use sim::SimTime;
//!
//! # fn main() -> Result<(), zns::ZnsError> {
//! let dev = ZnsDevice::new(ZnsConfig::small_test());
//! let geo = dev.geometry();
//! let data = vec![7u8; geo.sector_size() as usize];
//! let done = dev.write(SimTime::ZERO, 0, &data, WriteFlags::default())?;
//! let mut out = vec![0u8; data.len()];
//! dev.read(done.done, 0, &mut out)?;
//! assert_eq!(out, data);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
mod config;
mod crash;
mod device;
mod error;
mod fault;
mod geometry;
mod stats;
mod volume;
mod zone;

pub use config::{LatencyConfig, ZnsConfig, ZnsConfigBuilder};
pub use crash::CrashPolicy;
pub use device::ZnsDevice;
pub use error::ZnsError;
pub use fault::{FaultOp, FaultPlan};
pub use geometry::{Lba, ZoneGeometry, SECTOR_SIZE};
pub use stats::DeviceStats;
pub use volume::{AppendCompletion, IoCompletion, WriteFlags, ZonedVolume};
pub use zone::{ZoneInfo, ZoneMgmtOp, ZoneState};

/// Convenient result alias for ZNS operations.
pub type Result<T> = std::result::Result<T, ZnsError>;
