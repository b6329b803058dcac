//! Virtual-time simulation substrate for the RAIZN reproduction.
//!
//! The entire IO stack in this repository runs on a *virtual clock*: devices
//! compute, for each request, the [`SimTime`] at which it completes, and the
//! workload engine advances time by tracking in-flight completions. This
//! makes every experiment deterministic and lets crash tests inject power
//! loss at exact instants.
//!
//! This crate provides the shared building blocks:
//!
//! - [`SimTime`] / [`SimDuration`]: nanosecond-resolution virtual time.
//! - [`OccupancyModel`]: a lock-free discrete-event service-time model
//!   with per-channel/way/plane `next_avail_time`, approximating the
//!   internal parallelism of an SSD and shareable across worker threads
//!   without a device mutex.
//! - [`Histogram`]: a log-linear latency histogram with percentile queries
//!   (an HdrHistogram-style structure, sufficient for p50/p99/p99.9).
//! - [`Timeseries`]: a throughput sampler for timeseries plots (Fig. 10).
//! - [`SimRng`]: a deterministic, seedable RNG wrapper.
//! - [`xor`]: word-vectorized XOR/zero-check kernels shared by every
//!   parity hot path (stripe fill, reconstruction, rebuild, mdraid5).
//! - [`gf`]: GF(2^8) Reed–Solomon kernels for the dual (P+Q) parity
//!   mode (vectorized doubling ladder for `2^k`, product table otherwise),
//!   plus the two-erasure solver.
//! - [`codec`]: the stripe codec over both — one-pass P+Q encode of a
//!   whole stripe and allocation-free erasure decode, used by every
//!   engine that keeps parity.
//!
//! # Examples
//!
//! ```
//! use sim::{OccupancyModel, SimTime, SimDuration};
//!
//! // A device with 8 channels; a command occupies one for 10 us.
//! let m = OccupancyModel::new(8, 1, 1);
//! let t0 = SimTime::ZERO;
//! let done = m.occupy(t0, SimDuration::from_micros(10));
//! assert!(done > t0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod gf;
mod histogram;
mod occupancy;
mod rng;
mod series;
mod stats;
mod time;
pub mod xor;

pub use codec::encode_pq;
pub use gf::{gf_inv, gf_mul, gf_mul_into, gf_pow, gf_scale, rs_solve_two};
pub use histogram::Histogram;
pub use occupancy::{OccupancyModel, Occupied};
pub use rng::SimRng;
pub use series::{Timeseries, TimeseriesPoint};
pub use stats::Summary;
pub use time::{SimDuration, SimTime};
pub use xor::{is_zero, xor_fold, xor_into};
