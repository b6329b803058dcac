//! A fio-like workload engine on virtual time.
//!
//! Reproduces the paper's microbenchmark methodology (§6.1): multiple jobs
//! with private queue depths issue direct IO against a shared target —
//! either a zoned volume (RAIZN, a raw ZNS device) or a block volume
//! (mdraid, a raw conventional SSD) — and the engine aggregates
//! throughput, median and tail latency, plus per-second timeseries for the
//! Fig. 10 sustained-overwrite experiment.
//!
//! Queue-depth semantics follow fio with `iodepth=N`: each job keeps N IOs
//! in flight; a new IO is issued the instant the oldest completes. Virtual
//! time comes from the device models underneath.
//!
//! # Examples
//!
//! ```
//! use workloads::{Engine, JobSpec, OpKind, Pattern, ZonedTarget};
//! use zns::{ZnsConfig, ZnsDevice};
//! use std::sync::Arc;
//!
//! let dev = Arc::new(ZnsDevice::new(ZnsConfig::small_test()));
//! let target = ZonedTarget::new(dev);
//! let job = JobSpec::new(OpKind::Write, Pattern::Sequential, 4)
//!     .ops(16)
//!     .queue_depth(4);
//! let report = Engine::new(42).run(&target, &[job]).unwrap();
//! assert_eq!(report.total_ops, 16);
//! assert!(report.throughput_mib_s() > 0.0 || report.duration.as_nanos() == 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod harness;
mod sched;
mod series;
mod target;

pub use engine::{Engine, JobReport, JobSpec, OpKind, Pattern, PipelineDepth, RunReport};
pub use sched::{Admission, OpToken, SchedCompletion, SharedScheduler, ShedReason, TenantId};
pub use series::LatencySeries;
pub use target::{BlockTarget, IoTarget, ZonedTarget};
