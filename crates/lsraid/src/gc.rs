//! RAID-level garbage collection for the log-structured engine.
//!
//! [`GcManager`] is a background actor: each [`GcManager::pump`] call
//! migrates a bounded budget of valid data out of the current victim
//! group (picked by garbage ratio with an age tie-break) into the cold
//! stream, in runs of up to one stripe of data per sink op, and reclaims
//! the group once drained. Migration IO runs under
//! [`obs::Actor::Gc`], so trace spans blame GC and the engine's guarded
//! remap logic recognizes the writes; routing the writes through a QoS
//! scheduler tenant (see the `bench` crate) turns the manager into an
//! internal tenant whose interference with foreground IO is visible in
//! the span-blame breakdown.

use crate::LsVolume;
use sim::SimTime;
use std::sync::Arc;
use zns::{Lba, Result, WriteFlags, ZonedVolume, SECTOR_SIZE};

/// Where migrated data goes. The sink abstraction lets migration writes
/// flow through a QoS scheduler (as an internal tenant) or straight back
/// into the volume.
pub trait GcSink {
    /// Writes migrated `data` at logical sector `lba`, returning the
    /// completion time.
    ///
    /// # Errors
    ///
    /// Propagates volume IO failures.
    fn migrate(&mut self, at: SimTime, lba: Lba, data: &[u8]) -> Result<SimTime>;
}

/// The trivial sink: migration writes go straight to the volume.
pub struct DirectSink<'a> {
    vol: &'a LsVolume,
}

impl<'a> DirectSink<'a> {
    /// Wraps a volume.
    pub fn new(vol: &'a LsVolume) -> Self {
        DirectSink { vol }
    }
}

impl GcSink for DirectSink<'_> {
    fn migrate(&mut self, at: SimTime, lba: Lba, data: &[u8]) -> Result<SimTime> {
        let _guard = obs::actor_scope(obs::Actor::Gc);
        Ok(self.vol.write(at, lba, data, WriteFlags::default())?.done)
    }
}

/// Background GC policy knobs.
#[derive(Debug, Clone)]
pub struct GcConfig {
    /// Minimum garbage fraction for a sealed group to become a victim
    /// while the free pool sits at or above [`GcConfig::high_water`].
    pub threshold: f64,
    /// Free-group low-water mark: at or below it, any garbage qualifies.
    pub low_water: usize,
    /// Free-group level above which the full `threshold` applies.
    /// Between `threshold_water` and `low_water` the effective
    /// threshold ramps down linearly, so the collector accepts
    /// progressively less-rotted victims as pool pressure rises instead
    /// of idling until the low-water force kicks in. Kept deliberately
    /// close to `low_water`: victim quality should only degrade when
    /// the pool is genuinely short. Collecting early migrates data that
    /// was about to die anyway.
    pub threshold_water: usize,
    /// Free-group level above which the migration rate is zero; see
    /// [`GcConfig::budget_sectors`]. Kept wide so the service rate
    /// changes gently with pool level (a steep rate ramp turns pool
    /// wobble into foreground throughput wobble).
    pub high_water: usize,
    /// Migration budget per [`GcManager::pump`] call at full pool
    /// pressure, in sectors. The actual rate scales linearly with
    /// pressure: zero at or above `high_water` free groups, the full
    /// budget at or below `low_water`. Fractional budgets accumulate as
    /// credit across pumps, so the collector trickles at a near-constant
    /// equilibrium rate instead of alternating between idle and
    /// full-tilt — which is what keeps foreground throughput flat.
    pub budget_sectors: u64,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            threshold: 0.25,
            low_water: 2,
            threshold_water: 6,
            high_water: 6,
            budget_sectors: 256,
        }
    }
}

impl GcConfig {
    /// The garbage threshold in effect at `free` free groups: the
    /// configured value at or above the high-water mark, zero at or
    /// below the low-water mark, linear in between.
    #[must_use]
    pub fn effective_threshold(&self, free: usize) -> f64 {
        let lo = self.low_water;
        let hi = self.threshold_water.max(lo + 1);
        if free >= hi {
            self.threshold
        } else if free <= lo {
            0.0
        } else {
            self.threshold * (free - lo) as f64 / (hi - lo) as f64
        }
    }

    /// Fraction of the full migration budget in effect at `free` free
    /// groups: zero at or above the high-water mark, one at or below
    /// the low-water mark, linear in between.
    #[must_use]
    pub fn pressure(&self, free: usize) -> f64 {
        let lo = self.low_water as f64;
        let hi = self.high_water.max(self.low_water + 1) as f64;
        ((hi - free as f64) / (hi - lo)).clamp(0.0, 1.0)
    }
}

/// Incremental, budgeted garbage collector over an [`LsVolume`].
pub struct GcManager {
    vol: Arc<LsVolume>,
    cfg: GcConfig,
    victim: Option<u32>,
    cursor: u64,
    buf: Vec<u8>,
    /// Pressure-scaled budget carried over from earlier pumps, in
    /// sectors (can be fractional).
    credit: f64,
    migrated_sectors: u64,
    reclaimed_groups: u64,
}

impl GcManager {
    /// Creates a manager over `vol` with the given policy.
    pub fn new(vol: Arc<LsVolume>, cfg: GcConfig) -> GcManager {
        let stripe = vol.stripe_data_sectors();
        GcManager {
            vol,
            cfg,
            victim: None,
            cursor: 0,
            buf: vec![0u8; (stripe * SECTOR_SIZE) as usize],
            credit: 0.0,
            migrated_sectors: 0,
            reclaimed_groups: 0,
        }
    }

    /// Whether a victim is currently being drained.
    pub fn active(&self) -> bool {
        self.victim.is_some()
    }

    /// Total sectors migrated by this manager.
    pub fn migrated_sectors(&self) -> u64 {
        self.migrated_sectors
    }

    /// Total groups this manager drained and reclaimed.
    pub fn reclaimed_groups(&self) -> u64 {
        self.reclaimed_groups
    }

    /// Runs one bounded GC pass: acquires a victim if idle, migrates up
    /// to the configured budget of valid sectors through `sink`, and
    /// reclaims the victim once fully drained. Returns the completion
    /// time of the last IO issued (or `at` when there was nothing to do).
    ///
    /// # Errors
    ///
    /// Propagates volume IO failures; the victim stays acquired so the
    /// next pump retries.
    pub fn pump(&mut self, at: SimTime, sink: &mut dyn GcSink) -> Result<SimTime> {
        let _guard = obs::actor_scope(obs::Actor::Gc);
        let free = self.vol.free_group_count();
        // Accrue pressure-scaled budget; cap the carried credit so a
        // long victimless stretch cannot bank an interference burst.
        #[allow(clippy::cast_precision_loss)]
        let full = self.cfg.budget_sectors as f64;
        self.credit = (self.credit + full * self.cfg.pressure(free)).min(4.0 * full);
        if self.credit < 1.0 {
            return Ok(at);
        }
        let v = match self.victim {
            Some(v) => v,
            None => {
                let eff = self.cfg.effective_threshold(free);
                let Some(v) = self.vol.pick_victim(eff, self.cfg.low_water) else {
                    return Ok(at);
                };
                if !self.vol.begin_migration(v) {
                    return Ok(at);
                }
                self.victim = Some(v);
                self.cursor = 0;
                v
            }
        };
        let stripe = self.vol.stripe_data_sectors();
        let mut t = at;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let budget = self.credit as u64;
        let mut spent = 0u64;
        loop {
            if spent >= budget {
                #[allow(clippy::cast_precision_loss)]
                {
                    self.credit -= spent as f64;
                }
                return Ok(t);
            }
            let max = stripe.min(budget - spent);
            let Some((lba, len, next)) = self.vol.next_valid_run(v, self.cursor, max) else {
                break;
            };
            self.cursor = next;
            let bytes = (len * SECTOR_SIZE) as usize;
            let rd = self.vol.read(t, lba, &mut self.buf[..bytes])?.done;
            t = sink.migrate(rd, lba, &self.buf[..bytes])?;
            spent += len;
            self.migrated_sectors += len;
        }
        // Runs exhausted: the group is drained (any sector overwritten
        // by the foreground mid-drain was unmapped from the victim and
        // needs no migration).
        #[allow(clippy::cast_precision_loss)]
        {
            self.credit -= spent as f64;
        }
        self.vol.end_migration();
        self.victim = None;
        if self.vol.group_valid(v) == 0 {
            t = self.vol.reclaim_group(t, v)?;
            self.reclaimed_groups += 1;
        }
        Ok(t)
    }
}
