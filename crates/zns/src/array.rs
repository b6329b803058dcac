//! The member-facing half of a zoned RAID array, shared by every engine
//! that stripes over [`ZnsDevice`]s (DESIGN.md "Array layer").
//!
//! An engine owns a [`Members`]: the device table, the failure mask and the
//! per-member error counters. Every command it sends a member goes through
//! [`Roster::command`] — the one bounded transient retry, the one error
//! budget and the one auto-degrade. Every erasure decode is the one decode
//! loop here, over the engine's [`Stripe`] (which role each member plays,
//! which slots can be served, how a slot is read), and an engine reaches
//! it only four ways: every data read through [`Members::read_slot`],
//! which decides what a failed member read becomes; every scrub through
//! [`Members::scrub`] and [`Verify::stripe`]; every rebuild through
//! [`Members::rebuild`], whose policy closure names the live extents of
//! the lost member; every mount-time decode from replayed parity through
//! [`Members::decode`]. What stays with the engine is its policy: layout,
//! caches, metadata, and where a repaired unit goes.

use crate::{Result, WriteFlags, ZnsDevice, ZnsError, ZoneInfo, ZonedVolume, SECTOR_SIZE};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use sim::codec::{Decode, Role};
use sim::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Retries a member command gets after a transient error before the
/// failure is charged to the member.
pub const TRANSIENT_RETRY_LIMIT: u32 = 3;

/// Unrecovered errors a member may accumulate before it is auto-degraded.
pub const DEVICE_ERROR_BUDGET: u64 = 16;

/// Splits sectors `[from, to)` of a stripe at its unit boundaries and
/// yields `(sector, row, run)` per segment: `run` sectors starting at
/// stripe sector `sector`, which occupy the contiguous rows `[row, row +
/// run)` of unit `sector / su`. Whoever walks a range of a stripe unit by
/// unit — the running-parity fold, the partial-parity snapshot, the data
/// legs of a write — splits it here.
pub fn unit_segments(from: u64, to: u64, su: u64) -> impl Iterator<Item = (u64, u64, u64)> {
    let mut s = from;
    std::iter::from_fn(move || {
        (s < to).then(|| {
            let (at, row) = (s, s % su);
            let run = (su - row).min(to - s);
            s += run;
            (at, row, run)
        })
    })
}

/// Whether a fetch that failed with `e` makes its slot an erasure rather
/// than ending the operation.
fn erasure(e: &ZnsError) -> bool {
    matches!(
        e,
        ZnsError::MediaError { .. } | ZnsError::TransientError { .. } | ZnsError::DeviceFailed
    )
}

/// What [`Roster::command`] returns for a command it gave up on and
/// charged to the member's error budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exhausted {
    /// Writes and resets: if the charge degraded the member the command
    /// is omitted and completes at its issue time — the member is out of
    /// the array and parity covers what it would have held. Otherwise the
    /// error surfaces.
    Omit,
    /// Reads and appends: the error always surfaces, for the caller to
    /// reconstruct around (reads) or to drop the replica (metadata).
    Surface,
}

/// One stripe as an erasure decode sees it; the engine's layout and caches
/// answer for it.
pub trait Stripe {
    /// The role member `dev` plays in this stripe.
    fn role(&self, dev: u32) -> Role;

    /// Whether member `dev`'s slot can be served. An unavailable slot is an
    /// erasure and is never fetched.
    fn available(&self, dev: u32) -> bool;

    /// Reads rows `[row0, ..)` of member `dev`'s slot into `out`, issued
    /// at `at`; returns the completion.
    ///
    /// # Errors
    ///
    /// A media, transient or device-failed error makes the slot an
    /// erasure; any other error ends the decode.
    fn fetch(&self, at: SimTime, dev: u32, row0: u64, out: &mut [u8]) -> Result<SimTime>;

    /// The zone the stripe belongs to, for the decode's trace span.
    fn zone(&self) -> u32;
}

/// Outcome of rebuilding a replaced member (§4.2, Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildReport {
    /// Virtual time from rebuild start to the last write completion.
    pub duration: SimDuration,
    /// Bytes written to the replacement device (valid data only).
    pub bytes_written: u64,
    /// Zones whose contents were rebuilt.
    pub zones_rebuilt: u32,
}

/// Where one extent of a rebuilt member comes from.
pub enum Fill<'a> {
    /// Bytes the engine still holds (a stripe buffer, a relocation, a
    /// stage); written as they are.
    Copy(&'a [u8]),
    /// Decoded from the surviving members of the stripe.
    Reconstruct(&'a dyn Stripe),
}

/// The members of an array: the device table, the failure mask, the
/// per-member error counters and the counters of what the member layer
/// absorbed.
#[derive(Debug)]
pub struct Members {
    /// Read-locked for the duration of an operation; write-locked only by
    /// a rebuild's final swap.
    devices: RwLock<Vec<Arc<ZnsDevice>>>,
    /// Bit `i` set = member `i` failed. The array keeps serving while
    /// `count_ones() <= parity`.
    failed: AtomicU64,
    /// Unrecovered errors charged per member.
    errors: Vec<AtomicU64>,
    parity: u32,
    /// Sectors per member slot of a stripe (the stripe unit).
    unit_sectors: u64,
    transient_retries: AtomicU64,
    auto_degrades: AtomicU64,
    degraded_reads: AtomicU64,
    double_degraded_reads: AtomicU64,
    read_repairs: AtomicU64,
    /// Spare column sets (`parity` units each) between uses: as many as
    /// were ever lent at once. An innermost lock, held only to pop or
    /// push a set.
    spare_columns: Mutex<Vec<Vec<u8>>>,
    tracer: obs::Tracer,
}

impl Members {
    /// An array of `devices` tolerating `parity` failed members, striped
    /// in `unit_sectors`-sector units, whose commands retry transients up
    /// to [`TRANSIENT_RETRY_LIMIT`] times and which degrades a member past
    /// [`DEVICE_ERROR_BUDGET`] unrecovered errors. Members already failed
    /// join the failure mask.
    ///
    /// # Errors
    ///
    /// [`ZnsError::InvalidArgument`] past 64 members,
    /// [`ZnsError::TooManyFailures`] with more than `parity` failed.
    pub fn new(devices: Vec<Arc<ZnsDevice>>, parity: u32, unit_sectors: u64) -> Result<Members> {
        if devices.len() > 64 {
            return Err(ZnsError::InvalidArgument(format!(
                "an array has at most 64 members (failure bitmask), got {}",
                devices.len()
            )));
        }
        let failed = (0..)
            .zip(&devices)
            .fold(0u64, |m, (i, d)| m | (u64::from(d.is_failed()) << i));
        if failed.count_ones() > parity {
            return Err(ZnsError::TooManyFailures {
                failed: failed.count_ones(),
                parity,
            });
        }
        Ok(Members {
            errors: devices.iter().map(|_| AtomicU64::new(0)).collect(),
            devices: RwLock::new(devices),
            failed: AtomicU64::new(failed),
            parity,
            unit_sectors,
            transient_retries: AtomicU64::new(0),
            auto_degrades: AtomicU64::new(0),
            degraded_reads: AtomicU64::new(0),
            double_degraded_reads: AtomicU64::new(0),
            read_repairs: AtomicU64::new(0),
            spare_columns: Mutex::new(Vec::new()),
            tracer: obs::Tracer::new(),
        })
    }

    /// Attaches the recorder the member layer's decode spans land on.
    pub fn set_recorder(&self, recorder: Arc<obs::Recorder>) {
        self.tracer.attach(recorder, obs::NONE);
    }

    /// Read access to the members for one operation.
    pub fn read(&self) -> Roster<'_> {
        Roster {
            members: self,
            devices: self.devices.read(),
        }
    }

    fn len(&self) -> usize {
        self.errors.len()
    }

    fn unit_bytes(&self) -> usize {
        (self.unit_sectors * SECTOR_SIZE) as usize
    }

    /// Lends a set of spare columns, `parity` stripe units long: a
    /// whole-stripe encode's P and Q, or a decode's landing and second
    /// syndrome columns. Drawn from the pool (allocated only when every
    /// set is out) and returned to it when the guard drops, on error
    /// paths too. Contents are stale between uses.
    pub fn columns(&self) -> Columns<'_> {
        let set = self.spare_columns.lock().pop();
        Columns {
            set: set.unwrap_or_else(|| vec![0u8; self.unit_bytes() * self.parity as usize]),
            pool: &self.spare_columns,
        }
    }

    /// Column sets in the pool, none of them lent.
    pub fn pooled_columns(&self) -> usize {
        self.spare_columns.lock().len()
    }

    /// The failed-member bitmask.
    pub fn failure_mask(&self) -> u64 {
        self.failed.load(Ordering::Acquire)
    }

    /// Whether member `dev` is failed.
    pub fn is_failed(&self, dev: usize) -> bool {
        self.failure_mask() & (1u64 << dev) != 0
    }

    /// The lowest failed member, if any.
    pub fn lowest_failed(&self) -> Option<usize> {
        match self.failure_mask() {
            0 => None,
            m => Some(m.trailing_zeros() as usize),
        }
    }

    /// Every failed member, ascending.
    pub fn failed(&self) -> Vec<usize> {
        let mask = self.failure_mask();
        (0..self.len())
            .filter(|d| mask & (1u64 << d) != 0)
            .collect()
    }

    /// Adds `dev` to the failed set: `Ok(true)` when this call claimed the
    /// failure, `Ok(false)` when it was already failed, and
    /// [`ZnsError::TooManyFailures`] when the array has no parity headroom
    /// left. Lock-free compare-exchange loop.
    ///
    /// # Errors
    ///
    /// [`ZnsError::TooManyFailures`] as above.
    pub fn claim_failure(&self, dev: usize) -> Result<bool> {
        let bit = 1u64 << dev;
        let mut cur = self.failure_mask();
        loop {
            if cur & bit != 0 {
                return Ok(false);
            }
            if cur.count_ones() >= self.parity {
                return Err(ZnsError::TooManyFailures {
                    failed: cur.count_ones(),
                    parity: self.parity,
                });
            }
            match self
                .failed
                .compare_exchange(cur, cur | bit, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Ok(true),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Fails member `dev`: later reads decode around it and writes omit
    /// it. Idempotent for a failed member.
    ///
    /// # Errors
    ///
    /// [`ZnsError::InvalidArgument`] out of range,
    /// [`ZnsError::TooManyFailures`] past the parity headroom.
    pub fn fail(&self, dev: usize) -> Result<()> {
        if dev >= self.len() {
            return Err(ZnsError::InvalidArgument(format!(
                "device index {dev} out of range (array has {})",
                self.len()
            )));
        }
        if self.claim_failure(dev)? {
            self.devices.read()[dev].fail();
        }
        Ok(())
    }

    /// Unrecovered errors charged to member `dev` so far.
    pub fn errors(&self, dev: usize) -> u64 {
        self.errors[dev].load(Ordering::Relaxed)
    }

    /// Transient errors absorbed by retries.
    pub fn transient_retries(&self) -> u64 {
        self.transient_retries.load(Ordering::Relaxed)
    }

    /// Members auto-degraded past their error budget.
    pub fn auto_degrades(&self) -> u64 {
        self.auto_degrades.load(Ordering::Relaxed)
    }

    /// Reads served around a member that could not serve them.
    pub fn degraded_reads(&self) -> u64 {
        self.degraded_reads.load(Ordering::Relaxed)
    }

    /// Decodes that solved around two erasures.
    pub fn double_degraded_reads(&self) -> u64 {
        self.double_degraded_reads.load(Ordering::Relaxed)
    }

    /// Latent units a read decoded whole and handed back for repair.
    pub fn read_repairs(&self) -> u64 {
        self.read_repairs.load(Ordering::Relaxed)
    }

    /// The one decode loop: rows `[row0, ..)` of the slot member `target`
    /// holds in `stripe`, into `out`, from the slots the stripe can serve
    /// (§4.2).
    ///
    /// Every member whose slot `stripe` reports unavailable counts as
    /// erased beside `target`; more erasures than parity is unrecoverable.
    /// Every other slot the erasure pattern needs is fetched into the first
    /// column of `scratch` (a set of [`columns`](Self::columns)) and
    /// folded into `out` — and, when a second data unit is lost too, into
    /// the second column — then solved in place. A source that turns out
    /// unreadable mid-decode joins the erasure set and the decode restarts
    /// while headroom remains. Nothing is allocated. Returns the latest
    /// fetch completion and the number of erased slots.
    ///
    /// # Errors
    ///
    /// [`ZnsError::DeviceFailed`] past the parity headroom (or the erasure
    /// that crossed it mid-decode), or the first fetch error that is not an
    /// erasure.
    fn solve(
        &self,
        scratch: &mut [u8],
        at: SimTime,
        stripe: &dyn Stripe,
        target: u32,
        row0: u64,
        out: &mut [u8],
    ) -> Result<(SimTime, u32)> {
        let n = self.len() as u32;
        let mut missing = (0..n)
            .filter(|&dev| dev != target && !stripe.available(dev))
            .fold(1u64 << target, |m, dev| m | 1u64 << dev);
        if missing.count_ones() > self.parity {
            return Err(ZnsError::DeviceFailed);
        }
        let unit_bytes = scratch.len() / self.parity as usize;
        let (tmp, aux) = scratch.split_at_mut(unit_bytes);
        let len = out.len();
        let tmp = &mut tmp[..len];
        let aux_len = |plan: &Decode| if plan.uses_aux() { len } else { 0 };
        let target_role = stripe.role(target);
        let (plan, done) = 'retry: loop {
            let rest = missing & !(1u64 << target);
            let other = (rest != 0).then(|| stripe.role(rest.trailing_zeros()));
            let plan = Decode::new(target_role, other).ok_or_else(|| {
                ZnsError::InvalidArgument(
                    "internal invariant violated: duplicate role in erasure set".to_string(),
                )
            })?;
            let aux = &mut aux[..aux_len(&plan)];
            plan.begin(out, aux);
            let mut done = at;
            for dev in 0..n {
                if missing & (1u64 << dev) != 0 {
                    continue;
                }
                let role = stripe.role(dev);
                if !plan.wants(role) {
                    continue;
                }
                match stripe.fetch(at, dev, row0, tmp) {
                    Ok(t) => done = done.max(t),
                    Err(e) if erasure(&e) => {
                        if missing.count_ones() >= self.parity {
                            return Err(e);
                        }
                        missing |= 1u64 << dev;
                        continue 'retry;
                    }
                    Err(e) => return Err(e),
                }
                plan.absorb(role, tmp, out, aux);
            }
            break 'retry (plan, done);
        };
        plan.finish(out, &aux[..aux_len(&plan)]);
        Ok((done, missing.count_ones()))
    }

    /// [`solve`](Self::solve) for a read, a scrub or a rebuild: a decode
    /// around two erasures is counted and emits one
    /// [`obs::PathKind::DoubleDegraded`] span. Returns the latest fetch
    /// completion; errors as `solve`.
    fn reconstruct(
        &self,
        scratch: &mut [u8],
        at: SimTime,
        stripe: &dyn Stripe,
        target: u32,
        row0: u64,
        out: &mut [u8],
    ) -> Result<SimTime> {
        let (done, erased) = self.solve(scratch, at, stripe, target, row0, out)?;
        if erased > 1 {
            self.double_degraded_reads.fetch_add(1, Ordering::Relaxed);
            self.tracer.leaf(
                obs::Span::new(obs::OpClass::Read, obs::Stage::WholeOp, at, done)
                    .path(obs::PathKind::DoubleDegraded)
                    .zone(stripe.zone())
                    .sectors(out.len() as u64 / SECTOR_SIZE),
            );
        }
        Ok(done)
    }

    /// Mount's decode from replayed parity (§5.1): [`solve`](Self::solve)
    /// in a set of [`columns`](Self::columns), counting and tracing nothing
    /// (a mount is not a degraded read). `Ok(false)` past the parity
    /// headroom — a source that fails mid-decode joins the erasure set as
    /// on every other path — for the caller to try another parity version
    /// or roll back.
    ///
    /// # Errors
    ///
    /// The first fetch error that is not an erasure.
    pub fn decode(
        &self,
        at: SimTime,
        stripe: &dyn Stripe,
        target: u32,
        row0: u64,
        out: &mut [u8],
    ) -> Result<bool> {
        match self.solve(&mut self.columns(), at, stripe, target, row0, out) {
            Ok(_) => Ok(true),
            Err(e) if erasure(&e) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Reads rows `[row0, ..)` of the data unit member `dev` holds in
    /// `stripe` into `out`: the one read path of every engine, and the one
    /// place that decides what a member read that failed becomes (§4.2).
    ///
    /// A member that cannot serve the rows — failed with nothing else
    /// serving its slot, a retry-exhausted transient, a media error — is
    /// read around, counting a degraded read and emitting one
    /// [`obs::PathKind::Degraded`] span: while the stripe has no parity
    /// yet, `open` holds the engine's staged bytes of those rows and they
    /// are served; once it has, the rows are decoded in a set of
    /// [`columns`](Self::columns), drawn only for the decode. A media
    /// error in a stripe with parity is a latent sector instead: the
    /// whole unit is decoded, the rows are served from it, and it comes
    /// back with the completion for the engine to store where reads will
    /// find it (a read repair, counted).
    ///
    /// # Errors
    ///
    /// A fetch error that is not an erasure; the decode's error.
    pub fn read_slot(
        &self,
        at: SimTime,
        stripe: &dyn Stripe,
        dev: u32,
        row0: u64,
        out: &mut [u8],
        open: Option<&[u8]>,
    ) -> Result<(SimTime, Option<Vec<u8>>)> {
        let err = match stripe.fetch(at, dev, row0, out) {
            Err(e) if erasure(&e) => e,
            done => return done.map(|t| (t, None)),
        };
        let decode = |row0: u64, out: &mut [u8]| {
            self.reconstruct(&mut self.columns(), at, stripe, dev, row0, out)
        };
        if let (ZnsError::MediaError { .. }, None) = (err, open) {
            let mut unit = vec![0u8; self.unit_bytes()];
            let done = decode(0, &mut unit)?;
            let off = (row0 * SECTOR_SIZE) as usize;
            out.copy_from_slice(&unit[off..off + out.len()]);
            self.read_repairs.fetch_add(1, Ordering::Relaxed);
            return Ok((done, Some(unit)));
        }
        self.degraded_reads.fetch_add(1, Ordering::Relaxed);
        let done = match open {
            Some(rows) => {
                out.copy_from_slice(rows);
                at
            }
            None => decode(row0, out)?,
        };
        self.tracer.leaf(
            obs::Span::new(obs::OpClass::Read, obs::Stage::WholeOp, at, done)
                .path(obs::PathKind::Degraded)
                .zone(stripe.zone())
                .sectors(out.len() as u64 / SECTOR_SIZE),
        );
        Ok((done, None))
    }

    /// Runs one scrub pass (§4.2 maintenance). Refuses a degraded array —
    /// parity is only checked, and a repair only trusted, with every
    /// member present — blames device time on [`obs::Actor::Scrub`], so
    /// foreground ops stalled behind it show up as interference in their
    /// blame trees, and hands `walk` the roster and one [`Verify`]: the
    /// engine picks the stripes and repairs what [`Verify::stripe`] finds.
    ///
    /// # Errors
    ///
    /// [`ZnsError::DeviceFailed`] with a member failed; whatever `walk`
    /// fails with.
    pub fn scrub<T>(
        &self,
        walk: impl FnOnce(&Roster<'_>, &mut Verify<'_>) -> Result<T>,
    ) -> Result<T> {
        if self.failure_mask() != 0 {
            return Err(ZnsError::DeviceFailed);
        }
        let _actor = obs::actor_scope(obs::Actor::Scrub);
        let unit = self.unit_bytes();
        let columns = unit * self.parity as usize;
        let mut verify = Verify {
            members: self,
            unit,
            data: vec![0u8; unit * (self.len() - self.parity as usize)],
            stored: vec![0u8; columns],
            fresh: vec![0u8; columns],
        };
        walk(&self.read(), &mut verify)
    }

    /// Rebuilds the lowest failed member onto `replacement`: `policy`
    /// walks the zones the engine says are live and hands each extent of
    /// the lost member to the [`Rebuild`] it is given (which writes and
    /// seals the replacement); then the replacement is swapped in, its
    /// failure bit and error count cleared. Device time is blamed on
    /// [`obs::Actor::Rebuild`].
    ///
    /// # Errors
    ///
    /// [`ZnsError::InvalidArgument`] with no member failed or a
    /// replacement of another geometry; whatever `policy` fails with.
    pub fn rebuild(
        &self,
        at: SimTime,
        replacement: Arc<ZnsDevice>,
        policy: impl FnOnce(&Roster<'_>, &mut Rebuild<'_>) -> Result<()>,
    ) -> Result<RebuildReport> {
        let dev = self.lowest_failed().ok_or_else(|| {
            ZnsError::InvalidArgument("rebuild requires a failed device".to_string())
        })?;
        let report = {
            let roster = self.read();
            if replacement.geometry() != roster.devices[0].geometry() {
                return Err(ZnsError::InvalidArgument(
                    "replacement geometry mismatch".to_string(),
                ));
            }
            // Rebuild reads and replacement writes are blamed on the
            // rebuild actor; foreground ops queued behind them see the
            // stall as rebuild interference in their blame trees.
            let _actor = obs::actor_scope(obs::Actor::Rebuild);
            let unit_bytes = self.unit_bytes();
            let mut rb = Rebuild {
                members: self,
                replacement: &replacement,
                dev,
                cursor: at,
                last_write: at,
                bytes: 0,
                zones: 0,
                out: vec![0u8; unit_bytes],
                scratch: self.columns(),
            };
            policy(&roster, &mut rb)?;
            RebuildReport {
                duration: rb.last_write.since(at),
                bytes_written: rb.bytes,
                zones_rebuilt: rb.zones,
            }
        };
        // The swap is the only writer of the device table. Only this
        // member's failure bit clears: a second failed member stays
        // degraded until its own rebuild.
        self.devices.write()[dev] = replacement;
        self.failed.fetch_and(!(1u64 << dev), Ordering::AcqRel);
        self.errors[dev].store(0, Ordering::Relaxed);
        Ok(report)
    }
}

/// The members, read-locked for one operation.
#[derive(Debug)]
pub struct Roster<'a> {
    members: &'a Members,
    devices: RwLockReadGuard<'a, Vec<Arc<ZnsDevice>>>,
}

impl Roster<'_> {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the array has no members.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The member devices, for queries (geometry, zone limits, counters);
    /// commands go through [`command`](Self::command).
    pub fn devices(&self) -> &[Arc<ZnsDevice>] {
        &self.devices
    }

    /// Issues one command to member `dev` with bounded retries on
    /// transient errors — the array's only retry loop. A command that
    /// still fails transiently after the retry limit, or that reports a
    /// media error, is charged against the member's error budget
    /// ([`charge`](Self::charge)); what the caller then sees is
    /// `exhausted`'s choice. Every other outcome passes through untouched. `cmd` returns
    /// the command's completion instant.
    ///
    /// # Errors
    ///
    /// As above.
    pub fn command(
        &self,
        at: SimTime,
        dev: usize,
        exhausted: Exhausted,
        mut cmd: impl FnMut(&ZnsDevice) -> Result<SimTime>,
    ) -> Result<SimTime> {
        let m = self.members;
        let mut attempt = 0u32;
        loop {
            match cmd(&self.devices[dev]) {
                Err(ZnsError::TransientError { .. }) if attempt < TRANSIENT_RETRY_LIMIT => {
                    attempt += 1;
                    m.transient_retries.fetch_add(1, Ordering::Relaxed);
                }
                Err(e @ (ZnsError::TransientError { .. } | ZnsError::MediaError { .. })) => {
                    self.charge(dev);
                    return match exhausted {
                        Exhausted::Omit if m.is_failed(dev) => Ok(at),
                        _ => Err(e),
                    };
                }
                other => return other,
            }
        }
    }

    /// Runs `cmd` on every member not failed, in index order, through
    /// [`command`](Self::command); returns the latest completion (`at`
    /// when nothing ran).
    ///
    /// # Errors
    ///
    /// The first command error.
    pub fn on_survivors(
        &self,
        at: SimTime,
        exhausted: Exhausted,
        mut cmd: impl FnMut(usize, &ZnsDevice) -> Result<SimTime>,
    ) -> Result<SimTime> {
        let mut done = at;
        for dev in 0..self.len() {
            if !self.members.is_failed(dev) {
                done = done.max(self.command(at, dev, exhausted, |d| cmd(dev, d))?);
            }
        }
        Ok(done)
    }

    /// Flushes the write cache of every member in `mask` that has not
    /// failed; returns the latest completion.
    ///
    /// # Errors
    ///
    /// The first flush error.
    pub fn flush(&self, at: SimTime, mask: u64) -> Result<SimTime> {
        let mask = mask & !self.members.failure_mask();
        self.on_survivors(at, Exhausted::Surface, |dev, d| {
            Ok(match mask & (1u64 << dev) {
                0 => at,
                _ => d.flush(at)?.done,
            })
        })
    }

    /// Charges one unrecovered error to member `dev`, auto-degrading it
    /// once it exceeds the error budget — but only while parity headroom
    /// remains: past it the array limps on the sick member rather than
    /// fail itself.
    pub fn charge(&self, dev: usize) {
        let m = self.members;
        let errs = m.errors[dev].fetch_add(1, Ordering::AcqRel) + 1;
        if errs > DEVICE_ERROR_BUDGET && m.claim_failure(dev) == Ok(true) {
            self.devices[dev].fail();
            m.auto_degrades.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Member `dev`'s report of one of its zones.
    ///
    /// # Errors
    ///
    /// The device's error (a failed member reports
    /// [`ZnsError::DeviceFailed`]).
    pub fn zone_info(&self, dev: usize, zone: u32) -> Result<ZoneInfo> {
        self.devices[dev].zone_info(zone)
    }
}

/// A set of spare columns lent by [`Members::columns`]; back in the pool
/// when dropped.
#[derive(Debug)]
pub struct Columns<'a> {
    set: Vec<u8>,
    pool: &'a Mutex<Vec<Vec<u8>>>,
}

impl std::ops::Deref for Columns<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.set
    }
}

impl std::ops::DerefMut for Columns<'_> {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.set
    }
}

impl Drop for Columns<'_> {
    fn drop(&mut self) {
        self.pool.lock().push(std::mem::take(&mut self.set));
    }
}

/// A rebuild in flight: what a [`Members::rebuild`] policy hands the lost
/// member's extents to.
pub struct Rebuild<'a> {
    members: &'a Members,
    replacement: &'a ZnsDevice,
    dev: usize,
    /// Issue instant of the next extent: when the previous one's sources
    /// were in hand.
    cursor: SimTime,
    last_write: SimTime,
    bytes: u64,
    zones: u32,
    /// One unit of rebuilt bytes, and the decode's spare columns.
    out: Vec<u8>,
    scratch: Columns<'a>,
}

impl Rebuild<'_> {
    /// The member being rebuilt.
    pub fn member(&self) -> usize {
        self.dev
    }

    /// Writes `rows` rows of the lost member's slot in `stripe` of its
    /// zone `zone` to the replacement, from `fill`. A reconstruction is
    /// issued when the previous extent's sources were in hand, and the
    /// write when its own are.
    ///
    /// # Errors
    ///
    /// The decode's or the replacement's error.
    pub fn extent(&mut self, zone: u32, stripe: u64, rows: u64, fill: Fill<'_>) -> Result<()> {
        let out = &mut self.out[..(rows * SECTOR_SIZE) as usize];
        let ready = match fill {
            Fill::Copy(bytes) => {
                out.copy_from_slice(&bytes[..out.len()]);
                self.cursor
            }
            Fill::Reconstruct(src) => {
                let scratch = &mut self.scratch;
                self.members
                    .reconstruct(scratch, self.cursor, src, self.dev as u32, 0, out)?
            }
        };
        let pba = self.replacement.geometry().zone_start(zone) + stripe * self.members.unit_sectors;
        let w = self
            .replacement
            .write(ready, pba, out, WriteFlags::default())?;
        self.last_write = self.last_write.max(w.done);
        self.bytes += out.len() as u64;
        self.cursor = ready;
        Ok(())
    }

    /// Seals the replacement's zone `zone` once its last write landed.
    ///
    /// # Errors
    ///
    /// The replacement's error.
    pub fn seal(&mut self, zone: u32) -> Result<()> {
        self.replacement.finish_zone(self.last_write, zone)?;
        Ok(())
    }

    /// Counts one zone done.
    pub fn zone_done(&mut self) {
        self.zones += 1;
    }

    /// Runs the engine's own commands on the replacement (its metadata),
    /// issued at the last data write's completion; `cmd` returns its own.
    ///
    /// # Errors
    ///
    /// Whatever `cmd` fails with.
    pub fn on_replacement(
        &mut self,
        cmd: impl FnOnce(&ZnsDevice, SimTime) -> Result<SimTime>,
    ) -> Result<()> {
        let done = cmd(self.replacement, self.last_write)?;
        self.last_write = self.last_write.max(done);
        Ok(())
    }
}

/// What [`Verify::stripe`] found in one stripe, one bit per member.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Damage {
    /// Slots whose read reported a media error; decoded from the rest of
    /// the stripe.
    pub lost: u64,
    /// Parity slots whose stored bytes differ from the parity encoded over
    /// the data.
    pub differs: u64,
}

/// A scrub in flight: one stripe in memory — its data units in unit order,
/// its stored parity slots, and the parity encoded over the data (also
/// the decode's spare columns).
pub struct Verify<'a> {
    members: &'a Members,
    unit: usize,
    data: Vec<u8>,
    stored: Vec<u8>,
    fresh: Vec<u8>,
}

impl Verify<'_> {
    /// Verifies one complete stripe: reads every member's slot whole at
    /// `at`, in member order, decoding a slot whose read reports a media
    /// error before the next is read; then encodes P (and Q) over the data
    /// and compares each stored parity slot with it.
    ///
    /// # Errors
    ///
    /// A read error other than a media error; the decode's error.
    pub fn stripe(&mut self, at: SimTime, stripe: &dyn Stripe) -> Result<Damage> {
        let (members, unit) = (self.members, self.unit);
        let mut damage = Damage::default();
        for dev in 0..members.len() as u32 {
            let slot = match stripe.role(dev) {
                Role::Data(k) => &mut self.data[k as usize * unit..][..unit],
                Role::P => &mut self.stored[..unit],
                Role::Q => &mut self.stored[unit..],
            };
            match stripe.fetch(at, dev, 0, slot) {
                Ok(_) => {}
                Err(ZnsError::MediaError { .. }) => {
                    members.reconstruct(&mut self.fresh, at, stripe, dev, 0, slot)?;
                    damage.lost |= 1 << dev;
                }
                Err(e) => return Err(e),
            }
        }
        let (p, q) = self.fresh.split_at_mut(unit);
        sim::encode_pq(&self.data, Some(p), (!q.is_empty()).then_some(q));
        for dev in 0..members.len() as u32 {
            let column = match stripe.role(dev) {
                Role::Data(_) => continue,
                Role::P => 0..unit,
                Role::Q => unit..2 * unit,
            };
            if self.stored[column.clone()] != self.fresh[column] {
                damage.differs |= 1 << dev;
            }
        }
        Ok(damage)
    }

    /// The last verified stripe's data units in unit order, lost ones
    /// decoded.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The last verified stripe's bytes for the slot playing `role`: its
    /// data unit, or the parity encoded over the data.
    pub fn slot(&self, role: Role) -> &[u8] {
        let unit = self.unit;
        match role {
            Role::Data(k) => &self.data[k as usize * unit..][..unit],
            Role::P => &self.fresh[..unit],
            Role::Q => &self.fresh[unit..],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultOp, FaultPlan, ZnsConfig};

    fn members(n: usize, parity: u32) -> Members {
        let devs = (0..n)
            .map(|_| Arc::new(ZnsDevice::new(ZnsConfig::small_test())))
            .collect();
        Members::new(devs, parity, 4).unwrap()
    }

    /// Charges member `dev` its whole error budget: the next charge
    /// degrades it.
    fn spend_budget(m: &Members, dev: usize) {
        let roster = m.read();
        (0..DEVICE_ERROR_BUDGET).for_each(|_| roster.charge(dev));
        assert!(m.failed().is_empty());
    }

    fn write(roster: &Roster<'_>, dev: usize, exhausted: Exhausted) -> Result<SimTime> {
        let data = vec![1u8; SECTOR_SIZE as usize];
        roster.command(SimTime::ZERO, dev, exhausted, |d| {
            Ok(d.write(SimTime::ZERO, 0, &data, WriteFlags::default())?
                .done)
        })
    }

    #[test]
    fn unit_segments_split_at_unit_boundaries() {
        let segs: Vec<_> = unit_segments(3, 13, 4).collect();
        assert_eq!(segs, [(3, 3, 1), (4, 0, 4), (8, 0, 4), (12, 0, 1)]);
        assert_eq!(unit_segments(5, 5, 4).count(), 0);
    }

    #[test]
    fn a_burst_within_the_limit_is_absorbed_uncharged() {
        let m = members(4, 1);
        let plan = (1..=3).fold(FaultPlan::new(1), |p, n| p.fail_nth(FaultOp::Write, n));
        m.read().devices()[2].set_fault_plan(plan);
        write(&m.read(), 2, Exhausted::Surface).unwrap();
        assert_eq!((m.transient_retries(), m.errors(2)), (3, 0));
    }

    #[test]
    fn an_exhausted_command_is_charged_once_and_omitted_only_when_it_degrades() {
        for degraded in [false, true] {
            let m = members(4, 1);
            if degraded {
                spend_budget(&m, 1);
            }
            let spent = m.errors(1);
            let plan = (1..=4).fold(FaultPlan::new(1), |p, n| p.fail_nth(FaultOp::Write, n));
            m.read().devices()[1].set_fault_plan(plan);
            let r = write(&m.read(), 1, Exhausted::Omit);
            assert_eq!(m.errors(1), spent + 1);
            assert_eq!(r.is_ok(), degraded, "budget spent {degraded}: {r:?}");
            assert_eq!(m.failed(), if degraded { vec![1] } else { vec![] });
            assert_eq!(m.auto_degrades(), u64::from(degraded));
        }
    }

    /// A stripe in memory: member `i` plays `roles[i]`; the `gone`
    /// members' slots unavailable, the `broken` members' fetches failing
    /// as a failed device's do; every fetch recorded.
    struct Memory {
        roles: Vec<Role>,
        slots: Vec<Vec<u8>>,
        gone: u64,
        broken: u64,
        fetched: std::cell::Cell<u64>,
    }

    impl Memory {
        /// `data` encoded into a stripe whose members play `roles`.
        fn encode(roles: Vec<Role>, data: &[u8], unit: usize) -> Memory {
            let (mut p, mut q) = (vec![0u8; unit], vec![0u8; unit]);
            sim::encode_pq(data, Some(&mut p), Some(&mut q));
            let slots = roles.iter().map(|role| match *role {
                Role::Data(k) => data[k as usize * unit..][..unit].to_vec(),
                Role::P => p.clone(),
                Role::Q => q.clone(),
            });
            Memory {
                slots: slots.collect(),
                roles,
                gone: 0,
                broken: 0,
                fetched: std::cell::Cell::new(0),
            }
        }
    }

    impl Stripe for Memory {
        fn role(&self, dev: u32) -> Role {
            self.roles[dev as usize]
        }

        fn available(&self, dev: u32) -> bool {
            self.gone & (1 << dev) == 0
        }

        fn fetch(&self, at: SimTime, dev: u32, row0: u64, out: &mut [u8]) -> Result<SimTime> {
            self.fetched.set(self.fetched.get() | (1 << dev));
            if self.broken & (1 << dev) != 0 {
                return Err(ZnsError::DeviceFailed);
            }
            let off = (row0 * SECTOR_SIZE) as usize;
            out.copy_from_slice(&self.slots[dev as usize][off..][..out.len()]);
            Ok(at)
        }

        fn zone(&self) -> u32 {
            0
        }
    }

    fn stripe_bytes(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + i / 251) as u8).collect()
    }

    #[test]
    fn an_unavailable_healthy_slot_is_an_unread_erasure_and_mount_counts_nothing() {
        let m = members(5, 2);
        let unit = m.unit_bytes();
        let roles = vec![
            Role::Data(0),
            Role::Data(1),
            Role::Data(2),
            Role::P,
            Role::Q,
        ];
        let mut stripe = Memory::encode(roles, &stripe_bytes(3 * unit), unit);
        stripe.gone = 1 << 1;
        // Rows [1, 3) of unit 0, with member 1 healthy but unavailable.
        let rows = SECTOR_SIZE as usize..3 * SECTOR_SIZE as usize;
        let mut out = vec![0u8; rows.len()];
        assert!(m.decode(SimTime::ZERO, &stripe, 0, 1, &mut out).unwrap());
        assert_eq!(out, stripe.slots[0][rows.clone()]);
        assert_eq!(
            stripe.fetched.get(),
            0b11100,
            "only members 2, 3 and 4 are read"
        );
        assert!(m.failed().is_empty());
        assert_eq!(m.double_degraded_reads(), 0);
        // The same decode for a read counts the double erasure.
        m.reconstruct(&mut m.columns(), SimTime::ZERO, &stripe, 0, 1, &mut out)
            .unwrap();
        assert_eq!(m.double_degraded_reads(), 1);
        // A third erasure is past the headroom: mount's entry says so.
        stripe.gone |= 1 << 2;
        assert!(!m.decode(SimTime::ZERO, &stripe, 0, 1, &mut out).unwrap());
    }

    /// A read whose member fails and whose decode then loses its second
    /// source — past the headroom at parity 1, a restart at parity 2 —
    /// returns its column set to the pool every time: the pool holds the
    /// one set the first read drew, however many reads follow. Shapes:
    /// RAIZN's (P, then Q, after the data units) and lsraid's (P and Q
    /// rotated into the middle of the stripe).
    #[test]
    fn a_decode_that_loses_a_source_returns_its_columns() {
        let (d, p, q) = (Role::Data, Role::P, Role::Q);
        let shapes = [
            (1, vec![d(0), d(1), d(2), d(3), p]),
            (2, vec![d(0), d(1), d(2), p, q]),
            (1, vec![d(0), p, d(1), d(2), d(3)]),
            (2, vec![d(0), p, q, d(1), d(2)]),
        ];
        for (parity, roles) in shapes {
            let m = members(roles.len(), parity);
            let unit = m.unit_bytes();
            let units = roles.len() - parity as usize;
            let mut stripe = Memory::encode(roles.clone(), &stripe_bytes(units * unit), unit);
            // The read's member fails, then the first source after it.
            stripe.broken = 1 << 0 | 1 << 1;
            let mut out = vec![0u8; unit];
            let mut read = || m.read_slot(SimTime::ZERO, &stripe, 0, 0, &mut out, None);
            read().ok();
            assert_eq!(m.pooled_columns(), 1, "{roles:?}");
            for _ in 0..100 {
                match read() {
                    Ok((_, repaired)) => assert!(parity == 2 && repaired.is_none()),
                    Err(e) => assert!(parity == 1 && e == ZnsError::DeviceFailed, "{e:?}"),
                }
            }
            assert_eq!(m.pooled_columns(), 1, "{roles:?}");
            if parity == 2 {
                assert_eq!(out, stripe.slots[0]);
            }
        }
    }

    #[test]
    fn failures_stop_at_the_parity_headroom() {
        let m = members(5, 2);
        spend_budget(&m, 4);
        m.fail(0).unwrap();
        m.fail(0).unwrap();
        m.fail(3).unwrap();
        assert!(matches!(m.fail(4), Err(ZnsError::TooManyFailures { .. })));
        assert!(matches!(m.fail(9), Err(ZnsError::InvalidArgument(_))));
        // A charge past the budget cannot take the array past its parity.
        m.read().charge(4);
        assert_eq!(m.failed(), [0, 3]);
        assert_eq!(m.lowest_failed(), Some(0));
    }
}
