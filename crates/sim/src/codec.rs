//! The stripe codec: whole-stripe P+Q encode and erasure decode.
//!
//! One place for the parity arithmetic of a RAID-5/6 stripe, shared by
//! the RAIZN volume (full-stripe writes, degraded reads, scrub, rebuild,
//! crash recovery) and the log-structured engine (seal, scrub). The
//! stripe is `d` equally sized data units `D_0 .. D_{d-1}` with
//!
//! ```text
//! P = D_0 ^ D_1 ^ ... ^ D_{d-1}
//! Q = g^0·D_0 ^ g^1·D_1 ^ ... ^ g^{d-1}·D_{d-1}        (g = 2, see crate::gf)
//! ```
//!
//! **Encode** ([`encode_pq`]) is a single fused pass: every data byte is
//! loaded once, folded into P by XOR and into Q by Horner's rule —
//! `Q = D_0 ^ g·(D_1 ^ g·(D_2 ^ ...))`, so walking the units from the
//! last down costs one doubling per unit and never a general multiply.
//! Both columns are *overwritten*: the accumulators live in registers and
//! start from the last unit, so the destinations need no clearing and may
//! hold anything.
//!
//! **Decode** ([`Decode`]) rebuilds one lost slot with at most one other
//! slot lost beside it, syndrome style: the caller folds every surviving
//! slot it is asked for into `out` (plus one `aux` column when both
//! syndromes are needed) and a final step solves for the target in place.
//! Nothing here allocates.
//!
//! # Examples
//!
//! ```
//! use sim::codec::{encode_pq, Decode, Role};
//! let data: Vec<u8> = (0..3 * 64).map(|i| i as u8).collect(); // 3 units
//! let (mut p, mut q) = (vec![0xEE; 64], vec![0xEE; 64]);      // dirty: fine
//! encode_pq(&data, Some(&mut p), Some(&mut q));
//! // Lose units 0 and 2; rebuild unit 0 from unit 1, P and Q.
//! let plan = Decode::new(Role::Data(0), Some(Role::Data(2))).unwrap();
//! let (mut out, mut aux) = (vec![0; 64], vec![0; 64]);
//! plan.begin(&mut out, &mut aux);
//! plan.absorb(Role::Data(1), &data[64..128], &mut out, &mut aux);
//! plan.absorb(Role::P, &p, &mut out, &mut aux);
//! plan.absorb(Role::Q, &q, &mut out, &mut aux);
//! plan.finish(&mut out, &aux);
//! assert_eq!(out, &data[..64]);
//! ```

use crate::gf::{gf_inv, gf_mul_into, gf_pow, gf_scale, rs_solve_first, xtime};
use crate::xor_into;

/// Bytes of each column produced per step. The P and Q accumulators of
/// one block are fixed-size arrays the compiler keeps in vector registers
/// across the walk over the units (64 bytes each is what fits alongside
/// the doubling's temporaries without spilling).
const BLOCK: usize = 64;

/// Computes the parity columns of one whole stripe in a single pass.
///
/// `data` is the stripe's `d` data units back to back; the unit length is
/// the length of whichever column is asked for. Each requested column is
/// overwritten (it need not be zeroed first); a `None` column is not
/// computed at all, so a caller that will drop a parity leg — its device
/// has failed — pays nothing for it.
///
/// # Panics
///
/// Panics if `p` and `q` differ in length or `data` is not a whole
/// number of units.
pub fn encode_pq(data: &[u8], p: Option<&mut [u8]>, q: Option<&mut [u8]>) {
    match (p, q) {
        (Some(p), Some(q)) => {
            assert_eq!(p.len(), q.len(), "encode_pq column length mismatch");
            encode::<true, true>(data, p, q);
        }
        (Some(p), None) => encode::<true, false>(data, p, &mut []),
        (None, Some(q)) => encode::<false, true>(data, &mut [], q),
        (None, None) => {}
    }
}

/// The pass behind [`encode_pq`], specialised on which columns exist so
/// the absent one costs nothing (its slice is empty and never indexed).
fn encode<const P: bool, const Q: bool>(data: &[u8], p: &mut [u8], q: &mut [u8]) {
    let len = if P { p.len() } else { q.len() };
    if len == 0 {
        assert!(data.is_empty(), "encode_pq: data for empty columns");
        return;
    }
    assert_eq!(data.len() % len, 0, "encode_pq: data is not whole units");
    // Last unit first: it seeds both accumulators as it is, each earlier
    // unit costs Q one doubling (Horner's rule), and every data byte is
    // loaded exactly once.
    let mut units = data.chunks_exact(len).rev();
    let Some(last) = units.next() else {
        p.fill(0);
        q.fill(0);
        return;
    };
    let body = len - len % BLOCK;
    for off in (0..body).step_by(BLOCK) {
        let block =
            |unit: &[u8]| -> [u8; BLOCK] { unit[off..off + BLOCK].try_into().expect("block") };
        let mut pa = block(last);
        let mut qa = pa;
        for unit in units.clone() {
            let src = block(unit);
            for i in 0..BLOCK {
                if P {
                    pa[i] ^= src[i];
                }
                if Q {
                    qa[i] = xtime(qa[i]) ^ src[i];
                }
            }
        }
        if P {
            p[off..off + BLOCK].copy_from_slice(&pa);
        }
        if Q {
            q[off..off + BLOCK].copy_from_slice(&qa);
        }
    }
    for i in body..len {
        let (mut pb, mut qb) = (last[i], last[i]);
        for unit in units.clone() {
            pb ^= unit[i];
            qb = xtime(qb) ^ unit[i];
        }
        if P {
            p[i] = pb;
        }
        if Q {
            q[i] = qb;
        }
    }
}

/// Folds `chunk` — bytes of data unit `unit` starting `row_off` bytes into
/// the unit — into running parity columns: the incremental counterpart of
/// [`encode_pq`] for a stripe that fills piecemeal. `p ^= chunk` and, when
/// a Q column is kept, `q ^= g^unit · chunk` over the same byte range.
///
/// # Panics
///
/// Panics if the chunk runs past the end of a column.
pub fn absorb(p: &mut [u8], q: Option<&mut [u8]>, unit: u32, row_off: usize, chunk: &[u8]) {
    let rows = row_off..row_off + chunk.len();
    xor_into(&mut p[rows.clone()], chunk);
    if let Some(q) = q {
        gf_mul_into(&mut q[rows], chunk, gf_pow(2, unit));
    }
}

/// What one member device holds for a stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Data unit `k` of the stripe.
    Data(u32),
    /// The XOR parity unit.
    P,
    /// The Reed–Solomon Q parity unit.
    Q,
}

/// The decode of one lost slot (`target`) with at most one further slot
/// (`other`) lost beside it.
///
/// Two syndromes drive every case: `sp` folds the surviving data units
/// and P by XOR, `sq` folds `g^k ·` the surviving data units and Q. The
/// plan keeps the syndrome the target comes out of in the caller's `out`
/// buffer and, only when the second lost slot is a data unit, the other
/// one in `aux`; single erasures and parity-only pairs never touch `aux`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decode {
    target: Role,
    other: Option<Role>,
}

impl Decode {
    /// Plans the decode, or `None` if `target` and `other` name the same
    /// slot (nothing could be solved).
    pub fn new(target: Role, other: Option<Role>) -> Option<Decode> {
        (other != Some(target)).then_some(Decode { target, other })
    }

    /// Whether `out` accumulates the Q syndrome (else the P syndrome).
    fn out_is_q(&self) -> bool {
        match self.target {
            Role::Q => true,
            Role::P => false,
            Role::Data(_) => matches!(self.other, Some(Role::Data(_) | Role::P)),
        }
    }

    /// Whether both syndromes are needed, i.e. `aux` is used.
    pub fn uses_aux(&self) -> bool {
        matches!(self.other, Some(Role::Data(_)))
    }

    /// Whether a surviving slot of `role` contributes to this decode; the
    /// caller need not fetch the ones that do not.
    pub fn wants(&self, role: Role) -> bool {
        match role {
            Role::Data(_) => true,
            Role::P => !self.out_is_q() || self.uses_aux(),
            Role::Q => self.out_is_q() || self.uses_aux(),
        }
    }

    /// Clears the accumulators. `aux` is touched only if
    /// [`uses_aux`](Self::uses_aux).
    pub fn begin(&self, out: &mut [u8], aux: &mut [u8]) {
        out.fill(0);
        if self.uses_aux() {
            aux.fill(0);
        }
    }

    /// Folds the surviving slot `src` of `role` into the syndromes.
    ///
    /// # Panics
    ///
    /// Panics if `src` and the accumulators in use differ in length.
    pub fn absorb(&self, role: Role, src: &[u8], out: &mut [u8], aux: &mut [u8]) {
        let (sp, sq) = if self.out_is_q() {
            (self.uses_aux().then_some(aux), Some(out))
        } else {
            (Some(out), self.uses_aux().then_some(aux))
        };
        if let (Some(sp), Role::Data(_) | Role::P) = (sp, role) {
            xor_into(sp, src);
        }
        match (sq, role) {
            (Some(sq), Role::Data(k)) => gf_mul_into(sq, src, gf_pow(2, k)),
            (Some(sq), Role::Q) => xor_into(sq, src),
            _ => {}
        }
    }

    /// Solves for the target in place: on return `out` holds the lost
    /// slot's bytes.
    pub fn finish(&self, out: &mut [u8], aux: &[u8]) {
        match (self.target, self.other) {
            // Two data units: the target's half of the 2x2 Vandermonde
            // solve (out = sq, aux = sp).
            (Role::Data(j), Some(Role::Data(k))) => rs_solve_first(aux, out, j, k),
            // Data + P: sq collapsed to g^j · D_j.
            (Role::Data(j), Some(Role::P)) => gf_scale(out, gf_inv(gf_pow(2, j))),
            // P + data: P = sp ^ D_j with D_j = g^-j · sq (out = sp).
            (Role::P, Some(Role::Data(j))) => gf_mul_into(out, aux, gf_inv(gf_pow(2, j))),
            // Q + data: Q = sq ^ g^j · D_j with D_j = sp (out = sq).
            (Role::Q, Some(Role::Data(j))) => gf_mul_into(out, aux, gf_pow(2, j)),
            // Everything else: the syndrome is the slot.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf::{gf_mul_into_scalar_reference, gf_scale_scalar_reference};
    use crate::xor::xor_into_scalar_reference;
    use proptest::prelude::*;

    fn random_bytes(rng: &mut crate::SimRng, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        rng.fill_bytes(&mut v);
        v
    }

    /// Per-unit scalar encode: the oracle for the fused pass.
    fn reference_pq(data: &[u8], d: usize, len: usize) -> (Vec<u8>, Vec<u8>) {
        let (mut p, mut q) = (vec![0u8; len], vec![0u8; len]);
        for k in 0..d {
            let unit = &data[k * len..(k + 1) * len];
            xor_into_scalar_reference(&mut p, unit);
            gf_mul_into_scalar_reference(&mut q, unit, gf_pow(2, k as u32));
        }
        (p, q)
    }

    #[test]
    fn empty_columns_are_a_no_op() {
        encode_pq(&[], Some(&mut []), Some(&mut []));
        encode_pq(&[1, 2, 3], None, None);
    }

    #[test]
    #[should_panic(expected = "whole units")]
    fn ragged_data_rejected() {
        encode_pq(&[0u8; 10], Some(&mut [0u8; 4]), None);
    }

    #[test]
    fn piecewise_absorb_matches_the_one_pass_encode() {
        let mut rng = crate::SimRng::new(0xAB50);
        let (d, len) = (5usize, 200usize);
        let data = random_bytes(&mut rng, d * len);
        let (ep, eq) = reference_pq(&data, d, len);
        let (mut p, mut q, mut p_only) = (vec![0u8; len], vec![0u8; len], vec![0u8; len]);
        // Ragged pieces, split where they cross a unit boundary.
        let mut at = 0;
        for piece in [1usize, 63, 64, 199, 7, 130].into_iter().cycle() {
            if at == data.len() {
                break;
            }
            let run = piece.min(len - at % len).min(data.len() - at);
            let chunk = &data[at..at + run];
            absorb(&mut p, Some(&mut q), (at / len) as u32, at % len, chunk);
            absorb(&mut p_only, None, (at / len) as u32, at % len, chunk);
            at += run;
        }
        assert_eq!((&p, &q, &p_only), (&ep, &eq, &ep));
    }

    /// The pre-codec decode, kept as the oracle: three separate kernels
    /// for the pair solve, scalar scale for the rest.
    fn reference_solve_two(sp: &mut [u8], sq: &mut [u8], j: u32, k: u32) {
        let (gj, gk) = (gf_pow(2, j), gf_pow(2, k));
        gf_mul_into_scalar_reference(sq, sp, gk);
        gf_scale_scalar_reference(sq, gf_inv(gj ^ gk));
        xor_into_scalar_reference(sp, sq);
    }

    #[test]
    fn fused_solve_matches_three_pass_solve_for_every_pair() {
        let mut rng = crate::SimRng::new(0x501E);
        for j in 0..8u32 {
            for k in 0..8u32 {
                if j == k {
                    continue;
                }
                let sp0 = random_bytes(&mut rng, 131);
                let sq0 = random_bytes(&mut rng, 131);
                let (mut sp, mut sq) = (sp0.clone(), sq0.clone());
                crate::rs_solve_two(&mut sp, &mut sq, j, k);
                let (mut rp, mut rq) = (sp0.clone(), sq0.clone());
                reference_solve_two(&mut rp, &mut rq, j, k);
                assert_eq!((&sp, &sq), (&rp, &rq), "pair ({j}, {k})");
            }
        }
    }

    /// Runs `plan` over the survivors of a stripe and checks the target
    /// comes back byte-identical.
    fn check_decode(units: &[Vec<u8>], p: &[u8], q: &[u8], target: Role, other: Option<Role>) {
        let len = p.len();
        let plan = Decode::new(target, other).expect("distinct slots");
        // Dirty accumulators: `begin` must clear what the plan uses.
        let (mut out, mut aux) = (vec![0xA7u8; len], vec![0x7Au8; len]);
        plan.begin(&mut out, &mut aux);
        let lost = |r: Role| r == target || Some(r) == other;
        let slots = (0..units.len())
            .map(|k| (Role::Data(k as u32), units[k].as_slice()))
            .chain([(Role::P, p), (Role::Q, q)]);
        for (role, bytes) in slots {
            if !lost(role) && plan.wants(role) {
                plan.absorb(role, bytes, &mut out, &mut aux);
            }
        }
        plan.finish(&mut out, &aux);
        let expect = match target {
            Role::Data(k) => units[k as usize].as_slice(),
            Role::P => p,
            Role::Q => q,
        };
        assert_eq!(out, expect, "target {target:?} with {other:?} also lost");
        if !plan.uses_aux() {
            assert!(aux.iter().all(|&b| b == 0x7A), "aux touched by {plan:?}");
        }
    }

    #[test]
    fn decode_covers_every_role_pair() {
        let mut rng = crate::SimRng::new(0xDEC0);
        for d in 2..=8usize {
            let len = 97;
            let units: Vec<Vec<u8>> = (0..d).map(|_| random_bytes(&mut rng, len)).collect();
            let (p, q) = reference_pq(&units.concat(), d, len);
            let roles: Vec<Role> = (0..d as u32)
                .map(Role::Data)
                .chain([Role::P, Role::Q])
                .collect();
            for &target in &roles {
                check_decode(&units, &p, &q, target, None);
                for &other in &roles {
                    if other != target {
                        check_decode(&units, &p, &q, target, Some(other));
                    }
                }
            }
        }
    }

    #[test]
    fn same_slot_twice_is_not_a_plan() {
        assert!(Decode::new(Role::P, Some(Role::P)).is_none());
        assert!(Decode::new(Role::Q, Some(Role::Q)).is_none());
        assert!(Decode::new(Role::Data(3), Some(Role::Data(3))).is_none());
    }

    proptest! {
        /// The fused pass matches the per-unit scalar references for
        /// every small length (all block and word remainders), unit
        /// count, misaligned sub-slices and dirty destinations, whichever
        /// columns are asked for.
        #[test]
        fn encode_matches_per_unit_scalar_reference(
            d in 1usize..=8,
            len in 0usize..=257,
            off in 0usize..8,
            seed in 0u64..256,
        ) {
            let mut rng = crate::SimRng::new(seed ^ 0xE7C0DE);
            let data = random_bytes(&mut rng, off + d * len);
            let dirty_p = random_bytes(&mut rng, off + len);
            let dirty_q = random_bytes(&mut rng, off + len);
            let (rp, rq) = reference_pq(&data[off..], d, len);

            let (mut p, mut q) = (dirty_p.clone(), dirty_q.clone());
            encode_pq(&data[off..], Some(&mut p[off..]), Some(&mut q[off..]));
            prop_assert_eq!(&p[off..], &rp[..]);
            prop_assert_eq!(&q[off..], &rq[..]);
            prop_assert_eq!(&p[..off], &dirty_p[..off]);
            prop_assert_eq!(&q[..off], &dirty_q[..off]);

            let mut p = dirty_p.clone();
            encode_pq(&data[off..], Some(&mut p[off..]), None);
            prop_assert_eq!(&p[off..], &rp[..]);
            let mut q = dirty_q.clone();
            encode_pq(&data[off..], None, Some(&mut q[off..]));
            prop_assert_eq!(&q[off..], &rq[..]);
        }
    }
}
