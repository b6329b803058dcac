//! Word-vectorized GF(2^8) kernels for Reed–Solomon (RAID-6) parity.
//!
//! RAIZN-2 adds a second rotating parity column Q beside the XOR parity
//! P. Q is a Reed–Solomon code word over GF(2^8) with the standard
//! polynomial `x^8 + x^4 + x^3 + x^2 + 1` (0x11d) and generator `g = 2`:
//!
//! ```text
//! P = D_0 ^ D_1 ^ ... ^ D_{d-1}
//! Q = g^0·D_0 ^ g^1·D_1 ^ ... ^ g^{d-1}·D_{d-1}
//! ```
//!
//! Incremental Q updates reduce to `dst ^= c · src` over sector-sized
//! byte ranges ([`gf_mul_into`]) plus the occasional in-place constant
//! scale ([`gf_scale`]); whole-stripe encode and erasure decode live in
//! [`crate::codec`] on top of these. Two multiply strategies, picked by
//! the constant:
//!
//! - `c = 2^k` (every Q coefficient of an array with at most eight data
//!   units): `k` steps of the "xtime" doubling per byte. The doubling is
//!   branch-free mask arithmetic — shift left, AND the reduction
//!   constant with the sign mask — which the compiler turns into four
//!   byte-lane SIMD instructions, so the loop auto-vectorizes like
//!   [`crate::xor_into`].
//! - any other `c` (decode inverses, wide arrays): one lookup per byte in
//!   the `c` row of a compile-time 256 × 256 product table (64 KiB of
//!   read-only data). The cost is flat in `c`, where a shift-and-add
//!   ladder pays one data-dependent step per set bit.
//!
//! The kernels make no alignment assumptions and never allocate. Safe
//! Rust only (`sim` forbids `unsafe`).
//!
//! The scalar byte-at-a-time references ([`gf_mul_into_scalar_reference`],
//! [`gf_scale_scalar_reference`]) are the proptest oracles and benchmark
//! baselines, mirroring the XOR kernel's pattern.
//!
//! # Examples
//!
//! ```
//! // Q parity over two data units, then recover unit 1 from P and Q.
//! let d0 = vec![0x35u8; 64];
//! let d1 = vec![0x9Au8; 64];
//! let mut q = vec![0u8; 64];
//! sim::gf_mul_into(&mut q, &d0, sim::gf_pow(2, 0));
//! sim::gf_mul_into(&mut q, &d1, sim::gf_pow(2, 1));
//! // Syndrome: q ^= g^0·d0 leaves g^1·d1; scale by g^-1 to recover d1.
//! sim::gf_mul_into(&mut q, &d0, sim::gf_pow(2, 0));
//! sim::gf_scale(&mut q, sim::gf_inv(sim::gf_pow(2, 1)));
//! assert_eq!(q, d1);
//! ```

/// The reduction constant of the field polynomial 0x11d, low byte.
const POLY_LOW: u8 = 0x1d;

/// `g^i` for `i` in `0..510`: doubled so `EXP[LOG[a] + LOG[b]]` needs no
/// modular reduction. `g = 2` generates the full multiplicative group.
const EXP: [u8; 512] = build_exp();

/// `LOG[x]` is the discrete log of `x` base `g` (`LOG[0]` is unused).
const LOG: [u8; 256] = build_log();

/// Doubles one field element. Mask form, no branch: the arithmetic shift
/// smears the top bit over the byte and selects the reduction constant.
#[inline(always)]
pub(crate) const fn xtime(x: u8) -> u8 {
    (x << 1) ^ (POLY_LOW & ((x as i8) >> 7) as u8)
}

const fn build_exp() -> [u8; 512] {
    let mut exp = [0u8; 512];
    let mut x: u8 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x;
        exp[i + 255] = x;
        x = xtime(x);
        i += 1;
    }
    exp
}

const fn build_log() -> [u8; 256] {
    let exp = build_exp();
    let mut log = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        log[exp[i] as usize] = i as u8;
        i += 1;
    }
    log
}

/// Multiplies two field elements.
#[inline]
pub const fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// `base^exp` in the field (with `0^0 = 1` by convention).
#[inline]
pub const fn gf_pow(base: u8, exp: u32) -> u8 {
    if exp == 0 {
        return 1;
    }
    if base == 0 {
        return 0;
    }
    let e = (LOG[base as usize] as u64 * exp as u64) % 255;
    EXP[e as usize]
}

/// The multiplicative inverse of a nonzero element.
///
/// # Panics
///
/// Panics if `a == 0` (zero has no inverse).
#[inline]
pub const fn gf_inv(a: u8) -> u8 {
    assert!(a != 0, "gf_inv(0)");
    EXP[255 - LOG[a as usize] as usize]
}

/// `GF_MUL[c][x] = c · x`: one 256-byte row per constant, built at
/// compile time. Generic multipliers index their row once per byte.
static GF_MUL: [[u8; 256]; 256] = build_mul();

const fn build_mul() -> [[u8; 256]; 256] {
    let mut t = [[0u8; 256]; 256];
    let mut c = 1;
    while c < 256 {
        let mut x = 1;
        while x < 256 {
            t[c][x] = gf_mul(c as u8, x as u8);
            x += 1;
        }
        c += 1;
    }
    t
}

/// `dst ^= 2^K · src`; `K` is a constant so the doubling chain unrolls
/// and the byte loop vectorizes.
fn mac_pow2<const K: u32>(dst: &mut [u8], src: &[u8]) {
    for (db, sb) in dst.iter_mut().zip(src) {
        let mut v = *sb;
        for _ in 0..K {
            v = xtime(v);
        }
        *db ^= v;
    }
}

/// GF(2^8) multiply-accumulate: `dst[i] ^= c · src[i]`.
///
/// This is the Q-parity workhorse: accumulating data unit `k` into Q is
/// `gf_mul_into(q, data, gf_pow(2, k))`. `c == 0` is a no-op and
/// `c == 1` degenerates to [`crate::xor_into`], so callers can loop over
/// unit indices without special-casing.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn gf_mul_into(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "gf_mul_into length mismatch");
    match c {
        0 => {}
        1 => crate::xor_into(dst, src),
        c if c.is_power_of_two() => match c.trailing_zeros() {
            1 => mac_pow2::<1>(dst, src),
            2 => mac_pow2::<2>(dst, src),
            3 => mac_pow2::<3>(dst, src),
            4 => mac_pow2::<4>(dst, src),
            5 => mac_pow2::<5>(dst, src),
            6 => mac_pow2::<6>(dst, src),
            _ => mac_pow2::<7>(dst, src),
        },
        c => {
            let row = &GF_MUL[c as usize];
            for (db, sb) in dst.iter_mut().zip(src) {
                *db ^= row[*sb as usize];
            }
        }
    }
}

/// In-place constant scale: `buf[i] = c · buf[i]`.
///
/// Used by the two-erasure decode to apply inverse coefficients to a
/// finished syndrome. `c == 1` is a no-op; `c == 0` zeroes the buffer.
pub fn gf_scale(buf: &mut [u8], c: u8) {
    match c {
        0 => buf.fill(0),
        1 => {}
        c => {
            let row = &GF_MUL[c as usize];
            for b in buf.iter_mut() {
                *b = row[*b as usize];
            }
        }
    }
}

/// The first unknown of the two-erasure solve: with `sp` and `sq` the P
/// and Q syndromes of two missing data units `j != k` (see
/// [`rs_solve_two`]), overwrites `sq` with `D_j` and leaves `sp` alone.
/// Both divisions are folded into two table rows, `D_j = A[sp] ^ B[sq]`
/// with `A = g^k / (g^j ^ g^k)` and `B = 1 / (g^j ^ g^k)`: one pass, two
/// lookups and one store per byte. This is the only copy of that loop —
/// a degraded read wants one unit and stops here.
///
/// # Panics
///
/// Panics if `j == k` (the denominator vanishes) or lengths differ.
// Never inlined: where `j` and `k` are constants at the call site LLVM
// folds the two rows into the loop and it runs a third slower (`hotpath`
// `rs_decode_gib_s` 0.99 against 1.38).
#[inline(never)]
pub(crate) fn rs_solve_first(sp: &[u8], sq: &mut [u8], j: u32, k: u32) {
    assert_eq!(sp.len(), sq.len(), "rs_solve_two length mismatch");
    assert!(j != k, "rs_solve_two: identical erasure indices");
    let (gj, gk) = (gf_pow(2, j), gf_pow(2, k));
    let b = gf_inv(gj ^ gk);
    let (ra, rb) = (&GF_MUL[gf_mul(gk, b) as usize], &GF_MUL[b as usize]);
    for (q, p) in sq.iter_mut().zip(sp) {
        *q = ra[*p as usize] ^ rb[*q as usize];
    }
}

/// Two-erasure Reed–Solomon solve for two missing *data* units `j != k`.
///
/// On entry `sp` must hold the P syndrome (XOR of P and every surviving
/// data unit) and `sq` the Q syndrome (Q xor `g^i·D_i` over survivors),
/// so `sp = D_j ^ D_k` and `sq = g^j·D_j ^ g^k·D_k`. On return `sq`
/// holds `D_j` and `sp` holds `D_k`:
///
/// ```text
/// D_j = (g^k·sp ^ sq) / (g^j ^ g^k)        D_k = sp ^ D_j
/// ```
///
/// `D_j` is one table pass ([`rs_solve_first`]); `D_k` follows by a
/// vector XOR. Writing both from the table loop reads each byte once but
/// is bound by its two byte stores (47 µs per 64 KiB against 33 µs).
///
/// # Panics
///
/// Panics if `j == k` (the denominator vanishes) or lengths differ.
pub fn rs_solve_two(sp: &mut [u8], sq: &mut [u8], j: u32, k: u32) {
    rs_solve_first(sp, sq, j, k);
    crate::xor_into(sp, sq);
}

/// Byte-at-a-time multiply-accumulate reference, kept deliberately
/// scalar (the proptest oracle and benchmark baseline — see
/// [`crate::xor_into_scalar_reference`]).
pub fn gf_mul_into_scalar_reference(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "gf_mul_into length mismatch");
    for i in 0..dst.len() {
        dst[i] = std::hint::black_box(dst[i] ^ gf_mul_scalar(src[i], c));
    }
}

/// Byte-at-a-time in-place scale reference.
pub fn gf_scale_scalar_reference(buf: &mut [u8], c: u8) {
    for b in buf.iter_mut() {
        *b = std::hint::black_box(gf_mul_scalar(*b, c));
    }
}

/// Shift-and-reduce scalar multiply with a textbook branching doubling,
/// independent of the tables and of the kernels' mask-form [`xtime`] so
/// the oracle shares no construction bug with what it checks.
fn gf_mul_scalar(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a = ((a & 0x7f) << 1) ^ if a & 0x80 != 0 { 0x1d } else { 0 };
        b >>= 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tables_match_shift_multiply() {
        for a in 0u16..256 {
            for b in 0u16..256 {
                assert_eq!(
                    gf_mul(a as u8, b as u8),
                    gf_mul_scalar(a as u8, b as u8),
                    "gf_mul({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn generator_has_full_order() {
        let mut seen = [false; 256];
        for i in 0..255 {
            let x = gf_pow(2, i);
            assert!(!seen[x as usize], "g^{i} repeats");
            seen[x as usize] = true;
        }
        assert_eq!(gf_pow(2, 255), 1);
    }

    #[test]
    fn inverses_multiply_to_one() {
        for a in 1u16..256 {
            assert_eq!(gf_mul(a as u8, gf_inv(a as u8)), 1, "a = {a}");
        }
    }

    #[test]
    #[should_panic(expected = "gf_inv(0)")]
    fn zero_has_no_inverse() {
        gf_inv(0);
    }

    #[test]
    fn mac_identity_and_annihilator() {
        let src = [0xAB; 20];
        let mut dst = [0x11; 20];
        gf_mul_into(&mut dst, &src, 0);
        assert_eq!(dst, [0x11; 20]);
        gf_mul_into(&mut dst, &src, 1);
        assert_eq!(dst, [0x11 ^ 0xAB; 20]);
    }

    /// Reference encode of `d` data units into (P, Q).
    fn encode(units: &[Vec<u8>]) -> (Vec<u8>, Vec<u8>) {
        let len = units[0].len();
        let mut p = vec![0u8; len];
        let mut q = vec![0u8; len];
        for (k, u) in units.iter().enumerate() {
            crate::xor_into(&mut p, u);
            gf_mul_into_scalar_reference(&mut q, u, gf_pow(2, k as u32));
        }
        (p, q)
    }

    /// Decodes the erased slots from the survivors using the same
    /// syndrome algebra the volume uses, and checks byte identity.
    /// Slots: `0..d` are data, `d` is P, `d + 1` is Q.
    fn check_erasure(units: &[Vec<u8>], p: &[u8], q: &[u8], erased: &[usize]) {
        let d = units.len();
        let len = p.len();
        let gone = |s: usize| erased.contains(&s);
        // Syndromes over the survivors.
        let mut sp = vec![0u8; len];
        let mut sq = vec![0u8; len];
        for (k, u) in units.iter().enumerate() {
            if !gone(k) {
                crate::xor_into(&mut sp, u);
                gf_mul_into(&mut sq, u, gf_pow(2, k as u32));
            }
        }
        if !gone(d) {
            crate::xor_into(&mut sp, p);
        }
        if !gone(d + 1) {
            crate::xor_into(&mut sq, q);
        }
        let missing_data: Vec<usize> = (0..d).filter(|&k| gone(k)).collect();
        match (missing_data.as_slice(), gone(d), gone(d + 1)) {
            ([], _, _) => {
                // Only parity lost: syndromes are the parities themselves.
                if gone(d) {
                    assert_eq!(sp, p, "P recompute");
                }
                if gone(d + 1) {
                    assert_eq!(sq, q, "Q recompute");
                }
            }
            ([j], false, qq) => {
                // One data unit lost, P alive: plain XOR recovery.
                assert_eq!(sp, units[*j], "D_{j} via P");
                if qq {
                    gf_mul_into(&mut sq, &sp, gf_pow(2, *j as u32));
                    assert_eq!(sq, q, "Q after D_{j}");
                }
            }
            ([j], true, false) => {
                // Data + P lost: recover the data unit through Q first.
                gf_scale(&mut sq, gf_inv(gf_pow(2, *j as u32)));
                assert_eq!(sq, units[*j], "D_{j} via Q");
                crate::xor_into(&mut sp, &sq);
                assert_eq!(sp, p, "P after D_{j}");
            }
            ([j, k], false, false) => {
                rs_solve_two(&mut sp, &mut sq, *j as u32, *k as u32);
                assert_eq!(sq, units[*j], "D_{j} of pair");
                assert_eq!(sp, units[*k], "D_{k} of pair");
            }
            other => unreachable!("erasure pattern {other:?} exceeds two"),
        }
    }

    #[test]
    fn every_single_and_double_erasure_decodes() {
        for d in 2..=6usize {
            let len = 97;
            let mut rng = crate::SimRng::new(0xD0 + d as u64);
            let units: Vec<Vec<u8>> = (0..d)
                .map(|_| {
                    let mut v = vec![0u8; len];
                    rng.fill_bytes(&mut v);
                    v
                })
                .collect();
            let (p, q) = encode(&units);
            let slots = d + 2;
            for a in 0..slots {
                check_erasure(&units, &p, &q, &[a]);
                for b in a + 1..slots {
                    check_erasure(&units, &p, &q, &[a, b]);
                }
            }
        }
    }

    proptest! {
        /// The word MAC kernel matches the scalar oracle for all small
        /// lengths (every remainder size around the word boundary), all
        /// constants, and misaligned sub-slices.
        #[test]
        fn mac_kernel_matches_scalar_reference(
            len in 0usize..=257,
            off in 0usize..8,
            c in 0u16..256,
            seed in 0u64..256,
        ) {
            let c = c as u8;
            let mut rng = crate::SimRng::new(seed ^ 0x6F);
            let mut src = vec![0u8; off + len];
            let mut a = vec![0u8; off + len];
            rng.fill_bytes(&mut src);
            rng.fill_bytes(&mut a);
            let mut b = a.clone();
            gf_mul_into(&mut a[off..], &src[off..], c);
            gf_mul_into_scalar_reference(&mut b[off..], &src[off..], c);
            prop_assert_eq!(&a, &b);
        }

        /// The in-place scale kernel matches its scalar oracle.
        #[test]
        fn scale_kernel_matches_scalar_reference(
            len in 0usize..=257,
            off in 0usize..8,
            c in 0u16..256,
            seed in 0u64..256,
        ) {
            let c = c as u8;
            let mut rng = crate::SimRng::new(seed ^ 0x5CA1E);
            let mut a = vec![0u8; off + len];
            rng.fill_bytes(&mut a);
            let mut b = a.clone();
            gf_scale(&mut a[off..], c);
            gf_scale_scalar_reference(&mut b[off..], c);
            prop_assert_eq!(&a, &b);
        }

        /// Distributivity over byte ranges: c·(x ^ y) = c·x ^ c·y.
        #[test]
        fn mac_is_linear(
            len in 0usize..=257,
            c in 0u16..256,
            seed in 0u64..256,
        ) {
            let c = c as u8;
            let mut rng = crate::SimRng::new(seed ^ 0x11D);
            let mut x = vec![0u8; len];
            let mut y = vec![0u8; len];
            rng.fill_bytes(&mut x);
            rng.fill_bytes(&mut y);
            let mut xy = x.clone();
            crate::xor_into(&mut xy, &y);
            let mut lhs = vec![0u8; len];
            gf_mul_into(&mut lhs, &xy, c);
            let mut rhs = vec![0u8; len];
            gf_mul_into(&mut rhs, &x, c);
            gf_mul_into(&mut rhs, &y, c);
            prop_assert_eq!(&lhs, &rhs);
        }

        /// Round-trip through every erasure pattern with random unit
        /// counts and misaligned lengths.
        #[test]
        fn erasure_round_trip(
            d in 2usize..=5,
            len in 1usize..=130,
            seed in 0u64..128,
        ) {
            let mut rng = crate::SimRng::new(seed ^ 0xEC0DE);
            let units: Vec<Vec<u8>> = (0..d)
                .map(|_| {
                    let mut v = vec![0u8; len];
                    rng.fill_bytes(&mut v);
                    v
                })
                .collect();
            let (p, q) = encode(&units);
            for a in 0..d + 2 {
                for b in a + 1..d + 2 {
                    check_erasure(&units, &p, &q, &[a, b]);
                }
            }
        }
    }
}
