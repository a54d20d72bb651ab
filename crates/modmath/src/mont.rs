//! The Montgomery multiplication core behind every hot kernel.
//!
//! Montgomery's reduction (Math. Comp. 44, 1985) replaces the `u128 %`
//! of a plain modular multiplication by two `u64 × u64` products and a
//! conditional subtraction. With `R = 2⁶⁴` and an odd modulus `m`, REDC
//! maps `t < m·R` to `t·R⁻¹ mod m`, so
//!
//! * `mul(x·R, y·R) = x·y·R` keeps a chain in Montgomery form (ladders,
//!   multi-exponentiation), and
//! * `mul(x·R, y) = x·y` turns one plain operand into a plain product
//!   with a single REDC (Horner steps, schoolbook rows).
//!
//! The reduction here is the *subtract* form: with `m' = m⁻¹ mod 2⁶⁴`,
//! `q = t_lo·m'` makes the low words of `t` and `q·m` equal, so the
//! result is `t_hi − ⌊q·m / R⌋`, plus `m` on borrow. Both words are below
//! `m`, so the form is correct for **every** odd modulus below `2⁶⁴`,
//! including moduli above `2⁶³`.
//!
//! Nothing here touches the [`crate::ops`] counters. Each kernel built on
//! this core records its *logical* operation count once per call, so the
//! counts stay those of the plain algorithm; conversions into and out of
//! Montgomery form are representation overhead and are not counted.

/// Montgomery constants of one odd modulus `m` with `R = 2⁶⁴`.
///
/// All three constants are functions of `m`, computed once in
/// [`Self::new`] (two remainders) and cached by
/// [`crate::PrimeField`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Montgomery {
    m: u64,
    /// `m⁻¹ mod 2⁶⁴`, the REDC multiplier of the subtract form.
    m_inv: u64,
    /// `R mod m`: the Montgomery form of 1.
    one: u64,
    /// `R² mod m`: one REDC against it converts into Montgomery form.
    r2: u64,
}

impl Montgomery {
    /// Derives the constants of `m`. The arithmetic is meaningful only for
    /// odd `m`; an even (or zero) modulus yields unusable constants but
    /// does not panic.
    pub(crate) fn new(m: u64) -> Self {
        // Newton's iteration doubles the correct low bits of m⁻¹ per step;
        // m·m ≡ 1 (mod 8) seeds it with three, so five steps give 96 ≥ 64.
        let mut m_inv = m;
        for _ in 0..5 {
            m_inv = m_inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(m_inv)));
        }
        // R mod m = (R − m) mod m; `checked_rem` only guards m = 0.
        let one = m.wrapping_neg().checked_rem(m).unwrap_or(0);
        let r2 = (u128::from(one) * u128::from(one))
            .checked_rem(u128::from(m))
            .unwrap_or(0);
        // In range: the residue is below `m`, which fits in u64.
        #[allow(clippy::cast_possible_truncation)]
        let r2 = r2 as u64;
        Montgomery { m, m_inv, one, r2 }
    }

    /// `R mod m`, the Montgomery form of 1.
    #[inline]
    pub(crate) fn one(&self) -> u64 {
        self.one
    }

    /// REDC: `t·R⁻¹ mod m` for `t < m·R`, branch-free.
    #[inline]
    fn redc(&self, t: u128) -> u64 {
        // In range: the low and high words of a u128 each fit in u64.
        #[allow(clippy::cast_possible_truncation)]
        let (lo, hi) = (t as u64, (t >> 64) as u64);
        let q = lo.wrapping_mul(self.m_inv);
        #[allow(clippy::cast_possible_truncation)]
        let qm_hi = ((u128::from(q) * u128::from(self.m)) >> 64) as u64;
        let (diff, borrow) = hi.overflowing_sub(qm_hi);
        diff.wrapping_add(self.m & u64::from(borrow).wrapping_neg())
    }

    /// `a·b·R⁻¹ mod m` for `a, b < m`: Montgomery × Montgomery stays in
    /// Montgomery form, Montgomery × plain yields the plain product.
    #[inline]
    pub(crate) fn mul(&self, a: u64, b: u64) -> u64 {
        self.redc(u128::from(a) * u128::from(b))
    }

    /// `a + b mod m` for `a, b < m` (either representation), branch-free
    /// and correct when `a + b` overflows 64 bits.
    #[inline]
    pub(crate) fn add(&self, a: u64, b: u64) -> u64 {
        let (sum, carry) = a.overflowing_add(b);
        let (reduced, borrow) = sum.overflowing_sub(self.m);
        if carry || !borrow {
            reduced
        } else {
            sum
        }
    }

    /// Converts a canonical residue `a < m` into Montgomery form `a·R`.
    #[inline]
    pub(crate) fn montgomery(&self, a: u64) -> u64 {
        self.mul(a, self.r2)
    }

    /// Converts `a·R` back to the canonical residue `a`.
    #[inline]
    pub(crate) fn canonical(&self, a: u64) -> u64 {
        self.redc(u128::from(a))
    }

    /// Runs `K` right-to-left binary ladders in one loop: `acc[k]` is the
    /// Montgomery-form base of ladder `k`, squared once per exponent bit.
    /// The power of every set bit is appended to `terms` by branch-free
    /// compaction (`terms[n] = a; n += bit`), so random exponent bits cost
    /// no mispredicted branch; the return value is the number of terms,
    /// `Σ popcount(exps)`. Interleaving the ladders overlaps their
    /// independent squaring chains.
    ///
    /// `terms` must hold at least `64·K` entries.
    #[inline]
    pub(crate) fn ladder_terms<const K: usize>(
        &self,
        mut acc: [u64; K],
        exps: [u64; K],
        terms: &mut [u64],
    ) -> usize {
        let bits = exps
            .iter()
            .map(|e| 64 - e.leading_zeros())
            .max()
            .unwrap_or(0);
        let mut n = 0;
        for bit in 0..bits {
            for (a, &e) in acc.iter_mut().zip(&exps) {
                if bit > 0 {
                    *a = self.mul(*a, *a);
                }
                if let Some(slot) = terms.get_mut(n) {
                    *slot = *a;
                }
                n += usize::from((e >> bit) & 1 == 1);
            }
        }
        n
    }

    /// `seed · Π terms` in Montgomery form, folded into four independent
    /// lane products so consecutive multiplications do not wait on each
    /// other; the lanes are combined at the end.
    #[inline]
    pub(crate) fn fold(&self, seed: u64, terms: &[u64]) -> u64 {
        let (head, tail) = terms.split_at(terms.len().min(3));
        let mut lanes = [seed, self.one, self.one, self.one];
        for (lane, &t) in lanes.iter_mut().skip(1).zip(head) {
            *lane = t;
        }
        let mut chunks = tail.chunks_exact(4);
        for chunk in &mut chunks {
            for (lane, &t) in lanes.iter_mut().zip(chunk) {
                *lane = self.mul(*lane, t);
            }
        }
        for (lane, &t) in lanes.iter_mut().zip(chunks.remainder()) {
            *lane = self.mul(*lane, t);
        }
        let [a, b, c, d] = lanes;
        self.mul(self.mul(a, b), self.mul(c, d))
    }

    /// `base^exp` with `base` and the result in Montgomery form. This is
    /// the uncounted ladder shared by [`crate::PrimeField::pow`] (which
    /// records the counts) and Miller–Rabin (setup work, never counted).
    pub(crate) fn pow(&self, base: u64, exp: u64) -> u64 {
        let mut terms = [0u64; 64];
        let n = self.ladder_terms([base], [exp], &mut terms);
        self.fold(self.one, terms.get(..n).unwrap_or_default())
    }
}

/// Multiplications a right-to-left binary ladder for `exp` performs:
/// one per set bit (the first multiplies into 1) plus `bitlen − 1`
/// squarings, and none for `exp = 0`.
#[inline]
pub(crate) fn ladder_muls(exp: u64) -> u64 {
    u64::from(exp.count_ones() + (64 - exp.leading_zeros())).saturating_sub(1)
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation
)]
mod tests {
    use super::*;
    use crate::arith;
    use proptest::num::u64::ANY;
    use proptest::prelude::*;

    /// The largest 63-bit prime, the protocol's usual ceiling.
    const P63: u64 = 0x7FFF_FFFF_FFFF_FFE7;
    /// The largest prime below 2⁶⁴: exercises the top-bit corner of REDC
    /// and the carry of [`Montgomery::add`].
    const P64: u64 = 18_446_744_073_709_551_557;
    const FIXED: [u64; 4] = [3, 1031, P63, P64];

    /// Operands worth checking for modulus `m`: the edges plus a few
    /// spread values.
    fn edge_operands(m: u64) -> Vec<u64> {
        let mut v = vec![0, 1, m - 1, m / 2, m / 3, m - 2];
        v.retain(|&x| x < m);
        v
    }

    /// Picks the modulus of one property case: a fixed corner modulus, or
    /// a random odd one of full width or of 21 bits.
    fn odd_modulus(which: u8, raw: u64) -> u64 {
        match which {
            0..=3 => FIXED[usize::from(which)],
            4 => raw | 1,
            _ => (raw >> 43) | 1,
        }
        .max(3)
    }

    #[test]
    fn constants_satisfy_their_definitions() {
        for m in FIXED.into_iter().chain([5, 7, 9, 15, u64::MAX]) {
            let mont = Montgomery::new(m);
            assert_eq!(m.wrapping_mul(mont.m_inv), 1, "m = {m}");
            let r = (1u128 << 64) % u128::from(m);
            assert_eq!(u128::from(mont.one), r, "m = {m}");
            assert_eq!(u128::from(mont.r2), r * r % u128::from(m), "m = {m}");
        }
    }

    #[test]
    fn degenerate_moduli_do_not_panic() {
        for m in [0u64, 2, 4, u64::MAX - 1] {
            let _ = Montgomery::new(m);
        }
    }

    #[test]
    fn edge_operands_match_mul_mod() {
        for m in FIXED {
            let mont = Montgomery::new(m);
            for a in edge_operands(m) {
                assert_eq!(mont.canonical(mont.montgomery(a)), a);
                for b in edge_operands(m) {
                    let plain = arith::mul_mod(a, b, m);
                    assert_eq!(mont.mul(mont.montgomery(a), b), plain, "{a}·{b} mod {m}");
                    assert_eq!(
                        mont.canonical(mont.mul(mont.montgomery(a), mont.montgomery(b))),
                        plain
                    );
                    assert_eq!(mont.add(a, b), arith::add_mod(a, b, m));
                }
            }
        }
    }

    #[test]
    fn pow_matches_pow_mod_on_edges() {
        for m in FIXED {
            let mont = Montgomery::new(m);
            for a in edge_operands(m) {
                for e in [0u64, 1, 2, 3, m - 1, u64::MAX] {
                    assert_eq!(
                        mont.canonical(mont.pow(mont.montgomery(a), e)),
                        arith::pow_mod(a, e, m),
                        "{a}^{e} mod {m}"
                    );
                }
            }
        }
    }

    #[test]
    fn ladder_muls_is_popcount_plus_bitlen_minus_one() {
        assert_eq!(ladder_muls(0), 0);
        assert_eq!(ladder_muls(1), 1);
        assert_eq!(ladder_muls(0b1011), 3 + 4 - 1);
        assert_eq!(ladder_muls(u64::MAX), 127);
    }

    #[test]
    fn fold_handles_every_lane_remainder() {
        let mont = Montgomery::new(P63);
        let xs: Vec<u64> = (2..20u64).collect();
        for n in 0..xs.len() {
            let terms: Vec<u64> = xs[..n].iter().map(|&x| mont.montgomery(x)).collect();
            let expected = xs[..n]
                .iter()
                .fold(7u64, |acc, &x| arith::mul_mod(acc, x, P63));
            let got = mont.canonical(mont.fold(mont.montgomery(7), &terms));
            assert_eq!(got, expected, "n = {n}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn mul_matches_mul_mod(which in 0u8..6, raw in ANY, a in ANY, b in ANY) {
            let m = odd_modulus(which, raw);
            let mont = Montgomery::new(m);
            let (a, b) = (a % m, b % m);
            let plain = arith::mul_mod(a, b, m);
            prop_assert_eq!(mont.mul(mont.montgomery(a), b), plain);
            prop_assert_eq!(mont.canonical(mont.mul(mont.montgomery(a), mont.montgomery(b))), plain);
        }

        #[test]
        fn add_matches_add_mod(which in 0u8..6, raw in ANY, a in ANY, b in ANY) {
            let m = odd_modulus(which, raw);
            let mont = Montgomery::new(m);
            let (a, b) = (a % m, b % m);
            prop_assert_eq!(mont.add(a, b), arith::add_mod(a, b, m));
        }

        #[test]
        fn pow_matches_pow_mod(which in 0u8..6, raw in ANY, a in ANY, e in ANY) {
            let m = odd_modulus(which, raw);
            let mont = Montgomery::new(m);
            let a = a % m;
            prop_assert_eq!(
                mont.canonical(mont.pow(mont.montgomery(a), e)),
                arith::pow_mod(a, e, m)
            );
        }

        #[test]
        fn interleaved_ladders_collect_both_term_sets(
            which in 0u8..6,
            raw in ANY,
            a in ANY,
            b in ANY,
            x in ANY,
            y in ANY,
        ) {
            let m = odd_modulus(which, raw);
            let mont = Montgomery::new(m);
            let (a, b) = (a % m, b % m);
            let mut terms = [0u64; 128];
            let n = mont.ladder_terms([mont.montgomery(a), mont.montgomery(b)], [x, y], &mut terms);
            prop_assert_eq!(u32::try_from(n).unwrap(), x.count_ones() + y.count_ones());
            let product = mont.canonical(mont.fold(mont.one(), &terms[..n]));
            let expected = arith::mul_mod(arith::pow_mod(a, x, m), arith::pow_mod(b, y, m), m);
            prop_assert_eq!(product, expected);
        }
    }
}
