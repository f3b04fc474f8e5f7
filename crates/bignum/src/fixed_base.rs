//! Fixed-base exponentiation: `g^e mod n` for one base `g` and many
//! exponents, from a table of the base's powers at 128-bit digit
//! boundaries.
//!
//! Writing `e = Σ d_i 2^(128 i)` in 128-bit digits and keeping
//! `T_i = g^(2^(128 i))` turns one exponentiation into the
//! multi-exponentiation `g^e = ∏ T_i^(d_i)` over many bases with short
//! exponents. The bucket method (Pippenger; Brickell–Gordon–McCurley–Wilson
//! for a fixed base) evaluates it with `c`-bit windows of every digit in
//! about `⌈128/c⌉ (D + 2^(c+1))` multiplications for `D` digits, where a
//! sliding window over `e` costs `128 D` squarings.

use crate::montgomery::MontgomeryCtx;
use crate::uint::BigUint;
use crate::Limb;

/// Bits per exponent digit, and the spacing of the table entries.
const DIGIT_BITS: u64 = 128;

/// Largest window width: `2^16` buckets of one element each.
const MAX_WINDOW_BITS: u32 = 16;

/// Powers `T_i = g^(2^(128 i)) mod n` of one base, in Montgomery form,
/// grown on demand by 128 squarings per entry.
///
/// A table belongs to one modulus: extend and use it with the same
/// [`MontgomeryCtx`].
///
/// # Examples
///
/// ```
/// use slicer_bignum::{BigUint, FixedBase, MontgomeryCtx};
///
/// let n = BigUint::from(1000003u64);
/// let ctx = MontgomeryCtx::new(&n).unwrap();
/// let g = BigUint::from(4u64);
/// let e = &BigUint::from(u64::MAX) * &BigUint::from(u64::MAX);
/// let mut table = FixedBase::new(&g);
/// table.extend_to(&ctx, FixedBase::digits_for(&e));
/// assert_eq!(ctx.modpow_fixed(&table, &e), ctx.modpow(&g, &e));
/// ```
pub struct FixedBase {
    base: BigUint,
    /// Limbs per entry (the modulus width of the context that built it).
    width: usize,
    /// `T_0, T_1, ...` back to back, `width` limbs each.
    powers: Vec<Limb>,
}

/// Shows the size, not the entries.
impl std::fmt::Debug for FixedBase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FixedBase")
            .field("digits", &self.digits())
            .finish_non_exhaustive()
    }
}

impl FixedBase {
    /// An empty table for `base`; no arithmetic happens until
    /// [`FixedBase::extend_to`].
    pub fn new(base: &BigUint) -> Self {
        FixedBase {
            base: base.clone(),
            width: 0,
            powers: Vec::new(),
        }
    }

    /// Number of entries: exponents of up to `128 × digits()` bits are
    /// covered.
    pub fn digits(&self) -> usize {
        self.powers.len().checked_div(self.width).unwrap_or(0)
    }

    /// Number of 128-bit digits of `exp`, i.e. the table size it needs.
    pub fn digits_for(exp: &BigUint) -> usize {
        exp.bit_len().div_ceil(DIGIT_BITS) as usize
    }

    /// Grows the table to at least `digits` entries, 128 squarings each.
    pub fn extend_to(&mut self, ctx: &MontgomeryCtx, digits: usize) {
        let len = ctx.limb_len();
        if self.width != len {
            self.width = len;
            self.powers.clear();
        }
        if digits == 0 || self.digits() >= digits {
            return;
        }
        self.powers.reserve((digits - self.digits()) * len);
        if self.powers.is_empty() {
            self.powers = ctx.to_mont(&self.base);
        }
        let mut cur = self.powers[self.powers.len() - len..].to_vec();
        let mut next = vec![0; len];
        let mut wide = vec![0; 2 * len + 1];
        while self.digits() < digits {
            for _ in 0..DIGIT_BITS {
                ctx.mont_sqr_into(&cur, &mut wide, &mut next);
                std::mem::swap(&mut cur, &mut next);
            }
            self.powers.extend_from_slice(&cur);
        }
    }

    fn entry(&self, i: usize) -> &[Limb] {
        &self.powers[i * self.width..(i + 1) * self.width]
    }

    /// Window width for a `digits`-digit exponent: the `c` minimizing the
    /// bucket method's multiplication count `⌈128/c⌉ (D + 2^(c+1))`.
    fn window_bits(digits: usize) -> u32 {
        let cost = |c: u32| DIGIT_BITS.div_ceil(u64::from(c)) * (digits as u64 + (2u64 << c));
        (1..=MAX_WINDOW_BITS).min_by_key(|&c| cost(c)).unwrap_or(1)
    }
}

impl MontgomeryCtx {
    /// `g^exp mod n` for the table's base `g`, by the bucket method over
    /// the table entries (see the [module docs](self)). The table must
    /// cover `exp` ([`FixedBase::digits_for`]) and have been built with
    /// this context; otherwise this falls back to [`MontgomeryCtx::modpow`].
    ///
    /// Bucket selection indexes memory by exponent digits, so the access
    /// pattern depends on `exp`: use it for public exponents only.
    pub fn modpow_fixed(&self, table: &FixedBase, exp: &BigUint) -> BigUint {
        let digits = FixedBase::digits_for(exp);
        let len = self.limb_len();
        if digits == 0 || table.width != len || table.digits() < digits {
            return self.modpow(&table.base, exp);
        }
        let c = FixedBase::window_bits(digits);
        let ones = (1u128 << c) - 1;
        let limbs = exp.limbs();
        let ds: Vec<u128> = (0..digits)
            .map(|i| {
                let lo = limbs.get(2 * i).copied().unwrap_or(0);
                let hi = limbs.get(2 * i + 1).copied().unwrap_or(0);
                u128::from(lo) | u128::from(hi) << 64
            })
            .collect();

        let mut buckets = vec![0 as Limb; len << c];
        let mut filled = vec![false; 1 << c];
        let mut t = vec![0; len + 2];
        let mut wide = vec![0; 2 * len + 1];
        let mut tmp = vec![0; len];
        let one = self.one_mont();
        let mut acc = one.clone();

        let windows = DIGIT_BITS.div_ceil(u64::from(c)) as u32;
        for j in (0..windows).rev() {
            // Horner over windows: acc ← acc^(2^c) · W_j, where
            // W_j = ∏_i T_i^(window j of d_i).
            for _ in 0..c {
                self.mont_sqr_into(&acc, &mut wide, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
            filled.fill(false);
            for (i, d) in ds.iter().enumerate() {
                let w = ((d >> (j * c)) & ones) as usize;
                if w == 0 {
                    continue;
                }
                let slot = &mut buckets[w * len..(w + 1) * len];
                if filled[w] {
                    self.mont_mul_into(slot, table.entry(i), &mut t, &mut tmp);
                    slot.copy_from_slice(&tmp);
                } else {
                    slot.copy_from_slice(table.entry(i));
                    filled[w] = true;
                }
            }
            // W_j = ∏_w B_w^w, as the product of the suffix products
            // ∏_{w ≥ k} B_w for k = 2^c − 1 down to 1.
            let mut running = one.clone();
            let mut total = one.clone();
            for w in (1..1usize << c).rev() {
                if filled[w] {
                    let bucket = &buckets[w * len..(w + 1) * len];
                    self.mul_assign(&mut running, bucket, &mut t, &mut tmp);
                }
                self.mul_assign(&mut total, &running, &mut t, &mut tmp);
            }
            self.mul_assign(&mut acc, &total, &mut t, &mut tmp);
        }
        self.from_mont(&acc)
    }

    /// `a ← a · b` in Montgomery form, through the caller's scratch.
    fn mul_assign(&self, a: &mut Vec<Limb>, b: &[Limb], t: &mut [Limb], tmp: &mut Vec<Limb>) {
        self.mont_mul_into(a, b, t, tmp);
        std::mem::swap(a, tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicer_testkit::{prop_assert_eq, prop_check};

    #[test]
    fn window_grows_with_digit_count() {
        assert!(FixedBase::window_bits(1) <= 3);
        assert_eq!(FixedBase::window_bits(9_000), 10);
        let mut prev = 1;
        for d in [1usize, 10, 100, 1_000, 10_000, 100_000, 10_000_000] {
            let c = FixedBase::window_bits(d);
            assert!(c >= prev && c <= MAX_WINDOW_BITS, "{d} digits: c = {c}");
            prev = c;
        }
    }

    #[test]
    fn matches_modpow_across_widths_and_digit_boundaries() {
        prop_check!(0x101a, 64, |g| {
            // 2-limb (unrolled), 3-limb (generic) and 8-limb (const) moduli.
            let width = [2usize, 3, 8][g.u64_in(0, 2) as usize];
            let mut limbs: Vec<Limb> = (0..width).map(|_| g.u64()).collect();
            limbs[0] |= 1;
            limbs[width - 1] |= 1 << 63;
            let ctx = MontgomeryCtx::new(&BigUint::from_limbs(limbs)).unwrap();
            let base = BigUint::from(g.u128());
            // Exponents ending just below, on and just above a digit edge.
            let bits = 128 * g.u64_in(1, 6) + g.u64_in(0, 2) - 1;
            let e_limbs: Vec<Limb> = (0..bits.div_ceil(64)).map(|_| g.u64()).collect();
            let e = &BigUint::from_limbs(e_limbs) >> (bits.div_ceil(64) * 64 - bits) as u32;
            let mut table = FixedBase::new(&base);
            table.extend_to(&ctx, FixedBase::digits_for(&e));
            prop_assert_eq!(ctx.modpow_fixed(&table, &e), ctx.modpow(&base, &e));
            Ok(())
        });
    }

    #[test]
    fn short_or_foreign_tables_fall_back() {
        let n = BigUint::from(1000003u64);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let g = BigUint::from(5u64);
        let e = &BigUint::one() << 300;
        let mut table = FixedBase::new(&g);
        assert_eq!(ctx.modpow_fixed(&table, &e), ctx.modpow(&g, &e));
        table.extend_to(&ctx, 1);
        assert_eq!(table.digits(), 1);
        assert_eq!(ctx.modpow_fixed(&table, &e), ctx.modpow(&g, &e));
        assert_eq!(ctx.modpow_fixed(&table, &BigUint::zero()), BigUint::one());
        // A table built for a wider modulus is rebuilt, not misread.
        let wide = MontgomeryCtx::new(&(&(&BigUint::one() << 200) + &BigUint::one())).unwrap();
        table.extend_to(&wide, 3);
        assert_eq!(ctx.modpow_fixed(&table, &e), ctx.modpow(&g, &e));
        table.extend_to(&ctx, 3);
        assert_eq!(table.digits(), 3);
        assert_eq!(ctx.modpow_fixed(&table, &e), ctx.modpow(&g, &e));
    }
}
