//! RSA accumulator public parameters (`Setup(1^λ)`).

use crate::error::AccumulatorError;
use slicer_bignum::{gen_safe_prime, random_below, BigUint, FixedBase, MontgomeryCtx};
use slicer_crypto::codec::{CodecError, Decode, Encode, Reader};
use slicer_crypto::Rng;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock};

/// Fixed 512-bit modulus: product of two 256-bit safe primes generated once
/// for the reproduction (factors discarded). 512 bits makes each witness 64
/// bytes, matching the ≤ 60-byte verification objects of the paper's Fig 6d.
const N512_HEX: &str = "9d6ada17d8468909691ea6b0e283b927dd9de8ad16464e8303851d313bf138b65e455154485e4752084843cbd944e98a75cb24a5341714de7760c8bbe0079d79";

/// Fixed 1024-bit modulus: product of two 512-bit safe primes.
const N1024_HEX: &str = "bb4e6da51c76d10262e609238711c6438bbed174037683196828e14dcb8c8e408f0907b198041442cf2607c6530ba7e576a289095585c7a1e5d92c20e4a4ba86587826b1b9e64514cc991f106d8798eb2cf25864152c675f3ff130a8c20c5ea01430349e5e713cfd5fdc16656589ddd67d1dc85f84ee50ad96a5130d53ed9dd5";

/// Public parameters of the RSA accumulator: a modulus `n = p·q` with `p`,
/// `q` safe primes, and a generator `g ∈ QR_n \ {1}`.
///
/// The Montgomery context for `n` is precomputed once and shared by every
/// accumulation, witness and verification operation. The generator's
/// fixed-base table ([`RsaParams::generator_pow_product`]) is built on
/// first use and shared by every clone; equality, encoding and `Debug`
/// ignore it, and decoded params start with an empty one.
#[derive(Clone)]
pub struct RsaParams {
    modulus: BigUint,
    generator: BigUint,
    ctx: Option<MontgomeryCtx>,
    generator_table: Arc<RwLock<FixedBase>>,
}

impl fmt::Debug for RsaParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RsaParams")
            .field("modulus", &self.modulus)
            .field("generator", &self.generator)
            .field("ctx", &self.ctx)
            .finish()
    }
}

impl Encode for RsaParams {
    fn encode(&self, out: &mut Vec<u8>) {
        self.modulus.encode(out);
        self.generator.encode(out);
    }
}

impl Decode for RsaParams {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        let modulus = BigUint::decode(reader)?;
        let generator = BigUint::decode(reader)?;
        // Rebuild the Montgomery context eagerly so decoded params are
        // immediately usable; an even modulus means corrupt input.
        RsaParams::try_from_parts(modulus, generator)
            .map_err(|_| CodecError::msg("RsaParams modulus must be odd and > 1"))
    }
}

impl PartialEq for RsaParams {
    fn eq(&self, other: &Self) -> bool {
        self.modulus == other.modulus && self.generator == other.generator
    }
}
impl Eq for RsaParams {}

impl RsaParams {
    /// Builds parameters from a known modulus and generator.
    ///
    /// # Errors
    ///
    /// Returns [`AccumulatorError::BadModulus`] if the modulus is even or
    /// ≤ 1 (RSA moduli are odd by construction).
    pub fn try_from_parts(modulus: BigUint, generator: BigUint) -> Result<Self, AccumulatorError> {
        let ctx = MontgomeryCtx::new(&modulus).ok_or(AccumulatorError::BadModulus)?;
        Ok(Self::with_ctx(modulus, generator, Some(ctx)))
    }

    fn with_ctx(modulus: BigUint, generator: BigUint, ctx: Option<MontgomeryCtx>) -> Self {
        let generator_table = Arc::new(RwLock::new(FixedBase::new(&generator)));
        RsaParams {
            modulus,
            generator,
            ctx,
            generator_table,
        }
    }

    /// Decodes a baked-in modulus with `g = 4 = 2²` (a quadratic residue
    /// for any odd modulus). Total by construction: if the constant were
    /// ever corrupted the fallback is a tiny odd modulus, a state the
    /// `fixed_params_shape` tests pin as unreachable.
    fn baked(hex: &str) -> Self {
        let modulus = BigUint::from_hex(hex).unwrap_or_else(|_| BigUint::from(15u64));
        let ctx = MontgomeryCtx::new(&modulus);
        Self::with_ctx(modulus, BigUint::from(4u64), ctx)
    }

    /// The baked-in 512-bit parameters used across tests and benchmarks.
    ///
    /// `g = 4 = 2²` is a quadratic residue for any odd modulus.
    pub fn fixed_512() -> Self {
        Self::baked(N512_HEX)
    }

    /// The baked-in 1024-bit parameters (higher security margin; 128-byte
    /// witnesses).
    pub fn fixed_1024() -> Self {
        Self::baked(N1024_HEX)
    }

    /// Fresh trusted setup: samples two `bits/2`-bit safe primes and a
    /// random quadratic-residue generator. The factors are dropped on
    /// return, so nobody (including the caller) retains the trapdoor.
    ///
    /// # Errors
    ///
    /// Returns [`AccumulatorError::ModulusTooSmall`] if `bits < 32`.
    pub fn generate<R: Rng + ?Sized>(bits: u32, rng: &mut R) -> Result<Self, AccumulatorError> {
        if bits < 32 {
            return Err(AccumulatorError::ModulusTooSmall(bits));
        }
        let p = gen_safe_prime(bits / 2, rng);
        let q = loop {
            let q = gen_safe_prime(bits - bits / 2, rng);
            if q != p {
                break q;
            }
        };
        let n = &p * &q;
        // g = r^2 mod n for random r, retried until g ∉ {0, 1}.
        let generator = loop {
            let r = random_below(&n, rng);
            let g = r.mulmod(&r, &n);
            if !g.is_zero() && !g.is_one() {
                break g;
            }
        };
        Self::try_from_parts(n, generator)
    }

    /// The modulus `n`.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// The generator `g`.
    pub fn generator(&self) -> &BigUint {
        &self.generator
    }

    /// Size of a serialized group element (witnesses, accumulator values).
    pub fn element_bytes(&self) -> usize {
        self.modulus.bit_len().div_ceil(8) as usize
    }

    /// `base^exp mod n` using the shared context.
    pub fn powmod(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        match &self.ctx {
            Some(ctx) => ctx.modpow(base, exp),
            // Unreachable for params built by this module (every
            // constructor validates the modulus); the plain modpow keeps
            // the operation total regardless.
            None => base.modpow(exp, &self.modulus),
        }
    }

    /// `base^(∏ exps) mod n` with chunked exponent products — one window
    /// pass per few dozen primes instead of one `powmod` each. This is the
    /// inner loop of accumulation and the root-factor witness tree.
    pub fn powmod_product(&self, base: &BigUint, exps: &[BigUint]) -> BigUint {
        match &self.ctx {
            Some(ctx) => ctx.modpow_product(base, exps),
            None => exps
                .iter()
                .fold(base.clone(), |acc, e| acc.modpow(e, &self.modulus)),
        }
    }

    /// `g^(∏ exps) mod n` for the generator `g`, equal to
    /// `powmod_product(generator(), exps)`: the exponent is formed by a
    /// product tree and raised by fixed-base exponentiation over the
    /// shared table of `g^(2^(128 i))`, first extending the table to the
    /// exponent's size (128 squarings per new 128-bit digit). This is the
    /// complement fold of every batched witness.
    pub fn generator_pow_product(&self, exps: &[BigUint]) -> BigUint {
        let Some(ctx) = &self.ctx else {
            return self.powmod_product(&self.generator, exps);
        };
        let exp = BigUint::product(exps);
        let digits = FixedBase::digits_for(&exp);
        {
            let table = self
                .generator_table
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            if table.digits() >= digits {
                return ctx.modpow_fixed(&table, &exp);
            }
        }
        let mut table = self
            .generator_table
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        table.extend_to(ctx, digits);
        ctx.modpow_fixed(&table, &exp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicer_crypto::HmacDrbg;

    #[test]
    fn fixed_params_shape() {
        let p = RsaParams::fixed_512();
        assert_eq!(p.modulus().bit_len(), 512);
        assert_eq!(p.element_bytes(), 64);
        assert_eq!(p.generator(), &BigUint::from(4u64));
        assert!(p.modulus().is_odd());
    }

    #[test]
    fn fixed_1024_shape() {
        let p = RsaParams::fixed_1024();
        assert_eq!(p.modulus().bit_len(), 1024);
        assert_eq!(p.element_bytes(), 128);
    }

    #[test]
    fn generate_small_setup() {
        let mut rng = HmacDrbg::from_u64(5);
        let p = RsaParams::generate(128, &mut rng).expect("128 bits suffices");
        // Product of two 64-bit primes has 127 or 128 bits.
        assert!((127..=128).contains(&p.modulus().bit_len()));
        // Generator is a nontrivial residue.
        assert!(!p.generator().is_zero());
        assert!(!p.generator().is_one());
        assert!(p.generator() < p.modulus());
    }

    #[test]
    fn tiny_setup_and_even_modulus_are_typed_errors() {
        use crate::AccumulatorError;
        let mut rng = HmacDrbg::from_u64(5);
        assert_eq!(
            RsaParams::generate(16, &mut rng).unwrap_err(),
            AccumulatorError::ModulusTooSmall(16)
        );
        assert_eq!(
            RsaParams::try_from_parts(BigUint::from(16u64), BigUint::from(4u64)).unwrap_err(),
            AccumulatorError::BadModulus
        );
    }

    #[test]
    fn codec_roundtrip_restores_ctx() {
        let p = RsaParams::fixed_512();
        let bytes = slicer_crypto::codec::to_bytes(&p).unwrap();
        let q: RsaParams = slicer_crypto::codec::from_bytes(&bytes).unwrap();
        assert_eq!(p, q);
        // Decoded params are immediately usable (ctx rebuilt).
        let b = BigUint::from(7u64);
        let e = BigUint::from(3u64);
        assert_eq!(q.powmod(&b, &e), p.powmod(&b, &e));
    }

    #[test]
    fn powmod_agrees_with_bignum() {
        let p = RsaParams::fixed_512();
        let b = BigUint::from(123456u64);
        let e = BigUint::from(65537u64);
        assert_eq!(p.powmod(&b, &e), b.modpow(&e, p.modulus()));
    }

    /// Nonzero exponents of 1–200 bits: their products end at every
    /// offset within a 128-bit digit, not only on the boundaries 128-bit
    /// primes would give.
    fn ragged_exponent(g: &mut slicer_testkit::prop::Gen) -> BigUint {
        let bits = g.u64_in(1, 200) as u32;
        let wide = BigUint::from_limbs(vec![g.u64(), g.u64(), g.u64(), g.u64()]);
        let e = &wide >> (256 - bits);
        if e.is_zero() {
            BigUint::one()
        } else {
            e
        }
    }

    #[test]
    fn generator_pow_product_equals_powmod_product() {
        let mut rng = HmacDrbg::from_u64(0x2014);
        let fresh = RsaParams::generate(128, &mut rng).expect("128 bits suffices");
        assert_ne!(fresh.generator(), &BigUint::from(4u64));
        let deployments = [RsaParams::fixed_512(), RsaParams::fixed_1024(), fresh];
        let primes: Vec<BigUint> = (0..300u32)
            .map(|i| crate::hash_to_prime(&i.to_be_bytes(), 128).expect("width ok"))
            .collect();
        slicer_testkit::prop_check!(0x2014, 64, |g| {
            let shared = &deployments[g.u64_in(0, 2) as usize];
            let count = g.u64_in(0, 300) as usize;
            let exps: Vec<BigUint> = (0..count)
                .map(|i| {
                    if g.u8() & 1 == 0 {
                        primes[i].clone()
                    } else {
                        ragged_exponent(g)
                    }
                })
                .collect();
            let want = shared.powmod_product(shared.generator(), &exps);
            // Cold: a fresh table grown by this call.
            let cold =
                RsaParams::try_from_parts(shared.modulus().clone(), shared.generator().clone())
                    .expect("valid modulus");
            slicer_testkit::prop_assert_eq!(cold.generator_pow_product(&exps), want.clone());
            // Warmed by a larger earlier call, then read through a clone.
            let mut larger = exps.clone();
            larger.extend(primes.iter().take(g.u64_in(1, 40) as usize).cloned());
            shared.generator_pow_product(&larger);
            let clone = shared.clone();
            slicer_testkit::prop_assert!(Arc::ptr_eq(
                &clone.generator_table,
                &shared.generator_table
            ));
            slicer_testkit::prop_assert_eq!(clone.generator_pow_product(&exps), want);
            Ok(())
        });
    }

    #[test]
    fn warm_table_changes_no_observable_semantics() {
        use slicer_crypto::codec::{from_bytes, to_bytes};
        let primes: Vec<BigUint> = (0..40u32)
            .map(|i| crate::hash_to_prime(&i.to_be_bytes(), 128).expect("width ok"))
            .collect();
        let targets = [3usize, 17, 39];
        let cold = RsaParams::fixed_512();
        let warm = RsaParams::fixed_512();
        let witnesses = crate::witness::witness_batch(&warm, &primes, &targets).expect("valid");
        let digits = |p: &RsaParams| p.generator_table.read().map(|t| t.digits()).unwrap_or(0);
        assert!(digits(&warm) >= primes.len() - targets.len());
        // Codec bytes, equality and Debug do not see the table.
        assert_eq!(to_bytes(&warm).unwrap(), to_bytes(&cold).unwrap());
        assert_eq!(warm, cold);
        let shown = format!("{warm:?}");
        assert_eq!(shown, format!("{cold:?}"));
        assert!(!shown.contains("FixedBase") && !shown.contains("generator_table"));
        // Decoded params start cold and prove the same witnesses.
        let decoded: RsaParams = from_bytes(&to_bytes(&warm).unwrap()).unwrap();
        assert_eq!(digits(&decoded), 0);
        assert_eq!(
            crate::witness::witness_batch(&decoded, &primes, &targets).expect("valid"),
            witnesses
        );
    }
}
