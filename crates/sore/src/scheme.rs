//! The SORE scheme `Π = {Token, Encrypt, Compare}`.

use crate::order::Order;
use crate::tuple::{cipher_tuples, token_tuples, SliceTuple};
use slicer_crypto::Prf;
use slicer_crypto::Rng;
use std::collections::BTreeSet;
use std::fmt;

/// A SORE query token: `b` shuffled PRF values.
pub type Token = Vec<[u8; 32]>;
/// A SORE ciphertext: `b` shuffled PRF values.
pub type Ciphertext = Vec<[u8; 32]>;

/// Errors surfaced by [`SoreScheme`] instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoreError {
    /// The requested bit width is outside `1..=64`.
    BadWidth(u8),
    /// A plaintext does not fit the scheme's `bits`-bit domain.
    OutOfDomain {
        /// The offending plaintext.
        value: u64,
        /// The scheme's bit width.
        bits: u8,
    },
}

impl fmt::Display for SoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoreError::BadWidth(bits) => write!(f, "bit width {bits} is not in 1..=64"),
            SoreError::OutOfDomain { value, bits } => {
                write!(f, "plaintext {value} exceeds the {bits}-bit domain")
            }
        }
    }
}

impl std::error::Error for SoreError {}

/// The Succinct Order-Revealing Encryption scheme.
///
/// Setup fixes a PRF key `k` and the bit width `b` of the plaintext
/// domain. Plaintexts are unsigned integers `< 2^b` (the paper notes any
/// practical numeric type reduces to this via scaling).
///
/// # Examples
///
/// ```
/// use slicer_sore::{Order, SoreScheme};
/// use slicer_crypto::HmacDrbg;
///
/// # fn main() -> Result<(), slicer_sore::SoreError> {
/// let sore = SoreScheme::new(b"key", 16)?;
/// let mut rng = HmacDrbg::from_u64(1);
/// let ct = sore.encrypt(1000, &mut rng)?;
/// assert!(SoreScheme::compare(&ct, &sore.token(1500, Order::Greater, &mut rng)?));
/// assert!(!SoreScheme::compare(&ct, &sore.token(500, Order::Greater, &mut rng)?));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SoreScheme {
    // slicer-lint: secret — the sORE comparison PRF key
    prf: Prf,
    bits: u8,
}

impl SoreScheme {
    /// Creates a scheme for `bits`-bit plaintexts under PRF key `key`.
    ///
    /// # Errors
    ///
    /// [`SoreError::BadWidth`] unless `1 <= bits <= 64`.
    pub fn new(key: &[u8], bits: u8) -> Result<Self, SoreError> {
        if !(1..=64).contains(&bits) {
            return Err(SoreError::BadWidth(bits));
        }
        Ok(SoreScheme {
            prf: Prf::new(key),
            bits,
        })
    }

    /// The plaintext bit width `b` (and hence tuple count per value).
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Validates that a plaintext fits the domain.
    fn check_domain(&self, v: u64) -> Result<(), SoreError> {
        if self.bits == 64 || v < (1u64 << self.bits) {
            Ok(())
        } else {
            Err(SoreError::OutOfDomain {
                value: v,
                bits: self.bits,
            })
        }
    }

    /// `SORE.Token(k, v, oc)`: shuffled PRF images of the `b` token tuples.
    ///
    /// # Errors
    ///
    /// [`SoreError::OutOfDomain`] if `v` does not fit the domain.
    pub fn token<R: Rng + ?Sized>(
        &self,
        v: u64,
        oc: Order,
        rng: &mut R,
    ) -> Result<Token, SoreError> {
        self.token_with_attr(b"", v, oc, rng)
    }

    /// Multi-attribute variant of [`SoreScheme::token`] (Section V-F).
    ///
    /// # Errors
    ///
    /// [`SoreError::OutOfDomain`] if `v` does not fit the domain.
    pub fn token_with_attr<R: Rng + ?Sized>(
        &self,
        attr: &[u8],
        v: u64,
        oc: Order,
        rng: &mut R,
    ) -> Result<Token, SoreError> {
        self.check_domain(v)?;
        Ok(self.masked_shuffled(&token_tuples(attr, v, self.bits, oc), rng))
    }

    /// `SORE.Encrypt(k, v)`: shuffled PRF images of the `b` cipher tuples.
    ///
    /// # Errors
    ///
    /// [`SoreError::OutOfDomain`] if `v` does not fit the domain.
    pub fn encrypt<R: Rng + ?Sized>(&self, v: u64, rng: &mut R) -> Result<Ciphertext, SoreError> {
        self.encrypt_with_attr(b"", v, rng)
    }

    /// Multi-attribute variant of [`SoreScheme::encrypt`].
    ///
    /// # Errors
    ///
    /// [`SoreError::OutOfDomain`] if `v` does not fit the domain.
    pub fn encrypt_with_attr<R: Rng + ?Sized>(
        &self,
        attr: &[u8],
        v: u64,
        rng: &mut R,
    ) -> Result<Ciphertext, SoreError> {
        self.check_domain(v)?;
        Ok(self.masked_shuffled(&cipher_tuples(attr, v, self.bits), rng))
    }

    /// PRF images of `tuples`, shuffled.
    fn masked_shuffled<R: Rng + ?Sized>(
        &self,
        tuples: &[SliceTuple],
        rng: &mut R,
    ) -> Vec<[u8; 32]> {
        let mut out: Vec<[u8; 32]> = tuples.iter().map(|t| self.prf.eval(&t.encode())).collect();
        shuffle(&mut out, rng);
        out
    }

    /// `SORE.Compare(ct, tk)`: true iff the sets share exactly one element.
    pub fn compare(ct: &[[u8; 32]], tk: &[[u8; 32]]) -> bool {
        let tk_set: BTreeSet<&[u8; 32]> = tk.iter().collect();
        ct.iter().filter(|c| tk_set.contains(*c)).count() == 1
    }

    /// Number of common elements between a ciphertext and a token — exposed
    /// because the *count* is exactly the scheme's leakage (the index of the
    /// first differing bit can be recovered from comparing two tokens; see
    /// the leakage discussion in Section VI-A). Used by leakage tests.
    pub fn common_count(a: &[[u8; 32]], b: &[[u8; 32]]) -> usize {
        let set: BTreeSet<&[u8; 32]> = a.iter().collect();
        b.iter().filter(|x| set.contains(*x)).count()
    }
}

/// Fisher–Yates shuffle (the tuple order would otherwise leak the matched
/// bit index).
fn shuffle<T, R: Rng + ?Sized>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicer_crypto::HmacDrbg;
    use slicer_testkit::{prop_assert_eq, prop_check};

    fn rng() -> HmacDrbg {
        HmacDrbg::from_u64(99)
    }

    #[test]
    fn theorem1_exhaustive_4bit() {
        let sore = SoreScheme::new(b"k", 4).unwrap();
        let mut r = rng();
        for x in 0u64..16 {
            for y in 0u64..16 {
                for oc in [Order::Greater, Order::Less] {
                    let tk = sore.token(x, oc, &mut r).unwrap();
                    let ct = sore.encrypt(y, &mut r).unwrap();
                    assert_eq!(
                        SoreScheme::compare(&ct, &tk),
                        oc.holds(x, y),
                        "x={x} oc={oc} y={y}"
                    );
                }
            }
        }
    }

    #[test]
    fn equal_values_never_match_order_token() {
        let sore = SoreScheme::new(b"k", 8).unwrap();
        let mut r = rng();
        for v in [0u64, 1, 127, 128, 255] {
            let ct = sore.encrypt(v, &mut r).unwrap();
            assert!(!SoreScheme::compare(
                &ct,
                &sore.token(v, Order::Greater, &mut r).unwrap()
            ));
            assert!(!SoreScheme::compare(
                &ct,
                &sore.token(v, Order::Less, &mut r).unwrap()
            ));
        }
    }

    #[test]
    fn at_most_one_common_tuple() {
        // The core lemma of Theorem 1's proof.
        let sore = SoreScheme::new(b"k", 8).unwrap();
        let mut r = rng();
        for x in (0u64..256).step_by(7) {
            for y in (0u64..256).step_by(11) {
                let tk = sore.token(x, Order::Greater, &mut r).unwrap();
                let ct = sore.encrypt(y, &mut r).unwrap();
                assert!(SoreScheme::common_count(&ct, &tk) <= 1, "x={x} y={y}");
            }
        }
    }

    #[test]
    fn domain_edges_64bit() {
        let sore = SoreScheme::new(b"k", 64).unwrap();
        let mut r = rng();
        let ct = sore.encrypt(u64::MAX, &mut r).unwrap();
        assert!(SoreScheme::compare(
            &ct,
            &sore.token(u64::MAX - 1, Order::Less, &mut r).unwrap()
        ));
        let ct0 = sore.encrypt(0, &mut r).unwrap();
        assert!(SoreScheme::compare(
            &ct0,
            &sore.token(1, Order::Greater, &mut r).unwrap()
        ));
    }

    #[test]
    fn out_of_domain_rejected() {
        let sore = SoreScheme::new(b"k", 8).unwrap();
        let err = SoreError::OutOfDomain {
            value: 256,
            bits: 8,
        };
        assert_eq!(sore.encrypt(256, &mut rng()), Err(err));
        assert_eq!(sore.token(256, Order::Less, &mut rng()), Err(err));
        assert!(sore.encrypt(255, &mut rng()).is_ok());
    }

    #[test]
    fn bad_width_rejected() {
        for bits in [0u8, 65, 255] {
            assert_eq!(
                SoreScheme::new(b"k", bits).err(),
                Some(SoreError::BadWidth(bits))
            );
        }
        assert!(SoreScheme::new(b"k", 64).is_ok());
    }

    #[test]
    fn different_keys_never_match() {
        let s1 = SoreScheme::new(b"k1", 8).unwrap();
        let s2 = SoreScheme::new(b"k2", 8).unwrap();
        let mut r = rng();
        let ct = s1.encrypt(5, &mut r).unwrap();
        let tk = s2.token(6, Order::Greater, &mut r).unwrap();
        assert!(!SoreScheme::compare(&ct, &tk));
    }

    #[test]
    fn attributes_are_isolated() {
        let sore = SoreScheme::new(b"k", 8).unwrap();
        let mut r = rng();
        let ct_age = sore.encrypt_with_attr(b"age", 30, &mut r).unwrap();
        let tk_age = sore
            .token_with_attr(b"age", 40, Order::Greater, &mut r)
            .unwrap();
        let tk_pay = sore
            .token_with_attr(b"salary", 40, Order::Greater, &mut r)
            .unwrap();
        assert!(SoreScheme::compare(&ct_age, &tk_age));
        assert!(!SoreScheme::compare(&ct_age, &tk_pay));
    }

    #[test]
    fn shuffle_hides_position_but_not_content() {
        // Two tokens for the same (v, oc) contain the same PRF set in
        // (very likely) different order.
        let sore = SoreScheme::new(b"k", 16).unwrap();
        let mut r = rng();
        let t1 = sore.token(12345, Order::Less, &mut r).unwrap();
        let t2 = sore.token(12345, Order::Less, &mut r).unwrap();
        let s1: BTreeSet<_> = t1.iter().collect();
        let s2: BTreeSet<_> = t2.iter().collect();
        assert_eq!(s1, s2);
        assert_ne!(t1, t2, "with 16 elements an identical order is ~2^-44");
    }

    #[test]
    fn theorem1_random_32bit() {
        prop_check!(0x5041, 64, |g| {
            let (x, y) = (g.u32(), g.u32());
            let sore = SoreScheme::new(b"prop", 32).unwrap();
            let mut r = rng();
            let ct = sore.encrypt(y as u64, &mut r).unwrap();
            for oc in [Order::Greater, Order::Less] {
                let tk = sore.token(x as u64, oc, &mut r).unwrap();
                prop_assert_eq!(SoreScheme::compare(&ct, &tk), oc.holds(x as u64, y as u64));
            }
            Ok(())
        });
    }

    #[test]
    fn leakage_is_first_diff_bit_between_tokens() {
        prop_check!(0x5042, 64, |g| {
            // Comparing two *tokens* leaks the first differing bit index:
            // common count == b - (index of first differing bit) ... which
            // equals the shared-prefix tuple count. Verify the relationship.
            let (x, y) = (g.u16(), g.u16());
            let sore = SoreScheme::new(b"prop", 16).unwrap();
            let mut r = rng();
            let t1 = sore.token(x as u64, Order::Greater, &mut r).unwrap();
            let t2 = sore.token(y as u64, Order::Greater, &mut r).unwrap();
            let common = SoreScheme::common_count(&t1, &t2);
            if x == y {
                prop_assert_eq!(common, 16);
            } else {
                let first_diff = (x ^ y).leading_zeros() as usize; // 0-based from MSB of u16
                prop_assert_eq!(common, first_diff);
            }
            Ok(())
        });
    }
}
