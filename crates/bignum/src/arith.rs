//! Addition, subtraction and multiplication (schoolbook + Karatsuba).

// Carry-propagation loops walk parallel limb arrays by index on purpose;
// iterator zips obscure the carry dataflow here.
#![allow(clippy::needless_range_loop)]

use crate::uint::BigUint;
use crate::{DoubleLimb, Limb};
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// Limb count above which multiplication switches to Karatsuba.
const KARATSUBA_THRESHOLD: usize = 32;

pub(crate) fn add_limbs(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry: DoubleLimb = 0;
    for i in 0..long.len() {
        let s = long[i] as DoubleLimb + *short.get(i).unwrap_or(&0) as DoubleLimb + carry;
        out.push(s as Limb);
        carry = s >> 64;
    }
    if carry != 0 {
        out.push(carry as Limb);
    }
    out
}

/// Computes `a - b`, panicking on underflow (callers check order first).
pub(crate) fn sub_limbs(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    debug_assert!(a.len() >= b.len());
    let mut out = Vec::with_capacity(a.len());
    let mut borrow: DoubleLimb = 0;
    for i in 0..a.len() {
        let rhs = *b.get(i).unwrap_or(&0) as DoubleLimb + borrow;
        let lhs = a[i] as DoubleLimb;
        if lhs >= rhs {
            out.push((lhs - rhs) as Limb);
            borrow = 0;
        } else {
            out.push((lhs + (1u128 << 64) - rhs) as Limb);
            borrow = 1;
        }
    }
    assert_eq!(borrow, 0, "subtraction underflow");
    out
}

fn mul_schoolbook(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0 as Limb; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        // Row `i` spans `out[i..=i + b.len()]`; its top limb is still zero
        // (earlier rows end one limb lower), so the carry lands there whole.
        let mut carry: DoubleLimb = 0;
        for (o, &bj) in out[i..i + b.len()].iter_mut().zip(b) {
            let s = *o as DoubleLimb + ai as DoubleLimb * bj as DoubleLimb + carry;
            *o = s as Limb;
            carry = s >> 64;
        }
        out[i + b.len()] = carry as Limb;
    }
    out
}

fn mul_karatsuba(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    if a.len() < KARATSUBA_THRESHOLD || b.len() < KARATSUBA_THRESHOLD {
        return mul_schoolbook(a, b);
    }
    let half = a.len().max(b.len()) / 2;
    let (a0, a1) = a.split_at(half.min(a.len()));
    let (b0, b1) = b.split_at(half.min(b.len()));

    // z0 = a0*b0, z2 = a1*b1, z1 = (a0+a1)(b0+b1) - z0 - z2
    let z0 = mul_karatsuba(a0, b0);
    let z2 = mul_karatsuba(a1, b1);
    let a01 = add_limbs(a0, a1);
    let b01 = add_limbs(b0, b1);
    let mut z1 = mul_karatsuba(&a01, &b01);
    z1 = sub_trim(z1, &z0);
    z1 = sub_trim(z1, &z2);

    // z0 fills limbs [0, 2 half) and z2 starts at 2 half: place both,
    // then add the middle term across them.
    let mut out = vec![0 as Limb; a.len() + b.len()];
    out[..z0.len()].copy_from_slice(&z0);
    out[2 * half..2 * half + z2.len()].copy_from_slice(&z2);
    add_into(&mut out, &z1, half);
    out
}

/// `acc -= x` treating both as little-endian with `acc >= x`; trims nothing.
fn sub_trim(mut acc: Vec<Limb>, x: &[Limb]) -> Vec<Limb> {
    let mut borrow: DoubleLimb = 0;
    for i in 0..acc.len() {
        let rhs = *x.get(i).unwrap_or(&0) as DoubleLimb + borrow;
        let lhs = acc[i] as DoubleLimb;
        if lhs >= rhs {
            acc[i] = (lhs - rhs) as Limb;
            borrow = 0;
        } else {
            acc[i] = (lhs + (1u128 << 64) - rhs) as Limb;
            borrow = 1;
        }
    }
    debug_assert_eq!(borrow, 0);
    acc
}

/// `out[offset..] += x`, carrying within `out` (must not overflow `out`).
fn add_into(out: &mut [Limb], x: &[Limb], offset: usize) {
    let mut carry: DoubleLimb = 0;
    let mut i = 0;
    while i < x.len() || carry != 0 {
        let idx = offset + i;
        if idx >= out.len() {
            debug_assert_eq!(carry, 0);
            debug_assert!(x[i..].iter().all(|&l| l == 0));
            break;
        }
        let s = out[idx] as DoubleLimb + *x.get(i).unwrap_or(&0) as DoubleLimb + carry;
        out[idx] = s as Limb;
        carry = s >> 64;
        i += 1;
    }
}

pub(crate) fn mul_limbs(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    if a.len() >= KARATSUBA_THRESHOLD && b.len() >= KARATSUBA_THRESHOLD {
        mul_karatsuba(a, b)
    } else {
        mul_schoolbook(a, b)
    }
}

impl BigUint {
    /// Checked subtraction: `self - rhs`, or `None` on underflow.
    ///
    /// ```
    /// use slicer_bignum::BigUint;
    /// let a = BigUint::from(5u64);
    /// let b = BigUint::from(7u64);
    /// assert!(a.checked_sub(&b).is_none());
    /// assert_eq!(b.checked_sub(&a), Some(BigUint::from(2u64)));
    /// ```
    pub fn checked_sub(&self, rhs: &BigUint) -> Option<BigUint> {
        if self < rhs {
            None
        } else {
            Some(BigUint::from_limbs(sub_limbs(&self.limbs, &rhs.limbs)))
        }
    }

    /// `self * self`.
    pub fn square(&self) -> BigUint {
        BigUint::from_limbs(mul_limbs(&self.limbs, &self.limbs))
    }

    /// `∏ factors` by a balanced product tree, `O(M(total) log n)` instead
    /// of the quadratic left fold: the operands of each multiplication
    /// have about the same size, so the large ones reach Karatsuba. The
    /// empty product is one.
    ///
    /// ```
    /// use slicer_bignum::BigUint;
    /// let fs: Vec<BigUint> = (1..=5u64).map(BigUint::from).collect();
    /// assert_eq!(BigUint::product(&fs), BigUint::from(120u64));
    /// ```
    pub fn product(factors: &[BigUint]) -> BigUint {
        match factors {
            [] => BigUint::one(),
            [single] => single.clone(),
            _ => {
                let (left, right) = factors.split_at(factors.len() / 2);
                &Self::product(left) * &Self::product(right)
            }
        }
    }
}

impl Add for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        BigUint::from_limbs(add_limbs(&self.limbs, &rhs.limbs))
    }
}

impl Add for BigUint {
    type Output = BigUint;
    fn add(self, rhs: BigUint) -> BigUint {
        &self + &rhs
    }
}

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        *self = &*self + rhs;
    }
}

impl Sub for &BigUint {
    type Output = BigUint;
    /// # Panics
    ///
    /// Panics if `rhs > self`; use [`BigUint::checked_sub`] to handle
    /// underflow gracefully.
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.checked_sub(rhs)
            .expect("BigUint subtraction underflow")
    }
}

impl Sub for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: BigUint) -> BigUint {
        &self - &rhs
    }
}

impl SubAssign<&BigUint> for BigUint {
    fn sub_assign(&mut self, rhs: &BigUint) {
        *self = &*self - rhs;
    }
}

impl Mul for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        BigUint::from_limbs(mul_limbs(&self.limbs, &rhs.limbs))
    }
}

impl Mul for BigUint {
    type Output = BigUint;
    fn mul(self, rhs: BigUint) -> BigUint {
        &self * &rhs
    }
}

impl Mul<u64> for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: u64) -> BigUint {
        BigUint::from_limbs(mul_limbs(&self.limbs, &[rhs]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicer_testkit::{prop_assert_eq, prop_check};

    fn big(v: u128) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = big(u64::MAX as u128);
        let b = big(1);
        assert_eq!(&a + &b, big(u64::MAX as u128 + 1));
    }

    #[test]
    fn sub_borrows_across_limbs() {
        let a = big(1u128 << 64);
        let b = big(1);
        assert_eq!(&a - &b, big(u64::MAX as u128));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = &big(1) - &big(2);
    }

    #[test]
    fn mul_zero_and_one() {
        let a = big(12345);
        assert_eq!(&a * &BigUint::zero(), BigUint::zero());
        assert_eq!(&a * &BigUint::one(), a);
    }

    #[test]
    fn product_tree_matches_sequential_fold() {
        prop_check!(0x1017, 32, |g| {
            let count = g.u64_in(0, 300) as usize;
            let fs: Vec<BigUint> = (0..count).map(|_| BigUint::from(g.u128())).collect();
            let want = fs.iter().fold(BigUint::one(), |acc, f| &acc * f);
            prop_assert_eq!(BigUint::product(&fs), want);
            Ok(())
        });
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Operands large enough to trip the Karatsuba path, balanced and
        // unbalanced (one side shorter than the split point).
        prop_check!(0x1019, 32, |g| {
            let a: Vec<u64> = (0..g.u64_in(32, 200)).map(|_| g.u64()).collect();
            let b: Vec<u64> = (0..g.u64_in(32, 200)).map(|_| g.u64()).collect();
            prop_assert_eq!(
                BigUint::from_limbs(mul_karatsuba(&a, &b)),
                BigUint::from_limbs(mul_schoolbook(&a, &b))
            );
            Ok(())
        });
    }

    #[test]
    fn add_matches_u128() {
        prop_check!(0xA11, 64, |g| {
            let (a, b) = (g.u64(), g.u64());
            let r = &big(a as u128) + &big(b as u128);
            prop_assert_eq!(r.to_u128().unwrap(), a as u128 + b as u128);
            Ok(())
        });
    }

    #[test]
    fn mul_matches_u128() {
        prop_check!(0xA12, 64, |g| {
            let (a, b) = (g.u64(), g.u64());
            let r = &big(a as u128) * &big(b as u128);
            prop_assert_eq!(r.to_u128().unwrap(), a as u128 * b as u128);
            Ok(())
        });
    }

    #[test]
    fn add_sub_roundtrip() {
        prop_check!(0xA13, 64, |g| {
            let (a, b) = (g.u128(), g.u128());
            let s = &big(a) + &big(b);
            prop_assert_eq!(&s - &big(b), big(a));
            prop_assert_eq!(&s - &big(a), big(b));
            Ok(())
        });
    }

    #[test]
    fn mul_commutes() {
        prop_check!(0xA14, 64, |g| {
            let (a, b) = (g.u128(), g.u128());
            prop_assert_eq!(&big(a) * &big(b), &big(b) * &big(a));
            Ok(())
        });
    }

    #[test]
    fn distributive() {
        prop_check!(0xA15, 64, |g| {
            let (a, b, c) = (g.u64(), g.u64(), g.u64());
            let lhs = &big(a as u128) * &(&big(b as u128) + &big(c as u128));
            let rhs = &(&big(a as u128) * &big(b as u128)) + &(&big(a as u128) * &big(c as u128));
            prop_assert_eq!(lhs, rhs);
            Ok(())
        });
    }
}
