//! Nonmembership witnesses — the universal-accumulator extension of
//! Li, Li & Xue (ACNS 2007), the paper's reference `[28]`.
//!
//! Slicer's verification only needs membership proofs, but the same
//! accumulator supports *provable absence*: for a prime `x ∉ X` the cloud
//! can prove that no keyword state with representative `x` was ever
//! accumulated — useful for demonstrating that a keyword has no results
//! without trusting the cloud's word.
//!
//! Construction: with `u = ∏_{y ∈ X} y` and `gcd(x, u) = 1` (guaranteed
//! when `x` is a prime outside the set), pick `a = u⁻¹ mod x`, so
//! `a·u = 1 + k·x` for the non-negative integer `k = (a·u − 1)/x`.
//! The witness is `(a, d = g^k)` and verification checks
//!
//! ```text
//! Ac^a ≡ g · d^x  (mod n)
//! ```
//!
//! which holds because `Ac^a = g^{a·u} = g^{1 + k·x}`.

use crate::params::RsaParams;
use slicer_bignum::BigUint;

/// A nonmembership witness `(a, d)` for a specific accumulator state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonMembershipWitness {
    /// The Bézout coefficient `a = u⁻¹ mod x`.
    pub a: BigUint,
    /// The blinded cofactor `d = g^{(a·u − 1)/x}`.
    pub d: BigUint,
}

/// Produces a nonmembership witness for `x` against the set `primes`,
/// or `None` if `x` actually divides the product (i.e. `x ∈ X`).
///
/// Cost is dominated by one product over `X` and one `|X|·prime_bits`-bit
/// exponentiation — this is the full-product path, intended for occasional
/// absence proofs rather than the per-query hot path.
pub fn nonmembership_witness(
    params: &RsaParams,
    primes: &[BigUint],
    x: &BigUint,
) -> Option<NonMembershipWitness> {
    let u = BigUint::product(primes);
    let a = u.modinv(x)?; // None iff gcd(x, u) != 1, i.e. x ∈ X
    let au = &a * &u;
    let k = &(&au - &BigUint::one()) / x;
    debug_assert_eq!(&(&k * x) + &BigUint::one(), au);
    let d = params.powmod(params.generator(), &k);
    Some(NonMembershipWitness { a, d })
}

/// Verifies a nonmembership witness against an accumulator value.
pub fn verify_nonmembership(
    params: &RsaParams,
    x: &BigUint,
    witness: &NonMembershipWitness,
    ac: &BigUint,
) -> bool {
    let lhs = params.powmod(ac, &witness.a);
    let rhs = params
        .generator()
        .mulmod(&params.powmod(&witness.d, x), params.modulus());
    lhs == rhs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hash_to_prime, Accumulator};

    fn primes(n: u32) -> Vec<BigUint> {
        (0..n)
            .map(|i| hash_to_prime(&i.to_be_bytes(), 64).expect("width ok"))
            .collect()
    }

    #[test]
    fn absent_element_verifies() {
        let params = RsaParams::fixed_512();
        let ps = primes(12);
        let acc = Accumulator::over(&params, &ps);
        let outsider = hash_to_prime(b"never accumulated", 64).expect("width ok");
        let w = nonmembership_witness(&params, &ps, &outsider).expect("outsider");
        assert!(verify_nonmembership(&params, &outsider, &w, acc.value()));
    }

    #[test]
    fn member_has_no_nonmembership_witness() {
        let params = RsaParams::fixed_512();
        let ps = primes(8);
        assert!(nonmembership_witness(&params, &ps, &ps[3]).is_none());
    }

    #[test]
    fn witness_does_not_transfer_to_members() {
        let params = RsaParams::fixed_512();
        let ps = primes(8);
        let acc = Accumulator::over(&params, &ps);
        let outsider = hash_to_prime(b"x", 64).expect("width ok");
        let w = nonmembership_witness(&params, &ps, &outsider).expect("outsider");
        // The witness proves absence of `outsider`, not of a member.
        assert!(!verify_nonmembership(&params, &ps[0], &w, acc.value()));
    }

    #[test]
    fn stale_witness_fails_after_insertion() {
        let params = RsaParams::fixed_512();
        let mut ps = primes(8);
        let newcomer = hash_to_prime(b"late arrival", 64).expect("width ok");
        let w = nonmembership_witness(&params, &ps, &newcomer).expect("absent");
        // The element is later accumulated: the old absence proof dies.
        ps.push(newcomer.clone());
        let acc = Accumulator::over(&params, &ps);
        assert!(!verify_nonmembership(&params, &newcomer, &w, acc.value()));
    }

    #[test]
    fn empty_set_proves_everything_absent() {
        let params = RsaParams::fixed_512();
        let acc = Accumulator::new(&params);
        let x = hash_to_prime(b"anything", 64).expect("width ok");
        let w = nonmembership_witness(&params, &[], &x).expect("empty set");
        assert!(verify_nonmembership(&params, &x, &w, acc.value()));
    }
}
