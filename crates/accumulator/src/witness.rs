//! Membership-witness generation strategies.
//!
//! A witness for `x` in set `X` is `g^{∏_{y ∈ X, y ≠ x} y} mod n`. Three
//! strategies with different cost profiles:
//!
//! * [`membership_witness`] — direct per-query fold over `X \ {x}`, `O(|X|)`
//!   short exponentiations. This is what the paper's cloud does per search
//!   token (its VO-generation time in Fig. 5b/5d grows with the record
//!   count for exactly this reason).
//! * [`witness_batch`] — for an order query's `b` slices: raise `g` to the
//!   shared complement once, then split among the `b` targets with a
//!   root-factor tree. Turns `b` direct folds into ~1, and the complement
//!   power is a fixed-base exponentiation over the generator's table
//!   ([`RsaParams::generator_pow_product`]) rather than a square-and-multiply
//!   chain of `128 |X|` squarings.
//! * [`root_factor`] — Sander–Ta-Shma–style divide and conquer producing
//!   witnesses for *every* member of a set in `O(|X| log |X|)`
//!   exponentiations; the split stage of [`witness_batch`].

use crate::error::AccumulatorError;
use crate::params::RsaParams;
use slicer_bignum::BigUint;
use slicer_par::Pool;

/// Subtrees below this size are not worth fanning out to pool workers.
const POOL_MIN_SUBTREE: usize = 64;

/// Direct witness for `primes[target]`: folds every other prime into the
/// exponent one at a time.
///
/// # Errors
///
/// Returns [`AccumulatorError::TargetOutOfRange`] if
/// `target >= primes.len()`.
pub fn membership_witness(
    params: &RsaParams,
    primes: &[BigUint],
    target: usize,
) -> Result<BigUint, AccumulatorError> {
    if target >= primes.len() {
        return Err(AccumulatorError::TargetOutOfRange {
            index: target,
            len: primes.len(),
        });
    }
    let mut w = params.generator().clone();
    for (i, p) in primes.iter().enumerate() {
        if i != target {
            w = params.powmod(&w, p);
        }
    }
    Ok(w)
}

/// Witnesses for a subset of members sharing one complement fold.
///
/// `targets` are indexes into `primes` (must be distinct). Returns one
/// witness per target, in target order.
///
/// # Errors
///
/// Returns [`AccumulatorError::TargetOutOfRange`] or
/// [`AccumulatorError::DuplicateTarget`] on a malformed target list.
pub fn witness_batch(
    params: &RsaParams,
    primes: &[BigUint],
    targets: &[usize],
) -> Result<Vec<BigUint>, AccumulatorError> {
    witness_batch_pooled(params, primes, targets, &Pool::single())
}

/// [`witness_batch`] with the root-factor tree fanned out over a
/// deterministic pool: identical output at any worker count.
///
/// # Errors
///
/// Returns [`AccumulatorError::TargetOutOfRange`] or
/// [`AccumulatorError::DuplicateTarget`] on a malformed target list.
pub fn witness_batch_pooled(
    params: &RsaParams,
    primes: &[BigUint],
    targets: &[usize],
    pool: &Pool,
) -> Result<Vec<BigUint>, AccumulatorError> {
    if targets.is_empty() {
        return Ok(Vec::new());
    }
    let mut in_targets = vec![false; primes.len()];
    for &t in targets {
        let slot = in_targets
            .get_mut(t)
            .ok_or(AccumulatorError::TargetOutOfRange {
                index: t,
                len: primes.len(),
            })?;
        if *slot {
            return Err(AccumulatorError::DuplicateTarget(t));
        }
        *slot = true;
    }
    // Raise g to the complement (all primes not being proven) once.
    let complement: Vec<BigUint> = primes
        .iter()
        .zip(&in_targets)
        .filter(|(_, proving)| !**proving)
        .map(|(p, _)| p.clone())
        .collect();
    let base = params.generator_pow_product(&complement);
    // Distribute the target primes over each other with a root-factor tree.
    let target_primes: Vec<BigUint> = targets
        .iter()
        .map(|&t| {
            primes
                .get(t)
                .cloned()
                .ok_or(AccumulatorError::TargetOutOfRange {
                    index: t,
                    len: primes.len(),
                })
        })
        .collect::<Result<_, _>>()?;
    Ok(root_factor_pooled(params, &base, &target_primes, pool))
}

/// Computes witnesses for every element of `primes` relative to the
/// accumulator `base^{∏ primes}`: returns `w_i = base^{∏_{j≠i} primes_j}`.
///
/// Divide and conquer: split the set in half, raise the base to the
/// product of each half for the opposite side, recurse. Total work is
/// `O(n log n)` short exponentiations instead of `O(n^2)`.
pub fn root_factor(params: &RsaParams, base: &BigUint, primes: &[BigUint]) -> Vec<BigUint> {
    match primes.len() {
        0 => Vec::new(),
        1 => vec![base.clone()],
        _ => {
            let mid = primes.len() / 2;
            let (left, right) = primes.split_at(mid);
            let base_right = params.powmod_product(base, left);
            let base_left = params.powmod_product(base, right);
            let mut out = root_factor(params, &base_left, left);
            out.extend(root_factor(params, &base_right, right));
            out
        }
    }
}

/// [`root_factor`] with the independent subtrees below the first few split
/// levels fanned out over a deterministic pool. The split arithmetic is
/// identical to the sequential tree and results are joined in submission
/// order, so the output is byte-equal at any worker count.
pub fn root_factor_pooled(
    params: &RsaParams,
    base: &BigUint,
    primes: &[BigUint],
    pool: &Pool,
) -> Vec<BigUint> {
    if pool.workers() <= 1 || primes.len() < 2 * POOL_MIN_SUBTREE {
        return root_factor(params, base, primes);
    }
    // Split sequentially (these top levels touch the whole prime set and
    // cannot parallelize) until there is a left-to-right frontier of
    // independent subtrees, then recurse into the subtrees concurrently.
    let want = pool.workers() * 4;
    let mut frontier: Vec<(BigUint, &[BigUint])> = vec![(base.clone(), primes)];
    while frontier.len() < want
        && frontier
            .iter()
            .any(|(_, s)| s.len() >= 2 * POOL_MIN_SUBTREE)
    {
        let mut next = Vec::with_capacity(frontier.len() * 2);
        for (b, s) in frontier {
            if s.len() < 2 * POOL_MIN_SUBTREE {
                next.push((b, s));
                continue;
            }
            let mid = s.len() / 2;
            let (left, right) = s.split_at(mid);
            let base_right = params.powmod_product(&b, left);
            let base_left = params.powmod_product(&b, right);
            next.push((base_left, left));
            next.push((base_right, right));
        }
        frontier = next;
    }
    pool.run(&frontier, |(b, s)| root_factor(params, b, s))
        .into_iter()
        .flatten()
        .collect()
}

/// Verifies `witness^x ≡ ac (mod n)` — the smart contract's `VerifyMem`.
pub fn verify_membership(
    params: &RsaParams,
    prime: &BigUint,
    witness: &BigUint,
    ac: &BigUint,
) -> bool {
    &params.powmod(witness, prime) == ac
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
    fn direct_witness_verifies() {
        let params = RsaParams::fixed_512();
        let ps = primes(8);
        let acc = Accumulator::over(&params, &ps);
        for t in 0..ps.len() {
            let w = membership_witness(&params, &ps, t).expect("in range");
            assert!(acc.verify(&ps[t], &w), "witness {t}");
        }
    }

    #[test]
    fn witness_for_wrong_element_fails() {
        let params = RsaParams::fixed_512();
        let ps = primes(5);
        let acc = Accumulator::over(&params, &ps);
        let w = membership_witness(&params, &ps, 0).expect("in range");
        assert!(!acc.verify(&ps[1], &w));
    }

    #[test]
    fn non_member_cannot_be_proven() {
        let params = RsaParams::fixed_512();
        let ps = primes(5);
        let acc = Accumulator::over(&params, &ps);
        let outsider = hash_to_prime(b"not a member", 64).expect("width ok");
        for t in 0..ps.len() {
            let w = membership_witness(&params, &ps, t).expect("in range");
            assert!(!acc.verify(&outsider, &w));
        }
    }

    #[test]
    fn batch_matches_direct() {
        let params = RsaParams::fixed_512();
        let ps = primes(10);
        let targets = [1usize, 4, 7, 9];
        let batch = witness_batch(&params, &ps, &targets).expect("valid targets");
        for (w, &t) in batch.iter().zip(&targets) {
            assert_eq!(
                w,
                &membership_witness(&params, &ps, t).expect("in range"),
                "target {t}"
            );
        }
    }

    #[test]
    fn batch_empty_targets() {
        let params = RsaParams::fixed_512();
        assert!(witness_batch(&params, &primes(3), &[])
            .expect("empty")
            .is_empty());
    }

    #[test]
    fn malformed_targets_are_typed_errors() {
        use crate::AccumulatorError;
        let params = RsaParams::fixed_512();
        assert_eq!(
            witness_batch(&params, &primes(3), &[1, 1]).unwrap_err(),
            AccumulatorError::DuplicateTarget(1)
        );
        assert_eq!(
            witness_batch(&params, &primes(3), &[5]).unwrap_err(),
            AccumulatorError::TargetOutOfRange { index: 5, len: 3 }
        );
        assert_eq!(
            membership_witness(&params, &primes(3), 3).unwrap_err(),
            AccumulatorError::TargetOutOfRange { index: 3, len: 3 }
        );
    }

    #[test]
    fn root_factor_yields_all_witnesses() {
        let params = RsaParams::fixed_512();
        let ps = primes(9);
        let acc = Accumulator::over(&params, &ps);
        let all = root_factor(&params, params.generator(), &ps);
        assert_eq!(all.len(), ps.len());
        for (w, p) in all.iter().zip(&ps) {
            assert!(acc.verify(p, w));
        }
    }

    #[test]
    fn batch_witnesses_byte_equal_naive_fold() {
        // The batched path (fixed-base complement fold + root-factor
        // splits) must agree bit for bit with the one-prime-at-a-time
        // fold, for every shape of complement: one target among up to 300
        // members, a random subset, all members proven (empty complement)
        // and a few targets among many; tables cold, warmed by larger
        // earlier cases and shared through clones; pools of 1, 2 and 8.
        use slicer_testkit::{prop_assert_eq, prop_check};
        let mut rng = slicer_crypto::HmacDrbg::from_u64(0x2015);
        let fresh = RsaParams::generate(128, &mut rng).expect("128 bits suffices");
        let deployments = [RsaParams::fixed_512(), RsaParams::fixed_1024(), fresh];
        let all: Vec<BigUint> = (0..300u32)
            .map(|i| hash_to_prime(&i.to_be_bytes(), 128).expect("width ok"))
            .collect();
        let pools = [Pool::new(1), Pool::new(2), Pool::new(8)];
        prop_check!(0x2015, 64, |g| {
            let shared = &deployments[g.u64_in(0, 2) as usize];
            let params = match g.u64_in(0, 2) {
                0 => {
                    RsaParams::try_from_parts(shared.modulus().clone(), shared.generator().clone())
                        .expect("valid modulus")
                }
                _ => shared.clone(),
            };
            let (n, targets): (usize, Vec<usize>) = match g.u64_in(0, 3) {
                0 => {
                    let n = g.u64_in(1, 300) as usize;
                    (n, vec![g.u64_in(0, n as u64 - 1) as usize])
                }
                1 => {
                    let n = g.u64_in(2, 18) as usize;
                    let mut t: Vec<usize> = (0..n).filter(|_| g.u8() & 1 == 1).collect();
                    if t.is_empty() {
                        t.push(g.u64_in(0, n as u64 - 1) as usize);
                    }
                    (n, t)
                }
                2 => {
                    let n = g.u64_in(1, 24) as usize;
                    (n, (0..n).collect())
                }
                _ => {
                    let n = g.u64_in(2, 300) as usize;
                    let mut t: Vec<usize> = (0..g.u64_in(2, 6))
                        .map(|_| g.u64_in(0, n as u64 - 1) as usize)
                        .collect();
                    t.sort_unstable();
                    t.dedup();
                    (n, t)
                }
            };
            let ps = &all[..n];
            let pool = &pools[g.u64_in(0, 2) as usize];
            let elem = params.element_bytes();
            let batch = witness_batch_pooled(&params, ps, &targets, pool).expect("valid targets");
            for (w, &t) in batch.iter().zip(&targets) {
                let direct = membership_witness(&params, ps, t).expect("in range");
                prop_assert_eq!(w.to_bytes_be_padded(elem), direct.to_bytes_be_padded(elem));
            }
            Ok(())
        });
    }

    #[test]
    fn pooled_tree_matches_sequential_at_every_pool_size() {
        let params = RsaParams::fixed_512();
        let ps = primes(300);
        let sequential = root_factor(&params, params.generator(), &ps);
        for workers in [1usize, 2, 8] {
            let pool = Pool::new(workers);
            assert_eq!(
                root_factor_pooled(&params, params.generator(), &ps, &pool),
                sequential,
                "pool size {workers}"
            );
        }
        let acc = Accumulator::over(&params, &ps);
        for (w, p) in sequential.iter().zip(&ps) {
            assert!(acc.verify(p, w));
        }
    }

    #[test]
    fn single_member_witness_is_generator() {
        let params = RsaParams::fixed_512();
        let ps = primes(1);
        let w = membership_witness(&params, &ps, 0).expect("in range");
        assert_eq!(&w, params.generator());
        let acc = Accumulator::over(&params, &ps);
        assert!(acc.verify(&ps[0], &w));
    }
}
