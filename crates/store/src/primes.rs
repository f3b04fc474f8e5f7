//! The prime list `X` held by the cloud for witness generation.

use slicer_bignum::BigUint;
use slicer_crypto::codec::{CodecError, Decode, Encode, Reader};
use std::collections::BTreeMap;

/// An append-only list of distinct prime representatives with
/// O(log q) index lookup.
///
/// Algorithm 2 never removes primes — superseded keyword states stay
/// accumulated, and freshness is enforced by the *user's* token pointing at
/// the newest `(t_j, j)` state (whose prime is the only one the contract
/// will recompute).
#[derive(Debug, Clone, Default)]
pub struct PrimeList {
    primes: Vec<BigUint>,
    positions: BTreeMap<BigUint, usize>,
}

impl Encode for PrimeList {
    fn encode(&self, out: &mut Vec<u8>) {
        // Only the primes travel; the lookup table is derived state.
        self.primes.encode(out);
    }
}

impl Decode for PrimeList {
    /// Rebuilds the lookup table; a list naming the same prime twice is
    /// rejected, since [`PrimeList::push`] can never produce one.
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        let primes = Vec::<BigUint>::decode(reader)?;
        let mut positions = BTreeMap::new();
        for (i, p) in primes.iter().enumerate() {
            if let Some(first) = positions.insert(p.clone(), i) {
                return Err(CodecError::msg(format!(
                    "prime list repeats entry {first} at {i}"
                )));
            }
        }
        Ok(PrimeList { primes, positions })
    }
}

impl PrimeList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a prime, returning its index. Re-adding an existing prime
    /// returns the original index without duplicating it.
    pub fn push(&mut self, prime: BigUint) -> usize {
        if let Some(&i) = self.positions.get(&prime) {
            return i;
        }
        let i = self.primes.len();
        self.positions.insert(prime.clone(), i);
        self.primes.push(prime);
        i
    }

    /// Index of a prime, if present.
    pub fn position(&self, prime: &BigUint) -> Option<usize> {
        self.positions.get(prime).copied()
    }

    /// The primes in insertion order.
    pub fn as_slice(&self) -> &[BigUint] {
        &self.primes
    }

    /// Number of primes `q`.
    pub fn len(&self) -> usize {
        self.primes.len()
    }

    /// True when no primes are stored.
    pub fn is_empty(&self) -> bool {
        self.primes.is_empty()
    }

    /// Storage footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.primes
            .iter()
            .map(|p| p.bit_len().div_ceil(8) as usize)
            .sum()
    }
}

impl FromIterator<BigUint> for PrimeList {
    fn from_iter<I: IntoIterator<Item = BigUint>>(iter: I) -> Self {
        let mut list = PrimeList::new();
        for p in iter {
            list.push(p);
        }
        list
    }
}

impl Extend<BigUint> for PrimeList {
    fn extend<I: IntoIterator<Item = BigUint>>(&mut self, iter: I) {
        for p in iter {
            self.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u64) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn push_and_lookup() {
        let mut list = PrimeList::new();
        assert_eq!(list.push(p(101)), 0);
        assert_eq!(list.push(p(103)), 1);
        assert_eq!(list.position(&p(101)), Some(0));
        assert_eq!(list.position(&p(999)), None);
    }

    #[test]
    fn idempotent_push() {
        let mut list = PrimeList::new();
        list.push(p(101));
        assert_eq!(list.push(p(101)), 0);
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn collects_from_iterator() {
        let list: PrimeList = (0u64..5).map(|i| p(100 + i)).collect();
        assert_eq!(list.len(), 5);
    }

    #[test]
    fn size_counts_bytes() {
        let mut list = PrimeList::new();
        list.push(p(0xFFFF)); // 2 bytes
        list.push(p(0xFF)); // 1 byte
        assert_eq!(list.size_bytes(), 3);
    }

    #[test]
    fn codec_rejects_duplicate_prime() {
        let bytes = slicer_crypto::codec::to_bytes(&vec![p(101), p(103), p(101)]).unwrap();
        let err = slicer_crypto::codec::from_bytes::<PrimeList>(&bytes).unwrap_err();
        assert!(err.to_string().contains("repeats"), "{err}");
    }
}
