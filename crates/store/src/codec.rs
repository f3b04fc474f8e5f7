//! Binary persistence entry points for cloud state and protocol messages.
//!
//! The actual wire format lives in [`slicer_crypto::codec`] (fixed-width
//! little-endian integers, `u64` length prefixes, one-byte option tags,
//! `u32` enum variant indices); this module re-exports it under the
//! historical `slicer_store::codec` path so persistence call sites keep a
//! storage-flavoured import.
//!
//! The format is *not* self-describing: decoding is driven by the target
//! type, exactly like the wire formats real SSE deployments use.
//!
//! # Examples
//!
//! ```
//! use slicer_store::codec::{from_bytes, to_bytes};
//!
//! let state = slicer_store::CloudState::new();
//! let bytes = to_bytes(&state)?;
//! let back: slicer_store::CloudState = from_bytes(&bytes)?;
//! assert_eq!(back.index.len(), 0);
//! # Ok::<(), slicer_store::codec::CodecError>(())
//! ```

pub use slicer_crypto::codec::{from_bytes, to_bytes, CodecError, Decode, Encode, Reader};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CloudState, PrimeList};
    use slicer_bignum::BigUint;

    #[test]
    fn cloud_state_roundtrips() {
        let mut s = CloudState::new();
        s.index.put([3u8; 32], vec![9, 9, 9]).unwrap();
        s.primes.push(BigUint::from(101u64));
        s.accumulator = Some(BigUint::from(0xDEADu64));
        let bytes = to_bytes(&s).unwrap();
        let back: CloudState = from_bytes(&bytes).unwrap();
        assert_eq!(back.index.get(&[3u8; 32]), Some([9, 9, 9].as_slice()));
        assert_eq!(back.primes.as_slice(), s.primes.as_slice());
        assert_eq!(back.accumulator, s.accumulator);
    }

    #[test]
    fn restored_prime_list_lookup_works() {
        let list: PrimeList = (0u64..8).map(|i| BigUint::from(100 + i)).collect();
        let bytes = to_bytes(&list).unwrap();
        let mut back: PrimeList = from_bytes(&bytes).unwrap();
        assert_eq!(
            back.position(&BigUint::from(105u64)),
            list.position(&BigUint::from(105u64))
        );
        // Idempotent push still finds the existing slot after a restore.
        assert_eq!(back.push(BigUint::from(100u64)), 0);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&7u64).unwrap();
        bytes.push(0);
        assert!(from_bytes::<u64>(&bytes).is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = to_bytes(&7u64).unwrap();
        assert!(from_bytes::<u64>(&bytes[..4]).is_err());
    }
}
