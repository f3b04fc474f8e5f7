//! # slicer-workload
//!
//! Seeded dataset and query generators for the evaluation (Section VII).
//!
//! The paper evaluates on "randomly simulated key-value records" with 8-,
//! 16- and 24-bit values over 10K–160K records. This crate reproduces that
//! setup deterministically: the same seed gives the same dataset.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use slicer_crypto::Rng;

/// Descriptor of a synthetic dataset: values uniform over the full
/// `bits`-bit domain (the paper's setting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Number of records.
    pub records: usize,
    /// Value bit width (8 / 16 / 24 in the paper).
    pub bits: u8,
    /// RNG seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// The paper's uniform setting.
    pub fn uniform(records: usize, bits: u8, seed: u64) -> Self {
        DatasetSpec {
            records,
            bits,
            seed,
        }
    }

    /// Generates `(record id, value)` pairs; record IDs are sequential
    /// 16-byte identifiers (`[0u64, i]`), values are uniform draws.
    pub fn generate(&self) -> Vec<([u8; 16], u64)> {
        let mut rng = splitmix_stream(self.seed);
        let max = if self.bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        };
        (0..self.records)
            .map(|i| {
                let mut id = [0u8; 16];
                id[8..].copy_from_slice(&(i as u64).to_be_bytes());
                (id, rng.next_u64() & max)
            })
            .collect()
    }
}

/// Samples equality/order query values for a dataset: draws `count` values
/// that *exist* in the data (so equality queries return hits, as when the
/// paper "selects random numbers to execute the protocol").
pub fn sample_query_values(data: &[([u8; 16], u64)], count: usize, seed: u64) -> Vec<u64> {
    let mut rng = splitmix_stream(seed);
    (0..count)
        .map(|_| data[(rng.next_u64() % data.len() as u64) as usize].1)
        .collect()
}

/// A tiny deterministic RNG (SplitMix64 stream) implementing
/// [`slicer_crypto::Rng`]; deliberately minimal so dataset generation has
/// no cross-version drift.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

/// Creates a [`SplitMix64`] stream from a seed.
pub fn splitmix_stream(seed: u64) -> SplitMix64 {
    SplitMix64 { state: seed }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let spec = DatasetSpec::uniform(100, 16, 7);
        assert_eq!(spec.generate(), spec.generate());
    }

    #[test]
    fn values_respect_bit_width() {
        for bits in [8u8, 16, 24] {
            let spec = DatasetSpec::uniform(500, bits, 1);
            let max = (1u64 << bits) - 1;
            assert!(spec.generate().iter().all(|(_, v)| *v <= max));
        }
    }

    #[test]
    fn uniform_covers_the_domain() {
        let spec = DatasetSpec::uniform(2_000, 8, 2);
        let data = spec.generate();
        let distinct: std::collections::HashSet<u64> = data.iter().map(|(_, v)| *v).collect();
        // 2000 uniform draws over 256 values: expect near-full coverage.
        assert!(distinct.len() > 240, "only {} distinct", distinct.len());
    }

    #[test]
    fn query_values_come_from_data() {
        let spec = DatasetSpec::uniform(100, 16, 5);
        let data = spec.generate();
        let qs = sample_query_values(&data, 20, 6);
        let values: std::collections::HashSet<u64> = data.iter().map(|(_, v)| *v).collect();
        assert!(qs.iter().all(|q| values.contains(q)));
        assert_eq!(qs.len(), 20);
    }

    #[test]
    fn ids_are_sequential_and_unique() {
        let data = DatasetSpec::uniform(50, 8, 1).generate();
        let ids: std::collections::HashSet<[u8; 16]> = data.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), 50);
    }
}
