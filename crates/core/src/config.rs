//! Protocol configuration.

use crate::error::SlicerError;
use slicer_accumulator::{RsaParams, DEFAULT_PRIME_BITS};

/// Configuration shared by every party of a Slicer deployment.
#[derive(Debug, Clone)]
pub struct SlicerConfig {
    /// Bit width `b` of the numerical values (the paper evaluates 8, 16
    /// and 24).
    pub value_bits: u8,
    /// Size of `H_prime` prime representatives.
    pub prime_bits: u32,
    /// RSA accumulator public parameters.
    pub accumulator: RsaParams,
    /// Trapdoor-permutation modulus size when generating fresh keys.
    pub trapdoor_bits: u32,
    /// Worker count for the deterministic fan-out pool (`slicer-par`).
    /// Defaults to the `SLICER_THREADS` environment variable, else the
    /// machine's parallelism capped at 8. Protocol outputs and telemetry
    /// transcripts are byte-identical at any setting.
    pub workers: usize,
}

impl SlicerConfig {
    /// Configuration for `value_bits`-bit values with the fixed 512-bit
    /// accumulator parameters — the evaluation setup.
    /// # Panics
    ///
    /// Panics unless `1 <= value_bits <= 64` — a compile-time-style API
    /// contract on a constructor that takes literals.
    pub fn with_bits(value_bits: u8) -> Self {
        // slicer-lint: allow(panic.assert) — constructor precondition on a caller-supplied literal; no fallible path needed
        assert!((1..=64).contains(&value_bits));
        SlicerConfig {
            value_bits,
            prime_bits: DEFAULT_PRIME_BITS,
            accumulator: RsaParams::fixed_512(),
            trapdoor_bits: 512,
            workers: slicer_par::configured_workers(),
        }
    }

    /// Same configuration with an explicit pool size (overrides
    /// `SLICER_THREADS`).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Fast 8-bit test configuration.
    pub fn test_8bit() -> Self {
        Self::with_bits(8)
    }

    /// 16-bit configuration (paper's middle setting).
    pub fn test_16bit() -> Self {
        Self::with_bits(16)
    }

    /// Largest value representable under this configuration.
    pub fn max_value(&self) -> u64 {
        if self.value_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.value_bits) - 1
        }
    }

    /// The domain rule for every value the protocol handles: record
    /// values on ingest and query values on search must fit `value_bits`.
    /// SORE tuples of a wider value name prefixes no record has, so an
    /// out-of-domain query would match nothing or the wrong slice.
    ///
    /// # Errors
    ///
    /// [`SlicerError::ValueOutOfDomain`] if `value > max_value()`.
    pub fn check_value(&self, value: u64) -> Result<(), SlicerError> {
        if value > self.max_value() {
            return Err(SlicerError::ValueOutOfDomain {
                value,
                bits: self.value_bits,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_value_matches_width() {
        assert_eq!(SlicerConfig::test_8bit().max_value(), 255);
        assert_eq!(SlicerConfig::with_bits(64).max_value(), u64::MAX);
    }

    #[test]
    fn check_value_accepts_exactly_the_domain() {
        let c = SlicerConfig::test_8bit();
        assert!(c.check_value(0).is_ok());
        assert!(c.check_value(255).is_ok());
        assert!(matches!(
            c.check_value(256),
            Err(SlicerError::ValueOutOfDomain {
                value: 256,
                bits: 8
            })
        ));
        assert!(SlicerConfig::with_bits(64).check_value(u64::MAX).is_ok());
    }

    #[test]
    fn with_workers_overrides_and_clamps() {
        assert_eq!(SlicerConfig::test_8bit().with_workers(3).workers, 3);
        assert_eq!(SlicerConfig::test_8bit().with_workers(0).workers, 1);
    }

    #[test]
    #[should_panic]
    fn zero_bits_rejected() {
        SlicerConfig::with_bits(0);
    }
}
