//! The leakage functions of Section VI-B, made measurable.
//!
//! The security proof (Theorem 2) shows the protocol reveals nothing beyond
//! four leakage functions. This module computes those profiles from real
//! protocol transcripts so tests can check the *shape* claims directly:
//! `L^build` and `L^insert` contain only sizes; `L^search` is the access
//! pattern of one query; `L^repeat` is the repeat matrix.

use crate::messages::{BuildOutput, SearchToken};
use std::collections::BTreeMap;
use std::fmt;

/// A build shipment whose entries or primes do not all share one shape.
///
/// The `L^build` leakage claim ("sizes only") is meaningful only when one
/// `⟨|l|, |d|⟩` pair describes *every* entry; a ragged shipment would leak
/// per-entry information through its shape, so [`BuildLeakage::of`] refuses
/// to summarize it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaggedShapeError {
    /// Index of the first entry or prime deviating from the shape.
    pub index: usize,
    /// What deviated, e.g. `"value of 64 bytes, expected 32"`.
    pub detail: String,
}

impl fmt::Display for RaggedShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ragged build shipment at position {}: {}",
            self.index, self.detail
        )
    }
}

impl std::error::Error for RaggedShapeError {}

/// `L^build(DB) = (⟨|l|, |d|⟩_p, |x|_q)`: entry shapes and counts only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildLeakage {
    /// Bit length of index labels.
    pub label_bits: usize,
    /// Bit length of index values.
    pub value_bits: usize,
    /// Number of index entries `p`.
    pub entries: usize,
    /// Bit length of prime representatives.
    pub prime_bits: usize,
    /// Number of primes `q`.
    pub primes: usize,
}

impl BuildLeakage {
    /// Extracts the build leakage from a shipment, verifying that *every*
    /// entry and prime matches the shape of the first (summarizing a ragged
    /// shipment by its first element would understate the leakage).
    ///
    /// # Errors
    ///
    /// Returns [`RaggedShapeError`] naming the first nonconforming element.
    pub fn of(output: &BuildOutput) -> Result<Self, RaggedShapeError> {
        let label_len = output.entries.first().map_or(0, |(l, _)| l.len());
        let value_len = output.entries.first().map_or(0, |(_, d)| d.len());
        for (i, (l, d)) in output.entries.iter().enumerate() {
            if l.len() != label_len {
                return Err(RaggedShapeError {
                    index: i,
                    detail: format!("label of {} bytes, expected {label_len}", l.len()),
                });
            }
            if d.len() != value_len {
                return Err(RaggedShapeError {
                    index: i,
                    detail: format!("value of {} bytes, expected {value_len}", d.len()),
                });
            }
        }
        let prime_bits = output.primes.first().map_or(0, |x| x.bit_len() as usize);
        for (i, x) in output.primes.iter().enumerate() {
            if x.bit_len() as usize != prime_bits {
                return Err(RaggedShapeError {
                    index: i,
                    detail: format!("prime of {} bits, expected {prime_bits}", x.bit_len()),
                });
            }
        }
        Ok(BuildLeakage {
            label_bits: label_len * 8,
            value_bits: value_len * 8,
            entries: output.entries.len(),
            prime_bits,
            primes: output.primes.len(),
        })
    }
}

/// `L^search`: the per-token access pattern — how many generations were
/// walked and how many entries matched in each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchLeakage {
    /// Per token: `(j, results recovered)`.
    pub tokens: Vec<(u32, usize)>,
}

impl SearchLeakage {
    /// Builds the profile from the slice results of one query.
    pub fn of(results: &[crate::messages::SliceResult]) -> Self {
        SearchLeakage {
            tokens: results
                .iter()
                .map(|r| (r.token.updates, r.er.len()))
                .collect(),
        }
    }
}

/// `L^repeat(Q) = M_{r×r}`: which of `r` historical tokens coincide.
///
/// The server can always compute this matrix by comparing the PRF values
/// of issued tokens; the proof's simulator needs exactly this much.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepeatLeakage {
    /// Symmetric boolean matrix, `matrix[i][j]` iff token `i` = token `j`.
    pub matrix: Vec<Vec<bool>>,
}

impl RepeatLeakage {
    /// Computes the repeat matrix over a token history.
    pub fn of(history: &[SearchToken]) -> Self {
        let r = history.len();
        let mut matrix = vec![vec![false; r]; r];
        let mut seen: BTreeMap<([u8; 32], [u8; 32], u32), Vec<usize>> = BTreeMap::new();
        for (i, t) in history.iter().enumerate() {
            seen.entry((t.g1, t.g2, t.updates)).or_default().push(i);
        }
        for group in seen.values() {
            for &i in group {
                for &j in group {
                    if let Some(cell) = matrix.get_mut(i).and_then(|row| row.get_mut(j)) {
                        *cell = true;
                    }
                }
            }
        }
        RepeatLeakage { matrix }
    }

    /// Number of distinct token identities in the history.
    pub fn distinct(&self) -> usize {
        // Count rows that are the first occurrence of their pattern.
        let mut count = 0;
        for (i, row) in self.matrix.iter().enumerate() {
            if row.iter().take(i).all(|&b| !b) {
                count += 1;
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Query;
    use crate::owner::DataOwner;
    use crate::record::RecordId;
    use crate::SlicerConfig;

    fn owner_with(n: u64) -> DataOwner {
        let mut o = DataOwner::new(SlicerConfig::test_8bit(), 77);
        let db: Vec<(RecordId, u64)> = (0..n)
            .map(|i| (RecordId::from_u64(i), (i * 3) % 256))
            .collect();
        o.build(&db).unwrap();
        o
    }

    #[test]
    fn build_leakage_is_sizes_only() {
        let mut o = DataOwner::new(SlicerConfig::test_8bit(), 77);
        let db: Vec<(RecordId, u64)> = (0..20)
            .map(|i| (RecordId::from_u64(i), (i * 3) % 256))
            .collect();
        let out = o.build(&db).unwrap();
        let leak = BuildLeakage::of(&out).unwrap();
        assert_eq!(leak.label_bits, 256);
        assert_eq!(leak.value_bits, 256);
        assert_eq!(leak.entries, 20 * 9);
        assert_eq!(leak.prime_bits, 128);
        // Two databases with the same shape leak identically even with
        // completely different values — the simulator argument.
        let mut o2 = DataOwner::new(SlicerConfig::test_8bit(), 78);
        let db2: Vec<(RecordId, u64)> = (0..20)
            .map(|i| (RecordId::from_u64(i + 500), (i * 7 + 1) % 256))
            .collect();
        let out2 = o2.build(&db2).unwrap();
        let leak2 = BuildLeakage::of(&out2).unwrap();
        assert_eq!(leak.label_bits, leak2.label_bits);
        assert_eq!(leak.value_bits, leak2.value_bits);
        assert_eq!(leak.entries, leak2.entries);
    }

    #[test]
    fn insert_leakage_reveals_only_delta_shape() {
        let mut o = owner_with(10);
        let out = o.insert(&[(RecordId::from_u64(100), 3)]).unwrap();
        let leak = BuildLeakage::of(&out).unwrap();
        // One record touches 1 + b keywords: one entry each.
        assert_eq!(leak.entries, 9);
        assert_eq!(leak.primes, 9);
    }

    #[test]
    fn ragged_shipment_is_rejected() {
        let mut o = owner_with(5);
        let mut out = o.insert(&[(RecordId::from_u64(50), 7)]).unwrap();
        // Truncate one encrypted value: the shipment no longer has one
        // uniform ⟨|l|, |d|⟩ shape.
        out.entries[1].1.pop();
        let err = BuildLeakage::of(&out).unwrap_err();
        assert_eq!(err.index, 1);
        assert!(err.detail.contains("value"), "{err}");
    }

    #[test]
    fn repeat_matrix_identifies_identical_queries() {
        let o = owner_with(30);
        let t1 = o.search_tokens(&Query::equal(3)).unwrap();
        let t2 = o.search_tokens(&Query::equal(6)).unwrap();
        let t3 = o.search_tokens(&Query::equal(3)).unwrap(); // repeat of t1
        let history: Vec<SearchToken> = t1.iter().chain(&t2).chain(&t3).cloned().collect();
        let leak = RepeatLeakage::of(&history);
        assert!(leak.matrix[0][2], "same query repeats");
        assert!(!leak.matrix[0][1], "different values differ");
        assert_eq!(leak.distinct(), 2);
    }

    #[test]
    fn repeat_matrix_changes_after_insert() {
        // Forward security in L^repeat terms: after an insert touches a
        // keyword, its fresh token no longer matches the old one.
        let mut o = owner_with(30);
        let before = o.search_tokens(&Query::equal(3)).unwrap();
        o.insert(&[(RecordId::from_u64(999), 3)]).unwrap();
        let after = o.search_tokens(&Query::equal(3)).unwrap();
        let history: Vec<SearchToken> = before.iter().chain(&after).cloned().collect();
        let leak = RepeatLeakage::of(&history);
        assert!(!leak.matrix[0][1], "trapdoor rotation breaks linkage");
    }
}
