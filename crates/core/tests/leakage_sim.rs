//! Simulation-flavoured leakage tests (Theorem 2's claim, observably):
//! transcripts of same-*shape* databases are indistinguishable in every
//! quantity the leakage functions expose, regardless of content.

use slicer_core::leakage::{BuildLeakage, RepeatLeakage, SearchLeakage};
use slicer_core::{CloudServer, DataOwner, Query, RecordId, SlicerConfig};

fn build(values: &[u64], seed: u64) -> (DataOwner, CloudServer, BuildLeakage) {
    let db: Vec<(RecordId, u64)> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| (RecordId::from_u64(i as u64), v))
        .collect();
    let mut owner = DataOwner::new(SlicerConfig::test_8bit(), seed);
    let out = owner.build(&db).unwrap();
    let leak = BuildLeakage::of(&out).expect("build shipments are uniform");
    let mut cloud = CloudServer::new(
        owner.config().clone(),
        owner.keys().trapdoor().public().clone(),
    );
    cloud.ingest(&out).unwrap();
    (owner, cloud, leak)
}

#[test]
fn same_shape_databases_have_identical_build_leakage() {
    // Databases with the same value-multiplicity *shape* but disjoint
    // contents: 10 distinct values × 3 copies each.
    let a: Vec<u64> = (0..10u64).flat_map(|v| [v; 3]).collect();
    let b: Vec<u64> = (0..10u64).flat_map(|v| [v + 100; 3]).collect();
    let (_, _, leak_a) = build(&a, 1);
    let (_, _, leak_b) = build(&b, 2);
    assert_eq!(leak_a.entries, leak_b.entries);
    assert_eq!(leak_a.label_bits, leak_b.label_bits);
    assert_eq!(leak_a.value_bits, leak_b.value_bits);
    assert_eq!(leak_a.prime_bits, leak_b.prime_bits);
    // Prime counts depend only on distinct-keyword counts, which depend
    // only on the set of values' slice structure — same here by shift.
    // (Shifting by 100 changes prefixes, so prime counts may differ by a
    // few; the *size* fields above are the L^build payload.)
}

#[test]
fn search_leakage_is_access_pattern_only() {
    let values: Vec<u64> = (0..30).map(|i| (i * 7) % 256).collect();
    let (owner, cloud, _) = build(&values, 3);
    let q = Query::less_than(100);
    let tokens = owner.search_tokens(&q).unwrap();
    let results = cloud.search(&tokens);
    let leak = SearchLeakage::of(&results);
    // The profile records (j, hits) per token — nothing value-shaped.
    assert_eq!(leak.tokens.len(), tokens.len());
    let total: usize = leak.tokens.iter().map(|(_, n)| n).sum();
    let expected = values.iter().filter(|&&v| v < 100).count();
    assert_eq!(total, expected);
    assert!(leak.tokens.iter().all(|&(j, _)| j == 0), "no inserts yet");
}

#[test]
fn equality_queries_on_same_count_values_leak_identically() {
    // Two values with the same occurrence count: their search transcripts
    // have identical leakage profiles (the server cannot tell which value
    // was searched).
    let values: Vec<u64> = vec![5, 5, 5, 9, 9, 9, 1];
    let (owner, cloud, _) = build(&values, 4);
    let l5 = SearchLeakage::of(&cloud.search(&owner.search_tokens(&Query::equal(5)).unwrap()));
    let l9 = SearchLeakage::of(&cloud.search(&owner.search_tokens(&Query::equal(9)).unwrap()));
    assert_eq!(l5, l9, "same-count values are indistinguishable");
    let l1 = SearchLeakage::of(&cloud.search(&owner.search_tokens(&Query::equal(1)).unwrap()));
    assert_ne!(l5, l1, "different counts differ (that IS the leakage)");
}

#[test]
fn repeat_leakage_tracks_only_identity() {
    let values: Vec<u64> = (0..20).collect();
    let (owner, _, _) = build(&values, 5);
    let mut history = Vec::new();
    history.extend(owner.search_tokens(&Query::equal(3)).unwrap());
    history.extend(owner.search_tokens(&Query::equal(4)).unwrap());
    history.extend(owner.search_tokens(&Query::equal(3)).unwrap());
    history.extend(owner.search_tokens(&Query::equal(3)).unwrap());
    let m = RepeatLeakage::of(&history);
    assert_eq!(m.distinct(), 2);
    // Identity classes: {0, 2, 3} and {1}.
    assert!(m.matrix[0][2] && m.matrix[2][3] && m.matrix[0][3]);
    assert!(!m.matrix[0][1] && !m.matrix[1][2]);
}

#[test]
fn insert_then_search_changes_access_pattern_not_shape() {
    let values: Vec<u64> = vec![42; 5];
    let (mut owner, mut cloud, _) = build(&values, 6);
    let before = SearchLeakage::of(&cloud.search(&owner.search_tokens(&Query::equal(42)).unwrap()));
    assert_eq!(before.tokens[0], (0, 5));
    let out = owner.insert(&[(RecordId::from_u64(100), 42)]).unwrap();
    cloud.ingest(&out).unwrap();
    let after = SearchLeakage::of(&cloud.search(&owner.search_tokens(&Query::equal(42)).unwrap()));
    // Generation count ticked, hit count grew — exactly the L^search story.
    assert_eq!(after.tokens[0], (1, 6));
}
