//! Query values outside the configured `b`-bit domain are rejected with
//! `ValueOutOfDomain` before any token or chain transaction exists. SORE
//! tuples of such a value name prefixes no record has, so letting one
//! through answers `lt 300` with nothing and `gt 300` with the wrong
//! slice — and the contract would verify (and pay for) either answer.

use slicer_core::{DualSlicer, Query, RecordId, SlicerConfig, SlicerError, SlicerSystem};

const RECORDS: [(u64, u64); 3] = [(1, 10), (2, 20), (3, 200)];

fn records() -> Vec<(RecordId, u64)> {
    RECORDS
        .iter()
        .map(|&(id, v)| (RecordId::from_u64(id), v))
        .collect()
}

fn out_of_domain() -> Vec<Query> {
    let mut queries = Vec::new();
    for v in [256, 300, u64::MAX] {
        queries.extend([Query::equal(v), Query::less_than(v), Query::greater_than(v)]);
    }
    queries
}

fn is_out_of_domain(result: Result<impl std::fmt::Debug, SlicerError>, value: u64) -> bool {
    matches!(result, Err(SlicerError::ValueOutOfDomain { value: v, bits: 8 }) if v == value)
}

#[test]
fn system_rejects_out_of_domain_queries_before_any_transaction() {
    let mut sys = SlicerSystem::setup(SlicerConfig::test_8bit(), 31);
    sys.build(&records()).unwrap();
    let (_, user, cloud) = sys.instance().addresses();
    let height = sys.chain().height();
    let balances = (sys.chain().balance(&user), sys.chain().balance(&cloud));
    for q in out_of_domain() {
        assert!(is_out_of_domain(sys.search(&q, 100), q.value), "{q:?}");
    }
    assert_eq!(sys.chain().height(), height, "no transaction was sent");
    assert_eq!(
        (sys.chain().balance(&user), sys.chain().balance(&cloud)),
        balances
    );

    // The top of the domain still answers correctly.
    let all = sys.search(&Query::less_than(255), 100).unwrap();
    assert!(all.verified);
    assert_eq!(all.records.len(), RECORDS.len());
    let none = sys.search(&Query::greater_than(255), 100).unwrap();
    assert!(none.verified && none.records.is_empty());
}

#[test]
fn dual_rejects_out_of_domain_queries_before_any_transaction() {
    let mut dual = DualSlicer::setup(SlicerConfig::test_8bit(), 32);
    dual.insert(&records()).unwrap();
    dual.delete(RecordId::from_u64(2)).unwrap();
    let height = dual.chain().height();
    for q in out_of_domain() {
        assert!(is_out_of_domain(dual.search(&q, 100), q.value), "{q:?}");
    }
    assert_eq!(dual.chain().height(), height, "no transaction was sent");
    let out = dual.search(&Query::less_than(255), 100).unwrap();
    assert_eq!(
        out.records,
        vec![RecordId::from_u64(1), RecordId::from_u64(3)]
    );
}

#[test]
fn owner_search_tokens_reject_out_of_domain_values() {
    let mut sys = SlicerSystem::setup(SlicerConfig::test_8bit(), 33);
    sys.build(&records()).unwrap();
    let owner = &sys.instance().owner;
    for q in out_of_domain() {
        assert!(is_out_of_domain(owner.search_tokens(&q), q.value), "{q:?}");
    }
    assert!(!owner
        .search_tokens(&Query::less_than(255))
        .unwrap()
        .is_empty());
}
