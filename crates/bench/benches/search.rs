//! Micro-benchmark behind Fig. 5 / Fig. 6: equality vs order search,
//! result generation vs VO generation.

use slicer_core::{CloudServer, DataOwner, Query, RecordId, SlicerConfig, WitnessStrategy};
use slicer_testkit::bench::{black_box, Bench};
use slicer_workload::DatasetSpec;

fn setup(n: usize, bits: u8) -> (DataOwner, CloudServer, u64) {
    let db: Vec<(RecordId, u64)> = DatasetSpec::uniform(n, bits, 1)
        .generate()
        .into_iter()
        .map(|(id, v)| (RecordId(id), v))
        .collect();
    let probe = db[n / 2].1;
    let mut owner = DataOwner::new(SlicerConfig::with_bits(bits), 1);
    let out = owner.build(&db).expect("in-domain");
    let mut cloud = CloudServer::new(
        owner.config().clone(),
        owner.keys().trapdoor().public().clone(),
    );
    cloud.ingest(&out).expect("fresh cloud");
    (owner, cloud, probe)
}

fn main() {
    let mut group = Bench::new("search");
    for bits in [8u8, 16] {
        let (owner, mut cloud, probe) = setup(2_000, bits);

        let eq_tokens = owner
            .search_tokens(&Query::equal(probe))
            .expect("query in domain");
        group.run(&format!("equality/results/{bits}"), || {
            black_box(cloud.search(&eq_tokens));
        });
        let eq_results = cloud.search(&eq_tokens);
        group.run(&format!("equality/vo/{bits}"), || {
            black_box(cloud.prove(&eq_results).expect("bench state is honest"));
        });

        let ord_tokens = owner
            .search_tokens(&Query::less_than(probe))
            .expect("query in domain");
        group.run(&format!("order/results/{bits}"), || {
            black_box(cloud.search(&ord_tokens));
        });
        let ord_results = cloud.search(&ord_tokens);
        cloud.set_strategy(WitnessStrategy::Batched);
        group.run(&format!("order/vo_batched/{bits}"), || {
            black_box(cloud.prove(&ord_results).expect("bench state is honest"));
        });
    }
}
