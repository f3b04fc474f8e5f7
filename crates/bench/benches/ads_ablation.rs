//! Ablation: accumulator witness strategies (direct vs batched vs
//! root-factor) and accumulation itself — the design choice behind
//! Fig. 5b/5d's VO-generation curves — plus the one-time cost of the
//! generator table behind the batched complement fold.

use slicer_accumulator::{hash_to_prime, witness, Accumulator, RsaParams};
use slicer_bignum::{BigUint, FixedBase, MontgomeryCtx};
use slicer_testkit::bench::{black_box, Bench};

fn primes(n: u32) -> Vec<BigUint> {
    (0..n)
        .map(|i| hash_to_prime(&i.to_be_bytes(), 128).expect("width ok"))
        .collect()
}

fn main() {
    let params = RsaParams::fixed_512();
    let mut group = Bench::new("ads_ablation");

    for q in [200u32, 800] {
        let ps = primes(q);
        group.run(&format!("accumulate/{q}"), || {
            black_box(Accumulator::over(&params, &ps));
        });
        group.run(&format!("witness_direct_x1/{q}"), || {
            black_box(witness::membership_witness(&params, &ps, 0).expect("in range"));
        });
        // 16 slices of an order query: direct does 16 full folds, batched
        // shares the complement fold.
        let targets: Vec<usize> = (0..16).map(|i| i * (q as usize / 16)).collect();
        group.run(&format!("witness_direct_x16/{q}"), || {
            black_box(
                targets
                    .iter()
                    .map(|&t| witness::membership_witness(&params, &ps, t).expect("in range"))
                    .collect::<Vec<_>>(),
            );
        });
        group.run(&format!("witness_batched_x16/{q}"), || {
            black_box(witness::witness_batch(&params, &ps, &targets).expect("valid targets"));
        });
        group.run(&format!("root_factor_all/{q}"), || {
            black_box(witness::root_factor(&params, params.generator(), &ps));
        });
        // Verification (the contract-side cost): constant regardless of q.
        let acc = Accumulator::over(&params, &ps);
        let w = witness::membership_witness(&params, &ps, 0).expect("in range");
        group.run(&format!("verify/{q}"), || {
            assert!(witness::verify_membership(&params, &ps[0], &w, acc.value()));
        });
    }

    // The batched complement fold raises g over a table of g^(2^(128 i)),
    // one entry per 128-bit digit of the complement product (≈ one per
    // prime). The first witness of a deployment (after boot or restore)
    // builds it — `cold` includes that, `warm` is every later query.
    for q in [800u32, 8000] {
        let ps = primes(q);
        let targets: Vec<usize> = (0..16).map(|i| i * (q as usize / 16)).collect();
        let ctx = MontgomeryCtx::new(params.modulus()).expect("odd modulus");
        let digits = FixedBase::digits_for(&BigUint::product(&ps));
        group.run_batched(
            &format!("generator_table_build/{q}"),
            || FixedBase::new(params.generator()),
            |mut table| {
                table.extend_to(&ctx, digits);
                black_box(&table);
            },
        );
        group.run_batched(
            &format!("witness_batched_x16_cold/{q}"),
            RsaParams::fixed_512,
            |cold| {
                black_box(witness::witness_batch(&cold, &ps, &targets).expect("valid targets"));
            },
        );
        let warm = RsaParams::fixed_512();
        witness::witness_batch(&warm, &ps, &targets).expect("valid targets");
        group.run(&format!("witness_batched_x16_warm/{q}"), || {
            black_box(witness::witness_batch(&warm, &ps, &targets).expect("valid targets"));
        });
    }
}
