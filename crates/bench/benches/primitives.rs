//! Micro-benchmark: substrate throughput — the from-scratch crypto and
//! bignum primitives every protocol operation sits on, plus SORE
//! encryption, token generation and comparison.

use slicer_bignum::BigUint;
use slicer_crypto::aes::Aes128;
use slicer_crypto::{hmac_sha256, sha256};
use slicer_mshash::MsetHash;
use slicer_sore::{Order, SoreScheme};
use slicer_testkit::bench::{black_box, Bench};

fn main() {
    let mut group = Bench::new("primitives");

    let data_1k = vec![0xABu8; 1024];
    group.run_throughput("sha256/1KiB", 1024, || {
        black_box(sha256(&data_1k));
    });
    group.run_throughput("hmac_sha256/1KiB", 1024, || {
        black_box(hmac_sha256(b"key", &data_1k));
    });
    let cipher = Aes128::new(&[7u8; 16]);
    let mut buf = data_1k.clone();
    group.run_throughput("aes128_ctr/1KiB", 1024, || {
        cipher.ctr_xor(&[1u8; 16], &mut buf);
        black_box(buf[0]);
    });

    let mut group = Bench::new("bignum");
    let n512 = slicer_accumulator::RsaParams::fixed_512();
    let base = BigUint::from(123_456_789u64);
    let exp128 = BigUint::from_hex("ffffffffffffffffffffffffffffffff").expect("hex");
    group.run("modpow_512_e128", || {
        black_box(n512.powmod(&base, &exp128));
    });
    let a = &BigUint::one() << 2048;
    let bb = &(&BigUint::one() << 2047) + &BigUint::from(12345u64);
    group.run("mul_2048x2048", || {
        black_box(&a * &bb);
    });
    let big = &a * &a;
    group.run("div_4096_by_2048", || {
        black_box(big.div_rem(&bb));
    });

    let mut group = Bench::new("mshash");
    let mut h = MsetHash::empty();
    group.run("insert", || {
        h.insert(b"a 32-byte encrypted record id...");
    });

    let mut group = Bench::new("sore");
    let sore = SoreScheme::new(b"key", 16).expect("valid width");
    let mut rng = slicer_crypto::HmacDrbg::from_u64(1);
    group.run("encrypt", || {
        black_box(sore.encrypt(12_345, &mut rng).expect("in domain"));
    });
    group.run("token", || {
        black_box(
            sore.token(12_345, Order::Greater, &mut rng)
                .expect("in domain"),
        );
    });
    let ct = sore.encrypt(10_000, &mut rng).expect("in domain");
    let tk = sore
        .token(20_000, Order::Greater, &mut rng)
        .expect("in domain");
    group.run("compare", || {
        black_box(SoreScheme::compare(&ct, &tk));
    });
}
