//! Criterion micro-benchmarks for the cryptographic primitives behind
//! Table 1: share generation, commitment computation, share verification
//! (equations (7)–(9)), the published `Λ`/`Ψ` check (equation (11)) and
//! degree resolution (equation (12)), plus the Montgomery kernels at the
//! sizes that dominate the benchmark workloads: `share_for` and `commit`
//! at n = 128, and a σ = 32 multi-exponentiation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmw_crypto::commitments::{verify_shares, Commitments};
use dmw_crypto::polynomials::BidPolynomials;
use dmw_crypto::resolution::{compute_lambda_psi, resolve_min_bid, verify_lambda_psi};
use dmw_crypto::BidEncoding;
use dmw_modmath::{lagrange, multiexp, Poly, SchnorrGroup};
use rand::SeedableRng;

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(777)
}

fn bench_polynomials(c: &mut Criterion) {
    let mut group = c.benchmark_group("polynomials");
    let field = dmw_modmath::PrimeField::new(0x7FFF_FFFF_FFFF_FFE7).unwrap();
    for degree in [8usize, 32, 128] {
        let mut r = rng();
        let poly = Poly::random_zero_constant(&field, degree, &mut r);
        group.bench_with_input(BenchmarkId::new("eval_horner", degree), &degree, |b, _| {
            b.iter(|| poly.eval(&field, 123_456_789))
        });
        let shares: Vec<(u64, u64)> = (1..=degree as u64 + 1)
            .map(|a| (a, poly.eval(&field, a)))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("interpolate_at_zero", degree),
            &degree,
            |b, _| b.iter(|| lagrange::interpolate_at_zero(&field, &shares).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("resolve_zero_degree", degree),
            &degree,
            |b, _| b.iter(|| lagrange::resolve_zero_degree(&field, &shares)),
        );
    }
    group.finish();
}

fn bench_protocol_primitives(c: &mut Criterion) {
    let mut bench = c.benchmark_group("protocol-primitives");
    for n in [4usize, 8, 16, 32] {
        let mut r = rng();
        let group = SchnorrGroup::generate(48, 24, &mut r).unwrap();
        let encoding = BidEncoding::new(n, 1).unwrap();
        let zq = group.zq();
        let alphas = zq.rand_distinct_nonzero(n, &mut r);
        let bid = 1u64;
        bench.bench_with_input(BenchmarkId::new("bid_polynomials", n), &n, |b, _| {
            b.iter(|| BidPolynomials::generate(&group, &encoding, bid, &mut r).unwrap())
        });
        let polys = BidPolynomials::generate(&group, &encoding, bid, &mut r).unwrap();
        bench.bench_with_input(BenchmarkId::new("commitments", n), &n, |b, _| {
            b.iter(|| Commitments::commit(&group, &encoding, &polys))
        });
        let commitments = Commitments::commit(&group, &encoding, &polys);
        let bundle = polys.share_for(&zq, alphas[0]);
        bench.bench_with_input(BenchmarkId::new("verify_shares", n), &n, |b, _| {
            b.iter(|| verify_shares(&group, &commitments, alphas[0], &bundle).unwrap())
        });
        // Equation (11) and degree resolution over n published pairs.
        let all: Vec<BidPolynomials> = (0..n)
            .map(|i| {
                let b = 1 + (i as u64 % encoding.w_max());
                BidPolynomials::generate(&group, &encoding, b, &mut r).unwrap()
            })
            .collect();
        let all_commitments: Vec<Commitments> = all
            .iter()
            .map(|p| Commitments::commit(&group, &encoding, p))
            .collect();
        let pairs: Vec<_> = alphas
            .iter()
            .map(|&a| {
                let e: Vec<u64> = all.iter().map(|p| p.e().eval(&zq, a)).collect();
                let h: Vec<u64> = all.iter().map(|p| p.h().eval(&zq, a)).collect();
                compute_lambda_psi(&group, &e, &h)
            })
            .collect();
        bench.bench_with_input(BenchmarkId::new("verify_lambda_psi", n), &n, |b, _| {
            b.iter(|| {
                verify_lambda_psi(&group, &all_commitments, 0, alphas[0], &pairs[0], None).unwrap()
            })
        });
        let lambdas: Vec<u64> = pairs.iter().map(|p| p.lambda).collect();
        bench.bench_with_input(BenchmarkId::new("resolve_min_bid", n), &n, |b, _| {
            b.iter(|| resolve_min_bid(&group, &encoding, &alphas, &lambdas).unwrap())
        });
    }
    bench.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let mut bench = c.benchmark_group("kernels");
    let mut r = rng();
    let group = SchnorrGroup::generate(48, 24, &mut r).unwrap();
    let zq = group.zq();
    let n = 128usize;
    let encoding = BidEncoding::new(n, 1).unwrap();
    let polys = BidPolynomials::generate(&group, &encoding, 1, &mut r).unwrap();
    let alpha = zq.rand_nonzero(&mut r);
    bench.bench_with_input(BenchmarkId::new("share_for", n), &n, |b, _| {
        b.iter(|| polys.share_for(&zq, alpha))
    });
    bench.bench_with_input(BenchmarkId::new("commit", n), &n, |b, _| {
        b.iter(|| Commitments::commit(&group, &encoding, &polys))
    });
    let (ea, eb) = (zq.rand_element(&mut r), zq.rand_element(&mut r));
    bench.bench_function("group_commit", |b| b.iter(|| group.commit(ea, eb)));
    let sigma = 32usize;
    let zp = group.zp();
    let bases: Vec<u64> = (0..sigma).map(|_| zp.rand_nonzero(&mut r)).collect();
    let exps: Vec<u64> = (0..sigma).map(|_| zq.rand_element(&mut r)).collect();
    bench.bench_with_input(BenchmarkId::new("multi_pow", sigma), &sigma, |b, _| {
        b.iter(|| multiexp::multi_pow(&zp, &bases, &exps))
    });
    bench.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_polynomials, bench_protocol_primitives, bench_kernels
}
criterion_main!(benches);
