//! Per-primitive crypto replay and modular-arithmetic calibration.
//!
//! The replay rebuilds one trial's auctions at the workload's shape from
//! honest inputs made with the public crypto API, and times the same
//! public calls the protocol phases make, counting the modular
//! multiplications each call performs. How often a trial makes each
//! call follows from the protocol's structure ([`calls_per_trial`]), so
//! `calls × muls per call`, summed over primitives, attributes the
//! trial's measured multiplications to primitives.
//!
//! Primitives whose cost depends on the prices (degree resolution,
//! winner identification) are replayed once per task and price, on the
//! trial's own bids, so their attributed count is exact. Share and
//! `Λ/Ψ` verification, identical in cost for every verifier, are replayed
//! for a sample of [`SAMPLE_VERIFIERS`] verifiers.

use crate::workload::{Kind, Setup};
use dmw_crypto::commitments::verify_shares;
use dmw_crypto::resolution::{
    compute_lambda_psi, exclude_winner, identify_winner, resolve_min_bid, verify_f_disclosure,
    verify_lambda_psi, LambdaPsi,
};
use dmw_crypto::{BidPolynomials, Commitments, ShareBundle};
use dmw_mechanism::{AgentId, TaskId};
use dmw_modmath::{arith, ops, SchnorrGroup};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Verifiers (and publishers) replayed per task for the per-verifier
/// checks.
pub const SAMPLE_VERIFIERS: usize = 4;

/// The replayed primitives, in protocol order.
pub const PRIMITIVES: [&str; 9] = [
    "commit",
    "share_for",
    "verify_shares",
    "compute_lambda_psi",
    "verify_lambda_psi",
    "resolve_min_bid",
    "verify_f_disclosure",
    "identify_winner",
    "exclude_winner",
];

const COMMIT: usize = 0;
const SHARE_FOR: usize = 1;
const VERIFY_SHARES: usize = 2;
const COMPUTE_LAMBDA_PSI: usize = 3;
const VERIFY_LAMBDA_PSI: usize = 4;
const RESOLVE_MIN_BID: usize = 5;
const VERIFY_F_DISCLOSURE: usize = 6;
const IDENTIFY_WINNER: usize = 7;
const EXCLUDE_WINNER: usize = 8;

/// What the replay measured for one primitive.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Primitive {
    /// Calls replayed.
    pub replayed: u64,
    /// Modular multiplications over the replayed calls.
    pub mul: u64,
    /// Wall nanoseconds over the replayed calls.
    pub ns: u64,
    /// Calls one trial of the workload makes.
    pub calls_per_trial: u64,
}

impl Primitive {
    /// Mean multiplications per call (0 when never replayed).
    pub fn mul_per_call(&self) -> f64 {
        ratio(self.mul as f64, self.replayed as f64)
    }

    /// Mean microseconds per call (0 when never replayed).
    pub fn us_per_call(&self) -> f64 {
        ratio(self.ns as f64, self.replayed as f64) / 1e3
    }

    /// Multiplications this primitive accounts for in one trial.
    pub fn mul_per_trial(&self) -> f64 {
        self.calls_per_trial as f64 * self.mul_per_call()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[derive(Default)]
struct Meter {
    prims: [Primitive; PRIMITIVES.len()],
}

impl Meter {
    fn time<R>(&mut self, which: usize, f: impl FnOnce() -> R) -> R {
        let before = ops::current_ops();
        let start = Instant::now();
        let out = black_box(f());
        let ns = start.elapsed().as_nanos();
        let done = ops::current_ops().since(&before);
        let prim = &mut self.prims[which];
        prim.replayed += 1;
        prim.mul += done.mul;
        prim.ns += u64::try_from(ns).unwrap_or(u64::MAX);
        out
    }
}

/// Replays trial 0 of `setup` and returns one [`Primitive`] per entry of
/// [`PRIMITIVES`].
///
/// # Panics
///
/// Panics if an honest input fails to verify or resolve — a broken
/// crypto layer, which the benchmark must not time.
pub fn replay(setup: &Setup) -> [Primitive; PRIMITIVES.len()] {
    let config = setup.runner.config();
    let group = *config.group();
    let encoding = *config.encoding();
    let zq = group.zq();
    let n = config.agents();
    let c = encoding.faults();
    let alphas = config.pseudonyms();
    let trial = &setup.trials[0];
    let m = trial.bids.tasks();
    let sample = SAMPLE_VERIFIERS.min(n - 1);
    // Every publisher is checked by this many rotation verifiers.
    let verifiers = (c + 1).min(n - 1) as u64;
    let mut rng = StdRng::seed_from_u64(trial.seed);
    let mut meter = Meter::default();
    let mut disclosures_per_trial = 0u64;

    for task in 0..m {
        let polys: Vec<BidPolynomials> = (0..n)
            .map(|i| {
                let bid = trial.bids.time(AgentId(i), TaskId(task));
                BidPolynomials::generate(&group, &encoding, bid, &mut rng)
                    .expect("workload bids lie in W")
            })
            .collect();
        let commitments: Vec<Commitments> = polys
            .iter()
            .map(|p| meter.time(COMMIT, || Commitments::commit(&group, &encoding, p)))
            .collect();
        // shares[l][k]: agent l's bundle for the agent with pseudonym k.
        let shares: Vec<Vec<ShareBundle>> = polys
            .iter()
            .map(|p| {
                alphas
                    .iter()
                    .map(|&a| meter.time(SHARE_FOR, || p.share_for(&zq, a)))
                    .collect()
            })
            .collect();
        for (v, &alpha) in alphas.iter().enumerate().take(sample) {
            for (l, from) in shares.iter().enumerate() {
                if l != v {
                    meter
                        .time(VERIFY_SHARES, || {
                            verify_shares(&group, &commitments[l], alpha, &from[v])
                        })
                        .expect("honest shares verify");
                }
            }
        }
        let pairs: Vec<LambdaPsi> = (0..n)
            .map(|k| {
                let e: Vec<u64> = shares.iter().map(|s| s[k].e).collect();
                let h: Vec<u64> = shares.iter().map(|s| s[k].h).collect();
                meter.time(COMPUTE_LAMBDA_PSI, || compute_lambda_psi(&group, &e, &h))
            })
            .collect();
        for (l, pair) in pairs.iter().enumerate().take(sample) {
            meter
                .time(VERIFY_LAMBDA_PSI, || {
                    verify_lambda_psi(&group, &commitments, l, alphas[l], pair, None)
                })
                .expect("honest pairs verify");
        }
        let lambdas: Vec<u64> = pairs.iter().map(|p| p.lambda).collect();
        let first = meter
            .time(RESOLVE_MIN_BID, || {
                resolve_min_bid(&group, &encoding, alphas, &lambdas)
            })
            .expect("honest first price resolves");
        let needed = encoding.winner_points(first.bid);
        let disclosers = (needed + c).min(n);
        disclosures_per_trial += disclosers as u64 * verifiers;
        for k in 0..sample.min(disclosers) {
            let f: Vec<u64> = shares.iter().map(|s| s[k].f).collect();
            meter
                .time(VERIFY_F_DISCLOSURE, || {
                    verify_f_disclosure(&group, &commitments, k, alphas[k], &f, pairs[k].psi)
                })
                .expect("honest disclosures verify");
        }
        let f_columns: Vec<Vec<u64>> = shares
            .iter()
            .map(|s| s.iter().take(needed).map(|b| b.f).collect())
            .collect();
        let winner = meter
            .time(IDENTIFY_WINNER, || {
                identify_winner(&group, &encoding, first.bid, &alphas[..needed], &f_columns)
            })
            .expect("honest winner identifies");
        let excluded: Vec<LambdaPsi> = pairs
            .iter()
            .zip(&shares[winner])
            .map(|(pair, held)| {
                meter
                    .time(EXCLUDE_WINNER, || {
                        exclude_winner(&group, pair, held.e, held.h)
                    })
                    .expect("honest pairs divide")
            })
            .collect();
        for (l, pair) in excluded.iter().enumerate().take(sample) {
            meter
                .time(VERIFY_LAMBDA_PSI, || {
                    verify_lambda_psi(&group, &commitments, l, alphas[l], pair, Some(winner))
                })
                .expect("honest excluded pairs verify");
        }
        let lambdas: Vec<u64> = excluded.iter().map(|p| p.lambda).collect();
        meter
            .time(RESOLVE_MIN_BID, || {
                resolve_min_bid(&group, &encoding, alphas, &lambdas)
            })
            .expect("honest second price resolves");
    }

    let mut prims = meter.prims;
    for (which, calls) in calls_per_trial(setup.shape.kind, n, m, verifiers, disclosures_per_trial)
        .into_iter()
        .enumerate()
    {
        prims[which].calls_per_trial = calls;
    }
    prims
}

/// How many times one trial calls each primitive, from the protocol's
/// structure: every agent commits and deals shares for every task; with
/// bids delivered, every agent verifies its `n − 1` received bundles,
/// publishes and checks `Λ/Ψ` pairs under rotation (each publisher has
/// `verifiers` checkers, before and after winner exclusion), resolves
/// both prices, identifies the winner and excludes it. A blackout trial
/// stops after bidding. `disclosures` is the per-trial count of rotation
/// checks on disclosed `f`-shares, which depends on the first prices.
pub fn calls_per_trial(
    kind: Kind,
    n: usize,
    m: usize,
    verifiers: u64,
    disclosures: u64,
) -> [u64; PRIMITIVES.len()] {
    let (n, m) = (n as u64, m as u64);
    let bidding = [n * m, n * n * m];
    match kind {
        Kind::Blackout => [bidding[0], bidding[1], 0, 0, 0, 0, 0, 0, 0],
        Kind::Auction | Kind::Chaos => [
            bidding[0],
            bidding[1],
            n * (n - 1) * m,
            n * m,
            2 * n * verifiers * m,
            2 * n * m,
            disclosures,
            n * m,
            n * m,
        ],
    }
}

/// Nanoseconds per `mul_mod` and per `pow_mod` (with an exponent below
/// the subgroup order `q`) on `group`'s modulus, each the median of five
/// timed loops.
pub fn calibrate(group: &SchnorrGroup, seed: u64) -> (f64, f64) {
    const MULS: u32 = 1 << 20;
    const POWS: usize = 1 << 12;
    let p = group.p();
    let mut rng = StdRng::seed_from_u64(seed);
    let exps: Vec<u64> = (0..POWS).map(|_| rng.gen_range(1..group.q())).collect();
    let mut mul_ns = Vec::new();
    let mut pow_ns = Vec::new();
    for _ in 0..5 {
        let mut acc = group.z1();
        let b = black_box(group.z2());
        let start = Instant::now();
        for _ in 0..MULS {
            acc = arith::mul_mod(acc, b, p);
        }
        black_box(acc);
        mul_ns.push(start.elapsed().as_nanos() as f64 / f64::from(MULS));

        let start = Instant::now();
        for &e in &exps {
            black_box(arith::pow_mod(black_box(group.z1()), e, p));
        }
        pow_ns.push(start.elapsed().as_nanos() as f64 / POWS as f64);
    }
    (crate::stats::median(&mul_ns), crate::stats::median(&pow_ns))
}
