//! Pedersen commitment vectors and share verification — Phase II.3 and
//! Phase III.1 of the protocol (equations (6)–(9)).
//!
//! An agent publishes three commitment vectors of length `σ`:
//!
//! * `O_ℓ = z1^{v_ℓ} · z2^{c_ℓ}` — to the coefficients `v` of the product
//!   `e·f`, blinded by `g`'s coefficients `c`;
//! * `Q_ℓ = z1^{a_ℓ} · z2^{d_ℓ}` — to `e`'s coefficients `a`, blinded by
//!   `h`'s coefficients `d` (entries beyond `τ` have `a_ℓ = 0`, which is
//!   invisible thanks to Pedersen hiding — the bid does not leak);
//! * `R_ℓ = z1^{b_ℓ} · z2^{d_ℓ}` — to `f`'s coefficients `b`, blinded by
//!   the same `d`.
//!
//! A receiver holding the share bundle `(e(α), f(α), g(α), h(α))` checks:
//!
//! * **(7)** `z1^{e(α)·f(α)} · z2^{g(α)} = Π_ℓ O_ℓ^{α^ℓ}` — binds the
//!   product structure and zero constant terms;
//! * **(8)** `z1^{e(α)} · z2^{h(α)} = Γ = Π_ℓ Q_ℓ^{α^ℓ}`;
//! * **(9)** `z1^{f(α)} · z2^{h(α)} = Φ = Π_ℓ R_ℓ^{α^ℓ}`.
//!
//! The right-hand sides `Γ` and `Φ` are computable by *anyone* from public
//! data; they are reused in equations (11) and (13) to validate later
//! protocol messages, which is why the paper computes (8) and (9) even
//! though (7) already binds the shares.

use crate::encoding::BidEncoding;
use crate::error::CryptoError;
use crate::polynomials::{BidPolynomials, ShareBundle};
use dmw_modmath::SchnorrGroup;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The published commitment triple `(O, Q, R)` of one agent for one task
/// (equation (6)). Each vector has exactly `σ` entries; entry `ℓ` (1-based
/// in the paper) is stored at index `ℓ − 1`.
///
/// A published value is one public value all `n` agents read, so the
/// triple lives behind one [`Arc`]: cloning it — per broadcast recipient,
/// per stored copy, per verification call — is a reference-count bump,
/// which keeps a run's commitment memory at `Θ(m·n·σ)` instead of
/// `Θ(m·n²·σ)`. Equality and hashing compare the vectors, never the
/// pointers.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Commitments {
    vectors: Arc<Vectors>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Vectors {
    o: Vec<u64>,
    q: Vec<u64>,
    r: Vec<u64>,
}

impl Commitments {
    /// Computes the commitments of `polys` (Phase II.3).
    pub fn commit(group: &SchnorrGroup, encoding: &BidEncoding, polys: &BidPolynomials) -> Self {
        let sigma = encoding.sigma();
        let zq = group.zq();
        let v = polys.ef_product(&zq);
        let mut o = Vec::with_capacity(sigma);
        let mut q = Vec::with_capacity(sigma);
        let mut r = Vec::with_capacity(sigma);
        for l in 1..=sigma {
            o.push(group.commit(v.coeff(l), polys.g().coeff(l)));
            q.push(group.commit(polys.e().coeff(l), polys.h().coeff(l)));
            r.push(group.commit(polys.f().coeff(l), polys.h().coeff(l)));
        }
        Self::from_vectors(o, q, r)
    }

    /// Builds a commitment triple from raw published vectors (e.g. received
    /// over the network).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::LengthMismatch`] unless all three vectors
    /// have exactly `σ` entries.
    pub fn from_parts(
        encoding: &BidEncoding,
        o: Vec<u64>,
        q: Vec<u64>,
        r: Vec<u64>,
    ) -> Result<Self, CryptoError> {
        let sigma = encoding.sigma();
        for (what, v) in [
            ("O commitment vector", &o),
            ("Q commitment vector", &q),
            ("R commitment vector", &r),
        ] {
            if v.len() != sigma {
                return Err(CryptoError::LengthMismatch {
                    what,
                    got: v.len(),
                    expected: sigma,
                });
            }
        }
        Ok(Self::from_vectors(o, q, r))
    }

    fn from_vectors(o: Vec<u64>, q: Vec<u64>, r: Vec<u64>) -> Self {
        Commitments {
            vectors: Arc::new(Vectors { o, q, r }),
        }
    }

    /// The `O` vector (commitments to `e·f`, blinded by `g`).
    pub fn o(&self) -> &[u64] {
        &self.vectors.o
    }

    /// The `Q` vector (commitments to `e`, blinded by `h`).
    pub fn q(&self) -> &[u64] {
        &self.vectors.q
    }

    /// The `R` vector (commitments to `f`, blinded by `h`).
    pub fn r(&self) -> &[u64] {
        &self.vectors.r
    }

    /// `true` when `self` and `other` are clones of one published value,
    /// sharing its storage (not merely equal vectors).
    pub fn shares_storage_with(&self, other: &Commitments) -> bool {
        Arc::ptr_eq(&self.vectors, &other.vectors)
    }

    /// Tampers with one `Q` entry (multiplies it by `z1`). Used by
    /// deviation strategies; an honest agent never calls this. The
    /// tampered triple is copied on write, so every other holder of the
    /// original keeps the honest vectors.
    pub fn with_tampered_q(mut self, group: &SchnorrGroup, index: usize) -> Self {
        if index < self.q().len() {
            let vectors = Arc::make_mut(&mut self.vectors);
            if let Some(entry) = vectors.q.get_mut(index) {
                *entry = group.zp().mul(*entry, group.z1());
            }
        }
        self
    }

    /// Evaluates a commitment vector "in the exponent" at pseudonym
    /// `alpha`: `Π_ℓ vec_ℓ^{α^ℓ} (mod p)` with `α^ℓ` reduced mod `q`. This
    /// is the right-hand side shape shared by equations (7)–(9) — the
    /// protocol's hottest operation, computed by simultaneous
    /// multi-exponentiation ([`dmw_modmath::multiexp`], ≈ 3× fewer
    /// multiplications than one ladder per entry).
    fn eval_vector(group: &SchnorrGroup, vec: &[u64], alpha: u64) -> u64 {
        let zp = group.zp();
        let zq = group.zq();
        let mut exps = Vec::with_capacity(vec.len());
        let mut alpha_pow = 1u64; // alpha^0; loop raises it to alpha^l.
        for _ in vec {
            alpha_pow = zq.mul(alpha_pow, alpha);
            exps.push(alpha_pow);
        }
        dmw_modmath::multiexp::multi_pow(&zp, vec, &exps)
    }

    /// Evaluates the product of several commitment vectors in the
    /// exponent, `Π_v Π_ℓ v_ℓ^{α^ℓ}` — the right-hand sides of equations
    /// (11) (the `Q` vectors) and (13) (the `R` vectors). Every vector
    /// shares the exponents `α^ℓ`, so the vectors are multiplied
    /// entry-wise first and the aggregate is exponentiated once:
    /// `Π_ℓ (Π_v v_ℓ)^{α^ℓ}` is the same group element for `≈ n·σ`
    /// multiplications plus one multi-exponentiation, instead of `n`
    /// multi-exponentiations.
    pub(crate) fn eval_product<'a>(
        group: &SchnorrGroup,
        vectors: impl IntoIterator<Item = &'a [u64]>,
        alpha: u64,
    ) -> u64 {
        let zp = group.zp();
        let mut aggregate: Vec<u64> = Vec::new();
        for vec in vectors {
            for (l, &entry) in vec.iter().enumerate() {
                match aggregate.get_mut(l) {
                    Some(acc) => *acc = zp.mul(*acc, entry),
                    None => aggregate.push(entry),
                }
            }
        }
        Self::eval_vector(group, &aggregate, alpha)
    }

    /// The public value `Γ = Π_ℓ Q_ℓ^{α^ℓ}` — equals
    /// `z1^{e(α)} · z2^{h(α)}` for honest commitments (equation (8)).
    pub fn gamma(&self, group: &SchnorrGroup, alpha: u64) -> u64 {
        Self::eval_vector(group, self.q(), alpha)
    }

    /// The public value `Φ = Π_ℓ R_ℓ^{α^ℓ}` — equals
    /// `z1^{f(α)} · z2^{h(α)}` for honest commitments (equation (9)).
    pub fn phi(&self, group: &SchnorrGroup, alpha: u64) -> u64 {
        Self::eval_vector(group, self.r(), alpha)
    }

    /// The public value `Π_ℓ O_ℓ^{α^ℓ}` — equals
    /// `z1^{e(α)·f(α)} · z2^{g(α)}` for honest commitments (equation (7)).
    pub fn omicron(&self, group: &SchnorrGroup, alpha: u64) -> u64 {
        Self::eval_vector(group, self.o(), alpha)
    }
}

/// Verifies a received share bundle against the sender's commitments —
/// Phase III.1, equations (7), (8) and (9), in that order.
///
/// Both the bundle and the commitments come from the wire, so their ranges
/// are checked before any arithmetic: a share must be a canonical element
/// of `Z_q` and a commitment entry a canonical element of `Z_p`. An
/// out-of-range value fails the first equation that reads it — (7) for
/// `O`, `e`, `f` and `g`, (8) for `Q` and `h`, (9) for `R`.
///
/// # Errors
///
/// Returns [`CryptoError::ShareVerificationFailed`] naming the first
/// equation that failed. An agent receiving this error aborts the protocol,
/// which is the detection mechanism behind Theorems 4 and 8.
///
/// # Example
/// ```
/// use dmw_crypto::{BidEncoding, BidPolynomials, Commitments, commitments::verify_shares};
/// use dmw_modmath::SchnorrGroup;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let group = SchnorrGroup::generate(40, 16, &mut rng)?;
/// let encoding = BidEncoding::new(5, 1)?;
/// let polys = BidPolynomials::generate(&group, &encoding, 2, &mut rng)?;
/// let commitments = Commitments::commit(&group, &encoding, &polys);
/// let alpha = 7;
/// let bundle = polys.share_for(&group.zq(), alpha);
/// assert!(verify_shares(&group, &commitments, alpha, &bundle).is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn verify_shares(
    group: &SchnorrGroup,
    commitments: &Commitments,
    alpha: u64,
    bundle: &ShareBundle,
) -> Result<(), CryptoError> {
    let zq = group.zq();
    let zp = group.zp();
    let shares_ok = |shares: &[u64]| shares.iter().all(|&v| zq.contains(v));
    let entries_ok = |entries: &[u64]| entries.iter().all(|&v| zp.contains(v));
    for (equation, in_range) in [
        (
            7,
            shares_ok(&[bundle.e, bundle.f, bundle.g]) && entries_ok(commitments.o()),
        ),
        (8, shares_ok(&[bundle.h]) && entries_ok(commitments.q())),
        (9, entries_ok(commitments.r())),
    ] {
        if !in_range {
            return Err(CryptoError::ShareVerificationFailed { equation });
        }
    }
    // (7): z1^{e(α)f(α)} z2^{g(α)} == Π O_ℓ^{α^ℓ}.
    let lhs7 = group.commit(zq.mul(bundle.e, bundle.f), bundle.g);
    if lhs7 != commitments.omicron(group, alpha) {
        return Err(CryptoError::ShareVerificationFailed { equation: 7 });
    }
    // (8): z1^{e(α)} z2^{h(α)} == Γ.
    let lhs8 = group.commit(bundle.e, bundle.h);
    if lhs8 != commitments.gamma(group, alpha) {
        return Err(CryptoError::ShareVerificationFailed { equation: 8 });
    }
    // (9): z1^{f(α)} z2^{h(α)} == Φ.
    let lhs9 = group.commit(bundle.f, bundle.h);
    if lhs9 != commitments.phi(group, alpha) {
        return Err(CryptoError::ShareVerificationFailed { equation: 9 });
    }
    Ok(())
}

/// A failure inside [`verify_shares_batch`]: which batch item failed, and
/// the verification error it failed with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShareBatchFailure {
    /// Index of the failing item in the submitted batch.
    pub index: usize,
    /// The per-item verification error.
    pub error: CryptoError,
}

/// Verifies a batch of `(commitments, bundle)` pairs at one evaluation
/// point `alpha`, fanning the per-item work of equations (7)–(9) across
/// `width` threads.
///
/// Phase III.1 is embarrassingly parallel: each received bundle is checked
/// against its sender's commitments independently, across both tasks and
/// senders. Whatever the width, the result is **bit-identical** to calling
/// [`verify_shares`] in a sequential loop over `items`: every item is
/// verified by a pure function of its inputs, and a failure reports the
/// first failing item in submission order.
///
/// `width <= 1` short-circuits to the sequential loop (and keeps its
/// early-exit behavior); parallel verification always checks the whole
/// batch before scanning for the first failure.
///
/// # Errors
///
/// Returns [`ShareBatchFailure`] naming the first item (in submission
/// order) whose verification failed, with the underlying
/// [`CryptoError::ShareVerificationFailed`].
pub fn verify_shares_batch(
    group: &SchnorrGroup,
    alpha: u64,
    items: &[(&Commitments, ShareBundle)],
    width: usize,
) -> Result<(), ShareBatchFailure> {
    if width <= 1 || items.len() <= 1 {
        for (index, (commitments, bundle)) in items.iter().enumerate() {
            if let Err(error) = verify_shares(group, commitments, alpha, bundle) {
                return Err(ShareBatchFailure { index, error });
            }
        }
        return Ok(());
    }
    let results: Vec<Result<(), CryptoError>> =
        match rayon::ThreadPoolBuilder::new().num_threads(width).build() {
            Ok(pool) => pool.install(|| {
                use rayon::prelude::*;
                items
                    .par_iter()
                    .map(|(commitments, bundle)| verify_shares(group, commitments, alpha, bundle))
                    .collect()
            }),
            // A pool that cannot be built degrades to sequential verification.
            Err(_) => items
                .iter()
                .map(|(commitments, bundle)| verify_shares(group, commitments, alpha, bundle))
                .collect(),
        };
    match results
        .into_iter()
        .enumerate()
        .find_map(|(index, result)| result.err().map(|error| ShareBatchFailure { index, error }))
    {
        Some(failure) => Err(failure),
        None => Ok(()),
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation
)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (SchnorrGroup, BidEncoding, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        let group = SchnorrGroup::generate(40, 16, &mut rng).unwrap();
        let encoding = BidEncoding::new(6, 1).unwrap();
        (group, encoding, rng)
    }

    #[test]
    fn honest_shares_verify_at_every_point() {
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        for bid in encoding.bid_set() {
            let polys = BidPolynomials::generate(&group, &encoding, bid, &mut rng).unwrap();
            let commitments = Commitments::commit(&group, &encoding, &polys);
            let alphas = zq.rand_distinct_nonzero(encoding.agents(), &mut rng);
            for &alpha in &alphas {
                let bundle = polys.share_for(&zq, alpha);
                verify_shares(&group, &commitments, alpha, &bundle)
                    .unwrap_or_else(|e| panic!("bid {bid}, alpha {alpha}: {e}"));
            }
        }
    }

    #[test]
    fn corrupted_e_share_fails_equation_7_or_8() {
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let polys = BidPolynomials::generate(&group, &encoding, 2, &mut rng).unwrap();
        let commitments = Commitments::commit(&group, &encoding, &polys);
        let mut bundle = polys.share_for(&zq, 9);
        bundle.e = zq.add(bundle.e, 1);
        let err = verify_shares(&group, &commitments, 9, &bundle).unwrap_err();
        assert!(matches!(
            err,
            CryptoError::ShareVerificationFailed { equation: 7 | 8 }
        ));
    }

    #[test]
    fn corrupted_f_g_h_shares_are_each_detected() {
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let polys = BidPolynomials::generate(&group, &encoding, 3, &mut rng).unwrap();
        let commitments = Commitments::commit(&group, &encoding, &polys);
        let honest = polys.share_for(&zq, 11);
        for field in 0..3 {
            let mut bundle = honest;
            match field {
                0 => bundle.f = zq.add(bundle.f, 1),
                1 => bundle.g = zq.add(bundle.g, 1),
                _ => bundle.h = zq.add(bundle.h, 1),
            }
            assert!(
                verify_shares(&group, &commitments, 11, &bundle).is_err(),
                "tampered field {field} slipped through"
            );
        }
    }

    #[test]
    fn shares_at_wrong_point_fail() {
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let polys = BidPolynomials::generate(&group, &encoding, 2, &mut rng).unwrap();
        let commitments = Commitments::commit(&group, &encoding, &polys);
        let bundle = polys.share_for(&zq, 9);
        assert!(verify_shares(&group, &commitments, 10, &bundle).is_err());
    }

    #[test]
    fn tampered_commitments_fail() {
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let polys = BidPolynomials::generate(&group, &encoding, 2, &mut rng).unwrap();
        let commitments = Commitments::commit(&group, &encoding, &polys).with_tampered_q(&group, 0);
        let bundle = polys.share_for(&zq, 9);
        assert!(matches!(
            verify_shares(&group, &commitments, 9, &bundle),
            Err(CryptoError::ShareVerificationFailed { equation: 8 })
        ));
    }

    #[test]
    fn mismatched_polynomials_fail_equation_7() {
        // Commit to one quadruple but send shares of a different e: the
        // product check (7) catches the substitution even when the degree
        // is unchanged.
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let polys = BidPolynomials::generate(&group, &encoding, 2, &mut rng).unwrap();
        let commitments = Commitments::commit(&group, &encoding, &polys);
        let substituted = polys.clone().with_substituted_e(&zq, polys.tau(), &mut rng);
        let bundle = substituted.share_for(&zq, 5);
        let err = verify_shares(&group, &commitments, 5, &bundle).unwrap_err();
        assert!(matches!(err, CryptoError::ShareVerificationFailed { .. }));
    }

    /// Commitments with the entry at `index` of vector `which` (0 = O,
    /// 1 = Q, 2 = R) lifted by `p`: the same residue, but not canonical.
    fn with_entry_plus_p(
        group: &SchnorrGroup,
        encoding: &BidEncoding,
        c: &Commitments,
        which: usize,
        index: usize,
    ) -> Commitments {
        let mut parts = [c.o().to_vec(), c.q().to_vec(), c.r().to_vec()];
        parts[which][index] += group.p();
        let [o, q, r] = parts;
        Commitments::from_parts(encoding, o, q, r).unwrap()
    }

    #[test]
    fn non_canonical_commitment_entries_fail_their_equation() {
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let polys = BidPolynomials::generate(&group, &encoding, 2, &mut rng).unwrap();
        let commitments = Commitments::commit(&group, &encoding, &polys);
        let bundle = polys.share_for(&zq, 9);
        for (which, equation) in [(0, 7), (1, 8), (2, 9)] {
            let lifted = with_entry_plus_p(&group, &encoding, &commitments, which, 0);
            assert_eq!(
                verify_shares(&group, &lifted, 9, &bundle),
                Err(CryptoError::ShareVerificationFailed { equation }),
                "vector {which}"
            );
        }
    }

    #[test]
    fn non_canonical_shares_fail_their_equation() {
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let polys = BidPolynomials::generate(&group, &encoding, 2, &mut rng).unwrap();
        let commitments = Commitments::commit(&group, &encoding, &polys);
        let honest = polys.share_for(&zq, 9);
        let q = group.q();
        for (bundle, equation) in [
            (
                ShareBundle {
                    e: honest.e + q,
                    ..honest
                },
                7,
            ),
            (
                ShareBundle {
                    f: honest.f + q,
                    ..honest
                },
                7,
            ),
            (
                ShareBundle {
                    g: honest.g + q,
                    ..honest
                },
                7,
            ),
            (
                ShareBundle {
                    h: honest.h + q,
                    ..honest
                },
                8,
            ),
        ] {
            assert_eq!(
                verify_shares(&group, &commitments, 9, &bundle),
                Err(CryptoError::ShareVerificationFailed { equation }),
                "{bundle:?}"
            );
        }
    }

    #[test]
    fn range_checks_precede_arithmetic_in_equation_order() {
        // A non-canonical R entry is reported as (9) even when the bundle
        // would fail (7) arithmetically: ranges are checked first.
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let polys = BidPolynomials::generate(&group, &encoding, 2, &mut rng).unwrap();
        let commitments = Commitments::commit(&group, &encoding, &polys);
        let lifted = with_entry_plus_p(&group, &encoding, &commitments, 2, 1);
        let mut bundle = polys.share_for(&zq, 9);
        bundle.g = zq.add(bundle.g, 1);
        assert_eq!(
            verify_shares(&group, &lifted, 9, &bundle),
            Err(CryptoError::ShareVerificationFailed { equation: 9 })
        );
    }

    #[test]
    fn from_parts_validates_lengths() {
        let (group, encoding, mut rng) = setup();
        let polys = BidPolynomials::generate(&group, &encoding, 1, &mut rng).unwrap();
        let c = Commitments::commit(&group, &encoding, &polys);
        let rebuilt =
            Commitments::from_parts(&encoding, c.o().to_vec(), c.q().to_vec(), c.r().to_vec())
                .unwrap();
        assert_eq!(rebuilt, c);
        assert!(matches!(
            Commitments::from_parts(&encoding, vec![1], c.q().to_vec(), c.r().to_vec()),
            Err(CryptoError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn tampering_a_clone_copies_on_write() {
        let (group, encoding, mut rng) = setup();
        let polys = BidPolynomials::generate(&group, &encoding, 2, &mut rng).unwrap();
        let original = Commitments::commit(&group, &encoding, &polys);
        let holder = original.clone();
        assert!(holder.shares_storage_with(&original));
        let before = [
            original.o().to_vec(),
            original.q().to_vec(),
            original.r().to_vec(),
        ];

        let tampered = original.clone().with_tampered_q(&group, 1);
        assert!(!tampered.shares_storage_with(&original));
        assert_ne!(tampered.q()[1], original.q()[1]);
        assert_eq!(tampered.q()[0], original.q()[0]);
        assert_eq!(tampered.o(), original.o());
        assert_eq!(tampered.r(), original.r());
        // The original and every other holder are bit-identical to
        // before, and still share one allocation.
        for c in [&original, &holder] {
            assert_eq!([c.o().to_vec(), c.q().to_vec(), c.r().to_vec()], before);
        }
        assert!(holder.shares_storage_with(&original));

        // An out-of-range index changes nothing, so nothing is copied.
        let untouched = original.clone().with_tampered_q(&group, encoding.sigma());
        assert!(untouched.shares_storage_with(&original));
    }

    #[test]
    fn gamma_phi_match_share_commitments() {
        // Gamma and Phi computed from public data equal the left-hand sides
        // computed from private shares — the identity that (11) and (13)
        // rely on.
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let polys = BidPolynomials::generate(&group, &encoding, 3, &mut rng).unwrap();
        let commitments = Commitments::commit(&group, &encoding, &polys);
        let alpha = 13;
        let bundle = polys.share_for(&zq, alpha);
        assert_eq!(
            commitments.gamma(&group, alpha),
            group.commit(bundle.e, bundle.h)
        );
        assert_eq!(
            commitments.phi(&group, alpha),
            group.commit(bundle.f, bundle.h)
        );
    }

    #[test]
    fn batch_verification_is_width_invariant() {
        let (group, encoding, mut rng) = setup();
        let zq = group.zq();
        let alpha = 9;
        let committed: Vec<(Commitments, crate::polynomials::ShareBundle)> = (0..12)
            .map(|i| {
                let polys =
                    BidPolynomials::generate(&group, &encoding, 1 + i % 3, &mut rng).unwrap();
                let commitments = Commitments::commit(&group, &encoding, &polys);
                let bundle = polys.share_for(&zq, alpha);
                (commitments, bundle)
            })
            .collect();
        let items: Vec<(&Commitments, crate::polynomials::ShareBundle)> =
            committed.iter().map(|(c, b)| (c, *b)).collect();
        for width in [1, 2, 8] {
            assert!(verify_shares_batch(&group, alpha, &items, width).is_ok());
        }
        // Corrupt two items; every width must report the *first* one.
        let mut corrupted = items.clone();
        corrupted[3].1.e = zq.add(corrupted[3].1.e, 1);
        corrupted[9].1.f = zq.add(corrupted[9].1.f, 1);
        for width in [1, 2, 8] {
            let failure = verify_shares_batch(&group, alpha, &corrupted, width).unwrap_err();
            assert_eq!(failure.index, 3, "width {width}");
            assert!(matches!(
                failure.error,
                CryptoError::ShareVerificationFailed { .. }
            ));
        }
    }
}
