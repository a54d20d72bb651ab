//! Lagrange interpolation at zero and polynomial degree resolution
//! (Section 2.4 of the paper).
//!
//! Given shares `(α_k, f(α_k))` of a polynomial `f` with **zero constant
//! term**, the degree of `f` is recovered by finding the smallest number of
//! shares `s` whose Lagrange interpolation at zero evaluates to `f(0) = 0`:
//! with `s` points the interpolant at 0 equals `f(0)` exactly when
//! `deg f ≤ s − 1`, and differs except with probability `1/q` otherwise
//! (the "mistaken success" probability the paper quotes). The resolved
//! degree is `s − 1`.
//!
//! > **Note on the paper's convention.** Definition 11 states that `s = d`
//! > points always satisfy `f^(d)(0) = f(0)` for a degree-`d` polynomial.
//! > Standard interpolation requires `d + 1` points; this module implements
//! > the consistent `d + 1` convention throughout (see DESIGN.md,
//! > "Deliberate clarifications"). The `false-positive` experiment measures
//! > the `≈ 1/q` accidental-success probability.
//!
//! Two evaluation strategies are provided and tested equal:
//! * [`interpolate_at_zero`] — the textbook basis-polynomial formula of
//!   Definition 11 / equation (2);
//! * [`interpolate_at_zero_steps`] — the paper's three-step `Θ(s²)`
//!   algorithm (`ψ_k`, `φ(0)`, `Σ ψ_k / α_k`) from \[14\].
//!
//! The *distributed* variant used by DMW operates in the exponent: each
//! agent publishes `Λ_k = z1^{E(α_k)}` and anyone checks
//! `Π Λ_k^{ρ_k} = 1` (equation (12)). [`zero_coefficients`] computes the
//! `ρ_k` for one point set.
//!
//! # Cost of a degree scan
//!
//! A degree scan tests the prefixes `s = 1, 2, …` of one point list, so it
//! needs every prefix coefficient vector `ρ^(s)`. Recomputing each with
//! [`zero_coefficients`] costs `Θ(s²)` multiplications plus `s` inversions,
//! `Θ(σ³)` over a whole scan. [`PrefixCoefficients`] instead derives
//! `ρ^(s)` from `ρ^(s−1)`:
//!
//! ```text
//! ρ_k^(s) = ρ_k^(s−1) · α_s / (α_s − α_k)      (k < s)
//! ρ_s^(s) = Π_{i<s} α_i / (α_i − α_s)
//! ```
//!
//! with the `s − 1` reciprocals `1/(α_s − α_k)` taken by one batched
//! inversion (Montgomery's trick), so step `s` costs `≈ 4s`
//! multiplications and one inversion, and a whole scan `≈ 2σ²`. The values
//! are the unique coefficients mod the field order, identical to
//! [`zero_coefficients`]; [`resolve_zero_degree`],
//! [`resolve_zero_degree_among`] and the exponent-side scan of
//! `dmw_crypto::resolution::resolve_min_bid` all walk one builder.

use crate::error::ModMathError;
use crate::field::PrimeField;

/// Computes the Lagrange basis coefficients at zero,
/// `ρ_k = Π_{i≠k} α_i / (α_i − α_k)`, for the given pairwise-distinct
/// non-zero points.
///
/// These are the exponents applied to the published `Λ_k` values in
/// equation (12) of the paper (reduced mod `q`, the generator order).
///
/// # Errors
///
/// * [`ModMathError::EmptyInterpolation`] if `points` is empty.
/// * [`ModMathError::DuplicatePoint`] if two points coincide.
/// * [`ModMathError::OutOfRange`] if a point is zero or not reduced.
pub fn zero_coefficients(field: &PrimeField, points: &[u64]) -> Result<Vec<u64>, ModMathError> {
    if points.is_empty() {
        return Err(ModMathError::EmptyInterpolation);
    }
    for (i, &a) in points.iter().enumerate() {
        if a == 0 || !field.contains(a) {
            return Err(ModMathError::OutOfRange {
                value: a,
                modulus: field.modulus(),
            });
        }
        if points.get(i + 1..).is_some_and(|tail| tail.contains(&a)) {
            return Err(ModMathError::DuplicatePoint { point: a });
        }
    }
    let mut coeffs = Vec::with_capacity(points.len());
    for (k, &ak) in points.iter().enumerate() {
        let mut num = 1u64;
        let mut den = 1u64;
        for (i, &ai) in points.iter().enumerate() {
            if i == k {
                continue;
            }
            num = field.mul(num, ai);
            den = field.mul(den, field.sub(ai, ak));
        }
        // `den` is a product of differences of distinct points, hence
        // nonzero, so `div` cannot fail; propagate rather than panic anyway.
        coeffs.push(field.div(num, den)?);
    }
    Ok(coeffs)
}

/// Incremental Lagrange-at-zero coefficients over the prefixes of a point
/// list: the `s`-th [`Self::push`] returns
/// `ρ^(s) = zero_coefficients(α_1, …, α_s)`.
///
/// Each [`Self::push`] updates the existing coefficients by
/// `α_s / (α_s − α_k)` and appends the new one, using a single batched
/// inversion (see the module docs for the cost).
///
/// # Example
/// ```
/// use dmw_modmath::{lagrange, PrimeField};
///
/// let f = PrimeField::new(1031)?;
/// let points = [3, 7, 11, 19];
/// let mut prefix = lagrange::PrefixCoefficients::new(&f);
/// for s in 1..=points.len() {
///     let rho = prefix.push(points[s - 1])?;
///     assert_eq!(rho, lagrange::zero_coefficients(&f, &points[..s])?);
/// }
/// # Ok::<(), dmw_modmath::ModMathError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PrefixCoefficients {
    field: PrimeField,
    points: Vec<u64>,
    coeffs: Vec<u64>,
    /// `Π α_i` over the pushed points: the numerator of the next new
    /// coefficient.
    point_product: u64,
    /// Running products of the differences `α_s − α_k` (Montgomery's
    /// trick), kept to reuse the allocation across pushes.
    running: Vec<u64>,
}

impl PrefixCoefficients {
    /// An empty builder over `field` (the exponent field `Z_q` in DMW).
    pub fn new(field: &PrimeField) -> Self {
        PrefixCoefficients {
            field: *field,
            points: Vec::new(),
            coeffs: Vec::new(),
            point_product: 1,
            running: Vec::new(),
        }
    }

    /// Appends `point` as `α_{s+1}` and returns the updated `ρ^(s+1)`.
    ///
    /// # Errors
    ///
    /// * [`ModMathError::OutOfRange`] if `point` is zero or not reduced;
    /// * [`ModMathError::DuplicatePoint`] if `point` was already pushed.
    ///
    /// These are the errors [`zero_coefficients`] reports for the first
    /// prefix that contains `point`. A rejected point leaves the builder
    /// unchanged.
    pub fn push(&mut self, point: u64) -> Result<&[u64], ModMathError> {
        let f = self.field;
        if point == 0 || !f.contains(point) {
            return Err(ModMathError::OutOfRange {
                value: point,
                modulus: f.modulus(),
            });
        }
        if self.points.contains(&point) {
            return Err(ModMathError::DuplicatePoint { point });
        }
        // Forward pass: running[k] = Π_{i≤k} (α_s − α_i).
        self.running.clear();
        let mut total = None;
        for &ak in &self.points {
            let d = f.sub(point, ak);
            let next = total.map_or(d, |t| f.mul(t, d));
            self.running.push(next);
            total = Some(next);
        }
        let new_coeff = match total {
            None => 1, // ρ^(1) = (1): the empty product.
            Some(total) => {
                // `total` is a product of differences of distinct points,
                // hence nonzero.
                let total_inv = f.inv(total)?;
                // Π_{i<s} (α_i − α_s) = (−1)^{s−1} · total.
                let unsigned = f.mul(self.point_product, total_inv);
                let new_coeff = if self.points.len() % 2 == 1 {
                    f.neg(unsigned)
                } else {
                    unsigned
                };
                // Backward pass: `scale` starts at α_s / Π_{i≤k} d_i and
                // sheds one difference per step, so `scale · running[k−1]`
                // is α_s / d_k.
                let mut scale = f.mul(point, total_inv);
                let pairs = self.points.iter().zip(self.coeffs.iter_mut());
                for (k, (&ak, rho)) in pairs.enumerate().rev() {
                    let factor = match k.checked_sub(1).and_then(|j| self.running.get(j)) {
                        Some(&before) => {
                            let factor = f.mul(scale, before);
                            scale = f.mul(scale, f.sub(point, ak));
                            factor
                        }
                        None => scale,
                    };
                    *rho = f.mul(*rho, factor);
                }
                new_coeff
            }
        };
        self.point_product = f.mul(self.point_product, point);
        self.points.push(point);
        self.coeffs.push(new_coeff);
        Ok(&self.coeffs)
    }

    /// Returns `zero_coefficients(field, prefix)`, extending the builder
    /// when `prefix` continues the points already pushed and restarting it
    /// otherwise. An ascending sequence of prefixes of one list therefore
    /// costs one incremental scan.
    ///
    /// # Errors
    ///
    /// [`ModMathError::EmptyInterpolation`] for an empty `prefix`, else the
    /// first [`Self::push`] error. At the shortest failing prefix this is
    /// the error [`zero_coefficients`] reports.
    pub fn extend_to(&mut self, prefix: &[u64]) -> Result<&[u64], ModMathError> {
        if prefix.is_empty() {
            return Err(ModMathError::EmptyInterpolation);
        }
        if !prefix.starts_with(&self.points) {
            *self = PrefixCoefficients::new(&self.field);
        }
        for &point in prefix.get(self.points.len()..).unwrap_or_default() {
            self.push(point)?;
        }
        Ok(&self.coeffs)
    }
}

/// `Σ_k values[k] · coeffs[k]`: a share vector interpolated at zero with
/// precomputed coefficients.
fn dot(field: &PrimeField, values: impl IntoIterator<Item = u64>, coeffs: &[u64]) -> u64 {
    values
        .into_iter()
        .zip(coeffs)
        .fold(0, |acc, (v, &rho)| field.add(acc, field.mul(v, rho)))
}

/// Interpolates `f(0)` from shares `(α_k, f(α_k))` using the basis-polynomial
/// formula of Definition 11. The result equals the true `f(0)` iff
/// `deg f ≤ s − 1` where `s = shares.len()` (up to the `1/q` accident).
///
/// # Errors
///
/// Propagates the validation errors of [`zero_coefficients`].
///
/// # Example
/// ```
/// use dmw_modmath::{PrimeField, Poly, lagrange};
///
/// let f = PrimeField::new(101)?;
/// let p = Poly::from_coeffs(&f, vec![42, 1, 1]); // degree 2
/// let shares: Vec<(u64, u64)> = (1..=3).map(|a| (a, p.eval(&f, a))).collect();
/// assert_eq!(lagrange::interpolate_at_zero(&f, &shares)?, 42);
/// # Ok::<(), dmw_modmath::ModMathError>(())
/// ```
pub fn interpolate_at_zero(field: &PrimeField, shares: &[(u64, u64)]) -> Result<u64, ModMathError> {
    let points: Vec<u64> = shares.iter().map(|&(a, _)| a).collect();
    let coeffs = zero_coefficients(field, &points)?;
    Ok(dot(field, shares.iter().map(|&(_, v)| v), &coeffs))
}

/// The paper's three-step `Θ(s²)` algorithm for `f^(s)(0)` (Section 2.4,
/// citing \[14\]):
///
/// 1. `ψ_k = f(α_k) / Π_{i≠k}(α_i − α_k)`
/// 2. `φ(0) = Π_k α_k`
/// 3. `f^(s)(0) = φ(0) · Σ_k ψ_k / α_k`
///
/// Produces exactly the same value as [`interpolate_at_zero`]; kept separate
/// (and tested equal) because the paper's complexity analysis refers to this
/// formulation.
///
/// # Errors
///
/// Same conditions as [`interpolate_at_zero`].
pub fn interpolate_at_zero_steps(
    field: &PrimeField,
    shares: &[(u64, u64)],
) -> Result<u64, ModMathError> {
    if shares.is_empty() {
        return Err(ModMathError::EmptyInterpolation);
    }
    let points: Vec<u64> = shares.iter().map(|&(a, _)| a).collect();
    for (i, &a) in points.iter().enumerate() {
        if a == 0 || !field.contains(a) {
            return Err(ModMathError::OutOfRange {
                value: a,
                modulus: field.modulus(),
            });
        }
        if points.get(i + 1..).is_some_and(|tail| tail.contains(&a)) {
            return Err(ModMathError::DuplicatePoint { point: a });
        }
    }
    // Step 1: psi_k.
    let mut psi = Vec::with_capacity(shares.len());
    for (k, &(ak, vk)) in shares.iter().enumerate() {
        let mut den = 1u64;
        for (i, &ai) in points.iter().enumerate() {
            if i == k {
                continue;
            }
            den = field.mul(den, field.sub(ai, ak));
        }
        // Distinct validated points make `den` nonzero.
        psi.push(field.div(vk, den)?);
    }
    // Step 2: phi(0) = prod alpha_k.
    let mut phi = 1u64;
    for &a in &points {
        phi = field.mul(phi, a);
    }
    // Step 3: phi(0) * sum psi_k / alpha_k.
    let mut sum = 0u64;
    for (&(ak, _), &pk) in shares.iter().zip(&psi) {
        // Points were validated nonzero above.
        sum = field.add(sum, field.div(pk, ak)?);
    }
    Ok(field.mul(phi, sum))
}

/// Resolves the degree of a zero-constant-term polynomial from its shares:
/// returns the smallest `s − 1` such that the `s`-share interpolation at
/// zero vanishes, scanning `s = 1, 2, …`. Returns `None` if no prefix of the
/// shares resolves (i.e. `deg f ≥ shares.len()`, or the shares are
/// inconsistent).
///
/// For an honest degree-`d` polynomial this returns `Some(d)` whenever at
/// least `d + 1` shares are supplied, except for an `O(s/q)` chance of
/// resolving early (measured by the `false-positive` experiment).
///
/// # Errors
///
/// Propagates validation errors (duplicate or zero points).
///
/// # Example
/// ```
/// use dmw_modmath::{PrimeField, Poly, lagrange};
/// use rand::SeedableRng;
///
/// let f = PrimeField::new(1031)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let p = Poly::random_zero_constant(&f, 4, &mut rng);
/// let shares: Vec<(u64, u64)> = (1..=6).map(|a| (a, p.eval(&f, a))).collect();
/// assert_eq!(lagrange::resolve_zero_degree(&f, &shares), Some(4));
/// // Too few shares: cannot resolve.
/// assert_eq!(lagrange::resolve_zero_degree(&f, &shares[..4]), None);
/// # Ok::<(), dmw_modmath::ModMathError>(())
/// ```
pub fn resolve_zero_degree(field: &PrimeField, shares: &[(u64, u64)]) -> Option<usize> {
    let mut prefix = PrefixCoefficients::new(field);
    for (s, &(alpha, _)) in shares.iter().enumerate() {
        let rho = prefix.push(alpha).ok()?;
        if dot(field, shares.iter().map(|&(_, v)| v), rho) == 0 {
            return Some(s);
        }
    }
    None
}

/// Like [`resolve_zero_degree`], but only tests the candidate degrees in
/// `candidates` (ascending): the protocol restricts bids to the discrete set
/// `W`, so only degrees `σ − w, w ∈ W` can occur (equation (12) scans
/// exactly that set). A candidate whose prefix contains an invalid point is
/// skipped.
pub fn resolve_zero_degree_among(
    field: &PrimeField,
    shares: &[(u64, u64)],
    candidates: &[usize],
) -> Option<usize> {
    let points: Vec<u64> = shares.iter().map(|&(a, _)| a).collect();
    let mut prefix = PrefixCoefficients::new(field);
    for &d in candidates {
        let head = points.get(..d + 1)?;
        if let Ok(rho) = prefix.extend_to(head) {
            if dot(field, shares.iter().map(|&(_, v)| v), rho) == 0 {
                return Some(d);
            }
        }
    }
    None
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
    use crate::poly::Poly;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn field() -> PrimeField {
        PrimeField::new(1031).unwrap()
    }

    fn shares_of(p: &Poly, f: &PrimeField, n: u64) -> Vec<(u64, u64)> {
        (1..=n).map(|a| (a, p.eval(f, a))).collect()
    }

    #[test]
    fn zero_coefficients_sum_property() {
        // Interpolating the constant polynomial 1 at zero gives 1, so the
        // rho_k must sum to 1.
        let f = field();
        let coeffs = zero_coefficients(&f, &[3, 7, 11, 19]).unwrap();
        let sum = coeffs.iter().fold(0, |acc, &c| f.add(acc, c));
        assert_eq!(sum, 1);
    }

    #[test]
    fn zero_coefficients_validation() {
        let f = field();
        assert_eq!(
            zero_coefficients(&f, &[]),
            Err(ModMathError::EmptyInterpolation)
        );
        assert_eq!(
            zero_coefficients(&f, &[1, 2, 1]),
            Err(ModMathError::DuplicatePoint { point: 1 })
        );
        assert!(matches!(
            zero_coefficients(&f, &[0, 2]),
            Err(ModMathError::OutOfRange { .. })
        ));
        assert!(matches!(
            zero_coefficients(&f, &[1, 2000]),
            Err(ModMathError::OutOfRange { .. })
        ));
    }

    #[test]
    fn interpolation_recovers_constant_term() {
        let f = field();
        let p = Poly::from_coeffs(&f, vec![77, 3, 0, 9]); // degree 3
        let shares = shares_of(&p, &f, 4);
        assert_eq!(interpolate_at_zero(&f, &shares).unwrap(), 77);
        // Extra shares do not change the value.
        let shares = shares_of(&p, &f, 9);
        assert_eq!(interpolate_at_zero(&f, &shares).unwrap(), 77);
    }

    #[test]
    fn too_few_points_miss_constant_term() {
        // With s <= deg f the interpolant at zero differs from f(0) (w.h.p.).
        let f = field();
        let p = Poly::from_coeffs(&f, vec![77, 3, 0, 9]);
        let shares = shares_of(&p, &f, 3);
        assert_ne!(interpolate_at_zero(&f, &shares).unwrap(), 77);
    }

    #[test]
    fn steps_algorithm_matches_textbook_formula() {
        let f = field();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for d in 1..=8 {
            let p = Poly::random_zero_constant(&f, d, &mut rng);
            for s in 1..=10u64 {
                let shares = shares_of(&p, &f, s);
                assert_eq!(
                    interpolate_at_zero(&f, &shares).unwrap(),
                    interpolate_at_zero_steps(&f, &shares).unwrap(),
                    "d={d} s={s}"
                );
            }
        }
    }

    #[test]
    fn resolve_finds_exact_degree() {
        let f = field();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for d in 1..=12 {
            let p = Poly::random_zero_constant(&f, d, &mut rng);
            let shares = shares_of(&p, &f, 16);
            assert_eq!(resolve_zero_degree(&f, &shares), Some(d), "degree {d}");
        }
    }

    #[test]
    fn resolve_zero_polynomial_is_degree_zero() {
        let f = field();
        let shares: Vec<(u64, u64)> = (1..=4).map(|a| (a, 0)).collect();
        assert_eq!(resolve_zero_degree(&f, &shares), Some(0));
    }

    #[test]
    fn resolve_needs_degree_plus_one_shares() {
        let f = field();
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let p = Poly::random_zero_constant(&f, 6, &mut rng);
        assert_eq!(resolve_zero_degree(&f, &shares_of(&p, &f, 6)), None);
        assert_eq!(resolve_zero_degree(&f, &shares_of(&p, &f, 7)), Some(6));
    }

    #[test]
    fn resolve_among_candidates_skips_impossible_degrees() {
        let f = field();
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let p = Poly::random_zero_constant(&f, 5, &mut rng);
        let shares = shares_of(&p, &f, 10);
        // Candidate set {3, 5, 7} (degrees sigma - w for w in W).
        assert_eq!(resolve_zero_degree_among(&f, &shares, &[3, 5, 7]), Some(5));
        // Candidate set without the true degree fails cleanly... w.h.p. the
        // wrong candidates do not accidentally resolve.
        assert_eq!(resolve_zero_degree_among(&f, &shares, &[3, 4]), None);
        // Not enough shares for any candidate.
        assert_eq!(resolve_zero_degree_among(&f, &shares[..3], &[5]), None);
    }

    #[test]
    fn resolve_on_inconsistent_duplicate_points_is_none() {
        let f = field();
        let shares = vec![(1u64, 5u64), (1, 6)];
        assert_eq!(resolve_zero_degree(&f, &shares), None);
    }

    #[test]
    fn extend_to_restarts_on_a_shorter_or_different_prefix() {
        let f = field();
        let points = [3u64, 7, 11, 19, 23];
        let mut prefix = PrefixCoefficients::new(&f);
        for s in [4, 2, 5, 1, 3] {
            assert_eq!(
                prefix.extend_to(&points[..s]).unwrap(),
                zero_coefficients(&f, &points[..s]).unwrap(),
                "s={s}"
            );
        }
        let other = [3u64, 8, 11];
        assert_eq!(
            prefix.extend_to(&other).unwrap(),
            zero_coefficients(&f, &other).unwrap()
        );
        assert_eq!(prefix.extend_to(&[]), Err(ModMathError::EmptyInterpolation));
    }

    #[test]
    fn rejected_push_leaves_the_builder_unchanged() {
        let f = field();
        let mut prefix = PrefixCoefficients::new(&f);
        prefix.push(5).unwrap();
        prefix.push(9).unwrap();
        assert_eq!(
            prefix.push(5),
            Err(ModMathError::DuplicatePoint { point: 5 })
        );
        assert!(matches!(
            prefix.push(0),
            Err(ModMathError::OutOfRange { value: 0, .. })
        ));
        assert!(matches!(
            prefix.push(1031),
            Err(ModMathError::OutOfRange { value: 1031, .. })
        ));
        assert_eq!(
            prefix.push(12).unwrap(),
            zero_coefficients(&f, &[5, 9, 12]).unwrap()
        );
    }

    #[test]
    fn builder_scan_is_quadratic_with_one_inversion_per_step() {
        let f = PrimeField::new(0x7FFF_FFFF_FFFF_FFE7).unwrap();
        let points: Vec<u64> = (1..=32).map(|a| a * 7919).collect();
        crate::ops::reset_ops();
        let mut prefix = PrefixCoefficients::new(&f);
        let mut rho = Vec::new();
        for &a in &points {
            rho = prefix.push(a).unwrap().to_vec();
        }
        let ops = crate::ops::take_ops();
        // Step s costs 4(s − 1) multiplications (one for s = 1).
        assert!(ops.mul <= 4 * 32 * 32 / 2, "{} muls", ops.mul);
        assert_eq!(ops.inv, 31);
        assert_eq!(rho, zero_coefficients(&f, &points).unwrap());
    }

    /// Points drawn from a small range so duplicates occur, with an
    /// occasional zero or unreduced value spliced in.
    fn point_list() -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec(
            (0u64..220).prop_map(|v| match v {
                0..=199 => v + 1,
                200..=209 => 0,
                _ => 1031 + v,
            }),
            1..24,
        )
    }

    proptest! {
        #[test]
        fn builder_matches_zero_coefficients_on_every_prefix(points in point_list()) {
            let f = field();
            let mut prefix = PrefixCoefficients::new(&f);
            for s in 1..=points.len() {
                let oracle = zero_coefficients(&f, &points[..s]);
                match prefix.push(points[s - 1]) {
                    Ok(rho) => prop_assert_eq!(Ok(rho.to_vec()), oracle, "s={}", s),
                    Err(e) => {
                        // The first failing prefix fails identically.
                        prop_assert_eq!(Err(e), oracle, "s={}", s);
                        break;
                    }
                }
            }
        }

        #[test]
        fn resolution_matches_per_prefix_interpolation(
            d in 1usize..10,
            seed in 0u64..5000,
            dup in 0usize..24,
        ) {
            // The builder-backed scans agree with interpolating each
            // prefix from scratch, including on invalid point lists.
            let f = field();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let p = Poly::random_zero_constant(&f, d, &mut rng);
            let mut shares: Vec<(u64, u64)> = (1..=12).map(|a| (a, p.eval(&f, a))).collect();
            // Half the cases make one point repeat a later one.
            if dup < 12 {
                shares[dup].0 = shares[(dup + 5) % 12].0;
            }
            let scratch = (1..=shares.len())
                .map(|s| interpolate_at_zero(&f, &shares[..s]))
                .take_while(Result::is_ok)
                .position(|v| v == Ok(0));
            prop_assert_eq!(resolve_zero_degree(&f, &shares), scratch);
            let candidates = [2usize, 4, 5, 9];
            let among = candidates
                .iter()
                .copied()
                .find(|&c| interpolate_at_zero(&f, &shares[..=c]) == Ok(0));
            prop_assert_eq!(resolve_zero_degree_among(&f, &shares, &candidates), among);
        }

        #[test]
        fn random_polynomials_resolve(
            d in 1usize..10,
            seed in 0u64..5000,
        ) {
            let f = field();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let p = Poly::random_zero_constant(&f, d, &mut rng);
            let shares: Vec<(u64, u64)> = (1..=(d as u64 + 3)).map(|a| (a, p.eval(&f, a))).collect();
            // resolve may (rarely, ~s/q) resolve early; never late.
            let resolved = resolve_zero_degree(&f, &shares);
            prop_assert!(resolved.is_some());
            prop_assert!(resolved.unwrap() <= d);
        }

        #[test]
        fn interpolation_is_linear(
            seed in 0u64..5000,
            d1 in 1usize..6,
            d2 in 1usize..6,
        ) {
            // interp(f + g) = interp(f) + interp(g) at fixed points — the
            // property that lets DMW interpolate the *sum* polynomial E from
            // published per-agent values.
            let f = field();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let p1 = Poly::random_zero_constant(&f, d1, &mut rng);
            let p2 = Poly::random_zero_constant(&f, d2, &mut rng);
            let points: Vec<u64> = (1..=8).collect();
            let s1: Vec<(u64, u64)> = points.iter().map(|&a| (a, p1.eval(&f, a))).collect();
            let s2: Vec<(u64, u64)> = points.iter().map(|&a| (a, p2.eval(&f, a))).collect();
            let ssum: Vec<(u64, u64)> = points
                .iter()
                .map(|&a| (a, f.add(p1.eval(&f, a), p2.eval(&f, a))))
                .collect();
            let lhs = interpolate_at_zero(&f, &ssum).unwrap();
            let rhs = f.add(
                interpolate_at_zero(&f, &s1).unwrap(),
                interpolate_at_zero(&f, &s2).unwrap(),
            );
            prop_assert_eq!(lhs, rhs);
        }
    }
}
