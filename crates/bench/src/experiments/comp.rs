//! T1-comp — Table 1, row "Computational cost": MinWork `Θ(mn)` vs DMW
//! `O(mn² log p)` per agent, counted in modular multiplications (an
//! inversion priced as one multiplication, the paper's Section 2.4 cost
//! model).
//!
//! The thread-local operation counters of `dmw-modmath` record every
//! multiplication performed during a run; dividing by `n` gives the
//! per-agent figure (DMW's work is symmetric across agents). Three sweeps
//! isolate the three factors: `n` (expected exponent ≈ 2), `m` (≈ 1) and
//! `log p` (≈ 1, by sweeping the modulus bit size).

use super::{log_log_slope, random_bids, rng};
use crate::table::Report;
use dmw::config::DmwConfig;
use dmw::runner::DmwRunner;
use dmw_mechanism::MinWork;
use dmw_modmath::ops;

/// Comparison counts for one (n, c, m, p_bits) cell.
#[derive(Debug, Clone, Copy)]
pub struct CompCell {
    /// DMW modular multiplications per agent.
    pub dmw_per_agent: u64,
    /// Centralized MinWork comparison count (`Θ(mn)` comparisons).
    pub minwork_ops: u64,
}

/// Measures one cell: a full honest DMW run (ops divided by `n`) and the
/// centralized mechanism's comparison count.
pub fn measure(n: usize, c: usize, m: usize, p_bits: u32, seed: u64) -> CompCell {
    measure_with_policy(n, c, m, p_bits, dmw::VerificationPolicy::Rotation, seed)
}

/// Like [`measure`] with an explicit verification policy — the knob that
/// separates the paper-consistent `Θ(mn² log p)` rotation scheme from the
/// `Θ(mn³ log p)` full mutual verification.
pub fn measure_with_policy(
    n: usize,
    c: usize,
    m: usize,
    p_bits: u32,
    policy: dmw::VerificationPolicy,
    seed: u64,
) -> CompCell {
    let mut r = rng(seed);
    let q_bits = (p_bits / 2).clamp(12, 30);
    let cfg = DmwConfig::generate_with_bits(n, c, p_bits, q_bits, &mut r)
        .expect("valid experiment configuration");
    let bids = random_bids(&cfg, m, &mut r);
    ops::reset_ops();
    let run = DmwRunner::new(cfg)
        .with_policy(policy)
        .run_honest(&bids, &mut r)
        .expect("valid run");
    assert!(run.is_completed());
    let snap = ops::take_ops();
    // Centralized MinWork scans m columns of n bids twice (min and second
    // min) and sums second prices: Θ(mn).
    let minwork_ops = (2 * m * n + m) as u64;
    CompCell {
        dmw_per_agent: snap.mul_equivalents() / n as u64,
        minwork_ops,
    }
}

/// Builds the full computation report.
pub fn run(seed: u64) -> Report {
    let mut report =
        Report::new("Table 1 — computational cost: MinWork Θ(mn) vs DMW O(mn² log p) per agent");
    report.note("DMW work = measured modular multiplications (inversions costed as one mul, §2.4), divided by n.");
    report.note("MinWork work = the Θ(mn) bid-scan comparisons of the centralized mechanism.");

    let c = 1usize;
    // Sweep n.
    let (m, p_bits) = (2usize, 48u32);
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for &n in &[4usize, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128] {
        let cell = measure(n, c, m, p_bits, seed + n as u64);
        points.push((n as f64, cell.dmw_per_agent as f64));
        let model = (m * n * n) as f64 * (p_bits as f64);
        rows.push(vec![
            n.to_string(),
            cell.minwork_ops.to_string(),
            cell.dmw_per_agent.to_string(),
            format!("{:.2}", cell.dmw_per_agent as f64 / model),
        ]);
    }
    let slope = log_log_slope(&points);
    report.table(
        format!("sweep over n (m = {m}, |p| = {p_bits} bits) — growth exponent in n: {slope:.2} (paper: 2)"),
        &["n", "MinWork ops", "DMW muls/agent", "muls / (mn² log p)"],
        rows,
    );

    // Sweep m.
    let (n, p_bits) = (8usize, 48u32);
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for &m in &[1usize, 2, 4, 8, 16] {
        let cell = measure(n, c, m, p_bits, seed + 100 + m as u64);
        points.push((m as f64, cell.dmw_per_agent as f64));
        rows.push(vec![
            m.to_string(),
            cell.minwork_ops.to_string(),
            cell.dmw_per_agent.to_string(),
        ]);
    }
    let slope = log_log_slope(&points);
    report.table(
        format!("sweep over m (n = {n}, |p| = {p_bits} bits) — growth exponent in m: {slope:.2} (paper: 1)"),
        &["m", "MinWork ops", "DMW muls/agent"],
        rows,
    );

    // Sweep log p.
    let (n, m) = (8usize, 2usize);
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for &p_bits in &[28u32, 36, 44, 52, 60] {
        let cell = measure(n, c, m, p_bits, seed + 200 + p_bits as u64);
        points.push((p_bits as f64, cell.dmw_per_agent as f64));
        rows.push(vec![
            p_bits.to_string(),
            cell.dmw_per_agent.to_string(),
            format!("{:.0}", cell.dmw_per_agent as f64 / p_bits as f64),
        ]);
    }
    let slope = log_log_slope(&points);
    report.table(
        format!(
            "sweep over |p| (n = {n}, m = {m}) — growth exponent in log p: {slope:.2} (paper: 1)"
        ),
        &["|p| bits", "DMW muls/agent", "muls / log p"],
        rows,
    );

    // Verification-policy ablation: rotation (Table 1's implicit
    // assumption) vs full mutual verification.
    let (m, p_bits) = (1usize, 40u32);
    let mut rows = Vec::new();
    let mut rot_points = Vec::new();
    let mut full_points = Vec::new();
    for &n in &[4usize, 8, 16] {
        let rot = measure_with_policy(
            n,
            1,
            m,
            p_bits,
            dmw::VerificationPolicy::Rotation,
            seed + 300 + n as u64,
        );
        let full = measure_with_policy(
            n,
            1,
            m,
            p_bits,
            dmw::VerificationPolicy::Full,
            seed + 300 + n as u64,
        );
        rot_points.push((n as f64, rot.dmw_per_agent as f64));
        full_points.push((n as f64, full.dmw_per_agent as f64));
        rows.push(vec![
            n.to_string(),
            rot.dmw_per_agent.to_string(),
            full.dmw_per_agent.to_string(),
            format!(
                "{:.1}",
                full.dmw_per_agent as f64 / rot.dmw_per_agent as f64
            ),
        ]);
    }
    report.table(
        format!(
            "verification-policy ablation (m = {m}, |p| = {p_bits}) — growth exponents: rotation {:.2}, full {:.2}",
            log_log_slope(&rot_points),
            log_log_slope(&full_points)
        ),
        &["n", "rotation muls/agent", "full muls/agent", "full / rotation"],
        rows,
    );
    report.note("Full mutual verification grows roughly one power of n faster — the reason the rotation scheme is the default (see DESIGN.md).".to_string());
    let _ = MinWork::default(); // anchor the comparison mechanism in-docs
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dmw_work_grows_quadratically_in_n() {
        let points: Vec<(f64, f64)> = [4usize, 8, 16]
            .iter()
            .map(|&n| (n as f64, measure(n, 1, 1, 40, 5).dmw_per_agent as f64))
            .collect();
        let slope = log_log_slope(&points);
        assert!((1.5..=2.6).contains(&slope), "slope {slope} not ≈ 2");
    }

    #[test]
    fn dmw_work_grows_linearly_in_m() {
        let points: Vec<(f64, f64)> = [1usize, 4, 16]
            .iter()
            .map(|&m| (m as f64, measure(6, 1, m, 40, 6).dmw_per_agent as f64))
            .collect();
        let slope = log_log_slope(&points);
        assert!((0.8..=1.2).contains(&slope), "slope {slope} not ≈ 1");
    }

    #[test]
    fn dmw_work_grows_with_modulus_size() {
        let small = measure(6, 1, 1, 28, 7).dmw_per_agent;
        let large = measure(6, 1, 1, 60, 7).dmw_per_agent;
        assert!(large > small, "more bits must mean more multiplications");
    }
}
