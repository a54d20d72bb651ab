//! Phase III.4 + IV — verify excluded pairs, resolve the second price,
//! submit the payment claim.

use crate::agent::{AgentStatus, DmwAgent, Invariant};
use crate::error::AbortReason;
use crate::messages::Body;
use crate::strategy::Behavior;
use dmw_crypto::resolution::{resolve_min_bid, verify_lambda_psi};
use dmw_crypto::Commitments;
use dmw_simnet::Recipient;
use std::sync::Arc;

// dmw-lint: allow-file(L1-index): agent/task indices are validated at
// `DmwAgent` construction and every per-agent vector is allocated with
// length `n` up front (see `crate::agent`); per-site `.get()` plumbing
// would bury the protocol equations.

/// Complete once an excluded pair has arrived from every responsive
/// peer for every task.
pub(crate) fn ready(agent: &DmwAgent) -> bool {
    agent
        .live_indices()
        .into_iter()
        .all(|l| l == agent.me || (0..agent.m()).all(|t| agent.tasks[t].excluded[l].is_some()))
}

/// Verifies the excluded pairs (post-exclusion eq (11)), resolves the
/// second price, computes the payment vector and submits the claim —
/// the agent's terminal act.
pub(crate) fn act(agent: &mut DmwAgent, out: &mut Vec<(Recipient, Body)>) {
    if matches!(
        agent.behavior,
        Behavior::Silent | Behavior::SilentAfterBidding
    ) {
        return;
    }
    let group = *agent.config.group();
    let encoding = *agent.config.encoding();
    // Silent publishers become faulty.
    for l in agent.live_indices() {
        if (0..agent.m()).any(|t| agent.tasks[t].excluded[l].is_none()) {
            agent.faulty[l] = true;
        }
    }
    if agent.fault_count() > encoding.faults() {
        agent.abort(
            AbortReason::TooManyFaults {
                observed: agent.fault_count(),
                tolerated: encoding.faults(),
            },
            out,
        );
        return;
    }
    let alive = agent.alive_indices();
    for task in 0..agent.m() {
        let winner = agent.tasks[task]
            .winner
            .invariant("identified by the winner-id phase");
        let winner_pos_in_alive = alive
            .iter()
            .position(|&l| l == winner)
            .invariant("winner is alive");
        let commitments: Vec<Commitments> = alive
            .iter()
            .map(|&l| agent.tasks[task].commitments[l].clone().invariant("alive"))
            .collect();
        // Rotation verification of the post-exclusion eq (11).
        for &l in &agent.live_indices() {
            if l == agent.me || !agent.is_designated_verifier(l) {
                continue;
            }
            let pair = agent.tasks[task].excluded[l].invariant("live implies published");
            if verify_lambda_psi(
                &group,
                &commitments,
                l,
                agent.config.pseudonym(l),
                &pair,
                Some(winner_pos_in_alive),
            )
            .is_err()
            {
                agent.abort(AbortReason::InvalidExcluded { publisher: l }, out);
                return;
            }
        }
        // Resolve the second price from the responsive excluded points.
        let responsive = agent.live_indices();
        let alphas: Vec<u64> = responsive
            .iter()
            .map(|&l| agent.config.pseudonym(l))
            .collect();
        let lambdas: Vec<u64> = responsive
            .iter()
            .map(|&l| agent.tasks[task].excluded[l].invariant("responsive").lambda)
            .collect();
        match resolve_min_bid(&group, &encoding, &alphas, &lambdas) {
            Ok(price) => agent.tasks[task].second_price = Some(price.bid),
            Err(_) => {
                agent.abort(AbortReason::Unresolvable, out);
                return;
            }
        }
    }
    // Phase IV: compute the payment vector and submit it.
    let mut payments = vec![0u64; agent.n()];
    for task in 0..agent.m() {
        let winner = agent.tasks[task].winner.invariant("identified");
        payments[winner] += agent.tasks[task].second_price.invariant("resolved");
    }
    if let Behavior::InflatedPaymentClaim { delta } = agent.behavior {
        payments[agent.me] += delta;
    }
    let payments: Arc<[u64]> = payments.into();
    agent.claim = Some(Arc::clone(&payments));
    out.push((Recipient::Broadcast, Body::PaymentClaim { payments }));
    agent.status = AgentStatus::Done;
}
