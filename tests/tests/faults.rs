//! Crash-fault tolerance (the ABL-c experiment, Open Problem 11): with at
//! most `c` crashed agents the mechanism remains computable; beyond the
//! threshold it aborts rather than producing a wrong outcome.

use dmw::error::AbortReason;
use dmw::runner::DmwRunner;
use dmw_simnet::{FaultPlan, NodeId};
use integration_tests::{centralized_reference, config, random_bids, rng};

/// Crash `k` agents at round `round` and report the run.
fn run_with_crashes(
    n: usize,
    c: usize,
    m: usize,
    k: usize,
    round: u64,
    seed: u64,
) -> (dmw::DmwRun, dmw_mechanism::ExecutionTimes) {
    let mut r = rng(seed);
    let cfg = config(n, c, &mut r);
    let bids = random_bids(&cfg, m, &mut r);
    let mut plan = FaultPlan::none(n);
    for i in 0..k {
        // Crash the highest-indexed agents so the winner determinism of
        // low indices is preserved for reference comparisons.
        plan = plan.crash_at(NodeId(n - 1 - i), round);
    }
    let behaviors = vec![dmw::Behavior::Suggested; n];
    let run = DmwRunner::new(cfg)
        .run(&bids, &behaviors, plan, &mut r)
        .unwrap();
    (run, bids)
}

#[test]
fn tolerates_up_to_c_crashes_before_bidding() {
    // Agents crashed from round 0 never bid; the survivors auction among
    // themselves.
    for c in [1usize, 2] {
        let n = 7;
        let (run, bids) = run_with_crashes(n, c, 2, c, 0, 42 + c as u64);
        let outcome = run.completed().unwrap_or_else(|e| panic!("c={c}: {e}"));
        // The crashed agents win nothing and are paid nothing.
        for dead in (n - c)..n {
            assert!(outcome
                .schedule
                .tasks_of(dmw_mechanism::AgentId(dead))
                .is_empty());
            assert_eq!(outcome.payments[dead], 0);
        }
        // The outcome matches centralized MinWork over the survivors.
        let survivor_rows: Vec<Vec<u64>> = (0..n - c)
            .map(|i| bids.agent_row(dmw_mechanism::AgentId(i)).to_vec())
            .collect();
        let survivor_bids = dmw_mechanism::ExecutionTimes::from_rows(survivor_rows).unwrap();
        let reference = centralized_reference(&survivor_bids);
        for task in 0..2 {
            assert_eq!(
                outcome.schedule.agent_of(task.into()),
                reference.schedule.agent_of(task.into()),
                "c={c} task {task}"
            );
        }
    }
}

#[test]
fn winner_claims_cover_high_survivor_bids() {
    // With `c` pre-bidding crashes only `n − c` live share points remain,
    // but eq (14) wants `y* + c + 1` of them — more than `n − c` once the
    // survivor minimum bid `y*` exceeds `n − 2c − 1`. The winner-claim
    // fallback supplies the missing commitment-bound evaluations, so the
    // auction still completes in the starved regime.
    let n = 7;
    let c = 2;
    let mut r = rng(9);
    let cfg = config(n, c, &mut r);
    // Every survivor bids w_max = 4: y* = 4 needs 7 points, 5 survive.
    let rows: Vec<Vec<u64>> = (0..n).map(|_| vec![4]).collect();
    let bids = dmw_mechanism::ExecutionTimes::from_rows(rows).unwrap();
    let mut plan = FaultPlan::none(n);
    for i in 0..c {
        plan = plan.crash_at(NodeId(n - 1 - i), 0);
    }
    let behaviors = vec![dmw::Behavior::Suggested; n];
    let run = DmwRunner::new(cfg)
        .run(&bids, &behaviors, plan, &mut r)
        .unwrap();
    let outcome = run.completed().expect("fallback identification completes");
    // Ties break to the lowest index; the tied second price equals the
    // first, so the winner is paid its own bid.
    assert_eq!(
        outcome.schedule.agent_of(dmw_mechanism::TaskId(0)),
        Some(dmw_mechanism::AgentId(0))
    );
    assert_eq!(outcome.payments[0], 4);
}

#[test]
fn aborts_beyond_the_crash_threshold() {
    // c + 1 crashes exceed the tolerance: the protocol must abort, not
    // limp to a wrong answer.
    let (run, _) = run_with_crashes(7, 1, 2, 2, 0, 77);
    assert!(!run.is_completed());
    assert!(matches!(
        run.abort_reason(),
        Some(AbortReason::TooManyFaults {
            observed: 2,
            tolerated: 1
        })
    ));
}

#[test]
fn tolerates_crashes_after_bidding() {
    // An agent that crashes after distributing shares stays in the sum
    // polynomial E; the survivors resolve around its silence. Its bid can
    // even win the task.
    let n = 6;
    let c = 1;
    let (run, bids) = run_with_crashes(n, c, 2, 1, 1, 4243);
    let outcome = run
        .completed()
        .expect("one post-bidding crash is tolerated");
    // Every task's winner bid the (global) minimum, including possibly
    // the crashed agent.
    let reference = centralized_reference(&bids);
    assert_eq!(outcome.schedule, reference.schedule);
    assert_eq!(outcome.payments, reference.payments);
}

#[test]
fn aborts_on_too_many_post_bidding_crashes() {
    let (run, _) = run_with_crashes(6, 1, 1, 2, 1, 4244);
    assert!(!run.is_completed());
    assert!(matches!(
        run.abort_reason(),
        Some(AbortReason::TooManyFaults { .. }) | Some(AbortReason::Unresolvable)
    ));
}

#[test]
fn crash_during_resolution_phase_is_tolerated() {
    // Crash at round 2: lambdas are out, the agent never discloses or
    // publishes excluded pairs. Spare disclosers and surviving excluded
    // points carry the run.
    let n = 7;
    let c = 2;
    let (run, bids) = run_with_crashes(n, c, 2, 2, 2, 909);
    let outcome = run.completed().expect("post-lambda crashes tolerated");
    let reference = centralized_reference(&bids);
    assert_eq!(outcome.schedule, reference.schedule);
}

#[test]
fn zero_fault_configuration_has_no_slack() {
    // With c = 0 a single crash anywhere must abort.
    for round in 0..3 {
        let (run, _) = run_with_crashes(5, 0, 1, 1, round, 5000 + round);
        assert!(!run.is_completed(), "round {round}");
    }
}

#[test]
fn crashes_before_bidding_are_tolerated_under_delay() {
    // The crash-tolerance guarantee survives the move off lockstep: on a
    // jittered transport the survivors still auction among themselves.
    let mut r = rng(707);
    let n = 7;
    let cfg = config(n, 2, &mut r);
    let bids = random_bids(&cfg, 2, &mut r);
    let plan = FaultPlan::none(n)
        .crash_at(NodeId(5), 0)
        .crash_at(NodeId(6), 0);
    let transport: dmw_simnet::Network<dmw::messages::Body> =
        dmw_simnet::Network::with_faults(n, plan)
            .with_delay(dmw_simnet::DelayProfile::jittered(0, 2, 9));
    let run = DmwRunner::new(cfg)
        .with_round_budget(200)
        .with_patience(8)
        .run_on(&bids, &vec![dmw::Behavior::Suggested; n], transport, &mut r)
        .unwrap();
    let outcome = run.completed().expect("two crashes within c = 2");
    for dead in [5usize, 6] {
        assert_eq!(outcome.payments[dead], 0, "crashed agent {dead} paid");
        assert!(
            outcome
                .schedule
                .tasks_of(dmw_mechanism::AgentId(dead))
                .is_empty(),
            "crashed agent {dead} won a task"
        );
    }
}

#[test]
fn a_link_slower_than_the_patience_budget_reads_as_dropped() {
    // A per-link delay schedule far beyond the patience budget is
    // indistinguishable from a dropped link at the victim: the split
    // participation view is caught by the mask comparison, never papered
    // over.
    let mut r = rng(708);
    let n = 5;
    let cfg = config(n, 1, &mut r);
    let bids = random_bids(&cfg, 1, &mut r);
    let plan = FaultPlan::none(n).delay_link(NodeId(0), NodeId(3), 50);
    let transport: dmw_simnet::Network<dmw::messages::Body> =
        dmw_simnet::Network::with_faults(n, plan);
    let run = DmwRunner::new(cfg)
        .with_round_budget(100)
        .with_patience(4)
        .run_on(&bids, &vec![dmw::Behavior::Suggested; n], transport, &mut r)
        .unwrap();
    assert!(!run.is_completed(), "the late share must not be waited for");
    assert!(matches!(
        run.abort_reason(),
        Some(AbortReason::InconsistentMask { .. }) | Some(AbortReason::TooManyFaults { .. })
    ));
}

#[test]
fn dropped_links_are_detected_as_inconsistency() {
    // A dropped share link makes the victim exclude the sender while
    // everyone else includes it: the mask comparison catches the split
    // view and the protocol aborts rather than diverging.
    let mut r = rng(606);
    let n = 5;
    let cfg = config(n, 1, &mut r);
    let bids = random_bids(&cfg, 1, &mut r);
    let plan = FaultPlan::none(n).drop_link(NodeId(0), NodeId(3));
    let behaviors = vec![dmw::Behavior::Suggested; n];
    let run = DmwRunner::new(cfg)
        .run(&bids, &behaviors, plan, &mut r)
        .unwrap();
    assert!(!run.is_completed());
    assert!(matches!(
        run.abort_reason(),
        Some(AbortReason::InconsistentMask { .. }) | Some(AbortReason::TooManyFaults { .. })
    ));
}
