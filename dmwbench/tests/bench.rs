//! The benchmark's own checks: determinism of its inputs and counts,
//! metric naming, the oracles, traced-run parity and layer closure.

use dmw::runner::RunResult;
use dmwbench::measure::{end_to_end, traced, Outcome};
use dmwbench::timed::{split, Name, SpanLog};
use dmwbench::workload::{by_name, Shape, WORKLOADS};
use std::time::{Duration, Instant};

/// Far below one pass: every run makes exactly one pass.
const ONE_PASS: f64 = 1e-9;

fn tiny(name: &str) -> Shape {
    by_name(name).expect("known workload").resized(5, 2, 8)
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

fn names(outcome: &Outcome) -> Vec<&str> {
    outcome.metrics.iter().map(|m| m.name.as_str()).collect()
}

#[test]
fn same_seed_gives_identical_inputs() {
    for (name, _) in WORKLOADS {
        let shape = tiny(name);
        let (a, b) = (shape.setup(7), shape.setup(7));
        assert_eq!(a.runner.config(), b.runner.config(), "{name}");
        for (x, y) in a.trials.iter().zip(&b.trials) {
            assert_eq!(x.bids, y.bids, "{name}");
            assert_eq!(x.faults, y.faults, "{name}");
            assert_eq!((x.crashed, x.seed), (y.crashed, y.seed), "{name}");
        }
        let other = shape.setup(8);
        assert!(
            a.trials
                .iter()
                .zip(&other.trials)
                .any(|(x, y)| x.bids != y.bids),
            "{name}: another seed must give other bids"
        );
    }
}

#[test]
fn same_seed_gives_identical_counts() {
    const COUNTS: [&str; 3] = ["oracle_pass_share", "messages_per_trial", "bytes_per_trial"];
    const TRACED_COUNTS: [&str; 6] = [
        "modmath.mul_per_trial",
        "simnet.calls_per_trial",
        "simnet.drops_per_trial",
        "reliable.retransmissions_per_trial",
        "runner.events_per_trial",
        "crypto.attributed_share",
    ];
    for (name, _) in WORKLOADS {
        let shape = tiny(name);
        let (a, b) = (
            end_to_end(shape, 3, ONE_PASS),
            end_to_end(shape, 3, ONE_PASS),
        );
        for count in COUNTS {
            assert_eq!(value(&a, count), value(&b, count), "{name}: {count}");
        }
        let (a, b) = (traced(shape, 3, ONE_PASS), traced(shape, 3, ONE_PASS));
        for count in TRACED_COUNTS {
            assert_eq!(value(&a, count), value(&b, count), "{name}: {count}");
        }
    }
}

#[test]
fn metric_names_are_well_formed_and_match_the_benchmark_file() {
    let spec = include_str!("../../BENCHMARK.json");
    let shape = tiny("chaos-n8");
    for outcome in [end_to_end(shape, 1, ONE_PASS), traced(shape, 1, ONE_PASS)] {
        for name in names(&outcome) {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "malformed metric name {name:?}"
            );
            assert!(
                spec.contains(&format!("\"name\": \"{name}\"")),
                "{name} is not listed in BENCHMARK.json"
            );
        }
        let json = outcome.to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    }
    let untraced = end_to_end(shape, 1, ONE_PASS);
    let traced = traced(shape, 1, ONE_PASS);
    let listed = spec.matches("\"name\": ").count();
    assert_eq!(
        names(&untraced).len() + names(&traced).len() + WORKLOADS.len(),
        listed,
        "every listed metric is reported"
    );
}

#[test]
fn tiny_pass_of_each_workload_passes_its_oracle() {
    for (name, _) in WORKLOADS {
        let shape = tiny(name);
        let outcome = end_to_end(shape, 11, ONE_PASS);
        assert_eq!(outcome.attempted, shape.trials as u64, "{name}: one pass");
        assert_eq!(outcome.failed, 0, "{name}: {:?}", outcome.lines);
        assert_eq!(value(&outcome, "oracle_pass_share"), 1.0, "{name}");
    }
}

#[test]
fn oracles_reject_wrong_outcomes() {
    let auction = tiny("auction-n32").setup(5);
    let blackout = tiny("blackout-n128").setup(5);
    let trial = &auction.trials[0];
    let mut run = auction.run(trial);
    assert_eq!(auction.check(trial, &run), Ok(()));
    // A completed auction is not what a dead network produces.
    assert!(blackout.check(&blackout.trials[0], &run).is_err());
    if let RunResult::Completed(outcome) = &mut run.result {
        outcome.payments[0] += 1;
    }
    assert!(auction.check(trial, &run).is_err(), "payments differ");
    // An aborted run fails the auction oracle.
    let dead = blackout.run(&blackout.trials[0]);
    assert!(auction.check(trial, &dead).is_err());
}

#[test]
fn traced_runs_are_bit_identical_and_close_the_layer_accounting() {
    for (name, _) in WORKLOADS {
        let outcome = traced(tiny(name), 2, ONE_PASS);
        assert_eq!(outcome.failed, 0, "{name}: {:?}", outcome.lines);
        let parts = value(&outcome, "simnet.busy_ms_per_trial")
            + value(&outcome, "agent.busy_ms_per_trial")
            + value(&outcome, "runner.self_ms_per_trial");
        let wall = value(&outcome, "trace.wall_ms_per_trial");
        assert!(
            (parts - wall).abs() <= 1e-9 * wall.max(1.0),
            "{name}: {parts} vs {wall}"
        );
    }
}

#[test]
fn split_charges_children_by_layer_and_the_rest_to_the_runner() {
    let mut spans = SpanLog::default();
    let t0 = Instant::now();
    let at = |ms: u64| t0 + Duration::from_millis(ms);
    let root = spans.record(Name::Trial, at(0), at(100), None);
    spans.record(Name::Simnet, at(1), at(4), Some(root));
    spans.record(Name::Agent, at(4), at(40), Some(root));
    spans.record(Name::Simnet, at(40), at(50), Some(root));
    let next = spans.record(Name::Trial, at(100), at(200), None);
    spans.record(Name::Agent, at(110), at(120), Some(next));
    let first = split(spans.spans(), root);
    assert_eq!(first.wall_ns, 100_000_000);
    assert_eq!(first.simnet_ns, 13_000_000);
    assert_eq!(first.agent_ns, 36_000_000);
    assert_eq!(first.simnet_calls, 2);
    assert_eq!(first.runner_self_ns(), 51_000_000);
    assert_eq!(split(spans.spans(), next).agent_ns, 10_000_000);
}
