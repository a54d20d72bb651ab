//! The two kinds of run: the untraced end-to-end measurement and the
//! traced per-layer measurement.
//!
//! Both are closed loops with one client: trials run back to back on the
//! calling thread, cycling through the workload's fixed trial list, until
//! the first pass over the list is complete and the time budget is spent.
//! Times cover every trial run. Counts are means over the first pass, so
//! they repeat exactly for a given seed.

use crate::replay::{self, PRIMITIVES};
use crate::stats::{mean, median, peak_rss_mb, quantile};
use crate::timed::{split, LayerSplit, SpanLog, Timed};
use crate::workload::{self, Shape, Trial};
use dmw::config::trial_seed;
use dmw::runner::DmwRun;
use dmw_modmath::ops::{self, OpsSnapshot};
use dmw_obs::Key;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Interval at which an end-to-end run repeats its set-up between
/// trials. The host's speed drifts in phases of seconds, so set-ups
/// spread over the whole run give a steadier median than a burst at the
/// start.
const SETUP_EVERY: Duration = Duration::from_millis(250);

/// Oracle failures echoed to the report before the rest are only
/// counted.
const SHOWN_FAILURES: u64 = 5;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The result of one run: trial counts, metrics and a human-readable
/// report.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Trials attempted.
    pub attempted: u64,
    /// Trials that failed the oracle (or, traced, the parity check).
    pub failed: u64,
    /// Every metric of the run's kind.
    pub metrics: Vec<Metric>,
    /// Report lines printed before the JSON result.
    pub lines: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    fn fail(&mut self, what: String) {
        if self.failed < SHOWN_FAILURES {
            self.lines.push(format!("FAILED: {what}"));
        }
        self.failed += 1;
    }

    /// The one-line JSON result:
    /// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Seed of set-up repetition `rep`: the run's own seed first, then
/// derived seeds, so the median covers many group generations.
fn setup_seed(seed: u64, rep: u64) -> u64 {
    if rep == 0 {
        seed
    } else {
        trial_seed(seed, rep)
    }
}

/// Runs the trials of `list` back to back, cycling through it, until the
/// first pass is complete and `seconds` have passed. Calls
/// `body(index, trial, first_pass)` per trial and returns the loop's wall
/// seconds.
fn closed_loop(list: &[Trial], seconds: f64, mut body: impl FnMut(usize, &Trial, bool)) -> f64 {
    let start = Instant::now();
    for (run, (i, trial)) in list.iter().enumerate().cycle().enumerate() {
        body(i, trial, run < list.len());
        if run + 1 >= list.len() && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    start.elapsed().as_secs_f64()
}

/// The untraced end-to-end run. Besides the set-up the trials use, it
/// repeats the set-up every [`SETUP_EVERY`] between trials; `setup_s` is
/// the median, and the repeats are left out of `trials_per_s`.
pub fn end_to_end(shape: Shape, seed: u64, seconds: f64) -> Outcome {
    let start = Instant::now();
    let setup = shape.setup(seed);
    let mut setup_s = vec![start.elapsed().as_secs_f64()];
    let mut last_setup = Instant::now();
    let mut repeats_s = 0.0;

    let mut out = Outcome::default();
    let mut latency_ms = Vec::new();
    let (mut messages, mut bytes) = (0u64, 0u64);
    let wall = closed_loop(&setup.trials, seconds, |_, trial, first_pass| {
        if last_setup.elapsed() >= SETUP_EVERY {
            let start = Instant::now();
            let again = shape.setup(setup_seed(seed, setup_s.len() as u64));
            setup_s.push(start.elapsed().as_secs_f64());
            drop(again);
            repeats_s += start.elapsed().as_secs_f64();
            last_setup = Instant::now();
        }
        let start = Instant::now();
        let run = setup.run(trial);
        latency_ms.push(start.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        if first_pass {
            messages += run.network.point_to_point;
            bytes += run.network.bytes;
        }
        if let Err(why) = setup.check(trial, &run) {
            out.fail(why);
        }
    });
    let trials = out.attempted as f64;
    let listed = setup.trials.len() as f64;
    out.metric("setup_s", "s", median(&setup_s));
    out.metric("trial_ms_p50", "ms", quantile(&latency_ms, 0.5));
    out.metric("trial_ms_p90", "ms", quantile(&latency_ms, 0.9));
    out.metric("trials_per_s", "1/s", trials / (wall - repeats_s));
    out.metric(
        "oracle_pass_share",
        "ratio",
        (trials - out.failed as f64) / trials,
    );
    out.metric("messages_per_trial", "count", messages as f64 / listed);
    out.metric("bytes_per_trial", "bytes", bytes as f64 / listed);
    out.metric("peak_rss_mb", "MB", peak_rss_mb().unwrap_or(0.0));

    out.lines.push(format!(
        "oracle: {} of {} trials passed; p90 over {} samples ({} beyond it); setup_s over {} set-ups",
        out.attempted - out.failed,
        out.attempted,
        out.attempted,
        out.attempted / 10,
        setup_s.len()
    ));
    let rows: Vec<String> = out
        .metrics
        .iter()
        .map(|m| format!("  {:<22} {:>16.6} {}", m.name, m.value, m.unit))
        .collect();
    out.lines.extend(rows);
    out
}

/// Observations of the traced run: times of every trial, counts of the
/// first pass.
#[derive(Default)]
struct Traced {
    untraced_ms: Vec<f64>,
    splits: Vec<LayerSplit>,
    ops: Vec<OpsSnapshot>,
    runs: Vec<RunCounts>,
}

/// The counts one run carries in its artifacts.
#[derive(Debug, Clone, Copy, Default)]
struct RunCounts {
    delivered: u64,
    dropped: u64,
    retransmissions: u64,
    repair_payloads: u64,
    acks: u64,
    nacks: u64,
    duplicates: u64,
    control_messages: u64,
    phase_messages: u64,
    run_ticks: u64,
    events: u64,
}

impl RunCounts {
    fn of(run: &DmwRun) -> Self {
        let m = &run.metrics;
        let phases = m.counter_by_phase("phase_messages");
        RunCounts {
            delivered: run.network.delivered,
            dropped: run.network.dropped,
            retransmissions: m.counter_total("retransmissions"),
            repair_payloads: m.counter_total("repair_payloads"),
            acks: m.counter_total("acks_sent"),
            nacks: m.counter_total("nacks_sent"),
            duplicates: m.counter_total("duplicate_deliveries"),
            control_messages: phases.get("control").copied().unwrap_or(0),
            phase_messages: phases.values().sum(),
            run_ticks: m.gauge(&Key::named("run_ticks")),
            events: m.gauge(&Key::named("events_processed")),
        }
    }
}

/// Whether two runs of one trial left bit-identical artifacts.
fn identical(a: &DmwRun, b: &DmwRun) -> bool {
    a.result == b.result && a.network == b.network && a.trace == b.trace && a.metrics == b.metrics
}

/// The traced per-layer run. Every trial runs twice: untraced through
/// `DmwRunner::run`, then traced over a [`Timed`] transport; the two
/// runs' artifacts and operation counts must be bit-identical.
pub fn traced(shape: Shape, seed: u64, seconds: f64) -> Outcome {
    let setup = shape.setup(seed);
    let (mul_ns, pow_ns) = replay::calibrate(setup.runner.config().group(), seed);
    let prims = replay::replay(&setup);

    let log = RefCell::new(SpanLog::default());
    let mut out = Outcome::default();
    let mut seen = Traced::default();
    let mut roots = Vec::new();
    let list = &setup.trials[..shape.traced.min(setup.trials.len())];
    closed_loop(list, seconds, |i, trial, first_pass| {
        let before = ops::current_ops();
        let start = Instant::now();
        let plain = setup.run(trial);
        seen.untraced_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let plain_ops = ops::current_ops().since(&before);

        let before = ops::current_ops();
        let root = log.borrow_mut().open();
        let run = setup.run_on(trial, Timed::new(workload::transport(trial), &log, root));
        log.borrow_mut().close(root);
        let run_ops = ops::current_ops().since(&before);
        roots.push(root);

        out.attempted += 1;
        if !identical(&plain, &run) || plain_ops != run_ops {
            out.fail(format!(
                "trial {i}: traced run differs from the untraced run"
            ));
        } else if let Err(why) = setup.check(trial, &run) {
            out.fail(format!("trial {i}: {why}"));
        }
        if first_pass {
            seen.ops.push(run_ops);
            seen.runs.push(RunCounts::of(&run));
        }
    });
    {
        let log = log.borrow();
        seen.splits = roots.iter().map(|&r| split(log.spans(), r)).collect();
    }
    layer_report(&mut out, &seen, &prims, mul_ns, pow_ns);
    out
}

fn layer_report(
    out: &mut Outcome,
    seen: &Traced,
    prims: &[replay::Primitive; PRIMITIVES.len()],
    mul_ns: f64,
    pow_ns: f64,
) {
    let per_split = |f: fn(&LayerSplit) -> u64| {
        mean(&seen.splits.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    let ops_mean = |f: fn(&OpsSnapshot) -> u64| {
        mean(&seen.ops.iter().map(|o| f(o) as f64).collect::<Vec<_>>())
    };
    let runs_mean =
        |f: fn(&RunCounts) -> u64| mean(&seen.runs.iter().map(|r| f(r) as f64).collect::<Vec<_>>());
    let sum = |f: fn(&RunCounts) -> u64| seen.runs.iter().map(f).sum::<u64>() as f64;

    let wall_ms = per_split(|s| s.wall_ns) / 1e6;
    let simnet_ms = per_split(|s| s.simnet_ns) / 1e6;
    let agent_ms = per_split(|s| s.agent_ns) / 1e6;
    let self_ms = per_split(LayerSplit::runner_self_ns) / 1e6;
    let traced_ms: Vec<f64> = seen.splits.iter().map(|s| s.wall_ns as f64 / 1e6).collect();
    let overhead = quantile(&traced_ms, 0.5) - quantile(&seen.untraced_ms, 0.5);

    // Attribution against the replayed trial (trial 0 of the list).
    let trial0_mul = seen.ops.first().map_or(0, |o| o.mul) as f64;
    let attributed: f64 = prims.iter().map(replay::Primitive::mul_per_trial).sum();
    let attributed_share = if trial0_mul > 0.0 {
        attributed / trial0_mul
    } else {
        0.0
    };

    out.metric("modmath.mul_per_trial", "count", ops_mean(|o| o.mul));
    out.metric("modmath.inv_per_trial", "count", ops_mean(|o| o.inv));
    out.metric("modmath.pow_per_trial", "count", ops_mean(|o| o.pow));
    out.metric("modmath.mul_mod_ns", "ns", mul_ns);
    out.metric("modmath.pow_mod_ns", "ns", pow_ns);
    for (name, prim) in PRIMITIVES.iter().zip(prims) {
        out.metric(&format!("crypto.{name}_us"), "us", prim.us_per_call());
        out.metric(&format!("crypto.{name}.mul"), "count", prim.mul_per_call());
    }
    out.metric("crypto.attributed_share", "ratio", attributed_share);
    out.metric("crypto.unattributed_share", "ratio", 1.0 - attributed_share);
    out.metric("simnet.busy_ms_per_trial", "ms", simnet_ms);
    // A count, so over the first pass like the others.
    let first_pass = &seen.splits[..seen.ops.len()];
    out.metric(
        "simnet.calls_per_trial",
        "count",
        mean(
            &first_pass
                .iter()
                .map(|s| s.simnet_calls as f64)
                .collect::<Vec<_>>(),
        ),
    );
    out.metric(
        "simnet.delivered_per_trial",
        "count",
        runs_mean(|r| r.delivered),
    );
    out.metric("simnet.drops_per_trial", "count", runs_mean(|r| r.dropped));
    out.metric("agent.busy_ms_per_trial", "ms", agent_ms);
    out.metric(
        "reliable.retransmissions_per_trial",
        "count",
        runs_mean(|r| r.retransmissions),
    );
    out.metric(
        "reliable.repair_payloads_per_trial",
        "count",
        runs_mean(|r| r.repair_payloads),
    );
    out.metric("reliable.acks_per_trial", "count", runs_mean(|r| r.acks));
    out.metric("reliable.nacks_per_trial", "count", runs_mean(|r| r.nacks));
    out.metric(
        "reliable.duplicates_per_trial",
        "count",
        runs_mean(|r| r.duplicates),
    );
    let phase_messages = sum(|r| r.phase_messages);
    out.metric(
        "reliable.control_share",
        "ratio",
        if phase_messages > 0.0 {
            sum(|r| r.control_messages) / phase_messages
        } else {
            0.0
        },
    );
    out.metric(
        "runner.run_ticks_per_trial",
        "count",
        runs_mean(|r| r.run_ticks),
    );
    out.metric("runner.events_per_trial", "count", runs_mean(|r| r.events));
    let ticks = sum(|r| r.run_ticks);
    out.metric(
        "runner.idle_skip_ratio",
        "ratio",
        if ticks > 0.0 {
            1.0 - sum(|r| r.events) / ticks
        } else {
            0.0
        },
    );
    out.metric("runner.self_ms_per_trial", "ms", self_ms);
    out.metric("trace.wall_ms_per_trial", "ms", wall_ms);
    out.metric("trace.overhead_ms_p50", "ms", overhead);

    let traced = seen.splits.len();
    out.lines.push(format!(
        "parity: {} of {traced} traced trials bit-identical to the untraced run and passing the oracle",
        out.attempted - out.failed
    ));
    out.lines.push(format!(
        "layer split, mean per traced trial over {traced} trials:"
    ));
    let share = |v: f64| {
        if wall_ms > 0.0 {
            100.0 * v / wall_ms
        } else {
            0.0
        }
    };
    for (layer, value) in [
        ("simnet", simnet_ms),
        ("agent", agent_ms),
        ("runner.self", self_ms),
    ] {
        out.lines.push(format!(
            "  {layer:<12} {value:>12.3} ms {:>6.1}%",
            share(value)
        ));
    }
    out.lines.push(format!(
        "  {:<12} {:>12.3} ms {:>6.1}%  (= trial wall)",
        "sum",
        simnet_ms + agent_ms + self_ms,
        share(simnet_ms + agent_ms + self_ms)
    ));
    out.lines.push(format!(
        "crypto attribution of the replayed trial's {trial0_mul:.0} multiplications:"
    ));
    out.lines.push(format!(
        "  {:<20} {:>10} {:>12} {:>12} {:>7}",
        "primitive", "calls", "mul/call", "us/call", "share"
    ));
    for (name, prim) in PRIMITIVES.iter().zip(prims) {
        out.lines.push(format!(
            "  {name:<20} {:>10} {:>12.1} {:>12.3} {:>6.2}%",
            prim.calls_per_trial,
            prim.mul_per_call(),
            prim.us_per_call(),
            if trial0_mul > 0.0 {
                100.0 * prim.mul_per_trial() / trial0_mul
            } else {
                0.0
            }
        ));
    }
    out.lines.push(format!(
        "  {:<20} {:>10} {:>12} {:>12} {:>6.2}%",
        "unattributed",
        "",
        "",
        "",
        100.0 * (1.0 - attributed_share)
    ));
}
